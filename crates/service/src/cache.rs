//! The compile cache (DESIGN.md §15.4). Key = the requested target
//! (`None` defers to the text's own) and the exact source text, which the
//! cache parses and checks itself on a miss, so an entry never holds
//! another program than its key's. An [`Artifact`] holds the checked
//! program, what its code package reports and, from the text's first run
//! on, the run's plan and compiled stencil: a warm run job parses, lints,
//! lowers and compiles nothing. The map lock is held across a miss on
//! purpose: concurrent identical submissions serialize on the first miss
//! and the rest hit. The run half is built outside it, once, under the
//! entry's `OnceLock`. A text that does not parse, is denied or does not
//! emit is not cached.

use crate::proto::Response;
use msc_core::schedule::{effective_schedule, ExecPlan, Target};
use msc_exec::{ExecTier, Executor, Grid, TieredStencil};
use msc_lint::CheckedProgram;
use msc_trace::Counter;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What one submitted text compiled to.
pub struct Artifact {
    /// The program the text holds, checked for `target`.
    pub program: CheckedProgram,
    pub target: Target,
    /// The emitted package's lines of code and file names. Its text is not
    /// kept: no response carries it, and the program above emits the same
    /// bytes again (DESIGN.md §15.4).
    pub loc: u64,
    pub files: Vec<String>,
    run: OnceLock<Result<Runnable, String>>,
}

/// What a run of an artifact's program takes besides its seed.
pub struct Runnable {
    /// The effective schedule lowered over the program's grid.
    pub executor: Executor,
    /// The program compiled on the default tier for its grid, shared by
    /// every run of the text.
    pub stencil: Arc<TieredStencil<f64>>,
}

impl Artifact {
    /// The plan and the compiled stencil of this program's runs: built by
    /// the first caller (its compile time goes to that caller's hub), the
    /// same ones for every caller after it.
    pub fn runnable(&self) -> Result<&Runnable, String> {
        let built = self.run.get_or_init(|| {
            let program = &*self.program;
            let sched = effective_schedule(program, self.target);
            let plan = ExecPlan::lower(&sched, program.grid.ndim(), &program.grid.shape)
                .map_err(|e| e.to_string())?;
            let like: Grid<f64> = Grid::for_tensor(&program.grid);
            let stencil = TieredStencil::compile(program, &like, ExecTier::Auto)
                .map_err(|e| e.to_string())?;
            msc_trace::record(Counter::VmCompileNanos, stencil.compile_nanos);
            Ok(Runnable {
                executor: Executor::Tiled(plan),
                stencil: Arc::new(stencil),
            })
        });
        built.as_ref().map_err(Clone::clone)
    }
}

/// The requested target and the exact source text.
type Key = (Option<Target>, String);

/// Shared compile cache with hit/miss accounting.
#[derive(Default)]
pub struct CompileCache {
    map: Mutex<HashMap<Key, Arc<Artifact>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CompileCache {
    pub fn new() -> CompileCache {
        CompileCache::default()
    }

    /// The artifact of `source` for the requested `target`, parsed,
    /// checked and emitted on a miss, and whether it was a cache hit; or
    /// the refusal to send back: `Error`, or `Denied` with every finding.
    // The Err IS the wire message, once per refused job.
    #[allow(clippy::result_large_err)]
    pub fn get_or_compile(
        &self,
        source: &str,
        target: Option<Target>,
    ) -> Result<(Arc<Artifact>, bool), Response> {
        let error = |message: String| Response::Error { message };
        let key = (target, source.to_string());
        let mut map = self.map.lock().expect("poisoned by a panicking job");
        if let Some(artifact) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(artifact), true));
        }
        let parsed = msc_core::parse::parse_unchecked(source).map_err(|e| error(e.to_string()))?;
        let target = target.or(parsed.target).unwrap_or(Target::Cpu);
        // Front door: the one check of the text. Deny-level findings stop
        // it before codegen or execution.
        let program = msc_lint::check_owned(parsed.program, Some(target)).map_err(|report| {
            Response::Denied {
                program: report.program.clone(),
                report: report.json(),
            }
        })?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let package = msc_codegen::compile_to_source(&program.checked(), target)
            .map_err(|e| error(e.to_string()))?;
        let artifact = Arc::new(Artifact {
            program,
            target,
            loc: package.total_loc() as u64,
            files: package.file_names().iter().map(|f| f.to_string()).collect(),
            run: OnceLock::new(),
        });
        map.insert(key, Arc::clone(&artifact));
        Ok((artifact, false))
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.map.lock().expect("poisoned by a panicking job").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(schedule: &str) -> String {
        format!(
            "\
stencil cached_3d7pt {{
    grid B: f64[12, 12, 12] halo 1 window 2;

    kernel S = 0.4*B[0,0,0]
             + 0.1*B[-1,0,0] + 0.1*B[1,0,0]
             + 0.1*B[0,-1,0] + 0.1*B[0,1,0]
             + 0.1*B[0,0,-1] + 0.1*B[0,0,1];

    combine res[t] = 1.0*S[t-1];
{schedule}
    run 2;
    target cpu;
}}
"
        )
    }

    #[test]
    fn identical_submissions_hit_after_first_miss() {
        let cache = CompileCache::new();
        let src = source("");
        let (a, hit_a) = cache.get_or_compile(&src, None).unwrap();
        assert!(!hit_a);
        let (b, hit_b) = cache.get_or_compile(&src, None).unwrap();
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        // The run half is built once and shared.
        let (ra, rb) = (a.runnable().unwrap(), b.runnable().unwrap());
        assert!(Arc::ptr_eq(&ra.stencil, &rb.stencil));
    }

    #[test]
    fn the_requested_target_is_part_of_the_key() {
        let cache = CompileCache::new();
        let src = source("");
        let (cpu, h1) = cache.get_or_compile(&src, Some(Target::Cpu)).unwrap();
        let (sunway, h2) = cache.get_or_compile(&src, Some(Target::SunwayCG)).unwrap();
        assert!(!h1 && !h2, "different targets must not collide");
        assert_eq!((cpu.target, sunway.target), (Target::Cpu, Target::SunwayCG));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn texts_that_differ_only_in_their_schedule_block_miss() {
        let cache = CompileCache::new();
        let tiles = |art: &Artifact| art.runnable().unwrap().executor.tiles().len();
        let mut seen = Vec::new();
        for schedule in [
            "",
            "    schedule { tile 4 4 4; }\n",
            "    schedule { tile 6 6 6; }\n",
        ] {
            let (art, hit) = cache.get_or_compile(&source(schedule), None).unwrap();
            assert!(!hit, "schedule change must not collide: {schedule:?}");
            seen.push(tiles(&art));
        }
        // Each entry runs the schedule its own text names.
        assert_eq!(seen[1..], [27, 8]);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 3, 3));
    }

    #[test]
    fn a_denied_or_unparsable_text_is_not_cached() {
        let narrow = source("").replace("halo 1", "halo 0");
        assert!(matches!(cache_refusal(&narrow), Response::Denied { .. }));
        assert!(matches!(cache_refusal("stencil {"), Response::Error { .. }));
    }

    fn cache_refusal(src: &str) -> Response {
        let cache = CompileCache::new();
        let Err(refusal) = cache.get_or_compile(src, None) else {
            panic!("{src} was admitted");
        };
        assert_eq!((cache.misses(), cache.len()), (0, 0));
        refusal
    }
}
