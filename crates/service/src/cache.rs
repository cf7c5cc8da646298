//! The compile cache (DESIGN.md §15.4). Key = the requested target
//! (`None` defers to the text's own) and the exact source text, which the
//! cache parses and checks itself on a miss, so an entry never holds
//! another program than its key's. An [`Artifact`] holds what the text's
//! code package reports and, from the text's first run on, its [`Runnable`]:
//! the checked program, the run's plan, compiled stencil and seed grid. A
//! warm run job parses, lints, lowers, compiles and draws nothing, and
//! borrows the entry's seed. A compile-only entry keeps no program: the
//! first run of its text checks the text again. The map lock is held
//! across a miss on purpose: concurrent identical submissions serialize on
//! the first miss and the rest hit. The run half is built outside it,
//! once, under the entry's `OnceLock`. A text that does not parse, is
//! denied or does not emit is not cached.

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
    /// The program's name, for responses.
    pub name: String,
    pub target: Target,
    /// The emitted package's lines of code and file names. Its text is not
    /// kept: no response carries it, and the program emits the same bytes
    /// again (DESIGN.md §15.4).
    pub loc: u64,
    pub files: Vec<String>,
    run: OnceLock<Result<Runnable, String>>,
}

/// Everything a run of an artifact's program takes.
pub struct Runnable {
    /// The program the text holds, checked for the artifact's target.
    pub program: CheckedProgram,
    /// The effective schedule lowered over the program's grid.
    pub executor: Executor,
    /// The program compiled on the default tier for its grid, shared by
    /// every run of the text.
    pub stencil: Arc<TieredStencil<f64>>,
    /// Every run's initial state, `Grid::random(shape, halo, 42)`. Runs
    /// borrow it: a Dirichlet ring only reads its seed, so it is never
    /// written and concurrent runs share it.
    pub seed: Grid<f64>,
}

impl Artifact {
    /// The checked program, plan, compiled stencil and seed of this text's
    /// runs: built by the first caller from `checked`, the program its
    /// miss just checked, or else from `source` checked again (its compile
    /// time goes to that caller's hub); the same ones for every caller
    /// after it.
    pub fn runnable(
        &self,
        source: &str,
        checked: Option<CheckedProgram>,
    ) -> Result<&Runnable, String> {
        let built = self.run.get_or_init(|| {
            let program = match checked {
                Some(program) => program,
                None => {
                    check(source, Some(self.target))
                        .map_err(|_| "the cached text no longer checks".to_string())?
                        .0
                }
            };
            let sched = effective_schedule(&program, self.target);
            let plan = ExecPlan::lower(&sched, program.grid.ndim(), &program.grid.shape)
                .map_err(|e| e.to_string())?;
            let seed = Grid::try_random(&program.grid.shape, &program.grid.halo, 42)
                .map_err(|e| e.to_string())?;
            let stencil = TieredStencil::compile(&program, &seed, ExecTier::Auto)
                .map_err(|e| e.to_string())?;
            msc_trace::record(Counter::VmCompileNanos, stencil.compile_nanos);
            Ok(Runnable {
                program,
                executor: Executor::Tiled(plan),
                stencil: Arc::new(stencil),
                seed,
            })
        });
        built.as_ref().map_err(Clone::clone)
    }
}

/// Parse `source` and check it for `target` (`None`: the text's own,
/// else cpu), with the target it was checked for; or the refusal to send
/// back: `Error`, or `Denied` with every finding. The front door: a
/// text is checked here before codegen or execution.
// The Err IS the wire message, once per refused job.
#[allow(clippy::result_large_err)]
fn check(source: &str, target: Option<Target>) -> Result<(CheckedProgram, Target), Response> {
    let parsed = msc_core::parse::parse_unchecked(source).map_err(|e| Response::Error {
        message: e.to_string(),
    })?;
    let target = target.or(parsed.target).unwrap_or(Target::Cpu);
    let program =
        msc_lint::check_owned(parsed.program, Some(target)).map_err(|report| Response::Denied {
            program: report.program.clone(),
            report: report.json(),
        })?;
    Ok((program, target))
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
    /// checked and emitted on a miss, with the program a miss checked
    /// (`None`: a cache hit), which the entry does not keep; or the
    /// refusal to send back: `Error`, or `Denied` with every finding.
    // The Err IS the wire message, once per refused job.
    #[allow(clippy::result_large_err)]
    pub fn get_or_compile(
        &self,
        source: &str,
        target: Option<Target>,
    ) -> Result<(Arc<Artifact>, Option<CheckedProgram>), Response> {
        let key = (target, source.to_string());
        let mut map = self.map.lock().expect("poisoned by a panicking job");
        if let Some(artifact) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(artifact), None));
        }
        let (program, target) = check(source, target)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let package = msc_codegen::compile_to_source(&program.checked(), target).map_err(|e| {
            Response::Error {
                message: e.to_string(),
            }
        })?;
        let artifact = Arc::new(Artifact {
            name: program.name.clone(),
            target,
            loc: package.total_loc() as u64,
            files: package.file_names().iter().map(|f| f.to_string()).collect(),
            run: OnceLock::new(),
        });
        map.insert(key, Arc::clone(&artifact));
        Ok((artifact, Some(program)))
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
        let (a, checked) = cache.get_or_compile(&src, None).unwrap();
        assert!(checked.is_some(), "a miss hands back what it checked");
        let (b, hit) = cache.get_or_compile(&src, None).unwrap();
        assert!(hit.is_none());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        // The run half is built once and shared.
        let (ra, rb) = (
            a.runnable(&src, checked).unwrap(),
            b.runnable(&src, None).unwrap(),
        );
        assert!(Arc::ptr_eq(&ra.stencil, &rb.stencil));
    }

    #[test]
    fn the_requested_target_is_part_of_the_key() {
        let cache = CompileCache::new();
        let src = source("");
        let (cpu, c1) = cache.get_or_compile(&src, Some(Target::Cpu)).unwrap();
        let (sunway, c2) = cache.get_or_compile(&src, Some(Target::SunwayCG)).unwrap();
        assert!(
            c1.is_some() && c2.is_some(),
            "different targets must not collide"
        );
        assert_eq!((cpu.target, sunway.target), (Target::Cpu, Target::SunwayCG));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn texts_that_differ_only_in_their_schedule_block_miss() {
        let cache = CompileCache::new();
        let mut seen = Vec::new();
        for schedule in [
            "",
            "    schedule { tile 4 4 4; }\n",
            "    schedule { tile 6 6 6; }\n",
        ] {
            let src = source(schedule);
            let (art, checked) = cache.get_or_compile(&src, None).unwrap();
            assert!(
                checked.is_some(),
                "schedule change must not collide: {schedule:?}"
            );
            seen.push(art.runnable(&src, checked).unwrap().executor.tiles().len());
        }
        // Each entry runs the schedule its own text names.
        assert_eq!(seen[1..], [27, 8]);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 3, 3));
    }

    /// A compile-only entry keeps no program; the first run of its text
    /// checks the text again and runs what a run miss would have.
    #[test]
    fn a_compile_only_entry_builds_its_run_from_the_text() {
        let cache = CompileCache::new();
        let src = source("    schedule { tile 4 4 4; }\n");
        let (compiled_only, checked) = cache.get_or_compile(&src, None).unwrap();
        drop(checked);
        let run = compiled_only.runnable(&src, None).unwrap();
        assert_eq!(run.program.name, compiled_only.name);
        let other = CompileCache::new();
        let (fresh, checked) = other.get_or_compile(&src, None).unwrap();
        let want = fresh.runnable(&src, checked).unwrap();
        assert_eq!(run.executor.tiles(), want.executor.tiles());
        assert_eq!(run.seed.as_slice(), want.seed.as_slice());
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
