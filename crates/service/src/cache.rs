//! The content-addressed compile cache.
//!
//! Key = (source hash, target, schedule hash). The source text already
//! determines the program, but the effective schedule is hashed
//! separately because callers can mutate kernel schedules after parsing
//! (autoscheduling, schedule search) — two submissions with identical
//! text but different effective schedules must not collide, and two
//! tenants submitting the same program must share one artifact.
//!
//! The map lock is held across a compile on purpose: concurrent
//! identical submissions serialize on the first miss and everyone else
//! hits, which is exactly the behaviour a compile service wants (no
//! thundering herd of redundant compiles).

use msc_codegen::CodePackage;
use msc_core::dsl::StencilProgram;
use msc_core::schedule::Target;
use msc_lint::Checked;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a, the workspace's standard dependency-free hash.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    source: u64,
    target: Target,
    schedule: u64,
}

impl CacheKey {
    fn of(source: &str, program: &StencilProgram, target: Target) -> CacheKey {
        // The Debug rendering of the kernel schedules is a complete,
        // stable description of every scheduling decision.
        let mut sched = String::new();
        for k in &program.stencil.kernels {
            sched.push_str(&format!("{:?};", k.schedule));
        }
        CacheKey {
            source: fnv64(source.as_bytes()),
            target,
            schedule: fnv64(sched.as_bytes()),
        }
    }
}

/// Shared compile cache with hit/miss accounting.
#[derive(Default)]
pub struct CompileCache {
    map: Mutex<HashMap<CacheKey, Arc<CodePackage>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CompileCache {
    pub fn new() -> CompileCache {
        CompileCache::default()
    }

    /// Look up the artifact for (source, program, target), compiling on
    /// miss. Returns the package and whether it was a cache hit.
    pub fn get_or_compile(
        &self,
        source: &str,
        program: &Checked<'_>,
        target: Target,
    ) -> Result<(Arc<CodePackage>, bool), String> {
        let key = CacheKey::of(source, program, target);
        let mut map = self.map.lock().unwrap();
        if let Some(pkg) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(pkg), true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let pkg = Arc::new(msc_codegen::compile_to_source(program, target).map_err(|e| e.to_string())?);
        map.insert(key, Arc::clone(&pkg));
        Ok((pkg, false))
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::parse::parse_unchecked;
    use msc_lint::check;

    const SRC: &str = "\
stencil cached_3d7pt {
    grid B: f64[12, 12, 12] halo 1 window 2;

    kernel S = 0.4*B[0,0,0]
             + 0.1*B[-1,0,0] + 0.1*B[1,0,0]
             + 0.1*B[0,-1,0] + 0.1*B[0,1,0]
             + 0.1*B[0,0,-1] + 0.1*B[0,0,1];

    combine res[t] = 1.0*S[t-1];

    run 2;
    target cpu;
}
";

    #[test]
    fn identical_submissions_hit_after_first_miss() {
        let cache = CompileCache::new();
        let parsed = parse_unchecked(SRC).unwrap();
        let program = check(&parsed.program, Some(Target::Cpu)).unwrap();
        let (a, hit_a) = cache.get_or_compile(SRC, &program, Target::Cpu).unwrap();
        assert!(!hit_a);
        let (b, hit_b) = cache.get_or_compile(SRC, &program, Target::Cpu).unwrap();
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn target_and_schedule_are_part_of_the_key() {
        let cache = CompileCache::new();
        let parsed = parse_unchecked(SRC).unwrap();
        let program = check(&parsed.program, Some(Target::Cpu)).unwrap();
        let (_, h1) = cache.get_or_compile(SRC, &program, Target::Cpu).unwrap();
        let (_, h2) = cache
            .get_or_compile(SRC, &program, Target::SunwayCG)
            .unwrap();
        assert!(!h1 && !h2, "different targets must not collide");

        // Same source text, mutated schedule: must miss.
        let mut tiled = parse_unchecked(SRC).unwrap().program;
        for k in &mut tiled.stencil.kernels {
            k.schedule.tile(&[4, 4, 4]);
        }
        let tiled = check(&tiled, Some(Target::Cpu)).unwrap();
        let (_, h3) = cache.get_or_compile(SRC, &tiled, Target::Cpu).unwrap();
        assert!(!h3, "schedule change must not collide");
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.len(), 3);
    }
}
