//! Deterministic, seed-driven fault injection for the message-passing
//! runtime: reordering and rank kills. The channel itself is reliable,
//! as the paper's MPI transport is; the injector only moves a frame
//! behind its successors or kills a rank.
//!
//! Every data frame is identified by `(src, dst, tag, seq)`; the plan
//! hashes that identity with its seed to decide whether the frame is
//! delayed. The schedule is therefore a pure function of the seed and the
//! message stream — independent of thread timing — so the same seed
//! reproduces the same reordering run after run.

use std::sync::atomic::{AtomicBool, Ordering};

/// Kill one rank when it enters its `exchange`-th halo exchange
/// (1-based). One-shot: after firing once it never fires again, even
/// across checkpoint restarts of the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    pub rank: usize,
    pub exchange: u64,
}

/// A seeded chaos schedule, shared (via `Arc`) by every rank of a world
/// and across restart attempts.
#[derive(Debug)]
pub struct FaultPlan {
    pub seed: u64,
    /// Probability a data frame is delayed past its successors.
    pub delay_p: f64,
    pub kill: Option<KillSpec>,
    kill_fired: AtomicBool,
}

/// splitmix64 — the mixing function behind the delay decisions.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan that injects nothing (no delay, no kill).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            delay_p: 0.0,
            kill: None,
            kill_fired: AtomicBool::new(false),
        }
    }

    pub fn with_kill(mut self, rank: usize, exchange: u64) -> FaultPlan {
        self.kill = Some(KillSpec { rank, exchange });
        self
    }

    /// Parse a `seed:spec` string, e.g. `42:delay=0.1,kill=1@3`.
    /// The spec part may be empty (a plan with no faults).
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let (seed_str, spec) = s
            .split_once(':')
            .ok_or_else(|| format!("chaos spec `{s}` must look like `seed:delay=0.1,...`"))?;
        let seed: u64 = seed_str
            .trim()
            .parse()
            .map_err(|_| format!("bad chaos seed `{seed_str}`"))?;
        let mut plan = FaultPlan::new(seed);
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("bad chaos clause `{part}` (expected key=value)"))?;
            let key = key.trim();
            let val = val.trim();
            match key {
                "delay" | "reorder" => {
                    let p: f64 = val.parse().map_err(|_| format!("bad probability `{val}`"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("probability `{val}` outside [0, 1]"));
                    }
                    plan.delay_p = p;
                }
                "kill" => {
                    let (r, k) = val
                        .split_once('@')
                        .ok_or_else(|| format!("bad kill clause `{val}` (expected rank@exchange)"))?;
                    plan.kill = Some(KillSpec {
                        rank: r.parse().map_err(|_| format!("bad kill rank `{r}`"))?,
                        exchange: k.parse().map_err(|_| format!("bad kill exchange `{k}`"))?,
                    });
                }
                "drop" | "dup" | "corrupt" => {
                    return Err(format!(
                        "chaos clause `{key}` is not injectable: the channel is reliable, \
                         so a plan can only delay frames and kill ranks"
                    ))
                }
                other => return Err(format!("unknown chaos clause `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Is this data frame held back past its successors? Pure in the
    /// frame identity.
    pub fn delays(&self, src: usize, dst: usize, tag: u64, seq: u64) -> bool {
        if self.delay_p == 0.0 {
            return false;
        }
        let id = ((src as u64) << 40) ^ ((dst as u64) << 20);
        let mut h = splitmix(self.seed ^ splitmix(id));
        h = splitmix(h ^ tag);
        h = splitmix(h ^ seq);
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < self.delay_p
    }

    /// True exactly once, for the configured rank, the first time its
    /// exchange counter reaches the kill point.
    pub fn should_kill(&self, rank: usize, exchange: u64) -> bool {
        match self.kill {
            Some(k) if k.rank == rank && exchange >= k.exchange => self
                .kill_fired
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reordering(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::new(seed);
        p.delay_p = 0.2;
        p
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = reordering(42);
        let b = reordering(42);
        for src in 0..4 {
            for dst in 0..4 {
                for seq in 0..64 {
                    assert_eq!(
                        a.delays(src, dst, 7, seq),
                        b.delays(src, dst, 7, seq),
                        "({src},{dst},{seq})"
                    );
                }
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = reordering(1);
        let b = reordering(2);
        let differs = (0..256).any(|seq| a.delays(0, 1, 0, seq) != b.delays(0, 1, 0, seq));
        assert!(differs);
    }

    #[test]
    fn delay_rate_roughly_matches_probability() {
        let p = reordering(1234);
        let n = 20_000;
        let delays = (0..n).filter(|&seq| p.delays(0, 1, 0, seq)).count();
        let rate = delays as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "delay rate {rate}");
    }

    #[test]
    fn kill_fires_exactly_once() {
        let p = FaultPlan::new(0).with_kill(2, 3);
        assert!(!p.should_kill(2, 1));
        assert!(!p.should_kill(1, 3)); // wrong rank
        assert!(p.should_kill(2, 3));
        assert!(!p.should_kill(2, 3)); // one-shot
        assert!(!p.should_kill(2, 4)); // stays dead
    }

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse("42:delay=0.1,kill=1@3").unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.delay_p, 0.1);
        assert_eq!(p.kill, Some(KillSpec { rank: 1, exchange: 3 }));
        assert_eq!(FaultPlan::parse("7:reorder=0.5").unwrap().delay_p, 0.5);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("no-colon").is_err());
        assert!(FaultPlan::parse("x:delay=0.1").is_err());
        assert!(FaultPlan::parse("1:delay=1.5").is_err());
        assert!(FaultPlan::parse("1:kill=2").is_err());
        assert!(FaultPlan::parse("1:mystery=0.5").is_err());
    }

    #[test]
    fn parse_refuses_message_faults_by_name() {
        for key in ["drop", "dup", "corrupt"] {
            let e = FaultPlan::parse(&format!("1:delay=0.1,{key}=0.05")).unwrap_err();
            assert!(e.contains(&format!("`{key}`")), "{e}");
            assert!(e.contains("reliable"), "{e}");
            assert!(!e.contains("unknown"), "{e}");
        }
    }

    #[test]
    fn empty_spec_is_a_noop_plan() {
        let p = FaultPlan::parse("7:").unwrap();
        assert!(!p.delays(0, 1, 0, 0));
        assert_eq!(p.kill, None);
    }
}
