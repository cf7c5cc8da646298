//! Online stall/straggler detection.
//!
//! The sampler hands each pair of consecutive hub snapshots to
//! [`detect_alerts`], which turns them into structured [`Alert`]s: a
//! rank whose step rate z-scores far below its peers (or stops moving
//! while peers advance), a halo-wait p99 over budget, a failure-detector
//! latency spike. Alerts are pure data — the sampler routes them to the
//! flight recorder ([`crate::FlightKind::Alert`]), stderr, and the JSONL
//! stream, so a live `mscc top` and a post-mortem dump see the same
//! taxonomy.

use crate::histogram::{Hist, HistSet};
use crate::hub::RankSample;

/// Alert taxonomy. Stable names appear in the JSONL stream and the
/// flight recorder (`tag` = discriminant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum AlertKind {
    /// A rank's step rate fell far below its peers (z-score), or it
    /// stopped advancing while peers moved on.
    StallRank,
    /// Interval halo-wait p99 exceeded the configured budget.
    HaloWaitBudget,
    /// The failure detector reported suspicion latency over budget (any
    /// new `detect_latency` sample is a membership event worth seeing).
    DetectLatencySpike,
    /// A communication fault flushed the metrics stream (raised from
    /// the dump-on-error path, not from snapshot deltas).
    CommFault,
}

impl AlertKind {
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::StallRank => "stall_rank",
            AlertKind::HaloWaitBudget => "halo_wait_budget",
            AlertKind::DetectLatencySpike => "detect_latency_spike",
            AlertKind::CommFault => "comm_fault",
        }
    }
}

/// One structured alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    pub kind: AlertKind,
    /// Offending rank, or `-1` when the alert is not rank-specific.
    pub rank: i64,
    /// Measured value (unit depends on kind: steps/s, ns, ...).
    pub value: f64,
    /// Threshold it crossed.
    pub threshold: f64,
    /// Trace-epoch nanos when the alert was raised.
    pub t_ns: u64,
    pub message: String,
}

// Detector tuning, deliberately conservative: alerts are operator
// signals, not errors, but a noisy detector trains operators to ignore it.

/// A rank stalls when its interval step rate z-scores below
/// `-STALL_ZSCORE` against its peers (population std; needs >= 4 active
/// ranks for the z-score rule to be meaningful).
const STALL_ZSCORE: f64 = 2.0;
/// No-progress rule (any world size >= 2): alert when a rank made 0 steps
/// this interval while some peer made at least this many and is ahead of
/// it.
const MIN_PEER_STEPS: u64 = 2;
/// Interval halo-wait p99 budget in nanoseconds (250 ms). The failure
/// detector has no budget: any detection event alerts.
const HALO_WAIT_P99_BUDGET_NS: u64 = 250_000_000;

/// Join consecutive rank snapshots by rank id: (rank, steps delta,
/// behind = last_step below the front).
fn rank_deltas(prev: &[RankSample], cur: &[RankSample]) -> Vec<(u32, u64, u64)> {
    cur.iter()
        .map(|c| {
            let before = prev
                .iter()
                .find(|p| p.rank == c.rank)
                .map_or(0, |p| p.steps);
            (c.rank, c.steps.saturating_sub(before), c.last_step)
        })
        .collect()
}

/// Compare consecutive hub snapshots and return every alert the
/// interval raised. `dhists` is the *interval* histogram set (current
/// minus previous via [`crate::Histogram::saturating_delta`]); `t_ns`
/// stamps the alerts.
pub fn detect_alerts(
    prev_ranks: &[RankSample],
    cur_ranks: &[RankSample],
    dhists: &HistSet,
    t_ns: u64,
) -> Vec<Alert> {
    let mut out = Vec::new();

    let deltas = rank_deltas(prev_ranks, cur_ranks);
    if deltas.len() >= 2 {
        let front = deltas.iter().map(|&(_, _, last)| last).max().unwrap_or(0);
        let max_delta = deltas.iter().map(|&(_, d, _)| d).max().unwrap_or(0);

        // No-progress rule: robust at any world size.
        if max_delta >= MIN_PEER_STEPS {
            for &(rank, d, last) in &deltas {
                if d == 0 && last < front {
                    out.push(Alert {
                        kind: AlertKind::StallRank,
                        rank: rank as i64,
                        value: 0.0,
                        threshold: MIN_PEER_STEPS as f64,
                        t_ns,
                        message: format!(
                            "rank {rank} made no progress (step {last}) while peers advanced {max_delta} steps to step {front}"
                        ),
                    });
                }
            }
        }

        // z-score rule: needs enough peers for a std to mean anything.
        if deltas.len() >= 4 {
            let n = deltas.len() as f64;
            let mean = deltas.iter().map(|&(_, d, _)| d as f64).sum::<f64>() / n;
            let var = deltas
                .iter()
                .map(|&(_, d, _)| (d as f64 - mean).powi(2))
                .sum::<f64>()
                / n;
            let std = var.sqrt();
            if std > 0.0 {
                for &(rank, d, _) in &deltas {
                    let z = (d as f64 - mean) / std;
                    if z <= -STALL_ZSCORE
                        && !out
                            .iter()
                            .any(|a| a.kind == AlertKind::StallRank && a.rank == rank as i64)
                    {
                        out.push(Alert {
                            kind: AlertKind::StallRank,
                            rank: rank as i64,
                            value: z,
                            threshold: -STALL_ZSCORE,
                            t_ns,
                            message: format!(
                                "rank {rank} step rate z-score {z:.2} (made {d} steps vs mean {mean:.1})"
                            ),
                        });
                    }
                }
            }
        }
    }

    let halo = dhists.get(Hist::HaloWaitNanos);
    if !halo.is_empty() {
        let p99 = halo.p99();
        if p99 > HALO_WAIT_P99_BUDGET_NS {
            out.push(Alert {
                kind: AlertKind::HaloWaitBudget,
                rank: -1,
                value: p99 as f64,
                threshold: HALO_WAIT_P99_BUDGET_NS as f64,
                t_ns,
                message: format!(
                    "halo-wait p99 {:.1} ms over budget {:.1} ms",
                    p99 as f64 / 1e6,
                    HALO_WAIT_P99_BUDGET_NS as f64 / 1e6
                ),
            });
        }
    }

    let detect = dhists.get(Hist::DetectLatencyNanos);
    if !detect.is_empty() {
        let p99 = detect.p99();
        out.push(Alert {
            kind: AlertKind::DetectLatencySpike,
            rank: -1,
            value: p99 as f64,
            threshold: 0.0,
            t_ns,
            message: format!(
                "failure detector fired {} time(s), latency p99 {:.1} ms",
                detect.count(),
                p99 as f64 / 1e6
            ),
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::HistSet;

    fn sample(rank: u32, steps: u64, last_step: u64) -> RankSample {
        RankSample {
            rank,
            steps,
            last_step,
            ..RankSample::default()
        }
    }

    #[test]
    fn quiet_interval_raises_nothing() {
        let prev = vec![sample(0, 10, 9), sample(1, 10, 9)];
        let cur = vec![sample(0, 20, 19), sample(1, 20, 19)];
        let alerts = detect_alerts(&prev, &cur, &HistSet::new(), 0);
        assert!(alerts.is_empty(), "{alerts:?}");
    }

    #[test]
    fn dead_rank_in_two_rank_world_trips_no_progress_rule() {
        let prev = vec![sample(0, 10, 9), sample(1, 10, 9)];
        let cur = vec![sample(0, 20, 19), sample(1, 10, 9)];
        let alerts = detect_alerts(&prev, &cur, &HistSet::new(), 7);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::StallRank);
        assert_eq!(alerts[0].rank, 1);
        assert_eq!(alerts[0].t_ns, 7);
        assert!(alerts[0].message.contains("rank 1"));
    }

    #[test]
    fn slow_rank_in_large_world_trips_zscore_rule() {
        let prev: Vec<_> = (0..8).map(|r| sample(r, 100, 99)).collect();
        // Rank 5 crawls (1 step) while everyone else does 50.
        let cur: Vec<_> = (0..8)
            .map(|r| {
                let d = if r == 5 { 1 } else { 50 };
                sample(r, 100 + d, 99 + d)
            })
            .collect();
        let alerts = detect_alerts(&prev, &cur, &HistSet::new(), 0);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::StallRank);
        assert_eq!(alerts[0].rank, 5);
        assert!(alerts[0].value < -2.0);
    }

    #[test]
    fn rank_behind_but_moving_does_not_alert() {
        let prev = vec![sample(0, 10, 9), sample(1, 8, 7)];
        let cur = vec![sample(0, 20, 19), sample(1, 12, 11)];
        let alerts = detect_alerts(&prev, &cur, &HistSet::new(), 0);
        assert!(alerts.is_empty(), "{alerts:?}");
    }

    #[test]
    fn halo_budget_and_detect_spike_fire_from_interval_hists() {
        let mut d = HistSet::new();
        d.add(Hist::HaloWaitNanos, 400_000_000); // 400 ms > 250 ms budget
        d.add(Hist::DetectLatencyNanos, 5_000_000);
        let alerts = detect_alerts(&[], &[], &d, 0);
        let kinds: Vec<_> = alerts.iter().map(|a| a.kind).collect();
        assert!(kinds.contains(&AlertKind::HaloWaitBudget));
        assert!(kinds.contains(&AlertKind::DetectLatencySpike));
        for a in &alerts {
            assert_eq!(a.rank, -1);
        }
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(AlertKind::StallRank.name(), "stall_rank");
        assert_eq!(AlertKind::CommFault.name(), "comm_fault");
    }
}
