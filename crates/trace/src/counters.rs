//! Typed counters: the fixed metric vocabulary shared by the executors,
//! the halo runtime, and the stats views built on top of them.
//!
//! [`CounterSet`] — a plain `Copy` array of values — is the one
//! representation: a step, block or rank counts into one, `RunStats` and
//! `CommStats` are views over one, and a [`crate::TelemetryHub`] keeps
//! its totals in one, merged into under its lock when an account is
//! published ([`record_set`], plus [`record`] for the few counts no
//! account carries) and copied out by [`snapshot`]. The free functions
//! here resolve the calling thread's current hub (default hub unless one
//! was installed) and delegate.

/// How a counter combines when two sets (steps, threads, ranks) merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeMode {
    /// Totals add (bytes moved, tiles executed, ...).
    Sum,
    /// Merged value is the maximum (peak footprints).
    Max,
}

macro_rules! counters {
    ($( $(#[$doc:meta])* $variant:ident => ($name:literal, $unit:literal, $mode:ident) ),+ $(,)?) => {
        /// The metric vocabulary. Every counter has a stable name, a
        /// unit, and a merge mode; adding a variant automatically
        /// extends `CounterSet` (so every hub) and both exporters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $( $(#[$doc])* $variant ),+
        }

        impl Counter {
            pub const COUNT: usize = [$( Counter::$variant ),+].len();
            pub const ALL: [Counter; Counter::COUNT] = [$( Counter::$variant ),+];

            /// Stable snake_case identifier (used in exports).
            pub fn name(self) -> &'static str {
                match self { $( Counter::$variant => $name ),+ }
            }

            pub fn unit(self) -> &'static str {
                match self { $( Counter::$variant => $unit ),+ }
            }

            pub fn merge_mode(self) -> MergeMode {
                match self { $( Counter::$variant => MergeMode::$mode ),+ }
            }
        }
    };
}

counters! {
    Steps            => ("steps", "count", Sum),
    TilesExecuted    => ("tiles_executed", "count", Sum),
    DmaGetBytes      => ("dma_get_bytes", "bytes", Sum),
    DmaPutBytes      => ("dma_put_bytes", "bytes", Sum),
    DmaRows          => ("dma_rows", "count", Sum),
    SpmPeakBytes     => ("spm_peak_bytes", "bytes", Max),
    HaloMessages     => ("halo_messages", "count", Sum),
    HaloBytes        => ("halo_bytes", "bytes", Sum),
    PackNanos        => ("pack_time", "ns", Sum),
    UnpackNanos      => ("unpack_time", "ns", Sum),
    BarrierWaitNanos => ("barrier_wait", "ns", Sum),
    Ranks            => ("ranks", "count", Max),
    TemporalBlocks   => ("temporal_blocks", "count", Sum),
    ComputedPoints   => ("computed_points", "count", Sum),
    /// Always 0: the channel is reliable, so nothing is retransmitted.
    /// Kept while the benchmark's `comm.retransmits` metric reads it.
    RetransmitCount  => ("retransmits", "count", Sum),
    TimeoutCount     => ("timeouts", "count", Sum),
    FaultsInjected   => ("faults_injected", "count", Sum),
    CheckpointBytes  => ("checkpoint_bytes", "bytes", Sum),
    CheckpointNanos  => ("checkpoint_time", "ns", Sum),
    PoolSteals       => ("pool_steals", "count", Sum),
    PoolParks        => ("pool_parks", "count", Sum),
    PoolUnparks      => ("pool_unparks", "count", Sum),
    OverlapNanos     => ("overlap_window", "ns", Sum),
    VmCompileNanos   => ("vm_compile_time", "ns", Sum),
    VmDispatches     => ("vm_dispatches", "count", Sum),
    SpecializedHits  => ("specialized_hits", "count", Sum),
    RankRecoveries   => ("rank_recoveries", "count", Sum),
    BuddyBytes       => ("buddy_bytes", "bytes", Sum),
    /// Window slots a single-node run allocated because no retired slot
    /// of its layout was left (DESIGN.md §17.4). Tracer only: it depends
    /// on what ran before in the process, so no run's account carries it.
    FreshSlots       => ("fresh_slots", "count", Sum),
}

/// A plain, copyable vector of counter values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSet {
    vals: [u64; Counter::COUNT],
}

impl CounterSet {
    pub const fn new() -> CounterSet {
        CounterSet {
            vals: [0; Counter::COUNT],
        }
    }

    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }

    #[inline]
    pub fn set(&mut self, c: Counter, v: u64) {
        self.vals[c as usize] = v;
    }

    /// Accumulate into one counter following its merge mode.
    /// Sums saturate rather than wrap.
    #[inline]
    pub fn bump(&mut self, c: Counter, v: u64) {
        let slot = &mut self.vals[c as usize];
        match c.merge_mode() {
            MergeMode::Sum => *slot = slot.saturating_add(v),
            MergeMode::Max => *slot = (*slot).max(v),
        }
    }

    /// Merge another set in, counter by counter, honoring merge modes.
    pub fn merge(&mut self, other: &CounterSet) {
        for c in Counter::ALL {
            self.bump(c, other.get(c));
        }
    }

    pub fn is_zero(&self) -> bool {
        self.vals.iter().all(|&v| v == 0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(move |&c| (c, self.get(c)))
    }
}

/// True when the calling thread's current hub has tracing enabled.
#[inline]
pub fn enabled() -> bool {
    crate::hub::with_current(|h| h.enabled())
}

/// Enable or disable tracing on the calling thread's current hub.
pub fn set_enabled(on: bool) {
    crate::hub::with_current(|h| h.set_enabled(on));
}

/// RAII enable: turns the current hub's tracing on, restores the
/// previous state on drop. Captures the hub at construction, so the
/// restore hits the same hub even if the thread's install stack changed.
pub struct EnableGuard {
    hub: std::sync::Arc<crate::TelemetryHub>,
    was: bool,
}

impl EnableGuard {
    #[allow(clippy::new_without_default)]
    pub fn new() -> EnableGuard {
        let hub = crate::hub::current_hub();
        let was = hub.enabled();
        hub.set_enabled(true);
        EnableGuard { hub, was }
    }
}

impl Drop for EnableGuard {
    fn drop(&mut self) {
        self.hub.set_enabled(self.was);
    }
}

/// Accumulate `v` into counter `c` of the current hub (no-op unless
/// that hub has tracing enabled). Sum-mode counters add; max-mode
/// counters take the running maximum. For counts no account carries;
/// everything else reaches the hub through [`record_set`].
#[inline]
pub fn record(c: Counter, v: u64) {
    crate::hub::with_current(|h| h.record(c, v));
}

/// Publish an account — what one step, block or rank counted and the
/// latency samples it took — into the current hub (no-op unless
/// enabled). See [`crate::TelemetryHub::record_set`].
pub fn record_set(counters: &CounterSet, hists: &crate::HistSet) {
    crate::hub::with_current(|h| h.record_set(counters, hists));
}

/// The current hub's counter totals.
pub fn snapshot() -> CounterSet {
    crate::hub::with_current(|h| h.snapshot())
}

/// Zero the current hub's counter totals.
pub fn reset_counters() {
    crate::hub::with_current(|h| h.reset_counters());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::GLOBAL_TEST_LOCK;

    #[test]
    fn counter_set_merges_by_mode() {
        let mut a = CounterSet::new();
        a.set(Counter::DmaGetBytes, 100);
        a.set(Counter::SpmPeakBytes, 64);
        let mut b = CounterSet::new();
        b.set(Counter::DmaGetBytes, 11);
        b.set(Counter::SpmPeakBytes, 512);
        a.merge(&b);
        assert_eq!(a.get(Counter::DmaGetBytes), 111);
        assert_eq!(a.get(Counter::SpmPeakBytes), 512);
    }

    /// Audit the counter vocabulary: names must be unique, snake_case,
    /// and every counter must declare a non-empty unit. Exporters
    /// (OpenMetrics families, JSONL keys) rely on all three.
    #[test]
    fn counter_names_are_unique_snake_case_with_units() {
        let mut seen = std::collections::BTreeSet::new();
        for c in Counter::ALL {
            let name = c.name();
            assert!(!name.is_empty(), "{c:?} has an empty name");
            assert!(
                name.chars()
                    .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '_'),
                "{c:?} name {name:?} is not snake_case"
            );
            assert!(
                !name.starts_with('_') && !name.ends_with('_') && !name.contains("__"),
                "{c:?} name {name:?} has stray underscores"
            );
            assert!(seen.insert(name), "duplicate counter name {name:?}");
            assert!(!c.unit().is_empty(), "{c:?} ({name}) has an empty unit");
        }
    }

    #[test]
    fn counter_set_sum_saturates() {
        let mut a = CounterSet::new();
        a.set(Counter::HaloBytes, u64::MAX - 1);
        let mut b = CounterSet::new();
        b.set(Counter::HaloBytes, 1000);
        a.merge(&b);
        assert_eq!(a.get(Counter::HaloBytes), u64::MAX);
    }

    #[test]
    fn disabled_record_is_inert() {
        let _g = GLOBAL_TEST_LOCK.lock().unwrap();
        reset_counters();
        set_enabled(false);
        let before = snapshot();
        record(Counter::TilesExecuted, 42);
        record(Counter::SpmPeakBytes, 1 << 20);
        assert_eq!(snapshot(), before);
    }

    #[test]
    fn enabled_record_accumulates_across_threads() {
        let _g = GLOBAL_TEST_LOCK.lock().unwrap();
        reset_counters();
        {
            let _e = EnableGuard::new();
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        for _ in 0..100 {
                            record(Counter::TilesExecuted, 1);
                        }
                        record(Counter::SpmPeakBytes, 4096);
                    });
                }
            });
        }
        let snap = snapshot();
        assert_eq!(snap.get(Counter::TilesExecuted), 800);
        assert_eq!(snap.get(Counter::SpmPeakBytes), 4096);
        reset_counters();
        assert!(snapshot().is_zero());
    }

    #[test]
    fn names_and_units_are_stable() {
        assert_eq!(Counter::DmaGetBytes.name(), "dma_get_bytes");
        assert_eq!(Counter::PackNanos.unit(), "ns");
        assert_eq!(Counter::SpmPeakBytes.merge_mode(), MergeMode::Max);
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
    }
}
