//! Fixed-bucket log2 latency histograms.
//!
//! Counters answer "how much in total"; histograms answer "how was it
//! distributed" — the paper's scaling study (§6) and every straggler
//! hunt need the tail, not the mean. The design mirrors [`crate::counters`]:
//!
//! * a fixed vocabulary ([`Hist`]) with stable names and units;
//! * a plain `Copy` value type ([`Histogram`], grouped into [`HistSet`])
//!   that a step or a rank samples into without atomics — adding a
//!   sample is a `leading_zeros` and four adds, with **no allocation
//!   ever**;
//! * no second form for the hub: a [`crate::TelemetryHub`] keeps its
//!   totals in a `HistSet` too, merged into under the hub's lock when an
//!   account is published ([`crate::record_set`]).
//!
//! Buckets are powers of two: bucket `i` holds samples `v` with
//! `2^(i-1) <= v < 2^i` (bucket 0 holds zero). Exact `count`, `sum`
//! and `max` ride along so means and true maxima are not quantized;
//! quantiles are reported as the upper bound of the covering bucket,
//! clamped to the observed maximum — a conservative (never
//! under-reporting) estimate with at most 2x resolution error.

/// Number of log2 buckets. The top bucket saturates: it absorbs every
/// sample of `2^(BUCKETS-2)` ns (~1.6 days) and beyond.
pub const BUCKETS: usize = 48;

macro_rules! hists {
    ($( $variant:ident => ($name:literal, $unit:literal) ),+ $(,)?) => {
        /// The histogram vocabulary. Every histogram has a stable name
        /// and a unit; adding a variant automatically extends
        /// [`HistSet`] (so every hub) and both exporters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Hist {
            $( $variant ),+
        }

        impl Hist {
            pub const COUNT: usize = [$( Hist::$variant ),+].len();
            pub const ALL: [Hist; Hist::COUNT] = [$( Hist::$variant ),+];

            /// Stable snake_case identifier (used in exports).
            pub fn name(self) -> &'static str {
                match self { $( Hist::$variant => $name ),+ }
            }

            pub fn unit(self) -> &'static str {
                match self { $( Hist::$variant => $unit ),+ }
            }
        }
    };
}

hists! {
    HaloWaitNanos        => ("halo_wait", "ns"),
    PackHistNanos        => ("pack_hist", "ns"),
    UnpackHistNanos      => ("unpack_hist", "ns"),
    StepWallNanos        => ("step_wall", "ns"),
    DetectLatencyNanos   => ("detect_latency", "ns"),
}

/// Bucket index for a sample: 0 for 0, else `floor(log2 v) + 1`,
/// clamped into the top (saturating) bucket.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket (what a quantile in this bucket is
/// reported as, before clamping to the observed max).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// One plain, copyable latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample. Bucket and total counts saturate rather than
    /// wrap (a pinned top value is visibly wrong; a wrapped one lies).
    #[inline]
    pub fn add(&mut self, v: u64) {
        let b = &mut self.buckets[bucket_of(v)];
        *b = b.saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram in (bucketwise saturating sum; max of
    /// maxima). Merging per-rank shards with near-full top buckets must
    /// never wrap — in release wrapping silently corrupts quantiles, in
    /// debug it panics mid-merge.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The samples recorded since `prev` was captured, as a histogram:
    /// bucketwise saturating subtraction, assuming `prev` is an earlier
    /// snapshot of the same accumulator. `max` is carried over from
    /// `self` (the true per-interval max is not recoverable), so
    /// interval quantiles stay conservative.
    pub fn saturating_delta(&self, prev: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (o, (a, b)) in out
            .buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&prev.buckets))
        {
            *o = a.saturating_sub(*b);
        }
        out.count = self.count.saturating_sub(prev.count);
        out.sum = self.sum.saturating_sub(prev.sum);
        out.max = if out.count == 0 { 0 } else { self.max };
        out
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact (saturating) sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Quantile estimate (`q` in [0, 1]): upper bound of the bucket
    /// containing the q-th sample, clamped to the observed max. Exact
    /// for max (q = 1) and never under-reports.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Raw bucket counts (for exporters and tests).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }
}

/// A plain, copyable vector of histograms — one per [`Hist`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSet {
    hists: [Histogram; Hist::COUNT],
}

impl Default for HistSet {
    fn default() -> HistSet {
        HistSet::new()
    }
}

impl HistSet {
    pub const fn new() -> HistSet {
        HistSet {
            hists: [Histogram::new(); Hist::COUNT],
        }
    }

    #[inline]
    pub fn get(&self, h: Hist) -> &Histogram {
        &self.hists[h as usize]
    }

    /// Add one sample to histogram `h`.
    #[inline]
    pub fn add(&mut self, h: Hist, v: u64) {
        self.hists[h as usize].add(v);
    }

    /// Replace histogram `h` wholesale (used when building interval
    /// deltas).
    #[inline]
    pub fn set(&mut self, h: Hist, hist: Histogram) {
        self.hists[h as usize] = hist;
    }

    /// Merge another set in, histogram by histogram.
    pub fn merge(&mut self, other: &HistSet) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.hists.iter().all(|h| h.is_empty())
    }

    pub fn iter(&self) -> impl Iterator<Item = (Hist, &Histogram)> + '_ {
        Hist::ALL.iter().map(move |&h| (h, self.get(h)))
    }
}

/// The current hub's histogram totals.
pub fn snapshot_hists() -> HistSet {
    crate::hub::with_current(|hub| hub.snapshot_hists())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{set_enabled, EnableGuard};
    use crate::testutil::GLOBAL_TEST_LOCK;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(10), 1023);
    }

    #[test]
    fn quantiles_are_conservative_and_clamped() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.add(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 220.0);
        // p50 -> 3rd sample (30), reported as its bucket's upper bound 31.
        assert_eq!(h.p50(), 31);
        // p99 -> 5th sample: bucket upper 1023, clamped to the true max.
        assert_eq!(h.p99(), 1000);
        assert_eq!(h.quantile(1.0), 1000);
        // Empty histogram reports zeros.
        assert_eq!(Histogram::new().p99(), 0);
    }

    /// Property: merging per-shard histograms of disjoint sample sets
    /// must equal the histogram of the concatenated samples, for any
    /// partition. Driven by a deterministic LCG over several magnitude
    /// regimes so every bucket band gets traffic.
    #[test]
    fn merging_random_shards_equals_histogram_of_concatenation() {
        let mut lcg: u64 = 0x9e3779b97f4a7c15;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg
        };
        for round in 0..8 {
            let n_shards = 1 + (round % 5);
            let mut shards: Vec<Vec<u64>> = vec![Vec::new(); n_shards];
            for i in 0..400 {
                // Mix magnitudes: tiny, mid-range, and full-width values.
                let raw = next();
                let v = match i % 3 {
                    0 => raw % 100,
                    1 => raw % 1_000_000_000,
                    _ => raw,
                };
                shards[(next() as usize) % n_shards].push(v);
            }
            let mut merged = Histogram::new();
            for shard in &shards {
                let mut h = Histogram::new();
                for &v in shard {
                    h.add(v);
                }
                merged.merge(&h);
            }
            let mut whole = Histogram::new();
            for shard in &shards {
                for &v in shard {
                    whole.add(v);
                }
            }
            assert_eq!(merged, whole, "round {round}, {n_shards} shards");
        }
    }

    /// Same audit as the counter vocabulary: unique snake_case names
    /// and non-empty units, which exporters depend on.
    #[test]
    fn hist_names_are_unique_snake_case_with_units() {
        let mut seen = std::collections::BTreeSet::new();
        for h in Hist::ALL {
            let name = h.name();
            assert!(!name.is_empty(), "{h:?} has an empty name");
            assert!(
                name.chars()
                    .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '_'),
                "{h:?} name {name:?} is not snake_case"
            );
            assert!(seen.insert(name), "duplicate hist name {name:?}");
            assert!(!h.unit().is_empty(), "{h:?} ({name}) has an empty unit");
        }
    }

    #[test]
    fn merge_sums_buckets_and_maxes_max() {
        let mut a = Histogram::new();
        a.add(5);
        a.add(7);
        let mut b = Histogram::new();
        b.add(5000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 5000);
        assert_eq!(a.buckets()[bucket_of(5)], 2);
        assert_eq!(a.buckets()[bucket_of(5000)], 1);
    }

    #[test]
    fn merge_saturates_near_full_buckets() {
        // A shard whose top bucket and count sit at the brink: one more
        // sample used to wrap (debug: panic; release: silent corruption).
        let mut near_full = Histogram {
            buckets: [u64::MAX - 1; BUCKETS],
            count: u64::MAX - 1,
            sum: u64::MAX - 1,
            max: 10,
        };
        let mut other = Histogram::new();
        other.add(3);
        other.add(3);
        near_full.merge(&other);
        assert_eq!(near_full.buckets()[bucket_of(3)], u64::MAX);
        assert_eq!(near_full.count(), u64::MAX);
        assert_eq!(near_full.max(), 10);
        // add() on a saturated histogram pins rather than wraps too.
        near_full.add(3);
        assert_eq!(near_full.buckets()[bucket_of(3)], u64::MAX);
        assert_eq!(near_full.count(), u64::MAX);
    }

    #[test]
    fn saturating_delta_recovers_interval_samples() {
        let mut h = Histogram::new();
        h.add(10);
        h.add(1000);
        let prev = h;
        h.add(10);
        h.add(10);
        h.add(2000);
        let d = h.saturating_delta(&prev);
        assert_eq!(d.count(), 3);
        assert_eq!(d.buckets()[bucket_of(10)], 2);
        assert_eq!(d.buckets()[bucket_of(2000)], 1);
        assert_eq!(d.mean(), (10.0 + 10.0 + 2000.0) / 3.0);
        // Empty interval: all-zero, including max.
        let empty = h.saturating_delta(&h);
        assert!(empty.is_empty());
        assert_eq!(empty.max(), 0);
    }

    /// Publish `samples` as one account's histograms; returns them.
    fn publish(samples: &[(Hist, u64)]) -> HistSet {
        let mut set = HistSet::new();
        for &(h, v) in samples {
            set.add(h, v);
        }
        crate::record_set(&crate::CounterSet::new(), &set);
        set
    }

    #[test]
    fn disabled_publish_leaves_the_hub_empty() {
        let _g = GLOBAL_TEST_LOCK.lock().unwrap();
        crate::reset();
        set_enabled(false);
        publish(&[(Hist::HaloWaitNanos, 42)]);
        assert!(snapshot_hists().is_empty());
    }

    #[test]
    fn published_sets_fold_into_the_hub_bucket_for_bucket() {
        let _g = GLOBAL_TEST_LOCK.lock().unwrap();
        crate::reset();
        let mut sent = HistSet::new();
        {
            let _e = EnableGuard::new();
            let (step, pack) = (Hist::StepWallNanos, Hist::PackHistNanos);
            sent.merge(&publish(&[(step, 100), (pack, 7)]));
            sent.merge(&publish(&[(step, 200), (step, 0)]));
        }
        let s = snapshot_hists();
        assert_eq!(s, sent);
        assert_eq!(s.get(Hist::StepWallNanos).count(), 3);
        assert_eq!(s.get(Hist::StepWallNanos).max(), 200);
        assert!(s.get(Hist::HaloWaitNanos).is_empty());
        crate::reset();
        assert!(snapshot_hists().is_empty());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Hist::HaloWaitNanos.name(), "halo_wait");
        assert_eq!(Hist::StepWallNanos.unit(), "ns");
        assert_eq!(Hist::ALL.len(), Hist::COUNT);
    }
}
