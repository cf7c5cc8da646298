//! Order statistics of a run's samples, and the rule that compares two
//! recordings of one metric against the bound `BENCHMARK.json` fixes.

/// Quantile by linear interpolation between the two nearest ranks
/// (`q` in 0..=1). `sorted` must be ascending and non-empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// What a timing is reported as: median, quartiles and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        n: s.len(),
        q1: quantile_sorted(&s, 0.25),
        median: quantile_sorted(&s, 0.5),
        q3: quantile_sorted(&s, 0.75),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// The lower decile: what an operation takes when the host leaves it
/// alone. Interference on a shared host only ever adds time, so the low
/// end of a run's samples repeats where its middle follows the
/// neighbours; the decile, not the minimum, so that one freak sample
/// does not set the result.
pub fn quiet(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.1)
}

/// Samples strictly beyond the `q` quantile's rank. A percentile is
/// worth reporting only where at least ten lie beyond it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - 1 - (q * (n - 1) as f64).ceil() as usize
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Not worse by more than the bound, and both spreads are inside it.
    Within,
    /// Not worse, but a spread is wider than the bound: the recordings
    /// cannot tell `unchanged` from `regressed`.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// `b` is better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compare recording B against recording A of one metric on one
/// workload. `spread_*` is the interquartile share of each side's own
/// runs (0 when a side has a single run).
pub fn judge(a: f64, b: f64, spread_a: f64, spread_b: f64, better: Better, bound: f64) -> Verdict {
    if worsening(a, b, better) > bound {
        Verdict::Worse
    } else if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        let eleven: Vec<f64> = (0..11).rev().map(f64::from).collect();
        assert_eq!(quiet(&eleven), 1.0);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 15.0, 17.5));
        assert!((s.spread() - 5.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_picks_the_tail() {
        let v: Vec<f64> = (1..=1001).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.99), 991.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 1001.0);
        assert_eq!(samples_beyond(1001, 0.99), 10);
        assert_eq!(samples_beyond(15, 0.75), 3);
    }

    #[test]
    fn bound_comparison_respects_direction() {
        // 8 % slower latency against a 10 % bound is within; 12 % is worse.
        assert_eq!(
            judge(100.0, 108.0, 0.01, 0.01, Better::Lower, 0.10),
            Verdict::Within
        );
        assert_eq!(
            judge(100.0, 112.0, 0.01, 0.01, Better::Lower, 0.10),
            Verdict::Worse
        );
        // For a rate, lower is the bad direction.
        assert_eq!(
            judge(100.0, 88.0, 0.01, 0.01, Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(100.0, 130.0, 0.01, 0.01, Better::Higher, 0.10),
            Verdict::Within
        );
        // A big improvement is never `worse`.
        assert_eq!(
            judge(100.0, 50.0, 0.0, 0.0, Better::Lower, 0.10),
            Verdict::Within
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        assert_eq!(
            judge(100.0, 101.0, 0.02, 0.15, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // ... but a regression beyond the bound is still a regression.
        assert_eq!(
            judge(100.0, 140.0, 0.02, 0.15, Better::Lower, 0.10),
            Verdict::Worse
        );
    }
}
