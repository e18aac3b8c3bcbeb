//! Latency histograms over 64 log2 buckets (DESIGN.md §14).
//!
//! Bucket `0` holds exactly the value `0`; bucket `b ≥ 1` holds the
//! values `[2^(b-1), 2^b - 1]`, with the last bucket absorbing
//! everything from `2^62` up to `u64::MAX`. Recording is one array
//! increment — no floats, no allocation — and every count is an exact
//! `u64`. Percentiles are *derived* at read time: walk the cumulative
//! counts to the requested rank and report that bucket's upper bound,
//! a conservative (never understated) latency. Merging is elementwise
//! saturating addition, which keeps merge associative even at the
//! `u64` ceiling.

/// Number of buckets; covers the whole `u64` range in powers of two.
pub const BUCKETS: usize = 64;

/// One latency histogram with exact integer bucket counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

/// The bucket a value lands in.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Smallest value of bucket `b`.
#[must_use]
pub fn bucket_lower(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// Largest value of bucket `b` (the percentile representative).
#[must_use]
pub fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// The empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one latency observation. Saturates at `u64::MAX`
    /// observations per bucket instead of wrapping.
    pub fn record_ns(&mut self, ns: u64) {
        let b = bucket_index(ns);
        self.counts[b] = self.counts[b].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(ns);
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observations (nanoseconds).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The exact count of bucket `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b >= BUCKETS`.
    #[must_use]
    pub fn bucket_count(&self, b: usize) -> u64 {
        self.counts[b]
    }

    /// Accumulates `other` into `self`, elementwise and saturating.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The latency at quantile `q` ∈ [0, 1]: the upper bound of the
    /// bucket containing the `ceil(q · count)`-th smallest observation
    /// (so the estimate never understates). `0` when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count) without float rounding surprises at the ends.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            cumulative = cumulative.saturating_add(n);
            if cumulative >= rank {
                return bucket_upper(b);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// The read-time summary block (`latency` in `stats`).
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            p50_ns: self.percentile(0.50),
            p90_ns: self.percentile(0.90),
            p99_ns: self.percentile(0.99),
        }
    }
}

/// Count plus derived percentiles of one histogram, as surfaced in the
/// `stats` op's `latency` block. The percentiles are wall-clock
/// dependent; golden tests mask exactly the three `p*_ns` scalars.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Exact observation count (deterministic under one worker).
    pub count: u64,
    /// Conservative 50th-percentile latency, nanoseconds.
    pub p50_ns: u64,
    /// Conservative 90th-percentile latency, nanoseconds.
    pub p90_ns: u64,
    /// Conservative 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
}

/// Renders one histogram family (plus derived percentile gauges) as
/// Prometheus text exposition.
///
/// `metric` is the family name (e.g. `fannet_op_latency_ns`); each
/// series pairs a label set (the text inside the braces, e.g.
/// `op="check"`) with its histogram. Cumulative `_bucket` lines stop at
/// the highest non-empty bucket before the mandatory `le="+Inf"`;
/// percentile gauges go under `<metric>_p50`/`_p90`/`_p99` so every
/// family stays single-typed.
#[must_use]
pub fn render_prometheus(metric: &str, series: &[(String, Histogram)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE {metric} histogram");
    for (labels, hist) in series {
        let top = (0..BUCKETS).rev().find(|&b| hist.counts[b] > 0);
        let mut cumulative = 0u64;
        if let Some(top) = top {
            for b in 0..=top {
                cumulative = cumulative.saturating_add(hist.counts[b]);
                let _ = writeln!(
                    out,
                    "{metric}_bucket{{{labels},le=\"{}\"}} {cumulative}",
                    bucket_upper(b)
                );
            }
        }
        let _ = writeln!(
            out,
            "{metric}_bucket{{{labels},le=\"+Inf\"}} {}",
            hist.count
        );
        let _ = writeln!(out, "{metric}_sum{{{labels}}} {}", hist.sum);
        let _ = writeln!(out, "{metric}_count{{{labels}}} {}", hist.count);
    }
    for (suffix, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        let _ = writeln!(out, "# TYPE {metric}_{suffix} gauge");
        for (labels, hist) in series {
            let _ = writeln!(out, "{metric}_{suffix}{{{labels}}} {}", hist.percentile(q));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn percentiles_walk_cumulative_counts() {
        let mut h = Histogram::new();
        // 90 fast observations (≤ 1023 ns), 10 slow ones (~1 ms bucket).
        for _ in 0..90 {
            h.record_ns(1000);
        }
        for _ in 0..10 {
            h.record_ns(1_000_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(0.50), 1023);
        assert_eq!(h.percentile(0.90), 1023);
        assert_eq!(h.percentile(0.99), bucket_upper(bucket_index(1_000_000)));
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 1023);
        assert!(s.p99_ns >= 1_000_000);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn prometheus_text_has_buckets_sum_count_and_quantiles() {
        let mut h = Histogram::new();
        h.record_ns(3);
        h.record_ns(900);
        let text = render_prometheus("fannet_op_latency_ns", &[("op=\"check\"".to_string(), h)]);
        assert!(
            text.contains("# TYPE fannet_op_latency_ns histogram"),
            "{text}"
        );
        assert!(
            text.contains("fannet_op_latency_ns_bucket{op=\"check\",le=\"3\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("fannet_op_latency_ns_bucket{op=\"check\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("fannet_op_latency_ns_sum{op=\"check\"} 903"),
            "{text}"
        );
        assert!(
            text.contains("fannet_op_latency_ns_count{op=\"check\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("fannet_op_latency_ns_p99{op=\"check\"} 1023"),
            "{text}"
        );
        // Every non-comment line is `name{labels} value` — parseable
        // Prometheus exposition.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name_labels, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(name_labels.contains("{op=\"check\""), "{line}");
            assert!(name_labels.ends_with('}'), "{line}");
            assert!(value.parse::<u64>().is_ok(), "{line}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn every_value_lands_inside_its_bucket(v in 0u64..=u64::MAX) {
            let b = bucket_index(v);
            prop_assert!(bucket_lower(b) <= v);
            prop_assert!(v <= bucket_upper(b));
            // The bounds themselves classify into the same bucket.
            prop_assert_eq!(bucket_index(bucket_lower(b)), b);
            prop_assert_eq!(bucket_index(bucket_upper(b)), b);
        }

        #[test]
        fn single_record_round_trips_through_every_percentile(
            v in 0u64..=u64::MAX,
            q in 0.0f64..=1.0,
        ) {
            let mut h = Histogram::new();
            h.record_ns(v);
            // One observation: every quantile reports its bucket's upper
            // bound, which never understates the recorded value.
            let p = h.percentile(q);
            prop_assert_eq!(p, bucket_upper(bucket_index(v)));
            prop_assert!(p >= v);
        }

        #[test]
        fn merge_is_associative_and_count_exact(
            xs in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
        ) {
            let (x, y, z) = xs;
            let single = |v: u64| {
                let mut h = Histogram::new();
                h.record_ns(v);
                h
            };
            let (a, b, c) = (single(x), single(y), single(z));
            let mut left = a;
            left.merge(&b);
            left.merge(&c);
            let mut right = b;
            right.merge(&c);
            let mut a2 = a;
            a2.merge(&right);
            prop_assert_eq!(left, a2);
            prop_assert_eq!(left.count(), 3);
        }

        #[test]
        fn saturated_counts_never_wrap(v in 0u64..=u64::MAX) {
            let mut h = Histogram::new();
            h.record_ns(v);
            // Force every counter to the ceiling, then keep going: the
            // counts must pin at u64::MAX instead of wrapping.
            let mut full = h;
            for _ in 0..3 {
                let snapshot = full;
                full.merge(&snapshot);
            }
            let mut pinned = full;
            pinned.count = u64::MAX;
            pinned.sum = u64::MAX;
            pinned.counts[bucket_index(v)] = u64::MAX;
            let before = pinned;
            pinned.merge(&before);
            prop_assert_eq!(pinned.count, u64::MAX);
            prop_assert_eq!(pinned.counts[bucket_index(v)], u64::MAX);
            pinned.record_ns(v);
            prop_assert_eq!(pinned.count, u64::MAX);
        }
    }
}
