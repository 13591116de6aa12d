//! A log2-bucketed latency histogram.
//!
//! [`Histogram`] trades per-sample storage for 65 power-of-two buckets:
//! recording is two increments and a saturating add, merging is
//! element-wise addition (commutative, so per-thread histograms can be
//! combined in any order), and percentiles come back as the upper bound
//! of the bucket holding the requested rank — at most one power of two
//! above the true sample. The server records queue-wait and run-time
//! samples into these, `loadgen` records end-to-end latencies, and both
//! report through the same [`ToJson`] shape.

use crate::json::{Json, ToJson};

/// Number of buckets: one for zero plus one per bit of a `u64`.
const BUCKETS: usize = 65;

/// A fixed-size log2 histogram over `u64` samples (e.g. microseconds).
///
/// Bucket `0` holds only the value `0`; bucket `i > 0` holds values in
/// `[2^(i-1), 2^i)`. The struct is plain data: `merge` never fails and
/// two histograms built from the same samples in any interleaving
/// compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Bucket index for a sample: `0` for `0`, else `floor(log2(v)) + 1`.
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (the value a percentile reports).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Folds `other` into `self`. Merging is commutative and associative
    /// up to the saturating `sum`.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `0` when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or `0` when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counters (`buckets()[i]` covers `[2^(i-1), 2^i)`,
    /// with bucket `0` holding only zeros).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Upper-bound estimate of the `p`-th percentile (`0.0 ..= 100.0`):
    /// the inclusive upper edge of the bucket containing the sample of
    /// that rank, clamped to the observed extremes. `None` when empty —
    /// distinguishable from a real 0µs sample, which reports `Some(0)`.
    /// Rank 1 (any `p` that resolves to the first order statistic,
    /// including `p = 0`) is exact: it is the tracked minimum, not a
    /// bucket edge. Monotone in `p`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == 1 {
            // The rank-1 order statistic *is* the minimum, which is
            // tracked exactly — no bucket rounding.
            return Some(self.min);
        }
        let mut cum = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return Some(bucket_upper(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| {
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                Json::obj([
                    ("lo", Json::from(lo)),
                    ("hi", Json::from(bucket_upper(i))),
                    ("n", Json::from(*n)),
                ])
            })
            .collect();
        Json::obj([
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("min", Json::from(self.min())),
            ("max", Json::from(self.max)),
            ("mean", Json::from(self.mean())),
            // Empty histograms report 0 for every percentile; `count`
            // disambiguates (count == 0 means "no samples", not "0µs").
            ("p50", Json::from(self.percentile(50.0).unwrap_or(0))),
            ("p90", Json::from(self.percentile(90.0).unwrap_or(0))),
            ("p99", Json::from(self.percentile(99.0).unwrap_or(0))),
            ("p999", Json::from(self.percentile(99.9).unwrap_or(0))),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn records_and_reports() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.percentile(0.0), Some(0));
        assert!(h.percentile(100.0) >= Some(1000));
        assert_eq!(h.percentile(100.0), Some(1000)); // clamped to observed max
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(50.0), None, "no samples, no percentile");
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn zero_sample_is_distinguishable_from_empty() {
        // The ambiguity this API exists to kill: a real 0µs sample
        // reports Some(0); an empty histogram reports None.
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(100.0), Some(0));
    }

    #[test]
    fn one_sample_percentiles_are_exact() {
        // Rank 1 resolves to the tracked minimum, so a one-sample
        // histogram reports the sample itself at p=0, not the upper
        // edge of its log2 bucket.
        let mut h = Histogram::new();
        h.record(100);
        assert_eq!(h.percentile(0.0), Some(100));
        assert_eq!(h.percentile(50.0), Some(100));
        assert_eq!(h.percentile(100.0), Some(100));
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [5u64, 17, 0, 9000] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 1, 2, 1 << 40] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn json_shape() {
        let mut h = Histogram::new();
        h.record(7);
        let j = h.to_json();
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("p50").and_then(Json::as_u64), Some(7));
        let buckets = j.get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].get("lo").and_then(Json::as_u64), Some(4));
        assert_eq!(buckets[0].get("hi").and_then(Json::as_u64), Some(7));
    }
}
