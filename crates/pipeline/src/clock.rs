//! Timestamp arithmetic for the cycle engine.
//!
//! The back end keeps its clock as `f64` timestamps that are never
//! negative and never NaN (they start at 0.0 and only grow by finite
//! latencies and `1 / width` steps). On that domain the two helpers here
//! return exactly what `f64::ceil` and `f64::max` return, without the
//! library call behind `ceil` on baseline x86-64 or the NaN handling
//! `max` must carry.

/// `x.ceil() as u64` for a finite, non-negative `x` below 2^63.
///
/// Truncation is the floor on this domain; the result is one more when
/// `x` had a fraction. The comparison is exact: below 2^53 the truncated
/// integer converts back to `f64` without rounding, and from 2^52 up
/// every `f64` is already an integer, so `t as f64 == x` there.
#[inline]
pub(crate) fn ceil_u64(x: f64) -> u64 {
    let t = x as i64;
    (t + i64::from((t as f64) < x)) as u64
}

/// `a.max(b)` for timestamps that are never NaN. Equal inputs return
/// either operand, which is the same value (no timestamp is `-0.0`).
#[inline]
pub(crate) fn later(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd_telemetry::SplitMix64;

    #[test]
    fn ceil_u64_matches_ceil_at_the_edges() {
        let two52 = (1u64 << 52) as f64;
        for x in [
            0.0,
            0.25,
            0.5,
            1.0,
            1.5,
            2.0,
            two52 - 0.5,
            two52 + 0.5,
            two52,
            (1u64 << 53) as f64,
            (1u64 << 62) as f64,
        ] {
            assert_eq!(ceil_u64(x), x.ceil() as u64, "x = {x}");
        }
    }

    #[test]
    fn ceil_u64_matches_ceil_on_random_timestamps() {
        let mut rng = SplitMix64::new(0xCE11);
        for _ in 0..100_000 {
            let bits = rng.next_u64();
            // Quarter-cycle grids (what widths of 4 produce), and full
            // 53-bit fractions scaled to every exponent below 2^62.
            let x = match bits % 2 {
                0 => (bits >> 40) as f64 * 0.25,
                _ => rng.next_f64() * (1u64 << rng.range_u64(0, 62)) as f64,
            };
            assert_eq!(ceil_u64(x), x.ceil() as u64, "x = {x}");
        }
    }

    #[test]
    fn later_matches_max() {
        let mut rng = SplitMix64::new(0x1A7E);
        let mut pairs = vec![(0.0, 0.0), (1.0, 1.0), (0.25, 0.5), (0.5, 0.25), (7.0, 7.0)];
        for _ in 0..10_000 {
            let a = (rng.next_u64() >> 34) as f64 / 8.0;
            let b = if rng.range_u64(0, 4) == 0 {
                a
            } else {
                (rng.next_u64() >> 34) as f64 / 8.0
            };
            pairs.push((a, b));
        }
        for (a, b) in pairs {
            assert_eq!(later(a, b).to_bits(), a.max(b).to_bits(), "{a} vs {b}");
        }
    }
}
