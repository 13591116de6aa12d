//! Order statistics over repeated timings.

/// Fewest repetitions a unit needs before its fast decile means anything:
/// with ten samples the 10th percentile still sits between the two
/// fastest runs.
pub const MIN_REPS: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between order statistics. `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The fast-decile estimator: the 10th percentile of a unit's repeated
/// times. Host speed on a shared VM drifts in phases; the fastest runs of
/// fixed work are the ones least disturbed by it, so this estimate moves
/// far less between runs than a median does.
///
/// # Errors
///
/// Refuses fewer than [`MIN_REPS`] samples.
pub fn fast_decile(samples: &[f64]) -> Result<f64, String> {
    if samples.len() < MIN_REPS {
        return Err(format!(
            "fast decile needs at least {MIN_REPS} repetitions, got {}",
            samples.len()
        ));
    }
    Ok(quantile(samples, 0.1).expect("non-empty"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_decile_of_known_samples() {
        // 1..=10 shuffled: position 0.9 between 1 and 2.
        let xs = [7.0, 3.0, 10.0, 1.0, 5.0, 2.0, 9.0, 4.0, 8.0, 6.0];
        assert!((fast_decile(&xs).unwrap() - 1.9).abs() < 1e-12);
        // 0..=20: position exactly 2.
        let ys: Vec<f64> = (0..=20).rev().map(f64::from).collect();
        assert_eq!(fast_decile(&ys).unwrap(), 2.0);
        // One slow outlier does not move it.
        let mut zs = vec![1.0; 12];
        zs[3] = 1000.0;
        assert_eq!(fast_decile(&zs).unwrap(), 1.0);
    }

    #[test]
    fn fast_decile_refuses_fewer_than_ten() {
        assert!(fast_decile(&[1.0; 9]).is_err());
        assert!(fast_decile(&[]).is_err());
        assert!(fast_decile(&[1.0; 10]).is_ok());
    }

    #[test]
    fn median_and_quantile_edges() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(quantile(&[5.0], 0.1), Some(5.0));
        assert_eq!(median(&[]), None);
    }
}
