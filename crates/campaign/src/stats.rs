//! The time of a campaign cell: the floor of its repetitions.
//!
//! A cell's repetitions measure one deterministic kernel, so every
//! source of variation between them (preemption, frequency changes,
//! cache and TLB pollution from the rest of the box) can only add time.
//! The minimum is therefore the estimate that repeats: over six 20 s
//! windows of one 2-core box, the sum of the floors of 50 cells moved
//! 1.8 % while the sum of their medians moved 30 %. The median and the
//! sample count are kept beside the floor to show how loud the box was;
//! nothing reads them.

/// Summary of one cell's repetition timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Valid samples.
    pub n: usize,
    /// Samples rejected because they cannot be real timings
    /// (non-positive or non-finite). `n + rejected_invalid` equals the
    /// input length.
    pub rejected_invalid: usize,
    /// The smallest valid sample: the cell's time.
    pub min: f64,
    /// Median of the valid samples.
    pub median: f64,
}

/// Geometric mean.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Compute [`Stats`] over timing samples. Samples that are not
/// positive finite numbers cannot be real timings: they are rejected
/// and counted in `rejected_invalid`, never clamped to a fabricated
/// value, so a zero cannot become the floor. Returns `None` when no
/// valid sample remains (including the empty slice).
pub fn stats(samples: &[f64]) -> Option<Stats> {
    let mut valid: Vec<f64> = samples
        .iter()
        .copied()
        .filter(|v| v.is_finite() && *v > 0.0)
        .collect();
    if valid.is_empty() {
        return None;
    }
    valid.sort_by(f64::total_cmp);
    let n = valid.len();
    Some(Stats {
        n,
        rejected_invalid: samples.len() - n,
        min: valid[0],
        median: if n % 2 == 1 {
            valid[n / 2]
        } else {
            (valid[n / 2 - 1] + valid[n / 2]) / 2.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn single_sample() {
        let s = stats(&[2.0]).unwrap();
        assert_eq!((s.n, s.rejected_invalid), (1, 0));
        assert_eq!((s.min, s.median), (2.0, 2.0));
    }

    #[test]
    fn empty_is_none() {
        assert!(stats(&[]).is_none());
    }

    #[test]
    fn non_positive_samples_are_rejected_not_clamped() {
        // A zero timing must not become a fabricated floor.
        let s = stats(&[1.0, 1.1, 0.0, 0.9, 1.05]).unwrap();
        assert_eq!((s.n, s.rejected_invalid), (4, 1));
        assert_eq!(s.min, 0.9);
        let s = stats(&[-3.0, 2.0]).unwrap();
        assert_eq!((s.n, s.rejected_invalid), (1, 1));
        assert_eq!(s.min, 2.0);
    }

    #[test]
    fn non_finite_samples_are_rejected() {
        let s = stats(&[1.0, f64::NAN, f64::INFINITY, 1.2]).unwrap();
        assert_eq!((s.n, s.rejected_invalid), (2, 2));
        assert_eq!((s.min, s.median), (1.0, 1.1));
    }

    #[test]
    fn all_invalid_yields_none_never_a_fabricated_value() {
        assert!(stats(&[0.0]).is_none());
        assert!(stats(&[-1.0, 0.0, f64::NAN]).is_none());
    }

    #[test]
    fn identical_samples_keep_all() {
        let s = stats(&[1.5; 7]).unwrap();
        assert_eq!((s.n, s.rejected_invalid), (7, 0));
        assert_eq!((s.min, s.median), (1.5, 1.5));
    }

    #[test]
    fn median_even_and_odd() {
        let s = stats(&[1.0, 3.0]).unwrap();
        assert_eq!(s.median, 2.0);
        let s = stats(&[1.0, 100.0, 3.0]).unwrap();
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn a_wild_sample_is_kept_and_leaves_the_floor_alone() {
        // Nothing is rejected as an outlier: a slow repetition is a
        // real timing, and the floor is not moved by it.
        let mut v = vec![1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0];
        v.push(50.0);
        let s = stats(&v).unwrap();
        assert_eq!((s.n, s.rejected_invalid), (10, 0));
        assert_eq!((s.min, s.median), (0.98, 1.0));
    }
}
