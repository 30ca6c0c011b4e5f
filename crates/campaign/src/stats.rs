//! Sample statistics for campaign cells: robust location/spread
//! estimates, confidence intervals, and outlier rejection.
//!
//! Confidence intervals use Student-t critical values, not the normal
//! approximation: campaigns run 2–10 repetitions per cell, and at those
//! sample sizes the 1.96 normal quantile understates the interval badly
//! (the two-sided 95% critical value at n = 3 is 4.303). An adaptive
//! repetition controller that stops "when the CI is tight" would stop
//! far too early on normal-approximation intervals.

/// Summary statistics over one cell's repetition timings.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stats {
    /// Samples kept after invalidity and outlier rejection.
    pub n: usize,
    /// Samples rejected because they cannot be real timings
    /// (non-positive or non-finite). Kept separate from `outliers` so a
    /// cell full of zero timings (a broken clock) is distinguishable
    /// from a noisy one.
    pub rejected_invalid: usize,
    /// Valid samples rejected by the MAD outlier pass.
    /// `n + rejected_invalid + outliers` equals the input length.
    pub outliers: usize,
    /// Minimum of kept samples.
    pub min: f64,
    /// Maximum of kept samples.
    pub max: f64,
    /// Arithmetic mean of kept samples.
    pub mean: f64,
    /// Median of kept samples.
    pub median: f64,
    /// Sample standard deviation (0 when n < 2).
    pub stddev: f64,
    /// Geometric mean of kept samples.
    pub geomean: f64,
    /// Half-width of the 95% confidence interval on the mean, using the
    /// Student-t critical value for `n - 1` degrees of freedom (0 when
    /// n < 2).
    pub ci95: f64,
}

impl Stats {
    /// Samples rejected for any reason.
    pub fn rejected(&self) -> usize {
        self.rejected_invalid + self.outliers
    }

    /// Relative CI half-width `ci95 / median` — the convergence metric
    /// of the adaptive repetition controller. `None` when `n < 2`: a
    /// single sample has no measurable spread, and a fabricated 0 would
    /// make the controller stop before it has seen any variance.
    pub fn rel_ci95(&self) -> Option<f64> {
        if self.n >= 2 {
            Some(self.ci95 / self.median)
        } else {
            None
        }
    }
}

/// Two-sided 95% Student-t critical values for 1–30 degrees of freedom.
/// Beyond 30 the t distribution is close enough to normal that 1.96
/// serves.
const T_CRITICAL_95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// The two-sided 95% Student-t critical value for `df` degrees of
/// freedom (table for df 1–30, the normal 1.96 beyond). `df == 0` has
/// no defined interval; callers never ask (ci95 is 0 when n < 2), but
/// the table's df = 1 value is returned as the conservative answer.
pub fn t_critical_95(df: usize) -> f64 {
    match df {
        0 => T_CRITICAL_95[0],
        1..=30 => T_CRITICAL_95[df - 1],
        _ => 1.96,
    }
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

fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Indices of samples that survive modified-z-score outlier rejection
/// (|x - median| > 3.5 · 1.4826 · MAD). With fewer than four samples
/// everything is kept: there is not enough data to call anything an
/// outlier.
fn kept_indices(samples: &[f64]) -> Vec<usize> {
    if samples.len() < 4 {
        return (0..samples.len()).collect();
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let med = median_of_sorted(&sorted);
    let mut devs: Vec<f64> = samples.iter().map(|&x| (x - med).abs()).collect();
    devs.sort_by(f64::total_cmp);
    let mad = median_of_sorted(&devs);
    if mad == 0.0 {
        return (0..samples.len()).collect();
    }
    let cutoff = 3.5 * 1.4826 * mad;
    (0..samples.len())
        .filter(|&i| (samples[i] - med).abs() <= cutoff)
        .collect()
}

/// Compute [`Stats`] over timing samples. Samples that are not
/// positive finite numbers cannot be real timings: they are rejected
/// (and counted in `rejected_invalid`) *before* MAD outlier rejection,
/// never clamped to a fabricated value — a zero or negative entry must
/// not drag `geomean`/`min`/`mean` toward an invented floor. Returns
/// `None` when no valid sample remains (including the empty slice).
pub fn stats(samples: &[f64]) -> Option<Stats> {
    let valid: Vec<f64> = samples
        .iter()
        .copied()
        .filter(|v| v.is_finite() && *v > 0.0)
        .collect();
    if valid.is_empty() {
        return None;
    }
    let kept_idx = kept_indices(&valid);
    let kept: Vec<f64> = kept_idx.iter().map(|&i| valid[i]).collect();
    let n = kept.len();
    let mut sorted = kept.clone();
    sorted.sort_by(f64::total_cmp);
    let mean = kept.iter().sum::<f64>() / n as f64;
    let stddev = if n >= 2 {
        (kept.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64).sqrt()
    } else {
        0.0
    };
    Some(Stats {
        n,
        rejected_invalid: samples.len() - valid.len(),
        outliers: valid.len() - n,
        min: sorted[0],
        max: *sorted.last().unwrap(),
        mean,
        median: median_of_sorted(&sorted),
        stddev,
        geomean: geomean(&kept),
        ci95: if n >= 2 {
            t_critical_95(n - 1) * stddev / (n as f64).sqrt()
        } else {
            0.0
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
        assert_eq!(s.n, 1);
        assert_eq!(s.rejected(), 0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.rel_ci95(), None, "one sample has no measurable spread");
    }

    #[test]
    fn empty_is_none() {
        assert!(stats(&[]).is_none());
    }

    #[test]
    fn t_critical_table() {
        assert_eq!(t_critical_95(1), 12.706);
        assert_eq!(t_critical_95(2), 4.303);
        assert_eq!(t_critical_95(30), 2.042);
        assert_eq!(t_critical_95(31), 1.96);
        assert_eq!(t_critical_95(1000), 1.96);
        assert_eq!(t_critical_95(0), 12.706, "df 0 answers conservatively");
        // The table is monotonically decreasing toward the normal value.
        for df in 1..40 {
            assert!(t_critical_95(df + 1) <= t_critical_95(df), "df {df}");
            assert!(t_critical_95(df) >= 1.96);
        }
    }

    #[test]
    fn ci95_at_n3_uses_student_t_not_normal() {
        // The two-sided 95% critical value at n = 3 (df = 2) is 4.303;
        // the normal approximation's 1.96 would understate the interval
        // by more than half.
        let samples = [1.0, 1.2, 0.8];
        let s = stats(&samples).unwrap();
        assert_eq!(s.n, 3);
        let expected = 4.303 * s.stddev / (3f64).sqrt();
        assert!(
            (s.ci95 - expected).abs() < 1e-12,
            "ci95 {} != t-based {expected}",
            s.ci95
        );
        let normal = 1.96 * s.stddev / (3f64).sqrt();
        assert!(s.ci95 > 2.0 * normal, "t interval must dwarf 1.96-based");
    }

    #[test]
    fn rel_ci95_is_ci_over_median() {
        let s = stats(&[1.0, 1.2, 0.8]).unwrap();
        let rel = s.rel_ci95().unwrap();
        assert!((rel - s.ci95 / s.median).abs() < 1e-15);
        assert!(rel > 0.0);
    }

    #[test]
    fn non_positive_samples_are_rejected_not_clamped() {
        // A zero timing must not survive as a fabricated 1e-12 floor
        // that drags geomean/min toward zero.
        let s = stats(&[1.0, 1.1, 0.0, 0.9, 1.05]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.rejected_invalid, 1);
        assert_eq!(s.outliers, 0);
        assert!(s.min >= 0.9);
        assert!(s.geomean > 0.9, "geomean {} was dragged down", s.geomean);
        let s = stats(&[-3.0, 2.0]).unwrap();
        assert_eq!((s.n, s.rejected_invalid, s.outliers), (1, 1, 0));
        assert_eq!(s.min, 2.0);
    }

    #[test]
    fn non_finite_samples_are_rejected() {
        let s = stats(&[1.0, f64::NAN, f64::INFINITY, 1.2]).unwrap();
        assert_eq!((s.n, s.rejected_invalid), (2, 2));
        assert!(s.mean.is_finite());
    }

    #[test]
    fn all_invalid_yields_none_never_a_fabricated_value() {
        assert!(stats(&[0.0]).is_none());
        assert!(stats(&[-1.0, 0.0, f64::NAN]).is_none());
    }

    #[test]
    fn invalid_rejection_happens_before_outlier_rejection() {
        // Four zeros + four tight samples: with clamping, the zeros
        // would form their own cluster and distort the MAD; with
        // rejection, the four real samples all survive.
        let s = stats(&[0.0, 0.0, 0.0, 0.0, 1.0, 1.01, 0.99, 1.02]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.rejected_invalid, 4);
        assert_eq!(s.outliers, 0);
        assert!((s.median - 1.0).abs() < 0.05);
    }

    #[test]
    fn median_even_and_odd() {
        let s = stats(&[1.0, 3.0]).unwrap();
        assert_eq!(s.median, 2.0);
        let s = stats(&[1.0, 100.0, 3.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.rejected(), 0, "n<4 keeps everything");
    }

    #[test]
    fn outlier_rejected_and_counted_separately_from_invalid() {
        // Nine tight samples and one wild one.
        let mut v = vec![1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0];
        v.push(50.0);
        let s = stats(&v).unwrap();
        assert_eq!(s.outliers, 1);
        assert_eq!(s.rejected_invalid, 0);
        assert_eq!(s.n, 9);
        assert!(s.max < 2.0);
        // The same data plus a zero timing: the zero lands in
        // rejected_invalid, the wild sample stays an outlier — a broken
        // clock and a noisy cell are different diagnoses.
        v.push(0.0);
        let s = stats(&v).unwrap();
        assert_eq!((s.n, s.rejected_invalid, s.outliers), (9, 1, 1));
    }

    #[test]
    fn identical_samples_keep_all() {
        let s = stats(&[2.0; 8]).unwrap();
        assert_eq!(s.n, 8);
        assert_eq!(s.rejected(), 0);
        assert_eq!(s.stddev, 0.0);
        assert!((s.geomean - 2.0).abs() < 1e-12);
        assert_eq!(s.rel_ci95(), Some(0.0));
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let few = stats(&[1.0, 1.2, 0.8]).unwrap();
        let many: Vec<f64> = (0..30)
            .map(|i| {
                if i % 3 == 0 {
                    1.0
                } else if i % 3 == 1 {
                    1.2
                } else {
                    0.8
                }
            })
            .collect();
        let many = stats(&many).unwrap();
        assert!(many.ci95 < few.ci95);
    }
}
