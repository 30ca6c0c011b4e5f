//! Property tests for the cell statistics: on *any* finite sample
//! vector — including zeros, negatives and wild magnitudes — `stats`
//! must never fabricate a value, must account for every input sample as
//! either valid or rejected as an impossible timing, and its floor must
//! be one of the valid samples, no greater than any of them.

use proptest::prelude::*;
use simbench_campaign::stats;

/// Decode a `(mantissa, exponent)` pair into a finite f64 spanning
/// ~25 decades either side of 1.0, zero and negatives included.
fn decode(m: i64, e: i8) -> f64 {
    m as f64 * 10f64.powi(e as i32)
}

proptest! {
    #[test]
    fn stats_accounts_for_every_sample_and_stays_finite(
        raw in prop::collection::vec((any::<i64>(), -12i8..13), 0..40)
    ) {
        let samples: Vec<f64> = raw.iter().map(|&(m, e)| decode(m, e)).collect();
        let valid = samples.iter().filter(|v| v.is_finite() && **v > 0.0).count();
        match stats(&samples) {
            None => prop_assert_eq!(valid, 0, "stats may only refuse all-invalid input"),
            Some(s) => {
                prop_assert_eq!(s.n, valid);
                prop_assert_eq!(s.n + s.rejected_invalid, samples.len());
                prop_assert!(s.min.is_finite() && s.median.is_finite());
                prop_assert!(s.min > 0.0 && s.min <= s.median);
            }
        }
    }

    /// Mantissas near zero make zeros and negatives common.
    #[test]
    fn min_is_a_kept_sample_no_greater_than_any_valid_one(
        raw in prop::collection::vec((-3i64..1_000, -12i8..13), 1..40)
    ) {
        let samples: Vec<f64> = raw.iter().map(|&(m, e)| decode(m, e)).collect();
        let valid: Vec<f64> = samples
            .iter()
            .copied()
            .filter(|v| v.is_finite() && *v > 0.0)
            .collect();
        if let Some(s) = stats(&samples) {
            prop_assert!(valid.contains(&s.min), "floor {} is not a valid sample", s.min);
            prop_assert!(valid.iter().all(|&v| s.min <= v));
        }
    }

    #[test]
    fn stats_ignore_the_order_of_the_repetitions(
        raw in prop::collection::vec((-3i64..1_000, -12i8..13), 0..40),
        rotate in 0usize..40
    ) {
        let samples: Vec<f64> = raw.iter().map(|&(m, e)| decode(m, e)).collect();
        let mut reordered = samples.clone();
        reordered.reverse();
        if !reordered.is_empty() {
            let by = rotate % reordered.len();
            reordered.rotate_left(by);
        }
        prop_assert_eq!(stats(&reordered), stats(&samples));
    }

    /// An impossible timing is counted and changes nothing else.
    #[test]
    fn impossible_timings_only_add_to_the_rejected_count(
        raw in prop::collection::vec((1i64..1_000_000, -6i8..7), 1..20),
        junk in prop::collection::vec((-1_000i64..1, 0usize..4), 0..10)
    ) {
        let samples: Vec<f64> = raw.iter().map(|&(m, e)| decode(m, e)).collect();
        let mut padded = samples.clone();
        for &(m, kind) in &junk {
            let bad = [m as f64, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind];
            let at = (m.unsigned_abs() as usize) % (padded.len() + 1);
            padded.insert(at, bad);
        }
        let clean = stats(&samples).expect("positive samples always produce stats");
        let s = stats(&padded).expect("the valid samples are still there");
        prop_assert_eq!(s.rejected_invalid, junk.len());
        prop_assert_eq!((s.n, s.min, s.median), (clean.n, clean.min, clean.median));
    }

    #[test]
    fn all_positive_vectors_always_yield_stats(
        raw in prop::collection::vec((1i64..1_000_000, -6i8..7), 1..20)
    ) {
        let samples: Vec<f64> = raw.iter().map(|&(m, e)| decode(m, e)).collect();
        let s = stats(&samples).expect("positive samples always produce stats");
        prop_assert_eq!((s.n, s.rejected_invalid), (samples.len(), 0));
    }
}
