//! Order statistics, the geometric mean and the one seeded generator.
//!
//! Every time perfbench reports is a **floor**: the minimum over the
//! passes. A cell is one thread computing, so its time has a sharp
//! lower edge, and on the 2-core box only that edge repeats: over six
//! 20 s windows the sum of floors of 50 steady cells moved by 1.8 %,
//! the sum of their 5th percentiles by 6.5 %, of their medians by 30 %.
//! Median and p90 are kept beside the floor to show how loud the box
//! was, never to gate.

/// Floor, median and p90 of one timed quantity over the passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub floor: f64,
    pub median: f64,
    pub p90: f64,
}

/// Summarise samples; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        floor: sorted[0],
        median: quantile(&sorted, 0.5),
        p90: quantile(&sorted, 0.9),
    })
}

/// Linear-interpolated quantile of an ascending, non-empty slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Geometric mean of the positive values; 0 when there are none (a
/// metric whose cells are absent from the workload reads 0).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0usize);
    for v in values {
        if v > 0.0 && v.is_finite() {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// xorshift64*: the only source of randomness in the benchmark. It
/// orders the cells of a pass and nothing else. Engines receive images,
/// never a seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seed for `(seed, stream)`; the splitmix64 finalizer keeps
    /// neighbouring seeds and pass indices uncorrelated and the state
    /// non-zero.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The cell order of pass `pass`: a Fisher-Yates shuffle of `0..n`, so
/// a noisy second of the box lands on different cells in each pass.
pub fn pass_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed, pass);
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_samples() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.n, s.floor, s.median), (5, 1.0, 3.0));
        assert!((s.p90 - 4.6).abs() < 1e-12);
        assert!(summarize(&[]).is_none());
        let one = summarize(&[7.0]).unwrap();
        assert_eq!((one.floor, one.median, one.p90), (7.0, 7.0, 7.0));
    }

    #[test]
    fn geomean_ignores_non_positive_values() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([2.0, 0.0, 8.0, f64::NAN]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean([]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let a = pass_order(100, 7, 3);
        assert_eq!(a, pass_order(100, 7, 3));
        assert_ne!(a, pass_order(100, 7, 4));
        assert_ne!(a, pass_order(100, 8, 3));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert!(pass_order(0, 1, 1).is_empty());
    }
}
