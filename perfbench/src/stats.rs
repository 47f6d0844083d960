//! Order statistics and the seeded generator every workload draws from.

/// Percentiles the tail helper may report, ascending.
const TAIL_PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples. The
/// epsilon absorbs the representation error of `p` (99.9 is not exact).
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-6).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest percentile, up to `max_p`, that leaves at least
/// [`TAIL_BEYOND`] samples above it, as `(p, value)`. When none does,
/// the maximum is returned as `p = 100`.
pub fn tail(sorted: &[f64], max_p: f64) -> (f64, f64) {
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    TAIL_PERCENTILES
        .iter()
        .rev()
        .filter(|&&p| p <= max_p)
        .find(|&&p| n - rank(p, n) >= TAIL_BEYOND)
        .map_or((100.0, sorted[n - 1]), |&p| (p, percentile(sorted, p)))
}

/// Sorts a sample set ascending; timings are never NaN.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    values
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median over passes of each pass's percentile `p`: the median itself
/// for `p = 50`, otherwise the [`tail`] capped at `p`. Returns the value,
/// the lowest percentile any pass supported, and the smallest pass's
/// sample count.
pub fn median_of_passes(passes: &[Vec<f64>], p: f64) -> (f64, f64, usize) {
    let per_pass: Vec<(f64, f64)> = passes
        .iter()
        .map(|samples| {
            let s = sorted(samples.clone());
            if p == 50.0 {
                (percentile(&s, 50.0), 50.0)
            } else {
                let (taken, v) = tail(&s, p);
                (v, taken)
            }
        })
        .collect();
    (
        median(&per_pass.iter().map(|x| x.0).collect::<Vec<_>>()),
        per_pass.iter().map(|x| x.1).fold(f64::INFINITY, f64::min),
        passes.iter().map(Vec::len).min().unwrap_or(0),
    )
}

/// Arithmetic mean; zero for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geomean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Splitmix64: the seeded stream behind every workload's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly ten above it; p99.9 only one.
        assert_eq!(tail(&ramp(1000), 99.9), (99.0, 990.0));
        // 999 samples: p99 is rank 990, leaving nine; fall back to p90.
        assert_eq!(tail(&ramp(999), 99.9).0, 90.0);
        // 10_000 samples: p99.9 leaves ten.
        assert_eq!(tail(&ramp(10_000), 99.9), (99.9, 9990.0));
        // ...unless capped at p99.
        assert_eq!(tail(&ramp(10_000), 99.0), (99.0, 9900.0));
        // 200 samples: p99 leaves two, p90 leaves twenty.
        assert_eq!(tail(&ramp(200), 99.9), (90.0, 180.0));
        // 20 samples: p50 is rank 10, leaving ten; 19 leave nine.
        assert_eq!(tail(&ramp(20), 99.9), (50.0, 10.0));
        assert_eq!(tail(&ramp(19), 99.9), (100.0, 19.0));
        // Five samples: no percentile qualifies; report the maximum.
        assert_eq!(tail(&ramp(5), 99.9), (100.0, 5.0));
    }

    #[test]
    fn median_of_passes_ignores_one_noisy_pass() {
        let quiet = ramp(1000);
        let noisy: Vec<f64> = ramp(1000).iter().map(|v| v * 10.0).collect();
        let passes = vec![quiet.clone(), noisy, quiet];
        assert_eq!(median_of_passes(&passes, 50.0), (500.0, 50.0, 1000));
        assert_eq!(median_of_passes(&passes, 99.0), (990.0, 99.0, 1000));
        // A short pass lowers the percentile every pass can support.
        let short = vec![ramp(1000), ramp(200), ramp(1000)];
        assert_eq!(median_of_passes(&short, 99.0).1, 90.0);
    }

    #[test]
    fn median_mean_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut other = Rng::new(7, 2);
        assert_eq!(a, b);
        assert_ne!(a[0], other.next_u64());
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| r.below(3) < 3 && (0.0..1.0).contains(&r.unit())));
    }
}
