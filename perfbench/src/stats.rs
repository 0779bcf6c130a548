//! Order statistics shared by every workload: nearest-rank percentiles,
//! the "tail" rule, and the seeded generator the inputs and schedules
//! are drawn from.

/// SplitMix64: a tiny, seedable, platform-independent generator. Every
/// input and every arrival schedule is drawn from one of these, so the
/// same `--seed` always yields the same bytes and the same schedule.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose (`salt` names it), so
    /// adding draws to one stream never shifts another.
    pub fn fork(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Exponentially distributed gap with the given rate (events per
    /// second): the inter-arrival time of a Poisson process.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// The tail percentile a sample of `n` supports: the highest of p99 and
/// p90 that leaves at least ten samples beyond it, or `None` when even
/// p90 has fewer than ten above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [0.99, 0.90]
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= 10)
}

/// Percentile label for reports (`0.99` → `"p99"`).
pub fn pct_label(p: f64) -> String {
    format!("p{}", (p * 100.0).round() as u32)
}

/// A latency sample summarized the way every report states it: median,
/// the supported tail, and the count behind both.
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)`, absent when the sample is too small.
    pub tail: Option<(f64, f64)>,
    /// Nearest-rank p90, whatever the sample size.
    pub p90: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        Some(Summary {
            n,
            p50: percentile(&v, 0.5),
            tail: tail_percentile(n).map(|p| (p, percentile(&v, p))),
            p90: percentile(&v, 0.9),
        })
    }

    /// The supported tail; a sample too short for one (a batch run
    /// makes tens of figures) reports its p90, with fewer than ten
    /// samples beyond it.
    pub fn tail_or_p90(&self) -> f64 {
        self.tail.map_or(self.p90, |(_, v)| v)
    }

    /// The tail with its percentile and sample count, for the stamp.
    pub fn tail_note(&self) -> String {
        format!("{:.3} ms, {}", self.tail_or_p90(), self.tail_label())
    }

    /// Which percentile [`Summary::tail_or_p90`] reports, for the stamp.
    pub fn tail_label(&self) -> String {
        let p = self.tail.map_or(0.9, |(p, _)| p);
        let short = if self.tail.is_none() {
            ", fewer than 10 beyond"
        } else {
            ""
        };
        format!("{} of {}{short}", pct_label(p), self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(999), Some(0.90));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(5000), Some(0.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Exactly ten samples lie beyond the reported p90.
        let p90 = percentile(&v, 0.9);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
    }

    #[test]
    fn summary_falls_back_to_p90_for_short_runs() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.p50, 10.0);
        assert!(s.tail.is_none());
        assert_eq!(s.tail_or_p90(), 18.0);
        assert_eq!(s.tail_label(), "p90 of 20, fewer than 10 beyond");
        let long: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&long).unwrap();
        assert_eq!(s.tail_or_p90(), 990.0);
        assert_eq!(s.tail_label(), "p99 of 1000");
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn rng_is_deterministic_and_forks_independently() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = Rng::fork(7, 1);
        let mut y = Rng::fork(7, 2);
        assert_ne!(x.next_u64(), y.next_u64());
        let mut r = Rng::new(9);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn exponential_gaps_have_the_requested_mean() {
        let mut r = Rng::new(42);
        let n = 200_000;
        let mean = (0..n).map(|_| r.exp_gap(50.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.02).abs() < 0.0005, "mean gap {mean}");
    }
}
