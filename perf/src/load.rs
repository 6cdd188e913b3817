//! Seeded load shapes: the benchmark's own RNG, the Zipf spec sampler of
//! `serve-hot` and the Poisson arrival schedule of `serve-open`.
//!
//! The RNG is the benchmark's own so that its inputs depend on `--seed`
//! alone, not on the repository's vendored `rand` stream.

/// SplitMix64: small, fast, and good enough for load generation.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` — never 0, so `ln` of it is finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// An independent sub-seed for input `stream` of a run seeded `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// Zipf(`s`) sampler over ranks `0..n` by inverse CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty set");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Due times, in nanoseconds from the phase start, of Poisson arrivals at
/// `rate_per_s` over `seconds`. A pure function of its arguments.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut rng = SplitMix64::new(seed);
    let horizon = seconds * 1e9;
    let mut t = 0.0f64;
    let mut due = Vec::with_capacity((rate_per_s * seconds * 1.1) as usize + 8);
    loop {
        t += -rng.next_unit().ln() / rate_per_s * 1e9;
        if t >= horizon {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(7, 500.0, 2.0);
        assert_eq!(a, poisson_schedule(7, 500.0, 2.0));
        assert_ne!(a, poisson_schedule(8, 500.0, 2.0));
    }

    #[test]
    fn schedule_is_ordered_bounded_and_near_its_rate() {
        let due = poisson_schedule(3, 1000.0, 4.0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&t| t < 4_000_000_000));
        // 4000 expected, σ ≈ 63: ten sigmas either way.
        assert!((3400..4600).contains(&due.len()), "{} arrivals", due.len());
    }

    #[test]
    fn zipf_favours_low_ranks_in_proportion() {
        let z = Zipf::new(32, 1.0);
        let mut rng = SplitMix64::new(11);
        let mut hist = [0u32; 32];
        for _ in 0..200_000 {
            hist[z.sample(&mut rng)] += 1;
        }
        assert!(hist.iter().all(|&c| c > 0), "every rank is reachable");
        let ratio = hist[0] as f64 / hist[1] as f64;
        assert!((ratio - 2.0).abs() < 0.1, "rank 1 : rank 2 = {ratio}");
        let ratio = hist[0] as f64 / hist[31] as f64;
        assert!((ratio - 32.0).abs() < 4.0, "rank 1 : rank 32 = {ratio}");
    }

    #[test]
    fn zipf_sampling_is_seeded() {
        let z = Zipf::new(8, 1.0);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..64).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn sub_seeds_differ_by_stream() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_eq!(sub_seed(1, 2), sub_seed(1, 2));
    }
}
