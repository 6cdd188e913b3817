//! Seeded sampling utilities shared by the dataset generators.

use rand::Rng;
use rand_pcg::Pcg64Mcg;

/// Creates the crate's canonical deterministic RNG from a seed.
pub fn rng(seed: u64) -> Pcg64Mcg {
    // Mix the seed so that nearby seeds diverge immediately.
    Pcg64Mcg::new(((seed as u128) << 64 | (seed as u128 ^ 0x9e3779b97f4a7c15)) | 1)
}

/// Zipf-like weights `1/(i+1)^s` over `0..n`, built once and sampled many
/// times.
///
/// Skews categorical attributes (genres, topics) the way real catalogs are
/// skewed — a handful of dominant categories and a long tail — and picks
/// popular endpoints among every director, actor, org or author of an
/// in-memory graph, where `n` grows with the graph. Building the table
/// costs `n` `powf` calls, so each generator call builds each table once,
/// before its loops; a draw is one RNG call and a walk over the weights.
pub(crate) struct Zipf {
    weights: Vec<f64>,
    total: f64,
}

impl Zipf {
    /// The table for `n ≥ 1` indices with exponent `s`.
    pub(crate) fn new(n: usize, s: f64) -> Self {
        debug_assert!(n > 0);
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        let total = weights.iter().sum();
        Self { weights, total }
    }

    /// Samples an index in `0..n`.
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let mut x = rng.gen_range(0.0..self.total);
        for (i, w) in self.weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        self.weights.len() - 1
    }
}

/// O(1) approximation of a Zipf draw for large `n` (the streaming
/// emitters sample among millions of nodes per edge in bounded memory,
/// where an `n`-entry weight table is unaffordable). Uses the continuous
/// inverse-CDF of the bounded power law `w(i) ∝ (i+1)^-s`: head-skewed
/// like the exact table, but the per-index probabilities differ slightly.
pub fn zipf_approx<R: Rng>(rng: &mut R, n: usize, s: f64) -> usize {
    debug_assert!(n > 0);
    let u = rng.gen_range(0.0..1.0f64);
    let nf = n as f64;
    let x = if (s - 1.0).abs() < 1e-9 {
        // s = 1: CDF(x) = ln(1+x) / ln(1+n).
        (1.0 + nf).powf(u) - 1.0
    } else {
        let p = 1.0 - s;
        // CDF(x) = ((1+x)^p - 1) / ((1+n)^p - 1).
        (u * ((1.0 + nf).powf(p) - 1.0) + 1.0).powf(1.0 / p) - 1.0
    };
    (x as usize).min(n - 1)
}

/// Samples an integer in `[lo, hi]` with a log-uniform distribution
/// (org sizes, citation counts).
pub fn log_uniform<R: Rng>(rng: &mut R, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo >= 1 && hi >= lo);
    let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
    let x = rng.gen_range(llo..=lhi);
    (x.exp().round() as u64).clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the same draw with the weights rebuilt on every call.
    /// [`Zipf`] must draw exactly what this draws, index and RNG stream
    /// alike, or every seeded graph changes.
    fn per_draw_walk<R: Rng>(rng: &mut R, n: usize, s: f64) -> usize {
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut x = rng.gen_range(0.0..total);
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        n - 1
    }

    #[test]
    fn sample_matches_the_per_draw_walk() {
        for n in [1, 2, 3, 5, 8, 11, 50, 2_400, 40_000] {
            // The reference pays n powf calls a draw: fewer draws for big n.
            let draws = (200_000 / n).clamp(5, 2_000);
            for s in [0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.5] {
                let table = Zipf::new(n, s);
                let mut a = rng(n as u64 ^ s.to_bits());
                let mut b = a.clone();
                for d in 0..draws {
                    let (got, want) = (table.sample(&mut a), per_draw_walk(&mut b, n, s));
                    assert_eq!(got, want, "n={n} s={s} draw {d}");
                    assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "n={n} s={s} draw {d}");
                }
            }
        }
    }

    #[test]
    fn zipf_is_skewed_towards_head() {
        let mut r = rng(1);
        let table = Zipf::new(5, 1.0);
        let mut counts = [0usize; 5];
        for _ in 0..5000 {
            counts[table.sample(&mut r)] += 1;
        }
        assert!(
            counts[0] > counts[4] * 2,
            "head should dominate tail: {counts:?}"
        );
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn zipf_approx_is_skewed_and_in_bounds() {
        let mut r = rng(3);
        for s in [0.6, 1.0, 1.4] {
            let mut head = 0usize;
            for _ in 0..4000 {
                let i = zipf_approx(&mut r, 1_000_000, s);
                assert!(i < 1_000_000);
                if i < 1000 {
                    head += 1;
                }
            }
            // The first 0.1% of indices must receive far more than 0.1%
            // of the mass.
            assert!(head > 200, "s={s}: head mass too small ({head}/4000)");
        }
        // Degenerate n=1 never panics.
        assert_eq!(zipf_approx(&mut r, 1, 1.0), 0);
    }

    #[test]
    fn log_uniform_respects_bounds() {
        let mut r = rng(2);
        for _ in 0..1000 {
            let v = log_uniform(&mut r, 50, 5000);
            assert!((50..=5000).contains(&v));
        }
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: u64 = rng(7).gen();
        let b: u64 = rng(7).gen();
        let c: u64 = rng(8).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
