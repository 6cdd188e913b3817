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
/// before its loops; a draw is one RNG call and a binary search over the
/// prefix sums, `O(log n)` but for a rare fallback.
///
/// # A draw is the walk's index
///
/// Seeded graphs are pinned byte for byte, so a draw is defined by a walk:
/// take `x` uniform in `[0, total)`, subtract `w_0, w_1, …` from it in
/// turn and return the first `i` whose remainder is below `w_i` (`n − 1`
/// if none is). `Zipf::walk` is that walk; it costs `O(i)`. The search
/// finds `k`, the first index with `cum[k] > x`, and returns it when `x`
/// lies more than the guard `g_k = 4(k+2)·ε·total` from `cum[k]` and, for
/// `k > 0`, from `cum[k−1]`. Otherwise, and when `k = n`, it walks.
///
/// Why the two agree. Let `S_i = w_0 + … + w_{i−1}` exactly, and let
/// `u = ε/2` be the unit roundoff.
/// - While the walk goes on, its remainder stays in `[0, x]`, so each
///   subtraction errs by at most `u·total`: after `i` steps the remainder
///   `r_i` is within `i·u·total` of `x − S_i`.
/// - `cum[i]` is `i` rounded additions of partial sums no larger than
///   `total`, so it is within `i·u·(1+u)·total` of `S_{i+1}`.
/// - The walk stops at `i` when `r_i < w_i`, that is when `x` is below
///   `S_{i+1}` moved by at most `i·u·total`. So that test and
///   `x < cum[i]` can disagree only for `x` within
///   `2i·u·(1+u)·total < g_k` of `cum[i]`, for any `i ≤ k`. The guard's
///   slack (over 4×) also covers the rounding of the two subtractions
///   that test it.
/// - For every `i < k`, `cum[i] ≤ cum[k−1] < x − g_k`, so the walk passes
///   `i`. At `i = k`, `x < cum[k] − g_k`, so it stops there.
///
/// The guard is a bound in `k`, tighter than one in `n`: at `n = 10⁶`
/// about one draw in a thousand falls back (docs/performance.md §5).
pub(crate) struct Zipf {
    weights: Vec<f64>,
    /// `cum[i] = w_0 + … + w_i`, summed left to right as `Iterator::sum`
    /// sums `total`, so `cum[n − 1] == total`.
    cum: Vec<f64>,
    total: f64,
}

impl Zipf {
    /// The table for `n ≥ 1` indices with exponent `s`.
    pub(crate) fn new(n: usize, s: f64) -> Self {
        debug_assert!(n > 0);
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        let cum: Vec<f64> = weights
            .iter()
            .scan(0.0, |sum, w| {
                *sum += w;
                Some(*sum)
            })
            .collect();
        let total = cum[n - 1];
        Self {
            weights,
            cum,
            total,
        }
    }

    /// Samples an index in `0..n`.
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        self.index_of(rng.gen_range(0.0..self.total))
    }

    /// The walk's index for `x` in `[0, total)`: the guarded search, or the
    /// walk where the guard does not clear.
    fn index_of(&self, x: f64) -> usize {
        self.search(x).unwrap_or_else(|| self.walk(x))
    }

    /// `k`, the first index with `cum[k] > x`, if `x` lies more than the
    /// guard from the prefix sums on both sides of it.
    fn search(&self, x: f64) -> Option<usize> {
        let k = self.cum.partition_point(|&c| c <= x);
        let hi = *self.cum.get(k)?;
        let guard = self.guard(k);
        (hi - x > guard && (k == 0 || x - self.cum[k - 1] > guard)).then_some(k)
    }

    /// `g_k = 4(k+2)·ε·total`: no rounding in the walk or in `cum` up to
    /// index `k` moves a boundary this far.
    fn guard(&self, k: usize) -> f64 {
        4.0 * (k + 2) as f64 * f64::EPSILON * self.total
    }

    /// The walk that defines a draw: subtract the weights from `x` in turn.
    fn walk(&self, mut x: f64) -> usize {
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

    /// The walk for an `x` the test picks, over the table's own weights.
    fn walk_at(weights: &[f64], mut x: f64) -> usize {
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// `x` moved by `steps` units in the last place (`x ≥ 0`).
    fn ulps(x: f64, steps: i64) -> Option<f64> {
        let bits = (x.to_bits() as i64).checked_add(steps)?;
        (bits >= 0).then(|| f64::from_bits(bits as u64))
    }

    #[test]
    fn index_of_is_the_walk_at_boundaries() {
        for n in [1, 2, 3, 7, 60, 2_400, 40_000, 1_000_000] {
            for s in [0.6, 0.8, 1.0, 1.1, 1.5] {
                let table = Zipf::new(n, s);
                let mut r = rng(n as u64 ^ s.to_bits());
                // Every index of a small table; else both ends and a few
                // seeded ones, log-uniform so the reference walks stay short.
                let ks: Vec<usize> = if n <= 60 {
                    (0..n).collect()
                } else {
                    let mut ks = vec![0, 1, n - 1];
                    ks.extend((0..3).map(|_| log_uniform(&mut r, 1, n as u64) as usize - 1));
                    ks
                };
                let (mut fast, mut fell_back) = (0, 0);
                for k in ks {
                    let guard = table.guard(k);
                    let lo = if k == 0 { 0.0 } else { table.cum[k - 1] };
                    let hi = table.cum[k];
                    // Both prefix sums and both guard edges, each ± 2 ulps.
                    let xs = [lo, hi, lo + guard, hi - guard]
                        .into_iter()
                        .flat_map(|edge| (-2..=2).filter_map(move |d| ulps(edge, d)))
                        .filter(|x| (0.0..table.total).contains(x));
                    for x in xs {
                        let want = walk_at(&table.weights, x);
                        assert_eq!(table.index_of(x), want, "n={n} s={s} k={k} x={x:e}");
                        match table.search(x) {
                            Some(got) => {
                                assert_eq!(got, want, "n={n} s={s} k={k} x={x:e}");
                                fast += 1;
                            }
                            None => fell_back += 1,
                        }
                    }
                    // Within a few ulps of a prefix sum the search never
                    // trusts itself.
                    for d in -2..=2 {
                        if let Some(x) = ulps(hi, d) {
                            assert_eq!(table.search(x), None, "n={n} s={s} k={k} x={x:e}");
                        }
                    }
                }
                assert!(
                    fast > 0 && fell_back > 0,
                    "n={n} s={s}: {fast} fast, {fell_back} walked"
                );
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
