//! Max-sum diversity of a match set (Section III-A).
//!
//! `δ(q, G) = (1-λ) Σ_{v∈q(G)} r(u_o, v) + (2λ/(|V_uo|-1)) Σ_{v<v'} d(v, v')`
//!
//! with relevance `r ∈ [0,1]` and pairwise difference `d ∈ [0,1]`. The
//! pairwise term is normalized by `(|V_uo|-1)/2` so `δ ∈ [0, |V_uo|]`.
//!
//! `d` is a mean of per-attribute terms, so when every node of `V_uo`
//! carries the same attributes the pair sum splits into one exact integer
//! sum per attribute, each computable from one sort of the match set's
//! values ([`DiversityMeasure::score`], `O(|A|·n log n)`). The pairwise
//! walk survives as [`DiversityMeasure::score_pairwise`], the reference
//! that accumulates the same integers pair by pair.

use crate::sampling::sample_pairs;
use fairsqg_graph::{AttrId, AttrValue, Graph, LabelId, NodeId};
use rand_pcg::Pcg64Mcg;
use std::sync::{Arc, OnceLock};

/// Relevance function `r(u_o, v)` choices.
///
/// The paper suggests entity-linkage scores or social impact; we provide
/// structural stand-ins that only depend on the graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Relevance {
    /// In-degree of the match normalized by the maximum in-degree over
    /// `V_uo` ("impact of v in social networks").
    InDegreeNormalized,
    /// A constant relevance for every match.
    Uniform(f64),
}

/// Which diversification objective the measure computes.
///
/// The paper's `δ(q, G)` is **max-sum** (Section III-A); max-min is the
/// alternative studied in the diversification literature it cites [22, 34].
/// Note that max-min is *not* monotone under match-set growth, so the
/// pruning guarantees of Lemma 2 only hold for [`MaxSum`]
/// (generation still works with max-min, but as a heuristic).
///
/// [`MaxSum`]: DiversityObjective::MaxSum
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiversityObjective {
    /// `(1-λ) Σ r(u_o,v) + (2λ/(|V_uo|-1)) Σ_{v<v'} d(v,v')` (the paper).
    #[default]
    MaxSum,
    /// `(1-λ) Σ r(u_o,v) + λ |q(G)| · min_{v<v'} d(v,v')`.
    MaxMin,
}

/// Configuration of the diversity measure.
#[derive(Debug, Clone, Copy)]
pub struct DiversityConfig {
    /// Trade-off `λ ∈ [0, 1]` between relevance and pairwise diversity.
    pub lambda: f64,
    /// Max-sum (paper default) or max-min dispersion.
    pub objective: DiversityObjective,
    /// Relevance function.
    pub relevance: Relevance,
    /// Only read where the pair term has no exact per-attribute form (a
    /// population with mixed attribute schemas, a match outside `V_uo`,
    /// max-min): when the match set has more than `pair_cap` nodes,
    /// estimate the term from a seeded sample of `pair_cap²/2` pairs
    /// instead of all `O(|q(G)|²)` pairs. `0` disables sampling.
    pub pair_cap: usize,
    /// Seed for pair sampling (determinism).
    pub seed: u64,
}

impl Default for DiversityConfig {
    fn default() -> Self {
        Self {
            lambda: 0.5,
            objective: DiversityObjective::MaxSum,
            relevance: Relevance::InDegreeNormalized,
            pair_cap: 512,
            seed: 0x5eed,
        }
    }
}

/// One attribute of a decomposable population.
#[derive(Debug)]
struct Column {
    /// Each node's value by rank in `V_uo`: the `Int` payload, or the
    /// symbol id of a `Str`.
    values: Vec<i64>,
    /// `Some(hi − lo)` of the attribute's global integer range: the
    /// per-pair term is `|x−y|/range`. `None`: the term is `x ≠ y`
    /// (strings, and integers whose global range is a single value).
    range: Option<u64>,
}

impl Column {
    /// `Σ_{v<w} t(x_v, x_w)` over the nodes at `ranks`, `t` being
    /// `|x−y|` (ranged) or `x ≠ y`, from one sort of their values.
    fn sorted_sum(&self, ranks: &[u32], vals: &mut Vec<i64>) -> u128 {
        vals.clear();
        vals.extend(ranks.iter().map(|&r| self.values[r as usize]));
        vals.sort_unstable();
        let n = vals.len() as u128;
        match self.range {
            // The gap between sorted neighbours `i-1` and `i` lies inside
            // `|x_v − x_w|` for each of the `i·(n−i)` pairs straddling it.
            Some(_) => vals
                .windows(2)
                .zip(1u128..)
                .map(|(w, i)| u128::from(w[1].abs_diff(w[0])) * i * (n - i))
                .sum(),
            // `C(n,2) − Σ_val C(cnt_val,2)`: all pairs minus the equal ones.
            None => vals
                .chunk_by(|a, b| a == b)
                .map(|run| run.len() as u128)
                .fold(pairs_of(n), |sum, cnt| sum - pairs_of(cnt)),
        }
    }

    /// The same sum by walking every pair.
    fn pairwise_sum(&self, ranks: &[u32]) -> u128 {
        let mut sum = 0u128;
        for (i, &rv) in ranks.iter().enumerate() {
            let x = self.values[rv as usize];
            for &rw in &ranks[i + 1..] {
                let y = self.values[rw as usize];
                sum += match self.range {
                    Some(_) => u128::from(x.abs_diff(y)),
                    None => u128::from(x != y),
                };
            }
        }
        sum
    }
}

/// `C(n, 2)`.
fn pairs_of(n: u128) -> u128 {
    n * n.saturating_sub(1) / 2
}

/// What the diversity measure derives once from `(graph, output label)`
/// and never mutates: shareable across threads, measures and jobs.
#[derive(Debug)]
pub struct DiversityProfile {
    /// `|V_uo|`.
    population: usize,
    /// Max in-degree over `V_uo` (for relevance normalization).
    max_in_degree: usize,
    /// Rank of each node within `V_uo` (`u32::MAX` = not in `V_uo`).
    rank: Vec<u32>,
    /// One column per attribute, ascending by attribute id, when the
    /// population is *decomposable*: every node of `V_uo` carries the
    /// same attribute-id sequence and every attribute is all-`Int` or
    /// all-`Str`. `None` otherwise.
    columns: Option<Vec<Column>>,
}

impl DiversityProfile {
    /// Builds the profile of `output_label`'s population in `graph`.
    pub fn new(graph: &Graph, output_label: LabelId) -> Self {
        let pop = graph.nodes_with_label(output_label);
        let mut rank = vec![u32::MAX; graph.node_count()];
        for (i, &v) in pop.iter().enumerate() {
            rank[v.index()] = i as u32;
        }
        Self {
            population: pop.len(),
            max_in_degree: pop.iter().map(|&v| graph.in_degree(v)).max().unwrap_or(0),
            rank,
            columns: Self::columns(graph, pop),
        }
    }

    fn columns(graph: &Graph, pop: &[NodeId]) -> Option<Vec<Column>> {
        let schema = graph.tuple(*pop.first()?);
        let mut columns: Vec<Column> = schema
            .iter()
            .map(|e| Column {
                values: Vec::with_capacity(pop.len()),
                range: match e.value() {
                    AttrValue::Int(_) => int_range(graph, e.attr()),
                    AttrValue::Str(_) => None,
                },
            })
            .collect();
        for &v in pop {
            let tuple = graph.tuple(v);
            if tuple.len() != schema.len() {
                return None;
            }
            for ((e, first), column) in tuple.iter().zip(schema).zip(&mut columns) {
                if e.attr() != first.attr() {
                    return None;
                }
                column.values.push(match (e.value(), first.value()) {
                    (AttrValue::Int(x), AttrValue::Int(_)) => x,
                    (AttrValue::Str(s), AttrValue::Str(_)) => i64::from(s.0),
                    _ => return None,
                });
            }
        }
        Some(columns)
    }

    /// Approximate resident size in bytes, for the service's warm-state
    /// byte budget.
    pub fn approx_bytes(&self) -> usize {
        let values: usize = self.columns.iter().flatten().map(|c| c.values.len()).sum();
        self.rank.len() * std::mem::size_of::<u32>() + values * std::mem::size_of::<i64>()
    }

    /// `Σ_{v<w} d(v, w)` over `matches` from per-attribute integer sums
    /// (`column_sum` computes one attribute's). `None` when the population
    /// is not decomposable or a match lies outside `V_uo`.
    fn exact_pair_sum(
        &self,
        matches: &[NodeId],
        mut column_sum: impl FnMut(&Column, &[u32]) -> u128,
    ) -> Option<f64> {
        let columns = self.columns.as_ref()?;
        let ranks: Vec<u32> = matches.iter().map(|v| self.rank[v.index()]).collect();
        if ranks.contains(&u32::MAX) {
            return None;
        }
        if columns.is_empty() {
            return Some(0.0);
        }
        let total: f64 = columns
            .iter()
            .map(|c| column_sum(c, &ranks) as f64 / c.range.unwrap_or(1) as f64)
            .sum();
        Some(total / columns.len() as f64)
    }
}

/// `hi − lo` of `attr`'s global integer range, when it spans more than
/// one value.
fn int_range(graph: &Graph, attr: AttrId) -> Option<u64> {
    match graph.domains().int_range(attr) {
        Some((lo, hi)) if hi > lo => Some(hi.abs_diff(lo)),
        _ => None,
    }
}

/// Diversity evaluator for one graph + output label.
///
/// `score` is a pure function of the match set: nothing computed for one
/// call survives into the next, so every measure over the same
/// `(graph, label, config)` — with or without a shared
/// [`DiversityProfile`] — returns the same bits.
#[derive(Debug, Clone)]
pub struct DiversityMeasure<'g> {
    graph: &'g Graph,
    output_label: LabelId,
    config: DiversityConfig,
    /// Built on first use unless one was handed in by
    /// [`with_profile`](Self::with_profile).
    profile: OnceLock<Arc<DiversityProfile>>,
}

impl<'g> DiversityMeasure<'g> {
    /// Creates a measure for matches of `output_label` in `graph`.
    pub fn new(graph: &'g Graph, output_label: LabelId, config: DiversityConfig) -> Self {
        Self {
            graph,
            output_label,
            config,
            profile: OnceLock::new(),
        }
    }

    /// Uses a profile already built for the same graph and output label
    /// instead of deriving a private one on first use.
    pub fn with_profile(mut self, profile: Arc<DiversityProfile>) -> Self {
        debug_assert_eq!(
            (profile.rank.len(), profile.population),
            (self.graph.node_count(), self.population()),
            "profile built for a different graph or output label"
        );
        self.profile = OnceLock::from(profile);
        self
    }

    fn profile(&self) -> &DiversityProfile {
        self.profile
            .get_or_init(|| Arc::new(DiversityProfile::new(self.graph, self.output_label)))
    }

    /// `|V_uo|`.
    #[inline]
    pub fn population(&self) -> usize {
        self.graph.nodes_with_label(self.output_label).len()
    }

    /// Upper bound of `δ`: `|V_uo|` (used to normalize indicators).
    #[inline]
    pub fn delta_max(&self) -> f64 {
        self.population() as f64
    }

    /// Relevance `r(u_o, v) ∈ [0, 1]`.
    pub fn relevance(&self, v: NodeId) -> f64 {
        match self.config.relevance {
            Relevance::InDegreeNormalized => match self.profile().max_in_degree {
                0 => 0.0,
                max => self.graph.in_degree(v) as f64 / max as f64,
            },
            Relevance::Uniform(r) => r.clamp(0.0, 1.0),
        }
    }

    /// Normalized tuple difference `d(v, v') ∈ [0, 1]`: averaged
    /// per-attribute distance over the union of the two tuples' attributes
    /// (integers: absolute difference over the attribute's global range;
    /// strings: 0/1; attribute present on one side only: 1).
    pub fn distance(&self, v: NodeId, w: NodeId) -> f64 {
        let tv = self.graph.tuple(v);
        let tw = self.graph.tuple(w);
        if tv.is_empty() && tw.is_empty() {
            return 0.0;
        }
        let (mut i, mut j) = (0usize, 0usize);
        let mut total = 0.0f64;
        let mut count = 0usize;
        while i < tv.len() || j < tw.len() {
            count += 1;
            match (tv.get(i), tw.get(j)) {
                (Some(&e1), Some(&e2)) => {
                    let (a1, a2) = (e1.attr(), e2.attr());
                    if a1 == a2 {
                        total += self.value_distance(a1, e1.value(), e2.value());
                        i += 1;
                        j += 1;
                    } else if a1 < a2 {
                        total += 1.0;
                        i += 1;
                    } else {
                        total += 1.0;
                        j += 1;
                    }
                }
                (Some(_), None) => {
                    total += 1.0;
                    i += 1;
                }
                (None, Some(_)) => {
                    total += 1.0;
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        total / count as f64
    }

    fn value_distance(&self, attr: AttrId, a: AttrValue, b: AttrValue) -> f64 {
        if let (AttrValue::Int(x), AttrValue::Int(y)) = (a, b) {
            if let Some(range) = int_range(self.graph, attr) {
                return x.abs_diff(y) as f64 / range as f64;
            }
        }
        f64::from(a != b)
    }

    /// Diversity `δ(q, G)` of a match set under the configured objective.
    /// The max-sum pair term is exact, in `O(|A|·n log n)`, on a
    /// decomposable population.
    pub fn score(&self, matches: &[NodeId]) -> f64 {
        let mut vals = Vec::new();
        self.score_by(matches, |column, ranks| column.sorted_sum(ranks, &mut vals))
    }

    /// [`score`](Self::score) by the `O(|A|·n²)` walk over all pairs: the
    /// reference `score` is tested against, and what the generation
    /// algorithms' reference path runs. Both accumulate the same
    /// per-attribute integers and convert them by the same expression, so
    /// they agree to the bit.
    pub fn score_pairwise(&self, matches: &[NodeId]) -> f64 {
        self.score_by(matches, Column::pairwise_sum)
    }

    /// `δ` with the max-sum pair term from `column_sum` where the
    /// per-attribute form applies. Where it does not — a population that
    /// is not decomposable, a match outside `V_uo`, max-min — the pair
    /// term is the float loop over [`distance`](Self::distance), sampled
    /// above `pair_cap`.
    fn score_by(&self, matches: &[NodeId], column_sum: impl FnMut(&Column, &[u32]) -> u128) -> f64 {
        if matches.is_empty() {
            return 0.0;
        }
        let lambda = self.config.lambda;
        let relevance_sum: f64 = matches.iter().map(|&v| self.relevance(v)).sum();
        let pair_term = match self.config.objective {
            DiversityObjective::MaxSum => {
                let pair_sum = self
                    .profile()
                    .exact_pair_sum(matches, column_sum)
                    .unwrap_or_else(|| self.float_pair_sum(matches));
                let norm = match self.population() {
                    0 | 1 => 0.0,
                    pop => 2.0 * lambda / (pop as f64 - 1.0),
                };
                norm * pair_sum
            }
            // Singleton match sets have no pairs; their dispersion is 0.
            DiversityObjective::MaxMin => {
                let min_pair = self.fold_pairs(matches, f64::INFINITY, f64::min).0;
                let min_pair = if min_pair.is_finite() { min_pair } else { 0.0 };
                lambda * matches.len() as f64 * min_pair
            }
        };
        (1.0 - lambda) * relevance_sum + pair_term
    }

    /// `Σ_{v<w} d(v, w)` in floats; above `pair_cap`, the sampled mean
    /// scaled back to the full pair count.
    fn float_pair_sum(&self, matches: &[NodeId]) -> f64 {
        let n = matches.len();
        match self.fold_pairs(matches, 0.0, |sum, d| sum + d) {
            (sum, None) => sum,
            (sum, Some(sampled)) => sum / sampled as f64 * (n * (n - 1) / 2) as f64,
        }
    }

    /// Folds `d` over all pairs of `matches` in index order — or, with
    /// more than `pair_cap` matches, over a seeded sample of `pair_cap²/2`
    /// pairs, whose size is then returned alongside.
    fn fold_pairs(
        &self,
        matches: &[NodeId],
        init: f64,
        f: impl Fn(f64, f64) -> f64,
    ) -> (f64, Option<usize>) {
        let n = matches.len();
        let cap = self.config.pair_cap;
        let mut acc = init;
        if cap > 0 && n > cap {
            let mut rng = Pcg64Mcg::new(self.config.seed as u128 | 1);
            let sample = sample_pairs(n, cap * cap / 2, &mut rng);
            for &(i, j) in &sample {
                acc = f(acc, self.distance(matches[i], matches[j]));
            }
            return (acc, Some(sample.len()));
        }
        for (i, &v) in matches.iter().enumerate() {
            for &w in &matches[i + 1..] {
                acc = f(acc, self.distance(v, w));
            }
        }
        (acc, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsqg_graph::GraphBuilder;

    fn graph() -> Graph {
        let mut b = GraphBuilder::new();
        let m1 = b.add_named_node("movie", &[("year", AttrValue::Int(2000))]);
        let m2 = b.add_named_node("movie", &[("year", AttrValue::Int(2010))]);
        let _m3 = b.add_named_node("movie", &[("year", AttrValue::Int(2020))]);
        let d = b.add_named_node("director", &[]);
        b.add_named_edge(d, m1, "directed");
        b.add_named_edge(d, m2, "directed");
        b.finish()
    }

    fn measure(g: &Graph, lambda: f64) -> DiversityMeasure<'_> {
        let movie = g.schema().find_node_label("movie").unwrap();
        DiversityMeasure::new(
            g,
            movie,
            DiversityConfig {
                lambda,
                ..DiversityConfig::default()
            },
        )
    }

    #[test]
    fn empty_match_set_scores_zero() {
        let g = graph();
        assert_eq!(measure(&g, 0.5).score(&[]), 0.0);
    }

    #[test]
    fn pure_relevance_lambda_zero() {
        let g = graph();
        let m = measure(&g, 0.0);
        // m1, m2 have in-degree 1 (max), m3 has 0.
        let s = m.score(&[NodeId(0), NodeId(1), NodeId(2)]);
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pure_diversity_lambda_one() {
        let g = graph();
        let m = measure(&g, 1.0);
        // d(m1,m3) over year range [2000,2020]: |2000-2020|/20 = 1.
        assert!((m.distance(NodeId(0), NodeId(2)) - 1.0).abs() < 1e-12);
        assert!((m.distance(NodeId(0), NodeId(1)) - 0.5).abs() < 1e-12);
        // δ = (2·1/(3-1)) · Σ pairs = 1.0 · (0.5 + 1.0 + 0.5) = 2.0
        let s = m.score(&[NodeId(0), NodeId(1), NodeId(2)]);
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn distance_handles_missing_attributes() {
        let g = graph();
        let m = measure(&g, 1.0);
        // director has no attrs; movie has one ⇒ union size 1, mismatch 1.
        assert!((m.distance(NodeId(0), NodeId(3)) - 1.0).abs() < 1e-12);
        // Two empty tuples.
        let mut b = GraphBuilder::new();
        let a = b.add_named_node("x", &[]);
        let c = b.add_named_node("x", &[]);
        let g2 = b.finish();
        let x = g2.schema().find_node_label("x").unwrap();
        let m2 = DiversityMeasure::new(&g2, x, DiversityConfig::default());
        assert_eq!(m2.distance(a, c), 0.0);
        assert_eq!(m2.score(&[a, c]), m2.score_pairwise(&[a, c]));
    }

    #[test]
    fn monotone_under_superset_for_pure_diversity() {
        let g = graph();
        let m = measure(&g, 1.0);
        let small = m.score(&[NodeId(0), NodeId(1)]);
        let large = m.score(&[NodeId(0), NodeId(1), NodeId(2)]);
        assert!(
            large > small,
            "adding matches cannot reduce max-sum diversity"
        );
    }

    #[test]
    fn sampling_approximates_exact() {
        // Sampling only runs where the pair term has no per-attribute
        // form: one movie without a year makes the population
        // non-decomposable.
        let mut b = GraphBuilder::new();
        for i in 0..60 {
            b.add_named_node("movie", &[("year", AttrValue::Int(1960 + i))]);
        }
        b.add_named_node("movie", &[]);
        let g = b.finish();
        let movie = g.schema().find_node_label("movie").unwrap();
        let matches: Vec<NodeId> = g.nodes().take(60).collect();
        let score_at = |pair_cap| {
            DiversityMeasure::new(
                &g,
                movie,
                DiversityConfig {
                    lambda: 1.0,
                    pair_cap,
                    ..DiversityConfig::default()
                },
            )
            .score(&matches)
        };
        let (exact, approx) = (score_at(0), score_at(30));
        assert_ne!(exact, approx, "the fallback must sample above pair_cap");
        let rel_err = (exact - approx).abs() / exact;
        assert!(rel_err < 0.15, "rel err {rel_err} too large");
    }

    #[test]
    fn max_min_objective() {
        let g = graph();
        let movie = g.schema().find_node_label("movie").unwrap();
        let m = DiversityMeasure::new(
            &g,
            movie,
            DiversityConfig {
                lambda: 1.0,
                objective: DiversityObjective::MaxMin,
                pair_cap: 0,
                ..DiversityConfig::default()
            },
        );
        // min pairwise distance among {m1,m2,m3} is 0.5 ⇒ δ = 3·0.5 = 1.5.
        let s = m.score(&[NodeId(0), NodeId(1), NodeId(2)]);
        assert!((s - 1.5).abs() < 1e-12);
        // Singleton: no dispersion.
        assert_eq!(m.score(&[NodeId(0)]), 0.0);
        // Max-min is NOT superset-monotone: a near-duplicate pair hurts.
        let two = m.score(&[NodeId(0), NodeId(2)]); // distance 1.0 ⇒ 2.0
        assert!(two > s);
    }

    #[test]
    fn closed_form_is_bit_identical_to_pairwise_on_nested_sets() {
        // Nested match sets mimic a refinement chain (Lemma 2). `pair_cap`
        // below the set sizes: a decomposable population never samples.
        let mut b = GraphBuilder::new();
        for i in 0..40i64 {
            b.add_named_node(
                "movie",
                &[
                    ("year", AttrValue::Int(1980 + i)),
                    ("votes", AttrValue::Int(i * i % 23)),
                ],
            );
        }
        let g = b.finish();
        let movie = g.schema().find_node_label("movie").unwrap();
        let score_at = |pair_cap| {
            DiversityMeasure::new(
                &g,
                movie,
                DiversityConfig {
                    lambda: 0.7,
                    pair_cap,
                    ..DiversityConfig::default()
                },
            )
        };
        let (capped, uncapped) = (score_at(8), score_at(0));
        let all: Vec<NodeId> = g.nodes().collect();
        for len in (1..=all.len()).rev() {
            let set = &all[..len];
            let closed = capped.score(set).to_bits();
            assert_eq!(closed, capped.score_pairwise(set).to_bits(), "len {len}");
            assert_eq!(closed, uncapped.score(set).to_bits(), "len {len}");
        }
    }

    #[test]
    fn uniform_relevance() {
        let g = graph();
        let movie = g.schema().find_node_label("movie").unwrap();
        let m = DiversityMeasure::new(
            &g,
            movie,
            DiversityConfig {
                lambda: 0.0,
                relevance: Relevance::Uniform(0.25),
                ..DiversityConfig::default()
            },
        );
        let s = m.score(&[NodeId(0), NodeId(1)]);
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shared_profile_is_bit_identical_to_private() {
        let g = graph();
        let movie = g.schema().find_node_label("movie").unwrap();
        let with_shared = measure(&g, 0.5).with_profile(Arc::new(DiversityProfile::new(&g, movie)));
        let private = measure(&g, 0.5);
        let all = [NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(
            with_shared.score(&all).to_bits(),
            private.score(&all).to_bits()
        );
        for &v in &all {
            assert_eq!(
                with_shared.relevance(v).to_bits(),
                private.relevance(v).to_bits()
            );
        }
        // A director is outside `V_uo`: both take the float loop.
        let mixed = [NodeId(0), NodeId(2), NodeId(3)];
        assert_eq!(
            with_shared.score(&mixed).to_bits(),
            private.score_pairwise(&mixed).to_bits()
        );
    }

    #[test]
    fn extreme_integers_do_not_overflow() {
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = [i64::MIN, 0, i64::MAX]
            .iter()
            .map(|&x| b.add_named_node("p", &[("k", AttrValue::Int(x))]))
            .collect();
        let g = b.finish();
        let p = g.schema().find_node_label("p").unwrap();
        let m = DiversityMeasure::new(
            &g,
            p,
            DiversityConfig {
                lambda: 1.0,
                ..DiversityConfig::default()
            },
        );
        assert_eq!(m.distance(nodes[0], nodes[2]), 1.0);
        // Σ|x−y| = 2·(2⁶⁴−1) over a range of 2⁶⁴−1, and 2λ/(|V_uo|−1) = 1.
        assert_eq!(m.score(&nodes), 2.0);
        assert_eq!(
            m.score(&nodes).to_bits(),
            m.score_pairwise(&nodes).to_bits()
        );
    }

    #[test]
    fn empty_population_builds_and_scores_zero() {
        let mut b = GraphBuilder::new();
        let ghost = b.schema_mut().node_label("ghost");
        b.add_named_node("p", &[("k", AttrValue::Int(1))]);
        let g = b.finish();
        let profile = Arc::new(DiversityProfile::new(&g, ghost));
        assert!(profile.approx_bytes() > 0);
        let m = DiversityMeasure::new(&g, ghost, DiversityConfig::default()).with_profile(profile);
        assert_eq!(m.population(), 0);
        assert_eq!(m.score(&[]), 0.0);
        assert_eq!(m.score_pairwise(&[]), 0.0);
    }
}
