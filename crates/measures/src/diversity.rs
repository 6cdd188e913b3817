//! Max-sum diversity of a match set (Section III-A).
//!
//! `δ(q, G) = (1-λ) Σ_{v∈q(G)} r(u_o, v) + (2λ/(|V_uo|-1)) Σ_{v<v'} d(v, v')`
//!
//! with relevance `r ∈ [0,1]` and pairwise difference `d ∈ [0,1]`. The
//! pairwise term is normalized by `(|V_uo|-1)/2` so `δ ∈ [0, |V_uo|]`.
//!
//! `d` is a mean of per-attribute terms over the union of two tuples'
//! attributes, so the pair sum splits by *schema class* (the set of
//! `(attribute, kind)` a node carries): for two classes the denominator is
//! fixed, an attribute on one side only (or of two kinds) adds 1 per pair,
//! and each shared column adds one exact integer sum, computable from the
//! match set's values sorted once per class ([`DiversityMeasure::score`],
//! `O(|A|·(n log n + k·n))` for `k` classes). The pairwise walk survives
//! as [`DiversityMeasure::score_pairwise`], the reference that accumulates
//! the same integers pair by pair.

use fairsqg_graph::{AttrEntry, AttrId, AttrValue, Graph, LabelId, NodeId};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::mem::size_of;
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

/// Configuration of the diversity measure.
#[derive(Debug, Clone, Copy)]
pub struct DiversityConfig {
    /// Trade-off `λ ∈ [0, 1]` between relevance and pairwise diversity.
    pub lambda: f64,
    /// Relevance function.
    pub relevance: Relevance,
}

impl Default for DiversityConfig {
    fn default() -> Self {
        Self {
            lambda: 0.5,
            relevance: Relevance::InDegreeNormalized,
        }
    }
}

/// One `(attribute, kind)` that occurs in `V_uo`.
#[derive(Debug)]
struct Column {
    attr: AttrId,
    /// `Some(hi − lo)` of the attribute's global integer range: the
    /// per-pair term is `|x−y|/range`. `None`: the term is `x ≠ y`
    /// (strings, and integers whose global range is a single value).
    range: Option<u64>,
}

impl Column {
    /// A sum of this column's per-pair terms, normalized by its range.
    fn scaled(&self, sum: u128) -> f64 {
        sum as f64 / self.range.unwrap_or(1) as f64
    }
}

/// The nodes of `V_uo` that carry one set of columns.
#[derive(Debug)]
struct Class {
    /// Column ids, ascending by attribute id.
    cols: Vec<usize>,
    /// Per column, its values on the class's nodes by index within the
    /// class.
    values: Vec<Vec<i64>>,
    /// Nodes in the class.
    len: u32,
}

/// How a column's per-pair terms `t(x, y)` (`|x−y|` if ranged, else
/// `x ≠ y`) are added up. Both give the same integers.
#[derive(Debug, Clone, Copy)]
enum Summation {
    /// From sorted values.
    Sorted,
    /// Pair by pair: the reference.
    Pairwise,
}

impl Summation {
    /// `Σ_{i<j} t(xs_i, xs_j)`; `Sorted` sorts `xs`.
    fn within(self, ranged: bool, xs: &mut [i64]) -> u128 {
        if let Self::Pairwise = self {
            return (0..xs.len())
                .map(|i| self.across(ranged, &xs[i..=i], &xs[i + 1..]))
                .sum();
        }
        xs.sort_unstable();
        let n = xs.len() as u128;
        if ranged {
            // The gap between sorted neighbours `i-1` and `i` lies inside
            // `|x_v − x_w|` for each of the `i·(n−i)` pairs straddling it.
            xs.windows(2)
                .zip(1u128..)
                .map(|(w, i)| u128::from(w[1].abs_diff(w[0])) * i * (n - i))
                .sum()
        } else {
            // `C(n,2) − Σ_val C(cnt_val,2)`: all pairs minus the equal ones.
            xs.chunk_by(|a, b| a == b)
                .map(|run| run.len() as u128)
                .fold(pairs_of(n), |sum, cnt| sum - pairs_of(cnt))
        }
    }

    /// `Σ_{x∈xs, y∈ys} t(x, y)`; `Sorted` needs both sorted, and walks the
    /// pairs where they are fewer than the values.
    fn across(self, ranged: bool, xs: &[i64], ys: &[i64]) -> u128 {
        match self {
            Self::Sorted if xs.len() * ys.len() <= xs.len() + ys.len() => {
                Self::Pairwise.across(ranged, xs, ys)
            }
            Self::Pairwise => xs
                .iter()
                .flat_map(|&x| ys.iter().map(move |&y| (x, y)))
                .map(|(x, y)| {
                    if ranged {
                        u128::from(x.abs_diff(y))
                    } else {
                        u128::from(x != y)
                    }
                })
                .sum(),
            // For each `y`, with the `k` values `x ≤ y` summing to `below`
            // of `total`: `Σ_x |x−y| = y·(2k − n) + total − 2·below`.
            Self::Sorted if ranged => {
                let total: i128 = xs.iter().map(|&x| i128::from(x)).sum();
                let (mut k, mut below) = (0, 0i128);
                ys.iter()
                    .map(|&y| {
                        for &x in xs[k..].iter().take_while(|&&x| x <= y) {
                            (k, below) = (k + 1, below + i128::from(x));
                        }
                        let two_k_minus_n = 2 * k as i128 - xs.len() as i128;
                        (i128::from(y) * two_k_minus_n + total - 2 * below) as u128
                    })
                    .sum()
            }
            // All pairs minus the equal ones: each run of equal `y`s times
            // the `x`s of its value.
            Self::Sorted => {
                let equal: usize = ys
                    .chunk_by(|a, b| a == b)
                    .map(|run| {
                        let lo = xs.partition_point(|&x| x < run[0]);
                        run.len() * (xs.partition_point(|&x| x <= run[0]) - lo)
                    })
                    .sum();
                (xs.len() * ys.len() - equal) as u128
            }
        }
    }
}

/// `C(n, 2)`.
fn pairs_of(n: u128) -> u128 {
    n * n.saturating_sub(1) / 2
}

/// The matches of one class, column by column.
struct Group<'p> {
    /// The class's column ids.
    cols: &'p [usize],
    /// Matches in the class.
    len: usize,
    /// Column `i`'s values on those matches at `values[i·len..][..len]`
    /// (sorted, for [`Summation::Sorted`]).
    values: Vec<i64>,
    /// Each column's sum over the pairs within the group.
    within: Vec<u128>,
}

impl Group<'_> {
    fn column(&self, i: usize) -> &[i64] {
        &self.values[i * self.len..][..self.len]
    }
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
    /// Every `(attribute, kind)` some node of `V_uo` carries.
    columns: Vec<Column>,
    /// `V_uo` by schema class, each node's values stored with its class:
    /// `Σ_v |T(v)|` values in all.
    classes: Vec<Class>,
    /// Each node's class and index within it, by rank.
    slot: Vec<(u32, u32)>,
}

impl DiversityProfile {
    /// Builds the profile of `output_label`'s population in `graph`.
    pub fn new(graph: &Graph, output_label: LabelId) -> Self {
        let pop = graph.nodes_with_label(output_label);
        let mut rank = vec![u32::MAX; graph.node_count()];
        for (i, &v) in pop.iter().enumerate() {
            rank[v.index()] = i as u32;
        }
        let (columns, classes, slot) = schema_classes(graph, pop);
        Self {
            population: pop.len(),
            max_in_degree: pop.iter().map(|&v| graph.in_degree(v)).max().unwrap_or(0),
            rank,
            columns,
            classes,
            slot,
        }
    }

    /// Approximate resident size in bytes, for the service's warm-state
    /// byte budget.
    pub fn approx_bytes(&self) -> usize {
        let classes: usize = self
            .classes
            .iter()
            .map(|c| {
                size_of::<Class>()
                    + c.cols.len() * (size_of::<usize>() + size_of::<Vec<i64>>())
                    + c.len as usize * c.cols.len() * size_of::<i64>()
            })
            .sum();
        self.rank.len() * size_of::<u32>()
            + self.slot.len() * size_of::<(u32, u32)>()
            + self.columns.len() * size_of::<Column>()
            + classes
    }

    /// `Σ_{v<w} d(v, w)` over `matches`, one class pair at a time, from
    /// integer sums per column.
    ///
    /// # Panics
    ///
    /// If a match lies outside `V_uo`: the matcher draws the output node's
    /// candidates from its label, so no match set holds one.
    fn pair_sum(&self, matches: &[NodeId], summation: Summation) -> f64 {
        let ranks: Vec<u32> = matches
            .iter()
            .map(|&v| {
                let r = self.rank[v.index()];
                assert!(r != u32::MAX, "match {v:?} lies outside V_uo");
                r
            })
            .collect();
        let groups: Vec<Group<'_>> = if let [class] = self.classes.as_slice() {
            // One class: a node's index within it is its rank.
            vec![self.group(class, ranks.iter().copied(), summation)]
        } else {
            let mut slots: Vec<(u32, u32)> = ranks.iter().map(|&r| self.slot[r as usize]).collect();
            slots.sort_unstable();
            slots
                .chunk_by(|a, b| a.0 == b.0)
                .map(|run| {
                    let class = &self.classes[run[0].0 as usize];
                    self.group(class, run.iter().map(|&(_, at)| at), summation)
                })
                .collect()
        };
        let mut sum = 0.0;
        for (g, s) in groups.iter().enumerate() {
            if !s.cols.is_empty() {
                let within: f64 = s
                    .cols
                    .iter()
                    .zip(&s.within)
                    .map(|(&c, &n)| self.columns[c].scaled(n))
                    .sum();
                sum += within / s.cols.len() as f64;
            }
            for t in &groups[g + 1..] {
                // Merge the two column lists by attribute: a column both
                // classes carry adds its sum over the cross pairs, every
                // other attribute of the union adds 1 per cross pair.
                let (mut i, mut j, mut common, mut shared) = (0, 0, 0, 0);
                let mut shared_sum = 0.0;
                while i < s.cols.len() && j < t.cols.len() {
                    let (c, d) = (s.cols[i], t.cols[j]);
                    match self.columns[c].attr.cmp(&self.columns[d].attr) {
                        Ordering::Less => i += 1,
                        Ordering::Greater => j += 1,
                        Ordering::Equal => {
                            if c == d {
                                let column = &self.columns[c];
                                let cross = summation.across(
                                    column.range.is_some(),
                                    s.column(i),
                                    t.column(j),
                                );
                                shared_sum += column.scaled(cross);
                                shared += 1;
                            }
                            common += 1;
                            (i, j) = (i + 1, j + 1);
                        }
                    }
                }
                let union = s.cols.len() + t.cols.len() - common;
                let unequal = (union - shared) as u128 * s.len as u128 * t.len as u128;
                sum += (shared_sum + unequal as f64) / union as f64;
            }
        }
        sum
    }

    /// The matches of `class` at indices `at` within it: their values
    /// gathered column by column, and each column summed within the group.
    fn group<'p>(
        &self,
        class: &'p Class,
        at: impl ExactSizeIterator<Item = u32> + Clone,
        summation: Summation,
    ) -> Group<'p> {
        let (width, len) = (class.cols.len(), at.len());
        let mut values = Vec::with_capacity(width * len);
        for column in &class.values {
            values.extend(at.clone().map(|i| column[i as usize]));
        }
        let within = class
            .cols
            .iter()
            .zip(values.chunks_exact_mut(len))
            .map(|(&c, xs)| summation.within(self.columns[c].range.is_some(), xs))
            .collect();
        Group {
            cols: &class.cols,
            len,
            values,
            within,
        }
    }
}

/// A tuple entry's column key `(attribute, is Int)` and `i64` payload.
fn entry(e: &AttrEntry) -> ((AttrId, bool), i64) {
    match e.value() {
        AttrValue::Int(x) => ((e.attr(), true), x),
        AttrValue::Str(s) => ((e.attr(), false), i64::from(s.0)),
    }
}

/// The columns of `pop` (one per `(attribute, kind)`), its schema classes
/// holding each node's values, and each node's slot in its class.
/// Neighbouring nodes usually share a class, so a node is compared with the
/// previous node first and its class looked up by hash only when they
/// differ.
fn schema_classes(graph: &Graph, pop: &[NodeId]) -> (Vec<Column>, Vec<Class>, Vec<(u32, u32)>) {
    let mut columns: Vec<Column> = Vec::new();
    let mut column_of: HashMap<(AttrId, bool), usize> = HashMap::new();
    let mut classes: Vec<Class> = Vec::new();
    let mut class_of: HashMap<Vec<usize>, u32> = HashMap::new();
    let mut slot: Vec<(u32, u32)> = Vec::with_capacity(pop.len());
    let mut prev: Option<(&[AttrEntry], u32)> = None;
    for (r, &v) in pop.iter().enumerate() {
        let tuple = graph.tuple(v);
        let same = |p: &[AttrEntry]| {
            let key = |e: &AttrEntry| (e.attr(), e.tag());
            p.len() == tuple.len() && p.iter().zip(tuple).all(|(a, b)| key(a) == key(b))
        };
        let class = if let Some((_, c)) = prev.filter(|&(p, _)| same(p)) {
            c
        } else {
            let sig: Vec<usize> = tuple
                .iter()
                .map(|e| {
                    let (key @ (attr, int), _) = entry(e);
                    *column_of.entry(key).or_insert_with(|| {
                        columns.push(Column {
                            attr,
                            range: int_range(graph, attr).filter(|_| int),
                        });
                        columns.len() - 1
                    })
                })
                .collect();
            *class_of.entry(sig).or_insert_with_key(|sig| {
                // Most populations are one class: the first reserves room
                // for every node left.
                let room = if classes.is_empty() { pop.len() - r } else { 0 };
                classes.push(Class {
                    cols: sig.clone(),
                    values: sig.iter().map(|_| Vec::with_capacity(room)).collect(),
                    len: 0,
                });
                (classes.len() - 1) as u32
            })
        };
        let members = &mut classes[class as usize];
        for (column, e) in members.values.iter_mut().zip(tuple) {
            column.push(entry(e).1);
        }
        slot.push((class, members.len));
        members.len += 1;
        prev = Some((tuple, class));
    }
    for column in classes.iter_mut().flat_map(|c| &mut c.values) {
        column.shrink_to_fit();
    }
    (columns, classes, slot)
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
    /// strings: 0/1; attribute present on one side only: 1). The float
    /// formula `score` is tested against; no score calls it.
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

    /// Diversity `δ(q, G)` of a match set, exact, in
    /// `O(|A|·(n log n + k·n))` for the `k` schema classes among the
    /// matches: `O(|A|·n log n)` on one class, `O(|A|·n²)` at worst, when
    /// nearly every match is a class of its own.
    ///
    /// # Panics
    ///
    /// If a match lies outside `V_uo`.
    pub fn score(&self, matches: &[NodeId]) -> f64 {
        self.score_by(matches, Summation::Sorted)
    }

    /// [`score`](Self::score) by the `O(|A|·n²)` walk over all pairs: the
    /// reference `score` is tested against, and what the generation
    /// algorithms' reference path runs. Both accumulate the same
    /// per-class-pair integers and convert them by the same expression, so
    /// they agree to the bit.
    pub fn score_pairwise(&self, matches: &[NodeId]) -> f64 {
        self.score_by(matches, Summation::Pairwise)
    }

    /// `R = Σ_{v∈matches} r(u_o, v)`, the relevance half of `δ`: `O(n)`.
    pub fn relevance_sum(&self, matches: &[NodeId]) -> f64 {
        matches.iter().map(|&v| self.relevance(v)).sum()
    }

    /// `P = Σ_{v<w} d(v, w)` over `matches`, exact, as [`score`](Self::score)
    /// sums it. It depends on neither λ nor the relevance function, so one
    /// `P` serves a match set under every configuration; `0.0` for the
    /// empty set.
    ///
    /// # Panics
    ///
    /// If a match lies outside `V_uo`.
    pub fn pair_sum(&self, matches: &[NodeId]) -> f64 {
        if matches.is_empty() {
            return 0.0;
        }
        self.profile().pair_sum(matches, Summation::Sorted)
    }

    /// `δ` of a non-empty match set from its two λ-free sums:
    /// `(1−λ)·R + (2λ/(|V_uo|−1))·P`. [`score`](Self::score) is this
    /// expression over [`relevance_sum`](Self::relevance_sum) and
    /// [`pair_sum`](Self::pair_sum), so the two agree to the bit.
    pub fn combine(&self, relevance_sum: f64, pair_sum: f64) -> f64 {
        let lambda = self.config.lambda;
        let norm = match self.population() {
            0 | 1 => 0.0,
            pop => 2.0 * lambda / (pop as f64 - 1.0),
        };
        (1.0 - lambda) * relevance_sum + norm * pair_sum
    }

    /// `δ` with the pair sum's per-column integers added up by `summation`.
    fn score_by(&self, matches: &[NodeId], summation: Summation) -> f64 {
        if matches.is_empty() {
            return 0.0;
        }
        let pair_sum = self.profile().pair_sum(matches, summation);
        self.combine(self.relevance_sum(matches), pair_sum)
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
    fn closed_form_is_bit_identical_to_pairwise_on_nested_sets() {
        // Nested match sets mimic a refinement chain (Lemma 2).
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
        let m = measure(&g, 0.7);
        let all: Vec<NodeId> = g.nodes().collect();
        for len in (1..=all.len()).rev() {
            let set = &all[..len];
            assert_eq!(
                m.score(set).to_bits(),
                m.score_pairwise(set).to_bits(),
                "len {len}"
            );
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
    }

    #[test]
    #[should_panic(expected = "NodeId(3)")]
    fn match_outside_population_panics() {
        // The director is not a movie.
        let g = graph();
        measure(&g, 0.5).score(&[NodeId(0), NodeId(2), NodeId(3)]);
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
