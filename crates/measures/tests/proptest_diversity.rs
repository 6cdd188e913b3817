//! Property tests of the closed-form max-sum diversity: it equals the
//! pairwise reference to the bit and the float formula to 1e-9 on
//! decomposable populations, and everything outside that case — mixed
//! schemas, max-min — still scores by the float loop it always did.

use fairsqg_graph::{AttrValue, Graph, GraphBuilder, LabelId, NodeId};
use fairsqg_measures::{
    sample_pairs, DiversityConfig, DiversityMeasure, DiversityObjective, Relevance,
};
use proptest::prelude::*;
use rand_pcg::Pcg64Mcg;

/// How one attribute's values are drawn.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// The whole `i64` line: `|x−y|` and the range overflow `i64`.
    IntWide,
    /// `-3..=3`: negatives and many duplicates.
    IntNarrow,
    /// One value everywhere: a degenerate range, compared by equality.
    IntConstant,
    /// Four symbols.
    Str,
}

const KINDS: [Kind; 4] = [Kind::IntWide, Kind::IntNarrow, Kind::IntConstant, Kind::Str];

fn draw(kind: Kind, b: &mut GraphBuilder, rng: &mut TestRng) -> AttrValue {
    match kind {
        Kind::IntWide => AttrValue::Int(rng.next_u64() as i64),
        Kind::IntNarrow => AttrValue::Int(rng.below(7) as i64 - 3),
        Kind::IntConstant => AttrValue::Int(42),
        Kind::Str => AttrValue::Str(b.schema_mut().symbol(&format!("s{}", rng.below(4)))),
    }
}

/// A population `p` of `pop` nodes over `kinds.len()` attributes, plus
/// `hub` nodes of another label that give some of them in-degree and, by
/// carrying `a0` too, make the global range wider than the population's.
/// `spoil` edits the attribute list of node `pop / 2`.
fn population(
    pop: usize,
    kinds: &[Kind],
    spoil: impl Fn(&mut Vec<(String, AttrValue)>, &mut GraphBuilder),
    rng: &mut TestRng,
) -> (Graph, LabelId) {
    let mut b = GraphBuilder::new();
    let label = b.schema_mut().node_label("p");
    let mut nodes = Vec::new();
    for i in 0..pop {
        let mut attrs: Vec<(String, AttrValue)> = kinds
            .iter()
            .enumerate()
            .map(|(a, &kind)| (format!("a{a}"), draw(kind, &mut b, rng)))
            .collect();
        if i == pop / 2 {
            spoil(&mut attrs, &mut b);
        }
        let attrs: Vec<(&str, AttrValue)> = attrs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        nodes.push(b.add_named_node("p", &attrs));
    }
    for _ in 0..3 {
        let hub = b.add_named_node("hub", &[("a0", AttrValue::Int(rng.below(1000) as i64))]);
        for &v in &nodes {
            if rng.below(3) == 0 {
                b.add_named_edge(hub, v, "points");
            }
        }
    }
    (b.finish(), label)
}

/// `n` distinct nodes of the population, in random order.
fn match_set(graph: &Graph, label: LabelId, n: usize, rng: &mut TestRng) -> Vec<NodeId> {
    let mut nodes = graph.nodes_with_label(label).to_vec();
    for i in 0..n {
        let j = i + rng.below((nodes.len() - i) as u64) as usize;
        nodes.swap(i, j);
    }
    nodes.truncate(n);
    nodes
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// The float loop every score ran before the closed form, from the
/// measure's public `relevance` and `distance`: all pairs in index order,
/// or above `pair_cap` the seeded sample's mean scaled to the pair count.
fn float_loop_score(m: &DiversityMeasure<'_>, config: &DiversityConfig, matches: &[NodeId]) -> f64 {
    if matches.is_empty() {
        return 0.0;
    }
    let n = matches.len();
    let relevance: f64 = matches.iter().map(|&v| m.relevance(v)).sum();
    let d = |&(i, j): &(usize, usize)| m.distance(matches[i], matches[j]);
    let sampled = config.pair_cap > 0 && n > config.pair_cap;
    let pairs = if sampled {
        let mut rng = Pcg64Mcg::new(config.seed as u128 | 1);
        sample_pairs(n, config.pair_cap * config.pair_cap / 2, &mut rng)
    } else {
        (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect()
    };
    let pair_term = match config.objective {
        DiversityObjective::MaxSum => {
            let mut sum = 0.0;
            for p in &pairs {
                sum += d(p);
            }
            if sampled {
                sum = sum / pairs.len() as f64 * (n * (n - 1) / 2) as f64;
            }
            match m.population() {
                0 | 1 => 0.0,
                pop => 2.0 * config.lambda / (pop as f64 - 1.0) * sum,
            }
        }
        DiversityObjective::MaxMin => {
            let min = pairs.iter().map(d).fold(f64::INFINITY, f64::min);
            config.lambda * n as f64 * if min.is_finite() { min } else { 0.0 }
        }
    };
    (1.0 - config.lambda) * relevance + pair_term
}

fn config(lambda: f64, uniform: bool, pair_cap: usize) -> DiversityConfig {
    DiversityConfig {
        lambda,
        relevance: if uniform {
            Relevance::Uniform(0.3)
        } else {
            Relevance::InDegreeNormalized
        },
        pair_cap,
        ..DiversityConfig::default()
    }
}

/// (a) + (b) on one decomposable population: `score` ≡ `score_pairwise`
/// to the bit, under a `pair_cap` the set exceeds, and both within 1e-9
/// of the float formula over every pair.
fn check_decomposable(
    pop: usize,
    n: usize,
    kinds: &[Kind],
    lambda: f64,
    uniform: bool,
    seed: u64,
) -> Result<(), TestCaseError> {
    let rng = &mut TestRng::from_seed(seed);
    let (graph, label) = population(pop, kinds, |_, _| {}, rng);
    let matches = match_set(&graph, label, n.min(pop), rng);
    let capped = DiversityMeasure::new(&graph, label, config(lambda, uniform, 4));
    let exact = config(lambda, uniform, 0);
    let uncapped = DiversityMeasure::new(&graph, label, exact);
    let closed = capped.score(&matches);
    prop_assert_eq!(closed.to_bits(), capped.score_pairwise(&matches).to_bits());
    prop_assert_eq!(closed.to_bits(), uncapped.score(&matches).to_bits());
    let float = float_loop_score(&uncapped, &exact, &matches);
    prop_assert!(
        close(closed, float),
        "closed form {closed} vs float {float}"
    );
    Ok(())
}

/// (c) + (d): `spoil` makes the population non-decomposable, or the
/// objective is max-min; either way `score` and `score_pairwise` are the
/// float loop, bit for bit, sampled above `pair_cap`.
fn check_float_paths(
    pop: usize,
    kinds: &[Kind],
    spoil: impl Fn(&mut Vec<(String, AttrValue)>, &mut GraphBuilder),
    objective: DiversityObjective,
    seed: u64,
) -> Result<(), TestCaseError> {
    let rng = &mut TestRng::from_seed(seed);
    let (graph, label) = population(pop, kinds, spoil, rng);
    // Below the cap, above it where the sample is every pair anyway, and
    // above it where it is a strict subset.
    for n in [pop.min(5), pop.min(10), pop] {
        let matches = match_set(&graph, label, n, rng);
        let cfg = DiversityConfig {
            objective,
            ..config(0.6, false, 8)
        };
        let m = DiversityMeasure::new(&graph, label, cfg);
        let want = float_loop_score(&m, &cfg, &matches).to_bits();
        prop_assert_eq!(m.score(&matches).to_bits(), want, "score, n = {}", n);
        prop_assert_eq!(
            m.score_pairwise(&matches).to_bits(),
            want,
            "pairwise, n = {}",
            n
        );
    }
    Ok(())
}

fn arb_kinds() -> impl Strategy<Value = Vec<Kind>> {
    proptest::collection::vec((0usize..KINDS.len()).prop_map(|i| KINDS[i]), 0..=5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn closed_form_equals_pairwise_and_float_formula(
        pop in 0usize..48,
        n in 0usize..48,
        kinds in arb_kinds(),
        lambda in 0.0f64..=1.0,
        uniform in any::<bool>(),
        seed in 0u64..u64::MAX,
    ) {
        check_decomposable(pop, n, &kinds, lambda, uniform, seed)?;
    }

    #[test]
    fn mixed_schemas_and_max_min_keep_the_float_loop(
        pop in 2usize..40,
        kinds in arb_kinds(),
        seed in 0u64..u64::MAX,
    ) {
        // A node with one attribute missing (or, with no attributes to
        // drop, one extra).
        check_float_paths(pop, &kinds, |attrs, _| {
            if attrs.pop().is_none() {
                attrs.push(("extra".into(), AttrValue::Int(1)));
            }
        }, DiversityObjective::MaxSum, seed)?;
        // A column mixing `Int` and `Str`.
        if !kinds.is_empty() {
            check_float_paths(pop, &kinds, |attrs, b| {
                attrs[0].1 = match attrs[0].1 {
                    AttrValue::Int(_) => AttrValue::Str(b.schema_mut().symbol("odd")),
                    AttrValue::Str(_) => AttrValue::Int(7),
                };
            }, DiversityObjective::MaxSum, seed)?;
        }
        check_float_paths(pop, &kinds, |_, _| {}, DiversityObjective::MaxMin, seed)?;
    }
}

/// Sizes the random cases above are too small for: match sets across the
/// old `pair_cap` of 512, on populations across the old dense-table cap
/// of 1024. Failing seeds of the properties above are added here too.
#[test]
fn regression_cases() {
    use Kind::*;
    for (pop, n, kinds, seed) in [
        (0, 0, &[IntWide][..], 1),
        (1, 1, &[IntWide, Str], 2),
        (2, 2, &[IntWide, IntWide], 3),
        (600, 513, &[IntNarrow, Str, IntWide], 4),
        (
            1100,
            700,
            &[IntWide, IntNarrow, IntConstant, Str, IntNarrow],
            5,
        ),
        (1100, 512, &[], 6),
        (1030, 640, &[Str], 7),
    ] {
        check_decomposable(pop, n, kinds, 0.5, false, seed)
            .unwrap_or_else(|e| panic!("pop {pop}, n {n}, {kinds:?}, seed {seed}: {e}"));
    }
}
