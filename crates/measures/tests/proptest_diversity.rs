//! Property tests of the exact max-sum diversity: on any mix of schema
//! classes it equals the pairwise reference to the bit and the float
//! formula over `distance()` to 1e-9.

use fairsqg_graph::{AttrValue, Graph, GraphBuilder, LabelId, NodeId};
use fairsqg_measures::{DiversityConfig, DiversityMeasure, DiversityProfile, Relevance};
use proptest::prelude::*;
use std::sync::Arc;

/// How one attribute's values are drawn.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// The whole `i64` line: `|x−y|` and the range overflow `i64`.
    IntWide,
    /// `-3..=3`: negatives and many duplicates.
    IntNarrow,
    /// One value on the population; the hubs' `a0`/`a1` can range it
    /// globally.
    IntConstant,
    /// Four symbols.
    Str,
}

const KINDS: [Kind; 4] = [Kind::IntWide, Kind::IntNarrow, Kind::IntConstant, Kind::Str];

/// How a schema class edits the population's attribute list.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Keep,
    DropFirst,
    DropLast,
    /// One attribute no other class has.
    Extra,
    /// `a0` as a `Str` where it is an `Int`, and the other way round.
    FlipKind,
    Empty,
}

const EDITS: [Edit; 6] = [
    Edit::Keep,
    Edit::DropFirst,
    Edit::DropLast,
    Edit::Extra,
    Edit::FlipKind,
    Edit::Empty,
];

fn draw(kind: Kind, b: &mut GraphBuilder, rng: &mut TestRng) -> AttrValue {
    match kind {
        Kind::IntWide => AttrValue::Int(rng.next_u64() as i64),
        Kind::IntNarrow => AttrValue::Int(rng.below(7) as i64 - 3),
        Kind::IntConstant => AttrValue::Int(42),
        Kind::Str => AttrValue::Str(b.schema_mut().symbol(&format!("s{}", rng.below(4)))),
    }
}

fn apply(edit: Edit, attrs: &mut Vec<(String, AttrValue)>, b: &mut GraphBuilder) {
    match edit {
        Edit::Keep => {}
        Edit::DropFirst => {
            if !attrs.is_empty() {
                attrs.remove(0);
            }
        }
        Edit::DropLast => {
            attrs.pop();
        }
        Edit::Extra => attrs.push(("extra".into(), AttrValue::Int(1))),
        Edit::FlipKind => match attrs.first_mut() {
            Some((_, v @ AttrValue::Int(_))) => *v = AttrValue::Str(b.schema_mut().symbol("odd")),
            Some((_, v)) => *v = AttrValue::Int(7),
            None => attrs.push(("a0".into(), AttrValue::Str(b.schema_mut().symbol("odd")))),
        },
        Edit::Empty => attrs.clear(),
    }
}

/// A population `p` of `pop` nodes over `kinds.len()` attributes, each
/// node in a class drawn from `classes`, plus `hub` nodes of another label
/// that give some of them in-degree and, by carrying `a0` and `a1` too,
/// make those attributes' global ranges wider than the population's.
fn population(pop: usize, kinds: &[Kind], classes: &[Edit], rng: &mut TestRng) -> (Graph, LabelId) {
    let mut b = GraphBuilder::new();
    let label = b.schema_mut().node_label("p");
    let mut nodes = Vec::new();
    for _ in 0..pop {
        let mut attrs: Vec<(String, AttrValue)> = kinds
            .iter()
            .enumerate()
            .map(|(a, &kind)| (format!("a{a}"), draw(kind, &mut b, rng)))
            .collect();
        apply(
            classes[rng.below(classes.len() as u64) as usize],
            &mut attrs,
            &mut b,
        );
        let attrs: Vec<(&str, AttrValue)> = attrs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        nodes.push(b.add_named_node("p", &attrs));
    }
    for _ in 0..3 {
        let ranged = |rng: &mut TestRng| AttrValue::Int(rng.below(1000) as i64);
        let hub = b.add_named_node("hub", &[("a0", ranged(rng)), ("a1", ranged(rng))]);
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

/// `δ` by the paper's formula in floats, from the measure's public
/// `relevance` and `distance` over every pair.
fn float_formula(m: &DiversityMeasure<'_>, lambda: f64, matches: &[NodeId]) -> f64 {
    if matches.is_empty() {
        return 0.0;
    }
    let relevance: f64 = matches.iter().map(|&v| m.relevance(v)).sum();
    let mut pairs = 0.0;
    for (i, &v) in matches.iter().enumerate() {
        for &w in &matches[i + 1..] {
            pairs += m.distance(v, w);
        }
    }
    let norm = match m.population() {
        0 | 1 => 0.0,
        pop => 2.0 * lambda / (pop as f64 - 1.0),
    };
    (1.0 - lambda) * relevance + norm * pairs
}

fn config(lambda: f64, uniform: bool) -> DiversityConfig {
    DiversityConfig {
        lambda,
        relevance: if uniform {
            Relevance::Uniform(0.3)
        } else {
            Relevance::InDegreeNormalized
        },
    }
}

/// On one population over `classes`: `score` ≡ `score_pairwise` to the
/// bit, and both within 1e-9 of the float formula.
fn check(
    pop: usize,
    n: usize,
    kinds: &[Kind],
    classes: &[Edit],
    lambda: f64,
    uniform: bool,
    seed: u64,
) -> Result<(), TestCaseError> {
    let rng = &mut TestRng::from_seed(seed);
    let (graph, label) = population(pop, kinds, classes, rng);
    let matches = match_set(&graph, label, n.min(pop), rng);
    let m = DiversityMeasure::new(&graph, label, config(lambda, uniform));
    let exact = m.score(&matches);
    prop_assert_eq!(exact.to_bits(), m.score_pairwise(&matches).to_bits());
    let float = float_formula(&m, lambda, &matches);
    prop_assert!(close(exact, float), "exact {exact} vs float {float}");
    Ok(())
}

fn arb_kinds() -> impl Strategy<Value = Vec<Kind>> {
    proptest::collection::vec((0usize..KINDS.len()).prop_map(|i| KINDS[i]), 0..=5)
}

fn arb_classes() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec((0usize..EDITS.len()).prop_map(|i| EDITS[i]), 1..=6)
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
        check(pop, n, &kinds, &[Edit::Keep], lambda, uniform, seed)?;
    }

    #[test]
    fn mixed_schema_classes_equal_pairwise_and_float_formula(
        pop in 0usize..48,
        n in 0usize..48,
        kinds in arb_kinds(),
        classes in arb_classes(),
        lambda in 0.0f64..=1.0,
        uniform in any::<bool>(),
        seed in 0u64..u64::MAX,
    ) {
        check(pop, n, &kinds, &classes, lambda, uniform, seed)?;
    }
}

/// Sizes the random cases above are too small for: match sets across the
/// old pair-sampling cap of 512, on populations across the old dense-table
/// cap of 1024, with one class and with several. Failing seeds of the
/// properties above are added here too.
#[test]
fn regression_cases() {
    use Edit::*;
    use Kind::*;
    for (pop, n, kinds, classes, seed) in [
        (0, 0, &[IntWide][..], &[Keep][..], 1),
        (1, 1, &[IntWide, Str], &[Keep], 2),
        (2, 2, &[IntWide, IntWide], &[Keep], 3),
        (600, 513, &[IntNarrow, Str, IntWide], &[Keep], 4),
        (
            1100,
            700,
            &[IntWide, IntNarrow, IntConstant, Str, IntNarrow],
            &[Keep],
            5,
        ),
        (1100, 512, &[], &[Keep], 6),
        (1030, 640, &[Str], &[Keep], 7),
        (
            1100,
            900,
            &[IntWide, IntNarrow, IntConstant, Str],
            &[Keep, DropLast, FlipKind],
            8,
        ),
        (
            1100,
            600,
            &[IntConstant, Str, IntNarrow],
            &[Keep, DropFirst, Extra, FlipKind, Empty, DropLast],
            9,
        ),
        (900, 520, &[Str], &[Keep, Empty, Extra], 10),
    ] {
        check(pop, n, kinds, classes, 0.5, false, seed).unwrap_or_else(|e| {
            panic!("pop {pop}, n {n}, {kinds:?}, {classes:?}, seed {seed}: {e}")
        });
    }
}

#[test]
fn mixed_schemas_score_exactly() {
    // Three classes: with a year, without one, and with a year that is a
    // string.
    let mut b = GraphBuilder::new();
    for i in 0..60 {
        b.add_named_node("movie", &[("year", AttrValue::Int(1960 + i))]);
    }
    b.add_named_node("movie", &[]);
    let odd = b.schema_mut().symbol("sixties");
    b.add_named_node("movie", &[("year", AttrValue::Str(odd))]);
    let g = b.finish();
    let movie = g.schema().find_node_label("movie").unwrap();
    let m = DiversityMeasure::new(&g, movie, config(1.0, false));
    let all: Vec<NodeId> = g.nodes().collect();
    let exact = m.score(&all);
    assert_eq!(exact.to_bits(), m.score_pairwise(&all).to_bits());
    assert!(close(exact, float_formula(&m, 1.0, &all)));
}

#[test]
fn profile_size_follows_the_tuples_not_the_columns() {
    // Every node carries three attributes no other node has: 6 000 columns
    // and 2 000 classes, where one dense column per attribute would take
    // 6 000·2 000·8 bytes. A class and a column per node cost a few words
    // each: under 100 bytes per tuple entry.
    let pop = 2000;
    let mut b = GraphBuilder::new();
    for i in 0..pop {
        let names: Vec<String> = (0..3).map(|a| format!("a{}", 3 * i + a)).collect();
        let attrs: Vec<(&str, AttrValue)> = names
            .iter()
            .map(|n| (n.as_str(), AttrValue::Int(i as i64)))
            .collect();
        b.add_named_node("p", &attrs);
    }
    let g = b.finish();
    let p = g.schema().find_node_label("p").unwrap();
    let profile = DiversityProfile::new(&g, p);
    let bytes = profile.approx_bytes();
    assert!(bytes < 100 * 3 * pop, "{bytes} bytes");
    // No two nodes share an attribute, so every pair is at distance 1.
    let m = DiversityMeasure::new(&g, p, config(1.0, false)).with_profile(Arc::new(profile));
    let some: Vec<NodeId> = g.nodes().take(300).collect();
    let exact = m.score(&some);
    assert_eq!(exact.to_bits(), m.score_pairwise(&some).to_bits());
    assert!(close(exact, 300.0 * 299.0 / (pop - 1) as f64));
}

/// A fixed single-class population of `pop` movies: a ranged year, a
/// genre, a vote count over the whole `i64` line, and a `flag` that is
/// constant here but ranged by the critics who point at some movies.
fn fixed_population(pop: i64) -> (Graph, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let genres: Vec<AttrValue> = (0..5)
        .map(|g| AttrValue::Str(b.schema_mut().symbol(&format!("g{g}"))))
        .collect();
    let movies: Vec<NodeId> = (0..pop)
        .map(|i| {
            let votes = i.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64);
            b.add_named_node(
                "movie",
                &[
                    ("year", AttrValue::Int(1900 + i * 37 % 101)),
                    ("genre", genres[(i * 7 % 5) as usize]),
                    ("votes", AttrValue::Int(votes)),
                    ("flag", AttrValue::Int(1)),
                ],
            )
        })
        .collect();
    for c in 0..4 {
        let critic = b.add_named_node("critic", &[("flag", AttrValue::Int(c))]);
        for &m in movies.iter().skip(c as usize).step_by(3 + c as usize) {
            b.add_named_edge(critic, m, "reviews");
        }
    }
    (b.finish(), movies)
}

/// The single-class expression may not drift: these bits were scored by
/// the per-attribute closed form before schema classes replaced it.
#[test]
fn single_class_scores_keep_their_bits() {
    for (pop, lambda, step, take, want) in [
        (300, 0.5, 3, 300, 0x403e_8471_c817_57b9_u64),
        (1100, 0.8, 1, 700, 0x4064_8dc8_0aa7_9c17),
    ] {
        let (g, movies) = fixed_population(pop);
        let label = g.schema().find_node_label("movie").unwrap();
        let m = DiversityMeasure::new(&g, label, config(lambda, false));
        let set: Vec<NodeId> = movies.into_iter().step_by(step).take(take).collect();
        let got = m.score(&set).to_bits();
        assert_eq!(got, want, "pop {pop}: {}", f64::from_bits(got));
    }
}
