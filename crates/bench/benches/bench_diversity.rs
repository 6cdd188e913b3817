//! Microbenchmarks of the max-sum diversity score against the number of
//! schema classes among the matches: one class (every generator's
//! graphs), a sparse knowledge graph's optional attributes at two
//! densities, and the worst case of a class per match. `score` is
//! `O(|A|·(n log n + k·n))` for `k` classes; `score_pairwise` is the
//! `O(|A|·n²)` walk it is bit-equal to.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fairsqg_graph::{AttrValue, Graph, GraphBuilder, NodeId};
use fairsqg_measures::{DiversityConfig, DiversityMeasure, DiversityProfile};
use std::collections::HashSet;

const POP: u64 = 2000;

/// A deterministic hash of `(node, attribute)`.
fn mix(v: u64, a: u64) -> u64 {
    let mut x = v.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ a.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 31;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 29)
}

/// `POP` nodes labelled `p`. Node `v` carries attribute `a{a}` of
/// `attrs(v)` with an integer value in `0..100`.
fn population(attrs: impl Fn(u64) -> Vec<u64>) -> Graph {
    let mut b = GraphBuilder::new();
    for v in 0..POP {
        let names: Vec<(String, AttrValue)> = attrs(v)
            .into_iter()
            .map(|a| (format!("a{a}"), AttrValue::Int((mix(v, a) % 100) as i64)))
            .collect();
        let tuple: Vec<(&str, AttrValue)> = names.iter().map(|(n, x)| (n.as_str(), *x)).collect();
        b.add_named_node("p", &tuple);
    }
    b.finish()
}

/// A population shape: its name and the attribute ids of node `v`.
type Shape = (&'static str, fn(u64) -> Vec<u64>);

fn bench_classes(c: &mut Criterion) {
    let shapes: [Shape; 4] = [
        ("one_class", |_| (0..6).collect()),
        // Six attributes, each missing on one node in 16.
        ("sparse_1_16", |v| {
            (0..6).filter(|&a| !mix(v, a).is_multiple_of(16)).collect()
        }),
        // Ten attributes, each present on half the nodes.
        ("sparse_1_2", |v| {
            (0..10).filter(|&a| mix(v, a).is_multiple_of(2)).collect()
        }),
        // Three attributes no other node carries.
        ("class_per_node", |v| (3 * v..3 * v + 3).collect()),
    ];
    let mut group = c.benchmark_group("diversity_by_classes");
    group.sample_size(50);
    for (name, attrs) in shapes {
        let g = population(attrs);
        let p = g.schema().find_node_label("p").unwrap();
        let matches: Vec<NodeId> = g.nodes().step_by(2).collect();
        let classes: HashSet<Vec<_>> = matches
            .iter()
            .map(|&v| g.tuple(v).iter().map(|e| e.attr()).collect())
            .collect();
        let id = format!("{name}/k={}", classes.len());
        let m = DiversityMeasure::new(&g, p, DiversityConfig::default());
        assert_eq!(
            m.score(&matches).to_bits(),
            m.score_pairwise(&matches).to_bits()
        );
        group.bench_function(BenchmarkId::new("profile", &id), |b| {
            b.iter(|| DiversityProfile::new(&g, p))
        });
        group.bench_function(BenchmarkId::new("score", &id), |b| {
            b.iter(|| m.score(&matches))
        });
        group.bench_function(BenchmarkId::new("score_pairwise", &id), |b| {
            b.iter(|| m.score_pairwise(&matches))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_classes);
criterion_main!(benches);
