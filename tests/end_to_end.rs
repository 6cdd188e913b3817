//! End-to-end integration tests: full pipelines over all three synthetic
//! datasets, cross-algorithm agreement, and determinism.

use fairsqg::datagen::{workload, CoverageMode, DatasetKind, WorkloadParams};
use fairsqg::prelude::*;

fn small_workload(kind: DatasetKind) -> fairsqg::datagen::Workload {
    let params = WorkloadParams {
        max_values_per_range_var: 6,
        coverage: CoverageMode::AutoFraction(0.5),
        ..WorkloadParams::default()
    };
    workload(kind, 400, &params)
}

fn cfg(w: &fairsqg::datagen::Workload, eps: f64) -> Configuration<'_> {
    Configuration::new(
        &w.graph,
        &w.template,
        &w.domains,
        &w.groups,
        &w.spec,
        eps,
        DiversityConfig::default(),
    )
}

#[test]
fn all_datasets_produce_nonempty_valid_sets() {
    for kind in [DatasetKind::Dbp, DatasetKind::Lki, DatasetKind::Cite] {
        let w = small_workload(kind);
        let c = cfg(&w, 0.1);
        for (name, out) in [
            ("enum", enum_qgen(c, false)),
            ("kungs", kungs(c)),
            ("rf", rfqgen(c, RfQGenOptions::default())),
            ("bi", biqgen(c, BiQGenOptions::default())),
        ] {
            assert!(
                !out.entries.is_empty(),
                "{}/{name}: empty result set",
                w.name
            );
            for e in &out.entries {
                assert!(e.result.feasible, "{}/{name}: infeasible member", w.name);
                assert!(
                    is_feasible(&e.result.counts, &w.spec),
                    "{}/{name}: member violates coverage",
                    w.name
                );
            }
        }
    }
}

#[test]
fn approximate_algorithms_cover_the_exact_front() {
    // Every exact-Pareto point must be (shifted-)ε-dominated by each
    // approximate algorithm's output — the defining property of an
    // ε-Pareto set, checked against the strongest possible universe.
    for kind in [DatasetKind::Dbp, DatasetKind::Lki, DatasetKind::Cite] {
        let w = small_workload(kind);
        let eps = 0.25;
        let c = cfg(&w, eps);
        let front = kungs(c);
        let front_objs = front.objectives();
        for (name, out) in [
            ("enum", enum_qgen(c, false)),
            ("rf", rfqgen(c, RfQGenOptions::default())),
            ("bi", biqgen(c, BiQGenOptions::default())),
        ] {
            let factor = 1.0 + eps;
            for fo in &front_objs {
                let covered = out.entries.iter().any(|e| {
                    let o = e.objectives();
                    factor * (1.0 + o.delta) >= 1.0 + fo.delta
                        && factor * (1.0 + o.fcov) >= 1.0 + fo.fcov
                });
                assert!(
                    covered,
                    "{}/{name}: exact front point {fo:?} not ε-covered",
                    w.name
                );
            }
        }
    }
}

#[test]
fn generation_is_deterministic() {
    let w = small_workload(DatasetKind::Lki);
    let c = cfg(&w, 0.1);
    let key = |g: &Generated| -> Vec<(Vec<u16>, u64, u64)> {
        let mut v: Vec<_> = g
            .entries
            .iter()
            .map(|e| {
                (
                    e.inst.indices().to_vec(),
                    e.objectives().delta.to_bits(),
                    e.objectives().fcov.to_bits(),
                )
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(
        key(&rfqgen(c, RfQGenOptions::default())),
        key(&rfqgen(c, RfQGenOptions::default()))
    );
    assert_eq!(
        key(&biqgen(c, BiQGenOptions::default())),
        key(&biqgen(c, BiQGenOptions::default()))
    );
}

#[test]
fn facade_matches_direct_invocation() {
    let w = small_workload(DatasetKind::Dbp);
    let fair = FairSqg::new(&w.graph)
        .epsilon(0.1)
        .domain_config(DomainConfig {
            max_values_per_range_var: 6,
        });
    let via_facade = fair.generate(&w.template, &w.groups, &w.spec, Algorithm::BiQGen);
    // The facade rebuilds domains from the same graph/template/config, so
    // results must agree with the direct call.
    let direct = biqgen(cfg(&w, 0.1), BiQGenOptions::default());
    let objs = |g: &Generated| {
        let mut v: Vec<(u64, u64)> = g
            .entries
            .iter()
            .map(|e| {
                (
                    e.objectives().delta.to_bits(),
                    e.objectives().fcov.to_bits(),
                )
            })
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(objs(&via_facade), objs(&direct));
}

#[test]
fn size_bound_of_theorem_2() {
    for kind in [DatasetKind::Dbp, DatasetKind::Cite] {
        let w = small_workload(kind);
        for &eps in &[0.1f64, 0.3, 0.6] {
            let c = cfg(&w, eps);
            let out = enum_qgen(c, false);
            let delta_max = w.graph.label_population(w.template.output_label()) as f64;
            let f_max = w.spec.total() as f64;
            let bound_delta = ((1.0 + delta_max).ln() / (1.0 + eps).ln()).ceil() as usize + 1;
            let bound_f = ((1.0 + f_max).ln() / (1.0 + eps).ln()).ceil() as usize + 1;
            let bound = bound_delta.min(bound_f);
            assert!(
                out.entries.len() <= bound,
                "{}: |set| = {} exceeds Theorem 2 bound {} at eps {eps}",
                w.name,
                out.entries.len(),
                bound
            );
        }
    }
}

#[test]
fn online_generation_end_to_end() {
    let w = small_workload(DatasetKind::Cite);
    let c = cfg(&w, 0.1);
    let stream = ShuffledStream::new(&w.domains, 77);
    let (out, trace) = online_qgen(
        c,
        OnlineOptions {
            k: 5,
            window: 10,
            initial_eps: 0.02,
        },
        stream,
    );
    assert!(out.entries.len() <= 5);
    assert!(!trace.is_empty());
    assert_eq!(trace.last().unwrap().t, w.domains.instance_space_size());
    // ε never shrinks along the trace.
    for win in trace.windows(2) {
        assert!(win[1].eps >= win[0].eps);
    }
}

#[test]
fn facade_runs_every_algorithm_variant() {
    let w = small_workload(DatasetKind::Cite);
    let fair = FairSqg::new(&w.graph)
        .epsilon(0.2)
        .domain_config(DomainConfig {
            max_values_per_range_var: 6,
        });
    for algo in [
        Algorithm::EnumQGen,
        Algorithm::Kungs,
        Algorithm::Cbm,
        Algorithm::RfQGen,
        Algorithm::BiQGen,
    ] {
        let out = fair.generate(&w.template, &w.groups, &w.spec, algo);
        assert!(!out.entries.is_empty(), "{algo:?} returned nothing");
    }
}
