//! `δ` is a pure function of the match set: whichever algorithm verified
//! an instance, on whichever path, with or without a shared profile, its
//! archive entry carries exactly the bits a bare `DiversityMeasure` scores
//! for the entry's matches. `perf/` replays every run against such a bare
//! measure, so this is the property its output checks rest on. Sized past
//! the pair-sampling cap (match sets above 512 of `|V_uo|` = 1100), where
//! the score used to be a seeded pair-sample estimate.

use fairsqg::algo::{
    biqgen, enum_qgen, par_enum_qgen_exact, rfqgen, BiQGenOptions, Configuration, Generated,
    RfQGenOptions,
};
use fairsqg::datagen::{social_graph, SocialConfig};
use fairsqg::graph::{AttrValue, CoverageSpec, GroupSet};
use fairsqg::measures::{DiversityConfig, DiversityMeasure, DiversityProfile};
use fairsqg::query::{parse_template, DomainConfig, RefinementDomains};
use std::sync::Arc;

type Algo = (&'static str, fn(Configuration<'_>) -> Generated);

const ALGOS: [Algo; 5] = [
    ("enum", |c| enum_qgen(c, false)),
    ("par-1", |c| par_enum_qgen_exact(c, 1)),
    ("par-2", |c| par_enum_qgen_exact(c, 2)),
    ("rf", |c| rfqgen(c, RfQGenOptions::default())),
    ("bi", |c| biqgen(c, BiQGenOptions::default())),
];

#[test]
fn every_archive_entry_carries_the_bare_measure_score() {
    let graph = social_graph(SocialConfig {
        directors: 1100,
        majority_share: 0.6,
        seed: 5,
    });
    let template = parse_template(
        graph.schema(),
        "node u0 : director\nnode u1 : user\nedge u1 -recommend-> u0\n\
         where u1.yearsOfExp >= ?\noutput u0\n",
    )
    .unwrap();
    let gender = graph.schema().find_attr("gender").unwrap();
    let groups = GroupSet::by_attribute(&graph, gender, &[AttrValue::Int(0), AttrValue::Int(1)]);
    let spec = CoverageSpec::equal_opportunity(groups.len(), 5);
    let domains = RefinementDomains::build(&template, &graph, DomainConfig::default());
    let label = template.output_label();
    assert_eq!(graph.nodes_with_label(label).len(), 1100);
    let diversity = DiversityConfig::default();
    let bare = DiversityMeasure::new(&graph, label, diversity);
    let shared = Arc::new(DiversityProfile::new(&graph, label));
    let cfg = Configuration::new(&graph, &template, &domains, &groups, &spec, 0.05, diversity);

    for (name, run) in ALGOS {
        for (path, cfg) in [
            ("default", cfg),
            ("shared profile", cfg.with_shared_diversity(&shared)),
            ("reference", cfg.with_reference_path()),
            (
                "reference, shared profile",
                cfg.with_reference_path().with_shared_diversity(&shared),
            ),
        ] {
            let out = run(cfg);
            let largest = out.entries.iter().map(|e| e.result.matches.len()).max();
            assert!(
                largest > Some(diversity.pair_cap),
                "{name}/{path}: no match set above pair_cap (largest {largest:?})"
            );
            for e in &out.entries {
                assert_eq!(
                    e.objectives().delta.to_bits(),
                    bare.score(&e.result.matches).to_bits(),
                    "{name}/{path}: δ of {:?} ({} matches)",
                    e.inst.indices(),
                    e.result.matches.len()
                );
            }
        }
    }
}
