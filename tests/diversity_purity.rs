//! `δ` is a pure function of the match set: whichever algorithm verified
//! an instance, on whichever path, with or without a shared profile, its
//! archive entry carries exactly the bits a bare `DiversityMeasure` scores
//! for the entry's matches. `perf/` replays every run against such a bare
//! measure, so this is the property its output checks rest on. Sized past
//! the old pair-sampling cap (match sets of several hundred of
//! `|V_uo|` = 1100), on a graph whose directors share one schema and on
//! one where every 7th director lacks `major`, loaded from TSV and from
//! `.fsg` as a real knowledge graph would be.

use fairsqg::algo::{
    biqgen, enum_qgen, par_enum_qgen, rfqgen, BiQGenOptions, Configuration, Generated,
    RfQGenOptions,
};
use fairsqg::datagen::{social_graph, SocialConfig};
use fairsqg::graph::{read_tsv, write_tsv, AttrValue, CoverageSpec, Graph, GroupSet, NodeId};
use fairsqg::measures::{DiversityConfig, DiversityMeasure, DiversityProfile};
use fairsqg::query::{parse_template, DomainConfig, RefinementDomains};
use fairsqg::store::{convert_tsv_path, open_path};
use std::collections::HashSet;
use std::sync::Arc;

type Algo = (&'static str, fn(Configuration<'_>) -> Generated);

const ALGOS: [Algo; 5] = [
    ("enum", |c| enum_qgen(c, false)),
    ("par-1", |c| par_enum_qgen(c, 1)),
    ("par-2", |c| par_enum_qgen(c, 2)),
    ("rf", |c| rfqgen(c, RfQGenOptions::default())),
    ("bi", |c| biqgen(c, BiQGenOptions::default())),
];

fn directors() -> Graph {
    social_graph(SocialConfig {
        directors: 1100,
        majority_share: 0.6,
        seed: 5,
    })
}

/// Runs every algorithm on every path over `graph` and holds each archive
/// entry's `δ` to a bare measure's score; the largest match set of each
/// run is also held to `score_pairwise` to the bit and to the float
/// formula over `distance()` to 1e-9.
fn check_archives(graph: &Graph, tag: &str) {
    let template = parse_template(
        graph.schema(),
        "node u0 : director\nnode u1 : user\nedge u1 -recommend-> u0\n\
         where u1.yearsOfExp >= ?\noutput u0\n",
    )
    .unwrap();
    let gender = graph.schema().find_attr("gender").unwrap();
    let groups = GroupSet::by_attribute(graph, gender, &[AttrValue::Int(0), AttrValue::Int(1)]);
    let spec = CoverageSpec::equal_opportunity(groups.len(), 5);
    let domains = RefinementDomains::build(&template, graph, DomainConfig::default());
    let label = template.output_label();
    assert_eq!(graph.nodes_with_label(label).len(), 1100);
    let diversity = DiversityConfig::default();
    let bare = DiversityMeasure::new(graph, label, diversity);
    let shared = Arc::new(DiversityProfile::new(graph, label));
    let cfg = Configuration::new(graph, &template, &domains, &groups, &spec, 0.05, diversity);
    let mut held_to_formula: HashSet<Vec<NodeId>> = HashSet::new();

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
            for e in &out.entries {
                assert_eq!(
                    e.objectives().delta.to_bits(),
                    bare.score(&e.result.matches).to_bits(),
                    "{tag} {name}/{path}: δ of {:?} ({} matches)",
                    e.inst.indices(),
                    e.result.matches.len()
                );
            }
            let largest = out
                .entries
                .iter()
                .max_by_key(|e| e.result.matches.len())
                .unwrap_or_else(|| panic!("{tag} {name}/{path}: empty archive"));
            let matches = &largest.result.matches;
            if held_to_formula.insert(matches.clone()) {
                let delta = largest.objectives().delta;
                assert_eq!(
                    delta.to_bits(),
                    bare.score_pairwise(matches).to_bits(),
                    "{tag} {name}/{path}: δ vs score_pairwise"
                );
                let float = float_formula(&bare, diversity.lambda, matches);
                assert!(
                    (delta - float).abs() <= 1e-9 * float.max(1.0),
                    "{tag} {name}/{path}: δ {delta} vs float formula {float}"
                );
            }
        }
    }
}

/// `δ` by the paper's formula in floats over every pair.
fn float_formula(m: &DiversityMeasure<'_>, lambda: f64, matches: &[NodeId]) -> f64 {
    let relevance: f64 = matches.iter().map(|&v| m.relevance(v)).sum();
    let mut pairs = 0.0;
    for (i, &v) in matches.iter().enumerate() {
        for &w in &matches[i + 1..] {
            pairs += m.distance(v, w);
        }
    }
    (1.0 - lambda) * relevance + 2.0 * lambda / (m.population() as f64 - 1.0) * pairs
}

#[test]
fn every_archive_entry_carries_the_bare_measure_score() {
    check_archives(&directors(), "uniform");
}

#[test]
fn mixed_schema_archives_carry_the_exact_score() {
    let mut text = Vec::new();
    write_tsv(&directors(), &mut text).unwrap();
    let mut seen = 0;
    let lines: Vec<String> = String::from_utf8(text)
        .unwrap()
        .lines()
        .map(|line| {
            if line.split('\t').nth(1) != Some("director") {
                return line.to_string();
            }
            seen += 1;
            if seen % 7 != 0 {
                return line.to_string();
            }
            let kept: Vec<&str> = line
                .split('\t')
                .filter(|field| !field.starts_with("major="))
                .collect();
            kept.join("\t")
        })
        .collect();
    let tsv = lines.join("\n") + "\n";

    let parsed = read_tsv(tsv.as_bytes()).unwrap();
    let director = parsed.schema().find_node_label("director").unwrap();
    let major = parsed.schema().find_attr("major").unwrap();
    let without = parsed
        .nodes_with_label(director)
        .iter()
        .filter(|&&v| parsed.attr(v, major).is_none())
        .count();
    assert_eq!(without, 1100 / 7);
    check_archives(&parsed, "tsv");

    let dir = std::env::temp_dir().join(format!("fairsqg-mixed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (src, dst) = (dir.join("mixed.tsv"), dir.join("mixed.fsg"));
    std::fs::write(&src, &tsv).unwrap();
    convert_tsv_path(&src, &dst).unwrap();
    let loaded = open_path(&dst).unwrap();
    check_archives(&loaded.graph, "fsg");
    std::fs::remove_dir_all(&dir).ok();
}
