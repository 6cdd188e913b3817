//! Exp-4: case study — movie search with an equal-coverage constraint over
//! genres (Fig. 12).
//!
//! A hand-crafted template searches for well-rated movies with awarded
//! actors, with parameterized rating/awards thresholds and an optional
//! production-country edge. Enforcing equal coverage over the "Romance"
//! and "Horror" genre groups, `BiQGen` surfaces instances with balanced
//! results while `RfQGen` surfaces more diversified but more skewed ones.

use crate::common::{exp_diversity, run, Algo};
use crate::render::{render_instance, render_template};
use crate::scales::ExpScale;
use fairsqg_algo::ArchiveEntry;
use fairsqg_datagen::{movies_graph, MoviesConfig};
use fairsqg_graph::{AttrValue, CmpOp, CoverageSpec, GroupSet};
use fairsqg_matcher::{match_output_set, MatchOptions};
use fairsqg_measures::coverage_score;
use fairsqg_query::{
    ConcreteQuery, DomainConfig, Instantiation, RefinementDomains, TemplateBuilder,
};

/// Runs the case study and narrates the outcome.
pub fn case_study(scale: &ExpScale) -> String {
    let graph = movies_graph(MoviesConfig {
        movies: scale.dbp,
        ..MoviesConfig::default()
    });
    let s = graph.schema();

    // Template q10: movie u0 (rating >= x1) <-actedIn- actor u1
    // (awards >= x2), with an optional producedIn edge to a country u2
    // pinned to the US (constant literal), mirroring the paper's
    // "high-rating, award-winning US movies with US actors".
    let mut tb = TemplateBuilder::new();
    let u0 = tb.node(s.find_node_label("movie").unwrap());
    let u1 = tb.node(s.find_node_label("actor").unwrap());
    let u2 = tb.node(s.find_node_label("country").unwrap());
    tb.edge(u1, u0, s.find_edge_label("actedIn").unwrap());
    tb.optional_edge(u0, u2, s.find_edge_label("producedIn").unwrap());
    tb.literal(
        u2,
        s.find_attr("name").unwrap(),
        CmpOp::Eq,
        AttrValue::Str(s.find_symbol("US").unwrap()),
    );
    tb.range_literal(u0, s.find_attr("rating").unwrap(), CmpOp::Ge);
    tb.range_literal(u1, s.find_attr("awards").unwrap(), CmpOp::Ge);
    let template = tb.finish(u0).expect("case-study template");
    let domains = RefinementDomains::build(
        &template,
        &graph,
        DomainConfig {
            max_values_per_range_var: 10,
        },
    );

    // Groups: Romance vs Horror movies; the initial (root) query is skewed.
    let genre = s.find_attr("genre").unwrap();
    let romance = AttrValue::Str(s.find_symbol("Romance").unwrap());
    let horror = AttrValue::Str(s.find_symbol("Horror").unwrap());
    let groups = GroupSet::by_attribute(&graph, genre, &[romance, horror]);

    // Coverage: equal opportunity at 60% of the smaller group's presence in
    // the root answer (so the search space contains feasible instances).
    let root = Instantiation::root(&domains);
    let root_q = ConcreteQuery::materialize(&template, &domains, &root);
    let root_matches = match_output_set(&graph, &root_q, MatchOptions::default());
    let root_counts = groups.count_in_groups(&root_matches);
    let c = ((*root_counts.iter().min().unwrap() as f64) * 0.6) as u32;
    let spec = CoverageSpec::equal_opportunity(2, c.max(2));

    let cfg = fairsqg_algo::Configuration::new(
        &graph,
        &template,
        &domains,
        &groups,
        &spec,
        0.05,
        exp_diversity(),
    );

    let biq = run(cfg, Algo::BiQGen, false);
    let rfq = run(cfg, Algo::RfQGen, false);

    let describe = |label: &str, e: &ArchiveEntry| -> String {
        format!(
            "  {label}: {}\n    matches: {} movies, genre coverage (Romance, Horror) = {:?}, δ = {:.3}, f = {:.1}\n",
            render_instance(s, &template, &domains, &e.inst),
            e.result.matches.len(),
            e.result.counts,
            e.result.objectives.delta,
            e.result.objectives.fcov,
        )
    };

    let best_by = |g: &fairsqg_algo::Generated, by_cov: bool| -> Option<ArchiveEntry> {
        g.entries
            .iter()
            .max_by(|a, b| {
                let (ka, kb) = if by_cov {
                    (a.objectives().fcov, b.objectives().fcov)
                } else {
                    (a.objectives().delta, b.objectives().delta)
                };
                ka.partial_cmp(&kb).unwrap()
            })
            .cloned()
    };

    let mut out = String::new();
    out.push_str("Exp-4 case study — movie search with equal genre coverage (Fig. 12)\n\n");
    out.push_str(&render_template(s, &template));
    out.push_str(&format!(
        "\ninitial (root) query returns {} movies: {} Romance, {} Horror (skewed)\n",
        root_matches.len(),
        root_counts[0],
        root_counts[1]
    ));
    out.push_str(&format!(
        "coverage constraint: exactly ({c}, {c}) over (Romance, Horror)\n\n",
        c = c.max(2)
    ));
    out.push_str(&format!(
        "BiQGen ({} instances returned) — prefers balanced coverage:\n",
        biq.entries.len()
    ));
    if let Some(e) = best_by(&biq, true) {
        out.push_str(&describe("best-coverage q", &e));
    }
    out.push_str(&format!(
        "\nRfQGen ({} instances returned) — surfaces more diversified but more skewed answers:\n",
        rfq.entries.len()
    ));
    if let Some(e) = best_by(&rfq, false) {
        out.push_str(&describe("best-diversity q", &e));
    }
    if let Some(e) = best_by(&rfq, true) {
        out.push_str(&describe("best-coverage q", &e));
    }

    // Sanity: the best-coverage instances must reduce the skew of the root.
    let root_f = coverage_score(&root_counts, &spec);
    if let Some(e) = best_by(&biq, true) {
        out.push_str(&format!(
            "\nroot f = {root_f:.1} vs BiQGen best f = {:.1} (higher is better)\n",
            e.objectives().fcov
        ));
    }
    out
}
