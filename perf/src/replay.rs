//! The lattice sweep of `enum_qgen`, replayed in the benchmark's own code
//! with a span around every call into a layer.
//!
//! The sweep evaluates every instance of `I(Q)` in lexicographic order —
//! materialize, match (restricted to the smallest verified parent's match
//! set), count groups, score coverage and diversity, offer to the
//! ε-Pareto archive — so its archive must equal `enum_qgen`'s bit for
//! bit, and its evaluated universe is what the other algorithms' archives
//! are checked against.

use crate::inputs::Case;
use crate::span::Tracer;
use fairsqg_algo::{ArchiveEntry, EpsParetoArchive, EvalResult};
use fairsqg_matcher::{
    plan_matching_order, try_match_output_set_with, MatchBudget, MatchOptions, MatchScratch,
};
use fairsqg_measures::{coverage_score, is_feasible, DiversityMeasure, Objectives};
use fairsqg_query::{ConcreteQuery, InstanceLattice, Instantiation};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

pub const SWEEP: &str = "algo.sweep";
pub const MEASURE_NEW: &str = "measures.new";
pub const MATERIALIZE: &str = "query.materialize";
pub const ENUMERATE: &str = "query.enumerate";
pub const PLAN: &str = "matcher.plan";
pub const MATCH: &str = "matcher.match";
pub const COVERAGE: &str = "measures.coverage";
pub const DIVERSITY: &str = "measures.diversity";
pub const ARCHIVE: &str = "algo.archive";

pub struct Sweep {
    /// Every instance of the lattice with its verified state, in
    /// enumeration order.
    pub universe: Vec<(Instantiation, Rc<EvalResult>)>,
    /// The archive after the last offer, in the archive's own order.
    pub archive: Vec<ArchiveEntry>,
    /// Wall time by a clock outside the tracer.
    pub wall_ms: f64,
}

pub fn sweep(case: &Case, tr: &mut Tracer, req: u64) -> Sweep {
    let wall = Instant::now();
    tr.enter(SWEEP, req);
    let graph = &case.graph;
    let measure = tr.time(MEASURE_NEW, req, || {
        DiversityMeasure::new(graph, case.template.output_label(), case.diversity)
    });
    let root = tr.time(MATERIALIZE, req, || {
        ConcreteQuery::materialize(
            &case.template,
            &case.domains,
            &Instantiation::root(&case.domains),
        )
    });
    let plan = tr.time(PLAN, req, || plan_matching_order(graph, &root));
    let instances = tr.time(ENUMERATE, req, || {
        InstanceLattice::new(&case.domains).enumerate()
    });

    let mut verified: HashMap<Instantiation, Rc<EvalResult>> = HashMap::new();
    let mut archive = EpsParetoArchive::new(case.eps);
    let mut scratch = MatchScratch::default();
    let mut universe = Vec::with_capacity(instances.len());
    for inst in instances {
        // Lexicographic order verifies every parent before its children.
        let parent = (0..inst.var_count())
            .filter_map(|x| inst.relax_step(x))
            .filter_map(|p| verified.get(&p))
            .min_by_key(|r| r.matches.len())
            .cloned();
        let query = tr.time(MATERIALIZE, req, || {
            ConcreteQuery::materialize(&case.template, &case.domains, &inst)
        });
        let matches = tr
            .time(MATCH, req, || {
                try_match_output_set_with(
                    graph,
                    &query,
                    MatchOptions {
                        restrict_output: parent.as_ref().map(|p| p.matches.as_slice()),
                        plan: Some(&plan),
                        ..MatchOptions::default()
                    },
                    &MatchBudget::UNLIMITED,
                    &mut scratch,
                )
            })
            .expect("an unlimited budget cannot trip");
        let (counts, fcov, feasible) = tr.time(COVERAGE, req, || {
            let counts = case.groups.count_in_groups(&matches);
            let fcov = coverage_score(&counts, &case.coverage);
            let feasible = is_feasible(&counts, &case.coverage);
            (counts, fcov, feasible)
        });
        let delta = tr.time(DIVERSITY, req, || measure.score(&matches));
        let result = Rc::new(EvalResult {
            matches,
            counts,
            objectives: Objectives::new(delta, fcov),
            feasible,
        });
        verified.insert(inst.clone(), Rc::clone(&result));
        if feasible {
            tr.time(ARCHIVE, req, || archive.update(&inst, &result));
        }
        universe.push((inst, result));
    }
    tr.exit();
    Sweep {
        universe,
        archive: archive.entries().to_vec(),
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
    }
}
