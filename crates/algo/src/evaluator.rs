//! Instance verification: matching, measuring, caching, and `incVerify`.

use crate::config::{Configuration, GenStats};
use fairsqg_graph::NodeId;
use fairsqg_matcher::{
    try_match_output_set_with, try_match_witnessed, BudgetExceeded, MatchOptions, MatchScratch,
    MatcherStats, Witnesses,
};
use fairsqg_measures::{coverage_score, is_feasible, DiversityMeasure, Objectives};
use fairsqg_query::{ConcreteQuery, Instantiation};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// The verified state of one query instance.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// The output match set `q(u_o, G)`, sorted ascending.
    pub matches: Vec<NodeId>,
    /// Per-group match counts `|q(G) ∩ P_i|`.
    pub counts: Vec<u32>,
    /// The instance's bi-objective coordinate `(δ(q), f(q))`.
    pub objectives: Objectives,
    /// Whether the instance is feasible (`|q(G) ∩ P_i| ≥ c_i` for all `i`).
    pub feasible: bool,
}

/// A verified instance's match set and witness rows, as a [`MatchTable`]
/// holds them.
#[derive(Debug)]
pub struct MatchRecord {
    /// The output match set `q(u_o, G)`, sorted ascending.
    pub matches: Box<[NodeId]>,
    /// One embedding per match, laid out as
    /// [`Witnesses::rows`](fairsqg_matcher::Witnesses::rows).
    pub rows: Arc<[NodeId]>,
}

/// Verified match sets shared across runs.
///
/// A match set `q(u_o, G)` depends on the graph, the template, the
/// refinement domains, the output restriction and the instance's bindings
/// — never on λ, ε, the coverage spec or the algorithm — so every run over
/// the same four may reuse what another verified. Rows from another run
/// are sound witnesses: a certificate is re-checked against the instance's
/// own constraints. Attach a table with
/// [`Configuration::with_shared_matches`]; it is consulted only inside
/// verification, on an evaluator-cache miss.
pub trait MatchTable: Sync {
    /// The record of `inst`, if some run has published one.
    fn get(&self, inst: &Instantiation) -> Option<Arc<MatchRecord>>;
    /// Offers the exact match set and rows of `inst`, just searched. A
    /// table may decline to keep them (over a byte budget, say).
    fn publish(&self, inst: &Instantiation, matches: &[NodeId], rows: &Arc<[NodeId]>);
}

/// A verified instance as the cache holds it: the result handed out, and
/// one embedding per match (a row per match, as
/// [`Witnesses::rows`](fairsqg_matcher::Witnesses::rows); empty on the
/// reference path, which neither records nor reads them).
#[derive(Clone)]
struct Verified {
    result: Rc<EvalResult>,
    rows: Arc<[NodeId]>,
}

/// Verifies instances against the graph with memoization.
///
/// `incVerify` (Section IV): a refinement is verified against its nearest
/// cached lattice *ancestors*, one per axis, in two ways.
///
/// * **Pool (Lemma 2 (2)).** Refinement shrinks match sets, so the
///   smallest ancestor match set bounds the instance's, and only those
///   nodes are tried as output candidates; a root missing from any other
///   ancestor's match set is skipped without a search. Both are sound only
///   because the ancestors really are ancestors, which every use
///   debug-asserts.
/// * **Certificate.** Each ancestor's embedding of a root is re-checked
///   against the instance's own constraints; if it passes, the root
///   matches without a search. That check relies on nothing about where
///   the embedding came from.
pub struct Evaluator<'a> {
    cfg: Configuration<'a>,
    measure: DiversityMeasure<'a>,
    cache: HashMap<Instantiation, Verified>,
    verified: u64,
    cache_hits: u64,
    warm_match_hits: u64,
    budget_tripped: Option<BudgetExceeded>,
    /// The thread's matcher counters at construction time; the delta
    /// since then is what this evaluator's run contributed.
    matcher_baseline: MatcherStats,
    /// Reusable matcher working memory: one evaluator issues thousands of
    /// verify calls over the same template shape, so candidate vectors,
    /// membership bitsets, and the assignment buffer are allocated once
    /// here instead of per call.
    scratch: MatchScratch,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for a configuration.
    pub fn new(cfg: Configuration<'a>) -> Self {
        let measure = cfg.diversity_measure();
        let matcher_baseline = fairsqg_matcher::matcher_stats();
        Self {
            cfg,
            measure,
            cache: HashMap::new(),
            verified: 0,
            cache_hits: 0,
            warm_match_hits: 0,
            budget_tripped: None,
            matcher_baseline,
            scratch: MatchScratch::default(),
        }
    }

    /// The configuration this evaluator serves.
    pub fn config(&self) -> &Configuration<'a> {
        &self.cfg
    }

    /// Number of instances actually verified (not served from cache).
    pub fn verified_count(&self) -> u64 {
        self.verified
    }

    /// Number of cache hits.
    pub fn cache_hit_count(&self) -> u64 {
        self.cache_hits
    }

    /// Number of verifications served by the shared match table (see
    /// [`GenStats::warm_match_hits`]).
    pub fn warm_match_hit_count(&self) -> u64 {
        self.warm_match_hits
    }

    /// The resource cap a verification tripped, if any. Once set, the
    /// search loops stop and flag their partial archive truncated.
    pub fn budget_tripped(&self) -> Option<BudgetExceeded> {
        self.budget_tripped
    }

    /// Whether the run should stop: the cancel token fired, or a
    /// verification tripped its resource budget. This is the single check
    /// every search loop performs between verifications.
    pub fn should_stop(&self) -> bool {
        self.budget_tripped.is_some() || self.cfg.cancelled()
    }

    /// Returns the cached result for `inst`, if already verified.
    pub fn cached(&self, inst: &Instantiation) -> Option<Rc<EvalResult>> {
        self.cache.get(inst).map(|v| Rc::clone(&v.result))
    }

    /// Verifies `inst` from scratch.
    pub fn verify(&mut self, inst: &Instantiation) -> Rc<EvalResult> {
        self.verify_against(inst, &[])
    }

    /// Verifies `inst` against its nearest cached ancestors (`incVerify`;
    /// see [`Evaluator`] and `nearest_ancestors`).
    pub fn verify_with_best_parent(&mut self, inst: &Instantiation) -> Rc<EvalResult> {
        if let Some(hit) = self.cache.get(inst) {
            self.cache_hits += 1;
            return Rc::clone(&hit.result);
        }
        let ancestors = self.nearest_ancestors(inst);
        self.verify_against(inst, &ancestors)
    }

    /// Verifies `inst` against `ancestors` through [`verify_instance`] and
    /// caches what it finds.
    fn verify_against(
        &mut self,
        inst: &Instantiation,
        ancestors: &[(Instantiation, Verified)],
    ) -> Rc<EvalResult> {
        if let Some(hit) = self.cache.get(inst) {
            self.cache_hits += 1;
            return Rc::clone(&hit.result);
        }
        // The pool and the matcher's skip rely on Lemma 2; the certificate
        // does not.
        debug_assert!(ancestors.iter().all(|(a, _)| inst.refines(a)));
        self.verified += 1;
        let witnesses: Vec<Witnesses<'_>> = ancestors
            .iter()
            .map(|(_, v)| Witnesses {
                matches: &v.result.matches,
                rows: &v.rows,
            })
            .collect();
        match verify_instance(
            &self.cfg,
            &self.measure,
            inst,
            &witnesses,
            &mut self.scratch,
        ) {
            Ok(v) => {
                self.warm_match_hits += u64::from(v.from_table);
                let result = Rc::new(v.result);
                self.cache.insert(
                    inst.clone(),
                    Verified {
                        result: Rc::clone(&result),
                        rows: v.rows,
                    },
                );
                result
            }
            Err(tripped) => {
                // The result is unknown, not infeasible: record the trip
                // (stopping the run) and hand back a conservative
                // empty/infeasible placeholder that is *not* cached, so it
                // can never masquerade as a real verification later — and
                // no rows of it can certify anything.
                self.budget_tripped.get_or_insert(tripped);
                Rc::new(EvalResult {
                    matches: Vec::new(),
                    counts: vec![0; self.cfg.groups.len()],
                    objectives: Objectives::new(0.0, 0.0),
                    feasible: false,
                })
            }
        }
    }

    /// Cheap certain-infeasibility test **without subgraph matching**: the
    /// match set of `u_o` is contained in its literal-filtered candidate
    /// set, so if the candidates already fail a group constraint the
    /// instance cannot be feasible. `true` means *certainly infeasible*;
    /// `false` is inconclusive. Costs `O(|V(u_o)|)` instead of `T_q`.
    pub fn quick_infeasible(&self, inst: &Instantiation) -> bool {
        if let Some(hit) = self.cache.get(inst) {
            return !hit.result.feasible;
        }
        let query = ConcreteQuery::materialize(self.cfg.template, self.cfg.domains, inst);
        // Tightest known output pool: the smallest nearest ancestor's match
        // set bounds this instance's matches (Lemma 2) and is never looser
        // than the configured restriction (the ancestor was verified under
        // it).
        let ancestors = if self.cfg.reference_path {
            Vec::new()
        } else {
            self.nearest_ancestors(inst)
        };
        debug_assert!(ancestors.iter().all(|(a, _)| inst.refines(a)));
        let pool = smallest(&ancestors)
            .map(|v| v.result.matches.as_slice())
            .or(self.cfg.output_restriction);
        let cands = match pool {
            Some(pool) => fairsqg_matcher::candidates_from_pool(
                self.cfg.graph,
                &query,
                self.cfg.template.output(),
                pool,
            ),
            None if self.cfg.reference_path => {
                fairsqg_matcher::candidates_scan(self.cfg.graph, &query, self.cfg.template.output())
            }
            None => fairsqg_matcher::candidates(self.cfg.graph, &query, self.cfg.template.output()),
        };
        let counts = self.cfg.groups.count_in_groups(&cands);
        !is_feasible(&counts, self.cfg.spec)
    }

    /// The nearest cached ancestor on each axis: on each axis the index is
    /// walked down to the first cached instance. That is the direct lattice
    /// parent whenever it was verified (one lookup); after a
    /// template-refinement skip (`Spawn` stepping a variable from `i` to
    /// `j > i + 1`) the direct parent `j - 1` never was, and the walk
    /// reaches the spawning instance instead of giving up the pool.
    fn nearest_ancestors(&self, inst: &Instantiation) -> Vec<(Instantiation, Verified)> {
        let mut found = Vec::new();
        for x in 0..inst.var_count() {
            let mut ancestor = inst.relax_step(x);
            while let Some(a) = ancestor {
                if let Some(v) = self.cache.get(&a) {
                    found.push((a, v.clone()));
                    break;
                }
                ancestor = a.relax_step(x);
            }
        }
        found
    }

    /// Folds this evaluator's hot-path counters (matcher candidate paths
    /// and shared-table hits) into a stats block. Matcher counters are
    /// thread-local, so their delta is exact as long as no other evaluator
    /// ran on this thread since construction.
    pub fn apply_hot_path_stats(&self, stats: &mut GenStats) {
        let matcher = fairsqg_matcher::matcher_stats().delta_since(self.matcher_baseline);
        stats.record_hot_path(matcher);
        stats.warm_match_hits += self.warm_match_hits;
    }
}

/// What [`verify_instance`] found.
pub(crate) struct Verification {
    /// The instance's verified state.
    pub result: EvalResult,
    /// One row per match (empty on the reference path).
    pub rows: Arc<[NodeId]>,
    /// Whether the match set came from the shared match table.
    pub from_table: bool,
}

/// One `incVerify` verification, shared by [`Evaluator`] and
/// `par_enum_qgen`'s workers, and the only place the configuration's
/// [`MatchTable`] is read. The match set and rows come from the table when
/// it holds `inst`; otherwise [`match_instance`] searches them and the
/// table is offered the outcome (never a tripped search's). Then the
/// result is counted, scored under this run's λ and tested for
/// feasibility, the same either way.
pub(crate) fn verify_instance(
    cfg: &Configuration<'_>,
    measure: &DiversityMeasure<'_>,
    inst: &Instantiation,
    ancestors: &[Witnesses<'_>],
    scratch: &mut MatchScratch,
) -> Result<Verification, BudgetExceeded> {
    let table = cfg.match_table();
    let shared = table.and_then(|t| t.get(inst));
    let from_table = shared.is_some();
    let (matches, rows) = match shared {
        Some(record) => (record.matches.to_vec(), Arc::clone(&record.rows)),
        None => {
            let (matches, rows) = match_instance(cfg, inst, ancestors, scratch)?;
            let rows: Arc<[NodeId]> = rows.into();
            if let Some(table) = table {
                table.publish(inst, &matches, &rows);
            }
            (matches, rows)
        }
    };
    let counts = cfg.groups.count_in_groups(&matches);
    let delta = cfg.diversity_of(measure, &matches);
    let fcov = coverage_score(&counts, cfg.spec);
    let feasible = is_feasible(&counts, cfg.spec);
    let result = EvalResult {
        matches,
        counts,
        objectives: Objectives::new(delta, fcov),
        feasible,
    };
    Ok(Verification {
        result,
        rows,
        from_table,
    })
}

/// The search behind one verification: materialises `inst` and matches it
/// with output candidates restricted to the smallest ancestor match set
/// (the first on a tie) and every ancestor offered as witnesses. Returns
/// the match set and one row per match. The reference path keeps the pool
/// but offers no witnesses and records no rows. Every ancestor must be a
/// lattice ancestor of `inst` (Lemma 2), which callers debug-assert.
fn match_instance(
    cfg: &Configuration<'_>,
    inst: &Instantiation,
    ancestors: &[Witnesses<'_>],
    scratch: &mut MatchScratch,
) -> Result<(Vec<NodeId>, Vec<NodeId>), BudgetExceeded> {
    let query = ConcreteQuery::materialize(cfg.template, cfg.domains, inst);
    // An ancestor's match set is already inside the configuration's output
    // restriction (the root was verified under it), so the tighter of the
    // two suffices.
    let pool = ancestors.iter().map(|w| w.matches).min_by_key(|m| m.len());
    let opts = MatchOptions {
        restrict_output: pool.or(cfg.output_restriction),
        use_index: !cfg.reference_path,
        stop: cfg.hard_stop_flag(),
        ..MatchOptions::default()
    };
    if cfg.reference_path {
        let matches = try_match_output_set_with(cfg.graph, &query, opts, &cfg.budget, scratch)?;
        Ok((matches, Vec::new()))
    } else {
        let opts = MatchOptions { ancestors, ..opts };
        try_match_witnessed(cfg.graph, &query, opts, &cfg.budget, scratch)
    }
}

/// The ancestor with the smallest match set (the first on a tie): the
/// `incVerify` pool.
fn smallest(ancestors: &[(Instantiation, Verified)]) -> Option<&Verified> {
    ancestors
        .iter()
        .map(|(_, v)| v)
        .min_by_key(|v| v.result.matches.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{talent_fixture, CountingTable};

    #[test]
    fn verify_caches() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let mut ev = Evaluator::new(cfg);
        let root = Instantiation::root(fx.domains());
        let a = ev.verify(&root);
        let b = ev.verify(&root);
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(ev.verified_count(), 1);
        assert_eq!(ev.cache_hit_count(), 1);
    }

    #[test]
    fn inc_verify_agrees_with_full_verify() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let root = Instantiation::root(fx.domains());

        let mut full = Evaluator::new(cfg);
        let mut inc = Evaluator::new(cfg);
        inc.verify(&root);

        // Walk a refinement chain; verify children incrementally (each
        // against the previous link, its nearest cached ancestor) vs fresh.
        let mut chain = vec![root.clone()];
        let mut cur = root;
        loop {
            let mut advanced = false;
            for x in 0..fx.domains().var_count() {
                if let Some(next) = cur.refine_step(x, fx.domains()) {
                    cur = next;
                    chain.push(cur.clone());
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                break;
            }
        }
        for inst in &chain[1..] {
            let fresh = full.verify(inst);
            let incremental = inc.verify_with_best_parent(inst);
            assert_eq!(fresh.matches, incremental.matches);
            assert_eq!(fresh.counts, incremental.counts);
            assert!(
                (fresh.objectives.delta - incremental.objectives.delta).abs() < 1e-9
                    && (fresh.objectives.fcov - incremental.objectives.fcov).abs() < 1e-9
            );
        }
    }

    #[test]
    fn refinement_monotonicity_lemma2() {
        // Lemma 2 (2): q' ⪰ q  ⇒  q'(G) ⊆ q(G) and δ(q') ≤ δ(q).
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let mut ev = Evaluator::new(cfg);
        let lat = fairsqg_query::InstanceLattice::new(fx.domains());
        for inst in lat.enumerate() {
            let r = ev.verify(&inst);
            for (_, child) in lat.children(&inst) {
                let rc = ev.verify(&child);
                assert!(
                    rc.matches.iter().all(|m| r.matches.contains(m)),
                    "match-set containment violated"
                );
                assert!(
                    rc.objectives.delta <= r.objectives.delta + 1e-9,
                    "diversity monotonicity violated"
                );
            }
        }
    }

    #[test]
    fn verify_with_best_parent_is_consistent() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let lat = fairsqg_query::InstanceLattice::new(fx.domains());

        let mut plain = Evaluator::new(cfg);
        let mut smart = Evaluator::new(cfg);
        // BFS order guarantees parents verified before children.
        for inst in lat.enumerate() {
            let a = plain.verify(&inst);
            let b = smart.verify_with_best_parent(&inst);
            assert_eq!(a.matches, b.matches, "mismatch at {inst:?}");
        }
    }

    #[test]
    fn inc_verify_survives_a_template_refinement_skip() {
        use crate::spawn::{spawn_refinements, SpawnOptions};
        use fairsqg_graph::{AttrValue::Int, CoverageSpec, GraphBuilder, GroupSet};
        use fairsqg_query::{DomainConfig, RefinementDomains};

        // Four hubs, each with one leaf (v = 1, 1, 3, 3), and one leaf with
        // v = 2 attached to nothing: 2 is in the active domain but in no
        // match set's neighborhood, so Spawn steps `leaf.v >= 1` straight to
        // `>= 3` and the child's direct parent `>= 2` is never verified.
        let mut b = GraphBuilder::new();
        for (i, v) in [1, 1, 3, 3].into_iter().enumerate() {
            let hub = b.add_named_node("hub", &[("g", Int(i as i64 % 2))]);
            let leaf = b.add_named_node("leaf", &[("v", Int(v))]);
            b.add_named_edge(leaf, hub, "e");
        }
        b.add_named_node("leaf", &[("v", Int(2))]);
        let graph = b.finish();
        let template = fairsqg_query::parse_template(
            graph.schema(),
            "node u0 : hub\nnode u1 : leaf\nedge u1 -e-> u0\nwhere u1.v >= ?\noutput u0\n",
        )
        .unwrap();
        let domains = RefinementDomains::build(&template, &graph, DomainConfig::default());
        assert_eq!(domains.domain(0).len(), 4); // _, 1, 2, 3
        let g = graph.schema().find_attr("g").unwrap();
        let groups = GroupSet::by_attribute(&graph, g, &[Int(0), Int(1)]);
        let spec = CoverageSpec::equal_opportunity(2, 1);
        let cfg = Configuration::new(
            &graph,
            &template,
            &domains,
            &groups,
            &spec,
            0.1,
            fairsqg_measures::DiversityConfig::default(),
        );

        let mut ev = Evaluator::new(cfg);
        let at = |i: u16| Instantiation::new(vec![i]);
        let spawned = |ev: &mut Evaluator<'_>, i: u16| {
            let r = ev.verify_with_best_parent(&at(i));
            spawn_refinements(&cfg, &at(i), &r, SpawnOptions::default())
        };
        assert_eq!(spawned(&mut ev, 0), vec![(0, at(1))]);
        assert_eq!(spawned(&mut ev, 1), vec![(0, at(3))], "Spawn skips 2");

        // The skipped-to child is still verified against a pool — the
        // spawning instance's match set — and agrees with a verification
        // from scratch.
        let before = fairsqg_matcher::matcher_stats().pool_restrictions;
        assert!(!ev.quick_infeasible(&at(3)));
        let inc = ev.verify_with_best_parent(&at(3));
        let pooled = fairsqg_matcher::matcher_stats().pool_restrictions - before;
        assert_eq!(pooled, 2, "the quick check and the verification");
        let fresh = Evaluator::new(cfg).verify(&at(3));
        assert_eq!(inc.matches, fresh.matches);
        assert_eq!(inc.matches.len(), 2);
        assert_eq!(inc.counts, fresh.counts);
        assert_eq!(inc.objectives, fresh.objectives);
        assert_eq!(inc.feasible, fresh.feasible);
    }

    /// `(instance, δ bits, f bits, matches, counts)` of an archive entry.
    type EntryBits = (Instantiation, u64, u64, Vec<NodeId>, Vec<u32>);

    fn archive(out: &crate::Generated) -> Vec<EntryBits> {
        out.entries
            .iter()
            .map(|e| {
                (
                    e.inst.clone(),
                    e.objectives().delta.to_bits(),
                    e.objectives().fcov.to_bits(),
                    e.result.matches.clone(),
                    e.result.counts.clone(),
                )
            })
            .collect()
    }

    /// A table filled under one λ serves every verification of a run under
    /// another, and the archive is the cold run's bit for bit.
    #[test]
    fn a_shared_match_table_serves_other_lambdas_bit_identically() {
        use crate::{biqgen, enum_qgen, BiQGenOptions};
        let fx = talent_fixture();
        let table = CountingTable::default();
        let first = enum_qgen(
            fx.configuration_at(0.3, 0.5).with_shared_matches(&table),
            false,
        );
        assert_eq!(first.stats.warm_match_hits, 0);
        let (_, published, held) = table.counts();
        assert_eq!(published, first.stats.verified);
        assert_eq!(held as u64, first.stats.verified);
        for lambda in [0.0, 0.2, 0.9] {
            let cfg = fx.configuration_at(0.2, lambda);
            let cold = enum_qgen(cfg, false);
            let warm = enum_qgen(cfg.with_shared_matches(&table), false);
            assert_eq!(archive(&warm), archive(&cold), "enum at λ {lambda}");
            assert_eq!(warm.stats.verified, cold.stats.verified);
            assert_eq!(warm.stats.warm_match_hits, warm.stats.verified);
            let cold = biqgen(cfg, BiQGenOptions::default());
            let warm = biqgen(cfg.with_shared_matches(&table), BiQGenOptions::default());
            assert_eq!(archive(&warm), archive(&cold), "biqgen at λ {lambda}");
            assert_eq!(warm.stats.verified, cold.stats.verified);
            assert!(warm.stats.warm_match_hits > 0);
        }
    }

    /// The reference path is the oracle the table is checked against: it
    /// neither reads a filled table nor publishes into it. Neither does a
    /// budget-capped run, whose step accounting a hit would change.
    #[test]
    fn the_reference_path_and_budgeted_runs_never_consult_the_match_table() {
        use crate::enum_qgen;
        use fairsqg_matcher::MatchBudget;
        let fx = talent_fixture();
        let table = CountingTable::default();
        enum_qgen(fx.configuration(0.3).with_shared_matches(&table), false);
        let filled = table.counts();
        assert!(filled.2 > 0);

        let reference = fx.configuration(0.3).with_reference_path();
        let mut ev = Evaluator::new(reference.with_shared_matches(&table));
        for inst in fairsqg_query::InstanceLattice::new(fx.domains()).enumerate() {
            ev.verify_with_best_parent(&inst);
        }
        let out = enum_qgen(reference.with_shared_matches(&table), false);
        assert_eq!(out.stats.warm_match_hits, 0);
        assert_eq!(table.counts(), filled, "the reference path read or wrote");

        let capped = fx.configuration(0.3).with_budget(MatchBudget {
            max_steps: Some(1_000_000),
            ..MatchBudget::UNLIMITED
        });
        let out = enum_qgen(capped.with_shared_matches(&table), false);
        assert_eq!(out.stats.warm_match_hits, 0);
        assert_eq!(table.counts(), filled, "a budgeted run read or wrote");
    }
}
