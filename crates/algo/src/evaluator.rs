//! Instance verification: matching, measuring, and `incVerify` through
//! the run's verified-instance store.

use crate::config::{Configuration, GenStats};
use crate::spawn::{spawn_refinements, stepped, SpawnOptions};
use crate::store::Store;
use fairsqg_graph::NodeId;
use fairsqg_matcher::{
    try_match_output_set_with, try_match_witnessed, BudgetExceeded, MatchOptions, MatchScratch,
    MatcherStats, Witnesses,
};
use fairsqg_measures::{coverage_score, is_feasible, Objectives};
use fairsqg_query::{ConcreteQuery, Instantiation};
use std::sync::{Arc, OnceLock};

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
/// holds them, with the two things a run would otherwise recompute from
/// them: `δ`'s λ-free pair sum, and `Spawn`'s template-refined children.
#[derive(Debug)]
pub struct MatchRecord {
    /// The output match set `q(u_o, G)`, sorted ascending.
    pub matches: Box<[NodeId]>,
    /// One embedding per match, laid out as
    /// [`Witnesses::rows`](fairsqg_matcher::Witnesses::rows).
    pub rows: Arc<[NodeId]>,
    /// `Σ_{v<w} d(v, w)` over `matches`
    /// ([`DiversityMeasure::pair_sum`](fairsqg_measures::DiversityMeasure::pair_sum)),
    /// which the publishing verification computed.
    pub pair_sum: f64,
    /// What [`spawn_refinements`] with template refinement returns for the
    /// instance, as `(variable, steps)` pairs in variable order; filled by
    /// the first run that spawns from the record (see
    /// [`MatchTable::remember_children`]).
    pub children: OnceLock<Box<[SpawnStep]>>,
}

/// One child of a [`MatchRecord`]'s `Spawn` memo: variable `.0` refined by
/// `.1` domain steps.
pub type SpawnStep = (u32, u16);

impl MatchRecord {
    /// A record with no `Spawn` memo yet.
    pub fn new(matches: &[NodeId], rows: &Arc<[NodeId]>, pair_sum: f64) -> Self {
        Self {
            matches: matches.into(),
            rows: Arc::clone(rows),
            pair_sum,
            children: OnceLock::new(),
        }
    }
}

/// Verified match sets shared across runs, keyed by the instance's lattice
/// index ([`LatticeIndex`](fairsqg_query::LatticeIndex)).
///
/// A match set `q(u_o, G)` depends on the graph, the template, the
/// refinement domains and the instance's bindings — never on λ, ε, the
/// coverage spec or the algorithm — so every run over the same three may
/// reuse what another verified. Rows from another run are sound witnesses:
/// a certificate is re-checked against the instance's own constraints.
/// Attach a table with [`Configuration::with_shared_matches`]; it is read
/// only inside verification, on a miss in the run's own store, and a
/// record's `Spawn` memo only by [`Evaluator::spawn`].
pub trait MatchTable: Sync {
    /// The record of instance `index`, if some run has published one.
    fn get(&self, index: usize) -> Option<Arc<MatchRecord>>;
    /// Offers the exact match set, rows and pair sum of instance `index`,
    /// just searched, and returns the record held for `index` afterwards:
    /// this one, or the one a racing run published first (the same match
    /// set). `None` when the table declines to keep it (over a byte
    /// budget, say).
    fn publish(
        &self,
        index: usize,
        matches: &[NodeId],
        rows: &Arc<[NodeId]>,
        pair_sum: f64,
    ) -> Option<Arc<MatchRecord>>;
    /// Offers `children` as `record`'s `Spawn` memo. A table may decline
    /// (over a byte budget, say); the caller keeps its children either way.
    fn remember_children(&self, record: &MatchRecord, children: Box<[SpawnStep]>) {
        let _ = record.children.set(children);
    }
}

/// A verified instance as the run's store holds it: the result, and one
/// embedding per match (a row per match, as
/// [`Witnesses::rows`](fairsqg_matcher::Witnesses::rows); empty on the
/// reference path, which neither records nor reads them).
#[derive(Debug)]
pub struct Verification {
    /// The instance's verified state.
    pub result: EvalResult,
    /// One row per match.
    pub rows: Arc<[NodeId]>,
    /// The shared table's record of the instance, when the match set came
    /// from the table or was published to it.
    pub record: Option<Arc<MatchRecord>>,
}

/// One run's view over its verified-instance store: the counters, the
/// budget state and the matcher scratch of whoever verifies through it.
///
/// `incVerify` (Section IV): an instance is verified against its nearest
/// verified lattice *ancestors*, one per axis (the store's one walk), in
/// two ways.
///
/// * **Pool (Lemma 2 (2)).** Refinement shrinks match sets, so the
///   smallest ancestor match set bounds the instance's, and only those
///   nodes are tried as output candidates; a root missing from any other
///   ancestor's match set is skipped without a search. Both are sound only
///   because the ancestors really are ancestors, which the walk
///   debug-asserts.
/// * **Certificate.** Each ancestor's embedding of a root is re-checked
///   against the instance's own constraints; if it passes, the root
///   matches without a search. That check relies on nothing about where
///   the embedding came from.
pub struct Evaluator<'a> {
    store: Arc<Store<'a>>,
    verified: u64,
    cache_hits: u64,
    warm_match_hits: u64,
    warm_spawn_hits: u64,
    budget_tripped: Option<BudgetExceeded>,
    /// The thread's matcher counters at construction time; the delta
    /// since then is what this view's verifications contributed.
    matcher_baseline: MatcherStats,
    /// Reusable matcher working memory: one view issues thousands of
    /// verify calls over the same template shape, so candidate vectors,
    /// membership bitsets, and the assignment buffer are allocated once
    /// here instead of per call.
    scratch: MatchScratch,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for a configuration, over a store of its own.
    pub fn new(cfg: Configuration<'a>) -> Self {
        Self::over(Arc::new(Store::new(cfg)))
    }

    /// A fresh view over `store`, counting from zero on this thread.
    pub(crate) fn over(store: Arc<Store<'a>>) -> Self {
        Self {
            store,
            verified: 0,
            cache_hits: 0,
            warm_match_hits: 0,
            warm_spawn_hits: 0,
            budget_tripped: None,
            matcher_baseline: fairsqg_matcher::matcher_stats(),
            scratch: MatchScratch::default(),
        }
    }

    /// Number of instances actually verified (not served from the store).
    pub fn verified_count(&self) -> u64 {
        self.verified
    }

    /// Whether the run should stop: the cancel token fired, or a
    /// verification tripped its resource budget (the search loops then
    /// flag their partial archive truncated). This is the single check
    /// every search loop performs between verifications.
    pub fn should_stop(&self) -> bool {
        self.budget_tripped.is_some() || self.store.cfg.cancelled()
    }

    /// Verifies `inst` from scratch.
    pub fn verify(&mut self, inst: &Instantiation) -> Arc<Verification> {
        self.verify_against(inst, false)
    }

    /// Verifies `inst` against its nearest verified ancestors (`incVerify`;
    /// see [`Evaluator`]).
    pub fn verify_with_best_parent(&mut self, inst: &Instantiation) -> Arc<Verification> {
        self.verify_against(inst, true)
    }

    /// The one verify-and-publish step: a store hit is served as is;
    /// otherwise `inst` is verified through [`verify_instance`] (against
    /// its nearest verified ancestors when `walk`) and published to the
    /// store on `Ok` only.
    fn verify_against(&mut self, inst: &Instantiation, walk: bool) -> Arc<Verification> {
        let store = &*self.store;
        let index = store.lattice.index_of(inst);
        if let Some(hit) = store.verified.get(index) {
            self.cache_hits += 1;
            return hit;
        }
        let ancestors = walk.then(|| store.ancestors(index, inst));
        let witnesses: Vec<Witnesses<'_>> = ancestors
            .iter()
            .flatten()
            .map(|v| Witnesses {
                matches: &v.result.matches,
                rows: &v.rows,
            })
            .collect();
        self.verified += 1;
        match verify_instance(store, index, inst, &witnesses, &mut self.scratch) {
            Ok((verification, from_table)) => {
                self.warm_match_hits += u64::from(from_table);
                let held = store.verified.insert_with(index, || Some(verification));
                held.expect("an offered entry is held")
            }
            Err(tripped) => {
                // The result is unknown, not infeasible: record the trip
                // (stopping the run) and hand back a conservative
                // empty/infeasible placeholder that is *not* published, so
                // it can never masquerade as a real verification later —
                // and no rows of it can certify anything.
                self.budget_tripped.get_or_insert(tripped);
                Arc::new(Verification {
                    result: EvalResult {
                        matches: Vec::new(),
                        counts: vec![0; store.cfg.groups.len()],
                        objectives: Objectives::new(0.0, 0.0),
                        feasible: false,
                    },
                    rows: Arc::from([]),
                    record: None,
                })
            }
        }
    }

    /// `Spawn` (Section IV-A) from the verified instance `inst`:
    /// [`spawn_refinements`] under `opts`. With template refinement on and
    /// the match set in the shared table, the children are read from the
    /// record's memo, or computed once and offered to it; they are a pure
    /// function of the instance and its match set, so either way they are
    /// the ones computed here. [`plain_refinements`](crate::plain_refinements)
    /// and the reference path never touch the memo.
    pub fn spawn(
        &mut self,
        inst: &Instantiation,
        verified: &Verification,
        opts: SpawnOptions,
    ) -> Vec<(usize, Instantiation)> {
        let cfg = &self.store.cfg;
        let memo = verified
            .record
            .as_ref()
            .filter(|_| opts.template_refinement)
            .zip(self.store.table);
        let Some((record, table)) = memo else {
            return spawn_refinements(cfg, inst, &verified.result, opts);
        };
        if let Some(steps) = record.children.get() {
            self.warm_spawn_hits += 1;
            return steps
                .iter()
                .map(|&(var, k)| (var as usize, stepped(inst, var as usize, k)))
                .collect();
        }
        let children = spawn_refinements(cfg, inst, &verified.result, opts);
        let steps = children
            .iter()
            .map(|(var, child)| {
                let var32 = u32::try_from(*var).expect("a template has fewer than 2^32 variables");
                (var32, child.indices()[*var] - inst.indices()[*var])
            })
            .collect();
        table.remember_children(record, steps);
        children
    }

    /// Cheap certain-infeasibility test **without subgraph matching**: the
    /// match set of `u_o` is contained in its literal-filtered candidate
    /// set, so if the candidates already fail a group constraint the
    /// instance cannot be feasible. `true` means *certainly infeasible*;
    /// `false` is inconclusive. Costs `O(|V(u_o)|)` instead of `T_q`.
    pub fn quick_infeasible(&self, inst: &Instantiation) -> bool {
        let store = &*self.store;
        let cfg = &store.cfg;
        let index = store.lattice.index_of(inst);
        if let Some(hit) = store.verified.get(index) {
            return !hit.result.feasible;
        }
        let query = ConcreteQuery::materialize(cfg.template, cfg.domains, inst);
        // Tightest known output pool: the smallest nearest ancestor's match
        // set (the first on a tie) bounds this instance's matches (Lemma 2).
        let ancestors = (!cfg.reference_path).then(|| store.ancestors(index, inst));
        let pool = ancestors
            .iter()
            .flatten()
            .map(|v| v.result.matches.as_slice())
            .min_by_key(|m| m.len());
        let output = cfg.template.output();
        let cands = match pool {
            Some(pool) => fairsqg_matcher::candidates_from_pool(cfg.graph, &query, output, pool),
            None if cfg.reference_path => {
                fairsqg_matcher::candidates_scan(cfg.graph, &query, output)
            }
            None => fairsqg_matcher::candidates(cfg.graph, &query, output),
        };
        let counts = cfg.groups.count_in_groups(&cands);
        !is_feasible(&counts, cfg.spec)
    }

    /// Adds this view's counters to `stats`: verifications, store and
    /// shared-table hits, the tripped budget, and the matcher's hot-path
    /// counters since construction. Matcher counters are thread-local, so
    /// call this on the thread that verified.
    pub fn add_to(&self, stats: &mut GenStats) {
        stats.verified += self.verified;
        stats.cache_hits += self.cache_hits;
        stats.warm_match_hits += self.warm_match_hits;
        stats.warm_spawn_hits += self.warm_spawn_hits;
        stats.budget_tripped = stats.budget_tripped.or(self.budget_tripped);
        stats.record_hot_path(fairsqg_matcher::matcher_stats().delta_since(self.matcher_baseline));
    }
}

/// One `incVerify` verification under the store's configuration, and the
/// only place its [`MatchTable`] is read. The match set, rows and pair sum
/// come from the table when it holds instance `index`; otherwise
/// [`match_instance`] searches them and the table is offered the outcome
/// (never a tripped search's). Then the result is counted, scored under
/// this run's λ and tested for feasibility, the same either way. Also
/// returns whether the match set came from the table.
fn verify_instance(
    store: &Store<'_>,
    index: usize,
    inst: &Instantiation,
    ancestors: &[Witnesses<'_>],
    scratch: &mut MatchScratch,
) -> Result<(Verification, bool), BudgetExceeded> {
    let cfg = &store.cfg;
    let table = store.table;
    let shared = table.and_then(|t| t.get(index));
    let from_table = shared.is_some();
    let (matches, rows, pair_sum, record) = match shared {
        Some(record) => (
            record.matches.to_vec(),
            Arc::clone(&record.rows),
            Some(record.pair_sum),
            Some(record),
        ),
        None => {
            let (matches, rows) = match_instance(cfg, inst, ancestors, scratch)?;
            let rows: Arc<[NodeId]> = rows.into();
            // The record needs the pair sum, and δ reuses it.
            let pair_sum = table.map(|_| store.measure.pair_sum(&matches));
            let record = table
                .zip(pair_sum)
                .and_then(|(table, p)| table.publish(index, &matches, &rows, p));
            (matches, rows, pair_sum, record)
        }
    };
    let counts = cfg.groups.count_in_groups(&matches);
    let delta = cfg.diversity_of(&store.measure, &matches, pair_sum);
    let fcov = coverage_score(&counts, cfg.spec);
    let feasible = is_feasible(&counts, cfg.spec);
    let result = EvalResult {
        matches,
        counts,
        objectives: Objectives::new(delta, fcov),
        feasible,
    };
    Ok((
        Verification {
            result,
            rows,
            record,
        },
        from_table,
    ))
}

/// The search behind one verification: materialises `inst` and matches it
/// with output candidates restricted to the smallest ancestor match set
/// (the first on a tie) and every ancestor offered as witnesses. Returns
/// the match set and one row per match. The reference path keeps the pool
/// but offers no witnesses and records no rows. Every ancestor must be a
/// lattice ancestor of `inst` (Lemma 2), which the walk debug-asserts.
fn match_instance(
    cfg: &Configuration<'_>,
    inst: &Instantiation,
    ancestors: &[Witnesses<'_>],
    scratch: &mut MatchScratch,
) -> Result<(Vec<NodeId>, Vec<NodeId>), BudgetExceeded> {
    let query = ConcreteQuery::materialize(cfg.template, cfg.domains, inst);
    let pool = ancestors.iter().map(|w| w.matches).min_by_key(|m| m.len());
    let opts = MatchOptions {
        restrict_output: pool,
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
        assert!(Arc::ptr_eq(&a, &b));
        let mut stats = GenStats::default();
        ev.add_to(&mut stats);
        assert_eq!((stats.verified, stats.cache_hits), (1, 1));
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
        // against the previous link, its nearest verified ancestor) vs fresh.
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
            let fresh = &full.verify(inst).result;
            let incremental = &inc.verify_with_best_parent(inst).result;
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
            let r = &r.result;
            for (_, child) in lat.children(&inst) {
                let rc = &ev.verify(&child).result;
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
            assert_eq!(a.result.matches, b.result.matches, "mismatch at {inst:?}");
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
            spawn_refinements(&cfg, &at(i), &r.result, SpawnOptions::default())
        };
        assert_eq!(spawned(&mut ev, 0), vec![(0, at(1))]);
        assert_eq!(spawned(&mut ev, 1), vec![(0, at(3))], "Spawn skips 2");

        // The skipped-to child is still verified against a pool — the
        // spawning instance's match set — and agrees with a verification
        // from scratch.
        let before = fairsqg_matcher::matcher_stats().pool_restrictions;
        assert!(!ev.quick_infeasible(&at(3)));
        let inc = &ev.verify_with_best_parent(&at(3)).result;
        let pooled = fairsqg_matcher::matcher_stats().pool_restrictions - before;
        assert_eq!(pooled, 2, "the quick check and the verification");
        let fresh = &Evaluator::new(cfg).verify(&at(3)).result;
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

    /// A table filled by template-refined runs memoises `Spawn`: a later
    /// template-refined run reads the children, a run without template
    /// refinement ignores them, and both archives are the ones the same
    /// runs give without a table. Every filled memo is what
    /// `spawn_refinements` computes from the record's match set.
    #[test]
    fn spawn_memos_are_spawn_refinements_and_only_template_refinement_reads_them() {
        use crate::spawn::{spawn_refinements, SpawnOptions};
        use crate::{biqgen, rfqgen, BiQGenOptions, RfQGenOptions};
        let fx = talent_fixture();
        let table = CountingTable::default();
        let cfg = fx.configuration_at(0.2, 0.4);
        let first = rfqgen(cfg.with_shared_matches(&table), RfQGenOptions::default());
        assert_eq!(first.stats.warm_spawn_hits, 0);
        biqgen(cfg.with_shared_matches(&table), BiQGenOptions::default());

        let plain = RfQGenOptions {
            spawn: SpawnOptions {
                template_refinement: false,
            },
            ..RfQGenOptions::default()
        };
        for lambda in [0.0, 0.7] {
            let cfg = fx.configuration_at(0.2, lambda);
            let cold = rfqgen(cfg, plain);
            let warm = rfqgen(cfg.with_shared_matches(&table), plain);
            assert_eq!(archive(&warm), archive(&cold), "plain at λ {lambda}");
            assert_eq!(warm.stats.spawned, cold.stats.spawned);
            assert_eq!(warm.stats.warm_spawn_hits, 0);
            assert!(warm.stats.warm_match_hits > 0);

            let cold = rfqgen(cfg, RfQGenOptions::default());
            let warm = rfqgen(cfg.with_shared_matches(&table), RfQGenOptions::default());
            assert_eq!(archive(&warm), archive(&cold), "rfqgen at λ {lambda}");
            assert_eq!(warm.stats.spawned, cold.stats.spawned);
            assert_eq!(warm.stats.pruned_infeasible, cold.stats.pruned_infeasible);
            assert!(warm.stats.warm_spawn_hits > 0);
        }

        let lattice = fairsqg_query::LatticeIndex::new(fx.domains()).unwrap();
        let cfg = fx.configuration(0.2);
        let mut filled = 0;
        for (index, record) in table.records() {
            let Some(steps) = record.children.get() else {
                continue;
            };
            filled += 1;
            let inst = lattice.instance(index);
            let result = EvalResult {
                matches: record.matches.to_vec(),
                counts: Vec::new(),
                objectives: Objectives::new(0.0, 0.0),
                feasible: true,
            };
            let expected: Vec<SpawnStep> =
                spawn_refinements(&cfg, &inst, &result, SpawnOptions::default())
                    .iter()
                    .map(|(var, child)| {
                        let k = child.indices()[*var] - inst.indices()[*var];
                        (*var as u32, k)
                    })
                    .collect();
            assert_eq!(steps.to_vec(), expected, "memo of {inst:?}");
        }
        assert!(filled > 0);
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
