//! The query-generation configuration `C = (G, Q(u_o), P, ε)` (Section III).

use crate::archive::{ArchiveObserver, EpsParetoArchive, UpdateOutcome};
use crate::cancel::CancelToken;
use crate::evaluator::{EvalResult, MatchTable};
use fairsqg_graph::{CoverageSpec, Graph, GroupSet, NodeId};
use fairsqg_matcher::{BudgetExceeded, MatchBudget, MatcherStats};
use fairsqg_measures::{DiversityConfig, DiversityMeasure, DiversityProfile};
use fairsqg_query::{Instantiation, LatticeIndex, QueryTemplate, RefinementDomains};
use std::sync::Arc;

/// Everything a generation algorithm needs: the graph, the template with its
/// refinement domains, the groups with coverage constraints, the tolerance
/// `ε`, and the diversity-measure configuration.
#[derive(Clone, Copy)]
pub struct Configuration<'a> {
    /// The data graph `G`.
    pub graph: &'a Graph,
    /// The query template `Q(u_o)`.
    pub template: &'a QueryTemplate,
    /// Refinement domains of the template's variables.
    pub domains: &'a RefinementDomains,
    /// Disjoint node groups `P`.
    pub groups: &'a GroupSet,
    /// Coverage constraints `c_i` (one per group).
    pub spec: &'a CoverageSpec,
    /// ε-dominance tolerance (`ε > 0`).
    pub eps: f64,
    /// Diversity measure parameters (λ, relevance).
    pub diversity: DiversityConfig,
    /// Optional **sorted** restriction of the output population: only these
    /// nodes may appear in any instance's answer. Use it to layer
    /// constraints the template language cannot express — e.g. a node set
    /// an external query computed. `None` = the full label population.
    pub output_restriction: Option<&'a [NodeId]>,
    /// Optional cooperative cancellation/deadline token. Checked by the
    /// search loops before each verification; when it fires, the algorithm
    /// returns its partial archive with
    /// [`Generated::truncated`](crate::Generated::truncated) set.
    pub cancel: Option<&'a CancelToken>,
    /// Per-verification resource caps (candidate-set size, backtracking
    /// steps, match count). When a verification trips a cap, the run stops
    /// and returns its partial archive flagged truncated, with the tripped
    /// cap recorded in [`GenStats::budget_tripped`] — graceful degradation
    /// instead of OOM/livelock on adversarial templates.
    pub budget: MatchBudget,
    /// Run on the reference path — the oracle the differential tests
    /// hold the default path to, set by nothing outside tests: candidate
    /// sets by full label-population scan with no cross-call memo, no
    /// membership bitsets and no re-plan
    /// ([`MatchOptions::use_index`](fairsqg_matcher::MatchOptions::use_index)
    /// off), diversity by the walk over all pairs
    /// ([`DiversityMeasure::score_pairwise`]), and no ancestor pool in
    /// `quick_infeasible`. Results are bit-identical to the default path;
    /// only the cost differs.
    pub reference_path: bool,
    /// Optional pre-built [`DiversityProfile`] of this graph and the
    /// template's output label — the service's warm-state layer pools one
    /// per label. When set, evaluators and parallel workers score against
    /// it instead of deriving their own; a profile is immutable, so
    /// results are bit-identical with or without one.
    pub shared_diversity: Option<&'a Arc<DiversityProfile>>,
    /// Optional table of verified match sets shared with other runs over
    /// the same graph, template, domains and output restriction — the
    /// service's warm-state layer keeps one per plan. Verification reads a
    /// match set (and `δ`'s λ-free pair sum) from it instead of searching,
    /// and publishes what it searches; `Spawn` keeps its children in the
    /// records. None of these depends on λ, ε or the algorithm, so
    /// results are bit-identical with or without one. Runs on the
    /// reference path or under a [`budget`](Self::budget) cap neither read
    /// nor publish (see [`match_table`](Self::match_table)).
    pub shared_matches: Option<&'a dyn MatchTable>,
    /// Optional in-run archive-mutation observer. When set, the anytime
    /// loops offer instances via [`offer`](Self::offer), which reports each
    /// accepted update's exact added/removed entries — the service layer's
    /// streaming subscriptions hang off this hook. `None` (the default)
    /// keeps the non-collecting fast path; results are bit-identical
    /// either way.
    pub progress: Option<&'a dyn ArchiveObserver>,
}

impl<'a> Configuration<'a> {
    /// Creates a configuration, validating basic coherence.
    ///
    /// # Panics
    /// Panics if `eps <= 0`, if the coverage spec's group count does not
    /// match the group set, or if `|I(Q)|` overflows `usize` (the lattice
    /// could not be indexed; planners refuse such a template first).
    pub fn new(
        graph: &'a Graph,
        template: &'a QueryTemplate,
        domains: &'a RefinementDomains,
        groups: &'a GroupSet,
        spec: &'a CoverageSpec,
        eps: f64,
        diversity: DiversityConfig,
    ) -> Self {
        assert!(eps > 0.0, "epsilon must be positive");
        assert_eq!(
            groups.len(),
            spec.len(),
            "coverage spec must have one constraint per group"
        );
        assert_eq!(
            domains.var_count(),
            template.var_count(),
            "domains must cover every template variable"
        );
        assert!(
            LatticeIndex::new(domains).is_some(),
            "|I(Q)| overflows usize"
        );
        Self {
            graph,
            template,
            domains,
            groups,
            spec,
            eps,
            diversity,
            output_restriction: None,
            cancel: None,
            budget: MatchBudget::UNLIMITED,
            reference_path: false,
            shared_diversity: None,
            shared_matches: None,
            progress: None,
        }
    }

    /// Restricts the output population (see
    /// [`output_restriction`](Self::output_restriction)). The slice must be
    /// sorted ascending and contain only nodes with the template's output
    /// label — foreign-label nodes can never match the output anyway, and
    /// the matcher's pool-restricted candidate path assumes a
    /// label-homogeneous pool. The `FairSqg` façade filters user pools
    /// accordingly before reaching this call.
    pub fn with_output_restriction(mut self, restriction: &'a [NodeId]) -> Self {
        debug_assert!(
            restriction.windows(2).all(|w| w[0] < w[1]),
            "must be sorted"
        );
        debug_assert!(
            restriction
                .iter()
                .all(|&v| self.graph.label(v) == self.template.output_label()),
            "output restriction contains a node whose label differs from the template output's"
        );
        self.output_restriction = Some(restriction);
        self
    }

    /// Attaches a cancellation/deadline token (see
    /// [`cancel`](Self::cancel)).
    pub fn with_cancel(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Caps per-verification resources (see [`budget`](Self::budget)).
    pub fn with_budget(mut self, budget: MatchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Switches to the un-indexed, pair-walking reference path (see
    /// [`reference_path`](Self::reference_path)).
    pub fn with_reference_path(mut self) -> Self {
        self.reference_path = true;
        self
    }

    /// Attaches a pre-built diversity profile (see
    /// [`shared_diversity`](Self::shared_diversity)).
    pub fn with_shared_diversity(mut self, shared: &'a Arc<DiversityProfile>) -> Self {
        self.shared_diversity = Some(shared);
        self
    }

    /// Attaches a shared table of verified match sets (see
    /// [`shared_matches`](Self::shared_matches)).
    pub fn with_shared_matches(mut self, table: &'a dyn MatchTable) -> Self {
        self.shared_matches = Some(table);
        self
    }

    /// The shared match table verification may use: none on the
    /// reference path, which must stay an independent oracle, and none
    /// under a budget cap, where a table hit would skip steps a cold run
    /// charges and so move where the budget trips.
    pub(crate) fn match_table(&self) -> Option<&'a dyn MatchTable> {
        self.shared_matches
            .filter(|_| !self.reference_path && !self.budget.is_limited())
    }

    /// The diversity measure of this configuration, over the shared
    /// profile when one is attached.
    pub(crate) fn diversity_measure(&self) -> DiversityMeasure<'a> {
        let measure =
            DiversityMeasure::new(self.graph, self.template.output_label(), self.diversity);
        match self.shared_diversity {
            Some(shared) => measure.with_profile(Arc::clone(shared)),
            None => measure,
        }
    }

    /// `δ` of a verified match set: the closed form, from the match set's
    /// pair sum when one is known, or the walk over all pairs on the
    /// reference path. All three give the same bits.
    pub(crate) fn diversity_of(
        &self,
        measure: &DiversityMeasure<'_>,
        matches: &[NodeId],
        pair_sum: Option<f64>,
    ) -> f64 {
        if self.reference_path {
            return measure.score_pairwise(matches);
        }
        match pair_sum {
            Some(pair_sum) if !matches.is_empty() => {
                measure.combine(measure.relevance_sum(matches), pair_sum)
            }
            _ => measure.score(matches),
        }
    }

    /// Attaches an in-run archive observer (see
    /// [`progress`](Self::progress)).
    pub fn with_progress(mut self, observer: &'a dyn ArchiveObserver) -> Self {
        self.progress = Some(observer);
        self
    }

    /// Offers an instance to `archive`, routing the exact mutation to the
    /// attached [`progress`](Self::progress) observer when one is set.
    /// Every anytime loop funnels its `Update` calls through here so a
    /// subscription sees each front improvement as it lands; without an
    /// observer this is exactly [`EpsParetoArchive::update`].
    pub fn offer(
        &self,
        archive: &mut EpsParetoArchive,
        inst: &Instantiation,
        result: &EvalResult,
    ) -> UpdateOutcome {
        match self.progress {
            None => archive.update(inst, result),
            Some(obs) => {
                let (outcome, delta) = archive.update_observed(inst, result);
                if let Some(d) = delta {
                    obs.archive_updated(&d);
                }
                outcome
            }
        }
    }

    /// Whether the attached token (if any) has fired.
    pub fn cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// The attached token's hard-stop flag, threaded into matcher
    /// [`MatchOptions`](fairsqg_matcher::MatchOptions) so a watchdog can
    /// abort a verification wedged mid-search.
    pub fn hard_stop_flag(&self) -> Option<&'a std::sync::atomic::AtomicBool> {
        self.cancel.map(|c| c.hard_stop_flag().as_ref())
    }
}

/// Statistics gathered during a generation run; the pruning experiments of
/// Section V compare `verified` across algorithms.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GenStats {
    /// Instances constructed by a spawner (lattice nodes touched).
    pub spawned: u64,
    /// Instances actually verified against the graph (match set computed).
    pub verified: u64,
    /// Verifications served from the run's store (an instance reached twice).
    pub cache_hits: u64,
    /// Subtrees cut because an instance was infeasible (Lemma 2 pruning).
    pub pruned_infeasible: u64,
    /// Instances skipped by "sandwich" pruning (Lemma 3, BiQGen only).
    pub pruned_sandwich: u64,
    /// Wall-clock time of the run.
    pub elapsed: std::time::Duration,
    /// The resource cap that stopped the run early, if any (the run's
    /// result is then flagged truncated).
    pub budget_tripped: Option<BudgetExceeded>,
    /// Worker threads the run actually used (1 for the sequential
    /// algorithms; the pool size for `par_enum_qgen`).
    pub threads_used: u64,
    /// Candidate sets served from the sorted value index.
    pub index_candidates: u64,
    /// Candidate sets computed by label-population scan (reference path
    /// or hybrid fallback).
    pub scan_candidates: u64,
    /// Indexed candidate computations that fell back to the scan because
    /// the most selective literal was non-selective.
    pub scan_fallbacks: u64,
    /// Candidate sets restricted to an `incVerify` pool instead of the
    /// label population.
    pub pool_restrictions: u64,
    /// Postings shards skipped wholesale by partition metadata during
    /// indexed range evaluation.
    pub shard_skips: u64,
    /// Always 0: the diversity measure no longer caches distances. Kept,
    /// with [`distance_cache_misses`](Self::distance_cache_misses), only
    /// because `perf/` reads both; they go with its
    /// `measures.distance_hit_rate` metric in the next `benchmark` PR.
    pub distance_cache_hits: u64,
    /// Always 0 (see [`distance_cache_hits`](Self::distance_cache_hits)).
    pub distance_cache_misses: u64,
    /// Adaptive mid-enumeration suffix re-plans.
    pub order_replans: u64,
    /// Always 0: the matcher no longer prunes root candidates ahead of
    /// the search. Kept only because `perf/` reads it; it goes with the
    /// `matcher.pruned_candidates` metric in the next `benchmark` PR.
    pub pruned_candidates: u64,
    /// Candidate sets served from the matcher's cross-call memo instead
    /// of being recomputed.
    pub cand_memo_hits: u64,
    /// Roots matched without a search: a verified ancestor's embedding
    /// still satisfied every constraint of the refined instance.
    pub witness_hits: u64,
    /// Verifications whose match set came from the configuration's
    /// [`shared_matches`](Configuration::shared_matches) table instead of
    /// a search. Each is also counted in [`verified`](Self::verified).
    pub warm_match_hits: u64,
    /// `Spawn` calls whose template-refined children were read from a
    /// shared table's record instead of being recomputed.
    pub warm_spawn_hits: u64,
}

impl GenStats {
    /// Folds matcher hot-path counters into the stats block.
    pub fn record_hot_path(&mut self, matcher: MatcherStats) {
        self.index_candidates += matcher.index_candidates;
        self.scan_candidates += matcher.scan_candidates;
        self.scan_fallbacks += matcher.scan_fallbacks;
        self.pool_restrictions += matcher.pool_restrictions;
        self.shard_skips += matcher.shard_skips;
        self.order_replans += matcher.order_replans;
        self.cand_memo_hits += matcher.cand_memo_hits;
        self.witness_hits += matcher.witness_hits;
    }
}
