//! Cross-request warm state: per-`(graph, epoch)` evaluation caches.
//!
//! Every job used to start cold — the diversity measure's `O(|V|)`
//! profile and the parsed plan (template + refinement domains + groups)
//! were rebuilt per request even when hundreds of jobs target the same
//! registered graph. A [`WarmState`] owns that state for one graph epoch:
//!
//! * a [`DiversityProfile`] per output label (nothing in a job's
//!   `DiversityConfig` enters it), handed to every job's `Configuration`
//!   via `Arc`;
//! * a pool of parsed [`WarmPlan`]s keyed by the spec's planning inputs,
//!   so repeated templates skip parsing and domain construction.
//!
//! A profile is immutable and derived from the graph alone, so warm
//! results are bit-identical to cold ones — `perf/` asserts it.
//! The state is keyed by epoch: a graph reload creates a fresh
//! `WarmState` and the old one dies with its last in-flight job. The
//! registry's warm pool enforces a cross-graph byte budget with LRU
//! eviction (see `GraphRegistry::warm_state`).

use fairsqg_graph::{CoverageSpec, Graph, GroupSet, LabelId};
use fairsqg_measures::{DiversityConfig, DiversityProfile};
use fairsqg_query::{QueryTemplate, RefinementDomains};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A parsed, planning-complete job skeleton: everything `plan_spec`
/// derives from `(graph, template text, group_attr, cover)` that does not
/// depend on the generation parameters. Owned types only, so one plan is
/// shareable across jobs and threads.
#[derive(Debug)]
pub struct WarmPlan {
    /// The parsed template.
    pub template: QueryTemplate,
    /// Refinement domains built over the graph.
    pub domains: RefinementDomains,
    /// Induced groups (one per distinct `group_attr` value).
    pub groups: GroupSet,
    /// Equal-opportunity coverage constraints.
    pub spec: CoverageSpec,
}

impl WarmPlan {
    /// Rough resident size, for the warm pool's byte budget. Dominated by
    /// the refinement domains; the template/groups/spec contribution is a
    /// flat ballpark.
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = 1024;
        for i in 0..self.domains.var_count() {
            bytes += self.domains.domain(i).len() * 16;
        }
        bytes + self.groups.len() * 64 + self.spec.len() * 4
    }
}

/// Warm/cold hit counters, shared by every [`WarmState`] of one registry
/// so `stats` reports totals across graphs and epochs.
#[derive(Debug, Default)]
pub struct WarmCounters {
    /// Diversity-profile requests served by an existing warm profile.
    pub diversity_hits: AtomicU64,
    /// Diversity-profile requests that had to build a fresh profile.
    pub diversity_misses: AtomicU64,
    /// Plan requests served from the warm plan pool.
    pub plan_hits: AtomicU64,
    /// Plan requests that had to parse and plan from scratch.
    pub plan_misses: AtomicU64,
}

impl WarmCounters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// The warm evaluation state of one `(graph, epoch)`.
#[derive(Debug)]
pub struct WarmState {
    epoch: u64,
    diversity: Mutex<HashMap<LabelId, Arc<DiversityProfile>>>,
    plans: Mutex<HashMap<u64, Arc<WarmPlan>>>,
    counters: Arc<WarmCounters>,
}

impl WarmState {
    /// An empty warm state for `epoch`, reporting into `counters`.
    pub fn new(epoch: u64, counters: Arc<WarmCounters>) -> Self {
        Self {
            epoch,
            diversity: Mutex::new(HashMap::new()),
            plans: Mutex::new(HashMap::new()),
            counters,
        }
    }

    /// The graph epoch this state was built for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The diversity profile of `output_label`, building it on first
    /// request. The profile depends on the label only; the unread
    /// `DiversityConfig` argument and the method's name are the call
    /// shape `perf/` compiles against, and go in the next `benchmark` PR.
    pub fn diversity_cache(
        &self,
        graph: &Graph,
        output_label: LabelId,
        _config: &DiversityConfig,
    ) -> Arc<DiversityProfile> {
        let mut map = crate::sync::lock(&self.diversity);
        match map.entry(output_label) {
            std::collections::hash_map::Entry::Occupied(e) => {
                WarmCounters::bump(&self.counters.diversity_hits);
                Arc::clone(e.get())
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                WarmCounters::bump(&self.counters.diversity_misses);
                Arc::clone(e.insert(Arc::new(DiversityProfile::new(graph, output_label))))
            }
        }
    }

    /// The warm plan stored under `key`, if any. A miss is counted here;
    /// the caller plans cold and publishes via [`Self::store_plan`].
    pub fn plan(&self, key: u64) -> Option<Arc<WarmPlan>> {
        let map = crate::sync::lock(&self.plans);
        match map.get(&key) {
            Some(p) => {
                WarmCounters::bump(&self.counters.plan_hits);
                Some(Arc::clone(p))
            }
            None => {
                WarmCounters::bump(&self.counters.plan_misses);
                None
            }
        }
    }

    /// Publishes a cold-planned job skeleton under `key`. First writer
    /// wins (plans for one key are identical by construction).
    pub fn store_plan(&self, key: u64, plan: Arc<WarmPlan>) {
        crate::sync::lock(&self.plans).entry(key).or_insert(plan);
    }

    /// Approximate resident bytes of everything this state holds.
    pub fn approx_bytes(&self) -> usize {
        let diversity: usize = crate::sync::lock(&self.diversity)
            .values()
            .map(|c| c.approx_bytes())
            .sum();
        let plans: usize = crate::sync::lock(&self.plans)
            .values()
            .map(|p| p.approx_bytes())
            .sum();
        diversity + plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsqg_datagen::{social_graph, SocialConfig};
    use fairsqg_measures::Relevance;

    fn graph() -> Graph {
        social_graph(SocialConfig {
            directors: 30,
            majority_share: 0.6,
            seed: 7,
        })
    }

    #[test]
    fn lambda_does_not_split_diversity_caches() {
        let g = graph();
        let label = g.schema().find_node_label("director").unwrap();
        let counters = Arc::new(WarmCounters::default());
        let warm = WarmState::new(1, Arc::clone(&counters));
        let a = warm.diversity_cache(&g, label, &DiversityConfig::default());
        let b = warm.diversity_cache(
            &g,
            label,
            &DiversityConfig {
                lambda: 0.9,
                ..DiversityConfig::default()
            },
        );
        assert!(Arc::ptr_eq(&a, &b), "λ must not key the cache");
        assert_eq!(counters.diversity_hits.load(Ordering::Relaxed), 1);
        assert_eq!(counters.diversity_misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn profiles_split_by_label_only() {
        let g = graph();
        let director = g.schema().find_node_label("director").unwrap();
        let user = g.schema().find_node_label("user").unwrap();
        let warm = WarmState::new(1, Arc::new(WarmCounters::default()));
        let base = warm.diversity_cache(&g, director, &DiversityConfig::default());
        let other_config = warm.diversity_cache(
            &g,
            director,
            &DiversityConfig {
                relevance: Relevance::Uniform(0.5),
                pair_cap: 64,
                seed: 99,
                ..DiversityConfig::default()
            },
        );
        let other_label = warm.diversity_cache(&g, user, &DiversityConfig::default());
        assert!(Arc::ptr_eq(&base, &other_config));
        assert!(!Arc::ptr_eq(&base, &other_label));
    }

    #[test]
    fn plan_pool_counts_hits_and_misses() {
        let counters = Arc::new(WarmCounters::default());
        let warm = WarmState::new(1, Arc::clone(&counters));
        assert!(warm.plan(42).is_none());
        assert_eq!(counters.plan_misses.load(Ordering::Relaxed), 1);
    }
}
