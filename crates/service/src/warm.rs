//! Cross-request warm state: per-`(graph, epoch)` evaluation caches.
//!
//! Every job used to start cold — the diversity measure's `O(|V|)`
//! profile, the parsed plan (template + refinement domains + groups) and
//! every match set were rebuilt per request even when hundreds of jobs
//! target the same registered graph. A [`WarmState`] owns that state for
//! one graph epoch, in three tables:
//!
//! * a [`DiversityProfile`] per output label (nothing in a job's
//!   `DiversityConfig` enters it), handed to every job's `Configuration`
//!   via `Arc`;
//! * a pool of parsed [`WarmPlan`]s keyed by the spec's planning inputs
//!   ([`PlanKey`]), so repeated templates skip parsing and domain
//!   construction;
//! * per pooled plan, a [`WarmMatches`] table of verified instances: an
//!   instance's match set and witness rows depend on the plan and the
//!   instance only, so a job reuses what any earlier job on the plan
//!   verified, whatever its λ, ε or algorithm.
//!
//! Profiles and plans are immutable and derived from the graph alone, and
//! a match record is the exact match set of its instance, so warm results
//! are bit-identical to cold ones — `perf/` and
//! `crates/service/tests/warm_state.rs` assert it.
//! The state is keyed by epoch: a graph reload creates a fresh
//! `WarmState` and the old one dies with its last in-flight job. Each
//! state charges everything it stores to one atomic byte count and stores
//! nothing that would take it past its budget (the job keeps the item
//! privately); the registry's warm pool enforces the same budget across
//! graphs with LRU eviction (see `GraphRegistry::warm_state`).

use crate::job::JobSpec;
use fairsqg_algo::{MatchRecord, MatchTable};
use fairsqg_graph::{CoverageSpec, Graph, GroupSet, LabelId, NodeId};
use fairsqg_measures::{DiversityConfig, DiversityProfile};
use fairsqg_query::{Instantiation, QueryTemplate, RefinementDomains};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A parsed, planning-complete job skeleton: everything `plan_spec`
/// derives from `(graph, template text, group_attr, cover)` that does not
/// depend on the generation parameters, plus — once pooled — the table of
/// instances jobs on it verified. Owned types only, so one plan is
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
    /// Verified instances shared by every job on this plan; `None` on a
    /// plan that is not pooled (warm state off, or over budget).
    pub matches: Option<WarmMatches>,
}

impl WarmPlan {
    /// Rough resident size, for the warm pool's byte budget: the
    /// refinement domains, the group membership column (one `u16` per
    /// graph node), and the match table's records.
    pub fn approx_bytes(&self) -> usize {
        self.skeleton_bytes() + self.matches.as_ref().map_or(0, WarmMatches::approx_bytes)
    }

    /// The size of everything but the match table; the template and the
    /// coverage spec are a flat ballpark.
    fn skeleton_bytes(&self) -> usize {
        let mut bytes = 1024;
        for i in 0..self.domains.var_count() {
            bytes += self.domains.domain(i).len() * 16;
        }
        bytes + self.groups.approx_bytes() + self.spec.len() * 4
    }
}

/// What a warm plan is pooled under: everything `plan_spec` reads of a
/// spec, compared in full. A digest of the template would let a crafted
/// colliding template be served another tenant's plan and match sets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    template: String,
    group_attr: String,
    cover: u32,
}

impl PlanKey {
    /// The planning inputs of `spec`.
    pub fn of(spec: &JobSpec) -> Self {
        Self {
            template: spec.template.clone(),
            group_attr: spec.group_attr.clone(),
            cover: spec.cover,
        }
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
    /// Verifications whose match set a plan's table held.
    pub match_hits: AtomicU64,
    /// Verifications that searched because the table did not hold it.
    pub match_misses: AtomicU64,
    /// Profiles, plans and match records not stored because they would
    /// have taken their state past its byte budget.
    pub budget_refusals: AtomicU64,
}

impl WarmCounters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One warm state's resident bytes against its budget. Every item is
/// charged here before it is stored, so reading a state's size takes no
/// lock and a charge that would pass the limit is refused.
#[derive(Debug)]
struct Ledger {
    limit: usize,
    used: AtomicUsize,
    counters: Arc<WarmCounters>,
}

impl Ledger {
    /// Charges `bytes` if the total stays within the limit; counts a
    /// refusal otherwise.
    fn try_charge(&self, bytes: usize) -> bool {
        let charged = self
            .used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                used.checked_add(bytes).filter(|&total| total <= self.limit)
            })
            .is_ok();
        if !charged {
            WarmCounters::bump(&self.counters.budget_refusals);
        }
        charged
    }
}

/// Bookkeeping charged per match record on top of its node ids: the map
/// slot, the instantiation's and the record's headers, the two `Arc`
/// headers and allocator rounding.
const RECORD_OVERHEAD: usize = 128;

/// A pooled plan's table of verified instances: each maps to the `Arc` of
/// its match set and witness rows. The service's [`MatchTable`]: jobs read
/// it on an evaluator-cache miss and publish every search they finish.
#[derive(Debug)]
pub struct WarmMatches {
    records: RwLock<HashMap<Instantiation, Arc<MatchRecord>>>,
    bytes: AtomicUsize,
    ledger: Arc<Ledger>,
}

impl WarmMatches {
    /// Instances held.
    pub fn len(&self) -> usize {
        crate::sync::read(&self.records).len()
    }

    /// Whether the table holds no instance.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes charged for the records held.
    pub fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl MatchTable for WarmMatches {
    fn get(&self, inst: &Instantiation) -> Option<Arc<MatchRecord>> {
        let hit = crate::sync::read(&self.records).get(inst).cloned();
        let counters = &self.ledger.counters;
        WarmCounters::bump(match hit {
            Some(_) => &counters.match_hits,
            None => &counters.match_misses,
        });
        hit
    }

    fn publish(&self, inst: &Instantiation, matches: &[NodeId], rows: &Arc<[NodeId]>) {
        let mut records = crate::sync::write(&self.records);
        // A job racing on the same instance got there first: the match
        // set is the same, so keep the record already charged.
        if records.contains_key(inst) {
            return;
        }
        let bytes = RECORD_OVERHEAD
            + inst.var_count() * size_of::<u16>()
            + (matches.len() + rows.len()) * size_of::<NodeId>();
        if !self.ledger.try_charge(bytes) {
            return;
        }
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        records.insert(
            inst.clone(),
            Arc::new(MatchRecord {
                matches: matches.into(),
                rows: Arc::clone(rows),
            }),
        );
    }
}

/// The warm evaluation state of one `(graph, epoch)`.
#[derive(Debug)]
pub struct WarmState {
    epoch: u64,
    diversity: Mutex<HashMap<LabelId, Arc<DiversityProfile>>>,
    plans: Mutex<HashMap<PlanKey, Arc<WarmPlan>>>,
    ledger: Arc<Ledger>,
}

impl WarmState {
    /// An empty warm state for `epoch`, reporting into `counters`, with no
    /// byte budget of its own.
    pub fn new(epoch: u64, counters: Arc<WarmCounters>) -> Self {
        Self::with_budget(epoch, counters, usize::MAX)
    }

    /// An empty warm state that stores nothing taking it past
    /// `budget_bytes`.
    pub fn with_budget(epoch: u64, counters: Arc<WarmCounters>, budget_bytes: usize) -> Self {
        Self {
            epoch,
            diversity: Mutex::new(HashMap::new()),
            plans: Mutex::new(HashMap::new()),
            ledger: Arc::new(Ledger {
                limit: budget_bytes,
                used: AtomicUsize::new(0),
                counters,
            }),
        }
    }

    /// The graph epoch this state was built for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The diversity profile of `output_label`, building it on first
    /// request. A profile over budget is handed out without being kept.
    /// The profile depends on the label only; the unread
    /// `DiversityConfig` argument and the method's name are the call
    /// shape `perf/` compiles against, and go in the next `benchmark` PR.
    pub fn diversity_cache(
        &self,
        graph: &Graph,
        output_label: LabelId,
        _config: &DiversityConfig,
    ) -> Arc<DiversityProfile> {
        let counters = &self.ledger.counters;
        let mut map = crate::sync::lock(&self.diversity);
        match map.entry(output_label) {
            std::collections::hash_map::Entry::Occupied(e) => {
                WarmCounters::bump(&counters.diversity_hits);
                Arc::clone(e.get())
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                WarmCounters::bump(&counters.diversity_misses);
                let profile = Arc::new(DiversityProfile::new(graph, output_label));
                if self.ledger.try_charge(profile.approx_bytes()) {
                    e.insert(Arc::clone(&profile));
                }
                profile
            }
        }
    }

    /// The warm plan stored under `key`, if any. A miss is counted here;
    /// the caller plans cold and publishes via [`Self::store_plan`].
    pub fn plan(&self, key: &PlanKey) -> Option<Arc<WarmPlan>> {
        let map = crate::sync::lock(&self.plans);
        let counters = &self.ledger.counters;
        match map.get(key) {
            Some(p) => {
                WarmCounters::bump(&counters.plan_hits);
                Some(Arc::clone(p))
            }
            None => {
                WarmCounters::bump(&counters.plan_misses);
                None
            }
        }
    }

    /// Publishes a cold-planned job skeleton (as `plan_spec` builds it,
    /// without a table) under `key` and returns the plan to run: the
    /// pooled one when another job stored it first (plans for one key are
    /// identical by construction); else `plan` itself, pooled with an
    /// empty match table when it fits the budget, and private without a
    /// table when it does not.
    pub fn store_plan(&self, key: PlanKey, mut plan: WarmPlan) -> Arc<WarmPlan> {
        let mut map = crate::sync::lock(&self.plans);
        if let Some(pooled) = map.get(&key) {
            return Arc::clone(pooled);
        }
        if !self.ledger.try_charge(plan.approx_bytes()) {
            return Arc::new(plan);
        }
        plan.matches = Some(WarmMatches {
            records: RwLock::new(HashMap::new()),
            bytes: AtomicUsize::new(0),
            ledger: Arc::clone(&self.ledger),
        });
        let plan = Arc::new(plan);
        map.insert(key, Arc::clone(&plan));
        plan
    }

    /// Approximate resident bytes of everything this state holds.
    pub fn approx_bytes(&self) -> usize {
        self.ledger.used.load(Ordering::Relaxed)
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
        let key = PlanKey {
            template: "t".into(),
            group_attr: "g".into(),
            cover: 1,
        };
        assert!(warm.plan(&key).is_none());
        assert_eq!(counters.plan_misses.load(Ordering::Relaxed), 1);
    }

    /// A plan's size counts its group membership column, one `u16` per
    /// graph node — on a large graph that is most of the plan.
    #[test]
    fn plan_bytes_count_the_group_membership_column() {
        let g = graph();
        let spec = crate::job::tests::spec();
        let warm = WarmState::new(1, Arc::new(WarmCounters::default()));
        let plan = crate::plan_spec_cached(&g, &spec, &warm).unwrap();
        assert!(plan.approx_bytes() >= 2 * g.node_count());
        assert_eq!(warm.approx_bytes(), plan.approx_bytes());
    }
}
