//! Job specifications and their execution.
//!
//! A [`JobSpec`] is the wire-level description of one generation request:
//! which registered graph, which template (DSL text), how groups are
//! induced, and the generation parameters. [`run_spec`] executes a spec
//! against a graph — this is the single code path shared by the engine
//! workers and the CLI's JSON output, so the served results and
//! `fairsqg generate --format json` render identically.

use crate::warm::{PlanKey, WarmPlan, WarmState};
use fairsqg_algo::{
    biqgen, cbm, effective_threads, enum_qgen, kungs, par_enum_qgen, rfqgen, ArchiveEntry,
    ArchiveObserver, BiQGenOptions, CancelToken, CbmOptions, Configuration, Generated, MatchBudget,
    RfQGenOptions,
};
use fairsqg_graph::{AttrValue, CoverageSpec, Graph, GroupSet};
use fairsqg_measures::{DiversityConfig, DiversityProfile};
use fairsqg_query::{
    parse_template, render_concrete_query, render_instance, ConcreteQuery, DomainConfig,
    LatticeIndex, RefinementDomains,
};
use fairsqg_wire::Value;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Which generation algorithm a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoKind {
    /// Naive enumeration baseline.
    EnumQGen,
    /// Exact Pareto set (Kung's algorithm).
    Kungs,
    /// ε-constraint bi-objective baseline.
    Cbm,
    /// Depth-first refinement with pruning.
    RfQGen,
    /// Bi-directional generation with sandwich pruning.
    BiQGen,
    /// The lattice sweep on several self-scheduling workers (archive
    /// identical to `enum`).
    ParEnum,
}

impl AlgoKind {
    /// Parses the wire name (`enum|kungs|cbm|rfqgen|biqgen|parenum`).
    pub fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "enum" => Self::EnumQGen,
            "kungs" => Self::Kungs,
            "cbm" => Self::Cbm,
            "rfqgen" => Self::RfQGen,
            "biqgen" => Self::BiQGen,
            "parenum" => Self::ParEnum,
            other => return Err(format!("unknown algorithm '{other}'")),
        })
    }

    /// The wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::EnumQGen => "enum",
            Self::Kungs => "kungs",
            Self::Cbm => "cbm",
            Self::RfQGen => "rfqgen",
            Self::BiQGen => "biqgen",
            Self::ParEnum => "parenum",
        }
    }
}

/// One generation request.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Name of a graph in the registry.
    pub graph: String,
    /// Template DSL text (see `fairsqg_query::parse_template`).
    pub template: String,
    /// Attribute inducing one group per distinct value over the output
    /// label's population.
    pub group_attr: String,
    /// Required matches per group (equal-opportunity coverage).
    pub cover: u32,
    /// Algorithm to run.
    pub algo: AlgoKind,
    /// Worker threads for `parenum` (`0` = one per hardware thread;
    /// requests above the hardware are clamped — the response's
    /// `threads_used` reports the actual pool). Ignored by the
    /// sequential algorithms.
    pub threads: usize,
    /// ε-dominance tolerance.
    pub eps: f64,
    /// Diversity trade-off λ.
    pub lambda: f64,
    /// Per-job deadline in milliseconds (`None` = engine default).
    pub deadline_ms: Option<u64>,
    /// Per-verification resource caps (unset axes fall back to the
    /// engine's defaults at admission).
    pub budget: MatchBudget,
    /// Client-supplied idempotency key: resubmitting with the same key
    /// returns the original job id instead of running the job again.
    pub request_key: Option<String>,
    /// Scheduling priority in `0..=9` (higher = more important; default
    /// 1). Under load shedding, submissions below the engine's shed
    /// threshold are rejected first, and a full queue prefers evicting
    /// its lowest-priority waiter over bouncing a higher-priority
    /// newcomer.
    pub priority: u8,
    /// Client identity for per-client concurrency quotas. Usually left
    /// unset — the server stamps each connection's identity — but an
    /// explicit value lets a proxy attribute jobs to its own tenants.
    pub client: Option<String>,
    /// Stream Pareto-archive deltas while the job runs (multiplexed
    /// server only). Delivery-layer metadata: the computed archive is
    /// identical either way, so like deadlines this is excluded from
    /// the cache fingerprint.
    pub subscribe: bool,
}

/// The highest admissible [`JobSpec::priority`]; wire values above it are
/// clamped.
pub const MAX_PRIORITY: u8 = 9;

/// The priority a submission gets when it doesn't ask for one.
pub const DEFAULT_PRIORITY: u8 = 1;

impl JobSpec {
    /// Parses a spec from the wire object (the `job` field of a `submit`).
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let field = |name: &str| {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("job.{name} (string) is required"))
        };
        let eps = v.get("eps").and_then(Value::as_f64).unwrap_or(0.1);
        let lambda = v.get("lambda").and_then(Value::as_f64).unwrap_or(0.5);
        let cover = v
            .get("cover")
            .and_then(Value::as_u64)
            .ok_or("job.cover (integer) is required")?;
        let cover = u32::try_from(cover).map_err(|_| "job.cover out of range".to_string())?;
        let spec = Self {
            graph: field("graph")?,
            template: field("template")?,
            group_attr: field("group_attr")?,
            cover,
            algo: AlgoKind::parse(v.get("algo").and_then(Value::as_str).unwrap_or("biqgen"))?,
            threads: v.get("threads").and_then(Value::as_u64).unwrap_or(0) as usize,
            eps,
            lambda,
            deadline_ms: v.get("deadline_ms").and_then(Value::as_u64),
            budget: MatchBudget {
                max_candidates: v.get("max_candidates").and_then(Value::as_u64),
                max_steps: v.get("max_steps").and_then(Value::as_u64),
                max_matches: v.get("max_matches").and_then(Value::as_u64),
            },
            request_key: v
                .get("request_key")
                .and_then(Value::as_str)
                .map(str::to_string),
            priority: v
                .get("priority")
                .and_then(Value::as_u64)
                .map_or(DEFAULT_PRIORITY, |p| p.min(MAX_PRIORITY as u64) as u8),
            client: v.get("client").and_then(Value::as_str).map(str::to_string),
            subscribe: v.get("subscribe").and_then(Value::as_bool).unwrap_or(false),
        };
        spec.check_parameters()?;
        Ok(spec)
    }

    /// Refuses generation parameters no run may take: a λ outside
    /// `[0, 1]` (the paper's trade-off range; outside it `δ` goes negative
    /// or overflows) and an ε that is not a finite positive number. Served
    /// jobs and the CLI both call it before planning.
    pub fn check_parameters(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.lambda) {
            return Err(format!("lambda must be in [0, 1], got {:?}", self.lambda));
        }
        if !(self.eps.is_finite() && self.eps > 0.0) {
            return Err(format!(
                "eps must be a finite positive number, got {:?}",
                self.eps
            ));
        }
        Ok(())
    }

    /// The wire form of this spec.
    pub fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("graph", Value::from(self.graph.as_str())),
            ("template", Value::from(self.template.as_str())),
            ("group_attr", Value::from(self.group_attr.as_str())),
            ("cover", Value::from(self.cover as i64)),
            ("algo", Value::from(self.algo.name())),
            ("eps", Value::from(self.eps)),
            ("lambda", Value::from(self.lambda)),
        ];
        if self.threads != 0 {
            pairs.push(("threads", Value::from(self.threads as i64)));
        }
        if let Some(d) = self.deadline_ms {
            pairs.push(("deadline_ms", Value::from(d as i64)));
        }
        if let Some(c) = self.budget.max_candidates {
            pairs.push(("max_candidates", Value::from(c as i64)));
        }
        if let Some(s) = self.budget.max_steps {
            pairs.push(("max_steps", Value::from(s as i64)));
        }
        if let Some(m) = self.budget.max_matches {
            pairs.push(("max_matches", Value::from(m as i64)));
        }
        if let Some(k) = &self.request_key {
            pairs.push(("request_key", Value::from(k.as_str())));
        }
        if self.priority != DEFAULT_PRIORITY {
            pairs.push(("priority", Value::from(self.priority as i64)));
        }
        if let Some(c) = &self.client {
            pairs.push(("client", Value::from(c.as_str())));
        }
        if self.subscribe {
            pairs.push(("subscribe", Value::from(true)));
        }
        Value::object(pairs)
    }

    /// Cache fingerprint: graph epoch + template text + every parameter
    /// that affects the result. The free-text fields (graph name, template,
    /// group attribute) are length-prefixed, so no two specs share a key:
    /// a digest of the template would let a crafted colliding template be
    /// served another tenant's archive. Deadlines, the idempotency key, the
    /// thread count, the priority, the client identity, and the
    /// `subscribe` flag are deliberately excluded — a completed (non-truncated) result is
    /// valid whatever deadline, priority, or submitter produced it, and
    /// `parenum`'s archive is identical at any thread count — but the
    /// resource caps are included because a tripped budget changes the
    /// archive. With two or more `parenum` workers, where a budget trips
    /// depends on the schedule (each instance is verified against whichever
    /// ancestors had finished). That is harmless to the key: the engine's
    /// settle path never caches a truncated result.
    pub fn fingerprint(&self, graph_epoch: u64) -> String {
        use std::fmt::Write as _;
        let cap = |o: Option<u64>| o.map_or_else(|| "-".to_string(), |v| v.to_string());
        let (g, t, ga) = (&self.graph, &self.template, &self.group_attr);
        let mut key = String::with_capacity(g.len() + t.len() + ga.len() + 128);
        let _ = write!(
            key,
            "g={}:{g}#{graph_epoch};t={}:{t};a={};ga={}:{ga};c={};e={};l={};mc={};ms={};mm={}",
            g.len(),
            t.len(),
            self.algo.name(),
            ga.len(),
            self.cover,
            self.eps,
            self.lambda,
            cap(self.budget.max_candidates),
            cap(self.budget.max_steps),
            cap(self.budget.max_matches),
        );
        key
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fully planned job: parsed template, induced groups, built domains.
/// The skeleton lives in an `Arc<WarmPlan>` so the service's warm-state
/// layer can share it across jobs; `Deref` keeps field access
/// (`plan.template`, `plan.domains`, …) working as before.
pub struct Plan<'g> {
    warm: Arc<WarmPlan>,
    graph: &'g Graph,
}

impl std::ops::Deref for Plan<'_> {
    type Target = WarmPlan;

    fn deref(&self) -> &WarmPlan {
        &self.warm
    }
}

/// A 64-bit digest of a spec's planning inputs: the overload model's job
/// class id, where a collision only blurs an estimate. It identifies
/// nothing served — the warm plan pool keys on the inputs themselves
/// ([`PlanKey`]) and the result cache on the template text.
pub fn plan_key(spec: &JobSpec) -> u64 {
    let mut key = fnv1a(spec.template.as_bytes());
    key ^= fnv1a(spec.group_attr.as_bytes()).rotate_left(17);
    key ^ (spec.cover as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Parses and plans `spec` against `graph` (no verification happens yet).
/// The plan carries no match table.
pub fn plan_spec<'g>(graph: &'g Graph, spec: &JobSpec) -> Result<Plan<'g>, String> {
    Ok(Plan {
        warm: Arc::new(plan_skeleton(graph, spec)?),
        graph,
    })
}

/// Refuses a spec whose instance lattice `I(Q)` has more instances than a
/// `usize` can index: nothing could verify it, and the generators'
/// configuration panics on it. Cheap (a parse and the graph's cached
/// active domains), so admission runs it and answers `bad_request`; a
/// template that does not parse passes here and fails its planning.
pub(crate) fn check_lattice(graph: &Graph, spec: &JobSpec) -> Result<(), String> {
    match parse_template(graph.schema(), &spec.template) {
        Ok(template) => indexable(&RefinementDomains::build(
            &template,
            graph,
            DomainConfig::default(),
        )),
        Err(_) => Ok(()),
    }
}

fn indexable(domains: &RefinementDomains) -> Result<(), String> {
    match LatticeIndex::new(domains) {
        Some(_) => Ok(()),
        None => Err(format!(
            "the template has more than {} instances; drop a range variable",
            usize::MAX
        )),
    }
}

fn plan_skeleton(graph: &Graph, spec: &JobSpec) -> Result<WarmPlan, String> {
    let template = parse_template(graph.schema(), &spec.template).map_err(|e| e.to_string())?;
    let attr = graph
        .schema()
        .find_attr(&spec.group_attr)
        .ok_or_else(|| format!("attribute '{}' not in the graph", spec.group_attr))?;
    let values: BTreeSet<AttrValue> = graph
        .nodes_with_label(template.output_label())
        .iter()
        .filter_map(|&v| graph.attr(v, attr))
        .collect();
    if values.is_empty() {
        return Err(format!(
            "no '{}' values on the output label population",
            spec.group_attr
        ));
    }
    if values.len() > 16 {
        return Err(format!(
            "'{}' has {} distinct values; choose a categorical attribute",
            spec.group_attr,
            values.len()
        ));
    }
    let values: Vec<AttrValue> = values.into_iter().collect();
    let groups = GroupSet::by_attribute(graph, attr, &values);
    let coverage = CoverageSpec::equal_opportunity(groups.len(), spec.cover);
    let domains = RefinementDomains::build(&template, graph, DomainConfig::default());
    indexable(&domains)?;
    Ok(WarmPlan {
        template,
        domains,
        groups,
        spec: coverage,
        matches: None,
    })
}

/// Like [`plan_spec`], but consults (and feeds) `warm`'s plan pool:
/// repeated templates on the same graph epoch skip parsing and domain
/// construction entirely, and share the pooled plan's match table.
/// Planning *errors* are not memoized — they are cheap to re-derive and a
/// pooled error could outlive its cause.
pub fn plan_spec_cached<'g>(
    graph: &'g Graph,
    spec: &JobSpec,
    warm: &WarmState,
) -> Result<Plan<'g>, String> {
    let key = PlanKey::of(spec);
    let shared = match warm.plan(&key) {
        Some(shared) => shared,
        None => warm.store_plan(key, plan_skeleton(graph, spec)?),
    };
    Ok(Plan {
        warm: shared,
        graph,
    })
}

/// The diversity configuration a spec runs under.
pub fn diversity_for_spec(spec: &JobSpec) -> DiversityConfig {
    DiversityConfig {
        lambda: spec.lambda,
        ..DiversityConfig::default()
    }
}

/// Runs a planned job, observing `cancel` between verifications.
pub fn run_plan(plan: &Plan<'_>, spec: &JobSpec, cancel: &CancelToken) -> Generated {
    run_plan_shared(plan, spec, cancel, None)
}

/// Like [`run_plan`], with an optional pre-built diversity profile (the
/// warm-state layer's, pooled per `(graph, epoch, output label)`). The
/// archive is bit-identical with or without it.
pub fn run_plan_shared(
    plan: &Plan<'_>,
    spec: &JobSpec,
    cancel: &CancelToken,
    shared: Option<&Arc<DiversityProfile>>,
) -> Generated {
    run_plan_observed(plan, spec, cancel, shared, None, None)
}

/// Like [`run_plan_shared`], with an optional budget override — the
/// engine's brownout path, which substitutes the tightened caps (already
/// tightened by the caller) without mutating the job's recorded spec —
/// and an optional [`ArchiveObserver`] watching the anytime loop's
/// archive — the streaming path. Observation is passive: the archive, and
/// therefore the final result, is bit-identical with or without an
/// observer attached. A pooled plan's match table is attached too, so the
/// run reuses every instance an earlier job on the plan verified.
pub fn run_plan_observed(
    plan: &Plan<'_>,
    spec: &JobSpec,
    cancel: &CancelToken,
    shared: Option<&Arc<DiversityProfile>>,
    budget: Option<MatchBudget>,
    observer: Option<&dyn ArchiveObserver>,
) -> Generated {
    let mut cfg = Configuration::new(
        plan.graph,
        &plan.template,
        &plan.domains,
        &plan.groups,
        &plan.spec,
        spec.eps,
        diversity_for_spec(spec),
    )
    .with_cancel(cancel)
    .with_budget(budget.unwrap_or(spec.budget));
    if let Some(shared) = shared {
        cfg = cfg.with_shared_diversity(shared);
    }
    // A budget-capped run (a job's own caps or brownout's) neither reads
    // nor publishes: `Configuration::match_table` bypasses it.
    if let Some(table) = &plan.matches {
        cfg = cfg.with_shared_matches(table);
    }
    if let Some(obs) = observer {
        cfg = cfg.with_progress(obs);
    }
    match spec.algo {
        AlgoKind::EnumQGen => enum_qgen(cfg, false),
        AlgoKind::Kungs => kungs(cfg),
        AlgoKind::Cbm => cbm(cfg, CbmOptions::default()),
        AlgoKind::RfQGen => rfqgen(cfg, RfQGenOptions::default()),
        AlgoKind::BiQGen => biqgen(cfg, BiQGenOptions::default()),
        AlgoKind::ParEnum => par_enum_qgen(cfg, effective_threads(spec.threads)),
    }
}

/// How a brownout-degraded run was constrained, for the result's
/// `stats.brownout` flag. Results carrying this mark are valid ε-Pareto
/// archives — just computed under tighter caps, so possibly coarser —
/// and are never admitted to the result cache.
#[derive(Debug, Clone, Copy)]
pub struct BrownoutMark {
    /// The pressure-level name the job ran under (`degraded`/`shedding`).
    pub level: &'static str,
    /// The budget actually applied.
    pub budget: MatchBudget,
}

impl BrownoutMark {
    fn to_value(self) -> Value {
        let cap = |o: Option<u64>| o.map_or(Value::Null, |v| Value::from(v as i64));
        Value::object([
            ("level", Value::from(self.level)),
            ("max_candidates", cap(self.budget.max_candidates)),
            ("max_steps", cap(self.budget.max_steps)),
            ("max_matches", cap(self.budget.max_matches)),
        ])
    }
}

/// Renders one archive entry into its wire form — the single renderer
/// shared by [`generated_to_value_with`] and the streaming delta path,
/// so a delta-reconstructed archive is byte-identical to the final
/// result's `entries`. The `bindings` string doubles as the entry's
/// identity key across delta frames (it is injective in the
/// instantiation).
pub fn entry_to_value(plan: &Plan<'_>, e: &ArchiveEntry) -> Value {
    let schema = plan.graph.schema();
    let counts: Vec<Value> = e
        .result
        .counts
        .iter()
        .map(|&c| Value::from(c as i64))
        .collect();
    let q = ConcreteQuery::materialize(&plan.template, &plan.domains, &e.inst);
    Value::object([
        ("delta", Value::from(e.result.objectives.delta)),
        ("fcov", Value::from(e.result.objectives.fcov)),
        ("matches", Value::from(e.result.matches.len() as i64)),
        ("group_counts", Value::Array(counts)),
        (
            "bindings",
            Value::from(render_instance(schema, &plan.template, &plan.domains, &e.inst).as_str()),
        ),
        (
            "query",
            Value::from(render_concrete_query(schema, &q).as_str()),
        ),
    ])
}

/// The identity key of an archive entry across streamed delta frames:
/// its rendered `bindings` string (injective in the instantiation, and
/// exactly what [`entry_to_value`] stamps on the wire form).
pub fn entry_bindings(plan: &Plan<'_>, e: &ArchiveEntry) -> String {
    render_instance(plan.graph.schema(), &plan.template, &plan.domains, &e.inst)
}

/// Renders a generation result into its wire form. Entries are sorted by
/// descending coverage, then descending diversity (the CLI's order).
pub fn generated_to_value(plan: &Plan<'_>, out: &Generated) -> Value {
    generated_to_value_with(plan, out, None)
}

/// Like [`generated_to_value`], stamping `stats.brownout` when the run
/// was degraded (`Null` on a nominal run, so clients can always read the
/// field).
pub fn generated_to_value_with(
    plan: &Plan<'_>,
    out: &Generated,
    brownout: Option<&BrownoutMark>,
) -> Value {
    let mut entries = out.entries.clone();
    entries.sort_by(|a, b| {
        b.objectives()
            .fcov
            .partial_cmp(&a.objectives().fcov)
            .unwrap()
            .then(
                b.objectives()
                    .delta
                    .partial_cmp(&a.objectives().delta)
                    .unwrap(),
            )
    });
    let rendered: Vec<Value> = entries.iter().map(|e| entry_to_value(plan, e)).collect();
    Value::object([
        ("eps", Value::from(out.eps)),
        ("truncated", Value::from(out.truncated)),
        ("entries", Value::Array(rendered)),
        (
            "stats",
            Value::object([
                ("spawned", Value::from(out.stats.spawned as i64)),
                ("verified", Value::from(out.stats.verified as i64)),
                ("cache_hits", Value::from(out.stats.cache_hits as i64)),
                (
                    "pruned_infeasible",
                    Value::from(out.stats.pruned_infeasible as i64),
                ),
                (
                    "pruned_sandwich",
                    Value::from(out.stats.pruned_sandwich as i64),
                ),
                (
                    "elapsed_ms",
                    Value::from(out.stats.elapsed.as_secs_f64() * 1e3),
                ),
                ("threads_used", Value::from(out.stats.threads_used as i64)),
                (
                    "index_candidates",
                    Value::from(out.stats.index_candidates as i64),
                ),
                (
                    "scan_candidates",
                    Value::from(out.stats.scan_candidates as i64),
                ),
                (
                    "scan_fallbacks",
                    Value::from(out.stats.scan_fallbacks as i64),
                ),
                (
                    "pool_restrictions",
                    Value::from(out.stats.pool_restrictions as i64),
                ),
                ("order_replans", Value::from(out.stats.order_replans as i64)),
                (
                    "cand_memo_hits",
                    Value::from(out.stats.cand_memo_hits as i64),
                ),
                ("witness_hits", Value::from(out.stats.witness_hits as i64)),
                (
                    "warm_match_hits",
                    Value::from(out.stats.warm_match_hits as i64),
                ),
                (
                    "warm_spawn_hits",
                    Value::from(out.stats.warm_spawn_hits as i64),
                ),
                (
                    "budget_tripped",
                    match out.stats.budget_tripped {
                        Some(t) => Value::object([
                            ("budget", Value::from(t.kind.name())),
                            ("limit", Value::from(t.limit as i64)),
                        ]),
                        None => Value::Null,
                    },
                ),
                ("brownout", brownout.map_or(Value::Null, |m| m.to_value())),
            ]),
        ),
    ])
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fairsqg_datagen::{social_graph, SocialConfig};

    pub(crate) const TEMPLATE: &str = "\
        node u0 : director\n\
        node u1 : user\n\
        edge u1 -recommend-> u0\n\
        where u1.yearsOfExp >= ?\n\
        output u0\n";

    fn graph() -> Graph {
        social_graph(SocialConfig {
            directors: 60,
            majority_share: 0.6,
            seed: 5,
        })
    }

    pub(crate) fn spec() -> JobSpec {
        JobSpec {
            graph: "g".into(),
            template: TEMPLATE.into(),
            group_attr: "gender".into(),
            cover: 5,
            algo: AlgoKind::BiQGen,
            threads: 0,
            eps: 0.1,
            lambda: 0.5,
            deadline_ms: None,
            budget: MatchBudget::UNLIMITED,
            request_key: None,
            priority: DEFAULT_PRIORITY,
            client: None,
            subscribe: false,
        }
    }

    #[test]
    fn roundtrips_through_wire() {
        let v = spec().to_value();
        let back = JobSpec::from_value(&v).unwrap();
        assert_eq!(back.graph, "g");
        assert_eq!(back.algo, AlgoKind::BiQGen);
        assert_eq!(back.cover, 5);
        assert!(!back.subscribe, "subscribe defaults off");
        let mut sub = spec();
        sub.subscribe = true;
        let back = JobSpec::from_value(&sub.to_value()).unwrap();
        assert!(back.subscribe, "subscribe survives the round trip");
    }

    #[test]
    fn fingerprint_changes_with_epoch_and_params() {
        let s = spec();
        let a = s.fingerprint(1);
        assert_ne!(a, s.fingerprint(2));
        let mut s2 = s.clone();
        s2.eps = 0.2;
        assert_ne!(a, s2.fingerprint(1));
        let mut s3 = s.clone();
        s3.deadline_ms = Some(9);
        assert_eq!(a, s3.fingerprint(1), "deadline must not affect the key");
    }

    #[test]
    fn fingerprint_invariant_to_threads() {
        // `parenum` archives are bit-identical at any thread count, so a
        // result computed at threads=4 is a valid cache hit for
        // threads=16 — the fingerprint must not key on it (asserted in
        // PR 4's design notes, pinned here).
        let s = spec();
        let a = s.fingerprint(1);
        for threads in [1usize, 4, 16, 0] {
            let mut st = s.clone();
            st.threads = threads;
            st.algo = AlgoKind::ParEnum;
            let mut base = s.clone();
            base.algo = AlgoKind::ParEnum;
            assert_eq!(
                base.fingerprint(1),
                st.fingerprint(1),
                "threads={threads} must not affect the key"
            );
        }
        // And the idempotency key stays excluded too.
        let mut sk = s.clone();
        sk.request_key = Some("idem".into());
        assert_eq!(a, sk.fingerprint(1));
    }

    #[test]
    fn fingerprint_invariant_to_priority_and_client() {
        // A cached archive is valid whoever asked for it and however
        // urgently: scheduling metadata must never partition the cache.
        let s = spec();
        let a = s.fingerprint(1);
        let mut sp = s.clone();
        sp.priority = 9;
        assert_eq!(a, sp.fingerprint(1), "priority must not affect the key");
        let mut sc = s.clone();
        sc.client = Some("tenant-7".into());
        assert_eq!(a, sc.fingerprint(1), "client must not affect the key");
        // Streaming delivery of the same archive is still the same
        // archive: `subscribe` must never partition the cache either.
        let mut ss = s.clone();
        ss.subscribe = true;
        assert_eq!(a, ss.fingerprint(1), "subscribe must not affect the key");
    }

    #[test]
    fn priority_and_client_roundtrip_and_clamp() {
        let mut s = spec();
        s.priority = 7;
        s.client = Some("conn-3".into());
        let back = JobSpec::from_value(&s.to_value()).unwrap();
        assert_eq!(back.priority, 7);
        assert_eq!(back.client.as_deref(), Some("conn-3"));
        // Default when absent; clamped when out of range.
        let bare = JobSpec::from_value(&spec().to_value()).unwrap();
        assert_eq!(bare.priority, DEFAULT_PRIORITY);
        let v = Value::object([
            ("graph", Value::from("g")),
            ("template", Value::from(TEMPLATE)),
            ("group_attr", Value::from("gender")),
            ("cover", Value::from(5i64)),
            ("priority", Value::from(99i64)),
        ]);
        let clamped = JobSpec::from_value(&v).unwrap();
        assert_eq!(clamped.priority, MAX_PRIORITY);
    }

    /// λ is taken on `[0, 1]` inclusive and ε only finite and positive,
    /// by the one check both the wire and the CLI run.
    #[test]
    fn lambda_and_eps_out_of_range_are_refused() {
        let with = |lambda: f64, eps: f64| JobSpec {
            lambda,
            eps,
            ..spec()
        };
        for lambda in [0.0, 0.3, 1.0] {
            assert_eq!(with(lambda, 0.1).check_parameters(), Ok(()), "λ {lambda}");
            let back = JobSpec::from_value(&with(lambda, 0.1).to_value()).unwrap();
            assert_eq!(back.lambda, lambda);
        }
        for lambda in [-0.1, 1.5, 3.0, 1e308, f64::NAN, f64::INFINITY] {
            let err = with(lambda, 0.1).check_parameters().unwrap_err();
            assert!(
                err.contains("lambda must be in [0, 1]"),
                "λ {lambda}: {err}"
            );
        }
        for lambda in [-0.1, 1.5] {
            let err = JobSpec::from_value(&with(lambda, 0.1).to_value()).unwrap_err();
            assert!(err.contains("lambda"), "λ {lambda}: {err}");
        }
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = with(0.5, eps).check_parameters().unwrap_err();
            assert!(
                err.contains("eps must be a finite positive"),
                "ε {eps}: {err}"
            );
        }
        let err = JobSpec::from_value(&with(0.5, -0.5).to_value()).unwrap_err();
        assert!(err.contains("eps"), "{err}");
    }

    #[test]
    fn brownout_mark_lands_in_stats() {
        let g = graph();
        let s = spec();
        let plan = plan_spec(&g, &s).unwrap();
        let out = run_plan(&plan, &s, &CancelToken::new());
        let nominal = generated_to_value(&plan, &out);
        assert!(matches!(
            nominal.get("stats").and_then(|st| st.get("brownout")),
            Some(Value::Null)
        ));
        let mark = BrownoutMark {
            level: "degraded",
            budget: MatchBudget {
                max_steps: Some(1000),
                ..MatchBudget::UNLIMITED
            },
        };
        let degraded = generated_to_value_with(&plan, &out, Some(&mark));
        let b = degraded.get("stats").and_then(|st| st.get("brownout"));
        let b = b.expect("brownout stamped");
        assert_eq!(b.get("level").and_then(Value::as_str), Some("degraded"));
        assert_eq!(b.get("max_steps").and_then(Value::as_u64), Some(1000));
    }

    #[test]
    fn overrides_tighten_the_run() {
        let g = graph();
        let s = spec();
        let plan = plan_spec(&g, &s).unwrap();
        let budget = MatchBudget {
            max_steps: Some(1),
            ..MatchBudget::UNLIMITED
        };
        let out = run_plan_observed(&plan, &s, &CancelToken::new(), None, Some(budget), None);
        assert!(out.truncated, "a one-step budget must trip");
    }

    /// A served job's worker count comes from outside the program, so it
    /// is clamped to the hardware: `0` means every hardware thread and an
    /// oversubscribed request gets no more.
    #[test]
    fn oversubscribed_requests_are_clamped_to_hardware() {
        let g = graph();
        let hw = effective_threads(0);
        assert_eq!(effective_threads(1024), hw);
        assert_eq!(effective_threads(1), 1);
        for (threads, used) in [(1024, hw), (0, hw), (1, 1)] {
            let s = JobSpec {
                algo: AlgoKind::ParEnum,
                threads,
                ..spec()
            };
            let plan = plan_spec(&g, &s).unwrap();
            let out = run_plan(&plan, &s, &CancelToken::new());
            assert_eq!(out.stats.threads_used, used as u64, "threads {threads}");
            assert!(!out.entries.is_empty());
        }
    }

    #[test]
    fn cached_plan_is_shared_and_equivalent() {
        let g = graph();
        let s = spec();
        let warm = crate::warm::WarmState::new(1, std::sync::Arc::new(Default::default()));
        let cold = plan_spec_cached(&g, &s, &warm).unwrap();
        let hot = plan_spec_cached(&g, &s, &warm).unwrap();
        assert!(std::sync::Arc::ptr_eq(&cold.warm, &hot.warm));
        // A different template keys separately.
        let mut s2 = s.clone();
        s2.template = TEMPLATE.replace(">=", "<=");
        assert_ne!(plan_key(&s), plan_key(&s2));
        // Warm-planned jobs run identically to cold-planned ones.
        let direct = plan_spec(&g, &s).unwrap();
        let a = run_plan(&hot, &s, &CancelToken::new());
        let b = run_plan(&direct, &s, &CancelToken::new());
        assert_eq!(a.entries.len(), b.entries.len());
    }

    /// Templates are identified by their text, never by a digest: a plan
    /// stored for one template is not returned for another, and two specs
    /// that differ in their template never share a fingerprint.
    #[test]
    fn a_plan_stored_for_one_template_is_never_returned_for_another() {
        let g = graph();
        let a = spec();
        let b = JobSpec {
            template: TEMPLATE.replace(">=", "<="),
            ..spec()
        };
        let warm = crate::warm::WarmState::new(1, Arc::new(Default::default()));
        let plan_a = plan_spec_cached(&g, &a, &warm).unwrap();
        assert!(warm.plan(&PlanKey::of(&b)).is_none());
        let plan_b = plan_spec_cached(&g, &b, &warm).unwrap();
        assert!(!Arc::ptr_eq(&plan_a.warm, &plan_b.warm));
        let parsed = |p: &Plan<'_>| format!("{:?}", p.template);
        assert_ne!(parsed(&plan_a), parsed(&plan_b));
        assert_eq!(parsed(&plan_b), parsed(&plan_spec(&g, &b).unwrap()));
        assert_ne!(a.fingerprint(1), b.fingerprint(1));
        // Free text cannot forge another spec's fields: a template that
        // carries the next field's text still keys apart.
        let forged = JobSpec {
            template: format!("{TEMPLATE};a=biqgen;ga=gender"),
            group_attr: "x".into(),
            ..spec()
        };
        assert!(forged
            .fingerprint(1)
            .contains(&format!("t={}:", forged.template.len())));
        assert_ne!(forged.fingerprint(1), a.fingerprint(1));
    }

    #[test]
    fn plan_and_run_produce_entries() {
        let g = graph();
        let s = spec();
        let plan = plan_spec(&g, &s).unwrap();
        let out = run_plan(&plan, &s, &CancelToken::new());
        assert!(!out.truncated);
        assert!(!out.entries.is_empty());
        let v = generated_to_value(&plan, &out);
        assert_eq!(v.get("truncated").and_then(Value::as_bool), Some(false));
        assert!(!v
            .get("entries")
            .and_then(Value::as_array)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn cancelled_token_truncates_immediately() {
        let g = graph();
        let s = spec();
        let plan = plan_spec(&g, &s).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let out = run_plan(&plan, &s, &token);
        assert!(out.truncated);
        assert!(out.entries.is_empty());
    }

    #[test]
    fn unknown_attr_is_a_plan_error() {
        let g = graph();
        let mut s = spec();
        s.group_attr = "nope".into();
        assert!(plan_spec(&g, &s).is_err());
    }
}
