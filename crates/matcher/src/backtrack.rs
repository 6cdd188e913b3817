//! Backtracking subgraph-isomorphism search computing the output match set
//! `q(u_o, G)`.
//!
//! For each candidate `v` of the output node the engine decides whether at
//! least one injective, label/edge/literal-preserving embedding of the
//! query maps `u_o` to `v` (existence semantics — exactly what the match
//! set `q(G)` requires). One search path, each stage kept for a measured
//! reason (the ablation is in `docs/performance.md` §8): candidate sets
//! (cross-call memo → value index → degree filter), the in-call greedy
//! connected order (smallest actual candidate set first, ties to the
//! higher query degree), memoised membership bitsets, and a per-root
//! existence search that re-plans the order suffix when per-position
//! failure counts show the order misjudged selectivity. Each extension is
//! driven through the adjacency list of an already-matched neighbor.
//!
//! [`MatchOptions::use_index`] is the only behavioural switch. Off, it is
//! the reference path the differential tests compare against: candidates
//! by scan, no memo, no bitsets, no re-plan, no witnesses. Results are
//! bit-identical either way: the output node is always position 0, so no
//! ordering decision can change which root candidates extend.
//!
//! **Witnesses.** [`try_match_witnessed`] also returns one embedding per
//! match, a *row* indexed by template node. Handed back through
//! [`MatchOptions::ancestors`] when a refinement of the instance is
//! verified, a row settles its root before any search runs: if it still
//! satisfies every one of the refinement's own constraints it is an
//! embedding of the refinement, so the root matches. That check is sound
//! for any row at all. Only the separate skip of roots absent from an
//! ancestor's match set relies on the ancestors being true ancestors
//! (Lemma 2 (2)).

use crate::budget::{BudgetExceeded, BudgetKind, MatchBudget};
use crate::candidates::{candidates_from_pool_into, candidates_into, candidates_scan_into};
use crate::plan::MatchPlan;
use crate::stats;
use fairsqg_graph::{EdgeLabelId, Graph, NodeBitset, NodeId};
use fairsqg_query::{ConcreteQuery, QNodeId};
use std::sync::atomic::{AtomicBool, Ordering};

/// Options controlling a match-set computation.
#[derive(Debug, Clone, Copy)]
pub struct MatchOptions<'a> {
    /// Restrict output-node candidates to this **sorted** pool. Used by
    /// `incVerify`: a refined instance's match set is contained in its
    /// parent's (Lemma 2 (2)), so only the parent's matches are re-checked.
    pub restrict_output: Option<&'a [NodeId]>,
    /// Compute candidate sets through the graph's sorted value index,
    /// memoise them across calls, probe membership through dense bitsets
    /// and re-plan a failing order (default). Disable for the reference
    /// path — label-population scan, no memo, no bitsets, no re-plan —
    /// the oracle the differential tests hold the default path to.
    /// Results are bit-identical either way.
    pub use_index: bool,
    /// A pre-planned matching order (see
    /// [`plan_matching_order`](crate::plan_matching_order)), used whenever
    /// it [applies to](MatchPlan::applies_to) the concrete instance;
    /// otherwise, and with `None`, the in-call greedy order runs. No
    /// production caller sets it: it stays only because `perf/`'s replay
    /// passes one, and goes with that use in the next `benchmark` PR.
    pub plan: Option<&'a MatchPlan>,
    /// External hard-stop flag, polled every [`STOP_POLL_STEPS`] extension
    /// steps *inside* the backtracking search. When it reads `true` the
    /// search aborts with [`BudgetKind::HardStop`] — the escape hatch for
    /// supervisors whose cooperative cancellation (checked only between
    /// verifications) cannot reach a verification wedged in a huge
    /// candidate product. `None` = never polled (zero cost).
    pub stop: Option<&'a AtomicBool>,
    /// Verified ancestors of the instance, each with its rows (see
    /// [`Witnesses`]). A root absent from any ancestor's match set is
    /// skipped (Lemma 2 (2): sound only for true ancestors); a root whose
    /// ancestor row passes all of this instance's checks matches without
    /// a search (sound for any row). Ignored on the reference path
    /// (`use_index: false`). Default: none.
    pub ancestors: &'a [Witnesses<'a>],
}

impl Default for MatchOptions<'_> {
    fn default() -> Self {
        Self {
            restrict_output: None,
            use_index: true,
            plan: None,
            stop: None,
            ancestors: &[],
        }
    }
}

/// The row entry of a template node that is not active in the instance.
pub const NO_NODE: NodeId = NodeId(u32::MAX);

/// A verified instance's match set with one embedding per match, as
/// [`try_match_witnessed`] returns them.
#[derive(Debug, Clone, Copy)]
pub struct Witnesses<'a> {
    /// The match set, sorted ascending.
    pub matches: &'a [NodeId],
    /// One row per match, in `matches` order, laid end to end: each row
    /// is as long as the template has nodes, holds the image of every
    /// active template node at that node's index and [`NO_NODE`]
    /// elsewhere.
    pub rows: &'a [NodeId],
}

/// How many extension steps pass between hard-stop polls. Power of two so
/// the check compiles to a mask; small enough that escalation latency is
/// microseconds, large enough that the atomic load is free in the noise.
pub const STOP_POLL_STEPS: u64 = 1024;

/// Memoized candidate sets kept per template node across verify calls.
/// Range variables take at most a handful of distinct values per node
/// (`max_values_per_range_var` caps the domain), so a small cap captures
/// effectively every binding while bounding scratch memory.
const CAND_MEMO_CAP: usize = 32;

/// Total extension failures (across positions, since the last plan) that
/// arm an adaptive suffix re-plan at the next root-candidate boundary.
const REPLAN_FAIL_THRESHOLD: u64 = 64;

/// An armed re-plan only fires while failures average at least this many
/// per root candidate processed since the last plan — the signature of a
/// pathological order. Healthy orders backtrack a few times per root no
/// matter how well they are arranged; re-planning on absolute counts
/// alone thrashes dense workloads where nearly every root succeeds.
const REPLAN_FAILS_PER_ROOT: u64 = 8;

/// Re-plan attempts per match-set computation — mis-estimates are
/// corrected once or twice; past that the order is as informed as the
/// fail counters can make it.
const MAX_REPLANS: u32 = 4;

/// An adjacency constraint between two query nodes, oriented from the point
/// of view of the node being extended.
#[derive(Debug, Clone, Copy)]
struct QConstraint {
    /// Position (in matching order) of the already-matched peer.
    peer_pos: usize,
    /// Edge label.
    label: EdgeLabelId,
    /// `true` if the template edge goes `extended -> peer`.
    outgoing: bool,
}

/// Reusable working memory for [`try_match_output_set_with`].
///
/// One verify call allocates candidate vectors, a matching order, a dense
/// membership bitset per large candidate set, and an assignment buffer —
/// then throws them all away. Under Lemma 2 refinement an evaluator issues
/// thousands of verify calls over the same template shape, so owning the
/// buffers in the caller turns that churn into `clear()`s. A fresh
/// `MatchScratch::default()` is always valid; results never depend on
/// what a previous call left behind (every buffer is cleared or fully
/// overwritten before use).
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// Candidate-set buffer pool, one per active query node.
    cand: Vec<Vec<NodeId>>,
    /// Dense membership bitsets for large non-root candidate sets.
    bitsets: Vec<NodeBitset>,
    /// Matching order (indexes into the active-node list).
    order: Vec<usize>,
    /// Which active slots are already ordered.
    in_order: Vec<bool>,
    /// Partial embedding, indexed by order position.
    assignment: Vec<NodeId>,
    /// Extension failures per order position since the last (re-)plan —
    /// the adaptive reordering signal.
    fails: Vec<u64>,
    /// Candidate-set memo across verify calls (indexed path only):
    /// per template node, the degree-filtered candidate sets
    /// keyed by the node's label and bound literals. Sound because a
    /// candidate set depends on nothing else; under Lemma-2 refinement
    /// each node sees only a handful of distinct bindings, so thousands
    /// of verify calls collapse to memo copies.
    memo: Vec<Vec<MemoEntry>>,
    /// `Graph::uid` the memo was filled against. A mismatch clears the
    /// memo, so reusing one scratch across graphs stays correct.
    memo_graph: u64,
}

/// One memoized candidate set (see [`MatchScratch::memo`]).
#[derive(Debug)]
struct MemoEntry {
    label: fairsqg_graph::LabelId,
    literals: Vec<fairsqg_query::BoundLiteral>,
    /// The (out, in) degree requirement the set was filtered under —
    /// part of the key because edge variables change a node's active
    /// edges, and with them the degree filter.
    req: (usize, usize),
    cand: Vec<NodeId>,
    /// Dense membership bitset over `cand`, built lazily on the first
    /// memo hit that needs one (set large enough, not the root slot) and
    /// reused on every later hit — membership construction is the last
    /// per-call cost the memo can amortize. `None` until then.
    bits: Option<NodeBitset>,
}

/// Computes the match set `q(u_o, G)` of the output node, sorted ascending.
pub fn match_output_set(graph: &Graph, query: &ConcreteQuery, opts: MatchOptions) -> Vec<NodeId> {
    match try_match_output_set(graph, query, opts, &MatchBudget::UNLIMITED) {
        Ok(matches) => matches,
        Err(e) => unreachable!("unlimited budget tripped: {e}"),
    }
}

/// Like [`match_output_set`], but stops with a structured
/// [`BudgetExceeded`] as soon as `budget`'s candidate/step/match caps are
/// reached — the worst-case-exponential search can never OOM or livelock
/// past its caps.
pub fn try_match_output_set(
    graph: &Graph,
    query: &ConcreteQuery,
    opts: MatchOptions,
    budget: &MatchBudget,
) -> Result<Vec<NodeId>, BudgetExceeded> {
    try_match_output_set_with(graph, query, opts, budget, &mut MatchScratch::default())
}

/// Like [`try_match_output_set`], but works in caller-owned
/// [`MatchScratch`] buffers so repeated verify calls reuse allocations
/// instead of re-allocating per call. Results are identical.
pub fn try_match_output_set_with(
    graph: &Graph,
    query: &ConcreteQuery,
    opts: MatchOptions,
    budget: &MatchBudget,
    scratch: &mut MatchScratch,
) -> Result<Vec<NodeId>, BudgetExceeded> {
    search(graph, query, opts, budget, scratch, None)
}

/// Like [`try_match_output_set_with`], and also returns the rows of the
/// matches it finds (laid out as [`Witnesses::rows`]): `(matches, rows)`.
/// Pass them as an ancestor of a refinement to let its verification
/// certify roots instead of searching them. Match sets are identical.
pub fn try_match_witnessed(
    graph: &Graph,
    query: &ConcreteQuery,
    opts: MatchOptions,
    budget: &MatchBudget,
    scratch: &mut MatchScratch,
) -> Result<(Vec<NodeId>, Vec<NodeId>), BudgetExceeded> {
    let mut rows = Vec::new();
    let matches = search(graph, query, opts, budget, scratch, Some(&mut rows))?;
    Ok((matches, rows))
}

/// The one search path; `rows`, when given, receives a row per match.
fn search(
    graph: &Graph,
    query: &ConcreteQuery,
    opts: MatchOptions,
    budget: &MatchBudget,
    scratch: &mut MatchScratch,
    mut rows: Option<&mut Vec<NodeId>>,
) -> Result<Vec<NodeId>, BudgetExceeded> {
    let MatchScratch {
        cand: cand_pool,
        bitsets,
        order,
        in_order,
        assignment,
        fails,
        memo,
        memo_graph,
    } = scratch;
    if *memo_graph != graph.uid() {
        *memo_graph = graph.uid();
        memo.clear();
    }
    let active: Vec<QNodeId> = query.active_nodes().collect();
    debug_assert!(active.contains(&query.output));

    // Degree requirements per active query node: a match must have at
    // least as many outgoing/incoming edges as the query node (sound
    // filter: embeddings are injective and edge-preserving).
    let degree_req = |u: QNodeId| -> (usize, usize) {
        let out = query.edges.iter().filter(|&&(s, _, _)| s == u).count();
        let inc = query.edges.iter().filter(|&&(_, d, _)| d == u).count();
        (out, inc)
    };

    // Candidate sets per active query node, computed into the scratch
    // buffer pool (one reusable allocation per active slot). Construction
    // work is charged against the step budget (one step per candidate
    // kept) so a pathological template cannot burn unbounded time before
    // the first backtrack step.
    let mut steps: u64 = 0;
    if cand_pool.len() < active.len() {
        cand_pool.resize_with(active.len(), Vec::new);
    }
    let cand = &mut cand_pool[..active.len()];
    // Which memo entry (node index, entry index) each slot's candidate
    // set lives in — lets the membership phase reuse the entry's cached
    // bitset instead of rebuilding one per call.
    let mut memo_src: Vec<Option<(usize, usize)>> = vec![None; active.len()];
    for (slot, &u) in active.iter().enumerate() {
        check_stop(opts.stop)?;
        let c = &mut cand[slot];
        let node = &query.nodes[u.index()];
        // The memo only covers unrestricted sets: the output node under a
        // `restrict_output` pool sees a different pool per call.
        let memoable = opts.use_index && (u != query.output || opts.restrict_output.is_none());
        let (out_req, in_req) = degree_req(u);
        let hit = if memoable {
            memo.get(u.index()).and_then(|entries| {
                entries.iter().position(|e| {
                    e.label == node.label
                        && e.req == (out_req, in_req)
                        && e.literals == node.literals
                })
            })
        } else {
            None
        };
        if let Some(i) = hit {
            c.clear();
            c.extend_from_slice(&memo[u.index()][i].cand);
            memo_src[slot] = Some((u.index(), i));
            stats::count_cand_memo_hits();
        } else {
            let compute = if opts.use_index {
                candidates_into
            } else {
                candidates_scan_into
            };
            if u == query.output {
                match opts.restrict_output {
                    Some(pool) => candidates_from_pool_into(graph, query, u, pool, c),
                    None => compute(graph, query, u, c),
                }
            } else {
                compute(graph, query, u, c)
            }
            if out_req > 0 || in_req > 0 {
                c.retain(|&v| graph.out_degree(v) >= out_req && graph.in_degree(v) >= in_req);
            }
            if memoable {
                if memo.len() <= u.index() {
                    memo.resize_with(u.index() + 1, Vec::new);
                }
                let entries = &mut memo[u.index()];
                if entries.len() < CAND_MEMO_CAP {
                    entries.push(MemoEntry {
                        label: node.label,
                        literals: node.literals.clone(),
                        req: (out_req, in_req),
                        cand: c.clone(),
                        bits: None,
                    });
                    memo_src[slot] = Some((u.index(), entries.len() - 1));
                }
            }
        }
        if c.is_empty() {
            return Ok(Vec::new());
        }
        if let Some(max) = budget.max_candidates {
            if c.len() as u64 > max {
                return Err(BudgetExceeded {
                    kind: BudgetKind::Candidates,
                    limit: max,
                });
            }
        }
        charge_steps(&mut steps, c.len() as u64, budget)?;
    }

    // Single-node query: the candidate set is the match set.
    if active.len() == 1 {
        let matches = cand[0].clone();
        if let Some(max) = budget.max_matches {
            if matches.len() as u64 > max {
                return Err(BudgetExceeded {
                    kind: BudgetKind::Matches,
                    limit: max,
                });
            }
        }
        if let Some(rows) = rows {
            let width = query.nodes.len();
            rows.resize(matches.len() * width, NO_NODE);
            for (row, &v) in rows.chunks_mut(width).zip(&matches) {
                row[query.output.index()] = v;
            }
        }
        return Ok(matches);
    }

    let slot_of = |u: QNodeId| -> usize { active.iter().position(|&a| a == u).unwrap() };

    // Matching order: a caller's plan when it applies, else the greedy
    // connected order by smallest candidate set, ties to the higher query
    // degree (more constraints bind earlier).
    order.clear();
    in_order.clear();
    in_order.resize(active.len(), false);
    if let Some(plan) = opts.plan.filter(|p| p.applies_to(query, &active)) {
        for &u in plan.order() {
            let slot = slot_of(u);
            order.push(slot);
            in_order[slot] = true;
        }
    } else {
        let qdeg = |u: QNodeId| -> usize {
            query
                .edges
                .iter()
                .filter(|&&(s, d, _)| s == u || d == u)
                .count()
        };
        let out_slot = slot_of(query.output);
        order.push(out_slot);
        in_order[out_slot] = true;
        while order.len() < active.len() {
            // Pick the unmatched active node adjacent to the ordered
            // prefix with the fewest candidates.
            let mut best: Option<(usize, usize, usize)> = None; // (slot, cand size, degree)
            for (slot, &u) in active.iter().enumerate() {
                if in_order[slot] {
                    continue;
                }
                let adjacent = query.edges.iter().any(|&(s, d, _)| {
                    (s == u && in_order[slot_of(d)]) || (d == u && in_order[slot_of(s)])
                });
                if !adjacent {
                    continue;
                }
                let size = cand[slot].len();
                let better = match best {
                    None => true,
                    Some((_, bs, bd)) => size < bs || (size == bs && qdeg(u) > bd),
                };
                if better {
                    best = Some((slot, size, qdeg(u)));
                }
            }
            let (slot, _, _) = best.expect("active component is connected");
            in_order[slot] = true;
            order.push(slot);
        }
    }

    // Membership tests are keyed by *slot* (not position) so an adaptive
    // re-plan can permute the order without rebuilding bitsets: an O(1)
    // dense bitset for large non-root sets (the innermost extension loop
    // probes membership once per driven neighbor), binary search below
    // that. The bitsets live in the scratch pool: `reset` keeps their
    // word allocations across calls.
    let root_slot = order[0];
    // Membership source per large slot: the memo entry's cached bitset
    // when the slot's set lives in the memo, a per-call scratch bitset
    // otherwise. Memoized bitsets are built lazily on the first call that
    // needs one, then reused — the last per-call construction cost the
    // memo can amortize.
    #[derive(Clone, Copy)]
    enum BitsSrc {
        Memo(usize, usize),
        Scratch(usize),
        Search,
    }
    let mut bits_of_slot: Vec<BitsSrc> = vec![BitsSrc::Search; active.len()];
    let mut bits_used = 0usize;
    for (slot, c) in cand.iter().enumerate() {
        if slot == root_slot || !opts.use_index || c.len() < BITSET_MIN_CANDIDATES {
            continue;
        }
        if let Some((ui, ei)) = memo_src[slot] {
            memo[ui][ei].bits.get_or_insert_with(|| {
                NodeBitset::from_nodes(graph.node_count(), c.iter().copied())
            });
            bits_of_slot[slot] = BitsSrc::Memo(ui, ei);
            continue;
        }
        if bits_used == bitsets.len() {
            bitsets.push(NodeBitset::new(0));
        }
        let b = &mut bitsets[bits_used];
        b.reset(graph.node_count());
        for &v in c {
            b.insert(v);
        }
        bits_of_slot[slot] = BitsSrc::Scratch(bits_used);
        bits_used += 1;
    }
    let membership_by_slot: Vec<Membership> = cand
        .iter()
        .enumerate()
        .map(|(slot, c)| match bits_of_slot[slot] {
            BitsSrc::Memo(ui, ei) => Membership::Bits(memo[ui][ei].bits.as_ref().unwrap()),
            BitsSrc::Scratch(i) => Membership::Bits(&bitsets[i]),
            BitsSrc::Search => Membership::Sorted(c.as_slice()),
        })
        .collect();

    // Per-position views of the current order, rebuilt on re-plan.
    let mut membership: Vec<Membership> = order.iter().map(|&s| membership_by_slot[s]).collect();
    let mut constraints: Vec<Vec<QConstraint>> = vec![Vec::new(); order.len()];
    build_constraints(query, &active, order, &mut constraints);

    let mut result = Vec::new();
    assignment.clear();
    assignment.resize(order.len(), NodeId(0));
    fails.clear();
    fails.resize(order.len(), 0);
    let mut replans_attempted: u32 = 0;
    let mut roots_since_plan: u64 = 0;
    let ancestors = if opts.use_index { opts.ancestors } else { &[] };
    let mut cursors = vec![0; ancestors.len()];
    let root_cand = cand[root_slot].as_slice();
    // At most one row per root: reserve once instead of regrowing.
    if let Some(rows) = rows.as_deref_mut() {
        rows.reserve(root_cand.len() * query.nodes.len());
    }
    for &v in root_cand {
        check_stop(opts.stop)?;
        let verdict = if ancestors.is_empty() {
            Verdict::Search
        } else {
            consult(
                graph,
                query,
                &active,
                &membership_by_slot,
                ancestors,
                &mut cursors,
                v,
            )
        };
        let matched = match verdict {
            Verdict::Skip => false,
            Verdict::Certified(row) => {
                // No search ran. Charge what the shortest successful one
                // costs, one step per non-root position, so no budget
                // trips earlier than it would without the witness.
                charge_steps(&mut steps, order.len() as u64 - 1, budget)?;
                stats::count_witness_hits();
                if let Some(rows) = rows.as_deref_mut() {
                    rows.extend(
                        query
                            .active
                            .iter()
                            .zip(row)
                            .map(|(&on, &w)| if on { w } else { NO_NODE }),
                    );
                }
                true
            }
            Verdict::Search => {
                // Adaptive reordering: when accumulated extension failures
                // show the static order misjudged selectivity, re-plan the
                // suffix fail-heaviest-first at this root-candidate
                // boundary (each root candidate is an independent
                // existence check, so the order may change between them
                // without affecting results). The trigger is the failure
                // *rate* per root searched, not the absolute count: a
                // healthy order still backtracks a handful of times per
                // root (deep positions accumulate failures by sheer try
                // volume), and only a pathological order fails tens of
                // times per root — re-planning on absolute counts thrashes
                // dense workloads where nearly every root succeeds.
                if opts.use_index && replans_attempted < MAX_REPLANS && order.len() > 2 {
                    let total: u64 = fails.iter().sum();
                    if total >= REPLAN_FAIL_THRESHOLD
                        && total >= REPLAN_FAILS_PER_ROOT * roots_since_plan
                    {
                        replans_attempted += 1;
                        if replan_suffix(query, &active, cand, order, fails) {
                            stats::count_order_replans();
                            for (pos, &slot) in order.iter().enumerate() {
                                membership[pos] = membership_by_slot[slot];
                            }
                            build_constraints(query, &active, order, &mut constraints);
                        }
                        fails.fill(0);
                        roots_since_plan = 0;
                    }
                }
                roots_since_plan += 1;
                assignment[0] = v;
                let found = extend(
                    graph,
                    &membership,
                    &constraints,
                    assignment,
                    1,
                    &mut steps,
                    budget,
                    opts.stop,
                    fails,
                )?;
                if let Some(rows) = rows.as_deref_mut().filter(|_| found) {
                    push_row(rows, query.nodes.len(), &active, order, assignment);
                }
                found
            }
        };
        if matched {
            result.push(v);
            if let Some(max) = budget.max_matches {
                if result.len() as u64 > max {
                    return Err(BudgetExceeded {
                        kind: BudgetKind::Matches,
                        limit: max,
                    });
                }
            }
        }
    }
    Ok(result)
}

/// Candidate sets at or above this size get a dense bitset for `O(1)`
/// membership probes; below it a binary search on the sorted slice wins
/// (no per-call bitset construction cost).
const BITSET_MIN_CANDIDATES: usize = 64;

/// Membership test over one position's candidate set.
#[derive(Clone, Copy)]
enum Membership<'a> {
    Sorted(&'a [NodeId]),
    Bits(&'a NodeBitset),
}

impl Membership<'_> {
    #[inline]
    fn contains(&self, v: NodeId) -> bool {
        match self {
            Membership::Sorted(s) => s.binary_search(&v).is_ok(),
            Membership::Bits(b) => b.contains(v),
        }
    }
}

/// Adds `amount` to the step counter, tripping [`BudgetKind::Steps`] past
/// the cap. Charged for backtracking extensions *and* candidate
/// construction, so preprocessing is bounded too.
#[inline]
fn charge_steps(steps: &mut u64, amount: u64, budget: &MatchBudget) -> Result<(), BudgetExceeded> {
    *steps += amount;
    if let Some(max) = budget.max_steps {
        if *steps > max {
            return Err(BudgetExceeded {
                kind: BudgetKind::Steps,
                limit: max,
            });
        }
    }
    Ok(())
}

/// Aborts with [`BudgetKind::HardStop`] when the external stop flag fired.
#[inline]
fn check_stop(stop: Option<&AtomicBool>) -> Result<(), BudgetExceeded> {
    match stop {
        Some(flag) if flag.load(Ordering::Acquire) => Err(BudgetExceeded {
            kind: BudgetKind::HardStop,
            limit: 0,
        }),
        _ => Ok(()),
    }
}

/// Appends the row of the embedding in `assignment` (indexed by order
/// position) to `rows`. Kept out of line, like [`consult`], so the search
/// loop of a caller that asks for neither rows nor witnesses stays as
/// small as it was without them.
#[inline(never)]
fn push_row(
    rows: &mut Vec<NodeId>,
    width: usize,
    active: &[QNodeId],
    order: &[usize],
    assignment: &[NodeId],
) {
    let base = rows.len();
    rows.resize(base + width, NO_NODE);
    for (&slot, &w) in order.iter().zip(assignment) {
        rows[base + active[slot].index()] = w;
    }
}

/// What a root's verified ancestors say about it.
enum Verdict<'w> {
    /// Absent from an ancestor's match set: not a match (Lemma 2 (2)).
    Skip,
    /// This ancestor row embeds the instance with the root at the output.
    Certified(&'w [NodeId]),
    /// Nothing settles the root: search it.
    Search,
}

/// Asks the ancestors about root `v`: first whether every one of them
/// matched it at all, then whether one of their rows for it is still an
/// embedding under this instance's constraints. Roots arrive in ascending
/// order, so each ancestor's match set is walked by its own cursor rather
/// than searched afresh per root.
#[inline(never)]
fn consult<'w>(
    graph: &Graph,
    query: &ConcreteQuery,
    active: &[QNodeId],
    membership_by_slot: &[Membership],
    ancestors: &[Witnesses<'w>],
    cursors: &mut [usize],
    v: NodeId,
) -> Verdict<'w> {
    for (a, at) in ancestors.iter().zip(cursors.iter_mut()) {
        *at = seek(a.matches, *at, v);
        if a.matches.get(*at) != Some(&v) {
            return Verdict::Skip;
        }
    }
    let width = query.nodes.len();
    for (a, &i) in ancestors.iter().zip(cursors.iter()) {
        if let Some(row) = a.rows.get(i * width..(i + 1) * width) {
            if certifies(graph, query, active, membership_by_slot, row, v) {
                return Verdict::Certified(row);
            }
        }
    }
    Verdict::Search
}

/// The first index at or after `from` whose node is not below `v`, found
/// by galloping: the cost is logarithmic in the distance moved.
fn seek(sorted: &[NodeId], from: usize, v: NodeId) -> usize {
    let (mut lo, mut step) = (from, 1);
    while lo + step <= sorted.len() && sorted[lo + step - 1] < v {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(sorted.len());
    lo + sorted[lo..hi].partition_point(|&w| w < v)
}

/// Whether `row` embeds the instance with root `v` at the output node:
/// every other active node's image lies in that node's candidate set
/// (label, literals, degree), the images are distinct, and every template
/// edge is in the graph. Nothing is assumed about where the row came from.
fn certifies(
    graph: &Graph,
    query: &ConcreteQuery,
    active: &[QNodeId],
    membership_by_slot: &[Membership],
    row: &[NodeId],
    v: NodeId,
) -> bool {
    if row[query.output.index()] != v {
        return false;
    }
    for (slot, &u) in active.iter().enumerate() {
        let w = row[u.index()];
        // `v` is a root candidate. Elsewhere `NO_NODE`, like anything
        // else outside the graph, covers nothing.
        if u != query.output
            && (w.index() >= graph.node_count() || !membership_by_slot[slot].contains(w))
        {
            return false;
        }
        if active[..slot].iter().any(|p| row[p.index()] == w) {
            return false;
        }
    }
    query
        .edges
        .iter()
        .all(|&(s, d, l)| graph.has_edge(row[s.index()], row[d.index()], l))
}

/// Constraints of each order position against earlier positions.
fn build_constraints(
    query: &ConcreteQuery,
    active: &[QNodeId],
    order: &[usize],
    constraints: &mut Vec<Vec<QConstraint>>,
) {
    let pos_of = |u: QNodeId, prefix: &[usize]| -> Option<usize> {
        prefix.iter().position(|&i| active[i] == u)
    };
    constraints.resize(order.len(), Vec::new());
    for (pos, &slot) in order.iter().enumerate() {
        let u = active[slot];
        let cons = &mut constraints[pos];
        cons.clear();
        for &(s, d, l) in &query.edges {
            if s == u {
                if let Some(pp) = pos_of(d, &order[..pos]) {
                    cons.push(QConstraint {
                        peer_pos: pp,
                        label: l,
                        outgoing: true,
                    });
                }
            } else if d == u {
                if let Some(pp) = pos_of(s, &order[..pos]) {
                    cons.push(QConstraint {
                        peer_pos: pp,
                        label: l,
                        outgoing: false,
                    });
                }
            }
        }
        debug_assert!(pos == 0 || !cons.is_empty());
    }
}

/// Re-plans the order suffix (positions `1..`) greedily by descending
/// accumulated failures, breaking ties by smaller candidate set then
/// lower slot — still connectivity-constrained. Returns whether the
/// order actually changed.
fn replan_suffix(
    query: &ConcreteQuery,
    active: &[QNodeId],
    cand: &[Vec<NodeId>],
    order: &mut [usize],
    fails: &[u64],
) -> bool {
    let mut fail_by_slot = vec![0u64; active.len()];
    for (pos, &slot) in order.iter().enumerate() {
        fail_by_slot[slot] = fails[pos];
    }
    let mut new_order = Vec::with_capacity(order.len());
    let mut used = vec![false; active.len()];
    new_order.push(order[0]);
    used[order[0]] = true;
    while new_order.len() < order.len() {
        let mut best: Option<(usize, u64, usize)> = None; // (slot, fails, cand size)
        for (slot, &u) in active.iter().enumerate() {
            if used[slot] {
                continue;
            }
            let adjacent = query.edges.iter().any(|&(s, d, _)| {
                (s == u && used[active.iter().position(|&a| a == d).unwrap()])
                    || (d == u && used[active.iter().position(|&a| a == s).unwrap()])
            });
            if !adjacent {
                continue;
            }
            let (f, cl) = (fail_by_slot[slot], cand[slot].len());
            let better = match best {
                None => true,
                Some((_, bf, bcl)) => f > bf || (f == bf && cl < bcl),
            };
            if better {
                best = Some((slot, f, cl));
            }
        }
        let (slot, _, _) = best.expect("active component is connected");
        used[slot] = true;
        new_order.push(slot);
    }
    if new_order[..] == order[..] {
        false
    } else {
        order.copy_from_slice(&new_order);
        true
    }
}

/// Tries to extend the partial embedding at `pos`; returns `Ok(true)` on
/// the first complete embedding, or [`BudgetExceeded`] once the step cap
/// is reached. A fruitless extension bumps `fails[pos]` — the adaptive
/// re-plan signal.
#[allow(clippy::too_many_arguments)]
fn extend(
    graph: &Graph,
    membership: &[Membership],
    constraints: &[Vec<QConstraint>],
    assignment: &mut [NodeId],
    pos: usize,
    steps: &mut u64,
    budget: &MatchBudget,
    stop: Option<&AtomicBool>,
    fails: &mut [u64],
) -> Result<bool, BudgetExceeded> {
    if pos == membership.len() {
        return Ok(true);
    }
    let cons = &constraints[pos];

    // Drive iteration through the constraint whose matched peer has the
    // smallest relevant adjacency list.
    let (drive, rest) = {
        let mut best = 0usize;
        let mut best_len = usize::MAX;
        for (i, c) in cons.iter().enumerate() {
            let w = assignment[c.peer_pos];
            // If the template edge is extended->peer, candidates are the
            // *in*-neighbors of w; otherwise its out-neighbors.
            let len = if c.outgoing {
                graph.in_degree(w)
            } else {
                graph.out_degree(w)
            };
            if len < best_len {
                best_len = len;
                best = i;
            }
        }
        (cons[best], best)
    };

    let w = assignment[drive.peer_pos];
    let neighbors = if drive.outgoing {
        graph.in_neighbors(w)
    } else {
        graph.out_neighbors(w)
    };
    'next: for a in neighbors {
        let v = a.to();
        if a.label() != drive.label {
            continue;
        }
        *steps += 1;
        if let Some(max) = budget.max_steps {
            if *steps > max {
                return Err(BudgetExceeded {
                    kind: BudgetKind::Steps,
                    limit: max,
                });
            }
        }
        if (*steps).is_multiple_of(STOP_POLL_STEPS) {
            check_stop(stop)?;
        }
        // Injectivity.
        if assignment[..pos].contains(&v) {
            continue;
        }
        // Candidate membership (labels + literals pre-filtered).
        if !membership[pos].contains(v) {
            continue;
        }
        // Remaining adjacency constraints.
        for (i, c) in cons.iter().enumerate() {
            if i == rest {
                continue;
            }
            let peer = assignment[c.peer_pos];
            let ok = if c.outgoing {
                graph.has_edge(v, peer, c.label)
            } else {
                graph.has_edge(peer, v, c.label)
            };
            if !ok {
                continue 'next;
            }
        }
        assignment[pos] = v;
        if extend(
            graph,
            membership,
            constraints,
            assignment,
            pos + 1,
            steps,
            budget,
            stop,
            fails,
        )? {
            return Ok(true);
        }
    }
    fails[pos] += 1;
    Ok(false)
}
