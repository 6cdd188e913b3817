//! Procedure `Spawn` (Section IV-A): constructs the refined children of a
//! verified instance, with **template refinement** against the `d`-hop
//! neighborhood `G_q^d` of the current match set.
//!
//! Template refinement (paper, "Template refinement"):
//!
//! 1. a range variable `u.A op x` only steps to constants that actually
//!    occur as `w.A` on some node `w ∈ G_q^d` with `L(w) = L(u)` — binding
//!    any skipped in-between constant yields the *same* match set, hence the
//!    same objectives, so nothing Pareto-relevant is lost;
//! 2. an edge variable `x_e` on `e = (u, u')` is "fixed to 0" (never
//!    refined to 1) when no `L_Q(e)`-labeled edge connects suitable nodes in
//!    `G_q^d` — the refined instance could not match anything.
//!
//! # `G_q^d` is asked, never built
//!
//! Both rules are reachability questions, so [`spawn_refinements`] does not
//! materialise the neighborhood (the graph crate's `d`-hop BFS stays its
//! definition, and `tests/proptest_spawn.rs` holds this module to it). It
//! collects one question per variable that still has a refine step and answers
//! all of them with **one** breadth-first frontier search from the match
//! set over the undirected adjacency, to depth `d`, which stops the moment
//! every question is settled:
//!
//! * a range variable is *settled* once a visited same-labeled node carries
//!   the very next constant of its domain: the child is that constant
//!   whatever the rest of `G_q^d` holds. Until then every visited node
//!   lowers the smallest later index it carries, and that index is the
//!   child if the search runs out (no child when nothing was seen);
//! * an edge variable is settled once a suitable edge has both endpoints
//!   visited. Each node checks its own adjacency against the visited marks
//!   when it arrives, so every edge is examined when the later of its
//!   endpoints does and no witness inside `G_q^d` is missed.
//!
//! The set of visited nodes only grows toward `G_q^d`, and both answers are
//! monotone in it (a witness stays a witness; the smallest index, once it
//! is the next one, cannot get smaller), so stopping early returns exactly
//! what the full neighborhood would. A search that never settles visits
//! `G_q^d` once — the materialising version's traversal without its sort
//! and its per-variable hash sets — and a large match set is the cheap
//! case: it usually settles at the seeds.

use crate::config::Configuration;
use crate::evaluator::EvalResult;
use fairsqg_graph::{Adj, AttrId, EdgeLabelId, Graph, LabelId, NodeId};
use fairsqg_query::{DomainValue, Instantiation, VarKind};

/// Spawner options.
#[derive(Debug, Clone, Copy)]
pub struct SpawnOptions {
    /// Enable template refinement (`G_q^d` domain restriction).
    pub template_refinement: bool,
}

impl Default for SpawnOptions {
    fn default() -> Self {
        Self {
            template_refinement: true,
        }
    }
}

/// Match sets larger than this get [`plain_refinements`] instead of
/// template refinement. The cap predates the frontier search, when a large
/// match set meant a BFS over most of the graph; today a large match set is
/// the cheapest case (it settles at the seeds), so cost no longer justifies
/// it. It stays because removing it changes which children large match sets
/// produce, and with them the archives — a decision that belongs to the
/// coverage question of ROADMAP item 1(a), not to a performance change.
const NEIGHBORHOOD_SEED_CAP: usize = 4096;

/// Spawns the refined children of `inst` (one per refinable variable),
/// returning `(stepped variable, child)` pairs in variable order.
pub fn spawn_refinements(
    cfg: &Configuration<'_>,
    inst: &Instantiation,
    result: &EvalResult,
    opts: SpawnOptions,
) -> Vec<(usize, Instantiation)> {
    if !opts.template_refinement
        || result.matches.is_empty()
        || result.matches.len() > NEIGHBORHOOD_SEED_CAP
    {
        return plain_refinements(cfg, inst);
    }
    let mut questions = questions(cfg, inst);
    settle(
        cfg.graph,
        &result.matches,
        cfg.template.diameter(),
        &mut questions,
    );
    questions
        .iter()
        .filter_map(|q| Some((q.var, q.child(inst)?)))
        .collect()
}

/// What one variable with a refine step left needs to know about `G_q^d`.
struct Question<'d> {
    /// The variable's position in `X`.
    var: usize,
    asks: Asks<'d>,
}

enum Asks<'d> {
    /// Range variable on `u.A`: which is the first of the domain values
    /// after the current one that some `label` node carries as `attr`?
    Constant {
        label: LabelId,
        attr: AttrId,
        /// The domain values after the current index, in refinement order.
        later: &'d [DomainValue],
        /// Smallest offset into `later` known to be kept so far;
        /// `later.len()` while there is none.
        first: usize,
    },
    /// Edge variable on `e = (u, u')`: does a `label` edge lead from a
    /// `src`-labeled node to a `dst`-labeled one?
    Edge {
        label: EdgeLabelId,
        src: LabelId,
        dst: LabelId,
        found: bool,
    },
}

/// The questions of `inst`'s variables, in variable order. A variable at
/// its most refined value asks nothing.
fn questions<'d>(cfg: &Configuration<'d>, inst: &Instantiation) -> Vec<Question<'d>> {
    let nodes = cfg.template.nodes();
    cfg.domains
        .domains()
        .iter()
        .zip(inst.indices())
        .enumerate()
        .filter_map(|(var, (dom, &cur))| {
            let later = &dom.values[cur as usize + 1..];
            if later.is_empty() {
                return None;
            }
            let asks = match dom.kind {
                VarKind::Range { literal } => {
                    let lit = cfg.template.range_literals()[literal];
                    // Only constants are looked for in the graph; any
                    // other value is kept unconditionally, so nothing
                    // behind the first such value can be the child.
                    let first = later
                        .iter()
                        .position(|v| !matches!(v, DomainValue::Const(_)))
                        .unwrap_or(later.len());
                    Asks::Constant {
                        label: nodes[lit.node.index()].label,
                        attr: lit.attr,
                        later,
                        first,
                    }
                }
                VarKind::Edge { edge } => {
                    let e = cfg.template.edges()[edge];
                    Asks::Edge {
                        label: e.label,
                        src: nodes[e.src.index()].label,
                        dst: nodes[e.dst.index()].label,
                        found: false,
                    }
                }
            };
            Some(Question { var, asks })
        })
        .collect()
}

impl Question<'_> {
    /// Whether no further node of `G_q^d` can change the answer.
    fn settled(&self) -> bool {
        match self.asks {
            Asks::Constant { first, .. } => first == 0,
            Asks::Edge { found, .. } => found,
        }
    }

    /// Takes the newly visited node `w` into account. `visited` already
    /// marks `w`, so a self-loop is its own witness.
    fn observe(&mut self, graph: &Graph, w: NodeId, visited: &[bool]) {
        let w_label = graph.label(w);
        match &mut self.asks {
            Asks::Constant {
                label,
                attr,
                later,
                first,
            } => {
                if w_label != *label {
                    return;
                }
                if let Some(value) = graph.attr(w, *attr) {
                    // Only an earlier offset than the best so far matters.
                    let value = DomainValue::Const(value);
                    if let Some(k) = later[..*first].iter().position(|v| *v == value) {
                        *first = k;
                    }
                }
            }
            Asks::Edge {
                label,
                src,
                dst,
                found,
            } => {
                let witness = |adjacency: &[Adj], other: LabelId| {
                    adjacency.iter().any(|a| {
                        a.label() == *label
                            && visited[a.to().index()]
                            && graph.label(a.to()) == other
                    })
                };
                if (w_label == *src && witness(graph.out_neighbors(w), *dst))
                    || (w_label == *dst && witness(graph.in_neighbors(w), *src))
                {
                    *found = true;
                }
            }
        }
    }

    /// The child this question's answer yields, if any.
    fn child(&self, inst: &Instantiation) -> Option<Instantiation> {
        let steps = match self.asks {
            Asks::Constant { later, first, .. } => (first < later.len()).then_some(first + 1)?,
            Asks::Edge { found, .. } => found.then_some(1)?,
        };
        Some(stepped(inst, self.var, steps as u16))
    }
}

/// `inst` with variable `var` refined by `steps` domain steps.
pub(crate) fn stepped(inst: &Instantiation, var: usize, steps: u16) -> Instantiation {
    let mut idx = inst.indices().to_vec();
    idx[var] += steps;
    Instantiation::new(idx)
}

/// Answers `questions` by one breadth-first search from `seeds` over the
/// undirected adjacency: seeds are depth 0, nodes at depth `d` are visited
/// but not expanded (together: the node set of `G_q^d`), and the search
/// returns as soon as every question is settled. Returns the number of
/// nodes visited.
fn settle(graph: &Graph, seeds: &[NodeId], d: usize, questions: &mut [Question<'_>]) -> usize {
    let mut open: Vec<usize> = (0..questions.len())
        .filter(|&i| !questions[i].settled())
        .collect();
    if open.is_empty() {
        return 0;
    }
    let mut visited = vec![false; graph.node_count()];
    let mut count = 0;
    // Marks `w`, queues it for expansion and lets it answer; `true` once
    // nothing is left open.
    let mut visit = |w: NodeId, level: &mut Vec<NodeId>| {
        if std::mem::replace(&mut visited[w.index()], true) {
            return false;
        }
        count += 1;
        level.push(w);
        open.retain(|&i| {
            questions[i].observe(graph, w, &visited);
            !questions[i].settled()
        });
        open.is_empty()
    };
    let mut frontier = Vec::with_capacity(seeds.len());
    'search: {
        for &s in seeds {
            if visit(s, &mut frontier) {
                break 'search;
            }
        }
        for _ in 0..d {
            let mut next = Vec::new();
            for &v in &frontier {
                for a in graph.out_neighbors(v).iter().chain(graph.in_neighbors(v)) {
                    if visit(a.to(), &mut next) {
                        break 'search;
                    }
                }
            }
            frontier = next;
        }
    }
    count
}

/// Children without template refinement: one ±1 step per variable.
pub fn plain_refinements(
    cfg: &Configuration<'_>,
    inst: &Instantiation,
) -> Vec<(usize, Instantiation)> {
    (0..cfg.domains.var_count())
        .filter_map(|x| inst.refine_step(x, cfg.domains).map(|c| (x, c)))
        .collect()
}

/// Children in the relaxation direction (`SpawnB` of BiQGen): one −1 step
/// per variable.
pub fn spawn_relaxations(inst: &Instantiation) -> Vec<(usize, Instantiation)> {
    (0..inst.var_count())
        .filter_map(|x| inst.relax_step(x).map(|p| (x, p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Evaluator;
    use crate::test_support::talent_fixture;

    #[test]
    fn plain_spawn_steps_every_variable() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let root = Instantiation::root(fx.domains());
        let kids = plain_refinements(&cfg, &root);
        assert_eq!(kids.len(), fx.domains().var_count());
    }

    #[test]
    fn template_refinement_only_proposes_observed_values() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let mut ev = Evaluator::new(cfg);
        let root = Instantiation::root(fx.domains());
        let r = ev.verify(&root);
        assert!(r.result.feasible);
        let kids = spawn_refinements(&cfg, &root, &r.result, SpawnOptions::default());
        assert!(!kids.is_empty());
        // Every proposed child's match behavior must match a plain child
        // chain: spawning skips only objective-equivalent bindings, so each
        // refined child evaluates to the same match set as the densest
        // skipped predecessor would.
        for (x, child) in &kids {
            assert!(child.strictly_refines(&root));
            assert_eq!(
                child
                    .indices()
                    .iter()
                    .zip(root.indices())
                    .filter(|(a, b)| a != b)
                    .count(),
                1
            );
            let _ = x;
        }
    }

    #[test]
    fn skipped_bindings_are_objective_equivalent() {
        // Core soundness of template refinement: if Spawn jumps from index i
        // to j > i+1 for a range variable, all intermediate instances have
        // the same match set as index j.
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let mut ev = Evaluator::new(cfg);
        let root = Instantiation::root(fx.domains());
        let r = ev.verify(&root);
        let kids = spawn_refinements(&cfg, &root, &r.result, SpawnOptions::default());
        for (x, child) in kids {
            let target_idx = child.indices()[x];
            // Walk intermediate indices (if any were skipped).
            for mid_idx in (root.indices()[x] + 1)..target_idx {
                let mut mid = root.indices().to_vec();
                mid[x] = mid_idx;
                let mid_inst = Instantiation::new(mid);
                let mid_r = ev.verify(&mid_inst);
                let child_r = ev.verify(&child);
                assert_eq!(
                    mid_r.result.matches, child_r.result.matches,
                    "skipped binding changed the match set"
                );
            }
        }
    }

    #[test]
    fn relaxations_mirror_refinements() {
        let fx = talent_fixture();
        let bottom = Instantiation::bottom(fx.domains());
        let ups = spawn_relaxations(&bottom);
        assert_eq!(ups.len(), fx.domains().var_count());
        let root = Instantiation::root(fx.domains());
        assert!(spawn_relaxations(&root).is_empty());
    }

    /// `out -e-> mid -e-> far` (`d = 2`) with `x0: out.v >= {3}` and
    /// `x1: far.w >= {5, 7}`, over
    ///
    /// ```text
    /// o0(v=1) -> m0 -> f0(w=5)        o1(v=2)   o2(v=3)
    ///            m0 -> m1 -> f1(w=7)
    /// ```
    ///
    /// so from `o0` the constant 5 sits at depth 2 and 7 at depth 3.
    struct Chain {
        graph: fairsqg_graph::Graph,
        template: fairsqg_query::QueryTemplate,
        domains: fairsqg_query::RefinementDomains,
        groups: fairsqg_graph::GroupSet,
        spec: fairsqg_graph::CoverageSpec,
    }

    impl Chain {
        fn new() -> Self {
            use fairsqg_graph::{AttrValue::Int, CoverageSpec, GraphBuilder, GroupSet};
            let mut b = GraphBuilder::new();
            let o: Vec<_> = (1..=3)
                .map(|v| b.add_named_node("out", &[("v", Int(v))]))
                .collect();
            let m0 = b.add_named_node("mid", &[]);
            let f0 = b.add_named_node("far", &[("w", Int(5))]);
            let m1 = b.add_named_node("mid", &[]);
            let f1 = b.add_named_node("far", &[("w", Int(7))]);
            for (src, dst) in [(o[0], m0), (m0, f0), (m0, m1), (m1, f1)] {
                b.add_named_edge(src, dst, "e");
            }
            let graph = b.finish();
            let template = fairsqg_query::parse_template(
                graph.schema(),
                "node u0 : out\nnode u1 : mid\nnode u2 : far\n\
                 edge u0 -e-> u1\nedge u1 -e-> u2\n\
                 where u0.v >= ?\nwhere u2.w >= ?\noutput u0\n",
            )
            .unwrap();
            assert_eq!(template.diameter(), 2);
            let domains = fairsqg_query::RefinementDomains::with_range_values(
                &template,
                vec![vec![Int(3)], vec![Int(5), Int(7)]],
            );
            let groups = GroupSet::from_members(graph.node_count(), vec![("all".into(), o)]);
            Self {
                graph,
                template,
                domains,
                groups,
                spec: CoverageSpec::equal_opportunity(1, 0),
            }
        }

        /// `(nodes visited, children)` of Spawn's search at `idx` from
        /// `seeds`.
        fn search(&self, idx: [u16; 2], seeds: &[u32]) -> (usize, Vec<(usize, Vec<u16>)>) {
            let cfg = Configuration::new(
                &self.graph,
                &self.template,
                &self.domains,
                &self.groups,
                &self.spec,
                0.1,
                fairsqg_measures::DiversityConfig::default(),
            );
            let inst = Instantiation::new(idx.to_vec());
            let seeds: Vec<NodeId> = seeds.iter().map(|&v| NodeId(v)).collect();
            let mut questions = questions(&cfg, &inst);
            let visited = settle(&self.graph, &seeds, 2, &mut questions);
            let children = questions
                .iter()
                .filter_map(|q| Some((q.var, q.child(&inst)?.indices().to_vec())))
                .collect();
            (visited, children)
        }
    }

    #[test]
    fn search_stops_at_the_seeds_when_they_settle_everything() {
        // Only x0 asks (x1 is at its last value), and the third seed
        // carries its next constant: no node beyond the seeds is touched.
        let (visited, children) = Chain::new().search([0, 2], &[0, 1, 2]);
        assert_eq!(visited, 3);
        assert_eq!(children, vec![(0, vec![1, 2])]);
        // The first seed that settles the last open question ends it.
        let (visited, _) = Chain::new().search([0, 2], &[2]);
        assert_eq!(visited, 1);
        // Nothing asked, nothing searched.
        let (visited, children) = Chain::new().search([1, 2], &[0, 1, 2]);
        assert_eq!((visited, children), (0, vec![]));
    }

    #[test]
    fn search_finds_a_constant_at_depth_d_and_stops_there() {
        // o0, m0, then f0 (w = 5) before m1: three nodes, not the four of
        // the 2-hop neighborhood.
        let (visited, children) = Chain::new().search([1, 0], &[0]);
        assert_eq!(visited, 3);
        assert_eq!(children, vec![(1, vec![1, 1])]);
    }

    #[test]
    fn search_does_not_look_past_depth_d() {
        // 7 sits on f1, three hops from o0: the search exhausts the 2-hop
        // neighborhood {o0, m0, f0, m1} and x1 gets no child ...
        let (visited, children) = Chain::new().search([1, 1], &[0]);
        assert_eq!(visited, 4);
        assert_eq!(children, vec![]);
        // ... while from the root it skips nothing: 5 is two hops away.
        let (_, children) = Chain::new().search([0, 0], &[0]);
        assert_eq!(children, vec![(1, vec![0, 1])]);
    }
}
