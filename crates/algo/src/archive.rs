//! The ε-Pareto archive maintained by procedure `Update` (Fig. 5).
//!
//! The archive discretizes the bi-objective space into boxes
//! (`Box(q) = (δ_ε(q), f_ε(q))`, see [`Objectives::boxed`]) and keeps at
//! most one representative instance per non-dominated box. `Update`'s three
//! cases:
//!
//! 1. **Replacing boxes** — the new instance's box strictly dominates
//!    existing boxes: evict all of them, insert the new instance.
//! 2. **Replacing instances** — the new instance falls into an occupied
//!    box: keep whichever representative dominates the other (ties keep the
//!    incumbent).
//! 3. **Adding a non-dominated box** — no existing box dominates (or
//!    equals) the new box: insert.
//!
//! The box count — hence the archive size — is bounded by
//! `log(1+δ_max)·log(1+f_max)/log²(1+ε)` and by the per-axis chain bound
//! `log(1+δ_max)/log(1+ε)` of Theorem 2.

use crate::evaluator::EvalResult;
use fairsqg_measures::{BoxCoord, Objectives};
use fairsqg_query::Instantiation;
use std::rc::Rc;

/// One archived instance and its verified state.
#[derive(Debug, Clone)]
pub struct ArchiveEntry {
    /// The instantiation.
    pub inst: Instantiation,
    /// Its verified evaluation.
    pub result: Rc<EvalResult>,
    /// Cached box under the archive's current ε.
    pub bx: BoxCoord,
}

impl ArchiveEntry {
    /// The entry's objective coordinate.
    #[inline]
    pub fn objectives(&self) -> Objectives {
        self.result.objectives
    }
}

/// What `Update` did with an offered instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// Case 1: the instance's box dominates `n` boxes that were evicted.
    ReplacedBoxes(usize),
    /// Case 2: the instance replaced the incumbent of its box.
    ReplacedInstance,
    /// Case 2: the incumbent of the instance's box was kept.
    KeptIncumbent,
    /// Case 3: a new non-dominated box was added.
    AddedNewBox,
    /// The instance's box is dominated (or equaled) by an existing box.
    Rejected,
}

impl UpdateOutcome {
    /// Whether the offered instance is now in the archive.
    pub fn accepted(self) -> bool {
        !matches!(self, UpdateOutcome::KeptIncumbent | UpdateOutcome::Rejected)
    }

    /// Whether the insertion grew the archive (Update "Case 3" in the
    /// online algorithm's size accounting).
    pub fn grew(self) -> bool {
        matches!(self, UpdateOutcome::AddedNewBox)
    }
}

/// The exact mutation one accepted `Update` applied to the archive.
///
/// Streams of deltas are lossless: replaying `added`/`removed` in version
/// order against an empty set reconstructs the archive's entry set exactly
/// (order-insensitively), which is what the service layer's subscription
/// frames rely on.
#[derive(Debug, Clone)]
pub struct ArchiveDelta {
    /// Archive version *after* this mutation (see
    /// [`EpsParetoArchive::version`]).
    pub version: u64,
    /// Entries the mutation inserted (one per accepted update).
    pub added: Vec<ArchiveEntry>,
    /// Entries the mutation evicted (Case 1) or replaced (Case 2).
    pub removed: Vec<ArchiveEntry>,
}

/// A sink for in-run archive mutations, threaded through
/// [`Configuration::progress`](crate::Configuration::progress).
///
/// Called synchronously on the generation thread, once per accepted
/// update, *after* the archive has been mutated — so
/// `delta.version == archive.version()` at call time. Implementations must
/// be cheap (the hook sits between verifications on the hot loop) and use
/// interior mutability: the service layer's subscription sink renders the
/// delta to wire form and hands it to a channel. `Sync` is required
/// because [`Configuration`](crate::Configuration) is shared across
/// parallel workers.
pub trait ArchiveObserver: Sync {
    /// One accepted archive mutation.
    fn archive_updated(&self, delta: &ArchiveDelta);
}

/// An ε-Pareto archive of feasible instances.
#[derive(Debug, Clone)]
pub struct EpsParetoArchive {
    eps: f64,
    entries: Vec<ArchiveEntry>,
    version: u64,
}

impl EpsParetoArchive {
    /// Creates an empty archive with tolerance `eps > 0`.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0, "epsilon must be positive");
        Self {
            eps,
            entries: Vec::new(),
            version: 0,
        }
    }

    /// Current tolerance ε.
    #[inline]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Monotonic mutation counter: incremented once per accepted update,
    /// removal, or rescale. Two archives built by the same offer sequence
    /// have equal versions, and a subscriber that has applied deltas up to
    /// version `v` holds exactly the entry set of the archive at `v`.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Archived entries (unspecified order).
    #[inline]
    pub fn entries(&self) -> &[ArchiveEntry] {
        &self.entries
    }

    /// Number of archived instances.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the archive is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Objective coordinates of all entries.
    pub fn objectives(&self) -> Vec<Objectives> {
        self.entries.iter().map(|e| e.objectives()).collect()
    }

    /// Procedure `Update` (Fig. 5). Only feasible instances may be offered.
    pub fn update(&mut self, inst: &Instantiation, result: &EvalResult) -> UpdateOutcome {
        self.update_collect(inst, result, None, false).0
    }

    /// [`update`](Self::update), additionally reporting the exact mutation
    /// as an [`ArchiveDelta`] when the offer was accepted (`None` on
    /// `KeptIncumbent`/`Rejected`). The delta is what the service layer
    /// streams to `subscribe`d clients.
    pub fn update_observed(
        &mut self,
        inst: &Instantiation,
        result: &EvalResult,
    ) -> (UpdateOutcome, Option<ArchiveDelta>) {
        self.update_collect(inst, result, None, true)
    }

    /// The one `Update`. An accepted entry shares `shared` (a re-offered
    /// entry's own result) or, without one, copies `result`.
    fn update_collect(
        &mut self,
        inst: &Instantiation,
        result: &EvalResult,
        shared: Option<&Rc<EvalResult>>,
        collect: bool,
    ) -> (UpdateOutcome, Option<ArchiveDelta>) {
        debug_assert!(
            result.feasible,
            "Update is only defined on feasible instances"
        );
        let bx = result.objectives.boxed(self.eps);
        let new_entry = || ArchiveEntry {
            inst: inst.clone(),
            result: shared.map_or_else(|| Rc::new(result.clone()), Rc::clone),
            bx,
        };
        let delta = |version: u64, added: Vec<ArchiveEntry>, removed: Vec<ArchiveEntry>| {
            collect.then_some(ArchiveDelta {
                version,
                added,
                removed,
            })
        };

        // Case 1: box-level dominance over existing boxes.
        let dominated: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| bx.dominates(&e.bx))
            .map(|(i, _)| i)
            .collect();
        if !dominated.is_empty() {
            let n = dominated.len();
            let mut removed = Vec::with_capacity(if collect { n } else { 0 });
            for &i in dominated.iter().rev() {
                let evicted = self.entries.swap_remove(i);
                if collect {
                    removed.push(evicted);
                }
            }
            let entry = new_entry();
            self.version += 1;
            let d = delta(self.version, vec![entry.clone()], removed);
            self.entries.push(entry);
            return (UpdateOutcome::ReplacedBoxes(n), d);
        }

        // Case 2: same box as an incumbent — keep the dominating one.
        if let Some(i) = self.entries.iter().position(|e| e.bx == bx) {
            if result.objectives.dominates(&self.entries[i].objectives()) {
                let entry = new_entry();
                self.version += 1;
                let old = std::mem::replace(&mut self.entries[i], entry.clone());
                let d = delta(self.version, vec![entry], vec![old]);
                return (UpdateOutcome::ReplacedInstance, d);
            }
            return (UpdateOutcome::KeptIncumbent, None);
        }

        // Case 3: add if no existing box dominates-or-equals the new box.
        if self.entries.iter().all(|e| !e.bx.dominates_or_eq(&bx)) {
            let entry = new_entry();
            self.version += 1;
            let d = delta(self.version, vec![entry.clone()], Vec::new());
            self.entries.push(entry);
            return (UpdateOutcome::AddedNewBox, d);
        }
        (UpdateOutcome::Rejected, None)
    }

    /// Removes and returns the entry at `idx` (used by the online
    /// algorithm's nearest-neighbor replacement).
    pub fn remove(&mut self, idx: usize) -> ArchiveEntry {
        self.version += 1;
        self.entries.swap_remove(idx)
    }

    /// Grows the tolerance to `new_eps ≥ eps` and re-inserts every entry
    /// under the coarser discretization (Lemma 4: ε-dominance is preserved
    /// when ε grows, so no covered instance escapes).
    pub fn rescale(&mut self, new_eps: f64) {
        assert!(new_eps >= self.eps, "epsilon may only grow");
        if new_eps == self.eps {
            return;
        }
        let old = std::mem::take(&mut self.entries);
        self.eps = new_eps;
        self.version += 1;
        for e in old {
            self.update_collect(&e.inst, &e.result, Some(&e.result), false);
        }
    }

    /// Whether every objective in `universe` is ε-dominated (under the
    /// box-shifted guarantee `(1+ε)(1+obj) ≥ 1+other`) by some entry.
    /// Used by tests and the correctness audit in the benchmarks.
    ///
    /// This single-factor bound holds for every instance ever *offered* to
    /// a fixed-ε archive (box dominance is transitive at the box level).
    /// After [`rescale`](Self::rescale) chains the guarantee weakens to one
    /// extra factor — use [`covers_shifted_within`](Self::covers_shifted_within)
    /// with `(1+ε)²−1` there.
    pub fn covers_shifted(&self, universe: &[Objectives]) -> bool {
        self.covers_shifted_within(universe, self.eps)
    }

    /// Like [`covers_shifted`](Self::covers_shifted) with an explicit
    /// effective tolerance.
    pub fn covers_shifted_within(&self, universe: &[Objectives], eps_eff: f64) -> bool {
        let factor = 1.0 + eps_eff;
        universe.iter().all(|u| {
            self.entries.iter().any(|e| {
                let o = e.objectives();
                factor * (1.0 + o.delta) >= 1.0 + u.delta && factor * (1.0 + o.fcov) >= 1.0 + u.fcov
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::EvalResult;

    fn entry(delta: f64, fcov: f64) -> (Instantiation, Rc<EvalResult>) {
        // Encode objectives into a fake instantiation for identity.
        let inst = Instantiation::new(vec![delta as u16, fcov as u16]);
        let result = Rc::new(EvalResult {
            matches: Vec::new(),
            counts: Vec::new(),
            objectives: Objectives::new(delta, fcov),
            feasible: true,
        });
        (inst, result)
    }

    #[test]
    fn first_insert_adds_box() {
        let mut a = EpsParetoArchive::new(0.3);
        let (i, r) = entry(2.0, 2.0);
        assert_eq!(a.update(&i, &r), UpdateOutcome::AddedNewBox);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn dominating_box_replaces() {
        let mut a = EpsParetoArchive::new(0.3);
        let (i1, r1) = entry(2.0, 2.0);
        a.update(&i1, &r1);
        let (i2, r2) = entry(10.0, 10.0);
        assert_eq!(a.update(&i2, &r2), UpdateOutcome::ReplacedBoxes(1));
        assert_eq!(a.len(), 1);
        assert_eq!(a.entries()[0].inst, i2);
    }

    #[test]
    fn same_box_keeps_dominating_instance() {
        let mut a = EpsParetoArchive::new(0.5);
        let (i1, r1) = entry(2.0, 2.0);
        a.update(&i1, &r1);
        // 2.2 is in the same box under eps=0.5 and dominates (2.0, 2.0).
        let (i2, r2) = entry(2.2, 2.2);
        assert_eq!(r2.objectives.boxed(0.5), r1.objectives.boxed(0.5));
        assert_eq!(a.update(&i2, &r2), UpdateOutcome::ReplacedInstance);
        assert_eq!(a.len(), 1);
        assert_eq!(a.entries()[0].inst, i2);
        // Offering the weaker one back keeps the incumbent.
        assert_eq!(a.update(&i1, &r1), UpdateOutcome::KeptIncumbent);
    }

    #[test]
    fn incomparable_boxes_coexist() {
        let mut a = EpsParetoArchive::new(0.1);
        let (i1, r1) = entry(10.0, 1.0);
        let (i2, r2) = entry(1.0, 10.0);
        assert_eq!(a.update(&i1, &r1), UpdateOutcome::AddedNewBox);
        assert_eq!(a.update(&i2, &r2), UpdateOutcome::AddedNewBox);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn dominated_box_rejected() {
        let mut a = EpsParetoArchive::new(0.1);
        let (i1, r1) = entry(10.0, 10.0);
        a.update(&i1, &r1);
        let (i2, r2) = entry(1.0, 1.0);
        assert_eq!(a.update(&i2, &r2), UpdateOutcome::Rejected);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn archive_covers_everything_offered() {
        // Paper's Example 5/7 shape plus noise.
        let mut a = EpsParetoArchive::new(0.3);
        let offers = [
            (0.0, 1.0),
            (1.0, 1.0),
            (0.75, 2.0),
            (0.5, 3.0),
            (2.0, 0.5),
            (1.5, 1.5),
        ];
        let mut universe = Vec::new();
        for &(d, f) in &offers {
            let (i, r) = entry(d, f);
            a.update(&i, &r);
            universe.push(Objectives::new(d, f));
        }
        assert!(a.covers_shifted(&universe));
    }

    #[test]
    fn size_bound_holds() {
        // Theorem 2: |archive| ≤ number of non-dominated boxes; insert a
        // dense grid and check the bound log(1+max)/log(1+eps) per axis.
        let eps = 0.3;
        let mut a = EpsParetoArchive::new(eps);
        let maxv = 100.0f64;
        let mut i = 0u16;
        for d in 0..40 {
            for f in 0..40 {
                let (inst, r) = {
                    let inst = Instantiation::new(vec![i, d, f]);
                    i = i.wrapping_add(1);
                    let result = Rc::new(EvalResult {
                        matches: Vec::new(),
                        counts: Vec::new(),
                        objectives: Objectives::new(d as f64 * maxv / 39.0, f as f64 * maxv / 39.0),
                        feasible: true,
                    });
                    (inst, result)
                };
                a.update(&inst, &r);
            }
        }
        let bound = ((1.0 + maxv).ln() / (1.0 + eps).ln()).ceil() as usize + 1;
        assert!(
            a.len() <= bound,
            "archive size {} exceeds per-axis bound {}",
            a.len(),
            bound
        );
    }

    #[test]
    fn rescale_preserves_coverage() {
        let mut a = EpsParetoArchive::new(0.05);
        let mut universe = Vec::new();
        for k in 0..30 {
            let d = 1.0 + (k as f64) * 0.7;
            let f = 30.0 - (k as f64) * 0.9;
            let (i, r) = entry(d, f.max(0.0));
            a.update(&i, &r);
            universe.push(Objectives::new(d, f.max(0.0)));
        }
        let before = a.len();
        a.rescale(0.5);
        assert!(a.len() <= before);
        // One rescale step may compound two box guarantees: (1+ε)² − 1.
        assert!(a.covers_shifted_within(&universe, 1.5f64 * 1.5 - 1.0));
        assert_eq!(a.eps(), 0.5);
    }

    #[test]
    #[should_panic(expected = "epsilon may only grow")]
    fn rescale_rejects_shrinking() {
        let mut a = EpsParetoArchive::new(0.5);
        a.rescale(0.1);
    }

    #[test]
    fn version_counts_accepted_mutations_only() {
        let mut a = EpsParetoArchive::new(0.1);
        assert_eq!(a.version(), 0);
        let (i1, r1) = entry(10.0, 10.0);
        a.update(&i1, &r1);
        assert_eq!(a.version(), 1);
        // Rejected offer: version unchanged.
        let (i2, r2) = entry(1.0, 1.0);
        assert_eq!(a.update(&i2, &r2), UpdateOutcome::Rejected);
        assert_eq!(a.version(), 1);
        // Re-offering the incumbent's coordinates keeps it: unchanged.
        assert_eq!(a.update(&i1, &r1), UpdateOutcome::KeptIncumbent);
        assert_eq!(a.version(), 1);
    }

    #[test]
    fn observed_updates_replay_to_identical_entry_set() {
        use std::collections::BTreeSet;
        // Replay every delta against a bag keyed by instantiation and
        // check it converges to the archive's final entry set.
        let offers = [
            (0.0, 1.0),
            (1.0, 1.0),
            (0.75, 2.0),
            (0.5, 3.0),
            (2.0, 0.5),
            (10.0, 10.0), // dominates everything so far: Case 1 eviction
            (10.5, 10.5), // same box under eps=0.3: Case 2 replacement
            (1.5, 1.5),   // dominated: rejected, no delta
        ];
        let mut a = EpsParetoArchive::new(0.3);
        let mut replayed: BTreeSet<Vec<u16>> = BTreeSet::new();
        let mut last_version = 0;
        for &(d, f) in &offers {
            let (i, r) = entry(d, f);
            let (outcome, delta) = a.update_observed(&i, &r);
            match delta {
                Some(delta) => {
                    assert!(outcome.accepted());
                    assert_eq!(delta.version, a.version());
                    assert!(delta.version > last_version, "versions must advance");
                    last_version = delta.version;
                    for e in &delta.removed {
                        assert!(replayed.remove(e.inst.indices()), "removed unknown entry");
                    }
                    for e in &delta.added {
                        assert!(replayed.insert(e.inst.indices().to_vec()), "double add");
                    }
                }
                None => assert!(!outcome.accepted()),
            }
        }
        let final_set: BTreeSet<Vec<u16>> = a
            .entries()
            .iter()
            .map(|e| e.inst.indices().to_vec())
            .collect();
        assert_eq!(replayed, final_set);
    }
}
