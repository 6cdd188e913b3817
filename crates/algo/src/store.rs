//! The verified-instance store: every verified instance of a run, keyed by
//! its mixed-radix lattice index ([`LatticeIndex`]), with the one
//! nearest-ancestor walk `incVerify` uses.
//!
//! A run's [`Evaluator`](crate::Evaluator)s are views over one store: the
//! drivers that pick their next instance from the last result (RfQGen,
//! BiQGen, OnlineQGen) hold one view, and each worker of the lattice sweep
//! holds its own over the sweep's shared store. Entries exist only for what
//! the run verified, so memory follows the run, never `|I(Q)|`.

use crate::config::Configuration;
use crate::evaluator::{MatchTable, Verification};
use fairsqg_measures::DiversityMeasure;
use fairsqg_query::{Instantiation, LatticeIndex};
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// A map from lattice index to a shared value, in which the first writer
/// wins: an index, once held, keeps its value. Both the run's store and
/// the service's warm match tables are one of these.
#[derive(Debug)]
pub struct LatticeTable<T> {
    entries: RwLock<HashMap<usize, Arc<T>>>,
}

impl<T> Default for LatticeTable<T> {
    fn default() -> Self {
        Self {
            entries: RwLock::new(HashMap::new()),
        }
    }
}

impl<T> LatticeTable<T> {
    fn read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<usize, Arc<T>>> {
        self.entries.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value held under `index`.
    pub fn get(&self, index: usize) -> Option<Arc<T>> {
        self.read().get(&index).cloned()
    }

    /// The value held under `index`, or else the one `make` builds, which
    /// is then held; `None` when the index is free and `make` declines.
    pub fn insert_with(&self, index: usize, make: impl FnOnce() -> Option<T>) -> Option<Arc<T>> {
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(held) = entries.get(&index) {
            return Some(Arc::clone(held));
        }
        let value = Arc::new(make()?);
        entries.insert(index, Arc::clone(&value));
        Some(value)
    }

    /// Every index held, in no particular order.
    pub fn indices(&self) -> Vec<usize> {
        self.read().keys().copied().collect()
    }

    /// Number of indices held.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether no index is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The verified instances of one run under one configuration, shared by
/// every [`Evaluator`](crate::Evaluator) view of the run.
pub(crate) struct Store<'a> {
    pub cfg: Configuration<'a>,
    pub lattice: LatticeIndex,
    /// One measure — one `O(|V|)` profile, the configuration's when it
    /// brings one — for every view.
    pub measure: DiversityMeasure<'a>,
    /// What verified `Ok`; a tripped verification is never published.
    pub verified: LatticeTable<Verification>,
    /// The shared match table every view verifies and spawns through,
    /// when the configuration may use one (`Configuration::match_table`).
    pub table: Option<&'a dyn MatchTable>,
}

impl<'a> Store<'a> {
    /// An empty store for `cfg`.
    pub fn new(cfg: Configuration<'a>) -> Self {
        Self {
            cfg,
            lattice: LatticeIndex::new(cfg.domains).expect("checked by Configuration::new"),
            measure: cfg.diversity_measure(),
            verified: LatticeTable::default(),
            table: cfg.match_table(),
        }
    }

    /// The nearest verified ancestor of instance `index` on each axis, in
    /// axis order: on each axis the index walks down by the axis's stride
    /// to the first instance held. That is the direct lattice parent
    /// whenever it was verified (one lookup); after a template-refinement
    /// skip (`Spawn` stepping a variable from `i` to `j > i + 1`), or
    /// while a sweep worker still verifies the parent, the walk reaches a
    /// farther ancestor instead of giving up the pool.
    pub fn ancestors(&self, index: usize, inst: &Instantiation) -> Vec<Arc<Verification>> {
        let walk = |(x, &k): (usize, &u16)| {
            let stride = self.lattice.stride(x);
            (1..=usize::from(k)).find_map(|s| {
                let ancestor = self.verified.get(index - s * stride)?;
                debug_assert!(inst.refines(&self.lattice.instance(index - s * stride)));
                Some(ancestor)
            })
        };
        inst.indices().iter().enumerate().filter_map(walk).collect()
    }
}
