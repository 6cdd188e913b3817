//! Thread-local hot-path counters for the matcher.
//!
//! Candidate computation is driven through free functions, so the counters
//! live in a thread-local cell rather than threading a `&mut` context
//! through every call site. Each worker thread accumulates its own
//! counters; callers snapshot-and-reset around a unit of work with
//! [`take_stats`] and merge the deltas into their own accounting (e.g.
//! `GenStats` in `fairsqg-algo`).

use std::cell::Cell;

/// Snapshot of the matcher's hot-path counters on the current thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatcherStats {
    /// Candidate sets served from the sorted `(label, attribute)` value
    /// index (binary-searched range slices).
    pub index_candidates: u64,
    /// Candidate sets computed by the naive label-population scan — the
    /// reference path, plus hybrid fallbacks for non-selective literals.
    pub scan_candidates: u64,
    /// Indexed computations that fell back to the scan because the most
    /// selective literal still covered most of the label population.
    pub scan_fallbacks: u64,
    /// Candidate sets restricted to an `incVerify` pool (the parent's
    /// output match set) instead of the full label population.
    pub pool_restrictions: u64,
    /// Postings shards skipped wholesale by partition metadata during
    /// indexed range evaluation (their `[min, max]` envelope lay entirely
    /// on one side of the literal's boundary).
    pub shard_skips: u64,
    /// Mid-enumeration suffix re-plans triggered by the adaptive
    /// fail-count threshold (QuickSI/RI-style reordering).
    pub order_replans: u64,
    /// Candidate sets served from the cross-call memo (same node label
    /// and bound literals seen before on this graph) instead of being
    /// recomputed from the index or a scan.
    pub cand_memo_hits: u64,
    /// Roots matched without a search because a verified ancestor's
    /// embedding still satisfied every constraint of the instance.
    pub witness_hits: u64,
}

impl MatcherStats {
    /// Field-wise sum, for merging per-thread deltas.
    pub fn merge(&mut self, other: MatcherStats) {
        self.index_candidates += other.index_candidates;
        self.scan_candidates += other.scan_candidates;
        self.scan_fallbacks += other.scan_fallbacks;
        self.pool_restrictions += other.pool_restrictions;
        self.shard_skips += other.shard_skips;
        self.order_replans += other.order_replans;
        self.cand_memo_hits += other.cand_memo_hits;
        self.witness_hits += other.witness_hits;
    }

    /// Field-wise difference from an earlier snapshot of the same
    /// thread's counters (counters are monotone, so saturation only
    /// guards against mixing snapshots across threads).
    pub fn delta_since(&self, baseline: MatcherStats) -> MatcherStats {
        MatcherStats {
            index_candidates: self
                .index_candidates
                .saturating_sub(baseline.index_candidates),
            scan_candidates: self
                .scan_candidates
                .saturating_sub(baseline.scan_candidates),
            scan_fallbacks: self.scan_fallbacks.saturating_sub(baseline.scan_fallbacks),
            pool_restrictions: self
                .pool_restrictions
                .saturating_sub(baseline.pool_restrictions),
            shard_skips: self.shard_skips.saturating_sub(baseline.shard_skips),
            order_replans: self.order_replans.saturating_sub(baseline.order_replans),
            cand_memo_hits: self.cand_memo_hits.saturating_sub(baseline.cand_memo_hits),
            witness_hits: self.witness_hits.saturating_sub(baseline.witness_hits),
        }
    }
}

thread_local! {
    static INDEX_CANDIDATES: Cell<u64> = const { Cell::new(0) };
    static SCAN_CANDIDATES: Cell<u64> = const { Cell::new(0) };
    static SCAN_FALLBACKS: Cell<u64> = const { Cell::new(0) };
    static POOL_RESTRICTIONS: Cell<u64> = const { Cell::new(0) };
    static SHARD_SKIPS: Cell<u64> = const { Cell::new(0) };
    static ORDER_REPLANS: Cell<u64> = const { Cell::new(0) };
    static CAND_MEMO_HITS: Cell<u64> = const { Cell::new(0) };
    static WITNESS_HITS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
pub(crate) fn count_index_candidates() {
    INDEX_CANDIDATES.with(|c| c.set(c.get() + 1));
}

#[inline]
pub(crate) fn count_scan_candidates() {
    SCAN_CANDIDATES.with(|c| c.set(c.get() + 1));
}

#[inline]
pub(crate) fn count_scan_fallback() {
    SCAN_FALLBACKS.with(|c| c.set(c.get() + 1));
}

#[inline]
pub(crate) fn count_pool_restriction() {
    POOL_RESTRICTIONS.with(|c| c.set(c.get() + 1));
}

#[inline]
pub(crate) fn count_shard_skips(n: u64) {
    if n > 0 {
        SHARD_SKIPS.with(|c| c.set(c.get() + n));
    }
}

#[inline]
pub(crate) fn count_order_replans() {
    ORDER_REPLANS.with(|c| c.set(c.get() + 1));
}

#[inline]
pub(crate) fn count_cand_memo_hits() {
    CAND_MEMO_HITS.with(|c| c.set(c.get() + 1));
}

#[inline]
pub(crate) fn count_witness_hits() {
    WITNESS_HITS.with(|c| c.set(c.get() + 1));
}

/// Current thread's counters without resetting them.
pub fn matcher_stats() -> MatcherStats {
    MatcherStats {
        index_candidates: INDEX_CANDIDATES.with(Cell::get),
        scan_candidates: SCAN_CANDIDATES.with(Cell::get),
        scan_fallbacks: SCAN_FALLBACKS.with(Cell::get),
        pool_restrictions: POOL_RESTRICTIONS.with(Cell::get),
        shard_skips: SHARD_SKIPS.with(Cell::get),
        order_replans: ORDER_REPLANS.with(Cell::get),
        cand_memo_hits: CAND_MEMO_HITS.with(Cell::get),
        witness_hits: WITNESS_HITS.with(Cell::get),
    }
}

/// Snapshots and resets the current thread's counters. Call before and
/// after a unit of work to attribute counts to it.
pub fn take_stats() -> MatcherStats {
    MatcherStats {
        index_candidates: INDEX_CANDIDATES.with(|c| c.replace(0)),
        scan_candidates: SCAN_CANDIDATES.with(|c| c.replace(0)),
        scan_fallbacks: SCAN_FALLBACKS.with(|c| c.replace(0)),
        pool_restrictions: POOL_RESTRICTIONS.with(|c| c.replace(0)),
        shard_skips: SHARD_SKIPS.with(|c| c.replace(0)),
        order_replans: ORDER_REPLANS.with(|c| c.replace(0)),
        cand_memo_hits: CAND_MEMO_HITS.with(|c| c.replace(0)),
        witness_hits: WITNESS_HITS.with(|c| c.replace(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_resets() {
        let _ = take_stats();
        count_index_candidates();
        count_index_candidates();
        count_pool_restriction();
        let s = matcher_stats();
        assert_eq!(s.index_candidates, 2);
        assert_eq!(s.pool_restrictions, 1);
        let taken = take_stats();
        assert_eq!(taken, s);
        assert_eq!(take_stats(), MatcherStats::default());
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = MatcherStats {
            index_candidates: 1,
            scan_candidates: 2,
            scan_fallbacks: 3,
            pool_restrictions: 4,
            shard_skips: 5,
            order_replans: 7,
            cand_memo_hits: 10,
            witness_hits: 11,
        };
        a.merge(a);
        assert_eq!(a.index_candidates, 2);
        assert_eq!(a.scan_candidates, 4);
        assert_eq!(a.scan_fallbacks, 6);
        assert_eq!(a.pool_restrictions, 8);
        assert_eq!(a.shard_skips, 10);
        assert_eq!(a.order_replans, 14);
        assert_eq!(a.cand_memo_hits, 20);
        assert_eq!(a.witness_hits, 22);
    }

    #[test]
    fn ordering_counters_round_trip() {
        let _ = take_stats();
        count_order_replans();
        let s = take_stats();
        assert_eq!(s.order_replans, 1);
        let d = s.delta_since(MatcherStats::default());
        assert_eq!(d, s);
    }
}
