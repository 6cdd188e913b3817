//! Cross-request LRU result cache.
//!
//! Keyed by a *fingerprint* string covering the graph epoch, the template
//! text, and every generation parameter (ε, λ, coverage, algorithm, …) —
//! see [`crate::job::JobSpec::fingerprint`]. Graph reloads bump the epoch,
//! so stale entries become unreachable and age out by LRU pressure rather
//! than requiring eager invalidation.
//!
//! Recency is a monotone tick per access, indexed through a `BTreeMap`
//! (oldest tick first), giving `O(log n)` touch/evict without unsafe code
//! or intrusive lists.

use std::collections::{BTreeMap, HashMap};

/// Hit/miss/eviction counters of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Current number of live entries.
    pub entries: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 when the cache was never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A least-recently-used cache with a fixed entry budget.
pub struct LruCache<V> {
    capacity: usize,
    tick: u64,
    map: HashMap<String, (u64, V)>,
    recency: BTreeMap<u64, String>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V: Clone> LruCache<V> {
    /// A cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            map: HashMap::new(),
            recency: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<V> {
        let tick = self.next_tick();
        match self.map.get_mut(key) {
            Some((t, v)) => {
                // The stored key moves to its new tick; a hit copies no
                // key (a fingerprint carries the whole template text).
                let stored = self.recency.remove(&*t).expect("every entry has a tick");
                *t = tick;
                self.recency.insert(tick, stored);
                self.hits += 1;
                Some(v.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `key → value`, evicting the least-recently-used entry when
    /// over budget. A no-op when the capacity is 0.
    pub fn put(&mut self, key: &str, value: V) {
        if self.capacity == 0 {
            return;
        }
        let tick = self.next_tick();
        if let Some((old_tick, _)) = self.map.insert(key.to_string(), (tick, value)) {
            self.recency.remove(&old_tick);
        }
        self.recency.insert(tick, key.to_string());
        while self.map.len() > self.capacity {
            let (&oldest, _) = self.recency.iter().next().expect("nonempty with len > cap");
            let victim = self.recency.remove(&oldest).expect("tick just observed");
            self.map.remove(&victim);
            self.evictions += 1;
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        assert_eq!(c.get("a"), Some(1)); // refresh a; b is now LRU
        c.put("c", 3);
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("a"), Some(1));
        assert_eq!(c.get("c"), Some(3));
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn overwrite_keeps_single_entry() {
        let mut c = LruCache::new(4);
        c.put("k", 1);
        c.put("k", 2);
        assert_eq!(c.get("k"), Some(2));
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = LruCache::new(0);
        c.put("k", 1);
        assert_eq!(c.get("k"), None);
        assert_eq!(c.stats().hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate() {
        let mut c = LruCache::new(2);
        c.put("k", 1);
        c.get("k");
        c.get("nope");
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }
}
