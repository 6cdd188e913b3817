//! Named-graph registry: load once, share immutably.
//!
//! Graphs are large and read-only after construction, so the registry hands
//! out `Arc<Graph>` clones — workers hold the graph for the duration of a
//! job without copying it, and a reload never invalidates an in-flight
//! run. Each name carries an **epoch** that bumps on every (re)load; the
//! result cache keys on `(name, epoch, …)`, so cached results for a stale
//! graph simply stop being reachable instead of needing eager eviction.

use crate::warm::{WarmCounters, WarmState};
use fairsqg_faults::Fault;
use fairsqg_graph::{Graph, IoError};
use fairsqg_store::StoreError;
use fairsqg_wire::Value;
use std::collections::HashMap;
use std::fmt;
use std::io::BufReader;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Default warm-state byte budget across all graphs: 256 MiB.
pub(crate) const DEFAULT_WARM_BUDGET_BYTES: usize = 256 * 1024 * 1024;

/// Why a graph failed to load — kept structured (not a pre-rendered
/// string) so the wire layer can report the exact position to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The file could not be opened or read.
    Io(String),
    /// Malformed content, with its 1-based position in the file.
    Parse {
        /// Path of the offending file, when known.
        path: Option<String>,
        /// 1-based line number.
        line: usize,
        /// 1-based byte column of the offending field.
        column: usize,
        /// Explanation.
        message: String,
    },
    /// A binary store file failed to open or validate (bad magic, wrong
    /// version, truncation, or corrupt section data).
    Store(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(m) => write!(f, "{m}"),
            LoadError::Parse {
                path,
                line,
                column,
                message,
            } => {
                if let Some(p) = path {
                    write!(f, "{p}: ")?;
                }
                write!(f, "line {line}, column {column}: {message}")
            }
            LoadError::Store(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<LoadError> for String {
    fn from(e: LoadError) -> Self {
        e.to_string()
    }
}

/// How a graph load was served, surfaced per-load and in aggregate so
/// operators can see which path a deployment actually exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadKind {
    /// Text parse: TSV read + full index rebuild.
    Parse,
    /// Binary container: validate + memory-map swap, no re-parse.
    MmapSwap,
}

impl LoadKind {
    /// The wire name of this load kind.
    pub fn as_str(self) -> &'static str {
        match self {
            LoadKind::Parse => "parse",
            LoadKind::MmapSwap => "mmap_swap",
        }
    }
}

/// Aggregate registry counters (the `registry` stats block).
#[derive(Debug, Clone, Copy, Default)]
pub struct RegistryStats {
    /// Graphs currently registered.
    pub graphs: usize,
    /// Loads served by the TSV parse path.
    pub parse_loads: u64,
    /// Loads served by the `.fsg` validate-and-map path.
    pub mmap_loads: u64,
    /// Heap bytes owned by registered graphs' storage.
    pub heap_bytes: usize,
    /// Bytes served zero-copy out of file mappings.
    pub mapped_bytes: usize,
    /// Paths quarantined after a corrupt `.fsg` load.
    pub quarantined: usize,
}

/// Outcome of [`GraphRegistry::load_manifest`]: which entries loaded and
/// which were skipped (with the reason), so a restart can report partial
/// recovery instead of failing wholesale on one bad file.
#[derive(Debug, Clone, Default)]
pub struct ManifestReport {
    /// Names successfully (re)loaded.
    pub loaded: Vec<String>,
    /// `(name, reason)` for entries that failed to load and were skipped.
    pub skipped: Vec<(String, String)>,
}

/// A registered graph together with its load epoch.
#[derive(Clone)]
pub struct GraphEntry {
    /// The shared, immutable graph.
    pub graph: Arc<Graph>,
    /// Incremented on every (re)load of this name.
    pub epoch: u64,
}

/// One graph's warm state plus its LRU bookkeeping.
struct WarmSlot {
    state: Arc<WarmState>,
    last_used: u64,
}

/// The cross-graph warm-state pool: byte-budgeted, LRU-evicted.
struct WarmPool {
    budget_bytes: usize,
    /// Monotonic use counter (LRU clock).
    tick: u64,
    entries: HashMap<String, WarmSlot>,
    evictions: u64,
}

impl Default for WarmPool {
    fn default() -> Self {
        Self {
            budget_bytes: DEFAULT_WARM_BUDGET_BYTES,
            tick: 0,
            entries: HashMap::new(),
            evictions: 0,
        }
    }
}

impl WarmPool {
    /// Evicts least-recently-used entries (never `keep`) until the pool
    /// fits its byte budget or nothing else is evictable.
    fn enforce_budget(&mut self, keep: Option<&str>) {
        loop {
            let total: usize = self.entries.values().map(|s| s.state.approx_bytes()).sum();
            if total <= self.budget_bytes {
                return;
            }
            let victim = self
                .entries
                .iter()
                .filter(|(name, _)| keep != Some(name.as_str()))
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(name, _)| name.clone());
            match victim {
                Some(name) => {
                    self.entries.remove(&name);
                    self.evictions += 1;
                }
                None => return,
            }
        }
    }
}

/// A snapshot of the warm pool's occupancy and hit counters, surfaced in
/// the service `stats` block and the throughput benchmark report.
#[derive(Debug, Clone, Copy, Default)]
pub struct WarmPoolStats {
    /// Graphs with live warm state.
    pub graphs: usize,
    /// Approximate resident bytes across all warm states.
    pub approx_bytes: usize,
    /// The configured byte budget.
    pub budget_bytes: usize,
    /// Warm states dropped by LRU budget enforcement.
    pub evictions: u64,
    /// Diversity-cache requests served warm.
    pub diversity_hits: u64,
    /// Diversity-cache requests built cold.
    pub diversity_misses: u64,
    /// Plan requests served warm.
    pub plan_hits: u64,
    /// Plan requests planned cold.
    pub plan_misses: u64,
    /// Verifications served from a warm plan's match table.
    pub match_hits: u64,
    /// Verifications a warm plan's match table could not serve.
    pub match_misses: u64,
    /// Profiles, plans and match records not stored because they would
    /// have taken their state past the budget.
    pub budget_refusals: u64,
}

/// Thread-safe registry of named graphs.
#[derive(Default)]
pub struct GraphRegistry {
    inner: RwLock<HashMap<String, GraphEntry>>,
    warm: Mutex<WarmPool>,
    warm_counters: Arc<WarmCounters>,
    parse_loads: AtomicU64,
    mmap_loads: AtomicU64,
    /// Paths whose `.fsg` bytes failed validation (digest mismatch, bad
    /// section data, ...): path → reason. A quarantined path fast-fails
    /// on reload until [`GraphRegistry::clear_quarantine`] — corrupt
    /// bytes don't heal themselves, and re-validating a multi-GiB file
    /// on every retry is exactly the work an overloaded server can't
    /// spare.
    quarantine: Mutex<HashMap<String, String>>,
    /// Where each registered name was loaded from (file-backed loads
    /// only): name → (path, kind). Feeds the restart manifest.
    sources: Mutex<HashMap<String, (String, LoadKind)>>,
}

impl GraphRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or reloads) `graph` under `name`; returns the new epoch.
    /// Any warm state for the previous epoch is dropped eagerly — a
    /// reloaded graph must never serve stale tables.
    pub fn insert(&self, name: &str, graph: Graph) -> u64 {
        let mut map = crate::sync::write(&self.inner);
        let epoch = map.get(name).map_or(1, |e| e.epoch + 1);
        map.insert(
            name.to_string(),
            GraphEntry {
                graph: Arc::new(graph),
                epoch,
            },
        );
        drop(map);
        crate::sync::lock(&self.warm).entries.remove(name);
        // An in-memory insert has no file behind it; drop any stale
        // source so the manifest never points a restart at old bytes.
        // File-backed loads re-record their source right after this.
        crate::sync::lock(&self.sources).remove(name);
        epoch
    }

    /// Sets the warm pool's byte budget and enforces it immediately. Warm
    /// states created from now on also store nothing past it.
    pub fn set_warm_budget(&self, bytes: usize) {
        let mut pool = crate::sync::lock(&self.warm);
        pool.budget_bytes = bytes;
        pool.enforce_budget(None);
    }

    /// The warm state for `(name, epoch)`, creating it on first request.
    /// A pooled state for a *different* epoch (the graph was reloaded
    /// after the caller pinned its entry) is left to the pool's normal
    /// replacement: the caller gets a private fresh state, so a job
    /// running on a stale pinned graph can never poison — or be poisoned
    /// by — the current epoch's tables.
    pub fn warm_state(&self, name: &str, epoch: u64) -> Arc<WarmState> {
        let mut pool = crate::sync::lock(&self.warm);
        pool.tick += 1;
        let tick = pool.tick;
        if let Some(slot) = pool.entries.get_mut(name) {
            if slot.state.epoch() == epoch {
                slot.last_used = tick;
                return Arc::clone(&slot.state);
            }
        }
        let state = Arc::new(WarmState::with_budget(
            epoch,
            Arc::clone(&self.warm_counters),
            pool.budget_bytes,
        ));
        let current_epoch = crate::sync::read(&self.inner).get(name).map(|e| e.epoch);
        if current_epoch == Some(epoch) {
            pool.entries.insert(
                name.to_string(),
                WarmSlot {
                    state: Arc::clone(&state),
                    last_used: tick,
                },
            );
            pool.enforce_budget(Some(name));
        }
        state
    }

    /// The pooled warm state for `name` at its *current* epoch, if one is
    /// resident. Does not create state or touch the LRU clock.
    ///
    /// Test oracle: `crates/service/tests/warm_state.rs` reads the pooled
    /// state through it.
    pub fn warm_snapshot(&self, name: &str) -> Option<Arc<WarmState>> {
        crate::sync::lock(&self.warm)
            .entries
            .get(name)
            .map(|s| Arc::clone(&s.state))
    }

    /// Occupancy and hit counters of the warm pool.
    pub fn warm_stats(&self) -> WarmPoolStats {
        let pool = crate::sync::lock(&self.warm);
        let counter = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let c = &self.warm_counters;
        WarmPoolStats {
            graphs: pool.entries.len(),
            approx_bytes: pool.entries.values().map(|s| s.state.approx_bytes()).sum(),
            budget_bytes: pool.budget_bytes,
            evictions: pool.evictions,
            diversity_hits: counter(&c.diversity_hits),
            diversity_misses: counter(&c.diversity_misses),
            plan_hits: counter(&c.plan_hits),
            plan_misses: counter(&c.plan_misses),
            match_hits: counter(&c.match_hits),
            match_misses: counter(&c.match_misses),
            budget_refusals: counter(&c.budget_refusals),
        }
    }

    /// Loads a TSV graph file (see `fairsqg_graph::read_tsv`) under `name`.
    pub fn load_tsv(&self, name: &str, path: &str) -> Result<u64, LoadError> {
        let file = std::fs::File::open(path)
            .map_err(|e| LoadError::Io(format!("cannot open {path}: {e}")))?;
        let graph = fairsqg_graph::read_tsv(BufReader::new(file)).map_err(|e| match e {
            IoError::Io(e) => LoadError::Io(format!("{path}: {e}")),
            IoError::Parse {
                path: err_path,
                line,
                column,
                message,
            } => LoadError::Parse {
                path: err_path.or_else(|| Some(path.to_string())),
                line,
                column,
                message,
            },
        })?;
        self.parse_loads.fetch_add(1, Ordering::Relaxed);
        let epoch = self.insert(name, graph);
        crate::sync::lock(&self.sources)
            .insert(name.to_string(), (path.to_string(), LoadKind::Parse));
        Ok(epoch)
    }

    /// Loads a binary `.fsg` container under `name`: validate, memory-map,
    /// swap the entry and bump the epoch — no text parse, no index
    /// rebuild. The previous mapping (if any) stays alive until the last
    /// in-flight job drops its pinned `Arc`.
    ///
    /// Validation failures (bad magic, digest mismatch, corrupt sections —
    /// anything other than plain I/O) **quarantine** the path: subsequent
    /// loads of the same path fast-fail without re-reading the file until
    /// [`clear_quarantine`](Self::clear_quarantine).
    pub fn load_store(&self, name: &str, path: &str) -> Result<u64, LoadError> {
        if let Some(reason) = crate::sync::lock(&self.quarantine).get(path).cloned() {
            return Err(LoadError::Store(format!(
                "{path}: quarantined after corrupt load ({reason}); \
                 clear the quarantine to retry"
            )));
        }
        let loaded = fairsqg_store::open_path(Path::new(path)).map_err(|e| match e {
            StoreError::Io(io) => LoadError::Io(format!("cannot open {path}: {io}")),
            other => {
                crate::sync::lock(&self.quarantine).insert(path.to_string(), other.to_string());
                LoadError::Store(format!("{path}: {other}"))
            }
        })?;
        self.mmap_loads.fetch_add(1, Ordering::Relaxed);
        let epoch = self.insert(name, loaded.graph);
        crate::sync::lock(&self.sources)
            .insert(name.to_string(), (path.to_string(), LoadKind::MmapSwap));
        Ok(epoch)
    }

    /// Quarantined paths with their reasons, sorted by path.
    pub fn quarantined(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = crate::sync::lock(&self.quarantine)
            .iter()
            .map(|(p, r)| (p.clone(), r.clone()))
            .collect();
        out.sort();
        out
    }

    /// Lifts the quarantine on `path` (e.g. after the file was rewritten).
    /// Returns whether the path was quarantined.
    pub fn clear_quarantine(&self, path: &str) -> bool {
        crate::sync::lock(&self.quarantine).remove(path).is_some()
    }

    /// Loads a graph file under `name`, picking the path by extension:
    /// `.fsg` containers go through the zero-copy mmap swap, anything
    /// else through the TSV parser. Returns the new epoch and which path
    /// served the load.
    pub fn load_path(&self, name: &str, path: &str) -> Result<(u64, LoadKind), LoadError> {
        if fairsqg_store::is_store_path(Path::new(path)) {
            self.load_store(name, path).map(|e| (e, LoadKind::MmapSwap))
        } else {
            self.load_tsv(name, path).map(|e| (e, LoadKind::Parse))
        }
    }

    /// Aggregate registry counters: load-path split and resident bytes of
    /// all registered graphs (heap vs mapped).
    pub fn stats(&self) -> RegistryStats {
        let map = crate::sync::read(&self.inner);
        let mut stats = RegistryStats {
            graphs: map.len(),
            parse_loads: self.parse_loads.load(Ordering::Relaxed),
            mmap_loads: self.mmap_loads.load(Ordering::Relaxed),
            heap_bytes: 0,
            mapped_bytes: 0,
            quarantined: crate::sync::lock(&self.quarantine).len(),
        };
        for entry in map.values() {
            let f = entry.graph.storage();
            stats.heap_bytes += f.heap_bytes;
            stats.mapped_bytes += f.mapped_bytes;
        }
        stats
    }

    /// Returns the current entry for `name`, if registered.
    pub fn get(&self, name: &str) -> Option<GraphEntry> {
        crate::sync::read(&self.inner).get(name).cloned()
    }

    /// Registered names with their epochs and node counts, sorted by name.
    pub fn list(&self) -> Vec<(String, u64, usize)> {
        let map = crate::sync::read(&self.inner);
        let mut out: Vec<(String, u64, usize)> = map
            .iter()
            .map(|(n, e)| (n.clone(), e.epoch, e.graph.node_count()))
            .collect();
        out.sort();
        out
    }

    /// Writes a versioned manifest of every file-backed graph to `path`
    /// (temp-file + rename, so a crash mid-write never leaves a torn
    /// manifest). Returns the number of entries written. In-memory
    /// graphs have no file to point at and are omitted.
    ///
    /// Format: `{"version": 1, "graphs": [{"name", "path", "kind",
    /// "epoch"}, ...]}`, one JSON object, sorted by name.
    ///
    /// Honors the `manifest.write` fail point: an `error` fault surfaces
    /// as an I/O failure; `return` silently skips the write (a lost
    /// manifest, for crash-drill tests).
    pub fn write_manifest(&self, path: &str) -> Result<usize, LoadError> {
        let mut entries: Vec<(String, String, LoadKind, u64)> = {
            let sources = crate::sync::lock(&self.sources);
            let map = crate::sync::read(&self.inner);
            sources
                .iter()
                .filter_map(|(name, (src, kind))| {
                    map.get(name)
                        .map(|e| (name.clone(), src.clone(), *kind, e.epoch))
                })
                .collect()
        };
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let count = entries.len();
        let graphs: Vec<Value> = entries
            .into_iter()
            .map(|(name, src, kind, epoch)| {
                Value::object([
                    ("name", Value::from(name)),
                    ("path", Value::from(src)),
                    ("kind", Value::from(kind.as_str())),
                    ("epoch", Value::from(epoch)),
                ])
            })
            .collect();
        let manifest = Value::object([
            ("version", Value::from(1u64)),
            ("graphs", Value::Array(graphs)),
        ]);
        match fairsqg_faults::fire("manifest.write") {
            Some(Fault::Error(m)) => {
                return Err(LoadError::Io(format!("manifest write {path}: {m}")))
            }
            Some(Fault::ReturnEarly) => return Ok(count),
            None => {}
        }
        let mut text = manifest.to_string();
        text.push('\n');
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, text.as_bytes())
            .map_err(|e| LoadError::Io(format!("cannot write {tmp}: {e}")))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| LoadError::Io(format!("cannot rename {tmp} -> {path}: {e}")))?;
        Ok(count)
    }

    /// Reloads every graph listed in a manifest written by
    /// [`write_manifest`](Self::write_manifest). Entries that fail to
    /// load (missing file, corrupt bytes, quarantined path) are skipped
    /// and reported — one bad file must not sink the whole restart.
    ///
    /// Honors the `manifest.read` fail point: an `error` fault surfaces
    /// as an I/O failure; `return` behaves as an empty manifest.
    pub fn load_manifest(&self, path: &str) -> Result<ManifestReport, LoadError> {
        match fairsqg_faults::fire("manifest.read") {
            Some(Fault::Error(m)) => {
                return Err(LoadError::Io(format!("manifest read {path}: {m}")))
            }
            Some(Fault::ReturnEarly) => return Ok(ManifestReport::default()),
            None => {}
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| LoadError::Io(format!("cannot read {path}: {e}")))?;
        let value = fairsqg_wire::parse(&text)
            .map_err(|e| LoadError::Io(format!("{path}: invalid manifest JSON: {e}")))?;
        match value.get("version").and_then(Value::as_u64) {
            Some(1) => {}
            other => {
                return Err(LoadError::Io(format!(
                    "{path}: unsupported manifest version {other:?} (this build reads 1)"
                )))
            }
        }
        let Some(Value::Array(graphs)) = value.get("graphs") else {
            return Err(LoadError::Io(format!(
                "{path}: manifest has no 'graphs' array"
            )));
        };
        let mut report = ManifestReport::default();
        for entry in graphs {
            let name = entry.get("name").and_then(Value::as_str);
            let src = entry.get("path").and_then(Value::as_str);
            let (Some(name), Some(src)) = (name, src) else {
                report.skipped.push((
                    name.unwrap_or("<unnamed>").to_string(),
                    "manifest entry missing 'name' or 'path'".to_string(),
                ));
                continue;
            };
            match self.load_path(name, src) {
                Ok(_) => report.loaded.push(name.to_string()),
                Err(e) => report.skipped.push((name.to_string(), e.to_string())),
            }
        }
        Ok(report)
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        crate::sync::read(&self.inner).len()
    }

    /// Whether no graph is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsqg_datagen::{social_graph, SocialConfig};

    fn tiny() -> Graph {
        social_graph(SocialConfig {
            directors: 20,
            majority_share: 0.6,
            seed: 1,
        })
    }

    #[test]
    fn epochs_bump_on_reload() {
        let reg = GraphRegistry::new();
        assert_eq!(reg.insert("g", tiny()), 1);
        assert_eq!(reg.insert("g", tiny()), 2);
        assert_eq!(reg.get("g").unwrap().epoch, 2);
        assert!(reg.get("missing").is_none());
    }

    #[test]
    fn arcs_survive_reload() {
        let reg = GraphRegistry::new();
        reg.insert("g", tiny());
        let held = reg.get("g").unwrap().graph;
        reg.insert("g", tiny());
        // The old Arc is still alive and usable (in-flight job semantics).
        assert!(held.node_count() > 0);
    }

    #[test]
    fn warm_state_is_stable_per_epoch() {
        let reg = GraphRegistry::new();
        let epoch = reg.insert("g", tiny());
        let a = reg.warm_state("g", epoch);
        let b = reg.warm_state("g", epoch);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.epoch(), epoch);
        assert_eq!(reg.warm_stats().graphs, 1);
    }

    #[test]
    fn reload_drops_warm_state() {
        let reg = GraphRegistry::new();
        let e1 = reg.insert("g", tiny());
        let old = reg.warm_state("g", e1);
        assert!(reg.warm_snapshot("g").is_some());
        let e2 = reg.insert("g", tiny());
        // Eager invalidation: the pool is empty until someone asks again.
        assert!(reg.warm_snapshot("g").is_none());
        let fresh = reg.warm_state("g", e2);
        assert!(!Arc::ptr_eq(&old, &fresh));
        assert_eq!(fresh.epoch(), e2);
    }

    #[test]
    fn stale_epoch_gets_private_state() {
        let reg = GraphRegistry::new();
        let e1 = reg.insert("g", tiny());
        let e2 = reg.insert("g", tiny());
        // A job pinned to e1 (admitted before the reload) gets a private
        // fresh state that is NOT pooled under the name.
        let stale = reg.warm_state("g", e1);
        assert_eq!(stale.epoch(), e1);
        assert!(reg.warm_snapshot("g").is_none());
        // The current epoch pools normally.
        let current = reg.warm_state("g", e2);
        assert!(Arc::ptr_eq(&current, &reg.warm_snapshot("g").unwrap()));
    }

    #[test]
    fn budget_evicts_least_recently_used_graph() {
        let g = tiny();
        let label = g.schema().find_node_label("director").unwrap();
        let reg = GraphRegistry::new();
        let ea = reg.insert("a", tiny());
        let eb = reg.insert("b", tiny());
        let wa = reg.warm_state("a", ea);
        wa.diversity_cache(
            &reg.get("a").unwrap().graph,
            label,
            &fairsqg_measures::DiversityConfig::default(),
        );
        let wb = reg.warm_state("b", eb);
        wb.diversity_cache(
            &reg.get("b").unwrap().graph,
            label,
            &fairsqg_measures::DiversityConfig::default(),
        );
        assert_eq!(reg.warm_stats().graphs, 2);
        // Touch "a" so "b" is the LRU victim, then squeeze the budget.
        let _ = reg.warm_state("a", ea);
        reg.set_warm_budget(0);
        let stats = reg.warm_stats();
        assert_eq!(stats.graphs, 0, "budget 0 evicts everything");
        assert!(stats.evictions >= 2);
    }

    #[test]
    fn requested_graph_survives_budget_enforcement() {
        let reg = GraphRegistry::new();
        let ea = reg.insert("a", tiny());
        let eb = reg.insert("b", tiny());
        // "a" is created under the default budget, so it may still grow
        // after the pool's budget drops to zero; a state created later
        // stores nothing past zero bytes.
        let wa = reg.warm_state("a", ea);
        reg.set_warm_budget(0);
        let label = reg
            .get("a")
            .unwrap()
            .graph
            .schema()
            .find_node_label("director")
            .unwrap();
        // Make "a" non-empty so the next enforcement pass is over budget.
        wa.diversity_cache(
            &reg.get("a").unwrap().graph,
            label,
            &fairsqg_measures::DiversityConfig::default(),
        );
        let wb = reg.warm_state("b", eb);
        // "b" was just requested: it must still be pooled even under a
        // zero budget; "a" is the only legal victim.
        assert!(Arc::ptr_eq(&wb, &reg.warm_snapshot("b").unwrap()));
        assert!(reg.warm_snapshot("a").is_none());
        assert!(reg.warm_stats().evictions >= 1);
    }

    #[test]
    fn load_path_dispatches_on_extension() {
        let dir = std::env::temp_dir().join(format!("fairsqg-reg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = tiny();
        let tsv = dir.join("g.tsv");
        let fsg = dir.join("g.fsg");
        {
            let mut out = Vec::new();
            fairsqg_graph::write_tsv(&g, &mut out).unwrap();
            std::fs::write(&tsv, out).unwrap();
        }
        fairsqg_store::write_graph_to_path(&g, &fsg).unwrap();

        let reg = GraphRegistry::new();
        let (e1, k1) = reg.load_path("g", tsv.to_str().unwrap()).unwrap();
        assert_eq!((e1, k1), (1, LoadKind::Parse));
        let (e2, k2) = reg.load_path("g", fsg.to_str().unwrap()).unwrap();
        assert_eq!((e2, k2), (2, LoadKind::MmapSwap));

        // Both paths produce the same graph shape; reload swapped epochs.
        let entry = reg.get("g").unwrap();
        assert_eq!(entry.epoch, 2);
        assert_eq!(entry.graph.node_count(), g.node_count());
        assert_eq!(entry.graph.edge_count(), g.edge_count());

        let stats = reg.stats();
        assert_eq!(stats.graphs, 1);
        assert_eq!(stats.parse_loads, 1);
        assert_eq!(stats.mmap_loads, 1);
        assert!(
            stats.mapped_bytes > 0,
            "an mmap-swapped graph must report mapped bytes"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_store_quarantines_path_until_cleared() {
        let dir = std::env::temp_dir().join(format!("fairsqg-reg-quar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.fsg");
        std::fs::write(&path, b"garbage, not a container").unwrap();
        let reg = GraphRegistry::new();
        let p = path.to_str().unwrap();

        // First load validates and fails; the path is now quarantined.
        let first = reg.load_path("g", p).unwrap_err();
        assert!(matches!(first, LoadError::Store(_)), "got {first:?}");
        assert_eq!(reg.stats().quarantined, 1);
        assert_eq!(reg.quarantined().len(), 1);

        // Second load fast-fails without touching the file.
        let second = reg.load_path("g", p).unwrap_err();
        match &second {
            LoadError::Store(m) => {
                assert!(
                    m.contains("quarantined"),
                    "fast-fail names the quarantine: {m}"
                )
            }
            other => panic!("expected Store error, got {other:?}"),
        }

        // Rewrite good bytes, lift the quarantine: the load succeeds.
        fairsqg_store::write_graph_to_path(&tiny(), &path).unwrap();
        assert!(reg.clear_quarantine(p));
        assert!(!reg.clear_quarantine(p), "second clear is a no-op");
        let (epoch, kind) = reg.load_path("g", p).unwrap();
        assert_eq!((epoch, kind), (1, LoadKind::MmapSwap));
        assert_eq!(reg.stats().quarantined, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_roundtrip_reloads_file_backed_graphs() {
        let dir = std::env::temp_dir().join(format!("fairsqg-reg-man-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = tiny();
        let tsv = dir.join("a.tsv");
        let fsg = dir.join("b.fsg");
        {
            let mut out = Vec::new();
            fairsqg_graph::write_tsv(&g, &mut out).unwrap();
            std::fs::write(&tsv, out).unwrap();
        }
        fairsqg_store::write_graph_to_path(&g, &fsg).unwrap();

        let reg = GraphRegistry::new();
        reg.load_path("a", tsv.to_str().unwrap()).unwrap();
        reg.load_path("b", fsg.to_str().unwrap()).unwrap();
        // In-memory graphs have no file and must not appear.
        reg.insert("mem", tiny());
        let manifest = dir.join("manifest.json");
        let written = reg.write_manifest(manifest.to_str().unwrap()).unwrap();
        assert_eq!(written, 2);

        // A fresh registry (a restarted process) recovers both graphs.
        let fresh = GraphRegistry::new();
        let report = fresh.load_manifest(manifest.to_str().unwrap()).unwrap();
        assert_eq!(report.loaded, vec!["a".to_string(), "b".to_string()]);
        assert!(report.skipped.is_empty());
        assert_eq!(fresh.len(), 2);
        assert_eq!(fresh.get("b").unwrap().graph.node_count(), g.node_count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_skips_unloadable_entries() {
        let dir = std::env::temp_dir().join(format!("fairsqg-reg-skip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fsg = dir.join("good.fsg");
        fairsqg_store::write_graph_to_path(&tiny(), &fsg).unwrap();
        let manifest = dir.join("manifest.json");
        std::fs::write(
            &manifest,
            format!(
                "{{\"version\":1,\"graphs\":[\
                 {{\"name\":\"good\",\"path\":\"{}\",\"kind\":\"mmap_swap\",\"epoch\":1}},\
                 {{\"name\":\"gone\",\"path\":\"{}/missing.fsg\",\"kind\":\"mmap_swap\",\"epoch\":1}},\
                 {{\"name\":\"incomplete\"}}]}}\n",
                fsg.to_str().unwrap(),
                dir.to_str().unwrap()
            ),
        )
        .unwrap();
        let reg = GraphRegistry::new();
        let report = reg.load_manifest(manifest.to_str().unwrap()).unwrap();
        assert_eq!(report.loaded, vec!["good".to_string()]);
        assert_eq!(
            report.skipped.len(),
            2,
            "bad entries reported: {:?}",
            report.skipped
        );
        assert_eq!(reg.len(), 1);

        // A manifest from the future is refused outright.
        std::fs::write(&manifest, "{\"version\":9,\"graphs\":[]}\n").unwrap();
        let err = reg.load_manifest(manifest.to_str().unwrap()).unwrap_err();
        assert!(matches!(err, LoadError::Io(_)), "got {err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_store_reports_corruption_as_store_error() {
        let dir = std::env::temp_dir().join(format!("fairsqg-reg-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.fsg");
        std::fs::write(&bad, b"not a container").unwrap();
        let reg = GraphRegistry::new();
        let err = reg.load_path("g", bad.to_str().unwrap()).unwrap_err();
        match err {
            LoadError::Store(m) => assert!(m.contains("bad.fsg"), "message names the file: {m}"),
            other => panic!("expected Store error, got {other:?}"),
        }
        assert!(reg.is_empty());
        assert_eq!(reg.stats().mmap_loads, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
