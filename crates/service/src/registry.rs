//! The graph registry: ingest once, keep the built CSR resident —
//! or *mapped*, when a state directory makes graphs durable.
//!
//! Every caller used to pay full graph construction per query; the
//! registry makes ingestion a one-time cost. Graphs arrive as edge-list
//! documents ([`planartest_graph::io`]) or generator specs
//! ([`planartest_graph::generators::spec`]), are fingerprinted by
//! content, and stay resident in CSR form. Ingesting the same content
//! twice — under any name, via either route — lands on the same entry:
//! names are aliases, the fingerprint is the identity.
//!
//! # Tiering
//!
//! With a state directory ([`GraphRegistry::set_state_dir`]) every
//! graph lives in one of two tiers behind the *same* [`Graph`] API, so
//! the engine, batch lanes and testers run unchanged over either:
//!
//! * **Resident** — the hot `Vec`-backed CSR, built in RAM.
//! * **Mapped** — a zero-copy `mmap` view of the relocatable on-disk
//!   CSR spill at `<state>/csr/<fingerprint>.csr`
//!   ([`planartest_graph::disk`]).
//!
//! Ingests write through: the CSR is spilled once per content and the
//! binding appended to `<state>/manifest.ldjson`, so a restart
//! re-maps every graph by name or fingerprint without re-building
//! anything. When the resident tier exceeds
//! [`GraphRegistry::resident_capacity`], the least-recently-resolved
//! resident entry is **demoted**: the entry is re-pointed at the mmap
//! view and its heap CSR dropped once no running pass holds it (an
//! entry's graph is an [`Arc`], which the scheduler's groups share) —
//! `n ≫ 10^6` graphs stay queryable far past RAM. The streaming ingest
//! routes
//! ([`ingest_spec_to_disk`](GraphRegistry::ingest_spec_to_disk),
//! [`ingest_edge_list_to_disk`](GraphRegistry::ingest_edge_list_to_disk))
//! never materialize the heap CSR at all: edges stream through the
//! two-pass counting-sort builder straight onto disk and the entry is
//! born mapped. An edge list streams from the request text itself, which
//! every caller already holds (a wire frame, or the CLI's read of
//! `--graph-file`), with no staging file. Each route reads the same
//! format definition as its in-memory twin, so both accept the same
//! input, build the same graph and report the same error.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use planartest_graph::disk::{self, DiskError};
use planartest_graph::fingerprint::Fingerprint;
use planartest_graph::generators::{spec, PlanarityStatus};
use planartest_graph::io::{self, ParseGraphError};
use planartest_graph::Graph;

use crate::error::ServiceError;
use crate::persist::PersistError;
use crate::query::GraphRef;
use crate::wire::Value;

/// Default resident-tier cap: plenty for interactive workloads while
/// bounding heap CSR bytes on a server mapping thousands of graphs.
pub const DEFAULT_RESIDENT_CAPACITY: usize = 64;

/// One registered graph: the CSR (resident or mapped) plus ingest
/// metadata.
#[derive(Debug, Clone)]
pub struct GraphEntry {
    /// The graph, in CSR form, built once at ingest. May be backed by
    /// a heap `Vec` (resident) or an mmap view (mapped) — see
    /// [`Graph::is_mapped`]. Shared, so an engine pass holds its graph
    /// without borrowing the registry.
    pub graph: Arc<Graph>,
    /// Content fingerprint (the registry key).
    pub fingerprint: Fingerprint,
    /// Aliases this entry was ingested under, in first-seen order.
    pub names: Vec<String>,
    /// Human-readable provenance (`edge_list` or the generator spec).
    pub source: String,
    /// What the generator certified, when the graph came from a spec
    /// (`None` for raw edge lists — nothing is known by construction).
    pub certified: Option<PlanarityStatus>,
}

/// The graph registry (see the [module docs](self)).
#[derive(Debug)]
pub struct GraphRegistry {
    entries: Vec<GraphEntry>,
    by_fingerprint: HashMap<Fingerprint, usize>,
    by_name: HashMap<String, usize>,
    /// The durable state directory (CSR spills + manifest), when set.
    state_dir: Option<PathBuf>,
    /// Per-entry recency stamps, parallel to `entries`. Atomic so the
    /// read-side [`resolve`](Self::resolve) (`&self`) can touch them.
    recency: Vec<AtomicU64>,
    /// Monotone logical clock driving the demotion LRU order.
    clock: AtomicU64,
    resident_capacity: usize,
}

impl Default for GraphRegistry {
    fn default() -> Self {
        GraphRegistry {
            entries: Vec::new(),
            by_fingerprint: HashMap::new(),
            by_name: HashMap::new(),
            state_dir: None,
            recency: Vec::new(),
            clock: AtomicU64::new(0),
            resident_capacity: DEFAULT_RESIDENT_CAPACITY,
        }
    }
}

fn persist_io(context: &str, e: std::io::Error) -> ServiceError {
    ServiceError::Persist(PersistError::Io(format!("{context}: {e}")))
}

fn csr_path(dir: &Path, fingerprint: Fingerprint) -> PathBuf {
    dir.join("csr").join(format!("{fingerprint}.csr"))
}

fn certified_to_value(certified: Option<PlanarityStatus>) -> Value {
    match certified {
        None => Value::Null,
        Some(PlanarityStatus::Planar) => Value::Str("planar".into()),
        Some(PlanarityStatus::Unknown) => Value::Str("unknown".into()),
        Some(PlanarityStatus::FarFromPlanar { min_removals }) => {
            Value::obj().field("min_removals", min_removals)
        }
    }
}

fn certified_from_value(v: &Value) -> Option<PlanarityStatus> {
    match v {
        Value::Str(s) if s == "planar" => Some(PlanarityStatus::Planar),
        Value::Str(s) if s == "unknown" => Some(PlanarityStatus::Unknown),
        Value::Obj(_) => {
            let min_removals = usize::try_from(v.get("min_removals")?.as_u64()?).ok()?;
            Some(PlanarityStatus::FarFromPlanar { min_removals })
        }
        _ => None,
    }
}

impl GraphRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        GraphRegistry::default()
    }

    /// Number of distinct registered graphs (both tiers).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no graph is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the registered entries in ingest order.
    pub fn entries(&self) -> impl Iterator<Item = &GraphEntry> {
        self.entries.iter()
    }

    /// Graphs currently in the hot `Vec`-backed tier.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.entries.iter().filter(|e| !e.graph.is_mapped()).count()
    }

    /// Graphs currently served from the mmap-backed spill tier.
    #[must_use]
    pub fn mapped(&self) -> usize {
        self.entries.iter().filter(|e| e.graph.is_mapped()).count()
    }

    /// The durable state directory, if one is attached.
    #[must_use]
    pub fn state_dir(&self) -> Option<&Path> {
        self.state_dir.as_deref()
    }

    /// The resident-tier cap the demotion policy enforces.
    #[must_use]
    pub fn resident_capacity(&self) -> usize {
        self.resident_capacity
    }

    /// Replaces the resident-tier cap, demoting immediately if the
    /// resident tier already exceeds it (no-op without a state dir —
    /// there is nowhere to demote to).
    pub fn set_resident_capacity(&mut self, capacity: usize) {
        self.resident_capacity = capacity.max(1);
        self.demote_over_capacity();
    }

    /// Attaches the durable state directory: creates its layout,
    /// re-maps every graph recorded in `manifest.ldjson` (zero-copy,
    /// no rebuild), and write-through-spills any graph already
    /// resident. Returns how many graphs were restored from disk.
    /// Malformed manifest lines and missing/corrupt spill files are
    /// skipped, never fatal — a half-written manifest line is the
    /// crash-tolerance twin of the certificate log's torn tail.
    ///
    /// # Errors
    ///
    /// I/O failures creating the directory layout or spilling the
    /// already-resident entries.
    pub fn set_state_dir(&mut self, dir: &Path) -> Result<usize, ServiceError> {
        std::fs::create_dir_all(dir.join("csr")).map_err(|e| persist_io("create state dir", e))?;
        let mut restored = 0usize;
        let manifest = dir.join("manifest.ldjson");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let Ok(v) = Value::parse(line) else { continue };
                let Some(fp) = v
                    .get("fingerprint")
                    .and_then(Value::as_str)
                    .and_then(|s| s.parse::<Fingerprint>().ok())
                else {
                    continue;
                };
                let Some(name) = v.get("name").and_then(Value::as_str) else {
                    continue;
                };
                let index = match self.by_fingerprint.get(&fp) {
                    Some(&i) => i,
                    None => {
                        let Ok(graph) = disk::load_mapped(&csr_path(dir, fp)) else {
                            continue; // spill missing or corrupt: skip
                        };
                        let source = v
                            .get("source")
                            .and_then(Value::as_str)
                            .unwrap_or("unknown")
                            .to_string();
                        let certified = v.get("certified").and_then(certified_from_value);
                        self.push_entry(GraphEntry {
                            graph: Arc::new(graph),
                            fingerprint: fp,
                            names: Vec::new(),
                            source,
                            certified,
                        });
                        restored += 1;
                        self.entries.len() - 1
                    }
                };
                // Bind the alias unless a live entry with different
                // content already owns the name.
                if self.by_name.get(name).is_none_or(|&i| i == index) {
                    let entry = &mut self.entries[index];
                    if !entry.names.iter().any(|n| n == name) {
                        entry.names.push(name.to_string());
                        self.by_name.insert(name.to_string(), index);
                    }
                }
            }
        }
        self.state_dir = Some(dir.to_path_buf());
        // Write-through for anything ingested before the dir attached.
        for i in 0..self.entries.len() {
            if !self.entries[i].graph.is_mapped() {
                self.spill(i)?;
            }
        }
        self.demote_over_capacity();
        Ok(restored)
    }

    fn push_entry(&mut self, entry: GraphEntry) {
        self.by_fingerprint
            .insert(entry.fingerprint, self.entries.len());
        self.entries.push(entry);
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        self.recency.push(AtomicU64::new(tick));
    }

    /// Writes entry `i`'s CSR spill (if absent) and appends its bindings
    /// to the manifest.
    fn spill(&mut self, index: usize) -> Result<(), ServiceError> {
        let Some(dir) = self.state_dir.clone() else {
            return Ok(());
        };
        let entry = &self.entries[index];
        let path = csr_path(&dir, entry.fingerprint);
        if !path.exists() {
            disk::save(&entry.graph, &path).map_err(|e| ServiceError::Persist(e.into()))?;
        }
        for name in entry.names.clone() {
            self.append_manifest(&dir, index, &name)?;
        }
        Ok(())
    }

    fn append_manifest(&self, dir: &Path, index: usize, name: &str) -> Result<(), ServiceError> {
        use std::io::Write;
        let entry = &self.entries[index];
        let mut line = Value::obj()
            .field("fingerprint", entry.fingerprint.to_string())
            .field("name", name)
            .field("source", entry.source.as_str())
            .field("certified", certified_to_value(entry.certified))
            .to_string();
        line.push('\n');
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("manifest.ldjson"))
            .map_err(|e| persist_io("open manifest", e))?;
        file.write_all(line.as_bytes())
            .map_err(|e| persist_io("append manifest", e))?;
        Ok(())
    }

    /// Demotes least-recently-resolved resident entries to the mapped
    /// tier until the resident count fits the cap. Requires a state
    /// dir (the spill is the demotion target).
    fn demote_over_capacity(&mut self) {
        let Some(dir) = self.state_dir.clone() else {
            return;
        };
        loop {
            let mut resident: Vec<(usize, u64)> = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.graph.is_mapped())
                .map(|(i, _)| (i, self.recency[i].load(Ordering::Relaxed)))
                .collect();
            if resident.len() <= self.resident_capacity {
                return;
            }
            resident.sort_by_key(|&(_, tick)| tick);
            let (victim, _) = resident[0];
            let path = csr_path(&dir, self.entries[victim].fingerprint);
            match disk::load_mapped(&path) {
                Ok(mapped) => self.entries[victim].graph = Arc::new(mapped),
                // Spill unexpectedly missing: keep the entry resident
                // rather than losing it.
                Err(_) => return,
            }
        }
    }

    /// Ingests an already-built graph under `name`.
    ///
    /// If a graph with the same fingerprint is already registered, the
    /// name is attached as an alias and the existing entry is returned —
    /// the build cost is paid at most once per content. With a state
    /// dir, new content is write-through-spilled to disk and every new
    /// binding appended to the manifest before the entry is visible.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NameTaken`] if `name` is already bound to a graph
    /// with *different* content (silently rebinding an alias would make
    /// subsequent queries answer about a different graph than the client
    /// believes); [`ServiceError::Persist`] if the write-through spill
    /// fails.
    pub fn ingest_graph(
        &mut self,
        name: &str,
        graph: Graph,
        source: String,
        certified: Option<PlanarityStatus>,
    ) -> Result<&GraphEntry, ServiceError> {
        let fingerprint = graph.fingerprint();
        if let Some(&existing) = self.by_name.get(name) {
            if self.entries[existing].fingerprint != fingerprint {
                return Err(ServiceError::NameTaken {
                    name: name.to_string(),
                });
            }
        }
        // Spill new content before registering: a persistence failure
        // leaves the registry unchanged.
        let is_new = !self.by_fingerprint.contains_key(&fingerprint);
        if is_new {
            if let Some(dir) = self.state_dir.clone() {
                let path = csr_path(&dir, fingerprint);
                if !path.exists() {
                    disk::save(&graph, &path).map_err(|e| ServiceError::Persist(e.into()))?;
                }
            }
        }
        let index = match self.by_fingerprint.get(&fingerprint) {
            Some(&i) => i,
            None => {
                self.push_entry(GraphEntry {
                    graph: Arc::new(graph),
                    fingerprint,
                    names: Vec::new(),
                    source,
                    certified,
                });
                self.entries.len() - 1
            }
        };
        let entry = &mut self.entries[index];
        let new_alias = !entry.names.iter().any(|n| n == name);
        if new_alias {
            entry.names.push(name.to_string());
            self.by_name.insert(name.to_string(), index);
        }
        if new_alias {
            if let Some(dir) = self.state_dir.clone() {
                self.append_manifest(&dir, index, name)?;
            }
        }
        self.touch(index);
        self.demote_over_capacity();
        Ok(&self.entries[index])
    }

    /// Ingests an edge-list document (see [`io::from_edge_list`]).
    ///
    /// # Errors
    ///
    /// Propagates parse failures and name conflicts.
    pub fn ingest_edge_list(
        &mut self,
        name: &str,
        text: &str,
    ) -> Result<&GraphEntry, ServiceError> {
        let graph = io::from_edge_list(text).map_err(ServiceError::EdgeList)?;
        self.ingest_graph(name, graph, "edge_list".to_string(), None)
    }

    /// Ingests a generator spec (see [`spec::parse`]), keeping the
    /// generator's certification alongside the graph.
    ///
    /// # Errors
    ///
    /// Propagates spec failures and name conflicts.
    pub fn ingest_spec(&mut self, name: &str, text: &str) -> Result<&GraphEntry, ServiceError> {
        let certified = spec::parse(text).map_err(ServiceError::Spec)?;
        self.ingest_graph(
            name,
            certified.graph,
            text.trim().to_string(),
            Some(certified.status),
        )
    }

    /// Ingests a generator spec **out-of-core**: closed-form families
    /// stream their edges through the two-pass counting-sort builder
    /// straight to the CSR spill — the full edge vector and the heap
    /// CSR are never materialized — and the entry is registered mapped.
    /// Randomized families (which must materialize to be generated at
    /// all) fall back to [`ingest_spec`](Self::ingest_spec) and are
    /// write-through-spilled like any resident ingest.
    ///
    /// # Errors
    ///
    /// Requires a state dir ([`PersistError::NoStateDir`]); propagates
    /// spec/stream/name failures.
    pub fn ingest_spec_to_disk(
        &mut self,
        name: &str,
        text: &str,
    ) -> Result<&GraphEntry, ServiceError> {
        let Some(dir) = self.state_dir.clone() else {
            return Err(ServiceError::Persist(PersistError::NoStateDir));
        };
        let Some(mut streamable) = spec::streamable(text).map_err(ServiceError::Spec)? else {
            return self.ingest_spec(name, text);
        };
        let tmp = dir.join("csr").join("ingest.tmp.csr");
        let stats = disk::stream_to_disk(&mut streamable, &tmp)
            .map_err(|e| ServiceError::Persist(e.into()))?;
        self.register_streamed(
            name,
            &dir,
            &tmp,
            stats.fingerprint,
            text.trim().to_string(),
            Some(streamable.status()),
        )
    }

    /// Ingests an edge-list document out-of-core (see
    /// [`ingest_spec_to_disk`](Self::ingest_spec_to_disk)): the
    /// counting-sort builder streams the text twice, so only O(n)
    /// counters — never the edge vector — live in RAM. A bad document
    /// is the same [`ServiceError::EdgeList`] that
    /// [`ingest_edge_list`](Self::ingest_edge_list) reports.
    ///
    /// # Errors
    ///
    /// Requires a state dir; propagates parse/stream/name failures.
    pub fn ingest_edge_list_to_disk(
        &mut self,
        name: &str,
        text: &str,
    ) -> Result<&GraphEntry, ServiceError> {
        let Some(dir) = self.state_dir.clone() else {
            return Err(ServiceError::Persist(PersistError::NoStateDir));
        };
        let mut source = io::EdgeList::parse(text).map_err(ServiceError::EdgeList)?;
        let tmp = dir.join("csr").join("ingest.tmp.csr");
        let stats = disk::stream_to_disk(&mut source, &tmp).map_err(|e| match e {
            DiskError::Parse(e) => ServiceError::EdgeList(e),
            DiskError::Graph(e) => ServiceError::EdgeList(ParseGraphError::Graph(e)),
            e => ServiceError::Persist(e.into()),
        })?;
        self.register_streamed(
            name,
            &dir,
            &tmp,
            stats.fingerprint,
            "edge_list".to_string(),
            None,
        )
    }

    /// Moves a freshly streamed spill into place and registers it as a
    /// mapped entry.
    fn register_streamed(
        &mut self,
        name: &str,
        dir: &Path,
        tmp: &Path,
        fingerprint: Fingerprint,
        source: String,
        certified: Option<PlanarityStatus>,
    ) -> Result<&GraphEntry, ServiceError> {
        let path = csr_path(dir, fingerprint);
        if path.exists() {
            let _ = std::fs::remove_file(tmp);
        } else {
            std::fs::rename(tmp, &path).map_err(|e| persist_io("place csr spill", e))?;
        }
        let graph = disk::load_mapped(&path).map_err(|e| ServiceError::Persist(e.into()))?;
        self.ingest_graph(name, graph, source, certified)
    }

    fn touch(&self, index: usize) {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        self.recency[index].store(tick, Ordering::Relaxed);
    }

    /// Resolves a query's graph reference to a registered entry,
    /// stamping its recency (the demotion policy's LRU signal).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownGraph`] when nothing matches.
    pub fn resolve(&self, graph: &GraphRef) -> Result<&GraphEntry, ServiceError> {
        let index = match graph {
            GraphRef::Name(name) => self.by_name.get(name.as_str()),
            GraphRef::Fingerprint(fp) => self.by_fingerprint.get(fp),
        };
        index
            .map(|&i| {
                self.touch(i);
                &self.entries[i]
            })
            .ok_or_else(|| ServiceError::UnknownGraph {
                graph: graph.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_state(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pt_reg_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spec_and_edge_list_routes_collide_on_content() {
        let mut reg = GraphRegistry::new();
        let fp1 = reg.ingest_spec("a", "grid(3,3)").unwrap().fingerprint;
        let text = io::to_edge_list(&spec::parse("grid(3,3)").unwrap().graph);
        let fp2 = reg.ingest_edge_list("b", &text).unwrap().fingerprint;
        assert_eq!(fp1, fp2);
        assert_eq!(reg.len(), 1, "one resident CSR serves both aliases");
        let entry = reg.resolve(&GraphRef::Name("b".into())).unwrap();
        assert_eq!(entry.names, vec!["a".to_string(), "b".to_string()]);
        // Certification survives from the spec route.
        assert_eq!(entry.certified, Some(PlanarityStatus::Planar));
        assert_eq!(
            reg.resolve(&GraphRef::Fingerprint(fp1))
                .unwrap()
                .fingerprint,
            fp1
        );
    }

    #[test]
    fn rebinding_a_name_to_other_content_errors() {
        let mut reg = GraphRegistry::new();
        reg.ingest_spec("g", "grid(3,3)").unwrap();
        // Same name, same content: fine (idempotent re-ingest).
        reg.ingest_spec("g", "grid(3,3)").unwrap();
        let err = reg.ingest_spec("g", "grid(4,4)").unwrap_err();
        assert!(matches!(err, ServiceError::NameTaken { .. }));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn unknown_graphs_and_bad_input_error() {
        let mut reg = GraphRegistry::new();
        assert!(matches!(
            reg.resolve(&GraphRef::Name("missing".into())),
            Err(ServiceError::UnknownGraph { .. })
        ));
        assert!(matches!(
            reg.ingest_edge_list("x", "not a graph"),
            Err(ServiceError::EdgeList(_))
        ));
        assert!(matches!(
            reg.ingest_spec("x", "nope(1)"),
            Err(ServiceError::Spec(_))
        ));
        assert!(reg.is_empty());
    }

    #[test]
    fn state_dir_spills_and_restores_bindings() {
        let dir = temp_state("restore");
        let fp;
        {
            let mut reg = GraphRegistry::new();
            reg.set_state_dir(&dir).unwrap();
            fp = reg
                .ingest_spec("city", "tri_grid(5,5)")
                .unwrap()
                .fingerprint;
            reg.ingest_spec("alias", "tri_grid(5,5)").unwrap();
            reg.ingest_edge_list("raw", "2 1\n0 1\n").unwrap();
            assert!(csr_path(&dir, fp).exists(), "write-through spill");
        }
        // Cold restart: a fresh registry restores both graphs mapped.
        let mut reg = GraphRegistry::new();
        let restored = reg.set_state_dir(&dir).unwrap();
        assert_eq!(restored, 2);
        assert_eq!(reg.mapped(), 2);
        assert_eq!(reg.resident(), 0);
        let entry = reg.resolve(&GraphRef::Name("alias".into())).unwrap();
        assert_eq!(entry.fingerprint, fp);
        assert!(entry.graph.is_mapped());
        assert_eq!(entry.names, vec!["city".to_string(), "alias".to_string()]);
        assert_eq!(entry.certified, Some(PlanarityStatus::Planar));
        assert_eq!(entry.source, "tri_grid(5,5)");
        assert!(reg.resolve(&GraphRef::Name("raw".into())).is_ok());
        assert!(reg.resolve(&GraphRef::Fingerprint(fp)).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_demotion_keeps_recently_resolved_graphs_resident() {
        let dir = temp_state("demote");
        let mut reg = GraphRegistry::new();
        reg.set_state_dir(&dir).unwrap();
        reg.set_resident_capacity(2);
        reg.ingest_spec("a", "grid(3,3)").unwrap();
        reg.ingest_spec("b", "grid(4,4)").unwrap();
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        reg.resolve(&GraphRef::Name("a".into())).unwrap();
        reg.ingest_spec("c", "grid(5,5)").unwrap();
        assert_eq!(reg.resident(), 2);
        assert_eq!(reg.mapped(), 1);
        let b = reg.resolve(&GraphRef::Name("b".into())).unwrap();
        assert!(b.graph.is_mapped(), "LRU entry demoted to the mmap tier");
        let a = reg.resolve(&GraphRef::Name("a".into())).unwrap();
        assert!(!a.graph.is_mapped(), "recently used entry stays resident");
        // Demoted entries answer the same queries: content is identical.
        let resident = spec::parse("grid(4,4)").unwrap().graph;
        let b = reg.resolve(&GraphRef::Name("b".into())).unwrap();
        assert_eq!(*b.graph, resident);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_ingest_is_born_mapped_and_matches_materialized() {
        let dir = temp_state("stream");
        let mut reg = GraphRegistry::new();
        reg.set_state_dir(&dir).unwrap();
        let entry = reg.ingest_spec_to_disk("g", "tri_grid(6,6)").unwrap();
        assert!(entry.graph.is_mapped(), "streamed ingest never resides");
        assert_eq!(entry.certified, Some(PlanarityStatus::Planar));
        let fp = entry.fingerprint;
        assert_eq!(
            fp,
            spec::parse("tri_grid(6,6)").unwrap().graph.fingerprint()
        );
        // Re-ingesting the same content via the resident route lands on
        // the same (mapped) entry.
        let again = reg.ingest_spec("g2", "tri_grid(6,6)").unwrap();
        assert_eq!(again.fingerprint, fp);
        assert_eq!(reg.len(), 1);
        // Edge-list route, and the no-state-dir error.
        let e = reg
            .ingest_edge_list_to_disk("el", "3 2\n0 1\n1 2\n")
            .unwrap();
        assert!(e.graph.is_mapped());
        let mut bare = GraphRegistry::new();
        assert!(matches!(
            bare.ingest_spec_to_disk("x", "grid(3,3)"),
            Err(ServiceError::Persist(PersistError::NoStateDir))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
