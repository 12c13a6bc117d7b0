//! E14 — durability benchmark for the tiered registry and certificate
//! log; writes `BENCH_persist.json`.
//!
//! Three measurements, mirroring the persistence layer's three
//! promises:
//!
//! * **certificate replay** — a certified-far corpus is rejected cold
//!   (every query pays an engine pass), the service is dropped, and a
//!   *fresh* process-equivalent service re-attaches the same state
//!   directory: the identical queries must come back as certificate
//!   replays, and the replay p50 must beat the cold p50 by at least
//!   [`PersistGate::REPLAY_SPEEDUP_FLOOR`]× (a reject is a permanent
//!   proof; serving it again must never cost an engine pass);
//! * **streaming ingest** — a ≥10⁶-node grid is streamed spec→disk
//!   through the two-pass counting-sort builder without materializing
//!   a heap CSR, then memory-mapped; the whole pipeline must fit the
//!   quick-mode CI budget and the entry must be born mapped;
//! * **mapped vs resident parity** — the same graph served from a
//!   heap-resident CSR and from the mmap-backed tier must produce
//!   bit-identical outcomes (verdict, rounds, words) under an identical
//!   query mix — the engine cannot tell the tiers apart.
//!
//! The `--check` binary turns [`PersistGate::pass`] into an exit code
//! for CI, the same contract as `runtime_bench` and `load_bench`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use planartest_core::TesterConfig;
use planartest_service::{CacheStatus, GraphRef, Histogram, Query, Service};

use crate::json::Json;
use crate::quick;

/// Certified-far corpus: every member rejects, so every cold query
/// mints a durable certificate.
fn far_corpus() -> Vec<(&'static str, String)> {
    let tiles = if quick() { 24 } else { 64 };
    let n = if quick() { 120 } else { 300 };
    vec![
        ("far_k5", format!("k5_chain({tiles})")),
        (
            "far_chords",
            format!("planar_plus_chords({n}, {n}, seed=7)"),
        ),
    ]
}

fn reject_queries(names: &[&str]) -> Vec<Query> {
    let seeds = if quick() { 3u64 } else { 6 };
    let mut queries = Vec::new();
    for &name in names {
        for seed in 0..seeds {
            queries.push(Query::planarity(
                GraphRef::Name(name.to_string()),
                TesterConfig::new(0.05).with_phases(8).with_seed(seed),
            ));
        }
    }
    queries
}

fn p50(micros: &[u64]) -> u64 {
    let mut hist = Histogram::new();
    for &v in micros {
        hist.record(v);
    }
    hist.value_at_quantile(0.50)
}

/// Cold-reject / restart-replay scenario. Returns the JSON row and the
/// cold-p50 / replay-p50 ratio.
fn replay_section(dir: &Path) -> (Json, f64) {
    let corpus = far_corpus();
    let names: Vec<&str> = corpus.iter().map(|(n, _)| *n).collect();
    let queries = reject_queries(&names);

    // Cold pass: a first service owns the state dir, ingests the far
    // corpus and pays one engine pass per certificate.
    let mut service = Service::new();
    service.set_state_dir(dir).expect("attach state dir");
    for (name, spec_text) in &corpus {
        service
            .registry_mut()
            .ingest_spec(name, spec_text)
            .expect("corpus spec");
    }
    // Only queries that actually hit the engine count as "recompute"
    // cost: one-sided error means the first reject per graph already
    // certifies every later seed, so the in-memory certificate absorbs
    // the rest of the sweep even before any restart.
    let mut cold_micros = Vec::new();
    let mut cold_outcomes = Vec::with_capacity(queries.len());
    let started = Instant::now();
    for q in &queries {
        let one = Instant::now();
        let r = service.query(q.clone()).expect("cold query");
        if r.cache == CacheStatus::Cold {
            cold_micros.push(one.elapsed().as_micros() as u64);
        }
        assert!(!r.outcome.accepted(), "far corpus must reject");
        cold_outcomes.push((
            r.outcome.accepted(),
            r.outcome.stats().total_rounds(),
            r.outcome.stats().words,
        ));
    }
    let cold_wall = started.elapsed().as_secs_f64();
    assert_eq!(
        cold_micros.len(),
        corpus.len(),
        "exactly one engine pass per far graph"
    );
    let engine_passes = service.engine_passes();
    drop(service);

    // Restart: a fresh service re-attaches the directory. Graph
    // bindings come back mapped from the manifest, certificates replay
    // from the log — the same queries must never touch the engine.
    let mut revived = Service::new();
    let summary = revived.set_state_dir(dir).expect("re-attach state dir");
    assert_eq!(
        summary.graphs_restored,
        corpus.len(),
        "manifest must restore every binding"
    );
    assert!(
        summary.certificates_replayed >= 1,
        "certificate log must replay at least one reject"
    );
    let mut replay_micros = Vec::with_capacity(queries.len());
    let started = Instant::now();
    for (q, cold) in queries.iter().zip(&cold_outcomes) {
        let one = Instant::now();
        let r = revived.query(q.clone()).expect("replay query");
        replay_micros.push(one.elapsed().as_micros() as u64);
        assert_ne!(r.cache, CacheStatus::Cold, "replay pass hit the engine");
        let got = (
            r.outcome.accepted(),
            r.outcome.stats().total_rounds(),
            r.outcome.stats().words,
        );
        assert_eq!(&got, cold, "replayed outcome diverged from cold run");
    }
    let replay_wall = started.elapsed().as_secs_f64();
    assert_eq!(revived.engine_passes(), 0, "replay must be engine-free");

    let cold_p50 = p50(&cold_micros);
    let replay_p50 = p50(&replay_micros);
    let speedup = cold_p50 as f64 / replay_p50.max(1) as f64;
    println!(
        "replay     {:>5} queries cold p50 {cold_p50:>8}us   replay p50 {replay_p50:>6}us   speedup {speedup:.1}x",
        queries.len(),
    );
    let row = Json::obj()
        .field("queries", queries.len())
        .field("cold_engine_queries", cold_micros.len())
        .field("cold_engine_passes", engine_passes)
        .field("cold_wall_seconds", cold_wall)
        .field("cold_p50_micros", cold_p50)
        .field("replay_wall_seconds", replay_wall)
        .field("replay_p50_micros", replay_p50)
        .field("certificates_replayed", summary.certificates_replayed)
        .field("graphs_restored", summary.graphs_restored)
        .field("speedup", speedup);
    (row, speedup)
}

/// Streaming-ingest scenario: spec → two-pass disk build → mmap,
/// never materializing a heap CSR. Returns the JSON row and the node
/// count that actually streamed.
fn streaming_section(dir: &Path) -> (Json, u64) {
    // 10⁶ nodes in both modes: the acceptance bar is that out-of-core
    // ingest at this scale fits the CI budget, not a scaled-down proxy.
    let spec_text = "grid(1000,1000)";
    let mut service = Service::new();
    service.set_state_dir(dir).expect("attach state dir");
    let started = Instant::now();
    let entry = service
        .registry_mut()
        .ingest_spec_to_disk("mega", spec_text)
        .expect("streaming ingest");
    let secs = started.elapsed().as_secs_f64();
    let (n, m) = (entry.graph.n() as u64, entry.graph.m() as u64);
    let mapped = entry.graph.is_mapped();
    let fingerprint = entry.fingerprint;
    assert!(mapped, "streamed graph must be born mapped");
    let csr_bytes = std::fs::metadata(dir.join("csr").join(format!("{fingerprint}.csr")))
        .map(|meta| meta.len())
        .unwrap_or(0);
    let rate = n as f64 / secs.max(1e-9) / 1e6;
    println!(
        "stream     {spec_text} n={n} m={m}   {secs:.2}s ({rate:.1} Mnode/s)   csr {:.1} MiB   mapped={mapped}",
        csr_bytes as f64 / (1024.0 * 1024.0),
    );
    let row = Json::obj()
        .field("spec", spec_text)
        .field("n", n)
        .field("m", m)
        .field("seconds", secs)
        .field("nodes_per_second", n as f64 / secs.max(1e-9))
        .field("csr_bytes", csr_bytes)
        .field("fingerprint", fingerprint.to_string())
        .field("born_mapped", mapped);
    (row, n)
}

/// Mapped-vs-resident parity: one graph served from the heap tier and
/// from the mmap tier under the same query mix; outcomes must agree
/// bit for bit. Returns the JSON row and whether parity held.
fn parity_section(dir: &Path) -> (Json, bool) {
    let side = if quick() { 20 } else { 32 };
    let spec_text = format!("tri_grid({side},{side})");
    let seeds = if quick() { 4u64 } else { 8 };
    let make = |seed: u64| {
        Query::planarity(
            GraphRef::Name("g".into()),
            TesterConfig::new(0.1).with_phases(8).with_seed(seed),
        )
    };
    let run = |service: &mut Service| -> (Vec<(bool, u64, u64)>, f64) {
        let started = Instant::now();
        let outs = (0..seeds)
            .map(|seed| {
                let r = service.query(make(seed)).expect("parity query");
                (
                    r.outcome.accepted(),
                    r.outcome.stats().total_rounds(),
                    r.outcome.stats().words,
                )
            })
            .collect();
        (outs, started.elapsed().as_secs_f64())
    };

    // Resident tier: plain in-memory ingest, no state dir.
    let mut resident = Service::new();
    resident
        .registry_mut()
        .ingest_spec("g", &spec_text)
        .expect("resident spec");
    assert!(!resident
        .registry()
        .resolve(&GraphRef::Name("g".into()))
        .expect("resolve")
        .graph
        .is_mapped());
    let (resident_outs, resident_secs) = run(&mut resident);

    // Mapped tier: the same spec streamed to disk and memory-mapped.
    let mut mapped = Service::new();
    mapped.set_state_dir(dir).expect("attach state dir");
    let entry = mapped
        .registry_mut()
        .ingest_spec_to_disk("g", &spec_text)
        .expect("mapped spec");
    assert!(entry.graph.is_mapped(), "disk ingest must map the graph");
    let (mapped_outs, mapped_secs) = run(&mut mapped);

    let parity = resident_outs == mapped_outs;
    assert!(parity, "mapped tier diverged from resident tier");
    println!(
        "parity     {spec_text} x{seeds} seeds   resident {resident_secs:.3}s   mapped {mapped_secs:.3}s   identical={parity}",
    );
    let row = Json::obj()
        .field("spec", spec_text.as_str())
        .field("seeds", seeds)
        .field("resident_seconds", resident_secs)
        .field("mapped_seconds", mapped_secs)
        .field("outcomes_identical", parity);
    (row, parity)
}

/// The CI gate over `BENCH_persist.json`.
#[derive(Debug, Clone, Copy)]
pub struct PersistGate {
    /// Cold-reject p50 over restart-replay p50.
    pub replay_p50_speedup: f64,
    /// Nodes streamed through the out-of-core ingest pipeline.
    pub streamed_nodes: u64,
    /// Whether mapped-tier outcomes matched the resident tier bit for
    /// bit.
    pub tier_parity: bool,
}

impl PersistGate {
    /// Minimum accepted cold-p50 / replay-p50 ratio: serving a stored
    /// certificate must beat recomputing it by at least two orders of
    /// magnitude (measured ~1000× or better in practice; 100× leaves
    /// headroom for noisy CI hosts without ever letting a replay that
    /// secretly re-runs the engine slip through).
    pub const REPLAY_SPEEDUP_FLOOR: f64 = 100.0;

    /// Minimum node count the streaming-ingest scenario must push
    /// through the two-pass disk builder, in quick mode included.
    pub const STREAM_NODES_FLOOR: u64 = 1_000_000;

    /// Whether the gate passes: certificate replay ≥ 100× cheaper than
    /// recompute at the median, at least 10⁶ nodes streamed spec→disk
    /// →mmap inside the CI budget, and the mapped tier bit-identical
    /// to the resident tier.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.replay_p50_speedup >= Self::REPLAY_SPEEDUP_FLOOR
            && self.streamed_nodes >= Self::STREAM_NODES_FLOOR
            && self.tier_parity
    }
}

/// Builds the benchmark document (also printed as tables) plus the
/// gate. State lives under a per-process temp directory, removed on
/// the way out.
#[must_use]
pub fn persist_bench_document() -> (Json, PersistGate) {
    println!("\n## persistence benchmark (certificate replay / streaming ingest / tier parity)");
    let root = scratch_dir();
    let (replay_row, replay_p50_speedup) = replay_section(&root.join("replay"));
    let (stream_row, streamed_nodes) = streaming_section(&root.join("stream"));
    let (parity_row, tier_parity) = parity_section(&root.join("parity"));
    let _ = std::fs::remove_dir_all(&root);

    let gate = PersistGate {
        replay_p50_speedup,
        streamed_nodes,
        tier_parity,
    };
    let doc = Json::obj()
        .field("schema", "planartest-bench/persist/v1")
        .field("quick_mode", quick())
        .field("host", crate::host())
        .field("certificate_replay", replay_row)
        .field("streaming_ingest", stream_row)
        .field("tier_parity", parity_row)
        .field(
            "gate",
            Json::obj()
                .field("replay_p50_speedup", replay_p50_speedup)
                .field(
                    "replay_p50_speedup_floor",
                    PersistGate::REPLAY_SPEEDUP_FLOOR,
                )
                .field("streamed_nodes", streamed_nodes)
                .field("streamed_nodes_floor", PersistGate::STREAM_NODES_FLOOR)
                .field("tier_parity", tier_parity)
                .field("pass", gate.pass()),
        );
    (doc, gate)
}

fn scratch_dir() -> PathBuf {
    let root = std::env::temp_dir().join(format!("planartest-e14-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create bench scratch dir");
    root
}

/// Runs the benchmark and writes `BENCH_persist.json` into the current
/// directory (the repo root under `cargo run`); returns the CI gate.
pub fn persist_bench() -> PersistGate {
    let (doc, gate) = persist_bench_document();
    let path = "BENCH_persist.json";
    std::fs::write(path, doc.pretty()).expect("write BENCH_persist.json");
    println!("wrote {path}");
    gate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_thresholds() {
        let gate = |replay: f64, nodes: u64, parity: bool| PersistGate {
            replay_p50_speedup: replay,
            streamed_nodes: nodes,
            tier_parity: parity,
        };
        assert!(gate(100.0, 1_000_000, true).pass());
        assert!(!gate(99.9, 1_000_000, true).pass());
        assert!(!gate(100.0, 999_999, true).pass());
        assert!(!gate(100.0, 1_000_000, false).pass());
        assert!(gate(1800.0, 1_002_001, true).pass());
    }

    #[test]
    fn far_corpus_specs_parse_and_reject() {
        for (_, spec_text) in far_corpus() {
            planartest_graph::generators::spec::parse(&spec_text).expect("corpus spec");
        }
    }
}
