//! E15 — the serving bench, written both as tables and as the one
//! machine-readable `BENCH_load.json`.
//!
//! The **closed loop** section waits for each answer before the next
//! query, isolating the one-sided cache and the coalescing scheduler
//! from queueing: cold vs warm replay of a planar / certified-far
//! corpus (a reject replays as a certificate, with no engine pass; the
//! cold pass is also split into each key's first touch and the fresh
//! seeds that ride its memoised prepared tester), a 16-seed fan-out
//! served serially vs coalesced into one pass, a
//! [`CONNECTIONS`]-client unix-socket burst coalesced across clients,
//! and the cold path with vs without the `--trace` writer (whose log
//! is left behind as the `BENCH_trace.ldjson` artifact). The gated
//! serial baselines clear the cache before every query, so they keep
//! measuring first-touch passes against one coalesced pass; the
//! memo-kept serial figure is reported beside them, ungated.
//!
//! The **open loop** sweep sends requests on a pre-computed arrival
//! schedule regardless of responses, exactly the way independent users
//! behave, so offered load can exceed capacity and queueing collapse —
//! invisible to a closed loop, which self-throttles — becomes
//! measurable.
//!
//! Per sweep rate, against a fresh in-process [`Server`]:
//!
//! * **Poisson arrivals** at the offered QPS
//!   ([`planartest_sim::sampling::PoissonArrivals`], seeded — the
//!   schedule is bit-reproducible), assigned round-robin to
//!   [`CONNECTIONS`] unix-socket clients;
//! * **Zipf graph popularity** over a multi-family corpus (planar
//!   accept-path graphs, certified-far reject/certificate-path graphs)
//!   — a few graphs soak most of the traffic, the tail stays warm-ish;
//! * a **weighted op mix**: warm `query` traffic across all three
//!   properties, fresh-seed queries that pay engine passes mid-load,
//!   `batch` fan-outs, `stats` probes and `ingest` ops (the control
//!   ops wake the drain loop immediately, so the mix exercises both
//!   wake paths);
//! * latency comes from the service's own telemetry histograms
//!   (`queue → resolve → execute → respond`, one timebase), windowed
//!   to the measured run via [`Histogram::subtract`] so cache warmup
//!   does not pollute the percentiles.
//!
//! The sweep walks rates upward (escalating ×4 past the initial list
//! if needed) until it finds the **saturation knee**: the first rate
//! where achieved throughput falls below [`KNEE_FRACTION`] of the
//! schedule's realized offered rate. The knee criterion compares
//! against the *realized* schedule rate (requests ÷ last arrival
//! time), not the nominal one, so Poisson sampling variance at small
//! request counts cannot fake a knee. The lowest rate is then re-run
//! under the same seed and the per-connection response digests are
//! asserted identical — the reproducibility contract.
//!
//! After the sweep, a **slow-reader fairness scenario** runs the same
//! rate point twice — once with four healthy clients, once with one
//! client throttled to ~1 byte/ms — and compares the *healthy*
//! connections' client-side p99 between the runs. With per-connection
//! outbound writers a stalled reader sheds only its own responses;
//! the gate rejects any regression toward the old shared write path,
//! where one unread socket buffer stalled the drain cycle for
//! everyone.
//!
//! The `--check` gate is [`LoadGate`]; [`LoadGate::clauses`] lists
//! every clause.

use crate::json::Json;
use crate::quick;

/// Workload-schedule seed; `BENCH_load.json` records it, and the
/// determinism section proves a re-run under it is bit-identical.
pub const LOAD_SEED: u64 = 0x0b5e_55ed;

/// Concurrent unix-socket client connections per rate point (and the
/// closed-loop burst's client count).
pub const CONNECTIONS: usize = 4;

/// The `BENCH_load.json` schema tag.
const SCHEMA: &str = "planartest-bench/load/v3";

/// Knee criterion: the first rate whose achieved throughput drops
/// below this fraction of the realized offered rate is saturated.
pub const KNEE_FRACTION: f64 = 0.9;

/// What one scheduled request is, for response accounting: every op
/// kind gets exactly one response line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Single property query (any of the three properties).
    Query,
    /// A `batch` op carrying several queries in one frame.
    Batch,
    /// A `stats` probe (control op: wakes the drain loop).
    Stats,
    /// An `ingest` op registering a (content-deduplicated) graph.
    Ingest,
}

/// One scheduled request: when it is sent, what it is, and the exact
/// wire line (newline included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Send time in microseconds after the schedule origin.
    pub at_micros: u64,
    /// Op kind (drives response digesting).
    pub kind: OpKind,
    /// The LDJSON request line, `\n`-terminated.
    pub line: String,
}

/// A full per-rate request schedule, split per connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Arrival lists per connection, each in schedule order.
    pub per_conn: Vec<Vec<Arrival>>,
    /// Total request lines across connections.
    pub requests: usize,
    /// Total queries including batch members (for telemetry
    /// cross-checks; `stats`/`ingest` ops are not queries).
    pub queries: usize,
    /// When the last request is scheduled, in microseconds.
    pub last_arrival_micros: u64,
}

/// The graph corpus: mostly planar families (accept path, per-seed
/// cache stripes) plus certified-far ones (reject path, permanent
/// certificates). The leading entries carry most of the Zipf mass.
fn corpus() -> Vec<(&'static str, String, bool)> {
    if quick() {
        vec![
            ("g0", "tri_grid(12,12)".to_string(), true),
            ("g1", "grid(14,14)".to_string(), true),
            ("g2", "random_planar(140, 0.7, seed=3)".to_string(), true),
            ("g3", "k5_chain(10)".to_string(), false),
            ("g4", "cycle(180)".to_string(), true),
            ("g5", "complete(9)".to_string(), false),
        ]
    } else {
        vec![
            ("g0", "tri_grid(18,18)".to_string(), true),
            ("g1", "grid(22,22)".to_string(), true),
            ("g2", "random_planar(300, 0.7, seed=3)".to_string(), true),
            ("g3", "k5_chain(20)".to_string(), false),
            ("g4", "cycle(400)".to_string(), true),
            ("g5", "complete(12)".to_string(), false),
            ("g6", "apollonian(6)".to_string(), true),
            ("g7", "complete_bipartite(4,5)".to_string(), false),
        ]
    }
}

/// The closed-loop corpus: planar (accepts, cached per seed),
/// certified-far (rejects, cached as permanent certificates), and a
/// denser planar instance — all ingested once, resident thereafter.
fn closed_loop_corpus() -> Vec<(&'static str, String, bool)> {
    let side = if quick() { 14 } else { 24 };
    let tiles = if quick() { 16 } else { 40 };
    let n = if quick() { 150 } else { 400 };
    vec![
        ("tri", format!("tri_grid({side},{side})"), true),
        ("far", format!("k5_chain({tiles})"), false),
        ("rp", format!("random_planar({n}, 0.7, seed=3)"), true),
    ]
}

/// Distance parameters the warm pool and the closed-loop mix cover.
const EPSILONS: [f64; 2] = [0.1, 0.2];
/// Phase count for every query (practical regime, see E4).
const PHASES: u64 = 6;

fn warm_seeds() -> u64 {
    if quick() {
        4
    } else {
        6
    }
}

fn query_line(graph: &str, property: &str, eps: f64, seed: u64) -> String {
    let prop = if property == "planarity" {
        String::new()
    } else {
        format!("\"property\":\"{property}\",")
    };
    format!(
        "{{\"op\":\"query\",\"graph\":\"{graph}\",{prop}\"epsilon\":{eps},\
         \"phases\":{PHASES},\"seed\":{seed}}}\n"
    )
}

/// Builds the deterministic request schedule for one rate point.
///
/// Op mix (drawn per arrival from one seeded RNG stream, so the whole
/// workload — times, targets, ops — reproduces from `(seed, rate)`):
///
/// * 72% warm planarity query (Zipf graph, warm-pool seed/epsilon);
/// * 8% warm hereditary-property query (cycle-freeness or
///   bipartiteness — seed-independent cache entries);
/// * 5% fresh-seed planarity query on a *planar* graph: pays a cold
///   engine pass mid-load (planar-only keeps the verdict independent
///   of cross-connection arrival order — planarity is one-sided, so
///   planar graphs accept under every seed);
/// * 4% `batch` of three warm queries;
/// * 7% `stats` probe;
/// * 4% `ingest` of a small spec under a fresh name (content-level
///   dedup makes it an alias registration).
#[must_use]
pub fn build_workload(seed: u64, rate_per_sec: f64, horizon_micros: u64) -> Workload {
    use planartest_sim::sampling::{PoissonArrivals, Zipf};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let corpus = corpus();
    let planar_graphs: Vec<&str> = corpus
        .iter()
        .filter(|(_, _, planar)| *planar)
        .map(|(name, _, _)| *name)
        .collect();
    let zipf = Zipf::new(corpus.len(), 1.1);
    let planar_zipf = Zipf::new(planar_graphs.len(), 1.1);
    let seeds = warm_seeds();

    let schedule = PoissonArrivals::schedule(seed, rate_per_sec, horizon_micros);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut per_conn: Vec<Vec<Arrival>> = vec![Vec::new(); CONNECTIONS];
    let mut queries = 0usize;
    let mut fresh = 0u64;
    let mut ingests = 0u64;

    let warm_query = |rng: &mut StdRng| -> String {
        let graph = corpus[zipf.sample(rng)].0;
        let eps = EPSILONS[rng.random_range(0..EPSILONS.len())];
        let s = rng.random_range(0..seeds);
        query_line(graph, "planarity", eps, s)
    };

    for (i, &at) in schedule.iter().enumerate() {
        let draw: f64 = rng.random();
        let (kind, line) = if draw < 0.72 {
            queries += 1;
            (OpKind::Query, warm_query(&mut rng))
        } else if draw < 0.80 {
            queries += 1;
            let graph = corpus[zipf.sample(&mut rng)].0;
            let eps = EPSILONS[rng.random_range(0..EPSILONS.len())];
            let property = if rng.random_range(0..2u32) == 0 {
                "cycle_freeness"
            } else {
                "bipartiteness"
            };
            (OpKind::Query, query_line(graph, property, eps, 0))
        } else if draw < 0.85 {
            queries += 1;
            let graph = planar_graphs[planar_zipf.sample(&mut rng)];
            let eps = EPSILONS[rng.random_range(0..EPSILONS.len())];
            fresh += 1;
            (
                OpKind::Query,
                query_line(graph, "planarity", eps, 10_000 + fresh),
            )
        } else if draw < 0.89 {
            let members: Vec<String> = (0..3)
                .map(|_| {
                    queries += 1;
                    let q = warm_query(&mut rng);
                    q.trim_end().to_string()
                })
                .collect();
            (
                OpKind::Batch,
                format!("{{\"op\":\"batch\",\"queries\":[{}]}}\n", members.join(",")),
            )
        } else if draw < 0.96 {
            (OpKind::Stats, "{\"op\":\"stats\"}\n".to_string())
        } else {
            ingests += 1;
            (
                OpKind::Ingest,
                format!("{{\"op\":\"ingest\",\"name\":\"ld{ingests}\",\"spec\":\"cycle(24)\"}}\n"),
            )
        };
        per_conn[i % CONNECTIONS].push(Arrival {
            at_micros: at,
            kind,
            line,
        });
    }
    Workload {
        requests: schedule.len(),
        queries,
        last_arrival_micros: schedule.last().copied().unwrap_or(0),
        per_conn,
    }
}

/// The CI gate over `BENCH_load.json`.
#[derive(Debug, Clone, Copy)]
pub struct LoadGate {
    /// A saturation knee was located above the lowest sweep rate.
    pub knee_detected: bool,
    /// Realized offered QPS at the knee itself (the first saturated
    /// rate) — the capacity ratchet [`LoadGate::KNEE_FLOOR_QPS`]
    /// guards.
    pub knee_offered_qps: f64,
    /// Realized offered QPS at the highest sub-knee rate.
    pub sub_knee_offered_qps: f64,
    /// p99 end-to-end latency (µs) at the highest sub-knee rate.
    pub sub_knee_p99_micros: u64,
    /// Warm-hit (warm + certificate) p99 latency (µs) at the highest
    /// sub-knee rate — the pipelined fast path answers these at
    /// resolve time, ahead of the execute barrier.
    pub warm_p99_micros: u64,
    /// The lowest rate re-run under the same seed produced identical
    /// per-connection response digests and request schedules.
    pub deterministic: bool,
    /// Responses lost *mid-flight* across the whole sweep (must be 0:
    /// every client reads to completion; shutdown-flush and shed
    /// ledgers are separate).
    pub responses_lost: u64,
    /// Client-side p99 (µs) of the fairness scenario's healthy
    /// connections when every client reads promptly.
    pub all_healthy_p99_micros: u64,
    /// Client-side p99 (µs) of the *same* connections when one peer
    /// connection is throttled to ~1 byte/ms.
    pub slow_reader_healthy_p99_micros: u64,
    /// Closed loop: cold p50 over warm p50.
    pub warm_p50_speedup: f64,
    /// Closed loop: serial wall over coalesced wall on the same-graph
    /// fan-out, the serial queries each a first touch (cache cleared
    /// before every one).
    pub coalesced_speedup: f64,
    /// Closed loop: per-client-serial wall over cross-client coalesced
    /// wall on the unix-socket burst, the serial queries each a first
    /// touch.
    pub burst_speedup: f64,
    /// Closed loop: trace-enabled throughput over metrics-only
    /// throughput on the cold serving path (best of three interleaved
    /// repetitions each).
    pub trace_overhead: f64,
}

impl LoadGate {
    /// p99 SLO at the highest sub-knee rate. Sub-knee traffic is
    /// mostly cache hits with a minority of genuine engine passes;
    /// 100 ms is generous for CI hardware yet far below the
    /// horizon-scale latencies queueing collapse produces.
    pub const P99_SLO_MICROS: u64 = 100_000;

    /// Capacity ratchet: the realized offered rate at the knee must
    /// not fall below this. The quick-mode ladder saturates its third
    /// rung at a realized ≈6.6k q/s offered on the single-core CI
    /// box — engine passes are CPU-bound, so pipelining moves the
    /// sub-knee tail, not the saturation point, there. The floor sits
    /// just under the measured knee so a scheduling regression that
    /// drags the knee down a rung (to ≈1.5k) trips loudly.
    pub const KNEE_FLOOR_QPS: f64 = 6_000.0;

    /// Warm-hit p99 ceiling at the highest sub-knee rate. Hits are
    /// answered at resolve time instead of waiting out the execute
    /// barrier: the pipelined cycle measures a ≈11–25 ms warm p99
    /// (median ≈12 ms across calibration runs on the single-core CI
    /// box) where the synchronous cycle's all-query p99 ran ≈23.5 ms
    /// *median* — the ceiling takes the observed worst case with
    /// ≈60% noise margin, and a hit path regressing back behind the
    /// barrier (≥ full-cycle latency, ≈100 ms at this rate) clears it
    /// by a wide margin.
    pub const WARM_P99_CEIL_MICROS: u64 = 40_000;

    /// Slow-reader fairness: healthy connections' p99 may grow at
    /// most this factor (plus [`LoadGate::FAIRNESS_SLACK_MICROS`])
    /// when a peer connection stops reading.
    pub const FAIRNESS_FACTOR: u64 = 2;

    /// Absolute slack on the fairness bound: keeps a near-zero
    /// all-healthy p99 on fast hardware from degenerating the factor
    /// test, and absorbs single-core scheduler jitter (calibration
    /// runs measured factors 1.0–1.8 against ≈70–140 ms baselines).
    pub const FAIRNESS_SLACK_MICROS: u64 = 25_000;

    /// Minimum cold-p50 / warm-p50 ratio: a cache hit must be at least
    /// an order of magnitude cheaper than an engine pass.
    pub const WARM_SPEEDUP_FLOOR: f64 = 10.0;

    /// Minimum traced/plain throughput ratio: the `--trace` event log
    /// may cost at most 5% of cold-path serving throughput.
    pub const TRACE_OVERHEAD_FLOOR: f64 = 0.95;

    /// Whether the slow-reader scenario left healthy connections
    /// inside the fairness envelope.
    #[must_use]
    pub fn fairness_ok(&self) -> bool {
        self.slow_reader_healthy_p99_micros
            <= Self::FAIRNESS_FACTOR * self.all_healthy_p99_micros + Self::FAIRNESS_SLACK_MICROS
    }

    /// Every clause as `(name, held)`, named after its field in the
    /// `gate` section of `BENCH_load.json`: warm replay ≥ 10× cheaper
    /// at the median; coalescing and the cross-client burst at least
    /// even with serial drains (the shared Stage-I pass is the win, so
    /// neither needs a second core); tracing within its 5% budget; a
    /// knee found (with at least one healthy rate below it) at or above
    /// the capacity floor; the sub-knee p99 within the SLO and its
    /// warm-hit slice within the fast-path ceiling; a reproducible
    /// sweep; no response lost mid-flight; a slow reader that hurt
    /// only itself.
    #[must_use]
    pub fn clauses(&self) -> [(&'static str, bool); 11] {
        [
            (
                "warm_p50_speedup",
                self.warm_p50_speedup >= Self::WARM_SPEEDUP_FLOOR,
            ),
            ("coalesced_speedup", self.coalesced_speedup >= 1.0),
            ("burst_speedup", self.burst_speedup >= 1.0),
            (
                "trace_overhead",
                self.trace_overhead >= Self::TRACE_OVERHEAD_FLOOR,
            ),
            ("knee_detected", self.knee_detected),
            (
                "knee_offered_qps",
                self.knee_offered_qps >= Self::KNEE_FLOOR_QPS,
            ),
            (
                "sub_knee_p99_micros",
                self.sub_knee_p99_micros <= Self::P99_SLO_MICROS,
            ),
            (
                "warm_p99_micros",
                self.warm_p99_micros <= Self::WARM_P99_CEIL_MICROS,
            ),
            ("deterministic", self.deterministic),
            ("responses_lost", self.responses_lost == 0),
            ("fairness_pass", self.fairness_ok()),
        ]
    }

    /// Whether every clause holds.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.clauses().iter().all(|&(_, held)| held)
    }
}

#[cfg(unix)]
mod serving {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    use planartest_core::TesterConfig;
    use planartest_service::wire::Value;
    use planartest_service::{
        CacheStatus, GraphRef, Histogram, Outcome, Property, Query, ServeOptions, Server, Service,
        Telemetry,
    };

    use super::{
        build_workload, closed_loop_corpus, corpus, warm_seeds, Arrival, Json, LoadGate, OpKind,
        CONNECTIONS, EPSILONS, KNEE_FRACTION, LOAD_SEED, PHASES, SCHEMA,
    };
    use crate::quick;

    /// Everything measured at one sweep rate.
    pub(super) struct RateOutcome {
        pub offered_qps: f64,
        pub realized_offered_qps: f64,
        pub requests: usize,
        pub queries: usize,
        pub achieved_qps: f64,
        pub wall_secs: f64,
        /// End-to-end latency over the measured window.
        pub latency: Histogram,
        /// Warm-hit (warm + certificate) p99 — the fast-path slice of
        /// the same telemetry window.
        pub warm_p99_micros: u64,
        /// Client-side p99 across all connections: response receipt
        /// minus *scheduled* send, so schedule slip under overload is
        /// charged to the server, open-loop style.
        pub client_p99_micros: u64,
        pub queue_depth_hwm: usize,
        pub responses_lost: u64,
        pub responses_lost_shutdown: u64,
        pub responses_shed: u64,
        pub outbound_depth_hwm: usize,
        pub writer_stalls: u64,
        pub engine_passes: u64,
        pub coalesce_ratio: f64,
        pub drain_cycles: u64,
        /// Per-connection client-side latencies (µs), submission
        /// order (empty for a throttled connection).
        pub client_latencies: Vec<Vec<u64>>,
        /// Per-connection response digests, submission order: the
        /// reproducibility witness.
        pub digests: Vec<Vec<String>>,
    }

    /// Per-run knobs beyond the offered rate (the fairness scenario
    /// throttles one reader and bounds the outbound queues).
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct RunOpts {
        /// Throttle this connection's reader to ~1 byte/ms; it stops
        /// digesting responses entirely (its responses are shed once
        /// its outbound queue fills — the policy under test).
        pub slow_conn: Option<usize>,
        /// Override the rate-derived schedule horizon.
        pub horizon_micros: Option<u64>,
        /// Per-connection outbound queue bound (0 = unbounded). The
        /// sweep runs unbounded — every client reads promptly, and an
        /// unbounded queue keeps the zero-responses-lost contract
        /// exact; the fairness scenario bounds it so the slow reader
        /// actually triggers shedding.
        pub outbound_depth: usize,
    }

    fn horizon_micros_for(rate: f64) -> u64 {
        // Long enough for a meaningful window at low rates; shrunk at
        // high rates so one saturated point cannot stall CI (the
        // request *count* is capped, the offered rate is not).
        let base: u64 = if quick() { 250_000 } else { 800_000 };
        let cap_requests: f64 = if quick() { 12_000.0 } else { 48_000.0 };
        let capped = (cap_requests * 1_000_000.0 / rate) as u64;
        base.min(capped).max(2_000)
    }

    /// Pre-populates the cache: every warm-pool combination once, so
    /// the measured window starts from the steady serving state (the
    /// mix's fresh-seed queries still pay real engine passes mid-load).
    fn warm_cache(service: &mut Service) {
        let seeds = warm_seeds();
        for (name, _, _) in corpus() {
            for eps in EPSILONS {
                let base = TesterConfig::new(eps).with_phases(PHASES as usize);
                for s in 0..seeds {
                    service.submit(Query::planarity(
                        GraphRef::Name(name.to_string()),
                        base.clone().with_seed(s),
                    ));
                }
                for property in [Property::CycleFreeness, Property::Bipartiteness] {
                    service.submit(Query {
                        graph: GraphRef::Name(name.to_string()),
                        property,
                        cfg: base.clone().with_seed(0),
                    });
                }
                for (_, result) in service.drain() {
                    result.expect("warmup query");
                }
            }
        }
    }

    const PROPERTIES: [Property; 3] = [
        Property::Planarity,
        Property::CycleFreeness,
        Property::Bipartiteness,
    ];
    const STATUSES: [CacheStatus; 3] = [
        CacheStatus::Cold,
        CacheStatus::Warm,
        CacheStatus::Certificate,
    ];

    /// The per-`(property, cache)` latency cells passing `keep`,
    /// merged into one distribution, minus an earlier snapshot of the
    /// same cells.
    fn merged_latency_where(
        telemetry: &Telemetry,
        baseline: &[Histogram; 9],
        keep: impl Fn(CacheStatus) -> bool,
    ) -> Histogram {
        let mut merged = Histogram::new();
        for (i, (p, s)) in cell_ids().into_iter().enumerate() {
            if !keep(s) {
                continue;
            }
            if let Some(mut h) = telemetry.latency_histogram(p, s) {
                h.subtract(&baseline[i]);
                merged.merge(&h);
            }
        }
        merged
    }

    /// Exact percentile over raw client-side samples.
    fn percentile(mut samples: Vec<u64>, q: f64) -> u64 {
        if samples.is_empty() {
            return 0;
        }
        samples.sort_unstable();
        let idx = ((samples.len() - 1) as f64 * q).round() as usize;
        samples[idx]
    }

    fn cell_ids() -> Vec<(Property, CacheStatus)> {
        PROPERTIES
            .into_iter()
            .flat_map(|p| STATUSES.into_iter().map(move |s| (p, s)))
            .collect()
    }

    fn latency_baseline(telemetry: &Telemetry) -> [Histogram; 9] {
        let cells: Vec<Histogram> = cell_ids()
            .into_iter()
            .map(|(p, s)| telemetry.latency_histogram(p, s).unwrap_or_default())
            .collect();
        cells.try_into().expect("9 cells")
    }

    fn engine_queries(telemetry: &Telemetry) -> u64 {
        telemetry
            .metrics_value()
            .get("engine")
            .and_then(|e| e.get("queries"))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    }

    /// Digest of one response line: the deterministic content only
    /// (verdicts), never timing-dependent fields (cache status,
    /// rounds under certificate replay, stats counters).
    fn digest(kind: OpKind, v: &Value) -> String {
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(true),
            "load response failed: {v:?}"
        );
        match kind {
            OpKind::Query => v
                .get("verdict")
                .and_then(Value::as_str)
                .expect("query verdict")
                .to_string(),
            OpKind::Batch => {
                let Some(Value::Arr(members)) = v.get("responses") else {
                    panic!("batch response shape");
                };
                members
                    .iter()
                    .map(|m| {
                        assert_eq!(m.get("ok").and_then(Value::as_bool), Some(true));
                        m.get("verdict").and_then(Value::as_str).expect("verdict")
                    })
                    .collect::<Vec<_>>()
                    .join("+")
            }
            OpKind::Stats => "stats".to_string(),
            OpKind::Ingest => "ingest".to_string(),
        }
    }

    /// What the clients of one served run saw.
    struct Served {
        /// The service, handed back by the server's shutdown.
        service: Service,
        /// Per connection, in submission order (empty when throttled):
        /// the responses, and their receipt minus *scheduled* send (µs).
        responses: Vec<Vec<Value>>,
        latencies: Vec<Vec<u64>>,
        /// Until the last healthy client read its last response.
        wall_secs: f64,
    }

    /// Boots `service` behind a [`Server`] on a fresh unix socket,
    /// drives one client per `per_conn` entry open-loop (each line sent
    /// at its scheduled instant, responses read concurrently), then
    /// shuts the server down.
    fn serve(
        service: Service,
        opts: ServeOptions,
        socket_tag: usize,
        per_conn: &[Vec<Arrival>],
        slow_conn: Option<usize>,
    ) -> Served {
        let server = Server::start(service, opts);
        let socket = std::env::temp_dir().join(format!(
            "planartest-e15-{}-{socket_tag}.sock",
            std::process::id()
        ));
        server.listen_unix(&socket).expect("bind load socket");

        // Connect outside the client scope and keep the originals
        // alive until after the server's shutdown flush: a throttled
        // connection still has responses queued at shutdown, and
        // closing its socket early would turn those into *mid-flight*
        // losses instead of shutdown-flush ones.
        let streams: Vec<UnixStream> = per_conn
            .iter()
            .map(|_| UnixStream::connect(&socket).expect("connect load client"))
            .collect();
        let stop_slow = AtomicBool::new(false);
        let started = Instant::now();
        type ClientResult = (Vec<Value>, Vec<u64>, Instant);
        let clients: Vec<ClientResult> = std::thread::scope(|scope| {
            let mut handles: Vec<Option<std::thread::ScopedJoinHandle<'_, ClientResult>>> =
                Vec::new();
            for (ci, arrivals) in per_conn.iter().enumerate() {
                // Open-loop writer: send at the scheduled instant,
                // never waiting for responses; when behind schedule,
                // send immediately (standard open-loop catch-up — the
                // backlog is the server's problem, which is the
                // point).
                let mut wstream = streams[ci].try_clone().expect("clone stream");
                scope.spawn(move || {
                    for a in arrivals {
                        let target = started + Duration::from_micros(a.at_micros);
                        let now = Instant::now();
                        if target > now {
                            std::thread::sleep(target - now);
                        }
                        wstream
                            .write_all(a.line.as_bytes())
                            .expect("send load request");
                    }
                });
                if slow_conn == Some(ci) {
                    // Pathological reader: ~1 byte/ms, never a full
                    // response. Its outbound queue fills and sheds;
                    // the fairness gate checks nobody else noticed.
                    let mut rstream = streams[ci].try_clone().expect("clone stream");
                    rstream
                        .set_read_timeout(Some(Duration::from_millis(20)))
                        .expect("set read timeout");
                    let stop = &stop_slow;
                    handles.push(Some(scope.spawn(move || {
                        let mut byte = [0u8; 1];
                        while !stop.load(Ordering::Relaxed) {
                            match rstream.read(&mut byte) {
                                Ok(0) => break,
                                Ok(_) => std::thread::sleep(Duration::from_millis(1)),
                                Err(e)
                                    if e.kind() == std::io::ErrorKind::WouldBlock
                                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                                Err(_) => break,
                            }
                        }
                        (Vec::new(), Vec::new(), Instant::now())
                    })));
                } else {
                    let reader = BufReader::new(streams[ci].try_clone().expect("clone stream"));
                    handles.push(Some(scope.spawn(move || {
                        let mut reader = reader;
                        let mut responses = Vec::with_capacity(arrivals.len());
                        let mut latencies = Vec::with_capacity(arrivals.len());
                        let mut line = String::new();
                        for a in arrivals {
                            line.clear();
                            let n = reader.read_line(&mut line).expect("read load response");
                            assert!(n > 0, "connection closed before all responses arrived");
                            let recv =
                                u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                            latencies.push(recv.saturating_sub(a.at_micros));
                            responses.push(Value::parse(line.trim()).expect("response parses"));
                        }
                        (responses, latencies, Instant::now())
                    })));
                }
            }
            // Healthy clients finish on their own; the throttled one
            // is released only after they have, so it stays slow for
            // the entire measured window.
            let mut results: Vec<Option<ClientResult>> = (0..handles.len()).map(|_| None).collect();
            for ci in 0..handles.len() {
                if slow_conn == Some(ci) {
                    continue;
                }
                results[ci] = Some(
                    handles[ci]
                        .take()
                        .expect("handle present")
                        .join()
                        .expect("load client"),
                );
            }
            stop_slow.store(true, Ordering::Relaxed);
            if let Some(ci) = slow_conn {
                results[ci] = Some(
                    handles[ci]
                        .take()
                        .expect("handle present")
                        .join()
                        .expect("slow load client"),
                );
            }
            results
                .into_iter()
                .map(|r| r.expect("client joined"))
                .collect()
        });
        let wall_secs = clients
            .iter()
            .map(|(_, _, done)| done.duration_since(started).as_secs_f64())
            .fold(0.0f64, f64::max);

        server.request_shutdown();
        let service = server.join();
        drop(streams);
        let _ = std::fs::remove_file(&socket);
        let (responses, latencies) = clients.into_iter().map(|(r, l, _)| (r, l)).unzip();
        Served {
            service,
            responses,
            latencies,
            wall_secs,
        }
    }

    /// Drives one rate point end to end against a fresh server.
    pub(super) fn run_rate(rate: f64, socket_tag: usize, opts: RunOpts) -> RateOutcome {
        let horizon = opts
            .horizon_micros
            .unwrap_or_else(|| horizon_micros_for(rate));
        let workload = build_workload(LOAD_SEED ^ rate.to_bits(), rate, horizon);

        let mut service = Service::new().with_group_threads(0);
        for (name, spec_text, _) in corpus() {
            service
                .registry_mut()
                .ingest_spec(name, &spec_text)
                .expect("corpus spec");
        }
        warm_cache(&mut service);
        let telemetry = service.telemetry();
        let baseline = latency_baseline(&telemetry);
        let passes_before = service.engine_passes();
        let equeries_before = engine_queries(&telemetry);
        let cycles_before = telemetry.cycles();

        let served = serve(
            service,
            ServeOptions {
                outbound_depth: opts.outbound_depth,
                ..ServeOptions::default()
            },
            socket_tag,
            &workload.per_conn,
            opts.slow_conn,
        );
        let service = served.service;
        let stats = service.stats();
        let warm = merged_latency_where(&telemetry, &baseline, |s| s != CacheStatus::Cold);
        let passes = service.engine_passes() - passes_before;
        let equeries = engine_queries(&telemetry) - equeries_before;
        let realized =
            workload.requests as f64 / (workload.last_arrival_micros.max(1) as f64 / 1_000_000.0);
        RateOutcome {
            offered_qps: rate,
            realized_offered_qps: realized,
            requests: workload.requests,
            queries: workload.queries,
            achieved_qps: workload.requests as f64 / served.wall_secs.max(1e-9),
            wall_secs: served.wall_secs,
            latency: merged_latency_where(&telemetry, &baseline, |_| true),
            warm_p99_micros: warm.value_at_quantile(0.99),
            client_p99_micros: percentile(
                served.latencies.iter().flatten().copied().collect(),
                0.99,
            ),
            queue_depth_hwm: stats.queue_depth_hwm,
            responses_lost: stats.responses_lost,
            responses_lost_shutdown: stats.responses_lost_shutdown,
            responses_shed: stats.responses_shed,
            outbound_depth_hwm: stats.outbound_depth_hwm,
            writer_stalls: stats.writer_stalls,
            engine_passes: passes,
            coalesce_ratio: if passes == 0 {
                1.0
            } else {
                equeries as f64 / passes as f64
            },
            drain_cycles: telemetry.cycles() - cycles_before,
            client_latencies: served.latencies,
            digests: served
                .responses
                .iter()
                .zip(&workload.per_conn)
                .map(|(rs, arrivals)| {
                    rs.iter()
                        .zip(arrivals)
                        .map(|(v, a)| digest(a.kind, v))
                        .collect()
                })
                .collect(),
        }
    }

    /// What the slow-reader fairness scenario measured.
    pub(super) struct FairnessOutcome {
        pub rate_qps: f64,
        pub requests: usize,
        pub all_healthy_p99_micros: u64,
        pub slow_reader_healthy_p99_micros: u64,
        pub responses_shed: u64,
        pub mid_flight_losses: u64,
    }

    /// Runs one comfortably sub-knee rate twice — all clients healthy,
    /// then with connection 0 throttled to ~1 byte/ms — and compares
    /// the healthy connections' client-side p99 between the runs. The
    /// horizon is stretched so the throttled connection's response
    /// volume overflows its socket buffer and its bounded outbound
    /// queue: the shed policy has to actually engage for the isolation
    /// claim to mean anything.
    pub(super) fn fairness_scenario() -> FairnessOutcome {
        let rate = if quick() { 1_600.0 } else { 2_000.0 };
        let opts = RunOpts {
            slow_conn: None,
            horizon_micros: Some(2_000_000),
            outbound_depth: 256,
        };
        let healthy = run_rate(rate, 901, opts);
        let slowed = run_rate(
            rate,
            902,
            RunOpts {
                slow_conn: Some(0),
                ..opts
            },
        );
        let healthy_conns = |o: &RateOutcome| -> Vec<u64> {
            o.client_latencies
                .iter()
                .skip(1)
                .flatten()
                .copied()
                .collect()
        };
        FairnessOutcome {
            rate_qps: rate,
            requests: slowed.requests,
            all_healthy_p99_micros: percentile(healthy_conns(&healthy), 0.99),
            slow_reader_healthy_p99_micros: percentile(healthy_conns(&slowed), 0.99),
            responses_shed: slowed.responses_shed,
            mid_flight_losses: healthy.responses_lost + slowed.responses_lost,
        }
    }

    fn saturated(o: &RateOutcome) -> bool {
        o.achieved_qps < KNEE_FRACTION * o.realized_offered_qps
    }

    /// The artifact rows of a corpus.
    fn corpus_rows(corpus: Vec<(&'static str, String, bool)>) -> Vec<Json> {
        corpus
            .into_iter()
            .map(|(name, spec_text, planar)| {
                Json::obj()
                    .field("name", name)
                    .field("spec", spec_text.as_str())
                    .field("planar", planar)
            })
            .collect()
    }

    /// The quantile fields every latency row carries.
    fn latency_fields(row: Json, latency: &Histogram) -> Json {
        row.field("p50_micros", latency.value_at_quantile(0.50))
            .field("p99_micros", latency.value_at_quantile(0.99))
            .field("p999_micros", latency.value_at_quantile(0.999))
            .field("mean_micros", latency.mean())
            .field("latency_count", latency.count())
    }

    fn rate_row(o: &RateOutcome) -> Json {
        let row = Json::obj()
            .field("offered_qps", o.offered_qps)
            .field("realized_offered_qps", o.realized_offered_qps)
            .field("achieved_qps", o.achieved_qps)
            .field("requests", o.requests)
            .field("queries", o.queries)
            .field("wall_seconds", o.wall_secs);
        latency_fields(row, &o.latency)
            .field("warm_p99_micros", o.warm_p99_micros)
            .field("client_p99_micros", o.client_p99_micros)
            .field("queue_depth_hwm", o.queue_depth_hwm)
            .field("responses_lost", o.responses_lost)
            .field("responses_lost_shutdown", o.responses_lost_shutdown)
            .field("responses_shed", o.responses_shed)
            .field("outbound_depth_hwm", o.outbound_depth_hwm)
            .field("writer_stalls", o.writer_stalls)
            .field("engine_passes", o.engine_passes)
            .field("coalesce_ratio", o.coalesce_ratio)
            .field("drain_cycles", o.drain_cycles)
            .field("saturated", saturated(o))
    }

    /// A service with the closed-loop corpus ingested.
    fn closed_loop_service() -> Service {
        let mut service = Service::new();
        for (name, spec_text, _) in closed_loop_corpus() {
            service
                .registry_mut()
                .ingest_spec(name, &spec_text)
                .expect("corpus spec");
        }
        service
    }

    /// The closed-loop mix: per corpus graph, every warm-pool
    /// `(epsilon, seed)` planarity query plus the two seed-free
    /// Corollary 16 properties (one cache stripe each).
    fn closed_loop_queries() -> Vec<Query> {
        let seeds = if quick() { 4u64 } else { 8 };
        let mut queries = Vec::new();
        for (name, _, _) in closed_loop_corpus() {
            let graph = || GraphRef::Name(name.to_string());
            for eps in EPSILONS {
                for seed in 0..seeds {
                    let cfg = TesterConfig::new(eps).with_phases(8).with_seed(seed);
                    queries.push(Query::planarity(graph(), cfg));
                }
            }
            for property in [Property::CycleFreeness, Property::Bipartiteness] {
                let cfg = TesterConfig::new(0.1).with_phases(8);
                queries.push(Query::planarity(graph(), cfg).with_property(property));
            }
        }
        queries
    }

    /// One closed-loop pass: every query's latency, the engine passes
    /// split into each key's first touch (no memoised prepared tester
    /// to ride) and fresh seeds (a memo hit, told apart by the
    /// service's `prefix_hits`), the wall time and the verdicts.
    struct TimedPass {
        latency: Histogram,
        first_touch: Histogram,
        fresh_seed: Histogram,
        wall_secs: f64,
        verdicts: Vec<bool>,
    }

    /// Issues each query alone, timing each one. With `expect` (the
    /// warm replay) every verdict must match and no query may reach
    /// the engine.
    fn timed_pass(service: &mut Service, queries: &[Query], expect: Option<&[bool]>) -> TimedPass {
        let mut pass = TimedPass {
            latency: Histogram::new(),
            first_touch: Histogram::new(),
            fresh_seed: Histogram::new(),
            wall_secs: 0.0,
            verdicts: Vec::with_capacity(queries.len()),
        };
        let started = Instant::now();
        for (i, q) in queries.iter().enumerate() {
            let prefix_hits = service.stats().prefix_hits;
            let one = Instant::now();
            let r = service.query(q.clone()).expect("query");
            let micros = u64::try_from(one.elapsed().as_micros()).unwrap_or(u64::MAX);
            pass.latency.record(micros);
            if service.stats().prefix_hits > prefix_hits {
                pass.fresh_seed.record(micros);
            } else if r.cache == CacheStatus::Cold {
                pass.first_touch.record(micros);
            }
            pass.verdicts.push(r.outcome.accepted());
            if let Some(expect) = expect {
                assert_eq!(
                    pass.verdicts[i], expect[i],
                    "cache replay changed a verdict (query {i})"
                );
                assert_ne!(r.cache, CacheStatus::Cold, "warm pass hit the engine");
            }
        }
        pass.wall_secs = started.elapsed().as_secs_f64();
        pass
    }

    fn pass_row(label: &str, latency: &Histogram, wall_secs: f64) -> Json {
        let qps = latency.count() as f64 / wall_secs;
        println!(
            "{label:<11} {:>5} queries {qps:>10.1} q/s   p50 {:>8}us  p99 {:>8}us",
            latency.count(),
            latency.value_at_quantile(0.50),
            latency.value_at_quantile(0.99),
        );
        let row = Json::obj()
            .field("wall_seconds", wall_secs)
            .field("throughput_qps", qps);
        latency_fields(row, latency)
    }

    /// Serves `queries` one `Service::query` — one drain, one engine
    /// pass — each from a cleared cache, so every one is a first touch
    /// (`first_touch`), or from the cache as it goes, so all but the
    /// first ride the memoised prepared tester; returns the outcomes
    /// and the wall time.
    fn serial(service: &mut Service, queries: &[Query], first_touch: bool) -> (Vec<Outcome>, f64) {
        service.clear_cache();
        let started = Instant::now();
        let outcomes = queries
            .iter()
            .map(|q| {
                if first_touch {
                    service.clear_cache();
                }
                service.query(q.clone()).expect("query").outcome
            })
            .collect();
        (outcomes, started.elapsed().as_secs_f64())
    }

    /// A serial-vs-coalesced row and its gated speedup over the
    /// first-touch serial sweep; the memo-kept sweep's speedup rides
    /// along ungated.
    fn speedup_row(
        workload: &str,
        queries: usize,
        serial_secs: f64,
        memo_serial_secs: f64,
        coalesced_secs: f64,
    ) -> (Json, f64) {
        let serial_qps = queries as f64 / serial_secs;
        let memo_serial_qps = queries as f64 / memo_serial_secs;
        let coalesced_qps = queries as f64 / coalesced_secs;
        let speedup = serial_secs / coalesced_secs;
        let memo_speedup = memo_serial_secs / coalesced_secs;
        println!(
            "{workload:<32} {queries:>3} queries  serial {serial_qps:>8.1} q/s   \
             coalesced {coalesced_qps:>8.1} q/s   speedup {speedup:.2}x   \
             (memo-kept serial {memo_serial_qps:>8.1} q/s, {memo_speedup:.2}x)",
        );
        let row = Json::obj()
            .field("workload", workload)
            .field("queries", queries)
            .field("serial_seconds", serial_secs)
            .field("serial_qps", serial_qps)
            .field("coalesced_seconds", coalesced_secs)
            .field("coalesced_qps", coalesced_qps)
            .field("speedup_vs_serial", speedup)
            .field("memo_serial_seconds", memo_serial_secs)
            .field("memo_serial_qps", memo_serial_qps)
            .field("speedup_vs_memo_serial", memo_speedup);
        (row, speedup)
    }

    /// One graph's 16-seed Monte-Carlo fan-out, one query per drain vs
    /// one drain: the coalesced drain must ride one engine pass and
    /// reproduce every serial verdict and `SimStats`.
    fn coalesce(service: &mut Service) -> (Json, f64) {
        let queries: Vec<Query> = (0..16)
            .map(|seed| {
                let cfg = TesterConfig::new(0.2).with_seed(seed);
                Query::planarity(GraphRef::Name("tri".into()), cfg)
            })
            .collect();
        let (_, memo_serial_secs) = serial(service, &queries, false);
        let (serial, serial_secs) = serial(service, &queries, true);

        service.clear_cache();
        let passes_before = service.engine_passes();
        let started = Instant::now();
        for q in &queries {
            service.submit(q.clone());
        }
        let drained = service.drain();
        let coalesced_secs = started.elapsed().as_secs_f64();
        assert_eq!(
            service.engine_passes() - passes_before,
            1,
            "coalesced sweep must ride one engine pass"
        );
        for ((_, result), solo) in drained.iter().zip(&serial) {
            let outcome = &result.as_ref().expect("drained").outcome;
            assert_eq!(
                outcome.accepted(),
                solo.accepted(),
                "coalesced verdict diverged"
            );
            assert_eq!(outcome.stats(), solo.stats(), "coalesced stats diverged");
        }
        speedup_row(
            "same_graph_monte_carlo_fanout",
            queries.len(),
            serial_secs,
            memo_serial_secs,
            coalesced_secs,
        )
    }

    /// [`CONNECTIONS`] clients each send their own seed range of one
    /// graph's sweep at once, against a server whose cycle fires
    /// exactly when the last query lands (`wake_depth` = all of them,
    /// 30 s linger); the baseline serves the same queries one drain
    /// each, each a first touch. The server must coalesce across
    /// clients into one engine pass and answer every query with the
    /// baseline's verdict, rounds and words.
    fn burst() -> (Json, f64) {
        let per_client = if quick() { 4u64 } else { 8 };
        let total = CONNECTIONS as u64 * per_client;
        let cfg = TesterConfig::new(0.2).with_phases(8);
        let queries: Vec<Query> = (0..total)
            .map(|seed| Query::planarity(GraphRef::Name("tri".into()), cfg.clone().with_seed(seed)))
            .collect();
        let (_, memo_serial_secs) = serial(&mut closed_loop_service(), &queries, false);
        let (serial, serial_secs) = serial(&mut closed_loop_service(), &queries, true);

        let arrivals: Vec<Arrival> = (0..total)
            .map(|seed| Arrival {
                at_micros: 0,
                kind: OpKind::Query,
                line: format!(
                    "{{\"op\":\"query\",\"graph\":\"tri\",\"epsilon\":0.2,\"phases\":8,\
                     \"seed\":{seed}}}\n"
                ),
            })
            .collect();
        let per_conn: Vec<Vec<Arrival>> = arrivals
            .chunks(per_client as usize)
            .map(<[_]>::to_vec)
            .collect();
        let opts = ServeOptions {
            linger: Duration::from_secs(30),
            wake_depth: total as usize,
            ..ServeOptions::default()
        };
        let served = serve(
            closed_loop_service().with_group_threads(0),
            opts,
            900,
            &per_conn,
            None,
        );
        assert_eq!(
            served.service.engine_passes(),
            1,
            "cross-client fan-out must ride one engine pass"
        );
        // Client-major order is seed order, the baseline's order.
        for (v, reference) in served.responses.iter().flatten().zip(&serial) {
            let field = |key| v.get(key).and_then(Value::as_u64);
            let accepted = v.get("verdict").and_then(Value::as_str) == Some("accept");
            let stats = reference.stats();
            assert_eq!(
                (accepted, field("rounds"), field("words")),
                (
                    reference.accepted(),
                    Some(stats.total_rounds()),
                    Some(stats.words)
                ),
                "burst verdict, rounds or words diverged from sequential"
            );
        }
        speedup_row(
            "cross_client_unix_socket_fanout",
            queries.len(),
            serial_secs,
            memo_serial_secs,
            served.wall_secs,
        )
    }

    /// The traced run's event log, kept as the CI artifact.
    const TRACE_PATH: &str = "BENCH_trace.ldjson";

    /// The closed-loop mix served cold (cache cleared before every
    /// repetition), metrics-only vs with the `--trace` writer: per-query
    /// records must amortize against real engine work, the traffic a
    /// traced deployment serves. The arms are interleaved and each
    /// reports its best repetition — the workload is deterministic, so
    /// the fastest run is the least perturbed, and pairing the arms in
    /// time keeps ambient drift from biasing the traced/plain ratio.
    fn trace_overhead(queries: &[Query]) -> (Json, f64) {
        const REPS: usize = 3;
        let one_rep = |service: &mut Service| -> f64 {
            service.clear_cache();
            let started = Instant::now();
            for q in queries {
                service.query(q.clone()).expect("overhead query");
            }
            queries.len() as f64 / started.elapsed().as_secs_f64()
        };
        let mut plain = closed_loop_service();
        let mut traced = closed_loop_service();
        let file = std::fs::File::create(TRACE_PATH).expect("create BENCH_trace.ldjson");
        traced
            .telemetry()
            .set_trace_writer(Box::new(std::io::BufWriter::new(file)));
        let (mut plain_qps, mut traced_qps) = (0.0f64, 0.0f64);
        for _ in 0..REPS {
            plain_qps = plain_qps.max(one_rep(&mut plain));
            traced_qps = traced_qps.max(one_rep(&mut traced));
        }
        drop(traced); // flushes the BufWriter, completing the artifact

        let ratio = traced_qps / plain_qps;
        println!(
            "trace overhead {:>3} queries  plain {plain_qps:>8.1} q/s   traced {traced_qps:>8.1} q/s   \
             ratio {ratio:.3}",
            queries.len(),
        );
        let row = Json::obj()
            .field("workload", "cold_path_trace_overhead")
            .field("repetitions", REPS)
            .field("queries_per_repetition", queries.len())
            .field("plain_qps", plain_qps)
            .field("traced_qps", traced_qps)
            .field("throughput_ratio", ratio)
            .field("trace_path", TRACE_PATH);
        (row, ratio)
    }

    /// The closed-loop section and its four gated ratios: warm p50
    /// speedup, coalesced speedup, burst speedup, trace overhead.
    fn closed_loop() -> (Json, [f64; 4]) {
        println!("\n## closed loop (cold vs warm, coalesced fan-out, burst, trace overhead)");
        let mut service = closed_loop_service();
        let queries = closed_loop_queries();
        let cold_pass = timed_pass(&mut service, &queries, None);
        let passes_after_cold = service.engine_passes();
        let warm_pass = timed_pass(&mut service, &queries, Some(&cold_pass.verdicts));
        assert_eq!(
            service.engine_passes(),
            passes_after_cold,
            "warm pass must be engine-free"
        );
        let (cold, warm) = (&cold_pass.latency, &warm_pass.latency);
        let cold_row = pass_row("cold", cold, cold_pass.wall_secs);
        // The first touch and fresh-seed rows time only their own
        // queries, so their rates are per busy second.
        let busy_secs = |h: &Histogram| h.sum().max(1) as f64 / 1e6;
        let first_touch_row = pass_row(
            "first_touch",
            &cold_pass.first_touch,
            busy_secs(&cold_pass.first_touch),
        );
        let fresh_seed_row = pass_row(
            "fresh_seed",
            &cold_pass.fresh_seed,
            busy_secs(&cold_pass.fresh_seed),
        );
        let warm_row = pass_row("warm", warm, warm_pass.wall_secs);
        let stats = service.stats();

        let (coalesce_row, coalesced_speedup) = coalesce(&mut service);
        let (burst_row, burst_speedup) = burst();
        let (trace_row, trace_overhead) = trace_overhead(&queries);

        let (cold_p50, warm_p50) = (cold.value_at_quantile(0.50), warm.value_at_quantile(0.50));
        let warm_p50_speedup = cold_p50 as f64 / warm_p50.max(1) as f64;
        println!("warm p50 speedup {warm_p50_speedup:.1}x (cold {cold_p50}us / warm {warm_p50}us)");
        let doc = Json::obj()
            .field("corpus", corpus_rows(closed_loop_corpus()))
            .field("cold", cold_row)
            .field("first_touch", first_touch_row)
            .field("fresh_seed", fresh_seed_row)
            .field("warm", warm_row)
            .field(
                "cache",
                Json::obj()
                    .field("warm_hits", stats.cache.warm_hits)
                    .field("certificate_hits", stats.cache.certificate_hits)
                    .field("misses", stats.cache.misses)
                    .field("prefix_hits", stats.prefix_hits)
                    .field("prefix_misses", stats.prefix_misses),
            )
            .field("coalesce", coalesce_row)
            .field("burst", burst_row)
            .field("trace_overhead", trace_row);
        (
            doc,
            [
                warm_p50_speedup,
                coalesced_speedup,
                burst_speedup,
                trace_overhead,
            ],
        )
    }

    pub(super) fn document() -> (Json, LoadGate) {
        let (closed_loop, [warm_p50_speedup, coalesced_speedup, burst_speedup, trace_overhead]) =
            closed_loop();
        println!("\n## open-loop load sweep (Poisson arrivals, Zipf popularity, mixed ops)");
        let mut rates: Vec<f64> = if quick() {
            vec![400.0, 1_600.0, 6_400.0, 25_600.0]
        } else {
            vec![500.0, 2_000.0, 8_000.0, 32_000.0]
        };
        // Fast hardware may swallow the whole initial list; escalate
        // ×4 until the knee shows (bounded so CI terminates).
        const MAX_ESCALATIONS: usize = 4;
        let initial_len = rates.len();

        let mut outcomes: Vec<RateOutcome> = Vec::new();
        let mut knee_idx: Option<usize> = None;
        let mut i = 0;
        while i < rates.len() {
            let o = run_rate(rates[i], i, RunOpts::default());
            println!(
                "rate {:>9.0} q/s offered  {:>9.0} achieved  p50 {:>7}us  p99 {:>8}us  \
                 warm-p99 {:>7}us  hwm {:>5}  coalesce {:>5.1}x{}",
                o.realized_offered_qps,
                o.achieved_qps,
                o.latency.value_at_quantile(0.50),
                o.latency.value_at_quantile(0.99),
                o.warm_p99_micros,
                o.queue_depth_hwm,
                o.coalesce_ratio,
                if saturated(&o) { "  << knee" } else { "" },
            );
            let is_knee = saturated(&o);
            outcomes.push(o);
            if is_knee {
                knee_idx = Some(i);
                break;
            }
            if i == rates.len() - 1 && rates.len() < initial_len + MAX_ESCALATIONS {
                let next = rates[i] * 4.0;
                rates.push(next);
            }
            i += 1;
        }

        // Reproducibility: the lowest rate again, same seed — the
        // schedule is identical by construction, and the response
        // digests (verdict content) must match bit for bit.
        let rerun = run_rate(rates[0], rates.len() + 1, RunOpts::default());
        let deterministic =
            rerun.requests == outcomes[0].requests && rerun.digests == outcomes[0].digests;
        println!(
            "determinism re-run at {:.0} q/s: {} ({} responses compared)",
            rates[0],
            if deterministic {
                "identical"
            } else {
                "DIVERGED"
            },
            rerun.requests,
        );

        let fairness = fairness_scenario();
        println!(
            "slow-reader fairness at {:.0} q/s: healthy-conn p99 {}us beside a throttled \
             peer vs {}us all-healthy ({} responses shed to the slow reader)",
            fairness.rate_qps,
            fairness.slow_reader_healthy_p99_micros,
            fairness.all_healthy_p99_micros,
            fairness.responses_shed,
        );

        let sub_knee = knee_idx
            .and_then(|k| k.checked_sub(1))
            .map(|k| &outcomes[k]);
        let responses_lost: u64 =
            outcomes.iter().map(|o| o.responses_lost).sum::<u64>() + fairness.mid_flight_losses;
        let gate = LoadGate {
            knee_detected: sub_knee.is_some(),
            knee_offered_qps: knee_idx.map_or(0.0, |k| outcomes[k].realized_offered_qps),
            sub_knee_offered_qps: sub_knee.map_or(0.0, |o| o.realized_offered_qps),
            sub_knee_p99_micros: sub_knee.map_or(u64::MAX, |o| o.latency.value_at_quantile(0.99)),
            warm_p99_micros: sub_knee.map_or(u64::MAX, |o| o.warm_p99_micros),
            deterministic,
            responses_lost,
            all_healthy_p99_micros: fairness.all_healthy_p99_micros,
            slow_reader_healthy_p99_micros: fairness.slow_reader_healthy_p99_micros,
            warm_p50_speedup,
            coalesced_speedup,
            burst_speedup,
            trace_overhead,
        };
        if let (Some(k), Some(s)) = (knee_idx, sub_knee) {
            println!(
                "knee at {:.0} q/s offered (achieved {:.0}); highest healthy rate {:.0} q/s, \
                 p99 {}us (warm {}us)",
                outcomes[k].realized_offered_qps,
                outcomes[k].achieved_qps,
                s.realized_offered_qps,
                gate.sub_knee_p99_micros,
                s.warm_p99_micros,
            );
        }

        let doc = Json::obj()
            .field("schema", SCHEMA)
            .field("quick_mode", quick())
            .field("closed_loop", closed_loop)
            .field("seed", LOAD_SEED)
            .field("connections", CONNECTIONS as u64)
            .field("corpus", corpus_rows(corpus()))
            .field(
                "mix",
                Json::obj()
                    .field("warm_planarity_query", 0.72)
                    .field("hereditary_query", 0.08)
                    .field("fresh_seed_query", 0.05)
                    .field("batch_of_3", 0.04)
                    .field("stats", 0.07)
                    .field("ingest", 0.04),
            )
            .field("rates", outcomes.iter().map(rate_row).collect::<Vec<_>>())
            .field(
                "knee",
                Json::obj()
                    .field("detected", gate.knee_detected)
                    .field("criterion", "achieved < 0.9 x realized offered")
                    .field(
                        "knee_offered_qps",
                        knee_idx.map_or(0.0, |k| outcomes[k].realized_offered_qps),
                    )
                    .field("sub_knee_offered_qps", gate.sub_knee_offered_qps),
            )
            .field(
                "determinism",
                Json::obj()
                    .field("verified", deterministic)
                    .field("rate_qps", rates[0])
                    .field("responses_compared", rerun.requests),
            )
            .field(
                "fairness",
                Json::obj()
                    .field("rate_qps", fairness.rate_qps)
                    .field("requests", fairness.requests)
                    .field("all_healthy_p99_micros", fairness.all_healthy_p99_micros)
                    .field(
                        "slow_reader_healthy_p99_micros",
                        fairness.slow_reader_healthy_p99_micros,
                    )
                    .field("responses_shed", fairness.responses_shed)
                    .field("factor", LoadGate::FAIRNESS_FACTOR)
                    .field("slack_micros", LoadGate::FAIRNESS_SLACK_MICROS)
                    .field("pass", gate.fairness_ok()),
            )
            .field(
                "gate",
                Json::obj()
                    .field("warm_p50_speedup", gate.warm_p50_speedup)
                    .field("warm_p50_speedup_floor", LoadGate::WARM_SPEEDUP_FLOOR)
                    .field("coalesced_speedup", gate.coalesced_speedup)
                    .field("coalesced_speedup_floor", 1.0)
                    .field("burst_speedup", gate.burst_speedup)
                    .field("burst_speedup_floor", 1.0)
                    .field("trace_overhead", gate.trace_overhead)
                    .field("trace_overhead_floor", LoadGate::TRACE_OVERHEAD_FLOOR)
                    .field("knee_detected", gate.knee_detected)
                    .field("knee_offered_qps", gate.knee_offered_qps)
                    .field("knee_floor_qps", LoadGate::KNEE_FLOOR_QPS)
                    .field("sub_knee_p99_micros", gate.sub_knee_p99_micros)
                    .field("p99_slo_micros", LoadGate::P99_SLO_MICROS)
                    .field("warm_p99_micros", gate.warm_p99_micros)
                    .field("warm_p99_ceil_micros", LoadGate::WARM_P99_CEIL_MICROS)
                    .field("deterministic", gate.deterministic)
                    .field("responses_lost", gate.responses_lost)
                    .field("fairness_pass", gate.fairness_ok())
                    .field("pass", gate.pass()),
            );
        (doc, gate)
    }
}

/// Builds the benchmark document (also printed as tables) plus the gate.
#[cfg(unix)]
#[must_use]
pub fn load_bench_document() -> (Json, LoadGate) {
    serving::document()
}

/// Non-unix hosts have no unix sockets; the sweep is skipped and the
/// gate is vacuous (recorded as such in the artifact).
#[cfg(not(unix))]
#[must_use]
pub fn load_bench_document() -> (Json, LoadGate) {
    println!("load sweep skipped (no unix sockets on this platform)");
    (
        Json::obj().field("schema", SCHEMA).field("skipped", true),
        LoadGate {
            knee_detected: true,
            knee_offered_qps: LoadGate::KNEE_FLOOR_QPS,
            sub_knee_offered_qps: 0.0,
            sub_knee_p99_micros: 0,
            warm_p99_micros: 0,
            deterministic: true,
            responses_lost: 0,
            all_healthy_p99_micros: 0,
            slow_reader_healthy_p99_micros: 0,
            warm_p50_speedup: LoadGate::WARM_SPEEDUP_FLOOR,
            coalesced_speedup: 1.0,
            burst_speedup: 1.0,
            trace_overhead: LoadGate::TRACE_OVERHEAD_FLOOR,
        },
    )
}

/// Runs the benchmark and writes `BENCH_load.json` into the current
/// directory (the repo root under `cargo run`); returns the CI gate.
pub fn load_bench() -> LoadGate {
    let (doc, gate) = load_bench_document();
    let path = "BENCH_load.json";
    std::fs::write(path, doc.pretty()).expect("write BENCH_load.json");
    println!("wrote {path}");
    gate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_seed_deterministic() {
        let a = build_workload(11, 3_000.0, 80_000);
        let b = build_workload(11, 3_000.0, 80_000);
        assert_eq!(a, b);
        assert_ne!(a, build_workload(12, 3_000.0, 80_000));
    }

    #[test]
    fn workload_covers_the_mix_and_balances_connections() {
        let w = build_workload(5, 20_000.0, 400_000);
        assert_eq!(w.per_conn.len(), CONNECTIONS);
        let sizes: Vec<usize> = w.per_conn.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), w.requests);
        assert!(sizes.iter().all(|&s| s.abs_diff(sizes[0]) <= 1));
        let mut kinds = [0usize; 4];
        for a in w.per_conn.iter().flatten() {
            kinds[match a.kind {
                OpKind::Query => 0,
                OpKind::Batch => 1,
                OpKind::Stats => 2,
                OpKind::Ingest => 3,
            }] += 1;
            assert!(a.line.ends_with('\n'));
            assert!(a.line.starts_with('{'));
        }
        assert!(
            kinds.iter().all(|&k| k > 0),
            "all op kinds present: {kinds:?}"
        );
        assert!(
            kinds[0] > kinds[1] + kinds[2] + kinds[3],
            "queries dominate"
        );
        // Arrivals are in schedule order on every connection.
        for conn in &w.per_conn {
            assert!(conn.windows(2).all(|p| p[0].at_micros <= p[1].at_micros));
        }
    }

    /// A gate with every bound exactly at its limit.
    fn gate_at_limits() -> LoadGate {
        LoadGate {
            knee_detected: true,
            knee_offered_qps: LoadGate::KNEE_FLOOR_QPS,
            sub_knee_offered_qps: 1000.0,
            sub_knee_p99_micros: LoadGate::P99_SLO_MICROS,
            warm_p99_micros: LoadGate::WARM_P99_CEIL_MICROS,
            deterministic: true,
            responses_lost: 0,
            all_healthy_p99_micros: 1_000,
            slow_reader_healthy_p99_micros: LoadGate::FAIRNESS_FACTOR * 1_000
                + LoadGate::FAIRNESS_SLACK_MICROS,
            warm_p50_speedup: LoadGate::WARM_SPEEDUP_FLOOR,
            coalesced_speedup: 1.0,
            burst_speedup: 1.0,
            trace_overhead: LoadGate::TRACE_OVERHEAD_FLOOR,
        }
    }

    #[test]
    fn gate_thresholds() {
        let base = gate_at_limits();
        assert!(base.pass(), "every bound exactly at its limit passes");
        assert!(!LoadGate {
            knee_detected: false,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            knee_offered_qps: LoadGate::KNEE_FLOOR_QPS - 1.0,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            sub_knee_p99_micros: LoadGate::P99_SLO_MICROS + 1,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            warm_p99_micros: LoadGate::WARM_P99_CEIL_MICROS + 1,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            deterministic: false,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            responses_lost: 1,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            slow_reader_healthy_p99_micros: base.slow_reader_healthy_p99_micros + 1,
            ..base
        }
        .pass());
    }

    #[test]
    fn closed_loop_gate_thresholds() {
        let base = gate_at_limits();
        assert!(base.pass(), "every bound exactly at its limit passes");
        assert!(!LoadGate {
            warm_p50_speedup: 9.9,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            coalesced_speedup: 0.99,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            burst_speedup: 0.99,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            trace_overhead: 0.94,
            ..base
        }
        .pass());
        assert!(LoadGate {
            warm_p50_speedup: 500.0,
            coalesced_speedup: 3.0,
            burst_speedup: 2.5,
            trace_overhead: 1.02,
            ..base
        }
        .pass());
    }

    #[test]
    fn corpus_specs_parse() {
        for (_, spec_text, _) in corpus() {
            planartest_graph::generators::spec::parse(&spec_text).expect("spec");
        }
    }

    #[test]
    fn closed_loop_corpus_specs_parse() {
        for (_, spec_text, _) in closed_loop_corpus() {
            planartest_graph::generators::spec::parse(&spec_text).expect("closed-loop spec");
        }
    }
}
