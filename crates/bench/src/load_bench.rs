//! E15 — open-loop mixed-workload load harness with saturation sweep,
//! written both as tables and as machine-readable `BENCH_load.json`.
//!
//! Everything before this bench was **closed-loop**: the next request
//! waited for the last response, so the system could never be offered
//! more work than it finished and queueing collapse was structurally
//! invisible. This harness is **open-loop**: requests are sent on a
//! pre-computed arrival schedule regardless of responses, exactly the
//! way independent users behave, so offered load can exceed capacity
//! and the collapse becomes measurable.
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
//! The `--check` gate ([`LoadGate`]): a knee was found above the
//! lowest rate and at or above the [`LoadGate::KNEE_FLOOR_QPS`]
//! ratchet, p99 at the highest sub-knee rate meets the
//! [`LoadGate::P99_SLO_MICROS`] SLO, the warm-hit p99 there meets the
//! (much tighter) [`LoadGate::WARM_P99_CEIL_MICROS`] fast-path
//! ceiling, no response was lost mid-flight, the double-run digests
//! matched, and the slow-reader scenario left healthy connections
//! within [`LoadGate::FAIRNESS_FACTOR`]× of their all-healthy p99.

use crate::json::Json;
use crate::quick;

/// Workload-schedule seed; `BENCH_load.json` records it, and the
/// determinism section proves a re-run under it is bit-identical.
pub const LOAD_SEED: u64 = 0x0b5e_55ed;

/// Concurrent unix-socket client connections per rate point.
pub const CONNECTIONS: usize = 4;

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

/// Distance parameters the warm pool covers.
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

    /// Whether the slow-reader scenario left healthy connections
    /// inside the fairness envelope.
    #[must_use]
    pub fn fairness_ok(&self) -> bool {
        self.slow_reader_healthy_p99_micros
            <= Self::FAIRNESS_FACTOR * self.all_healthy_p99_micros + Self::FAIRNESS_SLACK_MICROS
    }

    /// Whether the gate passes: knee found (with at least one healthy
    /// rate below it) at or above the capacity floor, the sub-knee
    /// p99 meets the SLO and its warm-hit slice meets the fast-path
    /// ceiling, the sweep was reproducible, no response went missing
    /// mid-flight, and a slow reader hurt only itself.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.knee_detected
            && self.knee_offered_qps >= Self::KNEE_FLOOR_QPS
            && self.sub_knee_p99_micros <= Self::P99_SLO_MICROS
            && self.warm_p99_micros <= Self::WARM_P99_CEIL_MICROS
            && self.deterministic
            && self.responses_lost == 0
            && self.fairness_ok()
    }
}

#[cfg(unix)]
mod sweep {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    use planartest_core::TesterConfig;
    use planartest_service::wire::Value;
    use planartest_service::{
        CacheStatus, GraphRef, Histogram, Property, Query, ServeOptions, Server, Service, Telemetry,
    };

    use super::{
        build_workload, corpus, warm_seeds, Json, LoadGate, OpKind, CONNECTIONS, EPSILONS,
        KNEE_FRACTION, LOAD_SEED, PHASES,
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
        pub p50_micros: u64,
        pub p99_micros: u64,
        pub p999_micros: u64,
        pub mean_micros: f64,
        pub latency_count: u64,
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

    /// All cells merged (the end-to-end distribution).
    fn merged_latency(telemetry: &Telemetry, baseline: &[Histogram; 9]) -> Histogram {
        merged_latency_where(telemetry, baseline, |_| true)
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

        let server = Server::start(
            service,
            ServeOptions {
                outbound_depth: opts.outbound_depth,
                ..ServeOptions::default()
            },
        );
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
        let streams: Vec<UnixStream> = workload
            .per_conn
            .iter()
            .map(|_| UnixStream::connect(&socket).expect("connect load client"))
            .collect();
        let stop_slow = AtomicBool::new(false);
        let started = Instant::now();
        type ClientResult = (Vec<String>, Vec<u64>, Instant);
        let per_conn: Vec<ClientResult> = std::thread::scope(|scope| {
            let mut handles: Vec<Option<std::thread::ScopedJoinHandle<'_, ClientResult>>> =
                Vec::new();
            for (ci, arrivals) in workload.per_conn.iter().enumerate() {
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
                if opts.slow_conn == Some(ci) {
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
                        let mut digests = Vec::with_capacity(arrivals.len());
                        let mut latencies = Vec::with_capacity(arrivals.len());
                        let mut line = String::new();
                        for a in arrivals {
                            line.clear();
                            let n = reader.read_line(&mut line).expect("read load response");
                            assert!(n > 0, "connection closed before all responses arrived");
                            let recv =
                                u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                            latencies.push(recv.saturating_sub(a.at_micros));
                            let v = Value::parse(line.trim()).expect("response parses");
                            digests.push(digest(a.kind, &v));
                        }
                        (digests, latencies, Instant::now())
                    })));
                }
            }
            // Healthy clients finish on their own; the throttled one
            // is released only after they have, so it stays slow for
            // the entire measured window.
            let mut results: Vec<Option<ClientResult>> = (0..handles.len()).map(|_| None).collect();
            for ci in 0..handles.len() {
                if opts.slow_conn == Some(ci) {
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
            if let Some(ci) = opts.slow_conn {
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
        let wall_secs = per_conn
            .iter()
            .map(|(_, _, done)| done.duration_since(started).as_secs_f64())
            .fold(0.0f64, f64::max);

        server.request_shutdown();
        let service = server.join();
        drop(streams);
        let _ = std::fs::remove_file(&socket);

        let stats = service.stats();
        let latency = merged_latency(&telemetry, &baseline);
        let warm = merged_latency_where(&telemetry, &baseline, |s| s != CacheStatus::Cold);
        let passes = service.engine_passes() - passes_before;
        let equeries = engine_queries(&telemetry) - equeries_before;
        let realized =
            workload.requests as f64 / (workload.last_arrival_micros.max(1) as f64 / 1_000_000.0);
        let client_latencies: Vec<Vec<u64>> = per_conn.iter().map(|(_, l, _)| l.clone()).collect();
        RateOutcome {
            offered_qps: rate,
            realized_offered_qps: realized,
            requests: workload.requests,
            queries: workload.queries,
            achieved_qps: workload.requests as f64 / wall_secs.max(1e-9),
            wall_secs,
            p50_micros: latency.value_at_quantile(0.50),
            p99_micros: latency.value_at_quantile(0.99),
            p999_micros: latency.value_at_quantile(0.999),
            mean_micros: latency.mean(),
            latency_count: latency.count(),
            warm_p99_micros: warm.value_at_quantile(0.99),
            client_p99_micros: percentile(
                client_latencies.iter().flatten().copied().collect(),
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
            client_latencies,
            digests: per_conn.into_iter().map(|(d, _, _)| d).collect(),
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

    fn rate_row(o: &RateOutcome) -> Json {
        Json::obj()
            .field("offered_qps", o.offered_qps)
            .field("realized_offered_qps", o.realized_offered_qps)
            .field("achieved_qps", o.achieved_qps)
            .field("requests", o.requests)
            .field("queries", o.queries)
            .field("wall_seconds", o.wall_secs)
            .field("p50_micros", o.p50_micros)
            .field("p99_micros", o.p99_micros)
            .field("p999_micros", o.p999_micros)
            .field("mean_micros", o.mean_micros)
            .field("latency_count", o.latency_count)
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

    pub(super) fn document() -> (Json, LoadGate) {
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
                o.p50_micros,
                o.p99_micros,
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
            sub_knee_p99_micros: sub_knee.map_or(u64::MAX, |o| o.p99_micros),
            warm_p99_micros: sub_knee.map_or(u64::MAX, |o| o.warm_p99_micros),
            deterministic,
            responses_lost,
            all_healthy_p99_micros: fairness.all_healthy_p99_micros,
            slow_reader_healthy_p99_micros: fairness.slow_reader_healthy_p99_micros,
        };
        if let (Some(k), Some(s)) = (knee_idx, sub_knee) {
            println!(
                "knee at {:.0} q/s offered (achieved {:.0}); highest healthy rate {:.0} q/s, \
                 p99 {}us (warm {}us)",
                outcomes[k].realized_offered_qps,
                outcomes[k].achieved_qps,
                s.realized_offered_qps,
                s.p99_micros,
                s.warm_p99_micros,
            );
        }

        let corpus_rows: Vec<Json> = corpus()
            .into_iter()
            .map(|(name, spec_text, planar)| {
                Json::obj()
                    .field("name", name)
                    .field("spec", spec_text.as_str())
                    .field("planar", planar)
            })
            .collect();
        let doc = Json::obj()
            .field("schema", "planartest-bench/load/v2")
            .field("quick_mode", quick())
            .field("seed", LOAD_SEED)
            .field("connections", CONNECTIONS as u64)
            .field("corpus", corpus_rows)
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
    sweep::document()
}

/// Non-unix hosts have no unix sockets; the sweep is skipped and the
/// gate is vacuous (recorded as such in the artifact).
#[cfg(not(unix))]
#[must_use]
pub fn load_bench_document() -> (Json, LoadGate) {
    println!("load sweep skipped (no unix sockets on this platform)");
    (
        Json::obj()
            .field("schema", "planartest-bench/load/v2")
            .field("skipped", true),
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

    #[test]
    fn gate_thresholds() {
        let base = LoadGate {
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
        };
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
    fn corpus_specs_parse() {
        for (_, spec_text, planar) in corpus() {
            let parsed = planartest_graph::generators::spec::parse(&spec_text).expect("spec");
            let _ = (parsed, planar);
        }
    }
}
