//! Telemetry determinism tests: the whole stage-timing pipeline run on
//! the injected mock clock (no wall-clock reads anywhere), plus the
//! property test tying [`Histogram`] quantiles to exact sort-based
//! quantiles within one bucket's relative error.

use planartest_core::TesterConfig;
use planartest_service::protocol::handle_line;
use planartest_service::{
    CacheStatus, Clock, GraphRef, Histogram, Property, Query, Service, StageTimes,
};
use proptest::prelude::*;

/// Exact nearest-rank quantile over a sorted sample — the convention
/// [`Histogram::value_at_quantile`] mirrors bucket-wise.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

proptest! {
    /// The log-bucketed histogram's quantiles match exact sort-based
    /// quantiles within one bucket's relative error: the estimate is a
    /// bucket upper edge, so it never under-reports and overshoots by
    /// at most the bucket width (`value/16 + 1` with 4 sub-bucket
    /// bits).
    #[test]
    fn histogram_quantiles_match_sorted_ranks(
        values in prop::collection::vec(0u64..1_000_000_000, 1..200),
        q in 0.0f64..1.001,
    ) {
        let mut hist = Histogram::new();
        for &v in &values {
            hist.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, q);
        let est = hist.value_at_quantile(q);
        prop_assert!(
            exact <= est && est <= exact + exact / 16 + 1,
            "q={q}: exact {exact}, histogram {est}"
        );
    }
}

/// A service on a fresh auto-ticking mock clock (every stamp advances
/// one microsecond), with one planar and one certified-far graph
/// resident.
fn mock_service() -> Service {
    let (clock, _) = Clock::mock(1);
    let mut service = Service::new().with_clock(clock);
    service
        .registry_mut()
        .ingest_spec("tri", "tri_grid(6,6)")
        .expect("planar spec");
    service
        .registry_mut()
        .ingest_spec("far", "k5_chain(4)")
        .expect("far spec");
    service
}

fn planarity(graph: &str, seed: u64) -> Query {
    Query::planarity(
        GraphRef::Name(graph.into()),
        TesterConfig::new(0.2).with_phases(5).with_seed(seed),
    )
}

/// Runs the canonical cold → warm → certificate sequence, returning
/// the four responses' stage timings in order.
fn canonical_run(service: &mut Service) -> Vec<(CacheStatus, StageTimes)> {
    [
        planarity("tri", 1), // cold accept
        planarity("tri", 1), // warm replay
        planarity("far", 1), // cold reject (records the certificate)
        planarity("far", 2), // certificate replay under a new seed
    ]
    .into_iter()
    .map(|q| {
        let r = service.query(q).expect("query");
        (r.cache, r.stages)
    })
    .collect()
}

#[test]
fn stage_timings_are_contiguous_and_deterministic_on_the_mock_clock() {
    let runs: Vec<_> = (0..2).map(|_| canonical_run(&mut mock_service())).collect();

    // Deterministic: two fresh services on fresh mock clocks produce
    // bit-identical stage timings.
    assert_eq!(runs[0], runs[1], "mock-clock stage timings must repeat");

    let statuses: Vec<CacheStatus> = runs[0].iter().map(|(c, _)| *c).collect();
    assert_eq!(
        statuses,
        [
            CacheStatus::Cold,
            CacheStatus::Warm,
            CacheStatus::Cold,
            CacheStatus::Certificate
        ]
    );
    for (cache, stages) in &runs[0] {
        // Contiguous spans: one stamp per boundary, so the stage sum
        // IS the end-to-end latency — exactly, not within error.
        assert_eq!(
            stages.queue_micros
                + stages.resolve_micros
                + stages.execute_micros
                + stages.respond_micros,
            stages.total_micros(),
        );
        // Every boundary is a distinct auto-tick stamp, so the spans a
        // query actually crosses are nonzero…
        assert!(stages.queue_micros > 0, "queue span crosses submit");
        assert!(stages.resolve_micros > 0, "resolve span crosses stamps");
        match cache {
            CacheStatus::Cold => {
                assert!(stages.execute_micros > 0, "cold queries hit the engine");
                assert!(stages.respond_micros > 0, "cold queries apply results");
            }
            // …while cache hits end at resolve time: no engine pass,
            // no apply stage.
            CacheStatus::Warm | CacheStatus::Certificate => {
                assert_eq!(stages.execute_micros, 0);
                assert_eq!(stages.respond_micros, 0);
            }
        }
    }
}

#[test]
fn latency_histograms_distinguish_cold_warm_and_certificate() {
    let mut service = mock_service();
    let runs = canonical_run(&mut service);
    let telemetry = service.telemetry();

    // One histogram cell per (property, cache outcome): the three
    // provenance classes land in three separate distributions.
    let cell = |cache| telemetry.latency_histogram(Property::Planarity, cache);
    let cold = cell(CacheStatus::Cold).expect("cold cell");
    let warm = cell(CacheStatus::Warm).expect("warm cell");
    let cert = cell(CacheStatus::Certificate).expect("certificate cell");
    assert_eq!(cold.count(), 2, "tri and far cold passes");
    assert_eq!(warm.count(), 1);
    assert_eq!(cert.count(), 1);

    // Each cell's recorded sum is the exact total of the stage sums
    // that landed there — stage timings and end-to-end latency agree.
    let total_for = |want: CacheStatus| -> u64 {
        runs.iter()
            .filter(|(c, _)| *c == want)
            .map(|(_, s)| s.total_micros())
            .sum()
    };
    assert_eq!(cold.sum(), total_for(CacheStatus::Cold));
    assert_eq!(warm.sum(), total_for(CacheStatus::Warm));
    assert_eq!(cert.sum(), total_for(CacheStatus::Certificate));

    // And the cache classes are meaningfully ordered: a cold pass
    // costs strictly more stamped time than its cache replays.
    assert!(cold.min() > warm.max());
    assert!(cold.min() > cert.max());
}

#[test]
fn metrics_ops_snapshot_the_histograms() {
    let mut service = mock_service();
    canonical_run(&mut service);

    // `metrics`: the JSON snapshot carries one latency entry per
    // (property, cache) cell with quantiles and raw buckets.
    let metrics = handle_line(&mut service, r#"{"op":"metrics"}"#);
    assert_eq!(metrics.get("ok").unwrap().as_bool(), Some(true));
    let latency = metrics.get("latency").unwrap().as_arr().expect("array");
    let mut cells: Vec<(String, String)> = latency
        .iter()
        .map(|entry| {
            assert!(
                entry
                    .get("latency_micros")
                    .unwrap()
                    .get("p50")
                    .unwrap()
                    .as_u64()
                    .is_some(),
                "every cell snapshots its quantiles"
            );
            (
                entry.get("property").unwrap().as_str().unwrap().to_string(),
                entry.get("cache").unwrap().as_str().unwrap().to_string(),
            )
        })
        .collect();
    cells.sort();
    assert_eq!(
        cells,
        [
            ("planarity".to_string(), "certificate".to_string()),
            ("planarity".to_string(), "cold".to_string()),
            ("planarity".to_string(), "warm".to_string()),
        ]
    );
    let cycles = metrics.get("cycles").unwrap();
    assert!(cycles.get("wake").unwrap().get("arrival").is_some());
    assert!(metrics
        .get("engine")
        .unwrap()
        .get("coalesce_ratio")
        .is_some());

    // `metrics-text`: the Prometheus exposition of the same state.
    let text_resp = handle_line(&mut service, r#"{"op":"metrics-text"}"#);
    assert_eq!(text_resp.get("ok").unwrap().as_bool(), Some(true));
    let text = text_resp.get("text").unwrap().as_str().expect("text");
    assert!(text.contains("planartest_uptime_micros"));
    assert!(text.contains("planartest_drain_wake_total{reason=\"arrival\"}"));
    assert!(text.contains("_bucket{"), "histograms expose buckets");
    assert!(
        text.contains("le=\"+Inf\""),
        "cumulative buckets end at +Inf"
    );

    // `stats`: the extended summary carries the satellite fields.
    let stats = handle_line(&mut service, r#"{"op":"stats"}"#);
    assert_eq!(stats.get("queue_depth").unwrap().as_u64(), Some(0));
    assert!(stats.get("uptime_micros").unwrap().as_u64().is_some());
    assert!(stats.get("accept_stripes").unwrap().as_u64().is_some());
    assert!(stats.get("accept_capacity").unwrap().as_u64().is_some());
    assert!(stats.get("drain_cycles").unwrap().as_u64().is_some());
    assert!(stats.get("wake").unwrap().get("shutdown").is_some());
}

#[test]
fn latency_cells_account_for_every_query_in_a_mixed_sweep() {
    let mut service = mock_service();

    // A deterministic mixed sweep: cold and warm planarity on both
    // graphs, the seed-independent properties, and one batch. Every
    // query must land in exactly one (property, cache) latency cell.
    let mut requests = Vec::new();
    for seed in 0..4 {
        requests.push(format!(
            r#"{{"op":"query","graph":"tri","epsilon":0.2,"phases":5,"seed":{seed}}}"#
        ));
    }
    requests.push(requests[0].clone()); // warm replay
    for seed in 0..3 {
        requests.push(format!(
            r#"{{"op":"query","graph":"far","epsilon":0.2,"phases":5,"seed":{seed}}}"#
        ));
    }
    for property in ["cycle_freeness", "bipartiteness"] {
        for graph in ["tri", "far"] {
            requests.push(format!(
                r#"{{"op":"query","graph":"{graph}","property":"{property}","epsilon":0.2,"phases":5,"seed":0}}"#
            ));
        }
    }
    let sent = requests.len() + 3; // the batch below carries 3 queries
    requests.push(
        r#"{"op":"batch","queries":[
            {"op":"query","graph":"tri","epsilon":0.2,"phases":5,"seed":1},
            {"op":"query","graph":"far","epsilon":0.2,"phases":5,"seed":1},
            {"op":"query","graph":"tri","property":"cycle_freeness","epsilon":0.2,"phases":5,"seed":0}
        ]}"#
            .to_string(),
    );
    for request in &requests {
        let response = handle_line(&mut service, request);
        assert_eq!(
            response.get("ok").unwrap().as_bool(),
            Some(true),
            "request failed: {request}"
        );
    }

    // Conservation: the per-cell histogram counts sum to exactly the
    // number of queries sent — nothing double-counted, nothing dropped
    // — and the scheduler's own ledger agrees.
    let metrics = handle_line(&mut service, r#"{"op":"metrics"}"#);
    let cell_total: u64 = metrics
        .get("latency")
        .unwrap()
        .as_arr()
        .expect("latency array")
        .iter()
        .map(|entry| {
            entry
                .get("latency_micros")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64()
                .expect("cell count")
        })
        .sum();
    assert_eq!(cell_total, sent as u64);
    assert_eq!(
        metrics.get("queries_served").unwrap().as_u64(),
        Some(sent as u64)
    );
}

#[test]
fn queue_depth_hwm_ratchets_across_a_load_ramp() {
    use std::io::Write;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    use planartest_service::wire::Value;
    use planartest_service::{ServeOptions, Server, Submission};

    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<Vec<u8>>>);
    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let mut service = Service::new();
    service
        .registry_mut()
        .ingest_spec("g", "tri_grid(4,4)")
        .expect("spec");
    // Each round's burst and its trailing `stats` op are pushed
    // atomically, once the previous round is answered, so the queue
    // holds the whole round at once before one cycle takes it.
    let server = Server::start(service, ServeOptions::default());
    let queue = server.submission_queue();
    let sink = Sink::default();
    let conn = server.connections().register(Box::new(sink.clone()));

    let query = |seed: usize| {
        let line =
            format!(r#"{{"op":"query","graph":"g","epsilon":0.2,"phases":5,"seed":{seed}}}"#);
        Submission::new(conn, Ok(Value::parse(&line).expect("query parses")))
    };
    let lines_in = |sink: &Sink| {
        let buf = sink.0.lock().unwrap();
        buf.iter().filter(|&&b| b == b'\n').count()
    };

    // Ramp the per-round burst up; the high-water mark must ratchet:
    // it tracks each new deepest backlog and never moves back down
    // after the drain empties the queue.
    let mut responses_expected = 0;
    let mut hwm_seen = 0;
    for (round, burst) in [2usize, 5, 9].into_iter().enumerate() {
        let stats_op = Submission::new(conn, Ok(Value::parse(r#"{"op":"stats"}"#).unwrap()));
        queue.push_all((0..burst).map(|i| query(round * 100 + i)).chain([stats_op]));

        responses_expected += burst + 1;
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while lines_in(&sink) < responses_expected {
            assert!(std::time::Instant::now() < deadline, "drain stalled");
            std::thread::sleep(Duration::from_millis(5));
        }

        let hwm = queue.depth_hwm();
        assert_eq!(hwm, burst + 1, "deepest backlog this ramp so far");
        assert!(hwm > hwm_seen, "the mark ratchets upward across rounds");
        hwm_seen = hwm;

        // The `stats` response (the round's last line) reports the
        // same mark on the wire, even though the queue is empty again.
        let buf = sink.0.lock().unwrap();
        let text = String::from_utf8(buf.clone()).expect("utf8 responses");
        let stats = Value::parse(text.lines().last().unwrap()).expect("stats parses");
        assert_eq!(
            stats.get("queue_depth_hwm").unwrap().as_u64(),
            Some(hwm as u64)
        );
        assert_eq!(stats.get("responses_lost").unwrap().as_u64(), Some(0));
        drop(buf);
        assert_eq!(queue.depth(), 0, "one cycle drains the whole round");
    }

    server.request_shutdown();
    let service = server.join();
    assert_eq!(service.stats().queue_depth_hwm, 10, "mark survives join");
}

#[test]
fn trace_log_replays_the_stage_stamps() {
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let mut service = mock_service();
    let sink = Sink::default();
    service.telemetry().set_trace_writer(Box::new(sink.clone()));
    let runs = canonical_run(&mut service);

    let bytes = sink.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("utf8 trace");
    let records: Vec<planartest_service::wire::Value> = text
        .lines()
        .map(|l| planartest_service::wire::Value::parse(l).expect("trace record parses"))
        .collect();
    assert_eq!(records.len(), 4 * runs.len(), "four records per query");

    // Each query's four records reconstruct its stage boundaries:
    // every record is stamped at its stage's *start*, so the respond
    // record's offset from submit plus its own span is exactly the
    // stage sum.
    for (i, (_, stages)) in runs.iter().enumerate() {
        let chunk = &records[4 * i..4 * i + 4];
        let events: Vec<&str> = chunk
            .iter()
            .map(|r| r.get("event").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(events, ["submit", "resolve", "execute", "respond"]);
        let at = |j: usize| chunk[j].get("at_micros").unwrap().as_u64().unwrap();
        assert_eq!(at(3) - at(0) + stages.respond_micros, stages.total_micros());
        assert_eq!(
            chunk[3].get("total_micros").unwrap().as_u64(),
            Some(stages.total_micros())
        );
        // Lib-path queries have no connection: conn is null.
        assert!(matches!(
            chunk[0].get("conn"),
            Some(planartest_service::wire::Value::Null)
        ));
    }
}
