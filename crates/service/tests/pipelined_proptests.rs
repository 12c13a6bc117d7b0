//! Pipelined-server equivalence properties: the overlapped drain cycle
//! (hit fast path, per-connection deferral, per-connection outbound
//! writers) must deliver, **per connection**, exactly what the
//! synchronous [`Service::drain`] delivers — same responses, same
//! per-connection order, nothing lost, nothing duplicated — no matter
//! how arrivals interleave with running engine passes.
//!
//! Two properties at two trust levels:
//!
//! * `controlled_cycles_equal_synchronous_drain` pins the cycle
//!   partition (each pushed batch becomes exactly one cycle, no
//!   overlap) and compares the *full* response essence against a
//!   reference `Service` fed the same submissions — including
//!   partition-dependent fields like cache provenance and coalescing
//!   counts.
//! * `overlap_stress_preserves_per_connection_order` fires everything
//!   back-to-back at `wake_depth 1` so arrivals land mid-pass and ride
//!   the overlap resolver; the cycle partition is then timing-
//!   dependent, so it checks the partition-*invariant* contract: every
//!   submission answered once, in submission order, with the
//!   deterministic verdict and its own seed echoed.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use planartest_core::TesterConfig;
use planartest_service::wire::Value;
use planartest_service::{
    protocol, ConnectionId, GraphRef, Property, Query, ServeOptions, Server, Service, Submission,
};
use proptest::prelude::*;

/// The ingested corpus: two accepting planar families, one certified-
/// far family, one uncertified non-planar one.
const SPECS: &[&str] = &[
    "tri_grid(4,4)",
    "grid(3,5)",
    "k5_chain(3)",
    "gnp(18, 0.3, seed=5)",
];

/// Indices of `SPECS` entries whose planarity verdict is always
/// `accept` (planar graphs: one-sided error, never rejected).
const ACCEPTING: &[usize] = &[0, 1];

const EPSILONS: &[f64] = &[0.1, 0.25];

const PROPERTIES: &[Property] = &[
    Property::Planarity,
    Property::CycleFreeness,
    Property::Bipartiteness,
];

/// An in-process transport endpoint: a shared byte sink the server's
/// writer thread for this connection flushes response lines into.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Sink {
    /// Complete response lines received so far (a concurrent writer
    /// may be mid-line; those bytes don't count yet).
    fn complete_lines(&self) -> usize {
        self.0
            .lock()
            .unwrap()
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
    }

    fn responses(&self) -> Vec<Value> {
        let bytes = self.0.lock().unwrap().clone();
        String::from_utf8(bytes)
            .expect("responses are utf-8")
            .lines()
            .map(|l| Value::parse(l).expect("response line parses"))
            .collect()
    }
}

/// One generated request.
#[derive(Debug, Clone)]
enum Op {
    /// A plain query; `graph == SPECS.len()` targets a never-ingested
    /// name (the per-query error path).
    Query {
        graph: usize,
        eps: usize,
        seed: u64,
        property: usize,
    },
    /// A `batch` op of planarity members over `(graph, eps, seed)`.
    Batch(Vec<(usize, usize, u64)>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0..4usize, // 0..=2 → plain query (3:1 weighting), 3 → batch
        (
            0..SPECS.len() + 1,
            0..EPSILONS.len(),
            0u64..4,
            0..PROPERTIES.len(),
        ),
        proptest::collection::vec((0..SPECS.len(), 0..EPSILONS.len(), 0u64..4), 1..4),
    )
        .prop_map(|(kind, (graph, eps, seed, property), members)| {
            if kind < 3 {
                Op::Query {
                    graph,
                    eps,
                    seed,
                    property,
                }
            } else {
                Op::Batch(members)
            }
        })
}

fn graph_name(idx: usize) -> String {
    if idx < SPECS.len() {
        format!("g{idx}")
    } else {
        "missing".to_string()
    }
}

fn query_fields(v: Value, graph: usize, eps: usize, seed: u64) -> Value {
    v.field("graph", graph_name(graph))
        .field("epsilon", EPSILONS[eps])
        .field("phases", 4u64)
        .field("seed", seed)
}

/// The wire form of an op (what the server parses).
fn render_op(op: &Op) -> Value {
    match op {
        Op::Query {
            graph,
            eps,
            seed,
            property,
        } => query_fields(Value::obj().field("op", "query"), *graph, *eps, *seed)
            .field("property", PROPERTIES[*property].name()),
        Op::Batch(members) => Value::obj().field("op", "batch").field(
            "queries",
            members
                .iter()
                .map(|&(g, e, s)| query_fields(Value::obj(), g, e, s))
                .collect::<Vec<Value>>(),
        ),
    }
}

/// The `Service`-API form of one query (must parse-match `render_op`:
/// same config as the wire path).
fn build_query(graph: usize, eps: usize, seed: u64, property: Property) -> Query {
    Query::planarity(
        GraphRef::Name(graph_name(graph)),
        TesterConfig::new(EPSILONS[eps])
            .with_phases(4)
            .with_seed(seed),
    )
    .with_property(property)
}

fn ingested_service() -> Service {
    let mut service = Service::new().with_group_threads(2);
    for (i, spec) in SPECS.iter().enumerate() {
        service
            .registry_mut()
            .ingest_spec(&format!("g{i}"), spec)
            .unwrap();
    }
    service
}

/// The response fields that must match bit-for-bit between the
/// pipelined server and the synchronous drain — everything except
/// wall-clock stage timings.
const ESSENCE: &[&str] = &[
    "ok",
    "verdict",
    "property",
    "graph",
    "seed",
    "cache",
    "rounds",
    "messages",
    "words",
    "coalesced",
    "rejecting_nodes",
    "reject_reasons",
    "error",
];

fn essence(v: &Value) -> Vec<(&'static str, Option<Value>)> {
    ESSENCE.iter().map(|k| (*k, v.get(k).cloned())).collect()
}

fn assert_same_essence(server: &Value, reference: &Value, context: &str) {
    match (
        server.get("responses").and_then(Value::as_arr),
        reference.get("responses").and_then(Value::as_arr),
    ) {
        (Some(a), Some(b)) => {
            assert_eq!(a.len(), b.len(), "{context}: batch member count");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(essence(x), essence(y), "{context}: batch member {i}");
            }
        }
        (None, None) => assert_eq!(essence(server), essence(reference), "{context}"),
        _ => panic!("{context}: batch/plain shape diverged"),
    }
}

fn wait_for_lines(sinks: &[Sink], expected: &[usize]) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if sinks
            .iter()
            .zip(expected)
            .all(|(s, &want)| s.complete_lines() >= want)
        {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for responses: have {:?}, want {expected:?}",
            sinks.iter().map(Sink::complete_lines).collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs `batches` through a pipelined server, one cycle per batch: the
/// queue lingers (1 h, depth `MAX`) until a trailing control op on a
/// dedicated connection fires the cycle, and the next batch is pushed
/// only after every response from the previous one landed. Returns the
/// per-connection response lists.
fn run_pipelined_controlled(batches: &[Vec<(usize, Op)>], conns: usize) -> Vec<Vec<Value>> {
    let server = Server::start(
        ingested_service(),
        ServeOptions {
            linger: Duration::from_secs(3600),
            wake_depth: usize::MAX,
            ..ServeOptions::default()
        },
    );
    let sinks: Vec<Sink> = (0..conns).map(|_| Sink::default()).collect();
    let ids: Vec<ConnectionId> = sinks
        .iter()
        .map(|s| server.connections().register(Box::new(s.clone())))
        .collect();
    let control = Sink::default();
    let control_id = server.connections().register(Box::new(control.clone()));
    let queue = server.submission_queue();

    let mut expected = vec![0usize; conns];
    for (b, batch) in batches.iter().enumerate() {
        for (conn, op) in batch {
            queue.push(Submission::new(ids[*conn], Ok(render_op(op))));
            expected[*conn] += 1;
        }
        // The cycle trigger: control ops are non-coalescable, so this
        // fires one cycle draining exactly the batch above.
        queue.push(Submission::new(
            control_id,
            Ok(Value::obj().field("op", "stats")),
        ));
        wait_for_lines(&sinks, &expected);
        wait_for_lines(std::slice::from_ref(&control), &[b + 1]);
    }
    server.request_shutdown();
    let _ = server.join();
    sinks.iter().map(Sink::responses).collect()
}

/// Runs the same batches through a synchronous `Service`, one
/// [`Service::drain`] per batch (batch-op members flattened into the
/// drain in member order, re-assembled after), and renders the
/// responses exactly as the wire would.
fn run_reference(batches: &[Vec<(usize, Op)>], conns: usize) -> Vec<Vec<Value>> {
    let mut service = ingested_service();
    let mut responses: Vec<Vec<Value>> = vec![Vec::new(); conns];
    for batch in batches {
        // (conn, member count or None-for-plain) in submission order.
        let mut plan: Vec<(usize, Option<usize>)> = Vec::new();
        for (conn, op) in batch {
            match op {
                Op::Query {
                    graph,
                    eps,
                    seed,
                    property,
                } => {
                    service.submit(build_query(*graph, *eps, *seed, PROPERTIES[*property]));
                    plan.push((*conn, None));
                }
                Op::Batch(members) => {
                    for &(g, e, s) in members {
                        service.submit(build_query(g, e, s, Property::Planarity));
                    }
                    plan.push((*conn, Some(members.len())));
                }
            }
        }
        let mut drained = service.drain().into_iter();
        let mut render = || match drained.next().expect("drain covers every submission").1 {
            Ok(r) => protocol::response_value(&r),
            Err(e) => protocol::error_value(&e),
        };
        for (conn, shape) in plan {
            let line = match shape {
                None => render(),
                Some(n) => Value::obj().field("ok", true).field(
                    "responses",
                    (0..n).map(|_| render()).collect::<Vec<Value>>(),
                ),
            };
            responses[conn].push(line);
        }
    }
    responses
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// With the cycle partition pinned, the pipelined server is
    /// bit-for-bit the synchronous drain, per connection — cache
    /// provenance and coalescing counts included.
    #[test]
    fn controlled_cycles_equal_synchronous_drain(
        batches in proptest::collection::vec(
            proptest::collection::vec((0..2usize, op_strategy()), 1..5),
            1..4,
        ),
    ) {
        let conns = 2;
        let piped = run_pipelined_controlled(&batches, conns);
        let reference = run_reference(&batches, conns);
        for c in 0..conns {
            assert_eq!(
                piped[c].len(),
                reference[c].len(),
                "conn {c}: response count"
            );
            for (i, (s, r)) in piped[c].iter().zip(&reference[c]).enumerate() {
                assert_same_essence(s, r, &format!("conn {c} response {i}"));
            }
        }
    }
}

/// A stress op: accepting-planarity queries (verdict known a priori)
/// with per-submission unique seeds, plus missing-graph errors and
/// small batches.
#[derive(Debug, Clone)]
enum StressOp {
    Accept { graph: usize },
    MissingGraph,
    Batch { graph: usize, members: usize },
}

fn stress_strategy() -> impl Strategy<Value = StressOp> {
    (0..8usize, 0..ACCEPTING.len(), 1..4usize).prop_map(|(kind, g, members)| match kind {
        0..=4 => StressOp::Accept {
            graph: ACCEPTING[g],
        },
        5 => StressOp::MissingGraph,
        _ => StressOp::Batch {
            graph: ACCEPTING[g],
            members,
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Back-to-back arrivals at `wake_depth 1`: every submission rides
    /// whatever cycle or overlap window it lands in, yet each
    /// connection still gets one response per submission, in
    /// submission order (proven by unique echoed seeds), with the
    /// deterministic verdict.
    #[test]
    fn overlap_stress_preserves_per_connection_order(
        ops in proptest::collection::vec((0..3usize, stress_strategy()), 4..24),
    ) {
        let conns = 3;
        let server = Server::start(
            ingested_service(),
            ServeOptions {
                linger: Duration::from_secs(3600),
                wake_depth: 1,
                ..ServeOptions::default()
            },
        );
        let sinks: Vec<Sink> = (0..conns).map(|_| Sink::default()).collect();
        let ids: Vec<ConnectionId> = sinks
            .iter()
            .map(|s| server.connections().register(Box::new(s.clone())))
            .collect();
        let queue = server.submission_queue();

        // Per-connection expectations, in submission order. Unique
        // seeds (the global counter) make order violations visible.
        let mut seed = 0u64;
        let mut expected: Vec<Vec<StressExpect>> = (0..conns).map(|_| Vec::new()).collect();
        for (conn, op) in &ops {
            let request = match op {
                StressOp::Accept { graph } => {
                    seed += 1;
                    expected[*conn].push(StressExpect::Plain(seed));
                    query_fields(Value::obj().field("op", "query"), *graph, 1, seed)
                }
                StressOp::MissingGraph => {
                    seed += 1;
                    expected[*conn].push(StressExpect::Error);
                    query_fields(Value::obj().field("op", "query"), SPECS.len(), 1, seed)
                }
                StressOp::Batch { graph, members } => {
                    let seeds: Vec<u64> = (0..*members)
                        .map(|_| {
                            seed += 1;
                            seed
                        })
                        .collect();
                    let queries: Vec<Value> = seeds
                        .iter()
                        .map(|&s| query_fields(Value::obj(), *graph, 1, s))
                        .collect();
                    expected[*conn].push(StressExpect::Batch(seeds));
                    Value::obj().field("op", "batch").field("queries", queries)
                }
            };
            queue.push(Submission::new(ids[*conn], Ok(request)));
        }
        server.request_shutdown();
        let _ = server.join();

        for c in 0..conns {
            let got = sinks[c].responses();
            assert_eq!(got.len(), expected[c].len(), "conn {c}: one response per submission");
            for (i, (response, want)) in got.iter().zip(&expected[c]).enumerate() {
                let context = format!("conn {c} response {i}");
                match want {
                    StressExpect::Error => {
                        assert_eq!(
                            response.get("ok").and_then(Value::as_bool),
                            Some(false),
                            "{context}: missing graph errors"
                        );
                        assert!(response.get("error").is_some(), "{context}: error text");
                    }
                    StressExpect::Plain(seed) => {
                        assert_eq!(
                            response.get("verdict").and_then(Value::as_str),
                            Some("accept"),
                            "{context}: planar graphs always accept (got {response})"
                        );
                        assert_eq!(
                            response.get("seed").and_then(Value::as_u64),
                            Some(*seed),
                            "{context}: out of submission order"
                        );
                    }
                    StressExpect::Batch(seeds) => {
                        let members = response
                            .get("responses")
                            .and_then(Value::as_arr)
                            .unwrap_or_else(|| panic!("{context}: batch response shape"));
                        assert_eq!(members.len(), seeds.len(), "{context}: batch member count");
                        for (m, (got, want)) in members.iter().zip(seeds).enumerate() {
                            assert_eq!(
                                got.get("verdict").and_then(Value::as_str),
                                Some("accept"),
                                "{context} member {m}: verdict"
                            );
                            assert_eq!(
                                got.get("seed").and_then(Value::as_u64),
                                Some(*want),
                                "{context} member {m}: member order"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// What one stress submission must answer with.
#[derive(Debug)]
enum StressExpect {
    /// One accepting planarity response echoing this seed.
    Plain(u64),
    /// A batch response whose members echo these seeds in order.
    Batch(Vec<u64>),
    /// A missing-graph error.
    Error,
}
