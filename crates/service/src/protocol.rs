//! The line-delimited JSON request protocol.
//!
//! One request per line, one response line per request — the format
//! `planartest serve` speaks over every transport (stdin/stdout, unix
//! sockets, TCP — see [`crate::transport`]) and the shape the one-shot
//! `planartest query` prints. Under the concurrent server each
//! request is tagged with its
//! [`ConnectionId`](crate::transport::ConnectionId) at the framing
//! layer and the
//! response is routed back to that connection, in that connection's
//! submission order; `query`/`batch` ops may linger in the submission
//! queue to coalesce with other connections' requests (see
//! [`coalescable`]), while control ops are answered on the next cycle.
//! Requests are objects with an `"op"` field:
//!
//! | op | fields | effect |
//! |----|--------|--------|
//! | `ingest` | `name`, and `edge_list` *or* `spec`; `to_disk?` | register a graph, build + fingerprint once (`to_disk` streams it straight to the `--state-dir` CSR spill, registered mapped) |
//! | `query` | `graph` (name) or `fingerprint`, `property?`, `epsilon?`, `seed?`, `phases?`, `backend?` (validated, no effect), `embedding?` | test one property, cache-aware |
//! | `batch` | `queries`: array of query objects | coalesced drain: same-graph queries share engine passes |
//! | `stats` | — | registry/cache/scheduler counters, queue depth, outbound shed/loss ledgers, uptime, wake reasons |
//! | `metrics` | — | full telemetry snapshot: latency histograms per `(property, cache, route)`, stage timings, cycle accounting |
//! | `metrics-text` | — | the same metrics as Prometheus exposition text (in the `text` field) |
//! | `families` | — | the spec-addressable generator corpus |
//!
//! Every response carries `"ok"`; failures also carry `"error"`. A
//! malformed line never kills the server — it answers
//! `{"ok":false,...}` and keeps reading.

use planartest_core::{EmbeddingMode, TesterConfig};
use planartest_graph::generators::spec;
use planartest_sim::Backend;

use crate::query::{GraphRef, Outcome, Property, Query, QueryResponse};
use crate::scheduler::Service;
use crate::wire::Value;

/// Default distance parameter when a query names none.
pub const DEFAULT_EPSILON: f64 = 0.1;

/// The protocol's error-response shape: `{"ok":false,"error":...}`.
/// Used both for per-request failures and for per-connection framing
/// failures (oversized or garbage frames), so a broken client always
/// gets an answer instead of killing the server.
#[must_use]
pub fn error_value(message: impl std::fmt::Display) -> Value {
    Value::obj()
        .field("ok", false)
        .field("error", message.to_string())
}

fn error(message: impl std::fmt::Display) -> Value {
    error_value(message)
}

/// Whether a request benefits from lingering in the submission queue
/// to coalesce with others (`query`/`batch`). Control ops and
/// malformed requests wake the drain loop immediately.
#[must_use]
pub fn coalescable(req: &Value) -> bool {
    matches!(
        req.get("op").and_then(Value::as_str),
        Some("query" | "batch")
    )
}

/// Parses the query-shaped fields of `req` into a [`Query`].
///
/// # Errors
///
/// A human-readable message naming the offending field.
pub fn parse_query(req: &Value) -> Result<Query, String> {
    let graph = match (req.get("graph"), req.get("fingerprint")) {
        (Some(g), None) => GraphRef::Name(
            g.as_str()
                .ok_or_else(|| "`graph` must be a string name".to_string())?
                .to_string(),
        ),
        (None, Some(fp)) => {
            let text = fp
                .as_str()
                .ok_or_else(|| "`fingerprint` must be a hex string".to_string())?;
            GraphRef::Fingerprint(text.parse().map_err(|e| format!("`fingerprint`: {e}"))?)
        }
        (Some(_), Some(_)) => {
            return Err("give `graph` or `fingerprint`, not both".to_string());
        }
        (None, None) => return Err("missing `graph` (or `fingerprint`)".to_string()),
    };
    let property = match req.get("property") {
        None => Property::Planarity,
        Some(p) => p
            .as_str()
            .ok_or_else(|| "`property` must be a string".to_string())?
            .parse::<Property>()
            .map_err(|e| e.to_string())?,
    };
    let epsilon = match req.get("epsilon") {
        None => DEFAULT_EPSILON,
        Some(e) => e
            .as_f64()
            .ok_or_else(|| "`epsilon` must be a number".to_string())?,
    };
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err("`epsilon` must be in (0, 1)".to_string());
    }
    let mut cfg = TesterConfig::new(epsilon);
    if let Some(seed) = req.get("seed") {
        cfg = cfg.with_seed(
            seed.as_u64()
                .ok_or_else(|| "`seed` must be a non-negative integer".to_string())?,
        );
    }
    if let Some(phases) = req.get("phases") {
        let t = phases
            .as_u64()
            .ok_or_else(|| "`phases` must be a non-negative integer".to_string())?;
        cfg = cfg.with_phases(t as usize);
    }
    match req.get("embedding").map(|v| v.as_str()) {
        None => {}
        Some(Some("strict")) => cfg = cfg.with_embedding(EmbeddingMode::DemoucronStrict),
        Some(Some("paper")) => cfg = cfg.with_embedding(EmbeddingMode::Demoucron),
        Some(_) => return Err("`embedding` must be `strict` or `paper`".to_string()),
    }
    // `backend` is a no-op kept for compatibility: every pass runs on
    // the one serial engine. It is still validated, so a typo fails loudly.
    if let Some(b) = req.get("backend") {
        b.as_str()
            .ok_or_else(|| "`backend` must be a string".to_string())?
            .parse::<Backend>()
            .map_err(|e| e.to_string())?;
    }
    Ok(Query {
        graph,
        property,
        cfg,
    })
}

/// Serializes a served query for the wire.
#[must_use]
pub fn response_value(r: &QueryResponse) -> Value {
    let stats = r.outcome.stats();
    let mut v = Value::obj()
        .field("ok", true)
        .field(
            "verdict",
            if r.outcome.accepted() {
                "accept"
            } else {
                "reject"
            },
        )
        .field("property", r.property.name())
        .field("graph", r.graph.to_string())
        .field("seed", r.seed)
        .field("cache", r.cache.name())
        .field("rounds", stats.total_rounds())
        .field("messages", stats.messages)
        .field("words", stats.words)
        .field("coalesced", r.coalesced)
        .field("engine_micros", r.engine_micros)
        .field("attributed_micros", r.attributed_micros)
        .field(
            "stages",
            Value::obj()
                .field("queue_micros", r.stages.queue_micros)
                .field("resolve_micros", r.stages.resolve_micros)
                .field("execute_micros", r.stages.execute_micros)
                .field("respond_micros", r.stages.respond_micros)
                .field("total_micros", r.stages.total_micros()),
        );
    let rejecting: Vec<Value> = r
        .outcome
        .rejecting_nodes()
        .iter()
        .map(|v| Value::UInt(v.index() as u64))
        .collect();
    if !rejecting.is_empty() {
        v = v.field("rejecting_nodes", rejecting);
    }
    if let Outcome::Planarity(out) = &r.outcome {
        if !out.rejections.is_empty() {
            v = v.field(
                "reject_reasons",
                out.rejections
                    .iter()
                    .map(|(node, reason)| {
                        Value::obj()
                            .field("node", node.index())
                            .field("reason", reason.to_string())
                    })
                    .collect::<Vec<Value>>(),
            );
        }
        // Witness telemetry can cover most of the graph (the Claim 10
        // refutation: planar graphs carry violating labellings); the
        // wire reports the count plus a bounded sample so response
        // lines stay line-sized.
        if !out.violation_witnesses.is_empty() {
            v = v
                .field("violation_witness_count", out.violation_witnesses.len())
                .field(
                    "violation_witness_sample",
                    out.violation_witnesses
                        .iter()
                        .take(8)
                        .map(|w| Value::UInt(w.index() as u64))
                        .collect::<Vec<Value>>(),
                );
        }
    }
    v
}

fn handle_ingest(service: &mut Service, req: &Value) -> Value {
    let Some(name) = req.get("name").and_then(Value::as_str) else {
        return error("`ingest` needs a string `name`");
    };
    // `to_disk` routes the ingest through the streaming out-of-core
    // builder (needs `--state-dir`): edges go straight to the CSR
    // spill and the entry is registered mapped, never resident.
    let to_disk = match req.get("to_disk") {
        None => false,
        Some(v) => match v.as_bool() {
            Some(b) => b,
            None => return error("`to_disk` must be a boolean"),
        },
    };
    let result = match (req.get("edge_list"), req.get("spec")) {
        (Some(text), None) => match text.as_str() {
            Some(text) if to_disk => service.registry_mut().ingest_edge_list_to_disk(name, text),
            Some(text) => service.registry_mut().ingest_edge_list(name, text),
            None => return error("`edge_list` must be a string document"),
        },
        (None, Some(text)) => match text.as_str() {
            Some(text) if to_disk => service.registry_mut().ingest_spec_to_disk(name, text),
            Some(text) => service.registry_mut().ingest_spec(name, text),
            None => return error("`spec` must be a string"),
        },
        _ => return error("`ingest` needs exactly one of `edge_list` or `spec`"),
    };
    match result {
        Ok(entry) => Value::obj()
            .field("ok", true)
            .field("name", name)
            .field("fingerprint", entry.fingerprint.to_string())
            .field("n", entry.graph.n())
            .field("m", entry.graph.m())
            .field(
                "tier",
                if entry.graph.is_mapped() {
                    "mapped"
                } else {
                    "resident"
                },
            )
            .field("source", entry.source.as_str())
            .field(
                "certified",
                match entry.certified {
                    None => Value::Null,
                    Some(s) if s.is_planar() => Value::Str("planar".into()),
                    Some(s) => {
                        let far = s.far_fraction(entry.graph.m());
                        if far > 0.0 {
                            Value::obj().field("far_fraction", far)
                        } else {
                            Value::Str("unknown".into())
                        }
                    }
                },
            ),
        Err(e) => error(e),
    }
}

fn handle_query(service: &mut Service, req: &Value) -> Value {
    match parse_query(req) {
        Ok(q) => match service.query(q) {
            Ok(r) => response_value(&r),
            Err(e) => error(e),
        },
        Err(e) => error(e),
    }
}

/// Parses a `batch` op's members. Strict: a malformed member fails the
/// whole batch before any engine time is spent.
///
/// # Errors
///
/// A human-readable message naming the offending member.
pub fn parse_batch(req: &Value) -> Result<Vec<Query>, String> {
    let Some(queries) = req.get("queries").and_then(Value::as_arr) else {
        return Err("`batch` needs a `queries` array".to_string());
    };
    let mut parsed = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        match parse_query(q) {
            Ok(q) => parsed.push(q),
            Err(e) => return Err(format!("queries[{i}]: {e}")),
        }
    }
    Ok(parsed)
}

fn handle_batch(service: &mut Service, req: &Value) -> Value {
    let parsed = match parse_batch(req) {
        Ok(p) => p,
        Err(e) => return error(e),
    };
    for q in parsed {
        service.submit(q);
    }
    let responses: Vec<Value> = service
        .drain()
        .iter()
        .map(|(_, result)| match result {
            Ok(r) => response_value(r),
            Err(e) => error(e),
        })
        .collect();
    Value::obj().field("ok", true).field("responses", responses)
}

fn handle_stats(service: &Service) -> Value {
    let s = service.stats();
    Value::obj()
        .field("ok", true)
        .field("graphs", s.graphs)
        .field("resident_graphs", s.resident_graphs)
        .field("mapped_graphs", s.mapped_graphs)
        .field("cache_slots", s.cache_slots)
        .field("cached_outcomes", s.cached_outcomes)
        .field("warm_hits", s.cache.warm_hits)
        .field("certificate_hits", s.cache.certificate_hits)
        .field("misses", s.cache.misses)
        .field("evictions", s.cache.evictions)
        .field("accept_stripes", s.accept_stripes)
        .field("accept_capacity", s.accept_capacity)
        .field("engine_passes", s.engine_passes)
        .field("queries_served", s.queries_served)
        .field("queue_depth", s.queue_depth)
        .field("queue_depth_hwm", s.queue_depth_hwm)
        .field("responses_lost", s.responses_lost)
        .field("responses_lost_shutdown", s.responses_lost_shutdown)
        .field("responses_shed", s.responses_shed)
        .field("outbound_depth_hwm", s.outbound_depth_hwm)
        .field("writer_stalls", s.writer_stalls)
        .field("uptime_micros", s.uptime_micros)
        .field("drain_cycles", s.drain_cycles)
        .field(
            "wake",
            Value::obj()
                .field("depth", s.wake[0])
                .field("linger", s.wake[1])
                .field("control", s.wake[2])
                .field("shutdown", s.wake[3])
                .field("pipeline", s.wake[4]),
        )
}

/// The `metrics` op: the full telemetry snapshot (histograms, stage
/// timings, cycle accounting, engine rollups) plus the registry/cache
/// summary counters.
fn handle_metrics(service: &Service) -> Value {
    let s = service.stats();
    let mut v = service.telemetry().metrics_value().field("ok", true);
    v = v
        .field("graphs", s.graphs)
        .field("cache_slots", s.cache_slots)
        .field("queue_depth", s.queue_depth)
        .field("queue_depth_hwm", s.queue_depth_hwm)
        .field("responses_lost", s.responses_lost)
        .field("responses_lost_shutdown", s.responses_lost_shutdown)
        .field("responses_shed", s.responses_shed)
        .field("outbound_depth_hwm", s.outbound_depth_hwm)
        .field("writer_stalls", s.writer_stalls)
        .field("engine_passes", s.engine_passes)
        .field("queries_served", s.queries_served);
    v
}

/// The `metrics-text` op: Prometheus exposition format, shipped in the
/// `text` field of a one-line JSON response (the wire layer escapes
/// the newlines; `planartest metrics` unescapes and prints it).
fn handle_metrics_text(service: &Service) -> Value {
    use std::fmt::Write as _;
    let mut text = service.telemetry().prometheus_text();
    // Outbound-path counters live on `Connections`, not `Telemetry`,
    // so the protocol layer appends them to the exposition.
    let s = service.stats();
    for (name, kind, v) in [
        ("responses_lost", "counter", s.responses_lost),
        (
            "responses_lost_shutdown",
            "counter",
            s.responses_lost_shutdown,
        ),
        ("responses_shed", "counter", s.responses_shed),
        ("outbound_depth_hwm", "gauge", s.outbound_depth_hwm as u64),
        ("writer_stalls", "counter", s.writer_stalls),
    ] {
        let _ = writeln!(text, "# TYPE planartest_{name} {kind}");
        let _ = writeln!(text, "planartest_{name} {v}");
    }
    Value::obj().field("ok", true).field("text", text)
}

fn handle_families() -> Value {
    let families: Vec<Value> = spec::families()
        .iter()
        .map(|f| {
            Value::obj()
                .field("name", f.name)
                .field("args", f.args)
                .field("randomized", f.randomized)
                .field("planar", f.planar)
                .field("certification", f.certification)
        })
        .collect();
    Value::obj().field("ok", true).field("families", families)
}

/// Handles one parsed request object.
#[must_use]
pub fn handle_request(service: &mut Service, req: &Value) -> Value {
    match req.get("op").and_then(Value::as_str) {
        Some("ingest") => handle_ingest(service, req),
        Some("query") => handle_query(service, req),
        Some("batch") => handle_batch(service, req),
        Some("stats") => handle_stats(service),
        Some("metrics") => handle_metrics(service),
        Some("metrics-text") => handle_metrics_text(service),
        Some("families") => handle_families(),
        Some(other) => error(format!(
            "unknown op `{other}` (expected ingest/query/batch/stats/metrics/metrics-text/families)"
        )),
        None => error("request needs a string `op` field"),
    }
}

/// Handles one raw request line (parse + dispatch; never panics on
/// untrusted input).
#[must_use]
pub fn handle_line(service: &mut Service, line: &str) -> Value {
    match Value::parse(line) {
        Ok(req) => handle_request(service, &req),
        Err(e) => error(format!("bad request: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ingest(service: &mut Service, name: &str, spec: &str) -> Value {
        handle_line(
            service,
            &Value::obj()
                .field("op", "ingest")
                .field("name", name)
                .field("spec", spec)
                .to_string(),
        )
    }

    #[test]
    fn ingest_query_warm_transcript() {
        let mut s = Service::new();
        let r = ingest(&mut s, "city", "tri_grid(5,5)");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("n").unwrap().as_u64(), Some(25));
        let fp = r.get("fingerprint").unwrap().as_str().unwrap().to_string();

        let q = Value::obj()
            .field("op", "query")
            .field("graph", "city")
            .field("epsilon", 0.2)
            .field("phases", 5u64)
            .field("seed", 7u64)
            .to_string();
        let cold = handle_line(&mut s, &q);
        assert_eq!(cold.get("verdict").unwrap().as_str(), Some("accept"));
        assert_eq!(cold.get("cache").unwrap().as_str(), Some("cold"));
        assert!(cold.get("rounds").unwrap().as_u64().unwrap() > 0);

        let warm = handle_line(&mut s, &q);
        assert_eq!(warm.get("cache").unwrap().as_str(), Some("warm"));
        assert_eq!(
            warm.get("rounds").unwrap().as_u64(),
            cold.get("rounds").unwrap().as_u64(),
            "replay is bit-identical"
        );

        // Query by fingerprint resolves to the same entry.
        let by_fp = handle_line(
            &mut s,
            &Value::obj()
                .field("op", "query")
                .field("fingerprint", fp.as_str())
                .field("epsilon", 0.2)
                .field("phases", 5u64)
                .field("seed", 7u64)
                .to_string(),
        );
        assert_eq!(by_fp.get("cache").unwrap().as_str(), Some("warm"));

        let stats = handle_line(&mut s, "{\"op\":\"stats\"}");
        assert_eq!(stats.get("engine_passes").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("warm_hits").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn reject_carries_witness() {
        let mut s = Service::new();
        ingest(&mut s, "far", "k5_chain(5)");
        let r = handle_line(
            &mut s,
            &Value::obj()
                .field("op", "query")
                .field("graph", "far")
                .field("epsilon", 0.05)
                .field("phases", 5u64)
                .to_string(),
        );
        assert_eq!(r.get("verdict").unwrap().as_str(), Some("reject"));
        assert!(!r
            .get("rejecting_nodes")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
        assert!(r.get("reject_reasons").is_some());
    }

    #[test]
    fn batch_coalesces() {
        let mut s = Service::new();
        ingest(&mut s, "p", "tri_grid(5,5)");
        let queries: Vec<Value> = (0..3u64)
            .map(|seed| {
                Value::obj()
                    .field("graph", "p")
                    .field("epsilon", 0.2)
                    .field("phases", 5u64)
                    .field("seed", seed)
            })
            .collect();
        let r = handle_request(
            &mut s,
            &Value::obj().field("op", "batch").field("queries", queries),
        );
        let responses = r.get("responses").unwrap().as_arr().unwrap();
        assert_eq!(responses.len(), 3);
        for resp in responses {
            assert_eq!(resp.get("coalesced").unwrap().as_u64(), Some(3));
        }
        assert_eq!(s.engine_passes(), 1);
    }

    #[test]
    fn backend_field_is_validated_then_ignored() {
        let mut s = Service::new();
        ingest(&mut s, "p", "tri_grid(5,5)");
        let query = |backend: Option<&str>| {
            let q = Value::obj()
                .field("graph", "p")
                .field("epsilon", 0.2)
                .field("phases", 5u64)
                .field("seed", 3u64);
            match backend {
                Some(b) => q.field("backend", b),
                None => q,
            }
        };
        let queries: Vec<Value> = [Some("serial"), Some("parallel:4"), Some("auto"), None]
            .into_iter()
            .map(query)
            .collect();
        let r = handle_request(
            &mut s,
            &Value::obj().field("op", "batch").field("queries", queries),
        );
        let responses = r.get("responses").unwrap().as_arr().unwrap();
        assert_eq!(responses.len(), 4);
        let outcome = |resp: &Value| -> Vec<String> {
            [
                "ok",
                "verdict",
                "graph",
                "seed",
                "cache",
                "rounds",
                "messages",
                "words",
                "coalesced",
            ]
            .iter()
            .map(|k| resp.get(k).expect(k).to_string())
            .collect()
        };
        for resp in responses {
            assert_eq!(outcome(resp), outcome(&responses[0]));
        }
        assert_eq!(s.engine_passes(), 1);

        let warp = handle_line(
            &mut s,
            &query(Some("warp")).field("op", "query").to_string(),
        );
        assert_eq!(warp.get("ok").unwrap().as_bool(), Some(false));
        assert!(warp.get("error").unwrap().to_string().contains("backend"));
        assert_eq!(s.engine_passes(), 1);
    }

    #[test]
    fn families_listed() {
        let mut s = Service::new();
        let r = handle_line(&mut s, "{\"op\":\"families\"}");
        assert_eq!(
            r.get("families").unwrap().as_arr().unwrap().len(),
            spec::families().len()
        );
    }

    #[test]
    fn to_disk_ingest_registers_mapped_and_reports_tier() {
        let dir = std::env::temp_dir().join(format!("pt_proto_disk_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = Service::new();
        s.set_state_dir(&dir).unwrap();
        let r = handle_request(
            &mut s,
            &Value::obj()
                .field("op", "ingest")
                .field("name", "big")
                .field("spec", "grid(40,40)")
                .field("to_disk", true),
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r}");
        assert_eq!(r.get("tier").unwrap().as_str(), Some("mapped"));
        let stats = handle_line(&mut s, "{\"op\":\"stats\"}");
        assert_eq!(stats.get("mapped_graphs").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("resident_graphs").unwrap().as_u64(), Some(0));
        // Mapped graphs serve queries through the same engine path.
        let q = handle_line(
            &mut s,
            &Value::obj()
                .field("op", "query")
                .field("graph", "big")
                .field("epsilon", 0.2)
                .field("phases", 5u64)
                .to_string(),
        );
        assert_eq!(q.get("verdict").unwrap().as_str(), Some("accept"));
        // Without a state dir the flag is a typed error response.
        let bare = handle_request(
            &mut Service::new(),
            &Value::obj()
                .field("op", "ingest")
                .field("name", "x")
                .field("spec", "grid(3,3)")
                .field("to_disk", true),
        );
        assert_eq!(bare.get("ok").unwrap().as_bool(), Some(false));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn errors_are_responses_not_panics() {
        let mut s = Service::new();
        for bad in [
            "not json",
            "{}",
            "{\"op\":\"warp\"}",
            "{\"op\":\"ingest\",\"name\":\"x\"}",
            "{\"op\":\"ingest\",\"name\":\"x\",\"spec\":\"nope(1)\"}",
            "{\"op\":\"query\"}",
            "{\"op\":\"query\",\"graph\":\"missing\"}",
            "{\"op\":\"query\",\"graph\":\"g\",\"epsilon\":7}",
            "{\"op\":\"query\",\"graph\":\"g\",\"backend\":\"warp\"}",
            "{\"op\":\"query\",\"graph\":\"g\",\"property\":\"girth\"}",
            "{\"op\":\"query\",\"graph\":\"g\",\"embedding\":\"best\"}",
            "{\"op\":\"query\",\"graph\":\"g\",\"fingerprint\":\"00\"}",
            "{\"op\":\"batch\"}",
            "{\"op\":\"batch\",\"queries\":[{}]}",
        ] {
            let r = handle_line(&mut s, bad);
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(false), "{bad}");
            assert!(r.get("error").is_some(), "{bad}");
        }
    }
}
