//! The traced run's direct calls into each layer's public functions,
//! each timed from outside the program as a span.
//!
//! Spans live in memory ([`Tracer`]) and are written out when the run
//! ends. Nothing here is instrumented inside the program: an engine
//! pass is replayed layer by layer (Stage I, Stage II, the embedding of
//! each part, the BFS) next to one whole-tester call, so the layer
//! times can be checked against the total they should add up to.

use std::fmt::Write as _;
use std::time::Instant;

use planartest_core::partition::run_partition;
use planartest_core::stage2::run_stage2_many;
use planartest_core::{PlanarityTester, TesterConfig};
use planartest_embed::demoucron::check_planarity;
use planartest_graph::generators::spec;
use planartest_graph::NodeId;
use planartest_service::protocol::{parse_batch, parse_query, response_value};
use planartest_service::registry::GraphRegistry;
use planartest_service::wire::Value;
use planartest_service::{CacheStatus, Outcome, Property, QueryResponse, StageTimes};
use planartest_sim::bfs::distributed_bfs;
use planartest_sim::{Backend, ParallelEngine, SimConfig};

use crate::report::Metrics;
use crate::workload::Entry;

/// One timed call.
pub struct Span {
    pub name: &'static str,
    /// µs after the tracer's origin.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request the call served (0 for set-up work).
    pub req: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span log.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span; `f` gets the span's index so it can open
    /// child spans.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce(&mut Tracer, usize) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            req,
        });
        let out = f(self, id);
        self.spans[id].end_us = self.now_us();
        out
    }

    /// A leaf span; returns the result and the span's duration in µs.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let out = self.span(name, parent, req, |_, _| f());
        let dur = self.spans.last().map_or(0.0, Span::dur_us);
        (out, dur)
    }

    /// Records a span timed elsewhere (a client request).
    pub fn record(&mut self, name: &'static str, req: u64, start_us: f64, end_us: f64) {
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent: None,
            req,
        });
    }

    /// One JSON object per span.
    pub fn ldjson(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_us, s.end_us, s.req
            );
        }
        out
    }
}

/// One served engine request the traced run replays directly.
pub struct Case {
    /// Request index within its phase (the span's request id).
    pub req: u64,
    pub line: String,
    pub graph: usize,
    pub eps: f64,
    pub phases: u64,
    pub seeds: Vec<u64>,
    /// `(rounds, messages)` per seed as the server answered, where the
    /// answer was computed for that seed (not replayed from a
    /// certificate).
    pub served_cost: Vec<Option<(u64, u64)>>,
    /// Client-side latency from send to response, µs.
    pub client_us: f64,
    /// The server's `[queue, resolve, execute, respond, total]` µs for
    /// the first query.
    pub stages: [u64; 5],
    /// The server paid an engine pass for it.
    pub served_cold: bool,
}

/// Parses one request line the way the server's protocol layer does;
/// returns how many queries it carries.
fn parse_line(line: &str) -> Result<usize, String> {
    let v = Value::parse(line.trim()).map_err(|e| e.to_string())?;
    match v.get("op").and_then(Value::as_str) {
        Some("query") => parse_query(&v).map(|_| 1),
        Some("batch") => parse_batch(&v).map(|qs| qs.len()),
        _ => Ok(0),
    }
}

#[derive(Default)]
struct Sums {
    tester_us: f64,
    stage1_us: f64,
    stage2_us: f64,
    embed_us: f64,
    bfs_us: f64,
    render_us: f64,
    rendered: f64,
    stage1_rounds: f64,
    stage1_messages: f64,
    stage2_rounds: f64,
    stage2_messages: f64,
    stage2_cases: f64,
    parts: f64,
    max_part_m: f64,
    bfs_rounds: f64,
    threads: f64,
    covered_us: f64,
    client_us: f64,
}

/// Replays the set-up layers over the corpus, the wire layer over
/// `lines`, and the engine layers over `cases`. Returns the per-layer
/// metrics and how many replayed outcomes disagreed with the server's
/// rounds or messages.
pub fn replay(
    tr: &mut Tracer,
    corpus: &[Entry],
    cases: &[Case],
    lines: &[&str],
) -> Result<(Metrics, u64), String> {
    let mut m = Metrics::default();

    // graph + registry: what ingesting the corpus costs.
    let (mut build_us, mut fp_us, mut ingest_us) = (0.0, 0.0, 0.0);
    tr.span("replay.setup", None, 0, |tr, root| -> Result<(), String> {
        for e in corpus {
            let (built, d) = tr.time("graph.build", Some(root), 0, || spec::parse(&e.spec));
            let built = built.map_err(|err| err.to_string())?;
            build_us += d;
            fp_us += tr
                .time("graph.fingerprint", Some(root), 0, || {
                    built.graph.fingerprint()
                })
                .1;
            let mut registry = GraphRegistry::new();
            let (r, d) = tr.time("registry.ingest", Some(root), 0, || {
                registry.ingest_spec(&e.name, &e.spec).map(|_| ())
            });
            r.map_err(|err| err.to_string())?;
            ingest_us += d;
        }
        Ok(())
    })?;
    m.put("graph.build_ms", build_us / 1e3, "ms");
    m.put("graph.fingerprint_ms", fp_us / 1e3, "ms");
    m.put("registry.ingest_us", ingest_us / corpus.len() as f64, "us");

    // wire / protocol: parse every request line the run sent.
    let mut parse_us = 0.0;
    tr.span("replay.wire", None, 0, |tr, root| -> Result<(), String> {
        for (i, line) in lines.iter().enumerate() {
            let (r, d) = tr.time("wire.parse", Some(root), i as u64, || parse_line(line));
            r?;
            parse_us += d;
        }
        Ok(())
    })?;
    m.put("wire.parse_us", parse_us / lines.len().max(1) as f64, "us");

    let mut s = Sums::default();
    let mut mismatches = 0u64;
    for c in cases {
        let g = &corpus[c.graph].graph;
        let cfg = TesterConfig::new(c.eps)
            .with_phases(c.phases as usize)
            .with_seed(c.seeds[0]);
        tr.span(
            "replay.request",
            None,
            c.req,
            |tr, root| -> Result<(), String> {
                let (r, parse_d) = tr.time("wire.parse", Some(root), c.req, || parse_line(&c.line));
                r?;
                // core.tester: the whole pass, built the way the service
                // builds it for the default `Auto` backend.
                let (outs, tester_d) = tr.time("core.tester", Some(root), c.req, || {
                    PlanarityTester::new(cfg.clone())
                        .with_backend(Backend::Auto)
                        .run_many(g, &c.seeds)
                });
                let outs = outs.map_err(|e| e.to_string())?;
                for (o, served) in outs.iter().zip(&c.served_cost) {
                    if let Some((rounds, messages)) = *served {
                        mismatches += u64::from(
                            o.stats.total_rounds() != rounds || o.stats.messages != messages,
                        );
                    }
                }
                s.tester_us += tester_d;

                // core.partition, then core.stage2 on the same engine.
                let mut engine = ParallelEngine::new(g, SimConfig::default());
                let (part, s1_d) = tr.time("core.partition", Some(root), c.req, || {
                    run_partition(&mut engine, &cfg)
                });
                let part = part.map_err(|e| e.to_string())?;
                let s1 = *engine.stats();
                s.stage1_us += s1_d;
                s.stage1_rounds += s1.total_rounds() as f64;
                s.stage1_messages += s1.messages as f64;
                let mut s2_d = 0.0;
                if part.rejected.is_empty() {
                    let (batch, d) = tr.time("core.stage2", Some(root), c.req, || {
                        run_stage2_many(&mut engine, &cfg, &c.seeds, &part.state)
                    });
                    let batch = batch.map_err(|e| e.to_string())?;
                    s2_d = d;
                    s.stage2_us += d;
                    s.stage2_rounds += batch.stats[0].total_rounds() as f64;
                    s.stage2_messages += batch.stats[0].messages as f64;
                    s.stage2_cases += 1.0;

                    // embed: the Demoucron substitution on every part.
                    let root_of = part.state.root.clone();
                    let roots: Vec<NodeId> =
                        g.nodes().filter(|&v| root_of[v.index()] == v).collect();
                    tr.span("embed", Some(root), c.req, |tr, e| {
                        for &r in &roots {
                            let (sub, _) = g.induced_subgraph(|v| root_of[v.index()] == r);
                            s.max_part_m = s.max_part_m.max(sub.m() as f64);
                            s.embed_us += tr
                                .time("embed.check_planarity", Some(e), c.req, || {
                                    check_planarity(&sub)
                                })
                                .1;
                        }
                    });
                    s.parts += roots.len() as f64;

                    // sim: the Stage-II BFS from the Stage-I roots.
                    let mut bfs_engine = ParallelEngine::new(g, SimConfig::default());
                    let allow = root_of.clone();
                    let (bfs, d) = tr.time("sim.bfs", Some(root), c.req, || {
                        distributed_bfs(
                            &mut bfs_engine,
                            &roots,
                            move |v, r| allow[v.index()] == r,
                            cfg.max_rounds,
                        )
                    });
                    bfs.map_err(|e| e.to_string())?;
                    s.bfs_us += d;
                    s.bfs_rounds += bfs_engine.stats().rounds as f64;
                    s.threads = s
                        .threads
                        .max(Backend::Auto.threads_for(g.n(), cfg.max_rounds) as f64);
                }

                // wire.render: the response lines the server would write.
                let fingerprint = g.fingerprint();
                let responses: Vec<QueryResponse> = c
                    .seeds
                    .iter()
                    .zip(outs)
                    .map(|(&seed, o)| QueryResponse {
                        id: 0,
                        graph: fingerprint,
                        property: Property::Planarity,
                        seed,
                        outcome: Outcome::Planarity(o),
                        cache: CacheStatus::Cold,
                        coalesced: c.seeds.len(),
                        engine_micros: 0,
                        attributed_micros: 0,
                        stages: StageTimes::default(),
                    })
                    .collect();
                let (_, render_d) = tr.time("wire.render", Some(root), c.req, || {
                    if responses.len() == 1 {
                        response_value(&responses[0]).to_string()
                    } else {
                        Value::obj()
                            .field("ok", true)
                            .field(
                                "responses",
                                responses.iter().map(response_value).collect::<Vec<_>>(),
                            )
                            .to_string()
                    }
                });
                s.render_us += render_d;
                s.rendered += responses.len() as f64;

                // Coverage: how much of the client-side latency the layer
                // spans account for, on requests that paid an engine pass.
                if c.served_cold {
                    let [queue, resolve, _, respond, _] = c.stages;
                    s.covered_us +=
                        parse_d + render_d + (queue + resolve + respond) as f64 + s1_d + s2_d;
                    s.client_us += c.client_us;
                }
                Ok(())
            },
        )?;
    }

    // stage2.lane_ms: the marginal cost of one more seed, (T16 − T1)/15.
    let mut lane_ms = 0.0;
    if let Some(c) = cases.first() {
        let g = &corpus[c.graph].graph;
        let cfg = TesterConfig::new(c.eps).with_phases(c.phases as usize);
        let mut engine = ParallelEngine::new(g, SimConfig::default());
        let part = run_partition(&mut engine, &cfg).map_err(|e| e.to_string())?;
        if part.rejected.is_empty() {
            let seeds: Vec<u64> = (0..16).map(|j| c.seeds[0] ^ (0x5eed << 20) ^ j).collect();
            let lane = |tr: &mut Tracer, root, k: usize| -> Result<f64, String> {
                let mut engine = ParallelEngine::new(g, SimConfig::default());
                let (r, d) = tr.time("core.stage2", Some(root), c.req, || {
                    run_stage2_many(&mut engine, &cfg, &seeds[..k], &part.state)
                });
                r.map_err(|e| e.to_string())?;
                Ok(d)
            };
            lane_ms = tr.span(
                "replay.lanes",
                None,
                c.req,
                |tr, root| -> Result<f64, String> {
                    let t1 = lane(tr, root, 1)?;
                    let t16 = lane(tr, root, 16)?;
                    Ok((t16 - t1) / 15.0 / 1e3)
                },
            )?;
        }
    }

    let n = cases.len().max(1) as f64;
    let s2n = s.stage2_cases.max(1.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.put("wire.render_us", ratio(s.render_us, s.rendered), "us");
    m.put("tester.busy_ms", s.tester_us / n / 1e3, "ms");
    m.put("stage1.busy_ms", s.stage1_us / n / 1e3, "ms");
    m.put("stage1.rounds", s.stage1_rounds / n, "count");
    m.put("stage1.messages", s.stage1_messages / n, "count");
    m.put("stage2.busy_ms", s.stage2_us / s2n / 1e3, "ms");
    m.put("stage2.lane_ms", lane_ms, "ms");
    m.put("stage2.rounds", s.stage2_rounds / s2n, "count");
    m.put("stage2.messages", s.stage2_messages / s2n, "count");
    m.put("embed.busy_ms", s.embed_us / s2n / 1e3, "ms");
    m.put("embed.parts", s.parts / s2n, "count");
    m.put("embed.max_part_m", s.max_part_m, "count");
    m.put("embed.share", ratio(s.embed_us, s.tester_us), "fraction");
    m.put("sim.bfs_ms", s.bfs_us / s2n / 1e3, "ms");
    m.put(
        "sim.rounds_per_s",
        ratio(s.bfs_rounds, s.bfs_us / 1e6),
        "1/s",
    );
    m.put("sim.threads", s.threads, "count");
    m.put(
        "coverage.tester_share",
        ratio(s.stage1_us + s.stage2_us, s.tester_us),
        "fraction",
    );
    m.put(
        "coverage.client_share",
        ratio(s.covered_us, s.client_us),
        "fraction",
    );
    Ok((m, mismatches))
}
