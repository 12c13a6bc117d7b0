//! Benchmark of the planarity-testing service, end to end and layer by
//! layer.
//!
//! ```text
//! perfbench --workload <cold_query|monte_carlo|serve_mix> --seed N
//!           --seconds S --trace <0|1> [--size full|tiny]
//! ```
//!
//! Each run builds its workload's graph corpus from the seed, starts the
//! service's `Server` in a child process, ingests the corpus over a unix
//! socket, then drives that server with the workload's request stream
//! for `--seconds` and checks every response. It sets up six to sixteen
//! times, half before the load and half after it; `setup_s` is the
//! median. A closed loop runs pinned to one CPU with its server and
//! scales its timings by a host-speed reference timed between requests
//! (see `reference`). The last stdout line is one JSON object:
//! `{"correct","attempted","failed","metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer ones (`--trace 1`). Each run
//! also writes a stamped result file (and, traced, its spans) under
//! `.bench_out/`. See `README.md` for the metric definitions.

mod client;
mod layers;
mod reference;
mod report;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use planartest_service::wire::Value;

use crate::client::{closed_loop, open_loop, Conn, Phase, ServerProc};
use crate::layers::{Case, Tracer};
use crate::reference::Reference;
use crate::report::{judge, mean, median, percentile, Judged, Metrics};
use crate::workload::{Entry, Prop, Workload};

const USAGE: &str = "usage: perfbench --workload <cold_query|monte_carlo|serve_mix> --seed N \
                     --seconds S --trace <0|1> [--size full|tiny]";

/// Where result files, spans and sockets go (inside the checkout).
const OUT_DIR: &str = ".bench_out";
/// Set-ups per run; `setup_s` is their median. Half of them run before
/// the load and half after it (see [`run`]): at least `SETUPS_MIN` in
/// all, and more (up to `SETUPS_MAX`) while the first half has taken
/// under half of `SETUPS_BUDGET_S`, so a quick set-up is timed often
/// enough for its median to hold still.
const SETUPS_MIN: usize = 6;
const SETUPS_MAX: usize = 16;
const SETUPS_BUDGET_S: f64 = 1.0;
/// `serve_mix` offered rates (requests/s) of the fixed-rate phases.
const SERVE_LO_QPS: f64 = 120.0;
const SERVE_HI_QPS: f64 = 180.0;
/// Read requests per second of run length in the back-to-back burst
/// that measures saturation throughput.
const SERVE_BURST_PER_S: f64 = 2000.0;
/// Bursts those reads are split into; the capacity is the median one's.
const BURSTS: usize = 5;
/// Unanswered requests the burst keeps per connection, well under the
/// server's default in-flight cap (1024).
const BURST_WINDOW: u64 = 256;
/// The p99 limit the capacity search holds, µs.
const SERVE_P99_LIMIT_US: f64 = 250_000.0;
/// Leading base-phase requests whose rounds and messages are compared
/// across repeats of a closed-loop run.
const CLOSED_PREFIX: usize = 12;

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut tiny = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".to_string()),
                    });
                }
                "--size" => {
                    tiny = match value.as_str() {
                        "full" => false,
                        "tiny" => true,
                        _ => return Err("--size must be full or tiny".to_string()),
                    };
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            tiny,
        })
    }

    fn tag(&self) -> String {
        format!(
            "{}-{}-seed{}",
            self.workload.name(),
            if self.tiny { "tiny" } else { "full" },
            self.seed
        )
    }
}

fn main() -> ExitCode {
    // One-thread engines, as in the server child (see
    // `ServerProc::start`), so the traced run's layer calls build their
    // engines the way the server does. Set before any thread starts.
    std::env::set_var("PLANARTEST_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return client::serve_main(&args[1..]);
    }
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(out) => {
            println!("{}", out.line);
            if out.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: run is not correct: {}", out.problems.join("; "));
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

struct RunOutput {
    line: String,
    problems: Vec<String>,
}

/// A started server with the corpus ingested (and, for `serve_mix`,
/// the warm pool primed).
struct Setup {
    server: ServerProc,
    corpus: Vec<Entry>,
    secs: f64,
}

fn setup(opts: &Options, k: usize) -> Result<Setup, String> {
    let started = Instant::now();
    let corpus = workload::corpus(opts.workload, opts.tiny)?;
    let socket = PathBuf::from(OUT_DIR).join(format!("s{}.{k}", std::process::id()));
    let server = ServerProc::start(socket)?;
    // The server's listener polls for new connections, so connecting
    // waits up to one poll interval at random; that wait is transport
    // behaviour, not set-up work, and is left out.
    let connecting = Instant::now();
    let mut conn = Conn::connect(&server.socket)?;
    conn.call("{\"op\":\"stats\"}\n")?;
    let connect_wait = connecting.elapsed();
    for e in &corpus {
        let line = format!(
            "{{\"op\":\"ingest\",\"name\":\"{}\",\"spec\":\"{}\"}}\n",
            e.name, e.spec
        );
        let v = conn.call(&line)?;
        if v.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("ingest {} failed: {v}", e.spec));
        }
    }
    if opts.workload == Workload::ServeMix {
        for req in workload::prime_requests(&corpus) {
            conn.send(&req.line)?;
            let sample = client::Sample {
                resp: conn.recv(),
                req,
                due: 0,
                sent: 0,
                recv: 0,
            };
            let j = judge(&sample, &corpus);
            if !j.answered || j.wrong > 0 {
                return Err(format!("warm-pool priming failed: {:?}", sample.resp));
            }
        }
    }
    Ok(Setup {
        server,
        corpus,
        secs: (started.elapsed() - connect_wait).as_secs_f64(),
    })
}

/// Service counters read over the wire (`stats` + `metrics` ops).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    engine_passes: u64,
    engine_queries: u64,
    queue_depth_hwm: u64,
    responses_shed: u64,
    writer_stalls: u64,
}

impl Counters {
    fn read(conn: &mut Conn) -> Result<Counters, String> {
        let stats = conn.call("{\"op\":\"stats\"}\n")?;
        let metrics = conn.call("{\"op\":\"metrics\"}\n")?;
        let n = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        Ok(Counters {
            hits: n(&stats, "warm_hits") + n(&stats, "certificate_hits"),
            misses: n(&stats, "misses"),
            evictions: n(&stats, "evictions"),
            engine_passes: n(&stats, "engine_passes"),
            engine_queries: metrics.get("engine").map_or(0, |e| n(e, "queries")),
            queue_depth_hwm: n(&stats, "queue_depth_hwm"),
            responses_shed: n(&stats, "responses_shed"),
            writer_stalls: n(&stats, "writer_stalls"),
        })
    }
}

/// The measured phases of one run.
struct Measured {
    /// Base load: the one-connection closed loop, or the `lo` rate.
    base: Phase,
    /// Heavier load: the `hi` rate (open loop only; empty for closed
    /// loops).
    loaded: Phase,
    /// Quantile the tail metrics report (p90 closed, p99 open).
    tail_q: f64,
    /// Reads answered per second in the median back-to-back burst
    /// (open loop only).
    capacity_qps: Option<f64>,
    /// The capacity search's highest probed rate that met the p99 limit
    /// (open loop only; 0 if none did).
    max_qps_at_slo: Option<f64>,
    /// Offered rate of the loaded phase (open loop only).
    loaded_offered_qps: Option<f64>,
    /// The capacity search (open loop only): its probes, whether the
    /// bracket closed to ±10%, and a pooled estimate of the crossing.
    search: Value,
    /// Phases checked for correctness but not timed into the metrics.
    extra: Vec<Phase>,
    /// Counters after the loaded phase.
    after: Counters,
    /// The server's peak resident set after the base phase, MiB.
    peak_rss_mb: f64,
    /// Server CPU seconds used in the base and loaded phases.
    cpu_s: (f64, f64),
    /// Reference times, ms, one after each base-phase request (closed
    /// loop only; an open loop has no gaps to time it in).
    refs_ms: Vec<f64>,
}

fn measure_closed(
    opts: &Options,
    server: &ServerProc,
    corpus: &[Entry],
    control: &mut Conn,
) -> Result<Measured, String> {
    let base_seed = workload::fresh_seed_base(opts.seed);
    let make = |i: u64| match opts.workload {
        Workload::MonteCarlo => workload::mc_request(corpus, base_seed, i),
        _ => workload::cold_request(corpus, base_seed, i),
    };
    let mut reference = Reference::new();
    let mut refs_ms = Vec::new();
    let cpu0 = server.cpu_s()?;
    let base = closed_loop(
        &server.socket,
        Duration::from_secs_f64(opts.seconds),
        &make,
        &mut || refs_ms.push(reference.time()),
    )?;
    let cpu1 = server.cpu_s()?;
    Ok(Measured {
        base,
        loaded: Phase::default(),
        tail_q: 0.9,
        capacity_qps: None,
        max_qps_at_slo: None,
        loaded_offered_qps: None,
        search: Value::Null,
        extra: Vec::new(),
        after: Counters::read(control)?,
        peak_rss_mb: server.peak_rss_mb()?,
        cpu_s: (cpu1 - cpu0, 0.0),
        refs_ms,
    })
}

/// One capacity-search probe's verdict.
struct Probe {
    rate: f64,
    p99_us: f64,
    pass: bool,
}

/// Where p99 crosses the limit, pooled over every probe (kept in the
/// result file beside the reported bracket). Each probe alone predicts
/// a crossing along the line of slope `b` through its (ln rate, ln p99)
/// point; the estimate is the median of those predictions, with `b` the
/// median slope between probe pairs (Theil–Sen), so one probe hit by a
/// stall moves neither. Kept within half the lowest and twice the
/// highest rate probed.
fn capacity_estimate(probes: &[Probe]) -> f64 {
    let pts: Vec<(f64, f64)> = probes
        .iter()
        .map(|p| (p.rate.ln(), p.p99_us.max(1.0).ln()))
        .collect();
    let mut slopes = Vec::new();
    for (i, a) in pts.iter().enumerate() {
        for b in &pts[i + 1..] {
            if (b.0 - a.0).abs() > 1e-3 {
                slopes.push((b.1 - a.1) / (b.0 - a.0));
            }
        }
    }
    if slopes.is_empty() {
        return probes.first().map_or(0.0, |p| p.rate);
    }
    let slope = median(&slopes).clamp(0.5, 4.0);
    let limit = SERVE_P99_LIMIT_US.ln();
    let crossings: Vec<f64> = pts.iter().map(|p| p.0 + (limit - p.1) / slope).collect();
    let lowest = probes.iter().map(|p| p.rate).fold(f64::INFINITY, f64::min);
    let highest = probes.iter().map(|p| p.rate).fold(0.0, f64::max);
    median(&crossings).exp().clamp(lowest / 2.0, highest * 2.0)
}

/// Responses per second between a burst's 10th- and 90th-percentile
/// response: the server's pace while the window is full, leaving out
/// the ramp before it fills and the last stragglers.
fn draining_rate(phase: &Phase) -> f64 {
    let mut recv: Vec<u64> = phase.samples.iter().map(|s| s.recv).collect();
    recv.sort_unstable();
    let (a, b) = (recv.len() / 10, recv.len() * 9 / 10);
    if b <= a {
        return 0.0;
    }
    (b - a) as f64 / ((recv[b] - recv[a]) as f64 / 1e6).max(1e-9)
}

fn measure_serve(
    opts: &Options,
    server: &ServerProc,
    corpus: &[Entry],
    control: &mut Conn,
) -> Result<Measured, String> {
    let socket = &server.socket;
    let conns = report::nproc();
    let window = |f: f64| (opts.seconds * f * 1e6) as u64;
    let cpu0 = server.cpu_s()?;
    let lo_reqs = workload::serve_schedule(corpus, opts.seed, 1, SERVE_LO_QPS, window(0.45));
    let base = open_loop(socket, conns, &lo_reqs, None)?;
    let peak_rss_mb = server.peak_rss_mb()?;
    let hi_reqs = workload::serve_schedule(corpus, opts.seed, 2, SERVE_HI_QPS, window(0.4));
    let cpu1 = server.cpu_s()?;
    let loaded = open_loop(socket, conns, &hi_reqs, None)?;
    let cpu2 = server.cpu_s()?;
    let after = Counters::read(control)?;

    // The highest offered rate whose p99 meets the limit without a
    // growing backlog. The rate doubles from 4 × `hi` until a probe
    // fails, then the bracket between the highest pass and the lowest
    // failure is bisected until it is within ±10%.
    let budget = opts.seconds * 0.1;
    let horizon = ((budget / 5.0) * 1e6) as u64;
    let started = Instant::now();
    let mut rows = Vec::new();
    let mut extra = Vec::new();
    let mut probes: Vec<Probe> = Vec::new();
    let mut rate = 4.0 * SERVE_HI_QPS;
    let mut bracketed = false;
    let mut best_pass = None;
    for tag in 100.. {
        let reqs = workload::serve_schedule(corpus, opts.seed, tag, rate, horizon);
        let offered = reqs.len() as f64 / (horizon as f64 / 1e6);
        let hwm_before = Counters::read(control)?.queue_depth_hwm;
        let phase = open_loop(socket, conns, &reqs, None)?;
        let hwm_after = Counters::read(control)?.queue_depth_hwm;
        let lat: Vec<f64> = phase
            .samples
            .iter()
            .map(|s| s.latency_us() as f64)
            .collect();
        let p99_us = percentile(&lat, 0.99);
        let achieved = phase.samples.len() as f64 / phase.wall_s.max(1e-9);
        // A growing backlog: finishing the schedule took longer than
        // the schedule plus the latency limit, or the submission queue
        // grew past one request per connection per millisecond of the
        // limit.
        let horizon_s = horizon as f64 / 1e6;
        let backlog = achieved < offered * horizon_s / (horizon_s + SERVE_P99_LIMIT_US / 1e6)
            || hwm_after > hwm_before.max((SERVE_P99_LIMIT_US / 1e3) as u64 * conns as u64);
        let pass = p99_us <= SERVE_P99_LIMIT_US && !backlog;
        rows.push(
            Value::obj()
                .field("offered_qps", offered)
                .field("achieved_qps", achieved)
                .field("p99_us", p99_us)
                .field("queue_depth_hwm", hwm_after)
                .field("pass", pass),
        );
        extra.push(phase);
        probes.push(Probe { rate, p99_us, pass });
        best_pass = probes
            .iter()
            .filter(|p| p.pass)
            .map(|p| p.rate)
            .reduce(f64::max);
        let least_fail = probes
            .iter()
            .filter(|p| !p.pass)
            .map(|p| p.rate)
            .reduce(f64::min);
        rate = match (best_pass, least_fail) {
            (_, None) => rate * 2.0,
            (None, Some(f)) => f / 2.0,
            (Some(p), Some(f)) if f / p > 1.2 => (p * f).sqrt(),
            _ => {
                bracketed = true;
                break;
            }
        };
        if started.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    let search = Value::obj()
        .field("probes", rows)
        .field("bracketed", bracketed)
        .field("pooled_estimate_qps", capacity_estimate(&probes));

    // Saturation throughput of the read path: the mix's requests that
    // never wait on the engine or the registry, all due at once (the
    // schedule's rate is far above any server's) and sent as fast as
    // the in-flight window allows, answered per second. Engine passes
    // would make the drain time hinge on how their arrivals happen to
    // coalesce. The reads go out in `BURSTS` bursts one after another,
    // and the capacity is the median burst's rate, so one burst that a
    // neighbour on the host slowed does not move it.
    let count = (opts.seconds * SERVE_BURST_PER_S / BURSTS as f64).ceil() as u64;
    let mut rates = Vec::with_capacity(BURSTS);
    for b in 0..BURSTS as u64 {
        let mut burst = workload::serve_schedule(corpus, opts.seed, 90 + b, 1e6, count);
        burst.retain(|r| !r.slow_lane());
        let phase = open_loop(socket, conns, &burst, Some(BURST_WINDOW))?;
        rates.push(draining_rate(&phase));
        extra.push(phase);
    }
    let capacity_qps = median(&rates);
    Ok(Measured {
        loaded_offered_qps: Some(hi_reqs.len() as f64 / (window(0.4) as f64 / 1e6)),
        base,
        loaded,
        tail_q: 0.99,
        capacity_qps: Some(capacity_qps),
        max_qps_at_slo: Some(best_pass.unwrap_or(0.0)),
        search,
        extra,
        after,
        peak_rss_mb,
        cpu_s: (cpu1 - cpu0, cpu2 - cpu1),
        refs_ms: Vec::new(),
    })
}

fn run(opts: &Options) -> Result<RunOutput, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let digest = report::source_digest(&[Path::new("crates"), Path::new("perfbench/src")]);
    let stamp = report::stamp(&digest);
    let jiffies_before = report::cpu_jiffies();
    // Before any thread or server starts, so all of them share the CPU
    // the reference is timed on. The open loop is left unpinned: it
    // sends and reads on `nproc` connections at once.
    let pinned_cpu = match opts.workload {
        Workload::ServeMix => None,
        _ => reference::pin_to_one_cpu(),
    };
    // Set-ups are timed in two halves, one before the load (the last of
    // them serves it) and one after, so a spell of contention on the
    // host at either end of the run moves at most half of them.
    let mut setup_secs: Vec<f64> = Vec::with_capacity(SETUPS_MAX);
    let mut kept: Option<Setup> = None;
    while setup_secs.len() < SETUPS_MIN / 2
        || (setup_secs.len() < SETUPS_MAX / 2
            && setup_secs.iter().sum::<f64>() < SETUPS_BUDGET_S / 2.0)
    {
        if let Some(prev) = kept.take() {
            prev.server.stop()?;
        }
        let s = setup(opts, setup_secs.len())?;
        setup_secs.push(s.secs);
        kept = Some(s);
    }
    let Setup { server, corpus, .. } = kept.expect("at least one set-up");
    let mut control = Conn::connect(&server.socket)?;
    let before = Counters::read(&mut control)?;
    let measured = match opts.workload {
        Workload::ServeMix => measure_serve(opts, &server, &corpus, &mut control)?,
        _ => measure_closed(opts, &server, &corpus, &mut control)?,
    };
    drop(control);
    server.stop()?;
    for k in setup_secs.len()..2 * setup_secs.len() {
        let s = setup(opts, k)?;
        setup_secs.push(s.secs);
        s.server.stop()?;
    }

    // Correctness over every phase.
    let mut problems = Vec::new();
    let timed = [&measured.base, &measured.loaded];
    let all_phases: Vec<&Phase> = timed.iter().copied().chain(measured.extra.iter()).collect();
    let judged: Vec<Vec<Judged>> = all_phases
        .iter()
        .map(|p| p.samples.iter().map(|s| judge(s, &corpus)).collect())
        .collect();
    let attempted: usize = all_phases.iter().map(|p| p.attempted).sum();
    let answered: usize = judged.iter().flatten().filter(|j| j.answered).count();
    let failed = attempted - answered;
    let wrong: u64 = judged.iter().flatten().map(|j| j.wrong).sum();
    let checked: u64 = judged.iter().flatten().map(|j| j.checked).sum();
    let extra_lines: u64 = all_phases.iter().map(|p| p.extra_responses).sum();
    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} requests failed or went unanswered"
        ));
    }
    if wrong > 0 {
        problems.push(format!("{wrong} verdicts contradict their certificate"));
    }
    if extra_lines > 0 {
        problems.push(format!(
            "{extra_lines} connections got unrequested responses"
        ));
    }

    // Rounds and messages over the deterministic request set: the
    // leading closed-loop requests, or every fixed-rate open-loop one.
    let deterministic: Vec<(u64, u64)> = match opts.workload {
        Workload::ServeMix => judged[0]
            .iter()
            .chain(&judged[1])
            .flat_map(|j| j.cost.iter().copied())
            .collect(),
        _ => judged[0]
            .iter()
            .take(CLOSED_PREFIX)
            .flat_map(|j| j.cost.iter().copied())
            .collect(),
    };
    if let Some(p) = check_repeat(opts, &digest, &deterministic)? {
        problems.push(p);
    }

    let lat_ms = |p: &Phase| -> Vec<f64> {
        p.samples
            .iter()
            .map(|s| s.latency_us() as f64 / 1e3)
            .collect()
    };
    // Timings scaled to the nominal host (see `reference`): latencies by
    // the reference times next to them; throughput, CPU time and the
    // set-ups by the run's median reference time. A set-up's own time
    // tracks the host's speed from run to run (two sets of ten
    // `cold_query` runs: medians 3.1 and 4.4 ms as measured, 3.62 and
    // 3.63 ms scaled) but not within one, so it takes the run's scale.
    // The open loop's timings stay as measured.
    let raw_lat = lat_ms(&measured.base);
    let base_lat = reference::scaled(&raw_lat, &measured.refs_ms);
    let run_scale = reference::scale(&measured.refs_ms);
    let verdicts = |i: usize| judged[i].iter().map(|j| j.verdicts).sum::<u64>() as f64;
    // Verdicts, busy seconds and server CPU seconds of the phases the
    // throughput metrics cover: the closed loop's requests (their
    // latencies summed, so the reference's turns between them do not
    // count), or both fixed-rate phases (open).
    let (timed_verdicts, timed_s, raw_timed_s, timed_cpu_s) = match opts.workload {
        Workload::ServeMix => {
            let wall = measured.base.wall_s + measured.loaded.wall_s;
            (
                verdicts(0) + verdicts(1),
                wall,
                wall,
                measured.cpu_s.0 + measured.cpu_s.1,
            )
        }
        _ => (
            verdicts(0),
            base_lat.iter().sum::<f64>() / 1e3,
            raw_lat.iter().sum::<f64>() / 1e3,
            measured.cpu_s.0,
        ),
    };
    let mut e2e = Metrics::default();
    e2e.put("setup_s", median(&setup_secs) * run_scale, "s");
    e2e.put("peak_rss_mb", measured.peak_rss_mb, "MiB");
    e2e.put(
        "answered_frac",
        answered as f64 / attempted.max(1) as f64,
        "fraction",
    );
    e2e.put(
        "verdict_agreement",
        if checked == 0 {
            1.0
        } else {
            1.0 - wrong as f64 / checked as f64
        },
        "fraction",
    );
    e2e.put(
        "rounds_per_query",
        mean(&deterministic.iter().map(|c| c.0 as f64).collect::<Vec<_>>()),
        "count",
    );
    e2e.put(
        "messages_per_query",
        mean(&deterministic.iter().map(|c| c.1 as f64).collect::<Vec<_>>()),
        "count",
    );
    e2e.put("verdicts_per_s", timed_verdicts / timed_s.max(1e-9), "1/s");
    e2e.put(
        "cpu_ms_per_verdict",
        timed_cpu_s * run_scale * 1e3 / timed_verdicts.max(1.0),
        "ms",
    );
    e2e.put("p50_ms", percentile(&base_lat, 0.5), "ms");
    e2e.put("tail_ms", percentile(&base_lat, measured.tail_q), "ms");

    let jiffies_after = report::cpu_jiffies();
    let steal_frac = (jiffies_after.0 - jiffies_before.0) as f64
        / (jiffies_after.1 - jiffies_before.1).max(1) as f64;
    let mut detail = Value::obj()
        .field("cpu_steal_frac", steal_frac)
        .field(
            "reference",
            Value::obj()
                .field("nominal_ms", reference::NOMINAL_MS)
                .field("pinned_cpu", pinned_cpu.map_or(Value::Null, |c| c.into()))
                .field("median_ms", median(&measured.refs_ms))
                .field("count", measured.refs_ms.len()),
        )
        .field(
            "unscaled",
            Value::obj()
                .field("setup_s", median(&setup_secs))
                .field("verdicts_per_s", timed_verdicts / raw_timed_s.max(1e-9))
                .field(
                    "cpu_ms_per_verdict",
                    timed_cpu_s * 1e3 / timed_verdicts.max(1.0),
                )
                .field("p50_ms", percentile(&raw_lat, 0.5))
                .field("tail_ms", percentile(&raw_lat, measured.tail_q)),
        )
        .field("server_cpu_s", measured.cpu_s.0 + measured.cpu_s.1)
        .field("failed_frac", failed as f64 / attempted.max(1) as f64)
        .field("wrong_verdicts", wrong)
        .field("verdicts_checked", checked)
        .field(
            "setup_seconds",
            setup_secs
                .iter()
                .map(|&s| Value::Float(s))
                .collect::<Vec<_>>(),
        )
        .field("base_requests", measured.base.samples.len())
        .field(
            "base_latency_ms_by_graph",
            graph_latencies(&measured.base, corpus.len()),
        );
    if let Some(capacity_qps) = measured.capacity_qps {
        detail = detail
            .field("loaded_requests", measured.loaded.samples.len())
            .field("loaded_p50_ms", percentile(&lat_ms(&measured.loaded), 0.5))
            .field(
                "loaded_tail_ms",
                percentile(&lat_ms(&measured.loaded), measured.tail_q),
            )
            .field("capacity_qps", capacity_qps)
            .field(
                "latency_ms_by_lane",
                Value::obj()
                    .field("base", lane_latencies(&measured.base))
                    .field("loaded", lane_latencies(&measured.loaded)),
            )
            .field("capacity_search", measured.search.clone());
    }
    let mut metrics = e2e;
    if opts.trace {
        let untraced = untraced_metrics(opts, &digest);
        let (layer, trace_detail) = traced(
            opts,
            &corpus,
            &measured,
            &judged,
            before,
            &metrics,
            untraced.as_ref(),
        )?;
        if layer.1 > 0 {
            problems.push(format!(
                "{} replayed outcomes disagree with the served rounds/messages",
                layer.1
            ));
        }
        detail = detail
            .field("end_to_end", metrics.value())
            .field("traced", trace_detail);
        metrics = layer.0;
    }
    if !metrics.all_finite() {
        problems.push("a metric is not a finite number".to_string());
    }

    let result = Value::obj()
        .field("stamp", stamp)
        .field("workload", opts.workload.name())
        .field("seed", opts.seed)
        .field("seconds", opts.seconds)
        .field("trace", opts.trace)
        .field("size", if opts.tiny { "tiny" } else { "full" })
        .field("correct", problems.is_empty())
        .field(
            "problems",
            problems
                .iter()
                .map(|p| Value::Str(p.clone()))
                .collect::<Vec<_>>(),
        )
        .field("metrics", metrics.value())
        .field("detail", detail);
    let path =
        Path::new(OUT_DIR).join(format!("{}-trace{}.json", opts.tag(), u8::from(opts.trace)));
    std::fs::write(&path, result.pretty()).map_err(|e| format!("write {path:?}: {e}"))?;
    for (name, value, unit) in &metrics.0 {
        eprintln!("{name:>28} {value:>14.4} {unit}");
    }
    let line = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        problems.is_empty(),
        metrics.json()
    );
    Ok(RunOutput { line, problems })
}

/// Latency quantiles (ms) of a phase's requests, split by
/// [`workload::Request::slow_lane`].
fn lane_latencies(phase: &Phase) -> Value {
    [("fast", false), ("slow", true)]
        .into_iter()
        .fold(Value::obj(), |acc, (name, slow)| {
            let lat: Vec<f64> = phase
                .samples
                .iter()
                .filter(|s| s.req.slow_lane() == slow)
                .map(|s| s.latency_us() as f64 / 1e3)
                .collect();
            acc.field(
                name,
                Value::obj()
                    .field("count", lat.len())
                    .field("p50", percentile(&lat, 0.5))
                    .field("p90", percentile(&lat, 0.9))
                    .field("p99", percentile(&lat, 0.99)),
            )
        })
}

/// Base-phase latencies (ms) of single-graph requests, one list per
/// corpus graph.
fn graph_latencies(phase: &Phase, graphs: usize) -> Vec<Value> {
    let mut by_graph = vec![Vec::new(); graphs];
    for s in &phase.samples {
        if let [first, rest @ ..] = s.req.members() {
            if rest.iter().all(|m| m.graph == first.graph) {
                by_graph[first.graph].push(Value::Float(s.latency_us() as f64 / 1e3));
            }
        }
    }
    by_graph.into_iter().map(Value::Arr).collect()
}

/// Compares this run's deterministic rounds/messages with an earlier
/// run of the same source under the same seed (kept in `.bench_out/`);
/// returns a problem if they differ anywhere both runs reached.
fn check_repeat(
    opts: &Options,
    digest: &str,
    costs: &[(u64, u64)],
) -> Result<Option<String>, String> {
    // The schedules depend on the run length as well as the seed, and
    // another version of the code may legitimately cost differently.
    let path = Path::new(OUT_DIR).join(format!(
        "repeat-{}-{}s-{digest}.txt",
        opts.tag(),
        opts.seconds
    ));
    let mine: Vec<String> = costs.iter().map(|(r, m)| format!("{r} {m}")).collect();
    if let Ok(text) = std::fs::read_to_string(&path) {
        let earlier: Vec<&str> = text.lines().collect();
        if let Some(i) = earlier.iter().zip(&mine).position(|(a, b)| a != b) {
            return Ok(Some(format!(
                "query {i}: rounds/messages `{}` differ from an earlier run's `{}` under seed {}",
                mine[i], earlier[i], opts.seed
            )));
        }
        if earlier.len() >= mine.len() {
            return Ok(None);
        }
    }
    std::fs::write(&path, mine.join("\n")).map_err(|e| format!("write {path:?}: {e}"))?;
    Ok(None)
}

/// The end-to-end metrics of the untraced run of the same workload,
/// size, seed, run length and source, if one left its result file.
fn untraced_metrics(opts: &Options, digest: &str) -> Option<Value> {
    let path = Path::new(OUT_DIR).join(format!("{}-trace0.json", opts.tag()));
    let doc = Value::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let same = doc.get("seconds").and_then(Value::as_f64) == Some(opts.seconds)
        && doc
            .get("stamp")
            .and_then(|s| s.get("source_digest"))
            .and_then(Value::as_str)
            == Some(digest);
    same.then(|| doc.get("metrics").cloned()).flatten()
}

/// How much slower the traced run's load was than the untraced run's,
/// in %: the median over the timing metrics of each one's relative
/// change, signed so that positive is worse. Every span is recorded
/// after the load has finished, so this measures run-to-run noise; it
/// is 0 when there is no untraced run to compare with.
fn trace_overhead(traced: &Metrics, untraced: Option<&Value>) -> (f64, Value) {
    let Some(untraced) = untraced else {
        return (0.0, Value::Null);
    };
    let mut changes = Vec::new();
    let mut detail = Value::obj();
    for (name, value, _) in &traced.0 {
        let higher_is_better = match name.as_str() {
            "p50_ms" | "tail_ms" | "cpu_ms_per_verdict" => false,
            "verdicts_per_s" => true,
            _ => continue,
        };
        let Some(before) = untraced
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .filter(|v| *v > 0.0 && *value > 0.0)
        else {
            continue;
        };
        let change = if higher_is_better {
            before / value - 1.0
        } else {
            value / before - 1.0
        } * 100.0;
        changes.push(change);
        detail = detail.field(name, change);
    }
    (median(&changes), detail)
}

/// The per-layer metrics of a traced run: what the served phases'
/// responses and counters say about the serving layers, plus the
/// direct replay of the engine, wire, registry and graph layers.
fn traced(
    opts: &Options,
    corpus: &[Entry],
    measured: &Measured,
    judged: &[Vec<Judged>],
    before: Counters,
    e2e: &Metrics,
    untraced: Option<&Value>,
) -> Result<((Metrics, u64), Value), String> {
    let origin = Instant::now();
    let mut tr = Tracer::new(origin);
    let timed = [&measured.base, &measured.loaded];

    // Client spans of the base phase, from the samples' send and
    // receive times (µs after the phase origin).
    for (i, s) in measured.base.samples.iter().enumerate() {
        tr.record("client.request", i as u64, s.sent as f64, s.recv as f64);
    }
    let (overhead_pct, overhead_detail) = trace_overhead(e2e, untraced);

    // Engine cases: the leading requests one engine pass answers.
    let cases: Vec<Case> = measured
        .base
        .samples
        .iter()
        .zip(&judged[0])
        .enumerate()
        .filter_map(|(i, (s, j))| {
            // Planarity queries with never-seen seeds on one graph and
            // config: what one engine pass serves.
            let members = s.req.members();
            let first = members.first()?;
            let one_pass = members.iter().all(|m| {
                m.prop == Prop::Planarity
                    && m.seed >= workload::WARM_SEEDS
                    && m.graph == first.graph
                    && m.eps == first.eps
            });
            (one_pass && j.answered).then(|| Case {
                req: i as u64,
                line: s.req.line.clone(),
                graph: first.graph,
                eps: first.eps,
                phases: first.phases,
                seeds: members.iter().map(|m| m.seed).collect(),
                served_cost: j
                    .cost
                    .iter()
                    .zip(&j.certificate)
                    .map(|(&cost, &cert)| (!cert).then_some(cost))
                    .collect(),
                client_us: s.recv.saturating_sub(s.sent) as f64,
                stages: j.stages[0],
                served_cold: j.cold,
            })
        })
        .take(match (opts.workload, opts.tiny) {
            (Workload::MonteCarlo, _) => 3,
            (_, true) => 3,
            _ => 6,
        })
        .collect();
    let lines: Vec<&str> = timed
        .iter()
        .flat_map(|p| p.samples.iter().map(|s| s.req.line.as_str()))
        .take(5_000)
        .collect();
    let (mut m, mismatches) = layers::replay(&mut tr, corpus, &cases, &lines)?;

    // Serving layers, from the measured phases' responses and counters.
    let after = measured.after;
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let passes = after.engine_passes - before.engine_passes;
    let queries = after.engine_queries - before.engine_queries;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.put(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "fraction",
    );
    m.put("cache.misses", misses as f64, "count");
    m.put(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    );
    let stage = |k: usize| -> Vec<f64> {
        judged[..2]
            .iter()
            .flatten()
            .flat_map(|j| j.stages.iter().map(move |s| s[k] as f64))
            .collect()
    };
    m.put("sched.queue_p50_us", percentile(&stage(0), 0.5), "us");
    m.put("sched.queue_p99_us", percentile(&stage(0), 0.99), "us");
    m.put("sched.resolve_p99_us", percentile(&stage(1), 0.99), "us");
    m.put("sched.execute_p99_us", percentile(&stage(2), 0.99), "us");
    m.put("sched.respond_p99_us", percentile(&stage(3), 0.99), "us");
    m.put(
        "sched.coalesce_ratio",
        ratio(queries as f64, passes as f64),
        "ratio",
    );
    m.put("sched.engine_passes", passes as f64, "count");
    let overhead: Vec<f64> = timed
        .iter()
        .zip(judged)
        .flat_map(|(p, js)| p.samples.iter().zip(js))
        .filter_map(|(s, j)| {
            let server = j.stages.iter().map(|st| st[4]).max()?;
            Some(s.recv.saturating_sub(s.sent) as f64 - server as f64)
        })
        .collect();
    m.put(
        "transport.overhead_p50_us",
        percentile(&overhead, 0.5),
        "us",
    );
    m.put(
        "transport.overhead_p99_us",
        percentile(&overhead, 0.99),
        "us",
    );
    if opts.workload == Workload::ServeMix {
        // What only an open loop's overload and its generator show; one
        // closed-loop connection never queues, sheds or runs late.
        open_loop_layers(&mut m, measured, before);
    }
    m.put("trace.overhead_pct", overhead_pct, "%");

    let spans_path = Path::new(OUT_DIR).join(format!("{}.spans.ldjson", opts.tag()));
    std::fs::write(&spans_path, tr.ldjson()).map_err(|e| format!("write {spans_path:?}: {e}"))?;
    let self_ms = report::self_times(&tr.spans)
        .into_iter()
        .fold(Value::obj(), |acc, (name, ms)| acc.field(name, ms));
    eprintln!("self time (ms) per span name: {self_ms}");
    let detail = Value::obj()
        .field("self_ms", self_ms)
        .field("overhead_pct_by_metric", overhead_detail);
    Ok(((m, mismatches), detail))
}

/// The serving-layer metrics only an open loop exercises: the scheduler
/// queue's high-water mark, responses shed or stalled in the writers,
/// how late the generator sent, and the capacity search's result.
fn open_loop_layers(m: &mut Metrics, measured: &Measured, before: Counters) {
    let after = measured.after;
    m.put(
        "sched.queue_depth_hwm",
        after.queue_depth_hwm as f64,
        "count",
    );
    m.put(
        "transport.responses_shed",
        (after.responses_shed - before.responses_shed) as f64,
        "count",
    );
    m.put(
        "transport.writer_stalls",
        (after.writer_stalls - before.writer_stalls) as f64,
        "count",
    );
    let late: Vec<f64> = [&measured.base, &measured.loaded]
        .iter()
        .flat_map(|p| {
            p.samples
                .iter()
                .map(|s| s.sent.saturating_sub(s.due) as f64)
        })
        .collect();
    m.put("gen.late_p99_us", percentile(&late, 0.99), "us");
    let offered = measured.loaded_offered_qps.unwrap_or(0.0);
    let achieved = measured.loaded.samples.len() as f64 / measured.loaded.wall_s.max(1e-9);
    m.put(
        "gen.achieved_over_offered",
        if offered > 0.0 {
            achieved / offered
        } else {
            0.0
        },
        "ratio",
    );
    m.put(
        "gen.max_qps_at_slo",
        measured.max_qps_at_slo.unwrap_or(0.0),
        "1/s",
    );
}
