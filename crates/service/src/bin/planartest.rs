//! The `planartest` CLI: a line-delimited JSON query service.
//!
//! ```text
//! planartest serve [FLAGS]         # LDJSON server: stdio + sockets
//! planartest query [FLAGS]         # one-shot: ingest + query + print
//! planartest metrics [FLAGS]       # scrape a running server's metrics
//! planartest families              # list the generator corpus
//! ```
//!
//! `serve` flags: `--unix PATH`, `--tcp ADDR` (listeners beyond the
//! default stdio transport), `--no-stdio` (daemon mode), `--state-dir
//! DIR` (durable tier: CSR spills + certificate WAL, restored on
//! start), `--resident-graphs N` (heap-tier cap before LRU demotion
//! to mmap), `--cache-accepts N`, `--max-frame-bytes N`,
//! `--outbound-depth N` / `--max-in-flight N` (per-connection
//! backpressure bounds), `--trace FILE` (per-query LDJSON event log).
//!
//! `metrics` flags: `--unix PATH` or `--tcp ADDR` (the running
//! server's listener), `--json` (the `metrics` snapshot instead of
//! Prometheus text).
//!
//! `query` flags: `--spec SPEC` or `--graph-file PATH` (edge list),
//! `--property P`, `--epsilon E`, `--seed S`, `--phases T`,
//! `--backend B` (`serial|parallel[:k]|auto`; validated, no effect — every
//! pass runs on the one serial engine), `--embedding strict|paper`.

use std::process::ExitCode;
use std::time::Duration;

use planartest_service::protocol::handle_request;
use planartest_service::wire::Value;
use planartest_service::{ServeOptions, Server, Service};

const USAGE: &str = "\
planartest — query service for distributed planarity testing

USAGE:
  planartest serve [--unix PATH] [--tcp ADDR] [--no-stdio]
      [--state-dir DIR] [--resident-graphs N]
      [--cache-accepts N] [--max-frame-bytes N]
      [--outbound-depth N] [--max-in-flight N] [--trace FILE]
      Serve one JSON request per line, one JSON response per line
      (ops: ingest, query, batch, stats, metrics, metrics-text,
      families), multiplexing
      stdio plus any configured unix-socket / TCP listeners through
      one scheduler, which runs a cycle whenever anything is queued:
      same-graph queries from *different* clients share one engine
      pass when they arrive together, and one memoised prepared
      tester (Stage I and the seed-free Stage-II prefix) otherwise;
      --cache-accepts bounds the per-seed result-cache stripes
      (LRU; reject certificates are permanent);
      --max-frame-bytes caps a request line (oversized frames get an
      error response, not a dead server); --outbound-depth (default
      1024, 0 = unbounded) bounds each connection's outbound response
      queue — a client that stops reading has further responses shed
      (counted in stats.responses_shed) instead of blocking anyone;
      --max-in-flight (default 1024, 0 = unbounded) caps a
      connection's unanswered submissions, pausing its reader so one
      firehose cannot starve the shared queue; --trace FILE appends one
      LDJSON record per query stage (submit/resolve/execute/respond)
      for offline latency analysis and load replay. EOF on stdin or
      SIGTERM shuts down gracefully, answering everything already
      queued; --no-stdio (daemon mode, needs --unix/--tcp) skips the
      stdin transport so a detached server is stopped by SIGTERM only.
      --state-dir DIR makes the server durable: graphs write through
      to relocatable on-disk CSR spills (re-mapped zero-copy on the
      next start) and reject certificates append to a crash-tolerant
      log replayed into the cache on start, so a restarted server
      answers certified queries without any engine pass;
      --resident-graphs caps the heap CSR tier (least-recently-used
      graphs demote to their mmap spill).
  planartest query (--spec SPEC | --graph-file PATH) [--property P]
      [--epsilon E] [--seed S] [--phases T] [--backend B]
      [--embedding strict|paper] [--state-dir DIR] [--to-disk]
      One-shot: ingest the graph, run one query, print the response.
      Exit code: 0 = accept, 1 = reject, 2 = error. With --state-dir
      the one-shot reads/writes the same durable state a server would
      (certified queries answer from the log, no engine pass);
      --to-disk streams the ingest straight to the CSR spill.
  planartest compact --state-dir DIR
      Offline certificate-log compaction: replay DIR, rewrite one
      record per live certificate (atomic temp-file + rename), and
      report how many records the rewrite kept. Run while no server
      owns DIR; an append-only log otherwise accretes duplicate
      records across cache clears and torn tails.
  planartest metrics (--unix PATH | --tcp ADDR) [--json]
      Scrape a running server: print its latency/stage histograms as
      Prometheus exposition text (default) or the full JSON snapshot
      (--json).
  planartest families
      Print the spec-addressable generator corpus.
";

/// SIGTERM/SIGINT → a flag the serve loop's watcher thread polls.
/// `std` has no signal API and the workspace is offline, so the
/// handler is registered through libc's `signal`, which every unix
/// target already links.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERMINATED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: set the flag, nothing else.
        TERMINATED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

fn serve(args: &[String]) -> ExitCode {
    // `--no-stdio` is the one valueless flag (daemon mode: don't read
    // stdin, don't shut down on its EOF — SIGTERM/SIGINT still work).
    let stdio = !args.iter().any(|a| a == "--no-stdio");
    let args: Vec<String> = args
        .iter()
        .filter(|a| *a != "--no-stdio")
        .cloned()
        .collect();
    let flags = match parse_flags(&args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut opts = ServeOptions::default();
    let mut unix_path: Option<String> = None;
    let mut tcp_addr: Option<String> = None;
    let mut cache_accepts: Option<usize> = None;
    let mut trace_path: Option<String> = None;
    let mut state_dir: Option<String> = None;
    let mut resident_graphs: Option<usize> = None;
    for (name, value) in flags {
        let parse_u64 = || -> Result<u64, ExitCode> {
            value.parse::<u64>().map_err(|_| {
                eprintln!("error: `--{name}` must be a non-negative integer");
                ExitCode::from(2)
            })
        };
        match name.as_str() {
            "unix" => unix_path = Some(value.clone()),
            "tcp" => tcp_addr = Some(value.clone()),
            "cache-accepts" => match parse_u64() {
                Ok(c) => cache_accepts = Some(c as usize),
                Err(code) => return code,
            },
            "max-frame-bytes" => match parse_u64() {
                Ok(b) => opts.max_frame = b as usize,
                Err(code) => return code,
            },
            "outbound-depth" => match parse_u64() {
                Ok(d) => opts.outbound_depth = d as usize,
                Err(code) => return code,
            },
            "max-in-flight" => match parse_u64() {
                Ok(n) => opts.max_in_flight = n as usize,
                Err(code) => return code,
            },
            "trace" => trace_path = Some(value.clone()),
            "state-dir" => state_dir = Some(value.clone()),
            "resident-graphs" => match parse_u64() {
                Ok(n) => resident_graphs = Some(n as usize),
                Err(code) => return code,
            },
            other => {
                eprintln!("error: unknown serve flag `--{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let mut service = Service::new();
    if let Some(capacity) = cache_accepts {
        service.set_cache_accepts(capacity);
    }
    if let Some(n) = resident_graphs {
        service.registry_mut().set_resident_capacity(n);
    }
    if let Some(dir) = &state_dir {
        match service.set_state_dir(std::path::Path::new(dir)) {
            Ok(summary) => eprintln!(
                "state {dir}: restored {} graphs, {} certificates ({} log lines skipped)",
                summary.graphs_restored, summary.certificates_replayed, summary.tail_skipped
            ),
            Err(e) => {
                eprintln!("error: cannot open state dir `{dir}`: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(path) = &trace_path {
        match std::fs::File::create(path) {
            Ok(file) => service
                .telemetry()
                .set_trace_writer(Box::new(std::io::BufWriter::new(file))),
            Err(e) => {
                eprintln!("error: cannot open trace file `{path}`: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if !stdio && unix_path.is_none() && tcp_addr.is_none() {
        eprintln!("error: `--no-stdio` needs at least one of `--unix` / `--tcp`");
        return ExitCode::from(2);
    }
    let server = Server::start(service, opts);
    // Stdio is the compatibility transport and the default shutdown
    // control (EOF = graceful stop), matching the old synchronous
    // loop's lifetime even when sockets carry the load. `--no-stdio`
    // skips it for daemonized socket-only servers, whose stdin is
    // typically /dev/null and would otherwise EOF — and exit —
    // immediately; they stop on SIGTERM/SIGINT instead.
    if stdio {
        server.attach_stdio();
    }
    if let Some(path) = &unix_path {
        if let Err(e) = server.listen_unix(std::path::Path::new(path)) {
            eprintln!("error: cannot listen on unix socket `{path}`: {e}");
            return ExitCode::from(2);
        }
        eprintln!("listening unix {path}");
    }
    if let Some(addr) = &tcp_addr {
        match server.listen_tcp(addr) {
            Ok(bound) => eprintln!("listening tcp {bound}"),
            Err(e) => {
                eprintln!("error: cannot listen on tcp `{addr}`: {e}");
                return ExitCode::from(2);
            }
        }
    }
    #[cfg(unix)]
    {
        sig::install();
        let queue = server.submission_queue();
        std::thread::Builder::new()
            .name("planartest-signals".into())
            .spawn(move || loop {
                if sig::TERMINATED.load(std::sync::atomic::Ordering::SeqCst) {
                    queue.request_shutdown();
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            })
            .expect("spawn signal watcher");
    }
    let _ = server.join();
    if let Some(path) = &unix_path {
        let _ = std::fs::remove_file(path);
    }
    ExitCode::SUCCESS
}

/// Parses `--flag value` pairs; returns `None` (with a message) on
/// unknown or dangling flags.
fn parse_flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument `{flag}`"));
        };
        let Some(value) = it.next() else {
            return Err(format!("flag `--{name}` needs a value"));
        };
        flags.push((name.to_string(), value.clone()));
    }
    Ok(flags)
}

/// Stable binding name for an edge-list one-shot: FNV-1a over the
/// bytes, so identical content re-binds the same alias and different
/// content never collides with a previous run's manifest entry.
fn content_name(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("edge-list:{h:016x}")
}

fn one_shot(args: &[String]) -> ExitCode {
    // `--to-disk` is valueless: stream the ingest straight to the
    // `--state-dir` CSR spill instead of building a heap CSR.
    let to_disk = args.iter().any(|a| a == "--to-disk");
    let args: Vec<String> = args.iter().filter(|a| *a != "--to-disk").cloned().collect();
    let flags = match parse_flags(&args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut service = Service::new();
    // The binding name must be content-derived, not fixed: with
    // `--state-dir` the manifest outlives the process, and a fixed name
    // would make the second one-shot with a different graph fail with
    // `NameTaken`. Specs bind under their own text; edge lists under a
    // hash of their bytes — re-running the same one-shot re-binds the
    // same alias idempotently.
    let mut graph_name = None;
    let mut ingest = Value::obj().field("op", "ingest");
    if to_disk {
        ingest = ingest.field("to_disk", true);
    }
    let mut query = Value::obj().field("op", "query");
    for (name, value) in flags {
        match name.as_str() {
            "state-dir" => match service.set_state_dir(std::path::Path::new(&value)) {
                Ok(summary) => eprintln!(
                    "state {value}: restored {} graphs, {} certificates ({} log lines skipped)",
                    summary.graphs_restored, summary.certificates_replayed, summary.tail_skipped
                ),
                Err(e) => {
                    eprintln!("error: cannot open state dir `{value}`: {e}");
                    return ExitCode::from(2);
                }
            },
            "spec" => {
                graph_name = Some(value.clone());
                ingest = ingest.field("spec", value.as_str());
            }
            "graph-file" => {
                let text = match std::fs::read_to_string(&value) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("error: cannot read `{value}`: {e}");
                        return ExitCode::from(2);
                    }
                };
                graph_name = Some(content_name(&text));
                ingest = ingest.field("edge_list", text);
            }
            "property" => query = query.field("property", value.as_str()),
            "backend" => query = query.field("backend", value.as_str()),
            "embedding" => query = query.field("embedding", value.as_str()),
            "epsilon" => match value.parse::<f64>() {
                Ok(e) => query = query.field("epsilon", e),
                Err(_) => {
                    eprintln!("error: `--epsilon` must be a number");
                    return ExitCode::from(2);
                }
            },
            "seed" | "phases" => match value.parse::<u64>() {
                Ok(x) => query = query.field(name.as_str(), x),
                Err(_) => {
                    eprintln!("error: `--{name}` must be a non-negative integer");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown flag `--{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(graph_name) = graph_name else {
        eprintln!("error: `query` needs --spec or --graph-file\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let ingest = ingest.field("name", graph_name.as_str());
    let query = query.field("graph", graph_name.as_str());
    let ingested = handle_request(&mut service, &ingest);
    if ingested.get("ok").and_then(Value::as_bool) != Some(true) {
        println!("{ingested}");
        return ExitCode::from(2);
    }
    let response = handle_request(&mut service, &query);
    println!("{response}");
    match (
        response.get("ok").and_then(Value::as_bool),
        response.get("verdict").and_then(Value::as_str),
    ) {
        (Some(true), Some("accept")) => ExitCode::SUCCESS,
        (Some(true), _) => ExitCode::from(1),
        _ => ExitCode::from(2),
    }
}

/// One-shot metrics scrape against a running server's socket: sends a
/// single `metrics` / `metrics-text` request and prints the answer —
/// Prometheus text by default (unescaped from the one-line JSON
/// envelope), or the raw JSON snapshot with `--json`.
fn metrics(args: &[String]) -> ExitCode {
    use std::io::{BufRead, BufReader, Write};

    let json = args.iter().any(|a| a == "--json");
    let args: Vec<String> = args.iter().filter(|a| *a != "--json").cloned().collect();
    let flags = match parse_flags(&args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut unix_path: Option<String> = None;
    let mut tcp_addr: Option<String> = None;
    for (name, value) in flags {
        match name.as_str() {
            "unix" => unix_path = Some(value),
            "tcp" => tcp_addr = Some(value),
            other => {
                eprintln!("error: unknown metrics flag `--{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let op = if json { "metrics" } else { "metrics-text" };
    let request = Value::obj().field("op", op).to_string();
    type Exchange = Box<dyn FnMut(&str) -> std::io::Result<String>>;
    let scrape = |mut stream: Exchange| -> ExitCode {
        match stream(&request) {
            Ok(line) => match Value::parse(line.trim()) {
                Ok(response) if json => {
                    println!("{}", response.pretty());
                    ExitCode::SUCCESS
                }
                Ok(response) => match response.get("text").and_then(Value::as_str) {
                    Some(text) => {
                        print!("{text}");
                        ExitCode::SUCCESS
                    }
                    None => {
                        eprintln!("error: server answered without a `text` field: {response}");
                        ExitCode::from(2)
                    }
                },
                Err(e) => {
                    eprintln!("error: bad response: {e}");
                    ExitCode::from(2)
                }
            },
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        }
    };
    // One round trip: write the request line, read the response line.
    fn round_trip<S: std::io::Read + Write>(
        mut stream: S,
        request: &str,
    ) -> std::io::Result<String> {
        writeln!(stream, "{request}")?;
        stream.flush()?;
        let mut line = String::new();
        BufReader::new(&mut stream).read_line(&mut line)?;
        Ok(line)
    }
    match (unix_path, tcp_addr) {
        (Some(path), None) => {
            #[cfg(unix)]
            {
                let path2 = path.clone();
                scrape(Box::new(move |req| {
                    let stream = std::os::unix::net::UnixStream::connect(&path2)?;
                    round_trip(stream, req)
                }))
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                eprintln!("error: unix sockets are not available on this platform");
                ExitCode::from(2)
            }
        }
        (None, Some(addr)) => scrape(Box::new(move |req| {
            let stream = std::net::TcpStream::connect(&addr)?;
            round_trip(stream, req)
        })),
        _ => {
            eprintln!("error: `metrics` needs exactly one of `--unix PATH` / `--tcp ADDR`");
            ExitCode::from(2)
        }
    }
}

fn compact(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut dir: Option<String> = None;
    for (name, value) in flags {
        match name.as_str() {
            "state-dir" => dir = Some(value),
            other => {
                eprintln!("error: unknown compact flag `--{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("error: `compact` needs --state-dir DIR\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let mut service = Service::new();
    let summary = match service.set_state_dir(std::path::Path::new(&dir)) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("error: cannot open state dir `{dir}`: {e}");
            return ExitCode::from(2);
        }
    };
    match service.compact_certificates() {
        Ok(kept) => {
            println!(
                "state {dir}: compacted to {kept} certificates \
                 ({} replayed, {} log lines skipped)",
                summary.certificates_replayed, summary.tail_skipped
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: compaction failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn families() -> ExitCode {
    let mut service = Service::new();
    let r = handle_request(&mut service, &Value::obj().field("op", "families"));
    println!("{r}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("query") => one_shot(&args[1..]),
        Some("compact") => compact(&args[1..]),
        Some("metrics") => metrics(&args[1..]),
        Some("families") if args.len() == 1 => families(),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
