//! End-to-end smoke tests of the transport-abstracted server: the real
//! `planartest` binary serving concurrent unix-socket and TCP clients,
//! cross-client sharing of one prepared tester, wire-protocol
//! hardening, connections let go once answered, and graceful shutdown
//! on EOF and SIGTERM.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::Duration;

use planartest_service::wire::Value;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_planartest"))
}

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("planartest-{tag}-{}.sock", std::process::id()))
}

/// Spawns `planartest serve` with the given extra flags; stdin is kept
/// open (it is the shutdown control), stderr is piped so tests can read
/// the `listening …` banners.
fn spawn_serve(extra: &[&str]) -> Child {
    let mut cmd = bin();
    cmd.arg("serve").args(extra);
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve")
}

/// Spawns `planartest serve --no-stdio --unix <path>` with stdin closed
/// at once (as under a supervisor with /dev/null) and waits for its
/// banner; [`terminate`] stops it. Keep the returned stderr open while
/// the server runs.
fn spawn_daemon(path: &std::path::Path) -> (Child, BufReader<ChildStderr>) {
    let mut child = bin()
        .args(["serve", "--no-stdio", "--unix", path.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr"));
    await_banner(&mut stderr, "unix");
    (child, stderr)
}

/// Stops a server started by [`spawn_daemon`] with SIGTERM and asserts
/// a clean exit.
fn terminate(child: &mut Child) {
    let killed = Command::new("sh")
        .args(["-c", &format!("kill -TERM {}", child.id())])
        .status()
        .expect("run kill");
    assert!(killed.success());
    assert!(child.wait().expect("serve exits").success());
}

/// Reads stderr lines until the wanted `listening <transport> …`
/// banner appears; returns its last whitespace-separated field.
fn await_banner(stderr: &mut BufReader<ChildStderr>, transport: &str) -> String {
    for _ in 0..32 {
        let mut line = String::new();
        if stderr.read_line(&mut line).expect("read stderr") == 0 {
            break;
        }
        if line.starts_with(&format!("listening {transport}")) {
            return line
                .split_whitespace()
                .last()
                .expect("banner field")
                .to_string();
        }
    }
    panic!("no `listening {transport}` banner on stderr");
}

/// One request/response exchange over any stream transport.
fn ask<S: Read + Write>(stream: &mut S, reader: &mut BufReader<S>, request: &str) -> Value {
    writeln!(stream, "{request}").expect("write request");
    stream.flush().expect("flush request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(!line.is_empty(), "connection closed before a response");
    Value::parse(line.trim()).expect("response parses")
}

fn connect(path: &std::path::Path) -> (UnixStream, BufReader<UnixStream>) {
    let stream = UnixStream::connect(path).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// Sends the same-graph query under seeds 1 and 2 from two clients at
/// once and reads both responses. A cycle fires on the first arrival:
/// if the second lands in it too, one engine pass serves both seeds;
/// if it lands while that pass runs, it is held and then rides the
/// prepared tester the pass memoised. Either way Stage I and the
/// seed-free prefix run once, which the returned `stats` shows.
fn two_client_burst(
    (a, a_rx): (&mut UnixStream, &mut BufReader<UnixStream>),
    (b, b_rx): (&mut UnixStream, &mut BufReader<UnixStream>),
) -> (Vec<Value>, Value) {
    for (client, seed) in [(&mut *a, 1), (&mut *b, 2)] {
        writeln!(
            client,
            r#"{{"op":"query","graph":"city","epsilon":0.2,"phases":5,"seed":{seed}}}"#
        )
        .unwrap();
    }
    let responses: Vec<Value> = [&mut *a_rx, &mut *b_rx]
        .into_iter()
        .map(|rx| {
            let mut line = String::new();
            rx.read_line(&mut line).expect("read response");
            Value::parse(line.trim()).expect("response parses")
        })
        .collect();
    let stats = ask(a, a_rx, r#"{"op":"stats"}"#);
    let field = |key: &str| stats.get(key).and_then(Value::as_u64);
    let passes = field("engine_passes").expect("engine_passes");
    assert!(passes == 1 || passes == 2, "{passes} engine passes");
    assert_eq!(field("prefix_misses"), Some(1), "one prepare serves both");
    assert_eq!(field("prefix_hits"), Some(passes - 1));
    assert_eq!(field("queries_served"), Some(2));
    // One pass coalesces both seeds; two passes serve one seed each.
    for response in &responses {
        assert_eq!(response.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            response.get("coalesced").unwrap().as_u64(),
            Some(3 - passes),
            "coalesced must match the {passes} engine passes"
        );
    }
    (responses, stats)
}

#[test]
fn two_socket_clients_coalesce_into_one_engine_pass() {
    let path = socket_path("coalesce");
    let mut child = spawn_serve(&["--unix", path.to_str().unwrap()]);
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr"));
    await_banner(&mut stderr, "unix");

    let (mut a, mut a_rx) = connect(&path);
    let (mut b, mut b_rx) = connect(&path);

    let ingested = ask(
        &mut a,
        &mut a_rx,
        r#"{"op":"ingest","name":"city","spec":"tri_grid(5,5)"}"#,
    );
    assert_eq!(ingested.get("ok").unwrap().as_bool(), Some(true));

    let (responses, _) = two_client_burst((&mut a, &mut a_rx), (&mut b, &mut b_rx));
    for response in &responses {
        assert_eq!(response.get("verdict").unwrap().as_str(), Some("accept"));
        assert_eq!(response.get("cache").unwrap().as_str(), Some("cold"));
    }

    drop((a, b, a_rx, b_rx));
    drop(child.stdin.take()); // EOF: graceful shutdown
    let status = child.wait().expect("serve exits");
    assert!(status.success());
    assert!(!path.exists(), "socket file cleaned up on exit");
}

#[test]
fn tcp_survives_garbage_and_oversized_frames() {
    let mut child = spawn_serve(&["--tcp", "127.0.0.1:0", "--max-frame-bytes", "256"]);
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr"));
    let addr = await_banner(&mut stderr, "tcp");

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect tcp");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Garbage: an in-band error, not a dead server.
    let bad = ask(&mut stream, &mut reader, "this is not json");
    assert_eq!(bad.get("ok").unwrap().as_bool(), Some(false));
    assert!(bad
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("bad request"));

    // Oversized frame: ditto, and the connection keeps working.
    let huge = "x".repeat(300);
    let oversized = ask(&mut stream, &mut reader, &huge);
    assert_eq!(oversized.get("ok").unwrap().as_bool(), Some(false));
    assert!(oversized
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("256-byte"));

    // Same connection still serves real work.
    let ingested = ask(
        &mut stream,
        &mut reader,
        r#"{"op":"ingest","name":"g","spec":"grid(4,4)"}"#,
    );
    assert_eq!(ingested.get("ok").unwrap().as_bool(), Some(true));
    let queried = ask(
        &mut stream,
        &mut reader,
        r#"{"op":"query","graph":"g","epsilon":0.2,"phases":5}"#,
    );
    assert_eq!(queried.get("verdict").unwrap().as_str(), Some("accept"));

    drop((stream, reader));
    drop(child.stdin.take());
    assert!(child.wait().expect("serve exits").success());
}

/// Starts a unix-socket server and calls `stop` while a query's engine
/// pass runs. A first touch of the graph under another ε calibrates
/// the pass: it misses the memo like the real query and runs the same
/// Stage I, so its `engine_micros` T times the real pass, and `stop`
/// runs T/4 after the real query went out. Asserts the query is still
/// answered, and was still in flight when `stop` ran, and that the
/// server exits with code 0.
fn shutdown_flushes_an_in_flight_query(tag: &str, stop: impl FnOnce(&mut Child)) {
    let path = socket_path(tag);
    let mut child = spawn_serve(&["--unix", path.to_str().unwrap()]);
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr"));
    await_banner(&mut stderr, "unix");

    let (mut client, mut rx) = connect(&path);
    let ingested = ask(
        &mut client,
        &mut rx,
        r#"{"op":"ingest","name":"g","spec":"tri_grid(48,48)"}"#,
    );
    assert_eq!(ingested.get("ok").unwrap().as_bool(), Some(true));
    let query = |epsilon: f64| {
        format!(r#"{{"op":"query","graph":"g","epsilon":{epsilon},"phases":5,"seed":9}}"#)
    };
    let calibration = ask(&mut client, &mut rx, &query(0.25));
    assert_eq!(calibration.get("cache").unwrap().as_str(), Some("cold"));
    let pass = calibration
        .get("engine_micros")
        .and_then(Value::as_u64)
        .map(Duration::from_micros)
        .expect("engine_micros");

    let sent = std::time::Instant::now();
    writeln!(client, "{}", query(0.2)).unwrap();
    std::thread::sleep(pass / 4);
    let before_stop = sent.elapsed();
    stop(&mut child);

    let mut line = String::new();
    rx.read_line(&mut line).expect("read flushed response");
    let response = Value::parse(line.trim()).expect("response parses");
    assert_eq!(response.get("verdict").unwrap().as_str(), Some("accept"));
    // The server answered more than `before_stop` after the query
    // arrived, so after `stop` ran: the shutdown flushed it.
    let total_micros = response
        .get("stages")
        .and_then(|s| s.get("total_micros"))
        .and_then(Value::as_u64)
        .expect("stage total");
    assert!(
        u128::from(total_micros) > before_stop.as_micros(),
        "the query was answered {total_micros}us after arrival, before shutdown"
    );
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "graceful exit, code 0");
}

#[test]
fn eof_shutdown_flushes_in_flight_queries() {
    shutdown_flushes_an_in_flight_query("eof-flush", |child| drop(child.stdin.take()));
}

#[test]
fn sigterm_shutdown_flushes_in_flight_queries() {
    shutdown_flushes_an_in_flight_query("sigterm-flush", |child| {
        let killed = Command::new("sh")
            .args(["-c", &format!("kill -TERM {}", child.id())])
            .status()
            .expect("run kill");
        assert!(killed.success(), "kill -TERM must reach the server");
    });
}

#[test]
fn no_stdio_daemon_survives_stdin_eof_and_stops_on_sigterm() {
    let path = socket_path("daemon");
    // Daemon mode: stdin is closed immediately (as under a supervisor
    // with /dev/null) — the server must keep serving regardless.
    let (mut child, _stderr) = spawn_daemon(&path);
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        child.try_wait().expect("probe child").is_none(),
        "--no-stdio server must not exit on stdin EOF"
    );

    let (mut client, mut rx) = connect(&path);
    let ingested = ask(
        &mut client,
        &mut rx,
        r#"{"op":"ingest","name":"g","spec":"grid(4,4)"}"#,
    );
    assert_eq!(ingested.get("ok").unwrap().as_bool(), Some(true));
    let queried = ask(
        &mut client,
        &mut rx,
        r#"{"op":"query","graph":"g","epsilon":0.2,"phases":5}"#,
    );
    assert_eq!(queried.get("verdict").unwrap().as_str(), Some("accept"));

    terminate(&mut child);

    // --no-stdio without any listener is rejected up front.
    let refused = bin()
        .args(["serve", "--no-stdio"])
        .stdin(Stdio::null())
        .output()
        .expect("run serve");
    assert_eq!(refused.status.code(), Some(2));
}

#[test]
fn concurrent_open_loop_clients_drain_exactly_and_in_order() {
    const CLIENTS: usize = 6;
    const QUERIES: usize = 80;

    let path = socket_path("stress");
    let mut child = spawn_serve(&["--unix", path.to_str().unwrap()]);
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr"));
    await_banner(&mut stderr, "unix");

    // Shared corpus: an accepting graph, so every verdict is known
    // regardless of how the drain loop interleaves the six clients.
    let (mut setup, mut setup_rx) = connect(&path);
    let ingested = ask(
        &mut setup,
        &mut setup_rx,
        r#"{"op":"ingest","name":"g","spec":"tri_grid(4,4)"}"#,
    );
    assert_eq!(ingested.get("ok").unwrap().as_bool(), Some(true));

    // Each client fires all of its queries open-loop (no waiting for
    // responses), then drains. Unique seeds mark every request, so the
    // echoed `seed` field proves per-connection ordering and exactness:
    // one response per query, none lost, none duplicated, none garbled.
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let path = &path;
            scope.spawn(move || {
                let (mut tx, mut rx) = connect(path);
                for i in 0..QUERIES {
                    writeln!(
                        tx,
                        r#"{{"op":"query","graph":"g","epsilon":0.2,"phases":5,"seed":{}}}"#,
                        c * 1000 + i
                    )
                    .expect("write query");
                }
                tx.flush().expect("flush burst");
                for i in 0..QUERIES {
                    let mut line = String::new();
                    rx.read_line(&mut line).expect("read response");
                    let response = Value::parse(line.trim()).expect("response parses");
                    assert_eq!(response.get("ok").unwrap().as_bool(), Some(true));
                    assert_eq!(response.get("verdict").unwrap().as_str(), Some("accept"));
                    assert_eq!(
                        response.get("seed").unwrap().as_u64(),
                        Some((c * 1000 + i) as u64),
                        "client {c} got response {i} out of submission order"
                    );
                }
                // The stream is exactly drained: the next response on
                // this connection is the stats echo, nothing stale.
                let stats = ask(&mut tx, &mut rx, r#"{"op":"stats"}"#);
                assert!(stats.get("queries_served").is_some(), "stream misaligned");
            });
        }
    });

    // Server-side ledger: every query served, no response lost, and the
    // queue's high-water mark recorded the concurrent burst.
    let stats = ask(&mut setup, &mut setup_rx, r#"{"op":"stats"}"#);
    assert_eq!(
        stats.get("queries_served").unwrap().as_u64(),
        Some((CLIENTS * QUERIES) as u64)
    );
    assert_eq!(stats.get("responses_lost").unwrap().as_u64(), Some(0));
    assert_eq!(
        stats.get("responses_shed").unwrap().as_u64(),
        Some(0),
        "unbounded outbound queues never shed"
    );
    let hwm = stats.get("queue_depth_hwm").unwrap().as_u64().unwrap();
    assert!(hwm >= 1, "burst must register on the queue high-water mark");
    assert!(
        hwm >= stats.get("queue_depth").unwrap().as_u64().unwrap(),
        "high-water mark can never trail the instantaneous depth"
    );

    drop((setup, setup_rx));
    drop(child.stdin.take());
    assert!(child.wait().expect("serve exits").success());
}

#[test]
fn never_reading_client_sheds_without_hurting_healthy_peers() {
    const FIREHOSE: usize = 3000;
    const HEALTHY: usize = 50;

    let path = socket_path("slowpeer");
    // A tight outbound queue and a modest in-flight cap: the policy
    // under test is bounded memory + shed, not unbounded buffering.
    let mut child = spawn_serve(&[
        "--unix",
        path.to_str().unwrap(),
        "--outbound-depth",
        "8",
        "--max-in-flight",
        "64",
    ]);
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr"));
    await_banner(&mut stderr, "unix");

    // Prime the cache over the healthy connection so every firehose
    // query is a warm hit (the fast path is exactly what would flood
    // an unbounded writer queue).
    let (mut healthy, mut healthy_rx) = connect(&path);
    let ingested = ask(
        &mut healthy,
        &mut healthy_rx,
        r#"{"op":"ingest","name":"g","spec":"tri_grid(4,4)"}"#,
    );
    assert_eq!(ingested.get("ok").unwrap().as_bool(), Some(true));
    let primed = ask(
        &mut healthy,
        &mut healthy_rx,
        r#"{"op":"query","graph":"g","epsilon":0.2,"phases":5,"seed":7}"#,
    );
    assert_eq!(primed.get("verdict").unwrap().as_str(), Some("accept"));

    // The deaf client: fires thousands of warm queries and never reads
    // a byte. Its socket buffer fills, its writer thread blocks, its
    // 8-deep outbound queue fills, and everything else is shed — while
    // its in-flight slots keep recycling, so this write loop cannot
    // deadlock against the server.
    let (mut deaf, _deaf_rx) = connect(&path);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..FIREHOSE {
                writeln!(
                    deaf,
                    r#"{{"op":"query","graph":"g","epsilon":0.2,"phases":5,"seed":7}}"#
                )
                .expect("write firehose query");
            }
            deaf.flush().expect("flush firehose");
        });

        // Concurrently, the healthy connection gets every response, in
        // order, while the deaf peer is mid-flood.
        for i in 0..HEALTHY {
            let r = ask(
                &mut healthy,
                &mut healthy_rx,
                &format!(
                    r#"{{"op":"query","graph":"g","epsilon":0.2,"phases":5,"seed":{}}}"#,
                    i
                ),
            );
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
            assert_eq!(
                r.get("seed").unwrap().as_u64(),
                Some(i as u64),
                "healthy client response out of order beside a deaf peer"
            );
        }
    });

    // Give the drain loop a moment to finish shedding the tail, then
    // read the ledger over the healthy connection: sheds happened (the
    // bounded queue did its job), yet nothing was lost mid-flight.
    std::thread::sleep(Duration::from_millis(500));
    let stats = ask(&mut healthy, &mut healthy_rx, r#"{"op":"stats"}"#);
    let shed = stats.get("responses_shed").unwrap().as_u64().unwrap();
    assert!(
        shed > 0,
        "a deaf firehose must shed against an 8-deep queue"
    );
    assert_eq!(
        stats.get("responses_lost").unwrap().as_u64(),
        Some(0),
        "shedding is policy, not mid-flight loss"
    );
    assert!(stats.get("outbound_depth_hwm").unwrap().as_u64().unwrap() >= 8);

    // Graceful shutdown completes despite the still-deaf peer: the
    // flush grace expires, its socket is force-closed, and the queued
    // remainder lands on the shutdown ledger — exit stays clean.
    drop((healthy, healthy_rx));
    let started = std::time::Instant::now();
    drop(child.stdin.take());
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "deaf peer must not wedge shutdown");
    assert!(started.elapsed() < Duration::from_secs(20));
}

#[test]
fn cache_accepts_flag_bounds_stripes_and_reports_evictions() {
    let path = socket_path("cache-accepts");
    let mut child = spawn_serve(&["--unix", path.to_str().unwrap(), "--cache-accepts", "2"]);
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr"));
    await_banner(&mut stderr, "unix");

    let (mut client, mut rx) = connect(&path);
    let ingested = ask(
        &mut client,
        &mut rx,
        r#"{"op":"ingest","name":"g","spec":"tri_grid(4,4)"}"#,
    );
    assert_eq!(ingested.get("ok").unwrap().as_bool(), Some(true));
    for seed in 0..4 {
        let r = ask(
            &mut client,
            &mut rx,
            &format!(r#"{{"op":"query","graph":"g","epsilon":0.2,"phases":5,"seed":{seed}}}"#),
        );
        assert_eq!(r.get("cache").unwrap().as_str(), Some("cold"));
    }
    let stats = ask(&mut client, &mut rx, r#"{"op":"stats"}"#);
    assert_eq!(
        stats.get("cached_outcomes").unwrap().as_u64(),
        Some(2),
        "stripes bounded by --cache-accepts"
    );
    assert_eq!(stats.get("evictions").unwrap().as_u64(), Some(2));

    drop((client, rx));
    drop(child.stdin.take());
    assert!(child.wait().expect("serve exits").success());
}

#[test]
fn trace_flag_logs_a_two_client_coalesced_batch() {
    let path = socket_path("trace");
    let trace_path =
        std::env::temp_dir().join(format!("planartest-trace-{}.ldjson", std::process::id()));
    let _ = std::fs::remove_file(&trace_path);
    let mut child = spawn_serve(&[
        "--unix",
        path.to_str().unwrap(),
        "--trace",
        trace_path.to_str().unwrap(),
    ]);
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr"));
    await_banner(&mut stderr, "unix");

    let (mut a, mut a_rx) = connect(&path);
    let (mut b, mut b_rx) = connect(&path);
    let ingested = ask(
        &mut a,
        &mut a_rx,
        r#"{"op":"ingest","name":"city","spec":"tri_grid(5,5)"}"#,
    );
    assert_eq!(ingested.get("ok").unwrap().as_bool(), Some(true));

    // The same two-client burst as the cross-client test; the `stats`
    // op it ends with is control traffic, not a traced query.
    let (_, stats) = two_client_burst((&mut a, &mut a_rx), (&mut b, &mut b_rx));
    let coalesced = 3 - stats.get("engine_passes").unwrap().as_u64().unwrap();

    drop((a, b, a_rx, b_rx));
    drop(child.stdin.take());
    assert!(child.wait().expect("serve exits").success());

    // The trace artifact: exactly four LDJSON records per query (the
    // ingest, `stats` and shutdown are control traffic, not queries), each
    // query's chunk contiguous and stage-complete.
    let text = std::fs::read_to_string(&trace_path).expect("trace file");
    let records: Vec<Value> = text
        .lines()
        .map(|l| Value::parse(l).expect("trace record parses"))
        .collect();
    assert_eq!(records.len(), 8, "4 records for each of the 2 queries");

    let mut conns = Vec::new();
    for chunk in records.chunks(4) {
        let events: Vec<&str> = chunk
            .iter()
            .map(|r| r.get("event").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(events, ["submit", "resolve", "execute", "respond"]);
        // One connection id per query, non-null and chunk-consistent.
        let conn = chunk[0].get("conn").unwrap().as_u64().expect("conn id");
        for r in chunk {
            assert_eq!(r.get("conn").unwrap().as_u64(), Some(conn));
            assert_eq!(
                r.get("query").unwrap().as_u64(),
                chunk[0].get("query").unwrap().as_u64()
            );
        }
        conns.push(conn);
        assert_eq!(chunk[1].get("cache").unwrap().as_str(), Some("cold"));
        assert_eq!(chunk[2].get("coalesced").unwrap().as_u64(), Some(coalesced));
        // Stage stamps are monotone and close exactly: each record is
        // stamped at its stage's start, so the respond record's offset
        // from submit plus its own span is the reported total.
        let at = |j: usize| chunk[j].get("at_micros").unwrap().as_u64().unwrap();
        assert!(at(0) <= at(1) && at(1) <= at(2) && at(2) <= at(3));
        let respond_micros = chunk[3].get("micros").unwrap().as_u64().unwrap();
        assert_eq!(
            chunk[3].get("total_micros").unwrap().as_u64(),
            Some(at(3) - at(0) + respond_micros)
        );
    }
    conns.sort_unstable();
    conns.dedup();
    assert_eq!(conns.len(), 2, "the two clients traced as distinct conns");
    let _ = std::fs::remove_file(&trace_path);
}

/// The server process's thread and open-descriptor counts, read from
/// `/proc` (Linux only).
#[cfg(target_os = "linux")]
fn thread_and_fd_counts(pid: u32) -> (usize, usize) {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("proc status");
    let threads = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line");
    let fds = std::fs::read_dir(format!("/proc/{pid}/fd"))
        .expect("proc fd")
        .count();
    (threads, fds)
}

#[test]
fn connect_ask_close_cycles_leave_no_connection_behind() {
    const CYCLES: usize = 200;
    let path = socket_path("churn");
    let (mut child, _stderr) = spawn_daemon(&path);

    let stats = || {
        let (mut client, mut rx) = connect(&path);
        let stats = ask(&mut client, &mut rx, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("ok").unwrap().as_bool(), Some(true));
        stats.get("connections").and_then(Value::as_u64)
    };
    stats();
    #[cfg(target_os = "linux")]
    let (threads, fds) = thread_and_fd_counts(child.id());
    for _ in 1..CYCLES {
        stats();
    }
    // Writers exit asynchronously once their last answer is written.
    // Measure first and assert after the stop, so a failure does not
    // leave the daemon running.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    #[cfg(target_os = "linux")]
    let (now_threads, now_fds) = loop {
        let (now_threads, now_fds) = thread_and_fd_counts(child.id());
        let settled = now_threads <= threads + 2 && now_fds <= fds + 2;
        if settled || std::time::Instant::now() >= deadline {
            break (now_threads, now_fds);
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let live = loop {
        let live = stats();
        if live == Some(1) || std::time::Instant::now() >= deadline {
            break live;
        }
        std::thread::sleep(Duration::from_millis(10));
    };

    terminate(&mut child);
    #[cfg(target_os = "linux")]
    assert!(
        now_threads <= threads + 2 && now_fds <= fds + 2,
        "after {CYCLES} cycles: {now_threads} threads (from {threads}), \
         {now_fds} descriptors (from {fds})"
    );
    assert_eq!(
        live,
        Some(1),
        "after {CYCLES} cycles `stats` reports {live:?} connections, not 1"
    );
}

#[test]
fn a_half_closed_client_reads_its_answers_then_end_of_stream() {
    let path = socket_path("halfclose");
    let mut child = spawn_serve(&["--unix", path.to_str().unwrap()]);
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr"));
    await_banner(&mut stderr, "unix");

    let mut client = UnixStream::connect(&path).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let query = |seed: u64| {
        format!(r#"{{"op":"query","graph":"g","epsilon":0.2,"phases":5,"seed":{seed}}}"#)
    };
    let requests = [
        r#"{"op":"ingest","name":"g","spec":"tri_grid(8,8)"}"#.to_string(),
        query(1),
        format!(r#"{{"op":"batch","queries":[{},{}]}}"#, query(2), query(3)),
        r#"{"op":"stats"}"#.to_string(),
    ];
    for request in &requests {
        writeln!(client, "{request}").expect("write request");
    }
    client
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let started = std::time::Instant::now();
    let mut text = String::new();
    let read = client.read_to_string(&mut text);
    let answers: Vec<Value> = text
        .lines()
        .map(|l| Value::parse(l).expect("response parses"))
        .collect();
    assert_eq!(answers.len(), 4, "four answers: {text}");
    assert!(
        read.is_ok() && started.elapsed() < Duration::from_secs(5),
        "no end of stream after the answers: {read:?}"
    );
    assert_eq!(answers[0].get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(answers[1].get("verdict").unwrap().as_str(), Some("accept"));
    assert_eq!(answers[1].get("cache").unwrap().as_str(), Some("cold"));
    let batch = answers[2].get("responses").unwrap().as_arr().unwrap();
    assert_eq!(batch.len(), 2);
    assert_eq!(answers[3].get("queries_served").unwrap().as_u64(), Some(3));

    drop(client);
    drop(child.stdin.take()); // EOF: graceful shutdown
    assert!(child.wait().expect("serve exits").success());
}

#[cfg(target_os = "linux")]
#[test]
fn an_idle_connection_holds_one_descriptor() {
    const IDLE: usize = 10;
    let path = socket_path("idle-fds");
    let (mut child, _stderr) = spawn_daemon(&path);

    let (mut probe, mut probe_rx) = connect(&path);
    let mut connections = || {
        let stats = ask(&mut probe, &mut probe_rx, r#"{"op":"stats"}"#);
        stats.get("connections").and_then(Value::as_u64)
    };
    let before = connections();
    let (_, fds) = thread_and_fd_counts(child.id());
    let idle: Vec<UnixStream> = (0..IDLE)
        .map(|_| UnixStream::connect(&path).expect("connect"))
        .collect();
    // Measure once the server has registered every idle connection,
    // and assert after the stop, so a failure leaves no daemon behind.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let live = loop {
        let live = connections();
        if live == Some(IDLE as u64 + 1) || std::time::Instant::now() >= deadline {
            break live;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let (_, now_fds) = thread_and_fd_counts(child.id());
    drop(idle);
    terminate(&mut child);
    assert_eq!((before, live), (Some(1), Some(IDLE as u64 + 1)));
    assert_eq!(
        now_fds,
        fds + IDLE,
        "{IDLE} idle connections took {} descriptors",
        now_fds as i64 - fds as i64
    );
}

/// The `/proc/<pid>/task/<tid>` paths of the server's threads named
/// `planartest-exec`.
#[cfg(target_os = "linux")]
fn exec_threads(pid: u32) -> Vec<String> {
    let mut tids = Vec::new();
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).expect("proc task") {
        let task = task.expect("task entry").path();
        // A thread that exited between the listing and this read has no
        // `comm` left, and is not the standing thread.
        let comm = std::fs::read_to_string(task.join("comm")).unwrap_or_default();
        if comm.trim() == "planartest-exec" {
            tids.push(task.display().to_string());
        }
    }
    tids
}

#[cfg(target_os = "linux")]
#[test]
fn one_standing_execute_thread_serves_every_fresh_seed() {
    const SEEDS: u64 = 50;
    let path = socket_path("exec-thread");
    let mut child = spawn_serve(&["--unix", path.to_str().unwrap()]);
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr"));
    await_banner(&mut stderr, "unix");

    let (mut client, mut rx) = connect(&path);
    let ingested = ask(
        &mut client,
        &mut rx,
        r#"{"op":"ingest","name":"g","spec":"tri_grid(8,8)"}"#,
    );
    assert_eq!(ingested.get("ok").unwrap().as_bool(), Some(true));
    let mut after_first = Vec::new();
    for seed in 0..SEEDS {
        let r = ask(
            &mut client,
            &mut rx,
            &format!(r#"{{"op":"query","graph":"g","epsilon":0.2,"phases":5,"seed":{seed}}}"#),
        );
        assert_eq!(r.get("cache").unwrap().as_str(), Some("cold"));
        if seed == 0 {
            after_first = exec_threads(child.id());
        }
    }
    let after_last = exec_threads(child.id());
    let stats = ask(&mut client, &mut rx, r#"{"op":"stats"}"#);

    drop((client, rx));
    drop(child.stdin.take());
    assert!(child.wait().expect("serve exits").success());
    assert_eq!(after_first.len(), 1, "execute threads: {after_first:?}");
    assert_eq!(after_first, after_last, "the execute thread was replaced");
    assert_eq!(
        stats.get("engine_passes").and_then(Value::as_u64),
        Some(SEEDS)
    );
}
