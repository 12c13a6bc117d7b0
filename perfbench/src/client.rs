//! The server under test and the load generators that drive it.
//!
//! The server runs in a child process (this binary's `serve` mode: the
//! service's [`Server`] with default serve options and one-thread
//! engine work, listening on a unix socket), so its memory and CPU are
//! its own and it receives nothing but request lines.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use planartest_service::wire::Value;
use planartest_service::{ServeOptions, Server, Service};

use crate::workload::Request;

/// How long any single response may take before the run counts it as
/// missing.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// `perfbench serve <socket>`: hosts the service until stdin closes.
pub fn serve_main(args: &[String]) -> ExitCode {
    let Some(socket) = args.first() else {
        eprintln!("usage: perfbench serve <socket>");
        return ExitCode::from(2);
    };
    // Default serve options, with one group thread and (through
    // `PLANARTEST_THREADS`) one-thread engines; see `ServerProc::start`.
    let server = Server::start(
        Service::new().with_group_threads(1),
        ServeOptions::default(),
    );
    if let Err(e) = server.listen_unix(Path::new(socket)) {
        eprintln!("error: cannot listen on {socket}: {e}");
        server.request_shutdown();
        let _ = server.join();
        return ExitCode::from(2);
    }
    println!("ready");
    let _ = std::io::stdout().flush();
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.request_shutdown();
    let _ = server.join();
    let _ = std::fs::remove_file(socket);
    ExitCode::SUCCESS
}

/// A running server child; killed and reaped on drop if not stopped.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    pub socket: PathBuf,
}

impl ServerProc {
    /// Spawns the server and waits until it listens on `socket`.
    pub fn start(socket: PathBuf) -> Result<ServerProc, String> {
        let _ = std::fs::remove_file(&socket);
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        // The server does its engine work on one thread: the default
        // `Auto` backend runs a wide batch on a worker per core in
        // lockstep, so on a host whose cores are shared with other
        // tenants every round waits for the busiest core, and run-to-run
        // spread measured the neighbours rather than the code.
        //
        // glibc gives new threads arenas of their own, and which arena
        // an engine pass's short-lived buffers land in decides whether
        // the peak resident set grows (`monte_carlo`'s peak read 235 to
        // 277 MiB across seeds with two arenas, 156 to 161 with one);
        // one arena makes the peak a property of the code rather than
        // of thread scheduling.
        let mut child = Command::new(exe)
            .env("PLANARTEST_THREADS", "1")
            .env("MALLOC_ARENA_MAX", "1")
            .arg("serve")
            .arg(&socket)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take();
        let proc = ServerProc {
            child,
            stdin,
            socket,
        };
        let mut line = String::new();
        BufReader::new(stdout.expect("piped stdout"))
            .read_line(&mut line)
            .map_err(|e| format!("server banner: {e}"))?;
        if line.trim() != "ready" {
            return Err("server exited before listening".to_string());
        }
        Ok(proc)
    }

    /// The server process's peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// CPU time the server process has used so far (user + system, all
    /// threads), in seconds.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("read server stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th fields of the whole line, in clock ticks.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let ticks: Vec<f64> = rest
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|f| f.parse().ok())
            .collect();
        match ticks[..] {
            [user, system] => Ok((user + system) / 100.0),
            _ => Err("no cpu times in server stat".to_string()),
        }
    }

    /// Graceful stop: close stdin, wait for the drain loop to flush.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| format!("wait server: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One client connection speaking the line protocol.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    pub fn connect(socket: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(RESPONSE_TIMEOUT))
            .map_err(|e| format!("set timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one response line (`None` when the connection closed or
    /// timed out).
    pub fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 && line.ends_with('\n') => Some(line),
            _ => None,
        }
    }

    /// Sends a control request and parses its response.
    pub fn call(&mut self, line: &str) -> Result<Value, String> {
        self.send(line)?;
        let resp = self.recv().ok_or("no response to control request")?;
        Value::parse(resp.trim()).map_err(|e| format!("control response: {e}"))
    }

    /// Whether the server sent nothing beyond the responses already
    /// read (an extra line means some request was answered twice).
    pub fn is_idle(&mut self) -> bool {
        if !self.reader.buffer().is_empty() {
            return false;
        }
        let stream = self.reader.get_mut();
        let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
        let mut byte = [0u8; 1];
        let idle = match stream.read(&mut byte) {
            Ok(n) => n == 0,
            Err(e) => matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
        };
        let _ = stream.set_read_timeout(Some(RESPONSE_TIMEOUT));
        idle
    }
}

/// One request as the client saw it. Times are µs after the phase
/// origin; `due` is when the request should have been sent.
pub struct Sample {
    pub req: Request,
    pub due: u64,
    pub sent: u64,
    pub recv: u64,
    /// The response line (`None` if it never came).
    pub resp: Option<String>,
}

impl Sample {
    /// Client-side latency, timed from when the request was due.
    pub fn latency_us(&self) -> u64 {
        self.recv.saturating_sub(self.due)
    }
}

/// What one load phase produced.
#[derive(Default)]
pub struct Phase {
    /// Requests the phase meant to send.
    pub attempted: usize,
    /// Every request that got a response or failed, in index
    /// (schedule) order.
    pub samples: Vec<Sample>,
    /// Phase wall time, origin to the last response, in seconds.
    pub wall_s: f64,
    /// Connections that received a line no request asked for.
    pub extra_responses: u64,
}

fn micros_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_micros()).unwrap_or(u64::MAX)
}

type ClientLog = (Vec<(u64, Sample)>, bool);

/// A closed loop on one connection: after each response the loop calls
/// `between` and then sends the next request, until `duration` has
/// passed. Request `i` is `make(i)`, from 0; each is timed from when it
/// was sent, so the time `between` takes is not latency.
pub fn closed_loop(
    socket: &Path,
    duration: Duration,
    make: &dyn Fn(u64) -> Request,
    between: &mut dyn FnMut(),
) -> Result<Phase, String> {
    let deadline = u64::try_from(duration.as_micros()).unwrap_or(u64::MAX);
    let mut conn = Conn::connect(socket)?;
    let origin = Instant::now();
    let mut samples = Vec::new();
    let mut due = 0;
    while due < deadline {
        let req = make(samples.len() as u64);
        let sent = micros_since(origin);
        conn.send(&req.line)?;
        let resp = conn.recv();
        let recv = micros_since(origin);
        let lost = resp.is_none();
        samples.push(Sample {
            req,
            due,
            sent,
            recv,
            resp,
        });
        if lost {
            break;
        }
        between();
        due = micros_since(origin);
    }
    let extra_responses = u64::from(!conn.is_idle());
    Ok(Phase {
        attempted: samples.len(),
        wall_s: samples.last().map_or(0, |s| s.recv) as f64 / 1e6,
        samples,
        extra_responses,
    })
}

/// Which of `conns` connections carries each request. The server
/// answers in submission order per connection, and an `ingest` or
/// `stats` op holds its connection until the engine cycle in flight
/// ends, so a cache hit queued behind either would measure that wait
/// rather than the serving path. With two or more connections, the
/// slow-lane requests (see [`Request::slow_lane`]), if any, therefore
/// share the last connection and the others are dealt round-robin over
/// the rest.
fn route(requests: &[Request], conns: usize) -> Vec<usize> {
    let slow = conns > 1 && requests.iter().any(Request::slow_lane);
    let fast = if slow { conns - 1 } else { conns };
    let mut dealt = 0;
    requests
        .iter()
        .map(|r| {
            if slow && r.slow_lane() {
                conns - 1
            } else {
                dealt += 1;
                (dealt - 1) % fast
            }
        })
        .collect()
}

/// An open loop: each request goes out at its due time whatever the
/// responses do. Requests (in due order) are spread over `conns`
/// connections by [`route`]; the calling thread sends them all on
/// schedule and one thread per connection reads the responses.
///
/// With a `window`, a request also waits until its connection has
/// fewer than `window` unanswered requests, so a burst due all at once
/// stays within the server's per-connection in-flight cap.
pub fn open_loop(
    socket: &Path,
    conns: usize,
    requests: &[Request],
    window: Option<u64>,
) -> Result<Phase, String> {
    let conns = conns.max(1);
    let lane = route(requests, conns);
    let answered: Vec<AtomicU64> = (0..conns).map(|_| AtomicU64::new(0)).collect();
    let mut sent = vec![0u64; conns];
    let mut clients = Vec::with_capacity(conns);
    let mut writers = Vec::with_capacity(conns);
    for _ in 0..conns {
        let conn = Conn::connect(socket)?;
        writers.push(conn.writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        clients.push(conn);
    }
    let sent_at: Vec<AtomicU64> = requests.iter().map(|_| AtomicU64::new(0)).collect();
    let origin = Instant::now();
    let results: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let readers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (sent_at, lane, answered) = (&sent_at, &lane, &answered[c]);
                scope.spawn(move || -> Result<ClientLog, String> {
                    let mut out = Vec::new();
                    for i in (0..requests.len()).filter(|&i| lane[i] == c) {
                        let resp = conn.recv();
                        let recv = micros_since(origin);
                        let sent = sent_at[i].load(Ordering::Acquire);
                        answered.fetch_add(1, Ordering::Release);
                        let lost = resp.is_none();
                        out.push((
                            i as u64,
                            Sample {
                                req: requests[i].clone(),
                                due: requests[i].due_micros,
                                sent,
                                recv,
                                resp,
                            },
                        ));
                        if lost {
                            break;
                        }
                    }
                    let idle = conn.is_idle();
                    Ok((out, idle))
                })
            })
            .collect();
        'send: for (i, req) in requests.iter().enumerate() {
            let now = micros_since(origin);
            if req.due_micros > now {
                std::thread::sleep(Duration::from_micros(req.due_micros - now));
            }
            let c = lane[i];
            if let Some(window) = window {
                let waiting = Instant::now();
                while sent[c].saturating_sub(answered[c].load(Ordering::Acquire)) >= window {
                    if waiting.elapsed() > RESPONSE_TIMEOUT {
                        break 'send;
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            // Release: a reader that sees this request's response also
            // sees when it was sent.
            sent_at[i].store(micros_since(origin), Ordering::Release);
            if writers[c].write_all(req.line.as_bytes()).is_err() {
                break;
            }
            sent[c] += 1;
        }
        readers
            .into_iter()
            .map(|h| h.join().expect("open-loop reader panicked"))
            .collect()
    });
    collect(results, requests.len())
}

fn collect(results: Vec<Result<ClientLog, String>>, attempted: usize) -> Result<Phase, String> {
    let mut samples = Vec::new();
    let mut extra = 0;
    for r in results {
        let (s, idle) = r?;
        samples.extend(s);
        extra += u64::from(!idle);
    }
    samples.sort_by_key(|(i, _)| *i);
    let samples: Vec<Sample> = samples.into_iter().map(|(_, s)| s).collect();
    let wall_s = samples.iter().map(|s| s.recv).max().unwrap_or(0) as f64 / 1e6;
    Ok(Phase {
        attempted,
        samples,
        wall_s,
        extra_responses: extra,
    })
}
