//! The transport layer: listeners, connections, outbound writers, and
//! the shared submission queue.
//!
//! `planartest serve` used to be a synchronous loop over one stdin
//! pipe. This module decouples *how requests arrive* from *how they
//! are scheduled*: every transport (stdio, unix socket, TCP) frames
//! its byte stream into LDJSON requests ([`FrameReader`]) and pushes
//! them — tagged with a [`ConnectionId`] — into one shared
//! [`SubmissionQueue`]. The scheduler's background drain loop
//! (`scheduler::Server`) is the only consumer; it routes each response
//! back through [`Connections`] to the connection that asked, in that
//! connection's submission order.
//!
//! Per-connection failures stay per-connection: an oversized or
//! garbage frame becomes an in-band `{"ok":false,...}` response (the
//! reader resynchronises on the next newline), and a dead socket just
//! drops its connection. No *frame* a client sends can take the
//! server down.
//!
//! The output side is decoupled the same way. Each connection owns a
//! bounded **outbound queue** drained by a dedicated writer thread, so
//! a live client that stops *reading* while responses pile into its
//! full socket buffer stalls only its own writer — never the drain
//! loop. When a connection's outbound queue is full the newest
//! response for it is **shed** (counted separately from undeliverable
//! losses): the client asked faster than it reads, so it pays, nobody
//! else. On the inbound side a per-connection **in-flight cap** blocks
//! that connection's reader once too many of its submissions are
//! unanswered, so a firehose cannot starve the shared submission
//! queue either.
//!
//! End-of-life: read-side EOF never tears down a connection's write
//! half — a client may close its sending side and still collect its
//! answers (`printf '…' | nc -U sock`, or the stdio pipe itself). A
//! connection's outbound queue goes dead when a *write* to it fails
//! (later responses to it are counted as losses); EOF on *stdin*
//! additionally requests a graceful shutdown of the whole server (the
//! drain loop flushes every pending query before exiting), which is
//! also what the CLI's SIGTERM handler triggers. The shutdown flush
//! closes every outbound queue, waits a short grace period for the
//! writers to drain, force-closes sockets whose writers are stuck on a
//! non-reading peer, and joins the writer threads — responses that
//! could not be delivered during that window are tallied separately
//! from mid-flight losses.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::protocol;
use crate::telemetry::{Clock, Telemetry, WakeReason};
use crate::wire::{FrameError, FrameReader, Value};

/// Identifies one client connection for the lifetime of the server.
/// Ids are handed out in registration order with no reserved values;
/// the CLI attaches stdio first (unless `--no-stdio`), so stdio is
/// connection 0 *there*, but embedders that go straight to
/// [`spawn_unix_listener`]/[`spawn_tcp_listener`] hand id 0 to their
/// first socket client.
pub type ConnectionId = u64;

/// How often blocked waits re-check the shutdown flag (accept loops,
/// the empty-queue wait in the drain loop, and the in-flight gate).
const POLL: Duration = Duration::from_millis(25);

/// A single response write slower than this counts as a writer stall
/// (a peer that is alive but not keeping up with its socket).
const WRITER_STALL_MICROS: u64 = 5_000;

/// How long the shutdown flush waits for outbound writers to drain
/// before force-closing their sockets.
const FLUSH_GRACE: Duration = Duration::from_secs(2);

/// One framed request as the scheduler sees it: where it came from,
/// and either the parsed JSON document or the per-frame failure to
/// answer in-band.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The connection the response must be routed back to.
    pub conn: ConnectionId,
    /// The parsed request, or the framing/parse error message.
    pub request: Result<Value, String>,
    /// When this submission entered the queue, on the service clock
    /// (stamped by [`SubmissionQueue::push`]; the origin of the
    /// queue-wait stage span).
    pub at_micros: u64,
}

impl Submission {
    /// A submission awaiting its arrival stamp (set by
    /// [`SubmissionQueue::push`]).
    #[must_use]
    pub fn new(conn: ConnectionId, request: Result<Value, String>) -> Submission {
        Submission {
            conn,
            request,
            at_micros: 0,
        }
    }

    /// Whether this submission benefits from waiting in the queue.
    /// Only `query`/`batch` requests coalesce; control ops (ingest,
    /// stats, …) and malformed frames wake the drain loop immediately.
    #[must_use]
    pub fn coalescable(&self) -> bool {
        matches!(&self.request, Ok(req) if protocol::coalescable(req))
    }
}

#[derive(Debug, Default)]
struct QueueState {
    items: Vec<Submission>,
    /// When the oldest pending submission arrived (the linger clock).
    first_at: Option<Instant>,
    /// Whether anything pending is non-coalescable.
    urgent: bool,
    /// Whether the exec pool has finished the overlapped cycle (the
    /// pipelined drain loop's rendezvous; see [`SubmissionQueue::
    /// wait_overlap`]). Lives under the queue mutex so the done signal
    /// and the new-submission signal share one condvar without lost
    /// wakeups.
    exec_done: bool,
}

/// The shared submission queue between all transports and the one
/// drain loop.
///
/// Transports [`push`](SubmissionQueue::push); the scheduler's drain
/// thread takes whole cycles via `wait_cycle`. The queue also carries
/// the server-wide shutdown flag so accept loops, transports and the
/// drain loop agree on one source of truth.
#[derive(Debug)]
pub struct SubmissionQueue {
    state: Mutex<QueueState>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Deepest the queue has ever been (updated by [`push`]
    /// (SubmissionQueue::push), never reset): the after-the-fact
    /// overload witness the `stats` op reports as `queue_depth_hwm`.
    depth_hwm: AtomicUsize,
    /// The clock arrival stamps are taken on. Replaced with the
    /// service's telemetry clock by `Server::start`, so queue-wait
    /// spans and scheduler stage spans share one timebase.
    clock: Mutex<Clock>,
}

impl Default for SubmissionQueue {
    fn default() -> Self {
        SubmissionQueue {
            state: Mutex::default(),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            depth_hwm: AtomicUsize::new(0),
            clock: Mutex::new(Clock::wall()),
        }
    }
}

impl SubmissionQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        SubmissionQueue::default()
    }

    /// Replaces the clock arrival stamps are taken on (the server wires
    /// in the service's telemetry clock so all stage spans share one
    /// timebase).
    pub fn set_clock(&self, clock: Clock) {
        *self.clock.lock().expect("queue clock lock") = clock;
    }

    /// Enqueues one submission — stamping its arrival time — and wakes
    /// the drain loop.
    pub fn push(&self, mut sub: Submission) {
        sub.at_micros = self.clock.lock().expect("queue clock lock").now_micros();
        let mut st = self.state.lock().expect("queue lock");
        if st.items.is_empty() {
            st.first_at = Some(Instant::now());
        }
        st.urgent |= !sub.coalescable();
        st.items.push(sub);
        self.depth_hwm.fetch_max(st.items.len(), Ordering::Relaxed);
        self.wake.notify_all();
    }

    /// Number of submissions waiting for the next cycle.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Deepest the queue has ever been since the server started.
    /// Unlike [`depth`](SubmissionQueue::depth) this survives the
    /// drain, so a past overload episode stays visible in `stats`
    /// after the backlog clears.
    #[must_use]
    pub fn depth_hwm(&self) -> usize {
        self.depth_hwm.load(Ordering::Relaxed)
    }

    /// Flags the server for graceful shutdown: the drain loop flushes
    /// everything pending (answering in-flight queries), then exits;
    /// accept loops stop accepting.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until a cycle is due, then takes the whole pending batch
    /// along with the [`WakeReason`] that made it due.
    ///
    /// A cycle fires when any of: something non-coalescable is pending
    /// (control ops don't benefit from lingering), the queue depth
    /// reached `wake_depth`, the oldest pending submission has waited
    /// `linger`, or shutdown was requested (the flush). When several
    /// conditions hold at once the reported reason is the
    /// highest-priority one (shutdown > control > depth > linger).
    /// Returns `None` when shutting down with an empty queue — the
    /// drain loop's exit.
    pub(crate) fn wait_cycle(
        &self,
        linger: Duration,
        wake_depth: usize,
    ) -> Option<(Vec<Submission>, WakeReason)> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            let shutting = self.shutting_down();
            if st.items.is_empty() {
                if shutting {
                    return None;
                }
                st = self.wake.wait_timeout(st, POLL).expect("queue lock").0;
                continue;
            }
            let waited = st.first_at.map_or(Duration::ZERO, |first| first.elapsed());
            let reason = if shutting {
                Some(WakeReason::Shutdown)
            } else if st.urgent {
                Some(WakeReason::Control)
            } else if st.items.len() >= wake_depth {
                Some(WakeReason::Depth)
            } else if waited >= linger {
                Some(WakeReason::Linger)
            } else {
                None
            };
            if let Some(reason) = reason {
                st.first_at = None;
                st.urgent = false;
                return Some((std::mem::take(&mut st.items), reason));
            }
            let remaining = (linger - waited).min(POLL.max(Duration::from_millis(1)));
            st = self.wake.wait_timeout(st, remaining).expect("queue lock").0;
        }
    }

    /// Marks the start of an overlapped engine pass: until
    /// [`pipeline_done`](SubmissionQueue::pipeline_done) the drain
    /// thread collects fresh submissions through
    /// [`wait_overlap`](SubmissionQueue::wait_overlap).
    pub(crate) fn pipeline_begin(&self) {
        self.state.lock().expect("queue lock").exec_done = false;
    }

    /// Signals that the overlapped engine pass finished (called by the
    /// exec thread); wakes the drain thread out of
    /// [`wait_overlap`](SubmissionQueue::wait_overlap).
    pub(crate) fn pipeline_done(&self) {
        self.state.lock().expect("queue lock").exec_done = true;
        self.wake.notify_all();
    }

    /// Waits while an overlapped engine pass runs: returns
    /// `Some(batch)` as soon as fresh submissions arrive (so the drain
    /// thread can resolve them under the exec pass), or `None` once
    /// the pass finished or shutdown was requested — in which case any
    /// pending submissions stay queued for the next
    /// [`wait_cycle`](SubmissionQueue::wait_cycle).
    pub(crate) fn wait_overlap(&self) -> Option<Vec<Submission>> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if st.exec_done || self.shutting_down() {
                return None;
            }
            if !st.items.is_empty() {
                st.first_at = None;
                st.urgent = false;
                return Some(std::mem::take(&mut st.items));
            }
            st = self.wake.wait_timeout(st, POLL).expect("queue lock").0;
        }
    }
}

/// One connection's bounded outbound queue, drained by its dedicated
/// writer thread.
#[derive(Default)]
struct Outbound {
    state: Mutex<OutboundState>,
    /// Signals the writer thread: new line queued, or queue closed.
    ready: Condvar,
    /// Signals the shutdown flush: queue drained (or writer died).
    drained: Condvar,
}

#[derive(Default)]
struct OutboundState {
    lines: VecDeque<String>,
    /// No further enqueues; the writer drains what is queued and
    /// exits.
    closed: bool,
    /// The writer hit a write failure; the queue is abandoned.
    dead: bool,
    /// The writer popped a line and is mid-write (so "drained" is
    /// `lines.is_empty() && !writing`).
    writing: bool,
}

/// Counters shared between [`Connections`] and every writer thread.
#[derive(Default)]
struct OutboundTotals {
    /// Mid-flight losses (server running, response undeliverable),
    /// keyed by the addressed connection. Entries outlive
    /// deregistration — that is the point.
    lost: Mutex<HashMap<ConnectionId, u64>>,
    /// Sum of every count in `lost`, readable without the map lock.
    lost_total: AtomicU64,
    /// Losses during the shutdown flush window (peer gone or still
    /// not reading when the grace period expired) — deliberately a
    /// separate ledger from mid-flight losses.
    lost_shutdown: AtomicU64,
    /// Responses dropped because the addressed connection's outbound
    /// queue was full: the shed policy, not a delivery failure.
    shed: AtomicU64,
    /// Deepest any single connection's outbound queue has been.
    outbound_hwm: AtomicUsize,
    /// Single response writes slower than [`WRITER_STALL_MICROS`].
    stalls: AtomicU64,
    /// Set once the drain loop enters its shutdown flush; flips loss
    /// attribution from `lost` to `lost_shutdown`.
    flushing: AtomicBool,
    /// Write-span telemetry sink (installed by `Server::start`).
    telemetry: Mutex<Option<Arc<Telemetry>>>,
}

impl OutboundTotals {
    fn record_losses(&self, conn: ConnectionId, count: u64) {
        if count == 0 {
            return;
        }
        if self.flushing.load(Ordering::Relaxed) {
            self.lost_shutdown.fetch_add(count, Ordering::Relaxed);
        } else {
            *self
                .lost
                .lock()
                .expect("loss lock")
                .entry(conn)
                .or_insert(0) += count;
            self.lost_total.fetch_add(count, Ordering::Relaxed);
        }
    }
}

/// The write half of every live connection, keyed by [`ConnectionId`].
///
/// Responses are enqueued onto a bounded per-connection outbound
/// queue and written by that connection's dedicated writer thread, so
/// one stalled client never blocks the drain loop or its neighbours.
/// Per-connection response order is exactly submission order (one
/// queue, one writer). A full queue sheds the newest response for
/// that connection (`responses_shed`); a failed write (client went
/// away) marks the connection's queue dead, and every response it
/// loses is tallied per connection in the response-loss counters, so
/// "how many answers never reached a client" is answerable from the
/// `stats` op after the fact — mid-flight losses and shutdown-flush
/// losses on separate ledgers.
#[derive(Default)]
pub struct Connections {
    outbounds: Mutex<HashMap<ConnectionId, Arc<Outbound>>>,
    writer_threads: Mutex<Vec<thread::JoinHandle<()>>>,
    /// Force-close hooks (socket `shutdown(Both)`) used to unstick
    /// writers blocked on a non-reading peer during the flush.
    closers: Mutex<HashMap<ConnectionId, Box<dyn Fn() + Send>>>,
    next: AtomicU64,
    totals: Arc<OutboundTotals>,
    /// Submissions admitted but not yet answered, per connection (the
    /// inbound backpressure gate).
    in_flight: Mutex<HashMap<ConnectionId, usize>>,
    in_flight_wake: Condvar,
    /// Outbound queue capacity per connection; 0 = unbounded.
    outbound_depth: AtomicUsize,
    /// In-flight submission cap per connection; 0 = unbounded.
    max_in_flight: AtomicUsize,
}

impl fmt::Debug for Connections {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Connections")
            .field("live", &self.len())
            .finish()
    }
}

impl Connections {
    /// An empty connection table (unbounded queues until
    /// [`set_limits`](Connections::set_limits)).
    #[must_use]
    pub fn new() -> Self {
        Connections::default()
    }

    /// Sets the per-connection backpressure caps: `outbound_depth`
    /// responses may queue for a slow reader before shedding starts,
    /// and `max_in_flight` submissions may be unanswered before a
    /// connection's reader blocks. 0 means unbounded.
    pub fn set_limits(&self, outbound_depth: usize, max_in_flight: usize) {
        self.outbound_depth.store(outbound_depth, Ordering::Relaxed);
        self.max_in_flight.store(max_in_flight, Ordering::Relaxed);
    }

    /// Installs the telemetry sink writer threads stamp response-write
    /// spans on.
    pub(crate) fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        *self.totals.telemetry.lock().expect("telemetry lock") = Some(telemetry);
    }

    /// Registers a connection's write half; returns its id. A
    /// dedicated writer thread is spawned to drain the connection's
    /// outbound queue.
    pub fn register(&self, writer: Box<dyn Write + Send>) -> ConnectionId {
        let conn = self.next.fetch_add(1, Ordering::SeqCst);
        let outbound = Arc::new(Outbound::default());
        self.outbounds
            .lock()
            .expect("outbounds lock")
            .insert(conn, Arc::clone(&outbound));
        let totals = Arc::clone(&self.totals);
        let handle = thread::Builder::new()
            .name(format!("planartest-writer-{conn}"))
            .spawn(move || writer_loop(conn, &outbound, writer, &totals))
            .expect("spawn outbound writer");
        self.writer_threads
            .lock()
            .expect("writer threads lock")
            .push(handle);
        conn
    }

    /// Installs the force-close hook for a connection (socket
    /// transports only; used by the shutdown flush to unstick a writer
    /// blocked on a peer that stopped reading).
    fn set_closer(&self, conn: ConnectionId, closer: Box<dyn Fn() + Send>) {
        self.closers
            .lock()
            .expect("closers lock")
            .insert(conn, closer);
    }

    /// Drops a connection (its reader saw EOF or an error). Responses
    /// computed for it afterwards are counted as losses; responses
    /// already queued outbound are still written by the writer thread
    /// before it exits.
    pub fn deregister(&self, conn: ConnectionId) {
        let outbound = self.outbounds.lock().expect("outbounds lock").remove(&conn);
        if let Some(outbound) = outbound {
            outbound.state.lock().expect("outbound lock").closed = true;
            outbound.ready.notify_all();
        }
        self.closers.lock().expect("closers lock").remove(&conn);
    }

    /// Number of live connections.
    #[must_use]
    pub fn len(&self) -> usize {
        self.outbounds.lock().expect("outbounds lock").len()
    }

    /// Whether no connection is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hands one response line to `conn`'s writer thread, releasing
    /// the submission slot the response answers. Returns `false` when
    /// the response could not be queued: the connection is gone (a
    /// loss) or its outbound queue is full (a shed).
    pub(crate) fn enqueue(&self, conn: ConnectionId, line: &str) -> bool {
        self.release_submission_slot(conn);
        let outbound = self
            .outbounds
            .lock()
            .expect("outbounds lock")
            .get(&conn)
            .cloned();
        let Some(outbound) = outbound else {
            self.totals.record_losses(conn, 1);
            return false;
        };
        let cap = self.outbound_depth.load(Ordering::Relaxed);
        let mut st = outbound.state.lock().expect("outbound lock");
        if st.closed || st.dead {
            drop(st);
            self.totals.record_losses(conn, 1);
            return false;
        }
        if cap > 0 && st.lines.len() >= cap {
            drop(st);
            self.totals.shed.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        st.lines.push_back(line.to_string());
        self.totals
            .outbound_hwm
            .fetch_max(st.lines.len(), Ordering::Relaxed);
        drop(st);
        outbound.ready.notify_all();
        true
    }

    /// Blocks until `conn` may have another submission in flight (or
    /// `abort` turns true, e.g. server shutdown). Returns whether the
    /// slot was acquired. Connections under the cap — or an unbounded
    /// (0) cap — acquire immediately.
    pub(crate) fn acquire_submission_slot(
        &self,
        conn: ConnectionId,
        abort: &dyn Fn() -> bool,
    ) -> bool {
        loop {
            if abort() {
                return false;
            }
            let cap = self.max_in_flight.load(Ordering::Relaxed);
            let mut m = self.in_flight.lock().expect("in-flight lock");
            let count = m.entry(conn).or_insert(0);
            if cap == 0 || *count < cap {
                *count += 1;
                return true;
            }
            let _ = self
                .in_flight_wake
                .wait_timeout(m, POLL)
                .expect("in-flight lock");
        }
    }

    /// Releases one in-flight slot for `conn` (its response's fate was
    /// decided: queued, shed or lost). Saturates at zero so responses
    /// to submissions that never went through the gate are harmless.
    fn release_submission_slot(&self, conn: ConnectionId) {
        let mut m = self.in_flight.lock().expect("in-flight lock");
        if let Some(count) = m.get_mut(&conn) {
            *count = count.saturating_sub(1);
        }
        drop(m);
        self.in_flight_wake.notify_all();
    }

    /// Flips loss attribution to the shutdown ledger. Called by the
    /// drain loop the moment it starts its shutdown flush, so
    /// responses that fail delivery from here on are "lost during
    /// shutdown", not mid-flight.
    pub(crate) fn begin_shutdown_flush(&self) {
        self.totals.flushing.store(true, Ordering::Relaxed);
    }

    /// Closes every outbound queue, waits up to a grace period for the
    /// writers to drain, force-closes sockets whose writers are stuck
    /// on a non-reading peer, and joins all writer threads. After this
    /// returns, every deliverable response has been written.
    pub(crate) fn finish_shutdown_flush(&self) {
        self.begin_shutdown_flush();
        let outbounds: Vec<(ConnectionId, Arc<Outbound>)> = self
            .outbounds
            .lock()
            .expect("outbounds lock")
            .iter()
            .map(|(&c, ob)| (c, Arc::clone(ob)))
            .collect();
        for (_, outbound) in &outbounds {
            outbound.state.lock().expect("outbound lock").closed = true;
            outbound.ready.notify_all();
        }
        let deadline = Instant::now() + FLUSH_GRACE;
        for (conn, outbound) in &outbounds {
            let mut st = outbound.state.lock().expect("outbound lock");
            loop {
                if st.dead || (st.lines.is_empty() && !st.writing) {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                st = outbound
                    .drained
                    .wait_timeout(st, deadline - now)
                    .expect("outbound lock")
                    .0;
            }
            let stuck = !st.dead && (!st.lines.is_empty() || st.writing);
            drop(st);
            if stuck {
                if let Some(closer) = self.closers.lock().expect("closers lock").get(conn) {
                    closer();
                }
            }
        }
        let handles =
            std::mem::take(&mut *self.writer_threads.lock().expect("writer threads lock"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Total responses computed but never delivered while the server
    /// was running (shutdown-flush losses are on a separate ledger:
    /// [`lost_shutdown_responses`](Connections::lost_shutdown_responses)).
    #[must_use]
    pub fn lost_responses(&self) -> u64 {
        self.totals.lost_total.load(Ordering::Relaxed)
    }

    /// Responses that could not be delivered during the shutdown
    /// flush (peer gone, or still not reading when the grace period
    /// expired).
    #[must_use]
    pub fn lost_shutdown_responses(&self) -> u64 {
        self.totals.lost_shutdown.load(Ordering::Relaxed)
    }

    /// Responses shed because the addressed connection's outbound
    /// queue was full — the bounded-queue policy working, not a
    /// delivery failure.
    #[must_use]
    pub fn shed_responses(&self) -> u64 {
        self.totals.shed.load(Ordering::Relaxed)
    }

    /// Deepest any single connection's outbound queue has been.
    #[must_use]
    pub fn outbound_depth_hwm(&self) -> usize {
        self.totals.outbound_hwm.load(Ordering::Relaxed)
    }

    /// Single response writes that took suspiciously long (a live peer
    /// not keeping up with its socket).
    #[must_use]
    pub fn writer_stalls(&self) -> u64 {
        self.totals.stalls.load(Ordering::Relaxed)
    }

    /// Per-connection mid-flight response-loss counts, sorted by
    /// connection id. Connections with zero losses are absent.
    #[must_use]
    pub fn lost_by_connection(&self) -> Vec<(ConnectionId, u64)> {
        let mut rows: Vec<(ConnectionId, u64)> = self
            .totals
            .lost
            .lock()
            .expect("loss lock")
            .iter()
            .map(|(&c, &n)| (c, n))
            .collect();
        rows.sort_unstable();
        rows
    }
}

/// One connection's writer thread: takes *everything* queued on the
/// outbound in one gulp and writes it with a single flush — queue
/// depth amortizes straight into fewer syscalls under load — stamping
/// one write span per line on the service telemetry. A failed write
/// marks the queue dead and counts the whole unflushed gulp plus
/// everything still queued as losses (mid-flight or shutdown,
/// depending on the flush flag).
fn writer_loop(
    conn: ConnectionId,
    outbound: &Outbound,
    mut writer: Box<dyn Write + Send>,
    totals: &OutboundTotals,
) {
    loop {
        let batch = {
            let mut st = outbound.state.lock().expect("outbound lock");
            loop {
                if !st.lines.is_empty() {
                    st.writing = true;
                    break Some(std::mem::take(&mut st.lines));
                }
                if st.closed || st.dead {
                    break None;
                }
                st = outbound.ready.wait(st).expect("outbound lock");
            }
        };
        let Some(batch) = batch else {
            outbound.drained.notify_all();
            return;
        };
        let telemetry = totals.telemetry.lock().expect("telemetry lock").clone();
        let started_micros = telemetry.as_ref().map(|t| t.now_micros());
        let started = Instant::now();
        let ok = {
            let mut payload = String::with_capacity(batch.iter().map(|l| l.len() + 1).sum());
            for line in &batch {
                payload.push_str(line);
                payload.push('\n');
            }
            writer
                .write_all(payload.as_bytes())
                .and_then(|()| writer.flush())
                .is_ok()
        };
        let took_micros = match (&telemetry, started_micros) {
            (Some(t), Some(at)) => {
                let took = t.now_micros().saturating_sub(at);
                // The flush covered the whole batch; attribute the
                // span evenly so per-line write telemetry stays sane.
                let per_line = took / batch.len() as u64;
                for _ in 0..batch.len() {
                    t.record_write(per_line);
                }
                took
            }
            _ => u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
        };
        if took_micros > WRITER_STALL_MICROS {
            totals.stalls.fetch_add(1, Ordering::Relaxed);
        }
        let mut st = outbound.state.lock().expect("outbound lock");
        st.writing = false;
        if !ok {
            st.dead = true;
            let undelivered = batch.len() as u64 + st.lines.len() as u64;
            st.lines.clear();
            drop(st);
            totals.record_losses(conn, undelivered);
            outbound.drained.notify_all();
            return;
        }
        if st.lines.is_empty() {
            outbound.drained.notify_all();
        }
    }
}

/// Reads frames off `reader` and feeds them into the queue tagged with
/// `conn`, until EOF or a connection-level I/O error. Per-frame
/// failures (oversized, bad UTF-8) are pushed as error submissions so
/// the scheduler answers them in-band, and reading continues. Each
/// submission first acquires `conn`'s in-flight slot, so a firehose
/// connection blocks here — in its own reader thread — instead of
/// flooding the shared queue.
pub fn pump_frames<R: Read>(
    reader: R,
    conn: ConnectionId,
    queue: &SubmissionQueue,
    connections: &Connections,
    max_frame: usize,
) {
    let mut frames = FrameReader::new(reader, max_frame);
    let abort = || queue.shutting_down();
    loop {
        match frames.next_frame() {
            Ok(None) => break,
            Ok(Some(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                let request = Value::parse(&line).map_err(|e| format!("bad request: {e}"));
                if !connections.acquire_submission_slot(conn, &abort) {
                    break;
                }
                queue.push(Submission::new(conn, request));
            }
            Err(FrameError::Io(_)) => break,
            Err(recoverable) => {
                if !connections.acquire_submission_slot(conn, &abort) {
                    break;
                }
                queue.push(Submission::new(conn, Err(recoverable.to_string())));
            }
        }
    }
}

/// Attaches the stdio compatibility transport: stdout is registered as
/// a connection and a reader thread pumps stdin into the queue.
/// Returns the stdio connection id (always the first one registered —
/// 0 on a fresh server).
///
/// EOF on stdin requests a graceful server shutdown: stdio is the
/// controlling transport, exactly like the pre-socket serve loop where
/// closing the pipe ended the process (after, now, flushing pending
/// work).
pub fn spawn_stdio(
    connections: &Arc<Connections>,
    queue: &Arc<SubmissionQueue>,
    max_frame: usize,
) -> ConnectionId {
    let conn = connections.register(Box::new(io::stdout()));
    let queue = Arc::clone(queue);
    let connections = Arc::clone(connections);
    thread::Builder::new()
        .name("planartest-stdio".into())
        .spawn(move || {
            pump_frames(io::stdin(), conn, &queue, &connections, max_frame);
            // EOF on stdin does NOT close stdout: the shutdown flush
            // still answers everything this pipe submitted (the
            // classic `printf '…' | planartest serve` usage).
            queue.request_shutdown();
        })
        .expect("spawn stdio reader");
    conn
}

/// Registers an accepted socket and spawns its reader thread. The
/// optional `closer` force-closes the socket (used by the shutdown
/// flush to unstick a writer blocked on a non-reading peer).
fn adopt_stream<S>(
    stream: S,
    writer: Box<dyn Write + Send>,
    closer: Option<Box<dyn Fn() + Send>>,
    connections: &Arc<Connections>,
    queue: &Arc<SubmissionQueue>,
    max_frame: usize,
) where
    S: Read + Send + 'static,
{
    let conn = connections.register(writer);
    if let Some(closer) = closer {
        connections.set_closer(conn, closer);
    }
    let queue = Arc::clone(queue);
    let connections = Arc::clone(connections);
    thread::Builder::new()
        .name(format!("planartest-conn-{conn}"))
        .spawn(move || {
            pump_frames(stream, conn, &queue, &connections, max_frame);
            // Read-side EOF is NOT deregistration: a client may close
            // its write half and still read its answers (`printf … |
            // nc -U sock`). A fully-gone peer is cleaned up by the
            // first failing write in the writer thread.
        })
        .expect("spawn connection reader");
}

/// What a listener's `split` hands to [`adopt_stream`]: the read half,
/// the boxed write half, and an optional force-close hook.
type SplitStream<S> = (S, Box<dyn Write + Send>, Option<Box<dyn Fn() + Send>>);

/// Starts a unix-socket listener feeding the queue. Any stale socket
/// file at `path` is replaced. The accept loop runs until shutdown.
///
/// # Errors
///
/// Binding failures (permissions, path length, missing directory).
#[cfg(unix)]
pub fn spawn_unix_listener(
    connections: &Arc<Connections>,
    queue: &Arc<SubmissionQueue>,
    path: &Path,
    max_frame: usize,
) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let connections = Arc::clone(connections);
    let queue = Arc::clone(queue);
    thread::Builder::new()
        .name("planartest-unix-accept".into())
        .spawn(move || {
            accept_loop(&listener, &connections, &queue, max_frame, |stream| {
                let stream: UnixStream = stream;
                stream.set_nonblocking(false)?;
                let writer = stream.try_clone()?;
                let close_half = stream.try_clone()?;
                let closer = Box::new(move || {
                    let _ = close_half.shutdown(Shutdown::Both);
                });
                Ok((
                    stream,
                    Box::new(writer) as Box<dyn Write + Send>,
                    Some(closer as Box<dyn Fn() + Send>),
                ))
            });
        })
        .expect("spawn unix accept loop");
    Ok(())
}

/// Starts a TCP listener feeding the queue; returns the bound address
/// (so `--tcp 127.0.0.1:0` callers learn their ephemeral port). The
/// accept loop runs until shutdown.
///
/// # Errors
///
/// Binding failures (address in use, permissions).
pub fn spawn_tcp_listener(
    connections: &Arc<Connections>,
    queue: &Arc<SubmissionQueue>,
    addr: impl ToSocketAddrs,
    max_frame: usize,
) -> io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let connections = Arc::clone(connections);
    let queue = Arc::clone(queue);
    thread::Builder::new()
        .name("planartest-tcp-accept".into())
        .spawn(move || {
            accept_loop(&listener, &connections, &queue, max_frame, |stream| {
                let stream: TcpStream = stream;
                stream.set_nonblocking(false)?;
                let writer = stream.try_clone()?;
                let close_half = stream.try_clone()?;
                let closer = Box::new(move || {
                    let _ = close_half.shutdown(Shutdown::Both);
                });
                Ok((
                    stream,
                    Box::new(writer) as Box<dyn Write + Send>,
                    Some(closer as Box<dyn Fn() + Send>),
                ))
            });
        })
        .expect("spawn tcp accept loop");
    Ok(bound)
}

/// Shared accept loop over any nonblocking listener: polls for new
/// clients, re-checking the shutdown flag between attempts, and adopts
/// each accepted stream. `split` turns the accepted stream into its
/// (read half, boxed write half, force-close hook) triple.
fn accept_loop<L, S, F>(
    listener: &L,
    connections: &Arc<Connections>,
    queue: &Arc<SubmissionQueue>,
    max_frame: usize,
    split: F,
) where
    L: Accept<Stream = S>,
    S: Read + Send + 'static,
    F: Fn(S) -> io::Result<SplitStream<S>>,
{
    while !queue.shutting_down() {
        match listener.accept_stream() {
            Ok(stream) => match split(stream) {
                Ok((reader, writer, closer)) => {
                    adopt_stream(reader, writer, closer, connections, queue, max_frame);
                }
                // A client that vanished between accept and setup.
                Err(_) => continue,
            },
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// The tiny listener abstraction the accept loop is generic over.
trait Accept {
    type Stream;
    fn accept_stream(&self) -> io::Result<Self::Stream>;
}

#[cfg(unix)]
impl Accept for UnixListener {
    type Stream = UnixStream;
    fn accept_stream(&self) -> io::Result<UnixStream> {
        self.accept().map(|(s, _)| s)
    }
}

impl Accept for TcpListener {
    type Stream = TcpStream;
    fn accept_stream(&self) -> io::Result<TcpStream> {
        self.accept().map(|(s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query_sub(conn: ConnectionId) -> Submission {
        Submission::new(
            conn,
            Ok(Value::obj().field("op", "query").field("graph", "g")),
        )
    }

    fn control_sub(conn: ConnectionId) -> Submission {
        Submission::new(conn, Ok(Value::obj().field("op", "stats")))
    }

    struct SharedSink(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn sink_contents(sink: &Arc<Mutex<Vec<u8>>>) -> String {
        String::from_utf8(sink.lock().unwrap().clone()).unwrap()
    }

    /// Polls until the sink holds `lines` newline-terminated lines
    /// (writer threads deliver asynchronously).
    fn await_lines(sink: &Arc<Mutex<Vec<u8>>>, lines: usize) -> String {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let text = sink_contents(sink);
            if text.matches('\n').count() >= lines {
                return text;
            }
            assert!(
                Instant::now() < deadline,
                "sink never reached {lines} lines"
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn coalescable_classification() {
        assert!(query_sub(0).coalescable());
        assert!(Submission::new(0, Ok(Value::obj().field("op", "batch"))).coalescable());
        assert!(!control_sub(0).coalescable());
        assert!(!Submission::new(0, Err("bad".into())).coalescable());
    }

    #[test]
    fn control_ops_fire_a_lingering_cycle_immediately() {
        let q = SubmissionQueue::new();
        q.push(query_sub(1));
        q.push(control_sub(2));
        // Huge linger + depth, yet the control op makes the cycle due.
        let (cycle, reason) = q
            .wait_cycle(Duration::from_secs(3600), usize::MAX)
            .expect("cycle");
        assert_eq!(cycle.len(), 2);
        assert_eq!(cycle[0].conn, 1);
        assert_eq!(reason, WakeReason::Control);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn wake_depth_fires_without_linger_expiry() {
        let q = SubmissionQueue::new();
        q.push(query_sub(1));
        q.push(query_sub(2));
        let (cycle, reason) = q.wait_cycle(Duration::from_secs(3600), 2).expect("cycle");
        assert_eq!(cycle.len(), 2);
        assert_eq!(reason, WakeReason::Depth);
    }

    #[test]
    fn push_stamps_arrival_on_the_injected_clock() {
        let q = SubmissionQueue::new();
        let (clock, handle) = Clock::mock(0);
        q.set_clock(clock);
        handle.advance(111);
        q.push(query_sub(1));
        handle.advance(222);
        q.push(query_sub(2));
        let (cycle, _) = q.wait_cycle(Duration::ZERO, usize::MAX).expect("cycle");
        assert_eq!(cycle[0].at_micros, 111);
        assert_eq!(cycle[1].at_micros, 333);
    }

    #[test]
    fn linger_expiry_fires_and_shutdown_flushes() {
        let q = SubmissionQueue::new();
        q.push(query_sub(1));
        let t = Instant::now();
        let (cycle, reason) = q
            .wait_cycle(Duration::from_millis(40), usize::MAX)
            .expect("cycle");
        assert_eq!(cycle.len(), 1);
        assert_eq!(reason, WakeReason::Linger);
        assert!(t.elapsed() >= Duration::from_millis(40));

        // Shutdown with pending work: the flush cycle fires instantly…
        q.push(query_sub(3));
        q.request_shutdown();
        let (flush, reason) = q
            .wait_cycle(Duration::from_secs(3600), usize::MAX)
            .expect("flush cycle");
        assert_eq!(flush.len(), 1);
        assert_eq!(reason, WakeReason::Shutdown);
        // …and an empty shutdown queue ends the loop.
        assert!(q
            .wait_cycle(Duration::from_secs(3600), usize::MAX)
            .is_none());
        assert!(q.shutting_down());
    }

    #[test]
    fn depth_hwm_survives_the_drain() {
        let q = SubmissionQueue::new();
        assert_eq!(q.depth_hwm(), 0);
        q.push(query_sub(1));
        q.push(query_sub(2));
        q.push(query_sub(3));
        assert_eq!(q.depth_hwm(), 3);
        let (cycle, _) = q.wait_cycle(Duration::ZERO, usize::MAX).expect("cycle");
        assert_eq!(cycle.len(), 3);
        assert_eq!(q.depth(), 0, "instantaneous depth resets on drain");
        assert_eq!(q.depth_hwm(), 3, "high-water mark does not");
        // A shallower refill cannot lower it.
        q.push(query_sub(4));
        assert_eq!(q.depth_hwm(), 3);
    }

    #[test]
    fn wait_overlap_collects_arrivals_until_exec_done() {
        let q = Arc::new(SubmissionQueue::new());
        q.pipeline_begin();
        q.push(query_sub(1));
        // New arrivals come straight out of the overlap wait…
        let batch = q.wait_overlap().expect("overlap batch");
        assert_eq!(batch.len(), 1);
        assert_eq!(q.depth(), 0);
        // …and pipeline_done ends the overlap even with an empty queue.
        let q2 = Arc::clone(&q);
        let done = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            q2.pipeline_done();
        });
        assert!(q.wait_overlap().is_none());
        done.join().unwrap();
        // Items pushed outside an overlap stay queued for wait_cycle.
        q.push(query_sub(2));
        assert_eq!(q.depth(), 1);
        let (cycle, _) = q.wait_cycle(Duration::ZERO, usize::MAX).expect("cycle");
        assert_eq!(cycle.len(), 1);
    }

    #[test]
    fn undeliverable_responses_are_counted_per_connection() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let conns = Connections::new();
        let sink: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let ok = conns.register(Box::new(SharedSink(Arc::clone(&sink))));
        let broken = conns.register(Box::new(FailingWriter));
        assert_eq!(conns.lost_responses(), 0);
        assert!(conns.enqueue(ok, "delivered"));
        assert!(conns.enqueue(broken, "the first loss kills the queue"));
        // The writer thread fails the write, then marks the queue dead.
        let deadline = Instant::now() + Duration::from_secs(10);
        while conns.lost_responses() == 0 {
            assert!(
                Instant::now() < deadline,
                "the failed write was never counted"
            );
            thread::sleep(Duration::from_millis(1));
        }
        assert!(!conns.enqueue(broken, "the second loss hits a dead queue"));
        assert!(!conns.enqueue(777, "never-registered target"));
        assert_eq!(await_lines(&sink, 1), "delivered\n");
        assert_eq!(conns.lost_responses(), 3);
        assert_eq!(
            conns.lost_by_connection(),
            vec![(broken, 2), (777, 1)],
            "losses are attributed to the addressed connection"
        );
        conns.finish_shutdown_flush();
    }

    #[test]
    fn connections_route_and_drop() {
        let conns = Connections::new();
        let sink: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let a = conns.register(Box::new(SharedSink(Arc::clone(&sink))));
        let b = conns.register(Box::new(io::sink()));
        assert_ne!(a, b);
        assert_eq!(conns.len(), 2);
        assert!(conns.enqueue(a, "hello"));
        assert_eq!(await_lines(&sink, 1), "hello\n");
        conns.deregister(b);
        assert!(
            !conns.enqueue(b, "gone"),
            "dropped connections are unreachable"
        );
        assert_eq!(conns.lost_by_connection(), vec![(b, 1)]);
        assert_eq!(conns.len(), 1);
        assert!(!conns.is_empty());
        assert!(format!("{conns:?}").contains("live"));
        conns.finish_shutdown_flush();
    }

    #[test]
    fn enqueue_delivers_in_order_through_the_writer_thread() {
        let conns = Connections::new();
        let sink: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let a = conns.register(Box::new(SharedSink(Arc::clone(&sink))));
        assert!(conns.enqueue(a, "first"));
        assert!(conns.enqueue(a, "second"));
        assert!(conns.enqueue(a, "third"));
        assert_eq!(await_lines(&sink, 3), "first\nsecond\nthird\n");
        assert_eq!(conns.lost_responses(), 0);
        assert_eq!(conns.shed_responses(), 0);
        assert!(conns.outbound_depth_hwm() >= 1);
        // Unknown targets are mid-flight losses.
        assert!(!conns.enqueue(777, "never-registered"));
        assert_eq!(conns.lost_responses(), 1);
    }

    #[test]
    fn full_outbound_queues_shed_instead_of_blocking() {
        /// A writer that blocks until allowed, emulating a stuck peer.
        struct GatedWriter {
            allow: Arc<AtomicBool>,
            sink: Arc<Mutex<Vec<u8>>>,
        }
        impl Write for GatedWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                while !self.allow.load(Ordering::Relaxed) {
                    thread::sleep(Duration::from_millis(1));
                }
                self.sink.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let conns = Connections::new();
        conns.set_limits(2, 0);
        let allow = Arc::new(AtomicBool::new(false));
        let sink: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let a = conns.register(Box::new(GatedWriter {
            allow: Arc::clone(&allow),
            sink: Arc::clone(&sink),
        }));
        // The writer thread blocks on line 1; the queue holds 2 more;
        // everything past that is shed, and nothing here blocks.
        let mut queued = 0;
        let mut shed = 0;
        for i in 0..20 {
            if conns.enqueue(a, &format!("line-{i}")) {
                queued += 1;
            } else {
                shed += 1;
            }
            if conns.shed_responses() > 0 && shed >= 3 {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        assert!(shed > 0, "a full queue must shed");
        assert_eq!(conns.shed_responses(), shed);
        assert_eq!(conns.lost_responses(), 0, "sheds are not losses");
        assert!(conns.outbound_depth_hwm() >= 2);
        // Un-stick the peer: everything queued (not shed) drains.
        allow.store(true, Ordering::Relaxed);
        let text = await_lines(&sink, queued as usize);
        assert!(text.starts_with("line-0\n"), "delivery stays in order");
        conns.finish_shutdown_flush();
    }

    #[test]
    fn shutdown_flush_losses_land_on_their_own_ledger() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let conns = Connections::new();
        let broken = conns.register(Box::new(FailingWriter));
        conns.begin_shutdown_flush();
        conns.enqueue(broken, "flushed into a dead peer");
        conns.finish_shutdown_flush();
        assert_eq!(conns.lost_responses(), 0, "not a mid-flight loss");
        assert_eq!(conns.lost_shutdown_responses(), 1);
        assert!(conns.lost_by_connection().is_empty());
    }

    #[test]
    fn in_flight_gate_blocks_at_the_cap_and_releases_on_enqueue() {
        let conns = Arc::new(Connections::new());
        conns.set_limits(0, 2);
        let sink: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let a = conns.register(Box::new(SharedSink(Arc::clone(&sink))));
        let never = || false;
        assert!(conns.acquire_submission_slot(a, &never));
        assert!(conns.acquire_submission_slot(a, &never));
        // Third acquisition blocks until a response decides a fate.
        let acquired = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&acquired);
        let gated = Arc::clone(&conns);
        let waiter = thread::spawn(move || {
            assert!(gated.acquire_submission_slot(a, &|| false));
            flag.store(true, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(60));
        assert!(!acquired.load(Ordering::SeqCst), "cap must hold the gate");
        assert!(conns.enqueue(a, "answer one"));
        waiter.join().unwrap();
        assert!(acquired.load(Ordering::SeqCst));
        // An aborting gate gives up instead of blocking forever.
        assert!(!conns.acquire_submission_slot(a, &|| true));
    }

    #[test]
    fn pump_reports_bad_frames_in_band_and_keeps_reading() {
        let queue = SubmissionQueue::new();
        let conns = Connections::new();
        let mut input = Vec::new();
        input.extend_from_slice(b"{\"op\":\"stats\"}\n");
        input.extend_from_slice(b"not json\n");
        input.extend_from_slice(&[b'x'; 64]);
        input.push(b'\n');
        input.extend_from_slice(b"\xff\xfe\n");
        input.extend_from_slice(b"  \n"); // blank: skipped entirely
        input.extend_from_slice(b"{\"op\":\"families\"}\n");
        pump_frames(&input[..], 9, &queue, &conns, 32);
        let (subs, _) = queue.wait_cycle(Duration::ZERO, usize::MAX).expect("cycle");
        assert_eq!(subs.len(), 5);
        assert!(subs.iter().all(|s| s.conn == 9));
        assert!(subs[0].request.is_ok());
        assert!(subs[1]
            .request
            .as_ref()
            .unwrap_err()
            .contains("bad request"));
        assert!(subs[2].request.as_ref().unwrap_err().contains("32-byte"));
        assert!(subs[3].request.as_ref().unwrap_err().contains("UTF-8"));
        assert!(subs[4].request.is_ok());
    }
}
