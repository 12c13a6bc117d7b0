//! The transport layer: listeners, connections, outbound writers, and
//! the shared submission queue.
//!
//! `planartest serve` used to be a synchronous loop over one stdin
//! pipe. This module decouples *how requests arrive* from *how they
//! are scheduled*: every transport (stdio, unix socket, TCP) frames
//! its byte stream into LDJSON requests ([`FrameReader`]) and pushes
//! them — tagged with a [`ConnectionId`] — into one shared
//! [`SubmissionQueue`]. The scheduler's background drain loop
//! (`scheduler::Server`) is the only consumer: it takes everything
//! queued whenever anything is, and routes each response back through
//! [`Connections`] to the connection that asked, in that connection's
//! submission order.
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
//! Lifetime: everything the server knows about a connection — its
//! response order, in-flight count, outbound queue and force-close
//! hook — is one record in [`Connections`]. A connection is done when
//! its reader has ended and every submission it read has been
//! answered, or when a write to it fails: its writer then writes what
//! is queued and exits, and the record leaves the table with the
//! socket handles it holds. Read-side EOF alone closes nothing, so a
//! client may close its sending side and still collect its answers
//! (`printf '…' | nc -U sock`, or the stdio pipe itself), then read
//! end of stream. Answers to a connection that is done count as
//! losses. EOF on *stdin* additionally requests a graceful shutdown of
//! the whole server (the drain loop flushes every pending query before
//! exiting), which is also what the CLI's SIGTERM handler triggers.
//! The shutdown flush closes every outbound queue, waits a short grace
//! period for the writers to drain, force-closes sockets whose writers
//! are stuck on a non-reading peer, and joins the writer threads —
//! responses that could not be delivered during that window are
//! tallied separately from mid-flight losses.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::telemetry::{Clock, Telemetry, WakeReason};
use crate::wire::{FrameError, FrameReader, Value};

/// Identifies one client connection for the lifetime of the server.
/// Ids are handed out in registration order with no reserved values;
/// the CLI attaches stdio first (unless `--no-stdio`), so stdio is
/// connection 0 *there*, but embedders that go straight to
/// [`spawn_unix_listener`]/[`spawn_tcp_listener`] hand id 0 to their
/// first socket client.
pub type ConnectionId = u64;

/// How often blocked waits re-check the shutdown flag (the empty-queue
/// wait in the drain loop and the in-flight gate), and how long an
/// accept loop backs off after a failed accept.
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
    /// (stamped by [`SubmissionQueue::push_all`]; the origin of the
    /// queue-wait stage span).
    pub at_micros: u64,
}

impl Submission {
    /// A submission awaiting its arrival stamp (set by
    /// [`SubmissionQueue::push_all`]).
    #[must_use]
    pub fn new(conn: ConnectionId, request: Result<Value, String>) -> Submission {
        Submission {
            conn,
            request,
            at_micros: 0,
        }
    }
}

#[derive(Debug, Default)]
struct QueueState {
    items: Vec<Submission>,
    /// Whether the execute thread has finished the overlapped cycle (the
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
    /// Where each listener accepts: the shutdown request connects to
    /// each once, so accept loops blocked in `accept` see the flag.
    listeners: Mutex<Vec<ListenAddr>>,
    /// Deepest the queue has ever been (updated by
    /// [`push_all`](SubmissionQueue::push_all), never reset): the
    /// after-the-fact overload witness the `stats` op reports as
    /// `queue_depth_hwm`.
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
            listeners: Mutex::default(),
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
    pub fn push(&self, sub: Submission) {
        self.push_all([sub]);
    }

    /// Enqueues submissions atomically — one arrival stamp, one lock,
    /// one wake — so the drain loop takes all of them in one cycle
    /// unless a cycle is already running.
    pub fn push_all(&self, subs: impl IntoIterator<Item = Submission>) {
        let at_micros = self.clock.lock().expect("queue clock lock").now_micros();
        let mut st = self.state.lock().expect("queue lock");
        st.items
            .extend(subs.into_iter().map(|sub| Submission { at_micros, ..sub }));
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
        let listeners = std::mem::take(&mut *self.listeners.lock().expect("listeners lock"));
        for addr in listeners {
            // The connection only wakes the accept loop, which drops it.
            let _ = match addr {
                #[cfg(unix)]
                ListenAddr::Unix(path) => UnixStream::connect(path).map(drop),
                ListenAddr::Tcp(addr) => TcpStream::connect(addr).map(drop),
            };
        }
    }

    /// Records where a listener accepts, so that
    /// [`request_shutdown`](SubmissionQueue::request_shutdown) wakes it.
    fn wake_on_shutdown(&self, addr: ListenAddr) {
        self.listeners.lock().expect("listeners lock").push(addr);
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until something is queued, then takes the whole pending
    /// batch along with the [`WakeReason`] of its cycle: `Shutdown` once
    /// shutdown was requested (the flush), else `Arrival`. Returns
    /// `None` when shutting down with an empty queue — the drain loop's
    /// exit.
    pub(crate) fn wait_cycle(&self) -> Option<(Vec<Submission>, WakeReason)> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            let shutting = self.shutting_down();
            if !st.items.is_empty() {
                let reason = if shutting {
                    WakeReason::Shutdown
                } else {
                    WakeReason::Arrival
                };
                return Some((std::mem::take(&mut st.items), reason));
            }
            if shutting {
                return None;
            }
            st = self.wake.wait_timeout(st, POLL).expect("queue lock").0;
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
                return Some(std::mem::take(&mut st.items));
            }
            st = self.wake.wait_timeout(st, POLL).expect("queue lock").0;
        }
    }
}

/// An admission ticket: one response owed to a connection, delivered
/// in sequence order relative to the connection's other tickets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Token {
    conn: ConnectionId,
    seq: u64,
}

/// A force-close hook (socket `shutdown(Both)`), used by the shutdown
/// flush to unstick a writer blocked on a peer that stopped reading.
type Closer = Box<dyn Fn() + Send + Sync>;

/// Everything the server knows about one connection.
struct Record {
    state: Mutex<RecordState>,
    /// Signals every waiter on the record: the writer (a line queued,
    /// or the queue closed), the in-flight gate (a slot released) and
    /// the shutdown flush (the queue drained).
    wake: Condvar,
    closer: Option<Closer>,
}

#[derive(Default)]
struct RecordState {
    /// Next sequence number to hand out at admission.
    next_assign: u64,
    /// Next sequence number the wire is waiting on.
    next_flush: u64,
    /// Answers fulfilled ahead of `next_flush`.
    buffered: BTreeMap<u64, String>,
    /// Submissions read but not yet answered (the inbound gate).
    in_flight: usize,
    /// The reader has ended ([`Connections::end_input`]).
    input_ended: bool,
    /// Lines waiting for the writer.
    lines: VecDeque<String>,
    /// No further lines: input ended with nothing in flight, a write
    /// failed, or the shutdown flush began. The writer drains what is
    /// queued and exits; later answers are losses.
    closed: bool,
    /// The writer took a batch and is mid-write (so "drained" is
    /// `lines.is_empty() && !writing`).
    writing: bool,
}

/// Counters shared between [`Connections`] and every writer thread.
#[derive(Default)]
struct OutboundTotals {
    /// Mid-flight losses (server running, response undeliverable),
    /// keyed by the addressed connection. Entries outlive the
    /// connection's record — that is the point.
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

type Records = Mutex<HashMap<ConnectionId, Arc<Record>>>;

/// Every live connection's record, keyed by [`ConnectionId`]: its
/// response order, in-flight count, outbound queue and force-close
/// hook.
///
/// Each submission is admitted in arrival order and handed a token;
/// fulfilling a token buffers its response until the connection's
/// contiguous prefix is complete, so responses leave in submission
/// order however the scheduler finishes them. The prefix goes onto a
/// bounded outbound queue written by the connection's dedicated writer
/// thread, so one stalled client never blocks the drain loop or its
/// neighbours. A full queue sheds the newest response for that
/// connection (`responses_shed`); a failed write (client went away)
/// closes the connection, and every response it loses is tallied per
/// connection in the response-loss counters, so "how many answers
/// never reached a client" is answerable from the `stats` op after the
/// fact — mid-flight losses and shutdown-flush losses on separate
/// ledgers.
#[derive(Default)]
pub struct Connections {
    /// Shared with the writer threads, which remove their own record.
    records: Arc<Records>,
    writer_threads: Mutex<Vec<thread::JoinHandle<()>>>,
    next: AtomicU64,
    totals: Arc<OutboundTotals>,
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
        self.open(writer, None)
    }

    /// [`register`](Connections::register) with a force-close hook
    /// (socket transports).
    fn open(&self, writer: Box<dyn Write + Send>, closer: Option<Closer>) -> ConnectionId {
        let conn = self.next.fetch_add(1, Ordering::SeqCst);
        let record = Arc::new(Record {
            state: Mutex::default(),
            wake: Condvar::new(),
            closer,
        });
        self.records
            .lock()
            .expect("records lock")
            .insert(conn, Arc::clone(&record));
        let (records, totals) = (Arc::clone(&self.records), Arc::clone(&self.totals));
        let handle = thread::Builder::new()
            .name(format!("planartest-writer-{conn}"))
            .spawn(move || {
                writer_loop(conn, &record, writer, &totals);
                records.lock().expect("records lock").remove(&conn);
            })
            .expect("spawn outbound writer");
        let mut threads = self.writer_threads.lock().expect("writer threads lock");
        threads.retain(|t| !t.is_finished());
        threads.push(handle);
        conn
    }

    fn record(&self, conn: ConnectionId) -> Option<Arc<Record>> {
        self.records
            .lock()
            .expect("records lock")
            .get(&conn)
            .cloned()
    }

    /// Marks `conn`'s input as ended (its reader saw EOF or an error).
    /// Once every submission it read is answered, its outbound queue
    /// closes: the writer writes what is queued and exits, and the
    /// record leaves the table.
    pub fn end_input(&self, conn: ConnectionId) {
        if let Some(record) = self.record(conn) {
            let mut st = record.state.lock().expect("record lock");
            st.input_ended = true;
            st.closed |= st.in_flight == 0;
            drop(st);
            record.wake.notify_all();
        }
    }

    /// Number of live connections.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.lock().expect("records lock").len()
    }

    /// Whether no connection is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reserves the next response slot for `conn`, in call order.
    pub(crate) fn admit(&self, conn: ConnectionId) -> Token {
        let seq = self.record(conn).map_or(0, |record| {
            let mut st = record.state.lock().expect("record lock");
            let seq = st.next_assign;
            st.next_assign += 1;
            seq
        });
        Token { conn, seq }
    }

    /// Delivers the response line to an admitted token: buffers it,
    /// then hands the connection's complete prefix to its writer
    /// thread, releasing one in-flight slot per answer. The caller
    /// renders the line, so nothing is formatted under the
    /// connection's lock. Returns `false` when
    /// an answer it passed on could not be queued: the connection is
    /// gone (a loss) or its outbound queue is full (a shed).
    pub(crate) fn fulfill(&self, token: Token, response: String) -> bool {
        let Some(record) = self.record(token.conn) else {
            self.totals.record_losses(token.conn, 1);
            return false;
        };
        let cap = self.outbound_depth.load(Ordering::Relaxed);
        let (mut lost, mut shed) = (0, 0);
        let mut guard = record.state.lock().expect("record lock");
        let st = &mut *guard;
        if st.closed {
            lost += 1;
        } else {
            st.buffered.insert(token.seq, response);
        }
        while let Some(line) = st.buffered.remove(&st.next_flush) {
            st.next_flush += 1;
            st.in_flight = st.in_flight.saturating_sub(1);
            if cap > 0 && st.lines.len() >= cap {
                shed += 1;
            } else {
                st.lines.push_back(line);
                self.totals
                    .outbound_hwm
                    .fetch_max(st.lines.len(), Ordering::Relaxed);
            }
        }
        st.closed |= st.input_ended && st.in_flight == 0;
        drop(guard);
        record.wake.notify_all();
        self.totals.record_losses(token.conn, lost);
        self.totals.shed.fetch_add(shed, Ordering::Relaxed);
        lost + shed == 0
    }

    /// Blocks until `conn` may have another submission in flight (or
    /// `abort` turns true, e.g. server shutdown). Returns whether the
    /// slot was acquired. Connections under the cap — or an unbounded
    /// (0) cap, a closed connection or an id without a record —
    /// acquire immediately.
    pub(crate) fn acquire_submission_slot(
        &self,
        conn: ConnectionId,
        abort: &dyn Fn() -> bool,
    ) -> bool {
        let Some(record) = self.record(conn) else {
            return !abort();
        };
        let cap = self.max_in_flight.load(Ordering::Relaxed);
        let mut st = record.state.lock().expect("record lock");
        loop {
            if abort() {
                return false;
            }
            if cap == 0 || st.in_flight < cap || st.closed {
                st.in_flight += 1;
                return true;
            }
            st = record.wake.wait_timeout(st, POLL).expect("record lock").0;
        }
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
        let records: Vec<Arc<Record>> = self
            .records
            .lock()
            .expect("records lock")
            .values()
            .cloned()
            .collect();
        for record in &records {
            record.state.lock().expect("record lock").closed = true;
            record.wake.notify_all();
        }
        let deadline = Instant::now() + FLUSH_GRACE;
        for record in &records {
            let mut st = record.state.lock().expect("record lock");
            loop {
                let now = Instant::now();
                if (st.lines.is_empty() && !st.writing) || now >= deadline {
                    break;
                }
                st = record
                    .wake
                    .wait_timeout(st, deadline - now)
                    .expect("record lock")
                    .0;
            }
            let stuck = !st.lines.is_empty() || st.writing;
            drop(st);
            if let (true, Some(closer)) = (stuck, &record.closer) {
                closer();
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
/// record in one gulp and writes it with a single flush — queue depth
/// amortizes straight into fewer syscalls under load — stamping one
/// write span per line on the service telemetry. It returns once the
/// record is closed and drained. A failed write closes the record and
/// counts the whole unflushed gulp plus everything still queued or
/// buffered as losses (mid-flight or shutdown, depending on the flush
/// flag).
fn writer_loop(
    conn: ConnectionId,
    record: &Record,
    mut writer: Box<dyn Write + Send>,
    totals: &OutboundTotals,
) {
    loop {
        let batch = {
            let mut st = record.state.lock().expect("record lock");
            loop {
                if !st.lines.is_empty() {
                    st.writing = true;
                    break Some(std::mem::take(&mut st.lines));
                }
                if st.closed {
                    break None;
                }
                st = record.wake.wait(st).expect("record lock");
            }
        };
        let Some(batch) = batch else {
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
        let mut st = record.state.lock().expect("record lock");
        st.writing = false;
        if !ok {
            st.closed = true;
            let undelivered = batch.len() + st.lines.len() + st.buffered.len();
            st.lines.clear();
            st.buffered.clear();
            drop(st);
            record.wake.notify_all();
            totals.record_losses(conn, undelivered as u64);
            return;
        }
        if st.lines.is_empty() {
            record.wake.notify_all();
        }
    }
}

/// Reads frames off `reader` and feeds them into the queue tagged with
/// `conn`, until EOF or a connection-level I/O error, then ends `conn`'s
/// input ([`Connections::end_input`]). Per-frame failures (oversized,
/// bad UTF-8) are pushed as error submissions so the scheduler answers
/// them in-band, and reading continues. Each submission first acquires
/// `conn`'s in-flight slot, so a firehose connection blocks here — in
/// its own reader thread — instead of flooding the shared queue.
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
    connections.end_input(conn);
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
    closer: Option<Closer>,
    connections: &Arc<Connections>,
    queue: &Arc<SubmissionQueue>,
    max_frame: usize,
) where
    S: Read + Send + 'static,
{
    let conn = connections.open(writer, closer);
    let queue = Arc::clone(queue);
    let connections = Arc::clone(connections);
    thread::Builder::new()
        .name(format!("planartest-conn-{conn}"))
        .spawn(move || pump_frames(stream, conn, &queue, &connections, max_frame))
        .expect("spawn connection reader");
}

/// What a listener's `split` hands to [`adopt_stream`]: the read half,
/// the boxed write half, and an optional force-close hook.
type SplitStream<S> = (S, Box<dyn Write + Send>, Option<Closer>);

/// Where a listener accepts connections.
#[derive(Debug)]
enum ListenAddr {
    #[cfg(unix)]
    Unix(PathBuf),
    Tcp(SocketAddr),
}

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
    queue.wake_on_shutdown(ListenAddr::Unix(path.to_path_buf()));
    spawn_accept_loop("unix", listener, connections, queue, max_frame);
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
    // A listener on every address is woken through loopback.
    let mut wake = bound;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    queue.wake_on_shutdown(ListenAddr::Tcp(wake));
    spawn_accept_loop("tcp", listener, connections, queue, max_frame);
    Ok(bound)
}

fn spawn_accept_loop<L: Accept + Send + 'static>(
    transport: &str,
    listener: L,
    connections: &Arc<Connections>,
    queue: &Arc<SubmissionQueue>,
    max_frame: usize,
) {
    let connections = Arc::clone(connections);
    let queue = Arc::clone(queue);
    thread::Builder::new()
        .name(format!("planartest-{transport}-accept"))
        .spawn(move || accept_loop(&listener, &connections, &queue, max_frame))
        .expect("spawn accept loop");
}

/// Shared accept loop over any blocking listener: adopts each accepted
/// stream until shutdown, which wakes the blocked `accept` by
/// connecting once ([`SubmissionQueue::request_shutdown`]). A failed
/// accept — `EMFILE`, say — backs off for [`POLL`] and retries.
fn accept_loop<L: Accept>(
    listener: &L,
    connections: &Arc<Connections>,
    queue: &Arc<SubmissionQueue>,
    max_frame: usize,
) {
    while !queue.shutting_down() {
        let accepted = listener.accept_stream().map(L::split);
        if queue.shutting_down() {
            break;
        }
        match accepted {
            Ok((reader, writer, closer)) => {
                adopt_stream(reader, writer, closer, connections, queue, max_frame);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => thread::sleep(POLL),
        }
    }
}

/// The tiny listener abstraction the accept loop is generic over.
trait Accept {
    type Stream: Read + Send + 'static;
    fn accept_stream(&self) -> io::Result<Self::Stream>;
    /// Splits an accepted stream into its read half, boxed write half
    /// and force-close hook.
    fn split(stream: Self::Stream) -> SplitStream<Self::Stream>;
}

/// One accepted socket, shared by its reader, its writer and its
/// force-close hook: `&UnixStream` and `&TcpStream` read and write, and
/// `shutdown` takes `&self`, so a connection holds one descriptor.
struct Shared<S>(Arc<S>);

impl<S> Read for Shared<S>
where
    for<'a> &'a S: Read,
{
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self.0).read(buf)
    }
}

impl<S> Write for Shared<S>
where
    for<'a> &'a S: Write,
{
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        (&*self.0).write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        (&*self.0).flush()
    }
}

impl<S> Shared<S>
where
    S: Send + Sync + 'static,
    for<'a> &'a S: Read + Write,
{
    /// The reader, the writer and a force-close hook that calls
    /// `shutdown(Both)`, all on this one socket.
    fn into_halves(self, shutdown: fn(&S, Shutdown) -> io::Result<()>) -> SplitStream<Self> {
        let (reader, socket) = (Shared(Arc::clone(&self.0)), Arc::clone(&self.0));
        let closer = move || {
            let _ = shutdown(&socket, Shutdown::Both);
        };
        (reader, Box::new(self), Some(Box::new(closer)))
    }
}

#[cfg(unix)]
impl Accept for UnixListener {
    type Stream = Shared<UnixStream>;
    fn accept_stream(&self) -> io::Result<Self::Stream> {
        self.accept().map(|(s, _)| Shared(Arc::new(s)))
    }
    fn split(stream: Self::Stream) -> SplitStream<Self::Stream> {
        stream.into_halves(UnixStream::shutdown)
    }
}

impl Accept for TcpListener {
    type Stream = Shared<TcpStream>;
    fn accept_stream(&self) -> io::Result<Self::Stream> {
        self.accept().map(|(s, _)| Shared(Arc::new(s)))
    }
    fn split(stream: Self::Stream) -> SplitStream<Self::Stream> {
        stream.into_halves(TcpStream::shutdown)
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

    /// Admits one response for `conn` and fulfils it at once.
    fn send(conns: &Connections, conn: ConnectionId, line: &str) -> bool {
        conns.fulfill(conns.admit(conn), line.to_string())
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

    /// Polls until `conns` holds `live` records (writer threads remove
    /// their own, asynchronously).
    fn await_len(conns: &Connections, live: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while conns.len() != live {
            assert!(Instant::now() < deadline, "never reached {live} records");
            thread::sleep(Duration::from_millis(1));
        }
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
        // A batch pushed at once arrives at one instant.
        handle.advance(5);
        q.push_all([query_sub(3), query_sub(4)]);
        let (cycle, _) = q.wait_cycle().expect("cycle");
        let stamps: Vec<u64> = cycle.iter().map(|s| s.at_micros).collect();
        assert_eq!(stamps, [111, 333, 338, 338]);
    }

    #[test]
    fn arrival_fires_a_cycle_and_shutdown_flushes() {
        let q = Arc::new(SubmissionQueue::new());
        // A batch pushed at once is taken whole, by one arrival cycle…
        q.push_all([query_sub(1), control_sub(2)]);
        let (cycle, reason) = q.wait_cycle().expect("cycle");
        assert_eq!(cycle.len(), 2);
        assert_eq!(cycle[0].conn, 1);
        assert_eq!(reason, WakeReason::Arrival);
        assert_eq!(q.depth(), 0);
        // …and a wait on an empty queue fires on the next arrival.
        let pusher = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(10));
                q.push(query_sub(3));
            })
        };
        let (cycle, reason) = q.wait_cycle().expect("cycle");
        assert_eq!((cycle.len(), reason), (1, WakeReason::Arrival));
        pusher.join().unwrap();

        // Shutdown with pending work: the flush cycle fires instantly…
        q.push(query_sub(4));
        q.request_shutdown();
        let (flush, reason) = q.wait_cycle().expect("flush cycle");
        assert_eq!(flush.len(), 1);
        assert_eq!(reason, WakeReason::Shutdown);
        // …and an empty shutdown queue ends the loop.
        assert!(q.wait_cycle().is_none());
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
        let (cycle, _) = q.wait_cycle().expect("cycle");
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
        let (cycle, _) = q.wait_cycle().expect("cycle");
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
        assert!(send(&conns, ok, "delivered"));
        assert!(send(&conns, broken, "the first loss kills the queue"));
        // The writer thread fails the write, then marks the queue dead.
        let deadline = Instant::now() + Duration::from_secs(10);
        while conns.lost_responses() == 0 {
            assert!(
                Instant::now() < deadline,
                "the failed write was never counted"
            );
            thread::sleep(Duration::from_millis(1));
        }
        assert!(!send(&conns, broken, "the second loss hits a dead queue"));
        assert!(!send(&conns, 777, "never-registered target"));
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
        assert!(send(&conns, a, "hello"));
        assert_eq!(await_lines(&sink, 1), "hello\n");
        // Nothing is in flight on `b`, so ending its input closes it:
        // its writer exits and takes the record along.
        conns.end_input(b);
        assert!(
            !send(&conns, b, "gone"),
            "dropped connections are unreachable"
        );
        assert_eq!(conns.lost_by_connection(), vec![(b, 1)]);
        await_len(&conns, 1);
        assert_eq!(conns.len(), 1);
        assert!(!conns.is_empty());
        assert!(format!("{conns:?}").contains("live"));
        conns.finish_shutdown_flush();
    }

    #[test]
    fn out_of_order_fulfilment_flushes_in_admission_order() {
        let conns = Connections::new();
        let sink: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let conn = conns.register(Box::new(SharedSink(Arc::clone(&sink))));
        let t0 = conns.admit(conn);
        let t1 = conns.admit(conn);
        let t2 = conns.admit(conn);
        conns.fulfill(t2, Value::obj().field("i", 2u64).to_string());
        conns.fulfill(t0, Value::obj().field("i", 0u64).to_string());
        assert_eq!(
            await_lines(&sink, 1).lines().count(),
            1,
            "prefix [0] flushes alone"
        );
        conns.fulfill(t1, Value::obj().field("i", 1u64).to_string());
        let text = await_lines(&sink, 3);
        let order: Vec<u64> = text
            .lines()
            .map(|l| Value::parse(l).unwrap().get("i").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(order, [0, 1, 2]);
        conns.finish_shutdown_flush();
    }

    #[test]
    fn lanes_are_independent_across_connections() {
        let conns = Connections::new();
        let a_sink: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let b_sink: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let a = conns.register(Box::new(SharedSink(Arc::clone(&a_sink))));
        let b = conns.register(Box::new(SharedSink(Arc::clone(&b_sink))));
        let ta = conns.admit(a);
        let tb = conns.admit(b);
        // B's first response is not gated on A's.
        conns.fulfill(tb, Value::obj().field("who", "b").to_string());
        assert_eq!(await_lines(&b_sink, 1).lines().count(), 1);
        assert!(sink_contents(&a_sink).is_empty());
        conns.fulfill(ta, Value::obj().field("who", "a").to_string());
        assert_eq!(await_lines(&a_sink, 1).lines().count(), 1);
        conns.finish_shutdown_flush();
    }

    #[test]
    fn enqueue_delivers_in_order_through_the_writer_thread() {
        let conns = Connections::new();
        let sink: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let a = conns.register(Box::new(SharedSink(Arc::clone(&sink))));
        assert!(send(&conns, a, "first"));
        assert!(send(&conns, a, "second"));
        assert!(send(&conns, a, "third"));
        assert_eq!(await_lines(&sink, 3), "first\nsecond\nthird\n");
        assert_eq!(conns.lost_responses(), 0);
        assert_eq!(conns.shed_responses(), 0);
        assert!(conns.outbound_depth_hwm() >= 1);
        // Unknown targets are mid-flight losses.
        assert!(!send(&conns, 777, "never-registered"));
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
            if send(&conns, a, &format!("line-{i}")) {
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
        send(&conns, broken, "flushed into a dead peer");
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
        assert!(send(&conns, a, "answer one"));
        waiter.join().unwrap();
        assert!(acquired.load(Ordering::SeqCst));
        // An aborting gate gives up instead of blocking forever.
        assert!(!conns.acquire_submission_slot(a, &|| true));
    }

    #[test]
    fn a_failed_accept_backs_off_and_the_loop_keeps_accepting() {
        /// Fails once with `EMFILE`, then yields one client, then asks
        /// for shutdown once that client's request is queued.
        struct Stub {
            queue: Arc<SubmissionQueue>,
            calls: AtomicUsize,
        }
        impl Accept for Stub {
            type Stream = io::Cursor<Vec<u8>>;
            fn accept_stream(&self) -> io::Result<Self::Stream> {
                match self.calls.fetch_add(1, Ordering::SeqCst) {
                    0 => Err(io::Error::from_raw_os_error(24)),
                    1 => Ok(io::Cursor::new(b"{\"op\":\"stats\"}\n".to_vec())),
                    _ => {
                        let deadline = Instant::now() + Duration::from_secs(10);
                        while self.queue.depth() == 0 {
                            assert!(Instant::now() < deadline, "request never queued");
                            thread::sleep(Duration::from_millis(1));
                        }
                        self.queue.request_shutdown();
                        Err(io::ErrorKind::Interrupted.into())
                    }
                }
            }
            fn split(stream: Self::Stream) -> SplitStream<Self::Stream> {
                (stream, Box::new(io::sink()), None)
            }
        }
        let queue = Arc::new(SubmissionQueue::new());
        let conns = Arc::new(Connections::new());
        let stub = Stub {
            queue: Arc::clone(&queue),
            calls: AtomicUsize::new(0),
        };
        let started = Instant::now();
        accept_loop(&stub, &conns, &queue, 1024);
        assert!(started.elapsed() >= POLL, "the failed accept backed off");
        assert_eq!(stub.calls.load(Ordering::SeqCst), 3);
        let (subs, _) = queue.wait_cycle().expect("the request reached the queue");
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].conn, 0);
        assert!(subs[0].request.is_ok());
        conns.finish_shutdown_flush();
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
        let (subs, _) = queue.wait_cycle().expect("cycle");
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
