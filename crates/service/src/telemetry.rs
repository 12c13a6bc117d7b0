//! Zero-dependency telemetry substrate: injectable monotonic clock,
//! log-bucketed latency histograms, per-query stage timing, drain-loop
//! cycle accounting, and an opt-in LDJSON trace log.
//!
//! Everything the serving stack measures flows through one shared
//! [`Telemetry`] object (an `Arc` held by the [`Service`],
//! the [`Server`] drain loop and the transports):
//!
//! * **Clock** — [`Clock`] abstracts monotonic time so every duration
//!   in the system can run on a deterministic [`MockClock`] under test
//!   (no wall-clock flakes) while production uses a monotonic
//!   [`Instant`] anchor.
//! * **Histograms** — [`Histogram`] is an HDR-style log-bucketed
//!   histogram: 16 linear sub-buckets per power of two, so any
//!   recorded value is representable within a relative error of
//!   `1/16` (6.25%) using a few KiB of fixed storage and O(1)
//!   recording. Percentile queries return the *upper edge* of the
//!   containing bucket, so estimates never under-report a latency.
//! * **Stage timing** — [`StageTimes`] partitions a query's lifetime
//!   into contiguous queue → resolve → execute → respond spans whose
//!   sum is *exactly* the end-to-end latency (the histograms add at
//!   most one bucket of relative error on top). End-to-end latency is
//!   attributed per `(property, cache outcome)`, so cold engine
//!   passes, certificate replays and warm accepts each get their own
//!   distribution — the observable form of the paper's one-sided cost
//!   asymmetry (a reject certificate replays for free; a fresh accept
//!   pays a full partition).
//! * **Cycle accounting** — per drain-loop cycle: the wake reason
//!   ([`WakeReason`]: depth / linger expiry / control / shutdown),
//!   cycle width, group fan-out, and the coalescing ratio
//!   (engine-bound queries per engine pass).
//! * **Engine rollups** — every engine pass's [`SimStats`] are folded
//!   into a [`PassRollup`], so `metrics` exposes cumulative simulated
//!   rounds/messages/words alongside service-level latency.
//! * **Trace** — an opt-in LDJSON event log (`planartest serve
//!   --trace FILE`): per served query, `submit` / `resolve` /
//!   `execute` / `respond` records with connection id, query id and
//!   stage durations, suitable for replay into a load harness.
//!
//! [`Service`]: crate::Service
//! [`Server`]: crate::Server
//! [`Instant`]: std::time::Instant

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use planartest_sim::{PassRollup, SimStats};

use crate::query::{CacheStatus, Property};
use crate::transport::ConnectionId;
use crate::wire::Value;

// ---------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------

/// Shared state of a [`MockClock`].
#[derive(Debug, Default)]
struct MockState {
    /// Current mock time in microseconds.
    now: AtomicU64,
    /// Auto-tick step added after every read (0 = manual-only).
    tick: AtomicU64,
}

/// A monotonic clock the whole telemetry substrate reads through.
///
/// Production code uses [`Clock::wall`] (an [`Instant`] anchor);
/// tests inject [`Clock::mock`] so every stage duration, histogram
/// bucket and trace timestamp is deterministic.
#[derive(Debug, Clone)]
pub struct Clock(ClockInner);

#[derive(Debug, Clone)]
enum ClockInner {
    /// Monotonic wall clock, microseconds since construction.
    Wall(Instant),
    /// Deterministic test clock driven by a [`MockClock`] handle.
    Mock(Arc<MockState>),
}

impl Clock {
    /// A monotonic wall clock anchored now.
    #[must_use]
    pub fn wall() -> Clock {
        Clock(ClockInner::Wall(Instant::now()))
    }

    /// A deterministic mock clock starting at 0, plus its driving
    /// handle. With `tick_micros > 0` every read *returns* the current
    /// time and then advances it by the step — so consecutive stamps
    /// are distinct and fully reproducible without any manual
    /// [`MockClock::advance`] calls.
    #[must_use]
    pub fn mock(tick_micros: u64) -> (Clock, MockClock) {
        let state = Arc::new(MockState {
            now: AtomicU64::new(0),
            tick: AtomicU64::new(tick_micros),
        });
        (
            Clock(ClockInner::Mock(Arc::clone(&state))),
            MockClock { state },
        )
    }

    /// Microseconds on this clock (monotone, starts near 0).
    #[must_use]
    pub fn now_micros(&self) -> u64 {
        match &self.0 {
            ClockInner::Wall(base) => base.elapsed().as_micros() as u64,
            ClockInner::Mock(state) => {
                let tick = state.tick.load(Ordering::Relaxed);
                state.now.fetch_add(tick, Ordering::Relaxed)
            }
        }
    }
}

/// The driving handle of a mock [`Clock`] (see [`Clock::mock`]).
#[derive(Debug, Clone)]
pub struct MockClock {
    state: Arc<MockState>,
}

impl MockClock {
    /// Advances the mock time by `micros`.
    pub fn advance(&self, micros: u64) {
        self.state.now.fetch_add(micros, Ordering::Relaxed);
    }

    /// The current mock time (without consuming an auto-tick).
    #[must_use]
    pub fn now_micros(&self) -> u64 {
        self.state.now.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// log2(sub-buckets per power of two). 16 sub-buckets bound the
/// relative quantile error at `1/16` (6.25%).
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power of two.
const SUB: u64 = 1 << SUB_BITS;
/// Bucket groups: group 0 is the exact range `[0, SUB)`; each further
/// group covers one doubling, up to the full `u64` range.
const GROUPS: usize = (64 - SUB_BITS as usize) + 1;
/// Total bucket count (fixed storage, ~7.6 KiB of `u64` counters).
const BUCKETS: usize = GROUPS * SUB as usize;

/// An HDR-style log-bucketed histogram over `u64` values
/// (microseconds, counts — any non-negative magnitude).
///
/// Values below 16 are stored exactly; above, each power of two is
/// split into 16 linear sub-buckets, so the bucket containing
/// a value `v` spans at most `v / 16` — the "one bucket of relative
/// error" every percentile estimate is accurate to. Recording is O(1),
/// storage is fixed, and [`merge`](Histogram::merge) is element-wise,
/// so distributed collection composes.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index of `value`.
    fn index(value: u64) -> usize {
        // Group g >= 1 covers [SUB << (g-1), SUB << g); group 0 is the
        // exact values [0, SUB).
        let group = (64 - SUB_BITS) - (value | (SUB - 1)).leading_zeros();
        if group == 0 {
            value as usize
        } else {
            let sub = (value >> (group - 1)) - SUB;
            group as usize * SUB as usize + sub as usize
        }
    }

    /// The inclusive `[lower, upper]` value range of bucket `index`.
    fn bounds(index: usize) -> (u64, u64) {
        let group = (index / SUB as usize) as u32;
        let sub = (index % SUB as usize) as u64;
        if group == 0 {
            (sub, sub)
        } else {
            let lower = (SUB + sub) << (group - 1);
            let width = 1u64 << (group - 1);
            // `lower + width` wraps for the very top bucket; adding
            // the already-decremented width stays in range.
            (lower, lower + (width - 1))
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded values (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q ∈ [0, 1]`, using the same nearest-rank
    /// convention as a sort-based `sorted[round(q · (len-1))]` — but
    /// returning the **upper edge** of the containing bucket, so the
    /// estimate `e` of an exact quantile `x` satisfies
    /// `x <= e <= x + x/16` (never under-reports). Returns 0 when
    /// empty.
    #[must_use]
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                return Self::bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Element-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Bucket-wise subtraction of an **earlier snapshot of the same
    /// histogram stream**: `self` becomes the distribution of
    /// everything recorded after `earlier` was cloned. Load drivers
    /// use this to window the cumulative telemetry histograms (one
    /// slice per sweep rate, cache-warmup traffic excluded).
    ///
    /// `min`/`max` are re-derived from the surviving buckets' bounds,
    /// so like every quantile they are bucket-edge accurate rather
    /// than exact.
    ///
    /// # Panics
    ///
    /// If `earlier` is not an earlier snapshot of this stream (a
    /// bucket count would go negative).
    pub fn subtract(&mut self, earlier: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(earlier.counts.iter()) {
            *a = a
                .checked_sub(*b)
                .expect("subtract: not an earlier snapshot of this stream");
        }
        self.count = self
            .count
            .checked_sub(earlier.count)
            .expect("subtract: not an earlier snapshot of this stream");
        self.sum = self.sum.saturating_sub(earlier.sum);
        let (mut min, mut max) = (u64::MAX, 0);
        for (lo, hi, _) in self.nonzero_buckets() {
            min = min.min(lo);
            max = max.max(hi);
        }
        self.min = min;
        self.max = if self.count == 0 {
            0
        } else {
            max.min(self.max)
        };
    }

    /// Non-empty buckets as `(lower, upper, count)` triples in
    /// ascending value order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bounds(i);
                (lo, hi, c)
            })
    }

    /// Wire snapshot: summary percentiles plus the raw non-empty
    /// buckets (`[upper_edge, count]` pairs), enough to reconstruct
    /// the full distribution downstream.
    #[must_use]
    pub fn snapshot_value(&self) -> Value {
        let buckets: Vec<Value> = self
            .nonzero_buckets()
            .map(|(_, hi, c)| Value::Arr(vec![Value::UInt(hi), Value::UInt(c)]))
            .collect();
        Value::obj()
            .field("count", self.count)
            .field("sum", self.sum)
            .field("min", self.min())
            .field("max", self.max)
            .field("mean", self.mean())
            .field("p50", self.value_at_quantile(0.50))
            .field("p90", self.value_at_quantile(0.90))
            .field("p99", self.value_at_quantile(0.99))
            .field("p999", self.value_at_quantile(0.999))
            .field("buckets", buckets)
    }
}

// ---------------------------------------------------------------------
// Stage timing
// ---------------------------------------------------------------------

/// One query's lifetime, partitioned into contiguous stage spans.
///
/// The spans are stamped at the hops a query makes through the stack —
/// submitted (transport / [`Service::submit`]), resolve start, resolve
/// done, group execution done, response slot filled — so by
/// construction `queue + resolve + execute + respond ==`
/// [`total_micros`](StageTimes::total_micros) *exactly*; only the
/// histograms add bucket error on top.
///
/// [`Service::submit`]: crate::Service::submit
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// When the query entered the system (clock micros).
    pub submitted_micros: u64,
    /// Submission → this query's resolve walk began (queue wait,
    /// including the linger window under the background drain loop).
    pub queue_micros: u64,
    /// Registry resolution + cache lookup for this query.
    pub resolve_micros: u64,
    /// Resolve done → this query's group pass applied (engine time
    /// plus any wait on sibling groups; 0 for cache hits).
    pub execute_micros: u64,
    /// Pass applied → response slot filled (cache insert + render).
    pub respond_micros: u64,
}

impl StageTimes {
    /// End-to-end latency: the exact sum of the four stage spans.
    #[must_use]
    pub fn total_micros(&self) -> u64 {
        self.queue_micros + self.resolve_micros + self.execute_micros + self.respond_micros
    }
}

// ---------------------------------------------------------------------
// Wake reasons
// ---------------------------------------------------------------------

/// Why a drain-loop cycle fired (see
/// [`SubmissionQueue::wait_cycle`](crate::SubmissionQueue)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// Queue depth reached `--wake-depth`.
    Depth,
    /// The oldest pending submission's linger window expired.
    Linger,
    /// A non-coalescable submission (control op, malformed frame) was
    /// pending.
    Control,
    /// Shutdown flush.
    Shutdown,
    /// The pipelined drain loop's own work, of two kinds: each batch
    /// collected *during* an overlapped engine pass (cycle N+1
    /// resolving under cycle N's execute stage; width = its
    /// submissions, 0 groups), and each cycle that runs only carried
    /// work — held submissions and overlap-window misses (width 0,
    /// since those submissions were counted on collection; groups = its
    /// engine groups).
    Pipeline,
}

/// The number of [`WakeReason`] variants (the length of every wake
/// counter array).
pub const WAKE_REASONS: usize = 5;

impl WakeReason {
    /// Wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WakeReason::Depth => "depth",
            WakeReason::Linger => "linger",
            WakeReason::Control => "control",
            WakeReason::Shutdown => "shutdown",
            WakeReason::Pipeline => "pipeline",
        }
    }

    fn slot(self) -> usize {
        match self {
            WakeReason::Depth => 0,
            WakeReason::Linger => 1,
            WakeReason::Control => 2,
            WakeReason::Shutdown => 3,
            WakeReason::Pipeline => 4,
        }
    }
}

/// Which serving path answered a query: the pipelined fast path
/// (warm/certificate hits enqueued to their connection's writer at
/// resolve time, never waiting on an execute barrier) or the full
/// drain cycle. Latency cells are keyed by route so the µs/ms split
/// the one-sided cache creates is directly observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    /// Answered at resolve time, ahead of the cycle's execute barrier
    /// (the pipelined server's hit fast path).
    Fast,
    /// Answered by a full resolve → group → execute → respond cycle
    /// (engine misses, and every query in lib-embedded drains).
    Cycle,
}

impl Route {
    /// Wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Route::Fast => "fast",
            Route::Cycle => "cycle",
        }
    }
}

// ---------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------

/// Aggregated metrics behind the [`Telemetry`] mutex.
#[derive(Debug, Default)]
struct Metrics {
    /// Per-stage latency distributions across all queries.
    stage_queue: Histogram,
    stage_resolve: Histogram,
    stage_execute: Histogram,
    stage_respond: Histogram,
    /// Per-connection response write time (spent by each
    /// connection's writer thread, after the response is enqueued).
    write: Histogram,
    /// End-to-end latency per `(property, cache outcome, route)`:
    /// cold engine passes vs. certificate replays vs. warm accepts,
    /// split by which serving path answered.
    latency: BTreeMap<(Property, CacheStatus, Route), Histogram>,
    /// Wake reason counts, indexed by [`WakeReason::slot`].
    wake: [u64; WAKE_REASONS],
    /// Drain-loop records: server cycles plus overlap-window batches
    /// (the library `drain()` records none).
    cycles: u64,
    /// Submissions (or pending queries) per cycle.
    cycle_width: Histogram,
    /// Engine groups per cycle (the fan-out occupancy of the group
    /// execution pool).
    cycle_groups: Histogram,
    /// Queries that required engine work (the coalescing numerator;
    /// the denominator is the pass count in `engine`).
    engine_queries: u64,
    /// Cumulative engine-pass `SimStats` rollup.
    engine: PassRollup,
}

/// The shared telemetry sink: one per [`Service`](crate::Service),
/// shared by the server drain loop and every transport.
pub struct Telemetry {
    clock: Clock,
    started_micros: u64,
    inner: Mutex<Metrics>,
    trace: Mutex<Option<Box<dyn Write + Send>>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(Clock::wall())
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("clock", &self.clock)
            .field("started_micros", &self.started_micros)
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// A telemetry sink on the given clock.
    #[must_use]
    pub fn new(clock: Clock) -> Telemetry {
        let started_micros = clock.now_micros();
        Telemetry {
            clock,
            started_micros,
            inner: Mutex::new(Metrics::default()),
            trace: Mutex::new(None),
        }
    }

    /// The injected clock (cheap to clone; all stack components stamp
    /// through it).
    #[must_use]
    pub fn clock(&self) -> Clock {
        self.clock.clone()
    }

    /// Current clock reading.
    #[must_use]
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// Microseconds since this telemetry object was created.
    #[must_use]
    pub fn uptime_micros(&self) -> u64 {
        self.clock.now_micros().saturating_sub(self.started_micros)
    }

    /// Attaches an LDJSON trace writer (`--trace FILE`): every served
    /// query emits `submit`/`resolve`/`execute`/`respond` records.
    pub fn set_trace_writer(&self, writer: Box<dyn Write + Send>) {
        *self.trace.lock().expect("trace lock") = Some(writer);
    }

    /// Whether a trace writer is attached.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.trace.lock().expect("trace lock").is_some()
    }

    /// Records one served query: stage histograms, the `(property,
    /// cache outcome)` end-to-end distribution, and — when tracing is
    /// on — the four per-query trace records.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_query(
        &self,
        conn: Option<ConnectionId>,
        query: u64,
        property: Property,
        cache: CacheStatus,
        route: Route,
        stages: StageTimes,
        coalesced: usize,
        engine_micros: u64,
    ) {
        {
            let mut m = self.inner.lock().expect("telemetry lock");
            m.stage_queue.record(stages.queue_micros);
            m.stage_resolve.record(stages.resolve_micros);
            m.stage_execute.record(stages.execute_micros);
            m.stage_respond.record(stages.respond_micros);
            m.latency
                .entry((property, cache, route))
                .or_default()
                .record(stages.total_micros());
        }
        self.trace_query(
            conn,
            query,
            property,
            cache,
            stages,
            coalesced,
            engine_micros,
        );
    }

    /// Records a failed query's stage timings (no outcome to
    /// attribute; stage histograms still see it).
    pub(crate) fn record_failed_query(&self, stages: StageTimes) {
        let mut m = self.inner.lock().expect("telemetry lock");
        m.stage_queue.record(stages.queue_micros);
        m.stage_resolve.record(stages.resolve_micros);
        m.stage_execute.record(stages.execute_micros);
        m.stage_respond.record(stages.respond_micros);
    }

    #[allow(clippy::too_many_arguments)]
    fn trace_query(
        &self,
        conn: Option<ConnectionId>,
        query: u64,
        property: Property,
        cache: CacheStatus,
        stages: StageTimes,
        coalesced: usize,
        engine_micros: u64,
    ) {
        let mut guard = self.trace.lock().expect("trace lock");
        let Some(writer) = guard.as_mut() else { return };
        let conn_value = match conn {
            Some(c) => Value::UInt(c),
            None => Value::Null,
        };
        let base = |event: &str, at: u64| {
            Value::obj()
                .field("event", event)
                .field("query", query)
                .field("conn", conn_value.clone())
                .field("at_micros", at)
        };
        let t_submit = stages.submitted_micros;
        let t_resolve = t_submit + stages.queue_micros;
        let t_execute = t_resolve + stages.resolve_micros;
        let t_respond = t_execute + stages.execute_micros;
        let records = [
            base("submit", t_submit),
            base("resolve", t_resolve)
                .field("micros", stages.resolve_micros)
                .field("queue_micros", stages.queue_micros)
                .field("property", property.name())
                .field("cache", cache.name()),
            base("execute", t_execute)
                .field("micros", stages.execute_micros)
                .field("engine_micros", engine_micros)
                .field("coalesced", coalesced),
            base("respond", t_respond)
                .field("micros", stages.respond_micros)
                .field("total_micros", stages.total_micros()),
        ];
        for record in records {
            if writeln!(writer, "{record}").is_err() {
                // A dead trace sink must not take queries down with it.
                *guard = None;
                return;
            }
        }
        let _ = writer.flush();
    }

    /// Records one drain-loop cycle: its wake reason, width
    /// (submissions taken) and group fan-out.
    pub(crate) fn record_cycle(&self, reason: WakeReason, width: usize, groups: usize) {
        let mut m = self.inner.lock().expect("telemetry lock");
        m.wake[reason.slot()] += 1;
        m.cycles += 1;
        m.cycle_width.record(width as u64);
        m.cycle_groups.record(groups as u64);
    }

    /// Folds one engine pass's statistics into the rollup, crediting
    /// the queries it served (the coalescing numerator).
    pub(crate) fn record_pass(&self, stats: &SimStats, queries: usize) {
        let mut m = self.inner.lock().expect("telemetry lock");
        m.engine.record(stats);
        m.engine_queries += queries as u64;
    }

    /// Records one per-connection response write duration.
    pub(crate) fn record_write(&self, micros: u64) {
        let mut m = self.inner.lock().expect("telemetry lock");
        m.write.record(micros);
    }

    /// Wake reason counters as `[depth, linger, control, shutdown,
    /// pipeline]`.
    #[must_use]
    pub fn wake_counts(&self) -> [u64; WAKE_REASONS] {
        self.inner.lock().expect("telemetry lock").wake
    }

    /// Drain cycles executed so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.inner.lock().expect("telemetry lock").cycles
    }

    /// The end-to-end latency histogram for one `(property, cache)`
    /// cell, merged across serving routes, if any query landed there.
    #[must_use]
    pub fn latency_histogram(&self, property: Property, cache: CacheStatus) -> Option<Histogram> {
        let m = self.inner.lock().expect("telemetry lock");
        let mut merged: Option<Histogram> = None;
        for route in [Route::Fast, Route::Cycle] {
            if let Some(h) = m.latency.get(&(property, cache, route)) {
                match merged.as_mut() {
                    Some(acc) => acc.merge(h),
                    None => merged = Some(h.clone()),
                }
            }
        }
        merged
    }

    /// The full `metrics` snapshot (the JSON wire op's body; the
    /// protocol layer adds registry/cache fields on top).
    #[must_use]
    pub fn metrics_value(&self) -> Value {
        let m = self.inner.lock().expect("telemetry lock");
        let latency: Vec<Value> = m
            .latency
            .iter()
            .map(|((property, cache, route), h)| {
                Value::obj()
                    .field("property", property.name())
                    .field("cache", cache.name())
                    .field("route", route.name())
                    .field("latency_micros", h.snapshot_value())
            })
            .collect();
        let coalesce_ratio = if m.engine.passes == 0 {
            0.0
        } else {
            m.engine_queries as f64 / m.engine.passes as f64
        };
        Value::obj()
            .field("uptime_micros", self.uptime_micros())
            .field(
                "cycles",
                Value::obj()
                    .field("count", m.cycles)
                    .field(
                        "wake",
                        Value::obj()
                            .field("depth", m.wake[0])
                            .field("linger", m.wake[1])
                            .field("control", m.wake[2])
                            .field("shutdown", m.wake[3])
                            .field("pipeline", m.wake[4]),
                    )
                    .field("width", m.cycle_width.snapshot_value())
                    .field("groups", m.cycle_groups.snapshot_value()),
            )
            .field(
                "stages",
                Value::obj()
                    .field("queue_micros", m.stage_queue.snapshot_value())
                    .field("resolve_micros", m.stage_resolve.snapshot_value())
                    .field("execute_micros", m.stage_execute.snapshot_value())
                    .field("respond_micros", m.stage_respond.snapshot_value())
                    .field("write_micros", m.write.snapshot_value()),
            )
            .field("latency", latency)
            .field(
                "engine",
                Value::obj()
                    .field("passes", m.engine.passes)
                    .field("queries", m.engine_queries)
                    .field("coalesce_ratio", coalesce_ratio)
                    .field("rounds", m.engine.stats.rounds)
                    .field("charged_rounds", m.engine.stats.charged_rounds)
                    .field("messages", m.engine.stats.messages)
                    .field("words", m.engine.stats.words)
                    .field("phases", m.engine.stats.runs),
            )
    }

    /// Prometheus-style text exposition (format 0.0.4) of the same
    /// metrics, for scrapers and the `planartest metrics` one-shot.
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let m = self.inner.lock().expect("telemetry lock");
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE planartest_uptime_micros gauge");
        let _ = writeln!(out, "planartest_uptime_micros {}", self.uptime_micros());
        let _ = writeln!(out, "# TYPE planartest_drain_cycles_total counter");
        let _ = writeln!(out, "planartest_drain_cycles_total {}", m.cycles);
        let _ = writeln!(out, "# TYPE planartest_drain_wake_total counter");
        for reason in [
            WakeReason::Depth,
            WakeReason::Linger,
            WakeReason::Control,
            WakeReason::Shutdown,
            WakeReason::Pipeline,
        ] {
            let _ = writeln!(
                out,
                "planartest_drain_wake_total{{reason=\"{}\"}} {}",
                reason.name(),
                m.wake[reason.slot()]
            );
        }
        let _ = writeln!(out, "# TYPE planartest_engine_passes_total counter");
        let _ = writeln!(out, "planartest_engine_passes_total {}", m.engine.passes);
        let _ = writeln!(out, "# TYPE planartest_engine_queries_total counter");
        let _ = writeln!(out, "planartest_engine_queries_total {}", m.engine_queries);
        for (name, v) in [
            ("rounds", m.engine.stats.rounds),
            ("charged_rounds", m.engine.stats.charged_rounds),
            ("messages", m.engine.stats.messages),
            ("words", m.engine.stats.words),
        ] {
            let _ = writeln!(out, "# TYPE planartest_engine_{name}_total counter");
            let _ = writeln!(out, "planartest_engine_{name}_total {v}");
        }
        for (name, h) in [
            ("stage_queue_micros", &m.stage_queue),
            ("stage_resolve_micros", &m.stage_resolve),
            ("stage_execute_micros", &m.stage_execute),
            ("stage_respond_micros", &m.stage_respond),
            ("write_micros", &m.write),
            ("cycle_width", &m.cycle_width),
            ("cycle_groups", &m.cycle_groups),
        ] {
            write_prometheus_histogram(&mut out, &format!("planartest_{name}"), "", h);
        }
        for ((property, cache, route), h) in &m.latency {
            write_prometheus_histogram(
                &mut out,
                "planartest_query_latency_micros",
                &format!(
                    "property=\"{}\",cache=\"{}\",route=\"{}\"",
                    property.name(),
                    cache.name(),
                    route.name()
                ),
                h,
            );
        }
        out
    }
}

/// Writes one histogram in Prometheus exposition format: cumulative
/// `_bucket{le=...}` series over the non-empty buckets, `+Inf`, `_sum`
/// and `_count`.
fn write_prometheus_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    use std::fmt::Write as _;
    let sep = if labels.is_empty() { "" } else { "," };
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (_, upper, count) in h.nonzero_buckets() {
        cumulative += count;
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{upper}\"}} {cumulative}"
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        h.count()
    );
    let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum());
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_roundtrips_bounds() {
        for v in (0..4096u64).chain([
            1 << 20,
            (1 << 20) + 37,
            u64::MAX / 3,
            u64::MAX - 1,
            u64::MAX,
        ]) {
            let i = Histogram::index(v);
            let (lo, hi) = Histogram::bounds(i);
            assert!(lo <= v && v <= hi, "value {v} outside bucket [{lo}, {hi}]");
            // One-bucket relative error: width <= max(1, v/16).
            assert!(hi - lo <= v / SUB || v < SUB, "bucket too wide for {v}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        for (i, (lo, hi, c)) in h.nonzero_buckets().enumerate() {
            assert_eq!((lo, hi, c), (i as u64, i as u64, 1));
        }
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.value_at_quantile(1.0), SUB - 1);
    }

    #[test]
    fn quantiles_never_under_report() {
        let mut h = Histogram::new();
        let values: Vec<u64> = (0..1000u64).map(|i| i * i).collect();
        for &v in &values {
            h.record(v);
        }
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = (q * (values.len() - 1) as f64).round() as usize;
            let exact = values[rank];
            let est = h.value_at_quantile(q);
            assert!(est >= exact, "q={q}: {est} < exact {exact}");
            assert!(
                est <= exact + exact / SUB + 1,
                "q={q}: {est} beyond one-bucket error of {exact}"
            );
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 999 * 999);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn subtract_windows_a_cumulative_stream() {
        let mut h = Histogram::new();
        for v in [3u64, 900, 17] {
            h.record(v); // the "warmup" prefix
        }
        let snapshot = h.clone();
        for v in [5u64, 5, 40, 2000] {
            h.record(v); // the measured window
        }
        h.subtract(&snapshot);
        assert_eq!(h.count(), 4);
        let mut exact = Histogram::new();
        for v in [5u64, 5, 40, 2000] {
            exact.record(v);
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.value_at_quantile(q), exact.value_at_quantile(q));
        }
        assert_eq!(h.min(), exact.min());
        // Max is re-derived from bucket bounds: upper edge, never under.
        assert!(h.max() >= 2000 && h.max() <= 2000 + 2000 / SUB + 1);

        // Subtracting everything leaves a well-formed empty histogram.
        let full = h.clone();
        h.subtract(&full);
        assert!(h.is_empty());
        assert_eq!(h.value_at_quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    #[should_panic(expected = "not an earlier snapshot")]
    fn subtract_rejects_a_non_prefix() {
        let mut a = Histogram::new();
        a.record(7);
        let mut b = Histogram::new();
        b.record(9);
        a.subtract(&b);
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [3u64, 17, 170, 1700] {
            a.record(v);
            all.record(v);
        }
        for v in [5u64, 500, 50000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.1, 0.5, 0.9] {
            assert_eq!(a.value_at_quantile(q), all.value_at_quantile(q));
        }
    }

    #[test]
    fn mock_clock_is_deterministic() {
        let (clock, handle) = Clock::mock(0);
        assert_eq!(clock.now_micros(), 0);
        handle.advance(250);
        assert_eq!(clock.now_micros(), 250);
        assert_eq!(handle.now_micros(), 250);

        let (ticking, _) = Clock::mock(10);
        assert_eq!(ticking.now_micros(), 0);
        assert_eq!(ticking.now_micros(), 10);
        assert_eq!(ticking.now_micros(), 20);
    }

    #[test]
    fn stage_times_sum_exactly() {
        let stages = StageTimes {
            submitted_micros: 100,
            queue_micros: 7,
            resolve_micros: 3,
            execute_micros: 40,
            respond_micros: 2,
        };
        assert_eq!(stages.total_micros(), 52);
    }

    #[test]
    fn trace_writer_emits_four_records_per_query() {
        use std::sync::{Arc as StdArc, Mutex as StdMutex};
        #[derive(Clone, Default)]
        struct Sink(StdArc<StdMutex<Vec<u8>>>);
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (clock, _) = Clock::mock(0);
        let telemetry = Telemetry::new(clock);
        let sink = Sink::default();
        telemetry.set_trace_writer(Box::new(sink.clone()));
        assert!(telemetry.trace_enabled());
        telemetry.record_query(
            Some(4),
            9,
            Property::Planarity,
            CacheStatus::Cold,
            Route::Cycle,
            StageTimes {
                submitted_micros: 1000,
                queue_micros: 10,
                resolve_micros: 5,
                execute_micros: 100,
                respond_micros: 1,
            },
            3,
            300,
        );
        let bytes = sink.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let events: Vec<Value> = text
            .lines()
            .map(|l| Value::parse(l).expect("trace line parses"))
            .collect();
        assert_eq!(events.len(), 4);
        let names: Vec<&str> = events
            .iter()
            .map(|e| e.get("event").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, ["submit", "resolve", "execute", "respond"]);
        for e in &events {
            assert_eq!(e.get("query").unwrap().as_u64(), Some(9));
            assert_eq!(e.get("conn").unwrap().as_u64(), Some(4));
        }
        assert_eq!(events[0].get("at_micros").unwrap().as_u64(), Some(1000));
        assert_eq!(events[1].get("at_micros").unwrap().as_u64(), Some(1010));
        assert_eq!(events[2].get("at_micros").unwrap().as_u64(), Some(1015));
        assert_eq!(events[3].get("at_micros").unwrap().as_u64(), Some(1115));
        assert_eq!(events[3].get("total_micros").unwrap().as_u64(), Some(116));
        assert_eq!(events[2].get("coalesced").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn prometheus_text_shape() {
        let (clock, handle) = Clock::mock(0);
        let telemetry = Telemetry::new(clock);
        handle.advance(5000);
        telemetry.record_cycle(WakeReason::Depth, 4, 1);
        telemetry.record_cycle(WakeReason::Control, 1, 0);
        telemetry.record_query(
            None,
            0,
            Property::Planarity,
            CacheStatus::Cold,
            Route::Cycle,
            StageTimes {
                submitted_micros: 0,
                queue_micros: 2,
                resolve_micros: 1,
                execute_micros: 90,
                respond_micros: 1,
            },
            1,
            90,
        );
        telemetry.record_pass(
            &SimStats {
                rounds: 100,
                charged_rounds: 5,
                messages: 40,
                words: 80,
                runs: 3,
            },
            4,
        );
        let text = telemetry.prometheus_text();
        assert!(text.contains("planartest_uptime_micros 5000"));
        assert!(text.contains("planartest_drain_cycles_total 2"));
        assert!(text.contains("planartest_drain_wake_total{reason=\"depth\"} 1"));
        assert!(text.contains("planartest_drain_wake_total{reason=\"control\"} 1"));
        assert!(text.contains("planartest_drain_wake_total{reason=\"linger\"} 0"));
        assert!(text.contains("planartest_engine_rounds_total 100"));
        assert!(text.contains("planartest_engine_charged_rounds_total 5"));
        assert!(text.contains("planartest_drain_wake_total{reason=\"pipeline\"} 0"));
        assert!(text.contains(
            "planartest_query_latency_micros_bucket{property=\"planarity\",cache=\"cold\",route=\"cycle\",le="
        ));
        assert!(text.contains(
            "planartest_query_latency_micros_count{property=\"planarity\",cache=\"cold\",route=\"cycle\"} 1"
        ));
        assert!(text.contains("planartest_stage_queue_micros_bucket{le=\"2\"} 1"));
        // Every histogram closes with +Inf at the total count.
        assert!(text.contains("planartest_stage_execute_micros_bucket{le=\"+Inf\"} 1"));

        let snapshot = telemetry.metrics_value();
        assert_eq!(snapshot.get("uptime_micros").unwrap().as_u64(), Some(5000));
        let engine = snapshot.get("engine").unwrap();
        assert_eq!(engine.get("passes").unwrap().as_u64(), Some(1));
        assert_eq!(engine.get("rounds").unwrap().as_u64(), Some(100));
        let latency = snapshot.get("latency").unwrap().as_arr().unwrap();
        assert_eq!(latency.len(), 1);
        assert_eq!(latency[0].get("cache").unwrap().as_str(), Some("cold"),);
        assert_eq!(latency[0].get("route").unwrap().as_str(), Some("cycle"),);
    }
}
