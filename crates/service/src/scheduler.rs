//! The scheduler layer: the [`Service`] front object and the
//! background drain loop ([`Server`]).
//!
//! [`Service`] owns the [`GraphRegistry`], the [`ResultCache`] and a
//! queue of pending queries. Draining runs in four decoupled stages:
//!
//! 1. **resolve** — per query, in submission order: resolve the graph
//!    reference, build the cache key, answer warm/certificate hits
//!    immediately;
//! 2. **group** — bucket the misses by `(graph, config, property)`
//!    key, first-seen order, and look each planarity key's memoised
//!    [`Prepared`](planartest_core::Prepared) tester up in the cache;
//! 3. **execute** — run each group through **one** batched pass: a
//!    memo hit samples its seeds' lanes on the memoised tester, a miss
//!    prepares one first
//!    ([`PlanarityTester::prepare`](planartest_core::PlanarityTester::prepare)),
//!    independent groups fanned across a [`TrialRunner`] pool (the
//!    `exec` module) — pure, so parallel and sequential drains are
//!    bit-for-bit identical;
//! 4. **respond** — apply cache inserts, then newly prepared testers,
//!    and counters sequentially in group order and fill every response
//!    slot, submission order preserved.
//!
//! [`Service::drain`] is the synchronous, caller-driven form of that
//! pipeline (one cycle, responses returned). [`Server`] is the
//! concurrent form: a dedicated thread owns the service and runs the
//! same cycle against the shared [`SubmissionQueue`] that every
//! transport ([`crate::transport`]) feeds, waking on queue depth, a
//! control op, or a configurable linger timer — so *independent
//! clients'* same-graph queries coalesce into shared engine passes
//! without any client knowing about the others.
//!
//! Every server request goes through one stage-1 function, `dispatch`,
//! which resolves a `query` or `batch` submission into a `Cycle` and
//! hands control ops back to its caller. It runs **at the start of a
//! cycle with no gate** (control ops answered in place, in arrival
//! order, so an `ingest` is visible to every query behind it), and
//! **during the overlap window with an `Overlap` gate**: while the pool
//! runs the cycle's engine passes, arrivals resolve into the *next*
//! cycle, except in-flight keys and connections waiting behind their
//! own control op, which are held and dispatched again next cycle.
//! Hits and errors are answered at once (the fast path), through
//! bounded per-connection writer queues ([`Connections`]), so one
//! stalled client cannot block the cycle. Per-connection order is
//! exact (router tokens are assigned at arrival); cross-connection
//! order around a held control op is not replayed — concurrent clients
//! race those orderings anyway. A shutdown request (stdin EOF, SIGTERM)
//! flushes everything pending, writer queues included, before the
//! loop exits.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::SocketAddr;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use planartest_sim::TrialRunner;

use crate::cache::{CacheKey, ResultCache};
use crate::error::ServiceError;
use crate::exec::{execute_groups, Group, GroupPass};
use crate::persist::{CertificateLog, CertificateRecord};
use crate::pipeline::{ResponseRouter, Token};
use crate::protocol;
use crate::query::{CacheStatus, Outcome, Property, Query, QueryId, QueryResponse};
use crate::registry::GraphRegistry;
use crate::telemetry::{Clock, Route, StageTimes, Telemetry, WakeReason, WAKE_REASONS};
use crate::transport::{
    spawn_stdio, spawn_tcp_listener, ConnectionId, Connections, Submission, SubmissionQueue,
};
use crate::wire::{Value, DEFAULT_MAX_FRAME};

/// One drained query: the id [`Service::submit`] handed out plus the
/// response or the per-query failure.
pub type DrainedQuery = (QueryId, Result<QueryResponse, ServiceError>);

/// Aggregate service telemetry (the `stats` wire op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Distinct registered graphs (both tiers).
    pub graphs: usize,
    /// Graphs in the hot heap-CSR tier.
    pub resident_graphs: usize,
    /// Graphs served zero-copy from the mmap spill tier.
    pub mapped_graphs: usize,
    /// `(graph, config, property)` cache slots.
    pub cache_slots: usize,
    /// Stored per-seed outcomes across all slots.
    pub cached_outcomes: usize,
    /// Cache hit/miss/eviction counters.
    pub cache: crate::cache::CacheStats,
    /// Accept stripes currently resident in the cache LRU (the
    /// occupancy `cache.evictions` is measured against).
    pub accept_stripes: usize,
    /// The accept-stripe LRU capacity.
    pub accept_capacity: usize,
    /// Planarity groups that found their key's prepared tester in the
    /// memo and ran only their sample lanes.
    pub prefix_hits: u64,
    /// Planarity groups that prepared a tester (Stage I and the
    /// seed-free Stage-II prefix).
    pub prefix_misses: u64,
    /// Prepared testers resident in the memo.
    pub prefix_entries: usize,
    /// Their heap bytes ([`Prepared::heap_bytes`](planartest_core::Prepared::heap_bytes)).
    pub prefix_bytes: usize,
    /// Prepared testers dropped by the memo's byte budget.
    pub prefix_evictions: u64,
    /// Engine passes executed (each pass may serve many queries).
    pub engine_passes: u64,
    /// Queries answered (from cache or engine).
    pub queries_served: u64,
    /// Submissions waiting in the bound queue right now (0 when no
    /// queue is bound — the lib-embedded, serverless case).
    pub queue_depth: usize,
    /// Deepest the bound queue has ever been (0 when no queue is
    /// bound). Unlike `queue_depth` this survives the drain, so an
    /// overload episode stays diagnosable after the backlog clears.
    pub queue_depth_hwm: usize,
    /// Responses computed but never delivered *mid-flight* — the
    /// addressed connection was gone, or its writer died on a write
    /// failure — while the server was live (0 when no connection table
    /// is bound). Shutdown-flush casualties are counted separately in
    /// [`responses_lost_shutdown`](Self::responses_lost_shutdown).
    pub responses_lost: u64,
    /// Responses dropped during the final shutdown flush (the client
    /// hung up while the server was draining its outbound queue).
    pub responses_lost_shutdown: u64,
    /// Responses shed because the addressed connection's bounded
    /// outbound queue was full (`--outbound-depth`): the slow-reader
    /// backpressure policy chose dropping over blocking the cycle.
    pub responses_shed: u64,
    /// Deepest any per-connection outbound queue has ever been.
    pub outbound_depth_hwm: usize,
    /// Writer-thread stalls: single response writes that took longer
    /// than the stall threshold (a slow or unreading client).
    pub writer_stalls: u64,
    /// Microseconds since the service's telemetry epoch.
    pub uptime_micros: u64,
    /// Drain-loop cycles executed.
    pub drain_cycles: u64,
    /// Drain-loop wake reason counts: `[depth, linger, control,
    /// shutdown, pipeline]`.
    pub wake: [u64; WAKE_REASONS],
}

/// What [`Service::set_state_dir`] restored from a durable state
/// directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateSummary {
    /// Graphs re-mapped from CSR spills (zero-copy, no rebuild).
    pub graphs_restored: usize,
    /// Reject certificates replayed from the write-ahead log into the
    /// result cache.
    pub certificates_replayed: usize,
    /// Log lines skipped during replay: a torn tail from a crash
    /// mid-append (truncated away) plus any malformed records.
    pub tail_skipped: usize,
}

/// A pending query as the scheduler sees it after resolution.
#[derive(Debug)]
pub(crate) struct Resolved {
    pub(crate) id: QueryId,
    pub(crate) key: CacheKey,
    pub(crate) seed: u64,
    pub(crate) query: Query,
    /// Where the response routes back to (`None` for lib-embedded
    /// drains with no connection).
    pub(crate) conn: Option<ConnectionId>,
    /// Stage spans so far: submit stamp, queue and resolve spans
    /// filled; execute/respond stamped by `apply_group`.
    pub(crate) stages: StageTimes,
}

/// One cycle's resolve-stage output: a response slot per resolved
/// query, the misses bound for the group stage, and — on the server
/// path — the response lines still owed once those misses' passes are
/// applied.
#[derive(Default)]
struct Cycle {
    /// Filled at resolve time on a hit or a resolution failure, and by
    /// `apply_group` on a miss.
    slots: Vec<Option<DrainedQuery>>,
    misses: Vec<(usize, Resolved)>,
    owed: Vec<Owed>,
}

/// A response line waiting on the execute barrier: its router token
/// and the slots it renders — one for a `query` op, one per member for
/// a `batch` op.
struct Owed {
    token: Token,
    slots: Range<usize>,
    batch: bool,
}

impl Cycle {
    /// Renders a line from its (answered) slots: one response, or a
    /// batch re-assembled into a single `{"responses": [...]}` line.
    fn render(&self, line: &Owed) -> Value {
        let mut values = self.slots[line.slots.clone()].iter().map(|slot| {
            match &slot.as_ref().expect("every cycle slot answered").1 {
                Ok(response) => protocol::response_value(response),
                Err(e) => protocol::error_value(e),
            }
        });
        if line.batch {
            Value::obj()
                .field("ok", true)
                .field("responses", values.collect::<Vec<Value>>())
        } else {
            values.next().expect("a query line has one slot")
        }
    }
}

/// Stage 1's split borrow of a [`Service`]: everything resolving a
/// query touches, borrowed field by field, so the drain thread can keep
/// resolving while the execute stage holds the registry and runner.
struct Resolver<'a> {
    registry: &'a GraphRegistry,
    runner: &'a TrialRunner,
    cache: &'a mut ResultCache,
    telemetry: &'a Telemetry,
    queries_served: &'a mut u64,
    next_id: &'a mut QueryId,
}

impl Resolver<'_> {
    fn next_id(&mut self) -> QueryId {
        let id = *self.next_id;
        *self.next_id += 1;
        id
    }

    /// Stage 1 for one query: registry resolution + cache lookup into a
    /// new slot of `cycle`. A hit or a resolution failure fills the
    /// slot; a miss leaves it empty and joins the cycle's misses.
    ///
    /// Stage spans stay contiguous by construction: the queue span ends
    /// on the single stamp taken at entry, and the resolve span ends on
    /// the single stamp taken when the walk finishes — so
    /// `queue + resolve (+ execute + respond)` sums *exactly* to
    /// end-to-end on the service clock.
    fn resolve(
        &mut self,
        cycle: &mut Cycle,
        id: QueryId,
        query: Query,
        submitted_micros: u64,
        conn: Option<ConnectionId>,
        route: Route,
    ) {
        *self.queries_served += 1;
        let telemetry = self.telemetry;
        let resolve_start = telemetry.now_micros();
        let mut stages = StageTimes {
            submitted_micros,
            queue_micros: resolve_start.saturating_sub(submitted_micros),
            ..StageTimes::default()
        };
        let close = |stages: &mut StageTimes| {
            stages.resolve_micros = telemetry.now_micros().saturating_sub(resolve_start);
        };
        let key = match cache_key(self.registry, &query) {
            Ok(key) => key,
            Err(err) => {
                close(&mut stages);
                telemetry.record_failed_query(stages);
                cycle.slots.push(Some((id, Err(err))));
                return;
            }
        };
        let seed = query.cfg.seed;
        let hit = self.cache.lookup(&key, seed);
        close(&mut stages);
        let Some((outcome, status, stored_seed)) = hit else {
            let resolved = Resolved {
                id,
                key,
                seed,
                query,
                conn,
                stages,
            };
            cycle.misses.push((cycle.slots.len(), resolved));
            cycle.slots.push(None);
            return;
        };
        telemetry.record_query(conn, id, query.property, status, route, stages, 0, 0);
        cycle.slots.push(Some((
            id,
            Ok(QueryResponse {
                id,
                graph: key.graph,
                property: query.property,
                seed: stored_seed,
                outcome,
                cache: status,
                coalesced: 0,
                engine_micros: 0,
                attributed_micros: 0,
                stages,
            }),
        )));
    }
}

/// The cache key `query` resolves to.
fn cache_key(registry: &GraphRegistry, query: &Query) -> Result<CacheKey, ServiceError> {
    let entry = registry.resolve(&query.graph)?;
    Ok(CacheKey {
        graph: entry.fingerprint,
        config: query.cfg.fingerprint(),
        property: query.property,
    })
}

/// The long-running query service (see the crate-level docs for the
/// full picture: registry + cache + coalescing scheduler).
#[derive(Debug)]
pub struct Service {
    registry: GraphRegistry,
    cache: ResultCache,
    queue: Vec<(QueryId, Query, u64)>,
    next_id: QueryId,
    engine_passes: u64,
    queries_served: u64,
    /// The group-execution pool. One thread (the default) reproduces
    /// the historical strictly-sequential drain; more threads fan
    /// independent groups out without changing any result bit.
    runner: TrialRunner,
    /// The shared telemetry sink (histograms, stage spans, trace log).
    telemetry: Arc<Telemetry>,
    /// The submission queue this service drains, when server-hosted —
    /// lets `stats` report live queue depth and its high-water mark.
    bound_queue: Option<Arc<SubmissionQueue>>,
    /// The connection table responses route through, when
    /// server-hosted — lets `stats` report response losses.
    bound_connections: Option<Arc<Connections>>,
    /// The reject-certificate write-ahead log, when a state directory
    /// is attached. Every *newly formed* certificate is appended
    /// (fsync'd) before its response goes out.
    state_log: Option<CertificateLog>,
}

impl Default for Service {
    fn default() -> Self {
        Service {
            registry: GraphRegistry::default(),
            cache: ResultCache::default(),
            queue: Vec::new(),
            next_id: 0,
            engine_passes: 0,
            queries_served: 0,
            runner: TrialRunner::new(1),
            telemetry: Arc::new(Telemetry::default()),
            bound_queue: None,
            bound_connections: None,
            state_log: None,
        }
    }
}

impl Service {
    /// An empty service (sequential group execution).
    #[must_use]
    pub fn new() -> Self {
        Service::default()
    }

    /// Replaces the telemetry clock (tests inject
    /// [`Clock::mock`] here for deterministic stage timings).
    #[must_use]
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.telemetry = Arc::new(Telemetry::new(clock));
        self
    }

    /// The shared telemetry sink.
    #[must_use]
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.telemetry)
    }

    /// Binds the submission queue this service is drained from, so
    /// [`stats`](Self::stats) can report live queue depth (done by
    /// [`Server::start`]).
    pub fn bind_queue(&mut self, queue: Arc<SubmissionQueue>) {
        self.bound_queue = Some(queue);
    }

    /// Binds the connection table responses route through, so
    /// [`stats`](Self::stats) can report per-connection response
    /// losses (done by [`Server::start`]).
    pub fn bind_connections(&mut self, connections: Arc<Connections>) {
        self.bound_connections = Some(connections);
    }

    /// Sets the worker count independent groups fan across during a
    /// drain (`0` = hardware parallelism, `1` = sequential). Purely a
    /// wall-clock knob: drained results are bit-for-bit identical for
    /// every value (see `tests/drain_proptests.rs`).
    #[must_use]
    pub fn with_group_threads(mut self, threads: usize) -> Self {
        self.set_group_threads(threads);
        self
    }

    /// See [`with_group_threads`](Self::with_group_threads).
    pub fn set_group_threads(&mut self, threads: usize) {
        self.runner = TrialRunner::new(threads);
    }

    /// The group-execution worker count.
    #[must_use]
    pub fn group_threads(&self) -> usize {
        self.runner.threads()
    }

    /// Bounds the result cache's per-seed accept stripes (LRU; reject
    /// certificates are never evicted). See
    /// [`ResultCache::set_accept_capacity`].
    pub fn set_cache_accepts(&mut self, capacity: usize) {
        self.cache.set_accept_capacity(capacity);
    }

    /// Attaches a durable state directory and restores everything in
    /// it: graphs re-map zero-copy from their CSR spills, and reject
    /// certificates replay from the write-ahead log into the cache —
    /// a cold restart answers every previously-certified query without
    /// a single engine pass. From here on, ingests write through to
    /// disk and newly formed certificates are appended (fsync'd) to
    /// the log.
    ///
    /// # Errors
    ///
    /// I/O failures creating the directory layout or opening the log.
    /// Torn or malformed log records are *not* errors — they are
    /// counted in [`StateSummary::tail_skipped`] and truncated away.
    pub fn set_state_dir(&mut self, dir: &Path) -> Result<StateSummary, ServiceError> {
        let graphs_restored = self.registry.set_state_dir(dir)?;
        let (log, replay) = CertificateLog::open(&dir.join("certificates.ldjson"))?;
        let mut certificates_replayed = 0usize;
        for record in replay.records {
            if self
                .cache
                .load_certificate(&record.key, record.seed, record.outcome)
            {
                certificates_replayed += 1;
            }
        }
        self.state_log = Some(log);
        Ok(StateSummary {
            graphs_restored,
            certificates_replayed,
            tail_skipped: replay.skipped,
        })
    }

    /// Builder form of [`set_state_dir`](Self::set_state_dir),
    /// discarding the restore summary.
    ///
    /// # Errors
    ///
    /// See [`set_state_dir`](Self::set_state_dir).
    pub fn with_state_dir(mut self, dir: &Path) -> Result<Self, ServiceError> {
        self.set_state_dir(dir)?;
        Ok(self)
    }

    /// Rewrites the certificate log to exactly the live certificate
    /// set (dropping duplicates and torn garbage accumulated across
    /// restarts), atomically. Returns the number of records written.
    ///
    /// # Errors
    ///
    /// [`crate::persist::PersistError::NoStateDir`] without a state
    /// directory; I/O failures writing or swapping the compacted log.
    pub fn compact_certificates(&mut self) -> Result<usize, ServiceError> {
        let Some(log) = self.state_log.as_mut() else {
            return Err(ServiceError::Persist(
                crate::persist::PersistError::NoStateDir,
            ));
        };
        let live = self
            .cache
            .certificates()
            .map(|(key, seed, outcome)| CertificateRecord {
                key,
                seed,
                outcome: outcome.clone(),
            });
        Ok(log.compact(live)?)
    }

    /// The graph registry (immutable view).
    #[must_use]
    pub fn registry(&self) -> &GraphRegistry {
        &self.registry
    }

    /// The graph registry, for ingestion.
    pub fn registry_mut(&mut self) -> &mut GraphRegistry {
        &mut self.registry
    }

    /// Engine passes executed so far. A warm or certificate hit does not
    /// advance this counter — that is how tests *prove* a cached reject
    /// replays its witness without re-running the partition.
    #[must_use]
    pub fn engine_passes(&self) -> u64 {
        self.engine_passes
    }

    /// Aggregate telemetry.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let prefix = self.cache.prefix_stats();
        ServiceStats {
            graphs: self.registry.len(),
            resident_graphs: self.registry.resident(),
            mapped_graphs: self.registry.mapped(),
            cache_slots: self.cache.len(),
            cached_outcomes: self.cache.stored_outcomes(),
            cache: self.cache.stats(),
            accept_stripes: self.cache.accept_stripes(),
            accept_capacity: self.cache.accept_capacity(),
            prefix_hits: prefix.hits,
            prefix_misses: prefix.misses,
            prefix_entries: prefix.entries,
            prefix_bytes: prefix.bytes,
            prefix_evictions: prefix.evictions,
            engine_passes: self.engine_passes,
            queries_served: self.queries_served,
            queue_depth: self.bound_queue.as_ref().map_or(0, |q| q.depth()),
            queue_depth_hwm: self.bound_queue.as_ref().map_or(0, |q| q.depth_hwm()),
            responses_lost: self
                .bound_connections
                .as_ref()
                .map_or(0, |c| c.lost_responses()),
            responses_lost_shutdown: self
                .bound_connections
                .as_ref()
                .map_or(0, |c| c.lost_shutdown_responses()),
            responses_shed: self
                .bound_connections
                .as_ref()
                .map_or(0, |c| c.shed_responses()),
            outbound_depth_hwm: self
                .bound_connections
                .as_ref()
                .map_or(0, |c| c.outbound_depth_hwm()),
            writer_stalls: self
                .bound_connections
                .as_ref()
                .map_or(0, |c| c.writer_stalls()),
            uptime_micros: self.telemetry.uptime_micros(),
            drain_cycles: self.telemetry.cycles(),
            wake: self.telemetry.wake_counts(),
        }
    }

    /// Drops all cached results and prepared testers (cold-path
    /// measurement hook for load drivers; the registry stays resident).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Enqueues a query for the next [`drain`](Self::drain); returns its
    /// id. The submit stamp taken here is the origin of the query's
    /// queue-wait stage span.
    pub fn submit(&mut self, query: Query) -> QueryId {
        let id = self.resolver().next_id();
        let at = self.telemetry.now_micros();
        self.queue.push((id, query, at));
        id
    }

    /// Number of queries waiting for the next drain.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Serves one query immediately (a drain of one). Queries already
    /// [`submit`](Self::submit)ted stay queued for the next
    /// [`drain`](Self::drain) — this serves *only* the given query.
    ///
    /// # Errors
    ///
    /// Resolution or engine failures for this query.
    pub fn query(&mut self, query: Query) -> Result<QueryResponse, ServiceError> {
        let pending = std::mem::take(&mut self.queue);
        let id = self.submit(query);
        let mut drained = self.drain();
        self.queue = pending;
        debug_assert_eq!(drained.len(), 1);
        let (got, result) = drained.pop().expect("one pending query");
        debug_assert_eq!(got, id);
        result
    }

    /// Drains the queue: one full resolve → group → execute → respond
    /// cycle over everything [`submit`](Self::submit)ted.
    ///
    /// Responses come back in submission order. Per-query failures
    /// (unknown graph, engine error) fail that query alone, not the
    /// drain; an engine failure fails every query of its group (they
    /// shared the pass).
    pub fn drain(&mut self) -> Vec<DrainedQuery> {
        let pending = std::mem::take(&mut self.queue);

        // Stage 1: resolve (cache hits answered in place).
        let mut cycle = Cycle::default();
        let mut resolver = self.resolver();
        for (id, query, at) in pending {
            resolver.resolve(&mut cycle, id, query, at, None, Route::Cycle);
        }

        // Stage 2: group. Stage 3: execute (pure, possibly parallel).
        let groups = group_misses(std::mem::take(&mut cycle.misses), &mut self.cache);
        let clock = self.telemetry.clock();
        let passes = execute_groups(&self.registry, &groups, &self.runner, &clock);

        // Stage 4: respond (ordered state, sequential in group order).
        for (group, pass) in groups.into_iter().zip(passes) {
            self.apply_group(group, pass, &mut cycle.slots);
        }

        cycle
            .slots
            .into_iter()
            .map(|r| r.expect("every pending query answered"))
            .collect()
    }

    /// Splits out the fields stage 1 touches (see [`Resolver`]).
    fn resolver(&mut self) -> Resolver<'_> {
        Resolver {
            registry: &self.registry,
            runner: &self.runner,
            cache: &mut self.cache,
            telemetry: &self.telemetry,
            queries_served: &mut self.queries_served,
            next_id: &mut self.next_id,
        }
    }

    /// Stage 4 for one group: bump the pass counter, record outcomes in
    /// the cache, memoise a newly prepared tester, and fill the
    /// members' response slots with per-query latency attribution.
    fn apply_group(&mut self, group: Group, pass: GroupPass, results: &mut [Option<DrainedQuery>]) {
        self.engine_passes += 1;
        // One stamp closes every member's execute span (resolve end →
        // the group's pass applied here); one more, after the cache
        // inserts, closes the respond span. Reusing the stamps keeps
        // stage sums exactly equal to end-to-end.
        let applied_at = self.telemetry.now_micros();
        let GroupPass {
            by_seed,
            engine_micros,
            prepared,
        } = pass;
        let by_seed = match by_seed {
            Ok(v) => v,
            Err(e) => {
                for (slot, r) in group.members {
                    let mut stages = r.stages;
                    stages.execute_micros = applied_at.saturating_sub(
                        stages.submitted_micros + stages.queue_micros + stages.resolve_micros,
                    );
                    self.telemetry.record_failed_query(stages);
                    results[slot] = Some((r.id, Err(ServiceError::Engine(e.clone()))));
                }
                return;
            }
        };
        let coalesced = group.seeds.len();
        let total_rounds: u64 = by_seed
            .iter()
            .map(|(_, o)| o.stats().total_rounds())
            .sum::<u64>()
            .max(1);
        // The paper-faithful `Paper` mode is not one-sided (it can
        // reject planar graphs — the Claim 10 refutation), so its
        // rejects must not become seed-universal certificates.
        let certifiable = !matches!(group.cfg.embedding, planartest_core::EmbeddingMode::Paper);
        for (seed, outcome) in &by_seed {
            let formed = self.cache.insert(&group.key, *seed, outcome, certifiable);
            // A newly formed certificate is durable before its response
            // goes out. A log failure degrades durability, never
            // availability: the query is still answered from memory.
            if formed {
                if let Some(log) = self.state_log.as_mut() {
                    let record = CertificateRecord {
                        key: group.key,
                        seed: *seed,
                        outcome: (*outcome).clone(),
                    };
                    if let Err(e) = log.append(&record) {
                        eprintln!("planartest: certificate log append failed: {e}");
                    }
                }
            }
        }
        // After the outcomes: a certificate this pass formed keeps its
        // key's tester out of the memo.
        if let Some(prepared) = prepared {
            self.cache.insert_prefix(&group.key, prepared);
        }
        let mut pass_stats = planartest_sim::SimStats::default();
        for (_, outcome) in &by_seed {
            pass_stats.merge(outcome.stats());
        }
        self.telemetry.record_pass(&pass_stats, group.members.len());
        let responded_at = self.telemetry.now_micros();
        // Indexed lane lookup: a Monte-Carlo fan-out can coalesce
        // thousands of seeds, and every member resolves its lane here.
        let outcome_of: HashMap<u64, &Outcome> = by_seed.iter().map(|(s, o)| (*s, o)).collect();
        for (slot, r) in &group.members {
            let lane = group.lane(r);
            let outcome = (*outcome_of.get(&lane).expect("every lane ran")).clone();
            let attributed =
                engine_micros.saturating_mul(outcome.stats().total_rounds()) / total_rounds;
            let mut stages = r.stages;
            let resolved_at = stages.submitted_micros + stages.queue_micros + stages.resolve_micros;
            stages.execute_micros = applied_at.saturating_sub(resolved_at);
            stages.respond_micros = responded_at.saturating_sub(applied_at);
            self.telemetry.record_query(
                r.conn,
                r.id,
                group.key.property,
                CacheStatus::Cold,
                Route::Cycle,
                stages,
                coalesced,
                engine_micros,
            );
            results[*slot] = Some((
                r.id,
                Ok(QueryResponse {
                    id: r.id,
                    graph: group.key.graph,
                    property: group.key.property,
                    seed: lane,
                    outcome,
                    cache: CacheStatus::Cold,
                    coalesced,
                    engine_micros,
                    attributed_micros: attributed,
                    stages,
                }),
            ));
        }
    }
}

/// Stage 2: bucket resolve-stage misses into engine groups by cache
/// key, preserving first-seen order of both groups and members, and
/// collect each group's distinct seed lanes. Each planarity group
/// looks its key's prepared tester up in the memo as it forms.
fn group_misses(misses: Vec<(usize, Resolved)>, cache: &mut ResultCache) -> Vec<Group> {
    let mut index: HashMap<CacheKey, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for (slot, resolved) in misses {
        let g = *index.entry(resolved.key).or_insert_with(|| {
            let prefix = match resolved.key.property {
                Property::Planarity => cache.lookup_prefix(&resolved.key),
                Property::CycleFreeness | Property::Bipartiteness => None,
            };
            groups.push(Group {
                key: resolved.key,
                cfg: resolved.query.cfg.clone(),
                seeds: Vec::new(),
                members: Vec::new(),
                prefix,
            });
            groups.len() - 1
        });
        let group = &mut groups[g];
        let lane = group.lane(&resolved);
        if !group.seeds.contains(&lane) {
            group.seeds.push(lane);
        }
        group.members.push((slot, resolved));
    }
    groups
}

/// Tuning for the background drain loop (see [`Server::start`]).
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// How long the oldest pending query may wait for company before a
    /// cycle fires anyway. `ZERO` (the default) serves every request
    /// immediately — the latency end of the linger-vs-latency
    /// tradeoff; raising it widens the cross-client coalescing window
    /// at the cost of that much added tail latency for lone queries.
    pub linger: Duration,
    /// Queue depth that fires a cycle before the linger expires
    /// (`usize::MAX` = depth never fires one; `linger` alone governs).
    pub wake_depth: usize,
    /// Per-frame byte cap on every transport
    /// ([`DEFAULT_MAX_FRAME`]).
    pub max_frame: usize,
    /// Per-connection outbound queue bound (`--outbound-depth`; `0` =
    /// unbounded). When a connection's writer falls this many responses
    /// behind, further responses to it are *shed* (counted in
    /// [`ServiceStats::responses_shed`]) instead of blocking the drain
    /// cycle.
    pub outbound_depth: usize,
    /// Per-connection in-flight submission cap (`--max-in-flight`;
    /// `0` = unbounded). A connection with this many unanswered
    /// submissions has its reader paused until responses drain, so one
    /// firehose client cannot starve the shared submission queue.
    pub max_in_flight: usize,
}

/// Default per-connection outbound queue bound.
pub const DEFAULT_OUTBOUND_DEPTH: usize = 1024;

/// Default per-connection in-flight submission cap.
pub const DEFAULT_MAX_IN_FLIGHT: usize = 1024;

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            linger: Duration::ZERO,
            wake_depth: usize::MAX,
            max_frame: DEFAULT_MAX_FRAME,
            outbound_depth: DEFAULT_OUTBOUND_DEPTH,
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
        }
    }
}

/// The concurrent server: a dedicated thread owns a [`Service`] and
/// drains the shared submission queue in cycles; transports attach via
/// [`attach_stdio`](Server::attach_stdio) /
/// [`listen_unix`](Server::listen_unix) /
/// [`listen_tcp`](Server::listen_tcp).
#[derive(Debug)]
pub struct Server {
    queue: Arc<SubmissionQueue>,
    connections: Arc<Connections>,
    max_frame: usize,
    handle: thread::JoinHandle<Service>,
}

impl Server {
    /// Starts the background drain loop over `service`.
    #[must_use]
    pub fn start(mut service: Service, opts: ServeOptions) -> Server {
        let queue = Arc::new(SubmissionQueue::new());
        // One timebase end to end: arrival stamps in the queue and
        // stage stamps in the scheduler come off the same clock.
        queue.set_clock(service.telemetry.clock());
        service.bind_queue(Arc::clone(&queue));
        let connections = Arc::new(Connections::new());
        connections.set_limits(opts.outbound_depth, opts.max_in_flight);
        // Writer threads time their writes on the service clock.
        connections.set_telemetry(service.telemetry());
        service.bind_connections(Arc::clone(&connections));
        let handle = {
            let queue = Arc::clone(&queue);
            let connections = Arc::clone(&connections);
            thread::Builder::new()
                .name("planartest-drain".into())
                .spawn(move || drain_loop(service, &queue, &connections, opts))
                .expect("spawn drain loop")
        };
        Server {
            queue,
            connections,
            max_frame: opts.max_frame,
            handle,
        }
    }

    /// Attaches stdin/stdout as a connection (the compatibility
    /// transport). EOF on stdin requests graceful shutdown.
    pub fn attach_stdio(&self) -> ConnectionId {
        spawn_stdio(&self.connections, &self.queue, self.max_frame)
    }

    /// Starts a unix-socket listener at `path`.
    ///
    /// # Errors
    ///
    /// Binding failures.
    #[cfg(unix)]
    pub fn listen_unix(&self, path: &Path) -> io::Result<()> {
        crate::transport::spawn_unix_listener(&self.connections, &self.queue, path, self.max_frame)
    }

    /// Starts a TCP listener; returns the bound address (`:0` resolves
    /// to an ephemeral port).
    ///
    /// # Errors
    ///
    /// Binding failures.
    pub fn listen_tcp(&self, addr: &str) -> io::Result<SocketAddr> {
        spawn_tcp_listener(&self.connections, &self.queue, addr, self.max_frame)
    }

    /// The shared submission queue (shutdown signalling, depth probes,
    /// or custom in-process transports).
    #[must_use]
    pub fn submission_queue(&self) -> Arc<SubmissionQueue> {
        Arc::clone(&self.queue)
    }

    /// The connection table (custom in-process transports: register a
    /// writer, push [`Submission`]s tagged with the returned id).
    #[must_use]
    pub fn connections(&self) -> Arc<Connections> {
        Arc::clone(&self.connections)
    }

    /// Requests graceful shutdown: pending and in-flight queries are
    /// answered, then the drain loop exits.
    pub fn request_shutdown(&self) {
        self.queue.request_shutdown();
    }

    /// Waits for the drain loop to finish (after
    /// [`request_shutdown`](Server::request_shutdown) or a transport
    /// EOF) and returns the service with its registry, cache and
    /// telemetry intact.
    ///
    /// # Panics
    ///
    /// If the drain thread panicked.
    #[must_use]
    pub fn join(self) -> Service {
        self.handle.join().expect("drain loop panicked")
    }
}

/// The overlap window's gate on [`dispatch`]: what waits for the next
/// cycle instead of resolving against a cache the running passes have
/// not updated yet.
struct Overlap {
    /// The running groups' keys: a query on one may be answered by its
    /// pass, so it is held (without holding anything behind it).
    in_flight: HashSet<CacheKey>,
    /// Connections behind their own control op: all they send is held,
    /// so same-connection effects (ingest-then-query) replay in order.
    blocked: HashSet<ConnectionId>,
}

impl Overlap {
    fn in_flight(&self, registry: &GraphRegistry, query: &Query) -> bool {
        cache_key(registry, query).is_ok_and(|key| self.in_flight.contains(&key))
    }
}

/// Stage 1 for one submission, at a cycle's start (no gate) or in the
/// overlap window (an [`Overlap`] gate). A `query` or `batch` op
/// resolves into slots of `cycle`; its line goes out at once when no
/// slot missed (the fast path), else it is owed until the execute
/// barrier. Returns what it did not dispatch: a control op, which the
/// caller answers with the whole service, or — under a gate — a held
/// submission (a control op there also blocks its connection).
fn dispatch(
    resolver: &mut Resolver<'_>,
    cycle: &mut Cycle,
    router: &mut ResponseRouter,
    connections: &Connections,
    token: Token,
    sub: Submission,
    gate: Option<&mut Overlap>,
) -> Option<Submission> {
    if gate.as_ref().is_some_and(|g| g.blocked.contains(&sub.conn)) {
        return Some(sub);
    }
    let parsed = match &sub.request {
        Err(message) => Err(message.clone()),
        Ok(req) => match req.get("op").and_then(Value::as_str) {
            Some("query") => protocol::parse_query(req).map(|q| (vec![q], false)),
            Some("batch") => protocol::parse_batch(req).map(|qs| (qs, true)),
            _ => {
                if let Some(gate) = gate {
                    gate.blocked.insert(sub.conn);
                }
                return Some(sub);
            }
        },
    };
    let (queries, batch) = match parsed {
        Ok(parsed) => parsed,
        Err(message) => {
            router.fulfill(token, &protocol::error_value(message), connections);
            return None;
        }
    };
    if gate.is_some_and(|g| queries.iter().any(|q| g.in_flight(resolver.registry, q))) {
        return Some(sub);
    }
    let start = cycle.slots.len();
    for query in queries {
        let id = resolver.next_id();
        resolver.resolve(cycle, id, query, sub.at_micros, Some(sub.conn), Route::Fast);
    }
    let line = Owed {
        token,
        slots: start..cycle.slots.len(),
        batch,
    };
    if cycle.slots[start..].iter().all(Option::is_some) {
        router.fulfill(token, &cycle.render(&line), connections);
        cycle.slots.truncate(start);
    } else {
        cycle.owed.push(line);
    }
    None
}

/// The drain thread's state from one cycle to the next.
#[derive(Default)]
struct Pipeline {
    router: ResponseRouter,
    /// The next cycle, begun by overlap-window arrivals that resolved
    /// with a cache miss.
    next: Cycle,
    /// Submissions the overlap gate held back, with the router tokens
    /// they were given on arrival.
    held: Vec<(Token, Submission)>,
}

impl Pipeline {
    /// Whether no work is carried into the next cycle.
    fn is_idle(&self) -> bool {
        self.next.owed.is_empty() && self.held.is_empty()
    }
}

/// The background drain loop: waits for a cycle, runs it, and repeats
/// until shutdown, then flushes the per-connection outbound writer
/// queues. It only waits when nothing is carried: carried work must
/// reach the engine before anything newer is dispatched.
fn drain_loop(
    mut service: Service,
    queue: &SubmissionQueue,
    connections: &Connections,
    opts: ServeOptions,
) -> Service {
    let mut pipe = Pipeline::default();
    loop {
        let fresh = if pipe.is_idle() {
            match queue.wait_cycle(opts.linger, opts.wake_depth) {
                Some(fresh) => Some(fresh),
                None => break,
            }
        } else {
            None
        };
        if matches!(fresh, Some((_, WakeReason::Shutdown))) {
            // From here on, undeliverable responses are shutdown-flush
            // casualties, not mid-flight losses.
            connections.begin_shutdown_flush();
        }
        run_cycle(&mut service, queue, connections, &mut pipe, fresh);
    }
    // Graceful shutdown: every computed response is already enqueued;
    // wait for the writers to put them on the wire (stuck connections
    // are force-closed after a grace period), then join the writers.
    connections.finish_shutdown_flush();
    service
}

/// One server cycle over the carried work plus a `wait_cycle` batch
/// (`fresh`, with the reason it fired): dispatch the held, then the
/// fresh submissions with no gate, into the cycle the last overlap
/// window began; group its misses; execute the groups on a scoped
/// thread while this thread dispatches overlap arrivals, gated, into
/// the next cycle (the execute stage only reads the registry and
/// runner, the [`Resolver`] writes the cache and counters); then apply
/// the passes in group order and fulfil the owed lines. Every cycle
/// records its group count once; one of carried work alone records as
/// a `pipeline` wake of width 0, since the overlap window counted its
/// submissions when it collected them.
fn run_cycle(
    service: &mut Service,
    queue: &SubmissionQueue,
    connections: &Connections,
    pipe: &mut Pipeline,
    fresh: Option<(Vec<Submission>, WakeReason)>,
) {
    let Pipeline { router, next, held } = pipe;
    let mut cycle = std::mem::take(next);
    let (reason, width) = fresh
        .as_ref()
        .map_or((WakeReason::Pipeline, 0), |(subs, reason)| {
            (*reason, subs.len())
        });
    // Held submissions first: their tokens predate every fresh one.
    let mut arrivals = std::mem::take(held);
    for sub in fresh.into_iter().flat_map(|(subs, _)| subs) {
        arrivals.push((router.admit(sub.conn), sub));
    }
    for (token, sub) in arrivals {
        let resolver = &mut service.resolver();
        let control = dispatch(resolver, &mut cycle, router, connections, token, sub, None);
        if let Some(req) = control.and_then(|sub| sub.request.ok()) {
            router.fulfill(token, &protocol::handle_request(service, &req), connections);
        }
    }

    // Overlap batches are recorded as `pipeline` wakes when collected.
    let groups = group_misses(std::mem::take(&mut cycle.misses), &mut service.cache);
    service.telemetry.record_cycle(reason, width, groups.len());
    if groups.is_empty() {
        debug_assert!(cycle.owed.is_empty(), "no groups, no owed lines");
        return;
    }

    let mut gate = Overlap {
        in_flight: groups.iter().map(|g| g.key).collect(),
        blocked: HashSet::new(),
    };
    queue.pipeline_begin();
    let mut resolver = service.resolver();
    let (registry, runner) = (resolver.registry, resolver.runner);
    let clock = resolver.telemetry.clock();
    let passes = thread::scope(|scope| {
        let exec = scope.spawn({
            let groups = &groups;
            move || {
                let passes = execute_groups(registry, groups, runner, &clock);
                queue.pipeline_done();
                passes
            }
        });
        while let Some(batch) = queue.wait_overlap() {
            resolver
                .telemetry
                .record_cycle(WakeReason::Pipeline, batch.len(), 0);
            for sub in batch {
                let token = router.admit(sub.conn);
                let gate = Some(&mut gate);
                if let Some(sub) =
                    dispatch(&mut resolver, next, router, connections, token, sub, gate)
                {
                    held.push((token, sub));
                }
            }
        }
        exec.join().expect("group execution thread panicked")
    });

    for (group, pass) in groups.into_iter().zip(passes) {
        service.apply_group(group, pass, &mut cycle.slots);
    }
    for line in &cycle.owed {
        router.fulfill(line.token, &cycle.render(line), connections);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{GraphRef, Property};
    use planartest_core::{PlanarityTester, TesterConfig};
    use std::io::Write;
    use std::sync::Mutex;

    fn cfg(eps: f64) -> TesterConfig {
        TesterConfig::new(eps).with_phases(5)
    }

    fn service_with(name: &str, spec: &str) -> Service {
        let mut s = Service::new();
        s.registry_mut().ingest_spec(name, spec).unwrap();
        s
    }

    /// An in-process transport endpoint: a shared byte sink a
    /// connection's writer thread flushes response lines into.
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
        fn responses(&self) -> Vec<Value> {
            String::from_utf8(self.0.lock().unwrap().clone())
                .unwrap()
                .lines()
                .map(|l| Value::parse(l).unwrap())
                .collect()
        }
    }

    /// A `query` op on graph `graph` at `epsilon` 0.2, 5 phases.
    fn query_op(graph: &str, seed: u64) -> Result<Value, String> {
        Ok(Value::obj()
            .field("op", "query")
            .field("graph", graph)
            .field("epsilon", 0.2)
            .field("phases", 5u64)
            .field("seed", seed))
    }

    /// Drives `run_cycle` the way `drain_loop` does, on a private queue
    /// and connection table with one in-process sink per connection
    /// (ids `0..conns`). The first cycle takes `first`, fired by
    /// `reason`; `queued` is already in the queue when it starts, so it
    /// arrives in that cycle's overlap window — or, if the pass wins
    /// the race, in the next cycle. Cycles run until nothing is left.
    /// Returns each connection's response lines.
    fn serve_cycles(
        service: &mut Service,
        conns: usize,
        first: Vec<Submission>,
        reason: WakeReason,
        queued: Vec<Submission>,
    ) -> Vec<Vec<Value>> {
        let queue = SubmissionQueue::new();
        for sub in queued {
            queue.push(sub);
        }
        let connections = Connections::new();
        let sinks: Vec<Sink> = (0..conns).map(|_| Sink::default()).collect();
        for (id, sink) in (0..).zip(&sinks) {
            assert_eq!(connections.register(Box::new(sink.clone())), id);
        }
        let mut pipe = Pipeline::default();
        let mut fresh = Some((first, reason));
        loop {
            run_cycle(service, &queue, &connections, &mut pipe, fresh);
            fresh = if !pipe.is_idle() {
                None
            } else if queue.depth() > 0 {
                queue.wait_cycle(Duration::ZERO, usize::MAX)
            } else {
                break;
            };
        }
        connections.finish_shutdown_flush();
        sinks.iter().map(Sink::responses).collect()
    }

    #[test]
    fn cold_then_warm_then_certificate() {
        let mut s = service_with("far", "k5_chain(6)");
        let q =
            |seed: u64| Query::planarity(GraphRef::Name("far".into()), cfg(0.05).with_seed(seed));
        let cold = s.query(q(1)).unwrap();
        assert_eq!(cold.cache, CacheStatus::Cold);
        assert!(!cold.outcome.accepted());
        assert_eq!(s.engine_passes(), 1);

        let warm = s.query(q(1)).unwrap();
        assert_eq!(warm.cache, CacheStatus::Warm);
        assert_eq!(s.engine_passes(), 1, "warm hit must not run the engine");
        assert_eq!(
            warm.outcome.rejecting_nodes(),
            cold.outcome.rejecting_nodes()
        );
        assert_eq!(warm.outcome.stats(), cold.outcome.stats());

        // Unseen seed on a known-rejected graph: certificate replay,
        // stamped with the certifying seed, no engine pass.
        let cert = s.query(q(2)).unwrap();
        assert_eq!(cert.cache, CacheStatus::Certificate);
        assert_eq!(cert.seed, 1);
        assert!(!cert.outcome.accepted());
        assert_eq!(s.engine_passes(), 1);
    }

    #[test]
    fn accepts_do_not_transfer_across_seeds() {
        let mut s = service_with("p", "tri_grid(5,5)");
        let q = |seed: u64| Query::planarity(GraphRef::Name("p".into()), cfg(0.2).with_seed(seed));
        assert!(s.query(q(1)).unwrap().outcome.accepted());
        assert_eq!(s.engine_passes(), 1);
        let other = s.query(q(2)).unwrap();
        assert_eq!(other.cache, CacheStatus::Cold, "fresh seed, fresh run");
        assert_eq!(s.engine_passes(), 2);
    }

    #[test]
    fn same_graph_queries_coalesce_into_one_pass() {
        let mut s = service_with("p", "tri_grid(5,5)");
        let ids: Vec<QueryId> = (0..4)
            .map(|seed| {
                s.submit(Query::planarity(
                    GraphRef::Name("p".into()),
                    cfg(0.2).with_seed(seed),
                ))
            })
            .collect();
        assert_eq!(s.pending(), 4);
        let drained = s.drain();
        assert_eq!(s.engine_passes(), 1, "four seeds, one engine pass");
        assert_eq!(drained.len(), 4);
        for ((id, result), want) in drained.iter().zip(&ids) {
            assert_eq!(id, want, "submission order preserved");
            let r = result.as_ref().unwrap();
            assert_eq!(r.coalesced, 4);
            assert!(r.attributed_micros <= r.engine_micros);
        }
        // Attribution splits the pass: shares sum to ~the pass wall.
        let total: u64 = drained
            .iter()
            .map(|(_, r)| r.as_ref().unwrap().attributed_micros)
            .sum();
        let pass = drained[0].1.as_ref().unwrap().engine_micros;
        assert!(total <= pass + 4);
    }

    #[test]
    fn coalesced_outcomes_match_solo_runs_bit_for_bit() {
        let mut s = service_with("p", "tri_grid(5,5)");
        for seed in 0..3 {
            s.submit(Query::planarity(
                GraphRef::Name("p".into()),
                cfg(0.2).with_seed(seed),
            ));
        }
        let drained = s.drain();
        let graph = planartest_graph::generators::spec::parse("tri_grid(5,5)")
            .unwrap()
            .graph;
        for (seed, (_, result)) in (0..3u64).zip(&drained) {
            let solo = PlanarityTester::new(cfg(0.2).with_seed(seed))
                .run(&graph)
                .unwrap();
            match &result.as_ref().unwrap().outcome {
                Outcome::Planarity(o) => {
                    assert_eq!(o.rejections, solo.rejections, "seed {seed}");
                    assert_eq!(o.stats, solo.stats, "seed {seed}");
                    assert_eq!(o.violation_witnesses, solo.violation_witnesses);
                }
                other => panic!("wrong outcome shape {other:?}"),
            }
        }
    }

    #[test]
    fn hereditary_properties_are_seed_free_and_cached() {
        let mut s = service_with("g", "grid(5,5)");
        let q = |seed: u64, p: Property| {
            Query::planarity(GraphRef::Name("g".into()), cfg(0.2).with_seed(seed)).with_property(p)
        };
        let a = s.query(q(1, Property::Bipartiteness)).unwrap();
        assert!(a.outcome.accepted(), "grids are bipartite");
        assert_eq!(s.engine_passes(), 1);
        // Different seed, same property: warm (verdict is seed-free).
        let b = s.query(q(2, Property::Bipartiteness)).unwrap();
        assert_eq!(b.cache, CacheStatus::Warm);
        assert_eq!(s.engine_passes(), 1);
        // Different property: its own pass.
        let c = s.query(q(1, Property::CycleFreeness)).unwrap();
        assert!(!c.outcome.accepted(), "grids have cycles");
        assert_eq!(s.engine_passes(), 2);
    }

    #[test]
    fn paper_mode_rejects_never_become_certificates() {
        // Paper mode is not one-sided — the Claim 10
        // refutation shows it can reject planar graphs — so a reject
        // under one seed proves nothing about other seeds and must not
        // be replayed for them.
        let mut s = service_with("k33", "complete_bipartite(3,3)");
        let q = |seed: u64| {
            Query::planarity(
                GraphRef::Name("k33".into()),
                cfg(0.1)
                    .with_seed(seed)
                    .with_embedding(planartest_core::EmbeddingMode::Paper),
            )
        };
        let first = s.query(q(1)).unwrap();
        assert!(!first.outcome.accepted());
        // Fresh seed: its own engine pass, not a certificate replay.
        let second = s.query(q(2)).unwrap();
        assert_eq!(second.cache, CacheStatus::Cold);
        assert_eq!(s.engine_passes(), 2);
        // Exact-seed replay still works (it is an observation, and the
        // observation is deterministic per seed).
        assert_eq!(s.query(q(1)).unwrap().cache, CacheStatus::Warm);
        assert_eq!(s.engine_passes(), 2);
    }

    #[test]
    fn query_preserves_previously_submitted_queue() {
        let mut s = service_with("p", "tri_grid(4,4)");
        let pending_id = s.submit(Query::planarity(
            GraphRef::Name("p".into()),
            cfg(0.2).with_seed(11),
        ));
        // A one-shot in between must serve only itself...
        let one_shot = s
            .query(Query::planarity(
                GraphRef::Name("p".into()),
                cfg(0.2).with_seed(22),
            ))
            .unwrap();
        assert_eq!(one_shot.coalesced, 1);
        // ...and the earlier submission is still pending and drainable.
        assert_eq!(s.pending(), 1);
        let drained = s.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, pending_id);
        assert!(drained[0].1.is_ok());
    }

    #[test]
    fn unknown_graph_fails_only_that_query() {
        let mut s = service_with("p", "tri_grid(4,4)");
        s.submit(Query::planarity(GraphRef::Name("missing".into()), cfg(0.2)));
        s.submit(Query::planarity(GraphRef::Name("p".into()), cfg(0.2)));
        let drained = s.drain();
        assert!(matches!(
            drained[0].1,
            Err(ServiceError::UnknownGraph { .. })
        ));
        assert!(drained[1].1.is_ok());
        let stats = s.stats();
        assert_eq!(stats.queries_served, 2);
        assert_eq!(stats.graphs, 1);
        assert_eq!(stats.engine_passes, 1);
    }

    #[test]
    fn queries_by_fingerprint_resolve() {
        let mut s = Service::new();
        let fp = s
            .registry_mut()
            .ingest_spec("p", "tri_grid(4,4)")
            .unwrap()
            .fingerprint;
        let r = s
            .query(Query::planarity(GraphRef::Fingerprint(fp), cfg(0.2)))
            .unwrap();
        assert_eq!(r.graph, fp);
    }

    #[test]
    fn parallel_group_drain_matches_sequential() {
        // The determinism contract in miniature (the proptest suite
        // does this at scale): mixed properties, two graphs, group
        // execution fanned across 4 workers vs 1.
        let build = |threads: usize| {
            let mut s = Service::new().with_group_threads(threads);
            s.registry_mut().ingest_spec("p", "tri_grid(4,4)").unwrap();
            s.registry_mut().ingest_spec("far", "k5_chain(4)").unwrap();
            for seed in 0..2 {
                s.submit(Query::planarity(
                    GraphRef::Name("p".into()),
                    cfg(0.2).with_seed(seed),
                ));
                s.submit(Query::planarity(
                    GraphRef::Name("far".into()),
                    cfg(0.05).with_seed(seed),
                ));
            }
            s.submit(
                Query::planarity(GraphRef::Name("p".into()), cfg(0.2))
                    .with_property(Property::Bipartiteness),
            );
            s.drain()
        };
        let sequential = build(1);
        let parallel = build(4);
        assert_eq!(sequential.len(), parallel.len());
        for ((id_a, a), (id_b, b)) in sequential.iter().zip(&parallel) {
            assert_eq!(id_a, id_b);
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.outcome.accepted(), b.outcome.accepted());
            assert_eq!(a.outcome.stats(), b.outcome.stats());
            assert_eq!(a.outcome.rejecting_nodes(), b.outcome.rejecting_nodes());
            assert_eq!(a.coalesced, b.coalesced);
            assert_eq!(a.seed, b.seed);
        }
    }

    #[test]
    fn cold_restart_replays_certificates_without_engine_passes() {
        let dir = std::env::temp_dir().join(format!("pt_sched_restart_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let q =
            |seed: u64| Query::planarity(GraphRef::Name("far".into()), cfg(0.05).with_seed(seed));
        let cold = {
            let mut s = Service::new();
            let summary = s.set_state_dir(&dir).unwrap();
            assert_eq!(
                summary,
                StateSummary::default(),
                "fresh dir restores nothing"
            );
            s.registry_mut().ingest_spec("far", "k5_chain(6)").unwrap();
            let cold = s.query(q(1)).unwrap();
            assert!(!cold.outcome.accepted());
            assert_eq!(s.engine_passes(), 1);
            cold
        };
        // Cold restart: the graph re-maps, the certificate replays, and
        // the previously-certified query is answered with zero passes —
        // for the certifying seed *and* for seeds that never ran.
        let mut s = Service::new();
        let summary = s.set_state_dir(&dir).unwrap();
        assert_eq!(
            summary,
            StateSummary {
                graphs_restored: 1,
                certificates_replayed: 1,
                tail_skipped: 0,
            }
        );
        // Re-attaching is idempotent: everything is already live.
        assert_eq!(s.set_state_dir(&dir).unwrap(), StateSummary::default());
        assert_eq!(s.stats().mapped_graphs, 1);
        let replayed = s.query(q(1)).unwrap();
        assert_eq!(replayed.cache, CacheStatus::Certificate);
        assert_eq!(
            replayed.outcome.rejecting_nodes(),
            cold.outcome.rejecting_nodes()
        );
        assert_eq!(replayed.outcome.stats(), cold.outcome.stats());
        let fresh_seed = s.query(q(99)).unwrap();
        assert_eq!(fresh_seed.cache, CacheStatus::Certificate);
        assert_eq!(fresh_seed.seed, 1, "stamped with the certifying seed");
        assert_eq!(s.engine_passes(), 0, "no engine work after restart");
        // Compaction rewrites the log to exactly the live set.
        assert_eq!(s.compact_certificates().unwrap(), 1);
        assert!(matches!(
            Service::new().compact_certificates(),
            Err(ServiceError::Persist(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cycle_routes_responses_per_connection_in_submission_order() {
        let mut s = service_with("p", "tri_grid(4,4)");
        // Two connections interleaved, plus a control op and a garbage
        // frame mid-cycle.
        let subs = vec![
            Submission::new(0, query_op("p", 1)),
            Submission::new(1, query_op("p", 2)),
            Submission::new(0, Err("frame exceeds the 16-byte limit".into())),
            Submission::new(1, Ok(Value::obj().field("op", "stats"))),
            Submission::new(0, query_op("p", 3)),
        ];
        let responses = serve_cycles(&mut s, 2, subs, WakeReason::Control, Vec::new());
        assert_eq!(responses.iter().map(Vec::len).sum::<usize>(), 5);
        let seeds = |conn: usize| -> Vec<Option<u64>> {
            responses[conn]
                .iter()
                .map(|v| v.get("seed").and_then(Value::as_u64))
                .collect()
        };
        assert_eq!(
            seeds(0),
            [Some(1), None, Some(3)],
            "arrival order preserved"
        );
        assert_eq!(seeds(1), [Some(2), None], "arrival order preserved");
        // The three same-key queries coalesced into one pass...
        assert_eq!(s.engine_passes(), 1);
        for v in [&responses[0][0], &responses[1][0], &responses[0][2]] {
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
            assert_eq!(v.get("coalesced").unwrap().as_u64(), Some(3));
        }
        // ...the garbage frame answered in-band on its connection...
        assert_eq!(responses[0][1].get("ok").unwrap().as_bool(), Some(false));
        // ...and the control op answered in place.
        assert_eq!(responses[1][1].get("ok").unwrap().as_bool(), Some(true));
        assert!(responses[1][1].get("graphs").is_some());
    }

    #[test]
    fn cycle_ingest_is_visible_to_later_queries_in_the_same_cycle() {
        let mut s = Service::new();
        let subs = vec![
            Submission::new(
                0,
                Ok(Value::obj()
                    .field("op", "ingest")
                    .field("name", "g")
                    .field("spec", "tri_grid(4,4)")),
            ),
            Submission::new(1, query_op("g", 0)),
        ];
        let responses = serve_cycles(&mut s, 2, subs, WakeReason::Control, Vec::new());
        assert_eq!(responses[0][0].get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            responses[1][0].get("verdict").unwrap().as_str(),
            Some("accept"),
            "query resolved against the ingest earlier in the cycle"
        );
    }

    #[test]
    fn cycle_batch_op_reassembles_and_coalesces_across_connections() {
        let mut s = service_with("p", "tri_grid(4,4)");
        let member = |seed: u64| query_op("p", seed).unwrap();
        let subs = vec![
            Submission::new(
                0,
                Ok(Value::obj()
                    .field("op", "batch")
                    .field("queries", vec![member(1), member(2)])),
            ),
            Submission::new(1, query_op("p", 3)),
        ];
        let responses = serve_cycles(&mut s, 2, subs, WakeReason::Depth, Vec::new());
        // One pass serves the batch *and* the other connection's query.
        assert_eq!(s.engine_passes(), 1);
        let batch = responses[0][0].get("responses").unwrap().as_arr().unwrap();
        assert_eq!(batch.len(), 2);
        for member in batch {
            assert_eq!(member.get("coalesced").unwrap().as_u64(), Some(3));
        }
        assert_eq!(responses[1][0].get("coalesced").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn overlap_defers_in_flight_keys_and_holds_a_connection_behind_its_control_op() {
        let mut s = service_with("p", "tri_grid(16,16)");
        let first = vec![Submission::new(0, query_op("p", 1))];
        // Queued while the cold pass runs: connection 1's identical
        // query (its key is in flight), then connection 0's ingest and a
        // query that only resolves after it.
        let queued = vec![
            Submission::new(1, query_op("p", 1)),
            Submission::new(
                0,
                Ok(Value::obj()
                    .field("op", "ingest")
                    .field("name", "q")
                    .field("spec", "tri_grid(4,4)")),
            ),
            Submission::new(0, query_op("q", 1)),
        ];
        let responses = serve_cycles(&mut s, 2, first, WakeReason::Depth, queued);
        let field = |conn: usize, line: usize, name: &str| {
            responses[conn][line].get(name).and_then(Value::as_str)
        };
        assert_eq!(responses[0].len(), 3);
        assert_eq!(field(0, 0, "cache"), Some("cold"));
        assert_eq!(
            field(1, 0, "cache"),
            Some("warm"),
            "the in-flight pass answers the identical query"
        );
        assert_eq!(
            field(0, 2, "verdict"),
            Some("accept"),
            "the query behind the ingest resolved after it"
        );
        assert_eq!(s.engine_passes(), 2);
    }

    #[test]
    fn a_cycle_of_carried_work_alone_records_its_groups() {
        let mut s = service_with("p", "tri_grid(4,4)");
        let connections = Connections::new();
        let conn = connections.register(Box::new(Sink::default()));
        let mut pipe = Pipeline::default();
        let token = pipe.router.admit(conn);
        pipe.held
            .push((token, Submission::new(conn, query_op("p", 1))));
        run_cycle(
            &mut s,
            &SubmissionQueue::new(),
            &connections,
            &mut pipe,
            None,
        );
        connections.finish_shutdown_flush();
        assert_eq!(s.engine_passes(), 1);
        let metrics = s.telemetry().metrics_value();
        let groups = metrics.get("cycles").and_then(|c| c.get("groups"));
        assert_eq!(
            groups.and_then(|g| g.get("sum")).and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(s.telemetry().wake_counts(), [0, 0, 0, 0, 1]);
    }

    #[test]
    fn server_drains_in_process_submissions_and_flushes_on_shutdown() {
        let mut service = service_with("p", "tri_grid(4,4)");
        service.set_group_threads(2);
        let server = Server::start(
            service,
            ServeOptions {
                linger: Duration::from_secs(3600),
                wake_depth: usize::MAX,
                ..ServeOptions::default()
            },
        );
        // An in-process transport: a shared Vec sink captures the
        // routed response bytes.
        let sink = Sink::default();
        let conn = server.connections().register(Box::new(sink.clone()));
        let queue = server.submission_queue();
        queue.push(Submission::new(conn, query_op("p", 1)));
        // The cycle is lingering (1h); shutdown must flush it.
        server.request_shutdown();
        let service = server.join();
        assert_eq!(service.engine_passes(), 1, "pending query was flushed");
        assert_eq!(service.stats().queries_served, 1);
        let responses = sink.responses();
        assert_eq!(responses.len(), 1);
        let response = &responses[0];
        assert_eq!(response.get("verdict").unwrap().as_str(), Some("accept"));
        assert_eq!(response.get("cache").unwrap().as_str(), Some("cold"));
    }
}
