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
//!    key, first-seen order;
//! 3. **execute** — run each group through **one** batched
//!    [`PlanarityTester::run_many`](planartest_core::PlanarityTester::run_many)
//!    pass, independent groups fanned across a
//!    [`TrialRunner`] pool (the `exec` module) — pure, so parallel and
//!    sequential drains are bit-for-bit identical;
//! 4. **respond** — apply cache inserts and counters sequentially in
//!    group order and fill every response slot, submission order
//!    preserved.
//!
//! [`Service::drain`] is the synchronous, caller-driven form of that
//! pipeline (one cycle, responses returned). [`Server`] is the
//! concurrent form: a dedicated thread owns the service and runs a
//! *pipelined* version of the same cycle against the shared
//! [`SubmissionQueue`] that every transport
//! ([`crate::transport`]) feeds, waking on queue depth, a control op,
//! or a configurable linger timer — so *independent clients'*
//! same-graph queries coalesce into shared engine passes without any
//! client knowing about the others. The pipelined loop differs from
//! the synchronous drain in wall-clock shape only, never in results:
//!
//! - **writes are off the critical path** — responses go to bounded
//!   per-connection outbound queues drained by dedicated writer
//!   threads ([`Connections`]), so one stalled client cannot block
//!   the cycle;
//! - **hits take a fast path** — warm-cache and certificate answers
//!   are enqueued to their connection's writer at resolve time,
//!   before the cycle's execute barrier;
//! - **cycles overlap** — while the group-execution pool runs cycle
//!   N's engine passes, the drain thread resolves cycle N+1's
//!   arrivals against the cache (deferring anything that touches an
//!   in-flight group or needs mutable service state).
//!
//! Responses are still routed back per-connection in submission order
//! (a sequencing router re-orders out-of-order fulfilments), and a
//! shutdown request (stdin EOF, SIGTERM) flushes everything pending —
//! including the outbound writer queues — before the loop exits.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::SocketAddr;
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

/// What the resolve stage decided for one query.
pub(crate) enum Resolution {
    /// Answered without engine work (cache hit or resolution failure).
    Done(Result<QueryResponse, ServiceError>),
    /// Needs an engine pass; goes to the group stage.
    Miss(Resolved),
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
        ServiceStats {
            graphs: self.registry.len(),
            resident_graphs: self.registry.resident(),
            mapped_graphs: self.registry.mapped(),
            cache_slots: self.cache.len(),
            cached_outcomes: self.cache.stored_outcomes(),
            cache: self.cache.stats(),
            accept_stripes: self.cache.accept_stripes(),
            accept_capacity: self.cache.accept_capacity(),
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

    /// Drops all cached results (cold-path measurement hook for load
    /// drivers; the registry stays resident).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Enqueues a query for the next [`drain`](Self::drain); returns its
    /// id. The submit stamp taken here is the origin of the query's
    /// queue-wait stage span.
    pub fn submit(&mut self, query: Query) -> QueryId {
        let id = self.next_query_id();
        let at = self.telemetry.now_micros();
        self.queue.push((id, query, at));
        id
    }

    /// Number of queries waiting for the next drain.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    fn next_query_id(&mut self) -> QueryId {
        let id = self.next_id;
        self.next_id += 1;
        id
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
        let mut results: Vec<Option<DrainedQuery>> = Vec::new();
        results.resize_with(pending.len(), || None);

        // Stage 1: resolve (cache hits answered in place).
        let mut misses: Vec<(usize, Resolved)> = Vec::new();
        for (slot, (id, query, at)) in pending.into_iter().enumerate() {
            match self.resolve_one(id, query, at, None, Route::Cycle) {
                Resolution::Done(result) => results[slot] = Some((id, result)),
                Resolution::Miss(resolved) => misses.push((slot, resolved)),
            }
        }

        // Stage 2: group. Stage 3: execute (pure, possibly parallel).
        let groups = group_misses(misses);
        let clock = self.telemetry.clock();
        let passes = execute_groups(&self.registry, &groups, &self.runner, &clock);

        // Stage 4: respond (ordered state, sequential in group order).
        for (group, pass) in groups.into_iter().zip(passes) {
            self.apply_group(group, pass, &mut results);
        }

        results
            .into_iter()
            .map(|r| r.expect("every pending query answered"))
            .collect()
    }

    /// Stage 1 for one query: registry resolution + cache lookup. See
    /// [`resolve_query`] (the pipelined drain loop calls the free form
    /// with split field borrows while the execute stage holds the
    /// registry).
    pub(crate) fn resolve_one(
        &mut self,
        id: QueryId,
        query: Query,
        submitted_micros: u64,
        conn: Option<ConnectionId>,
        route: Route,
    ) -> Resolution {
        resolve_query(
            &self.registry,
            &mut self.cache,
            &self.telemetry,
            &mut self.queries_served,
            id,
            query,
            submitted_micros,
            conn,
            route,
        )
    }

    /// Stage 4 for one group: bump the pass counter, record outcomes in
    /// the cache, and fill the members' response slots with per-query
    /// latency attribution.
    pub(crate) fn apply_group(
        &mut self,
        group: Group,
        pass: GroupPass,
        results: &mut [Option<DrainedQuery>],
    ) {
        self.engine_passes += 1;
        // One stamp closes every member's execute span (resolve end →
        // the group's pass applied here); one more, after the cache
        // inserts, closes the respond span. Reusing the stamps keeps
        // stage sums exactly equal to end-to-end.
        let applied_at = self.telemetry.now_micros();
        let by_seed = match pass.by_seed {
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
        let engine_micros = pass.engine_micros;
        let coalesced = group.seeds.len();
        let total_rounds: u64 = by_seed
            .iter()
            .map(|(_, o)| o.stats().total_rounds())
            .sum::<u64>()
            .max(1);
        // The paper-faithful Demoucron mode is not one-sided (it can
        // reject planar graphs — the Claim 10 refutation), so its
        // rejects must not become seed-universal certificates.
        let certifiable = !matches!(
            group.cfg.embedding,
            planartest_core::EmbeddingMode::Demoucron
        );
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

/// Stage 1 for one query, in free form: registry resolution + cache
/// lookup against explicitly-borrowed service fields, so the pipelined
/// drain loop can resolve cycle N+1's arrivals while the execute stage
/// holds shared borrows of the registry and runner.
///
/// Stage spans stay contiguous by construction: the queue span ends
/// on the single stamp taken at entry, and the resolve span ends on
/// the single stamp taken when the walk finishes — so
/// `queue + resolve (+ execute + respond)` sums *exactly* to
/// end-to-end on the service clock.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resolve_query(
    registry: &GraphRegistry,
    cache: &mut ResultCache,
    telemetry: &Telemetry,
    queries_served: &mut u64,
    id: QueryId,
    query: Query,
    submitted_micros: u64,
    conn: Option<ConnectionId>,
    route: Route,
) -> Resolution {
    *queries_served += 1;
    let resolve_start = telemetry.now_micros();
    let mut stages = StageTimes {
        submitted_micros,
        queue_micros: resolve_start.saturating_sub(submitted_micros),
        ..StageTimes::default()
    };
    let close = |stages: &mut StageTimes, telemetry: &Telemetry| {
        stages.resolve_micros = telemetry.now_micros().saturating_sub(resolve_start);
    };
    let entry = match registry.resolve(&query.graph) {
        Ok(e) => e,
        Err(err) => {
            close(&mut stages, telemetry);
            telemetry.record_failed_query(stages);
            return Resolution::Done(Err(err));
        }
    };
    let key = CacheKey {
        graph: entry.fingerprint,
        config: query.cfg.fingerprint(),
        property: query.property,
    };
    let seed = query.cfg.seed;
    if let Some((outcome, status, stored_seed)) = cache.lookup(&key, seed) {
        close(&mut stages, telemetry);
        telemetry.record_query(conn, id, query.property, status, route, stages, 0, 0);
        return Resolution::Done(Ok(QueryResponse {
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
        }));
    }
    close(&mut stages, telemetry);
    Resolution::Miss(Resolved {
        id,
        key,
        seed,
        query,
        conn,
        stages,
    })
}

/// Stage 2: bucket resolve-stage misses into engine groups by cache
/// key, preserving first-seen order of both groups and members, and
/// collect each group's distinct seed lanes.
pub(crate) fn group_misses(misses: Vec<(usize, Resolved)>) -> Vec<Group> {
    let mut index: HashMap<(u128, u128, Property), usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for (slot, resolved) in misses {
        let gk = (
            resolved.key.graph.0,
            resolved.key.config.0,
            resolved.key.property,
        );
        let g = match index.get(&gk) {
            Some(&g) => g,
            None => {
                index.insert(gk, groups.len());
                groups.push(Group {
                    key: resolved.key,
                    cfg: resolved.query.cfg.clone(),
                    seeds: Vec::new(),
                    members: Vec::new(),
                });
                groups.len() - 1
            }
        };
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

/// A response owed from an earlier cycle, carried into the next one by
/// the pipelined drain loop. Its router token was assigned at arrival,
/// so delivery order per connection is preserved no matter how many
/// cycles it rides.
enum Pending {
    /// A submission that arrived during overlap but could not be
    /// resolved early (control op, connection behind a control op, or
    /// a cache key with an in-flight engine group): replayed through
    /// the full dispatch next cycle.
    Raw(Token, Submission),
    /// A query resolved to a cache miss during overlap: goes straight
    /// to the group stage next cycle. Boxed to keep the carried-raw
    /// variant (the common case) small.
    Miss(Token, Box<Resolved>),
    /// A `batch` op resolved member-by-member during overlap with at
    /// least one miss: hits keep their already-recorded responses
    /// (re-resolving would double-count telemetry), misses go to the
    /// group stage next cycle.
    Batch(Token, Vec<BatchMember>),
}

/// One member of an overlap-resolved `batch` op.
enum BatchMember {
    /// Resolved at overlap time (hit or error), response in hand.
    Done(DrainedQuery),
    /// A cache miss: rides the next cycle's group stage.
    Miss(Resolved),
}

/// A response the pipelined loop owes after the execute barrier (the
/// fast path never creates one of these).
enum Deferred {
    /// One query miss: its response lives in the flat slot.
    Single(Token, usize),
    /// A `batch` op with at least one miss: one slot per member,
    /// re-assembled into a single `{"responses": [...]}` line.
    Batch(Token, Vec<usize>),
}

fn render_result(result: Result<QueryResponse, ServiceError>) -> Value {
    match result {
        Ok(response) => protocol::response_value(&response),
        Err(e) => protocol::error_value(&e),
    }
}

fn take_slot(flat: &mut [Option<DrainedQuery>], slot: usize) -> Value {
    render_result(flat[slot].take().expect("every cycle slot answered").1)
}

fn render_batch(slots: &[usize], flat: &mut [Option<DrainedQuery>]) -> Value {
    Value::obj().field("ok", true).field(
        "responses",
        slots
            .iter()
            .map(|&s| take_slot(flat, s))
            .collect::<Vec<Value>>(),
    )
}

/// Phase 1 of the pipelined cycle, for one submission: dispatch it
/// exactly like [`process_cycle`] would, but fulfil everything that
/// does not need the execute barrier — hits, control answers, errors —
/// through the router *immediately* (the hit fast path).
#[allow(clippy::too_many_arguments)]
fn dispatch_submission(
    service: &mut Service,
    router: &mut ResponseRouter,
    connections: &Connections,
    token: Token,
    sub: Submission,
    flat: &mut Vec<Option<DrainedQuery>>,
    misses: &mut Vec<(usize, Resolved)>,
    deferred: &mut Vec<Deferred>,
) {
    let (conn, at) = (sub.conn, sub.at_micros);
    match sub.request {
        Err(message) => router.fulfill(token, &protocol::error_value(&message), connections),
        Ok(req) => match req.get("op").and_then(Value::as_str) {
            Some("query") => match protocol::parse_query(&req) {
                Ok(q) => {
                    let id = service.next_query_id();
                    match service.resolve_one(id, q, at, Some(conn), Route::Fast) {
                        Resolution::Done(result) => {
                            router.fulfill(token, &render_result(result), connections);
                        }
                        Resolution::Miss(resolved) => {
                            let slot = flat.len();
                            flat.push(None);
                            misses.push((slot, resolved));
                            deferred.push(Deferred::Single(token, slot));
                        }
                    }
                }
                Err(e) => router.fulfill(token, &protocol::error_value(&e), connections),
            },
            Some("batch") => match protocol::parse_batch(&req) {
                Ok(queries) => {
                    let mut slots = Vec::with_capacity(queries.len());
                    let mut all_done = true;
                    for q in queries {
                        let id = service.next_query_id();
                        let slot = flat.len();
                        match service.resolve_one(id, q, at, Some(conn), Route::Fast) {
                            Resolution::Done(result) => flat.push(Some((id, result))),
                            Resolution::Miss(resolved) => {
                                flat.push(None);
                                misses.push((slot, resolved));
                                all_done = false;
                            }
                        }
                        slots.push(slot);
                    }
                    if all_done {
                        router.fulfill(token, &render_batch(&slots, flat), connections);
                    } else {
                        deferred.push(Deferred::Batch(token, slots));
                    }
                }
                Err(e) => router.fulfill(token, &protocol::error_value(&e), connections),
            },
            // Control ops (ingest/stats/families) and unknown ops:
            // handled in place, in arrival order, answered immediately.
            _ => router.fulfill(token, &protocol::handle_request(service, &req), connections),
        },
    }
}

/// The background drain loop: pipelined cycles until shutdown, then a
/// full flush of the per-connection outbound writer queues.
///
/// Each iteration: resolve carried work plus (when nothing is carried)
/// one `wait_cycle` batch, answering hits and control ops at resolve
/// time; then, while the group-execution pool runs the cycle's engine
/// passes, keep resolving newly-arrived submissions against the cache
/// (`wait_overlap`). A control op defers itself *and everything behind
/// it on its own connection* to the next cycle, so the per-connection
/// semantics of the synchronous cycle (an `ingest` is visible to every
/// query behind it on that connection) are preserved exactly; queries
/// whose cache key has an in-flight engine group defer without
/// blocking anyone. Deferred work is carried into the next iteration
/// with its delivery order pinned by the router tokens assigned at
/// arrival.
fn drain_loop(
    mut service: Service,
    queue: &SubmissionQueue,
    connections: &Connections,
    opts: ServeOptions,
) -> Service {
    let mut router = ResponseRouter::default();
    let mut carry: Vec<Pending> = Vec::new();
    loop {
        // Fresh submissions only when no carried work is waiting: a
        // carried miss must reach the engine before anything newer on
        // its connection is dispatched.
        let fresh = if carry.is_empty() {
            match queue.wait_cycle(opts.linger, opts.wake_depth) {
                Some(cycle) => Some(cycle),
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

        // Phase 1: resolve in arrival order — carried items first
        // (their router tokens predate every fresh submission).
        let mut flat: Vec<Option<DrainedQuery>> = Vec::new();
        let mut misses: Vec<(usize, Resolved)> = Vec::new();
        let mut deferred: Vec<Deferred> = Vec::new();
        for pending in std::mem::take(&mut carry) {
            match pending {
                Pending::Raw(token, sub) => dispatch_submission(
                    &mut service,
                    &mut router,
                    connections,
                    token,
                    sub,
                    &mut flat,
                    &mut misses,
                    &mut deferred,
                ),
                Pending::Miss(token, resolved) => {
                    let slot = flat.len();
                    flat.push(None);
                    misses.push((slot, *resolved));
                    deferred.push(Deferred::Single(token, slot));
                }
                Pending::Batch(token, members) => {
                    let mut slots = Vec::with_capacity(members.len());
                    for member in members {
                        let slot = flat.len();
                        match member {
                            BatchMember::Done(drained) => flat.push(Some(drained)),
                            BatchMember::Miss(resolved) => {
                                flat.push(None);
                                misses.push((slot, resolved));
                            }
                        }
                        slots.push(slot);
                    }
                    deferred.push(Deferred::Batch(token, slots));
                }
            }
        }
        let recorded = fresh.as_ref().map(|(subs, reason)| (*reason, subs.len()));
        if let Some((submissions, _)) = fresh {
            for sub in submissions {
                let token = router.admit(sub.conn);
                dispatch_submission(
                    &mut service,
                    &mut router,
                    connections,
                    token,
                    sub,
                    &mut flat,
                    &mut misses,
                    &mut deferred,
                );
            }
        }

        // Phase 2: group. (Overlap batches were already recorded as
        // `pipeline` wakes when they were collected.)
        let groups = group_misses(misses);
        if let Some((reason, width)) = recorded {
            service.telemetry.record_cycle(reason, width, groups.len());
        }
        if groups.is_empty() {
            debug_assert!(deferred.is_empty(), "no groups, nothing can be deferred");
            continue;
        }

        // Phase 3: execute on a scoped thread while this thread keeps
        // resolving next-cycle arrivals against the cache. The borrows
        // split by field: the execute stage is pure over `registry` +
        // `runner`, the overlap walk mutates `cache` / the id counters.
        let in_flight: HashSet<(u128, u128, Property)> = groups
            .iter()
            .map(|g| (g.key.graph.0, g.key.config.0, g.key.property))
            .collect();
        queue.pipeline_begin();
        let registry = &service.registry;
        let runner = &service.runner;
        let telemetry = &service.telemetry;
        let cache = &mut service.cache;
        let queries_served = &mut service.queries_served;
        let next_id = &mut service.next_id;
        let passes = thread::scope(|scope| {
            let clock = telemetry.clock();
            let exec = scope.spawn({
                let groups = &groups;
                move || {
                    let passes = execute_groups(registry, groups, runner, &clock);
                    queue.pipeline_done();
                    passes
                }
            });
            // A deferral is a *per-connection* barrier: a control op
            // (ingest, stats, …) defers itself and everything behind
            // it on its own connection, so same-connection effects
            // (ingest-then-query) replay in arrival order next cycle —
            // while every other connection keeps flowing through the
            // fast path. Cross-connection arrival order around a
            // pending control op is not preserved; concurrent clients
            // race those orderings anyway.
            //
            // What each overlap arrival may do, decided before any
            // state moves:
            enum EarlyAction {
                /// Syntactic failure (bad frame, bad fields): the
                /// answer depends on no service state — fulfil now.
                Error(String),
                /// A plain query with no in-flight engine group on its
                /// key: resolve against the cache now.
                Query(Box<Query>),
                /// A batch whose members all avoid in-flight keys:
                /// resolve member-by-member now.
                Batch(Vec<Query>),
                /// A query touching an in-flight key: the running pass
                /// may be its answer, so it re-resolves next cycle
                /// (no barrier — later queries depend on nothing it
                /// does).
                Defer,
                /// A control op: defer it and barrier its connection.
                Block,
            }
            let key_in_flight = |q: &Query| {
                registry.resolve(&q.graph).is_ok_and(|entry| {
                    in_flight.contains(&(entry.fingerprint.0, q.cfg.fingerprint().0, q.property))
                })
            };
            let mut blocked: HashSet<ConnectionId> = HashSet::new();
            while let Some(batch) = queue.wait_overlap() {
                telemetry.record_cycle(WakeReason::Pipeline, batch.len(), 0);
                for sub in batch {
                    let (conn, at_micros) = (sub.conn, sub.at_micros);
                    let token = router.admit(conn);
                    let action = if blocked.contains(&conn) {
                        EarlyAction::Defer
                    } else {
                        match &sub.request {
                            Err(message) => EarlyAction::Error(message.clone()),
                            Ok(req) => match req.get("op").and_then(Value::as_str) {
                                Some("query") => match protocol::parse_query(req) {
                                    Ok(q) if key_in_flight(&q) => EarlyAction::Defer,
                                    Ok(q) => EarlyAction::Query(Box::new(q)),
                                    Err(e) => EarlyAction::Error(e),
                                },
                                Some("batch") => match protocol::parse_batch(req) {
                                    Ok(qs) if qs.iter().any(&key_in_flight) => EarlyAction::Defer,
                                    Ok(qs) => EarlyAction::Batch(qs),
                                    Err(e) => EarlyAction::Error(e),
                                },
                                _ => EarlyAction::Block,
                            },
                        }
                    };
                    let mut resolve_early = |q: Query| {
                        let id = *next_id;
                        *next_id += 1;
                        let resolution = resolve_query(
                            registry,
                            cache,
                            telemetry,
                            queries_served,
                            id,
                            q,
                            at_micros,
                            Some(conn),
                            Route::Fast,
                        );
                        (id, resolution)
                    };
                    match action {
                        EarlyAction::Error(message) => {
                            router.fulfill(token, &protocol::error_value(&message), connections);
                        }
                        EarlyAction::Query(q) => match resolve_early(*q) {
                            (_, Resolution::Done(result)) => {
                                router.fulfill(token, &render_result(result), connections);
                            }
                            (_, Resolution::Miss(resolved)) => {
                                carry.push(Pending::Miss(token, Box::new(resolved)));
                            }
                        },
                        EarlyAction::Batch(qs) => {
                            let mut members = Vec::with_capacity(qs.len());
                            let mut any_miss = false;
                            for q in qs {
                                members.push(match resolve_early(q) {
                                    (id, Resolution::Done(result)) => {
                                        BatchMember::Done((id, result))
                                    }
                                    (_, Resolution::Miss(resolved)) => {
                                        any_miss = true;
                                        BatchMember::Miss(resolved)
                                    }
                                });
                            }
                            if any_miss {
                                carry.push(Pending::Batch(token, members));
                            } else {
                                let responses: Vec<Value> = members
                                    .into_iter()
                                    .map(|m| match m {
                                        BatchMember::Done((_, result)) => render_result(result),
                                        BatchMember::Miss(_) => unreachable!("no member missed"),
                                    })
                                    .collect();
                                router.fulfill(
                                    token,
                                    &Value::obj().field("ok", true).field("responses", responses),
                                    connections,
                                );
                            }
                        }
                        EarlyAction::Defer => carry.push(Pending::Raw(token, sub)),
                        EarlyAction::Block => {
                            blocked.insert(conn);
                            carry.push(Pending::Raw(token, sub));
                        }
                    }
                }
            }
            exec.join().expect("group execution thread panicked")
        });

        // Phase 4: respond — apply passes in group order, then fulfil
        // the deferred responses (the router restores per-connection
        // submission order around anything answered early).
        for (group, pass) in groups.into_iter().zip(passes) {
            service.apply_group(group, pass, &mut flat);
        }
        for d in deferred {
            match d {
                Deferred::Single(token, slot) => {
                    let value = take_slot(&mut flat, slot);
                    router.fulfill(token, &value, connections);
                }
                Deferred::Batch(token, slots) => {
                    let value = render_batch(&slots, &mut flat);
                    router.fulfill(token, &value, connections);
                }
            }
        }
    }
    // Graceful shutdown: every computed response is already enqueued;
    // wait for the writers to put them on the wire (stuck connections
    // are force-closed after a grace period), then join the writers.
    connections.finish_shutdown_flush();
    service
}

/// What one submission is waiting on after the resolve walk (the
/// synchronous [`process_cycle`] reference path).
#[cfg_attr(not(test), allow(dead_code))]
enum Plan {
    /// Fully answered during the walk (control op, parse error, …).
    Ready(Value),
    /// One query: its response lives in the flat slot.
    Single(usize),
    /// A `batch` op: one slot per member, responses re-assembled into
    /// a single `{"responses": [...]}` line.
    Batch(Vec<usize>),
}

/// Runs one scheduler cycle over connection-tagged submissions:
/// resolve (walking in arrival order, so an `ingest` is visible to
/// every query behind it — including queries from other connections in
/// the same cycle), group, execute, respond. Returns one response per
/// submission, in arrival order, ready for per-connection routing.
/// `reason` is why this cycle fired; it lands in the wake-reason
/// counters along with the cycle's width and group fan-out.
///
/// This is the *synchronous reference* for the pipelined
/// [`drain_loop`]: the pipelined form must be per-connection
/// bit-for-bit equivalent to routing these responses in order (the
/// drain-equivalence proptests hold both to it).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn process_cycle(
    service: &mut Service,
    submissions: Vec<Submission>,
    reason: WakeReason,
) -> Vec<(ConnectionId, Value)> {
    let width = submissions.len();
    let mut plans: Vec<(ConnectionId, Plan)> = Vec::with_capacity(submissions.len());
    let mut flat: Vec<Option<DrainedQuery>> = Vec::new();
    let mut misses: Vec<(usize, Resolved)> = Vec::new();

    fn add_query(
        service: &mut Service,
        query: Query,
        at_micros: u64,
        conn: ConnectionId,
        flat: &mut Vec<Option<DrainedQuery>>,
        misses: &mut Vec<(usize, Resolved)>,
    ) -> usize {
        let id = service.next_query_id();
        let slot = flat.len();
        match service.resolve_one(id, query, at_micros, Some(conn), Route::Cycle) {
            Resolution::Done(result) => flat.push(Some((id, result))),
            Resolution::Miss(resolved) => {
                flat.push(None);
                misses.push((slot, resolved));
            }
        }
        slot
    }

    for sub in submissions {
        let (conn, at) = (sub.conn, sub.at_micros);
        let plan = match sub.request {
            Err(message) => Plan::Ready(protocol::error_value(&message)),
            Ok(req) => match req.get("op").and_then(Value::as_str) {
                Some("query") => match protocol::parse_query(&req) {
                    Ok(q) => Plan::Single(add_query(service, q, at, conn, &mut flat, &mut misses)),
                    Err(e) => Plan::Ready(protocol::error_value(&e)),
                },
                Some("batch") => match protocol::parse_batch(&req) {
                    Ok(queries) => Plan::Batch(
                        queries
                            .into_iter()
                            .map(|q| add_query(service, q, at, conn, &mut flat, &mut misses))
                            .collect(),
                    ),
                    Err(e) => Plan::Ready(protocol::error_value(&e)),
                },
                // Control ops (ingest/stats/families) and unknown ops:
                // handled in place, in arrival order.
                _ => Plan::Ready(protocol::handle_request(service, &req)),
            },
        };
        plans.push((conn, plan));
    }

    let groups = group_misses(misses);
    service.telemetry.record_cycle(reason, width, groups.len());
    let clock = service.telemetry.clock();
    let passes = execute_groups(&service.registry, &groups, &service.runner, &clock);
    for (group, pass) in groups.into_iter().zip(passes) {
        service.apply_group(group, pass, &mut flat);
    }

    let render = |slot: &mut Option<DrainedQuery>| -> Value {
        match slot.take().expect("every cycle slot answered").1 {
            Ok(response) => protocol::response_value(&response),
            Err(e) => protocol::error_value(&e),
        }
    };
    plans
        .into_iter()
        .map(|(conn, plan)| {
            let value = match plan {
                Plan::Ready(v) => v,
                Plan::Single(slot) => render(&mut flat[slot]),
                Plan::Batch(slots) => Value::obj().field("ok", true).field(
                    "responses",
                    slots
                        .into_iter()
                        .map(|s| render(&mut flat[s]))
                        .collect::<Vec<Value>>(),
                ),
            };
            (conn, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::GraphRef;
    use planartest_core::{PlanarityTester, TesterConfig};

    fn cfg(eps: f64) -> TesterConfig {
        TesterConfig::new(eps).with_phases(5)
    }

    fn service_with(name: &str, spec: &str) -> Service {
        let mut s = Service::new();
        s.registry_mut().ingest_spec(name, spec).unwrap();
        s
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
        // Demoucron (paper) mode is not one-sided — the Claim 10
        // refutation shows it can reject planar graphs — so a reject
        // under one seed proves nothing about other seeds and must not
        // be replayed for them.
        let mut s = service_with("k33", "complete_bipartite(3,3)");
        let q = |seed: u64| {
            Query::planarity(
                GraphRef::Name("k33".into()),
                cfg(0.1)
                    .with_seed(seed)
                    .with_embedding(planartest_core::EmbeddingMode::Demoucron),
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
        use crate::transport::Submission;
        let mut s = service_with("p", "tri_grid(4,4)");
        let req = |seed: u64| {
            Ok(Value::obj()
                .field("op", "query")
                .field("graph", "p")
                .field("epsilon", 0.2)
                .field("phases", 5u64)
                .field("seed", seed))
        };
        // Two connections interleaved, plus a control op and a garbage
        // frame mid-cycle.
        let subs = vec![
            Submission::new(1, req(1)),
            Submission::new(2, req(2)),
            Submission::new(1, Err("frame exceeds the 16-byte limit".into())),
            Submission::new(2, Ok(Value::obj().field("op", "stats"))),
            Submission::new(1, req(3)),
        ];
        let responses = process_cycle(&mut s, subs, WakeReason::Control);
        assert_eq!(responses.len(), 5);
        let conns: Vec<ConnectionId> = responses.iter().map(|(c, _)| *c).collect();
        assert_eq!(conns, vec![1, 2, 1, 2, 1], "arrival order preserved");
        // The three same-key queries coalesced into one pass...
        assert_eq!(s.engine_passes(), 1);
        for i in [0usize, 1, 4] {
            let v = &responses[i].1;
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
            assert_eq!(v.get("coalesced").unwrap().as_u64(), Some(3));
        }
        // ...the garbage frame answered in-band on its connection...
        assert_eq!(responses[2].1.get("ok").unwrap().as_bool(), Some(false));
        // ...and the control op answered in place.
        assert_eq!(responses[3].1.get("ok").unwrap().as_bool(), Some(true));
        assert!(responses[3].1.get("graphs").is_some());
    }

    #[test]
    fn cycle_ingest_is_visible_to_later_queries_in_the_same_cycle() {
        use crate::transport::Submission;
        let mut s = Service::new();
        let subs = vec![
            Submission::new(
                7,
                Ok(Value::obj()
                    .field("op", "ingest")
                    .field("name", "g")
                    .field("spec", "tri_grid(4,4)")),
            ),
            Submission::new(
                8,
                Ok(Value::obj()
                    .field("op", "query")
                    .field("graph", "g")
                    .field("epsilon", 0.2)
                    .field("phases", 5u64)),
            ),
        ];
        let responses = process_cycle(&mut s, subs, WakeReason::Control);
        assert_eq!(responses[0].1.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            responses[1].1.get("verdict").unwrap().as_str(),
            Some("accept"),
            "query resolved against the ingest earlier in the cycle"
        );
    }

    #[test]
    fn cycle_batch_op_reassembles_and_coalesces_across_connections() {
        use crate::transport::Submission;
        let mut s = service_with("p", "tri_grid(4,4)");
        let member = |seed: u64| {
            Value::obj()
                .field("graph", "p")
                .field("epsilon", 0.2)
                .field("phases", 5u64)
                .field("seed", seed)
        };
        let subs = vec![
            Submission::new(
                1,
                Ok(Value::obj()
                    .field("op", "batch")
                    .field("queries", vec![member(1), member(2)])),
            ),
            Submission::new(
                2,
                Ok(Value::obj()
                    .field("op", "query")
                    .field("graph", "p")
                    .field("epsilon", 0.2)
                    .field("phases", 5u64)
                    .field("seed", 3u64)),
            ),
        ];
        let responses = process_cycle(&mut s, subs, WakeReason::Depth);
        // One pass serves the batch *and* the other connection's query.
        assert_eq!(s.engine_passes(), 1);
        let batch = responses[0].1.get("responses").unwrap().as_arr().unwrap();
        assert_eq!(batch.len(), 2);
        for member in batch {
            assert_eq!(member.get("coalesced").unwrap().as_u64(), Some(3));
        }
        assert_eq!(responses[1].1.get("coalesced").unwrap().as_u64(), Some(3));
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
        use std::io::Write;
        use std::sync::Mutex;
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
        let sink = Sink::default();
        let conn = server.connections().register(Box::new(sink.clone()));
        let queue = server.submission_queue();
        queue.push(crate::transport::Submission::new(
            conn,
            Ok(Value::obj()
                .field("op", "query")
                .field("graph", "p")
                .field("epsilon", 0.2)
                .field("phases", 5u64)
                .field("seed", 1u64)),
        ));
        // The cycle is lingering (1h); shutdown must flush it.
        server.request_shutdown();
        let service = server.join();
        assert_eq!(service.engine_passes(), 1, "pending query was flushed");
        assert_eq!(service.stats().queries_served, 1);
        let bytes = sink.0.lock().unwrap().clone();
        let line = String::from_utf8(bytes).unwrap();
        let response = Value::parse(line.trim()).unwrap();
        assert_eq!(response.get("verdict").unwrap().as_str(), Some("accept"));
        assert_eq!(response.get("cache").unwrap().as_str(), Some("cold"));
    }
}
