//! Query service layer for the planarity tester: ingest graphs once,
//! serve many property-testing queries cheaply.
//!
//! The engine underneath is fit for heavy traffic — a deterministic
//! CONGEST runtime, flat CSR/arena memory, and batched Monte-Carlo
//! passes — but on its own every caller would still pay full graph
//! construction and Stage-I partition cost per query. This crate
//! is the front door that amortizes all of it:
//!
//! * [`registry::GraphRegistry`] — ingests graphs (edge lists via
//!   [`planartest_graph::io`], or generator specs via
//!   [`planartest_graph::generators::spec`]), fingerprints them by
//!   content, and keeps the built CSR resident. Names are aliases; the
//!   fingerprint is the identity, so duplicate ingests cost nothing.
//! * [`cache::ResultCache`] — keyed by `(graph fingerprint, config
//!   fingerprint, property)`. The retention policy is the tester's
//!   one-sided error model: **rejects are certificates** (stored
//!   permanently, witness included, replayed for any seed), **accepts
//!   are per-seed Monte-Carlo evidence** (warm hits only for seeds that
//!   ran). Replays are bit-identical to the original engine pass.
//! * [`persist::CertificateLog`] — the durability tier (opt-in via
//!   [`Service::set_state_dir`](scheduler::Service::set_state_dir)):
//!   graphs write through to relocatable on-disk CSR spills
//!   ([`planartest_graph::disk`]) and re-map zero-copy on restart,
//!   with LRU demotion bounding the resident heap tier; reject
//!   certificates append to a crash-tolerant write-ahead log and
//!   replay into the cache cold — a restarted server answers every
//!   previously-certified query without an engine pass.
//! * [`scheduler::Service`] — the batch-coalescing scheduler.
//!   [`Service::drain`] resolves, groups, executes and responds in
//!   four decoupled stages: same-key queries ride **one**
//!   [`PlanarityTester::run_many`](planartest_core::PlanarityTester::run_many)
//!   pass (independent users share a single Stage-I partition and one
//!   batched Stage-II), independent groups fan out across a
//!   `TrialRunner` worker pool with bit-for-bit sequential-equal
//!   results, and responses attribute per-query latency from the
//!   per-instance round accounting.
//! * [`scheduler::Server`] — the concurrent form: a dedicated thread
//!   owns the service and drains a shared submission queue on
//!   queue-depth or linger-timer wakeups, so *independent clients'*
//!   same-graph queries coalesce automatically. The server cycle is
//!   *pipelined*: warm/certificate hits are answered at resolve time
//!   (ahead of the execute barrier), next-cycle arrivals resolve while
//!   the engine runs, and graceful shutdown (stdin EOF, SIGTERM)
//!   flushes everything pending first.
//! * [`transport`] — how requests arrive: stdio, unix-socket and TCP
//!   listeners all frame LDJSON requests
//!   ([`wire::FrameReader`]) into that one queue, tagged with a
//!   connection id; responses route back per connection in submission
//!   order through bounded per-connection outbound queues drained by
//!   dedicated writer threads (a stalled reader sheds its own
//!   responses, never anyone else's), and a hostile frame costs its
//!   sender one error response, never the server.
//! * [`protocol`] / [`wire`] — the line-delimited JSON protocol served
//!   by the `planartest` binary (`serve` over any transport, `query`
//!   one-shots).
//!
//! # Example
//!
//! ```
//! use planartest_core::TesterConfig;
//! use planartest_service::{CacheStatus, GraphRef, Query, Service};
//!
//! let mut service = Service::new();
//! service.registry_mut().ingest_spec("city", "tri_grid(5,5)")?;
//!
//! let cfg = TesterConfig::new(0.2).with_phases(5);
//! let q = Query::planarity(GraphRef::Name("city".into()), cfg);
//! let cold = service.query(q.clone())?;
//! assert!(cold.outcome.accepted());
//! assert_eq!(cold.cache, CacheStatus::Cold);
//!
//! // Same graph, config and seed: served from cache, bit-identical.
//! let warm = service.query(q)?;
//! assert_eq!(warm.cache, CacheStatus::Warm);
//! assert_eq!(warm.outcome.stats(), cold.outcome.stats());
//! assert_eq!(service.engine_passes(), 1);
//! # Ok::<(), planartest_service::ServiceError>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
mod error;
mod exec;
pub mod persist;
mod pipeline;
pub mod protocol;
mod query;
pub mod registry;
pub mod scheduler;
pub mod telemetry;
pub mod transport;
pub mod wire;

pub use crate::cache::{CacheKey, CacheStats, ResultCache};
pub use crate::error::ServiceError;
pub use crate::persist::{CertificateLog, CertificateRecord, PersistError, Replay};
pub use crate::query::{
    CacheStatus, GraphRef, Outcome, ParsePropertyError, Property, Query, QueryId, QueryResponse,
};
pub use crate::registry::{GraphEntry, GraphRegistry};
pub use crate::scheduler::{
    DrainedQuery, ServeOptions, Server, Service, ServiceStats, StateSummary, DEFAULT_MAX_IN_FLIGHT,
    DEFAULT_OUTBOUND_DEPTH,
};
pub use crate::telemetry::{
    Clock, Histogram, MockClock, Route, StageTimes, Telemetry, WakeReason, WAKE_REASONS,
};
pub use crate::transport::{ConnectionId, Connections, Submission, SubmissionQueue};
