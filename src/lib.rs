//! # planartest
//!
//! A faithful, executable reproduction of **"Property Testing of
//! Planarity in the CONGEST model"** (Reut Levi, Moti Medina, Dana Ron;
//! PODC 2018): a distributed one-sided-error property tester for
//! planarity running in `O(log n · poly(1/ε))` rounds, together with
//! every substrate it needs — a message-level CONGEST simulator, a graph
//! library with certified generators, planar-embedding machinery, the
//! minor-free partitioning algorithms, their applications
//! (cycle-freeness/bipartiteness testing, spanners), baselines and the
//! `Ω(log n)` lower-bound construction.
//!
//! This crate re-exports the workspace members:
//!
//! * [`graph`] (`planartest-graph`) — graphs, generators, classic
//!   algorithms;
//! * [`sim`] (`planartest-sim`) — the CONGEST engine and distributed
//!   primitives;
//! * [`embed`] (`planartest-embed`) — rotation systems, the left-right
//!   planar embedder and its Demoucron oracle;
//! * [`core`] (`planartest-core`) — the paper's two-stage tester and
//!   companions;
//! * [`service`] (`planartest-service`) — the query service layer:
//!   graph registry, one-sided-error result cache, batch-coalescing
//!   scheduler, and the `planartest` CLI.
//!
//! # Quickstart
//!
//! ```
//! use planartest::core::{PlanarityTester, TesterConfig};
//! use planartest::graph::generators::{nonplanar, planar};
//!
//! let planar_city = planar::triangulated_grid(8, 8);
//! let tangled = nonplanar::k5_chain(6);
//!
//! let tester = PlanarityTester::new(TesterConfig::new(0.1));
//! assert!(tester.run(&planar_city.graph)?.accepted());
//! assert!(!tester.run(&tangled.graph)?.accepted());
//! # Ok::<(), planartest::core::CoreError>(())
//! ```
//!
//! ## A note on Claim 10
//!
//! Implementing the paper surfaced a correctness gap: Claim 10 (planar
//! parts have no *violating* non-tree edges under embedding-derived
//! labels) is refuted by a 7-node planar counterexample — see
//! `crates/core/tests/claim10_refutation.rs`, and the `e6_violations`
//! bench binary for the violation counts at scale. The default tester
//! therefore rejects on *certified* per-part non-planarity (an evidence
//! path the paper itself describes) and reports violating edges as
//! telemetry; the paper-faithful behaviour remains available as
//! [`core::EmbeddingMode::Paper`].

pub use planartest_core as core;
pub use planartest_embed as embed;
pub use planartest_graph as graph;
pub use planartest_service as service;
pub use planartest_sim as sim;
