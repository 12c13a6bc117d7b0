//! Distributed property testing of planarity in the CONGEST model.
//!
//! This crate implements the algorithm of **Levi, Medina and Ron,
//! "Property Testing of Planarity in the CONGEST model" (PODC 2018)**:
//! a one-sided-error distributed tester running in
//! `O(log n · poly(1/ε))` rounds. If the network graph is planar every
//! node outputs *accept*; if it is `ε`-far from planar (more than `ε·m`
//! edges must be removed to make it planar), some node outputs *reject*
//! with probability `1 − 1/poly(n)`.
//!
//! The tester has two stages:
//!
//! * **Stage I** ([`partition`]) — a deterministic partition of the nodes
//!   into connected parts of small diameter with few edges between parts,
//!   built from `Θ(log 1/ε)` phases of Barenboim–Elkin forest
//!   decomposition (which *rejects* when it finds arboricity evidence)
//!   plus Czygrinow–Hańćkowiak–Wawrzyniak merging.
//! * **Stage II** ([`stage2`]) — per-part planarity testing: BFS trees,
//!   the `m ≤ 3n − 6` check, a combinatorial embedding, tree labels, and
//!   sampling of non-tree edges to catch *violating* (interleaving) edges.
//!
//! The crate also provides the paper's §4 companions: the randomized
//! minor-free [`partition::randomized`] partition (Theorem 4), testers for
//! cycle-freeness and bipartiteness plus spanners on minor-free graphs
//! ([`applications`], Corollaries 16–17), baselines ([`baselines`]), the
//! `Ω(log n)` lower-bound construction ([`lowerbound`], Theorem 2), and
//! centralized audit [`oracle`]s.
//!
//! # Example
//!
//! ```
//! use planartest_core::{PlanarityTester, TesterConfig};
//! use planartest_graph::generators::planar;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let g = planar::triangulated_grid(8, 8);
//! let cfg = TesterConfig::new(0.1).with_seed(7);
//! let outcome = PlanarityTester::new(cfg).run(&g.graph)?;
//! assert!(outcome.accepted()); // planar graphs are always accepted
//! # let _ = &mut rng;
//! # Ok::<(), planartest_core::CoreError>(())
//! ```

pub mod applications;
pub mod baselines;
mod comm;
mod config;
mod error;
pub mod lowerbound;
pub mod oracle;
pub mod partition;
pub mod stage2;
mod tester;

pub use crate::config::{EmbeddingMode, TesterConfig};
pub use crate::error::CoreError;
pub use crate::tester::{PlanarityTester, Prepared, RejectReason, TestOutcome};
