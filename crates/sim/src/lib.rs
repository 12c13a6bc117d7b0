//! A synchronous CONGEST-model simulator.
//!
//! The CONGEST model (Peleg, 2000) is a synchronous message-passing model:
//! in each round every node may send one message of `O(log n)` bits along
//! each incident edge, receive the messages sent to it in that round, and
//! perform unbounded local computation. This crate executes protocols
//! *message by message* under exactly those rules:
//!
//! * [`Engine::run`] drives a [`NodeLogic`] to quiescence, delivering
//!   messages with one-round latency;
//! * at most **one message per edge direction per round**, each of at most
//!   [`SimConfig::max_words_per_message`] machine words — violations are
//!   reported as [`SimError`]s, never silently allowed;
//! * rounds, messages and words are tallied in [`SimStats`], including
//!   explicitly *charged* rounds for substituted subroutines (see
//!   "Round / bandwidth budget per protocol" in `docs/ARCHITECTURE.md`).
//!
//! On top of the engine, [`tree`] provides broadcast/convergecast over
//! forests and [`bfs`] grows BFS trees distributedly — the workhorses of
//! the paper's Stage I and Stage II. Every run executes on one thread;
//! [`TrialRunner`] fans independent runs across cores (see [`runtime`]).
//!
//! # Example
//!
//! ```
//! use planartest_graph::{Graph, NodeId};
//! use planartest_sim::{Engine, Msg, NodeLogic, Outbox, SimConfig};
//!
//! /// Every node floods a token once; we count rounds until quiescence.
//! struct Flood {
//!     seen: Vec<bool>,
//! }
//!
//! impl NodeLogic for Flood {
//!     fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
//!         if node.index() == 0 {
//!             self.seen[0] = true;
//!             out.send_all(Msg::words(&[7]));
//!         }
//!     }
//!     fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
//!         if !self.seen[node.index()] && !inbox.is_empty() {
//!             self.seen[node.index()] = true;
//!             out.send_all(Msg::words(&[7]));
//!         }
//!     }
//! }
//!
//! let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
//! let mut engine = Engine::new(&g, SimConfig::default());
//! let mut logic = Flood { seen: vec![false; 4] };
//! let report = engine.run(&mut logic, 100)?;
//! assert!(logic.seen.iter().all(|&s| s));
//! // Distance from node 0 to node 3 is 3; one extra round drains the
//! // last node's re-broadcast.
//! assert_eq!(report.rounds, 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod bfs;
mod engine;
pub mod runtime;
pub mod sampling;
mod stats;
pub mod tree;

pub use crate::engine::{
    Engine, Msg, NodeLogic, Outbox, RunReport, SimConfig, SimError, MSG_INLINE_WORDS,
};
pub use crate::runtime::{Backend, ParallelEngine, TrialRunner};
pub use crate::stats::{PassRollup, SimStats};
