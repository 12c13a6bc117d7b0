//! Planar combinatorial embeddings for the `planartest` workspace.
//!
//! This crate is the substitute substrate for the Ghaffari–Haeupler
//! distributed planar-embedding algorithm used by Stage II of the paper's
//! tester (see "Round / bandwidth budget per protocol" in
//! `docs/ARCHITECTURE.md`): the tester only needs, per node, a circular
//! ordering of incident edges that is a valid combinatorial embedding
//! whenever the graph is planar. We provide:
//!
//! * [`RotationSystem`] — a validated circular edge order per vertex, with
//!   face tracing and Euler-genus computation ([`RotationSystem::genus`]),
//!   so embeddings are *verifiable*: a rotation system of a connected graph
//!   is a planar embedding iff its genus is 0.
//! * [`check_planarity`] ([`left_right`]) — the linear-time left-right
//!   planarity test & embedder that Stage II runs on every part.
//! * [`demoucron::check_planarity`] — the Demoucron–Malgrange–Pertuiset
//!   planarity test & embedder (quadratic, block-by-block via the
//!   biconnected decomposition), kept as the independent oracle the
//!   left-right embedder is tested against.
//!
//! # Example
//!
//! ```
//! use planartest_graph::Graph;
//! use planartest_embed::{check_planarity, PlanarityCheck};
//!
//! // K4 is planar ...
//! let k4 = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])?;
//! let rot = match check_planarity(&k4) {
//!     PlanarityCheck::Planar(rot) => rot,
//!     PlanarityCheck::NonPlanar => unreachable!("K4 is planar"),
//! };
//! assert_eq!(rot.genus(&k4), 0);
//!
//! // ... and K5 is not.
//! let k5 = Graph::from_edges(5, (0..5).flat_map(|i| (i + 1..5).map(move |j| (i, j))))?;
//! assert!(matches!(check_planarity(&k5), PlanarityCheck::NonPlanar));
//! # Ok::<(), planartest_graph::GraphError>(())
//! ```

pub mod demoucron;
pub mod left_right;
mod rotation;

pub use crate::left_right::check_planarity;
pub use crate::rotation::{Dart, Face, RotationError, RotationSystem};

/// Result of a planarity check.
#[derive(Debug, Clone)]
pub enum PlanarityCheck {
    /// The graph is planar; a verified planar rotation system is attached.
    Planar(RotationSystem),
    /// The graph is not planar.
    NonPlanar,
}

impl PlanarityCheck {
    /// Whether the check found the graph planar.
    pub fn is_planar(&self) -> bool {
        matches!(self, PlanarityCheck::Planar(_))
    }

    /// Extracts the rotation system, if planar.
    pub fn into_rotation(self) -> Option<RotationSystem> {
        match self {
            PlanarityCheck::Planar(r) => Some(r),
            PlanarityCheck::NonPlanar => None,
        }
    }
}
