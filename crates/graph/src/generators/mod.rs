//! Graph generators for the paper's experiments.
//!
//! Most generators return a [`Certified`] graph: alongside the graph itself
//! they carry what is *known by construction* about its distance to
//! planarity. This is what lets soundness experiments (E1, E6) claim a
//! graph really is `ε`-far without solving the (hard) exact
//! distance-to-planarity problem:
//!
//! * planar families are planar by construction;
//! * dense families get the Euler bound `m − (3n − 6)` on the number of
//!   edges that must be removed;
//! * planted families (e.g. disjoint `K5` tiles) get a packing bound.

mod closed;
pub mod nonplanar;
pub mod planar;
pub mod spec;

use crate::Graph;

/// What is known, by construction, about a generated graph's distance to
/// planarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanarityStatus {
    /// The graph is planar by construction.
    Planar,
    /// At least `min_removals` edges must be removed to make it planar.
    FarFromPlanar {
        /// Lower bound on the edge-removal distance to planarity.
        min_removals: usize,
    },
    /// Non-planar (or unknown), with no useful distance bound — a
    /// one-sided tester is allowed to accept such graphs.
    Unknown,
}

impl PlanarityStatus {
    /// The certified `ε` such that the graph is `ε`-far from planarity
    /// (`0.0` when nothing is certified).
    pub fn far_fraction(&self, m: usize) -> f64 {
        match *self {
            PlanarityStatus::FarFromPlanar { min_removals } if m > 0 => {
                min_removals as f64 / m as f64
            }
            _ => 0.0,
        }
    }

    /// Whether the graph is certified planar.
    pub fn is_planar(&self) -> bool {
        matches!(self, PlanarityStatus::Planar)
    }
}

/// A generated graph together with its construction certificate.
#[derive(Debug, Clone)]
pub struct Certified {
    /// The graph itself.
    pub graph: Graph,
    /// What the construction guarantees about planarity.
    pub status: PlanarityStatus,
    /// Human-readable family name with parameters (for experiment tables).
    pub name: String,
}

impl Certified {
    /// Certified distance-to-planarity as a fraction of `m`.
    pub fn far_fraction(&self) -> f64 {
        self.status.far_fraction(self.graph.m())
    }
}

/// Euler-formula lower bound on edges to remove for planarity:
/// a planar simple graph on `n ≥ 3` nodes has at most `3n − 6` edges.
pub fn euler_excess(n: usize, m: usize) -> usize {
    if n < 3 {
        0
    } else {
        m.saturating_sub(3 * n - 6)
    }
}

/// The status an Euler-excess family certifies: far by the excess when
/// it is positive, [`PlanarityStatus::Unknown`] otherwise.
pub(crate) fn euler_status(n: usize, m: usize) -> PlanarityStatus {
    match euler_excess(n, m) {
        0 => PlanarityStatus::Unknown,
        excess => PlanarityStatus::FarFromPlanar {
            min_removals: excess,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euler_excess_basics() {
        assert_eq!(euler_excess(3, 3), 0);
        assert_eq!(euler_excess(5, 10), 10 - 9); // K5 is 1 over
        assert_eq!(euler_excess(6, 9), 0); // K3,3 passes Euler yet is non-planar
        assert_eq!(euler_excess(2, 1), 0);
        assert_eq!(euler_excess(0, 0), 0);
    }

    #[test]
    fn far_fraction() {
        let s = PlanarityStatus::FarFromPlanar { min_removals: 5 };
        assert!((s.far_fraction(50) - 0.1).abs() < 1e-12);
        assert_eq!(PlanarityStatus::Planar.far_fraction(50), 0.0);
        assert_eq!(s.far_fraction(0), 0.0);
        assert!(PlanarityStatus::Planar.is_planar());
        assert!(!s.is_planar());
    }
}
