//! The closed-form families, each defined once.
//!
//! Ten families have an edge set that is a function of their parameters
//! alone: path, cycle, star, grid, tri_grid, complete,
//! complete_bipartite, k5_chain, torus and hypercube. A [`Family`] holds
//! all that is known about one of them: its validation, its `(n, m)`,
//! its certified status, its generator name and its edge stream. Both
//! ingest routes read that one definition. The generators in
//! [`super::planar`] and [`super::nonplanar`] (and so
//! [`super::spec::parse`]) materialize it, and
//! [`super::spec::streamable`] streams the same edges to disk, so the
//! two routes build the same graph with the same fingerprint.
//!
//! Sizes are computed here, with checked arithmetic, before anything is
//! allocated: see [`node_count`], [`edge_count`] and [`Family::check`].

use crate::generators::spec::SpecError;
use crate::generators::{euler_status, Certified, PlanarityStatus};
use crate::GraphBuilder;

/// The size rule every spec family obeys: its node count must fit the
/// `u32` node ids (`n ≤ 2³²`). `None` is a count that overflowed on the
/// way. Either failure is the family's `InvalidParameters`.
pub(super) fn node_count(name: &'static str, n: Option<usize>) -> Result<usize, SpecError> {
    n.filter(|&n| n as u64 <= crate::graph::MAX_NODES)
        .ok_or(SpecError::InvalidParameters {
            name,
            reason: "n <= 2^32 (u32 node ids)",
        })
}

/// The size rule on edges: `2m` must fit the `u32` CSR offsets
/// (`2m < 2³²`). `None` is a count that overflowed on the way. Either
/// failure is the family's `InvalidParameters`. A randomized family is
/// held to it by the edges it draws before dedup (for `gnp`, their
/// expected number), since drawing is what allocates.
pub(super) fn edge_count(name: &'static str, m: Option<usize>) -> Result<usize, SpecError> {
    m.filter(|&m| m <= u32::MAX as usize / 2)
        .ok_or(SpecError::InvalidParameters {
            name,
            reason: "2m < 2^32 (u32 CSR offsets)",
        })
}

/// One closed-form family with its parameters, as a spec names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Family {
    Path(usize),
    Cycle(usize),
    Star(usize),
    Grid(usize, usize),
    /// A grid with one diagonal per cell.
    TriGrid(usize, usize),
    Complete(usize),
    CompleteBipartite(usize, usize),
    K5Chain(usize),
    Torus(usize, usize),
    Hypercube(usize),
}

impl Family {
    /// The family a closed-form spec names, from its integer arguments
    /// (the arity is already checked against [`super::spec::families`]).
    pub(super) fn from_spec(name: &str, args: &[usize]) -> Option<Family> {
        Some(match (name, args) {
            ("path", &[n]) => Family::Path(n),
            ("cycle", &[n]) => Family::Cycle(n),
            ("star", &[n]) => Family::Star(n),
            ("grid", &[rows, cols]) => Family::Grid(rows, cols),
            ("tri_grid", &[rows, cols]) => Family::TriGrid(rows, cols),
            ("complete", &[n]) => Family::Complete(n),
            ("complete_bipartite", &[a, b]) => Family::CompleteBipartite(a, b),
            ("k5_chain", &[tiles]) => Family::K5Chain(tiles),
            ("torus", &[rows, cols]) => Family::Torus(rows, cols),
            ("hypercube", &[d]) => Family::Hypercube(d),
            _ => return None,
        })
    }

    /// Validates the parameters and sizes the instance: `n` by
    /// [`node_count`], and `2m` must fit the `u32` CSR offsets.
    pub(super) fn check(self) -> Result<ClosedForm, SpecError> {
        // Spec name, whether the family's requirement holds, and what
        // it requires.
        let (name, ok, reason) = match self {
            Self::Path(n) => ("path", n > 0, "n > 0"),
            Self::Cycle(n) => ("cycle", n >= 3, "n >= 3"),
            Self::Star(n) => ("star", n > 0, "n > 0"),
            Self::Grid(r, c) => ("grid", r > 0 && c > 0, "positive dimensions"),
            Self::TriGrid(r, c) => ("tri_grid", r > 0 && c > 0, "positive dimensions"),
            Self::Complete(n) => ("complete", n > 0, "n > 0"),
            Self::CompleteBipartite(a, b) => {
                ("complete_bipartite", a > 0 && b > 0, "non-empty sides")
            }
            Self::K5Chain(tiles) => ("k5_chain", tiles > 0, "at least one tile"),
            Self::Torus(r, c) => ("torus", r >= 3 && c >= 3, "both dims >= 3"),
            Self::Hypercube(d) => ("hypercube", d > 0 && d <= 20, "1 <= d <= 20"),
        };
        if !ok {
            return Err(SpecError::InvalidParameters { name, reason });
        }
        let n = match self {
            Self::Path(n) | Self::Cycle(n) | Self::Star(n) | Self::Complete(n) => Some(n),
            Self::Grid(r, c) | Self::TriGrid(r, c) | Self::Torus(r, c) => r.checked_mul(c),
            Self::CompleteBipartite(a, b) => a.checked_add(b),
            Self::K5Chain(tiles) => tiles.checked_mul(5),
            Self::Hypercube(d) => Some(1 << d),
        };
        let n = node_count(name, n)?;
        let m = edge_count(
            name,
            match self {
                Self::Path(_) | Self::Star(_) => Some(n - 1),
                Self::Cycle(_) => Some(n),
                // Horizontal and vertical edges, then the diagonals: each
                // term is below n ≤ 2³², so the sum fits a 64-bit usize.
                Self::Grid(r, c) => Some(r * (c - 1) + c * (r - 1)),
                Self::TriGrid(r, c) => Some(r * (c - 1) + c * (r - 1) + (r - 1) * (c - 1)),
                Self::Complete(_) => n.checked_mul(n - 1).map(|pairs| pairs / 2),
                Self::CompleteBipartite(a, b) => a.checked_mul(b),
                Self::K5Chain(tiles) => tiles.checked_mul(11).map(|e| e - 1),
                Self::Torus(..) => n.checked_mul(2),
                Self::Hypercube(d) => Some(d * (n / 2)),
            },
        )?;
        Ok(ClosedForm { family: self, n, m })
    }

    /// What a generator builds: the checked instance, materialized.
    /// Panics with [`check`](Self::check)'s error text where
    /// [`super::spec::parse`] would return it.
    pub(super) fn materialize(self) -> Certified {
        self.check().unwrap_or_else(|e| panic!("{e}")).certified()
    }
}

/// A closed-form family whose parameters are valid and whose size fits
/// the graph's `u32` ids and offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct ClosedForm {
    family: Family,
    pub(super) n: usize,
    pub(super) m: usize,
}

impl ClosedForm {
    /// What the construction certifies.
    pub(super) fn status(self) -> PlanarityStatus {
        match self.family {
            Family::Path(_) | Family::Cycle(_) | Family::Star(_) => PlanarityStatus::Planar,
            Family::Grid(..) | Family::TriGrid(..) => PlanarityStatus::Planar,
            Family::Complete(n) if n < 5 => PlanarityStatus::Planar,
            Family::CompleteBipartite(a, b) if a.min(b) < 3 => PlanarityStatus::Planar,
            // A packing bound: one removal per vertex-disjoint K5.
            Family::K5Chain(tiles) => PlanarityStatus::FarFromPlanar {
                min_removals: tiles,
            },
            Family::Torus(..) => PlanarityStatus::Unknown,
            Family::Complete(_) | Family::CompleteBipartite(..) | Family::Hypercube(_) => {
                euler_status(self.n, self.m)
            }
        }
    }

    /// Streams every edge once through `emit`, stopping at its first
    /// error. Every edge is distinct and in range.
    pub(super) fn for_each_edge<E>(
        self,
        mut emit: impl FnMut(usize, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        match self.family {
            Family::Path(n) => (1..n).try_for_each(|i| emit(i - 1, i)),
            Family::Cycle(n) => (0..n).try_for_each(|i| emit(i, (i + 1) % n)),
            Family::Star(n) => (1..n).try_for_each(|i| emit(0, i)),
            Family::Grid(rows, cols) | Family::TriGrid(rows, cols) => {
                let diagonals = matches!(self.family, Family::TriGrid(..));
                let idx = |r: usize, c: usize| r * cols + c;
                for r in 0..rows {
                    for c in 0..cols {
                        if c + 1 < cols {
                            emit(idx(r, c), idx(r, c + 1))?;
                        }
                        if r + 1 < rows {
                            emit(idx(r, c), idx(r + 1, c))?;
                        }
                        if diagonals && r + 1 < rows && c + 1 < cols {
                            emit(idx(r, c), idx(r + 1, c + 1))?;
                        }
                    }
                }
                Ok(())
            }
            Family::Complete(n) => (0..n).try_for_each(|i| (i + 1..n).try_for_each(|j| emit(i, j))),
            Family::CompleteBipartite(a, b) => {
                (0..a).try_for_each(|i| (0..b).try_for_each(|j| emit(i, a + j)))
            }
            Family::K5Chain(tiles) => (0..tiles).try_for_each(|t| {
                let base = 5 * t;
                for i in 0..5 {
                    for j in i + 1..5 {
                        emit(base + i, base + j)?;
                    }
                }
                // One bridge to the next tile keeps the chain connected.
                if t + 1 < tiles {
                    emit(base + 4, base + 5)?;
                }
                Ok(())
            }),
            Family::Torus(rows, cols) => {
                let idx = |r: usize, c: usize| r * cols + c;
                for r in 0..rows {
                    for c in 0..cols {
                        emit(idx(r, c), idx(r, (c + 1) % cols))?;
                        emit(idx(r, c), idx((r + 1) % rows, c))?;
                    }
                }
                Ok(())
            }
            Family::Hypercube(d) => (0..self.n).try_for_each(|v| {
                (0..d)
                    .map(|bit| v ^ (1 << bit))
                    .filter(|&w| v < w)
                    .try_for_each(|w| emit(v, w))
            }),
        }
    }

    /// The graph with its certificate and the generator's display name.
    pub(super) fn certified(self) -> Certified {
        let mut b = GraphBuilder::new(self.n);
        self.for_each_edge(|u, v| b.add_edge(u, v))
            .expect("closed-form edges are in range");
        let name = match self.family {
            Family::Path(n) => format!("path(n={n})"),
            Family::Cycle(n) => format!("cycle(n={n})"),
            Family::Star(n) => format!("star(n={n})"),
            Family::Grid(rows, cols) => format!("grid({rows}x{cols})"),
            Family::TriGrid(rows, cols) => format!("tri_grid({rows}x{cols})"),
            Family::Complete(n) => format!("complete(n={n})"),
            Family::CompleteBipartite(a, b) => format!("k{a}{b}"),
            Family::K5Chain(tiles) => format!("k5_chain(tiles={tiles})"),
            Family::Torus(rows, cols) => format!("torus({rows}x{cols})"),
            Family::Hypercube(d) => format!("hypercube(d={d})"),
        };
        Certified {
            graph: b.build(),
            status: self.status(),
            name,
        }
    }
}
