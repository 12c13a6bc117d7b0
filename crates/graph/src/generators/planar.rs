//! Planar graph families (planar by construction).

use rand::Rng;

use crate::generators::closed::Family;
use crate::generators::{Certified, PlanarityStatus};
use crate::{Graph, GraphBuilder};

fn certified(graph: Graph, name: String) -> Certified {
    Certified {
        graph,
        status: PlanarityStatus::Planar,
        name,
    }
}

/// Path on `n` nodes.
///
/// Certified [`PlanarityStatus::Planar`] (a tree). Deterministic:
/// fully determined by `n`.
///
/// # Panics
///
/// Panics if `n == 0` or the graph overflows `u32` ids and offsets.
pub fn path(n: usize) -> Certified {
    assert!(n > 0, "path requires n > 0");
    Family::Path(n).materialize()
}

/// Cycle on `n ≥ 3` nodes.
///
/// Certified [`PlanarityStatus::Planar`] (outerplanar). Deterministic:
/// fully determined by `n`.
///
/// # Panics
///
/// Panics if `n < 3` or the graph overflows `u32` ids and offsets.
pub fn cycle(n: usize) -> Certified {
    assert!(n >= 3, "cycle requires n >= 3");
    Family::Cycle(n).materialize()
}

/// Star with one hub and `n − 1` leaves.
///
/// Certified [`PlanarityStatus::Planar`] (a tree). Deterministic:
/// fully determined by `n`.
///
/// # Panics
///
/// Panics if `n == 0` or the graph overflows `u32` ids and offsets.
pub fn star(n: usize) -> Certified {
    assert!(n > 0, "star requires n > 0");
    Family::Star(n).materialize()
}

/// `rows × cols` grid.
///
/// Certified [`PlanarityStatus::Planar`] (grid drawing). Deterministic:
/// fully determined by the dimensions.
///
/// # Panics
///
/// Panics if either dimension is 0 or the graph overflows `u32` ids and offsets.
pub fn grid(rows: usize, cols: usize) -> Certified {
    assert!(rows > 0 && cols > 0, "grid requires positive dimensions");
    Family::Grid(rows, cols).materialize()
}

/// `rows × cols` grid with one diagonal per cell (still planar, denser,
/// arboricity 3 — a good stress input for the forest-decomposition step).
///
/// Certified [`PlanarityStatus::Planar`] (each added diagonal stays
/// inside its cell). Deterministic: fully determined by the dimensions.
///
/// # Panics
///
/// Panics if either dimension is 0 or the graph overflows `u32` ids and offsets.
pub fn triangulated_grid(rows: usize, cols: usize) -> Certified {
    assert!(rows > 0 && cols > 0, "grid requires positive dimensions");
    Family::TriGrid(rows, cols).materialize()
}

/// Random recursive tree: node `i ≥ 1` attaches to a uniform node `< i`.
///
/// Certified [`PlanarityStatus::Planar`] (a tree). Randomized:
/// consumes `n − 1` draws from `rng`; the same seeded RNG reproduces
/// the same graph bit for bit (the contract `generators::spec` builds
/// on).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Certified {
    assert!(n > 0, "tree requires n > 0");
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        let p = rng.random_range(0..i);
        b.add_edge(p, i).expect("in range");
    }
    certified(b.build(), format!("random_tree(n={n})"))
}

/// Random Apollonian network (stacked triangulation): a *maximal* planar
/// graph with `m = 3n − 6`, built by repeatedly subdividing a random
/// triangular face with a new vertex.
///
/// Certified [`PlanarityStatus::Planar`] (face subdivision preserves
/// planarity). Randomized: deterministic given the seeded `rng`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn apollonian<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Certified {
    apollonian_with_faces(n, rng).0
}

/// Like [`apollonian`], but also returns the oriented triangular face list
/// of the final triangulation — each directed edge appears in exactly one
/// face, so the list determines a planar rotation system.
pub fn apollonian_with_faces<R: Rng + ?Sized>(
    n: usize,
    rng: &mut R,
) -> (Certified, Vec<[usize; 3]>) {
    assert!(n >= 3, "apollonian requires n >= 3");
    let mut b = GraphBuilder::new(n);
    b.add_edge(0, 1).expect("in range");
    b.add_edge(1, 2).expect("in range");
    b.add_edge(0, 2).expect("in range");
    // Both sides of the starting triangle are faces (the outer face of a
    // triangle is also a triangle), so stacking can happen anywhere.
    let mut faces: Vec<[usize; 3]> = vec![[0, 1, 2], [0, 2, 1]];
    for v in 3..n {
        let f = rng.random_range(0..faces.len());
        let [a, bb, c] = faces[f];
        b.add_edge(a, v).expect("in range");
        b.add_edge(bb, v).expect("in range");
        b.add_edge(c, v).expect("in range");
        faces[f] = [a, bb, v];
        faces.push([bb, c, v]);
        faces.push([c, a, v]);
    }
    (certified(b.build(), format!("apollonian(n={n})")), faces)
}

/// Random planar graph: an Apollonian network with each edge independently
/// kept with probability `keep` (planarity is closed under edge deletion).
///
/// Certified [`PlanarityStatus::Planar`] (subgraph of a planar graph).
/// Randomized: deterministic given the seeded `rng`.
///
/// # Panics
///
/// Panics if `n < 3` or `keep` is not in `[0, 1]`.
pub fn random_planar<R: Rng + ?Sized>(n: usize, keep: f64, rng: &mut R) -> Certified {
    assert!((0.0..=1.0).contains(&keep), "keep must be a probability");
    let full = apollonian_with_faces(n, rng).0.graph;
    let mut b = GraphBuilder::new(n);
    for (u, v) in full.edges() {
        if rng.random_bool(keep) {
            b.add_edge(u.index(), v.index()).expect("in range");
        }
    }
    certified(b.build(), format!("random_planar(n={n},keep={keep})"))
}

/// Maximal outerplanar graph: a fan/zig-zag triangulation of an `n`-gon
/// with random diagonal choices (planar, even outerplanar).
///
/// Certified [`PlanarityStatus::Planar`] (all edges drawn inside one
/// polygon). Randomized: deterministic given the seeded `rng`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn maximal_outerplanar<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Certified {
    assert!(n >= 3, "outerplanar requires n >= 3");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(i, (i + 1) % n).expect("in range");
    }
    // Triangulate the polygon by repeatedly splitting an ear off a random
    // side of the current sub-polygon (stack-based randomized fan).
    let mut stack: Vec<Vec<usize>> = vec![(0..n).collect()];
    while let Some(poly) = stack.pop() {
        if poly.len() < 4 {
            continue;
        }
        // Split at a random chord (0-indexed positions i < j, non-adjacent).
        let k = poly.len();
        let i = rng.random_range(0..k);
        let j = (i + 2 + rng.random_range(0..k - 3)) % k;
        let (lo, hi) = (i.min(j), i.max(j));
        if hi - lo < 2 || (lo == 0 && hi == k - 1) {
            stack.push(poly);
            continue;
        }
        b.add_edge(poly[lo], poly[hi]).expect("in range");
        stack.push(poly[lo..=hi].to_vec());
        let mut rest: Vec<usize> = poly[hi..].to_vec();
        rest.extend_from_slice(&poly[..=lo]);
        stack.push(rest);
    }
    certified(b.build(), format!("outerplanar(n={n})"))
}

/// A "city road network" style graph: a grid with random diagonal streets
/// and random road closures (still planar by construction). Used by the
/// `road_network` example.
///
/// Certified [`PlanarityStatus::Planar`] (only one diagonal per cell is
/// ever added). Randomized: deterministic given the seeded `rng`.
///
/// # Panics
///
/// Panics unless both dimensions are at least 2.
pub fn road_network<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Certified {
    assert!(
        rows > 1 && cols > 1,
        "road network needs at least a 2x2 grid"
    );
    let idx = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols && rng.random_bool(0.95) {
                b.add_edge(idx(r, c), idx(r, c + 1)).expect("in range");
            }
            if r + 1 < rows && rng.random_bool(0.95) {
                b.add_edge(idx(r, c), idx(r + 1, c)).expect("in range");
            }
            if r + 1 < rows && c + 1 < cols && rng.random_bool(0.3) {
                // A diagonal is planar as long as the opposite diagonal of
                // the same cell is absent — we only ever add this one.
                b.add_edge(idx(r, c), idx(r + 1, c + 1)).expect("in range");
            }
        }
    }
    certified(b.build(), format!("road_network({rows}x{cols})"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn path_cycle_star_sizes() {
        assert_eq!(path(5).graph.m(), 4);
        assert_eq!(cycle(5).graph.m(), 5);
        assert_eq!(star(5).graph.m(), 4);
        assert_eq!(path(1).graph.m(), 0);
    }

    #[test]
    fn grid_sizes() {
        let g = grid(3, 4).graph;
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4); // horizontal + vertical
        let t = triangulated_grid(3, 4).graph;
        assert_eq!(t.m(), g.m() + 2 * 3);
    }

    #[test]
    fn apollonian_is_maximal_planar_size() {
        let c = apollonian(50, &mut rng());
        assert_eq!(c.graph.n(), 50);
        assert_eq!(c.graph.m(), 3 * 50 - 6);
        assert!(c.status.is_planar());
    }

    #[test]
    fn apollonian_min_size() {
        let c = apollonian(3, &mut rng());
        assert_eq!(c.graph.m(), 3);
    }

    #[test]
    fn random_tree_is_tree() {
        let c = random_tree(40, &mut rng());
        assert_eq!(c.graph.m(), 39);
        assert!(crate::algo::components::is_connected(&c.graph));
        assert_eq!(crate::algo::girth::girth(&c.graph), None);
    }

    #[test]
    fn random_planar_keeps_subset() {
        let c = random_planar(60, 0.7, &mut rng());
        assert!(c.graph.m() <= 3 * 60 - 6);
        assert!(c.graph.m() > 0);
    }

    #[test]
    fn outerplanar_is_maximal() {
        let c = maximal_outerplanar(12, &mut rng());
        // A maximal outerplanar graph on n nodes has 2n - 3 edges.
        assert_eq!(c.graph.m(), 2 * 12 - 3);
    }

    #[test]
    fn outerplanar_small() {
        assert_eq!(maximal_outerplanar(3, &mut rng()).graph.m(), 3);
        assert_eq!(maximal_outerplanar(4, &mut rng()).graph.m(), 5);
    }

    #[test]
    fn road_network_within_planar_budget() {
        let c = road_network(8, 8, &mut rng());
        assert!(c.graph.m() <= 3 * c.graph.n() - 6);
        assert!(c.status.is_planar());
    }

    #[test]
    #[should_panic(expected = "requires n >= 3")]
    fn apollonian_too_small_panics() {
        let _ = apollonian(2, &mut rng());
    }
}
