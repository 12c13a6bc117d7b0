//! Non-planar graph families with certified distance-to-planarity bounds
//! where the construction provides one.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::generators::closed::Family;
use crate::generators::{euler_status, Certified, PlanarityStatus};
use crate::{Graph, GraphBuilder};

fn with_euler_bound(graph: Graph, name: String) -> Certified {
    Certified {
        status: euler_status(graph.n(), graph.m()),
        graph,
        name,
    }
}

/// Complete graph `K_n`.
///
/// Certified far via the Euler excess `m − (3n − 6)` for `n ≥ 5`
/// (downgraded to [`PlanarityStatus::Planar`] below `K5`).
/// Deterministic: fully determined by `n`.
///
/// # Panics
///
/// Panics if `n == 0` or the graph overflows `u32` ids and offsets.
pub fn complete(n: usize) -> Certified {
    assert!(n > 0, "complete requires n > 0");
    Family::Complete(n).materialize()
}

/// Complete bipartite graph `K_{a,b}`.
///
/// Certified far via the Euler excess when positive; `K3,3`-like cases
/// where the excess vanishes stay [`PlanarityStatus::Unknown`] (a
/// one-sided tester may accept them). Deterministic: fully determined
/// by `a` and `b`.
///
/// # Panics
///
/// Panics if `a == 0` or `b == 0` or the graph overflows `u32` ids and offsets.
pub fn complete_bipartite(a: usize, b: usize) -> Certified {
    assert!(a > 0 && b > 0, "bipartite sides must be non-empty");
    Family::CompleteBipartite(a, b).materialize()
}

/// A chain of `tiles` vertex-disjoint `K5`s, consecutive tiles linked by a
/// single edge (so the graph is connected).
///
/// Since the `K5`s are vertex-disjoint and each needs at least one edge
/// removed, the graph is at least `tiles / m`-far from planar — a
/// *packing* certificate, sharper than the Euler bound here.
/// Deterministic: fully determined by `tiles`.
///
/// # Panics
///
/// Panics if `tiles == 0` or the graph overflows `u32` ids and offsets.
pub fn k5_chain(tiles: usize) -> Certified {
    assert!(tiles > 0, "need at least one tile");
    Family::K5Chain(tiles).materialize()
}

/// Erdős–Rényi `G(n, p)`.
///
/// Uses geometric skipping so generation is `O(n + m)` in expectation.
/// Certified far via the Euler excess when it is positive (dense `p`);
/// sparse draws stay [`PlanarityStatus::Unknown`]. Randomized:
/// deterministic given the seeded `rng`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Certified {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut b = GraphBuilder::new(n.max(1));
    if p > 0.0 && n >= 2 {
        if (1.0 - p).abs() < f64::EPSILON {
            for i in 0..n {
                for j in i + 1..n {
                    b.add_edge(i, j).expect("in range");
                }
            }
        } else {
            // Batagelj–Brandes geometric skipping over the lower triangle.
            let lq = (1.0 - p).ln();
            let mut v: usize = 1;
            let mut w: i64 = -1;
            while v < n {
                let r: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                let skip = (r.ln() / lq).floor() as i64 + 1;
                w += skip;
                while v < n && w >= v as i64 {
                    w -= v as i64;
                    v += 1;
                }
                if v < n {
                    b.add_edge(v, w as usize).expect("in range");
                }
            }
        }
    }
    with_euler_bound(b.build(), format!("gnp(n={n},p={p:.4})"))
}

/// Approximately `d`-regular graph via the configuration model (self-loops
/// and duplicate pairings are dropped, so a few nodes may have degree
/// slightly below `d`).
///
/// For `d ≥ 7` the Euler bound certifies constant far-ness; sparser
/// degrees stay [`PlanarityStatus::Unknown`]. Randomized: deterministic
/// given the seeded `rng`.
///
/// # Panics
///
/// Panics if `n * d` is odd or `d >= n`.
pub fn near_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Certified {
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    assert!(d < n, "degree must be < n");
    let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
    stubs.shuffle(rng);
    let mut b = GraphBuilder::new(n);
    for pair in stubs.chunks_exact(2) {
        if pair[0] != pair[1] {
            b.add_edge(pair[0], pair[1]).expect("in range");
        }
    }
    with_euler_bound(b.build(), format!("near_regular(n={n},d={d})"))
}

/// A maximal planar graph (Apollonian network) plus `k` uniformly random
/// chords among its non-edges.
///
/// Since the base already has `3n − 6` edges, the Euler formula forces at
/// least `k` removals: the result is exactly certified `k/(3n−6+k)`-far.
/// Randomized: deterministic given the seeded `rng` (both the base
/// triangulation and the chord choices draw from it).
///
/// # Panics
///
/// Panics if `n < 5` or there are not `k` non-edges to add.
pub fn planar_plus_chords<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Certified {
    assert!(n >= 5, "need n >= 5");
    let base = super::planar::apollonian(n, rng).graph;
    let max_extra = n * (n - 1) / 2 - base.m();
    assert!(
        k <= max_extra,
        "cannot add {k} chords, only {max_extra} non-edges"
    );
    let mut b = GraphBuilder::new(n);
    for (u, v) in base.edges() {
        b.add_edge(u.index(), v.index()).expect("in range");
    }
    let mut added = std::collections::HashSet::new();
    while added.len() < k {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if base.has_edge(crate::NodeId::new(key.0), crate::NodeId::new(key.1)) {
            continue;
        }
        if added.insert(key) {
            b.add_edge(u, v).expect("in range");
        }
    }
    let graph = b.build();
    Certified {
        graph,
        status: PlanarityStatus::FarFromPlanar { min_removals: k },
        name: format!("planar_plus_chords(n={n},k={k})"),
    }
}

/// `rows × cols` torus grid (wrap-around in both dimensions): non-planar
/// for `rows, cols ≥ 3` but *not* certified far
/// ([`PlanarityStatus::Unknown`]) — a useful "non-planar but possibly
/// accepted" input for one-sided testers. Deterministic: fully
/// determined by the dimensions.
///
/// # Panics
///
/// Panics if either dimension is `< 3` or the graph overflows `u32` ids and offsets.
pub fn torus(rows: usize, cols: usize) -> Certified {
    assert!(rows >= 3 && cols >= 3, "torus requires both dims >= 3");
    Family::Torus(rows, cols).materialize()
}

/// `d`-dimensional hypercube `Q_d` (`n = 2^d`); certified far via the
/// Euler excess for `d ≥ 7`, [`PlanarityStatus::Unknown`] below.
/// Deterministic: fully determined by `d`.
///
/// # Panics
///
/// Panics if `d == 0` or `d > 20`.
pub fn hypercube(d: u32) -> Certified {
    assert!(d > 0 && d <= 20, "dimension out of range");
    Family::Hypercube(d as usize).materialize()
}

/// A "social overlay network": planar backbone (geometric-ish grid) plus
/// many random long-range friendships. Heavily non-planar; used by the
/// `social_overlay` example.
///
/// Certified far via the Euler excess when the overlay is dense enough
/// to push `m` past `3n − 6`; otherwise [`PlanarityStatus::Unknown`].
/// Randomized: deterministic given the seeded `rng`.
///
/// # Panics
///
/// Panics if `n < 9`.
pub fn social_overlay<R: Rng + ?Sized>(n: usize, extra_per_node: f64, rng: &mut R) -> Certified {
    assert!(n >= 9, "need n >= 9");
    let side = (n as f64).sqrt().ceil() as usize;
    let idx = |r: usize, c: usize| (r * side + c) % n;
    let mut b = GraphBuilder::new(n);
    for r in 0..side {
        for c in 0..side {
            if idx(r, c) >= n {
                continue;
            }
            if c + 1 < side {
                b.add_edge(idx(r, c), idx(r, c + 1)).expect("in range");
            }
            if r + 1 < side {
                b.add_edge(idx(r, c), idx(r + 1, c)).expect("in range");
            }
        }
    }
    let extras = (n as f64 * extra_per_node) as usize;
    for _ in 0..extras {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v {
            b.add_edge(u, v).expect("in range");
        }
    }
    with_euler_bound(
        b.build(),
        format!("social_overlay(n={n},x={extra_per_node})"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xFEED)
    }

    #[test]
    fn complete_sizes_and_status() {
        assert_eq!(complete(5).graph.m(), 10);
        assert!(matches!(
            complete(5).status,
            PlanarityStatus::FarFromPlanar { min_removals: 1 }
        ));
        assert!(complete(4).status.is_planar());
        assert!(complete(1).status.is_planar());
    }

    #[test]
    fn k33_status_unknown_by_euler() {
        // K3,3 is non-planar but Euler doesn't see it: m = 9 <= 3*6-6 = 12.
        let c = complete_bipartite(3, 3);
        assert_eq!(c.graph.m(), 9);
        assert_eq!(c.status, PlanarityStatus::Unknown);
        assert!(complete_bipartite(2, 7).status.is_planar());
    }

    #[test]
    fn k5_chain_certificate() {
        let c = k5_chain(10);
        assert_eq!(c.graph.n(), 50);
        assert_eq!(c.graph.m(), 10 * 10 + 9);
        assert!(matches!(
            c.status,
            PlanarityStatus::FarFromPlanar { min_removals: 10 }
        ));
        assert!(crate::algo::components::is_connected(&c.graph));
        assert!(c.far_fraction() > 0.08);
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let n = 2000;
        let p = 4.0 / n as f64;
        let c = gnp(n, p, &mut rng());
        let expected = p * (n * (n - 1) / 2) as f64;
        let m = c.graph.m() as f64;
        assert!(
            (m - expected).abs() < 0.25 * expected,
            "m={m}, expected={expected}"
        );
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, &mut rng()).graph.m(), 0);
        assert_eq!(gnp(6, 1.0, &mut rng()).graph.m(), 15);
        assert_eq!(gnp(1, 0.5, &mut rng()).graph.m(), 0);
    }

    #[test]
    fn near_regular_degrees() {
        let c = near_regular(100, 8, &mut rng());
        let g = &c.graph;
        assert!(g.max_degree() <= 8);
        assert!(g.average_degree() > 7.0, "avg {}", g.average_degree());
        assert!(c.far_fraction() > 0.1);
    }

    #[test]
    fn planar_plus_chords_certificate() {
        let c = planar_plus_chords(100, 30, &mut rng());
        assert_eq!(c.graph.m(), 3 * 100 - 6 + 30);
        assert!(matches!(
            c.status,
            PlanarityStatus::FarFromPlanar { min_removals: 30 }
        ));
    }

    #[test]
    fn torus_uncertified() {
        let c = torus(4, 5);
        assert_eq!(c.graph.n(), 20);
        assert_eq!(c.graph.m(), 40);
        assert_eq!(c.status, PlanarityStatus::Unknown);
    }

    #[test]
    fn hypercube_sizes() {
        let c = hypercube(4);
        assert_eq!(c.graph.n(), 16);
        assert_eq!(c.graph.m(), 32);
        let c7 = hypercube(7);
        assert!(matches!(c7.status, PlanarityStatus::FarFromPlanar { .. }));
    }

    #[test]
    fn social_overlay_dense_is_far() {
        let c = social_overlay(400, 3.0, &mut rng());
        assert!(c.far_fraction() > 0.1, "far {}", c.far_fraction());
    }
}
