//! Property-based tests for the embedding substrate. Where a property is
//! about the embedders, both run it: the left-right embedder Stage II
//! uses and the Demoucron oracle.

use planartest_embed::{demoucron, left_right, PlanarityCheck, RotationSystem};
use planartest_graph::generators::{nonplanar, planar};
use planartest_graph::{Graph, GraphBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A planarity test and embedder.
type Embedder = fn(&Graph) -> PlanarityCheck;

/// Both embedders, named for assertion messages.
const EMBEDDERS: [(&str, Embedder); 2] = [
    ("left-right", left_right::check_planarity),
    ("demoucron", demoucron::check_planarity),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Demoucron's verdict is invariant under planarity-preserving
    /// operations: deleting any edge of a planar graph keeps it planar.
    #[test]
    fn edge_deletion_preserves_planarity(seed in 0u64..5000, n in 4usize..50, victim in 0usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = planar::apollonian(n.max(3), &mut rng).graph;
        prop_assert!(demoucron::is_planar(&g));
        let victim = victim % g.m();
        let (h, _) = g.edge_subgraph(|e| e.index() != victim);
        prop_assert!(demoucron::is_planar(&h), "deleting an edge broke planarity?!");
    }

    /// Every embedding either embedder returns verifies via the Euler
    /// formula, and its face count is exactly m - n + 1 + c (c
    /// components).
    #[test]
    fn returned_embeddings_verify(seed in 0u64..5000, keep in 0.3f64..1.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = planar::random_planar(40, keep, &mut rng).graph;
        for (name, check_planarity) in EMBEDDERS {
            match check_planarity(&g) {
                PlanarityCheck::Planar(rot) => {
                    prop_assert!(rot.is_planar_embedding(&g), "{}", name);
                    let comps = planartest_graph::algo::components::Components::build(&g);
                    // Components with edges contribute faces; edgeless ones
                    // contribute none to the trace.
                    let mut expected = 0i64;
                    let mut m_c = vec![0i64; comps.count()];
                    let mut n_c = vec![0i64; comps.count()];
                    for (u, _) in g.edges() { m_c[comps.component_of(u)] += 1; }
                    for v in g.nodes() { n_c[comps.component_of(v)] += 1; }
                    for c in 0..comps.count() {
                        if m_c[c] > 0 {
                            expected += m_c[c] - n_c[c] + 2;
                        }
                    }
                    prop_assert_eq!(rot.trace_faces(&g).len() as i64, expected, "{}", name);
                }
                PlanarityCheck::NonPlanar => {
                    prop_assert!(false, "{}: random planar subgraph rejected", name)
                }
            }
        }
    }

    /// Adding enough random chords to a maximal planar graph always makes
    /// both embedders reject (Euler bound kicks in at k >= 1 over the
    /// maximum, but even for small k the embedder itself must find the
    /// obstruction).
    #[test]
    fn supergraphs_of_maximal_planar_reject(seed in 0u64..5000, k in 1usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = nonplanar::planar_plus_chords(30, k, &mut rng);
        for (name, check_planarity) in EMBEDDERS {
            prop_assert!(
                !check_planarity(&c.graph).is_planar(),
                "{}: maximal planar + chord must be non-planar", name
            );
        }
    }

    /// Left-right rotations of grids always verify; corrupting the
    /// rotation at one vertex is either caught by validation or changes
    /// the genus/face structure, never panics.
    #[test]
    fn rotation_corruption_is_detected_or_benign(rows in 2usize..6, cols in 2usize..6, swap in 0usize..100) {
        let g = planar::grid(rows, cols).graph;
        let rot = left_right::check_planarity(&g).into_rotation().expect("grid");
        prop_assert!(rot.is_planar_embedding(&g));
        // Swap two entries in one vertex's order.
        let v = planartest_graph::NodeId::new(swap % g.n());
        let mut orders: Vec<Vec<planartest_graph::EdgeId>> =
            g.nodes().map(|x| rot.order_at(x).to_vec()).collect();
        if orders[v.index()].len() >= 2 {
            orders[v.index()].swap(0, 1);
            let corrupted = RotationSystem::new(&g, orders).expect("still a permutation");
            // Either still planar (swap was a mirror-ish no-op for deg 2)
            // or genus increased; never inconsistent.
            let _ = corrupted.is_planar_embedding(&g);
            let faces = corrupted.trace_faces(&g);
            // Every dart appears exactly once across faces.
            let total: usize = faces.iter().map(|f| f.len()).sum();
            prop_assert_eq!(total, 2 * g.m());
        }
    }
}

/// Deterministic spot checks that proptest shrinkage would obscure.
#[test]
fn known_minor_obstructions() {
    // K5 and K3,3 and one subdivision each.
    let k5 = nonplanar::complete(5).graph;
    let mut b = GraphBuilder::new(5 + k5.m());
    for (i, (u, v)) in k5.edges().enumerate() {
        b.add_edge(u.index(), 5 + i).unwrap();
        b.add_edge(5 + i, v.index()).unwrap();
    }
    let subdivided: Graph = b.build();
    for (name, check_planarity) in EMBEDDERS {
        assert!(!check_planarity(&k5).is_planar(), "{name}: K5");
        assert!(
            !check_planarity(&nonplanar::complete_bipartite(3, 3).graph).is_planar(),
            "{name}: K3,3"
        );
        assert!(
            !check_planarity(&subdivided).is_planar(),
            "{name}: K5 subdivision must be non-planar"
        );
    }
}
