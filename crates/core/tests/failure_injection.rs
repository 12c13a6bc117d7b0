//! Failure-injection tests: wrong hints, tight bandwidth, and adversarial
//! configurations must degrade soundly (never break one-sidedness, never
//! panic).

use planartest_core::{EmbeddingMode, PlanarityTester, TesterConfig};
use planartest_embed::RotationSystem;
use planartest_graph::generators::{nonplanar, planar};
use planartest_sim::SimConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A *wrong* hint (adjacency-order rotation, almost never planar for a
/// tri-grid) must not make the tester reject a planar graph: the hint
/// fails verification per part and the certified embedder takes over.
#[test]
fn bogus_hint_falls_back_soundly() {
    let fam = planar::triangulated_grid(7, 7);
    let bogus = RotationSystem::from_adjacency(&fam.graph);
    let cfg = TesterConfig::new(0.15)
        .with_phases(6)
        .with_embedding(EmbeddingMode::Hint(bogus));
    let out = PlanarityTester::new(cfg).run(&fam.graph).expect("run");
    assert!(
        out.accepted(),
        "wrong hint must not break completeness: {:?}",
        out.rejections
    );
}

/// A wrong hint on a far graph must still reject (fallback certifies).
#[test]
fn bogus_hint_keeps_soundness() {
    let mut rng = StdRng::seed_from_u64(9);
    let far = nonplanar::planar_plus_chords(60, 60, &mut rng);
    let bogus = RotationSystem::from_adjacency(&far.graph);
    let cfg = TesterConfig::new(0.05)
        .with_phases(6)
        .with_embedding(EmbeddingMode::Hint(bogus));
    let out = PlanarityTester::new(cfg).run(&far.graph).expect("run");
    assert!(!out.accepted());
}

/// Bandwidth below the protocol's needs is a hard, attributable error —
/// not silent corruption.
#[test]
fn insufficient_bandwidth_is_loud() {
    let fam = planar::grid(5, 5);
    let cfg = TesterConfig::new(0.2).with_phases(4);
    let err = PlanarityTester::new(cfg)
        .with_sim_config(SimConfig {
            max_words_per_message: 1,
        })
        .run(&fam.graph)
        .expect_err("1-word bandwidth cannot carry BFS offers");
    assert!(err.to_string().contains("bandwidth"));
}

/// Degenerate inputs: empty and single-node graphs accept trivially.
#[test]
fn degenerate_inputs() {
    for n in [1usize, 2, 3] {
        let g = planartest_graph::Graph::empty(n);
        let out = PlanarityTester::new(TesterConfig::new(0.5).with_phases(2))
            .run(&g)
            .expect("run");
        assert!(out.accepted());
    }
}

/// Extreme epsilon values behave: large eps = very few phases; small eps
/// = many phases, still correct on a small planar input.
#[test]
fn epsilon_extremes() {
    let fam = planar::cycle(12);
    for eps in [0.9, 0.01] {
        let out = PlanarityTester::new(TesterConfig::new(eps).with_phases(3))
            .run(&fam.graph)
            .expect("run");
        assert!(out.accepted(), "eps={eps}");
    }
}
