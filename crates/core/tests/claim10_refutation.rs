//! Regression test pinning the reproduction's headline finding: Claim 10
//! of Levi-Medina-Ron (PODC 2018) is false as stated. A 7-node planar
//! graph admits a BFS tree under which *every* embedding-derived
//! labelling contains a violating (Definition 7) edge pair, so the
//! paper-faithful Stage II can reject planar inputs. The `e6_violations`
//! bench binary measures the violation counts at scale; the sound fix
//! the default tester uses is `EmbeddingMode::Strict`.

use planartest_core::oracle::{count_violating_edges, non_tree_intervals};
use planartest_core::{EmbeddingMode, PlanarityTester, TesterConfig};
use planartest_embed::demoucron::check_planarity;
use planartest_graph::{Graph, NodeId};

/// The minimal counterexample found by the debug sweep: an Apollonian
/// network on 7 nodes. Vertex 6 is stacked into face {1, 2, 5}; with BFS
/// root 0, vertex 6's parent is 1, and the pairs (6,2)x(1,5) and
/// (6,5)x(1,2) cannot both be non-interleaving: the first requires
/// l(5) < l(2), the second l(2) < l(5).
fn counterexample() -> Graph {
    Graph::from_edges(
        7,
        [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 5),
            (1, 2),
            (1, 3),
            (1, 4),
            (1, 5),
            (1, 6),
            (2, 3),
            (2, 5),
            (2, 6),
            (3, 4),
            (5, 6),
        ],
    )
    .expect("valid edge list")
}

#[test]
fn planar_counterexample_has_violations_under_every_embedding() {
    let g = counterexample();
    let rot = check_planarity(&g)
        .into_rotation()
        .expect("the graph is planar");
    assert!(
        rot.is_planar_embedding(&g),
        "embedding must verify via Euler"
    );
    let ivs = non_tree_intervals(&g, &rot, NodeId::new(0));
    assert!(
        count_violating_edges(&ivs) > 0,
        "Claim 10 predicted zero violations; the counterexample must refute it"
    );
}

#[test]
fn sound_default_mode_still_accepts_the_counterexample() {
    let g = counterexample();
    let out = PlanarityTester::new(TesterConfig::new(0.2).with_phases(4))
        .run(&g)
        .expect("tester runs");
    assert!(
        out.accepted(),
        "the sound tester must accept planar inputs: {:?}",
        out.rejections
    );
    // The violation witnesses may be non-empty — that is the refutation
    // being observed at runtime without breaking one-sidedness.
}

#[test]
fn paper_mode_can_reject_the_planar_counterexample() {
    // Demonstrates *why* the paper-faithful mode is not one-sided: with
    // enough samples the violating pair is found on a planar graph.
    let g = counterexample();
    let cfg = TesterConfig::new(0.05)
        .with_phases(4)
        .with_embedding(EmbeddingMode::Paper);
    let out = PlanarityTester::new(cfg).run(&g).expect("tester runs");
    // Whether it rejects depends on which part the partition formed and
    // what got sampled; across seeds at least one rejection must appear.
    let mut any_reject = !out.accepted();
    for seed in 0..20u64 {
        let cfg = TesterConfig::new(0.05)
            .with_phases(4)
            .with_seed(seed)
            .with_embedding(EmbeddingMode::Paper);
        if !PlanarityTester::new(cfg).run(&g).expect("runs").accepted() {
            any_reject = true;
        }
    }
    assert!(
        any_reject,
        "expected the paper-faithful mode to exhibit a false rejection on some seed"
    );
}
