//! What a memoised `Prepared` costs: `heap_bytes` per node, pinned on
//! three graphs at ε = 0.1 and 10 Stage-I phases. `heap_bytes` counts
//! the tables a release build keeps in every profile (debug builds also
//! keep the message-level oracle's node-indexed labels, intervals and
//! trees, uncounted), so the pins hold in both.

use planartest_core::{PlanarityTester, TesterConfig};
use planartest_graph::generators::spec;

/// `(spec, bytes per node at most)`: the measured 43.23, 29.66 and
/// 30.91, rounded up. Count any table a `Prepared` gains here.
const CEILINGS: &[(&str, f64)] = &[
    ("tri_grid(40,40)", 43.3),
    ("grid(100,100)", 29.7),
    ("random_planar(1500, 0.7, seed=3)", 31.0),
];

#[test]
fn a_prepared_tester_holds_its_pinned_bytes_per_node() {
    for &(spec_str, ceiling) in CEILINGS {
        let g = spec::parse(spec_str).expect("spec").graph;
        let cfg = TesterConfig::new(0.1).with_phases(10);
        let prepared = PlanarityTester::new(cfg).prepare(&g).expect("prepare");
        let per_node = prepared.heap_bytes() as f64 / g.n() as f64;
        println!("{spec_str}: {per_node:.2} bytes per node");
        assert!(
            per_node <= ceiling,
            "{spec_str}: {per_node} bytes per node, above {ceiling}"
        );
    }
}
