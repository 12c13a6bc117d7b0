//! Golden CONGEST cost of full tester runs.
//!
//! Stage II charges each part's embedding from its BFS depth, whatever
//! algorithm computes the rotation, so swapping the embedder must leave
//! rounds and messages untouched. The rotation can still reach the
//! message count through the packed label width, but every node below
//! has degree at most 6, so every label digit is below 16 and fits the
//! narrowest packing whatever the rotation. A row that moves here is a
//! bug in the embedder or in Stage II, not a rotation effect.
//!
//! The graphs are the tiny corpora of the repo benchmark and the serving
//! bench's closed-loop corpus; the values were recorded with the
//! Demoucron embedder.

use planartest_core::{PlanarityTester, TesterConfig};
use planartest_graph::generators::spec;

/// `(spec, seed, accepted, total rounds, messages, words, runs)` at
/// ε = 0.1 and 10 Stage-I phases. `words` and `runs` were recorded with
/// the sample broadcast simulated message by message; they pin the
/// computed report against the engine run it replaces.
const GOLDEN: &[(&str, u64, bool, u64, u64, u64, u64)] = &[
    ("tri_grid(8,8)", 1, true, 8911, 21924, 59015, 100),
    ("tri_grid(8,8)", 2, true, 8885, 20980, 55711, 100),
    ("tri_grid(8,8)", 3, true, 8887, 21118, 56194, 100),
    ("tri_grid(14,14)", 1, true, 26758, 87421, 232664, 126),
    ("tri_grid(14,14)", 2, true, 26744, 86453, 229276, 126),
    ("tri_grid(14,14)", 3, true, 26690, 79641, 205434, 126),
    ("grid(6,6)", 1, true, 7873, 6459, 14599, 100),
    ("grid(6,6)", 2, true, 7873, 6459, 14599, 100),
    ("grid(6,6)", 3, true, 7873, 6459, 14599, 100),
    ("k5_chain(8)", 1, false, 7566, 9622, 23816, 100),
    ("k5_chain(8)", 2, false, 7566, 9622, 23816, 100),
    ("k5_chain(8)", 3, false, 7566, 9622, 23816, 100),
    ("k5_chain(16)", 1, false, 16027, 34137, 93985, 113),
    ("k5_chain(16)", 2, false, 16005, 33159, 90611, 113),
    ("k5_chain(16)", 3, false, 16003, 32975, 90059, 113),
];

#[test]
fn tester_cost_is_independent_of_the_embedder() {
    for &(spec_str, seed, accepted, rounds, messages, words, runs) in GOLDEN {
        let g = spec::parse(spec_str).expect("spec").graph;
        assert!(
            g.max_degree() <= 6,
            "{spec_str}: digits could exceed 4 bits"
        );
        let cfg = TesterConfig::new(0.1).with_phases(10).with_seed(seed);
        let out = PlanarityTester::new(cfg).run(&g).expect("run");
        let stats = out.stats;
        assert_eq!(
            (
                out.accepted(),
                stats.total_rounds(),
                stats.messages,
                stats.words,
                stats.runs
            ),
            (accepted, rounds, messages, words, runs),
            "{spec_str} seed {seed}"
        );
    }
}
