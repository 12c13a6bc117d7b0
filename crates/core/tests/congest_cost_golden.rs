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
//!
//! `LANE_GOLDEN` pins larger graphs whose parts a seed draws (more
//! non-tree edges than the sample size), where the sample lane costs
//! its up-stream in closed form along the sampled paths: a release
//! build checks that closed form against nothing else. Their degrees
//! exceed 6, so the embedder could move these rows through the label
//! width; they were recorded with the left-right embedder.

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

/// `(seed, accepted, total rounds, messages, words, runs)`.
type Row = (u64, bool, u64, u64, u64, u64);

/// `(spec, rows)` at ε = 0.1 and 10 Stage-I phases, every seed of a
/// graph served by one `run_many`.
const LANE_GOLDEN: &[(&str, [Row; 3])] = &[
    (
        "tri_grid(40,40)",
        [
            (1, true, 81711, 1119597, 3236341, 150),
            (2, true, 81685, 1100499, 3176009, 150),
            (3, true, 81734, 1149658, 3367682, 150),
        ],
    ),
    (
        "random_planar(1500, 0.7, seed=3)",
        [
            (1, true, 9706, 690220, 1973666, 140),
            (2, true, 9717, 691688, 1972126, 140),
            (3, true, 9708, 672452, 1907027, 140),
        ],
    ),
];

#[test]
fn drawn_parts_keep_their_cost() {
    let mut actual = Vec::new();
    for &(spec_str, _) in LANE_GOLDEN {
        let g = spec::parse(spec_str).expect("spec").graph;
        let cfg = TesterConfig::new(0.1).with_phases(10);
        let outs = PlanarityTester::new(cfg)
            .run_many(&g, &[1, 2, 3])
            .expect("run_many");
        let rows: Vec<_> = [1, 2, 3]
            .into_iter()
            .zip(&outs)
            .map(|(seed, out)| {
                let stats = out.stats;
                (
                    seed,
                    out.accepted(),
                    stats.total_rounds(),
                    stats.messages,
                    stats.words,
                    stats.runs,
                )
            })
            .collect();
        actual.push((spec_str, rows));
    }
    let expected: Vec<_> = LANE_GOLDEN
        .iter()
        .map(|&(spec_str, rows)| (spec_str, rows.to_vec()))
        .collect();
    assert_eq!(actual, expected, "actual table: {actual:#?}");
}
