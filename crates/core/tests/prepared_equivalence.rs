//! The prepared tester's equivalence: one `Prepared` serving a seed set
//! through any split into `sample` calls, in any order, answers every
//! seed exactly as `run_many` on the whole set and as a per-seed `run`
//! — verdicts, rejections, witnesses, phases, every part report and the
//! statistics ledger.

use planartest_core::{
    CoreError, EmbeddingMode, PlanarityTester, RejectReason, TestOutcome, TesterConfig,
};
use planartest_graph::generators::{nonplanar, planar};
use planartest_graph::Graph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Planar and far graphs; `complete(16)` is rejected in Stage I.
fn corpus(idx: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(idx as u64);
    match idx {
        0 => planar::triangulated_grid(5, 6).graph,
        1 => planar::grid(4, 6).graph,
        2 => planar::random_planar(40, 0.7, &mut rng).graph,
        3 => nonplanar::k5_chain(4).graph,
        4 => nonplanar::complete(16).graph,
        5 => nonplanar::complete_bipartite(3, 3).graph,
        _ => nonplanar::planar_plus_chords(30, 15, &mut rng).graph,
    }
}

const CORPUS: usize = 7;

fn assert_same(a: &TestOutcome, b: &TestOutcome, context: &str) {
    assert_eq!(a.accepted(), b.accepted(), "{context}: verdict");
    assert_eq!(a.rejections, b.rejections, "{context}: rejections");
    assert_eq!(
        a.violation_witnesses, b.violation_witnesses,
        "{context}: witnesses"
    );
    assert_eq!(a.phases, b.phases, "{context}: phases");
    assert_eq!(a.parts, b.parts, "{context}: part reports");
    assert_eq!(a.stats, b.stats, "{context}: stats");
}

fn assert_same_result(
    a: &Result<TestOutcome, CoreError>,
    b: &Result<TestOutcome, CoreError>,
    context: &str,
) {
    match (a, b) {
        (Ok(a), Ok(b)) => assert_same(a, b, context),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{context}: error"),
        _ => panic!("{context}: Ok/Err shape diverged"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prepared_sample_equals_run_many_and_run(
        graph_idx in 0..CORPUS,
        paper in 0u8..2,
        eps_idx in 0..2usize,
        seeds in proptest::collection::vec(0u64..1_000, 1..8),
        cuts in proptest::collection::vec(0u8..2, 8..9),
        keys in proptest::collection::vec(0u32..100, 8..9),
    ) {
        let g = corpus(graph_idx);
        let mode = if paper == 1 { EmbeddingMode::Paper } else { EmbeddingMode::Strict };
        let cfg = TesterConfig::new([0.1, 0.25][eps_idx])
            .with_phases(4)
            .with_embedding(mode);
        let tester = PlanarityTester::new(cfg.clone());

        // The seed set, split into chunks wherever `cuts` says.
        let mut chunks: Vec<Vec<u64>> = vec![Vec::new()];
        for (i, &seed) in seeds.iter().enumerate() {
            if i > 0 && cuts[i] == 1 {
                chunks.push(Vec::new());
            }
            chunks.last_mut().unwrap().push(seed);
        }
        // Served in a random order.
        let mut order: Vec<usize> = (0..chunks.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let chunks: Vec<Vec<u64>> = order.into_iter().map(|i| chunks[i].clone()).collect();

        let prepared = tester.prepare(&g).expect("prepare");
        let solo: Vec<Result<TestOutcome, CoreError>> = seeds
            .iter()
            .map(|&seed| PlanarityTester::new(cfg.clone().with_seed(seed)).run(&g))
            .collect();
        let solo_of = |seed: u64| &solo[seeds.iter().position(|&s| s == seed).unwrap()];

        for chunk in &chunks {
            let context = format!("graph {graph_idx} {mode:?} chunk {chunk:?}");
            match prepared.sample(&g, chunk) {
                Ok(outcomes) => {
                    prop_assert_eq!(outcomes.len(), chunk.len());
                    for (&seed, out) in chunk.iter().zip(outcomes) {
                        assert_same_result(&Ok(out), solo_of(seed), &context);
                    }
                }
                // Fail-fast: the chunk's first failing seed reports.
                Err(e) => {
                    let first = chunk.iter().map(|&s| solo_of(s)).find(|r| r.is_err());
                    let first = first.expect("a failing chunk holds a failing seed");
                    assert_same_result(&Err(e), first, &context);
                }
            }
        }

        let context = format!("graph {graph_idx} {mode:?} run_many");
        match tester.run_many(&g, &seeds) {
            Ok(outcomes) => {
                for (out, solo) in outcomes.into_iter().zip(&solo) {
                    assert_same_result(&Ok(out), solo, &context);
                }
            }
            Err(e) => {
                let first = solo.iter().find(|r| r.is_err()).expect("a failing seed");
                assert_same_result(&Err(e), first, &context);
            }
        }
    }
}

#[test]
fn prepared_is_send_and_sync_and_reports_heap() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<planartest_core::Prepared>();

    let tester = PlanarityTester::new(TesterConfig::new(0.1).with_phases(4));
    let planar = tester.prepare(&corpus(0)).unwrap();
    let rejected = tester.prepare(&corpus(4)).unwrap();
    // Labels and trees dominate a planar prefix; a Stage-I reject keeps
    // only its phases and rejections.
    assert!(planar.heap_bytes() > rejected.heap_bytes());
    assert!(rejected.heap_bytes() > 0);
    let out = rejected.sample(&corpus(4), &[1, 2]).unwrap();
    assert!(out.iter().all(|o| !o.accepted() && o.parts.is_empty()));
    assert!(out[0]
        .rejections
        .iter()
        .all(|&(_, r)| r == RejectReason::ArboricityEvidence));
}
