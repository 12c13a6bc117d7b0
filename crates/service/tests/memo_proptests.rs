//! Prepared-tester memo properties: a query answered on a memoised
//! tester (a memo hit) answers exactly as one that prepared its own (a
//! miss) and as the uncached path, across interleaved `clear_cache`
//! calls.

use std::collections::HashMap;

use planartest_core::{EmbeddingMode, PlanarityTester, TesterConfig};
use planartest_graph::generators::spec;
use planartest_service::{CacheStatus, DrainedQuery, GraphRef, Outcome, Query, Service};
use proptest::prelude::*;

/// The keys: a planar graph, the same graph in the paper-faithful
/// mode (whose rejects never certify), and a certified-far graph.
const KEYS: &[(&str, f64, EmbeddingMode)] = &[
    ("tri_grid(4,4)", 0.1, EmbeddingMode::Strict),
    ("tri_grid(4,4)", 0.25, EmbeddingMode::Paper),
    ("k5_chain(3)", 0.1, EmbeddingMode::Strict),
];

fn cfg(key: usize, seed: u64) -> TesterConfig {
    let (_, eps, mode) = KEYS[key];
    TesterConfig::new(eps)
        .with_phases(4)
        .with_embedding(mode)
        .with_seed(seed)
}

/// One step of a stream: submit a query, drain, or clear the cache.
#[derive(Debug, Clone)]
enum Step {
    Query { key: usize, seed: u64 },
    Drain,
    Clear,
}

fn step_strategy(keys: usize) -> impl Strategy<Value = Step> {
    (0u8..10, 0..keys, 0u64..6).prop_map(|(kind, key, seed)| match kind {
        0 => Step::Clear,
        1 | 2 => Step::Drain,
        _ => Step::Query { key, seed },
    })
}

/// Runs the stream on a fresh service; returns every drained response
/// with the key it queried.
fn run_stream(steps: &[Step]) -> Vec<(usize, DrainedQuery)> {
    let mut service = Service::new();
    for (i, (spec_text, ..)) in KEYS.iter().enumerate() {
        service
            .registry_mut()
            .ingest_spec(&format!("k{i}"), spec_text)
            .unwrap();
    }
    let mut pending: Vec<usize> = Vec::new();
    let mut out = Vec::new();
    let mut drain = |service: &mut Service, pending: &mut Vec<usize>| {
        let drained = service.drain();
        out.extend(pending.drain(..).zip(drained));
    };
    for step in steps {
        match *step {
            Step::Query { key, seed } => {
                service.submit(Query::planarity(
                    GraphRef::Name(format!("k{key}")),
                    cfg(key, seed),
                ));
                pending.push(key);
            }
            Step::Drain => drain(&mut service, &mut pending),
            Step::Clear => service.clear_cache(),
        }
    }
    drain(&mut service, &mut pending);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn memo_hits_answer_as_misses_and_the_uncached_path(
        keys in 2usize..4,
        steps in proptest::collection::vec(step_strategy(3), 1..24),
    ) {
        // Streams over 2–3 of the keys.
        let steps: Vec<Step> = steps
            .into_iter()
            .map(|step| match step {
                Step::Query { key, seed } => Step::Query { key: key % keys, seed },
                other => other,
            })
            .collect();
        let mut direct: HashMap<(usize, u64), Outcome> = HashMap::new();
        for (i, (key, (_, result))) in run_stream(&steps).iter().enumerate() {
            let response = result.as_ref().expect("every key resolves");
            let context = format!("response {i} key {key}");
            // A certificate replays its certifying seed's outcome.
            let expected = direct.entry((*key, response.seed)).or_insert_with(|| {
                let graph = spec::parse(KEYS[*key].0).unwrap().graph;
                Outcome::Planarity(
                    PlanarityTester::new(cfg(*key, response.seed)).run(&graph).unwrap(),
                )
            });
            let (Outcome::Planarity(got), Outcome::Planarity(want)) =
                (&response.outcome, &*expected)
            else {
                panic!("{context}: planarity outcomes");
            };
            prop_assert_eq!(&got.rejections, &want.rejections, "{}", context);
            prop_assert_eq!(&got.violation_witnesses, &want.violation_witnesses, "{}", context);
            prop_assert_eq!(&got.phases, &want.phases, "{}", context);
            prop_assert_eq!(&got.parts, &want.parts, "{}", context);
            prop_assert_eq!(&got.stats, &want.stats, "{}", context);
        }
    }
}

#[test]
fn a_fresh_seed_after_the_first_pass_rides_the_memo() {
    let mut service = Service::new();
    service.registry_mut().ingest_spec("g", KEYS[0].0).unwrap();
    let query = |seed| Query::planarity(GraphRef::Name("g".into()), cfg(0, seed));
    for seed in 0..3 {
        assert_eq!(service.query(query(seed)).unwrap().cache, CacheStatus::Cold);
    }
    let stats = service.stats();
    assert_eq!((stats.prefix_misses, stats.prefix_hits), (1, 2));
    assert_eq!(stats.prefix_entries, 1);
    assert!(stats.prefix_bytes > 0);
    assert_eq!(
        service.engine_passes(),
        3,
        "each fresh seed still runs a pass"
    );
    service.clear_cache();
    let stats = service.stats();
    assert_eq!((stats.prefix_entries, stats.prefix_bytes), (0, 0));
    service.query(query(9)).unwrap();
    assert_eq!(
        service.stats().prefix_misses,
        1,
        "a cleared memo prepares again"
    );
}
