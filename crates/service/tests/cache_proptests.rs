//! Cache-correctness properties: cached and uncached paths must be
//! bit-identical — and a cached reject must replay its witness without
//! re-running the partition.

use planartest_core::applications::{test_bipartiteness, test_cycle_freeness};
use planartest_core::{PlanarityTester, TesterConfig};
use planartest_graph::generators::spec;
use planartest_service::{CacheStatus, GraphRef, Outcome, Property, Query, Service};
use planartest_sim::{Engine, SimConfig, SimStats};
use proptest::prelude::*;

/// The corpus the properties draw from: planar, certified-far, and
/// uncertified non-planar families, all spec-addressable.
const SPECS: &[&str] = &[
    "tri_grid(5,5)",
    "grid(4,6)",
    "cycle(12)",
    "random_planar(30, 0.7, seed=3)",
    "k5_chain(4)",
    "complete(8)",
    "planar_plus_chords(16, 10, seed=2)",
    "gnp(24, 0.25, seed=5)",
];

const EPSILONS: &[f64] = &[0.05, 0.1, 0.25];

const PROPERTIES: &[Property] = &[
    Property::Planarity,
    Property::CycleFreeness,
    Property::Bipartiteness,
];

fn cfg(eps: f64, seed: u64) -> TesterConfig {
    TesterConfig::new(eps).with_phases(4).with_seed(seed)
}

/// Reference run with no service in the loop (the "uncached path").
fn direct(spec_text: &str, cfg: &TesterConfig, property: Property) -> Outcome {
    let graph = spec::parse(spec_text).expect("corpus spec").graph;
    match property {
        Property::Planarity => {
            Outcome::Planarity(PlanarityTester::new(cfg.clone()).run(&graph).expect("run"))
        }
        Property::CycleFreeness | Property::Bipartiteness => {
            let mut engine = Engine::new(&graph, SimConfig::default());
            let baseline = *engine.stats();
            let outcome = match property {
                Property::CycleFreeness => test_cycle_freeness(&mut engine, cfg),
                _ => test_bipartiteness(&mut engine, cfg),
            }
            .expect("run");
            let stats = engine.stats().delta_since(&baseline);
            Outcome::Hereditary { outcome, stats }
        }
    }
}

/// Field-wise bit equality of two outcomes (verdict, witnesses, and the
/// full statistics ledger — `RunReport`s absorb into `SimStats`, so
/// equal stats means every absorbed report agreed).
fn assert_outcomes_identical(a: &Outcome, b: &Outcome, context: &str) {
    assert_eq!(a.accepted(), b.accepted(), "{context}: verdict");
    assert_eq!(
        a.rejecting_nodes(),
        b.rejecting_nodes(),
        "{context}: witnesses"
    );
    let (sa, sb): (&SimStats, &SimStats) = (a.stats(), b.stats());
    assert_eq!(sa, sb, "{context}: stats ledger");
    match (a, b) {
        (Outcome::Planarity(x), Outcome::Planarity(y)) => {
            assert_eq!(x.rejections, y.rejections, "{context}: reject reasons");
            assert_eq!(
                x.violation_witnesses, y.violation_witnesses,
                "{context}: violation witnesses"
            );
            let xs: Vec<usize> = x.parts.iter().map(|p| p.sampled).collect();
            let ys: Vec<usize> = y.parts.iter().map(|p| p.sampled).collect();
            assert_eq!(xs, ys, "{context}: per-part sample counts");
            assert_eq!(x.phases, y.phases, "{context}: phase metrics");
            assert_eq!(x.parts, y.parts, "{context}: part reports");
        }
        (Outcome::Hereditary { outcome: x, .. }, Outcome::Hereditary { outcome: y, .. }) => {
            assert_eq!(x.parts, y.parts, "{context}: part count");
        }
        _ => panic!("{context}: outcome shapes diverged"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cached and uncached paths return bit-identical outcomes, for the
    /// cold pass and the warm replay alike.
    #[test]
    fn cached_equals_uncached(
        spec_idx in 0..SPECS.len(),
        eps_idx in 0..EPSILONS.len(),
        seed in 0u64..1_000,
        prop_idx in 0..PROPERTIES.len(),
    ) {
        let spec_text = SPECS[spec_idx];
        let property = PROPERTIES[prop_idx];
        let cfg = cfg(EPSILONS[eps_idx], seed);
        let reference = direct(spec_text, &cfg, property);

        let mut service = Service::new();
        service.registry_mut().ingest_spec("g", spec_text).unwrap();
        let query =
            || Query::planarity(GraphRef::Name("g".into()), cfg.clone()).with_property(property);

        let cold = service.query(query()).unwrap();
        prop_assert_eq!(cold.cache, CacheStatus::Cold);
        assert_outcomes_identical(
            &cold.outcome,
            &reference,
            &format!("cold {spec_text} {property}"),
        );
        prop_assert_eq!(service.engine_passes(), 1);

        let warm = service.query(query()).unwrap();
        prop_assert_eq!(warm.cache, CacheStatus::Warm);
        assert_outcomes_identical(
            &warm.outcome,
            &reference,
            &format!("warm {spec_text} {property}"),
        );
        prop_assert_eq!(service.engine_passes(), 1, "warm hits must not run engines");
    }

    /// A coalesced drain serves every member bit-identically to its solo
    /// uncached run, and re-querying any member is a warm replay.
    #[test]
    fn coalesced_batch_equals_solo_runs(
        spec_idx in 0..SPECS.len(),
        eps_idx in 0..EPSILONS.len(),
        base_seed in 0u64..1_000,
    ) {
        let spec_text = SPECS[spec_idx];
        let mut service = Service::new();
        service.registry_mut().ingest_spec("g", spec_text).unwrap();
        let seeds: Vec<u64> = (base_seed..base_seed + 3).collect();
        for &seed in &seeds {
            service.submit(Query::planarity(
                GraphRef::Name("g".into()),
                cfg(EPSILONS[eps_idx], seed),
            ));
        }
        let drained = service.drain();
        prop_assert_eq!(service.engine_passes(), 1, "one pass for the group");
        for (&seed, (_, result)) in seeds.iter().zip(&drained) {
            let response = result.as_ref().unwrap();
            prop_assert_eq!(response.coalesced, seeds.len());
            let reference = direct(
                spec_text,
                &cfg(EPSILONS[eps_idx], seed),
                Property::Planarity,
            );
            assert_outcomes_identical(
                &response.outcome,
                &reference,
                &format!("coalesced {spec_text} seed {seed}"),
            );
            // And the cache now warm-replays that exact seed.
            let warm = service
                .query(Query::planarity(
                    GraphRef::Name("g".into()),
                    cfg(EPSILONS[eps_idx], seed),
                ))
                .unwrap();
            prop_assert_eq!(warm.cache, CacheStatus::Warm);
            assert_outcomes_identical(&warm.outcome, &reference, "warm after batch");
        }
        prop_assert_eq!(service.engine_passes(), 1);
    }

    /// A second fresh seed on a key rides the first pass's prepared
    /// tester (a memo hit, unless the first pass formed a certificate)
    /// and both answer exactly as the uncached path.
    #[test]
    fn fresh_seed_rides_the_memo(
        spec_idx in 0..SPECS.len(),
        eps_idx in 0..EPSILONS.len(),
        seed_a in 0u64..500,
        seed_offset in 1u64..500,
    ) {
        let spec_text = SPECS[spec_idx];
        let mut service = Service::new();
        service.registry_mut().ingest_spec("g", spec_text).unwrap();
        let cfg = |seed| cfg(EPSILONS[eps_idx], seed);
        let query = |seed| Query::planarity(GraphRef::Name("g".into()), cfg(seed));

        let first = service.query(query(seed_a)).unwrap();
        prop_assert_eq!(first.cache, CacheStatus::Cold);
        assert_outcomes_identical(
            &first.outcome,
            &direct(spec_text, &cfg(seed_a), Property::Planarity),
            &format!("first touch {spec_text}"),
        );
        let stats = service.stats();
        prop_assert_eq!((stats.prefix_hits, stats.prefix_misses), (0, 1));

        let seed_b = seed_a + seed_offset;
        let second = service.query(query(seed_b)).unwrap();
        let stats = service.stats();
        if first.outcome.accepted() {
            prop_assert_eq!(second.cache, CacheStatus::Cold);
            prop_assert_eq!((stats.prefix_hits, stats.prefix_misses), (1, 1));
            prop_assert_eq!(stats.prefix_entries, 1);
            assert_outcomes_identical(
                &second.outcome,
                &direct(spec_text, &cfg(seed_b), Property::Planarity),
                &format!("memo hit {spec_text}"),
            );
        } else {
            // A strict reject is a certificate: the key never reaches
            // the engine again, so it keeps no prefix.
            prop_assert_eq!(second.cache, CacheStatus::Certificate);
            prop_assert_eq!(stats.prefix_entries, 0);
            prop_assert_eq!(service.engine_passes(), 1);
        }
    }

    /// One-sided-error retention: a cached reject replays its witness
    /// for *unseen* seeds without re-running the partition (the engine
    /// pass counter proves no engine work happened).
    #[test]
    fn cached_reject_replays_witness_without_rerunning(
        far_idx in 0..3usize,
        seed_a in 0u64..500,
        seed_offset in 1u64..500,
    ) {
        // Certified-far corpus members: every seed rejects.
        let spec_text = ["k5_chain(4)", "complete(8)", "planar_plus_chords(16, 10, seed=2)"][far_idx];
        let seed_b = seed_a + seed_offset;
        let mut service = Service::new();
        service.registry_mut().ingest_spec("far", spec_text).unwrap();
        let query = |seed: u64| Query::planarity(GraphRef::Name("far".into()), cfg(0.05, seed));

        let first = service.query(query(seed_a)).unwrap();
        prop_assert!(!first.outcome.accepted(), "{} must reject", spec_text);
        prop_assert_eq!(service.engine_passes(), 1);

        let replay = service.query(query(seed_b)).unwrap();
        prop_assert_eq!(replay.cache, CacheStatus::Certificate);
        prop_assert_eq!(
            service.engine_passes(),
            1,
            "certificate replay must not re-run the partition"
        );
        // The replay is the certifying run, witness and stats included.
        prop_assert_eq!(replay.seed, seed_a);
        assert_outcomes_identical(&replay.outcome, &first.outcome, "certificate replay");
    }
}
