//! Scheduler-determinism properties: a drain whose independent groups
//! execute on a parallel worker pool must be **bit-for-bit** equal to
//! the sequential drain — same verdicts, witnesses, statistics
//! ledgers, cache provenance, coalescing counts and telemetry — across
//! mixed properties.
//!
//! This is the contract that lets the concurrent server fan groups out
//! (`exec::execute_groups`) without the results depending on pool
//! scheduling: group execution is pure, and all ordered state (cache
//! inserts, counters) is applied sequentially in group order.

use planartest_core::TesterConfig;
use planartest_service::{DrainedQuery, GraphRef, Property, Query, Service};
use proptest::prelude::*;

/// The corpus: two planar families, a certified-far family, and an
/// uncertified non-planar one, so drains mix accepts and rejects.
const SPECS: &[&str] = &[
    "tri_grid(4,4)",
    "grid(3,5)",
    "k5_chain(3)",
    "gnp(18, 0.3, seed=5)",
];

const EPSILONS: &[f64] = &[0.1, 0.25];

const PROPERTIES: &[Property] = &[
    Property::Planarity,
    Property::CycleFreeness,
    Property::Bipartiteness,
];

/// One generated query: indices into the tables above plus a seed.
/// `graph_idx == SPECS.len()` references a graph that was never
/// ingested, exercising per-query failure equivalence too.
#[derive(Debug, Clone)]
struct Spec {
    graph_idx: usize,
    eps_idx: usize,
    seed: u64,
    property_idx: usize,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        0..SPECS.len() + 1,
        0..EPSILONS.len(),
        0u64..4,
        0..PROPERTIES.len(),
    )
        .prop_map(|(graph_idx, eps_idx, seed, property_idx)| Spec {
            graph_idx,
            eps_idx,
            seed,
            property_idx,
        })
}

fn build_query(spec: &Spec) -> Query {
    let graph = if spec.graph_idx < SPECS.len() {
        GraphRef::Name(format!("g{}", spec.graph_idx))
    } else {
        GraphRef::Name("missing".into())
    };
    Query::planarity(
        graph,
        TesterConfig::new(EPSILONS[spec.eps_idx])
            .with_phases(4)
            .with_seed(spec.seed),
    )
    .with_property(PROPERTIES[spec.property_idx])
}

/// Runs the whole workload through a fresh service with the given
/// group-execution width: every spec submitted, one drain, then a
/// second drain of the same workload (cache-hit paths), returning both
/// drains plus the final telemetry.
fn run_workload(
    specs: &[Spec],
    group_threads: usize,
) -> (Vec<DrainedQuery>, Vec<DrainedQuery>, u64) {
    let mut service = Service::new().with_group_threads(group_threads);
    for (i, spec_text) in SPECS.iter().enumerate() {
        service
            .registry_mut()
            .ingest_spec(&format!("g{i}"), spec_text)
            .unwrap();
    }
    for spec in specs {
        service.submit(build_query(spec));
    }
    let cold = service.drain();
    for spec in specs {
        service.submit(build_query(spec));
    }
    let warm = service.drain();
    (cold, warm, service.engine_passes())
}

fn assert_drains_identical(a: &[DrainedQuery], b: &[DrainedQuery], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: drain length");
    for (i, ((id_a, ra), (id_b, rb))) in a.iter().zip(b).enumerate() {
        let context = format!("{context}: query {i}");
        assert_eq!(id_a, id_b, "{context}: id");
        match (ra, rb) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.graph, y.graph, "{context}: graph fp");
                assert_eq!(x.property, y.property, "{context}: property");
                assert_eq!(x.seed, y.seed, "{context}: seed");
                assert_eq!(x.cache, y.cache, "{context}: cache provenance");
                assert_eq!(x.coalesced, y.coalesced, "{context}: coalesced");
                assert_eq!(
                    x.outcome.accepted(),
                    y.outcome.accepted(),
                    "{context}: verdict"
                );
                assert_eq!(
                    x.outcome.rejecting_nodes(),
                    y.outcome.rejecting_nodes(),
                    "{context}: witnesses"
                );
                assert_eq!(x.outcome.stats(), y.outcome.stats(), "{context}: stats");
            }
            (Err(x), Err(y)) => {
                assert_eq!(x.to_string(), y.to_string(), "{context}: error");
            }
            _ => panic!("{context}: Ok/Err shape diverged"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance property: parallel-group drains equal sequential
    /// `Service::drain` bit-for-bit, cold and warm, including the
    /// engine-pass telemetry.
    #[test]
    fn parallel_group_drain_equals_sequential(
        specs in proptest::collection::vec(spec_strategy(), 1..9),
        threads in 2usize..6,
    ) {
        let (seq_cold, seq_warm, seq_passes) = run_workload(&specs, 1);
        let (par_cold, par_warm, par_passes) = run_workload(&specs, threads);
        assert_drains_identical(&seq_cold, &par_cold, "cold drain");
        assert_drains_identical(&seq_warm, &par_warm, "warm drain");
        prop_assert_eq!(seq_passes, par_passes, "engine pass counts");
    }
}
