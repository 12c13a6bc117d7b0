//! The execution layer: run a cycle's coalesced groups, in order.
//!
//! A *group* is the scheduler's unit of engine work — every pending
//! query that shares a `(graph, config, property)` cache key rides one
//! batched engine pass. A planarity group arrives carrying its key's
//! memoised [`Prepared`] tester when the cache has one, and then runs
//! only its seeds' sample lanes ([`Prepared::sample`]); otherwise it
//! prepares one ([`PlanarityTester::prepare`]) and hands it back in
//! its [`GroupPass`] for the scheduler to keep. Group execution is
//! **pure** — it reads the resident CSR through an immutable registry
//! borrow and returns a [`GroupPass`] — so the only ordered state
//! (cache and memo inserts, the engine-pass counter, response slots)
//! is applied afterwards by the scheduler, in group order. That split
//! is what lets the pipelined server run this stage on a scoped thread
//! while the drain thread resolves the *next* cycle's arrivals against
//! the cache: [`execute_groups`] only ever holds a shared borrow of
//! the registry.

use std::sync::Arc;

use planartest_core::applications::{test_bipartiteness, test_cycle_freeness, HereditaryOutcome};
use planartest_core::{CoreError, PlanarityTester, Prepared, TesterConfig};
use planartest_graph::Graph;
use planartest_sim::{Engine, SimConfig, SimStats};

use crate::cache::CacheKey;
use crate::query::{GraphRef, Outcome, Property};
use crate::registry::GraphRegistry;
use crate::scheduler::Resolved;
use crate::telemetry::Clock;

/// One coalesced group: the shared key and pass parameters, the batch
/// lanes (distinct seeds, first-seen order), and the member queries
/// with their response-slot indices.
#[derive(Debug)]
pub(crate) struct Group {
    /// The shared cache key (graph fingerprint × config × property).
    pub key: CacheKey,
    /// The first member's full config (fingerprint-equal for all).
    pub cfg: TesterConfig,
    /// Distinct seed lanes in first-seen order (seed-independent
    /// properties collapse onto lane 0).
    pub seeds: Vec<u64>,
    /// `(response slot, resolved query)` pairs, submission order.
    pub members: Vec<(usize, Resolved)>,
    /// The key's memoised prepared tester, looked up when the group
    /// formed (planarity only).
    pub prefix: Option<Arc<Prepared>>,
}

impl Group {
    /// The seed lane a member occupies.
    pub(crate) fn lane(&self, member: &Resolved) -> u64 {
        if self.key.property.seed_dependent() {
            member.seed
        } else {
            0
        }
    }
}

/// The result of one group's engine pass, before any state is applied.
#[derive(Debug)]
pub(crate) struct GroupPass {
    /// Per-lane outcomes, or the pass-wide engine failure.
    pub by_seed: Result<Vec<(u64, Outcome)>, CoreError>,
    /// Wall-clock of the pass (split per member by the scheduler).
    pub engine_micros: u64,
    /// A tester this pass prepared (the group had none), for the
    /// scheduler to memoise.
    pub prepared: Option<Arc<Prepared>>,
}

/// Runs every group, one after another, and returns their passes in
/// group order.
pub(crate) fn execute_groups(
    registry: &GraphRegistry,
    groups: &[Group],
    clock: &Clock,
) -> Vec<GroupPass> {
    groups
        .iter()
        .map(|group| run_group_pass(registry, group, clock))
        .collect()
}

/// Executes one group through a single engine pass. Pure with respect
/// to the service: reads the resident CSR, touches no cache or
/// counter state. Pass wall time is stamped on the injected service
/// clock, so engine timings are deterministic under a mock clock.
fn run_group_pass(registry: &GraphRegistry, group: &Group, clock: &Clock) -> GroupPass {
    // Resolution already succeeded during the scheduler's resolve
    // stage (that is where `key.graph` came from) and the registry is
    // immutable for the whole cycle, so the lookup cannot fail here.
    let graph = &registry
        .resolve(&GraphRef::Fingerprint(group.key.graph))
        .expect("resolved during the cycle's resolve stage")
        .graph;

    let started = clock.now_micros();
    let mut prepared = None;
    let by_seed: Result<Vec<(u64, Outcome)>, CoreError> = match group.key.property {
        Property::Planarity => {
            let tester = match &group.prefix {
                Some(tester) => Ok(Arc::clone(tester)),
                None => PlanarityTester::new(group.cfg.clone())
                    .prepare(graph)
                    .map(|tester| Arc::clone(prepared.insert(Arc::new(tester)))),
            };
            tester
                .and_then(|tester| tester.sample(graph, &group.seeds))
                .map(|outs| {
                    group
                        .seeds
                        .iter()
                        .copied()
                        .zip(outs.into_iter().map(Outcome::Planarity))
                        .collect()
                })
        }
        Property::CycleFreeness | Property::Bipartiteness => {
            run_hereditary(graph, &group.cfg, group.key.property)
                .map(|(outcome, stats)| vec![(0, Outcome::Hereditary { outcome, stats })])
        }
    };
    GroupPass {
        by_seed,
        engine_micros: clock.now_micros().saturating_sub(started),
        prepared,
    }
}

/// Runs a Corollary 16 tester on a fresh engine, returning the outcome
/// plus the pass's statistics.
fn run_hereditary(
    graph: &Graph,
    cfg: &TesterConfig,
    property: Property,
) -> Result<(HereditaryOutcome, SimStats), CoreError> {
    let mut engine = Engine::new(graph, SimConfig::default());
    let outcome = match property {
        Property::CycleFreeness => test_cycle_freeness(&mut engine, cfg)?,
        Property::Bipartiteness => test_bipartiteness(&mut engine, cfg)?,
        Property::Planarity => unreachable!("planarity rides a prepared tester"),
    };
    Ok((outcome, *engine.stats()))
}
