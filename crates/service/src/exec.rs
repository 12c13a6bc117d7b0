//! The execution layer: run a cycle's coalesced groups, in order.
//!
//! A *group* is the scheduler's unit of engine work — every pending
//! query that shares a `(graph, config, property)` cache key rides one
//! batched engine pass. A planarity group arrives carrying its key's
//! memoised [`Prepared`] tester when the cache has one, and then runs
//! only its seeds' sample lanes ([`Prepared::sample`]); otherwise it
//! prepares one ([`PlanarityTester::prepare`]) and hands it back in
//! its [`GroupPass`] for the scheduler to keep. Group execution is
//! **pure** — each group carries its graph (an [`Arc`] resolved from
//! the registry when the group formed), so [`execute_groups`] reads no
//! registry, and it returns a [`GroupPass`] per group — so the only
//! ordered state (cache and memo inserts, the engine-pass counter,
//! response slots) is applied afterwards by the scheduler, in group
//! order. That split is what lets the server hand a cycle's groups to
//! its one standing execute thread while the drain thread resolves the
//! *next* cycle's arrivals against the cache and the registry.
//!
//! A pass that panics fails its own group alone: [`execute_groups`]
//! runs each pass under [`catch_unwind`](std::panic::catch_unwind) and
//! answers the group's members with [`ServiceError::PassPanicked`].

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use planartest_core::applications::{test_bipartiteness, test_cycle_freeness, HereditaryOutcome};
use planartest_core::{CoreError, PlanarityTester, Prepared, TesterConfig};
use planartest_graph::Graph;
use planartest_sim::{Engine, SimConfig, SimStats};

use crate::cache::CacheKey;
use crate::error::ServiceError;
use crate::query::{Outcome, Property};
use crate::scheduler::Resolved;
use crate::telemetry::Clock;

/// A seed whose pass panics, in test builds only: the hook that tests
/// a panicking pass with, which no client of a shipped build can reach.
#[cfg(test)]
pub(crate) const PANIC_SEED: u64 = 0x0BAD_5EED_DEAD_BEEF;

/// One coalesced group: the shared key and pass parameters, the graph,
/// the batch lanes (distinct seeds, first-seen order), and the member
/// queries with their response-slot indices.
#[derive(Debug)]
pub(crate) struct Group {
    /// The shared cache key (graph fingerprint × config × property).
    pub key: CacheKey,
    /// The first member's full config (fingerprint-equal for all).
    pub cfg: TesterConfig,
    /// The key's graph, resolved from the registry when the group
    /// formed.
    pub graph: Arc<Graph>,
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
    /// Per-lane outcomes, or the pass-wide failure: an engine error or
    /// a panic.
    pub by_seed: Result<Vec<(u64, Outcome)>, ServiceError>,
    /// Wall-clock of the pass (split per member by the scheduler).
    pub engine_micros: u64,
    /// A tester this pass prepared (the group had none), for the
    /// scheduler to memoise.
    pub prepared: Option<Arc<Prepared>>,
}

/// Runs every group, one after another, and returns their passes in
/// group order. A pass that panics answers
/// [`ServiceError::PassPanicked`] and keeps nothing it prepared; the
/// groups after it run as usual.
pub(crate) fn execute_groups(groups: &[Group], clock: &Clock) -> Vec<GroupPass> {
    groups
        .iter()
        .map(|group| {
            panic::catch_unwind(AssertUnwindSafe(|| run_group_pass(group, clock))).unwrap_or_else(
                |payload| GroupPass {
                    by_seed: Err(ServiceError::PassPanicked {
                        message: panic_message(payload.as_ref()),
                    }),
                    engine_micros: 0,
                    prepared: None,
                },
            )
        })
        .collect()
}

/// What a panic said, when it said it with a string.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a non-string panic payload".to_string())
}

/// Executes one group through a single engine pass over its graph.
/// Pure with respect to the service: touches no cache or counter
/// state. Pass wall time is stamped on the injected service clock, so
/// engine timings are deterministic under a mock clock.
fn run_group_pass(group: &Group, clock: &Clock) -> GroupPass {
    #[cfg(test)]
    if group.seeds.contains(&PANIC_SEED) {
        panic!("a pass over the test hook's poisoned seed");
    }
    let graph = &*group.graph;
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
        by_seed: by_seed.map_err(ServiceError::Engine),
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
