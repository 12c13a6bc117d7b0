//! Equivalence property tests: a batch — independent protocol instances
//! run back to back on one [`Engine`], which recycles its round buffers
//! between runs — is bit-for-bit the same as running each instance on a
//! fresh engine.
//!
//! A seeded "chaos" protocol — random fan-out, random payload sizes,
//! random wake-ups, occasional deliberate CONGEST violations — drives
//! both. For every random graph and seed set, each instance must produce
//! the same run result (report *or* error), and successful instances the
//! same per-node delivery logs (order included) and final states.

use planartest_graph::{Graph, GraphBuilder, NodeId};
use planartest_sim::{Engine, Msg, NodeLogic, Outbox, RunReport, SimConfig, SimError, SimStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64: the per-(seed, node, round) decision stream.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn decision_stream(seed: u64, node: NodeId, round: u64) -> u64 {
    mix(seed ^ mix(node.raw() as u64) ^ mix(round.rotate_left(17)))
}

/// One node's protocol state: an order-sensitive delivery log digest,
/// the full log, and an activity budget.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct ChaosState {
    digest: u64,
    log: Vec<(u32, Vec<u64>)>,
    activations: u32,
}

/// The shared protocol parameters.
#[derive(Debug, Clone)]
struct Chaos {
    seed: u64,
    /// Per-node activation budget: bounds the run length.
    budget: u32,
    /// Whether this instance may emit deliberately illegal sends.
    violations: bool,
}

impl Chaos {
    fn step_init(&self, node: NodeId, state: &mut ChaosState, out: &mut Outbox<'_>) {
        let r = decision_stream(self.seed, node, u64::MAX);
        if r.is_multiple_of(3) {
            self.spray(node, state, r, out);
        }
        if r % 7 == 1 {
            out.wake();
        }
    }

    fn step_round(
        &self,
        node: NodeId,
        state: &mut ChaosState,
        inbox: &[(NodeId, Msg)],
        out: &mut Outbox<'_>,
    ) {
        // Fold the inbox in delivery order: any reordering changes the
        // digest.
        for (from, msg) in inbox {
            state.digest = mix(state.digest ^ mix(from.raw() as u64));
            for &w in msg.as_words() {
                state.digest = mix(state.digest ^ w);
            }
            state.log.push((from.raw(), msg.as_words().to_vec()));
        }
        state.activations += 1;
        if state.activations >= self.budget {
            return; // quiesce
        }
        let r = decision_stream(self.seed, node, u64::from(state.activations));
        if !r.is_multiple_of(4) {
            self.spray(node, state, r, out);
        }
        if r % 11 == 2 {
            out.wake();
        }
    }

    /// Sends messages to a pseudo-random subset of neighbours; with
    /// `violations` enabled, occasionally exceeds bandwidth, duplicates
    /// a send, or addresses a stranger.
    fn spray(&self, node: NodeId, state: &ChaosState, r: u64, out: &mut Outbox<'_>) {
        let g = out.graph();
        let neighbors: Vec<NodeId> = g.neighbors(node).iter().map(|&(w, _)| w).collect();
        if self.violations && r % 97 == 13 {
            let stranger = NodeId::new((node.index() + 1) % g.n().max(1));
            if g.edge_between(node, stranger).is_none() {
                out.send(stranger, Msg::ping());
                return;
            }
        }
        for (i, &w) in neighbors.iter().enumerate() {
            let d = mix(r ^ (i as u64));
            if d.is_multiple_of(3) {
                let words: Vec<u64> = (0..(d % 4)).map(|k| mix(d ^ k) ^ state.digest).collect();
                out.send(w, Msg::words(&words));
                if self.violations && d % 101 == 7 {
                    out.send(w, Msg::ping()); // duplicate on the edge direction
                }
            } else if self.violations && d % 89 == 11 {
                out.send(w, Msg::words(&[0; 9])); // over bandwidth
            }
        }
    }
}

/// The protocol over all nodes' states.
struct ChaosLogic {
    chaos: Chaos,
    states: Vec<ChaosState>,
}

impl NodeLogic for ChaosLogic {
    fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        let mut state = std::mem::take(&mut self.states[node.index()]);
        self.chaos.step_init(node, &mut state, out);
        self.states[node.index()] = state;
    }
    fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
        let mut state = std::mem::take(&mut self.states[node.index()]);
        self.chaos.step_round(node, &mut state, inbox, out);
        self.states[node.index()] = state;
    }
}

type Observation = (Result<RunReport, SimError>, SimStats, Vec<ChaosState>);

fn run_serial(g: &Graph, chaos: &Chaos, max_rounds: u64) -> Observation {
    let mut engine = Engine::new(g, SimConfig::default());
    let mut logic = ChaosLogic {
        chaos: chaos.clone(),
        states: vec![ChaosState::default(); g.n()],
    };
    let result = engine.run(&mut logic, max_rounds);
    (result, *engine.stats(), logic.states)
}

/// Batch assertion: one instance per seed, run back to back on one
/// shared engine, must yield per-instance reports, errors and final
/// states bit-identical to that many runs on fresh engines.
fn assert_batch_equivalent(g: &Graph, seeds: &[u64], violations: bool) {
    let max_rounds = 400;
    let chaoses: Vec<Chaos> = seeds
        .iter()
        .map(|&seed| Chaos {
            seed,
            budget: 6,
            violations,
        })
        .collect();
    let sequential: Vec<Observation> = chaoses
        .iter()
        .map(|c| run_serial(g, c, max_rounds))
        .collect();

    let mut logics: Vec<ChaosLogic> = chaoses
        .iter()
        .map(|c| ChaosLogic {
            chaos: c.clone(),
            states: vec![ChaosState::default(); g.n()],
        })
        .collect();
    let mut batch = Engine::new(g, SimConfig::default());
    let results: Vec<Result<RunReport, SimError>> = logics
        .iter_mut()
        .map(|logic| batch.run(logic, max_rounds))
        .collect();
    for (k, (result, logic)) in results.iter().zip(&logics).enumerate() {
        match (&sequential[k].0, result) {
            (Ok(sr), Ok(br)) => {
                assert_eq!(br, sr, "instance {k}");
                assert_eq!(logic.states, sequential[k].2, "instance {k}");
            }
            // Error-path states are protocol-bug debris; only the error
            // value must agree.
            (Err(se), Err(be)) => assert_eq!(be, se, "instance {k}"),
            (s, b) => panic!("verdict diverged (instance {k}): {s:?} vs {b:?}"),
        }
    }
    // Cumulative stats absorb exactly the successful instances.
    let mut expected = SimStats::default();
    for (_, stats, _) in &sequential {
        expected.merge(stats);
    }
    assert_eq!(*batch.stats(), expected);
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..40,
        prop::collection::vec((0usize..40, 0usize..40), 0..120),
    )
        .prop_map(|(n, pairs)| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                let (u, v) = (u % n, v % n);
                if u != v {
                    b.add_edge(u, v).expect("in range");
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Batched instances (one per seed) match that many fresh-engine
    /// runs bit for bit.
    #[test]
    fn batch_equivalent_on_random_graphs(
        g in arb_graph(),
        seeds in prop::collection::vec(0u64..1_000_000, 1..6),
    ) {
        assert_batch_equivalent(&g, &seeds, false);
    }

    /// Same, with deliberate CONGEST violations: each failing instance
    /// reports its own sequential error and leaves the rest untouched.
    #[test]
    fn batch_equivalent_under_violations(
        g in arb_graph(),
        seeds in prop::collection::vec(0u64..1_000_000, 1..6),
    ) {
        assert_batch_equivalent(&g, &seeds, true);
    }

    /// Planar and far-from-planar generator families (the tester's
    /// actual workloads).
    #[test]
    fn equivalent_on_generator_families(seed in 0u64..100_000, pick in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = match pick {
            0 => planartest_graph::generators::planar::random_planar(30, 0.7, &mut rng).graph,
            1 => planartest_graph::generators::planar::triangulated_grid(5, 6).graph,
            2 => planartest_graph::generators::nonplanar::gnp(30, 0.15, &mut rng).graph,
            _ => planartest_graph::generators::planar::random_tree(25, &mut rng).graph,
        };
        assert_batch_equivalent(&g, &[seed, seed + 1, seed + 2], false);
    }
}

/// A long pipeline stresses multi-round wake/deliver interleavings.
#[test]
fn equivalent_on_deep_path() {
    let g = Graph::from_edges(120, (0..119).map(|i| (i, i + 1))).unwrap();
    assert_batch_equivalent(&g, &(0..8).collect::<Vec<u64>>(), false);
}

/// Disconnected graphs exercise never-active nodes.
#[test]
fn equivalent_on_disconnected() {
    let g = Graph::from_edges(20, [(0, 1), (2, 3), (5, 6), (6, 7), (10, 11)]).unwrap();
    assert_batch_equivalent(&g, &(0..8).collect::<Vec<u64>>(), true);
}
