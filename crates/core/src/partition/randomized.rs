//! The randomized minor-free partition (§4, Theorem 4): no arboricity
//! verification, and the heaviest-out-edge selection is replaced by
//! `s = Θ(log 1/δ)` rounds of weighted random edge selection (§4.1).

use planartest_graph::NodeId;
use planartest_sim::tree::{broadcast, convergecast};
use planartest_sim::Engine;
use planartest_sim::Msg;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::TesterConfig;
use crate::error::CoreError;
use crate::partition::merge::run_merge;
use crate::partition::{
    charge_if_isolated, exchange_roots, Partition, PartitionState, PhaseMetrics,
};

/// Configuration for the randomized partition.
#[derive(Debug, Clone)]
pub struct RandomPartitionConfig {
    /// Edge-cut parameter `ε`.
    pub epsilon: f64,
    /// Failure probability `δ`.
    pub delta: f64,
    /// Master seed (per-node randomness is derived deterministically).
    pub seed: u64,
    /// Override for the number of phases.
    pub phase_override: Option<usize>,
}

impl RandomPartitionConfig {
    /// Creates a configuration for parameters `epsilon` and `delta`.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are in `(0, 1)`.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        RandomPartitionConfig {
            epsilon,
            delta,
            seed: 0xDEC0DE,
            phase_override: None,
        }
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the phase count explicitly.
    pub fn with_phases(mut self, t: usize) -> Self {
        self.phase_override = Some(t);
        self
    }

    /// Number of phases `t = Θ(log 1/ε)` using Claim 14's decay
    /// `(1 − 1/(64α))` with `α = 3`.
    pub fn phases(&self) -> usize {
        if let Some(t) = self.phase_override {
            return t;
        }
        let decay: f64 = 1.0 - 1.0 / (64.0 * 3.0);
        ((2.0 / self.epsilon).ln() / -decay.ln()).ceil() as usize
    }

    /// Selection trials per phase `s = Θ(log 1/δ)`.
    pub fn trials(&self) -> usize {
        ((1.0 / self.delta).ln().ceil() as usize).max(1)
    }
}

/// Runs the randomized minor-free partition (Theorem 4) on `engine`'s
/// graph. Unlike Stage I it never rejects: the arboricity verification is
/// skipped under the minor-free promise.
///
/// # Errors
///
/// Infrastructure errors only.
pub fn run_randomized_partition(
    engine: &mut Engine<'_>,
    cfg: &RandomPartitionConfig,
) -> Result<Partition, CoreError> {
    let g = engine.graph();
    let tester_cfg = TesterConfig::new(cfg.epsilon).with_seed(cfg.seed);
    let mut state = PartitionState::singletons(g);
    let mut tree = state.tree(g);
    let mut phases = Vec::new();
    let t = cfg.phases();

    for phase in 1..=t {
        let neighbor_roots = exchange_roots(engine, &state, tester_cfg.max_rounds)?;
        if charge_if_isolated(engine, &state, &tree, &neighbor_roots, t - phase + 1) {
            break;
        }
        let roots = state.roots();

        // Weighted-edge selection: `trials` independent uniform draws of a
        // boundary edge per part; keep the heaviest drawn auxiliary edge.
        // Indexed by the part root.
        let mut best: Vec<Option<(u32, u64)>> = vec![None; g.n()];
        for trial in 0..cfg.trials() {
            // (a) Uniform boundary-edge draw per part, via a weighted
            // reservoir convergecast (each node proposes a uniform pick
            // among its own boundary edges, with multiplicity counts).
            let draws = convergecast(
                engine,
                &tree,
                |node, kids: &[(NodeId, Msg)]| {
                    // Message: (candidate target root, count) or
                    // (MAX, 0) when the subtree has no boundary edge.
                    let mut rng = node_rng(cfg.seed, phase as u64, trial as u64, node);
                    let my_root = state.root[node.index()].raw();
                    let outs: Vec<u32> = neighbor_roots[node.index()]
                        .iter()
                        .filter(|&&(_, r)| r != my_root)
                        .map(|&(_, r)| r)
                        .collect();
                    let mut total: u64 = 0;
                    let mut pick: u64 = u64::MAX;
                    // Own uniform candidate.
                    if !outs.is_empty() {
                        total = outs.len() as u64;
                        pick = outs[rng.random_range(0..outs.len())] as u64;
                    }
                    for (_, m) in kids {
                        let (cand, cnt) = (m.word(0), m.word(1));
                        if cnt == 0 {
                            continue;
                        }
                        total += cnt;
                        // Replace with probability cnt/total: uniform merge.
                        if rng.random_range(0..total) < cnt {
                            pick = cand;
                        }
                    }
                    Msg::words(&[pick, total])
                },
                tester_cfg.max_rounds,
            )?;
            // (b) Broadcast the drawn target; (c) convergecast its weight.
            // The drawn target of each part, indexed by the root (MAX when
            // the part has no boundary edge, and at non-roots).
            let drawn: Vec<u64> = draws
                .iter()
                .map(|m| {
                    m.as_ref()
                        .filter(|m| m.word(1) > 0)
                        .map_or(u64::MAX, |m| m.word(0))
                })
                .collect();
            let targets = broadcast(
                engine,
                &tree,
                |r| Some(Msg::words(&[drawn[r.index()]])),
                tester_cfg.max_rounds,
            )?;
            let weights = convergecast(
                engine,
                &tree,
                |node, kids: &[(NodeId, Msg)]| {
                    let t = targets[node.index()].as_ref().expect("bcast").word(0);
                    let mut w: u64 = kids.iter().map(|(_, m)| m.word(0)).sum();
                    if t != u64::MAX {
                        w += neighbor_roots[node.index()]
                            .iter()
                            .filter(|&&(_, r)| r as u64 == t)
                            .count() as u64;
                    }
                    Msg::words(&[w])
                },
                tester_cfg.max_rounds,
            )?;
            for &r in &roots {
                let target = drawn[r.index()];
                if target == u64::MAX {
                    continue;
                }
                let w = weights[r.index()].as_ref().expect("root").word(0);
                let entry = best[r.index()].get_or_insert((target as u32, 0));
                if w > entry.1 {
                    *entry = (target as u32, w);
                }
            }
        }

        run_merge(
            engine,
            &tester_cfg,
            &mut state,
            &tree,
            best,
            &neighbor_roots,
        )?;
        tree = state.tree(g);

        phases.push(PhaseMetrics {
            phase,
            cut_weight: state.cut_weight(g),
            parts: state.part_count(),
            max_depth: tree.height(),
            peel_super_rounds: 0,
        });
    }

    Ok(Partition {
        state,
        rejected: Vec::new(),
        phases,
    })
}

fn node_rng(seed: u64, phase: u64, trial: u64, node: NodeId) -> StdRng {
    // SplitMix-style mixing of the coordinates into one seed.
    let mut x = seed
        ^ phase.wrapping_mul(0x9E3779B97F4A7C15)
        ^ trial.wrapping_mul(0xBF58476D1CE4E5B9)
        ^ (node.raw() as u64).wrapping_mul(0x94D049BB133111EB);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    StdRng::seed_from_u64(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use planartest_graph::generators::planar;
    use planartest_sim::SimConfig;

    #[test]
    fn config_derivations() {
        let cfg = RandomPartitionConfig::new(0.1, 0.05);
        assert!(cfg.phases() > 100); // pessimistic Claim 14 constant
        assert_eq!(cfg.trials(), 3);
        assert_eq!(RandomPartitionConfig::new(0.1, 0.9).trials(), 1);
    }

    #[test]
    fn randomized_partition_merges_grid() {
        let g = planar::grid(6, 6).graph;
        let cfg = RandomPartitionConfig::new(0.2, 0.2)
            .with_phases(8)
            .with_seed(3);
        let mut engine = Engine::new(&g, SimConfig::default());
        let p = run_randomized_partition(&mut engine, &cfg).unwrap();
        assert!(p.completed_successfully());
        let first = p.phases.first().unwrap();
        assert!(first.parts < 36, "first phase must merge something");
        // Invariants.
        let tree = p.state.tree(&g);
        for v in g.nodes() {
            assert_eq!(tree.root_of(v), p.state.root[v.index()]);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = planar::triangulated_grid(5, 5).graph;
        let cfg = RandomPartitionConfig::new(0.2, 0.2)
            .with_phases(5)
            .with_seed(11);
        let run = |cfg: &RandomPartitionConfig| {
            let mut engine = Engine::new(&g, SimConfig::default());
            run_randomized_partition(&mut engine, cfg)
                .unwrap()
                .state
                .root
        };
        assert_eq!(run(&cfg), run(&cfg));
        let other = RandomPartitionConfig::new(0.2, 0.2)
            .with_phases(5)
            .with_seed(13);
        // Different seeds usually differ (not guaranteed — the partition
        // on this small graph has few distinct outcomes, so some seed
        // pairs collide — but seeds 11 and 13 differ under the
        // workspace's StdRng stream).
        assert_ne!(run(&cfg), run(&other));
    }

    #[test]
    #[should_panic(expected = "delta must be in (0,1)")]
    fn bad_delta_panics() {
        let _ = RandomPartitionConfig::new(0.1, 1.0);
    }
}
