//! The full planarity tester (Theorem 1): Stage I then Stage II.

use planartest_graph::{Graph, NodeId};
use planartest_sim::{Backend, Engine, SimConfig, SimStats};

use crate::config::TesterConfig;
use crate::error::CoreError;
use crate::partition::{self, PhaseMetrics};
use crate::stage2::{self, PartReport};

/// Why a node output `reject`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Stage I: the forest-decomposition peeling left the node's part
    /// active — evidence of arboricity > 3 in a minor of the graph.
    ArboricityEvidence,
    /// Stage II: the part has more than `3n − 6` edges.
    EulerBound,
    /// Stage II (strict mode): the embedding step certified the part
    /// non-planar.
    EmbeddingFailed,
    /// Stage II: an assigned non-tree edge interleaves a sampled one
    /// (Definition 7).
    ViolatingEdge,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RejectReason::ArboricityEvidence => "arboricity evidence (stage I)",
            RejectReason::EulerBound => "m > 3n-6 in a part",
            RejectReason::EmbeddingFailed => "embedding failure",
            RejectReason::ViolatingEdge => "violating non-tree edge",
        };
        f.write_str(s)
    }
}

/// The verdict and full telemetry of one tester execution.
#[derive(Debug, Clone)]
pub struct TestOutcome {
    /// Nodes that output `reject`, with reasons (empty = all accept).
    pub rejections: Vec<(NodeId, RejectReason)>,
    /// Simulation statistics (rounds include charged substitutions).
    pub stats: SimStats,
    /// Stage-I per-phase metrics.
    pub phases: Vec<PhaseMetrics>,
    /// Stage-II per-part reports (empty if Stage I already rejected).
    pub parts: Vec<PartReport>,
    /// Nodes that witnessed a Definition 7 violation (telemetry in the
    /// sound modes; rejection evidence only in the paper-faithful mode —
    /// see the Claim 10 refutation in `EXPERIMENTS.md`).
    pub violation_witnesses: Vec<NodeId>,
}

impl TestOutcome {
    /// Whether every node output `accept`.
    pub fn accepted(&self) -> bool {
        self.rejections.is_empty()
    }

    /// Total rounds (simulated + charged).
    pub fn rounds(&self) -> u64 {
        self.stats.total_rounds()
    }
}

/// The distributed one-sided-error planarity tester of Theorem 1.
///
/// # Example
///
/// ```
/// use planartest_core::{PlanarityTester, TesterConfig};
/// use planartest_graph::generators::nonplanar;
///
/// // A chain of K5s is certified far from planar: some node rejects.
/// let far = nonplanar::k5_chain(8);
/// let out = PlanarityTester::new(TesterConfig::new(0.05)).run(&far.graph)?;
/// assert!(!out.accepted());
/// # Ok::<(), planartest_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PlanarityTester {
    cfg: TesterConfig,
    sim: SimConfig,
}

impl PlanarityTester {
    /// Creates a tester with the given configuration.
    pub fn new(cfg: TesterConfig) -> Self {
        PlanarityTester {
            cfg,
            sim: SimConfig::default(),
        }
    }

    /// Overrides the simulated network's bandwidth configuration.
    pub fn with_sim_config(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// A no-op kept for compatibility: every tester pass runs on the one
    /// serial engine whatever `backend` names (see
    /// [`planartest_sim::runtime`]).
    #[must_use]
    pub fn with_backend(self, _backend: Backend) -> Self {
        self
    }

    /// The configuration.
    pub fn config(&self) -> &TesterConfig {
        &self.cfg
    }

    /// Runs the two-stage tester on `g` (a batch of one instance with
    /// the configured seed — see [`PlanarityTester::run_many`]).
    ///
    /// Completeness: if `g` is planar, the outcome always accepts.
    /// Soundness: if `g` is `ε`-far from planar, some node rejects with
    /// probability `1 − 1/poly(n)` over the Stage-II sampling.
    ///
    /// # Errors
    ///
    /// Infrastructure errors only (model violations, sample overflow).
    pub fn run(&self, g: &Graph) -> Result<TestOutcome, CoreError> {
        let mut outcomes = self.run_many(g, std::slice::from_ref(&self.cfg.seed))?;
        Ok(outcomes.pop().expect("one instance"))
    }

    /// Serves a whole batch of Monte-Carlo queries on `g` — one
    /// independent tester instance per seed — through a single pass on
    /// one engine.
    ///
    /// The Stage-I partition and the seed-independent Stage-II prefix
    /// (BFS trees, counting, embedding, label distribution/exchange)
    /// run **once**; every instance is credited their full round cost.
    /// Only the seed-dependent Stage-II sample streams run per seed,
    /// back to back on the same engine. Each returned [`TestOutcome`] —
    /// verdict, witnesses *and* statistics — is bit-for-bit identical to
    /// what [`PlanarityTester::run`] with that seed produces; only the
    /// wall-clock collapses.
    ///
    /// # Errors
    ///
    /// Infrastructure errors only; fails fast if any instance errs
    /// (e.g. a `1/poly(n)` sample overflow — rerun with other seeds).
    pub fn run_many(&self, g: &Graph, seeds: &[u64]) -> Result<Vec<TestOutcome>, CoreError> {
        if seeds.is_empty() {
            return Ok(Vec::new());
        }
        let mut engine = Engine::new(g, self.sim);
        // Stage I is deterministic and seed-independent: one run serves
        // the whole batch, each instance paying its cost in full.
        let partition = partition::run_partition(&mut engine, &self.cfg)?;
        let stage1_stats = *engine.stats();
        let stage1_rejections: Vec<(NodeId, RejectReason)> = partition
            .rejected
            .iter()
            .map(|&v| (v, RejectReason::ArboricityEvidence))
            .collect();
        if !stage1_rejections.is_empty() {
            // Stage II never runs: every instance observes the same
            // Stage-I evidence.
            return Ok(seeds
                .iter()
                .map(|_| TestOutcome {
                    rejections: stage1_rejections.clone(),
                    stats: stage1_stats,
                    phases: partition.phases.clone(),
                    parts: Vec::new(),
                    violation_witnesses: Vec::new(),
                })
                .collect());
        }
        let batch = stage2::run_stage2_many(&mut engine, &self.cfg, seeds, &partition.state)?;
        Ok(batch
            .outcomes
            .into_iter()
            .zip(batch.stats)
            .map(|(s2, s2_stats)| {
                let mut stats = stage1_stats;
                stats.merge(&s2_stats);
                TestOutcome {
                    rejections: s2.rejections,
                    stats,
                    phases: partition.phases.clone(),
                    parts: s2.parts,
                    violation_witnesses: s2.violation_witnesses,
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmbeddingMode;
    use planartest_graph::generators::{nonplanar, planar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_cfg(eps: f64) -> TesterConfig {
        // Modest phase count keeps unit tests fast; integration tests
        // exercise the derived default.
        TesterConfig::new(eps).with_phases(6)
    }

    #[test]
    fn completeness_on_planar_families() {
        let mut rng = StdRng::seed_from_u64(3);
        let graphs = vec![
            planar::grid(6, 6).graph,
            planar::triangulated_grid(5, 6).graph,
            planar::apollonian(50, &mut rng).graph,
            planar::random_planar(60, 0.6, &mut rng).graph,
            planar::random_tree(64, &mut rng).graph,
            planar::cycle(30).graph,
        ];
        for g in graphs {
            let out = PlanarityTester::new(quick_cfg(0.15)).run(&g).unwrap();
            assert!(
                out.accepted(),
                "planar graph rejected: {:?}",
                out.rejections
            );
            assert!(out.rounds() > 0);
        }
    }

    #[test]
    fn soundness_on_k5_chain() {
        let far = nonplanar::k5_chain(10);
        let out = PlanarityTester::new(quick_cfg(0.05))
            .run(&far.graph)
            .unwrap();
        assert!(!out.accepted());
    }

    #[test]
    fn paper_mode_rejects_far_graphs_via_violations() {
        let far = nonplanar::complete_bipartite(3, 3);
        let cfg = quick_cfg(0.1).with_embedding(EmbeddingMode::Demoucron);
        let out = PlanarityTester::new(cfg).run(&far.graph).unwrap();
        assert!(!out.accepted());
        assert!(!out.violation_witnesses.is_empty());
    }

    #[test]
    fn soundness_on_planar_plus_chords() {
        let mut rng = StdRng::seed_from_u64(4);
        let far = nonplanar::planar_plus_chords(80, 60, &mut rng);
        let out = PlanarityTester::new(quick_cfg(0.1))
            .run(&far.graph)
            .unwrap();
        assert!(!out.accepted(), "{:?}", far.name);
    }

    #[test]
    fn dense_graph_rejected_in_stage1_or_2() {
        let far = nonplanar::complete(16);
        let out = PlanarityTester::new(quick_cfg(0.1))
            .run(&far.graph)
            .unwrap();
        assert!(!out.accepted());
        assert!(out
            .rejections
            .iter()
            .any(|&(_, r)| r == RejectReason::ArboricityEvidence));
    }

    #[test]
    fn hint_mode_accepts_planar() {
        let mut rng = StdRng::seed_from_u64(5);
        let (c, faces) = planar::apollonian_with_faces(80, &mut rng);
        let faces: Vec<Vec<usize>> = faces.iter().map(|f| f.to_vec()).collect();
        let rot = planartest_embed::hints::rotation_from_faces(&c.graph, &faces).unwrap();
        let cfg = quick_cfg(0.15).with_embedding(EmbeddingMode::Hint(rot));
        let out = PlanarityTester::new(cfg).run(&c.graph).unwrap();
        assert!(out.accepted(), "{:?}", out.rejections);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = planar::grid(5, 5).graph;
        let a = PlanarityTester::new(quick_cfg(0.2)).run(&g).unwrap();
        let b = PlanarityTester::new(quick_cfg(0.2)).run(&g).unwrap();
        assert_eq!(a.rounds(), b.rounds());
        assert_eq!(a.stats.messages, b.stats.messages);
    }

    #[test]
    fn parallel_backend_matches_serial() {
        // `with_backend` is a compatibility no-op: naming the retired
        // worker pool must not change a single bit of the outcome.
        let mut rng = StdRng::seed_from_u64(9);
        let graphs = vec![
            planar::triangulated_grid(6, 6).graph,
            nonplanar::k5_chain(6).graph,
            planar::random_planar(50, 0.7, &mut rng).graph,
        ];
        for g in graphs {
            let serial = PlanarityTester::new(quick_cfg(0.1)).run(&g).unwrap();
            for threads in [2, 4] {
                let par = PlanarityTester::new(quick_cfg(0.1))
                    .with_backend(Backend::Parallel { threads })
                    .run(&g)
                    .unwrap();
                assert_eq!(par.rejections, serial.rejections, "threads={threads}");
                assert_eq!(par.stats, serial.stats, "threads={threads}");
                assert_eq!(par.violation_witnesses, serial.violation_witnesses);
            }
        }
    }

    #[test]
    fn run_many_matches_sequential_runs() {
        // Batched Monte-Carlo service must be bit-for-bit the sequential
        // per-seed runs: verdicts, witnesses, per-part sample counts and
        // the full statistics ledger.
        let mut rng = StdRng::seed_from_u64(7);
        let graphs = vec![
            planar::triangulated_grid(6, 6).graph,
            planar::random_planar(50, 0.7, &mut rng).graph,
            nonplanar::k5_chain(6).graph,
        ];
        let seeds: Vec<u64> = (0..5).collect();
        for g in &graphs {
            let batched = PlanarityTester::new(quick_cfg(0.1))
                .run_many(g, &seeds)
                .unwrap();
            assert_eq!(batched.len(), seeds.len());
            for (&seed, out) in seeds.iter().zip(&batched) {
                let solo = PlanarityTester::new(quick_cfg(0.1).with_seed(seed))
                    .run(g)
                    .unwrap();
                assert_eq!(out.rejections, solo.rejections, "seed {seed}");
                assert_eq!(out.stats, solo.stats, "seed {seed}");
                assert_eq!(
                    out.violation_witnesses, solo.violation_witnesses,
                    "seed {seed}"
                );
                let sampled: Vec<usize> = out.parts.iter().map(|p| p.sampled).collect();
                let solo_sampled: Vec<usize> = solo.parts.iter().map(|p| p.sampled).collect();
                assert_eq!(sampled, solo_sampled, "seed {seed}");
            }
        }
    }

    #[test]
    fn run_many_matches_sequential_in_paper_mode() {
        // In the paper-faithful mode the verdict itself depends on the
        // seed (violating edges reject), so per-instance divergence is
        // observable — the batch must reproduce it exactly.
        let far = nonplanar::complete_bipartite(3, 3);
        let seeds: Vec<u64> = (0..6).collect();
        let cfg = quick_cfg(0.1).with_embedding(EmbeddingMode::Demoucron);
        let batched = PlanarityTester::new(cfg.clone())
            .run_many(&far.graph, &seeds)
            .unwrap();
        for (&seed, out) in seeds.iter().zip(&batched) {
            let solo = PlanarityTester::new(cfg.clone().with_seed(seed))
                .run(&far.graph)
                .unwrap();
            assert_eq!(out.rejections, solo.rejections, "seed {seed}");
            assert_eq!(out.stats, solo.stats, "seed {seed}");
        }
    }

    #[test]
    fn run_many_on_stage1_rejection_and_empty_seeds() {
        let far = nonplanar::complete(16);
        let tester = PlanarityTester::new(quick_cfg(0.1));
        assert!(tester.run_many(&far.graph, &[]).unwrap().is_empty());
        let outs = tester.run_many(&far.graph, &[1, 2, 3]).unwrap();
        let solo = tester.run(&far.graph).unwrap();
        for out in &outs {
            // Stage I rejects before any sampling: seeds are irrelevant.
            assert_eq!(out.rejections, solo.rejections);
            assert_eq!(out.stats, solo.stats);
        }
    }

    #[test]
    fn outcome_accessors() {
        let g = planar::path(8).graph;
        let out = PlanarityTester::new(quick_cfg(0.3)).run(&g).unwrap();
        assert!(out.accepted());
        assert!(!out.phases.is_empty() || g.m() == 0);
        assert_eq!(
            RejectReason::ViolatingEdge.to_string(),
            "violating non-tree edge"
        );
    }
}
