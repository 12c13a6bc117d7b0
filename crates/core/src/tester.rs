//! The full planarity tester (Theorem 1): Stage I then Stage II.

use std::mem::size_of;

use planartest_graph::{Graph, NodeId};
use planartest_sim::{Backend, Engine, SimConfig, SimStats};

use crate::config::TesterConfig;
use crate::error::CoreError;
use crate::partition::{self, PhaseMetrics};
use crate::stage2::{PartReport, Stage2Prefix};

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
    /// strict mode; rejection evidence only in the paper-faithful mode —
    /// see the Claim 10 refutation in `tests/claim10_refutation.rs`).
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
    /// independent tester instance per seed — through one pass:
    /// [`prepare`](Self::prepare), then [`Prepared::sample`].
    ///
    /// The Stage-I partition and the seed-independent Stage-II prefix
    /// (BFS trees, counting, embedding, label distribution/exchange)
    /// run **once**; every instance is credited their full round cost.
    /// Only the seed-dependent Stage-II sample streams run per seed.
    /// Each returned [`TestOutcome`] — verdict, witnesses *and*
    /// statistics — is bit-for-bit identical to what
    /// [`PlanarityTester::run`] with that seed produces; only the
    /// wall-clock collapses. Nothing is memoised across calls.
    ///
    /// # Errors
    ///
    /// Infrastructure errors only; fails fast if any instance errs
    /// (e.g. a `1/poly(n)` sample overflow — rerun with other seeds).
    pub fn run_many(&self, g: &Graph, seeds: &[u64]) -> Result<Vec<TestOutcome>, CoreError> {
        if seeds.is_empty() {
            return Ok(Vec::new());
        }
        self.prepare(g)?.sample(g, seeds)
    }

    /// Runs everything of a pass on `g` that does not read the seed:
    /// Stage I and Stage II's steps 1–5. The result serves any number
    /// of [`Prepared::sample`] calls on `g`.
    ///
    /// # Errors
    ///
    /// Infrastructure errors only (model violations).
    pub fn prepare(&self, g: &Graph) -> Result<Prepared, CoreError> {
        let mut engine = Engine::new(g, self.sim);
        // Stage I is deterministic and seed-independent.
        let partition = partition::run_partition(&mut engine, &self.cfg)?;
        let stage1_stats = *engine.stats();
        let stage1_rejections: Vec<(NodeId, RejectReason)> = partition
            .rejected
            .iter()
            .map(|&v| (v, RejectReason::ArboricityEvidence))
            .collect();
        // Stage II never runs after a Stage-I reject.
        let stage2 = if stage1_rejections.is_empty() {
            Some(Stage2Prefix::prepare(
                &mut engine,
                &self.cfg,
                &partition.state,
            )?)
        } else {
            None
        };
        Ok(Prepared {
            n: g.n(),
            m: g.m(),
            phases: partition.phases,
            stage1_stats,
            stage1_rejections,
            stage2,
        })
    }
}

/// The seed-independent part of a tester pass on one graph under one
/// configuration: Stage I (§2.1) and Stage II's steps 1–5 (§2.2). Only
/// step 6 — the sample of non-tree edges — reads the seed, so one
/// `Prepared` serves any number of [`sample`](Self::sample) calls, in
/// any order, each seed credited the full shared cost. It keeps what
/// step 6 reads of its configuration, borrows no graph and is
/// `Send + Sync`, so a server can keep it per `(graph, config)`.
#[derive(Debug)]
pub struct Prepared {
    /// The prepared graph's size, checked by `sample`.
    n: usize,
    m: usize,
    phases: Vec<PhaseMetrics>,
    stage1_stats: SimStats,
    stage1_rejections: Vec<(NodeId, RejectReason)>,
    /// Stage II's prefix; `None` after a Stage-I reject.
    stage2: Option<Stage2Prefix>,
}

impl Prepared {
    /// Runs Stage II's step 6 for each seed over `g`, the graph this was
    /// prepared on. No engine runs, and a seed pays only for the parts
    /// whose sample it changes: their sample streams are costed in
    /// closed form and their Definition-7 checks ask an index of the
    /// sample's label ranks, while the parts that keep every edge were
    /// drawn, costed and checked once by [`PlanarityTester::prepare`]
    /// (debug builds also run the whole step on a scratch engine as the
    /// oracle). Each outcome is bit-for-bit what
    /// [`PlanarityTester::run`] with that seed produces. After a Stage-I
    /// reject every seed gets that reject.
    ///
    /// # Errors
    ///
    /// Infrastructure errors only; fails fast if any instance errs
    /// (e.g. a `1/poly(n)` sample overflow — rerun with other seeds).
    ///
    /// # Panics
    ///
    /// If `g`'s node or edge count differs from the prepared graph's.
    pub fn sample(&self, g: &Graph, seeds: &[u64]) -> Result<Vec<TestOutcome>, CoreError> {
        assert_eq!(
            (g.n(), g.m()),
            (self.n, self.m),
            "Prepared::sample needs the graph it was prepared on"
        );
        let Some(stage2) = &self.stage2 else {
            // Every instance observes the same Stage-I evidence.
            return Ok(seeds
                .iter()
                .map(|_| TestOutcome {
                    rejections: self.stage1_rejections.clone(),
                    stats: self.stage1_stats,
                    phases: self.phases.clone(),
                    parts: Vec::new(),
                    violation_witnesses: Vec::new(),
                })
                .collect());
        };
        let batch = stage2.sample(g, seeds)?;
        Ok(batch
            .outcomes
            .into_iter()
            .zip(batch.stats)
            .map(|(s2, s2_stats)| {
                let mut stats = self.stage1_stats;
                stats.merge(&s2_stats);
                TestOutcome {
                    rejections: s2.rejections,
                    stats,
                    phases: self.phases.clone(),
                    parts: s2.parts,
                    violation_witnesses: s2.violation_witnesses,
                }
            })
            .collect())
    }

    /// Heap bytes held in a release build: the phase metrics and
    /// rejections, the part reports, and step 6's seed-free tables (the
    /// drawn parts' BFS orders, members and intervals, and the fully
    /// sampled parts' witnesses). Debug builds also keep the
    /// message-level oracle's node-indexed labels, edges and trees,
    /// which this does not count, so every profile reports the same.
    pub fn heap_bytes(&self) -> usize {
        self.phases.capacity() * size_of::<PhaseMetrics>()
            + self.stage1_rejections.capacity() * size_of::<(NodeId, RejectReason)>()
            + self.stage2.as_ref().map_or(0, Stage2Prefix::heap_bytes)
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
    fn a_prepared_tester_holds_at_most_233_bytes_per_node() {
        // The memo's entry size: tri_grid(40,40) at 10 phases held 202.8
        // bytes per node before step 6's seed-free tables, which may add
        // at most 15%. `tests/prepared_heap.rs` pins today's, far lower,
        // sizes on three graphs.
        let g = planar::triangulated_grid(40, 40).graph;
        let cfg = TesterConfig::new(0.1).with_phases(10);
        let prepared = PlanarityTester::new(cfg).prepare(&g).unwrap();
        let per_node = prepared.heap_bytes() as f64 / g.n() as f64;
        assert!(per_node <= 233.0, "{per_node} bytes per node");
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
        let cfg = quick_cfg(0.1).with_embedding(EmbeddingMode::Paper);
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
        let cfg = quick_cfg(0.1).with_embedding(EmbeddingMode::Paper);
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
