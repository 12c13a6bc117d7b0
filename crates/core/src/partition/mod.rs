//! Stage I: the deterministic partition algorithm (§2.1 of the paper) and
//! its randomized minor-free variant (§4, Theorem 4).
//!
//! Each *phase* coarsens the current partition: a Barenboim–Elkin forest
//! decomposition step bounds the arboricity of the contracted auxiliary
//! graph `G_i` (rejecting on evidence of arboricity > α), then the
//! Czygrinow–Hańćkowiak–Wawrzyniak merging step contracts a constant
//! fraction of the remaining inter-part weight (Claim 1).
//!
//! ## Simulation fidelity
//!
//! The dominant-cost protocols run **message-level** on the CONGEST
//! engine: per-phase neighbour-root exchange, and per-super-round status
//! broadcasts, boundary exchanges and capped census convergecasts (the
//! `Θ(log n · D_i)` term), as well as the designated-edge election of the
//! merging step. The part-level bookkeeping of the merging step
//! (Cole–Vishkin colouring of `F_i`, marking, subtree levelling and the
//! contraction surgery of Lemma 6) is computed from root-local knowledge
//! and *charged* rounds according to the paper's own cost accounting
//! (`O(1)` `F_i`-hops, each `2·depth + 2` rounds) — see `DESIGN.md` §3.

pub(crate) mod aux;
mod forest;
mod merge;
pub mod randomized;

use planartest_graph::{Graph, NodeId};
use planartest_sim::tree::TreeTopology;
use planartest_sim::Engine;
use planartest_sim::Msg;

use crate::comm;
use crate::config::TesterConfig;
use crate::error::CoreError;

/// Per-node partition knowledge (Lemma 6): every node knows its part's
/// root id and its parent/children within the part's spanning tree.
#[derive(Debug, Clone)]
pub struct PartitionState {
    /// Part root id known at each node.
    pub root: Vec<NodeId>,
    /// Spanning-tree parent (`None` iff the node is its part's root).
    pub parent: Vec<Option<NodeId>>,
}

impl PartitionState {
    /// The singleton partition (each node its own part).
    pub fn singletons(g: &Graph) -> Self {
        PartitionState {
            root: g.nodes().collect(),
            parent: vec![None; g.n()],
        }
    }

    /// Builds the (validated) tree topology of the current partition.
    ///
    /// # Panics
    ///
    /// Panics if the parent pointers are not a valid forest — that would
    /// be a violation of the Lemma 6 invariant, i.e. a bug.
    pub fn tree(&self, g: &Graph) -> TreeTopology {
        TreeTopology::from_parents(g, self.parent.clone())
            .expect("partition spanning trees must remain a valid forest (Lemma 6)")
    }

    /// Number of distinct parts.
    pub fn part_count(&self) -> usize {
        let mut roots: Vec<u32> = self.root.iter().map(|r| r.raw()).collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    }

    /// Total weight (edge count) of the cut between parts.
    pub fn cut_weight(&self, g: &Graph) -> u64 {
        g.edges()
            .filter(|&(u, v)| self.root[u.index()] != self.root[v.index()])
            .count() as u64
    }

    /// Maximum spanning-tree depth over all parts (a proxy for part
    /// diameter the algorithm itself maintains; the true diameter is at
    /// most twice this).
    pub fn max_depth(&self, g: &Graph) -> u32 {
        self.tree(g).height()
    }

    /// Members of each part, keyed by root raw id.
    pub fn members_by_root(&self) -> std::collections::HashMap<u32, Vec<NodeId>> {
        let mut map: std::collections::HashMap<u32, Vec<NodeId>> = std::collections::HashMap::new();
        for (v, r) in self.root.iter().enumerate() {
            map.entry(r.raw()).or_default().push(NodeId::new(v));
        }
        map
    }
}

/// Metrics recorded after each phase (inputs to experiments E4/E5/E8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseMetrics {
    /// Phase index (1-based).
    pub phase: usize,
    /// Inter-part edge weight after the phase.
    pub cut_weight: u64,
    /// Number of parts after the phase.
    pub parts: usize,
    /// Maximum spanning-tree depth after the phase.
    pub max_depth: u32,
    /// Super-rounds the peeling actually used (0 for the randomized
    /// variant).
    pub peel_super_rounds: u32,
}

/// Outcome of Stage I.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Final per-node state.
    pub state: PartitionState,
    /// Nodes that outputs `reject` during Stage I (arboricity evidence).
    /// Non-empty only when the graph's contracted minors exceeded
    /// arboricity α — impossible for planar inputs (Claim 3).
    pub rejected: Vec<NodeId>,
    /// Per-phase metrics.
    pub phases: Vec<PhaseMetrics>,
}

impl Partition {
    /// Whether Stage I completed successfully (Definition 2).
    pub fn completed_successfully(&self) -> bool {
        self.rejected.is_empty()
    }
}

/// Runs the deterministic Stage I partition on `engine`'s graph.
///
/// If the graph is planar this always completes successfully; otherwise
/// some node may reject with arboricity evidence (Claim 3). Rounds and
/// messages accrue on `engine`.
///
/// # Errors
///
/// Returns infrastructure errors only; rejection is reported in the
/// returned [`Partition`].
pub fn run_partition(engine: &mut Engine<'_>, cfg: &TesterConfig) -> Result<Partition, CoreError> {
    let g = engine.graph();
    let mut state = PartitionState::singletons(g);
    let mut rejected: Vec<NodeId> = Vec::new();
    let mut phases = Vec::new();
    let t = cfg.phases(g.n());

    for phase in 1..=t {
        let tree = state.tree(g);

        // Every node learns its neighbours' current part roots (1 round).
        let neighbor_roots = exchange_roots(engine, &state, cfg.max_rounds)?;
        if !has_boundary(&state, &neighbor_roots) {
            // Every part is already isolated: all remaining phases are
            // status-only no-ops. Charge their cost and stop.
            let per_phase = 2 * (tree.height() as u64) + 4;
            engine.charge_rounds((t - phase + 1) as u64 * per_phase);
            break;
        }

        // Forest-decomposition step (message-level super-rounds).
        let peel = forest::run_forest_decomposition(engine, cfg, &state, &tree, &neighbor_roots)?;
        rejected.extend(peel.rejected.iter().copied());
        if !peel.rejected.is_empty() {
            // Stage I failed (Definition 2): stop partitioning; the
            // rejection verdict stands regardless of the partition.
            phases.push(PhaseMetrics {
                phase,
                cut_weight: state.cut_weight(g),
                parts: state.part_count(),
                max_depth: state.max_depth(g),
                peel_super_rounds: peel.super_rounds_used,
            });
            break;
        }

        // Merging step: heaviest out-edge selection, CHW marking and star
        // contraction.
        merge::run_merge(
            engine,
            cfg,
            &mut state,
            &peel,
            &neighbor_roots,
            merge::Selection::Heaviest,
        )?;

        phases.push(PhaseMetrics {
            phase,
            cut_weight: state.cut_weight(g),
            parts: state.part_count(),
            max_depth: state.max_depth(g),
            peel_super_rounds: peel.super_rounds_used,
        });
    }

    rejected.sort_unstable();
    rejected.dedup();
    Ok(Partition {
        state,
        rejected,
        phases,
    })
}

/// One exchange round: every node learns `(neighbour, neighbour's root)`.
pub(crate) fn exchange_roots(
    engine: &mut Engine<'_>,
    state: &PartitionState,
    max_rounds: u64,
) -> Result<Vec<Vec<(NodeId, u32)>>, CoreError> {
    let roots = state.root.clone();
    let received = comm::exchange(
        engine,
        move |v, _| Some(Msg::words(&[roots[v.index()].raw() as u64])),
        max_rounds,
    )?;
    Ok(received
        .into_iter()
        .map(|msgs| {
            msgs.into_iter()
                .map(|(from, m)| (from, m.word(0) as u32))
                .collect()
        })
        .collect())
}

fn has_boundary(state: &PartitionState, neighbor_roots: &[Vec<(NodeId, u32)>]) -> bool {
    neighbor_roots
        .iter()
        .enumerate()
        .any(|(v, ns)| ns.iter().any(|&(_, r)| r != state.root[v].raw()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use planartest_graph::generators::planar;
    use planartest_sim::SimConfig;

    #[test]
    fn singleton_state() {
        let g = planar::path(4).graph;
        let s = PartitionState::singletons(&g);
        assert_eq!(s.part_count(), 4);
        assert_eq!(s.cut_weight(&g), 3);
        assert_eq!(s.max_depth(&g), 0);
        assert_eq!(s.members_by_root().len(), 4);
    }

    #[test]
    fn partition_on_planar_grid_completes() {
        let c = planar::grid(6, 6);
        let cfg = TesterConfig::new(0.3).with_phases(6);
        let mut engine = Engine::new(&c.graph, SimConfig::default());
        let p = run_partition(&mut engine, &cfg).unwrap();
        assert!(p.completed_successfully());
        // Parts are connected: every node's tree root matches its claimed
        // root.
        let tree = p.state.tree(&c.graph);
        for v in c.graph.nodes() {
            assert_eq!(tree.root_of(v), p.state.root[v.index()]);
        }
        // Weight decreases phase over phase (Claim 1 direction).
        for w in p.phases.windows(2) {
            assert!(w[1].cut_weight <= w[0].cut_weight);
        }
    }

    #[test]
    fn partition_merges_a_path_completely() {
        let c = planar::path(32);
        let cfg = TesterConfig::new(0.1).with_phases(12);
        let mut engine = Engine::new(&c.graph, SimConfig::default());
        let p = run_partition(&mut engine, &cfg).unwrap();
        assert!(p.completed_successfully());
        let last = p.phases.last().unwrap();
        assert_eq!(
            last.cut_weight, 0,
            "a path should fully merge: {:?}",
            p.phases
        );
        assert_eq!(p.state.part_count(), 1);
    }

    #[test]
    fn phase_metrics_depth_bounded_by_4_pow_i() {
        let c = planar::triangulated_grid(7, 7);
        let cfg = TesterConfig::new(0.2).with_phases(5);
        let mut engine = Engine::new(&c.graph, SimConfig::default());
        let p = run_partition(&mut engine, &cfg).unwrap();
        for m in &p.phases {
            // Claim 4: diameter of parts after phase i is < 4^{i+1}; tree
            // depth is a lower bound for diameter so this is implied.
            assert!(
                (m.max_depth as u64) < 4u64.pow(m.phase as u32 + 1),
                "phase {} depth {}",
                m.phase,
                m.max_depth
            );
        }
    }
}
