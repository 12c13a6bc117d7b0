//! Random-shift clustering (Miller–Peng–Xu style, as adapted by [13, 14]
//! from Elkin–Neiman [12]): every node draws an exponential shift, and
//! joins the cluster of the node maximising `shift − distance`. With rate
//! `β = Θ(ε)` the clusters have radius `O(log(n)/ε)` w.h.p. and at most
//! `ε·m` edges are cut in expectation.
//!
//! This is the §1.1 alternative Stage I: it replaces the whole
//! forest-decomposition machinery at the cost of an extra `log n` factor
//! in the round complexity (cluster radii are `Θ(log n/ε)` instead of
//! `poly(1/ε)`), and it is what we benchmark ours against in E11, and the
//! substrate for the E10 spanner baseline.

use planartest_graph::{EdgeId, NodeId};
use planartest_sim::bfs::distributed_bfs;
use planartest_sim::Engine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::CoreError;
use crate::partition::PartitionState;

/// Configuration of the random-shift clustering.
#[derive(Debug, Clone, Copy)]
pub struct RandomShiftConfig {
    /// Exponential rate `β` (≈ the target cut fraction `ε`).
    pub beta: f64,
    /// RNG seed (per-node shifts derived deterministically).
    pub seed: u64,
    /// Engine round budget.
    pub max_rounds: u64,
}

impl RandomShiftConfig {
    /// Creates a configuration for cut parameter `beta`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < beta < 1`.
    pub fn new(beta: f64) -> Self {
        assert!(beta > 0.0 && beta < 1.0, "beta must be in (0,1)");
        RandomShiftConfig {
            beta,
            seed: 0x5EED,
            max_rounds: 100_000_000,
        }
    }
}

/// Runs random-shift clustering; returns the partition state (cluster
/// roots + BFS trees).
///
/// Shift draws are node-local; the cluster-assignment flood is emulated
/// with a staggered multi-root BFS whose rounds are charged as
/// `max_shift + cluster radius` (the wall-clock of the real flood), and
/// the per-cluster BFS trees are built message-level.
///
/// # Errors
///
/// Infrastructure errors only.
pub fn random_shift_partition(
    engine: &mut Engine<'_>,
    cfg: &RandomShiftConfig,
) -> Result<PartitionState, CoreError> {
    let g = engine.graph();
    let n = g.n();
    // Per-node integer shifts ~ geometric (discretised exponential).
    let shifts: Vec<u64> = (0..n)
        .map(|v| {
            let mut rng = shift_rng(cfg.seed, v as u64);
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            (-u.ln() / cfg.beta).floor() as u64
        })
        .collect();
    let max_shift = shifts.iter().copied().max().unwrap_or(0);

    // Cluster assignment: centre(v) maximises shift_u - d(u, v). Computed
    // via a Dijkstra-style sweep on the shifted starts (centralized
    // stand-in for the staggered flood; rounds charged below).
    let mut best: Vec<(i64, u32)> = (0..n).map(|v| (shifts[v] as i64, v as u32)).collect();
    let mut heap: std::collections::BinaryHeap<(i64, u32, u32)> = (0..n as u32)
        .map(|v| (shifts[v as usize] as i64, v, v))
        .collect();
    let mut settled = vec![false; n];
    let mut center = vec![0u32; n];
    while let Some((key, v, c)) = heap.pop() {
        if settled[v as usize] {
            continue;
        }
        settled[v as usize] = true;
        center[v as usize] = c;
        for &(w, _) in g.neighbors(NodeId::from(v)) {
            let wkey = key - 1;
            if !settled[w.index()] && (wkey, c) > best[w.index()] {
                best[w.index()] = (wkey, c);
                heap.push((wkey, w.raw(), c));
            }
        }
    }
    engine.charge_rounds(2 * max_shift + 2);

    // Build per-cluster BFS trees message-level.
    let roots: Vec<NodeId> = (0..n)
        .filter(|&v| center[v] == v as u32)
        .map(NodeId::new)
        .collect();
    let center_c = center.clone();
    let bfs = distributed_bfs(
        engine,
        &roots,
        move |v, r| center_c[v.index()] == r.raw(),
        cfg.max_rounds,
    )?;
    Ok(PartitionState {
        root: center.iter().map(|&c| NodeId::from(c)).collect(),
        parent: bfs.parent,
    })
}

/// Spanner from a random-shift clustering: cluster trees plus all
/// inter-cluster edges (the \[12\]-flavoured baseline for E10).
///
/// # Errors
///
/// Infrastructure errors only.
pub fn shift_spanner(
    engine: &mut Engine<'_>,
    cfg: &RandomShiftConfig,
) -> Result<Vec<EdgeId>, CoreError> {
    let state = random_shift_partition(engine, cfg)?;
    let g = engine.graph();
    let mut edges = Vec::new();
    for e in g.edge_ids() {
        let (u, v) = g.endpoints(e);
        let cut = state.root[u.index()] != state.root[v.index()];
        let tree = state.parent[u.index()] == Some(v) || state.parent[v.index()] == Some(u);
        if cut || tree {
            edges.push(e);
        }
    }
    Ok(edges)
}

fn shift_rng(seed: u64, node: u64) -> StdRng {
    let mut x = seed ^ node.wrapping_mul(0xA0761D6478BD642F);
    x ^= x >> 31;
    x = x.wrapping_mul(0xE7037ED1A0B428DB);
    x ^= x >> 29;
    StdRng::seed_from_u64(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use planartest_graph::generators::planar;
    use planartest_sim::SimConfig;

    #[test]
    fn clustering_covers_graph_with_connected_clusters() {
        let g = planar::grid(10, 10).graph;
        let cfg = RandomShiftConfig::new(0.3);
        let mut engine = Engine::new(&g, SimConfig::default());
        let state = random_shift_partition(&mut engine, &cfg).unwrap();
        // Every node has a centre; trees consistent with membership.
        let tree = state.tree(&g);
        for v in g.nodes() {
            assert_eq!(tree.root_of(v), state.root[v.index()]);
        }
        assert!(state.part_count() >= 1);
        assert!(engine.stats().total_rounds() > 0);
    }

    #[test]
    fn smaller_beta_cuts_fewer_edges() {
        let g = planar::grid(12, 12).graph;
        let cut_at = |beta: f64| {
            let cfg = RandomShiftConfig::new(beta);
            let mut engine = Engine::new(&g, SimConfig::default());
            let state = random_shift_partition(&mut engine, &cfg).unwrap();
            state.cut_weight(&g)
        };
        // Statistical tendency with fixed seeds; chosen to hold here.
        assert!(
            cut_at(0.05) <= cut_at(0.8),
            "low beta should cut fewer edges"
        );
    }

    #[test]
    fn spanner_preserves_connectivity() {
        let g = planar::triangulated_grid(7, 7).graph;
        let cfg = RandomShiftConfig::new(0.3);
        let mut engine = Engine::new(&g, SimConfig::default());
        let edges = shift_spanner(&mut engine, &cfg).unwrap();
        let keep: std::collections::HashSet<u32> = edges.iter().map(|e| e.raw()).collect();
        let (sub, _) = g.edge_subgraph(|e| keep.contains(&e.raw()));
        assert!(planartest_graph::algo::components::is_connected(&sub));
        assert!(edges.len() <= g.m());
    }
}
