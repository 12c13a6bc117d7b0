//! Cycle-freeness and bipartiteness testers on minor-free graphs
//! (Corollary 16).

use planartest_graph::NodeId;
use planartest_sim::bfs::distributed_bfs;
use planartest_sim::Engine;
use planartest_sim::Msg;

use crate::comm;
use crate::config::TesterConfig;
use crate::error::CoreError;
use crate::partition::{run_partition, PartitionState};

/// Outcome of a hereditary-property test.
#[derive(Debug, Clone)]
pub struct HereditaryOutcome {
    /// Nodes that rejected (each holds a witness edge).
    pub rejecting: Vec<NodeId>,
    /// Number of parts in the partition used.
    pub parts: usize,
}

impl HereditaryOutcome {
    /// Whether every node accepted.
    pub fn accepted(&self) -> bool {
        self.rejecting.is_empty()
    }
}

/// Which witness a non-tree edge must exhibit to reject.
enum Witness {
    AnyNonTreeEdge,
    OddCycle,
}

fn run_hereditary(
    engine: &mut Engine<'_>,
    cfg: &TesterConfig,
    witness: Witness,
) -> Result<HereditaryOutcome, CoreError> {
    let partition = run_partition(engine, cfg)?;
    // Under the minor-free promise Stage I cannot reject; if it does (no
    // promise held), any arboricity evidence also witnesses a cycle.
    let mut rejecting: Vec<NodeId> = partition.rejected.clone();
    let state = &partition.state;
    rejecting.extend(detect_in_parts(engine, cfg, state, witness)?);
    rejecting.sort_unstable();
    rejecting.dedup();
    Ok(HereditaryOutcome {
        rejecting,
        parts: state.part_count(),
    })
}

fn detect_in_parts(
    engine: &mut Engine<'_>,
    cfg: &TesterConfig,
    state: &PartitionState,
    witness: Witness,
) -> Result<Vec<NodeId>, CoreError> {
    let g = engine.graph();
    let roots: Vec<NodeId> = g.nodes().filter(|&v| state.root[v.index()] == v).collect();
    let part_root = state.root.clone();
    let bfs = distributed_bfs(
        engine,
        &roots,
        move |v, r| part_root[v.index()] == r,
        cfg.max_rounds,
    )?;
    // One exchange round: each node learns neighbour BFS levels.
    let levels: Vec<u64> = (0..g.n())
        .map(|v| bfs.level[v].expect("parts connected") as u64)
        .collect();
    let lv = levels.clone();
    let got = comm::exchange(
        engine,
        move |v, _| Some(Msg::words(&[lv[v.index()]])),
        cfg.max_rounds,
    )?;
    let mut rejecting = Vec::new();
    for v in g.nodes() {
        for &(w, _) in g.neighbors(v) {
            if state.root[v.index()] != state.root[w.index()] {
                continue;
            }
            if bfs.parent[v.index()] == Some(w) || bfs.parent[w.index()] == Some(v) {
                continue;
            }
            // Non-tree edge within the part.
            let w_level = got[v.index()]
                .iter()
                .find(|&&(x, _)| x == w)
                .map(|(_, m)| m.word(0))
                .expect("level exchanged");
            let reject = match witness {
                Witness::AnyNonTreeEdge => true,
                Witness::OddCycle => (levels[v.index()] % 2) == (w_level % 2),
            };
            if reject {
                rejecting.push(v);
                break;
            }
        }
    }
    Ok(rejecting)
}

/// Distributed cycle-freeness tester for minor-free graphs
/// (Corollary 16): accepts forests, rejects graphs `ε`-far from
/// cycle-free (their parts must contain non-tree edges).
///
/// # Errors
///
/// Infrastructure errors only.
pub fn test_cycle_freeness(
    engine: &mut Engine<'_>,
    cfg: &TesterConfig,
) -> Result<HereditaryOutcome, CoreError> {
    run_hereditary(engine, cfg, Witness::AnyNonTreeEdge)
}

/// Distributed bipartiteness tester for minor-free graphs (Corollary 16):
/// accepts bipartite graphs, rejects when some part contains an odd cycle
/// (witnessed by a non-tree edge closing equal BFS parities).
///
/// # Errors
///
/// Infrastructure errors only.
pub fn test_bipartiteness(
    engine: &mut Engine<'_>,
    cfg: &TesterConfig,
) -> Result<HereditaryOutcome, CoreError> {
    run_hereditary(engine, cfg, Witness::OddCycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use planartest_graph::generators::planar;
    use planartest_sim::SimConfig;

    fn cfg() -> TesterConfig {
        TesterConfig::new(0.2).with_phases(5)
    }

    #[test]
    fn forest_accepted_cycle_rejected() {
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(1)
        };
        let tree = planar::random_tree(50, &mut rng).graph;
        let mut engine = Engine::new(&tree, SimConfig::default());
        assert!(test_cycle_freeness(&mut engine, &cfg()).unwrap().accepted());

        // A single cycle is only 1/m-far from cycle-free, so the tester
        // may accept it when the partition cuts it into path parts; a
        // genuinely far graph must be rejected (grid_cycles_detected).
        let cyc = planar::cycle(24).graph;
        let mut engine = Engine::new(&cyc, SimConfig::default());
        let _ = test_cycle_freeness(&mut engine, &cfg()).unwrap();
    }

    #[test]
    fn grid_cycles_detected() {
        let g = planar::grid(6, 6).graph;
        let mut engine = Engine::new(&g, SimConfig::default());
        assert!(!test_cycle_freeness(&mut engine, &cfg()).unwrap().accepted());
    }

    #[test]
    fn bipartite_grid_accepted() {
        let g = planar::grid(7, 5).graph;
        let mut engine = Engine::new(&g, SimConfig::default());
        let out = test_bipartiteness(&mut engine, &cfg()).unwrap();
        assert!(out.accepted(), "grids are bipartite: {:?}", out.rejecting);
    }

    #[test]
    fn odd_cycles_rejected() {
        // Triangulated grid is full of triangles.
        let g = planar::triangulated_grid(5, 5).graph;
        let mut engine = Engine::new(&g, SimConfig::default());
        assert!(!test_bipartiteness(&mut engine, &cfg()).unwrap().accepted());
    }

    #[test]
    fn even_cycle_bipartite_accepted() {
        let g = planar::cycle(16).graph;
        let mut engine = Engine::new(&g, SimConfig::default());
        assert!(test_bipartiteness(&mut engine, &cfg()).unwrap().accepted());
    }
}
