//! Spanner construction for minor-free graphs (Corollary 17).
//!
//! The spanner is the union of every part's spanning tree with *all*
//! inter-part edges. Minor-free graphs have `O(n)` edges and the partition
//! cuts at most `ε·n` of them, so the spanner has `(1 + O(ε))·n` edges;
//! within a part any edge is detoured through the tree, so the stretch is
//! bounded by twice the part diameter = `poly(1/ε)`.

use planartest_graph::{EdgeId, Graph};
use planartest_sim::Engine;

use crate::config::TesterConfig;
use crate::error::CoreError;
use crate::partition::run_partition;

/// A constructed spanner.
#[derive(Debug, Clone)]
pub struct Spanner {
    /// The selected edges.
    pub edges: Vec<EdgeId>,
    /// Edges that are part spanning-tree edges.
    pub tree_edges: usize,
    /// Edges crossing between parts.
    pub cut_edges: usize,
}

impl Spanner {
    /// Spanner size relative to `n` (Corollary 17 bounds it by
    /// `1 + O(ε)`).
    pub fn size_ratio(&self, g: &Graph) -> f64 {
        self.edges.len() as f64 / g.n().max(1) as f64
    }

    /// Exact maximum multiplicative stretch over all graph edges
    /// (oracle-style check: BFS in the spanner per edge endpoint).
    pub fn max_stretch(&self, g: &Graph) -> f64 {
        let keep: std::collections::HashSet<u32> = self.edges.iter().map(|e| e.raw()).collect();
        let (sub, _) = g.edge_subgraph(|e| keep.contains(&e.raw()));
        let mut worst = 1.0f64;
        for (u, v) in g.edges() {
            let d = planartest_graph::algo::bfs::distances(&sub, u)[v.index()]
                .expect("spanners preserve connectivity");
            worst = worst.max(d as f64);
        }
        worst
    }
}

/// Builds the Corollary 17 spanner on `engine`'s graph.
///
/// # Errors
///
/// Infrastructure errors only.
pub fn build_spanner(engine: &mut Engine<'_>, cfg: &TesterConfig) -> Result<Spanner, CoreError> {
    let partition = run_partition(engine, cfg)?;
    let g = engine.graph();
    let state = &partition.state;
    let mut edges = Vec::new();
    let mut tree_edges = 0;
    let mut cut_edges = 0;
    for e in g.edge_ids() {
        let (u, v) = g.endpoints(e);
        if state.root[u.index()] != state.root[v.index()] {
            edges.push(e);
            cut_edges += 1;
        } else if state.parent[u.index()] == Some(v) || state.parent[v.index()] == Some(u) {
            edges.push(e);
            tree_edges += 1;
        }
    }
    Ok(Spanner {
        edges,
        tree_edges,
        cut_edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use planartest_graph::generators::planar;
    use planartest_sim::SimConfig;

    #[test]
    fn spanner_on_grid_is_sparse_and_bounded() {
        let g = planar::triangulated_grid(8, 8).graph;
        let cfg = TesterConfig::new(0.25).with_phases(6);
        let mut engine = Engine::new(&g, SimConfig::default());
        let sp = build_spanner(&mut engine, &cfg).unwrap();
        assert_eq!(sp.edges.len(), sp.tree_edges + sp.cut_edges);
        assert!(sp.edges.len() < g.m());
        // Size: trees have n - k edges, plus the cut.
        assert!(sp.size_ratio(&g) <= 2.0, "ratio {}", sp.size_ratio(&g));
        // Stretch is finite and bounded by twice the max part diameter.
        let stretch = sp.max_stretch(&g);
        assert!(stretch >= 1.0);
        assert!(stretch < g.n() as f64);
    }

    #[test]
    fn spanner_of_tree_is_whole_tree() {
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(7)
        };
        let g = planar::random_tree(40, &mut rng).graph;
        let cfg = TesterConfig::new(0.3).with_phases(6);
        let mut engine = Engine::new(&g, SimConfig::default());
        let sp = build_spanner(&mut engine, &cfg).unwrap();
        assert_eq!(sp.edges.len(), g.m(), "a tree is its own unique spanner");
        assert_eq!(sp.max_stretch(&g), 1.0);
    }
}
