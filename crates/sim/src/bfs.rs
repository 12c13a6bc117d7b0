//! Distributed BFS-tree construction (the Stage II preprocessing step).
//!
//! Each root floods `(root, level)` offers; a node joins the first tree it
//! hears from (ties broken by smallest `(root, sender)`), replies to its
//! parent, and propagates offers. A membership filter restricts which
//! offers a node may accept — Stage II uses it to keep each part's BFS
//! inside the part.

use planartest_graph::{Graph, NodeId};

use crate::engine::{Engine, Msg, NodeLogic, Outbox, SimError};
use crate::tree::TreeTopology;

const TAG_OFFER: u64 = 0;
const TAG_ACCEPT: u64 = 1;

/// Result of a distributed multi-root BFS.
#[derive(Debug, Clone)]
pub struct DistBfs {
    /// Root whose tree each node joined (`None` = unreached).
    pub root_of: Vec<Option<NodeId>>,
    /// BFS parent (`None` for roots and unreached nodes).
    pub parent: Vec<Option<NodeId>>,
    /// BFS children (learned through accept messages).
    pub children: Vec<Vec<NodeId>>,
    /// BFS level (`None` = unreached).
    pub level: Vec<Option<u32>>,
}

impl DistBfs {
    /// Converts into a [`TreeTopology`] over the same graph.
    ///
    /// # Errors
    ///
    /// Propagates topology validation errors (cannot occur for trees built
    /// by [`distributed_bfs`]).
    pub fn to_tree(&self, g: &Graph) -> Result<TreeTopology, crate::tree::TreeError> {
        TreeTopology::from_parents(g, self.parent.clone())
    }
}

/// Runs a synchronous multi-root BFS; `allow(node, root)` gates which tree
/// a node may join (use `|_, _| true` for an unrestricted BFS).
///
/// Takes `2·depth + O(1)` rounds (offers + accepts).
///
/// # Errors
///
/// Propagates engine [`SimError`]s.
pub fn distributed_bfs<F>(
    engine: &mut Engine<'_>,
    roots: &[NodeId],
    allow: F,
    max_rounds: u64,
) -> Result<DistBfs, SimError>
where
    F: Fn(NodeId, NodeId) -> bool,
{
    let g = engine.graph();
    let n = g.n();
    let mut is_root = vec![false; n];
    for &r in roots {
        is_root[r.index()] = true;
    }
    let mut logic = BfsLogic {
        g,
        is_root,
        allow,
        bfs: DistBfs {
            root_of: vec![None; n],
            parent: vec![None; n],
            children: vec![Vec::new(); n],
            level: vec![None; n],
        },
    };
    engine.run(&mut logic, max_rounds)?;
    let mut bfs = logic.bfs;
    for c in &mut bfs.children {
        c.sort_unstable();
    }
    Ok(bfs)
}

struct BfsLogic<'g, F> {
    g: &'g Graph,
    is_root: Vec<bool>,
    allow: F,
    bfs: DistBfs,
}

impl<F: Fn(NodeId, NodeId) -> bool> NodeLogic for BfsLogic<'_, F> {
    fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        if self.is_root[node.index()] {
            self.bfs.root_of[node.index()] = Some(node);
            self.bfs.level[node.index()] = Some(0);
            out.send_all(Msg::words(&[TAG_OFFER, node.raw() as u64, 0]));
        }
    }

    fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
        let v = node.index();
        // Record accepts (children) regardless of our own join state.
        for (from, msg) in inbox {
            if msg.word(0) == TAG_ACCEPT {
                self.bfs.children[v].push(*from);
            }
        }
        if self.bfs.root_of[v].is_some() {
            return; // already in a tree: ignore further offers
        }
        // Collect admissible offers and pick deterministically.
        let mut best: Option<(u32, u32, u32)> = None; // (root, sender, level)
        for (from, msg) in inbox {
            if msg.word(0) != TAG_OFFER {
                continue;
            }
            let root = NodeId::from(msg.word(1) as u32);
            let level = msg.word(2) as u32;
            if !(self.allow)(node, root) {
                continue;
            }
            let key = (root.raw(), from.raw(), level);
            if best.is_none() || Some(key) < best {
                best = Some(key);
            }
        }
        if let Some((root, sender, level)) = best {
            let parent = NodeId::from(sender);
            self.bfs.root_of[v] = Some(NodeId::from(root));
            self.bfs.parent[v] = Some(parent);
            self.bfs.level[v] = Some(level + 1);
            out.send(parent, Msg::words(&[TAG_ACCEPT]));
            let offer = Msg::words(&[TAG_OFFER, root as u64, (level + 1) as u64]);
            for &(w, _) in self.g.neighbors(node) {
                if w != parent {
                    out.send(w, offer.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimConfig;

    #[test]
    fn single_root_levels() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 3)]).unwrap();
        let mut engine = Engine::new(&g, SimConfig::default());
        let bfs = distributed_bfs(&mut engine, &[NodeId::new(0)], |_, _| true, 100).unwrap();
        assert_eq!(bfs.level[0], Some(0));
        assert_eq!(bfs.level[1], Some(1));
        assert_eq!(bfs.level[4], Some(1));
        assert_eq!(bfs.level[2], Some(2));
        assert_eq!(bfs.level[5], Some(2));
        assert_eq!(bfs.level[3], Some(3));
        // Parent levels are exactly one less.
        for v in g.nodes() {
            if let Some(p) = bfs.parent[v.index()] {
                assert_eq!(
                    bfs.level[v.index()].unwrap(),
                    bfs.level[p.index()].unwrap() + 1
                );
                assert!(bfs.children[p.index()].contains(&v));
            }
        }
        let tree = bfs.to_tree(&g).unwrap();
        assert_eq!(tree.root_of(NodeId::new(3)), NodeId::new(0));
    }

    #[test]
    fn multi_root_voronoi() {
        // A path; roots at the two ends.
        let g = Graph::from_edges(7, (0..6).map(|i| (i, i + 1))).unwrap();
        let mut engine = Engine::new(&g, SimConfig::default());
        let bfs = distributed_bfs(
            &mut engine,
            &[NodeId::new(0), NodeId::new(6)],
            |_, _| true,
            100,
        )
        .unwrap();
        assert_eq!(bfs.root_of[1], Some(NodeId::new(0)));
        assert_eq!(bfs.root_of[5], Some(NodeId::new(6)));
        // The middle node hears both in the same round: smaller root wins.
        assert_eq!(bfs.root_of[3], Some(NodeId::new(0)));
        assert!(bfs.root_of.iter().all(Option::is_some));
    }

    #[test]
    fn membership_filter_respected() {
        // Two "parts": {0,1,2} and {3,4,5}, connected by edge (2,3).
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let part = [0u32, 0, 0, 1, 1, 1];
        let root_part = move |r: NodeId| part[r.index()];
        let mut engine = Engine::new(&g, SimConfig::default());
        let bfs = distributed_bfs(
            &mut engine,
            &[NodeId::new(0), NodeId::new(3)],
            move |v, r| part[v.index()] == root_part(r),
            100,
        )
        .unwrap();
        assert_eq!(bfs.root_of[2], Some(NodeId::new(0)));
        assert_eq!(bfs.root_of[3], Some(NodeId::new(3)));
        assert_eq!(bfs.root_of[5], Some(NodeId::new(3)));
        // No cross-part parenthood.
        for v in 0..6 {
            if let Some(p) = bfs.parent[v] {
                assert_eq!(part[v], part[p.index()]);
            }
        }
    }

    #[test]
    fn unreached_nodes_stay_none() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let mut engine = Engine::new(&g, SimConfig::default());
        let bfs = distributed_bfs(&mut engine, &[NodeId::new(0)], |_, _| true, 100).unwrap();
        assert_eq!(bfs.root_of[2], None);
        assert_eq!(bfs.level[3], None);
    }

    #[test]
    fn rounds_proportional_to_depth() {
        let n = 50;
        let g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap();
        let mut engine = Engine::new(&g, SimConfig::default());
        let _ = distributed_bfs(&mut engine, &[NodeId::new(0)], |_, _| true, 500).unwrap();
        let rounds = engine.stats().rounds;
        assert!(rounds >= (n - 1) as u64, "rounds {rounds}");
        assert!(rounds <= 2 * n as u64, "rounds {rounds}");
    }
}
