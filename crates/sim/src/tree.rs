//! Forest topologies with message-level broadcast and convergecast.
//!
//! Stage I of the tester maintains, per part, a rooted spanning tree known
//! only through each node's local parent/children pointers (Lemma 6 of the
//! paper). These primitives move information up and down such forests with
//! real messages: one hop per round, bandwidth-checked.

use std::fmt;

use planartest_graph::{Graph, NodeId};

use crate::engine::{Engine, Msg, NodeLogic, Outbox, SimError};

/// A rooted forest over the nodes of a graph, where every parent link is a
/// graph edge. Nodes with no parent are roots (isolated nodes are trivial
/// roots).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeTopology {
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
}

/// Error constructing a [`TreeTopology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// `parent` had the wrong length.
    WrongLength {
        /// Entries supplied.
        got: usize,
        /// Entries expected.
        expected: usize,
    },
    /// A parent pointer is not a graph neighbour.
    ParentNotNeighbor {
        /// The child whose pointer is invalid.
        node: NodeId,
    },
    /// Parent pointers contain a cycle through this node.
    Cycle {
        /// A node on the cycle.
        node: NodeId,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::WrongLength { got, expected } => {
                write!(f, "parent vector has {got} entries, expected {expected}")
            }
            TreeError::ParentNotNeighbor { node } => {
                write!(f, "parent of {node:?} is not a neighbour in the graph")
            }
            TreeError::Cycle { node } => write!(f, "parent pointers cycle through {node:?}"),
        }
    }
}

impl std::error::Error for TreeError {}

impl TreeTopology {
    /// Builds and validates a forest from parent pointers.
    ///
    /// # Errors
    ///
    /// Rejects non-neighbour parents and cyclic pointer chains.
    pub fn from_parents(g: &Graph, parent: Vec<Option<NodeId>>) -> Result<Self, TreeError> {
        if parent.len() != g.n() {
            return Err(TreeError::WrongLength {
                got: parent.len(),
                expected: g.n(),
            });
        }
        for v in g.nodes() {
            if let Some(p) = parent[v.index()] {
                if !g.has_edge(v, p) {
                    return Err(TreeError::ParentNotNeighbor { node: v });
                }
            }
        }
        // Cycle check: iterative root-finding with memoization.
        let mut state = vec![0u8; g.n()]; // 0 unknown, 1 in progress, 2 ok
        for v in g.nodes() {
            if state[v.index()] != 0 {
                continue;
            }
            let mut path = vec![v];
            state[v.index()] = 1;
            let mut cur = v;
            loop {
                match parent[cur.index()] {
                    None => break,
                    Some(p) => match state[p.index()] {
                        0 => {
                            state[p.index()] = 1;
                            path.push(p);
                            cur = p;
                        }
                        1 => return Err(TreeError::Cycle { node: p }),
                        _ => break,
                    },
                }
            }
            for x in path {
                state[x.index()] = 2;
            }
        }
        let mut children = vec![Vec::new(); g.n()];
        for v in g.nodes() {
            if let Some(p) = parent[v.index()] {
                children[p.index()].push(v);
            }
        }
        Ok(TreeTopology { parent, children })
    }

    /// Parent of `v` (`None` for roots).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// Children of `v`.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v.index()]
    }

    /// Whether `v` is a root.
    pub fn is_root(&self, v: NodeId) -> bool {
        self.parent[v.index()].is_none()
    }

    /// The root of `v`'s tree (follows parent pointers).
    pub fn root_of(&self, v: NodeId) -> NodeId {
        let mut cur = v;
        while let Some(p) = self.parent[cur.index()] {
            cur = p;
        }
        cur
    }

    /// Depth of `v` (root = 0).
    pub fn depth(&self, v: NodeId) -> u32 {
        let mut d = 0;
        let mut cur = v;
        while let Some(p) = self.parent[cur.index()] {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the forest (maximum depth over all nodes).
    pub fn height(&self) -> u32 {
        (0..self.parent.len())
            .map(|v| self.depth(NodeId::new(v)))
            .max()
            .unwrap_or(0)
    }
}

struct BroadcastLogic<'t, F> {
    tree: &'t TreeTopology,
    payload: F,
    received: Vec<Option<Msg>>,
}

impl<F: FnMut(NodeId) -> Option<Msg>> NodeLogic for BroadcastLogic<'_, F> {
    fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        if self.tree.is_root(node) {
            if let Some(msg) = (self.payload)(node) {
                for &c in self.tree.children(node) {
                    out.send(c, msg.clone());
                }
                self.received[node.index()] = Some(msg);
            }
        }
    }

    fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
        for (from, msg) in inbox {
            debug_assert_eq!(
                Some(*from),
                self.tree.parent(node),
                "broadcast came off-tree"
            );
            for &c in self.tree.children(node) {
                out.send(c, msg.clone());
            }
            self.received[node.index()] = Some(msg.clone());
        }
    }
}

/// Broadcasts one message per tree, from each root downward. Returns the
/// message each node ended up with (`None` for nodes of trees whose root
/// supplied no payload).
///
/// Takes `height(tree)` rounds.
///
/// # Errors
///
/// Propagates engine [`SimError`]s (e.g. payload over bandwidth).
pub fn broadcast<F>(
    engine: &mut Engine<'_>,
    tree: &TreeTopology,
    payload: F,
    max_rounds: u64,
) -> Result<Vec<Option<Msg>>, SimError>
where
    F: FnMut(NodeId) -> Option<Msg>,
{
    let n = engine.graph().n();
    let mut logic = BroadcastLogic {
        tree,
        payload,
        received: vec![None; n],
    };
    engine.run(&mut logic, max_rounds)?;
    Ok(logic.received)
}

struct ConvergecastLogic<'t, F> {
    tree: &'t TreeTopology,
    combine: F,
    pending: Vec<usize>,
    gathered: Vec<Vec<(NodeId, Msg)>>,
    result: Vec<Option<Msg>>,
}

impl<F: FnMut(NodeId, &[(NodeId, Msg)]) -> Msg> ConvergecastLogic<'_, F> {
    fn finish(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        let inputs = std::mem::take(&mut self.gathered[node.index()]);
        let value = (self.combine)(node, &inputs);
        match self.tree.parent(node) {
            Some(p) => out.send(p, value),
            None => self.result[node.index()] = Some(value),
        }
    }
}

impl<F: FnMut(NodeId, &[(NodeId, Msg)]) -> Msg> NodeLogic for ConvergecastLogic<'_, F> {
    fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        self.pending[node.index()] = self.tree.children(node).len();
        if self.pending[node.index()] == 0 {
            self.finish(node, out);
        }
    }

    fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
        for (from, msg) in inbox {
            self.gathered[node.index()].push((*from, msg.clone()));
            self.pending[node.index()] -= 1;
        }
        if self.pending[node.index()] == 0 && !inbox.is_empty() {
            self.finish(node, out);
        }
    }
}

/// Aggregates a value up each tree: every node computes
/// `combine(node, children_values)` (leaves see an empty slice) and passes
/// it to its parent. Returns the root values.
///
/// Takes `height(tree)` rounds; each hop carries one combined message, so
/// `combine` must keep its output within bandwidth.
///
/// # Errors
///
/// Propagates engine [`SimError`]s.
pub fn convergecast<F>(
    engine: &mut Engine<'_>,
    tree: &TreeTopology,
    combine: F,
    max_rounds: u64,
) -> Result<Vec<Option<Msg>>, SimError>
where
    F: FnMut(NodeId, &[(NodeId, Msg)]) -> Msg,
{
    let n = engine.graph().n();
    let mut logic = ConvergecastLogic {
        tree,
        combine,
        pending: vec![0; n],
        gathered: vec![Vec::new(); n],
        result: vec![None; n],
    };
    engine.run(&mut logic, max_rounds)?;
    Ok(logic.result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimConfig;

    /// A path 0-1-2-3-4 rooted at 0 plus an isolated root 5.
    fn setup() -> (Graph, TreeTopology) {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let parent = vec![
            None,
            Some(NodeId::new(0)),
            Some(NodeId::new(1)),
            Some(NodeId::new(2)),
            Some(NodeId::new(3)),
            None,
        ];
        let tree = TreeTopology::from_parents(&g, parent).unwrap();
        (g, tree)
    }

    #[test]
    fn topology_accessors() {
        let (_, tree) = setup();
        assert!(tree.is_root(NodeId::new(0)));
        assert!(tree.is_root(NodeId::new(5)));
        assert_eq!(tree.parent(NodeId::new(3)), Some(NodeId::new(2)));
        assert_eq!(tree.children(NodeId::new(1)), &[NodeId::new(2)]);
        assert_eq!(tree.root_of(NodeId::new(4)), NodeId::new(0));
        assert_eq!(tree.depth(NodeId::new(4)), 4);
        assert_eq!(tree.height(), 4);
    }

    #[test]
    fn invalid_topologies_rejected() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        // Wrong length.
        assert!(matches!(
            TreeTopology::from_parents(&g, vec![None]),
            Err(TreeError::WrongLength { .. })
        ));
        // Non-neighbour parent.
        let e = TreeTopology::from_parents(&g, vec![None, None, Some(NodeId::new(0))]);
        assert!(matches!(e, Err(TreeError::ParentNotNeighbor { .. })));
        // Cycle 0 <-> 1.
        let e =
            TreeTopology::from_parents(&g, vec![Some(NodeId::new(1)), Some(NodeId::new(0)), None]);
        assert!(matches!(e, Err(TreeError::Cycle { .. })));
        assert!(e.unwrap_err().to_string().contains("cycle"));
    }

    #[test]
    fn broadcast_reaches_everyone_in_depth_rounds() {
        let (g, tree) = setup();
        let mut engine = Engine::new(&g, SimConfig::default());
        let got = broadcast(
            &mut engine,
            &tree,
            |r| {
                if r.index() == 0 {
                    Some(Msg::words(&[99]))
                } else {
                    None
                }
            },
            100,
        )
        .unwrap();
        for (v, msg) in got.iter().enumerate().take(5) {
            assert_eq!(msg.as_ref().map(|m| m.word(0)), Some(99), "node {v}");
        }
        assert_eq!(got[5], None);
        assert_eq!(engine.stats().rounds, 4); // height of the path
    }

    #[test]
    fn convergecast_sums_subtree() {
        let (g, tree) = setup();
        let mut engine = Engine::new(&g, SimConfig::default());
        let roots = convergecast(
            &mut engine,
            &tree,
            |_node, kids: &[(NodeId, Msg)]| {
                let sum: u64 = 1 + kids.iter().map(|(_, m)| m.word(0)).sum::<u64>();
                Msg::words(&[sum])
            },
            100,
        )
        .unwrap();
        assert_eq!(roots[0].as_ref().map(|m| m.word(0)), Some(5)); // path of 5 nodes
        assert_eq!(roots[5].as_ref().map(|m| m.word(0)), Some(1)); // isolated
        for root in roots.iter().take(5).skip(1) {
            assert!(root.is_none());
        }
    }

    #[test]
    fn convergecast_on_star() {
        let g = Graph::from_edges(5, (1..5).map(|i| (0, i))).unwrap();
        let parent = vec![
            None,
            Some(NodeId::new(0)),
            Some(NodeId::new(0)),
            Some(NodeId::new(0)),
            Some(NodeId::new(0)),
        ];
        let tree = TreeTopology::from_parents(&g, parent).unwrap();
        let mut engine = Engine::new(&g, SimConfig::default());
        let roots = convergecast(
            &mut engine,
            &tree,
            |node, kids: &[(NodeId, Msg)]| {
                Msg::words(&[node.raw() as u64 + kids.iter().map(|(_, m)| m.word(0)).sum::<u64>()])
            },
            100,
        )
        .unwrap();
        assert_eq!(roots[0].as_ref().map(|m| m.word(0)), Some(1 + 2 + 3 + 4));
        assert_eq!(engine.stats().rounds, 1);
    }

    #[test]
    fn broadcast_oversized_payload_fails() {
        let (g, tree) = setup();
        let mut engine = Engine::new(
            &g,
            SimConfig {
                max_words_per_message: 2,
            },
        );
        let err = broadcast(&mut engine, &tree, |_| Some(Msg::words(&[0; 3])), 100).unwrap_err();
        assert!(matches!(err, SimError::MessageTooLarge { .. }));
    }
}
