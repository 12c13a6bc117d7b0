//! Rotation systems (combinatorial embeddings) with face tracing and
//! Euler-genus verification.

use std::fmt;

use planartest_graph::algo::components::Components;
use planartest_graph::{EdgeId, Graph, NodeId};

/// A directed edge (half-edge): edge `edge` traversed *out of* `from`.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct Dart {
    /// The underlying undirected edge.
    pub edge: EdgeId,
    /// The endpoint the dart leaves from.
    pub from: NodeId,
}

/// A face of an embedded graph: the cyclic sequence of darts traced by the
/// face-walk rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Face {
    /// Darts in face order; `darts[i+1].from` is the head of `darts[i]`.
    pub darts: Vec<Dart>,
}

impl Face {
    /// The vertices on the face walk, in order (one per dart).
    pub fn vertices(&self) -> Vec<NodeId> {
        self.darts.iter().map(|d| d.from).collect()
    }

    /// Number of darts (= boundary length).
    pub fn len(&self) -> usize {
        self.darts.len()
    }

    /// Whether the face walk is empty (never true for traced faces).
    pub fn is_empty(&self) -> bool {
        self.darts.is_empty()
    }
}

/// Error constructing a [`RotationSystem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RotationError {
    /// `orders` had the wrong number of vertex entries.
    WrongLength {
        /// Entries supplied.
        got: usize,
        /// Entries expected (`g.n()`).
        expected: usize,
    },
    /// The order at `node` is not a permutation of its incident edges.
    NotAPermutation {
        /// The offending vertex.
        node: NodeId,
    },
}

impl fmt::Display for RotationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RotationError::WrongLength { got, expected } => {
                write!(f, "rotation has {got} vertex entries, graph has {expected}")
            }
            RotationError::NotAPermutation { node } => {
                write!(
                    f,
                    "rotation at {node:?} is not a permutation of incident edges"
                )
            }
        }
    }
}

impl std::error::Error for RotationError {}

/// A rotation system: for every vertex, a circular order of its incident
/// edges. Together with a graph this determines an embedding on an
/// orientable surface; the embedding is planar iff every connected
/// component has Euler genus 0 (checked by [`RotationSystem::genus`]).
///
/// # Example
///
/// ```
/// use planartest_graph::Graph;
/// use planartest_embed::RotationSystem;
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)])?;
/// let rot = RotationSystem::from_adjacency(&g);
/// assert_eq!(rot.genus(&g), 0); // a triangle embeds in the plane
/// assert_eq!(rot.trace_faces(&g).len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotationSystem {
    /// `order[v]` = incident edges of `v` in circular order.
    order: Vec<Vec<EdgeId>>,
    /// `pos[e] = [i, j]`: edge `e = (u, v)` (canonical `u < v`) sits at
    /// `order[u][i]` and `order[v][j]`.
    pos: Vec<[u32; 2]>,
}

impl RotationSystem {
    /// Builds a rotation system from explicit per-vertex circular orders.
    ///
    /// # Errors
    ///
    /// Each `orders[v]` must be a permutation of the edges incident to `v`.
    pub fn new(g: &Graph, orders: Vec<Vec<EdgeId>>) -> Result<Self, RotationError> {
        if orders.len() != g.n() {
            return Err(RotationError::WrongLength {
                got: orders.len(),
                expected: g.n(),
            });
        }
        let mut pos = vec![[u32::MAX; 2]; g.m()];
        for v in g.nodes() {
            let ord = &orders[v.index()];
            if ord.len() != g.degree(v) {
                return Err(RotationError::NotAPermutation { node: v });
            }
            for (i, &e) in ord.iter().enumerate() {
                if e.index() >= g.m() {
                    return Err(RotationError::NotAPermutation { node: v });
                }
                let (a, b) = g.endpoints(e);
                let side = if a == v {
                    0
                } else if b == v {
                    1
                } else {
                    return Err(RotationError::NotAPermutation { node: v });
                };
                if pos[e.index()][side] != u32::MAX {
                    return Err(RotationError::NotAPermutation { node: v });
                }
                pos[e.index()][side] = i as u32;
            }
        }
        // Every edge must have been placed on both sides.
        if pos.iter().any(|p| p[0] == u32::MAX || p[1] == u32::MAX) {
            // Find a witness vertex for the error message.
            let e = pos
                .iter()
                .position(|p| p[0] == u32::MAX || p[1] == u32::MAX)
                .expect("just found one");
            let (u, v) = g.endpoints(EdgeId::new(e));
            let node = if pos[e][0] == u32::MAX { u } else { v };
            return Err(RotationError::NotAPermutation { node });
        }
        Ok(RotationSystem { order: orders, pos })
    }

    /// The "default" rotation: incident edges in adjacency (neighbour id)
    /// order. Rarely planar for non-trivial graphs, but always *valid* —
    /// used as the best-effort ordering on non-planar parts.
    pub fn from_adjacency(g: &Graph) -> Self {
        let orders: Vec<Vec<EdgeId>> = g
            .nodes()
            .map(|v| g.neighbors(v).iter().map(|&(_, e)| e).collect())
            .collect();
        Self::new(g, orders).expect("adjacency order is a valid rotation")
    }

    /// The circular edge order at `v`.
    pub fn order_at(&self, v: NodeId) -> &[EdgeId] {
        &self.order[v.index()]
    }

    /// Position of edge `e` within the circular order at its endpoint `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of `e`.
    pub fn position(&self, g: &Graph, v: NodeId, e: EdgeId) -> usize {
        let (a, b) = g.endpoints(e);
        let side = if a == v {
            0
        } else {
            assert_eq!(b, v, "{v:?} is not an endpoint of {e:?}");
            1
        };
        self.pos[e.index()][side] as usize
    }

    /// The edge following `e` in the circular order at `v`.
    pub fn next_at(&self, g: &Graph, v: NodeId, e: EdgeId) -> EdgeId {
        let ord = &self.order[v.index()];
        let p = self.position(g, v, e);
        ord[(p + 1) % ord.len()]
    }

    /// The edge preceding `e` in the circular order at `v`.
    pub fn prev_at(&self, g: &Graph, v: NodeId, e: EdgeId) -> EdgeId {
        let ord = &self.order[v.index()];
        let p = self.position(g, v, e);
        ord[(p + ord.len() - 1) % ord.len()]
    }

    /// The dart following `d` on its face walk: arriving at `v` (head of
    /// `d`) via edge `e`, the walk leaves along `next_at(v, e)`.
    pub fn next_dart(&self, g: &Graph, d: Dart) -> Dart {
        let v = g.other_endpoint(d.edge, d.from);
        let e = self.next_at(g, v, d.edge);
        Dart { edge: e, from: v }
    }

    /// Traces all faces of the embedding (each dart lies on exactly one).
    pub fn trace_faces(&self, g: &Graph) -> Vec<Face> {
        let mut seen = vec![false; 2 * g.m()];
        let dart_idx = |g: &Graph, d: Dart| -> usize {
            let (u, _) = g.endpoints(d.edge);
            2 * d.edge.index() + usize::from(d.from != u)
        };
        let mut faces = Vec::new();
        for e in g.edge_ids() {
            let (u, v) = g.endpoints(e);
            for start in [Dart { edge: e, from: u }, Dart { edge: e, from: v }] {
                if seen[dart_idx(g, start)] {
                    continue;
                }
                let mut darts = Vec::new();
                let mut d = start;
                loop {
                    debug_assert!(!seen[dart_idx(g, d)], "dart visited twice in face walk");
                    seen[dart_idx(g, d)] = true;
                    darts.push(d);
                    d = self.next_dart(g, d);
                    if d == start {
                        break;
                    }
                }
                faces.push(Face { darts });
            }
        }
        faces
    }

    /// Total Euler genus of the embedding, summed over connected
    /// components: `Σ (2 − (n_c − m_c + f_c)) / 2`. An embedding is planar
    /// iff this is 0.
    pub fn genus(&self, g: &Graph) -> i64 {
        let comps = Components::build(g);
        let mut n_c = vec![0i64; comps.count()];
        let mut m_c = vec![0i64; comps.count()];
        // Components with no edges have one (empty) face.
        let mut f_c = vec![0i64; comps.count()];
        for v in g.nodes() {
            n_c[comps.component_of(v)] += 1;
        }
        for (u, _) in g.edges() {
            m_c[comps.component_of(u)] += 1;
        }
        for face in self.trace_faces(g) {
            f_c[comps.component_of(face.darts[0].from)] += 1;
        }
        let mut genus2 = 0i64;
        for c in 0..comps.count() {
            let f = if m_c[c] == 0 { 1 } else { f_c[c] };
            genus2 += 2 - (n_c[c] - m_c[c] + f);
        }
        debug_assert!(genus2 % 2 == 0, "Euler genus parity violated");
        genus2 / 2
    }

    /// Whether this rotation system is a planar embedding of `g`.
    pub fn is_planar_embedding(&self, g: &Graph) -> bool {
        self.genus(g) == 0
    }

    /// Restricts the rotation to an edge subgraph (same node set): keeps
    /// only edges for which `keep` is true, renumbered per `new_ids`
    /// (mapping old edge id -> new id in the subgraph).
    ///
    /// Removing edges never increases genus, so restrictions of planar
    /// embeddings stay planar.
    pub fn restrict<F>(&self, g: &Graph, sub: &Graph, mut keep: F) -> RotationSystem
    where
        F: FnMut(EdgeId) -> Option<EdgeId>,
    {
        let mut orders = vec![Vec::new(); g.n()];
        for v in g.nodes() {
            for &e in &self.order[v.index()] {
                if let Some(ne) = keep(e) {
                    orders[v.index()].push(ne);
                }
            }
        }
        RotationSystem::new(sub, orders).expect("restriction of a valid rotation is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn adjacency_rotation_valid() {
        let g = triangle();
        let rot = RotationSystem::from_adjacency(&g);
        for v in g.nodes() {
            assert_eq!(rot.order_at(v).len(), g.degree(v));
        }
    }

    #[test]
    fn triangle_has_two_faces_genus_zero() {
        let g = triangle();
        let rot = RotationSystem::from_adjacency(&g);
        let faces = rot.trace_faces(&g);
        assert_eq!(faces.len(), 2);
        assert_eq!(rot.genus(&g), 0);
        assert!(rot.is_planar_embedding(&g));
        for f in &faces {
            assert_eq!(f.len(), 3);
            assert!(!f.is_empty());
            assert_eq!(f.vertices().len(), 3);
        }
    }

    #[test]
    fn tree_single_face() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (1, 3)]).unwrap();
        let rot = RotationSystem::from_adjacency(&g);
        let faces = rot.trace_faces(&g);
        assert_eq!(faces.len(), 1);
        assert_eq!(faces[0].len(), 6); // each edge twice
        assert_eq!(rot.genus(&g), 0);
    }

    #[test]
    fn k4_adjacency_order_genus() {
        // K4 in adjacency order: rotation at each vertex sorted by
        // neighbour id. This happens to be non-planar (genus 1) — which is
        // precisely why embeddings must be verified, not assumed.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let rot = RotationSystem::from_adjacency(&g);
        let faces = rot.trace_faces(&g);
        // n - m + f = 4 - 6 + f; planar iff f = 4.
        let planar = faces.len() == 4;
        assert_eq!(rot.is_planar_embedding(&g), planar);
    }

    #[test]
    fn k4_explicit_planar_rotation() {
        // K4 drawn as a triangle 1,2,3 with 0 in the centre.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let e = |u: usize, v: usize| {
            g.edge_between(NodeId::new(u), NodeId::new(v))
                .expect("edge exists")
        };
        let orders = vec![
            vec![e(0, 1), e(0, 2), e(0, 3)],
            vec![e(1, 0), e(1, 3), e(1, 2)],
            vec![e(2, 0), e(2, 1), e(2, 3)],
            vec![e(3, 0), e(3, 2), e(3, 1)],
        ];
        let rot = RotationSystem::new(&g, orders).unwrap();
        assert_eq!(rot.genus(&g), 0);
        assert_eq!(rot.trace_faces(&g).len(), 4);
    }

    #[test]
    fn disconnected_components_counted_separately() {
        // Two disjoint triangles: each planar, total genus 0.
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let rot = RotationSystem::from_adjacency(&g);
        assert_eq!(rot.genus(&g), 0);
        assert_eq!(rot.trace_faces(&g).len(), 4);
    }

    #[test]
    fn isolated_vertices_ok() {
        let g = Graph::from_edges(5, [(0, 1)]).unwrap();
        let rot = RotationSystem::from_adjacency(&g);
        assert_eq!(rot.genus(&g), 0);
    }

    #[test]
    fn invalid_rotation_rejected() {
        let g = triangle();
        // Wrong number of vertices.
        let err = RotationSystem::new(&g, vec![vec![]; 2]).unwrap_err();
        assert!(matches!(
            err,
            RotationError::WrongLength {
                got: 2,
                expected: 3
            }
        ));
        // Missing edge at vertex 0.
        let err = RotationSystem::new(
            &g,
            vec![
                vec![EdgeId::new(0)],
                vec![EdgeId::new(0), EdgeId::new(1)],
                vec![EdgeId::new(1), EdgeId::new(2)],
            ],
        )
        .unwrap_err();
        assert!(matches!(err, RotationError::NotAPermutation { .. }));
        assert!(err.to_string().contains("permutation"));
        // Duplicated edge at a vertex.
        let err = RotationSystem::new(
            &g,
            vec![
                vec![EdgeId::new(0), EdgeId::new(0)],
                vec![EdgeId::new(0), EdgeId::new(1)],
                vec![EdgeId::new(1), EdgeId::new(2)],
            ],
        )
        .unwrap_err();
        assert!(matches!(err, RotationError::NotAPermutation { .. }));
        // Edge not incident to the vertex.
        let err = RotationSystem::new(
            &g,
            vec![
                vec![EdgeId::new(0), EdgeId::new(1)],
                vec![EdgeId::new(0), EdgeId::new(1)],
                vec![EdgeId::new(1), EdgeId::new(2)],
            ],
        )
        .unwrap_err();
        assert!(matches!(err, RotationError::NotAPermutation { .. }));
    }

    #[test]
    fn next_prev_inverse() {
        let g = triangle();
        let rot = RotationSystem::from_adjacency(&g);
        for v in g.nodes() {
            for &e in rot.order_at(v) {
                let n = rot.next_at(&g, v, e);
                assert_eq!(rot.prev_at(&g, v, n), e);
            }
        }
    }

    #[test]
    fn restrict_keeps_planarity() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let e = |u: usize, v: usize| g.edge_between(NodeId::new(u), NodeId::new(v)).unwrap();
        let orders = vec![
            vec![e(0, 1), e(0, 2), e(0, 3)],
            vec![e(1, 0), e(1, 3), e(1, 2)],
            vec![e(2, 0), e(2, 1), e(2, 3)],
            vec![e(3, 0), e(3, 2), e(3, 1)],
        ];
        let rot = RotationSystem::new(&g, orders).unwrap();
        // Drop edge (2,3).
        let victim = e(2, 3);
        let (sub, map) = g.edge_subgraph(|x| x != victim);
        let mut new_id = vec![None; g.m()];
        for (new, &old) in map.iter().enumerate() {
            new_id[old.index()] = Some(EdgeId::new(new));
        }
        let r2 = rot.restrict(&g, &sub, |old| new_id[old.index()]);
        assert!(r2.is_planar_embedding(&sub));
    }
}
