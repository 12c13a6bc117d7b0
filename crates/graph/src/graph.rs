//! Core graph representation: an immutable, undirected simple graph.

use std::fmt;

/// Identifier of a node in a [`Graph`].
///
/// Node ids are dense indices in `0..g.n()`. In the CONGEST model each node
/// knows its own id and learns neighbours' ids over edges; ids fit in a
/// single `O(log n)`-bit message word.
///
/// The id is `repr(transparent)` over `u32` so CSR arrays of ids can be
/// reinterpreted byte-for-byte by the on-disk format in [`crate::disk`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct NodeId(u32);

/// The most nodes a graph can have: its ids are `u32`, so `n ≤ 2³²`.
pub(crate) const MAX_NODES: u64 = 1 << 32;

impl NodeId {
    /// Creates a node id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32"))
    }

    /// Returns the dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value (useful for packing into messages).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identifier of an undirected edge in a [`Graph`].
///
/// Edge ids are dense indices in `0..g.m()`, in the order edges were added.
///
/// `repr(transparent)` over `u32` for the same zero-copy reason as
/// [`NodeId`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn new(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index exceeds u32"))
    }

    /// Returns the dense index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u32> for EdgeId {
    #[inline]
    fn from(v: u32) -> Self {
        EdgeId(v)
    }
}

/// Error produced when constructing an invalid [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint was `>= n`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: usize,
        /// The number of nodes in the graph under construction.
        n: usize,
    },
    /// An edge had both endpoints equal.
    SelfLoop {
        /// The node with the self-loop.
        node: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(
                    f,
                    "edge endpoint {node} out of range for graph with {n} nodes"
                )
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable, undirected simple graph in CSR (compressed sparse row)
/// layout.
///
/// Nodes are `0..n`, edges are stored once with canonical orientation
/// `u < v` and identified by [`EdgeId`]. Adjacency is a single flat
/// array of `(neighbour, edge id)` pairs — node `v`'s neighbours are the
/// contiguous slice `csr[offsets[v]..offsets[v + 1]]`, sorted by
/// neighbour — so a whole-graph sweep is one linear pass over memory and
/// membership tests are `O(log deg)` binary searches.
///
/// # Example
///
/// ```
/// use planartest_graph::Graph;
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)])?;
/// assert_eq!(g.degree(1.into()), 2);
/// assert!(g.has_edge(0.into(), 1.into()));
/// assert!(!g.has_edge(0.into(), 2.into()));
/// # Ok::<(), planartest_graph::GraphError>(())
/// ```
#[derive(Clone)]
pub struct Graph {
    n: usize,
    store: Store,
}

/// The physical backing of a [`Graph`]'s three CSR arrays.
///
/// `Resident` is the hot tier: plain `Vec`s owned by the graph.
/// `Mapped` is the cold tier: the same arrays viewed zero-copy inside a
/// memory-mapped (or buffered-read) on-disk CSR file, shared via `Arc`
/// so cloning a mapped graph never touches the data. Every accessor
/// dispatches through one `match`, so the engine, batch lanes, and all
/// testers run unchanged over either backing.
#[derive(Clone)]
enum Store {
    Resident {
        /// Canonical endpoints, `edges[e] = (u, v)` with `u < v`.
        edges: Vec<(NodeId, NodeId)>,
        /// Flat adjacency: `2m` `(neighbour, edge id)` entries, grouped
        /// by source node, each group sorted by neighbour id.
        csr: Vec<(NodeId, EdgeId)>,
        /// `n + 1` row offsets into `csr`; node `v` owns
        /// `csr[offsets[v] as usize..offsets[v + 1] as usize]`.
        offsets: Vec<u32>,
    },
    Mapped(std::sync::Arc<crate::disk::MappedCsr>),
}

impl PartialEq for Graph {
    /// Content equality: node count plus canonical edge list. The CSR
    /// adjacency is derived data and the backing tier is irrelevant —
    /// a mapped graph equals its resident twin.
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.edge_slice() == other.edge_slice()
    }
}

impl Eq for Graph {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n)
            .field("m", &self.m())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl Graph {
    /// Builds a graph with `n` nodes from an edge iterator.
    ///
    /// Parallel edges are collapsed; endpoint order is irrelevant.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`] on
    /// invalid input.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Creates a graph with `n` nodes and no edges.
    pub fn empty(n: usize) -> Self {
        Graph {
            n,
            store: Store::Resident {
                edges: Vec::new(),
                csr: Vec::new(),
                offsets: vec![0; n + 1],
            },
        }
    }

    /// Assembles a resident graph from pre-validated CSR parts.
    ///
    /// Crate-internal: callers (the builder, the disk loaders) must
    /// uphold the CSR invariants — canonical sorted deduped `edges`,
    /// rows sorted by neighbour, `offsets` a prefix-sum with
    /// `offsets[n] == 2m`.
    pub(crate) fn from_parts(
        n: usize,
        edges: Vec<(NodeId, NodeId)>,
        csr: Vec<(NodeId, EdgeId)>,
        offsets: Vec<u32>,
    ) -> Self {
        Graph {
            n,
            store: Store::Resident {
                edges,
                csr,
                offsets,
            },
        }
    }

    /// Wraps a loaded on-disk CSR as a mapped-tier graph.
    pub(crate) fn from_mapped(map: std::sync::Arc<crate::disk::MappedCsr>) -> Self {
        Graph {
            n: map.n(),
            store: Store::Mapped(map),
        }
    }

    /// Whether this graph is backed by an on-disk mapping (cold tier)
    /// rather than resident `Vec`s.
    #[inline]
    pub fn is_mapped(&self) -> bool {
        matches!(self.store, Store::Mapped(_))
    }

    /// Canonical edge list slice, whatever the backing.
    #[inline]
    fn edge_slice(&self) -> &[(NodeId, NodeId)] {
        match &self.store {
            Store::Resident { edges, .. } => edges,
            Store::Mapped(m) => m.edges(),
        }
    }

    /// Flat adjacency slice, whatever the backing.
    #[inline]
    fn csr_slice(&self) -> &[(NodeId, EdgeId)] {
        match &self.store {
            Store::Resident { csr, .. } => csr,
            Store::Mapped(m) => m.csr(),
        }
    }

    /// Row-offset slice (`n + 1` entries), whatever the backing.
    #[inline]
    fn offset_slice(&self) -> &[u32] {
        match &self.store {
            Store::Resident { offsets, .. } => offsets,
            Store::Mapped(m) => m.offsets(),
        }
    }

    /// The three raw CSR arrays, for the on-disk writer.
    #[allow(clippy::type_complexity)]
    pub(crate) fn raw_parts(&self) -> (&[u32], &[(NodeId, EdgeId)], &[(NodeId, NodeId)]) {
        (self.offset_slice(), self.csr_slice(), self.edge_slice())
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edge_slice().len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId::new)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.m()).map(EdgeId::new)
    }

    /// Canonical endpoints `(u, v)` with `u < v` of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edge_slice()[e.index()]
    }

    /// Iterator over canonical edge endpoint pairs in edge-id order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.edge_slice().iter().copied()
    }

    /// The endpoint of `e` that is not `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.endpoints(e);
        if a == v {
            b
        } else {
            assert_eq!(b, v, "node {v:?} is not an endpoint of {e:?}");
            a
        }
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let offsets = self.offset_slice();
        (offsets[v.index() + 1] - offsets[v.index()]) as usize
    }

    /// Neighbours of `v` with the connecting edge id, sorted by neighbour.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        let offsets = self.offset_slice();
        &self.csr_slice()[offsets[v.index()] as usize..offsets[v.index() + 1] as usize]
    }

    /// Whether `{u, v}` is an edge (binary search over the sorted CSR
    /// neighbour slice, `O(log deg u)`).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// The edge id connecting `u` and `v`, if any.
    #[inline]
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let a = self.neighbors(u);
        a.binary_search_by_key(&v, |&(w, _)| w).ok().map(|i| a[i].1)
    }

    /// Stable 128-bit content fingerprint of the graph: `n` plus the
    /// canonical edge list, folded through
    /// [`fingerprint::Digest`](crate::fingerprint::Digest).
    ///
    /// Two graphs fingerprint equal iff they have the same node count
    /// and the same edge set (the builder canonicalizes edge order, so
    /// insertion order never matters). This is the identity the query
    /// service's graph registry and result cache key on.
    #[must_use]
    pub fn fingerprint(&self) -> crate::fingerprint::Fingerprint {
        if let Store::Mapped(m) = &self.store {
            // The on-disk header stamps the fingerprint; the loader
            // verified it against the mapped content, so no rescan.
            return m.fingerprint();
        }
        let mut d = crate::fingerprint::Digest::new();
        d.word(self.n as u64).word(self.m() as u64);
        for &(u, v) in self.edge_slice() {
            d.word((u64::from(u.raw()) << 32) | u64::from(v.raw()));
        }
        d.finish()
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.offset_slice()
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Sum of degrees divided by `n` (0.0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            2.0 * self.m() as f64 / self.n as f64
        }
    }

    /// Returns the subgraph induced by `keep_edge`, on the same node set.
    ///
    /// Edge ids are re-assigned densely; the mapping is returned alongside
    /// as `old_edge_ids[new] = old`.
    pub fn edge_subgraph<F>(&self, mut keep_edge: F) -> (Graph, Vec<EdgeId>)
    where
        F: FnMut(EdgeId) -> bool,
    {
        let mut b = GraphBuilder::new(self.n);
        let mut map = Vec::new();
        for e in self.edge_ids() {
            if keep_edge(e) {
                let (u, v) = self.endpoints(e);
                b.add_edge(u.index(), v.index())
                    .expect("edges already valid");
                map.push(e);
            }
        }
        (b.build(), map)
    }

    /// Returns the subgraph induced by the node set `keep` (given as a
    /// membership predicate over the *original* ids), with nodes renumbered
    /// densely.
    ///
    /// Returns the graph together with `orig_of[new] = original id`.
    pub fn induced_subgraph<F>(&self, mut keep: F) -> (Graph, Vec<NodeId>)
    where
        F: FnMut(NodeId) -> bool,
    {
        let mut new_of = vec![usize::MAX; self.n];
        let mut orig_of = Vec::new();
        for v in self.nodes() {
            if keep(v) {
                new_of[v.index()] = orig_of.len();
                orig_of.push(v);
            }
        }
        let mut b = GraphBuilder::new(orig_of.len());
        for (u, v) in self.edges() {
            let (nu, nv) = (new_of[u.index()], new_of[v.index()]);
            if nu != usize::MAX && nv != usize::MAX {
                b.add_edge(nu, nv).expect("validated");
            }
        }
        (b.build(), orig_of)
    }

    /// The subgraphs a labelling of the nodes induces, bucketed in one
    /// `O(n + m)` pass: node `v` lies in the part labelled `part_of[v]`,
    /// and a label need not lie in its own part. Yields
    /// `(label, subgraph, orig_of)` for every label some node carries,
    /// in ascending label order, building one subgraph at a time; each
    /// equals `self.induced_subgraph(|v| part_of[v.index()] == label)`.
    /// One [`induced_subgraph`](Self::induced_subgraph) call per part
    /// would cost `O(parts · (n + m))`.
    ///
    /// # Panics
    ///
    /// If `part_of.len() != self.n()` or a label is not a node.
    pub fn induced_parts(
        &self,
        part_of: &[NodeId],
    ) -> impl Iterator<Item = (NodeId, Graph, Vec<NodeId>)> {
        assert_eq!(part_of.len(), self.n, "one part label per node");
        // `slot[label]`: the label's rank among the labels carried.
        let mut slot = vec![usize::MAX; self.n];
        for &label in part_of {
            slot[label.index()] = 0;
        }
        let labels: Vec<NodeId> = self.nodes().filter(|l| slot[l.index()] == 0).collect();
        for (rank, label) in labels.iter().enumerate() {
            slot[label.index()] = rank;
        }
        // Each part's nodes in ascending id; `local[v]`: v's id in its part.
        let mut orig_of: Vec<Vec<NodeId>> = vec![Vec::new(); labels.len()];
        let mut local = vec![0usize; self.n];
        for v in self.nodes() {
            let nodes = &mut orig_of[slot[part_of[v.index()].index()]];
            local[v.index()] = nodes.len();
            nodes.push(v);
        }
        let mut parts: Vec<GraphBuilder> = orig_of
            .iter()
            .map(|nodes| GraphBuilder::new(nodes.len()))
            .collect();
        for (u, v) in self.edges() {
            let label = part_of[u.index()];
            if label == part_of[v.index()] {
                parts[slot[label.index()]]
                    .add_edge(local[u.index()], local[v.index()])
                    .expect("validated");
            }
        }
        labels
            .into_iter()
            .zip(parts)
            .zip(orig_of)
            .map(|((label, part), orig_of)| (label, part.build(), orig_of))
    }
}

/// Incremental, validated construction of a [`Graph`].
///
/// # Example
///
/// ```
/// use planartest_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 0)?; // duplicate, collapsed
/// let g = b.build();
/// assert_eq!(g.m(), 1);
/// # Ok::<(), planartest_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(usize, usize)>,
}

impl GraphBuilder {
    /// Starts building a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds an undirected edge; duplicates are collapsed at [`build`] time.
    ///
    /// # Errors
    ///
    /// Rejects self-loops and out-of-range endpoints.
    ///
    /// [`build`]: GraphBuilder::build
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        self.edges.push((u.min(v), u.max(v)));
        Ok(())
    }

    /// Finishes construction, collapsing duplicate edges.
    ///
    /// The CSR adjacency is filled in one counting-sort pass over the
    /// sorted edge list. No per-node sort is needed: scanning canonical
    /// edges in `(u, v)` order writes each node's smaller neighbours
    /// (where it is the second endpoint) in ascending order first, then
    /// its larger neighbours (where it is the first endpoint) in
    /// ascending order — the row comes out sorted by neighbour id.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let m = self.edges.len();
        u32::try_from(2 * m).expect("adjacency entries exceed u32 offsets");
        let mut offsets = vec![0u32; self.n + 1];
        for &(u, v) in &self.edges {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for i in 0..self.n {
            offsets[i + 1] += offsets[i];
        }
        // `cursor[v]` = next free slot in v's row.
        let mut cursor: Vec<u32> = offsets[..self.n].to_vec();
        let mut edges = Vec::with_capacity(m);
        let mut csr = vec![(NodeId::default(), EdgeId::default()); 2 * m];
        for &(u, v) in &self.edges {
            let e = EdgeId::new(edges.len());
            let (u, v) = (NodeId::new(u), NodeId::new(v));
            edges.push((u, v));
            csr[cursor[u.index()] as usize] = (v, e);
            cursor[u.index()] += 1;
            csr[cursor[v.index()] as usize] = (u, e);
            cursor[v.index()] += 1;
        }
        debug_assert!((0..self.n).all(|v| {
            csr[offsets[v] as usize..offsets[v + 1] as usize].is_sorted_by_key(|&(w, _)| w)
        }));
        Graph::from_parts(self.n, edges, csr, offsets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn zero_node_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn basic_construction() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 5);
        assert_eq!(g.degree(NodeId::new(0)), 3);
        assert_eq!(g.degree(NodeId::new(3)), 2);
        assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(!g.has_edge(NodeId::new(1), NodeId::new(3)));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let err = Graph::from_edges(3, [(1, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 1 });
    }

    #[test]
    fn out_of_range_rejected() {
        let err = Graph::from_edges(3, [(0, 3)]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 3, n: 3 });
        let msg = err.to_string();
        assert!(msg.contains("out of range"));
    }

    #[test]
    fn endpoints_are_canonical() {
        let g = Graph::from_edges(3, [(2, 0)]).unwrap();
        let e = EdgeId::new(0);
        assert_eq!(g.endpoints(e), (NodeId::new(0), NodeId::new(2)));
        assert_eq!(g.other_endpoint(e, NodeId::new(0)), NodeId::new(2));
        assert_eq!(g.other_endpoint(e, NodeId::new(2)), NodeId::new(0));
    }

    #[test]
    #[should_panic(expected = "is not an endpoint")]
    fn other_endpoint_panics_for_non_endpoint() {
        let g = Graph::from_edges(3, [(0, 2)]).unwrap();
        let _ = g.other_endpoint(EdgeId::new(0), NodeId::new(1));
    }

    #[test]
    fn neighbors_sorted_and_edge_between() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
        let ns: Vec<usize> = g
            .neighbors(NodeId::new(2))
            .iter()
            .map(|&(w, _)| w.index())
            .collect();
        assert_eq!(ns, vec![0, 1, 3, 4]);
        for &(w, e) in g.neighbors(NodeId::new(2)) {
            assert_eq!(g.edge_between(NodeId::new(2), w), Some(e));
        }
        assert_eq!(g.edge_between(NodeId::new(0), NodeId::new(1)), None);
    }

    #[test]
    fn edge_subgraph_keeps_node_set() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let (h, map) = g.edge_subgraph(|e| e.index() != 1);
        assert_eq!(h.n(), 4);
        assert_eq!(h.m(), 2);
        assert_eq!(map.len(), 2);
        assert!(h.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!h.has_edge(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let (h, orig) = g.induced_subgraph(|v| v.index() % 2 == 0);
        assert_eq!(h.n(), 3);
        assert_eq!(
            orig.iter().map(|v| v.index()).collect::<Vec<_>>(),
            vec![0, 2, 4]
        );
        // Only edge among {0,2,4} is (4,0).
        assert_eq!(h.m(), 1);
    }

    #[test]
    fn id_display_and_debug() {
        assert_eq!(format!("{}", NodeId::new(7)), "7");
        assert_eq!(format!("{:?}", NodeId::new(7)), "n7");
        assert_eq!(format!("{:?}", EdgeId::new(3)), "e3");
        assert_eq!(NodeId::from(9u32).raw(), 9);
        assert_eq!(EdgeId::from(9u32).raw(), 9);
    }

    #[test]
    fn debug_graph_nonempty() {
        let g = Graph::empty(2);
        let s = format!("{g:?}");
        assert!(s.contains("Graph"));
    }
}
