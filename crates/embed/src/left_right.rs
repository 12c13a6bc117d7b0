//! The left-right planarity test and embedder.
//!
//! de Fraysseix–Rosenstiehl's left-right criterion in the formulation of
//! Brandes, "The Left-Right Planarity Test" (2009): three depth-first
//! passes over one DFS orientation of the graph.
//!
//! 1. **Orientation** grows a DFS forest, orients tree edges away from
//!    the roots and back edges towards them, and computes every edge's
//!    lowpoints and nesting depth.
//! 2. **Testing** walks the forest again, visiting each node's outgoing
//!    edges in nesting order, and keeps a stack of conflict pairs: two
//!    intervals of return edges that must lie on opposite sides of the
//!    tree path they return over. A pair that cannot be split certifies
//!    non-planarity.
//! 3. **Embedding** resolves each edge's side relative to its reference
//!    edge, then walks the forest a third time and inserts every back
//!    edge into its ancestor's rotation beside the tree edge it returns
//!    through.
//!
//! The whole test runs in `O(n + m)`. Every pass is iterative, because
//! Stage-II parts reach 10⁵ nodes and run on threads with the default
//! 2 MiB stack. Per-edge state lives in arrays indexed by edge id and
//! per-dart state in arrays indexed by dart id. Both adjacency sorts are
//! counting sorts whose ties fall to the lower edge id, so the rotation
//! is a deterministic function of the graph.

use planartest_graph::{EdgeId, Graph, NodeId};

use crate::rotation::RotationSystem;
use crate::PlanarityCheck;

/// Absent node, edge or dart.
const NONE: u32 = u32::MAX;

/// Tests planarity in linear time and, when planar, produces a
/// combinatorial embedding.
///
/// Agrees with [`crate::demoucron::check_planarity`] on every verdict;
/// the rotation it returns may differ, but it always satisfies
/// [`RotationSystem::is_planar_embedding`].
///
/// # Example
///
/// ```
/// use planartest_embed::{check_planarity, PlanarityCheck};
/// use planartest_graph::Graph;
///
/// let k4 = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])?;
/// let PlanarityCheck::Planar(rot) = check_planarity(&k4) else {
///     unreachable!("K4 is planar")
/// };
/// assert!(rot.is_planar_embedding(&k4));
///
/// let k33 = Graph::from_edges(6, (0..3).flat_map(|a| (3..6).map(move |b| (a, b))))?;
/// assert!(!check_planarity(&k33).is_planar());
/// # Ok::<(), planartest_graph::GraphError>(())
/// ```
pub fn check_planarity(g: &Graph) -> PlanarityCheck {
    if g.n() >= 3 && g.m() > 3 * g.n() - 6 {
        return PlanarityCheck::NonPlanar;
    }
    let mut lr = LeftRight::orient(g);
    if !lr.test() {
        return PlanarityCheck::NonPlanar;
    }
    let rot = lr.embed();
    debug_assert!(
        rot.is_planar_embedding(g),
        "left-right produced a non-planar rotation"
    );
    PlanarityCheck::Planar(rot)
}

/// A set of return edges that must all lie on one side, stored as its
/// highest and lowest edge; the edges in between hang off `high` through
/// the `reference` links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    low: u32,
    high: u32,
}

impl Interval {
    const EMPTY: Interval = Interval {
        low: NONE,
        high: NONE,
    };

    fn is_empty(self) -> bool {
        self.low == NONE && self.high == NONE
    }
}

/// Two intervals whose return edges must lie on opposite sides.
#[derive(Debug, Clone, Copy)]
struct ConflictPair {
    left: Interval,
    right: Interval,
}

impl ConflictPair {
    fn swap(&mut self) {
        std::mem::swap(&mut self.left, &mut self.right);
    }
}

/// State shared by the three passes. Node arrays are indexed by node id,
/// edge arrays by edge id, and an edge is oriented from `tail` to `head`
/// once the orientation pass has reached it.
struct LeftRight<'g> {
    g: &'g Graph,
    /// DFS roots, one per connected component, in node-id order.
    roots: Vec<u32>,
    /// DFS depth of each node.
    height: Vec<u32>,
    /// The tree edge into each node (`NONE` at roots).
    parent_edge: Vec<u32>,
    tail: Vec<u32>,
    head: Vec<u32>,
    /// Height of the lowest node an edge's subtree returns to.
    lowpt: Vec<u32>,
    /// Height of the second-lowest such node.
    lowpt2: Vec<u32>,
    /// `2·lowpt`, plus one when the edge is chordal (`lowpt2` below its
    /// tail); the embedding pass multiplies it by the edge's side.
    nesting: Vec<i64>,
    /// Outgoing edges per node, sorted by `nesting`: node `v` owns
    /// `out_edges[out_start[v]..out_start[v + 1]]`.
    out_start: Vec<u32>,
    out_edges: Vec<u32>,
    /// The edge whose side an edge's side is relative to.
    reference: Vec<u32>,
    /// `1` (same side as `reference`) or `-1` (opposite side).
    side: Vec<i8>,
    /// Conflict-stack height when the testing pass reached each edge.
    stack_bottom: Vec<u32>,
    /// A return edge realising each edge's `lowpt`.
    lowpt_edge: Vec<u32>,
    stack: Vec<ConflictPair>,
}

impl<'g> LeftRight<'g> {
    /// Pass 1: orients `g` by an iterative DFS (neighbours in adjacency
    /// order) and computes lowpoints and nesting depths.
    fn orient(g: &'g Graph) -> Self {
        let (n, m) = (g.n(), g.m());
        let mut lr = LeftRight {
            g,
            roots: Vec::new(),
            height: vec![NONE; n],
            parent_edge: vec![NONE; n],
            tail: vec![NONE; m],
            head: vec![NONE; m],
            lowpt: vec![0; m],
            lowpt2: vec![0; m],
            nesting: vec![0; m],
            out_start: Vec::new(),
            out_edges: Vec::new(),
            reference: vec![NONE; m],
            side: vec![1; m],
            stack_bottom: vec![0; m],
            lowpt_edge: vec![NONE; m],
            stack: Vec::new(),
        };
        let mut next = vec![0usize; n];
        let mut dfs: Vec<u32> = Vec::new();
        for root in 0..n as u32 {
            if lr.height[root as usize] != NONE {
                continue;
            }
            lr.height[root as usize] = 0;
            lr.roots.push(root);
            dfs.push(root);
            while let Some(&v) = dfs.last() {
                let adj = g.neighbors(NodeId::new(v as usize));
                let Some(&(w, e)) = adj.get(next[v as usize]) else {
                    dfs.pop();
                    let pe = lr.parent_edge[v as usize];
                    if pe != NONE {
                        lr.finish_edge(pe);
                    }
                    continue;
                };
                next[v as usize] += 1;
                let (w, e) = (w.raw(), e.raw());
                if lr.tail[e as usize] != NONE {
                    continue; // oriented from its other end already
                }
                lr.tail[e as usize] = v;
                lr.head[e as usize] = w;
                lr.lowpt[e as usize] = lr.height[v as usize];
                lr.lowpt2[e as usize] = lr.height[v as usize];
                if lr.height[w as usize] == NONE {
                    // Tree edge: its lowpoints are final once `w` is done.
                    lr.parent_edge[w as usize] = e;
                    lr.height[w as usize] = lr.height[v as usize] + 1;
                    dfs.push(w);
                } else {
                    lr.lowpt[e as usize] = lr.height[w as usize];
                    lr.finish_edge(e);
                }
            }
        }
        lr.sort_out_edges();
        lr
    }

    /// Records the nesting depth of `e`, whose lowpoints are final, and
    /// folds them into the lowpoints of its tail's parent edge.
    fn finish_edge(&mut self, e: u32) {
        let e = e as usize;
        let v = self.tail[e] as usize;
        let chordal = self.lowpt2[e] < self.height[v];
        self.nesting[e] = 2 * i64::from(self.lowpt[e]) + i64::from(chordal);
        let pe = self.parent_edge[v];
        if pe == NONE {
            return;
        }
        let pe = pe as usize;
        let (low, low2) = (self.lowpt[e], self.lowpt2[e]);
        if low < self.lowpt[pe] {
            self.lowpt2[pe] = self.lowpt[pe].min(low2);
            self.lowpt[pe] = low;
        } else if low > self.lowpt[pe] {
            self.lowpt2[pe] = self.lowpt2[pe].min(low);
        } else {
            self.lowpt2[pe] = self.lowpt2[pe].min(low2);
        }
    }

    /// Rebuilds the outgoing-edge lists sorted by `nesting`, ties broken
    /// by edge id: a counting sort over every edge, then a stable
    /// scatter into per-tail rows.
    fn sort_out_edges(&mut self) {
        let (n, m) = (self.g.n(), self.g.m());
        // |nesting| ≤ 2·height + 1 ≤ 2n − 1.
        let offset = 2 * n as i64;
        let mut bucket = vec![0u32; 4 * n + 1];
        for &d in &self.nesting {
            bucket[(d + offset) as usize + 1] += 1;
        }
        for i in 1..bucket.len() {
            bucket[i] += bucket[i - 1];
        }
        let mut by_depth = vec![0u32; m];
        for (e, &d) in self.nesting.iter().enumerate() {
            let slot = &mut bucket[(d + offset) as usize];
            by_depth[*slot as usize] = e as u32;
            *slot += 1;
        }
        let mut start = vec![0u32; n + 1];
        for &t in &self.tail {
            start[t as usize + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut cursor = start.clone();
        let mut out = vec![0u32; m];
        for e in by_depth {
            let c = &mut cursor[self.tail[e as usize] as usize];
            out[*c as usize] = e;
            *c += 1;
        }
        self.out_start = start;
        self.out_edges = out;
    }

    fn out_of(&self, v: u32) -> std::ops::Range<usize> {
        self.out_start[v as usize] as usize..self.out_start[v as usize + 1] as usize
    }

    /// Pass 2: the left-right test proper. Returns `false` as soon as a
    /// conflict pair cannot be split.
    fn test(&mut self) -> bool {
        let mut next = vec![0usize; self.g.n()];
        let mut dfs: Vec<u32> = Vec::new();
        for root in self.roots.clone() {
            dfs.push(root);
            while let Some(&v) = dfs.last() {
                let row = self.out_of(v);
                let Some(&ei) = self.out_edges[row].get(next[v as usize]) else {
                    dfs.pop();
                    let e = self.parent_edge[v as usize];
                    if e != NONE {
                        // Back in the parent: the tree edge `e` is done.
                        self.remove_back_edges(e);
                        let u = self.tail[e as usize];
                        if !self.integrate(u, e) {
                            return false;
                        }
                        next[u as usize] += 1;
                    }
                    continue;
                };
                self.stack_bottom[ei as usize] = self.stack.len() as u32;
                let w = self.head[ei as usize];
                if self.parent_edge[w as usize] == ei {
                    dfs.push(w);
                    continue;
                }
                self.lowpt_edge[ei as usize] = ei;
                self.stack.push(ConflictPair {
                    left: Interval::EMPTY,
                    right: Interval { low: ei, high: ei },
                });
                if !self.integrate(v, ei) {
                    return false;
                }
                next[v as usize] += 1;
            }
        }
        true
    }

    /// Integrates the return edges of `ei`, the finished outgoing edge of
    /// `v`, into the constraints on `v`'s parent edge.
    fn integrate(&mut self, v: u32, ei: u32) -> bool {
        if self.lowpt[ei as usize] >= self.height[v as usize] {
            return true; // no return edge passes below `v`
        }
        let e = self.parent_edge[v as usize];
        if ei == self.out_edges[self.out_of(v).start] {
            self.lowpt_edge[e as usize] = self.lowpt_edge[ei as usize];
            true
        } else {
            self.add_constraints(ei, e)
        }
    }

    /// Whether interval `i` holds a return edge that returns higher than
    /// `b`'s lowpoint.
    fn conflicting(&self, i: Interval, b: u32) -> bool {
        !i.is_empty() && self.lowpt[i.high as usize] > self.lowpt[b as usize]
    }

    /// The lowest lowpoint among a pair's return edges.
    fn lowest(&self, p: &ConflictPair) -> u32 {
        match (p.left.low, p.right.low) {
            (NONE, r) => self.lowpt[r as usize],
            (l, NONE) => self.lowpt[l as usize],
            (l, r) => self.lowpt[l as usize].min(self.lowpt[r as usize]),
        }
    }

    /// Merges the conflict pairs of `ei` (a later sibling of the first
    /// outgoing edge under parent edge `e`) into one pair, together with
    /// the earlier siblings' pairs it conflicts with.
    fn add_constraints(&mut self, ei: u32, e: u32) -> bool {
        let mut p = ConflictPair {
            left: Interval::EMPTY,
            right: Interval::EMPTY,
        };
        // All of `ei`'s return edges must go to one side: P.right.
        loop {
            let mut q = self.stack.pop().expect("ei's return edges are stacked");
            if !q.left.is_empty() {
                q.swap();
            }
            if !q.left.is_empty() {
                return false;
            }
            if self.lowpt[q.right.low as usize] > self.lowpt[e as usize] {
                self.merge_below(&mut p.right, q.right);
            } else {
                // Returns to `lowpt(e)` itself: aligned with e's lowpoint edge.
                self.reference[q.right.low as usize] = self.lowpt_edge[e as usize];
            }
            if self.stack.len() as u32 == self.stack_bottom[ei as usize] {
                break;
            }
        }
        // Earlier siblings' return edges above lowpt(ei) go opposite: P.left.
        while let Some(&top) = self.stack.last() {
            if !self.conflicting(top.left, ei) && !self.conflicting(top.right, ei) {
                break;
            }
            let mut q = top;
            self.stack.pop();
            if self.conflicting(q.right, ei) {
                q.swap();
            }
            if self.conflicting(q.right, ei) {
                return false;
            }
            // Q.right lies below lowpt(ei): it joins P.right.
            if !q.right.is_empty() {
                self.merge_below(&mut p.right, q.right);
            }
            self.merge_below(&mut p.left, q.left);
        }
        if !(p.left.is_empty() && p.right.is_empty()) {
            self.stack.push(p);
        }
        true
    }

    /// Appends the non-empty interval `lower` below `upper`, linking
    /// `upper`'s lowest edge to `lower`'s highest.
    fn merge_below(&mut self, upper: &mut Interval, lower: Interval) {
        if upper.is_empty() {
            *upper = lower;
        } else {
            self.reference[upper.low as usize] = lower.high;
            upper.low = lower.low;
        }
    }

    /// Drops the return edges that end at the tail of the finished tree
    /// edge `e`, and records the side of `e` as that of its highest
    /// remaining return edge.
    fn remove_back_edges(&mut self, e: u32) {
        let u = self.tail[e as usize];
        let hu = self.height[u as usize];
        while let Some(top) = self.stack.last() {
            if self.lowest(top) != hu {
                break;
            }
            let p = self.stack.pop().expect("just peeked");
            if p.left.low != NONE {
                self.side[p.left.low as usize] = -1;
            }
        }
        if let Some(mut p) = self.stack.pop() {
            // Trim both intervals of the return edges ending at `u`.
            while p.left.high != NONE && self.head[p.left.high as usize] == u {
                p.left.high = self.reference[p.left.high as usize];
            }
            if p.left.high == NONE && p.left.low != NONE {
                self.reference[p.left.low as usize] = p.right.low;
                self.side[p.left.low as usize] = -1;
                p.left.low = NONE;
            }
            while p.right.high != NONE && self.head[p.right.high as usize] == u {
                p.right.high = self.reference[p.right.high as usize];
            }
            if p.right.high == NONE && p.right.low != NONE {
                self.reference[p.right.low as usize] = p.left.low;
                self.side[p.right.low as usize] = -1;
                p.right.low = NONE;
            }
            self.stack.push(p);
        }
        if self.lowpt[e as usize] < hu {
            let top = self.stack.last().expect("e's return edges are stacked");
            let (hl, hr) = (top.left.high, top.right.high);
            self.reference[e as usize] = if hl != NONE
                && (hr == NONE || self.lowpt[hl as usize] > self.lowpt[hr as usize])
            {
                hl
            } else {
                hr
            };
        }
    }

    /// Resolves every edge's side to an absolute one by following its
    /// reference chain (compressed as it goes, so `O(m)` in total).
    fn resolve_sides(&mut self) {
        let mut chain: Vec<u32> = Vec::new();
        for e in 0..self.g.m() as u32 {
            let mut x = e;
            while self.reference[x as usize] != NONE {
                chain.push(x);
                x = self.reference[x as usize];
            }
            while let Some(y) = chain.pop() {
                let r = self.reference[y as usize] as usize;
                self.side[y as usize] *= self.side[r];
                self.reference[y as usize] = NONE;
            }
        }
    }

    /// Pass 3: orders each node's outgoing edges by signed nesting depth,
    /// threads every back edge into its ancestor's rotation, and reads
    /// the rotation off the per-node circular dart lists.
    ///
    /// Edge `e` owns darts `2e` (at its tail) and `2e + 1` (at its head).
    fn embed(mut self) -> RotationSystem {
        self.resolve_sides();
        for e in 0..self.g.m() {
            self.nesting[e] *= i64::from(self.side[e]);
        }
        self.sort_out_edges();
        let n = self.g.n();
        let mut cw = vec![NONE; 2 * self.g.m()];
        let mut ccw = vec![NONE; 2 * self.g.m()];
        // Initial rotation at `v`: its parent edge, then its outgoing
        // edges in nesting order.
        let mut anchor = vec![NONE; n];
        let mut ring: Vec<u32> = Vec::new();
        for v in 0..n as u32 {
            ring.clear();
            let pe = self.parent_edge[v as usize];
            if pe != NONE {
                ring.push(2 * pe + 1);
            }
            ring.extend(self.out_edges[self.out_of(v)].iter().map(|&e| 2 * e));
            for (i, &d) in ring.iter().enumerate() {
                let succ = ring[(i + 1) % ring.len()];
                cw[d as usize] = succ;
                ccw[succ as usize] = d;
            }
            if let Some(&d) = ring.first() {
                anchor[v as usize] = d;
            }
        }
        // The innermost tree edge currently descended from each node;
        // left-side back edges stack up counterclockwise from `left_ref`.
        let mut left_ref = vec![NONE; n];
        let mut right_ref = vec![NONE; n];
        let mut next = vec![0usize; n];
        let mut dfs: Vec<u32> = Vec::new();
        for &root in &self.roots {
            dfs.push(root);
            while let Some(&v) = dfs.last() {
                let row = self.out_of(v);
                let Some(&ei) = self.out_edges[row].get(next[v as usize]) else {
                    dfs.pop();
                    continue;
                };
                next[v as usize] += 1;
                let w = self.head[ei as usize];
                if self.parent_edge[w as usize] == ei {
                    left_ref[v as usize] = 2 * ei;
                    right_ref[v as usize] = 2 * ei;
                    dfs.push(w);
                    continue;
                }
                let d = 2 * ei + 1;
                if self.side[ei as usize] == 1 {
                    // Clockwise right after `right_ref[w]`.
                    let r = right_ref[w as usize];
                    let after = cw[r as usize];
                    cw[r as usize] = d;
                    ccw[d as usize] = r;
                    cw[d as usize] = after;
                    ccw[after as usize] = d;
                } else {
                    // Counterclockwise right before `left_ref[w]`.
                    let l = left_ref[w as usize];
                    let before = ccw[l as usize];
                    ccw[l as usize] = d;
                    cw[d as usize] = l;
                    ccw[d as usize] = before;
                    cw[before as usize] = d;
                    left_ref[w as usize] = d;
                }
            }
        }
        let orders: Vec<Vec<EdgeId>> = anchor
            .iter()
            .map(|&first| {
                let mut order = Vec::new();
                let mut d = first;
                while d != NONE {
                    order.push(EdgeId::new((d / 2) as usize));
                    d = cw[d as usize];
                    if d == first {
                        break;
                    }
                }
                order
            })
            .collect();
        RotationSystem::new(self.g, orders).expect("every dart is threaded into its node's ring")
    }
}
