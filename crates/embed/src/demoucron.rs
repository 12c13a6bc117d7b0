//! Demoucron–Malgrange–Pertuiset planarity testing and embedding.
//!
//! The algorithm embeds each biconnected block independently (a graph is
//! planar iff all its blocks are) and stitches the per-block rotations at
//! cut vertices. Within a block it maintains a set of faces (vertex
//! cycles), repeatedly finds the *fragments* (bridges) of the not-yet
//! embedded part, and draws a path of a fragment into a face containing
//! all its attachments. A fragment with no admissible face certifies
//! non-planarity; always preferring fragments with exactly one admissible
//! face makes the greedy choice safe (classic Demoucron invariant).
//!
//! Complexity is `O(n·m)`-ish — quadratic, certificate-producing and easy
//! to audit. Stage II embeds with the linear-time
//! [`left_right`](crate::left_right) test instead; this module is the
//! independent oracle that one is checked against.

use std::collections::HashMap;

use planartest_graph::algo::biconnected::Blocks;
use planartest_graph::{EdgeId, Graph, NodeId};

use crate::rotation::RotationSystem;
pub use crate::PlanarityCheck;

/// Tests planarity and, when planar, produces a combinatorial embedding.
///
/// The returned rotation system always satisfies
/// [`RotationSystem::is_planar_embedding`].
pub fn check_planarity(g: &Graph) -> PlanarityCheck {
    if g.n() >= 3 && g.m() > 3 * g.n() - 6 {
        return PlanarityCheck::NonPlanar;
    }
    let blocks = Blocks::build(g);
    let groups = blocks.edges_by_block(g);
    let mut orders: Vec<Vec<EdgeId>> = vec![Vec::new(); g.n()];
    for edges in &groups {
        match embed_block(g, edges) {
            None => return PlanarityCheck::NonPlanar,
            Some(block_orders) => {
                for (v, ord) in block_orders {
                    orders[v.index()].extend(ord);
                }
            }
        }
    }
    let rot = RotationSystem::new(g, orders).expect("blocks partition the edge set");
    debug_assert!(
        rot.is_planar_embedding(g),
        "Demoucron produced a non-planar rotation"
    );
    PlanarityCheck::Planar(rot)
}

/// Convenience boolean planarity test.
pub fn is_planar(g: &Graph) -> bool {
    check_planarity(g).is_planar()
}

/// State for embedding a single biconnected block, over *local* dense ids.
struct BlockCtx {
    /// Local vertex -> global node.
    global_v: Vec<NodeId>,
    /// Local edge -> global edge.
    global_e: Vec<EdgeId>,
    /// Local adjacency: `(neighbour local v, local edge)`.
    adj: Vec<Vec<(u32, u32)>>,
    /// Local edge endpoints.
    ends: Vec<(u32, u32)>,
}

impl BlockCtx {
    fn new(g: &Graph, edges: &[EdgeId]) -> Self {
        let mut local_of: HashMap<NodeId, u32> = HashMap::new();
        let mut global_v = Vec::new();
        let mut global_e = Vec::with_capacity(edges.len());
        let mut ends = Vec::with_capacity(edges.len());
        let mut adj: Vec<Vec<(u32, u32)>> = Vec::new();
        for (le, &e) in edges.iter().enumerate() {
            let (u, v) = g.endpoints(e);
            let mut local = |x: NodeId| -> u32 {
                *local_of.entry(x).or_insert_with(|| {
                    global_v.push(x);
                    adj.push(Vec::new());
                    (global_v.len() - 1) as u32
                })
            };
            let (lu, lv) = (local(u), local(v));
            global_e.push(e);
            ends.push((lu, lv));
            adj[lu as usize].push((lv, le as u32));
            adj[lv as usize].push((lu, le as u32));
        }
        BlockCtx {
            global_v,
            global_e,
            adj,
            ends,
        }
    }

    fn n(&self) -> usize {
        self.global_v.len()
    }

    fn m(&self) -> usize {
        self.global_e.len()
    }
}

/// A not-yet-embedded fragment relative to the embedded subgraph `H`.
enum Fragment {
    /// A single non-embedded edge with both endpoints in `H`.
    SingleEdge { edge: u32 },
    /// A connected component of `G − V(H)` plus its attachment edges.
    Component {
        /// Local vertices of the component (not in `H`).
        members: Vec<u32>,
        /// Attachment vertices (in `H`), deduplicated.
        attachments: Vec<u32>,
    },
}

impl Fragment {
    fn attachments<'a>(&'a self, ctx: &BlockCtx, buf: &'a mut Vec<u32>) -> &'a [u32] {
        match self {
            Fragment::SingleEdge { edge } => {
                let (a, b) = ctx.ends[*edge as usize];
                buf.clear();
                buf.push(a);
                buf.push(b);
                buf
            }
            Fragment::Component { attachments, .. } => attachments,
        }
    }
}

/// Embeds one biconnected block. Returns, for each block vertex, the
/// circular order of its incident *global* edges, or `None` if the block
/// is non-planar.
fn embed_block(g: &Graph, edges: &[EdgeId]) -> Option<Vec<(NodeId, Vec<EdgeId>)>> {
    if edges.is_empty() {
        return Some(Vec::new());
    }
    if edges.len() == 1 {
        let (u, v) = g.endpoints(edges[0]);
        return Some(vec![(u, vec![edges[0]]), (v, vec![edges[0]])]);
    }
    let ctx = BlockCtx::new(g, edges);
    if ctx.n() >= 3 && ctx.m() > 3 * ctx.n() - 6 {
        return None;
    }

    let mut in_h = vec![false; ctx.n()];
    let mut embedded = vec![false; ctx.m()];
    let mut remaining = ctx.m();

    // Initial cycle via iterative DFS until a back edge closes one.
    let cycle = find_cycle(&ctx).expect("a block with >= 2 edges is 2-connected, hence cyclic");
    for win in cycle.windows(2) {
        let le = edge_between_local(&ctx, win[0], win[1]).expect("cycle edges exist");
        embedded[le as usize] = true;
        remaining -= 1;
    }
    let le = edge_between_local(&ctx, *cycle.last().expect("nonempty"), cycle[0])
        .expect("closing edge exists");
    embedded[le as usize] = true;
    remaining -= 1;
    for &v in &cycle {
        in_h[v as usize] = true;
    }
    let mut faces: Vec<Vec<u32>> = vec![cycle.clone(), cycle.iter().rev().copied().collect()];

    // Scratch arrays reused across iterations.
    let mut comp_of = vec![u32::MAX; ctx.n()];
    let mut stamp = vec![u32::MAX; ctx.n()];
    let mut stamp_gen = 0u32;

    while remaining > 0 {
        // --- Compute fragments. ---
        let mut fragments: Vec<Fragment> = Vec::new();
        comp_of.iter_mut().for_each(|c| *c = u32::MAX);
        for s in 0..ctx.n() as u32 {
            if in_h[s as usize] || comp_of[s as usize] != u32::MAX {
                continue;
            }
            let cid = fragments.len() as u32;
            let mut members = vec![s];
            comp_of[s as usize] = cid;
            let mut head = 0;
            let mut attachments: Vec<u32> = Vec::new();
            while head < members.len() {
                let u = members[head];
                head += 1;
                for &(w, _) in &ctx.adj[u as usize] {
                    if in_h[w as usize] {
                        attachments.push(w);
                    } else if comp_of[w as usize] == u32::MAX {
                        comp_of[w as usize] = cid;
                        members.push(w);
                    }
                }
            }
            attachments.sort_unstable();
            attachments.dedup();
            fragments.push(Fragment::Component {
                members,
                attachments,
            });
        }
        for le in 0..ctx.m() as u32 {
            if embedded[le as usize] {
                continue;
            }
            let (a, b) = ctx.ends[le as usize];
            if in_h[a as usize] && in_h[b as usize] {
                fragments.push(Fragment::SingleEdge { edge: le });
            }
        }
        debug_assert!(!fragments.is_empty(), "edges remain but no fragments found");

        // --- Admissible faces per fragment. ---
        // vertex -> faces containing it.
        let mut faces_at: Vec<Vec<u32>> = vec![Vec::new(); ctx.n()];
        for (fi, f) in faces.iter().enumerate() {
            for &v in f {
                faces_at[v as usize].push(fi as u32);
            }
        }
        let mut att_buf = Vec::new();
        let mut chosen: Option<(usize, u32)> = None; // (fragment idx, face idx)
        let mut best_count = usize::MAX;
        for (i, frag) in fragments.iter().enumerate() {
            let atts = frag.attachments(&ctx, &mut att_buf);
            debug_assert!(
                atts.len() >= 2,
                "biconnected block fragments have >= 2 attachments"
            );
            let mut admissible: Option<u32> = None;
            let mut count = 0usize;
            for &fi in &faces_at[atts[0] as usize] {
                // Stamp the face's vertices, then test the attachments.
                stamp_gen += 1;
                for &v in &faces[fi as usize] {
                    stamp[v as usize] = stamp_gen;
                }
                if atts.iter().all(|&a| stamp[a as usize] == stamp_gen) {
                    count += 1;
                    if admissible.is_none() {
                        admissible = Some(fi);
                    }
                }
            }
            match (count, admissible) {
                (0, _) => return None, // fragment cannot be drawn: non-planar
                (c, Some(fi)) if c < best_count => {
                    best_count = c;
                    chosen = Some((i, fi));
                    if c == 1 {
                        break; // forced fragment — take it immediately
                    }
                }
                _ => {}
            }
        }
        let (fi_frag, fi_face) = chosen.expect("fragments nonempty and none returned NonPlanar");

        // --- Extract a path through the chosen fragment. ---
        let path: Vec<(u32, u32)> = match &fragments[fi_frag] {
            Fragment::SingleEdge { edge } => {
                let (a, b) = ctx.ends[*edge as usize];
                vec![(a, u32::MAX), (b, *edge)]
            }
            Fragment::Component {
                members,
                attachments,
            } => find_fragment_path(&ctx, members, attachments, &in_h),
        };

        // --- Mark path embedded. ---
        for &(v, le) in &path {
            if le != u32::MAX {
                debug_assert!(!embedded[le as usize]);
                embedded[le as usize] = true;
                remaining -= 1;
            }
            in_h[v as usize] = true;
        }

        // --- Split the face. ---
        let a = path[0].0;
        let b = path.last().expect("path has two ends").0;
        let interior: Vec<u32> = path[1..path.len() - 1].iter().map(|&(v, _)| v).collect();
        let face = std::mem::take(&mut faces[fi_face as usize]);
        let pa = face.iter().position(|&v| v == a).expect("a on face");
        let pb = face.iter().position(|&v| v == b).expect("b on face");
        let (arc1, arc2) = split_cycle(&face, pa, pb);
        // face1: a..b along arc1, then interior reversed (b -> a side).
        let mut f1 = arc1;
        f1.extend(interior.iter().rev());
        // face2: b..a along arc2, then interior forward.
        let mut f2 = arc2;
        f2.extend(interior.iter());
        faces[fi_face as usize] = f1;
        faces.push(f2);
    }

    // --- Derive the rotation from the face corners. ---
    rotation_from_local_faces(&ctx, &faces)
}

/// Splits cyclic `face` at positions `pa`, `pb` into the arc `a..=b` and
/// the arc `b..=a` (both inclusive of endpoints, in face order).
fn split_cycle(face: &[u32], pa: usize, pb: usize) -> (Vec<u32>, Vec<u32>) {
    let k = face.len();
    let walk = |from: usize, to: usize| -> Vec<u32> {
        let mut out = Vec::new();
        let mut i = from;
        loop {
            out.push(face[i]);
            if i == to {
                break;
            }
            i = (i + 1) % k;
        }
        out
    };
    (walk(pa, pb), walk(pb, pa))
}

fn edge_between_local(ctx: &BlockCtx, u: u32, v: u32) -> Option<u32> {
    ctx.adj[u as usize]
        .iter()
        .find(|&&(w, _)| w == v)
        .map(|&(_, e)| e)
}

/// Finds any cycle in the block (iterative DFS; first back edge closes it).
fn find_cycle(ctx: &BlockCtx) -> Option<Vec<u32>> {
    let n = ctx.n();
    let mut parent = vec![u32::MAX; n];
    let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack path, 2 done
    let mut stack: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if state[root as usize] != 0 {
            continue;
        }
        state[root as usize] = 1;
        stack.push((root, 0));
        while let Some(&mut (u, ref mut i)) = stack.last_mut() {
            if *i >= ctx.adj[u as usize].len() {
                state[u as usize] = 2;
                stack.pop();
                continue;
            }
            let (w, _e) = ctx.adj[u as usize][*i];
            *i += 1;
            if state[w as usize] == 0 {
                state[w as usize] = 1;
                parent[w as usize] = u;
                stack.push((w, 0));
            } else if state[w as usize] == 1 && parent[u as usize] != w {
                // Back edge (u, w): walk u -> ... -> w through parents.
                let mut cyc = vec![u];
                let mut x = u;
                while x != w {
                    x = parent[x as usize];
                    cyc.push(x);
                }
                return Some(cyc);
            }
        }
    }
    None
}

/// BFS through a component-fragment from one attachment to another;
/// returns `[(a, MAX), (x1, e1), ..., (b, ek)]` — each entry is a vertex
/// and the local edge used to reach it.
fn find_fragment_path(
    ctx: &BlockCtx,
    members: &[u32],
    attachments: &[u32],
    in_h: &[bool],
) -> Vec<(u32, u32)> {
    let a = attachments[0];
    let b = attachments[1];
    debug_assert_ne!(a, b);
    // BFS from a; interior steps through component members only; may end
    // at b. Use a local visited set over touched vertices.
    let mut pred: HashMap<u32, (u32, u32)> = HashMap::new(); // v -> (prev, edge)
    let mut queue = std::collections::VecDeque::new();
    let member_set: std::collections::HashSet<u32> = members.iter().copied().collect();
    queue.push_back(a);
    let mut found = false;
    'bfs: while let Some(u) = queue.pop_front() {
        if in_h[u as usize] && u != a {
            continue; // only the start may leave H
        }
        for &(w, le) in &ctx.adj[u as usize] {
            // From `a`, only step into the fragment's interior (never take
            // a direct a-b edge: that edge belongs to another fragment, or
            // is already embedded). From interior vertices, we may step to
            // interior vertices or finish at `b`.
            let allowed = if u == a {
                member_set.contains(&w)
            } else {
                member_set.contains(&w) || w == b
            };
            if !allowed || pred.contains_key(&w) || w == a {
                continue;
            }
            pred.insert(w, (u, le));
            if w == b {
                found = true;
                break 'bfs;
            }
            queue.push_back(w);
        }
    }
    debug_assert!(
        found,
        "attachments of a fragment must be connected through it"
    );
    let mut rev = vec![];
    let mut cur = b;
    while cur != a {
        let (p, e) = pred[&cur];
        rev.push((cur, e));
        cur = p;
    }
    rev.push((a, u32::MAX));
    rev.reverse();
    rev
}

/// Builds per-vertex circular orders from the final face set of a block.
fn rotation_from_local_faces(
    ctx: &BlockCtx,
    faces: &[Vec<u32>],
) -> Option<Vec<(NodeId, Vec<EdgeId>)>> {
    // next[(v, incoming edge)] = outgoing edge, from face corners.
    let mut next: HashMap<(u32, u32), u32> = HashMap::new();
    for f in faces {
        if f.is_empty() {
            continue;
        }
        let k = f.len();
        for i in 0..k {
            let p = f[i];
            let v = f[(i + 1) % k];
            let s = f[(i + 2) % k];
            let e_in = edge_between_local(ctx, p, v).expect("face edges exist");
            let e_out = edge_between_local(ctx, v, s).expect("face edges exist");
            if next.insert((v, e_in), e_out).is_some() {
                return None; // a dart appeared on two faces: inconsistent
            }
        }
    }
    let mut out = Vec::with_capacity(ctx.n());
    for v in 0..ctx.n() as u32 {
        let deg = ctx.adj[v as usize].len();
        let first = ctx.adj[v as usize][0].1;
        let mut order = Vec::with_capacity(deg);
        let mut e = first;
        loop {
            order.push(EdgeId::new(ctx.global_e[e as usize].index()));
            e = *next.get(&(v, e))?;
            if e == first {
                break;
            }
            if order.len() > deg {
                return None; // not a single cycle
            }
        }
        if order.len() != deg {
            return None;
        }
        out.push((ctx.global_v[v as usize], order));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use planartest_graph::generators::{nonplanar, planar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A planarity test and embedder.
    type Embedder = fn(&Graph) -> PlanarityCheck;

    /// Every case runs both embedders: this one and the left-right
    /// embedder it is the oracle for.
    const EMBEDDERS: [(&str, Embedder); 2] = [
        ("demoucron", check_planarity),
        ("left-right", crate::left_right::check_planarity),
    ];

    fn assert_planar(g: &Graph) {
        for (name, check) in EMBEDDERS {
            match check(g) {
                PlanarityCheck::Planar(rot) => {
                    assert!(rot.is_planar_embedding(g), "{name}: rotation must verify");
                }
                PlanarityCheck::NonPlanar => panic!("{name}: graph wrongly declared non-planar"),
            }
        }
    }

    /// Both embedders' verdict; they must agree.
    fn is_planar(g: &Graph) -> bool {
        let [(_, oracle), (name, subject)] = EMBEDDERS;
        let verdict = oracle(g).is_planar();
        assert_eq!(subject(g).is_planar(), verdict, "{name} disagrees");
        verdict
    }

    #[test]
    fn small_planar_graphs() {
        assert_planar(&Graph::empty(0));
        assert_planar(&Graph::empty(1));
        assert_planar(&Graph::empty(5));
        assert_planar(&Graph::from_edges(2, [(0, 1)]).unwrap());
        assert_planar(&Graph::from_edges(5, [(1, 3)]).unwrap());
        assert_planar(&Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap());
        assert_planar(
            &Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap(),
        );
    }

    #[test]
    fn k5_and_k33_rejected() {
        assert!(!is_planar(&nonplanar::complete(5).graph));
        assert!(!is_planar(&nonplanar::complete_bipartite(3, 3).graph));
        assert!(!is_planar(&nonplanar::complete(6).graph));
    }

    #[test]
    fn k4_and_k23_accepted() {
        assert!(is_planar(&nonplanar::complete(4).graph));
        assert!(is_planar(&nonplanar::complete_bipartite(2, 3).graph));
    }

    #[test]
    fn grids_planar() {
        assert_planar(&planar::grid(6, 7).graph);
        assert_planar(&planar::triangulated_grid(5, 5).graph);
    }

    #[test]
    fn apollonian_planar() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [3usize, 4, 5, 10, 60, 200] {
            assert_planar(&planar::apollonian(n, &mut rng).graph);
        }
    }

    #[test]
    fn outerplanar_planar() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in [3usize, 6, 25, 120] {
            assert_planar(&planar::maximal_outerplanar(n, &mut rng).graph);
        }
    }

    #[test]
    fn random_planar_planar() {
        let mut rng = StdRng::seed_from_u64(9);
        for keep in [0.3, 0.7, 1.0] {
            assert_planar(&planar::random_planar(80, keep, &mut rng).graph);
        }
    }

    #[test]
    fn trees_and_forests_planar() {
        let mut rng = StdRng::seed_from_u64(10);
        assert_planar(&planar::random_tree(100, &mut rng).graph);
        assert_planar(&Graph::from_edges(6, [(0, 1), (2, 3), (4, 5)]).unwrap());
    }

    #[test]
    fn planar_plus_chords_rejected() {
        let mut rng = StdRng::seed_from_u64(11);
        let c = nonplanar::planar_plus_chords(40, 12, &mut rng);
        assert!(!is_planar(&c.graph));
    }

    #[test]
    fn petersen_graph_rejected() {
        // The Petersen graph is a classic non-planar graph with m < 3n-6.
        let outer: Vec<(usize, usize)> = (0..5).map(|i| (i, (i + 1) % 5)).collect();
        let spokes: Vec<(usize, usize)> = (0..5).map(|i| (i, i + 5)).collect();
        let inner: Vec<(usize, usize)> = (0..5).map(|i| (5 + i, 5 + (i + 2) % 5)).collect();
        let edges: Vec<_> = outer.into_iter().chain(spokes).chain(inner).collect();
        let g = Graph::from_edges(10, edges).unwrap();
        assert_eq!(g.m(), 15); // m = 15 <= 3*10-6 = 24: Euler can't reject
        assert!(!is_planar(&g));
    }

    #[test]
    fn blocks_stitched_at_cut_vertices() {
        // Two K4s sharing a vertex, plus a pendant path.
        let mut edges = vec![];
        for i in 0..4usize {
            for j in i + 1..4 {
                edges.push((i, j));
            }
        }
        for i in 3..7usize {
            for j in i + 1..7 {
                edges.push((i, j));
            }
        }
        edges.push((6, 7));
        edges.push((7, 8));
        let g = Graph::from_edges(9, edges).unwrap();
        assert_planar(&g);
    }

    #[test]
    fn dense_graph_fast_reject() {
        let g = nonplanar::complete(30).graph;
        assert!(!is_planar(&g)); // m >> 3n-6 triggers the Euler cut-off
    }

    #[test]
    fn k33_subdivision_rejected() {
        // Subdivide every edge of K3,3 once: still non-planar, sparse.
        let k33 = nonplanar::complete_bipartite(3, 3).graph;
        let mut b = planartest_graph::GraphBuilder::new(6 + k33.m());
        for (i, (u, v)) in k33.edges().enumerate() {
            let mid = 6 + i;
            b.add_edge(u.index(), mid).unwrap();
            b.add_edge(mid, v.index()).unwrap();
        }
        let g = b.build();
        assert!(!is_planar(&g));
    }

    #[test]
    fn planar_with_many_blocks() {
        // A long chain of triangles sharing single vertices.
        let k = 40;
        let mut edges = Vec::new();
        for t in 0..k {
            let base = 2 * t;
            edges.push((base, base + 1));
            edges.push((base + 1, base + 2));
            edges.push((base, base + 2));
        }
        let g = Graph::from_edges(2 * k + 1, edges).unwrap();
        assert_planar(&g);
    }
}
