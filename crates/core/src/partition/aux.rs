//! Part-level computations of the merging step on the auxiliary
//! (pseudo-)forest `F_i`: Cole–Vishkin 3-colouring, the CHW marking rules,
//! subtree levelling and the even/odd contraction decision.
//!
//! These are computed from root-local knowledge (each part root knows its
//! selected out-edge, its colour, and aggregates over its `F_i`-children);
//! the corresponding CONGEST cost is a constant number of `F_i`-hops, each
//! `2·depth + 2` rounds, charged by the caller (see "Round / bandwidth
//! budget per protocol" in `docs/ARCHITECTURE.md`).

use planartest_graph::NodeId;

/// The auxiliary pseudo-forest over parts: each part has at most one
/// out-edge (its selection), weights on edges, and derived children lists.
#[derive(Debug, Clone)]
pub(crate) struct AuxForest {
    /// Part roots, ascending (dense indices follow).
    pub nodes: Vec<NodeId>,
    /// Out-edge of each part: `(parent index, weight)`.
    pub parent: Vec<Option<(usize, u64)>>,
    /// In-edges (selector children) of each part.
    pub children: Vec<Vec<usize>>,
}

impl AuxForest {
    /// Builds the forest over the parts named by `roots` (ascending) from
    /// their selections, indexed by the root: `(target root, w)`.
    pub fn new(roots: Vec<NodeId>, selection: &[Option<(u32, u64)>]) -> Self {
        let mut idx = vec![usize::MAX; selection.len()];
        for (i, r) in roots.iter().enumerate() {
            idx[r.index()] = i;
        }
        let mut parent = vec![None; roots.len()];
        let mut children = vec![Vec::new(); roots.len()];
        for (fi, r) in roots.iter().enumerate() {
            if let Some((to, w)) = selection[r.index()] {
                let ti = idx[NodeId::from(to).index()];
                parent[fi] = Some((ti, w));
                // Ascending `fi` keeps every children list sorted.
                children[ti].push(fi);
            }
        }
        AuxForest {
            nodes: roots,
            parent,
            children,
        }
    }

    fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Cole–Vishkin colouring adapted to pseudo-forests: reduces the raw
    /// ids to colours in `{0, 1, 2}` that are proper along every
    /// out-edge. Returns `(colours, fi_hops)` where `fi_hops` counts the
    /// parent-colour communications to charge.
    pub fn cole_vishkin(&self) -> (Vec<u8>, u64) {
        let n = self.n();
        let mut color: Vec<u64> = self.nodes.iter().map(|r| r.raw() as u64).collect();
        let mut hops = 0u64;
        // Fictitious parent colour for roots: anything different.
        let parent_color = |color: &[u64], v: usize| -> u64 {
            match self.parent[v] {
                Some((p, _)) => color[p],
                None => u64::from(color[v] == 0),
            }
        };
        // Phase 1: iterated bit-reduction, 32-bit ids need 4 iterations to
        // reach {0..5}; run 6 for slack.
        for _ in 0..6 {
            hops += 1;
            let next: Vec<u64> = (0..n)
                .map(|v| {
                    let (c, pc) = (color[v], parent_color(&color, v));
                    debug_assert_ne!(c, pc, "improper colouring mid-CV");
                    let i = (c ^ pc).trailing_zeros() as u64;
                    2 * i + ((c >> i) & 1)
                })
                .collect();
            color = next;
        }
        debug_assert!(color.iter().all(|&c| c < 6));
        // Phase 2: eliminate colours 5, 4, 3 by shift-down + recolour.
        for target in [5u64, 4, 3] {
            hops += 2;
            let a = color.clone(); // pre-shift
            let mut b: Vec<u64> = (0..n)
                .map(|v| match self.parent[v] {
                    Some((p, _)) => a[p],
                    None => (0..3).find(|&c| c != a[v]).expect("three colours"),
                })
                .collect();
            for v in 0..n {
                if b[v] == target {
                    let pb = match self.parent[v] {
                        Some((p, _)) => b[p],
                        None => u64::MAX,
                    };
                    // Children's post-shift colour is a[v].
                    b[v] = (0..3)
                        .find(|&c| c != pb && c != a[v])
                        .expect("two forbidden colours leave one of three");
                }
            }
            color = b;
        }
        debug_assert!(color.iter().all(|&c| c < 3));
        // Verify properness along out-edges.
        for v in 0..n {
            if let Some((p, _)) = self.parent[v] {
                assert_ne!(
                    color[v], color[p],
                    "Cole-Vishkin produced an improper colouring"
                );
            }
        }
        (color.iter().map(|&c| c as u8 + 1).collect(), hops)
    }

    /// The CHW marking rules (§2.1.2 sub-step 2b) over paper-colours
    /// `{1, 2, 3}`. Returns `marked[v]` = whether `v`'s out-edge is marked.
    pub fn marking(&self, colors: &[u8]) -> Vec<bool> {
        let n = self.n();
        let mut marked = vec![false; n];
        for v in 0..n {
            match colors[v] {
                1 => {
                    let in_sum: u64 = self.children[v]
                        .iter()
                        .map(|&c| self.parent[c].expect("children have out-edges").1)
                        .sum();
                    match self.parent[v] {
                        Some((_, w_out)) if w_out >= in_sum => marked[v] = true,
                        _ => {
                            for &c in &self.children[v] {
                                marked[c] = true;
                            }
                        }
                    }
                }
                2 => {
                    let in3: Vec<usize> = self.children[v]
                        .iter()
                        .copied()
                        .filter(|&c| colors[c] == 3)
                        .collect();
                    let in3_sum: u64 = in3
                        .iter()
                        .map(|&c| self.parent[c].expect("child edge").1)
                        .sum();
                    match self.parent[v] {
                        Some((p, w_out)) if colors[p] == 3 && w_out >= in3_sum => {
                            marked[v] = true;
                        }
                        _ => {
                            for c in in3 {
                                marked[c] = true;
                            }
                        }
                    }
                }
                3 => {}
                other => unreachable!("colour {other} out of range"),
            }
        }
        marked
    }

    /// Levels within the marked subtrees, the per-tree even/odd decision,
    /// and the resulting contraction set. Returns
    /// `(contractions: child→parent pairs, max tree height, fi_hops)`.
    ///
    /// # Panics
    ///
    /// Panics if the marked edges contain a cycle — Claim 15 proves they
    /// cannot.
    pub fn contract_decisions(&self, marked: &[bool]) -> (Vec<(usize, usize)>, u32, u64) {
        let n = self.n();
        // T-parent: parent along marked out-edge.
        let t_parent =
            |v: usize| -> Option<usize> { self.parent[v].filter(|_| marked[v]).map(|(p, _)| p) };
        // Levels with cycle detection (walk each unlevelled chain up to a
        // T-root or an already-levelled node, then assign downward).
        let mut level = vec![u32::MAX; n];
        for v in 0..n {
            if level[v] != u32::MAX {
                continue;
            }
            let mut chain = vec![v];
            let mut base = 0u32;
            loop {
                let cur = *chain.last().expect("nonempty");
                match t_parent(cur) {
                    None => break, // cur is a T-root, level 0
                    Some(p) if level[p] != u32::MAX => {
                        base = level[p] + 1; // chain top hangs below p
                        break;
                    }
                    Some(p) => {
                        assert!(!chain.contains(&p), "marked edges form a cycle (Claim 15)");
                        chain.push(p);
                    }
                }
            }
            for (i, &x) in chain.iter().rev().enumerate() {
                level[x] = base + i as u32;
            }
        }
        let height = level.iter().copied().max().unwrap_or(0);

        // T-root of each node (walk up; height is small by [10]).
        let mut t_root = vec![0usize; n];
        for (v, slot) in t_root.iter_mut().enumerate() {
            let mut cur = v;
            while let Some(p) = t_parent(cur) {
                cur = p;
            }
            *slot = cur;
        }
        let mut w_even = vec![0u64; n];
        let mut w_odd = vec![0u64; n];
        for v in 0..n {
            if marked[v] {
                let w = self.parent[v].expect("marked out-edge").1;
                let bucket = if level[v] % 2 == 0 {
                    &mut w_even
                } else {
                    &mut w_odd
                };
                bucket[t_root[v]] += w;
            }
        }
        let mut contracts = Vec::new();
        for v in 0..n {
            if !marked[v] {
                continue;
            }
            let root = t_root[v];
            let contract_even = w_even[root] >= w_odd[root];
            if (level[v] % 2 == 0) == contract_even {
                contracts.push((v, self.parent[v].expect("marked").0));
            }
        }
        // F_i-hop accounting: levels down + sums up + bit down, each over
        // the tree height, plus the marking exchanges.
        let hops = 2 * (height as u64 + 1) + 4;
        (contracts, height, hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forest(parts: &[u32], sel: &[(u32, u32, u64)]) -> AuxForest {
        let mut selection = vec![None; parts.len()];
        for &(a, b, w) in sel {
            selection[a as usize] = Some((b, w));
        }
        AuxForest::new(parts.iter().map(|&r| NodeId::from(r)).collect(), &selection)
    }

    #[test]
    fn cv_proper_on_path() {
        let parts: Vec<u32> = (0..20).collect();
        let sel: Vec<(u32, u32, u64)> = (1..20).map(|i| (i, i - 1, 1)).collect();
        let f = forest(&parts, &sel);
        let (colors, hops) = f.cole_vishkin();
        assert!(colors.iter().all(|&c| (1..=3).contains(&c)));
        for v in 0..f.n() {
            if let Some((p, _)) = f.parent[v] {
                assert_ne!(colors[v], colors[p]);
            }
        }
        assert!(hops >= 6);
    }

    #[test]
    fn cv_proper_on_cycle() {
        // A directed 5-cycle (pseudo-forest with no root).
        let parts: Vec<u32> = (0..5).collect();
        let sel: Vec<(u32, u32, u64)> = (0..5).map(|i| (i, (i + 1) % 5, 1)).collect();
        let f = forest(&parts, &sel);
        let (colors, _) = f.cole_vishkin();
        for v in 0..5 {
            let (p, _) = f.parent[v].unwrap();
            assert_ne!(colors[v], colors[p], "cycle colouring must be proper");
        }
    }

    #[test]
    fn cv_proper_on_star() {
        let parts: Vec<u32> = (0..10).collect();
        let sel: Vec<(u32, u32, u64)> = (1..10).map(|i| (i, 0, i as u64)).collect();
        let f = forest(&parts, &sel);
        let (colors, _) = f.cole_vishkin();
        for v in 1..10 {
            assert_ne!(colors[v], colors[0]);
        }
    }

    #[test]
    fn marking_yields_forest_and_contractions_are_stars() {
        // Random-ish pseudo-forest: chain with some branches.
        let parts: Vec<u32> = (0..12).collect();
        let sel: Vec<(u32, u32, u64)> = vec![
            (1, 0, 5),
            (2, 0, 3),
            (3, 1, 7),
            (4, 1, 2),
            (5, 2, 2),
            (6, 5, 9),
            (7, 5, 1),
            (8, 7, 4),
            (9, 8, 4),
            (10, 9, 4),
            (11, 10, 4),
        ];
        let f = forest(&parts, &sel);
        let (colors, _) = f.cole_vishkin();
        let marked = f.marking(&colors);
        let (contracts, _h, hops) = f.contract_decisions(&marked);
        assert!(hops > 0);
        // Star property: a contraction target is never itself contracted.
        let contracted: std::collections::HashSet<usize> =
            contracts.iter().map(|&(c, _)| c).collect();
        for &(_, p) in &contracts {
            assert!(!contracted.contains(&p), "chain contraction detected");
        }
    }

    #[test]
    fn marking_on_two_cycle_breaks_it() {
        // Mutual selection is resolved by the caller, but a directed
        // 3-cycle can reach marking in the randomized variant.
        let parts: Vec<u32> = (0..3).collect();
        let sel: Vec<(u32, u32, u64)> = vec![(0, 1, 1), (1, 2, 1), (2, 0, 1)];
        let f = forest(&parts, &sel);
        let (colors, _) = f.cole_vishkin();
        let marked = f.marking(&colors);
        // Claim 15: marked graph is a forest; contract_decisions asserts it.
        let (contracts, _, _) = f.contract_decisions(&marked);
        let contracted: std::collections::HashSet<usize> =
            contracts.iter().map(|&(c, _)| c).collect();
        for &(_, p) in &contracts {
            assert!(!contracted.contains(&p));
        }
    }

    #[test]
    fn heavy_chain_contracts_majority_weight() {
        // A path where all weight sits on one parity: the decision must
        // contract at least half the marked weight (Claim 1's engine).
        let parts: Vec<u32> = (0..6).collect();
        let sel: Vec<(u32, u32, u64)> =
            vec![(1, 0, 10), (2, 1, 1), (3, 2, 10), (4, 3, 1), (5, 4, 10)];
        let f = forest(&parts, &sel);
        let (colors, _) = f.cole_vishkin();
        let marked = f.marking(&colors);
        let marked_w: u64 = (0..6)
            .filter(|&v| marked[v])
            .map(|v| f.parent[v].unwrap().1)
            .sum();
        let (contracts, _, _) = f.contract_decisions(&marked);
        let contracted_w: u64 = contracts.iter().map(|&(c, _)| f.parent[c].unwrap().1).sum();
        assert!(2 * contracted_w >= marked_w, "{contracted_w} vs {marked_w}");
    }
}
