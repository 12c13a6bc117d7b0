//! Centralized audit oracles: exact violating-edge counts (Claims 8/10,
//! Corollary 9) and partition-quality auditing. Test/measurement code —
//! never consulted by the distributed algorithms.

use planartest_embed::RotationSystem;
use planartest_graph::algo::bfs::BfsTree;
use planartest_graph::{Graph, NodeId};

use crate::partition::Partition;
use crate::stage2::labels::{CrossingIndex, Label, LabeledEdge};

/// Labels every node of `root`'s component from a BFS tree and the
/// rotation's child ordering (the Stage II labelling, computed centrally).
pub fn label_nodes(g: &Graph, rot: &RotationSystem, root: NodeId) -> Vec<Option<Label>> {
    let bfs = BfsTree::build(g, root);
    let mut labels: Vec<Option<Label>> = vec![None; g.n()];
    labels[root.index()] = Some(Label::root());
    for &v in bfs.order() {
        let vl = labels[v.index()]
            .clone()
            .expect("BFS order labels parents first");
        let order = rot.order_at(v);
        if order.is_empty() {
            continue;
        }
        let start = match bfs.parent_edge(v) {
            Some(pe) => order
                .iter()
                .position(|&e| e == pe)
                .map(|i| i + 1)
                .unwrap_or(0),
            None => 0,
        };
        let mut digit = 1u32;
        for k in 0..order.len() {
            let e = order[(start + k) % order.len()];
            let w = g.other_endpoint(e, v);
            if bfs.parent(w) == Some(v) && bfs.parent_edge(w) == Some(e) {
                labels[w.index()] = Some(vl.child(digit));
                digit += 1;
            }
        }
    }
    labels
}

/// The labelled intervals of all non-tree edges of the BFS tree at `root`
/// (restricted to `root`'s component).
pub fn non_tree_intervals(g: &Graph, rot: &RotationSystem, root: NodeId) -> Vec<LabeledEdge> {
    let bfs = BfsTree::build(g, root);
    let labels = label_nodes(g, rot, root);
    let mut out = Vec::new();
    for e in g.edge_ids() {
        let (u, v) = g.endpoints(e);
        if !bfs.reached(u) || !bfs.reached(v) || bfs.is_tree_edge(g, e) {
            continue;
        }
        let (lu, lv) = (
            labels[u.index()].clone().expect("reached"),
            labels[v.index()].clone().expect("reached"),
        );
        out.push(LabeledEdge::new(lu, lv));
    }
    out
}

/// Counts the *violating* non-tree edges (Definition 7): intervals that
/// strictly interleave at least one other interval. `O(k log k)`: the
/// endpoint labels are rank-compressed, and every interval is queried
/// against a crossing index of all of them (an interval never crosses
/// itself), the index Stage II checks its samples with.
///
/// Claim 10 predicts 0 for a planar graph with a verified embedding;
/// Corollary 9 predicts `≥ γ·m` for a `γ`-far graph.
pub fn count_violating_edges(intervals: &[LabeledEdge]) -> usize {
    // Rank-compress endpoint labels (shared endpoints share ranks, which
    // the strict comparisons of the index handle correctly).
    let mut all: Vec<&Label> = Vec::with_capacity(2 * intervals.len());
    for iv in intervals {
        all.push(&iv.lo);
        all.push(&iv.hi);
    }
    all.sort_by(|a, b| a.lex_cmp(b));
    all.dedup_by(|a, b| a.lex_cmp(b) == std::cmp::Ordering::Equal);
    let rank = |l: &Label| -> u32 {
        let at = all
            .binary_search_by(|p| p.lex_cmp(l))
            .expect("endpoint inserted");
        u32::try_from(at).expect("at most 2^32 distinct labels")
    };
    let ivs: Vec<(u32, u32)> = intervals
        .iter()
        .map(|iv| (rank(&iv.lo), rank(&iv.hi)))
        .collect();
    let mut index = CrossingIndex::default();
    index.rebuild(&ivs, all.len());
    ivs.iter()
        .filter(|&&(lo, hi)| index.crosses(lo, hi))
        .count()
}

/// Quadratic reference implementation of [`count_violating_edges`] (used
/// by tests to validate the sweep).
pub fn count_violating_edges_naive(intervals: &[LabeledEdge]) -> usize {
    intervals
        .iter()
        .filter(|a| intervals.iter().any(|b| a.intersects(b)))
        .count()
}

/// Audit of a Stage-I partition against the paper's guarantees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionAudit {
    /// Every part induces a connected subgraph.
    pub parts_connected: bool,
    /// Number of parts.
    pub parts: usize,
    /// Edges between parts.
    pub cut_edges: u64,
    /// Cut fraction `cut/m` (0 if `m = 0`).
    pub cut_fraction: f64,
    /// Maximum part diameter (exact, via per-part all-pairs BFS).
    pub max_diameter: u32,
}

/// Audits a partition: connectivity, cut size and exact part diameters.
pub fn audit_partition(g: &Graph, p: &Partition) -> PartitionAudit {
    // One part per distinct root value, rather than per
    // `PartitionState::roots`: the audit must not assume that each root
    // lies in its own part.
    let mut parts = 0;
    let mut connected = true;
    let mut max_diam = 0;
    for (_, sub, _) in g.induced_parts(&p.state.root) {
        parts += 1;
        let cc = planartest_graph::algo::components::Components::build(&sub);
        if !cc.is_connected() {
            connected = false;
        } else {
            max_diam = max_diam.max(planartest_graph::algo::bfs::component_diameter(
                &sub,
                NodeId::new(0),
            ));
        }
    }
    let cut = p.state.cut_weight(g);
    PartitionAudit {
        parts_connected: connected,
        parts,
        cut_edges: cut,
        cut_fraction: if g.m() == 0 {
            0.0
        } else {
            cut as f64 / g.m() as f64
        },
        max_diameter: max_diam,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planartest_embed::demoucron::check_planarity;
    use planartest_graph::generators::{nonplanar, planar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn l(d: &[u32]) -> Label {
        Label(d.to_vec())
    }

    #[test]
    fn sweep_matches_naive_on_random_intervals() {
        let mut rng = StdRng::seed_from_u64(99);
        use rand::Rng;
        for _ in 0..50 {
            let k = rng.random_range(2..40);
            let intervals: Vec<LabeledEdge> = (0..k)
                .map(|_| {
                    let a = rng.random_range(0..30u32);
                    let mut b = rng.random_range(0..30u32);
                    if a == b {
                        b = a + 1;
                    }
                    LabeledEdge::new(l(&[a]), l(&[b]))
                })
                .collect();
            assert_eq!(
                count_violating_edges(&intervals),
                count_violating_edges_naive(&intervals),
                "{intervals:?}"
            );
        }
    }

    /// **Claim 10 refutation.** The paper asserts that a planar part with
    /// an embedding-consistent labelling has no violating edges. Our
    /// reproduction found a 7-node planar counterexample (pinned by
    /// `tests/claim10_refutation.rs`): with BFS parent 1 for the vertex
    /// stacked into face {1,2,5}, the pairs (6,2)×(1,5) and (6,5)×(1,2)
    /// cannot both be non-interleaving — one needs ℓ(5)<ℓ(2), the other
    /// the reverse — so *every* labelling of this planar graph has a
    /// violating edge. This matches book-embedding theory: the label
    /// order is a 2-page spine, which non-subhamiltonian planar graphs
    /// lack. The sound tester modes therefore reject on certified
    /// embedding failure instead.
    #[test]
    fn claim10_refutation_planar_graphs_can_violate() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut refuted = 0usize;
        for _ in 0..10 {
            let g = planar::apollonian(40, &mut rng).graph;
            let rot = check_planarity(&g).into_rotation().expect("planar");
            assert!(rot.is_planar_embedding(&g));
            let ivs = non_tree_intervals(&g, &rot, NodeId::new(0));
            if count_violating_edges(&ivs) > 0 {
                refuted += 1;
            }
        }
        assert!(refuted > 0, "the Claim 10 refutation should reproduce");
    }

    /// Some planar graphs *do* have violation-free labellings — outer
    /// cycles and trees trivially, and Claim 10's intent survives on them
    /// (Claim 8's converse direction applies).
    #[test]
    fn simple_families_are_violation_free() {
        let g = planar::cycle(12).graph;
        let rot = check_planarity(&g).into_rotation().expect("planar");
        let ivs = non_tree_intervals(&g, &rot, NodeId::new(0));
        assert_eq!(ivs.len(), 1, "a cycle has one non-tree edge");
        assert_eq!(count_violating_edges(&ivs), 0);

        let mut rng2 = StdRng::seed_from_u64(5);
        let t = planar::random_tree(30, &mut rng2).graph;
        let rot = check_planarity(&t).into_rotation().expect("planar");
        assert!(non_tree_intervals(&t, &rot, NodeId::new(0)).is_empty());
    }

    #[test]
    fn k33_has_violations_with_any_rotation() {
        // Claim 8 contrapositive: a non-planar graph has violations under
        // every labelling.
        let g = nonplanar::complete_bipartite(3, 3).graph;
        let rot = RotationSystem::from_adjacency(&g);
        let ivs = non_tree_intervals(&g, &rot, NodeId::new(0));
        assert!(count_violating_edges(&ivs) > 0);
    }

    #[test]
    fn corollary9_far_graphs_have_many_violations() {
        let mut rng = StdRng::seed_from_u64(23);
        let c = nonplanar::planar_plus_chords(60, 40, &mut rng);
        let rot = RotationSystem::from_adjacency(&c.graph);
        let ivs = non_tree_intervals(&c.graph, &rot, NodeId::new(0));
        let gamma = c.far_fraction();
        let viol = count_violating_edges(&ivs);
        assert!(
            viol as f64 >= gamma * c.graph.m() as f64,
            "violations {viol} below Corollary 9 bound {}",
            gamma * c.graph.m() as f64
        );
    }

    #[test]
    fn audit_partition_reports() {
        let g = planar::grid(5, 5).graph;
        let cfg = crate::TesterConfig::new(0.2).with_phases(4);
        let mut engine = planartest_sim::Engine::new(&g, planartest_sim::SimConfig::default());
        let p = crate::partition::run_partition(&mut engine, &cfg).unwrap();
        let audit = audit_partition(&g, &p);
        assert!(audit.parts_connected);
        assert_eq!(audit.parts, p.state.part_count());
        assert!(audit.cut_fraction <= 1.0);
    }
}
