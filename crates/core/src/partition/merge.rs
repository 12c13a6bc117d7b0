//! The merging step (§2.1.2/§2.1.6): out-edge selection, in-charge node
//! election, CHW marking via the auxiliary forest, and the star
//! contraction with the Lemma 6 tree surgery.

use std::collections::HashMap;

use planartest_graph::NodeId;
use planartest_sim::tree::{broadcast, convergecast};
use planartest_sim::Engine;
use planartest_sim::Msg;

use crate::comm;
use crate::config::TesterConfig;
use crate::error::CoreError;
use crate::partition::forest::PeelOutcome;
use crate::partition::{aux::AuxForest, PartitionState};

/// How each part selects its out-edge in the auxiliary graph.
pub(crate) enum Selection {
    /// The heaviest out-edge of the forest-decomposition orientation
    /// (deterministic algorithm, §2.1.2 sub-step 1).
    Heaviest,
    /// An explicit selection (used by the randomized §4 variant), mapping
    /// part root → `(target part root, edge weight)`.
    Explicit(HashMap<u32, (u32, u64)>),
}

const NONE_SENTINEL: u64 = u64::MAX;

/// Executes the merging step, updating `state` in place.
pub(crate) fn run_merge(
    engine: &mut Engine<'_>,
    cfg: &TesterConfig,
    state: &mut PartitionState,
    peel: &PeelOutcome,
    neighbor_roots: &[Vec<(NodeId, u32)>],
    selection: Selection,
) -> Result<(), CoreError> {
    let g = engine.graph();
    let n = g.n();
    let tree = state.tree(g);
    let max_rounds = cfg.max_rounds;

    // --- Sub-step 1: out-edge selection (root-local). ---
    let mut sel: HashMap<u32, (u32, u64)> = match selection {
        Selection::Explicit(map) => map,
        Selection::Heaviest => {
            let mut map = HashMap::new();
            for (&root, info) in &peel.parts {
                if let Some(&(target, w)) = info
                    .out_edges
                    .iter()
                    .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                {
                    map.insert(root, (target, w));
                }
            }
            map
        }
    };
    // Resolve mutual selections (possible in the randomized variant):
    // the edge becomes the out-edge of the lower id.
    let mutual: Vec<u32> = sel
        .iter()
        .filter(|&(&a, &(b, _))| a > b && sel.get(&b).map(|&(t, _)| t) == Some(a))
        .map(|(&a, _)| a)
        .collect();
    for a in mutual {
        sel.remove(&a);
    }

    // --- Designated in-charge node election (message-level). ---
    // (1) Roots broadcast their selected target down their trees.
    let sel_c = sel.clone();
    let targets = broadcast(
        engine,
        &tree,
        move |r| {
            Some(Msg::words(&[sel_c
                .get(&r.raw())
                .map_or(NONE_SENTINEL, |&(t, _)| t as u64)]))
        },
        max_rounds,
    )?;
    let target_at: Vec<u64> = (0..n)
        .map(|v| targets[v].as_ref().expect("every part broadcasts").word(0))
        .collect();
    // (2) Convergecast the minimum id of a boundary node with an edge to
    // the target part.
    let nbr = neighbor_roots.to_vec();
    let target_at_c = target_at.clone();
    let mins = convergecast(
        engine,
        &tree,
        move |node, kids: &[(NodeId, Msg)]| {
            let mut best = kids
                .iter()
                .map(|(_, m)| m.word(0))
                .min()
                .unwrap_or(u64::MAX);
            let t = target_at_c[node.index()];
            if t != NONE_SENTINEL && nbr[node.index()].iter().any(|&(_, r)| r as u64 == t) {
                best = best.min(node.raw() as u64);
            }
            Msg::words(&[best])
        },
        max_rounds,
    )?;
    // (3) Roots broadcast the winner id; the winner picks its cross edge.
    let winner_of_root: HashMap<u32, u64> = sel
        .keys()
        .map(|&r| {
            let w = mins[NodeId::from(r).index()]
                .as_ref()
                .expect("selection implies boundary edge exists")
                .word(0);
            debug_assert_ne!(w, u64::MAX, "part selected a target with no boundary edge");
            (r, w)
        })
        .collect();
    let roots_c = state.root.clone();
    let winners = broadcast(
        engine,
        &tree,
        move |r| {
            Some(Msg::words(&[winner_of_root
                .get(&r.raw())
                .copied()
                .unwrap_or(NONE_SENTINEL)]))
        },
        max_rounds,
    )?;
    // In-charge nodes and their cross endpoints.
    let mut in_charge: HashMap<u32, (NodeId, NodeId)> = HashMap::new(); // part -> (u, v)
    for v in 0..n {
        let w = winners[v].as_ref().expect("broadcast reaches all").word(0);
        if w == v as u64 {
            let t = target_at[v];
            let cross = neighbor_roots[v]
                .iter()
                .filter(|&&(_, r)| r as u64 == t)
                .map(|&(x, _)| x)
                .min()
                .expect("winner has an edge to the target part");
            in_charge.insert(roots_c[v].raw(), (NodeId::new(v), cross));
        }
    }
    // (4) Adopt notification across the designated edges (one real round).
    let in_charge_by_node: HashMap<u32, NodeId> =
        in_charge.values().map(|&(u, v)| (u.raw(), v)).collect();
    let _ = comm::exchange(
        engine,
        move |x, w| {
            if in_charge_by_node.get(&x.raw()) == Some(&w) {
                Some(Msg::words(&[1]))
            } else {
                None
            }
        },
        max_rounds,
    )?;

    // --- Sub-steps 2-3: colouring, marking, even/odd decision (charged). ---
    let all_parts: Vec<u32> = state
        .root
        .iter()
        .enumerate()
        .filter(|&(v, r)| r.index() == v)
        .map(|(_, r)| r.raw())
        .collect();
    let forest = AuxForest::new(&all_parts, &sel);
    let (colors, cv_hops) = forest.cole_vishkin();
    let marked = forest.marking(&colors);
    let (contracts, _height, mark_hops) = forest.contract_decisions(&marked);
    let hop_cost = 2 * (tree.height() as u64) + 2;
    engine.charge_rounds((cv_hops + mark_hops) * hop_cost);

    // --- Sub-step 4: contraction (state surgery + charged rounds). ---
    let members = state.members_by_root();
    for &(child_idx, parent_idx) in &contracts {
        let child_root = forest.nodes[child_idx];
        let parent_root = forest.nodes[parent_idx];
        let (u, v) = in_charge[&child_root];
        // Flip the tree path from u up to the old root (Lemma 6).
        let mut path = vec![u];
        let mut cur = u;
        while let Some(p) = state.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        debug_assert_eq!(
            cur.raw(),
            child_root,
            "in-charge node must be in the child part"
        );
        for w in path.windows(2) {
            state.parent[w[1].index()] = Some(w[0]);
        }
        state.parent[u.index()] = Some(v);
        // Everyone in the child part adopts the parent part's root.
        for &x in &members[&child_root] {
            state.root[x.index()] = NodeId::from(parent_root);
        }
    }
    engine.charge_rounds(2 * hop_cost);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use planartest_graph::generators::planar;
    use planartest_sim::SimConfig;

    /// Run one full phase (peel + merge) on a small graph and check the
    /// Lemma 6 invariants.
    #[test]
    fn one_phase_preserves_invariants() {
        let g = planar::grid(5, 5).graph;
        let cfg = TesterConfig::new(0.2);
        let mut engine = Engine::new(&g, SimConfig::default());
        let mut state = PartitionState::singletons(&g);
        let tree = state.tree(&g);
        let nbr = crate::partition::exchange_roots(&mut engine, &state, cfg.max_rounds).unwrap();
        let peel = crate::partition::forest::run_forest_decomposition(
            &mut engine,
            &cfg,
            &state,
            &tree,
            &nbr,
        )
        .unwrap();
        assert!(peel.rejected.is_empty());
        let parts_before = state.part_count();
        run_merge(
            &mut engine,
            &cfg,
            &mut state,
            &peel,
            &nbr,
            Selection::Heaviest,
        )
        .unwrap();
        let parts_after = state.part_count();
        assert!(
            parts_after < parts_before,
            "{parts_after} !< {parts_before}"
        );
        // Lemma 6: trees valid, roots consistent, parts connected.
        let t2 = state.tree(&g);
        for v in g.nodes() {
            assert_eq!(t2.root_of(v), state.root[v.index()]);
        }
        // Roots are their own roots.
        for v in g.nodes() {
            let r = state.root[v.index()];
            assert_eq!(state.root[r.index()], r, "root of part must be in the part");
            assert!(state.parent[r.index()].is_none());
        }
    }
}
