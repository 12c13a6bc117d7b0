//! The merging step (§2.1.2/§2.1.6): in-charge node election, CHW
//! marking via the auxiliary forest, and the star contraction with the
//! Lemma 6 tree surgery.

use planartest_graph::NodeId;
use planartest_sim::tree::{broadcast, convergecast, TreeTopology};
use planartest_sim::Engine;
use planartest_sim::Msg;

use crate::comm;
use crate::config::TesterConfig;
use crate::error::CoreError;
use crate::partition::{aux::AuxForest, PartitionState};

const NONE_SENTINEL: u64 = u64::MAX;

/// Executes the merging step on the phase's `tree`, updating `state` in
/// place. `sel` is each part's selected out-edge in the auxiliary graph,
/// indexed by the root: `(target root, edge weight)`.
pub(crate) fn run_merge(
    engine: &mut Engine<'_>,
    cfg: &TesterConfig,
    state: &mut PartitionState,
    tree: &TreeTopology,
    mut sel: Vec<Option<(u32, u64)>>,
    neighbor_roots: &[Vec<(NodeId, u32)>],
) -> Result<(), CoreError> {
    let n = engine.graph().n();
    let max_rounds = cfg.max_rounds;
    let roots = state.roots();

    // Resolve mutual selections (possible in the randomized variant):
    // the edge becomes the out-edge of the lower id. Clearing in place is
    // safe: a cleared part targeted a lower id, so it never closes a
    // mutual pair with a higher part.
    for &a in &roots {
        if let Some((b, _)) = sel[a.index()] {
            if b < a.raw() && sel[NodeId::from(b).index()].map(|(t, _)| t) == Some(a.raw()) {
                sel[a.index()] = None;
            }
        }
    }

    // --- Designated in-charge node election (message-level). ---
    // (1) Roots broadcast their selected target down their trees.
    let targets = broadcast(
        engine,
        tree,
        |r| {
            Some(Msg::words(&[
                sel[r.index()].map_or(NONE_SENTINEL, |(t, _)| t as u64)
            ]))
        },
        max_rounds,
    )?;
    let target_at: Vec<u64> = targets
        .iter()
        .map(|m| m.as_ref().expect("every part broadcasts").word(0))
        .collect();
    // (2) Convergecast the minimum id of a boundary node with an edge to
    // the target part.
    let mins = convergecast(
        engine,
        tree,
        |node, kids: &[(NodeId, Msg)]| {
            let mut best = kids
                .iter()
                .map(|(_, m)| m.word(0))
                .min()
                .unwrap_or(u64::MAX);
            let t = target_at[node.index()];
            if t != NONE_SENTINEL
                && neighbor_roots[node.index()]
                    .iter()
                    .any(|&(_, r)| r as u64 == t)
            {
                best = best.min(node.raw() as u64);
            }
            Msg::words(&[best])
        },
        max_rounds,
    )?;
    // (3) Roots broadcast the winner id; the winner picks its cross edge.
    let winners = broadcast(
        engine,
        tree,
        |r| {
            let winner = sel[r.index()].map_or(NONE_SENTINEL, |_| {
                let w = mins[r.index()]
                    .as_ref()
                    .expect("selection implies boundary edge exists")
                    .word(0);
                debug_assert_ne!(w, u64::MAX, "part selected a target with no boundary edge");
                w
            });
            Some(Msg::words(&[winner]))
        },
        max_rounds,
    )?;
    // In-charge node and its cross endpoint, indexed by the part root.
    let mut in_charge: Vec<Option<(NodeId, NodeId)>> = vec![None; n];
    for (v, winner) in winners.iter().enumerate() {
        if winner.as_ref().expect("broadcast reaches all").word(0) == v as u64 {
            let t = target_at[v];
            let cross = neighbor_roots[v]
                .iter()
                .filter(|&&(_, r)| r as u64 == t)
                .map(|&(x, _)| x)
                .min()
                .expect("winner has an edge to the target part");
            in_charge[state.root[v].index()] = Some((NodeId::new(v), cross));
        }
    }
    // (4) Adopt notification across the designated edges (one real round).
    comm::exchange(
        engine,
        |x, w| (in_charge[state.root[x.index()].index()] == Some((x, w))).then(|| Msg::words(&[1])),
        max_rounds,
    )?;

    // --- Sub-steps 2-3: colouring, marking, even/odd decision (charged). ---
    let forest = AuxForest::new(roots, &sel);
    let (colors, cv_hops) = forest.cole_vishkin();
    let marked = forest.marking(&colors);
    let (contracts, _height, mark_hops) = forest.contract_decisions(&marked);
    let hop_cost = 2 * (tree.height() as u64) + 2;
    engine.charge_rounds((cv_hops + mark_hops) * hop_cost);

    // --- Sub-step 4: contraction (state surgery + charged rounds). ---
    // The part each contracted part joins, indexed by the contracted root.
    let mut joins: Vec<Option<NodeId>> = vec![None; n];
    for &(child_idx, parent_idx) in &contracts {
        let child_root = forest.nodes[child_idx];
        let (u, v) =
            in_charge[child_root.index()].expect("a contracted part has an in-charge node");
        // Flip the tree path from u up to the old root (Lemma 6).
        let mut path = vec![u];
        let mut cur = u;
        while let Some(p) = state.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        debug_assert_eq!(cur, child_root, "in-charge node must be in the child part");
        for w in path.windows(2) {
            state.parent[w[1].index()] = Some(w[0]);
        }
        state.parent[u.index()] = Some(v);
        joins[child_root.index()] = Some(forest.nodes[parent_idx]);
    }
    // Everyone in a contracted part adopts the parent part's root.
    for r in &mut state.root {
        if let Some(p) = joins[r.index()] {
            *r = p;
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
        run_merge(&mut engine, &cfg, &mut state, &tree, peel.heaviest(), &nbr).unwrap();
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
