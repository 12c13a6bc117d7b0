//! The forest-decomposition step (Barenboim–Elkin peeling, §2.1.1/§2.1.5).
//!
//! Each *super-round* is emulated message-level: the part root broadcasts
//! its status down the spanning tree, boundary nodes exchange
//! `(root, deactivation-round)` with neighbouring parts, and two capped
//! census convergecasts bring back (a) the distinct *active* neighbouring
//! parts with edge counts, and (b) the deactivation rounds of parts that
//! deactivated in the previous super-round. A part with at most `3α`
//! active neighbour parts deactivates; whoever survives all
//! `s = Θ(log n)` super-rounds rejects (arboricity evidence).

use std::collections::HashMap;

use planartest_graph::NodeId;
use planartest_sim::tree::TreeTopology;
use planartest_sim::Engine;
use planartest_sim::Msg;

use crate::comm::{self, MergeOp};
use crate::config::TesterConfig;
use crate::error::CoreError;
use crate::partition::PartitionState;

/// Sentinel for "still active" in status messages.
const ACTIVE: u64 = u64::MAX;

/// What a part root knows when the step finishes.
#[derive(Debug, Clone, Default)]
pub(crate) struct PartPeelInfo {
    /// Super-round at which the part deactivated (kept for audits even
    /// though the merge step only needs the oriented out-edges).
    #[allow(dead_code)]
    pub deact_round: u32,
    /// Oriented out-edges in the auxiliary graph: `(target root, weight)`,
    /// at most `3α` of them.
    pub out_edges: Vec<(u32, u64)>,
}

/// Outcome of the step for one phase.
#[derive(Debug, Clone, Default)]
pub(crate) struct PeelOutcome {
    /// Root-local info per part (keyed by root raw id); parts that
    /// rejected are absent.
    pub parts: HashMap<u32, PartPeelInfo>,
    /// Roots that remained active after `s` super-rounds (they reject).
    pub rejected: Vec<NodeId>,
    /// Super-rounds actually simulated before quiescence.
    pub super_rounds_used: u32,
}

/// Root-local scratch state during the peeling.
#[derive(Debug, Clone, Default)]
struct RootScratch {
    deact_round: Option<u32>,
    /// Candidates recorded at deactivation: `(root, weight)`.
    candidates: Vec<(u32, u64)>,
    /// Candidate deactivation rounds learned so far.
    cand_deact: HashMap<u32, u32>,
}

pub(crate) fn run_forest_decomposition(
    engine: &mut Engine<'_>,
    cfg: &TesterConfig,
    state: &PartitionState,
    tree: &TreeTopology,
    neighbor_roots: &[Vec<(NodeId, u32)>],
) -> Result<PeelOutcome, CoreError> {
    let g = engine.graph();
    let n = g.n();
    let s = cfg.peel_super_rounds(n);
    let cap = cfg.peel_threshold() + 1; // 3α + 1
    let max_rounds = cfg.max_rounds;

    // Root-local knowledge, keyed by root raw id.
    let mut scratch: HashMap<u32, RootScratch> = HashMap::new();
    for v in g.nodes() {
        if state.root[v.index()] == v {
            scratch.insert(v.raw(), RootScratch::default());
        }
    }

    let mut rounds_per_super_round: u64 = 0;
    let mut super_rounds_used = 0u32;
    let mut quiesced_at: Option<u32> = None;

    for ell in 1..=(s + 1) {
        // Early exit: once every part is inactive and one extra
        // super-round has resolved same-round candidates, further
        // super-rounds carry no state changes. Charge their cost instead
        // of simulating them.
        let all_inactive = scratch.values().all(|sc| sc.deact_round.is_some());
        if let Some(q) = quiesced_at {
            if all_inactive && ell > q + 1 {
                engine.charge_rounds((s + 1 - ell + 1) as u64 * rounds_per_super_round);
                break;
            }
        }
        if all_inactive && quiesced_at.is_none() {
            quiesced_at = Some(ell - 1);
        }
        super_rounds_used = ell;
        let before = engine.stats().rounds;

        // R1: status broadcast down every part tree.
        let status_of_root: HashMap<u32, u64> = scratch
            .iter()
            .map(|(&r, sc)| (r, sc.deact_round.map_or(ACTIVE, u64::from)))
            .collect();
        let statuses = planartest_sim::tree::broadcast(
            engine,
            tree,
            |r| {
                Some(Msg::words(&[*status_of_root
                    .get(&r.raw())
                    .expect("root known")]))
            },
            max_rounds,
        )?;
        let my_status: Vec<u64> = (0..n)
            .map(|v| {
                statuses[v]
                    .as_ref()
                    .expect("all nodes are in some part")
                    .word(0)
            })
            .collect();

        // R2: boundary exchange of (my root, my part's status).
        let roots = state.root.clone();
        let nbr: Vec<Vec<(NodeId, u32)>> = neighbor_roots.to_vec();
        let my_status_c = my_status.clone();
        let received = comm::exchange(
            engine,
            move |v, w| {
                let different = nbr[v.index()]
                    .iter()
                    .any(|&(x, r)| x == w && r != roots[v.index()].raw());
                if different {
                    Some(Msg::words(&[
                        roots[v.index()].raw() as u64,
                        my_status_c[v.index()],
                    ]))
                } else {
                    None
                }
            },
            max_rounds,
        )?;

        // Local item assembly for the two censuses.
        let mut active_items: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        let mut newly_items: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for v in 0..n {
            for (_, msg) in &received[v] {
                let root = msg.word(0) as u32;
                let status = msg.word(1);
                if status == ACTIVE {
                    push_count(&mut active_items[v], root);
                } else if status + 1 == ell as u64 {
                    // Part deactivated in the previous super-round.
                    if let Some(slot) = newly_items[v].iter_mut().find(|(k, _)| *k == root) {
                        slot.1 = slot.1.min(status);
                    } else {
                        newly_items[v].push((root, status));
                    }
                }
            }
        }

        // R3: census of distinct active neighbouring parts (with weights).
        let active_census =
            comm::census(engine, tree, &active_items, cap, MergeOp::Sum, max_rounds)?;
        // R4: census of parts that deactivated last super-round.
        let newly_census = comm::census(engine, tree, &newly_items, cap, MergeOp::Min, max_rounds)?;

        // Root decisions (local computation).
        for v in g.nodes() {
            if state.root[v.index()] != v {
                continue;
            }
            let sc = scratch.get_mut(&v.raw()).expect("root known");
            // Record candidate deactivations.
            if let Some(c) = &newly_census[v.index()] {
                for &(root, round) in &c.items {
                    sc.cand_deact.entry(root).or_insert(round as u32);
                }
            }
            if sc.deact_round.is_none() {
                let census = active_census[v.index()]
                    .as_ref()
                    .expect("census reaches root");
                let active_neighbors = census.items.len();
                if !census.overflow && active_neighbors <= cfg.peel_threshold() {
                    sc.deact_round = Some(ell);
                    sc.candidates = census.items.clone();
                }
            }
        }

        rounds_per_super_round = (engine.stats().rounds - before).max(1);
    }

    // Final assembly: orientation of out-edges per §2.1.6.
    let mut outcome = PeelOutcome {
        super_rounds_used,
        ..Default::default()
    };
    for v in g.nodes() {
        if state.root[v.index()] != v {
            continue;
        }
        let sc = &scratch[&v.raw()];
        match sc.deact_round {
            None => outcome.rejected.push(v),
            Some(mine) => {
                let mut out_edges = Vec::new();
                for &(target, weight) in &sc.candidates {
                    let their = sc.cand_deact.get(&target).copied();
                    let outgoing = match their {
                        // Still active when we deactivated and never seen
                        // deactivating: either it rejects (global reject)
                        // or it deactivated later than us.
                        None => true,
                        Some(t) if t > mine => true,
                        Some(t) if t == mine => target > v.raw(),
                        Some(_) => false,
                    };
                    if outgoing {
                        out_edges.push((target, weight));
                    }
                }
                outcome.parts.insert(
                    v.raw(),
                    PartPeelInfo {
                        deact_round: mine,
                        out_edges,
                    },
                );
            }
        }
    }
    outcome.rejected.sort_unstable();
    Ok(outcome)
}

fn push_count(items: &mut Vec<(u32, u64)>, key: u32) {
    if let Some(slot) = items.iter_mut().find(|(k, _)| *k == key) {
        slot.1 += 1;
    } else {
        items.push((key, 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planartest_graph::generators::{nonplanar, planar};
    use planartest_graph::Graph;
    use planartest_sim::SimConfig;

    fn peel_graph(g: &Graph, cfg: &TesterConfig) -> PeelOutcome {
        let state = PartitionState::singletons(g);
        let tree = state.tree(g);
        let mut engine = Engine::new(g, SimConfig::default());
        let nbr = crate::partition::exchange_roots(&mut engine, &state, cfg.max_rounds).unwrap();
        run_forest_decomposition(&mut engine, cfg, &state, &tree, &nbr).unwrap()
    }

    #[test]
    fn grid_peels_without_rejection() {
        let g = planar::grid(8, 8).graph;
        let out = peel_graph(&g, &TesterConfig::new(0.1));
        assert!(out.rejected.is_empty());
        assert_eq!(out.parts.len(), 64);
        // Every part has at most 3α out-edges and correct total weight.
        let mut total_weight: u64 = 0;
        for info in out.parts.values() {
            assert!(info.out_edges.len() <= 9);
            total_weight += info.out_edges.iter().map(|&(_, w)| w).sum::<u64>();
        }
        // Every edge of the grid is oriented exactly once.
        assert_eq!(total_weight, g.m() as u64);
    }

    #[test]
    fn orientation_is_antisymmetric() {
        let g = planar::triangulated_grid(5, 5).graph;
        let out = peel_graph(&g, &TesterConfig::new(0.1));
        for (&r, info) in &out.parts {
            for &(target, _) in &info.out_edges {
                let back = &out.parts[&target];
                assert!(
                    back.out_edges.iter().all(|&(t, _)| t != r),
                    "edge {r}<->{target} oriented both ways"
                );
            }
        }
    }

    #[test]
    fn out_edges_form_dag() {
        // Follow out-edges greedily: ids must not cycle (guaranteed by the
        // deactivation-time ordering).
        let g = planar::apollonian(60, &mut rand_rng()).graph;
        let out = peel_graph(&g, &TesterConfig::new(0.1));
        assert!(out.rejected.is_empty());
        // Topological check via repeated sink removal on the aux DAG.
        let mut outdeg: HashMap<u32, usize> = HashMap::new();
        let mut incoming: HashMap<u32, Vec<u32>> = HashMap::new();
        for (&r, info) in &out.parts {
            outdeg.insert(r, info.out_edges.len());
            for &(t, _) in &info.out_edges {
                incoming.entry(t).or_default().push(r);
            }
        }
        let mut queue: Vec<u32> = outdeg
            .iter()
            .filter(|&(_, &d)| d == 0)
            .map(|(&r, _)| r)
            .collect();
        let mut removed = 0;
        while let Some(r) = queue.pop() {
            removed += 1;
            for &p in incoming.get(&r).map(|v| v.as_slice()).unwrap_or(&[]) {
                let d = outdeg.get_mut(&p).expect("known part");
                *d -= 1;
                if *d == 0 {
                    queue.push(p);
                }
            }
        }
        assert_eq!(
            removed,
            out.parts.len(),
            "out-edge orientation contains a cycle"
        );
    }

    #[test]
    fn dense_graph_rejects() {
        // K13: min active degree 12 > 9 forever.
        let g = nonplanar::complete(13).graph;
        let out = peel_graph(&g, &TesterConfig::new(0.1));
        assert_eq!(out.rejected.len(), 13);
    }

    #[test]
    fn k10_peels_fine() {
        // K10 has max degree 9 <= 3α: everyone deactivates immediately
        // (the peeling bounds arboricity only from one side).
        let g = nonplanar::complete(10).graph;
        let out = peel_graph(&g, &TesterConfig::new(0.1));
        assert!(out.rejected.is_empty());
    }

    fn rand_rng() -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(5)
    }
}
