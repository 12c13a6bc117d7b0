//! Stage II: per-part planarity testing (§2.2).
//!
//! Within every part of the Stage-I partition, in parallel:
//!
//! 1. build a BFS tree from the part root (message-level);
//! 2. count `n(Gj)`, `m(Gj)` and the non-tree edges (convergecast +
//!    broadcast, message-level); reject if `m > 3n − 6`;
//! 3. compute a combinatorial embedding (the Ghaffari–Haeupler
//!    substitution: Demoucron at the root or a verified hint, with the
//!    rounds charged per \[22\]'s bound — `DESIGN.md` §3);
//! 4. derive edge labels from the embedding and distribute vertex labels
//!    down the tree (message-level, pipelined — labels are `Θ(depth)`
//!    words long);
//! 5. exchange labels across non-tree edges (message-level, pipelined);
//! 6. sample `Θ(log n/ε)` non-tree edges, ship their label pairs to the
//!    root and broadcast them back (message-level, pipelined); every node
//!    checks its assigned non-tree edges against the sample for
//!    Definition 7 violations and rejects on any hit.

pub mod labels;
#[doc(hidden)]
pub mod pack;
mod protocols;

use std::collections::HashMap;

use planartest_embed::demoucron::{check_planarity, PlanarityCheck};
use planartest_embed::RotationSystem;
use planartest_graph::{EdgeId, Graph, NodeId};
use planartest_sim::bfs::distributed_bfs;
use planartest_sim::tree::{broadcast, convergecast};
use planartest_sim::Engine;
use planartest_sim::Msg;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use self::labels::{Label, LabeledEdge};
use crate::config::{EmbeddingMode, TesterConfig};
use crate::error::CoreError;
use crate::partition::PartitionState;
use crate::tester::RejectReason;

use planartest_sim::SimStats;

pub(crate) use self::protocols::{distribute_labels, exchange_edge_labels};

/// Per-part summary recorded by Stage II (experiment inputs).
#[derive(Debug, Clone)]
pub struct PartReport {
    /// Part root.
    pub root: NodeId,
    /// Nodes in the part.
    pub n: usize,
    /// Edges inside the part.
    pub m: usize,
    /// Non-tree edges inside the part.
    pub non_tree: usize,
    /// Whether the embedding step produced a verified planar embedding.
    pub embedded_planar: bool,
    /// Sampled non-tree edges.
    pub sampled: usize,
}

/// Outcome of Stage II.
#[derive(Debug, Clone)]
pub struct Stage2Outcome {
    /// Nodes that rejected, with reasons.
    pub rejections: Vec<(NodeId, RejectReason)>,
    /// Nodes that observed a Definition 7 violation. In the paper-faithful
    /// [`EmbeddingMode::Demoucron`] mode these also reject; in the sound
    /// modes they are telemetry only, because our reproduction shows
    /// planar graphs can carry violating labellings (Claim 10 refutation,
    /// `EXPERIMENTS.md` E6).
    pub violation_witnesses: Vec<NodeId>,
    /// Per-part reports.
    pub parts: Vec<PartReport>,
}

impl Stage2Outcome {
    /// Whether every node accepted.
    pub fn accepted(&self) -> bool {
        self.rejections.is_empty()
    }
}

/// The outcome of a batched Stage II: one verdict and one stats ledger
/// per Monte-Carlo instance (seed).
#[derive(Debug, Clone)]
pub struct Stage2Batch {
    /// Per-instance outcomes, in seed order.
    pub outcomes: Vec<Stage2Outcome>,
    /// Per-instance Stage-II statistics: each instance is credited with
    /// the full cost of the seed-independent shared sub-runs (they are
    /// identical for every seed, so running them once is bit-for-bit
    /// equivalent to running them per seed) plus its *own* sample-stream
    /// runs.
    pub stats: Vec<SimStats>,
}

/// Runs Stage II over the Stage-I partition (a batch of one seed —
/// `cfg.seed`).
///
/// # Errors
///
/// Infrastructure errors only ([`CoreError`]); verdicts are reported in
/// the outcome.
pub fn run_stage2(
    engine: &mut Engine<'_>,
    cfg: &TesterConfig,
    state: &PartitionState,
) -> Result<Stage2Outcome, CoreError> {
    let mut batch = run_stage2_many(engine, cfg, &[cfg.seed], state)?;
    Ok(batch.outcomes.pop().expect("one instance"))
}

/// Runs Stage II once per seed over the same Stage-I partition, serving
/// the whole batch of Monte-Carlo instances through one pass.
///
/// Everything before the sampling step — BFS trees, counting,
/// embedding, label distribution and label exchange — is
/// seed-independent and runs **once**, with every instance credited its
/// full cost. The seed-dependent sample streams (ship sampled intervals
/// to the roots, broadcast them back down) run per seed, back to back on
/// the same engine, so each instance's verdict and statistics are
/// bit-for-bit what a sequential `run_stage2` with that seed produces.
///
/// # Errors
///
/// Infrastructure errors only ([`CoreError`]); fails fast if any
/// instance errs (e.g. a `1/poly(n)` sample overflow — rerun with other
/// seeds).
pub fn run_stage2_many(
    engine: &mut Engine<'_>,
    cfg: &TesterConfig,
    seeds: &[u64],
    state: &PartitionState,
) -> Result<Stage2Batch, CoreError> {
    let baseline = *engine.stats();
    let g = engine.graph();
    let n = g.n();
    let max_rounds = cfg.max_rounds;
    let mut rejections: Vec<(NodeId, RejectReason)> = Vec::new();

    // --- 1. BFS trees inside every part. ---
    let roots: Vec<NodeId> = g.nodes().filter(|&v| state.root[v.index()] == v).collect();
    let part_root = state.root.clone();
    let bfs = distributed_bfs(
        engine,
        &roots,
        move |v, r| part_root[v.index()] == r,
        max_rounds,
    )?;
    let tree = bfs.to_tree(g).expect("BFS parents form a forest");

    // Non-tree part edges, assigned to the higher (level, id) endpoint.
    // Each node can compute its assignment after one level exchange.
    let levels: Vec<u64> = (0..n)
        .map(|v| bfs.level[v].expect("parts are connected") as u64)
        .collect();
    let levels_c = levels.clone();
    let _ = crate::comm::exchange(
        engine,
        move |v, _| Some(Msg::words(&[levels_c[v.index()]])),
        max_rounds,
    )?;
    let assigned = assign_non_tree_edges(g, state, &bfs, &levels);

    // --- 2. Counting n(Gj), m(Gj), non-tree counts. ---
    let assigned_count: Vec<u64> = assigned.iter().map(|a| a.len() as u64).collect();
    let tree_edge_count: Vec<u64> = (0..n).map(|v| u64::from(bfs.parent[v].is_some())).collect();
    let counts = convergecast(
        engine,
        &tree,
        move |node, kids: &[(NodeId, Msg)]| {
            let mut nn = 1u64;
            let mut mm = tree_edge_count[node.index()] + assigned_count[node.index()];
            let mut nt = assigned_count[node.index()];
            for (_, m) in kids {
                nn += m.word(0);
                mm += m.word(1);
                nt += m.word(2);
            }
            Msg::words(&[nn, mm, nt])
        },
        max_rounds,
    )?;
    let mut part_counts: HashMap<u32, (u64, u64, u64)> = HashMap::new();
    for &r in &roots {
        let m = counts[r.index()].as_ref().expect("root gets counts");
        part_counts.insert(r.raw(), (m.word(0), m.word(1), m.word(2)));
    }
    // Broadcast the counts back down (nodes need the non-tree count for
    // the sampling probability).
    let pc = part_counts.clone();
    let counts_bcast = broadcast(
        engine,
        &tree,
        move |r| {
            let &(nn, mm, nt) = pc.get(&r.raw()).expect("every part counted");
            Some(Msg::words(&[nn, mm, nt]))
        },
        max_rounds,
    )?;

    // Euler bound rejection at roots.
    for &r in &roots {
        let &(nn, mm, _) = &part_counts[&r.raw()];
        if nn >= 3 && mm > 3 * nn - 6 {
            rejections.push((r, RejectReason::EulerBound));
        }
    }

    // --- 3. Embedding per part (charged substitution). ---
    let members = state.members_by_root();
    let mut reports = Vec::new();
    let mut rotation_at: Vec<Vec<NodeId>> = vec![Vec::new(); n]; // neighbour order per node
    let log_n = (n.max(2) as f64).log2().ceil() as u64;
    for &r in &roots {
        let part: &[NodeId] = &members[&r.raw()];
        let (sub, orig) = g.induced_subgraph(|v| state.root[v.index()] == r);
        let depth = part.iter().map(|&v| levels[v.index()]).max().unwrap_or(0);
        let diameter_bound = 2 * depth + 1;
        engine.charge_rounds(diameter_bound * diameter_bound.min(log_n).max(1));
        let (rot, planar) = embed_part(cfg, g, &sub, &orig);
        if !planar && !matches!(cfg.embedding, EmbeddingMode::Demoucron) {
            // Sound modes: the certified non-planarity of the part is the
            // rejection evidence (it exists whenever the part is far).
            rejections.push((r, RejectReason::EmbeddingFailed));
        }
        for v in sub.nodes() {
            let order: Vec<NodeId> = rot
                .order_at(v)
                .iter()
                .map(|&e| orig[sub.other_endpoint(e, v).index()])
                .collect();
            rotation_at[orig[v.index()].index()] = order;
        }
        let &(nn, mm, nt) = &part_counts[&r.raw()];
        reports.push(PartReport {
            root: r,
            n: nn as usize,
            m: mm as usize,
            non_tree: nt as usize,
            embedded_planar: planar,
            sampled: 0,
        });
    }

    // --- 4. Edge digits + label distribution (message-level). ---
    // Each node numbers its BFS children by rotation order after the
    // parent edge.
    let mut digit_of: Vec<HashMap<u32, u32>> = vec![HashMap::new(); n];
    for v in g.nodes() {
        let order = &rotation_at[v.index()];
        if order.is_empty() {
            continue;
        }
        let children: std::collections::HashSet<u32> =
            bfs.children[v.index()].iter().map(|c| c.raw()).collect();
        let start = match bfs.parent[v.index()] {
            Some(p) => order
                .iter()
                .position(|&w| w == p)
                .map(|i| i + 1)
                .unwrap_or(0),
            None => 0,
        };
        let mut digit = 1u32;
        for k in 0..order.len() {
            let w = order[(start + k) % order.len()];
            if children.contains(&w.raw()) {
                digit_of[v.index()].insert(w.raw(), digit);
                digit += 1;
            }
        }
    }
    let node_labels = distribute_labels(engine, &tree, &digit_of, max_rounds)?;

    // --- 5. Label exchange across assigned non-tree edges. ---
    let other_labels = exchange_edge_labels(engine, g, &assigned, &node_labels, max_rounds)?;

    // Assemble labelled intervals per assigned edge.
    let mut intervals: Vec<Vec<LabeledEdge>> = vec![Vec::new(); n];
    for v in 0..n {
        for (i, _e) in assigned[v].iter().enumerate() {
            let mine = node_labels[v].clone();
            let theirs = Label(other_labels[v][i].clone());
            intervals[v].push(LabeledEdge::new(mine, theirs));
        }
    }

    // Everything up to here is seed-independent: credit the shared cost
    // to every instance in full (the runs are identical per seed, so
    // executing them once is bit-for-bit equivalent).
    let shared_stats = engine.stats().delta_since(&baseline);
    let shared_rejections = rejections;

    // --- 6. Sampling and violation detection (per seed). ---
    let s_target = cfg.sample_size(n) as f64;
    let mut all_sample_items: Vec<Vec<Vec<Msg>>> = Vec::with_capacity(seeds.len());
    let mut all_sampled_per_part: Vec<HashMap<u32, usize>> = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let mut sample_items: Vec<Vec<Msg>> = vec![Vec::new(); n];
        let mut sampled_per_part: HashMap<u32, usize> = HashMap::new();
        for v in 0..n {
            if assigned[v].is_empty() {
                continue;
            }
            let root = state.root[v].raw();
            let nt = counts_bcast[v].as_ref().expect("counts broadcast").word(2);
            if nt == 0 {
                continue;
            }
            let p = (s_target / nt as f64).min(1.0);
            let mut rng = sample_rng(seed, v as u64);
            for iv in &intervals[v] {
                if rng.random_bool(p) {
                    *sampled_per_part.entry(root).or_insert(0) += 1;
                    sample_items[v].extend(encode_interval(v as u64, iv));
                }
            }
        }
        // Overflow guard (1/poly(n) event per instance): the root would
        // abort; we fail the batch fast so callers can rerun with other
        // seeds.
        for (&root, &count) in &sampled_per_part {
            let budget = (4.0 * s_target).ceil() as usize + 8;
            if count > budget {
                let _ = root;
                return Err(CoreError::SampleOverflow {
                    drawn: count,
                    budget,
                });
            }
        }
        all_sample_items.push(sample_items);
        all_sampled_per_part.push(sampled_per_part);
    }

    // Ship every instance's samples to the roots, then broadcast each
    // sample set back down — the only seed-dependent engine runs. All
    // up-streams run before all broadcasts: interleaving them per seed
    // frees and re-faults each seed's broadcast buffers, which measured
    // ~8% slower on 16-seed batches served on a 2-vCPU host.
    let collected = all_sample_items
        .into_iter()
        .map(|items| crate::comm::up_stream(engine, &tree, items, max_rounds))
        .collect::<Result<Vec<_>, _>>()?;
    let mut all_down_payloads: Vec<Vec<Vec<Msg>>> = Vec::with_capacity(seeds.len());
    let mut all_root_samples: Vec<HashMap<u32, Vec<LabeledEdge>>> = Vec::with_capacity(seeds.len());
    for (collected_k, _) in &collected {
        let mut down_payload: Vec<Vec<Msg>> = vec![Vec::new(); n];
        let mut sampled_intervals_at_root: HashMap<u32, Vec<LabeledEdge>> = HashMap::new();
        for &r in &roots {
            let words = decode_streams(&collected_k[r.index()]);
            sampled_intervals_at_root.insert(r.raw(), words.clone());
            down_payload[r.index()] = words
                .iter()
                .flat_map(|iv| encode_interval(r.raw() as u64, iv))
                .collect();
        }
        all_down_payloads.push(down_payload);
        all_root_samples.push(sampled_intervals_at_root);
    }
    let received = all_down_payloads
        .into_iter()
        .map(|p| crate::comm::stream_broadcast(engine, &tree, p, max_rounds))
        .collect::<Result<Vec<_>, _>>()?;

    // Local violation checks, per instance.
    let paper_mode = matches!(cfg.embedding, EmbeddingMode::Demoucron);
    let mut outcomes = Vec::with_capacity(seeds.len());
    let mut stats = Vec::with_capacity(seeds.len());
    for (k, ((_, up_report), (_received_k, down_report))) in
        collected.iter().zip(&received).enumerate()
    {
        let mut rejections = shared_rejections.clone();
        let mut violation_witnesses = Vec::new();
        for v in 0..n {
            if intervals[v].is_empty() {
                continue;
            }
            // The pipelined broadcast delivers each root's sample list
            // down its tree verbatim and in FIFO order, so every member
            // checks against exactly the list already decoded at the
            // root — borrow it instead of re-decoding the received
            // stream at all n nodes (which made the local check rival
            // the engine run itself in the batched sweep).
            let sample: &[LabeledEdge] = &all_root_samples[k][&state.root[v].raw()];
            #[cfg(debug_assertions)]
            if state.root[v].index() != v {
                let rx: Vec<(NodeId, Msg)> = _received_k[v]
                    .iter()
                    .map(|m| (NodeId::new(0), m.clone()))
                    .collect();
                debug_assert_eq!(
                    decode_streams(&rx),
                    sample,
                    "broadcast must deliver the root's sample list verbatim"
                );
            }
            'outer: for iv in &intervals[v] {
                for s in sample {
                    if iv.intersects(s) {
                        violation_witnesses.push(NodeId::new(v));
                        if paper_mode {
                            rejections.push((NodeId::new(v), RejectReason::ViolatingEdge));
                        }
                        break 'outer;
                    }
                }
            }
        }
        rejections.sort_by_key(|&(v, _)| v);
        rejections.dedup_by_key(|&mut (v, _)| v);
        let mut parts = reports.clone();
        for rep in &mut parts {
            rep.sampled = all_sampled_per_part[k]
                .get(&rep.root.raw())
                .copied()
                .unwrap_or(0);
        }
        let mut instance_stats = shared_stats;
        instance_stats.absorb(*up_report);
        instance_stats.absorb(*down_report);
        outcomes.push(Stage2Outcome {
            rejections,
            violation_witnesses,
            parts,
        });
        stats.push(instance_stats);
    }
    Ok(Stage2Batch { outcomes, stats })
}

/// Assigns each intra-part non-tree edge to its higher `(level, id)`
/// endpoint; returns the assigned edge ids per node.
fn assign_non_tree_edges(
    g: &Graph,
    state: &PartitionState,
    bfs: &planartest_sim::bfs::DistBfs,
    levels: &[u64],
) -> Vec<Vec<EdgeId>> {
    let mut assigned: Vec<Vec<EdgeId>> = vec![Vec::new(); g.n()];
    for e in g.edge_ids() {
        let (u, v) = g.endpoints(e);
        if state.root[u.index()] != state.root[v.index()] {
            continue; // cut edge: not part of any Gj
        }
        if bfs.parent[u.index()] == Some(v) || bfs.parent[v.index()] == Some(u) {
            continue; // tree edge
        }
        let key = |x: NodeId| (levels[x.index()], x.raw());
        let owner = if key(u) > key(v) { u } else { v };
        assigned[owner.index()].push(e);
    }
    assigned
}

/// Obtains a rotation for one part: `(rotation, verified planar)`.
///
/// `orig` maps sub-graph node ids back to whole-graph ids (for hints).
fn embed_part(
    cfg: &TesterConfig,
    g: &Graph,
    sub: &Graph,
    orig: &[NodeId],
) -> (RotationSystem, bool) {
    match &cfg.embedding {
        EmbeddingMode::Hint(hint) => {
            // Restrict the whole-graph rotation to the part: planar
            // embeddings stay planar under edge/vertex deletion.
            let mut new_of = vec![usize::MAX; g.n()];
            for (nv, &ov) in orig.iter().enumerate() {
                new_of[ov.index()] = nv;
            }
            let mut orders = Vec::with_capacity(sub.n());
            for v in sub.nodes() {
                let ov = orig[v.index()];
                let mut ord = Vec::new();
                for &e in hint.order_at(ov) {
                    let ow = g.other_endpoint(e, ov);
                    let nw = new_of[ow.index()];
                    if nw != usize::MAX {
                        if let Some(se) = sub.edge_between(v, NodeId::new(nw)) {
                            ord.push(se);
                        }
                    }
                }
                orders.push(ord);
            }
            match RotationSystem::new(sub, orders) {
                Ok(rot) if rot.is_planar_embedding(sub) => (rot, true),
                // Hint did not verify: fall back to the certified embedder
                // so soundness is preserved.
                _ => match check_planarity(sub) {
                    PlanarityCheck::Planar(rot) => (rot, true),
                    PlanarityCheck::NonPlanar => (RotationSystem::from_adjacency(sub), false),
                },
            }
        }
        EmbeddingMode::Demoucron | EmbeddingMode::DemoucronStrict => match check_planarity(sub) {
            PlanarityCheck::Planar(rot) => (rot, true),
            PlanarityCheck::NonPlanar => (RotationSystem::from_adjacency(sub), false),
        },
    }
}

/// Encodes `(origin, interval)` into bandwidth-sized chunks: payload
/// words are the two packed labels
/// ([`labels::pack_label`] — digits ride 16/4/2 to a word instead of
/// one per word), each message is `[origin, w1, w2, w3]`. Packing is
/// what keeps the sample broadcast — the tester's dominant message
/// volume — at the model's `O(log n)`-bits-per-message density.
fn encode_interval(origin: u64, iv: &LabeledEdge) -> Vec<Msg> {
    let mut words: Vec<u64> = Vec::new();
    labels::pack_label(&iv.lo.0, &mut words);
    labels::pack_label(&iv.hi.0, &mut words);
    // Prefix with the total word count so the decoder can frame it.
    let mut framed = vec![words.len() as u64];
    framed.extend(words);
    framed
        .chunks(3)
        .map(|c| {
            let mut w = vec![origin];
            w.extend_from_slice(c);
            Msg::from(w)
        })
        .collect()
}

/// Decodes interleaved chunk streams back into intervals (grouping by the
/// origin word, framing by the length prefix).
fn decode_streams(msgs: &[(NodeId, Msg)]) -> Vec<LabeledEdge> {
    let mut buffers: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for (_, m) in msgs {
        let w = m.as_words();
        let origin = w[0];
        if !buffers.contains_key(&origin) {
            order.push(origin);
        }
        buffers
            .entry(origin)
            .or_default()
            .extend_from_slice(&w[1..]);
    }
    let mut out = Vec::new();
    for origin in order {
        let words = &buffers[&origin];
        let mut i = 0usize;
        while i < words.len() {
            let total = words[i] as usize;
            let body = &words[i + 1..i + 1 + total];
            i += 1 + total;
            let (lo, used_lo) = labels::unpack_label(body);
            let (hi, used_hi) = labels::unpack_label(&body[used_lo..]);
            debug_assert_eq!(used_lo + used_hi, total, "interval framing corrupted");
            out.push(LabeledEdge {
                lo: Label(lo),
                hi: Label(hi),
            });
        }
    }
    out
}

fn sample_rng(seed: u64, node: u64) -> StdRng {
    let mut x = seed ^ node.wrapping_mul(0xD1B54A32D192ED03);
    x ^= x >> 29;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^= x >> 32;
    StdRng::seed_from_u64(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use planartest_graph::generators::{nonplanar, planar};
    use planartest_sim::SimConfig;

    fn stage2_singleton_partition(g: &Graph, cfg: &TesterConfig) -> Stage2Outcome {
        // One part covering the whole (connected) graph: root 0 spanning
        // tree discovered by the BFS itself, so seed the state with a
        // valid tree first (use a centralized BFS for the fixture).
        let t = planartest_graph::algo::bfs::BfsTree::build(g, NodeId::new(0));
        let state = PartitionState {
            root: vec![NodeId::new(0); g.n()],
            parent: g.nodes().map(|v| t.parent(v)).collect(),
        };
        let mut engine = Engine::new(g, SimConfig::default());
        run_stage2(&mut engine, cfg, &state).unwrap()
    }

    #[test]
    fn planar_parts_accept() {
        let cfg = TesterConfig::new(0.2);
        for g in [
            planar::grid(7, 7).graph,
            planar::triangulated_grid(6, 6).graph,
            planar::apollonian(60, &mut rng()).graph,
            planar::cycle(17).graph,
            planar::path(9).graph,
        ] {
            let out = stage2_singleton_partition(&g, &cfg);
            assert!(
                out.accepted(),
                "planar graph rejected: {:?}",
                out.rejections
            );
            assert!(out.parts[0].embedded_planar);
        }
    }

    #[test]
    fn dense_part_rejected_by_euler() {
        let g = nonplanar::complete(8).graph;
        let out = stage2_singleton_partition(&g, &TesterConfig::new(0.2));
        assert!(out
            .rejections
            .iter()
            .any(|&(_, r)| r == RejectReason::EulerBound));
    }

    #[test]
    fn k33_rejected_soundly_and_violations_witnessed() {
        // K3,3: 9 edges <= 3*6-6 = 12, so the Euler check is silent. The
        // sound default rejects via the certified embedding failure; the
        // paper-faithful mode rejects via violating edges.
        let g = nonplanar::complete_bipartite(3, 3).graph;
        let out = stage2_singleton_partition(&g, &TesterConfig::new(0.2));
        assert!(!out.accepted(), "K3,3 must be rejected");
        assert!(out
            .rejections
            .iter()
            .any(|&(_, r)| r == RejectReason::EmbeddingFailed));
        assert!(!out.violation_witnesses.is_empty(), "Claim 8 direction");

        let paper = TesterConfig::new(0.2).with_embedding(EmbeddingMode::Demoucron);
        let out = stage2_singleton_partition(&g, &paper);
        assert!(out
            .rejections
            .iter()
            .any(|&(_, r)| r == RejectReason::ViolatingEdge));
    }

    #[test]
    fn petersen_rejected() {
        let outer: Vec<(usize, usize)> = (0..5).map(|i| (i, (i + 1) % 5)).collect();
        let spokes: Vec<(usize, usize)> = (0..5).map(|i| (i, i + 5)).collect();
        let inner: Vec<(usize, usize)> = (0..5).map(|i| (5 + i, 5 + (i + 2) % 5)).collect();
        let edges: Vec<_> = outer.into_iter().chain(spokes).chain(inner).collect();
        let g = Graph::from_edges(10, edges).unwrap();
        let out = stage2_singleton_partition(&g, &TesterConfig::new(0.2));
        assert!(!out.accepted());
    }

    #[test]
    fn strict_mode_rejects_at_embedding() {
        let g = nonplanar::complete_bipartite(3, 3).graph;
        let cfg = TesterConfig::new(0.2).with_embedding(EmbeddingMode::DemoucronStrict);
        let out = stage2_singleton_partition(&g, &cfg);
        assert!(out
            .rejections
            .iter()
            .any(|&(_, r)| r == RejectReason::EmbeddingFailed));
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2)
    }
}
