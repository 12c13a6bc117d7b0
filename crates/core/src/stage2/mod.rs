//! Stage II: per-part planarity testing (§2.2).
//!
//! Within every part of the Stage-I partition, in parallel:
//!
//! 1. build a BFS tree from the part root (message-level);
//! 2. count `n(Gj)`, `m(Gj)` and the non-tree edges (convergecast +
//!    broadcast, message-level); reject if `m > 3n − 6`;
//! 3. compute a combinatorial embedding (the Ghaffari–Haeupler
//!    substitution: the linear-time left-right embedder at the root, with
//!    the rounds charged per \[22\]'s bound — "Round / bandwidth budget
//!    per protocol" in `docs/ARCHITECTURE.md`);
//! 4. derive edge labels from the embedding and distribute vertex labels
//!    down the tree (message-level, pipelined — labels are `Θ(depth)`
//!    words long);
//! 5. exchange labels across non-tree edges (message-level, pipelined);
//! 6. sample `Θ(log n/ε)` non-tree edges, ship their label pairs to the
//!    root (message-level, pipelined) and broadcast them back (pipelined;
//!    its cost is computed exactly in closed form, and debug builds also
//!    run it message by message as the oracle); every node checks its
//!    assigned non-tree edges against the sample for Definition 7
//!    violations and rejects on any hit.
//!
//! Steps 1–5 read the graph and the configuration, never the seed:
//! `Stage2Prefix::prepare` runs them once and keeps what step 6 reads,
//! and `Stage2Prefix::sample` runs step 6 for any batch of seeds
//! (the split behind [`crate::Prepared`]).

pub mod labels;
#[doc(hidden)]
pub mod pack;
mod protocols;

use std::cmp::Ordering;
use std::collections::HashMap;
use std::mem::size_of;

use planartest_embed::{check_planarity, PlanarityCheck, RotationSystem};
use planartest_graph::{EdgeId, Graph, NodeId};
use planartest_sim::tree::{broadcast, convergecast, TreeTopology};
use planartest_sim::Engine;
use planartest_sim::Msg;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use self::labels::{Label, LabeledEdge};
use crate::config::{EmbeddingMode, TesterConfig};
use crate::error::CoreError;
use crate::partition::{part_bfs, PartitionState};
use crate::tester::RejectReason;

use planartest_sim::SimStats;

pub(crate) use self::protocols::{distribute_labels, exchange_edge_labels};

/// Per-part summary recorded by Stage II (experiment inputs).
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// [`EmbeddingMode::Paper`] mode these also reject; in the strict
    /// mode they are telemetry only, because our reproduction shows
    /// planar graphs can carry violating labellings (Claim 10 refutation,
    /// `tests/claim10_refutation.rs`).
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
/// the whole batch of Monte-Carlo instances through one pass on
/// `engine`: the seed-independent steps 1–5 once, then step 6 per seed.
///
/// A thin wrapper over the split that [`crate::PlanarityTester::prepare`]
/// and [`crate::Prepared::sample`] expose. Steps 1–5 — BFS trees,
/// counting, embedding, label distribution and label exchange — run
/// once, with every instance credited their full cost. The sample
/// streams run per seed: shipping the sampled intervals to the roots is
/// an engine run, back to back on `engine`; broadcasting them back down
/// is costed in closed form (`comm::stream_broadcast_cost`, the exact
/// report of the engine run, which debug builds also execute on a
/// scratch engine and compare). So each instance's verdict and
/// statistics are bit-for-bit what a sequential `run_stage2` with that
/// seed produces.
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
    Stage2Prefix::prepare(engine, cfg, state)?.sample(engine, cfg, seeds)
}

/// What Stage II's seed-independent steps 1–5 leave for step 6: the
/// part trees, counts and reports, the shared cost and rejections, and
/// every node's assigned non-tree edges with their labels. It borrows
/// no graph.
#[derive(Debug)]
pub(crate) struct Stage2Prefix {
    /// The part roots, ascending.
    roots: Vec<NodeId>,
    /// Each node's part root.
    root: Vec<NodeId>,
    /// The BFS forest of the parts (step 1).
    tree: TreeTopology,
    /// One report per part, in root order, with `sampled` = 0.
    reports: Vec<PartReport>,
    /// Each node's copy of its part's non-tree count (step 2's
    /// broadcast), which sets its sampling probability.
    non_tree: Vec<u64>,
    /// The cost of steps 1–5, credited in full to every seed.
    stats: SimStats,
    /// Steps 2–3's rejections (Euler bound, strict embedding failure).
    rejections: Vec<(NodeId, RejectReason)>,
    /// Every node's label (step 4), stored once: node `v`'s digits are
    /// `digits[label_at[v]..label_at[v + 1]]`.
    digits: Vec<u32>,
    label_at: Vec<usize>,
    /// Every node's assigned non-tree edges as label intervals, each the
    /// `(lo, hi)` pair of its endpoints in label order: node `v`'s are
    /// `edges[edge_at[v]..edge_at[v + 1]]`.
    edges: Vec<(NodeId, NodeId)>,
    edge_at: Vec<usize>,
}

impl Stage2Prefix {
    /// Runs steps 1–5 on `engine` over the Stage-I partition.
    pub(crate) fn prepare(
        engine: &mut Engine<'_>,
        cfg: &TesterConfig,
        state: &PartitionState,
    ) -> Result<Self, CoreError> {
        let baseline = *engine.stats();
        let g = engine.graph();
        let n = g.n();
        let max_rounds = cfg.max_rounds;
        let mut rejections: Vec<(NodeId, RejectReason)> = Vec::new();

        // --- 1. BFS trees inside every part, then a level exchange. ---
        let roots = state.roots();
        let (bfs, levels) = part_bfs(engine, state, &roots, max_rounds)?;
        let tree = bfs.to_tree(g).expect("BFS parents form a forest");
        // Non-tree part edges, assigned to the higher (level, id) endpoint.
        // Each node can compute its assignment after the level exchange.
        let assigned = assign_non_tree_edges(g, state, &bfs, &levels);

        // --- 2. Counting n(Gj), m(Gj), non-tree counts. ---
        let counts = convergecast(
            engine,
            &tree,
            |node, kids: &[(NodeId, Msg)]| {
                let own = assigned[node.index()].len() as u64;
                let mut nn = 1u64;
                let mut mm = u64::from(bfs.parent[node.index()].is_some()) + own;
                let mut nt = own;
                for (_, m) in kids {
                    nn += m.word(0);
                    mm += m.word(1);
                    nt += m.word(2);
                }
                Msg::words(&[nn, mm, nt])
            },
            max_rounds,
        )?;
        // Broadcast the counts back down (nodes need the non-tree count
        // for the sampling probability).
        let counts_bcast = broadcast(
            engine,
            &tree,
            |r| Some(counts[r.index()].clone().expect("every part counted")),
            max_rounds,
        )?;
        let non_tree: Vec<u64> = counts_bcast
            .iter()
            .map(|c| c.as_ref().expect("counts broadcast").word(2))
            .collect();

        // Euler bound rejection at roots.
        for &r in &roots {
            let c = counts[r.index()].as_ref().expect("root gets counts");
            let (nn, mm) = (c.word(0), c.word(1));
            if nn >= 3 && mm > 3 * nn - 6 {
                rejections.push((r, RejectReason::EulerBound));
            }
        }

        // --- 3. Embedding per part (charged substitution). ---
        // Each part's BFS depth, indexed by the root.
        let mut depth = vec![0u64; n];
        for (v, &level) in levels.iter().enumerate() {
            let r = state.root[v].index();
            depth[r] = depth[r].max(level);
        }
        let mut reports = Vec::new();
        let mut rotation_at: Vec<Vec<NodeId>> = vec![Vec::new(); n]; // neighbour order per node
        let log_n = (n.max(2) as f64).log2().ceil() as u64;
        for &r in &roots {
            let (sub, orig) = g.induced_subgraph(|v| state.root[v.index()] == r);
            let diameter_bound = 2 * depth[r.index()] + 1;
            engine.charge_rounds(diameter_bound * diameter_bound.min(log_n).max(1));
            let (rot, planar) = embed_part(&sub);
            if !planar && cfg.embedding == EmbeddingMode::Strict {
                // Strict mode: the certified non-planarity of the part is
                // the rejection evidence (it exists whenever the part is
                // far).
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
            let c = counts[r.index()].as_ref().expect("root gets counts");
            reports.push(PartReport {
                root: r,
                n: c.word(0) as usize,
                m: c.word(1) as usize,
                non_tree: c.word(2) as usize,
                embedded_planar: planar,
                sampled: 0,
            });
        }

        // --- 4. Edge digits + label distribution (message-level). ---
        // Each node numbers its BFS children by rotation order after the
        // parent edge; a child's digit is indexed by the child (0 = none).
        let mut digit: Vec<u32> = vec![0; n];
        for v in g.nodes() {
            let order = &rotation_at[v.index()];
            if order.is_empty() {
                continue;
            }
            let start = match bfs.parent[v.index()] {
                Some(p) => order
                    .iter()
                    .position(|&w| w == p)
                    .map(|i| i + 1)
                    .unwrap_or(0),
                None => 0,
            };
            let mut next = 1u32;
            for k in 0..order.len() {
                let w = order[(start + k) % order.len()];
                if bfs.parent[w.index()] == Some(v) {
                    digit[w.index()] = next;
                    next += 1;
                }
            }
        }
        let node_labels = distribute_labels(engine, &tree, &digit, max_rounds)?;

        // --- 5. Label exchange across assigned non-tree edges. ---
        // Each owner learns the other endpoint's label, which is that
        // node's own: keep every label once and each edge as its node
        // pair in label order.
        let other_labels = exchange_edge_labels(engine, g, &assigned, &node_labels, max_rounds)?;
        let mut label_at = Vec::with_capacity(n + 1);
        let mut digits = Vec::with_capacity(node_labels.iter().map(Label::len).sum());
        label_at.push(0);
        for label in &node_labels {
            digits.extend_from_slice(&label.0);
            label_at.push(digits.len());
        }
        let mut edge_at = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(assigned.iter().map(Vec::len).sum());
        edge_at.push(0);
        for (v, owned) in assigned.iter().enumerate() {
            let v = NodeId::new(v);
            for (i, &e) in owned.iter().enumerate() {
                let w = g.other_endpoint(e, v);
                debug_assert_eq!(
                    other_labels[v.index()][i],
                    node_labels[w.index()].0,
                    "the exchange delivers the other endpoint's label"
                );
                edges.push(
                    match node_labels[v.index()].lex_cmp(&node_labels[w.index()]) {
                        Ordering::Less => (v, w),
                        Ordering::Greater => (w, v),
                        Ordering::Equal => panic!("a non-tree edge cannot connect equal labels"),
                    },
                );
            }
            edge_at.push(edges.len());
        }

        Ok(Stage2Prefix {
            roots,
            root: state.root.clone(),
            tree,
            reports,
            non_tree,
            stats: engine.stats().delta_since(&baseline),
            rejections,
            digits,
            label_at,
            edges,
            edge_at,
        })
    }

    /// Node `v`'s label digits.
    fn label(&self, v: NodeId) -> &[u32] {
        &self.digits[self.label_at[v.index()]..self.label_at[v.index() + 1]]
    }

    /// Node `v`'s assigned non-tree edges, as `(lo, hi)` node pairs.
    fn intervals(&self, v: usize) -> &[(NodeId, NodeId)] {
        &self.edges[self.edge_at[v]..self.edge_at[v + 1]]
    }

    /// Heap bytes this prefix holds.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.roots.capacity() * size_of::<NodeId>()
            + self.root.capacity() * size_of::<NodeId>()
            + self.tree.heap_bytes()
            + self.reports.capacity() * size_of::<PartReport>()
            + self.non_tree.capacity() * size_of::<u64>()
            + self.rejections.capacity() * size_of::<(NodeId, RejectReason)>()
            + self.digits.capacity() * size_of::<u32>()
            + self.label_at.capacity() * size_of::<usize>()
            + self.edges.capacity() * size_of::<(NodeId, NodeId)>()
            + self.edge_at.capacity() * size_of::<usize>()
    }

    /// Runs step 6 for every seed on `engine` (any engine over the
    /// prefix's graph): per seed, draw the sample, ship it to the roots,
    /// cost the broadcast back down and check Definition 7 locally.
    pub(crate) fn sample(
        &self,
        engine: &mut Engine<'_>,
        cfg: &TesterConfig,
        seeds: &[u64],
    ) -> Result<Stage2Batch, CoreError> {
        let n = self.root.len();
        let max_rounds = cfg.max_rounds;
        let roots = &self.roots;
        let s_target = cfg.sample_size(n) as f64;
        let budget = (4.0 * s_target).ceil() as usize + 8;
        let mut all_sample_items: Vec<Vec<Vec<Msg>>> = Vec::with_capacity(seeds.len());
        // Sampled non-tree edges of each part per seed, indexed by the root.
        let mut sampled_per_part: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &r in roots {
            sampled_per_part[r.index()] = vec![0; seeds.len()];
        }
        for (k, &seed) in seeds.iter().enumerate() {
            let mut sample_items: Vec<Vec<Msg>> = vec![Vec::new(); n];
            for v in 0..n {
                let intervals = self.intervals(v);
                if intervals.is_empty() {
                    continue;
                }
                let nt = self.non_tree[v];
                if nt == 0 {
                    continue;
                }
                let p = (s_target / nt as f64).min(1.0);
                let mut rng = sample_rng(seed, v as u64);
                for &(lo, hi) in intervals {
                    if rng.random_bool(p) {
                        sampled_per_part[self.root[v].index()][k] += 1;
                        sample_items[v].extend(encode_interval(
                            v as u64,
                            self.label(lo),
                            self.label(hi),
                        ));
                    }
                }
            }
            // Overflow guard (1/poly(n) event per instance): the root would
            // abort; we fail the batch fast so callers can rerun with other
            // seeds. The lowest overflowing root reports.
            let overflow = roots
                .iter()
                .map(|r| sampled_per_part[r.index()][k])
                .find(|&count| count > budget);
            if let Some(drawn) = overflow {
                return Err(CoreError::SampleOverflow { drawn, budget });
            }
            all_sample_items.push(sample_items);
        }

        // Ship every instance's samples to the roots: the only
        // seed-dependent engine runs.
        let tree = &self.tree;
        let collected = all_sample_items
            .into_iter()
            .map(|items| crate::comm::up_stream(engine, tree, items, max_rounds))
            .collect::<Result<Vec<_>, _>>()?;
        // The broadcast's report is computed in closed form. Debug builds
        // also run it message by message as the oracle, on a scratch
        // engine so that the tester engine's stats match release builds.
        let limit = engine.config().max_words_per_message;
        #[cfg(debug_assertions)]
        let (mut oracle, mut received) = (Engine::new(engine.graph(), engine.config()), Vec::new());
        let mut down_reports = Vec::with_capacity(seeds.len());
        // The decoded sample list of each part per seed, indexed by the root.
        let mut sampled_intervals_at_root: Vec<Vec<Vec<LabeledEdge>>> = vec![Vec::new(); n];
        for (collected_k, _) in &collected {
            let mut payload: Vec<Vec<Msg>> = vec![Vec::new(); n];
            for &r in roots {
                let words = decode_streams(&collected_k[r.index()]);
                payload[r.index()] = words
                    .iter()
                    .flat_map(|iv| encode_interval(r.raw() as u64, &iv.lo.0, &iv.hi.0))
                    .collect();
                sampled_intervals_at_root[r.index()].push(words);
            }
            let report = crate::comm::stream_broadcast_cost(tree, &payload, limit, max_rounds);
            #[cfg(debug_assertions)]
            {
                let run = crate::comm::stream_broadcast(&mut oracle, tree, payload, max_rounds)
                    .map(|(received_k, run_report)| {
                        received.push(received_k);
                        run_report
                    });
                assert_eq!(
                    report, run,
                    "closed-form broadcast cost must equal the engine run"
                );
            }
            down_reports.push(report?);
        }

        // Local violation checks, per instance.
        let paper_mode = cfg.embedding == EmbeddingMode::Paper;
        let mut outcomes = Vec::with_capacity(seeds.len());
        let mut stats = Vec::with_capacity(seeds.len());
        for (k, ((_, up_report), down_report)) in collected.iter().zip(&down_reports).enumerate() {
            let mut rejections = self.rejections.clone();
            let mut violation_witnesses = Vec::new();
            for v in 0..n {
                let intervals = self.intervals(v);
                if intervals.is_empty() {
                    continue;
                }
                // The pipelined broadcast delivers each root's sample list
                // down its tree verbatim and in FIFO order, so every member
                // checks against exactly the list already decoded at the
                // root — borrow it instead of re-decoding the received
                // stream at all n nodes. Debug builds decode what the
                // oracle delivered and compare.
                let sample: &[LabeledEdge] = &sampled_intervals_at_root[self.root[v].index()][k];
                #[cfg(debug_assertions)]
                if self.root[v].index() != v {
                    let rx: Vec<(NodeId, Msg)> = received[k][v]
                        .iter()
                        .map(|m| (NodeId::new(0), m.clone()))
                        .collect();
                    debug_assert_eq!(
                        decode_streams(&rx),
                        sample,
                        "broadcast must deliver the root's sample list verbatim"
                    );
                }
                'outer: for &(lo, hi) in intervals {
                    let (lo, hi) = (self.label(lo), self.label(hi));
                    for s in sample {
                        if labels::intersects(lo, hi, &s.lo.0, &s.hi.0) {
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
            let mut parts = self.reports.clone();
            for rep in &mut parts {
                rep.sampled = sampled_per_part[rep.root.index()][k];
            }
            let mut instance_stats = self.stats;
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

/// Obtains a rotation for one part: `(rotation, verified planar)`. A
/// non-planar part gets its adjacency order as a best-effort rotation.
fn embed_part(sub: &Graph) -> (RotationSystem, bool) {
    match check_planarity(sub) {
        PlanarityCheck::Planar(rot) => (rot, true),
        PlanarityCheck::NonPlanar => (RotationSystem::from_adjacency(sub), false),
    }
}

/// Encodes `(origin, interval)` — the interval as its `lo` and `hi`
/// label digits — into bandwidth-sized chunks: payload words are the
/// two packed labels
/// ([`labels::pack_label`] — digits ride 16/4/2 to a word instead of
/// one per word), each message is `[origin, w1, w2, w3]`. Packing is
/// what keeps the sample broadcast — the tester's dominant message
/// volume — at the model's `O(log n)`-bits-per-message density.
fn encode_interval(origin: u64, lo: &[u32], hi: &[u32]) -> Vec<Msg> {
    let mut words: Vec<u64> = Vec::new();
    labels::pack_label(lo, &mut words);
    labels::pack_label(hi, &mut words);
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

        let paper = TesterConfig::new(0.2).with_embedding(EmbeddingMode::Paper);
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
        let cfg = TesterConfig::new(0.2).with_embedding(EmbeddingMode::Strict);
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
