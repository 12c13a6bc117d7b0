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
//!    root and broadcast them back down (both pipelined); every node
//!    checks its assigned non-tree edges against the sample for
//!    Definition 7 violations and rejects on any hit. Both streams'
//!    costs are computed exactly in closed form
//!    (`comm::up_stream_cost`, `comm::stream_broadcast_cost`) from each
//!    interval's wire size, and the check compares the labels' ranks
//!    within their part; debug builds also run the step message by
//!    message as the oracle of both.
//!
//! Steps 1–5 read the graph and the configuration, never the seed:
//! `Stage2Prefix::prepare` runs them once and keeps what step 6 reads,
//! and `Stage2Prefix::sample` runs step 6 for any batch of seeds
//! (the split behind [`crate::Prepared`]).

pub mod labels;
mod protocols;

use std::cmp::Ordering;
#[cfg(debug_assertions)]
use std::collections::HashMap;
use std::mem::size_of;

use planartest_embed::{check_planarity, PlanarityCheck, RotationSystem};
use planartest_graph::{EdgeId, Graph, NodeId};
use planartest_sim::tree::{broadcast, convergecast, TreeTopology};
use planartest_sim::{Engine, Msg, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use self::labels::Label;
#[cfg(debug_assertions)]
use self::labels::LabeledEdge;
use crate::comm::{self, StreamSummary};
use crate::config::{EmbeddingMode, TesterConfig};
use crate::error::CoreError;
use crate::partition::{part_bfs, PartitionState};
use crate::tester::RejectReason;
#[cfg(debug_assertions)]
use planartest_sim::{RunReport, SimError};

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
/// once on `engine`, with every instance credited their full cost. Step
/// 6 runs per seed on no engine: shipping the sampled intervals to the
/// roots and broadcasting them back down are costed in closed form
/// (`comm::up_stream_cost`, `comm::stream_broadcast_cost`: the exact
/// reports of the engine runs, which debug builds also execute on a
/// scratch engine and compare), and each node's Definition-7 check
/// compares label ranks. So each instance's verdict and statistics are
/// bit-for-bit what a sequential `run_stage2` with that seed produces,
/// and `engine`'s own statistics gain steps 1–5 only.
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
    Stage2Prefix::prepare(engine, cfg, state)?.sample(engine.graph(), engine.config(), cfg, seeds)
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
    /// Each node's rank in `(root, label)` order. Within a part that is
    /// label order, so Definition 7 compares ranks instead of digits.
    rank: Vec<u32>,
    /// The words of each node's packed label ([`labels::packed_len`]),
    /// which size the wire frames of the intervals it ends.
    packed: Vec<u32>,
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
        let parts = g.induced_parts(&state.root);
        for ((label, sub, orig), &r) in parts.zip(&roots) {
            debug_assert_eq!(label, r, "every part is labelled by its root");
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
        let label = |v: usize| &digits[label_at[v]..label_at[v + 1]];
        let rank = label_ranks(&state.root, label);
        let packed = (0..n)
            .map(|v| labels::packed_len(label(v)) as u32)
            .collect();

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
            rank,
            packed,
            edges,
            edge_at,
        })
    }

    /// Node `v`'s label digits, which the message-level oracle ships.
    #[cfg(debug_assertions)]
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
            + self.rank.capacity() * size_of::<u32>()
            + self.packed.capacity() * size_of::<u32>()
            + self.edges.capacity() * size_of::<(NodeId, NodeId)>()
            + self.edge_at.capacity() * size_of::<usize>()
    }

    /// Runs step 6 for every seed over `g`, the prefix's graph, on an
    /// engine of bandwidth `sim`: per seed, draw the sample, cost its two
    /// streams in closed form and check Definition 7 locally. No engine
    /// runs and no message is built; debug builds also run the step
    /// message by message (`Oracle`) and assert that it agrees.
    pub(crate) fn sample(
        &self,
        g: &Graph,
        sim: SimConfig,
        cfg: &TesterConfig,
        seeds: &[u64],
    ) -> Result<Stage2Batch, CoreError> {
        let n = self.root.len();
        debug_assert_eq!(g.n(), n, "a prefix samples over its own graph");
        let (limit, max_rounds) = (sim.max_words_per_message, cfg.max_rounds);
        let s_target = cfg.sample_size(n) as f64;
        // Saturates: a tiny ε drives `s_target` to `usize::MAX`.
        let budget = ((4.0 * s_target).ceil() as usize).saturating_add(8);
        let paper_mode = cfg.embedding == EmbeddingMode::Paper;
        #[cfg(debug_assertions)]
        let mut oracle = Oracle::new(g, sim, max_rounds);
        let mut lane = Lane::new(n);
        let (mut up_reports, mut down_reports) = (Vec::new(), Vec::new());
        let mut outcomes = Vec::with_capacity(seeds.len());
        for &seed in seeds {
            self.draw(seed, s_target, limit, &mut lane);
            // Overflow guard (1/poly(n) event per instance): the root would
            // abort; we fail the batch fast so callers can rerun with other
            // seeds. The lowest overflowing root reports.
            let overflow = self
                .roots
                .iter()
                .map(|r| lane.sample[r.index()].len())
                .find(|&drawn| drawn > budget);
            if let Some(drawn) = overflow {
                return Err(CoreError::SampleOverflow { drawn, budget });
            }
            let up_report = comm::up_stream_cost(&self.tree, &lane.up, limit, max_rounds);
            let down_report =
                comm::stream_broadcast_cost(&self.tree, &lane.down, limit, max_rounds);

            // Local violation checks: every node against its part's
            // sample, any hit marking it once.
            let mut rejections = self.rejections.clone();
            let mut violation_witnesses = Vec::new();
            for v in 0..n {
                let sample = &lane.sample[self.root[v].index()];
                let hit = self.intervals(v).iter().any(|&(lo, hi)| {
                    let (lo, hi) = (self.rank[lo.index()], self.rank[hi.index()]);
                    sample
                        .iter()
                        .any(|(s_lo, s_hi)| labels::intersects(&lo, &hi, s_lo, s_hi))
                });
                if hit {
                    violation_witnesses.push(NodeId::new(v));
                    if paper_mode {
                        rejections.push((NodeId::new(v), RejectReason::ViolatingEdge));
                    }
                }
            }
            #[cfg(debug_assertions)]
            oracle.check(self, &lane, &up_report, &down_report, &violation_witnesses);
            rejections.sort_by_key(|&(v, _)| v);
            rejections.dedup_by_key(|&mut (v, _)| v);
            let mut parts = self.reports.clone();
            for rep in &mut parts {
                rep.sampled = lane.sample[rep.root.index()].len();
            }
            up_reports.push(up_report);
            down_reports.push(down_report);
            outcomes.push(Stage2Outcome {
                rejections,
                violation_witnesses,
                parts,
            });
        }
        // The engine would ship every seed's samples up before it
        // broadcast any back down: the first error is the first failed
        // up-stream, else the first failed broadcast.
        let up_reports = up_reports.into_iter().collect::<Result<Vec<_>, _>>()?;
        let down_reports = down_reports.into_iter().collect::<Result<Vec<_>, _>>()?;
        let stats = up_reports
            .into_iter()
            .zip(down_reports)
            .map(|(up_report, down_report)| {
                let mut stats = self.stats;
                stats.absorb(up_report);
                stats.absorb(down_report);
                stats
            })
            .collect();
        Ok(Stage2Batch { outcomes, stats })
    }

    /// Draws `seed`'s sample into `lane`, each node keeping each of its
    /// assigned non-tree edges with probability `s_target / non_tree`,
    /// and sums up the wire size of every drawn interval on an engine of
    /// `limit` words per message.
    fn draw(&self, seed: u64, s_target: f64, limit: usize, lane: &mut Lane) {
        lane.up.fill(StreamSummary::default());
        lane.down.fill(StreamSummary::default());
        for r in &self.roots {
            lane.sample[r.index()].clear();
        }
        for v in 0..self.root.len() {
            let intervals = self.intervals(v);
            #[cfg(debug_assertions)]
            lane.drawn[v].clear();
            let nt = self.non_tree[v];
            if intervals.is_empty() || nt == 0 {
                continue;
            }
            let r = self.root[v].index();
            let p = (s_target / nt as f64).min(1.0);
            let mut rng = sample_rng(seed, v as u64);
            for &(lo, hi) in intervals {
                if rng.random_bool(p) {
                    let frame = 1 + u64::from(self.packed[lo.index()] + self.packed[hi.index()]);
                    push_interval(&mut lane.up[v], frame, limit);
                    push_interval(&mut lane.down[r], frame, limit);
                    lane.sample[r].push((self.rank[lo.index()], self.rank[hi.index()]));
                    #[cfg(debug_assertions)]
                    lane.drawn[v].push((lo, hi));
                }
            }
        }
    }
}

/// One seed's step 6, in buffers reused across seeds.
struct Lane {
    /// What each node ships up to its root, summarised.
    up: Vec<StreamSummary>,
    /// What each root broadcasts back down, summarised.
    down: Vec<StreamSummary>,
    /// Each part's sample as the rank pairs of its intervals, indexed by
    /// the root.
    sample: Vec<Vec<(u32, u32)>>,
    /// Each node's drawn intervals, which the oracle encodes.
    #[cfg(debug_assertions)]
    drawn: Vec<Vec<(NodeId, NodeId)>>,
}

impl Lane {
    fn new(n: usize) -> Self {
        Lane {
            up: vec![StreamSummary::default(); n],
            down: vec![StreamSummary::default(); n],
            sample: vec![Vec::new(); n],
            #[cfg(debug_assertions)]
            drawn: vec![Vec::new(); n],
        }
    }
}

/// Debug builds' message-level step 6, the oracle of the closed forms
/// and of the rank check. Per seed it encodes every drawn interval,
/// ships the lists up on a scratch engine (so the caller's statistics
/// match release builds), decodes and re-encodes each part's sample at
/// its root and broadcasts it back down. It asserts that both runs'
/// results equal the closed forms, errors included, that every member
/// receives its root's list verbatim, and that Definition 7 on the
/// label digits finds the same nodes as on the ranks.
#[cfg(debug_assertions)]
struct Oracle<'g> {
    engine: Engine<'g>,
    max_rounds: u64,
}

#[cfg(debug_assertions)]
impl<'g> Oracle<'g> {
    fn new(g: &'g Graph, sim: SimConfig, max_rounds: u64) -> Self {
        Oracle {
            engine: Engine::new(g, sim),
            max_rounds,
        }
    }

    /// Runs the seed drawn into `lane` against its closed-form up-stream
    /// and broadcast reports, and the nodes the rank check found.
    fn check(
        &mut self,
        prefix: &Stage2Prefix,
        lane: &Lane,
        up: &Result<RunReport, SimError>,
        down: &Result<RunReport, SimError>,
        witnesses: &[NodeId],
    ) {
        let n = prefix.root.len();
        let limit = self.engine.config().max_words_per_message;
        let items: Vec<Vec<Msg>> = (0..n)
            .map(|v| {
                let drawn = lane.drawn[v].iter();
                drawn
                    .flat_map(|&(lo, hi)| {
                        encode_interval(v as u64, prefix.label(lo), prefix.label(hi))
                    })
                    .collect()
            })
            .collect();
        for (v, msgs) in items.iter().enumerate() {
            assert_eq!(
                StreamSummary::of(msgs, limit),
                lane.up[v],
                "node {v}'s list"
            );
        }
        let run = comm::up_stream(&mut self.engine, &prefix.tree, items, self.max_rounds);
        assert_eq!(
            run.as_ref().map(|(_, report)| report),
            up.as_ref(),
            "closed-form up-stream cost must equal the engine run"
        );
        let Ok((collected, _)) = run else {
            return;
        };
        let mut at_root: Vec<Vec<LabeledEdge>> = vec![Vec::new(); n];
        let mut payload: Vec<Vec<Msg>> = vec![Vec::new(); n];
        for r in prefix.roots.iter().map(|r| r.index()) {
            at_root[r] = decode_streams(collected[r].iter().map(|(_, m)| m));
            payload[r] = at_root[r]
                .iter()
                .flat_map(|iv| encode_interval(r as u64, &iv.lo.0, &iv.hi.0))
                .collect();
            assert_eq!(
                StreamSummary::of(&payload[r], limit),
                lane.down[r],
                "root {r}'s payload"
            );
        }
        let run = comm::stream_broadcast(&mut self.engine, &prefix.tree, payload, self.max_rounds);
        assert_eq!(
            run.as_ref().map(|(_, report)| report),
            down.as_ref(),
            "closed-form broadcast cost must equal the engine run"
        );
        if let Ok((received, _)) = run {
            for (v, got) in received.iter().enumerate() {
                let r = prefix.root[v].index();
                if r != v {
                    assert_eq!(
                        decode_streams(got),
                        at_root[r],
                        "broadcast must deliver the root's sample list verbatim"
                    );
                }
            }
        }
        let by_digits: Vec<NodeId> = (0..n)
            .filter(|&v| {
                let sample = &at_root[prefix.root[v].index()];
                prefix.intervals(v).iter().any(|&(lo, hi)| {
                    let (lo, hi) = (prefix.label(lo), prefix.label(hi));
                    sample
                        .iter()
                        .any(|s| labels::intersects(lo, hi, &s.lo.0[..], &s.hi.0[..]))
                })
            })
            .map(NodeId::new)
            .collect();
        assert_eq!(
            by_digits, witnesses,
            "the rank check must find what the label check finds"
        );
    }
}

/// Adds one sampled interval, framed in `frame` words, to the summary of
/// a stream: `encode_interval` sends it as `⌈frame/3⌉` messages of an
/// origin word and up to three frame words. A frame is at least 3 words
/// (its length and two label headers), so the interval's first message
/// is a full 4 words, its longest.
fn push_interval(stream: &mut StreamSummary, frame: u64, limit: usize) {
    let chunks = frame.div_ceil(3);
    if stream.oversize.is_none() && 4 > limit {
        stream.oversize = Some((stream.messages, 4));
    }
    stream.messages += chunks;
    stream.words += frame + chunks;
}

/// Each node's rank in `(root, label)` order, from one sort. Within a
/// part that is label order — the preorder of the part's digit-ordered
/// BFS tree — so Definition 7 on the ranks is Definition 7 on the labels.
fn label_ranks<'a>(root: &[NodeId], label: impl Fn(usize) -> &'a [u32]) -> Vec<u32> {
    let key = |v: usize| (root[v], label(v));
    let mut by_label: Vec<usize> = (0..root.len()).collect();
    by_label.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)));
    debug_assert!(
        by_label.windows(2).all(|w| key(w[0]) != key(w[1])),
        "labels within a part are distinct"
    );
    let mut rank = vec![0u32; root.len()];
    for (i, &v) in by_label.iter().enumerate() {
        rank[v] = i as u32;
    }
    rank
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
///
/// The wire format the closed forms cost (`push_interval`); only the
/// message-level lane, the debug oracle, builds it.
#[cfg(debug_assertions)]
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
#[cfg(debug_assertions)]
fn decode_streams<'m>(msgs: impl IntoIterator<Item = &'m Msg>) -> Vec<LabeledEdge> {
    let mut buffers: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for m in msgs {
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
    use proptest::prelude::*;

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

    #[test]
    fn a_tiny_epsilon_saturates_the_sample_budget() {
        // ε = 1e-300 passes the wire's `0 < ε < 1` check and sizes the
        // sample at `usize::MAX`: the budget must saturate, not wrap,
        // and every non-tree edge is then sampled.
        let g = planar::triangulated_grid(5, 5).graph;
        let cfg = TesterConfig::new(1e-300).with_phases(4);
        let out = crate::PlanarityTester::new(cfg).run(&g).unwrap();
        assert!(
            out.accepted(),
            "planar graph rejected: {:?}",
            out.rejections
        );
        assert!(!out.parts.is_empty());
        for part in &out.parts {
            assert_eq!(
                part.sampled, part.non_tree,
                "part rooted at {:?}",
                part.root
            );
        }
    }

    #[test]
    fn up_stream_queues_form_and_the_lane_matches_its_oracle() {
        // Parts deep and branched enough that samples from sibling
        // subtrees queue where they meet. `run_many` runs every seed's
        // lane through the message-level oracle in debug builds; on
        // every seed the closed form must outlast the queue-free bound
        // (each node's depth plus its own messages).
        let seeds: Vec<u64> = (0..16).collect();
        for g in [
            planar::triangulated_grid(12, 12).graph,
            planar::grid(12, 12).graph,
        ] {
            for mode in [EmbeddingMode::Strict, EmbeddingMode::Paper] {
                let cfg = TesterConfig::new(0.1).with_phases(6).with_embedding(mode);
                let outs = crate::PlanarityTester::new(cfg.clone())
                    .run_many(&g, &seeds)
                    .unwrap();
                assert_eq!(outs.len(), seeds.len());
                let mut engine = Engine::new(&g, SimConfig::default());
                let partition = crate::partition::run_partition(&mut engine, &cfg).unwrap();
                assert!(partition.rejected.is_empty());
                let prefix = Stage2Prefix::prepare(&mut engine, &cfg, &partition.state).unwrap();
                let s_target = cfg.sample_size(g.n()) as f64;
                let mut lane = Lane::new(g.n());
                let queued = seeds.iter().filter(|&&seed| {
                    prefix.draw(seed, s_target, 4, &mut lane);
                    let report = comm::up_stream_cost(&prefix.tree, &lane.up, 4, cfg.max_rounds);
                    let queue_free = g
                        .nodes()
                        .filter(|&v| lane.up[v.index()].messages > 0 && !prefix.tree.is_root(v))
                        .map(|v| lane.up[v.index()].messages + u64::from(prefix.tree.depth(v)))
                        .max()
                        .unwrap_or(0);
                    report.unwrap().rounds > queue_free
                });
                assert_eq!(queued.count(), seeds.len(), "{mode:?}");
            }
        }
    }

    proptest! {
        /// Over random digit-labelled forests, the ranks order each
        /// part's labels, so Definition 7 on ranks is Definition 7 on
        /// the digit slices.
        #[test]
        fn rank_interleaving_is_label_interleaving(seed in 0u64..u64::MAX, n in 1usize..80) {
            // Node `v` hangs below an earlier node or starts a part;
            // siblings take distinct random digits.
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut root, mut labels) = (Vec::with_capacity(n), Vec::<Vec<u32>>::with_capacity(n));
            let mut child_digits: Vec<Vec<u32>> = vec![Vec::new(); n];
            for v in 0..n {
                if v == 0 || rng.random_range(0..6u8) == 0 {
                    root.push(NodeId::new(v));
                    labels.push(Vec::new());
                    continue;
                }
                let p = rng.random_range(0..v);
                let digit = loop {
                    let bits = rng.random_range(2..20u32);
                    let d = rng.random_range(1..1u32 << bits);
                    if !child_digits[p].contains(&d) {
                        break d;
                    }
                };
                child_digits[p].push(digit);
                root.push(root[p]);
                let mut label = labels[p].clone();
                label.push(digit);
                labels.push(label);
            }
            let rank = label_ranks(&root, |v| &labels[v]);
            for _ in 0..64 {
                let part = root[rng.random_range(0..n)];
                let members: Vec<usize> = (0..n).filter(|&v| root[v] == part).collect();
                let mut pick = || members[rng.random_range(0..members.len())];
                let [a, b, c, d] = [pick(), pick(), pick(), pick()];
                prop_assert_eq!(rank[a].cmp(&rank[b]), labels[a].cmp(&labels[b]));
                if a == b || c == d {
                    continue;
                }
                let orient = |x: usize, y: usize| if labels[x] < labels[y] { (x, y) } else { (y, x) };
                let ((lo, hi), (s_lo, s_hi)) = (orient(a, b), orient(c, d));
                prop_assert_eq!(
                    labels::intersects(&rank[lo], &rank[hi], &rank[s_lo], &rank[s_hi]),
                    labels::intersects(&labels[lo][..], &labels[hi][..], &labels[s_lo][..], &labels[s_hi][..])
                );
            }
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2)
    }
}
