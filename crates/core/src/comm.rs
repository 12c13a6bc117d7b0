//! Reusable message-level protocol building blocks used by both stages.
//!
//! The protocols here run on the [`planartest_sim::Engine`] with real
//! messages; rounds and bandwidth are accounted by the engine. The three
//! patterns are:
//!
//! * [`exchange`] — one synchronous round of pairwise neighbour messages;
//! * [`census`] — a capped, streaming convergecast of `(key, value)` items
//!   up part trees (the paper's "at most `3α+1` distinct root ids, else
//!   overflow" aggregation from §2.1.5);
//! * [`stream_broadcast`] / [`up_stream`] — pipelined multi-message
//!   movement down/up part trees (used for candidate lists, labels and
//!   sampled edges, which exceed one message of bandwidth).
//!
//! One function runs no engine: [`stream_broadcast_cost`] computes the
//! exact [`RunReport`] (or first [`SimError`]) of a [`stream_broadcast`]
//! in closed form. Stage II takes its sample broadcast's cost from it;
//! the engine run is its oracle in debug builds and tests.

use std::collections::VecDeque;

use planartest_graph::NodeId;
use planartest_sim::tree::TreeTopology;
use planartest_sim::Engine;
use planartest_sim::{Msg, NodeLogic, Outbox, RunReport, SimError};

/// One round in which every node sends `msg_for(v, w)` to each neighbour
/// `w` (skipping `None`s); returns what each node received as
/// `(from, msg)` pairs sorted by sender.
pub fn exchange<F>(
    engine: &mut Engine<'_>,
    mut msg_for: F,
    max_rounds: u64,
) -> Result<Vec<Vec<(NodeId, Msg)>>, SimError>
where
    F: FnMut(NodeId, NodeId) -> Option<Msg>,
{
    struct Logic<'f, F> {
        msg_for: &'f mut F,
        received: Vec<Vec<(NodeId, Msg)>>,
    }
    impl<F: FnMut(NodeId, NodeId) -> Option<Msg>> NodeLogic for Logic<'_, F> {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            // Snapshot neighbours to avoid borrowing out's graph twice.
            let neighbors: Vec<NodeId> = engine_neighbors(out, node);
            for w in neighbors {
                if let Some(m) = (self.msg_for)(node, w) {
                    out.send(w, m);
                }
            }
        }
        fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], _out: &mut Outbox<'_>) {
            // The inbox is a borrowed slice of the engine's delivery
            // arena; one bulk copy moves it into the result table
            // (inline `Msg`s make this a flat memcpy-style clone).
            self.received[node.index()].extend_from_slice(inbox);
        }
    }
    let n = engine.graph().n();
    let mut logic = Logic {
        msg_for: &mut msg_for,
        received: vec![Vec::new(); n],
    };
    engine.run(&mut logic, max_rounds)?;
    for r in &mut logic.received {
        r.sort_by_key(|&(from, _)| from);
    }
    Ok(logic.received)
}

fn engine_neighbors(out: &Outbox<'_>, node: NodeId) -> Vec<NodeId> {
    out.graph()
        .neighbors(node)
        .iter()
        .map(|&(w, _)| w)
        .collect()
}

/// What an [`up_stream`] collected: per node, `(relay, message)` pairs.
pub type Collected = Vec<Vec<(NodeId, Msg)>>;

/// How [`census`] merges two values of the same key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOp {
    /// Sum values (edge-count aggregation).
    Sum,
    /// Keep the minimum (deactivation-round aggregation).
    Min,
}

impl MergeOp {
    fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            MergeOp::Sum => a + b,
            MergeOp::Min => a.min(b),
        }
    }
}

/// Result of a [`census`] at a part root.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Census {
    /// Aggregated `(key, value)` items (at most the cap many).
    pub items: Vec<(u32, u64)>,
    /// Whether more than `cap` distinct keys were encountered somewhere.
    pub overflow: bool,
}

const TAG_ITEM: u64 = 0;
const TAG_DONE: u64 = 1;

struct CensusLogic<'t> {
    tree: &'t TreeTopology,
    cap: usize,
    merge: MergeOp,
    pending: Vec<usize>,
    acc: Vec<Vec<(u32, u64)>>,
    overflow: Vec<bool>,
    queue: Vec<VecDeque<Msg>>,
    result: Vec<Option<Census>>,
}

impl CensusLogic<'_> {
    fn absorb(&mut self, v: usize, key: u32, val: u64) {
        if let Some(slot) = self.acc[v].iter_mut().find(|(k, _)| *k == key) {
            slot.1 = self.merge.apply(slot.1, val);
        } else if self.acc[v].len() < self.cap {
            self.acc[v].push((key, val));
        } else {
            self.overflow[v] = true;
        }
    }

    fn become_ready(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        let v = node.index();
        self.acc[v].sort_unstable();
        if self.tree.is_root(node) {
            self.result[v] = Some(Census {
                items: std::mem::take(&mut self.acc[v]),
                overflow: self.overflow[v],
            });
            return;
        }
        for &(k, val) in &self.acc[v] {
            self.queue[v].push_back(Msg::words(&[TAG_ITEM, k as u64, val]));
        }
        self.queue[v].push_back(Msg::words(&[TAG_DONE, self.overflow[v] as u64]));
        self.pump(node, out);
    }

    fn pump(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        let v = node.index();
        if let Some(m) = self.queue[v].pop_front() {
            let p = self.tree.parent(node).expect("non-roots have parents");
            out.send(p, m);
            if !self.queue[v].is_empty() {
                out.wake();
            }
        }
    }
}

impl NodeLogic for CensusLogic<'_> {
    fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        self.pending[node.index()] = self.tree.children(node).len();
        if self.pending[node.index()] == 0 {
            self.become_ready(node, out);
        }
    }

    fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
        let v = node.index();
        let mut newly_done = 0;
        for (_, msg) in inbox {
            match msg.word(0) {
                TAG_ITEM => self.absorb(v, msg.word(1) as u32, msg.word(2)),
                TAG_DONE => {
                    if msg.word(1) != 0 {
                        self.overflow[v] = true;
                    }
                    newly_done += 1;
                }
                other => unreachable!("unknown census tag {other}"),
            }
        }
        let was_pending = self.pending[v];
        self.pending[v] -= newly_done;
        if was_pending > 0 && self.pending[v] == 0 {
            self.become_ready(node, out);
        } else if was_pending == 0 {
            // Already streaming: continue draining the queue.
            self.pump(node, out);
        }
    }
}

/// Streams `(key, value)` items from every node up its part tree to the
/// part root, merging values per key with `merge` and capping the number
/// of distinct keys at `cap` (excess keys set the `overflow` flag —
/// exactly the paper's `> 3α` detection). Returns the census at each root.
///
/// Cost: `O(height · cap)` rounds (store-and-forward, one item-message per
/// edge per round).
///
/// # Errors
///
/// Propagates engine [`SimError`]s.
pub fn census(
    engine: &mut Engine<'_>,
    tree: &TreeTopology,
    local_items: &[Vec<(u32, u64)>],
    cap: usize,
    merge: MergeOp,
    max_rounds: u64,
) -> Result<Vec<Option<Census>>, SimError> {
    let n = engine.graph().n();
    let mut logic = CensusLogic {
        tree,
        cap,
        merge,
        pending: vec![0; n],
        acc: local_items.to_vec(),
        overflow: vec![false; n],
        queue: vec![VecDeque::new(); n],
        result: vec![None; n],
    };
    // Pre-cap local items (a node may locally see more than cap keys).
    for v in 0..n {
        if logic.acc[v].len() > cap {
            logic.acc[v].sort_unstable();
            logic.acc[v].truncate(cap);
            logic.overflow[v] = true;
        }
    }
    engine.run(&mut logic, max_rounds)?;
    Ok(logic.result)
}

// The engine broadcast is the closed form's oracle; release builds of the
// library compute the cost only (see `stream_broadcast_cost`).
#[cfg(any(debug_assertions, test))]
struct StreamBroadcastLogic<'t> {
    tree: &'t TreeTopology,
    /// Each root's unsent messages (empty at every other node).
    queue: Vec<VecDeque<Msg>>,
    /// Per-node copies of every delivery.
    received: Vec<Vec<Msg>>,
}

#[cfg(any(debug_assertions, test))]
impl StreamBroadcastLogic<'_> {
    fn pump(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        let v = node.index();
        if let Some(m) = self.queue[v].pop_front() {
            for &c in self.tree.children(node) {
                out.send(c, m.clone());
            }
            if !self.queue[v].is_empty() {
                out.wake();
            }
        }
    }
}

#[cfg(any(debug_assertions, test))]
impl NodeLogic for StreamBroadcastLogic<'_> {
    fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        if !self.queue[node.index()].is_empty() {
            // Roots seeded with payload; non-root seeds are a caller bug
            // guarded by the public wrapper.
            self.pump(node, out);
        }
    }

    fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
        if inbox.is_empty() {
            // Only a root wakes: it sends the next message of its list.
            self.pump(node, out);
            return;
        }
        // A member hears at most one message per round, from its parent,
        // and relays it at once; queueing it would only defer the same
        // sends to the same round.
        let v = node.index();
        for (_, msg) in inbox {
            self.received[v].push(msg.clone());
            for &c in self.tree.children(node) {
                out.send(c, msg.clone());
            }
        }
    }
}

/// Pipelined multi-message broadcast: each root's message list flows
/// down its tree in FIFO order, one message per edge per round; every
/// node receives its root's list (roots' own payloads are *not* echoed
/// back to themselves). Returns the messages received per node and the
/// run's [`RunReport`], which [`stream_broadcast_cost`] computes without
/// running the engine.
///
/// Cost: `height + k − 1` rounds for `k` messages.
///
/// # Errors
///
/// Propagates engine [`SimError`]s.
#[cfg(any(debug_assertions, test))]
pub fn stream_broadcast(
    engine: &mut Engine<'_>,
    tree: &TreeTopology,
    payload: Vec<Vec<Msg>>,
    max_rounds: u64,
) -> Result<(Vec<Vec<Msg>>, RunReport), SimError> {
    debug_assert!(payload
        .iter()
        .enumerate()
        .all(|(v, p)| p.is_empty() || tree.is_root(NodeId::new(v))));
    let n = engine.graph().n();
    let mut logic = StreamBroadcastLogic {
        tree,
        queue: payload.into_iter().map(VecDeque::from).collect(),
        received: vec![Vec::new(); n],
    };
    let report = engine.run(&mut logic, max_rounds)?;
    Ok((logic.received, report))
}

/// The result [`stream_broadcast`] returns for `payload` on an engine of
/// `limit` words per message — its [`RunReport`], or the first
/// [`SimError`] the engine raises — in closed form, walking each payload
/// root's tree once instead of delivering every message.
///
/// A root sends its message `j` (0-based) in round `j`, round 0 being
/// `init`, and a node at depth `d` relays it in round `j + d`. So a root
/// `r` with `k_r` messages of `w_r` words in total, on a tree `T_r` of
/// height `h_r`, keeps the run going until round `h_r + k_r − 1` (a
/// childless root still wakes once per remaining message) and has each
/// message delivered once to every other node of `T_r`:
///
/// * `rounds` = max over `r` of `h_r + k_r − 1` (0 without payload);
/// * `messages` = Σ `k_r · (|T_r| − 1)`;
/// * `words` = Σ `w_r · (|T_r| − 1)`.
///
/// # Errors
///
/// Exactly those of the engine run. A relay sends a message after its
/// root did, so the first oversize send is a root's: the smallest `j`
/// over roots with children whose message `j` exceeds `limit`, the
/// lowest root winning ties. It raises [`SimError::MessageTooLarge`]
/// toward the root's first child if round `j` is within `max_rounds`;
/// otherwise — and whenever `rounds > max_rounds` —
/// [`SimError::RoundLimitExceeded`]. Childless roots send nothing, and a
/// validated [`TreeTopology`] rules out the other two errors.
pub fn stream_broadcast_cost(
    tree: &TreeTopology,
    payload: &[Vec<Msg>],
    limit: usize,
    max_rounds: u64,
) -> Result<RunReport, SimError> {
    let mut report = RunReport::default();
    // The earliest oversize send: (round, root, first child, words).
    let mut oversize: Option<(u64, NodeId, NodeId, usize)> = None;
    let mut stack: Vec<(NodeId, u64)> = Vec::new();
    for (v, msgs) in payload.iter().enumerate() {
        if msgs.is_empty() {
            continue;
        }
        let (root, k) = (NodeId::new(v), msgs.len() as u64);
        let (mut size, mut height) = (0u64, 0u64);
        stack.push((root, 0));
        while let Some((x, d)) = stack.pop() {
            size += 1;
            height = height.max(d);
            stack.extend(tree.children(x).iter().map(|&c| (c, d + 1)));
        }
        let words: u64 = msgs.iter().map(|m| m.len() as u64).sum();
        report.rounds = report.rounds.max(height + k - 1);
        report.messages += k * (size - 1);
        report.words += words * (size - 1);
        let first_child = tree.children(root).first();
        let too_large = msgs.iter().position(|m| m.len() > limit);
        if let (Some(&to), Some(j)) = (first_child, too_large) {
            // Roots come in ascending order, so `<` keeps the lowest on ties.
            if oversize.is_none_or(|(earliest, ..)| (j as u64) < earliest) {
                oversize = Some((j as u64, root, to, msgs[j].len()));
            }
        }
    }
    if let Some((round, from, to, words)) = oversize {
        // A send past the budget is preempted by the round limit, which
        // the check below raises: this root alone keeps the run going
        // for at least `j + 1` rounds.
        if round <= max_rounds {
            return Err(SimError::MessageTooLarge {
                from,
                to,
                words,
                limit,
            });
        }
    }
    if report.rounds > max_rounds {
        return Err(SimError::RoundLimitExceeded { limit: max_rounds });
    }
    Ok(report)
}

struct UpStreamLogic<'t> {
    tree: &'t TreeTopology,
    queue: Vec<VecDeque<Msg>>,
    collected: Vec<Vec<(NodeId, Msg)>>,
}

impl UpStreamLogic<'_> {
    fn pump(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        let v = node.index();
        match self.tree.parent(node) {
            None => {
                // Root: everything queued is "collected from self".
                while let Some(m) = self.queue[v].pop_front() {
                    self.collected[v].push((node, m));
                }
            }
            Some(p) => {
                if let Some(m) = self.queue[v].pop_front() {
                    out.send(p, m);
                    if !self.queue[v].is_empty() {
                        out.wake();
                    }
                }
            }
        }
    }
}

impl NodeLogic for UpStreamLogic<'_> {
    fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        if !self.queue[node.index()].is_empty() {
            self.pump(node, out);
        }
    }

    fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
        let v = node.index();
        if self.tree.is_root(node) {
            for (from, msg) in inbox {
                self.collected[v].push((*from, msg.clone()));
            }
        } else {
            for (_, msg) in inbox {
                self.queue[v].push_back(msg.clone());
            }
        }
        self.pump(node, out);
    }
}

/// Up-stream collection: every node's message list moves up its part
/// tree to the root (FIFO, one message per edge per round,
/// store-and-forward through internal nodes). Returns the collected
/// `(origin-or-relay, msg)` list at every root — senders along the path
/// are the *relaying* children, so protocols that need origins must
/// encode them in the payload — and the run's [`RunReport`].
///
/// This is the Stage-II hot path for Monte-Carlo seeds: the per-seed
/// sample streams are the only seed-dependent engine runs of the tester.
///
/// Cost: `O(height + total items through the busiest edge)` rounds.
///
/// # Errors
///
/// Propagates engine [`SimError`]s.
pub fn up_stream(
    engine: &mut Engine<'_>,
    tree: &TreeTopology,
    items: Vec<Vec<Msg>>,
    max_rounds: u64,
) -> Result<(Collected, RunReport), SimError> {
    let n = engine.graph().n();
    let mut logic = UpStreamLogic {
        tree,
        queue: items.into_iter().map(VecDeque::from).collect(),
        collected: vec![Vec::new(); n],
    };
    let report = engine.run(&mut logic, max_rounds)?;
    Ok((logic.collected, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use planartest_graph::Graph;
    use planartest_sim::SimConfig;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Path 0-1-2-3-4 rooted at 0, plus the isolated root 5.
    fn setup() -> (Graph, TreeTopology) {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let parent = vec![
            None,
            Some(NodeId::new(0)),
            Some(NodeId::new(1)),
            Some(NodeId::new(2)),
            Some(NodeId::new(3)),
            None,
        ];
        (g.clone(), TreeTopology::from_parents(&g, parent).unwrap())
    }

    #[test]
    fn exchange_roundtrip() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut engine = Engine::new(&g, SimConfig::default());
        let got = exchange(
            &mut engine,
            |v, w| Some(Msg::words(&[(v.raw() * 10 + w.raw()) as u64])),
            10,
        )
        .unwrap();
        assert_eq!(got[0].len(), 1);
        assert_eq!(got[1].len(), 2);
        assert_eq!(got[0][0].1.word(0), 10); // from node 1 to node 0
        assert_eq!(got[1][0].1.word(0), 1); // from node 0 to node 1
        assert_eq!(engine.stats().rounds, 1);
    }

    #[test]
    fn exchange_selective() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut engine = Engine::new(&g, SimConfig::default());
        let got = exchange(
            &mut engine,
            |v, _| {
                if v.index() == 1 {
                    Some(Msg::ping())
                } else {
                    None
                }
            },
            10,
        )
        .unwrap();
        assert_eq!(got[0].len(), 1);
        assert_eq!(got[1].len(), 0);
        assert_eq!(got[2].len(), 1);
    }

    #[test]
    fn census_sums_and_caps() {
        let (g, tree) = setup();
        let mut engine = Engine::new(&g, SimConfig::default());
        // Every path node contributes (7, 1) and node 4 also (9, 5).
        let mut items = vec![vec![(7u32, 1u64)]; 5];
        items[4].push((9, 5));
        items.push(Vec::new()); // node 5
        let out = census(&mut engine, &tree, &items, 10, MergeOp::Sum, 1000).unwrap();
        let c0 = out[0].as_ref().unwrap();
        assert!(!c0.overflow);
        assert_eq!(c0.items, vec![(7, 5), (9, 5)]);
        let c5 = out[5].as_ref().unwrap();
        assert_eq!(c5.items, Vec::new());
        assert!(out[1].is_none());
    }

    #[test]
    fn census_overflow_detected() {
        let (g, tree) = setup();
        let mut engine = Engine::new(&g, SimConfig::default());
        // Nodes 1..=4 contribute distinct keys; cap is 2.
        let items: Vec<Vec<(u32, u64)>> = (0..6)
            .map(|v| {
                if (1..=4).contains(&v) {
                    vec![(v as u32, 1)]
                } else {
                    vec![]
                }
            })
            .collect();
        let out = census(&mut engine, &tree, &items, 2, MergeOp::Sum, 1000).unwrap();
        let c0 = out[0].as_ref().unwrap();
        assert!(c0.overflow);
        assert_eq!(c0.items.len(), 2);
    }

    #[test]
    fn census_min_merge() {
        let (g, tree) = setup();
        let mut engine = Engine::new(&g, SimConfig::default());
        let mut items = vec![Vec::new(); 6];
        items[2] = vec![(3, 40)];
        items[4] = vec![(3, 17)];
        let out = census(&mut engine, &tree, &items, 4, MergeOp::Min, 1000).unwrap();
        assert_eq!(out[0].as_ref().unwrap().items, vec![(3, 17)]);
    }

    #[test]
    fn stream_broadcast_order_preserved() {
        let (g, tree) = setup();
        let mut engine = Engine::new(&g, SimConfig::default());
        let mut payload = vec![Vec::new(); 6];
        payload[0] = vec![Msg::words(&[1]), Msg::words(&[2]), Msg::words(&[3])];
        let (got, report) = stream_broadcast(&mut engine, &tree, payload.clone(), 1000).unwrap();
        for (v, msgs) in got.iter().enumerate().take(5).skip(1) {
            let words: Vec<u64> = msgs.iter().map(|m| m.word(0)).collect();
            assert_eq!(words, vec![1, 2, 3], "node {v}");
        }
        assert!(got[5].is_empty());
        // Pipelined: message j reaches depth d in round d + j - 1, so
        // height 4 + 3 messages - 1 = 6 rounds, not 12; each of the 3
        // messages crosses the 4 tree edges once.
        assert_eq!((report.rounds, report.messages, report.words), (6, 12, 12));
        assert_eq!(engine.stats().rounds, report.rounds);
        // The closed form gives the same report without running.
        assert_eq!(stream_broadcast_cost(&tree, &payload, 4, 1000), Ok(report));
    }

    /// A random forest on a random graph, with payloads of up to `k_max`
    /// messages of 1 to `max_words` words at its roots. Each tree is a
    /// singleton, a path, a star or a random recursive tree; the graph
    /// adds `n` random edges to the forest's.
    fn random_broadcast(
        seed: u64,
        n: usize,
        k_max: usize,
        max_words: usize,
    ) -> (Graph, TreeTopology, Vec<Vec<Msg>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let (mut tree_nodes, mut shape) = (Vec::new(), 0u8);
        for &v in &order {
            let p = match (tree_nodes.last(), shape) {
                (None, _) | (_, 0) => None,
                _ if rng.random_range(0..8u8) == 0 => None,
                (Some(&last), 1) => Some(last),
                (_, 2) => Some(tree_nodes[0]),
                _ => Some(tree_nodes[rng.random_range(0..tree_nodes.len())]),
            };
            if p.is_none() {
                tree_nodes.clear();
                shape = rng.random_range(0..4u8);
            }
            parent[v] = p.map(NodeId::new);
            tree_nodes.push(v);
        }
        let mut edges: Vec<(usize, usize)> = (0..n)
            .filter_map(|v| parent[v].map(|p| (v, p.index())))
            .collect();
        for _ in 0..n {
            let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
            if u != v {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(n, edges).unwrap();
        let tree = TreeTopology::from_parents(&g, parent).unwrap();
        let payload = (0..n)
            .map(|v| {
                if !tree.is_root(NodeId::new(v)) {
                    return Vec::new();
                }
                let k = rng.random_range(0..k_max + 1);
                (0..k)
                    .map(|_| {
                        let len = rng.random_range(1..max_words + 1);
                        Msg::from((0..len).map(|_| rng.random::<u64>()).collect::<Vec<_>>())
                    })
                    .collect()
            })
            .collect();
        (g, tree, payload)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The closed form is the engine run's report, errors included:
        /// oversize messages (in half the cases) and round budgets from
        /// 0 to past the run's length.
        #[test]
        fn stream_broadcast_cost_matches_the_engine(
            seed in 0u64..u64::MAX,
            n in 1usize..40,
            k_max in 0usize..7,
            limit in 1usize..5,
            oversize in 0usize..2,
            max_rounds in 0u64..48,
        ) {
            let (g, tree, payload) = random_broadcast(seed, n, k_max, limit + oversize);
            let cost = stream_broadcast_cost(&tree, &payload, limit, max_rounds);
            let mut engine = Engine::new(&g, SimConfig { max_words_per_message: limit });
            let run = stream_broadcast(&mut engine, &tree, payload.clone(), max_rounds);
            prop_assert_eq!(cost, run.clone().map(|(_, report)| report));
            if let Ok((got, _)) = run {
                for v in g.nodes() {
                    let root = tree.root_of(v);
                    let want: &[Msg] = if root == v { &[] } else { &payload[root.index()] };
                    prop_assert_eq!(&got[v.index()][..], want, "node {:?}", v);
                }
            }
        }
    }

    #[test]
    fn up_stream_collects_everything() {
        let (g, tree) = setup();
        let mut engine = Engine::new(&g, SimConfig::default());
        let items: Vec<Vec<Msg>> = (0..6)
            .map(|v| vec![Msg::words(&[v as u64]), Msg::words(&[100 + v as u64])])
            .collect();
        // A second run on the same engine collects only its own items.
        let shifted: Vec<Vec<Msg>> = (0..6)
            .map(|v| vec![Msg::words(&[200 + v as u64])])
            .collect();
        let (first, _) = up_stream(&mut engine, &tree, items, 1000).unwrap();
        let (second, _) = up_stream(&mut engine, &tree, shifted, 1000).unwrap();
        let mut words: Vec<u64> = first[0].iter().map(|(_, m)| m.word(0)).collect();
        words.sort_unstable();
        assert_eq!(words, vec![0, 1, 2, 3, 4, 100, 101, 102, 103, 104]);
        let w5: Vec<u64> = first[5].iter().map(|(_, m)| m.word(0)).collect();
        assert_eq!(w5, vec![5, 105]);
        let mut words2: Vec<u64> = second[0].iter().map(|(_, m)| m.word(0)).collect();
        words2.sort_unstable();
        assert_eq!(words2, vec![200, 201, 202, 203, 204]);
    }
}
