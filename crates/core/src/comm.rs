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
//! Two functions run no engine: [`up_stream_tree_cost`] and
//! [`stream_broadcast_tree_cost`] compute one tree's share of an
//! [`up_stream`] and a [`stream_broadcast`] in closed form, from a
//! [`StreamSummary`] of the message list of each node that has one
//! (the up-stream's [`Origin`]s, the broadcast's root), as a
//! [`RawCost`]. The up-stream's walks only the origins' paths to the
//! root, so its work follows the messages, not the tree.
//! Trees run side by side, so a forest's costs combine
//! ([`RawCost::add`]) and settle once into the exact [`RunReport`] (or
//! first [`SimError`]) of the engine run ([`RawCost::settle`]);
//! [`up_stream_cost`] and [`stream_broadcast_cost`] are that composition
//! over a whole forest. Stage II takes both of its sample streams' costs
//! from the per-tree forms, costing a tree whose sample no seed changes
//! only once. The two engine runs and the whole-forest compositions are
//! their oracles in debug builds and tests, and release builds of the
//! library leave them out.

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
#[cfg(any(debug_assertions, test))]
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

/// What the closed-form stream costs read of one node's message list:
/// its messages, its words, and its first message over the engine's
/// bandwidth limit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Messages in the list.
    pub messages: u64,
    /// Words in all of them.
    pub words: u64,
    /// The first message longer than the limit: its position in the
    /// list and its length.
    pub oversize: Option<(u64, usize)>,
}

impl StreamSummary {
    /// Summarises `msgs` against a limit of `limit` words per message.
    #[cfg(any(debug_assertions, test))]
    pub fn of(msgs: &[Msg], limit: usize) -> Self {
        let oversize = msgs.iter().position(|m| m.len() > limit);
        StreamSummary {
            messages: msgs.len() as u64,
            words: msgs.iter().map(|m| m.len() as u64).sum(),
            oversize: oversize.map(|j| (j as u64, msgs[j].len())),
        }
    }
}

/// The result [`stream_broadcast`] returns on an engine of `limit` words
/// per message — its [`RunReport`], or the first [`SimError`] the engine
/// raises — in closed form, from a summary of each root's payload (empty
/// at every other node): the [`stream_broadcast_tree_cost`]s of the
/// payload roots, walked once each for their size and height, combined
/// and settled.
#[cfg(any(debug_assertions, test))]
pub fn stream_broadcast_cost(
    tree: &TreeTopology,
    payload: &[StreamSummary],
    limit: usize,
    max_rounds: u64,
) -> Result<RunReport, SimError> {
    let mut cost = RawCost::default();
    let (mut order, mut depth) = (Vec::new(), Vec::new());
    for (v, sent) in payload.iter().enumerate() {
        if sent.messages == 0 {
            continue;
        }
        let root = NodeId::new(v);
        order.clear();
        breadth_first(tree, root, &mut order);
        depths(&order, &mut depth);
        let height = depth.iter().copied().max().unwrap_or(0);
        cost.add(&stream_broadcast_tree_cost(
            root,
            order.get(1).map(|&(child, _)| child),
            order.len() as u64,
            u64::from(height),
            sent,
        ));
    }
    cost.settle(limit, max_rounds)
}

/// One tree's share of a [`stream_broadcast`]: the [`RawCost`] of root
/// `root`, whose first child is `first_child`, sending `sent` down its
/// tree of `size` nodes and height `height`.
///
/// A root sends its message `j` (0-based) in round `j`, round 0 being
/// `init`, and a node at depth `d` relays it in round `j + d`. So a root
/// with `k` messages of `w` words in total keeps the run going until
/// round `height + k − 1` (a childless root still wakes once per
/// remaining message) and has each message delivered once to every other
/// node of its tree:
///
/// * `rounds` = `height + k − 1` (0 without payload);
/// * `messages` = `k · (size − 1)`;
/// * `words` = `w · (size − 1)`.
///
/// A relay sends a message after its root did, so the tree's first
/// oversize send is the root's: its first message over the limit, sent
/// toward its first child in round `j`. Childless roots send nothing.
pub fn stream_broadcast_tree_cost(
    root: NodeId,
    first_child: Option<NodeId>,
    size: u64,
    height: u64,
    sent: &StreamSummary,
) -> RawCost {
    if sent.messages == 0 {
        return RawCost::default();
    }
    let k = sent.messages;
    RawCost {
        report: RunReport {
            rounds: height + k - 1,
            messages: k * (size - 1),
            words: sent.words * (size - 1),
        },
        oversize: first_child
            .zip(sent.oversize)
            .map(|(to, (j, words))| (j, root, to, words)),
    }
}

/// A closed form's cost of one tree, or of several combined, before it
/// is settled against the round budget: the run's report and its
/// earliest oversize send `(round, from, to, words)`.
///
/// Trees run side by side, so the forest's cost is its trees' costs
/// combined by [`add`](Self::add) — rounds: the maximum; messages and
/// words: the sums; oversize: the earliest `(round, sender)` — and
/// [`settle`](Self::settle)d once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RawCost {
    /// The run's report, were nothing oversize and no budget exceeded.
    pub report: RunReport,
    /// The earliest oversize send: `(round, from, to, words)`.
    pub oversize: Option<(u64, NodeId, NodeId, usize)>,
}

impl RawCost {
    /// Combines `other`, another tree's cost, into this one.
    pub fn add(&mut self, other: &RawCost) {
        self.report.rounds = self.report.rounds.max(other.report.rounds);
        self.report.messages += other.report.messages;
        self.report.words += other.report.words;
        if let Some(send @ (round, from, ..)) = other.oversize {
            if self
                .oversize
                .is_none_or(|(earliest, sender, ..)| (round, from) < (earliest, sender))
            {
                self.oversize = Some(send);
            }
        }
    }

    /// The engine run's result on `limit` words per message and a budget
    /// of `max_rounds`: the report, unless the earliest oversize send
    /// comes within the budget ([`SimError::MessageTooLarge`]) or the
    /// run outlasts it ([`SimError::RoundLimitExceeded`]). A validated
    /// [`TreeTopology`] rules out the engine's other errors.
    pub fn settle(&self, limit: usize, max_rounds: u64) -> Result<RunReport, SimError> {
        if let Some((round, from, to, words)) = self.oversize {
            // A send past the budget is preempted by the round limit, which
            // the check below raises: its sender alone keeps the run going
            // for at least `round + 1` rounds.
            if round <= max_rounds {
                return Err(SimError::MessageTooLarge {
                    from,
                    to,
                    words,
                    limit,
                });
            }
        }
        if self.report.rounds > max_rounds {
            return Err(SimError::RoundLimitExceeded { limit: max_rounds });
        }
        Ok(self.report)
    }
}

/// Appends `root`'s tree to `order` in breadth-first order, each node
/// with its parent's position among the appended entries (the root,
/// first, with 0). Reversed, children come before their parents; and a
/// later node's parent never comes before an earlier node's.
pub fn breadth_first(tree: &TreeTopology, root: NodeId, order: &mut Vec<(NodeId, u32)>) {
    let start = order.len();
    order.push((root, 0));
    let mut next = start;
    while let Some(&(x, _)) = order.get(next) {
        let at = (next - start) as u32;
        order.extend(tree.children(x).iter().map(|&c| (c, at)));
        next += 1;
    }
}

/// The depth of every node of one tree in [`breadth_first`] order,
/// into `depth` (the root's is 0).
pub fn depths(order: &[(NodeId, u32)], depth: &mut Vec<u32>) {
    depth.clear();
    depth.reserve(order.len());
    for (i, &(_, parent)) in order.iter().enumerate() {
        let d = if i == 0 {
            0
        } else {
            depth[parent as usize] + 1
        };
        depth.push(d);
    }
}

#[cfg(any(debug_assertions, test))]
struct UpStreamLogic<'t> {
    tree: &'t TreeTopology,
    queue: Vec<VecDeque<Msg>>,
    collected: Vec<Vec<(NodeId, Msg)>>,
}

#[cfg(any(debug_assertions, test))]
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

#[cfg(any(debug_assertions, test))]
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
/// encode them in the payload — and the run's [`RunReport`], which
/// [`up_stream_cost`] computes without running the engine.
///
/// Cost: `O(height + total items through the busiest edge)` rounds.
///
/// # Errors
///
/// Propagates engine [`SimError`]s.
#[cfg(any(debug_assertions, test))]
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

/// The result [`up_stream`] returns on an engine of `limit` words per
/// message — its [`RunReport`], or the first [`SimError`] the engine
/// raises — in closed form, from a summary of every node's own list: the
/// [`up_stream_tree_cost`]s of every tree, combined and settled.
#[cfg(any(debug_assertions, test))]
pub fn up_stream_cost(
    tree: &TreeTopology,
    items: &[StreamSummary],
    limit: usize,
    max_rounds: u64,
) -> Result<RunReport, SimError> {
    let mut scratch = UpStreamScratch::default();
    let mut cost = RawCost::default();
    let (mut order, mut depth, mut origins) = (Vec::new(), Vec::new(), Vec::new());
    for root in (0..items.len())
        .map(NodeId::new)
        .filter(|&v| tree.is_root(v))
    {
        order.clear();
        breadth_first(tree, root, &mut order);
        depths(&order, &mut depth);
        origins.clear();
        origins.extend(
            order
                .iter()
                .zip(&depth)
                .enumerate()
                .filter(|(_, ((v, _), _))| items[v.index()].messages > 0)
                .map(|(pos, (&(v, _), &depth))| Origin {
                    pos: pos as u32,
                    depth,
                    own: items[v.index()],
                }),
        );
        cost.add(&up_stream_tree_cost(&order, &origins, &mut scratch));
    }
    cost.settle(limit, max_rounds)
}

/// A node with messages of its own in an [`up_stream`], as
/// [`up_stream_tree_cost`] reads it: its position in its tree's
/// [`breadth_first`] order, its depth and a summary of its list.
#[derive(Debug, Clone, Copy)]
pub struct Origin {
    /// Its position in the tree's order.
    pub pos: u32,
    /// Its depth (the root's is 0).
    pub depth: u32,
    /// Its own message list.
    pub own: StreamSummary,
}

/// The buffers [`up_stream_tree_cost`] works in, reusable across trees
/// and runs.
#[derive(Debug, Default)]
pub struct UpStreamScratch {
    /// Send rounds as runs `(first, count)`, each node's a range of them.
    runs: Vec<(u64, u64)>,
    /// Every walked node's sends, in the order the walk reaches the
    /// nodes, each waiting for its parent's turn.
    walked: Vec<Sends>,
    steps: Vec<(u64, i64)>,
}

/// A walked node's send rounds: `runs[runs.0..runs.1]`, each run `shift`
/// rounds later, and the position of the parent they arrive at.
#[derive(Debug, Clone, Copy)]
struct Sends {
    parent: u32,
    runs: (usize, usize),
    shift: u64,
}

/// One tree's share of an [`up_stream`]: the [`RawCost`] of its nodes
/// shipping their lists to the root. `order` is the tree in
/// breadth-first order with parent positions ([`breadth_first`]), and
/// `origins` are the nodes with messages of their own, ascending in
/// position; every other node has none.
///
/// A node queues its own messages at round 0 and each relayed message
/// in the round it arrives, one round after its child sent it. Every
/// non-root node sends one queued message per round, oldest first, and
/// a root keeps what reaches it. So each message of a node at depth `d`
/// is delivered `d` times:
///
/// * `messages` = Σ `m_v · depth(v)`, `words` = Σ `w_v · depth(v)`;
/// * `rounds` = 1 + the last round any node sends in (0 if none does).
///
/// A node whose arrivals, sorted, are `a_1 ≤ a_2 ≤ …` sends in rounds
/// `t_i = max(a_i, t_{i−1} + 1)`. The rounds are computed children
/// before parents, as maximal runs of consecutive rounds, so the work
/// grows with the number of runs, not of messages; and only on the
/// origins' paths to the root, since a subtree without an origin sends
/// nothing. The walk takes positions in descending order, the larger
/// of the next origin's and the next parent's that a walked node's sends
/// wait for: parents of descending positions descend too, so those
/// wait in the order they are reached. A node with no message of its
/// own and one child on the paths sends that child's runs one round
/// later, which the walk records as a shift, copying nothing.
///
/// A node's own messages queue ahead of everything it relays, so it
/// sends its own message `j` in round `j`; and a message is relayed only
/// after its origin sent it. So the tree's first oversize send is an
/// origin's: the smallest `j` over non-root nodes whose own message `j`
/// exceeds the limit, the lowest node winning ties, sent toward its
/// parent. Roots send nothing.
pub fn up_stream_tree_cost(
    order: &[(NodeId, u32)],
    origins: &[Origin],
    scratch: &mut UpStreamScratch,
) -> RawCost {
    let mut cost = RawCost::default();
    for &Origin { pos, depth, own } in origins {
        cost.report.messages += own.messages * u64::from(depth);
        cost.report.words += own.words * u64::from(depth);
        // Roots send nothing.
        if let Some((j, words)) = own.oversize.filter(|_| pos > 0) {
            let (v, parent) = order[pos as usize];
            if cost
                .oversize
                .is_none_or(|(earliest, from, ..)| (j, v) < (earliest, from))
            {
                cost.oversize = Some((j, v, order[parent as usize].0, words));
            }
        }
    }
    let UpStreamScratch {
        runs,
        walked,
        steps,
    } = scratch;
    runs.clear();
    walked.clear();
    let (mut waiting, mut unwalked) = (0, origins.len());
    loop {
        let parent = walked.get(waiting).map(|s| s.parent);
        let origin = unwalked.checked_sub(1).map(|i| &origins[i]);
        // The root (position 0) keeps what reaches it and sends nothing.
        let at = match parent.max(origin.map(|o| o.pos)) {
            None | Some(0) => break,
            Some(at) => at,
        };
        let own = match origin {
            Some(o) if o.pos == at => {
                unwalked -= 1;
                o.own.messages
            }
            _ => 0,
        };
        let children = waiting
            ..waiting
                + walked[waiting..]
                    .iter()
                    .take_while(|s| s.parent == at)
                    .count();
        waiting = children.end;
        let sends = match &walked[children.clone()] {
            &[child] if own == 0 => Sends {
                parent: order[at as usize].1,
                shift: child.shift + 1,
                ..child
            },
            children => {
                // A child's run of sends arrives here one round later, one
                // message a round: the arrival rate steps up at its first
                // round and back down after its last.
                steps.clear();
                for child in children {
                    for &(first, count) in &runs[child.runs.0..child.runs.1] {
                        let first = first + child.shift + 1;
                        steps.extend([(first, 1), (first + count, -1)]);
                    }
                }
                let start = runs.len();
                send_runs(own, steps, runs);
                Sends {
                    parent: order[at as usize].1,
                    runs: (start, runs.len()),
                    shift: 0,
                }
            }
        };
        if let Some(&(first, count)) = runs[sends.runs.0..sends.runs.1].last() {
            cost.report.rounds = cost.report.rounds.max(first + sends.shift + count);
        }
        walked.push(sends);
    }
    cost
}

/// Appends to `runs` the rounds a non-root node sends in, as maximal
/// runs `(first round, count)`: it queues `own` messages at round 0, and
/// one more message in every round while the arrival rate that the
/// `(round, ±1)` `steps` trace is positive, and sends one queued
/// message per round.
fn send_runs(own: u64, steps: &mut [(u64, i64)], runs: &mut Vec<(u64, u64)>) {
    let start = runs.len();
    let send = |runs: &mut Vec<(u64, u64)>, first: u64, count: u64| {
        if count == 0 {
            return;
        }
        match runs[start..].last_mut() {
            Some((f, k)) if *f + *k == first => *k += count,
            _ => runs.push((first, count)),
        }
    };
    // Ends sort before starts in one round, so the rate never dips
    // below zero.
    steps.sort_unstable();
    let (mut now, mut queued, mut rate) = (0u64, own, 0u64);
    for &(round, step) in steps.iter() {
        let span = round - now;
        // A message arrives in every round of the span while the rate is
        // positive, so the node sends in each and its queue grows by
        // `rate − 1` a round; otherwise it drains its queue.
        let sends = if rate > 0 {
            queued += (rate - 1) * span;
            span
        } else {
            let sends = queued.min(span);
            queued -= sends;
            sends
        };
        send(runs, now, sends);
        now = round;
        rate = rate.wrapping_add_signed(step);
    }
    send(runs, now, queued);
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
        let summaries: Vec<StreamSummary> =
            payload.iter().map(|p| StreamSummary::of(p, 4)).collect();
        assert_eq!(
            stream_broadcast_cost(&tree, &summaries, 4, 1000),
            Ok(report)
        );
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
                random_msgs(&mut rng, k_max, max_words)
            })
            .collect();
        (g, tree, payload)
    }

    /// Up to `k_max` messages of 1 to `max_words` random words.
    fn random_msgs(rng: &mut StdRng, k_max: usize, max_words: usize) -> Vec<Msg> {
        let k = rng.random_range(0..k_max + 1);
        (0..k)
            .map(|_| {
                let len = rng.random_range(1..max_words + 1);
                Msg::from((0..len).map(|_| rng.random::<u64>()).collect::<Vec<_>>())
            })
            .collect()
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
            let summaries: Vec<StreamSummary> =
                payload.iter().map(|p| StreamSummary::of(p, limit)).collect();
            let cost = stream_broadcast_cost(&tree, &summaries, limit, max_rounds);
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

        /// The closed form is the engine run's report, errors included,
        /// on `random_broadcast` forests (paths among them, so long
        /// chains) with up to `k_max` messages at every node, roots
        /// included, or, in two cases of three, at a sparse few: one
        /// node in `sparse` (4 to 11), so most nodes have no message and
        /// most subtrees no origin. Oversize messages (in half the cases),
        /// each list's longest message first or anywhere, and round
        /// budgets from 0 to past most runs' length.
        #[test]
        fn up_stream_cost_matches_the_engine(
            seed in 0u64..u64::MAX,
            n in 1usize..60,
            k_max in 0usize..9,
            limit in 1usize..5,
            oversize in 0usize..2,
            longest_first in 0u8..2,
            max_rounds in 0u64..120,
            sparse in 0u32..12,
        ) {
            let (g, tree, _) = random_broadcast(seed, n, 0, 1);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let items: Vec<Vec<Msg>> = (0..n)
                .map(|_| {
                    if sparse > 3 && rng.random_range(0..sparse) != 0 {
                        return Vec::new();
                    }
                    let mut msgs = random_msgs(&mut rng, k_max, limit + oversize);
                    if longest_first == 1 {
                        msgs.sort_by_key(|m| std::cmp::Reverse(m.len()));
                    }
                    msgs
                })
                .collect();
            let summaries: Vec<StreamSummary> =
                items.iter().map(|m| StreamSummary::of(m, limit)).collect();
            let cost = up_stream_cost(&tree, &summaries, limit, max_rounds);
            let mut engine = Engine::new(&g, SimConfig { max_words_per_message: limit });
            let run = up_stream(&mut engine, &tree, items, max_rounds);
            prop_assert_eq!(cost, run.map(|(_, report)| report));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Per-tree raw costs, combined tree by tree in any order and
        /// settled once, are the whole-forest closed forms, errors
        /// included: on `random_broadcast` forests with up to `k_max`
        /// messages at every node (up-stream) and root (broadcast),
        /// oversize messages in half the cases and round budgets from 0
        /// to past most runs' length.
        #[test]
        fn per_tree_costs_combine_into_the_forests(
            seed in 0u64..u64::MAX,
            n in 1usize..60,
            k_max in 0usize..9,
            limit in 1usize..5,
            oversize in 0usize..2,
            max_rounds in 0u64..120,
        ) {
            let (_, tree, payload) = random_broadcast(seed, n, k_max, limit + oversize);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let items: Vec<StreamSummary> = (0..n)
                .map(|_| StreamSummary::of(&random_msgs(&mut rng, k_max, limit + oversize), limit))
                .collect();
            let payload: Vec<StreamSummary> =
                payload.iter().map(|p| StreamSummary::of(p, limit)).collect();
            let mut roots: Vec<NodeId> = (0..n).map(NodeId::new).filter(|&v| tree.is_root(v)).collect();
            roots.shuffle(&mut rng);
            let (mut up, mut down) = (RawCost::default(), RawCost::default());
            let mut scratch = UpStreamScratch::default();
            let (mut order, mut depth, mut origins) = (Vec::new(), Vec::new(), Vec::new());
            for &root in &roots {
                order.clear();
                breadth_first(&tree, root, &mut order);
                depths(&order, &mut depth);
                origins.clear();
                for (pos, (&(v, _), &depth)) in order.iter().zip(&depth).enumerate() {
                    if items[v.index()].messages > 0 {
                        origins.push(Origin { pos: pos as u32, depth, own: items[v.index()] });
                    }
                }
                up.add(&up_stream_tree_cost(&order, &origins, &mut scratch));
                let height = depth.iter().copied().max().map_or(0, u64::from);
                let (size, first_child) = (order.len() as u64, order.get(1).map(|&(c, _)| c));
                down.add(&stream_broadcast_tree_cost(root, first_child, size, height, &payload[root.index()]));
            }
            prop_assert_eq!(
                up.settle(limit, max_rounds),
                up_stream_cost(&tree, &items, limit, max_rounds)
            );
            prop_assert_eq!(
                down.settle(limit, max_rounds),
                stream_broadcast_cost(&tree, &payload, limit, max_rounds)
            );
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
