//! The synchronous round-driving engine.

use std::fmt;

use planartest_graph::{Graph, NodeId};

use crate::runtime::lanes::LaneBits;
use crate::runtime::mailbox::{Mailboxes, Staged};
use crate::stats::SimStats;

/// Payload words a [`Msg`] stores inline, without touching the heap.
///
/// Covers the default [`SimConfig::max_words_per_message`] of 4, so under
/// the default bandwidth every message of a run is allocation-free —
/// the `O(log n)`-bit CONGEST bandwidth bound is structural in the
/// representation, not just checked at send time.
pub const MSG_INLINE_WORDS: usize = 4;

/// A CONGEST message: a short sequence of machine words (`u64`). Each word
/// models `O(log n)` bits; [`SimConfig::max_words_per_message`] bounds how
/// many words fit in one round's message on one edge.
///
/// Payloads of up to [`MSG_INLINE_WORDS`] words are stored inline in the
/// value itself; only larger payloads (possible when the bandwidth limit
/// is raised) spill to the heap. Equality and hashing are over the
/// payload words alone, uniform across the inline/spill boundary.
#[derive(Clone, Default)]
pub struct Msg {
    /// Payload length in words.
    len: u32,
    /// The payload when `len <= MSG_INLINE_WORDS` (zero-padded).
    inline: [u64; MSG_INLINE_WORDS],
    /// The full payload when `len > MSG_INLINE_WORDS`.
    spill: Option<Box<[u64]>>,
}

impl Msg {
    /// Creates a message from payload words.
    #[must_use]
    pub fn words(words: &[u64]) -> Self {
        let len = u32::try_from(words.len()).expect("message length exceeds u32");
        if words.len() <= MSG_INLINE_WORDS {
            let mut inline = [0u64; MSG_INLINE_WORDS];
            inline[..words.len()].copy_from_slice(words);
            Msg {
                len,
                inline,
                spill: None,
            }
        } else {
            Msg {
                len,
                inline: [0; MSG_INLINE_WORDS],
                spill: Some(words.into()),
            }
        }
    }

    /// Creates an empty (0-word) "ping" message.
    #[must_use]
    pub fn ping() -> Self {
        Msg::default()
    }

    /// The payload words.
    #[inline]
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        match &self.spill {
            Some(boxed) => boxed,
            None => &self.inline[..self.len as usize],
        }
    }

    /// Number of payload words.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the payload is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the payload lives inline in the value (no heap storage).
    #[inline]
    #[must_use]
    pub fn is_inline(&self) -> bool {
        self.spill.is_none()
    }

    /// Word `i`, panicking with a protocol-bug message if absent.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    #[must_use]
    pub fn word(&self, i: usize) -> u64 {
        match self.as_words().get(i) {
            Some(&w) => w,
            None => panic!(
                "protocol bug: word {i} requested from a {}-word message {:?} \
                 (sender and receiver disagree on the message layout)",
                self.len(),
                self.as_words()
            ),
        }
    }
}

impl PartialEq for Msg {
    fn eq(&self, other: &Self) -> bool {
        self.as_words() == other.as_words()
    }
}

impl Eq for Msg {}

impl std::hash::Hash for Msg {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_words().hash(state);
    }
}

impl fmt::Debug for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Msg")
            .field("words", &self.as_words())
            .finish()
    }
}

impl From<Vec<u64>> for Msg {
    fn from(words: Vec<u64>) -> Self {
        if words.len() <= MSG_INLINE_WORDS {
            Msg::words(&words)
        } else {
            // Move the vector into the spill storage — no re-copy.
            Msg {
                len: u32::try_from(words.len()).expect("message length exceeds u32"),
                inline: [0; MSG_INLINE_WORDS],
                spill: Some(words.into_boxed_slice()),
            }
        }
    }
}

/// Configuration of the simulated CONGEST network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Bandwidth: maximum payload words per message (per edge per round).
    /// The default of 4 models a constant number of `O(log n)`-bit fields.
    pub max_words_per_message: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_words_per_message: 4,
        }
    }
}

/// Errors raised by the engine when a protocol violates the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A message exceeded the per-edge bandwidth.
    MessageTooLarge {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Words in the offending message.
        words: usize,
        /// Configured limit.
        limit: usize,
    },
    /// A node addressed a non-neighbour.
    NotANeighbor {
        /// Sender.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
    },
    /// Two messages were sent on the same edge direction in one round.
    DuplicateMessage {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
    },
    /// The run exceeded its round budget without quiescing.
    RoundLimitExceeded {
        /// The budget that was exceeded.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MessageTooLarge {
                from,
                to,
                words,
                limit,
            } => write!(
                f,
                "message {from:?} -> {to:?} has {words} words, bandwidth limit is {limit}"
            ),
            SimError::NotANeighbor { from, to } => {
                write!(f, "node {from:?} attempted to message non-neighbour {to:?}")
            }
            SimError::DuplicateMessage { from, to } => {
                write!(f, "two messages on edge {from:?} -> {to:?} in one round")
            }
            SimError::RoundLimitExceeded { limit } => {
                write!(f, "protocol did not quiesce within {limit} rounds")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Report of a single [`Engine::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Rounds executed (the last round in which any message was delivered
    /// or any node was woken).
    pub rounds: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Total payload words delivered.
    pub words: u64,
}

/// Per-node protocol logic, driven synchronously by the [`Engine`].
///
/// The engine calls [`init`](NodeLogic::init) for every node before round
/// 1, then, in each round, [`round`](NodeLogic::round) for every node that
/// received a message or requested a wake-up, in ascending node order.
/// Local computation is free (CONGEST); only messages cost rounds.
pub trait NodeLogic {
    /// Round-0 hook: seed initial messages/wake-ups.
    fn init(&mut self, node: NodeId, out: &mut Outbox<'_>);

    /// Called once per round per *active* node with the messages that
    /// arrived this round (possibly empty if the node was merely woken).
    fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>);
}

/// The send side of one run: everything [`Outbox`] writes. Owned by the
/// [`Engine`] and recycled across runs.
#[derive(Debug)]
struct Sends {
    /// `edge_stamp[2e + dir]` = epoch of the last send on that edge
    /// direction (see [`Sends::epoch`]).
    edge_stamp: Vec<u64>,
    /// The current run's epoch base: round `r` stamps `epoch + r + 1`.
    /// Every run advances it past all the stamps it wrote, so a stale
    /// stamp never equals a fresh one and `edge_stamp` is never
    /// re-zeroed between runs.
    epoch: u64,
    /// Sends staged this round, delivered next round.
    staged: Vec<Staged>,
    /// Wake-up requests this round, deduplicated by `woken`.
    wake: Vec<NodeId>,
    woken: LaneBits,
    /// The first CONGEST violation of the current sweep.
    error: Option<SimError>,
}

/// Per-call send interface handed to [`NodeLogic`] methods.
///
/// Sends are validated against the CONGEST constraints; the first
/// violation aborts the run with the corresponding [`SimError`].
pub struct Outbox<'a> {
    src: NodeId,
    g: &'a Graph,
    limit: usize,
    round: u64,
    /// The epoch value marking "sent this round".
    stamp: u64,
    sends: &'a mut Sends,
}

impl<'a> Outbox<'a> {
    fn new(src: NodeId, g: &'a Graph, limit: usize, round: u64, sends: &'a mut Sends) -> Self {
        Outbox {
            src,
            g,
            limit,
            round,
            stamp: sends.epoch + round + 1,
            sends,
        }
    }

    /// Stages `msg` on the already-validated edge `e` toward neighbour
    /// `to`, enforcing the one-message-per-edge-direction rule — the
    /// single home of the staging semantics behind [`Outbox::send`] and
    /// [`Outbox::send_all`].
    fn stage_on_edge(&mut self, to: NodeId, e: planartest_graph::EdgeId, msg: Msg) {
        let (u, _) = self.g.endpoints(e);
        let slot = 2 * e.index() + usize::from(self.src != u);
        if self.sends.edge_stamp[slot] == self.stamp {
            self.sends.error = Some(SimError::DuplicateMessage { from: self.src, to });
            return;
        }
        self.sends.edge_stamp[slot] = self.stamp;
        self.sends.staged.push((self.src, to, msg));
    }

    /// Sends `msg` to neighbour `to`, to be delivered next round.
    pub fn send(&mut self, to: NodeId, msg: Msg) {
        if self.sends.error.is_some() {
            return;
        }
        if msg.len() > self.limit {
            self.sends.error = Some(SimError::MessageTooLarge {
                from: self.src,
                to,
                words: msg.len(),
                limit: self.limit,
            });
            return;
        }
        let Some(e) = self.g.edge_between(self.src, to) else {
            self.sends.error = Some(SimError::NotANeighbor { from: self.src, to });
            return;
        };
        self.stage_on_edge(to, e, msg);
    }

    /// Sends a copy of `msg` to every neighbour.
    ///
    /// Iterates the CSR neighbour slice directly — no per-call allocation
    /// and no per-neighbour edge lookup (the slice already carries the
    /// edge ids). This is the hottest primitive in flood workloads.
    pub fn send_all(&mut self, msg: Msg) {
        if self.sends.error.is_some() {
            return;
        }
        let g = self.g;
        let neighbors = g.neighbors(self.src);
        let Some(&(first, _)) = neighbors.first() else {
            return;
        };
        if msg.len() > self.limit {
            // Same error a `send` loop would raise on the first neighbour.
            self.sends.error = Some(SimError::MessageTooLarge {
                from: self.src,
                to: first,
                words: msg.len(),
                limit: self.limit,
            });
            return;
        }
        for &(w, e) in neighbors {
            self.stage_on_edge(w, e, msg.clone());
            if self.sends.error.is_some() {
                return;
            }
        }
    }

    /// Requests that this node's `round` hook runs next round even without
    /// incoming messages (models an internal timer; costs a round only if
    /// nothing else is happening — it never creates messages).
    pub fn wake(&mut self) {
        if !self.sends.woken.get(self.src.index()) {
            self.sends.woken.set(self.src.index());
            self.sends.wake.push(self.src);
        }
    }

    /// The node this outbox belongs to.
    pub fn node(&self) -> NodeId {
        self.src
    }

    /// The network graph (for neighbour discovery inside logic hooks).
    pub fn graph(&self) -> &'a Graph {
        self.g
    }

    /// The current round number (0 during `init`).
    pub fn round(&self) -> u64 {
        self.round
    }
}

/// The simulator: owns the cumulative [`SimStats`] across many runs, so a
/// multi-phase algorithm (like the paper's tester) can account its total
/// round complexity by sequencing `run` calls on one engine.
///
/// The engine also owns its round buffers — edge stamps, wake flags, the
/// staged and active lists and the mailbox arena — and recycles them
/// across runs. A batch of independent protocol instances (the tester's
/// per-seed sample streams) is therefore just consecutive `run` calls on
/// one engine: the buffers are allocated once, and each run reports
/// exactly what it would on a fresh engine.
#[derive(Debug)]
pub struct Engine<'g> {
    g: &'g Graph,
    cfg: SimConfig,
    stats: SimStats,
    sends: Sends,
    /// This round's active nodes, in ascending order.
    active: Vec<NodeId>,
    boxes: Mailboxes,
}

impl<'g> Engine<'g> {
    /// Creates an engine over `g`.
    pub fn new(g: &'g Graph, cfg: SimConfig) -> Self {
        Engine {
            g,
            cfg,
            stats: SimStats::default(),
            sends: Sends {
                edge_stamp: vec![0; 2 * g.m()],
                epoch: 0,
                staged: Vec::new(),
                wake: Vec::new(),
                woken: LaneBits::new(g.n()),
                error: None,
            },
            active: Vec::new(),
            boxes: Mailboxes::new(g.n()),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The configuration.
    pub fn config(&self) -> SimConfig {
        self.cfg
    }

    /// Cumulative statistics over all successful runs (plus charged
    /// rounds).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Adds `rounds` explicitly charged rounds (for substituted
    /// subroutines whose cost is taken from their paper's bound).
    pub fn charge_rounds(&mut self, rounds: u64) {
        self.stats.charged_rounds += rounds;
    }

    /// Runs `logic` to quiescence (no staged messages and no wake-ups)
    /// and folds its report into [`stats`](Engine::stats).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the protocol violates the CONGEST
    /// constraints or fails to quiesce within `max_rounds`. A failed run
    /// leaves the statistics untouched and the engine ready for the next
    /// run.
    pub fn run<L: NodeLogic>(
        &mut self,
        logic: &mut L,
        max_rounds: u64,
    ) -> Result<RunReport, SimError> {
        debug_assert!(
            self.sends.staged.is_empty() && !self.sends.woken.any_set(),
            "every run must start from clean buffers"
        );
        let mut report = RunReport::default();
        let result = self.rounds(logic, max_rounds, &mut report);
        self.sends.epoch += report.rounds + 2;
        if let Err(e) = result {
            // Drop the undelivered sends and pending wake-ups, so the
            // next run starts from clean buffers.
            self.sends.staged.clear();
            for v in self.sends.wake.drain(..) {
                self.sends.woken.clear(v.index());
            }
            return Err(e);
        }
        self.stats.absorb(report);
        Ok(report)
    }

    /// The round loop behind [`Engine::run`]; `report.rounds` tracks the
    /// current round on every exit path.
    fn rounds<L: NodeLogic>(
        &mut self,
        logic: &mut L,
        max_rounds: u64,
        report: &mut RunReport,
    ) -> Result<(), SimError> {
        let g = self.g;
        let limit = self.cfg.max_words_per_message;
        for v in g.nodes() {
            logic.init(v, &mut Outbox::new(v, g, limit, 0, &mut self.sends));
            if let Some(e) = self.sends.error.take() {
                return Err(e);
            }
        }
        while !self.sends.staged.is_empty() || !self.sends.wake.is_empty() {
            let round = report.rounds + 1;
            report.rounds = round;
            if round > max_rounds {
                return Err(SimError::RoundLimitExceeded { limit: max_rounds });
            }
            // Message-activated nodes, then the woken ones, swept in
            // ascending node order. The two lists are disjoint: delivery
            // skips wake-flagged nodes. When they outnumber the flag
            // words, one scan of the flags orders them more cheaply than
            // a sort.
            self.active.clear();
            self.boxes.deliver(
                &mut self.sends.staged,
                &self.sends.woken,
                &mut self.active,
                report,
            );
            if self.active.len() + self.sends.wake.len() > self.sends.woken.word_count() {
                for &v in &self.active {
                    self.sends.woken.set(v.index());
                }
                self.active.clear();
                self.sends.wake.clear();
                self.sends.woken.drain_ascending(&mut self.active);
            } else {
                self.active.append(&mut self.sends.wake);
                self.active.sort_unstable();
                for &v in &self.active {
                    self.sends.woken.clear(v.index());
                }
            }
            debug_assert!(self.active.windows(2).all(|w| w[0] < w[1]));
            for &v in &self.active {
                let mut out = Outbox::new(v, g, limit, round, &mut self.sends);
                logic.round(v, self.boxes.inbox(v), &mut out);
                if let Some(e) = self.sends.error.take() {
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    /// Node 0 sends its id to node 1; everyone else is silent.
    struct OneShot {
        got: Vec<Option<u64>>,
    }
    impl NodeLogic for OneShot {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            if node.index() == 0 {
                out.send(NodeId::new(1), Msg::words(&[42]));
            }
        }
        fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], _out: &mut Outbox<'_>) {
            for (from, m) in inbox {
                assert_eq!(from.index(), 0);
                self.got[node.index()] = Some(m.word(0));
            }
        }
    }

    #[test]
    fn one_shot_delivery() {
        let g = path4();
        let mut engine = Engine::new(&g, SimConfig::default());
        let mut logic = OneShot { got: vec![None; 4] };
        let rep = engine.run(&mut logic, 10).unwrap();
        assert_eq!(rep.rounds, 1);
        assert_eq!(rep.messages, 1);
        assert_eq!(rep.words, 1);
        assert_eq!(logic.got[1], Some(42));
        assert_eq!(engine.stats().rounds, 1);
    }

    struct SendTooBig;
    impl NodeLogic for SendTooBig {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            if node.index() == 0 {
                out.send(NodeId::new(1), Msg::words(&[0; 9]));
            }
        }
        fn round(&mut self, _: NodeId, _: &[(NodeId, Msg)], _: &mut Outbox<'_>) {}
    }

    #[test]
    fn bandwidth_enforced() {
        let g = path4();
        let mut engine = Engine::new(
            &g,
            SimConfig {
                max_words_per_message: 4,
            },
        );
        let err = engine.run(&mut SendTooBig, 10).unwrap_err();
        assert!(matches!(
            err,
            SimError::MessageTooLarge {
                words: 9,
                limit: 4,
                ..
            }
        ));
        assert!(err.to_string().contains("bandwidth"));
    }

    struct SendToStranger;
    impl NodeLogic for SendToStranger {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            if node.index() == 0 {
                out.send(NodeId::new(3), Msg::ping());
            }
        }
        fn round(&mut self, _: NodeId, _: &[(NodeId, Msg)], _: &mut Outbox<'_>) {}
    }

    #[test]
    fn topology_enforced() {
        let g = path4();
        let mut engine = Engine::new(&g, SimConfig::default());
        let err = engine.run(&mut SendToStranger, 10).unwrap_err();
        assert_eq!(
            err,
            SimError::NotANeighbor {
                from: NodeId::new(0),
                to: NodeId::new(3)
            }
        );
    }

    struct DoubleSend;
    impl NodeLogic for DoubleSend {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            if node.index() == 0 {
                out.send(NodeId::new(1), Msg::ping());
                out.send(NodeId::new(1), Msg::ping());
            }
        }
        fn round(&mut self, _: NodeId, _: &[(NodeId, Msg)], _: &mut Outbox<'_>) {}
    }

    #[test]
    fn one_message_per_edge_direction_per_round() {
        let g = path4();
        let mut engine = Engine::new(&g, SimConfig::default());
        let err = engine.run(&mut DoubleSend, 10).unwrap_err();
        assert!(matches!(err, SimError::DuplicateMessage { .. }));
    }

    /// Both directions of one edge in the same round are allowed.
    struct CrossTalk {
        ok: [bool; 2],
    }
    impl NodeLogic for CrossTalk {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            if node.index() <= 1 {
                out.send(
                    NodeId::new(1 - node.index()),
                    Msg::words(&[node.index() as u64]),
                );
            }
        }
        fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], _: &mut Outbox<'_>) {
            if node.index() <= 1 && inbox.len() == 1 {
                self.ok[node.index()] = true;
            }
        }
    }

    #[test]
    fn both_directions_allowed() {
        let g = path4();
        let mut engine = Engine::new(&g, SimConfig::default());
        let mut logic = CrossTalk { ok: [false; 2] };
        engine.run(&mut logic, 10).unwrap();
        assert_eq!(logic.ok, [true, true]);
    }

    struct Chatter;
    impl NodeLogic for Chatter {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            if node.index() == 0 {
                out.send(NodeId::new(1), Msg::ping());
            }
        }
        fn round(&mut self, _: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
            // Bounce forever.
            for (from, _) in inbox {
                out.send(*from, Msg::ping());
            }
        }
    }

    #[test]
    fn round_limit_enforced() {
        let g = path4();
        let mut engine = Engine::new(&g, SimConfig::default());
        let err = engine.run(&mut Chatter, 25).unwrap_err();
        assert_eq!(err, SimError::RoundLimitExceeded { limit: 25 });
    }

    struct Sleeper {
        fired: bool,
    }
    impl NodeLogic for Sleeper {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            if node.index() == 2 {
                out.wake();
            }
        }
        fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], _: &mut Outbox<'_>) {
            assert_eq!(node.index(), 2);
            assert!(inbox.is_empty());
            self.fired = true;
        }
    }

    #[test]
    fn wake_without_messages() {
        let g = path4();
        let mut engine = Engine::new(&g, SimConfig::default());
        let mut logic = Sleeper { fired: false };
        let rep = engine.run(&mut logic, 10).unwrap();
        assert!(logic.fired);
        assert_eq!(rep.rounds, 1);
        assert_eq!(rep.messages, 0);
    }

    #[test]
    fn quiescent_immediately() {
        struct Silent;
        impl NodeLogic for Silent {
            fn init(&mut self, _: NodeId, _: &mut Outbox<'_>) {}
            fn round(&mut self, _: NodeId, _: &[(NodeId, Msg)], _: &mut Outbox<'_>) {}
        }
        let g = path4();
        let mut engine = Engine::new(&g, SimConfig::default());
        let rep = engine.run(&mut Silent, 10).unwrap();
        assert_eq!(rep.rounds, 0);
    }

    #[test]
    fn charged_rounds_accumulate() {
        let g = path4();
        let mut engine = Engine::new(&g, SimConfig::default());
        engine.charge_rounds(17);
        assert_eq!(engine.stats().charged_rounds, 17);
        assert_eq!(engine.stats().total_rounds(), 17);
    }

    /// How a [`Faulty`] run ends.
    #[derive(Clone, Copy, Debug)]
    enum Fault {
        Duplicate,
        TooLarge,
        Stranger,
        /// Never quiesces: hits the round limit with wake-ups pending.
        Endless,
    }

    /// Floods and wakes every node each round, so an aborted run leaves
    /// staged sends, pending wake-ups and fresh edge stamps behind; node 2
    /// commits the fault in round 2, after nodes 0 and 1 have sent.
    struct Faulty(Fault);
    impl NodeLogic for Faulty {
        fn init(&mut self, _: NodeId, out: &mut Outbox<'_>) {
            out.send_all(Msg::words(&[1]));
            out.wake();
        }
        fn round(&mut self, node: NodeId, _: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
            out.send_all(Msg::words(&[2]));
            out.wake();
            if node.index() == 2 && out.round() == 2 {
                match self.0 {
                    Fault::Duplicate => out.send(NodeId::new(1), Msg::ping()),
                    Fault::TooLarge => out.send(NodeId::new(3), Msg::words(&[0; 9])),
                    Fault::Stranger => out.send(NodeId::new(0), Msg::ping()),
                    Fault::Endless => {}
                }
            }
        }
    }

    /// A seeded gossip with sends, wake-ups and a per-node delivery log —
    /// the run that must not notice what came before it.
    struct Gossip {
        seed: u64,
        acts: Vec<u32>,
        log: Vec<(usize, NodeId, Msg)>,
    }
    impl Gossip {
        fn new(seed: u64, n: usize) -> Self {
            Gossip {
                seed,
                acts: vec![0; n],
                log: Vec::new(),
            }
        }
        fn act(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            let v = node.index();
            let r = (self.seed + 7 * v as u64 + 3 * u64::from(self.acts[v])) % 5;
            for &(w, _) in out.graph().neighbors(node) {
                if (r + w.index() as u64).is_multiple_of(2) {
                    out.send(w, Msg::words(&[r, v as u64]));
                }
            }
            if r == 1 {
                out.wake();
            }
        }
    }
    impl NodeLogic for Gossip {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            self.act(node, out);
        }
        fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
            let v = node.index();
            self.log
                .extend(inbox.iter().map(|(from, m)| (v, *from, m.clone())));
            self.acts[v] += 1;
            if self.acts[v] < 4 {
                self.act(node, out);
            }
        }
    }

    #[test]
    fn aborted_runs_leave_no_trace_on_the_next_run() {
        let g = path4();
        let mut shared = Engine::new(&g, SimConfig::default());
        for (k, fault) in [
            Fault::Duplicate,
            Fault::TooLarge,
            Fault::Stranger,
            Fault::Endless,
        ]
        .into_iter()
        .enumerate()
        {
            let err = shared.run(&mut Faulty(fault), 6).unwrap_err();
            let expected = match fault {
                Fault::Duplicate => matches!(err, SimError::DuplicateMessage { .. }),
                Fault::TooLarge => matches!(err, SimError::MessageTooLarge { .. }),
                Fault::Stranger => matches!(err, SimError::NotANeighbor { .. }),
                Fault::Endless => err == SimError::RoundLimitExceeded { limit: 6 },
            };
            assert!(expected, "{fault:?}: {err}");

            let seed = k as u64;
            let mut fresh = Engine::new(&g, SimConfig::default());
            let mut reference = Gossip::new(seed, g.n());
            let want = fresh.run(&mut reference, 100).unwrap();
            let mut after = Gossip::new(seed, g.n());
            let got = shared.run(&mut after, 100).unwrap();
            assert_eq!(got, want, "{fault:?}");
            assert!(want.messages > 0 && want.rounds > 1);
            assert_eq!(after.log, reference.log, "{fault:?}");
            assert_eq!(after.acts, reference.acts, "{fault:?}");
        }
        // Failed runs are never absorbed: only the four clean runs count.
        assert_eq!(shared.stats().runs, 4);
    }

    /// Sends pseudo-randomly for four rounds and records, per round, the
    /// nodes it addressed or woke, next to the nodes the engine called.
    struct SweepLog {
        expected: Vec<Vec<NodeId>>,
        called: Vec<Vec<NodeId>>,
    }
    impl SweepLog {
        fn act(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            let next = out.round() as usize + 1;
            if next > 4 {
                return;
            }
            let v = node.index() as u64;
            for &(w, _) in out.graph().neighbors(node) {
                if !mix(v * 1_000 + w.index() as u64 + 77 * next as u64).is_multiple_of(3) {
                    out.send(w, Msg::ping());
                    self.expected[next].push(w);
                }
            }
            if mix(v + 1_000_003 * next as u64).is_multiple_of(2) {
                out.wake();
                self.expected[next].push(node);
            }
        }
    }
    impl NodeLogic for SweepLog {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            // Only node 0 starts, so round 1 sweeps its addressees.
            if node.index() == 0 {
                self.act(node, out);
            }
        }
        fn round(&mut self, node: NodeId, _: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
            self.called[out.round() as usize].push(node);
            self.act(node, out);
        }
    }

    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Busy rounds (more active nodes than flag words) and quiet ones
    /// both sweep exactly the addressed and woken nodes, ascending.
    #[test]
    fn sweeps_active_nodes_in_ascending_order() {
        // A 300-node hub-and-path graph: the hub reaches everyone in one
        // round, the path keeps later rounds sparse.
        let n = 300;
        let edges = (1..n).map(|i| (0, i)).chain((1..n - 1).map(|i| (i, i + 1)));
        for hub_degree in [n - 1, 3] {
            let g = Graph::from_edges(n, edges.clone().filter(|&(u, v)| u != 0 || v <= hub_degree))
                .unwrap();
            let mut engine = Engine::new(&g, SimConfig::default());
            let mut logic = SweepLog {
                expected: vec![Vec::new(); 6],
                called: vec![Vec::new(); 6],
            };
            let rep = engine.run(&mut logic, 10).unwrap();
            assert!(rep.rounds >= 2);
            // 300 nodes fill 5 flag words: the full hub's round 1 is busy,
            // the degree-3 hub's is quiet.
            assert_eq!(logic.called[1].len() > 5, hub_degree == n - 1);
            for (round, mut want) in logic.expected.into_iter().enumerate() {
                want.sort_unstable();
                want.dedup();
                assert_eq!(logic.called[round], want, "round {round}");
            }
        }
    }

    #[test]
    fn msg_accessors() {
        let m = Msg::words(&[1, 2, 3]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.word(2), 3);
        assert_eq!(m.as_words(), &[1, 2, 3]);
        assert!(Msg::ping().is_empty());
        let m2: Msg = vec![5u64].into();
        assert_eq!(m2.word(0), 5);
    }
}
