//! Flat arena mailboxes with deterministic delivery.
//!
//! One round's delivered messages live in a single recycled arena — a
//! flat `Vec<(src, Msg)>` grouped by destination — plus a per-node
//! `[start, end)` range table. Delivery is a two-pass counting sort of
//! the staged sends (which arrive in the documented stable `(src, dst)`
//! order: ascending active-node order, emission order within a node):
//!
//! 1. count messages per destination, recording first-touch activations
//!    (a destination's first message activates it unless it is already
//!    wake-flagged);
//! 2. prefix-sum the counts into arena ranges and place each send at its
//!    destination's cursor, preserving staged order within a
//!    destination.
//!
//! A node's inbox is then the slice `arena[start..end]` — no per-node
//! `Vec`, no take/recycle churn, and because the arena and the range
//! table are recycled across rounds, steady-state delivery allocates
//! nothing. The counting sort is stable, so the per-destination message
//! order is identical to the historical nested-`Vec` layout.

use planartest_graph::NodeId;

use crate::engine::{Msg, RunReport};
use crate::runtime::lanes::LaneBits;

/// One staged send: `(src, dst, payload)`.
pub type Staged = (NodeId, NodeId, Msg);

/// The flat arena mailbox grid of one engine run.
#[derive(Debug)]
pub struct Mailboxes {
    /// This round's delivered `(src, msg)` pairs, grouped by destination.
    arena: Vec<(NodeId, Msg)>,
    /// `ranges[v]` = `v`'s `[start, end)` slice of `arena` this round.
    ranges: Vec<(u32, u32)>,
    /// Destinations with a non-empty range this round (cheap reset).
    touched: Vec<NodeId>,
}

impl Mailboxes {
    /// Creates empty mailboxes for an `n`-node network.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Mailboxes {
            arena: Vec::new(),
            ranges: vec![(0, 0); n],
            touched: Vec::new(),
        }
    }

    /// Delivers the staged sends of the previous round into the arena,
    /// recording message/word counts in `report` and appending every
    /// node that just became active (first message, not already
    /// wake-flagged) to `active`. The previous round's inboxes are
    /// discarded.
    pub fn deliver(
        &mut self,
        staged: &mut Vec<Staged>,
        woken: &LaneBits,
        active: &mut Vec<NodeId>,
        report: &mut RunReport,
    ) {
        for v in self.touched.drain(..) {
            self.ranges[v.index()] = (0, 0);
        }
        self.arena.clear();
        // Pass 1: count per destination (`end` temporarily holds the
        // count), recording activations in first-message order.
        for &(_, dst, ref msg) in staged.iter() {
            report.messages += 1;
            report.words += msg.len() as u64;
            let r = &mut self.ranges[dst.index()];
            if r.1 == 0 {
                self.touched.push(dst);
                if !woken.get(dst.index()) {
                    active.push(dst);
                }
            }
            r.1 += 1;
        }
        // Pass 2: prefix-sum counts into ranges (layout in first-touch
        // order; only the within-destination order is observable).
        let mut cursor = 0u32;
        for &v in &self.touched {
            let r = &mut self.ranges[v.index()];
            let count = r.1;
            *r = (cursor, cursor);
            cursor += count;
        }
        // Pass 3: place each send at its destination's cursor (`end`
        // doubles as the cursor and finishes at the true end). Staged
        // order within a destination is preserved — a stable sort.
        self.arena
            .resize_with(staged.len(), || (NodeId::default(), Msg::ping()));
        for (src, dst, msg) in staged.drain(..) {
            let r = &mut self.ranges[dst.index()];
            self.arena[r.1 as usize] = (src, msg);
            r.1 += 1;
        }
    }

    /// Node `v`'s inbox for the current round (empty slice if nothing
    /// was delivered to it).
    #[inline]
    #[must_use]
    pub fn inbox(&self, v: NodeId) -> &[(NodeId, Msg)] {
        let (start, end) = self.ranges[v.index()];
        &self.arena[start as usize..end as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: u32) -> NodeId {
        NodeId::new(i as usize)
    }

    #[test]
    fn delivery_counts_and_activation() {
        let mut boxes = Mailboxes::new(4);
        let mut staged: Vec<Staged> = vec![
            (node(0), node(1), Msg::words(&[7, 8])),
            (node(2), node(1), Msg::ping()),
        ];
        let woken = LaneBits::new(4);
        let mut active = Vec::new();
        let mut report = RunReport::default();
        boxes.deliver(&mut staged, &woken, &mut active, &mut report);
        assert!(staged.is_empty());
        assert_eq!(report.messages, 2);
        assert_eq!(report.words, 2);
        // Node 1 activates once despite two messages.
        assert_eq!(active, vec![node(1)]);
        assert_eq!(
            boxes.inbox(node(1)),
            &[(node(0), Msg::words(&[7, 8])), (node(2), Msg::ping())]
        );
        assert!(boxes.inbox(node(0)).is_empty());
    }

    #[test]
    fn woken_nodes_not_reactivated_by_messages() {
        let mut boxes = Mailboxes::new(2);
        let mut staged: Vec<Staged> = vec![(node(0), node(1), Msg::ping())];
        let mut woken = LaneBits::new(2);
        woken.set(1); // node 1 already wake-flagged
        let mut active = Vec::new();
        let mut report = RunReport::default();
        boxes.deliver(&mut staged, &woken, &mut active, &mut report);
        assert!(active.is_empty(), "wake list owns node 1's activation");
        // Its inbox still holds the message.
        assert_eq!(boxes.inbox(node(1)).len(), 1);
    }

    #[test]
    fn interleaved_destinations_grouped_stably() {
        let mut boxes = Mailboxes::new(4);
        // Sends to 3 and 1 interleave; each inbox must keep staged order.
        let mut staged: Vec<Staged> = vec![
            (node(0), node(3), Msg::words(&[10])),
            (node(0), node(1), Msg::words(&[20])),
            (node(2), node(3), Msg::words(&[11])),
            (node(2), node(1), Msg::words(&[21])),
        ];
        let woken = LaneBits::new(4);
        let mut active = Vec::new();
        let mut report = RunReport::default();
        boxes.deliver(&mut staged, &woken, &mut active, &mut report);
        assert_eq!(active, vec![node(3), node(1)], "first-message order");
        assert_eq!(
            boxes.inbox(node(3)),
            &[(node(0), Msg::words(&[10])), (node(2), Msg::words(&[11]))]
        );
        assert_eq!(
            boxes.inbox(node(1)),
            &[(node(0), Msg::words(&[20])), (node(2), Msg::words(&[21]))]
        );
    }

    #[test]
    fn arena_is_recycled_across_rounds() {
        let mut boxes = Mailboxes::new(3);
        let mut ptrs = Vec::new();
        for round in 0..4u64 {
            let mut staged: Vec<Staged> = vec![(node(0), node(2), Msg::words(&[round]))];
            let woken = LaneBits::new(3);
            let mut active = Vec::new();
            let mut report = RunReport::default();
            boxes.deliver(&mut staged, &woken, &mut active, &mut report);
            assert_eq!(boxes.inbox(node(2)), &[(node(0), Msg::words(&[round]))]);
            // The round's only inbox starts the arena.
            ptrs.push(boxes.inbox(node(2)).as_ptr() as usize);
            // The previous round's inbox is gone.
            assert!(boxes.inbox(node(0)).is_empty());
        }
        // After the first round the same allocation cycles through.
        assert_eq!(ptrs[1], ptrs[2]);
        assert_eq!(ptrs[2], ptrs[3]);
    }
}
