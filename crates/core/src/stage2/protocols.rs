//! Message-level protocols specific to Stage II: pipelined label
//! distribution down BFS trees and label exchange across non-tree edges.

use std::collections::HashMap;

use planartest_graph::{EdgeId, Graph, NodeId};
use planartest_sim::tree::TreeTopology;
use planartest_sim::Engine;
use planartest_sim::{Msg, NodeLogic, Outbox, SimError};

use crate::stage2::labels::Label;

const TAG_DIGIT: u64 = 0;
const TAG_END: u64 = 1;

/// The logic behind [`distribute_labels`]: each node's label is its
/// parent's label plus its own child digit, fully pipelined in
/// `O(depth + max label length)` rounds.
struct LabelLogic<'t> {
    tree: &'t TreeTopology,
    digit_of: &'t [HashMap<u32, u32>],
    label: Vec<Vec<u32>>,
    end_pending: Vec<bool>,
}

impl LabelLogic<'_> {
    fn start_children(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        let digits = &self.digit_of[node.index()];
        let mut any = false;
        for &c in self.tree.children(node) {
            let d = *digits
                .get(&c.raw())
                .unwrap_or_else(|| panic!("child {c:?} of {node:?} has no digit (embedding bug)"));
            out.send(c, Msg::words(&[TAG_DIGIT, d as u64]));
            any = true;
        }
        if any {
            self.end_pending[node.index()] = true;
            out.wake();
        }
    }
}

impl NodeLogic for LabelLogic<'_> {
    fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        if self.tree.is_root(node) {
            self.start_children(node, out);
        }
    }
    fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
        let v = node.index();
        if self.end_pending[v] && inbox.is_empty() {
            self.end_pending[v] = false;
            for &c in self.tree.children(node) {
                out.send(c, Msg::words(&[TAG_END]));
            }
            return;
        }
        for (_, msg) in inbox {
            match msg.word(0) {
                TAG_DIGIT => {
                    let d = msg.word(1) as u32;
                    self.label[v].push(d);
                    for &c in self.tree.children(node) {
                        out.send(c, msg.clone());
                    }
                }
                TAG_END => {
                    // Own label complete: issue each child its final
                    // digit, then an END next round.
                    self.start_children(node, out);
                }
                other => unreachable!("label tag {other}"),
            }
        }
    }
}

/// Distributes vertex labels down every part tree, given each node's
/// child-digit assignment (`digit_of[parent][child] = digit`).
pub(crate) fn distribute_labels(
    engine: &mut Engine<'_>,
    tree: &TreeTopology,
    digit_of: &[HashMap<u32, u32>],
    max_rounds: u64,
) -> Result<Vec<Label>, SimError> {
    let n = engine.graph().n();
    let mut logic = LabelLogic {
        tree,
        digit_of,
        label: vec![Vec::new(); n],
        end_pending: vec![false; n],
    };
    engine.run(&mut logic, max_rounds)?;
    Ok(logic.label.into_iter().map(Label).collect())
}

/// The logic behind [`exchange_edge_labels`]: streams framed label
/// words over bandwidth-sized chunks.
struct StreamLogic {
    /// Per node: remaining (target, words) channels.
    sendq: Vec<Vec<(NodeId, Vec<u64>)>>,
    cursor: Vec<usize>,
    chunk: usize,
    /// Received words keyed by sender.
    received: Vec<HashMap<u32, Vec<u64>>>,
}

impl StreamLogic {
    fn pump(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        let v = node.index();
        let pos = self.cursor[v];
        let mut more = false;
        for (to, words) in &self.sendq[v] {
            if pos < words.len() {
                let end = (pos + self.chunk).min(words.len());
                out.send(*to, Msg::words(&words[pos..end]));
                if end < words.len() {
                    more = true;
                }
            }
        }
        self.cursor[v] = pos + self.chunk;
        if more {
            out.wake();
        }
    }
}

impl NodeLogic for StreamLogic {
    fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        if !self.sendq[node.index()].is_empty() {
            self.pump(node, out);
        }
    }
    fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
        let v = node.index();
        for (from, msg) in inbox {
            self.received[v]
                .entry(from.raw())
                .or_default()
                .extend_from_slice(msg.as_words());
        }
        if self.cursor[v] > 0 || !self.sendq[v].is_empty() {
            self.pump(node, out);
        }
    }
}

/// Streams, for every assigned non-tree edge, the non-owner endpoint's
/// label to the owner. Returns the other-endpoint label digits per node,
/// in `assigned[node]` order.
pub(crate) fn exchange_edge_labels(
    engine: &mut Engine<'_>,
    g: &Graph,
    assigned: &[Vec<EdgeId>],
    node_labels: &[Label],
    max_rounds: u64,
) -> Result<Vec<Vec<Vec<u32>>>, SimError> {
    let n = g.n();
    // Channels: (sender w, receiver v=owner, framed words of w's label).
    let mut sendq: Vec<Vec<(NodeId, Vec<u64>)>> = vec![Vec::new(); n];
    for (v, edges) in assigned.iter().enumerate() {
        for &e in edges {
            let w = g.other_endpoint(e, NodeId::new(v));
            // Digits packed several to a word (`pack_label`) rather than
            // one per word: same O(log n)-bit messages, a fraction of the
            // message count.
            let mut words = Vec::new();
            crate::stage2::labels::pack_label(&node_labels[w.index()].0, &mut words);
            sendq[w.index()].push((NodeId::new(v), words));
        }
    }
    let mut logic = StreamLogic {
        sendq,
        cursor: vec![0; n],
        chunk: engine.config().max_words_per_message,
        received: vec![HashMap::new(); n],
    };
    engine.run(&mut logic, max_rounds)?;
    let mut out = vec![Vec::new(); n];
    for (v, edges) in assigned.iter().enumerate() {
        for &e in edges {
            let w = g.other_endpoint(e, NodeId::new(v));
            let words = logic.received[v]
                .get(&w.raw())
                .unwrap_or_else(|| panic!("missing label stream {w:?} -> n{v}"));
            let (digits, used) = crate::stage2::labels::unpack_label(words);
            assert_eq!(words.len(), used, "label stream framing corrupted");
            out[v].push(digits);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use planartest_graph::Graph;
    use planartest_sim::SimConfig;

    #[test]
    fn labels_follow_digits() {
        // A rooted binary-ish tree as a graph: 0-(1,2), 1-(3,4).
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 3), (1, 4)]).unwrap();
        let parent = vec![
            None,
            Some(NodeId::new(0)),
            Some(NodeId::new(0)),
            Some(NodeId::new(1)),
            Some(NodeId::new(1)),
        ];
        let tree = TreeTopology::from_parents(&g, parent).unwrap();
        let mut digit_of: Vec<HashMap<u32, u32>> = vec![HashMap::new(); 5];
        digit_of[0].insert(1, 1);
        digit_of[0].insert(2, 2);
        digit_of[1].insert(3, 2);
        digit_of[1].insert(4, 1);
        let mut engine = Engine::new(&g, SimConfig::default());
        let labels = distribute_labels(&mut engine, &tree, &digit_of, 1000).unwrap();
        assert_eq!(labels[0], Label(vec![]));
        assert_eq!(labels[1], Label(vec![1]));
        assert_eq!(labels[2], Label(vec![2]));
        assert_eq!(labels[3], Label(vec![1, 2]));
        assert_eq!(labels[4], Label(vec![1, 1]));
    }

    #[test]
    fn label_distribution_is_pipelined() {
        // A path: label length grows linearly; rounds must stay O(depth),
        // not O(depth^2).
        let k = 40;
        let g = Graph::from_edges(k, (0..k - 1).map(|i| (i, i + 1))).unwrap();
        let parent: Vec<Option<NodeId>> = std::iter::once(None)
            .chain((1..k).map(|i| Some(NodeId::new(i - 1))))
            .collect();
        let tree = TreeTopology::from_parents(&g, parent).unwrap();
        let digit_of: Vec<HashMap<u32, u32>> = (0..k)
            .map(|v| {
                let mut m = HashMap::new();
                if v + 1 < k {
                    m.insert((v + 1) as u32, 1);
                }
                m
            })
            .collect();
        let mut engine = Engine::new(&g, SimConfig::default());
        let labels = distribute_labels(&mut engine, &tree, &digit_of, 10_000).unwrap();
        assert_eq!(labels[k - 1].len(), k - 1);
        let rounds = engine.stats().rounds;
        assert!(rounds <= 3 * k as u64, "rounds {rounds} not pipelined");
    }

    #[test]
    fn batched_label_instances_match_sequential_runs() {
        // Two instances over the same graph with different trees and
        // digit assignments, run back to back on one engine: each must
        // reproduce its run on a fresh engine bit for bit.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let tree_a = TreeTopology::from_parents(
            &g,
            vec![
                None,
                Some(NodeId::new(0)),
                Some(NodeId::new(1)),
                Some(NodeId::new(0)),
            ],
        )
        .unwrap();
        let tree_b = TreeTopology::from_parents(
            &g,
            vec![
                Some(NodeId::new(1)),
                Some(NodeId::new(2)),
                None,
                Some(NodeId::new(2)),
            ],
        )
        .unwrap();
        let digits = |pairs: &[(usize, usize, u32)]| {
            let mut d: Vec<HashMap<u32, u32>> = vec![HashMap::new(); 4];
            for &(p, c, digit) in pairs {
                d[p].insert(c as u32, digit);
            }
            d
        };
        let digit_a = digits(&[(0, 1, 1), (0, 3, 2), (1, 2, 1)]);
        let digit_b = digits(&[(2, 1, 2), (2, 3, 1), (1, 0, 1)]);

        let mut batch = Engine::new(&g, SimConfig::default());
        let mut total = planartest_sim::SimStats::default();
        for (tree, digit_of) in [(&tree_a, &digit_a), (&tree_b, &digit_b)] {
            let mut fresh = Engine::new(&g, SimConfig::default());
            let want = distribute_labels(&mut fresh, tree, digit_of, 1000).unwrap();
            total.merge(fresh.stats());
            assert_eq!(
                distribute_labels(&mut batch, tree, digit_of, 1000).unwrap(),
                want
            );
        }
        assert_eq!(*batch.stats(), total);
        assert_eq!(batch.stats().runs, 2);
    }

    #[test]
    fn edge_label_exchange_roundtrip() {
        // Cycle 0-1-2-3: BFS tree from 0 misses one edge; owner gets the
        // other side's label.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let labels = vec![
            Label(vec![]),
            Label(vec![1]),
            Label(vec![1, 1]),
            Label(vec![2]),
        ];
        let e = g.edge_between(NodeId::new(2), NodeId::new(3)).unwrap();
        let mut assigned: Vec<Vec<EdgeId>> = vec![Vec::new(); 4];
        assigned[2].push(e);
        let mut engine = Engine::new(&g, SimConfig::default());
        let got = exchange_edge_labels(&mut engine, &g, &assigned, &labels, 1000).unwrap();
        assert_eq!(got[2], vec![vec![2u32]]);
    }

    #[test]
    fn batched_exchange_instances_stay_independent() {
        // Same cycle, two instances assigning *different* non-tree edges
        // with different labels, back to back on one engine: each must
        // see only its own data.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let labels_a = vec![
            Label(vec![]),
            Label(vec![1]),
            Label(vec![1, 1]),
            Label(vec![2]),
        ];
        let labels_b = vec![
            Label(vec![9]),
            Label(vec![]),
            Label(vec![3]),
            Label(vec![3, 1]),
        ];
        let e23 = g.edge_between(NodeId::new(2), NodeId::new(3)).unwrap();
        let e01 = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        let mut assigned_a: Vec<Vec<EdgeId>> = vec![Vec::new(); 4];
        assigned_a[2].push(e23);
        let mut assigned_b: Vec<Vec<EdgeId>> = vec![Vec::new(); 4];
        assigned_b[1].push(e01);
        let mut engine = Engine::new(&g, SimConfig::default());
        let got_a = exchange_edge_labels(&mut engine, &g, &assigned_a, &labels_a, 1000).unwrap();
        let got_b = exchange_edge_labels(&mut engine, &g, &assigned_b, &labels_b, 1000).unwrap();
        assert_eq!(got_a[2], vec![vec![2u32]]);
        assert_eq!(got_b[1], vec![vec![9u32]]);
        assert!(got_a[1].is_empty() && got_b[2].is_empty());
    }
}
