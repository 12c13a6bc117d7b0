//! Golden pin: per-instance batch reports must stay bit-identical to
//! the ones the original batch executor produced.
//!
//! The `GOLDEN` table below was captured from the **instance-major**
//! (`lane = i·n + v`) batch executor of an earlier runtime, by running
//! `cargo test -p planartest-sim --test layout_golden -- --nocapture`
//! with `PRINT_GOLDEN` set. A batch is now `B` consecutive runs on one
//! [`Engine`](planartest_sim::Engine), which recycles its round buffers
//! between runs; any change that perturbs per-instance rounds, message
//! counts or word counts — at any batch width B ∈ {1, 3, 16} — fails
//! this test.

use planartest_graph::{Graph, GraphBuilder, NodeId};
use planartest_sim::{Engine, Msg, NodeLogic, Outbox, SimConfig};
use proptest::prelude::*;

/// SplitMix64 step — the deterministic per-(seed, node, activation)
/// decision stream (independent of any engine internals).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic gossip protocol whose traffic pattern depends on the
/// seed: random fan-out, random payload widths, occasional wake-ups.
struct Gossip {
    seed: u64,
    budget: u32,
    activations: Vec<u32>,
    digest: Vec<u64>,
}

impl Gossip {
    fn new(seed: u64, n: usize) -> Self {
        Gossip {
            seed,
            budget: 5,
            activations: vec![0; n],
            digest: vec![0; n],
        }
    }

    fn act(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        let v = node.index();
        let r = mix(self.seed ^ mix(v as u64) ^ mix(u64::from(self.activations[v])));
        let g = out.graph();
        let deg = g.neighbors(node).len();
        for i in 0..deg {
            let (w, _) = g.neighbors(node)[i];
            let d = mix(r ^ i as u64);
            if d.is_multiple_of(3) {
                let words: Vec<u64> = (0..(d % 4)).map(|k| mix(d ^ k)).collect();
                out.send(w, Msg::words(&words));
            }
        }
        if r % 7 == 1 {
            out.wake();
        }
    }
}

impl NodeLogic for Gossip {
    fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        if mix(self.seed ^ mix(node.index() as u64)).is_multiple_of(3) {
            self.act(node, out);
        }
    }
    fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
        let v = node.index();
        for (from, m) in inbox {
            self.digest[v] = mix(self.digest[v] ^ mix(from.index() as u64));
            for &w in m.as_words() {
                self.digest[v] = mix(self.digest[v] ^ w);
            }
        }
        self.activations[v] += 1;
        if self.activations[v] < self.budget {
            self.act(node, out);
        }
    }
}

/// The two fixed networks the pin runs on: a 4×5 grid with diagonals
/// and a 14-node path with chords.
fn graphs() -> Vec<Graph> {
    let mut edges = Vec::new();
    let id = |r: usize, c: usize| r * 5 + c;
    for r in 0..4 {
        for c in 0..5 {
            if c + 1 < 5 {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < 4 {
                edges.push((id(r, c), id(r + 1, c)));
                if c + 1 < 5 {
                    edges.push((id(r, c), id(r + 1, c + 1)));
                }
            }
        }
    }
    let grid = Graph::from_edges(20, edges).unwrap();
    let mut path_edges: Vec<(usize, usize)> = (0..13).map(|i| (i, i + 1)).collect();
    path_edges.extend([(0, 7), (3, 11), (2, 13)]);
    let chorded = Graph::from_edges(14, path_edges).unwrap();
    vec![grid, chorded]
}

/// One pinned per-instance report: (rounds, messages, words).
type GoldenRow = (u64, u64, u64);

/// (graph index, B) → per-instance reports, captured from the
/// instance-major executor (see module docs).
const GOLDEN: &[(usize, usize, &[GoldenRow])] = &[
    (0, 1, GOLDEN_G0_B1),
    (0, 3, GOLDEN_G0_B3),
    (0, 16, GOLDEN_G0_B16),
    (1, 1, GOLDEN_G1_B1),
    (1, 3, GOLDEN_G1_B3),
    (1, 16, GOLDEN_G1_B16),
];

const GOLDEN_G0_B1: &[(u64, u64, u64)] = &[(12, 98, 144)];
const GOLDEN_G0_B3: &[(u64, u64, u64)] = &[(12, 98, 144), (11, 111, 179), (13, 104, 142)];
const GOLDEN_G0_B16: &[(u64, u64, u64)] = &[
    (12, 98, 144),
    (11, 111, 179),
    (13, 104, 142),
    (9, 126, 193),
    (9, 108, 148),
    (10, 103, 143),
    (11, 117, 173),
    (8, 141, 211),
    (9, 120, 186),
    (11, 120, 185),
    (10, 137, 220),
    (11, 112, 176),
    (9, 121, 185),
    (8, 104, 159),
    (8, 122, 186),
    (9, 104, 148),
];
const GOLDEN_G1_B1: &[(u64, u64, u64)] = &[(9, 12, 19)];
const GOLDEN_G1_B3: &[(u64, u64, u64)] = &[(9, 12, 19), (6, 20, 38), (9, 28, 33)];
const GOLDEN_G1_B16: &[(u64, u64, u64)] = &[
    (9, 12, 19),
    (6, 20, 38),
    (9, 28, 33),
    (6, 17, 23),
    (6, 14, 15),
    (2, 6, 8),
    (7, 18, 20),
    (10, 50, 82),
    (14, 38, 56),
    (6, 17, 24),
    (6, 24, 44),
    (4, 8, 6),
    (10, 31, 42),
    (3, 12, 25),
    (8, 16, 26),
    (4, 31, 42),
];

/// Per-instance reports of `B` instances run back to back on one engine.
fn batch_reports(g: &Graph, b: usize, seed_base: u64) -> Vec<(u64, u64, u64)> {
    let mut engine = Engine::new(g, SimConfig::default());
    (0..b as u64)
        .map(|s| {
            let rep = engine
                .run(&mut Gossip::new(seed_base + s, g.n()), 10_000)
                .expect("gossip never violates CONGEST");
            (rep.rounds, rep.messages, rep.words)
        })
        .collect()
}

/// Full per-instance reports of `b` runs, each on a fresh engine — the
/// ground truth.
fn run_sequential(g: &Graph, b: usize, seed_base: u64) -> Vec<(u64, u64, u64)> {
    (0..b as u64)
        .map(|s| {
            let mut engine = Engine::new(g, SimConfig::default());
            let mut logic = Gossip::new(seed_base + s, g.n());
            let rep = engine
                .run(&mut logic, 10_000)
                .expect("gossip never violates CONGEST");
            (rep.rounds, rep.messages, rep.words)
        })
        .collect()
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..30,
        prop::collection::vec((0usize..30, 0usize..30), 0..90),
    )
        .prop_map(|(n, pairs)| {
            let mut builder = GraphBuilder::new(n);
            for (u, v) in pairs {
                let (u, v) = (u % n, v % n);
                if u != v {
                    builder.add_edge(u, v).expect("in range");
                }
            }
            builder.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random graphs, a batch's per-instance reports on one shared
    /// engine are bit-identical to `B` runs on fresh engines, for every
    /// B ∈ {1, 3, 16}.
    #[test]
    fn batches_match_sequential_runs(
        g in arb_graph(),
        seed_base in 0u64..1_000_000,
    ) {
        for b in [1usize, 3, 16] {
            prop_assert_eq!(batch_reports(&g, b, seed_base), run_sequential(&g, b, seed_base), "B={}", b);
        }
    }
}

#[test]
fn batch_reports_match_the_pinned_instance_major_golden() {
    let graphs = graphs();
    let print = std::env::var("PRINT_GOLDEN").is_ok();
    for &(gi, b, golden) in GOLDEN {
        let got = batch_reports(&graphs[gi], b, 0);
        if print {
            let rows: Vec<String> = got
                .iter()
                .map(|(r, m, w)| format!("({r}, {m}, {w})"))
                .collect();
            println!("GOLDEN_G{gi}_B{b}: &[{}]", rows.join(", "));
        } else {
            assert_eq!(
                got,
                golden.to_vec(),
                "graph {gi} B={b} diverged from the pinned instance-major reports"
            );
        }
    }
}
