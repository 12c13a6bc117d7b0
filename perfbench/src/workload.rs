//! The three workloads: their graph corpora, the verdict each graph's
//! generator certifies, and the seeded request streams sent to the
//! server. Everything here is a pure function of the workload seed.

use planartest_graph::algo::bipartite::check_bipartite;
use planartest_graph::algo::components::Components;
use planartest_graph::generators::{spec, PlanarityStatus};
use planartest_graph::Graph;
use planartest_sim::sampling::{PoissonArrivals, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which traffic a run sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of never-seen-before planarity queries.
    ColdQuery,
    /// Closed loop of 16-seed `batch` ops.
    MonteCarlo,
    /// Open-loop Poisson × Zipf serving mix.
    ServeMix,
}

impl Workload {
    pub fn parse(text: &str) -> Option<Workload> {
        match text {
            "cold_query" => Some(Workload::ColdQuery),
            "monte_carlo" => Some(Workload::MonteCarlo),
            "serve_mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdQuery => "cold_query",
            Workload::MonteCarlo => "monte_carlo",
            Workload::ServeMix => "serve_mix",
        }
    }
}

/// What a correct tester must answer for one graph and property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Accept,
    Reject,
    /// Nothing is certified either way: a one-sided tester may answer
    /// anything.
    Either,
}

/// One corpus graph: its wire name and spec, the graph as the
/// benchmark built it, and what its generator certifies.
pub struct Entry {
    pub name: String,
    pub spec: String,
    pub graph: Graph,
    pub planarity: Expect,
    /// The graph is a forest, so cycle-freeness must accept.
    pub forest: bool,
    /// The graph is bipartite, so bipartiteness must accept.
    pub bipartite: bool,
}

impl Entry {
    pub fn expect(&self, prop: Prop) -> Expect {
        match prop {
            Prop::Planarity => self.planarity,
            Prop::CycleFreeness if self.forest => Expect::Accept,
            Prop::Bipartiteness if self.bipartite => Expect::Accept,
            _ => Expect::Either,
        }
    }
}

fn corpus_specs(workload: Workload, tiny: bool) -> Vec<&'static str> {
    match (workload, tiny) {
        (Workload::ColdQuery, false) => vec![
            "tri_grid(40,40)",
            "random_planar(1500, 0.7, seed=3)",
            "k5_chain(200)",
        ],
        (Workload::ColdQuery, true) => {
            vec![
                "tri_grid(8,8)",
                "random_planar(60, 0.7, seed=3)",
                "k5_chain(8)",
            ]
        }
        (Workload::MonteCarlo, false) => vec!["tri_grid(24,24)", "grid(24,24)", "k5_chain(100)"],
        (Workload::MonteCarlo, true) => vec!["tri_grid(6,6)", "grid(6,6)", "k5_chain(6)"],
        // The eight small graphs of the e15 load harness's full mode.
        (Workload::ServeMix, false) => vec![
            "tri_grid(18,18)",
            "grid(22,22)",
            "random_planar(300, 0.7, seed=3)",
            "k5_chain(20)",
            "cycle(400)",
            "complete(12)",
            "apollonian(6)",
            "complete_bipartite(4,5)",
        ],
        (Workload::ServeMix, true) => vec![
            "tri_grid(6,6)",
            "grid(6,6)",
            "random_planar(40, 0.7, seed=3)",
            "k5_chain(4)",
            "cycle(30)",
            "complete(6)",
            "apollonian(3)",
            "complete_bipartite(3,3)",
        ],
    }
}

/// Builds the workload's graphs from their specs and derives each
/// one's certified verdicts.
pub fn corpus(workload: Workload, tiny: bool) -> Result<Vec<Entry>, String> {
    corpus_specs(workload, tiny)
        .into_iter()
        .enumerate()
        .map(|(i, text)| {
            let built = spec::parse(text).map_err(|e| format!("corpus spec `{text}`: {e}"))?;
            let graph = built.graph;
            let planarity = match built.status {
                PlanarityStatus::Planar => Expect::Accept,
                PlanarityStatus::FarFromPlanar { min_removals } if min_removals > 0 => {
                    Expect::Reject
                }
                _ => Expect::Either,
            };
            let forest = graph.m() + Components::build(&graph).count() == graph.n();
            let bipartite = check_bipartite(&graph).is_bipartite();
            Ok(Entry {
                name: format!("g{i}"),
                spec: text.to_string(),
                graph,
                planarity,
                forest,
                bipartite,
            })
        })
        .collect()
}

/// The property a query asks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prop {
    Planarity,
    CycleFreeness,
    Bipartiteness,
}

/// One query: a graph of the corpus and the tester settings.
#[derive(Debug, Clone, Copy)]
pub struct Member {
    pub graph: usize,
    pub prop: Prop,
    pub eps: f64,
    pub phases: u64,
    pub seed: u64,
}

impl Member {
    fn fields(&self, corpus: &[Entry]) -> String {
        let prop = match self.prop {
            Prop::Planarity => "",
            Prop::CycleFreeness => "\"property\":\"cycle_freeness\",",
            Prop::Bipartiteness => "\"property\":\"bipartiteness\",",
        };
        format!(
            "\"graph\":\"{}\",{prop}\"epsilon\":{},\"phases\":{},\"seed\":{}",
            corpus[self.graph].name, self.eps, self.phases, self.seed
        )
    }
}

/// What a request line asks for.
#[derive(Debug, Clone)]
pub enum Op {
    Query(Member),
    Batch(Vec<Member>),
    Ingest(String),
    Stats,
}

/// One request line, with the instant (µs after the phase origin) an
/// open loop must send it; closed loops leave it 0.
#[derive(Debug, Clone)]
pub struct Request {
    pub op: Op,
    pub line: String,
    pub due_micros: u64,
}

impl Request {
    pub fn new(op: Op, corpus: &[Entry]) -> Request {
        let line = match &op {
            Op::Query(m) => format!("{{\"op\":\"query\",{}}}\n", m.fields(corpus)),
            Op::Batch(members) => {
                let parts: Vec<String> = members
                    .iter()
                    .map(|m| format!("{{{}}}", m.fields(corpus)))
                    .collect();
                format!("{{\"op\":\"batch\",\"queries\":[{}]}}\n", parts.join(","))
            }
            Op::Ingest(name) => {
                format!("{{\"op\":\"ingest\",\"name\":\"{name}\",\"spec\":\"{INGEST_SPEC}\"}}\n")
            }
            Op::Stats => "{\"op\":\"stats\"}\n".to_string(),
        };
        Request {
            op,
            line,
            due_micros: 0,
        }
    }

    /// Whether the request may wait on the engine or the registry: a
    /// query with a seed outside the warm pool (an engine pass unless a
    /// certificate answers it), or a control op, which the server holds
    /// until the engine cycle in flight ends.
    pub fn slow_lane(&self) -> bool {
        match &self.op {
            Op::Query(m) => m.seed >= WARM_SEEDS,
            Op::Batch(ms) => ms.iter().any(|m| m.seed >= WARM_SEEDS),
            Op::Ingest(_) | Op::Stats => true,
        }
    }

    /// Queries the request carries (0 for control ops).
    pub fn members(&self) -> &[Member] {
        match &self.op {
            Op::Query(m) => std::slice::from_ref(m),
            Op::Batch(ms) => ms,
            Op::Ingest(_) | Op::Stats => &[],
        }
    }
}

/// Spec the serving mix ingests under fresh names (content-level dedup
/// makes each one an alias registration).
const INGEST_SPEC: &str = "cycle(24)";

/// Seeds of one run never collide with another workload seed's, nor
/// with the serving mix's warm pool (seeds `0..WARM_SEEDS`).
pub fn fresh_seed_base(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) >> 16) | (1 << 40)
}

/// `cold_query` request `i`: round-robin over the three graphs, each
/// with a seed never sent before.
pub fn cold_request(corpus: &[Entry], base: u64, i: u64) -> Request {
    let m = Member {
        graph: (i % corpus.len() as u64) as usize,
        prop: Prop::Planarity,
        eps: 0.1,
        phases: 10,
        seed: base + i,
    };
    Request::new(Op::Query(m), corpus)
}

/// Queries per `monte_carlo` batch.
pub const MC_SEEDS: u64 = 16;

/// `monte_carlo` request `i`: one batch of 16 fresh seeds on one graph,
/// cycling over the three graphs.
pub fn mc_request(corpus: &[Entry], base: u64, i: u64) -> Request {
    let graph = (i % corpus.len() as u64) as usize;
    let members = (0..MC_SEEDS)
        .map(|j| Member {
            graph,
            prop: Prop::Planarity,
            eps: 0.1,
            phases: 6,
            seed: base + i * MC_SEEDS + j,
        })
        .collect();
    Request::new(Op::Batch(members), corpus)
}

/// Distance parameters of the serving mix's warm pool.
const SERVE_EPSILONS: [f64; 2] = [0.1, 0.2];
/// Phase count of every serving-mix query.
const SERVE_PHASES: u64 = 6;
/// Seeds per `(graph, epsilon)` in the warm pool.
pub const WARM_SEEDS: u64 = 6;

/// The set-up requests that fill the serving mix's warm pool: per graph
/// and epsilon, one batch of every warm seed plus one batch of both
/// hereditary properties (each batch coalesces into one engine pass).
pub fn prime_requests(corpus: &[Entry]) -> Vec<Request> {
    let mut out = Vec::new();
    for graph in 0..corpus.len() {
        for eps in SERVE_EPSILONS {
            let member = |prop, seed| Member {
                graph,
                prop,
                eps,
                phases: SERVE_PHASES,
                seed,
            };
            let warm = (0..WARM_SEEDS)
                .map(|s| member(Prop::Planarity, s))
                .collect();
            out.push(Request::new(Op::Batch(warm), corpus));
            let hereditary = vec![
                member(Prop::CycleFreeness, 0),
                member(Prop::Bipartiteness, 0),
            ];
            out.push(Request::new(Op::Batch(hereditary), corpus));
        }
    }
    out
}

/// The serving mix's request kinds, with their count per 100 requests.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A planarity query on a warm-pool seed and epsilon.
    Warm,
    /// A cycle-freeness or bipartiteness query.
    Hereditary,
    /// A planarity query with a never-seen seed on a planar graph (an
    /// engine pass).
    Fresh,
    /// A `batch` of three warm planarity queries.
    Batch,
    /// An `ingest` under a fresh name.
    Ingest,
    Stats,
}

const MIX: [(Kind, usize); 6] = [
    (Kind::Warm, 75),
    (Kind::Hereditary, 8),
    (Kind::Fresh, 5),
    (Kind::Batch, 4),
    (Kind::Ingest, 4),
    (Kind::Stats, 4),
];

/// Draws without replacement from a multiset of cards, starting over
/// with a full copy whenever it runs out: every `cards.len()`
/// consecutive draws from a fresh start hold each card exactly once. Two
/// seeds' streams then differ in order but not in make-up, so the share
/// of engine passes and which graphs they hit do not vary between runs.
struct Deck<T: Copy> {
    cards: Vec<T>,
    left: Vec<T>,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>) -> Deck<T> {
        Deck {
            cards,
            left: Vec::new(),
        }
    }

    fn draw(&mut self, rng: &mut StdRng) -> T {
        if self.left.is_empty() {
            self.left.clone_from(&self.cards);
        }
        let i = rng.random_range(0..self.left.len());
        self.left.swap_remove(i)
    }
}

/// A deck of `size` cards over `n` ranks with Zipf(1.1) popularity:
/// each rank's share of `size`, rounded by largest remainder.
fn zipf_deck(n: usize, size: usize) -> Deck<usize> {
    let zipf = Zipf::new(n, 1.1);
    let exact: Vec<f64> = (0..n).map(|k| zipf.probability(k) * size as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| exact[b].fract().total_cmp(&exact[a].fract()));
    let short = size - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(short) {
        counts[k] += 1;
    }
    Deck::new(
        counts
            .iter()
            .enumerate()
            .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
            .collect(),
    )
}

/// The serving mix's open-loop schedule at `rate` requests per second
/// over `horizon_micros`: seeded Poisson arrivals, Zipf(1.1) graph
/// popularity, and the op mix of [`MIX`] (75% warm planarity, 8%
/// hereditary, 5% fresh-seed planarity on a planar graph, 4% `batch`,
/// 4% `ingest`, 4% `stats`). Kinds and graphs are dealt from decks (see
/// [`Deck`]); arrival times, order, epsilons and warm seeds are drawn.
///
/// `tag` separates the streams of different phases of one run.
pub fn serve_schedule(
    corpus: &[Entry],
    seed: u64,
    tag: u64,
    rate: f64,
    horizon_micros: u64,
) -> Vec<Request> {
    let stream = fresh_seed_base(seed ^ tag.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let planar: Vec<usize> = (0..corpus.len())
        .filter(|&g| corpus[g].planarity == Expect::Accept)
        .collect();
    let mut kinds = Deck::new(
        MIX.iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect(),
    );
    let mut graphs = zipf_deck(corpus.len(), 50);
    let mut planar_graphs = zipf_deck(planar.len(), 20);
    let mut rng = StdRng::seed_from_u64(stream);
    let mut fresh = 0u64;
    let mut ingests = 0u64;
    let member = |graph: usize, rng: &mut StdRng| Member {
        graph,
        prop: Prop::Planarity,
        eps: SERVE_EPSILONS[rng.random_range(0..SERVE_EPSILONS.len())],
        phases: SERVE_PHASES,
        seed: rng.random_range(0..WARM_SEEDS),
    };
    PoissonArrivals::schedule(stream, rate, horizon_micros)
        .into_iter()
        .map(|at| {
            let op = match kinds.draw(&mut rng) {
                Kind::Warm => Op::Query(member(graphs.draw(&mut rng), &mut rng)),
                Kind::Hereditary => {
                    let mut m = member(graphs.draw(&mut rng), &mut rng);
                    m.prop = if rng.random_bool(0.5) {
                        Prop::CycleFreeness
                    } else {
                        Prop::Bipartiteness
                    };
                    m.seed = 0;
                    Op::Query(m)
                }
                Kind::Fresh => {
                    let mut m = member(planar[planar_graphs.draw(&mut rng)], &mut rng);
                    fresh += 1;
                    m.seed = stream + fresh;
                    Op::Query(m)
                }
                Kind::Batch => Op::Batch(
                    (0..3)
                        .map(|_| member(graphs.draw(&mut rng), &mut rng))
                        .collect(),
                ),
                Kind::Ingest => {
                    ingests += 1;
                    Op::Ingest(format!("in{tag}x{ingests}"))
                }
                Kind::Stats => Op::Stats,
            };
            let mut req = Request::new(op, corpus);
            req.due_micros = at;
            req
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seed_deterministic() {
        let corpus = corpus(Workload::ServeMix, true).unwrap();
        let lines = |seed| -> Vec<String> {
            serve_schedule(&corpus, seed, 1, 2_000.0, 200_000)
                .into_iter()
                .map(|r| format!("{} {}", r.due_micros, r.line))
                .collect()
        };
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7), lines(8));
        let cold = corpus_specs(Workload::ColdQuery, true);
        assert_eq!(cold.len() % 2, 1, "odd graph count keeps p50 in a cluster");
    }

    #[test]
    fn every_hundred_requests_hold_the_same_mix() {
        let corpus = corpus(Workload::ServeMix, true).unwrap();
        for seed in 0..5 {
            let reqs = serve_schedule(&corpus, seed, 1, 10_000.0, 100_000);
            assert!(reqs.len() >= 500);
            for block in reqs.chunks_exact(100) {
                // 5 fresh-seed queries, 4 ingests and 4 stats.
                assert_eq!(block.iter().filter(|r| r.slow_lane()).count(), 13);
                let batches = block
                    .iter()
                    .filter(|r| matches!(r.op, Op::Batch(_)))
                    .count();
                assert_eq!(batches, 4);
            }
        }
    }

    #[test]
    fn fresh_seeds_avoid_the_warm_pool() {
        for seed in 0..100 {
            assert!(fresh_seed_base(seed) > WARM_SEEDS + 1_000_000);
        }
    }

    #[test]
    fn certificates_match_the_families() {
        let corpus = corpus(Workload::ColdQuery, true).unwrap();
        assert_eq!(corpus[0].planarity, Expect::Accept);
        assert_eq!(corpus[2].planarity, Expect::Reject);
        let serve = super::corpus(Workload::ServeMix, true).unwrap();
        assert!(serve[4].bipartite, "an even cycle is bipartite");
        assert!(!serve[4].forest);
    }
}
