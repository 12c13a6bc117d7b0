//! Golden digests of Stage I and of the Corollary 16 testers.
//!
//! `congest_cost_golden` pins only `(accepted, total rounds, messages)` of
//! whole tester runs. This file pins the partition itself: every node's
//! root and tree parent, the rejecting nodes, every `PhaseMetrics` field
//! and the engine's `SimStats`, for the deterministic Stage I and its
//! randomized variant, plus the verdicts and cost of the cycle-freeness
//! and bipartiteness testers. Each row folds all of it into one
//! `Digest`; the readable counts in front of it say roughly what moved
//! when a row fails.
//!
//! The rows include graphs with maximum degree above 6
//! (`random_planar`, `complete`) and path-shaped parts (`cycle`).
//!
//! A failing run prints the full table of actual rows, so a deliberate
//! protocol change can re-record it in one go.

use planartest_core::applications::{test_bipartiteness, test_cycle_freeness, HereditaryOutcome};
use planartest_core::partition::randomized::{run_randomized_partition, RandomPartitionConfig};
use planartest_core::partition::{run_partition, Partition};
use planartest_core::{CoreError, TesterConfig};
use planartest_graph::fingerprint::Digest;
use planartest_graph::generators::spec;
use planartest_graph::Graph;
use planartest_sim::{Engine, SimConfig, SimStats};

/// `run_partition` at ε 0.1 and 10 phases.
const DETERMINISTIC: &[&str] = &[
    "tri_grid(14,14): 1 parts, 26015 rounds, 5bad6a6ca3c037b3f88cdcafad220694",
    "grid(24,24): 1 parts, 75528 rounds, 5000562bf128123aba3f81cb58c49ebc",
    "random_planar(300, 0.7, seed=3): 6 parts, 14780 rounds, dcdf8efdc50fa1e829dd8090a3fcf4ac",
    "cycle(180): 1 parts, 69501 rounds, 269456c7226a65d2e6a9cd51f90eb80f",
    "k5_chain(16): 1 parts, 14950 rounds, b7494b7b212b47daeb9668b397abda7d",
    "complete(9): 1 parts, 1352 rounds, db6b37162e38359d8883d6163fecf6e8",
];

/// `run_randomized_partition` at ε 0.1, δ 0.2 and 8 phases.
const RANDOMIZED: &[&str] = &[
    "tri_grid(14,14) seed 5: 1 parts, 4686 rounds, a21030fd9c7f8254f70cbc1d9bb63ecb",
    "tri_grid(14,14) seed 17: 1 parts, 6020 rounds, 416fd2d6278f2c1b7a702e3ead5c9bbf",
    "random_planar(300, 0.7, seed=3) seed 5: 7 parts, 2928 rounds, efc22c7ecce73f2d434ef8a9aa17d47d",
    "random_planar(300, 0.7, seed=3) seed 17: 6 parts, 3230 rounds, 16e36701d6d0cc9fd3e8c97f02ce4995",
];

/// Corollary 16 at ε 0.1 and 10 phases.
const HEREDITARY: &[&str] = &[
    "cycle_freeness grid(7,5): 28 rejecting, 6008 rounds, bc5621972ebda4e43ec04916709b9119",
    "cycle_freeness tri_grid(8,8): 63 rejecting, 8447 rounds, e6119f42d59f0aeef719f24b1385cb89",
    "cycle_freeness random_tree(60, seed=1): 0 rejecting, 13843 rounds, ce281047c10857748ce8cd28187123a3",
    "bipartiteness grid(7,5): 0 rejecting, 6008 rounds, c4e3557a336dbfe40311f3a091ba25a1",
    "bipartiteness tri_grid(8,8): 63 rejecting, 8447 rounds, e6119f42d59f0aeef719f24b1385cb89",
    "bipartiteness random_tree(60, seed=1): 0 rejecting, 13843 rounds, ce281047c10857748ce8cd28187123a3",
];

const DETERMINISTIC_SPECS: &[&str] = &[
    "tri_grid(14,14)",
    "grid(24,24)",
    "random_planar(300, 0.7, seed=3)",
    "cycle(180)",
    "k5_chain(16)",
    "complete(9)",
];
const RANDOMIZED_SPECS: &[&str] = &["tri_grid(14,14)", "random_planar(300, 0.7, seed=3)"];
const RANDOMIZED_SEEDS: &[u64] = &[5, 17];
const HEREDITARY_SPECS: &[&str] = &["grid(7,5)", "tri_grid(8,8)", "random_tree(60, seed=1)"];

fn graph(spec_str: &str) -> Graph {
    spec::parse(spec_str).expect("spec").graph
}

fn fold_stats(d: &mut Digest, s: &SimStats) {
    d.word(s.rounds)
        .word(s.charged_rounds)
        .word(s.messages)
        .word(s.words)
        .word(s.runs);
}

fn partition_digest(p: &Partition, stats: &SimStats) -> String {
    let mut d = Digest::new();
    d.word(p.state.root.len() as u64);
    for r in &p.state.root {
        d.word(u64::from(r.raw()));
    }
    for parent in &p.state.parent {
        d.word(parent.map_or(u64::MAX, |x| u64::from(x.raw())));
    }
    d.word(p.rejected.len() as u64);
    for v in &p.rejected {
        d.word(u64::from(v.raw()));
    }
    d.word(p.phases.len() as u64);
    for m in &p.phases {
        d.word(m.phase as u64)
            .word(m.cut_weight)
            .word(m.parts as u64)
            .word(u64::from(m.max_depth))
            .word(u64::from(m.peel_super_rounds));
    }
    fold_stats(&mut d, stats);
    d.finish().to_string()
}

fn hereditary_digest(out: &HereditaryOutcome, stats: &SimStats) -> String {
    let mut d = Digest::new();
    d.word(out.rejecting.len() as u64);
    for v in &out.rejecting {
        d.word(u64::from(v.raw()));
    }
    d.word(out.parts as u64);
    fold_stats(&mut d, stats);
    d.finish().to_string()
}

/// Compares the actual rows with the recorded ones; on any mismatch
/// panics with the full table of actual rows.
fn check(table: &str, got: &[String], want: &[&str]) {
    if got != want {
        let rows: String = got.iter().map(|r| format!("    {r:?},\n")).collect();
        panic!("{table} moved; actual rows:\n{rows}");
    }
}

#[test]
fn deterministic_partition_is_pinned() {
    let cfg = TesterConfig::new(0.1).with_phases(10);
    let got: Vec<String> = DETERMINISTIC_SPECS
        .iter()
        .map(|&s| {
            let g = graph(s);
            if s.starts_with("random_planar") {
                assert!(g.max_degree() > 6, "{s}: meant to exceed degree 6");
            }
            let mut engine = Engine::new(&g, SimConfig::default());
            let p = run_partition(&mut engine, &cfg).expect("partition");
            let stats = *engine.stats();
            format!(
                "{s}: {} parts, {} rounds, {}",
                p.state.part_count(),
                stats.total_rounds(),
                partition_digest(&p, &stats)
            )
        })
        .collect();
    check("DETERMINISTIC", &got, DETERMINISTIC);
}

#[test]
fn randomized_partition_is_pinned() {
    let mut got = Vec::new();
    for &s in RANDOMIZED_SPECS {
        let g = graph(s);
        for &seed in RANDOMIZED_SEEDS {
            let cfg = RandomPartitionConfig::new(0.1, 0.2)
                .with_phases(8)
                .with_seed(seed);
            let mut engine = Engine::new(&g, SimConfig::default());
            let p = run_randomized_partition(&mut engine, &cfg).expect("partition");
            let stats = *engine.stats();
            got.push(format!(
                "{s} seed {seed}: {} parts, {} rounds, {}",
                p.state.part_count(),
                stats.total_rounds(),
                partition_digest(&p, &stats)
            ));
        }
    }
    check("RANDOMIZED", &got, RANDOMIZED);
}

#[test]
fn corollary16_testers_are_pinned() {
    type Tester = fn(&mut Engine<'_>, &TesterConfig) -> Result<HereditaryOutcome, CoreError>;
    let testers: [(&str, Tester); 2] = [
        ("cycle_freeness", test_cycle_freeness),
        ("bipartiteness", test_bipartiteness),
    ];
    let cfg = TesterConfig::new(0.1).with_phases(10);
    let mut got = Vec::new();
    for (name, tester) in testers {
        for &s in HEREDITARY_SPECS {
            let g = graph(s);
            let mut engine = Engine::new(&g, SimConfig::default());
            let out = tester(&mut engine, &cfg).expect("tester");
            let stats = *engine.stats();
            got.push(format!(
                "{name} {s}: {} rejecting, {} rounds, {}",
                out.rejecting.len(),
                stats.total_rounds(),
                hereditary_digest(&out, &stats)
            ));
        }
    }
    check("HEREDITARY", &got, HEREDITARY);
}
