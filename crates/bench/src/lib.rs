//! Experiment harness: workload construction, sweeps, and the table
//! printers behind the `e1`–`e12` binaries.
//!
//! Every experiment is a plain function so the `all_experiments` binary
//! (and tests) can run them programmatically; binaries are thin wrappers.
//! Sizes respect the `PLANARTEST_QUICK` environment variable (any value →
//! smaller sweeps) so CI stays fast while full runs remain one command.
//!
//! Three experiments double as CI performance gates, each writing a
//! machine-readable artifact: [`runtime_bench`] (`BENCH_runtime.json`,
//! engine/tester/batching/kernel speedups), [`load_bench`]
//! (`BENCH_load.json`, the serving bench: closed-loop cold/warm
//! latency, coalescing and trace overhead, then an open-loop saturation
//! sweep) and [`persist_bench`] (`BENCH_persist.json`,
//! certificate-replay speedup, out-of-core streaming ingest and
//! mapped-vs-resident tier parity). Their `--check` binaries fail the
//! build on regression.

use planartest_core::applications::{build_spanner, test_bipartiteness, test_cycle_freeness};
use planartest_core::baselines::{random_shift_partition, shift_spanner, RandomShiftConfig};
use planartest_core::oracle;
use planartest_core::partition::randomized::{run_randomized_partition, RandomPartitionConfig};
use planartest_core::partition::run_partition;
use planartest_core::{PlanarityTester, TesterConfig};
use planartest_embed::demoucron::check_planarity;
use planartest_graph::generators::{nonplanar, planar, Certified};
use planartest_graph::{Graph, NodeId};
use planartest_sim::{Engine, SimConfig, TrialRunner};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod json;
mod load_bench;
mod persist_bench;
mod runtime_bench;

pub use load_bench::{
    build_workload, load_bench, load_bench_document, Arrival, LoadGate, OpKind, Workload,
    CONNECTIONS, KNEE_FRACTION, LOAD_SEED,
};
pub use persist_bench::{persist_bench, persist_bench_document, PersistGate};
pub use runtime_bench::{runtime_bench, runtime_bench_document, BenchGate};

/// Whether quick (CI-sized) sweeps were requested.
pub fn quick() -> bool {
    std::env::var_os("PLANARTEST_QUICK").is_some()
}

/// Where a benchmark ran, as the `host` object of every `BENCH_*.json`:
/// the checked-out commit, the cores this process may use and the CPU
/// model, each `"unknown"` where it cannot be read (outside a git
/// checkout, or without `/proc/cpuinfo`). Mirrors perfbench's result
/// stamp.
pub fn host() -> json::Json {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
    });
    let unknown = || "unknown".to_string();
    json::Json::obj()
        .field("commit", commit.unwrap_or_else(unknown))
        .field(
            "cores",
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        )
        .field("cpu_model", cpu_model.unwrap_or_else(unknown))
}

fn scale(full: usize, quick_val: usize) -> usize {
    if quick() {
        quick_val
    } else {
        full
    }
}

/// A tester configuration with practical phase counts (the paper's
/// worst-case `t ≈ 106` is justified by Claim 1's pessimistic decay; E4
/// measures the actual decay, which is far faster — 8–12 phases reach the
/// target cut on every family we generate).
pub fn practical_cfg(eps: f64) -> TesterConfig {
    TesterConfig::new(eps).with_phases(10)
}

fn header(title: &str, columns: &str) {
    println!("\n## {title}");
    println!("{columns}");
}

/// E1 — Theorem 1 correctness: acceptance on planar families, rejection
/// rates on certified-far families across seeds.
///
/// The per-family Monte-Carlo sweep is served by
/// [`PlanarityTester::run_many`]: all seeds of a family ride one
/// batched pass (shared Stage I, per-seed Stage-II sample streams)
/// instead of one full tester run per seed.
pub fn e1_correctness() {
    header(
        "E1 Theorem 1 correctness (one-sided error)",
        "family                              n      m   far>=   accept-rate  (expected)",
    );
    let n = scale(1024, 256);
    let seeds: Vec<u64> = (0..scale(10, 4) as u64).collect();
    let mut rng = StdRng::seed_from_u64(1);
    let planar_families: Vec<Certified> = vec![
        planar::triangulated_grid(isqrt(n), isqrt(n)),
        planar::apollonian(n.min(400), &mut rng),
        planar::random_planar(n.min(400), 0.7, &mut rng),
        planar::random_tree(n, &mut rng),
        planar::maximal_outerplanar(n.min(400), &mut rng),
    ];
    for fam in &planar_families {
        let accepts = PlanarityTester::new(practical_cfg(0.1))
            .run_many(&fam.graph, &seeds)
            .expect("run")
            .iter()
            .filter(|out| out.accepted())
            .count();
        print_family_row(fam, accepts, seeds.len(), "1.00");
    }
    let far_families: Vec<Certified> = vec![
        nonplanar::k5_chain(n / 5),
        nonplanar::planar_plus_chords(n.min(300), n.min(300), &mut rng),
        nonplanar::near_regular(n.min(512), 8, &mut rng),
        nonplanar::gnp(n.min(512), 8.0 / n.min(512) as f64, &mut rng),
    ];
    for fam in &far_families {
        let rejects = PlanarityTester::new(practical_cfg(0.05))
            .run_many(&fam.graph, &seeds)
            .expect("run")
            .iter()
            .filter(|out| !out.accepted())
            .count();
        print_family_row(fam, rejects, seeds.len(), "1.00 (reject)");
    }
}

fn print_family_row(fam: &Certified, hits: usize, total: usize, expected: &str) {
    println!(
        "{:<34} {:>5} {:>6} {:>7.3}   {:>6.2}       {}",
        fam.name,
        fam.graph.n(),
        fam.graph.m(),
        fam.far_fraction(),
        hits as f64 / total as f64,
        expected
    );
}

/// E2 — rounds vs `n` at fixed ε: the `rounds / log₂ n` column should
/// flatten (Theorem 1's `O(log n · poly(1/ε))`).
pub fn e2_rounds_vs_n() {
    header(
        "E2 rounds vs n (fixed eps=0.1)",
        "family          n       m     rounds   rounds/log2(n)",
    );
    let sizes: Vec<usize> = if quick() {
        vec![64, 144, 256]
    } else {
        vec![64, 256, 1024, 2304, 4096]
    };
    // Independent sizes: fan across cores, print in deterministic order.
    let rows = TrialRunner::auto().map(sizes, |n| {
        let side = isqrt(n);
        let fam = planar::triangulated_grid(side, side);
        let out = PlanarityTester::new(practical_cfg(0.1))
            .run(&fam.graph)
            .expect("run");
        (fam.graph.n(), fam.graph.m(), out.rounds())
    });
    for (n, m, rounds) in rows {
        let lg = (n as f64).log2();
        println!(
            "{:<14} {:>5} {:>7} {:>10} {:>12.1}",
            "tri_grid",
            n,
            m,
            rounds,
            rounds as f64 / lg
        );
    }
}

/// E3 — rounds vs `1/ε` at fixed `n`.
pub fn e3_rounds_vs_eps() {
    header(
        "E3 rounds vs eps (tri_grid)",
        "eps     phases   rounds    cut-fraction",
    );
    let side = if quick() { 12 } else { 24 };
    let fam = planar::triangulated_grid(side, side);
    let rows = TrialRunner::auto().map(vec![0.4, 0.3, 0.2, 0.1, 0.05], |eps| {
        let cfg = TesterConfig::new(eps); // derived (paper) phase count
        let phases = cfg.phases(fam.graph.n());
        let cfg = cfg.with_phases(phases.min(24));
        let mut engine = Engine::new(&fam.graph, SimConfig::default());
        let p = run_partition(&mut engine, &cfg).expect("partition");
        let cut = p.state.cut_weight(&fam.graph) as f64 / fam.graph.m() as f64;
        let out = PlanarityTester::new(cfg).run(&fam.graph).expect("run");
        (eps, phases, out.rounds(), cut)
    });
    for (eps, phases, rounds, cut) in rows {
        println!("{:<7} {:>6} {:>9} {:>10.4}", eps, phases, rounds, cut);
    }
}

/// E4 — Claim 1 / Claim 14: per-phase cut-weight decay vs the proven
/// bounds `1 − 1/36` (deterministic) and `1 − 1/192` (randomized).
pub fn e4_weight_decay() {
    header(
        "E4 per-phase weight decay (Claim 1 bound: ratio <= 0.9722...)",
        "phase   cut(det)   ratio(det)   cut(rand)   ratio(rand)",
    );
    let side = if quick() { 12 } else { 20 };
    let fam = planar::triangulated_grid(side, side);
    let cfg = practical_cfg(0.05).with_phases(8);
    let mut engine = Engine::new(&fam.graph, SimConfig::default());
    let det = run_partition(&mut engine, &cfg).expect("partition");
    let rcfg = RandomPartitionConfig::new(0.05, 0.1)
        .with_phases(8)
        .with_seed(5);
    let mut engine = Engine::new(&fam.graph, SimConfig::default());
    let rand = run_randomized_partition(&mut engine, &rcfg).expect("partition");
    let m = fam.graph.m() as f64;
    let mut prev_d = m;
    let mut prev_r = m;
    for i in 0..det.phases.len().max(rand.phases.len()) {
        let d = det.phases.get(i).map(|p| p.cut_weight as f64);
        let r = rand.phases.get(i).map(|p| p.cut_weight as f64);
        println!(
            "{:>5}   {:>8}   {:>10}   {:>9}   {:>11}",
            i + 1,
            d.map_or("-".into(), |x| format!("{x:.0}")),
            d.map_or("-".into(), |x| format!("{:.3}", x / prev_d.max(1.0))),
            r.map_or("-".into(), |x| format!("{x:.0}")),
            r.map_or("-".into(), |x| format!("{:.3}", x / prev_r.max(1.0))),
        );
        if let Some(x) = d {
            assert!(x <= prev_d, "deterministic cut weight must be monotone");
            prev_d = x;
        }
        if let Some(x) = r {
            prev_r = x;
        }
    }
}

/// E5 — Claim 4: max part diameter per phase vs the `4^{i+1}` bound.
pub fn e5_diameter() {
    header(
        "E5 part diameter growth (Claim 4 bound: diam < 4^{i+1})",
        "phase   max_tree_depth   exact_max_diameter   4^{i+1}",
    );
    let side = if quick() { 10 } else { 16 };
    let fam = planar::triangulated_grid(side, side);
    for t in 1..=6usize {
        let cfg = practical_cfg(0.1).with_phases(t);
        let mut engine = Engine::new(&fam.graph, SimConfig::default());
        let p = run_partition(&mut engine, &cfg).expect("partition");
        let audit = oracle::audit_partition(&fam.graph, &p);
        let depth = p.phases.last().map(|m| m.max_depth).unwrap_or(0);
        println!(
            "{:>5}   {:>14}   {:>18}   {:>8}",
            t,
            depth,
            audit.max_diameter,
            4u64.pow(t as u32 + 1)
        );
        assert!(
            (audit.max_diameter as u64) < 4u64.pow(t as u32 + 1),
            "Claim 4 violated"
        );
    }
}

/// E6 — Claims 8/10 and Corollary 9: violating-edge counts, including the
/// **Claim 10 refutation** measured at scale.
pub fn e6_violations() {
    header(
        "E6 violating edges (Claim 8 holds; Claim 10 REFUTED; Cor 9 holds)",
        "graph                         m    far>=   violations   cor9-bound   claim10-pred",
    );
    let mut rng = StdRng::seed_from_u64(42);
    let nsz = scale(200, 80);
    // Generation consumes the shared RNG sequentially (reproducible
    // streams); the embedding + interval analysis fans across cores.
    let planar_fams: Vec<Certified> = (0..5).map(|_| planar::apollonian(nsz, &mut rng)).collect();
    let far_fams: Vec<Certified> = [nsz / 4, nsz / 2, nsz]
        .into_iter()
        .map(|k| nonplanar::planar_plus_chords(nsz, k, &mut rng))
        .collect();
    // Planar inputs: Claim 10 predicts 0; we measure > 0 on most
    // Apollonian networks (the refutation).
    let planar_rows = TrialRunner::auto().map(planar_fams, |fam| {
        let rot = check_planarity(&fam.graph).into_rotation().expect("planar");
        let ivs = oracle::non_tree_intervals(&fam.graph, &rot, NodeId::new(0));
        (fam, oracle::count_violating_edges(&ivs))
    });
    let mut refuted = 0;
    for (fam, v) in planar_rows {
        refuted += usize::from(v > 0);
        println!(
            "{:<28} {:>5} {:>7.3} {:>12} {:>12} {:>14}",
            fam.name,
            fam.graph.m(),
            0.0,
            v,
            0,
            "0 (refuted!)"
        );
    }
    println!("planar graphs with violations under valid embeddings: {refuted}/5");
    // Far inputs: Corollary 9's lower bound (which is sound) must hold.
    let far_rows = TrialRunner::auto().map(far_fams, |fam| {
        let rot = planartest_embed::RotationSystem::from_adjacency(&fam.graph);
        let ivs = oracle::non_tree_intervals(&fam.graph, &rot, NodeId::new(0));
        (fam, oracle::count_violating_edges(&ivs))
    });
    for (fam, v) in far_rows {
        let bound = (fam.far_fraction() * fam.graph.m() as f64).floor() as usize;
        println!(
            "{:<28} {:>5} {:>7.3} {:>12} {:>12} {:>14}",
            fam.name,
            fam.graph.m(),
            fam.far_fraction(),
            v,
            bound,
            ">= bound"
        );
        assert!(v >= bound, "Corollary 9 violated");
    }
}

/// E7 — Theorem 2: girth vs `log n`, far-ness certificates and the
/// blind-round budget of the lower-bound construction.
pub fn e7_lowerbound() {
    header(
        "E7 lower-bound construction (Theorem 2)",
        "n        m     removed   girth   ln(n)   far>=    blind-rounds",
    );
    let sizes: Vec<usize> = if quick() {
        vec![200, 400]
    } else {
        vec![200, 400, 800, 1600, 3200]
    };
    for &n in &sizes {
        let inst = planartest_core::lowerbound::construct(n, 10, 99);
        let g = &inst.certified.graph;
        println!(
            "{:<8} {:>5} {:>8} {:>7} {:>7.2} {:>7.3} {:>13}",
            n,
            g.m(),
            inst.removed_edges,
            inst.girth.map_or("-".into(), |x| x.to_string()),
            (n as f64).ln(),
            inst.certified.far_fraction(),
            inst.max_blind_rounds(),
        );
        assert!(
            inst.certified.far_fraction() > 0.2,
            "construction must stay far"
        );
    }
}

/// E8 — Theorem 3 vs Theorem 4: partition quality and cost, deterministic
/// vs randomized across δ.
pub fn e8_partition() {
    header(
        "E8 partition quality (det Thm 3 vs randomized Thm 4)",
        "algorithm        parts   cut   cut/n    max_diam   rounds",
    );
    let side = if quick() { 12 } else { 20 };
    let fam = planar::triangulated_grid(side, side);
    let n = fam.graph.n() as f64;
    let cfg = practical_cfg(0.1).with_phases(8);
    let mut engine = Engine::new(&fam.graph, SimConfig::default());
    let det = run_partition(&mut engine, &cfg).expect("partition");
    let audit = oracle::audit_partition(&fam.graph, &det);
    println!(
        "{:<16} {:>5} {:>5} {:>7.3} {:>10} {:>8}",
        "deterministic",
        audit.parts,
        audit.cut_edges,
        audit.cut_edges as f64 / n,
        audit.max_diameter,
        engine.stats().total_rounds()
    );
    for delta in [0.5, 0.1, 0.01] {
        let rcfg = RandomPartitionConfig::new(0.1, delta)
            .with_phases(8)
            .with_seed(4);
        let mut engine = Engine::new(&fam.graph, SimConfig::default());
        let p = run_randomized_partition(&mut engine, &rcfg).expect("partition");
        let audit = oracle::audit_partition(&fam.graph, &p);
        println!(
            "{:<16} {:>5} {:>5} {:>7.3} {:>10} {:>8}",
            format!("rand d={delta}"),
            audit.parts,
            audit.cut_edges,
            audit.cut_edges as f64 / n,
            audit.max_diameter,
            engine.stats().total_rounds()
        );
        assert!(audit.parts_connected);
    }
}

/// E9 — Corollary 16: hereditary-property testers.
pub fn e9_hereditary() {
    header(
        "E9 hereditary testers on minor-free graphs (Cor 16)",
        "property        input            verdict   rejecting   rounds",
    );
    let mut rng = StdRng::seed_from_u64(8);
    let nsz = scale(400, 150);
    let cfg = practical_cfg(0.2).with_phases(6);
    let cases: Vec<(&str, Graph, bool)> = vec![
        ("cycle-free", planar::random_tree(nsz, &mut rng).graph, true),
        (
            "cycle-free",
            planar::triangulated_grid(isqrt(nsz), isqrt(nsz)).graph,
            false,
        ),
        (
            "bipartite",
            planar::grid(isqrt(nsz), isqrt(nsz)).graph,
            true,
        ),
        (
            "bipartite",
            planar::triangulated_grid(isqrt(nsz), isqrt(nsz)).graph,
            false,
        ),
    ];
    for (prop, g, expect_accept) in cases {
        let mut engine = Engine::new(&g, SimConfig::default());
        let out = if prop == "cycle-free" {
            test_cycle_freeness(&mut engine, &cfg).expect("run")
        } else {
            test_bipartiteness(&mut engine, &cfg).expect("run")
        };
        println!(
            "{:<15} n={:<12} {:>8} {:>10} {:>8}",
            prop,
            g.n(),
            if out.accepted() { "ACCEPT" } else { "REJECT" },
            out.rejecting.len(),
            engine.stats().total_rounds()
        );
        assert_eq!(out.accepted(), expect_accept, "{prop} verdict wrong");
    }
}

/// E10 — Corollary 17 vs the random-shift (Elkin–Neiman-style) baseline.
pub fn e10_spanner() {
    header(
        "E10 spanners (Cor 17 vs random-shift baseline)",
        "algorithm        eps/beta   edges   size/n   max_stretch   rounds",
    );
    let side = if quick() { 10 } else { 16 };
    let g = planar::triangulated_grid(side, side).graph;
    for eps in [0.3, 0.1] {
        let cfg = practical_cfg(eps).with_phases(8);
        let mut engine = Engine::new(&g, SimConfig::default());
        let sp = build_spanner(&mut engine, &cfg).expect("spanner");
        println!(
            "{:<16} {:>8} {:>7} {:>8.3} {:>13} {:>8}",
            "ours (Cor 17)",
            eps,
            sp.edges.len(),
            sp.size_ratio(&g),
            sp.max_stretch(&g),
            engine.stats().total_rounds()
        );
    }
    for beta in [0.3, 0.1] {
        let cfg = RandomShiftConfig::new(beta);
        let mut engine = Engine::new(&g, SimConfig::default());
        let edges = shift_spanner(&mut engine, &cfg).expect("spanner");
        let keep: std::collections::HashSet<u32> = edges.iter().map(|e| e.raw()).collect();
        let (sub, _) = g.edge_subgraph(|e| keep.contains(&e.raw()));
        let mut worst = 1u32;
        for (u, v) in g.edges() {
            if let Some(d) = planartest_graph::algo::bfs::distances(&sub, u)[v.index()] {
                worst = worst.max(d);
            }
        }
        println!(
            "{:<16} {:>8} {:>7} {:>8.3} {:>13} {:>8}",
            "random-shift",
            beta,
            edges.len(),
            edges.len() as f64 / g.n() as f64,
            worst,
            engine.stats().total_rounds()
        );
    }
}

/// E11 — §1.1 remark: our Stage I vs the random-shift clustering
/// alternative (`O(log n)` vs `O(log² n)` flavour).
pub fn e11_stage1_alt() {
    header(
        "E11 Stage I vs random-shift clustering",
        "algorithm        n      parts   cut/m    max_diam   rounds",
    );
    let sizes: Vec<usize> = if quick() {
        vec![100, 256]
    } else {
        vec![256, 1024, 2304]
    };
    for &n in &sizes {
        let side = isqrt(n);
        let g = planar::triangulated_grid(side, side).graph;
        let cfg = practical_cfg(0.15).with_phases(8);
        let mut engine = Engine::new(&g, SimConfig::default());
        let det = run_partition(&mut engine, &cfg).expect("partition");
        let a = oracle::audit_partition(&g, &det);
        println!(
            "{:<16} {:>5} {:>7} {:>8.3} {:>9} {:>9}",
            "stage-I (ours)",
            g.n(),
            a.parts,
            a.cut_fraction,
            a.max_diameter,
            engine.stats().total_rounds()
        );
        let cfg = RandomShiftConfig::new(0.15);
        let mut engine = Engine::new(&g, SimConfig::default());
        let state = random_shift_partition(&mut engine, &cfg).expect("cluster");
        let cut = state.cut_weight(&g);
        println!(
            "{:<16} {:>5} {:>7} {:>8.3} {:>9} {:>9}",
            "random-shift",
            g.n(),
            state.part_count(),
            cut as f64 / g.m() as f64,
            "-",
            engine.stats().total_rounds()
        );
    }
}

/// E12 — model audit: bandwidth ceiling and message volume.
pub fn e12_bandwidth() {
    header(
        "E12 bandwidth audit (per-edge per-round <= W enforced by engine)",
        "graph                     W   rounds   messages   words   words/msg<=W",
    );
    let mut rng = StdRng::seed_from_u64(3);
    let graphs = vec![
        planar::triangulated_grid(10, 10),
        nonplanar::planar_plus_chords(100, 60, &mut rng),
    ];
    for fam in graphs {
        for w in [2usize, 4, 8] {
            let sim = SimConfig {
                max_words_per_message: w,
            };
            let cfg = practical_cfg(0.1).with_phases(6);
            let out = PlanarityTester::new(cfg)
                .with_sim_config(sim)
                .run(&fam.graph);
            match out {
                Ok(out) => println!(
                    "{:<24} {:>3} {:>8} {:>10} {:>7} {:>8.2}",
                    fam.name,
                    w,
                    out.rounds(),
                    out.stats.messages,
                    out.stats.words,
                    out.stats.words as f64 / out.stats.messages.max(1) as f64
                ),
                Err(e) => println!("{:<24} {:>3}  error: {e}", fam.name, w),
            }
        }
    }
}

fn isqrt(n: usize) -> usize {
    (n as f64).sqrt().round() as usize
}

/// Runs every experiment in order (the `all_experiments` binary).
pub fn run_all() {
    e1_correctness();
    e2_rounds_vs_n();
    e3_rounds_vs_eps();
    e4_weight_decay();
    e5_diameter();
    e6_violations();
    e7_lowerbound();
    e8_partition();
    e9_hereditary();
    e10_spanner();
    e11_stage1_alt();
    e12_bandwidth();
    let _ = runtime_bench();
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_flag_reads_env() {
        // Just exercise the helper; the value depends on the environment.
        let _ = super::quick();
    }

    #[test]
    fn host_names_commit_cores_and_cpu() {
        let host = super::host();
        for key in ["commit", "cpu_model"] {
            let value = host.get(key).and_then(|v| v.as_str()).expect(key);
            assert!(!value.is_empty(), "{key}");
        }
        assert!(host.get("cores").and_then(|v| v.as_u64()) >= Some(1));
    }
}
