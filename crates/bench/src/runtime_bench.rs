//! Runtime benchmark: serial engine throughput, tester n-sweeps,
//! trial-parallel sweep scaling, batched-vs-sequential Monte-Carlo
//! sweeps, the two planar embedders and the scaling of the tester's
//! seed-free prefix over parts — written
//! both as a human-readable table and as machine-readable
//! `BENCH_runtime.json` so the performance trajectory is tracked from PR
//! to PR.

use std::hint::black_box;
use std::time::Instant;

use planartest_core::{PlanarityTester, TestOutcome};
use planartest_embed::{check_planarity, demoucron};
use planartest_graph::generators::planar;
use planartest_graph::{Graph, NodeId};
use planartest_sim::runtime::{auto_threads, TrialRunner};
use planartest_sim::{Engine, Msg, NodeLogic, Outbox, SimConfig};

use crate::json::Json;
use crate::quick;

/// The flood workload used for raw engine throughput.
struct FloodLogic {
    seen: Vec<bool>,
}

impl NodeLogic for FloodLogic {
    fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        if node.index() == 0 {
            self.seen[0] = true;
            out.send_all(Msg::words(&[1]));
        }
    }
    fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
        if !self.seen[node.index()] && !inbox.is_empty() {
            self.seen[node.index()] = true;
            out.send_all(Msg::words(&[1]));
        }
    }
}

/// Median-of-`reps` wall-clock seconds for `f` (quick mode: 1 rep).
fn time_median<F: FnMut()>(f: F) -> f64 {
    time_median_reps(if quick() { 1 } else { 3 }, f)
}

/// Median-of-`reps` wall-clock seconds for `f` with an explicit rep
/// count (the gated measurements keep 3 reps even in quick mode, so a
/// single noisy sample can't flip the CI gate).
fn time_median_reps<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Raw engine throughput on a flood over a triangulated grid
/// (`n = side²`), median of 11 reps: one flood takes well under a
/// millisecond, so a single sample is mostly timer and scheduler noise.
fn engine_throughput(side: usize) -> Json {
    let fam = planar::triangulated_grid(side, side);
    let g = &fam.graph;
    let mut rounds = 0u64;
    let secs = time_median_reps(11, || {
        let mut engine = Engine::new(g, SimConfig::default());
        let mut logic = FloodLogic {
            seen: vec![false; g.n()],
        };
        rounds = engine.run(&mut logic, 1_000_000).expect("flood").rounds;
    });
    println!(
        "engine flood   n={:<6} {:>10.1} rounds/s ({rounds} rounds)",
        g.n(),
        rounds as f64 / secs
    );
    Json::obj()
        .field("workload", "flood_triangulated_grid")
        .field("n", g.n())
        .field("m", g.m())
        .field("rounds", rounds)
        .field("seconds", secs)
        .field("rounds_per_sec", rounds as f64 / secs)
}

/// One tester workload: median-of-`reps` wall-clock of a full tester
/// pass on a triangulated grid (`n = side²`).
fn tester_workload(side: usize, reps: usize) -> Json {
    let fam = planar::triangulated_grid(side, side);
    let g = &fam.graph;
    let cfg = crate::practical_cfg(0.1);
    let mut rounds = 0u64;
    let secs = time_median_reps(reps, || {
        let out = PlanarityTester::new(cfg.clone()).run(g).expect("run");
        assert!(out.accepted());
        rounds = out.rounds();
    });
    println!(
        "tester sweep   n={:<6} {secs:>8.3}s  ({rounds} rounds)",
        g.n()
    );
    Json::obj()
        .field("n", g.n())
        .field("m", g.m())
        .field("rounds", rounds)
        .field("seconds", secs)
}

/// Tester wall-clock vs `n` (median of 3 reps per size).
fn tester_n_sweep() -> Json {
    let sides: Vec<usize> = if quick() {
        vec![8, 16, 48]
    } else {
        vec![16, 32, 64]
    };
    Json::Arr(
        sides
            .into_iter()
            .map(|side| tester_workload(side, 3))
            .collect(),
    )
}

/// Trial-parallel Monte-Carlo sweep (the e1 workload shape): the same
/// seeded tester runs fanned across cores by [`TrialRunner`].
fn trial_sweep() -> Json {
    let side = if quick() { 10 } else { 20 };
    let trials = if quick() { 4 } else { 16 };
    let fam = planar::triangulated_grid(side, side);
    let g: &Graph = &fam.graph;

    let run_trial = |seed: usize| {
        let cfg = crate::practical_cfg(0.1).with_seed(seed as u64);
        PlanarityTester::new(cfg).run(g).expect("run").accepted()
    };

    let mut verdicts_serial = Vec::new();
    let serial_secs = time_median(|| {
        verdicts_serial = TrialRunner::new(1).run(trials, run_trial);
    });
    let mut verdicts_parallel = Vec::new();
    let parallel_secs = time_median(|| {
        verdicts_parallel = TrialRunner::auto().run(trials, run_trial);
    });
    assert_eq!(
        verdicts_parallel, verdicts_serial,
        "trial order must be deterministic"
    );
    let speedup = serial_secs / parallel_secs;
    println!(
        "trial sweep    {trials} trials n={:<5} serial {serial_secs:>8.3}s  parallel({}) {parallel_secs:>8.3}s  speedup {speedup:.2}x",
        g.n(),
        TrialRunner::auto().threads(),
    );

    Json::obj()
        .field("workload", "tester_acceptance_sweep")
        .field("n", g.n())
        .field("trials", trials)
        .field("accepted", verdicts_serial.iter().filter(|&&a| a).count())
        .field("serial_seconds", serial_secs)
        .field("parallel_threads", TrialRunner::auto().threads())
        .field("parallel_seconds", parallel_secs)
        .field("speedup_vs_serial", speedup)
}

/// Batched vs sequential Monte-Carlo acceptance sweep: the same seeded
/// tester instances served one full `run` per seed (the sequential
/// per-instance path) vs one batched [`PlanarityTester::run_many`]
/// pass. Per-instance outcomes are asserted bit-identical; only
/// wall-clock may differ. Returns the row plus the
/// batched-over-sequential speedup (gated — warm-up pass plus the median
/// of 5 *paired* ratios even in quick mode, because this ratio is
/// compared against the raised [`BenchGate::BATCH_SPEEDUP_FLOOR`], not
/// mere parity, and pairing is what keeps background load drift from
/// flipping the CI gate).
fn batch_sweep() -> (Json, f64, usize) {
    let side = if quick() { 16 } else { 32 };
    let trials = 16usize;
    let fam = planar::triangulated_grid(side, side);
    let g: &Graph = &fam.graph;
    // The paper-faithful configuration (derived Θ(log 1/ε) phase count,
    // not the experiment shortcut): Monte-Carlo trials amplify the
    // tester's one-sided soundness, which is exactly the workload
    // batching exists for.
    let eps = 0.2;
    let cfg = planartest_core::TesterConfig::new(eps);
    let seeds: Vec<u64> = (0..trials as u64).collect();

    // One untimed pass on each side first: the gated ratio must not
    // depend on who pays the cold-cache / first-allocation cost.
    let _ = PlanarityTester::new(cfg.clone().with_seed(0)).run(g);
    let _ = PlanarityTester::new(cfg.clone()).run_many(g, &seeds);

    // Paired reps: each rep times sequential and batched back-to-back
    // and contributes one ratio; the gate takes the median ratio.
    // Timing the two sides in separate blocks (independent medians)
    // lets machine-wide load drift between the blocks masquerade as a
    // batching regression — pairing cancels it, because any slowdown
    // hits both halves of the same rep.
    let reps = 5;
    let mut sequential: Vec<TestOutcome> = Vec::new();
    let mut batched: Vec<TestOutcome> = Vec::new();
    let mut seq_samples = Vec::with_capacity(reps);
    let mut bat_samples = Vec::with_capacity(reps);
    let mut ratios = Vec::with_capacity(reps);
    for _ in 0..reps {
        let seq_secs = time_median_reps(1, || {
            sequential = seeds
                .iter()
                .map(|&seed| {
                    PlanarityTester::new(cfg.clone().with_seed(seed))
                        .run(g)
                        .expect("run")
                })
                .collect();
        });
        let bat_secs = time_median_reps(1, || {
            batched = PlanarityTester::new(cfg.clone())
                .run_many(g, &seeds)
                .expect("run");
        });
        seq_samples.push(seq_secs);
        bat_samples.push(bat_secs);
        ratios.push(seq_secs / bat_secs);
    }
    for (seq, bat) in sequential.iter().zip(&batched) {
        assert_eq!(bat.rejections, seq.rejections, "batched verdict diverged");
        assert_eq!(bat.stats, seq.stats, "batched stats diverged");
    }
    seq_samples.sort_by(f64::total_cmp);
    bat_samples.sort_by(f64::total_cmp);
    ratios.sort_by(f64::total_cmp);
    let sequential_secs = seq_samples[reps / 2];
    let batched_secs = bat_samples[reps / 2];
    let speedup = ratios[reps / 2];
    println!(
        "batch sweep    {trials} trials n={:<5} sequential {sequential_secs:>8.3}s  \
         batched {batched_secs:>8.3}s  speedup {speedup:.2}x",
        g.n(),
    );
    let row = Json::obj()
        .field("workload", "tester_acceptance_sweep_batched")
        .field("n", g.n())
        .field("epsilon", eps)
        .field("phases", cfg.phases(g.n()))
        .field("trials", trials)
        .field("accepted", batched.iter().filter(|o| o.accepted()).count())
        .field("sequential_seconds", sequential_secs)
        .field("batched_seconds", batched_secs)
        .field("speedup_vs_sequential", speedup);
    (row, speedup, trials)
}

/// Paired before/after measurement: after a warm-up pair, each of
/// `pairs` reps times `before` then `after` back to back and the gated
/// speedup is the **median of the per-pair ratios**. Pairing is what
/// makes a tight gate holdable: machine-wide drift (thermal ramp,
/// frequency scaling, a CI neighbour) hits both sides of a pair about
/// equally and cancels in its ratio, where a ratio of two
/// independently-taken medians inherits the drift between them as
/// bias. Returns `(before_median, after_median, ratio_median)`.
fn paired_times(
    pairs: usize,
    before: &mut dyn FnMut(),
    after: &mut dyn FnMut(),
) -> (f64, f64, f64) {
    fn time_one(f: &mut dyn FnMut()) -> f64 {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    }
    before();
    after();
    let mut before_times = Vec::with_capacity(pairs);
    let mut after_times = Vec::with_capacity(pairs);
    let mut ratios = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let b = time_one(before);
        let a = time_one(after);
        before_times.push(b);
        after_times.push(a);
        ratios.push(b / a);
    }
    before_times.sort_by(f64::total_cmp);
    after_times.sort_by(f64::total_cmp);
    ratios.sort_by(f64::total_cmp);
    (
        before_times[pairs / 2],
        after_times[pairs / 2],
        ratios[pairs / 2],
    )
}

/// The quadratic Demoucron oracle against the linear-time left-right
/// embedder Stage II runs, on one triangulated grid (`n = side²`): paired
/// one-thread medians over `pairs` pairs, both embedders first asserted
/// to call the grid planar. Returns the row plus the median per-pair
/// Demoucron/left-right ratio (gated by
/// [`BenchGate::EMBED_SPEEDUP_FLOOR`]).
fn embed_bench(side: usize, pairs: usize) -> (Json, f64) {
    let fam = planar::triangulated_grid(side, side);
    let g = &fam.graph;
    assert!(
        demoucron::check_planarity(g).is_planar() && check_planarity(g).is_planar(),
        "both embedders must embed the grid before timing"
    );
    let (demoucron_secs, left_right_secs, speedup) = paired_times(
        pairs,
        &mut || {
            black_box(demoucron::check_planarity(g));
        },
        &mut || {
            black_box(check_planarity(g));
        },
    );
    println!(
        "embedder       n={:<6} demoucron {demoucron_secs:>10.6}s  left-right \
         {left_right_secs:>10.6}s  speedup {speedup:.1}x",
        g.n()
    );
    let row = Json::obj()
        .field("workload", "embed_triangulated_grid")
        .field("n", g.n())
        .field("m", g.m())
        .field("pairs", pairs)
        .field("demoucron_seconds", demoucron_secs)
        .field("left_right_seconds", left_right_secs)
        .field("speedup", speedup);
    (row, speedup)
}

/// [`PlanarityTester::prepare`] at `phases: 0`, where every node is its
/// own part, on `grid(side, side)` against `grid(2·side, 2·side)`:
/// paired one-thread medians over `pairs` pairs, every prepared tester
/// first asserted to accept. Returns the row plus the growth of the
/// per-node time from the small grid to the large one (gated by
/// [`BenchGate::PREPARE_GROWTH_CEILING`]): a prepare linear in `n + m`
/// reads about 1x, one that scans the graph once per part about 4x.
fn prepare_scaling(side: usize, pairs: usize) -> (Json, f64) {
    let small = planar::grid(side, side).graph;
    let large = planar::grid(2 * side, 2 * side).graph;
    let tester = PlanarityTester::new(crate::practical_cfg(0.1).with_phases(0));
    for g in [&small, &large] {
        let prepared = tester.prepare(g).expect("prepare");
        let verdict = prepared.sample(g, &[0]).expect("sample");
        assert!(verdict[0].accepted(), "grids are planar");
    }
    let (small_secs, large_secs, ratio) = paired_times(
        pairs,
        &mut || {
            black_box(tester.prepare(&small).expect("prepare"));
        },
        &mut || {
            black_box(tester.prepare(&large).expect("prepare"));
        },
    );
    let growth = small.n() as f64 / (large.n() as f64 * ratio);
    println!(
        "prepare p=0    n={:<6} {small_secs:>10.6}s  n={:<6} {large_secs:>10.6}s  \
         per-node growth {growth:.2}x",
        small.n(),
        large.n()
    );
    let row = Json::obj()
        .field("workload", "prepare_grid_phases_0")
        .field("small_n", small.n())
        .field("large_n", large.n())
        .field("pairs", pairs)
        .field("small_seconds", small_secs)
        .field("large_seconds", large_secs)
        .field("per_node_growth", growth);
    (row, growth)
}

/// The CI regression gate computed alongside the benchmark document:
/// the batched Monte-Carlo sweep must clear its floor over the
/// sequential-per-instance path, the left-right embedder must clear its
/// floor over Demoucron, and the prepare's per-node time must stay
/// under its growth ceiling.
#[derive(Debug, Clone, Copy)]
pub struct BenchGate {
    /// Trials in the gated batched acceptance sweep.
    pub batch_trials: usize,
    /// Sequential-per-instance wall-clock over batched wall-clock on
    /// the Monte-Carlo acceptance sweep.
    pub batch_speedup: f64,
    /// Demoucron wall-clock over left-right wall-clock on the embed
    /// bench's grid (median of paired ratios).
    pub embed_speedup: f64,
    /// Per-node prepare time on the large grid over the small one at
    /// `phases: 0` (median of paired ratios).
    pub prepare_growth: f64,
}

impl BenchGate {
    /// Floor for the batched-vs-sequential speedup. The batched pass
    /// runs Stage I and the seed-independent Stage-II prefix once, and
    /// only the per-seed sample streams per seed, back to back on one
    /// engine that recycles its round buffers; the gated 16-trial
    /// acceptance sweep measures ≈ 4.4–5.3x on one core (median of
    /// paired ratios). The floor sits at 4.0 — noise margin below that
    /// steady state, regression margin above the 3.36x of the first
    /// batched layout.
    pub const BATCH_SPEEDUP_FLOOR: f64 = 4.0;

    /// Floor for the left-right embedder over Demoucron on the embed
    /// bench's grid. Demoucron is quadratic and left-right linear, so
    /// the ratio grows with the grid: already two orders of magnitude
    /// at `tri_grid(24,24)`. A floor of 10 only fails if the linear
    /// embedder has lost its complexity.
    pub const EMBED_SPEEDUP_FLOOR: f64 = 10.0;

    /// Ceiling for the prepare's per-node time growth over a 4x larger
    /// grid at `phases: 0`. Linear code reads about 1x; building each
    /// part's subgraph with its own scan of the graph reads about 4x
    /// there, since every node is a part.
    pub const PREPARE_GROWTH_CEILING: f64 = 2.0;

    /// Whether the gate passes: the batch speedup at or above
    /// [`BATCH_SPEEDUP_FLOOR`](Self::BATCH_SPEEDUP_FLOOR), the
    /// embedder at or above
    /// [`EMBED_SPEEDUP_FLOOR`](Self::EMBED_SPEEDUP_FLOOR) and the
    /// prepare's growth below
    /// [`PREPARE_GROWTH_CEILING`](Self::PREPARE_GROWTH_CEILING). Every
    /// clause is a one-thread measurement, so the gate holds on any
    /// core count.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.batch_speedup >= Self::BATCH_SPEEDUP_FLOOR
            && self.embed_speedup >= Self::EMBED_SPEEDUP_FLOOR
            && self.prepare_growth < Self::PREPARE_GROWTH_CEILING
    }
}

/// Builds the full benchmark document (also printed as tables) and the
/// CI gate derived from it.
#[must_use]
pub fn runtime_bench_document() -> (Json, BenchGate) {
    println!("\n## runtime benchmark (engine, tester, trials, batched)");
    let side = if quick() { 24 } else { 64 };
    let tester_rows = tester_n_sweep();
    let (batch_row, batch_speedup, batch_trials) = batch_sweep();
    let (embed_row, embed_speedup) = embed_bench(if quick() { 24 } else { 48 }, 7);
    let (prepare_row, prepare_growth) = prepare_scaling(48, 7);
    let gate = BenchGate {
        batch_trials,
        batch_speedup,
        embed_speedup,
        prepare_growth,
    };
    let doc = Json::obj()
        .field("schema", "planartest-bench/runtime/v6")
        .field("quick_mode", quick())
        .field("host", crate::host())
        .field("hardware_threads", auto_threads())
        .field("engine_throughput", engine_throughput(side))
        .field("embed_bench", embed_row)
        .field("prepare_scaling", prepare_row)
        .field("tester_n_sweep", tester_rows)
        .field("trial_sweep", trial_sweep())
        .field("batch_sweep", batch_row)
        .field(
            "gate",
            Json::obj()
                .field("batch_trials", gate.batch_trials)
                .field("batch_speedup_vs_sequential", gate.batch_speedup)
                .field("batch_speedup_floor", BenchGate::BATCH_SPEEDUP_FLOOR)
                .field("embed_speedup", gate.embed_speedup)
                .field("embed_speedup_floor", BenchGate::EMBED_SPEEDUP_FLOOR)
                .field("prepare_growth", gate.prepare_growth)
                .field("prepare_growth_ceiling", BenchGate::PREPARE_GROWTH_CEILING)
                .field("pass", gate.pass()),
        );
    (doc, gate)
}

/// Runs the benchmark and writes `BENCH_runtime.json` into the current
/// directory (the repo root under `cargo run`); returns the CI gate.
pub fn runtime_bench() -> BenchGate {
    let (doc, gate) = runtime_bench_document();
    let path = "BENCH_runtime.json";
    std::fs::write(path, doc.pretty()).expect("write BENCH_runtime.json");
    println!("wrote {path}");
    gate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tester_workload_row_has_required_fields() {
        // One tiny workload exercises the row builder; the full document
        // runs for real in CI via `runtime_bench --check` on the release
        // binary.
        let text = tester_workload(4, 1).pretty();
        for key in ["n", "m", "rounds", "seconds"] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }

    #[test]
    fn gate_thresholds() {
        let floor = BenchGate::BATCH_SPEEDUP_FLOOR;
        assert_eq!(floor, 4.0);
        let gate = |batch_speedup: f64, embed_speedup: f64| BenchGate {
            batch_trials: 8,
            batch_speedup,
            embed_speedup,
            prepare_growth: 1.0,
        };
        assert!(gate(floor, 50.0).pass());
        assert!(!gate(floor - 0.01, 50.0).pass());
        assert!(!gate(1.0, 50.0).pass());
        // The linear embedder must stay an order of magnitude ahead.
        assert_eq!(BenchGate::EMBED_SPEEDUP_FLOOR, 10.0);
        assert!(gate(floor, 10.0).pass());
        assert!(!gate(floor, 9.9).pass());
        // A prepare that scans the graph once per part fails.
        assert_eq!(BenchGate::PREPARE_GROWTH_CEILING, 2.0);
        let growth = |prepare_growth: f64| BenchGate {
            prepare_growth,
            ..gate(floor, 50.0)
        };
        assert!(growth(1.99).pass());
        assert!(!growth(2.0).pass());
        assert!(!growth(4.0).pass());
    }

    #[test]
    fn prepare_row_has_required_fields() {
        // A schema check over one pair on tiny grids: the timed workload
        // runs in `runtime_bench --check` on the release binary.
        let (row, growth) = prepare_scaling(3, 1);
        let text = row.pretty();
        for key in [
            "prepare_grid_phases_0",
            "small_seconds",
            "large_seconds",
            "per_node_growth",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        assert!(growth.is_finite() && growth > 0.0);
    }

    #[test]
    fn embed_row_has_required_fields() {
        // A schema check over one pair on a tiny grid: the timed
        // workload runs in `runtime_bench --check` on the release binary.
        let (row, speedup) = embed_bench(4, 1);
        let text = row.pretty();
        for key in [
            "embed_triangulated_grid",
            "demoucron_seconds",
            "left_right_seconds",
            "speedup",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        assert!(speedup.is_finite() && speedup > 0.0);
    }
}
