//! Runtime benchmark: serial engine throughput, tester n-sweeps,
//! trial-parallel sweep scaling, batched-vs-sequential Monte-Carlo
//! sweeps, the label-pack kernels and the two planar embedders — written
//! both as a human-readable table and as machine-readable
//! `BENCH_runtime.json` so the performance trajectory is tracked from PR
//! to PR.

use std::hint::black_box;
use std::time::Instant;

use planartest_core::stage2::pack;
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

/// SplitMix64 — deterministic digit/bit workloads for the kernel
/// microbenchmarks.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One before/after kernel row: scalar reference vs SWAR path over the
/// same workload, both asserted to produce identical results first.
fn kernel_row(name: &str, scalar_secs: f64, swar_secs: f64, speedup: f64) -> Json {
    println!(
        "kernel         {name:<24} scalar {scalar_secs:>10.6}s  swar {swar_secs:>10.6}s  \
         speedup {speedup:.2}x"
    );
    Json::obj()
        .field("kernel", name)
        .field("scalar_seconds", scalar_secs)
        .field("swar_seconds", swar_secs)
        .field("speedup", speedup)
}

/// Paired before/after measurement: after a warm-up pair, each of
/// `pairs` reps times `before` then `after` back to back and the gated
/// speedup is the **median of the per-pair ratios**. Pairing is what
/// makes a 1.0 floor holdable: machine-wide drift (thermal ramp,
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

/// Per-kernel before/after microbenchmarks for the stage-2 label digit
/// pack/unpack at each width class: "before" is the portable scalar
/// reference (the proptest oracle), "after" the SWAR kernels the label
/// codec runs on. Each timing is `reps` passes, paired
/// `pairs` times. Returns the rows plus the worst row's
/// `(speedup, kernel name)` — the gate's "every SWAR kernel earns its
/// keep" clause.
fn kernel_bench(reps: usize, pairs: usize) -> (Json, f64, &'static str) {
    let mut rows = Vec::new();
    let mut min_speedup = f64::INFINITY;
    let mut min_kernel: &'static str = "none";
    let mut push_row =
        |rows: &mut Vec<Json>, name: &'static str, scalar: f64, swar: f64, ratio: f64| {
            rows.push(kernel_row(name, scalar, swar, ratio));
            if ratio < min_speedup {
                min_speedup = ratio;
                min_kernel = name;
            }
        };

    // Label digit transpose: 512 labels × 24 digits per width class
    // (tree-path labels are Θ(depth) digits; 24 covers the deep-part
    // regime while still exercising ragged tails).
    for &(name, bits, per, mask) in &[
        ("label_pack_4bit", 4u32, 16usize, 15u32),
        ("label_pack_16bit", 16, 4, 65_535),
        ("label_pack_32bit", 32, 2, u32::MAX),
    ] {
        let labels: Vec<Vec<u32>> = (0..512u64)
            .map(|s| {
                (0..24u64)
                    .map(|i| (mix(s << 32 | i) as u32) & mask)
                    .collect()
            })
            .collect();
        let pass = |words: &mut Vec<u64>, digits: &mut Vec<u32>, swar: bool| {
            words.clear();
            digits.clear();
            for label in &labels {
                let start = words.len();
                if swar {
                    pack::pack_swar(label, bits, per, words);
                    pack::unpack_swar(&words[start..], label.len(), bits, per, digits);
                } else {
                    pack::pack_scalar(label, bits, per, words);
                    pack::unpack_scalar(&words[start..], label.len(), bits, per, digits);
                }
            }
        };
        let mut words: Vec<u64> = Vec::new();
        let mut digits: Vec<u32> = Vec::new();
        pass(&mut words, &mut digits, false);
        let reference = digits.clone();
        pass(&mut words, &mut digits, true);
        assert_eq!(
            digits, reference,
            "{name}: kernels must agree before timing"
        );
        // Separate buffers per side: the paired closures live at once.
        let (mut words_w, mut digits_w) = (Vec::new(), Vec::new());
        let (scalar_secs, swar_secs, ratio) = paired_times(
            pairs,
            &mut || {
                for _ in 0..reps {
                    pass(&mut words, &mut digits, false);
                }
                black_box((&words, &digits));
            },
            &mut || {
                for _ in 0..reps {
                    pass(&mut words_w, &mut digits_w, true);
                }
                black_box((&words_w, &digits_w));
            },
        );
        push_row(
            &mut rows,
            name,
            scalar_secs / reps as f64,
            swar_secs / reps as f64,
            ratio,
        );
    }

    (Json::Arr(rows), min_speedup, min_kernel)
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

/// The CI regression gate computed alongside the benchmark document:
/// the batched Monte-Carlo sweep must clear its floor over the
/// sequential-per-instance path, no SWAR label-pack kernel may lose to
/// its scalar reference, and the left-right embedder must clear its
/// floor over Demoucron.
#[derive(Debug, Clone, Copy)]
pub struct BenchGate {
    /// Trials in the gated batched acceptance sweep.
    pub batch_trials: usize,
    /// Sequential-per-instance wall-clock over batched wall-clock on
    /// the Monte-Carlo acceptance sweep.
    pub batch_speedup: f64,
    /// The *worst* per-kernel SWAR-vs-scalar speedup across every
    /// `kernel_bench` row (median of paired ratios).
    pub min_kernel_speedup: f64,
    /// Which kernel posted that worst ratio.
    pub min_kernel: &'static str,
    /// Demoucron wall-clock over left-right wall-clock on the embed
    /// bench's grid (median of paired ratios).
    pub embed_speedup: f64,
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

    /// Floor for every per-kernel SWAR-vs-scalar ratio: a SWAR path
    /// that loses to its own scalar reference is a regression, full
    /// stop — there is no workload argument for shipping a slower
    /// dispatch default. Holdable at exactly 1.0 (not 1.0 minus a
    /// noise allowance) because the measurement is a median of
    /// *paired* ratios: drift cancels within each pair, and the
    /// unrolled kernels clear parity with real margin (the old
    /// pairwise-spread 16-bit pack measured 0.83x and would fail
    /// here, as it should).
    pub const KERNEL_SPEEDUP_FLOOR: f64 = 1.0;

    /// Floor for the left-right embedder over Demoucron on the embed
    /// bench's grid. Demoucron is quadratic and left-right linear, so
    /// the ratio grows with the grid: already two orders of magnitude
    /// at `tri_grid(24,24)`. A floor of 10 only fails if the linear
    /// embedder has lost its complexity.
    pub const EMBED_SPEEDUP_FLOOR: f64 = 10.0;

    /// Whether the gate passes: the batch speedup at or above
    /// [`BATCH_SPEEDUP_FLOOR`](Self::BATCH_SPEEDUP_FLOOR), every
    /// kernel at or above
    /// [`KERNEL_SPEEDUP_FLOOR`](Self::KERNEL_SPEEDUP_FLOOR) and the
    /// embedder at or above
    /// [`EMBED_SPEEDUP_FLOOR`](Self::EMBED_SPEEDUP_FLOOR). Every clause
    /// is a one-thread measurement, so the gate holds on any core
    /// count.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.batch_speedup >= Self::BATCH_SPEEDUP_FLOOR
            && self.min_kernel_speedup >= Self::KERNEL_SPEEDUP_FLOOR
            && self.embed_speedup >= Self::EMBED_SPEEDUP_FLOOR
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
    let (kernel_rows, min_kernel_speedup, min_kernel) = if quick() {
        kernel_bench(300, 5)
    } else {
        kernel_bench(2_000, 9)
    };
    let (embed_row, embed_speedup) = embed_bench(if quick() { 24 } else { 48 }, 7);
    let gate = BenchGate {
        batch_trials,
        batch_speedup,
        min_kernel_speedup,
        min_kernel,
        embed_speedup,
    };
    let doc = Json::obj()
        .field("schema", "planartest-bench/runtime/v4")
        .field("quick_mode", quick())
        .field("hardware_threads", auto_threads())
        .field("engine_throughput", engine_throughput(side))
        .field("kernel_bench", kernel_rows)
        .field("embed_bench", embed_row)
        .field("tester_n_sweep", tester_rows)
        .field("trial_sweep", trial_sweep())
        .field("batch_sweep", batch_row)
        .field(
            "gate",
            Json::obj()
                .field("batch_trials", gate.batch_trials)
                .field("batch_speedup_vs_sequential", gate.batch_speedup)
                .field("batch_speedup_floor", BenchGate::BATCH_SPEEDUP_FLOOR)
                .field("min_kernel_speedup", gate.min_kernel_speedup)
                .field("min_kernel", gate.min_kernel)
                .field("kernel_speedup_floor", BenchGate::KERNEL_SPEEDUP_FLOOR)
                .field("embed_speedup", gate.embed_speedup)
                .field("embed_speedup_floor", BenchGate::EMBED_SPEEDUP_FLOOR)
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
        let gate = |batch_speedup: f64, min_kernel_speedup: f64, embed_speedup: f64| BenchGate {
            batch_trials: 8,
            batch_speedup,
            min_kernel_speedup,
            min_kernel: "label_pack_16bit",
            embed_speedup,
        };
        assert!(gate(floor, 1.2, 50.0).pass());
        assert!(gate(floor + 0.5, 1.0, 50.0).pass());
        assert!(!gate(floor - 0.01, 1.2, 50.0).pass());
        assert!(!gate(1.0, 1.2, 50.0).pass());
        // Every SWAR kernel must at least match its scalar reference:
        // the historical 0.83x pack regression fails the gate.
        assert!(!gate(floor, 0.83, 50.0).pass());
        assert_eq!(BenchGate::KERNEL_SPEEDUP_FLOOR, 1.0);
        // The linear embedder must stay an order of magnitude ahead.
        assert_eq!(BenchGate::EMBED_SPEEDUP_FLOOR, 10.0);
        assert!(gate(floor, 1.2, 10.0).pass());
        assert!(!gate(floor, 1.2, 9.9).pass());
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

    #[test]
    fn kernel_rows_have_required_fields() {
        // A schema check over one pass per side: the timed workload runs
        // in `runtime_bench --check` on the release binary.
        let (rows, min_speedup, min_kernel) = kernel_bench(1, 1);
        let text = rows.pretty();
        for key in [
            "label_pack_4bit",
            "label_pack_16bit",
            "label_pack_32bit",
            "scalar_seconds",
            "swar_seconds",
            "speedup",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        assert!(!text.contains("lanebits"));
        assert!(min_speedup.is_finite() && min_speedup > 0.0);
        assert!(text.contains(min_kernel));
    }
}
