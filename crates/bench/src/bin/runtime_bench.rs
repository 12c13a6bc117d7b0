//! Runtime benchmark (serial engine, tester, trial sweep, batched
//! sweep, embedders, prepare scaling); writes `BENCH_runtime.json`. Set
//! `PLANARTEST_QUICK=1` for CI-sized runs, `PLANARTEST_THREADS=k` to
//! cap the trial sweep's worker pool.
//!
//! With `--check`, exits non-zero when the regression gate fails — the
//! batched Monte-Carlo acceptance sweep dropping below its
//! batched-vs-sequential floor ([`BenchGate::BATCH_SPEEDUP_FLOOR`]),
//! the left-right embedder falling below its floor over Demoucron
//! ([`BenchGate::EMBED_SPEEDUP_FLOOR`]), or the tester's prepare at
//! `phases: 0` growing in per-node time by
//! [`BenchGate::PREPARE_GROWTH_CEILING`] or more from a grid to one 4x
//! larger. This is the CI performance gate.
//!
//! [`BenchGate::BATCH_SPEEDUP_FLOOR`]: planartest_bench::BenchGate::BATCH_SPEEDUP_FLOOR
//! [`BenchGate::EMBED_SPEEDUP_FLOOR`]: planartest_bench::BenchGate::EMBED_SPEEDUP_FLOOR
//! [`BenchGate::PREPARE_GROWTH_CEILING`]: planartest_bench::BenchGate::PREPARE_GROWTH_CEILING

use planartest_bench::BenchGate;

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let gate = planartest_bench::runtime_bench();
    let summary = format!(
        "batched sweep {:.3}x over sequential ({} trials, floor {:.2}), left-right {:.1}x \
         over Demoucron (floor {:.1}), prepare per-node growth {:.2}x at phases 0 (ceiling {:.1})",
        gate.batch_speedup,
        gate.batch_trials,
        BenchGate::BATCH_SPEEDUP_FLOOR,
        gate.embed_speedup,
        BenchGate::EMBED_SPEEDUP_FLOOR,
        gate.prepare_growth,
        BenchGate::PREPARE_GROWTH_CEILING
    );
    if check && !gate.pass() {
        eprintln!("benchmark gate FAILED: {summary}");
        std::process::exit(1);
    }
    if check {
        println!("benchmark gate passed: {summary}");
    }
}
