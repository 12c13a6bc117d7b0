//! Runtime benchmark (serial engine, tester, trial sweep, batched
//! sweep, label-pack kernels, embedders); writes `BENCH_runtime.json`. Set
//! `PLANARTEST_QUICK=1` for CI-sized runs, `PLANARTEST_THREADS=k` to
//! cap the trial sweep's worker pool.
//!
//! With `--check`, exits non-zero when the regression gate fails — the
//! batched Monte-Carlo acceptance sweep dropping below its
//! batched-vs-sequential floor ([`BenchGate::BATCH_SPEEDUP_FLOOR`]),
//! *any* SWAR label-pack kernel losing to its scalar reference
//! ([`BenchGate::KERNEL_SPEEDUP_FLOOR`]), or the left-right embedder
//! falling below its floor over Demoucron
//! ([`BenchGate::EMBED_SPEEDUP_FLOOR`]). This is the CI performance
//! gate.
//!
//! [`BenchGate::BATCH_SPEEDUP_FLOOR`]: planartest_bench::BenchGate::BATCH_SPEEDUP_FLOOR
//! [`BenchGate::KERNEL_SPEEDUP_FLOOR`]: planartest_bench::BenchGate::KERNEL_SPEEDUP_FLOOR
//! [`BenchGate::EMBED_SPEEDUP_FLOOR`]: planartest_bench::BenchGate::EMBED_SPEEDUP_FLOOR

use planartest_bench::BenchGate;

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let gate = planartest_bench::runtime_bench();
    let summary = format!(
        "batched sweep {:.3}x over sequential ({} trials, floor {:.2}), worst kernel `{}` \
         {:.3}x vs scalar (floor {:.2}), left-right {:.1}x over Demoucron (floor {:.1})",
        gate.batch_speedup,
        gate.batch_trials,
        BenchGate::BATCH_SPEEDUP_FLOOR,
        gate.min_kernel,
        gate.min_kernel_speedup,
        BenchGate::KERNEL_SPEEDUP_FLOOR,
        gate.embed_speedup,
        BenchGate::EMBED_SPEEDUP_FLOOR
    );
    if check && !gate.pass() {
        eprintln!("benchmark gate FAILED: {summary}");
        std::process::exit(1);
    }
    if check {
        println!("benchmark gate passed: {summary}");
    }
}
