//! E15 — the serving bench; writes `BENCH_load.json` and the
//! `BENCH_trace.ldjson` event log.
//!
//! `--quick` forces CI-sized sweeps (same as setting
//! `PLANARTEST_QUICK`); `--check` turns the gate into an exit code and
//! names every failed clause (`LoadGate::clauses`; each value and its
//! bound is in the `gate` section of `BENCH_load.json`).

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    if std::env::args().any(|a| a == "--quick") {
        std::env::set_var("PLANARTEST_QUICK", "1");
    }
    let gate = planartest_bench::load_bench();
    if !check {
        return;
    }
    let failed: Vec<&str> = gate
        .clauses()
        .iter()
        .filter(|&&(_, held)| !held)
        .map(|&(name, _)| name)
        .collect();
    if failed.is_empty() {
        println!("load gate passed: {gate:?}");
    } else {
        eprintln!("load gate FAILED on {}: {gate:?}", failed.join(", "));
        std::process::exit(1);
    }
}
