//! Prints every experiment table (e1–e12), then the runtime benchmark,
//! in one run.
//! Set `PLANARTEST_QUICK=1` for CI-sized sweeps.
fn main() {
    planartest_bench::run_all();
}
