//! Prints the e3 experiment table.
fn main() {
    planartest_bench::e3_rounds_vs_eps();
}
