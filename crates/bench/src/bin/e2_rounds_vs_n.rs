//! Prints the e2 experiment table.
fn main() {
    planartest_bench::e2_rounds_vs_n();
}
