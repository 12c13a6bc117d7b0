//! Prints the e10 experiment table.
fn main() {
    planartest_bench::e10_spanner();
}
