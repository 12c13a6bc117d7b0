//! Prints the e7 experiment table.
fn main() {
    planartest_bench::e7_lowerbound();
}
