//! Prints the e9 experiment table.
fn main() {
    planartest_bench::e9_hereditary();
}
