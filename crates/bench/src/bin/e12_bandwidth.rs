//! Prints the e12 experiment table.
fn main() {
    planartest_bench::e12_bandwidth();
}
