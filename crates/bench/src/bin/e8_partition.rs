//! Prints the e8 experiment table.
fn main() {
    planartest_bench::e8_partition();
}
