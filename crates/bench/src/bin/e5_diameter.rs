//! Prints the e5 experiment table.
fn main() {
    planartest_bench::e5_diameter();
}
