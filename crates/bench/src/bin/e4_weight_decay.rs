//! Prints the e4 experiment table.
fn main() {
    planartest_bench::e4_weight_decay();
}
