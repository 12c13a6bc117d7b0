//! Prints the e1 experiment table.
fn main() {
    planartest_bench::e1_correctness();
}
