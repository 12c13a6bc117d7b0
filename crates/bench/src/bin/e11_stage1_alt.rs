//! Prints the e11 experiment table.
fn main() {
    planartest_bench::e11_stage1_alt();
}
