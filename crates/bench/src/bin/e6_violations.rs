//! Prints the e6 table: violating-edge counts, including the Claim 10
//! refutation at scale (the 7-node counterexample is pinned by
//! `crates/core/tests/claim10_refutation.rs`).
fn main() {
    planartest_bench::e6_violations();
}
