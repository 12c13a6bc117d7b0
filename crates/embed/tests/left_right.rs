//! The left-right embedder against the Demoucron oracle, and on inputs
//! deep enough to overflow a recursive DFS.

use planartest_embed::{check_planarity, demoucron, PlanarityCheck};
use planartest_graph::generators::{nonplanar, planar};
use planartest_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 2000 seeded sparse `G(n, p)` graphs, `n ∈ [6, 40)`, at average degree
/// 2.6 — close enough to the planarity threshold that both verdicts are
/// common. Left-right must agree with Demoucron on every verdict and
/// every planar answer must verify.
#[test]
fn agrees_with_demoucron_on_a_gnp_sweep() {
    const GRAPHS: u64 = 2000;
    let mut planar_count = 0u64;
    for seed in 0..GRAPHS {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(6..40usize);
        let g = nonplanar::gnp(n, 2.6 / (n as f64 - 1.0), &mut rng).graph;
        let oracle = demoucron::is_planar(&g);
        match check_planarity(&g) {
            PlanarityCheck::Planar(rot) => {
                assert!(oracle, "seed {seed}: left-right accepts a non-planar graph");
                assert!(rot.is_planar_embedding(&g), "seed {seed}: bad rotation");
                planar_count += 1;
            }
            PlanarityCheck::NonPlanar => {
                assert!(!oracle, "seed {seed}: left-right rejects a planar graph");
            }
        }
    }
    // Neither verdict may be rare, or the agreement check is vacuous.
    let floor = GRAPHS / 5;
    assert!(
        planar_count >= floor && GRAPHS - planar_count >= floor,
        "{planar_count} of {GRAPHS} planar: the sweep no longer exercises both verdicts"
    );
}

/// Embeds `g` on a fresh thread with the std default 2 MiB stack, the
/// stack every engine pass runs on.
fn embeds_on_a_small_stack(g: Graph) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let rot = check_planarity(&g).into_rotation().expect("planar");
            assert_eq!(rot.genus(&g), 0);
        })
        .expect("spawn")
        .join()
        .expect("the embedder must not overflow a 2 MiB stack");
}

#[test]
fn a_long_cycle_embeds_without_recursion() {
    embeds_on_a_small_stack(planar::cycle(200_000).graph);
}

#[test]
fn a_long_ladder_embeds_without_recursion() {
    embeds_on_a_small_stack(planar::grid(2, 100_000).graph);
}
