//! Property-based tests for the graph substrate.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use planartest_graph::algo::arboricity::{degeneracy, density_lower_bound, peel};
use planartest_graph::algo::bfs::{component_diameter, distances, BfsTree};
use planartest_graph::algo::bipartite::check_bipartite;
use planartest_graph::algo::components::Components;
use planartest_graph::algo::girth::{break_short_cycles, girth};
use planartest_graph::disk::{self, DiskError};
use planartest_graph::generators::{nonplanar, planar, spec};
use planartest_graph::io::{self, ParseGraphError};
use planartest_graph::{Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..40,
        prop::collection::vec((0usize..40, 0usize..40), 0..120),
    )
        .prop_map(|(n, pairs)| {
            let mut b = planartest_graph::GraphBuilder::new(n);
            for (u, v) in pairs {
                let (u, v) = (u % n, v % n);
                if u != v {
                    b.add_edge(u, v).expect("in range");
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Edge-list serialization round-trips.
    #[test]
    fn io_roundtrip(g in arb_graph()) {
        let text = io::to_edge_list(&g);
        let h = io::from_edge_list(&text).expect("own output parses");
        prop_assert_eq!(g, h);
    }

    /// CSR layout invariants against a naive reference adjacency built
    /// from the edge list: per-row sortedness (strict — no duplicate
    /// neighbours), degrees, `max_degree`, and `has_edge`/`edge_between`
    /// symmetry across the builder/CSR boundary.
    #[test]
    fn csr_matches_reference_adjacency(g in arb_graph()) {
        let mut reference: Vec<Vec<usize>> = vec![Vec::new(); g.n()];
        for (u, v) in g.edges() {
            reference[u.index()].push(v.index());
            reference[v.index()].push(u.index());
        }
        for row in &mut reference {
            row.sort_unstable();
        }
        let mut max_deg = 0;
        for v in g.nodes() {
            let row: Vec<usize> = g.neighbors(v).iter().map(|&(w, _)| w.index()).collect();
            prop_assert!(
                row.windows(2).all(|p| p[0] < p[1]),
                "row {} not strictly sorted: {:?}",
                v,
                row
            );
            prop_assert_eq!(&row, &reference[v.index()]);
            prop_assert_eq!(g.degree(v), row.len());
            max_deg = max_deg.max(row.len());
            for &(w, e) in g.neighbors(v) {
                prop_assert_eq!(g.edge_between(v, w), Some(e));
                prop_assert_eq!(g.edge_between(w, v), Some(e));
                prop_assert!(g.has_edge(v, w) && g.has_edge(w, v));
            }
        }
        prop_assert_eq!(g.max_degree(), max_deg);
        // Negative membership agrees with the reference (first few rows
        // keep the quadratic probe cheap).
        for u in g.nodes().take(12) {
            for w in g.nodes().take(12) {
                let expected = u != w && reference[u.index()].binary_search(&w.index()).is_ok();
                prop_assert_eq!(g.has_edge(u, w), expected);
            }
        }
    }

    /// Handshake lemma: degree sum = 2m, and adjacency is symmetric.
    #[test]
    fn degrees_consistent(g in arb_graph()) {
        let sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.m());
        for v in g.nodes() {
            for &(w, e) in g.neighbors(v) {
                prop_assert!(g.neighbors(w).iter().any(|&(x, f)| x == v && f == e));
            }
        }
    }

    /// BFS levels differ by at most 1 across any edge, and distances obey
    /// the triangle inequality through any intermediate vertex.
    #[test]
    fn bfs_levels_lipschitz(g in arb_graph()) {
        let t = BfsTree::build(&g, NodeId::new(0));
        for (u, v) in g.edges() {
            if let (Some(a), Some(b)) = (t.level(u), t.level(v)) {
                prop_assert!(a.abs_diff(b) <= 1, "edge levels {a} vs {b}");
            } else {
                prop_assert_eq!(t.level(u).is_some(), t.level(v).is_some());
            }
        }
        let d = distances(&g, NodeId::new(0));
        for v in g.nodes() {
            prop_assert_eq!(d[v.index()], t.level(v));
        }
    }

    /// Component counts: n - (number of tree edges over all BFS forests).
    #[test]
    fn components_match_bfs(g in arb_graph()) {
        let cc = Components::build(&g);
        let mut seen = vec![false; g.n()];
        let mut comps = 0;
        for v in g.nodes() {
            if !seen[v.index()] {
                comps += 1;
                let t = BfsTree::build(&g, v);
                for &w in t.order() {
                    seen[w.index()] = true;
                    prop_assert_eq!(cc.component_of(w), cc.component_of(v));
                }
            }
        }
        prop_assert_eq!(cc.count(), comps);
    }

    /// Degeneracy bounds: density lower bound / 2 <= ... <= max degree,
    /// and planar graphs have degeneracy <= 5.
    #[test]
    fn degeneracy_bounds(seed in 0u64..4000, n in 4usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = planar::apollonian(n.max(3), &mut rng).graph;
        let (d, order) = degeneracy(&g);
        prop_assert!(d <= 5, "planar degeneracy {d} > 5");
        prop_assert!(d >= density_lower_bound(&g).saturating_sub(1) / 2);
        prop_assert_eq!(order.len(), g.n());
    }

    /// Peeling with alpha=3 empties planar graphs within O(log n) rounds.
    #[test]
    fn peeling_terminates_on_planar(seed in 0u64..4000, n in 4usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = planar::random_planar(n.max(3), 0.8, &mut rng).graph;
        let rounds = 4 * (g.n().max(2) as u32).ilog2() + 4;
        let out = peel(&g, 3, rounds);
        prop_assert_eq!(out.survivors, 0);
    }

    /// Girth: break_short_cycles really raises girth above the bound.
    #[test]
    fn short_cycle_breaking(seed in 0u64..4000, bound in 4u32..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = nonplanar::gnp(60, 5.0 / 60.0, &mut rng).graph;
        let (h, _removed) = break_short_cycles(&g, bound);
        if let Some(girth) = girth(&h) {
            prop_assert!(girth >= bound, "girth {girth} < bound {bound}");
        }
        prop_assert!(h.m() <= g.m());
    }

    /// Bipartite check agrees with odd-girth.
    #[test]
    fn bipartite_iff_no_odd_cycle(g in arb_graph()) {
        let bip = check_bipartite(&g).is_bipartite();
        // Exhaustive check via girth of odd cycles: use 2-colouring as
        // ground truth on small graphs by brute force over components.
        let ground = brute_force_bipartite(&g);
        prop_assert_eq!(bip, ground);
    }

    /// Trees: diameter equals longest path; girth is None.
    #[test]
    fn tree_properties(seed in 0u64..4000, n in 2usize..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = planar::random_tree(n, &mut rng).graph;
        prop_assert_eq!(t.m(), n - 1);
        prop_assert!(girth(&t).is_none());
        let d = component_diameter(&t, NodeId::new(0));
        prop_assert!((d as usize) < n);
    }

    /// The one-pass part split equals one `induced_subgraph` per label,
    /// graph and id map, in ascending label order. `labels` up to `n`
    /// makes many singleton parts; a label need not lie in its own part.
    #[test]
    fn induced_parts_match_per_part_induced_subgraphs(
        g in arb_graph(),
        raw in prop::collection::vec(0usize..40, 40..41),
        labels in 1usize..41,
    ) {
        let labels = labels.min(g.n());
        let part_of: Vec<NodeId> =
            g.nodes().map(|v| NodeId::new(raw[v.index()] % labels)).collect();
        let mut expected: Vec<NodeId> = part_of.clone();
        expected.sort_unstable();
        expected.dedup();
        let parts: Vec<_> = g.induced_parts(&part_of).collect();
        prop_assert_eq!(parts.iter().map(|p| p.0).collect::<Vec<_>>(), expected);
        for (label, sub, orig_of) in &parts {
            let (want, want_orig) = g.induced_subgraph(|v| part_of[v.index()] == *label);
            prop_assert_eq!(sub, &want);
            prop_assert_eq!(orig_of, &want_orig);
            for v in sub.nodes() {
                prop_assert_eq!(sub.neighbors(v), want.neighbors(v));
            }
        }
    }
}

/// A scratch `.csr` path unique per proptest case (the proptests run on
/// parallel test threads, so a shared fixed path would race).
fn scratch_csr() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "planartest-proptest-{}-{id}.csr",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On-disk CSR round-trip over arbitrary graphs: `save` →
    /// `load_mapped`/`load_resident` reproduces the graph bit for bit
    /// (structure, fingerprint, every adjacency row), and re-saving the
    /// mapped load reproduces the file bytes exactly — the format is
    /// canonical, so content-addressing by fingerprint is sound.
    #[test]
    fn disk_roundtrip_bit_identical(g in arb_graph()) {
        let path = scratch_csr();
        let fp = disk::save(&g, &path).expect("save");
        prop_assert_eq!(fp, g.fingerprint());
        let mapped = disk::load_mapped(&path).expect("mapped load");
        let resident = disk::load_resident(&path).expect("resident load");
        prop_assert!(mapped.is_mapped());
        prop_assert!(!resident.is_mapped());
        for h in [&mapped, &resident] {
            prop_assert_eq!(h, &g);
            prop_assert_eq!(h.fingerprint(), g.fingerprint());
            for v in g.nodes() {
                prop_assert_eq!(h.neighbors(v), g.neighbors(v));
            }
        }
        let bytes = std::fs::read(&path).expect("read back");
        let repath = scratch_csr();
        disk::save(&mapped, &repath).expect("re-save mapped load");
        prop_assert_eq!(std::fs::read(&repath).expect("read re-save"), bytes);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&repath);
    }

    /// Corrupting any single byte of a saved CSR never panics the
    /// loader: it either surfaces a typed [`DiskError`] or — only when
    /// the flip landed in bytes with no semantic weight — still yields
    /// the original graph. A flip that silently *changes* the graph
    /// would be a checksum hole.
    #[test]
    fn disk_corruption_is_typed_never_silent(
        g in arb_graph(),
        pos in 0usize..4096,
        xor in 1u32..256,
    ) {
        let xor = xor as u8;
        let path = scratch_csr();
        disk::save(&g, &path).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        let pos = pos % bytes.len();
        bytes[pos] ^= xor;
        std::fs::write(&path, &bytes).expect("rewrite");
        match disk::load_mapped(&path) {
            Ok(h) => prop_assert_eq!(h, g, "corruption at byte {} went undetected", pos),
            Err(
                DiskError::BadMagic
                | DiskError::WrongEndian
                | DiskError::BadVersion { .. }
                | DiskError::Truncated { .. }
                | DiskError::Corrupt { .. }
                | DiskError::FingerprintMismatch { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Truncating a saved CSR at any prefix length is always a typed
    /// error (never a panic, never a silently short graph).
    #[test]
    fn disk_truncation_is_typed(g in arb_graph(), cut in 0usize..4096) {
        let path = scratch_csr();
        disk::save(&g, &path).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        let cut = cut % bytes.len();
        std::fs::write(&path, &bytes[..cut]).expect("truncate");
        let err = disk::load_mapped(&path).expect_err("truncated file must not load");
        prop_assert!(
            matches!(
                err,
                DiskError::Truncated { .. } | DiskError::BadMagic | DiskError::WrongEndian
            ),
            "unexpected error for cut at {}: {:?}",
            cut,
            err
        );
        let _ = std::fs::remove_file(&path);
    }
}

fn brute_force_bipartite(g: &Graph) -> bool {
    // BFS 2-colouring is itself the standard algorithm; as an independent
    // ground truth, try all 2^n colourings for tiny graphs, else trust a
    // DFS colouring implemented differently.
    if g.n() <= 12 {
        'outer: for mask in 0u32..(1 << g.n()) {
            for (u, v) in g.edges() {
                if (mask >> u.index()) & 1 == (mask >> v.index()) & 1 {
                    continue 'outer;
                }
            }
            return true;
        }
        false
    } else {
        // DFS-based colouring.
        let mut color = vec![None; g.n()];
        for s in g.nodes() {
            if color[s.index()].is_some() {
                continue;
            }
            color[s.index()] = Some(false);
            let mut stack = vec![s];
            while let Some(u) = stack.pop() {
                let cu = color[u.index()].expect("pushed nodes are coloured");
                for &(w, _) in g.neighbors(u) {
                    match color[w.index()] {
                        None => {
                            color[w.index()] = Some(!cu);
                            stack.push(w);
                        }
                        Some(cw) if cw == cu => return false,
                        Some(_) => {}
                    }
                }
            }
        }
        true
    }
}

/// A closed-form spec at small parameters: family `f` (one of the ten)
/// with raw arguments `a`, `b` folded into its valid range.
fn closed_spec(f: usize, a: usize, b: usize) -> String {
    match f {
        0 => format!("path({})", 1 + a),
        1 => format!("cycle({})", 3 + a),
        2 => format!("star({})", 1 + a),
        3 => format!("grid({},{})", 1 + a % 12, 1 + b % 12),
        4 => format!("tri_grid({},{})", 1 + a % 12, 1 + b % 12),
        5 => format!("complete({})", 1 + a % 16),
        6 => format!("complete_bipartite({},{})", 1 + a % 8, 1 + b % 8),
        7 => format!("k5_chain({})", 1 + a % 8),
        8 => format!("torus({},{})", 3 + a % 8, 3 + b % 8),
        _ => format!("hypercube({})", 1 + a % 8),
    }
}

/// An edge-list document that mixes well-formed lines with everything
/// the format tolerates or refuses: comments, blank lines, trailing
/// tokens, a missing or malformed header, malformed edge lines, surplus
/// and missing edge lines, self-loops and out-of-range ids. Most edge
/// lines name two distinct nodes below `n`, so many documents parse.
fn edge_list_doc(header: u8, n: usize, m: usize, lines: &[(u8, usize, usize)]) -> String {
    let mut text = String::new();
    match header {
        0 => {}
        1 => text.push_str("x y\n"),
        2 => text.push_str(&format!("{n} {m} trailing tokens\n")),
        3 => text.push_str(&format!("# comment\n\n{n} {m}\n")),
        _ => text.push_str(&format!("{n} {m}\n")),
    }
    for &(kind, u, v) in lines {
        let (a, b) = if n >= 2 {
            let a = u % n;
            (a, (a + 1 + v % (n - 1)) % n)
        } else {
            (u, v)
        };
        let line = match kind {
            0 => "# comment".to_string(),
            1 => String::new(),
            2 => format!("{a} {b} 7 tail"),
            3 => format!("{u} x"),
            4 => format!("  {a}\t{b}  "),
            5 => format!("{} {b}", u + n),
            6 => format!("{a} {a}"),
            _ => format!("{a} {b}"),
        };
        text.push_str(&line);
        text.push('\n');
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every closed-form family reads one definition on both ingest
    /// routes: `parse` materializes it and `streamable` streams it
    /// through `stream_to_disk`, and the two agree on the graph, the
    /// fingerprint, `n`, `m` and the status.
    #[test]
    fn closed_form_specs_build_the_same_graph_on_both_routes(
        f in 0usize..10,
        a in 0usize..40,
        b in 0usize..40,
    ) {
        let text = closed_spec(f, a, b);
        let parsed = spec::parse(&text).expect("valid spec");
        let mut streamed = spec::streamable(&text).expect("valid spec").expect("closed form");
        prop_assert_eq!(streamed.n(), parsed.graph.n(), "{}", text);
        prop_assert_eq!(streamed.m(), parsed.graph.m(), "{}", text);
        prop_assert_eq!(streamed.status(), parsed.status, "{}", text);
        let path = scratch_csr();
        let stats = disk::stream_to_disk(&mut streamed, &path).expect("stream");
        prop_assert_eq!(stats.fingerprint, parsed.graph.fingerprint(), "{}", text);
        let mapped = disk::load_mapped(&path).expect("load");
        prop_assert_eq!(&mapped, &parsed.graph, "{}", text);
        for v in mapped.nodes() {
            prop_assert_eq!(mapped.neighbors(v), parsed.graph.neighbors(v), "{}", text);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// `from_edge_list` and `stream_to_disk` read an edge-list document
    /// with one parser: over the same text they build the same graph,
    /// or fail with the same error.
    #[test]
    fn edge_list_routes_accept_the_same_documents(
        header in 0u8..8,
        n in 0usize..8,
        m in 0usize..8,
        lines in prop::collection::vec((0u8..16, 0usize..9, 0usize..9), 0..14),
    ) {
        let text = edge_list_doc(header, n, m, &lines);
        let in_memory = io::from_edge_list(&text);
        let path = scratch_csr();
        let on_disk = io::EdgeList::parse(&text)
            .map_err(DiskError::from)
            .and_then(|mut source| disk::stream_to_disk(&mut source, &path))
            .map_err(|e| match e {
                DiskError::Parse(e) => e,
                DiskError::Graph(e) => ParseGraphError::Graph(e),
                other => panic!("unexpected stream error {other:?} for {text:?}"),
            });
        match (in_memory, on_disk) {
            (Ok(g), Ok(stats)) => {
                prop_assert_eq!(stats.fingerprint, g.fingerprint(), "{:?}", text);
                prop_assert_eq!(disk::load_mapped(&path).expect("load"), g, "{:?}", text);
            }
            (Err(e), Err(d)) => prop_assert_eq!(e, d, "{:?}", text),
            (mem, disk) => prop_assert!(false, "routes disagree on {:?}: {:?} vs {:?}", text, mem, disk),
        }
        let _ = std::fs::remove_file(&path);
    }
}
