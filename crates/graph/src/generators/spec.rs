//! Textual generator specs: `"tri_grid(24,24)"` → a [`Certified`] graph.
//!
//! The query service ingests graphs either as raw edge lists
//! ([`crate::io`]) or as *generator specs* — compact strings naming a
//! family from the certified corpus plus its parameters. A spec is
//!
//! ```text
//! name                     e.g.  hypercube(7)
//! name(arg, arg, ...)      e.g.  random_planar(400, 0.7, seed=3)
//! ```
//!
//! with positional numeric arguments per family and an optional trailing
//! `seed=K` for the randomized families (default seed 0). The argument
//! count comes from the family's signature in [`families`].
//!
//! **Determinism contract:** parsing the same spec string always yields
//! the same graph, bit for bit — randomized families draw from
//! `StdRng::seed_from_u64(seed)` and nothing else — so a spec is as good
//! a cache identity as the edge list it expands to. The service registry
//! still fingerprints the *expanded* graph, making the two ingest routes
//! collide when they describe the same graph.
//!
//! **One definition per closed-form family.** The ten non-randomized
//! families (path, cycle, star, grid, tri_grid, complete,
//! complete_bipartite, k5_chain, torus, hypercube) are each defined once,
//! with their validation, `(n, m)`, status, generator name and edge
//! stream. [`parse`] materializes that definition and [`streamable`]
//! streams it, so the in-memory and on-disk routes cannot drift apart.
//! [`parse`] keeps an arm only for the nine randomized families.
//!
//! **Size rule.** A family's node count must fit the graph's `u32` node
//! ids (`n ≤ 2³²`), and a closed-form family's `2m` must fit its `u32`
//! CSR offsets. Sizes are computed with checked arithmetic before
//! anything is allocated, and an instance that breaks the rule, or
//! overflows on the way, is [`SpecError::InvalidParameters`]. This says
//! what the graph types can represent; it is not an admission limit.

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::generators::closed::{edge_count, node_count, ClosedForm, Family};
use crate::generators::{nonplanar, planar, Certified, PlanarityStatus};

/// Error parsing or instantiating a generator spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec was not of the form `name` or `name(args)`.
    Malformed,
    /// The family name is not in the corpus.
    UnknownFamily {
        /// The name that failed to resolve.
        name: String,
    },
    /// Wrong number of positional arguments for the family.
    WrongArity {
        /// The family name.
        name: &'static str,
        /// Arguments the family takes (for the error message).
        expected: &'static str,
        /// Number of positional arguments found.
        found: usize,
    },
    /// An argument failed to parse as a number.
    BadArgument {
        /// 1-based position of the offending argument.
        position: usize,
    },
    /// The family's own validation rejected the parameters (the panic
    /// message of the underlying generator, caught at parse time), or
    /// the instance breaks the size rule (see the [module docs](self)).
    InvalidParameters {
        /// The family name.
        name: &'static str,
        /// What the family requires.
        reason: &'static str,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Malformed => f.write_str("spec must be `name` or `name(args)`"),
            SpecError::UnknownFamily { name } => write!(f, "unknown generator family `{name}`"),
            SpecError::WrongArity {
                name,
                expected,
                found,
            } => write!(f, "`{name}` takes ({expected}), got {found} argument(s)"),
            SpecError::BadArgument { position } => {
                write!(f, "argument {position} is not a number")
            }
            SpecError::InvalidParameters { name, reason } => {
                write!(f, "invalid parameters for `{name}`: {reason}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// One corpus family: its spec shape and what the construction certifies.
///
/// [`families`] lists these for documentation, CLI discovery and the
/// README corpus table.
#[derive(Debug, Clone, Copy)]
pub struct FamilyInfo {
    /// Spec name.
    pub name: &'static str,
    /// Positional signature, e.g. `"n, keep"`.
    pub args: &'static str,
    /// Whether the family accepts a `seed=` argument (randomized). The
    /// other families are closed-form, and [`streamable`].
    pub randomized: bool,
    /// `true` planar-by-construction, `false` non-planar corpus.
    pub planar: bool,
    /// Where the certified far-fraction (or planarity) comes from.
    pub certification: &'static str,
}

/// The full spec-addressable corpus.
#[must_use]
pub fn families() -> &'static [FamilyInfo] {
    const FAMILIES: &[FamilyInfo] = &[
        FamilyInfo {
            name: "path",
            args: "n",
            randomized: false,
            planar: true,
            certification: "planar by construction (tree)",
        },
        FamilyInfo {
            name: "cycle",
            args: "n",
            randomized: false,
            planar: true,
            certification: "planar by construction (outerplanar)",
        },
        FamilyInfo {
            name: "star",
            args: "n",
            randomized: false,
            planar: true,
            certification: "planar by construction (tree)",
        },
        FamilyInfo {
            name: "grid",
            args: "rows, cols",
            randomized: false,
            planar: true,
            certification: "planar by construction (grid drawing)",
        },
        FamilyInfo {
            name: "tri_grid",
            args: "rows, cols",
            randomized: false,
            planar: true,
            certification: "planar by construction (one diagonal per cell)",
        },
        FamilyInfo {
            name: "random_tree",
            args: "n",
            randomized: true,
            planar: true,
            certification: "planar by construction (tree)",
        },
        FamilyInfo {
            name: "apollonian",
            args: "n",
            randomized: true,
            planar: true,
            certification: "planar by construction (stacked triangulation)",
        },
        FamilyInfo {
            name: "random_planar",
            args: "n, keep",
            randomized: true,
            planar: true,
            certification: "planar by construction (subgraph of apollonian)",
        },
        FamilyInfo {
            name: "outerplanar",
            args: "n",
            randomized: true,
            planar: true,
            certification: "planar by construction (triangulated polygon)",
        },
        FamilyInfo {
            name: "road_network",
            args: "rows, cols",
            randomized: true,
            planar: true,
            certification: "planar by construction (grid + safe diagonals)",
        },
        FamilyInfo {
            name: "complete",
            args: "n",
            randomized: false,
            planar: false,
            certification: "Euler excess m − (3n − 6)",
        },
        FamilyInfo {
            name: "complete_bipartite",
            args: "a, b",
            randomized: false,
            planar: false,
            certification: "Euler excess (Unknown when it vanishes, e.g. K3,3)",
        },
        FamilyInfo {
            name: "k5_chain",
            args: "tiles",
            randomized: false,
            planar: false,
            certification: "packing bound: one removal per disjoint K5 tile",
        },
        FamilyInfo {
            name: "gnp",
            args: "n, p",
            randomized: true,
            planar: false,
            certification: "Euler excess (vanishes for sparse p)",
        },
        FamilyInfo {
            name: "near_regular",
            args: "n, d",
            randomized: true,
            planar: false,
            certification: "Euler excess (constant fraction for d ≥ 7)",
        },
        FamilyInfo {
            name: "planar_plus_chords",
            args: "n, k",
            randomized: true,
            planar: false,
            certification: "exact: k chords over a maximal planar base",
        },
        FamilyInfo {
            name: "torus",
            args: "rows, cols",
            randomized: false,
            planar: false,
            certification: "none (non-planar but Unknown distance)",
        },
        FamilyInfo {
            name: "hypercube",
            args: "d",
            randomized: false,
            planar: false,
            certification: "Euler excess (positive for d ≥ 7)",
        },
        FamilyInfo {
            name: "social_overlay",
            args: "n, extra_per_node",
            randomized: true,
            planar: false,
            certification: "Euler excess (grows with the overlay density)",
        },
    ];
    FAMILIES
}

/// One parsed argument: every number is carried as `f64` and narrowed
/// per family (usize parameters must be non-negative integers).
fn parse_args(inner: &str) -> Result<(Vec<f64>, u64), SpecError> {
    let mut positional = Vec::new();
    let mut seed = 0u64;
    if inner.trim().is_empty() {
        return Ok((positional, seed));
    }
    for (i, raw) in inner.split(',').enumerate() {
        let raw = raw.trim();
        if let Some(rest) = raw.strip_prefix("seed") {
            let rest = rest.trim_start();
            if let Some(v) = rest.strip_prefix('=') {
                seed = v
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| SpecError::BadArgument { position: i + 1 })?;
                continue;
            }
        }
        positional.push(
            raw.parse::<f64>()
                .map_err(|_| SpecError::BadArgument { position: i + 1 })?,
        );
    }
    Ok((positional, seed))
}

fn as_usize(x: f64, position: usize) -> Result<usize, SpecError> {
    if x.fract() == 0.0 && x >= 0.0 && x <= usize::MAX as f64 {
        Ok(x as usize)
    } else {
        Err(SpecError::BadArgument { position })
    }
}

/// Validates family preconditions up front so [`parse`] returns errors
/// instead of panicking inside the generator.
fn require(ok: bool, name: &'static str, reason: &'static str) -> Result<(), SpecError> {
    if ok {
        Ok(())
    } else {
        Err(SpecError::InvalidParameters { name, reason })
    }
}

/// Splits a spec into `(family, positional args, seed)` and checks the
/// argument count against the family's signature in [`families`] — the
/// shared grammar behind [`parse`] and [`streamable`].
fn split_spec(spec: &str) -> Result<(&'static FamilyInfo, Vec<f64>, u64), SpecError> {
    let spec = spec.trim();
    let (name, inner) = match spec.find('(') {
        Some(open) => {
            let close = spec.rfind(')').ok_or(SpecError::Malformed)?;
            if close != spec.len() - 1 || close < open {
                return Err(SpecError::Malformed);
            }
            (spec[..open].trim(), &spec[open + 1..close])
        }
        None => (spec, ""),
    };
    if name.is_empty() || !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
        return Err(SpecError::Malformed);
    }
    let (args, seed) = parse_args(inner)?;
    let family =
        families()
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| SpecError::UnknownFamily {
                name: name.to_string(),
            })?;
    if args.len() != family.args.split(',').count() {
        return Err(SpecError::WrongArity {
            name: family.name,
            expected: family.args,
            found: args.len(),
        });
    }
    Ok((family, args, seed))
}

/// The checked instance of a closed-form (non-randomized) family.
fn closed_form(family: &FamilyInfo, args: &[f64]) -> Result<ClosedForm, SpecError> {
    let args = args
        .iter()
        .enumerate()
        .map(|(i, &x)| as_usize(x, i + 1))
        .collect::<Result<Vec<_>, _>>()?;
    Family::from_spec(family.name, &args)
        .expect("every non-randomized family is closed-form")
        .check()
}

/// Parses and instantiates a generator spec (see the [module docs](self)
/// for the grammar, the determinism contract and the size rule).
///
/// # Errors
///
/// Returns a [`SpecError`] on unknown families, malformed or invalid
/// arguments; never panics on untrusted input.
///
/// # Example
///
/// ```
/// use planartest_graph::generators::spec;
///
/// let c = spec::parse("k5_chain(4)").unwrap();
/// assert_eq!(c.graph.n(), 20);
/// assert!(c.far_fraction() > 0.0);
/// // Same spec, same graph — specs are cache identities.
/// assert_eq!(
///     spec::parse("gnp(50, 0.1, seed=7)").unwrap().graph,
///     spec::parse("gnp(50, 0.1, seed=7)").unwrap().graph,
/// );
/// ```
pub fn parse(spec: &str) -> Result<Certified, SpecError> {
    let (family, args, seed) = split_spec(spec)?;
    if !family.randomized {
        return Ok(closed_form(family, &args)?.certified());
    }
    let name = family.name;
    let mut rng = StdRng::seed_from_u64(seed);
    let u = |i: usize| as_usize(args[i], i + 1);
    let nodes = |i: usize| node_count(name, Some(u(i)?));

    match name {
        "random_tree" => {
            let n = nodes(0)?;
            require(n > 0, name, "n > 0")?;
            edge_count(name, Some(n - 1))?;
            Ok(planar::random_tree(n, &mut rng))
        }
        "apollonian" => {
            let n = nodes(0)?;
            require(n >= 3, name, "n >= 3")?;
            edge_count(name, Some(3 * n - 6))?;
            Ok(planar::apollonian(n, &mut rng))
        }
        "random_planar" => {
            let n = nodes(0)?;
            let keep = args[1];
            require(n >= 3, name, "n >= 3")?;
            require((0.0..=1.0).contains(&keep), name, "keep in [0, 1]")?;
            // The triangulation it thins.
            edge_count(name, Some(3 * n - 6))?;
            Ok(planar::random_planar(n, keep, &mut rng))
        }
        "outerplanar" => {
            let n = nodes(0)?;
            require(n >= 3, name, "n >= 3")?;
            edge_count(name, Some(2 * n - 3))?;
            Ok(planar::maximal_outerplanar(n, &mut rng))
        }
        "road_network" => {
            let (r, c) = (u(0)?, u(1)?);
            require(r > 1 && c > 1, name, "at least a 2x2 grid")?;
            node_count(name, r.checked_mul(c))?;
            // At most a grid with one diagonal per cell; each term is
            // below r·c ≤ 2³².
            edge_count(name, Some(r * (c - 1) + c * (r - 1) + (r - 1) * (c - 1)))?;
            Ok(planar::road_network(r, c, &mut rng))
        }
        "gnp" => {
            let n = nodes(0)?;
            let p = args[1];
            require((0.0..=1.0).contains(&p), name, "p in [0, 1]")?;
            // The expected draws: p of the n(n − 1)/2 pairs.
            let pairs = n as f64 * (n as f64 - 1.0) / 2.0;
            edge_count(name, Some((p * pairs) as usize))?;
            Ok(nonplanar::gnp(n, p, &mut rng))
        }
        "near_regular" => {
            let (n, d) = (nodes(0)?, u(1)?);
            // One draw per pair of the n·d stubs.
            edge_count(name, n.checked_mul(d).map(|stubs| stubs / 2))?;
            require(d < n && (n * d) % 2 == 0, name, "n*d even and d < n")?;
            Ok(nonplanar::near_regular(n, d, &mut rng))
        }
        "planar_plus_chords" => {
            let (n, k) = (nodes(0)?, u(1)?);
            require(n >= 5, name, "n >= 5")?;
            require(
                k <= n * (n - 1) / 2 - (3 * n - 6),
                name,
                "k at most the number of non-edges",
            )?;
            edge_count(name, Some(3 * n - 6 + k))?;
            Ok(nonplanar::planar_plus_chords(n, k, &mut rng))
        }
        "social_overlay" => {
            let n = nodes(0)?;
            let x = args[1];
            require(n >= 9, name, "n >= 9")?;
            require(x >= 0.0, name, "non-negative overlay density")?;
            // The grid's 2·side·(side − 1) draws, then ⌊n·x⌋ random pairs
            // (an infinite or huge n·x saturates, and the sum overflows).
            let side = (n as f64).sqrt().ceil() as usize;
            edge_count(
                name,
                (2 * side * (side - 1)).checked_add((n as f64 * x) as usize),
            )?;
            Ok(nonplanar::social_overlay(n, x, &mut rng))
        }
        other => unreachable!("randomized family `{other}` has no generator arm"),
    }
}

/// A spec whose edges can be *streamed* — regenerated edge by edge, any
/// number of times, without materializing the graph.
///
/// This is the deterministic closed-form subset of the corpus (paths,
/// cycles, stars, grids, complete (bipartite) graphs, K5 chains, tori,
/// hypercubes): exactly the families whose edge set is a function of
/// the parameters alone, so `n ≫ 10^6` instances can be ingested
/// straight to disk by [`crate::disk::stream_to_disk`] in `O(n)` RAM.
/// It wraps the same family definition [`parse`] materializes, so the
/// streamed edge set, `n`, `m` and status are identical to the parsed
/// graph's, and fingerprints — and therefore cache identities — collide
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamableSpec(ClosedForm);

impl StreamableSpec {
    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.0.n
    }

    /// Number of distinct edges (known in closed form).
    #[must_use]
    pub fn m(&self) -> usize {
        self.0.m
    }

    /// The same certified planarity status [`parse`] would attach.
    #[must_use]
    pub fn status(&self) -> PlanarityStatus {
        self.0.status()
    }

    /// Streams every edge once through `emit`, stopping early on error.
    ///
    /// # Errors
    ///
    /// Only errors returned by `emit` itself.
    pub fn for_each_edge<E>(
        &self,
        emit: &mut dyn FnMut(usize, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        self.0.for_each_edge(emit)
    }
}

/// Parses a spec into its streamable form, if the family supports it.
///
/// `Ok(None)` means the spec names a randomized family with the right
/// number of arguments — callers fall back to [`parse`], which checks
/// the arguments themselves, and materialize. A closed-form spec is
/// checked exactly as [`parse`] checks it, so a `Some` here never
/// fails later.
///
/// # Errors
///
/// The same [`SpecError`]s as [`parse`] for the streamable families.
pub fn streamable(spec: &str) -> Result<Option<StreamableSpec>, SpecError> {
    let (family, args, _seed) = split_spec(spec)?;
    if family.randomized {
        return Ok(None);
    }
    closed_form(family, &args).map(|c| Some(StreamableSpec(c)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_parses_with_a_small_instance() {
        let samples = [
            "path(8)",
            "cycle(8)",
            "star(8)",
            "grid(3,4)",
            "tri_grid(3, 4)",
            "random_tree(16, seed=1)",
            "apollonian(12)",
            "random_planar(20, 0.7, seed=2)",
            "outerplanar(10)",
            "road_network(4, 4, seed=3)",
            "complete(6)",
            "complete_bipartite(3,3)",
            "k5_chain(3)",
            "gnp(30, 0.2, seed=4)",
            "near_regular(20, 4, seed=5)",
            "planar_plus_chords(12, 5, seed=6)",
            "torus(3,4)",
            "hypercube(4)",
            "social_overlay(16, 1.5, seed=7)",
        ];
        assert_eq!(samples.len(), families().len());
        for s in samples {
            let c = parse(s).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert!(c.graph.n() > 0, "{s}");
        }
    }

    #[test]
    fn deterministic_per_spec() {
        for s in ["gnp(40, 0.15, seed=9)", "apollonian(30, seed=2)"] {
            assert_eq!(parse(s).unwrap().graph, parse(s).unwrap().graph, "{s}");
        }
        // Different seeds give different graphs (with overwhelming
        // probability for these sizes — fixed seeds keep it exact).
        assert_ne!(
            parse("gnp(40, 0.5, seed=1)").unwrap().graph,
            parse("gnp(40, 0.5, seed=2)").unwrap().graph,
        );
    }

    #[test]
    fn malformed_specs_error_not_panic() {
        assert_eq!(parse("").unwrap_err(), SpecError::Malformed);
        assert_eq!(parse("grid(3,4").unwrap_err(), SpecError::Malformed);
        assert_eq!(parse("gr id(3,4)").unwrap_err(), SpecError::Malformed);
        assert!(matches!(
            parse("nope(3)"),
            Err(SpecError::UnknownFamily { .. })
        ));
        assert!(matches!(parse("path()"), Err(SpecError::WrongArity { .. })));
        assert!(matches!(
            parse("path(2, 3)"),
            Err(SpecError::WrongArity { .. })
        ));
        assert_eq!(
            parse("path(x)").unwrap_err(),
            SpecError::BadArgument { position: 1 }
        );
        assert_eq!(
            parse("gnp(30, 0.2, seed=x)").unwrap_err(),
            SpecError::BadArgument { position: 3 }
        );
        assert!(matches!(
            parse("cycle(2)"),
            Err(SpecError::InvalidParameters { .. })
        ));
        assert!(matches!(
            parse("gnp(30, 1.5)"),
            Err(SpecError::InvalidParameters { .. })
        ));
        // Fractional where an integer is required.
        assert_eq!(
            parse("path(2.5)").unwrap_err(),
            SpecError::BadArgument { position: 1 }
        );
        // Error display is human-usable.
        assert!(parse("path()").unwrap_err().to_string().contains("path"));
    }

    #[test]
    fn oversized_specs_are_typed_errors_before_allocating() {
        for s in [
            "grid(8589934592,8589934592)",
            "tri_grid(4294967296,4294967297)",
            "torus(4294967296,4294967296)",
            "complete(8589934593)",
            "complete_bipartite(4294967296,4294967296)",
            "k5_chain(3689348814741910324)",
            "gnp(4294967297, 0)",
            "gnp(100000, 1)",
            "near_regular(100000, 99998)",
            "social_overlay(9, 1e10)",
            "social_overlay(9, inf)",
            "random_tree(4294967296)",
            "apollonian(1000000000)",
        ] {
            let family = &s[..s.find('(').unwrap()];
            let err = parse(s).unwrap_err();
            assert!(
                matches!(err, SpecError::InvalidParameters { name, .. } if name == family),
                "{s}: {err:?}"
            );
            if !families().iter().any(|f| f.name == family && f.randomized) {
                assert_eq!(streamable(s).unwrap_err(), err, "{s}");
            }
        }
        // The offsets bound is exact: 2m = 2³² − 2 fits, 2m = 2³² does not.
        let star = streamable("star(2147483648)").unwrap().unwrap();
        assert_eq!((star.n(), star.m()), (1 << 31, (1 << 31) - 1));
        assert!(matches!(
            streamable("star(2147483649)"),
            Err(SpecError::InvalidParameters { name: "star", .. })
        ));
    }

    #[test]
    fn family_table_is_consistent() {
        for fam in families() {
            assert!(!fam.name.is_empty());
            assert!(!fam.args.is_empty());
            assert!(!fam.certification.is_empty());
        }
    }
}
