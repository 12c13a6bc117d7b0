//! Query and response types for the service layer.

use std::fmt;
use std::str::FromStr;

use planartest_core::applications::HereditaryOutcome;
use planartest_core::{TestOutcome, TesterConfig};
use planartest_graph::fingerprint::Fingerprint;
use planartest_graph::NodeId;
use planartest_sim::SimStats;

/// Which property a query tests. All three ride the same Stage-I
/// partition machinery (planarity is Theorem 1; cycle-freeness and
/// bipartiteness are the Corollary 16 applications).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Property {
    /// The full two-stage planarity tester.
    Planarity,
    /// Cycle-freeness on minor-free graphs (Corollary 16).
    CycleFreeness,
    /// Bipartiteness on minor-free graphs (Corollary 16).
    Bipartiteness,
}

impl Property {
    /// Wire name (`planarity` / `cycle_freeness` / `bipartiteness`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Property::Planarity => "planarity",
            Property::CycleFreeness => "cycle_freeness",
            Property::Bipartiteness => "bipartiteness",
        }
    }

    /// Whether the verdict depends on the configured RNG seed.
    ///
    /// Only the planarity tester samples (Stage II); the Corollary 16
    /// testers are fully deterministic, so their cache entries are not
    /// seed-striped.
    #[must_use]
    pub fn seed_dependent(self) -> bool {
        matches!(self, Property::Planarity)
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a [`Property`] from its wire name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePropertyError;

impl fmt::Display for ParsePropertyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("property must be `planarity`, `cycle_freeness` or `bipartiteness`")
    }
}

impl std::error::Error for ParsePropertyError {}

impl FromStr for Property {
    type Err = ParsePropertyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "planarity" => Ok(Property::Planarity),
            "cycle_freeness" | "cycle-freeness" => Ok(Property::CycleFreeness),
            "bipartiteness" => Ok(Property::Bipartiteness),
            _ => Err(ParsePropertyError),
        }
    }
}

/// How a query names its graph: by a registry alias or directly by
/// content fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphRef {
    /// A name given at ingest time.
    Name(String),
    /// The graph's content fingerprint.
    Fingerprint(Fingerprint),
}

impl fmt::Display for GraphRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphRef::Name(n) => f.write_str(n),
            GraphRef::Fingerprint(fp) => write!(f, "{fp}"),
        }
    }
}

/// One property-testing query against a registered graph.
#[derive(Debug, Clone)]
pub struct Query {
    /// Which registered graph to test.
    pub graph: GraphRef,
    /// Which property to test.
    pub property: Property,
    /// Full tester configuration (ε, constants, embedding mode — and the
    /// seed, which is the Monte-Carlo axis of the cache).
    pub cfg: TesterConfig,
}

impl Query {
    /// A planarity query.
    #[must_use]
    pub fn planarity(graph: GraphRef, cfg: TesterConfig) -> Self {
        Query {
            graph,
            property: Property::Planarity,
            cfg,
        }
    }

    /// Replaces the property.
    #[must_use]
    pub fn with_property(mut self, property: Property) -> Self {
        self.property = property;
        self
    }
}

/// Where a response came from.
///
/// Derives `Hash`/`Ord` so telemetry can key per-`(property, cache)`
/// latency distributions on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CacheStatus {
    /// Computed by an engine pass in this drain.
    Cold,
    /// Served from the per-seed result cache (bit-identical replay of an
    /// earlier engine pass with the same graph, config and seed).
    Warm,
    /// Served from a permanent reject certificate recorded under a
    /// *different* seed: one-sided error makes any reject a proof of
    /// non-planarity, so the stored witness is replayed without
    /// re-running the partition. The replayed statistics are those of
    /// the certifying run.
    Certificate,
}

impl CacheStatus {
    /// Wire name (`cold` / `warm` / `certificate`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CacheStatus::Cold => "cold",
            CacheStatus::Warm => "warm",
            CacheStatus::Certificate => "certificate",
        }
    }
}

/// A property-test result, uniform across the three properties.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Full planarity-tester outcome.
    Planarity(TestOutcome),
    /// Corollary 16 outcome plus the statistics of its engine pass.
    Hereditary {
        /// The rejecting nodes and partition telemetry.
        outcome: HereditaryOutcome,
        /// Round/message accounting of the run.
        stats: SimStats,
    },
}

impl Outcome {
    /// Whether every node accepted.
    #[must_use]
    pub fn accepted(&self) -> bool {
        match self {
            Outcome::Planarity(o) => o.accepted(),
            Outcome::Hereditary { outcome, .. } => outcome.accepted(),
        }
    }

    /// The run's statistics ledger.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        match self {
            Outcome::Planarity(o) => &o.stats,
            Outcome::Hereditary { stats, .. } => stats,
        }
    }

    /// Nodes that output `reject` (the witness of a reject verdict).
    #[must_use]
    pub fn rejecting_nodes(&self) -> Vec<NodeId> {
        match self {
            Outcome::Planarity(o) => o.rejections.iter().map(|&(v, _)| v).collect(),
            Outcome::Hereditary { outcome, .. } => outcome.rejecting.clone(),
        }
    }
}

/// Identifier of a submitted query within one [`Service`](crate::Service).
pub type QueryId = u64;

/// A served query: the outcome plus cache and latency attribution.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The id [`Service::submit`](crate::Service::submit) returned.
    pub id: QueryId,
    /// Content fingerprint of the graph that was tested.
    pub graph: Fingerprint,
    /// The property tested.
    pub property: Property,
    /// The seed the outcome is for (for [`CacheStatus::Certificate`]
    /// responses: the seed of the certifying run, not the query's).
    pub seed: u64,
    /// The verdict and telemetry.
    pub outcome: Outcome,
    /// Cold / warm / certificate provenance.
    pub cache: CacheStatus,
    /// How many tester instances shared the engine pass that produced
    /// this outcome (1 = ran alone; 0 = served from cache).
    pub coalesced: usize,
    /// Wall-clock of the whole engine pass (microseconds; ~0 for cache
    /// hits).
    pub engine_micros: u64,
    /// This query's share of `engine_micros`, split across the pass's
    /// instances in proportion to their per-instance simulated rounds
    /// (which the batched drivers account per query via
    /// [`SimStats::delta_since`]).
    pub attributed_micros: u64,
    /// Per-stage timing of this query's trip through the scheduler
    /// (queue / resolve / execute / respond spans summing exactly to
    /// the end-to-end latency on the service clock).
    pub stages: crate::telemetry::StageTimes,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn property_names_roundtrip() {
        for p in [
            Property::Planarity,
            Property::CycleFreeness,
            Property::Bipartiteness,
        ] {
            assert_eq!(p.name().parse::<Property>().unwrap(), p);
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!("nope".parse::<Property>(), Err(ParsePropertyError));
        assert!(Property::Planarity.seed_dependent());
        assert!(!Property::Bipartiteness.seed_dependent());
    }

    #[test]
    fn cache_status_names() {
        assert_eq!(CacheStatus::Cold.name(), "cold");
        assert_eq!(CacheStatus::Warm.name(), "warm");
        assert_eq!(CacheStatus::Certificate.name(), "certificate");
    }

    #[test]
    fn query_builders() {
        let q = Query::planarity(GraphRef::Name("g".into()), TesterConfig::new(0.1))
            .with_property(Property::Bipartiteness);
        assert_eq!(q.property, Property::Bipartiteness);
        assert_eq!(GraphRef::Name("g".into()).to_string(), "g");
    }
}
