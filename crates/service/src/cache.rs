//! The result cache and its one-sided-error retention policy.
//!
//! The tester's error model dictates what may be cached and for how
//! long:
//!
//! * **Rejects are certificates.** The tester has one-sided error: a
//!   planar graph is *never* rejected, so any reject proves the graph
//!   non-planar — for every seed, forever. The first reject observed for
//!   a `(graph, config, property)` is stored permanently and replayed
//!   (witness included) for queries under seeds that were never run.
//!   The one exception is the paper-faithful `Paper` embedding mode,
//!   which is *not* one-sided (the Claim 10 refutation): its rejects
//!   stay per-seed observations and are never promoted to certificates
//!   (the scheduler passes `certifiable = false`).
//! * **Accepts are per-seed Monte-Carlo evidence.** An accept only says
//!   "this seed's samples found no violation"; a different seed is a
//!   fresh experiment. Accepts are therefore striped per seed: a query
//!   is a warm hit only for a seed that actually ran.
//!
//! Exact per-seed entries (accept *or* reject) always replay
//! bit-identically — verdict, witnesses, and the full statistics ledger
//! are the stored engine pass's. The wire `backend` field has no effect
//! on a pass, so it is absent from the key.
//!
//! # Bounded accept stripes
//!
//! The two retention classes grow very differently. Certificates are
//! tiny and bounded by the number of distinct `(graph, config)` pairs;
//! per-seed stripes grow with *every fresh seed* a long-running server
//! sees, without bound. The cache therefore puts an LRU cap
//! ([`ResultCache::accept_capacity`], default
//! [`DEFAULT_ACCEPT_CAPACITY`], settable via `planartest serve
//! --cache-accepts N`) on the per-seed Monte-Carlo stripes only:
//! when the cap is exceeded the least-recently-touched stripe is
//! dropped (counted in [`CacheStats::evictions`]) and a repeat of that
//! exact seed simply pays a fresh — still coalesceable — engine pass.
//! Reject **certificates are never evicted**: they are proofs, and
//! evicting a proof would re-run a partition the error model says can
//! never be needed again. (A certifiable reject's own stripe may be
//! evicted; its outcome lives on in the certificate, so only its
//! `warm` vs `certificate` provenance label changes.)

use std::collections::hash_map::Entry as MapEntry;
use std::collections::{BTreeMap, HashMap};

use planartest_graph::fingerprint::Fingerprint;
use planartest_graph::NodeId;

use crate::query::{CacheStatus, Outcome, Property};

/// Default per-seed stripe cap: generous — tens of thousands of
/// distinct `(slot, seed)` outcomes resident before anything is
/// evicted — while still bounding a months-long serve loop.
///
/// A strict-mode planarity stripe on `tri_grid(24,24)` or `grid(24,24)`
/// holds about 1.2 KB of heap, 2.8 KB unpacked: its 400–500 violation
/// witnesses take one byte each, packed, instead of four.
pub const DEFAULT_ACCEPT_CAPACITY: usize = 1 << 16;

/// Cache key: graph content × configuration (seed excluded) × property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`Graph::fingerprint`](planartest_graph::Graph::fingerprint).
    pub graph: Fingerprint,
    /// [`TesterConfig::fingerprint`](planartest_core::TesterConfig::fingerprint)
    /// — every outcome-determining field except the seed.
    pub config: Fingerprint,
    /// The property tested.
    pub property: Property,
}

/// One stored per-seed outcome plus its LRU recency stamp.
#[derive(Debug, Clone)]
struct Stored {
    /// The outcome, less a planarity outcome's violation witnesses...
    outcome: Outcome,
    /// ...which are kept packed ([`pack_ids`]): they are most of a
    /// stripe's heap and only telemetry.
    witnesses: Box<[u8]>,
    /// The cache-wide logical clock value of the last touch (insert or
    /// warm hit); the key of this entry in the LRU index.
    tick: u64,
}

impl Stored {
    fn new(outcome: &Outcome, tick: u64) -> Self {
        let mut outcome = outcome.clone();
        let witnesses = match &mut outcome {
            Outcome::Planarity(o) => pack_ids(&std::mem::take(&mut o.violation_witnesses)),
            Outcome::Hereditary { .. } => Box::default(),
        };
        Stored {
            outcome,
            witnesses,
            tick,
        }
    }

    /// The outcome exactly as it was inserted.
    fn outcome(&self) -> Outcome {
        let mut outcome = self.outcome.clone();
        if let Outcome::Planarity(o) = &mut outcome {
            o.violation_witnesses = unpack_ids(&self.witnesses);
        }
        outcome
    }
}

/// Packs node ids as LEB128 varints of their zigzag-encoded deltas:
/// ascending ids less than 64 apart take one byte each. Ids in any
/// order round-trip through [`unpack_ids`].
fn pack_ids(ids: &[NodeId]) -> Box<[u8]> {
    let mut bytes = Vec::with_capacity(ids.len());
    let mut prev = 0i64;
    for &id in ids {
        let delta = i64::from(id.raw()) - prev;
        prev = i64::from(id.raw());
        let mut zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
        while zigzag >= 0x80 {
            bytes.push(zigzag as u8 | 0x80);
            zigzag >>= 7;
        }
        bytes.push(zigzag as u8);
    }
    bytes.into_boxed_slice()
}

/// The ids [`pack_ids`] packed, in their order.
fn unpack_ids(bytes: &[u8]) -> Vec<NodeId> {
    let mut ids = Vec::with_capacity(bytes.len());
    let (mut prev, mut zigzag, mut shift) = (0i64, 0u64, 0);
    for &b in bytes {
        zigzag |= u64::from(b & 0x7f) << shift;
        shift += 7;
        if b < 0x80 {
            prev += (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
            ids.push(NodeId::new(prev as usize));
            (zigzag, shift) = (0, 0);
        }
    }
    ids
}

/// Stored results for one cache key.
#[derive(Debug, Clone, Default)]
struct CacheSlot {
    /// Exact per-seed outcomes (accepts *and* rejects), replayed
    /// bit-identically for repeat queries. For seed-independent
    /// properties everything lives under seed 0. LRU-bounded.
    by_seed: BTreeMap<u64, Stored>,
    /// The permanent reject certificate: `(certifying seed, outcome)`.
    /// Set by the first reject; never evicted (one-sided error).
    certificate: Option<(u64, Outcome)>,
}

/// Running hit/miss counters (service telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact per-seed hits.
    pub warm_hits: u64,
    /// Certificate replays for unseen seeds.
    pub certificate_hits: u64,
    /// Lookups that required an engine pass.
    pub misses: u64,
    /// Per-seed stripes dropped by the LRU accept bound.
    pub evictions: u64,
}

type SlotKey = (u128, u128, Property);

/// The result cache (see the [module docs](self) for the policy).
#[derive(Debug)]
pub struct ResultCache {
    slots: HashMap<SlotKey, CacheSlot>,
    /// LRU index over every per-seed stripe: recency tick → its
    /// location. Certificates are deliberately not in here.
    lru: BTreeMap<u64, (SlotKey, u64)>,
    /// Monotone logical clock driving the LRU order.
    tick: u64,
    accept_capacity: usize,
    stats: CacheStats,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache {
            slots: HashMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
            accept_capacity: DEFAULT_ACCEPT_CAPACITY,
            stats: CacheStats::default(),
        }
    }
}

impl ResultCache {
    /// An empty cache with the default accept-stripe capacity.
    #[must_use]
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Replaces the per-seed stripe cap (builder form). A cap of 0
    /// disables per-seed retention entirely; certificates still form.
    #[must_use]
    pub fn with_accept_capacity(mut self, capacity: usize) -> Self {
        self.set_accept_capacity(capacity);
        self
    }

    /// Replaces the per-seed stripe cap, evicting immediately if the
    /// resident stripes already exceed it.
    pub fn set_accept_capacity(&mut self, capacity: usize) {
        self.accept_capacity = capacity;
        self.evict_over_capacity();
    }

    /// The current per-seed stripe cap.
    #[must_use]
    pub fn accept_capacity(&self) -> usize {
        self.accept_capacity
    }

    /// Accept stripes currently resident in the LRU (the occupancy the
    /// eviction counter is measured against; certificates don't count).
    #[must_use]
    pub fn accept_stripes(&self) -> usize {
        self.lru.len()
    }

    fn slot_key(key: &CacheKey) -> SlotKey {
        (key.graph.0, key.config.0, key.property)
    }

    fn evict_over_capacity(&mut self) {
        while self.lru.len() > self.accept_capacity {
            let (&tick, &(slot_key, seed)) =
                self.lru.iter().next().expect("non-empty over-cap LRU");
            self.lru.remove(&tick);
            if let Some(slot) = self.slots.get_mut(&slot_key) {
                slot.by_seed.remove(&seed);
                self.stats.evictions += 1;
                if slot.by_seed.is_empty() && slot.certificate.is_none() {
                    self.slots.remove(&slot_key);
                }
            }
        }
    }

    /// The seed axis actually used for `property` (seed-independent
    /// properties collapse onto one stripe).
    fn seed_axis(property: Property, seed: u64) -> u64 {
        if property.seed_dependent() {
            seed
        } else {
            0
        }
    }

    /// Looks up a query; counts the hit or miss.
    ///
    /// Priority: exact per-seed entry ([`CacheStatus::Warm`]), then the
    /// permanent reject certificate ([`CacheStatus::Certificate`] —
    /// returns the certifying seed alongside, since the replayed
    /// statistics belong to that run).
    pub fn lookup(&mut self, key: &CacheKey, seed: u64) -> Option<(Outcome, CacheStatus, u64)> {
        let seed = Self::seed_axis(key.property, seed);
        let slot_key = Self::slot_key(key);
        if let Some(slot) = self.slots.get_mut(&slot_key) {
            if let Some(stored) = slot.by_seed.get_mut(&seed) {
                self.stats.warm_hits += 1;
                // Touch: move the stripe to the most-recent end of the
                // LRU order.
                self.lru.remove(&stored.tick);
                self.tick += 1;
                stored.tick = self.tick;
                self.lru.insert(self.tick, (slot_key, seed));
                return Some((stored.outcome(), CacheStatus::Warm, seed));
            }
            if let Some((cert_seed, outcome)) = slot.certificate.as_ref() {
                self.stats.certificate_hits += 1;
                return Some((outcome.clone(), CacheStatus::Certificate, *cert_seed));
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Records a freshly computed outcome; a reject additionally becomes
    /// the key's permanent certificate (first reject wins, keeping
    /// certificate replays deterministic regardless of later passes) —
    /// but **only** when the caller vouches the configuration is
    /// one-sided (`certifiable`). The paper-faithful `Paper` mode
    /// can reject planar graphs (the Claim 10 refutation), so its
    /// rejects are per-seed observations like accepts, never
    /// seed-universal proofs.
    ///
    /// Returns whether this call formed a **new** certificate — the
    /// scheduler's signal to append it to the durable write-ahead log
    /// (see [`crate::persist`]).
    pub fn insert(
        &mut self,
        key: &CacheKey,
        seed: u64,
        outcome: &Outcome,
        certifiable: bool,
    ) -> bool {
        let seed = Self::seed_axis(key.property, seed);
        let slot_key = Self::slot_key(key);
        let slot = match self.slots.entry(slot_key) {
            MapEntry::Occupied(e) => e.into_mut(),
            MapEntry::Vacant(e) => e.insert(CacheSlot::default()),
        };
        if let std::collections::btree_map::Entry::Vacant(stripe) = slot.by_seed.entry(seed) {
            self.tick += 1;
            stripe.insert(Stored::new(outcome, self.tick));
            self.lru.insert(self.tick, (slot_key, seed));
        }
        let mut certified = false;
        if certifiable && !outcome.accepted() && slot.certificate.is_none() {
            slot.certificate = Some((seed, outcome.clone()));
            certified = true;
        }
        self.evict_over_capacity();
        certified
    }

    /// Installs a certificate replayed from the durable log **without**
    /// touching the hit/miss counters, the LRU, or the per-seed
    /// stripes: a replay restores knowledge, it is not traffic. First
    /// record wins (matching the in-memory first-reject-wins rule), so
    /// replaying a non-compacted log with duplicates is idempotent.
    /// Returns whether the certificate was installed.
    pub fn load_certificate(&mut self, key: &CacheKey, seed: u64, outcome: Outcome) -> bool {
        let seed = Self::seed_axis(key.property, seed);
        let slot = match self.slots.entry(Self::slot_key(key)) {
            MapEntry::Occupied(e) => e.into_mut(),
            MapEntry::Vacant(e) => e.insert(CacheSlot::default()),
        };
        if slot.certificate.is_some() {
            return false;
        }
        slot.certificate = Some((seed, outcome));
        true
    }

    /// Iterates over every resident certificate — the live state an
    /// offline compaction rewrites the log from.
    pub fn certificates(&self) -> impl Iterator<Item = (CacheKey, u64, &Outcome)> + '_ {
        self.slots
            .iter()
            .filter_map(|(&(graph, config, property), slot)| {
                slot.certificate.as_ref().map(|(seed, outcome)| {
                    (
                        CacheKey {
                            graph: Fingerprint(graph),
                            config: Fingerprint(config),
                            property,
                        },
                        *seed,
                        outcome,
                    )
                })
            })
    }

    /// Hit/miss counters since construction (or the last [`clear`](Self::clear)).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of `(graph, config, property)` slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total stored per-seed outcomes across all slots.
    #[must_use]
    pub fn stored_outcomes(&self) -> usize {
        self.slots.values().map(|s| s.by_seed.len()).sum()
    }

    /// Drops every entry and resets the counters (used by load drivers
    /// to re-measure cold paths). The configured capacity is kept.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.lru.clear();
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planartest_core::applications::HereditaryOutcome;
    use planartest_sim::SimStats;
    use proptest::prelude::*;

    fn key(property: Property) -> CacheKey {
        CacheKey {
            graph: Fingerprint(1),
            config: Fingerprint(2),
            property,
        }
    }

    fn outcome(accepted: bool) -> Outcome {
        Outcome::Hereditary {
            outcome: HereditaryOutcome {
                rejecting: if accepted {
                    Vec::new()
                } else {
                    vec![NodeId::new(3)]
                },
                parts: 1,
            },
            stats: SimStats::default(),
        }
    }

    #[test]
    fn accepts_are_per_seed_rejects_are_permanent() {
        let mut cache = ResultCache::new();
        let k = key(Property::Planarity);
        assert!(cache.lookup(&k, 1).is_none());
        cache.insert(&k, 1, &outcome(true), true);
        // Same seed: warm. Different seed: miss (accepts don't transfer).
        assert_eq!(cache.lookup(&k, 1).unwrap().1, CacheStatus::Warm);
        assert!(cache.lookup(&k, 2).is_none());

        cache.insert(&k, 2, &outcome(false), true);
        // Unseen seed now rides the certificate, tagged with seed 2.
        let (o, status, seed) = cache.lookup(&k, 77).unwrap();
        assert_eq!(status, CacheStatus::Certificate);
        assert_eq!(seed, 2);
        assert!(!o.accepted());
        // The exact reject seed is still a warm hit.
        assert_eq!(cache.lookup(&k, 2).unwrap().1, CacheStatus::Warm);
        assert_eq!(
            cache.stats(),
            CacheStats {
                warm_hits: 2,
                certificate_hits: 1,
                misses: 2,
                evictions: 0
            }
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stored_outcomes(), 2);
    }

    #[test]
    fn seed_independent_properties_share_one_stripe() {
        let mut cache = ResultCache::new();
        let k = key(Property::Bipartiteness);
        cache.insert(&k, 123, &outcome(true), true);
        // Any seed hits: the property never looked at it.
        assert_eq!(cache.lookup(&k, 456).unwrap().1, CacheStatus::Warm);
    }

    #[test]
    fn first_reject_wins_certificate() {
        let mut cache = ResultCache::new();
        let k = key(Property::Planarity);
        let first = Outcome::Hereditary {
            outcome: HereditaryOutcome {
                rejecting: vec![NodeId::new(7)],
                parts: 1,
            },
            stats: SimStats::default(),
        };
        cache.insert(&k, 5, &first, true);
        cache.insert(&k, 6, &outcome(false), true);
        let (o, _, seed) = cache.lookup(&k, 99).unwrap();
        assert_eq!(seed, 5);
        assert_eq!(o.rejecting_nodes(), vec![NodeId::new(7)]);
    }

    #[test]
    fn uncertifiable_rejects_stay_per_seed() {
        // Paper-mode rejects are observations, not proofs: exact-seed
        // replay works, but no certificate forms for unseen seeds.
        let mut cache = ResultCache::new();
        let k = key(Property::Planarity);
        cache.insert(&k, 1, &outcome(false), false);
        assert_eq!(cache.lookup(&k, 1).unwrap().1, CacheStatus::Warm);
        assert!(cache.lookup(&k, 2).is_none());
    }

    #[test]
    fn lru_bound_evicts_stale_accept_stripes() {
        let mut cache = ResultCache::new().with_accept_capacity(2);
        assert_eq!(cache.accept_capacity(), 2);
        let k = key(Property::Planarity);
        cache.insert(&k, 1, &outcome(true), true);
        cache.insert(&k, 2, &outcome(true), true);
        // Touch seed 1 so seed 2 is now the least recently used...
        assert_eq!(cache.lookup(&k, 1).unwrap().1, CacheStatus::Warm);
        // ...and a third stripe evicts seed 2, not seed 1.
        cache.insert(&k, 3, &outcome(true), true);
        assert_eq!(cache.stored_outcomes(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.lookup(&k, 1).unwrap().1, CacheStatus::Warm);
        assert_eq!(cache.lookup(&k, 3).unwrap().1, CacheStatus::Warm);
        assert!(cache.lookup(&k, 2).is_none(), "evicted stripe is a miss");
    }

    #[test]
    fn certificates_survive_eviction() {
        // Capacity 0: no per-seed retention at all — yet a certifiable
        // reject still becomes a permanent proof.
        let mut cache = ResultCache::new().with_accept_capacity(0);
        let k = key(Property::Planarity);
        cache.insert(&k, 7, &outcome(false), true);
        assert_eq!(cache.stored_outcomes(), 0, "stripe evicted immediately");
        assert_eq!(cache.stats().evictions, 1);
        let (o, status, seed) = cache.lookup(&k, 7).unwrap();
        assert_eq!(status, CacheStatus::Certificate);
        assert_eq!(seed, 7);
        assert!(!o.accepted());
        // Accepts under capacity 0 are simply not retained.
        let ka = key(Property::Bipartiteness);
        cache.insert(&ka, 1, &outcome(true), true);
        assert!(cache.lookup(&ka, 1).is_none());
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let mut cache = ResultCache::new();
        let k = key(Property::Planarity);
        for seed in 0..8 {
            cache.insert(&k, seed, &outcome(true), true);
        }
        assert_eq!(cache.stored_outcomes(), 8);
        cache.set_accept_capacity(3);
        assert_eq!(cache.stored_outcomes(), 3);
        assert_eq!(cache.stats().evictions, 5);
        // The survivors are the most recently inserted stripes.
        for seed in 5..8 {
            assert_eq!(cache.lookup(&k, seed).unwrap().1, CacheStatus::Warm);
        }
        // An empty accept-only slot disappears entirely once its last
        // stripe goes.
        cache.set_accept_capacity(0);
        assert!(cache.is_empty());
    }

    #[test]
    fn insert_reports_new_certificates_and_replay_is_silent() {
        let mut cache = ResultCache::new();
        let k = key(Property::Planarity);
        assert!(
            !cache.insert(&k, 1, &outcome(true), true),
            "accepts never certify"
        );
        assert!(
            cache.insert(&k, 2, &outcome(false), true),
            "first reject certifies"
        );
        assert!(
            !cache.insert(&k, 3, &outcome(false), true),
            "only the first"
        );
        assert_eq!(cache.certificates().count(), 1);
        let (ck, seed, o) = cache.certificates().next().unwrap();
        assert_eq!((ck, seed), (k, 2));
        assert!(!o.accepted());

        // Replaying into a fresh cache: certificate hits work, stats
        // and LRU stay untouched.
        let mut cold = ResultCache::new();
        assert!(cold.load_certificate(&k, 2, o.clone()));
        assert!(!cold.load_certificate(&k, 9, outcome(false)), "first wins");
        assert_eq!(cold.stats(), CacheStats::default());
        assert_eq!(cold.accept_stripes(), 0);
        let (_, status, seed) = cold.lookup(&k, 42).unwrap();
        assert_eq!(status, CacheStatus::Certificate);
        assert_eq!(seed, 2);
    }

    proptest! {
        #[test]
        fn packed_ids_round_trip(
            raw in prop::collection::vec(0u64..1 << 32, 0..200),
            sorted in 0u8..2,
        ) {
            let mut ids: Vec<NodeId> = raw.iter().map(|&r| NodeId::new(r as usize)).collect();
            if sorted == 1 {
                ids.sort_unstable();
            }
            prop_assert_eq!(unpack_ids(&pack_ids(&ids)), ids);
        }
    }

    #[test]
    fn packed_ids_extremes_and_density() {
        let extremes = [u32::MAX, 0, u32::MAX, u32::MAX, 1].map(|r| NodeId::new(r as usize));
        assert_eq!(unpack_ids(&pack_ids(&extremes)), extremes);
        assert!(pack_ids(&[]).is_empty() && unpack_ids(&[]).is_empty());
        // Ascending ids under 64 apart cost one byte each.
        let dense: Vec<NodeId> = (0..500).map(|i| NodeId::new(3 * i + 7)).collect();
        assert_eq!(pack_ids(&dense).len(), dense.len());
    }

    #[test]
    fn clear_resets() {
        let mut cache = ResultCache::new();
        let k = key(Property::Planarity);
        cache.insert(&k, 1, &outcome(true), true);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }
}
