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
//!
//! A planarity stripe keeps only what varies by seed: its rejections,
//! witnesses, statistics and each part's sample count. The Stage-I
//! phase metrics and the part reports are the same for every seed of a
//! key, so its slot keeps them once and a warm hit rebuilds the
//! identical outcome.
//!
//! # The prepared-tester memo
//!
//! Beside the outcomes, each planarity slot may keep the key's
//! [`Prepared`] tester — Stage I and the seed-free Stage-II prefix —
//! so a fresh seed on a key the server has already run pays only its
//! sample lane. The memo is an LRU bounded by
//! [`Prepared::heap_bytes`] (`PREFIX_BUDGET_BYTES`, 64 MiB; an entry
//! larger than the whole budget is not kept). A slot with a
//! certificate never keeps a prefix: no query on it reaches the engine
//! again.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use planartest_core::partition::PhaseMetrics;
use planartest_core::stage2::PartReport;
use planartest_core::{Prepared, TestOutcome};
use planartest_graph::fingerprint::Fingerprint;
use planartest_graph::NodeId;

use crate::query::{CacheStatus, Outcome, Property};

/// Default per-seed stripe cap: generous — tens of thousands of
/// distinct `(slot, seed)` outcomes resident before anything is
/// evicted — while still bounding a months-long serve loop.
///
/// A strict-mode planarity stripe on `tri_grid(24,24)` or `grid(24,24)`
/// holds under 0.1 KB of heap beside its 176 inline bytes: its 400–500
/// violation witnesses pack as a 73-byte bitmap of the 576 nodes, and
/// the phase metrics and part reports it shares with every seed of its
/// slot (0.7 KB there) are kept once per slot.
pub const DEFAULT_ACCEPT_CAPACITY: usize = 1 << 16;

/// The prepared-tester memo's byte budget, in [`Prepared::heap_bytes`].
const PREFIX_BUDGET_BYTES: usize = 64 << 20;

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
    /// The outcome, less a planarity outcome's phase metrics and part
    /// reports (kept once per slot, in [`CacheSlot::seed_free`]) and its
    /// violation witnesses...
    outcome: Outcome,
    /// ...which are kept packed ([`pack_ids`]): they are most of a
    /// stripe's heap and only telemetry.
    witnesses: Box<[u8]>,
    /// Each part's `sampled` count, in part order, packed the same way.
    sampled: Box<[u8]>,
    /// The cache-wide logical clock value of the last touch (insert or
    /// warm hit); the key of this entry in the LRU index.
    tick: u64,
}

/// What every planarity outcome of one slot shares: the Stage-I phase
/// metrics and the part reports, less their per-seed `sampled` counts.
#[derive(Debug, Clone, PartialEq)]
struct SeedFree {
    phases: Vec<PhaseMetrics>,
    parts: Vec<PartReport>,
}

impl Stored {
    /// Strips `outcome` down to what varies by seed; a planarity
    /// outcome's seed-free rest goes into `seed_free` if it is empty.
    fn new(outcome: &Outcome, tick: u64, seed_free: &mut Option<SeedFree>) -> Self {
        let (outcome, witnesses, sampled) = match outcome {
            Outcome::Planarity(o) => {
                let shared = || SeedFree {
                    phases: o.phases.clone(),
                    parts: o
                        .parts
                        .iter()
                        .map(|p| PartReport {
                            sampled: 0,
                            ..p.clone()
                        })
                        .collect(),
                };
                match seed_free {
                    Some(kept) => debug_assert_eq!(*kept, shared(), "seed-free outcome diverged"),
                    None => *seed_free = Some(shared()),
                }
                let stripped = TestOutcome {
                    rejections: o.rejections.clone(),
                    stats: o.stats,
                    phases: Vec::new(),
                    parts: Vec::new(),
                    violation_witnesses: Vec::new(),
                };
                let sampled = pack_varints(o.parts.iter().map(|p| p.sampled as i64));
                (
                    Outcome::Planarity(stripped),
                    pack_ids(&o.violation_witnesses),
                    sampled,
                )
            }
            Outcome::Hereditary { .. } => (outcome.clone(), Box::default(), Box::default()),
        };
        Stored {
            outcome,
            witnesses,
            sampled,
            tick,
        }
    }

    /// The outcome exactly as it was inserted.
    fn outcome(&self, seed_free: Option<&SeedFree>) -> Outcome {
        let mut outcome = self.outcome.clone();
        if let Outcome::Planarity(o) = &mut outcome {
            let shared = seed_free.expect("a planarity stripe's slot keeps its seed-free outcome");
            o.phases = shared.phases.clone();
            o.parts = shared.parts.clone();
            for (part, sampled) in o.parts.iter_mut().zip(unpack_varints(&self.sampled)) {
                part.sampled = sampled as usize;
            }
            o.violation_witnesses = unpack_ids(&self.witnesses);
        }
        outcome
    }
}

/// Packs integers as LEB128 varints of their zigzag-encoded deltas:
/// ascending values less than 64 apart take one byte each. Values in
/// any order round-trip through [`unpack_varints`].
fn pack_varints(values: impl IntoIterator<Item = i64>) -> Box<[u8]> {
    let values = values.into_iter();
    let mut bytes = Vec::with_capacity(values.size_hint().0);
    let mut prev = 0i64;
    for value in values {
        let delta = value - prev;
        prev = value;
        let mut zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
        while zigzag >= 0x80 {
            bytes.push(zigzag as u8 | 0x80);
            zigzag >>= 7;
        }
        bytes.push(zigzag as u8);
    }
    bytes.into_boxed_slice()
}

/// The values [`pack_varints`] packed, in their order.
fn unpack_varints(bytes: &[u8]) -> impl Iterator<Item = i64> + '_ {
    let (mut prev, mut zigzag, mut shift) = (0i64, 0u64, 0);
    bytes.iter().filter_map(move |&b| {
        zigzag |= u64::from(b & 0x7f) << shift;
        shift += 7;
        if b >= 0x80 {
            return None;
        }
        prev += (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
        (zigzag, shift) = (0, 0);
        Some(prev)
    })
}

/// [`pack_ids`]' tag byte: varints follow.
const IDS_VARINTS: u8 = 0;
/// [`pack_ids`]' tag byte: a bitmap follows.
const IDS_BITMAP: u8 = 1;

/// Packs node ids behind a tag byte: a strictly ascending list as a
/// bitmap of ids `0..=max` where that is shorter than its varints
/// ([`pack_varints`]), any other list as varints. An empty list packs
/// empty. Witness lists ascend, and on a dense graph hold a large share
/// of its nodes: 500 of `tri_grid(24,24)`'s 576 take 73 bytes, not 501.
fn pack_ids(ids: &[NodeId]) -> Box<[u8]> {
    let Some(max) = ids.last() else {
        return Box::default();
    };
    let varints = pack_varints(ids.iter().map(|id| i64::from(id.raw())));
    // Sized before anything is allocated: ids reach `u32::MAX`, whose
    // bitmap would take 512 MiB.
    let bitmap = (u64::from(max.raw()) + 1).div_ceil(8);
    let mut bytes;
    if bitmap < varints.len() as u64 && ids.windows(2).all(|w| w[0] < w[1]) {
        bytes = vec![0; 1 + bitmap as usize];
        bytes[0] = IDS_BITMAP;
        for id in ids {
            bytes[1 + id.index() / 8] |= 1 << (id.index() % 8);
        }
    } else {
        bytes = Vec::with_capacity(1 + varints.len());
        bytes.push(IDS_VARINTS);
        bytes.extend_from_slice(&varints);
    }
    bytes.into_boxed_slice()
}

/// The ids [`pack_ids`] packed, in their order.
fn unpack_ids(bytes: &[u8]) -> Vec<NodeId> {
    match bytes.split_first() {
        None => Vec::new(),
        Some((&IDS_BITMAP, bitmap)) => (0..8 * bitmap.len())
            .filter(|&id| bitmap[id / 8] >> (id % 8) & 1 == 1)
            .map(NodeId::new)
            .collect(),
        Some((_, varints)) => unpack_varints(varints)
            .map(|id| NodeId::new(id as usize))
            .collect(),
    }
}

/// Stored results for one cache key.
#[derive(Debug, Clone, Default)]
struct CacheSlot {
    /// Exact per-seed outcomes (accepts *and* rejects), replayed
    /// bit-identically for repeat queries. For seed-independent
    /// properties everything lives under seed 0. LRU-bounded.
    by_seed: BTreeMap<u64, Stored>,
    /// What the planarity stripes share, kept once while any is
    /// resident.
    seed_free: Option<SeedFree>,
    /// The permanent reject certificate: `(certifying seed, outcome)`.
    /// Set by the first reject; never evicted (one-sided error).
    certificate: Option<(u64, Outcome)>,
}

/// The prepared-tester memo's counters and occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PrefixStats {
    /// Planarity groups that found their key's prefix.
    pub hits: u64,
    /// Planarity groups that had to prepare one.
    pub misses: u64,
    /// Prefixes dropped by the byte budget.
    pub evictions: u64,
    /// Prefixes resident.
    pub entries: usize,
    /// Their [`Prepared::heap_bytes`] total.
    pub bytes: usize,
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
    /// Monotone logical clock driving both LRU orders.
    tick: u64,
    accept_capacity: usize,
    stats: CacheStats,
    /// The prepared-tester memo: each entry with its recency tick.
    prefixes: HashMap<SlotKey, (Arc<Prepared>, u64)>,
    /// LRU index over the memo: recency tick → slot key.
    prefix_lru: BTreeMap<u64, SlotKey>,
    /// The memo's byte budget ([`PREFIX_BUDGET_BYTES`]).
    prefix_budget: usize,
    prefix_stats: PrefixStats,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache {
            slots: HashMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
            accept_capacity: DEFAULT_ACCEPT_CAPACITY,
            stats: CacheStats::default(),
            prefixes: HashMap::new(),
            prefix_lru: BTreeMap::new(),
            prefix_budget: PREFIX_BUDGET_BYTES,
            prefix_stats: PrefixStats::default(),
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
                if slot.by_seed.is_empty() {
                    slot.seed_free = None;
                    if slot.certificate.is_none() {
                        self.slots.remove(&slot_key);
                    }
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
                let outcome = stored.outcome(slot.seed_free.as_ref());
                return Some((outcome, CacheStatus::Warm, seed));
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
            stripe.insert(Stored::new(outcome, self.tick, &mut slot.seed_free));
            self.lru.insert(self.tick, (slot_key, seed));
        }
        let mut certified = false;
        if certifiable && !outcome.accepted() && slot.certificate.is_none() {
            slot.certificate = Some((seed, outcome.clone()));
            certified = true;
            self.remove_prefix(&slot_key);
        }
        self.evict_over_capacity();
        certified
    }

    /// Looks up the key's prepared tester when its group forms; counts
    /// the hit or miss and touches the memo's LRU order.
    pub(crate) fn lookup_prefix(&mut self, key: &CacheKey) -> Option<Arc<Prepared>> {
        let slot_key = Self::slot_key(key);
        let Some((prepared, tick)) = self.prefixes.get_mut(&slot_key) else {
            self.prefix_stats.misses += 1;
            return None;
        };
        self.prefix_stats.hits += 1;
        self.prefix_lru.remove(tick);
        self.tick += 1;
        *tick = self.tick;
        self.prefix_lru.insert(self.tick, slot_key);
        Some(Arc::clone(prepared))
    }

    /// Keeps a freshly prepared tester for its key, evicting the least
    /// recently used prefixes past the byte budget. Not kept: one larger
    /// than the whole budget, and any for a key with a certificate.
    pub(crate) fn insert_prefix(&mut self, key: &CacheKey, prepared: Arc<Prepared>) {
        let slot_key = Self::slot_key(key);
        let bytes = prepared.heap_bytes();
        let certified = self
            .slots
            .get(&slot_key)
            .is_some_and(|slot| slot.certificate.is_some());
        if certified || bytes > self.prefix_budget {
            return;
        }
        self.remove_prefix(&slot_key);
        self.tick += 1;
        self.prefixes.insert(slot_key, (prepared, self.tick));
        self.prefix_lru.insert(self.tick, slot_key);
        self.prefix_stats.bytes += bytes;
        while self.prefix_stats.bytes > self.prefix_budget {
            let (_, oldest) = self
                .prefix_lru
                .pop_first()
                .expect("an over-budget memo is non-empty");
            self.remove_prefix(&oldest);
            self.prefix_stats.evictions += 1;
        }
    }

    fn remove_prefix(&mut self, slot_key: &SlotKey) {
        if let Some((prepared, tick)) = self.prefixes.remove(slot_key) {
            self.prefix_lru.remove(&tick);
            self.prefix_stats.bytes -= prepared.heap_bytes();
        }
    }

    /// The memo's counters (since construction or the last
    /// [`clear`](Self::clear)) and occupancy.
    pub(crate) fn prefix_stats(&self) -> PrefixStats {
        PrefixStats {
            entries: self.prefixes.len(),
            ..self.prefix_stats
        }
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
        self.remove_prefix(&Self::slot_key(key));
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

    /// Drops every entry, prepared testers included, and resets the
    /// counters (used by load drivers to re-measure cold paths). The
    /// configured capacity is kept.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.lru.clear();
        self.stats = CacheStats::default();
        self.prefixes.clear();
        self.prefix_lru.clear();
        self.prefix_stats = PrefixStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planartest_core::applications::HereditaryOutcome;
    use planartest_core::PlanarityTester;
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
            // The same draw as a dense ascending list, below twice its
            // length: it packs as a bitmap once it is long enough.
            let span = 2 * raw.len() as u64 + 1;
            let mut dense: Vec<NodeId> = raw.iter().map(|&r| NodeId::new((r % span) as usize)).collect();
            dense.sort_unstable();
            dense.dedup();
            for ids in [ids, dense] {
                let packed = pack_ids(&ids);
                let varints = pack_varints(ids.iter().map(|id| i64::from(id.raw())));
                prop_assert!(packed.len() <= 1 + varints.len());
                prop_assert_eq!(unpack_ids(&packed), ids);
            }
        }
    }

    #[test]
    fn packed_ids_extremes_and_density() {
        let extremes = [u32::MAX, 0, u32::MAX, u32::MAX, 1].map(|r| NodeId::new(r as usize));
        assert_eq!(unpack_ids(&pack_ids(&extremes)), extremes);
        assert!(pack_ids(&[]).is_empty() && unpack_ids(&[]).is_empty());
        // Dense ascending ids take a tag and a bitmap of ids 0..=1504.
        let dense: Vec<NodeId> = (0..500).map(|i| NodeId::new(3 * i + 7)).collect();
        assert_eq!(pack_ids(&dense).len(), 1 + 189);
        assert_eq!(unpack_ids(&pack_ids(&dense)), dense);
        // Unsorted, the same ids take a tag and varints: two bytes for
        // the first, one for each step of −3.
        let unsorted: Vec<NodeId> = dense.iter().rev().copied().collect();
        assert_eq!(pack_ids(&unsorted).len(), 1 + 2 + 499);
        assert_eq!(unpack_ids(&pack_ids(&unsorted)), unsorted);
        // Ascending ids at the top of the range take varints, and their
        // 512 MiB bitmap is never allocated.
        let top = [u32::MAX - 2, u32::MAX - 1, u32::MAX].map(|r| NodeId::new(r as usize));
        assert_eq!(pack_ids(&top).len(), 1 + 5 + 1 + 1);
        assert_eq!(unpack_ids(&pack_ids(&top)), top);
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

    fn prepared(spec_text: &str) -> Arc<Prepared> {
        let graph = planartest_graph::generators::spec::parse(spec_text)
            .expect("spec")
            .graph;
        let cfg = planartest_core::TesterConfig::new(0.1).with_phases(4);
        Arc::new(PlanarityTester::new(cfg).prepare(&graph).expect("prepare"))
    }

    fn graph_key(graph: u128) -> CacheKey {
        CacheKey {
            graph: Fingerprint(graph),
            ..key(Property::Planarity)
        }
    }

    #[test]
    fn planarity_stripes_share_phases_and_parts() {
        let graph = planartest_graph::generators::spec::parse("tri_grid(5,5)")
            .unwrap()
            .graph;
        let cfg = planartest_core::TesterConfig::new(0.1).with_phases(4);
        let outs = PlanarityTester::new(cfg).run_many(&graph, &[1, 2]).unwrap();
        let mut cache = ResultCache::new();
        let k = key(Property::Planarity);
        for (seed, out) in [1, 2].into_iter().zip(&outs) {
            cache.insert(&k, seed, &Outcome::Planarity(out.clone()), true);
        }
        let slot = &cache.slots[&ResultCache::slot_key(&k)];
        let kept = slot.seed_free.as_ref().expect("kept once per slot");
        assert!(!kept.parts.is_empty() && kept.parts.iter().all(|p| p.sampled == 0));
        for (seed, out) in [1, 2].into_iter().zip(&outs) {
            let Outcome::Planarity(hit) = cache.lookup(&k, seed).unwrap().0 else {
                panic!("planarity stripe");
            };
            assert_eq!(hit.rejections, out.rejections);
            assert_eq!(hit.stats, out.stats);
            assert_eq!(hit.phases, out.phases);
            assert_eq!(hit.parts, out.parts);
            assert_eq!(hit.violation_witnesses, out.violation_witnesses);
        }
        // The last stripe's eviction drops what the stripes shared.
        cache.set_accept_capacity(0);
        assert!(cache.is_empty());
    }

    #[test]
    fn prefix_bytes_track_heap_bytes_and_lru_evicts_oldest() {
        let mut cache = ResultCache::new();
        let (a, b, c) = (
            prepared("tri_grid(5,5)"),
            prepared("grid(4,6)"),
            prepared("cycle(12)"),
        );
        let sizes = [a.heap_bytes(), b.heap_bytes(), c.heap_bytes()];
        // Room for exactly the two largest.
        cache.prefix_budget = sizes[0] + sizes[1].max(sizes[2]);
        assert!(cache.lookup_prefix(&graph_key(1)).is_none());
        cache.insert_prefix(&graph_key(1), Arc::clone(&a));
        cache.insert_prefix(&graph_key(2), Arc::clone(&b));
        assert_eq!(cache.prefix_stats().bytes, sizes[0] + sizes[1]);
        // Touch the older entry: the newer one is now least recent...
        assert!(Arc::ptr_eq(
            &cache.lookup_prefix(&graph_key(1)).unwrap(),
            &a
        ));
        // ...so a third entry evicts it.
        cache.insert_prefix(&graph_key(3), Arc::clone(&c));
        assert!(cache.lookup_prefix(&graph_key(2)).is_none());
        assert!(cache.lookup_prefix(&graph_key(1)).is_some());
        assert!(cache.lookup_prefix(&graph_key(3)).is_some());
        assert_eq!(
            cache.prefix_stats(),
            PrefixStats {
                hits: 3,
                misses: 2,
                evictions: 1,
                entries: 2,
                bytes: sizes[0] + sizes[2],
            }
        );
        let resident: usize = cache.prefixes.values().map(|(p, _)| p.heap_bytes()).sum();
        assert_eq!(cache.prefix_stats().bytes, resident);
    }

    #[test]
    fn oversize_prefix_is_not_kept() {
        let mut cache = ResultCache::new();
        let p = prepared("tri_grid(5,5)");
        cache.prefix_budget = p.heap_bytes() - 1;
        cache.insert_prefix(&graph_key(1), p);
        assert_eq!(cache.prefix_stats(), PrefixStats::default());
        assert!(cache.lookup_prefix(&graph_key(1)).is_none());
    }

    #[test]
    fn certificates_block_and_drop_prefixes() {
        let mut cache = ResultCache::new();
        let k = key(Property::Planarity);
        cache.insert_prefix(&k, prepared("tri_grid(5,5)"));
        assert_eq!(cache.prefix_stats().entries, 1);
        // Forming a certificate drops the slot's prefix...
        assert!(cache.insert(&k, 1, &outcome(false), true));
        assert_eq!(cache.prefix_stats().entries, 0);
        assert_eq!(cache.prefix_stats().bytes, 0);
        // ...and a certified slot keeps none.
        cache.insert_prefix(&k, prepared("tri_grid(5,5)"));
        assert_eq!(cache.prefix_stats().entries, 0);
        // So does one whose certificate was replayed from the log.
        let mut replayed = ResultCache::new();
        replayed.insert_prefix(&k, prepared("grid(4,6)"));
        assert!(replayed.load_certificate(&k, 1, outcome(false)));
        assert_eq!(replayed.prefix_stats().entries, 0);
    }

    #[test]
    fn clear_empties_prefixes() {
        let mut cache = ResultCache::new();
        cache.insert_prefix(&graph_key(1), prepared("grid(4,6)"));
        assert!(cache.lookup_prefix(&graph_key(1)).is_some());
        cache.clear();
        assert_eq!(cache.prefix_stats(), PrefixStats::default());
        assert!(cache.prefix_lru.is_empty());
        assert!(cache.lookup_prefix(&graph_key(1)).is_none());
    }
}
