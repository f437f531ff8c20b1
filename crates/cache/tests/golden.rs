//! Golden cache traces: seeded multi-flow access streams through
//! `SetAssocCache`, pinned per outcome and per flow.
//!
//! `tests/golden/cache_trace.txt` holds, for each case (two geometries,
//! each under LRU, tree-PLRU and seeded random replacement), one line per
//! trace segment with a digest of its `AccessOutcome` sequence (victim
//! owners included) and the count of each outcome kind, then the sorted
//! `flows()` and, for every flow the case names, its `stats()`,
//! `allocation_mask()`, `max_lines()` and `occupancy_of`. It was written
//! once and is never regenerated; a change to lookup, victim choice,
//! way masks, line caps or per-flow bookkeeping shows up here as a first
//! differing line.
//!
//! The flows cover the corners of the per-flow state: the ids 0 and
//! `u32::MAX`, a zero mask (every miss bypasses), line caps, a flow that
//! is configured but never accesses, one that is never mentioned, and a
//! `reset()` mid-trace that keeps masks and caps, after which a mask and
//! a cap are changed.

use std::fmt::Write;

use autoplat_cache::cache::Replacement;
use autoplat_cache::{AccessOutcome, CacheConfig, FlowId, SetAssocCache};

/// splitmix64: a fixed generator, so the traces never depend on the
/// workspace's own RNG.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// Flows that access, with the share of the trace each draws.
const ACTIVE: [FlowId; 5] = [FlowId(0), FlowId(1), FlowId(3), FlowId(7), FlowId(u32::MAX)];
/// Every flow a case reports: the active ones, plus one configured but
/// silent (9) and one never mentioned (11).
const REPORTED: [FlowId; 7] = [
    FlowId(0),
    FlowId(1),
    FlowId(3),
    FlowId(7),
    FlowId(9),
    FlowId(11),
    FlowId(u32::MAX),
];
const ACCESSES: u64 = 4_000;

/// Running FNV-1a digest and per-kind counts of one trace segment.
#[derive(Default)]
struct Segment {
    digest: u64,
    hits: u64,
    filled: u64,
    evicted: u64,
    bypass: u64,
}

impl Segment {
    fn new() -> Self {
        Segment {
            digest: 0xcbf2_9ce4_8422_2325,
            ..Segment::default()
        }
    }

    fn record(&mut self, outcome: AccessOutcome) {
        let (kind, owner) = match outcome {
            AccessOutcome::Hit => {
                self.hits += 1;
                (0u8, 0u32)
            }
            AccessOutcome::MissFilled => {
                self.filled += 1;
                (1, 0)
            }
            AccessOutcome::MissEvicted { victim_owner } => {
                self.evicted += 1;
                (2, victim_owner.0)
            }
            AccessOutcome::Bypass => {
                self.bypass += 1;
                (3, 0)
            }
        };
        for byte in std::iter::once(kind).chain(owner.to_le_bytes()) {
            self.digest ^= byte as u64;
            self.digest = self.digest.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn render(&self, name: &str, index: usize, out: &mut String) {
        writeln!(
            out,
            "{name} seg{index} {:016x} hit={} filled={} evicted={} bypass={}",
            self.digest, self.hits, self.filled, self.evicted, self.bypass
        )
        .unwrap();
    }
}

fn run_case(name: &str, config: CacheConfig, seed: u64, out: &mut String) {
    let g = config.geometry;
    let ways = g.ways() as u64;
    let low_half = (1u64 << (ways / 2)) - 1;
    let mut cache = SetAssocCache::new(config);
    cache.set_allocation_mask(FlowId(0), low_half);
    cache.set_allocation_mask(FlowId(u32::MAX), g.full_mask() & !low_half);
    cache.set_max_lines(FlowId(u32::MAX), g.sets() as u64);
    cache.set_max_lines(FlowId(1), 5);
    cache.set_allocation_mask(FlowId(3), 0);
    cache.set_allocation_mask(FlowId(9), 0b1);
    cache.set_max_lines(FlowId(9), 2);

    let mut rng = SplitMix(seed);
    let mut segment = Segment::new();
    for i in 0..ACCESSES {
        if i == ACCESSES / 2 {
            segment.render(name, 0, out);
            segment = Segment::new();
            cache.reset();
            cache.set_allocation_mask(FlowId(0), g.full_mask() & !1);
            cache.set_max_lines(FlowId(7), 3);
        }
        let flow = ACTIVE[rng.below(ACTIVE.len() as u64) as usize];
        // A fifth of the accesses share one small region, so flows hit
        // on each other's lines; the rest stay in a private working set
        // whose size varies by flow.
        let tag = if rng.below(5) == 0 {
            rng.below(4)
        } else {
            let working_set = 2 + (flow.0 % 5) as u64 * 3;
            16 + (flow.0 % 7) as u64 * 64 + rng.below(working_set)
        };
        let set = rng.below(g.sets() as u64) as u32;
        let addr = g.line_address(tag, set) + rng.below(g.line_bytes() as u64);
        segment.record(cache.access(flow, addr));
    }
    segment.render(name, 1, out);

    let flows: Vec<String> = cache.flows().iter().map(|f| f.0.to_string()).collect();
    writeln!(out, "{name} flows {}", flows.join(",")).unwrap();
    for flow in REPORTED {
        let s = cache.stats(flow);
        writeln!(
            out,
            "{name} flow {} hits={} misses={} occ={} suffered={} caused={} mask={:#x} max={} held={}",
            flow.0,
            s.hits,
            s.misses,
            s.occupancy,
            s.evictions_suffered,
            s.evictions_caused_to_others,
            cache.allocation_mask(flow),
            cache.max_lines(flow),
            cache.occupancy_of(flow)
        )
        .unwrap();
    }
}

fn render_all() -> String {
    let mut out = String::new();
    let geometries = [("g8x4", 8, 4), ("g32x8", 32, 8)];
    let policies = [
        ("lru", Replacement::Lru),
        ("plru", Replacement::TreePlru),
        ("rand", Replacement::Random(0xd5_0001)),
    ];
    for (gi, &(gname, sets, ways)) in geometries.iter().enumerate() {
        for (pi, &(pname, replacement)) in policies.iter().enumerate() {
            let config = CacheConfig::new(sets, ways, 64).with_replacement(replacement);
            let seed = 0xcace_0000 + (gi * 16 + pi) as u64;
            run_case(&format!("{gname}-{pname}"), config, seed, &mut out);
        }
    }
    out
}

#[test]
fn traces_match_golden() {
    let path = format!(
        "{}/../../tests/golden/cache_trace.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let fresh = render_all();
    let expected: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let actual: Vec<&str> = fresh.lines().collect();
    for (i, (e, a)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(a, e, "line {i} drifted from {path}");
    }
    assert_eq!(actual.len(), expected.len(), "line count drifted");
}
