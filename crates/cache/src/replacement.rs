//! Replacement policies for the set-associative cache model.
//!
//! Policies operate *per set* on way indices; the cache asks for a victim
//! among an allowed subset of ways (the partition's allocation mask
//! restricted to that set). Each policy keeps the state of every set in
//! one vector allocated at its final size, indexed by set.

use autoplat_sim::SimRng;

/// A per-set replacement policy over `ways` ways.
///
/// Implementations are deterministic given their construction inputs
/// (random replacement takes a seeded RNG), so simulations replay exactly.
pub trait ReplacementPolicy: std::fmt::Debug {
    /// Notes a hit or fill touching `way` in `set`.
    fn touch(&mut self, set: u32, way: u32);

    /// Chooses a victim way in `set` among the ways enabled in
    /// `candidate_mask` (bit `w` set ⇒ way `w` allowed).
    ///
    /// # Panics
    ///
    /// Implementations panic if `candidate_mask` selects no way.
    fn victim(&mut self, set: u32, candidate_mask: u64) -> u32;
}

/// True least-recently-used: a recency order per set.
///
/// Each set's order is `ways` way indices, least recent first, stored
/// back to back for all sets. A touch moves the way to the end of its
/// set's order in place, and the victim is the first way of the order
/// the candidate mask allows — with every way allowed, the first entry.
#[derive(Debug, Clone)]
pub struct Lru {
    ways: usize,
    /// Per-set way indices, least recent first (`ways` entries per set).
    order: Vec<u8>,
}

impl Lru {
    /// Creates LRU state for `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` exceeds 64 (candidate masks are 64-bit).
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(ways <= 64, "ways must be at most 64, got {ways}");
        let ways = ways as usize;
        let mut order = Vec::with_capacity(sets as usize * ways);
        for _ in 0..sets {
            order.extend(0..ways as u8);
        }
        Lru { ways, order }
    }

    fn set_order(&mut self, set: u32) -> &mut [u8] {
        let base = set as usize * self.ways;
        &mut self.order[base..base + self.ways]
    }
}

impl ReplacementPolicy for Lru {
    fn touch(&mut self, set: u32, way: u32) {
        let order = self.set_order(set);
        let pos = order
            .iter()
            .position(|&w| u32::from(w) == way)
            .expect("touched way is in the set");
        order.copy_within(pos + 1.., pos);
        order[order.len() - 1] = way as u8;
    }

    fn victim(&mut self, set: u32, candidate_mask: u64) -> u32 {
        let order = self.set_order(set);
        u32::from(
            *order
                .iter()
                .find(|&&w| candidate_mask & (1 << w) != 0)
                .expect("candidate mask selects no way"),
        )
    }
}

/// Tree pseudo-LRU (the common hardware approximation).
///
/// Maintains a binary tree of direction bits per set; `victim` follows the
/// bits, restricted to subtrees containing at least one candidate way.
#[derive(Debug, Clone)]
pub struct TreePlru {
    /// The real ways as a mask: tree leaves beyond them are never victims.
    ways_mask: u64,
    /// Per-set tree bits, one word per set: bit `n` is internal node `n`
    /// of a 1-indexed heap over `leaves` leaves (the ways rounded up to a
    /// power of two); set ⇒ the victim search goes right.
    bits: Vec<u64>,
    leaves: u32,
}

impl TreePlru {
    /// Creates tree-PLRU state for `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds 64.
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(ways > 0, "ways must be non-zero");
        assert!(ways <= 64, "ways must be at most 64, got {ways}");
        TreePlru {
            ways_mask: u64::MAX >> (64 - ways),
            bits: vec![0; sets as usize],
            leaves: ways.next_power_of_two(),
        }
    }
}

impl ReplacementPolicy for TreePlru {
    fn touch(&mut self, set: u32, way: u32) {
        let bits = &mut self.bits[set as usize];
        let mut node = self.leaves + way;
        while node > 1 {
            let parent = node / 2;
            // Point away from the touched child: touched left ⇒ go right.
            if node.is_multiple_of(2) {
                *bits |= 1 << parent;
            } else {
                *bits &= !(1 << parent);
            }
            node = parent;
        }
    }

    fn victim(&mut self, set: u32, candidate_mask: u64) -> u32 {
        let candidates = candidate_mask & self.ways_mask;
        assert!(candidates != 0, "candidate mask selects no way");
        let bits = self.bits[set as usize];
        // Walk down from the root; the current node covers the leaves
        // `first .. first + span`, and always holds a candidate.
        let (mut node, mut first, mut span) = (1u32, 0u32, self.leaves);
        while node < self.leaves {
            span /= 2;
            let half = (1u64 << span) - 1;
            let left_has = (candidates >> first) & half != 0;
            let right_has = (candidates >> (first + span)) & half != 0;
            // Follow the bit unless that subtree holds no candidate.
            let go_right = if bits & (1 << node) != 0 {
                right_has
            } else {
                !left_has
            };
            node *= 2;
            if go_right {
                node += 1;
                first += span;
            }
        }
        node - self.leaves
    }
}

/// Uniform random replacement with a seeded RNG.
#[derive(Debug, Clone)]
pub struct RandomReplacement {
    rng: SimRng,
}

impl RandomReplacement {
    /// Creates a random policy from a seed.
    pub fn new(seed: u64) -> Self {
        RandomReplacement {
            rng: SimRng::seed_from(seed),
        }
    }
}

impl ReplacementPolicy for RandomReplacement {
    fn touch(&mut self, _set: u32, _way: u32) {}

    /// Draws one of the candidate ways uniformly: the `k`-th set bit of
    /// the mask for a uniform `k`, the same draw `SimRng::choose` makes
    /// over the candidate list.
    fn victim(&mut self, _set: u32, candidate_mask: u64) -> u32 {
        let candidates = candidate_mask.count_ones();
        assert!(candidates != 0, "candidate mask selects no way");
        let mut rest = candidate_mask;
        for _ in 0..self.rng.gen_range(0..candidates) {
            rest &= rest - 1;
        }
        rest.trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut lru = Lru::new(1, 4);
        for w in [0, 1, 2, 3, 0, 1] {
            lru.touch(0, w);
        }
        // Recency order now 2, 3, 0, 1 → victim is 2.
        assert_eq!(lru.victim(0, 0b1111), 2);
    }

    #[test]
    fn lru_respects_candidate_mask() {
        let mut lru = Lru::new(1, 4);
        for w in [0, 1, 2, 3] {
            lru.touch(0, w);
        }
        // LRU is way 0 but the mask excludes it.
        assert_eq!(lru.victim(0, 0b1010), 1);
    }

    #[test]
    #[should_panic(expected = "selects no way")]
    fn lru_empty_mask_panics() {
        let mut lru = Lru::new(1, 2);
        let _ = lru.victim(0, 0);
    }

    #[test]
    fn plru_victim_avoids_recent() {
        let mut p = TreePlru::new(1, 8);
        p.touch(0, 3);
        let v = p.victim(0, 0xFF);
        assert_ne!(v, 3, "the just-touched way must not be the victim");
    }

    #[test]
    fn plru_respects_candidate_mask() {
        let mut p = TreePlru::new(1, 8);
        for w in 0..8 {
            p.touch(0, w);
        }
        let v = p.victim(0, 0b0000_0100);
        assert_eq!(v, 2);
    }

    #[test]
    fn plru_non_power_of_two_ways() {
        let mut p = TreePlru::new(2, 12); // DSU L3 can be 12-way
        for w in 0..12 {
            p.touch(1, w);
        }
        let v = p.victim(1, 0xFFF);
        assert!(v < 12);
    }

    #[test]
    #[should_panic(expected = "selects no way")]
    fn plru_mask_beyond_ways_panics() {
        let mut p = TreePlru::new(1, 12);
        // Ways 12..16 exist as tree leaves but not as real ways.
        let _ = p.victim(0, 0xF000);
    }

    #[test]
    fn random_is_deterministic_and_masked() {
        let mut a = RandomReplacement::new(7);
        let mut b = RandomReplacement::new(7);
        for _ in 0..32 {
            let mask = 0b1011_0001;
            let va = a.victim(0, mask);
            assert_eq!(va, b.victim(0, mask));
            assert!(mask & (1 << va) != 0);
        }
    }
}
