//! Cache geometry: sets, ways, line size, and address decomposition.

/// Geometry of a set-associative cache.
///
/// # Examples
///
/// ```
/// use autoplat_cache::CacheGeometry;
///
/// // A DSU-style 1 MiB, 16-way L3 with 64-byte lines.
/// let g = CacheGeometry::new(1024, 16, 64);
/// assert_eq!(g.capacity_bytes(), 1024 * 1024);
/// assert_eq!(g.set_index(0x1_0040), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct CacheGeometry {
    sets: u32,
    ways: u32,
    line_bytes: u32,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_bytes` is not a power of two, if either
    /// is zero, or if `ways` is zero or exceeds 64 (allocation masks are
    /// 64-bit).
    pub fn new(sets: u32, ways: u32, line_bytes: u32) -> Self {
        assert!(
            sets.is_power_of_two(),
            "sets must be a power of two, got {sets}"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two, got {line_bytes}"
        );
        assert!(ways > 0 && ways <= 64, "ways must be in 1..=64, got {ways}");
        CacheGeometry {
            sets,
            ways,
            line_bytes,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes as u64
    }

    /// The set an address maps to: the line address's low index bits
    /// (`sets` and `line_bytes` are powers of two, so shifts and masks
    /// decode exactly).
    pub fn set_index(&self, addr: u64) -> u32 {
        ((addr >> self.line_bytes.trailing_zeros()) & (self.sets as u64 - 1)) as u32
    }

    /// The tag of an address (line address above the index bits).
    pub fn tag(&self, addr: u64) -> u64 {
        addr >> (self.line_bytes.trailing_zeros() + self.sets.trailing_zeros())
    }

    /// The line-aligned base address for a `(tag, set)` pair — inverse of
    /// [`set_index`]/[`tag`] up to the line offset.
    ///
    /// [`set_index`]: CacheGeometry::set_index
    /// [`tag`]: CacheGeometry::tag
    pub fn line_address(&self, tag: u64, set: u32) -> u64 {
        (tag * self.sets as u64 + set as u64) * self.line_bytes as u64
    }

    /// The all-ways allocation mask.
    pub fn full_mask(&self) -> u64 {
        if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_decomposition_round_trips() {
        let g = CacheGeometry::new(256, 8, 64);
        for addr in [0u64, 64, 4096, 0xDEAD_BEC0, 1 << 40] {
            let line = addr / 64 * 64;
            assert_eq!(g.line_address(g.tag(addr), g.set_index(addr)), line);
        }
    }

    #[test]
    fn sequential_lines_walk_sets() {
        let g = CacheGeometry::new(4, 2, 64);
        let idx: Vec<u32> = (0..8).map(|i| g.set_index(i * 64)).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(g.tag(4 * 64), 1);
    }

    #[test]
    fn capacity() {
        let g = CacheGeometry::new(2048, 16, 64);
        assert_eq!(g.capacity_bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn full_mask_widths() {
        assert_eq!(CacheGeometry::new(2, 12, 64).full_mask(), 0xFFF);
        assert_eq!(CacheGeometry::new(2, 64, 64).full_mask(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = CacheGeometry::new(3, 4, 64);
    }

    #[test]
    #[should_panic(expected = "ways must be")]
    fn rejects_zero_ways() {
        let _ = CacheGeometry::new(4, 0, 64);
    }
}
