//! A small deterministic hasher for maps looked up only by key.
//!
//! The admission RMs' per-client maps and the NoC's in-flight packet
//! table are only ever looked up by key, never iterated where the order
//! shows, so they can be hashed. `RandomState` would seed each process
//! differently and make `Debug` output of their owners depend on the
//! process; this FxHash-style multiply-rotate hasher has no seed, so
//! every run hashes, iterates and prints the same way. Its keys are
//! client ids, sequence numbers and packet ids the simulators assign
//! themselves, so giving up `RandomState`'s resistance to crafted
//! collisions costs nothing.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style hasher: each word is folded in with a rotate, an xor and
/// a multiply by an odd constant. `finish` rotates the result so the
/// product's well-mixed high bits land in the low bits a `HashMap`
/// picks its buckets with: the ids of one shard share their low bits
/// (`id % clusters`), and an unrotated product would keep them shared.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const K: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` hashed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed by [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    /// Stand-ins with the shapes of the admission crate's keys: a `u32`
    /// newtype id and an enum of a unit and an id-carrying variant.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct AppId(u32);

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Endpoint {
        Rm,
        Client(AppId),
    }

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn hashes_do_not_depend_on_the_process() {
        // Fixed values: a seeded hasher would fail these on some runs.
        assert_eq!(hash_of(&AppId(1)), K.rotate_left(26));
        assert_eq!(hash_of(&7u64), 7u64.wrapping_mul(K).rotate_left(26));
        assert_ne!(hash_of(&Endpoint::Rm), hash_of(&Endpoint::Client(AppId(0))));
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 4][..]));
    }

    #[test]
    fn sets_and_maps_behave_like_std() {
        let mut set: FxHashSet<u64> = FxHashSet::default();
        assert!(set.insert(3));
        assert!(!set.insert(3));
        let mut map: FxHashMap<AppId, u32> = FxHashMap::default();
        map.insert(AppId(9), 1);
        *map.entry(AppId(9)).or_insert(0) += 1;
        assert_eq!(map.get(&AppId(9)), Some(&2));
        assert_eq!(map.len(), 1);
    }
}
