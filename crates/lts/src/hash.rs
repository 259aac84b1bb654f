//! Fast, non-cryptographic hashing for the LTS generation hot path.
//!
//! The exploration engine hashes millions of packed-`u64` composite-state
//! keys; SipHash (std's default) costs more than the state expansion itself.
//! [`FxHasher`] is the FireFox/rustc multiply-xor hash: word-at-a-time, a
//! single multiplication per word, excellent distribution on dense bit-packed
//! keys. The engine's own tables are `IdTable`s: open addressing over
//! `u32` ids whose keys live in the engine's flat arenas, so a probe
//! compares words in place and an insert allocates nothing per key.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FNV-inspired rustc-hash scheme (64-bit golden ratio).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The rustc-hash ("FxHash") hasher: not cryptographic, not DoS-resistant,
/// but several times faster than SipHash on short integer-dense keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.add_to_hash(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add_to_hash(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add_to_hash(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add_to_hash(value as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed by [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Hashes a word slice with [`FxHasher`]'s round, then mixes the high half
/// back in so every input bit reaches the high bits that [`IdTable`] uses
/// (a bare Fx round leaves a word's top bits only in the hash's top bits).
#[inline]
pub(crate) fn hash_words(words: &[u64]) -> u64 {
    let mut hasher = FxHasher::default();
    for &word in words {
        hasher.add_to_hash(word);
    }
    let hash = hasher.hash;
    (hash ^ (hash >> 32)).wrapping_mul(K)
}

/// An open-addressing table of `u32` ids whose keys live elsewhere.
///
/// The table owns no keys: a slot holds an id plus the high 32 bits of its
/// key's hash, and a probe asks the caller whether an id's key (in the
/// caller's arena) is the one sought. The stored hash bits choose the home
/// slot and reject most mismatches without touching the arena, and they let
/// the table double without rehashing a key. Linear probing, at most half
/// full.
#[derive(Debug, Clone)]
pub(crate) struct IdTable {
    /// `hash_high << 32 | (id + 1)`; `0` is an empty slot.
    slots: Vec<u64>,
    len: usize,
}

impl IdTable {
    /// An empty table of 64 slots; it doubles as it fills.
    pub(crate) fn new() -> Self {
        IdTable { slots: vec![0; 64], len: 0 }
    }

    /// Returns the id whose key has hash `hash` and satisfies `is_key`, or
    /// inserts `id` under `hash` and returns `None`.
    #[inline]
    pub(crate) fn find_or_insert(
        &mut self,
        hash: u64,
        id: u32,
        mut is_key: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        debug_assert!(id < u32::MAX, "id {id} collides with the empty slot");
        let tag = hash >> 32;
        let mask = self.slots.len() - 1;
        let mut at = tag as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                break;
            }
            if slot >> 32 == tag {
                let found = (slot as u32).wrapping_sub(1);
                if is_key(found) {
                    return Some(found);
                }
            }
            at = (at + 1) & mask;
        }
        self.slots[at] = tag << 32 | u64::from(id.wrapping_add(1));
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            self.double();
        }
        None
    }

    /// Files `id` under `hash` without looking for an equal key.
    pub(crate) fn insert(&mut self, hash: u64, id: u32) {
        self.find_or_insert(hash, id, |_| false);
    }

    /// Doubles the slot array, re-placing every id by its stored hash bits.
    fn double(&mut self) {
        let doubled = vec![0; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|&slot| slot != 0) {
            let mut at = (slot >> 32) as usize & mask;
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn fx_hash<T: Hash>(value: &T) -> u64 {
        let mut hasher = FxHasher::default();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn equal_values_hash_equal_and_unequal_values_spread() {
        let a = fx_hash(&vec![1u64, 2, 3]);
        let b = fx_hash(&vec![1u64, 2, 3]);
        let c = fx_hash(&vec![1u64, 2, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn byte_tails_do_not_collide_with_padded_prefixes() {
        // "ab" vs "ab\0" must differ even though the tail pads with zeros.
        assert_ne!(fx_hash(&[0x61u8, 0x62]), fx_hash(&[0x61u8, 0x62, 0x00]));
    }

    #[test]
    fn fx_maps_and_sets_behave_like_std() {
        let mut map: FxHashMap<&str, usize> = FxHashMap::default();
        map.insert("a", 1);
        map.insert("b", 2);
        assert_eq!(map.get("a"), Some(&1));

        let mut set: FxHashSet<u64> = FxHashSet::default();
        assert!(set.insert(7));
        assert!(!set.insert(7));
    }

    /// Interns `key` into `table` over `arena`, returning its id.
    fn intern(table: &mut IdTable, arena: &mut Vec<[u64; 2]>, key: [u64; 2], hash: u64) -> u32 {
        let next = arena.len() as u32;
        match table.find_or_insert(hash, next, |id| arena[id as usize] == key) {
            Some(id) => id,
            None => {
                arena.push(key);
                next
            }
        }
    }

    #[test]
    fn id_table_returns_ids_in_insertion_order_across_doublings() {
        let mut table = IdTable::new();
        let mut arena = Vec::new();
        let keys: Vec<[u64; 2]> = (0..5_000u64).map(|i| [i * 7, i ^ 0x55]).collect();
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(intern(&mut table, &mut arena, *key, hash_words(key)), i as u32);
        }
        assert!(table.slots.len() >= 8_192, "the table doubled past its first size");
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(intern(&mut table, &mut arena, *key, hash_words(key)), i as u32);
        }
        assert_eq!(arena.len(), keys.len());
        assert_eq!(table.len, keys.len());
    }

    #[test]
    fn id_table_resolves_keys_that_all_share_one_hash() {
        let mut table = IdTable::new();
        let mut arena = Vec::new();
        for i in 0..300u64 {
            assert_eq!(intern(&mut table, &mut arena, [i, 0], 42), i as u32);
        }
        for i in (0..300u64).rev() {
            assert_eq!(intern(&mut table, &mut arena, [i, 0], 42), i as u32);
        }
        assert_eq!(arena.len(), 300);
    }

    #[test]
    fn word_hashes_reach_the_high_bits_from_every_input_bit() {
        let base = hash_words(&[0, 0]) >> 32;
        for bit in 0..64 {
            assert_ne!(hash_words(&[0, 1u64 << bit]) >> 32, base, "bit {bit} of the last word");
            assert_ne!(hash_words(&[1u64 << bit, 0]) >> 32, base, "bit {bit} of the first word");
        }
    }
}
