//! A fixed, unkeyed hasher for maps keyed by this program's own ids.
//!
//! `std`'s default hasher is SipHash-1-3 under a per-process random key:
//! resistance to chosen-key collision floods, for ~20 ns a lookup — most
//! of what a lookup by `SwitchId`, `SeqNum` or a register name otherwise
//! costs. [`IdMap`] drops the key: a word-at-a-time
//! multiply-fold (the FxHash recurrence) with one fixed constant, so
//! iteration order is also the same in every run and process.
//!
//! Use it only where no unauthenticated peer chooses the *inserted* keys
//! (ids from configuration, sequence numbers this endpoint minted, names
//! from the P4 program, anything recorded after a digest verified); DESIGN
//! §4j lists every such map and where its keys come from. A map filled
//! from the wire before authentication keeps the default hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplier (odd, high-entropy upper bits: hashbrown tags
/// buckets with the top seven).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// See the module docs. Not collision-resistant against chosen keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.fold(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            // Byte by byte: a variable-length copy into a buffer compiles
            // to a `memcpy` call, which costs more than the whole hash.
            let last = tail
                .iter()
                .rev()
                .fold(0u64, |word, &byte| word << 8 | u64::from(byte));
            self.fold(last);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v.into());
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(v.into());
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v.into());
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `HashMap` with the fixed [`IdHasher`]; build with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(v)
    }

    #[test]
    fn fixed_across_builders_and_distinct_on_small_ids() {
        assert_eq!(hash_of(7u16), hash_of(7u16));
        assert_eq!(hash_of("bench"), hash_of(String::from("bench")));
        // Sequential ids (the common key shape) spread over both the low
        // bits hashbrown indexes with and the top seven it tags with.
        let hashes: Vec<u64> = (0..1024u32).map(hash_of).collect();
        let low: HashSet<u64> = hashes.iter().map(|h| h & 1023).collect();
        let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert_eq!(low.len(), 1024);
        assert_eq!(top.len(), 128);
    }

    #[test]
    fn byte_strings_fold_whole_words_and_the_tail() {
        assert_ne!(
            hash_of("reg_id_to_name_mapping"),
            hash_of("reg_id_to_name_mappinh")
        );
        assert_ne!(hash_of("a"), hash_of("b"));
        assert_ne!(hash_of((1u16, 2u8)), hash_of((2u16, 1u8)));
    }

    #[test]
    fn behaves_as_a_map() {
        let mut m: IdMap<(u16, u8), u32> = IdMap::default();
        for s in 0..300u16 {
            m.insert((s, (s % 7) as u8), u32::from(s));
        }
        assert_eq!(m.len(), 300);
        assert_eq!(m.get(&(299, 5)), Some(&299));
        assert_eq!(m.remove(&(0, 0)), Some(0));
        assert!(!m.contains_key(&(0, 0)));
    }
}
