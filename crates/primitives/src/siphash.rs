//! HalfSipHash-2-4: the 32-bit-word variant of SipHash.
//!
//! Yoo & Chen ("Secure keyed hashing on programmable switches", ACM SIGCOMM
//! SPIN 2021) showed HalfSipHash maps well onto Tofino's ALUs because every
//! round is additions, XORs and rotates; the paper adopts it as the HMAC
//! algorithm on BMv2 (§VII, the `compute_digest` extern). This module
//! implements the reference construction from scratch.
//!
//! The state is four 32-bit words initialized from the 64-bit key and the
//! ASCII constants of the SipHash paper, followed by two compression rounds
//! per 4-byte block and four finalization rounds. The 32-bit output is
//! `v1 ^ v3`. The round counts are constants: every caller uses 2-4, the
//! recommended SipHash parameters.

use crate::types::Key64;
use std::fmt;

/// Compression rounds per message block (the `c` of HalfSipHash-c-d).
const C_ROUNDS: usize = 2;
/// Finalization rounds after the last block (the `d`).
const D_ROUNDS: usize = 4;

#[inline(always)]
fn sipround(v: &mut [u32; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(5);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(16);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(8);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(7);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(16);
}

/// Reference initialization: v0=0, v1=0, v2='lyge', v3='tedb', each XORed
/// with the key halves.
#[inline(always)]
fn init(key: Key64) -> [u32; 4] {
    let (k0, k1) = (key.lo(), key.hi());
    [k0, k1, 0x6c79_6765 ^ k0, 0x7465_6462 ^ k1]
}

#[inline(always)]
fn compress(v: &mut [u32; 4], m: u32) {
    v[3] ^= m;
    for _ in 0..C_ROUNDS {
        sipround(v);
    }
    v[0] ^= m;
}

/// Absorbs the last block — `tail`, the message's last bytes (fewer than
/// four) as a little-endian word, plus the message length mod 256 in the
/// top byte — and finalizes.
#[inline(always)]
fn finish(mut v: [u32; 4], tail: u32, total_len: u64) -> u32 {
    compress(&mut v, tail | (total_len as u32 & 0xff) << 24);
    v[2] ^= 0xff;
    for _ in 0..D_ROUNDS {
        sipround(&mut v);
    }
    v[1] ^ v[3]
}

/// Incremental HalfSipHash-2-4 hasher over a byte stream (the MAC feeds it
/// a frame's parts one by one).
///
/// A part that does not end on a word boundary leaves its last 1–3 bytes
/// pending as the low `bits` of `tail`. The next part is still read a
/// word at a time: each word `w` completes the pending one as
/// `tail | w << bits`, and its top `bits` become the new `tail`, so the
/// words compressed are exactly those of the concatenated message.
#[derive(Clone)]
pub struct HalfSipHasher {
    v: [u32; 4],
    /// Pending bytes, little-endian, in the low `bits`; zero above them.
    tail: u32,
    /// Pending bit count: 0, 8, 16 or 24.
    bits: u32,
    total_len: u64,
}

impl HalfSipHasher {
    /// Creates a hasher keyed with `key`.
    pub fn new(key: Key64) -> Self {
        HalfSipHasher {
            v: init(key),
            tail: 0,
            bits: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hash.
    // Inlined into the MAC's loop over a frame's parts, the state stays in
    // registers from one part to the next.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut words = data.chunks_exact(4);
        let word = |c: &[u8]| u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        if self.bits == 0 {
            for c in &mut words {
                compress(&mut self.v, word(c));
            }
        } else {
            // `bits` is 8, 16 or 24 here, so neither shift reaches 32.
            for c in &mut words {
                let w = word(c);
                compress(&mut self.v, self.tail | w << self.bits);
                self.tail = w >> (32 - self.bits);
            }
        }
        for &byte in words.remainder() {
            self.tail |= (byte as u32) << self.bits;
            self.bits += 8;
            if self.bits == 32 {
                compress(&mut self.v, self.tail);
                (self.tail, self.bits) = (0, 0);
            }
        }
    }

    /// Consumes the hasher and returns the 32-bit digest.
    #[inline]
    pub fn finalize(self) -> u32 {
        finish(self.v, self.tail, self.total_len)
    }
}

/// Shows how many bytes were absorbed and nothing else: the state words
/// start as the key halves, so printing them would print the key.
impl fmt::Debug for HalfSipHasher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HalfSipHasher")
            .field("len", &self.total_len)
            .finish_non_exhaustive()
    }
}

/// One-shot HalfSipHash-2-4 of `data` under `key`: a straight-line kernel
/// with the state in locals and no partial-word buffer (the PRF's path).
pub fn half_siphash24(key: Key64, data: &[u8]) -> u32 {
    let mut v = init(key);
    let mut blocks = data.chunks_exact(4);
    for b in &mut blocks {
        compress(&mut v, u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
    }
    let mut tail = 0;
    for (i, &b) in blocks.remainder().iter().enumerate() {
        tail |= (b as u32) << (8 * i);
    }
    finish(v, tail, data.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key64 {
        // k0 = 0x03020100, k1 = 0x07060504 (reference test key bytes 0..8).
        Key64::new(0x0706_0504_0302_0100)
    }

    /// Reference vectors from the SipHash repository's `vectors.h`
    /// (`vectors_hsip32`): HalfSipHash-2-4 with 32-bit output, key bytes
    /// 0,1,..,7 and message bytes 0,1,..,len-1.
    #[test]
    fn reference_vectors_hsip32() {
        const EXPECTED: [[u8; 4]; 8] = [
            [0xa9, 0x35, 0x9f, 0x5b],
            [0x27, 0x47, 0x5a, 0xb8],
            [0xfa, 0x62, 0xa6, 0x03],
            [0x8a, 0xfe, 0xe7, 0x04],
            [0x2a, 0x6e, 0x46, 0x89],
            [0xc5, 0xfa, 0xb6, 0x69],
            [0x58, 0x63, 0xfc, 0x23],
            [0x8b, 0xcf, 0x63, 0xc5],
        ];
        for (len, expect) in EXPECTED.iter().enumerate() {
            let msg: Vec<u8> = (0..len as u8).collect();
            let mut h = HalfSipHasher::new(key());
            h.update(&msg);
            for out in [half_siphash24(key(), &msg), h.finalize()] {
                assert_eq!(
                    out.to_le_bytes(),
                    *expect,
                    "vector mismatch for message length {len}"
                );
            }
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let msg: Vec<u8> = (0..37).collect();
        let oneshot = half_siphash24(key(), &msg);
        for split in 0..msg.len() {
            let mut h = HalfSipHasher::new(key());
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn debug_shows_neither_key_half() {
        let (k0, k1) = (0xdead_beef_u32, 0x0bad_cafe_u32);
        let mut h = HalfSipHasher::new(Key64::new((k1 as u64) << 32 | k0 as u64));
        let fresh = format!("{h:?}");
        h.update(&[0x5a; 26]);
        let fed = format!("{h:?}");
        assert_eq!(fresh, "HalfSipHasher { len: 0, .. }");
        assert_eq!(fed, "HalfSipHasher { len: 26, .. }");
        for half in [k0, k1] {
            for shown in [fresh.as_str(), fed.as_str(), &format!("{h:#?}")] {
                for needle in [half.to_string(), format!("{half:x}"), format!("{half:X}")] {
                    assert!(!shown.contains(&needle), "{shown} shows {needle}");
                }
            }
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = half_siphash24(Key64::new(1), b"message");
        let b = half_siphash24(Key64::new(2), b"message");
        assert_ne!(a, b);
    }

    #[test]
    fn different_messages_differ() {
        let a = half_siphash24(key(), b"message-a");
        let b = half_siphash24(key(), b"message-b");
        assert_ne!(a, b);
    }

    #[test]
    fn length_extension_blocked_by_length_byte() {
        // "ab" and "ab\0" must hash differently even though the padded block
        // bytes could otherwise coincide.
        let a = half_siphash24(key(), b"ab");
        let b = half_siphash24(key(), b"ab\0");
        assert_ne!(a, b);
    }

    #[test]
    fn avalanche_on_single_bit_flip() {
        // Flipping any single input bit should flip a substantial fraction
        // of output bits on average (weak statistical check).
        let base_msg = [0u8; 8];
        let base = half_siphash24(key(), &base_msg);
        let mut total_flips = 0u32;
        for bit in 0..64 {
            let mut m = base_msg;
            m[bit / 8] ^= 1 << (bit % 8);
            total_flips += (half_siphash24(key(), &m) ^ base).count_ones();
        }
        let avg = total_flips as f64 / 64.0;
        assert!(avg > 12.0 && avg < 20.0, "poor avalanche: avg {avg} bits");
    }
}
