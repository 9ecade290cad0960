//! PRF-based stream cipher — the §XI confidentiality extension.
//!
//! The paper notes P4Auth "can be extended to support symmetric key
//! encryption and decryption of C-DP and DP-DP communication by deriving
//! more symmetric keys from the master secret using KDF". A PISA pipeline
//! can XOR a payload with a keystream produced by its hash units, so the
//! natural data-plane cipher is counter-mode over the 32-bit PRF:
//!
//! ```text
//! keystream[i] = PRF(K_enc, nonce || i)
//! ciphertext   = plaintext ⊕ keystream
//! ```
//!
//! Confidentiality holds as far as the PRF does (HalfSipHash profile;
//! CRC32 would be decorative). Nonces must never repeat under one key —
//! the caller uses the message sequence number, which the replay window
//! already forces to be unique per channel.

use crate::kdf::{HalfSipHashPrf, Prf32};
use crate::types::Key64;

/// Counter-mode PRF stream cipher.
pub struct StreamCipher {
    prf: Box<dyn Prf32>,
}

impl Default for StreamCipher {
    fn default() -> Self {
        StreamCipher {
            prf: Box::new(HalfSipHashPrf),
        }
    }
}

impl std::fmt::Debug for StreamCipher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamCipher")
            .field("prf", &self.prf.name())
            .finish()
    }
}

impl StreamCipher {
    /// Cipher over an explicit PRF.
    pub fn with_prf(prf: Box<dyn Prf32>) -> Self {
        StreamCipher { prf }
    }

    /// Encrypts or decrypts `data` in place (XOR is an involution) under
    /// `key` and a per-message `nonce`.
    pub fn apply(&self, key: Key64, nonce: u64, data: &mut [u8]) {
        let nonce_bytes = nonce.to_be_bytes();
        for (block_idx, chunk) in data.chunks_mut(4).enumerate() {
            let mut input = [0u8; 12];
            input[..8].copy_from_slice(&nonce_bytes);
            input[8..].copy_from_slice(&(block_idx as u32).to_be_bytes());
            let ks = self.prf.eval(key, &input).to_be_bytes();
            for (byte, k) in chunk.iter_mut().zip(ks.iter()) {
                *byte ^= k;
            }
        }
    }

    /// Convenience: encrypts a copy.
    pub fn encrypt(&self, key: Key64, nonce: u64, plaintext: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        self.apply(key, nonce, &mut out);
        out
    }

    /// Convenience: decrypts a copy (identical to [`Self::encrypt`]).
    pub fn decrypt(&self, key: Key64, nonce: u64, ciphertext: &[u8]) -> Vec<u8> {
        self.encrypt(key, nonce, ciphertext)
    }

    /// Hash-unit passes to process `len` bytes (resource accounting: one
    /// PRF pass per 32-bit block).
    pub fn hash_passes(len: usize) -> u32 {
        len.div_ceil(4) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> StreamCipher {
        StreamCipher::default()
    }

    const KEY: Key64 = Key64::new(0xe4c2_e4c2_0123_4567);

    #[test]
    fn roundtrip() {
        let msg = b"register write idx=3 value=999";
        let ct = cipher().encrypt(KEY, 7, msg);
        assert_ne!(&ct[..], &msg[..]);
        assert_eq!(cipher().decrypt(KEY, 7, &ct), msg);
    }

    #[test]
    fn roundtrip_all_lengths() {
        for len in 0..40 {
            let msg: Vec<u8> = (0..len as u8).collect();
            let ct = cipher().encrypt(KEY, 1, &msg);
            assert_eq!(cipher().decrypt(KEY, 1, &ct), msg, "len {len}");
        }
    }

    #[test]
    fn wrong_key_garbles() {
        let msg = b"secret";
        let ct = cipher().encrypt(KEY, 1, msg);
        assert_ne!(cipher().decrypt(Key64::new(1), 1, &ct), msg.to_vec());
    }

    #[test]
    fn wrong_nonce_garbles() {
        let msg = b"secret";
        let ct = cipher().encrypt(KEY, 1, msg);
        assert_ne!(cipher().decrypt(KEY, 2, &ct), msg.to_vec());
    }

    #[test]
    fn nonce_reuse_leaks_xor_of_plaintexts() {
        // The classic two-time-pad failure — pinned as a test so the nonce
        // discipline (unique seq per channel) stays motivated.
        let a = b"AAAAAAAA";
        let b = b"BBBBBBBB";
        let ca = cipher().encrypt(KEY, 9, a);
        let cb = cipher().encrypt(KEY, 9, b);
        let xored: Vec<u8> = ca.iter().zip(&cb).map(|(x, y)| x ^ y).collect();
        let expected: Vec<u8> = a.iter().zip(b).map(|(x, y)| x ^ y).collect();
        assert_eq!(xored, expected);
    }

    #[test]
    fn keystream_blocks_are_not_repeated_within_a_message() {
        // Two identical plaintext blocks must encrypt differently (counter
        // separation).
        let msg = [0u8; 8];
        let ct = cipher().encrypt(KEY, 3, &msg);
        assert_ne!(ct[..4], ct[4..8]);
    }

    #[test]
    fn hash_pass_accounting() {
        assert_eq!(StreamCipher::hash_passes(0), 0);
        assert_eq!(StreamCipher::hash_passes(1), 1);
        assert_eq!(StreamCipher::hash_passes(4), 1);
        assert_eq!(StreamCipher::hash_passes(5), 2);
        assert_eq!(StreamCipher::hash_passes(30), 8);
    }

    #[test]
    fn ciphertext_bits_look_balanced() {
        // Weak randomness check over many nonces.
        let msg = [0u8; 4];
        let n = 4096;
        let mut ones = 0u64;
        for nonce in 0..n {
            let ct = cipher().encrypt(KEY, nonce, &msg);
            ones += ct.iter().map(|b| b.count_ones() as u64).sum::<u64>();
        }
        let frac = ones as f64 / (n as f64 * 32.0);
        assert!((0.47..0.53).contains(&frac), "bias {frac}");
    }
}
