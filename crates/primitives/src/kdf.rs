//! Custom key-derivation function following TLS 1.3's *Extract-and-Expand*
//! principle (HKDF, RFC 5869; Krawczyk 2010), built from a 32-bit PRF.
//!
//! Paper §VI-D / Fig. 13: the KDF takes a 64-bit secret (`K_in`) and 64-bit
//! public salt and produces a "close-to-random" 64-bit key. Because the
//! available PRFs produce 32-bit outputs, the expand step runs the PRF twice
//! (hi and lo halves). The round count is configurable; the hardware
//! prototype sets rounds to one with CRC32 as the PRF (§VII), while the BMv2
//! profile uses HalfSipHash.

use crate::crc32::Crc32;
use crate::siphash::half_siphash24;
use crate::types::{Key64, Salt64};

/// A 32-bit pseudo-random function keyed by a 64-bit key.
///
/// This is the pluggable "PRF" slot of the P4Auth framework (§XI lists it as
/// one of the three replaceable primitives). Implementations must be pure
/// functions of `(key, data)`.
pub trait Prf32: Send + Sync {
    /// Evaluates the PRF over `data` under `key`.
    fn eval(&self, key: Key64, data: &[u8]) -> u32;

    /// Short human-readable name used in experiment reports.
    fn name(&self) -> &'static str;
}

/// CRC32 used as a PRF: the key seeds the CRC initial state and is also
/// mixed into the tail. This mirrors the Tofino prototype, which only has
/// CRC units (§VII). CRC is linear — this PRF is *not* cryptographically
/// strong and exists to reproduce the paper's hardware profile faithfully.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Crc32Prf;

impl Prf32 for Crc32Prf {
    fn eval(&self, key: Key64, data: &[u8]) -> u32 {
        let mut h = Crc32::with_init(key.hi() ^ key.lo().rotate_left(16));
        h.update(&key.to_be_bytes());
        h.update(data);
        h.update(&key.to_be_bytes());
        h.finalize()
    }

    fn name(&self) -> &'static str {
        "crc32"
    }
}

/// HalfSipHash-2-4 used as the PRF (the BMv2 / recommended profile).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HalfSipHashPrf;

impl Prf32 for HalfSipHashPrf {
    fn eval(&self, key: Key64, data: &[u8]) -> u32 {
        half_siphash24(key, data)
    }

    fn name(&self) -> &'static str {
        "half-siphash-2-4"
    }
}

/// Configuration of the Extract-and-Expand KDF.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KdfConfig {
    /// Number of expand rounds. The paper's prototype uses 1 (§VII); the
    /// ablation benches sweep this.
    pub rounds: u32,
}

impl KdfConfig {
    /// The paper's prototype configuration (one expand round).
    pub const PAPER: KdfConfig = KdfConfig { rounds: 1 };
}

impl Default for KdfConfig {
    fn default() -> Self {
        KdfConfig::PAPER
    }
}

/// The Extract-and-Expand key-derivation function.
///
/// * **Extract**: `prk = PRF(salt-as-key, K_in) || PRF(salt', K_in)` — the
///   salt keys the PRF and the input secret is the message, concentrating
///   the secret's entropy into a pseudo-random key.
/// * **Expand**: each round computes
///   `hi = PRF(prk, salt || ctr)`, `lo = PRF(prk, salt || ctr+1)` and feeds
///   `hi || lo` forward. Two PRF invocations per round produce the 64-bit
///   output from a 32-bit PRF, exactly as Fig. 13 describes.
pub struct Kdf {
    prf: Box<dyn Prf32>,
    config: KdfConfig,
}

impl std::fmt::Debug for Kdf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kdf")
            .field("prf", &self.prf.name())
            .field("config", &self.config)
            .finish()
    }
}

impl Default for Kdf {
    fn default() -> Self {
        Kdf::new(KdfConfig::default())
    }
}

impl Kdf {
    /// KDF with the default (HalfSipHash) PRF.
    pub fn new(config: KdfConfig) -> Self {
        Kdf {
            prf: Box::new(HalfSipHashPrf),
            config,
        }
    }

    /// KDF with an explicit PRF (e.g. [`Crc32Prf`] for the Tofino profile).
    pub fn with_prf(prf: Box<dyn Prf32>, config: KdfConfig) -> Self {
        Kdf { prf, config }
    }

    /// Configured expand rounds.
    pub fn config(&self) -> KdfConfig {
        self.config
    }

    /// Derives a 64-bit key from the input secret and public salt.
    ///
    /// Used for `K_auth = KDF(K_seed, S1||S2)` in EAK and
    /// `K_local`/`K_port = KDF(K_pms, S1||S2)` in ADHKD.
    pub fn derive(&self, k_in: Key64, salt: Salt64) -> Key64 {
        // Extract: concentrate entropy of k_in under the public salt.
        let salt_key = Key64::new(salt.value());
        let salt_key2 = Key64::new(salt.value().rotate_left(32) ^ 0xa5a5_a5a5_a5a5_a5a5);
        let prk_hi = self.prf.eval(salt_key, &k_in.to_be_bytes());
        let prk_lo = self.prf.eval(salt_key2, &k_in.to_be_bytes());
        let mut prk = Key64::new(((prk_hi as u64) << 32) | prk_lo as u64);

        // Expand: PRF executed twice per round to produce 64 bits.
        let salt_bytes = salt.to_be_bytes();
        for round in 0..self.config.rounds.max(1) {
            let mut msg_hi = [0u8; 9];
            msg_hi[..8].copy_from_slice(&salt_bytes);
            msg_hi[8] = (2 * round + 1) as u8;
            let mut msg_lo = msg_hi;
            msg_lo[8] = (2 * round + 2) as u8;
            let hi = self.prf.eval(prk, &msg_hi);
            let lo = self.prf.eval(prk, &msg_lo);
            prk = Key64::new(((hi as u64) << 32) | lo as u64);
        }
        prk
    }

    /// Derives a labelled sub-key from a master secret, supporting the §XI
    /// extension of deriving multiple cryptographically-unrelated keys
    /// (e.g. separate authentication and encryption keys, IVs, nonces).
    pub fn derive_labelled(&self, master: Key64, salt: Salt64, label: &str) -> Key64 {
        let mixed = Salt64::new(salt.value() ^ self.prf.eval(master, label.as_bytes()) as u64);
        self.derive(master, mixed)
    }
}

/// Number of PRF invocations one [`Kdf::derive`] call performs — used by the
/// data-plane resource model to cost hash-unit usage.
pub fn prf_invocations(config: KdfConfig) -> u32 {
    2 + 2 * config.rounds.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kdf() -> Kdf {
        Kdf::default()
    }

    #[test]
    fn deterministic() {
        let k = Key64::new(42);
        let s = Salt64::new(7);
        assert_eq!(kdf().derive(k, s), kdf().derive(k, s));
    }

    #[test]
    fn different_salts_give_different_keys() {
        let k = Key64::new(42);
        assert_ne!(
            kdf().derive(k, Salt64::new(1)),
            kdf().derive(k, Salt64::new(2))
        );
    }

    #[test]
    fn different_secrets_give_different_keys() {
        let s = Salt64::new(7);
        assert_ne!(
            kdf().derive(Key64::new(1), s),
            kdf().derive(Key64::new(2), s)
        );
    }

    #[test]
    fn output_differs_from_input() {
        let k = Key64::new(0x0123_4567_89ab_cdef);
        let s = Salt64::new(0);
        assert_ne!(kdf().derive(k, s), k);
    }

    #[test]
    fn crc_profile_differs_from_siphash_profile() {
        let k = Key64::new(99);
        let s = Salt64::new(3);
        let crc = Kdf::with_prf(Box::new(Crc32Prf), KdfConfig::PAPER);
        assert_ne!(crc.derive(k, s), kdf().derive(k, s));
    }

    #[test]
    fn round_count_changes_output() {
        let k = Key64::new(5);
        let s = Salt64::new(6);
        let one = Kdf::new(KdfConfig { rounds: 1 });
        let two = Kdf::new(KdfConfig { rounds: 2 });
        assert_ne!(one.derive(k, s), two.derive(k, s));
    }

    #[test]
    fn labelled_derivation_separates_keys() {
        let master = Key64::new(0xfeed);
        let s = Salt64::new(0xbeef);
        let auth = kdf().derive_labelled(master, s, "auth");
        let enc = kdf().derive_labelled(master, s, "enc");
        assert_ne!(auth, enc);
        assert_ne!(auth, master);
    }

    #[test]
    fn prf_invocation_count() {
        assert_eq!(prf_invocations(KdfConfig { rounds: 1 }), 4);
        assert_eq!(prf_invocations(KdfConfig { rounds: 3 }), 8);
        // rounds=0 is clamped to 1.
        assert_eq!(prf_invocations(KdfConfig { rounds: 0 }), 4);
    }

    #[test]
    fn output_bits_are_balanced_over_many_salts() {
        // "Close-to-random" sanity check (§VI-D): across 4096 derivations,
        // every output bit position should be set roughly half the time.
        let k = Key64::new(0xdead_beef_1234_5678);
        let n = 4096u64;
        let mut ones = [0u32; 64];
        for i in 0..n {
            let out = kdf().derive(k, Salt64::new(i)).expose();
            for (bit, count) in ones.iter_mut().enumerate() {
                *count += ((out >> bit) & 1) as u32;
            }
        }
        for (bit, &count) in ones.iter().enumerate() {
            let frac = count as f64 / n as f64;
            assert!((0.42..=0.58).contains(&frac), "bit {bit} biased: {frac}");
        }
    }
}
