//! Keyed message digests (the paper's "HMAC" slot, §V / §VII).
//!
//! P4Auth tags every protocol message with
//! `digest = HMAC_K(p4auth_h || p4auth_payload)` (Eqn. 4). Two MACs are
//! provided, after the two prototype targets:
//!
//! * [`HalfSipHashMac`] — the BMv2 prototype's; HalfSipHash is already a
//!   keyed short-input PRF, so it is used directly as the MAC. Every
//!   chassis and controller runs it, on both target profiles.
//! * [`Crc32Mac`] — the Tofino prototype's; CRC32 is the only hash that
//!   hardware offers, keyed by seeding the initial state and enveloping
//!   the message with the key. Linear, hence weak — kept for the
//!   cost/security comparison in the `primitives` bench and the property
//!   tests; nothing in the protocol runs it.
//!
//! [`DigestWidth`] names the §XI digest-width ablation's widths; what a
//! wider digest costs is priced by the data plane's resource model, not
//! computed here.

use crate::crc32::Crc32;
use crate::ct;
use crate::siphash::HalfSipHasher;
use crate::types::{Digest32, Key64};

/// A keyed 32-bit message-authentication code over a list of byte slices.
///
/// The slice-list signature mirrors the BMv2 `compute_digest` extern, which
/// takes "a 64-bit secret key and a variable list of arguments over which
/// the digest needs to be computed" (§VII).
pub trait Mac: Send + Sync {
    /// Computes the digest of the concatenation of `parts` under `key`.
    fn compute(&self, key: Key64, parts: &[&[u8]]) -> Digest32;

    /// Verifies `digest` in constant time.
    fn verify(&self, key: Key64, parts: &[&[u8]], digest: Digest32) -> bool {
        ct::eq_u32(self.compute(key, parts).value(), digest.value())
    }

    /// Short human-readable name used in experiment reports.
    fn name(&self) -> &'static str;

    /// Number of hash-unit passes one digest computation costs in the
    /// data-plane resource model.
    fn hash_unit_passes(&self) -> u32 {
        1
    }
}

/// HalfSipHash-2-4 as the MAC (BMv2 / recommended profile).
///
/// Built with `HalfSipHashMac::default()`, the spelling every call site
/// uses (the benchmark's adapter included); `#[non_exhaustive]` keeps
/// clippy from flagging each one as a defaulted unit struct.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct HalfSipHashMac;

impl Mac for HalfSipHashMac {
    fn compute(&self, key: Key64, parts: &[&[u8]]) -> Digest32 {
        let mut h = HalfSipHasher::new(key);
        for part in parts {
            h.update(part);
        }
        Digest32::new(h.finalize())
    }

    fn name(&self) -> &'static str {
        "half-siphash"
    }
}

/// Keyed CRC32 (Tofino profile): `crc32(init=f(K), K || msg || K)`.
///
/// The key seeds the CRC initial value (Tofino CRC units have a
/// configurable init) and envelopes the message. CRC's linearity means an
/// adversary who can inject chosen differences can forge — acceptable only
/// because the paper's hardware target offers nothing stronger; see §XI for
/// the planned pluggable upgrade path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Crc32Mac;

impl Mac for Crc32Mac {
    fn compute(&self, key: Key64, parts: &[&[u8]]) -> Digest32 {
        let mut h = Crc32::with_init(key.hi().wrapping_add(key.lo().rotate_left(13)));
        h.update(&key.to_be_bytes());
        for part in parts {
            h.update(part);
        }
        h.update(&key.to_be_bytes());
        Digest32::new(h.finalize())
    }

    fn name(&self) -> &'static str {
        "keyed-crc32"
    }
}

/// Digest width for the §XI ablation, in 32-bit words.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DigestWidth {
    /// 32-bit digest (paper default).
    W32,
    /// 64-bit digest.
    W64,
    /// 128-bit digest.
    W128,
    /// 256-bit digest (§XI: +560 % hash units, +100 % stages).
    W256,
}

impl DigestWidth {
    /// Width in 32-bit words.
    pub const fn words(self) -> usize {
        match self {
            DigestWidth::W32 => 1,
            DigestWidth::W64 => 2,
            DigestWidth::W128 => 4,
            DigestWidth::W256 => 8,
        }
    }

    /// Width in bits.
    pub const fn bits(self) -> usize {
        self.words() * 32
    }

    /// All supported widths, narrowest first.
    pub const ALL: [DigestWidth; 4] = [
        DigestWidth::W32,
        DigestWidth::W64,
        DigestWidth::W128,
        DigestWidth::W256,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key64 {
        Key64::new(0x0f0e_0d0c_0b0a_0908)
    }

    #[test]
    fn siphash_mac_roundtrip() {
        let mac = HalfSipHashMac::default();
        let d = mac.compute(key(), &[b"hdr", b"payload"]);
        assert!(mac.verify(key(), &[b"hdr", b"payload"], d));
    }

    #[test]
    fn siphash_mac_rejects_tamper() {
        let mac = HalfSipHashMac::default();
        let d = mac.compute(key(), &[b"probeUtil=10"]);
        assert!(!mac.verify(key(), &[b"probeUtil=50"], d));
    }

    #[test]
    fn siphash_mac_rejects_wrong_key() {
        let mac = HalfSipHashMac::default();
        let d = mac.compute(key(), &[b"msg"]);
        assert!(!mac.verify(Key64::new(1), &[b"msg"], d));
    }

    #[test]
    fn parts_are_concatenated() {
        // The MAC must be a function of the concatenated bytes, matching the
        // field-list semantics of a hash unit.
        let mac = HalfSipHashMac::default();
        assert_eq!(
            mac.compute(key(), &[b"ab", b"cd"]),
            mac.compute(key(), &[b"abcd"])
        );
    }

    #[test]
    fn crc_mac_roundtrip_and_tamper() {
        let mac = Crc32Mac;
        let d = mac.compute(key(), &[b"register write idx=3 val=9"]);
        assert!(mac.verify(key(), &[b"register write idx=3 val=9"], d));
        assert!(!mac.verify(key(), &[b"register write idx=3 val=8"], d));
    }

    #[test]
    fn crc_mac_key_dependence() {
        let mac = Crc32Mac;
        assert_ne!(
            mac.compute(Key64::new(1), &[b"m"]),
            mac.compute(Key64::new(2), &[b"m"])
        );
    }

    #[test]
    fn profiles_disagree() {
        let sip = HalfSipHashMac::default();
        let crc = Crc32Mac;
        assert_ne!(sip.compute(key(), &[b"x"]), crc.compute(key(), &[b"x"]));
    }

    #[test]
    fn crc_mac_is_linear_hence_weak() {
        // Documents the known weakness: for CRC, d(m1) ^ d(m2) ^ d(m3) over
        // same-length messages equals d(m1 ^ m2 ^ m3) — a structure HalfSipHash
        // does not exhibit. (This is why the paper treats the MAC as a
        // pluggable slot.)
        let mac = Crc32Mac;
        let m1 = [0u8; 8];
        let m2 = [0xffu8; 8];
        let m3 = [0x0fu8; 8];
        let m123: Vec<u8> = (0..8).map(|i| m1[i] ^ m2[i] ^ m3[i]).collect();
        let combo = mac.compute(key(), &[&m1]).value()
            ^ mac.compute(key(), &[&m2]).value()
            ^ mac.compute(key(), &[&m3]).value();
        assert_eq!(combo, mac.compute(key(), &[&m123]).value());

        let sip = HalfSipHashMac::default();
        let sip_combo = sip.compute(key(), &[&m1]).value()
            ^ sip.compute(key(), &[&m2]).value()
            ^ sip.compute(key(), &[&m3]).value();
        assert_ne!(sip_combo, sip.compute(key(), &[&m123]).value());
    }
}
