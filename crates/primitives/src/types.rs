//! Core value types shared by every P4Auth primitive.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A 64-bit secret key (`K_seed`, `K_auth`, `K_local` or `K_port`).
///
/// The paper uses 64-bit keys throughout because the Tofino key register is
/// a 64-bit register array (§VII); key secrecy is maintained by periodic
/// rollover (§VIII, "Secret key size"). The `Debug` representation redacts
/// the value so keys do not leak into logs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Key64(u64);

impl Key64 {
    /// Wraps a raw 64-bit key value.
    pub const fn new(raw: u64) -> Self {
        Key64(raw)
    }

    /// Returns the raw key material.
    ///
    /// Only the MAC/KDF engines and the emulated key registers should need
    /// this; everything else should treat keys as opaque.
    pub const fn expose(self) -> u64 {
        self.0
    }

    /// Upper 32 bits of the key, as loaded into HalfSipHash state words.
    pub const fn hi(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// Lower 32 bits of the key.
    pub const fn lo(self) -> u32 {
        self.0 as u32
    }

    /// Big-endian byte representation (for feeding the key into a PRF).
    pub const fn to_be_bytes(self) -> [u8; 8] {
        self.0.to_be_bytes()
    }
}

impl fmt::Debug for Key64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Key64(<redacted>)")
    }
}

impl From<u64> for Key64 {
    fn from(raw: u64) -> Self {
        Key64(raw)
    }
}

/// A 64-bit public salt used by the KDF (`S = S1 || S2` in EAK/ADHKD).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Salt64(u64);

impl Salt64 {
    /// Wraps a raw salt value.
    pub const fn new(raw: u64) -> Self {
        Salt64(raw)
    }

    /// Returns the raw salt. Salts are public material, so no redaction.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Combines two 32-bit half-salts (`S1` from one endpoint, `S2` from the
    /// other) into the full 64-bit KDF salt, `S = S1 || S2`.
    pub const fn combine(s1: u32, s2: u32) -> Self {
        Salt64(((s1 as u64) << 32) | s2 as u64)
    }

    /// Big-endian byte representation.
    pub const fn to_be_bytes(self) -> [u8; 8] {
        self.0.to_be_bytes()
    }
}

impl fmt::Debug for Salt64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Salt64({:#018x})", self.0)
    }
}

impl From<u64> for Salt64 {
    fn from(raw: u64) -> Self {
        Salt64(raw)
    }
}

/// The 32-bit message digest carried in the P4Auth header.
///
/// 32 bits is the paper's default (§VIII, "Digest size"): a forger gets one
/// in `2^32` odds per trial and every failed trial raises an alert.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Digest32(u32);

impl Digest32 {
    /// Wraps a raw digest value.
    pub const fn new(raw: u32) -> Self {
        Digest32(raw)
    }

    /// Returns the raw digest value.
    pub const fn value(self) -> u32 {
        self.0
    }

    /// Big-endian byte representation (as carried on the wire).
    pub const fn to_be_bytes(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl fmt::Debug for Digest32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest32({:#010x})", self.0)
    }
}

impl fmt::LowerHex for Digest32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u32> for Digest32 {
    fn from(raw: u32) -> Self {
        Digest32(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_debug_is_redacted() {
        let k = Key64::new(0xdeadbeef_cafebabe);
        assert_eq!(format!("{k:?}"), "Key64(<redacted>)");
    }

    #[test]
    fn key_halves_roundtrip() {
        let k = Key64::new(0x01234567_89abcdef);
        assert_eq!(k.hi(), 0x01234567);
        assert_eq!(k.lo(), 0x89abcdef);
        assert_eq!(((k.hi() as u64) << 32) | k.lo() as u64, k.expose());
    }

    #[test]
    fn salt_combine_places_halves() {
        let s = Salt64::combine(0xaaaa_bbbb, 0xcccc_dddd);
        assert_eq!(s.value(), 0xaaaa_bbbb_cccc_dddd);
    }

    #[test]
    fn digest_byte_encoding_is_big_endian() {
        let d = Digest32::new(0x0102_0304);
        assert_eq!(d.to_be_bytes(), [1, 2, 3, 4]);
    }
}
