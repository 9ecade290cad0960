//! Metered hash units.
//!
//! PISA switches expose a small number of hash/CRC units per stage; every
//! keyed-digest computation, verification and KDF invocation consumes
//! passes through them. Metering the passes is what lets the emulator
//! reproduce the paper's hash-unit numbers (Table II: P4Auth raises
//! hash-unit utilization from 1.4 % to 51.4 %) and the §XI digest-width
//! cost discussion.

use p4auth_primitives::mac::Mac;
use p4auth_primitives::{Digest32, Key64};
use serde::{Deserialize, Serialize};

/// Running counters of hash-unit work performed by a switch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HashMeter {
    /// Total digest computations (sealing outgoing messages).
    pub computes: u64,
    /// Total digest verifications (checking incoming messages).
    pub verifies: u64,
    /// Total KDF PRF passes.
    pub kdf_passes: u64,
}

/// A hash engine: a pluggable MAC behind pass metering.
///
/// The MAC is the paper's pluggable digest primitive (§XI): HalfSipHash on
/// BMv2, keyed CRC32 on Tofino.
pub struct HashEngine {
    mac: Box<dyn Mac>,
    meter: HashMeter,
}

impl std::fmt::Debug for HashEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashEngine")
            .field("mac", &self.mac.name())
            .field("meter", &self.meter)
            .finish()
    }
}

impl HashEngine {
    /// Creates an engine around a MAC.
    pub fn new(mac: Box<dyn Mac>) -> Self {
        HashEngine {
            mac,
            meter: HashMeter::default(),
        }
    }

    /// Computes a digest (metered as a compute pass).
    pub fn compute(&mut self, key: Key64, parts: &[&[u8]]) -> Digest32 {
        self.meter.computes += self.mac.hash_unit_passes() as u64;
        self.mac.compute(key, parts)
    }

    /// Verifies a digest in constant time (metered as a verify pass).
    pub fn verify(&mut self, key: Key64, parts: &[&[u8]], digest: Digest32) -> bool {
        self.meter.verifies += self.mac.hash_unit_passes() as u64;
        self.mac.verify(key, parts, digest)
    }

    /// Records `passes` KDF PRF invocations (the KDF runs outside the MAC
    /// but on the same physical units).
    pub fn record_kdf_passes(&mut self, passes: u32) {
        self.meter.kdf_passes += passes as u64;
    }

    /// Current meter snapshot.
    pub fn meter(&self) -> HashMeter {
        self.meter
    }

    /// Borrow the underlying MAC (for protocol code that needs to seal
    /// [`p4auth_wire::Message`]s — metering via [`Self::compute`] is still
    /// preferred).
    pub fn mac(&self) -> &dyn Mac {
        self.mac.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_primitives::mac::HalfSipHashMac;

    #[test]
    fn metering_counts_passes() {
        let mut e = HashEngine::new(Box::new(HalfSipHashMac::default()));
        let k = Key64::new(1);
        let d = e.compute(k, &[b"x"]);
        assert!(e.verify(k, &[b"x"], d));
        assert!(!e.verify(k, &[b"y"], d));
        e.record_kdf_passes(4);
        let m = e.meter();
        assert_eq!(m.computes, 1);
        assert_eq!(m.verifies, 2);
        assert_eq!(m.kdf_passes, 4);
    }

    #[test]
    fn engine_digests_match_bare_mac() {
        let mut e = HashEngine::new(Box::new(HalfSipHashMac::default()));
        let bare = HalfSipHashMac::default();
        let k = Key64::new(42);
        assert_eq!(
            e.compute(k, &[b"hdr", b"body"]),
            p4auth_primitives::mac::Mac::compute(&bare, k, &[b"hdr", b"body"])
        );
    }
}
