//! Exchange of Authentication Key (EAK), Fig. 11.
//!
//! EAK runs at switch boot to derive `K_auth`, the key that protects C-DP
//! communication *during* the subsequent master-secret generation. Both
//! ends hold the pre-shared `K_seed` (baked into the switch binary); they
//! exchange random half-salts `S1` (controller→DP) and `S2` (DP→controller)
//! and each computes `K_auth = KDF(K_seed, S1 || S2)`.
//!
//! Every EAK message is authenticated with `K_seed` itself; an on-path
//! adversary who does not know `K_seed` can neither forge salts nor learn
//! anything useful from them (salts are public inputs to the KDF).

use p4auth_primitives::kdf::Kdf;
use p4auth_primitives::rng::RandomSource;
use p4auth_primitives::{Key64, Salt64};

/// Controller-side EAK state machine (the initiator of Fig. 11).
#[derive(Debug)]
pub struct EakInitiator {
    k_seed: Key64,
    s1: u32,
    done: bool,
}

impl EakInitiator {
    /// Step 1: generate `S1`. The returned salt is what the controller
    /// transmits in the `eakExch` message.
    pub fn start(k_seed: Key64, rng: &mut dyn RandomSource) -> (Self, u32) {
        let s1 = rng.gen_half_salt();
        (
            EakInitiator {
                k_seed,
                s1,
                done: false,
            },
            s1,
        )
    }

    /// The salt generated at start (for retransmission).
    pub fn salt1(&self) -> u32 {
        self.s1
    }

    /// Step 5: receive `S2`, derive `K_auth`.
    ///
    /// # Panics
    ///
    /// Panics if called twice — the exchange is single-shot; restart on
    /// failure.
    pub fn on_salt2(&mut self, s2: u32, kdf: &Kdf) -> Key64 {
        assert!(!self.done, "EAK initiator completed twice");
        self.done = true;
        kdf.derive(self.k_seed, Salt64::combine(self.s1, s2))
    }
}

/// The bytes of `Salt1` that `Salt2`'s digest also covers (transcript
/// binding): the initiator verifies a `Salt2` against the salt it is
/// waiting on, so an answer to any other `Salt1` fails its digest.
pub fn transcript(s1: u32) -> [u8; 4] {
    s1.to_be_bytes()
}

/// Data-plane-side EAK responder (steps 3–4 of Fig. 11): receives `S1`,
/// generates `S2`, derives `K_auth`, returns `S2` for transmission.
pub fn respond(k_seed: Key64, s1: u32, rng: &mut dyn RandomSource, kdf: &Kdf) -> (u32, Key64) {
    let s2 = rng.gen_half_salt();
    let k_auth = kdf.derive(k_seed, Salt64::combine(s1, s2));
    (s2, k_auth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_primitives::rng::{ScriptedSource, SplitMix64};

    fn kdf() -> Kdf {
        Kdf::default()
    }

    #[test]
    fn both_sides_derive_the_same_k_auth() {
        let seed = Key64::new(0x5eed_5eed_5eed_5eed);
        let mut rng_c = SplitMix64::new(1);
        let mut rng_dp = SplitMix64::new(2);
        let (mut c, s1) = EakInitiator::start(seed, &mut rng_c);
        let (s2, k_dp) = respond(seed, s1, &mut rng_dp, &kdf());
        let k_c = c.on_salt2(s2, &kdf());
        assert_eq!(k_c, k_dp);
    }

    #[test]
    fn k_auth_differs_from_k_seed() {
        let seed = Key64::new(42);
        let mut rng = SplitMix64::new(7);
        let (mut c, s1) = EakInitiator::start(seed, &mut rng);
        let (s2, _) = respond(seed, s1, &mut rng, &kdf());
        assert_ne!(c.on_salt2(s2, &kdf()), seed);
    }

    #[test]
    fn different_salts_give_different_k_auth() {
        let seed = Key64::new(42);
        let mut rng = ScriptedSource::new([100, 200]);
        let (mut c1, s1a) = EakInitiator::start(seed, &mut rng);
        let (mut c2, s1b) = EakInitiator::start(seed, &mut rng);
        assert_ne!(s1a, s1b);
        assert_ne!(c1.on_salt2(7, &kdf()), c2.on_salt2(7, &kdf()));
    }

    #[test]
    fn different_seeds_give_different_k_auth() {
        let mut rng = ScriptedSource::new([5, 5]);
        let (mut c1, s1) = EakInitiator::start(Key64::new(1), &mut rng);
        let (mut c2, s1b) = EakInitiator::start(Key64::new(2), &mut rng);
        assert_eq!(s1, s1b); // same salt by script
        assert_ne!(c1.on_salt2(9, &kdf()), c2.on_salt2(9, &kdf()));
    }

    #[test]
    fn salt1_is_remembered() {
        let mut rng = ScriptedSource::new([0xabcd]);
        let (c, s1) = EakInitiator::start(Key64::new(1), &mut rng);
        assert_eq!(c.salt1(), s1);
        assert_eq!(s1, 0xabcd);
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let mut rng = SplitMix64::new(0);
        let (mut c, _) = EakInitiator::start(Key64::new(1), &mut rng);
        let _ = c.on_salt2(1, &kdf());
        let _ = c.on_salt2(2, &kdf());
    }

    #[test]
    fn tampered_salt_causes_key_mismatch() {
        // An adversary who flips S2 in flight (without being able to forge
        // the digest — checked elsewhere) would cause derivation mismatch,
        // which surfaces as digest failures on the very next message.
        let seed = Key64::new(3);
        let mut rng = SplitMix64::new(9);
        let (mut c, s1) = EakInitiator::start(seed, &mut rng);
        let (s2, k_dp) = respond(seed, s1, &mut rng, &kdf());
        let k_c = c.on_salt2(s2 ^ 1, &kdf());
        assert_ne!(k_c, k_dp);
    }
}
