//! Property-based tests over the P4Auth primitives.

use p4auth_primitives::crc32::{crc32, crc32_parts, Crc32};
use p4auth_primitives::ct;
use p4auth_primitives::dh::{exchange, DhParams, DhPrivate};
use p4auth_primitives::kdf::{Crc32Prf, Kdf, KdfConfig};
use p4auth_primitives::mac::{Crc32Mac, HalfSipHashMac, Mac};
use p4auth_primitives::siphash::{half_siphash24, HalfSipHasher};
use p4auth_primitives::{Key64, Salt64};
use proptest::prelude::*;

proptest! {
    /// The modified DH exchange always agrees on the pre-master secret.
    #[test]
    fn dh_always_agrees(r1: u64, r2: u64) {
        let params = DhParams::recommended();
        let (ka, kb) = exchange(&params, DhPrivate::new(r1), DhPrivate::new(r2));
        prop_assert_eq!(ka, kb);
    }

    /// DH with arbitrary valid parameters still agrees.
    #[test]
    fn dh_agrees_for_any_valid_params(p: u64, r1: u64, r2: u64) {
        // Force a full-weight mask so parameters are always valid.
        let params = DhParams::new(p, !p).unwrap();
        let (ka, kb) = exchange(&params, DhPrivate::new(r1), DhPrivate::new(r2));
        prop_assert_eq!(ka, kb);
    }

    /// The public key never leaks private bits outside the shared mask.
    #[test]
    fn dh_public_key_confined_to_mask(r: u64) {
        let params = DhParams::recommended();
        let pk = DhPrivate::new(r).public_key(&params);
        prop_assert_eq!(pk.to_raw() & !params.mask(), 0);
    }

    /// CRC over parts equals CRC over concatenation, for any split.
    #[test]
    fn crc_parts_equal_concat(data in proptest::collection::vec(any::<u8>(), 0..256), split in 0usize..256) {
        let split = split.min(data.len());
        let (a, b) = data.split_at(split);
        prop_assert_eq!(crc32_parts(&[a, b]), crc32(&data));
    }

    /// CRC is incremental-consistent for any chunking.
    #[test]
    fn crc_incremental(data in proptest::collection::vec(any::<u8>(), 0..512), chunk in 1usize..64) {
        let mut h = Crc32::new();
        for c in data.chunks(chunk) {
            h.update(c);
        }
        prop_assert_eq!(h.finalize(), crc32(&data));
    }

    /// HalfSipHash incremental == one-shot for any split point.
    #[test]
    fn siphash_incremental(data in proptest::collection::vec(any::<u8>(), 0..256), split in 0usize..256, key: u64) {
        let split = split.min(data.len());
        let k = Key64::new(key);
        let mut h = HalfSipHasher::new(k);
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), half_siphash24(k, &data));
    }

    /// MAC verification accepts exactly what was computed.
    #[test]
    fn mac_roundtrip(key: u64, data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mac = HalfSipHashMac::default();
        let k = Key64::new(key);
        let d = mac.compute(k, &[&data]);
        prop_assert!(mac.verify(k, &[&data], d));
    }

    /// A single flipped bit in the message is always detected by the
    /// HalfSipHash MAC.
    #[test]
    fn mac_detects_any_bitflip(
        key: u64,
        data in proptest::collection::vec(any::<u8>(), 1..64),
        bit_idx in 0usize..512,
    ) {
        let mac = HalfSipHashMac::default();
        let k = Key64::new(key);
        let d = mac.compute(k, &[&data]);
        let mut tampered = data.clone();
        let bit = bit_idx % (data.len() * 8);
        tampered[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(!mac.verify(k, &[&tampered], d));
    }

    /// Keyed CRC also detects single bit flips (linearity makes chosen
    /// *differences* forgeable, but a blind flip still changes the digest).
    #[test]
    fn crc_mac_detects_any_bitflip(
        key: u64,
        data in proptest::collection::vec(any::<u8>(), 1..64),
        bit_idx in 0usize..512,
    ) {
        let mac = Crc32Mac;
        let k = Key64::new(key);
        let d = mac.compute(k, &[&data]);
        let mut tampered = data.clone();
        let bit = bit_idx % (data.len() * 8);
        tampered[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(!mac.verify(k, &[&tampered], d));
    }

    /// KDF is a deterministic function of (secret, salt) and both inputs
    /// matter.
    #[test]
    fn kdf_deterministic_and_input_sensitive(k: u64, s: u64) {
        let kdf = Kdf::default();
        let out = kdf.derive(Key64::new(k), Salt64::new(s));
        prop_assert_eq!(out, kdf.derive(Key64::new(k), Salt64::new(s)));
        prop_assert_ne!(out, kdf.derive(Key64::new(k ^ 1), Salt64::new(s)));
        prop_assert_ne!(out, kdf.derive(Key64::new(k), Salt64::new(s ^ 1)));
    }

    /// The CRC-PRF profile of the KDF behaves the same way.
    #[test]
    fn kdf_crc_profile_deterministic(k: u64, s: u64) {
        let kdf = Kdf::with_prf(Box::new(Crc32Prf), KdfConfig::PAPER);
        let out = kdf.derive(Key64::new(k), Salt64::new(s));
        prop_assert_eq!(out, kdf.derive(Key64::new(k), Salt64::new(s)));
    }

    /// Constant-time comparators agree with `==`.
    #[test]
    fn ct_matches_operator_eq(a: u32, b: u32, x: u64, y: u64) {
        prop_assert_eq!(ct::eq_u32(a, b), a == b);
        prop_assert_eq!(ct::eq_u64(x, y), x == y);
        prop_assert!(ct::eq_u32(a, a));
        prop_assert!(ct::eq_u64(x, x));
    }

    /// Constant-time byte comparison agrees with `==`.
    #[test]
    fn ct_bytes_matches_eq(a in proptest::collection::vec(any::<u8>(), 0..64),
                           b in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(ct::eq_bytes(&a, &b), a == b);
        prop_assert!(ct::eq_bytes(&a, &a));
    }

    /// End-to-end: DH exchange + KDF derives equal master keys on both ends
    /// and distinct exchanges produce distinct keys (with overwhelming
    /// probability for random inputs).
    #[test]
    fn handshake_end_to_end(r1: u64, r2: u64, s1: u32, s2: u32) {
        let params = DhParams::recommended();
        let kdf = Kdf::default();
        let salt = Salt64::combine(s1, s2);
        let (ka, kb) = exchange(&params, DhPrivate::new(r1), DhPrivate::new(r2));
        let master_a = kdf.derive(ka.into(), salt);
        let master_b = kdf.derive(kb.into(), salt);
        prop_assert_eq!(master_a, master_b);
    }
}
