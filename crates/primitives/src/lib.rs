//! # p4auth-primitives
//!
//! Cryptographic primitives that are *feasible on a PISA programmable data
//! plane*, as used by the P4Auth protection mechanism (DSN 2025).
//!
//! Programmable switch pipelines have no loops, no modular exponentiation,
//! no multiplication and no native security primitives; the per-packet
//! operation budget is limited to simple ALU ops (AND, XOR, ADD, rotate) and
//! a small number of hash units. Every primitive in this crate restricts
//! itself to that operation set:
//!
//! * [`dh`] — the *modified Diffie-Hellman* exchange of DH-AES-P4 / Jeon &
//!   Gil, which replaces exponentiation with AND and XOR while preserving
//!   the shared-secret property.
//! * [`kdf`] — a custom key-derivation function following TLS 1.3's
//!   *Extract-and-Expand* principle (HKDF), built on a pluggable 32-bit PRF.
//! * [`mac`] — keyed message digests: HalfSipHash-c-d (the BMv2 profile) and
//!   a keyed CRC32 construction (the Tofino profile used by the paper's
//!   hardware prototype).
//! * [`siphash`] — a from-scratch HalfSipHash implementation (32-bit words).
//! * [`crc32`] — CRC-32 (IEEE 802.3 reflected polynomial).
//! * [`stream`] — a counter-mode PRF stream cipher (the §XI symmetric
//!   encryption extension).
//! * [`rng`] — a deterministic stand-in for the P4 `random()` extern.
//! * [`ct`] — constant-time comparison helpers.
//! * [`idhash`] — the fixed, unkeyed hasher behind every id-keyed map on
//!   the register-op path (not a cryptographic primitive; it lives here
//!   because every other crate already depends on this one).
//!
//! ## Quickstart
//!
//! ```
//! use p4auth_primitives::dh::{DhParams, DhPrivate};
//! use p4auth_primitives::kdf::{Kdf, KdfConfig};
//! use p4auth_primitives::mac::{Mac, HalfSipHashMac};
//! use p4auth_primitives::{Key64, Salt64};
//!
//! // Modified DH: both endpoints derive the same pre-master secret.
//! let params = DhParams::recommended();
//! let a = DhPrivate::new(0x1234_5678_9abc_def0);
//! let b = DhPrivate::new(0x0fed_cba9_8765_4321);
//! let pk_a = a.public_key(&params);
//! let pk_b = b.public_key(&params);
//! assert_eq!(a.pre_master(&params, pk_b), b.pre_master(&params, pk_a));
//!
//! // KDF turns the pre-master secret + public salt into a master key.
//! let kdf = Kdf::new(KdfConfig::default());
//! let k_pms = a.pre_master(&params, pk_b);
//! let master: Key64 = kdf.derive(k_pms.into(), Salt64::new(0xdead_beef));
//!
//! // The master key authenticates messages via a keyed digest.
//! let mac = HalfSipHashMac::default();
//! let digest = mac.compute(master, &[b"probeUtil=42"]);
//! assert!(mac.verify(master, &[b"probeUtil=42"], digest));
//! assert!(!mac.verify(master, &[b"probeUtil=99"], digest));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc32;
pub mod ct;
pub mod dh;
pub mod idhash;
pub mod kdf;
pub mod mac;
pub mod rng;
pub mod siphash;
pub mod stream;

mod types;

pub use types::{Digest32, Key64, Salt64};
