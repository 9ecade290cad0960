//! # p4auth-bench
//!
//! The experiment-reproduction harness. The `repro` binary regenerates
//! every table and figure of the paper's evaluation (§IX) from the
//! printers in [`report`], plus the machine-readable telemetry, timeline,
//! trace, replica, users and scenario reports CI diffs and gates;
//! `EXPERIMENTS.md` records paper-vs-measured values.
//!
//! Four Criterion benches time what neither `repro` nor the standalone
//! `benchmark/` package does (verdicts for these and the deleted ones in
//! `EXPERIMENTS.md`):
//!
//! | target | times |
//! |--------|-------|
//! | `fig18_rct` | the agent's register request path with authentication on vs. off (`insecure_baseline`) |
//! | `primitives` | MAC / KDF / DH micro-benchmarks across profiles, sizes and round counts |
//! | `telemetry_overhead` | the Fig. 18 register loop on one agent, bare vs. with a registry attached |
//! | `timeline_export` | cost of the sim-clock timeline recorder at two export intervals |

pub mod report;
/// The fault-injection scenario campaigns behind `repro -- scenarios`.
pub use p4auth_systems::campaigns;
/// The fat-tree scale workload, shared with the systems crate so CI, the
/// `timeline_export` bench and `repro -- timeline` all drive identical
/// runs.
pub use p4auth_systems::scaleload as scale;
/// The aggregate-host user-scale workload behind `repro -- users`.
pub use p4auth_systems::userscale;

use p4auth_dataplane::cost::{
    request_completion_ns, sequential_throughput_rps, AccessMethod, CostModel, RwDirection,
    TargetProfile,
};

/// Hash passes one register request costs the data plane under P4Auth
/// (verify the request + seal the response).
pub const REGISTER_DIGEST_PASSES: u32 = 2;

/// One row of the Fig. 18 / Fig. 19 tables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RwRow {
    /// Access method.
    pub method: AccessMethod,
    /// Read request completion time (ns).
    pub read_rct_ns: u64,
    /// Write request completion time (ns).
    pub write_rct_ns: u64,
}

impl RwRow {
    /// Read throughput (requests/s, sequential closed loop).
    pub fn read_rps(&self) -> f64 {
        sequential_throughput_rps(self.read_rct_ns)
    }

    /// Write throughput (requests/s).
    pub fn write_rps(&self) -> f64 {
        sequential_throughput_rps(self.write_rct_ns)
    }
}

/// Computes the Fig. 18/19 rows on the Tofino profile.
pub fn rw_rows() -> Vec<RwRow> {
    let model = CostModel::for_profile(TargetProfile::Tofino);
    AccessMethod::ALL
        .into_iter()
        .map(|method| RwRow {
            method,
            read_rct_ns: request_completion_ns(
                &model,
                method,
                RwDirection::Read,
                REGISTER_DIGEST_PASSES,
            ),
            write_rct_ns: request_completion_ns(
                &model,
                method,
                RwDirection::Write,
                REGISTER_DIGEST_PASSES,
            ),
        })
        .collect()
}

/// Prints a boxed experiment banner.
pub fn banner(title: &str, paper_ref: &str) {
    println!();
    println!("================================================================");
    println!("  {title}");
    println!("  reproduces: {paper_ref}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_all_methods_in_order() {
        let rows = rw_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].method, AccessMethod::P4Runtime);
        assert_eq!(rows[2].method, AccessMethod::P4Auth);
    }

    #[test]
    fn fig19_shape_holds() {
        let rows = rw_rows();
        let p4rt = rows[0];
        let dp = rows[1];
        let auth = rows[2];
        // P4Runtime read throughput ~1.7x its write throughput.
        let ratio = p4rt.read_rps() / p4rt.write_rps();
        assert!((1.5..=1.9).contains(&ratio), "ratio {ratio}");
        // P4Auth within a few percent of DP-Reg-RW; reads hit harder.
        let read_drop = 1.0 - auth.read_rps() / dp.read_rps();
        let write_drop = 1.0 - auth.write_rps() / dp.write_rps();
        assert!(read_drop > 0.0 && read_drop < 0.08, "read drop {read_drop}");
        assert!(
            write_drop > 0.0 && write_drop < 0.05,
            "write drop {write_drop}"
        );
        assert!(read_drop > write_drop, "reads bear the larger overhead");
    }
}
