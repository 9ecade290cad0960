//! # p4auth-bench
//!
//! The experiment-reproduction harness. The `repro` binary regenerates
//! every table and figure of the paper's evaluation (§IX) from the
//! printers in [`report`], plus the machine-readable telemetry, timeline,
//! trace, replica, users and scenario reports CI diffs and gates;
//! `EXPERIMENTS.md` records paper-vs-measured values.
//!
//! The host cost of this implementation is measured by the standalone
//! `benchmark/` package's workloads and per-layer ledger, not here.

pub mod digests;
pub mod report;

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
    use p4auth_core::agent::{AgentConfig, P4AuthSwitch};
    use p4auth_dataplane::register::RegisterArray;
    use p4auth_primitives::mac::Mac;
    use p4auth_primitives::Key64;
    use p4auth_wire::body::{Body, RegisterOp};
    use p4auth_wire::ids::{PortId, RegId, SeqNum, SwitchId};
    use p4auth_wire::{verify_frame, Message};

    const REG: RegId = RegId::new(1);
    const K_LOCAL: Key64 = Key64::new(0x10ca1);

    fn agent() -> P4AuthSwitch {
        let config =
            AgentConfig::new(SwitchId::new(1), 2, Key64::new(0x5eed)).map_register(REG, "r");
        let mut agent = P4AuthSwitch::new(config, None);
        agent
            .chassis_mut()
            .declare_register(RegisterArray::new("r", 4, 64));
        agent.install_key(PortId::CPU, K_LOCAL);
        agent
    }

    /// What one frame cost the agent's hash unit: metered verify passes,
    /// metered compute passes, and the output frames.
    fn digest_work(agent: &mut P4AuthSwitch, frame: &[u8]) -> (u64, u64, Vec<Vec<u8>>) {
        let before = agent.chassis().hash_meter();
        let out = agent.on_packet(0, PortId::CPU, frame);
        let after = agent.chassis().hash_meter();
        // The pipeline's own count matches the meter (DESIGN §4j: it
        // misses the reply's seal, as the meter does).
        assert_eq!(u64::from(out.hash_passes), after.verifies - before.verifies);
        let frames = out.outputs.into_iter().map(|(_, bytes)| bytes).collect();
        (
            after.verifies - before.verifies,
            after.computes - before.computes,
            frames,
        )
    }

    /// Fig. 18/19 charge `REGISTER_DIGEST_PASSES` per op: verify the
    /// request, seal the reply. On the agent that is one metered verify in
    /// the pipeline and one frame sealed after it, through
    /// `Chassis::hash_mac`, which the meter does not see.
    #[test]
    fn a_register_op_is_one_metered_verify_and_one_sealed_reply() {
        let mut agent = agent();
        let mac_pass = u64::from(agent.chassis().hash_mac().hash_unit_passes());
        let ops = [
            RegisterOp::read_req(REG, 1),
            RegisterOp::write_req(REG, 1, 7),
        ];
        for (seq, op) in (1..).zip(ops) {
            let request = Message::register_request(SwitchId::CONTROLLER, SeqNum::new(seq), op)
                .sealed(agent.chassis().hash_mac(), K_LOCAL)
                .encode();
            let (verifies, computes, frames) = digest_work(&mut agent, &request);
            assert_eq!((verifies, computes), (mac_pass, 0), "{op:?}");
            assert_eq!(frames.len(), 1, "{op:?}");
            assert!(verify_frame(
                agent.chassis().hash_mac(),
                K_LOCAL,
                &frames[0]
            ));
            let sealed = frames.len() as u64;
            assert_eq!(
                u64::from(REGISTER_DIGEST_PASSES),
                verifies / mac_pass + sealed,
                "{op:?}"
            );
        }
    }

    /// A forged request costs one verify and one sealed alert, and gets
    /// no reply.
    #[test]
    fn a_rejected_register_op_is_one_verify_and_one_sealed_alert() {
        let mut agent = agent();
        let mac_pass = u64::from(agent.chassis().hash_mac().hash_unit_passes());
        let forged = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(1),
            RegisterOp::write_req(REG, 1, 7),
        )
        .sealed(agent.chassis().hash_mac(), Key64::new(0xbad))
        .encode();
        let (verifies, computes, frames) = digest_work(&mut agent, &forged);
        assert_eq!((verifies, computes), (mac_pass, 0));
        assert_eq!(frames.len(), 1, "the alert, and no reply");
        assert!(verify_frame(
            agent.chassis().hash_mac(),
            K_LOCAL,
            &frames[0]
        ));
        let alert = Message::decode(&frames[0]).unwrap();
        assert!(matches!(alert.body(), Body::Alert(_)));
        assert_eq!(agent.stats().alerts_sent, 1);
        assert_eq!(agent.stats().acks + agent.stats().nacks, 0);
    }

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
