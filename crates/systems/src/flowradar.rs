//! A FlowRadar-style measurement system (Li et al., NSDI 2016) — the
//! Table I "Measurement" row as a working system.
//!
//! FlowRadar encodes per-flow counters into a compact Invertible Bloom
//! Lookup Table (IBLT) in the data plane and periodically exports it to
//! the controller, which decodes exact per-flow counts and runs loss
//! analysis by differencing counters across switches. Table I's attack:
//! tamper with the exported digest ("DP periodically exports encoded
//! flowlet information … to C") so the decoded counts — and therefore the
//! loss analysis — are poisoned.
//!
//! The IBLT here is a faithful miniature: `k` hash cells per flow, each
//! cell holding `(count_sum, flow_xor, packet_sum)`; single-flow cells
//! peel off iteratively, exactly like the real decode.

use p4auth_core::agent::InNetworkApp;
use p4auth_dataplane::chassis::{Chassis, ChassisError, PacketContext};
use p4auth_dataplane::register::RegisterArray;
use p4auth_wire::ids::PortId;
use std::collections::HashMap;

/// System id of FlowRadar frames.
pub const FLOWRADAR_SYSTEM_ID: u8 = 7;

/// First byte of measured data frames.
pub const DATA_MAGIC: u8 = 0xFB;

/// IBLT cells.
pub const CELLS: u32 = 64;
/// Hash functions per flow.
pub const K_HASHES: u32 = 3;

/// Data-plane register names: the encoded flow table, one register per
/// IBLT field (a P4 program would use three register arrays exactly so).
pub mod regs {
    /// Per-cell flow-count sum.
    pub const CELL_COUNT: &str = "fr_cell_count";
    /// Per-cell XOR of flow ids.
    pub const CELL_FLOWXOR: &str = "fr_cell_flowxor";
    /// Per-cell packet-count sum.
    pub const CELL_PKTSUM: &str = "fr_cell_pktsum";
}

/// Controller-visible register ids.
pub mod reg_ids {
    use p4auth_wire::ids::RegId;

    /// [`super::regs::CELL_COUNT`].
    pub const CELL_COUNT: RegId = RegId::new(8001);
    /// [`super::regs::CELL_FLOWXOR`].
    pub const CELL_FLOWXOR: RegId = RegId::new(8002);
    /// [`super::regs::CELL_PKTSUM`].
    pub const CELL_PKTSUM: RegId = RegId::new(8003);
    /// Every register the controller addresses, with its data-plane name:
    /// the agent's mapping table.
    pub const ALL: [(RegId, &str); 3] = [
        (CELL_COUNT, super::regs::CELL_COUNT),
        (CELL_FLOWXOR, super::regs::CELL_FLOWXOR),
        (CELL_PKTSUM, super::regs::CELL_PKTSUM),
    ];
}

/// The cell indices a flow hashes to.
pub fn cells_for(flow: u32) -> [u32; K_HASHES as usize] {
    let mut out = [0u32; K_HASHES as usize];
    for (i, slot) in out.iter_mut().enumerate() {
        let h = (flow ^ (i as u32).wrapping_mul(0x9e37_79b9)).wrapping_mul(2_654_435_761);
        *slot = h % CELLS;
    }
    out
}

/// A measured data frame: `[0xFB, flow(4)]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrFrame {
    /// Flow id.
    pub flow: u32,
}

impl FrFrame {
    /// Encodes the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![DATA_MAGIC];
        out.extend_from_slice(&self.flow.to_be_bytes());
        out
    }

    /// Decodes a frame.
    pub fn decode(bytes: &[u8]) -> Option<FrFrame> {
        if bytes.len() != 5 || bytes[0] != DATA_MAGIC {
            return None;
        }
        Some(FrFrame {
            flow: u32::from_be_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]),
        })
    }
}

/// One exported IBLT snapshot (what the controller reads over C-DP).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Export {
    /// Per-cell flow-count sums.
    pub count: Vec<u64>,
    /// Per-cell flow-id XORs.
    pub flowxor: Vec<u64>,
    /// Per-cell packet sums.
    pub pktsum: Vec<u64>,
}

impl Export {
    /// Reads a snapshot directly from a chassis (the driver-level surface
    /// the adversary can also reach).
    pub fn read_from(chassis: &Chassis) -> Self {
        let read_all = |name: &str| {
            (0..CELLS)
                .map(|i| {
                    chassis
                        .register(name)
                        .expect("declared")
                        .read(i)
                        .expect("in range")
                })
                .collect::<Vec<u64>>()
        };
        Export {
            count: read_all(regs::CELL_COUNT),
            flowxor: read_all(regs::CELL_FLOWXOR),
            pktsum: read_all(regs::CELL_PKTSUM),
        }
    }

    /// IBLT decode: iteratively peel cells containing exactly one flow.
    /// Returns `(flow → packet count)` for everything decodable.
    pub fn decode(&self) -> HashMap<u32, u64> {
        let mut count = self.count.clone();
        let mut flowxor = self.flowxor.clone();
        let mut pktsum = self.pktsum.clone();
        let mut out = HashMap::new();
        while let Some(cell) = (0..CELLS as usize).find(|&i| count[i] == 1) {
            let flow = flowxor[cell] as u32;
            let pkts = pktsum[cell];
            out.insert(flow, pkts);
            for c in cells_for(flow) {
                let c = c as usize;
                count[c] = count[c].saturating_sub(1);
                flowxor[c] ^= flow as u64;
                pktsum[c] = pktsum[c].saturating_sub(pkts);
            }
        }
        out
    }
}

/// The FlowRadar data-plane program: every packet updates the three IBLT
/// registers at `k` cells (new flows also bump the flow counters).
#[derive(Debug, Default)]
pub struct FlowRadarApp {
    seen: std::collections::HashSet<u32>,
}

impl FlowRadarApp {
    /// Boxed for mounting on the agent.
    pub fn boxed() -> Box<dyn InNetworkApp> {
        Box::new(FlowRadarApp::default())
    }
}

impl InNetworkApp for FlowRadarApp {
    fn system_id(&self) -> u8 {
        FLOWRADAR_SYSTEM_ID
    }

    fn setup(&mut self, chassis: &mut Chassis) {
        chassis.declare_register(RegisterArray::new(regs::CELL_COUNT, CELLS, 64));
        chassis.declare_register(RegisterArray::new(regs::CELL_FLOWXOR, CELLS, 64));
        chassis.declare_register(RegisterArray::new(regs::CELL_PKTSUM, CELLS, 64));
    }

    fn on_control(
        &mut self,
        _ctx: &mut PacketContext<'_>,
        _ingress: PortId,
        _payload: &[u8],
    ) -> Result<Vec<(PortId, Vec<u8>)>, ChassisError> {
        Ok(vec![])
    }

    fn on_data(
        &mut self,
        ctx: &mut PacketContext<'_>,
        _ingress: PortId,
        bytes: &[u8],
    ) -> Result<Vec<(PortId, Vec<u8>)>, ChassisError> {
        let Some(frame) = FrFrame::decode(bytes) else {
            return Ok(vec![]);
        };
        // In the real FlowRadar the "new flow" test is a bloom filter in
        // the pipeline; a HashSet keeps the miniature honest and small.
        let is_new = self.seen.insert(frame.flow);
        for cell in cells_for(frame.flow) {
            if is_new {
                ctx.update_register(regs::CELL_COUNT, cell, |v| v + 1)?;
                ctx.update_register(regs::CELL_FLOWXOR, cell, |v| v ^ frame.flow as u64)?;
            }
            ctx.update_register(regs::CELL_PKTSUM, cell, |v| v + 1)?;
        }
        Ok(vec![(PortId::new(1), bytes.to_vec())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_dataplane::chassis::{Chassis, ChassisConfig};
    use p4auth_dataplane::packet::Packet;
    use p4auth_wire::ids::SwitchId;

    fn setup() -> (Chassis, FlowRadarApp) {
        let mut app = FlowRadarApp::default();
        let mut chassis = Chassis::new(ChassisConfig::tofino(SwitchId::new(1), 2));
        app.setup(&mut chassis);
        (chassis, app)
    }

    fn send(chassis: &mut Chassis, app: &mut FlowRadarApp, flow: u32, n: u64) {
        for _ in 0..n {
            let bytes = FrFrame { flow }.encode();
            let pkt = Packet::from_bytes(PortId::new(2), bytes.clone());
            chassis
                .process(0, &pkt, |ctx, _| {
                    app.on_data(ctx, PortId::new(2), &bytes)?;
                    Ok(vec![])
                })
                .unwrap();
        }
    }

    #[test]
    fn frame_roundtrip() {
        let f = FrFrame { flow: 77 };
        assert_eq!(FrFrame::decode(&f.encode()), Some(f));
        assert_eq!(FrFrame::decode(&[0u8; 5]), None);
    }

    #[test]
    fn cells_are_deterministic_and_spread() {
        assert_eq!(cells_for(5), cells_for(5));
        let a = cells_for(5);
        assert!(a.iter().all(|&c| c < CELLS));
    }

    #[test]
    fn decode_recovers_exact_flow_counts() {
        let (mut chassis, mut app) = setup();
        send(&mut chassis, &mut app, 101, 7);
        send(&mut chassis, &mut app, 202, 3);
        send(&mut chassis, &mut app, 303, 12);
        let decoded = Export::read_from(&chassis).decode();
        assert_eq!(decoded.get(&101), Some(&7));
        assert_eq!(decoded.get(&202), Some(&3));
        assert_eq!(decoded.get(&303), Some(&12));
        assert_eq!(decoded.len(), 3);
    }

    #[test]
    fn loss_analysis_differences_two_switches() {
        // Upstream saw 10 packets of flow 9; downstream saw 8 → 2 lost.
        let (mut up_c, mut up_a) = setup();
        let (mut down_c, mut down_a) = setup();
        send(&mut up_c, &mut up_a, 9, 10);
        send(&mut down_c, &mut down_a, 9, 8);
        let up = Export::read_from(&up_c).decode();
        let down = Export::read_from(&down_c).decode();
        assert_eq!(up[&9] - down[&9], 2);
    }

    #[test]
    fn tampered_export_poisons_loss_analysis() {
        // The Table I attack: the adversary rewrites the exported packet
        // sums; decode "succeeds" with wrong counts and the loss analysis
        // accuses the wrong segment.
        let (mut up_c, mut up_a) = setup();
        let (mut down_c, mut down_a) = setup();
        send(&mut up_c, &mut up_a, 9, 10);
        send(&mut down_c, &mut down_a, 9, 10); // no real loss
        let up = Export::read_from(&up_c).decode();

        // Adversary subtracts 4 packets from every cell of flow 9 in the
        // downstream export (driver-level tampering).
        for cell in cells_for(9) {
            down_c
                .register_mut(regs::CELL_PKTSUM)
                .unwrap()
                .update(cell, |v| v - 4)
                .unwrap();
        }
        let down = Export::read_from(&down_c).decode();
        let fake_loss = up[&9] as i64 - down[&9] as i64;
        assert_eq!(fake_loss, 4, "phantom loss fabricated by the adversary");
    }

    #[test]
    fn multiple_packets_of_known_flow_only_bump_pktsum() {
        let (mut chassis, mut app) = setup();
        send(&mut chassis, &mut app, 55, 5);
        let export = Export::read_from(&chassis);
        for cell in cells_for(55) {
            assert_eq!(export.count[cell as usize], 1, "flow counted once");
            assert_eq!(export.pktsum[cell as usize], 5);
        }
    }

    #[test]
    fn decode_handles_colliding_flows_via_peeling() {
        let (mut chassis, mut app) = setup();
        // Enough flows that some cells hold multiple entries.
        for flow in 0..20u32 {
            send(&mut chassis, &mut app, 1000 + flow, (flow + 1) as u64);
        }
        let decoded = Export::read_from(&chassis).decode();
        assert_eq!(decoded.len(), 20, "all flows should peel");
        for flow in 0..20u32 {
            assert_eq!(decoded[&(1000 + flow)], (flow + 1) as u64);
        }
    }
}
