//! A NetWarden-style covert-channel mitigator (Xing et al., USENIX
//! Security 2020) — the Table I "IDS/IPS" row as a working system.
//!
//! The data plane tracks per-connection state and measures inter-packet
//! delays (IPDs); connections whose IPD variance looks like a timing
//! covert channel are reported to the controller, which flags them in the
//! data plane (the flag makes the data plane *pace* the connection's
//! packets, destroying the covert timing). The §II-A adversary clears the
//! suspicion flag inside the controller's update message — Table I:
//! "evasion of malicious traffic detection".

use p4auth_core::agent::InNetworkApp;
use p4auth_dataplane::chassis::{Chassis, ChassisError, PacketContext};
use p4auth_dataplane::register::RegisterArray;
use p4auth_wire::ids::PortId;

/// System id of NetWarden frames.
pub const NETWARDEN_SYSTEM_ID: u8 = 4;

/// First byte of tracked-connection frames.
pub const CONN_MAGIC: u8 = 0xCC;

/// Tracked connection slots.
pub const CONN_SLOTS: u32 = 32;

/// Data-plane register names.
pub mod regs {
    /// Last packet timestamp per connection (for IPD measurement).
    pub const LAST_TS: &str = "nw_last_ts";
    /// Accumulated IPD sum per connection (reported to the controller).
    pub const IPD_SUM: &str = "nw_ipd_sum";
    /// Packet count per connection.
    pub const PKT_COUNT: &str = "nw_pkt_count";
    /// Suspicion flag per connection (written by the controller; when
    /// set, the data plane paces the connection).
    pub const SUSPECT: &str = "nw_suspect";
    /// Packets paced (delayed) because their connection was flagged.
    pub const PACED: &str = "nw_paced";
}

/// Controller-visible register ids.
pub mod reg_ids {
    use p4auth_wire::ids::RegId;

    /// [`super::regs::IPD_SUM`].
    pub const IPD_SUM: RegId = RegId::new(5001);
    /// [`super::regs::PKT_COUNT`].
    pub const PKT_COUNT: RegId = RegId::new(5002);
    /// [`super::regs::SUSPECT`].
    pub const SUSPECT: RegId = RegId::new(5003);
    /// Every register the controller addresses, with its data-plane name:
    /// the agent's mapping table.
    pub const ALL: [(RegId, &str); 3] = [
        (IPD_SUM, super::regs::IPD_SUM),
        (PKT_COUNT, super::regs::PKT_COUNT),
        (SUSPECT, super::regs::SUSPECT),
    ];
}

/// A connection packet: `[0xCC, conn(4), ts_us(4)]` (the timestamp is
/// trace-driven, as the simulator's clock is per-event).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConnPacket {
    /// Connection slot id.
    pub conn: u32,
    /// Transmit timestamp in µs.
    pub ts_us: u32,
}

impl ConnPacket {
    /// Encodes the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![CONN_MAGIC];
        out.extend_from_slice(&self.conn.to_be_bytes());
        out.extend_from_slice(&self.ts_us.to_be_bytes());
        out
    }

    /// Decodes a frame.
    pub fn decode(bytes: &[u8]) -> Option<ConnPacket> {
        if bytes.len() != 9 || bytes[0] != CONN_MAGIC {
            return None;
        }
        Some(ConnPacket {
            conn: u32::from_be_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]),
            ts_us: u32::from_be_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]),
        })
    }
}

/// The NetWarden data-plane program. Unflagged traffic forwards on
/// port 1; flagged (suspect) traffic is paced (still port 1, but counted
/// — the pacing itself is a queueing action the emulator counts rather
/// than models in time).
#[derive(Debug, Default)]
pub struct NetWardenApp;

impl NetWardenApp {
    /// Boxed for mounting on the agent.
    pub fn boxed() -> Box<dyn InNetworkApp> {
        Box::new(NetWardenApp)
    }
}

impl InNetworkApp for NetWardenApp {
    fn system_id(&self) -> u8 {
        NETWARDEN_SYSTEM_ID
    }

    fn setup(&mut self, chassis: &mut Chassis) {
        chassis.declare_register(RegisterArray::new(regs::LAST_TS, CONN_SLOTS, 64));
        chassis.declare_register(RegisterArray::new(regs::IPD_SUM, CONN_SLOTS, 64));
        chassis.declare_register(RegisterArray::new(regs::PKT_COUNT, CONN_SLOTS, 64));
        chassis.declare_register(RegisterArray::new(regs::SUSPECT, CONN_SLOTS, 64));
        chassis.declare_register(RegisterArray::new(regs::PACED, 1, 64));
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
        let Some(pkt) = ConnPacket::decode(bytes) else {
            return Ok(vec![]);
        };
        let conn = pkt.conn % CONN_SLOTS;
        let last = ctx.read_register(regs::LAST_TS, conn)?;
        if last > 0 && (pkt.ts_us as u64) > last {
            let ipd = pkt.ts_us as u64 - last;
            ctx.update_register(regs::IPD_SUM, conn, |v| v.saturating_add(ipd))?;
        }
        ctx.write_register(regs::LAST_TS, conn, pkt.ts_us as u64)?;
        ctx.update_register(regs::PKT_COUNT, conn, |v| v + 1)?;

        if ctx.read_register(regs::SUSPECT, conn)? != 0 {
            // Pace the covert channel: count and forward.
            ctx.update_register(regs::PACED, 0, |v| v + 1)?;
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

    fn setup() -> (Chassis, NetWardenApp) {
        let mut app = NetWardenApp;
        let mut chassis = Chassis::new(ChassisConfig::tofino(SwitchId::new(1), 2));
        app.setup(&mut chassis);
        (chassis, app)
    }

    fn send(chassis: &mut Chassis, app: &mut NetWardenApp, conn: u32, ts_us: u32) {
        let bytes = ConnPacket { conn, ts_us }.encode();
        let pkt = Packet::from_bytes(PortId::new(2), bytes.clone());
        chassis
            .process(0, &pkt, |ctx, _| {
                app.on_data(ctx, PortId::new(2), &bytes)?;
                Ok(vec![])
            })
            .unwrap();
    }

    #[test]
    fn frame_roundtrip() {
        let p = ConnPacket {
            conn: 3,
            ts_us: 900,
        };
        assert_eq!(ConnPacket::decode(&p.encode()), Some(p));
        assert_eq!(ConnPacket::decode(&[0u8; 9]), None);
    }

    #[test]
    fn ipd_accumulates() {
        let (mut chassis, mut app) = setup();
        send(&mut chassis, &mut app, 1, 100);
        send(&mut chassis, &mut app, 1, 150);
        send(&mut chassis, &mut app, 1, 230);
        assert_eq!(
            chassis.register(regs::IPD_SUM).unwrap().read(1).unwrap(),
            130
        );
        assert_eq!(
            chassis.register(regs::PKT_COUNT).unwrap().read(1).unwrap(),
            3
        );
    }

    #[test]
    fn connections_are_isolated() {
        let (mut chassis, mut app) = setup();
        send(&mut chassis, &mut app, 1, 100);
        send(&mut chassis, &mut app, 2, 500);
        send(&mut chassis, &mut app, 1, 140);
        assert_eq!(
            chassis.register(regs::IPD_SUM).unwrap().read(1).unwrap(),
            40
        );
        assert_eq!(chassis.register(regs::IPD_SUM).unwrap().read(2).unwrap(), 0);
    }

    #[test]
    fn flagged_connections_are_paced() {
        let (mut chassis, mut app) = setup();
        chassis
            .register_mut(regs::SUSPECT)
            .unwrap()
            .write(5, 1)
            .unwrap();
        send(&mut chassis, &mut app, 5, 100);
        send(&mut chassis, &mut app, 5, 101);
        send(&mut chassis, &mut app, 6, 100); // unflagged
        assert_eq!(chassis.register(regs::PACED).unwrap().read(0).unwrap(), 2);
    }

    #[test]
    fn clearing_the_flag_is_the_table_i_evasion() {
        // The adversary's goal: a covert channel flagged by the controller
        // keeps leaking if the flag update is suppressed/cleared.
        let (mut chassis, mut app) = setup();
        chassis
            .register_mut(regs::SUSPECT)
            .unwrap()
            .write(5, 1)
            .unwrap();
        // Compromised driver clears it:
        chassis
            .register_mut(regs::SUSPECT)
            .unwrap()
            .write(5, 0)
            .unwrap();
        send(&mut chassis, &mut app, 5, 100);
        assert_eq!(
            chassis.register(regs::PACED).unwrap().read(0).unwrap(),
            0,
            "evaded"
        );
    }
}
