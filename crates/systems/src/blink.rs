//! A Blink-style fast-reroute system (Holterbach et al., NSDI 2019) — the
//! Table I "FRR" row as a working system.
//!
//! Blink infers remote outages from TCP retransmission patterns entirely
//! in the data plane and reroutes onto pre-installed backup next hops
//! within a retransmission timeout. The controller maintains the
//! per-prefix next-hop list in registers (the C-DP update Table I cites:
//! "C updates per-prefix next hop list maintained in registers").
//!
//! The attack: rewrite the next-hop-list update so the primary (or every
//! backup) points at an attacker-chosen port — traffic blackholes or
//! detours the moment fast reroute fires. P4Auth authenticates the update.

use p4auth_core::agent::InNetworkApp;
use p4auth_dataplane::chassis::{Chassis, ChassisError, PacketContext};
use p4auth_dataplane::register::RegisterArray;
use p4auth_wire::ids::PortId;

/// System id of Blink frames.
pub const BLINK_SYSTEM_ID: u8 = 5;

/// First byte of Blink data frames.
pub const DATA_MAGIC: u8 = 0xB1;

/// Tracked prefixes.
pub const PREFIXES: u32 = 8;

/// Retransmissions within the window that trigger fast reroute.
pub const RETRANS_THRESHOLD: u64 = 3;

/// Data-plane register names.
pub mod regs {
    /// Primary next-hop port per prefix.
    pub const PRIMARY: &str = "bl_primary";
    /// Backup next-hop port per prefix (the list the controller updates).
    pub const BACKUP: &str = "bl_backup";
    /// 1 when the prefix has failed over to the backup.
    pub const FAILED_OVER: &str = "bl_failed_over";
    /// Retransmission signal counter per prefix.
    pub const RETRANS: &str = "bl_retrans";
    /// Packets forwarded per prefix (telemetry).
    pub const FORWARDED: &str = "bl_forwarded";
}

/// Controller-visible register ids.
pub mod reg_ids {
    use p4auth_wire::ids::RegId;

    /// [`super::regs::PRIMARY`].
    pub const PRIMARY: RegId = RegId::new(6001);
    /// [`super::regs::BACKUP`].
    pub const BACKUP: RegId = RegId::new(6002);
    /// [`super::regs::FAILED_OVER`].
    pub const FAILED_OVER: RegId = RegId::new(6003);
    /// Every register the controller addresses, with its data-plane name:
    /// the agent's mapping table.
    pub const ALL: [(RegId, &str); 3] = [
        (PRIMARY, super::regs::PRIMARY),
        (BACKUP, super::regs::BACKUP),
        (FAILED_OVER, super::regs::FAILED_OVER),
    ];
}

/// A Blink data frame: `[0xB1, prefix(4), flags(1)]`; bit 0 of `flags`
/// marks a TCP retransmission (the signal Blink keys on).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlinkFrame {
    /// Destination prefix index.
    pub prefix: u32,
    /// Whether this packet is a retransmission.
    pub retransmission: bool,
}

impl BlinkFrame {
    /// Encodes the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![DATA_MAGIC];
        out.extend_from_slice(&self.prefix.to_be_bytes());
        out.push(self.retransmission as u8);
        out
    }

    /// Decodes a frame.
    pub fn decode(bytes: &[u8]) -> Option<BlinkFrame> {
        if bytes.len() != 6 || bytes[0] != DATA_MAGIC {
            return None;
        }
        Some(BlinkFrame {
            prefix: u32::from_be_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]),
            retransmission: bytes[5] & 1 == 1,
        })
    }
}

/// The Blink data-plane program.
#[derive(Debug, Default)]
pub struct BlinkApp;

impl BlinkApp {
    /// Boxed for mounting on the agent.
    pub fn boxed() -> Box<dyn InNetworkApp> {
        Box::new(BlinkApp)
    }
}

impl InNetworkApp for BlinkApp {
    fn system_id(&self) -> u8 {
        BLINK_SYSTEM_ID
    }

    fn setup(&mut self, chassis: &mut Chassis) {
        let mut primary = RegisterArray::new(regs::PRIMARY, PREFIXES, 64);
        let mut backup = RegisterArray::new(regs::BACKUP, PREFIXES, 64);
        for i in 0..PREFIXES {
            primary.write(i, 1).expect("in range"); // default: port 1
            backup.write(i, 2).expect("in range"); // default backup: port 2
        }
        chassis.declare_register(primary);
        chassis.declare_register(backup);
        chassis.declare_register(RegisterArray::new(regs::FAILED_OVER, PREFIXES, 64));
        chassis.declare_register(RegisterArray::new(regs::RETRANS, PREFIXES, 64));
        chassis.declare_register(RegisterArray::new(regs::FORWARDED, PREFIXES, 64));
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
        let Some(frame) = BlinkFrame::decode(bytes) else {
            return Ok(vec![]);
        };
        if frame.prefix >= PREFIXES {
            return Ok(vec![]);
        }
        let prefix = frame.prefix;

        // Blink's outage inference: a burst of retransmissions trips
        // failover entirely in the data plane.
        if frame.retransmission {
            let count = ctx.update_register(regs::RETRANS, prefix, |v| v + 1)?;
            if count >= RETRANS_THRESHOLD {
                ctx.write_register(regs::FAILED_OVER, prefix, 1)?;
            }
        }

        let failed = ctx.read_register(regs::FAILED_OVER, prefix)? != 0;
        let port = if failed {
            ctx.read_register(regs::BACKUP, prefix)?
        } else {
            ctx.read_register(regs::PRIMARY, prefix)?
        };
        ctx.update_register(regs::FORWARDED, prefix, |v| v + 1)?;
        Ok(vec![(PortId::new(port as u8), bytes.to_vec())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_dataplane::chassis::{Chassis, ChassisConfig};
    use p4auth_dataplane::packet::Packet;
    use p4auth_wire::ids::SwitchId;

    fn setup() -> (Chassis, BlinkApp) {
        let mut app = BlinkApp;
        let mut chassis = Chassis::new(ChassisConfig::tofino(SwitchId::new(1), 4));
        app.setup(&mut chassis);
        (chassis, app)
    }

    fn send(
        chassis: &mut Chassis,
        app: &mut BlinkApp,
        frame: BlinkFrame,
    ) -> Vec<(PortId, Vec<u8>)> {
        let bytes = frame.encode();
        let pkt = Packet::from_bytes(PortId::new(3), bytes.clone());
        let mut outs = Vec::new();
        chassis
            .process(0, &pkt, |ctx, _| {
                outs = app.on_data(ctx, PortId::new(3), &bytes)?;
                Ok(vec![])
            })
            .unwrap();
        outs
    }

    #[test]
    fn frame_roundtrip() {
        for retrans in [false, true] {
            let f = BlinkFrame {
                prefix: 3,
                retransmission: retrans,
            };
            assert_eq!(BlinkFrame::decode(&f.encode()), Some(f));
        }
        assert_eq!(BlinkFrame::decode(&[0u8; 6]), None);
    }

    #[test]
    fn normal_traffic_follows_primary() {
        let (mut chassis, mut app) = setup();
        let outs = send(
            &mut chassis,
            &mut app,
            BlinkFrame {
                prefix: 0,
                retransmission: false,
            },
        );
        assert_eq!(outs[0].0, PortId::new(1));
        assert_eq!(
            chassis.register(regs::FORWARDED).unwrap().read(0).unwrap(),
            1
        );
    }

    #[test]
    fn retransmission_burst_triggers_fast_reroute() {
        let (mut chassis, mut app) = setup();
        for _ in 0..RETRANS_THRESHOLD {
            send(
                &mut chassis,
                &mut app,
                BlinkFrame {
                    prefix: 2,
                    retransmission: true,
                },
            );
        }
        assert_eq!(
            chassis
                .register(regs::FAILED_OVER)
                .unwrap()
                .read(2)
                .unwrap(),
            1
        );
        // Subsequent traffic takes the backup.
        let outs = send(
            &mut chassis,
            &mut app,
            BlinkFrame {
                prefix: 2,
                retransmission: false,
            },
        );
        assert_eq!(outs[0].0, PortId::new(2));
    }

    #[test]
    fn below_threshold_no_failover() {
        let (mut chassis, mut app) = setup();
        for _ in 0..RETRANS_THRESHOLD - 1 {
            send(
                &mut chassis,
                &mut app,
                BlinkFrame {
                    prefix: 1,
                    retransmission: true,
                },
            );
        }
        let outs = send(
            &mut chassis,
            &mut app,
            BlinkFrame {
                prefix: 1,
                retransmission: false,
            },
        );
        assert_eq!(outs[0].0, PortId::new(1), "must still use the primary");
    }

    #[test]
    fn prefixes_fail_over_independently() {
        let (mut chassis, mut app) = setup();
        for _ in 0..RETRANS_THRESHOLD {
            send(
                &mut chassis,
                &mut app,
                BlinkFrame {
                    prefix: 4,
                    retransmission: true,
                },
            );
        }
        assert_eq!(
            chassis
                .register(regs::FAILED_OVER)
                .unwrap()
                .read(4)
                .unwrap(),
            1
        );
        assert_eq!(
            chassis
                .register(regs::FAILED_OVER)
                .unwrap()
                .read(5)
                .unwrap(),
            0
        );
    }

    #[test]
    fn poisoned_backup_blackholes_on_failover() {
        // The Table I attack: the adversary rewrites the backup next hop;
        // nothing visible happens until an outage fires fast reroute, and
        // then traffic detours to the attacker's port.
        let (mut chassis, mut app) = setup();
        chassis
            .register_mut(regs::BACKUP)
            .unwrap()
            .write(0, 4)
            .unwrap(); // attacker port
        for _ in 0..RETRANS_THRESHOLD {
            send(
                &mut chassis,
                &mut app,
                BlinkFrame {
                    prefix: 0,
                    retransmission: true,
                },
            );
        }
        let outs = send(
            &mut chassis,
            &mut app,
            BlinkFrame {
                prefix: 0,
                retransmission: false,
            },
        );
        assert_eq!(
            outs[0].0,
            PortId::new(4),
            "rerouted into the attacker's path"
        );
    }

    #[test]
    fn out_of_range_prefix_dropped() {
        let (mut chassis, mut app) = setup();
        let outs = send(
            &mut chassis,
            &mut app,
            BlinkFrame {
                prefix: 99,
                retransmission: false,
            },
        );
        assert!(outs.is_empty());
    }
}
