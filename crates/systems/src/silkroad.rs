//! A SilkRoad-style stateful L4 load balancer (Miao et al., SIGCOMM 2017)
//! — the Table I "LB" row as a working system.
//!
//! SilkRoad pins connections to a direct IP (DIP) in the data plane. When
//! the operator changes the DIP pool for a virtual IP (VIP), *pending*
//! connections that arrived during the update are remembered in a transit
//! bloom filter so they keep mapping to the old DIP version; once they are
//! all inserted into the connection table, the controller **clears the
//! transit table** over C-DP (the exact message Table I cites: "C clears
//! the transit table (bloom filter) holding old DIPs after all the pending
//! connections are added to the connection table").
//!
//! The attack: forge or time-shift that clear. Pending connections lose
//! their "old pool" marker and get re-hashed onto the new pool — the
//! "wrong VIP (DIP) during LB", breaking connection affinity mid-flow.

use p4auth_core::agent::InNetworkApp;
use p4auth_dataplane::chassis::{Chassis, ChassisError, PacketContext};
use p4auth_dataplane::register::RegisterArray;
use p4auth_wire::ids::PortId;

/// System id of SilkRoad frames.
pub const SILKROAD_SYSTEM_ID: u8 = 6;

/// First byte of connection frames.
pub const CONN_MAGIC: u8 = 0x51;

/// Connection-table slots.
pub const CONN_SLOTS: u32 = 64;
/// Transit bloom filter bits (stored one per register cell for clarity).
pub const BLOOM_BITS: u32 = 128;

/// Data-plane register names.
pub mod regs {
    /// Connection table: DIP pinned per connection slot (0 = no entry).
    pub const CONN_DIP: &str = "sr_conn_dip";
    /// Current DIP pool version.
    pub const POOL_VERSION: &str = "sr_pool_version";
    /// Transit bloom filter (1 bit per cell).
    pub const TRANSIT: &str = "sr_transit";
    /// Packets forwarded to the *old* pool via the transit marker.
    pub const VIA_TRANSIT: &str = "sr_via_transit";
    /// Packets whose affinity broke (re-hashed mid-connection).
    pub const BROKEN_AFFINITY: &str = "sr_broken_affinity";
}

/// Controller-visible register ids.
pub mod reg_ids {
    use p4auth_wire::ids::RegId;

    /// [`super::regs::TRANSIT`] — the clear the attack targets.
    pub const TRANSIT: RegId = RegId::new(7001);
    /// [`super::regs::POOL_VERSION`].
    pub const POOL_VERSION: RegId = RegId::new(7002);
    /// Every register the controller addresses, with its data-plane name:
    /// the agent's mapping table.
    pub const ALL: [(RegId, &str); 2] = [
        (TRANSIT, super::regs::TRANSIT),
        (POOL_VERSION, super::regs::POOL_VERSION),
    ];
}

/// A connection packet: `[0x51, conn(4), first(1)]`; `first` marks the
/// connection's SYN (first packet).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConnFrame {
    /// Connection identifier.
    pub conn: u32,
    /// Whether this is the connection's first packet.
    pub first: bool,
}

impl ConnFrame {
    /// Encodes the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![CONN_MAGIC];
        out.extend_from_slice(&self.conn.to_be_bytes());
        out.push(self.first as u8);
        out
    }

    /// Decodes a frame.
    pub fn decode(bytes: &[u8]) -> Option<ConnFrame> {
        if bytes.len() != 6 || bytes[0] != CONN_MAGIC {
            return None;
        }
        Some(ConnFrame {
            conn: u32::from_be_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]),
            first: bytes[5] & 1 == 1,
        })
    }

    fn slot(&self) -> u32 {
        self.conn % CONN_SLOTS
    }

    fn bloom_bit(&self) -> u32 {
        (self.conn.wrapping_mul(2_654_435_761)) % BLOOM_BITS
    }
}

/// DIP selection: `pool_version * 100 + hash(conn) % 4` — an explicit
/// encoding so tests can tell which pool served a packet.
pub fn dip_for(conn: u32, pool_version: u64) -> u64 {
    pool_version * 100 + (conn % 4) as u64
}

/// The SilkRoad data-plane program. All traffic egresses port 1 toward the
/// DIPs; the selected DIP is recorded in the connection table.
#[derive(Debug, Default)]
pub struct SilkRoadApp;

impl SilkRoadApp {
    /// Boxed for mounting on the agent.
    pub fn boxed() -> Box<dyn InNetworkApp> {
        Box::new(SilkRoadApp)
    }
}

impl InNetworkApp for SilkRoadApp {
    fn system_id(&self) -> u8 {
        SILKROAD_SYSTEM_ID
    }

    fn setup(&mut self, chassis: &mut Chassis) {
        chassis.declare_register(RegisterArray::new(regs::CONN_DIP, CONN_SLOTS, 64));
        let mut ver = RegisterArray::new(regs::POOL_VERSION, 1, 64);
        ver.write(0, 1).expect("in range");
        chassis.declare_register(ver);
        chassis.declare_register(RegisterArray::new(regs::TRANSIT, BLOOM_BITS, 1));
        chassis.declare_register(RegisterArray::new(regs::VIA_TRANSIT, 1, 64));
        chassis.declare_register(RegisterArray::new(regs::BROKEN_AFFINITY, 1, 64));
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
        let Some(frame) = ConnFrame::decode(bytes) else {
            return Ok(vec![]);
        };
        let slot = frame.slot();
        let pool = ctx.read_register(regs::POOL_VERSION, 0)?;

        let pinned = ctx.read_register(regs::CONN_DIP, slot)?;
        let dip = if pinned != 0 {
            // Known connection: keep its DIP (affinity).
            pinned
        } else if frame.first {
            // New connection: pin to the current pool and mark it pending
            // in the transit filter (it may race an ongoing pool update).
            let dip = dip_for(frame.conn, pool);
            ctx.write_register(regs::CONN_DIP, slot, dip)?;
            ctx.write_register(regs::TRANSIT, frame.bloom_bit(), 1)?;
            dip
        } else {
            // Mid-connection packet with no table entry (e.g. the entry is
            // still being installed): the transit filter decides whether
            // the *previous* pool still owns it.
            if ctx.read_register(regs::TRANSIT, frame.bloom_bit())? == 1 {
                ctx.update_register(regs::VIA_TRANSIT, 0, |v| v + 1)?;
                dip_for(frame.conn, pool.saturating_sub(1))
            } else {
                // Affinity lost: re-hashed onto the current pool.
                ctx.update_register(regs::BROKEN_AFFINITY, 0, |v| v + 1)?;
                dip_for(frame.conn, pool)
            }
        };
        let _ = dip;
        Ok(vec![(PortId::new(1), bytes.to_vec())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_dataplane::chassis::{Chassis, ChassisConfig};
    use p4auth_dataplane::packet::Packet;
    use p4auth_wire::ids::SwitchId;

    fn setup() -> (Chassis, SilkRoadApp) {
        let mut app = SilkRoadApp;
        let mut chassis = Chassis::new(ChassisConfig::tofino(SwitchId::new(1), 2));
        app.setup(&mut chassis);
        (chassis, app)
    }

    fn send(chassis: &mut Chassis, app: &mut SilkRoadApp, conn: u32, first: bool) {
        let bytes = ConnFrame { conn, first }.encode();
        let pkt = Packet::from_bytes(PortId::new(2), bytes.clone());
        chassis
            .process(0, &pkt, |ctx, _| {
                app.on_data(ctx, PortId::new(2), &bytes)?;
                Ok(vec![])
            })
            .unwrap();
    }

    fn reg(chassis: &Chassis, name: &str, idx: u32) -> u64 {
        chassis.register(name).unwrap().read(idx).unwrap()
    }

    #[test]
    fn frame_roundtrip() {
        for first in [false, true] {
            let f = ConnFrame { conn: 9, first };
            assert_eq!(ConnFrame::decode(&f.encode()), Some(f));
        }
        assert_eq!(ConnFrame::decode(&[0u8; 6]), None);
    }

    #[test]
    fn new_connection_pins_dip_and_marks_transit() {
        let (mut chassis, mut app) = setup();
        send(&mut chassis, &mut app, 10, true);
        let f = ConnFrame {
            conn: 10,
            first: true,
        };
        assert_eq!(reg(&chassis, regs::CONN_DIP, f.slot()), dip_for(10, 1));
        assert_eq!(reg(&chassis, regs::TRANSIT, f.bloom_bit()), 1);
    }

    #[test]
    fn established_connection_keeps_its_dip_across_pool_update() {
        let (mut chassis, mut app) = setup();
        send(&mut chassis, &mut app, 10, true);
        // Pool update: version 2.
        chassis
            .register_mut(regs::POOL_VERSION)
            .unwrap()
            .write(0, 2)
            .unwrap();
        send(&mut chassis, &mut app, 10, false);
        let f = ConnFrame {
            conn: 10,
            first: true,
        };
        // Still pinned to pool 1's DIP.
        assert_eq!(reg(&chassis, regs::CONN_DIP, f.slot()), dip_for(10, 1));
        assert_eq!(reg(&chassis, regs::BROKEN_AFFINITY, 0), 0);
    }

    #[test]
    fn transit_filter_protects_pending_connections() {
        let (mut chassis, mut app) = setup();
        // A pending connection: marked in transit but its table entry has
        // been aged out / not yet installed.
        send(&mut chassis, &mut app, 10, true);
        let f = ConnFrame {
            conn: 10,
            first: true,
        };
        chassis
            .register_mut(regs::CONN_DIP)
            .unwrap()
            .write(f.slot(), 0)
            .unwrap();
        // Pool moves to version 2 mid-migration.
        chassis
            .register_mut(regs::POOL_VERSION)
            .unwrap()
            .write(0, 2)
            .unwrap();
        send(&mut chassis, &mut app, 10, false);
        // The transit marker routed it to the old pool.
        assert_eq!(reg(&chassis, regs::VIA_TRANSIT, 0), 1);
        assert_eq!(reg(&chassis, regs::BROKEN_AFFINITY, 0), 0);
    }

    #[test]
    fn premature_transit_clear_breaks_affinity() {
        // The Table I attack: the forged clear wipes the transit filter
        // while connections are still pending — they re-hash onto the new
        // pool ("wrong VIP during LB").
        let (mut chassis, mut app) = setup();
        send(&mut chassis, &mut app, 10, true);
        let f = ConnFrame {
            conn: 10,
            first: true,
        };
        chassis
            .register_mut(regs::CONN_DIP)
            .unwrap()
            .write(f.slot(), 0)
            .unwrap();
        chassis
            .register_mut(regs::POOL_VERSION)
            .unwrap()
            .write(0, 2)
            .unwrap();
        // Unauthorized clear (what the compromised OS does at the driver):
        chassis.register_mut(regs::TRANSIT).unwrap().clear();
        send(&mut chassis, &mut app, 10, false);
        assert_eq!(
            reg(&chassis, regs::BROKEN_AFFINITY, 0),
            1,
            "affinity broken"
        );
        assert_eq!(reg(&chassis, regs::VIA_TRANSIT, 0), 0);
    }

    #[test]
    fn legitimate_clear_after_migration_is_harmless() {
        let (mut chassis, mut app) = setup();
        send(&mut chassis, &mut app, 10, true);
        // Migration completes: the entry is in the connection table, so
        // clearing the transit filter (the controller's periodic job) is
        // safe.
        chassis.register_mut(regs::TRANSIT).unwrap().clear();
        chassis
            .register_mut(regs::POOL_VERSION)
            .unwrap()
            .write(0, 2)
            .unwrap();
        send(&mut chassis, &mut app, 10, false);
        assert_eq!(reg(&chassis, regs::BROKEN_AFFINITY, 0), 0);
        let f = ConnFrame {
            conn: 10,
            first: true,
        };
        assert_eq!(reg(&chassis, regs::CONN_DIP, f.slot()), dip_for(10, 1));
    }
}
