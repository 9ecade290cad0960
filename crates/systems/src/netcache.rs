//! A NetCache-style in-network key-value cache (Jin et al., SOSP 2017) —
//! the Table I "in-network cache" row as a working system.
//!
//! The data plane caches hot keys and answers queries at line rate; the
//! controller periodically reads query statistics (maintained in compact
//! register structures), decides which keys are hot, installs them, and
//! clears the statistics for the next epoch. Both of those C-DP flows are
//! exactly what the §II-A adversary targets: forging the periodic *clear*
//! wipes real statistics (hot keys never promoted) and forging hot-key
//! *installs* evicts genuinely hot entries — in either case, queries fall
//! through to the storage servers and retrieval time inflates (Table I:
//! "inflates time to retrieve the hot key value").

use p4auth_core::agent::InNetworkApp;
use p4auth_dataplane::chassis::{Chassis, ChassisError, PacketContext};
use p4auth_dataplane::register::RegisterArray;
use p4auth_wire::ids::PortId;

/// System id of NetCache frames.
pub const NETCACHE_SYSTEM_ID: u8 = 3;

/// First byte of query frames.
pub const QUERY_MAGIC: u8 = 0xC4;

/// Number of cache slots / statistics counters.
pub const CACHE_SLOTS: u32 = 16;

/// Data-plane register names.
pub mod regs {
    /// Cached key per slot (0 = empty).
    pub const CACHED_KEY: &str = "nc_cached_key";
    /// Cached value per slot.
    pub const CACHED_VALUE: &str = "nc_cached_value";
    /// Per-slot query counter (the compact statistics structure the
    /// controller reads and clears each epoch).
    pub const QUERY_COUNT: &str = "nc_query_count";
    /// Cache hits served at line rate.
    pub const HITS: &str = "nc_hits";
    /// Misses forwarded to the storage server.
    pub const MISSES: &str = "nc_misses";
}

/// Controller-visible register ids.
pub mod reg_ids {
    use p4auth_wire::ids::RegId;

    /// [`super::regs::CACHED_KEY`].
    pub const CACHED_KEY: RegId = RegId::new(4001);
    /// [`super::regs::CACHED_VALUE`].
    pub const CACHED_VALUE: RegId = RegId::new(4002);
    /// [`super::regs::QUERY_COUNT`].
    pub const QUERY_COUNT: RegId = RegId::new(4003);
    /// Every register the controller addresses, with its data-plane name:
    /// the agent's mapping table.
    pub const ALL: [(RegId, &str); 3] = [
        (CACHED_KEY, super::regs::CACHED_KEY),
        (CACHED_VALUE, super::regs::CACHED_VALUE),
        (QUERY_COUNT, super::regs::QUERY_COUNT),
    ];
}

/// A query frame: `[0xC4, key(4)]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Query {
    /// The requested key.
    pub key: u32,
}

impl Query {
    /// Encodes the query.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![QUERY_MAGIC];
        out.extend_from_slice(&self.key.to_be_bytes());
        out
    }

    /// Decodes a query.
    pub fn decode(bytes: &[u8]) -> Option<Query> {
        if bytes.len() != 5 || bytes[0] != QUERY_MAGIC {
            return None;
        }
        Some(Query {
            key: u32::from_be_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]),
        })
    }

    /// The statistics/cache slot this key hashes to.
    pub fn slot(&self) -> u32 {
        (self.key.wrapping_mul(2_654_435_761)) % CACHE_SLOTS
    }
}

/// The NetCache data-plane program. Queries hit the cache (port 1 back to
/// the client) or miss through to the storage server (port 2).
#[derive(Debug, Default)]
pub struct NetCacheApp;

impl NetCacheApp {
    /// Boxed for mounting on the agent.
    pub fn boxed() -> Box<dyn InNetworkApp> {
        Box::new(NetCacheApp)
    }
}

impl InNetworkApp for NetCacheApp {
    fn system_id(&self) -> u8 {
        NETCACHE_SYSTEM_ID
    }

    fn setup(&mut self, chassis: &mut Chassis) {
        chassis.declare_register(RegisterArray::new(regs::CACHED_KEY, CACHE_SLOTS, 64));
        chassis.declare_register(RegisterArray::new(regs::CACHED_VALUE, CACHE_SLOTS, 64));
        chassis.declare_register(RegisterArray::new(regs::QUERY_COUNT, CACHE_SLOTS, 64));
        chassis.declare_register(RegisterArray::new(regs::HITS, 1, 64));
        chassis.declare_register(RegisterArray::new(regs::MISSES, 1, 64));
    }

    fn on_control(
        &mut self,
        _ctx: &mut PacketContext<'_>,
        _ingress: PortId,
        _payload: &[u8],
    ) -> Result<Vec<(PortId, Vec<u8>)>, ChassisError> {
        Ok(vec![]) // NetCache has no DP-DP control messages
    }

    fn on_data(
        &mut self,
        ctx: &mut PacketContext<'_>,
        _ingress: PortId,
        bytes: &[u8],
    ) -> Result<Vec<(PortId, Vec<u8>)>, ChassisError> {
        let Some(query) = Query::decode(bytes) else {
            return Ok(vec![]);
        };
        let slot = query.slot();
        ctx.update_register(regs::QUERY_COUNT, slot, |v| v.saturating_add(1))?;
        let cached_key = ctx.read_register(regs::CACHED_KEY, slot)?;
        if cached_key == query.key as u64 && cached_key != 0 {
            // Hit: answer from the data plane.
            let value = ctx.read_register(regs::CACHED_VALUE, slot)?;
            ctx.update_register(regs::HITS, 0, |v| v + 1)?;
            let mut reply = vec![QUERY_MAGIC];
            reply.extend_from_slice(&query.key.to_be_bytes());
            reply.extend_from_slice(&value.to_be_bytes());
            Ok(vec![(PortId::new(1), reply)])
        } else {
            // Miss: forward to the storage server.
            ctx.update_register(regs::MISSES, 0, |v| v + 1)?;
            Ok(vec![(PortId::new(2), bytes.to_vec())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_dataplane::chassis::{Chassis, ChassisConfig};
    use p4auth_dataplane::packet::Packet;
    use p4auth_wire::ids::SwitchId;

    fn setup() -> (Chassis, NetCacheApp) {
        let mut app = NetCacheApp;
        let mut chassis = Chassis::new(ChassisConfig::tofino(SwitchId::new(1), 2));
        app.setup(&mut chassis);
        (chassis, app)
    }

    fn query(chassis: &mut Chassis, app: &mut NetCacheApp, key: u32) -> Vec<(PortId, Vec<u8>)> {
        let bytes = Query { key }.encode();
        let pkt = Packet::from_bytes(PortId::new(1), bytes.clone());
        let mut outs = Vec::new();
        chassis
            .process(0, &pkt, |ctx, _| {
                outs = app.on_data(ctx, PortId::new(1), &bytes)?;
                Ok(vec![])
            })
            .unwrap();
        outs
    }

    fn install(chassis: &mut Chassis, key: u32, value: u64) {
        let slot = Query { key }.slot();
        chassis
            .register_mut(regs::CACHED_KEY)
            .unwrap()
            .write(slot, key as u64)
            .unwrap();
        chassis
            .register_mut(regs::CACHED_VALUE)
            .unwrap()
            .write(slot, value)
            .unwrap();
    }

    #[test]
    fn query_roundtrip() {
        let q = Query { key: 42 };
        assert_eq!(Query::decode(&q.encode()), Some(q));
        assert_eq!(Query::decode(&[0u8; 5]), None);
    }

    #[test]
    fn miss_forwards_to_storage_and_counts() {
        let (mut chassis, mut app) = setup();
        let outs = query(&mut chassis, &mut app, 42);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, PortId::new(2));
        assert_eq!(chassis.register(regs::MISSES).unwrap().read(0).unwrap(), 1);
        assert_eq!(chassis.register(regs::HITS).unwrap().read(0).unwrap(), 0);
    }

    #[test]
    fn hit_answers_at_line_rate() {
        let (mut chassis, mut app) = setup();
        install(&mut chassis, 42, 0xbeef);
        let outs = query(&mut chassis, &mut app, 42);
        assert_eq!(outs[0].0, PortId::new(1));
        assert!(outs[0].1.ends_with(&0xbeefu64.to_be_bytes()));
        assert_eq!(chassis.register(regs::HITS).unwrap().read(0).unwrap(), 1);
    }

    #[test]
    fn query_statistics_accumulate_per_slot() {
        let (mut chassis, mut app) = setup();
        for _ in 0..5 {
            query(&mut chassis, &mut app, 42);
        }
        query(&mut chassis, &mut app, 43);
        let slot42 = Query { key: 42 }.slot();
        assert_eq!(
            chassis
                .register(regs::QUERY_COUNT)
                .unwrap()
                .read(slot42)
                .unwrap(),
            5
        );
    }

    #[test]
    fn key_zero_never_hits() {
        // Slot emptiness is encoded as key 0; querying key 0 must miss.
        let (mut chassis, mut app) = setup();
        let outs = query(&mut chassis, &mut app, 0);
        assert_eq!(outs[0].0, PortId::new(2));
    }

    #[test]
    fn forged_statistics_clear_hides_hot_keys() {
        // The Table I attack: the adversary clears query statistics so the
        // controller never promotes the genuinely hot key.
        let (mut chassis, mut app) = setup();
        for _ in 0..100 {
            query(&mut chassis, &mut app, 7); // key 7 is hot
        }
        let slot = Query { key: 7 }.slot();
        assert_eq!(
            chassis
                .register(regs::QUERY_COUNT)
                .unwrap()
                .read(slot)
                .unwrap(),
            100
        );
        // Unauthorized clear (what the compromised OS does directly at the
        // driver):
        chassis.register_mut(regs::QUERY_COUNT).unwrap().clear();
        assert_eq!(
            chassis
                .register(regs::QUERY_COUNT)
                .unwrap()
                .read(slot)
                .unwrap(),
            0
        );
        // The controller's hot-key decision would now see nothing.
    }
}
