//! The emulated switch chassis: registers, tables, hash units, ports and
//! budget-enforced per-packet execution contexts.

use crate::cost::CostModel;
pub use crate::cost::TargetProfile;
use crate::hash::{HashEngine, HashMeter};
use crate::packet::Packet;
use crate::register::{IndexOutOfRangeError, RegisterArray};
use crate::table::{ActionEntry, MatchKey, MatchTable};
use p4auth_primitives::idhash::IdMap;
use p4auth_primitives::mac::{HalfSipHashMac, Mac};
use p4auth_primitives::{Digest32, Key64};
use p4auth_telemetry::{Counter, Event as TelemetryEvent, Registry};
use p4auth_wire::ids::{PortId, SwitchId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Chassis configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChassisConfig {
    /// This switch's identity.
    pub switch_id: SwitchId,
    /// Cost-model profile (Tofino or BMv2).
    pub profile: TargetProfile,
    /// Number of data ports (1..=N; port 0 is the CPU port).
    pub num_ports: u8,
    /// Pipeline stages available per traversal; exceeding this forces a
    /// recirculation.
    pub stage_budget: u32,
}

impl ChassisConfig {
    /// A Tofino-profile switch with `num_ports` data ports.
    pub fn tofino(switch_id: SwitchId, num_ports: u8) -> Self {
        ChassisConfig {
            switch_id,
            profile: TargetProfile::Tofino,
            num_ports,
            stage_budget: 12,
        }
    }

    /// A BMv2-profile switch with `num_ports` data ports.
    pub fn bmv2(switch_id: SwitchId, num_ports: u8) -> Self {
        ChassisConfig {
            switch_id,
            profile: TargetProfile::Bmv2,
            num_ports,
            stage_budget: 32,
        }
    }
}

/// Errors surfaced by chassis operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChassisError {
    /// No register array with that name was declared.
    NoSuchRegister(String),
    /// A register access was out of bounds.
    Register(IndexOutOfRangeError),
    /// A packet was emitted to a port the switch does not have.
    NoSuchPort(PortId),
}

impl fmt::Display for ChassisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChassisError::NoSuchRegister(name) => write!(f, "no register named {name}"),
            ChassisError::Register(e) => write!(f, "{e}"),
            ChassisError::NoSuchPort(p) => write!(f, "no port {p}"),
        }
    }
}

impl std::error::Error for ChassisError {}

impl From<IndexOutOfRangeError> for ChassisError {
    fn from(e: IndexOutOfRangeError) -> Self {
        ChassisError::Register(e)
    }
}

/// Result of processing one packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcessOutcome {
    /// Packets to transmit, with their egress ports ([`PortId::CPU`] means
    /// a PacketIn toward the controller).
    pub outputs: Vec<(PortId, Packet)>,
    /// Data-plane processing time of this packet (ns, from the cost model).
    pub cost_ns: u64,
    /// Stages consumed (across recirculations).
    pub stages_used: u32,
    /// Hash-unit passes consumed.
    pub hash_passes: u32,
    /// Recirculations forced by the stage budget.
    pub recirculations: u32,
}

/// Pre-registered telemetry handles for one chassis, labeled by switch
/// id so multi-switch simulations keep per-device series.
struct ChassisTelemetry {
    registry: Arc<Registry>,
    packets: Arc<Counter>,
    stages: Arc<Counter>,
    hash_passes: Arc<Counter>,
    recirculations: Arc<Counter>,
}

impl ChassisTelemetry {
    fn new(registry: Arc<Registry>, switch: SwitchId) -> Self {
        let label = switch.to_string();
        ChassisTelemetry {
            packets: registry.counter_with("dp_packets", &label),
            stages: registry.counter_with("dp_stages", &label),
            hash_passes: registry.counter_with("dp_hash_passes", &label),
            recirculations: registry.counter_with("dp_recirculations", &label),
            registry,
        }
    }
}

/// A register array on the chassis that declared it: its index in
/// declaration order, the numeric id a P4Runtime client addresses it by.
/// Names are a load-time concept; the per-packet path takes handles.
/// A handle means nothing on any other chassis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegisterHandle(u32);

/// A match-action table on the chassis that declared it (see
/// [`RegisterHandle`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TableHandle(u32);

/// The emulated switch.
pub struct Chassis {
    config: ChassisConfig,
    cost: CostModel,
    /// Indexed by [`RegisterHandle`].
    registers: Vec<RegisterArray>,
    /// Indexed by [`TableHandle`].
    tables: Vec<MatchTable>,
    /// Name → handle, read only by the name-taking accessors.
    register_ids: IdMap<String, RegisterHandle>,
    hash: HashEngine,
    telemetry: Option<ChassisTelemetry>,
}

impl fmt::Debug for Chassis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Chassis")
            .field("switch_id", &self.config.switch_id)
            .field("profile", &self.config.profile)
            .field("registers", &self.registers.len())
            .field("tables", &self.tables.len())
            .finish()
    }
}

impl Chassis {
    /// Creates a chassis with the default (HalfSipHash) hash engine.
    pub fn new(config: ChassisConfig) -> Self {
        Chassis::with_mac(config, Box::new(HalfSipHashMac::default()))
    }

    /// Creates a chassis with an explicit MAC in its hash engine.
    pub fn with_mac(config: ChassisConfig, mac: Box<dyn Mac>) -> Self {
        Chassis {
            config,
            cost: CostModel::for_profile(config.profile),
            registers: Vec::new(),
            tables: Vec::new(),
            register_ids: IdMap::default(),
            hash: HashEngine::new(mac),
            telemetry: None,
        }
    }

    /// Attaches a telemetry registry: every [`Chassis::process`] call
    /// accounts its stage/hash-unit/recirculation usage into per-switch
    /// counter series (`dp_*{S<id>}`), and packets forced to recirculate
    /// emit a `RecircUsed` event (stamped with the packet arrival time
    /// passed to [`Chassis::process`]) when the registry's event log is
    /// enabled.
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        self.telemetry = Some(ChassisTelemetry::new(registry, self.config.switch_id));
    }

    /// This switch's id.
    pub fn switch_id(&self) -> SwitchId {
        self.config.switch_id
    }

    /// The chassis configuration.
    pub fn config(&self) -> &ChassisConfig {
        &self.config
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Declares a register array (P4 `register<...>(N)` instantiation) and
    /// returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if a register with the same name already exists — duplicate
    /// instantiation is a program bug.
    pub fn declare_register(&mut self, reg: RegisterArray) -> RegisterHandle {
        let handle = RegisterHandle(self.registers.len() as u32);
        let prev = self.register_ids.insert(reg.name().to_string(), handle);
        assert!(prev.is_none(), "register {} declared twice", reg.name());
        self.registers.push(reg);
        handle
    }

    /// Declares a match-action table, its rules already installed, and
    /// returns its handle: the only way to reach it.
    ///
    /// # Panics
    ///
    /// Panics on duplicate table names.
    pub fn declare_table(&mut self, table: MatchTable) -> TableHandle {
        let handle = TableHandle(self.tables.len() as u32);
        let duplicate = self.tables.iter().any(|t| t.name() == table.name());
        assert!(!duplicate, "table {} declared twice", table.name());
        self.tables.push(table);
        handle
    }

    /// The handle of the register declared as `name`, if any.
    pub fn register_handle(&self, name: &str) -> Option<RegisterHandle> {
        self.register_ids.get(name).copied()
    }

    fn resolve_register(&self, name: &str) -> Result<RegisterHandle, ChassisError> {
        self.register_handle(name)
            .ok_or_else(|| ChassisError::NoSuchRegister(name.to_string()))
    }

    /// Direct (control-plane-side) register access, as the switch driver
    /// performs it. This is the surface the §II-A adversary tampers with.
    pub fn register(&self, name: &str) -> Result<&RegisterArray, ChassisError> {
        let h = self.resolve_register(name)?;
        Ok(&self.registers[h.0 as usize])
    }

    /// Mutable register access (driver writes).
    pub fn register_mut(&mut self, name: &str) -> Result<&mut RegisterArray, ChassisError> {
        let h = self.resolve_register(name)?;
        Ok(&mut self.registers[h.0 as usize])
    }

    /// Whether `port` exists on this chassis.
    pub fn has_port(&self, port: PortId) -> bool {
        port.is_cpu() || port.value() <= self.config.num_ports
    }

    /// All data ports.
    pub fn ports(&self) -> impl Iterator<Item = PortId> + '_ {
        (1..=self.config.num_ports).map(PortId::new)
    }

    /// The MAC installed in this chassis' hash engine. Protocol code uses
    /// it to seal messages produced outside a packet context (e.g.
    /// controller-bound replies assembled after the pipeline pass).
    pub fn hash_mac(&self) -> &dyn Mac {
        self.hash.mac()
    }

    /// Cumulative hash meter (resource accounting).
    pub fn hash_meter(&self) -> HashMeter {
        self.hash.meter()
    }

    /// Runs a data-plane program body over one packet inside a
    /// budget-enforced context and returns the outcome.
    ///
    /// `now_ns` is the packet's arrival time in simulated ns (the chassis
    /// has no clock of its own); it stamps telemetry events emitted at
    /// this layer and is readable by programs via
    /// [`PacketContext::now_ns`]. Callers outside a simulation pass `0`.
    ///
    /// The closure is the "P4 program": it sees the packet and a
    /// [`PacketContext`] through which all stateful work flows, so stage
    /// and hash budgets are enforced uniformly.
    pub fn process<F>(
        &mut self,
        now_ns: u64,
        packet: &Packet,
        program: F,
    ) -> Result<ProcessOutcome, ChassisError>
    where
        F: FnOnce(&mut PacketContext<'_>, &Packet) -> Result<Vec<(PortId, Packet)>, ChassisError>,
    {
        let mut ctx = PacketContext {
            chassis: self,
            now_ns,
            stages_used: 0,
            hash_passes: 0,
            recirculations: 0,
            stages_this_pass: 0,
        };
        let outputs = program(&mut ctx, packet)?;
        let (stages_used, hash_passes, recirculations) =
            (ctx.stages_used, ctx.hash_passes, ctx.recirculations);
        for (port, _) in &outputs {
            if !self.has_port(*port) {
                return Err(ChassisError::NoSuchPort(*port));
            }
        }
        if let Some(t) = &self.telemetry {
            t.packets.inc();
            t.stages.add(u64::from(stages_used));
            t.hash_passes.add(u64::from(hash_passes));
            t.recirculations.add(u64::from(recirculations));
            if recirculations > 0 {
                t.registry.record(
                    now_ns,
                    TelemetryEvent::RecircUsed {
                        switch: self.config.switch_id.value(),
                        count: recirculations,
                    },
                );
                t.registry.trace().instant(
                    p4auth_telemetry::SpanKind::FrameRecirculate,
                    now_ns,
                    self.config.switch_id.value(),
                    u64::from(recirculations),
                    u64::from(stages_used),
                );
            }
        }
        let cost_ns = self.cost.packet_ns(hash_passes, recirculations);
        Ok(ProcessOutcome {
            outputs,
            cost_ns,
            stages_used,
            hash_passes,
            recirculations,
        })
    }
}

/// Per-packet execution context handed to data-plane programs.
///
/// Every stateful operation consumes a pipeline stage; crossing the
/// configured stage budget forces a recirculation (which the cost model
/// charges at "100s of ns", §XI).
pub struct PacketContext<'c> {
    chassis: &'c mut Chassis,
    now_ns: u64,
    stages_used: u32,
    hash_passes: u32,
    recirculations: u32,
    stages_this_pass: u32,
}

impl<'c> PacketContext<'c> {
    fn consume_stage(&mut self) {
        self.stages_used += 1;
        self.stages_this_pass += 1;
        if self.stages_this_pass > self.chassis.config.stage_budget {
            self.recirculations += 1;
            self.stages_this_pass = 1;
        }
    }

    /// This switch's id.
    pub fn switch_id(&self) -> SwitchId {
        self.chassis.config.switch_id
    }

    /// Arrival time of the packet being processed (simulated ns; `0`
    /// outside a simulation).
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The handle of the register declared as `name`, if any (no stage:
    /// a program resolves names once, not per packet).
    pub fn register_handle(&self, name: &str) -> Option<RegisterHandle> {
        self.chassis.register_handle(name)
    }

    /// Reads `register[index]` (one stage).
    ///
    /// # Errors
    ///
    /// Out-of-range index.
    pub fn read_register_at(
        &mut self,
        register: RegisterHandle,
        index: u32,
    ) -> Result<u64, IndexOutOfRangeError> {
        self.consume_stage();
        self.chassis.registers[register.0 as usize].read(index)
    }

    /// Writes `register[index] = value` (one stage).
    ///
    /// # Errors
    ///
    /// Out-of-range index.
    pub fn write_register_at(
        &mut self,
        register: RegisterHandle,
        index: u32,
        value: u64,
    ) -> Result<(), IndexOutOfRangeError> {
        self.consume_stage();
        self.chassis.registers[register.0 as usize].write(index, value)
    }

    /// Looks `key` up in `table` (one stage).
    pub fn lookup_at(&mut self, table: TableHandle, key: MatchKey) -> Option<ActionEntry> {
        self.consume_stage();
        self.chassis.tables[table.0 as usize].lookup(key)
    }

    /// [`Self::read_register_at`] on the register declared as `name`.
    ///
    /// # Errors
    ///
    /// Unknown register name or out-of-range index.
    pub fn read_register(&mut self, name: &str, index: u32) -> Result<u64, ChassisError> {
        let register = self.chassis.resolve_register(name)?;
        Ok(self.read_register_at(register, index)?)
    }

    /// [`Self::write_register_at`] on the register declared as `name`.
    ///
    /// # Errors
    ///
    /// Unknown register name or out-of-range index.
    pub fn write_register(
        &mut self,
        name: &str,
        index: u32,
        value: u64,
    ) -> Result<(), ChassisError> {
        let register = self.chassis.resolve_register(name)?;
        Ok(self.write_register_at(register, index, value)?)
    }

    /// Read-modify-write of `register[index]` in one stateful-ALU pass
    /// (one stage).
    ///
    /// # Errors
    ///
    /// Unknown register name or out-of-range index.
    pub fn update_register(
        &mut self,
        name: &str,
        index: u32,
        f: impl FnOnce(u64) -> u64,
    ) -> Result<u64, ChassisError> {
        let register = self.chassis.resolve_register(name)?;
        self.consume_stage();
        Ok(self.chassis.registers[register.0 as usize].update(index, f)?)
    }

    /// Computes a keyed digest (metered hash passes + one stage).
    pub fn compute_digest(&mut self, key: Key64, parts: &[&[u8]]) -> Digest32 {
        self.consume_stage();
        self.hash_passes += 1;
        self.chassis.hash.compute(key, parts)
    }

    /// Verifies a keyed digest in constant time (metered + one stage).
    pub fn verify_digest(&mut self, key: Key64, parts: &[&[u8]], digest: Digest32) -> bool {
        self.consume_stage();
        self.hash_passes += 1;
        self.chassis.hash.verify(key, parts, digest)
    }

    /// Records KDF PRF passes performed by protocol code (metered).
    pub fn record_kdf_passes(&mut self, passes: u32) {
        self.hash_passes += passes;
        self.chassis.hash.record_kdf_passes(passes);
        // KDF chains occupy stages too.
        for _ in 0..passes.div_ceil(2) {
            self.consume_stage();
        }
    }

    /// The MAC configured on this chassis (for sealing wire messages).
    pub fn mac(&self) -> &dyn Mac {
        self.chassis.hash.mac()
    }

    /// Stages consumed so far.
    pub fn stages_used(&self) -> u32 {
        self.stages_used
    }

    /// Hash passes consumed so far.
    pub fn hash_passes(&self) -> u32 {
        self.hash_passes
    }

    /// Recirculations forced so far.
    pub fn recirculations(&self) -> u32 {
        self.recirculations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableKind;

    fn chassis() -> Chassis {
        let mut c = Chassis::new(ChassisConfig::tofino(SwitchId::new(1), 4));
        c.declare_register(RegisterArray::new("util", 8, 64));
        c.declare_table(MatchTable::new("map", TableKind::ExactSram, 4, 40));
        c
    }

    #[test]
    fn process_counts_stages_and_cost() {
        let mut c = chassis();
        let pkt = Packet::from_bytes(PortId::new(1), vec![1, 2, 3]);
        let out = c
            .process(0, &pkt, |ctx, p| {
                ctx.write_register("util", 0, 42)?;
                let v = ctx.read_register("util", 0)?;
                assert_eq!(v, 42);
                Ok(vec![(PortId::new(2), p.clone())])
            })
            .unwrap();
        assert_eq!(out.stages_used, 2);
        assert_eq!(out.hash_passes, 0);
        assert_eq!(out.recirculations, 0);
        assert_eq!(out.cost_ns, c.cost_model().pipeline_ns);
        assert_eq!(out.outputs.len(), 1);
    }

    #[test]
    fn digest_work_is_metered_and_costed() {
        let mut c = chassis();
        let pkt = Packet::from_bytes(PortId::new(1), vec![0]);
        let key = Key64::new(7);
        let out = c
            .process(0, &pkt, |ctx, _| {
                let d = ctx.compute_digest(key, &[b"probe"]);
                assert!(ctx.verify_digest(key, &[b"probe"], d));
                Ok(vec![])
            })
            .unwrap();
        assert_eq!(out.hash_passes, 2);
        assert_eq!(
            out.cost_ns,
            c.cost_model().pipeline_ns + 2 * c.cost_model().hash_pass_ns
        );
        let meter = c.hash_meter();
        assert_eq!(meter.computes, 1);
        assert_eq!(meter.verifies, 1);
    }

    #[test]
    fn stage_budget_forces_recirculation() {
        let mut cfg = ChassisConfig::tofino(SwitchId::new(1), 2);
        cfg.stage_budget = 3;
        let mut c = Chassis::new(cfg);
        c.declare_register(RegisterArray::new("r", 1, 64));
        let pkt = Packet::from_bytes(PortId::new(1), vec![]);
        let out = c
            .process(0, &pkt, |ctx, _| {
                for _ in 0..7 {
                    ctx.update_register("r", 0, |v| v + 1)?;
                }
                Ok(vec![])
            })
            .unwrap();
        assert_eq!(out.stages_used, 7);
        // 7 stages at budget 3: passes of 3,3,1 → 2 recirculations.
        assert_eq!(out.recirculations, 2);
        assert_eq!(
            out.cost_ns,
            c.cost_model().pipeline_ns + 2 * c.cost_model().recirculation_ns
        );
        assert_eq!(c.register("r").unwrap().read(0).unwrap(), 7);
    }

    #[test]
    fn unknown_register_errors() {
        let mut c = chassis();
        let pkt = Packet::from_bytes(PortId::new(1), vec![]);
        let err = c
            .process(0, &pkt, |ctx, _| {
                ctx.read_register("nope", 0)?;
                Ok(vec![])
            })
            .unwrap_err();
        assert_eq!(err.to_string(), "no register named nope");
        assert_eq!(c.register_handle("nope"), None);
    }

    #[test]
    fn handles_are_dense_and_address_what_names_do() {
        let mut c = Chassis::new(ChassisConfig::tofino(SwitchId::new(1), 2));
        let a = c.declare_register(RegisterArray::new("a", 4, 64));
        let b = c.declare_register(RegisterArray::new("b", 4, 64));
        let mut table = MatchTable::new("map", TableKind::ExactSram, 4, 40);
        table
            .insert(MatchKey::new(7, 1), ActionEntry::new(1, 2, 3))
            .unwrap();
        let map = c.declare_table(table);
        assert_eq!((a, b), (RegisterHandle(0), RegisterHandle(1)));
        assert_eq!(map, TableHandle(0));
        assert_eq!(c.register_handle("b"), Some(b));
        // A driver write by name is what the handle path reads, and back.
        c.register_mut("b").unwrap().write(3, 41).unwrap();
        let pkt = Packet::from_bytes(PortId::new(1), vec![]);
        let out = c
            .process(0, &pkt, |ctx, _| {
                assert_eq!(ctx.read_register_at(b, 3), Ok(41));
                ctx.write_register_at(a, 0, 9)?;
                assert_eq!(ctx.read_register_at(a, 4).unwrap_err().index, 4);
                assert_eq!(ctx.lookup_at(map, MatchKey::new(7, 1)).unwrap().data0, 2);
                assert_eq!(ctx.lookup_at(map, MatchKey::new(7, 2)), None);
                Ok(vec![])
            })
            .unwrap();
        assert_eq!(out.stages_used, 5);
        assert_eq!(c.register("a").unwrap().read(0), Ok(9));
    }

    #[test]
    fn out_of_range_register_access_propagates() {
        let mut c = chassis();
        let pkt = Packet::from_bytes(PortId::new(1), vec![]);
        let err = c
            .process(0, &pkt, |ctx, _| {
                ctx.read_register("util", 99)?;
                Ok(vec![])
            })
            .unwrap_err();
        assert!(matches!(err, ChassisError::Register(_)));
    }

    #[test]
    fn emitting_to_missing_port_rejected() {
        let mut c = chassis();
        let pkt = Packet::from_bytes(PortId::new(1), vec![]);
        let err = c
            .process(0, &pkt, |_, p| Ok(vec![(PortId::new(99), p.clone())]))
            .unwrap_err();
        assert_eq!(err, ChassisError::NoSuchPort(PortId::new(99)));
    }

    #[test]
    fn port_enumeration() {
        let c = chassis();
        assert!(c.has_port(PortId::CPU));
        assert!(c.has_port(PortId::new(4)));
        assert!(!c.has_port(PortId::new(5)));
        assert_eq!(c.ports().count(), 4);
    }

    #[test]
    fn telemetry_accounts_pipeline_usage_per_switch() {
        let registry = Arc::new(p4auth_telemetry::Registry::with_event_capacity(16));
        let mut cfg = ChassisConfig::tofino(SwitchId::new(7), 2);
        cfg.stage_budget = 3;
        let mut c = Chassis::new(cfg);
        c.set_telemetry(registry.clone());
        c.declare_register(RegisterArray::new("r", 1, 64));
        let pkt = Packet::from_bytes(PortId::new(1), vec![]);
        let key = Key64::new(9);
        c.process(4_200, &pkt, |ctx, _| {
            for _ in 0..4 {
                ctx.update_register("r", 0, |v| v + 1)?;
            }
            let d = ctx.compute_digest(key, &[b"x"]);
            assert!(ctx.verify_digest(key, &[b"x"], d));
            Ok(vec![])
        })
        .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("dp_packets", "S7"), Some(1));
        assert_eq!(snap.counter("dp_stages", "S7"), Some(6));
        assert_eq!(snap.counter("dp_hash_passes", "S7"), Some(2));
        assert_eq!(snap.counter("dp_recirculations", "S7"), Some(1));
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].event.kind(), "recirc_used");
        // The chassis stamps events with the arrival time it was handed.
        assert_eq!(snap.events[0].t_ns, 4_200);
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn duplicate_register_panics() {
        let mut c = chassis();
        c.declare_register(RegisterArray::new("util", 1, 64));
    }

    #[test]
    #[should_panic(expected = "table map declared twice")]
    fn duplicate_table_panics() {
        let mut c = chassis();
        c.declare_table(MatchTable::new("map", TableKind::ExactSram, 1, 40));
    }

    #[test]
    fn kdf_passes_consume_hash_units_and_stages() {
        let mut c = chassis();
        let pkt = Packet::from_bytes(PortId::CPU, vec![]);
        let out = c
            .process(0, &pkt, |ctx, _| {
                ctx.record_kdf_passes(4);
                Ok(vec![])
            })
            .unwrap();
        assert_eq!(out.hash_passes, 4);
        assert_eq!(out.stages_used, 2);
        assert_eq!(c.hash_meter().kdf_passes, 4);
    }
}
