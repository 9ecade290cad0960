//! Key management protocol accounting and scalability model (Fig. 14,
//! Table III, §XI).
//!
//! The protocol *flows* are implemented by the data-plane agent
//! ([`crate::agent`]) and the controller (`p4auth-controller`); this module
//! captures the protocol's shape — which messages each operation exchanges,
//! their sizes, and the aggregate controller load in a network of `m`
//! switches and `n` links.

use serde::{Deserialize, Serialize};

/// EAK message size on the wire (22 bytes: 14-byte header + 8-byte salt
/// payload).
pub const EAK_MSG_BYTES: u64 = 22;
/// ADHKD message size on the wire (30 bytes: header + PK/salt payload).
pub const ADHKD_MSG_BYTES: u64 = 30;
/// KMP control message size (`portKeyInit`/`portKeyUpdate`, 18 bytes).
pub const CONTROL_MSG_BYTES: u64 = 18;

/// The four key-management operations of Fig. 14.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum KeyOperation {
    /// Local key initialization: EAK (2 messages) + ADHKD (2 messages).
    LocalInit,
    /// Local key rollover: ADHKD under the current `K_local` (2 messages).
    LocalUpdate,
    /// Port key initialization: `portKeyInit` + ADHKD redirected via the
    /// controller (1 + 4 legs = 5 messages).
    PortInit,
    /// Port key rollover: `portKeyUpdate` + direct DP-DP ADHKD
    /// (1 + 2 = 3 messages).
    PortUpdate,
}

impl KeyOperation {
    /// All operations in the paper's presentation order.
    pub const ALL: [KeyOperation; 4] = [
        KeyOperation::LocalInit,
        KeyOperation::LocalUpdate,
        KeyOperation::PortInit,
        KeyOperation::PortUpdate,
    ];

    /// Figure-20 label.
    pub fn label(self) -> &'static str {
        match self {
            KeyOperation::LocalInit => "local key init",
            KeyOperation::LocalUpdate => "local key update",
            KeyOperation::PortInit => "port key init",
            KeyOperation::PortUpdate => "port key update",
        }
    }

    /// Messages exchanged by one operation (Table III).
    pub fn message_count(self) -> u32 {
        match self {
            KeyOperation::LocalInit => 4,
            KeyOperation::LocalUpdate => 2,
            KeyOperation::PortInit => 5,
            KeyOperation::PortUpdate => 3,
        }
    }

    /// Bytes exchanged by one operation (Table III: 104 / 60 / 138 / 78).
    pub fn byte_count(self) -> u64 {
        match self {
            KeyOperation::LocalInit => 2 * EAK_MSG_BYTES + 2 * ADHKD_MSG_BYTES,
            KeyOperation::LocalUpdate => 2 * ADHKD_MSG_BYTES,
            KeyOperation::PortInit => CONTROL_MSG_BYTES + 4 * ADHKD_MSG_BYTES,
            KeyOperation::PortUpdate => CONTROL_MSG_BYTES + 2 * ADHKD_MSG_BYTES,
        }
    }
}

/// A network of `m` switches and `n` links, for the Table III / §XI
/// aggregate-load model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct NetworkScale {
    /// Number of switches (`m`).
    pub switches: u64,
    /// Number of links (`n`).
    pub links: u64,
}

impl NetworkScale {
    /// The §XI example: an ONOS WAN with 205 switches, 414 links and 8
    /// controllers — about 25 switches and 50 links per controller.
    pub const ONOS_PER_CONTROLLER: NetworkScale = NetworkScale {
        switches: 25,
        links: 50,
    };

    /// Messages for simultaneous key initialization: `4m + 5n`.
    pub fn init_messages(self) -> u64 {
        4 * self.switches + 5 * self.links
    }

    /// Bytes for simultaneous key initialization: `104m + 138n`.
    pub fn init_bytes(self) -> u64 {
        KeyOperation::LocalInit.byte_count() * self.switches
            + KeyOperation::PortInit.byte_count() * self.links
    }

    /// Messages for simultaneous key update: `2m + 3n`.
    pub fn update_messages(self) -> u64 {
        2 * self.switches + 3 * self.links
    }

    /// Bytes for simultaneous key update: `60m + 78n`.
    pub fn update_bytes(self) -> u64 {
        KeyOperation::LocalUpdate.byte_count() * self.switches
            + KeyOperation::PortUpdate.byte_count() * self.links
    }

    /// Sequential completion time for all initializations given a per-switch
    /// and per-link operation time (§XI: 150 ms for the ONOS example at
    /// 2 ms each; "improves significantly when done in parallel").
    pub fn sequential_init_time_ns(self, per_local_init_ns: u64, per_port_init_ns: u64) -> u64 {
        self.switches * per_local_init_ns + self.links * per_port_init_ns
    }
}

/// A logically-centralized, physically-distributed controller deployment
/// (§XI "P4Auth scalability"): `controllers` primary nodes each own a
/// subset of switches and links, as in ONOS/Onix/HyperFlow.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ShardedDeployment {
    /// Total switches in the network.
    pub switches: u64,
    /// Total links.
    pub links: u64,
    /// Controller nodes sharing the load.
    pub controllers: u64,
}

impl ShardedDeployment {
    /// The §XI example: an ONOS WAN with 205 switches, 414 links and 8
    /// controllers.
    pub const ONOS_WAN: ShardedDeployment = ShardedDeployment {
        switches: 205,
        links: 414,
        controllers: 8,
    };

    /// The per-controller share (ceiling — the worst-loaded controller).
    pub fn per_controller(self) -> NetworkScale {
        NetworkScale {
            switches: self.switches.div_ceil(self.controllers),
            links: self.links.div_ceil(self.controllers),
        }
    }

    /// Worst-case messages at one controller for simultaneous key
    /// initialization.
    pub fn init_messages_per_controller(self) -> u64 {
        self.per_controller().init_messages()
    }

    /// Worst-case bytes at one controller for simultaneous key
    /// initialization.
    pub fn init_bytes_per_controller(self) -> u64 {
        self.per_controller().init_bytes()
    }

    /// Sequential time for one controller to initialize its whole shard
    /// (§XI: ~150 ms at 2 ms per operation; "improves significantly when
    /// done in parallel").
    pub fn sequential_init_ns(self, per_op_ns: u64) -> u64 {
        self.per_controller()
            .sequential_init_time_ns(per_op_ns, per_op_ns)
    }

    /// Sequential time for one controller to update every key in its
    /// shard (§XI: ~75 ms at 1 ms per update).
    pub fn sequential_update_ns(self, per_op_ns: u64) -> u64 {
        let s = self.per_controller();
        (s.switches + s.links) * per_op_ns
    }

    /// Time when the controller batches `batch` concurrent operations
    /// (§XI: "controllers can carefully batch the key updates").
    pub fn batched_init_ns(self, per_op_ns: u64, batch: u64) -> u64 {
        let s = self.per_controller();
        let ops = s.switches + s.links;
        ops.div_ceil(batch.max(1)) * per_op_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_per_operation_messages() {
        assert_eq!(KeyOperation::LocalInit.message_count(), 4);
        assert_eq!(KeyOperation::PortInit.message_count(), 5);
        assert_eq!(KeyOperation::LocalUpdate.message_count(), 2);
        assert_eq!(KeyOperation::PortUpdate.message_count(), 3);
    }

    #[test]
    fn table_iii_per_operation_bytes() {
        assert_eq!(KeyOperation::LocalInit.byte_count(), 104);
        assert_eq!(KeyOperation::PortInit.byte_count(), 138);
        assert_eq!(KeyOperation::LocalUpdate.byte_count(), 60);
        assert_eq!(KeyOperation::PortUpdate.byte_count(), 78);
    }

    #[test]
    fn table_iii_onos_example_init() {
        // m=25, n=50: 350 messages and 9.5 KB, as published.
        let s = NetworkScale::ONOS_PER_CONTROLLER;
        assert_eq!(s.init_messages(), 350);
        assert_eq!(s.init_bytes(), 9_500);
    }

    #[test]
    fn table_iii_onos_example_update() {
        // Formulas give 2m+3n = 200 messages and 60m+78n = 5.4 KB.
        // (The paper's Table III cell prints 125 messages for m=25, n=50,
        // which is inconsistent with its own 2m+3n formula; we follow the
        // formula and note the discrepancy in EXPERIMENTS.md.)
        let s = NetworkScale::ONOS_PER_CONTROLLER;
        assert_eq!(s.update_messages(), 200);
        assert_eq!(s.update_bytes(), 5_400);
    }

    #[test]
    fn sequential_init_time_onos() {
        // §XI: ~150 ms to initialize a 25-switch / 50-link controller
        // domain at ~2 ms per operation.
        let s = NetworkScale::ONOS_PER_CONTROLLER;
        let total_ms = s.sequential_init_time_ns(2_000_000, 2_000_000) as f64 / 1e6;
        assert!((100.0..=200.0).contains(&total_ms), "{total_ms}ms");
    }

    #[test]
    fn labels() {
        for op in KeyOperation::ALL {
            assert!(!op.label().is_empty());
        }
    }

    #[test]
    fn onos_wan_shard_matches_section_xi() {
        let d = ShardedDeployment::ONOS_WAN;
        let shard = d.per_controller();
        // "each controller is responsible for 25 switches and 50 links on
        // average" (we take ceilings: 26/52 worst case covers the average).
        assert!(shard.switches >= 25 && shard.switches <= 26);
        assert!(shard.links >= 50 && shard.links <= 52);
        // §XI: up to ~350 messages / ~9.5 KB per controller at init.
        assert!((340..=380).contains(&d.init_messages_per_controller()));
        assert!((9_000..=10_200).contains(&d.init_bytes_per_controller()));
    }

    #[test]
    fn onos_wan_sequential_times_match_section_xi() {
        let d = ShardedDeployment::ONOS_WAN;
        // ~150 ms to initialize at 2 ms/op; ~75 ms to update at 1 ms/op.
        let init_ms = d.sequential_init_ns(2_000_000) as f64 / 1e6;
        let update_ms = d.sequential_update_ns(1_000_000) as f64 / 1e6;
        assert!((140.0..=170.0).contains(&init_ms), "init {init_ms} ms");
        assert!((70.0..=85.0).contains(&update_ms), "update {update_ms} ms");
    }

    #[test]
    fn batching_improves_latency_linearly() {
        let d = ShardedDeployment::ONOS_WAN;
        let seq = d.batched_init_ns(2_000_000, 1);
        let b8 = d.batched_init_ns(2_000_000, 8);
        assert_eq!(seq, d.sequential_init_ns(2_000_000));
        assert!(b8 * 7 < seq, "batching 8-wide should cut time ~8x");
        // Degenerate batch size is clamped.
        assert_eq!(d.batched_init_ns(2_000_000, 0), seq);
    }

    #[test]
    fn more_controllers_mean_less_load_each() {
        let few = ShardedDeployment {
            switches: 100,
            links: 200,
            controllers: 2,
        };
        let many = ShardedDeployment {
            switches: 100,
            links: 200,
            controllers: 10,
        };
        assert!(many.init_messages_per_controller() < few.init_messages_per_controller());
    }
}
