//! Table I as a runnable gallery: for each class of in-network system,
//! run the characteristic state-tampering attack against the undefended
//! baseline and against P4Auth, and print what happened.
//!
//! ```sh
//! cargo run --example attack_gallery
//! ```

use p4auth::attacks::scenarios::run_all;
use p4auth::attacks::tls_gap::{rewrite_value_shim, write_landed, SwitchSoftwareStack};
use p4auth::attacks::{bruteforce, kex_mitm};
use p4auth::core::agent::{AgentConfig, P4AuthSwitch};
use p4auth::dataplane::register::RegisterArray;
use p4auth::primitives::dh::DhParams;
use p4auth::primitives::kdf::Kdf;
use p4auth::primitives::mac::HalfSipHashMac;
use p4auth::primitives::rng::SplitMix64;
use p4auth::primitives::Key64;
use p4auth::wire::body::RegisterOp;
use p4auth::wire::ids::{PortId, RegId, SeqNum, SwitchId};
use p4auth::wire::Message;

/// §III-B [A1]: one register write of 7 through a switch software stack
/// whose agent→driver layer rewrites it to 666 *below* the TLS endpoint.
/// Returns the value that landed in the data plane, if any.
fn write_through_backdoored_stack(p4auth: bool) -> Option<u64> {
    let (reg, k_local) = (RegId::new(42), Key64::new(0x0000_10ca_14e4));
    let config =
        AgentConfig::new(SwitchId::new(1), 2, Key64::new(0x5eed)).map_register(reg, "state");
    let config = if p4auth {
        config
    } else {
        config.insecure_baseline()
    };
    let mut switch = P4AuthSwitch::new(config, None);
    switch
        .chassis_mut()
        .declare_register(RegisterArray::new("state", 4, 64));
    switch.install_key(PortId::CPU, k_local);
    let write = Message::register_request(
        SwitchId::CONTROLLER,
        SeqNum::new(1),
        RegisterOp::write_req(reg, 0, 7),
    );
    let write = if p4auth {
        write.sealed(&HalfSipHashMac::default(), k_local)
    } else {
        write
    };
    let stack = SwitchSoftwareStack::compromised(true, rewrite_value_shim(666));
    write_landed(&stack.deliver(&mut switch, 0, &write))
}

fn main() {
    println!("Table I gallery: altering C-DP update messages per system class\n");
    println!(
        "{:<30} {:<12} {:<12} {:<8}",
        "system class", "baseline", "with P4Auth", "alert?"
    );
    println!("{}", "-".repeat(66));
    for r in run_all() {
        println!(
            "{:<30} {:<12} {:<12} {:<8}",
            r.class.label(),
            if r.baseline_compromised {
                "COMPROMISED"
            } else {
                "safe"
            },
            if r.p4auth_blocked {
                "protected"
            } else {
                "FAILED"
            },
            if r.alert_raised { "yes" } else { "no" },
        );
        println!("    impact when unprotected: {}", r.impact);
        println!(
            "    register value: baseline ended at {}, P4Auth preserved {}",
            r.baseline_final_value, r.p4auth_final_value
        );
    }

    println!("\n§VIII brute-force analysis:");
    println!(
        "  32-bit digest, 1M online guesses: success probability {:.6}%, {} alerts raised",
        100.0 * bruteforce::digest_guess_success_probability(1_000_000, 32),
        bruteforce::expected_alerts(1_000_000),
    );
    println!(
        "  64-bit key at GPU reference rate: {:.0} days to exhaust; 180-day rollover {}",
        bruteforce::key_search_days(64),
        if bruteforce::rollover_defeats_bruteforce(64, 180.0) {
            "defeats the search"
        } else {
            "IS INSUFFICIENT"
        },
    );

    println!(
        "\n§III-B [A1]: the TLS gap — a backdoor below the TLS endpoint rewrites write(7) to 666"
    );
    for (arm, p4auth) in [("TLS-protected P4Runtime", false), ("P4Auth", true)] {
        match write_through_backdoored_stack(p4auth) {
            Some(value) => {
                println!("  {arm}: the data plane wrote {value} — TLS had already succeeded")
            }
            None => {
                println!("  {arm}: rejected in the data plane (bad digest), register untouched")
            }
        }
    }

    println!("\n§III-B [A3]: key substitution vs UNAUTHENTICATED modified DH");
    let params = DhParams::recommended();
    let kdf = Kdf::default();
    let mut victims = SplitMix64::new(1);
    let mut eve = SplitMix64::new(666);
    let outcome = kex_mitm::attack_unauthenticated_dh(params, &mut victims, &mut eve, &kdf);
    println!(
        "  without message authentication (the DH-AES-P4 baseline): channel {}",
        if outcome.channel_compromised() {
            "FULLY COMPROMISED — Eve holds both keys"
        } else {
            "survived"
        }
    );
    println!("  with P4Auth every exchange message is digest-protected, so the");
    println!("  substituted offer is rejected before any key installs (see the");
    println!("  kex_mitm tests for the executable proof).");
}
