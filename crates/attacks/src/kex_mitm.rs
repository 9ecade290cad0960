//! Key-exchange MitM: why unauthenticated modified-DH (the DH-AES-P4
//! baseline) is insecure, and why P4Auth's authenticated exchange is not
//! (§III-B \[A3\], §VI).
//!
//! Prior data-plane key-exchange proposals run modified DH over the
//! untrusted switch control plane or network links *without message
//! authentication*. A classic key-substitution MitM then works perfectly:
//! the adversary intercepts each public key, substitutes their own, and
//! ends up sharing one key with each victim — able to read and forge
//! everything while both victims believe the channel is secure.
//!
//! P4Auth closes this by authenticating every exchange message (with
//! `K_seed`/`K_auth` for local keys, `K_local` for redirected port-key
//! legs, `K_port` for direct updates): the adversary can still *see*
//! public keys and salts, but any substituted message fails digest
//! verification.

use p4auth_core::adhkd::{self, AdhkdInitiator};
use p4auth_primitives::dh::DhParams;
use p4auth_primitives::kdf::Kdf;
use p4auth_primitives::rng::RandomSource;
use p4auth_primitives::Key64;

/// Outcome of a key-substitution MitM against an *unauthenticated*
/// modified-DH exchange.
#[derive(Debug)]
pub struct MitmOutcome {
    /// The key the initiator ended up with.
    pub initiator_key: Key64,
    /// The key the responder ended up with.
    pub responder_key: Key64,
    /// The key the adversary shares with the initiator.
    pub eve_initiator_key: Key64,
    /// The key the adversary shares with the responder.
    pub eve_responder_key: Key64,
}

impl MitmOutcome {
    /// Whether the adversary fully owns both directions of the channel.
    pub fn channel_compromised(&self) -> bool {
        self.initiator_key == self.eve_initiator_key && self.responder_key == self.eve_responder_key
    }
}

/// Runs the classic key-substitution attack against an unauthenticated
/// modified-DH exchange (the DH-AES-P4 baseline): Eve intercepts `PK1`
/// and the answer, substituting her own public keys and salts in both
/// directions.
pub fn attack_unauthenticated_dh(
    params: DhParams,
    victim_rng: &mut dyn RandomSource,
    eve_rng: &mut dyn RandomSource,
    kdf: &Kdf,
) -> MitmOutcome {
    // Initiator opens the exchange.
    let (initiator, offer) = AdhkdInitiator::start(params, victim_rng);

    // Eve intercepts the offer and opens her own exchange toward the
    // responder with a substituted public key/salt.
    let (eve_toward_responder, eve_offer) = AdhkdInitiator::start(params, eve_rng);

    // The responder answers *Eve's* offer (it has no way to tell).
    let (responder_answer, responder_key) = adhkd::respond(params, eve_offer, victim_rng, kdf);
    let eve_responder_key = eve_toward_responder.finish(responder_answer, kdf);

    // Eve answers the initiator's original offer herself.
    let (eve_answer, eve_initiator_key) = adhkd::respond(params, offer, eve_rng, kdf);
    let initiator_key = initiator.finish(eve_answer, kdf);

    MitmOutcome {
        initiator_key,
        responder_key,
        eve_initiator_key,
        eve_responder_key,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_core::agent::{AgentConfig, AgentEvent, P4AuthSwitch};
    use p4auth_core::auth::RejectReason;
    use p4auth_primitives::mac::HalfSipHashMac;
    use p4auth_primitives::rng::SplitMix64;
    use p4auth_wire::body::{AdhkdRole, KexContext, KeyExchange};
    use p4auth_wire::ids::{PortId, SeqNum, SwitchId};
    use p4auth_wire::Message;

    #[test]
    fn unauthenticated_dh_falls_to_key_substitution() {
        let params = DhParams::recommended();
        let kdf = Kdf::default();
        let mut victims = SplitMix64::new(1);
        let mut eve = SplitMix64::new(666);
        let outcome = attack_unauthenticated_dh(params, &mut victims, &mut eve, &kdf);

        // Eve owns both half-channels…
        assert!(outcome.channel_compromised());
        // …and the victims do NOT share a key with each other.
        assert_ne!(outcome.initiator_key, outcome.responder_key);
    }

    #[test]
    fn eve_can_forge_probes_after_compromising_unauthenticated_dh() {
        // With the initiator's key in hand, Eve seals arbitrary in-network
        // messages that the initiator accepts — the end-to-end impact of
        // the insecure key exchange.
        let params = DhParams::recommended();
        let kdf = Kdf::default();
        let mut victims = SplitMix64::new(2);
        let mut eve = SplitMix64::new(667);
        let outcome = attack_unauthenticated_dh(params, &mut victims, &mut eve, &kdf);

        let mac = HalfSipHashMac::default();
        let forged = Message::in_network(
            SwitchId::new(4),
            PortId::new(1),
            SeqNum::new(1),
            p4auth_wire::body::InNetwork::new(1, vec![0, 5, 0, 0, 0, 1, 5]),
        )
        .sealed(&mac, outcome.eve_initiator_key);
        // The victim verifies with the key it (wrongly) believes it shares
        // with its neighbour — which is Eve's key.
        assert!(forged.verify(&mac, outcome.initiator_key));
    }

    #[test]
    fn p4auth_rejects_substituted_exchange_messages() {
        // Against P4Auth the same substitution fails at step one: the
        // substituted ADHKD offer is not authenticated with the channel
        // key, so the data plane rejects it and alerts.
        let seed = Key64::new(0x5eed);
        let config = AgentConfig::new(SwitchId::new(1), 2, seed);
        let mut switch = P4AuthSwitch::new(config, None);
        let k_local = Key64::new(0x10ca1);
        switch.install_key(PortId::CPU, k_local);

        // Eve crafts an ADHKD offer with her own public key, but she does
        // not know K_local, so she seals with a guess.
        let params = DhParams::recommended();
        let mut eve = SplitMix64::new(668);
        let (_eve_init, eve_offer) = AdhkdInitiator::start(params, &mut eve);
        let mac = HalfSipHashMac::default();
        let msg = Message::key_exchange(
            SwitchId::CONTROLLER,
            PortId::CPU,
            SeqNum::new(1),
            KeyExchange::Adhkd {
                role: AdhkdRole::Offer,
                context: KexContext::LocalUpdate,
                public_key: eve_offer.public_key.to_raw(),
                salt: eve_offer.salt,
            },
        )
        .sealed(&mac, Key64::new(eve.next_u64()));

        let out = switch.on_packet(0, PortId::CPU, &msg.encode());
        assert!(out.has_event(&AgentEvent::Rejected(RejectReason::BadDigest)));
        // No key was installed or rolled.
        assert!(!out.events.iter().any(|e| matches!(
            e,
            AgentEvent::KeyRolled { .. } | AgentEvent::KeyInstalled { .. }
        )));
        // The local key is unchanged.
        assert_eq!(switch.keys(PortId::CPU).current(), Some(k_local));
    }

    #[test]
    fn passive_eve_with_the_public_kdf_recovers_the_master_secret() {
        // Reproduction finding: because the bare modified DH leaks
        // K_pms = (PK1 & PK2) ^ P to a passive observer, an eavesdropper
        // who ALSO knows the KDF construction recomputes the master secret
        // from purely public material. This is exactly why the paper keeps
        // the KDF's "custom logic … secret between C and DP" inside the
        // switch binary and recommends obfuscation (§VIII, "Security of
        // key mgmt. protocol") — secrecy of the derivation, K_seed secrecy
        // and rollover are the real confidentiality anchors, not DH'.
        let params = DhParams::recommended();
        let kdf = Kdf::default();
        let mut rng_i = SplitMix64::new(3);
        let mut rng_r = SplitMix64::new(4);
        let (init, offer) = AdhkdInitiator::start(params, &mut rng_i);
        let (answer, master_r) = adhkd::respond(params, offer, &mut rng_r, &kdf);
        let master_i = init.finish(answer, &kdf);
        assert_eq!(master_i, master_r);

        let k_pms_eve = (offer.public_key.to_raw() & answer.public_key.to_raw()) ^ params.p();
        let eve_master = kdf.derive(
            Key64::new(k_pms_eve),
            p4auth_primitives::Salt64::combine(offer.salt, answer.salt),
        );
        assert_eq!(
            eve_master, master_i,
            "the documented passive break must hold"
        );

        // With a *different* (private) KDF configuration — the paper's
        // actual defence — Eve's derivation no longer matches.
        let private_kdf = Kdf::new(p4auth_primitives::kdf::KdfConfig { rounds: 3 });
        let defended_master = private_kdf.derive(
            Key64::new(k_pms_eve),
            p4auth_primitives::Salt64::combine(offer.salt, answer.salt),
        );
        assert_ne!(defended_master, eve_master);
    }
}
