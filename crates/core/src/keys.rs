//! One slot of P4Auth's emulated key register (§VII): the current and
//! previous key generation, selected by a message's version tag (§VI-C).
//! A generation is also a sequence space (DESIGN §2). Only a
//! [`crate::channel::ChannelEnd`] moves a slot.

use p4auth_primitives::idhash::IdMap;
use p4auth_primitives::Key64;
use p4auth_wire::ids::{KeyVersion, SeqNum, SwitchId};

/// One key and the sequence space that lives and dies with it: the last
/// number sealed under it (0: none yet) and, per sender, the last number
/// accepted under it. Only a verified frame inserts a sender. `Debug`
/// shows no key material (`Key64` redacts itself).
#[derive(Clone, Debug)]
pub struct Generation {
    pub(crate) key: Key64,
    pub(crate) version: KeyVersion,
    pub(crate) sent: SeqNum,
    pub(crate) last_in: IdMap<SwitchId, SeqNum>,
}

impl Generation {
    pub(crate) fn new(key: Key64, version: KeyVersion) -> Self {
        Generation {
            key,
            version,
            sent: SeqNum::default(),
            last_in: IdMap::default(),
        }
    }

    /// The version frames under this key are tagged with.
    pub fn version(&self) -> KeyVersion {
        self.version
    }

    /// The last sequence number sealed under this key (0 before the first).
    pub fn last_sent(&self) -> SeqNum {
        self.sent
    }

    /// The last sequence number accepted from `peer` under this key.
    pub fn last_accepted(&self, peer: SwitchId) -> Option<SeqNum> {
        self.last_in.get(&peer).copied()
    }
}

/// One key slot: the current generation and the one before it.
#[derive(Clone, Debug, Default)]
pub struct KeySlot {
    pub(crate) current: Option<Generation>,
    pub(crate) previous: Option<Generation>,
}

impl KeySlot {
    /// A slot with no key installed.
    pub const EMPTY: KeySlot = KeySlot {
        current: None,
        previous: None,
    };

    /// Whether a key is installed in this slot.
    pub fn is_installed(&self) -> bool {
        self.current.is_some()
    }

    /// The current key version ([`KeyVersion::INITIAL`] while empty).
    pub fn version(&self) -> KeyVersion {
        self.current
            .as_ref()
            .map_or(KeyVersion::INITIAL, |g| g.version)
    }

    /// The current key, if installed.
    pub fn current(&self) -> Option<Key64> {
        self.current.as_ref().map(|g| g.key)
    }

    /// The current generation, then the previous one.
    pub fn generations(&self) -> impl Iterator<Item = &Generation> {
        self.current.iter().chain(&self.previous)
    }

    /// The key of the generation a version tag names (the ±1 rule).
    pub fn select(&self, version: KeyVersion) -> Option<Key64> {
        self.generations()
            .find(|g| g.version == version)
            .map(|g| g.key)
    }

    pub(crate) fn generation_mut(&mut self, version: KeyVersion) -> Option<&mut Generation> {
        [&mut self.current, &mut self.previous]
            .into_iter()
            .flatten()
            .find(|g| g.version == version)
    }

    /// A fresh first generation at [`KeyVersion::INITIAL`]; both old ones
    /// go, so two ends that re-initialise agree on the version.
    pub(crate) fn install(&mut self, key: Key64) {
        self.current = Some(Generation::new(key, KeyVersion::INITIAL));
        self.previous = None;
    }

    /// A fresh generation at the next version; the current one stays as
    /// the previous one for frames in flight.
    pub(crate) fn rollover(&mut self, key: Key64) {
        let fresh = Generation::new(key, self.version().next());
        self.previous = self.current.replace(fresh);
    }

    /// A fresh generation of a key derived elsewhere, at the publisher's
    /// `version`, keeping the current one only if the publisher rolled
    /// once; the same key at the same version changes nothing.
    pub(crate) fn force(&mut self, key: Key64, version: KeyVersion) {
        if self.current() == Some(key) && self.version() == version {
            return;
        }
        let old = self.current.replace(Generation::new(key, version));
        self.previous = old.filter(|g| version.is_predecessor(g.version));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(key: u64) -> KeySlot {
        let mut s = KeySlot::EMPTY;
        s.install(Key64::new(key));
        s
    }

    #[test]
    fn empty_slot_has_no_key() {
        let s = KeySlot::default();
        assert!(!s.is_installed());
        assert_eq!(s.current(), None);
        assert_eq!(s.select(KeyVersion::INITIAL), None);
    }

    #[test]
    fn install_starts_at_the_initial_version() {
        let mut s = slot(11);
        assert_eq!(s.current(), Some(Key64::new(11)));
        assert_eq!(s.version(), KeyVersion::INITIAL);
        assert_eq!(s.select(KeyVersion::INITIAL), Some(Key64::new(11)));
        s.rollover(Key64::new(12));
        s.install(Key64::new(13));
        assert_eq!(s.version(), KeyVersion::INITIAL);
        assert_eq!(s.select(KeyVersion::INITIAL.next()), None);
    }

    #[test]
    fn rollover_keeps_previous_generation() {
        let mut s = slot(1);
        s.rollover(Key64::new(2));
        let v0 = KeyVersion::INITIAL;
        let v1 = v0.next();
        // Messages tagged with the new version use the new key...
        assert_eq!(s.select(v1), Some(Key64::new(2)));
        // ...in-flight messages tagged with the old version still verify.
        assert_eq!(s.select(v0), Some(Key64::new(1)));
        assert_eq!((s.current(), s.version()), (Some(Key64::new(2)), v1));
    }

    #[test]
    fn only_two_generations_are_kept() {
        let mut s = slot(1);
        s.rollover(Key64::new(2));
        s.rollover(Key64::new(3));
        let v0 = KeyVersion::INITIAL;
        let v1 = v0.next();
        let v2 = v1.next();
        assert_eq!(s.select(v2), Some(Key64::new(3)));
        assert_eq!(s.select(v1), Some(Key64::new(2)));
        // Two-generations-old keys are gone (replay with stale keys fails).
        assert_eq!(s.select(v0), None);
    }

    #[test]
    fn future_versions_rejected() {
        assert_eq!(slot(1).select(KeyVersion::new(5)), None);
    }

    #[test]
    fn force_drops_the_previous_generation() {
        let mut s = slot(1);
        s.force(Key64::new(9), KeyVersion::new(4));
        assert_eq!(s.select(KeyVersion::new(4)), Some(Key64::new(9)));
        assert_eq!(s.select(KeyVersion::new(3)), None);
        assert_eq!(s.select(KeyVersion::INITIAL), None);
    }

    #[test]
    fn force_one_version_ahead_keeps_the_previous_generation() {
        let mut s = slot(1);
        let v1 = KeyVersion::INITIAL.next();
        s.force(Key64::new(2), v1);
        assert_eq!(s.select(v1), Some(Key64::new(2)));
        assert_eq!(s.select(KeyVersion::INITIAL), Some(Key64::new(1)));
    }

    #[test]
    fn force_with_the_same_key_and_version_changes_nothing() {
        let mut s = slot(1);
        s.rollover(Key64::new(2));
        s.current.as_mut().unwrap().sent = SeqNum::new(5);
        s.force(Key64::new(2), KeyVersion::INITIAL.next());
        assert_eq!(s.select(KeyVersion::INITIAL), Some(Key64::new(1)));
        assert_eq!(s.generations().next().unwrap().last_sent(), SeqNum::new(5));
    }

    #[test]
    fn slot_debug_redacts_key_material() {
        let dbg = format!("{:?}", slot(0xdead_beef_feed_f00d));
        for digits in ["dead", "DEAD", "feed", "16045690984833335309"] {
            assert!(!dbg.contains(digits), "{dbg}");
        }
        assert!(dbg.contains("version"));
    }
}
