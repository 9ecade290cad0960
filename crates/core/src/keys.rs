//! One slot of P4Auth's emulated key register.
//!
//! The prototype stores keys in a register with `N+1` entries: the local
//! key at index 0 and the key for port `p` at index `p` (§VII); the agent
//! keeps one [`crate::channel::ChannelEnd`] per entry. For consistent key
//! updates (§VI-C, borrowing from incremental consistent updates), each
//! slot keeps the *current* and *previous* key together with a version
//! counter; the sender tags messages with the version it used and the
//! receiver selects the matching key. Only a `ChannelEnd` moves a slot.

use p4auth_primitives::Key64;
use p4auth_wire::ids::KeyVersion;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One key slot (local key or one port key) with version history.
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeySlot {
    current: Key64,
    previous: Option<Key64>,
    version: KeyVersion,
    installed: bool,
}

impl fmt::Debug for KeySlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeySlot")
            .field("version", &self.version)
            .field("installed", &self.installed)
            .finish_non_exhaustive()
    }
}

impl Default for KeySlot {
    fn default() -> Self {
        KeySlot::EMPTY
    }
}

impl KeySlot {
    /// A slot with no key installed.
    pub const EMPTY: KeySlot = KeySlot {
        current: Key64::new(0),
        previous: None,
        version: KeyVersion::INITIAL,
        installed: false,
    };

    /// Whether a key has ever been installed in this slot.
    pub fn is_installed(&self) -> bool {
        self.installed
    }

    /// The current key version.
    pub fn version(&self) -> KeyVersion {
        self.version
    }

    /// The current key, if installed.
    pub fn current(&self) -> Option<Key64> {
        self.installed.then_some(self.current)
    }

    /// Installs the first key (version stays at its initial value).
    pub(crate) fn install(&mut self, key: Key64) {
        self.current = key;
        self.previous = None;
        self.installed = true;
    }

    /// Overwrites the slot with `key` at an explicit `version`. Used when
    /// mirroring a key that was derived elsewhere (a switch owned by a
    /// peer controller replica): the mirror trusts the publisher's version
    /// counter instead of running its own install/rollover sequence. A
    /// publisher exactly one version ahead rolled once, so the current key
    /// becomes the previous generation, as on the publisher; any other
    /// jump drops it. The same key at the same version changes nothing.
    pub(crate) fn force(&mut self, key: Key64, version: KeyVersion) {
        if self.current() == Some(key) && self.version == version {
            return;
        }
        self.previous =
            (self.installed && version.is_predecessor(self.version)).then_some(self.current);
        self.current = key;
        self.version = version;
        self.installed = true;
    }

    /// Rolls over to `key`: the old key is retained for in-flight messages
    /// tagged with the previous version.
    pub(crate) fn rollover(&mut self, key: Key64) {
        debug_assert!(self.installed, "rollover before install");
        self.previous = Some(self.current);
        self.current = key;
        self.version = self.version.next();
    }

    /// Selects the key matching a message's version tag: the current
    /// version, or the immediately preceding one (consistent updates keep
    /// exactly two generations).
    pub fn select(&self, version: KeyVersion) -> Option<Key64> {
        if !self.installed {
            return None;
        }
        if version == self.version {
            Some(self.current)
        } else if self.version.is_predecessor(version) {
            self.previous
        } else {
            None
        }
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
    fn install_keeps_the_initial_version() {
        let s = slot(11);
        assert_eq!(s.current(), Some(Key64::new(11)));
        assert_eq!(s.version(), KeyVersion::INITIAL);
        assert_eq!(s.select(KeyVersion::INITIAL), Some(Key64::new(11)));
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
        let before = s;
        s.force(Key64::new(2), KeyVersion::INITIAL.next());
        assert_eq!(s, before);
        assert_eq!(s.select(KeyVersion::INITIAL), Some(Key64::new(1)));
    }

    #[test]
    fn slot_debug_redacts_key_material() {
        let dbg = format!("{:?}", slot(0xdead_beef_feed_f00d));
        assert!(!dbg.contains("current"));
        assert!(dbg.contains("version"));
    }
}
