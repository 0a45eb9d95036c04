//! The distributed context store: the last published snapshot of every
//! participant.

use std::cell::RefCell;
use std::rc::Rc;

use morpheus_appia::platform::{DeviceClass, NodeId};
use morpheus_appia::wire::{Wire, WireError, WireReader, WireWriter};
use morpheus_groupcomm::recovery::StateSection;
use morpheus_groupcomm::table::Cursor;

use crate::context::ContextSnapshot;

/// A table of the most recent context snapshot received from each node.
///
/// The table is kept in node-id order as two index-aligned columns: the
/// `(node, version)` rows the digest anti-entropy protocol compares, stored
/// contiguously, and the snapshots themselves. Building a digest is a copy
/// of the first column, and comparing a received digest against the store
/// is one forward merge over it.
#[derive(Debug, Clone, Default)]
pub struct ContextStore {
    /// `(node, captured_at_ms)` of every stored snapshot, in node-id order.
    versions: Vec<(NodeId, u64)>,
    /// The snapshots, index-aligned with `versions`.
    snapshots: Vec<ContextSnapshot>,
}

impl ContextStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, node: NodeId) -> Result<usize, usize> {
        self.versions.binary_search_by_key(&node, |(node, _)| *node)
    }

    /// Inserts or refreshes a node's snapshot. Older snapshots (by capture
    /// time) never overwrite newer ones. Returns whether the snapshot was
    /// stored — i.e. whether it was *news* (a node not seen before, or a
    /// strictly newer capture), which is what decides whether an epidemic
    /// forwarder should keep spreading it.
    pub fn update(&mut self, snapshot: ContextSnapshot) -> bool {
        match self.position(snapshot.node) {
            Ok(at) => {
                let version = self.versions[at].1;
                if version > snapshot.captured_at_ms {
                    return false;
                }
                // Same version: last writer wins (a local re-sample within
                // one millisecond must not be ignored), but it is not news —
                // an epidemic forwarder receiving it must not spread it again.
                let news = version < snapshot.captured_at_ms;
                self.versions[at].1 = snapshot.captured_at_ms;
                self.snapshots[at] = snapshot;
                news
            }
            Err(at) => {
                self.versions
                    .insert(at, (snapshot.node, snapshot.captured_at_ms));
                self.snapshots.insert(at, snapshot);
                true
            }
        }
    }

    /// The capture time of a node's stored snapshot — the version the digest
    /// anti-entropy protocol compares (capture times are monotonic per node).
    pub fn version_of(&self, node: NodeId) -> Option<u64> {
        self.position(node).ok().map(|at| self.versions[at].1)
    }

    /// The `(node, version)` rows of the whole store, in node-id order.
    pub(crate) fn versions(&self) -> &[(NodeId, u64)] {
        &self.versions
    }

    /// The `(node, version)` digest of the whole store, in node-id order.
    pub fn digest(&self) -> Vec<(NodeId, u64)> {
        self.versions.clone()
    }

    /// Keeps the snapshots `keep` accepts, in one pass over both columns.
    fn retain(&mut self, mut keep: impl FnMut(NodeId, &ContextSnapshot) -> bool) {
        let mut kept = 0;
        for at in 0..self.versions.len() {
            if keep(self.versions[at].0, &self.snapshots[at]) {
                self.versions.swap(kept, at);
                self.snapshots.swap(kept, at);
                kept += 1;
            }
        }
        self.versions.truncate(kept);
        self.snapshots.truncate(kept);
    }

    /// Drops every node not in `members` (e.g. after a view change). The
    /// members must be in node-id order, as a view holds them: the store is
    /// merged against them in one pass.
    pub fn retain_members(&mut self, members: &[NodeId]) {
        let mut cursor = Cursor::default();
        self.retain(|node, _| cursor.find(members, node, |member| *member).is_some());
    }

    /// Removes nodes that have not published for `max_age_ms` relative to `now_ms`.
    pub fn evict_stale(&mut self, now_ms: u64, max_age_ms: u64) {
        self.retain(|_, snapshot| now_ms.saturating_sub(snapshot.captured_at_ms) <= max_age_ms);
    }

    /// Removes a node explicitly (e.g. when it leaves the view).
    pub fn remove(&mut self, node: NodeId) {
        if let Ok(at) = self.position(node) {
            self.versions.remove(at);
            self.snapshots.remove(at);
        }
    }

    /// The snapshot of one node, if known.
    pub fn get(&self, node: NodeId) -> Option<&ContextSnapshot> {
        self.position(node).ok().map(|at| &self.snapshots[at])
    }

    /// Every known snapshot, in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (&NodeId, &ContextSnapshot)> {
        self.versions
            .iter()
            .map(|(node, _)| node)
            .zip(&self.snapshots)
    }

    /// Number of nodes with a known snapshot.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether no snapshots are known.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Nodes whose last snapshot reports a mobile device class.
    pub fn mobile_nodes(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, snapshot)| snapshot.is_mobile() == Some(true))
            .map(|(node, _)| *node)
            .collect()
    }

    /// Nodes whose last snapshot reports a fixed device class.
    pub fn fixed_nodes(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, snapshot)| snapshot.is_mobile() == Some(false))
            .map(|(node, _)| *node)
            .collect()
    }

    /// Whether the known participants mix fixed and mobile devices — the
    /// condition that triggers the Mecho adaptation in the paper.
    pub fn is_hybrid(&self) -> bool {
        !self.mobile_nodes().is_empty() && !self.fixed_nodes().is_empty()
    }

    /// The highest error rate reported by any participant.
    pub fn max_error_rate(&self) -> f64 {
        self.snapshots
            .iter()
            .filter_map(ContextSnapshot::error_rate)
            .fold(0.0, f64::max)
    }

    /// The lowest battery level reported by any participant.
    pub fn min_battery_level(&self) -> f64 {
        self.snapshots
            .iter()
            .filter_map(ContextSnapshot::battery_level)
            .fold(1.0, f64::min)
    }

    /// The fixed node best suited to act as the Mecho relay: fixed device
    /// class first, then highest resource score, then lowest node id as a
    /// deterministic tie-breaker.
    pub fn best_relay(&self) -> Option<NodeId> {
        self.iter()
            .filter_map(|(node, snapshot)| snapshot.device_class().map(|class| (*node, class)))
            .filter(|(_, class)| class.is_fixed())
            .min_by_key(|(node, class)| (std::cmp::Reverse(class.resource_score()), node.0))
            .map(|(node, _)| node)
    }

    /// The node with the most remaining battery (used when every participant
    /// is mobile and one of them must carry extra load).
    pub fn best_battery_node(&self) -> Option<NodeId> {
        self.iter()
            .filter_map(|(node, snapshot)| snapshot.battery_level().map(|level| (*node, level)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(node, _)| node)
    }

    /// Convenience: the device class of one node, if known.
    pub fn device_class_of(&self, node: NodeId) -> Option<DeviceClass> {
        self.get(node).and_then(ContextSnapshot::device_class)
    }

    /// Serialises every snapshot — the rejoin state-transfer export.
    pub fn export_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u32(self.snapshots.len() as u32);
        for snapshot in &self.snapshots {
            snapshot.encode(&mut w);
        }
        w.finish().to_vec()
    }

    /// Merges an exported store into this one ([`ContextStore::update`]
    /// semantics: newer snapshots win, stale ones are ignored). Returns the
    /// number of snapshots that were news.
    pub fn import_merge(&mut self, bytes: &[u8]) -> Result<usize, WireError> {
        let mut r = WireReader::new(bytes);
        let count = r.get_u32()? as usize;
        // A snapshot encodes to at least 16 bytes; reject adversarial counts
        // before allocating.
        if count > r.remaining() / 16 {
            return Err(WireError::Malformed("context store count exceeds payload"));
        }
        let mut merged = 0;
        for _ in 0..count {
            let snapshot = ContextSnapshot::decode(&mut r)?;
            if self.update(snapshot) {
                merged += 1;
            }
        }
        Ok(merged)
    }
}

/// The context store as a rejoin state-transfer section: the donor exports
/// its replicated store, the restarted node merges it — so a rejoiner knows
/// every participant's context immediately instead of waiting for the digest
/// anti-entropy to repopulate it from scratch.
pub struct ContextStoreSection {
    store: Rc<RefCell<ContextStore>>,
}

impl ContextStoreSection {
    /// Wraps the node's shared context store.
    pub fn new(store: Rc<RefCell<ContextStore>>) -> Self {
        Self { store }
    }
}

impl StateSection for ContextStoreSection {
    fn name(&self) -> &str {
        "cocaditem-store"
    }

    fn export(&self) -> Vec<u8> {
        self.store.borrow().export_bytes()
    }

    fn install(&self, bytes: &[u8]) -> bool {
        self.store.borrow_mut().import_merge(bytes).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::platform::NodeProfile;

    use super::*;
    use crate::context::{ContextKey, ContextValue};

    fn fixed(node: u32, at: u64) -> ContextSnapshot {
        ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(node)), at)
    }

    fn mobile(node: u32, at: u64) -> ContextSnapshot {
        ContextSnapshot::from_profile(&NodeProfile::mobile_pda(NodeId(node)), at)
    }

    #[test]
    fn update_keeps_the_newest_snapshot() {
        let mut store = ContextStore::new();
        assert!(store.update(fixed(1, 100)), "first sighting is news");
        assert!(!store.update(fixed(1, 50)), "older snapshot is not");
        assert_eq!(store.get(NodeId(1)).unwrap().captured_at_ms, 100);
        assert!(!store.update(fixed(1, 100)), "same version is a duplicate");
        assert!(store.update(fixed(1, 200)));
        assert_eq!(store.get(NodeId(1)).unwrap().captured_at_ms, 200);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn digest_and_versions_track_capture_times() {
        let mut store = ContextStore::new();
        store.update(fixed(0, 100));
        store.update(mobile(2, 70));
        assert_eq!(store.version_of(NodeId(0)), Some(100));
        assert_eq!(store.version_of(NodeId(5)), None);
        assert_eq!(
            store.digest(),
            vec![(NodeId(0), 100), (NodeId(2), 70)],
            "digest lists every entry in node-id order"
        );
        store.retain_members(&[NodeId(2)]);
        assert_eq!(store.digest(), vec![(NodeId(2), 70)]);
    }

    #[test]
    fn hybrid_detection() {
        let mut store = ContextStore::new();
        store.update(fixed(0, 1));
        assert!(!store.is_hybrid());
        store.update(mobile(1, 1));
        assert!(store.is_hybrid());
        assert_eq!(store.mobile_nodes(), vec![NodeId(1)]);
        assert_eq!(store.fixed_nodes(), vec![NodeId(0)]);
    }

    #[test]
    fn best_relay_prefers_fixed_nodes_with_low_id() {
        let mut store = ContextStore::new();
        store.update(mobile(1, 1));
        assert_eq!(store.best_relay(), None);
        store.update(fixed(5, 1));
        store.update(fixed(3, 1));
        assert_eq!(store.best_relay(), Some(NodeId(3)));
    }

    #[test]
    fn aggregate_queries() {
        let mut store = ContextStore::new();
        let mut degraded = mobile(2, 1);
        degraded.set(ContextKey::ErrorRate, ContextValue::Number(0.15));
        degraded.set(ContextKey::BatteryLevel, ContextValue::Number(0.4));
        store.update(fixed(0, 1));
        store.update(degraded);
        assert!((store.max_error_rate() - 0.15).abs() < 1e-9);
        assert!((store.min_battery_level() - 0.4).abs() < 1e-9);
        assert_eq!(store.best_battery_node(), Some(NodeId(0)));
        assert_eq!(store.device_class_of(NodeId(0)), Some(DeviceClass::FixedPc));
    }

    #[test]
    fn export_import_roundtrip_merges_by_version() {
        let mut store = ContextStore::new();
        store.update(fixed(0, 100));
        store.update(mobile(2, 70));
        let bytes = store.export_bytes();

        // The importer holds a newer snapshot for node 2 and an older one
        // for node 0: only node 0's is overwritten.
        let mut other = ContextStore::new();
        other.update(fixed(0, 50));
        other.update(mobile(2, 90));
        assert_eq!(other.import_merge(&bytes).unwrap(), 1);
        assert_eq!(other.version_of(NodeId(0)), Some(100));
        assert_eq!(other.version_of(NodeId(2)), Some(90));

        assert!(other.import_merge(b"\xff\xff\xff\xff").is_err());

        // The section wrapper drives the same paths through shared state.
        let shared = Rc::new(RefCell::new(ContextStore::new()));
        let section = ContextStoreSection::new(shared.clone());
        assert!(section.install(&bytes));
        assert_eq!(shared.borrow().len(), 2);
        assert!(!section.export().is_empty());
        assert!(!section.install(b"\xff"));
        assert_eq!(section.name(), "cocaditem-store");
    }

    #[test]
    fn eviction_and_removal() {
        let mut store = ContextStore::new();
        store.update(fixed(0, 100));
        store.update(mobile(1, 900));
        store.evict_stale(1000, 500);
        assert!(store.get(NodeId(0)).is_none());
        assert!(store.get(NodeId(1)).is_some());
        store.remove(NodeId(1));
        assert!(store.is_empty());
    }
}
