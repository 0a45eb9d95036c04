//! The Cocaditem dissemination layer.
//!
//! This layer runs on the group communication **control channel** of every
//! node. Periodically it samples the local context through the retrievers;
//! snapshots received from peers are stored and re-published upward as
//! [`ContextUpdated`] events so the Core control layer (stacked above) can
//! evaluate its adaptation policies against the *distributed* context —
//! exactly the coordination the paper's prototype performs over a shared
//! control channel.
//!
//! Dissemination is epidemic rather than an all-to-all flood:
//!
//! * when the local context changes significantly, the snapshot is **pushed
//!   to `fanout` random peers**, each of which forwards fresh snapshots to
//!   another `fanout` peers while `forward_ttl` lasts — `O(n · fanout)`
//!   messages per publication instead of `n · (n - 1)`, converging in
//!   `O(log n)` hops;
//! * every publish interval the layer additionally gossips a compact
//!   [`ContextDigest`] — its `(node, version)` view of the store — to
//!   `fanout` random peers. A digest receiver **pulls** the snapshots its
//!   peer holds newer versions of ([`ContextPull`], rate-limited per node so
//!   concurrent digests do not re-request the same snapshots) and the answer
//!   arrives as one batched [`ContextBatch`], so any snapshot lost in
//!   transit is repaired within a few intervals without periodically
//!   re-flooding full snapshots.
//!
//! Setting `fanout` to `0` restores the legacy flood (full snapshot to every
//! member on every change, plus the `refresh_every` full republish), which
//! benchmarks use as the O(n²) baseline.
//!
//! The members, the per-member anti-entropy state and the
//! [`ContextStore`] are all kept in node-id order, so handling a received
//! digest — whose rows are in node order too — is one forward merge over
//! them (see [`morpheus_groupcomm::table`]): O(n) per digest, no hashing.

use morpheus_appia::event::{Dest, Direction, Event, EventSpec};
use morpheus_appia::events::{ChannelInit, TimerExpired};
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{param_node_list, param_or, Layer, LayerParams};
use morpheus_appia::message::Message;
use morpheus_appia::platform::{DeliveryKind, NodeId};
use morpheus_appia::session::Session;
use morpheus_appia::wire::{Wire, WireError, WireReader, WireWriter};
use morpheus_appia::{internal_event, sendable_event, Kernel};
use morpheus_groupcomm::events::ViewInstall;
use morpheus_groupcomm::table::Cursor;
use morpheus_groupcomm::View;

use std::cell::RefCell;
use std::rc::Rc;

use crate::context::ContextSnapshot;
use crate::retriever::{default_retrievers, ContextRetriever};
use crate::store::ContextStore;

/// Registered name of the Cocaditem dissemination layer.
pub const COCADITEM_LAYER: &str = "cocaditem";

/// Timer tag for the periodic publication.
const PUBLISH_TAG: u32 = 1;

sendable_event! {
    /// A context snapshot travelling between nodes (payload: a forwarding
    /// TTL on top of the encoded [`ContextSnapshot`]).
    pub struct ContextPublish, class: Context
}

sendable_event! {
    /// An anti-entropy digest: the sender's `(node, version)` view of its
    /// context store (payload: the encoded [`DigestBody`]).
    pub struct ContextDigest, class: Context
}

sendable_event! {
    /// A pull request for snapshots the digest sender holds newer versions
    /// of (payload: the encoded [`PullBody`]).
    pub struct ContextPull, class: Context
}

sendable_event! {
    /// The answer to a [`ContextPull`]: every requested snapshot batched
    /// into one message (payload: the encoded [`BatchBody`]), so repairing a
    /// freshly booted node costs one message instead of one per member.
    pub struct ContextBatch, class: Context
}

internal_event! {
    /// A context snapshot became available locally (either sampled locally or
    /// received from a peer); travels up the control channel towards the Core
    /// control layer.
    pub struct ContextUpdated {
        /// The snapshot.
        pub snapshot: ContextSnapshot,
    }
    categories: [Internal]
}

/// Wire body of a [`ContextDigest`]: every store entry as `(node, version)`,
/// where the version is the snapshot's capture time (monotonic per node),
/// sent as a delta-row table (see [`morpheus_appia::wire::Row`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DigestBody {
    /// `(node, version)` pairs, in node-id order.
    pub entries: Vec<(NodeId, u64)>,
}

impl Wire for DigestBody {
    fn encode(&self, w: &mut WireWriter) {
        w.put_rows(&self.entries);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            entries: r.get_rows()?,
        })
    }
}

/// Wire body of a [`ContextPull`]: the nodes whose snapshots are requested.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PullBody {
    /// Nodes whose snapshots the requester is missing or holds stale.
    pub nodes: Vec<NodeId>,
}

impl Wire for PullBody {
    fn encode(&self, w: &mut WireWriter) {
        w.put_rows(&self.nodes);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            nodes: r.get_rows()?,
        })
    }
}

/// Wire body of a [`ContextBatch`]: the requested snapshots.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchBody {
    /// The snapshots, in the order they were requested.
    pub snapshots: Vec<ContextSnapshot>,
}

impl Wire for BatchBody {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.snapshots.len() as u32);
        for snapshot in &self.snapshots {
            snapshot.encode(w);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let count = r.get_u32()? as usize;
        // A snapshot encodes to at least 16 bytes (node + capture time +
        // value count); reject adversarial counts before allocating.
        if count > r.remaining() / 16 {
            return Err(WireError::Malformed("context batch count exceeds payload"));
        }
        let mut snapshots = Vec::with_capacity(count);
        for _ in 0..count {
            snapshots.push(ContextSnapshot::decode(r)?);
        }
        Ok(Self { snapshots })
    }
}

/// Registers the Cocaditem layer and its event types with a kernel. The
/// layer's sessions own their stores privately; use
/// [`register_cocaditem_with_store`] to share the store with the node
/// runtime (e.g. for rejoin state transfer).
pub fn register_cocaditem(kernel: &mut Kernel) {
    kernel.layers_mut().register(CocaditemLayer::default());
    register_cocaditem_events(kernel);
}

/// Registers the Cocaditem layer backed by a shared context store: every
/// session created from it reads and writes `store`, so the node runtime
/// (and the recovery layer's [`crate::store::ContextStoreSection`]) observe
/// the live replicated context.
pub fn register_cocaditem_with_store(kernel: &mut Kernel, store: Rc<RefCell<ContextStore>>) {
    kernel.layers_mut().register(CocaditemLayer {
        shared_store: Some(store),
    });
    register_cocaditem_events(kernel);
}

fn register_cocaditem_events(kernel: &mut Kernel) {
    ContextPublish::register(kernel.events_mut());
    ContextDigest::register(kernel.events_mut());
    ContextPull::register(kernel.events_mut());
    ContextBatch::register(kernel.events_mut());
}

/// The Cocaditem dissemination layer.
///
/// Parameters:
///
/// * `members` — comma-separated initial membership of the control group
///   (kept sorted and de-duplicated, as a [`View`] holds it);
/// * `publish_interval_ms` — how often the local context is sampled and the
///   digest round runs (default 1000 ms);
/// * `fanout` — random peers each push/digest targets (default 3; `0`
///   selects the legacy all-to-all flood);
/// * `forward_ttl` — epidemic forwarding rounds a fresh snapshot survives
///   (default 3);
/// * `refresh_every` — legacy mode only: full republish every N quiet ticks
///   (default 10).
#[derive(Default)]
pub struct CocaditemLayer {
    /// When set, every created session shares this store instead of owning
    /// a private one (see [`register_cocaditem_with_store`]).
    shared_store: Option<Rc<RefCell<ContextStore>>>,
}

impl Layer for CocaditemLayer {
    fn name(&self) -> &str {
        COCADITEM_LAYER
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![
            EventSpec::of::<ContextPublish>(),
            EventSpec::of::<ContextDigest>(),
            EventSpec::of::<ContextPull>(),
            EventSpec::of::<ContextBatch>(),
            EventSpec::of::<ChannelInit>(),
            EventSpec::of::<TimerExpired>(),
            EventSpec::of::<ViewInstall>(),
        ]
    }

    fn provided_events(&self) -> Vec<&'static str> {
        vec![
            "ContextPublish",
            "ContextDigest",
            "ContextPull",
            "ContextBatch",
            "ContextUpdated",
        ]
    }

    fn create_session(&self, params: &LayerParams) -> Box<dyn Session> {
        let members = View::initial(param_node_list(params, "members")).members;
        Box::new(CocaditemSession {
            peers: vec![PeerState::default(); members.len()],
            members,
            publish_interval_ms: param_or(params, "publish_interval_ms", 1000u64).max(10),
            refresh_every: param_or(params, "refresh_every", 10u32).max(1),
            fanout: param_or(params, "fanout", 3usize),
            forward_ttl: param_or(params, "forward_ttl", 3u32),
            retrievers: default_retrievers(),
            store: self.shared_store.clone().unwrap_or_default(),
            last_published: None,
            ticks_since_publish: 0,
            publications: 0,
            converged_reported: false,
        })
    }
}

/// Whether a freshly sampled snapshot differs enough from the last published
/// one to be worth disseminating (battery drains continuously, so small
/// numeric drifts are suppressed to keep the control traffic low).
fn changed_significantly(previous: &ContextSnapshot, current: &ContextSnapshot) -> bool {
    use crate::context::ContextKey;

    if previous.device_class() != current.device_class() {
        return true;
    }
    let numeric_changed = |key: ContextKey, tolerance: f64| {
        let before = previous
            .get(key)
            .and_then(crate::context::ContextValue::as_number);
        let after = current
            .get(key)
            .and_then(crate::context::ContextValue::as_number);
        match (before, after) {
            (Some(before), Some(after)) => (before - after).abs() > tolerance,
            (None, None) => false,
            _ => true,
        }
    };
    numeric_changed(ContextKey::BatteryLevel, 0.05)
        || numeric_changed(ContextKey::ErrorRate, 0.01)
        || numeric_changed(ContextKey::LinkQuality, 0.05)
        || numeric_changed(ContextKey::BandwidthKbps, 500.0)
        || previous.get(ContextKey::NativeMulticast) != current.get(ContextKey::NativeMulticast)
}

/// The anti-entropy state the layer keeps about one member.
#[derive(Debug, Clone, Copy, Default)]
struct PeerState {
    /// Pull budget for the member's snapshot: `(window start ms, pulls
    /// issued in the window)`. Up to **two** digest senders per publish
    /// interval may be pulled from for the same missing snapshot — one
    /// redundant pull halves the tail under heavy control loss (a single
    /// lost answer no longer costs a whole extra interval), while still
    /// keeping the boot transient far below the flood it replaces. Cleared
    /// when the snapshot arrives.
    pulls: Option<(u64, u32)>,
    /// Whether the member's most recent digest advertised a staler view of
    /// the store than ours. Our own digest targets are biased towards such
    /// peers: a peer that is behind learns what to pull from us one interval
    /// sooner than uniform random targeting would manage, which shortens the
    /// last stragglers' convergence tail.
    behind: bool,
}

/// Session state of the Cocaditem dissemination layer.
pub struct CocaditemSession {
    /// The installed view's members, in node-id order.
    // bound: replaced wholesale on every view install; <= view size.
    members: Vec<NodeId>,
    /// Per-member anti-entropy state, index-aligned with `members`.
    // bound: merged against the membership on view install; == view size.
    peers: Vec<PeerState>,
    publish_interval_ms: u64,
    refresh_every: u32,
    /// Push/digest fan-out; `0` selects the legacy all-to-all flood.
    fanout: usize,
    forward_ttl: u32,
    // bound: fixed set installed at session construction; never grows.
    retrievers: Vec<Box<dyn ContextRetriever>>,
    store: Rc<RefCell<ContextStore>>,
    last_published: Option<ContextSnapshot>,
    ticks_since_publish: u32,
    publications: u64,
    converged_reported: bool,
}

impl std::fmt::Debug for CocaditemSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CocaditemSession")
            .field("members", &self.members)
            .field("publish_interval_ms", &self.publish_interval_ms)
            .field("fanout", &self.fanout)
            .field("known_nodes", &self.store.borrow().len())
            .field("publications", &self.publications)
            .finish()
    }
}

impl CocaditemSession {
    fn sample_local(&mut self, ctx: &mut EventContext<'_>) -> ContextSnapshot {
        let profile = ctx.profile();
        let mut snapshot = ContextSnapshot::new(profile.node_id, ctx.now_ms());
        for retriever in &self.retrievers {
            for (key, value) in retriever.retrieve(&profile) {
                snapshot.set(key, value);
            }
        }
        snapshot
    }

    /// Picks up to `limit` random members, excluding `exclude`.
    fn random_targets(
        &self,
        limit: usize,
        exclude: &[NodeId],
        ctx: &mut EventContext<'_>,
    ) -> Vec<NodeId> {
        morpheus_groupcomm::gossip::sample_peers(&self.members, exclude, limit, ctx)
    }

    /// Sends one snapshot to explicit targets with the given forwarding TTL.
    fn send_snapshot(
        snapshot: &ContextSnapshot,
        ttl: u32,
        targets: Vec<NodeId>,
        ctx: &mut EventContext<'_>,
    ) {
        if targets.is_empty() {
            return;
        }
        let mut message = Message::new();
        message.push(snapshot);
        message.push(&ttl);
        ctx.dispatch(Event::down(ContextPublish::new(
            ctx.node_id(),
            Dest::Nodes(targets),
            message,
        )));
    }

    /// Reports (once) that the store covers the whole membership, so the
    /// testbed can measure dissemination convergence time.
    fn maybe_report_convergence(&mut self, ctx: &mut EventContext<'_>) {
        if self.converged_reported || self.members.is_empty() {
            return;
        }
        // One merge of the members against the store's node-ordered rows.
        let store = self.store.borrow();
        let mut cursor = Cursor::default();
        let covered = self.members.iter().all(|member| {
            cursor
                .find(store.versions(), *member, |(node, _)| *node)
                .is_some()
        });
        drop(store);
        if covered {
            self.converged_reported = true;
            ctx.deliver(DeliveryKind::ContextConverged {
                nodes: self.members.len(),
            });
        }
    }

    /// Samples the local context and disseminates it when it changed
    /// significantly since the last publication. In epidemic mode the
    /// snapshot is pushed to `fanout` random peers (anti-entropy digests
    /// repair any loss); in legacy mode it is flooded to every member, with
    /// the periodic `refresh_every` full republish as the loss crutch.
    fn publish(&mut self, ctx: &mut EventContext<'_>, force: bool) {
        let local = ctx.node_id();
        let snapshot = self.sample_local(ctx);
        // Local context is reported upward on every tick so the local Core
        // instance sees its own node's context without a network round trip.
        ctx.dispatch(Event::up(ContextUpdated {
            snapshot: snapshot.clone(),
        }));
        // Coverage can also be completed from outside the dissemination
        // exchanges — a rejoined node's store is installed wholesale by the
        // recovery state transfer — so the convergence check runs on every
        // tick, not only when this node's own context changed.
        self.maybe_report_convergence(ctx);

        self.ticks_since_publish += 1;
        let changed = match &self.last_published {
            Some(previous) => changed_significantly(previous, &snapshot),
            None => true,
        };
        let legacy_refresh = self.fanout == 0 && self.ticks_since_publish >= self.refresh_every;
        if !(force || changed || legacy_refresh) {
            return;
        }

        // The store (and therefore the digest) only ever advances to
        // *published* versions: an unpublished local re-sample must not bump
        // the advertised version, or every digest receiver would pull the
        // "newer" snapshot on every interval forever.
        self.store.borrow_mut().update(snapshot.clone());
        self.maybe_report_convergence(ctx);

        let targets = if self.fanout == 0 {
            self.members
                .iter()
                .copied()
                .filter(|member| *member != local)
                .collect()
        } else {
            self.random_targets(self.fanout, &[local], ctx)
        };
        if !targets.is_empty() {
            self.publications += 1;
            let ttl = if self.fanout == 0 {
                0
            } else {
                self.forward_ttl
            };
            Self::send_snapshot(&snapshot, ttl, targets, ctx);
        }
        self.last_published = Some(snapshot);
        self.ticks_since_publish = 0;
    }

    /// Gossips the store digest to `fanout` peers — stale-looking peers
    /// first, the rest uniformly random.
    fn gossip_digest(&mut self, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        let behind: Vec<NodeId> = self
            .members
            .iter()
            .zip(&self.peers)
            .filter(|(node, peer)| peer.behind && **node != local)
            .map(|(node, _)| *node)
            .collect();
        let mut targets =
            morpheus_groupcomm::gossip::sample_peers(&behind, &[local], self.fanout, ctx);
        if targets.len() < self.fanout {
            let mut exclude = targets.clone();
            exclude.push(local);
            targets.extend(morpheus_groupcomm::gossip::sample_peers(
                &self.members,
                &exclude,
                self.fanout - targets.len(),
                ctx,
            ));
        }
        if targets.is_empty() {
            return;
        }
        let body = DigestBody {
            entries: self.store.borrow().digest(),
        };
        let mut message = Message::new();
        message.push(&body);
        ctx.dispatch(Event::down(ContextDigest::new(
            local,
            Dest::Nodes(targets),
            message,
        )));
    }

    /// Handles a received snapshot: store it, report it upward and — while
    /// the TTL lasts — keep spreading it if it was news.
    fn on_snapshot(
        &mut self,
        snapshot: ContextSnapshot,
        ttl: u32,
        from: NodeId,
        ctx: &mut EventContext<'_>,
    ) {
        let fresh = self.store.borrow_mut().update(snapshot.clone());
        if !fresh {
            return;
        }
        ctx.dispatch(Event::up(ContextUpdated {
            snapshot: snapshot.clone(),
        }));
        self.maybe_report_convergence(ctx);
        if self.fanout > 0 && ttl > 0 {
            let local = ctx.node_id();
            let targets = self.random_targets(self.fanout, &[local, from, snapshot.node], ctx);
            Self::send_snapshot(&snapshot, ttl - 1, targets, ctx);
        }
    }

    /// Handles a received digest: pull what the peer holds newer (pull-only
    /// anti-entropy). Pulls are rate-limited per node — several digests
    /// arrive each interval and must not all re-request the same snapshots —
    /// and retried after a publish interval, which bounds convergence under
    /// loss without any periodic full republish.
    fn on_digest(&mut self, body: DigestBody, from: NodeId, ctx: &mut EventContext<'_>) {
        // A digest from outside the installed view is ignored wholesale: no
        // pull goes back, and the sender is not tracked as a behind peer —
        // expelled members must stop receiving anti-entropy traffic.
        let Ok(sender) = self.members.binary_search(&from) else {
            return;
        };
        let now = ctx.now_ms();
        let store = self.store.borrow();
        // Does the sender itself look *behind* (older versions than ours, or
        // snapshots it does not list at all)? If so, bias our next digest
        // rounds towards it so it learns what to pull from us.
        // The store, the members and the digest rows (produced from
        // `ContextStore::digest`) are all in node-id order, so one merge scan
        // decides it in O(n). A malformed unsorted digest only degrades the
        // *bias*, never correctness.
        let mut entries = body.entries.iter().peekable();
        let mut members = Cursor::default();
        let mut sender_behind = false;
        for (node, stored) in store.versions() {
            if members
                .find(&self.members, *node, |member| *member)
                .is_none()
            {
                continue;
            }
            while entries
                .next_if(|(digest_node, _)| digest_node < node)
                .is_some()
            {}
            match entries.peek() {
                Some((digest_node, version)) if digest_node == node && version >= stored => {}
                _ => {
                    sender_behind = true;
                    break;
                }
            }
        }
        self.peers[sender].behind = sender_behind;

        // Pull what the sender holds newer: one more forward scan, of the
        // rows against the members (and their pull budgets) and the store.
        let mut wants: Vec<NodeId> = Vec::new();
        let (mut members, mut stored) = (Cursor::default(), Cursor::default());
        for (node, version) in &body.entries {
            let Some(at) = members.find(&self.members, *node, |member| *member) else {
                continue;
            };
            let known = stored
                .find(store.versions(), *node, |(node, _)| *node)
                .map(|row| store.versions()[row].1);
            if known >= Some(*version) {
                continue;
            }
            let window = self.peers[at].pulls.get_or_insert((now, 0));
            if now.saturating_sub(window.0) >= self.publish_interval_ms {
                *window = (now, 0);
            }
            if window.1 < 2 {
                window.1 += 1;
                wants.push(*node);
            }
        }
        drop(store);
        if !wants.is_empty() {
            let mut message = Message::new();
            message.push(&PullBody { nodes: wants });
            ctx.dispatch(Event::down(ContextPull::new(
                ctx.node_id(),
                Dest::Node(from),
                message,
            )));
        }
    }

    /// Handles a pull request: answer with every requested snapshot batched
    /// into a single message.
    fn on_pull(&mut self, body: PullBody, from: NodeId, ctx: &mut EventContext<'_>) {
        // Snapshots are served to current view members only; a removed peer
        // rebuilds its context store through the rejoin state transfer.
        if self.members.binary_search(&from).is_err() {
            return;
        }
        let store = self.store.borrow();
        let snapshots: Vec<ContextSnapshot> = body
            .nodes
            .into_iter()
            .filter_map(|node| store.get(node).cloned())
            .collect();
        drop(store);
        if snapshots.is_empty() {
            return;
        }
        let mut message = Message::new();
        message.push(&BatchBody { snapshots });
        ctx.dispatch(Event::down(ContextBatch::new(
            ctx.node_id(),
            Dest::Node(from),
            message,
        )));
    }

    /// Handles a batched pull answer: each snapshot is stored and reported
    /// like a directly received publication (no further forwarding — the
    /// batch was explicitly requested, so spreading it again would only
    /// re-create the redundancy the pull rate limit removed).
    fn on_batch(&mut self, body: BatchBody, ctx: &mut EventContext<'_>) {
        for snapshot in body.snapshots {
            let node = snapshot.node;
            if self.store.borrow_mut().update(snapshot.clone()) {
                if let Ok(at) = self.members.binary_search(&node) {
                    self.peers[at].pulls = None;
                }
                ctx.dispatch(Event::up(ContextUpdated { snapshot }));
            }
        }
        self.maybe_report_convergence(ctx);
    }
}

impl Session for CocaditemSession {
    fn layer_name(&self) -> &str {
        COCADITEM_LAYER
    }

    /// Unit tests read the session's tables back through the downcast hook.
    #[cfg(test)]
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn handle(&mut self, mut event: Event, ctx: &mut EventContext<'_>) {
        if event.is::<ChannelInit>() {
            ctx.set_timer(self.publish_interval_ms, PUBLISH_TAG);
            // Publish immediately so the control component converges quickly
            // after start-up.
            self.publish(ctx, true);
            ctx.forward(event);
            return;
        }
        if let Some(timer) = event.get::<TimerExpired>() {
            if timer.owner == COCADITEM_LAYER {
                if timer.tag == PUBLISH_TAG {
                    self.publish(ctx, false);
                    if self.fanout > 0 {
                        self.gossip_digest(ctx);
                    }
                    ctx.set_timer(self.publish_interval_ms, PUBLISH_TAG);
                }
                return;
            }
            ctx.forward(event);
            return;
        }
        if let Some(install) = event.get::<ViewInstall>() {
            // Expelled members must stop occupying the store (their digest
            // entry would otherwise ride every future digest), the pull
            // budgets or the staleness bias: one merge of each node-ordered
            // table against the view's members. A member that stays keeps
            // its state; a new one starts without any.
            let members = install.view.members.clone();
            let mut cursor = Cursor::default();
            self.peers = members
                .iter()
                .map(|node| {
                    cursor
                        .find(&self.members, *node, |member| *member)
                        .map_or_else(PeerState::default, |at| self.peers[at])
                })
                .collect();
            self.store.borrow_mut().retain_members(&members);
            self.members = members;
            self.converged_reported = false;
            ctx.forward(event);
            return;
        }
        if event.is::<ContextPublish>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(publish) = event.get_mut::<ContextPublish>() else {
                return;
            };
            let from = publish.header.source;
            let Ok(ttl) = publish.message.pop::<u32>() else {
                return;
            };
            let Ok(snapshot) = publish.message.pop::<ContextSnapshot>() else {
                return;
            };
            self.on_snapshot(snapshot, ttl, from, ctx);
            return;
        }
        if event.is::<ContextDigest>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(digest) = event.get_mut::<ContextDigest>() else {
                return;
            };
            let from = digest.header.source;
            let Ok(body) = digest.message.pop::<DigestBody>() else {
                return;
            };
            self.on_digest(body, from, ctx);
            return;
        }
        if event.is::<ContextPull>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(pull) = event.get_mut::<ContextPull>() else {
                return;
            };
            let from = pull.header.source;
            let Ok(body) = pull.message.pop::<PullBody>() else {
                return;
            };
            self.on_pull(body, from, ctx);
            return;
        }
        if event.is::<ContextBatch>() {
            if event.direction == Direction::Down {
                ctx.forward(event);
                return;
            }
            let Some(batch) = event.get_mut::<ContextBatch>() else {
                return;
            };
            let Ok(body) = batch.message.pop::<BatchBody>() else {
                return;
            };
            self.on_batch(body, ctx);
            return;
        }
        ctx.forward(event);
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::platform::{NodeProfile, TestPlatform};
    use morpheus_appia::testing::Harness;

    use super::*;

    fn params(members: &[u32], interval: u64) -> LayerParams {
        let mut params = LayerParams::new();
        params.insert(
            "members".into(),
            members
                .iter()
                .map(|id| id.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
        params.insert("publish_interval_ms".into(), interval.to_string());
        params
    }

    fn legacy_params(members: &[u32], interval: u64) -> LayerParams {
        let mut params = params(members, interval);
        params.insert("fanout".into(), "0".into());
        // Re-publish on every tick so the timer-driven tests below observe a
        // publication even when the context is unchanged.
        params.insert("refresh_every".into(), "1".into());
        params
    }

    fn publish_message(snapshot: &ContextSnapshot, ttl: u32) -> Message {
        let mut message = Message::new();
        message.push(snapshot);
        message.push(&ttl);
        message
    }

    fn fire_publish_timer(harness: &mut Harness, platform: &mut TestPlatform) {
        let timers: Vec<_> = std::mem::take(&mut platform.timers);
        assert!(!timers.is_empty());
        harness.fire_timer(timers[0].1, platform);
    }

    #[test]
    fn init_publishes_the_local_context_legacy_floods_everyone() {
        let mut platform = TestPlatform::with_profile(NodeProfile::mobile_pda(NodeId(2)));
        let mut cocaditem = Harness::new(
            CocaditemLayer::default(),
            &legacy_params(&[1, 2, 3], 500),
            &mut platform,
        );

        // The initial publication happened during ChannelInit (drained by the
        // harness); trigger another one via the timer to observe it.
        fire_publish_timer(&mut cocaditem, &mut platform);

        let down = cocaditem.drain_down();
        let publish: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ContextPublish>())
            .collect();
        assert_eq!(publish.len(), 1);
        assert_eq!(
            publish[0].get::<ContextPublish>().unwrap().header.dest,
            Dest::Nodes(vec![NodeId(1), NodeId(3)])
        );
        assert!(
            down.iter().all(|event| !event.is::<ContextDigest>()),
            "legacy mode gossips no digests"
        );

        let up = cocaditem.drain_up();
        let updated: Vec<&Event> = up
            .iter()
            .filter(|event| event.is::<ContextUpdated>())
            .collect();
        assert_eq!(updated.len(), 1);
        assert_eq!(
            updated[0].get::<ContextUpdated>().unwrap().snapshot.node,
            NodeId(2)
        );
        assert_eq!(
            updated[0]
                .get::<ContextUpdated>()
                .unwrap()
                .snapshot
                .is_mobile(),
            Some(true)
        );
    }

    #[test]
    fn epidemic_mode_pushes_to_fanout_peers_and_gossips_digests() {
        let mut platform = TestPlatform::with_profile(NodeProfile::mobile_pda(NodeId(0)));
        let members: Vec<u32> = (0..12).collect();
        let mut cocaditem = Harness::new(
            CocaditemLayer::default(),
            &params(&members, 500),
            &mut platform,
        );

        // Drain the battery enough to re-trigger a significant change, then
        // fire the publish timer.
        let mut drained = NodeProfile::mobile_pda(NodeId(0));
        drained.battery_level = 0.5;
        platform.profile = drained;
        fire_publish_timer(&mut cocaditem, &mut platform);

        let down = cocaditem.drain_down();
        let publishes: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ContextPublish>())
            .collect();
        assert_eq!(publishes.len(), 1);
        let publish = publishes[0].get::<ContextPublish>().unwrap();
        let Dest::Nodes(targets) = &publish.header.dest else {
            panic!("publish must address a node list");
        };
        assert_eq!(targets.len(), 3, "push fan-out bounds the traffic");

        let digests: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ContextDigest>())
            .collect();
        assert_eq!(digests.len(), 1, "one digest round per interval");
        let digest = digests[0].get::<ContextDigest>().unwrap();
        let Dest::Nodes(digest_targets) = &digest.header.dest else {
            panic!("digest must address a node list");
        };
        assert_eq!(digest_targets.len(), 3);
        let body = digest.message.clone().pop::<DigestBody>().unwrap();
        assert_eq!(body.entries.len(), 1, "digest lists the known store");
        assert_eq!(body.entries[0].0, NodeId(0));
    }

    #[test]
    fn received_publications_are_reported_upward_and_forwarded_while_fresh() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (0..10).collect();
        let mut cocaditem = Harness::new(
            CocaditemLayer::default(),
            &params(&members, 1000),
            &mut platform,
        );

        let snapshot = ContextSnapshot::from_profile(&NodeProfile::mobile_pda(NodeId(2)), 77);
        let up = cocaditem.run_up(
            Event::up(ContextPublish::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                publish_message(&snapshot, 2),
            )),
            &mut platform,
        );
        let updated: Vec<&Event> = up
            .iter()
            .filter(|event| event.is::<ContextUpdated>())
            .collect();
        assert_eq!(updated.len(), 1);
        let received = &updated[0].get::<ContextUpdated>().unwrap().snapshot;
        assert_eq!(received.node, NodeId(2));
        assert_eq!(received.captured_at_ms, 77);

        // The fresh snapshot is forwarded epidemically with a decremented TTL.
        let down = cocaditem.drain_down();
        let forwards: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ContextPublish>())
            .collect();
        assert_eq!(forwards.len(), 1);
        let mut message = forwards[0].get::<ContextPublish>().unwrap().message.clone();
        assert_eq!(message.pop::<u32>().unwrap(), 1, "TTL decremented");

        // A duplicate is neither reported nor forwarded.
        let up = cocaditem.run_up(
            Event::up(ContextPublish::new(
                NodeId(3),
                Dest::Node(NodeId(1)),
                publish_message(&snapshot, 2),
            )),
            &mut platform,
        );
        assert!(up.iter().all(|event| !event.is::<ContextUpdated>()));
        assert!(cocaditem
            .drain_down()
            .iter()
            .all(|event| !event.is::<ContextPublish>()));
    }

    #[test]
    fn digests_trigger_rate_limited_pulls_for_stale_entries() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut cocaditem = Harness::new(
            CocaditemLayer::default(),
            &params(&[1, 2, 3], 1000),
            &mut platform,
        );

        // Node 1 knows node 3's context at version 50.
        let known = ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(3)), 50);
        cocaditem.run_up(
            Event::up(ContextPublish::new(
                NodeId(3),
                Dest::Node(NodeId(1)),
                publish_message(&known, 0),
            )),
            &mut platform,
        );
        cocaditem.drain_down();

        // Node 2's digest: it holds node 3 at version 90 (newer) and its own
        // context, which node 1 has never seen.
        let digest = |entries: Vec<(NodeId, u64)>| {
            let mut message = Message::new();
            message.push(&DigestBody { entries });
            message
        };
        cocaditem.run_up(
            Event::up(ContextDigest::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                digest(vec![(NodeId(2), 10), (NodeId(3), 90)]),
            )),
            &mut platform,
        );

        let down = cocaditem.drain_down();
        let pulls: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ContextPull>())
            .collect();
        assert_eq!(pulls.len(), 1);
        let pull = pulls[0].get::<ContextPull>().unwrap();
        assert_eq!(pull.header.dest, Dest::Node(NodeId(2)));
        let body = pull.message.clone().pop::<PullBody>().unwrap();
        assert_eq!(body.nodes, vec![NodeId(2), NodeId(3)]);
        assert!(
            down.iter().all(|event| !event.is::<ContextPublish>()),
            "pull-only anti-entropy pushes nothing back"
        );

        // A second digest sender within the same interval may be pulled from
        // once more (redundancy halves the tail under loss: one lost answer
        // no longer costs a whole interval)...
        cocaditem.run_up(
            Event::up(ContextDigest::new(
                NodeId(3),
                Dest::Node(NodeId(1)),
                digest(vec![(NodeId(2), 10), (NodeId(3), 90)]),
            )),
            &mut platform,
        );
        let second = cocaditem.drain_down();
        assert_eq!(
            second
                .iter()
                .filter(|event| event.is::<ContextPull>())
                .count(),
            1,
            "up to two digest senders per interval are pulled from"
        );
        assert_eq!(
            second
                .iter()
                .find_map(|event| event.get::<ContextPull>())
                .unwrap()
                .header
                .dest,
            Dest::Node(NodeId(3))
        );

        // ... but a third digest in the same interval is not.
        cocaditem.run_up(
            Event::up(ContextDigest::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                digest(vec![(NodeId(2), 10), (NodeId(3), 90)]),
            )),
            &mut platform,
        );
        assert!(
            cocaditem
                .drain_down()
                .iter()
                .all(|event| !event.is::<ContextPull>()),
            "the per-interval pull budget is two"
        );

        // After a publish interval the pull budget resets (the answers may
        // have been lost on a degraded control channel).
        platform.advance(1000);
        cocaditem.run_up(
            Event::up(ContextDigest::new(
                NodeId(3),
                Dest::Node(NodeId(1)),
                digest(vec![(NodeId(2), 10), (NodeId(3), 90)]),
            )),
            &mut platform,
        );
        assert_eq!(
            cocaditem
                .drain_down()
                .iter()
                .filter(|event| event.is::<ContextPull>())
                .count(),
            1,
            "lost answers are re-pulled on the next digest"
        );
    }

    #[test]
    fn digest_targets_are_biased_towards_stale_looking_peers() {
        let mut platform = TestPlatform::new(NodeId(0));
        let members: Vec<u32> = (0..12).collect();
        let mut cocaditem = Harness::new(
            CocaditemLayer::default(),
            &params(&members, 500),
            &mut platform,
        );

        // Node 0 knows node 5's context at version 80.
        let known = ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(5)), 80);
        cocaditem.run_up(
            Event::up(ContextPublish::new(
                NodeId(5),
                Dest::Node(NodeId(0)),
                publish_message(&known, 0),
            )),
            &mut platform,
        );
        cocaditem.drain_down();

        // Node 7's digest only knows node 5 at version 10: node 7 is behind.
        let mut message = Message::new();
        message.push(&DigestBody {
            entries: vec![(NodeId(5), 10)],
        });
        cocaditem.run_up(
            Event::up(ContextDigest::new(
                NodeId(7),
                Dest::Node(NodeId(0)),
                message,
            )),
            &mut platform,
        );
        cocaditem.drain_down();

        // Every digest round now includes node 7 among its targets until it
        // catches up.
        for _ in 0..3 {
            fire_publish_timer(&mut cocaditem, &mut platform);
            let down = cocaditem.drain_down();
            let digest = down
                .iter()
                .find(|event| event.is::<ContextDigest>())
                .expect("digest round");
            let Dest::Nodes(targets) = &digest.get::<ContextDigest>().unwrap().header.dest else {
                panic!("digest must address a node list");
            };
            assert!(
                targets.contains(&NodeId(7)),
                "stale peer biased into the digest targets (got {targets:?})"
            );
        }

        // Once node 7's digest shows it caught up, the bias is dropped.
        let mut message = Message::new();
        message.push(&DigestBody {
            entries: vec![(NodeId(5), 80), (NodeId(0), 1)],
        });
        cocaditem.run_up(
            Event::up(ContextDigest::new(
                NodeId(7),
                Dest::Node(NodeId(0)),
                message,
            )),
            &mut platform,
        );
        // (No assertion on absence — targets are random — but the bias set
        // no longer forces node 7; this exercises the removal path.)
    }

    #[test]
    fn pull_requests_are_answered_with_one_batched_message() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut cocaditem = Harness::new(
            CocaditemLayer::default(),
            &params(&[1, 2, 3], 1000),
            &mut platform,
        );
        let known = ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(3)), 50);
        cocaditem.run_up(
            Event::up(ContextPublish::new(
                NodeId(3),
                Dest::Node(NodeId(1)),
                publish_message(&known, 0),
            )),
            &mut platform,
        );
        cocaditem.drain_down();

        let mut message = Message::new();
        message.push(&PullBody {
            nodes: vec![NodeId(1), NodeId(3), NodeId(9)],
        });
        cocaditem.run_up(
            Event::up(ContextPull::new(NodeId(2), Dest::Node(NodeId(1)), message)),
            &mut platform,
        );
        let down = cocaditem.drain_down();
        let answers: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<ContextBatch>())
            .collect();
        assert_eq!(answers.len(), 1, "one batch per pull");
        let batch = answers[0].get::<ContextBatch>().unwrap();
        assert_eq!(batch.header.dest, Dest::Node(NodeId(2)));
        let body = batch.message.clone().pop::<BatchBody>().unwrap();
        let nodes: Vec<NodeId> = body.snapshots.iter().map(|s| s.node).collect();
        assert_eq!(
            nodes,
            vec![NodeId(1), NodeId(3)],
            "the local snapshot and node 3's are known; node 9 is not"
        );
    }

    #[test]
    fn batched_answers_are_stored_and_reported_upward() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut cocaditem = Harness::new(
            CocaditemLayer::default(),
            &params(&[1, 2, 3], 1000),
            &mut platform,
        );
        platform.take_deliveries();

        let mut message = Message::new();
        message.push(&BatchBody {
            snapshots: vec![
                ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(2)), 30),
                ContextSnapshot::from_profile(&NodeProfile::mobile_pda(NodeId(3)), 40),
            ],
        });
        let up = cocaditem.run_up(
            Event::up(ContextBatch::new(NodeId(2), Dest::Node(NodeId(1)), message)),
            &mut platform,
        );
        let updated: Vec<NodeId> = up
            .iter()
            .filter_map(|event| {
                event
                    .get::<ContextUpdated>()
                    .map(|update| update.snapshot.node)
            })
            .collect();
        assert_eq!(updated, vec![NodeId(2), NodeId(3)]);
        // The batch completed the membership: convergence is reported.
        assert!(platform
            .take_deliveries()
            .iter()
            .any(|delivery| matches!(delivery.kind, DeliveryKind::ContextConverged { nodes: 3 })));
    }

    #[test]
    fn covering_the_whole_membership_is_reported_once() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut cocaditem = Harness::new(
            CocaditemLayer::default(),
            &params(&[1, 2], 1000),
            &mut platform,
        );
        platform.take_deliveries();

        let snapshot = ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(2)), 10);
        cocaditem.run_up(
            Event::up(ContextPublish::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                publish_message(&snapshot, 0),
            )),
            &mut platform,
        );
        let converged: Vec<_> = platform
            .take_deliveries()
            .into_iter()
            .filter(|delivery| matches!(delivery.kind, DeliveryKind::ContextConverged { nodes: 2 }))
            .collect();
        assert_eq!(converged.len(), 1);

        // A newer snapshot does not re-report convergence.
        let newer = ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(2)), 20);
        cocaditem.run_up(
            Event::up(ContextPublish::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                publish_message(&newer, 0),
            )),
            &mut platform,
        );
        assert!(platform
            .take_deliveries()
            .iter()
            .all(|delivery| !matches!(delivery.kind, DeliveryKind::ContextConverged { .. })));
    }

    #[test]
    fn unchanged_context_is_not_republished_before_the_refresh_deadline() {
        let mut platform = TestPlatform::with_profile(NodeProfile::mobile_pda(NodeId(2)));
        let mut params = legacy_params(&[1, 2], 500);
        params.insert("refresh_every".into(), "5".into());
        let mut cocaditem = Harness::new(CocaditemLayer::default(), &params, &mut platform);

        // The initial (forced) publication happened at ChannelInit. With an
        // unchanged profile, the next few ticks stay silent on the network
        // but keep reporting the local context upward.
        for _ in 0..3 {
            fire_publish_timer(&mut cocaditem, &mut platform);
            let down = cocaditem.drain_down();
            assert!(down.iter().all(|event| !event.is::<ContextPublish>()));
            assert!(cocaditem
                .drain_up()
                .iter()
                .any(|event| event.is::<ContextUpdated>()));
        }

        // A significant battery drop is disseminated immediately.
        let mut drained = NodeProfile::mobile_pda(NodeId(2));
        drained.battery_level = 0.5;
        platform.profile = drained;
        fire_publish_timer(&mut cocaditem, &mut platform);
        assert!(cocaditem
            .drain_down()
            .iter()
            .any(|event| event.is::<ContextPublish>()));
    }

    #[test]
    fn malformed_publications_are_dropped() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut cocaditem = Harness::new(
            CocaditemLayer::default(),
            &params(&[1, 2], 1000),
            &mut platform,
        );
        let up = cocaditem.run_up(
            Event::up(ContextPublish::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                Message::new(),
            )),
            &mut platform,
        );
        assert!(up.iter().all(|event| !event.is::<ContextUpdated>()));

        // Malformed digests and pulls are dropped too.
        cocaditem.run_up(
            Event::up(ContextDigest::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                Message::new(),
            )),
            &mut platform,
        );
        cocaditem.run_up(
            Event::up(ContextPull::new(
                NodeId(2),
                Dest::Node(NodeId(1)),
                Message::new(),
            )),
            &mut platform,
        );
        assert!(cocaditem.drain_down().is_empty());
    }

    #[test]
    fn view_install_updates_the_dissemination_targets() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut cocaditem = Harness::new(
            CocaditemLayer::default(),
            &legacy_params(&[1, 2], 300),
            &mut platform,
        );
        cocaditem.run_down(
            Event::down(ViewInstall {
                view: morpheus_groupcomm::View::new(1, vec![NodeId(1), NodeId(2), NodeId(5)]),
            }),
            &mut platform,
        );
        fire_publish_timer(&mut cocaditem, &mut platform);
        let down = cocaditem.drain_down();
        let publish = down
            .iter()
            .find(|event| event.is::<ContextPublish>())
            .unwrap();
        assert_eq!(
            publish.get::<ContextPublish>().unwrap().header.dest,
            Dest::Nodes(vec![NodeId(2), NodeId(5)])
        );
    }

    #[test]
    fn digest_bodies_roundtrip_and_reject_adversarial_counts() {
        let body = DigestBody {
            entries: vec![(NodeId(1), 10), (NodeId(2), 20)],
        };
        assert_eq!(DigestBody::from_bytes(&body.to_bytes()).unwrap(), body);
        let pull = PullBody {
            nodes: vec![NodeId(4)],
        };
        assert_eq!(PullBody::from_bytes(&pull.to_bytes()).unwrap(), pull);

        // Counts that overstate the payload are rejected by the check that
        // runs before the row vector is allocated.
        let overstated = WireError::Malformed("row count exceeds payload");
        let mut w = WireWriter::new();
        w.put_varint(u64::from(u32::MAX));
        w.put_rows(&[(NodeId(1), 1u64)]);
        assert_eq!(DigestBody::from_bytes(&w.finish()), Err(overstated.clone()));
        let mut w = WireWriter::new();
        w.put_varint(u64::from(u32::MAX));
        assert_eq!(PullBody::from_bytes(&w.finish()), Err(overstated));
    }

    #[test]
    fn a_context_digest_with_millisecond_versions_costs_under_five_bytes_a_row() {
        // 250 members in node-id order; versions are capture times spread
        // over the first minute of the run, as a churned group's store holds
        // them.
        let entries: Vec<(NodeId, u64)> = (0..250u32)
            .map(|node| (NodeId(node), u64::from(node) * 7_919 % 60_000))
            .collect();
        let bytes = DigestBody { entries }.to_bytes();
        assert!(
            bytes.len() <= 250 * 5,
            "{} bytes for 250 rows is more than 5 B/row",
            bytes.len()
        );
    }
    #[test]
    fn expelled_members_get_no_anti_entropy_replies() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut cocaditem = Harness::new(
            CocaditemLayer::default(),
            &params(&[1, 2, 3], 1000),
            &mut platform,
        );
        cocaditem.run_down(
            Event::down(ViewInstall {
                view: morpheus_groupcomm::View::new(2, vec![NodeId(1), NodeId(2)]),
            }),
            &mut platform,
        );
        cocaditem.drain_down();

        // The expelled node 3 advertises a version node 1 has never seen:
        // no pull goes back to it.
        let mut digest = Message::new();
        digest.push(&DigestBody {
            entries: vec![(NodeId(2), 90)],
        });
        cocaditem.run_up(
            Event::up(ContextDigest::new(NodeId(3), Dest::Node(NodeId(1)), digest)),
            &mut platform,
        );
        assert!(
            cocaditem
                .drain_down()
                .iter()
                .all(|event| !event.is::<ContextPull>()),
            "an expelled member's digest triggers no pull"
        );

        // Its pull for the (present) local snapshot is not answered either,
        // while the same pull from a live member is.
        let pull_from = |from: u32| {
            let mut message = Message::new();
            message.push(&PullBody {
                nodes: vec![NodeId(1)],
            });
            Event::up(ContextPull::new(
                NodeId(from),
                Dest::Node(NodeId(1)),
                message,
            ))
        };
        cocaditem.run_up(pull_from(3), &mut platform);
        assert!(
            cocaditem
                .drain_down()
                .iter()
                .all(|event| !event.is::<ContextBatch>()),
            "snapshots are not served to expelled members"
        );
        cocaditem.run_up(pull_from(2), &mut platform);
        assert_eq!(
            cocaditem
                .drain_down()
                .iter()
                .filter(|event| event.is::<ContextBatch>())
                .count(),
            1,
            "a current member's identical pull is answered"
        );
    }

    /// The anti-entropy semantics of the store, the pull budgets and the
    /// staleness bias over plain ordered maps: the reference the
    /// node-ordered tables are checked against.
    struct ReferenceAntiEntropy {
        members: Vec<NodeId>,
        versions: std::collections::BTreeMap<NodeId, u64>,
        recent_pulls: std::collections::BTreeMap<NodeId, (u64, u32)>,
        behind: std::collections::BTreeSet<NodeId>,
        converged_reported: bool,
        interval: u64,
    }

    impl ReferenceAntiEntropy {
        /// Stores a snapshot version; returns whether it was news.
        fn update(&mut self, node: NodeId, version: u64) -> bool {
            match self.versions.get(&node) {
                Some(known) if *known > version => false,
                Some(known) if *known == version => false,
                _ => {
                    self.versions.insert(node, version);
                    true
                }
            }
        }

        /// Whether this check reports convergence.
        fn converges(&mut self) -> bool {
            if self.converged_reported || self.members.is_empty() {
                return false;
            }
            self.converged_reported = self
                .members
                .iter()
                .all(|member| self.versions.contains_key(member));
            self.converged_reported
        }

        /// The pull a digest triggers, if any.
        fn digest(
            &mut self,
            from: NodeId,
            rows: &[(NodeId, u64)],
            now: u64,
        ) -> Option<Vec<NodeId>> {
            if !self.members.contains(&from) {
                return None;
            }
            let mut entries = rows.iter().peekable();
            let mut sender_behind = false;
            for (node, version) in &self.versions {
                if !self.members.contains(node) {
                    continue;
                }
                while entries.next_if(|(row, _)| row < node).is_some() {}
                match entries.peek() {
                    Some((row, advertised)) if row == node && advertised >= version => {}
                    _ => {
                        sender_behind = true;
                        break;
                    }
                }
            }
            if sender_behind {
                self.behind.insert(from);
            } else {
                self.behind.remove(&from);
            }
            let mut wants = Vec::new();
            for (node, version) in rows {
                if !self.members.contains(node)
                    || self.versions.get(node).copied() >= Some(*version)
                {
                    continue;
                }
                let window = self.recent_pulls.entry(*node).or_insert((now, 0));
                if now.saturating_sub(window.0) >= self.interval {
                    *window = (now, 0);
                }
                if window.1 < 2 {
                    window.1 += 1;
                    wants.push(*node);
                }
            }
            (!wants.is_empty()).then_some(wants)
        }

        fn install(&mut self, members: &[NodeId]) {
            self.members = members.to_vec();
            self.versions.retain(|node, _| members.contains(node));
            self.recent_pulls.retain(|node, _| members.contains(node));
            self.behind.retain(|node| members.contains(node));
            self.converged_reported = false;
        }
    }

    /// The session's node-ordered state, read back in the model's shape:
    /// `(store versions, pull budgets, behind peers)`.
    #[allow(clippy::type_complexity)]
    fn session_state(
        harness: &mut Harness,
    ) -> (Vec<(NodeId, u64)>, Vec<(NodeId, (u64, u32))>, Vec<NodeId>) {
        let channel = harness.channel();
        let session = harness
            .kernel_mut()
            .channel(channel)
            .and_then(|channel| channel.session_of(COCADITEM_LAYER))
            .expect("cocaditem session");
        let session = session.borrow();
        let session = session
            .as_any()
            .and_then(|any| any.downcast_ref::<CocaditemSession>())
            .expect("cocaditem sessions expose themselves");
        let versions = session.store.borrow().digest();
        let members = session.members.iter().zip(&session.peers);
        (
            versions,
            members
                .clone()
                .filter_map(|(node, peer)| peer.pulls.map(|window| (*node, window)))
                .collect(),
            members
                .filter(|(_, peer)| peer.behind)
                .map(|(node, _)| *node)
                .collect(),
        )
    }

    fn random_members(rng: &mut morpheus_netsim::SimRng, universe: u32) -> Vec<NodeId> {
        (0..universe)
            .filter(|_| rng.chance(0.7))
            .map(NodeId)
            .collect()
    }

    #[test]
    fn node_ordered_tables_match_the_reference_model_on_random_histories() {
        const UNIVERSE: u32 = 12;
        let interval = 1000;
        for seed in 0..48u64 {
            let mut rng = morpheus_netsim::SimRng::new(seed);
            let local = NodeId(rng.random_below(u64::from(UNIVERSE)) as u32);
            let mut platform = TestPlatform::new(local);
            let members = random_members(&mut rng, UNIVERSE);
            let ids: Vec<u32> = members.iter().map(|node| node.0).collect();
            let mut cocaditem = Harness::new(
                CocaditemLayer::default(),
                &params(&ids, interval),
                &mut platform,
            );
            // The forced publication at channel init stored the local
            // snapshot (and may already have covered a one-member view).
            let mut model = ReferenceAntiEntropy {
                members,
                versions: [(local, 0)].into_iter().collect(),
                recent_pulls: Default::default(),
                behind: Default::default(),
                converged_reported: false,
                interval,
            };
            model.converges();
            platform.take_deliveries();

            for step in 0..300u64 {
                let context = format!("seed {seed} step {step}");
                let random_node = |rng: &mut morpheus_netsim::SimRng| {
                    NodeId(rng.random_below(u64::from(UNIVERSE) + 2) as u32)
                };
                let mut converged = false;
                match rng.random_below(10) {
                    // A digest from a member or an outsider: rows unsorted or
                    // in node order, with duplicates, non-member rows and
                    // version 0.
                    0..=3 => {
                        let from = random_node(&mut rng);
                        let mut rows: Vec<(NodeId, u64)> = (0..rng
                            .random_below(2 * u64::from(UNIVERSE)))
                            .map(|_| (random_node(&mut rng), rng.random_below(6) * 10))
                            .collect();
                        if rng.chance(0.5) {
                            rows.sort_unstable();
                        }
                        let expected = model.digest(from, &rows, platform.now_ms);
                        let mut message = Message::new();
                        message.push(&DigestBody {
                            entries: rows.clone(),
                        });
                        cocaditem.run_up(
                            Event::up(ContextDigest::new(from, Dest::Node(local), message)),
                            &mut platform,
                        );
                        let got: Vec<Vec<NodeId>> = cocaditem
                            .drain_down()
                            .iter()
                            .filter_map(|event| event.get::<ContextPull>())
                            .map(|pull| {
                                assert_eq!(pull.header.dest, Dest::Node(from));
                                pull.message.clone().pop::<PullBody>().unwrap().nodes
                            })
                            .collect();
                        assert_eq!(
                            got,
                            Vec::from_iter(expected),
                            "{context}: digest {rows:?} from {from:?}"
                        );
                    }
                    // A publication (no forwarding) or a batched answer.
                    4..=6 => {
                        let snapshots: Vec<ContextSnapshot> = (0..1 + rng.random_below(4))
                            .map(|_| {
                                ContextSnapshot::new(
                                    random_node(&mut rng),
                                    rng.random_below(6) * 10,
                                )
                            })
                            .collect();
                        let mut message = Message::new();
                        if rng.chance(0.5) {
                            let snapshot = &snapshots[0];
                            if model.update(snapshot.node, snapshot.captured_at_ms) {
                                converged = model.converges();
                            }
                            message.push(snapshot);
                            message.push(&0u32);
                            cocaditem.run_up(
                                Event::up(ContextPublish::new(
                                    snapshot.node,
                                    Dest::Node(local),
                                    message,
                                )),
                                &mut platform,
                            );
                        } else {
                            for snapshot in &snapshots {
                                if model.update(snapshot.node, snapshot.captured_at_ms) {
                                    model.recent_pulls.remove(&snapshot.node);
                                }
                            }
                            converged = model.converges();
                            message.push(&BatchBody { snapshots });
                            cocaditem.run_up(
                                Event::up(ContextBatch::new(
                                    NodeId(UNIVERSE),
                                    Dest::Node(local),
                                    message,
                                )),
                                &mut platform,
                            );
                        }
                        cocaditem.drain_down();
                    }
                    // A view install that drops and re-admits members.
                    7 => {
                        let view =
                            morpheus_groupcomm::View::new(step, random_members(&mut rng, UNIVERSE));
                        model.install(&view.members);
                        cocaditem.run_down(Event::down(ViewInstall { view }), &mut platform);
                    }
                    // Time passes (pull budgets reset after an interval).
                    _ => platform.advance(rng.random_below(interval)),
                }
                let reported = platform
                    .take_deliveries()
                    .iter()
                    .filter(|delivery| {
                        matches!(delivery.kind, DeliveryKind::ContextConverged { .. })
                    })
                    .count();
                assert_eq!(
                    reported,
                    usize::from(converged),
                    "{context}: convergence report"
                );
                let (versions, pulls, behind) = session_state(&mut cocaditem);
                assert_eq!(
                    versions,
                    Vec::from_iter(model.versions.clone()),
                    "{context}: store"
                );
                assert_eq!(
                    pulls,
                    Vec::from_iter(model.recent_pulls.clone()),
                    "{context}: pull budgets"
                );
                assert_eq!(
                    behind,
                    Vec::from_iter(model.behind.clone()),
                    "{context}: behind peers"
                );
            }
        }
    }
}
