//! A gossip-based failure detector.
//!
//! Every `hb_interval_ms` the layer increments its own heartbeat counter and
//! pushes a compact [`LivenessDigest`] — every member's highest known counter
//! — to `fanout` random peers. Receivers merge entries that are newer than
//! their own, so counters spread epidemically in `O(log n)` rounds while each
//! node sends only `fanout` control messages per interval (instead of the
//! `n - 1` of an all-to-all heartbeat multicast). Suspicion is derived from
//! *digest age*: a member whose counter has not advanced (and that has not
//! been heard from directly) for `suspect_timeout_ms` is suspected, and a
//! [`Suspect`] event travels up the stack so the membership layer can propose
//! a new view. When a suspected member's counter advances again, an [`Alive`]
//! event heals the false suspicion.
//!
//! Because counter propagation takes roughly `log_fanout(n)` intervals,
//! `suspect_timeout_ms` should be at least `(log_fanout(n) + 2)` heartbeat
//! intervals for large groups.
//!
//! Setting `fanout` to `0` restores the legacy all-to-all heartbeat multicast
//! (used by benchmarks as the O(n²) baseline).
//!
//! All per-node state lives in one table of slots kept in node-id order
//! (see [`crate::table`]). A received digest — its rows are in node order —
//! is merged in one forward scan over that table, and each tick builds the
//! outgoing digest and raises suspicions in one walk over it: O(n) per
//! digest, with no hashing. Besides one slot per view member, the table
//! holds a slot for every non-member the layer heard from directly (a data
//! or heartbeat sender outside the view) until the next view install drops
//! it — or keeps it, with its last-heard time, when that view admits the
//! node.

use morpheus_appia::event::{Dest, Direction, Event, EventSpec};
use morpheus_appia::events::{ChannelInit, DataEvent, TimerExpired};
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{param_node_list, param_or, Layer, LayerParams};
use morpheus_appia::message::Message;
use morpheus_appia::platform::NodeId;
use morpheus_appia::session::Session;

use crate::events::{Alive, Heartbeat, Suspect, ViewInstall};
use crate::headers::LivenessDigest;
use crate::table::Cursor;
use crate::view::View;

/// Registered name of the failure detector layer.
pub const FD_LAYER: &str = "fd";

/// Timer tag for the heartbeat/suspicion check.
const TICK_TAG: u32 = 1;

/// The gossip failure detector layer.
///
/// Parameters:
///
/// * `members` — comma-separated initial group membership (kept sorted and
///   de-duplicated, as a [`View`] holds it);
/// * `hb_interval_ms` — gossip period (default 500 ms);
/// * `suspect_timeout_ms` — digest-age threshold before suspicion
///   (default 2000 ms);
/// * `fanout` — random peers each digest is pushed to per interval
///   (default 3; `0` selects the legacy all-to-all heartbeat multicast).
pub struct FailureDetectorLayer;

impl Layer for FailureDetectorLayer {
    fn name(&self) -> &str {
        FD_LAYER
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![
            EventSpec::of::<DataEvent>(),
            EventSpec::of::<Heartbeat>(),
            EventSpec::of::<ChannelInit>(),
            EventSpec::of::<TimerExpired>(),
            EventSpec::of::<ViewInstall>(),
        ]
    }

    fn provided_events(&self) -> Vec<&'static str> {
        vec!["Heartbeat", "Suspect", "Alive"]
    }

    fn create_session(&self, params: &LayerParams) -> Box<dyn Session> {
        let members = View::initial(param_node_list(params, "members")).members;
        Box::new(FailureDetectorSession {
            slots: members
                .iter()
                .map(|node| Slot::member(*node, None))
                .collect(),
            members,
            hb_interval_ms: param_or(params, "hb_interval_ms", 500u64).max(10),
            suspect_timeout_ms: param_or(params, "suspect_timeout_ms", 2000u64).max(50),
            fanout: param_or(params, "fanout", 3usize),
        })
    }
}

/// What the failure detector knows about one node.
#[derive(Debug, Clone, Copy)]
struct Slot {
    node: NodeId,
    /// Highest known heartbeat counter; set by a digest row (members only)
    /// or, for the local node, by a tick.
    counter: Option<u64>,
    /// Local time at which the counter last advanced or the node was last
    /// heard from directly.
    heard_ms: Option<u64>,
    /// Whether a [`Suspect`] is outstanding (members only).
    suspected: bool,
    /// Whether the node is in the installed view.
    member: bool,
}

impl Slot {
    fn member(node: NodeId, heard_ms: Option<u64>) -> Self {
        Self {
            node,
            counter: None,
            heard_ms,
            suspected: false,
            member: true,
        }
    }
}

/// Session state of the failure detector.
#[derive(Debug)]
pub struct FailureDetectorSession {
    /// The installed view's members, in node-id order (the peer-sampling
    /// pool).
    // bound: replaced wholesale on every view install; <= view size.
    members: Vec<NodeId>,
    /// One slot per member plus one per non-member heard from directly, in
    /// node-id order.
    // bound: view size + non-members heard since the last view install (a view install drops non-member slots).
    slots: Vec<Slot>,
    hb_interval_ms: u64,
    suspect_timeout_ms: u64,
    /// Digest push fan-out; `0` selects the legacy all-to-all heartbeat.
    fanout: usize,
}

impl FailureDetectorSession {
    /// The index of `node`'s slot, inserting a non-member slot if it has
    /// none.
    fn slot_of(&mut self, node: NodeId) -> usize {
        let found = self.slots.binary_search_by_key(&node, |slot| slot.node);
        found.unwrap_or_else(|at| {
            self.slots.insert(
                at,
                Slot {
                    member: false,
                    ..Slot::member(node, None)
                },
            );
            at
        })
    }

    fn heard_from(&mut self, at: usize, now: u64, ctx: &mut EventContext<'_>) {
        let slot = &mut self.slots[at];
        slot.heard_ms = Some(now);
        if slot.suspected {
            slot.suspected = false;
            // The suspicion was false: announce the recovery so upper layers
            // (e.g. the Core control layer's ack quorum) can re-admit the node.
            ctx.dispatch(Event::up(Alive { node: slot.node }));
        }
    }

    /// Merges a received digest in one forward scan: a member's row with a
    /// higher counter than the local view counts as fresh liveness evidence
    /// for that member. Rows for non-members are ignored; a row out of node
    /// order re-seeks, so any row order merges the same way.
    fn merge_digest(&mut self, digest: &LivenessDigest, now: u64, ctx: &mut EventContext<'_>) {
        let mut cursor = Cursor::default();
        for (node, counter) in &digest.entries {
            let Some(at) = cursor.find(&self.slots, *node, |slot| slot.node) else {
                continue;
            };
            let slot = &mut self.slots[at];
            if !slot.member {
                continue;
            }
            let known = slot.counter.get_or_insert(0);
            if *counter > *known {
                *known = *counter;
                self.heard_from(at, now, ctx);
            }
        }
    }

    fn tick(&mut self, ctx: &mut EventContext<'_>) {
        let local = ctx.node_id();
        let now = ctx.now_ms();

        // Advance the local counter and push the digest (or, in legacy mode,
        // a plain heartbeat to everybody). The counter is floored at the
        // local tick count (`now / interval`) so it stays monotonic across a
        // stack replacement: a freshly recreated session restarting from 1
        // would look *stale* to peers still holding the pre-replacement
        // counter, and the node would silently lose its third-party liveness
        // evidence until the counter caught up.
        let tick_floor = now / self.hb_interval_ms;
        let at = self.slot_of(local);
        let slot = &mut self.slots[at];
        slot.counter = Some((slot.counter.unwrap_or(0) + 1).max(tick_floor));
        slot.heard_ms = Some(now);
        let targets = if self.fanout == 0 {
            self.members
                .iter()
                .copied()
                .filter(|member| *member != local)
                .collect()
        } else {
            crate::gossip::sample_peers(&self.members, &[local], self.fanout, ctx)
        };

        // One walk over the table builds the digest (members with a known
        // counter, in node order) and raises suspicions for members whose
        // counter went stale.
        let send_digest = self.fanout != 0 && !targets.is_empty();
        let mut entries = Vec::with_capacity(if send_digest { self.members.len() } else { 0 });
        let mut newly_suspected = Vec::new();
        for slot in self.slots.iter_mut().filter(|slot| slot.member) {
            if let (true, Some(counter)) = (send_digest, slot.counter) {
                entries.push((slot.node, counter));
            }
            if slot.node != local
                && !slot.suspected
                && now.saturating_sub(slot.heard_ms.unwrap_or(0)) >= self.suspect_timeout_ms
            {
                slot.suspected = true;
                newly_suspected.push(slot.node);
            }
        }

        if !targets.is_empty() {
            let mut message = Message::new();
            if send_digest {
                message.push(&LivenessDigest { entries });
            }
            ctx.dispatch(Event::down(Heartbeat::new(
                local,
                Dest::Nodes(targets),
                message,
            )));
        }
        for node in newly_suspected {
            ctx.dispatch(Event::up(Suspect { node }));
        }

        ctx.set_timer(self.hb_interval_ms, TICK_TAG);
    }

    /// Installs a view in one merge of the table against its (node-ordered)
    /// members: slots of nodes outside the view are dropped, a member keeps
    /// its slot (a non-member's last-heard time carries into its admission)
    /// and a member without one gets a fresh grace period from `now`.
    fn install(&mut self, members: &[NodeId], now: u64) {
        let mut cursor = Cursor::default();
        self.slots = members
            .iter()
            .map(|node| {
                let kept = cursor.find(&self.slots, *node, |slot| slot.node);
                kept.map_or(Slot::member(*node, Some(now)), |at| Slot {
                    member: true,
                    heard_ms: self.slots[at].heard_ms.or(Some(now)),
                    ..self.slots[at]
                })
            })
            .collect();
        self.members = members.to_vec();
    }
}

impl Session for FailureDetectorSession {
    fn layer_name(&self) -> &str {
        FD_LAYER
    }

    fn handle(&mut self, mut event: Event, ctx: &mut EventContext<'_>) {
        if event.is::<ChannelInit>() {
            let now = ctx.now_ms();
            for slot in self.slots.iter_mut().filter(|slot| slot.member) {
                slot.heard_ms = Some(now);
            }
            ctx.set_timer(self.hb_interval_ms, TICK_TAG);
            ctx.forward(event);
            return;
        }
        if let Some(timer) = event.get::<TimerExpired>() {
            if timer.owner == FD_LAYER {
                if timer.tag == TICK_TAG {
                    self.tick(ctx);
                }
                return;
            }
            ctx.forward(event);
            return;
        }
        if let Some(install) = event.get::<ViewInstall>() {
            // Expelled members' timestamps go with their slots: a member
            // expelled and later re-admitted by a join must get a fresh grace
            // period, not be instantly re-suspected off its stale
            // pre-expulsion age.
            self.install(&install.view.members, ctx.now_ms());
            ctx.forward(event);
            return;
        }
        if event.is::<Heartbeat>() {
            if event.direction == Direction::Up {
                let now = ctx.now_ms();
                let Some(hb) = event.get_mut::<Heartbeat>() else {
                    return;
                };
                let source = hb.header.source;
                // A gossip heartbeat carries a digest; a legacy heartbeat is
                // bare. Either way the sender itself is demonstrably alive.
                let digest = hb.message.pop::<LivenessDigest>().ok();
                if let Some(digest) = digest {
                    self.merge_digest(&digest, now, ctx);
                }
                let at = self.slot_of(source);
                self.heard_from(at, now, ctx);
                // Heartbeats are absorbed; they carry no application meaning.
                return;
            }
            ctx.forward(event);
            return;
        }
        if event.direction == Direction::Up {
            if let Some(data) = event.get_mut::<DataEvent>() {
                let source = data.header.source;
                let at = self.slot_of(source);
                self.heard_from(at, ctx.now_ms(), ctx);
            }
        }
        ctx.forward(event);
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::platform::TestPlatform;
    use morpheus_appia::testing::Harness;
    use morpheus_appia::wire::Wire;

    use super::*;

    fn fd_params(members: &[u32], interval: u64, timeout: u64) -> LayerParams {
        let mut params = LayerParams::new();
        params.insert(
            "members".into(),
            members
                .iter()
                .map(|id| id.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
        params.insert("hb_interval_ms".into(), interval.to_string());
        params.insert("suspect_timeout_ms".into(), timeout.to_string());
        params
    }

    fn fd_params_with_fanout(
        members: &[u32],
        interval: u64,
        timeout: u64,
        fanout: usize,
    ) -> LayerParams {
        let mut params = fd_params(members, interval, timeout);
        params.insert("fanout".into(), fanout.to_string());
        params
    }

    fn fire_pending_timers(harness: &mut Harness, platform: &mut TestPlatform) {
        let timers: Vec<_> = std::mem::take(&mut platform.timers);
        for (_, key) in timers {
            harness.fire_timer(key, platform);
        }
    }

    /// A digest-carrying heartbeat as a peer's fd layer would emit it.
    fn digest_heartbeat(from: u32, to: u32, entries: &[(u32, u64)]) -> Event {
        let mut message = Message::new();
        message.push(&LivenessDigest {
            entries: entries
                .iter()
                .map(|(node, counter)| (NodeId(*node), *counter))
                .collect(),
        });
        Event::up(Heartbeat::new(
            NodeId(from),
            Dest::Node(NodeId(to)),
            message,
        ))
    }

    #[test]
    fn each_tick_pushes_one_digest_to_at_most_fanout_peers() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (1..=8).collect();
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params_with_fanout(&members, 100, 1000, 3),
            &mut platform,
        );

        fire_pending_timers(&mut fd, &mut platform);
        let down = fd.drain_down();
        let heartbeats: Vec<&Event> = down
            .iter()
            .filter(|event| event.is::<Heartbeat>())
            .collect();
        assert_eq!(heartbeats.len(), 1, "one digest push per tick");
        let hb = heartbeats[0].get::<Heartbeat>().unwrap();
        let Dest::Nodes(targets) = &hb.header.dest else {
            panic!("gossip heartbeat must address a node list");
        };
        assert_eq!(targets.len(), 3, "fan-out bounds the per-tick traffic");
        assert!(targets.iter().all(|node| *node != NodeId(1)));

        // The carried digest lists the local node's advanced counter.
        let digest = hb.message.clone().pop::<LivenessDigest>().unwrap();
        assert!(digest.entries.contains(&(NodeId(1), 1)));
    }

    #[test]
    fn small_groups_are_covered_entirely() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2, 3], 100, 1000),
            &mut platform,
        );
        fire_pending_timers(&mut fd, &mut platform);
        let down = fd.drain_down();
        let hb = down.iter().find(|event| event.is::<Heartbeat>()).unwrap();
        assert_eq!(
            hb.get::<Heartbeat>().unwrap().header.dest,
            Dest::Nodes(vec![NodeId(2), NodeId(3)])
        );
    }

    #[test]
    fn fanout_zero_restores_the_all_to_all_heartbeat() {
        let mut platform = TestPlatform::new(NodeId(1));
        let members: Vec<u32> = (1..=6).collect();
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params_with_fanout(&members, 100, 1000, 0),
            &mut platform,
        );
        fire_pending_timers(&mut fd, &mut platform);
        let down = fd.drain_down();
        let hb = down.iter().find(|event| event.is::<Heartbeat>()).unwrap();
        let Dest::Nodes(targets) = &hb.get::<Heartbeat>().unwrap().header.dest else {
            panic!("heartbeat must address a node list");
        };
        assert_eq!(targets.len(), 5, "legacy mode addresses every other member");
        // Legacy heartbeats carry no digest.
        assert!(hb
            .get::<Heartbeat>()
            .unwrap()
            .message
            .clone()
            .pop::<LivenessDigest>()
            .is_err());
    }

    #[test]
    fn silent_members_are_eventually_suspected() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2], 100, 250),
            &mut platform,
        );

        let mut suspects = Vec::new();
        for _ in 0..5 {
            platform.advance(100);
            fire_pending_timers(&mut fd, &mut platform);
            suspects.extend(
                fd.drain_up()
                    .into_iter()
                    .filter(|event| event.is::<Suspect>()),
            );
        }
        assert_eq!(suspects.len(), 1, "member 2 suspected exactly once");
        assert_eq!(suspects[0].get::<Suspect>().unwrap().node, NodeId(2));
    }

    #[test]
    fn advancing_counters_keep_members_alive() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2], 100, 250),
            &mut platform,
        );

        let mut suspects = 0;
        for round in 0..6u64 {
            platform.advance(100);
            // Node 2's digest arrives with a freshly advanced counter.
            fd.run_up(digest_heartbeat(2, 1, &[(2, round + 1)]), &mut platform);
            fire_pending_timers(&mut fd, &mut platform);
            suspects += fd
                .drain_up()
                .iter()
                .filter(|event| event.is::<Suspect>())
                .count();
        }
        assert_eq!(suspects, 0);
    }

    #[test]
    fn third_party_digests_count_as_liveness_evidence() {
        // Node 1 never hears node 3 directly — only through node 2's digests.
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2, 3], 100, 250),
            &mut platform,
        );

        let mut suspects = 0;
        for round in 0..6u64 {
            platform.advance(100);
            fd.run_up(
                digest_heartbeat(2, 1, &[(2, round + 1), (3, round + 1)]),
                &mut platform,
            );
            fire_pending_timers(&mut fd, &mut platform);
            suspects += fd
                .drain_up()
                .iter()
                .filter(|event| event.is::<Suspect>())
                .count();
        }
        assert_eq!(suspects, 0, "relayed counters prove node 3 alive");
    }

    #[test]
    fn stale_counters_do_not_refresh_liveness() {
        // Node 3 crashed at counter 5; node 2 keeps gossiping the stale
        // value, which must not prevent node 3's suspicion.
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2, 3], 100, 250),
            &mut platform,
        );
        fd.run_up(digest_heartbeat(2, 1, &[(2, 1), (3, 5)]), &mut platform);

        let mut suspected = Vec::new();
        for round in 0..6u64 {
            platform.advance(100);
            fd.run_up(
                digest_heartbeat(2, 1, &[(2, round + 2), (3, 5)]),
                &mut platform,
            );
            fire_pending_timers(&mut fd, &mut platform);
            suspected.extend(
                fd.drain_up()
                    .into_iter()
                    .filter_map(|event| event.get::<Suspect>().map(|s| s.node)),
            );
        }
        assert_eq!(suspected, vec![NodeId(3)]);
    }

    #[test]
    fn an_advancing_counter_heals_a_false_suspicion() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2, 3], 100, 250),
            &mut platform,
        );
        fd.run_up(digest_heartbeat(2, 1, &[(2, 1), (3, 1)]), &mut platform);

        // Node 3 goes silent long enough to be suspected.
        let mut suspects = 0;
        for round in 0..4u64 {
            platform.advance(100);
            suspects += fd
                .run_up(
                    digest_heartbeat(2, 1, &[(2, round + 2), (3, 1)]),
                    &mut platform,
                )
                .iter()
                .filter(|event| event.is::<Suspect>())
                .count();
            fire_pending_timers(&mut fd, &mut platform);
            suspects += fd
                .drain_up()
                .iter()
                .filter(|event| event.is::<Suspect>())
                .count();
        }
        assert_eq!(suspects, 1);

        // Its counter advances again (relayed by node 2): Alive is raised.
        let alive: Vec<NodeId> = fd
            .run_up(digest_heartbeat(2, 1, &[(2, 9), (3, 2)]), &mut platform)
            .into_iter()
            .filter_map(|event| event.get::<Alive>().map(|alive| alive.node))
            .collect();
        assert_eq!(alive, vec![NodeId(3)]);
    }

    #[test]
    fn data_traffic_also_counts_as_liveness() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2], 100, 250),
            &mut platform,
        );

        let mut suspects = 0;
        for _ in 0..6 {
            platform.advance(100);
            let delivered = fd.run_up(
                Event::up(DataEvent::new(
                    NodeId(2),
                    Dest::Node(NodeId(1)),
                    Message::with_payload(&b"still here"[..]),
                )),
                &mut platform,
            );
            assert_eq!(delivered.len(), 1, "data is forwarded, not absorbed");
            fire_pending_timers(&mut fd, &mut platform);
            suspects += fd
                .drain_up()
                .iter()
                .filter(|event| event.is::<Suspect>())
                .count();
        }
        assert_eq!(suspects, 0);
    }

    #[test]
    fn heartbeats_are_absorbed_and_not_delivered_upward() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2], 100, 1000),
            &mut platform,
        );
        let delivered = fd.run_up(digest_heartbeat(2, 1, &[(2, 1)]), &mut platform);
        assert!(delivered.is_empty());
    }

    #[test]
    fn digest_entries_for_unknown_nodes_are_ignored() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2], 100, 250),
            &mut platform,
        );
        // An entry for node 9 (not a member) must not create tracking state.
        fd.run_up(digest_heartbeat(2, 1, &[(2, 1), (9, 44)]), &mut platform);
        platform.advance(300);
        fire_pending_timers(&mut fd, &mut platform);
        let suspected: Vec<NodeId> = fd
            .drain_up()
            .into_iter()
            .filter_map(|event| event.get::<Suspect>().map(|s| s.node))
            .collect();
        assert_eq!(suspected, vec![NodeId(2)], "node 9 is never tracked");
    }

    #[test]
    fn a_readmitted_member_gets_a_fresh_grace_period() {
        // Regression: expulsion must drop the member's last-advance
        // timestamp — a member expelled and later re-admitted by a join
        // used to be re-suspected off its stale pre-expulsion age on the
        // very next tick, before its first digest could possibly arrive.
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2], 100, 300),
            &mut platform,
        );

        // Node 2 is expelled, then stays away far past the suspect timeout.
        let solo = crate::view::View::new(1, vec![NodeId(1)]);
        fd.run_down(Event::down(ViewInstall { view: solo }), &mut platform);
        platform.advance(5000);

        // Node 2 rejoins; the next tick must not suspect it instantly.
        let rejoined = crate::view::View::new(2, vec![NodeId(1), NodeId(2)]);
        fd.run_down(Event::down(ViewInstall { view: rejoined }), &mut platform);
        fire_pending_timers(&mut fd, &mut platform);
        assert!(
            fd.drain_up().iter().all(|event| !event.is::<Suspect>()),
            "a rejoiner gets the same grace period as a fresh member"
        );

        // The grace period is a grace period, not immunity: staying silent
        // past the timeout still raises the suspicion.
        let mut suspects = 0;
        for _ in 0..4 {
            platform.advance(100);
            fire_pending_timers(&mut fd, &mut platform);
            suspects += fd
                .drain_up()
                .iter()
                .filter(|event| event.is::<Suspect>())
                .count();
        }
        assert_eq!(suspects, 1);
    }

    #[test]
    fn view_install_clears_suspicions_of_removed_members() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut fd = Harness::new(
            FailureDetectorLayer,
            &fd_params(&[1, 2, 3], 100, 150),
            &mut platform,
        );

        platform.advance(200);
        fire_pending_timers(&mut fd, &mut platform);
        let suspects = fd
            .drain_up()
            .iter()
            .filter(|event| event.is::<Suspect>())
            .count();
        assert_eq!(suspects, 2);

        // Install a view that removes node 3; only nodes 1 and 2 remain.
        let view = crate::view::View::new(1, vec![NodeId(1), NodeId(2)]);
        fd.run_down(Event::down(ViewInstall { view }), &mut platform);

        // Node 2 resumes gossiping and is therefore never re-suspected.
        for round in 0..3u64 {
            platform.advance(100);
            fd.run_up(digest_heartbeat(2, 1, &[(2, round + 1)]), &mut platform);
            fire_pending_timers(&mut fd, &mut platform);
        }
        let late_suspects = fd
            .drain_up()
            .iter()
            .filter(|event| event.is::<Suspect>())
            .count();
        assert_eq!(late_suspects, 0);
    }

    /// The failure detector's semantics over plain ordered maps, one map or
    /// set per concern: the reference the node-ordered slot table is
    /// checked against.
    struct ReferenceFd {
        members: Vec<NodeId>,
        counters: std::collections::BTreeMap<NodeId, u64>,
        last_advance: std::collections::BTreeMap<NodeId, u64>,
        suspected: std::collections::BTreeSet<NodeId>,
        interval: u64,
        timeout: u64,
    }

    /// A `Suspect` or `Alive` raised to the layer above.
    #[derive(Debug, PartialEq, Eq)]
    enum Signal {
        Suspect(NodeId),
        Alive(NodeId),
    }

    impl ReferenceFd {
        fn heard_from(&mut self, node: NodeId, now: u64, out: &mut Vec<Signal>) {
            self.last_advance.insert(node, now);
            if self.suspected.remove(&node) {
                out.push(Signal::Alive(node));
            }
        }

        fn heartbeat(
            &mut self,
            source: NodeId,
            rows: Option<&[(NodeId, u64)]>,
            now: u64,
            out: &mut Vec<Signal>,
        ) {
            for (node, counter) in rows.unwrap_or_default() {
                if !self.members.contains(node) {
                    continue;
                }
                let known = self.counters.entry(*node).or_insert(0);
                if *counter > *known {
                    *known = *counter;
                    self.heard_from(*node, now, out);
                }
            }
            self.heard_from(source, now, out);
        }

        /// One tick; returns the digest rows when a digest goes out.
        fn tick(
            &mut self,
            local: NodeId,
            now: u64,
            out: &mut Vec<Signal>,
        ) -> Option<Vec<(NodeId, u64)>> {
            let counter = self.counters.entry(local).or_insert(0);
            *counter = (*counter + 1).max(now / self.interval);
            self.last_advance.insert(local, now);
            let digest = self.members.iter().any(|member| *member != local).then(|| {
                let mut rows: Vec<(NodeId, u64)> = self
                    .members
                    .iter()
                    .filter_map(|member| self.counters.get(member).map(|c| (*member, *c)))
                    .collect();
                rows.sort_unstable_by_key(|(node, _)| node.0);
                rows
            });
            for member in self.members.clone() {
                if member == local || self.suspected.contains(&member) {
                    continue;
                }
                let last = self.last_advance.get(&member).copied().unwrap_or(0);
                if now.saturating_sub(last) >= self.timeout {
                    self.suspected.insert(member);
                    out.push(Signal::Suspect(member));
                }
            }
            digest
        }

        fn install(&mut self, members: &[NodeId], now: u64) {
            self.members = members.to_vec();
            self.suspected.retain(|node| members.contains(node));
            self.counters.retain(|node, _| members.contains(node));
            self.last_advance.retain(|node, _| members.contains(node));
            for member in members {
                self.last_advance.entry(*member).or_insert(now);
            }
        }
    }

    fn signals(events: &[Event]) -> Vec<Signal> {
        events
            .iter()
            .filter_map(|event| {
                event
                    .get::<Suspect>()
                    .map(|suspect| Signal::Suspect(suspect.node))
                    .or_else(|| event.get::<Alive>().map(|alive| Signal::Alive(alive.node)))
            })
            .collect()
    }

    /// A random subset of nodes `0..universe`, in node order.
    fn random_members(rng: &mut morpheus_netsim::SimRng, universe: u32) -> Vec<NodeId> {
        (0..universe)
            .filter(|_| rng.chance(0.7))
            .map(NodeId)
            .collect()
    }

    #[test]
    fn the_slot_table_matches_the_reference_model_on_random_histories() {
        const UNIVERSE: u32 = 12;
        for seed in 0..48u64 {
            let mut rng = morpheus_netsim::SimRng::new(seed);
            let local = NodeId(rng.random_below(u64::from(UNIVERSE)) as u32);
            let mut platform = TestPlatform::new(local);
            let members = random_members(&mut rng, UNIVERSE);
            let ids: Vec<u32> = members.iter().map(|node| node.0).collect();
            let (interval, timeout) = (100, 250 + 50 * rng.random_below(4));
            let mut fd = Harness::new(
                FailureDetectorLayer,
                &fd_params_with_fanout(&ids, interval, timeout, 3),
                &mut platform,
            );
            let mut model = ReferenceFd {
                last_advance: members.iter().map(|node| (*node, 0)).collect(),
                members,
                counters: Default::default(),
                suspected: Default::default(),
                interval,
                timeout,
            };

            for step in 0..300 {
                let now = platform.now_ms;
                let mut expected = Vec::new();
                let context = format!("seed {seed} step {step}");
                match rng.random_below(10) {
                    // A digest: rows for members and non-members, in random
                    // or node order, duplicates and counter-0 rows included.
                    0..=3 => {
                        let source = NodeId(rng.random_below(u64::from(UNIVERSE) + 2) as u32);
                        let ceiling = now / interval + 3;
                        let mut rows: Vec<(NodeId, u64)> = (0..rng
                            .random_below(2 * u64::from(UNIVERSE)))
                            .map(|_| {
                                let node = NodeId(rng.random_below(u64::from(UNIVERSE) + 2) as u32);
                                let counter = if rng.chance(0.15) {
                                    0
                                } else {
                                    rng.random_below(ceiling + 1)
                                };
                                (node, counter)
                            })
                            .collect();
                        if rng.chance(0.5) {
                            rows.sort_unstable();
                        }
                        model.heartbeat(source, Some(&rows), now, &mut expected);
                        let got = fd.run_up(
                            digest_heartbeat(
                                source.0,
                                local.0,
                                &rows.iter().map(|(n, c)| (n.0, *c)).collect::<Vec<_>>(),
                            ),
                            &mut platform,
                        );
                        assert_eq!(signals(&got), expected, "{context}: digest {rows:?}");
                    }
                    // A bare (legacy) heartbeat or a data event, possibly
                    // from a non-member.
                    4 | 5 => {
                        let source = NodeId(rng.random_below(u64::from(UNIVERSE) + 2) as u32);
                        model.heartbeat(source, None, now, &mut expected);
                        let event = if rng.chance(0.5) {
                            Event::up(Heartbeat::new(source, Dest::Node(local), Message::new()))
                        } else {
                            Event::up(DataEvent::new(
                                source,
                                Dest::Node(local),
                                Message::with_payload(&b"x"[..]),
                            ))
                        };
                        let got = fd.run_up(event, &mut platform);
                        assert_eq!(signals(&got), expected, "{context}: from {source:?}");
                    }
                    // A view install that drops and re-admits members.
                    6 => {
                        let view = crate::view::View::new(step, random_members(&mut rng, UNIVERSE));
                        model.install(&view.members, now);
                        fd.run_down(Event::down(ViewInstall { view }), &mut platform);
                        assert_eq!(signals(&fd.drain_up()), expected, "{context}: install");
                    }
                    // Time passes and the tick fires.
                    _ => {
                        platform.advance(rng.random_below(3 * interval));
                        let now = platform.now_ms;
                        let digest = model.tick(local, now, &mut expected);
                        fire_pending_timers(&mut fd, &mut platform);
                        assert_eq!(signals(&fd.drain_up()), expected, "{context}: tick");
                        let sent: Vec<_> = fd
                            .drain_down()
                            .iter()
                            .filter_map(|event| event.get::<Heartbeat>())
                            .map(|hb| {
                                hb.message
                                    .clone()
                                    .pop::<LivenessDigest>()
                                    .unwrap()
                                    .to_bytes()
                            })
                            .collect();
                        let wanted: Vec<_> = digest
                            .into_iter()
                            .map(|entries| LivenessDigest { entries }.to_bytes())
                            .collect();
                        assert_eq!(sent, wanted, "{context}: digest bytes");
                    }
                }
            }
        }
    }
}
