//! Probe nodes: per-call timings of `MorpheusNode`'s public entry points and
//! of the simulator's event queue.
//!
//! The probe builds the workload's whole group with the public
//! `MorpheusNode::new`, each node on a `TestPlatform`, on the workload's
//! final stack and timing. Every node is fed its peers' real output packets
//! (one simulated millisecond of latency) and its own timers, while the
//! workload's senders send chat messages at the workload's rate. The probe
//! stops at half the suspicion timeout, so no view change fires and the
//! timings are of the steady state.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::time::Instant;

use morpheus_appia::platform::{
    DeliveryKind, InPacket, NodeId, NodeProfile, PacketClass, PacketDest, TestPlatform,
};
use morpheus_appia::timer::TimerKey;
use morpheus_chat::ChatHistoryBinding;
use morpheus_core::{MorpheusNode, NodeOptions};
use morpheus_netsim::{EventQueue, SimTime};
use morpheus_testbed::{AppBinding, Scenario, TopologyChoice};

use crate::trace::{timed, SharedSpans, SpanUnit};
use crate::workload::{Workload, ROOM};

/// Simulated one-way latency between probe nodes, in milliseconds.
const LATENCY_MS: u64 = 1;

enum ProbeEvent {
    Packet(InPacket),
    Timer(TimerKey),
    Send(u64),
}

/// The probe's event queue: `(time, insertion order)`-ordered, so ties fire
/// in the order they were scheduled.
#[derive(Default)]
struct Agenda {
    queue: BinaryHeap<Reverse<(u64, usize)>>,
    events: Vec<Option<(usize, ProbeEvent)>>,
}

impl Agenda {
    fn schedule(&mut self, at: u64, node: usize, event: ProbeEvent) {
        self.queue.push(Reverse((at, self.events.len())));
        self.events.push(Some((node, event)));
    }

    fn next(&mut self) -> Option<(u64, usize, ProbeEvent)> {
        let Reverse((at, id)) = self.queue.pop()?;
        let (node, event) = self.events[id].take()?;
        Some((at, node, event))
    }
}

/// What the probe did, besides the spans it recorded.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeCounts {
    /// Simulated milliseconds the probe ran.
    pub sim_ms: u64,
    /// Reconfiguration requests the probe group raised (expected zero: the
    /// group starts on the stack the policy picks).
    pub reconfigurations: u64,
    /// Packets a node rejected.
    pub rejected: u64,
}

/// Runs the probe group of a workload, recording `core.node_new_us`,
/// `core.send_ns`, `core.deliver_ns.<class>` and `core.timer_ns.<channel>`.
pub fn run_probe(workload: Workload, scenario: &Scenario, spans: &SharedSpans) -> ProbeCounts {
    let members = scenario.members();
    let mut options = NodeOptions::new(members.clone())
        .with_initial_stack(workload.final_stack(scenario))
        .with_publish_interval(scenario.publish_interval_ms);
    options.adaptive = scenario.adaptive;
    options.hb_interval_ms = scenario.hb_interval_ms;
    options.suspect_timeout_ms = scenario.suspect_timeout_ms;
    options.retransmit_interval_ms = scenario.retransmit_interval_ms;
    options.round_timeout_ms = scenario.round_timeout_ms;
    options.control_fanout = scenario.control_fanout;
    options.gossip_repair_interval_ms = scenario.repair_interval_ms;
    options.transfer_chunk_bytes = scenario.transfer_chunk_bytes;
    for (key, value) in &scenario.core_params {
        options = options.with_core_param(key.clone(), value.clone());
    }

    let mut platforms: Vec<TestPlatform> = members
        .iter()
        .map(|member| {
            let mobile = matches!(scenario.topology, TopologyChoice::HybridCell)
                && member.0 as usize >= scenario.fixed_nodes;
            TestPlatform::with_profile(if mobile {
                NodeProfile::mobile_pda(*member)
            } else {
                NodeProfile::fixed_pc(*member)
            })
        })
        .collect();
    let mut nodes: Vec<MorpheusNode> = Vec::with_capacity(members.len());
    for platform in platforms.iter_mut() {
        let node = timed(spans, "core.node_new_us", SpanUnit::Us, || {
            MorpheusNode::new(options.clone(), platform)
        });
        nodes.push(node.expect("catalogue stacks always instantiate"));
    }

    let end_ms = scenario.suspect_timeout_ms / 2;
    let mut agenda = Agenda::default();
    for sender in &scenario.workload.senders {
        let mut at = scenario.workload.interval_ms;
        // Zero-based, like the runner's workload sends.
        let mut seq = 0;
        while at < end_ms {
            agenda.schedule(at, sender.0 as usize, ProbeEvent::Send(seq));
            at += scenario.workload.interval_ms;
            seq += 1;
        }
    }

    let mut chat = ChatHistoryBinding::new(ROOM);
    let mut cancelled: HashSet<(usize, TimerKey)> = HashSet::new();
    let mut counts = ProbeCounts {
        sim_ms: end_ms,
        ..ProbeCounts::default()
    };
    // Flush what construction produced, then run the event loop.
    let mut pending: Vec<usize> = (0..nodes.len()).collect();
    loop {
        while let Some(index) = pending.pop() {
            let platform = &mut platforms[index];
            let now = platform.now_ms;
            for (at, key) in std::mem::take(&mut platform.timers) {
                agenda.schedule(at.max(now), index, ProbeEvent::Timer(key));
            }
            for key in std::mem::take(&mut platform.cancelled) {
                cancelled.insert((index, key));
            }
            for packet in platform.take_sent() {
                let targets: Vec<NodeId> = match packet.dest {
                    PacketDest::Node(to) => vec![to],
                    PacketDest::Broadcast => members
                        .iter()
                        .copied()
                        .filter(|member| *member != packet.from)
                        .collect(),
                };
                for to in targets {
                    let arrival = InPacket {
                        from: packet.from,
                        to,
                        class: packet.class,
                        channel: packet.channel.clone(),
                        payload: packet.payload.clone(),
                    };
                    agenda.schedule(now + LATENCY_MS, to.0 as usize, ProbeEvent::Packet(arrival));
                }
            }
            let requests = std::mem::take(&mut platform.reconfig_requests);
            counts.reconfigurations += requests.len() as u64;
            for request in requests {
                let _ = nodes[index].apply_reconfiguration(request, platform);
            }
            for delivery in platform.take_deliveries() {
                if let DeliveryKind::ViewChange { view_id, members } = delivery.kind {
                    nodes[index].install_control_view(view_id, members, platform);
                }
            }
            let produced = !platform.timers.is_empty()
                || !platform.sent.is_empty()
                || !platform.reconfig_requests.is_empty()
                || !platform.deliveries.is_empty();
            if produced {
                pending.push(index);
            }
        }
        let Some((at, index, event)) = agenda.next() else {
            break;
        };
        if at >= end_ms {
            break;
        }
        let node = &mut nodes[index];
        let platform = &mut platforms[index];
        platform.now_ms = at;
        match event {
            ProbeEvent::Packet(packet) => {
                let name = match packet.class {
                    PacketClass::Data => "core.deliver_ns.data",
                    PacketClass::Control => "core.deliver_ns.control",
                    PacketClass::Context => "core.deliver_ns.context",
                    PacketClass::Repair => "core.deliver_ns.repair",
                    PacketClass::Overlay => "core.deliver_ns.overlay",
                };
                let result = timed(spans, name, SpanUnit::Ns, || {
                    node.deliver_packet(packet, platform)
                });
                counts.rejected += u64::from(result.is_err());
            }
            ProbeEvent::Timer(key) => {
                if cancelled.remove(&(index, key)) {
                    continue;
                }
                let name = if node.kernel().channel_id(&options.data_channel) == Some(key.channel) {
                    "core.timer_ns.data"
                } else {
                    "core.timer_ns.control"
                };
                timed(spans, name, SpanUnit::Ns, || {
                    node.timer_fired(key, platform)
                });
            }
            ProbeEvent::Send(seq) => {
                let payload = chat
                    .compose(NodeId(index as u32), seq, scenario.workload.payload_size)
                    .expect("the chat binding composes every message");
                timed(spans, "core.send_ns", SpanUnit::Ns, || {
                    node.send_to_group(payload, platform)
                });
            }
        }
        pending.push(index);
    }
    counts
}

/// Times the simulator's event queue at the depth a workload reached: the
/// queue is filled to `depth` entries, then each sample is the mean cost of
/// one push plus one pop over a batch of 64, recorded as
/// `netsim.queue_op_ns`.
pub fn time_queue(depth: u64, seed: u64, spans: &SharedSpans) {
    const BATCH: u32 = 64;
    const SAMPLES: u32 = 4_000;
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64: a cheap, seeded spread of event times.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut queue: EventQueue<u64> = EventQueue::new();
    for _ in 0..depth.max(1) {
        queue.push(SimTime::from_millis(next() % 1_000_000), 0);
    }
    for _ in 0..SAMPLES {
        let started = Instant::now();
        for _ in 0..BATCH {
            let (now, _) = queue.pop().expect("the queue never empties");
            queue.push(
                SimTime::from_millis(now.as_millis() + next() % 10_000),
                now.as_millis(),
            );
        }
        let per_op = started.elapsed().as_nanos() as f64 / f64::from(BATCH);
        spans
            .borrow_mut()
            .record_value("netsim.queue_op_ns", per_op);
    }
}
