//! History coverage: which chat messages ended up in which member's room
//! history.
//!
//! `RunReport::delivery_coverage` divides raw application deliveries by the
//! expected count. Deliveries of every incarnation of a restarted member are
//! summed, and a message replayed after a rejoin counts twice, so the ratio
//! can exceed 1 (1.00061 on `member_restart(100, 0.1)`). Here each member's
//! *final* history is read instead: a `(member, sender, seq)` entry counts
//! once, however it got there — live delivery, join-view replay or rejoin
//! snapshot.

use morpheus_appia::platform::NodeId;
use morpheus_chat::{ChatHistoryBinding, RoomHistory};

/// Coverage of one run's expected `(member, message)` pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Expected pairs: every member times every message the workload
    /// scheduled (a sender's own messages included — the chat
    /// records them in its history when it composes them).
    pub expected: u64,
    /// Expected pairs present in the members' final histories.
    pub present: u64,
    /// Of the present pairs, those of a member's own messages (recorded when
    /// composed, not delivered).
    pub own: u64,
    /// History entries that match no scheduled message (a phantom or a
    /// corrupted message).
    pub unexpected: u64,
}

impl Coverage {
    /// Expected pairs missing from the final histories.
    pub fn missing(&self) -> u64 {
        self.expected - self.present
    }

    /// Present pairs that were delivered: unique chat deliveries.
    pub fn delivered(&self) -> u64 {
        self.present - self.own
    }

    /// Present pairs as a share of the expected ones.
    pub fn fraction(&self) -> f64 {
        if self.expected == 0 {
            return 1.0;
        }
        self.present as f64 / self.expected as f64
    }
}

/// Counts coverage over the final histories of `members`: every member is
/// expected to hold messages `1..=messages_per_sender` of every sender in
/// `room`. `history` returns a member's final history (`None` when it never
/// had one, which counts every pair as missing).
pub fn history_coverage<'a>(
    room: &str,
    members: &[NodeId],
    senders: &[NodeId],
    messages_per_sender: u64,
    history: impl Fn(NodeId) -> Option<&'a RoomHistory>,
) -> Coverage {
    let sender_names: Vec<String> = senders
        .iter()
        .map(|node| ChatHistoryBinding::sender_name(*node))
        .collect();
    let mut coverage = Coverage {
        expected: members.len() as u64 * senders.len() as u64 * messages_per_sender,
        ..Coverage::default()
    };
    for member in members {
        let Some(history) = history(*member) else {
            continue;
        };
        let own_name = ChatHistoryBinding::sender_name(*member);
        for message in history.messages() {
            let scheduled = message.room == room
                && (1..=messages_per_sender).contains(&message.seq)
                && sender_names.contains(&message.sender);
            if scheduled {
                coverage.present += 1;
                coverage.own += u64::from(message.sender == own_name);
            } else {
                coverage.unexpected += 1;
            }
        }
    }
    coverage
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use morpheus_chat::ChatMessage;

    use super::*;

    fn record(history: &RoomHistory, sender: u32, seq: u64) {
        history.record(ChatMessage::new(
            "room",
            ChatHistoryBinding::sender_name(NodeId(sender)),
            seq,
            format!("m{seq}"),
        ));
    }

    #[test]
    fn a_restarted_member_counts_its_final_history_once() {
        let members = [NodeId(0), NodeId(1), NodeId(2)];
        let senders = [NodeId(0)];
        let mut histories: HashMap<NodeId, RoomHistory> = HashMap::new();
        for member in members {
            let history = RoomHistory::new();
            for seq in 1..=4 {
                record(&history, 0, seq);
            }
            histories.insert(member, history);
        }
        // Node 2 restarted: its first incarnation's history (all four
        // messages) is gone. The fresh one got 1..=2 from the rejoin
        // snapshot and then 2 again from the join-view replay, plus 3 live;
        // message 4 never arrived.
        let rejoined = RoomHistory::new();
        for seq in [1, 2, 2, 3] {
            record(&rejoined, 0, seq);
        }
        histories.insert(NodeId(2), rejoined);

        let coverage = history_coverage("room", &members, &senders, 4, |node| histories.get(&node));
        assert_eq!(coverage.expected, 12);
        assert_eq!(coverage.present, 11, "the replayed duplicate counts once");
        assert_eq!(coverage.missing(), 1);
        assert_eq!(coverage.own, 4, "the sender's own history");
        assert_eq!(coverage.delivered(), 7);
        assert_eq!(coverage.unexpected, 0);
        assert!((coverage.fraction() - 11.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn phantoms_and_absent_histories_are_not_coverage() {
        let members = [NodeId(0), NodeId(1)];
        let senders = [NodeId(0)];
        let history = RoomHistory::new();
        record(&history, 0, 1);
        record(&history, 0, 2);
        record(&history, 0, 9); // beyond the schedule
        record(&history, 7, 1); // not a sender
        let coverage = history_coverage("room", &members, &senders, 2, |node| {
            (node == NodeId(0)).then_some(&history)
        });
        assert_eq!(coverage.expected, 4);
        assert_eq!(coverage.present, 2);
        assert_eq!(coverage.unexpected, 2);
        assert_eq!(coverage.missing(), 2, "node 1 never had a history");
    }
}
