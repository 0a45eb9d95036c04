//! Pure codec smoke target for the group-communication headers — the
//! second half of the CI `miri` job. No clocks, no threads, no I/O:
//! encode/decode only, so Miri can check the decoders' memory behaviour
//! against adversarial truncations at acceptable cost.

use morpheus_appia::platform::NodeId;
use morpheus_appia::wire::Wire;
use morpheus_groupcomm::headers::{
    CausalHeader, FecParityHeader, FlushBody, GossipHeader, LivenessDigest, McastHeader, McastMode,
    NackHeader, OrderHeader, RepairDigest, RepairFloorBody, RepairPull, RepairPushHeader,
    RepairRange, SeqHeader, TotalIdHeader,
};

#[cfg(miri)]
const TRUNCATION_STRIDE: usize = 7;
#[cfg(not(miri))]
const TRUNCATION_STRIDE: usize = 1;

fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
    let bytes = value.to_bytes();
    assert_eq!(T::from_bytes(&bytes).unwrap(), value);
    // Every (strided) truncation must fail cleanly, not panic.
    for len in (0..bytes.len()).step_by(TRUNCATION_STRIDE.max(1)) {
        assert!(
            T::from_bytes(&bytes[..len]).is_err(),
            "truncation to {len} of {} bytes must not decode",
            bytes.len()
        );
    }
}

#[test]
fn data_plane_headers_roundtrip() {
    roundtrip(McastHeader {
        mode: McastMode::RelayRequest,
        origin: NodeId(3),
    });
    roundtrip(SeqHeader { seq: u64::MAX });
    roundtrip(NackHeader {
        origin: NodeId(2),
        missing: vec![4, 5, 9, u64::MAX],
    });
    roundtrip(GossipHeader {
        origin: NodeId(1),
        inc: 12,
        seq: 77,
        ttl: 3,
    });
    roundtrip(FecParityHeader {
        covers: vec![10, 11, 12, 13],
        lengths: vec![100, 90, 80, 70],
        parity_len: 512,
    });
}

#[test]
fn repair_headers_roundtrip() {
    roundtrip(RepairDigest {
        credit: 128,
        entries: vec![RepairRange {
            origin: NodeId(1),
            inc: 12,
            lo: 3,
            hi: 9,
        }],
    });
    roundtrip(RepairFloorBody {
        origin: NodeId(2),
        inc: 12,
        floor: 900,
    });
    roundtrip(RepairPull {
        wants: vec![(NodeId(1), 12, vec![4, 5]), (NodeId(4), 0, vec![1])],
    });
    roundtrip(RepairPushHeader {
        origin: NodeId(1),
        inc: 12,
        seq: 4,
    });
    roundtrip(LivenessDigest {
        entries: vec![(NodeId(0), 12), (NodeId(7), 3)],
    });
}

/// The delta-row tables round-trip any rows, not just the sorted ones the
/// layers emit: unsorted, duplicated, empty and extreme values included.
#[test]
fn delta_row_bodies_roundtrip_at_the_extremes() {
    let max = NodeId(u32::MAX);
    roundtrip(LivenessDigest::default());
    roundtrip(LivenessDigest {
        entries: vec![
            (max, u64::MAX),
            (NodeId(0), 0),
            (max, u64::MAX),
            (NodeId(3), 1),
        ],
    });
    roundtrip(RepairDigest::default());
    roundtrip(RepairDigest {
        credit: u32::MAX,
        entries: vec![
            RepairRange {
                origin: max,
                inc: u64::MAX,
                lo: u64::MAX,
                hi: 0,
            },
            RepairRange {
                origin: NodeId(0),
                inc: 0,
                lo: 9,
                hi: 3,
            },
            RepairRange {
                origin: NodeId(0),
                inc: 0,
                lo: 9,
                hi: 3,
            },
        ],
    });
    roundtrip(RepairPull::default());
    roundtrip(RepairPull {
        wants: vec![
            (max, u64::MAX, vec![u64::MAX, 0, u64::MAX]),
            (NodeId(0), 0, vec![]),
            (NodeId(0), 0, vec![7, 7]),
        ],
    });
    roundtrip(FlushBody {
        epoch: u64::MAX,
        proposer: max,
        flushed: vec![],
    });
    roundtrip(FlushBody {
        epoch: 0,
        proposer: NodeId(0),
        flushed: vec![max, NodeId(0), NodeId(0), max],
    });
}

#[test]
fn ordering_and_view_headers_roundtrip() {
    roundtrip(CausalHeader {
        sender_rank: 2,
        clock: vec![5, 0, 7, u64::MAX],
    });
    roundtrip(TotalIdHeader {
        origin: NodeId(4),
        local_seq: 6,
    });
    roundtrip(OrderHeader {
        message: TotalIdHeader {
            origin: NodeId(4),
            local_seq: 6,
        },
        global_seq: 99,
    });
    roundtrip(FlushBody {
        epoch: 9,
        proposer: NodeId(1),
        flushed: vec![NodeId(1), NodeId(4)],
    });
}

/// Unknown tag bytes must surface as decode errors, not panics.
#[test]
fn unknown_mode_tag_is_rejected() {
    let bytes = McastHeader {
        mode: McastMode::Direct,
        origin: NodeId(1),
    }
    .to_bytes();
    let mut corrupted = bytes.to_vec();
    corrupted[0] = 0xFF;
    assert!(McastHeader::from_bytes(&corrupted).is_err());
}
