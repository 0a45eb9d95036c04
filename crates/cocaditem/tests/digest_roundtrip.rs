//! Pure codec smoke target for the Cocaditem anti-entropy bodies, run
//! under `cargo miri test` by the CI `miri` job: encode/decode only, no
//! clocks, threads or I/O.

use morpheus_appia::platform::NodeId;
use morpheus_appia::wire::Wire;
use morpheus_cocaditem::dissemination::{DigestBody, PullBody};

fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
    let bytes = value.to_bytes();
    assert_eq!(T::from_bytes(&bytes).unwrap(), value);
    for len in 0..bytes.len() {
        assert!(
            T::from_bytes(&bytes[..len]).is_err(),
            "truncation to {len} of {} bytes must not decode",
            bytes.len()
        );
    }
    for index in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.to_vec();
            mutated[index] ^= 1 << bit;
            let _ = T::from_bytes(&mutated);
        }
    }
}

#[test]
fn digest_and_pull_bodies_roundtrip() {
    let max = NodeId(u32::MAX);
    roundtrip(DigestBody::default());
    roundtrip(DigestBody {
        entries: vec![(NodeId(0), 1_003), (NodeId(1), 2_003), (NodeId(4), 1_003)],
    });
    roundtrip(DigestBody {
        entries: vec![(max, u64::MAX), (NodeId(0), 0), (max, u64::MAX)],
    });
    roundtrip(PullBody::default());
    roundtrip(PullBody {
        nodes: vec![NodeId(2), NodeId(9), max, NodeId(0), NodeId(0)],
    });
}
