//! Pure codec smoke target for the wire format, kept free of clocks,
//! threads and file I/O so it runs under `cargo miri test` unmodified —
//! the CI `miri` job drives exactly this test. Under Miri the sweep sizes
//! shrink (interpretation is ~1000× slower than native), but every code
//! path is still exercised at least once.

use std::fmt::Debug;

use morpheus_appia::platform::NodeId;
use morpheus_appia::wire::{Row, Wire, WireError, WireReader, WireWriter, MAX_VARINT_LEN};

#[cfg(miri)]
const SWEEP_BUFFERS: usize = 8;
#[cfg(not(miri))]
const SWEEP_BUFFERS: usize = 256;

/// Random tables generated per row type by the delta-row suite.
#[cfg(miri)]
const RANDOM_TABLES: usize = 3;
#[cfg(not(miri))]
const RANDOM_TABLES: usize = 64;

/// Deterministic pseudo-random byte stream (no OS entropy: replays
/// identically everywhere, including under Miri).
struct Lcg(u64);

impl Lcg {
    fn next_byte(&mut self) -> u8 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 56) as u8
    }

    fn next_u64(&mut self) -> u64 {
        (0..8).fold(0, |acc, _| acc << 8 | u64::from(self.next_byte()))
    }

    /// A column value: mostly small and clustered (the sorted tables the
    /// protocols emit), sometimes an extreme or an arbitrary 64-bit value.
    fn column(&mut self, previous: u64) -> u64 {
        match self.next_byte() % 8 {
            0 => 0,
            1 => u64::from(u32::MAX),
            2 => u64::MAX,
            3 => self.next_u64(),
            4 => previous,
            _ => previous.wrapping_add(u64::from(self.next_byte() % 16)),
        }
    }
}

#[test]
fn scalars_roundtrip() {
    let mut w = WireWriter::new();
    w.put_u8(0xAB);
    w.put_bool(false);
    w.put_u16(u16::MAX);
    w.put_u32(1);
    w.put_u64(u64::MAX);
    w.put_i64(i64::MIN);
    w.put_f64(-0.25);
    let bytes = w.finish();

    let mut r = WireReader::new(&bytes);
    assert_eq!(r.get_u8().unwrap(), 0xAB);
    assert!(!r.get_bool().unwrap());
    assert_eq!(r.get_u16().unwrap(), u16::MAX);
    assert_eq!(r.get_u32().unwrap(), 1);
    assert_eq!(r.get_u64().unwrap(), u64::MAX);
    assert_eq!(r.get_i64().unwrap(), i64::MIN);
    assert_eq!(r.get_f64().unwrap(), -0.25);
    assert_eq!(r.remaining(), 0);
}

#[test]
fn compound_values_roundtrip() {
    let value = vec!["".to_string(), "héllo".to_string(), "x".repeat(300)];
    let decoded = Vec::<String>::from_bytes(&value.to_bytes()).unwrap();
    assert_eq!(decoded, value);

    let mut w = WireWriter::new();
    w.put_bytes(&[0, 255, 1, 254]);
    w.put_u32_list(&[7; 9]);
    w.put_u64_list(&[u64::MAX, 0]);
    let bytes = w.finish();
    let mut r = WireReader::new(&bytes);
    assert_eq!(r.get_bytes().unwrap().as_ref(), &[0, 255, 1, 254]);
    assert_eq!(r.get_u32_list().unwrap(), vec![7; 9]);
    assert_eq!(r.get_u64_list().unwrap(), vec![u64::MAX, 0]);
}

/// Every truncation of a valid encoding must decode to a clean error —
/// never a panic, never an out-of-bounds read (the property Miri checks at
/// the memory-model level).
#[test]
fn truncated_input_errors_cleanly() {
    let value = vec!["abc".to_string(), "defgh".to_string()];
    let bytes = value.to_bytes();
    for len in 0..bytes.len() {
        let err = Vec::<String>::from_bytes(&bytes[..len]);
        assert!(err.is_err(), "truncation to {len} bytes must not decode");
    }
}

/// Pseudo-random garbage buffers must never panic any reader primitive.
#[test]
fn garbage_input_never_panics() {
    let mut rng = Lcg(0x5EED_0001);
    for round in 0..SWEEP_BUFFERS {
        let len = round % 40;
        let buf: Vec<u8> = (0..len).map(|_| rng.next_byte()).collect();

        let mut r = WireReader::new(&buf);
        let _ = r.get_u32();
        let _ = r.get_str();
        let _ = r.get_bytes();
        let _ = r.get_u64_list();

        let _ = Vec::<String>::from_bytes(&buf);
        let _ = u64::from_bytes(&buf);
        let _ = String::from_bytes(&buf);
    }
}

/// Absurd length prefixes are rejected by the sanity limit instead of
/// triggering a huge allocation.
#[test]
fn hostile_length_prefix_is_rejected() {
    let mut w = WireWriter::new();
    w.put_u32(u32::MAX);
    let bytes = w.finish();
    let mut r = WireReader::new(&bytes);
    assert!(matches!(
        r.get_bytes().unwrap_err(),
        WireError::LengthOutOfRange(_) | WireError::UnexpectedEof
    ));
}

/// A four-column row with no range restriction, standing in for the widest
/// table the protocols send (repair spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Wide([u64; 4]);

impl Row<4> for Wide {
    fn columns(&self) -> [u64; 4] {
        self.0
    }

    fn from_columns(columns: [u64; 4]) -> Result<Self, WireError> {
        Ok(Wide(columns))
    }
}

fn encode_rows<R: Row<N>, const N: usize>(rows: &[R]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_rows(rows);
    w.finish().to_vec()
}

fn decode_rows<R: Row<N>, const N: usize>(bytes: &[u8]) -> Result<Vec<R>, WireError> {
    let mut r = WireReader::new(bytes);
    let rows = r.get_rows()?;
    if r.remaining() != 0 {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(rows)
}

/// The contract every delta table keeps, whatever its row type: exact
/// round-trip, an error for every truncation, and no panic for any single
/// flipped bit. A flipped encoding that still decodes completely re-encodes
/// to the very same bytes: varints are canonical, so each table has exactly
/// one accepted encoding.
fn check_table<R, const N: usize>(rows: &[R])
where
    R: Row<N> + PartialEq + Debug,
{
    let bytes = encode_rows(rows);
    assert_eq!(decode_rows::<R, N>(&bytes).as_deref(), Ok(rows));
    for len in 0..bytes.len() {
        assert!(
            decode_rows::<R, N>(&bytes[..len]).is_err(),
            "truncation to {len} of {} bytes decoded",
            bytes.len()
        );
    }
    for index in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[index] ^= 1 << bit;
            if let Ok(decoded) = decode_rows::<R, N>(&mutated) {
                assert_eq!(encode_rows(&decoded), mutated, "non-canonical decode");
            }
        }
    }
}

/// Random tables of `R`: empty, sorted, unsorted and duplicated rows, with
/// `0`, `u32::MAX` and `u64::MAX` columns mixed in.
fn random_tables<R: Row<N>, const N: usize>(seed: u64, narrow: bool) -> Vec<Vec<R>> {
    let mut rng = Lcg(seed);
    let mut tables = vec![Vec::new()];
    for _ in 0..RANDOM_TABLES {
        let len = usize::from(rng.next_byte() % 12);
        let mut previous = [0u64; N];
        let mut table = Vec::with_capacity(len);
        for _ in 0..len {
            for (index, column) in previous.iter_mut().enumerate() {
                *column = rng.column(*column);
                if narrow && index == 0 {
                    *column &= u64::from(u32::MAX);
                }
            }
            table.push(R::from_columns(previous).expect("in range"));
        }
        tables.push(table);
    }
    tables
}

#[test]
fn delta_tables_roundtrip_for_every_row_shape() {
    for table in random_tables::<u64, 1>(1, false) {
        check_table(&table);
    }
    for table in random_tables::<NodeId, 1>(2, true) {
        check_table(&table);
    }
    for table in random_tables::<(NodeId, u64), 2>(3, true) {
        check_table(&table);
    }
    for table in random_tables::<Wide, 4>(4, false) {
        check_table(&table);
    }
    // The extremes in every order: descending, duplicated, wrapping.
    check_table(&[u64::MAX, 0, u64::MAX, u64::MAX, 1, 0]);
    check_table(&[NodeId(u32::MAX), NodeId(0), NodeId(u32::MAX)]);
    check_table(&[
        (NodeId(u32::MAX), u64::MAX),
        (NodeId(0), 0),
        (NodeId(0), 0),
        (NodeId(7), u64::MAX),
    ]);
    check_table(&[Wide([u64::MAX; 4]), Wide([0; 4]), Wide([1, u64::MAX, 0, 2])]);
}

#[test]
fn sorted_tables_cost_one_byte_per_column() {
    let rows: Vec<(NodeId, u64)> = (0..100u32).map(|n| (NodeId(n), 40)).collect();
    // One count byte, one byte per node delta, one for the first counter
    // and one per zero delta after it.
    assert_eq!(encode_rows(&rows).len(), 1 + 100 * 2);
}

#[test]
fn varints_roundtrip_at_every_length_boundary() {
    let mut values = vec![0u64, u64::MAX];
    for bits in (7..64).step_by(7) {
        values.extend([(1u64 << bits) - 1, 1u64 << bits]);
    }
    for value in values {
        let mut w = WireWriter::new();
        w.put_varint(value);
        let bytes = w.finish();
        let expected = (64 - value.leading_zeros() as usize).div_ceil(7).max(1);
        assert_eq!(bytes.len(), expected, "length of {value}");
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_varint(), Ok(value));
        assert_eq!(r.remaining(), 0);
    }
}

#[test]
fn long_overflowing_and_overlong_varints_are_rejected() {
    // Eleven bytes: ten continuation bytes, then a terminator.
    let mut eleven = vec![0x80u8; MAX_VARINT_LEN];
    eleven.push(0x01);
    assert_eq!(
        WireReader::new(&eleven).get_varint(),
        Err(WireError::Malformed("varint longer than 10 bytes"))
    );
    // Ten bytes whose last group carries bits above 2^64.
    let mut overflowing = vec![0xFFu8; MAX_VARINT_LEN - 1];
    overflowing.push(0x02);
    assert_eq!(
        WireReader::new(&overflowing).get_varint(),
        Err(WireError::Malformed("varint overflows u64"))
    );
    // A zero-padded encoding of 0.
    assert_eq!(
        WireReader::new(&[0x80, 0x00]).get_varint(),
        Err(WireError::Malformed("overlong varint"))
    );
    // The same varints as a table's row count or column.
    assert!(decode_rows::<u64, 1>(&eleven).is_err());
    let mut column = vec![0x01];
    column.extend(&overflowing);
    assert!(decode_rows::<u64, 1>(&column).is_err());
}

#[test]
fn adversarial_row_counts_are_rejected_before_allocation() {
    for count in [3u64, 1_000_000, u64::from(u32::MAX), u64::MAX] {
        let mut w = WireWriter::new();
        w.put_varint(count);
        // Two honest (node, value) rows: four column bytes.
        w.put_varint(2);
        w.put_varint(2);
        w.put_varint(2);
        w.put_varint(2);
        assert_eq!(
            decode_rows::<(NodeId, u64), 2>(&w.finish()),
            Err(WireError::Malformed("row count exceeds payload")),
            "count {count}"
        );
    }
}

#[test]
fn node_columns_above_u32_are_rejected() {
    let bytes = encode_rows(&[u64::from(u32::MAX) + 1]);
    assert_eq!(
        decode_rows::<NodeId, 1>(&bytes),
        Err(WireError::Malformed("row column exceeds u32"))
    );
}
