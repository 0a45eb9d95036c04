//! A small, deterministic, length-prefixed binary wire format.
//!
//! Protocol layers push their headers onto a [`crate::message::Message`] as
//! opaque byte chunks. The [`Wire`] trait plus [`WireWriter`]/[`WireReader`]
//! give each layer a simple, explicit way to encode and decode those chunks
//! without pulling in an external serialisation framework.
//!
//! The format is intentionally simple:
//!
//! * fixed-width integers are encoded big-endian;
//! * strings and byte slices are length-prefixed with a `u32`;
//! * lists are length-prefixed with a `u32` element count;
//! * varints are unsigned LEB128: 7 bits per byte, least significant group
//!   first, high bit set on every byte but the last. A `u64` takes 1 to 10
//!   bytes; a longer, overflowing or overlong (zero-padded) varint is a
//!   [`WireError`];
//! * delta rows ([`WireWriter::put_rows`]) carry member-sized tables: a
//!   varint row count, then every column of every [`Row`] as the zigzag
//!   varint of its wrapping difference from the same column of the previous
//!   row (the first row is diffed against zeros). Any table round-trips
//!   exactly; the sorted tables the protocols emit (ascending node ids,
//!   clustered counters and versions) cost about one byte per column. The
//!   decoder checks the count against `remaining() / N` before allocating,
//!   since every column takes at least one byte.

use std::fmt;

use bytes::{BufMut, Bytes, BytesMut};

/// Errors produced while decoding wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The reader ran out of bytes before the value was complete.
    UnexpectedEof,
    /// A string field did not contain valid UTF-8.
    InvalidUtf8,
    /// An enum discriminant or tag byte had an unknown value.
    InvalidTag(u8),
    /// A length prefix exceeded a sanity limit.
    LengthOutOfRange(u64),
    /// A custom decoding failure raised by a `Wire` implementation.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::InvalidUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::InvalidTag(tag) => write!(f, "invalid tag byte {tag}"),
            WireError::LengthOutOfRange(len) => write!(f, "length {len} out of range"),
            WireError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum length accepted for any single length-prefixed field (16 MiB).
///
/// The limit exists purely as a sanity check against corrupted input; no
/// protocol in the suite produces fields anywhere near this large.
pub const MAX_FIELD_LEN: u64 = 16 * 1024 * 1024;

/// Longest valid varint: `ceil(64 / 7)` bytes.
pub const MAX_VARINT_LEN: usize = 10;

/// One row of a delta-coded table: `N` unsigned columns, each widened to
/// `u64` on the wire (see [`WireWriter::put_rows`]).
pub trait Row<const N: usize>: Sized {
    /// The row's columns.
    fn columns(&self) -> [u64; N];

    /// Rebuilds a row from decoded columns. A column outside its field's
    /// range (say, a node id above `u32::MAX`) is a [`WireError`].
    fn from_columns(columns: [u64; N]) -> Result<Self, WireError>;
}

impl Row<1> for u64 {
    fn columns(&self) -> [u64; 1] {
        [*self]
    }

    fn from_columns([value]: [u64; 1]) -> Result<Self, WireError> {
        Ok(value)
    }
}

/// Narrows a decoded column to a `u32` field.
pub fn column_u32(value: u64) -> Result<u32, WireError> {
    u32::try_from(value).map_err(|_| WireError::Malformed("row column exceeds u32"))
}

fn zigzag(delta: u64) -> u64 {
    let signed = delta as i64;
    ((signed << 1) ^ (signed >> 63)) as u64
}

fn unzigzag(encoded: u64) -> u64 {
    (encoded >> 1) ^ (encoded & 1).wrapping_neg()
}

/// Types that can be encoded to and decoded from the wire format.
pub trait Wire: Sized {
    /// Appends the encoded representation of `self` to the writer.
    fn encode(&self, w: &mut WireWriter);

    /// Decodes a value from the reader, consuming exactly the bytes it wrote.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encodes `self` into a fresh byte buffer.
    fn to_bytes(&self) -> Bytes {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Decodes a value from a byte slice, requiring the slice to be fully consumed.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let value = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes"));
        }
        Ok(value)
    }
}

/// An append-only encoder for the wire format.
///
/// A writer can be used one-shot ([`WireWriter::finish`]) or as a reusable
/// scratch buffer: [`WireWriter::split_frame`] freezes everything written so
/// far into a [`Bytes`] without copying and leaves the writer ready for the
/// next frame in the same allocation. Once every split-off frame has been
/// dropped, [`WireWriter::reserve`] recycles the allocation, so a long-lived
/// scratch writer (the kernel owns one for outgoing packets) serialises an
/// unbounded stream of frames with zero steady-state allocations.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self {
            buf: BytesMut::new(),
        }
    }

    /// Creates a writer with the given initial capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(capacity),
        }
    }

    /// Ensures space for `additional` more bytes, recycling the underlying
    /// allocation when every previously split-off frame has been dropped.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Freezes everything written since the last split into an immutable
    /// frame, leaving the writer positioned for the next frame.
    pub fn split_frame(&mut self) -> Bytes {
        self.buf.split().freeze()
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.put_u8(value);
    }

    /// Appends a boolean as a single byte (0 or 1).
    pub fn put_bool(&mut self, value: bool) {
        self.buf.put_u8(u8::from(value));
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, value: u16) {
        self.buf.put_u16(value);
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.put_u32(value);
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.put_u64(value);
    }

    /// Appends a big-endian `i64`.
    pub fn put_i64(&mut self, value: i64) {
        self.buf.put_i64(value);
    }

    /// Appends an IEEE-754 `f64`.
    pub fn put_f64(&mut self, value: f64) {
        self.buf.put_f64(value);
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, value: &[u8]) {
        self.put_u32(value.len() as u32);
        self.buf.put_slice(value);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, value: &str) {
        self.put_bytes(value.as_bytes());
    }

    /// Appends a length-prefixed list of `u32` values.
    pub fn put_u32_list(&mut self, values: &[u32]) {
        self.put_u32(values.len() as u32);
        for v in values {
            self.put_u32(*v);
        }
    }

    /// Appends a length-prefixed list of `u64` values.
    pub fn put_u64_list(&mut self, values: &[u64]) {
        self.put_u32(values.len() as u32);
        for v in values {
            self.put_u64(*v);
        }
    }

    /// Appends an unsigned LEB128 varint (1 to [`MAX_VARINT_LEN`] bytes).
    pub fn put_varint(&mut self, mut value: u64) {
        let mut bytes = [0u8; MAX_VARINT_LEN];
        let mut len = 0;
        for slot in &mut bytes {
            len += 1;
            if value < 0x80 {
                *slot = value as u8;
                break;
            }
            *slot = (value as u8 & 0x7F) | 0x80;
            value >>= 7;
        }
        self.buf.put_slice(bytes.get(..len).unwrap_or_default());
    }

    /// Appends a delta-coded table: a varint row count, then each column of
    /// each row as the zigzag varint of its wrapping difference from the
    /// previous row's column. Rows may come in any order and repeat; sorted,
    /// clustered tables are simply the cheap case.
    pub fn put_rows<R: Row<N>, const N: usize>(&mut self, rows: &[R]) {
        self.put_varint(rows.len() as u64);
        let mut previous = [0u64; N];
        for row in rows {
            for (column, last) in row.columns().into_iter().zip(&mut previous) {
                self.put_varint(zigzag(column.wrapping_sub(*last)));
                *last = column;
            }
        }
    }

    /// Appends a nested `Wire` value.
    pub fn put_wire<T: Wire>(&mut self, value: &T) {
        value.encode(self);
    }

    /// Finalises the writer and returns the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

thread_local! {
    /// Shared scratch writer for small frames (layer headers). Single
    /// kernel thread, so a thread-local is effectively a per-kernel pool.
    static FRAME_SCRATCH: std::cell::RefCell<WireWriter> =
        std::cell::RefCell::new(WireWriter::new());
}

/// Encodes one frame through a shared reusable scratch writer.
///
/// The closure writes the frame; the written bytes are split off and
/// returned. The scratch allocation is recycled once previously returned
/// frames have been dropped, so steady-state header encoding (a push per
/// packet, dropped when the packet is serialised or consumed) does not
/// allocate.
pub fn encode_pooled(encode: impl FnOnce(&mut WireWriter)) -> Bytes {
    FRAME_SCRATCH.with(|cell| {
        let mut writer = cell.borrow_mut();
        writer.reserve(64);
        encode(&mut writer);
        writer.split_frame()
    })
}

/// A cursor-style decoder for the wire format.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over the given bytes.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(len).ok_or(WireError::UnexpectedEof)?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(WireError::UnexpectedEof)?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads exactly `N` bytes into an array (checked, never panics).
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?
            .try_into()
            .map_err(|_| WireError::UnexpectedEof)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        self.take(1)?
            .first()
            .copied()
            .ok_or(WireError::UnexpectedEof)
    }

    /// Reads a boolean encoded as a single byte.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::InvalidTag(other)),
        }
    }

    /// Reads a big-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take_array()?))
    }

    /// Reads a big-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take_array()?))
    }

    /// Reads a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take_array()?))
    }

    /// Reads a big-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_be_bytes(self.take_array()?))
    }

    /// Reads an IEEE-754 `f64`.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_be_bytes(self.take_array()?))
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<Bytes, WireError> {
        let len = u64::from(self.get_u32()?);
        if len > MAX_FIELD_LEN {
            return Err(WireError::LengthOutOfRange(len));
        }
        Ok(Bytes::copy_from_slice(self.take(len as usize)?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }

    /// Reads a length-prefixed list of `u32` values. The advertised count
    /// is checked against the bytes actually present (4 per element) before
    /// any allocation, so a corrupted or adversarial count cannot reserve
    /// more memory than the message itself could hold.
    pub fn get_u32_list(&mut self) -> Result<Vec<u32>, WireError> {
        let len = u64::from(self.get_u32()?);
        if len > MAX_FIELD_LEN {
            return Err(WireError::LengthOutOfRange(len));
        }
        if len > self.remaining() as u64 / 4 {
            return Err(WireError::Malformed("u32 list count exceeds payload"));
        }
        let mut out = Vec::with_capacity(len as usize);
        for _ in 0..len {
            out.push(self.get_u32()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed list of `u64` values; the count is checked
    /// against the remaining bytes (8 per element) before allocating.
    pub fn get_u64_list(&mut self) -> Result<Vec<u64>, WireError> {
        let len = u64::from(self.get_u32()?);
        if len > MAX_FIELD_LEN {
            return Err(WireError::LengthOutOfRange(len));
        }
        if len > self.remaining() as u64 / 8 {
            return Err(WireError::Malformed("u64 list count exceeds payload"));
        }
        let mut out = Vec::with_capacity(len as usize);
        for _ in 0..len {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }

    /// Reads an unsigned LEB128 varint. More than [`MAX_VARINT_LEN`] bytes,
    /// a value above `u64::MAX` or a zero-padded (overlong) encoding is
    /// malformed, so every value has exactly one accepted encoding.
    pub fn get_varint(&mut self) -> Result<u64, WireError> {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        let mut value = 0u64;
        for (index, &byte) in rest.iter().take(MAX_VARINT_LEN).enumerate() {
            let group = u64::from(byte & 0x7F);
            if index == MAX_VARINT_LEN - 1 && group > 1 {
                return Err(WireError::Malformed("varint overflows u64"));
            }
            value |= group << (7 * index);
            if byte & 0x80 == 0 {
                if byte == 0 && index > 0 {
                    return Err(WireError::Malformed("overlong varint"));
                }
                self.pos += index + 1;
                return Ok(value);
            }
        }
        if rest.len() < MAX_VARINT_LEN {
            return Err(WireError::UnexpectedEof);
        }
        Err(WireError::Malformed("varint longer than 10 bytes"))
    }

    /// Reads a delta-coded table written by [`WireWriter::put_rows`]. Every
    /// column takes at least one byte, so a count above `remaining() / N` is
    /// rejected before anything is allocated.
    pub fn get_rows<R: Row<N>, const N: usize>(&mut self) -> Result<Vec<R>, WireError> {
        let count = self.get_varint()?;
        if count > (self.remaining() / N.max(1)) as u64 {
            return Err(WireError::Malformed("row count exceeds payload"));
        }
        let count = usize::try_from(count).map_err(|_| WireError::LengthOutOfRange(count))?;
        let mut rows = Vec::with_capacity(count);
        let mut previous = [0u64; N];
        for _ in 0..count {
            for last in &mut previous {
                *last = last.wrapping_add(unzigzag(self.get_varint()?));
            }
            rows.push(R::from_columns(previous)?);
        }
        Ok(rows)
    }

    /// Reads a nested `Wire` value.
    pub fn get_wire<T: Wire>(&mut self) -> Result<T, WireError> {
        T::decode(self)
    }
}

impl Wire for u32 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(*self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_u32()
    }
}

impl Wire for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(*self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_u64()
    }
}

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_str()
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bool(*self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_bool()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.len() as u32);
        for item in self {
            item.encode(w);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = u64::from(r.get_u32()?);
        if len > MAX_FIELD_LEN {
            return Err(WireError::LengthOutOfRange(len));
        }
        // Every wire element costs at least one byte, so a count larger
        // than the remaining payload is malformed — rejected before the
        // allocation, not after the element loop runs out of bytes.
        if len > r.remaining() as u64 {
            return Err(WireError::Malformed("list count exceeds payload"));
        }
        let mut out = Vec::with_capacity(len as usize);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(1024);
        w.put_u32(123_456);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_f64(3.5);
        let bytes = w.finish();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 1024);
        assert_eq!(r.get_u32().unwrap(), 123_456);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), 3.5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn strings_and_bytes_roundtrip() {
        let mut w = WireWriter::new();
        w.put_str("olá mundo");
        w.put_bytes(&[1, 2, 3, 4]);
        w.put_str("");
        let bytes = w.finish();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_str().unwrap(), "olá mundo");
        assert_eq!(r.get_bytes().unwrap().as_ref(), &[1, 2, 3, 4]);
        assert_eq!(r.get_str().unwrap(), "");
    }

    #[test]
    fn lists_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u32_list(&[1, 2, 3]);
        w.put_u64_list(&[]);
        let bytes = w.finish();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u32_list().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_u64_list().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn eof_is_reported() {
        let mut r = WireReader::new(&[0, 0]);
        assert_eq!(r.get_u32().unwrap_err(), WireError::UnexpectedEof);
    }

    #[test]
    fn invalid_bool_is_rejected() {
        let mut r = WireReader::new(&[9]);
        assert_eq!(r.get_bool().unwrap_err(), WireError::InvalidTag(9));
    }

    #[test]
    fn wire_trait_roundtrip_for_vec_of_strings() {
        let value = vec!["a".to_string(), "bb".to_string(), "ccc".to_string()];
        let bytes = value.to_bytes();
        let decoded = Vec::<String>::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, value);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 7u32.to_bytes().to_vec();
        bytes.push(0xFF);
        assert_eq!(
            u32::from_bytes(&bytes).unwrap_err(),
            WireError::Malformed("trailing bytes")
        );
    }

    #[test]
    fn corrupted_length_prefix_is_rejected() {
        let mut w = WireWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.get_bytes().unwrap_err(),
            WireError::LengthOutOfRange(_)
        ));
    }

    #[test]
    fn adversarial_list_counts_are_rejected_before_allocation() {
        // A count claiming a million u32s backed by four payload bytes must
        // fail on the count check, not inside the element loop (and without
        // reserving a million-slot vector first).
        let mut w = WireWriter::new();
        w.put_u32(1_000_000);
        w.put_u32(7);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.get_u32_list().unwrap_err(),
            WireError::Malformed(_)
        ));

        let mut w = WireWriter::new();
        w.put_u32(1_000_000);
        w.put_u64(7);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.get_u64_list().unwrap_err(),
            WireError::Malformed(_)
        ));

        // Same for the generic Vec<T> path: one string element encoded,
        // count rewritten to claim far more than the payload holds.
        let mut bytes = vec!["x".to_string()].to_bytes().to_vec();
        bytes[..4].copy_from_slice(&1_000_000u32.to_be_bytes());
        assert!(matches!(
            Vec::<String>::from_bytes(&bytes).unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    #[test]
    fn truncated_lists_decode_to_clean_errors() {
        // Every possible truncation of a valid encoding errors out instead
        // of panicking or looping.
        let mut w = WireWriter::new();
        w.put_u32_list(&[10, 20, 30]);
        w.put_u64_list(&[40, 50]);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            let lists = (r.get_u32_list(), r.get_u64_list());
            assert!(
                lists.0.is_err() || lists.1.is_err(),
                "truncation at {cut} of {} decoded both lists",
                bytes.len()
            );
        }
    }

    #[test]
    fn single_bit_flips_never_panic_the_list_decoders() {
        // Deterministic exhaustive single-bit fuzz over a nested encoding:
        // any outcome is fine except a panic or an over-allocation, which
        // the count checks prevent.
        let value = vec![
            vec!["alpha".to_string(), "beta".to_string()],
            vec!["gamma".to_string()],
        ];
        let bytes = value.to_bytes().to_vec();
        for index in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[index] ^= 1 << bit;
                let _ = Vec::<Vec<String>>::from_bytes(&mutated);
            }
        }
    }
}
