//! Fixture: a varint-decoded row count feeds the pre-allocation with no
//! check against the bytes actually present; a 10-byte varint can claim
//! 2^64 rows. Expect exactly `alloc:cap`.

fn decode_table(reader: &mut WireReader<'_>) -> Result<Vec<u64>, WireError> {
    let count = usize::try_from(reader.get_varint()?).map_err(|_| WireError::Malformed("count"))?;
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        rows.push(reader.get_varint()?);
    }
    Ok(rows)
}
