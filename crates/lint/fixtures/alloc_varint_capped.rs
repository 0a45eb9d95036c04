//! Fixture: a varint-decoded row count checked against the bytes remaining
//! (every column takes at least one byte) before the pre-allocation — the
//! guard `WireReader::get_rows` uses. Expect no findings.

fn decode_table(reader: &mut WireReader<'_>) -> Result<Vec<u64>, WireError> {
    let count = reader.get_varint()?;
    if count > reader.remaining() as u64 {
        return Err(WireError::Malformed("row count exceeds payload"));
    }
    let count = usize::try_from(count).map_err(|_| WireError::Malformed("count"))?;
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        rows.push(reader.get_varint()?);
    }
    Ok(rows)
}
