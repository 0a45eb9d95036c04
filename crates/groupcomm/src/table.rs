//! Node-ordered tables: per-node state kept in a `Vec` sorted by node id,
//! looked up by walking forward from the previous hit.
//!
//! Digests arrive with their rows in node order and views hold their
//! members in node order, so merging one against a node-ordered table is a
//! single forward pass — no hashing and no per-row binary search over
//! cache-cold state. A [`Cursor`] is that pass: it gallops forward from the
//! previous row's position, and falls back to a binary search when a row
//! goes backwards, so rows in any order find the same entries.

use morpheus_appia::platform::NodeId;

/// A position in a node-ordered table (sorted by node id, no duplicates)
/// that a walk over rows in node order only ever moves forward.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cursor(usize);

impl Cursor {
    /// The index of `node`'s entry in `table`, if it has one. The cursor
    /// moves to where the entry is or would be inserted, so the next lookup
    /// of a larger node costs `O(log gap)`; a smaller node re-seeks by
    /// binary search over the whole table.
    pub fn find<T>(
        &mut self,
        table: &[T],
        node: NodeId,
        key: impl Fn(&T) -> NodeId,
    ) -> Option<usize> {
        let found = seek(table, self.0, node, key);
        let (Ok(at) | Err(at)) = found;
        self.0 = at;
        found.ok()
    }
}

/// [`slice::binary_search_by_key`] for a table sorted by `key`, searching
/// from position `from` onwards when `node` cannot lie before it.
fn seek<T>(
    table: &[T],
    from: usize,
    node: NodeId,
    key: impl Fn(&T) -> NodeId,
) -> Result<usize, usize> {
    if from > table.len() || (from > 0 && key(&table[from - 1]) >= node) {
        return table.binary_search_by_key(&node, key);
    }
    let rest = &table[from..];
    // Gallop: double the probe distance until it passes `node`, then
    // binary-search the last doubling's range.
    let mut bound = 1;
    while bound <= rest.len() && key(&rest[bound - 1]) < node {
        bound *= 2;
    }
    let low = bound / 2;
    match rest[low..bound.min(rest.len())].binary_search_by_key(&node, key) {
        Ok(at) => Ok(from + low + at),
        Err(at) => Err(from + low + at),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seek_matches_a_binary_search_from_every_cursor() {
        let table: Vec<NodeId> = [1u32, 3, 4, 8, 9, 15, 16, 40]
            .into_iter()
            .map(NodeId)
            .collect();
        for from in 0..=table.len() + 1 {
            for node in 0..45 {
                assert_eq!(
                    seek(&table, from, NodeId(node), |n| *n),
                    table.binary_search(&NodeId(node)),
                    "node {node} from {from}"
                );
            }
        }
        assert_eq!(seek(&[] as &[NodeId], 0, NodeId(3), |n| *n), Err(0));
    }

    #[test]
    fn a_cursor_finds_rows_in_any_order() {
        let table: Vec<NodeId> = (0..50u32).step_by(3).map(NodeId).collect();
        let mut cursor = Cursor::default();
        for node in [0u32, 3, 4, 30, 9, 9, 48, 51, 2, 45] {
            assert_eq!(
                cursor.find(&table, NodeId(node), |n| *n),
                table.binary_search(&NodeId(node)).ok(),
                "node {node}"
            );
        }
    }
}
