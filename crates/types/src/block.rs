//! Block metadata: the statistics the out-of-core segment store keeps per
//! on-disk block so a scan can decide whether a block can possibly match a
//! predicate *before* the block is fetched from disk and decoded.
//!
//! These are the store's only pruning statistics (Section 3.3's push-down
//! of a gid and a time interval, plus stored-value ranges): every statistic
//! is an over-approximation — unions only ever widen — so a skipped block
//! provably contains no matching segment, while a fetched block may still
//! contain non-matching segments that the per-segment predicate filters
//! out.

use crate::datapoint::Timestamp;
use crate::interval::ValueInterval;
use crate::meta::Gid;

/// On-disk encoding of one block's payload. The log is heterogeneous: a
/// store reopened over v1 blocks keeps them as-is and appends new blocks in
/// the configured write format, dispatching per block on the header magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockFormat {
    /// Row-major varint segments, re-laid out as v2 when a block is read.
    V1,
    /// Self-describing columnar layout ([`crate::view::BlockView`]),
    /// validated once per fetch and scanned through borrowed views.
    #[default]
    V2,
}

/// Per-block statistics over the segments stored in one log block.
///
/// `offset` and `stored_bytes` locate the block inside the append-only log;
/// the remaining fields summarize its payload. Together with the rollup
/// cells and the store's per-group running sketches, the summaries are what
/// the persistent sidecar index (`segments.idx`) serializes, so a store can
/// open without scanning or decoding the log itself. Sketches are kept per
/// group, not per block: no query needs a finer grain, and a running
/// per-group sketch does not grow with the log.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMeta {
    /// Byte offset of the block header in the log file.
    pub offset: u64,
    /// Total bytes the block occupies on disk (header + payload);
    /// `offset + stored_bytes` is the next block's offset.
    pub stored_bytes: u64,
    /// Payload length in bytes (excluding the header).
    pub payload_len: u32,
    /// How the payload is encoded (dictates the fetch-time decode path).
    pub format: BlockFormat,
    /// FNV-1a checksum of the payload, verified on every fetch.
    pub checksum: u32,
    /// Number of segment records in the payload.
    pub count: u32,
    /// Logical size of the payload's segments in bytes (the sum of their
    /// `SegmentRecord::storage_bytes`), so reopening from the sidecar can
    /// restore byte accounting without decoding the log.
    pub logical_bytes: u64,
    /// Smallest group id among the block's segments.
    pub min_gid: Gid,
    /// Largest group id among the block's segments.
    pub max_gid: Gid,
    /// Smallest start time among the block's segments.
    pub min_start: Timestamp,
    /// Smallest end time among the block's segments.
    pub min_end: Timestamp,
    /// Largest end time among the block's segments.
    pub max_end: Timestamp,
    /// Union of the segments' stored-value ranges, or `None` when at least
    /// one segment's range is unknown (value pruning then cannot skip the
    /// block, which is sound: statistics fail open).
    pub values: Option<ValueInterval>,
}

impl BlockMeta {
    /// True when no segment of the block can end at or after `from` —
    /// i.e. the block cannot overlap a `[from, ..]` time restriction.
    pub fn ends_before(&self, from: Timestamp) -> bool {
        self.max_end < from
    }

    /// True when no segment of the block can start at or before `to`.
    pub fn starts_after(&self, to: Timestamp) -> bool {
        self.min_start > to
    }

    /// True when the block's gid range `[min_gid, max_gid]` contains none of
    /// `gids` (which must be sorted ascending).
    pub fn excludes_gids(&self, sorted_gids: &[Gid]) -> bool {
        let i = sorted_gids.partition_point(|g| *g < self.min_gid);
        sorted_gids.get(i).is_none_or(|g| *g > self.max_gid)
    }

    /// True when the block's value statistic *proves* no stored value
    /// intersects `wanted`; an unknown statistic never excludes.
    pub fn excludes_values(&self, wanted: &ValueInterval) -> bool {
        match &self.values {
            Some(range) => !range.intersects(wanted),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> BlockMeta {
        BlockMeta {
            offset: 0,
            stored_bytes: 100,
            payload_len: 56,
            format: BlockFormat::V2,
            checksum: 0,
            count: 3,
            logical_bytes: 75,
            min_gid: 4,
            max_gid: 7,
            min_start: 1_000,
            min_end: 1_900,
            max_end: 5_900,
            values: Some(ValueInterval::new(-2.0, 9.0)),
        }
    }

    #[test]
    fn time_exclusion_uses_the_outer_envelope() {
        let m = meta();
        assert!(m.ends_before(6_000));
        assert!(!m.ends_before(5_900));
        assert!(m.starts_after(999));
        assert!(!m.starts_after(1_000));
    }

    #[test]
    fn gid_exclusion_over_sorted_lists() {
        let m = meta();
        assert!(m.excludes_gids(&[1, 2, 3]));
        assert!(m.excludes_gids(&[8, 9]));
        assert!(m.excludes_gids(&[3, 8]));
        assert!(!m.excludes_gids(&[3, 5, 8]));
        assert!(!m.excludes_gids(&[4]));
        assert!(!m.excludes_gids(&[7]));
        assert!(m.excludes_gids(&[]));
    }

    #[test]
    fn value_exclusion_fails_open_when_unknown() {
        let mut m = meta();
        assert!(m.excludes_values(&ValueInterval::new(10.0, 20.0)));
        assert!(!m.excludes_values(&ValueInterval::new(9.0, 20.0)));
        m.values = None;
        assert!(!m.excludes_values(&ValueInterval::new(10.0, 20.0)));
    }
}
