//! Segments (Definition 9) in the storage layout of Figure 6.
//!
//! A segment represents a bounded interval of a time series *group* using one
//! model: `S = (ts, te, SI, Gts, M, ε)`. ModelarDB+ stores gaps using the
//! second method of Section 3.2: when a gap starts or ends, the current
//! segment is flushed and the next segment records the *absent* series in a
//! bitmask (`Gaps` in the schema; "the values in Gaps are stored as integers
//! with each bit representing if a gap has occurred for that time series in
//! the group"). Dynamic splitting (Section 4.2) reuses the same mask, which is
//! also why `Gaps` is part of the primary key.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::datapoint::Timestamp;
use crate::meta::Gid;

/// The maximum number of series per group, bounded by the 64-bit gaps mask.
/// The paper's groups are small (correlated sensors on one entity), so this
/// limit is generous; the partitioner enforces it.
pub const MAX_GROUP_SIZE: usize = 64;

/// Bitmask over group member *positions*: bit `i` set means the `i`-th series
/// of the group is **not** represented by this segment (it is in a gap, or
/// the group was dynamically split and the series is handled by a sibling
/// segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct GapsMask(pub u64);

impl GapsMask {
    /// No series missing.
    pub const EMPTY: GapsMask = GapsMask(0);

    /// A mask with the given member positions marked missing.
    pub fn from_positions(positions: &[usize]) -> Self {
        let mut m = 0u64;
        for &p in positions {
            assert!(
                p < MAX_GROUP_SIZE,
                "group position {p} exceeds MAX_GROUP_SIZE"
            );
            m |= 1 << p;
        }
        GapsMask(m)
    }

    /// Marks position `p` missing.
    pub fn set(&mut self, p: usize) {
        assert!(p < MAX_GROUP_SIZE);
        self.0 |= 1 << p;
    }

    /// Is position `p` missing?
    pub fn contains(&self, p: usize) -> bool {
        p < MAX_GROUP_SIZE && self.0 & (1 << p) != 0
    }

    /// True when every series of the group is present.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of missing series.
    pub fn count_missing(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Number of series present out of a group of `group_size`.
    pub fn count_present(&self, group_size: usize) -> usize {
        group_size - (self.0 & mask_lower(group_size)).count_ones() as usize
    }

    /// Iterates over the positions *present* in a group of `group_size`.
    pub fn present_positions(&self, group_size: usize) -> impl Iterator<Item = usize> + '_ {
        let bits = self.0;
        (0..group_size).filter(move |p| bits & (1 << p) == 0)
    }

    /// Iterates over the positions *missing* in a group of `group_size`.
    pub fn missing_positions(&self, group_size: usize) -> impl Iterator<Item = usize> + '_ {
        let bits = self.0;
        (0..group_size).filter(move |p| bits & (1 << p) != 0)
    }

    /// Union of two masks.
    pub fn union(&self, other: GapsMask) -> GapsMask {
        GapsMask(self.0 | other.0)
    }
}

fn mask_lower(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// One row of the Segment table (Figure 6): a dynamically sized sub-sequence
/// of a time series group represented by one model within the error bound.
///
/// `StartTime` is stored on disk as the segment length in data points and
/// recomputed as `StartTime = EndTime − (len − 1) × SI` (Section 3.3); in
/// memory both endpoints are kept because filtering uses them constantly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentRecord {
    /// The group whose series this segment represents.
    pub gid: Gid,
    /// Timestamp of the first represented data point (inclusive).
    pub start_time: Timestamp,
    /// Timestamp of the last represented data point (inclusive). Segments are
    /// stored *disconnected*: adjacent segments do not share endpoints
    /// (Section 3.2).
    pub end_time: Timestamp,
    /// Sampling interval in milliseconds.
    pub sampling_interval: i64,
    /// Which model type `params` belongs to (index into the model table).
    pub mid: u8,
    /// The model's parameters, opaque to storage (models are black boxes).
    pub params: Bytes,
    /// Group member positions *not* represented by this segment.
    pub gaps: GapsMask,
}

impl SegmentRecord {
    /// The number of timestamps this segment spans per represented series.
    pub fn len(&self) -> usize {
        debug_assert!(self.end_time >= self.start_time);
        ((self.end_time - self.start_time) / self.sampling_interval) as usize + 1
    }

    /// True only for degenerate zero-length segments (never stored).
    pub fn is_empty(&self) -> bool {
        self.end_time < self.start_time
    }

    /// The timestamps the segment covers, in order.
    pub fn timestamps(&self) -> impl Iterator<Item = Timestamp> + '_ {
        let (start, si, n) = (self.start_time, self.sampling_interval, self.len());
        (0..n as i64).map(move |i| start + i * si)
    }

    /// Total data points represented = timestamps × present series.
    pub fn data_points(&self, group_size: usize) -> usize {
        self.len() * self.gaps.count_present(group_size)
    }

    /// The on-disk footprint in bytes (see [`SegmentView::storage_bytes`]).
    ///
    /// [`SegmentView::storage_bytes`]: crate::SegmentView::storage_bytes
    pub fn storage_bytes(&self) -> usize {
        self.view().storage_bytes()
    }

    /// Whether the segment's interval intersects `[from, to]` (inclusive).
    pub fn overlaps(&self, from: Timestamp, to: Timestamp) -> bool {
        self.start_time <= to && self.end_time >= from
    }

    /// Whether `tid` at group `position` is represented by this segment.
    pub fn represents(&self, position: usize) -> bool {
        !self.gaps.contains(position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(start: Timestamp, end: Timestamp, si: i64, gaps: GapsMask) -> SegmentRecord {
        SegmentRecord {
            gid: 1,
            start_time: start,
            end_time: end,
            sampling_interval: si,
            mid: 0,
            params: Bytes::from_static(&[0, 1, 2, 3]),
            gaps,
        }
    }

    #[test]
    fn len_counts_inclusive_endpoints() {
        // Section 2's example segment: (100, 400, SI=100) covers 4 points.
        let s = segment(100, 400, 100, GapsMask::EMPTY);
        assert_eq!(s.len(), 4);
        assert_eq!(s.timestamps().collect::<Vec<_>>(), vec![100, 200, 300, 400]);
        let single = segment(100, 100, 100, GapsMask::EMPTY);
        assert_eq!(single.len(), 1);
    }

    #[test]
    fn gaps_mask_positions() {
        let mut g = GapsMask::EMPTY;
        assert!(g.is_empty());
        g.set(1);
        assert!(g.contains(1));
        assert!(!g.contains(0));
        assert_eq!(g.count_missing(), 1);
        assert_eq!(g.count_present(3), 2);
        assert_eq!(g.present_positions(3).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(g.missing_positions(3).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn gaps_mask_from_positions_and_union() {
        let a = GapsMask::from_positions(&[0, 2]);
        let b = GapsMask::from_positions(&[1]);
        let u = a.union(b);
        assert_eq!(u.count_missing(), 3);
        assert_eq!(u.count_present(4), 1);
    }

    #[test]
    fn figure5_segment_with_gap_represents_subset() {
        // Figure 5: S2 represents TS1 and TS3 while TS2 (position 1) is in a
        // gap.
        let s = segment(1_000, 2_000, 100, GapsMask::from_positions(&[1]));
        assert!(s.represents(0));
        assert!(!s.represents(1));
        assert!(s.represents(2));
        assert_eq!(s.data_points(3), 11 * 2);
    }

    #[test]
    fn overlap_is_inclusive() {
        let s = segment(100, 400, 100, GapsMask::EMPTY);
        assert!(s.overlaps(400, 500));
        assert!(s.overlaps(0, 100));
        assert!(!s.overlaps(401, 500));
        assert!(!s.overlaps(0, 99));
        assert!(s.overlaps(200, 300));
    }

    #[test]
    fn storage_bytes_counts_header_and_params() {
        let s = segment(100, 400, 100, GapsMask::EMPTY);
        assert_eq!(s.storage_bytes(), 25 + 4);
    }

    #[test]
    fn count_present_ignores_bits_beyond_group() {
        let mut g = GapsMask::EMPTY;
        g.set(63);
        assert_eq!(g.count_present(3), 3);
    }
}
