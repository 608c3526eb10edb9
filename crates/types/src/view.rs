//! Zero-copy block views: the v2 on-disk block layout and the borrowed
//! segment accessors over it.
//!
//! The v1 block payload interleaves varint-encoded segments, so reading any
//! segment means decoding all of them into owned [`SegmentRecord`]s — one
//! heap allocation per segment per cold fetch. The v2 layout is columnar
//! and self-describing: a fixed section table followed by aligned
//! little-endian columns (end times, sampling intervals, gap masks, gids,
//! sizes-in-points, parameter offsets, model ids) and a packed parameter
//! heap. A [`BlockView`] validates the whole table **once** when the block
//! is fetched; afterwards every segment is a [`SegmentView`] — a handful of
//! `from_le_bytes` reads plus a borrowed parameter slice, no allocation.
//!
//! `StartTime` stays derived, exactly as in the v1 codec (Section 3.3 of
//! the paper): the column stores the segment length in data points and the
//! view recomputes `StartTime = EndTime − (Size − 1) × SI`.

use crate::datapoint::Timestamp;
use crate::meta::Gid;
use crate::segment::{GapsMask, SegmentRecord};

/// Version tag leading every v2 block payload.
pub const BLOCK_LAYOUT_V2: u32 = 2;

/// Byte length of the v2 section table: version, count, eight section
/// offsets, and the total payload length — eleven `u32` fields.
pub const V2_TABLE_BYTES: usize = 44;

/// First section offset: the table padded to 8-byte alignment so the
/// widest (`i64`/`u64`) columns start aligned.
const V2_SECTIONS_START: usize = 48;

/// One segment borrowed out of a block buffer (or out of an owned
/// [`SegmentRecord`] via [`SegmentRecord::view`]): the same fields as the
/// record, with the parameters as a borrowed slice instead of owned bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentView<'a> {
    /// The group whose series this segment represents.
    pub gid: Gid,
    /// Timestamp of the first represented data point (inclusive).
    pub start_time: Timestamp,
    /// Timestamp of the last represented data point (inclusive).
    pub end_time: Timestamp,
    /// Sampling interval in milliseconds.
    pub sampling_interval: i64,
    /// Which model type `params` belongs to.
    pub mid: u8,
    /// The model's parameters, borrowed from the block buffer.
    pub params: &'a [u8],
    /// Group member positions *not* represented by this segment.
    pub gaps: GapsMask,
}

impl<'a> SegmentView<'a> {
    /// The number of timestamps this segment spans per represented series.
    pub fn len(&self) -> usize {
        debug_assert!(self.end_time >= self.start_time);
        ((self.end_time - self.start_time) / self.sampling_interval) as usize + 1
    }

    /// True only for degenerate zero-length segments (never stored).
    pub fn is_empty(&self) -> bool {
        self.end_time < self.start_time
    }

    /// Whether the segment's interval intersects `[from, to]` (inclusive).
    pub fn overlaps(&self, from: Timestamp, to: Timestamp) -> bool {
        self.start_time <= to && self.end_time >= from
    }

    /// Whether `tid` at group `position` is represented by this segment.
    pub fn represents(&self, position: usize) -> bool {
        !self.gaps.contains(position)
    }

    /// The on-disk footprint in bytes under the Cassandra-style layout of
    /// Section 3.3: gid (4) + end time (8) + gaps (8) + size-in-points (4) +
    /// mid (1) + the model parameters. Used for compression-ratio accounting
    /// and model selection.
    pub fn storage_bytes(&self) -> usize {
        4 + 8 + 8 + 4 + 1 + self.params.len()
    }

    /// Materializes an owned record (listing/export paths only — the
    /// aggregate scan path never calls this).
    pub fn to_record(&self) -> SegmentRecord {
        SegmentRecord {
            gid: self.gid,
            start_time: self.start_time,
            end_time: self.end_time,
            sampling_interval: self.sampling_interval,
            mid: self.mid,
            params: bytes::Bytes::copy_from_slice(self.params),
            gaps: self.gaps,
        }
    }
}

impl SegmentRecord {
    /// Borrows this owned record as a [`SegmentView`].
    pub fn view(&self) -> SegmentView<'_> {
        SegmentView {
            gid: self.gid,
            start_time: self.start_time,
            end_time: self.end_time,
            sampling_interval: self.sampling_interval,
            mid: self.mid,
            params: &self.params,
            gaps: self.gaps,
        }
    }
}

/// Encodes segments into a v2 block payload (section table + columns +
/// parameter heap). The inverse of [`BlockView::parse`]; segment order is
/// preserved exactly.
pub fn encode_block_v2(segments: &[SegmentRecord]) -> Vec<u8> {
    let n = segments.len();
    let heap_len: usize = segments.iter().map(|s| s.params.len()).sum();
    let off_end_times = V2_SECTIONS_START;
    let off_sis = off_end_times + 8 * n;
    let off_gaps = off_sis + 8 * n;
    let off_gids = off_gaps + 8 * n;
    let off_sizes = off_gids + 4 * n;
    let off_param_offsets = off_sizes + 4 * n;
    let off_mids = off_param_offsets + 4 * (n + 1);
    let off_heap = off_mids + n;
    let total = off_heap + heap_len;

    let mut out = Vec::with_capacity(total);
    for v in [
        BLOCK_LAYOUT_V2,
        n as u32,
        off_end_times as u32,
        off_sis as u32,
        off_gaps as u32,
        off_gids as u32,
        off_sizes as u32,
        off_param_offsets as u32,
        off_mids as u32,
        off_heap as u32,
        total as u32,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.resize(V2_SECTIONS_START, 0); // table padding
    for s in segments {
        out.extend_from_slice(&s.end_time.to_le_bytes());
    }
    for s in segments {
        out.extend_from_slice(&s.sampling_interval.to_le_bytes());
    }
    for s in segments {
        out.extend_from_slice(&s.gaps.0.to_le_bytes());
    }
    for s in segments {
        out.extend_from_slice(&s.gid.to_le_bytes());
    }
    for s in segments {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    }
    let mut param_offset = 0u32;
    for s in segments {
        out.extend_from_slice(&param_offset.to_le_bytes());
        param_offset += s.params.len() as u32;
    }
    out.extend_from_slice(&param_offset.to_le_bytes());
    for s in segments {
        out.push(s.mid);
    }
    for s in segments {
        out.extend_from_slice(&s.params);
    }
    debug_assert_eq!(out.len(), total);
    out
}

/// A validated v2 block: owns the payload buffer and hands out borrowed
/// [`SegmentView`]s. Constructed once per fetch by [`BlockView::parse`];
/// every structural property accessors rely on is checked there, so the
/// accessors themselves are straight-line reads.
#[derive(Debug)]
pub struct BlockView {
    data: Vec<u8>,
    count: usize,
    off_end_times: usize,
    off_sis: usize,
    off_gaps: usize,
    off_gids: usize,
    off_sizes: usize,
    off_param_offsets: usize,
    off_mids: usize,
    off_heap: usize,
}

impl BlockView {
    /// Validates a v2 payload and wraps it. `None` means the buffer is not
    /// a well-formed v2 block for `expected_count` segments — a corrupt or
    /// truncated block the caller must reject (never panic).
    ///
    /// Checks: the version tag; the segment count against the block
    /// header's; every section offset exactly at its canonical, aligned
    /// position (the table is self-describing so future layouts may pad
    /// differently, but *this* version's readers reject anything shifted,
    /// overlapping, or out of bounds); the recorded total length against
    /// the buffer; monotone parameter offsets ending exactly at the heap's
    /// end; and per segment a positive sampling interval, a positive size,
    /// and a non-overflowing start-time derivation.
    pub fn parse(data: Vec<u8>, expected_count: u32) -> Option<BlockView> {
        if data.len() < V2_TABLE_BYTES {
            return None;
        }
        let table = |i: usize| -> usize {
            u32::from_le_bytes(data[4 * i..4 * i + 4].try_into().unwrap()) as usize
        };
        if table(0) != BLOCK_LAYOUT_V2 as usize {
            return None;
        }
        let n = table(1);
        if n != expected_count as usize {
            return None;
        }
        let (off_end_times, off_sis, off_gaps, off_gids) = (table(2), table(3), table(4), table(5));
        let (off_sizes, off_param_offsets, off_mids, off_heap) =
            (table(6), table(7), table(8), table(9));
        let total = table(10);
        // Canonical section positions: in order, contiguous, aligned.
        if off_end_times != V2_SECTIONS_START
            || off_sis != off_end_times.checked_add(8 * n)?
            || off_gaps != off_sis + 8 * n
            || off_gids != off_gaps + 8 * n
            || off_sizes != off_gids + 4 * n
            || off_param_offsets != off_sizes + 4 * n
            || off_mids != off_param_offsets + 4 * (n + 1)
            || off_heap != off_mids + n
            || total != data.len()
            || off_heap > total
        {
            return None;
        }
        let view = BlockView {
            data,
            count: n,
            off_end_times,
            off_sis,
            off_gaps,
            off_gids,
            off_sizes,
            off_param_offsets,
            off_mids,
            off_heap,
        };
        // Parameter offsets: monotone, last one exactly the heap length.
        let heap_len = view.data.len() - view.off_heap;
        let mut prev = 0usize;
        for i in 0..=n {
            let o = view.param_offset(i);
            if o < prev || o > heap_len {
                return None;
            }
            prev = o;
        }
        if prev != heap_len {
            return None;
        }
        // Per-segment columns: the derived start time must be computable.
        for i in 0..n {
            let si = view.i64_at(view.off_sis + 8 * i);
            let size = view.u32_at(view.off_sizes + 4 * i);
            if si < 1 || size < 1 {
                return None;
            }
            let span = i64::from(size - 1).checked_mul(si)?;
            view.i64_at(view.off_end_times + 8 * i).checked_sub(span)?;
        }
        Some(view)
    }

    /// Number of segments in the block.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the block holds no segments (never written, but valid).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `i`-th segment, borrowed from the buffer. Panics if `i` is out
    /// of range (callers iterate `0..len()`).
    pub fn segment(&self, i: usize) -> SegmentView<'_> {
        assert!(i < self.count);
        let end_time = self.i64_at(self.off_end_times + 8 * i);
        let sampling_interval = self.i64_at(self.off_sis + 8 * i);
        let size = self.u32_at(self.off_sizes + 4 * i);
        let (lo, hi) = (self.param_offset(i), self.param_offset(i + 1));
        SegmentView {
            gid: self.u32_at(self.off_gids + 4 * i),
            start_time: end_time - i64::from(size - 1) * sampling_interval,
            end_time,
            sampling_interval,
            mid: self.data[self.off_mids + i],
            params: &self.data[self.off_heap + lo..self.off_heap + hi],
            gaps: GapsMask(self.u64_at(self.off_gaps + 8 * i)),
        }
    }

    /// Iterates the block's segments in stored (log) order.
    pub fn segments(&self) -> impl Iterator<Item = SegmentView<'_>> + '_ {
        (0..self.count).map(|i| self.segment(i))
    }

    /// Materializes every segment as an owned record (recovery and listing
    /// paths; the scan path stays on [`BlockView::segment`]).
    pub fn to_records(&self) -> Vec<SegmentRecord> {
        self.segments().map(|s| s.to_record()).collect()
    }

    /// The payload buffer's size in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.data.len()
    }

    fn param_offset(&self, i: usize) -> usize {
        self.u32_at(self.off_param_offsets + 4 * i) as usize
    }

    fn u32_at(&self, at: usize) -> u32 {
        u32::from_le_bytes(self.data[at..at + 4].try_into().unwrap())
    }

    fn u64_at(&self, at: usize) -> u64 {
        u64::from_le_bytes(self.data[at..at + 8].try_into().unwrap())
    }

    fn i64_at(&self, at: usize) -> i64 {
        i64::from_le_bytes(self.data[at..at + 8].try_into().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn seg(i: usize) -> SegmentRecord {
        SegmentRecord {
            gid: (i % 5) as u32 + 1,
            start_time: i as i64 * 1_000,
            end_time: i as i64 * 1_000 + 900,
            sampling_interval: if i.is_multiple_of(2) { 100 } else { 300 },
            mid: (i % 3) as u8,
            params: Bytes::from(vec![i as u8; i % 9]),
            gaps: GapsMask((i % 7) as u64),
        }
    }

    fn segs(n: usize) -> Vec<SegmentRecord> {
        // Only spans representable by `len()` round-trip: end - start must
        // be a multiple of si, which seg() guarantees for si=100/300.
        (0..n)
            .map(|i| {
                let mut s = seg(i);
                s.end_time = s.start_time + s.sampling_interval * (i % 4) as i64;
                s
            })
            .collect()
    }

    #[test]
    fn encode_parse_round_trips_every_field() {
        for n in [0usize, 1, 7, 64] {
            let original = segs(n);
            let payload = encode_block_v2(&original);
            let view = BlockView::parse(payload, n as u32).expect("valid");
            assert_eq!(view.len(), n);
            let back = view.to_records();
            assert_eq!(back, original, "n = {n}");
            for (v, r) in view.segments().zip(&original) {
                assert_eq!(v, r.view());
                assert_eq!(v.len(), r.len());
            }
        }
    }

    #[test]
    fn views_borrow_not_copy() {
        let original = segs(3);
        let payload = encode_block_v2(&original);
        let view = BlockView::parse(payload, 3).unwrap();
        let s = view.segment(2);
        // The params slice points into the view's buffer.
        let buf_range = view.data.as_ptr_range();
        assert!(s.params.is_empty() || buf_range.contains(&s.params.as_ptr()));
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let payload = encode_block_v2(&segs(4));
        assert!(BlockView::parse(payload.clone(), 4).is_some());
        assert!(BlockView::parse(payload.clone(), 3).is_none());
        assert!(BlockView::parse(payload, 5).is_none());
    }

    #[test]
    fn truncated_param_heap_is_rejected() {
        let mut payload = encode_block_v2(&segs(6));
        payload.truncate(payload.len() - 1);
        assert!(BlockView::parse(payload, 6).is_none());
    }

    #[test]
    fn misaligned_or_shifted_section_offsets_are_rejected() {
        let good = encode_block_v2(&segs(6));
        // Shift each recorded section offset by a few deltas; every
        // mutation must be rejected (and must not panic).
        for field in 2..=10 {
            for delta in [1i32, -1, 4, 8, -8, 1 << 20] {
                let mut bad = good.clone();
                let at = 4 * field;
                let v = u32::from_le_bytes(bad[at..at + 4].try_into().unwrap());
                let shifted = (v as i64 + i64::from(delta)) as u32;
                bad[at..at + 4].copy_from_slice(&shifted.to_le_bytes());
                assert!(
                    BlockView::parse(bad, 6).is_none(),
                    "field {field} delta {delta} undetected"
                );
            }
        }
    }

    #[test]
    fn corrupt_columns_are_rejected() {
        let segments = segs(6);
        let good = encode_block_v2(&segments);
        let view = BlockView::parse(good.clone(), 6).unwrap();
        let (off_sis, off_sizes, off_param_offsets) =
            (view.off_sis, view.off_sizes, view.off_param_offsets);
        // Zero sampling interval.
        let mut bad = good.clone();
        bad[off_sis..off_sis + 8].copy_from_slice(&0i64.to_le_bytes());
        assert!(BlockView::parse(bad, 6).is_none());
        // Zero size-in-points.
        let mut bad = good.clone();
        bad[off_sizes..off_sizes + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(BlockView::parse(bad, 6).is_none());
        // Non-monotone parameter offsets.
        let mut bad = good.clone();
        bad[off_param_offsets + 4..off_param_offsets + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(BlockView::parse(bad, 6).is_none());
        // Overflowing start-time derivation.
        let mut bad = good.clone();
        bad[off_sis..off_sis + 8].copy_from_slice(&i64::MAX.to_le_bytes());
        bad[off_sizes..off_sizes + 4].copy_from_slice(&3u32.to_le_bytes());
        assert!(BlockView::parse(bad, 6).is_none());
    }

    #[test]
    fn record_view_round_trip() {
        let r = seg(4);
        assert_eq!(r.view().to_record(), r);
        assert_eq!(r.view().storage_bytes(), r.storage_bytes());
    }

    /// Parses `data` and, when it is accepted, reads every accessor the
    /// scan and recovery paths use.
    fn parse_and_read(data: Vec<u8>, count: u32) {
        if let Some(view) = BlockView::parse(data, count) {
            assert_eq!(view.len(), count as usize);
            for i in 0..view.len() {
                let segment = view.segment(i);
                let span = (segment.len() as i64 - 1) * segment.sampling_interval;
                assert_eq!(segment.start_time + span, segment.end_time);
                assert!(segment.storage_bytes() >= segment.params.len());
            }
            assert_eq!(view.to_records().len(), view.len());
        }
    }

    proptest::proptest! {
        #[test]
        fn parse_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..256),
            count in proptest::num::u32::ANY,
            small_count in 0u32..8,
            v2_header in proptest::bool::weighted(0.5),
        ) {
            parse_and_read(bytes.clone(), count);
            // A v2 tag and a plausible count get past the first checks.
            let mut tagged = bytes;
            if v2_header && tagged.len() >= 8 {
                tagged[..4].copy_from_slice(&BLOCK_LAYOUT_V2.to_le_bytes());
                tagged[4..8].copy_from_slice(&small_count.to_le_bytes());
            }
            parse_and_read(tagged, small_count);
        }

        #[test]
        fn parse_never_panics_on_damaged_blocks(
            shapes in proptest::collection::vec(
                ((1u32..6, -1_000_000i64..1_000_000), 1i64..1_000, 1u32..60, 0u8..3, 0usize..24, proptest::num::u64::ANY),
                0..10,
            ),
            damage in 0usize..3,
            edits in proptest::collection::vec((proptest::num::usize::ANY, proptest::num::u8::ANY), 1..8),
            count_delta in 0u32..3,
        ) {
            let segments: Vec<SegmentRecord> = shapes
                .iter()
                .map(|&((gid, end_time), si, size, mid, params, gaps)| SegmentRecord {
                    gid,
                    start_time: end_time - i64::from(size - 1) * si,
                    end_time,
                    sampling_interval: si,
                    mid,
                    params: Bytes::from(vec![mid; params]),
                    gaps: GapsMask(gaps),
                })
                .collect();
            let mut payload = encode_block_v2(&segments);
            let count = segments.len() as u32;
            let (at, byte) = edits[0];
            match damage {
                // Byte flips anywhere in the payload.
                0 => {
                    for &(at, byte) in &edits {
                        let len = payload.len();
                        payload[at % len] ^= byte.max(1);
                    }
                }
                // Truncation at any length.
                1 => payload.truncate(at % (payload.len() + 1)),
                // Extension by a few bytes.
                _ => payload.extend(edits.iter().map(|&(_, b)| b).chain([byte])),
            }
            // The count from the block header, or one off in either direction.
            let count = match count_delta {
                0 => count,
                1 => count + 1,
                _ => count.saturating_sub(1),
            };
            parse_and_read(payload, count);
        }
    }
}
