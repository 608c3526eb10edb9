//! The persistent sidecar index (`segments.idx`).
//!
//! The append-only block log (`segments.log`) is the durable truth; the
//! sidecar is a checksummed, versioned summary of it — per-block
//! [`BlockMeta`] statistics plus the store's full zone map — rewritten at
//! every flush (not per appended block, keeping sustained ingestion
//! O(blocks)). Opening a store with a fresh sidecar loads
//! block summaries in one small read instead of scanning and decoding the
//! whole log; a missing, corrupt, version-mismatched, or stale sidecar is
//! simply ignored and the store falls back to a streaming block-by-block
//! rebuild (which then rewrites the sidecar).
//!
//! Staleness is decided by the recorded log length: a sidecar describing
//! *more* log than exists (the log lost a tail) cannot be trusted at all,
//! while a sidecar describing *less* (blocks were appended after the last
//! sidecar write, e.g. a crash between block append and sidecar rename)
//! stays valid for its prefix and the store scans only the remainder.
//!
//! This module only encodes and parses bytes; the store's backend keeps
//! them and replaces them atomically, so a crash mid-write leaves the
//! previous sidecar (or none), never a torn one.

use std::collections::BTreeMap;
use std::sync::Arc;

use mdb_types::{BlockFormat, BlockMeta, BlockSketch, BlockSketches, ValueInterval};

use crate::codec::checksum;
use crate::rollup::{self, RollupAcc, RollupCells};
use crate::zone::{GidZone, ZoneMap, ZoneRun, ZoneValues};

const SIDECAR_MAGIC: u32 = 0x4D44_4249; // "MDBI"
                                        // Version 2 added the per-block payload-format tag (v1 varint vs v2
                                        // columnar blocks). A version-1 sidecar no longer parses; the store falls
                                        // back to the streaming rescan — which recognizes both block formats — and
                                        // rewrites a current sidecar, so old stores upgrade on first open.
const SIDECAR_VERSION: u32 = 2;
/// Magic, version, body checksum, body length.
const FILE_HEADER_BYTES: usize = 16;

/// Everything `DiskStore::open` needs that is not the segment bodies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sidecar {
    /// Length of the valid log prefix this sidecar describes.
    pub log_len: u64,
    /// Whether the statistics were computed with a stored-value range
    /// provider. A store opened *with* bounds must not adopt a sidecar
    /// written *without* them — its boundless value statistics are sound
    /// but would permanently disable value pruning that a rescan would
    /// restore. (The other direction is fine: bounded statistics only
    /// over-approximate.)
    pub value_bounded: bool,
    /// Whether the statistics were computed with a sketch feed. Same
    /// adoption rule as `value_bounded`: a store opened *with* a feed must
    /// not adopt a sketch-less sidecar (including any written before the
    /// sketch section existed) — a rescan regenerates the sketches.
    pub sketched: bool,
    /// One summary per block, in log order.
    pub blocks: Vec<BlockMeta>,
    /// The zone map over every segment in those blocks.
    pub zones: ZoneMap,
    /// The materialized rollup cells covering those blocks, when the store
    /// maintains them. `None` means rollups were not maintained when the
    /// sidecar was written (including every pre-rollup file) — a store
    /// opened *with* a rollup feed must not adopt such a sidecar; the rescan
    /// rebuilds the cells. A present-but-poisoned map (its levels recorded,
    /// its cells dropped) is adopted as unsound.
    pub rollups: Option<RollupCells>,
}

/// A [`Sidecar`] borrowed from the state it describes — what [`encode()`]
/// serializes, so a store flushes without cloning its block summaries, zone
/// map and rollup cells first.
#[derive(Debug, Clone, Copy)]
pub struct SidecarRef<'a> {
    /// See [`Sidecar::log_len`].
    pub log_len: u64,
    /// See [`Sidecar::value_bounded`].
    pub value_bounded: bool,
    /// See [`Sidecar::sketched`].
    pub sketched: bool,
    /// See [`Sidecar::blocks`].
    pub blocks: &'a [BlockMeta],
    /// See [`Sidecar::zones`].
    pub zones: &'a ZoneMap,
    /// See [`Sidecar::rollups`].
    pub rollups: Option<&'a RollupCells>,
}

impl Sidecar {
    /// The borrowed form [`encode()`] takes.
    pub fn borrowed(&self) -> SidecarRef<'_> {
        SidecarRef {
            log_len: self.log_len,
            value_bounded: self.value_bounded,
            sketched: self.sketched,
            blocks: &self.blocks,
            zones: &self.zones,
            rollups: self.rollups.as_ref(),
        }
    }
}

/// Serializes a sidecar into the bytes [`parse`] reads back.
pub fn encode(sidecar: SidecarRef<'_>) -> Vec<u8> {
    // The body is built behind room for the 16-byte file header, which is
    // filled in once the body's length and checksum are known.
    let mut body = vec![0u8; FILE_HEADER_BYTES];
    put_u64(&mut body, sidecar.log_len);
    body.push(u8::from(sidecar.value_bounded));
    put_u32(&mut body, sidecar.blocks.len() as u32);
    for block in sidecar.blocks {
        put_u64(&mut body, block.offset);
        put_u64(&mut body, block.stored_bytes);
        put_u32(&mut body, block.payload_len);
        put_u32(&mut body, block.checksum);
        put_u32(&mut body, block.count);
        put_u64(&mut body, block.logical_bytes);
        put_u32(&mut body, block.min_gid);
        put_u32(&mut body, block.max_gid);
        put_i64(&mut body, block.min_start);
        put_i64(&mut body, block.min_end);
        put_i64(&mut body, block.max_end);
        put_opt_interval(&mut body, &block.values);
        body.push(match block.format {
            BlockFormat::V1 => 1,
            BlockFormat::V2 => 2,
        });
    }
    let n_gids = sidecar.zones.gids().count() as u32;
    put_u32(&mut body, n_gids);
    for (gid, zone) in sidecar.zones.iter() {
        put_u32(&mut body, gid);
        put_i64(&mut body, zone.min_start);
        put_i64(&mut body, zone.max_end);
        put_values(&mut body, &zone.values);
        put_u64(&mut body, zone.segments);
        put_u32(&mut body, zone.runs.len() as u32);
        for run in &zone.runs {
            put_i64(&mut body, run.min_start);
            put_i64(&mut body, run.min_end);
            put_i64(&mut body, run.max_end);
            put_values(&mut body, &run.values);
            put_u32(&mut body, run.segments);
        }
    }
    // Sketch section (this trails the original layout so a pre-sketch
    // parser's notion of the body simply ended here; a pre-sketch *file*
    // conversely parses as `sketched: false` with no per-block sketches).
    // Per block: a presence flag, then gid-tagged length-prefixed sketch
    // bytes in gid order. The sketch bytes carry their own format version
    // (`mdb_sketch::SKETCH_FORMAT_VERSION`), and the body checksum covers
    // the whole section, so truncation or corruption rejects the sidecar
    // and the store falls back to the streaming rescan.
    body.push(u8::from(sidecar.sketched));
    for block in sidecar.blocks {
        match &block.sketches {
            None => body.push(0),
            Some(sketches) => {
                body.push(1);
                put_u32(&mut body, sketches.len() as u32);
                for (gid, sketch) in sketches.iter() {
                    put_u32(&mut body, *gid);
                    let bytes = sketch.to_bytes();
                    put_u32(&mut body, bytes.len() as u32);
                    body.extend_from_slice(&bytes);
                }
            }
        }
    }
    // Rollup section (trails the sketch section; absent in older files,
    // which parse as "rollups not maintained"). Flag: 0 = not maintained,
    // 1 = sound cells follow (levels, then the cell map flat in key order,
    // f64 fields as raw bits so reload is bit-exact), 2 = maintained but
    // poisoned (levels only; adopters must treat the map as unsound). The
    // body checksum covers the section, so truncation mid-cells rejects the
    // whole sidecar and the store falls back to the streaming rescan.
    match sidecar.rollups {
        None => body.push(0),
        Some(cells) => {
            body.push(if cells.is_sound() { 1 } else { 2 });
            body.push(cells.levels().len() as u8);
            for level in cells.levels() {
                body.push(rollup::level_tag(*level));
            }
            if cells.is_sound() {
                put_u64(&mut body, cells.len() as u64);
                for (&(gid, tag, tid, bucket), acc) in cells.iter() {
                    put_u32(&mut body, gid);
                    body.push(tag);
                    put_u32(&mut body, tid);
                    put_i64(&mut body, bucket);
                    put_u64(&mut body, acc.count);
                    put_u64(&mut body, acc.sum.to_bits());
                    put_u64(&mut body, acc.min.to_bits());
                    put_u64(&mut body, acc.max.to_bits());
                }
            }
        }
    }
    let mut file_bytes = body;
    let body = &file_bytes[FILE_HEADER_BYTES..];
    let mut header = Vec::with_capacity(FILE_HEADER_BYTES);
    put_u32(&mut header, SIDECAR_MAGIC);
    put_u32(&mut header, SIDECAR_VERSION);
    put_u32(&mut header, checksum(body));
    put_u32(&mut header, body.len() as u32);
    file_bytes[..FILE_HEADER_BYTES].copy_from_slice(&header);
    file_bytes
}

/// Validates and decodes sidecar bytes. `None` means "no usable sidecar"
/// (truncated, corrupt, or from another version) — never an error, because
/// the log can always be rescanned. Arbitrary bytes never panic.
pub fn parse(bytes: &[u8]) -> Option<Sidecar> {
    let mut cur = Cursor { bytes, pos: 0 };
    if cur.u32()? != SIDECAR_MAGIC || cur.u32()? != SIDECAR_VERSION {
        return None;
    }
    let body_checksum = cur.u32()?;
    let body_len = cur.u32()? as usize;
    let body = cur.take(body_len)?;
    if !cur.at_end() || checksum(body) != body_checksum {
        return None;
    }
    let mut cur = Cursor {
        bytes: body,
        pos: 0,
    };
    let log_len = cur.u64()?;
    let value_bounded = match cur.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let n_blocks = cur.u32()? as usize;
    let mut blocks = Vec::with_capacity(cur.bounded(n_blocks, 70));
    for _ in 0..n_blocks {
        blocks.push(BlockMeta {
            offset: cur.u64()?,
            stored_bytes: cur.u64()?,
            payload_len: cur.u32()?,
            checksum: cur.u32()?,
            count: cur.u32()?,
            logical_bytes: cur.u64()?,
            min_gid: cur.u32()?,
            max_gid: cur.u32()?,
            min_start: cur.i64()?,
            min_end: cur.i64()?,
            max_end: cur.i64()?,
            values: cur.opt_interval()?,
            format: match cur.u8()? {
                1 => BlockFormat::V1,
                2 => BlockFormat::V2,
                _ => return None,
            },
            // Filled in by the trailing sketch section, when present.
            sketches: None,
        });
    }
    let mut zones = ZoneMap::new();
    let n_gids = cur.u32()? as usize;
    for _ in 0..n_gids {
        let gid = cur.u32()?;
        let min_start = cur.i64()?;
        let max_end = cur.i64()?;
        let values = cur.values()?;
        let segments = cur.u64()?;
        let n_runs = cur.u32()? as usize;
        let mut runs = Vec::with_capacity(cur.bounded(n_runs, 29));
        for _ in 0..n_runs {
            runs.push(ZoneRun {
                min_start: cur.i64()?,
                min_end: cur.i64()?,
                max_end: cur.i64()?,
                values: cur.values()?,
                segments: cur.u32()?,
            });
        }
        zones.set_zone(
            gid,
            GidZone {
                min_start,
                max_end,
                values,
                segments,
                runs,
            },
        );
    }
    // Optional sketch section: absent in pre-sketch sidecars (the body
    // ended at the zones), present — even if only as flags — in everything
    // written since.
    let mut sketched = false;
    if !cur.at_end() {
        sketched = match cur.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        for block in &mut blocks {
            match cur.u8()? {
                0 => {}
                1 => {
                    let n = cur.u32()? as usize;
                    let mut sketches: BlockSketches = Vec::with_capacity(cur.bounded(n, 9));
                    let mut prev: Option<u32> = None;
                    for _ in 0..n {
                        let gid = cur.u32()?;
                        if prev.is_some_and(|p| p >= gid) {
                            return None; // not in canonical gid order
                        }
                        prev = Some(gid);
                        let len = cur.u32()? as usize;
                        sketches.push((gid, BlockSketch::from_bytes(cur.take(len)?)?));
                    }
                    block.sketches = Some(Arc::new(sketches));
                }
                _ => return None,
            }
        }
    }
    // Optional rollup section: absent in pre-rollup sidecars (the body
    // ended at the sketches).
    let mut rollups = None;
    if !cur.at_end() {
        match cur.u8()? {
            0 => {}
            flag @ (1 | 2) => {
                let n_levels = cur.u8()? as usize;
                let mut levels = Vec::with_capacity(n_levels.min(8));
                for _ in 0..n_levels {
                    levels.push(rollup::level_from_tag(cur.u8()?)?);
                }
                let mut cells = BTreeMap::new();
                if flag == 1 {
                    let n = cur.u64()? as usize;
                    for _ in 0..n {
                        let gid = cur.u32()?;
                        let tag = cur.u8()?;
                        rollup::level_from_tag(tag)?;
                        let tid = cur.u32()?;
                        let bucket = cur.i64()?;
                        let acc = RollupAcc {
                            count: cur.u64()?,
                            sum: f64::from_bits(cur.u64()?),
                            min: f64::from_bits(cur.u64()?),
                            max: f64::from_bits(cur.u64()?),
                        };
                        if cells.insert((gid, tag, tid, bucket), acc).is_some() {
                            return None; // duplicate cell key
                        }
                    }
                }
                rollups = Some(RollupCells::from_parts(levels, flag == 1, cells));
            }
            _ => return None,
        }
    }
    cur.at_end().then_some(Sidecar {
        log_len,
        value_bounded,
        sketched,
        blocks,
        zones,
        rollups,
    })
}

// -------------------------------------------------- little-endian helpers --

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_interval(out: &mut Vec<u8>, v: &Option<ValueInterval>) {
    match v {
        None => out.push(0),
        Some(i) => {
            out.push(1);
            put_u64(out, i.lo.to_bits());
            put_u64(out, i.hi.to_bits());
        }
    }
}

fn put_values(out: &mut Vec<u8>, v: &ZoneValues) {
    match v {
        ZoneValues::Empty => out.push(0),
        ZoneValues::Bounded(i) => {
            out.push(1);
            put_u64(out, i.lo.to_bits());
            put_u64(out, i.hi.to_bits());
        }
        ZoneValues::Unbounded => out.push(2),
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// `n` records read from the input, capped by how many records of at
    /// least `min_bytes` the rest of it can hold: a corrupt count cannot
    /// preallocate more than the input justifies.
    fn bounded(&self, n: usize, min_bytes: usize) -> usize {
        n.min((self.bytes.len() - self.pos) / min_bytes)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn i64(&mut self) -> Option<i64> {
        Some(i64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn opt_interval(&mut self) -> Option<Option<ValueInterval>> {
        match self.u8()? {
            0 => Some(None),
            1 => {
                let lo = f64::from_bits(self.u64()?);
                let hi = f64::from_bits(self.u64()?);
                Some(Some(ValueInterval { lo, hi }))
            }
            _ => None,
        }
    }

    fn values(&mut self) -> Option<ZoneValues> {
        match self.u8()? {
            0 => Some(ZoneValues::Empty),
            1 => {
                let lo = f64::from_bits(self.u64()?);
                let hi = f64::from_bits(self.u64()?);
                Some(ZoneValues::Bounded(ValueInterval { lo, hi }))
            }
            2 => Some(ZoneValues::Unbounded),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, FileBackend, MemoryBackend};
    use crate::{DiskStore, DiskStoreOptions, RollupDelta, RollupFeed, SegmentStore};
    use crate::{SketchFeedFn, ValueBoundsFn};
    use bytes::Bytes;
    use mdb_types::{GapsMask, SegmentRecord, TimeLevel};
    use std::sync::OnceLock;

    fn sample() -> Sidecar {
        let mut zones = ZoneMap::new();
        for i in 0..100i64 {
            zones.insert(
                &SegmentRecord {
                    gid: 1 + (i % 3) as u32,
                    start_time: i * 1000,
                    end_time: i * 1000 + 900,
                    sampling_interval: 100,
                    mid: 1,
                    params: Bytes::new(),
                    gaps: GapsMask::EMPTY,
                },
                (i % 7 != 0).then(|| ValueInterval::new(-1.0 - i as f64, i as f64)),
            );
        }
        let mut sketch_a = BlockSketch::new();
        let mut sketch_b = BlockSketch::new();
        for i in 0..40u32 {
            sketch_a.quantiles.insert(f64::from(i) * 0.25 - 3.0);
            sketch_a.distinct.insert(u64::from(i % 7));
            sketch_a.topk.add(i % 7, 10);
            sketch_b.quantiles.insert(-f64::from(i));
        }
        Sidecar {
            log_len: 12_345,
            value_bounded: true,
            sketched: true,
            blocks: vec![
                BlockMeta {
                    offset: 0,
                    stored_bytes: 6000,
                    payload_len: 5956,
                    format: BlockFormat::V1,
                    checksum: 0xDEAD_BEEF,
                    count: 50,
                    logical_bytes: 4_096,
                    min_gid: 1,
                    max_gid: 3,
                    min_start: 0,
                    min_end: 900,
                    max_end: 49_900,
                    values: Some(ValueInterval::new(f64::NEG_INFINITY, 3.5)),
                    sketches: Some(Arc::new(vec![(1, sketch_a), (3, sketch_b)])),
                },
                BlockMeta {
                    offset: 6000,
                    stored_bytes: 6345,
                    payload_len: 6301,
                    format: BlockFormat::V2,
                    checksum: 7,
                    count: 50,
                    logical_bytes: 5_120,
                    min_gid: 1,
                    max_gid: 3,
                    min_start: 50_000,
                    min_end: 50_900,
                    max_end: 99_900,
                    values: None,
                    sketches: None,
                },
            ],
            zones,
            rollups: Some(sample_rollups(true)),
        }
    }

    fn sample_rollups(sound: bool) -> RollupCells {
        use mdb_types::TimeLevel;
        let mut cells = BTreeMap::new();
        if sound {
            for i in 0..20u32 {
                cells.insert(
                    (
                        1 + i % 3,
                        rollup::level_tag(TimeLevel::Hour),
                        10 + i,
                        i64::from(i) * 3_600_000,
                    ),
                    RollupAcc {
                        count: u64::from(i) + 1,
                        sum: f64::from(i) * 0.125 - 1.0,
                        min: -f64::from(i),
                        max: f64::from(i),
                    },
                );
            }
            cells.insert(
                (2, rollup::level_tag(TimeLevel::Day), 11, -86_400_000),
                RollupAcc {
                    count: 3,
                    sum: -0.0,
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                },
            );
        }
        RollupCells::from_parts(vec![TimeLevel::Hour, TimeLevel::Day], sound, cells)
    }

    /// The sidecar a store maintaining value bounds, sketches and rollup
    /// cells writes at its flush.
    fn store_sidecar() -> &'static [u8] {
        static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
        BYTES.get_or_init(|| {
            let bounds: ValueBoundsFn =
                Arc::new(|s| Some(ValueInterval::new(s.start_time as f64, s.end_time as f64)));
            let sketch: SketchFeedFn = Arc::new(|s, sketch| {
                sketch.quantiles.insert(s.end_time as f64 * 0.5);
                sketch.distinct.insert(u64::from(s.gid));
                sketch.topk.add(s.gid, 1);
                true
            });
            let rollups = RollupFeed {
                levels: vec![TimeLevel::Hour, TimeLevel::Day],
                feed: Arc::new(|s: &SegmentRecord| {
                    Some(vec![RollupDelta {
                        tid: s.gid * 10,
                        level: TimeLevel::Hour,
                        bucket: s.start_time.div_euclid(3_600_000) * 3_600_000,
                        acc: RollupAcc {
                            count: 1,
                            sum: s.end_time as f64,
                            min: -1.0,
                            max: 1.0,
                        },
                    }])
                }),
                fused: None,
            };
            let backend = MemoryBackend::default();
            let mut store = DiskStore::open_on(
                Arc::new(backend.clone()),
                DiskStoreOptions {
                    bulk_write_size: 7,
                    value_bounds: Some(bounds.into()),
                    sketch_feed: Some(sketch.into()),
                    rollup_feed: Some(rollups),
                    ..DiskStoreOptions::default()
                },
            )
            .unwrap();
            for i in 0..40i64 {
                store
                    .insert(SegmentRecord {
                        gid: 1 + (i % 3) as u32,
                        start_time: i * 1_000_000,
                        end_time: i * 1_000_000 + 900,
                        sampling_interval: 100,
                        mid: 1,
                        params: Bytes::from(vec![i as u8; 6]),
                        gaps: GapsMask::EMPTY,
                    })
                    .unwrap();
            }
            store.flush().unwrap();
            backend
                .read_sidecar()
                .unwrap()
                .expect("flush writes a sidecar")
        })
    }

    /// `bytes` with its file header rewritten to describe `body`: the
    /// damage then gets past the checksum gate into the field decoders.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(FILE_HEADER_BYTES + body.len());
        put_u32(&mut bytes, SIDECAR_MAGIC);
        put_u32(&mut bytes, SIDECAR_VERSION);
        put_u32(&mut bytes, checksum(body));
        put_u32(&mut bytes, body.len() as u32);
        bytes.extend_from_slice(body);
        bytes
    }

    #[test]
    fn round_trips_bit_exactly() {
        let sidecar = sample();
        assert_eq!(parse(&encode(sidecar.borrowed())), Some(sidecar));
        let from_store = parse(store_sidecar()).expect("a store's sidecar parses");
        assert!(from_store.sketched && from_store.value_bounded);
        assert!(from_store.rollups.is_some_and(|cells| !cells.is_empty()));
    }

    #[test]
    fn missing_file_is_none() {
        let dir = mdb_testutil::TempDir::new("sidecar-missing");
        let backend = FileBackend::open(dir.path()).unwrap();
        assert_eq!(backend.read_sidecar().unwrap(), None);
        assert_eq!(parse(&[]), None);
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        let good = encode(sample().borrowed());
        // Flip one byte at a spread of offsets: every mutation must be
        // rejected (magic, version, checksum, or trailing-bytes check).
        for pos in (0..good.len()).step_by(13) {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            assert_eq!(parse(&bad), None, "byte {pos} undetected");
        }
        // Truncations are rejected too.
        for cut in [0, 3, 16, good.len() - 1] {
            assert_eq!(parse(&good[..cut]), None, "truncation at {cut}");
        }
    }

    #[test]
    fn empty_store_sidecar_round_trips() {
        let sidecar = Sidecar::default();
        assert_eq!(parse(&encode(sidecar.borrowed())), Some(sidecar));
    }

    /// A sidecar written before the sketch section existed — its body ends
    /// at the zone map — must still load, as `sketched: false` with no
    /// per-block sketches (the store then rescans if it wants sketches).
    #[test]
    fn pre_sketch_sidecar_still_loads() {
        let mut sidecar = sample();
        sidecar.sketched = false;
        for block in &mut sidecar.blocks {
            block.sketches = None;
        }
        sidecar.rollups = None;
        let bytes = encode(sidecar.borrowed());
        // With no sketches and no rollups the trailing sections are exactly
        // the `sketched` flag, one presence byte per block, and the rollup
        // flag; chopping them (and resealing the header's body length and
        // checksum) reproduces the pre-sketch layout.
        let section = 1 + sidecar.blocks.len() + 1;
        let legacy = sealed(&bytes[FILE_HEADER_BYTES..bytes.len() - section]);
        assert_eq!(parse(&legacy).expect("legacy sidecar loads"), sidecar);

        // A *truncated* sketch section, by contrast, is rejected outright
        // (the checksum no longer matches), forcing the rescan fallback.
        let full = encode(sample().borrowed());
        for cut in 1..section + 20 {
            assert_eq!(
                parse(&full[..full.len() - cut]),
                None,
                "cut {cut} undetected"
            );
        }
    }

    /// The rollup section round-trips both states: sound with cells
    /// (f64 fields bit-exact, including `-0.0` and infinities) and poisoned
    /// with levels only.
    #[test]
    fn rollup_section_round_trips_sound_and_poisoned() {
        let sidecar = sample();
        let back = parse(&encode(sidecar.borrowed())).expect("valid sidecar");
        let cells = back.rollups.as_ref().expect("rollups present");
        assert!(cells.is_sound());
        assert_eq!(cells.len(), 21);
        let mut mine = cells.iter();
        for (key, acc) in sidecar.rollups.as_ref().unwrap().iter() {
            let (bkey, bacc) = mine.next().unwrap();
            assert_eq!(bkey, key);
            assert_eq!(bacc.count, acc.count);
            assert_eq!(bacc.sum.to_bits(), acc.sum.to_bits());
            assert_eq!(bacc.min.to_bits(), acc.min.to_bits());
            assert_eq!(bacc.max.to_bits(), acc.max.to_bits());
        }

        let mut poisoned = sample();
        poisoned.rollups = Some(sample_rollups(false));
        let back = parse(&encode(poisoned.borrowed())).expect("valid sidecar");
        let cells = back.rollups.as_ref().expect("rollups present");
        assert!(!cells.is_sound());
        assert!(cells.is_empty());
        assert_eq!(cells.levels(), &[TimeLevel::Hour, TimeLevel::Day]);
    }

    proptest::proptest! {
        // Damage to a real body, resealed so the field decoders see it:
        // `parse` returns `None` or a value, and never panics.
        #[test]
        fn parse_never_panics_on_resealed_damage(
            from_store in proptest::bool::weighted(0.5),
            damage in 0usize..3,
            edits in proptest::collection::vec((proptest::num::usize::ANY, proptest::num::u8::ANY), 1..8),
        ) {
            let bytes = if from_store {
                store_sidecar().to_vec()
            } else {
                encode(sample().borrowed())
            };
            let mut body = bytes[FILE_HEADER_BYTES..].to_vec();
            let (at, byte) = edits[0];
            match damage {
                // Byte flips anywhere in the body.
                0 => {
                    for &(at, byte) in &edits {
                        let len = body.len();
                        body[at % len] ^= byte.max(1);
                    }
                }
                // Truncation at any length.
                1 => body.truncate(at % (body.len() + 1)),
                // Extension by a few bytes.
                _ => body.extend(edits.iter().map(|&(_, b)| b).chain([byte])),
            }
            let _ = parse(&sealed(&body));
        }

        // Arbitrary bytes, raw and behind a valid file header.
        #[test]
        fn parse_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..512),
        ) {
            let _ = parse(&bytes);
            let _ = parse(&sealed(&bytes));
        }
    }
}
