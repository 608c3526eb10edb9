//! The persistent sidecar index (`segments.idx`).
//!
//! The append-only block log (`segments.log`) is the durable truth; the
//! sidecar is a checksummed, versioned summary of it — per-block
//! [`BlockMeta`] statistics, the store's per-group running sketches and its
//! rollup cells (compressed per-series columns, so the cells cost less than
//! the data they summarize) — rewritten at every flush (not per appended
//! block, keeping sustained ingestion O(blocks)). Opening a store with a
//! fresh sidecar loads block summaries in one small read instead of
//! scanning and decoding the whole log; a missing, corrupt,
//! version-mismatched, or stale sidecar is simply ignored and the store
//! falls back to a streaming block-by-block rebuild (which then rewrites
//! the sidecar).
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

use mdb_encoding::{delta, rle, varint, xor};
use mdb_types::{BlockFormat, BlockMeta, BlockSketch, ValueInterval};

use crate::codec::checksum;
use crate::digest::GroupSketches;
use crate::rollup::{self, RollupAcc, RollupCells, SeriesColumn};

const SIDECAR_MAGIC: u32 = 0x4D44_4249; // "MDBI"
/// Every section is required; a file of another version (version 3 also
/// held a per-group zone map) does not parse, and the store falls back to
/// the streaming rescan — which reads every block format — and rewrites a
/// current sidecar, so old stores upgrade on first open.
const SIDECAR_VERSION: u32 = 4;
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
    /// not adopt a sketch-less sidecar — a rescan regenerates the sketches.
    pub sketched: bool,
    /// One summary per block, in log order.
    pub blocks: Vec<BlockMeta>,
    /// The per-group running sketches over every segment in those blocks
    /// (empty unless `sketched`).
    pub sketches: GroupSketches,
    /// The materialized rollup cells covering those blocks, when the store
    /// maintains them. `None` means rollups were not maintained when the
    /// sidecar was written — a store opened *with* a rollup feed must not
    /// adopt such a sidecar; the rescan rebuilds the cells. A
    /// present-but-poisoned map (its levels recorded, its cells dropped) is
    /// adopted as unsound.
    pub rollups: Option<RollupCells>,
}

/// A [`Sidecar`] borrowed from the state it describes — what [`encode()`]
/// serializes, so a store flushes without cloning its block summaries and
/// rollup cells first.
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
    /// See [`Sidecar::sketches`].
    pub sketches: &'a GroupSketches,
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
            sketches: &self.sketches,
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
    // Sketch section: the `sketched` flag, then each group's running
    // sketch in gid order — a presence byte (0 = poisoned) and, when
    // present, length-prefixed sketch bytes, which carry their own format
    // version (`mdb_sketch::SKETCH_FORMAT_VERSION`).
    body.push(u8::from(sidecar.sketched));
    put_u32(&mut body, sidecar.sketches.iter().count() as u32);
    for (gid, sketch) in sidecar.sketches.iter() {
        put_u32(&mut body, gid);
        match sketch {
            None => body.push(0),
            Some(sketch) => {
                body.push(1);
                put_column(&mut body, &sketch.to_bytes());
            }
        }
    }
    // Rollup section. Flag: 0 = not maintained, 1 = sound cells follow,
    // 2 = maintained but poisoned (levels only; adopters must treat the
    // map as unsound). A sound map is a list of series in key order, each
    // a `(gid, level tag, tid)` header (gid and tid as varints) and five
    // varint-length-prefixed columns: bucket starts delta-of-delta coded,
    // counts run-length coded, and sum, min and max as 64-bit XOR streams
    // over the `f64` bit patterns, so reload is bit-exact (NaN payloads,
    // -0.0 and infinities survive).
    match sidecar.rollups {
        None => body.push(0),
        Some(cells) => {
            body.push(if cells.is_sound() { 1 } else { 2 });
            body.push(cells.levels().len() as u8);
            for level in cells.levels() {
                body.push(rollup::level_tag(*level));
            }
            if cells.is_sound() {
                put_u32(&mut body, cells.series().count() as u32);
                for (&(gid, tag, tid), column) in cells.series() {
                    varint::write_u64(&mut body, u64::from(gid));
                    body.push(tag);
                    varint::write_u64(&mut body, u64::from(tid));
                    put_series(&mut body, column);
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
    let value_bounded = cur.flag()?;
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
        });
    }
    let sketched = cur.flag()?;
    let mut sketches = GroupSketches::default();
    let n_sketches = cur.u32()?;
    for _ in 0..n_sketches {
        let gid = cur.u32()?;
        let sketch = match cur.u8()? {
            0 => None,
            1 => Some(BlockSketch::from_bytes(cur.column()?)?),
            _ => return None,
        };
        if sketches.0.last_key_value().is_some_and(|(&p, _)| p >= gid) {
            return None; // not in canonical gid order
        }
        sketches.0.insert(gid, sketch);
    }
    let rollups = match cur.u8()? {
        0 => None,
        flag @ (1 | 2) => {
            let n_levels = cur.u8()?;
            let mut levels = Vec::with_capacity(cur.bounded(usize::from(n_levels), 1));
            for _ in 0..n_levels {
                levels.push(rollup::level_from_tag(cur.u8()?)?);
            }
            let mut series = BTreeMap::new();
            if flag == 1 {
                let n_series = cur.u32()?;
                for _ in 0..n_series {
                    let key = (cur.varint_u32()?, cur.u8()?, cur.varint_u32()?);
                    rollup::level_from_tag(key.1)?;
                    if series.last_key_value().is_some_and(|(&p, _)| p >= key) {
                        return None; // not in canonical key order
                    }
                    series.insert(key, cur.series(key)?);
                }
            }
            Some(RollupCells::from_parts(levels, flag == 1, series))
        }
        _ => return None,
    };
    cur.at_end().then_some(Sidecar {
        log_len,
        value_bounded,
        sketched,
        blocks,
        sketches,
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

/// Varint-length-prefixed bytes.
fn put_column(out: &mut Vec<u8>, bytes: &[u8]) {
    varint::write_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// One series' cells as five columns (see the rollup section of
/// [`encode()`]).
fn put_series(out: &mut Vec<u8>, column: &SeriesColumn) {
    let buckets: Vec<i64> = column.iter().map(|(key, _)| key.3).collect();
    put_column(out, &delta::encode(&buckets));
    let counts: Vec<i64> = column.iter().map(|(_, acc)| acc.count as i64).collect();
    put_column(out, &rle::encode(&counts));
    let fields: [fn(&RollupAcc) -> f64; 3] = [|a| a.sum, |a| a.min, |a| a.max];
    for field in fields {
        let mut values = xor::Xor64Encoder::new();
        for (_, acc) in column {
            values.push(field(acc));
        }
        put_column(out, &values.finish());
    }
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

    fn flag(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn varint(&mut self) -> Option<u64> {
        let mut rest = &self.bytes[self.pos..];
        let value = varint::read_u64(&mut rest)?;
        self.pos = self.bytes.len() - rest.len();
        Some(value)
    }

    fn varint_u32(&mut self) -> Option<u32> {
        self.varint()?.try_into().ok()
    }

    /// Varint-length-prefixed bytes ([`put_column`]).
    fn column(&mut self) -> Option<&'a [u8]> {
        let len = usize::try_from(self.varint()?).ok()?;
        self.take(len)
    }

    /// The five columns of series `key` ([`put_series`]). The bucket
    /// column fixes the cell count — it spends at least a byte per cell, so
    /// it bounds every allocation below — and must be non-empty and
    /// strictly ascending; every other column must hold exactly as many
    /// values.
    fn series(&mut self, (gid, tag, tid): (u32, u8, u32)) -> Option<SeriesColumn> {
        let mut bytes = self.column()?;
        let buckets = delta::decode(&mut bytes)?;
        let n = buckets.len();
        if !bytes.is_empty() || n == 0 || buckets.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        let mut bytes = self.column()?;
        let counts = rle::decode_at_most(&mut bytes, n)?;
        if !bytes.is_empty() || counts.len() != n {
            return None;
        }
        let sums = xor::decode_all_f64(self.column()?, n)?;
        let mins = xor::decode_all_f64(self.column()?, n)?;
        let maxs = xor::decode_all_f64(self.column()?, n)?;
        let accs = counts.into_iter().zip(sums).zip(mins).zip(maxs);
        Some(
            buckets
                .into_iter()
                .zip(accs)
                .map(|(bucket, (((count, sum), min), max))| {
                    let acc = RollupAcc {
                        count: count as u64,
                        sum,
                        min,
                        max,
                    };
                    ((gid, tag, tid, bucket), acc)
                })
                .collect(),
        )
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, FileBackend, MemoryBackend};
    use crate::digest::testing::TestDigester;
    use crate::{DiskStore, DiskStoreOptions, RollupDelta, SegmentStore};
    use bytes::Bytes;
    use mdb_types::{GapsMask, SegmentRecord, TimeLevel};
    use std::sync::{Arc, OnceLock};

    fn sample() -> Sidecar {
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
                },
            ],
            // Sound groups around a poisoned one.
            sketches: GroupSketches(BTreeMap::from([
                (1, Some(sketch_a)),
                (2, None),
                (3, Some(sketch_b)),
            ])),
            rollups: Some(sample_rollups(true)),
        }
    }

    /// Bucket starts of the `rollup.rs` ranged-walk property: both ends of
    /// the timestamp domain and a few ordinary values.
    const BUCKETS: [i64; 9] = [
        i64::MIN,
        i64::MIN + 1,
        -3_600_000,
        0,
        1,
        3_600_000,
        7_200_000,
        i64::MAX - 1,
        i64::MAX,
    ];

    /// Multi-cell series with holes (every other hour missing), a series
    /// over the extreme buckets, `Gid::MAX`/`Tid::MAX` keys, and the `f64`
    /// and count values a raw copy would keep bit-exact: NaN payloads,
    /// -0.0, infinities, `u64::MAX`.
    fn sample_rollups(sound: bool) -> RollupCells {
        let delta = |tid, level, bucket, count, sum: f64, min: f64, max: f64| RollupDelta {
            tid,
            level,
            bucket,
            acc: RollupAcc {
                count,
                sum,
                min,
                max,
            },
        };
        let mut cells = RollupCells::new(vec![TimeLevel::Hour, TimeLevel::Day]);
        for i in 0..20u32 {
            let x = f64::from(i);
            cells.apply(
                1 + i % 3,
                &[delta(
                    10 + i % 4,
                    TimeLevel::Hour,
                    i64::from(i) * 7_200_000,
                    u64::from(i) + 1,
                    x * 0.125 - 1.0,
                    -x,
                    x,
                )],
            );
        }
        for (i, &bucket) in BUCKETS.iter().enumerate() {
            let x = i as f64;
            cells.apply(
                u32::MAX,
                &[delta(
                    u32::MAX,
                    TimeLevel::Day,
                    bucket,
                    60,
                    x * 1e300,
                    -x,
                    x,
                )],
            );
        }
        cells.apply(
            2,
            &[delta(
                11,
                TimeLevel::Day,
                -86_400_000,
                u64::MAX,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
            )],
        );
        cells.apply(
            2,
            &[delta(
                11,
                TimeLevel::Day,
                0,
                3,
                f64::from_bits(0x7FF8_0000_0000_0001),
                f64::NAN,
                f64::from_bits(0xFFF0_0000_0000_0001),
            )],
        );
        if !sound {
            return RollupCells::from_parts(cells.levels().to_vec(), false, BTreeMap::new());
        }
        cells
    }

    /// The sidecar a store maintaining value bounds, sketches and rollup
    /// cells writes at its flush.
    fn store_sidecar() -> &'static [u8] {
        static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
        BYTES.get_or_init(|| {
            let digester = TestDigester::default()
                .range(|s| Some(ValueInterval::new(s.start_time as f64, s.end_time as f64)))
                .sketch(|s, sketch| {
                    sketch.quantiles.insert(s.end_time as f64 * 0.5);
                    sketch.distinct.insert(u64::from(s.gid));
                    sketch.topk.add(s.gid, 1);
                    true
                })
                .rollup(vec![TimeLevel::Hour, TimeLevel::Day], |s| {
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
                });
            let backend = MemoryBackend::default();
            let mut store = DiskStore::open_on(
                Arc::new(backend.clone()),
                DiskStoreOptions {
                    bulk_write_size: 7,
                    ..digester.options()
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
        // The sample's NaN cells defeat `PartialEq`, so the rollups compare
        // as re-encoded bytes and everything else as values.
        let sidecar = sample();
        let bytes = encode(sidecar.borrowed());
        let back = parse(&bytes).expect("valid sidecar");
        assert_eq!(encode(back.borrowed()), bytes);
        assert_eq!(
            Sidecar {
                rollups: None,
                ..back
            },
            Sidecar {
                rollups: None,
                ..sidecar
            }
        );
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

    /// The rollup section round-trips both states: sound with cells
    /// (f64 fields bit-exact, including NaN payloads, `-0.0` and
    /// infinities) and poisoned with levels only.
    #[test]
    fn rollup_section_round_trips_sound_and_poisoned() {
        let sidecar = sample();
        let back = parse(&encode(sidecar.borrowed())).expect("valid sidecar");
        let cells = back.rollups.as_ref().expect("rollups present");
        assert!(cells.is_sound());
        assert_eq!(cells.len(), 31);
        let mut mine = cells.iter();
        for (key, acc) in sidecar.rollups.as_ref().unwrap().iter() {
            let (bkey, bacc) = mine.next().unwrap();
            assert_eq!(bkey, key);
            assert_eq!(bacc.count, acc.count);
            assert_eq!(bacc.sum.to_bits(), acc.sum.to_bits());
            assert_eq!(bacc.min.to_bits(), acc.min.to_bits());
            assert_eq!(bacc.max.to_bits(), acc.max.to_bits());
        }
        assert!(mine.next().is_none());

        let mut poisoned = sample();
        poisoned.rollups = Some(sample_rollups(false));
        let back = parse(&encode(poisoned.borrowed())).expect("valid sidecar");
        let cells = back.rollups.as_ref().expect("rollups present");
        assert!(!cells.is_sound());
        assert!(cells.is_empty());
        assert_eq!(cells.levels(), &[TimeLevel::Hour, TimeLevel::Day]);
    }

    /// Running sketches round-trip per group, a poisoned group included.
    #[test]
    fn running_sketches_round_trip_sound_and_poisoned() {
        let back = parse(&encode(sample().borrowed())).expect("valid sidecar");
        let groups: Vec<(u32, bool)> = back
            .sketches
            .iter()
            .map(|(gid, sketch)| (gid, sketch.is_some()))
            .collect();
        assert_eq!(groups, [(1, true), (2, false), (3, true)]);
    }

    /// A compressed hour cell costs a fraction of the 49 raw bytes a cell
    /// took before the columns: the same EP-like series (an hour of
    /// 1-minute points per cell) in both layouts.
    #[test]
    fn compressed_cells_cost_a_fraction_of_raw_ones() {
        let mut cells = RollupCells::new(vec![TimeLevel::Hour]);
        for h in 0..1_000i64 {
            let level = f64::from((h % 24) as f32 * 0.5 + 20.0);
            cells.apply(
                1,
                &[RollupDelta {
                    tid: 1,
                    level: TimeLevel::Hour,
                    bucket: h * 3_600_000,
                    acc: RollupAcc {
                        count: 60,
                        sum: level * 60.0 + (h % 7) as f64 * 0.1,
                        min: level - 1.5,
                        max: level + 2.0,
                    },
                }],
            );
        }
        let empty = Sidecar {
            rollups: Some(RollupCells::new(vec![TimeLevel::Hour])),
            ..Sidecar::default()
        };
        let with_cells = Sidecar {
            rollups: Some(cells),
            ..Sidecar::default()
        };
        let bytes = encode(with_cells.borrowed()).len() - encode(empty.borrowed()).len();
        assert!(bytes * 4 < 1_000 * 49, "{bytes} B for 1000 cells");
        assert_eq!(parse(&encode(with_cells.borrowed())), Some(with_cells));
    }

    /// The body up to where the sketch section starts, and up to where
    /// the first series' columns start in a sound one-series rollup
    /// section: arbitrary bytes appended there reach those decoders.
    fn body_prefixes() -> (Vec<u8>, Vec<u8>) {
        let bare = Sidecar {
            sketched: false,
            sketches: GroupSketches::default(),
            rollups: None,
            ..sample()
        };
        let body = encode(bare.borrowed())[FILE_HEADER_BYTES..].to_vec();
        // Trailing: the `sketched` flag, a zero group count, rollup flag 0.
        let sketches = body[..body.len() - 6].to_vec();
        let mut series = body[..body.len() - 1].to_vec();
        series.extend([1, 1, rollup::level_tag(TimeLevel::Hour)]);
        put_u32(&mut series, 1);
        series.extend([7, rollup::level_tag(TimeLevel::Hour), 9]);
        (sketches, series)
    }
    proptest::proptest! {
        // Damage to a real body, resealed so the field decoders see it:
        // `parse` returns `None` or a value, and never panics. The bodies
        // are a store's, and the samples with sound and poisoned rollups —
        // multi-cell series with holes, extreme buckets, sound and
        // poisoned running sketches.
        #[test]
        fn parse_never_panics_on_resealed_damage(
            source in 0usize..3,
            damage in 0usize..3,
            edits in proptest::collection::vec((proptest::num::usize::ANY, proptest::num::u8::ANY), 1..8),
        ) {
            let bytes = match source {
                0 => store_sidecar().to_vec(),
                1 => encode(sample().borrowed()),
                _ => {
                    let mut poisoned = sample();
                    poisoned.rollups = Some(sample_rollups(false));
                    encode(poisoned.borrowed())
                }
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

        // Arbitrary bytes: raw, behind a valid file header, as the sketch
        // section after a valid prefix, and as one series' five columns
        // (split at arbitrary points and length-prefixed, so the column
        // decoders see them).
        #[test]
        fn parse_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..512),
            cuts in proptest::collection::vec(proptest::num::usize::ANY, 4),
        ) {
            let _ = parse(&bytes);
            let _ = parse(&sealed(&bytes));
            let (sketches, series) = body_prefixes();
            let _ = parse(&sealed(&[sketches.as_slice(), &bytes].concat()));
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
            cuts.sort_unstable();
            let mut body = series;
            let mut start = 0;
            for end in cuts.into_iter().chain([bytes.len()]) {
                put_column(&mut body, &bytes[start..end]);
                start = end;
            }
            let _ = parse(&sealed(&body));
        }
    }
}
