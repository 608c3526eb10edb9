//! Crash-injection recovery: whatever happens to the *tail* of the segment
//! log (truncation at an arbitrary byte, a flipped byte in the last block,
//! appended garbage from a torn write) and whatever state the sidecar index
//! is in (fresh, deleted, stale from an earlier flush, or replaced by
//! garbage), reopening the store must recover **exactly** the segments of
//! the surviving valid blocks — never an error, never a partial block, never
//! a resurrected one — and leave behind a fresh sidecar describing the
//! recovered state, with the block value ranges those segments imply. When
//! the store maintains sketches, recovery must also regenerate them: a sidecar
//! that predates the sketch section (or whose sketch bytes are damaged) is
//! rejected in favour of a streaming rescan that rebuilds the sketches from
//! the surviving blocks.

use std::sync::Arc;

use mdb_testutil::TempDir;
use proptest::prelude::*;

use modelardb::{
    checksum_v2, scan_to_vec, BlockFormat, BlockSketch, Digest, DigestBuf, DiskStore,
    DiskStoreOptions, GapsMask, Gid, RollupAcc, RollupCells, RollupDelta, RollupFeed,
    SegmentDigester, SegmentPredicate, SegmentRecord, SegmentStore, Tid, TimeLevel, Timestamp,
    ValueInterval,
};

/// Size of a block header in `segments.log`: six u32 fields (magic,
/// payload_len, checksum, count, min_gid, max_gid) plus two i64 end-time
/// bounds = 40 bytes, matching `crates/storage/src/disk.rs`.
const HEADER_BYTES: u64 = 40;

/// A scoped case directory, removed on drop — on failure too, so a broken
/// run never poisons the next (see `mdb_testutil::TempDir`).
fn case_dir() -> TempDir {
    TempDir::new("crash")
}

/// A deterministic segment: varying gid, times, params length, and gaps.
fn seg(i: usize) -> SegmentRecord {
    SegmentRecord {
        gid: (i % 4) as u32 + 1,
        start_time: i as i64 * 1_000,
        end_time: i as i64 * 1_000 + 900,
        sampling_interval: 100,
        mid: (i % 3) as u8,
        params: bytes::Bytes::from(vec![i as u8; i % 13 + 1]),
        gaps: GapsMask((i % 5) as u64),
    }
}

/// A value-bounds provider with deliberate holes (gid 3 is unknown), so the
/// rebuilt block statistics exercise known *and* unknown value ranges.
fn bounds() -> impl Fn(&SegmentRecord) -> Option<ValueInterval> {
    |s| (s.gid != 3).then(|| ValueInterval::new(s.start_time as f64, s.end_time as f64))
}

/// A synthetic sketch feed over the synthetic segments of this suite: the
/// sketches derive from segment fields alone, so the sketch state a recovery
/// must regenerate is computable directly from the expected segment list.
fn feed() -> impl Fn(&SegmentRecord, &mut BlockSketch) -> bool {
    |s, sketch| {
        sketch.quantiles.insert(s.start_time as f64);
        sketch.distinct.insert(u64::from(s.gid));
        sketch.topk.add(s.gid, 1);
        true
    }
}

/// The sketch state any store holding exactly `segments` must report
/// (sketch merging is order-independent, so one flat pass suffices).
fn expected_sketch(segments: &[SegmentRecord]) -> BlockSketch {
    let feed = feed();
    let mut sketch = BlockSketch::new();
    for s in segments {
        feed(s, &mut sketch);
    }
    sketch
}

/// Runs this suite's statistic definitions — [`bounds`], [`feed`] and
/// [`rollup`] — as a store's one digester; the store's options choose which
/// of the statistics it keeps.
struct Fixtures;

impl SegmentDigester for Fixtures {
    fn digest(
        &self,
        s: &SegmentRecord,
        range: bool,
        levels: &[TimeLevel],
        sketch: Option<&mut BlockSketch>,
        buf: &mut DigestBuf,
    ) -> Digest {
        let deltas = if levels.is_empty() {
            Some(Vec::new())
        } else {
            rollup()(s)
        };
        let rolled_up = deltas.is_some();
        buf.deltas = deltas.unwrap_or_default();
        Digest {
            range: range.then(|| bounds()(s)).flatten(),
            sketched: sketch.is_some_and(|sketch| feed()(s, sketch)),
            rolled_up,
            ..Digest::default()
        }
    }
}

fn options(with_bounds: bool, with_feed: bool) -> DiskStoreOptions {
    let digester: Arc<dyn SegmentDigester> = Arc::new(Fixtures);
    DiskStoreOptions {
        // Larger than any case writes: blocks are cut by explicit flushes.
        bulk_write_size: 1 << 20,
        memory_budget_bytes: None,
        value_bounds: with_bounds.then(|| Arc::clone(&digester)),
        sketch_feed: with_feed.then(|| Arc::clone(&digester)),
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reopen_recovers_exactly_the_surviving_valid_blocks(
        block_sizes in proptest::collection::vec(1usize..20, 1..6),
        log_action in 0usize..3,
        cut_frac in 0.0f64..1.0,
        sidecar_action in 0usize..4,
        stale_frac in 0.0f64..1.0,
        with_bounds in proptest::bool::ANY,
        with_feed in proptest::bool::ANY,
    ) {
        let case = case_dir();
        let dir = case.path();
        // Write the log: one block per explicit flush, recording each
        // block's segments, its end offset, and the sidecar bytes as of
        // that flush (for the stale-sidecar scenario).
        let mut block_segments: Vec<Vec<SegmentRecord>> = Vec::new();
        let mut block_ends: Vec<u64> = Vec::new();
        let mut sidecar_snapshots: Vec<Vec<u8>> = Vec::new();
        {
            let mut store = DiskStore::open_with(dir, options(with_bounds, with_feed)).unwrap();
            let mut i = 0;
            for size in &block_sizes {
                let mut block = Vec::new();
                for _ in 0..*size {
                    let s = seg(i);
                    store.insert(s.clone()).unwrap();
                    block.push(s);
                    i += 1;
                }
                store.flush().unwrap();
                block_segments.push(block);
                block_ends.push(store.persistent_bytes());
                sidecar_snapshots.push(std::fs::read(dir.join("segments.idx")).unwrap());
            }
        }
        let log_path = dir.join("segments.log");
        let sidecar_path = dir.join("segments.idx");
        let log_len = std::fs::metadata(&log_path).unwrap().len();
        prop_assert_eq!(log_len, *block_ends.last().unwrap());

        // Damage the log tail; `surviving` = blocks that stay fully intact.
        let surviving = match log_action {
            0 => {
                // Truncate at an arbitrary byte offset.
                let cut = (log_len as f64 * cut_frac) as u64;
                let file = std::fs::OpenOptions::new().write(true).open(&log_path).unwrap();
                file.set_len(cut).unwrap();
                block_ends.iter().filter(|end| **end <= cut).count()
            }
            1 => {
                // Flip a byte inside the last block's payload.
                let n = block_ends.len();
                let start = if n >= 2 { block_ends[n - 2] } else { 0 };
                let payload_start = start + HEADER_BYTES;
                let payload_len = block_ends[n - 1] - payload_start;
                let target = payload_start + ((payload_len as f64 * cut_frac) as u64).min(payload_len - 1);
                let mut bytes = std::fs::read(&log_path).unwrap();
                bytes[target as usize] ^= 0x5A;
                std::fs::write(&log_path, &bytes).unwrap();
                n - 1
            }
            _ => {
                // Append garbage (a torn write that never completed).
                let mut bytes = std::fs::read(&log_path).unwrap();
                let garbage = (cut_frac * 60.0) as usize + 1;
                bytes.extend(std::iter::repeat_n(0xAB, garbage));
                std::fs::write(&log_path, &bytes).unwrap();
                block_ends.len()
            }
        };
        match sidecar_action {
            0 => {} // keep the (now possibly wrong) fresh sidecar
            1 => std::fs::remove_file(&sidecar_path).unwrap(),
            2 => {
                // Stale: put back the sidecar from an earlier flush.
                let k = ((sidecar_snapshots.len() - 1) as f64 * stale_frac) as usize;
                std::fs::write(&sidecar_path, &sidecar_snapshots[k]).unwrap();
            }
            _ => std::fs::write(&sidecar_path, b"not a sidecar at all").unwrap(),
        }

        // Reopen: exactly the surviving blocks' segments, in log order.
        let expected: Vec<SegmentRecord> = block_segments[..surviving]
            .iter()
            .flatten()
            .cloned()
            .collect();
        let store = DiskStore::open_with(dir, options(with_bounds, with_feed)).unwrap();
        let recovered = scan_to_vec(&store, &SegmentPredicate::all()).unwrap();
        prop_assert_eq!(&recovered, &expected);
        prop_assert_eq!(store.len(), expected.len());

        // A sketch-maintaining store regenerates exactly the sketches the
        // surviving segments imply, whatever happened to the log or sidecar.
        if with_feed {
            prop_assert_eq!(
                store.merge_sketches(None).unwrap().as_ref(),
                Some(&expected_sketch(&expected))
            );
        }

        // The sidecar describing a non-empty recovered log records, per
        // surviving block, the union of its segments' value ranges (unknown
        // when one of them is). An empty log may keep an unusable sidecar.
        let value_bounds = with_bounds.then(bounds);
        let expected_values: Vec<Option<ValueInterval>> = block_segments[..surviving]
            .iter()
            .map(|block| {
                block.iter().try_fold(ValueInterval::EMPTY, |acc, s| {
                    Some(acc.union(&value_bounds.as_ref()?(s)?))
                })
            })
            .collect();
        let sidecar_values = || -> Vec<Option<ValueInterval>> {
            std::fs::read(&sidecar_path)
                .ok()
                .and_then(|bytes| mdb_storage::sidecar::parse(&bytes))
                .map_or_else(Vec::new, |sc| sc.blocks.iter().map(|b| b.values).collect())
        };
        if surviving > 0 {
            prop_assert_eq!(sidecar_values(), expected_values.clone());
        }

        // The log was truncated to the last valid block and the sidecar was
        // rebuilt to describe exactly the recovered state: a second reopen
        // (which trusts the sidecar) agrees bit-for-bit.
        let truncated_len = store.persistent_bytes();
        drop(store);
        prop_assert_eq!(std::fs::metadata(&log_path).unwrap().len(), truncated_len);
        if !expected.is_empty() {
            prop_assert!(sidecar_path.exists(), "sidecar must be rebuilt");
        }
        let store = DiskStore::open_with(dir, options(with_bounds, with_feed)).unwrap();
        prop_assert_eq!(&scan_to_vec(&store, &SegmentPredicate::all()).unwrap(), &expected);
        if surviving > 0 {
            prop_assert_eq!(sidecar_values(), expected_values);
        }
        if with_feed {
            // The rebuilt sidecar persisted the sketches; the adopted copy
            // answers identically to the rescan that produced it.
            prop_assert_eq!(
                store.merge_sketches(None).unwrap().as_ref(),
                Some(&expected_sketch(&expected))
            );
        }
    }
}

/// Version migration: a sidecar written before the store maintained
/// sketches (`sketched: false`) must NOT be adopted by an open that has a
/// sketch feed — adopting it would leave sketch queries permanently
/// unanswerable. Instead the open falls back to the streaming rescan, which
/// regenerates the sketches from the blocks and rewrites the sidecar; the
/// next open adopts that rewritten, sketch-bearing sidecar and agrees.
#[test]
fn pre_sketch_sidecar_falls_back_to_rescan_that_regenerates_sketches() {
    let case = case_dir();
    let dir = case.path();
    let mut all = Vec::new();
    {
        // The "old version": no sketch feed, sidecar has no sketches.
        let mut store = DiskStore::open_with(dir, options(true, false)).unwrap();
        for i in 0..25 {
            let s = seg(i);
            store.insert(s.clone()).unwrap();
            all.push(s);
            if i % 8 == 7 {
                store.flush().unwrap();
            }
        }
        store.flush().unwrap();
        assert_eq!(store.merge_sketches(None).unwrap(), None);
    }

    // "Upgrade": reopen with a feed. The sketch-less sidecar is rejected,
    // the rescan recovers every segment and regenerates their sketches.
    let store = DiskStore::open_with(dir, options(true, true)).unwrap();
    assert_eq!(scan_to_vec(&store, &SegmentPredicate::all()).unwrap(), all);
    let merged = store.merge_sketches(None).unwrap();
    assert_eq!(merged.as_ref(), Some(&expected_sketch(&all)));

    // Scoped merges see only the requested gids' segments.
    let scope = [1u32, 3];
    let in_scope: Vec<SegmentRecord> = all
        .iter()
        .filter(|s| scope.contains(&s.gid))
        .cloned()
        .collect();
    assert_eq!(
        store.merge_sketches(Some(&scope)).unwrap().as_ref(),
        Some(&expected_sketch(&in_scope))
    );
    drop(store);

    // The rescan rewrote the sidecar with the sketch section; a third open
    // adopts it (no rescan this time) and answers identically.
    let store = DiskStore::open_with(dir, options(true, true)).unwrap();
    assert_eq!(scan_to_vec(&store, &SegmentPredicate::all()).unwrap(), all);
    assert_eq!(
        store.merge_sketches(None).unwrap().as_ref(),
        Some(&expected_sketch(&all))
    );
}

/// A damaged sketch section — the sidecar's trailing bytes — fails the body
/// checksum, so the whole sidecar is rejected and the rescan regenerates
/// both the segments and their sketches.
#[test]
fn corrupt_or_truncated_sketch_section_triggers_sketch_rebuilding_rescan() {
    let case = case_dir();
    let dir = case.path();
    let mut all = Vec::new();
    {
        let mut store = DiskStore::open_with(dir, options(true, true)).unwrap();
        for i in 0..20 {
            let s = seg(i);
            store.insert(s.clone()).unwrap();
            all.push(s);
            if i % 7 == 6 {
                store.flush().unwrap();
            }
        }
        store.flush().unwrap();
    }
    let sidecar_path = dir.join("segments.idx");
    let pristine = std::fs::read(&sidecar_path).unwrap();

    // Damage modes aimed at the sketch section, which trails the file:
    // flip the last byte, flip a byte a little further in, truncate one
    // byte, truncate a whole sketch-sized chunk.
    let damaged: Vec<Vec<u8>> = vec![
        {
            let mut b = pristine.clone();
            *b.last_mut().unwrap() ^= 0xFF;
            b
        },
        {
            let mut b = pristine.clone();
            let at = b.len() - 40;
            b[at] ^= 0x01;
            b
        },
        pristine[..pristine.len() - 1].to_vec(),
        pristine[..pristine.len() - 120].to_vec(),
    ];
    for bytes in damaged {
        std::fs::write(&sidecar_path, &bytes).unwrap();
        let store = DiskStore::open_with(dir, options(true, true)).unwrap();
        assert_eq!(scan_to_vec(&store, &SegmentPredicate::all()).unwrap(), all);
        assert_eq!(
            store.merge_sketches(None).unwrap().as_ref(),
            Some(&expected_sketch(&all))
        );
    }
}

/// A deterministic synthetic rollup feed over this suite's segments: one
/// delta per segment, bucketed coarsely enough that cells merge, so the
/// cell state a recovery must regenerate is computable from the expected
/// segment list alone.
fn rollup() -> impl Fn(&SegmentRecord) -> Option<Vec<RollupDelta>> {
    |s| {
        Some(vec![RollupDelta {
            tid: s.gid * 10,
            level: TimeLevel::Hour,
            bucket: s.start_time.div_euclid(10_000) * 10_000,
            acc: RollupAcc {
                count: 1,
                sum: s.end_time as f64 * 0.5,
                min: s.start_time as f64,
                max: s.end_time as f64,
            },
        }])
    }
}

/// Keeps [`rollup`]'s cells, at the hour level.
fn rollup_feed() -> RollupFeed {
    RollupFeed {
        levels: vec![TimeLevel::Hour],
        digester: Arc::new(Fixtures),
    }
}

/// One rollup cell flattened for exact comparison (float fields as raw
/// bits, so "equal" means bit-identical).
type FlatCell = (Gid, Tid, Timestamp, u64, u64, u64, u64);

/// The cells any store holding exactly `segments` must serve.
fn expected_cells(segments: &[SegmentRecord]) -> Vec<FlatCell> {
    let feed = rollup();
    let mut cells = RollupCells::new(rollup_feed().levels);
    for s in segments {
        match feed(s) {
            Some(deltas) => cells.apply(s.gid, &deltas),
            None => cells.poison(),
        }
    }
    let mut flat = Vec::new();
    cells.for_each(
        TimeLevel::Hour,
        None,
        (Timestamp::MIN, Timestamp::MAX),
        &mut |column| {
            for &((g, _, t, b), a) in column {
                flat.push((
                    g,
                    t,
                    b,
                    a.count,
                    a.sum.to_bits(),
                    a.min.to_bits(),
                    a.max.to_bits(),
                ));
            }
        },
    );
    flat
}

fn collect_cells(store: &DiskStore) -> Vec<FlatCell> {
    let mut flat = Vec::new();
    assert!(
        store
            .rollup_cells(
                TimeLevel::Hour,
                None,
                (Timestamp::MIN, Timestamp::MAX),
                &mut |column| {
                    for &((g, _, t, b), a) in column {
                        flat.push((
                            g,
                            t,
                            b,
                            a.count,
                            a.sum.to_bits(),
                            a.min.to_bits(),
                            a.max.to_bits(),
                        ));
                    }
                }
            )
            .unwrap(),
        "the feed-ful store must serve its cells"
    );
    flat
}

/// Damage aimed at the *rollup section* — the sidecar's trailing bytes,
/// behind a perfectly valid sketch section. The body checksum covers the
/// whole file, so every mode rejects the sidecar as one unit; the streaming
/// rescan must then rebuild the rollup cells *and* still regenerate the
/// sketches — recovering from rollup damage never costs the sketch restore.
#[test]
fn damaged_rollup_section_rebuilds_cells_without_losing_sketches() {
    let case = case_dir();
    let dir = case.path();
    let with_rollups = || DiskStoreOptions {
        rollup_feed: Some(rollup_feed()),
        ..options(true, true)
    };
    // Writes the same 20 segments with the same flush cadence, with or
    // without a rollup feed, returning the segments and the sidecar bytes.
    let write = |dir: &std::path::Path, rollups: bool| {
        let mut all = Vec::new();
        let store_options = if rollups {
            with_rollups()
        } else {
            options(true, true)
        };
        let mut store = DiskStore::open_with(dir, store_options).unwrap();
        for i in 0..20 {
            let s = seg(i);
            store.insert(s.clone()).unwrap();
            all.push(s);
            if i % 7 == 6 {
                store.flush().unwrap();
            }
        }
        store.flush().unwrap();
        if rollups {
            assert_eq!(collect_cells(&store), expected_cells(&all));
        }
        drop(store);
        (all, std::fs::read(dir.join("segments.idx")).unwrap())
    };
    let (all, pristine) = write(dir, true);
    let sidecar_path = dir.join("segments.idx");
    // The rollup section trails the file. A store without a rollup feed
    // writes the same body up to that section and then only its flag byte,
    // so the section spans the file from `start` to its end, flag included.
    let plain_case = case_dir();
    let (_, plain) = write(plain_case.path(), false);
    let start = plain.len() - 1;
    assert_eq!(plain[start], 0, "a store without rollups writes flag 0");
    const HEADER: usize = 16; // magic, version, body checksum, body length
    assert_eq!(
        pristine[HEADER..start],
        plain[HEADER..start],
        "the sidecars differ only in the rollup section"
    );
    let section = pristine.len() - start;
    assert!(pristine.len() > section + 16, "the section trails the file");

    let damaged: Vec<Vec<u8>> = vec![
        // Truncated one byte into the last series' columns.
        pristine[..pristine.len() - 1].to_vec(),
        // Truncated mid-section: only the flag byte survives.
        pristine[..pristine.len() - (section - 1)].to_vec(),
        // A flipped byte in the last series' max column.
        {
            let mut b = pristine.clone();
            *b.last_mut().unwrap() ^= 0xFF;
            b
        },
        // A flipped byte around the middle of the series list.
        {
            let mut b = pristine.clone();
            let at = b.len() - section / 2;
            b[at] ^= 0x01;
            b
        },
    ];
    for bytes in damaged {
        // Each case damages the rollup section alone: its first changed or
        // missing byte lies after the flag byte, and the rest is intact.
        let first_damage = (0..pristine.len())
            .find(|&at| bytes.get(at) != pristine.get(at))
            .expect("every case damages the file");
        assert!(
            (start + 1..pristine.len()).contains(&first_damage),
            "damage at {first_damage} is outside the rollup section {start}.."
        );
        std::fs::write(&sidecar_path, &bytes).unwrap();
        let store = DiskStore::open_with(dir, with_rollups()).unwrap();
        assert_eq!(scan_to_vec(&store, &SegmentPredicate::all()).unwrap(), all);
        assert_eq!(
            store.merge_sketches(None).unwrap().as_ref(),
            Some(&expected_sketch(&all)),
            "sketch restore must survive rollup-section damage"
        );
        assert_eq!(collect_cells(&store), expected_cells(&all));
        drop(store);
        // The rescan rewrote the sidecar; the next open adopts it (no
        // rescan) and serves identical cells.
        let adopted = DiskStore::open_with(dir, with_rollups()).unwrap();
        assert_eq!(collect_cells(&adopted), expected_cells(&all));
    }
}

/// A sidecar of an older layout version — here a current file whose header
/// claims version 2 (the version is outside the body checksum, so the body
/// stays sealed) — must not parse: the store falls back to the streaming
/// rescan, which restores exactly the segments, rollup cells and sketches
/// the store held, and rewrites a current sidecar that the next open
/// adopts without rescanning.
#[test]
fn older_sidecar_version_rescans_and_rewrites_a_current_one() {
    let case = case_dir();
    let dir = case.path();
    let with_rollups = || DiskStoreOptions {
        rollup_feed: Some(rollup_feed()),
        ..options(true, true)
    };
    let scope: [Gid; 2] = [2, 4];
    let mut all = Vec::new();
    let (cells, sketch, scoped) = {
        let mut store = DiskStore::open_with(dir, with_rollups()).unwrap();
        for i in 0..30 {
            let s = seg(i);
            store.insert(s.clone()).unwrap();
            all.push(s);
            if i % 8 == 7 {
                store.flush().unwrap();
            }
        }
        store.flush().unwrap();
        (
            collect_cells(&store),
            store.merge_sketches(None).unwrap(),
            store.merge_sketches(Some(&scope)).unwrap(),
        )
    };
    assert_eq!(cells, expected_cells(&all));
    assert_eq!(sketch.as_ref(), Some(&expected_sketch(&all)));

    let sidecar_path = dir.join("segments.idx");
    let current = std::fs::read(&sidecar_path).unwrap();
    let version = |bytes: &[u8]| u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let mut older = current.clone();
    older[4..8].copy_from_slice(&2u32.to_le_bytes());
    std::fs::write(&sidecar_path, &older).unwrap();

    let store = DiskStore::open_with(dir, with_rollups()).unwrap();
    assert_eq!(
        store.digest_stats().digests,
        all.len() as u64,
        "the older sidecar is rejected and every segment rescanned"
    );
    assert_eq!(scan_to_vec(&store, &SegmentPredicate::all()).unwrap(), all);
    assert_eq!(collect_cells(&store), cells);
    assert_eq!(store.merge_sketches(None).unwrap(), sketch);
    assert_eq!(store.merge_sketches(Some(&scope)).unwrap(), scoped);
    drop(store);
    let rewritten = std::fs::read(&sidecar_path).unwrap();
    assert_eq!(version(&rewritten), version(&current));
    assert_eq!(rewritten, current, "the rescan rewrites the same sidecar");

    let adopted = DiskStore::open_with(dir, with_rollups()).unwrap();
    assert_eq!(adopted.digest_stats().digests, 0, "the rewrite is adopted");
    assert_eq!(
        scan_to_vec(&adopted, &SegmentPredicate::all()).unwrap(),
        all
    );
    assert_eq!(collect_cells(&adopted), cells);
    assert_eq!(adopted.merge_sketches(None).unwrap(), sketch);
    assert_eq!(adopted.merge_sketches(Some(&scope)).unwrap(), scoped);
}

/// v2 structural damage: payloads whose *outer checksum is valid* (patched
/// with `checksum_v2` after the corruption) but whose columnar layout fails
/// `BlockView` validation — a truncated parameter heap, a misaligned section
/// offset, and a corrupt column (a zero sampling interval). A checksum-valid
/// but structurally invalid block cannot come from a torn write, so the
/// recovery rescan must *reject it as corruption* — an `Err`, never a panic,
/// never silently adopting garbage segments.
#[test]
fn checksum_valid_but_structurally_damaged_v2_blocks_are_rejected_without_panic() {
    // Header field offsets within a block, per `crates/storage/src/disk.rs`:
    // magic @0, payload_len @4, checksum @8 (all u32 little-endian).
    const LEN_AT: usize = 4;
    const SUM_AT: usize = 8;
    let case = case_dir();
    let dir = case.path();
    {
        let mut store = DiskStore::open_with(dir, options(true, false)).unwrap();
        assert_eq!(store.write_format(), BlockFormat::V2);
        for i in 0..30 {
            store.insert(seg(i)).unwrap();
            if i % 10 == 9 {
                store.flush().unwrap();
            }
        }
    }
    let log_path = dir.join("segments.log");
    let pristine = std::fs::read(&log_path).unwrap();
    // Locate the last block by walking the headers.
    let mut start = 0usize;
    loop {
        let len = u32::from_le_bytes(
            pristine[start + LEN_AT..start + LEN_AT + 4]
                .try_into()
                .unwrap(),
        );
        let next = start + HEADER_BYTES as usize + len as usize;
        if next == pristine.len() {
            break;
        }
        start = next;
    }
    let body = start + HEADER_BYTES as usize;

    // Each damage mode corrupts the last block's payload, then re-seals the
    // outer header so the checksum is not what rejects it.
    let damaged: Vec<Vec<u8>> = vec![
        {
            // Truncate the parameter heap: the recorded total length and
            // section offsets now point past the buffer.
            let mut b = pristine[..pristine.len() - 3].to_vec();
            let len = (b.len() - body) as u32;
            b[start + LEN_AT..start + LEN_AT + 4].copy_from_slice(&len.to_le_bytes());
            b
        },
        {
            // Misalign a section offset: shift `off_sis` (table entry 3,
            // bytes 12..16 of the payload) by four bytes.
            let mut b = pristine.clone();
            let at = body + 12;
            let off = u32::from_le_bytes(b[at..at + 4].try_into().unwrap()) + 4;
            b[at..at + 4].copy_from_slice(&off.to_le_bytes());
            b
        },
        {
            // Corrupt a column: zero the first sampling interval (`off_sis`
            // names the SI section; SI < 1 is structurally invalid).
            let mut b = pristine.clone();
            let at = body + 12;
            let off = u32::from_le_bytes(b[at..at + 4].try_into().unwrap()) as usize;
            b[body + off..body + off + 8].copy_from_slice(&0i64.to_le_bytes());
            b
        },
    ];
    for mut bytes in damaged {
        let sum = checksum_v2(&bytes[body..]);
        bytes[start + SUM_AT..start + SUM_AT + 4].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&log_path, &bytes).unwrap();
        // Force the rescan: the sidecar (which would defer validation to
        // fetch time) is gone, so the open itself walks every block.
        let _ = std::fs::remove_file(dir.join("segments.idx"));
        let err = DiskStore::open_with(dir, options(true, false))
            .err()
            .expect("structurally damaged block must be rejected");
        assert!(
            err.to_string().contains("layout validation"),
            "unexpected error: {err}"
        );
    }

    // Control: the pristine bytes still open and hold all 30 segments.
    std::fs::write(&log_path, &pristine).unwrap();
    let store = DiskStore::open_with(dir, options(true, false)).unwrap();
    assert_eq!(store.len(), 30);
}

/// Lazy v1→v2 migration: a log written entirely in the v1 row-major format
/// must reopen bit-identically under a v2-writing store — old blocks keep
/// their format and decode through the owned path while new appends go down
/// in v2 — and a further reopen of the now mixed-format log still agrees.
#[test]
fn v1_logs_reopen_bit_identically_and_mix_with_v2_appends() {
    let case = case_dir();
    let dir = case.path();
    let v1_options = || DiskStoreOptions {
        write_format: BlockFormat::V1,
        ..options(true, true)
    };
    let mut all = Vec::new();
    {
        let mut store = DiskStore::open_with(dir, v1_options()).unwrap();
        for i in 0..25 {
            let s = seg(i);
            store.insert(s.clone()).unwrap();
            all.push(s);
            if i % 8 == 7 {
                store.flush().unwrap();
            }
        }
        store.flush().unwrap();
    }
    let v1_log = std::fs::read(dir.join("segments.log")).unwrap();

    // "Upgrade": reopen with the v2 default. Reads are bit-identical and
    // the v1 bytes on disk are untouched (migration is lazy, not a rewrite).
    {
        let mut store = DiskStore::open_with(dir, options(true, true)).unwrap();
        assert_eq!(store.write_format(), BlockFormat::V2);
        assert_eq!(scan_to_vec(&store, &SegmentPredicate::all()).unwrap(), all);
        assert_eq!(std::fs::read(dir.join("segments.log")).unwrap(), v1_log);
        assert_eq!(
            store.merge_sketches(None).unwrap().as_ref(),
            Some(&expected_sketch(&all))
        );
        // New appends extend the same log in v2.
        for i in 25..30 {
            let s = seg(i);
            store.insert(s.clone()).unwrap();
            all.push(s);
        }
        store.flush().unwrap();
    }

    // The mixed-format log reopens to the full segment list, from the
    // sidecar and — after deleting it — from the raw rescan.
    for delete_sidecar in [false, true] {
        if delete_sidecar {
            std::fs::remove_file(dir.join("segments.idx")).unwrap();
        }
        let store = DiskStore::open_with(dir, options(true, true)).unwrap();
        assert_eq!(scan_to_vec(&store, &SegmentPredicate::all()).unwrap(), all);
        assert_eq!(
            store.merge_sketches(None).unwrap().as_ref(),
            Some(&expected_sketch(&all))
        );
    }
}

/// Deterministic companion: recovery must also *append* correctly — after a
/// crash loses the tail, new writes continue the log and a subsequent clean
/// reopen sees old survivors plus new segments.
#[test]
fn writes_after_recovery_extend_the_truncated_log() {
    let case = case_dir();
    let dir = case.path();
    {
        let mut store = DiskStore::open_with(dir, options(true, false)).unwrap();
        for i in 0..30 {
            store.insert(seg(i)).unwrap();
            if i % 10 == 9 {
                store.flush().unwrap();
            }
        }
    }
    // Lose the last block (bytes beyond block 2) and the sidecar.
    let log_path = dir.join("segments.log");
    let len = std::fs::metadata(&log_path).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&log_path)
        .unwrap();
    file.set_len(len - 1).unwrap();
    std::fs::remove_file(dir.join("segments.idx")).unwrap();

    let mut store = DiskStore::open_with(dir, options(true, false)).unwrap();
    assert_eq!(store.len(), 20, "two intact blocks survive");
    for i in 30..35 {
        store.insert(seg(i)).unwrap();
    }
    store.flush().unwrap();
    drop(store);

    let store = DiskStore::open_with(dir, options(true, false)).unwrap();
    let expected: Vec<SegmentRecord> = (0..20).chain(30..35).map(seg).collect();
    assert_eq!(
        scan_to_vec(&store, &SegmentPredicate::all()).unwrap(),
        expected
    );
}
