//! The segment store: an out-of-core append-only block log with a sidecar
//! index, a memory-budgeted block cache, and a read-ahead prefetcher.
//!
//! The log and sidecar bytes live behind a small backend seam: two files in
//! a directory ([`DiskStore::open_with`]) or RAM ([`DiskStore::in_memory`]).
//! Everything above the bytes — block layout, scan order, pruning, sketch
//! and rollup rules, recovery — is the same for both.
//!
//! Layout of `segments.log` (the framing is unchanged since the first disk
//! store, so old logs recover):
//!
//! ```text
//! repeat:
//!   [u32 magic] [u32 payload_len] [u32 checksum]
//!   [u32 count] [u32 min_gid] [u32 max_gid] [i64 min_end] [i64 max_end]
//!   payload: per the magic —
//!     "MDBS": count × varint segment records (codec::write_segment, v1)
//!     "MDB2": self-describing columnar layout (mdb_types::view, v2)
//! ```
//!
//! The log is heterogeneous: the magic selects the payload format per
//! block, so a store reopened over v1 blocks keeps them as they are while
//! appending new blocks in the configured `write_format` (v2 by default).
//! The read path knows one block form: every fetched payload becomes a
//! [`BlockView`] in one place (`block_view`) — a v2 payload is validated
//! **once**, a v1 payload is decoded and re-laid out as v2 first. Scans
//! hand out runs that borrow the block or the write buffer and read them
//! through borrowed views: the scan path copies no records and performs no
//! per-segment allocation.
//!
//! Writes are buffered until `bulk_write_size` segments accumulate (Table 1:
//! Bulk Write Size 50,000) or `flush` is called; each flush appends one
//! block and rewrites the sidecar index (`segments.idx`, see
//! [`crate::sidecar`]) holding per-block [`BlockMeta`] statistics. Every
//! appended block — a flush, a `bulk_write_size` cut or an imported run —
//! is parked in the block cache as it is written, so a query right after a
//! flush reads it from memory.
//!
//! Unlike the original store, segment bodies are **not** resident: `open`
//! loads the block summaries from the sidecar (falling back to a streaming
//! block-by-block rebuild with a bounded buffer when the sidecar is missing
//! or stale), so restart cost is O(blocks) instead of O(log), and scans pull
//! blocks through a sharded LRU [`BlockCache`] bounded by the engine's
//! memory budget, so resident memory is O(cache capacity + write buffer)
//! instead of O(total segments). The per-block statistics — gid, time and
//! stored-value ranges, the store's only pruning statistics — skip blocks
//! *before* they are fetched from disk, so the push-down of Section 3.3/6.2
//! saves I/O, not just decoding.
//!
//! A torn tail block (crash during write) fails its checksum and the log is
//! truncated to the last valid block, mirroring a write-ahead-log recovery;
//! the sidecar is trusted only if the last block it describes passes its
//! checksum, and blocks appended after the sidecar was last written (crash
//! between block append and sidecar rename) are picked up by scanning just
//! the log suffix. Each block is written in one positional write at its
//! recorded offset, so a write that fails part-way is overwritten by the
//! retry instead of misaligning the blocks after it.
//!
//! The log is append-only: it keeps duplicate `(gid, end_time, gaps)` keys
//! (the compression pipeline never produces them), and scans stream in
//! *log* (insertion) order; every scan over the same store state yields the
//! same deterministic order, which is what the bit-identical query
//! guarantees require.

use std::path::Path;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use mdb_types::{
    encode_block_v2, BlockFormat, BlockMeta, BlockSketch, BlockView, Gid, MdbError, Result,
    SegmentRecord, SegmentView, TimeLevel, Timestamp, ValueInterval,
};

use crate::backend::{Backend, FileBackend, MemoryBackend};
use crate::cache::{BlockCache, CacheStats};
use crate::codec::{checksum, checksum_v2, read_segment, write_segment};
use crate::digest::{Absorber, DigestStats, GroupSketches, SegmentDigester};
use crate::rollup::{KeyedCell, RollupCells, RollupFeed};
use crate::sidecar::{self, Sidecar, SidecarRef};
use crate::{SegmentEnvelope, SegmentPredicate, SegmentRun, SegmentStore};

const BLOCK_MAGIC: u32 = 0x4D44_4253; // "MDBS" — v1 varint payload
const BLOCK_MAGIC_V2: u32 = 0x4D44_4232; // "MDB2" — v2 columnar payload
const HEADER_BYTES: usize = 4 + 4 + 4 + 4 + 4 + 4 + 8 + 8;

/// Encodes the header of the block `meta` describes (see the module docs).
fn encode_header(meta: &BlockMeta) -> [u8; HEADER_BYTES] {
    let mut header = [0u8; HEADER_BYTES];
    let words = [
        magic_of(meta.format),
        meta.payload_len,
        meta.checksum,
        meta.count,
        meta.min_gid,
        meta.max_gid,
    ];
    for (field, word) in header.chunks_exact_mut(4).zip(words) {
        field.copy_from_slice(&word.to_le_bytes());
    }
    header[24..32].copy_from_slice(&meta.min_end.to_le_bytes());
    header[32..].copy_from_slice(&meta.max_end.to_le_bytes());
    header
}

/// Decodes a header's framing — `[magic, payload_len, checksum, count]` —
/// which is all recovery reads back: the gid and end-time bounds after it
/// are recomputed from the segments.
fn decode_header(header: &[u8; HEADER_BYTES]) -> [u32; 4] {
    std::array::from_fn(|i| u32::from_le_bytes(header[4 * i..4 * i + 4].try_into().unwrap()))
}

fn magic_of(format: BlockFormat) -> u32 {
    match format {
        BlockFormat::V1 => BLOCK_MAGIC,
        BlockFormat::V2 => BLOCK_MAGIC_V2,
    }
}

fn format_of(magic: u32) -> Option<BlockFormat> {
    match magic {
        BLOCK_MAGIC => Some(BlockFormat::V1),
        BLOCK_MAGIC_V2 => Some(BlockFormat::V2),
        _ => None,
    }
}

/// How a [`DiskStore`] is opened.
#[derive(Clone, Default)]
pub struct DiskStoreOptions {
    /// Segments buffered before a block is appended (Table 1's Bulk Write
    /// Size); `0` is treated as `1`. The default of 0 therefore flushes a
    /// block per segment — callers normally pass their configured size.
    pub bulk_write_size: usize,
    /// Byte budget for the block cache, which parks blocks when they are
    /// written as well as when they are fetched: `None` keeps every block
    /// the store writes or fetches resident (the pre-out-of-core
    /// behaviour), `Some(0)` caches nothing.
    pub memory_budget_bytes: Option<u64>,
    /// Keeps stored-value ranges for the block statistics, derived by this
    /// digester (typically `mdb_query::value_bounds_fn`); without it only
    /// gid and time statistics prune. The store runs one digester for
    /// every statistic it keeps, once per inserted segment (see
    /// [`crate::digest`]), so all three providers must be built over the
    /// same catalog and registry.
    pub value_bounds: Option<Arc<dyn SegmentDigester>>,
    /// Keeps the per-group running sketches, derived by this digester
    /// (typically `mdb_query::sketch_feed`); without it sketch queries are
    /// unanswerable from this store.
    pub sketch_feed: Option<Arc<dyn SegmentDigester>>,
    /// Keeps continuous aggregates at the feed's levels (typically
    /// `mdb_query::rollup_feed`): materialized rollup cells are maintained
    /// on insert, persisted in the sidecar, and rebuilt by the streaming
    /// rescan. Without it rollup queries fall back to the scan path.
    pub rollup_feed: Option<RollupFeed>,
    /// How many blocks that survive block pruning the background
    /// prefetcher reads ahead of the scan (0 disables prefetching and
    /// spawns no thread). Engines pass `Config::prefetch_depth` (default 2).
    pub prefetch_depth: usize,
    /// Payload format for newly appended blocks. Existing blocks keep
    /// their on-disk format and are dispatched on per fetch.
    pub write_format: BlockFormat,
}

impl std::fmt::Debug for DiskStoreOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStoreOptions")
            .field("bulk_write_size", &self.bulk_write_size)
            .field("memory_budget_bytes", &self.memory_budget_bytes)
            .field("value_bounds", &self.value_bounds.is_some())
            .field("sketch_feed", &self.sketch_feed.is_some())
            .field("rollup_feed", &self.rollup_feed.is_some())
            .field("prefetch_depth", &self.prefetch_depth)
            .field("write_format", &self.write_format)
            .finish()
    }
}

/// The offsets the prefetcher has accepted but not yet finished: the scan
/// waits on this before demand-fetching a block it already issued, so a
/// block is read from disk exactly once per cold scan — never by both the
/// worker and the demand path racing each other.
struct PrefetchState {
    pending: Mutex<std::collections::HashSet<u64>>,
    done: Condvar,
}

impl PrefetchState {
    fn begin_span(&self, span: &[BlockMeta]) {
        let mut pending = self.pending.lock().expect("prefetch state poisoned");
        for meta in span {
            pending.insert(meta.offset);
        }
    }

    /// Completes a whole span under one lock with one wake-up — the
    /// per-block variant would wake the waiting scan once per block, which
    /// on a loaded machine degenerates into a context switch per block.
    fn complete_span(&self, span: &[BlockMeta]) {
        let mut pending = self.pending.lock().expect("prefetch state poisoned");
        for meta in span {
            pending.remove(&meta.offset);
        }
        drop(pending);
        self.done.notify_all();
    }

    fn wait_for(&self, offset: u64) {
        let mut pending = self.pending.lock().expect("prefetch state poisoned");
        while pending.contains(&offset) {
            pending = self.done.wait(pending).expect("prefetch state poisoned");
        }
    }
}

/// The background read-ahead worker: a bounded queue of *spans* — runs of
/// log-contiguous block summaries the scan wants next — drained by one
/// thread sharing the store's backend that reads each span in a single
/// contiguous read, then verifies and stages its blocks in the shared
/// cache. Coalescing matters: a cold sequential scan issues one syscall per
/// span instead of one per block. The queue is fed with `try_send` — when
/// it is full the scan simply stops issuing, so prefetching never blocks
/// the scan on anything but a block it would read next anyway. Errors are
/// swallowed here: the demand fetch re-reads and re-surfaces them.
struct Prefetcher {
    tx: Option<SyncSender<Vec<BlockMeta>>>,
    handle: Option<JoinHandle<()>>,
    state: Arc<PrefetchState>,
    depth: usize,
}

impl Prefetcher {
    fn spawn(backend: Arc<dyn Backend>, cache: Arc<BlockCache>, depth: usize) -> Result<Self> {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<BlockMeta>>(depth);
        let state = Arc::new(PrefetchState {
            pending: Mutex::new(std::collections::HashSet::new()),
            done: Condvar::new(),
        });
        let worker_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name("mdb-prefetch".into())
            .spawn(move || prefetch_loop(rx, backend, cache, worker_state))?;
        Ok(Self {
            tx: Some(tx),
            handle: Some(handle),
            state,
            depth,
        })
    }

    /// Queues one file-contiguous span of blocks for read-ahead; false when
    /// the queue is full (the caller stops issuing for this round).
    fn issue(&self, span: Vec<BlockMeta>) -> bool {
        let Some(tx) = self.tx.as_ref() else {
            return false;
        };
        self.state.begin_span(&span);
        match tx.try_send(span) {
            Ok(()) => true,
            Err(TrySendError::Full(span) | TrySendError::Disconnected(span)) => {
                self.state.complete_span(&span);
                false
            }
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        drop(self.tx.take()); // disconnect: the worker drains and exits
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn prefetch_loop(
    rx: Receiver<Vec<BlockMeta>>,
    backend: Arc<dyn Backend>,
    cache: Arc<BlockCache>,
    state: Arc<PrefetchState>,
) {
    let mut buffer = Vec::new();
    while let Ok(span) = rx.recv() {
        // One contiguous read covers the whole span, headers included (the
        // issuer guarantees adjacency in the log).
        let total: u64 = span.iter().map(|meta| meta.stored_bytes).sum();
        buffer.resize(total as usize, 0);
        let read_ok = backend.read_at(span[0].offset, &mut buffer).is_ok();
        let mut at = 0usize;
        for meta in &span {
            let stored = meta.stored_bytes as usize;
            // On any failure just leave the block unstaged: the demand
            // fetch re-reads and reports the error properly.
            if read_ok && !cache.contains(meta.offset) {
                let payload = &buffer[at + HEADER_BYTES..at + stored];
                if payload_checksum(meta.format, payload) == meta.checksum {
                    if let Ok(block) =
                        block_view(payload.to_vec(), meta.format, meta.count, meta.offset)
                    {
                        cache.insert_prefetched(meta, block);
                    }
                }
            }
            at += stored;
        }
        state.complete_span(&span);
    }
}

/// An out-of-core block-log segment store, on disk or in RAM (see the
/// module docs).
pub struct DiskStore {
    /// Where the log and sidecar bytes live; shared with the prefetcher.
    backend: Arc<dyn Backend>,
    /// Per-block summaries — the only per-segment-body state kept resident.
    blocks: Vec<BlockMeta>,
    /// Shared with the prefetcher thread (when one is running).
    cache: Arc<BlockCache>,
    /// The background read-ahead worker; `None` when `prefetch_depth` is 0
    /// or the cache is budgeted to hold nothing.
    prefetch: Option<Prefetcher>,
    /// Payload format for newly appended blocks.
    write_format: BlockFormat,
    write_buffer: Vec<SegmentRecord>,
    /// Stored-value range per buffered segment (parallel to `write_buffer`),
    /// computed once at insert for the block summary.
    buffer_ranges: Vec<Option<ValueInterval>>,
    /// The envelope of the write buffer's segments (`None` when empty).
    buffer_envelope: Option<SegmentEnvelope>,
    /// High-water mark of the write buffer, for resident-memory accounting.
    buffer_peak: usize,
    bulk_write_size: usize,
    persistent_bytes: u64,
    logical_bytes: u64,
    n_segments: usize,
    /// Blocks appended since the sidecar was last rewritten. The sidecar is
    /// rewritten on [`SegmentStore::flush`] (the durability point), not per
    /// block — sustained ingestion stays O(blocks), and a crash between a
    /// block append and the next flush is covered by the suffix scan.
    sidecar_dirty: bool,
    /// The configured statistics and the one digester pass that derives
    /// them from every inserted segment.
    absorber: Absorber,
    /// Per-gid running sketches over every segment, fed at insert. The
    /// sidecar persists them and is only written with an empty write
    /// buffer, when they cover exactly the log it describes.
    sketches: GroupSketches,
    /// The materialized cell map, present exactly when a rollup feed is
    /// configured. Fed on every insert, so cells always cover the write
    /// buffer too — the same coverage a scan has.
    rollups: Option<RollupCells>,
    pruning: bool,
}

impl DiskStore {
    /// Opens (or creates) the store in `dir` (`segments.log` and
    /// `segments.idx`).
    ///
    /// Recovery prefers the sidecar index: when it is present, validated,
    /// and describes a prefix of the log, only the log *suffix* (if any) is
    /// scanned; otherwise the whole log is rebuilt streaming one block at a
    /// time with a bounded buffer. Either way the log is truncated to the
    /// end of its last valid block and a fresh sidecar is written.
    pub fn open_with(dir: &Path, options: DiskStoreOptions) -> Result<Self> {
        Self::open_on(Arc::new(FileBackend::open(dir)?), options)
    }

    /// An empty store whose log and sidecar live in RAM: the same store
    /// under the same options as [`DiskStore::open_with`], gone when
    /// dropped.
    pub fn in_memory(options: DiskStoreOptions) -> Result<Self> {
        Self::open_on(Arc::new(MemoryBackend::default()), options)
    }

    /// Opens the store over `backend`'s bytes, recovering as
    /// [`DiskStore::open_with`] describes.
    pub(crate) fn open_on(backend: Arc<dyn Backend>, options: DiskStoreOptions) -> Result<Self> {
        let mut absorber = Absorber::new(
            options.value_bounds,
            options.sketch_feed,
            options.rollup_feed,
        );
        let recovered = recover(backend.as_ref(), &mut absorber)?;
        backend.truncate(recovered.valid_len)?;
        let cache = Arc::new(BlockCache::new(options.memory_budget_bytes));
        // No prefetcher when disabled or when nothing can be staged anyway.
        let prefetch = if options.prefetch_depth > 0 && !cache.caches_nothing() {
            Some(Prefetcher::spawn(
                Arc::clone(&backend),
                Arc::clone(&cache),
                options.prefetch_depth,
            )?)
        } else {
            None
        };
        let store = Self {
            backend,
            n_segments: recovered.blocks.iter().map(|b| b.count as usize).sum(),
            logical_bytes: recovered.blocks.iter().map(|b| b.logical_bytes).sum(),
            persistent_bytes: recovered.valid_len,
            blocks: recovered.blocks,
            cache,
            prefetch,
            write_format: options.write_format,
            write_buffer: Vec::new(),
            buffer_ranges: Vec::new(),
            buffer_envelope: None,
            buffer_peak: 0,
            sidecar_dirty: false,
            bulk_write_size: options.bulk_write_size.max(1),
            absorber,
            sketches: recovered.sketches,
            rollups: recovered.rollups,
            pruning: true,
        };
        if !recovered.sidecar_fresh && !store.blocks.is_empty() {
            store.write_sidecar()?;
        }
        Ok(store)
    }

    /// Number of blocks on disk.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Payload format newly appended blocks are written in. Blocks already
    /// on disk keep whatever format they were written with.
    pub fn write_format(&self) -> BlockFormat {
        self.write_format
    }

    /// Enables or disables block-statistics pruning in scans (the
    /// statistics are still maintained). Disabling yields the plain
    /// fetch-every-block scan that matches every segment on its own — the
    /// reference path the query-equivalence suite compares pruned scans
    /// with. With pruning on, a block (or write buffer) whose envelope the
    /// predicate [covers](SegmentPredicate::covers) is also emitted as one
    /// run without a per-segment match.
    pub fn set_pruning(&mut self, pruning: bool) {
        self.pruning = pruning;
    }

    /// True when the per-block statistics prove no segment of `meta` can
    /// match `predicate` (with `sorted_gids` the sorted, deduplicated gid
    /// restriction, if any).
    fn block_pruned(
        meta: &BlockMeta,
        predicate: &SegmentPredicate,
        sorted_gids: Option<&[Gid]>,
    ) -> bool {
        if let Some(gids) = sorted_gids {
            if meta.excludes_gids(gids) {
                return true;
            }
        }
        if let Some(from) = predicate.from {
            if meta.ends_before(from) {
                return true;
            }
        }
        if let Some(to) = predicate.to {
            if meta.starts_after(to) {
                return true;
            }
        }
        if let Some(ends_by) = predicate.ends_by {
            if meta.min_end > ends_by {
                return true;
            }
        }
        if let Some(values) = &predicate.values {
            if meta.excludes_values(values) {
                return true;
            }
        }
        false
    }

    /// Fetches one block through the cache, reading it and turning it into
    /// a [`BlockView`] on a miss. The payload checksum is verified on every
    /// read from the backend, so silent corruption surfaces as
    /// [`MdbError::Corrupt`] instead of bad query results.
    fn fetch_block(&self, meta: &BlockMeta) -> Result<Arc<BlockView>> {
        self.cache.get_or_load(meta, || {
            let mut payload = vec![0u8; meta.payload_len as usize];
            self.backend
                .read_at(meta.offset + HEADER_BYTES as u64, &mut payload)?;
            if payload_checksum(meta.format, &payload) != meta.checksum {
                return Err(MdbError::Corrupt(format!(
                    "block at offset {} failed its checksum on read",
                    meta.offset
                )));
            }
            block_view(payload, meta.format, meta.count, meta.offset)
        })
    }

    /// Appends the write buffer as one block. The block is written in one
    /// positional write at the end of the valid log, and the store's state
    /// (buffer, log length) only advances once it succeeds:
    /// after a failure the buffer is retried at the same offset, overwriting
    /// whatever part of the failed attempt reached the log.
    ///
    /// A written block is parked in the cache as its most recently used
    /// entry (when the budget admits it), built from the payload in memory:
    /// its first reader neither reads the log nor re-verifies the checksum.
    /// On-disk damage to such a block is caught at its next read from the
    /// log, after eviction or a reopen. A failed write parks nothing.
    fn write_block(&mut self) -> Result<()> {
        if self.write_buffer.is_empty() {
            return Ok(());
        }
        let payload = match self.write_format {
            BlockFormat::V1 => {
                let mut payload = Vec::new();
                for segment in &self.write_buffer {
                    write_segment(&mut payload, segment);
                }
                payload
            }
            BlockFormat::V2 => encode_block_v2(&self.write_buffer),
        };
        let meta = summarize_block(
            self.persistent_bytes,
            payload.len() as u32,
            payload_checksum(self.write_format, &payload),
            self.write_format,
            &self.write_buffer,
            &self.buffer_ranges,
        );
        let mut bytes = Vec::with_capacity(meta.stored_bytes as usize);
        bytes.extend_from_slice(&encode_header(&meta));
        bytes.extend_from_slice(&payload);
        self.backend.write_at(meta.offset, &bytes)?;
        drop(bytes);
        self.cache.insert_written(&meta, || {
            block_view(payload, meta.format, meta.count, meta.offset)
        });
        self.persistent_bytes += meta.stored_bytes;
        self.blocks.push(meta);
        self.write_buffer.clear();
        self.buffer_ranges.clear();
        self.buffer_envelope = None;
        self.sidecar_dirty = true;
        Ok(())
    }

    /// Rewrites the sidecar. Only called with an empty write buffer: the
    /// running sketches and rollup cells then cover exactly the written
    /// blocks.
    fn write_sidecar(&self) -> Result<()> {
        debug_assert!(self.write_buffer.is_empty());
        let bytes = sidecar::encode(SidecarRef {
            log_len: self.persistent_bytes,
            value_bounded: self.absorber.bounds_values(),
            sketched: self.absorber.sketches(),
            blocks: &self.blocks,
            sketches: &self.sketches,
            rollups: self.rollups.as_ref(),
        });
        Ok(self.backend.replace_sidecar(&bytes)?)
    }
}

/// Emits the maximal contiguous index ranges `[lo, hi)` of `segments`
/// matching `predicate` — evaluated over borrowed views, so no segment is
/// materialized to decide membership — or all of them as one run when
/// `covered` (the predicate [covers](SegmentPredicate::covers) their
/// envelope).
fn emit_runs<'v>(
    segments: impl ExactSizeIterator<Item = SegmentView<'v>>,
    predicate: &SegmentPredicate,
    covered: bool,
    mut f: impl FnMut(usize, usize),
) {
    let len = segments.len();
    if covered {
        if len > 0 {
            f(0, len);
        }
        return;
    }
    let mut run_start = None;
    for (i, segment) in segments.enumerate() {
        if predicate.matches(&segment) {
            run_start.get_or_insert(i);
        } else if let Some(start) = run_start.take() {
            f(start, i);
        }
    }
    if let Some(start) = run_start {
        f(start, len);
    }
}

/// Builds one block's summary from its segments and their (possibly
/// unknown) stored-value ranges — the single source of truth for both the
/// write path and the streaming rescan, so sidecar-persisted and
/// rescan-rebuilt metadata cannot diverge.
fn summarize_block(
    offset: u64,
    payload_len: u32,
    payload_checksum: u32,
    format: BlockFormat,
    segments: &[SegmentRecord],
    ranges: &[Option<ValueInterval>],
) -> BlockMeta {
    debug_assert_eq!(segments.len(), ranges.len());
    let mut meta = BlockMeta {
        offset,
        stored_bytes: HEADER_BYTES as u64 + u64::from(payload_len),
        payload_len,
        format,
        checksum: payload_checksum,
        count: segments.len() as u32,
        logical_bytes: 0,
        min_gid: u32::MAX,
        max_gid: 0,
        min_start: i64::MAX,
        min_end: i64::MAX,
        max_end: i64::MIN,
        values: Some(ValueInterval::EMPTY),
    };
    for (segment, range) in segments.iter().zip(ranges) {
        meta.min_gid = meta.min_gid.min(segment.gid);
        meta.max_gid = meta.max_gid.max(segment.gid);
        meta.min_start = meta.min_start.min(segment.start_time);
        meta.min_end = meta.min_end.min(segment.end_time);
        meta.max_end = meta.max_end.max(segment.end_time);
        meta.logical_bytes += segment.storage_bytes() as u64;
        meta.values = match (meta.values, range) {
            (Some(acc), Some(r)) => Some(acc.union(r)),
            _ => None, // one unknown range makes the block unknown
        };
    }
    meta
}

/// The payload checksum of a block format: v1 keeps the byte-wise FNV the
/// format shipped with; v2 payloads use the word-folded variant.
fn payload_checksum(format: BlockFormat, payload: &[u8]) -> u32 {
    match format {
        BlockFormat::V1 => checksum(payload),
        BlockFormat::V2 => checksum_v2(payload),
    }
}

/// Turns one checksum-verified payload of the block at `offset` into a
/// [`BlockView`], the one block form the read path knows: a v2 payload is
/// validated as it is, a v1 payload is decoded and re-laid out as v2 first.
/// The demand fetch, the prefetcher and the recovery rescan all read
/// blocks through here, and the write path parks what it wrote through it.
fn block_view(payload: Vec<u8>, format: BlockFormat, count: u32, offset: u64) -> Result<BlockView> {
    let corrupt = |what: &str| {
        MdbError::Corrupt(format!(
            "block at offset {offset} passed its checksum but failed {what}"
        ))
    };
    let payload = match format {
        BlockFormat::V1 => {
            let mut rest = payload.as_slice();
            let records: Option<Vec<SegmentRecord>> =
                (0..count).map(|_| read_segment(&mut rest)).collect();
            match records {
                Some(records) if rest.is_empty() => encode_block_v2(&records),
                _ => return Err(corrupt("to decode")),
            }
        }
        BlockFormat::V2 => payload,
    };
    BlockView::parse(payload, count).ok_or_else(|| corrupt("layout validation"))
}

/// What `open` recovered without keeping any segment bodies resident.
struct Recovered {
    blocks: Vec<BlockMeta>,
    /// Running per-gid sketches adopted from the sidecar and/or fed by the
    /// scan; empty without a sketch feed.
    sketches: GroupSketches,
    /// Rollup cells adopted from the sidecar and/or rebuilt by the scan;
    /// present exactly when a rollup feed was configured.
    rollups: Option<RollupCells>,
    valid_len: u64,
    /// True when the on-disk sidecar already describes exactly this state.
    sidecar_fresh: bool,
}

/// Recovers the store's metadata: from the sidecar when it is valid for a
/// prefix of the log (then only the suffix is scanned), from a full
/// streaming scan otherwise.
fn recover(backend: &dyn Backend, absorber: &mut Absorber) -> Result<Recovered> {
    let rollup_levels = absorber.rollup_levels().map(<[TimeLevel]>::to_vec);
    let actual_len = backend.len()?;
    let mut recovered = Recovered {
        blocks: Vec::new(),
        sketches: GroupSketches::default(),
        rollups: rollup_levels.clone().map(RollupCells::new),
        valid_len: 0,
        sidecar_fresh: false,
    };
    let mut sidecar_covered = 0u64;
    if let Some(sc) = backend
        .read_sidecar()?
        .and_then(|bytes| sidecar::parse(&bytes))
    {
        // A sidecar written without a value-bounds provider has sound but
        // boundless value statistics; adopting it when this open *has*
        // bounds would permanently disable value pruning a rescan can
        // restore (the other direction is fine — see [`Sidecar`]).
        let bounds_compatible = sc.value_bounded || !absorber.bounds_values();
        // Same rule for sketches: a sidecar written without a sketch feed
        // has no sketches to adopt, and adopting it when this open *has* a
        // feed would leave sketch queries permanently unanswerable when a
        // rescan can regenerate them from the blocks.
        let sketch_compatible = sc.sketched || !absorber.sketches();
        // And for rollups: a store opened *with* a feed only adopts a
        // sidecar whose cells were maintained at the same levels (a
        // poisoned map is adopted as-is — staying unsound is correct; a
        // level mismatch or a rollup-less sidecar forces the rescan that
        // rebuilds the cells).
        let rollup_compatible = match &rollup_levels {
            None => true,
            Some(levels) => sc
                .rollups
                .as_ref()
                .is_some_and(|cells| cells.levels() == levels.as_slice()),
        };
        if bounds_compatible
            && sketch_compatible
            && rollup_compatible
            && sc.log_len <= actual_len
            && last_block_intact(backend, &sc)
        {
            recovered.valid_len = sc.log_len;
            sidecar_covered = sc.log_len;
            recovered.blocks = sc.blocks;
            if absorber.sketches() {
                recovered.sketches = sc.sketches;
            }
            if rollup_levels.is_some() {
                recovered.rollups = sc.rollups;
            }
        }
        // A sidecar describing more log than exists (the log lost a tail)
        // or whose last block fails validation cannot be trusted at all:
        // fall through to the full streaming scan.
    }
    scan_blocks_from(backend, actual_len, absorber, &mut recovered)?;
    recovered.sidecar_fresh = recovered.valid_len == sidecar_covered;
    Ok(recovered)
}

/// Validates the last block a sidecar describes against the log: the header
/// must match the recorded summary and the payload its checksum. O(one
/// block), the price of trusting O(blocks) metadata instead of rescanning
/// O(log).
fn last_block_intact(backend: &dyn Backend, sc: &Sidecar) -> bool {
    let Some(meta) = sc.blocks.last() else {
        // An empty sidecar describes an empty log prefix; trivially intact.
        return sc.log_len == 0;
    };
    if meta.offset + meta.stored_bytes != sc.log_len {
        return false;
    }
    let check = || -> std::io::Result<bool> {
        let mut header = [0u8; HEADER_BYTES];
        backend.read_at(meta.offset, &mut header)?;
        if decode_header(&header) != decode_header(&encode_header(meta)) {
            return Ok(false);
        }
        let mut payload = vec![0u8; meta.payload_len as usize];
        backend.read_at(meta.offset + HEADER_BYTES as u64, &mut payload)?;
        Ok(payload_checksum(meta.format, &payload) == meta.checksum)
    };
    check().unwrap_or(false)
}

/// Streams the log from `recovered.valid_len`, one block at a time with a
/// bounded buffer (never the whole log at once), appending recovered block
/// summaries (with the segments' stored-value ranges) and feeding rollup
/// cells and running sketches. Leaves `recovered.valid_len` at the end of
/// the last valid block; a torn or corrupt tail block simply stops the
/// scan.
fn scan_blocks_from(
    backend: &dyn Backend,
    actual_len: u64,
    absorber: &mut Absorber,
    recovered: &mut Recovered,
) -> Result<()> {
    let mut offset = recovered.valid_len;
    let mut header = [0u8; HEADER_BYTES];
    let mut payload = Vec::new();
    while offset + (HEADER_BYTES as u64) <= actual_len {
        backend.read_at(offset, &mut header)?;
        let [magic, payload_len, expected, count] = decode_header(&header);
        let Some(format) = format_of(magic) else {
            break;
        };
        let body_start = offset + HEADER_BYTES as u64;
        if body_start + u64::from(payload_len) > actual_len {
            break; // torn tail block
        }
        payload.resize(payload_len as usize, 0);
        backend.read_at(body_start, &mut payload)?;
        if payload_checksum(format, &payload) != expected {
            break; // corrupt tail block
        }
        // The one-time rescan materializes records whatever the format —
        // every statistic needs every segment once.
        let segments =
            block_view(std::mem::take(&mut payload), format, count, offset)?.to_records();
        // Absorbed in log order — the order the insert path absorbed them
        // in originally — so block value ranges, rollup cells (rebuilt, or
        // extended on a suffix scan) and the running sketches come out as
        // they were written.
        let ranges: Vec<Option<ValueInterval>> = segments
            .iter()
            .map(|segment| {
                absorber.absorb(segment, recovered.rollups.as_mut(), &mut recovered.sketches)
            })
            .collect();
        recovered.blocks.push(summarize_block(
            offset,
            payload_len,
            expected,
            format,
            &segments,
            &ranges,
        ));
        offset = body_start + u64::from(payload_len);
        recovered.valid_len = offset;
    }
    Ok(())
}

impl SegmentStore for DiskStore {
    fn insert(&mut self, segment: SegmentRecord) -> Result<()> {
        let range = self
            .absorber
            .absorb(&segment, self.rollups.as_mut(), &mut self.sketches);
        self.logical_bytes += segment.storage_bytes() as u64;
        self.n_segments += 1;
        match &mut self.buffer_envelope {
            Some(envelope) => envelope.include(&segment),
            None => self.buffer_envelope = Some(SegmentEnvelope::of(&segment)),
        }
        self.write_buffer.push(segment);
        self.buffer_ranges.push(range);
        self.buffer_peak = self.buffer_peak.max(self.write_buffer.len());
        if self.write_buffer.len() >= self.bulk_write_size {
            self.write_block()?;
        }
        Ok(())
    }

    /// Appends the write buffer as one block (parked in the cache, see
    /// `write_block`), syncs the log and rewrites a dirty sidecar.
    fn flush(&mut self) -> Result<()> {
        self.write_block()?;
        self.backend.sync()?;
        // The sidecar is rewritten once per flush, not per appended block;
        // blocks a crash strands between flushes are recovered by the
        // suffix scan on reopen.
        if self.sidecar_dirty {
            self.write_sidecar()?;
            self.sidecar_dirty = false;
        }
        Ok(())
    }

    fn import_run(&mut self, run: Vec<SegmentRecord>) -> Result<()> {
        for segment in run {
            self.insert(segment)?;
        }
        // Cut the block at the run boundary (a no-op if `insert` already
        // cut one via `bulk_write_size`), so an imported log mirrors the
        // source's block structure instead of re-batching it.
        self.write_block()
    }

    fn scan_runs(
        &self,
        predicate: &SegmentPredicate,
        f: &mut dyn FnMut(SegmentRun<'_>),
    ) -> Result<()> {
        let sorted_gids: Option<Vec<Gid>> = predicate.gids.as_ref().map(|gids| {
            let mut sorted = gids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            sorted
        });
        let survivors: Vec<&BlockMeta> = self
            .blocks
            .iter()
            .filter(|meta| {
                !self.pruning || !Self::block_pruned(meta, predicate, sorted_gids.as_deref())
            })
            .collect();
        // Read-ahead: while block k is fetched and folded, the prefetcher
        // pulls the next surviving blocks into the cache, coalescing
        // file-adjacent blocks into single-read spans. `issued` never
        // regresses, so each block is queued at most once per scan; a full
        // queue just pauses issuing until the scan catches up.
        let mut issued = 0usize;
        for (k, meta) in survivors.iter().enumerate() {
            if let Some(prefetch) = &self.prefetch {
                issued = issued.max(k + 1);
                // Top up only once the lookahead has drained to half the
                // window: topping up on every block would degenerate into
                // single-block spans (and a thread handoff per block) as
                // soon as the window slides.
                let drained = issued <= k + prefetch.depth.div_ceil(2);
                'issue: while drained && issued < survivors.len() && issued <= k + prefetch.depth {
                    if self.cache.contains(survivors[issued].offset) {
                        issued += 1;
                        continue;
                    }
                    let mut span = vec![BlockMeta::clone(survivors[issued])];
                    let mut next = issued + 1;
                    while next < survivors.len() && next <= k + prefetch.depth {
                        let tail = span.last().expect("span is non-empty");
                        if survivors[next].offset != tail.offset + tail.stored_bytes
                            || self.cache.contains(survivors[next].offset)
                        {
                            break;
                        }
                        span.push(BlockMeta::clone(survivors[next]));
                        next += 1;
                    }
                    if !prefetch.issue(span) {
                        break 'issue;
                    }
                    issued = next;
                }
            }
            // If the block is in the prefetcher's hands, wait for it to be
            // staged instead of reading it a second time.
            if let Some(prefetch) = &self.prefetch {
                prefetch.state.wait_for(meta.offset);
            }
            let block = self.fetch_block(meta)?;
            let segments = (0..block.len()).map(|i| block.segment(i));
            let covered = self.pruning && predicate.covers(&SegmentEnvelope::from(*meta));
            emit_runs(segments, predicate, covered, |lo, hi| {
                f(SegmentRun::Block {
                    block: &block,
                    lo,
                    hi,
                })
            });
        }
        // Buffered (not yet durable) segments scan last, in insert order.
        let buffer = &self.write_buffer;
        let covered = self.pruning
            && self
                .buffer_envelope
                .is_some_and(|envelope| predicate.covers(&envelope));
        emit_runs(
            buffer.iter().map(SegmentRecord::view),
            predicate,
            covered,
            |lo, hi| f(SegmentRun::Buffered(&buffer[lo..hi])),
        );
        Ok(())
    }

    /// Answered from the per-gid running sketches alone: no block body is
    /// fetched and the cache counters do not move. The running sketches
    /// were fed every segment at insert, the write buffer's included, so
    /// nothing is decoded here. A poisoned gid in scope (one of its
    /// segments could not be fed) makes the answer unsound, so the store
    /// reports itself sketch-less for that scope.
    fn merge_sketches(&self, scope: Option<&[Gid]>) -> Result<Option<BlockSketch>> {
        if !self.absorber.sketches() {
            return Ok(None);
        }
        let sorted_scope: Option<Vec<Gid>> = scope.map(|gids| {
            let mut sorted = gids.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            sorted
        });
        let in_scope = |gid: Gid| {
            sorted_scope
                .as_deref()
                .is_none_or(|s| s.binary_search(&gid).is_ok())
        };
        let mut merged = BlockSketch::new();
        let sound = self.sketches.merge_into(in_scope, &mut merged);
        Ok(sound.then_some(merged))
    }

    /// Answered from the materialized cell map alone: no block body is
    /// fetched and the cache counters do not move. Cells are fed on insert,
    /// so buffered segments are covered exactly like a scan would cover
    /// them. `Ok(false)` (no feed, unmaintained level, or a poisoned map)
    /// sends the caller to the scan path.
    fn rollup_cells(
        &self,
        level: TimeLevel,
        scope: Option<&[Gid]>,
        range: (Timestamp, Timestamp),
        f: &mut dyn FnMut(&[KeyedCell]),
    ) -> Result<bool> {
        let Some(cells) = self.rollups.as_ref() else {
            return Ok(false);
        };
        if !cells.is_sound() || !cells.levels().contains(&level) {
            return Ok(false);
        }
        cells.for_each(level, scope, range, f);
        Ok(true)
    }

    /// Answered from the block summaries and the write buffer's running
    /// envelope alone: no block body is fetched. Pruning by gid and time
    /// applies even with [`DiskStore::set_pruning`] off — the envelopes are
    /// statistics, not a scan.
    fn segment_envelopes(
        &self,
        scope: Option<&[Gid]>,
        (from, to): (Timestamp, Timestamp),
        f: &mut dyn FnMut(&SegmentEnvelope),
    ) -> Result<bool> {
        let sorted_scope: Option<Vec<Gid>> = scope.map(|gids| {
            let mut sorted = gids.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            sorted
        });
        let meets = |e: &SegmentEnvelope| {
            let in_scope = sorted_scope.as_deref().is_none_or(|gids| {
                let i = gids.partition_point(|g| *g < e.min_gid);
                gids.get(i).is_some_and(|g| *g <= e.max_gid)
            });
            in_scope && e.max_end >= from && e.min_start <= to
        };
        let blocks = self.blocks.iter().map(SegmentEnvelope::from);
        for envelope in blocks.chain(self.buffer_envelope) {
            if meets(&envelope) {
                f(&envelope);
            }
        }
        Ok(true)
    }

    fn len(&self) -> usize {
        self.n_segments
    }

    fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }

    fn persistent_bytes(&self) -> u64 {
        self.persistent_bytes
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn digest_stats(&self) -> DigestStats {
        self.absorber.stats()
    }

    fn resident_segments(&self) -> usize {
        self.cache.stats().resident_segments + self.write_buffer.len()
    }

    fn resident_segment_peak(&self) -> usize {
        // Upper bound: the two peaks need not have coincided.
        self.cache.stats().peak_resident_segments + self.buffer_peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SHARDS;
    use crate::digest::testing::TestDigester;
    use crate::rollup::RollupAcc;
    use crate::scan_to_vec;
    use bytes::Bytes;
    use mdb_types::{GapsMask, Tid};

    fn seg(gid: Gid, start: i64, end: i64) -> SegmentRecord {
        SegmentRecord {
            gid,
            start_time: start,
            end_time: end,
            sampling_interval: 100,
            mid: 1,
            params: Bytes::from(vec![gid as u8; 8]),
            gaps: GapsMask::EMPTY,
        }
    }

    fn temp_dir(tag: &str) -> mdb_testutil::TempDir {
        mdb_testutil::TempDir::new(&format!("disk-{tag}"))
    }

    fn with_bulk(bulk_write_size: usize) -> DiskStoreOptions {
        DiskStoreOptions {
            bulk_write_size,
            ..DiskStoreOptions::default()
        }
    }

    /// Opens the file-backed store in `dir` with an unbounded cache.
    fn open(dir: &Path, bulk_write_size: usize) -> DiskStore {
        DiskStore::open_with(dir, with_bulk(bulk_write_size)).unwrap()
    }

    /// Where a test store's bytes live; reopening opens over the same bytes.
    enum Place {
        File(mdb_testutil::TempDir),
        Memory(MemoryBackend),
    }

    impl Place {
        /// A fresh directory and fresh RAM: run a test on both backends.
        fn both(tag: &str) -> [Place; 2] {
            [
                Place::File(temp_dir(tag)),
                Place::Memory(MemoryBackend::default()),
            ]
        }

        fn open_with(&self, options: DiskStoreOptions) -> DiskStore {
            match self {
                Place::File(dir) => DiskStore::open_with(dir.path(), options),
                Place::Memory(bytes) => DiskStore::open_on(Arc::new(bytes.clone()), options),
            }
            .unwrap()
        }

        fn open(&self, bulk_write_size: usize) -> DiskStore {
            self.open_with(with_bulk(bulk_write_size))
        }
    }

    #[test]
    fn write_flush_reopen_round_trips() {
        for place in Place::both("roundtrip") {
            {
                let mut store = place.open(10);
                for i in 0..25 {
                    store
                        .insert(seg(i % 3 + 1, i as i64 * 1000, i as i64 * 1000 + 900))
                        .unwrap();
                }
                store.flush().unwrap();
                assert_eq!(store.len(), 25);
            }
            let store = place.open(10);
            assert_eq!(store.len(), 25);
            let got = scan_to_vec(&store, &SegmentPredicate::for_gids(vec![2])).unwrap();
            assert!(got.iter().all(|s| s.gid == 2));
            assert!(!got.is_empty());
        }
    }

    #[test]
    fn bulk_write_size_triggers_automatic_blocks() {
        for place in Place::both("bulk") {
            let mut store = place.open(5);
            for i in 0..12 {
                store.insert(seg(1, i * 1000, i * 1000 + 900)).unwrap();
            }
            // Two full blocks are in the log; two segments still buffered.
            assert_eq!(store.block_count(), 2);
            assert!(store.persistent_bytes() > 0);
            let durable_before_flush = store.persistent_bytes();
            store.flush().unwrap();
            assert!(store.persistent_bytes() > durable_before_flush);
            assert_eq!(store.block_count(), 3);
        }
    }

    #[test]
    fn unflushed_segments_are_still_queryable() {
        for place in Place::both("buffered") {
            let mut store = place.open(1000);
            store.insert(seg(1, 0, 900)).unwrap();
            assert_eq!(
                scan_to_vec(&store, &SegmentPredicate::all()).unwrap().len(),
                1
            );
        }
    }

    /// Segments 1..=5 of one group each, in gid order, split over blocks
    /// of two and a write buffer of one.
    fn one_segment_per_gid(store: &mut DiskStore) {
        for gid in 1..=5 {
            store.insert(seg(gid, 0, 900)).unwrap();
        }
    }

    #[test]
    fn gid_pushdown_restricts_scan() {
        for place in Place::both("gid-pushdown") {
            let mut store = place.open(2);
            one_segment_per_gid(&mut store);
            let gids = |predicate| -> Vec<Gid> {
                let got = scan_to_vec(&store, &predicate).unwrap();
                got.iter().map(|s| s.gid).collect()
            };
            assert_eq!(gids(SegmentPredicate::for_gids(vec![4, 2])), vec![2, 4]);
            // Duplicate gids in the predicate do not duplicate results.
            assert_eq!(gids(SegmentPredicate::for_gids(vec![2, 2])), vec![2]);
            assert_eq!(gids(SegmentPredicate::for_gids(vec![5, 5, 1])), vec![1, 5]);
        }
    }

    #[test]
    fn time_range_pushdown() {
        for place in Place::both("time-pushdown") {
            let mut store = place.open(2);
            for i in 0..3 {
                store.insert(seg(1, i * 1000, i * 1000 + 900)).unwrap();
            }
            let got = scan_to_vec(
                &store,
                &SegmentPredicate::for_gids(vec![1]).with_time_range(950, 1950),
            )
            .unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].start_time, 1000);
            // Overlap at the edges is inclusive, in a block and in the
            // write buffer alike.
            let starts = |from, to| -> Vec<i64> {
                let predicate = SegmentPredicate::all().with_time_range(from, to);
                let got = scan_to_vec(&store, &predicate).unwrap();
                got.iter().map(|s| s.start_time).collect()
            };
            assert_eq!(starts(900, 1000), vec![0, 1000]);
            assert_eq!(starts(1900, 2000), vec![1000, 2000]);
            assert_eq!(starts(2900, 2900), vec![2000]);
            assert_eq!(starts(901, 999), Vec::<i64>::new());
        }
    }

    /// Dynamic splitting produces segments with the same `(gid, end_time)`
    /// and different gaps (the reason Gaps is part of the key, Section 3.3).
    #[test]
    fn sibling_segments_with_same_end_time_coexist() {
        for place in Place::both("siblings") {
            let sibling = |gaps| SegmentRecord {
                gaps: GapsMask(gaps),
                ..seg(1, 0, 900)
            };
            {
                let mut store = place.open(1);
                store.insert(sibling(0b01)).unwrap();
                store.insert(sibling(0b10)).unwrap();
                store.flush().unwrap();
            }
            let store = place.open(1);
            assert_eq!(store.len(), 2);
            assert_eq!(
                scan_to_vec(&store, &SegmentPredicate::for_gids(vec![1])).unwrap(),
                vec![sibling(0b01), sibling(0b10)]
            );
        }
    }

    #[test]
    fn logical_bytes_tracks_inserts() {
        for place in Place::both("logical-bytes") {
            let segment = seg(1, 0, 900);
            let bytes = segment.storage_bytes() as u64;
            {
                let mut store = place.open(2);
                assert_eq!(store.logical_bytes(), 0);
                store.insert(segment.clone()).unwrap();
                assert_eq!(store.logical_bytes(), bytes);
                store.insert(seg(2, 0, 900)).unwrap();
                store.insert(segment.clone()).unwrap();
                assert_eq!(store.logical_bytes(), 3 * bytes, "buffered and written");
                store.flush().unwrap();
            }
            // Recovered from the block summaries.
            assert_eq!(place.open(2).logical_bytes(), 3 * bytes);
        }
    }

    /// A test backend over RAM that short-writes the `fail_write`-th
    /// `write_at` (only a prefix of the bytes lands) and fails the
    /// `fail_sync`-th `sync`, counting from 1; every other call passes
    /// through.
    struct Faulty {
        bytes: MemoryBackend,
        fail_write: usize,
        fail_sync: usize,
        writes: std::sync::atomic::AtomicUsize,
        syncs: std::sync::atomic::AtomicUsize,
    }

    impl Backend for Faulty {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
            self.bytes.read_at(offset, buf)
        }

        fn write_at(&self, offset: u64, bytes: &[u8]) -> std::io::Result<()> {
            let n = self
                .writes
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
                + 1;
            if n == self.fail_write {
                self.bytes.write_at(offset, &bytes[..bytes.len() / 2])?;
                return Err(std::io::ErrorKind::WriteZero.into());
            }
            self.bytes.write_at(offset, bytes)
        }

        fn len(&self) -> std::io::Result<u64> {
            self.bytes.len()
        }

        fn truncate(&self, len: u64) -> std::io::Result<()> {
            self.bytes.truncate(len)
        }

        fn sync(&self) -> std::io::Result<()> {
            let n = self.syncs.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
            if n == self.fail_sync {
                return Err(std::io::Error::other("injected fsync failure"));
            }
            self.bytes.sync()
        }

        fn read_sidecar(&self) -> std::io::Result<Option<Vec<u8>>> {
            self.bytes.read_sidecar()
        }

        fn replace_sidecar(&self, bytes: &[u8]) -> std::io::Result<()> {
            self.bytes.replace_sidecar(bytes)
        }
    }

    #[test]
    fn failed_block_writes_and_syncs_reach_the_caller_and_are_retried() {
        let bytes = MemoryBackend::default();
        let faulty = Arc::new(Faulty {
            bytes: bytes.clone(),
            fail_write: 2,
            fail_sync: 2,
            writes: Default::default(),
            syncs: Default::default(),
        });
        // One sketched value per segment: a failed write must not lose the
        // buffered segments' sketch updates, and the sidecar must never
        // persist them before their block is durable.
        let options = || DiskStoreOptions {
            bulk_write_size: 100,
            ..TestDigester::default()
                .sketch(|s, sketch| {
                    sketch.quantiles.insert(s.end_time as f64);
                    true
                })
                .options()
        };
        let mut store = DiskStore::open_on(faulty, options()).unwrap();
        let segments: Vec<SegmentRecord> = (0..12)
            .map(|i| seg(i % 3 + 1, i as i64 * 1000, i as i64 * 1000 + 900))
            .collect();
        let all = SegmentPredicate::all();
        // Reopens over a copy of the bytes as they are now, so recovery's
        // truncation does not touch the live store's log; returns what
        // scans back and how many values the running sketches hold.
        let reopen = || {
            let copy = MemoryBackend::default();
            let mut log = vec![0; bytes.len().unwrap() as usize];
            bytes.read_at(0, &mut log).unwrap();
            copy.write_at(0, &log).unwrap();
            if let Some(sidecar) = bytes.read_sidecar().unwrap() {
                copy.replace_sidecar(&sidecar).unwrap();
            }
            let store = DiskStore::open_on(Arc::new(copy), options()).unwrap();
            let sketched = store.merge_sketches(None).unwrap();
            let count = sketched.expect("sketches are sound").quantiles.count();
            (scan_to_vec(&store, &all).unwrap(), count)
        };

        // Write 1 and sync 1 succeed.
        for segment in &segments[..4] {
            store.insert(segment.clone()).unwrap();
        }
        store.flush().unwrap();
        let resident = store.cache_stats().resident_bytes;
        assert_eq!(resident as u64, store.persistent_bytes(), "parked on write");
        // Write 2 is short: the error reaches the caller, half a block
        // sits past the valid log, and reopening recovers the first flush.
        for segment in &segments[4..8] {
            store.insert(segment.clone()).unwrap();
        }
        assert!(matches!(store.flush(), Err(MdbError::Io(_))));
        assert!(bytes.len().unwrap() > store.persistent_bytes());
        assert_eq!(
            store.cache_stats().resident_bytes,
            resident,
            "nothing parked"
        );
        assert_eq!(reopen(), (segments[..4].to_vec(), 4));
        assert_eq!(
            scan_to_vec(&store, &all).unwrap(),
            segments[..8],
            "still buffered"
        );
        // The retry (write 3) overwrites the torn attempt in place, and
        // more inserts join the retried block. Sync 2 fails after the
        // block is written; the flush reports it.
        for segment in &segments[8..10] {
            store.insert(segment.clone()).unwrap();
        }
        assert!(matches!(store.flush(), Err(MdbError::Io(_))));
        assert_eq!(
            store.cache_stats().resident_bytes as u64,
            store.persistent_bytes(),
            "the retried block is parked"
        );
        assert_eq!(scan_to_vec(&store, &all).unwrap(), reopen().0);
        // Sync 3 succeeds: the sidecar the failed flush owed is written.
        store.insert(segments[10].clone()).unwrap();
        store.insert(segments[11].clone()).unwrap();
        store.flush().unwrap();
        // Every segment scans back exactly once, in the store and after
        // reopening over the same bytes — through the sidecar, and
        // through the rescan that validates every block.
        assert_eq!(scan_to_vec(&store, &all).unwrap(), segments);
        assert_eq!(store.cache_stats().misses, 0, "every block was parked");
        let sketched = store
            .merge_sketches(None)
            .unwrap()
            .expect("sketches are sound");
        assert_eq!(sketched.quantiles.count(), segments.len() as u64);
        assert_eq!(bytes.len().unwrap(), store.persistent_bytes());
        assert_eq!(reopen(), (segments.clone(), 12));
        bytes.replace_sidecar(&[]).unwrap();
        assert_eq!(reopen(), (segments, 12));
    }

    /// A segment the digester cannot sketch poisons its own gid only —
    /// while it is buffered, after its block is written, and through a
    /// sidecar reopen — so scopes without that gid keep answering exactly
    /// what a store without it would.
    #[test]
    fn an_unfeedable_segment_poisons_only_its_gid() {
        // Segment 4 (gid 2) cannot be fed.
        let options = || DiskStoreOptions {
            bulk_write_size: 4,
            ..TestDigester::default()
                .sketch(|s, sketch| {
                    sketch.quantiles.insert(s.end_time as f64);
                    s.start_time != 4000
                })
                .options()
        };
        let backend = MemoryBackend::default();
        let mut store = DiskStore::open_on(Arc::new(backend.clone()), options()).unwrap();
        let answers = |store: &DiskStore| {
            let answer = |scope: Option<&[Gid]>| {
                let merged = store.merge_sketches(scope).unwrap();
                merged.map(|m| m.quantiles.count())
            };
            [
                answer(None),
                answer(Some(&[1, 3])),
                answer(Some(&[2])),
                answer(Some(&[3, 2])),
            ]
        };
        // Segment j belongs to gid j % 3 + 1; blocks are cut after 4 and 8
        // segments, so the poisoned segment is first buffered, then
        // written.
        let count = |n: usize, gids: &[Gid]| {
            (0..n)
                .filter(|j| gids.contains(&(*j as Gid % 3 + 1)))
                .count() as u64
        };
        for n in 1..=9 {
            let i = n as i64 - 1;
            store
                .insert(seg(i as Gid % 3 + 1, i * 1000, i * 1000 + 900))
                .unwrap();
            let want = if n <= 4 {
                [
                    Some(n as u64),
                    Some(count(n, &[1, 3])),
                    Some(count(n, &[2])),
                    Some(count(n, &[2, 3])),
                ]
            } else {
                [None, Some(count(n, &[1, 3])), None, None]
            };
            assert_eq!(answers(&store), want, "after {n} segments");
        }
        store.flush().unwrap();
        let reopened = DiskStore::open_on(Arc::new(backend.clone()), options()).unwrap();
        assert_eq!(reopened.digest_stats().digests, 0, "the sidecar is adopted");
        assert_eq!(answers(&reopened), [None, Some(6), None, None]);
    }

    #[test]
    fn torn_tail_block_is_truncated_on_recovery() {
        let dir = temp_dir("torn");
        {
            let mut store = open(dir.path(), 5);
            for i in 0..10 {
                store.insert(seg(1, i * 1000, i * 1000 + 900)).unwrap();
            }
            store.flush().unwrap();
        }
        // Corrupt the file by appending garbage (simulated torn write).
        let path = dir.join("segments.log");
        let mut bytes = std::fs::read(&path).unwrap();
        let intact = bytes.len();
        bytes.extend_from_slice(&BLOCK_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 40]);
        std::fs::write(&path, &bytes).unwrap();
        let store = open(dir.path(), 5);
        assert_eq!(store.len(), 10, "valid blocks survive");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            intact as u64,
            "tail truncated"
        );
    }

    #[test]
    fn corrupt_payload_is_rejected_at_open_or_read() {
        let dir = temp_dir("corrupt");
        {
            let mut store = open(dir.path(), 5);
            for i in 0..5 {
                store.insert(seg(1, i * 1000, i * 1000 + 900)).unwrap();
            }
            store.flush().unwrap();
        }
        let path = dir.join("segments.log");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        // With the sidecar present its last-block validation fails, so the
        // store falls back to a full rescan: the (single) corrupt block is
        // dropped.
        let store = open(dir.path(), 5);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn interior_corruption_is_detected_lazily_by_the_fetch_checksum() {
        let dir = temp_dir("bitrot");
        {
            let mut store = open(dir.path(), 5);
            for i in 0..10 {
                store.insert(seg(1, i * 1000, i * 1000 + 900)).unwrap();
            }
            store.flush().unwrap();
        }
        // Flip a byte inside the FIRST block's payload: the sidecar's
        // last-block validation still passes, so the store opens with all
        // summaries — but fetching the rotten block must error, never
        // silently return bad segments.
        let path = dir.join("segments.log");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_BYTES + 4] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        let store = open(dir.path(), 5);
        assert_eq!(store.len(), 10, "summaries open fine");
        let err = scan_to_vec(&store, &SegmentPredicate::all()).unwrap_err();
        assert!(matches!(err, MdbError::Corrupt(_)), "{err}");
    }

    #[test]
    fn append_after_recovery_continues_the_log() {
        for place in Place::both("append") {
            {
                let mut store = place.open(2);
                for i in 0..4 {
                    store.insert(seg(1, i * 1000, i * 1000 + 900)).unwrap();
                }
                store.flush().unwrap();
            }
            {
                let mut store = place.open(2);
                assert_eq!(store.len(), 4);
                for i in 4..8 {
                    store.insert(seg(2, i * 1000, i * 1000 + 900)).unwrap();
                }
                store.flush().unwrap();
            }
            let store = place.open(2);
            assert_eq!(store.len(), 8);
            assert_eq!(
                scan_to_vec(&store, &SegmentPredicate::for_gids(vec![2]))
                    .unwrap()
                    .len(),
                4
            );
        }
    }

    #[test]
    fn empty_store_opens_cleanly() {
        for place in Place::both("empty") {
            let store = place.open(5);
            assert!(store.is_empty());
            assert_eq!(store.persistent_bytes(), 0);
        }
        let store = DiskStore::in_memory(with_bulk(5)).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.persistent_bytes(), 0);
    }

    #[test]
    fn sidecar_reopen_matches_log_rescan_reopen() {
        let dir = temp_dir("sidecar-vs-scan");
        {
            let mut store = open(dir.path(), 7);
            for i in 0..40 {
                store
                    .insert(seg(i % 4 + 1, i as i64 * 1000, i as i64 * 1000 + 900))
                    .unwrap();
            }
            store.flush().unwrap();
        }
        let with_sidecar = open(dir.path(), 7);
        let via_sidecar = scan_to_vec(&with_sidecar, &SegmentPredicate::all()).unwrap();
        let blocks_via_sidecar = with_sidecar.blocks.clone();
        drop(with_sidecar);
        std::fs::remove_file(dir.join("segments.idx")).unwrap();
        let rebuilt = open(dir.path(), 7);
        let via_scan = scan_to_vec(&rebuilt, &SegmentPredicate::all()).unwrap();
        assert_eq!(via_sidecar, via_scan);
        assert_eq!(blocks_via_sidecar, rebuilt.blocks);
        assert!(
            dir.join("segments.idx").exists(),
            "rescan rebuilds the sidecar"
        );
    }

    #[test]
    fn opening_with_bounds_rescans_a_boundless_sidecar() {
        let dir = temp_dir("bounds-upgrade");
        {
            // Written without a value-bounds provider: the sidecar carries
            // boundless value statistics.
            let mut store = open(dir.path(), 4);
            for i in 0..8 {
                store.insert(seg(1, i * 1000, i * 1000 + 900)).unwrap();
            }
            store.flush().unwrap();
        }
        // Reopening WITH bounds must not adopt those statistics — a rescan
        // recomputes them so value pruning works.
        let open_with_bounds = || {
            let bounds = TestDigester::default()
                .range(|s| Some(ValueInterval::new(s.start_time as f64, s.end_time as f64)));
            DiskStore::open_with(
                dir.path(),
                DiskStoreOptions {
                    bulk_write_size: 4,
                    ..bounds.options()
                },
            )
            .unwrap()
        };
        // Every stored value lies in [0, 7900]: a value predicate above
        // that range prunes every block, so the scan fetches none.
        let prunes_every_block = |store: &DiskStore, label: &str| {
            let above = SegmentPredicate::all().with_values(ValueInterval::new(1e6, 2e6));
            assert!(scan_to_vec(store, &above).unwrap().is_empty(), "{label}");
            assert_eq!(
                store.cache_stats().misses,
                0,
                "{label}: a block was fetched"
            );
            // The counter does move when blocks are fetched.
            assert_eq!(
                scan_to_vec(store, &SegmentPredicate::all()).unwrap().len(),
                8
            );
            assert_eq!(store.cache_stats().misses, 2, "{label}");
        };
        prunes_every_block(&open_with_bounds(), "rescan restores value statistics");
        // And the rescan rewrote a bounds-aware sidecar: the next open
        // trusts it directly and prunes the same way.
        prunes_every_block(&open_with_bounds(), "reopen adopts the rewritten sidecar");
    }

    /// The runs `scan_runs` yields, each as `(from a block, lo, hi)`, with
    /// a buffered run's indices into the write buffer.
    fn runs_of(store: &DiskStore, predicate: &SegmentPredicate) -> Vec<(bool, usize, usize)> {
        let mut runs = Vec::new();
        store
            .scan_runs(predicate, &mut |run| {
                runs.push(match run {
                    SegmentRun::Block { lo, hi, .. } => (true, lo, hi),
                    SegmentRun::Buffered(records) => {
                        let buffer = &store.write_buffer;
                        let lo = buffer.iter().position(|r| std::ptr::eq(r, &records[0]));
                        let lo = lo.expect("a buffered run borrows the write buffer");
                        (false, lo, lo + records.len())
                    }
                })
            })
            .unwrap();
        runs
    }

    #[test]
    fn covered_blocks_and_write_buffers_are_emitted_as_whole_runs() {
        for place in Place::both("whole-runs") {
            // Segment i is gid i % 3 + 1 over [1 000·i, 1 000·i + 900]:
            // three blocks of gids 1..=3 and a write buffer of gids 1..=2.
            let mut store = place.open(3);
            for i in 0..11i64 {
                store
                    .insert(seg((i % 3) as Gid + 1, i * 1000, i * 1000 + 900))
                    .unwrap();
            }
            assert_eq!(store.block_count(), 3);
            let envelopes: Vec<SegmentEnvelope> =
                store.blocks.iter().map(SegmentEnvelope::from).collect();
            let buffer = store.buffer_envelope.expect("two buffered segments");
            let ends_by = |t| SegmentPredicate {
                ends_by: Some(t),
                ..SegmentPredicate::all()
            };
            let window = |from, to| SegmentPredicate::all().with_time_range(from, to);
            let (b, w) = (true, false);
            // Each case: the predicate, which blocks and whether the buffer
            // it covers, and the runs it yields.
            #[allow(clippy::type_complexity)]
            let cases: Vec<(SegmentPredicate, [bool; 4], Vec<(bool, usize, usize)>)> = vec![
                // A window holding whole blocks: one run per block.
                (
                    window(0, 5900),
                    [true, true, false, false],
                    vec![(b, 0, 3), (b, 0, 3)],
                ),
                (
                    ends_by(5900),
                    [true, true, false, false],
                    vec![(b, 0, 3), (b, 0, 3)],
                ),
                (
                    window(0, i64::MAX),
                    [true; 4],
                    vec![(b, 0, 3), (b, 0, 3), (b, 0, 3), (w, 0, 2)],
                ),
                // Blocks the window cuts are matched segment by segment.
                (
                    window(1000, 6900),
                    [false, true, false, false],
                    vec![(b, 1, 3), (b, 0, 3), (b, 0, 1)],
                ),
                // A gid set covering the blocks' range, in any order.
                (
                    SegmentPredicate::for_gids(vec![3, 1, 2]),
                    [true; 4],
                    vec![(b, 0, 3), (b, 0, 3), (b, 0, 3), (w, 0, 2)],
                ),
                // A hole inside the range: no block is covered.
                (
                    SegmentPredicate::for_gids(vec![1, 3]),
                    [false; 4],
                    vec![
                        (b, 0, 1),
                        (b, 2, 3),
                        (b, 0, 1),
                        (b, 2, 3),
                        (b, 0, 1),
                        (b, 2, 3),
                        (w, 0, 1),
                    ],
                ),
                (
                    SegmentPredicate::for_gids(vec![1, 3, 3, 1]),
                    [false; 4],
                    vec![
                        (b, 0, 1),
                        (b, 2, 3),
                        (b, 0, 1),
                        (b, 2, 3),
                        (b, 0, 1),
                        (b, 2, 3),
                        (w, 0, 1),
                    ],
                ),
                // The write buffer follows the same rule.
                (
                    SegmentPredicate::for_gids(vec![2, 1, 2]).with_time_range(9000, 10900),
                    [false, false, false, true],
                    vec![(w, 0, 2)],
                ),
                (window(9950, 10900), [false; 4], vec![(w, 1, 2)]),
            ];
            for (predicate, covered, runs) in cases {
                let covers: Vec<bool> = envelopes
                    .iter()
                    .chain([&buffer])
                    .map(|e| predicate.covers(e))
                    .collect();
                assert_eq!(covers, covered, "{predicate:?}");
                assert_eq!(runs_of(&store, &predicate), runs, "{predicate:?}");
                let rows = scan_to_vec(&store, &predicate).unwrap();
                store.set_pruning(false);
                assert_eq!(
                    rows,
                    scan_to_vec(&store, &predicate).unwrap(),
                    "{predicate:?}"
                );
                store.set_pruning(true);
            }
        }
    }

    #[test]
    fn segment_time_bounds_skip_blocks_unfetched() {
        for place in Place::both("segment-time") {
            {
                // Three blocks of four: ends 900–3 900, 4 900–7 900 and
                // 8 900–11 900; one buffered segment after them.
                let mut store = place.open(4);
                for i in 0..12 {
                    store.insert(seg(1, i * 1000, i * 1000 + 900)).unwrap();
                }
                store.flush().unwrap();
            }
            // Each scan on a cold reopen: `misses` counts the blocks fetched.
            let scan = |predicate: SegmentPredicate| {
                let store = place.open(4);
                let kept = scan_to_vec(&store, &predicate).unwrap().len();
                (kept, store.cache_stats().misses)
            };
            // `EndTime <= 4 900`: the third block's earliest end is later.
            let ends_by = SegmentPredicate {
                ends_by: Some(4_900),
                ..SegmentPredicate::all()
            };
            assert_eq!(scan(ends_by), (5, 2));
            // `StartTime >= 8 000` pushes down as `from`: a segment ends no
            // earlier than it starts, so blocks ending before are skipped.
            let starts_from = SegmentPredicate {
                from: Some(8_000),
                ..SegmentPredicate::all()
            };
            assert_eq!(scan(starts_from), (4, 1));
            assert_eq!(scan(SegmentPredicate::all()), (12, 3));

            // The envelopes come from the summaries alone, buffer included.
            let mut store = place.open(4);
            store.insert(seg(2, 20_000, 20_900)).unwrap();
            let envelopes = |scope: Option<&[Gid]>, range| {
                let mut seen = Vec::new();
                assert!(store
                    .segment_envelopes(scope, range, &mut |e| seen.push(*e))
                    .unwrap());
                seen
            };
            let all = envelopes(None, (i64::MIN, i64::MAX));
            assert_eq!(all.len(), 4);
            assert_eq!(
                all[1],
                SegmentEnvelope {
                    min_gid: 1,
                    max_gid: 1,
                    min_start: 4_000,
                    min_end: 4_900,
                    max_end: 7_900,
                }
            );
            assert_eq!(all[3], SegmentEnvelope::of(&seg(2, 20_000, 20_900)));
            assert_eq!(envelopes(Some(&[2]), (i64::MIN, i64::MAX)), &all[3..]);
            assert_eq!(envelopes(None, (5_000, 8_000)), &all[1..3]);
            assert_eq!(store.cache_stats().misses, 0);
        }
    }

    #[test]
    fn blocks_appended_after_a_stale_sidecar_are_recovered() {
        let dir = temp_dir("stale-forward");
        {
            let mut store = open(dir.path(), 4);
            for i in 0..8 {
                store.insert(seg(1, i * 1000, i * 1000 + 900)).unwrap();
            }
            store.flush().unwrap();
        }
        // Save the current (2-block) sidecar, append two more blocks, then
        // put the stale sidecar back: reopen must scan just the suffix.
        let stale = std::fs::read(dir.join("segments.idx")).unwrap();
        {
            let mut store = open(dir.path(), 4);
            for i in 8..16 {
                store.insert(seg(2, i * 1000, i * 1000 + 900)).unwrap();
            }
            store.flush().unwrap();
        }
        std::fs::write(dir.join("segments.idx"), &stale).unwrap();
        let store = open(dir.path(), 4);
        assert_eq!(store.len(), 16);
        assert_eq!(store.block_count(), 4);
        assert_eq!(
            scan_to_vec(&store, &SegmentPredicate::for_gids(vec![2]))
                .unwrap()
                .len(),
            8
        );
    }

    #[test]
    fn block_pruning_skips_fetches_under_a_time_range() {
        for place in Place::both("prune-io") {
            let mut store = place.open(8);
            for i in 0..64 {
                store.insert(seg(1, i * 1000, i * 1000 + 900)).unwrap();
            }
            store.flush().unwrap();
            // Warm: every block was parked as it was written.
            let warm = scan_to_vec(
                &store,
                &SegmentPredicate::all().with_time_range(60_000, 60_500),
            )
            .unwrap();
            assert_eq!(warm.len(), 1);
            let stats = store.cache_stats();
            assert_eq!((stats.misses, stats.bytes_read), (0, 0), "{stats:?}");
            // Cold: a reopened store reads what it scans from the log.
            drop(store);
            let mut store = place.open(8);
            // A range inside the last block must fetch exactly one block.
            let got = scan_to_vec(
                &store,
                &SegmentPredicate::all().with_time_range(60_000, 60_500),
            )
            .unwrap();
            assert_eq!(got.len(), 1);
            let stats = store.cache_stats();
            assert_eq!(stats.misses, 1, "{stats:?}");
            // Disabling pruning fetches every block (the baseline).
            store.set_pruning(false);
            let got = scan_to_vec(
                &store,
                &SegmentPredicate::all().with_time_range(60_000, 60_500),
            )
            .unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(store.cache_stats().misses + store.cache_stats().hits, 9);
        }
    }

    /// Flushes one eight-segment block in `format` under `budget` into
    /// `place` and scans it back; returns the scan's cache counters and the
    /// block's stored bytes, after checking that a reopened store scans the
    /// same rows.
    fn scan_written_block(
        place: &Place,
        format: BlockFormat,
        budget: Option<u64>,
    ) -> (CacheStats, u64) {
        let options = || DiskStoreOptions {
            memory_budget_bytes: budget,
            write_format: format,
            ..with_bulk(100)
        };
        let all = SegmentPredicate::all();
        let mut store = place.open_with(options());
        for i in 0..8 {
            store
                .insert(seg(i % 3 + 1, i as i64 * 1000, i as i64 * 1000 + 900))
                .unwrap();
        }
        store.flush().unwrap();
        let got = scan_to_vec(&store, &all).unwrap();
        assert_eq!(got.len(), 8);
        let (stats, stored) = (store.cache_stats(), store.blocks[0].stored_bytes);
        drop(store);
        assert_eq!(scan_to_vec(&place.open_with(options()), &all).unwrap(), got);
        (stats, stored)
    }

    #[test]
    fn written_blocks_are_scanned_without_a_read_when_the_budget_holds_them() {
        for format in [BlockFormat::V1, BlockFormat::V2] {
            let [probe, _] = Place::both("park-probe");
            let (_, stored) = scan_written_block(&probe, format, None);
            // A budget whose shard share is exactly the block holds it.
            for budget in [None, Some(stored * SHARDS as u64)] {
                for place in Place::both("park-held") {
                    let (stats, _) = scan_written_block(&place, format, budget);
                    let label = format!("{format:?}, budget {budget:?}: {stats:?}");
                    assert_eq!((stats.misses, stats.bytes_read), (0, 0), "{label}");
                    assert_eq!(stats.hits, 1, "{label}");
                    assert_eq!(stats.resident_bytes as u64, stored, "{label}");
                    assert_eq!((stats.decode_validations, stats.owned_decodes), (0, 0));
                }
            }
        }
    }

    #[test]
    fn written_blocks_beyond_the_budget_are_read_back_from_the_log() {
        for format in [BlockFormat::V1, BlockFormat::V2] {
            let [probe, _] = Place::both("unparked-probe");
            let (_, stored) = scan_written_block(&probe, format, None);
            // A zero budget, and one whose shard share is a byte short.
            for budget in [Some(0), Some(stored * SHARDS as u64 - 1)] {
                for place in Place::both("unparked") {
                    let (stats, _) = scan_written_block(&place, format, budget);
                    let label = format!("{format:?}, budget {budget:?}: {stats:?}");
                    assert_eq!((stats.hits, stats.misses), (0, 1), "{label}");
                    assert_eq!(stats.bytes_read, stored, "{label}");
                    assert_eq!(stats.resident_bytes, 0, "{label}");
                }
            }
        }
    }

    #[test]
    fn export_import_round_trip_preserves_order_and_run_blocks() {
        let src_dir = temp_dir("export-src");
        let dst_dir = temp_dir("export-dst");
        let mut src = open(src_dir.path(), 4);
        for i in 0..24i64 {
            // Runs of three: gids 1,1,1,2,2,2,... so exports see real runs.
            src.insert(seg((i / 3 % 2 + 1) as Gid, i * 1000, i * 1000 + 900))
                .unwrap();
        }
        src.flush().unwrap();
        let runs = src.export_runs(&[2]).unwrap();
        let exported: Vec<SegmentRecord> = runs.iter().flatten().cloned().collect();
        assert_eq!(
            exported,
            scan_to_vec(&src, &SegmentPredicate::for_gids(vec![2])).unwrap(),
            "export preserves scan order"
        );
        assert!(runs.len() > 1, "expected several runs, got {}", runs.len());

        // Import into a store whose own bulk size would merge everything
        // into one block: run boundaries must still be preserved.
        let mut dst = open(dst_dir.path(), 1000);
        let n_runs = runs.len();
        for run in runs {
            dst.import_run(run).unwrap();
        }
        dst.flush().unwrap();
        assert_eq!(dst.block_count(), n_runs, "one block per imported run");
        assert_eq!(
            scan_to_vec(&dst, &SegmentPredicate::all()).unwrap(),
            exported
        );
        // A restart scans the identical log order.
        drop(dst);
        let dst = open(dst_dir.path(), 1000);
        assert_eq!(
            scan_to_vec(&dst, &SegmentPredicate::all()).unwrap(),
            exported
        );
    }

    #[test]
    fn bounded_cache_keeps_resident_segments_near_capacity() {
        let dir = temp_dir("budget");
        let block_segments = 16usize;
        let total = 64 * block_segments;
        // Write once to learn the exact per-block file footprint (the
        // budget's unit is file bytes now, not a heap estimate).
        let per_block = {
            let mut store = open(dir.path(), block_segments);
            for i in 0..total as i64 {
                store.insert(seg(1, i * 1000, i * 1000 + 900)).unwrap();
            }
            store.flush().unwrap();
            store.persistent_bytes() / store.block_count() as u64
        };
        // Budget ≈ 2 blocks per shard × 8 shards.
        let store = DiskStore::open_with(
            dir.path(),
            DiskStoreOptions {
                bulk_write_size: block_segments,
                memory_budget_bytes: Some(per_block * 16),
                ..DiskStoreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            scan_to_vec(&store, &SegmentPredicate::all()).unwrap().len(),
            total
        );
        let peak = store.resident_segment_peak();
        assert!(
            peak < total / 2,
            "peak {peak} should stay well below {total}"
        );
        let stats = store.cache_stats();
        assert!(
            stats.resident_bytes as u64 <= per_block * 16,
            "file-byte accounting must respect the budget: {stats:?}"
        );
    }

    #[test]
    fn v2_scans_validate_without_owned_decodes() {
        for place in Place::both("v2-counters") {
            let mut store = place.open(8);
            for i in 0..32 {
                store.insert(seg(1, i * 1000, i * 1000 + 900)).unwrap();
            }
            store.flush().unwrap();
            // Warm: the written blocks are scanned without a read.
            assert_eq!(
                scan_to_vec(&store, &SegmentPredicate::all()).unwrap().len(),
                32
            );
            let stats = store.cache_stats();
            assert_eq!((stats.misses, stats.bytes_read), (0, 0), "{stats:?}");
            // Cold: a reopened store validates each block it reads.
            drop(store);
            let store = place.open(8);
            assert_eq!(
                scan_to_vec(&store, &SegmentPredicate::all()).unwrap().len(),
                32
            );
            let stats = store.cache_stats();
            assert_eq!(stats.owned_decodes, 0, "v2 blocks never decode to owned");
            assert_eq!(stats.decode_validations, stats.misses);
            // Exact accounting: bytes read == log bytes of the fetched blocks.
            assert_eq!(stats.bytes_read, store.persistent_bytes());
        }
    }

    #[test]
    fn v1_write_format_round_trips_and_migrates_lazily() {
        let dir = temp_dir("v1-compat");
        // Write a log in the legacy format.
        {
            let mut store = DiskStore::open_with(
                dir.path(),
                DiskStoreOptions {
                    bulk_write_size: 4,
                    write_format: BlockFormat::V1,
                    ..DiskStoreOptions::default()
                },
            )
            .unwrap();
            for i in 0..8 {
                store.insert(seg(1, i * 1000, i * 1000 + 900)).unwrap();
            }
            store.flush().unwrap();
            // Warm: the v1 blocks were parked as they were written.
            assert_eq!(
                scan_to_vec(&store, &SegmentPredicate::all()).unwrap().len(),
                8
            );
            let stats = store.cache_stats();
            assert_eq!((stats.misses, stats.bytes_read), (0, 0), "{stats:?}");
        }
        // Reopen with the default (v2) writer: v1 blocks stay readable,
        // new blocks append as v2, and scans cross the format boundary.
        let mut store = open(dir.path(), 4);
        assert_eq!(store.len(), 8);
        assert!(store.blocks.iter().all(|b| b.format == BlockFormat::V1));
        for i in 8..16 {
            store.insert(seg(2, i * 1000, i * 1000 + 900)).unwrap();
        }
        store.flush().unwrap();
        assert_eq!(store.blocks[2].format, BlockFormat::V2);
        // Warm: the v1 blocks are read from the log, the v2 blocks just
        // written are not.
        let warm = scan_to_vec(&store, &SegmentPredicate::all()).unwrap();
        assert_eq!(warm.len(), 16);
        let stats = store.cache_stats();
        assert_eq!((stats.owned_decodes, stats.decode_validations), (2, 0));
        let v1_bytes: u64 = store.blocks[..2].iter().map(|b| b.stored_bytes).sum();
        assert_eq!((stats.misses, stats.bytes_read), (2, v1_bytes), "{stats:?}");
        // Cold: a reopened store reads all four blocks.
        drop(store);
        let store = open(dir.path(), 4);
        let got = scan_to_vec(&store, &SegmentPredicate::all()).unwrap();
        assert_eq!(got, warm);
        assert_eq!(got.len(), 16);
        let stats = store.cache_stats();
        assert_eq!(stats.owned_decodes, 2, "the two v1 blocks decode owned");
        assert_eq!(stats.decode_validations, 2, "the two v2 blocks validate");
        // A third open over the mixed log recovers everything (sidecar and
        // rescan paths both understand both magics).
        drop(store);
        std::fs::remove_file(dir.join("segments.idx")).unwrap();
        let store = open(dir.path(), 4);
        assert_eq!(scan_to_vec(&store, &SegmentPredicate::all()).unwrap(), got);
    }

    /// A deterministic synthetic rollup feed: one delta per segment keyed by
    /// its start hour, so cells are exactly reconstructible from the log.
    fn hour_deltas(s: &SegmentRecord) -> Option<Vec<crate::RollupDelta>> {
        Some(vec![crate::RollupDelta {
            tid: s.gid * 100,
            level: TimeLevel::Hour,
            bucket: s.start_time.div_euclid(3_600_000) * 3_600_000,
            acc: RollupAcc {
                count: 1,
                sum: s.end_time as f64 * 0.5,
                min: s.start_time as f64,
                max: s.end_time as f64,
            },
        }])
    }

    /// Store options maintaining [`hour_deltas`] cells.
    fn with_hour_rollups(bulk_write_size: usize) -> DiskStoreOptions {
        DiskStoreOptions {
            bulk_write_size,
            ..TestDigester::default()
                .rollup(vec![TimeLevel::Hour], hour_deltas)
                .options()
        }
    }

    type FlatCell = (Gid, Tid, Timestamp, u64, u64);

    fn collect_cells(store: &DiskStore) -> Option<Vec<FlatCell>> {
        let mut cells = Vec::new();
        store
            .rollup_cells(
                TimeLevel::Hour,
                None,
                (Timestamp::MIN, Timestamp::MAX),
                &mut |column| {
                    let flat = column
                        .iter()
                        .map(|&((g, _, t, b), a)| (g, t, b, a.count, a.sum.to_bits()));
                    cells.extend(flat)
                },
            )
            .unwrap()
            .then_some(cells)
    }

    #[test]
    fn rollup_cells_survive_sidecar_reopen_and_rescan_rebuild() {
        let dir = temp_dir("rollups");
        let open = || DiskStore::open_with(dir.path(), with_hour_rollups(4)).unwrap();
        let original = {
            let mut store = open();
            for i in 0..10 {
                store
                    .insert(seg(i % 3 + 1, i as i64 * 1000, i as i64 * 1000 + 900))
                    .unwrap();
            }
            // Cells cover the write buffer too (two segments not yet in a
            // block).
            let cells = collect_cells(&store).expect("served before flush");
            store.flush().unwrap();
            assert_eq!(collect_cells(&store).unwrap(), cells);
            cells
        };
        // Reopen via the sidecar: adopted bit-exactly.
        assert_eq!(collect_cells(&open()).unwrap(), original);
        // Delete the sidecar: the streaming rescan rebuilds identical cells
        // (and rewrites the sidecar).
        std::fs::remove_file(dir.join("segments.idx")).unwrap();
        assert_eq!(collect_cells(&open()).unwrap(), original);
        assert_eq!(collect_cells(&open()).unwrap(), original);
        // Opening without a feed serves nothing, and its sidecar rewrite (if
        // any) must not poison a later feed-ful open.
        let plain = DiskStore::open_with(dir.path(), with_bulk(4)).unwrap();
        assert!(collect_cells(&plain).is_none());
        drop(plain);
        assert_eq!(collect_cells(&open()).unwrap(), original);
    }

    #[test]
    fn rollup_level_mismatch_forces_a_rebuilding_rescan() {
        let dir = temp_dir("rollup-levels");
        {
            let mut store = DiskStore::open_with(dir.path(), with_hour_rollups(4)).unwrap();
            for i in 0..8 {
                store.insert(seg(1, i * 1000, i * 1000 + 900)).unwrap();
            }
            store.flush().unwrap();
        }
        // Reopen with a feed maintaining a different level set: the sidecar
        // cells are incompatible, so a rescan rebuilds at the new levels.
        let feed = TestDigester::default().rollup(vec![mdb_types::TimeLevel::Day], |s| {
            hour_deltas(s).map(|deltas| {
                deltas
                    .into_iter()
                    .map(|mut d| {
                        d.level = mdb_types::TimeLevel::Day;
                        d.bucket = 0;
                        d
                    })
                    .collect()
            })
        });
        let store = DiskStore::open_with(
            dir.path(),
            DiskStoreOptions {
                bulk_write_size: 4,
                ..feed.options()
            },
        )
        .unwrap();
        let mut n = 0;
        assert!(store
            .rollup_cells(
                mdb_types::TimeLevel::Day,
                None,
                (Timestamp::MIN, Timestamp::MAX),
                &mut |column| n += column.len()
            )
            .unwrap());
        assert_eq!(n, 1, "all 8 segments fold into the single day bucket");
        assert!(
            !store
                .rollup_cells(
                    mdb_types::TimeLevel::Hour,
                    None,
                    (Timestamp::MIN, Timestamp::MAX),
                    &mut |_| {}
                )
                .unwrap(),
            "an unmaintained level is not served"
        );
    }

    #[test]
    fn rollups_absent_without_a_feed() {
        for place in Place::both("no-rollup-feed") {
            let mut store = place.open(1);
            store.insert(seg(1, 0, 900)).unwrap();
            assert!(collect_cells(&store).is_none());
        }
    }

    #[test]
    fn prefetch_stages_blocks_and_scans_agree() {
        for place in Place::both("prefetch") {
            let build = |depth: usize| {
                place.open_with(DiskStoreOptions {
                    prefetch_depth: depth,
                    ..with_bulk(8)
                })
            };
            {
                let mut store = build(0);
                for i in 0..64 {
                    store
                        .insert(seg(i as Gid % 3 + 1, i * 1000, i * 1000 + 900))
                        .unwrap();
                }
                store.flush().unwrap();
            }
            let plain = {
                let store = build(0);
                scan_to_vec(&store, &SegmentPredicate::all()).unwrap()
            };
            let store = build(2);
            // Repeat scans: the first may race the prefetcher, later ones hit.
            for _ in 0..3 {
                assert_eq!(
                    scan_to_vec(&store, &SegmentPredicate::all()).unwrap(),
                    plain
                );
            }
            let stats = store.cache_stats();
            assert_eq!(
                stats.prefetch_issued + stats.misses,
                8,
                "every block read exactly once: {stats:?}"
            );
            assert_eq!(stats.prefetch_hits, stats.prefetch_issued);
            assert_eq!(stats.bytes_read, store.persistent_bytes());
        }
    }
}
