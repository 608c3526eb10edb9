//! A sharded, memory-budgeted LRU cache over fetched log blocks.
//!
//! The out-of-core [`crate::disk::DiskStore`] keeps only block *summaries*
//! resident; segment bodies are fetched block-by-block on demand and parked
//! here, and every block the store writes is parked as it is written, so
//! data read right after a flush is not read back from the log. The cache
//! holds one form of block, a validated [`BlockView`], keyed by its log
//! offset — blocks are immutable once written, so there is no
//! invalidation, only eviction. A legacy v1 payload is re-laid out as v2
//! when it is read, so it is cached and scanned exactly like a v2 block.
//! An entry is charged its exact *file* bytes (header + payload as stored
//! on disk), so the budget arithmetic is not a heap estimate: cached bytes
//! are file bytes.
//!
//! Capacity comes from the engine's `memory_budget_bytes`: `None` caches
//! everything ever fetched or written (the all-resident behaviour the store
//! had before it went out-of-core), `Some(0)` caches nothing, and anything
//! in between is a hard byte budget split evenly across shards, each
//! evicting least-recently-used blocks.
//!
//! Reads take one shard lock; shards are selected by block offset, so
//! concurrent scans over different regions of the log rarely contend. The
//! prefetcher inserts through [`BlockCache::insert_prefetched`], which
//! never displaces a demand-loaded entry and tags the block so the first
//! demand hit is counted as a prefetch hit.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use mdb_types::{BlockFormat, BlockMeta, BlockView, Result};

/// Number of independently locked shards.
pub(crate) const SHARDS: usize = 8;

/// Observable cache behaviour: hit ratio and I/O volume for diagnostics,
/// resident/peak segment counts that show a memory budget holds, and
/// decode counters that make the zero-copy claim
/// checkable — a pure-v2 scan shows `owned_decodes == 0` and exactly one
/// validation per block read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fetches answered from memory.
    pub hits: u64,
    /// Fetches that had to read a block from disk.
    pub misses: u64,
    /// Blocks evicted to stay within the budget.
    pub evictions: u64,
    /// File bytes read from the log (demand loads + prefetches).
    pub bytes_read: u64,
    /// Blocks the prefetcher read into the cache ahead of the scan.
    pub prefetch_issued: u64,
    /// Demand fetches answered by a block the prefetcher had staged.
    pub prefetch_hits: u64,
    /// v2 payloads validated into a [`BlockView`] (once per block read).
    pub decode_validations: u64,
    /// v1 payloads decoded and re-laid out as v2 (once per block read).
    pub owned_decodes: u64,
    /// Segments currently resident in the cache.
    pub resident_segments: usize,
    /// Bytes currently resident in the cache (exact file bytes).
    pub resident_bytes: usize,
    /// High-water mark of `resident_segments` over the cache's lifetime.
    pub peak_resident_segments: usize,
}

struct Entry {
    block: Arc<BlockView>,
    /// Exact file bytes the block occupies on disk.
    bytes: usize,
    last_used: u64,
    /// Staged by the prefetcher and not yet demanded.
    prefetched: bool,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<u64, Entry>,
    bytes: usize,
    tick: u64,
}

/// The sharded LRU block cache (see the module docs).
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget; `None` = unbounded.
    shard_budget: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bytes_read: AtomicU64,
    prefetch_issued: AtomicU64,
    prefetch_hits: AtomicU64,
    decode_validations: AtomicU64,
    owned_decodes: AtomicU64,
    resident_segments: AtomicUsize,
    peak_resident_segments: AtomicUsize,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("BlockCache")
            .field("shard_budget", &self.shard_budget)
            .field("stats", &stats)
            .finish()
    }
}

impl BlockCache {
    /// A cache bounded by `budget_bytes` in total (`None` = unbounded,
    /// `Some(0)` = cache nothing).
    pub fn new(budget_bytes: Option<u64>) -> Self {
        let shard_budget = budget_bytes.map(|total| {
            let total = usize::try_from(total).unwrap_or(usize::MAX);
            total / SHARDS
        });
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            prefetch_issued: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
            decode_validations: AtomicU64::new(0),
            owned_decodes: AtomicU64::new(0),
            resident_segments: AtomicUsize::new(0),
            peak_resident_segments: AtomicUsize::new(0),
        }
    }

    /// True when the budget is `Some(0)`: nothing is ever parked, so
    /// prefetching into the cache is pointless.
    pub fn caches_nothing(&self) -> bool {
        self.shard_budget == Some(0)
    }

    fn shard_of(&self, offset: u64) -> &Mutex<Shard> {
        // Offsets are byte positions, typically far apart; mix them so
        // neighbouring blocks spread over shards.
        let h = offset.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h as usize) % SHARDS]
    }

    fn note_read(&self, meta: &BlockMeta) {
        self.bytes_read
            .fetch_add(meta.stored_bytes, Ordering::Relaxed);
        match meta.format {
            BlockFormat::V1 => &self.owned_decodes,
            BlockFormat::V2 => &self.decode_validations,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Returns the block `meta` describes, loading it through `load` on a
    /// miss. The budget is charged the block's exact file footprint,
    /// `meta.stored_bytes`. The loaded block is cached unless it alone
    /// exceeds the shard budget (in particular, a zero budget caches
    /// nothing); eviction is LRU.
    pub fn get_or_load(
        &self,
        meta: &BlockMeta,
        load: impl FnOnce() -> Result<BlockView>,
    ) -> Result<Arc<BlockView>> {
        let offset = meta.offset;
        {
            let mut shard = self.shard_of(offset).lock().expect("cache shard poisoned");
            let tick = shard.tick + 1;
            shard.tick = tick;
            if let Some(entry) = shard.entries.get_mut(&offset) {
                entry.last_used = tick;
                if entry.prefetched {
                    entry.prefetched = false;
                    self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&entry.block));
            }
        }
        // Load outside the lock: disk I/O and decoding must not serialize
        // unrelated shard traffic. Two racing loads of the same block both
        // succeed; the second insert simply replaces the first.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let block = Arc::new(load()?);
        self.note_read(meta);
        self.park(meta, &block, false);
        Ok(block)
    }

    /// Stages a block the prefetcher read ahead of the scan. A no-op when
    /// the offset is already cached (the demand path won the race) or when
    /// the cache is budgeted to hold nothing; otherwise the entry is
    /// tagged so the first demand fetch counts as a prefetch hit. Returns
    /// whether the block was actually staged.
    pub fn insert_prefetched(&self, meta: &BlockMeta, block: BlockView) -> bool {
        if !self.admits(meta) || self.contains(meta.offset) {
            return false;
        }
        self.note_read(meta);
        self.prefetch_issued.fetch_add(1, Ordering::Relaxed);
        self.park(meta, &Arc::new(block), true);
        true
    }

    /// Parks a block the store has just written as the most recently used
    /// entry, so its first reader finds it in memory. `build` turns the
    /// written payload into a [`BlockView`] and only runs when the budget
    /// admits the block, under the same rules as a loaded one (a zero
    /// budget or a block larger than a shard's share parks nothing). Nothing
    /// was read, so no read counter moves; a block `build` rejects is not
    /// parked, and its first fetch reads and reports it.
    pub fn insert_written(&self, meta: &BlockMeta, build: impl FnOnce() -> Result<BlockView>) {
        if !self.admits(meta) {
            return;
        }
        if let Ok(block) = build() {
            self.park(meta, &Arc::new(block), false);
        }
    }

    /// True when the budget has room for `meta`'s block at all.
    fn admits(&self, meta: &BlockMeta) -> bool {
        self.shard_budget
            .is_none_or(|budget| meta.stored_bytes as usize <= budget)
    }

    /// True when `offset` is already resident (used by the prefetcher to
    /// skip blocks the scan already pulled in).
    pub fn contains(&self, offset: u64) -> bool {
        let shard = self.shard_of(offset).lock().expect("cache shard poisoned");
        shard.entries.contains_key(&offset)
    }

    fn park(&self, meta: &BlockMeta, block: &Arc<BlockView>, prefetched: bool) {
        if !self.admits(meta) {
            return; // larger than the whole shard: use, don't park
        }
        let (offset, bytes) = (meta.offset, meta.stored_bytes as usize);
        let mut freed_segments = 0usize;
        {
            let mut shard = self.shard_of(offset).lock().expect("cache shard poisoned");
            let tick = shard.tick + 1;
            shard.tick = tick;
            if let Some(old) = shard.entries.insert(
                offset,
                Entry {
                    block: Arc::clone(block),
                    bytes,
                    last_used: tick,
                    prefetched,
                },
            ) {
                shard.bytes -= old.bytes;
                freed_segments += old.block.len();
            }
            shard.bytes += bytes;
            // Evict least-recently-used entries (never the one just
            // inserted) until the shard fits its budget again.
            while let Some(budget) = self.shard_budget {
                if shard.bytes <= budget {
                    break;
                }
                let victim = shard
                    .entries
                    .iter()
                    .filter(|(k, _)| **k != offset)
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k);
                let Some(victim) = victim else { break };
                if let Some(old) = shard.entries.remove(&victim) {
                    shard.bytes -= old.bytes;
                    freed_segments += old.block.len();
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let added = block.len();
        let resident = if added >= freed_segments {
            self.resident_segments
                .fetch_add(added - freed_segments, Ordering::Relaxed)
                + (added - freed_segments)
        } else {
            self.resident_segments
                .fetch_sub(freed_segments - added, Ordering::Relaxed)
                - (freed_segments - added)
        };
        self.peak_resident_segments
            .fetch_max(resident, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        let mut resident_bytes = 0;
        let mut resident_segments = 0;
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            resident_bytes += shard.bytes;
            resident_segments += shard.entries.values().map(|e| e.block.len()).sum::<usize>();
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            prefetch_issued: self.prefetch_issued.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            decode_validations: self.decode_validations.load(Ordering::Relaxed),
            owned_decodes: self.owned_decodes.load(Ordering::Relaxed),
            resident_segments,
            resident_bytes,
            peak_resident_segments: self
                .peak_resident_segments
                .load(Ordering::Relaxed)
                .max(resident_segments),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mdb_types::{encode_block_v2, GapsMask, SegmentRecord};

    fn records(gid: u32, n: usize) -> Vec<SegmentRecord> {
        (0..n)
            .map(|i| SegmentRecord {
                gid,
                start_time: i as i64 * 1000,
                end_time: i as i64 * 1000 + 900,
                sampling_interval: 100,
                mid: 1,
                params: Bytes::from(vec![0u8; 16]),
                gaps: GapsMask::EMPTY,
            })
            .collect()
    }

    fn view(gid: u32, n: usize) -> BlockView {
        BlockView::parse(encode_block_v2(&records(gid, n)), n as u32).unwrap()
    }

    /// The summary of an `n`-segment block at `offset` stored in `format`,
    /// charged its v2 payload plus a header.
    fn meta(offset: u64, format: BlockFormat, n: usize) -> BlockMeta {
        let payload_len = encode_block_v2(&records(0, n)).len() as u32;
        BlockMeta {
            offset,
            stored_bytes: u64::from(payload_len) + 40,
            payload_len,
            format,
            checksum: 0,
            count: n as u32,
            logical_bytes: 0,
            min_gid: 0,
            max_gid: 0,
            min_start: 0,
            min_end: 0,
            max_end: 0,
            values: None,
        }
    }

    #[test]
    fn hits_after_first_load() {
        let cache = BlockCache::new(None);
        let m = meta(0, BlockFormat::V2, 4);
        let a = cache.get_or_load(&m, || Ok(view(1, 4))).unwrap();
        let b = cache.get_or_load(&m, || panic!("must not reload")).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.resident_segments, 4);
        assert_eq!(stats.decode_validations, 1);
        assert_eq!(stats.owned_decodes, 0);
        assert_eq!(stats.bytes_read, m.stored_bytes);
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let cache = BlockCache::new(Some(0));
        assert!(cache.caches_nothing());
        let m = meta(0, BlockFormat::V2, 4);
        cache.get_or_load(&m, || Ok(view(1, 4))).unwrap();
        cache.get_or_load(&m, || Ok(view(1, 4))).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.resident_segments, 0);
        assert_eq!(stats.peak_resident_segments, 0);
    }

    #[test]
    fn bounded_budget_evicts_lru_and_tracks_peak() {
        let block_bytes = meta(0, BlockFormat::V2, 8).stored_bytes as usize;
        // Room for about two blocks per shard, charged at file bytes.
        let cache = BlockCache::new(Some((block_bytes * 2 * SHARDS) as u64));
        for offset in 0..64u64 {
            cache
                .get_or_load(&meta(offset, BlockFormat::V2, 8), || Ok(view(1, 8)))
                .unwrap();
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(
            stats.resident_segments <= 2 * SHARDS * 8,
            "resident {} exceeds capacity",
            stats.resident_segments
        );
        assert!(stats.resident_bytes <= 2 * SHARDS * block_bytes);
        assert!(stats.peak_resident_segments <= 2 * SHARDS * 8 + 8);
        // Recently used blocks survive; the cache still answers correctly.
        let last = cache
            .get_or_load(&meta(63, BlockFormat::V2, 1), || Ok(view(9, 1)))
            .unwrap();
        assert_eq!(
            last.segment(0).gid,
            1,
            "offset 63 must still be the cached block"
        );
    }

    #[test]
    fn load_errors_propagate_and_cache_nothing() {
        let cache = BlockCache::new(None);
        let m = meta(7, BlockFormat::V2, 2);
        let err = cache.get_or_load(&m, || Err(mdb_types::MdbError::Corrupt("boom".into())));
        assert!(err.is_err());
        assert_eq!(cache.stats().resident_segments, 0);
        // A later good load works.
        assert_eq!(cache.get_or_load(&m, || Ok(view(2, 2))).unwrap().len(), 2);
    }

    #[test]
    fn v1_blocks_serve_views_and_count_owned_decodes() {
        let cache = BlockCache::new(None);
        let m = meta(11, BlockFormat::V1, 5);
        let expected = records(3, 5);
        let cached = cache.get_or_load(&m, || Ok(view(3, 5))).unwrap();
        for (view, record) in cached.segments().zip(&expected) {
            assert_eq!(view, record.view());
        }
        let stats = cache.stats();
        assert_eq!(stats.owned_decodes, 1);
        assert_eq!(stats.decode_validations, 0);
        assert_eq!(stats.bytes_read, m.stored_bytes);
    }

    #[test]
    fn prefetched_blocks_hit_and_count_once() {
        let cache = BlockCache::new(None);
        let m = meta(40, BlockFormat::V2, 4);
        assert!(cache.insert_prefetched(&m, view(2, 4)));
        assert!(cache.contains(40));
        // Re-staging the same offset is refused.
        assert!(!cache.insert_prefetched(&m, view(2, 4)));
        // First demand fetch is a hit and counts as THE prefetch hit…
        cache.get_or_load(&m, || panic!("staged")).unwrap();
        // …later fetches are plain hits.
        cache.get_or_load(&m, || panic!("staged")).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.prefetch_issued, 1);
        assert_eq!(stats.prefetch_hits, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.bytes_read, m.stored_bytes);
    }

    #[test]
    fn written_blocks_the_budget_cannot_hold_are_never_built() {
        let m = meta(24, BlockFormat::V2, 4);
        let share_short = (m.stored_bytes as usize * SHARDS - 1) as u64;
        for budget in [Some(0), Some(share_short)] {
            let cache = BlockCache::new(budget);
            cache.insert_written(&m, || panic!("not admitted"));
            assert_eq!(cache.stats().resident_bytes, 0);
        }
    }

    #[test]
    fn zero_budget_refuses_prefetch() {
        let cache = BlockCache::new(Some(0));
        assert!(!cache.insert_prefetched(&meta(8, BlockFormat::V2, 4), view(2, 4)));
        assert_eq!(cache.stats().prefetch_issued, 0);
    }
}
