//! The master/worker runtime (Figure 4, Section 3.1), made elastic.
//!
//! The master partitions time series into groups (done beforehand by
//! `mdb-partitioner`), places each group on `replication_factor` workers —
//! one *primary* plus replicas — and routes every batch of a group to all
//! of its holders. Groups never span nodes for query purposes: each worker
//! answers only for the groups it is primary of, so neither ingestion nor
//! queries shuffle data, which is what produces the near-linear scale-out
//! of Figure 20.
//!
//! Queries follow Algorithm 5's annotations, and the cluster only carries
//! them: every worker answers [`QueryEngine::partial`] over the groups it
//! is primary of (one walk of its store per query) and the master merges
//! the partials with [`QueryEngine::finalize`], the two halves an embedded
//! engine runs over its one store. A group's segments are identical on
//! every holder (same batches, same deterministic compression), slot sums
//! are exact so partials merge in any order, and a time bucket's entries
//! and a listing's rows all come from their group's one primary in scan
//! order; so query results are bit-identical regardless of which holder
//! serves a group — across failovers, group handoffs, and cluster sizes.
//!
//! The master supervises workers rather than trusting them: each worker is
//! an OS thread whose panics are caught and recorded, every channel
//! disconnection observed on the ingest/flush/query paths declares the
//! worker dead and promotes replicas ([`Cluster::health`] reports the
//! resulting state), and membership changes ([`Cluster::add_worker`],
//! [`Cluster::remove_worker`]) drain and ship whole groups between workers
//! with an atomic routing flip.
//!
//! Workers are OS threads connected by **bounded** channels; each owns a
//! [`Shard`] over the groups it hosts — the same group ingestors → segment
//! store → query engine core the embedded engine runs — behind its channel.
//! Ingestion is batch-oriented end-to-end: the master splits a columnar
//! [`RowBatch`] into per-group batches and ships whole batches, and a worker
//! that falls [`ClusterConfig::ingest_queue_depth`](mdb_query::CommonOptions::ingest_queue_depth)
//! batches behind blocks the master (real backpressure) instead of queueing
//! unboundedly.

mod handoff;
mod health;
mod membership;

pub use health::{ClusterHealth, WorkerHealth, WorkerState};

use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use crossbeam_channel::{bounded, Receiver, RecvTimeoutError, Sender};
use mdb_compression::{CompressionConfig, CompressionStats};
use mdb_models::ModelRegistry;
use mdb_partitioner::assign_replicas;
use mdb_query::{CommonOptions, Partial, PointAssembler, Query, QueryEngine, QueryResult, Shard};
use mdb_storage::{Catalog, SegmentPredicate};
use mdb_types::{
    BlockFormat, Gid, MdbError, Result, RowBatch, SegmentRecord, Tid, Timestamp, Value,
};

/// Cluster runtime configuration.
///
/// The knobs shared with the embedded engine's `Config` live in the
/// embedded [`CommonOptions`]; `ClusterConfig` derefs to it, so the
/// historical field paths (`config.compression`, `config.storage_dir`,
/// `config.ingest_queue_depth`, …) keep working unchanged. Cluster-specific
/// readings of the shared knobs:
///
/// * `common.storage_dir` — when set, every worker persists its segments in
///   an out-of-core [`mdb_storage::DiskStore`] under `<dir>/worker-<i>`,
///   and the master persists its placement in `<dir>/cluster.meta` so a
///   restart serves groups from wherever failovers and handoffs left them.
/// * `common.memory_budget_bytes` — the *total* block-cache budget, split
///   evenly over the workers (each worker's store gets `budget /
///   n_workers`). Each worker's share is fixed when it is spawned: a worker
///   added by [`Cluster::add_worker`] gets `budget / new_slot_count`, while
///   the existing workers keep the share they were spawned with, so the
///   cluster-wide budget can transiently exceed this total after a grow. A
///   restart re-splits the budget evenly over the grown slot count.
/// * `common.ingest_queue_depth` — maximum commands buffered per worker
///   channel. The master's batched ingestion blocks once a worker falls
///   this many batches behind — real backpressure instead of an unbounded
///   queue.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The knobs shared with the embedded engine (compression, bulk write
    /// size, cache budget, prefetch depth, storage root, queue depth),
    /// reachable directly on `ClusterConfig` through `Deref`. Each worker
    /// folds its share of a query in one inline scan; the workers scan
    /// concurrently during scatter/gather.
    pub common: CommonOptions,
    /// How long [`Cluster::health`] waits for a worker's liveness reply
    /// before reporting it as unresponsive. The probe queues behind any
    /// pending ingest batches and in-flight scans/flushes, so a busy worker
    /// can legitimately take a while — which is why a probe *timeout* only
    /// flags the worker as slow ([`WorkerHealth::probe_timed_out`]) and a
    /// worker is declared dead solely on proof (a disconnected channel).
    pub health_probe_timeout: Duration,
    /// Copies kept per group: one primary plus `replication_factor - 1`
    /// replicas, placed on distinct workers by
    /// [`mdb_partitioner::assign_replicas`]. Every holder ingests the same
    /// per-group batches (so its copy is bit-identical), but only the
    /// primary serves queries. Primaries are spread by query load, so every
    /// worker answers its share of each query, at `replication_factor ==
    /// n_workers` too. At the default of 1 a worker failure loses its groups
    /// (reported by [`Cluster::health`]); at 2+ the master promotes a
    /// replica and ingestion and queries continue unchanged. A restart
    /// keeps the persisted holder order, primaries included.
    pub replication_factor: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            common: CommonOptions::default(),
            health_probe_timeout: Duration::from_secs(30),
            replication_factor: 1,
        }
    }
}

impl std::ops::Deref for ClusterConfig {
    type Target = CommonOptions;

    fn deref(&self) -> &CommonOptions {
        &self.common
    }
}

impl std::ops::DerefMut for ClusterConfig {
    fn deref_mut(&mut self) -> &mut CommonOptions {
        &mut self.common
    }
}

impl ClusterConfig {
    /// A config with the given compression settings and the default queue
    /// depth.
    pub fn with_compression(compression: CompressionConfig) -> Self {
        let mut config = Self::default();
        config.common.compression = compression;
        config
    }

    /// Builds a cluster config from shared options; the cluster-only knobs
    /// take their defaults.
    pub fn from_common(common: CommonOptions) -> Self {
        Self {
            common,
            ..Self::default()
        }
    }
}

/// A batch routed to one worker: the columns of one group over a run of
/// ticks (rows where the whole group was in a gap are already dropped).
/// The batch is shared between the group's holders, not copied per replica.
#[derive(Debug)]
struct GroupBatch {
    gid: Gid,
    batch: Arc<RowBatch>,
}

/// The groups a scatter command covers, shared across the reply round-trip.
type GidScope = Arc<Vec<Gid>>;

/// Exported state of one group: its segment runs in the source store's
/// deterministic per-group scan order (run/block boundaries preserved) and
/// the compression counters accumulated on the source, so statistics
/// survive the handoff with the data.
type GroupRuns = (Gid, Vec<Vec<SegmentRecord>>, CompressionStats);

enum Command {
    Ingest(Vec<GroupBatch>),
    Flush(Sender<Result<()>>),
    /// Answer the worker half of a query ([`QueryEngine::partial`]) over
    /// the scope, in one store walk.
    Query(Arc<Query>, GidScope, Sender<Result<Partial>>),
    /// Compression/storage statistics restricted to the scope, so replicas
    /// and handed-off leftovers are never double counted.
    Stats(GidScope, Sender<Result<(CompressionStats, u64, usize)>>),
    /// Liveness probe; the reply is the heartbeat.
    Health(Sender<()>),
    /// Drain the scoped groups' ingestors into the store, flush it, and
    /// reply with each group's segment runs — the sending half of a handoff.
    Export(Vec<Gid>, Sender<Result<Vec<GroupRuns>>>),
    /// Adopt the shipped groups: build their ingestors and append their
    /// runs to the local store — the receiving half of a handoff.
    Import(Vec<GroupRuns>, Sender<Result<()>>),
    /// Crash injection: stop immediately, processing nothing further.
    Die,
    /// Drain everything and stop, reporting the first drain failure.
    Shutdown(Sender<Result<()>>),
}

/// Status a worker thread publishes for the master (lock-free liveness via
/// the poison flag; counters and deferred errors under a mutex).
#[derive(Default)]
struct WorkerShared {
    status: Mutex<WorkerStatus>,
    /// Set by [`Cluster::crash_worker`]: the worker thread exits at the next
    /// command without processing it, emulating a hard crash.
    poison: AtomicBool,
}

#[derive(Default)]
struct WorkerStatus {
    batches_ingested: u64,
    /// First deferred ingestion error (satellite of Section 3.1's
    /// supervision: kept verbatim, not overwritten by later failures).
    first_error: Option<String>,
    /// Deferred ingestion errors beyond the first.
    deferred_errors: u64,
    /// Panic payload if the worker thread unwound.
    panic: Option<String>,
}

impl WorkerShared {
    fn record_error(&self, message: String) {
        let mut status = self.status.lock().unwrap_or_else(|e| e.into_inner());
        if status.first_error.is_none() {
            status.first_error = Some(message);
        } else {
            status.deferred_errors += 1;
        }
    }

    /// The deferred first error and overflow count, without clearing —
    /// the ingest path reports but leaves clearing to flush.
    fn peek_error(&self) -> Option<(String, u64)> {
        let status = self.status.lock().unwrap_or_else(|e| e.into_inner());
        status
            .first_error
            .clone()
            .map(|msg| (msg, status.deferred_errors))
    }

    /// The deferred first error and overflow count, clearing both.
    fn take_error(&self) -> Option<(String, u64)> {
        let mut status = self.status.lock().unwrap_or_else(|e| e.into_inner());
        let count = std::mem::take(&mut status.deferred_errors);
        status.first_error.take().map(|msg| (msg, count))
    }
}

/// Formats a deferred error with its overflow count for reporting.
fn deferred_message(message: String, extra: u64) -> String {
    if extra > 0 {
        format!("{message} (+{extra} more deferred errors)")
    } else {
        message
    }
}

struct Worker {
    /// `None` once the worker left service (dead, removed, or shut down).
    sender: Option<Sender<Command>>,
    handle: Option<std::thread::JoinHandle<()>>,
    shared: Arc<WorkerShared>,
    state: WorkerState,
    /// Why a non-active worker left service.
    note: Option<String>,
}

/// The master's placement: worker slots plus gid → holder indices, guarded
/// by one lock so routing decisions and membership changes never interleave.
struct Topology {
    workers: Vec<Worker>,
    /// Holders per group, primary first. Contains only
    /// [`WorkerState::Active`] workers; an empty list means the group was
    /// lost (every holder died before it could be handed off).
    holders: HashMap<Gid, Vec<usize>>,
    /// Per worker slot: every gid whose segments may live in that worker's
    /// store — current holds plus everything it *ever* held. Append-only
    /// stores cannot delete, so a handoff leaves the exported segments in
    /// the donor's log; importing the same group again would duplicate
    /// them. Handoff targets are therefore drawn from workers outside this
    /// set, and the set is persisted in the manifest so the guard survives
    /// restarts (the leftover segments do too). A superset of `holders`.
    ever_held: Vec<HashSet<Gid>>,
}

impl Topology {
    /// The gids whose holder list satisfies `keep`, sorted.
    fn gids_where(&self, keep: impl Fn(&[usize]) -> bool) -> Vec<Gid> {
        let mut gids: Vec<Gid> = self
            .holders
            .iter()
            .filter(|(_, holders)| keep(holders))
            .map(|(&gid, _)| gid)
            .collect();
        gids.sort_unstable();
        gids
    }

    /// The gids worker `index` is primary of, sorted.
    fn primary_gids(&self, index: usize) -> Vec<Gid> {
        self.gids_where(|holders| holders.first() == Some(&index))
    }

    /// The gids worker `index` holds any copy of, sorted.
    fn hosted_gids(&self, index: usize) -> Vec<Gid> {
        self.gids_where(|holders| holders.contains(&index))
    }

    /// Groups with no surviving holder, sorted.
    fn lost_gids(&self) -> Vec<Gid> {
        self.gids_where(<[usize]>::is_empty)
    }

    /// Active worker indices.
    fn active(&self) -> Vec<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.state == WorkerState::Active)
            .map(|(i, _)| i)
            .collect()
    }

    /// Declares a worker dead in place: strips it from every holder list
    /// (the next holder becomes primary) and drops the master's sender so
    /// the thread exits once it drains its queue.
    fn mark_dead(&mut self, index: usize, reason: &str) -> bool {
        let worker = &mut self.workers[index];
        if worker.state != WorkerState::Active {
            return false;
        }
        worker.state = WorkerState::Dead;
        worker.note = Some(reason.to_string());
        worker.sender = None;
        for holders in self.holders.values_mut() {
            holders.retain(|&h| h != index);
        }
        true
    }
}

/// A running ModelarDB+ cluster.
pub struct Cluster {
    catalog: Arc<Catalog>,
    registry: Arc<ModelRegistry>,
    config: ClusterConfig,
    topology: RwLock<Topology>,
    /// Per group (in catalog order): the row indexes of its member series,
    /// cached so routing a tick is O(values) instead of O(series²).
    group_row_indices: Vec<Vec<usize>>,
    /// Single-row batch backing [`Cluster::ingest_row`] (a batch of one on
    /// the [`Cluster::ingest_batch`] path), reused across calls so the
    /// compatibility path does not allocate a fresh column set per tick.
    scratch_row: Mutex<RowBatch>,
    /// Loose points of [`mdb_query::Datastore::ingest_points`] being
    /// assembled into group rows — the embedded engine's assembler.
    points: Mutex<PointAssembler>,
}

/// A worker to ask, its command sender, and what goes into its request.
type Target<P> = (usize, Sender<Command>, P);

/// How one worker answered a [`round_trip`].
enum Reply<T> {
    Answer(T),
    /// Still connected, but silent past the timeout: slow, not dead.
    Late,
    /// Its channel is gone, at the send or the receive: the worker thread
    /// is provably dead, and it was declared so.
    Gone,
}

/// The master's one way to ask workers something. Sends `request(payload,
/// reply_to)` to every target before waiting on any, so the workers answer
/// concurrently, then gathers the replies in target order, waiting at most
/// `timeout` for each. A worker whose channel is gone is handed to
/// `declare` with the reason `died during {what}`.
fn round_trip<P, T>(
    targets: Vec<Target<P>>,
    what: &str,
    timeout: Option<Duration>,
    mut request: impl FnMut(P, Sender<T>) -> Command,
    mut declare: impl FnMut(usize, &str),
) -> Vec<(usize, Reply<T>)> {
    let sent: Vec<(usize, Option<Receiver<T>>)> = targets
        .into_iter()
        .map(|(index, sender, payload)| {
            let (tx, rx) = bounded(1);
            let sent = sender.send(request(payload, tx)).is_ok();
            (index, sent.then_some(rx))
        })
        .collect();
    sent.into_iter()
        .map(|(index, rx)| {
            let reply = match (rx, timeout) {
                (None, _) => Reply::Gone,
                (Some(rx), None) => rx.recv().map_or(Reply::Gone, Reply::Answer),
                (Some(rx), Some(timeout)) => match rx.recv_timeout(timeout) {
                    Ok(answer) => Reply::Answer(answer),
                    Err(RecvTimeoutError::Timeout) => Reply::Late,
                    Err(RecvTimeoutError::Disconnected) => Reply::Gone,
                },
            };
            if matches!(reply, Reply::Gone) {
                declare(index, &format!("died during {what}"));
            }
            (index, reply)
        })
        .collect()
}

/// The answers to a fallible request in target order, or the first worker
/// error or death, naming the worker.
fn answers<X>(replies: Vec<(usize, Reply<Result<X>>)>, what: &str) -> Result<Vec<X>> {
    replies
        .into_iter()
        .map(|(index, reply)| match reply {
            Reply::Answer(answer) => {
                answer.map_err(|e| MdbError::Query(format!("worker {index}: {e}")))
            }
            _ => Err(MdbError::Query(format!(
                "worker {index} died during {what}"
            ))),
        })
        .collect()
}

impl Cluster {
    /// Starts `n_workers` workers for the groups in `catalog` with the given
    /// compression settings and default runtime options; see
    /// [`Cluster::start_with`] for the full configuration surface.
    pub fn start(
        catalog: Arc<Catalog>,
        registry: Arc<ModelRegistry>,
        config: CompressionConfig,
        n_workers: usize,
    ) -> Result<Self> {
        Self::start_with(
            catalog,
            registry,
            ClusterConfig::with_compression(config),
            n_workers,
        )
    }

    /// Starts `n_workers` workers for the groups in `catalog`, placing each
    /// group on [`ClusterConfig::replication_factor`] workers (primary
    /// first) with [`mdb_partitioner::assign_replicas`]. Worker command
    /// channels are bounded at
    /// [`ClusterConfig::ingest_queue_depth`](mdb_query::CommonOptions::ingest_queue_depth), so
    /// ingestion blocks (backpressure) instead of queueing unboundedly when
    /// workers lag. On disk-backed clusters a placement manifest written
    /// beside the worker directories is adopted on restart, so groups are
    /// served from wherever earlier failovers and handoffs left them.
    pub fn start_with(
        catalog: Arc<Catalog>,
        registry: Arc<ModelRegistry>,
        config: ClusterConfig,
        n_workers: usize,
    ) -> Result<Self> {
        if n_workers == 0 {
            return Err(MdbError::Config("cluster needs at least one worker".into()));
        }
        if config.ingest_queue_depth == 0 {
            return Err(MdbError::Config(
                "ingest_queue_depth must be at least 1".into(),
            ));
        }
        if !(1..=n_workers).contains(&config.replication_factor) {
            return Err(MdbError::Config(format!(
                "replication_factor {} must be in 1..={n_workers}",
                config.replication_factor
            )));
        }
        // A manifest from a previous life of this cluster directory wins
        // over a fresh assignment: failovers and handoffs moved groups, and
        // each worker's log only has the groups that ended up on it.
        let manifest = membership::load_manifest(&config, &catalog, n_workers)?;
        let (holders, removed, held) = match manifest {
            Some(m) => (m.holders, m.removed, m.ever_held),
            None => {
                let assignment =
                    assign_replicas(&catalog.groups, n_workers, config.replication_factor);
                let holders: HashMap<Gid, Vec<usize>> = catalog
                    .groups
                    .iter()
                    .zip(assignment)
                    .map(|(g, holders)| (g.gid, holders))
                    .collect();
                (holders, Vec::new(), HashMap::new())
            }
        };
        // What each slot's log may contain: everything the manifest says it
        // ever held (leftovers from handoffs survive restarts in the
        // append-only logs) plus everything it currently holds.
        let mut ever_held: Vec<HashSet<Gid>> = (0..n_workers)
            .map(|i| held.get(&i).into_iter().flatten().copied().collect())
            .collect();
        for (&gid, hs) in &holders {
            for &h in hs {
                ever_held[h].insert(gid);
            }
        }
        // Each worker's budget is an even share of the cluster-wide one.
        let budget_share = config
            .memory_budget_bytes
            .map(|total| total / n_workers as u64);
        let mut topology = Topology {
            workers: Vec::with_capacity(n_workers),
            holders,
            ever_held,
        };
        for index in 0..n_workers {
            let worker = if removed.contains(&index) {
                Worker {
                    sender: None,
                    handle: None,
                    shared: Arc::new(WorkerShared::default()),
                    state: WorkerState::Removed,
                    note: Some("removed before restart".into()),
                }
            } else {
                let hosted = topology.hosted_gids(index);
                spawn_worker(index, hosted, &catalog, &registry, &config, budget_share)?
            };
            topology.workers.push(worker);
        }
        let tid_to_row: HashMap<_, _> = catalog
            .series
            .iter()
            .enumerate()
            .map(|(i, m)| (m.tid, i))
            .collect();
        let group_row_indices = catalog
            .groups
            .iter()
            .map(|g| g.tids.iter().map(|t| tid_to_row[t]).collect())
            .collect();
        let scratch_row = Mutex::new(RowBatch::with_capacity(catalog.series.len(), 1));
        let points = Mutex::new(PointAssembler::new(Arc::clone(&catalog)));
        let cluster = Self {
            catalog,
            registry,
            config,
            topology: RwLock::new(topology),
            group_row_indices,
            scratch_row,
            points,
        };
        cluster.persist_manifest(&cluster.topo_read());
        Ok(cluster)
    }

    fn topo_read(&self) -> RwLockReadGuard<'_, Topology> {
        self.topology.read().unwrap_or_else(|e| e.into_inner())
    }

    fn topo_write(&self) -> RwLockWriteGuard<'_, Topology> {
        self.topology.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of worker slots (including dead and removed ones; slot
    /// indices are stable for the cluster's lifetime).
    pub fn n_workers(&self) -> usize {
        self.topo_read().workers.len()
    }

    /// The gids each worker holds a copy of, by slot. At replication
    /// factor 1 this is the classic one-owner assignment.
    pub fn assignment(&self) -> Vec<Vec<Gid>> {
        let topo = self.topo_read();
        (0..topo.workers.len())
            .map(|i| topo.hosted_gids(i))
            .collect()
    }

    /// Every active worker with its sender and the gids it is primary of,
    /// snapshotted under the read lock so the blocking round-trips that
    /// follow run without it.
    fn primary_targets(&self) -> Vec<Target<GidScope>> {
        let topo = self.topo_read();
        topo.active()
            .into_iter()
            .map(|i| {
                let sender = topo.workers[i]
                    .sender
                    .clone()
                    .expect("an active worker has a sender");
                (i, sender, Arc::new(topo.primary_gids(i)))
            })
            .collect()
    }

    /// Declares `index` dead (if it was active), promotes replicas by
    /// stripping it from every holder list, and persists the new placement.
    fn declare_dead(&self, index: usize, reason: &str) {
        let mut topo = self.topo_write();
        if topo.mark_dead(index, reason) {
            self.persist_manifest(&topo);
        }
    }

    /// Injects a *silent* crash: the worker thread stops without the master
    /// noticing, exactly like a process dying out from under it. The next
    /// interaction with the worker (ingest routing, flush, query, or a
    /// [`Cluster::health`] probe) observes the disconnected channel and
    /// declares it dead. Returns false if the worker was not active.
    pub fn crash_worker(&self, index: usize) -> bool {
        let topo = self.topo_read();
        let Some(worker) = topo.workers.get(index) else {
            return false;
        };
        if worker.state != WorkerState::Active {
            return false;
        }
        worker.shared.poison.store(true, Ordering::SeqCst);
        if let Some(sender) = &worker.sender {
            // Best-effort wake-up so an idle worker exits promptly; a full
            // queue is fine — the poison flag stops it at the next command.
            let _ = sender.try_send(Command::Die);
        }
        true
    }

    /// Kills a worker *and* tells the master: the crash of
    /// [`Cluster::crash_worker`] plus an immediate declaration, so replicas
    /// are promoted and routing is updated before the next batch. Returns
    /// false if the worker was not active.
    pub fn kill_worker(&self, index: usize) -> bool {
        if !self.crash_worker(index) {
            return false;
        }
        self.declare_dead(index, "killed");
        true
    }

    /// Ingests one full tick: `row[i]` belongs to the series with tid
    /// `catalog.series[i].tid`. This is a batch of one on the
    /// [`Cluster::ingest_batch`] path; bulk ingestion should build a
    /// [`RowBatch`] and call that directly.
    pub fn ingest_row(&self, timestamp: Timestamp, row: &[Option<Value>]) -> Result<()> {
        if row.len() != self.catalog.series.len() {
            return Err(MdbError::Ingestion(format!(
                "row has {} values for {} series",
                row.len(),
                self.catalog.series.len()
            )));
        }
        let mut batch = self.scratch_row.lock().expect("scratch batch poisoned");
        batch.clear();
        batch.push_row(timestamp, row);
        self.ingest_batch(&batch)
    }

    /// Ingests a columnar batch: column `i` of `batch` belongs to the series
    /// with tid `catalog.series[i].tid`. The master splits the batch into
    /// per-group column batches (dropping ticks a whole group missed) and
    /// routes each to **every holder** of the owning group over bounded
    /// channels — a send blocks once a worker is `ingest_queue_depth`
    /// batches behind, so a slow worker exerts backpressure instead of
    /// accumulating unbounded queues.
    ///
    /// A holder that died is declared dead and skipped; as long as each
    /// group kept at least one holder the ingest succeeds (failover is
    /// transparent at replication factor ≥ 2). Groups whose last holder is
    /// gone are reported in the error, as are ingestion errors workers
    /// deferred from earlier batches (which stay pending until a flush
    /// clears them).
    ///
    /// Deferred errors come back as [`MdbError::DeferredIngestion`], which
    /// means *an earlier batch* failed inside a worker — the batch passed to
    /// this call was accepted and will be ingested, so it must **not** be
    /// retried. Only [`MdbError::Ingestion`] means the current batch (or
    /// part of it) was rejected or dropped.
    pub fn ingest_batch(&self, batch: &RowBatch) -> Result<()> {
        if batch.n_series() != self.catalog.series.len() {
            return Err(MdbError::Ingestion(format!(
                "batch has {} columns for {} series",
                batch.n_series(),
                self.catalog.series.len()
            )));
        }
        let mut group_batches: Vec<(Gid, RowBatch)> = Vec::new();
        for (group, indices) in self.catalog.groups.iter().zip(&self.group_row_indices) {
            let view = batch.select(indices);
            let mut group_batch: Option<RowBatch> = None;
            for row in 0..view.len() {
                if view.row_all_gaps(row) {
                    continue; // a tick the whole group missed: a gap, not data
                }
                group_batch
                    .get_or_insert_with(|| RowBatch::with_capacity(indices.len(), view.len()))
                    .push_row_with(view.timestamp(row), |s| view.get(row, s));
            }
            if let Some(group_batch) = group_batch {
                group_batches.push((group.gid, group_batch));
            }
        }
        let involved = self.route(group_batches)?;
        self.deferred_error(&involved)
    }

    /// Sends each group batch to every holder of its group and returns the
    /// workers that were sent one. Holders whose channel died are declared
    /// dead; groups no holder accepted are reported as dropped.
    fn route(&self, group_batches: Vec<(Gid, RowBatch)>) -> Result<Vec<usize>> {
        let mut dropped: Vec<Gid> = group_batches.iter().map(|(gid, _)| *gid).collect();
        let mut accepted: HashSet<Gid> = HashSet::new();
        let mut involved: Vec<usize> = Vec::new();
        let mut failed: Vec<usize> = Vec::new();
        {
            // Route under the read lock so a concurrent membership change
            // cannot flip holders mid-batch; death declarations wait until
            // the lock is dropped.
            let topo = self.topo_read();
            let mut per_worker: BTreeMap<usize, Vec<GroupBatch>> = BTreeMap::new();
            for (gid, batch) in group_batches {
                let batch = Arc::new(batch);
                for &holder in topo.holders.get(&gid).into_iter().flatten() {
                    let batch = Arc::clone(&batch);
                    per_worker
                        .entry(holder)
                        .or_default()
                        .push(GroupBatch { gid, batch });
                }
            }
            for (index, batches) in per_worker {
                let gids: Vec<Gid> = batches.iter().map(|b| b.gid).collect();
                match &topo.workers[index].sender {
                    Some(sender) if sender.send(Command::Ingest(batches)).is_ok() => {
                        involved.push(index);
                        accepted.extend(gids);
                    }
                    _ => failed.push(index),
                }
            }
        }
        for &index in &failed {
            self.declare_dead(index, "died during ingest (channel disconnected)");
        }
        // A group is only lost if *no* holder accepted its batch.
        dropped.retain(|gid| !accepted.contains(gid));
        if !dropped.is_empty() {
            dropped.sort_unstable();
            dropped.dedup();
            return Err(MdbError::Ingestion(format!(
                "no surviving worker holds groups {dropped:?}; their data was dropped — \
                 see Cluster::health() for dead workers and lost groups"
            )));
        }
        Ok(involved)
    }

    /// Surfaces the ingestion errors the `involved` workers deferred from
    /// earlier batches (kept pending — a flush reports and clears them).
    fn deferred_error(&self, involved: &[usize]) -> Result<()> {
        let topo = self.topo_read();
        for &index in involved {
            if let Some((message, extra)) = topo.workers[index].shared.peek_error() {
                return Err(MdbError::DeferredIngestion(format!(
                    "worker {index} deferred an ingestion error: {}",
                    deferred_message(message, extra)
                )));
            }
        }
        Ok(())
    }

    /// Routes every row the point assembler still holds, complete or not.
    /// The assembler stays locked while routing, so rows of one group
    /// reach its holders in timestamp order.
    fn route_pending_points(&self) -> Result<()> {
        let mut points = self.points.lock().unwrap_or_else(|e| e.into_inner());
        self.route(points.drain()).map(drop)
    }

    /// Flushes every active worker's buffered ticks and stores, after
    /// routing the rows still waiting in the point assembler. Reports
    /// ingestion errors workers deferred since the last flush (first error
    /// verbatim plus an overflow count; clears them), names the worker in
    /// every error, and declares workers whose channel died. A
    /// [`MdbError::DeferredIngestion`] means the flush itself succeeded and
    /// only pre-existing deferred errors are being surfaced.
    pub fn flush(&self) -> Result<()> {
        let routed = self.route_pending_points();
        let replies = round_trip(
            self.primary_targets(),
            "flush",
            None,
            |_, reply| Command::Flush(reply),
            |index, why| self.declare_dead(index, why),
        );
        if let Some((index, _)) = replies.iter().find(|(_, r)| matches!(r, Reply::Gone)) {
            let died = MdbError::Ingestion(format!("worker {index} died during flush"));
            return routed.and(Err(died));
        }
        let flushed = replies.into_iter().find_map(|(index, reply)| match reply {
            Reply::Answer(Err(MdbError::DeferredIngestion(m))) => {
                Some(MdbError::DeferredIngestion(format!("worker {index}: {m}")))
            }
            Reply::Answer(Err(e)) => Some(MdbError::Ingestion(format!("worker {index}: {e}"))),
            _ => None,
        });
        routed.and(flushed.map_or(Ok(()), Err))
    }

    /// Executes a SQL query: scatter to all primaries, gather, merge,
    /// finalize.
    ///
    /// Each worker computes a partial for the groups it is primary of; the
    /// master merges them (listing rows in global gid order), so the result
    /// is bit-identical no matter which workers served (failover and
    /// handoff safe). If a worker dies mid-query it is declared dead and the whole
    /// query retried against the promoted placement; groups with no
    /// surviving holder are omitted (degraded but correct — see
    /// [`Cluster::health`]).
    pub fn sql(&self, text: &str) -> Result<QueryResult> {
        let query = Arc::new(mdb_query::parse(text)?);
        let attempts = self.n_workers() + 1;
        for _ in 0..attempts {
            match self.try_sql(&query)? {
                Some(result) => return Ok(result),
                None => continue, // a worker died mid-query: placement changed, retry
            }
        }
        Err(MdbError::Query(
            "query failed: workers kept dying across retries".into(),
        ))
    }

    /// One scatter/gather attempt. `Ok(None)` means a worker died and was
    /// declared dead — the caller should retry against the new placement.
    ///
    /// Every primary answers its half of the query and the master
    /// finalizes: a group's partial comes from its one primary, in that
    /// group's scan order, and [`QueryEngine::finalize`] merges any split to
    /// the bits one engine produces.
    fn try_sql(&self, query: &Arc<Query>) -> Result<Option<QueryResult>> {
        let targets = self.primary_targets();
        if targets.is_empty() {
            return Err(MdbError::Query(
                "no active workers; see Cluster::health()".into(),
            ));
        }
        let replies = round_trip(
            targets,
            "query",
            None,
            |scope, reply| Command::Query(Arc::clone(query), scope, reply),
            |index, why| self.declare_dead(index, why),
        );
        if replies.iter().any(|(_, r)| matches!(r, Reply::Gone)) {
            return Ok(None);
        }
        QueryEngine::finalize(query, answers(replies, "query")?).map(Some)
    }

    /// Measures each worker's execution time for a query with the workers
    /// queried **one at a time**, so the measurements are free
    /// of CPU contention between worker threads. The master times each
    /// round trip, so a time includes one channel hop each way. This is the
    /// measurement behind the simulated scale-out of Figure 20: because
    /// groups never span nodes and queries never shuffle, a real cluster's
    /// latency is `max(worker times) + merge`, and per-worker times are
    /// independent of how many other nodes exist.
    pub fn worker_times_isolated(&self, text: &str) -> Result<Vec<Duration>> {
        let query = Arc::new(mdb_query::parse(text)?);
        self.primary_targets()
            .into_iter()
            .map(|target| {
                let start = Instant::now();
                let replies = round_trip(
                    vec![target],
                    "query",
                    None,
                    |scope, reply| Command::Query(Arc::clone(&query), scope, reply),
                    |index, why| self.declare_dead(index, why),
                );
                answers(replies, "query").map(|_| start.elapsed())
            })
            .collect()
    }

    /// Merged compression statistics, total logical bytes, and segment count
    /// across all workers. Each worker reports only the groups it is
    /// primary of, so replicas (and segments left behind by a handoff) are
    /// never double counted; at replication factor 1 this equals the
    /// embedded engine's accounting exactly.
    pub fn stats(&self) -> Result<(CompressionStats, u64, usize)> {
        let replies = round_trip(
            self.primary_targets(),
            "stats",
            None,
            Command::Stats,
            |index, why| self.declare_dead(index, why),
        );
        let mut merged = CompressionStats::default();
        let mut bytes = 0;
        let mut segments = 0;
        for (stats, b, s) in answers(replies, "stats")? {
            merged.merge(&stats);
            bytes += b;
            segments += s;
        }
        Ok((merged, bytes, segments))
    }

    /// Probes every worker the master still believes alive (a health
    /// command round-trip bounded by
    /// [`ClusterConfig::health_probe_timeout`]) and returns the resulting
    /// snapshot: per-worker lifecycle state, hosted and primary groups,
    /// ingest counters, deferred errors, and the groups that have been lost
    /// outright.
    ///
    /// Only a *disconnected* channel — proof the worker thread is gone — is
    /// treated as death. A probe that merely times out (the health command
    /// queues behind pending batches and any in-flight scan or flush, so a
    /// busy disk-backed worker can be slow without being dead) leaves the
    /// worker active and sets [`WorkerHealth::probe_timed_out`]; re-probe
    /// later to distinguish slow from stuck.
    pub fn health(&self) -> ClusterHealth {
        self.health_with_timeout(self.config.health_probe_timeout)
    }

    /// [`Cluster::health`] with an explicit probe timeout for this call.
    pub fn health_with_timeout(&self, timeout: Duration) -> ClusterHealth {
        // Slow is not dead: a late worker is still connected, its queue is
        // just long. Killing it here would turn a lagging worker into (at
        // replication factor 1) reported data loss.
        let timed_out: Vec<usize> = round_trip(
            self.primary_targets(),
            "health probe",
            Some(timeout),
            |_, reply| Command::Health(reply),
            |index, why| self.declare_dead(index, why),
        )
        .into_iter()
        .filter(|(_, reply)| matches!(reply, Reply::Late))
        .map(|(index, _)| index)
        .collect();
        let topo = self.topo_read();
        let workers = topo
            .workers
            .iter()
            .enumerate()
            .map(|(index, worker)| {
                let status = worker
                    .shared
                    .status
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                let note = match (&worker.note, &status.panic) {
                    (Some(note), Some(panic)) => Some(format!("{note}; panicked: {panic}")),
                    (Some(note), None) => Some(note.clone()),
                    (None, Some(panic)) => Some(format!("panicked: {panic}")),
                    (None, None) => None,
                };
                WorkerHealth {
                    index,
                    state: worker.state,
                    hosted_gids: topo.hosted_gids(index),
                    primary_gids: topo.primary_gids(index),
                    batches_ingested: status.batches_ingested,
                    first_error: status.first_error.clone(),
                    deferred_errors: status.deferred_errors,
                    probe_timed_out: timed_out.contains(&index),
                    note,
                }
            })
            .collect();
        ClusterHealth {
            replication_factor: self.config.replication_factor,
            workers,
            lost_gids: topo.lost_gids(),
        }
    }

    /// Stops all workers after routing the rows still waiting in the point
    /// assembler, draining their ingestors and stores. Returns the first
    /// failure (with the worker named and further drain failures counted) —
    /// a disk-backed worker whose final flush failed would otherwise lose
    /// its tail silently.
    pub fn shutdown(mut self) -> Result<()> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<()> {
        let routed = self.route_pending_points();
        let topo = self.topology.get_mut().unwrap_or_else(|e| e.into_inner());
        let targets: Vec<Target<()>> = topo
            .workers
            .iter_mut()
            .enumerate()
            .filter_map(|(index, worker)| Some((index, worker.sender.take()?, ())))
            .collect();
        // Every worker is stopping anyway, so none is declared dead.
        let mut failures = round_trip(
            targets,
            "shutdown",
            None,
            |(), reply| Command::Shutdown(reply),
            |_, _| {},
        )
        .into_iter()
        .filter_map(|(index, reply)| match reply {
            Reply::Answer(Ok(())) => None,
            Reply::Answer(Err(e)) => Some(format!("worker {index} shutdown drain failed: {e}")),
            _ => Some(format!("worker {index} died during shutdown")),
        });
        let first_error = failures.next();
        let extra = failures.count() as u64;
        for worker in &mut topo.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
        routed.and(match first_error {
            Some(message) => Err(MdbError::Ingestion(deferred_message(message, extra))),
            None => Ok(()),
        })
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

impl mdb_query::Datastore for Cluster {
    fn backend(&self) -> &'static str {
        "cluster"
    }

    fn ingest_batch(&mut self, batch: &RowBatch) -> Result<()> {
        Cluster::ingest_batch(self, batch)
    }

    fn ingest_points(&mut self, points: &[(Tid, Timestamp, Value)]) -> Result<()> {
        // The engine's assembly, shared: rows a group completed are routed
        // like the per-group batches of `ingest_batch`, while the
        // assembler stays locked so they reach the holders in order.
        let mut assembler = self.points.lock().unwrap_or_else(|e| e.into_inner());
        let mut released = Vec::new();
        let pushed: Result<()> = points.iter().try_for_each(|&(tid, timestamp, value)| {
            released.extend(assembler.push(tid, timestamp, value)?);
            Ok(())
        });
        let involved = self.route(released)?;
        drop(assembler);
        pushed?;
        self.deferred_error(&involved)
    }

    fn sql(&self, query: &str) -> Result<QueryResult> {
        Cluster::sql(self, query)
    }

    fn flush(&mut self) -> Result<()> {
        Cluster::flush(self)
    }

    fn health(&self) -> Result<mdb_query::DatastoreHealth> {
        let health = Cluster::health(self);
        Ok(mdb_query::DatastoreHealth {
            backend: "cluster".to_string(),
            degraded: health.is_degraded(),
            detail: format!(
                "{}/{} workers active, replication factor {}{}",
                health.active_workers(),
                health.workers.len(),
                health.replication_factor,
                if health.lost_gids.is_empty() {
                    String::new()
                } else {
                    format!(", {} groups lost", health.lost_gids.len())
                }
            ),
            lost_gids: health.lost_gids,
        })
    }
}

/// Spawns one worker slot: opens its shard (disk recovery and ingestor
/// errors surface here, in the master, instead of killing a thread
/// silently), its shared status block, and the supervised thread whose
/// panics are caught and recorded rather than lost.
fn spawn_worker(
    index: usize,
    hosted: Vec<Gid>,
    catalog: &Arc<Catalog>,
    registry: &Arc<ModelRegistry>,
    config: &ClusterConfig,
    budget_share: Option<u64>,
) -> Result<Worker> {
    let (sender, receiver) = bounded::<Command>(config.ingest_queue_depth);
    let options = CommonOptions {
        memory_budget_bytes: budget_share,
        ..config.common.clone()
    };
    let dir = config
        .storage_dir
        .as_ref()
        .map(|dir| dir.join(format!("worker-{index}")));
    let shard = Shard::open(
        Arc::clone(catalog),
        Arc::clone(registry),
        &options,
        dir.as_deref(),
        BlockFormat::V2,
        true,
        &hosted,
    )?;
    let shared = Arc::new(WorkerShared::default());
    let thread_shared = Arc::clone(&shared);
    let handle = std::thread::spawn(move || {
        let panic_shared = Arc::clone(&thread_shared);
        let result = catch_unwind(AssertUnwindSafe(move || {
            worker_loop(receiver, shard, thread_shared);
        }));
        if let Err(payload) = result {
            let message = panic_payload(&payload);
            let mut status = panic_shared
                .status
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            status.panic = Some(message.clone());
            if status.first_error.is_none() {
                status.first_error = Some(format!("worker panicked: {message}"));
            } else {
                status.deferred_errors += 1;
            }
        }
    });
    Ok(Worker {
        sender: Some(sender),
        handle: Some(handle),
        shared,
        state: WorkerState::Active,
        note: None,
    })
}

fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// One worker: the per-node stack of Figure 4, a [`Shard`] over the hosted
/// groups behind the command channel. The shard's store keeps value-bounded
/// per-block statistics, so every worker skips whole blocks before fetching
/// them, before computing partials; the scatter/gather path reuses exactly
/// the single-node pruned scan, one store walk per query over every scoped
/// group, with each group folded on its own.
fn worker_loop(receiver: Receiver<Command>, mut shard: Shard, shared: Arc<WorkerShared>) {
    // Compression counters adopted with handed-off groups: the fresh local
    // ingestor starts at zero, so the source's counters ride along here.
    let mut carried_stats: BTreeMap<Gid, CompressionStats> = BTreeMap::new();
    while let Ok(command) = receiver.recv() {
        // Crash injection: a poisoned worker stops *before* processing the
        // command it just received, like a process crashing mid-stream —
        // everything still queued is discarded with it.
        if shared.poison.load(Ordering::SeqCst) {
            break;
        }
        match command {
            Command::Ingest(batches) => {
                let mut ingested = 0;
                for group_batch in batches {
                    if let Err(e) = shard.ingest(group_batch.gid, group_batch.batch.view()) {
                        shared.record_error(e.to_string());
                    }
                    ingested += 1;
                }
                let mut status = shared.status.lock().unwrap_or_else(|e| e.into_inner());
                status.batches_ingested += ingested;
            }
            Command::Flush(reply) => {
                let drain = shard.drain();
                // Deferred ingestion errors pre-date anything this flush
                // hit, so they are reported first; reporting clears them.
                // The variant records whether this drain itself succeeded.
                let result = match shared.take_error() {
                    Some((message, extra)) => {
                        let deferred = deferred_message(message, extra);
                        Err(match &drain {
                            Ok(()) => MdbError::DeferredIngestion(deferred),
                            Err(e) => {
                                MdbError::Ingestion(format!("{deferred}; drain also failed: {e}"))
                            }
                        })
                    }
                    None => drain,
                };
                let _ = reply.send(result);
            }
            Command::Query(query, scope, reply) => {
                let _ = reply.send(shard.engine(Some(&scope)).partial(&query));
            }
            Command::Stats(scope, reply) => {
                let mut stats = CompressionStats::default();
                for gid in scope.iter() {
                    if let Some(adopted) = carried_stats.get(gid) {
                        stats.merge(adopted);
                    }
                    if let Some(ingestor) = shard.ingestor(*gid) {
                        stats.merge(ingestor.stats());
                    }
                }
                // Views, not records: the byte count needs no parameter
                // copies.
                let mut bytes = 0u64;
                let mut count = 0usize;
                let predicate = SegmentPredicate::for_gids(scope.to_vec());
                let result = shard
                    .store()
                    .scan_runs(&predicate, &mut |run| {
                        for segment in run.segments() {
                            bytes += segment.storage_bytes() as u64;
                            count += 1;
                        }
                    })
                    .map(|_| (stats, bytes, count));
                let _ = reply.send(result);
            }
            Command::Health(reply) => {
                let _ = reply.send(());
            }
            Command::Export(gids, reply) => {
                let _ = reply.send(export_groups(&gids, &mut shard, &mut carried_stats));
            }
            Command::Import(groups, reply) => {
                let run = || -> Result<()> {
                    for (gid, runs, stats) in groups {
                        shard.adopt(gid)?;
                        carried_stats.entry(gid).or_default().merge(&stats);
                        for run in runs {
                            shard.store_mut().import_run(run)?;
                        }
                    }
                    shard.store_mut().flush()
                };
                let _ = reply.send(run());
            }
            Command::Die => break,
            Command::Shutdown(reply) => {
                let mut result = shard.drain();
                if result.is_ok() {
                    if let Some((message, extra)) = shared.take_error() {
                        result = Err(MdbError::Ingestion(deferred_message(message, extra)));
                    }
                }
                if let Err(e) = &result {
                    shared.record_error(e.to_string());
                }
                let _ = reply.send(result);
                break;
            }
        }
    }
}

/// The worker-side sending half of a handoff: drain each group's ingestor
/// into the store, make everything durable, and export the group's segment
/// runs in deterministic per-group scan order, together with the
/// compression counters the group accumulated here. The exported segments
/// stay in the local log (append-only stores cannot delete), but the
/// master's primary-scoped queries and statistics never look at them again.
fn export_groups(
    gids: &[Gid],
    shard: &mut Shard,
    carried_stats: &mut BTreeMap<Gid, CompressionStats>,
) -> Result<Vec<GroupRuns>> {
    let mut shipped_stats: Vec<CompressionStats> = Vec::with_capacity(gids.len());
    for gid in gids {
        let mut stats = carried_stats.remove(gid).unwrap_or_default();
        if let Some(ingestor) = shard.release(*gid)? {
            // After the release's flush, so the counters include its final
            // segments.
            stats.merge(ingestor.stats());
        }
        shipped_stats.push(stats);
    }
    shard.store_mut().flush()?;
    let store = shard.store();
    let mut out = Vec::with_capacity(gids.len());
    for (gid, stats) in gids.iter().zip(shipped_stats) {
        out.push((*gid, store.export_runs(std::slice::from_ref(gid))?, stats));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdb_partitioner::{partition, CorrelationSpec};
    use mdb_types::GroupMeta;

    /// Builds a catalog + cluster from the EP-like tiny data set.
    fn build(n_workers: usize) -> (Arc<Catalog>, Cluster, mdb_datagen::Dataset) {
        let (catalog, ds) = catalog_and_data();
        let registry = Arc::new(ModelRegistry::standard());
        let config = CompressionConfig::with_relative_bound(5.0);
        let cluster = Cluster::start(Arc::clone(&catalog), registry, config, n_workers).unwrap();
        (catalog, cluster, ds)
    }

    fn catalog_and_data() -> (Arc<Catalog>, mdb_datagen::Dataset) {
        let ds = mdb_datagen::ep(5, mdb_datagen::Scale::tiny()).unwrap();
        let parts = partition(
            &ds.series,
            &ds.dimensions,
            &ds.correlation_spec(),
            &ds.sources,
        )
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.dimensions = ds.dimensions.clone();
        for (i, group_tids) in parts.groups.iter().enumerate() {
            let gid = (i + 1) as Gid;
            for (j, tid) in group_tids.iter().enumerate() {
                let mut meta = ds.series.iter().find(|m| m.tid == *tid).unwrap().clone();
                meta.gid = gid;
                meta.scaling = parts.scaling[i][j];
                catalog.series.push(meta);
            }
            catalog.groups.push(GroupMeta {
                gid,
                tids: group_tids.clone(),
                sampling_interval: 60_000,
            });
        }
        catalog.series.sort_by_key(|m| m.tid);
        let registry = ModelRegistry::standard();
        catalog.model_names = registry.names().iter().map(|s| s.to_string()).collect();
        (Arc::new(catalog), ds)
    }

    fn start_replicated(
        catalog: &Arc<Catalog>,
        n_workers: usize,
        replication_factor: usize,
    ) -> Cluster {
        let mut config =
            ClusterConfig::with_compression(CompressionConfig::with_relative_bound(5.0));
        config.replication_factor = replication_factor;
        Cluster::start_with(
            Arc::clone(catalog),
            Arc::new(ModelRegistry::standard()),
            config,
            n_workers,
        )
        .unwrap()
    }

    fn ingest_all(cluster: &Cluster, ds: &mdb_datagen::Dataset, ticks: u64) {
        for tick in 0..ticks {
            cluster
                .ingest_row(ds.timestamp(tick), &ds.row(tick))
                .unwrap();
        }
        cluster.flush().unwrap();
    }

    /// The data starts at 2021-01-01T00:00:00Z (1609459200000) with one
    /// tick a minute. `Concrete` spans both groups.
    const QUERIES: [&str; 8] = [
        "SELECT COUNT_S(*) FROM Segment",
        "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid",
        "SELECT Entity, AVG_S(*) FROM Segment GROUP BY Entity ORDER BY Entity",
        "SELECT Tid, CUBE_SUM_DAY(*) FROM Segment WHERE Tid IN (1, 2) GROUP BY Tid",
        // Whole hours from rollup cells, ragged edges scanned.
        "SELECT Tid, SUM_S(*), AVG_S(*) FROM Segment \
         WHERE TS >= 1609461420007 AND TS <= 1609470793013 GROUP BY Tid",
        "SELECT Concrete, COUNT_S(*), SUM_S(*) FROM Segment \
         WHERE EndTime <= 1609468200000 GROUP BY Concrete",
        "SELECT Concrete, COUNT_S(*), SUM_S(*), MAX_S(*) FROM Segment \
         WHERE Value > 120.5 GROUP BY Concrete",
        "SELECT * FROM DataPoint WHERE TS >= 1609462800000 AND TS <= 1609463700000",
    ];

    #[test]
    fn batched_ingestion_matches_row_at_a_time() {
        let (_, by_row, ds) = build(2);
        ingest_all(&by_row, &ds, 300);
        // Batch path with a deliberately tiny queue depth so the test also
        // exercises backpressure (sends block until the workers drain).
        let (catalog, default_cluster, _) = build(2);
        drop(default_cluster);
        let mut config =
            ClusterConfig::with_compression(CompressionConfig::with_relative_bound(5.0));
        config.ingest_queue_depth = 1;
        let by_batch =
            Cluster::start_with(catalog, Arc::new(ModelRegistry::standard()), config, 2).unwrap();
        let mut batch = mdb_types::RowBatch::with_capacity(ds.n_series(), 64);
        let mut tick = 0u64;
        while tick < 300 {
            batch.clear();
            for t in tick..(tick + 64).min(300) {
                batch.push_row_with(ds.timestamp(t), |s| ds.value(s as u32 + 1, t));
            }
            by_batch.ingest_batch(&batch).unwrap();
            tick += 64;
        }
        by_batch.flush().unwrap();
        for q in [
            "SELECT COUNT_S(*) FROM Segment",
            "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid",
        ] {
            let a = by_row.sql(q).unwrap();
            let b = by_batch.sql(q).unwrap();
            assert_eq!(a.rows, b.rows, "{q}");
        }
        let (sa, _, _) = by_row.stats().unwrap();
        let (sb, _, _) = by_batch.stats().unwrap();
        assert_eq!(sa.rows, sb.rows);
        assert_eq!(sa.data_points, sb.data_points);
        by_row.shutdown().unwrap();
        by_batch.shutdown().unwrap();
    }

    #[test]
    fn disk_backed_workers_answer_like_memory_workers_and_survive_restart() {
        let dir = mdb_testutil::TempDir::new("cluster-disk");
        let (_, by_memory, ds) = build(2);
        ingest_all(&by_memory, &ds, 300);
        let (catalog, default_cluster, _) = build(2);
        drop(default_cluster);
        // Disk-backed workers with a deliberately tiny shared budget: every
        // worker gets budget / n_workers for its block cache, and a small
        // bulk write size produces multiple blocks per worker.
        let mut config =
            ClusterConfig::with_compression(CompressionConfig::with_relative_bound(5.0));
        config.storage_dir = Some(dir.path().to_path_buf());
        config.bulk_write_size = 16;
        config.memory_budget_bytes = Some(64 * 1024);
        let registry = Arc::new(ModelRegistry::standard());
        let by_disk = Cluster::start_with(
            Arc::clone(&catalog),
            Arc::clone(&registry),
            config.clone(),
            2,
        )
        .unwrap();
        ingest_all(&by_disk, &ds, 300);
        let queries = [
            "SELECT COUNT_S(*) FROM Segment",
            "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid",
        ];
        // The two clusters differ in backend, bulk write size and cache
        // budget: compare tolerantly across configurations. Bit-identity is
        // asserted below only between runs of the *same* store.
        let assert_close = |a: &QueryResult, b: &QueryResult, label: &str| {
            assert_eq!(a.rows.len(), b.rows.len(), "{label}");
            for (x, y) in a.rows.iter().flatten().zip(b.rows.iter().flatten()) {
                match (x.as_f64(), y.as_f64()) {
                    (Some(x), Some(y)) => {
                        assert!(
                            (x - y).abs() <= 1e-6 * y.abs().max(1.0),
                            "{label}: {x} vs {y}"
                        )
                    }
                    _ => assert_eq!(x, y, "{label}"),
                }
            }
        };
        for q in queries {
            assert_close(&by_memory.sql(q).unwrap(), &by_disk.sql(q).unwrap(), q);
        }
        // Ingest a tail of ticks WITHOUT an explicit flush: shutdown must
        // drain the ingestors and write buffers so nothing is lost.
        for tick in 300..350 {
            by_disk
                .ingest_row(ds.timestamp(tick), &ds.row(tick))
                .unwrap();
        }
        by_disk.shutdown().unwrap();
        for tick in 300..350 {
            by_memory
                .ingest_row(ds.timestamp(tick), &ds.row(tick))
                .unwrap();
        }
        by_memory.flush().unwrap();
        // Restarting over the same directory recovers every worker's log,
        // including the tail made durable by the shutdown drain.
        let reopened = Cluster::start_with(catalog, registry, config, 2).unwrap();
        for q in queries {
            assert_close(
                &by_memory.sql(q).unwrap(),
                &reopened.sql(q).unwrap(),
                &format!("{q} after restart"),
            );
        }
        // Same store state, same scan order: a second reopened run is
        // bit-identical to the first.
        let again: Vec<QueryResult> = queries.iter().map(|q| reopened.sql(q).unwrap()).collect();
        for (q, want) in queries.iter().zip(&again) {
            assert_eq!(&reopened.sql(q).unwrap(), want, "{q} re-run");
        }
        reopened.shutdown().unwrap();
        by_memory.shutdown().unwrap();
    }

    #[test]
    fn zero_queue_depth_rejected() {
        let catalog = Arc::new(Catalog::new());
        let registry = Arc::new(ModelRegistry::standard());
        let config = ClusterConfig::from_common(CommonOptions {
            ingest_queue_depth: 0,
            ..CommonOptions::default()
        });
        assert!(Cluster::start_with(catalog, registry, config, 1).is_err());
    }

    #[test]
    fn replication_factor_must_fit_cluster() {
        let catalog = Arc::new(Catalog::new());
        let registry = Arc::new(ModelRegistry::standard());
        for bad in [0, 3] {
            let config = ClusterConfig {
                replication_factor: bad,
                ..ClusterConfig::default()
            };
            assert!(
                Cluster::start_with(Arc::clone(&catalog), Arc::clone(&registry), config, 2)
                    .is_err(),
                "replication_factor {bad} with 2 workers"
            );
        }
    }

    #[test]
    fn single_worker_end_to_end() {
        let (_, cluster, ds) = build(1);
        ingest_all(&cluster, &ds, 300);
        let r = cluster.sql("SELECT COUNT_S(*) FROM Segment").unwrap();
        let count = r.rows[0][0].as_i64().unwrap();
        assert_eq!(count as u64, ds.count_data_points(300));
        cluster.shutdown().unwrap();
    }

    #[test]
    fn results_are_identical_across_cluster_sizes() {
        let (catalog, one, ds) = build(1);
        ingest_all(&one, &ds, 300);
        let baseline: Vec<QueryResult> = QUERIES.iter().map(|q| one.sql(q).unwrap()).collect();
        one.shutdown().unwrap();
        // At rf = n every worker holds every group, and primaries spread by
        // query load, so each size folds a different number of groups per
        // store walk.
        for (n, rf) in [(2, 1), (3, 1), (2, 2), (3, 3)] {
            let cluster = start_replicated(&catalog, n, rf);
            ingest_all(&cluster, &ds, 300);
            for (q, expected) in QUERIES.iter().zip(&baseline) {
                // Exact slot sums and per-group bucket order: the result is
                // bit-identical regardless of the cluster size.
                let got = cluster.sql(q).unwrap();
                assert_eq!(&got, expected, "{q} with {n} workers at rf {rf}");
            }
            // The groups weigh the same, so primary counts differ by at
            // most one.
            let health = cluster.health();
            let primaries: Vec<usize> = health
                .workers
                .iter()
                .map(|w| w.primary_gids.len())
                .collect();
            let spread = primaries.iter().max().unwrap() - primaries.iter().min().unwrap();
            assert!(spread <= 1, "{primaries:?} with {n} workers at rf {rf}");
            cluster.shutdown().unwrap();
        }
    }

    #[test]
    fn replicated_cluster_answers_identically_to_unreplicated() {
        let (catalog, plain, ds) = build(3);
        ingest_all(&plain, &ds, 300);
        let baseline: Vec<QueryResult> = QUERIES.iter().map(|q| plain.sql(q).unwrap()).collect();
        plain.shutdown().unwrap();
        let replicated = start_replicated(&catalog, 3, 2);
        ingest_all(&replicated, &ds, 300);
        for (q, expected) in QUERIES.iter().zip(&baseline) {
            assert_eq!(&replicated.sql(q).unwrap(), expected, "{q} at rf=2");
        }
        // Each group is hosted on exactly two workers, primaries distinct.
        let health = replicated.health();
        let hosted_total: usize = health.workers.iter().map(|w| w.hosted_gids.len()).sum();
        assert_eq!(hosted_total, 2 * catalog.groups.len());
        let primary_total: usize = health.workers.iter().map(|w| w.primary_gids.len()).sum();
        assert_eq!(primary_total, catalog.groups.len());
        // Stats are primary-scoped, so replication never double counts.
        let (stats, _, _) = replicated.stats().unwrap();
        assert_eq!(stats.data_points, ds.count_data_points(300));
        replicated.shutdown().unwrap();
    }

    #[test]
    fn killing_a_worker_with_replication_preserves_results_exactly() {
        let (catalog, baseline, ds) = build(3);
        drop(baseline);
        let never_failed = start_replicated(&catalog, 3, 2);
        ingest_all(&never_failed, &ds, 300);
        let expected: Vec<QueryResult> = QUERIES
            .iter()
            .map(|q| never_failed.sql(q).unwrap())
            .collect();
        never_failed.shutdown().unwrap();
        for victim in 0..3 {
            let cluster = start_replicated(&catalog, 3, 2);
            for tick in 0..150 {
                cluster
                    .ingest_row(ds.timestamp(tick), &ds.row(tick))
                    .unwrap();
            }
            assert!(cluster.kill_worker(victim));
            // Failover is transparent: ingestion keeps succeeding because
            // every group still has a live holder.
            for tick in 150..300 {
                cluster
                    .ingest_row(ds.timestamp(tick), &ds.row(tick))
                    .unwrap();
            }
            cluster.flush().unwrap();
            for (q, want) in QUERIES.iter().zip(&expected) {
                assert_eq!(&cluster.sql(q).unwrap(), want, "{q} after killing {victim}");
            }
            let health = cluster.health();
            assert_eq!(health.workers[victim].state, WorkerState::Dead);
            assert!(health.lost_gids.is_empty());
            assert!(health.is_degraded());
            cluster.shutdown().unwrap();
        }
    }

    #[test]
    fn unreplicated_worker_loss_is_detected_and_reported() {
        let (catalog, cluster, ds) = build(2);
        for tick in 0..100 {
            cluster
                .ingest_row(ds.timestamp(tick), &ds.row(tick))
                .unwrap();
        }
        assert!(cluster.kill_worker(0));
        // Every tick routes data to groups the dead worker owned, so the
        // loss is reported (with a pointer at health()) instead of silent.
        let err = cluster.ingest_row(ds.timestamp(100), &ds.row(100));
        let message = format!("{}", err.unwrap_err());
        assert!(message.contains("health"), "unexpected error: {message}");
        let health = cluster.health();
        assert_eq!(health.workers[0].state, WorkerState::Dead);
        assert!(!health.lost_gids.is_empty());
        assert!(health.is_degraded());
        // Degraded queries still answer from the surviving worker.
        cluster.flush().unwrap();
        let r = cluster.sql("SELECT COUNT_S(*) FROM Segment").unwrap();
        assert!(r.rows[0][0].as_i64().unwrap() > 0);
        let surviving: usize = health.workers[1].primary_gids.len();
        assert_eq!(surviving + health.lost_gids.len(), catalog.groups.len());
        cluster.shutdown().unwrap();
    }

    #[test]
    fn silent_crash_is_detected_at_the_next_flush() {
        let (_, cluster, ds) = build(2);
        for tick in 0..50 {
            cluster
                .ingest_row(ds.timestamp(tick), &ds.row(tick))
                .unwrap();
        }
        cluster.flush().unwrap();
        assert!(cluster.crash_worker(1));
        // The master has not been told; the next flush observes the
        // disconnected channel, names the worker, and declares it dead.
        let mut observed = None;
        for _ in 0..100 {
            match cluster.flush() {
                Ok(()) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => {
                    observed = Some(format!("{e}"));
                    break;
                }
            }
        }
        let message = observed.expect("crash never detected");
        assert!(message.contains("worker 1"), "unexpected error: {message}");
        assert_eq!(cluster.health().workers[1].state, WorkerState::Dead);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn deferred_ingest_errors_keep_first_and_count_rest() {
        let (_, cluster, ds) = build(1);
        for tick in 0..10 {
            cluster
                .ingest_row(ds.timestamp(tick), &ds.row(tick))
                .unwrap();
        }
        // Out-of-order timestamps are rejected by the group ingestors
        // *inside the worker*, after the send already succeeded — exactly
        // the deferred case. Push several so the overflow count engages.
        let mut reported = None;
        for _ in 0..50 {
            match cluster.ingest_row(ds.timestamp(0), &ds.row(0)) {
                Ok(()) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => {
                    reported = Some(e);
                    break;
                }
            }
        }
        // The deferred error surfaces on a later ingest (satellite: not
        // only at flush), names the worker, and is the distinct
        // DeferredIngestion variant: the batch of the reporting call was
        // accepted, so callers must not retry it.
        let error = reported.expect("deferred error never surfaced on ingest");
        assert!(
            matches!(error, MdbError::DeferredIngestion(_)),
            "expected DeferredIngestion, got {error}"
        );
        let message = format!("{error}");
        assert!(message.contains("worker 0"), "{message}");
        // Flush reports the deferred state (first error kept verbatim,
        // later ones only counted) and clears it. The flush itself drained
        // fine, so the variant again marks the error as deferred-only.
        let flushed = cluster.flush().unwrap_err();
        assert!(
            matches!(flushed, MdbError::DeferredIngestion(_)),
            "expected DeferredIngestion from flush, got {flushed}"
        );
        // Reporting cleared the deferred state: the next flush succeeds.
        cluster.flush().unwrap();
        assert_eq!(cluster.health().workers[0].first_error, None);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn shutdown_reports_failed_drain_of_disk_worker() {
        let dir = mdb_testutil::TempDir::new("cluster-drain-fail");
        let (catalog, default_cluster, ds) = build(1);
        drop(default_cluster);
        let mut config =
            ClusterConfig::with_compression(CompressionConfig::with_relative_bound(5.0));
        config.storage_dir = Some(dir.path().to_path_buf());
        config.bulk_write_size = 8;
        let cluster = Cluster::start_with(
            Arc::clone(&catalog),
            Arc::new(ModelRegistry::standard()),
            config,
            1,
        )
        .unwrap();
        ingest_all(&cluster, &ds, 100);
        // Leave un-flushed ticks pending, then make the store's sidecar
        // un-replaceable: the final drain's flush cannot rename its temp
        // file over a non-empty directory.
        for tick in 100..160 {
            cluster
                .ingest_row(ds.timestamp(tick), &ds.row(tick))
                .unwrap();
        }
        let sidecar = dir.path().join("worker-0").join("segments.idx");
        std::fs::remove_file(&sidecar).unwrap();
        std::fs::create_dir(&sidecar).unwrap();
        std::fs::write(sidecar.join("occupied"), b"x").unwrap();
        let err = cluster.shutdown().unwrap_err();
        let message = format!("{err}");
        assert!(
            message.contains("worker 0") && message.contains("shutdown drain failed"),
            "unexpected shutdown error: {message}"
        );
    }

    #[test]
    fn groups_never_span_workers() {
        let (catalog, cluster, _) = build(3);
        let assignment = cluster.assignment();
        let mut seen = Vec::new();
        for gids in &assignment {
            for gid in gids {
                assert!(!seen.contains(gid), "gid {gid} on two workers");
                seen.push(*gid);
            }
        }
        assert_eq!(seen.len(), catalog.groups.len());
        cluster.shutdown().unwrap();
    }

    #[test]
    fn listing_queries_merge_rows_with_order_and_limit() {
        let (_, cluster, ds) = build(2);
        ingest_all(&cluster, &ds, 200);
        let ts = ds.timestamp(50);
        let r = cluster
            .sql(&format!(
                "SELECT Tid, TS, Value FROM DataPoint WHERE TS = {ts} ORDER BY Tid LIMIT 4"
            ))
            .unwrap();
        assert!(r.rows.len() <= 4);
        let tids: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        let mut sorted = tids.clone();
        sorted.sort();
        assert_eq!(tids, sorted);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn timed_queries_report_per_worker_latency() {
        let (_, cluster, ds) = build(2);
        ingest_all(&cluster, &ds, 200);
        let sql = "SELECT COUNT_S(*) FROM Segment";
        // One master-timed round trip per active primary.
        let times = cluster.worker_times_isolated(sql).unwrap();
        assert_eq!(times.len(), 2);
        assert!(times.iter().all(|t| !t.is_zero()), "{times:?}");
        assert!(cluster.kill_worker(1));
        assert_eq!(cluster.worker_times_isolated(sql).unwrap().len(), 1);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn stats_merge_across_workers() {
        let (_, cluster, ds) = build(2);
        ingest_all(&cluster, &ds, 300);
        let (stats, bytes, segments) = cluster.stats().unwrap();
        assert_eq!(stats.data_points, ds.count_data_points(300));
        assert!(bytes > 0);
        assert!(segments > 0);
        assert_eq!(stats.segments as usize, segments);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn zero_workers_rejected() {
        let catalog = Arc::new(Catalog::new());
        let registry = Arc::new(ModelRegistry::standard());
        assert!(Cluster::start(catalog, registry, CompressionConfig::default(), 0).is_err());
    }

    #[test]
    fn bad_sql_propagates_errors() {
        let (_, cluster, ds) = build(2);
        ingest_all(&cluster, &ds, 50);
        assert!(cluster.sql("SELECT NOPE(*) FROM Segment").is_err());
        assert!(cluster
            .sql("SELECT COUNT_S(*) FROM Segment WHERE Altitude = 'x'")
            .is_err());
        cluster.shutdown().unwrap();
    }

    #[test]
    fn correlation_spec_none_reproduces_modelardb_v1() {
        // With no correlation hints every series is its own group — the
        // ModelarDBv1 baseline of the evaluation.
        let ds = mdb_datagen::ep(5, mdb_datagen::Scale::tiny()).unwrap();
        let parts = partition(
            &ds.series,
            &ds.dimensions,
            &CorrelationSpec::none(),
            &ds.sources,
        )
        .unwrap();
        assert_eq!(parts.groups.len(), ds.n_series());
    }

    #[test]
    fn add_worker_rebalances_and_preserves_results() {
        let (_, cluster, ds) = build(2);
        ingest_all(&cluster, &ds, 300);
        let baseline: Vec<QueryResult> = QUERIES.iter().map(|q| cluster.sql(q).unwrap()).collect();
        let index = cluster.add_worker().unwrap();
        assert_eq!(index, 2);
        let assignment = cluster.assignment();
        assert!(
            !assignment[2].is_empty(),
            "new worker received no groups: {assignment:?}"
        );
        for (q, want) in QUERIES.iter().zip(&baseline) {
            assert_eq!(&cluster.sql(q).unwrap(), want, "{q} after add_worker");
        }
        let (stats, _, _) = cluster.stats().unwrap();
        assert_eq!(stats.data_points, ds.count_data_points(300));
        cluster.shutdown().unwrap();
    }

    #[test]
    fn remove_worker_hands_groups_off_and_preserves_results() {
        let (catalog, cluster, ds) = build(3);
        ingest_all(&cluster, &ds, 300);
        let baseline: Vec<QueryResult> = QUERIES.iter().map(|q| cluster.sql(q).unwrap()).collect();
        cluster.remove_worker(0).unwrap();
        let health = cluster.health();
        assert_eq!(health.workers[0].state, WorkerState::Removed);
        assert!(health.workers[0].hosted_gids.is_empty());
        assert!(health.lost_gids.is_empty());
        for (q, want) in QUERIES.iter().zip(&baseline) {
            assert_eq!(&cluster.sql(q).unwrap(), want, "{q} after remove_worker");
        }
        // Ingestion keeps working against the shrunk cluster.
        for tick in 300..320 {
            cluster
                .ingest_row(ds.timestamp(tick), &ds.row(tick))
                .unwrap();
        }
        cluster.flush().unwrap();
        assert!(!catalog.groups.is_empty());
        cluster.shutdown().unwrap();
    }

    #[test]
    fn moving_a_group_back_to_a_past_holder_is_refused() {
        let (_, cluster, ds) = build(2);
        ingest_all(&cluster, &ds, 300);
        let want = cluster.sql("SELECT COUNT_S(*) FROM Segment").unwrap();
        let gid = cluster.assignment()[0][0];
        cluster.move_group(gid, 0, 1).unwrap();
        assert_eq!(cluster.sql("SELECT COUNT_S(*) FROM Segment").unwrap(), want);
        // Worker 0's append-only log still contains the segments it
        // exported; importing the group again would duplicate them.
        let err = cluster.move_group(gid, 1, 0).unwrap_err();
        let message = format!("{err}");
        assert!(message.contains("previously held"), "{message}");
        assert_eq!(cluster.sql("SELECT COUNT_S(*) FROM Segment").unwrap(), want);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn remove_worker_never_returns_groups_to_their_donors() {
        let (_, cluster, ds) = build(2);
        ingest_all(&cluster, &ds, 300);
        let baseline: Vec<QueryResult> = QUERIES.iter().map(|q| cluster.sql(q).unwrap()).collect();
        let before = cluster.assignment();
        let added = cluster.add_worker().unwrap();
        let moved = cluster.assignment()[added].clone();
        assert!(!moved.is_empty());
        // Decommissioning the new worker must not hand any group back to
        // the worker it was taken from — that donor's log still contains
        // the group's segments, and a second copy would double aggregates.
        cluster.remove_worker(added).unwrap();
        let after = cluster.assignment();
        for &gid in &moved {
            let donor = before.iter().position(|gids| gids.contains(&gid)).unwrap();
            assert!(
                !after[donor].contains(&gid),
                "group {gid} returned to its donor {donor}"
            );
        }
        for (q, want) in QUERIES.iter().zip(&baseline) {
            assert_eq!(&cluster.sql(q).unwrap(), want, "{q} after grow+shrink");
        }
        cluster.shutdown().unwrap();
    }

    #[test]
    fn past_holder_guard_survives_restart() {
        let dir = mdb_testutil::TempDir::new("cluster-ever-held");
        let (catalog, default_cluster, ds) = build(2);
        drop(default_cluster);
        let mut config =
            ClusterConfig::with_compression(CompressionConfig::with_relative_bound(5.0));
        config.storage_dir = Some(dir.path().to_path_buf());
        config.bulk_write_size = 16;
        let registry = Arc::new(ModelRegistry::standard());
        let cluster = Cluster::start_with(
            Arc::clone(&catalog),
            Arc::clone(&registry),
            config.clone(),
            2,
        )
        .unwrap();
        ingest_all(&cluster, &ds, 300);
        let want = cluster.sql("SELECT COUNT_S(*) FROM Segment").unwrap();
        let gid = cluster.assignment()[0][0];
        cluster.move_group(gid, 0, 1).unwrap();
        cluster.shutdown().unwrap();
        // The donor's leftover segments survive the restart in its log, so
        // the manifest must carry the ever-held guard across it.
        let reopened = Cluster::start_with(catalog, registry, config, 2).unwrap();
        assert_eq!(
            reopened.sql("SELECT COUNT_S(*) FROM Segment").unwrap(),
            want
        );
        let err = reopened.move_group(gid, 1, 0).unwrap_err();
        let message = format!("{err}");
        assert!(message.contains("previously held"), "{message}");
        assert_eq!(
            reopened.sql("SELECT COUNT_S(*) FROM Segment").unwrap(),
            want
        );
        reopened.shutdown().unwrap();
    }

    #[test]
    fn slow_health_probe_marks_worker_slow_not_dead() {
        let (_, cluster, ds) = build(1);
        let mut batch = mdb_types::RowBatch::with_capacity(ds.n_series(), 300);
        for t in 0..300 {
            batch.push_row_with(ds.timestamp(t), |s| ds.value(s as u32 + 1, t));
        }
        cluster.ingest_batch(&batch).unwrap();
        // Probe with a zero timeout while the worker is still compressing
        // the batch: the probe times out, but a timeout is not proof of
        // death — the worker stays active and nothing is reported lost.
        let health = cluster.health_with_timeout(Duration::ZERO);
        assert_eq!(health.workers[0].state, WorkerState::Active);
        assert!(health.workers[0].probe_timed_out);
        assert!(health.lost_gids.is_empty());
        assert!(!health.is_degraded());
        // Once the worker drains, a normal probe succeeds.
        cluster.flush().unwrap();
        let settled = cluster.health();
        assert_eq!(settled.workers[0].state, WorkerState::Active);
        assert!(!settled.workers[0].probe_timed_out);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn remove_last_worker_is_refused() {
        let (_, cluster, ds) = build(1);
        ingest_all(&cluster, &ds, 50);
        assert!(cluster.remove_worker(0).is_err());
        // Still fully operational afterwards.
        let r = cluster.sql("SELECT COUNT_S(*) FROM Segment").unwrap();
        assert!(r.rows[0][0].as_i64().unwrap() > 0);
        cluster.shutdown().unwrap();
    }
}
