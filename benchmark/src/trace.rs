//! The traced run: where an operation's time goes, measured from outside.
//!
//! The program has no spans of its own yet, so the harness performs every
//! operation of a workload once per rung of a ladder of public entry points,
//! each rung on its own twin of the store:
//!
//! ```text
//! client   Client::{ingest_batch, flush, sql}          over the wire
//! shared   SharedDatastore::{ingest_batch, flush, sql} in process, through the lock
//! cluster  Cluster::{ingest_batch, flush, sql}         (cluster.rf2 only)
//! engine   ModelarDb::{ingest_batch, flush, sql}
//! compress GroupIngestor::{push_batch, flush}          child of engine (ingest)
//! store    SegmentStore::{insert, flush} on a DiskStore child of engine (ingest)
//! parse    mdb_query::parse                            child of engine (queries)
//! ```
//!
//! The rungs take turns operation by operation — batch 7 goes down the whole
//! ladder before batch 8 starts — so the state the machine is in is shared
//! by every rung of an operation and cancels in the subtraction.
//!
//! Every call is a span (name, parent rung, operation id, class, start, end,
//! a count). A layer's self time for an operation is its span minus its
//! child rungs' spans for the same operation id. Spans stay in memory and
//! are written to `benchmark/out/trace.<workload>.json` at the end.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mdb_server::{Request, Response};
use modelardb::{
    CacheStats, Catalog, Client, Cluster, Config, DiskStore, DiskStoreOptions, GroupIngestor,
    MdbError, ModelRegistry, ModelarDb, QueryResult, RowBatch, SegmentStore, Server,
    SharedDatastore,
};

use crate::gen::{self, MixQuery, BATCH_ROWS};
use crate::stats::{self, Json};
use crate::workload::{
    audit, disk_engine, engine_config, rf2_cluster, same_bits, serve, Kind, ScratchDir, Tally,
    Workload, CLUSTER_BATCHES, FLUSH_EVERY, PRELOAD_BATCHES, PRELOAD_FLUSH_EVERY,
    QUERY_CACHE_BUDGET,
};
use crate::Outcome;

/// Batches the traced `ingest.engine-disk` sends down the ladder (four flush
/// intervals; the untraced run streams 384).
const TRACE_INGEST_BATCHES: usize = 256;
/// New batches the traced `mixed.engine-disk` appends to its preloaded store
/// (two flush intervals; the untraced writer appends 320).
const TRACE_MIXED_BATCHES: usize = 128;
/// The traced queries are a workload's own, fewer of them: `20 × 2` of the
/// dashboard mix, or this `[point, window, wide]` cut of the read-back audit.
/// After one unrecorded pass they go down the ladder `TRACE_PASSES` times.
const TRACE_MIX_SCALE: usize = 2;
const TRACE_AUDIT_QUERIES: [usize; 3] = [10, 35, 5];
const TRACE_PASSES: usize = 5;
/// Batches each timed write-wait phase of `mixed.engine-disk` appends, and
/// batches the untimed peer writer of a read-wait phase has to send (it is
/// stopped when the timed reads end, long before it runs out).
const TRACE_CONTENDED_BATCHES: usize = 64;
const TRACE_PEER_BATCHES: usize = 1024;

/// A per-layer metric: name, unit, whether higher is better.
/// `BENCHMARK.json`'s `per_layer` carries the same table.
pub const PER_LAYER: [(&str, &str, bool); 33] = [
    ("wire_ingest_self_us_per_batch", "us", false),
    ("wire_query_self_ms", "ms", false),
    ("wire_bytes_per_point", "B", false),
    ("codec_ingest_us_per_frame", "us", false),
    ("codec_result_us_per_frame", "us", false),
    ("lock_ingest_self_us_per_batch", "us", false),
    ("lock_read_wait_ms", "ms", false),
    ("lock_write_wait_ms", "ms", false),
    ("cluster_ingest_self_us_per_batch", "us", false),
    ("cluster_sql_self_ms", "ms", false),
    ("engine_ingest_us_per_batch", "us", false),
    ("engine_ingest_self_us_per_batch", "us", false),
    ("engine_flush_ms", "ms", false),
    ("flush_growth", "ratio", false),
    ("compress_ns_per_point", "ns", false),
    ("segments_per_kpoint", "count", false),
    ("gorilla_share_pct", "%", false),
    ("store_insert_ns_per_segment", "ns", false),
    ("store_flush_ms", "ms", false),
    ("reopen_ms", "ms", false),
    ("parse_us", "us", false),
    ("sql_p50_ms.narrow", "ms", false),
    ("sql_p50_ms.cube", "ms", false),
    ("sql_p50_ms.sketch", "ms", false),
    ("sql_p50_ms.broad", "ms", false),
    ("sql_p50_ms.value", "ms", false),
    ("sql_p50_ms.point", "ms", false),
    ("cache_hit_rate_pct", "%", true),
    ("cache_misses_per_query", "count", false),
    ("cache_bytes_read_per_query", "B", false),
    ("prefetch_hits_per_query", "count", true),
    ("zero_fetch_share_pct", "%", true),
    ("trace_overhead_pct", "%", false),
];

/// Which layer a rung's self time is charged to.
const LAYERS: [(&str, &str); 7] = [
    ("client", "mdb_server wire"),
    ("shared", "SharedDatastore lock"),
    ("cluster", "mdb_cluster"),
    ("engine", "modelardb engine + mdb_query"),
    ("compress", "mdb_compression + mdb_models"),
    ("store", "mdb_storage write"),
    ("parse", "mdb_query parse"),
];

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<&'static str>,
    class: &'static str,
    op: u32,
    start_ns: u64,
    end_ns: u64,
    /// Points for ingest spans, rows for query spans, segments for `store`.
    count: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as one span; `f` returns its value and the span's count.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        class: &'static str,
        op: u32,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        if !self.on {
            return f().0;
        }
        let start_ns = self.ns();
        let (value, count) = f();
        let end_ns = self.ns();
        self.spans.push(Span {
            name,
            parent,
            class,
            op,
            start_ns,
            end_ns,
            count,
        });
        value
    }

    /// `(op → duration in ms)` of one rung and class.
    fn durations(&self, name: &str, class: &str) -> BTreeMap<u32, f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.class == class)
            .map(|s| (s.op, s.ms()))
            .collect()
    }

    /// Per operation: this rung's span minus its child rungs' spans.
    fn self_ms(&self, name: &str, class: &str) -> Vec<f64> {
        let children: Vec<BTreeMap<u32, f64>> = LAYERS
            .iter()
            .map(|(child, _)| *child)
            .filter(|child| {
                self.spans
                    .iter()
                    .any(|s| s.name == *child && s.class == class && s.parent == Some(name))
            })
            .map(|child| self.durations(child, class))
            .collect();
        self.durations(name, class)
            .iter()
            .map(|(op, ms)| ms - children.iter().filter_map(|c| c.get(op)).sum::<f64>())
            .collect()
    }

    fn median_self_ms(&self, name: &str, classes: &[&str]) -> f64 {
        let all: Vec<f64> = classes.iter().flat_map(|c| self.self_ms(name, c)).collect();
        median_or_zero(&all)
    }

    fn median_ms(&self, name: &str, class: &str) -> f64 {
        let all: Vec<f64> = self.durations(name, class).into_values().collect();
        median_or_zero(&all)
    }

    fn total_ms(&self, name: &str, class: &str) -> f64 {
        self.durations(name, class).values().sum()
    }
}

/// A rung a workload never enters has no spans; its metrics read 0.
fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

/// Cache counters charged to one query class on the engine rung.
#[derive(Default, Clone, Copy)]
struct Reads {
    queries: u64,
    fetches: u64,
    misses: u64,
    bytes_read: u64,
    prefetch_hits: u64,
    decode_validations: u64,
    zero_fetch: u64,
}

impl Reads {
    fn charge(&mut self, before: CacheStats, after: CacheStats) {
        let fetches = (after.hits + after.misses) - (before.hits + before.misses);
        self.queries += 1;
        self.fetches += fetches;
        self.misses += after.misses - before.misses;
        self.bytes_read += after.bytes_read - before.bytes_read;
        self.prefetch_hits += after.prefetch_hits - before.prefetch_hits;
        self.decode_validations += after.decode_validations - before.decode_validations;
        self.zero_fetch += u64::from(fetches == 0);
    }

    fn add(&mut self, other: &Reads) {
        self.queries += other.queries;
        self.fetches += other.fetches;
        self.misses += other.misses;
        self.bytes_read += other.bytes_read;
        self.prefetch_hits += other.prefetch_hits;
        self.decode_validations += other.decode_validations;
        self.zero_fetch += other.zero_fetch;
    }

    fn json(&self) -> Json {
        Json::obj(
            [
                ("queries", self.queries),
                ("body_fetches", self.fetches),
                ("misses", self.misses),
                ("bytes_read", self.bytes_read),
                ("prefetch_hits", self.prefetch_hits),
                ("decode_validations", self.decode_validations),
                ("zero_fetch_queries", self.zero_fetch),
            ]
            .map(|(k, v)| (k.to_string(), Json::Num(v as f64))),
        )
    }
}

/// One twin of the workload's store per rung, each behind the entry point
/// the rung calls.
struct Ladder {
    server: Server,
    client: Client,
    shared: SharedDatastore,
    cluster: Option<Cluster>,
    engine: ModelarDb,
    /// As `ModelarDb::from_catalog` builds them, with each group's columns.
    ingestors: Vec<(GroupIngestor, Vec<usize>)>,
    /// Opened as the engine opens its own.
    store: DiskStore,
    engine_dir: ScratchDir,
    _other_dirs: Vec<ScratchDir>,
}

impl Ladder {
    fn build(
        workload: &Workload,
        catalog: &Arc<Catalog>,
        registry: &Arc<ModelRegistry>,
        base: &Config,
        budget: Option<u64>,
        out: &Path,
    ) -> Ladder {
        let on_cluster = workload.kind == Kind::Cluster;
        let dir = |rung: &str| ScratchDir::new(out, &format!("{}.trace-{rung}", workload.name));
        let (client_dir, shared_dir, cluster_dir, engine_dir, store_dir) = (
            dir("client"),
            dir("shared"),
            dir("cluster"),
            dir("engine"),
            dir("store"),
        );
        let (server, _) = if on_cluster {
            serve(rf2_cluster(catalog, registry, base, &client_dir.0))
        } else {
            serve(disk_engine(catalog, registry, base, &client_dir.0, budget))
        };
        let client = Client::connect(server.local_addr()).expect("the traced server accepts");
        let shared = if on_cluster {
            SharedDatastore::new(rf2_cluster(catalog, registry, base, &shared_dir.0))
        } else {
            SharedDatastore::new(disk_engine(catalog, registry, base, &shared_dir.0, budget))
        };
        let cluster = on_cluster.then(|| rf2_cluster(catalog, registry, base, &cluster_dir.0));
        let engine = disk_engine(catalog, registry, base, &engine_dir.0, budget);
        let ingestors = catalog
            .groups
            .iter()
            .map(|group| {
                let scaling = group.tids.iter().map(|t| catalog.scaling_of(*t)).collect();
                let columns = group.tids.iter().map(|t| *t as usize - 1).collect();
                let ingestor = GroupIngestor::new(
                    group.clone(),
                    scaling,
                    Arc::clone(registry),
                    base.compression.clone(),
                )
                .expect("the catalog's groups are valid");
                (ingestor, columns)
            })
            .collect();
        let store = DiskStore::open_with(
            &store_dir.0,
            DiskStoreOptions {
                bulk_write_size: base.bulk_write_size,
                memory_budget_bytes: budget,
                value_bounds: Some(modelardb::value_bounds_fn(catalog, registry)),
                sketch_feed: Some(modelardb::sketch_feed(catalog, registry)),
                rollup_feed: Some(modelardb::rollup_feed(
                    catalog,
                    registry,
                    &base.rollup_levels,
                )),
                prefetch_depth: base.prefetch_depth,
                write_format: base.block_format,
            },
        )
        .expect("a fresh disk store opens");
        Ladder {
            server,
            client,
            shared,
            cluster,
            engine,
            ingestors,
            store,
            engine_dir,
            _other_dirs: vec![client_dir, shared_dir, cluster_dir, store_dir],
        }
    }

    /// The rung that calls the engine.
    fn above_engine(&self) -> &'static str {
        if self.cluster.is_some() {
            "cluster"
        } else {
            "shared"
        }
    }

    /// Sends one flush interval — `batches` (with their point counts), then
    /// a `Flush` — down the ladder, a rung at a time: a cluster acknowledges
    /// a batch before its workers have compressed it, and the flush that
    /// ends a rung's turn keeps that work out of the next rung's spans.
    /// Ingest spans are numbered from `first_id`.
    fn ingest_interval(
        &mut self,
        tracer: &mut Tracer,
        tally: &mut Tally,
        first_id: u32,
        flush_id: u32,
        batches: &[RowBatch],
        points: &[u64],
    ) {
        /// One rung's call: a batch, or a flush for `None`. Returns the
        /// span's count where that is not the batch's points.
        type Call<'a> = &'a mut dyn FnMut(Option<&RowBatch>) -> Result<Option<u64>, MdbError>;
        let above_engine = self.above_engine();
        let mut rung = |name: &'static str, parent: Option<&'static str>, call: Call<'_>| {
            for (i, batch) in batches.iter().enumerate() {
                let result = tracer.span(name, parent, "ingest", first_id + i as u32, || {
                    let result = call(Some(batch));
                    let count = result.as_ref().map_or(0, |n| n.unwrap_or(points[i]));
                    (result, count)
                });
                tally.ok(result, name);
            }
            let result = tracer.span(name, parent, "flush", flush_id, || {
                let result = call(None);
                let count = result.as_ref().map_or(0, |n| n.unwrap_or(0));
                (result, count)
            });
            tally.ok(result, name);
        };
        rung("client", None, &mut |batch| {
            match batch {
                Some(batch) => self.client.ingest_batch(batch)?,
                None => self.client.flush()?,
            };
            Ok(None)
        });
        rung("shared", Some("client"), &mut |batch| {
            match batch {
                Some(batch) => self.shared.ingest_batch(batch)?,
                None => self.shared.flush()?,
            };
            Ok(None)
        });
        if let Some(cluster) = &self.cluster {
            rung("cluster", Some("shared"), &mut |batch| {
                match batch {
                    Some(batch) => cluster.ingest_batch(batch)?,
                    None => cluster.flush()?,
                };
                Ok(None)
            });
        }
        rung("engine", Some(above_engine), &mut |batch| {
            match batch {
                Some(batch) => self.engine.ingest_batch(batch)?,
                None => self.engine.flush()?,
            };
            Ok(None)
        });
        // What the engine does inside those calls, in two halves: the
        // segments the twin ingestors emit per call go into the twin store.
        let mut emitted = std::collections::VecDeque::new();
        rung("compress", Some("engine"), &mut |batch| {
            let mut segments = Vec::new();
            for (ingestor, columns) in &mut self.ingestors {
                segments.extend(match batch {
                    Some(batch) => ingestor.push_batch(batch.select(columns))?,
                    None => ingestor.flush()?,
                });
            }
            emitted.push_back(segments);
            Ok(None)
        });
        rung("store", Some("engine"), &mut |batch| {
            let segments = emitted.pop_front().unwrap_or_default();
            let inserted = segments.len() as u64;
            for segment in segments {
                self.store.insert(segment)?;
            }
            if batch.is_none() {
                self.store.flush()?;
            }
            Ok(Some(inserted))
        });
    }

    /// Answers `query` on every rung; returns `(rung, answer)` with the
    /// engine's last. The engine rung's cache traffic is charged to `reads`.
    ///
    /// The rungs run top down, or bottom up when `bottom_up`: whichever
    /// rung follows the wire rung's blocking wait runs measurably slower,
    /// and alternating the order spreads that over both neighbours.
    fn query_op(
        &mut self,
        tracer: &mut Tracer,
        tally: &mut Tally,
        id: u32,
        query: &MixQuery,
        bottom_up: bool,
        reads: &mut Reads,
    ) -> Vec<(&'static str, Option<QueryResult>)> {
        type Call<'a> = Box<dyn FnMut() -> Result<QueryResult, MdbError> + 'a>;
        let class = query.class;
        let sql = query.sql.as_str();
        let above_engine = self.above_engine();
        let Ladder {
            client,
            shared,
            cluster,
            engine,
            ..
        } = self;
        let mut rungs: Vec<(&'static str, Option<&'static str>, Call<'_>)> = vec![
            ("client", None, Box::new(|| client.sql(sql))),
            ("shared", Some("client"), Box::new(|| shared.sql(sql))),
        ];
        if let Some(cluster) = cluster {
            rungs.push(("cluster", Some("shared"), Box::new(|| cluster.sql(sql))));
        }
        rungs.push((
            "engine",
            Some(above_engine),
            Box::new(|| {
                let before = engine.cache_stats();
                let result = engine.sql(sql);
                reads.charge(before, engine.cache_stats());
                result
            }),
        ));
        rungs.push((
            "parse",
            Some("engine"),
            Box::new(|| modelardb::parse(sql).map(|_| QueryResult::default())),
        ));
        if bottom_up {
            rungs.reverse();
        }
        let mut answers = Vec::with_capacity(rungs.len());
        for (name, parent, call) in &mut rungs {
            let result = tracer.span(name, *parent, class, id, || {
                let result = call();
                let rows = result.as_ref().map_or(0, |r| r.rows.len() as u64);
                (result, rows)
            });
            answers.push((*name, tally.ok(result, sql)));
        }
        if bottom_up {
            answers.reverse();
        }
        answers.pop(); // parse answers nothing
        answers
    }
}

/// Replays the mix `TRACE_PASSES` times on the top rung alone, as spans
/// called `name`. Returns the answers of the first pass.
fn replay_on_client(
    tracer: &mut Tracer,
    name: &'static str,
    mix: &[MixQuery],
    client: &mut Client,
    tally: &mut Tally,
) -> Vec<Option<QueryResult>> {
    let mut first_pass = Vec::with_capacity(mix.len());
    for pass in 0..TRACE_PASSES {
        for (i, query) in mix.iter().enumerate() {
            let op = (pass * mix.len() + i) as u32;
            let result = tracer.span(name, None, query.class, op, || {
                let result = client.sql(&query.sql);
                let rows = result.as_ref().map_or(0, |r| r.rows.len() as u64);
                (result, rows)
            });
            let result = tally.ok(result, &query.sql);
            if pass == 0 {
                first_pass.push(result);
            }
        }
    }
    first_pass
}

fn check_same(
    rung: &str,
    query: &MixQuery,
    got: &Option<QueryResult>,
    want: &Option<QueryResult>,
    tally: &mut Tally,
) {
    let same = matches!((got, want), (Some(g), Some(w)) if same_bits(g, w));
    tally.check(same, || {
        format!("{rung} differs from the engine: {}", query.sql)
    });
}

fn points_in(batch: &RowBatch) -> u64 {
    (0..batch.len())
        .map(|row| {
            (0..batch.n_series())
                .filter(|&s| batch.get(row, s).is_some())
                .count() as u64
        })
        .sum()
}

/// Encode + decode cost of the frames the workload's operations travel in.
/// Returns `(ingest µs per frame, result µs per frame, wire bytes per point)`.
fn codec_costs(
    batches: &[RowBatch],
    points: &[u64],
    answers: &[Option<QueryResult>],
    tally: &mut Tally,
) -> (f64, f64, f64) {
    let sample = &batches[..batches.len().min(32)];
    let requests: Vec<Request> = sample
        .iter()
        .map(|b| Request::IngestBatch(b.clone()))
        .collect();
    let ack = Response::Ok {
        info: format!("ingested {BATCH_ROWS} rows"),
    };
    let mut bytes = 0usize;
    let start = Instant::now();
    for request in &requests {
        let frame = request.encode();
        bytes += frame.len();
        let decoded = Request::decode(&frame).is_ok();
        let reply = ack.encode();
        bytes += reply.len();
        let replied = Response::decode(&reply).is_ok();
        tally.check(decoded && replied, || {
            "an ingest frame did not round-trip".into()
        });
    }
    let ingest_us = start.elapsed().as_secs_f64() * 1e6 / requests.len() as f64;
    let bytes_per_point = bytes as f64 / points[..sample.len()].iter().sum::<u64>() as f64;

    let streams: Vec<Vec<Response>> = answers
        .iter()
        .flatten()
        .map(|r| Response::stream_result(r.clone()))
        .collect();
    let frames: usize = streams.iter().map(Vec::len).sum();
    let start = Instant::now();
    for stream in &streams {
        for response in stream {
            let decoded = Response::decode(&response.encode()).is_ok();
            tally.check(decoded, || "a result frame did not round-trip".into());
        }
    }
    let result_us = start.elapsed().as_secs_f64() * 1e6 / frames.max(1) as f64;
    (ingest_us, result_us, bytes_per_point)
}

/// Runs `body` while `peer` loops on a second thread until told to stop;
/// returns both results.
fn beside<T, P: Send>(
    peer: impl FnOnce(&AtomicBool) -> P + Send,
    body: impl FnOnce() -> T,
) -> (T, P) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| peer(&stop));
        let value = body();
        stop.store(true, Ordering::SeqCst);
        (value, handle.join().expect("the peer thread panicked"))
    })
}

/// What sharing one datastore costs each side of `mixed.engine-disk`:
/// `(read wait, write wait)` in ms per call.
///
/// The workload's own calls run beside a busy peer connection, once with the
/// peer on the same server (the same datastore, behind the same lock) and
/// once with it on `other`, a second server over a twin of the store. The
/// machine is equally loaded either way and both sides keep the pauses of a
/// wire round trip, so the difference is what sharing the datastore costs.
#[allow(clippy::too_many_arguments)]
fn lock_waits(
    tracer: &mut Tracer,
    tally: &mut Tally,
    client: &mut Client,
    same: SocketAddr,
    other: SocketAddr,
    mix: &[MixQuery],
    engine_answers: &[Option<QueryResult>],
    new_batches: &[RowBatch],
) -> (f64, f64) {
    let (for_peer, for_timed) = new_batches.split_at(TRACE_PEER_BATCHES);
    let writer = |addr: SocketAddr, stop: &AtomicBool| -> bool {
        let Ok(mut peer) = Client::connect(addr) else {
            return false;
        };
        for (i, batch) in for_peer.iter().enumerate() {
            if stop.load(Ordering::SeqCst) {
                return peer.flush().is_ok();
            }
            let flushed = (i + 1) % FLUSH_EVERY != 0 || peer.flush().is_ok();
            if peer.ingest_batch(batch).is_err() || !flushed {
                return false;
            }
        }
        false // ran dry before the timed calls finished
    };
    let reader = |addr: SocketAddr, stop: &AtomicBool| -> bool {
        let Ok(mut peer) = Client::connect(addr) else {
            return false;
        };
        mix.iter()
            .cycle()
            .take_while(|_| !stop.load(Ordering::SeqCst))
            .all(|query| peer.sql(&query.sql).is_ok())
    };
    for (name, peer_addr) in [("client.beside", other), ("client.contended", same)] {
        let (answers, peer_ok) = beside(
            |stop| writer(peer_addr, stop),
            || replay_on_client(tracer, name, mix, client, tally),
        );
        tally.check(peer_ok, || {
            format!("{name}: the peer writer failed or ran dry")
        });
        for ((query, got), want) in mix.iter().zip(&answers).zip(engine_answers) {
            check_same(name, query, got, want, tally);
        }
    }
    let halves = for_timed.split_at(TRACE_CONTENDED_BATCHES);
    for (name, peer_addr, timed) in [
        ("client.ingest.beside", other, halves.0),
        ("client.ingest.contended", same, halves.1),
    ] {
        let ((), peer_ok) = beside(
            |stop| reader(peer_addr, stop),
            || {
                for (i, batch) in timed.iter().enumerate() {
                    let result = tracer.span(name, None, "ingest", i as u32, || {
                        (client.ingest_batch(batch), 0)
                    });
                    tally.ok(result, name);
                }
            },
        );
        tally.check(peer_ok, || format!("{name}: a peer read failed"));
    }
    // Means, not medians: a wait is a few long stalls, not a shift.
    let mean = |name: &str| -> f64 {
        let spans: Vec<f64> = tracer
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect();
        spans.iter().sum::<f64>() / spans.len().max(1) as f64
    };
    (
        mean("client.contended") - mean("client.beside"),
        mean("client.ingest.contended") - mean("client.ingest.beside"),
    )
}

pub fn traced_run(workload: &Workload, seed: u64, out: &Path) -> Outcome {
    let wall = Instant::now();
    let profile = workload.profile();
    // Batches ingested unrecorded as in the workload's set-up, then the
    // batches (and the flush cadence) of its ingest phase.
    let (preload, n_batches, flush_every, budget) = match workload.kind {
        Kind::Ingest => (0, TRACE_INGEST_BATCHES, FLUSH_EVERY, None),
        Kind::Query => (
            0,
            PRELOAD_BATCHES,
            PRELOAD_FLUSH_EVERY,
            Some(QUERY_CACHE_BUDGET),
        ),
        Kind::Mixed => (PRELOAD_BATCHES, TRACE_MIXED_BATCHES, FLUSH_EVERY, None),
        Kind::Cluster => (0, CLUSTER_BATCHES, FLUSH_EVERY, None),
    };
    let contended = workload.kind == Kind::Mixed;
    let (batches, total_points) = profile.batches(seed, 0, preload + n_batches);
    let points: Vec<u64> = batches.iter().map(points_in).collect();
    let traced_points: u64 = points[preload..].iter().sum();
    // The span the queries range over: all of it, or what `mixed` preloads.
    let ticks = ((if contended { preload } else { n_batches }) * BATCH_ROWS) as u64;
    let (catalog, registry, base) = profile.catalog();
    let mix: Vec<MixQuery> = match workload.kind {
        Kind::Ingest => audit(profile, seed, ticks, TRACE_AUDIT_QUERIES)
            .into_iter()
            .map(|(class, query)| MixQuery {
                class,
                sql: query.sql().to_string(),
            })
            .collect(),
        _ => gen::dashboard_mix(profile, ticks, seed, TRACE_MIX_SCALE, contended),
    };
    let mut query_classes: Vec<&str> = Vec::new();
    for query in &mix {
        if !query_classes.contains(&query.class) {
            query_classes.push(query.class);
        }
    }
    let mut tally = Tally::default();
    let mut tracer = Tracer {
        origin: Instant::now(),
        on: true,
        spans: Vec::new(),
    };
    let mut ladder = Ladder::build(workload, &catalog, &registry, &base, budget, out);

    // ---- ingest: every flush interval goes down the whole ladder ----
    let mut intervals: Vec<(bool, &[RowBatch], &[u64])> = Vec::new();
    for (recorded, range, every) in [
        (false, 0..preload, PRELOAD_FLUSH_EVERY),
        (true, preload..batches.len(), flush_every),
    ] {
        let chunks = batches[range.clone()]
            .chunks(every)
            .zip(points[range].chunks(every));
        intervals.extend(chunks.map(|(batches, points)| (recorded, batches, points)));
    }
    if n_batches % flush_every == 0 {
        intervals.push((true, &[], &[])); // the workload's final flush
    }
    let (mut next_id, mut next_flush) = (0, 0);
    for (recorded, batches, points) in intervals {
        tracer.on = recorded;
        ladder.ingest_interval(
            &mut tracer,
            &mut tally,
            next_id,
            next_flush,
            batches,
            points,
        );
        next_id += batches.len() as u32;
        next_flush += 1;
    }

    let stats = ladder.engine.stats();
    let count = ladder
        .engine
        .sql("SELECT COUNT_S(*) FROM Segment")
        .ok()
        .and_then(|r| r.rows.first()?.first()?.as_i64());
    tally.check(count == Some(total_points as i64), || {
        format!("the engine rung holds {count:?} of {total_points} points")
    });

    // ---- queries ----
    // One unrecorded pass warms every twin; each rung must answer as the
    // engine does.
    tracer.on = false;
    let mut engine_answers = Vec::with_capacity(mix.len());
    for (i, query) in mix.iter().enumerate() {
        let mut answers = ladder.query_op(
            &mut tracer,
            &mut tally,
            i as u32,
            query,
            false,
            &mut Reads::default(),
        );
        let (_, engine_answer) = answers.pop().expect("the engine rung always answers");
        for (rung, answer) in &answers {
            check_same(rung, query, answer, &engine_answer, &mut tally);
        }
        engine_answers.push(engine_answer);
    }
    // The top rung alone with spans off, then the whole ladder with spans
    // on: what the top rung's spans take beyond the former is what tracing
    // (recording, and taking turns with the other rungs) costs.
    let untraced = Instant::now();
    replay_on_client(&mut tracer, "client", &mix, &mut ladder.client, &mut tally);
    let untraced = untraced.elapsed().as_secs_f64();
    tracer.on = true;
    let mut reads: BTreeMap<&'static str, Reads> = BTreeMap::new();
    for pass in 0..TRACE_PASSES {
        for (i, query) in mix.iter().enumerate() {
            let op = (pass * mix.len() + i) as u32;
            let class_reads = reads.entry(query.class).or_default();
            ladder.query_op(
                &mut tracer,
                &mut tally,
                op,
                query,
                pass % 2 == 1,
                class_reads,
            );
        }
    }
    let traced = query_classes
        .iter()
        .map(|c| tracer.total_ms("client", c))
        .sum::<f64>()
        / 1e3;
    let trace_overhead_pct = (traced / untraced - 1.0) * 100.0;

    let (codec_ingest_us, codec_result_us, wire_bytes_per_point) =
        codec_costs(&batches, &points, &engine_answers, &mut tally);

    // ---- restart: the engine rung's directory, reopened ----
    let Ladder {
        server,
        mut client,
        engine,
        engine_dir,
        ..
    } = ladder;
    drop(engine);
    let reopening = Instant::now();
    let reopened = tally.ok(
        ModelarDb::reopen(
            &engine_dir.0,
            Arc::clone(&registry),
            engine_config(&base, &engine_dir.0, budget),
        ),
        "reopen",
    );
    let reopen_ms = reopening.elapsed().as_secs_f64() * 1e3;
    let recount = reopened
        .as_ref()
        .and_then(|db| db.sql("SELECT COUNT_S(*) FROM Segment").ok())
        .and_then(|r| r.rows.first()?.first()?.as_i64());
    tally.check(recount == Some(total_points as i64), || {
        format!("the reopened engine holds {recount:?} of {total_points} points")
    });

    // ---- waits on the shared datastore (mixed only) ----
    let (mut read_wait_ms, mut write_wait_ms) = (0.0, 0.0);
    if let (true, Some(twin)) = (contended, reopened) {
        let (twin_server, _) = serve(twin);
        let (new_batches, _) = profile.batches(
            seed,
            (batches.len() * BATCH_ROWS) as u64,
            TRACE_PEER_BATCHES + 2 * TRACE_CONTENDED_BATCHES,
        );
        (read_wait_ms, write_wait_ms) = lock_waits(
            &mut tracer,
            &mut tally,
            &mut client,
            server.local_addr(),
            twin_server.local_addr(),
            &mix,
            &engine_answers,
            &new_batches,
        );
        tally.ok(twin_server.shutdown(), "twin server shutdown");
    }
    let _ = client.close();
    tally.ok(server.shutdown(), "server shutdown");

    // ---- reduce ----
    let mut total_reads = Reads::default();
    for r in reads.values() {
        total_reads.add(r);
    }
    let per_query = |n: u64| n as f64 / total_reads.queries.max(1) as f64;
    let engine_flushes: Vec<f64> = tracer.durations("engine", "flush").into_values().collect();
    // The last flush of an evenly divisible run has nothing left to write;
    // growth compares the first and last flush that carried a full interval.
    let full_flushes =
        &engine_flushes[..(n_batches / flush_every).max(1).min(engine_flushes.len())];
    let compress_ms = tracer.total_ms("compress", "ingest") + tracer.total_ms("compress", "flush");
    let stored_segments: u64 = tracer
        .spans
        .iter()
        .filter(|s| s.name == "store" && s.class == "ingest")
        .map(|s| s.count)
        .sum();
    let gorilla = stats
        .model_shares()
        .iter()
        .find(|(name, _)| name == "Gorilla")
        .map_or(0.0, |(_, share)| *share);
    let class_p50 = |class: &str| tracer.median_ms("engine", class);

    let values: Vec<f64> = vec![
        tracer.median_self_ms("client", &["ingest"]) * 1e3,
        tracer.median_self_ms("client", &query_classes),
        wire_bytes_per_point,
        codec_ingest_us,
        codec_result_us,
        tracer.median_self_ms("shared", &["ingest"]) * 1e3,
        read_wait_ms,
        write_wait_ms,
        tracer.median_self_ms("cluster", &["ingest"]) * 1e3,
        tracer.median_self_ms("cluster", &query_classes),
        tracer.median_ms("engine", "ingest") * 1e3,
        tracer.median_self_ms("engine", &["ingest"]) * 1e3,
        stats::median(full_flushes),
        full_flushes[full_flushes.len() - 1] / full_flushes[0],
        compress_ms * 1e6 / traced_points as f64,
        stats.segments as f64 * 1e3 / total_points as f64,
        gorilla,
        tracer.total_ms("store", "ingest") * 1e6 / stored_segments.max(1) as f64,
        tracer.median_ms("store", "flush"),
        reopen_ms,
        tracer.median_self_ms("parse", &query_classes) * 1e3,
        class_p50("narrow"),
        class_p50("cube"),
        class_p50("sketch"),
        class_p50("broad"),
        class_p50("value"),
        class_p50("point"),
        100.0 * (total_reads.fetches - total_reads.misses) as f64
            / total_reads.fetches.max(1) as f64,
        per_query(total_reads.misses),
        per_query(total_reads.bytes_read),
        per_query(total_reads.prefetch_hits),
        100.0 * per_query(total_reads.zero_fetch),
        trace_overhead_pct,
    ];

    // ---- the self-time table: totals, so a row's shares add up ----
    let mut classes = vec!["ingest", "flush"];
    classes.extend(&query_classes);
    let mut table = BTreeMap::new();
    println!(
        "{}: layer self time as a share of the operation (totals over all operations)",
        workload.name
    );
    print!("  {:<12} {:>10}", "class", "op ms");
    for (_, layer) in LAYERS {
        print!(" {:>14.14}", layer);
    }
    println!(" {:>6}", "sum");
    for class in &classes {
        let op_total = tracer.total_ms("client", class);
        let ops = tracer.durations("client", class).len().max(1);
        print!("  {class:<12} {:>10.3}", op_total / ops as f64);
        let mut row = BTreeMap::new();
        let mut sum = 0.0;
        for (name, layer) in LAYERS {
            let self_total = tracer.self_ms(name, class).iter().sum::<f64>().max(0.0);
            let share = 100.0 * self_total / op_total;
            sum += share;
            print!(" {share:>13.1}%");
            row.insert(
                layer.to_string(),
                Json::obj([
                    ("self_ms_total".to_string(), Json::Num(self_total)),
                    ("share_pct".to_string(), Json::Num(share)),
                ]),
            );
        }
        println!(" {sum:>5.0}%");
        tally.check(sum >= 90.0, || {
            format!("{class}: layer shares only add up to {sum:.0} %")
        });
        table.insert(class.to_string(), Json::Obj(row));
    }
    println!("  storage reads on the engine rung, per class:");
    for (class, r) in &reads {
        println!(
            "  {class:<12} queries {:4}  body fetches {:6}  misses {:6}  bytes read {:10}  prefetch hits {:5}  zero-fetch queries {:4}",
            r.queries, r.fetches, r.misses, r.bytes_read, r.prefetch_hits, r.zero_fetch
        );
    }
    println!(
        "  model shares {:?}; tracing overhead {trace_overhead_pct:+.1} % (top rung {traced:.3} s traced, {untraced:.3} s untraced)",
        stats.model_shares()
    );

    let file = out.join(format!("trace.{}.json", workload.name));
    let spans = Json::Arr(
        tracer
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name".to_string(), Json::Str(s.name.to_string())),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Str(p.to_string())),
                    ),
                    ("class".to_string(), Json::Str(s.class.to_string())),
                    ("op".to_string(), Json::Num(f64::from(s.op))),
                    ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                    ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                    ("count".to_string(), Json::Num(s.count as f64)),
                ])
            })
            .collect(),
    );
    let document = Json::obj([
        ("workload".to_string(), Json::Str(workload.name.to_string())),
        ("seed".to_string(), Json::Num(seed as f64)),
        (
            "layers".to_string(),
            Json::obj(LAYERS.map(|(span, layer)| (span.to_string(), Json::Str(layer.to_string())))),
        ),
        ("self_time".to_string(), Json::Obj(table)),
        (
            "storage_reads".to_string(),
            Json::obj(reads.iter().map(|(class, r)| (class.to_string(), r.json()))),
        ),
        (
            "metrics".to_string(),
            Json::obj(
                PER_LAYER
                    .iter()
                    .zip(&values)
                    .map(|((name, _, _), v)| (name.to_string(), Json::Num(*v))),
            ),
        ),
        ("spans".to_string(), spans),
    ]);
    match std::fs::write(&file, document.render() + "\n") {
        Ok(()) => eprintln!(
            "  {} spans written to {}",
            tracer.spans.len(),
            file.display()
        ),
        Err(e) => tally.check(false, || format!("cannot write {}: {e}", file.display())),
    }
    for note in &tally.notes {
        eprintln!("  FAILED: {note}");
    }
    eprintln!(
        "  diagnostics: wall {:.1} s, peak RSS {:.0} MiB",
        wall.elapsed().as_secs_f64(),
        crate::peak_rss_mib()
    );

    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: PER_LAYER
            .iter()
            .zip(values)
            .map(|((name, unit, _), v)| (*name, *unit, v))
            .collect(),
    }
}
