//! The four workloads. Each `round` is a complete experiment — set-up,
//! timed phases over the wire, verification, teardown — on a fresh store
//! directory; a run is as many rounds as fill the requested time and reports
//! medians (see `main.rs`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use modelardb::{
    Catalog, Client, Cluster, ClusterConfig, Config, Datastore, MdbError, ModelRegistry, ModelarDb,
    QueryResult, RowBatch, Server, ServerOptions, SharedDatastore, StorageSpec,
};

use crate::gen::{self, MixQuery, Profile, Rng, BATCH_ROWS, EH, EP, ERROR_BOUND_PCT};

/// Ingest workloads flush every this many batches, and once at the end.
pub const FLUSH_EVERY: usize = 64;
/// The preloaded EP-like store flushes this often instead, so its log has
/// enough blocks (96) for a cache a quarter of its size to hold some and
/// evict some: the cache is sharded 8 ways and parks no block larger than a
/// shard's share of the budget.
pub const PRELOAD_FLUSH_EVERY: usize = 2;
/// 98 304 ticks of EP-like data: 68 days at one sample a minute.
pub const PRELOAD_BATCHES: usize = 192;
/// `query.dashboard-engine`'s block-cache budget: about a quarter of the
/// ~1.3 MB block log `PRELOAD_BATCHES` leave behind.
pub const QUERY_CACHE_BUDGET: u64 = 320 << 10;
/// Batches `ingest.engine-disk` streams per round (six flush intervals).
pub const INGEST_BATCHES: usize = 384;
/// Batches `mixed.engine-disk`'s writer appends while the reader runs.
pub const MIXED_WRITER_BATCHES: usize = 320;
/// Batches `cluster.rf2` ingests in phase A.
pub const CLUSTER_BATCHES: usize = 48;
/// Distinct queries in a mix are `20 × scale`; readers replay it in seeded
/// shuffles this many times per round.
pub const QUERY_MIX_SCALE: usize = 5;
pub const QUERY_PASSES: usize = 6;
pub const CLUSTER_MIX_SCALE: usize = 2;
pub const CLUSTER_PASSES: usize = 4;
/// `ingest.engine-disk`'s read-back audit, every answer checked against the
/// generator: per-series counts over 1 500-tick and 12 000-tick windows and
/// 2 000-tick Data Point View ranges. Each query is milliseconds of work, so
/// the latencies measure the system and not this machine's wake-up time, and
/// the wide windows are the slowest tenth, so p99 falls inside one class.
pub const AUDIT_WINDOW_QUERIES: usize = 245;
pub const AUDIT_POINT_QUERIES: usize = 70;
pub const AUDIT_WIDE_QUERIES: usize = 35;
/// Data Point View samples every other workload checks against the
/// generator during set-up.
const SAMPLE_CHECKS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ingest,
    Query,
    Mixed,
    Cluster,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// What the timed phases of one round take on the 2-core reference box.
    /// A run of `--seconds s` is `ceil(s / round_seconds)` rounds, so the
    /// operations a run performs depend on its arguments alone.
    pub round_seconds: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest.engine-disk",
        why: "1 writer streams 384 EH-like 512x64 batches into a disk engine, Flush every 64: server decode, model fitting, block+sidecar writes; no dashboard query runs",
        kind: Kind::Ingest,
        round_seconds: 4.0,
    },
    Workload {
        name: "query.dashboard-engine",
        why: "2 readers replay a 100-query dashboard mix on 68 days of EP-like data with a 320 KiB block cache (1/4 of the log): query planning and the out-of-core read path",
        kind: Kind::Query,
        round_seconds: 4.0,
    },
    Workload {
        name: "mixed.engine-disk",
        why: "1 writer appends 320 batches while 1 reader replays the mix on the preloaded span, cache unbounded: the same layers with writes beside reads, so the datastore lock shows",
        kind: Kind::Mixed,
        round_seconds: 4.0,
    },
    Workload {
        name: "cluster.rf2",
        why: "2-worker rf=2 disk cluster behind the server: ingest 48 EH-like batches, then 2 readers replay the mix; the only workload that enters mdb_cluster",
        kind: Kind::Cluster,
        round_seconds: 3.3,
    },
];

impl Workload {
    pub fn profile(&self) -> &'static Profile {
        match self.kind {
            Kind::Ingest | Kind::Cluster => &EH,
            Kind::Query | Kind::Mixed => &EP,
        }
    }
}

/// Operations attempted and failed; a failure keeps its first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(what());
            }
        }
    }

    /// Counts `result` as one operation and hands its value on.
    pub fn ok<T>(&mut self, result: Result<T, MdbError>, what: &str) -> Option<T> {
        let value = result.map_err(|e| format!("{what}: {e}"));
        self.check(value.is_ok(), || {
            value.as_ref().err().cloned().unwrap_or_default()
        });
        value.ok()
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(5);
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Untimed work up to the end of the last timed phase.
    pub setup_s: f64,
    /// Sum of the timed phases.
    pub timed_s: f64,
    pub ingest_points: u64,
    pub ingest_s: f64,
    pub queries: u64,
    pub query_s: f64,
    /// Per-query latency in ms, tagged with its class.
    pub latencies: Vec<(&'static str, f64)>,
    pub stored_bytes: u64,
    pub stored_points: u64,
    pub log_bytes: u64,
    pub tally: Tally,
}

/// A store directory that is removed again when the round ends.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(out: &Path, label: &str) -> Self {
        let dir = out.join(format!("{label}.{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the store directory under out/ can be created");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Splits a round's wall time into timed phases and the rest (set-up).
struct Phases {
    start: Instant,
    timed: Duration,
}

impl Phases {
    fn start() -> Self {
        Phases {
            start: Instant::now(),
            timed: Duration::ZERO,
        }
    }

    fn add(&mut self, timed: Duration) -> f64 {
        self.timed += timed;
        timed.as_secs_f64()
    }

    /// Closes the measured part of a round: everything before now that was
    /// not a timed phase is set-up.
    fn finish(&self, round: &mut Round) {
        round.timed_s = self.timed.as_secs_f64();
        round.setup_s = (self.start.elapsed() - self.timed).as_secs_f64();
    }
}

pub fn engine_config(base: &Config, dir: &Path, budget: Option<u64>) -> Config {
    let mut config = base.clone();
    config.storage = StorageSpec::Disk(dir.to_path_buf());
    config.memory_budget_bytes = budget;
    config
}

pub fn disk_engine(
    catalog: &Arc<Catalog>,
    registry: &Arc<ModelRegistry>,
    base: &Config,
    dir: &Path,
    budget: Option<u64>,
) -> ModelarDb {
    ModelarDb::from_catalog(
        Arc::clone(catalog),
        Arc::clone(registry),
        engine_config(base, dir, budget),
    )
    .expect("a fresh disk engine opens")
}

#[allow(clippy::field_reassign_with_default)]
pub fn rf2_cluster(
    catalog: &Arc<Catalog>,
    registry: &Arc<ModelRegistry>,
    base: &Config,
    dir: &Path,
) -> Cluster {
    // `compression` and `storage_dir` belong to the embedded common options
    // (reached through `DerefMut`), so a struct literal cannot set them.
    let mut config = ClusterConfig::default();
    config.compression = base.compression.clone();
    config.storage_dir = Some(dir.to_path_buf());
    config.replication_factor = 2;
    Cluster::start_with(Arc::clone(catalog), Arc::clone(registry), config, 2)
        .expect("a fresh two-worker cluster starts")
}

pub fn serve(datastore: impl Datastore + 'static) -> (Server, SharedDatastore) {
    let shared = SharedDatastore::new(datastore);
    let server = Server::start(shared.clone(), ServerOptions::default())
        .expect("the server binds a loopback port");
    (server, shared)
}

/// Log and sidecar bytes under `dir` (a cluster keeps one pair per worker).
pub fn stored_bytes(dir: &Path) -> (u64, u64) {
    let (mut log, mut sidecar) = (0, 0);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let (l, s) = stored_bytes(&path);
            log += l;
            sidecar += s;
        } else if let Ok(meta) = entry.metadata() {
            match path.file_name().and_then(|n| n.to_str()) {
                Some("segments.log") => log += meta.len(),
                Some("segments.idx") => sidecar += meta.len(),
                _ => {}
            }
        }
    }
    (log, sidecar)
}

/// Streams `batches` over the wire, `Flush` every `flush_every` and at the
/// end; returns the wall time including the final flush.
pub fn ingest_over_wire(
    client: &mut Client,
    batches: &[RowBatch],
    flush_every: usize,
    tally: &mut Tally,
) -> Duration {
    let start = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        tally.ok(client.ingest_batch(batch), "IngestBatch");
        if (i + 1) % flush_every == 0 {
            tally.ok(client.flush(), "Flush");
        }
    }
    tally.ok(client.flush(), "final Flush");
    start.elapsed()
}

/// Bit-for-bit equality: floats by bit pattern, so `-0.0 ≠ 0.0` and a NaN
/// equals only the same NaN.
pub fn same_bits(a: &QueryResult, b: &QueryResult) -> bool {
    use modelardb::Cell;
    a.columns == b.columns
        && a.rows.len() == b.rows.len()
        && a.rows.iter().zip(&b.rows).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(ca, cb)| match (ca, cb) {
                    (Cell::Float(x), Cell::Float(y)) => x.to_bits() == y.to_bits(),
                    _ => ca == cb,
                })
        })
}

fn scalar_i64(result: &QueryResult) -> Option<i64> {
    result.rows.first()?.first()?.as_i64()
}

/// `COUNT_S(*)` over the wire must equal the non-gap points sent.
fn check_count(client: &mut Client, points: u64, tally: &mut Tally) {
    let got = tally
        .ok(client.sql("SELECT COUNT_S(*) FROM Segment"), "COUNT_S(*)")
        .and_then(|r| scalar_i64(&r));
    tally.check(got == Some(points as i64), || {
        format!("COUNT_S(*) is {got:?} after {points} points were acknowledged")
    });
}

/// A short Data Point View range for one series, with the generator's
/// values for it.
pub struct PointSample {
    sql: String,
    expected: Vec<(i64, f32)>,
}

fn point_sample(profile: &Profile, seed: u64, ticks: u64, len: u64, rng: &mut Rng) -> PointSample {
    let s = rng.below(profile.n_series() as u64) as usize;
    let first = rng.below(ticks - len);
    let expected = (first..first + len)
        .filter_map(|tick| Some((profile.timestamp(tick), profile.value(seed, s, tick)?)))
        .collect();
    PointSample {
        sql: format!(
            "SELECT TS, Value FROM DataPoint WHERE Tid = {} AND TS >= {} AND TS <= {}",
            s + 1,
            profile.timestamp(first),
            profile.timestamp(first + len - 1)
        ),
        expected,
    }
}

/// Every generated point is returned, in time order, within the configured
/// error bound; nothing else is.
fn sample_matches(sample: &PointSample, result: &QueryResult) -> bool {
    result.rows.len() == sample.expected.len()
        && result
            .rows
            .iter()
            .zip(&sample.expected)
            .all(|(row, (ts, v))| {
                let v = f64::from(*v);
                let tolerance = v.abs() * ERROR_BOUND_PCT / 100.0 * (1.0 + 1e-6);
                row[0].as_i64() == Some(*ts)
                    && row[1]
                        .as_f64()
                        .is_some_and(|got| (got - v).abs() <= tolerance)
            })
}

fn check_samples(client: &mut Client, profile: &Profile, seed: u64, ticks: u64, tally: &mut Tally) {
    let mut rng = Rng::new(seed ^ 0x005A_3B1E);
    for _ in 0..SAMPLE_CHECKS {
        let sample = point_sample(profile, seed, ticks, 64, &mut rng);
        let result = tally.ok(client.sql(&sample.sql), "Data Point View sample");
        tally.check(result.is_some_and(|r| sample_matches(&sample, &r)), || {
            format!(
                "outside the error bound of the generated values: {}",
                sample.sql
            )
        });
    }
}

/// The in-process answers every replayed query is compared with.
fn reference(
    mix: &[MixQuery],
    sql: impl Fn(&str) -> Result<QueryResult, MdbError>,
    tally: &mut Tally,
) -> Vec<Option<QueryResult>> {
    mix.iter()
        .map(|q| tally.ok(sql(&q.sql), "reference query"))
        .collect()
}

/// `passes` seeded shuffles of the mix, concatenated.
fn replay_order(len: usize, passes: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order = Vec::with_capacity(len * passes);
    for _ in 0..passes {
        let mut pass: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut pass);
        order.extend(pass);
    }
    order
}

struct Replayed {
    /// `(class, latency in ms, completion time)` per query.
    samples: Vec<(&'static str, f64, Instant)>,
    tally: Tally,
}

/// One closed-loop reader: connects, runs one untimed pass of the mix as a
/// warm-up, waits at `go`, then replays `order` (or keeps cycling through
/// it until `stop` is raised). Every answer is compared with `expected`.
fn reader(
    addr: std::net::SocketAddr,
    mix: &[MixQuery],
    expected: &[Option<QueryResult>],
    order: &[usize],
    go: &Barrier,
    stop: Option<&AtomicBool>,
) -> Replayed {
    let mut tally = Tally::default();
    let mut samples = Vec::with_capacity(order.len());
    let mut client = tally.ok(Client::connect(addr), "connect");
    let mut run =
        |i: usize, tally: &mut Tally, record: Option<&mut Vec<(&'static str, f64, Instant)>>| {
            let Some(client) = client.as_mut() else {
                tally.check(false, || "no connection".into());
                return;
            };
            let start = Instant::now();
            let result = client.sql(&mix[i].sql);
            let end = Instant::now();
            if let Some(samples) = record {
                samples.push((mix[i].class, (end - start).as_secs_f64() * 1e3, end));
            }
            let result = tally.ok(result, &mix[i].sql);
            let matches = match (&result, &expected[i]) {
                (Some(got), Some(want)) => same_bits(got, want),
                _ => false,
            };
            tally.check(matches, || {
                format!("differs from the in-process reference: {}", mix[i].sql)
            });
        };
    for i in 0..mix.len() {
        run(i, &mut tally, None);
    }
    go.wait();
    match stop {
        None => {
            for &i in order {
                run(i, &mut tally, Some(&mut samples));
            }
        }
        Some(stop) => {
            for &i in order.iter().cycle() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                run(i, &mut tally, Some(&mut samples));
            }
        }
    }
    if let Some(client) = client {
        let _ = client.close();
    }
    Replayed { samples, tally }
}

/// Two closed-loop readers replay the mix; returns the phase's wall time.
fn replay_with_two_readers(
    addr: std::net::SocketAddr,
    mix: &[MixQuery],
    expected: &[Option<QueryResult>],
    passes: usize,
    seed: u64,
    round: &mut Round,
    phases: &mut Phases,
) {
    let orders = [
        replay_order(mix.len(), passes, seed ^ 0xA),
        replay_order(mix.len(), passes, seed ^ 0xB),
    ];
    let go = Barrier::new(3);
    let (replayed, elapsed) = std::thread::scope(|scope| {
        let handles: Vec<_> = orders
            .iter()
            .map(|order| scope.spawn(|| reader(addr, mix, expected, order, &go, None)))
            .collect();
        go.wait();
        let start = Instant::now();
        let replayed: Vec<Replayed> = handles
            .into_iter()
            .map(|h| h.join().expect("a reader thread panicked"))
            .collect();
        (replayed, start.elapsed())
    });
    round.query_s = phases.add(elapsed);
    for r in replayed {
        round.queries += r.samples.len() as u64;
        round
            .latencies
            .extend(r.samples.iter().map(|(class, ms, _)| (*class, *ms)));
        round.tally.absorb(r.tally);
    }
}

fn record_storage(dir: &Path, points: u64, round: &mut Round) {
    let (log, sidecar) = stored_bytes(dir);
    round.log_bytes = log;
    round.stored_bytes = log + sidecar;
    round.stored_points = points;
}

impl Workload {
    /// Runs one complete round with inputs made from `seed`.
    pub fn round(&self, seed: u64, out: &Path) -> Round {
        let scratch = ScratchDir::new(out, self.name);
        match self.kind {
            Kind::Ingest => ingest_round(seed, &scratch.0),
            Kind::Query => query_round(seed, &scratch.0),
            Kind::Mixed => mixed_round(seed, &scratch.0),
            Kind::Cluster => cluster_round(seed, &scratch.0),
        }
    }
}

fn ingest_round(seed: u64, dir: &Path) -> Round {
    let mut round = Round::default();
    let mut phases = Phases::start();
    let profile = &EH;
    let (batches, points) = profile.batches(seed, 0, INGEST_BATCHES);
    let ticks = (INGEST_BATCHES * BATCH_ROWS) as u64;
    let (catalog, registry, base) = profile.catalog();

    // Generated up front so the timed loop only sends.
    let audit = audit(
        profile,
        seed,
        ticks,
        [
            AUDIT_POINT_QUERIES,
            AUDIT_WINDOW_QUERIES,
            AUDIT_WIDE_QUERIES,
        ],
    );

    let (server, _shared) = serve(disk_engine(&catalog, &registry, &base, dir, None));
    let Some(mut client) = round
        .tally
        .ok(Client::connect(server.local_addr()), "connect")
    else {
        return round;
    };

    let elapsed = ingest_over_wire(&mut client, &batches, FLUSH_EVERY, &mut round.tally);
    round.ingest_points = points;
    round.ingest_s = phases.add(elapsed);
    check_count(&mut client, points, &mut round.tally);
    record_storage(dir, points, &mut round);

    // Timed read-back audit of what was just acknowledged.
    let start = Instant::now();
    let mut answers = Vec::with_capacity(audit.len());
    for (class, query) in &audit {
        let t = Instant::now();
        let result = client.sql(query.sql());
        round
            .latencies
            .push((class, t.elapsed().as_secs_f64() * 1e3));
        answers.push(result);
    }
    round.queries = audit.len() as u64;
    round.query_s = phases.add(start.elapsed());
    phases.finish(&mut round);
    for ((_, query), answer) in audit.iter().zip(answers) {
        let answer = round.tally.ok(answer, query.sql());
        round
            .tally
            .check(answer.is_some_and(|r| query.matches(&r)), || {
                format!("audit answer disagrees with the generator: {}", query.sql())
            });
    }

    // Acknowledged-and-flushed data must survive the server going away.
    let totals = "SELECT Tid, COUNT_S(*), SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid";
    let before = round.tally.ok(client.sql(totals), "totals before shutdown");
    let _ = client.close();
    round.tally.ok(server.shutdown(), "server shutdown");
    let reopened = round.tally.ok(
        ModelarDb::reopen(dir, Arc::clone(&registry), base.clone()),
        "reopen",
    );
    let after = reopened.and_then(|db| round.tally.ok(db.sql(totals), "totals after reopen"));
    round.tally.check(
        matches!((&before, &after), (Some(b), Some(a)) if same_bits(a, b)),
        || "the reopened store answers different per-series totals".into(),
    );
    round
}

/// One query of `ingest.engine-disk`'s read-back audit, with the answer the
/// generator dictates.
pub enum Audit {
    Points(PointSample),
    Counts { sql: String, counts: Vec<i64> },
}

/// The audit over ticks `0..ticks`: `[point, window, wide]` queries of each
/// class, shuffled, tagged with their class.
pub fn audit(
    profile: &Profile,
    seed: u64,
    ticks: u64,
    [points, windows, wides]: [usize; 3],
) -> Vec<(&'static str, Audit)> {
    let mut rng = Rng::new(seed ^ 0xA0D1);
    let mut audit: Vec<(&'static str, Audit)> = Vec::new();
    for _ in 0..points {
        audit.push((
            "audit.point",
            Audit::Points(point_sample(profile, seed, ticks, 2_000, &mut rng)),
        ));
    }
    for (class, n, width) in [
        ("audit.window", windows, 1_500),
        ("audit.wide", wides, 12_000),
    ] {
        for _ in 0..n {
            let first = rng.below(ticks - width);
            let counts: Vec<i64> = (0..profile.n_series())
                .map(|s| profile.present_in(seed, s, first, first + width) as i64)
                .collect();
            audit.push((
                class,
                Audit::Counts {
                    sql: format!(
                        "SELECT Tid, COUNT_S(*) FROM Segment WHERE TS >= {} AND TS <= {} \
                         GROUP BY Tid ORDER BY Tid",
                        profile.timestamp(first),
                        profile.timestamp(first + width - 1)
                    ),
                    counts,
                },
            ));
        }
    }
    rng.shuffle(&mut audit);
    audit
}

impl Audit {
    pub fn sql(&self) -> &str {
        match self {
            Audit::Points(sample) => &sample.sql,
            Audit::Counts { sql, .. } => sql,
        }
    }

    fn matches(&self, result: &QueryResult) -> bool {
        match self {
            Audit::Points(sample) => sample_matches(sample, result),
            Audit::Counts { counts, .. } => {
                let mut got = vec![0i64; counts.len()];
                for row in &result.rows {
                    let (Some(tid), Some(n)) = (row[0].as_i64(), row[1].as_i64()) else {
                        return false;
                    };
                    match got.get_mut(tid as usize - 1) {
                        Some(slot) => *slot = n,
                        None => return false,
                    }
                }
                got == *counts
            }
        }
    }
}

/// The EP-like store after set-up: the mix to replay, the in-process
/// reference answers, the points stored and the preload's wall time.
struct Preloaded {
    mix: Vec<MixQuery>,
    expected: Vec<Option<QueryResult>>,
    points: u64,
    elapsed: Duration,
}

/// Preloads the EP-like store over `client` and computes the reference
/// answers through the in-process handle.
fn preload_ep(
    client: &mut Client,
    shared: &SharedDatastore,
    seed: u64,
    frozen: bool,
    tally: &mut Tally,
) -> Preloaded {
    let profile = &EP;
    let (batches, points) = profile.batches(seed, 0, PRELOAD_BATCHES);
    let ticks = (PRELOAD_BATCHES * BATCH_ROWS) as u64;
    let elapsed = ingest_over_wire(client, &batches, PRELOAD_FLUSH_EVERY, tally);
    check_count(client, points, tally);
    check_samples(client, profile, seed, ticks, tally);
    let mix = gen::dashboard_mix(profile, ticks, seed, QUERY_MIX_SCALE, frozen);
    let expected = reference(&mix, |q| shared.sql(q), tally);
    Preloaded {
        mix,
        expected,
        points,
        elapsed,
    }
}

fn query_round(seed: u64, dir: &Path) -> Round {
    let mut round = Round::default();
    let mut phases = Phases::start();
    let (catalog, registry, base) = EP.catalog();
    let engine = disk_engine(&catalog, &registry, &base, dir, Some(QUERY_CACHE_BUDGET));
    let (server, shared) = serve(engine);
    let Some(mut client) = round
        .tally
        .ok(Client::connect(server.local_addr()), "connect")
    else {
        return round;
    };
    let Preloaded {
        mix,
        expected,
        points,
        elapsed,
    } = preload_ep(&mut client, &shared, seed, false, &mut round.tally);
    // The preload is this workload's only ingest, so its rate is reported;
    // it stays part of set-up time as well.
    round.ingest_points = points;
    round.ingest_s = elapsed.as_secs_f64();
    record_storage(dir, points, &mut round);
    let _ = client.close();

    replay_with_two_readers(
        server.local_addr(),
        &mix,
        &expected,
        QUERY_PASSES,
        seed,
        &mut round,
        &mut phases,
    );
    phases.finish(&mut round);
    round.tally.ok(server.shutdown(), "server shutdown");
    round
}

fn mixed_round(seed: u64, dir: &Path) -> Round {
    let mut round = Round::default();
    let mut phases = Phases::start();
    let profile = &EP;
    let (catalog, registry, base) = profile.catalog();
    let (server, shared) = serve(disk_engine(&catalog, &registry, &base, dir, None));
    let addr = server.local_addr();
    let Some(mut writer) = round.tally.ok(Client::connect(addr), "connect") else {
        return round;
    };
    let Preloaded {
        mix,
        expected,
        points: preloaded,
        ..
    } = preload_ep(&mut writer, &shared, seed, true, &mut round.tally);
    let first_new_tick = (PRELOAD_BATCHES * BATCH_ROWS) as u64;
    let (new_batches, new_points) = profile.batches(seed, first_new_tick, MIXED_WRITER_BATCHES);
    let order = replay_order(mix.len(), 1, seed ^ 0xA);

    let go = Barrier::new(3);
    let writer_done = AtomicBool::new(false);
    let mut writer_tally = Tally::default();
    let (replayed, window) = std::thread::scope(|scope| {
        let reading =
            scope.spawn(|| reader(addr, &mix, &expected, &order, &go, Some(&writer_done)));
        let writing = scope.spawn(|| {
            go.wait();
            let start = Instant::now();
            ingest_over_wire(&mut writer, &new_batches, FLUSH_EVERY, &mut writer_tally);
            let end = Instant::now();
            writer_done.store(true, Ordering::SeqCst);
            (start, end)
        });
        go.wait();
        let window = writing.join().expect("the writer thread panicked");
        (reading.join().expect("the reader thread panicked"), window)
    });
    round.tally.absorb(writer_tally);
    // Both rates are taken over the overlap window: the writer's run.
    let (start, end) = window;
    round.ingest_points = new_points;
    round.ingest_s = phases.add(end - start);
    round.query_s = round.ingest_s;
    for (class, ms, done) in &replayed.samples {
        if *done <= end {
            round.queries += 1;
            round.latencies.push((*class, *ms));
        }
    }
    round.tally.absorb(replayed.tally);
    phases.finish(&mut round);

    check_count(&mut writer, preloaded + new_points, &mut round.tally);
    record_storage(dir, preloaded + new_points, &mut round);
    let _ = writer.close();
    round.tally.ok(server.shutdown(), "server shutdown");
    round
}

fn cluster_round(seed: u64, dir: &Path) -> Round {
    let mut round = Round::default();
    let mut phases = Phases::start();
    let profile = &EH;
    let (batches, points) = profile.batches(seed, 0, CLUSTER_BATCHES);
    let ticks = (CLUSTER_BATCHES * BATCH_ROWS) as u64;
    let (catalog, registry, base) = profile.catalog();
    let (server, _shared) = serve(rf2_cluster(&catalog, &registry, &base, dir));
    let addr = server.local_addr();
    let Some(mut client) = round.tally.ok(Client::connect(addr), "connect") else {
        return round;
    };

    // Phase A: ingest.
    let elapsed = ingest_over_wire(&mut client, &batches, FLUSH_EVERY, &mut round.tally);
    round.ingest_points = points;
    round.ingest_s = phases.add(elapsed);
    check_count(&mut client, points, &mut round.tally);
    check_samples(&mut client, profile, seed, ticks, &mut round.tally);
    record_storage(dir, points, &mut round);
    let _ = client.close();

    // The reference is an embedded engine fed the same batches: results
    // must be bit-identical across deployments.
    let mut twin =
        ModelarDb::from_catalog(Arc::clone(&catalog), Arc::clone(&registry), base.clone())
            .expect("an in-memory engine builds");
    for batch in &batches {
        round.tally.ok(twin.ingest_batch(batch), "twin ingest");
    }
    round.tally.ok(twin.flush(), "twin flush");
    let mix = gen::dashboard_mix(profile, ticks, seed, CLUSTER_MIX_SCALE, false);
    let expected = reference(&mix, |q| twin.sql(q), &mut round.tally);
    drop(twin);

    // Phase B: queries.
    replay_with_two_readers(
        addr,
        &mix,
        &expected,
        CLUSTER_PASSES,
        seed,
        &mut round,
        &mut phases,
    );
    phases.finish(&mut round);
    round.tally.ok(server.shutdown(), "server shutdown");
    round
}
