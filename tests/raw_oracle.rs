//! The raw-data oracle: aggregate answers checked against the data that was
//! loaded, not against another execution path.
//!
//! Every other answer suite compares the system with itself — pruned
//! with unpruned, served with scanned, engine with cluster, this build with
//! recorded bits — so a defect that every path shares (a wrong closed form,
//! an off-by-one at a calendar boundary, a dropped scaling division) passes
//! all of them. Here a reference evaluator walks [`Dataset::value`] and the
//! catalog's metadata, with no engine code, and computes for every output
//! cell the interval its answer must lie in (Sections 2 and 6: Segment View
//! aggregates are exact over models that are each within the bound):
//!
//! * Ingestion stores `(raw × scaling) as f32`, and a model may reconstruct
//!   it anywhere within `ε = ErrorBound::epsilon_for(stored)`. Divided back
//!   by the scaling, each point may answer anywhere within a half-width `w`
//!   of its raw value. `w` also covers the `f32` rounding of the stored
//!   value and, under a lossy bound, of reconstructed values, which a
//!   closed form over a line does not perform. At 0 % only the scaling's
//!   rounding remains: with scaling 1 an answer is exact up to float
//!   association.
//! * `COUNT` is exact. `SUM` lies within `Σ w`; `AVG`, `MIN` and `MAX`
//!   within `max w`.
//! * A point whose interval straddles a `Value` threshold, or whose
//!   inclusion a `StartTime`/`EndTime` comparison decides by a segment
//!   boundary the oracle cannot see, is a *maybe*. `COUNT` then lies between
//!   the definite count and the definite-plus-maybe count, and the other
//!   functions widen to match.
//! * Float association adds `O(n · ulp · Σ|v|)`.
//!
//! The property runs random data sets (EP- or EH-like, a random seed, a span
//! across hour, day or month boundaries), error bounds (0 %, 1 %, 5 %, an
//! absolute bound), scalings other than 1, and random queries, against the
//! engine and a two-worker cluster at replication factor 2; one panel runs
//! once over the wire.

use std::collections::BTreeMap;
use std::sync::Arc;

use mdb_bench::catalog_from_dataset;
use mdb_datagen::{eh, ep, splitmix64, Dataset, Scale};
use modelardb::{
    Catalog, Cell, Client, Cluster, ClusterConfig, CompressionConfig, Config, ErrorBound,
    ModelRegistry, ModelarDb, QueryResult, Server, ServerOptions, SharedDatastore, Tid,
};
use proptest::prelude::*;

/// Random deployments the property checks; each runs [`QUERIES_PER_CASE`]
/// queries on the engine and on the cluster.
const CASES: u32 = 256;
const QUERIES_PER_CASE: usize = 6;

/// Relative slack on a stored value under a lossy bound, for `f32`
/// rounding: of each reconstructed value, and between a closed form over the
/// ideal line and the rounded values it stands for.
const F32_SLACK: f64 = 1.0 / (1u64 << 21) as f64;

/// The scalings a deployment picks from.
const SCALINGS: [f64; 6] = [1.0, 2.0, 0.5, 4.75, -1.5, 3.0];

const HOUR_MS: i64 = 3_600_000;
const DAY_MS: i64 = 24 * HOUR_MS;
/// 2021-02-01T00:00:00Z: an hour, day and month boundary at once.
const FEB_1_2021: i64 = 1_612_137_600_000;

/// A deterministic stream of choices from one seed.
struct Choices(u64);

impl Choices {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize].clone()
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// One random data set, loaded the same way into every system under test.
struct Deployment {
    ds: Dataset,
    catalog: Arc<Catalog>,
    bound: ErrorBound,
    ticks: u64,
    bulk_write_size: usize,
    rollups: bool,
}

fn deployment(c: &mut Choices) -> Deployment {
    let seed = c.next();
    let mut ds = if c.chance(50) {
        ep(seed, Scale::tiny())
    } else {
        eh(seed, Scale::tiny())
    }
    .unwrap();
    let ticks = 120 + c.below(480);
    // The span crosses a calendar boundary: an hour's, a day's, or the
    // hour, day and month boundary of February 1st.
    let boundary = c.pick(&[
        FEB_1_2021,
        FEB_1_2021 + 13 * HOUR_MS,
        FEB_1_2021 + 9 * DAY_MS,
    ]);
    ds.start = boundary - ds.profile.si_ms * c.below(ticks) as i64;
    let bound = c.pick(&[
        ErrorBound::Lossless,
        ErrorBound::relative(1.0),
        ErrorBound::relative(5.0),
        ErrorBound::absolute(0.5),
    ]);
    let mut catalog = (*catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap()).clone();
    // About half the cases scale each group by one constant, the series
    // that differ by a constant factor Section 4.1's scaling is for, so
    // PMC-Mean and Swing fit scaled series. The rest scale each series on
    // its own, which leaves a group's stored values apart: Gorilla.
    if c.chance(50) {
        for group in &catalog.groups {
            let scaling = c.pick(&SCALINGS);
            for meta in &mut catalog.series {
                if group.tids.contains(&meta.tid) {
                    meta.scaling = scaling;
                }
            }
        }
    } else {
        for meta in &mut catalog.series {
            meta.scaling = c.pick(&SCALINGS);
        }
    }
    Deployment {
        ds,
        catalog: Arc::new(catalog),
        bound,
        ticks,
        bulk_write_size: c.pick(&[4, 16, 50_000]),
        rollups: c.chance(50),
    }
}

fn engine(d: &Deployment) -> ModelarDb {
    let mut config = Config::default();
    config.compression.error_bound = d.bound;
    config.bulk_write_size = d.bulk_write_size;
    if !d.rollups {
        config.rollup_levels.clear();
    }
    let registry = Arc::new(ModelRegistry::standard());
    let mut db = ModelarDb::from_catalog(Arc::clone(&d.catalog), registry, config).unwrap();
    for batch in d.ds.batches(d.ticks, 64) {
        db.ingest_batch(&batch).unwrap();
    }
    db.flush().unwrap();
    db
}

/// A two-worker cluster at replication factor 2.
fn cluster(d: &Deployment) -> Cluster {
    let mut config = ClusterConfig::with_compression(CompressionConfig {
        error_bound: d.bound,
        ..Default::default()
    });
    config.replication_factor = 2;
    config.bulk_write_size = d.bulk_write_size;
    if !d.rollups {
        config.rollup_levels.clear();
    }
    let registry = Arc::new(ModelRegistry::standard());
    let cluster = Cluster::start_with(Arc::clone(&d.catalog), registry, config, 2).unwrap();
    for batch in d.ds.batches(d.ticks, 64) {
        cluster.ingest_batch(&batch).unwrap();
    }
    cluster.flush().unwrap();
    cluster
}

/// One loaded data point: its raw value and the half-width `w` of the
/// interval any reconstruction of it, divided by the scaling, lies in.
struct Point {
    tid: Tid,
    ts: i64,
    raw: f64,
    w: f64,
}

fn points(d: &Deployment) -> Vec<Point> {
    let mut points = Vec::new();
    for tick in 0..d.ticks {
        for meta in &d.catalog.series {
            let Some(raw) = d.ds.value(meta.tid, tick) else {
                continue;
            };
            let (raw, scaling) = (f64::from(raw), meta.scaling);
            let stored = (raw * scaling) as f32;
            // At 0 % every answer reproduces the stored value exactly.
            let eps = d.bound.epsilon_for(stored);
            let reach = match d.bound {
                ErrorBound::Lossless => 0.0,
                _ => eps + (f64::from(stored).abs() + eps) * F32_SLACK,
            };
            let quantized = (f64::from(stored) / scaling - raw).abs();
            points.push(Point {
                tid: meta.tid,
                ts: d.ds.timestamp(tick),
                raw,
                w: reach / scaling.abs() + quantized,
            });
        }
    }
    points
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Func {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl Func {
    fn name(self) -> &'static str {
        match self {
            Func::Count => "COUNT",
            Func::Sum => "SUM",
            Func::Avg => "AVG",
            Func::Min => "MIN",
            Func::Max => "MAX",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Level {
    Hour,
    Day,
    Month,
}

impl Level {
    fn name(self) -> &'static str {
        match self {
            Level::Hour => "Hour",
            Level::Day => "Day",
            Level::Month => "Month",
        }
    }

    /// The DatePart key of `ts`: hour of day, day of month or month.
    fn part(self, ts: i64) -> i64 {
        let (_, month, day) = civil(ts.div_euclid(DAY_MS));
        match self {
            Level::Hour => ts.div_euclid(HOUR_MS).rem_euclid(24),
            Level::Day => day,
            Level::Month => month,
        }
    }
}

/// `(year, month, day)` of a day count since 1970-01-01 (the proleptic
/// Gregorian calendar, by era arithmetic).
fn civil(days: i64) -> (i64, i64, i64) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    (year, month, day)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Op {
    fn sql(self) -> &'static str {
        match self {
            Op::Eq => "=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
        }
    }

    fn holds<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            Op::Eq => a == b,
            Op::Lt => a < b,
            Op::Le => a <= b,
            Op::Gt => a > b,
            Op::Ge => a >= b,
        }
    }
}

/// Whether a point is in a cell's aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Status {
    In,
    Maybe,
    Out,
}

/// A query of the oracle's grammar.
#[derive(Debug, Clone)]
struct Query {
    funcs: Vec<Func>,
    cube: Option<Level>,
    /// `Tid` or a dimension level column.
    group_by: Option<String>,
    tids: Option<Vec<Tid>>,
    member: Option<(String, String)>,
    ts: Vec<(Op, i64)>,
    /// `(column, op, timestamp)` on `StartTime` or `EndTime`.
    segment_time: Option<(&'static str, Op, i64)>,
    value: Option<(Op, f64)>,
}

impl Query {
    fn sql(&self) -> String {
        let mut items: Vec<String> = self.group_by.iter().cloned().collect();
        for f in &self.funcs {
            items.push(match self.cube {
                Some(level) => format!("CUBE_{}_{}(*)", f.name(), level.name().to_uppercase()),
                None => format!("{}_S(*)", f.name()),
            });
        }
        let mut conjuncts = Vec::new();
        if let Some(tids) = &self.tids {
            let list: Vec<String> = tids.iter().map(Tid::to_string).collect();
            conjuncts.push(format!("Tid IN ({})", list.join(", ")));
        }
        if let Some((column, member)) = &self.member {
            conjuncts.push(format!("{column} = '{member}'"));
        }
        for (op, ts) in &self.ts {
            conjuncts.push(format!("TS {} {ts}", op.sql()));
        }
        if let Some((column, op, ts)) = &self.segment_time {
            conjuncts.push(format!("{column} {} {ts}", op.sql()));
        }
        if let Some((op, x)) = &self.value {
            conjuncts.push(format!("Value {} {x}", op.sql()));
        }
        let mut sql = format!("SELECT {} FROM Segment", items.join(", "));
        if !conjuncts.is_empty() {
            sql += &format!(" WHERE {}", conjuncts.join(" AND "));
        }
        if let Some(column) = &self.group_by {
            sql += &format!(" GROUP BY {column}");
        }
        sql
    }
}

/// Every dimension level column of the data set.
fn level_columns(ds: &Dataset) -> Vec<String> {
    let mut columns = Vec::new();
    for schema in ds.dimensions.schemas() {
        for level in 1..=schema.height() {
            columns.extend(schema.level_name(level).map(str::to_string));
        }
    }
    columns
}

/// The member of `tid` at a dimension level column.
fn member_of(ds: &Dataset, tid: Tid, column: &str) -> String {
    let (dim, level) = ds.dimensions.resolve_level(column).unwrap();
    let id = ds.dimensions.member(tid, dim, level).unwrap();
    ds.dimensions.member_name(id).to_string()
}

/// Every value the Data Point View answers: what the system stores,
/// reconstructed and divided by the scaling. A threshold on one of them
/// lies on a model's value, a crossing range's end or a cell's extreme.
fn stored_values(db: &ModelarDb) -> Vec<f64> {
    let listing = db.sql("SELECT Value FROM DataPoint").unwrap();
    listing
        .rows
        .iter()
        .filter_map(|row| row[0].as_f64())
        .collect()
}

fn random_query(c: &mut Choices, d: &Deployment, points: &[Point], stored: &[f64]) -> Query {
    let ds = &d.ds;
    let n_series = ds.n_series() as u64;
    let (first, last) = (ds.timestamp(0), ds.timestamp(d.ticks - 1));
    let span = last - first;
    let cube = c
        .chance(30)
        .then(|| c.pick(&[Level::Hour, Level::Day, Level::Month]));
    let funcs = match cube {
        Some(_) => vec![c.pick(&[Func::Sum, Func::Avg])],
        None => {
            let all = [Func::Count, Func::Sum, Func::Avg, Func::Min, Func::Max];
            let mut funcs: Vec<Func> = all.iter().copied().filter(|_| c.chance(40)).collect();
            if funcs.is_empty() {
                funcs.push(c.pick(&all));
            }
            funcs
        }
    };
    let columns = level_columns(ds);
    let group_by = match c.below(3) {
        0 => None,
        1 => Some("Tid".to_string()),
        _ => Some(c.pick(&columns)),
    };
    let tids = c.chance(25).then(|| {
        let n = 1 + c.below(3);
        // Now and then a tid the catalog does not have.
        (0..n).map(|_| 1 + c.below(n_series + 1) as Tid).collect()
    });
    let member = c.chance(20).then(|| {
        let column = c.pick(&columns);
        let tid = 1 + c.below(n_series) as Tid;
        let member = member_of(ds, tid, &column);
        (column, member)
    });
    // Unaligned instants inside and just outside the span.
    let instant = |c: &mut Choices| first - 1000 + (c.below((span + 2000) as u64) as i64);
    let ts = match c.below(8) {
        0..=2 => Vec::new(),
        3 => vec![(Op::Ge, instant(c)), (Op::Le, instant(c))],
        4 => vec![(c.pick(&[Op::Gt, Op::Ge, Op::Lt, Op::Le]), instant(c))],
        5 => {
            // An empty range.
            let (a, b) = (instant(c), instant(c));
            vec![(Op::Gt, a.max(b)), (Op::Lt, a.min(b))]
        }
        6 => vec![c.pick(&[
            (Op::Ge, i64::MIN),
            (Op::Le, i64::MAX),
            (Op::Gt, i64::MAX),
            (Op::Lt, i64::MIN),
        ])],
        _ => {
            // Whole aligned hours, the cell-served shape.
            let from = (first.div_euclid(HOUR_MS) + 1) * HOUR_MS;
            vec![(Op::Ge, from), (Op::Lt, from + HOUR_MS)]
        }
    };
    let segment_time = c.chance(25).then(|| {
        let column = c.pick(&["StartTime", "EndTime"]);
        let at = match c.below(3) {
            0 => last,
            1 => first,
            _ => instant(c),
        };
        (column, c.pick(&[Op::Lt, Op::Le, Op::Gt, Op::Ge]), at)
    });
    let value = (c.chance(25) && !points.is_empty()).then(|| {
        let raw = points[c.below(points.len() as u64) as usize].raw;
        let x = match c.below(4) {
            0 => raw,
            1 => raw + 0.25,
            _ if stored.is_empty() => raw,
            // A stored value, exactly or one ulp either side.
            2 => c.pick(stored),
            _ => {
                let x = c.pick(stored);
                c.pick(&[x.next_up(), x.next_down()])
            }
        };
        (c.pick(&[Op::Eq, Op::Lt, Op::Le, Op::Gt, Op::Ge]), x)
    });
    Query {
        funcs,
        cube,
        group_by,
        tids,
        member,
        ts,
        segment_time,
        value,
    }
}

/// The status a `StartTime`/`EndTime` comparison gives a point at `ts` when
/// every segment lies within `[first, last]` and contains its points.
fn segment_time_status(column: &str, op: Op, at: i64, ts: i64, first: i64, last: i64) -> Status {
    // Normalize strict comparisons to inclusive ones.
    let (op, at) = match op {
        Op::Lt if at == i64::MIN => return Status::Out,
        Op::Gt if at == i64::MAX => return Status::Out,
        Op::Lt => (Op::Le, at - 1),
        Op::Gt => (Op::Ge, at + 1),
        op => (op, at),
    };
    let status = |definitely_in: bool, definitely_out: bool| match (definitely_in, definitely_out) {
        (true, _) => Status::In,
        (_, true) => Status::Out,
        _ => Status::Maybe,
    };
    match (column, op) {
        // A segment ends in [ts, last].
        ("EndTime", Op::Le) => status(at >= last, ts > at),
        ("EndTime", Op::Ge) => status(ts >= at, at > last),
        // A segment starts in [first, ts].
        ("StartTime", Op::Le) => status(ts <= at, at < first),
        ("StartTime", Op::Ge) => status(at <= first, ts < at),
        _ => unreachable!("equality is not generated"),
    }
}

fn status(q: &Query, d: &Deployment, p: &Point) -> Status {
    let ds = &d.ds;
    if q.tids.as_ref().is_some_and(|tids| !tids.contains(&p.tid))
        || q.member
            .as_ref()
            .is_some_and(|(column, member)| member_of(ds, p.tid, column) != *member)
        || !q.ts.iter().all(|(op, at)| op.holds(p.ts, *at))
    {
        return Status::Out;
    }
    let mut status = Status::In;
    if let Some((column, op, at)) = q.segment_time {
        let (first, last) = (ds.timestamp(0), ds.timestamp(d.ticks - 1));
        status = status.max(segment_time_status(column, op, at, p.ts, first, last));
    }
    if let Some((op, x)) = q.value {
        let (lo, hi) = (p.raw - p.w, p.raw + p.w);
        let all = match op {
            Op::Eq => lo == x && hi == x,
            Op::Lt => hi < x,
            Op::Le => hi <= x,
            Op::Gt => lo > x,
            Op::Ge => lo >= x,
        };
        let none = match op {
            Op::Eq => x < lo || x > hi,
            Op::Lt => lo >= x,
            Op::Le => lo > x,
            Op::Gt => hi <= x,
            Op::Ge => hi < x,
        };
        status = status.max(if all {
            Status::In
        } else if none {
            Status::Out
        } else {
            Status::Maybe
        });
    }
    status
}

/// What the points of one output cell allow its answers to be.
#[derive(Debug)]
struct Bounds {
    definite: u64,
    maybe: u64,
    /// `SUM` bounds: definite points at their extremes, maybe points at
    /// their extreme or absent.
    sum: (f64, f64),
    /// The lowest and highest value any counted point may answer.
    lowest: f64,
    highest: f64,
    /// The lowest and highest value of the definite points' upper and lower
    /// ends: `MIN` is at most the first, `MAX` at least the second.
    min_ceiling: f64,
    max_floor: f64,
    /// `Σ (|raw| + w)`, the scale of float association error.
    magnitude: f64,
}

impl Default for Bounds {
    fn default() -> Self {
        Self {
            definite: 0,
            maybe: 0,
            sum: (0.0, 0.0),
            lowest: f64::INFINITY,
            highest: f64::NEG_INFINITY,
            min_ceiling: f64::INFINITY,
            max_floor: f64::NEG_INFINITY,
            magnitude: 0.0,
        }
    }
}

impl Bounds {
    fn add(&mut self, p: &Point, status: Status) {
        let (lo, hi) = (p.raw - p.w, p.raw + p.w);
        match status {
            Status::In => {
                self.definite += 1;
                self.sum.0 += lo;
                self.sum.1 += hi;
                self.min_ceiling = self.min_ceiling.min(hi);
                self.max_floor = self.max_floor.max(lo);
            }
            Status::Maybe => {
                self.maybe += 1;
                self.sum.0 += lo.min(0.0);
                self.sum.1 += hi.max(0.0);
            }
            Status::Out => return,
        }
        self.lowest = self.lowest.min(lo);
        self.highest = self.highest.max(hi);
        self.magnitude += p.raw.abs() + p.w;
    }

    /// The interval an answer of `func` must lie in.
    fn interval(&self, func: Func) -> (f64, f64) {
        let n = (self.definite + self.maybe) as f64;
        let slack = 4.0 * (n + 16.0) * f64::EPSILON * self.magnitude;
        let (lo, hi) = match func {
            Func::Count => (self.definite as f64, n),
            Func::Sum => (self.sum.0 - slack, self.sum.1 + slack),
            Func::Avg if self.maybe == 0 => (
                (self.sum.0 - slack) / self.definite as f64,
                (self.sum.1 + slack) / self.definite as f64,
            ),
            Func::Avg => (self.lowest, self.highest),
            Func::Min => (self.lowest, self.min_ceiling),
            Func::Max => (self.max_floor, self.highest),
        };
        let ulps = |v: f64| v.abs() * 8.0 * f64::EPSILON;
        (lo - ulps(lo), hi + ulps(hi))
    }
}

/// The oracle: each output cell's bounds, keyed by group key and time part.
fn expected(q: &Query, d: &Deployment, points: &[Point]) -> BTreeMap<(String, i64), Bounds> {
    let mut cells: BTreeMap<(String, i64), Bounds> = BTreeMap::new();
    for p in points {
        let status = status(q, d, p);
        if status == Status::Out {
            continue;
        }
        let key = match q.group_by.as_deref() {
            None => String::new(),
            Some("Tid") => p.tid.to_string(),
            Some(column) => member_of(&d.ds, p.tid, column),
        };
        let part = q.cube.map_or(0, |level| level.part(p.ts));
        cells.entry((key, part)).or_default().add(p, status);
    }
    cells
}

fn cell_key(cell: &Cell) -> String {
    match cell {
        Cell::Int(v) => v.to_string(),
        Cell::Str(s) => s.clone(),
        other => panic!("unexpected group key {other:?}"),
    }
}

/// Checks one answer against the oracle's bounds.
fn check(q: &Query, d: &Deployment, points: &[Point], got: &QueryResult, system: &str) {
    let sql = q.sql();
    let cells = expected(q, d, points);
    let column = |name: &str| {
        got.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("{system}: no column {name} in {:?}: {sql}", got.columns))
    };
    let key_at = q.group_by.as_deref().map(column);
    let part_at = q.cube.map(|level| column(level.name()));
    let mut seen = Vec::new();
    for row in &got.rows {
        let key = key_at.map_or_else(String::new, |i| cell_key(&row[i]));
        let part = part_at.map_or(0, |i| row[i].as_i64().expect("time part"));
        let Some(bounds) = cells.get(&(key.clone(), part)) else {
            panic!("{system}: row {row:?} has no point: {sql}");
        };
        seen.push((key.clone(), part));
        for &func in &q.funcs {
            let name = match q.cube {
                Some(level) => format!("CUBE_{}_{}(*)", func.name(), level.name().to_uppercase()),
                None => format!("{}_S(*)", func.name()),
            };
            let value = row[column(&name)].as_f64();
            let (lo, hi) = bounds.interval(func);
            assert!(
                value.is_some_and(|v| lo <= v && v <= hi),
                "{system}: {name} of {key:?}/{part} is {value:?}, outside [{lo}, {hi}] \
                 ({bounds:?}, bound {:?}): {sql}",
                d.bound
            );
        }
    }
    for (cell, bounds) in &cells {
        assert!(
            bounds.definite == 0 || seen.contains(cell),
            "{system}: no row for {cell:?} ({bounds:?}): {sql}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]
    #[test]
    fn answers_lie_within_the_bound_of_the_raw_data(seed in proptest::num::u64::ANY) {
        let mut c = Choices(seed);
        let d = deployment(&mut c);
        let points = points(&d);
        let db = engine(&d);
        let stored = stored_values(&db);
        let cluster = cluster(&d);
        for _ in 0..QUERIES_PER_CASE {
            let q = random_query(&mut c, &d, &points, &stored);
            let sql = q.sql();
            check(&q, &d, &points, &db.sql(&sql).unwrap(), "engine");
            check(&q, &d, &points, &cluster.sql(&sql).unwrap(), "cluster");
        }
        cluster.shutdown().unwrap();
    }
}

#[test]
fn answers_over_the_wire_lie_within_the_bound_of_the_raw_data() {
    let mut c = Choices(41);
    let d = deployment(&mut c);
    let points = points(&d);
    let db = engine(&d);
    let stored = stored_values(&db);
    let server = Server::start(SharedDatastore::new(db), ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for _ in 0..64 {
        let q = random_query(&mut c, &d, &points, &stored);
        check(&q, &d, &points, &client.sql(&q.sql()).unwrap(), "wire");
    }
    client.close().unwrap();
    server.shutdown().unwrap();
}

/// The oracle covers the closed forms it is meant to check: over the
/// deployments the property draws, PMC-Mean and Swing hold at least a
/// tenth of the points stored at a lossy bound, counted from the Segment
/// View listing (one row per segment and series).
#[test]
fn closed_form_models_hold_a_tenth_of_lossy_points() {
    let registry = ModelRegistry::standard();
    let closed = [
        registry.mid_of("PMC-Mean").unwrap(),
        registry.mid_of("Swing").unwrap(),
    ];
    let (mut covered, mut total) = (0i64, 0i64);
    for seed in 0..64 {
        let d = deployment(&mut Choices(seed));
        if d.bound == ErrorBound::Lossless {
            continue;
        }
        let listing = engine(&d)
            .sql("SELECT Mid, StartTime, EndTime, SI FROM Segment")
            .unwrap();
        for row in &listing.rows {
            let int = |i: usize| match row[i] {
                Cell::Int(v) | Cell::Timestamp(v) => v,
                ref other => panic!("unexpected cell {other:?}"),
            };
            let points = (int(2) - int(1)) / int(3) + 1;
            total += points;
            if closed.iter().any(|&mid| i64::from(mid) == int(0)) {
                covered += points;
            }
        }
    }
    assert!(
        covered * 10 >= total,
        "PMC-Mean and Swing hold {covered} of {total} lossy points"
    );
}
