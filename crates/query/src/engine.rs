//! The query engine: Algorithm 5 (simple aggregates on the Segment View),
//! Algorithm 6 (aggregation in the time dimension), and the listing paths of
//! both views (the point/range workload).
//!
//! Every query runs in two halves, exactly as the pseudo-code annotates
//! ("executed on workers with the result sent to the master"):
//! [`QueryEngine::partial`] answers for the store within the engine's gid
//! scope, and [`QueryEngine::finalize`] merges any split of those partials
//! and applies ORDER BY and LIMIT. [`QueryEngine::execute`] is the two
//! halves over one store; a cluster runs the first on every worker and the
//! second at the master, so both deployments give the same answer. An
//! aggregate's partial starts by compiling it once, which extends
//! Algorithm 5's rewrite step: every tid's group key is resolved to a
//! dense slot once per query.
//!
//! A listing without ORDER BY returns its groups in ascending gid order,
//! each group's rows in the store's scan order, so LIMIT keeps the same
//! rows whichever stores the groups are spread over.
//!
//! The partial phase is one inline scan on the querying thread: the
//! rewritten push-down predicate (checked against the store's per-block
//! gid, time and value statistics) shrinks the scan to the surviving
//! [`SegmentRun`](mdb_storage::SegmentRun)s — each borrowed from a fetched block or the write
//! buffer, so segments are evaluated as borrowed [`SegmentView`]s with **no
//! per-segment allocation** — and each run is folded as the store hands it
//! over. Concurrency comes from concurrent sessions and cluster workers,
//! not from splitting one scan. A group key's [`Accumulator`] sums its
//! terms (one per segment and series) exactly and rounds once, so partials
//! merge in any order, and a store split any way — over cluster workers or
//! gid scopes — gives the bits of the single scan. Tiled scans fold each
//! `(tid, tile)`'s terms in scan order instead, the order the rollup cells
//! fold in.
//!
//! When the store maintains continuous aggregates ([`mdb_storage::rollup`]),
//! a Segment View aggregate is *tiled*: its `TS` range is cut into the
//! coarsest whole calendar buckets of the maintained levels that fit
//! (months, then days, then hours) and at most two partial edge buckets; a
//! `Value`-filtered one by the finest level alone. Whole tiles are answered
//! from the materialized cells instead of a scan — see
//! [`QueryEngine::with_rollups`] — and only the edges, the tiles a
//! `StartTime`/`EndTime` comparison cuts through and, per `(tid, tile)`,
//! the cells whose extremes straddle a `Value` filter are scanned, with
//! segments split at the same tile boundaries.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use mdb_models::{ModelRegistry, SegmentAgg};
use mdb_storage::rollup::level_tag;
use mdb_storage::{Catalog, RollupAcc, SegmentEnvelope, SegmentPredicate, SegmentStore};
use mdb_types::{
    time, BlockSketch, Gid, MdbError, Result, SegmentView, Tid, TimeLevel, Timestamp, Value,
    ValueInterval,
};

use crate::aggregate::{term, Accumulator, AggFunc, SegmentCursor, EMPTY_TERM};
use crate::cell::{Cell, QueryResult};
use crate::sql::{CmpOp, Predicate, Query, SelectItem, SketchFunc, TimeColumn, View};
use crate::tile::{bucket_end, Span, Tiling};

/// A group-by key component (group keys are never floats).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum KeyCell {
    Int(i64),
    Str(String),
}

impl KeyCell {
    fn to_cell(&self) -> Cell {
        match self {
            KeyCell::Int(v) => Cell::Int(*v),
            KeyCell::Str(s) => Cell::Str(s.clone()),
        }
    }
}

/// A query's group keys, resolved once per query: each tid the query keeps
/// maps to the dense slot of its key (slots in ascending key order) and to
/// its scaling. Independent of any gid scope, so every cluster worker
/// numbers the slots alike.
#[derive(Debug, Default)]
struct KeyPlan {
    /// Indexed by tid: `(slot, scaling)`, or `None` for a tid the query skips.
    by_tid: Vec<Option<(u32, f64)>>,
    /// Each slot's key row: the GROUP BY columns in order.
    rows: Vec<Vec<KeyCell>>,
}

impl KeyPlan {
    /// The slot and scaling of `tid`, or `None` when the query skips it.
    fn lookup(&self, tid: Tid) -> Option<(usize, f64)> {
        let (slot, scaling) = (*self.by_tid.get(tid as usize)?)?;
        Some((slot as usize, scaling))
    }
}

/// What a summary makes of one tile: the store's segment-time statistics
/// under the query's `StartTime`/`EndTime` comparisons, or a rollup cell's
/// extremes under its `Value` filter ([`value_verdict`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Everything that meets the tile passes: its cells are the answer.
    Serve,
    /// Nothing that meets the tile passes: it contributes nothing.
    Skip,
    /// Some may pass and some may not: the tile is scanned.
    Scan,
}

/// An aggregate query compiled once (`QueryEngine::compile`).
#[derive(Debug)]
struct Plan {
    /// `None` for a plain segment scan into exact per-slot sums. `Some`
    /// keeps one term per `(tid, tile)`: whole tiles from rollup cells
    /// where the store serves them, every other tile scanned with segments
    /// split at the same tile boundaries, so the two paths fold the same
    /// terms per tile and give the same bits.
    tiling: Option<Tiling>,
    rw: Rewritten,
    keys: Arc<KeyPlan>,
    /// Only the Segment View may aggregate on the models directly.
    use_models: bool,
    /// A Segment View aggregate of `COUNT`s alone, without a `Value`
    /// filter: each term is its tick range's length, read from the
    /// segment's metadata, so no model is evaluated or reconstructed (its
    /// blocks are still fetched and checksum-verified). The Data Point
    /// View's aggregates are over reconstructed points, so it reconstructs.
    counts_only: bool,
}

/// What a listing column lists, resolved once per query.
#[derive(Debug, Clone, Copy)]
enum Column {
    Tid,
    StartTime,
    EndTime,
    Si,
    Mid,
    Gaps,
    Ts,
    Value,
    /// A dimension level: `(dimension, level)`.
    Member(usize, usize),
}

/// Listing rows per group, in ascending gid order.
pub type GidRows = BTreeMap<Gid, Vec<Vec<Cell>>>;

/// A store's share of a query's answer ([`QueryEngine::partial`]), for
/// [`QueryEngine::finalize`] to merge with the other stores' shares.
#[derive(Debug)]
pub enum Partial {
    /// An aggregate query's partial aggregation state.
    Aggregates(PartialAggregates),
    /// A sketch query's merged per-group sketches.
    Sketch(BlockSketch),
    /// A listing's column names and its rows per group, with neither ORDER
    /// BY nor LIMIT applied.
    Rows(Vec<String>, GidRows),
}

/// The three ways a query is answered, decided by its SELECT items alone.
#[derive(Debug, Clone, Copy)]
enum Class {
    /// Any sketch function: the store's sketches, no segment body read.
    Sketch,
    /// Any other aggregate: Algorithms 5 and 6.
    Aggregate,
    /// No aggregate: rows of either view.
    Listing,
}

impl Class {
    fn of(query: &Query) -> Class {
        let items = || query.items.iter();
        if items().any(|i| matches!(i, SelectItem::Sketch(_))) {
            Class::Sketch
        } else if items().any(|i| matches!(i, SelectItem::Agg { .. })) {
            Class::Aggregate
        } else {
            Class::Listing
        }
    }
}

/// One tid's tiles: `(tile start, term)` in ascending tile order, each term
/// the `f64` fold of the tile's terms in scan order, as its rollup cell is.
type TileColumn = Vec<(Timestamp, RollupAcc)>;

/// Worker-local partial aggregation state of one compiled query: one exact
/// [`Accumulator`] per group key, so partials merge in any order to the same
/// bits. Tiled plans instead keep one [`RollupAcc`] per `(tid, tile)` — a
/// served cell, or the fold of the tile's scanned terms in scan order — for
/// the finalize step to fold as the cells are folded.
#[derive(Debug, Clone, Default)]
pub struct PartialAggregates {
    keys: Arc<KeyPlan>,
    /// Indexed by slot; `None` until a segment touches the slot.
    slots: Vec<Option<Accumulator>>,
    /// Indexed by tid: the rollup cells served, apart from the scanned
    /// tiles, which they interleave with; the finalize step walks both.
    cells: Vec<TileColumn>,
    /// Indexed by tid: the scanned tiles.
    tiles: Vec<TileColumn>,
}

impl PartialAggregates {
    /// An untouched partial over `keys`' slots and tids.
    fn new(keys: &Arc<KeyPlan>) -> Self {
        Self {
            keys: Arc::clone(keys),
            slots: vec![None; keys.rows.len()],
            cells: vec![Vec::new(); keys.by_tid.len()],
            tiles: vec![Vec::new(); keys.by_tid.len()],
        }
    }

    /// Folds a scanned term into its `(tid, tile)`, in scan order: into the
    /// tid's last tile when it is that tile (no lookup on the common path,
    /// where a tid's segments arrive in time order), after it when it is a
    /// later one, in place otherwise.
    fn add_tile_term(&mut self, tid: Tid, tile: Timestamp, term: RollupAcc) {
        let column = &mut self.tiles[tid as usize];
        if column.last().is_some_and(|last| last.0 > tile) {
            let at = column.partition_point(|e| e.0 < tile);
            match column.get_mut(at) {
                Some(entry) if entry.0 == tile => entry.1.merge(&term),
                _ => column.insert(at, (tile, term)),
            }
            return;
        }
        match column.last_mut() {
            Some(last) if last.0 == tile => last.1.merge(&term),
            _ => column.push((tile, term)),
        }
    }
}

/// What a `Value` filter makes of the points a rollup cell summarizes. Its
/// `MIN` and `MAX` are attained, descaled values, in the filter's own
/// domain, and bound every point: the filter keeps every point when it
/// covers both, and none when it misses the range between them. A `NaN`
/// point, which no filter keeps and no extreme shows, makes the sum `NaN`.
fn value_verdict(filter: &ValueInterval, cell: &RollupAcc) -> Verdict {
    let extremes = ValueInterval::new(cell.min, cell.max);
    if cell.sum.is_nan() {
        Verdict::Scan
    } else if filter.covers(&extremes) {
        Verdict::Serve
    } else if !filter.intersects(&extremes) {
        Verdict::Skip
    } else {
        Verdict::Scan
    }
}

/// The whole tiles a value plan scans for some of its series only: those
/// whose cell straddles the filter. Per group, its straddling tiles in
/// ascending order, each with the mask of the member positions whose cells
/// straddle there, so a segment meeting none of its group's tiles is passed
/// by before any per-series work, and one that meets some walks just those
/// tiles and members.
#[derive(Debug, Default)]
struct TileIndex {
    /// Indexed by the group's position in the catalog: its tiles in
    /// ascending order and their member masks (bit `p` for member position
    /// `p`); empty for a group without any.
    by_group: Vec<Vec<(Span, u64)>>,
}

impl TileIndex {
    /// The index of `(group position, tile, member mask)` straddles over a
    /// catalog of `n_groups` groups, `None` without any; the masks of one
    /// group's tile are joined.
    fn new(mut straddles: Vec<(usize, Span, u64)>, n_groups: usize) -> Option<TileIndex> {
        if straddles.is_empty() {
            return None;
        }
        straddles.sort_unstable_by_key(|&(group, span, _)| (group, span));
        let mut by_group = vec![Vec::new(); n_groups];
        for (group, span, members) in straddles {
            let tiles = &mut by_group[group];
            match tiles.last_mut() {
                Some((tile, mask)) if *tile == span => *mask |= members,
                _ => tiles.push((span, members)),
            }
        }
        Some(TileIndex { by_group })
    }

    /// The tiles of the group at catalog position `group` from the first
    /// that a segment over `(start, end)` meets, or `None` when it meets
    /// none. `cursors` holds, per group, the first tile the last check
    /// found ending at or after its segment's start: a group's segments
    /// mostly arrive in time order, so the search walks on from there.
    fn meets(
        &self,
        group: usize,
        (start, end): Span,
        cursors: &mut [usize],
    ) -> Option<&[(Span, u64)]> {
        let tiles = &self.by_group[group];
        let ends_before = |&((_, hi), _): &(Span, u64)| hi < start;
        let mut at = cursors[group];
        if at == 0 || !ends_before(&tiles[at - 1]) {
            at = tiles.partition_point(ends_before);
        } else {
            while tiles.get(at).is_some_and(ends_before) {
                at += 1;
            }
        }
        cursors[group] = at;
        let tiles = &tiles[at..];
        tiles
            .first()
            .is_some_and(|&((lo, _), _)| lo <= end)
            .then_some(tiles)
    }

    /// The span from the first tile to the end of the last.
    fn hull(&self) -> Span {
        let spans = self.by_group.iter().flatten();
        let lo = spans.clone().map(|((lo, _), _)| *lo).min();
        let hi = spans.map(|((_, hi), _)| *hi).max();
        (lo.unwrap_or(Timestamp::MAX), hi.unwrap_or(Timestamp::MIN))
    }
}

/// The query engine for one node's store.
pub struct QueryEngine<'a> {
    catalog: &'a Catalog,
    registry: &'a ModelRegistry,
    store: &'a dyn SegmentStore,
    /// When set, only these groups are visible to the engine (see
    /// [`QueryEngine::with_gid_scope`]).
    gid_scope: Option<&'a [Gid]>,
    /// The time levels the store's continuous aggregates materialize (empty
    /// = rollups off). Non-empty tiles eligible aggregates at these levels
    /// so serve and scan share one float association (cells fold in `f64`,
    /// per `(tid, tile)` in scan order).
    rollup_levels: &'a [TimeLevel],
    /// Whether whole tiles may be answered from rollup cells. Scanning with
    /// `rollup_levels` still set keeps the tiled association, which is what
    /// makes the two paths bit-identical.
    rollup_serve: bool,
}

/// One scan of a compiled plan: the rewrite with the `TS` bounds of the
/// window being scanned, and the straddling tiles to walk per group and
/// member (`None` for every tile and series).
struct Scan<'p> {
    plan: &'p Plan,
    rw: &'p Rewritten,
    only: Option<&'p TileIndex>,
}

/// A fold's buffers, reused from segment to segment.
#[derive(Default)]
struct Scratch {
    /// The segment's reconstructed values.
    grid: Vec<Value>,
    /// The segment's tick range split at tile boundaries.
    splits: Vec<(Timestamp, (usize, usize))>,
    /// Per group of the scan's [`TileIndex`], where its last check stopped.
    cursors: Vec<usize>,
}

/// Intersects a tid restriction with `keep`, in the restriction's order.
fn narrow(tids: Option<Vec<Tid>>, keep: &[Tid]) -> Vec<Tid> {
    match tids {
        None => keep.to_vec(),
        Some(prev) => prev.into_iter().filter(|t| keep.contains(t)).collect(),
    }
}

/// The raw values `v <op> x` admits, as an exact closed interval: floats
/// are discrete, so `v > x` is `v >= x.next_up()` and `v < x` is
/// `v <= x.next_down()` for every value. `NaN` lies in no interval, and
/// passes no comparison.
fn admitted(op: CmpOp, x: f64) -> ValueInterval {
    match op {
        _ if x.is_nan() => ValueInterval::EMPTY,
        CmpOp::Eq => ValueInterval::point(x),
        CmpOp::Ge => ValueInterval::new(x, f64::INFINITY),
        CmpOp::Le => ValueInterval::new(f64::NEG_INFINITY, x),
        CmpOp::Gt if x == f64::INFINITY => ValueInterval::EMPTY,
        CmpOp::Gt => ValueInterval::new(x.next_up(), f64::INFINITY),
        CmpOp::Lt if x == f64::NEG_INFINITY => ValueInterval::EMPTY,
        CmpOp::Lt => ValueInterval::new(f64::NEG_INFINITY, x.next_down()),
    }
}

/// Whether the closed form proves that no point of a series passes
/// `filter`: its stored extremes bound every reconstructed value (the
/// [`mdb_models::ModelType::agg`] contract), dividing by the scaling keeps
/// their order (or reverses it), and the interval they span misses the
/// filter. A `NaN` extreme proves nothing.
fn excludes(filter: &ValueInterval, agg: SegmentAgg, scaling: f64) -> bool {
    let (a, b) = (f64::from(agg.min) / scaling, f64::from(agg.max) / scaling);
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    !filter.intersects(&ValueInterval::new(lo, hi))
}

/// Resolved WHERE clause: per-row filters plus the predicate pushed to the
/// segment store (Section 6.2's rewriting).
#[derive(Debug, Clone)]
struct Rewritten {
    /// The tids the Tid and member predicates keep (members through the
    /// inverted index); `None` = no restriction.
    tids: Option<Vec<Tid>>,
    /// Time bounds on data points (from TS comparisons).
    ts_from: Timestamp,
    ts_to: Timestamp,
    /// Raw segment-column comparisons (StartTime / EndTime).
    segment_time: Vec<(TimeColumn, CmpOp, Timestamp)>,
    /// The raw values every `Value` comparison admits (exact, see
    /// [`admitted`]); `None` without any.
    values: Option<ValueInterval>,
    /// The push-down predicate for the store.
    pushdown: SegmentPredicate,
    /// True when the rewrite proved the result empty (e.g. unknown member).
    empty: bool,
}

impl Rewritten {
    /// Whether the Tid and member predicates keep `tid`.
    fn keeps(&self, tid: Tid) -> bool {
        self.tids.as_ref().is_none_or(|tids| tids.contains(&tid))
    }

    /// Whether `segment` passes every `StartTime`/`EndTime` comparison.
    fn segment_time_matches(&self, segment: &SegmentView<'_>) -> bool {
        self.segment_time.iter().all(|(column, op, value)| {
            let field = match column {
                TimeColumn::StartTime => segment.start_time,
                _ => segment.end_time,
            };
            op.holds(field, *value)
        })
    }

    /// The rewrite restricted to the `TS` window `[lo, hi]` (inside its
    /// range): the window bounds the scan, and the push-down keeps any
    /// tighter segment-time bound.
    fn within(&self, lo: Timestamp, hi: Timestamp) -> Rewritten {
        let mut rw = self.clone();
        (rw.ts_from, rw.ts_to) = (lo, hi);
        if lo != i64::MIN {
            rw.pushdown.from = Some(rw.pushdown.from.map_or(lo, |from| from.max(lo)));
        }
        if hi != i64::MAX {
            rw.pushdown.to = Some(rw.pushdown.to.map_or(hi, |to| to.min(hi)));
        }
        rw
    }

    /// What the segment-time comparisons make of the segments `envelopes`
    /// summarize that meet `tile`. Each comparison is decided on the range
    /// its column may take inside an envelope — `[min_end, max_end]` for
    /// `EndTime`, and for `StartTime` `[min_start, max_end]`, since a
    /// segment starts no later than it ends: it keeps every segment when it
    /// holds at both ends of the range, and none when it fails at both
    /// (for `=`, when the range misses the value).
    fn verdict(&self, envelopes: &[SegmentEnvelope], (lo, hi): Span) -> Verdict {
        let (mut all, mut none) = (true, true);
        for e in envelopes
            .iter()
            .filter(|e| e.min_start <= hi && e.max_end >= lo)
        {
            let (mut keeps_all, mut keeps_none) = (true, false);
            for &(column, op, value) in &self.segment_time {
                let (min, max) = match column {
                    TimeColumn::StartTime => (e.min_start, e.max_end),
                    _ => (e.min_end, e.max_end),
                };
                keeps_all &= op.holds(min, value) && op.holds(max, value);
                keeps_none |= match op {
                    CmpOp::Eq => value < min || value > max,
                    _ => !op.holds(min, value) && !op.holds(max, value),
                };
            }
            all &= keeps_all;
            none &= keeps_none;
            if !all && !none {
                return Verdict::Scan;
            }
        }
        if all {
            Verdict::Serve
        } else {
            Verdict::Skip
        }
    }

    /// The tick-index range of `segment` inside the `TS` bounds, or `None`
    /// when no tick is.
    fn tick_range(&self, segment: &SegmentView<'_>) -> Option<(usize, usize)> {
        let si = segment.sampling_interval;
        let lo_ts = self.ts_from.max(segment.start_time);
        let hi_ts = self.ts_to.min(segment.end_time);
        if lo_ts > hi_ts {
            return None;
        }
        let idx_lo = ((lo_ts - segment.start_time) + si - 1) / si;
        let idx_hi = (hi_ts - segment.start_time) / si;
        (idx_lo <= idx_hi).then_some((idx_lo as usize, idx_hi as usize))
    }
}

impl<'a> QueryEngine<'a> {
    /// An engine over `catalog`, `registry`, and `store`.
    pub fn new(
        catalog: &'a Catalog,
        registry: &'a ModelRegistry,
        store: &'a dyn SegmentStore,
    ) -> Self {
        Self {
            catalog,
            registry,
            store,
            gid_scope: None,
            rollup_levels: &[],
            rollup_serve: false,
        }
    }

    /// Declares the continuous-aggregate configuration: `levels` must match
    /// the store's rollup feed (empty disables rollups entirely), and
    /// `serve` controls whether whole tiles are answered from the
    /// materialized cells. `serve = false` with non-empty levels keeps the
    /// tiled scan association, so toggling `serve` never changes a single
    /// output bit — only how many segment bodies are read.
    pub fn with_rollups(mut self, levels: &'a [TimeLevel], serve: bool) -> Self {
        self.rollup_levels = levels;
        self.rollup_serve = serve;
        self
    }

    /// Restricts the engine to the given groups: segments of any other gid
    /// are invisible to every query, as if the store did not contain them.
    /// The cluster runtime uses this to serve queries from a worker's
    /// *primary* groups only, so replicated groups are never double-counted
    /// and a store that retains exported groups after a handoff never
    /// resurrects them. An empty scope matches nothing (but listings still
    /// report their column shape).
    pub fn with_gid_scope(mut self, scope: &'a [Gid]) -> Self {
        self.gid_scope = Some(scope);
        self
    }

    /// Parses and executes a SQL string.
    pub fn sql(&self, text: &str) -> Result<QueryResult> {
        let query = crate::sql::parse(text)?;
        self.execute(&query)
    }

    /// Executes a parsed query: the partial of this engine's store,
    /// finalized.
    pub fn execute(&self, query: &Query) -> Result<QueryResult> {
        Self::finalize(query, vec![self.partial(query)?])
    }

    /// The worker half of every query: this store's share of the answer
    /// within the engine's gid scope — the partial aggregation state of an
    /// aggregate (Algorithms 5 and 6's initialize + iterate), the merged
    /// sketches of a sketch query, or a listing's rows per group.
    pub fn partial(&self, query: &Query) -> Result<Partial> {
        match Class::of(query) {
            Class::Sketch => self.sketch_partial(query).map(Partial::Sketch),
            Class::Aggregate => {
                let plan = self.compile(query)?;
                self.plan_partial(&plan).map(Partial::Aggregates)
            }
            Class::Listing => {
                let (columns, rows) = self.list(query)?;
                Ok(Partial::Rows(columns, rows))
            }
        }
    }

    /// The master half of every query (Algorithm 5's `mergeResults` +
    /// `finalize`): merges the partials of any split of the stores — in any
    /// order, to the same bits — and applies ORDER BY and LIMIT. Listing
    /// rows are merged group by group in ascending gid order.
    pub fn finalize(query: &Query, partials: Vec<Partial>) -> Result<QueryResult> {
        let class = Class::of(query);
        let mut sketches = Vec::new();
        let mut aggregates = Vec::new();
        let mut listing: Option<(Vec<String>, GidRows)> = None;
        for partial in partials {
            match (class, partial) {
                (Class::Sketch, Partial::Sketch(sketch)) => sketches.push(sketch),
                (Class::Aggregate, Partial::Aggregates(partial)) => aggregates.push(partial),
                (Class::Listing, Partial::Rows(columns, rows)) => {
                    let (_, merged) = listing.get_or_insert_with(|| (columns, GidRows::new()));
                    for (gid, rows) in rows {
                        merged.entry(gid).or_default().extend(rows);
                    }
                }
                _ => {
                    return Err(MdbError::Query(format!(
                        "a partial of another query class cannot finalize a {class:?} query"
                    )))
                }
            }
        }
        let mut result = match class {
            Class::Sketch => Self::finalize_sketches(query, sketches),
            Class::Aggregate => Self::finalize_aggregates(query, aggregates)?,
            Class::Listing => {
                let (columns, rows) = listing.unwrap_or_default();
                let mut result = QueryResult::new(columns);
                result.rows = rows.into_values().flatten().collect();
                result
            }
        };
        Self::apply_order_limit(&mut result, query)?;
        Ok(result)
    }

    // ------------------------------------------------------- rewriting --

    /// Intersects this engine's gid scope into a rewrite's push-down, so
    /// out-of-scope segments are pruned like any other non-match (a
    /// `Some(vec![])` push-down matches nothing).
    fn apply_scope(&self, rw: &mut Rewritten) {
        if let Some(scope) = self.gid_scope {
            rw.pushdown.gids = Some(match rw.pushdown.gids.take() {
                Some(list) => list.into_iter().filter(|g| scope.contains(g)).collect(),
                None => scope.to_vec(),
            });
        }
    }

    /// The `rewriteQuery` step of Algorithms 5 and 6: Tids and members
    /// become Gids for push-down; per-row filters are kept for the iterate
    /// step because a group may mix series that match and series that don't.
    /// The push-down ignores the engine's gid scope ([`Self::apply_scope`]).
    fn rewrite(&self, query: &Query) -> Result<Rewritten> {
        let mut tids: Option<Vec<Tid>> = None;
        let mut ts_from = i64::MIN;
        let mut ts_to = i64::MAX;
        let mut segment_time = Vec::new();
        let mut values: Option<ValueInterval> = None;
        let mut empty = false;
        for predicate in &query.predicates {
            match predicate {
                Predicate::TidIn(list) => {
                    let set = narrow(tids.take(), list);
                    empty |= set.is_empty();
                    tids = Some(set);
                }
                Predicate::MemberEq { column, value } => {
                    let dimensions = &self.catalog.dimensions;
                    let Some((dim, level)) = dimensions.resolve_level(column) else {
                        return Err(MdbError::Query(format!("unknown column {column}")));
                    };
                    // Narrow the tid set through the inverted index; an
                    // unknown member keeps nothing.
                    let with = match dimensions.member_id(value) {
                        Some(m) => dimensions.tids_with_member(dim, level, m),
                        None => &[],
                    };
                    let set = narrow(tids.take(), with);
                    empty |= set.is_empty();
                    tids = Some(set);
                }
                Predicate::Time { column, op, value } => match column {
                    TimeColumn::Ts => match op {
                        CmpOp::Eq => {
                            ts_from = ts_from.max(*value);
                            ts_to = ts_to.min(*value);
                        }
                        CmpOp::Ge => ts_from = ts_from.max(*value),
                        CmpOp::Le => ts_to = ts_to.min(*value),
                        // No timestamp lies past `i64::MAX` or before
                        // `i64::MIN`: such a bound keeps nothing.
                        CmpOp::Gt => match value.checked_add(1) {
                            Some(from) => ts_from = ts_from.max(from),
                            None => empty = true,
                        },
                        CmpOp::Lt => match value.checked_sub(1) {
                            Some(to) => ts_to = ts_to.min(to),
                            None => empty = true,
                        },
                    },
                    _ => segment_time.push((*column, *op, *value)),
                },
                Predicate::Value { op, value } => {
                    let range = values.unwrap_or(ValueInterval::ALL);
                    values = Some(range.intersection(&admitted(*op, *value)));
                }
            }
        }
        empty |= ts_from > ts_to;
        empty |= values.is_some_and(|range| range.is_empty());

        let mut pushdown = SegmentPredicate {
            gids: tids.as_ref().map(|list| self.catalog.gids_for_tids(list)),
            from: (ts_from != i64::MIN).then_some(ts_from),
            to: (ts_to != i64::MAX).then_some(ts_to),
            ..SegmentPredicate::default()
        };
        // Map the raw-value interval into the *stored* (scaled) domain for
        // the block-statistics push-down: a block can only match if its stored
        // range intersects the union of the candidate series' scaled images.
        // The union is widened by a couple of ulps because this mapping
        // multiplies by the scaling constant while the exact per-point
        // filter divides by it — the two roundings may disagree at the
        // boundary, and pruning must never exclude a point the filter would
        // accept.
        let value_range = values.unwrap_or(ValueInterval::ALL);
        if !empty && value_range != ValueInterval::ALL {
            let scalings: Vec<f64> = match &tids {
                Some(list) => list.iter().map(|t| self.catalog.scaling_of(*t)).collect(),
                None => self.catalog.series.iter().map(|m| m.scaling).collect(),
            };
            let stored = scalings.iter().fold(ValueInterval::EMPTY, |stored, k| {
                stored.union(&value_range.scaled(*k))
            });
            pushdown.values = Some(stored.widened());
        }
        // Sound push-down from segment-time comparisons. A segment starts
        // no later than it ends, so one that starts at or after `v` also
        // ends at or after it: `StartTime >= v` prunes like `EndTime >= v`.
        for &(column, op, value) in &segment_time {
            let (lower, upper) = match op {
                CmpOp::Ge | CmpOp::Gt => (true, false),
                CmpOp::Le | CmpOp::Lt => (false, true),
                CmpOp::Eq => (true, true),
            };
            if lower {
                pushdown.from = Some(pushdown.from.map_or(value, |f| f.max(value)));
            }
            if upper {
                let bound = match column {
                    TimeColumn::StartTime => &mut pushdown.to,
                    _ => &mut pushdown.ends_by,
                };
                *bound = Some(bound.map_or(value, |b| b.min(value)));
            }
        }
        Ok(Rewritten {
            tids,
            ts_from,
            ts_to,
            segment_time,
            values,
            pushdown,
            empty,
        })
    }

    // ------------------------------------------------ aggregate (Alg 5) --

    /// Compiles an aggregate query once: validates it, rewrites its WHERE
    /// clause, chooses the representation that answers it — a tiling or a
    /// plain scan — and resolves every tid it keeps to a group-key slot (so
    /// an unknown GROUP BY column is an error whatever the data). The gid
    /// scope is applied later, by [`QueryEngine::plan_partial`].
    ///
    /// A Segment View aggregate is tiled at the maintained rollup levels
    /// (for `CUBE_*`, those no coarser than its own, so tiles lie inside its
    /// output buckets), with the finest of them as the edge level. A
    /// `Value`-filtered one is tiled by that finest level alone: its tiles
    /// are decided per `(tid, tile)` from the cells' extremes, and a
    /// coarser cell almost always straddles a threshold. The tiling depends
    /// on the query's `TS` range, its filter's presence and the levels
    /// alone; which tiles the store then serves, skips or scans
    /// ([`QueryEngine::plan_partial`]) never moves a bit. A `CUBE_*` query
    /// on the Data Point View, or finer than every level, is tiled by its
    /// own level's buckets; any other aggregate is a plain scan.
    fn compile(&self, query: &Query) -> Result<Plan> {
        let cubes: Vec<Option<TimeLevel>> = query
            .items
            .iter()
            .filter_map(|i| match i {
                SelectItem::Agg { cube, .. } => Some(*cube),
                _ => None,
            })
            .collect();
        let cube = cubes.iter().copied().flatten().next();
        if cubes.iter().any(|c| c.is_some() && *c != cube) {
            return Err(MdbError::Query(
                "only one CUBE time level per query is supported".into(),
            ));
        }
        if cube.is_some() && cubes.contains(&None) {
            return Err(MdbError::Query(
                "cannot mix CUBE_* and plain aggregates".into(),
            ));
        }
        // Validate plain columns appear in GROUP BY.
        for item in &query.items {
            if let SelectItem::Column(c) = item {
                if !query.group_by.iter().any(|g| g.eq_ignore_ascii_case(c)) {
                    return Err(MdbError::Query(format!(
                        "column {c} must appear in GROUP BY when aggregating"
                    )));
                }
            }
        }

        let rw = self.rewrite(query)?;
        let keys = Arc::new(self.key_plan(query, &rw)?);
        // Rollup cells fold the Segment View's model aggregates.
        let mut levels: Vec<TimeLevel> = Vec::new();
        if query.view == View::Segment {
            let coarsest = cube.map_or(0, level_tag);
            let eligible = self.rollup_levels.iter().copied();
            levels.extend(eligible.filter(|l| level_tag(*l) >= coarsest));
            if rw.values.is_some() {
                levels = mdb_storage::rollup::finest_level(&levels)
                    .into_iter()
                    .collect();
            }
        }
        let edge = mdb_storage::rollup::finest_level(&levels).or(cube);
        let counts = !query
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Agg { func, .. } if *func != AggFunc::Count));
        Ok(Plan {
            tiling: edge.map(|edge| Tiling::new(rw.ts_from, rw.ts_to, &levels, edge)),
            counts_only: counts && query.view == View::Segment && rw.values.is_none(),
            rw,
            keys,
            use_models: query.view == View::Segment,
        })
    }

    /// Resolves the GROUP BY columns, then every tid the rewrite keeps to
    /// its key row, numbering the distinct rows in ascending order.
    fn key_plan(&self, query: &Query, rw: &Rewritten) -> Result<KeyPlan> {
        let dimensions = &self.catalog.dimensions;
        // `None` is the Tid column.
        let columns = query
            .group_by
            .iter()
            .map(|column| {
                if column.eq_ignore_ascii_case("tid") {
                    return Ok(None);
                }
                dimensions
                    .resolve_level(column)
                    .map(Some)
                    .ok_or_else(|| MdbError::Query(format!("unknown GROUP BY column {column}")))
            })
            .collect::<Result<Vec<_>>>()?;
        let key_row = |tid: Tid| -> Vec<KeyCell> {
            let cell = |&(dim, level)| {
                let member = dimensions.member(tid, dim, level);
                KeyCell::Str(member.map_or_else(String::new, |m| dimensions.member_name(m).into()))
            };
            columns
                .iter()
                .map(|c| c.as_ref().map_or(KeyCell::Int(i64::from(tid)), cell))
                .collect()
        };
        let tids = self.catalog.groups.iter().flat_map(|g| &g.tids);
        let kept = tids.filter(|&&tid| !rw.empty && rw.keeps(tid));
        let mut keyed: Vec<(Vec<KeyCell>, Tid)> = kept.map(|&tid| (key_row(tid), tid)).collect();
        keyed.sort();
        let max_tid = keyed.iter().map(|&(_, tid)| tid as usize + 1).max();
        let mut plan = KeyPlan {
            by_tid: vec![None; max_tid.unwrap_or(0)],
            rows: Vec::new(),
        };
        for (row, tid) in keyed {
            if plan.rows.last() != Some(&row) {
                plan.rows.push(row);
            }
            let slot = (plan.rows.len() - 1) as u32;
            plan.by_tid[tid as usize] = Some((slot, self.catalog.scaling_of(tid)));
        }
        Ok(plan)
    }

    /// The worker half of Algorithms 5 and 6: initialize + iterate over the
    /// local store within this engine's gid scope, folding every segment
    /// into one partial. A tiled plan takes the whole tiles the store
    /// serves from its rollup cells (`serve_tiles`), scans the spans left
    /// for every series, then the straddling tiles of a `Value` filter for
    /// their series only; with serving off, or no level to serve, it scans
    /// the whole range with the same tile splits. A `Value`-filtered plan
    /// is served only when every registered model promises attained
    /// extremes ([`mdb_models::ModelType::attained_extremes`]), which is
    /// what makes a cell's `MIN`/`MAX` its points' own.
    fn plan_partial(&self, plan: &Plan) -> Result<PartialAggregates> {
        let mut rw = plan.rw.clone();
        self.apply_scope(&mut rw);
        let mut partial = PartialAggregates::new(&plan.keys);
        if rw.empty {
            return Ok(partial);
        }
        let serve = self.rollup_serve && (rw.values.is_none() || self.registry.attained_extremes());
        match &plan.tiling {
            Some(tiling) if serve && tiling.has_levels() => {
                let (spans, straddles) = self.serve_tiles(plan, &rw, tiling, &mut partial)?;
                for (lo, hi) in spans {
                    merge_partials(&mut partial, self.scan(plan, &rw.within(lo, hi), None)?);
                }
                if let Some(index) = straddles {
                    let (lo, hi) = index.hull();
                    let scanned = self.scan(plan, &rw.within(lo, hi), Some(&index))?;
                    merge_partials(&mut partial, scanned);
                }
                Ok(partial)
            }
            _ => self.scan(plan, &rw, None),
        }
    }

    /// Answers the whole tiles of `tiling` the store can serve from its
    /// rollup cells — per-(tid, tile) terms straight from the cells, no
    /// segment body read — and returns what is left to scan: the spans
    /// every series scans, merged where they touch — the edge tiles, every
    /// tile of a level the store cannot serve (no rollup feed, a poisoned
    /// cell set, the level not materialized), and the tiles a segment-time
    /// comparison cuts through — and the tiles only some series scan.
    ///
    /// Each whole tile gets a [`Verdict`]. Under `StartTime`/`EndTime`
    /// comparisons one per tile, from the time envelopes of the log blocks
    /// and the write buffer ([`SegmentStore::segment_envelopes`]): served
    /// when every segment that meets it passes, skipped when none does,
    /// scanned with the comparisons otherwise. Under a `Value` filter, a
    /// served tile then gets one per tid from its cell's extremes
    /// ([`value_verdict`]): served when every point passes, skipped when
    /// none does, and otherwise scanned for that tid alone: the tile joins
    /// its group's [`TileIndex`] entry with the tid's member bit set. A
    /// served tile's cell folds exactly the terms its scan would (a scanned
    /// sub-range whose every point passes contributes its unfiltered term),
    /// and a skipped one's scan would fold none, so no verdict moves a bit.
    ///
    /// The store hands the cells over one `(gid, tid)` column at a time, so
    /// each tid is looked up, and its member position resolved, once per
    /// column; a plan without either comparison takes a column whole.
    fn serve_tiles(
        &self,
        plan: &Plan,
        rw: &Rewritten,
        tiling: &Tiling,
        partial: &mut PartialAggregates,
    ) -> Result<(Vec<Span>, Option<TileIndex>)> {
        let gids = rw.pushdown.gids.as_deref();
        let (regions, mut scans) = tiling.regions();
        let mut envelopes = Vec::new();
        if !rw.segment_time.is_empty() {
            let listed =
                self.store
                    .segment_envelopes(gids, (rw.ts_from, rw.ts_to), &mut |envelope| {
                        envelopes.push(*envelope)
                    })?;
            if !listed {
                return Ok((vec![(rw.ts_from, rw.ts_to)], None));
            }
        }
        let mut straddles: Vec<(usize, Span, u64)> = Vec::new();
        let mut stray = None;
        for (level, span) in regions {
            let served_before: Vec<usize> = partial.cells.iter().map(Vec::len).collect();
            let straddled_before = straddles.len();
            let mut verdicts: BTreeMap<Timestamp, Verdict> = BTreeMap::new();
            let served = self.store.rollup_cells(level, gids, span, &mut |column| {
                let ((gid, _, tid, _), _) = column[0];
                if plan.keys.lookup(tid).is_none() {
                    return;
                }
                let cells = &mut partial.cells[tid as usize];
                if rw.segment_time.is_empty() && rw.values.is_none() {
                    cells.extend(column.iter().map(|&((.., tile), acc)| (tile, acc)));
                    return;
                }
                // The tid's group and its bit in the straddles' member
                // masks, resolved once per column.
                let mut member = None;
                for &((.., tile), acc) in column {
                    if !rw.segment_time.is_empty() {
                        let verdict = *verdicts.entry(tile).or_insert_with(|| {
                            rw.verdict(&envelopes, (tile, bucket_end(level, tile)))
                        });
                        if verdict != Verdict::Serve {
                            continue;
                        }
                    }
                    match rw
                        .values
                        .map_or(Verdict::Serve, |f| value_verdict(&f, &acc))
                    {
                        Verdict::Serve => cells.push((tile, acc)),
                        Verdict::Skip => {}
                        Verdict::Scan => {
                            let member = *member.get_or_insert_with(|| {
                                let group = self.catalog.group_index(gid)?;
                                let tids = &self.catalog.groups[group].tids;
                                Some((group, tids.iter().position(|&t| t == tid)?))
                            });
                            let Some((group, position)) = member else {
                                stray = Some((gid, tid));
                                return;
                            };
                            let span = (tile, bucket_end(level, tile));
                            straddles.push((group, span, 1 << position));
                        }
                    }
                }
            })?;
            if let Some((gid, tid)) = stray {
                return Err(MdbError::Corrupt(format!(
                    "rollup cells of tid {tid} filed under gid {gid}, which does not hold it"
                )));
            }
            if !served {
                for (column, len) in partial.cells.iter_mut().zip(served_before) {
                    column.truncate(len);
                }
                straddles.truncate(straddled_before);
                scans.push(span);
                continue;
            }
            let cut = verdicts.into_iter().filter(|(_, v)| *v == Verdict::Scan);
            scans.extend(cut.map(|(tile, _)| (tile, bucket_end(level, tile))));
        }
        // Cells arrive in ascending tile order per level; the levels'
        // regions interleave in time.
        for column in &mut partial.cells {
            if !column.is_sorted_by_key(|e| e.0) {
                column.sort_unstable_by_key(|e| e.0);
            }
        }
        scans.sort_unstable();
        let mut merged: Vec<Span> = Vec::with_capacity(scans.len());
        for (lo, hi) in scans {
            match merged.last_mut() {
                Some(last) if last.1.checked_add(1) == Some(lo) => last.1 = hi,
                _ => merged.push((lo, hi)),
            }
        }
        Ok((merged, TileIndex::new(straddles, self.catalog.groups.len())))
    }

    /// Folds the segments of the runs `rw` selects into a fresh partial,
    /// inline and in scan order, each run as the store hands it over. With
    /// `only`, a segment is evaluated just in its group's straddling tiles,
    /// and there only for the members each tile's mask names.
    ///
    /// The store's per-block statistics have already skipped whole blocks
    /// outside the scope, time range or value predicate. A block-backed run
    /// shares its cached block, so its segments are evaluated as borrowed
    /// views, and the block may leave the cache once its run is folded.
    fn scan(
        &self,
        plan: &Plan,
        rw: &Rewritten,
        only: Option<&TileIndex>,
    ) -> Result<PartialAggregates> {
        let scan = Scan { plan, rw, only };
        let mut partial = PartialAggregates::new(&plan.keys);
        let mut scratch = Scratch {
            cursors: vec![0; only.map_or(0, |only| only.by_group.len())],
            ..Scratch::default()
        };
        self.for_each_segment(&rw.pushdown, |segment| {
            self.iterate_segment(&scan, segment, &mut scratch, &mut partial)
        })?;
        Ok(partial)
    }

    /// Calls `f` on every segment of the runs `predicate` selects, in scan
    /// order, each run as the store hands it over. The first error stops
    /// the walk and is returned.
    fn for_each_segment(
        &self,
        predicate: &SegmentPredicate,
        mut f: impl FnMut(SegmentView<'_>) -> Result<()>,
    ) -> Result<()> {
        let mut scan_error = None;
        self.store.scan_runs(predicate, &mut |run| {
            if scan_error.is_some() {
                return;
            }
            for segment in run.segments() {
                if let Err(e) = f(segment) {
                    scan_error = Some(e);
                    break;
                }
            }
        })?;
        scan_error.map_or(Ok(()), Err)
    }

    // ------------------------------------------------ sketch functions --

    /// Validates a sketch query. Sketches summarize *everything stored* —
    /// they cannot be filtered or grouped after the fact — so WHERE, GROUP
    /// BY, and mixing with other select items are rejected rather than
    /// silently ignored.
    fn validate_sketch(query: &Query) -> Result<()> {
        let mut top_k = false;
        for item in &query.items {
            match item {
                SelectItem::Sketch(func) => top_k |= matches!(func, SketchFunc::TopK(_)),
                other => {
                    return Err(MdbError::Query(format!(
                        "sketch functions cannot be mixed with {other:?}"
                    )))
                }
            }
        }
        if query.view != View::Segment {
            return Err(MdbError::Query(
                "sketch functions require FROM Segment".into(),
            ));
        }
        if !query.predicates.is_empty() {
            return Err(MdbError::Query(
                "sketch functions summarize the whole store; WHERE is not supported".into(),
            ));
        }
        if !query.group_by.is_empty() {
            return Err(MdbError::Query(
                "sketch functions do not support GROUP BY".into(),
            ));
        }
        if top_k && query.items.len() > 1 {
            return Err(MdbError::Query(
                "TOP_K_S returns one row per series and must be the only select item".into(),
            ));
        }
        Ok(())
    }

    /// The worker half of a sketch query: validate it, then merge the
    /// store's per-group sketches (restricted to the engine's gid scope)
    /// **without touching segment bodies**. Erroring instead of falling
    /// back to a scan is deliberate: sketch functions promise metadata-only
    /// cost, and a store that cannot honor that (no feed, or an unsketchable
    /// segment) must say so rather than silently change its complexity
    /// class.
    fn sketch_partial(&self, query: &Query) -> Result<BlockSketch> {
        Self::validate_sketch(query)?;
        self.store.merge_sketches(self.gid_scope)?.ok_or_else(|| {
            MdbError::Query(
                "sketch functions need a sketch-maintaining store \
                 (no sketch feed configured, or a segment could not be sketched)"
                    .into(),
            )
        })
    }

    /// The master half: merge worker sketch partials and evaluate the
    /// functions (the query was validated by [`QueryEngine::sketch_partial`]).
    /// Sketch merging is commutative and associative, so any partial order
    /// and nesting yields the same result — the property the cluster relies
    /// on for identical answers at every rf and worker count.
    fn finalize_sketches(query: &Query, partials: Vec<BlockSketch>) -> QueryResult {
        let funcs: Vec<&SketchFunc> = query
            .items
            .iter()
            .filter_map(|i| match i {
                SelectItem::Sketch(func) => Some(func),
                _ => None,
            })
            .collect();
        let mut merged = BlockSketch::new();
        for partial in &partials {
            merged.merge(partial);
        }
        if let [SketchFunc::TopK(k)] = funcs.as_slice() {
            let name = SketchFunc::TopK(*k).column_name();
            let mut result = QueryResult::new(vec!["Tid".into(), name]);
            for (tid, count) in merged.topk.top_k(*k) {
                result
                    .rows
                    .push(vec![Cell::Int(i64::from(tid)), Cell::Int(count as i64)]);
            }
            return result;
        }
        let mut result = QueryResult::new(funcs.iter().map(|f| f.column_name()).collect());
        let row = funcs
            .iter()
            .map(|func| match func {
                SketchFunc::Pctl(q) => match merged.quantiles.quantile(*q) {
                    Some(v) => Cell::Float(v),
                    None => Cell::Null,
                },
                SketchFunc::CountDistinct => Cell::Int(merged.distinct.estimate().round() as i64),
                SketchFunc::TopK(_) => unreachable!("TOP_K_S handled above"),
            })
            .collect();
        result.rows.push(row);
        result
    }

    // -------------------------------------------- iterate (Algs 5, 6) --

    /// The `iterate` step over one segment (a borrowed view — block-backed
    /// segments are evaluated straight out of the cached buffer).
    fn iterate_segment(
        &self,
        scan: &Scan<'_>,
        segment: SegmentView<'_>,
        scratch: &mut Scratch,
        partial: &mut PartialAggregates,
    ) -> Result<()> {
        let (rw, plan) = (scan.rw, scan.plan);
        if !rw.segment_time_matches(&segment) {
            return Ok(());
        }
        let g = self.catalog.group_index(segment.gid).ok_or_else(|| {
            MdbError::Corrupt(format!("segment references unknown gid {}", segment.gid))
        })?;
        // A scan of straddling tiles passes by a segment that meets none of
        // its group's before any per-series work.
        let straddles = match scan.only {
            Some(only) => {
                let span = (segment.start_time, segment.end_time);
                let Some(tiles) = only.meets(g, span, &mut scratch.cursors) else {
                    return Ok(());
                };
                Some(tiles)
            }
            None => None,
        };
        let (grid, splits) = (&mut scratch.grid, &mut scratch.splits);
        let group = &self.catalog.groups[g];
        let group_size = group.size();
        let n_present = segment.gaps.count_present(group_size);
        let mut cursor = SegmentCursor::new(segment, n_present, grid);
        if let Some(tiles) = straddles {
            return self.walk_straddles(scan, &mut cursor, &group.tids, tiles, partial);
        }
        let Some(range) = rw.tick_range(&segment) else {
            return Ok(());
        };
        // Algorithm 6: split the tick range at tile boundaries, once for
        // every series; each sub-range lands in its own (tid, tile start)
        // entry — the granularity rollup cells are materialized at.
        splits.clear();
        if let Some(tiling) = &plan.tiling {
            let si = segment.sampling_interval;
            splits.extend(tiling.splits(segment.start_time, si, range));
        }

        for (series_pos, member_pos) in segment.gaps.present_positions(group_size).enumerate() {
            let tid = group.tids[member_pos];
            let Some((slot, scaling)) = plan.keys.lookup(tid) else {
                continue;
            };
            if plan.tiling.is_none() {
                let term = self.range_term(scan, &mut cursor, series_pos, range, scaling, false)?;
                if term.count > 0 {
                    partial.slots[slot]
                        .get_or_insert_with(Accumulator::new)
                        .add(&term);
                }
            }
            for &(tile, sub) in splits.iter() {
                let whole = plan.tiling.as_ref().is_some_and(|t| t.is_whole(tile));
                let term = self.range_term(scan, &mut cursor, series_pos, sub, scaling, whole)?;
                if term.count > 0 {
                    partial.add_tile_term(tid, tile, term);
                }
            }
        }
        Ok(())
    }

    /// The straddle walk of a segment whose group's `tiles` it meets
    /// ([`TileIndex::meets`]), `tids` the group's members: per tile, the
    /// segment's ticks inside it (every straddling tile lies inside the
    /// scan's `TS` window), and one term for each member its mask names
    /// that the segment represents — the terms the tile splits of a full
    /// scan give those members there.
    fn walk_straddles(
        &self,
        scan: &Scan<'_>,
        cursor: &mut SegmentCursor<'_, '_>,
        tids: &[Tid],
        tiles: &[(Span, u64)],
        partial: &mut PartialAggregates,
    ) -> Result<()> {
        let segment = cursor.segment;
        let (start, si) = (segment.start_time, segment.sampling_interval);
        let gaps = segment.gaps.0;
        let met = tiles
            .iter()
            .take_while(|((lo, _), _)| *lo <= segment.end_time);
        for &((lo, hi), members) in met {
            let first = (lo.max(start) - start + si - 1) / si;
            let last = (hi.min(segment.end_time) - start) / si;
            if first > last {
                continue;
            }
            let sub = (first as usize, last as usize);
            let mut present = members & !gaps;
            while present != 0 {
                let member_pos = present.trailing_zeros();
                present &= present - 1;
                // Its series position: the members present before it.
                let missing_before = (gaps & ((1 << member_pos) - 1)).count_ones();
                let series_pos = (member_pos - missing_before) as usize;
                let tid = tids[member_pos as usize];
                let Some((_, scaling)) = scan.plan.keys.lookup(tid) else {
                    continue;
                };
                // A straddling tile is a whole cell.
                let term = self.range_term(scan, cursor, series_pos, sub, scaling, true)?;
                if term.count > 0 {
                    partial.add_tile_term(tid, lo, term);
                }
            }
        }
        Ok(())
    }

    /// The term of the series at `series_pos` over the tick `range`: its
    /// model aggregate, or under a `Value` filter the points that pass
    /// (possibly none). A count-only plan's term is the range's length
    /// alone, so a segment whose parameters do not decode is still
    /// counted. On the Segment View, which may use the models, a monotone
    /// model answers the filter from the sub-range where its values lie in
    /// it ([`SegmentCursor::crossing_term`]), and a series whose closed
    /// form misses the filter has no point that passes. Any other series
    /// is reconstructed from the grid and its passing points folded in
    /// tick order — except that in a `whole` tile, a range whose every
    /// point passes a model with attained extremes contributes its
    /// unfiltered term, the term the tile's rollup cell folds.
    fn range_term(
        &self,
        scan: &Scan<'_>,
        cursor: &mut SegmentCursor<'_, '_>,
        series_pos: usize,
        range: (usize, usize),
        scaling: f64,
        whole: bool,
    ) -> Result<RollupAcc> {
        let undecodable = || MdbError::Corrupt("undecodable segment".into());
        let len = (range.1 - range.0 + 1) as u64;
        let Some(filter) = &scan.rw.values else {
            if scan.plan.counts_only {
                return Ok(RollupAcc {
                    count: len,
                    ..EMPTY_TERM
                });
            }
            let agg = cursor
                .aggregate_with(self.registry, series_pos, range, scan.plan.use_models)
                .ok_or_else(undecodable)?;
            return Ok(term(agg, len, scaling));
        };
        let mut closed = None;
        if scan.plan.use_models {
            if let Some(term) =
                cursor.crossing_term(self.registry, series_pos, range, filter, scaling)
            {
                return Ok(term);
            }
            closed = cursor.model_agg(self.registry, series_pos, range);
            if closed.is_some_and(|agg| excludes(filter, agg, scaling)) {
                return Ok(EMPTY_TERM);
            }
        }
        let model = self.registry.get(cursor.segment.mid);
        let cell_term = whole && model.is_some_and(|model| model.attained_extremes());
        let stride = cursor.n_series;
        let grid = cursor.grid(self.registry).ok_or_else(undecodable)?;
        let rows = &grid[range.0 * stride..(range.1 + 1) * stride];
        let mut passing = EMPTY_TERM;
        // For the cell's term: every point, folded as `grid_aggregate`
        // folds it.
        let mut all = SegmentAgg {
            sum: 0.0,
            min: Value::INFINITY,
            max: Value::NEG_INFINITY,
        };
        for &stored in rows.iter().skip(series_pos).step_by(stride) {
            if cell_term {
                all.sum += f64::from(stored);
                all.min = all.min.min(stored);
                all.max = all.max.max(stored);
            }
            let v = f64::from(stored) / scaling;
            if filter.contains(v) {
                passing.count += 1;
                passing.sum += v;
                passing.min = passing.min.min(v);
                passing.max = passing.max.max(v);
            }
        }
        // The unfiltered term — the closed form where there is one, as the
        // unfiltered scan and the rollup cells take it.
        if cell_term && passing.count == len {
            return Ok(term(closed.unwrap_or(all), len, scaling));
        }
        Ok(passing)
    }

    /// The master half: merge worker partials and finalize (Algorithm 5's
    /// `mergeResults` + `finalize`).
    fn finalize_aggregates(query: &Query, partials: Vec<PartialAggregates>) -> Result<QueryResult> {
        let cube = query.items.iter().find_map(|i| match i {
            SelectItem::Agg { cube, .. } => *cube,
            _ => None,
        });
        let mut merged = PartialAggregates::default();
        for partial in partials {
            merge_partials(&mut merged, partial);
        }
        let PartialAggregates {
            keys,
            slots,
            cells: served,
            tiles,
            ..
        } = merged;

        // `(slot, time part)` → accumulator, in output order (slots are
        // numbered in key order; the part is 0 without CUBE).
        let mut folded: BTreeMap<(usize, i64), Accumulator> = BTreeMap::new();
        for (slot, acc) in slots.into_iter().enumerate() {
            if let Some(acc) = acc {
                folded.insert((slot, 0), acc);
            }
        }
        // Tile terms — each the fold of its terms in scan order, as a
        // rollup cell is — fold in ascending (tid, tile) order, the same on
        // every path that produces them (cells, scans, any cluster layout,
        // since a tid lives in one group and a group's segments are scanned
        // in insertion order). The tile start becomes the CUBE date-part (a
        // tile lies inside one output bucket), or folds away; a tid's run
        // of tiles in one part folds without another lookup.
        let mut cells: BTreeMap<(usize, i64), RollupAcc> = BTreeMap::new();
        for (tid, (served, scanned)) in served.iter().zip(&tiles).enumerate() {
            let mut entries = in_tile_order(served, scanned).peekable();
            while let Some(&(tile, first)) = entries.next() {
                let (slot, _) = keys
                    .lookup(tid as Tid)
                    .expect("tile terms hold only tids the key plan keeps");
                let part = cube.map_or(0, |level| time::part(level, tile));
                let cell = match cells.entry((slot, part)) {
                    Entry::Occupied(mine) => {
                        let cell = mine.into_mut();
                        cell.merge(&first);
                        cell
                    }
                    Entry::Vacant(vacant) => vacant.insert(first),
                };
                let same_part = |e: &&(Timestamp, RollupAcc)| {
                    cube.is_none_or(|level| time::part(level, e.0) == part)
                };
                while let Some((_, term)) = entries.next_if(same_part) {
                    cell.merge(term);
                }
            }
        }
        for (key, cell) in cells {
            folded.entry(key).or_default().add(&cell);
        }

        // Column layout: SELECT order, with the implicit time-part column
        // inserted before the first CUBE aggregate.
        let mut columns = Vec::new();
        for item in &query.items {
            match item {
                SelectItem::Column(c) => columns.push(c.clone()),
                SelectItem::Agg { func, cube } => {
                    if let Some(level) = cube {
                        let level_name = format!("{level:?}");
                        if !columns
                            .iter()
                            .any(|c: &String| c.eq_ignore_ascii_case(&level_name))
                        {
                            columns.push(level_name);
                        }
                        columns.push(format!("CUBE_{:?}_{:?}(*)", func, level).to_uppercase());
                    } else {
                        columns.push(format!("{func:?}_S(*)").to_uppercase());
                    }
                }
                SelectItem::AllColumns => {
                    return Err(MdbError::Query(
                        "SELECT * cannot be combined with aggregates".into(),
                    ));
                }
                SelectItem::Sketch(_) => unreachable!("sketch queries finalize from sketches"),
            }
        }
        let mut result = QueryResult::new(columns);

        for ((slot, part), acc) in folded {
            let key = &keys.rows[slot];
            let mut row = Vec::new();
            let mut key_idx = 0;
            let mut first_agg = true;
            for item in &query.items {
                match item {
                    SelectItem::Column(_) => {
                        row.push(key[key_idx].to_cell());
                        key_idx += 1;
                    }
                    SelectItem::Agg { func, .. } => {
                        if cube.is_some() && first_agg {
                            row.push(Cell::Int(part));
                        }
                        first_agg = false;
                        match acc.finalize(*func) {
                            Some(v) if *func == AggFunc::Count => row.push(Cell::Int(v as i64)),
                            Some(v) => row.push(Cell::Float(v)),
                            None => row.push(Cell::Null),
                        }
                    }
                    SelectItem::AllColumns | SelectItem::Sketch(_) => {
                        unreachable!("rejected while laying out columns")
                    }
                }
            }
            result.rows.push(row);
        }
        Ok(result)
    }

    // ------------------------------------------------------- listing --

    /// The non-aggregate path — Segment View listing or Data Point View
    /// reconstruction (the P/R workload) — from one walk of the store: the
    /// listing's columns, and each group's rows in scan order. Groups
    /// without a row are left out.
    fn list(&self, query: &Query) -> Result<(Vec<String>, GidRows)> {
        let mut rw = self.rewrite(query)?;
        self.apply_scope(&mut rw);
        if query.view == View::Segment && rw.values.is_some() {
            return Err(MdbError::Query(
                "Value predicates require the Data Point View or aggregates".into(),
            ));
        }
        let (names, columns) = self.listing_columns(query)?;
        let mut rows = GidRows::new();
        if rw.empty {
            return Ok((names, rows));
        }
        let mut grid = Vec::new();
        self.for_each_segment(&rw.pushdown, |segment| {
            let rows = rows.entry(segment.gid).or_default();
            self.list_segment(query, &rw, &columns, segment, &mut grid, rows)
        })?;
        rows.retain(|_, rows| !rows.is_empty());
        Ok((names, rows))
    }

    /// The listing's column names, and what each lists.
    fn listing_columns(&self, query: &Query) -> Result<(Vec<String>, Vec<Column>)> {
        let fixed: &[&str] = match query.view {
            View::Segment => &["Tid", "StartTime", "EndTime", "SI", "Mid", "Gaps"],
            View::DataPoint => &["Tid", "TS", "Value"],
        };
        let schemas = self.catalog.dimensions.schemas();
        let levels = schemas
            .iter()
            .flat_map(|s| (1..=s.height()).filter_map(|l| s.level_name(l)));
        let base: Vec<&str> = fixed.iter().copied().chain(levels).collect();
        let mut names = Vec::new();
        for item in &query.items {
            match item {
                SelectItem::AllColumns => names.extend(base.iter().map(|b| b.to_string())),
                SelectItem::Column(c) => {
                    let canonical = base
                        .iter()
                        .find(|b| b.eq_ignore_ascii_case(c))
                        .ok_or_else(|| MdbError::Query(format!("unknown column {c}")))?;
                    names.push(canonical.to_string());
                }
                SelectItem::Agg { .. } | SelectItem::Sketch(_) => {
                    unreachable!("listing path has no aggregates or sketches")
                }
            }
        }
        let resolve = |name: &String| self.resolve_column(query.view, name);
        let columns = names.iter().map(resolve).collect::<Result<_>>()?;
        Ok((names, columns))
    }

    /// What the listing column `name` lists on `view`.
    fn resolve_column(&self, view: View, name: &str) -> Result<Column> {
        Ok(match (view, name.to_ascii_uppercase().as_str()) {
            (_, "TID") => Column::Tid,
            (View::Segment, "STARTTIME") => Column::StartTime,
            (View::Segment, "ENDTIME") => Column::EndTime,
            (View::Segment, "SI") => Column::Si,
            (View::Segment, "MID") => Column::Mid,
            (View::Segment, "GAPS") => Column::Gaps,
            (View::DataPoint, "TS") => Column::Ts,
            (View::DataPoint, "VALUE") => Column::Value,
            _ => match self.catalog.dimensions.resolve_level(name) {
                Some((dim, level)) => Column::Member(dim, level),
                None => return Err(MdbError::Query(format!("unknown column {name}"))),
            },
        })
    }

    /// Lists one segment's rows, reconstructing into `grid`.
    fn list_segment(
        &self,
        query: &Query,
        rw: &Rewritten,
        columns: &[Column],
        segment: SegmentView<'_>,
        grid: &mut Vec<Value>,
        rows: &mut Vec<Vec<Cell>>,
    ) -> Result<()> {
        if !rw.segment_time_matches(&segment) {
            return Ok(());
        }
        let group = self.catalog.group(segment.gid).ok_or_else(|| {
            MdbError::Corrupt(format!("segment references unknown gid {}", segment.gid))
        })?;
        let group_size = group.size();
        let n_present = segment.gaps.count_present(group_size);
        let mut cursor = SegmentCursor::new(segment, n_present, grid);
        for (series_pos, member_pos) in segment.gaps.present_positions(group_size).enumerate() {
            let tid = group.tids[member_pos];
            if !rw.keeps(tid) {
                continue;
            }
            let scaling = self.catalog.scaling_of(tid);
            match query.view {
                View::Segment => {
                    let cell = |&c| self.listing_cell(c, tid, &segment, (0, f64::NAN));
                    rows.push(columns.iter().map(cell).collect());
                }
                View::DataPoint => {
                    let Some((idx_lo, idx_hi)) = rw.tick_range(&segment) else {
                        continue;
                    };
                    let si = segment.sampling_interval;
                    let grid = cursor
                        .grid(self.registry)
                        .ok_or_else(|| MdbError::Corrupt("undecodable segment".into()))?;
                    for idx in idx_lo..=idx_hi {
                        let ts = segment.start_time + idx as i64 * si;
                        let value = f64::from(grid[idx * n_present + series_pos]) / scaling;
                        if rw.values.is_some_and(|filter| !filter.contains(value)) {
                            continue;
                        }
                        let cell = |&c| self.listing_cell(c, tid, &segment, (ts, value));
                        rows.push(columns.iter().map(cell).collect());
                    }
                }
            }
        }
        Ok(())
    }

    /// The `column` cell of `tid`'s row for `segment`, at the data point
    /// `(ts, value)` on the Data Point View (no Segment View column
    /// resolves to either).
    fn listing_cell(
        &self,
        column: Column,
        tid: Tid,
        segment: &SegmentView<'_>,
        (ts, value): (Timestamp, f64),
    ) -> Cell {
        let dimensions = &self.catalog.dimensions;
        match column {
            Column::Tid => Cell::Int(i64::from(tid)),
            Column::StartTime => Cell::Timestamp(segment.start_time),
            Column::EndTime => Cell::Timestamp(segment.end_time),
            Column::Si => Cell::Int(segment.sampling_interval),
            Column::Mid => Cell::Int(i64::from(segment.mid)),
            Column::Gaps => Cell::Int(segment.gaps.count_missing() as i64),
            Column::Ts => Cell::Timestamp(ts),
            Column::Value => Cell::Float(value),
            Column::Member(dim, level) => match dimensions.member(tid, dim, level) {
                Some(m) => Cell::Str(dimensions.member_name(m).to_string()),
                None => Cell::Null,
            },
        }
    }

    /// Applies ORDER BY and LIMIT to a merged result.
    fn apply_order_limit(result: &mut QueryResult, query: &Query) -> Result<()> {
        if let Some((column, desc)) = &query.order_by {
            let idx = result
                .column_index(column)
                .ok_or_else(|| MdbError::Query(format!("unknown ORDER BY column {column}")))?;
            result.rows.sort_by(|a, b| {
                let ord = compare_cells(&a[idx], &b[idx]);
                if *desc {
                    ord.reverse()
                } else {
                    ord
                }
            });
        }
        if let Some(limit) = query.limit {
            result.rows.truncate(limit);
        }
        Ok(())
    }
}

/// Merges `from` after `into` (Algorithm 5's `mergeResults`): into an empty
/// partial it moves in whole, otherwise slot by slot — in any order to the
/// same bits — and tile by tile, `from`'s terms after `into`'s. Both must
/// come from the same query's plans.
fn merge_partials(into: &mut PartialAggregates, from: PartialAggregates) {
    if into.slots.is_empty() && into.cells.is_empty() {
        *into = from;
        return;
    }
    for (mine, theirs) in into.slots.iter_mut().zip(from.slots) {
        match (mine, theirs) {
            (Some(mine), Some(theirs)) => mine.merge(&theirs),
            (mine, theirs @ Some(_)) => *mine = theirs,
            (_, None) => {}
        }
    }
    for (mine, theirs) in into.cells.iter_mut().zip(from.cells) {
        merge_column(mine, theirs);
    }
    for (mine, theirs) in into.tiles.iter_mut().zip(from.tiles) {
        merge_column(mine, theirs);
    }
}

/// The entries of two columns in ascending tile order, `a`'s first on a tie.
fn in_tile_order<'c>(
    a: &'c TileColumn,
    b: &'c TileColumn,
) -> impl Iterator<Item = &'c (Timestamp, RollupAcc)> {
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if y.0 < x.0 => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

/// Merges `theirs`, later in scan order, into `mine`, both in ascending
/// tile order, folding a tile's terms in that order.
fn merge_column(mine: &mut TileColumn, theirs: TileColumn) {
    let Some(&(last, _)) = mine.last() else {
        *mine = theirs;
        return;
    };
    if theirs.first().is_none_or(|first| last < first.0) {
        mine.extend(theirs);
        return;
    }
    let mut out = TileColumn::with_capacity(mine.len() + theirs.len());
    let mut earlier = std::mem::take(mine).into_iter().peekable();
    let mut later = theirs.into_iter().peekable();
    while let Some((tile, term)) = match (earlier.peek(), later.peek()) {
        (Some(a), Some(b)) if b.0 < a.0 => later.next(),
        (Some(_), _) => earlier.next(),
        (None, _) => later.next(),
    } {
        match out.last_mut() {
            Some(last) if last.0 == tile => last.1.merge(&term),
            _ => out.push((tile, term)),
        }
    }
    *mine = out;
}

fn compare_cells(a: &Cell, b: &Cell) -> std::cmp::Ordering {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
        _ => a.to_string().cmp(&b.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdb_compression::{CompressionConfig, GroupIngestor};
    use mdb_models::ModelRegistry;
    use mdb_storage::rollup::KeyedCell;
    use mdb_storage::{DiskStore, DiskStoreOptions, SegmentRun, SegmentStore};
    use mdb_types::{DimensionSchema, ErrorBound, GroupMeta, SegmentRecord, TimeSeriesMeta, Value};
    use std::sync::Arc;

    /// Builds a populated store: two groups — (1,2) correlated turbines in
    /// Aalborg, (3) in Farsø — with 1 hour of data at SI = 1 minute starting
    /// at 2021-06-01 00:13:00, values 10.0 + small offsets, tid 3 scaled.
    struct Fixture {
        catalog: Catalog,
        registry: ModelRegistry,
        store: DiskStore,
    }

    fn fixture() -> Fixture {
        let mut catalog = Catalog::new();
        let loc = catalog
            .dimensions
            .add_dimension(
                DimensionSchema::new("Location", vec!["Park".into(), "Entity".into()]).unwrap(),
            )
            .unwrap();
        catalog
            .dimensions
            .set_members(1, loc, &["Aalborg", "9632"])
            .unwrap();
        catalog
            .dimensions
            .set_members(2, loc, &["Aalborg", "9634"])
            .unwrap();
        catalog
            .dimensions
            .set_members(3, loc, &["Farsø", "9572"])
            .unwrap();
        let si = 60_000i64;
        catalog.series = vec![
            TimeSeriesMeta {
                tid: 1,
                sampling_interval: si,
                scaling: 1.0,
                gid: 1,
            },
            TimeSeriesMeta {
                tid: 2,
                sampling_interval: si,
                scaling: 1.0,
                gid: 1,
            },
            TimeSeriesMeta {
                tid: 3,
                sampling_interval: si,
                scaling: 2.0,
                gid: 2,
            },
        ];
        catalog.groups = vec![
            GroupMeta {
                gid: 1,
                tids: vec![1, 2],
                sampling_interval: si,
            },
            GroupMeta {
                gid: 2,
                tids: vec![3],
                sampling_interval: si,
            },
        ];
        let registry = ModelRegistry::standard();
        catalog.model_names = registry.names().iter().map(|s| s.to_string()).collect();

        let mut store = DiskStore::in_memory(DiskStoreOptions::default()).unwrap();
        let config = CompressionConfig {
            error_bound: ErrorBound::Lossless,
            ..Default::default()
        };
        // 2021-06-01 00:13:00 UTC.
        let t0 = mdb_types::time::compose(mdb_types::time::Civil {
            year: 2021,
            month: 6,
            day: 1,
            hour: 0,
            minute: 13,
            second: 0,
            millisecond: 0,
        });
        let mut g1 = GroupIngestor::new(
            catalog.groups[0].clone(),
            vec![1.0, 1.0],
            Arc::new(registry.clone()),
            config.clone(),
        )
        .unwrap();
        let mut g2 = GroupIngestor::new(
            catalog.groups[1].clone(),
            vec![2.0],
            Arc::new(registry.clone()),
            config,
        )
        .unwrap();
        for i in 0..60i64 {
            let ts = t0 + i * si;
            // Group 1: both series constant 10 (PMC-friendly).
            for s in g1.push_row(ts, &[Some(10.0), Some(10.0)]).unwrap() {
                store.insert(s).unwrap();
            }
            // Group 2: raw value 1 + i (linear); scaling 2 stores 2 + 2i.
            for s in g2.push_row(ts, &[Some((1 + i) as Value)]).unwrap() {
                store.insert(s).unwrap();
            }
        }
        for s in g1.flush().unwrap() {
            store.insert(s).unwrap();
        }
        for s in g2.flush().unwrap() {
            store.insert(s).unwrap();
        }
        Fixture {
            catalog,
            registry,
            store,
        }
    }

    fn run(f: &Fixture, sql: &str) -> QueryResult {
        QueryEngine::new(&f.catalog, &f.registry, &f.store)
            .sql(sql)
            .unwrap()
    }

    #[test]
    fn sum_per_tid_matches_ground_truth() {
        let f = fixture();
        let r = run(
            &f,
            "SELECT Tid, SUM_S(*) FROM Segment WHERE Tid IN (1, 2, 3) GROUP BY Tid ORDER BY Tid",
        );
        assert_eq!(r.columns, vec!["Tid", "SUM_S(*)"]);
        assert_eq!(r.rows.len(), 3);
        // Tids 1,2: 60 × 10 = 600. Tid 3: (1 + … + 60) = 1830 (scaling
        // divided back out).
        assert_eq!(r.rows[0][0], Cell::Int(1));
        assert!((r.rows[0][1].as_f64().unwrap() - 600.0).abs() < 1e-3);
        assert!((r.rows[1][1].as_f64().unwrap() - 600.0).abs() < 1e-3);
        assert!(
            (r.rows[2][1].as_f64().unwrap() - 1830.0).abs() < 1e-2,
            "{:?}",
            r.rows[2]
        );
    }

    #[test]
    fn all_aggregate_functions() {
        let f = fixture();
        let r = run(
            &f,
            "SELECT COUNT_S(*), MIN_S(*), MAX_S(*), AVG_S(*) FROM Segment WHERE Tid = 3",
        );
        let row = &r.rows[0];
        assert_eq!(row[0], Cell::Int(60));
        assert!((row[1].as_f64().unwrap() - 1.0).abs() < 1e-3);
        assert!((row[2].as_f64().unwrap() - 60.0).abs() < 1e-3);
        assert!((row[3].as_f64().unwrap() - 30.5).abs() < 1e-3);
    }

    #[test]
    fn segment_and_datapoint_views_agree() {
        let f = fixture();
        let s = run(&f, "SELECT SUM_S(*) FROM Segment WHERE Tid = 3");
        let d = run(&f, "SELECT SUM(Value) FROM DataPoint WHERE Tid = 3");
        let sv = s.rows[0][0].as_f64().unwrap();
        let dv = d.rows[0][0].as_f64().unwrap();
        assert!((sv - dv).abs() <= 1e-3 * dv.abs().max(1.0), "{sv} vs {dv}");
    }

    /// A count reads segment metadata alone: a checksum-valid Gorilla
    /// segment whose parameters do not decode is counted, while every query
    /// that needs its values fails as corrupt. A block that fails its
    /// checksum fails every query, counts included.
    #[test]
    fn a_count_needs_only_segment_metadata() {
        let f = fixture();
        let si = 60_000;
        let mut segments = mdb_storage::scan_to_vec(&f.store, &SegmentPredicate::all()).unwrap();
        let end = segments.iter().map(|s| s.end_time).max().unwrap();
        let params = bytes::Bytes::from_static(&[0xff]);
        let gorilla = f.registry.get(mdb_models::MID_GORILLA).unwrap();
        assert!(
            gorilla.grid(&params, 1, 10).is_none(),
            "the parameters do not decode"
        );
        segments.push(SegmentRecord {
            gid: 2,
            start_time: end + si,
            end_time: end + 10 * si,
            sampling_interval: si,
            mid: mdb_models::MID_GORILLA,
            params,
            gaps: mdb_types::GapsMask::EMPTY,
        });
        assert!(segments.len() >= 4, "the log holds at least two blocks");
        let dir = mdb_testutil::TempDir::new("engine-count-metadata");
        let options = || DiskStoreOptions {
            bulk_write_size: 2,
            ..Default::default()
        };
        let mut first_block_bytes = 0;
        {
            let mut store = DiskStore::open_with(dir.path(), options()).unwrap();
            for (i, segment) in segments.iter().enumerate() {
                store.insert(segment.clone()).unwrap();
                if i == 1 {
                    first_block_bytes = store.persistent_bytes();
                }
            }
            store.flush().unwrap();
        }
        let run = |sql: &str| {
            let store = DiskStore::open_with(dir.path(), options()).unwrap();
            assert_eq!(store.len(), segments.len(), "every block opens");
            QueryEngine::new(&f.catalog, &f.registry, &store).sql(sql)
        };
        let counts = "SELECT Tid, COUNT_S(*) FROM Segment GROUP BY Tid ORDER BY Tid";
        let rows = |pairs: [(i64, i64); 3]| {
            let row = |(tid, count)| vec![Cell::Int(tid), Cell::Int(count)];
            pairs.into_iter().map(row).collect::<Vec<_>>()
        };
        assert_eq!(run(counts).unwrap().rows, rows([(1, 60), (2, 60), (3, 70)]));
        let needing_values = [
            "SELECT SUM_S(*) FROM Segment WHERE Tid = 3",
            "SELECT Tid, COUNT_S(*), MAX_S(*) FROM Segment GROUP BY Tid",
            "SELECT COUNT_S(*) FROM Segment WHERE Value > 0.0",
            "SELECT COUNT(Value) FROM DataPoint",
            "SELECT Tid, TS, Value FROM DataPoint WHERE Tid = 3",
        ];
        for sql in needing_values {
            let err = run(sql).unwrap_err();
            assert!(matches!(err, MdbError::Corrupt(_)), "{sql}: {err}");
        }
        // Rot the last payload byte of the first block: the store still
        // opens, and fetching that block fails its checksum.
        let path = dir.path().join("segments.log");
        let mut log = std::fs::read(&path).unwrap();
        log[first_block_bytes as usize - 1] ^= 0x55;
        std::fs::write(&path, &log).unwrap();
        for sql in needing_values.into_iter().chain([counts]) {
            let err = run(sql).unwrap_err();
            assert!(matches!(err, MdbError::Corrupt(_)), "{sql}: {err}");
        }
    }

    #[test]
    fn group_by_dimension_column() {
        let f = fixture();
        let r = run(
            &f,
            "SELECT Park, SUM_S(*) FROM Segment GROUP BY Park ORDER BY Park",
        );
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Cell::Str("Aalborg".into()));
        assert!((r.rows[0][1].as_f64().unwrap() - 1200.0).abs() < 1e-2);
        assert_eq!(r.rows[1][0], Cell::Str("Farsø".into()));
        assert!((r.rows[1][1].as_f64().unwrap() - 1830.0).abs() < 1e-2);
    }

    #[test]
    fn member_predicate_filters_individual_series() {
        let f = fixture();
        let r = run(&f, "SELECT COUNT_S(*) FROM Segment WHERE Entity = '9632'");
        assert_eq!(r.rows[0][0], Cell::Int(60));
        // Unknown member → empty result, not an error (rewriting proves it).
        let r = run(&f, "SELECT COUNT_S(*) FROM Segment WHERE Park = 'Atlantis'");
        assert!(r.rows.is_empty());
        // Unknown column → error.
        let e = QueryEngine::new(&f.catalog, &f.registry, &f.store)
            .sql("SELECT COUNT_S(*) FROM Segment WHERE Altitude = 'High'");
        assert!(e.is_err());
    }

    #[test]
    fn cube_hour_splits_at_calendar_boundaries() {
        // Data runs 00:13–01:12, so hours 0 (47 ticks) and 1 (13 ticks).
        let f = fixture();
        let r = run(
            &f,
            "SELECT Tid, CUBE_COUNT_HOUR(*) FROM Segment WHERE Tid = 1 GROUP BY Tid ORDER BY Hour",
        );
        assert_eq!(r.columns, vec!["Tid", "Hour", "CUBE_COUNT_HOUR(*)"]);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][1], Cell::Int(0));
        assert_eq!(r.rows[0][2], Cell::Int(47));
        assert_eq!(r.rows[1][1], Cell::Int(1));
        assert_eq!(r.rows[1][2], Cell::Int(13));
    }

    #[test]
    fn cube_sum_equals_plain_sum() {
        let f = fixture();
        let cube = run(
            &f,
            "SELECT Tid, CUBE_SUM_HOUR(*) FROM Segment WHERE Tid = 3 GROUP BY Tid",
        );
        let total: f64 = cube.rows.iter().map(|r| r[2].as_f64().unwrap()).sum();
        assert!((total - 1830.0).abs() < 1e-2, "{total}");
    }

    #[test]
    fn ts_range_restricts_aggregates() {
        let f = fixture();
        let t0 = mdb_types::time::compose(mdb_types::time::Civil {
            year: 2021,
            month: 6,
            day: 1,
            hour: 0,
            minute: 13,
            second: 0,
            millisecond: 0,
        });
        // First 10 ticks only.
        let hi = t0 + 9 * 60_000;
        let r = run(
            &f,
            &format!("SELECT COUNT_S(*) FROM Segment WHERE Tid = 1 AND TS <= {hi}"),
        );
        assert_eq!(r.rows[0][0], Cell::Int(10));
        let r = run(
            &f,
            &format!("SELECT SUM_S(*) FROM Segment WHERE Tid = 3 AND TS <= {hi}"),
        );
        assert!((r.rows[0][0].as_f64().unwrap() - 55.0).abs() < 1e-2);
    }

    #[test]
    fn point_and_range_queries_on_data_point_view() {
        let f = fixture();
        let t0 = mdb_types::time::compose(mdb_types::time::Civil {
            year: 2021,
            month: 6,
            day: 1,
            hour: 0,
            minute: 13,
            second: 0,
            millisecond: 0,
        });
        let point = t0 + 5 * 60_000;
        let r = run(
            &f,
            &format!("SELECT * FROM DataPoint WHERE Tid = 3 AND TS = {point}"),
        );
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][1], Cell::Timestamp(point));
        assert!((r.rows[0][2].as_f64().unwrap() - 6.0).abs() < 1e-3);
        // Dimension columns are joined on.
        assert_eq!(r.rows[0][3], Cell::Str("Farsø".into()));
        let r = run(
            &f,
            &format!(
                "SELECT TS, Value FROM DataPoint WHERE Tid = 1 AND TS BETWEEN {t0} AND {}",
                t0 + 4 * 60_000
            ),
        );
        assert_eq!(r.rows.len(), 5);
    }

    #[test]
    fn segment_view_listing() {
        let f = fixture();
        let r = run(
            &f,
            "SELECT Tid, StartTime, EndTime, Mid FROM Segment WHERE Tid = 1",
        );
        assert!(!r.rows.is_empty());
        // Segments of group 1 also produce rows for tid 2 — but the WHERE
        // filters them out.
        assert!(r.rows.iter().all(|row| row[0] == Cell::Int(1)));
        let r_all = run(&f, "SELECT * FROM Segment");
        assert_eq!(
            r_all.columns[..6],
            ["Tid", "StartTime", "EndTime", "SI", "Mid", "Gaps"]
        );
        assert!(r_all.columns.contains(&"Park".to_string()));
    }

    #[test]
    fn order_by_and_limit() {
        let f = fixture();
        let r = run(
            &f,
            "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid DESC LIMIT 2",
        );
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Cell::Int(3));
        assert_eq!(r.rows[1][0], Cell::Int(2));
    }

    #[test]
    fn validation_errors() {
        let f = fixture();
        let engine = QueryEngine::new(&f.catalog, &f.registry, &f.store);
        // Column not in GROUP BY.
        assert!(engine.sql("SELECT Tid, SUM_S(*) FROM Segment").is_err());
        // Mixed cube and plain aggregates.
        assert!(engine
            .sql("SELECT CUBE_SUM_HOUR(*), COUNT_S(*) FROM Segment")
            .is_err());
        // Two different cube levels.
        assert!(engine
            .sql("SELECT CUBE_SUM_HOUR(*), CUBE_SUM_DAY(*) FROM Segment")
            .is_err());
        // * with aggregates.
        assert!(engine.sql("SELECT *, COUNT_S(*) FROM Segment").is_err());
        // Unknown ORDER BY column.
        assert!(engine
            .sql("SELECT Tid FROM Segment ORDER BY Altitude")
            .is_err());
    }

    #[test]
    fn empty_tid_set_yields_empty_result() {
        let f = fixture();
        let r = run(&f, "SELECT COUNT_S(*) FROM Segment WHERE Tid = 99");
        assert!(r.rows.is_empty());
    }

    #[test]
    fn value_predicates_filter_points_and_aggregates() {
        let f = fixture();
        // Tid 3's raw values are 1..=60.
        let r = run(
            &f,
            "SELECT COUNT_S(*) FROM Segment WHERE Tid = 3 AND Value >= 31",
        );
        assert_eq!(r.rows[0][0], Cell::Int(30));
        let r = run(
            &f,
            "SELECT SUM(Value) FROM DataPoint WHERE Tid = 3 AND Value <= 10.5",
        );
        assert!(
            (r.rows[0][0].as_f64().unwrap() - 55.0).abs() < 1e-2,
            "{:?}",
            r.rows
        );
        let r = run(
            &f,
            "SELECT TS, Value FROM DataPoint WHERE Tid = 3 AND Value > 58",
        );
        assert_eq!(r.rows.len(), 2);
        // An unsatisfiable value range is proven empty by the rewrite.
        let r = run(
            &f,
            "SELECT COUNT_S(*) FROM Segment WHERE Value > 10 AND Value < 5",
        );
        assert!(r.rows.is_empty());
        // Cube aggregates filter per point too: tids 1/2 are constant 10.
        let r = run(
            &f,
            "SELECT CUBE_COUNT_HOUR(*) FROM Segment WHERE Tid = 1 AND Value > 10.5",
        );
        assert!(r.rows.is_empty());
        // Segment listings have no Value column to filter on.
        let e = QueryEngine::new(&f.catalog, &f.registry, &f.store)
            .sql("SELECT Tid FROM Segment WHERE Value > 1");
        assert!(e.is_err());
    }

    #[test]
    fn served_and_scanned_tiles_of_out_of_order_segments_agree() {
        // 120 five-minute PMC-Mean segments of group 1 over ten hours, one
        // per block, at scaling 3 (so the terms round), inserted two per
        // hour at a time, hour after hour, six times over: each tid's
        // tiles arrive out of time order, so a scan folds terms into an
        // hour after later hours of its tid. The Hour cells fold each
        // hour's terms in insertion order; a scan keeps their bits only by
        // folding every term into its hour in place, in scan order.
        let Fixture {
            mut catalog,
            registry,
            ..
        } = fixture();
        for series in &mut catalog.series {
            series.scaling = 3.0;
        }
        let levels = [TimeLevel::Hour];
        let feed = crate::rollup_feed(
            &Arc::new(catalog.clone()),
            &Arc::new(registry.clone()),
            &levels,
        );
        let mut store = DiskStore::in_memory(DiskStoreOptions {
            bulk_write_size: 1,
            rollup_feed: Some(feed),
            ..DiskStoreOptions::default()
        })
        .unwrap();
        let (t0, si) = (1_622_505_600_000i64, 60_000i64);
        let slots = (0..6).flat_map(|round| {
            (0..10).flat_map(move |hour| [hour * 12 + 2 * round, hour * 12 + 2 * round + 1])
        });
        for i in slots {
            let value = 0.1 + (i % 7) as f32 * 0.6;
            store
                .insert(SegmentRecord {
                    gid: 1,
                    start_time: t0 + i * 5 * si,
                    end_time: t0 + (i * 5 + 4) * si,
                    sampling_interval: si,
                    mid: mdb_models::MID_PMC_MEAN,
                    params: bytes::Bytes::from(value.to_le_bytes().to_vec()),
                    gaps: mdb_types::GapsMask::EMPTY,
                })
                .unwrap();
        }
        store.flush().unwrap();
        let counter = CellCounter {
            inner: &store,
            visits: Default::default(),
        };
        let visits = || counter.visits.load(std::sync::atomic::Ordering::Relaxed);
        let queries = [
            "SELECT Tid, SUM_S(*), AVG_S(*) FROM Segment GROUP BY Tid ORDER BY Tid",
            "SELECT Tid, CUBE_SUM_HOUR(*) FROM Segment GROUP BY Tid ORDER BY Tid",
            "SELECT Tid, COUNT_S(*), SUM_S(*) FROM Segment WHERE Value > 0.5 GROUP BY Tid",
        ];
        for q in queries {
            let answer = |serve: bool| {
                QueryEngine::new(&catalog, &registry, &counter)
                    .with_rollups(&levels, serve)
                    .sql(q)
                    .unwrap()
            };
            let before = visits();
            let served = answer(true);
            assert!(visits() > before, "{q}: no cell was read");
            let scanned = answer(false);
            let bits = |r: &QueryResult| -> Vec<Vec<Option<u64>>> {
                r.rows
                    .iter()
                    .map(|row| row.iter().map(|c| c.as_f64().map(f64::to_bits)).collect())
                    .collect()
            };
            assert!(!served.rows.is_empty(), "{q}");
            assert_eq!(bits(&served), bits(&scanned), "{q}");
        }
    }

    #[test]
    fn value_pushdown_prunes_bounded_runs() {
        use mdb_storage::scan_to_vec;
        // Rebuild the fixture's segments in a store that records value
        // bounds, then check the rewritten push-down skips them wholesale.
        let f = fixture();
        let bounds =
            crate::value_bounds_fn(&Arc::new(f.catalog.clone()), &Arc::new(f.registry.clone()));
        let mut store = DiskStore::in_memory(DiskStoreOptions {
            value_bounds: Some(bounds),
            ..DiskStoreOptions::default()
        })
        .unwrap();
        for segment in scan_to_vec(&f.store, &mdb_storage::SegmentPredicate::all()).unwrap() {
            store.insert(segment).unwrap();
        }
        // Stored values are ≤ 120 (tid 3 scaled: 2..=120); a predicate far
        // above prunes every run, far below the group survives.
        let far = mdb_storage::SegmentPredicate::all()
            .with_values(mdb_types::ValueInterval::new(500.0, 600.0));
        assert!(scan_to_vec(&store, &far).unwrap().is_empty());
        let near = mdb_storage::SegmentPredicate::all()
            .with_values(mdb_types::ValueInterval::new(0.0, 10.0));
        assert!(!scan_to_vec(&store, &near).unwrap().is_empty());
        // And through SQL: raw Value > 300 cannot match any stored run.
        let engine = QueryEngine::new(&f.catalog, &f.registry, &store);
        let r = engine
            .sql("SELECT COUNT_S(*) FROM Segment WHERE Value > 300")
            .unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn split_at_boundaries_covers_range_exactly() {
        use bytes::Bytes;
        let t0 = mdb_types::time::compose(mdb_types::time::Civil {
            year: 2021,
            month: 6,
            day: 1,
            hour: 0,
            minute: 13,
            second: 0,
            millisecond: 0,
        });
        let seg = SegmentRecord {
            gid: 1,
            start_time: t0,
            end_time: t0 + 155 * 60_000, // 00:13 → 02:48, the Figure 12 span
            sampling_interval: 60_000,
            mid: 0,
            params: Bytes::new(),
            gaps: Default::default(),
        };
        let parts: Vec<_> = crate::tile::Tiling::whole(TimeLevel::Hour)
            .splits(seg.start_time, seg.sampling_interval, (0, 155))
            .collect();
        assert_eq!(parts.len(), 3);
        // Buckets are keyed by absolute start timestamp (midnight-anchored
        // hours here), not by display date-part.
        let hour0 = mdb_types::time::truncate(TimeLevel::Hour, t0);
        assert_eq!(parts[0].0, hour0);
        assert_eq!(parts[1].0, hour0 + 3_600_000);
        assert_eq!(parts[2].0, hour0 + 7_200_000);
        // [00:13, 01:00) = 47 ticks, [01:00, 02:00) = 60, [02:00, 02:48] = 49.
        assert_eq!(parts[0].1, (0, 46));
        assert_eq!(parts[1].1, (47, 106));
        assert_eq!(parts[2].1, (107, 155));
        // Contiguous cover.
        for w in parts.windows(2) {
            assert_eq!(w[1].1 .0, w[0].1 .1 + 1);
        }
    }

    /// A partial over three slots (keys 1, 2, 3) with one point per entry,
    /// and one tile term per entry for tid 1, in the tile numbered like the
    /// entry's slot.
    fn partial(entries: &[(usize, f64)]) -> PartialAggregates {
        let keys = Arc::new(KeyPlan {
            by_tid: vec![None, Some((0, 1.0))],
            rows: (1..=3).map(|k| vec![KeyCell::Int(k)]).collect(),
        });
        let mut p = PartialAggregates::new(&keys);
        for &(slot, x) in entries {
            let point = RollupAcc {
                count: 1,
                sum: x,
                min: x,
                max: x,
            };
            p.slots[slot]
                .get_or_insert_with(Accumulator::new)
                .add(&point);
            p.add_tile_term(1, slot as i64, point);
        }
        p
    }

    #[test]
    fn merge_partials_moves_into_empty_and_folds_in_order() {
        let a = partial(&[(0, 0.1), (1, 5.0)]);
        let b = partial(&[(0, 0.2), (2, 7.0)]);
        let c = partial(&[(0, 0.3)]);

        // Into an empty partial: exactly `a`.
        let mut moved = PartialAggregates::default();
        merge_partials(&mut moved, a.clone());
        assert_eq!(moved.slots, a.slots);
        assert_eq!(moved.tiles, a.tiles);

        // Into a non-empty partial: touched slots union, and a shared slot
        // holds the correctly rounded sum in every merge order — 0.6, where
        // a left fold gives ((0.1 + 0.2) + 0.3) = 0.6000000000000001. Tile
        // terms fold in merge order: that left fold.
        merge_partials(&mut moved, b.clone());
        merge_partials(&mut moved, c.clone());
        let shared = moved.slots[0].as_ref().unwrap();
        assert_eq!(shared.count, 3);
        assert_eq!(shared.sum().to_bits(), 0.6f64.to_bits());
        assert_ne!(shared.sum().to_bits(), ((0.1f64 + 0.2) + 0.3).to_bits());
        for order in [[&b, &a, &c], [&c, &b, &a], [&a, &c, &b]] {
            let mut other = PartialAggregates::default();
            for p in order {
                merge_partials(&mut other, p.clone());
            }
            assert_eq!(other.slots, moved.slots);
        }
        assert_eq!(moved.slots[1].as_ref().unwrap().sum(), 5.0);
        assert_eq!(moved.slots[2].as_ref().unwrap().sum(), 7.0);
        let tiles: Vec<(i64, u64)> = moved.tiles[1]
            .iter()
            .map(|&(tile, term)| (tile, term.sum.to_bits()))
            .collect();
        let fold = ((0.1f64 + 0.2) + 0.3).to_bits();
        assert_eq!(tiles, [(0, fold), (1, 5f64.to_bits()), (2, 7f64.to_bits())]);
    }

    /// A read-only store wrapper counting the cells `rollup_cells` hands to
    /// the engine.
    struct CellCounter<'s> {
        inner: &'s DiskStore,
        visits: std::sync::atomic::AtomicUsize,
    }

    impl SegmentStore for CellCounter<'_> {
        fn insert(&mut self, _segment: SegmentRecord) -> Result<()> {
            unreachable!("the wrapper is read-only")
        }

        fn flush(&mut self) -> Result<()> {
            Ok(())
        }

        fn scan_runs(
            &self,
            predicate: &SegmentPredicate,
            f: &mut dyn FnMut(SegmentRun<'_>),
        ) -> Result<()> {
            self.inner.scan_runs(predicate, f)
        }

        fn rollup_cells(
            &self,
            level: TimeLevel,
            scope: Option<&[Gid]>,
            range: (Timestamp, Timestamp),
            f: &mut dyn FnMut(&[KeyedCell]),
        ) -> Result<bool> {
            self.inner.rollup_cells(level, scope, range, &mut |column| {
                self.visits
                    .fetch_add(column.len(), std::sync::atomic::Ordering::Relaxed);
                f(column)
            })
        }

        fn len(&self) -> usize {
            self.inner.len()
        }

        fn logical_bytes(&self) -> u64 {
            self.inner.logical_bytes()
        }

        fn persistent_bytes(&self) -> u64 {
            self.inner.persistent_bytes()
        }
    }

    #[test]
    fn served_narrow_query_visits_only_the_cells_in_its_range() {
        // The fixture's series and groups at SI = 10 minutes over 31 days,
        // with Day and Hour cells maintained.
        let si = 600_000i64;
        let Fixture {
            mut catalog,
            registry,
            ..
        } = fixture();
        for series in &mut catalog.series {
            series.sampling_interval = si;
        }
        for group in &mut catalog.groups {
            group.sampling_interval = si;
        }
        let levels = [TimeLevel::Day, TimeLevel::Hour];
        let feed = crate::rollup_feed(
            &Arc::new(catalog.clone()),
            &Arc::new(registry.clone()),
            &levels,
        );
        let mut store = DiskStore::in_memory(DiskStoreOptions {
            rollup_feed: Some(feed),
            ..DiskStoreOptions::default()
        })
        .unwrap();
        let t0 = 1_622_505_600_000i64; // 2021-06-01 00:00:00 UTC.
        let config = CompressionConfig {
            error_bound: ErrorBound::Lossless,
            ..Default::default()
        };
        let mut ingestors: Vec<GroupIngestor> = catalog
            .groups
            .iter()
            .map(|group| {
                let scalings = group.tids.iter().map(|&t| catalog.scaling_of(t)).collect();
                GroupIngestor::new(
                    group.clone(),
                    scalings,
                    Arc::new(registry.clone()),
                    config.clone(),
                )
                .unwrap()
            })
            .collect();
        let hours = 31 * 24;
        let ticks = hours * 6;
        for i in 0..ticks {
            let ts = t0 + i * si;
            for ingestor in &mut ingestors {
                let row: Vec<Option<Value>> = (0..ingestor.group().tids.len())
                    .map(|m| Some(((i * 7 + m as i64) % 23) as Value))
                    .collect();
                for s in ingestor.push_row(ts, &row).unwrap() {
                    store.insert(s).unwrap();
                }
            }
        }
        for ingestor in &mut ingestors {
            for s in ingestor.flush().unwrap() {
                store.insert(s).unwrap();
            }
        }

        // An unaligned 3-hour window ten days in.
        let hour = 3_600_000i64;
        let from = t0 + 240 * hour + 25 * 60_000;
        let to = from + 3 * hour - 1;
        let covered = (0..hours)
            .map(|i| t0 + i * hour)
            .filter(|&b| b >= from && b + hour - 1 <= to)
            .count();
        assert_eq!(covered, 2, "two whole hours between the partial edges");
        let series = catalog.series.len();
        let sql = format!(
            "SELECT Tid, SUM_S(*) FROM Segment WHERE TS >= {from} AND TS <= {to} \
             GROUP BY Tid ORDER BY Tid"
        );
        let counter = CellCounter {
            inner: &store,
            visits: Default::default(),
        };
        let answer = |serve: bool| {
            QueryEngine::new(&catalog, &registry, &counter)
                .with_rollups(&levels, serve)
                .sql(&sql)
                .unwrap()
        };
        let served = answer(true);
        let visits = counter.visits.load(std::sync::atomic::Ordering::Relaxed);
        assert!(
            (covered * series..=(covered + 2) * series).contains(&visits),
            "visited {visits} cells for {covered} covered hours × {series} series"
        );
        let scanned = answer(false);
        assert_eq!(served.rows.len(), series);
        let bits = |r: &QueryResult| -> Vec<Vec<Option<u64>>> {
            r.rows
                .iter()
                .map(|row| row.iter().map(|c| c.as_f64().map(f64::to_bits)).collect())
                .collect()
        };
        assert_eq!(bits(&served), bits(&scanned));
    }

    /// Delegates to a built-in model and records the `(n_series, series)`
    /// of every `monotone_value_at` call.
    struct MonotoneCounter {
        inner: Arc<dyn mdb_models::ModelType>,
        calls: Arc<std::sync::Mutex<Vec<(usize, usize)>>>,
    }

    impl mdb_models::ModelType for MonotoneCounter {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn fitter(
            &self,
            bound: ErrorBound,
            n_series: usize,
            limit: usize,
        ) -> Box<dyn mdb_models::Fitter> {
            self.inner.fitter(bound, n_series, limit)
        }

        fn grid(&self, params: &[u8], n_series: usize, count: usize) -> Option<Vec<Value>> {
            self.inner.grid(params, n_series, count)
        }

        fn agg(
            &self,
            params: &[u8],
            n_series: usize,
            count: usize,
            range: (usize, usize),
            series: usize,
        ) -> Option<SegmentAgg> {
            self.inner.agg(params, n_series, count, range, series)
        }

        fn monotone_value_at(
            &self,
            params: &[u8],
            n_series: usize,
            count: usize,
            t: usize,
            series: usize,
        ) -> Option<Value> {
            self.calls.lock().unwrap().push((n_series, series));
            self.inner
                .monotone_value_at(params, n_series, count, t, series)
        }

        fn attained_extremes(&self) -> bool {
            self.inner.attained_extremes()
        }
    }

    #[test]
    fn straddling_hours_evaluate_only_the_members_they_name() {
        // One group of three series over three whole hours at SI = 1
        // minute, all stored as the ramp 0, 1, …, 179 under scalings 4, 2
        // and 1, so tid 1 reads a quarter of tid 3 and tid 2 half of it.
        // Tid 1 is in a gap for the first half of the middle hour, which
        // leaves the members after it at lower series positions there.
        let Fixture {
            mut catalog,
            registry: standard,
            ..
        } = fixture();
        let calls = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut registry = ModelRegistry::empty();
        for mid in 0..standard.len() as u8 {
            registry.register(Arc::new(MonotoneCounter {
                inner: Arc::clone(standard.get(mid).unwrap()),
                calls: Arc::clone(&calls),
            }));
        }
        let scalings = [4.0, 2.0, 1.0];
        for (i, series) in catalog.series.iter_mut().enumerate() {
            (series.gid, series.scaling) = (1, scalings[i]);
        }
        catalog.groups = vec![GroupMeta {
            gid: 1,
            tids: vec![1, 2, 3],
            sampling_interval: 60_000,
        }];
        let levels = [TimeLevel::Hour];
        let (catalog_arc, registry_arc) = (Arc::new(catalog.clone()), Arc::new(registry));
        let mut store = DiskStore::in_memory(DiskStoreOptions {
            rollup_feed: Some(crate::rollup_feed(&catalog_arc, &registry_arc, &levels)),
            ..DiskStoreOptions::default()
        })
        .unwrap();
        let config = CompressionConfig {
            error_bound: ErrorBound::Lossless,
            ..Default::default()
        };
        let mut ingestor = GroupIngestor::new(
            catalog.groups[0].clone(),
            scalings.to_vec(),
            Arc::clone(&registry_arc),
            config,
        )
        .unwrap();
        let (t0, si) = (1_622_505_600_000i64, 60_000i64); // 2021-06-01 00:00 UTC.
        for t in 0..180i64 {
            let row: Vec<Option<Value>> = scalings
                .iter()
                .enumerate()
                .map(|(m, scaling)| {
                    let gap = m == 0 && (60..90).contains(&t);
                    (!gap).then_some(t as Value / *scaling as Value)
                })
                .collect();
            for s in ingestor.push_row(t0 + t * si, &row).unwrap() {
                store.insert(s).unwrap();
            }
        }
        for s in ingestor.flush().unwrap() {
            store.insert(s).unwrap();
        }
        store.flush().unwrap();
        let registry = &*registry_arc;
        let answer = |sql: &str, serve: bool| {
            QueryEngine::new(&catalog, registry, &store)
                .with_rollups(&levels, serve)
                .sql(sql)
                .unwrap()
        };
        let bits = |r: &QueryResult| -> Vec<Vec<Option<u64>>> {
            r.rows
                .iter()
                .map(|row| row.iter().map(|c| c.as_f64().map(f64::to_bits)).collect())
                .collect()
        };
        // Value > 25 straddles hour 0 for tids 2 and 3 and hour 1 for tid
        // 1; Value > 100 straddles hour 1 for tid 3 alone.
        let filters = [
            "Value > 25",
            "Value > 100",
            "Value <= 50",
            "Value >= 10 AND Value <= 20",
            "Value = 30",
        ];
        for filter in filters {
            let sql = format!(
                "SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*), AVG_S(*) FROM Segment \
                 WHERE {filter} GROUP BY Tid ORDER BY Tid"
            );
            let served = answer(&sql, true);
            let scanned = answer(&sql, false);
            assert!(!served.rows.is_empty(), "{filter}");
            assert_eq!(bits(&served), bits(&scanned), "{filter}");
        }

        // Served, the straddle of tid 3 alone evaluates tid 3 alone: the
        // last present series of each segment it meets.
        let sql = "SELECT Tid, COUNT_S(*), SUM_S(*) FROM Segment WHERE Value > 100 GROUP BY Tid";
        calls.lock().unwrap().clear();
        answer(sql, true);
        let served = std::mem::take(&mut *calls.lock().unwrap());
        assert!(!served.is_empty(), "a straddling hour was evaluated");
        assert!(
            served.iter().all(|&(n, series)| series + 1 == n),
            "only tid 3 was evaluated: {served:?}"
        );
        assert!(
            served.iter().any(|&(n, _)| n == 2),
            "a segment with tid 1 in its gap was evaluated"
        );
        answer(sql, false);
        let scanned = calls.lock().unwrap();
        assert!(
            (0..3).all(|series| scanned.iter().any(|&(_, s)| s == series)),
            "a scan evaluates every member"
        );
    }
}
