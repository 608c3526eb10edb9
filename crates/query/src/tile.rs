//! Tiled plans: the calendar tiles a bucketed aggregate's `TS` range is cut
//! into — Algorithm 6's boundary walk, over several levels at once.
//!
//! A range `[from, to]` is tiled by the coarsest of the given levels whose
//! bucket fits inside it: whole months, then whole days, then whole hours.
//! What no whole bucket of any level covers — at most two partial buckets of
//! the *edge* level, at the range's ends — forms the edge tiles, which only a
//! scan answers. The tiles depend on the range and the levels alone, never on
//! what a store holds. So every path that answers a tile — its rollup cell,
//! or a scan that splits segments at the same tile boundaries
//! ([`Tiling::splits`]) — folds the same terms per tile, and served and
//! scanned answers are bit-identical.

use mdb_storage::rollup::level_tag;
use mdb_types::{time, TimeLevel, Timestamp};

/// An inclusive timestamp span `(lo, hi)`.
pub(crate) type Span = (Timestamp, Timestamp);

/// The last timestamp of the `level` bucket containing `ts`:
/// `Timestamp::MAX` for the bucket no representable boundary ends.
pub(crate) fn bucket_end(level: TimeLevel, ts: Timestamp) -> Timestamp {
    // Boundaries are whole seconds and `Timestamp::MAX` is not one, so
    // `MAX` here only ever means a saturated boundary.
    match time::next_boundary(level, ts) {
        Timestamp::MAX => Timestamp::MAX,
        next => next - 1,
    }
}

/// One tile: the timestamps `lo..=hi`. A whole bucket of `level` is keyed
/// like its rollup cell, by its start `lo`; an edge tile (`level: None`) is
/// the part of a partial bucket inside the range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tile {
    pub(crate) lo: Timestamp,
    pub(crate) hi: Timestamp,
    pub(crate) level: Option<TimeLevel>,
}

/// The tiles of one range over a set of levels.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Tiling {
    from: Timestamp,
    to: Timestamp,
    /// The levels, coarse to fine, each with the span its whole buckets
    /// inside the range cover (`None` when none fits). Every coarse
    /// boundary is a fine one, so the spans nest: each contains the
    /// coarser ones.
    covers: Vec<(TimeLevel, Option<Span>)>,
    /// The level whose partial buckets are the edge tiles.
    edge: TimeLevel,
}

/// The span the whole `level` buckets inside `[from, to]` cover.
fn whole_buckets(level: TimeLevel, from: Timestamp, to: Timestamp) -> Option<Span> {
    let lo = if time::truncate(level, from) == from {
        from
    } else {
        bucket_end(level, from).checked_add(1)?
    };
    let hi = if bucket_end(level, to) == to {
        to
    } else {
        // `truncate` saturates at `MIN` only for the bucket no boundary
        // starts, so there is no whole bucket before it.
        match time::truncate(level, to) {
            Timestamp::MIN => return None,
            start => start - 1,
        }
    };
    (lo <= hi).then_some((lo, hi))
}

/// Calls `f` with the parts of `outer` outside `inner` (which lies within
/// it), left part first.
fn difference(outer: Span, inner: Option<Span>, f: &mut dyn FnMut(Span)) {
    match inner {
        None => f(outer),
        Some((lo, hi)) => {
            if outer.0 < lo {
                f((outer.0, lo - 1));
            }
            if hi < outer.1 {
                f((hi + 1, outer.1));
            }
        }
    }
}

impl Tiling {
    /// Tiles `[from, to]` with whole buckets of `levels` (in any order) and
    /// partial buckets of `edge`, which must be at least as fine as every
    /// level so an edge tile lies inside one bucket of each.
    pub(crate) fn new(
        from: Timestamp,
        to: Timestamp,
        levels: &[TimeLevel],
        edge: TimeLevel,
    ) -> Self {
        let mut levels = levels.to_vec();
        levels.sort_by_key(|level| level_tag(*level));
        levels.dedup();
        debug_assert!(levels.iter().all(|l| level_tag(*l) <= level_tag(edge)));
        let covers = levels
            .into_iter()
            .map(|level| (level, whole_buckets(level, from, to)))
            .collect();
        Self {
            from,
            to,
            covers,
            edge,
        }
    }

    /// Every bucket of `level`, over all time: the tiles rollup cells are
    /// materialized in.
    pub(crate) fn whole(level: TimeLevel) -> Self {
        Self {
            from: Timestamp::MIN,
            to: Timestamp::MAX,
            covers: vec![(level, Some((Timestamp::MIN, Timestamp::MAX)))],
            edge: level,
        }
    }

    /// Whether any tile is a whole bucket of a level (a rollup cell).
    pub(crate) fn has_levels(&self) -> bool {
        !self.covers.is_empty()
    }

    /// Whether the tile starting at `lo` is a whole bucket of a level. The
    /// finest cover contains every whole tile, and no edge tile starts in
    /// it.
    pub(crate) fn is_whole(&self, lo: Timestamp) -> bool {
        let finest = self.covers.last().and_then(|&(_, cover)| cover);
        finest.is_some_and(|(from, to)| from <= lo && lo <= to)
    }

    /// The tile containing `ts`, which must lie in the range.
    pub(crate) fn tile_at(&self, ts: Timestamp) -> Tile {
        debug_assert!((self.from..=self.to).contains(&ts));
        for &(level, cover) in &self.covers {
            if cover.is_some_and(|(lo, hi)| lo <= ts && ts <= hi) {
                return Tile {
                    lo: time::truncate(level, ts),
                    hi: bucket_end(level, ts),
                    level: Some(level),
                };
            }
        }
        Tile {
            lo: self.from.max(time::truncate(self.edge, ts)),
            hi: self.to.min(bucket_end(self.edge, ts)),
            level: None,
        }
    }

    /// Where the tiles lie: each level's spans of whole buckets (at most two
    /// per level, coarse to fine, each a run of that level's tiles) and the
    /// edge spans (with any level, at most two, holding at most two tiles).
    pub(crate) fn regions(&self) -> (Vec<(TimeLevel, Span)>, Vec<Span>) {
        let (mut regions, mut edges) = (Vec::new(), Vec::new());
        if self.from > self.to {
            return (regions, edges);
        }
        let mut inner = None;
        for &(level, cover) in &self.covers {
            if let Some(cover) = cover {
                difference(cover, inner, &mut |span| regions.push((level, span)));
                inner = Some(cover);
            }
        }
        difference((self.from, self.to), inner, &mut |span| edges.push(span));
        (regions, edges)
    }

    /// Splits the tick-index `range` of a segment starting at `start` with
    /// sampling interval `si` at tile boundaries, yielding `(tile start,
    /// sub-range)` pairs in tick order. Every tick must lie in the range.
    pub(crate) fn splits(&self, start: Timestamp, si: i64, range: (usize, usize)) -> Splits<'_> {
        Splits {
            tiling: self,
            start,
            si,
            next: range.0,
            last: range.1,
        }
    }
}

/// The iterator of [`Tiling::splits`].
pub(crate) struct Splits<'t> {
    tiling: &'t Tiling,
    start: Timestamp,
    si: i64,
    /// The next sub-range's first tick index.
    next: usize,
    /// The range's last tick index.
    last: usize,
}

impl Iterator for Splits<'_> {
    type Item = (Timestamp, (usize, usize));

    fn next(&mut self) -> Option<Self::Item> {
        if self.next > self.last {
            return None;
        }
        let tile = self.tiling.tile_at(self.start + self.next as i64 * self.si);
        // The last tick at or before the tile's end, in `i64` unless the
        // tile ends too far past the start for it.
        let end = match tile.hi.checked_sub(self.start) {
            Some(span) => usize::try_from(span / self.si).map_or(self.last, |t| t.min(self.last)),
            None => {
                let ticks = (i128::from(tile.hi) - i128::from(self.start)) / i128::from(self.si);
                ticks.min(self.last as i128) as usize
            }
        };
        let sub = (self.next, end);
        self.next = end + 1;
        Some((tile.lo, sub))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const LEVELS: [TimeLevel; 3] = [TimeLevel::Month, TimeLevel::Day, TimeLevel::Hour];
    const HOUR: i64 = 3_600_000;
    /// 2021-02-01T00:00:00Z: an hour, day and month boundary at once.
    const FEB_1_2021: i64 = 1_612_137_600_000;

    /// The tiles of `[from, to]` walked tile by tile from `from` forward and
    /// from `to` backward, at most `LIMIT` each way: all of them in
    /// ascending order when the forward walk reaches `to`.
    fn walk(tiling: &Tiling, from: Timestamp, to: Timestamp) -> (Vec<Tile>, Vec<Tile>, bool) {
        const LIMIT: usize = 400;
        let (mut forward, mut backward) = (Vec::new(), Vec::new());
        if from > to {
            return (forward, backward, true);
        }
        let mut ts = from;
        let complete = loop {
            let tile = tiling.tile_at(ts);
            forward.push(tile);
            if tile.hi >= to {
                break true;
            }
            if forward.len() == LIMIT {
                break false;
            }
            ts = tile.hi + 1;
        };
        let mut ts = to;
        while backward.len() < LIMIT {
            let tile = tiling.tile_at(ts);
            backward.push(tile);
            if tile.lo <= from {
                break;
            }
            ts = tile.lo - 1;
        }
        backward.reverse();
        (forward, backward, complete)
    }

    /// Whether the whole `level` bucket containing `ts` lies in the range.
    fn fits(level: TimeLevel, ts: Timestamp, from: Timestamp, to: Timestamp) -> bool {
        time::truncate(level, ts) >= from && bucket_end(level, ts) <= to
    }

    fn check_partition(levels: &[TimeLevel], edge: TimeLevel, from: Timestamp, to: Timestamp) {
        let tiling = Tiling::new(from, to, levels, edge);
        let (forward, backward, complete) = walk(&tiling, from, to);
        if from > to {
            assert!(forward.is_empty());
            assert_eq!(tiling.regions(), (vec![], vec![]));
            return;
        }
        assert_eq!(
            forward.first().unwrap().lo,
            from,
            "the first tile starts the range"
        );
        assert_eq!(backward.last().unwrap().hi, to, "the last tile ends it");
        if complete {
            assert_eq!(forward, backward);
        }
        for walked in [&forward, &backward] {
            for pair in walked.windows(2) {
                assert_eq!(pair[0].hi + 1, pair[1].lo, "disjoint, ascending, no gap");
            }
        }
        let (regions, edges) = tiling.regions();
        for tile in forward.iter().chain(&backward) {
            assert!(tile.lo <= tile.hi);
            for ts in [tile.lo, tile.hi] {
                assert_eq!(tiling.tile_at(ts), *tile, "every tick maps to its tile");
            }
            let inside = |span: &Span| span.0 <= tile.lo && tile.hi <= span.1;
            match tile.level {
                Some(level) => {
                    assert_eq!(time::truncate(level, tile.lo), tile.lo, "aligned start");
                    assert_eq!(bucket_end(level, tile.lo), tile.hi, "aligned end");
                    assert!(levels.contains(&level));
                    // No coarser level's bucket fits around it.
                    for coarser in levels.iter().filter(|l| level_tag(**l) < level_tag(level)) {
                        assert!(!fits(*coarser, tile.lo, from, to), "{coarser:?} fits");
                    }
                    assert!(regions.iter().any(|(l, s)| *l == level && inside(s)));
                }
                None => {
                    for level in levels {
                        assert!(
                            !fits(*level, tile.lo, from, to),
                            "{level:?} fits at the edge"
                        );
                    }
                    assert_eq!(time::truncate(edge, tile.lo), time::truncate(edge, tile.hi));
                    assert!(edges.iter().any(inside));
                }
            }
        }
        if !levels.is_empty() && complete {
            // At most the two partial edge-level buckets at the ends.
            assert!(edges.len() <= 2);
            assert!(forward.iter().filter(|t| t.level.is_none()).count() <= 2);
        }
        // The regions partition the range.
        let mut spans: Vec<Span> = regions.iter().map(|(_, s)| *s).chain(edges).collect();
        spans.sort_unstable();
        assert_eq!(spans.first().unwrap().0, from);
        assert_eq!(spans.last().unwrap().1, to);
        for pair in spans.windows(2) {
            assert_eq!(pair[0].1 + 1, pair[1].0, "regions partition the range");
        }
    }

    /// The subset `mask` of the levels and the edge level the engine pairs
    /// with it: the finest of them, or without any a level of `pick`.
    fn levels_and_edge(mask: usize, pick: usize) -> (Vec<TimeLevel>, TimeLevel) {
        let levels: Vec<TimeLevel> = LEVELS
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, l)| *l)
            .collect();
        let edge = match levels.last() {
            Some(finest) => *finest,
            None => [TimeLevel::Hour, TimeLevel::Minute, TimeLevel::Day][pick],
        };
        (levels, edge)
    }

    /// An endpoint near month boundaries — unaligned, or snapped to an
    /// hour, day or month boundary — or at or next to the `i64` limits.
    fn endpoint(kind: usize, h: i64, snap: i64) -> Timestamp {
        let ts = FEB_1_2021 + h * HOUR * 9 + 12_345 * (h % 7);
        match (kind, snap) {
            (0, _) => Timestamp::MIN,
            (1, _) => Timestamp::MAX,
            (2, _) => Timestamp::MIN + 1,
            (3, _) => Timestamp::MAX - 1,
            (_, 0) => ts,
            (_, 1) => time::truncate(TimeLevel::Hour, ts),
            (_, 2) => bucket_end(TimeLevel::Day, ts),
            _ => time::truncate(TimeLevel::Month, ts),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        // Tiles partition `[from, to]` exactly: disjoint, ascending, each
        // aligned to its level, and the coarsest level used wherever a
        // whole bucket fits.
        #[test]
        fn tiles_partition_the_range(
            mask in 0usize..8,
            pick in 0usize..3,
            ends in (0usize..12, -90i64..90, 0i64..4, 0usize..12, -90i64..90, 0i64..4),
            single in proptest::bool::ANY,
        ) {
            let (levels, edge) = levels_and_edge(mask, pick);
            let a = endpoint(ends.0, ends.1, ends.2);
            let b = endpoint(ends.3, ends.4, ends.5);
            let (from, to) = if single { (a, a) } else { (a.min(b), a.max(b)) };
            check_partition(&levels, edge, from, to);
            // Empty ranges have no tiles.
            if a != b {
                check_partition(&levels, edge, a.max(b), a.min(b));
            }
        }

        // The scan-side splitter puts every tick of a segment into exactly
        // one tile: the sub-ranges cover the tick range in order, and each
        // lies inside the tile its first tick maps to.
        #[test]
        fn splits_put_every_tick_in_one_tile(
            mask in 0usize..8,
            pick in 0usize..3,
            start in -200i64..200,
            si_pick in 0usize..4,
            len in 1usize..2_000,
            fracs in (0usize..100, 0usize..100),
            whole in proptest::bool::ANY,
        ) {
            let (levels, edge) = levels_and_edge(mask, pick);
            let si = [60_000i64, 600_000, 7 * 60_000 + 13, HOUR * 5][si_pick];
            let start = FEB_1_2021 + start * 977_000;
            let last = len - 1;
            let (a, b) = (last * fracs.0 / 100, last * fracs.1 / 100);
            let range = (a.min(b), a.max(b));
            let (from, to) = if whole {
                (Timestamp::MIN, Timestamp::MAX)
            } else {
                (start + range.0 as i64 * si - 3, start + range.1 as i64 * si + 5)
            };
            let tiling = Tiling::new(from, to, &levels, edge);
            let parts: Vec<_> = tiling.splits(start, si, range).collect();
            prop_assert_eq!(parts.first().unwrap().1 .0, range.0);
            prop_assert_eq!(parts.last().unwrap().1 .1, range.1);
            for pair in parts.windows(2) {
                prop_assert_eq!(pair[1].1 .0, pair[0].1 .1 + 1);
                prop_assert!(pair[0].0 < pair[1].0, "one sub-range per tile");
            }
            let mut count = 0;
            for (tile_lo, (i, j)) in &parts {
                let tile = tiling.tile_at(start + *i as i64 * si);
                prop_assert_eq!(tile.lo, *tile_lo);
                prop_assert_eq!(tiling.tile_at(start + *j as i64 * si), tile);
                count += j - i + 1;
            }
            // Summed per-tile COUNT equals the range's COUNT.
            prop_assert_eq!(count, range.1 - range.0 + 1);
        }
    }

    #[test]
    fn month_day_hour_tiling_of_a_ragged_range() {
        // 2021-01-30 18:20 → 2021-03-02 01:30.
        let from = FEB_1_2021 - 2 * 24 * HOUR + 18 * HOUR + 20 * 60_000;
        let march_1 = FEB_1_2021 + 28 * 24 * HOUR;
        let to = march_1 + 24 * HOUR + HOUR + 30 * 60_000;
        let tiling = Tiling::new(from, to, &LEVELS, TimeLevel::Hour);
        let (tiles, _, complete) = walk(&tiling, from, to);
        assert!(complete);
        let at = |level: Option<TimeLevel>| tiles.iter().filter(|t| t.level == level).count();
        // Feb whole; Jan 31 and Mar 1 whole days; 5 + 1 whole hours; two edges.
        assert_eq!(at(Some(TimeLevel::Month)), 1);
        assert_eq!(at(Some(TimeLevel::Day)), 2);
        assert_eq!(at(Some(TimeLevel::Hour)), 6);
        assert_eq!(at(None), 2);
        let (regions, edges) = tiling.regions();
        assert_eq!(regions.len(), 5);
        assert_eq!(
            edges,
            vec![(from, from + 40 * 60_000 - 1), (to - 30 * 60_000, to)]
        );
        // Unbounded: whole months everywhere, nothing else.
        let all = Tiling::new(Timestamp::MIN, Timestamp::MAX, &LEVELS, TimeLevel::Hour);
        let (regions, edges) = all.regions();
        assert_eq!(
            regions,
            vec![(TimeLevel::Month, (Timestamp::MIN, Timestamp::MAX))]
        );
        assert!(edges.is_empty());
    }

    #[test]
    fn whole_level_splits_match_the_level_buckets() {
        let tiling = Tiling::whole(TimeLevel::Day);
        let start = FEB_1_2021 - 3 * HOUR;
        let parts: Vec<_> = tiling.splits(start, HOUR, (0, 30)).collect();
        assert_eq!(
            parts,
            vec![
                (FEB_1_2021 - 24 * HOUR, (0, 2)),
                (FEB_1_2021, (3, 26)),
                (FEB_1_2021 + 24 * HOUR, (27, 30)),
            ]
        );
    }
}
