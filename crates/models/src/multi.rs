//! Multiple models per segment (Section 5.1): the baseline method that adds
//! group support to *any* single-series model by fitting one sub-model per
//! series and storing them together in one segment.
//!
//! The update cases of Figure 9 are implemented as follows: an append only
//! counts when **all** sub-models accept the timestamp (cases I/II). In case
//! III — some sub-models accept, a later one rejects — the segment's end time
//! is simply not incremented: the accepting sub-models keep the extra
//! constraint in their state (which only narrows what they emit; a *prefix*
//! of any model's reconstruction is still within bound), and the adapter
//! records each sub-model's own fitted length so decoding can cut the grid
//! back to the segment's length. For models whose parameter count grows with
//! the data points, e.g. Gorilla, the leftover parameters stay in the
//! child's parameters and are deleted on decode: the grid keeps only the
//! segment's prefix of each child's reconstruction.
//!
//! As the paper notes, this reduces duplicated metadata from `n` segments to
//! one but does not share parameters across series — Section 5.2's native
//! group models remain the interesting case, and `benches/mgc_ablation`
//! quantifies the difference.

use std::sync::Arc;

use mdb_types::{ErrorBound, Timestamp, Value};

use crate::{Fitter, ModelType, SegmentAgg};

/// Wraps a single-series model type into a group-capable one.
pub struct PerSeries {
    inner: Arc<dyn ModelType>,
    name: String,
}

impl PerSeries {
    /// A per-series adapter around `inner`.
    pub fn new(inner: Arc<dyn ModelType>) -> Self {
        let name = format!("{}/PerSeries", inner.name());
        Self { inner, name }
    }
}

impl ModelType for PerSeries {
    fn name(&self) -> &str {
        &self.name
    }

    fn fitter(&self, bound: ErrorBound, n_series: usize, length_limit: usize) -> Box<dyn Fitter> {
        let children = (0..n_series)
            .map(|_| self.inner.fitter(bound, 1, length_limit + 1))
            .collect();
        Box::new(PerSeriesFitter {
            children,
            len: 0,
            closed: false,
            length_limit,
        })
    }

    fn grid(&self, params: &[u8], n_series: usize, count: usize) -> Option<Vec<Value>> {
        let children = split_params(params, n_series)?;
        let mut per_series = Vec::with_capacity(n_series);
        for &(child_count, child_params) in &children {
            if child_count < count {
                return None;
            }
            let g = self.inner.grid(child_params, 1, child_count)?;
            per_series.push(g);
        }
        let mut out = Vec::with_capacity(count * n_series);
        for t in 0..count {
            for series in &per_series {
                out.push(*series.get(t)?);
            }
        }
        Some(out)
    }

    fn agg(
        &self,
        params: &[u8],
        n_series: usize,
        count: usize,
        range: (usize, usize),
        series: usize,
    ) -> Option<SegmentAgg> {
        if range.1 >= count {
            return None;
        }
        let (child_count, child_params) = *split_params(params, n_series)?.get(series)?;
        self.inner.agg(child_params, 1, child_count, range, 0)
    }

    /// Forwards to the child with the child's own count, as `agg` does: a
    /// prefix of a monotone series is monotone.
    fn monotone_value_at(
        &self,
        params: &[u8],
        n_series: usize,
        count: usize,
        t: usize,
        series: usize,
    ) -> Option<Value> {
        let (child_count, child_params) = *split_params(params, n_series)?.get(series)?;
        if t >= count || child_count < count {
            return None;
        }
        self.inner
            .monotone_value_at(child_params, 1, child_count, t, 0)
    }

    /// Each series is its child's, so the child's promise holds.
    fn attained_extremes(&self) -> bool {
        self.inner.attained_extremes()
    }
}

/// Parses the adapter's parameter layout: per child, varint fitted-count,
/// varint byte length, then the child's own parameters.
fn split_params(params: &[u8], n_series: usize) -> Option<Vec<(usize, &[u8])>> {
    let mut slice = params;
    let mut out = Vec::with_capacity(n_series);
    for _ in 0..n_series {
        let count = mdb_encoding::varint::read_u64(&mut slice)? as usize;
        let len = mdb_encoding::varint::read_u64(&mut slice)? as usize;
        if len > slice.len() {
            return None;
        }
        let (head, rest) = slice.split_at(len);
        out.push((count, head));
        slice = rest;
    }
    Some(out)
}

struct PerSeriesFitter {
    children: Vec<Box<dyn Fitter>>,
    len: usize,
    closed: bool,
    length_limit: usize,
}

impl Fitter for PerSeriesFitter {
    fn append(&mut self, timestamp: Timestamp, values: &[Value]) -> bool {
        debug_assert_eq!(values.len(), self.children.len());
        if self.closed || self.len >= self.length_limit {
            return false;
        }
        for (child, &v) in self.children.iter_mut().zip(values) {
            if !child.append(timestamp, &[v]) {
                // Case III of Figure 9: earlier children keep the extra
                // value; the segment's end time is not incremented.
                self.closed = true;
                return false;
            }
        }
        self.len += 1;
        true
    }

    fn len(&self) -> usize {
        self.len
    }

    fn params(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for child in &self.children {
            let p = child.params();
            mdb_encoding::varint::write_u64(&mut out, child.len() as u64);
            mdb_encoding::varint::write_u64(&mut out, p.len() as u64);
            out.extend_from_slice(&p);
        }
        out
    }

    fn byte_size(&self) -> usize {
        self.children.iter().map(|c| c.byte_size() + 2).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gorilla::Gorilla;
    use crate::pmc::PmcMean;
    use crate::swing::Swing;

    fn adapter(inner: Arc<dyn ModelType>) -> PerSeries {
        PerSeries::new(inner)
    }

    #[test]
    fn name_reflects_inner_model() {
        assert_eq!(adapter(Arc::new(PmcMean)).name(), "PMC-Mean/PerSeries");
    }

    #[test]
    fn independent_constants_fit_where_the_group_model_cannot() {
        // Two series far apart in value: the native group PMC fails on the
        // first row, but one PMC per series fits fine — the §5.1 trade-off.
        let bound = ErrorBound::absolute(1.0);
        let rows = [[10.0f32, 500.0], [10.1, 500.2], [9.9, 499.8]];
        let mut group = PmcMean.fitter(bound, 2, 50);
        assert!(!group.append(0, &rows[0]));
        let ps = adapter(Arc::new(PmcMean));
        let mut f = ps.fitter(bound, 2, 50);
        for (t, row) in rows.iter().enumerate() {
            assert!(f.append(t as i64 * 100, row));
        }
        let grid = ps.grid(&f.params(), 2, 3).unwrap();
        for (t, row) in rows.iter().enumerate() {
            for (s, &v) in row.iter().enumerate() {
                assert!(bound.within(grid[t * 2 + s], v));
            }
        }
    }

    #[test]
    fn case_iii_truncates_end_time() {
        // Series 0 accepts the last row, series 1 rejects it: the adapter's
        // length stays put and its parameters still reconstruct the prefix.
        let bound = ErrorBound::absolute(1.0);
        let ps = adapter(Arc::new(PmcMean));
        let mut f = ps.fitter(bound, 2, 50);
        assert!(f.append(0, &[10.0, 20.0]));
        assert!(f.append(100, &[10.5, 20.5]));
        // Series 0 stays at ~10 (fits); series 1 jumps to 90 (rejected).
        assert!(!f.append(200, &[10.2, 90.0]));
        assert_eq!(f.len(), 2);
        let grid = ps.grid(&f.params(), 2, 2).unwrap();
        for (t, row) in [[10.0f32, 20.0], [10.5, 20.5]].iter().enumerate() {
            for (s, &v) in row.iter().enumerate() {
                assert!(
                    bound.within(grid[t * 2 + s], v),
                    "{} vs {}",
                    grid[t * 2 + s],
                    v
                );
            }
        }
        // Once closed, later appends are rejected outright.
        assert!(!f.append(300, &[10.0, 20.0]));
    }

    #[test]
    fn gorilla_children_delete_leftover_parameters() {
        // Figure 9 case III for parameter-per-point models: child 0 absorbs
        // the extra value, but decoding only covers the prefix.
        let ps = adapter(Arc::new(Gorilla));
        let mut f = ps.fitter(ErrorBound::Lossless, 2, 2);
        assert!(f.append(0, &[1.0, 2.0]));
        assert!(f.append(100, &[3.0, 4.0]));
        assert!(!f.append(200, &[5.0, 6.0]));
        let grid = ps.grid(&f.params(), 2, 2).unwrap();
        assert_eq!(grid, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn swing_children_reconstruct_their_own_lines() {
        let bound = ErrorBound::relative(5.0);
        let ps = adapter(Arc::new(Swing));
        let mut f = ps.fitter(bound, 2, 50);
        let rows: Vec<[f32; 2]> = (0..20)
            .map(|t| [100.0 + t as f32, 500.0 - 2.0 * t as f32])
            .collect();
        for (t, row) in rows.iter().enumerate() {
            assert!(f.append(t as i64 * 1000, row), "failed at {t}");
        }
        let grid = ps.grid(&f.params(), 2, 20).unwrap();
        for (t, row) in rows.iter().enumerate() {
            for (s, &v) in row.iter().enumerate() {
                assert!(bound.within(grid[t * 2 + s], v), "t={t} s={s}");
            }
        }
    }

    #[test]
    fn agg_delegates_to_the_right_child() {
        let bound = ErrorBound::absolute(0.01);
        let ps = adapter(Arc::new(PmcMean));
        let mut f = ps.fitter(bound, 2, 50);
        for t in 0..10 {
            assert!(f.append(t * 100, &[1.0, 5.0]));
        }
        let params = f.params();
        let a0 = ps.agg(&params, 2, 10, (0, 9), 0).unwrap();
        let a1 = ps.agg(&params, 2, 10, (0, 9), 1).unwrap();
        assert!((a0.sum - 10.0).abs() < 0.2);
        assert!((a1.sum - 50.0).abs() < 0.2);
        assert!(ps.agg(&params, 2, 10, (0, 10), 0).is_none());
    }

    #[test]
    fn params_are_larger_than_native_group_models() {
        // The motivation for Section 5.2: per-series parameters do not share.
        let bound = ErrorBound::absolute(1.0);
        let rows: Vec<[f32; 4]> = (0..30).map(|_| [10.0, 10.1, 9.9, 10.05]).collect();
        let mut native = PmcMean.fitter(bound, 4, 50);
        let ps = adapter(Arc::new(PmcMean));
        let mut per_series = ps.fitter(bound, 4, 50);
        for (t, row) in rows.iter().enumerate() {
            assert!(native.append(t as i64, row));
            assert!(per_series.append(t as i64, row));
        }
        assert!(native.params().len() < per_series.params().len());
    }

    #[test]
    fn malformed_params_rejected() {
        let ps = adapter(Arc::new(PmcMean));
        assert!(ps.grid(&[1, 200], 2, 1).is_none());
        assert!(ps.grid(&[], 1, 1).is_none());
    }
}
