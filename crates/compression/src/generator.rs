//! The segment generator: the four-step ingestion method of Section 3.2.
//!
//! One generator compresses one *static* set of series (a whole group, or the
//! active subset of a group between gap events / dynamic splits). Per tick it
//! receives one value per series; models are fitted in registry order:
//!
//! 1. the tick is appended to the buffer,
//! 2. the current model tries to extend itself with the new values,
//! 3. on failure the next model replays the buffer from the start; when the
//!    *last* model can fit no more, the model with the best compression ratio
//!    is flushed as a segment,
//! 4. the data points represented by the flushed model leave the buffer and
//!    the process restarts from the first model on the remainder.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use mdb_models::{compression_ratio, Fitter, ModelRegistry, SEGMENT_HEADER_BYTES};
use mdb_types::{ErrorBound, GapsMask, Gid, MdbError, Result, SegmentRecord, Timestamp, Value};

use crate::CompressionConfig;

/// One buffered tick: the group's values at one timestamp (one value per
/// series handled by this generator, in member-position order).
#[derive(Debug, Clone)]
pub struct Tick {
    pub timestamp: Timestamp,
    pub values: Vec<Value>,
}

/// A candidate model recorded when its fitter stopped accepting ticks.
struct Candidate {
    mid: u8,
    len: usize,
    params: Vec<u8>,
}

impl Candidate {
    fn ratio(&self, n_series: usize) -> f64 {
        compression_ratio(self.len, n_series, SEGMENT_HEADER_BYTES + self.params.len())
    }
}

/// Compresses a fixed set of series of one group into segments.
pub struct SegmentGenerator {
    gid: Gid,
    sampling_interval: i64,
    /// Positions of the handled series within the *original* group; their
    /// complement becomes the segment's gaps mask.
    positions: Vec<usize>,
    group_size: usize,
    bound: ErrorBound,
    registry: Arc<ModelRegistry>,
    config: CompressionConfig,
    buffer: VecDeque<Tick>,
    /// Value vectors recycled from ticks that left the buffer, so steady-state
    /// ingestion pushes ticks without heap allocation.
    spare: Vec<Vec<Value>>,
    /// Index of the model currently fitting (into the registry order).
    model_idx: usize,
    fitter: Box<dyn Fitter>,
    /// How many buffer ticks the current fitter has consumed (== its len).
    fitted: usize,
    candidates: Vec<Candidate>,
    /// Reconstruction buffer for [`Self::verify`], reused across segments.
    grid: Vec<Value>,
    /// Segments emitted by this generator since it was created (drives the
    /// join-candidacy bookkeeping of Section 4.2).
    pub(crate) segments_emitted: u64,
    /// Join threshold state (Section 4.2): how many more segments must be
    /// emitted before the next join attempt.
    pub(crate) join_threshold: u64,
}

impl SegmentGenerator {
    /// A generator for the series at `positions` (within a group of
    /// `group_size`) of group `gid`.
    pub fn new(
        gid: Gid,
        sampling_interval: i64,
        positions: Vec<usize>,
        group_size: usize,
        registry: Arc<ModelRegistry>,
        config: CompressionConfig,
    ) -> Result<Self> {
        if registry.is_empty() {
            return Err(MdbError::Config("model registry is empty".into()));
        }
        if positions.is_empty() {
            return Err(MdbError::Config(
                "segment generator needs at least one series".into(),
            ));
        }
        let bound = config.error_bound;
        let fitter = registry
            .get(0)
            .unwrap()
            .fitter(bound, positions.len(), config.length_limit);
        Ok(Self {
            gid,
            sampling_interval,
            positions,
            group_size,
            bound,
            registry,
            config,
            buffer: VecDeque::new(),
            spare: Vec::new(),
            model_idx: 0,
            fitter,
            fitted: 0,
            candidates: Vec::new(),
            grid: Vec::new(),
            segments_emitted: 0,
            join_threshold: 1,
        })
    }

    /// The member positions handled by this generator.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// The number of series handled.
    pub fn n_series(&self) -> usize {
        self.positions.len()
    }

    /// The buffered, not-yet-emitted ticks (Algorithms 3 and 4 read these).
    pub fn buffer(&self) -> &VecDeque<Tick> {
        &self.buffer
    }

    /// The gaps mask of segments this generator emits: every position of the
    /// original group that this generator does *not* represent.
    fn gaps_mask(&self) -> GapsMask {
        let mut mask = GapsMask::EMPTY;
        for p in 0..self.group_size {
            if !self.positions.contains(&p) {
                mask.set(p);
            }
        }
        mask
    }

    /// Ingests the values for one tick (`values[i]` belongs to the series at
    /// `positions[i]`) and returns any segments that became final. The values
    /// are copied into a recycled buffer slot, so in steady state (no segment
    /// emission) a push performs no heap allocation.
    pub fn push(&mut self, timestamp: Timestamp, values: &[Value]) -> Result<Vec<SegmentRecord>> {
        debug_assert_eq!(values.len(), self.positions.len());
        let mut slot = self.spare.pop().unwrap_or_default();
        slot.clear();
        slot.extend_from_slice(values);
        self.buffer.push_back(Tick {
            timestamp,
            values: slot,
        });
        self.advance()
    }

    /// Step ii/iii of Section 3.2: feed unconsumed ticks to the current
    /// model, cascade through the model sequence on failure, and emit when
    /// the last model fails.
    fn advance(&mut self) -> Result<Vec<SegmentRecord>> {
        let mut out = Vec::new();
        while self.fitted < self.buffer.len() {
            let tick = &self.buffer[self.fitted];
            if self.fitter.append(tick.timestamp, &tick.values) {
                self.fitted += 1;
                continue;
            }
            self.record_candidate();
            if !self.next_model() {
                out.push(self.select_and_emit()?);
                self.reset_round();
            }
        }
        Ok(out)
    }

    /// Forces everything buffered out as segments (used at gap boundaries,
    /// splits, joins, and shutdown).
    pub fn flush(&mut self) -> Result<Vec<SegmentRecord>> {
        let mut out = Vec::new();
        while !self.buffer.is_empty() {
            // Let the current model consume what it can, then give every
            // untried model a chance before selecting (so a flush picks the
            // same winner a natural emission would).
            loop {
                while self.fitted < self.buffer.len() {
                    let tick = &self.buffer[self.fitted];
                    if self.fitter.append(tick.timestamp, &tick.values) {
                        self.fitted += 1;
                    } else {
                        break;
                    }
                }
                self.record_candidate();
                if !self.next_model() {
                    break;
                }
            }
            out.push(self.select_and_emit()?);
            self.reset_round();
        }
        Ok(out)
    }

    fn record_candidate(&mut self) {
        if !self.fitter.is_empty() {
            self.candidates.push(Candidate {
                mid: self.model_idx as u8,
                len: self.fitter.len(),
                params: self.fitter.params(),
            });
        }
    }

    /// Moves to the next model in the sequence, replaying from the buffer
    /// start. Returns false when the sequence is exhausted.
    fn next_model(&mut self) -> bool {
        if self.model_idx + 1 >= self.registry.len() {
            return false;
        }
        self.model_idx += 1;
        self.fitter = self.registry.get(self.model_idx as u8).unwrap().fitter(
            self.bound,
            self.positions.len(),
            self.config.length_limit,
        );
        self.fitted = 0;
        true
    }

    fn reset_round(&mut self) {
        self.model_idx = 0;
        self.fitter = self.registry.get(0).unwrap().fitter(
            self.bound,
            self.positions.len(),
            self.config.length_limit,
        );
        self.fitted = 0;
        self.candidates.clear();
    }

    /// Step iii of Section 3.2: pick the candidate with the best compression
    /// ratio, emit it as a segment, and drop the represented ticks.
    fn select_and_emit(&mut self) -> Result<SegmentRecord> {
        let n = self.positions.len();
        let best = self
            .candidates
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| {
                a.ratio(n)
                    .partial_cmp(&b.ratio(n))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    // Ties prefer the earlier (cheaper to query) model.
                    .then(ib.cmp(ia))
            })
            .map(|(i, _)| i);
        let best = match best {
            Some(i) => self.candidates.swap_remove(i),
            None => {
                return Err(MdbError::Ingestion(format!(
                    "gid {}: no model could represent the buffered values (registry has no lossless fallback?)",
                    self.gid
                )));
            }
        };
        let segment = self.build_segment(best)?;
        for _ in 0..segment.len() {
            if let Some(tick) = self.buffer.pop_front() {
                self.spare.push(tick.values);
            }
        }
        self.segments_emitted += 1;
        Ok(segment)
    }

    fn build_segment(&mut self, candidate: Candidate) -> Result<SegmentRecord> {
        let len = candidate.len;
        debug_assert!(len >= 1 && len <= self.buffer.len());
        let start_time = self.buffer[0].timestamp;
        let end_time = self.buffer[len - 1].timestamp;
        let mut mid = candidate.mid;
        let mut params = candidate.params;

        if self.config.verify_on_emit && !self.verify(mid, &params, len) {
            // Quantization pushed a lossy model out of bound: fall back to a
            // lossless encoding of the same ticks.
            let (fallback_mid, fallback_params) = self.lossless_fallback(len)?;
            mid = fallback_mid;
            params = fallback_params;
        }

        Ok(SegmentRecord {
            gid: self.gid,
            start_time,
            end_time,
            sampling_interval: self.sampling_interval,
            mid,
            params: Bytes::from(params),
            gaps: self.gaps_mask(),
        })
    }

    /// Reconstructs the candidate into the generator's reusable buffer and
    /// checks every value against the bound.
    fn verify(&mut self, mid: u8, params: &[u8], len: usize) -> bool {
        let model = match self.registry.get(mid) {
            Some(m) => m,
            None => return false,
        };
        let n = self.positions.len();
        // A short grid (a user model's bug) must fail, not skip values.
        if !model.grid_into(params, n, len, &mut self.grid) || self.grid.len() < len * n {
            return false;
        }
        let rows = self.grid.chunks_exact(n);
        for (tick, row) in self.buffer.iter().take(len).zip(rows) {
            for (&orig, &value) in tick.values.iter().zip(row) {
                if !self.bound.within(value, orig) {
                    return false;
                }
            }
        }
        true
    }

    fn lossless_fallback(&mut self, len: usize) -> Result<(u8, Vec<u8>)> {
        // Find a model that accepts everything under a lossless bound: fit
        // the exact ticks and demand full acceptance.
        let registry = Arc::clone(&self.registry);
        for (mid, model) in registry.iter() {
            let mut fitter = model.fitter(ErrorBound::Lossless, self.positions.len(), len.max(1));
            let mut ok = true;
            for tick in self.buffer.iter().take(len) {
                if !fitter.append(tick.timestamp, &tick.values) {
                    ok = false;
                    break;
                }
            }
            if ok && fitter.len() == len {
                let params = fitter.params();
                if self.verify(mid, &params, len) {
                    return Ok((mid, params));
                }
            }
        }
        Err(MdbError::Ingestion(format!(
            "gid {}: verification failed and no lossless fallback model exists",
            self.gid
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdb_models::{MID_GORILLA, MID_PMC_MEAN, MID_SWING};

    fn generator(n: usize, bound: ErrorBound) -> SegmentGenerator {
        let config = CompressionConfig {
            error_bound: bound,
            ..CompressionConfig::default()
        };
        SegmentGenerator::new(
            1,
            100,
            (0..n).collect(),
            n,
            Arc::new(ModelRegistry::standard()),
            config,
        )
        .unwrap()
    }

    fn within(
        bound: &ErrorBound,
        reg: &ModelRegistry,
        seg: &SegmentRecord,
        n: usize,
        rows: &[Vec<Value>],
        first_row: usize,
    ) {
        let model = reg.get(seg.mid).unwrap();
        let grid = model.grid(&seg.params, n, seg.len()).unwrap();
        for t in 0..seg.len() {
            for s in 0..n {
                let orig = rows[first_row + t][s];
                assert!(
                    bound.within(grid[t * n + s], orig),
                    "t={t} s={s}: {} vs {orig}",
                    grid[t * n + s]
                );
            }
        }
    }

    #[test]
    fn constant_signal_selects_pmc() {
        let mut g = generator(3, ErrorBound::absolute(0.5));
        let mut segments = Vec::new();
        for t in 0..120i64 {
            segments.extend(g.push(t * 100, &[10.0, 10.1, 9.9]).unwrap());
        }
        segments.extend(g.flush().unwrap());
        assert!(!segments.is_empty());
        assert!(
            segments.iter().all(|s| s.mid == MID_PMC_MEAN),
            "mids: {:?}",
            segments.iter().map(|s| s.mid).collect::<Vec<_>>()
        );
        // Segments partition the ticks: 120 ticks total.
        let total: usize = segments.iter().map(|s| s.len()).sum();
        assert_eq!(total, 120);
    }

    #[test]
    fn linear_signal_selects_swing() {
        let mut g = generator(2, ErrorBound::absolute(0.5));
        let mut segments = Vec::new();
        for t in 0..100i64 {
            let v = t as f32 * 2.0;
            segments.extend(g.push(t * 100, &[v, v + 0.2]).unwrap());
        }
        segments.extend(g.flush().unwrap());
        assert!(
            segments.iter().any(|s| s.mid == MID_SWING),
            "mids: {:?}",
            segments.iter().map(|s| s.mid).collect::<Vec<_>>()
        );
    }

    #[test]
    fn random_signal_falls_back_to_gorilla() {
        let mut g = generator(1, ErrorBound::absolute(0.0001));
        let mut segments = Vec::new();
        let mut x = 1234567u32;
        for t in 0..100i64 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let v = (x as f32 / u32::MAX as f32) * 1000.0;
            segments.extend(g.push(t * 100, &[v]).unwrap());
        }
        segments.extend(g.flush().unwrap());
        assert!(segments.iter().any(|s| s.mid == MID_GORILLA));
    }

    #[test]
    fn per_series_gorilla_segments_decode_to_their_ticks() {
        // Section 5.1's adapter fits one Gorilla stream per series, each
        // recording its own length; the emitted segments must still decode
        // bit-exactly to the ticks they cover.
        let reg = Arc::new(ModelRegistry::per_series_baseline());
        let bound = ErrorBound::absolute(0.0001);
        let config = CompressionConfig {
            error_bound: bound,
            ..CompressionConfig::default()
        };
        let mut g = SegmentGenerator::new(1, 100, vec![0, 1, 2], 3, reg.clone(), config).unwrap();
        let mut x = 987654321u32;
        let rows: Vec<Vec<Value>> = (0..230)
            .map(|t| {
                let mut next = || {
                    x = x.wrapping_mul(1103515245).wrapping_add(12345);
                    (x >> 8) as f32 / 1024.0
                };
                vec![if t % 90 < 40 { 7.5 } else { next() }, next(), next()]
            })
            .collect();
        let mut segments = Vec::new();
        for (t, row) in rows.iter().enumerate() {
            segments.extend(g.push(t as i64 * 100, row).unwrap());
        }
        segments.extend(g.flush().unwrap());
        assert_eq!(segments.iter().map(|s| s.len()).sum::<usize>(), rows.len());
        assert!(segments.iter().any(|s| s.mid == MID_GORILLA));
        let mut first_row = 0;
        for s in &segments {
            let grid = reg.get(s.mid).unwrap().grid(&s.params, 3, s.len()).unwrap();
            assert_eq!(grid.len(), s.len() * 3);
            for (t, row) in rows[first_row..first_row + s.len()].iter().enumerate() {
                for (col, &orig) in row.iter().enumerate() {
                    let value = grid[t * 3 + col];
                    if s.mid == MID_GORILLA {
                        assert_eq!(value.to_bits(), orig.to_bits(), "t={t} col={col}");
                    } else {
                        assert!(bound.within(value, orig), "t={t} col={col}");
                    }
                }
            }
            first_row += s.len();
        }
    }

    #[test]
    fn segments_are_disconnected_and_cover_all_ticks() {
        let mut g = generator(1, ErrorBound::absolute(1.0));
        let mut segments = Vec::new();
        let rows: Vec<Vec<Value>> = (0..300i64)
            .map(|t| {
                vec![if t % 60 < 30 {
                    10.0
                } else {
                    50.0 + t as f32 * 0.3
                }]
            })
            .collect();
        for (t, row) in rows.iter().enumerate() {
            segments.extend(g.push(t as i64 * 100, row).unwrap());
        }
        segments.extend(g.flush().unwrap());
        // Coverage: every tick appears in exactly one segment.
        let mut expected_start = 0i64;
        for s in &segments {
            assert_eq!(
                s.start_time, expected_start,
                "segments must not overlap or leave holes"
            );
            expected_start = s.end_time + 100;
        }
        assert_eq!(expected_start, 300 * 100);
        // And reconstruction respects the bound.
        let reg = ModelRegistry::standard();
        let bound = ErrorBound::absolute(1.0);
        let mut row_idx = 0;
        for s in &segments {
            within(&bound, &reg, s, 1, &rows, row_idx);
            row_idx += s.len();
        }
    }

    #[test]
    fn length_limit_bounds_segment_size() {
        let mut g = generator(1, ErrorBound::absolute(10.0));
        let mut segments = Vec::new();
        for t in 0..500i64 {
            segments.extend(g.push(t * 100, &[1.0]).unwrap());
        }
        segments.extend(g.flush().unwrap());
        assert!(segments.iter().all(|s| s.len() <= 50));
        assert_eq!(segments.iter().map(|s| s.len()).sum::<usize>(), 500);
    }

    #[test]
    fn flush_on_empty_buffer_is_a_noop() {
        let mut g = generator(1, ErrorBound::Lossless);
        assert!(g.flush().unwrap().is_empty());
        g.push(0, &[1.0]).unwrap();
        let s = g.flush().unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].len(), 1);
        assert!(g.flush().unwrap().is_empty());
    }

    #[test]
    fn gaps_mask_marks_absent_positions() {
        let config = CompressionConfig::default();
        let mut g = SegmentGenerator::new(
            7,
            100,
            vec![0, 2],
            3,
            Arc::new(ModelRegistry::standard()),
            config,
        )
        .unwrap();
        g.push(0, &[1.0, 1.0]).unwrap();
        let segs = g.flush().unwrap();
        assert_eq!(segs[0].gaps, GapsMask::from_positions(&[1]));
        assert_eq!(segs[0].gid, 7);
    }

    #[test]
    fn nan_values_are_representable_via_gorilla() {
        let mut g = generator(1, ErrorBound::relative(5.0));
        g.push(0, &[f32::NAN]).unwrap();
        g.push(100, &[1.0]).unwrap();
        let segs = g.flush().unwrap();
        let total: usize = segs.iter().map(|s| s.len()).sum();
        assert_eq!(total, 2);
        assert!(segs.iter().all(|s| s.mid == MID_GORILLA));
    }

    #[test]
    fn empty_registry_and_positions_rejected() {
        let reg = Arc::new(ModelRegistry::empty());
        assert!(
            SegmentGenerator::new(1, 100, vec![0], 1, reg, CompressionConfig::default()).is_err()
        );
        let reg = Arc::new(ModelRegistry::standard());
        assert!(
            SegmentGenerator::new(1, 100, vec![], 1, reg, CompressionConfig::default()).is_err()
        );
    }

    #[test]
    fn higher_error_bounds_use_fewer_bytes() {
        let signal: Vec<Vec<Value>> = (0..2000i64)
            .map(|t| vec![(t as f32 * 0.01).sin() * 100.0 + 500.0])
            .collect();
        let mut sizes = Vec::new();
        for pct in [0.0, 1.0, 5.0, 10.0] {
            let bound = if pct == 0.0 {
                ErrorBound::Lossless
            } else {
                ErrorBound::relative(pct)
            };
            let mut g = generator(1, bound);
            let mut bytes = 0usize;
            for (t, row) in signal.iter().enumerate() {
                for s in g.push(t as i64 * 100, row).unwrap() {
                    bytes += s.storage_bytes();
                }
            }
            for s in g.flush().unwrap() {
                bytes += s.storage_bytes();
            }
            sizes.push(bytes);
        }
        assert!(
            sizes[0] > sizes[1] && sizes[1] >= sizes[2] && sizes[2] >= sizes[3],
            "{sizes:?}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn all_emitted_segments_respect_the_bound(
            seed_values in proptest::collection::vec(proptest::collection::vec(-100.0f32..100.0, 2), 1..120),
            pct in 1.0f64..15.0,
        ) {
            let bound = ErrorBound::relative(pct);
            let reg = ModelRegistry::standard();
            let mut g = generator(2, bound);
            let mut segments = Vec::new();
            for (t, row) in seed_values.iter().enumerate() {
                segments.extend(g.push(t as i64 * 100, row).unwrap());
            }
            segments.extend(g.flush().unwrap());
            proptest::prop_assert_eq!(segments.iter().map(|s| s.len()).sum::<usize>(), seed_values.len());
            let mut row_idx = 0;
            for s in &segments {
                let model = reg.get(s.mid).unwrap();
                let grid = model.grid(&s.params, 2, s.len()).unwrap();
                for t in 0..s.len() {
                    for col in 0..2 {
                        let orig = seed_values[row_idx + t][col];
                        proptest::prop_assert!(
                            bound.within(grid[t * 2 + col], orig),
                            "t={} col={}: {} vs {}", t, col, grid[t * 2 + col], orig
                        );
                    }
                }
                row_idx += s.len();
            }
        }
    }
}
