//! User-defined models: the extension API of Section 3.1.
//!
//! ModelarDB+ treats models as black boxes behind the `ModelType`/`Fitter`
//! traits, so new model types plug in without touching the system. This
//! example adds a *step-function* model (one value per plateau, a cheap fit
//! for setpoint-style signals), registers it between Swing and Gorilla, and
//! shows the selection loop picking it when it wins.
//!
//! ```sh
//! cargo run --example custom_model
//! ```

use std::sync::Arc;

use modelardb::{
    ErrorBound, Fitter, ModelRegistry, ModelType, ModelarDbBuilder, SegmentAgg, SeriesSpec,
    Timestamp, Value,
};

/// A two-plateau step model: params = (first value, last value, step index).
/// It represents signals that hold one value, step once, and hold another —
/// which neither a constant (PMC) nor a line (Swing) captures cheaply.
struct Step;

struct StepFitter {
    bound: ErrorBound,
    limit: usize,
    first: Option<Value>,
    second: Option<Value>,
    step_at: usize,
    len: usize,
}

impl ModelType for Step {
    fn name(&self) -> &str {
        "Step"
    }

    fn fitter(&self, bound: ErrorBound, _n_series: usize, limit: usize) -> Box<dyn Fitter> {
        Box::new(StepFitter {
            bound,
            limit,
            first: None,
            second: None,
            step_at: 0,
            len: 0,
        })
    }

    fn grid(&self, params: &[u8], n_series: usize, count: usize) -> Option<Vec<Value>> {
        if params.len() < 12 {
            return None;
        }
        let a = Value::from_le_bytes(params[0..4].try_into().ok()?);
        let b = Value::from_le_bytes(params[4..8].try_into().ok()?);
        let step = u32::from_le_bytes(params[8..12].try_into().ok()?) as usize;
        let mut out = Vec::with_capacity(count * n_series);
        for t in 0..count {
            let v = if t < step { a } else { b };
            out.extend(std::iter::repeat_n(v, n_series));
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
        // Constant-time: sums of two plateaus.
        let grid = self.grid(params, 1, count)?;
        let _ = (n_series, series);
        let slice = &grid[range.0..=range.1];
        Some(SegmentAgg {
            sum: slice.iter().map(|&v| f64::from(v)).sum(),
            min: slice.iter().cloned().fold(f32::INFINITY, f32::min),
            max: slice.iter().cloned().fold(f32::NEG_INFINITY, f32::max),
        })
    }
}

impl Fitter for StepFitter {
    fn append(&mut self, _ts: Timestamp, values: &[Value]) -> bool {
        if self.len >= self.limit {
            return false;
        }
        // All group values must fit the current plateau.
        let plateau_fits = |p: Value| values.iter().all(|&v| self.bound.within(p, v));
        match (self.first, self.second) {
            (None, _) => self.first = Some(values[0]),
            (Some(a), None) => {
                if !plateau_fits(a) {
                    self.second = Some(values[0]);
                    self.step_at = self.len;
                    if !plateau_fits(values[0]) {
                        return false;
                    }
                }
            }
            (Some(_), Some(b)) => {
                if !plateau_fits(b) {
                    return false;
                }
            }
        }
        self.len += 1;
        true
    }

    fn len(&self) -> usize {
        self.len
    }

    fn params(&self) -> Vec<u8> {
        let a = self.first.unwrap_or(0.0);
        let b = self.second.unwrap_or(a);
        let step = if self.second.is_some() {
            self.step_at
        } else {
            self.len
        };
        let mut out = Vec::with_capacity(12);
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
        out.extend_from_slice(&(step as u32).to_le_bytes());
        out
    }

    fn byte_size(&self) -> usize {
        12
    }
}

fn main() -> modelardb::Result<()> {
    // Register: PMC, Swing, Step, then the lossless fallback.
    let mut registry = ModelRegistry::empty();
    registry.register(Arc::new(mdb_models::pmc::PmcMean));
    registry.register(Arc::new(mdb_models::swing::Swing));
    let step_mid = registry.register(Arc::new(Step));
    registry.register(Arc::new(mdb_models::gorilla::Gorilla));
    println!("model table: {:?}", registry.names());

    let mut builder = ModelarDbBuilder::new();
    builder.config_mut().compression.error_bound = ErrorBound::relative(1.0);
    // Raise the model length limit: a Step model pays off when one instance
    // spans two whole plateaus (80 ticks here), which the default limit of
    // 50 would truncate back to PMC territory.
    builder.config_mut().compression.length_limit = 200;
    builder
        .with_registry(registry)
        .add_series(SeriesSpec::new("setpoint", 100));
    let mut db = builder.build()?;

    // A setpoint signal: plateaus with steps, plus sensor noise well inside
    // the 1 % bound. The noise stops Gorilla from exploiting bit-identical
    // repeats, the step defeats PMC (one value) and Swing (one line), so the
    // Step model's two plateaus per segment win the selection.
    for tick in 0..5_000i64 {
        let plateau = if (tick / 40) % 2 == 0 { 100.0 } else { 250.0 };
        let wander = ((tick / 80) % 5) as f32 * 2.0;
        let noise = ((tick.wrapping_mul(2_654_435_761) % 997) as f32 / 997.0 - 0.5) * 0.4;
        db.ingest_row(tick * 100, &[Some(plateau + wander + noise)])?;
    }
    db.flush()?;

    println!("\nmodel usage with the custom Step model registered:");
    for (model, share) in db.stats().model_shares() {
        println!("  {model}: {share:.1}%");
    }
    let step_share = db.stats().model_shares()[step_mid as usize].1;
    assert!(
        step_share > 10.0,
        "the step model should win plateaus+step segments: {step_share:.1}%"
    );

    let r = db.sql("SELECT COUNT_S(*), AVG_S(*), MIN_S(*), MAX_S(*) FROM Segment")?;
    println!(
        "\naggregates straight off the custom model:\n{}",
        r.to_table()
    );
    // The Step model does not promise that its extremes are attained values
    // (`ModelType::attained_extremes`), so no rollup cell answers a `Value`
    // filter here: every hour is scanned, its points filtered one by one.
    let r = db.sql("SELECT COUNT_S(*), MIN_S(*) FROM Segment WHERE Value > 200")?;
    println!(
        "\nthe upper plateaus, filtered point by point:\n{}",
        r.to_table()
    );
    Ok(())
}
