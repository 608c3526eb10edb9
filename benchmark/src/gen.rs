//! Seeded inputs: the two data profiles, their catalogs, pre-generated
//! `RowBatch`es, and the dashboard query mix.
//!
//! Modelled on `mdb_datagen`'s EP/EH profiles but deliberately not depending
//! on it: the load this benchmark applies must not shift when that crate is
//! edited. The system under test only ever sees the `RowBatch`es and SQL
//! strings made here.

use std::sync::Arc;

use modelardb::{
    Catalog, Config, DimensionSchema, ErrorBound, ModelRegistry, ModelarDbBuilder, RowBatch,
    SeriesSpec,
};

/// 2021-01-01T00:00:00Z — day- and hour-aligned, so whole-bucket queries
/// can be written without calendar arithmetic.
pub const START_MS: i64 = 1_609_459_200_000;
pub const HOUR_MS: i64 = 3_600_000;
pub const DAY_MS: i64 = 24 * HOUR_MS;

/// Rows per `IngestBatch` frame.
pub const BATCH_ROWS: usize = 512;

/// The error bound every store in the benchmark is configured with. The
/// shipped default is lossless, under which every segment is Gorilla and
/// model selection is never exercised; 1 % lets the strongly correlated
/// profile use PMC-Mean/Swing while the noisy one stays Gorilla-heavy.
pub const ERROR_BOUND_PCT: f64 = 1.0;

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform in `[-1, 1)` from a hash of the inputs.
#[inline]
fn noise(seed: u64, a: u64, b: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(a ^ splitmix64(b)));
    (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// A small sequential generator for query parameters and shuffles.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(splitmix64(seed))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Shape of a generated data set.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    pub name: &'static str,
    /// Sampling interval.
    pub si_ms: i64,
    /// Correlated clusters (one entity each, one group each).
    pub clusters: usize,
    pub series_per_cluster: usize,
    /// Amplitude of the signal a cluster shares.
    pub shared_amplitude: f64,
    /// Independent per-series noise, relative to the shared amplitude.
    pub series_noise: f64,
    /// Chance that a series is silent for a whole gap window.
    pub gap_probability: f64,
    pub gap_window: u64,
}

/// Weakly correlated high-frequency series: Gorilla-heavy, the most segments
/// per point, the most work per ingested point.
pub const EH: Profile = Profile {
    name: "EH-like",
    si_ms: 100,
    clusters: 16,
    series_per_cluster: 4,
    shared_amplitude: 20.0,
    series_noise: 0.28,
    gap_probability: 0.005,
    gap_window: 256,
};

/// Strongly correlated minute-sampled series spanning many days, so hour and
/// day rollup cells are numerous.
pub const EP: Profile = Profile {
    name: "EP-like",
    si_ms: 60_000,
    clusters: 8,
    series_per_cluster: 4,
    shared_amplitude: 40.0,
    series_noise: 0.01,
    gap_probability: 0.01,
    gap_window: 64,
};

impl Profile {
    pub fn n_series(&self) -> usize {
        self.clusters * self.series_per_cluster
    }

    pub fn timestamp(&self, tick: u64) -> i64 {
        START_MS + tick as i64 * self.si_ms
    }

    /// Whether series `s` (0-based) reports at `tick` (gaps silence a series
    /// for a whole window).
    pub fn present(&self, seed: u64, s: usize, tick: u64) -> bool {
        noise(seed ^ 0xDEAD, s as u64 + 1, tick / self.gap_window).abs() >= self.gap_probability
    }

    /// How many of the ticks `from..to` series `s` reports at, a gap window
    /// at a time.
    pub fn present_in(&self, seed: u64, s: usize, from: u64, to: u64) -> u64 {
        let mut count = 0;
        let mut tick = from;
        while tick < to {
            let window_end = ((tick / self.gap_window + 1) * self.gap_window).min(to);
            if self.present(seed, s, tick) {
                count += window_end - tick;
            }
            tick = window_end;
        }
        count
    }

    /// The value of series `s` at `tick`, `None` inside a gap.
    pub fn value(&self, seed: u64, s: usize, tick: u64) -> Option<f32> {
        if !self.present(seed, s, tick) {
            return None;
        }
        let sid = s as u64 + 1;
        let cluster = (s / self.series_per_cluster) as u64;
        let t = tick as f64;
        let day = (DAY_MS / self.si_ms) as f64;
        let cycle = (t * std::f64::consts::TAU / day).sin();
        let drift = (t * std::f64::consts::TAU / (day * 7.3)).sin() * 0.5;
        let regime = noise(seed ^ 0xBEEF, cluster, tick / 517) * 0.8;
        let shared = (cycle + drift + regime) * self.shared_amplitude;
        let offset = noise(seed ^ 0xF00D, sid, 0) * self.shared_amplitude * 0.008;
        let jitter = (noise(seed, sid, tick) + noise(seed, sid, tick.saturating_sub(1)))
            * 0.5
            * self.series_noise
            * self.shared_amplitude;
        let base = 100.0 * (1.0 + cluster as f64 * 0.01);
        Some((base + shared + offset + jitter) as f32)
    }

    /// The ticks `first .. first + batches × BATCH_ROWS` as full-width
    /// batches, plus the number of non-gap points in them.
    pub fn batches(&self, seed: u64, first_tick: u64, batches: usize) -> (Vec<RowBatch>, u64) {
        let mut out = Vec::with_capacity(batches);
        let mut points = 0u64;
        let mut tick = first_tick;
        for _ in 0..batches {
            let mut batch = RowBatch::with_capacity(self.n_series(), BATCH_ROWS);
            for _ in 0..BATCH_ROWS {
                batch.push_row_with(self.timestamp(tick), |s| {
                    let v = self.value(seed, s, tick);
                    points += u64::from(v.is_some());
                    v
                });
                tick += 1;
            }
            out.push(batch);
        }
        (out, points)
    }

    /// The catalog for this profile (dimensions `Location: Park → Entity`
    /// and `Measure: Category → Signal`; one group per entity), with the
    /// model registry and the engine configuration every store shares.
    pub fn catalog(&self) -> (Arc<Catalog>, Arc<ModelRegistry>, Config) {
        let mut builder = ModelarDbBuilder::new();
        builder.config_mut().compression.error_bound = ErrorBound::relative(ERROR_BOUND_PCT);
        builder
            .add_dimension(
                DimensionSchema::from_leaf_up("Location", vec!["Entity".into(), "Park".into()])
                    .expect("static schema"),
            )
            .add_dimension(
                DimensionSchema::from_leaf_up("Measure", vec!["Signal".into(), "Category".into()])
                    .expect("static schema"),
            );
        for s in 0..self.n_series() {
            let cluster = s / self.series_per_cluster;
            let member = s % self.series_per_cluster;
            let park = format!("park{}", cluster / 2);
            let entity = format!("entity{cluster}");
            let category = if member.is_multiple_of(2) {
                "Electrical"
            } else {
                "Thermal"
            };
            let signal = format!("signal{member}");
            builder.add_series(
                SeriesSpec::new(format!("{entity}_s{member}"), self.si_ms)
                    .with_members("Location", &[&park, &entity])
                    .with_members("Measure", &[category, &signal]),
            );
        }
        // All Location levels equal ⇒ same entity ⇒ one group per cluster.
        builder.correlate("Location 0");
        let probe = builder.build().expect("the static catalog builds");
        let config = probe.config().clone();
        (
            Arc::new(probe.catalog().clone()),
            Arc::new(ModelRegistry::standard()),
            config,
        )
    }
}

/// The answer representation a query class exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// Narrow time-ranged `SUM_S`/`AVG_S … GROUP BY Tid`: zone pruning plus
    /// hour cells for the whole hours inside the range.
    Narrow,
    /// Bucket-aligned `CUBE_SUM_HOUR`/`CUBE_AVG_DAY`: rollup cells only.
    Cube,
    /// `PCTL_S`/`COUNT_DISTINCT`: block sketches only.
    Sketch,
    /// Full-span `GROUP BY <dimension>` with a whole-segment `EndTime`
    /// bound (which rollup cells cannot express): every segment of every
    /// group folded on its model, through the scan pool.
    Broad,
    /// `WHERE Value > x`: per-point filtering, no cells.
    ValueFilter,
    /// A short Data Point View range: reconstruction.
    Point,
}

impl Class {
    const ALL: [Class; 6] = [
        Class::Narrow,
        Class::Cube,
        Class::Sketch,
        Class::Broad,
        Class::ValueFilter,
        Class::Point,
    ];

    fn name(self) -> &'static str {
        match self {
            Class::Narrow => "narrow",
            Class::Cube => "cube",
            Class::Sketch => "sketch",
            Class::Broad => "broad",
            Class::ValueFilter => "value",
            Class::Point => "point",
        }
    }

    /// Queries of this class per 20 in the mix (50/15/10/10/10/5 %).
    fn per_twenty(self) -> usize {
        match self {
            Class::Narrow => 10,
            Class::Cube => 3,
            Class::Sketch | Class::Broad | Class::ValueFilter => 2,
            Class::Point => 1,
        }
    }
}

#[derive(Debug, Clone)]
pub struct MixQuery {
    pub class: &'static str,
    pub sql: String,
}

/// The dashboard mix over data spanning ticks `0..ticks` of `profile`:
/// `20 × scale` distinct queries with exact class shares and seeded
/// parameters. With `frozen`, every query's answer depends only on that
/// span — the sketch class (which takes no WHERE) keeps to
/// `COUNT_DISTINCT(Tid)` — so a concurrent writer appending later ticks
/// cannot change it.
pub fn dashboard_mix(
    profile: &Profile,
    ticks: u64,
    seed: u64,
    scale: usize,
    frozen: bool,
) -> Vec<MixQuery> {
    let mut rng = Rng::new(seed ^ 0x0D15_EA5E);
    let first = START_MS;
    let last = profile.timestamp(ticks - 1);
    let span = last - first;
    let n_series = profile.n_series() as u64;
    let hours = (span / HOUR_MS).max(1) as u64;
    let mut mix = Vec::new();
    for class in Class::ALL {
        for i in 0..class.per_twenty() * scale {
            let func = if i % 2 == 0 { "SUM_S" } else { "AVG_S" };
            let sql = match class {
                Class::Narrow => {
                    // About 1/24 of the span, deliberately unaligned.
                    let width = span / 24;
                    let from = first + rng.below((span - width) as u64) as i64;
                    format!(
                        "SELECT Tid, {func}(*) FROM Segment WHERE TS >= {from} AND TS <= {} \
                         GROUP BY Tid ORDER BY Tid",
                        from + width
                    )
                }
                Class::Cube => {
                    if i % 2 == 0 {
                        // Whole hours for one entity's series.
                        let n = hours.min(48);
                        let from = first + rng.below(hours - n + 1) as i64 * HOUR_MS;
                        let cluster = rng.below(profile.clusters as u64);
                        format!(
                            "SELECT Tid, CUBE_SUM_HOUR(*) FROM Segment WHERE Entity = 'entity{cluster}' \
                             AND TS >= {from} AND TS <= {} GROUP BY Tid ORDER BY Tid",
                            from + n as i64 * HOUR_MS - 1
                        )
                    } else {
                        // Whole days for one park's entities (when the data
                        // is shorter than a day, the one partial day).
                        let park = rng.below((profile.clusters as u64).div_ceil(2));
                        let days = (span / DAY_MS) as u64;
                        let n = days.clamp(1, 28);
                        let from = first + rng.below(days.saturating_sub(n) + 1) as i64 * DAY_MS;
                        format!(
                            "SELECT Entity, CUBE_AVG_DAY(*) FROM Segment WHERE Park = 'park{park}' \
                             AND TS >= {from} AND TS <= {} GROUP BY Entity ORDER BY Entity",
                            (from + n as i64 * DAY_MS - 1).min(last)
                        )
                    }
                }
                Class::Sketch => {
                    if frozen || i % 2 == 1 {
                        "SELECT COUNT_DISTINCT(Tid) FROM Segment".to_string()
                    } else {
                        format!("SELECT PCTL_S({}) FROM Segment", 50 + rng.below(50))
                    }
                }
                Class::Broad => {
                    let column = ["Park", "Entity", "Category", "Signal"][i % 4];
                    format!(
                        "SELECT {column}, {func}(*) FROM Segment WHERE EndTime <= {last} \
                         GROUP BY {column} ORDER BY {column}"
                    )
                }
                Class::ValueFilter => {
                    let x = 100.0 + rng.below(40) as f64 * 0.5;
                    format!(
                        "SELECT Tid, COUNT_S(*), {func}(*) FROM Segment WHERE Value > {x:.1} \
                         AND TS <= {last} GROUP BY Tid ORDER BY Tid"
                    )
                }
                Class::Point => {
                    let tid = 1 + rng.below(n_series);
                    let from = first + rng.below((span - 200 * profile.si_ms).max(1) as u64) as i64;
                    format!(
                        "SELECT Tid, TS, Value FROM DataPoint WHERE Tid = {tid} AND TS >= {from} \
                         AND TS <= {}",
                        from + 200 * profile.si_ms
                    )
                }
            };
            mix.push(MixQuery {
                class: class.name(),
                sql,
            });
        }
    }
    mix
}
