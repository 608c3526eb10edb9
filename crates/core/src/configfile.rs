//! The ModelarDB configuration file (Section 4.1).
//!
//! The paper specifies user hints "in ModelarDB's configuration file as
//! `modelardb.correlation` clauses"; this module parses that file format:
//!
//! ```text
//! # comments and blank lines are ignored
//! modelardb.error_bound          = 5.0          # percent, finite and >= 0; 0 = lossless
//! modelardb.length_limit         = 50
//! modelardb.dynamic_split        = true         # true/on/1 or false/off/0
//! modelardb.split_fraction       = 10
//! modelardb.bulk_write_size      = 50000
//! modelardb.storage              = memory       # or a directory path
//! modelardb.memory_budget        = 67108864     # block-cache bytes; or "unbounded"
//! modelardb.prefetch_depth       = 2            # blocks read ahead of a scan; 0 = off
//! modelardb.block_format         = v2           # layout for new blocks: v1 or v2
//! modelardb.ingest_queue_depth   = 8            # bound on buffered ingest batches
//! modelardb.max_connections      = 256          # concurrent server sessions (serve mode)
//! modelardb.rollup_levels        = hour, day, month  # continuous aggregates; "none" = off
//!
//! modelardb.dimension            = Location, Country, Park, Turbine
//! modelardb.dimension            = Measure, Category, Concrete
//!
//! # series: <source>, <sampling interval ms> [, <Dim>=<m1>/<m2>/…]
//! modelardb.source               = t9632.gz, 100, Location=Denmark/Aalborg/9632
//!
//! modelardb.correlation          = Location 2
//! modelardb.correlation          = Measure 1 Temperature; Location 1
//! modelardb.correlation.weight   = Location 2.0
//! modelardb.correlation.scaling  = Measure 1 ProductionMWh 4.75
//! ```
//!
//! Repeated `correlation` lines OR together; primitives inside one line are
//! separated by `;` and AND together — exactly the clause semantics of the
//! paper.

use std::path::PathBuf;

use mdb_partitioner::spec::{parse_scaling, parse_weight};
use mdb_partitioner::CorrelationSpec;
use mdb_query::CommonOptions;
use mdb_types::{BlockFormat, DimensionSchema, ErrorBound, MdbError, Result, TimeLevel};

use crate::builder::{ModelarDbBuilder, SeriesSpec};
use crate::engine::StorageSpec;

/// A parsed configuration file, ready to be turned into a builder.
#[derive(Debug, Clone, Default)]
pub struct ConfigFile {
    pub dimensions: Vec<DimensionSchema>,
    pub series: Vec<SeriesSpec>,
    pub correlation: CorrelationSpec,
    pub error_bound_percent: f64,
    pub length_limit: Option<usize>,
    pub dynamic_split: Option<bool>,
    pub split_fraction: Option<f64>,
    pub bulk_write_size: Option<usize>,
    pub storage: Option<StorageSpec>,
    /// `Some(budget)` when a `memory_budget` line was present: the inner
    /// value is the block-cache byte budget, `None` meaning "unbounded".
    pub memory_budget_bytes: Option<Option<u64>>,
    pub prefetch_depth: Option<usize>,
    pub block_format: Option<BlockFormat>,
    pub ingest_queue_depth: Option<usize>,
    /// Server-only (like [`ServerOptions::max_connections`]): ignored by
    /// the embedded engine and the cluster, applied by `serve` mode.
    ///
    /// [`ServerOptions::max_connections`]: mdb_server::ServerOptions
    pub max_connections: Option<usize>,
    /// `Some(levels)` when a `rollup_levels` line was present; `none`
    /// parses to an empty list (rollups off).
    pub rollup_levels: Option<Vec<TimeLevel>>,
}

impl ConfigFile {
    /// Parses configuration text.
    pub fn parse(text: &str) -> Result<Self> {
        let mut cfg = ConfigFile::default();
        for (number, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                MdbError::Config(format!("line {}: expected key = value", number + 1))
            })?;
            let key = key.trim().to_ascii_lowercase();
            let value = value.trim();
            let ctx = |e: MdbError| MdbError::Config(format!("line {}: {e}", number + 1));
            match key.as_str() {
                "modelardb.error_bound" => {
                    cfg.error_bound_percent = value
                        .parse::<f64>()
                        .ok()
                        .filter(|percent| percent.is_finite() && *percent >= 0.0)
                        .ok_or_else(|| {
                            MdbError::Config(format!(
                                "line {}: bad error bound {value:?} \
                                 (a finite percentage, 0 or more)",
                                number + 1
                            ))
                        })?;
                }
                "modelardb.length_limit" => {
                    let limit = parse_number(value, number)?;
                    if limit == 0 {
                        return Err(MdbError::Config(format!(
                            "line {}: bad length limit {value:?} \
                             (a segment holds at least one point)",
                            number + 1
                        )));
                    }
                    cfg.length_limit = Some(limit);
                }
                "modelardb.dynamic_split" => {
                    cfg.dynamic_split = Some(parse_bool(value, number)?);
                }
                "modelardb.split_fraction" => {
                    cfg.split_fraction = Some(value.parse::<f64>().map_err(|_| {
                        MdbError::Config(format!(
                            "line {}: bad split fraction {value:?}",
                            number + 1
                        ))
                    })?);
                }
                "modelardb.bulk_write_size" => {
                    cfg.bulk_write_size = Some(parse_number(value, number)?);
                }
                "modelardb.memory_budget" => {
                    cfg.memory_budget_bytes = Some(if value.eq_ignore_ascii_case("unbounded") {
                        None
                    } else {
                        Some(value.parse::<u64>().map_err(|_| {
                            MdbError::Config(format!(
                                "line {}: bad memory budget {value:?} (bytes or \"unbounded\")",
                                number + 1
                            ))
                        })?)
                    });
                }
                "modelardb.prefetch_depth" => {
                    cfg.prefetch_depth = Some(parse_number(value, number)?);
                }
                "modelardb.ingest_queue_depth" => {
                    cfg.ingest_queue_depth = Some(parse_number(value, number)?);
                }
                "modelardb.max_connections" => {
                    cfg.max_connections = Some(parse_number(value, number)?);
                }
                "modelardb.rollup_levels" => {
                    cfg.rollup_levels = Some(if value.eq_ignore_ascii_case("none") {
                        Vec::new()
                    } else {
                        value
                            .split(',')
                            .map(str::trim)
                            .map(|name| {
                                TimeLevel::parse(name).ok_or_else(|| {
                                    MdbError::Config(format!(
                                        "line {}: bad rollup level {name:?} \
                                         (year/month/day/hour/minute/second, or \"none\")",
                                        number + 1
                                    ))
                                })
                            })
                            .collect::<Result<Vec<TimeLevel>>>()?
                    });
                }
                "modelardb.block_format" => {
                    cfg.block_format = Some(match value.to_ascii_lowercase().as_str() {
                        "v1" | "1" => BlockFormat::V1,
                        "v2" | "2" => BlockFormat::V2,
                        _ => {
                            return Err(MdbError::Config(format!(
                                "line {}: bad block format {value:?} (v1 or v2)",
                                number + 1
                            )))
                        }
                    });
                }
                "modelardb.storage" => {
                    cfg.storage = Some(if value.eq_ignore_ascii_case("memory") {
                        StorageSpec::Memory
                    } else {
                        StorageSpec::Disk(PathBuf::from(value))
                    });
                }
                "modelardb.dimension" => {
                    let mut parts = value.split(',').map(str::trim);
                    let name = parts.next().filter(|s| !s.is_empty()).ok_or_else(|| {
                        MdbError::Config(format!("line {}: dimension needs a name", number + 1))
                    })?;
                    let levels: Vec<String> = parts.map(str::to_string).collect();
                    cfg.dimensions
                        .push(DimensionSchema::new(name, levels).map_err(ctx)?);
                }
                "modelardb.source" => {
                    cfg.series.push(parse_source(value, number)?);
                }
                "modelardb.correlation" => {
                    cfg.correlation.add_clause(value).map_err(ctx)?;
                }
                "modelardb.correlation.weight" => {
                    let (dim, weight) = parse_weight(value).map_err(ctx)?;
                    cfg.correlation.weights.insert(dim, weight);
                }
                "modelardb.correlation.scaling" => {
                    cfg.correlation
                        .scaling
                        .push(parse_scaling(value).map_err(ctx)?);
                }
                other => {
                    return Err(MdbError::Config(format!(
                        "line {}: unknown key {other}",
                        number + 1
                    )));
                }
            }
        }
        Ok(cfg)
    }

    /// Loads and parses a configuration file from disk.
    pub fn load(path: &std::path::Path) -> Result<Self> {
        Self::parse(&std::fs::read_to_string(path)?)
    }

    /// The deployment-shared knobs of the parsed file as one
    /// [`CommonOptions`] value — the single place the file's tuning lines
    /// are interpreted. Both the engine builder ([`ConfigFile::into_builder`])
    /// and a cluster config ([`ClusterConfig::from_common`]) start from it.
    ///
    /// [`ClusterConfig::from_common`]: mdb_cluster::ClusterConfig::from_common
    pub fn common_options(&self) -> CommonOptions {
        let mut options = CommonOptions::default();
        options.compression.error_bound = ErrorBound::relative(self.error_bound_percent);
        if let Some(limit) = self.length_limit {
            options.compression.length_limit = limit;
        }
        if let Some(split) = self.dynamic_split {
            options.compression.dynamic_split = split;
        }
        if let Some(fraction) = self.split_fraction {
            options.compression.split_fraction = fraction;
        }
        if let Some(size) = self.bulk_write_size {
            options.bulk_write_size = size;
        }
        if let Some(StorageSpec::Disk(dir)) = &self.storage {
            options.storage_dir = Some(dir.clone());
        }
        if let Some(budget) = self.memory_budget_bytes {
            options.memory_budget_bytes = budget;
        }
        if let Some(depth) = self.prefetch_depth {
            options.prefetch_depth = depth;
        }
        if let Some(depth) = self.ingest_queue_depth {
            options.ingest_queue_depth = depth;
        }
        if let Some(levels) = &self.rollup_levels {
            options.rollup_levels = levels.clone();
        }
        options
    }

    /// Turns the parsed file into a ready-to-build engine builder.
    pub fn into_builder(self) -> Result<ModelarDbBuilder> {
        let mut builder = ModelarDbBuilder::new();
        {
            let config = builder.config_mut();
            config.common = self.common_options();
            if let Some(storage) = self.storage {
                config.storage = storage;
            }
            if let Some(format) = self.block_format {
                config.block_format = format;
            }
        }
        for schema in self.dimensions {
            builder.add_dimension(schema);
        }
        for series in self.series {
            builder.add_series(series);
        }
        builder.with_correlation(self.correlation);
        Ok(builder)
    }
}

fn parse_number(value: &str, line: usize) -> Result<usize> {
    value
        .parse::<usize>()
        .map_err(|_| MdbError::Config(format!("line {}: bad number {value:?}", line + 1)))
}

/// `true`/`on`/`1` or `false`/`off`/`0`, ignoring case.
fn parse_bool(value: &str, line: usize) -> Result<bool> {
    match value.to_ascii_lowercase().as_str() {
        "true" | "on" | "1" => Ok(true),
        "false" | "off" | "0" => Ok(false),
        _ => Err(MdbError::Config(format!(
            "line {}: bad boolean {value:?} (true/on/1 or false/off/0)",
            line + 1
        ))),
    }
}

/// `<source>, <si ms> [, <Dimension>=<member>/<member>/…]…`
fn parse_source(value: &str, line: usize) -> Result<SeriesSpec> {
    let mut parts = value.split(',').map(str::trim);
    let source = parts
        .next()
        .filter(|s| !s.is_empty())
        .ok_or_else(|| MdbError::Config(format!("line {}: source needs a name", line + 1)))?;
    let si = parts
        .next()
        .and_then(|s| s.parse::<i64>().ok())
        .ok_or_else(|| {
            MdbError::Config(format!(
                "line {}: source needs a sampling interval",
                line + 1
            ))
        })?;
    let mut spec = SeriesSpec::new(source, si);
    for member_spec in parts {
        let (dim, path) = member_spec.split_once('=').ok_or_else(|| {
            MdbError::Config(format!(
                "line {}: expected Dimension=member/member, got {member_spec:?}",
                line + 1
            ))
        })?;
        let members: Vec<&str> = path.split('/').map(str::trim).collect();
        spec = spec.with_members(dim.trim(), &members);
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# wind farm deployment
modelardb.error_bound   = 5.0
modelardb.length_limit  = 100
modelardb.dynamic_split = true
modelardb.split_fraction = 4
modelardb.bulk_write_size = 1000
modelardb.storage       = memory
modelardb.memory_budget = 8388608
modelardb.prefetch_depth = 4
modelardb.block_format  = v2
modelardb.ingest_queue_depth = 16
modelardb.max_connections = 64

modelardb.dimension     = Location, Country, Park, Turbine
modelardb.dimension     = Measure, Category, Concrete

modelardb.source = t9632.gz, 100, Location=Denmark/Aalborg/9632, Measure=Temp/Nacelle
modelardb.source = t9634.gz, 100, Location=Denmark/Aalborg/9634, Measure=Temp/Nacelle
modelardb.source = t9572.gz, 100, Location=Denmark/Farsø/9572, Measure=Temp/Nacelle

modelardb.correlation   = Location 2
modelardb.correlation.weight  = Location 2.0
modelardb.correlation.scaling = series t9572.gz 4.75
";

    #[test]
    fn sample_file_parses_fully() {
        let cfg = ConfigFile::parse(SAMPLE).unwrap();
        assert_eq!(cfg.error_bound_percent, 5.0);
        assert_eq!(cfg.length_limit, Some(100));
        assert_eq!(cfg.dynamic_split, Some(true));
        assert_eq!(cfg.split_fraction, Some(4.0));
        assert_eq!(cfg.bulk_write_size, Some(1000));
        assert!(matches!(cfg.storage, Some(StorageSpec::Memory)));
        assert_eq!(cfg.memory_budget_bytes, Some(Some(8 << 20)));
        assert_eq!(cfg.prefetch_depth, Some(4));
        assert_eq!(cfg.block_format, Some(BlockFormat::V2));
        assert_eq!(cfg.ingest_queue_depth, Some(16));
        assert_eq!(cfg.max_connections, Some(64));
        assert_eq!(cfg.dimensions.len(), 2);
        assert_eq!(cfg.dimensions[0].name(), "Location");
        assert_eq!(cfg.dimensions[0].height(), 3);
        assert_eq!(cfg.series.len(), 3);
        assert_eq!(cfg.series[0].source, "t9632.gz");
        assert_eq!(cfg.series[0].sampling_interval, 100);
        assert_eq!(cfg.series[0].members.len(), 2);
        assert_eq!(cfg.correlation.clauses.len(), 1);
        assert_eq!(cfg.correlation.weight("Location"), 2.0);
        assert_eq!(cfg.correlation.scaling.len(), 1);
    }

    #[test]
    fn sample_file_builds_a_working_engine() {
        let mut db = ConfigFile::parse(SAMPLE)
            .unwrap()
            .into_builder()
            .unwrap()
            .build()
            .unwrap();
        // "Location 2": LCA ≥ 2 = same park → 9632+9634 share a group.
        assert_eq!(db.catalog().groups.len(), 2);
        assert_eq!(db.catalog().gid_of(1), db.catalog().gid_of(2));
        assert_eq!(db.catalog().scaling_of(3), 4.75);
        for t in 0..300i64 {
            db.ingest_row(t * 100, &[Some(55.0), Some(55.1), Some(11.6)])
                .unwrap();
        }
        db.flush().unwrap();
        let r = db
            .sql("SELECT Park, COUNT_S(*) FROM Segment GROUP BY Park ORDER BY Park")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn comments_blank_lines_and_case_are_tolerated() {
        let cfg = ConfigFile::parse("\n# only a comment\nMODELARDB.ERROR_BOUND = 1.0 # inline\n")
            .unwrap();
        assert_eq!(cfg.error_bound_percent, 1.0);
    }

    #[test]
    fn memory_budget_parses_bytes_and_unbounded() {
        let cfg = ConfigFile::parse("modelardb.memory_budget = unbounded").unwrap();
        assert_eq!(cfg.memory_budget_bytes, Some(None));
        let cfg = ConfigFile::parse("modelardb.memory_budget = 1024").unwrap();
        assert_eq!(cfg.memory_budget_bytes, Some(Some(1024)));
        assert!(ConfigFile::parse("modelardb.memory_budget = lots").is_err());
    }

    #[test]
    fn tuning_keys_land_in_common_options() {
        let cfg = ConfigFile::parse(SAMPLE).unwrap();
        let options = cfg.common_options();
        assert_eq!(options.ingest_queue_depth, 16);
        assert_eq!(options.bulk_write_size, 1000);
        assert_eq!(options.memory_budget_bytes, Some(8 << 20));
        // max_connections is server-only: not a CommonOptions knob.
        assert!(ConfigFile::parse("modelardb.max_connections = many").is_err());
        assert!(ConfigFile::parse("modelardb.prefetch_depth = -1").is_err());
        assert!(ConfigFile::parse("modelardb.ingest_queue_depth = none").is_err());
    }

    #[test]
    fn rollup_keys_parse_and_land_in_common_options() {
        let cfg = ConfigFile::parse("modelardb.rollup_levels = day, hour").unwrap();
        assert_eq!(
            cfg.rollup_levels,
            Some(vec![TimeLevel::Day, TimeLevel::Hour])
        );
        let options = cfg.common_options();
        assert_eq!(options.rollup_levels, vec![TimeLevel::Day, TimeLevel::Hour]);
        // "none" disables rollups; absent keys keep the defaults.
        let cfg = ConfigFile::parse("modelardb.rollup_levels = none").unwrap();
        assert_eq!(cfg.rollup_levels, Some(Vec::new()));
        assert!(cfg.common_options().rollup_levels.is_empty());
        let defaults = ConfigFile::parse("").unwrap().common_options();
        assert_eq!(
            defaults.rollup_levels,
            CommonOptions::default().rollup_levels
        );
        assert!(ConfigFile::parse("modelardb.rollup_levels = fortnight").is_err());
    }

    #[test]
    fn prefetch_and_block_format_parse() {
        let cfg = ConfigFile::parse("modelardb.prefetch_depth = 0").unwrap();
        assert_eq!(cfg.prefetch_depth, Some(0));
        let cfg = ConfigFile::parse("modelardb.block_format = v1").unwrap();
        assert_eq!(cfg.block_format, Some(BlockFormat::V1));
        assert!(ConfigFile::parse("modelardb.block_format = v3").is_err());
        assert!(ConfigFile::parse("modelardb.prefetch_depth = deep").is_err());
    }

    #[test]
    fn disk_storage_paths_parse() {
        let cfg = ConfigFile::parse("modelardb.storage = /var/lib/modelardb").unwrap();
        assert!(matches!(cfg.storage, Some(StorageSpec::Disk(p)) if p.ends_with("modelardb")));
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        for (bad, needle) in [
            ("modelardb.unknown = 1", "unknown key"),
            ("modelardb.query_parallelism = 2", "unknown key"),
            ("just some text", "expected key = value"),
            ("modelardb.error_bound = high", "bad error bound"),
            ("modelardb.source = only_name", "sampling interval"),
            (
                "modelardb.source = s, 100, NoEquals",
                "expected Dimension=member",
            ),
            ("modelardb.dimension = ", "dimension needs a name"),
            ("modelardb.correlation = @@@", "correlation"),
        ] {
            let err = ConfigFile::parse(bad).unwrap_err().to_string();
            assert!(
                err.contains(needle) || err.contains("line 1"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn error_bounds_that_are_not_finite_percentages_are_rejected() {
        for bad in ["-1", "NaN", "inf"] {
            let text = format!("modelardb.length_limit = 50\nmodelardb.error_bound = {bad}");
            let err = ConfigFile::parse(&text).unwrap_err();
            assert!(matches!(err, MdbError::Config(_)), "{bad}: {err}");
            let err = err.to_string();
            assert!(err.contains("line 2: bad error bound"), "{bad}: {err}");
        }
        for good in ["0", "0.0", "5", "12.5"] {
            let cfg = ConfigFile::parse(&format!("modelardb.error_bound = {good}")).unwrap();
            cfg.common_options();
        }
    }

    #[test]
    fn a_length_limit_of_zero_is_rejected() {
        let err =
            ConfigFile::parse("modelardb.error_bound = 5\nmodelardb.length_limit = 0").unwrap_err();
        assert!(matches!(err, MdbError::Config(_)), "{err}");
        let err = err.to_string();
        assert!(err.contains("line 2: bad length limit"), "{err}");
        for good in ["1", "50"] {
            let cfg = ConfigFile::parse(&format!("modelardb.length_limit = {good}")).unwrap();
            cfg.common_options();
        }
    }

    #[test]
    fn booleans_are_true_or_false_and_nothing_else() {
        for (text, expected) in [
            ("true", true),
            ("On", true),
            ("1", true),
            ("FALSE", false),
            ("off", false),
            ("0", false),
        ] {
            let cfg = ConfigFile::parse(&format!("modelardb.dynamic_split = {text}")).unwrap();
            assert_eq!(cfg.dynamic_split, Some(expected), "{text}");
        }
        for bad in ["yes", "enabled", "ture", ""] {
            let text = format!("# split\nmodelardb.dynamic_split = {bad}");
            let err = ConfigFile::parse(&text).unwrap_err();
            assert!(matches!(err, MdbError::Config(_)), "{bad:?}: {err}");
            let err = err.to_string();
            assert!(err.contains("line 2: bad boolean"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn load_reads_from_disk() {
        let dir = mdb_testutil::TempDir::new("configfile");
        let path = dir.join("modelardb.conf");
        std::fs::write(&path, SAMPLE).unwrap();
        let cfg = ConfigFile::load(&path).unwrap();
        assert_eq!(cfg.series.len(), 3);
    }
}
