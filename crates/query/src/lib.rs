//! Query processing directly on models (Section 6).
//!
//! ModelarDB+ exposes two SQL views:
//!
//! * the **Segment View** `(Tid, StartTime, EndTime, SI, Mid, Parameters,
//!   Gaps, <dimension columns…>)` on which aggregates execute directly on
//!   models — `SUM_S` over a linear model is constant time (Figure 11);
//! * the **Data Point View** `(Tid, TS, Value, <dimension columns…>)` on
//!   which queries run over reconstructed data points.
//!
//! Aggregate queries follow Algorithm 5 (rewrite → initialize → iterate →
//! finalize); aggregation in the time dimension follows Algorithm 6, which
//! splits each segment at calendar boundaries without joining a separate
//! time dimension table. The WHERE clause is rewritten from Tids and
//! dimension members to Gids so the store indexes only one id per segment
//! (Section 6.2).

pub mod aggregate;
pub mod cell;
pub mod datastore;
pub mod digest;
pub mod engine;
pub mod options;
pub mod shard;
pub mod sql;
mod tile;

pub use aggregate::{Accumulator, AggFunc};
pub use cell::{Cell, QueryResult};
pub use datastore::{Datastore, DatastoreHealth, PointAssembler};
pub use digest::{rollup_feed, sketch_feed, value_bounds_fn};
pub use engine::{Partial, QueryEngine};
pub use options::CommonOptions;
pub use shard::Shard;
pub use sql::{parse, Predicate, Query, SelectItem, SketchFunc, View};
