//! Core definitions shared by every crate in the ModelarDB+ reproduction.
//!
//! This crate mirrors the formal definitions of the paper (Section 2):
//!
//! * [`DataPoint`] — Definition 1 (time series as sequences of data points).
//! * Regular time series, sampling intervals, and gaps — Definitions 2–6,
//!   represented by [`TimeSeriesMeta`] plus [`GapsMask`].
//! * [`dimensions`] — Definition 7 (hierarchical dimensions with members,
//!   levels, and parents, topped by ⊤).
//! * Time series groups — Definition 8, represented by [`GroupMeta`].
//! * [`SegmentRecord`] — Definition 9 (the 6-tuple `(ts, te, SI, Gts, M, ε)`),
//!   in the storage layout of Figure 6.
//! * [`ErrorBound`] — the user-defined error bound `ε` (possibly zero).
//! * [`RowBatch`] — the columnar ingestion batch (timestamps column plus
//!   per-series value columns with validity bitmaps) that carries Table 1's
//!   bulk write size through every ingestion layer, not just the store.
//! * [`BlockMeta`] — per-block statistics of the out-of-core segment log
//!   (Section 3.3's block statistics), letting scans skip blocks before
//!   they are fetched from disk.
//!
//! It also provides [`time`], a dependency-free UTC civil-time calendar used
//! for aggregation in the time dimension (Section 6.3), and the shared
//! [`MdbError`] error type.

pub mod batch;
pub mod block;
pub mod bound;
pub mod datapoint;
pub mod dimensions;
pub mod error;
pub mod interval;
pub mod meta;
pub mod segment;
pub mod time;
pub mod view;

pub use batch::{BatchView, RowBatch};
pub use block::{BlockFormat, BlockMeta};
pub use bound::ErrorBound;
pub use datapoint::{DataPoint, Tid, Timestamp, Value};
pub use dimensions::{DimensionSchema, Dimensions, MemberId, LEVEL_TOP};
pub use error::{MdbError, Result};
pub use interval::ValueInterval;
pub use mdb_sketch::BlockSketch;
pub use meta::{Gid, GroupMeta, TimeSeriesMeta};
pub use segment::{GapsMask, SegmentRecord, MAX_GROUP_SIZE};
pub use time::TimeLevel;
pub use view::{encode_block_v2, BlockView, SegmentView};
