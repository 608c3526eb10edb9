//! Bit- and byte-level codecs shared by the models, the storage engine, and
//! the baseline formats.
//!
//! Everything here is implemented from scratch: the approved dependency list
//! contains no compression or encoding crates, and the paper's systems rely
//! on exactly these families of codecs —
//!
//! * [`bits`] — MSB-first bit streams, the substrate for Gorilla-style
//!   encodings (Pelkonen et al., reference \[28\] of the paper).
//! * [`varint`] — LEB128 variable-length integers and zigzag signed mapping.
//! * [`delta`] — delta and delta-of-delta timestamp compression as used by
//!   the Gorilla/InfluxDB storage engines.
//! * [`xor`] — XOR float compression (the value half of Gorilla), reused by
//!   both the MMGC Gorilla model and the InfluxDB-like baseline, with a
//!   64-bit twin for the storage engine's `f64` rollup columns.
//! * [`rle`] — run-length encoding with literal runs (ORC RLE-style).
//! * [`bitpack`] — fixed-width bit-packing (Parquet-style).
//! * [`lzss`] — an LZ77/LZSS general-purpose byte compressor with hash-chain
//!   match finding, standing in for the LZ4/Snappy block compression of
//!   Cassandra/Parquet/ORC.
//! * [`dict`] — string dictionary encoding for denormalized dimension
//!   columns.

pub mod bitpack;
pub mod bits;
pub mod delta;
pub mod dict;
pub mod lzss;
pub mod rle;
pub mod varint;
pub mod xor;

pub use bits::{BitReader, BitWriter};
