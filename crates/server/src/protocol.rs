//! The framed wire protocol.
//!
//! Every message is one length-prefixed frame on the TCP stream:
//!
//! ```text
//! [u32 le: payload length][u8: kind][payload…]
//! ```
//!
//! The length counts the kind byte plus the payload, must be at least 1,
//! and is bounded by [`MAX_FRAME_BYTES`] — an oversized prefix is rejected
//! before anything is allocated, so a hostile or broken client cannot make
//! the server reserve gigabytes. All integers are little-endian; floats
//! travel as their IEEE-754 bit patterns, so query results round-trip
//! **bit-identically** (the equivalence suites compare them with `==`).
//!
//! Damage containment: a frame whose *envelope* is intact but whose payload
//! is malformed (unknown kind, truncated fields, bad UTF-8) is answered
//! with a typed [`Response::Error`] frame and the connection keeps serving.
//! Only envelope-level damage — an oversized length prefix, or the stream
//! ending mid-frame — closes the connection, because resynchronization is
//! impossible once the framing itself cannot be trusted.

use mdb_query::{Cell, DatastoreHealth, QueryResult};
use mdb_types::{MdbError, RowBatch, Tid, Timestamp, Value};

/// Protocol revision; bumped on any incompatible change. The server rejects
/// a `Hello` carrying a different version with [`ErrorCode::Protocol`].
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on one frame's payload (16 MiB — comfortably above the
/// largest batch `repro serve` ships, far below an OOM).
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Upper bound on the series count one `IngestBatch` frame may claim.
/// Decoding allocates one column per claimed series *before* any cell data
/// is read, so without this cap a 9-byte frame claiming `u32::MAX` series
/// and zero rows would drive a multi-GB allocation. 65 536 is far above any
/// realistic batch width (the repro workloads use dozens of series) while
/// keeping the worst-case pre-allocation at a few MB.
pub const MAX_BATCH_SERIES: usize = 65_536;

/// Rows per [`Response::ResultRows`] frame when a result is streamed.
pub const RESULT_CHUNK_ROWS: usize = 256;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens the session; must be the first frame.
    Hello { version: u32 },
    /// Runs one SQL statement.
    Sql { text: String },
    /// Parses and remembers a statement under a session-local name.
    Prepare { name: String, sql: String },
    /// Runs a statement prepared earlier in this session.
    ExecPrepared { name: String },
    /// Ingests a full-width row batch (column `i` = catalog series `i`).
    IngestBatch(RowBatch),
    /// Ingests loose points, assembled into rows by the datastore.
    IngestPoints(Vec<(Tid, Timestamp, Value)>),
    /// Drains every buffer so subsequent queries see the ingested data.
    Flush,
    /// Probes the datastore's health.
    Health,
    /// Sets a session option (`errors = strict | deferred`).
    SetOption { key: String, value: String },
    /// Ends the session cleanly.
    Bye,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answers `Hello`.
    Hello { version: u32, session: u64 },
    /// The request succeeded and produced no result set.
    Ok { info: String },
    /// The request failed; the session stays usable.
    Error { code: ErrorCode, message: String },
    /// Starts a result set: the column names.
    ResultHeader { columns: Vec<String> },
    /// A chunk of result rows (streamed; order preserved).
    ResultRows { rows: Vec<Vec<Cell>> },
    /// Ends a result set with the total row count.
    ResultEnd { rows: u64 },
    /// Answers `Health`.
    Health(DatastoreHealth),
}

/// Wire error taxonomy: [`MdbError`]'s variants plus the protocol itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    Config = 1,
    Ingestion = 2,
    /// The operation *succeeded*; an earlier deferred failure is being
    /// reported. Retrying would ingest the data twice.
    DeferredIngestion = 3,
    Corrupt = 4,
    Query = 5,
    NotFound = 6,
    Io = 7,
    /// A malformed frame, an unknown kind, or a version mismatch.
    Protocol = 8,
    /// The server is shutting down and no longer accepts work.
    Unavailable = 9,
}

impl ErrorCode {
    fn from_u8(code: u8) -> Option<Self> {
        Some(match code {
            1 => ErrorCode::Config,
            2 => ErrorCode::Ingestion,
            3 => ErrorCode::DeferredIngestion,
            4 => ErrorCode::Corrupt,
            5 => ErrorCode::Query,
            6 => ErrorCode::NotFound,
            7 => ErrorCode::Io,
            8 => ErrorCode::Protocol,
            9 => ErrorCode::Unavailable,
            _ => return None,
        })
    }

    /// The code for an engine-side error.
    pub fn of(error: &MdbError) -> Self {
        match error {
            MdbError::Config(_) => ErrorCode::Config,
            MdbError::Ingestion(_) => ErrorCode::Ingestion,
            MdbError::DeferredIngestion(_) => ErrorCode::DeferredIngestion,
            MdbError::Corrupt(_) => ErrorCode::Corrupt,
            MdbError::Query(_) => ErrorCode::Query,
            MdbError::NotFound(_) => ErrorCode::NotFound,
            MdbError::Io(_) => ErrorCode::Io,
        }
    }

    /// Reconstructs a client-side [`MdbError`] carrying `message`.
    pub fn into_error(self, message: String) -> MdbError {
        match self {
            ErrorCode::Config => MdbError::Config(message),
            ErrorCode::Ingestion => MdbError::Ingestion(message),
            ErrorCode::DeferredIngestion => MdbError::DeferredIngestion(message),
            ErrorCode::Corrupt => MdbError::Corrupt(message),
            ErrorCode::Query => MdbError::Query(message),
            ErrorCode::NotFound => MdbError::NotFound(message),
            ErrorCode::Io | ErrorCode::Protocol | ErrorCode::Unavailable => {
                MdbError::Io(std::io::Error::other(format!("{self:?}: {message}")))
            }
        }
    }
}

/// Why a frame's payload could not be decoded. The envelope itself is
/// validated by [`read_frame`], which reports damage (oversized length
/// prefix, stream ending mid-frame) as `io::Error` — by then
/// resynchronization is impossible and the session closes. A payload
/// error, in contrast, is always recoverable: the session answers with an
/// error frame and keeps serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The payload was malformed (unknown kind, truncated fields, bad
    /// UTF-8) inside an intact envelope.
    Malformed(String),
}

// ---------------------------------------------------------------- encoding

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    put_u32(out, v.to_bits());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_cell(out: &mut Vec<u8>, cell: &Cell) {
    match cell {
        Cell::Null => out.push(0),
        Cell::Int(v) => {
            out.push(1);
            put_i64(out, *v);
        }
        Cell::Float(v) => {
            out.push(2);
            put_f64(out, *v);
        }
        Cell::Str(v) => {
            out.push(3);
            put_str(out, v);
        }
        Cell::Timestamp(v) => {
            out.push(4);
            put_i64(out, *v);
        }
    }
}

fn put_batch(out: &mut Vec<u8>, batch: &RowBatch) {
    let view = batch.view();
    debug_assert!(view.n_series() <= MAX_BATCH_SERIES);
    put_u32(out, view.n_series() as u32);
    put_u32(out, view.len() as u32);
    for row in 0..view.len() {
        put_i64(out, view.timestamp(row));
    }
    // Validity bitmap (row-major), then the present values in the same
    // order — 1 bit + 4 bytes per present value instead of 5 bytes each.
    let cells = view.len() * view.n_series();
    let mut bitmap = vec![0u8; cells.div_ceil(8)];
    let mut values = Vec::new();
    for row in 0..view.len() {
        for series in 0..view.n_series() {
            if let Some(value) = view.get(row, series) {
                let bit = row * view.n_series() + series;
                bitmap[bit / 8] |= 1 << (bit % 8);
                values.push(value);
            }
        }
    }
    out.extend_from_slice(&bitmap);
    for value in values {
        put_f32(out, value);
    }
}

// ---------------------------------------------------------------- decoding

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

type Decoded<T> = std::result::Result<T, FrameError>;

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Decoded<&'a [u8]> {
        if self.buf.len() - self.at < n {
            return Err(FrameError::Malformed(format!(
                "truncated payload: wanted {n} bytes at offset {}, frame has {}",
                self.at,
                self.buf.len()
            )));
        }
        let slice = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// The next `N` bytes as an array, without a fallible conversion.
    fn take_array<const N: usize>(&mut self) -> Decoded<[u8; N]> {
        let mut array = [0u8; N];
        for (to, from) in array.iter_mut().zip(self.take(N)?) {
            *to = *from;
        }
        Ok(array)
    }

    fn u8(&mut self) -> Decoded<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Decoded<u16> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    fn u32(&mut self) -> Decoded<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    fn u64(&mut self) -> Decoded<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    fn i64(&mut self) -> Decoded<i64> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    fn f32(&mut self) -> Decoded<f32> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn f64(&mut self) -> Decoded<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length-prefixed count of items decoded one by one; the prefix is
    /// sanity-bounded by the remaining payload so a hostile length cannot
    /// drive a huge allocation before decoding fails anyway.
    fn count(&mut self, min_item_bytes: usize) -> Decoded<usize> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.at;
        if n.saturating_mul(min_item_bytes.max(1)) > remaining {
            return Err(FrameError::Malformed(format!(
                "count {n} exceeds remaining payload ({remaining} bytes)"
            )));
        }
        Ok(n)
    }

    fn str(&mut self) -> Decoded<String> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FrameError::Malformed("string is not UTF-8".to_string()))
    }

    fn cell(&mut self) -> Decoded<Cell> {
        Ok(match self.u8()? {
            0 => Cell::Null,
            1 => Cell::Int(self.i64()?),
            2 => Cell::Float(self.f64()?),
            3 => Cell::Str(self.str()?),
            4 => Cell::Timestamp(self.i64()?),
            tag => return Err(FrameError::Malformed(format!("unknown cell tag {tag}"))),
        })
    }

    fn batch(&mut self) -> Decoded<RowBatch> {
        let n_series = self.u32()? as usize;
        let n_rows = self.count(8)?;
        if n_series == 0 {
            return Err(FrameError::Malformed("batch has zero series".to_string()));
        }
        if n_series > MAX_BATCH_SERIES {
            return Err(FrameError::Malformed(format!(
                "batch claims {n_series} series (limit {MAX_BATCH_SERIES})"
            )));
        }
        let timestamps = self.take(n_rows * 8)?;
        let cells = n_rows * n_series;
        let bitmap = self.take(cells.div_ceil(8))?;
        // Padding bits past the last cell carry no value.
        let padding_mask = 0xffu8 >> ((8 - cells % 8) % 8);
        let present: usize = match bitmap.split_last() {
            Some((last, full)) => {
                full.iter().map(|b| b.count_ones() as usize).sum::<usize>()
                    + (last & padding_mask).count_ones() as usize
            }
            None => 0,
        };
        let mut values = self
            .take(present * 4)?
            .as_chunks::<4>()
            .0
            .iter()
            .map(|&v| f32::from_le_bytes(v));
        let mut batch = RowBatch::with_capacity(n_series, n_rows);
        for (row, &timestamp) in timestamps.as_chunks::<8>().0.iter().enumerate() {
            let timestamp = i64::from_le_bytes(timestamp);
            let first_bit = row * n_series;
            batch.push_row_with(timestamp, |series| {
                let bit = first_bit + series;
                if bitmap[bit / 8] >> (bit % 8) & 1 == 1 {
                    values.next()
                } else {
                    None
                }
            });
        }
        Ok(batch)
    }

    fn finish(self) -> Decoded<()> {
        if self.at != self.buf.len() {
            return Err(FrameError::Malformed(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.at
            )));
        }
        Ok(())
    }
}

// ----------------------------------------------------------- frame payloads

impl Request {
    fn kind(&self) -> u8 {
        match self {
            Request::Hello { .. } => 0x01,
            Request::Sql { .. } => 0x02,
            Request::Prepare { .. } => 0x03,
            Request::ExecPrepared { .. } => 0x04,
            Request::IngestBatch(_) => 0x05,
            Request::IngestPoints(_) => 0x06,
            Request::Flush => 0x07,
            Request::Health => 0x08,
            Request::SetOption { .. } => 0x09,
            Request::Bye => 0x0a,
        }
    }

    /// Serializes the request into a frame payload (kind byte included).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.kind()];
        match self {
            Request::Hello { version } => put_u32(&mut out, *version),
            Request::Sql { text } => put_str(&mut out, text),
            Request::Prepare { name, sql } => {
                put_str(&mut out, name);
                put_str(&mut out, sql);
            }
            Request::ExecPrepared { name } => put_str(&mut out, name),
            Request::IngestBatch(batch) => put_batch(&mut out, batch),
            Request::IngestPoints(points) => {
                put_u32(&mut out, points.len() as u32);
                for (tid, timestamp, value) in points {
                    put_u32(&mut out, *tid);
                    put_i64(&mut out, *timestamp);
                    put_f32(&mut out, *value);
                }
            }
            Request::Flush | Request::Health | Request::Bye => {}
            Request::SetOption { key, value } => {
                put_str(&mut out, key);
                put_str(&mut out, value);
            }
        }
        out
    }

    /// Decodes a frame payload (kind byte included).
    pub fn decode(payload: &[u8]) -> Decoded<Self> {
        let mut r = Reader::new(payload);
        let request = match r.u8()? {
            0x01 => Request::Hello { version: r.u32()? },
            0x02 => Request::Sql { text: r.str()? },
            0x03 => Request::Prepare {
                name: r.str()?,
                sql: r.str()?,
            },
            0x04 => Request::ExecPrepared { name: r.str()? },
            0x05 => Request::IngestBatch(r.batch()?),
            0x06 => {
                let n = r.count(16)?;
                let mut points = Vec::with_capacity(n);
                for _ in 0..n {
                    points.push((r.u32()?, r.i64()?, r.f32()?));
                }
                Request::IngestPoints(points)
            }
            0x07 => Request::Flush,
            0x08 => Request::Health,
            0x09 => Request::SetOption {
                key: r.str()?,
                value: r.str()?,
            },
            0x0a => Request::Bye,
            kind => {
                return Err(FrameError::Malformed(format!(
                    "unknown request kind 0x{kind:02x}"
                )))
            }
        };
        r.finish()?;
        Ok(request)
    }
}

impl Response {
    fn kind(&self) -> u8 {
        match self {
            Response::Hello { .. } => 0x81,
            Response::Ok { .. } => 0x82,
            Response::Error { .. } => 0x83,
            Response::ResultHeader { .. } => 0x84,
            Response::ResultRows { .. } => 0x85,
            Response::ResultEnd { .. } => 0x86,
            Response::Health(_) => 0x87,
        }
    }

    /// Serializes the response into a frame payload (kind byte included).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.kind()];
        match self {
            Response::Hello { version, session } => {
                put_u32(&mut out, *version);
                put_u64(&mut out, *session);
            }
            Response::Ok { info } => put_str(&mut out, info),
            Response::Error { code, message } => {
                out.push(*code as u8);
                put_str(&mut out, message);
            }
            Response::ResultHeader { columns } => {
                put_u16(&mut out, columns.len() as u16);
                for column in columns {
                    put_str(&mut out, column);
                }
            }
            Response::ResultRows { rows } => {
                put_u32(&mut out, rows.len() as u32);
                for row in rows {
                    put_u16(&mut out, row.len() as u16);
                    for cell in row {
                        put_cell(&mut out, cell);
                    }
                }
            }
            Response::ResultEnd { rows } => put_u64(&mut out, *rows),
            Response::Health(health) => {
                put_str(&mut out, &health.backend);
                out.push(health.degraded as u8);
                put_u32(&mut out, health.lost_gids.len() as u32);
                for gid in &health.lost_gids {
                    put_u32(&mut out, *gid);
                }
                put_str(&mut out, &health.detail);
            }
        }
        out
    }

    /// Decodes a frame payload (kind byte included).
    pub fn decode(payload: &[u8]) -> Decoded<Self> {
        let mut r = Reader::new(payload);
        let response = match r.u8()? {
            0x81 => Response::Hello {
                version: r.u32()?,
                session: r.u64()?,
            },
            0x82 => Response::Ok { info: r.str()? },
            0x83 => {
                let code = r.u8()?;
                let code = ErrorCode::from_u8(code)
                    .ok_or_else(|| FrameError::Malformed(format!("unknown error code {code}")))?;
                Response::Error {
                    code,
                    message: r.str()?,
                }
            }
            0x84 => {
                let n = r.u16()? as usize;
                let mut columns = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    columns.push(r.str()?);
                }
                Response::ResultHeader { columns }
            }
            0x85 => {
                let n = r.count(3)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let width = r.u16()? as usize;
                    let mut row = Vec::with_capacity(width.min(1024));
                    for _ in 0..width {
                        row.push(r.cell()?);
                    }
                    rows.push(row);
                }
                Response::ResultRows { rows }
            }
            0x86 => Response::ResultEnd { rows: r.u64()? },
            0x87 => {
                let backend = r.str()?;
                let degraded = r.u8()? != 0;
                let n = r.count(4)?;
                let mut lost_gids = Vec::with_capacity(n);
                for _ in 0..n {
                    lost_gids.push(r.u32()?);
                }
                Response::Health(DatastoreHealth {
                    backend,
                    degraded,
                    lost_gids,
                    detail: r.str()?,
                })
            }
            kind => {
                return Err(FrameError::Malformed(format!(
                    "unknown response kind 0x{kind:02x}"
                )))
            }
        };
        r.finish()?;
        Ok(response)
    }

    /// Splits a query result into the framed stream the server sends:
    /// header, row chunks of [`RESULT_CHUNK_ROWS`], end marker.
    pub fn stream_result(result: QueryResult) -> Vec<Response> {
        let total = result.rows.len() as u64;
        let mut frames = vec![Response::ResultHeader {
            columns: result.columns,
        }];
        let mut rows = result.rows;
        while !rows.is_empty() {
            let rest = rows.split_off(rows.len().min(RESULT_CHUNK_ROWS));
            frames.push(Response::ResultRows { rows });
            rows = rest;
        }
        frames.push(Response::ResultEnd { rows: total });
        frames
    }
}

// ---------------------------------------------------------------- frame i/o

/// Writes one frame (length prefix + payload) to `w`.
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(!payload.is_empty() && payload.len() <= MAX_FRAME_BYTES);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame's payload from `r`. Returns `Ok(None)` on a clean EOF at
/// a frame boundary; a stream ending mid-frame is an error.
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame's length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={MAX_FRAME_BYTES}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "stream ended inside a frame's payload",
            )
        } else {
            e
        }
    })?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: Request) {
        assert_eq!(Request::decode(&request.encode()).unwrap(), request);
    }

    fn round_trip_response(response: Response) {
        assert_eq!(Response::decode(&response.encode()).unwrap(), response);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Hello { version: 1 });
        round_trip_request(Request::Sql {
            text: "SELECT COUNT_S(*) FROM Segment".to_string(),
        });
        round_trip_request(Request::Prepare {
            name: "dash".to_string(),
            sql: "SELECT Tid FROM Segment".to_string(),
        });
        round_trip_request(Request::ExecPrepared {
            name: "dash".to_string(),
        });
        round_trip_request(Request::IngestPoints(vec![
            (1, 0, 1.5),
            (2, 100, f32::MIN_POSITIVE / 2.0),
        ]));
        round_trip_request(Request::Flush);
        round_trip_request(Request::Health);
        round_trip_request(Request::SetOption {
            key: "errors".to_string(),
            value: "deferred".to_string(),
        });
        round_trip_request(Request::Bye);
    }

    #[test]
    fn batches_round_trip_with_gaps() {
        let mut batch = RowBatch::new(3);
        batch.push_row(0, &[Some(1.0), None, Some(3.0)]);
        batch.push_row(100, &[None, None, None]);
        batch.push_row(200, &[Some(-0.0), Some(f32::MAX), None]);
        let decoded = match Request::decode(&Request::IngestBatch(batch.clone()).encode()).unwrap()
        {
            Request::IngestBatch(decoded) => decoded,
            other => panic!("decoded {other:?}"),
        };
        assert_eq!(decoded.len(), batch.len());
        assert_eq!(decoded.n_series(), batch.n_series());
        for row in 0..batch.len() {
            assert_eq!(decoded.timestamps()[row], batch.timestamps()[row]);
            for series in 0..batch.n_series() {
                // Compare bit patterns so -0.0 and NaN stay distinguishable.
                assert_eq!(
                    decoded.get(row, series).map(f32::to_bits),
                    batch.get(row, series).map(f32::to_bits)
                );
            }
        }
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        round_trip_response(Response::Hello {
            version: PROTOCOL_VERSION,
            session: 42,
        });
        round_trip_response(Response::Ok {
            info: "flushed".to_string(),
        });
        round_trip_response(Response::Error {
            code: ErrorCode::Query,
            message: "no such column".to_string(),
        });
        round_trip_response(Response::ResultHeader {
            columns: vec!["Tid".to_string(), "SUM_S".to_string()],
        });
        // f64 must survive exactly: subnormals, -0.0, and full precision.
        round_trip_response(Response::ResultRows {
            rows: vec![
                vec![Cell::Int(1), Cell::Float(0.1 + 0.2)],
                vec![Cell::Int(2), Cell::Float(-0.0)],
                vec![
                    Cell::Timestamp(1_609_459_200_000),
                    Cell::Float(f64::MIN_POSITIVE / 2.0),
                ],
                vec![Cell::Str("Aalborg".to_string()), Cell::Null],
            ],
        });
        round_trip_response(Response::ResultEnd { rows: 4 });
        round_trip_response(Response::Health(DatastoreHealth {
            backend: "cluster".to_string(),
            degraded: true,
            lost_gids: vec![3, 9],
            detail: "1/3 workers active".to_string(),
        }));
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panicked() {
        for payload in [
            &[][..],                         // empty payload
            &[0xff],                         // unknown request kind
            &[0x02, 10, 0, 0, 0, b'x'],      // string length beyond payload
            &[0x02, 1, 0, 0, 0, 0xf0],       // invalid UTF-8
            &[0x01, 1, 0],                   // truncated u32
            &[0x01, 1, 0, 0, 0, 9],          // trailing byte
            &[0x05, 0, 0, 0, 0, 0, 0, 0, 0], // batch with zero series
        ] {
            assert!(
                matches!(Request::decode(payload), Err(FrameError::Malformed(_))),
                "payload {payload:?}"
            );
        }
        assert!(Response::decode(&[0x83, 99, 0, 0, 0, 0]).is_err()); // unknown error code
    }

    #[test]
    fn bitmap_claiming_more_values_than_the_payload_holds_is_malformed() {
        let mut batch = RowBatch::new(3);
        batch.push_row(0, &[Some(1.0), None, Some(3.0)]);
        batch.push_row(100, &[None, Some(5.0), None]);
        let frame = Request::IngestBatch(batch).encode();
        // kind + n_series + n_rows + 2 timestamps, then the 1-byte bitmap.
        let bitmap_at = 1 + 4 + 4 + 2 * 8;
        assert_eq!(frame[bitmap_at], 0b0001_0101);
        // Claim all six cells present: 12 more bytes than the 3 values sent.
        let mut claims_more = frame.clone();
        claims_more[bitmap_at] = 0b0011_1111;
        assert!(matches!(
            Request::decode(&claims_more),
            Err(FrameError::Malformed(_))
        ));
        // One value short of what the honest bitmap claims.
        assert!(matches!(
            Request::decode(&frame[..frame.len() - 1]),
            Err(FrameError::Malformed(_))
        ));
        // Set padding bits past the last cell carry nothing and are ignored.
        let mut padded = frame.clone();
        padded[bitmap_at] |= 0b1100_0000;
        assert_eq!(
            Request::decode(&padded).unwrap(),
            Request::decode(&frame).unwrap()
        );
    }

    #[test]
    fn hostile_batch_width_is_rejected_before_allocation() {
        // A 9-byte frame claiming u32::MAX series and zero rows: the zero
        // row count means no bitmap or timestamp bytes constrain the claim,
        // so only the width cap stands between this frame and a ~240 GB
        // column allocation.
        let mut huge = vec![0x05];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            Request::decode(&huge),
            Err(FrameError::Malformed(_))
        ));

        // The same claim with one row is rejected by the cap too, before
        // the (absent) bitmap is even looked at.
        let mut wide = vec![0x05];
        wide.extend_from_slice(&u32::MAX.to_le_bytes());
        wide.extend_from_slice(&1u32.to_le_bytes());
        wide.extend_from_slice(&0i64.to_le_bytes());
        assert!(matches!(
            Request::decode(&wide),
            Err(FrameError::Malformed(_))
        ));

        // An honest empty batch with a real width still round-trips.
        let empty = RowBatch::new(16);
        match Request::decode(&Request::IngestBatch(empty).encode()).unwrap() {
            Request::IngestBatch(decoded) => {
                assert_eq!(decoded.len(), 0);
                assert_eq!(decoded.n_series(), 16);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn frame_io_round_trips_and_rejects_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Flush.encode()).unwrap();
        write_frame(&mut buf, &Request::Bye.encode()).unwrap();
        let mut r = &buf[..];
        assert_eq!(
            Request::decode(&read_frame(&mut r).unwrap().unwrap()).unwrap(),
            Request::Flush
        );
        assert_eq!(
            Request::decode(&read_frame(&mut r).unwrap().unwrap()).unwrap(),
            Request::Bye
        );
        assert!(read_frame(&mut r).unwrap().is_none()); // clean EOF

        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        let zero = 0u32.to_le_bytes();
        assert!(read_frame(&mut &zero[..]).is_err());
        let truncated = [5u8, 0, 0, 0, 0x07]; // claims 5 bytes, has 1
        assert!(read_frame(&mut &truncated[..]).is_err());
    }

    #[test]
    fn result_streaming_chunks_and_reassembles() {
        let mut result = QueryResult::new(vec!["Tid".to_string(), "V".to_string()]);
        for i in 0..(RESULT_CHUNK_ROWS * 2 + 7) {
            result
                .rows
                .push(vec![Cell::Int(i as i64), Cell::Float(i as f64 * 0.5)]);
        }
        let frames = Response::stream_result(result.clone());
        assert_eq!(frames.len(), 2 + 3); // header + 3 chunks + end
        let mut reassembled = QueryResult::default();
        for frame in frames {
            match frame {
                Response::ResultHeader { columns } => reassembled.columns = columns,
                Response::ResultRows { mut rows } => reassembled.rows.append(&mut rows),
                Response::ResultEnd { rows } => assert_eq!(rows, result.rows.len() as u64),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(reassembled, result);
    }

    #[test]
    fn error_codes_cover_every_mdb_error() {
        let errors = [
            MdbError::Config("c".into()),
            MdbError::Ingestion("i".into()),
            MdbError::DeferredIngestion("d".into()),
            MdbError::Corrupt("x".into()),
            MdbError::Query("q".into()),
            MdbError::NotFound("n".into()),
            MdbError::Io(std::io::Error::other("io")),
        ];
        for error in errors {
            let code = ErrorCode::of(&error);
            assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
            // The reconstructed client error keeps the variant (except the
            // i/o-ish codes, which all surface as Io).
            let back = code.into_error("m".to_string());
            assert_eq!(ErrorCode::of(&back), code);
        }
    }

    /// One valid payload of every request and response kind, the damage
    /// proptests' starting points.
    fn valid_frames() -> Vec<Vec<u8>> {
        let mut batch = RowBatch::new(3);
        batch.push_row(0, &[Some(1.0), None, Some(3.0)]);
        batch.push_row(100, &[None, None, None]);
        batch.push_row(200, &[Some(-0.0), Some(f32::MAX), None]);
        let requests = [
            Request::Hello { version: 1 },
            Request::Sql {
                text: "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid".to_string(),
            },
            Request::Prepare {
                name: "dash".to_string(),
                sql: "SELECT Tid FROM Segment".to_string(),
            },
            Request::ExecPrepared {
                name: "dash".to_string(),
            },
            Request::IngestBatch(batch),
            Request::IngestPoints(vec![(1, 0, 1.5), (2, 100, -2.5)]),
            Request::Flush,
            Request::Health,
            Request::SetOption {
                key: "errors".to_string(),
                value: "deferred".to_string(),
            },
            Request::Bye,
        ];
        let responses = [
            Response::Hello {
                version: PROTOCOL_VERSION,
                session: 42,
            },
            Response::Ok {
                info: "flushed".to_string(),
            },
            Response::Error {
                code: ErrorCode::Query,
                message: "no such column".to_string(),
            },
            Response::ResultHeader {
                columns: vec!["Tid".to_string(), "SUM_S".to_string()],
            },
            Response::ResultRows {
                rows: vec![
                    vec![Cell::Int(1), Cell::Float(0.5)],
                    vec![Cell::Timestamp(1_609_459_200_000), Cell::Null],
                    vec![Cell::Str("Aalborg".to_string()), Cell::Float(-0.0)],
                ],
            },
            Response::ResultEnd { rows: 3 },
            Response::Health(DatastoreHealth {
                backend: "cluster".to_string(),
                degraded: true,
                lost_gids: vec![3, 9],
                detail: "1/3 workers active".to_string(),
            }),
        ];
        requests
            .iter()
            .map(Request::encode)
            .chain(responses.iter().map(Response::encode))
            .collect()
    }

    proptest::proptest! {
        // Arbitrary bytes: each decoder returns a value or an error, and
        // never panics.
        #[test]
        fn decoders_never_panic_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..256),
        ) {
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
        }

        // Valid frames of every kind with bytes flipped, truncated at any
        // length, or extended: still a value or an error, never a panic.
        #[test]
        fn decoders_never_panic_on_damaged_frames(
            frame in proptest::num::usize::ANY,
            damage in 0usize..3,
            edits in proptest::collection::vec((proptest::num::usize::ANY, proptest::num::u8::ANY), 1..8),
        ) {
            let mut frames = valid_frames();
            let mut bytes = frames.swap_remove(frame % frames.len());
            let (at, byte) = edits[0];
            match damage {
                0 => {
                    for &(at, byte) in &edits {
                        let len = bytes.len();
                        bytes[at % len] ^= byte.max(1);
                    }
                }
                1 => bytes.truncate(at % (bytes.len() + 1)),
                _ => bytes.extend(edits.iter().map(|&(_, b)| b).chain([byte])),
            }
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
        }
    }
}
