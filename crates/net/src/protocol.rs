//! The binary wire protocol: length-prefixed, versioned frames.
//!
//! Every message on a `forms-net` connection is one frame — a fixed
//! 28-byte little-endian header followed by a bounded payload:
//!
//! ```text
//!  offset  size  field
//!  0       4     magic  "FNET"
//!  4       1     version (currently 1)
//!  5       1     frame kind (see below)
//!  6       2     reserved, must be zero
//!  8       8     request id (echoed verbatim in the response)
//!  16      8     meta: Request → deadline in µs (0 = none)
//!                      Response → server-side latency in µs
//!                      all other kinds → must be zero
//!  24      4     payload length in bytes (≤ MAX_PAYLOAD)
//!  28      ...   payload
//! ```
//!
//! Payloads by kind:
//!
//! | kind | name             | payload |
//! |------|------------------|---------|
//! | 0    | Request          | flattened input sample, f32 little-endian |
//! | 1    | Response         | flattened output vector, f32 little-endian |
//! | 2    | Error            | 12 bytes: status `u8`, 3 zero pad bytes, `expected: u32`, `got: u32` (shape fields are zero unless status is BadShape) |
//! | 3    | TelemetryRequest | empty |
//! | 4    | Telemetry        | UTF-8 JSON of [`TelemetrySnapshot::to_json`](forms_serve::TelemetrySnapshot::to_json) |
//!
//! Decoding is *total*: any byte sequence either parses into a [`Frame`]
//! or yields a typed [`WireError`] — never a panic or an out-of-bounds
//! slice, which the fuzz-shaped property test in this crate pins.

use std::io::{Read, Write};
use std::time::Duration;

use forms_serve::ServeError;

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"FNET";
/// Wire-protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 28;
/// Largest accepted payload (16 MiB) — bounds per-connection memory and
/// rejects absurd length prefixes before any allocation happens.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Discriminant of a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server inference request.
    Request = 0,
    /// Server → client successful inference response.
    Response = 1,
    /// Server → client typed rejection/failure status.
    Error = 2,
    /// Client → server telemetry snapshot request.
    TelemetryRequest = 3,
    /// Server → client telemetry snapshot (JSON payload).
    Telemetry = 4,
}

impl FrameKind {
    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::Request),
            1 => Some(Self::Response),
            2 => Some(Self::Error),
            3 => Some(Self::TelemetryRequest),
            4 => Some(Self::Telemetry),
            _ => None,
        }
    }
}

/// Typed request-failure status carried by an Error frame — the wire form
/// of every [`ServeError`] variant, so admission shedding, deadline
/// expiry and degraded replicas surface as statuses on a live connection
/// instead of dropped sockets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum WireStatus {
    /// Admission queue full; request shed at the door.
    Shed = 1,
    /// Service is shutting down and no longer admits requests.
    ShuttingDown = 2,
    /// The deadline passed before a replica could execute the request.
    DeadlineExceeded = 3,
    /// The request was cancelled before execution.
    Cancelled = 4,
    /// The replica's engine failed while executing the batch.
    EngineFailed = 5,
    /// The owning replica was unhealthy and refused to return possibly
    /// corrupted results.
    Degraded = 6,
    /// The payload length does not match the service's sample shape; the
    /// Error frame's `expected`/`got` fields carry the two lengths.
    BadShape = 7,
}

impl WireStatus {
    /// Decodes a status byte.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(Self::Shed),
            2 => Some(Self::ShuttingDown),
            3 => Some(Self::DeadlineExceeded),
            4 => Some(Self::Cancelled),
            5 => Some(Self::EngineFailed),
            6 => Some(Self::Degraded),
            7 => Some(Self::BadShape),
            _ => None,
        }
    }
}

impl std::fmt::Display for WireStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::Shed => "shed",
            Self::ShuttingDown => "shutting-down",
            Self::DeadlineExceeded => "deadline-exceeded",
            Self::Cancelled => "cancelled",
            Self::EngineFailed => "engine-failed",
            Self::Degraded => "degraded",
            Self::BadShape => "bad-shape",
        };
        f.write_str(s)
    }
}

/// Maps a serving-layer error to its wire status plus the BadShape
/// `expected`/`got` payload fields (zero for every other variant).
pub fn status_of(err: ServeError) -> (WireStatus, u32, u32) {
    match err {
        ServeError::Shed => (WireStatus::Shed, 0, 0),
        ServeError::ShuttingDown => (WireStatus::ShuttingDown, 0, 0),
        ServeError::DeadlineExceeded => (WireStatus::DeadlineExceeded, 0, 0),
        ServeError::Cancelled => (WireStatus::Cancelled, 0, 0),
        ServeError::EngineFailed => (WireStatus::EngineFailed, 0, 0),
        ServeError::Degraded => (WireStatus::Degraded, 0, 0),
        ServeError::BadShape { expected, got } => (
            WireStatus::BadShape,
            u32::try_from(expected).unwrap_or(u32::MAX),
            u32::try_from(got).unwrap_or(u32::MAX),
        ),
    }
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → server inference request.
    Request {
        /// Client-chosen id, echoed in the response.
        id: u64,
        /// Latency budget in µs (0 = no deadline).
        deadline_us: u64,
        /// Flattened input sample.
        input: Vec<f32>,
    },
    /// Server → client successful response.
    Response {
        /// Echoed request id.
        id: u64,
        /// Server-side end-to-end latency in µs.
        latency_us: u64,
        /// Flattened output vector.
        output: Vec<f32>,
    },
    /// Server → client typed failure.
    Error {
        /// Echoed request id.
        id: u64,
        /// Why the request failed.
        status: WireStatus,
        /// Expected sample length (BadShape only, else 0).
        expected: u32,
        /// Submitted sample length (BadShape only, else 0).
        got: u32,
    },
    /// Client → server telemetry request.
    TelemetryRequest {
        /// Client-chosen id, echoed in the telemetry frame.
        id: u64,
    },
    /// Server → client telemetry snapshot.
    Telemetry {
        /// Echoed request id.
        id: u64,
        /// Pretty-printed JSON of the snapshot.
        json: String,
    },
}

impl Frame {
    /// The frame's kind byte.
    pub fn kind(&self) -> FrameKind {
        match self {
            Frame::Request { .. } => FrameKind::Request,
            Frame::Response { .. } => FrameKind::Response,
            Frame::Error { .. } => FrameKind::Error,
            Frame::TelemetryRequest { .. } => FrameKind::TelemetryRequest,
            Frame::Telemetry { .. } => FrameKind::Telemetry,
        }
    }

    /// The request id the frame carries or echoes.
    pub fn id(&self) -> u64 {
        match self {
            Frame::Request { id, .. }
            | Frame::Response { id, .. }
            | Frame::Error { id, .. }
            | Frame::TelemetryRequest { id }
            | Frame::Telemetry { id, .. } => *id,
        }
    }

    /// Appends the encoded frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Request {
                id,
                deadline_us,
                input,
            } => encode_request_into(*id, *deadline_us, input, out),
            Frame::Response {
                id,
                latency_us,
                output,
            } => encode_floats_into(FrameKind::Response, *id, *latency_us, output, out),
            Frame::Error {
                id,
                status,
                expected,
                got,
            } => {
                encode_header_into(FrameKind::Error, *id, 0, 12, out);
                out.push(*status as u8);
                out.extend_from_slice(&[0u8; 3]);
                out.extend_from_slice(&expected.to_le_bytes());
                out.extend_from_slice(&got.to_le_bytes());
            }
            Frame::TelemetryRequest { id } => {
                encode_header_into(FrameKind::TelemetryRequest, *id, 0, 0, out);
            }
            Frame::Telemetry { id, json } => {
                encode_header_into(FrameKind::Telemetry, *id, 0, json.len(), out);
                out.extend_from_slice(json.as_bytes());
            }
        }
    }

    /// Encodes into a fresh buffer (convenience for tests).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

/// Appends the bytes of `Frame::Request { id, deadline_us, input }` to
/// `out` without first copying `input` into an owned frame — the form a
/// client sends from a borrowed sample.
pub fn encode_request_into(id: u64, deadline_us: u64, input: &[f32], out: &mut Vec<u8>) {
    encode_floats_into(FrameKind::Request, id, deadline_us, input, out);
}

/// Appends a header plus an f32 little-endian tensor payload.
fn encode_floats_into(kind: FrameKind, id: u64, meta: u64, values: &[f32], out: &mut Vec<u8>) {
    encode_header_into(kind, id, meta, values.len() * 4, out);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends the fixed header, reserving room for the payload behind it.
fn encode_header_into(kind: FrameKind, id: u64, meta: u64, payload_len: usize, out: &mut Vec<u8>) {
    out.reserve(HEADER_LEN + payload_len);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&meta.to_le_bytes());
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
}

/// Why a byte sequence is not a frame (or could not be read).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte is not [`VERSION`].
    BadVersion(u8),
    /// The kind byte names no known frame kind.
    BadKind(u8),
    /// The reserved header bytes are non-zero.
    BadReserved(u16),
    /// A non-Request/Response frame carried a non-zero meta field.
    BadMeta(u64),
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// Claimed payload length.
        len: u32,
    },
    /// The buffer ends inside the fixed header.
    TruncatedHeader {
        /// Bytes available.
        got: usize,
    },
    /// The buffer ends inside the declared payload.
    TruncatedPayload {
        /// Bytes the length prefix declared.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The payload length is invalid for the frame kind (e.g. a tensor
    /// payload not divisible by 4, or an Error payload that is not 12
    /// bytes).
    BadPayloadLen {
        /// The frame kind being decoded.
        kind: FrameKind,
        /// The offending payload length.
        len: u32,
    },
    /// Error-frame padding bytes are non-zero.
    BadPadding,
    /// The status byte of an Error frame names no known status.
    BadStatus(u8),
    /// A Telemetry payload is not valid UTF-8.
    BadUtf8,
    /// Reading from the transport failed before any frame byte arrived
    /// within the configured read timeout — the poll/idle signal, not a
    /// protocol violation.
    Timeout,
    /// The transport failed mid-frame.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            Self::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            Self::BadKind(k) => write!(f, "unknown frame kind {k}"),
            Self::BadReserved(r) => write!(f, "non-zero reserved header field {r:#x}"),
            Self::BadMeta(m) => write!(f, "non-zero meta field {m} on a metaless frame"),
            Self::Oversized { len } => {
                write!(f, "payload length {len} exceeds the {MAX_PAYLOAD} cap")
            }
            Self::TruncatedHeader { got } => {
                write!(f, "truncated header: {got} of {HEADER_LEN} bytes")
            }
            Self::TruncatedPayload { needed, got } => {
                write!(f, "truncated payload: {got} of {needed} bytes")
            }
            Self::BadPayloadLen { kind, len } => {
                write!(f, "payload length {len} is invalid for {kind:?}")
            }
            Self::BadPadding => write!(f, "non-zero error-frame padding"),
            Self::BadStatus(s) => write!(f, "unknown wire status {s}"),
            Self::BadUtf8 => write!(f, "telemetry payload is not UTF-8"),
            Self::Timeout => write!(f, "read timed out before a frame arrived"),
            Self::Io(kind) => write!(f, "transport error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Decodes one frame from the front of `bytes`, returning the frame and
/// the number of bytes consumed.
///
/// Total over arbitrary input: every malformed prefix yields a typed
/// [`WireError`]; no input panics or reads out of bounds.
///
/// # Errors
///
/// See [`WireError`] — truncation, bad magic/version/kind, oversized or
/// kind-invalid payload lengths, bad status bytes, non-UTF-8 telemetry.
pub fn decode(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::TruncatedHeader { got: bytes.len() });
    }
    let header: &[u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().expect("sliced to length");
    let payload_len = decode_header_payload_len(header)?;
    let total = HEADER_LEN + payload_len as usize;
    if bytes.len() < total {
        return Err(WireError::TruncatedPayload {
            needed: payload_len as usize,
            got: bytes.len() - HEADER_LEN,
        });
    }
    let frame = decode_body(header, &bytes[HEADER_LEN..total])?;
    Ok((frame, total))
}

/// Validates the fixed fields of a header and returns the payload length.
fn decode_header_payload_len(header: &[u8; HEADER_LEN]) -> Result<u32, WireError> {
    if header[0..4] != MAGIC {
        return Err(WireError::BadMagic(
            header[0..4].try_into().expect("4 bytes"),
        ));
    }
    if header[4] != VERSION {
        return Err(WireError::BadVersion(header[4]));
    }
    let kind = FrameKind::from_code(header[5]).ok_or(WireError::BadKind(header[5]))?;
    let reserved = u16::from_le_bytes(header[6..8].try_into().expect("2 bytes"));
    if reserved != 0 {
        return Err(WireError::BadReserved(reserved));
    }
    let meta = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    if meta != 0 && !matches!(kind, FrameKind::Request | FrameKind::Response) {
        return Err(WireError::BadMeta(meta));
    }
    let payload_len = u32::from_le_bytes(header[24..28].try_into().expect("4 bytes"));
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::Oversized { len: payload_len });
    }
    validate_payload_len(kind, payload_len)?;
    Ok(payload_len)
}

/// Kind-specific payload length rules.
fn validate_payload_len(kind: FrameKind, len: u32) -> Result<(), WireError> {
    let ok = match kind {
        FrameKind::Request | FrameKind::Response => len.is_multiple_of(4),
        FrameKind::Error => len == 12,
        FrameKind::TelemetryRequest => len == 0,
        FrameKind::Telemetry => true,
    };
    if ok {
        Ok(())
    } else {
        Err(WireError::BadPayloadLen { kind, len })
    }
}

/// Decodes the payload of a length-validated header.
fn decode_body(header: &[u8; HEADER_LEN], payload: &[u8]) -> Result<Frame, WireError> {
    let kind = FrameKind::from_code(header[5]).expect("validated by the header pass");
    let id = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let meta = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    let floats = |payload: &[u8]| -> Vec<f32> {
        payload
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect()
    };
    Ok(match kind {
        FrameKind::Request => Frame::Request {
            id,
            deadline_us: meta,
            input: floats(payload),
        },
        FrameKind::Response => Frame::Response {
            id,
            latency_us: meta,
            output: floats(payload),
        },
        FrameKind::Error => {
            if payload[1..4] != [0, 0, 0] {
                return Err(WireError::BadPadding);
            }
            Frame::Error {
                id,
                status: WireStatus::from_code(payload[0])
                    .ok_or(WireError::BadStatus(payload[0]))?,
                expected: u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes")),
                got: u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes")),
            }
        }
        FrameKind::TelemetryRequest => Frame::TelemetryRequest { id },
        FrameKind::Telemetry => Frame::Telemetry {
            id,
            json: std::str::from_utf8(payload)
                .map_err(|_| WireError::BadUtf8)?
                .to_string(),
        },
    })
}

/// Reads one frame from a blocking stream.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed before
/// any byte of a new frame), [`WireError::Timeout`] when a configured
/// read timeout expired before a new frame began (so callers can poll
/// shutdown flags and idle clocks), and a typed error for everything
/// else — including timeouts *inside* a frame, which are transport
/// failures, not polls.
///
/// # Errors
///
/// See [`WireError`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    match read_exact_or_eof(r, &mut header)? {
        ReadProgress::Eof => return Ok(None),
        ReadProgress::Done => {}
    }
    let payload_len = decode_header_payload_len(&header)?;
    let mut payload = vec![0u8; payload_len as usize];
    let mut filled = 0usize;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(WireError::TruncatedPayload {
                    needed: payload.len(),
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.kind())),
        }
    }
    decode_body(&header, &payload).map(Some)
}

enum ReadProgress {
    Done,
    Eof,
}

/// Fills `buf` completely, distinguishing a clean EOF / timeout before the
/// first byte from truncation or failure mid-way.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<ReadProgress, WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(ReadProgress::Eof),
            Ok(0) => return Err(WireError::TruncatedHeader { got: filled }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if filled == 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(WireError::Timeout)
            }
            Err(e) => return Err(WireError::Io(e.kind())),
        }
    }
    Ok(ReadProgress::Done)
}

/// Encodes `frame` through `scratch` (cleared and reused across calls)
/// and writes it fully, flushing the writer.
///
/// # Errors
///
/// Propagates transport write/flush failures.
pub fn write_frame<W: Write>(
    w: &mut W,
    frame: &Frame,
    scratch: &mut Vec<u8>,
) -> std::io::Result<()> {
    scratch.clear();
    frame.encode_into(scratch);
    w.write_all(scratch)?;
    w.flush()
}

/// Converts a response latency to the µs wire field, saturating.
pub fn latency_to_us(latency: Duration) -> u64 {
    u64::try_from(latency.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let bytes = frame.encode();
        let (decoded, consumed) = decode(&bytes).expect("well-formed frame decodes");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, frame);
        // Stream reader agrees with the slice decoder.
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(decoded));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn every_frame_kind_round_trips() {
        round_trip(Frame::Request {
            id: 7,
            deadline_us: 250_000,
            input: vec![0.0, -1.5, 3.25e-5, f32::MAX],
        });
        round_trip(Frame::Request {
            id: u64::MAX,
            deadline_us: 0,
            input: vec![],
        });
        round_trip(Frame::Response {
            id: 8,
            latency_us: 1_234,
            output: vec![1.0; 128],
        });
        round_trip(Frame::Error {
            id: 9,
            status: WireStatus::BadShape,
            expected: 1152,
            got: 3,
        });
        round_trip(Frame::Error {
            id: 10,
            status: WireStatus::Degraded,
            expected: 0,
            got: 0,
        });
        round_trip(Frame::TelemetryRequest { id: 11 });
        round_trip(Frame::Telemetry {
            id: 12,
            json: "{\n  \"completed\": 3\n}".to_string(),
        });
    }

    #[test]
    fn every_serve_error_maps_to_a_distinct_status() {
        let errors = [
            ServeError::Shed,
            ServeError::ShuttingDown,
            ServeError::DeadlineExceeded,
            ServeError::Cancelled,
            ServeError::EngineFailed,
            ServeError::Degraded,
            ServeError::BadShape {
                expected: 4,
                got: 2,
            },
        ];
        let mut seen = Vec::new();
        for err in errors {
            let (status, expected, got) = status_of(err);
            assert!(!seen.contains(&status), "{status} mapped twice");
            assert_eq!(WireStatus::from_code(status as u8), Some(status));
            if let ServeError::BadShape { .. } = err {
                assert_eq!((expected, got), (4, 2));
            } else {
                assert_eq!((expected, got), (0, 0));
            }
            seen.push(status);
        }
    }

    #[test]
    fn decode_rejects_each_header_field_violation() {
        let good = Frame::TelemetryRequest { id: 3 }.encode();
        let mutate = |at: usize, to: u8| {
            let mut bytes = good.clone();
            bytes[at] = to;
            decode(&bytes).unwrap_err()
        };
        assert!(matches!(mutate(0, b'X'), WireError::BadMagic(_)));
        assert_eq!(mutate(4, 9), WireError::BadVersion(9));
        assert_eq!(mutate(5, 200), WireError::BadKind(200));
        assert_eq!(mutate(6, 1), WireError::BadReserved(1));
        assert_eq!(mutate(16, 1), WireError::BadMeta(1));
        assert_eq!(
            mutate(24, 4),
            WireError::BadPayloadLen {
                kind: FrameKind::TelemetryRequest,
                len: 4
            }
        );
    }

    #[test]
    fn decode_rejects_truncation_and_oversized_lengths() {
        let bytes = Frame::Request {
            id: 1,
            deadline_us: 0,
            input: vec![1.0, 2.0],
        }
        .encode();
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).unwrap_err();
            if cut < HEADER_LEN {
                assert_eq!(err, WireError::TruncatedHeader { got: cut });
            } else {
                assert_eq!(
                    err,
                    WireError::TruncatedPayload {
                        needed: 8,
                        got: cut - HEADER_LEN
                    }
                );
            }
        }
        let mut oversized = bytes;
        oversized[24..28].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            decode(&oversized).unwrap_err(),
            WireError::Oversized {
                len: MAX_PAYLOAD + 1
            }
        );
    }

    #[test]
    fn error_frame_payload_is_strictly_validated() {
        let good = Frame::Error {
            id: 1,
            status: WireStatus::Shed,
            expected: 0,
            got: 0,
        }
        .encode();
        let mut bad_status = good.clone();
        bad_status[HEADER_LEN] = 99;
        assert_eq!(decode(&bad_status).unwrap_err(), WireError::BadStatus(99));
        let mut bad_pad = good.clone();
        bad_pad[HEADER_LEN + 2] = 7;
        assert_eq!(decode(&bad_pad).unwrap_err(), WireError::BadPadding);
        // A request-kind payload must be float-aligned.
        let mut misaligned = Frame::Request {
            id: 1,
            deadline_us: 0,
            input: vec![1.0],
        }
        .encode();
        misaligned[24..28].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(
            decode(&misaligned[..HEADER_LEN + 3]).unwrap_err(),
            WireError::BadPayloadLen {
                kind: FrameKind::Request,
                len: 3
            }
        );
    }

    #[test]
    fn telemetry_payload_must_be_utf8() {
        let mut bytes = Frame::Telemetry {
            id: 2,
            json: "ab".to_string(),
        }
        .encode();
        bytes[HEADER_LEN] = 0xFF;
        assert_eq!(decode(&bytes).unwrap_err(), WireError::BadUtf8);
    }
}
