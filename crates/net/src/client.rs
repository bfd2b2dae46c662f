//! The client library: pipelined requests, reconnect-with-backoff,
//! per-request timeouts.
//!
//! [`NetClient`] is a blocking client for one `forms-net` server. Three
//! usage shapes:
//!
//! - **Call** — [`call`](NetClient::call) sends one request and blocks
//!   for its reply, transparently reconnecting (with exponential
//!   backoff) and resending once if the connection drops mid-call.
//! - **Pipeline** — [`send`](NetClient::send) /
//!   [`recv`](NetClient::recv) keep several requests in flight on one
//!   connection; replies arrive in request order (the server writes them
//!   FIFO per connection).
//! - **Split** — [`split`](NetClient::split) clones the socket into an
//!   independently-owned [`NetSender`]/[`NetReceiver`] pair so an
//!   open-loop load generator can submit from one thread while another
//!   drains replies.
//!
//! A rejection ([`WireStatus`]) is a *normal reply*, surfaced in
//! [`NetReply::outcome`] — only transport and protocol failures are
//! [`ClientError`]s.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use forms_serve::{json, TelemetrySnapshot};

use crate::protocol::{encode_request_into, read_frame, write_frame, Frame, WireError, WireStatus};

/// Connection and retry policy for a [`NetClient`].
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Connection attempts per connect/reconnect (≥ 1).
    pub connect_attempts: u32,
    /// Sleep before the second connection attempt.
    pub backoff: Duration,
    /// Growth factor of the backoff between attempts (`>= 1.0`).
    pub backoff_multiplier: f64,
    /// Socket read timeout while waiting for a reply; `None` blocks
    /// indefinitely. A reply slower than this fails the receive with
    /// [`ClientError::Timeout`].
    pub request_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_attempts: 5,
            backoff: Duration::from_millis(10),
            backoff_multiplier: 2.0,
            request_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// Why a client operation failed (transport/protocol level — request
/// rejections are successful replies carrying a [`WireStatus`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// Connecting (including every backoff retry) failed.
    Connect(std::io::ErrorKind),
    /// The transport failed mid-operation.
    Io(std::io::ErrorKind),
    /// The server sent bytes that do not frame.
    Wire(WireError),
    /// No reply arrived within the configured request timeout.
    Timeout,
    /// The server closed the connection with replies outstanding.
    ServerClosed,
    /// The server sent a frame kind a client should never receive.
    UnexpectedFrame,
    /// A reply's echoed id does not match the oldest in-flight request.
    IdMismatch {
        /// Id the pipeline expected next.
        expected: u64,
        /// Id the server echoed.
        got: u64,
    },
    /// A telemetry frame's JSON did not parse into a snapshot.
    BadTelemetry(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Connect(kind) => write!(f, "connect failed: {kind:?}"),
            Self::Io(kind) => write!(f, "transport error: {kind:?}"),
            Self::Wire(err) => write!(f, "protocol error: {err}"),
            Self::Timeout => write!(f, "no reply within the request timeout"),
            Self::ServerClosed => write!(f, "server closed with replies outstanding"),
            Self::UnexpectedFrame => write!(f, "server sent a client-bound-invalid frame"),
            Self::IdMismatch { expected, got } => {
                write!(f, "reply id {got} does not match in-flight id {expected}")
            }
            Self::BadTelemetry(why) => write!(f, "telemetry frame did not parse: {why}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// One resolved request: the echoed id, the outcome, and the server-side
/// latency (zero for rejections).
#[derive(Clone, Debug, PartialEq)]
pub struct NetReply {
    /// The id echoed from the request.
    pub id: u64,
    /// Output vector on success, typed rejection status otherwise.
    pub outcome: Result<Vec<f32>, WireStatus>,
    /// Server-reported end-to-end latency (submission to batch
    /// completion), zero for rejections.
    pub server_latency: Duration,
}

impl NetReply {
    /// Whether the request produced an output.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// A blocking client for one `forms-net` server.
#[derive(Debug)]
pub struct NetClient {
    addr: SocketAddr,
    config: ClientConfig,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// Ids of requests sent but not yet received, oldest first.
    in_flight: VecDeque<u64>,
    scratch: Vec<u8>,
}

impl NetClient {
    /// Connects to `addr`, retrying with exponential backoff per
    /// `config`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] with the final attempt's error kind after
    /// every attempt failed.
    pub fn connect(addr: SocketAddr, config: ClientConfig) -> Result<Self, ClientError> {
        let stream = connect_with_backoff(addr, &config)?;
        let (reader, writer) = split_stream(stream, &config)?;
        Ok(Self {
            addr,
            config,
            reader,
            writer,
            next_id: 1,
            in_flight: VecDeque::new(),
            scratch: Vec::new(),
        })
    }

    /// The server address this client targets.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests currently in flight on the pipeline.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Sends one request and blocks for its reply.
    ///
    /// On a connection-level failure with an empty pipeline, reconnects
    /// (with backoff) and resends once — safe because inference is
    /// idempotent and the dropped connection's request died with it. With
    /// requests already in flight the error is surfaced instead, since
    /// resending would desynchronize the pipeline.
    ///
    /// # Errors
    ///
    /// See [`ClientError`]. Rejections are `Ok` replies whose
    /// [`outcome`](NetReply::outcome) carries the status.
    pub fn call(
        &mut self,
        input: &[f32],
        deadline: Option<Duration>,
    ) -> Result<NetReply, ClientError> {
        let pipelined = !self.in_flight.is_empty();
        match self.try_call(input, deadline) {
            Err(ClientError::Io(_) | ClientError::ServerClosed) if !pipelined => {
                self.reconnect()?;
                self.try_call(input, deadline)
            }
            other => other,
        }
    }

    fn try_call(
        &mut self,
        input: &[f32],
        deadline: Option<Duration>,
    ) -> Result<NetReply, ClientError> {
        self.send(input, deadline)?;
        self.recv()
    }

    /// Sends one request without waiting for the reply (pipelining).
    /// Replies arrive in send order via [`recv`](Self::recv).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the transport write fails.
    pub fn send(&mut self, input: &[f32], deadline: Option<Duration>) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        send_request(&mut self.writer, &mut self.scratch, id, input, deadline)?;
        self.in_flight.push_back(id);
        Ok(id)
    }

    /// Blocks for the oldest in-flight request's reply.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] when no reply arrives within the request
    /// timeout; see [`ClientError`] for the rest.
    ///
    /// # Panics
    ///
    /// Panics if no request is in flight.
    pub fn recv(&mut self) -> Result<NetReply, ClientError> {
        assert!(!self.in_flight.is_empty(), "no request in flight");
        let expected = self.in_flight[0];
        let reply = recv_reply(&mut self.reader, expected)?;
        self.in_flight.pop_front();
        Ok(reply)
    }

    /// Requests a telemetry snapshot from the server.
    ///
    /// Must be called with an empty pipeline (the snapshot reply would
    /// otherwise interleave with inference replies).
    ///
    /// # Errors
    ///
    /// [`ClientError::BadTelemetry`] when the frame's JSON does not parse
    /// as a snapshot; see [`ClientError`] for transport failures.
    ///
    /// # Panics
    ///
    /// Panics if requests are in flight.
    pub fn telemetry(&mut self) -> Result<TelemetrySnapshot, ClientError> {
        assert!(
            self.in_flight.is_empty(),
            "telemetry() needs an empty pipeline"
        );
        let id = self.next_id;
        self.next_id += 1;
        write_frame(
            &mut self.writer,
            &Frame::TelemetryRequest { id },
            &mut self.scratch,
        )
        .map_err(|e| ClientError::Io(e.kind()))?;
        match read_reply_frame(&mut self.reader)? {
            Frame::Telemetry { id: got, json } => {
                if got != id {
                    return Err(ClientError::IdMismatch { expected: id, got });
                }
                let doc = json::parse(&json).map_err(ClientError::BadTelemetry)?;
                TelemetrySnapshot::from_json(&doc).map_err(ClientError::BadTelemetry)
            }
            _ => Err(ClientError::UnexpectedFrame),
        }
    }

    /// Splits the client into an independently-owned sender/receiver pair
    /// over the same connection, for open-loop load generation from two
    /// threads. The pipeline must be empty.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the socket cannot be cloned.
    ///
    /// # Panics
    ///
    /// Panics if requests are in flight.
    pub fn split(self) -> Result<(NetSender, NetReceiver), ClientError> {
        assert!(self.in_flight.is_empty(), "split() needs an empty pipeline");
        Ok((
            NetSender {
                writer: self.writer,
                next_id: self.next_id,
                scratch: self.scratch,
            },
            NetReceiver {
                reader: self.reader,
                next_id: self.next_id,
            },
        ))
    }

    /// Tears down the socket and dials again with backoff, resetting the
    /// pipeline (in-flight requests died with the old connection).
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = connect_with_backoff(self.addr, &self.config)?;
        let (reader, writer) = split_stream(stream, &self.config)?;
        self.reader = reader;
        self.writer = writer;
        self.in_flight.clear();
        Ok(())
    }
}

/// The sending half of a split client: owns request-id allocation.
#[derive(Debug)]
pub struct NetSender {
    writer: BufWriter<TcpStream>,
    next_id: u64,
    scratch: Vec<u8>,
}

impl NetSender {
    /// Sends one request, returning its id. The matching reply arrives on
    /// the paired [`NetReceiver`] in send order.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the transport write fails.
    pub fn send(&mut self, input: &[f32], deadline: Option<Duration>) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        send_request(&mut self.writer, &mut self.scratch, id, input, deadline)?;
        Ok(id)
    }

    /// Half-closes the write side so the server sees EOF once the last
    /// request drains — lets the receiver distinguish "done" from a
    /// server crash.
    pub fn finish(self) {
        let _ = self.writer.get_ref().shutdown(std::net::Shutdown::Write);
    }
}

/// The receiving half of a split client: drains replies in send order.
#[derive(Debug)]
pub struct NetReceiver {
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl NetReceiver {
    /// Blocks for the next reply, verifying it matches the expected
    /// pipeline order.
    ///
    /// # Errors
    ///
    /// As [`NetClient::recv`].
    pub fn recv(&mut self) -> Result<NetReply, ClientError> {
        let reply = recv_reply(&mut self.reader, self.next_id)?;
        self.next_id += 1;
        Ok(reply)
    }
}

fn connect_with_backoff(addr: SocketAddr, config: &ClientConfig) -> Result<TcpStream, ClientError> {
    assert!(config.connect_attempts >= 1, "need at least one attempt");
    assert!(
        config.backoff_multiplier >= 1.0,
        "backoff must not shrink between attempts"
    );
    let mut backoff = config.backoff;
    let mut last = std::io::ErrorKind::NotConnected;
    for attempt in 0..config.connect_attempts {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff = backoff.mul_f64(config.backoff_multiplier);
        }
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e.kind(),
        }
    }
    Err(ClientError::Connect(last))
}

fn split_stream(
    stream: TcpStream,
    config: &ClientConfig,
) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), ClientError> {
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(config.request_timeout)
        .map_err(|e| ClientError::Io(e.kind()))?;
    let read_half = stream.try_clone().map_err(|e| ClientError::Io(e.kind()))?;
    Ok((BufReader::new(read_half), BufWriter::new(stream)))
}

/// Encodes one request frame through `scratch` and writes it out, flushed.
fn send_request(
    writer: &mut BufWriter<TcpStream>,
    scratch: &mut Vec<u8>,
    id: u64,
    input: &[f32],
    deadline: Option<Duration>,
) -> Result<(), ClientError> {
    scratch.clear();
    encode_request_into(id, deadline.map_or(0, deadline_to_us), input, scratch);
    writer
        .write_all(scratch)
        .and_then(|()| writer.flush())
        .map_err(|e| ClientError::Io(e.kind()))
}

/// Reads one client-bound frame, mapping timeouts and EOF to their typed
/// errors.
fn read_reply_frame(reader: &mut BufReader<TcpStream>) -> Result<Frame, ClientError> {
    match read_frame(reader) {
        Ok(Some(frame)) => Ok(frame),
        Ok(None) => Err(ClientError::ServerClosed),
        Err(WireError::Timeout) => Err(ClientError::Timeout),
        Err(err) => Err(ClientError::Wire(err)),
    }
}

/// Reads and order-checks one inference reply.
fn recv_reply(reader: &mut BufReader<TcpStream>, expected: u64) -> Result<NetReply, ClientError> {
    let (got, outcome, latency_us) = match read_reply_frame(reader)? {
        Frame::Response {
            id,
            latency_us,
            output,
        } => (id, Ok(output), latency_us),
        Frame::Error { id, status, .. } => (id, Err(status), 0),
        Frame::Request { .. } | Frame::TelemetryRequest { .. } | Frame::Telemetry { .. } => {
            return Err(ClientError::UnexpectedFrame)
        }
    };
    if got != expected {
        return Err(ClientError::IdMismatch { expected, got });
    }
    Ok(NetReply {
        id: got,
        outcome,
        server_latency: Duration::from_micros(latency_us),
    })
}

/// Converts a deadline to the µs wire field, saturating and flooring at
/// 1 µs (0 means "no deadline" on the wire).
fn deadline_to_us(deadline: Duration) -> u64 {
    u64::try_from(deadline.as_micros())
        .unwrap_or(u64::MAX)
        .max(1)
}
