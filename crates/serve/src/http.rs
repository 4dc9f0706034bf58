//! A minimal HTTP/1.1 wire layer over `std::io` streams.
//!
//! Only what the serving subsystem needs: request-line + header parsing
//! with hard size limits, `Content-Length` bodies (no chunked transfer
//! coding), keep-alive negotiation, and a deterministic response writer.
//! The same head parser serves both sides: the server reads requests and
//! the load generator reads responses.
//!
//! Reads are buffered per connection: [`RequestReader`] (and its client
//! twin [`ResponseReader`]) own a carry buffer, so bytes that arrive in
//! the same packet as a previous message — pipelined requests, or a body
//! followed immediately by the next head — are consumed by the *next*
//! parse instead of being thrown away. The one-shot [`read_request`] /
//! [`read_response`] helpers wrap a fresh reader for single-message
//! streams (tests, probes).

use std::io::{self, Read, Write};

/// Hard limits applied while reading a request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of request body (`Content-Length`).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 64 * 1024,
        }
    }
}

/// The HTTP protocol version of a request, as sent on the request line.
/// Keep-alive defaults differ: HTTP/1.1 persists unless told otherwise,
/// HTTP/1.0 closes unless told otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// `HTTP/1.0` — connections close by default.
    Http10,
    /// `HTTP/1.1` (and any other `HTTP/1.x`) — connections persist by
    /// default.
    Http11,
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method, uppercase as sent (`GET`, `POST`, ...).
    pub method: String,
    /// The request target (path plus optional query), as sent.
    pub target: String,
    /// The protocol version from the request line.
    pub version: Version,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open. HTTP/1.1
    /// defaults to yes unless `Connection: close`; HTTP/1.0 defaults to
    /// no unless `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        match self.version {
            Version::Http11 => {
                !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
            }
            Version::Http10 => {
                matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("keep-alive"))
            }
        }
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before sending a request.
    Closed,
    /// The read timed out (idle keep-alive connection).
    TimedOut,
    /// The total header deadline expired before a complete head arrived
    /// (slow-loris trickle). Answered with `408` then close, unlike
    /// [`ReadError::TimedOut`] which drops the connection silently.
    HeaderTimeout,
    /// The head exceeded [`Limits::max_head_bytes`].
    HeadTooLarge,
    /// The declared body exceeded [`Limits::max_body_bytes`].
    BodyTooLarge,
    /// The bytes were not parseable HTTP.
    Malformed(&'static str),
    /// Any other I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Closed => write!(f, "connection closed"),
            ReadError::TimedOut => write!(f, "read timed out"),
            ReadError::HeaderTimeout => write!(f, "header deadline expired"),
            ReadError::HeadTooLarge => write!(f, "request head too large"),
            ReadError::BodyTooLarge => write!(f, "request body too large"),
            ReadError::Malformed(why) => write!(f, "malformed request: {why}"),
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

fn map_io(e: io::Error) -> ReadError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ReadError::TimedOut,
        io::ErrorKind::UnexpectedEof | io::ErrorKind::ConnectionReset => ReadError::Closed,
        _ => ReadError::Io(e),
    }
}

/// Byte offset just past the `\r\n\r\n` terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Reads from `stream` into `buf` until a complete head (through the
/// blank line) is buffered, then removes and returns exactly the head
/// bytes. Anything after the head stays in `buf` for the body / the next
/// message.
fn take_head(buf: &mut Vec<u8>, stream: &mut impl Read, max: usize) -> Result<Vec<u8>, ReadError> {
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(end) = find_head_end(buf) {
            if end > max {
                return Err(ReadError::HeadTooLarge);
            }
            let rest = buf.split_off(end);
            return Ok(std::mem::replace(buf, rest));
        }
        if buf.len() >= max {
            return Err(ReadError::HeadTooLarge);
        }
        let n = stream.read(&mut chunk).map_err(map_io)?;
        if n == 0 {
            return if buf.is_empty() {
                Err(ReadError::Closed)
            } else {
                Err(ReadError::Malformed("truncated head"))
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Reads from `stream` into `buf` until `declared` body bytes are
/// buffered, then removes and returns exactly those bytes. Pipelined
/// bytes beyond the body stay in `buf`.
fn take_body(
    buf: &mut Vec<u8>,
    stream: &mut impl Read,
    declared: usize,
) -> Result<Vec<u8>, ReadError> {
    let mut chunk = [0u8; 4096];
    while buf.len() < declared {
        let n = stream.read(&mut chunk).map_err(map_io)?;
        if n == 0 {
            return Err(ReadError::Malformed("truncated body"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let rest = buf.split_off(declared);
    Ok(std::mem::replace(buf, rest))
}

/// Whether `b` may appear in an HTTP token (RFC 9110 `tchar`): header
/// names and methods.
fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Parses `name: value` header lines out of a head (everything after the
/// first line). Names are lowercased.
///
/// Framing is strict, because a lenient parser in front of a strict one
/// is how requests get smuggled: lines end in CRLF only (a bare CR or LF
/// is rejected, RFC 9112 §2.2), and the name is a token that runs right
/// up to the colon, so whitespace before the colon is rejected (§5.1).
fn parse_headers(lines: &str) -> Result<Vec<(String, String)>, ReadError> {
    let mut headers = Vec::new();
    for line in lines.split("\r\n").filter(|l| !l.is_empty()) {
        if line.contains(['\r', '\n']) {
            return Err(ReadError::Malformed("bare CR or LF in head"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ReadError::Malformed("header without ':'"))?;
        if name.is_empty() || !name.bytes().all(is_tchar) {
            return Err(ReadError::Malformed("invalid header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(headers)
}

/// The declared body length across every `Content-Length` header.
/// Repeating the same value is tolerated (some proxies do); *differing*
/// values are the classic request-smuggling shape and are rejected. The
/// value is bare digits (RFC 9110 §8.6): `usize::from_str` alone would
/// also take a leading `+`.
fn declared_length(headers: &[(String, String)]) -> Result<usize, ReadError> {
    let mut declared: Option<usize> = None;
    for (name, value) in headers {
        if name != "content-length" {
            continue;
        }
        let v = Some(value)
            .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or(ReadError::Malformed("bad content-length"))?;
        if declared.is_some_and(|prev| prev != v) {
            return Err(ReadError::Malformed("conflicting content-length headers"));
        }
        declared = Some(v);
    }
    Ok(declared.unwrap_or(0))
}

/// Parses the head bytes (request line + headers) into a body-less
/// [`Request`].
fn parse_request_head(head: &[u8]) -> Result<Request, ReadError> {
    let head = std::str::from_utf8(head).map_err(|_| ReadError::Malformed("non-UTF-8 head"))?;
    let (request_line, header_lines) = head
        .split_once("\r\n")
        .ok_or(ReadError::Malformed("missing request line"))?;
    if request_line.contains(['\r', '\n']) {
        return Err(ReadError::Malformed("bare CR or LF in head"));
    }
    // Exactly `method SP target SP version` (RFC 9112 §3).
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts
        .next()
        .ok_or(ReadError::Malformed("missing target"))?
        .to_string();
    let version = match parts
        .next()
        .ok_or(ReadError::Malformed("missing version"))?
        .as_bytes()
    {
        b"HTTP/1.0" => Version::Http10,
        [b'H', b'T', b'T', b'P', b'/', b'1', b'.', minor] if minor.is_ascii_digit() => {
            Version::Http11
        }
        _ => return Err(ReadError::Malformed("unsupported HTTP version")),
    };
    if parts.next().is_some() {
        return Err(ReadError::Malformed("junk after the HTTP version"));
    }
    if method.is_empty() || !method.bytes().all(is_tchar) || target.is_empty() {
        return Err(ReadError::Malformed("malformed request line"));
    }
    let headers = parse_headers(header_lines)?;
    Ok(Request {
        method,
        target,
        version,
        headers,
        body: Vec::new(),
    })
}

/// The outcome of one [`RequestReader::fill_from`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// This many bytes were appended to the carry buffer.
    Data(usize),
    /// The read would block (non-blocking socket) or hit its per-read
    /// timeout (blocking socket) — no bytes arrived.
    Blocked,
    /// The peer half-closed: no more bytes will ever arrive.
    Eof,
}

/// A parsed head whose declared body has not fully arrived yet.
#[derive(Debug)]
struct PendingHead {
    request: Request,
    declared: usize,
}

/// Server-side connection reader: parses a stream of requests, carrying
/// bytes that arrive beyond each message (pipelined requests) over to the
/// next call instead of discarding them.
///
/// Two usage styles share one parser:
/// - **Blocking** ([`RequestReader::read_request`]): loop fill + parse
///   until a request completes, mapping blocked reads to
///   [`ReadError::TimedOut`].
/// - **Incremental** ([`RequestReader::fill_from`] +
///   [`RequestReader::try_parse`]): the event-driven connection state
///   machine feeds readiness-gated reads in and polls for complete
///   requests; a partially received head or body is held across calls in
///   `PendingHead` / the carry buffer.
#[derive(Debug, Default)]
pub struct RequestReader {
    buf: Vec<u8>,
    pending: Option<PendingHead>,
}

impl RequestReader {
    /// A reader with an empty carry buffer.
    pub fn new() -> RequestReader {
        RequestReader::default()
    }

    /// Bytes received but not yet consumed by a parsed message.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether any part of a request (head bytes or a parsed-but-bodyless
    /// head) has been received and not yet returned. Distinguishes a
    /// clean end-of-stream from a truncated message.
    pub fn has_partial(&self) -> bool {
        self.pending.is_some() || !self.buf.is_empty()
    }

    /// Whether the next request's head is still incomplete — the window
    /// the total header deadline applies to. False once the head parsed
    /// (body bytes are governed by the per-read timeout instead).
    pub fn head_pending(&self) -> bool {
        self.pending.is_none()
    }

    /// Performs one `read` from `stream` into the carry buffer.
    ///
    /// `WouldBlock`/`TimedOut` become [`Fill::Blocked`], a zero-length
    /// read becomes [`Fill::Eof`], and `Interrupted` is retried.
    ///
    /// # Errors
    ///
    /// [`ReadError::Closed`] on connection reset, [`ReadError::Io`] on
    /// any other failure.
    pub fn fill_from(&mut self, stream: &mut impl Read) -> Result<Fill, ReadError> {
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(Fill::Eof),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(Fill::Data(n));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(Fill::Blocked)
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::UnexpectedEof | io::ErrorKind::ConnectionReset
                    ) =>
                {
                    return Err(ReadError::Closed)
                }
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
    }

    /// Attempts to parse a complete request out of the carry buffer
    /// without touching the stream. `Ok(None)` means more bytes are
    /// needed; partially parsed state (a complete head awaiting its
    /// body) is retained for the next call.
    ///
    /// # Errors
    ///
    /// Limit violations and malformed bytes, as for
    /// [`RequestReader::read_request`]. Errors are terminal for the
    /// connection: the reader's state is unspecified afterwards.
    pub fn try_parse(&mut self, limits: Limits) -> Result<Option<Request>, ReadError> {
        if self.pending.is_none() {
            let Some(end) = find_head_end(&self.buf) else {
                if self.buf.len() >= limits.max_head_bytes {
                    return Err(ReadError::HeadTooLarge);
                }
                return Ok(None);
            };
            if end > limits.max_head_bytes {
                return Err(ReadError::HeadTooLarge);
            }
            let rest = self.buf.split_off(end);
            let head = std::mem::replace(&mut self.buf, rest);
            let request = parse_request_head(&head)?;
            if request.header("transfer-encoding").is_some() {
                return Err(ReadError::Malformed("chunked bodies are not supported"));
            }
            let declared = declared_length(&request.headers)?;
            if declared > limits.max_body_bytes {
                return Err(ReadError::BodyTooLarge);
            }
            self.pending = Some(PendingHead { request, declared });
        }
        let declared = self.pending.as_ref().map_or(0, |p| p.declared);
        if self.buf.len() < declared {
            return Ok(None);
        }
        let PendingHead {
            mut request,
            declared,
        } = self.pending.take().expect("pending head present");
        let rest = self.buf.split_off(declared);
        request.body = std::mem::replace(&mut self.buf, rest);
        Ok(Some(request))
    }

    /// Reads and parses the next request on this connection.
    ///
    /// # Errors
    ///
    /// [`ReadError::Closed`] at a clean end-of-stream between requests;
    /// the other variants for limit violations, malformed bytes, and I/O
    /// failures.
    pub fn read_request(
        &mut self,
        stream: &mut impl Read,
        limits: Limits,
    ) -> Result<Request, ReadError> {
        loop {
            if let Some(request) = self.try_parse(limits)? {
                return Ok(request);
            }
            match self.fill_from(stream)? {
                Fill::Data(_) => {}
                Fill::Blocked => return Err(ReadError::TimedOut),
                Fill::Eof => {
                    return Err(if self.pending.is_some() {
                        ReadError::Malformed("truncated body")
                    } else if self.buf.is_empty() {
                        ReadError::Closed
                    } else {
                        ReadError::Malformed("truncated head")
                    })
                }
            }
        }
    }
}

/// Reads and parses one request from `stream` (fresh single-use reader;
/// pipelined bytes beyond the first message are dropped with it).
pub fn read_request(stream: &mut impl Read, limits: Limits) -> Result<Request, ReadError> {
    RequestReader::new().read_request(stream, limits)
}

/// An outgoing HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    /// An empty response with the given status.
    pub fn new(status: u16) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A `application/json` response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response::new(status)
            .header("content-type", "application/json")
            .body(body)
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response::new(status)
            .header("content-type", "text/plain; charset=utf-8")
            .body(body)
    }

    /// Adds a header.
    pub fn header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Sets the body.
    pub fn body(mut self, body: impl Into<Vec<u8>>) -> Response {
        self.body = body.into();
        self
    }

    /// The status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The body length in bytes.
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// Serializes the response, adding `Content-Length` and a
    /// `Connection` header reflecting `keep_alive`.
    ///
    /// Head and body go out in a single write: two writes per response
    /// interact with Nagle's algorithm and delayed ACKs to add tens of
    /// milliseconds per round trip on real sockets.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let reason = reason_phrase(self.status);
        let mut head = format!("HTTP/1.1 {} {reason}\r\n", self.status);
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("content-length: {}\r\n", self.body.len()));
        head.push_str(if keep_alive {
            "connection: keep-alive\r\n\r\n"
        } else {
            "connection: close\r\n\r\n"
        });
        let mut wire = Vec::with_capacity(head.len() + self.body.len());
        wire.extend_from_slice(head.as_bytes());
        wire.extend_from_slice(&self.body);
        w.write_all(&wire)?;
        w.flush()
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A response as seen by a client: status plus body.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// The status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The first value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Client-side connection reader: parses a stream of responses with the
/// same carry-buffer discipline as [`RequestReader`], so back-to-back
/// responses to pipelined requests all survive.
#[derive(Debug, Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
}

impl ResponseReader {
    /// A reader with an empty carry buffer.
    pub fn new() -> ResponseReader {
        ResponseReader::default()
    }

    /// Reads and parses the next response on this connection.
    ///
    /// # Errors
    ///
    /// [`ReadError`] variants as for [`RequestReader::read_request`].
    pub fn read_response(&mut self, stream: &mut impl Read) -> Result<ClientResponse, ReadError> {
        let head = take_head(&mut self.buf, stream, 64 * 1024)?;
        let head =
            std::str::from_utf8(&head).map_err(|_| ReadError::Malformed("non-UTF-8 head"))?;
        let (status_line, header_lines) = head
            .split_once("\r\n")
            .ok_or(ReadError::Malformed("missing status line"))?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or(ReadError::Malformed("bad status line"))?;
        let headers = parse_headers(header_lines)?;
        let declared = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .unwrap_or(0);
        let body = take_body(&mut self.buf, stream, declared)?;
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

/// Reads one response from `stream` (fresh single-use reader).
pub fn read_response(stream: &mut impl Read) -> Result<ClientResponse, ReadError> {
    ResponseReader::new().read_response(stream)
}

/// Serializes a request in a single write (see [`Response::write_to`] on
/// why one write matters).
pub fn write_request(
    w: &mut impl Write,
    method: &str,
    target: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: mds\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    );
    let mut wire = Vec::with_capacity(head.len() + body.len());
    wire.extend_from_slice(head.as_bytes());
    wire.extend_from_slice(body);
    w.write_all(&wire)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_harness::prelude::*;

    fn parse(bytes: &[u8]) -> Result<Request, ReadError> {
        read_request(&mut io::Cursor::new(bytes.to_vec()), Limits::default())
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /v1/experiments HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = parse(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/experiments");
        assert_eq!(req.version, Version::Http11);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!parse(raw).unwrap().wants_keep_alive());
    }

    #[test]
    fn http_1_0_closes_by_default() {
        let plain = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(plain.version, Version::Http10);
        assert!(!plain.wants_keep_alive());
        // ... unless the client explicitly opts in.
        let opted = parse(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(opted.wants_keep_alive());
    }

    #[test]
    fn pipelined_requests_all_parse_from_one_stream() {
        // Two requests in a single packet: the reader must hand back the
        // first AND keep the second's bytes for the next call.
        let raw = b"POST /a HTTP/1.1\r\ncontent-length: 3\r\n\r\nxyzGET /b HTTP/1.1\r\n\r\n";
        let mut stream = io::Cursor::new(raw.to_vec());
        let mut reader = RequestReader::new();
        let first = reader.read_request(&mut stream, Limits::default()).unwrap();
        assert_eq!(first.target, "/a");
        assert_eq!(first.body, b"xyz");
        assert!(reader.buffered() > 0, "second request must be carried over");
        let second = reader.read_request(&mut stream, Limits::default()).unwrap();
        assert_eq!(second.target, "/b");
        assert!(second.body.is_empty());
        // Clean end-of-stream after the last pipelined request.
        assert!(matches!(
            reader.read_request(&mut stream, Limits::default()),
            Err(ReadError::Closed)
        ));
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 2\r\n\r\nabcd";
        assert!(matches!(
            parse(raw),
            Err(ReadError::Malformed("conflicting content-length headers"))
        ));
        // Repeating the SAME value is tolerated.
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 4\r\n\r\nabcd";
        assert_eq!(parse(raw).unwrap().body, b"abcd");
    }

    #[test]
    fn enforces_head_and_body_limits() {
        let tiny = Limits {
            max_head_bytes: 16,
            max_body_bytes: 8,
        };
        let long_head = b"GET /a/very/long/target/path HTTP/1.1\r\n\r\n";
        assert!(matches!(
            read_request(&mut io::Cursor::new(long_head.to_vec()), tiny),
            Err(ReadError::HeadTooLarge)
        ));
        let big_body = b"POST / HTTP/1.1\r\ncontent-length: 9999\r\n\r\n";
        let mut cursor = io::Cursor::new(big_body.to_vec());
        assert!(matches!(
            read_request(
                &mut cursor,
                Limits {
                    max_head_bytes: 1024,
                    max_body_bytes: 8
                }
            ),
            Err(ReadError::BodyTooLarge)
        ));
    }

    #[test]
    fn rejects_garbage_and_eof() {
        assert!(matches!(parse(b""), Err(ReadError::Closed)));
        assert!(matches!(
            parse(b"NOT HTTP\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/2\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn responses_round_trip_through_the_client_reader() {
        let resp = Response::json(200, r#"{"ok":true}"#).header("retry-after", "1");
        let mut wire = Vec::new();
        resp.write_to(&mut wire, true).unwrap();
        let parsed = read_response(&mut io::Cursor::new(wire)).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.header("retry-after"), Some("1"));
        assert_eq!(parsed.header("connection"), Some("keep-alive"));
        assert_eq!(parsed.body, br#"{"ok":true}"#);
    }

    #[test]
    fn back_to_back_responses_all_parse_from_one_stream() {
        let mut wire = Vec::new();
        Response::text(200, "one")
            .write_to(&mut wire, true)
            .unwrap();
        Response::text(200, "two")
            .write_to(&mut wire, false)
            .unwrap();
        let mut stream = io::Cursor::new(wire);
        let mut reader = ResponseReader::new();
        assert_eq!(reader.read_response(&mut stream).unwrap().body, b"one");
        assert_eq!(reader.read_response(&mut stream).unwrap().body, b"two");
    }

    fn drain_into(reader: &mut RequestReader, bytes: &[u8]) {
        let mut cursor = io::Cursor::new(bytes.to_vec());
        loop {
            match reader.fill_from(&mut cursor).unwrap() {
                Fill::Data(_) => {}
                Fill::Eof => break,
                Fill::Blocked => unreachable!("cursors never block"),
            }
        }
    }

    #[test]
    fn incremental_parse_survives_a_split_at_every_byte_boundary() {
        let raw: &[u8] = b"POST /v1/experiments HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd";
        for split in 1..raw.len() {
            let mut reader = RequestReader::new();
            drain_into(&mut reader, &raw[..split]);
            assert!(
                reader.try_parse(Limits::default()).unwrap().is_none(),
                "split at {split} parsed early"
            );
            assert!(reader.has_partial(), "split at {split}");
            drain_into(&mut reader, &raw[split..]);
            let req = reader
                .try_parse(Limits::default())
                .unwrap()
                .unwrap_or_else(|| panic!("split at {split} failed to complete"));
            assert_eq!(req.target, "/v1/experiments");
            assert_eq!(req.body, b"abcd");
            assert!(!reader.has_partial());
        }
    }

    #[test]
    fn try_parse_yields_both_requests_from_one_fill() {
        let raw = b"POST /a HTTP/1.1\r\ncontent-length: 3\r\n\r\nxyzGET /b HTTP/1.1\r\n\r\n";
        let mut reader = RequestReader::new();
        drain_into(&mut reader, raw);
        let first = reader.try_parse(Limits::default()).unwrap().unwrap();
        assert_eq!(first.target, "/a");
        let second = reader.try_parse(Limits::default()).unwrap().unwrap();
        assert_eq!(second.target, "/b");
        assert!(reader.try_parse(Limits::default()).unwrap().is_none());
    }

    #[test]
    fn head_pending_flips_once_the_head_parses() {
        let mut reader = RequestReader::new();
        assert!(reader.head_pending());
        drain_into(&mut reader, b"POST / HTTP/1.1\r\ncontent-length: 2\r\n\r\n");
        // Head complete but body missing: pending head retained.
        assert!(reader.try_parse(Limits::default()).unwrap().is_none());
        assert!(!reader.head_pending());
        assert!(reader.has_partial());
        drain_into(&mut reader, b"hi");
        assert_eq!(
            reader.try_parse(Limits::default()).unwrap().unwrap().body,
            b"hi"
        );
        assert!(reader.head_pending());
    }

    #[test]
    fn incremental_limits_match_the_blocking_path() {
        let tiny = Limits {
            max_head_bytes: 16,
            max_body_bytes: 8,
        };
        let mut reader = RequestReader::new();
        drain_into(&mut reader, b"GET /a/very/long/target/path HTT");
        assert!(matches!(
            reader.try_parse(tiny),
            Err(ReadError::HeadTooLarge)
        ));
        let mut reader = RequestReader::new();
        drain_into(
            &mut reader,
            b"POST / HTTP/1.1\r\ncontent-length: 9999\r\n\r\n",
        );
        assert!(matches!(
            reader.try_parse(Limits {
                max_head_bytes: 1024,
                max_body_bytes: 8
            }),
            Err(ReadError::BodyTooLarge)
        ));
    }

    #[test]
    fn pipelined_head_bytes_are_not_lost() {
        // Body bytes arriving in the same packet as the head are kept.
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi";
        let req = parse(raw).unwrap();
        assert_eq!(req.body, b"hi");
    }

    #[test]
    fn framing_shapes_a_lenient_parser_accepts_are_malformed() {
        for raw in [
            &b"POST /x HTTP/1.1\r\ncontent-length: +2\r\n\r\nhi"[..],
            b"POST /x HTTP/1.1\r\ncontent-length : 2\r\n\r\nhi",
            b"GET /x HTTP/1.1\nhost: a\r\n\r\n",
            b"GET /x HTTP/1.1 junk\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(ReadError::Malformed(_))),
                "{:?} parsed as {:?}",
                String::from_utf8_lossy(raw),
                parse(raw)
            );
        }
    }

    /// One valid request of a generated stream.
    #[derive(Debug, Clone)]
    struct Shape {
        post: bool,
        target: u8,
        http10: bool,
        headers: Vec<(u8, u8)>,
        body: Vec<u8>,
    }

    fn arb_shape() -> impl Strategy<Value = Shape> {
        (
            any::<bool>(),
            any::<u8>(),
            any::<bool>(),
            vec_of((0u8..26, 0u8..26), 0..4),
            vec_of(any::<u8>(), 0..40),
        )
            .prop_map(|(post, target, http10, headers, body)| Shape {
                post,
                target,
                http10,
                headers,
                body,
            })
    }

    impl Shape {
        fn wire(&self) -> Vec<u8> {
            let method = if self.post { "POST" } else { "GET" };
            let version = if self.http10 { "HTTP/1.0" } else { "HTTP/1.1" };
            let mut head = format!("{method} /t{} {version}\r\n", self.target);
            for &(name, value) in &self.headers {
                let name = (b'a' + name) as char;
                let value = (b'a' + value) as char;
                head.push_str(&format!("X-{name}:  v{value} \r\n"));
            }
            if self.post {
                head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
            }
            head.push_str("\r\n");
            let mut wire = head.into_bytes();
            if self.post {
                wire.extend_from_slice(&self.body);
            }
            wire
        }
    }

    /// Every request a reader yields when fed `chunks` in turn, as debug
    /// strings (the parsed form, compared structurally).
    fn parse_chunks(chunks: &[&[u8]], limits: Limits) -> Result<Vec<String>, String> {
        let mut reader = RequestReader::new();
        let mut out = Vec::new();
        for chunk in chunks {
            drain_into(&mut reader, chunk);
            while let Some(request) = reader.try_parse(limits).map_err(|e| e.to_string())? {
                out.push(format!("{request:?}"));
            }
        }
        Ok(out)
    }

    /// A smuggling shape: a request whose framing a lenient peer might
    /// read differently. `variant` picks the family, `pick` the detail.
    fn smuggling_shape(variant: u8, pick: u8) -> Vec<u8> {
        let name = ["content-length", "Content-Length", "CONTENT-LENGTH"][pick as usize % 3];
        let head = match variant {
            // Two differing lengths.
            0 => format!(
                "POST /x HTTP/1.1\r\n{name}: 2\r\n{name}: {}\r\n\r\n",
                3 + pick % 7
            ),
            // Any transfer coding at all.
            1 => format!(
                "POST /x HTTP/1.1\r\n{}: {}\r\n{name}: 2\r\n\r\n",
                ["transfer-encoding", "Transfer-Encoding"][pick as usize % 2],
                ["chunked", "identity", "gzip, chunked"][pick as usize % 3]
            ),
            // Signed, blank, or non-decimal lengths.
            2 => format!(
                "POST /x HTTP/1.1\r\n{name}: {}\r\n\r\n",
                ["+2", "-2", "", " ", "2a", "0x2", "2 2", "+0"][pick as usize % 8]
            ),
            // A bare LF (or CR) where CRLF belongs.
            3 => [
                "GET /x HTTP/1.1\nhost: a\r\n\r\n",
                "GET /x HTTP/1.1\r\nhost: a\nx: b\r\n\r\n",
                "GET /x HTTP/1.1\r\nhost: a\rx: b\r\n\r\n",
                "GET /x\n HTTP/1.1\r\n\r\n",
            ][pick as usize % 4]
                .to_string(),
            // Whitespace between the name and the colon, or folded lines.
            4 => format!(
                "POST /x HTTP/1.1\r\n{name}{}: 2\r\n\r\n",
                [" ", "\t", "  "][pick as usize % 3]
            ),
            // A request line with extra or missing parts.
            _ => [
                "GET /x HTTP/1.1 junk\r\n\r\n",
                "GET  /x HTTP/1.1\r\n\r\n",
                "GET /x HTTP/1.1 \r\n\r\n",
                "GET /x HTTP/1.12\r\n\r\n",
            ][pick as usize % 4]
                .to_string(),
        };
        let mut wire = head.into_bytes();
        wire.extend_from_slice(b"hi");
        wire
    }

    properties! {
        /// However a valid pipelined stream is cut into reads, the reader
        /// yields exactly the requests a one-shot parse yields.
        #[test]
        fn any_split_of_a_pipelined_stream_parses_like_one_shot(
            shapes in vec_of(arb_shape(), 1..5),
            cuts in vec_of(any::<u16>(), 0..8),
        ) {
            let stream: Vec<u8> = shapes.iter().flat_map(Shape::wire).collect();
            let whole = parse_chunks(&[&stream], Limits::default()).unwrap();
            prop_assert_eq!(whole.len(), shapes.len());
            let mut points: Vec<usize> =
                cuts.iter().map(|&c| c as usize % (stream.len() + 1)).collect();
            points.sort_unstable();
            let mut chunks = Vec::new();
            let mut at = 0;
            for point in points.into_iter().chain([stream.len()]) {
                chunks.push(&stream[at..point]);
                at = point;
            }
            prop_assert_eq!(parse_chunks(&chunks, Limits::default()).unwrap(), whole);
        }

        /// A head over the limit is `HeadTooLarge` at every split: never
        /// a parsed request, never another error.
        #[test]
        fn an_oversize_head_is_too_large_at_every_split(
            pad in 1usize..64,
            terminated: bool,
            split in any::<u16>(),
        ) {
            let limits = Limits { max_head_bytes: 64, max_body_bytes: 64 };
            let mut head = format!("GET /x HTTP/1.1\r\nx-pad: {}\r\n", "p".repeat(40 + pad));
            if terminated {
                head.push_str("\r\n");
            }
            let bytes = head.as_bytes();
            let split = split as usize % (bytes.len() + 1);
            let mut reader = RequestReader::new();
            drain_into(&mut reader, &bytes[..split]);
            let early = reader.try_parse(limits);
            prop_assert!(
                matches!(early, Ok(None) | Err(ReadError::HeadTooLarge)),
                "split {split}: {early:?}"
            );
            if early.is_ok() {
                drain_into(&mut reader, &bytes[split..]);
                let late = reader.try_parse(limits);
                prop_assert!(matches!(late, Err(ReadError::HeadTooLarge)), "{late:?}");
            }
        }

        /// Conflicting or signed lengths, transfer codings, bare LFs,
        /// whitespace before a colon, and malformed request lines are all
        /// rejected as malformed, whole or split.
        #[test]
        fn smuggling_shapes_are_malformed(variant in 0u8..6, pick: u8, split: u16) {
            let wire = smuggling_shape(variant, pick);
            let split = split as usize % (wire.len() + 1);
            let result = parse_chunks(&[&wire[..split], &wire[split..]], Limits::default());
            prop_assert!(
                matches!(&result, Err(e) if e.starts_with("malformed request")),
                "{:?} gave {result:?}",
                String::from_utf8_lossy(&wire)
            );
        }
    }
}
