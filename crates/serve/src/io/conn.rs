//! The per-connection non-blocking state machine.
//!
//! A [`Conn`] owns one stream and drives it entirely from readiness
//! callbacks: `on_readable` pulls bytes through the incremental
//! [`RequestReader`] and hands complete requests to a sink, `on_writable`
//! flushes the outgoing byte backlog, and `complete` delivers a deferred
//! response computed on a worker. The machine never blocks — every read
//! and write stops at `WouldBlock` — and never reads ahead of the
//! protocol: input is paused (no read interest) while a request executes
//! or a response is flushing, which both preserves serial per-connection
//! semantics and keeps a level-triggered poller from spinning.
//!
//! ```text
//!        bytes            complete request           response queued
//! Idle ────────▶ Reading ────────────────▶ Executing ──────────────▶ Writing
//!   ▲              │        (deferred)                                  │
//!   │              └──────────────────────▶ Writing (inline response)   │
//!   └──────────────────────────────────────────────────────────────────┘
//!                        flush drained, keep-alive
//! ```
//!
//! Timeouts live outside: the reactor arms header/idle/write deadlines on
//! a [`TimerWheel`](crate::io::timer::TimerWheel) keyed off
//! [`Conn::state`] and [`Conn::head_pending`].

use crate::http::{Fill, Limits, ReadError, Request, RequestReader, Response};
use std::io::{self, Read, Write};

/// A bidirectional byte stream with an identifiable fd.
///
/// Implemented by [`std::net::TcpStream`] (the fd registers with the
/// poller) and by [`FakeStream`] for socketless state-machine tests.
pub trait Stream: Read + Write {
    /// The raw fd to register with a poller. Fake streams make one up.
    fn raw_fd(&self) -> i32;
}

#[cfg(unix)]
impl Stream for std::net::TcpStream {
    fn raw_fd(&self) -> i32 {
        std::os::fd::AsRawFd::as_raw_fd(self)
    }
}

/// Where a connection is in its request lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Keep-alive gap: no partial request, nothing to write.
    Idle,
    /// Part of a request (head or body) has arrived.
    Reading,
    /// A deferred request is executing on a worker; input is paused.
    Executing,
    /// Flushing response bytes; input stays paused until drained.
    Writing,
    /// Finished: the reactor deregisters and drops the connection.
    Closed,
}

/// Per-drive context the reactor passes in.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Head/body size limits, as for the blocking path.
    pub limits: Limits,
    /// Keep-alive is withdrawn on the request that reaches this count.
    pub max_requests: usize,
    /// Draining servers answer with `connection: close`.
    pub draining: bool,
}

/// What the request sink decided.
pub enum Verdict {
    /// Answer now; keep-alive negotiation decides whether to persist.
    Respond(Response),
    /// Answer now and close regardless of negotiation (shed, shutdown).
    RespondAndClose(Response),
    /// The request was handed to the worker pool; pause this connection
    /// until [`Conn::complete`] delivers the outcome.
    Deferred,
}

/// One connection's state machine over stream `S`.
#[derive(Debug)]
pub struct Conn<S> {
    stream: S,
    reader: RequestReader,
    out: Vec<u8>,
    out_at: usize,
    state: ConnState,
    served: usize,
    close_after_flush: bool,
    /// Keep-alive decision frozen when a request was deferred, applied
    /// when its completion arrives.
    deferred_keep_alive: bool,
}

impl<S: Stream> Conn<S> {
    /// Wraps an accepted (already non-blocking) stream.
    pub fn new(stream: S) -> Conn<S> {
        Conn {
            stream,
            reader: RequestReader::new(),
            out: Vec::new(),
            out_at: 0,
            state: ConnState::Idle,
            served: 0,
            close_after_flush: false,
            deferred_keep_alive: false,
        }
    }

    /// The underlying stream (reactor needs the fd; tests inject bytes).
    pub fn stream_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// Requests answered (or deferred) on this connection so far.
    pub fn served(&self) -> usize {
        self.served
    }

    /// Whether the *head* of the next request is still incomplete — the
    /// phase the total header deadline covers.
    pub fn head_pending(&self) -> bool {
        self.reader.head_pending()
    }

    /// Whether unflushed response bytes remain.
    pub fn has_backlog(&self) -> bool {
        self.out_at < self.out.len()
    }

    /// The poller interest implied by the current state: read while
    /// idle/reading, write while a backlog remains, nothing while a
    /// worker owns the request.
    pub fn interest(&self) -> super::Interest {
        super::Interest {
            readable: matches!(self.state, ConnState::Idle | ConnState::Reading),
            writable: self.has_backlog(),
        }
    }

    /// Marks the connection finished (peer reset, deadline expired).
    pub fn close(&mut self) {
        self.state = ConnState::Closed;
    }

    /// Drives reads as far as the socket allows, feeding each complete
    /// request to `sink` (which receives the request and the negotiated
    /// keep-alive decision). Returns parse/IO errors for the reactor to
    /// map to an error response; any error is terminal for the
    /// connection.
    ///
    /// # Errors
    ///
    /// [`ReadError`] variants as for the blocking reader.
    pub fn on_readable(
        &mut self,
        ctx: &Ctx,
        sink: &mut dyn FnMut(Request, bool) -> Verdict,
    ) -> Result<(), ReadError> {
        loop {
            if !matches!(self.state, ConnState::Idle | ConnState::Reading) {
                break;
            }
            match self.reader.try_parse(ctx.limits)? {
                Some(request) => {
                    self.served += 1;
                    let keep_alive = request.wants_keep_alive()
                        && self.served < ctx.max_requests
                        && !ctx.draining;
                    match sink(request, keep_alive) {
                        Verdict::Respond(response) => {
                            self.enqueue(&response, keep_alive);
                            if !keep_alive {
                                self.close_after_flush = true;
                                break;
                            }
                            // Keep parsing: pipelined requests may already
                            // be buffered.
                        }
                        Verdict::RespondAndClose(response) => {
                            self.enqueue(&response, false);
                            self.close_after_flush = true;
                            break;
                        }
                        Verdict::Deferred => {
                            self.deferred_keep_alive = keep_alive;
                            self.state = ConnState::Executing;
                            break;
                        }
                    }
                }
                None => match self.reader.fill_from(&mut self.stream)? {
                    Fill::Data(_) => {
                        if self.state == ConnState::Idle {
                            self.state = ConnState::Reading;
                        }
                    }
                    Fill::Blocked => break,
                    Fill::Eof => {
                        if self.reader.has_partial() {
                            return Err(if self.reader.head_pending() {
                                ReadError::Malformed("truncated head")
                            } else {
                                ReadError::Malformed("truncated body")
                            });
                        }
                        // Clean half-close between requests: flush any
                        // backlog, then close.
                        self.close_after_flush = true;
                        break;
                    }
                },
            }
        }
        self.settle()
    }

    /// Flushes the outgoing backlog as far as the socket allows.
    ///
    /// # Errors
    ///
    /// Terminal stream failures; the reactor closes the connection.
    pub fn on_writable(&mut self) -> Result<(), ReadError> {
        self.settle()
    }

    /// Delivers the outcome of a deferred request from a worker.
    /// `force_close` overrides the keep-alive negotiated at defer time.
    ///
    /// # Errors
    ///
    /// Terminal stream failures while flushing.
    pub fn complete(&mut self, response: &Response, force_close: bool) -> Result<(), ReadError> {
        debug_assert_eq!(self.state, ConnState::Executing);
        let keep_alive = self.deferred_keep_alive && !force_close;
        self.enqueue(response, keep_alive);
        if !keep_alive {
            self.close_after_flush = true;
        }
        self.state = ConnState::Writing;
        self.settle()
    }

    /// Queues a terminal error response (`400`/`408`/`413`): written with
    /// `connection: close`, then the connection closes. The reader may
    /// hold unparseable bytes, so no further requests are read.
    ///
    /// # Errors
    ///
    /// Terminal stream failures while flushing.
    pub fn respond_error(&mut self, response: &Response) -> Result<(), ReadError> {
        self.enqueue(response, false);
        self.close_after_flush = true;
        self.state = ConnState::Writing;
        self.settle()
    }

    fn enqueue(&mut self, response: &Response, keep_alive: bool) {
        response
            .write_to(&mut self.out, keep_alive)
            .expect("writing to a Vec cannot fail");
    }

    /// Pushes backlog into the socket and recomputes the lifecycle state.
    fn settle(&mut self) -> Result<(), ReadError> {
        while self.out_at < self.out.len() {
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(0) => {
                    return Err(ReadError::Io(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "stream accepted zero bytes",
                    )))
                }
                Ok(n) => {
                    self.out_at += n;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    break
                }
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
        if self.state == ConnState::Closed {
            return Ok(());
        }
        if self.has_backlog() {
            // Executing keeps its label (a worker owns the request) but
            // the interest still includes write until the backlog drains.
            if self.state != ConnState::Executing {
                self.state = ConnState::Writing;
            }
            return Ok(());
        }
        self.out.clear();
        self.out_at = 0;
        if self.state == ConnState::Executing {
            return Ok(());
        }
        if self.close_after_flush {
            self.state = ConnState::Closed;
        } else {
            self.state = if self.reader.has_partial() {
                ConnState::Reading
            } else {
                ConnState::Idle
            };
        }
        Ok(())
    }
}

/// A scripted in-memory [`Stream`] for state-machine tests: reads come
/// from a caller-fed buffer (then block or EOF), writes land in
/// [`FakeStream::written`] and can be throttled to exercise short-write
/// backpressure.
#[derive(Debug, Default)]
pub struct FakeStream {
    input: std::collections::VecDeque<u8>,
    eof: bool,
    /// Every byte the connection flushed, in order.
    pub written: Vec<u8>,
    /// Write *budget* in bytes: each write draws it down, and a zero
    /// budget returns `WouldBlock` — how a full socket send buffer
    /// applies backpressure. `usize::MAX` means unlimited.
    pub write_cap: usize,
    /// Max bytes returned per `read` call (simulates tiny packets).
    pub read_cap: usize,
    /// Optional mirror of every written byte, surviving the stream's
    /// drop (the reactor drops closed connections; post-mortem asserts
    /// need the bytes).
    mirror: Option<std::sync::Arc<std::sync::Mutex<Vec<u8>>>>,
    fd: i32,
}

impl FakeStream {
    /// A fake with unlimited read/write sizes and the given fake fd.
    pub fn new(fd: i32) -> FakeStream {
        FakeStream {
            write_cap: usize::MAX,
            read_cap: usize::MAX,
            fd,
            ..FakeStream::default()
        }
    }

    /// Makes `bytes` available to subsequent reads.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.input.extend(bytes.iter().copied());
    }

    /// After the fed bytes drain, reads return EOF instead of blocking.
    pub fn half_close(&mut self) {
        self.eof = true;
    }

    /// Unread fed bytes.
    pub fn unread(&self) -> usize {
        self.input.len()
    }

    /// Mirrors every written byte into `sink` as well as
    /// [`FakeStream::written`].
    pub fn mirror_writes(&mut self, sink: std::sync::Arc<std::sync::Mutex<Vec<u8>>>) {
        self.mirror = Some(sink);
    }
}

impl Read for FakeStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.input.is_empty() {
            return if self.eof {
                Ok(0)
            } else {
                Err(io::ErrorKind::WouldBlock.into())
            };
        }
        let n = buf.len().min(self.input.len()).min(self.read_cap.max(1));
        for slot in buf.iter_mut().take(n) {
            *slot = self.input.pop_front().expect("length checked");
        }
        Ok(n)
    }
}

impl Write for FakeStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.write_cap == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(self.write_cap);
        if self.write_cap != usize::MAX {
            self.write_cap -= n;
        }
        self.written.extend_from_slice(&buf[..n]);
        if let Some(mirror) = &self.mirror {
            mirror
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .extend_from_slice(&buf[..n]);
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Stream for FakeStream {
    fn raw_fd(&self) -> i32 {
        self.fd
    }
}
