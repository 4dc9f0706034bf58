//! The event loop: one reactor thread owning every connection fd, a
//! worker pool executing only ready work, and the [`App`] seam that lets
//! `mds-serve` and the `mds-cluster` gateway share the engine.
//!
//! Division of labor:
//!
//! - The **reactor thread** accepts, reads, parses, writes, and answers
//!   cheap routes inline (probes, metrics, cache hits). It never blocks
//!   on a socket and never executes a simulation.
//! - **Workers** pop fully-read requests from a bounded queue, execute
//!   them ([`App::execute`] — experiment simulation, upstream
//!   forwarding), and push the finished response back over a completion
//!   list plus a wake byte. A full queue sheds the *request* with a
//!   `503` + `Retry-After` inline — admission control happens at
//!   request-dispatch time, not connection-accept time, which is what
//!   lets 10k idle keep-alive connections cost nothing.
//!
//! [`Core`] holds all of the per-connection machinery generically over
//! [`Poller`] and [`Stream`], so the deterministic suite drives it with
//! [`FakePoller`](crate::io::poller::FakePoller) +
//! [`FakeStream`](crate::io::conn::FakeStream) — scripted readiness, no
//! sockets — while [`Reactor`] runs the same code over `epoll` and
//! `TcpStream`.

use crate::http::{Limits, ReadError, Request, Response};
use crate::io::conn::{Conn, ConnState, Ctx, Stream, Verdict};
use crate::io::poller::{Event, Interest, Poller};
use crate::io::timer::{Expired, TimerKind, TimerWheel};
use crate::queue::Bounded;
use mds_harness::json::Json;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Token reserved for the listening socket.
pub const LISTENER_TOKEN: u64 = u64::MAX;
/// Token reserved for the wake pipe.
pub const WAKE_TOKEN: u64 = u64::MAX - 1;

/// How the app wants a parsed request handled.
pub enum Dispatch {
    /// Answered by the reactor thread, right now. Only for routes that
    /// complete in microseconds — anything slower stalls every
    /// connection.
    Inline(Outcome),
    /// Queue for the worker pool ([`App::execute`]).
    Defer,
}

/// A finished response plus its bookkeeping labels.
pub struct Outcome {
    /// The response to send.
    pub response: Response,
    /// Result-cache disposition for the access log (`hit`/`miss`/`-`).
    pub cache: &'static str,
    /// Close the connection after this response regardless of keep-alive
    /// negotiation (shutdown acknowledgements, sheds).
    pub close: bool,
}

impl Outcome {
    /// `response`, with no cache disposition, keeping the connection.
    pub fn new(response: Response) -> Outcome {
        Outcome {
            response,
            cache: "-",
            close: false,
        }
    }

    /// Labels the result-cache disposition.
    pub fn cache(mut self, cache: &'static str) -> Outcome {
        self.cache = cache;
        self
    }

    /// Closes the connection after this response.
    pub fn close(mut self) -> Outcome {
        self.close = true;
        self
    }
}

/// The application seam between the event core and a server.
///
/// The shared serving front ([`crate::front`]) implements this once for
/// both tiers; the reactor owns all socket mechanics.
pub trait App: Send + Sync + 'static {
    /// Routes a parsed request: answer inline or defer to the pool.
    ///
    /// An `Inline` return is self-accounting: the app counts and logs the
    /// outcome before returning it (it holds the timing); the reactor
    /// calls [`App::on_response`] only for deferred work.
    fn dispatch(&self, request: &Request) -> Dispatch;
    /// Executes a deferred request on a worker thread.
    fn execute(&self, request: &Request) -> Outcome;
    /// A connection was accepted.
    fn on_connection(&self);
    /// A deferred response was produced on a worker: count + log.
    fn on_response(
        &self,
        request: &Request,
        outcome: &Outcome,
        queue_wait_us: u64,
        compute_us: u64,
    );
    /// The work queue (or connection table) is full: count the rejection
    /// and produce the `503` + `Retry-After` response.
    fn shed(&self, queue_len: usize) -> Response;
    /// A request failed to parse or timed out mid-head; `status` is the
    /// error response code (`400`/`408`/`413`).
    fn on_request_error(&self, status: u16);
    /// Whether graceful drain has been requested.
    fn draining(&self) -> bool;
}

/// A fully-read request waiting for a worker.
pub struct Job {
    /// The connection token the response must return to.
    pub token: u64,
    /// The parsed request.
    pub request: Request,
    /// When the job was queued (queue-wait accounting).
    pub enqueued: Instant,
}

/// A finished deferred response on its way back to the reactor.
pub struct Completion {
    /// The connection token from the originating [`Job`].
    pub token: u64,
    /// The response to flush.
    pub response: Response,
    /// [`Outcome::close`] carried through.
    pub close: bool,
}

/// Counters exported as `mds_io_*` gauges.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Fds currently registered with the poller (connections + listener
    /// + wake pipe).
    pub registered_fds: AtomicU64,
    /// Readiness events delivered by the most recent poll.
    pub ready_depth: AtomicU64,
    /// Deadlines fired (and validated) over the reactor's lifetime.
    pub timer_fires: AtomicU64,
}

/// Reactor tunables, a subset of the server config.
#[derive(Debug, Clone)]
pub struct Config {
    /// Request head/body limits.
    pub limits: Limits,
    /// Keep-alive request cap per connection.
    pub max_requests: usize,
    /// Keep-alive idle window, and the per-request body deadline.
    pub read_timeout: Duration,
    /// Total first-byte-to-complete-head deadline (the slow-loris guard).
    pub header_timeout: Duration,
    /// Total flush deadline for one response backlog.
    pub write_timeout: Duration,
    /// Hard cap on concurrent connections; beyond it accepts are shed
    /// with `503` immediately.
    pub max_connections: usize,
}

/// Deadline class derived from the connection's current phase. Distinct
/// from [`TimerKind`] because head and body phases share a wheel kind but
/// differ in duration and in what expiry means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Want {
    Idle,
    Head,
    Body,
    Write,
    Parked,
}

struct Slot<S> {
    conn: Conn<S>,
    generation: u32,
    timer_generation: u64,
    want: Want,
    interest: Interest,
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Slot generations come from a process-wide counter so a token minted
/// for a closed connection can never validate against the slot's next
/// occupant, even across reactor instances.
fn next_generation() -> u32 {
    use std::sync::atomic::AtomicU32;
    static NEXT: AtomicU32 = AtomicU32::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The connection engine, generic over poller and stream so the entire
/// state space is drivable from deterministic tests.
pub struct Core<P: Poller, S: Stream> {
    poller: P,
    slots: Vec<Option<Slot<S>>>,
    free: Vec<usize>,
    live: usize,
    wheel: TimerWheel,
    jobs: Arc<Bounded<Job>>,
    completions: Arc<Mutex<Vec<Completion>>>,
    app: Arc<dyn App>,
    config: Config,
    stats: Arc<IoStats>,
    draining: bool,
    expired: Vec<Expired>,
}

fn token_of(index: usize, generation: u32) -> u64 {
    (index as u64) | ((generation as u64) << 32)
}

fn index_of(token: u64) -> (usize, u32) {
    ((token & 0xffff_ffff) as usize, (token >> 32) as u32)
}

impl<P: Poller, S: Stream> Core<P, S> {
    /// A core over `poller` with an empty connection table.
    pub fn new(
        poller: P,
        app: Arc<dyn App>,
        config: Config,
        jobs: Arc<Bounded<Job>>,
        completions: Arc<Mutex<Vec<Completion>>>,
        stats: Arc<IoStats>,
    ) -> Core<P, S> {
        Core {
            poller,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            // 16ms ticks x 512 slots ≈ 8s per revolution: one revolution
            // covers the default 5s deadlines without re-scans.
            wheel: TimerWheel::new(512, 16),
            jobs,
            completions,
            app,
            config,
            stats,
            draining: false,
            expired: Vec::new(),
        }
    }

    /// Registers a non-connection fd (listener, wake pipe) for readable
    /// readiness.
    ///
    /// # Errors
    ///
    /// Poller registration failures.
    pub fn register_external(&mut self, fd: i32, token: u64) -> io::Result<()> {
        self.poller.register(fd, token, Interest::READ)
    }

    /// Deregisters a non-connection fd (the listener, at drain start).
    pub fn deregister_external(&mut self, fd: i32) {
        let _ = self.poller.deregister(fd);
    }

    /// Polls for readiness events (see [`Poller::wait`]).
    ///
    /// # Errors
    ///
    /// Poller failures.
    pub fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Event>) -> io::Result<()> {
        self.poller.wait(timeout, out)?;
        self.stats
            .ready_depth
            .store(out.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Live connections.
    pub fn conns(&self) -> usize {
        self.live
    }

    /// Whether drain has begun.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// How long the event loop may sleep: the timer tick when any
    /// deadline is armed, otherwise forever (a wake byte or readiness
    /// interrupts either way).
    pub fn next_timeout(&self) -> Option<Duration> {
        self.wheel.next_due_ms().map(Duration::from_millis)
    }

    /// Accepts a new connection: registers it, arms its idle deadline,
    /// and — beyond `max_connections` — sheds it with an immediate `503`.
    pub fn accept(&mut self, stream: S, now_ms: u64) {
        self.app.on_connection();
        if self.live >= self.config.max_connections {
            let mut stream = stream;
            let response = self.app.shed(self.jobs.len());
            let _ = response.write_to(&mut stream, false);
            return;
        }
        let mut conn = Conn::new(stream);
        let fd = conn.stream_mut().raw_fd();
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        let generation = next_generation();
        let token = token_of(index, generation);
        if self.poller.register(fd, token, Interest::READ).is_err() {
            self.free.push(index);
            return;
        }
        self.wheel.arm(
            token,
            TimerKind::Idle,
            1,
            now_ms,
            self.config.read_timeout.as_millis() as u64,
        );
        self.slots[index] = Some(Slot {
            conn,
            generation,
            timer_generation: 1,
            want: Want::Idle,
            interest: Interest::READ,
        });
        self.live += 1;
        self.publish_registered();
    }

    /// Handles one readiness event for a connection token.
    pub fn on_event(&mut self, event: Event, now_ms: u64) {
        let (index, generation) = index_of(event.token);
        if !self.is_live(index, generation) {
            return;
        }
        if event.writable {
            self.drive_write(index, now_ms);
        }
        if event.readable {
            self.drive_read(index, now_ms);
        }
        if event.read_closed && !event.readable {
            // The peer shut down its write side but may still be reading:
            // let the read path observe the EOF (silent close at idle,
            // `400` mid-request). Responses in flight are untouched —
            // read_closed is only delivered while read interest is on, so
            // an executing or flushing connection finishes its write
            // first and discovers the EOF when it next reads.
            if self.is_live(index, generation) {
                self.drive_read(index, now_ms);
            }
        }
        if event.hangup && !event.readable {
            // Error or full hangup with nothing readable: the peer is
            // gone in both directions.
            if self.is_live(index, generation) {
                if let Some(slot) = self.slots[index].as_mut() {
                    slot.conn.close();
                }
                self.sync(index, now_ms);
            }
        }
    }

    fn is_live(&self, index: usize, generation: u32) -> bool {
        self.slots
            .get(index)
            .and_then(Option::as_ref)
            .is_some_and(|slot| slot.generation == generation)
    }

    /// Drives the read side of one connection as far as it will go.
    pub fn drive_read(&mut self, index: usize, now_ms: u64) {
        let draining = self.draining || self.app.draining();
        let ctx = Ctx {
            limits: self.config.limits,
            max_requests: self.config.max_requests,
            draining,
        };
        let app = Arc::clone(&self.app);
        let jobs = Arc::clone(&self.jobs);
        let result = {
            let Some(slot) = self.slots.get_mut(index).and_then(Option::as_mut) else {
                return;
            };
            let token = token_of(index, slot.generation);
            let mut sink = |request: Request, _keep_alive: bool| -> Verdict {
                match app.dispatch(&request) {
                    Dispatch::Inline(outcome) => {
                        if outcome.close {
                            Verdict::RespondAndClose(outcome.response)
                        } else {
                            Verdict::Respond(outcome.response)
                        }
                    }
                    Dispatch::Defer => {
                        let job = Job {
                            token,
                            request,
                            enqueued: Instant::now(),
                        };
                        match jobs.push(job) {
                            Ok(()) => Verdict::Deferred,
                            Err(_rejected) => Verdict::RespondAndClose(app.shed(jobs.len())),
                        }
                    }
                }
            };
            slot.conn.on_readable(&ctx, &mut sink)
        };
        if let Err(e) = result {
            self.fail(index, &e);
        }
        self.sync(index, now_ms);
    }

    fn drive_write(&mut self, index: usize, now_ms: u64) {
        let failed = {
            let Some(slot) = self.slots.get_mut(index).and_then(Option::as_mut) else {
                return;
            };
            slot.conn.on_writable().is_err()
        };
        if failed {
            if let Some(slot) = self.slots[index].as_mut() {
                slot.conn.close();
            }
        }
        self.sync(index, now_ms);
        // A drained flush may unblock pipelined requests already buffered.
        if self
            .slots
            .get(index)
            .and_then(Option::as_ref)
            .is_some_and(|s| matches!(s.conn.state(), ConnState::Idle | ConnState::Reading))
        {
            self.drive_read(index, now_ms);
        }
    }

    /// Maps a terminal read error to its answer: protocol violations get
    /// an error response then close, transport conditions close
    /// silently.
    fn fail(&mut self, index: usize, error: &ReadError) {
        let status = match error {
            ReadError::Closed | ReadError::TimedOut | ReadError::Io(_) => {
                if let Some(slot) = self.slots[index].as_mut() {
                    slot.conn.close();
                }
                return;
            }
            ReadError::HeaderTimeout => 408,
            ReadError::HeadTooLarge | ReadError::BodyTooLarge => 413,
            ReadError::Malformed(_) => 400,
        };
        self.app.on_request_error(status);
        let body = Json::object().field("error", error.to_string()).to_string();
        let response = Response::json(status, body);
        if let Some(slot) = self.slots[index].as_mut() {
            if slot.conn.respond_error(&response).is_err() {
                slot.conn.close();
            }
        }
    }

    /// Applies all queued worker completions.
    pub fn apply_completions(&mut self, now_ms: u64) {
        let pending: Vec<Completion> = {
            let mut completions = lock(&self.completions);
            completions.drain(..).collect()
        };
        for completion in pending {
            let (index, generation) = index_of(completion.token);
            if !self.is_live(index, generation) {
                continue; // connection died while its request executed
            }
            let failed = {
                let slot = self.slots[index].as_mut().expect("liveness checked");
                slot.conn
                    .complete(&completion.response, completion.close)
                    .is_err()
            };
            if failed {
                if let Some(slot) = self.slots[index].as_mut() {
                    slot.conn.close();
                }
            }
            self.sync(index, now_ms);
            if self
                .slots
                .get(index)
                .and_then(Option::as_ref)
                .is_some_and(|s| matches!(s.conn.state(), ConnState::Idle | ConnState::Reading))
            {
                self.drive_read(index, now_ms);
            }
        }
    }

    /// Sweeps the timer wheel and acts on expired, still-valid deadlines.
    pub fn on_tick(&mut self, now_ms: u64) {
        let mut expired = std::mem::take(&mut self.expired);
        expired.clear();
        self.wheel.advance(now_ms, &mut expired);
        for deadline in &expired {
            let (index, generation) = index_of(deadline.token);
            let want = match self.slots.get(index).and_then(Option::as_ref) {
                Some(slot)
                    if slot.generation == generation
                        && slot.timer_generation == deadline.generation =>
                {
                    slot.want
                }
                _ => continue, // lazily cancelled
            };
            self.stats.timer_fires.fetch_add(1, Ordering::Relaxed);
            match want {
                // Idle keep-alive window expired: close silently.
                Want::Idle => {
                    if let Some(slot) = self.slots[index].as_mut() {
                        slot.conn.close();
                    }
                }
                // The total header deadline: answer 408 and close (the
                // slow-loris guard — progress no longer resets the clock).
                Want::Head => self.fail(index, &ReadError::HeaderTimeout),
                // Body bytes stalled past the read window, or a flush
                // made no progress: a silent timeout.
                Want::Body | Want::Write => {
                    if let Some(slot) = self.slots[index].as_mut() {
                        slot.conn.close();
                    }
                }
                Want::Parked => continue,
            }
            self.sync(index, now_ms);
        }
        self.expired = expired;
    }

    /// Begins graceful drain: stop arming idle work, close idle
    /// connections now, let reading/executing/writing connections finish
    /// their current request (each bounded by its deadline).
    pub fn begin_drain(&mut self, now_ms: u64) {
        if self.draining {
            return;
        }
        self.draining = true;
        for index in 0..self.slots.len() {
            let close = self.slots[index]
                .as_ref()
                .is_some_and(|slot| slot.conn.state() == ConnState::Idle);
            if close {
                if let Some(slot) = self.slots[index].as_mut() {
                    slot.conn.close();
                }
                self.sync(index, now_ms);
            }
        }
    }

    /// Recomputes poller interest, deadline, and liveness for one
    /// connection after any drive.
    fn sync(&mut self, index: usize, now_ms: u64) {
        let Some(slot) = self.slots.get_mut(index).and_then(Option::as_mut) else {
            return;
        };
        if self.draining && slot.conn.state() == ConnState::Idle {
            // Drain admits no further requests: a connection landing back
            // in the keep-alive gap has nothing left to wait for, and
            // leaving it would stall shutdown until its idle deadline.
            slot.conn.close();
        }
        if slot.conn.state() == ConnState::Closed {
            let fd = slot.conn.stream_mut().raw_fd();
            let _ = self.poller.deregister(fd);
            self.slots[index] = None;
            self.free.push(index);
            self.live -= 1;
            self.publish_registered();
            return;
        }
        let interest = slot.conn.interest();
        if interest != slot.interest {
            let fd = slot.conn.stream_mut().raw_fd();
            let token = token_of(index, slot.generation);
            if self.poller.modify(fd, token, interest).is_err() {
                slot.conn.close();
                let _ = self.poller.deregister(fd);
                self.slots[index] = None;
                self.free.push(index);
                self.live -= 1;
                self.publish_registered();
                return;
            }
            slot.interest = interest;
        }
        let want = match slot.conn.state() {
            ConnState::Idle => Want::Idle,
            ConnState::Reading => {
                if slot.conn.head_pending() {
                    Want::Head
                } else {
                    Want::Body
                }
            }
            ConnState::Executing => Want::Parked,
            ConnState::Writing => Want::Write,
            ConnState::Closed => unreachable!("handled above"),
        };
        if want != slot.want {
            slot.want = want;
            slot.timer_generation += 1;
            let delay = match want {
                Want::Idle | Want::Body => Some(self.config.read_timeout),
                Want::Head => Some(self.config.header_timeout),
                Want::Write => Some(self.config.write_timeout),
                Want::Parked => None,
            };
            if let Some(delay) = delay {
                let kind = match want {
                    Want::Idle => TimerKind::Idle,
                    Want::Head | Want::Body => TimerKind::Read,
                    _ => TimerKind::Write,
                };
                self.wheel.arm(
                    token_of(index, slot.generation),
                    kind,
                    slot.timer_generation,
                    now_ms,
                    delay.as_millis() as u64,
                );
            }
        }
    }

    fn publish_registered(&self) {
        self.stats
            .registered_fds
            .store(self.poller.registered() as u64, Ordering::Relaxed);
    }

    /// Test/diagnostic access to a connection's state.
    pub fn conn_state(&self, index: usize) -> Option<ConnState> {
        self.slots
            .get(index)
            .and_then(Option::as_ref)
            .map(|slot| slot.conn.state())
    }

    /// Test/diagnostic access to a connection's stream.
    pub fn conn_stream_mut(&mut self, index: usize) -> Option<&mut S> {
        self.slots
            .get_mut(index)
            .and_then(Option::as_mut)
            .map(|slot| slot.conn.stream_mut())
    }

    /// Test/diagnostic access to the poller.
    pub fn poller_mut(&mut self) -> &mut P {
        &mut self.poller
    }

    /// Deadlines still held by the timer wheel, lazily cancelled ones
    /// included (tests: every entry is swept once its due time passes).
    pub fn timers_armed(&self) -> usize {
        self.wheel.armed()
    }
}

/// The running event engine for real sockets: reactor thread + workers.
#[cfg(target_os = "linux")]
pub struct Reactor {
    thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    waker: Waker,
    jobs: Arc<Bounded<Job>>,
}

/// Wakes the reactor out of `epoll_wait` by writing one byte to the wake
/// pipe. Cloneable into workers and the server handle.
#[cfg(target_os = "linux")]
#[derive(Clone)]
pub struct Waker {
    tx: Arc<std::os::unix::net::UnixStream>,
}

#[cfg(target_os = "linux")]
impl Waker {
    /// Nudges the reactor; never blocks (a full pipe already guarantees a
    /// pending wake).
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&*self.tx).write(&[1u8]);
    }
}

#[cfg(target_os = "linux")]
impl Reactor {
    /// Spawns the reactor thread over `listener` plus `workers` pool
    /// threads with a job queue of `queue_depth`.
    ///
    /// # Errors
    ///
    /// Epoll/wake-pipe setup or thread-spawn failures.
    pub fn start(
        listener: std::net::TcpListener,
        app: Arc<dyn App>,
        config: Config,
        workers: usize,
        jobs: Arc<Bounded<Job>>,
        stats: Arc<IoStats>,
    ) -> io::Result<Reactor> {
        use crate::io::poller::EpollPoller;
        use std::os::fd::AsRawFd;

        listener.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = std::os::unix::net::UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let waker = Waker {
            tx: Arc::new(wake_tx),
        };
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let jobs = Arc::clone(&jobs);
            let app = Arc::clone(&app);
            let completions = Arc::clone(&completions);
            let waker = waker.clone();
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("mds-io-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = jobs.pop() {
                            run_job(&*app, &completions, Some(&waker), job);
                        }
                    })
                    .map_err(io::Error::other)?,
            );
        }

        let thread = {
            let app = Arc::clone(&app);
            let jobs_for_loop = Arc::clone(&jobs);
            let stop = Arc::clone(&stop);
            let completions_for_loop = Arc::clone(&completions);
            std::thread::Builder::new()
                .name("mds-io-reactor".to_string())
                .spawn(move || {
                    let poller = match EpollPoller::new() {
                        Ok(poller) => poller,
                        Err(_) => return,
                    };
                    let mut core: Core<EpollPoller, std::net::TcpStream> = Core::new(
                        poller,
                        app,
                        config,
                        Arc::clone(&jobs_for_loop),
                        Arc::clone(&completions_for_loop),
                        stats,
                    );
                    let listener_fd = listener.as_raw_fd();
                    let wake_fd = wake_rx.as_raw_fd();
                    if core.register_external(listener_fd, LISTENER_TOKEN).is_err() {
                        return;
                    }
                    if core.register_external(wake_fd, WAKE_TOKEN).is_err() {
                        return;
                    }
                    let start = Instant::now();
                    let mut events: Vec<Event> = Vec::new();
                    let mut listener_open = true;
                    loop {
                        let now_ms = start.elapsed().as_millis() as u64;
                        // The app's drain signal (`/v1/shutdown`) opens the
                        // drain *window*: readiness flips to 503 and
                        // keep-alive is withdrawn, but the server keeps
                        // accepting and answering (liveness probes must
                        // still see 200). Only the explicit stop — the
                        // owner calling `stop_and_join` — closes the
                        // listener and drains connections for real.
                        if stop.load(Ordering::SeqCst) && !core.draining() {
                            if listener_open {
                                core.deregister_external(listener_fd);
                                listener_open = false;
                            }
                            core.begin_drain(now_ms);
                        }
                        if core.draining() {
                            // With no pool, leftover queued jobs would
                            // strand their connections: finish them here.
                            // Completions are applied immediately below, so
                            // no wake is needed.
                            if workers == 0 {
                                let app = Arc::clone(&core.app);
                                while let Some(job) = jobs_for_loop.try_pop() {
                                    run_job(&*app, &completions_for_loop, None, job);
                                }
                                core.apply_completions(now_ms);
                            }
                            if core.conns() == 0 {
                                break;
                            }
                        }
                        let timeout = core.next_timeout();
                        events.clear();
                        if core.wait(timeout, &mut events).is_err() {
                            break;
                        }
                        let now_ms = start.elapsed().as_millis() as u64;
                        for event in &events {
                            match event.token {
                                LISTENER_TOKEN => loop {
                                    match listener.accept() {
                                        Ok((stream, _)) => {
                                            if stream.set_nonblocking(true).is_err() {
                                                continue;
                                            }
                                            let _ = stream.set_nodelay(true);
                                            core.accept(stream, now_ms);
                                        }
                                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                                            break
                                        }
                                        Err(_) => break,
                                    }
                                },
                                WAKE_TOKEN => {
                                    use std::io::Read;
                                    let mut sink = [0u8; 64];
                                    while let Ok(n) = (&wake_rx).read(&mut sink) {
                                        if n < sink.len() {
                                            break;
                                        }
                                    }
                                }
                                _ => core.on_event(*event, now_ms),
                            }
                        }
                        core.apply_completions(now_ms);
                        core.on_tick(now_ms);
                    }
                    jobs_for_loop.close();
                })
                .map_err(io::Error::other)?
        };

        Ok(Reactor {
            thread: Some(thread),
            workers: worker_handles,
            stop,
            waker,
            jobs,
        })
    }

    /// Requests stop (if not already draining via the app) and joins the
    /// reactor and workers. Idempotent.
    pub fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        self.jobs.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Executes one job and queues its completion (shared by pool workers and
/// the reactor's no-pool drain path, which applies completions itself and
/// passes no waker).
#[cfg(target_os = "linux")]
fn run_job(app: &dyn App, completions: &Mutex<Vec<Completion>>, waker: Option<&Waker>, job: Job) {
    let queue_wait_us = job.enqueued.elapsed().as_micros() as u64;
    let started = Instant::now();
    let outcome = app.execute(&job.request);
    let compute_us = started.elapsed().as_micros() as u64;
    app.on_response(&job.request, &outcome, queue_wait_us, compute_us);
    lock(completions).push(Completion {
        token: job.token,
        response: outcome.response,
        close: outcome.close,
    });
    if let Some(waker) = waker {
        waker.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::conn::FakeStream;
    use crate::io::poller::FakePoller;
    use mds_harness::prelude::*;
    use std::sync::atomic::AtomicBool;

    /// How [`TestApp`] answered one dispatched request.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Answer {
        Inline,
        Executed,
        Shed,
    }

    /// A scripted [`App`]: targets under `/defer` go to the queue,
    /// everything else is answered inline with a body echoing the target.
    /// Every dispatch is recorded with how it was answered, so a schedule
    /// test can rebuild each connection's expected response stream.
    struct TestApp {
        connections: AtomicU64,
        deferred_responses: AtomicU64,
        sheds: AtomicU64,
        request_errors: Mutex<Vec<u16>>,
        draining: AtomicBool,
        dispatched: Mutex<Vec<(String, Answer)>>,
        /// Set by a deferring dispatch until the next accept: a shed in
        /// that window is the deferred request's, not a connection's.
        admitting: AtomicBool,
    }

    impl TestApp {
        fn new() -> Arc<TestApp> {
            Arc::new(TestApp {
                connections: AtomicU64::new(0),
                deferred_responses: AtomicU64::new(0),
                sheds: AtomicU64::new(0),
                request_errors: Mutex::new(Vec::new()),
                draining: AtomicBool::new(false),
                dispatched: Mutex::new(Vec::new()),
                admitting: AtomicBool::new(false),
            })
        }

        /// The direct answer to `target` under `answer`.
        fn answer(target: &str, answer: Answer) -> Response {
            match answer {
                Answer::Inline => Response::json(200, format!("{{\"target\":\"{target}\"}}")),
                Answer::Executed => Response::json(200, format!("{{\"executed\":\"{target}\"}}")),
                Answer::Shed => {
                    Response::json(503, r#"{"error":"full"}"#).header("retry-after", "1")
                }
            }
        }
    }

    impl App for TestApp {
        fn dispatch(&self, request: &Request) -> Dispatch {
            let defer = request.target.starts_with("/defer");
            let answer = if defer {
                Answer::Executed
            } else {
                Answer::Inline
            };
            lock(&self.dispatched).push((request.target.clone(), answer));
            self.admitting.store(defer, Ordering::Relaxed);
            if defer {
                return Dispatch::Defer;
            }
            Dispatch::Inline(Outcome {
                response: TestApp::answer(&request.target, Answer::Inline),
                cache: "hit",
                close: false,
            })
        }

        fn execute(&self, request: &Request) -> Outcome {
            Outcome {
                response: TestApp::answer(&request.target, Answer::Executed),
                cache: "miss",
                close: false,
            }
        }

        fn on_connection(&self) {
            self.connections.fetch_add(1, Ordering::Relaxed);
            self.admitting.store(false, Ordering::Relaxed);
        }

        fn on_response(&self, _: &Request, _: &Outcome, _: u64, _: u64) {
            self.deferred_responses.fetch_add(1, Ordering::Relaxed);
        }

        fn shed(&self, _queue_len: usize) -> Response {
            self.sheds.fetch_add(1, Ordering::Relaxed);
            // A request-level shed follows the dispatch that deferred it
            // on the same thread: re-label that record. An accept-time
            // shed follows `on_connection`, which cleared the flag.
            if self.admitting.swap(false, Ordering::Relaxed) {
                if let Some(last) = lock(&self.dispatched).last_mut() {
                    last.1 = Answer::Shed;
                }
            }
            TestApp::answer("", Answer::Shed)
        }

        fn on_request_error(&self, status: u16) {
            lock(&self.request_errors).push(status);
        }

        fn draining(&self) -> bool {
            self.draining.load(Ordering::SeqCst)
        }
    }

    struct Rig {
        core: Core<FakePoller, FakeStream>,
        app: Arc<TestApp>,
        jobs: Arc<Bounded<Job>>,
        completions: Arc<Mutex<Vec<Completion>>>,
        /// Written-byte mirrors by fd, surviving connection teardown so
        /// tests can assert on the final bytes of a closed connection.
        sinks: std::collections::HashMap<i32, Arc<Mutex<Vec<u8>>>>,
    }

    fn rig(queue_depth: usize) -> Rig {
        let app = TestApp::new();
        let jobs = Arc::new(Bounded::new(queue_depth));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let core = Core::new(
            FakePoller::new(),
            Arc::clone(&app) as Arc<dyn App>,
            Config {
                limits: Limits::default(),
                max_requests: 100,
                read_timeout: Duration::from_millis(5_000),
                header_timeout: Duration::from_millis(2_000),
                write_timeout: Duration::from_millis(5_000),
                max_connections: 8,
            },
            Arc::clone(&jobs),
            Arc::clone(&completions),
            Arc::new(IoStats::default()),
        );
        Rig {
            core,
            app,
            jobs,
            completions,
            sinks: std::collections::HashMap::new(),
        }
    }

    impl Rig {
        /// Accepts a fake connection with fd `fd`; returns its slot index.
        fn connect(&mut self, fd: i32, now_ms: u64) -> usize {
            let before = self.core.conns();
            let sink: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
            let mut stream = FakeStream::new(fd);
            stream.mirror_writes(Arc::clone(&sink));
            self.sinks.insert(fd, sink);
            self.core.accept(stream, now_ms);
            assert_eq!(self.core.conns(), before + 1, "accept registered");
            // Slots are reused LIFO, so the freshest connection is either
            // a recycled slot or the new tail; find it by fd.
            (0..)
                .find(|&i| {
                    self.core
                        .conn_stream_mut(i)
                        .is_some_and(|s| s.raw_fd() == fd)
                })
                .expect("accepted slot")
        }

        /// Feeds bytes and delivers one readable event through the poller,
        /// exactly as the event loop would.
        fn feed_and_drive(&mut self, index: usize, fd: i32, bytes: &[u8], now_ms: u64) {
            self.core.conn_stream_mut(index).expect("live").feed(bytes);
            self.core.poller_mut().make_ready(fd, true, false, false);
            self.drive(now_ms);
        }

        /// One event-loop iteration: wait, dispatch events, completions,
        /// tick.
        fn drive(&mut self, now_ms: u64) {
            let mut events = Vec::new();
            self.core.wait(Some(Duration::ZERO), &mut events).unwrap();
            for event in events {
                self.core.on_event(event, now_ms);
            }
            self.core.apply_completions(now_ms);
            self.core.on_tick(now_ms);
        }

        /// Every byte the connection on `fd` ever flushed, even after it
        /// closed.
        fn written(&self, fd: i32) -> Vec<u8> {
            self.sinks
                .get(&fd)
                .map(|sink| lock(sink).clone())
                .unwrap_or_default()
        }

        /// Runs `job` synchronously as a pool worker would.
        fn work_one(&mut self) {
            let job = self.jobs.try_pop().expect("a queued job");
            let queue_wait_us = job.enqueued.elapsed().as_micros() as u64;
            let outcome = self.app.execute(&job.request);
            self.app
                .on_response(&job.request, &outcome, queue_wait_us, 0);
            lock(&self.completions).push(Completion {
                token: job.token,
                response: outcome.response,
                close: outcome.close,
            });
        }
    }

    fn count_status(bytes: &[u8], needle: &str) -> usize {
        String::from_utf8_lossy(bytes).matches(needle).count()
    }

    const GET: &[u8] = b"GET /ping HTTP/1.1\r\nhost: t\r\n\r\n";
    const POST: &[u8] = b"POST /sum HTTP/1.1\r\nhost: t\r\ncontent-length: 11\r\n\r\nhello world";

    #[test]
    fn partial_reads_at_every_boundary_yield_exactly_one_response() {
        for request in [GET, POST] {
            for split in 1..request.len() {
                let mut rig = rig(4);
                let index = rig.connect(9, 0);
                rig.feed_and_drive(index, 9, &request[..split], 0);
                assert_eq!(
                    count_status(&rig.written(9), "HTTP/1.1 200"),
                    0,
                    "no response from a partial request (split {split})"
                );
                assert_eq!(
                    rig.core.conn_state(index),
                    Some(ConnState::Reading),
                    "split {split} leaves the connection reading"
                );
                rig.feed_and_drive(index, 9, &request[split..], 1);
                assert_eq!(
                    count_status(&rig.written(9), "HTTP/1.1 200"),
                    1,
                    "one response once complete (split {split})"
                );
                assert_eq!(
                    rig.core.conn_state(index),
                    Some(ConnState::Idle),
                    "keep-alive returns to idle (split {split})"
                );
            }
        }
    }

    #[test]
    fn pipelined_pair_in_one_readiness_event_yields_two_responses_in_order() {
        let mut rig = rig(4);
        let index = rig.connect(7, 0);
        let mut both = GET.to_vec();
        both.extend_from_slice(b"GET /second HTTP/1.1\r\nhost: t\r\n\r\n");
        rig.feed_and_drive(index, 7, &both, 0);
        let written = rig.written(7);
        assert_eq!(count_status(&written, "HTTP/1.1 200"), 2);
        let text = String::from_utf8_lossy(&written);
        let first = text.find("/ping").expect("first response body");
        let second = text.find("/second").expect("second response body");
        assert!(first < second, "responses in request order");
        assert_eq!(rig.core.conn_state(index), Some(ConnState::Idle));
    }

    #[test]
    fn short_writes_backpressure_until_writable_events_drain_the_backlog() {
        let mut rig = rig(4);
        let index = rig.connect(5, 0);
        rig.core.conn_stream_mut(index).unwrap().write_cap = 7;
        rig.feed_and_drive(index, 5, GET, 0);
        assert_eq!(rig.core.conn_state(index), Some(ConnState::Writing));
        let interest = rig.core.poller_mut().interest(5).expect("registered");
        assert!(interest.writable, "backlog demands write interest");
        assert!(!interest.readable, "input paused while flushing");
        // Deliver writable readiness until the 7-bytes-per-call flush
        // finishes; a bounded loop so a regression fails, not hangs.
        for round in 0..100 {
            if rig.core.conn_state(index) == Some(ConnState::Idle) {
                break;
            }
            // The kernel freed 7 bytes of send buffer and reports
            // writable: refill the budget, deliver the event.
            rig.core.conn_stream_mut(index).unwrap().write_cap = 7;
            rig.core.poller_mut().make_ready(5, false, true, false);
            rig.drive(round + 1);
        }
        assert_eq!(rig.core.conn_state(index), Some(ConnState::Idle));
        assert_eq!(count_status(&rig.written(5), "HTTP/1.1 200"), 1);
        assert_eq!(
            rig.core.poller_mut().interest(5),
            Some(Interest::READ),
            "drained connection reads again"
        );
    }

    #[test]
    fn idle_deadline_closes_a_quiet_keepalive_silently() {
        let mut rig = rig(4);
        rig.connect(3, 0);
        rig.core.on_tick(4_900);
        assert_eq!(rig.core.conns(), 1, "before the idle deadline");
        rig.core.on_tick(5_100);
        assert_eq!(rig.core.conns(), 0, "idle deadline closes");
        assert!(rig.written(3).is_empty(), "silent close, no 408");
        assert_eq!(rig.core.poller_mut().registered(), 0, "fd deregistered");
        assert!(lock(&rig.app.request_errors).is_empty());
    }

    #[test]
    fn stalled_header_hits_the_total_deadline_with_408() {
        let mut rig = rig(4);
        let index = rig.connect(4, 0);
        // Trickle the head one byte at a time; each byte re-drives the
        // reader but must NOT extend the total header deadline.
        for (i, &byte) in GET.iter().take(6).enumerate() {
            rig.feed_and_drive(index, 4, &[byte], i as u64 * 300);
        }
        assert_eq!(rig.core.conn_state(index), Some(ConnState::Reading));
        // 6 bytes * 300ms = 1.8s of "progress"; the 2s total deadline
        // still fires because it was armed at the first head byte.
        rig.core.on_tick(2_400);
        let written = rig.written(4);
        assert_eq!(
            count_status(&written, "HTTP/1.1 408"),
            1,
            "slow loris gets 408"
        );
        assert_eq!(rig.core.conns(), 0, "then the connection closes");
        assert_eq!(*lock(&rig.app.request_errors), vec![408]);
    }

    #[test]
    fn deferred_request_parks_input_and_completion_resumes_keepalive() {
        let mut rig = rig(4);
        let index = rig.connect(6, 0);
        rig.feed_and_drive(index, 6, b"POST /defer HTTP/1.1\r\nhost: t\r\n\r\n", 0);
        assert_eq!(rig.core.conn_state(index), Some(ConnState::Executing));
        assert_eq!(
            rig.core.poller_mut().interest(6),
            Some(Interest::NONE),
            "no read-ahead while a worker owns the request"
        );
        assert_eq!(rig.jobs.len(), 1);
        rig.work_one();
        rig.drive(10);
        assert_eq!(count_status(&rig.written(6), "HTTP/1.1 200"), 1);
        assert_eq!(rig.core.conn_state(index), Some(ConnState::Idle));
        assert_eq!(rig.app.deferred_responses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn full_job_queue_sheds_the_request_with_503_and_close() {
        let mut rig = rig(1);
        let a = rig.connect(11, 0);
        let b = rig.connect(12, 0);
        rig.feed_and_drive(a, 11, b"POST /defer HTTP/1.1\r\nhost: t\r\n\r\n", 0);
        assert_eq!(rig.jobs.len(), 1, "first defer fills the queue");
        rig.feed_and_drive(b, 12, b"POST /defer HTTP/1.1\r\nhost: t\r\n\r\n", 0);
        let written = rig.written(12);
        assert_eq!(count_status(&written, "HTTP/1.1 503"), 1);
        assert!(String::from_utf8_lossy(&written).contains("retry-after: 1"));
        assert_eq!(rig.core.conn_state(b), None, "shed request closes its conn");
        assert_eq!(rig.app.sheds.load(Ordering::Relaxed), 1);
        assert_eq!(
            rig.core.conn_state(a),
            Some(ConnState::Executing),
            "the admitted request is untouched"
        );
    }

    #[test]
    fn accepts_beyond_max_connections_are_shed_at_the_door() {
        let mut rig = rig(4);
        for fd in 0..8 {
            rig.connect(100 + fd, 0);
        }
        assert_eq!(rig.core.conns(), 8);
        rig.core.accept(FakeStream::new(200), 0);
        assert_eq!(rig.core.conns(), 8, "over-cap accept not registered");
        assert_eq!(rig.app.sheds.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drain_closes_idle_conns_but_lets_inflight_work_finish() {
        let mut rig = rig(4);
        let idle = rig.connect(21, 0);
        let busy = rig.connect(22, 0);
        rig.feed_and_drive(busy, 22, b"POST /defer HTTP/1.1\r\nhost: t\r\n\r\n", 0);
        assert_eq!(rig.core.conn_state(busy), Some(ConnState::Executing));
        rig.core.begin_drain(1);
        assert_eq!(rig.core.conn_state(idle), None, "idle closed at drain");
        assert_eq!(
            rig.core.conn_state(busy),
            Some(ConnState::Executing),
            "in-flight request survives drain"
        );
        rig.work_one();
        rig.drive(2);
        let written = rig.written(22);
        assert_eq!(
            count_status(&written, "HTTP/1.1 200"),
            1,
            "response delivered"
        );
        assert_eq!(
            rig.core.conns(),
            0,
            "drained conn closes after its response"
        );
    }

    #[test]
    fn half_close_while_executing_still_delivers_the_response() {
        let mut rig = rig(4);
        let index = rig.connect(51, 0);
        rig.feed_and_drive(index, 51, b"POST /defer HTTP/1.1\r\nhost: t\r\n\r\n", 0);
        assert_eq!(rig.core.conn_state(index), Some(ConnState::Executing));
        // The client sent its whole request and shutdown(WR); the kernel
        // reports RDHUP. The request is executing — the peer is waiting
        // for its answer on the still-open other half.
        rig.core.conn_stream_mut(index).unwrap().half_close();
        rig.core.poller_mut().make_half_closed(51);
        rig.drive(1);
        assert_eq!(
            rig.core.conn_state(index),
            Some(ConnState::Executing),
            "a half-close must not abort an executing request"
        );
        rig.work_one();
        rig.drive(2);
        let written = rig.written(51);
        assert_eq!(
            count_status(&written, "HTTP/1.1 200"),
            1,
            "the response reaches the half-closed peer"
        );
        assert!(String::from_utf8_lossy(&written).contains("/defer"));
        // The EOF is then discovered through the read path: silent close.
        rig.drive(3);
        assert_eq!(rig.core.conns(), 0, "connection closes after the flush");
        assert!(lock(&rig.app.request_errors).is_empty(), "no error counted");
    }

    #[test]
    fn half_close_while_write_throttled_finishes_the_flush() {
        let mut rig = rig(4);
        let index = rig.connect(52, 0);
        rig.core.conn_stream_mut(index).unwrap().write_cap = 7;
        rig.feed_and_drive(index, 52, GET, 0);
        assert_eq!(rig.core.conn_state(index), Some(ConnState::Writing));
        // Mid-flush the client shuts down its send side.
        rig.core.conn_stream_mut(index).unwrap().half_close();
        rig.core.poller_mut().make_half_closed(52);
        rig.drive(1);
        assert_ne!(rig.core.conn_state(index), None, "still flushing");
        // Writable readiness keeps draining the backlog, 7 bytes a round.
        for round in 0..100 {
            if rig.core.conn_state(index).is_none() {
                break;
            }
            rig.core.conn_stream_mut(index).unwrap().write_cap = 7;
            rig.core.poller_mut().make_ready(52, false, true, false);
            rig.drive(round + 2);
        }
        let written = rig.written(52);
        assert_eq!(
            count_status(&written, "HTTP/1.1 200"),
            1,
            "the throttled response flushes to completion"
        );
        assert!(
            String::from_utf8_lossy(&written).contains("/ping"),
            "the body made it out whole"
        );
        assert_eq!(rig.core.conns(), 0, "then the EOF closes the connection");
        assert!(lock(&rig.app.request_errors).is_empty());
    }

    #[test]
    fn full_hangup_while_executing_still_closes_immediately() {
        let mut rig = rig(4);
        let index = rig.connect(53, 0);
        rig.feed_and_drive(index, 53, b"POST /defer HTTP/1.1\r\nhost: t\r\n\r\n", 0);
        assert_eq!(rig.core.conn_state(index), Some(ConnState::Executing));
        // ERR/HUP — dead in both directions — still tears down at once.
        rig.core.poller_mut().make_ready(53, false, false, true);
        rig.drive(1);
        assert_eq!(rig.core.conns(), 0, "full hangup closes the connection");
        rig.work_one();
        rig.drive(2);
        assert_eq!(
            count_status(&rig.written(53), "HTTP/1.1 200"),
            0,
            "the stale completion is dropped, not written to a corpse"
        );
    }

    #[test]
    fn half_close_mid_body_is_a_malformed_request() {
        let mut rig = rig(4);
        let index = rig.connect(31, 0);
        rig.core
            .conn_stream_mut(index)
            .unwrap()
            .feed(&POST[..POST.len() - 4]);
        rig.core.conn_stream_mut(index).unwrap().half_close();
        rig.core.poller_mut().make_ready(31, true, false, false);
        rig.drive(0);
        assert_eq!(count_status(&rig.written(31), "HTTP/1.1 400"), 1);
        assert_eq!(*lock(&rig.app.request_errors), vec![400]);
    }

    #[test]
    fn stale_timer_after_response_does_not_kill_the_next_request() {
        let mut rig = rig(4);
        let index = rig.connect(41, 0);
        // First request served at t=0 re-arms the idle deadline.
        rig.feed_and_drive(index, 41, GET, 0);
        assert_eq!(rig.core.conn_state(index), Some(ConnState::Idle));
        // The second request starts at 4.9s — inside the idle window —
        // and its body trickles; the *original* idle timer (due at 5s)
        // must not fire on the now-Reading connection.
        rig.feed_and_drive(index, 41, &POST[..10], 4_900);
        rig.core.on_tick(5_200);
        assert_eq!(
            rig.core.conn_state(index),
            Some(ConnState::Reading),
            "stale idle deadline was lazily cancelled"
        );
        rig.feed_and_drive(index, 41, &POST[10..], 5_300);
        assert_eq!(count_status(&rig.written(41), "HTTP/1.1 200"), 2);
    }

    /// One step of an adversarial schedule. Peer selectors index the
    /// connections the step can apply to, modulo their count.
    #[derive(Debug, Clone)]
    enum Op {
        /// Accept a connection that will send these requests, each
        /// `(deferred, with a body)`; past the connection cap the accept
        /// is shed at the door.
        Accept(Vec<(bool, bool)>),
        /// Deliver the next `len` scripted bytes, split wherever that
        /// lands.
        Feed(u8, u8),
        /// Set the peer's send budget and report it writable (a zero
        /// budget throttles without an event).
        Writable(u8, u8),
        /// Run one queued job, as a pool worker would.
        Work,
        /// Jump the clock: past the header deadline, past the idle and
        /// body window, or a little.
        Jump(u8),
        /// The peer shuts down its send side.
        HalfClose(u8),
    }

    /// Steps weighted toward traffic: most schedules should carry
    /// requests through every phase before a deadline or a half-close
    /// ends their connection.
    fn arb_op() -> impl Strategy<Value = Op> {
        let feed = || (any::<u8>(), 1u8..96).prop_map(|(p, n)| Op::Feed(p, n));
        prop_oneof![
            vec_of((any::<bool>(), any::<bool>()), 1..4).prop_map(Op::Accept),
            feed(),
            feed(),
            feed(),
            feed(),
            feed(),
            (any::<u8>(), 0u8..40).prop_map(|(p, n)| Op::Writable(p, n)),
            (any::<u8>(), 0u8..40).prop_map(|(p, n)| Op::Writable(p, n)),
            Just(Op::Work),
            (0u8..3).prop_map(Op::Jump),
            any::<u8>().prop_map(Op::HalfClose),
        ]
    }

    /// The client side of one connection in a schedule.
    struct Peer {
        fd: i32,
        script: Vec<u8>,
        fed: usize,
        half_closed: bool,
        /// A deadline closed it mid-flush: its response stream may end
        /// early, but never diverge.
        cut: bool,
        /// Shed at accept time beyond the connection cap.
        at_door: bool,
    }

    /// The wire bytes of `requests` for connection `fd`; each target
    /// names its connection and position so answers are attributable.
    fn script(fd: i32, requests: &[(bool, bool)]) -> Vec<u8> {
        let mut out = String::new();
        for (n, &(defer, body)) in requests.iter().enumerate() {
            let target = format!("{}/c{fd}/r{n}", if defer { "/defer" } else { "" });
            if body {
                out.push_str(&format!(
                    "POST {target} HTTP/1.1\r\nhost: t\r\ncontent-length: 5\r\n\r\nhello"
                ));
            } else {
                out.push_str(&format!("GET {target} HTTP/1.1\r\nhost: t\r\n\r\n"));
            }
        }
        out.into_bytes()
    }

    fn wire(response: &Response, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::new();
        response.write_to(&mut out, keep_alive).unwrap();
        out
    }

    impl Rig {
        /// The slot index of the live connection on `fd`.
        fn live_index(&mut self, fd: i32) -> Option<usize> {
            (0..16).find(|&i| {
                self.core
                    .conn_stream_mut(i)
                    .is_some_and(|s| s.raw_fd() == fd)
            })
        }
    }

    /// Checks one connection's written bytes against the direct answers
    /// to the requests dispatched on it, in order.
    fn check_peer(peer: &Peer, written: &[u8], expected: &[Response]) -> Result<(), String> {
        let mut rest = written;
        let mut closed = false;
        for (i, response) in expected.iter().enumerate() {
            if closed {
                return Err(format!("fd {}: response {i} follows a close", peer.fd));
            }
            let (kept, shut) = (wire(response, true), wire(response, false));
            if rest.starts_with(&kept) {
                rest = &rest[kept.len()..];
            } else if rest.starts_with(&shut) {
                rest = &rest[shut.len()..];
                closed = true;
            } else if peer.cut && (kept.starts_with(rest) || shut.starts_with(rest)) {
                return Ok(());
            } else {
                return Err(format!(
                    "fd {}: response {i} of {} diverges at {:?}",
                    peer.fd,
                    expected.len(),
                    String::from_utf8_lossy(&rest[..rest.len().min(80)])
                ));
            }
        }
        if rest.is_empty() {
            return Ok(());
        }
        // The only other bytes allowed: one terminal 400/408 for a
        // request that never completed (cut short, if the peer was cut).
        if closed {
            return Err(format!("fd {}: bytes after a close", peer.fd));
        }
        if peer.cut && rest.len() < 12 && b"HTTP/1.1 4".starts_with(&rest[..rest.len().min(10)]) {
            return Ok(());
        }
        let mut cursor = io::Cursor::new(rest.to_vec());
        match crate::http::read_response(&mut cursor) {
            Ok(error)
                if matches!(error.status, 400 | 408)
                    && error.header("connection") == Some("close")
                    && cursor.position() as usize == rest.len() =>
            {
                Ok(())
            }
            _ if peer.cut && rest.starts_with(b"HTTP/1.1 4") => Ok(()),
            other => Err(format!(
                "fd {}: unexpected trailing bytes {other:?}: {:?}",
                peer.fd,
                String::from_utf8_lossy(rest)
            )),
        }
    }

    properties! {
        /// Random readiness, partial reads, short writes, worker steps,
        /// deadline jumps, half-closes and drains: every dispatched
        /// request is answered exactly once with its direct answer (or
        /// the stream is cut by a write deadline, never diverging), every
        /// slot, timer and fd is released, and drain terminates.
        #[test]
        fn adversarial_schedules_answer_every_request_once_and_release_everything(
            ops in vec_of(arb_op(), 0..120),
            drain_at in 0usize..160,
        ) {
            let mut rig = rig(1);
            let mut peers: Vec<Peer> = Vec::new();
            let mut now = 0u64;
            let mut draining = false;
            for (step, op) in ops.into_iter().enumerate() {
                now += 1;
                if step == drain_at {
                    draining = true;
                    rig.core.begin_drain(now);
                }
                match op {
                    Op::Accept(requests) => {
                        if draining {
                            continue;
                        }
                        let fd = 1000 + peers.len() as i32;
                        let at_door = rig.core.conns() >= 8;
                        let sink: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
                        let mut stream = FakeStream::new(fd);
                        stream.mirror_writes(Arc::clone(&sink));
                        rig.sinks.insert(fd, sink);
                        rig.core.accept(stream, now);
                        peers.push(Peer {
                            fd,
                            script: script(fd, &requests),
                            fed: 0,
                            half_closed: false,
                            cut: false,
                            at_door,
                        });
                    }
                    Op::Feed(pick, len) => {
                        let open: Vec<usize> = (0..peers.len())
                            .filter(|&i| {
                                let p = &peers[i];
                                !p.at_door && !p.half_closed && p.fed < p.script.len()
                            })
                            .collect();
                        if open.is_empty() {
                            continue;
                        }
                        let peer = &mut peers[open[pick as usize % open.len()]];
                        let Some(index) = rig.live_index(peer.fd) else {
                            continue;
                        };
                        let end = (peer.fed + len as usize).min(peer.script.len());
                        let chunk = peer.script[peer.fed..end].to_vec();
                        peer.fed = end;
                        rig.feed_and_drive(index, peer.fd, &chunk, now);
                    }
                    Op::Writable(pick, budget) => {
                        let live: Vec<(i32, usize)> = peers
                            .iter()
                            .filter_map(|p| rig.live_index(p.fd).map(|i| (p.fd, i)))
                            .collect();
                        if live.is_empty() {
                            continue;
                        }
                        let (fd, index) = live[pick as usize % live.len()];
                        rig.core.conn_stream_mut(index).unwrap().write_cap = budget as usize;
                        if budget > 0 {
                            rig.core.poller_mut().make_ready(fd, false, true, false);
                        }
                        rig.drive(now);
                    }
                    Op::Work => {
                        if !rig.jobs.is_empty() {
                            rig.work_one();
                        }
                        rig.drive(now);
                    }
                    Op::Jump(size) => {
                        now += [2_100, 5_100, 700][size as usize];
                        let flushing: Vec<usize> = (0..peers.len())
                            .filter(|&i| {
                                let fd = peers[i].fd;
                                rig.live_index(fd)
                                    .is_some_and(|x| rig.core.conn_state(x) == Some(ConnState::Writing))
                            })
                            .collect();
                        rig.drive(now);
                        for i in flushing {
                            if rig.live_index(peers[i].fd).is_none() {
                                peers[i].cut = true;
                            }
                        }
                    }
                    Op::HalfClose(pick) => {
                        let live: Vec<usize> = (0..peers.len())
                            .filter(|&i| !peers[i].half_closed)
                            .filter(|&i| rig.live_index(peers[i].fd).is_some())
                            .collect();
                        if live.is_empty() {
                            continue;
                        }
                        let peer = &mut peers[live[pick as usize % live.len()]];
                        peer.half_closed = true;
                        let index = rig.live_index(peer.fd).unwrap();
                        rig.core.conn_stream_mut(index).unwrap().half_close();
                        rig.core.poller_mut().make_half_closed(peer.fd);
                        rig.drive(now);
                    }
                }
            }

            // Drain must terminate: finish queued work, let every backlog
            // flush, and let the clock expire whatever is left.
            rig.core.begin_drain(now);
            for _ in 0..16 {
                if rig.core.conns() == 0 {
                    break;
                }
                while !rig.jobs.is_empty() {
                    rig.work_one();
                }
                for peer in &peers {
                    if let Some(index) = rig.live_index(peer.fd) {
                        rig.core.conn_stream_mut(index).unwrap().write_cap = usize::MAX;
                        rig.core.poller_mut().make_ready(peer.fd, false, true, false);
                    }
                }
                now += 1;
                rig.drive(now);
                now += 5_100;
                rig.drive(now);
            }
            prop_assert_eq!(rig.core.conns(), 0, "drain did not terminate");
            prop_assert!((0..16).all(|i| rig.core.conn_state(i).is_none()));
            prop_assert_eq!(rig.core.poller_mut().registered(), 0);
            prop_assert_eq!(rig.jobs.len(), 0);
            now += 10_000;
            rig.core.on_tick(now);
            prop_assert_eq!(rig.core.timers_armed(), 0);

            let dispatched = lock(&rig.app.dispatched).clone();
            let door_sheds = peers.iter().filter(|p| p.at_door).count() as u64;
            let request_sheds = dispatched.iter().filter(|(_, a)| *a == Answer::Shed).count() as u64;
            prop_assert_eq!(rig.app.sheds.load(Ordering::Relaxed), door_sheds + request_sheds);
            prop_assert!(lock(&rig.app.request_errors).iter().all(|s| matches!(s, 400 | 408)));
            for peer in &peers {
                let written = rig.written(peer.fd);
                if peer.at_door {
                    prop_assert_eq!(written, wire(&TestApp::answer("", Answer::Shed), false));
                    continue;
                }
                let tag = format!("/c{}/", peer.fd);
                let expected: Vec<Response> = dispatched
                    .iter()
                    .filter(|(target, _)| target.contains(&tag))
                    .map(|(target, answer)| TestApp::answer(target, *answer))
                    .collect();
                if let Err(message) = check_peer(peer, &written, &expected) {
                    panic!("{message}");
                }
            }
        }
    }
}
