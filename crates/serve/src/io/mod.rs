//! The event-driven I/O core: readiness loop, connection state machines,
//! and deadline timers.
//!
//! One reactor thread owns every connection fd, so an idle keep-alive
//! connection costs an fd and no worker time:
//!
//! - [`poller`] — readiness collection behind the [`Poller`] trait: a raw
//!   `epoll` implementation on Linux ([`poller::EpollPoller`]) and a
//!   deterministic in-memory [`poller::FakePoller`] so every state-machine
//!   path is testable without sockets. The split follows the
//!   time-agnostic, caller-driven scheduler discipline: the loop asks
//!   "what is ready?" and is handed an explicit answer it can replay.
//! - [`timer`] — a hashed timer wheel with lazy cancellation for
//!   per-connection header/idle/write deadlines; time is a caller-supplied
//!   millisecond clock, never read inside the wheel.
//! - [`conn`] — the per-connection non-blocking state machine
//!   (idle → reading → executing → writing) over the incremental
//!   [`RequestReader`](crate::http::RequestReader) parser.
//! - [`reactor`] — the event loop binding them together with a worker
//!   pool: heavy requests are queued to workers, I/O never blocks a
//!   worker, and completions flow back over a wake channel.
//!
//! The only `unsafe` in the crate lives in [`sys`], a ~60-line epoll
//! syscall shim.

pub mod conn;
pub mod poller;
pub mod reactor;
#[cfg(target_os = "linux")]
mod sys;
pub mod timer;

pub use poller::{Event, Interest, Poller};
