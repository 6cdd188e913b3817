//! Minimal readiness-driven I/O primitives without external crates.
//!
//! The build environment has no `mio`/`tokio`, so the multiplexed server
//! core ([`fairsqg-service`]'s mux module) drives nonblocking sockets off
//! this crate's [`Poller`]: a level-triggered readiness queue backed by
//! `epoll(7)`, reached through the same small `extern "C"` idiom as
//! `fairsqg-store`'s mmap loader.
//! [`Waker`] is a nonblocking `UnixStream` pair whose read end registers
//! with the poller like any other source, so worker threads can interrupt
//! a blocked [`Poller::wait`]. A socket pair buffers many bytes, so wakes
//! coalesce on an atomic flag instead: between two drains only the first
//! wake writes to the pair.
//!
//! Level-triggered semantics are deliberate: a readable/writable source is
//! reported on every wait until drained, so partial reads/writes (the
//! normal case under backpressure) need no readiness re-arming and cannot
//! be lost. On every target but Linux [`Poller::new`] returns
//! `ErrorKind::Unsupported`: serving is Linux-only.

mod poller;
mod waker;

pub use poller::{Event, Interest, Poller};
pub use waker::Waker;
