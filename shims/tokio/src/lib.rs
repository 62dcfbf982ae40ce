//! Offline stand-in for the `tokio` crate.
//!
//! The build environment has no crates.io access, so the root manifest
//! patches `tokio` to this crate. It is a real (if small) multi-threaded
//! async runtime implementing exactly the API surface this workspace uses:
//!
//! - a thread-pool executor with `spawn`/`JoinHandle`/`abort` and a
//!   parker-based `block_on` (used by `#[tokio::main]`/`#[tokio::test]`);
//!   a task woken on a worker runs next on that worker (a LIFO slot, as
//!   in tokio), spawned tasks start in spawn order, and a task that
//!   panics resolves its handle to a panic `JoinError` and leaves its
//!   worker running;
//! - a timer thread backing `time::{sleep, sleep_until, timeout,
//!   timeout_at}`;
//! - nonblocking TCP (`net::{TcpListener, TcpStream}`, `connect`
//!   included) woken by socket readiness: the pool's workers drive an
//!   `epoll` reactor (Linux only) — one with nothing to run blocks in
//!   `epoll_wait`, a busy one polls it every 61 tasks — in which each
//!   socket is registered once, edge-triggered, and wake the task waiting
//!   on each socket, so latency is the kernel's and an idle connection
//!   uses no CPU;
//! - `sync::{mpsc, watch}` channels, which a panic does not poison, and
//!   an in-memory `io::duplex` pipe.
//!
//! A task that waits on a queue until a deadline awaits
//! `time::timeout_at(deadline, rx.recv())`.
//!
//! Single-flavor runtime: `rt-multi-thread` et al. are accepted as feature
//! names but do not change behavior.

pub mod io;
pub mod net;
mod reactor;
pub mod runtime;
pub mod sync;
pub mod task;
pub mod time;

pub use task::spawn;

/// `#[tokio::main]` / `#[tokio::test]` attribute macros.
pub use tokio_macros::{main, test};

/// Lock `m` even if a holder panicked, as tokio's own locks do: a panic
/// in a caller's code (a `watch` predicate, a task's poll) must not turn
/// every later use of a channel or of the pool into a panic too. Every
/// critical section in this crate leaves its data valid at each step
/// (a counter, a queue push or pop, a waker swapped); the one that runs
/// a caller's closure, `watch::Sender::send_modify`, keeps whatever the
/// closure changed before it panicked, as tokio's does.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Held by every unit test that opens sockets or sleeps: those tests
/// assert on process-wide state (the reactor's table, the timer table,
/// `/proc/self/fd`) that a neighbour running in parallel would disturb.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // One failed test must not fail the rest through a poisoned lock.
    lock(&SERIAL)
}
