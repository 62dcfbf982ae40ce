//! Socket readiness: [`turn`] runs one `epoll_wait`, records what the
//! kernel reported on each socket, and hands back the wakers of the tasks
//! waiting for it.
//!
//! There is no reactor thread. The executor's workers call [`turn`]
//! (`runtime.rs`): a worker with nothing queued takes the single driver
//! role and blocks in it, and a busy worker polls it without blocking
//! every 61 tasks. A push that finds the driver blocked and no worker
//! parked on the pool's condvar calls [`interrupt`], which makes an
//! eventfd in the epoll set readable so the driver returns to run it.
//! Only a blocking turn drains that eventfd: a polling turn that drained
//! it could leave the driver asleep on a write meant for it.
//!
//! A [`Source`] is a nonblocking socket plus its registration with the
//! reactor. It is registered once, edge-triggered, for both directions
//! and for the peer's hangup (`EPOLLIN | EPOLLOUT | EPOLLRDHUP |
//! EPOLLET`), and never re-armed. The registration keeps a readiness
//! word: a readable and a writable bit, a sticky closed bit per
//! direction, and in the high half a count of the events the kernel has
//! reported. An operation runs only while its direction's bit (or closed
//! bit) is set; a fresh source starts readable and writable, so the first
//! operation tries the socket instead of waiting for a report.
//!
//! - A turn **sets** the bits an event reports, counts it, and wakes the
//!   stored waker only if the direction it waits for is among them.
//! - An operation that returns `WouldBlock` **clears** its bit, unless
//!   the count moved since it read the word: an edge that arrived in
//!   between may be for data the operation missed, so it runs again.
//! - A read shorter than its buffer clears the read bit the same way: on
//!   a stream socket that means the kernel's queue is drained (epoll(7)),
//!   so the next read waits for an edge instead of probing for `EAGAIN`.
//! - `EPOLLRDHUP`, `EPOLLHUP` or `EPOLLERR` set the read side's closed bit,
//!   and `EPOLLHUP` or `EPOLLERR` the write side's. No clear removes them:
//!   when the last data and the FIN arrive in one edge, the short read
//!   that takes the data clears the read bit, and only the closed bit
//!   sends the next read to the socket to see EOF.
//! - A task with nothing ready **stores** its waker and its direction,
//!   then reads the count again: an edge the turn reported after the first
//!   read of the word found no waker, or an older one, and would be lost,
//!   so the operation runs again instead of returning `Pending`.
//!
//! Every `Source` registers its *own* file descriptor: the write half
//! of a split stream is a `try_clone` of the read half, so the two
//! share one open file description but keep readiness and wakers apart,
//! and each is deleted from the epoll set before its descriptor closes
//! (a closed descriptor whose description lives on in a duplicate would
//! otherwise stay in the set with nobody able to remove it).
//!
//! `epoll` and `eventfd` are Linux's; the calls are declared here because
//! the standard library already links the C library that has them.

#[cfg(not(target_os = "linux"))]
compile_error!("the tokio stand-in's reactor is epoll: it builds on Linux only");

use crate::{lock, runtime};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::os::raw::c_int;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::task::{Context, Poll, Waker};

/// `struct epoll_event`: packed on x86-64 only, as the kernel defines it.
#[derive(Clone, Copy)]
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// The eventfd's token; registrations count up from zero.
const INTERRUPT: u64 = u64::MAX;

// The readiness word: direction bits low, the event count high.
const READABLE: u64 = 1;
const WRITABLE: u64 = 1 << 1;
const READ_CLOSED: u64 = 1 << 2;
const WRITE_CLOSED: u64 = 1 << 3;
/// One reported event, in the word's high half.
const EVENT: u64 = 1 << 32;

/// The readiness bits an epoll event sets.
fn readiness(events: u32) -> u64 {
    let mut bits = 0;
    if events & EPOLLIN != 0 {
        bits |= READABLE;
    }
    if events & EPOLLOUT != 0 {
        bits |= WRITABLE;
    }
    if events & (EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
        bits |= READ_CLOSED;
    }
    if events & (EPOLLHUP | EPOLLERR) != 0 {
        bits |= WRITE_CLOSED;
    }
    bits
}

/// The direction a pending operation waits for.
#[derive(Clone, Copy)]
pub(crate) enum Interest {
    Read,
    Write,
}

impl Interest {
    /// The bit an operation in this direction clears when it finds the
    /// socket not ready.
    fn bit(self) -> u64 {
        match self {
            Interest::Read => READABLE,
            Interest::Write => WRITABLE,
        }
    }

    /// The bits under which an operation in this direction runs.
    fn ready(self) -> u64 {
        match self {
            Interest::Read => READABLE | READ_CLOSED,
            Interest::Write => WRITABLE | WRITE_CLOSED,
        }
    }
}

/// One source's readiness and the task waiting on it. A source has at
/// most one: its operations take `&mut self` (or, for `accept`, are
/// awaited by one task).
struct Registration {
    readiness: AtomicU64,
    waiter: Mutex<Option<(Waker, Interest)>>,
}

impl Registration {
    /// Record one event that set `bits`; hand the waiter's waker to `due`
    /// if it waits for one of them.
    fn report(&self, bits: u64, due: &mut Vec<Waker>) {
        // Set, then look for a waiter: a task that stores its waker after
        // this update reads the new count.
        let _ = self
            .readiness
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |word| {
                Some((word | bits).wrapping_add(EVENT))
            });
        let mut waiter = lock(&self.waiter);
        if matches!(&*waiter, Some((_, interest)) if bits & interest.ready() != 0) {
            due.extend(waiter.take().map(|(waker, _)| waker));
        }
    }
}

struct Reactor {
    epfd: RawFd,
    /// Readable while an [`interrupt`] is pending; level-triggered, so a
    /// write that lands before the driver blocks is seen when it does.
    wake: File,
    /// Registration token → registration, for every live [`Source`].
    table: Mutex<HashMap<u64, Arc<Registration>>>,
    next_token: AtomicU64,
}

fn reactor() -> &'static Reactor {
    static REACTOR: OnceLock<Reactor> = OnceLock::new();
    REACTOR.get_or_init(|| {
        // SAFETY: no pointer arguments; the result is checked below.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        assert!(epfd >= 0, "epoll_create1: {}", io::Error::last_os_error());
        // SAFETY: as for `epoll_create1`.
        let efd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        assert!(efd >= 0, "eventfd: {}", io::Error::last_os_error());
        // SAFETY: `efd` is a fresh descriptor that nothing else owns.
        let wake = unsafe { File::from_raw_fd(efd) };
        let mut ev = EpollEvent {
            events: EPOLLIN,
            data: INTERRUPT,
        };
        // SAFETY: `ev` outlives the call; both descriptors are open.
        let rc = unsafe { epoll_ctl(epfd, EPOLL_CTL_ADD, efd, &mut ev) };
        assert!(rc == 0, "epoll_ctl: {}", io::Error::last_os_error());
        Reactor {
            epfd,
            wake,
            table: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(0),
        }
    })
}

/// One `epoll_wait` of up to `timeout_ms` (−1 blocks until an event or an
/// [`interrupt`]); records what it reports and appends the wakers it
/// satisfies to `due`. A blocking turn also consumes a pending interrupt.
pub(crate) fn turn(timeout_ms: c_int, due: &mut Vec<Waker>) {
    let r = reactor();
    let mut events = [EpollEvent { events: 0, data: 0 }; 64];
    // SAFETY: `events` is a live, writable array of exactly the length
    // passed, and `epfd` stays open for the life of the process.
    let n = unsafe {
        epoll_wait(
            r.epfd,
            events.as_mut_ptr(),
            events.len() as c_int,
            timeout_ms,
        )
    };
    if n < 0 {
        let e = io::Error::last_os_error();
        assert!(e.kind() == io::ErrorKind::Interrupted, "epoll_wait: {e}");
        return;
    }
    let table = lock(&r.table);
    for ev in &events[..n as usize] {
        match ev.data {
            INTERRUPT => {
                if timeout_ms != 0 {
                    // Nonblocking: a read that finds the counter already
                    // consumed returns `WouldBlock`, which is fine.
                    let _ = (&r.wake).read(&mut [0; 8]);
                }
            }
            // A token that is gone belongs to a source dropped after the
            // kernel queued this event.
            token => {
                if let Some(reg) = table.get(&token) {
                    reg.report(readiness(ev.events), due);
                }
            }
        }
    }
}

/// Make the driver's blocking [`turn`] return.
pub(crate) fn interrupt() {
    // Cannot fail short of the counter's 2^64 − 2 ceiling, which the
    // driver's draining keeps it far from.
    let _ = (&reactor().wake).write(&1u64.to_ne_bytes());
}

/// A nonblocking socket registered with the reactor.
pub(crate) struct Source<S: AsRawFd> {
    token: u64,
    reg: Arc<Registration>,
    io: S,
}

impl<S: AsRawFd> Source<S> {
    /// Register `io`, which must already be nonblocking. Both directions
    /// start ready: the first operation finds out from the socket.
    pub(crate) fn new(io: S) -> io::Result<Self> {
        Source::register(io, READABLE | WRITABLE)
    }

    /// Register `io` with nothing ready: its first operation waits for
    /// the kernel's first report. For a socket whose connect is in
    /// progress, on which writability means the connection completed.
    pub(crate) fn unready(io: S) -> io::Result<Self> {
        Source::register(io, 0)
    }

    fn register(io: S, ready: u64) -> io::Result<Self> {
        // Only a worker turns the reactor: a program that waits on a
        // socket before it spawns anything needs them running too.
        runtime::start();
        let r = reactor();
        // Relaxed: the counter only has to hand out distinct numbers.
        let token = r.next_token.fetch_add(1, Ordering::Relaxed);
        let reg = Arc::new(Registration {
            readiness: AtomicU64::new(ready),
            waiter: Mutex::new(None),
        });
        lock(&r.table).insert(token, reg.clone());
        // Constructed before the ADD so that a failed ADD unwinds through
        // `Drop` like any other source (its DEL then fails and is ignored).
        let source = Source { token, reg, io };
        source.ctl(EPOLL_CTL_ADD, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET)?;
        Ok(source)
    }

    pub(crate) fn get(&self) -> &S {
        &self.io
    }

    fn ctl(&self, op: c_int, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: self.token,
        };
        // SAFETY: `ev` outlives the call, and `self.io` keeps the
        // descriptor open for as long as `self` exists.
        let rc = unsafe { epoll_ctl(reactor().epfd, op, self.io.as_raw_fd(), &mut ev) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    /// Clear `interest`'s bit if no event arrived since `seen` was read.
    fn clear(&self, interest: Interest, seen: u64) {
        let _ = self
            .reg
            .readiness
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |word| {
                (word >> 32 == seen >> 32).then_some(word & !interest.bit())
            });
    }

    /// Run the nonblocking operation `op` while the socket is ready for
    /// `interest`; once it is not, leave the task's waker with the
    /// reactor, to be woken when the kernel reports it ready. A result
    /// for which `drained` holds means the socket has nothing more for
    /// `interest` (a short read), and clears its readiness like a
    /// `WouldBlock` without the extra call that would return one.
    pub(crate) fn poll_io<T>(
        &self,
        cx: &mut Context<'_>,
        interest: Interest,
        mut op: impl FnMut(&S) -> io::Result<T>,
        drained: impl Fn(&T) -> bool,
    ) -> Poll<io::Result<T>> {
        loop {
            let seen = self.reg.readiness.load(Ordering::Acquire);
            if seen & interest.ready() != 0 {
                match op(&self.io) {
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.clear(interest, seen),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Ok(v) if drained(&v) => {
                        self.clear(interest, seen);
                        return Poll::Ready(Ok(v));
                    }
                    result => return Poll::Ready(result),
                }
            }
            // Store, then read the count again: a turn updates the word
            // before it takes the waiter's lock, so an event it reported
            // after `seen` is either counted here or finds this waker.
            let mut waiter = lock(&self.reg.waiter);
            match &mut *waiter {
                Some((waker, wants)) if waker.will_wake(cx.waker()) => *wants = interest,
                other => *other = Some((cx.waker().clone(), interest)),
            }
            if self.reg.readiness.load(Ordering::Acquire) >> 32 == seen >> 32 {
                return Poll::Pending;
            }
        }
    }
}

impl<S: AsRawFd> Drop for Source<S> {
    /// Leaves the epoll set and the table while the descriptor is still
    /// open; `io` closes it afterwards. Errors are ignored: `drop` must not
    /// panic, and a descriptor that was never added has nothing to remove.
    fn drop(&mut self) {
        let _ = self.ctl(EPOLL_CTL_DEL, 0);
        lock(&reactor().table).remove(&self.token);
    }
}

/// Number of live registrations.
#[cfg(test)]
pub(crate) fn registered() -> usize {
    lock(&reactor().table).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    /// An edge the kernel reports while an operation is failing on the
    /// state before it: the failure must not clear the readiness the edge
    /// set, and the task must not park on it. Both slips would leave the
    /// task waiting for an edge that has already come.
    #[test]
    fn an_edge_reported_during_a_failing_operation_is_not_lost() {
        let _serial = crate::test_serial();
        let (io, _peer) = UnixStream::pair().unwrap();
        io.set_nonblocking(true).unwrap();
        let source = Source::new(io).unwrap();
        // The ADD reports the socket writable once; wait for that turn, so
        // that the only edge below is the one this test makes.
        let t0 = Instant::now();
        while source.reg.readiness.load(Ordering::Acquire) < EVENT {
            assert!(t0.elapsed() < Duration::from_secs(5), "no first report");
            std::thread::yield_now();
        }
        let mut cx = Context::from_waker(Waker::noop());
        let mut calls = 0;
        let polled = source.poll_io(
            &mut cx,
            Interest::Read,
            |_| {
                calls += 1;
                if calls > 1 {
                    return Ok(calls);
                }
                source.reg.report(READABLE, &mut Vec::new());
                Err(io::ErrorKind::WouldBlock.into())
            },
            |_| false,
        );
        assert!(matches!(polled, Poll::Ready(Ok(2))), "{polled:?}");
    }
}
