//! Socket readiness: [`turn`] runs one `epoll_wait` and hands back the
//! wakers of the tasks whose sockets the kernel reported.
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
//! reactor. An operation that returns `WouldBlock` goes through three
//! steps, in this order: **store** the task's waker in the
//! registration, **arm** a one-shot interest in the direction it needs
//! (`EPOLLIN` or `EPOLLOUT`, `| EPOLLONESHOT`), return `Pending`; the
//! turn that sees the kernel report the socket then **wakes** the stored
//! waker. Interest is level-triggered, so a socket that
//! became ready between the failed operation and the arm is reported at
//! once — there is no window in which a wake can be lost — and one-shot,
//! so a socket nobody is waiting on costs nothing however ready it is,
//! and two turns running at once never both report it.
//! An event that finds no waker (its task was woken some other way and
//! has moved on) is dropped; an event that finds the waker of a later
//! wait is a spurious wake, after which the task re-arms.
//!
//! Every `Source` registers its *own* file descriptor: the write half
//! of a split stream is a `try_clone` of the read half, so the two
//! share one open file description but arm and disarm independently,
//! and each is deleted from the epoll set before its descriptor closes
//! (a closed descriptor whose description lives on in a duplicate would
//! otherwise stay in the set with nobody able to remove it).
//!
//! `epoll` and `eventfd` are Linux's; the calls are declared here because
//! the standard library already links the C library that has them.

#[cfg(not(target_os = "linux"))]
compile_error!("the tokio stand-in's reactor is epoll: it builds on Linux only");

use crate::lock;
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
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLONESHOT: u32 = 1 << 30;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// The eventfd's token; registrations count up from zero.
const INTERRUPT: u64 = u64::MAX;

/// The direction a pending operation waits for.
#[derive(Clone, Copy)]
#[repr(u32)]
pub(crate) enum Interest {
    Read = EPOLLIN,
    Write = EPOLLOUT,
}

/// The waker of the task waiting on one source. A source has one: its
/// operations take `&mut self` (or, for `accept`, are awaited by one
/// task), so at most one task waits on it at a time.
type Slot = Arc<Mutex<Option<Waker>>>;

struct Reactor {
    epfd: RawFd,
    /// Readable while an [`interrupt`] is pending; level-triggered, so a
    /// write that lands before the driver blocks is seen when it does.
    wake: File,
    /// Registration token → waker slot, for every live [`Source`].
    table: Mutex<HashMap<u64, Slot>>,
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
/// [`interrupt`]); appends the wakers of the sockets reported to `due`.
/// A blocking turn also consumes a pending interrupt.
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
                if let Some(slot) = table.get(&token) {
                    due.extend(lock(slot).take());
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
    slot: Slot,
    io: S,
}

impl<S: AsRawFd> Source<S> {
    /// Register `io`, which must already be nonblocking, with no interest
    /// armed yet.
    pub(crate) fn new(io: S) -> io::Result<Self> {
        let r = reactor();
        // Relaxed: the counter only has to hand out distinct numbers.
        let token = r.next_token.fetch_add(1, Ordering::Relaxed);
        let slot = Slot::default();
        lock(&r.table).insert(token, slot.clone());
        // Constructed before the ADD so that a failed ADD unwinds through
        // `Drop` like any other source (its DEL then fails and is ignored).
        let source = Source { token, slot, io };
        source.ctl(EPOLL_CTL_ADD, EPOLLONESHOT)?;
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

    /// Run the nonblocking operation `op`; if it would block, leave the
    /// task's waker with the reactor, to be woken when the socket is ready
    /// for `interest`.
    pub(crate) fn poll_io<T>(
        &self,
        cx: &mut Context<'_>,
        interest: Interest,
        mut op: impl FnMut(&S) -> io::Result<T>,
    ) -> Poll<io::Result<T>> {
        loop {
            match op(&self.io) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Store, then arm, both under the slot's lock: a turn
                    // takes the waker under the same lock, so it sees
                    // either no waker or an armed one.
                    let mut slot = lock(&self.slot);
                    *slot = Some(cx.waker().clone());
                    self.ctl(EPOLL_CTL_MOD, interest as u32 | EPOLLONESHOT)?;
                    return Poll::Pending;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                result => return Poll::Ready(result),
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
