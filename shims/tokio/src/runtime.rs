//! The executor: a fixed thread pool fed by a global injector queue and a
//! LIFO slot per worker, plus a parker-based `block_on` for the main
//! thread.
//!
//! Each task is an `Arc<Task>` that is its own waker (`std::task::Wake`).
//! A per-task state machine (idle / queued / running / notified / done)
//! guarantees a task is polled by at most one worker at a time and that a
//! wake arriving *during* a poll re-queues the task afterwards instead of
//! being lost — the two classic races of naive executors. A task whose
//! poll panics is dropped and its `JoinHandle` resolves to a panic
//! `JoinError`; the worker carries on.
//!
//! A task woken on a worker thread — by the task that worker is running,
//! or by the worker's own reactor turn — goes into that worker's LIFO
//! slot and runs next, on the same thread: no queue lock, no condvar, no
//! eventfd, and the data the waker just wrote is still in that core's
//! cache. A wake that finds the slot taken moves the older task to the
//! queue. After `MAX_LIFO_POLLS` slot tasks in a row the slot's task
//! goes to the back of the queue, so two tasks that wake each other
//! cannot keep a worker from the queue. A worker only parks or blocks in
//! the reactor with its slot empty: nobody else can run what is in it.
//! Wakes from any other thread (the timer's, `block_on`'s), a task's wake
//! of itself during its poll (a yield), and every `spawn` go to the back
//! of the queue.
//!
//! Ordering the stand-in guarantees: tasks spawned by one thread start in
//! spawn order (the queue is FIFO and spawns never take the slot), and
//! bytes on one socket arrive in the kernel's order. Nothing else: which
//! of two woken tasks runs first, or on which worker, is not part of the
//! contract, and a test that depends on it is wrong.
//!
//! The workers also drive socket readiness ([`reactor`]); there is no
//! thread of its own for it. A worker that finds the queue empty takes
//! the single driver role if it is free and blocks in `turn(-1)`, or
//! else parks on the pool's condvar. A push wakes a thread only when it
//! must: it notifies the condvar when a worker is parked there, failing
//! that interrupts the driver if it is blocked, and otherwise wakes
//! nobody, because an awake worker will pop the task. A busy worker
//! polls the reactor without blocking every [`EVENT_INTERVAL`] tasks, so
//! readiness is not starved while no worker is idle to drive it.

use crate::task::JoinError;
use crate::{lock, reactor};
use std::cell::Cell;
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::task::{Context, Poll, Wake, Waker};

const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// Tasks a worker runs between two nonblocking reactor polls: tokio's
/// `event_interval`.
const EVENT_INTERVAL: u32 = 61;

/// Tasks a worker runs from its LIFO slot in a row before the slot's task
/// goes to the back of the queue: tokio's `MAX_LIFO_POLLS_PER_TICK`.
const MAX_LIFO_POLLS: u32 = 3;

thread_local! {
    /// Set on the pool's worker threads only.
    static WORKER: Cell<bool> = const { Cell::new(false) };
    /// The task this worker runs next.
    static LIFO: Cell<Option<Arc<Task>>> = const { Cell::new(None) };
}

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

/// Completes the `JoinHandle` with an error if the task ends without
/// finishing its future: aborted, or panicked.
type Fail = Box<dyn FnOnce(JoinError) + Send>;

pub(crate) struct Task {
    state: AtomicU8,
    future: Mutex<Option<BoxFuture>>,
    fail: Mutex<Option<Fail>>,
    pub(crate) aborted: AtomicBool,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.schedule();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.clone().schedule();
    }
}

impl Task {
    pub(crate) fn new(future: BoxFuture, fail: Fail) -> Arc<Task> {
        Arc::new(Task {
            state: AtomicU8::new(IDLE),
            future: Mutex::new(Some(future)),
            fail: Mutex::new(Some(fail)),
            aborted: AtomicBool::new(false),
        })
    }

    /// Wake: queue the task unless it is queued, running (then it is
    /// flagged to run again) or done. On a worker thread it takes the
    /// worker's LIFO slot.
    pub(crate) fn schedule(self: Arc<Self>) {
        loop {
            match self.state.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        if WORKER.get() {
                            if let Some(older) = LIFO.replace(Some(self)) {
                                pool().push(older);
                            }
                        } else {
                            pool().push(self);
                        }
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued, already flagged, or finished.
                _ => return,
            }
        }
    }

    /// End the task without its future's result: drop the future, then
    /// resolve the handle to `error`.
    fn abandon(&self, slot: &mut Option<BoxFuture>, error: JoinError) {
        *slot = None;
        if let Some(fail) = lock(&self.fail).take() {
            fail(error);
        }
        self.state.store(DONE, Ordering::Release);
    }

    /// Poll once on a worker thread.
    fn run(self: Arc<Self>) {
        self.state.store(RUNNING, Ordering::Release);

        let mut slot = lock(&self.future);
        if self.aborted.load(Ordering::Acquire) {
            self.abandon(&mut slot, JoinError::cancelled());
            return;
        }

        let waker = Waker::from(self.clone());
        let mut cx = Context::from_waker(&waker);
        let Some(fut) = slot.as_mut() else {
            self.state.store(DONE, Ordering::Release);
            return;
        };
        match panic::catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
            Ok(Poll::Ready(())) => {
                *slot = None;
                drop(slot);
                lock(&self.fail).take();
                self.state.store(DONE, Ordering::Release);
            }
            Ok(Poll::Pending) => {
                drop(slot);
                // A wake that arrived mid-poll left us NOTIFIED: requeue.
                if self
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    self.state.store(QUEUED, Ordering::Release);
                    pool().push(self);
                }
            }
            Err(payload) => self.abandon(&mut slot, JoinError::panic(payload)),
        }
    }
}

/// Who holds the reactor: nobody, a worker blocked in `turn(-1)`, or
/// such a worker whose eventfd a push has already written.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Driver {
    Free,
    Blocked,
    Interrupted,
}

struct Queue {
    tasks: VecDeque<Arc<Task>>,
    /// Workers inside `Condvar::wait` on [`Pool::available`].
    parked: usize,
    driver: Driver,
}

struct Pool {
    queue: Mutex<Queue>,
    available: Condvar,
}

impl Pool {
    fn push(&self, task: Arc<Task>) {
        let mut q = lock(&self.queue);
        q.tasks.push_back(task);
        if q.parked > 0 {
            drop(q);
            self.available.notify_one();
        } else if q.driver == Driver::Blocked {
            q.driver = Driver::Interrupted;
            drop(q);
            reactor::interrupt();
        }
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().clamp(2, 8))
            .unwrap_or(4);
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("tokio-shim-worker-{i}"))
                .spawn(worker_loop)
                .expect("spawn worker thread");
        }
        Pool {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                parked: 0,
                driver: Driver::Free,
            }),
            available: Condvar::new(),
        }
    })
}

fn worker_loop() {
    WORKER.set(true);
    let pool = pool();
    let mut due: Vec<Waker> = Vec::new();
    let mut ran: u32 = 0;
    let mut lifo_polls: u32 = 0;
    loop {
        let task = match LIFO.take() {
            Some(task) if lifo_polls < MAX_LIFO_POLLS => {
                lifo_polls += 1;
                task
            }
            over => {
                lifo_polls = 0;
                if let Some(task) = over {
                    pool.push(task);
                }
                next_from_queue(pool, &mut due)
            }
        };
        task.run();
        ran = ran.wrapping_add(1);
        if ran.is_multiple_of(EVENT_INTERVAL) {
            reactor::turn(0, &mut due);
            due.drain(..).for_each(Waker::wake);
        }
    }
}

/// Pop the queue's front, or else drive the reactor or park until there
/// is a task to run. Called with this worker's LIFO slot empty; returns
/// the slot's task if the driver's own wakes filled it.
fn next_from_queue(pool: &Pool, due: &mut Vec<Waker>) -> Arc<Task> {
    let mut q = lock(&pool.queue);
    loop {
        if let Some(t) = q.tasks.pop_front() {
            return t;
        }
        if q.driver == Driver::Free {
            q.driver = Driver::Blocked;
            drop(q);
            reactor::turn(-1, due);
            // Give the role up before waking: the tasks woken land in this
            // worker's slot or queue, where it looks next, so none of those
            // pushes needs the eventfd.
            lock(&pool.queue).driver = Driver::Free;
            due.drain(..).for_each(Waker::wake);
            if let Some(task) = LIFO.take() {
                return task;
            }
            q = lock(&pool.queue);
        } else {
            q.parked += 1;
            q = pool
                .available
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
            q.parked -= 1;
        }
    }
}

/// Start the workers if they are not running yet.
pub(crate) fn start() {
    pool();
}

/// Queue a new task. Spawns skip the LIFO slot, so tasks spawned by one
/// task start in the order they were spawned.
pub(crate) fn inject(task: Arc<Task>) {
    task.state.store(QUEUED, Ordering::Release);
    pool().push(task);
}

struct Parker {
    thread: std::thread::Thread,
    notified: AtomicBool,
}

impl Wake for Parker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// Drive a future to completion on the current thread; spawned tasks run
/// on the pool meanwhile. This is what `#[tokio::main]` expands to.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let parker = Arc::new(Parker {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(parker.clone());
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => {
                while !parker.notified.swap(false, Ordering::Acquire) {
                    std::thread::park();
                }
            }
        }
    }
}
