//! `spawn`, `JoinHandle`, and `JoinError`.

use crate::lock;
use crate::runtime::{inject, Task};
use std::any::Any;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

struct JoinInner<T> {
    result: Option<Result<T, JoinError>>,
    waker: Option<Waker>,
}

struct JoinState<T> {
    inner: Mutex<JoinInner<T>>,
}

impl<T> JoinState<T> {
    fn complete(&self, result: Result<T, JoinError>) {
        let mut inner = lock(&self.inner);
        if inner.result.is_none() {
            inner.result = Some(result);
            if let Some(w) = inner.waker.take() {
                w.wake();
            }
        }
    }
}

/// Error returned by awaiting a `JoinHandle` whose task was aborted or
/// panicked.
#[derive(Debug)]
pub struct JoinError {
    /// `None` for a cancelled task, else the panic's message.
    panic: Option<String>,
}

impl JoinError {
    pub(crate) fn cancelled() -> JoinError {
        JoinError { panic: None }
    }

    pub(crate) fn panic(payload: Box<dyn Any + Send>) -> JoinError {
        let message = match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or("Box<dyn Any>", |s| s)
                .to_owned(),
        };
        JoinError {
            panic: Some(message),
        }
    }

    pub fn is_cancelled(&self) -> bool {
        self.panic.is_none()
    }

    pub fn is_panic(&self) -> bool {
        self.panic.is_some()
    }
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.panic {
            None => f.write_str("task was cancelled"),
            Some(message) => write!(f, "task panicked: {message}"),
        }
    }
}

impl std::error::Error for JoinError {}

/// Owned handle to a spawned task.
pub struct JoinHandle<T> {
    state: Arc<JoinState<T>>,
    task: Arc<Task>,
}

impl<T> JoinHandle<T> {
    /// Request cancellation: the task's future is dropped at its next
    /// scheduling point and the handle resolves to a cancelled error.
    pub fn abort(&self) {
        self.task.aborted.store(true, Ordering::Release);
        self.task.clone().schedule();
    }

    pub fn is_finished(&self) -> bool {
        lock(&self.state.inner).result.is_some()
    }
}

impl<T> Unpin for JoinHandle<T> {}

impl<T> Future for JoinHandle<T> {
    type Output = Result<T, JoinError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = lock(&self.state.inner);
        if let Some(result) = inner.result.take() {
            Poll::Ready(result)
        } else {
            inner.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Spawn a future onto the shared worker pool.
pub fn spawn<F>(future: F) -> JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    let state = Arc::new(JoinState {
        inner: Mutex::new(JoinInner {
            result: None,
            waker: None,
        }),
    });
    let run_state = state.clone();
    let fail_state = state.clone();
    let wrapped: Pin<Box<dyn Future<Output = ()> + Send>> = Box::pin(async move {
        let value = future.await;
        run_state.complete(Ok(value));
    });
    let fail = Box::new(move |error| fail_state.complete(Err(error)));
    let task = Task::new(wrapped, fail);
    let handle = JoinHandle {
        state,
        task: task.clone(),
    };
    inject(task);
    handle
}
