//! The workspace's one worker pool: map an index range over scoped
//! threads and hand the results back in index order — the property every
//! campaign, fuzz, lint and storm harness relies on for output that is
//! byte-identical at any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve a `--threads` value: `0` means one worker per available core.
pub fn resolve(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

/// `(0..n).map(f).collect()`, spread over up to `threads` workers (`0` =
/// all cores). Workers claim indices from a shared counter, so uneven
/// items balance; a single worker runs inline on the caller. A panic in
/// `f` is re-raised on the caller once every worker has stopped.
pub fn slot_map<T: Send>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = resolve(threads).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // Relaxed: the counter only hands out indices; results travel back
    // through `join`, which synchronizes.
    let next = AtomicUsize::new(0);
    let mut claimed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    claimed.sort_unstable_by_key(|(i, _)| *i);
    claimed.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_equals_the_sequential_map_at_any_thread_count() {
        for threads in [0, 1, 2, 8] {
            for n in [0, 1, 3, 100] {
                let expected: Vec<u64> = (0..n as u64).map(|i| i * i + 7).collect();
                let got = slot_map(threads, n, |i| (i * i + 7) as u64);
                assert_eq!(got, expected, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn one_worker_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let ids = slot_map(1, 3, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn resolve_maps_zero_to_the_host_and_keeps_the_rest() {
        assert!(resolve(0) >= 1);
        assert_eq!(resolve(1), 1);
        assert_eq!(resolve(8), 8);
    }

    #[test]
    fn a_panicking_closure_panics_the_caller_with_its_payload() {
        for threads in [1, 2, 8] {
            let caught = std::panic::catch_unwind(|| {
                slot_map(threads, 100, |i| {
                    assert!(i != 41, "item 41 is poisoned");
                    i
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                msg.contains("item 41 is poisoned"),
                "threads={threads}: {msg:?}"
            );
        }
    }
}
