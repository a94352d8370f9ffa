//! A minimal scoped thread pool with deterministic result ordering.
//!
//! [`parallel_map`] fans a vector of independent work items over a fixed
//! number of `std::thread` workers that self-schedule from a shared queue
//! (idle workers steal the next pending item), then merges the results
//! **by item index** so the output vector is bit-identical to a serial
//! `items.into_iter().enumerate().map(f).collect()` — provided `f` itself
//! is a pure function of `(index, item)`.
//!
//! That proviso is the whole determinism contract of the experiment
//! runner: every simulation owns its seeded RNG (no shared mutable
//! state), so per-device and per-strategy runs are pure in exactly this
//! sense, and running them through the pool cannot change any reported
//! number — only the wall-clock time.
//!
//! [`join`] is the two-task form of the same contract: it runs two
//! independent closures (e.g. student and teacher pretraining, each with
//! its own seeded RNG) side by side and returns both results in argument
//! order.
//!
//! No external dependencies: the pool is `std::thread::scope` plus a
//! mutex-guarded queue and an mpsc channel, which is plenty for the
//! coarse-grained work (whole simulations) it schedules.

use std::sync::mpsc;
use std::sync::Mutex;

/// Worker-thread count to use when the caller passes `threads == 0`:
/// the `SHOGGOTH_THREADS` environment variable when set and positive,
/// otherwise [`std::thread::available_parallelism`] (1 if unknown).
pub fn available_threads() -> usize {
    let from_env = std::env::var("SHOGGOTH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0);
    from_env.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// Maps `f` over `items` on `threads` worker threads, returning results
/// in item order (index `i` of the output is `f(i, items[i])`).
///
/// `threads == 0` resolves via [`available_threads`]; a resolved count of
/// one (or at most one item) runs inline on the calling thread with no
/// thread machinery at all. Because results are merged by index and `f`
/// receives each item by value, the output is identical for every thread
/// count — the serial path is the specification, the threaded path is the
/// optimization.
///
/// # Panics
///
/// Propagates a panic from `f` after all worker threads have finished
/// (the underlying [`std::thread::scope`] joins every worker).
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = resolve_threads(threads).min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            let f = &f;
            scope.spawn(move || loop {
                // Take the next pending item; drop the lock before the
                // (expensive) call so other workers keep stealing work.
                let next = match queue.lock() {
                    Ok(mut guard) => guard.next(),
                    Err(poisoned) => poisoned.into_inner().next(),
                };
                let Some((i, item)) = next else { return };
                let result = f(i, item);
                if tx.send((i, result)).is_err() {
                    return;
                }
            });
        }
        // The workers hold the remaining senders; the receive loop ends
        // when the last worker drops its clone.
        drop(tx);
        let mut results: Vec<(usize, R)> = rx.iter().collect();
        // If a worker panicked, scope re-raises after joining — so when we
        // get here every index is present exactly once.
        results.sort_unstable_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, r)| r).collect()
    })
}

/// Runs `a` and `b` and returns `(a(), b())`: `b` on a scoped helper
/// thread while `a` runs on the calling thread, or both inline, `a`
/// first, when [`available_threads`] resolves to one.
///
/// Like [`parallel_map`], the inline path is the specification: as long
/// as the closures share no mutable state, the results are identical for
/// every thread count.
///
/// # Panics
///
/// Re-raises a panic from either closure once both have finished (the
/// helper thread is always joined first); if both panic, `a`'s payload
/// wins.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    join_on(available_threads(), a, b)
}

/// [`join`] with an explicit thread count (`<= 1` runs inline).
fn join_on<A, B, RA, RB>(threads: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    if threads <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let helper = scope.spawn(b);
        // A panic in `a` unwinds into `scope`, which joins `helper` before
        // re-raising it.
        let ra = a();
        match helper.join() {
            Ok(rb) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// Resolves a requested thread count (`0` = auto) to at least one worker.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        available_threads()
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_index_order() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|&v| v * v).collect();
        for threads in [1, 2, 4, 7] {
            let got = parallel_map(items.clone(), threads, |_, v| v * v);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a", "b", "c", "d"];
        let got = parallel_map(items, 3, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u8> = parallel_map(Vec::<u8>::new(), 4, |_, v| v);
        assert!(got.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let got = parallel_map(vec![41], 8, |_, v| v + 1);
        assert_eq!(got, vec![42]);
    }

    #[test]
    fn auto_thread_count_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn join_is_identical_inline_and_threaded() {
        let work = |seed: u64| {
            let mut x = seed;
            for _ in 0..10_000 {
                x ^= x >> 29;
                x = x.wrapping_mul(0xBF58476D1CE4E5B9);
            }
            x
        };
        let inline = join_on(1, || work(1), || work(2));
        let threaded = join_on(2, || work(1), || work(2));
        assert_eq!(inline, threaded);
        assert_eq!(inline, (work(1), work(2)));
    }

    #[test]
    fn join_runs_inline_at_one_thread() {
        let caller = std::thread::current().id();
        if available_threads() == 1 {
            let ids = join(
                || std::thread::current().id(),
                || std::thread::current().id(),
            );
            assert_eq!(ids, (caller, caller));
            return;
        }
        let (_, helper) = join(|| (), || std::thread::current().id());
        assert_ne!(helper, caller, "more than one thread, yet no helper");
        // Re-run this test alone in a child process with one thread, so
        // this process's environment (shared by parallel tests) is left
        // untouched.
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["join_runs_inline_at_one_thread", "--test-threads=1"])
            .env("SHOGGOTH_THREADS", "1")
            .output()
            .expect("test binary re-runs");
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(
            child.status.success() && stdout.contains("1 passed"),
            "SHOGGOTH_THREADS=1 re-run failed:\n{stdout}"
        );
    }

    #[test]
    fn join_reraises_a_panic_after_both_sides_finish() {
        use std::sync::atomic::{AtomicBool, Ordering};
        for panicking_side in [0, 1] {
            let other_finished = AtomicBool::new(false);
            let (about_to_panic, wait_for_panic) = mpsc::channel::<()>();
            // The other side only finishes after the panicking side has
            // started to panic, so the flag shows whether `join` waited.
            let finished = &other_finished;
            let other = move || {
                wait_for_panic.recv().expect("panicking side signals first");
                finished.store(true, Ordering::SeqCst);
            };
            let panicking = move || {
                about_to_panic.send(()).expect("other side is waiting");
                panic!("side {panicking_side}");
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if panicking_side == 0 {
                    join_on(2, panicking, other);
                } else {
                    join_on(2, other, panicking);
                }
            }));
            assert!(
                result.is_err(),
                "side {panicking_side}: panic not re-raised"
            );
            assert!(
                other_finished.load(Ordering::SeqCst),
                "side {panicking_side}: re-raised before the other side finished"
            );
        }
    }

    #[test]
    fn parallel_equals_serial_for_stateful_items() {
        // Each item carries its own seed-like state; the pool must not
        // perturb per-item computations regardless of scheduling.
        let items: Vec<u64> = (0..32).map(|i| i * 2654435761).collect();
        let work = |_: usize, seed: u64| {
            let mut x = seed.wrapping_add(0x9E3779B97F4A7C15);
            for _ in 0..1000 {
                x ^= x >> 33;
                x = x.wrapping_mul(0xFF51AFD7ED558CCD);
            }
            x
        };
        let serial = parallel_map(items.clone(), 1, work);
        let threaded = parallel_map(items, 4, work);
        assert_eq!(serial, threaded);
    }
}
