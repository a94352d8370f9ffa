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
//! [`prefetch`] pipelines a producer: it runs an owned iterator (e.g. a
//! video stream, which owns its seeded RNG) on a helper thread a few
//! chunks ahead of the consumer, which sees exactly the inline sequence.
//!
//! One nesting rule covers all three: code running as a [`parallel_map`]
//! task never spawns a helper, so [`join`] and [`prefetch`] run inline
//! there and a pool never puts more threads on the machine than it was
//! given.
//!
//! No external dependencies: the pool is `std::thread` plus a
//! mutex-guarded queue and mpsc channels, which is plenty for the
//! coarse-grained work (whole simulations, chunks of frames) it schedules.

use std::cell::Cell;
use std::sync::mpsc::{self, Receiver};
use std::sync::Mutex;
use std::thread::JoinHandle;

/// Items per chunk a [`prefetch`] helper hands over: one channel
/// round trip (and at most one wake-up) per chunk instead of per item.
pub const PREFETCH_CHUNK: usize = 32;
/// Full chunks a [`prefetch`] channel buffers before the helper blocks;
/// with the chunk being filled and the one being consumed, at most
/// `(PREFETCH_DEPTH + 2) * PREFETCH_CHUNK` items are alive at once.
pub const PREFETCH_DEPTH: usize = 2;

thread_local! {
    /// Whether this thread is running a [`parallel_map`] task.
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with this thread marked as running a [`parallel_map`] task,
/// restoring the previous mark afterwards (also when `f` panics).
fn as_pool_task<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_POOL_TASK.with(|mark| mark.set(self.0));
        }
    }
    let _restore = Restore(IN_POOL_TASK.with(|mark| mark.replace(true)));
    f()
}

/// Threads a helper-spawning call ([`join`], [`prefetch`]) may use: one
/// inside a [`parallel_map`] task, whose pool already occupies the
/// threads it was given, else [`available_threads`].
fn helper_threads() -> usize {
    if IN_POOL_TASK.with(Cell::get) {
        1
    } else {
        available_threads()
    }
}

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
        return as_pool_task(|| {
            items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect()
        });
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            let f = &f;
            scope.spawn(move || {
                as_pool_task(|| loop {
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
/// first, when [`available_threads`] resolves to one or the caller is a
/// [`parallel_map`] task.
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
    join_on(helper_threads(), a, b)
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

/// Runs `iter` on a helper thread, [`PREFETCH_CHUNK`] items at a time
/// and up to [`PREFETCH_DEPTH`] chunks ahead of the consumer, and yields
/// its items in order: the sequence `iter` yields up to its first `None`.
/// Runs `iter` inline, with no thread, when [`available_threads`]
/// resolves to one or the caller is a [`parallel_map`] task.
///
/// The inline path is the specification. Prefetching changes only when
/// `iter` runs, so it is invisible exactly when `iter` shares no state
/// with the consumer: an iterator that owns its seeded RNG and reads
/// nothing the consumer writes yields the same items either way.
///
/// Dropping the result early stops the helper after the chunk it is
/// filling and joins it; items produced past that point are discarded,
/// as the inline iterator would never have produced them.
///
/// # Panics
///
/// Panics if the helper thread cannot be spawned. A panic inside `iter`
/// is re-raised on the consumer once it has received every item produced
/// before the panic.
pub fn prefetch<I>(iter: I) -> Prefetch<I>
where
    I: Iterator + Send + 'static,
    I::Item: Send + 'static,
{
    prefetch_on(helper_threads(), iter)
}

/// [`prefetch`] with an explicit thread count (`<= 1` runs inline).
fn prefetch_on<I>(threads: usize, mut iter: I) -> Prefetch<I>
where
    I: Iterator + Send + 'static,
    I::Item: Send + 'static,
{
    if threads <= 1 {
        return Prefetch(Source::Inline(iter));
    }
    let (tx, rx) = mpsc::sync_channel(PREFETCH_DEPTH);
    let helper = std::thread::spawn(move || loop {
        let mut chunk = Vec::with_capacity(PREFETCH_CHUNK);
        // Catch a panic so the items before it still reach the
        // consumer; re-raise it afterwards for `join` to collect.
        let filled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            chunk.extend(iter.by_ref().take(PREFETCH_CHUNK));
        }));
        let done = chunk.len() < PREFETCH_CHUNK;
        if !chunk.is_empty() && tx.send(chunk).is_err() {
            return; // the consumer is gone
        }
        if let Err(payload) = filled {
            std::panic::resume_unwind(payload);
        }
        if done {
            return;
        }
    });
    Prefetch(Source::Helper {
        chunk: Vec::new().into_iter(),
        live: Some((rx, helper)),
    })
}

/// The iterator [`prefetch`] returns.
pub struct Prefetch<I: Iterator>(Source<I>);

enum Source<I: Iterator> {
    Inline(I),
    Helper {
        /// The chunk being consumed.
        chunk: std::vec::IntoIter<I::Item>,
        /// The channel of filled chunks and the helper filling it; `None`
        /// once the helper has finished.
        live: Option<(Chunks<I::Item>, JoinHandle<()>)>,
    },
}

/// The receiving end of a [`prefetch`] helper's channel.
type Chunks<T> = Receiver<Vec<T>>;

impl<I: Iterator> Iterator for Prefetch<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let (chunk, live) = match &mut self.0 {
            Source::Inline(iter) => return iter.next(),
            Source::Helper { chunk, live } => (chunk, live),
        };
        loop {
            if let Some(item) = chunk.next() {
                return Some(item);
            }
            let (rx, _) = live.as_ref()?;
            match rx.recv() {
                Ok(next) => *chunk = next.into_iter(),
                // The helper dropped its sender: it finished or panicked.
                Err(_) => {
                    let (_, helper) = live.take()?;
                    if let Err(payload) = helper.join() {
                        std::panic::resume_unwind(payload);
                    }
                    return None;
                }
            }
        }
    }
}

impl<I: Iterator> std::fmt::Debug for Prefetch<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inline = matches!(self.0, Source::Inline(_));
        f.debug_struct("Prefetch")
            .field("inline", &inline)
            .finish_non_exhaustive()
    }
}

impl<I: Iterator> Drop for Prefetch<I> {
    fn drop(&mut self) {
        if let Source::Helper { live, .. } = &mut self.0 {
            if let Some((rx, helper)) = live.take() {
                // Disconnect first, so a helper blocked on a full channel
                // wakes up and returns.
                drop(rx);
                // A panic past the items consumed is discarded with them.
                let _ = helper.join();
            }
        }
    }
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
        rerun_at_one_thread("join_runs_inline_at_one_thread");
    }

    /// Re-runs the test `name` alone in a child process with
    /// `SHOGGOTH_THREADS=1`, so this process's environment (shared by
    /// parallel tests) is left untouched.
    fn rerun_at_one_thread(name: &str) {
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([name, "--test-threads=1"])
            .env("SHOGGOTH_THREADS", "1")
            .output()
            .expect("test binary re-runs");
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(
            child.status.success() && stdout.contains("1 passed"),
            "SHOGGOTH_THREADS=1 re-run of {name} failed:\n{stdout}"
        );
    }

    /// The thread each item of `prefetch(...)` was produced on.
    fn producer_ids() -> Vec<std::thread::ThreadId> {
        prefetch(std::iter::repeat_with(|| std::thread::current().id()).take(3)).collect()
    }

    #[test]
    fn prefetch_runs_inline_at_one_thread() {
        let caller = std::thread::current().id();
        if available_threads() == 1 {
            assert_eq!(producer_ids(), vec![caller; 3]);
            return;
        }
        let ids = producer_ids();
        assert!(
            ids.iter().all(|&id| id != caller),
            "more than one thread, yet no helper"
        );
        rerun_at_one_thread("prefetch_runs_inline_at_one_thread");
    }

    #[test]
    fn prefetch_yields_the_inline_sequence() {
        let c = PREFETCH_CHUNK;
        for len in [0, 1, c - 1, c, c + 1, 3 * c] {
            let source = move || (0..len).map(|i| format!("item {i}"));
            let inline: Vec<String> = source().collect();
            for threads in [1, 2] {
                let got: Vec<String> = prefetch_on(threads, source()).collect();
                assert_eq!(got, inline, "len = {len}, threads = {threads}");
            }
        }
    }

    #[test]
    fn prefetch_reraises_a_producer_panic_after_the_items_before_it() {
        let panic_at = PREFETCH_CHUNK + 5;
        let source = (0..).inspect(move |&i| assert!(i < panic_at, "producer fails at {i}"));
        let mut received = Vec::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for item in prefetch_on(2, source) {
                received.push(item);
            }
        }));
        let payload = result.expect_err("panic not re-raised on the consumer");
        let message = payload.downcast_ref::<String>().expect("formatted panic");
        assert_eq!(message, &format!("producer fails at {panic_at}"));
        assert_eq!(received, (0..panic_at).collect::<Vec<_>>());
    }

    #[test]
    fn dropping_prefetch_early_stops_and_joins_the_helper() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        /// An endless counter that flags when it is dropped.
        struct Endless(u64, Arc<AtomicBool>);
        impl Iterator for Endless {
            type Item = u64;
            fn next(&mut self) -> Option<u64> {
                self.0 += 1;
                Some(self.0)
            }
        }
        impl Drop for Endless {
            fn drop(&mut self) {
                self.1.store(true, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicBool::new(false));
        let mut items = prefetch_on(2, Endless(0, Arc::clone(&dropped)));
        let first: Vec<u64> = items.by_ref().take(3).collect();
        assert_eq!(first, vec![1, 2, 3]);
        drop(items);
        // The helper owns the iterator, so it was dropped only if the
        // helper returned, and `drop` joined it.
        assert!(dropped.load(Ordering::SeqCst), "helper still running");
    }

    #[test]
    fn join_and_prefetch_run_inline_in_pool_tasks() {
        for items in [1, 2] {
            let ids = parallel_map(vec![(); items], 2, |_, ()| {
                let me = std::thread::current().id();
                let (a, b) = join(
                    || std::thread::current().id(),
                    || std::thread::current().id(),
                );
                (me, a, b, producer_ids())
            });
            for (me, a, b, produced) in ids {
                assert_eq!((a, b), (me, me), "items = {items}: join spawned");
                assert_eq!(produced, vec![me; 3], "items = {items}: prefetch spawned");
            }
        }
        assert!(
            !IN_POOL_TASK.with(Cell::get),
            "the pool-task mark outlived the pool"
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
