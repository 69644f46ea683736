//! Fork–join on `std` threads, for the three places where it measurably
//! pays.
//!
//! Athena gets its speed from spreading independent limbs and LWEs over
//! the FRU array (§4.3). On CPU threads at the ring sizes this workspace
//! runs, that split inside a single operation costs more than it saves: a
//! scoped spawn and join takes tens of microseconds, longer than a
//! per-limb NTT at `N = 128`. So every request-path operation runs
//! sequentially on its caller's thread, and the two primitives here have
//! three callers:
//!
//! * [`parallel_for_each_mut_with`] in `InferenceSession::run_batch`,
//!   which hands each worker a contiguous chunk of a batch of requests,
//!   and in `HomLinearTransform::new`, which builds a transform's
//!   diagonal cache once per engine;
//! * [`parallel_join`] in `bsgs::bsgs_polynomial_eval`, which splits a
//!   large FBS's baby-power levels and outer tree across the workers —
//!   whole ciphertext products, not limbs.
//!
//! A new region belongs here only with a measured gain on a benchmark
//! workload.
//!
//! Both are built on `std::thread::scope` alone (no external crates) and
//! are **deterministic**: each item or side is run by exactly one thread,
//! so the result is identical for any worker count, including the inline
//! paths, which spawn nothing. A thread spawned by either is a *worker*,
//! and a worker runs every nested region inline: a `run_batch` that
//! already fills the cores never spawns again inside its requests. Every
//! worker records its operation counters into a private block that is
//! added into the counter scope of the thread that spawned it when the
//! worker finishes (see [`crate::stats`]), so a `measure` around a region
//! counts all of it without the workers sharing a cache line.
//!
//! The worker count is [`std::thread::available_parallelism`], overridable
//! with the `ATHENA_THREADS` environment variable or at run time with
//! [`set_threads`].
//!
//! ```
//! use athena_math::par;
//! let mut squares = [1u64, 2, 3, 4];
//! par::parallel_for_each_mut_with(2, &mut squares, |x| *x *= *x);
//! assert_eq!(squares, [1, 4, 9, 16]);
//! let (a, b) = par::parallel_join(|| 6 * 7, || "side");
//! assert_eq!((a, b), (42, "side"));
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::stats::Scope;

/// Process-wide thread-count override set by [`set_threads`]
/// (0 means "not set").
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether the calling thread is a worker spawned by this module.
    static WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a worker of a region, which runs every
/// nested region inline.
fn in_worker() -> bool {
    WORKER.with(Cell::get)
}

/// Runs `f` as a worker spawned by the thread whose counter scope is
/// `counters`.
fn work<T>(counters: Scope, f: impl FnOnce() -> T) -> T {
    WORKER.with(|w| w.set(true));
    counters.enter(f)
}

/// The worker count, resolved in priority order:
/// [`set_threads`] override, then the `ATHENA_THREADS` environment
/// variable, then [`std::thread::available_parallelism`]. The
/// environment/hardware default is resolved **once** per process.
pub fn num_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    *DEFAULT.get_or_init(|| {
        std::env::var("ATHENA_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Forces the worker count for the whole process (`0` clears the override
/// and returns control to `ATHENA_THREADS` / hardware detection).
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Applies `f` to every element of a mutable slice in place, with an
/// explicit worker count.
pub fn parallel_for_each_mut_with<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let len = items.len();
    let threads = threads.min(len).max(1);
    if threads == 1 || in_worker() {
        for item in items {
            f(item);
        }
        return;
    }
    let fref = &f;
    // Hand each worker a disjoint chunk of the slice.
    let chunk = len.div_ceil(threads);
    let counters = Scope::current();
    std::thread::scope(|scope| {
        for part in items.chunks_mut(chunk) {
            let counters = counters.clone();
            scope.spawn(move || {
                work(counters, || {
                    for item in part {
                        fref(item);
                    }
                })
            });
        }
    });
}

/// Runs `a` on the calling thread and `b` on a new scoped worker at the
/// same time, and returns both results. Inside a worker of any region both
/// run inline, `a` first. A panic in either side propagates to the caller
/// with its own payload, once both sides have finished.
pub fn parallel_join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    if in_worker() {
        return (a(), b());
    }
    let counters = Scope::current();
    std::thread::scope(|scope| {
        let side = scope.spawn(move || work(counters, b));
        let ra = a();
        match side.join() {
            Ok(rb) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_covers_input_exactly() {
        for len in [0usize, 1, 2, 7, 16, 100] {
            for workers in [1usize, 2, 3, 8, 200] {
                let mut visits = vec![0u32; len];
                parallel_for_each_mut_with(workers, &mut visits, |v| *v += 1);
                assert!(
                    visits.iter().all(|&v| v == 1),
                    "len={len} workers={workers}"
                );
            }
        }
    }

    /// The `run_batch` shape: each item carries its index and an output
    /// slot, and the slots come back in index order at any worker count.
    #[test]
    fn map_range_preserves_index_order() {
        for threads in [1usize, 2, 5] {
            let mut jobs: Vec<(usize, Option<usize>)> = (0..100).map(|i| (i, None)).collect();
            parallel_for_each_mut_with(threads, &mut jobs, |(i, out)| *out = Some(*i * 3));
            let out: Vec<usize> = jobs.into_iter().map(|(_, o)| o.unwrap()).collect();
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn for_each_mut_matches_serial() {
        let serial: Vec<u64> = (0..257u64).map(|x| x.wrapping_mul(7) + 3).collect();
        // Uneven chunks, and more workers than items.
        for threads in [1usize, 2, 3, 4, 8, 300] {
            let mut par: Vec<u64> = (0..257).collect();
            parallel_for_each_mut_with(threads, &mut par, |x| *x = x.wrapping_mul(7) + 3);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    /// A map from a shared input to fresh outputs, written as
    /// (input, output slot) pairs the way `run_batch` builds its jobs.
    #[test]
    fn map_matches_serial_for_all_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1usize, 2, 3, 4, 8, 300] {
            let mut jobs: Vec<(&u64, u64)> = items.iter().map(|x| (x, 0)).collect();
            parallel_for_each_mut_with(threads, &mut jobs, |(x, out)| *out = **x * **x + 1);
            let par: Vec<u64> = jobs.into_iter().map(|(_, out)| out).collect();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    /// An in-place update of one slice read against a second, with the
    /// element index, zipped into pairs of borrows.
    #[test]
    fn zip_mut_matches_serial() {
        let b: Vec<u64> = (0..101).map(|i| i * 5 + 1).collect();
        let mut serial: Vec<u64> = (0..101).collect();
        for (i, (x, y)) in serial.iter_mut().zip(&b).enumerate() {
            *x = x.wrapping_add(*y) ^ i as u64;
        }
        for threads in [1usize, 2, 3, 8, 300] {
            let mut par: Vec<u64> = (0..101).collect();
            let mut pairs: Vec<(usize, (&mut u64, &u64))> =
                par.iter_mut().zip(&b).enumerate().collect();
            parallel_for_each_mut_with(threads, &mut pairs, |(i, (x, y))| {
                **x = x.wrapping_add(**y) ^ *i as u64;
            });
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let mut empty: Vec<u64> = Vec::new();
        parallel_for_each_mut_with(8, &mut empty, |x| *x += 1);
        assert!(empty.is_empty());
        let mut one = [5u64];
        parallel_for_each_mut_with(8, &mut one, |x| *x += 1);
        assert_eq!(one, [6]);
    }

    #[test]
    fn join_returns_both_sides_in_order() {
        let (a, b) = parallel_join(|| (0..10u64).sum::<u64>(), || vec![1, 2, 3]);
        assert_eq!((a, b), (45, vec![1, 2, 3]));
        let me = std::thread::current().id();
        let (here, there) = parallel_join(
            || std::thread::current().id(),
            || std::thread::current().id(),
        );
        assert_eq!(here, me);
        assert_ne!(there, me, "the second side runs on a worker");
    }

    #[test]
    fn join_reraises_the_workers_own_panic_payload() {
        let caught = std::panic::catch_unwind(|| {
            parallel_join(
                || 1,
                || -> u32 { std::panic::panic_any(String::from("side fault")) },
            )
        });
        let payload = caught.expect_err("the worker panicked");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("side fault")
        );
        // The calling side's panic wins when both sides fail.
        let caught = std::panic::catch_unwind(|| {
            parallel_join(
                || -> u32 { std::panic::panic_any(7u8) },
                || -> u32 { std::panic::panic_any(9u8) },
            )
        });
        assert_eq!(caught.unwrap_err().downcast_ref::<u8>(), Some(&7));
    }

    /// A region nested in a worker of either primitive runs on that
    /// worker's own thread.
    #[test]
    fn nested_regions_inside_a_worker_spawn_nothing() {
        let mut items = [0u8; 4];
        parallel_for_each_mut_with(2, &mut items, |_| {
            let me = std::thread::current().id();
            let (a, b) = parallel_join(
                || std::thread::current().id(),
                || std::thread::current().id(),
            );
            assert_eq!((a, b), (me, me));
            let mut inner = [0u8; 4];
            parallel_for_each_mut_with(4, &mut inner, |_| {
                assert_eq!(std::thread::current().id(), me)
            });
        });
        let ((), ()) = parallel_join(
            || (),
            || {
                let me = std::thread::current().id();
                let (a, b) = parallel_join(
                    || std::thread::current().id(),
                    || std::thread::current().id(),
                );
                assert_eq!((a, b), (me, me));
            },
        );
    }

    #[test]
    fn override_takes_priority() {
        set_threads(3);
        assert_eq!(num_threads(), 3);
        set_threads(0);
        assert!(num_threads() >= 1);
    }
}
