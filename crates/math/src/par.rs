//! Fan-out on `std` threads, for the two places where it measurably pays.
//!
//! Athena gets its speed from spreading independent limbs and LWEs over
//! the FRU array (§4.3). On CPU threads at the ring sizes this workspace
//! runs, that split inside a single operation costs more than it saves: a
//! scoped spawn and join takes tens of microseconds, longer than a
//! per-limb NTT at `N = 128`. So every request-path operation runs
//! sequentially on its caller's thread, and [`parallel_for_each_mut_with`]
//! has exactly two callers: `InferenceSession::run_batch`, which hands
//! each worker a contiguous chunk of a batch of requests, and
//! `HomLinearTransform::new`, which builds a transform's diagonal cache
//! once per engine. A new region belongs here only with a measured gain
//! on a benchmark workload.
//!
//! The primitive is built on `std::thread::scope` alone (no external
//! crates) and is **deterministic**: each item is touched by exactly one
//! worker, so the result is identical for any worker count, including the
//! inline `threads = 1` path, which spawns nothing. Every worker records
//! its operation counters into the counter scope of the thread that
//! spawned it (see [`crate::stats`]), so a `measure` around a region
//! counts all of it.
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
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::stats::Scope;

/// Process-wide thread-count override set by [`set_threads`]
/// (0 means "not set").
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

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
    if threads == 1 {
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
                counters.enter(|| {
                    for item in part {
                        fref(item);
                    }
                })
            });
        }
    });
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
    fn override_takes_priority() {
        set_threads(3);
        assert_eq!(num_threads(), 3);
        set_threads(0);
        assert!(num_threads() >= 1);
    }
}
