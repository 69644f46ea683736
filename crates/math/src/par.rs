//! A `std`-only parallel execution layer for the FHE hot paths.
//!
//! Athena's five-step loop turns every non-linear layer into thousands of
//! *independent* LWE functional bootstrappings, and the underlying RNS-BFV
//! arithmetic is limb-parallel by construction — the exact parallelism the
//! paper's FRU array exploits in hardware. This module exposes that
//! parallelism on CPU threads with nothing but `std::thread::scope`:
//! no rayon, no crossbeam, no external crates (the build is hermetic).
//!
//! Work is split into contiguous chunks, one per worker, and results are
//! reassembled in input order, so every `parallel_*` function is
//! **deterministic**: the output is identical for any thread count,
//! including the sequential `threads = 1` fallback (which runs entirely on
//! the caller's stack — no spawning at all).
//!
//! Every worker records its operation counters into the counter scope of
//! the thread that spawned it (see [`crate::stats`]), so a `measure`
//! around a parallel region counts the whole region.
//!
//! The default worker count is [`std::thread::available_parallelism`],
//! overridable at runtime with the `ATHENA_THREADS` environment variable or
//! programmatically with [`set_threads`] (handy for serial-vs-parallel
//! equivalence tests and benchmarks).
//!
//! ```
//! use athena_math::par;
//! let squares = par::parallel_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::stats::Scope;

/// Process-wide thread-count override set by [`set_threads`]
/// (0 means "not set").
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The worker count used by the `parallel_*` entry points, resolved in
/// priority order: [`set_threads`] override, then the `ATHENA_THREADS`
/// environment variable, then [`std::thread::available_parallelism`].
///
/// The environment/hardware default is resolved **once** per process:
/// this is called per limb-level op (through [`threads_for`]), and an
/// environment lookup plus an affinity syscall and cgroup reads on every
/// call used to cost more than the op it scheduled.
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

/// Minimum work units (one unit ≈ one coefficient operation) each extra
/// worker must receive before spawning it pays for itself: a scoped
/// spawn + join costs tens of microseconds, so handing a thread less
/// than ~32k coefficient ops makes the region slower than running it
/// inline. Differential fuzzing at reduced ring degrees also showed the
/// churn itself is a hazard: a sweep spawning millions of short-lived
/// threads (one parallel region per per-limb op at `n = 64`)
/// intermittently died in `pthread_join` on some kernels. Work-sized
/// regions keep tiny rings inline and production rings parallel.
const WORK_PER_WORKER: usize = 32 * 1024;

/// The worker count for a region of `len` items costing roughly
/// `work_per_item` units each: the default count ([`num_threads`]),
/// capped so every worker gets at least `WORK_PER_WORKER` (32k) units.
/// Chunking — and therefore every result — is identical at any worker
/// count, so this only changes scheduling, never output.
pub fn threads_for(len: usize, work_per_item: usize) -> usize {
    let total = len.saturating_mul(work_per_item.max(1));
    num_threads().min(total / WORK_PER_WORKER).max(1)
}

/// Serialises the unit tests that set the process-wide override: one of
/// them asserts the count it set, and the others mean their serial and
/// parallel legs to run as labelled.
#[cfg(test)]
pub(crate) fn override_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Splits `len` items into at most `workers` contiguous chunk ranges.
fn chunk_ranges(len: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.clamp(1, len.max(1));
    let base = len / workers;
    let extra = len % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        if size == 0 {
            break;
        }
        ranges.push((start, start + size));
        start += size;
    }
    ranges
}

/// Maps `f` over `0..len` with an explicit worker count, preserving index
/// order. `threads <= 1` (or a single-item input) runs inline.
pub fn parallel_map_range_with<U, F>(threads: usize, len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = threads.min(len).max(1);
    if threads == 1 {
        return (0..len).map(f).collect();
    }
    let ranges = chunk_ranges(len, threads);
    let fref = &f;
    let counters = Scope::current();
    let mut chunks: Vec<Vec<U>> = Vec::with_capacity(ranges.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(a, b)| {
                let counters = counters.clone();
                scope.spawn(move || counters.enter(|| (a..b).map(fref).collect::<Vec<U>>()))
            })
            .collect();
        for h in handles {
            chunks.push(h.join().expect("parallel worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(len);
    for c in chunks {
        out.extend(c);
    }
    out
}

/// Maps `f` over `0..len` with the default worker count ([`num_threads`]).
pub fn parallel_map_range<U, F>(len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    parallel_map_range_with(num_threads(), len, f)
}

/// Maps `f` over a slice with an explicit worker count, preserving order.
pub fn parallel_map_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_range_with(threads, items.len(), |i| f(&items[i]))
}

/// Maps `f` over a slice with the default worker count, preserving order.
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_with(num_threads(), items, f)
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

/// Applies `f` to every element of a mutable slice in place, with the
/// default worker count.
pub fn parallel_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    parallel_for_each_mut_with(num_threads(), items, f)
}

/// Zips a mutable slice against a read-only slice of the same length and
/// applies `f(index, &mut a[i], &b[i])` in place, with an explicit worker
/// count. Workers own disjoint chunks of both slices, so this is as
/// deterministic as the serial loop.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn parallel_zip_mut_with<T, U, F>(threads: usize, a: &mut [T], b: &[U], f: F)
where
    T: Send,
    U: Sync,
    F: Fn(usize, &mut T, &U) + Sync,
{
    assert_eq!(a.len(), b.len(), "zip requires equal lengths");
    let len = a.len();
    let threads = threads.min(len).max(1);
    if threads == 1 {
        for (i, (x, y)) in a.iter_mut().zip(b).enumerate() {
            f(i, x, y);
        }
        return;
    }
    let fref = &f;
    let chunk = len.div_ceil(threads);
    let counters = Scope::current();
    std::thread::scope(|scope| {
        for (ci, (pa, pb)) in a.chunks_mut(chunk).zip(b.chunks(chunk)).enumerate() {
            let counters = counters.clone();
            scope.spawn(move || {
                counters.enter(|| {
                    let base = ci * chunk;
                    for (i, (x, y)) in pa.iter_mut().zip(pb).enumerate() {
                        fref(base + i, x, y);
                    }
                })
            });
        }
    });
}

/// Zips a mutable slice against a read-only slice with the default worker
/// count. See [`parallel_zip_mut_with`].
pub fn parallel_zip_mut<T, U, F>(a: &mut [T], b: &[U], f: F)
where
    T: Send,
    U: Sync,
    F: Fn(usize, &mut T, &U) + Sync,
{
    parallel_zip_mut_with(num_threads(), a, b, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_covers_input_exactly() {
        for len in [0usize, 1, 2, 7, 16, 100] {
            for workers in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, workers);
                let total: usize = ranges.iter().map(|(a, b)| b - a).sum();
                assert_eq!(total, len, "len={len} workers={workers}");
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                }
            }
        }
    }

    #[test]
    fn map_matches_serial_for_all_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1usize, 2, 3, 4, 8, 300] {
            let par = parallel_map_with(threads, &items, |&x| x * x + 1);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn map_range_preserves_index_order() {
        for threads in [1usize, 2, 5] {
            let out = parallel_map_range_with(threads, 100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn for_each_mut_matches_serial() {
        let mut a: Vec<u64> = (0..100).collect();
        let mut b = a.clone();
        parallel_for_each_mut_with(1, &mut a, |x| *x = x.wrapping_mul(7) + 3);
        parallel_for_each_mut_with(4, &mut b, |x| *x = x.wrapping_mul(7) + 3);
        assert_eq!(a, b);
    }

    #[test]
    fn zip_mut_matches_serial() {
        let b: Vec<u64> = (0..101).map(|i| i * 5 + 1).collect();
        let mut serial: Vec<u64> = (0..101).collect();
        for (i, (x, y)) in serial.iter_mut().zip(&b).enumerate() {
            *x = x.wrapping_add(*y) ^ i as u64;
        }
        for threads in [1usize, 2, 3, 8, 300] {
            let mut par: Vec<u64> = (0..101).collect();
            parallel_zip_mut_with(threads, &mut par, &b, |i, x, y| {
                *x = x.wrapping_add(*y) ^ i as u64;
            });
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map_with(8, &empty, |&x| x).is_empty());
        assert_eq!(parallel_map_with(8, &[5u64], |&x| x + 1), vec![6]);
        assert_eq!(parallel_map_range_with(8, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn override_takes_priority() {
        let _threads = override_lock();
        set_threads(3);
        assert_eq!(num_threads(), 3);
        set_threads(0);
        assert!(num_threads() >= 1);
    }
}
