//! Pooled limb buffers: the scratch arena behind every [`crate::poly::Poly`].
//!
//! Steady-state FHE inference has a *fixed, plan-known working set*: every
//! step of a compiled plan takes and releases the same ring-degree-sized
//! limb buffers on every run. This module turns those buffers into a
//! process-wide recycling pool so the hot path stops round-tripping through
//! the system allocator: a [`LimbVec`] checks a buffer out of the pool on
//! construction and returns it on drop, and once the pool has been warmed
//! by one full run, later runs perform **zero fresh heap allocations** in
//! the limb hot path (pinned by `alloc_discipline` in `athena-bench`).
//!
//! # Per-thread checkout
//!
//! The pool is split into [`N_SHARDS`] shards. Each thread is assigned a
//! shard on first use (round-robin), checks buffers out of — and returns
//! them to — *its own* shard, so the workers of a `par` region (the
//! concurrent requests of a `run_batch`) normally never contend on a
//! lock. Only when a thread's shard has no buffer of the right size does
//! it *steal* from the other shards, and only when every shard misses does
//! it fall back to a fresh allocation. The
//! steal pass is what keeps the steady-state zero-miss guarantee
//! independent of `ATHENA_THREADS`: every `par` region spawns fresh OS
//! threads, so a buffer released by one batch's worker must be reachable
//! from the next batch's differently-assigned workers, and from the
//! caller's thread.
//!
//! # Determinism
//!
//! Pooling changes *where* a buffer's memory comes from, never its
//! contents as observed by correct code: [`LimbVec::take_raw`] contents are
//! unspecified and the caller must fully overwrite them (enable
//! [`set_poison`] in tests to enforce this), while [`LimbVec::take_zeroed`]
//! always zeroes. Total take/recycle counts are schedule-independent;
//! the fresh-vs-pooled split of a *cold* run depends on thread
//! interleaving, so tests and reports only pin thread-invariant totals and
//! the steady-state `fresh == 0` invariant.
//!
//! # Capacity and leases
//!
//! The pool as a whole — all shards together — retains at most `BASE_CAP`
//! bytes plus the process-wide [`ArenaLease`] reservation; buffers
//! released above the cap are freed (counted in the `AllocFreed` row of
//! [`crate::stats`]). The bound is global, not per shard,
//! because every `par` region spawns fresh OS threads and each takes the
//! next shard round-robin: successive batches walk all the shards, and a
//! per-shard cap let retention (hence peak RSS) grow with the number of
//! batches served until every shard had filled. A long-lived owner with a
//! known working set — the plan cache entry of an `InferenceSession` —
//! holds a lease sized from its compiled plan, so the pool keeps that
//! working set resident exactly as long as the plan is cached and trims
//! back when the entry is evicted.
//!
//! # Quarantine (panic safety)
//!
//! A panic mid-step can leave partially written buffers: the unwinding
//! drops recycle them into the pool looking like any other released
//! buffer. Contents never affect correct code (the [`LimbVec::take_raw`]
//! contract requires a full overwrite before reading), but a faulted
//! request must not be able to leave *anything* behind — so an executor
//! that catches a panic calls [`quarantine`], which bumps the pool
//! generation and frees every pooled buffer. [`LimbVec`]s are stamped with
//! the generation at checkout; a buffer from a pre-quarantine generation
//! is freed, never re-pooled, when it finally drops. The next run re-warms
//! the pool from fresh allocations (one cold run after a fault — visible
//! as `fresh > 0` in the `alloc-stats` counters, then `fresh == 0` again).
//!
//! A panic *inside* the arena (while a shard lock is held) poisons that
//! shard's mutex. Every lock site recovers: the poisoned shard's contents
//! are freed, the poison is cleared, and [`poison_recoveries`] counts the
//! event so an executor can surface it as a typed `PoolPoisoned` error.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::stats::{record, Counter};

/// Number of pool shards. Threads are assigned round-robin, so regions
/// with up to this many workers get contention-free checkout.
pub const N_SHARDS: usize = 8;

/// Bytes the pool retains with no lease outstanding (so short-lived
/// usage — tests, one-shot tools — still gets recycling without a lease).
const BASE_CAP: usize = 4 * 1024 * 1024;

/// One pool shard: buffers bucketed by exact length.
struct Shard {
    buckets: BTreeMap<usize, Vec<Vec<u64>>>,
    bytes: usize,
}

impl Shard {
    const fn new() -> Self {
        Self {
            buckets: BTreeMap::new(),
            bytes: 0,
        }
    }
}

static SHARDS: [Mutex<Shard>; N_SHARDS] = [const { Mutex::new(Shard::new()) }; N_SHARDS];

/// Bytes retained across all shards (the sum of every `Shard::bytes`),
/// kept beside the shard maps so the retention cap can be global without
/// a sweep over the shard locks on every release. `Relaxed` throughout: it
/// is a byte count that publishes no other data — the buffers themselves
/// only ever change hands under a shard mutex.
static POOLED: AtomicUsize = AtomicUsize::new(0);

/// Round-robin shard assignment for new threads.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// Process-wide extra retention reserved by live [`ArenaLease`]s.
static RESERVED: AtomicUsize = AtomicUsize::new(0);

/// Poison mode: when enabled, `take_raw` buffers are filled with
/// [`poison_value`] instead of being handed out with stale contents.
static POISON_ON: AtomicBool = AtomicBool::new(false);
static POISON_VALUE: AtomicU64 = AtomicU64::new(0);

/// Pool generation, bumped by [`quarantine`]. Buffers checked out under an
/// older generation are freed instead of recycled when they drop.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// Count of shard-lock poison recoveries (a thread panicked while holding
/// a shard mutex; the shard was flushed and the poison cleared).
static POISON_RECOVERED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's home shard index.
    static SHARD_IDX: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % N_SHARDS;
}

/// The calling thread's home shard (0 if thread-local storage is already
/// being torn down).
fn my_shard() -> usize {
    SHARD_IDX.try_with(|&i| i).unwrap_or(0)
}

/// The pool-wide retention cap in force: the base cap plus every live
/// [`ArenaLease`]. [`pooled_bytes`] never exceeds it, whichever shards the
/// releasing threads were assigned.
pub fn retention_cap() -> usize {
    BASE_CAP + RESERVED.load(Ordering::Relaxed)
}

/// Empties a shard, keeping the pool-wide byte count in step; returns how
/// many buffers were dropped.
fn flush(shard: &mut Shard) -> usize {
    let dropped = shard.buckets.values().map(Vec::len).sum();
    shard.buckets.clear();
    POOLED.fetch_sub(shard.bytes, Ordering::Relaxed);
    shard.bytes = 0;
    dropped
}

/// Enables (`Some(sentinel)`) or disables (`None`) poison-on-checkout.
///
/// With poisoning on, every [`LimbVec::take_raw`] buffer is filled with the
/// sentinel before it is handed out. Code that honors the `take_raw`
/// contract (fully overwrite before reading) is unaffected; code that
/// reads stale pool data produces sentinel-dependent output. Running a
/// deterministic computation with poisoning off and on and asserting
/// bit-identical results therefore proves no op reads stale scratch
/// (see `scratch_poisoning_is_invisible` in `athena-core`).
pub fn set_poison(sentinel: Option<u64>) {
    match sentinel {
        Some(v) => {
            POISON_VALUE.store(v, Ordering::Relaxed);
            POISON_ON.store(true, Ordering::Relaxed);
        }
        None => POISON_ON.store(false, Ordering::Relaxed),
    }
}

/// The active poison sentinel, if poisoning is enabled.
pub fn poison_value() -> Option<u64> {
    if POISON_ON.load(Ordering::Relaxed) {
        Some(POISON_VALUE.load(Ordering::Relaxed))
    } else {
        None
    }
}

/// Locks shard `idx`, recovering from lock poisoning: a thread that
/// panicked while holding the lock may have left the shard mid-update, so
/// its retained buffers are suspect — free them all, clear the poison, and
/// count the recovery (surfaced by [`poison_recoveries`]).
fn lock_shard(idx: usize) -> std::sync::MutexGuard<'static, Shard> {
    match SHARDS[idx].lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            let mut guard = poisoned.into_inner();
            record(Counter::AllocFreed, flush(&mut guard) as u64);
            SHARDS[idx].clear_poison();
            POISON_RECOVERED.fetch_add(1, Ordering::Relaxed);
            guard
        }
    }
}

/// Total bytes currently retained across all shards (locks every shard,
/// so a poisoned one is recovered on the way).
pub fn pooled_bytes() -> usize {
    (0..N_SHARDS).map(|i| lock_shard(i).bytes).sum()
}

/// Total bytes currently reserved by live [`ArenaLease`]s.
pub fn reserved_bytes() -> usize {
    RESERVED.load(Ordering::Relaxed)
}

/// The current pool generation (bumped by every [`quarantine`]).
pub fn generation() -> u64 {
    GENERATION.load(Ordering::Relaxed)
}

/// Number of shard-lock poison recoveries since process start.
pub fn poison_recoveries() -> usize {
    POISON_RECOVERED.load(Ordering::Relaxed)
}

/// What [`quarantine`] flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineReport {
    /// The generation the pool is now on.
    pub generation: u64,
    /// Pooled buffers freed by the flush.
    pub freed: usize,
}

/// Quarantines the pool after a caught panic: bumps the generation (so
/// every buffer checked out *before* the quarantine is freed, not
/// re-pooled, when it drops) and frees everything currently pooled —
/// including buffers a panicking step recycled on its way out with
/// partially written contents. Conservative by design: the next run pays
/// one cold warm-up, and no state from the faulted request can reach a
/// later one.
pub fn quarantine() -> QuarantineReport {
    // Bump first: a concurrent recycle racing the flush below must route
    // its (old-generation) buffer to the free path, not re-pool it after
    // we have already swept its shard.
    let generation = GENERATION.fetch_add(1, Ordering::Relaxed) + 1;
    let mut freed = 0usize;
    for i in 0..N_SHARDS {
        freed += flush(&mut lock_shard(i));
    }
    record(Counter::AllocFreed, freed as u64);
    QuarantineReport { generation, freed }
}

/// Drops every retained buffer (test hook for measuring cold starts).
pub fn clear() {
    for i in 0..N_SHARDS {
        flush(&mut lock_shard(i));
    }
}

/// Poisons shard `idx`'s lock by panicking a throwaway thread inside it —
/// a test hook for the poison-recovery path; never call it from code that
/// holds arena buffers.
#[doc(hidden)]
pub fn poison_shard_lock_for_test(idx: usize) {
    let _ = std::thread::spawn(move || {
        let _guard = SHARDS[idx % N_SHARDS].lock().expect("not yet poisoned");
        panic!("deliberate poison (test hook)");
    })
    .join();
}

/// Checks a length-`len` buffer out of the pool: own shard first, then a
/// steal pass over the others, then a fresh (zeroed) allocation.
fn take(len: usize) -> Vec<u64> {
    record(Counter::AllocTake, 1);
    let home = my_shard();
    for probe in 0..N_SHARDS {
        let idx = (home + probe) % N_SHARDS;
        let mut shard = lock_shard(idx);
        if let Some(bucket) = shard.buckets.get_mut(&len) {
            if let Some(buf) = bucket.pop() {
                shard.bytes -= len * 8;
                POOLED.fetch_sub(len * 8, Ordering::Relaxed);
                debug_assert_eq!(buf.len(), len);
                return buf;
            }
        }
    }
    record(Counter::AllocFresh, 1);
    vec![0u64; len]
}

/// Returns a buffer to the caller's home shard, or frees it if the pool
/// is at its retention cap — or if the buffer was checked out before the
/// last [`quarantine`] (its contents are suspect; drop, don't recycle).
fn recycle(buf: Vec<u64>, checkout_generation: u64) {
    let len = buf.len();
    if len == 0 {
        return;
    }
    if checkout_generation != GENERATION.load(Ordering::Relaxed) {
        record(Counter::AllocFreed, 1);
        return;
    }
    let bytes = len * 8;
    // Claim the room first, so concurrent releases into different shards
    // cannot overshoot the cap together.
    if POOLED.fetch_add(bytes, Ordering::Relaxed) + bytes > retention_cap() {
        POOLED.fetch_sub(bytes, Ordering::Relaxed);
        record(Counter::AllocFreed, 1);
        return;
    }
    let mut shard = lock_shard(my_shard());
    shard.bytes += bytes;
    shard.buckets.entry(len).or_default().push(buf);
    record(Counter::AllocRecycle, 1);
}

/// Trims the pool down to the current cap, shard by shard (called when a
/// lease drops).
fn trim_to_cap() {
    let cap = retention_cap();
    for i in 0..N_SHARDS {
        let mut shard = lock_shard(i);
        while POOLED.load(Ordering::Relaxed) > cap {
            // Drop from the largest bucket first: big buffers free the
            // most memory per pop and are the least likely to be general.
            let Some((&len, _)) = shard.buckets.iter().next_back() else {
                break;
            };
            let bucket = shard.buckets.get_mut(&len).expect("bucket exists");
            let (popped, empty) = (bucket.pop().is_some(), bucket.is_empty());
            if popped {
                shard.bytes -= len * 8;
                POOLED.fetch_sub(len * 8, Ordering::Relaxed);
                record(Counter::AllocFreed, 1);
            }
            if empty {
                shard.buckets.remove(&len);
            }
        }
    }
}

/// A reservation raising the pool's retention cap by `bytes` for as long
/// as the lease lives. Dropping the lease lowers the cap again and trims
/// retained buffers back down to it, so a plan-cache eviction releases its
/// arena memory deterministically.
#[derive(Debug)]
pub struct ArenaLease {
    bytes: usize,
}

impl ArenaLease {
    /// Reserves `bytes` of extra pool retention.
    pub fn reserve(bytes: usize) -> Self {
        RESERVED.fetch_add(bytes, Ordering::Relaxed);
        Self { bytes }
    }

    /// The reservation size.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for ArenaLease {
    fn drop(&mut self) {
        RESERVED.fetch_sub(self.bytes, Ordering::Relaxed);
        trim_to_cap();
    }
}

/// A pool-backed `u64` buffer: the backing store of every
/// [`crate::poly::Poly`].
///
/// Construction checks a buffer out of the arena; `Drop` returns it.
/// Dereferences to `[u64]`, and `Clone`/`PartialEq` behave exactly like
/// `Vec<u64>`, so it is a drop-in replacement for owned limb storage.
pub struct LimbVec {
    inner: Vec<u64>,
    /// Pool generation at checkout: [`quarantine`] invalidates older
    /// generations, routing their drop to the free path.
    generation: u64,
}

impl LimbVec {
    fn wrap(inner: Vec<u64>) -> Self {
        Self {
            inner,
            generation: GENERATION.load(Ordering::Relaxed),
        }
    }

    /// Checks out a buffer with **unspecified contents** (stale pool data,
    /// the poison sentinel, or zeros). The caller must fully overwrite it
    /// before reading — use [`LimbVec::take_zeroed`] for accumulators.
    pub fn take_raw(len: usize) -> Self {
        let mut inner = take(len);
        if let Some(p) = poison_value() {
            inner.fill(p);
        }
        Self::wrap(inner)
    }

    /// Checks out `count` [`take_raw`](Self::take_raw) buffers (the output
    /// limbs of a conversion or accumulation kernel).
    pub fn take_raw_many(count: usize, len: usize) -> Vec<Self> {
        (0..count).map(|_| Self::take_raw(len)).collect()
    }

    /// Checks out a zero-filled buffer.
    pub fn take_zeroed(len: usize) -> Self {
        let mut inner = take(len);
        inner.fill(0);
        Self::wrap(inner)
    }

    /// Checks out a buffer initialized as a copy of `src`.
    pub fn take_copy(src: &[u64]) -> Self {
        let mut inner = take(src.len());
        inner.copy_from_slice(src);
        Self::wrap(inner)
    }

    /// Adopts an existing vector: the allocation joins the pool when this
    /// `LimbVec` drops.
    pub fn from_vec(inner: Vec<u64>) -> Self {
        Self::wrap(inner)
    }

    /// Escapes the pool: the buffer becomes a plain `Vec` owned by the
    /// caller and is *not* recycled on drop.
    pub fn into_vec(mut self) -> Vec<u64> {
        std::mem::take(&mut self.inner)
    }
}

impl Drop for LimbVec {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.inner), self.generation);
    }
}

impl Deref for LimbVec {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.inner
    }
}

impl DerefMut for LimbVec {
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.inner
    }
}

impl Clone for LimbVec {
    fn clone(&self) -> Self {
        Self::take_copy(&self.inner)
    }
}

impl PartialEq for LimbVec {
    fn eq(&self, other: &Self) -> bool {
        self.inner == other.inner
    }
}

impl Eq for LimbVec {}

impl std::fmt::Debug for LimbVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl From<Vec<u64>> for LimbVec {
    fn from(v: Vec<u64>) -> Self {
        Self::from_vec(v)
    }
}

/// Serialises the unit tests that quarantine the pool, poison a shard
/// lock, or pin exact arena counts: the generation and the shards are
/// process-wide, so each of these tests can see another's bump, and a
/// poison recovery frees into whichever thread's scope trips over it.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_roundtrip_reuses_buffer() {
        // Use a length nothing else in the process plausibly uses so the
        // pool state for this bucket is ours alone.
        let len = 12347;
        let a = LimbVec::take_raw(len);
        let ptr = a.as_ptr();
        drop(a);
        let b = LimbVec::take_raw(len);
        // Not guaranteed to be the *same* buffer under concurrent tests
        // (another thread's shard may serve first), but the pooled bytes
        // must cover the bucket either way.
        let _ = ptr;
        assert_eq!(b.len(), len);
    }

    #[test]
    fn zeroed_checkout_is_zero_even_after_dirty_recycle() {
        let len = 12349;
        let mut a = LimbVec::take_raw(len);
        a.fill(0xDEAD_BEEF);
        drop(a);
        let b = LimbVec::take_zeroed(len);
        assert!(b.iter().all(|&x| x == 0));
    }

    #[test]
    fn clone_and_eq_match_vec_semantics() {
        let a = LimbVec::from_vec(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(&*b, &[1, 2, 3]);
        assert_eq!(b.into_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn poison_fills_raw_checkouts() {
        let len = 12351;
        drop(LimbVec::take_raw(len)); // ensure a pooled buffer exists
        set_poison(Some(0xABCD));
        let a = LimbVec::take_raw(len);
        set_poison(None);
        assert!(a.iter().all(|&x| x == 0xABCD));
        let z = LimbVec::take_zeroed(len);
        assert!(z.iter().all(|&x| x == 0));
    }

    #[test]
    fn lease_raises_and_trims_retention() {
        let before = reserved_bytes();
        let lease = ArenaLease::reserve(1 << 20);
        assert_eq!(reserved_bytes(), before + (1 << 20));
        drop(lease);
        assert_eq!(reserved_bytes(), before);
    }

    #[test]
    fn quarantine_frees_in_flight_checkouts_instead_of_pooling() {
        let _pool = test_lock();
        // Unique length so concurrent tests cannot feed this bucket.
        let len = 12353;
        let held = LimbVec::take_raw(len);
        let report = quarantine();
        assert_eq!(report.generation, generation());
        // The pre-quarantine checkout must not re-enter the pool on drop.
        drop(held);
        let probe = LimbVec::take_raw(len);
        // Whether this came from a pool repopulated by *post*-quarantine
        // drops or fresh, it can never be the quarantined buffer's bucket
        // entry: the pool held nothing of this length right after the
        // flush. (Exact identity is unobservable; the generation stamp is
        // the mechanism under test.)
        assert_eq!(probe.generation, generation());
        assert_eq!(probe.len(), len);
    }

    #[test]
    fn quarantine_bumps_generation_and_flushes_pool() {
        let _pool = test_lock();
        let len = 12361;
        drop(LimbVec::take_raw(len)); // ensure something is pooled
        let g0 = generation();
        let report = quarantine();
        assert_eq!(report.generation, g0 + 1);
        assert_eq!(generation(), g0 + 1);
        // Post-quarantine checkouts recycle normally again.
        let a = LimbVec::take_raw(len);
        drop(a);
        let b = LimbVec::take_raw(len);
        assert_eq!(b.generation, g0 + 1);
    }

    #[test]
    fn poisoned_shard_lock_is_recovered_and_counted() {
        let _pool = test_lock();
        let before = poison_recoveries();
        poison_shard_lock_for_test(5);
        // Any path that locks shard 5 recovers it; pooled_bytes locks all.
        let _ = pooled_bytes();
        assert!(
            poison_recoveries() > before,
            "lock poisoning must be recovered and counted"
        );
        // The arena remains fully usable afterwards.
        let v = LimbVec::take_zeroed(12373);
        assert!(v.iter().all(|&x| x == 0));
    }
}
