//! Operation counters: one table, scoped to the call that measures it.
//!
//! Every counter the workspace keeps is one row of [`Counter`] — NTT
//! transforms, rotation key switches, tensor lifts, homomorphic operations
//! and limb-buffer allocations — and every call site bumps its row with
//! the one [`record`]. The allocation row is compiled in under the
//! default-on `alloc-stats` feature, every other row under the default-on
//! `op-stats` feature; with a row's feature off, `record` compiles to
//! nothing for it and every `measure` reads zero there. These counters let
//! tests and benches *prove* a schedule's budget (NTT round-trips gone,
//! one digit decomposition per hoisted source) rather than merely time it.
//!
//! **Scope rule.** [`measure`] runs a closure with a fresh, zeroed block
//! installed as the calling thread's current scope, and returns what was
//! recorded into it. A `record` lands in the recording thread's current
//! scope, or nowhere when that thread has none. The `par` layer hands the
//! spawning thread's scope to every worker it starts, so a `run_batch`
//! inside the closure is counted in full, at any worker count. A delta
//! therefore holds exactly the work of its own call tree: requests served
//! concurrently on other threads never leak into it, and nothing has to be
//! serialised to keep a count attributable.
//!
//! **Fold rule.** When a `measure` ends — by returning or by unwinding —
//! the thread's previous scope is restored and the block's totals are
//! added into it. Nested brackets therefore see everything their inner
//! brackets saw (the plan driver's per-step brackets inside a caller's
//! bracket around a whole run), and a panic caught around a `measure`
//! leaves the thread as it found it.
//!
//! The family modules [`ntt_stats`], [`rot_stats`], [`lift_stats`],
//! [`op_stats`] and [`alloc_stats`] are projections of the one block: each
//! `measure` there is [`measure`] keeping the family's rows.

use std::cell::RefCell;
use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every counter, once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Forward (Coeff→Eval) negacyclic NTTs.
    NttForward,
    /// Inverse (Eval→Coeff) negacyclic NTTs.
    NttInverse,
    /// Rotations that paid their own digit decomposition.
    RotEager,
    /// Rotations served from hoisted (cached) digits.
    RotHoisted,
    /// Digit decompositions performed (rotations *and* relinearisations).
    RotDecompose,
    /// Tensor lifts computed from scratch.
    LiftComputed,
    /// Tensor lifts served from an operand cache.
    LiftReused,
    /// Plaintext-ciphertext multiplications.
    Pmult,
    /// Ciphertext-ciphertext multiplications (tensor products).
    Cmult,
    /// Scalar multiplications.
    Smult,
    /// Homomorphic additions (ciphertext-ciphertext and plaintext).
    Hadd,
    /// Rotations / automorphisms with a key switch.
    Hrot,
    /// Coefficients run through sample extraction.
    SampleExtract,
    /// Whole-ciphertext RLWE modulus switches.
    ModSwitch,
    /// Limb buffers allocated: every [`crate::poly::Poly`] built or cloned.
    AllocTake,
}

const ROWS: usize = Counter::AllocTake as usize + 1;

impl Counter {
    /// Whether this row is compiled in: the allocation row under
    /// `alloc-stats`, every other row under `op-stats`.
    const fn enabled(self) -> bool {
        match self {
            Counter::AllocTake => cfg!(feature = "alloc-stats"),
            _ => cfg!(feature = "op-stats"),
        }
    }
}

/// What one [`measure`] counted: a total per [`Counter`], indexed by it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts([u64; ROWS]);

impl Index<Counter> for Counts {
    type Output = u64;

    fn index(&self, c: Counter) -> &u64 {
        &self.0[c as usize]
    }
}

/// A live scope's block: shared by the measuring thread and the `par`
/// workers it spawns, hence atomic. `Relaxed` throughout: the rows publish
/// no other data, and a block is read only after the workers that record
/// into it have been joined.
type Block = [AtomicU64; ROWS];

thread_local! {
    /// The calling thread's current scope (`None` outside every `measure`).
    static SCOPE: RefCell<Option<Arc<Block>>> = const { RefCell::new(None) };
}

/// Adds `n` to row `c` of the calling thread's current scope. A no-op when
/// the row's feature is off, outside every scope, and while the thread's
/// locals are being torn down.
#[inline]
pub fn record(c: Counter, n: u64) {
    if c.enabled() {
        let _ = SCOPE.try_with(|scope| {
            if let Some(block) = &*scope.borrow() {
                block[c as usize].fetch_add(n, Ordering::Relaxed);
            }
        });
    }
}

/// Runs `f` in a fresh scope and returns its result together with every
/// counter it recorded — on this thread and on the `par` workers it
/// spawned — then folds those totals into the enclosing scope (see the
/// module header).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let block: Arc<Block> = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
    let restore = Restore {
        outer: install(Some(Arc::clone(&block))),
        fold: Some(Arc::clone(&block)),
    };
    let out = f();
    drop(restore);
    (
        out,
        Counts(block.each_ref().map(|c| c.load(Ordering::Relaxed))),
    )
}

/// Installs `scope` as the calling thread's current scope, returning the
/// one it replaces (a no-op once the thread's locals are torn down: it
/// runs from `Drop`, which must not panic).
fn install(scope: Option<Arc<Block>>) -> Option<Arc<Block>> {
    SCOPE.try_with(|s| s.replace(scope)).ok().flatten()
}

/// Puts the enclosing scope back when dropped — on return and on unwind
/// alike — after adding `fold`'s totals into it.
struct Restore {
    outer: Option<Arc<Block>>,
    fold: Option<Arc<Block>>,
}

impl Drop for Restore {
    fn drop(&mut self) {
        if let (Some(outer), Some(inner)) = (&self.outer, &self.fold) {
            for (o, i) in outer.iter().zip(inner.iter()) {
                o.fetch_add(i.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        install(self.outer.take());
    }
}

/// A thread's current scope, captured so another thread can record into
/// it: how the `par` layer's workers count toward the `measure` that
/// spawned them.
#[derive(Clone)]
pub(crate) struct Scope(Option<Arc<Block>>);

impl Scope {
    /// The calling thread's current scope.
    pub(crate) fn current() -> Self {
        Scope(SCOPE.try_with(|s| s.borrow().clone()).ok().flatten())
    }

    /// Runs `f` with this scope installed on the calling thread.
    pub(crate) fn enter<T>(self, f: impl FnOnce() -> T) -> T {
        let _restore = Restore {
            outer: install(self.0),
            fold: None,
        };
        f()
    }
}

/// [`measure`], keeping one family's rows.
fn project<T, P: From<Counts>>(f: impl FnOnce() -> T) -> (T, P) {
    let (out, counts) = measure(f);
    (out, P::from(counts))
}

/// Forward/inverse negacyclic NTT counts.
pub mod ntt_stats {
    use super::{Counter, Counts};

    /// The NTT rows of one measured call.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct NttCounts {
        /// Forward (Coeff→Eval) transforms.
        pub forward: u64,
        /// Inverse (Eval→Coeff) transforms.
        pub inverse: u64,
    }

    impl From<Counts> for NttCounts {
        fn from(c: Counts) -> Self {
            Self {
                forward: c[Counter::NttForward],
                inverse: c[Counter::NttInverse],
            }
        }
    }

    /// [`super::measure`], keeping the NTT rows.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, NttCounts) {
        super::project(f)
    }
}

/// Rotation / key-switch counts: eager vs hoisted HRots and the digit
/// decompositions feeding them.
///
/// One **eager** rotation pays its own digit decomposition; a **hoisted**
/// rotation permutes digits that were decomposed once up front. `decompose`
/// counts every digit decomposition performed (rotation key switches and
/// relinearizations alike), so `decompose ≪ eager + hoisted` is the proof
/// that a schedule actually shares its source decompositions.
pub mod rot_stats {
    use super::{Counter, Counts};

    /// The rotation rows of one measured call.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RotCounts {
        /// Rotations that paid their own digit decomposition.
        pub eager: u64,
        /// Rotations served from hoisted (cached) digits.
        pub hoisted: u64,
        /// Digit decompositions performed (rotations *and* relins).
        pub decompose: u64,
    }

    impl RotCounts {
        /// Total HRot operations, however they were keyed.
        pub fn rotations(&self) -> u64 {
            self.eager + self.hoisted
        }
    }

    impl From<Counts> for RotCounts {
        fn from(c: Counts) -> Self {
            Self {
                eager: c[Counter::RotEager],
                hoisted: c[Counter::RotHoisted],
                decompose: c[Counter::RotDecompose],
            }
        }
    }

    /// [`super::measure`], keeping the rotation rows.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, RotCounts) {
        super::project(f)
    }
}

/// Tensor-lift counts for the CMult hot path: how many operand lifts into
/// the extended multiplication basis were computed from scratch vs served
/// from a cache (the CMult analogue of rotation hoisting — BSGS polynomial
/// evaluation reuses the same powers across many products).
pub mod lift_stats {
    use super::{Counter, Counts};

    /// The lift rows of one measured call.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct LiftCounts {
        /// Tensor lifts computed from scratch.
        pub computed: u64,
        /// Tensor lifts served from an operand cache.
        pub reused: u64,
    }

    impl From<Counts> for LiftCounts {
        fn from(c: Counts) -> Self {
            Self {
                computed: c[Counter::LiftComputed],
                reused: c[Counter::LiftReused],
            }
        }
    }

    /// [`super::measure`], keeping the lift rows.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, LiftCounts) {
        super::project(f)
    }
}

/// High-level homomorphic-operation counts: the measured counterpart of
/// the analytic counts the execution-plan IR carries per step.
///
/// Each row is recorded exactly once per logical operation at the single
/// choke point every code path funnels through (e.g. `hrot` in the shared
/// decompose-then-permute key switch, so eager and hoisted rotations count
/// alike). `sample_extract` counts extracted coefficients and `mod_switch`
/// whole-ciphertext RLWE rescales; LWE-level arithmetic (additions,
/// per-LWE modulus drops, dimension-switch MACs) is below this abstraction
/// and deliberately uncounted, matching the analytic model.
pub mod op_stats {
    use super::{Counter, Counts};

    /// Counts of the seven high-level homomorphic operations — measured
    /// here, and the unit of the plan's analytic per-step accounting.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct HomOpCounts {
        /// Plaintext-ciphertext multiplications.
        pub pmult: u64,
        /// Ciphertext-ciphertext multiplications (tensor products).
        pub cmult: u64,
        /// Scalar multiplications.
        pub smult: u64,
        /// Homomorphic additions (ciphertext-ciphertext and plaintext).
        pub hadd: u64,
        /// Rotations / automorphisms with a key switch.
        pub hrot: u64,
        /// Coefficients run through sample extraction.
        pub sample_extract: u64,
        /// Whole-ciphertext RLWE modulus switches.
        pub mod_switch: u64,
    }

    impl HomOpCounts {
        /// Component-wise sum.
        pub fn add(&mut self, o: &HomOpCounts) {
            self.pmult += o.pmult;
            self.cmult += o.cmult;
            self.smult += o.smult;
            self.hadd += o.hadd;
            self.hrot += o.hrot;
            self.sample_extract += o.sample_extract;
            self.mod_switch += o.mod_switch;
        }

        /// Component-wise difference (saturating).
        pub fn sub(&self, o: &HomOpCounts) -> HomOpCounts {
            HomOpCounts {
                pmult: self.pmult.saturating_sub(o.pmult),
                cmult: self.cmult.saturating_sub(o.cmult),
                smult: self.smult.saturating_sub(o.smult),
                hadd: self.hadd.saturating_sub(o.hadd),
                hrot: self.hrot.saturating_sub(o.hrot),
                sample_extract: self.sample_extract.saturating_sub(o.sample_extract),
                mod_switch: self.mod_switch.saturating_sub(o.mod_switch),
            }
        }
    }

    impl From<Counts> for HomOpCounts {
        fn from(c: Counts) -> Self {
            Self {
                pmult: c[Counter::Pmult],
                cmult: c[Counter::Cmult],
                smult: c[Counter::Smult],
                hadd: c[Counter::Hadd],
                hrot: c[Counter::Hrot],
                sample_extract: c[Counter::SampleExtract],
                mod_switch: c[Counter::ModSwitch],
            }
        }
    }

    /// [`super::measure`], keeping the homomorphic-operation rows.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, HomOpCounts) {
        super::project(f)
    }
}

/// Limb-buffer allocation counts: how many [`crate::poly::Poly`] buffers
/// a call allocated (built or cloned). Schedule-independent, hence the
/// same at any worker count.
pub mod alloc_stats {
    use super::{Counter, Counts};

    /// The allocation row of one measured call.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct AllocCounts {
        /// Limb buffers allocated.
        pub takes: u64,
        /// Equal to `takes`: every buffer comes from the system allocator.
        /// Kept only because the benchmark package reads it.
        pub fresh: u64,
    }

    impl AllocCounts {
        /// Always 0: no buffer is served from a pool. Kept only because
        /// the benchmark package reads it.
        pub fn pooled(&self) -> u64 {
            0
        }
    }

    impl From<Counts> for AllocCounts {
        fn from(c: Counts) -> Self {
            Self {
                takes: c[Counter::AllocTake],
                fresh: c[Counter::AllocTake],
            }
        }
    }

    /// [`super::measure`], keeping the allocation row.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocCounts) {
        super::project(f)
    }
}

#[cfg(test)]
mod tests {
    use super::{lift_stats, measure, ntt_stats, op_stats, record, rot_stats};
    use super::{Counter, Counts};
    use crate::par;
    use crate::poly::Ring;

    /// What a row reads after recording `n` into it: `n`, or 0 with the
    /// row's feature compiled out.
    pub(super) fn seen(c: Counter, n: u64) -> u64 {
        if c.enabled() {
            n
        } else {
            0
        }
    }

    #[test]
    fn concurrent_scopes_count_only_their_own_thread() {
        // Two threads record into the same row at the same time, different
        // amounts each: either one seeing the other's work would show.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let workers: Vec<_> = [10_000u64, 20_000]
                .map(|n| {
                    let start = &start;
                    (
                        n,
                        s.spawn(move || {
                            start.wait();
                            measure(|| (0..n).for_each(|_| record(Counter::Pmult, 1))).1
                        }),
                    )
                })
                .into_iter()
                .collect();
            for (n, w) in workers {
                assert_eq!(w.join().unwrap()[Counter::Pmult], seen(Counter::Pmult, n));
            }
        });
    }

    #[test]
    fn outer_bracket_sees_inner_bracket_counts() {
        let ((inner_ops, inner_ntt), outer) = measure(|| {
            record(Counter::Hadd, 1);
            let ((), ops) = op_stats::measure(|| record(Counter::Hadd, 2));
            let ((), ntt) = ntt_stats::measure(|| record(Counter::NttForward, 3));
            (ops, ntt)
        });
        assert_eq!(inner_ops.hadd, seen(Counter::Hadd, 2));
        assert_eq!(inner_ntt.forward, seen(Counter::NttForward, 3));
        assert_eq!(outer[Counter::Hadd], seen(Counter::Hadd, 3));
        assert_eq!(outer[Counter::NttForward], seen(Counter::NttForward, 3));
    }

    #[test]
    fn measure_counts_every_parallel_worker() {
        let mut items: Vec<u64> = (1..=64).collect();
        let ((), counts) = measure(|| {
            par::parallel_for_each_mut_with(4, &mut items, |x| {
                record(Counter::Hrot, 1);
                record(Counter::Smult, *x);
            })
        });
        assert_eq!(counts[Counter::Hrot], seen(Counter::Hrot, 64));
        assert_eq!(counts[Counter::Smult], seen(Counter::Smult, 64 * 65 / 2));
    }

    #[test]
    fn caught_panic_restores_the_scope() {
        let ((), outer) = measure(|| {
            let caught = std::panic::catch_unwind(|| {
                measure(|| {
                    record(Counter::Cmult, 1);
                    std::panic::resume_unwind(Box::new("step fault"));
                })
            });
            assert!(caught.is_err());
            // Lands in this scope again, not in the unwound one.
            record(Counter::Cmult, 1);
        });
        // The unwound bracket folded its count before restoring.
        assert_eq!(outer[Counter::Cmult], seen(Counter::Cmult, 2));
        // No scope is left behind: outside every bracket nothing counts.
        record(Counter::Cmult, 1);
        assert_eq!(measure(|| ()).1, Counts::default());
    }

    #[test]
    fn counts_forward_and_inverse_transforms() {
        let ring = Ring::new(12289, 64);
        let a = ring.from_i64(&vec![1i64; 64]);
        let (_, counts) = ntt_stats::measure(|| {
            let e = ring.to_eval(&a);
            ring.to_coeff(&e)
        });
        assert_eq!(counts.forward, seen(Counter::NttForward, 1));
        assert_eq!(counts.inverse, seen(Counter::NttInverse, 1));
    }

    #[test]
    fn rot_counters_record_and_measure() {
        let ((), counts) = rot_stats::measure(|| {
            record(Counter::RotEager, 1);
            record(Counter::RotHoisted, 2);
            record(Counter::RotDecompose, 1);
        });
        assert_eq!(counts.eager, seen(Counter::RotEager, 1));
        assert_eq!(counts.hoisted, seen(Counter::RotHoisted, 2));
        assert_eq!(counts.decompose, seen(Counter::RotDecompose, 1));
        assert_eq!(counts.rotations(), seen(Counter::RotEager, 3));
    }

    #[test]
    fn op_counters_record_and_measure() {
        let ((), counts) = op_stats::measure(|| {
            record(Counter::Pmult, 2);
            for c in [
                Counter::Cmult,
                Counter::Smult,
                Counter::Hadd,
                Counter::Hrot,
                Counter::SampleExtract,
                Counter::ModSwitch,
            ] {
                record(c, 1);
            }
        });
        let one = seen(Counter::Pmult, 1);
        assert_eq!(counts.pmult, 2 * one);
        for n in [
            counts.cmult,
            counts.smult,
            counts.hadd,
            counts.hrot,
            counts.sample_extract,
            counts.mod_switch,
        ] {
            assert_eq!(n, one);
        }
        let mut sum = counts;
        sum.add(&counts);
        assert_eq!(sum.pmult, 4 * one);
        assert_eq!(sum.sub(&counts), counts);
    }

    #[test]
    fn lift_counters_record_and_measure() {
        let ((), counts) = lift_stats::measure(|| {
            record(Counter::LiftComputed, 1);
            record(Counter::LiftReused, 2);
        });
        assert_eq!(counts.computed, seen(Counter::LiftComputed, 1));
        assert_eq!(counts.reused, seen(Counter::LiftReused, 2));
    }
}

#[cfg(test)]
mod alloc_tests {
    use super::tests::seen;
    use super::{alloc_stats, Counter};
    use crate::poly::{Domain, Ring};

    #[test]
    fn alloc_counters_record_and_measure() {
        let ring = Ring::new(12289, 64);
        let ((), counts) = alloc_stats::measure(|| {
            // Two built by `from_i64`, one by `add`, one clone.
            let a = ring.from_i64(&[1; 64]);
            let b = ring.from_i64(&[2; 64]);
            let c = ring.add(&a, &b);
            assert_eq!(c.clone().domain(), Domain::Coeff);
        });
        assert_eq!(counts.takes, seen(Counter::AllocTake, 4));
        assert_eq!(counts.fresh, counts.takes);
        assert_eq!(counts.pooled(), 0);
    }
}
