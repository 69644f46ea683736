//! Lightweight operation counters for the NTT hot path.
//!
//! The domain-aware refactor keeps ciphertexts and key material in Eval
//! (NTT) form end-to-end; these counters let tests and benches *prove* the
//! round-trips are gone rather than merely moved. Counting is compiled in
//! under the default-on `op-stats` feature and costs one relaxed atomic
//! increment per transform; with the feature disabled the API still exists
//! but every call is a no-op and every read returns zero.
//!
//! Counters are process-global. Tests that assert exact counts must not run
//! concurrently with other NTT work — keep them in a dedicated integration
//! test binary and serialize them behind a lock (see
//! `crates/fhe/tests/domain_invariants.rs`).
//!
//! **Measurement discipline:** every module exposes `snapshot()` and
//! `measure()` and *no reset*. A global reset racing a parallel region
//! would silently corrupt any measurement running elsewhere in the
//! process (the `report_*` binaries measure inside parallel sweeps), so
//! the snapshot-and-diff bracket is the only sanctioned pattern — the
//! counters are monotone for the life of the process.

/// Forward/inverse negacyclic NTT counters.
pub mod ntt_stats {
    #[cfg(feature = "op-stats")]
    mod imp {
        use std::sync::atomic::{AtomicU64, Ordering};

        static FORWARD: AtomicU64 = AtomicU64::new(0);
        static INVERSE: AtomicU64 = AtomicU64::new(0);

        #[inline]
        pub fn record_forward() {
            FORWARD.fetch_add(1, Ordering::Relaxed);
        }

        #[inline]
        pub fn record_inverse() {
            INVERSE.fetch_add(1, Ordering::Relaxed);
        }

        pub fn forward_count() -> u64 {
            FORWARD.load(Ordering::Relaxed)
        }

        pub fn inverse_count() -> u64 {
            INVERSE.load(Ordering::Relaxed)
        }
    }

    #[cfg(not(feature = "op-stats"))]
    mod imp {
        #[inline]
        pub fn record_forward() {}
        #[inline]
        pub fn record_inverse() {}
        pub fn forward_count() -> u64 {
            0
        }
        pub fn inverse_count() -> u64 {
            0
        }
    }

    pub use imp::{forward_count, inverse_count, record_forward, record_inverse};

    /// Snapshot of both counters, for before/after deltas.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct NttCounts {
        /// Forward (Coeff→Eval) transforms since the last reset.
        pub forward: u64,
        /// Inverse (Eval→Coeff) transforms since the last reset.
        pub inverse: u64,
    }

    /// Reads both counters at once.
    pub fn snapshot() -> NttCounts {
        NttCounts {
            forward: forward_count(),
            inverse: inverse_count(),
        }
    }

    /// Runs `f` and returns its result together with the NTT counts it
    /// incurred. Only meaningful when no other thread is transforming.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, NttCounts) {
        let before = snapshot();
        let out = f();
        let after = snapshot();
        (
            out,
            NttCounts {
                forward: after.forward - before.forward,
                inverse: after.inverse - before.inverse,
            },
        )
    }
}

/// Rotation / key-switch counters: eager vs hoisted HRots and the digit
/// decompositions feeding them.
///
/// One **eager** rotation pays its own digit decomposition; a **hoisted**
/// rotation permutes digits that were decomposed once up front. `decompose`
/// counts every digit decomposition performed (rotation key switches and
/// relinearizations alike), so `decompose ≪ eager + hoisted` is the proof
/// that a schedule actually shares its source decompositions.
pub mod rot_stats {
    #[cfg(feature = "op-stats")]
    mod imp {
        use std::sync::atomic::{AtomicU64, Ordering};

        static EAGER: AtomicU64 = AtomicU64::new(0);
        static HOISTED: AtomicU64 = AtomicU64::new(0);
        static DECOMPOSE: AtomicU64 = AtomicU64::new(0);

        #[inline]
        pub fn record_eager() {
            EAGER.fetch_add(1, Ordering::Relaxed);
        }

        #[inline]
        pub fn record_hoisted() {
            HOISTED.fetch_add(1, Ordering::Relaxed);
        }

        #[inline]
        pub fn record_decompose() {
            DECOMPOSE.fetch_add(1, Ordering::Relaxed);
        }

        pub fn eager_count() -> u64 {
            EAGER.load(Ordering::Relaxed)
        }

        pub fn hoisted_count() -> u64 {
            HOISTED.load(Ordering::Relaxed)
        }

        pub fn decompose_count() -> u64 {
            DECOMPOSE.load(Ordering::Relaxed)
        }
    }

    #[cfg(not(feature = "op-stats"))]
    mod imp {
        #[inline]
        pub fn record_eager() {}
        #[inline]
        pub fn record_hoisted() {}
        #[inline]
        pub fn record_decompose() {}
        pub fn eager_count() -> u64 {
            0
        }
        pub fn hoisted_count() -> u64 {
            0
        }
        pub fn decompose_count() -> u64 {
            0
        }
    }

    pub use imp::{
        decompose_count, eager_count, hoisted_count, record_decompose, record_eager, record_hoisted,
    };

    /// Snapshot of the rotation counters, for before/after deltas.
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

    /// Reads all three counters at once.
    pub fn snapshot() -> RotCounts {
        RotCounts {
            eager: eager_count(),
            hoisted: hoisted_count(),
            decompose: decompose_count(),
        }
    }

    /// Runs `f` and returns its result together with the rotation counts it
    /// incurred. Only meaningful when no other thread is rotating.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, RotCounts) {
        let before = snapshot();
        let out = f();
        let after = snapshot();
        (
            out,
            RotCounts {
                eager: after.eager - before.eager,
                hoisted: after.hoisted - before.hoisted,
                decompose: after.decompose - before.decompose,
            },
        )
    }
}

/// Tensor-lift counters for the CMult hot path: how many operand lifts into
/// the extended multiplication basis were computed from scratch vs served
/// from a cache (the CMult analogue of rotation hoisting — BSGS polynomial
/// evaluation reuses the same powers across many products).
pub mod lift_stats {
    #[cfg(feature = "op-stats")]
    mod imp {
        use std::sync::atomic::{AtomicU64, Ordering};

        static COMPUTED: AtomicU64 = AtomicU64::new(0);
        static REUSED: AtomicU64 = AtomicU64::new(0);

        #[inline]
        pub fn record_computed() {
            COMPUTED.fetch_add(1, Ordering::Relaxed);
        }

        #[inline]
        pub fn record_reused() {
            REUSED.fetch_add(1, Ordering::Relaxed);
        }

        pub fn computed_count() -> u64 {
            COMPUTED.load(Ordering::Relaxed)
        }

        pub fn reused_count() -> u64 {
            REUSED.load(Ordering::Relaxed)
        }
    }

    #[cfg(not(feature = "op-stats"))]
    mod imp {
        #[inline]
        pub fn record_computed() {}
        #[inline]
        pub fn record_reused() {}
        pub fn computed_count() -> u64 {
            0
        }
        pub fn reused_count() -> u64 {
            0
        }
    }

    pub use imp::{computed_count, record_computed, record_reused, reused_count};

    /// Snapshot of both lift counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct LiftCounts {
        /// Tensor lifts computed from scratch.
        pub computed: u64,
        /// Tensor lifts served from an operand cache.
        pub reused: u64,
    }

    /// Reads both counters at once.
    pub fn snapshot() -> LiftCounts {
        LiftCounts {
            computed: computed_count(),
            reused: reused_count(),
        }
    }

    /// Runs `f` and returns its result together with the lift counts it
    /// incurred. Only meaningful when no other thread is lifting.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, LiftCounts) {
        let before = snapshot();
        let out = f();
        let after = snapshot();
        (
            out,
            LiftCounts {
                computed: after.computed - before.computed,
                reused: after.reused - before.reused,
            },
        )
    }
}

/// High-level homomorphic-operation counters: the measured counterpart of
/// the analytic `OpCounts` the execution-plan IR carries per step.
///
/// Each counter is incremented exactly once per logical operation at the
/// single choke point every code path funnels through (e.g. `hrot` in the
/// shared decompose-then-permute key switch, so eager and hoisted rotations
/// count alike). `sample_extract` counts extracted coefficients and
/// `mod_switch` whole-ciphertext RLWE rescales; LWE-level arithmetic
/// (additions, per-LWE modulus drops, dimension-switch MACs) is below this
/// abstraction and deliberately uncounted, matching the analytic model.
pub mod op_stats {
    #[cfg(feature = "op-stats")]
    mod imp {
        use std::sync::atomic::{AtomicU64, Ordering};

        static PMULT: AtomicU64 = AtomicU64::new(0);
        static CMULT: AtomicU64 = AtomicU64::new(0);
        static SMULT: AtomicU64 = AtomicU64::new(0);
        static HADD: AtomicU64 = AtomicU64::new(0);
        static HROT: AtomicU64 = AtomicU64::new(0);
        static SAMPLE_EXTRACT: AtomicU64 = AtomicU64::new(0);
        static MOD_SWITCH: AtomicU64 = AtomicU64::new(0);

        #[inline]
        pub fn record_pmult() {
            PMULT.fetch_add(1, Ordering::Relaxed);
        }

        #[inline]
        pub fn record_cmult() {
            CMULT.fetch_add(1, Ordering::Relaxed);
        }

        #[inline]
        pub fn record_smult() {
            SMULT.fetch_add(1, Ordering::Relaxed);
        }

        #[inline]
        pub fn record_hadd() {
            HADD.fetch_add(1, Ordering::Relaxed);
        }

        /// Bulk tally of a fused multiply–accumulate: `smults` logical
        /// SMults and `hadds` logical HAdds it stands for.
        #[inline]
        pub fn record_lincomb(smults: u64, hadds: u64) {
            SMULT.fetch_add(smults, Ordering::Relaxed);
            HADD.fetch_add(hadds, Ordering::Relaxed);
        }

        #[inline]
        pub fn record_hrot() {
            HROT.fetch_add(1, Ordering::Relaxed);
        }

        #[inline]
        pub fn record_sample_extract() {
            SAMPLE_EXTRACT.fetch_add(1, Ordering::Relaxed);
        }

        #[inline]
        pub fn record_mod_switch() {
            MOD_SWITCH.fetch_add(1, Ordering::Relaxed);
        }

        pub fn raw() -> [u64; 7] {
            [
                PMULT.load(Ordering::Relaxed),
                CMULT.load(Ordering::Relaxed),
                SMULT.load(Ordering::Relaxed),
                HADD.load(Ordering::Relaxed),
                HROT.load(Ordering::Relaxed),
                SAMPLE_EXTRACT.load(Ordering::Relaxed),
                MOD_SWITCH.load(Ordering::Relaxed),
            ]
        }
    }

    #[cfg(not(feature = "op-stats"))]
    mod imp {
        #[inline]
        pub fn record_pmult() {}
        #[inline]
        pub fn record_cmult() {}
        #[inline]
        pub fn record_smult() {}
        #[inline]
        pub fn record_hadd() {}
        #[inline]
        pub fn record_lincomb(_smults: u64, _hadds: u64) {}
        #[inline]
        pub fn record_hrot() {}
        #[inline]
        pub fn record_sample_extract() {}
        #[inline]
        pub fn record_mod_switch() {}
        pub fn raw() -> [u64; 7] {
            [0; 7]
        }
    }

    pub use imp::{
        record_cmult, record_hadd, record_hrot, record_lincomb, record_mod_switch, record_pmult,
        record_sample_extract, record_smult,
    };

    /// Snapshot of every homomorphic-operation counter.
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

    /// Reads every counter at once.
    pub fn snapshot() -> HomOpCounts {
        let [pmult, cmult, smult, hadd, hrot, sample_extract, mod_switch] = imp::raw();
        HomOpCounts {
            pmult,
            cmult,
            smult,
            hadd,
            hrot,
            sample_extract,
            mod_switch,
        }
    }

    /// Runs `f` and returns its result together with the operation counts
    /// it incurred. Only meaningful when no other thread is evaluating
    /// (worker threads spawned *by* `f` are counted — the counters are
    /// process-global).
    ///
    /// Thread-count invariance: `par::parallel_*` workers are joined
    /// before their entry point returns, so every bump a step's workers
    /// make lands inside that step's bracket regardless of
    /// `ATHENA_THREADS` — per-step deltas are identical at 1 and N
    /// workers (pinned by `per_step_counts_are_thread_count_invariant` in
    /// `athena-core`). Nested `measure()` calls double-attribute: the
    /// inner bracket's counts also appear in the outer delta, so callers
    /// composing brackets must subtract inner deltas themselves.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, HomOpCounts) {
        let before = snapshot();
        let out = f();
        (out, snapshot().sub(&before))
    }
}

/// Limb-buffer allocation counters for the scratch arena
/// (`crate::arena`): checkouts, fresh heap allocations (pool misses),
/// recycles, and cap-driven frees.
///
/// Compiled in under the default-on `alloc-stats` feature (the pooling
/// itself is always on — only the telemetry is gated). `takes` and
/// `recycled` are schedule-independent and therefore thread-count
/// invariant per plan step; the `fresh`/pooled split of a *cold* run
/// depends on thread interleaving, so only the steady-state invariant
/// `fresh == 0` (warm pool) is pinned across thread counts.
pub mod alloc_stats {
    #[cfg(feature = "alloc-stats")]
    mod imp {
        use std::sync::atomic::{AtomicU64, Ordering};

        static TAKES: AtomicU64 = AtomicU64::new(0);
        static FRESH: AtomicU64 = AtomicU64::new(0);
        static RECYCLED: AtomicU64 = AtomicU64::new(0);
        static FREED: AtomicU64 = AtomicU64::new(0);

        #[inline]
        pub fn record_take() {
            TAKES.fetch_add(1, Ordering::Relaxed);
        }

        #[inline]
        pub fn record_fresh() {
            FRESH.fetch_add(1, Ordering::Relaxed);
        }

        #[inline]
        pub fn record_recycle() {
            RECYCLED.fetch_add(1, Ordering::Relaxed);
        }

        #[inline]
        pub fn record_freed() {
            FREED.fetch_add(1, Ordering::Relaxed);
        }

        pub fn raw() -> [u64; 4] {
            [
                TAKES.load(Ordering::Relaxed),
                FRESH.load(Ordering::Relaxed),
                RECYCLED.load(Ordering::Relaxed),
                FREED.load(Ordering::Relaxed),
            ]
        }
    }

    #[cfg(not(feature = "alloc-stats"))]
    mod imp {
        #[inline]
        pub fn record_take() {}
        #[inline]
        pub fn record_fresh() {}
        #[inline]
        pub fn record_recycle() {}
        #[inline]
        pub fn record_freed() {}
        pub fn raw() -> [u64; 4] {
            [0; 4]
        }
    }

    pub use imp::{record_freed, record_fresh, record_recycle, record_take};

    /// Snapshot of every arena allocation counter.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct AllocCounts {
        /// Limb-buffer checkouts (pool hits *and* misses).
        pub takes: u64,
        /// Checkouts that missed the pool and hit the heap allocator.
        pub fresh: u64,
        /// Buffers returned to the pool on drop.
        pub recycled: u64,
        /// Buffers freed instead of pooled (retention cap reached).
        pub freed: u64,
    }

    impl AllocCounts {
        /// Component-wise sum.
        pub fn add(&mut self, o: &AllocCounts) {
            self.takes += o.takes;
            self.fresh += o.fresh;
            self.recycled += o.recycled;
            self.freed += o.freed;
        }

        /// Component-wise difference (saturating).
        pub fn sub(&self, o: &AllocCounts) -> AllocCounts {
            AllocCounts {
                takes: self.takes.saturating_sub(o.takes),
                fresh: self.fresh.saturating_sub(o.fresh),
                recycled: self.recycled.saturating_sub(o.recycled),
                freed: self.freed.saturating_sub(o.freed),
            }
        }

        /// Checkouts served from the pool.
        pub fn pooled(&self) -> u64 {
            self.takes - self.fresh
        }
    }

    /// Reads every counter at once.
    pub fn snapshot() -> AllocCounts {
        let [takes, fresh, recycled, freed] = imp::raw();
        AllocCounts {
            takes,
            fresh,
            recycled,
            freed,
        }
    }

    /// Runs `f` and returns its result together with the allocation counts
    /// it incurred. Same bracket semantics as [`super::op_stats::measure`]: the
    /// counters are process-global, workers spawned *by* `f` are joined
    /// before it returns (so their bumps land inside the bracket), and
    /// nested brackets double-attribute.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocCounts) {
        let before = snapshot();
        let out = f();
        (out, snapshot().sub(&before))
    }
}

#[cfg(all(test, feature = "alloc-stats"))]
mod alloc_tests {
    use super::alloc_stats;
    use crate::arena::LimbVec;

    #[test]
    fn alloc_counters_record_and_measure() {
        // Counters are process-global and other tests allocate
        // concurrently, so assert lower bounds only.
        let ((), counts) = alloc_stats::measure(|| {
            drop(LimbVec::take_raw(12353));
        });
        assert!(counts.takes >= 1);
        assert!(counts.recycled + counts.freed >= 1);
        let mut sum = counts;
        sum.add(&counts);
        assert_eq!(sum.takes, 2 * counts.takes);
        assert_eq!(sum.sub(&counts), counts);
        assert_eq!(counts.pooled(), counts.takes - counts.fresh);
    }
}

#[cfg(all(test, feature = "op-stats"))]
mod tests {
    use super::{lift_stats, ntt_stats, op_stats, rot_stats};
    use crate::poly::Ring;

    #[test]
    fn counts_forward_and_inverse_transforms() {
        // Serialized implicitly: this is the only count-sensitive test in
        // the athena-math binary that uses the ring below; use measure()
        // deltas rather than absolute values to stay robust anyway.
        let ring = Ring::new(12289, 64);
        let a = ring.from_i64(&vec![1i64; 64]);
        let (_, counts) = ntt_stats::measure(|| {
            let e = ring.to_eval(&a);
            ring.to_coeff(&e)
        });
        assert_eq!(counts.forward, 1);
        assert_eq!(counts.inverse, 1);
    }

    #[test]
    fn rot_counters_record_and_measure() {
        let ((), counts) = rot_stats::measure(|| {
            rot_stats::record_eager();
            rot_stats::record_hoisted();
            rot_stats::record_hoisted();
            rot_stats::record_decompose();
        });
        assert_eq!(counts.eager, 1);
        assert_eq!(counts.hoisted, 2);
        assert_eq!(counts.decompose, 1);
        assert_eq!(counts.rotations(), 3);
    }

    #[test]
    fn op_counters_record_and_measure() {
        let ((), counts) = op_stats::measure(|| {
            op_stats::record_pmult();
            op_stats::record_pmult();
            op_stats::record_cmult();
            op_stats::record_smult();
            op_stats::record_hadd();
            op_stats::record_hrot();
            op_stats::record_sample_extract();
            op_stats::record_mod_switch();
        });
        assert_eq!(counts.pmult, 2);
        assert_eq!(counts.cmult, 1);
        assert_eq!(counts.smult, 1);
        assert_eq!(counts.hadd, 1);
        assert_eq!(counts.hrot, 1);
        assert_eq!(counts.sample_extract, 1);
        assert_eq!(counts.mod_switch, 1);
        let mut sum = counts;
        sum.add(&counts);
        assert_eq!(sum.pmult, 4);
        assert_eq!(sum.sub(&counts), counts);
    }

    #[test]
    fn lift_counters_record_and_measure() {
        let ((), counts) = lift_stats::measure(|| {
            lift_stats::record_computed();
            lift_stats::record_reused();
            lift_stats::record_reused();
        });
        assert_eq!(counts.computed, 1);
        assert_eq!(counts.reused, 2);
    }
}
