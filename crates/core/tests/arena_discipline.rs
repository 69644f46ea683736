//! Scratch-arena memory discipline of the plan executor:
//!
//! * steady-state plan-step execution on a warm [`InferenceSession`]
//!   performs **zero** fresh limb-buffer heap allocations (`fresh == 0`
//!   in the `alloc-stats` counters) — the tentpole invariant;
//! * the checkout totals are thread-count invariant (the work is
//!   deterministic, only its scheduling changes);
//! * pool poisoning proves no step reads stale buffer contents: with
//!   every checked-out buffer pre-filled with a sentinel, the logits are
//!   bit-identical;
//! * evicting a plan-cache entry drops its arena lease, releasing the
//!   pool-capacity reservation.
//!
//! The arena and its counters are process-global, so every test in this
//! binary serializes behind one lock.

use std::sync::{Mutex, MutexGuard, OnceLock};

use athena_core::pipeline::AthenaEngine;
use athena_core::plan::InferenceSession;
use athena_fhe::params::BfvParams;
use athena_math::arena;
use athena_math::par;
use athena_math::sampler::Sampler;
use athena_math::stats::alloc_stats;
use athena_nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QuantConfig};
use athena_nn::tensor::ITensor;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Clears any poison sentinel on drop, so a failing assertion cannot leak
/// poisoning into later tests.
struct PoisonGuard;

impl Drop for PoisonGuard {
    fn drop(&mut self) {
        arena::set_poison(None);
    }
}

/// A tiny conv+FC model; `w0` perturbs one conv weight so distinct models
/// hash to distinct cache keys.
fn model_with(w0: i64) -> QModel {
    let mut conv_w: Vec<i64> = (0..2 * 9).map(|i| ((i % 5) as i64) - 2).collect();
    conv_w[0] = w0;
    let fc_w: Vec<i64> = (0..3 * 18).map(|i| ((i % 3) as i64) - 1).collect();
    QModel {
        nodes: vec![
            QNode {
                op: QOp::Linear(QLinear {
                    weight: ITensor::from_vec(&[2, 1, 3, 3], conv_w),
                    bias: vec![1, -2],
                    stride: 1,
                    padding: 0,
                    is_fc: false,
                    act: Activation::ReLU,
                    in_scale: 0.5,
                    w_scale: 0.5,
                    out_scale: 1.0,
                }),
                input: 0,
                skip: None,
            },
            QNode {
                op: QOp::Linear(QLinear {
                    weight: ITensor::from_vec(&[3, 18, 1, 1], fc_w),
                    bias: vec![0, 1, -1],
                    stride: 1,
                    padding: 0,
                    is_fc: true,
                    act: Activation::Identity,
                    in_scale: 1.0,
                    w_scale: 0.5,
                    out_scale: 1.0,
                }),
                input: 1,
                skip: None,
            },
        ],
        input_scale: 0.5,
        cfg: QuantConfig::new(3, 3),
    }
}

fn input(k: usize) -> ITensor {
    ITensor::from_vec(
        &[1, 5, 5],
        (0..25).map(|i| ((i + k) % 5) as i64 - 2).collect(),
    )
}

/// The tentpole invariant: on a warm session (plan compiled, keys
/// generated, pool populated by a first run), a repeat `run_encrypted`
/// checks every limb buffer out of the pool — zero fresh heap
/// allocations in the limb hot path.
#[cfg(feature = "alloc-stats")]
#[test]
fn warm_session_steady_state_has_zero_fresh_limb_allocations() {
    let _g = lock();
    let mut session = InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 4, 42);
    let model = model_with(-2);
    let mut sampler = Sampler::from_seed(555);
    // Cold run: compiles, keygens, and fills the pool.
    let cold = session
        .run_encrypted(&model, &input(0), &mut sampler)
        .expect("cold run");
    // Warm runs: every limb checkout must hit the pool.
    for round in 0..2 {
        let (inf, counts) =
            alloc_stats::measure(|| session.run_encrypted(&model, &input(0), &mut sampler));
        let inf = inf.expect("warm run");
        assert!(counts.takes > 0, "executor must go through the arena");
        assert_eq!(
            counts.fresh, 0,
            "warm round {round}: {} of {} limb checkouts missed the pool",
            counts.fresh, counts.takes
        );
        assert!(!inf.logits.is_empty());
        assert_eq!(inf.logits.len(), cold.logits.len());
    }
}

/// The checkout total of one inference is determined by the executed
/// ops, not by how they were scheduled: identical at 1 and 4 workers.
#[cfg(feature = "alloc-stats")]
#[test]
fn limb_checkout_totals_are_thread_count_invariant() {
    let _g = lock();
    let model = model_with(-2);
    let mut takes = Vec::new();
    for threads in [1usize, 4] {
        par::set_threads(threads);
        let mut session = InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 4, 77);
        let mut sampler = Sampler::from_seed(555);
        // Warm up so the measured run is steady-state at both counts.
        session
            .run_encrypted(&model, &input(0), &mut sampler)
            .expect("warm-up run");
        let (_, counts) =
            alloc_stats::measure(|| session.run_encrypted(&model, &input(0), &mut sampler));
        par::set_threads(0);
        takes.push(counts.takes);
        assert_eq!(counts.fresh, 0, "steady state at {threads} threads");
    }
    assert_eq!(
        takes[0], takes[1],
        "limb checkout totals must not depend on the worker count"
    );
}

/// Poison mode fills every raw checkout with a sentinel before handing it
/// out. If any step consumed stale pool contents (a buffer it never
/// wrote), the sentinel would reach the logits — so bit-identical logits
/// prove the write-before-read discipline of every `take_raw` site.
#[test]
fn poisoned_pool_produces_bit_identical_logits() {
    let _g = lock();
    let model = model_with(-2);
    let run = |poison: Option<u64>| -> Vec<f64> {
        let _guard = PoisonGuard;
        arena::set_poison(poison);
        let mut session = InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 4, 77);
        let mut sampler = Sampler::from_seed(555);
        // Two runs: the second consumes recycled (poison-refilled) buffers.
        session
            .run_encrypted(&model, &input(0), &mut sampler)
            .expect("first run");
        session
            .run_encrypted(&model, &input(0), &mut sampler)
            .expect("second run")
            .logits
    };
    let clean = run(None);
    let poisoned = run(Some(0xDEAD_BEEF_DEAD_BEEF));
    assert_eq!(
        clean, poisoned,
        "a step read stale pool contents (sentinel reached the logits)"
    );
}

/// `run_batch` over a shared-session arena stays bit-identical to the
/// sequential path at every worker count, even with the pool poisoned —
/// concurrent workers checking buffers in and out never observe one
/// another's data.
#[test]
fn poisoned_batch_matches_sequential_at_any_thread_count() {
    let _g = lock();
    let _guard = PoisonGuard;
    let model = model_with(-2);
    let imgs: Vec<ITensor> = (0..4).map(input).collect();

    let sequential: Vec<Vec<f64>> = {
        let mut session = InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 4, 77);
        let mut sampler = Sampler::from_seed(555);
        imgs.iter()
            .map(|img| {
                session
                    .run_encrypted(&model, img, &mut sampler)
                    .expect("sequential run")
                    .logits
            })
            .collect()
    };

    arena::set_poison(Some(0xA5A5_A5A5_A5A5_A5A5));
    for threads in [1usize, 4] {
        par::set_threads(threads);
        let mut session = InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 4, 77);
        let mut sampler = Sampler::from_seed(555);
        let batch = session
            .run_batch(&model, &imgs, &mut sampler)
            .expect("batch runs");
        par::set_threads(0);
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            let b = b.as_ref().expect("clean batch item");
            assert_eq!(
                &b.logits, s,
                "input {i} at {threads} threads diverged under poisoning"
            );
        }
    }
}

/// Retention is bounded pool-wide, not per shard: every fresh thread takes
/// the next shard round-robin (as the workers of a `par` region do), so a
/// per-shard cap let a long batch run fill all eight shards in turn. Here
/// 24 threads — three laps of the shards — each release 1 MiB; the pool
/// must stay under its one cap, and a lease must raise exactly that cap.
#[test]
fn retention_is_capped_across_shards_not_per_shard() {
    let _g = lock();
    arena::clear();
    let release_one_mib_from_fresh_threads = || {
        let held: Vec<arena::LimbVec> = (0..3 * arena::N_SHARDS)
            .map(|_| arena::LimbVec::take_raw(128 * 1024))
            .collect();
        for buf in held {
            std::thread::spawn(move || drop(buf))
                .join()
                .expect("release thread");
        }
    };
    let cap = arena::retention_cap();
    release_one_mib_from_fresh_threads();
    let pooled = arena::pooled_bytes();
    assert!(pooled <= cap, "pooled {pooled} B over the {cap} B cap");
    assert!(
        pooled + (1 << 20) > cap,
        "the cap, not a shard, is the limit"
    );

    let lease = arena::ArenaLease::reserve(3 << 20);
    assert_eq!(arena::retention_cap(), cap + (3 << 20));
    release_one_mib_from_fresh_threads();
    assert_eq!(arena::pooled_bytes(), cap + (3 << 20));
    drop(lease);
    assert!(arena::pooled_bytes() <= cap, "dropping the lease trims");
    arena::clear();
}

/// Every cached plan holds an arena lease; evicting the entry releases
/// its share of the pool reservation (the RAII contract of
/// `ArenaLease`).
#[test]
fn evicting_a_plan_releases_its_arena_reservation() {
    let _g = lock();
    let shape = [1usize, 5, 5];
    let mut session = InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 1, 43);
    let before = arena::reserved_bytes();

    session.plan_for(&model_with(-2), &shape);
    let one = session.stats().arena_reserved;
    assert!(one > 0, "a cached plan must reserve pool capacity");
    assert_eq!(arena::reserved_bytes(), before + one);

    // Capacity 1: compiling a second model evicts the first entry and
    // drops its lease — the global reservation must not accumulate.
    session.plan_for(&model_with(3), &shape);
    assert_eq!(session.stats().entries, 1);
    assert_eq!(session.stats().arena_reserved, one);
    assert_eq!(
        arena::reserved_bytes(),
        before + one,
        "the evicted entry's lease must have been released"
    );

    drop(session);
    assert_eq!(
        arena::reserved_bytes(),
        before,
        "dropping the session releases every lease"
    );
}
