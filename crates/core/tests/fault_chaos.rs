//! Chaos suite for the resilient serving path: every injectable fault at
//! every step index surfaces as a typed [`AthenaError`] — never a raw
//! panic — and the next clean run on the same session is bit-identical
//! to a session that never faulted (the arena-quarantine contract), at
//! both `ATHENA_THREADS` legs.
//!
//! The arena and its counters are process-global, so every test in this
//! binary serializes behind one lock.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use athena_core::fuzz::{run_chaos, ChaosConfig};
use athena_core::pipeline::AthenaEngine;
use athena_core::plan::{
    self, AthenaError, FaultKind, FaultPlan, FaultSpec, InferenceSession, RetryPolicy, RunPolicy,
};
use athena_fhe::params::BfvParams;
use athena_math::par;
use athena_math::sampler::Sampler;
use athena_nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QuantConfig};
use athena_nn::tensor::ITensor;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
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

fn session() -> InferenceSession {
    InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 4, 42)
}

/// The acceptance invariant, exhaustively: a panic injected at *every*
/// flat step index comes back as [`AthenaError::StepPanicked`] naming the
/// right step, and a clean run right after on the *same* session is
/// bit-identical to a never-faulted twin — at 1 and 4 workers.
#[test]
fn panic_at_every_step_surfaces_typed_and_recovers() {
    let _g = lock();
    let model = model_with(-2);
    for threads in [1usize, 4] {
        par::set_threads(threads);
        // The never-faulted twin (same key seed, same request sampler).
        let clean_logits = {
            let mut twin = session();
            let mut sampler = Sampler::from_seed(9_999);
            twin.run_encrypted(&model, &input(0), &mut sampler)
                .expect("twin clean run")
                .logits
        };

        let mut chaotic = session();
        let plan = chaotic.plan_for(&model, &[1, 5, 5]);
        // (flat index → (node, step-in-node, label)) for the assertion.
        let flat_steps: Vec<(usize, usize, &'static str)> = plan
            .layers
            .iter()
            .flat_map(|l| {
                l.steps
                    .iter()
                    .enumerate()
                    .map(|(si, s)| (l.node, si, s.op.label()))
            })
            .collect();
        drop(plan);

        for (k, &(node, si, label)) in flat_steps.iter().enumerate() {
            let policy = RunPolicy::default().with_faults(FaultPlan::panic_at(k));
            let mut sampler = Sampler::from_seed(1_000 + k as u64);
            let err = chaotic
                .run_encrypted_with(&model, &input(0), &mut sampler, &policy)
                .expect_err("the injected panic must fail the request");
            match err {
                AthenaError::StepPanicked {
                    node: n,
                    step: s,
                    label: l,
                    payload,
                } => {
                    assert_eq!(
                        (n, s, l),
                        (node, si, label),
                        "flat step {k}: wrong attribution"
                    );
                    assert!(payload.contains("injected fault"), "payload: {payload}");
                }
                other => panic!("flat step {k}: expected StepPanicked, got {other:?}"),
            }

            let mut sampler = Sampler::from_seed(9_999);
            let recovered = chaotic
                .run_encrypted(&model, &input(0), &mut sampler)
                .expect("clean run after fault");
            assert_eq!(
                recovered.logits, clean_logits,
                "flat step {k} at {threads} threads: the faulted attempt leaked state"
            );
        }
        par::set_threads(0);
    }
}

/// After a faulted (quarantined) attempt the pool is empty — the next run
/// refills it (fresh checkouts), and the one after is warm again. The
/// quarantine trades one cold run for the guarantee that nothing the
/// faulted attempt touched is ever recycled.
#[cfg(feature = "alloc-stats")]
#[test]
fn quarantine_costs_one_cold_run_then_warms() {
    use athena_math::stats::alloc_stats;
    let _g = lock();
    let model = model_with(-2);
    let mut chaotic = session();
    let mut sampler = Sampler::from_seed(555);
    chaotic
        .run_encrypted(&model, &input(0), &mut sampler)
        .expect("warm-up run");

    let policy = RunPolicy::default().with_faults(FaultPlan::panic_at(3));
    chaotic
        .run_encrypted_with(&model, &input(0), &mut sampler, &policy)
        .expect_err("fault fires");

    let (first, cold) =
        alloc_stats::measure(|| chaotic.run_encrypted(&model, &input(0), &mut sampler));
    first.expect("first run after quarantine");
    assert!(
        cold.fresh > 0,
        "the quarantined pool must be refilled, not recycled"
    );
    let (second, warm) =
        alloc_stats::measure(|| chaotic.run_encrypted(&model, &input(0), &mut sampler));
    second.expect("second run after quarantine");
    assert_eq!(warm.fresh, 0, "steady state must return after one refill");
}

/// One faulted batch item never poisons its neighbors: item 1 fails typed,
/// items 0 and 2 stay bit-identical to an unfaulted batch — the
/// regression test for `run_batch` routing workers through the same
/// quarantine path as single requests.
#[test]
fn batch_item_fault_is_isolated() {
    let _g = lock();
    let model = model_with(-2);
    let imgs: Vec<ITensor> = (0..3).map(input).collect();

    for threads in [1usize, 4] {
        par::set_threads(threads);
        let clean: Vec<Vec<f64>> = {
            let mut twin = session();
            let mut sampler = Sampler::from_seed(555);
            twin.run_batch(&model, &imgs, &mut sampler)
                .expect("twin batch")
                .into_iter()
                .map(|r| r.expect("twin item").logits)
                .collect()
        };

        let mut chaotic = session();
        let mut sampler = Sampler::from_seed(555);
        let faults = FaultPlan::new(0, vec![FaultSpec::at(2, FaultKind::Panic).on_input(1)]);
        let policy = RunPolicy::default().with_faults(faults);
        let batch = chaotic
            .run_batch_with(&model, &imgs, &mut sampler, &policy)
            .expect("whole-batch result");
        par::set_threads(0);

        assert!(
            matches!(batch[1], Err(AthenaError::StepPanicked { .. })),
            "item 1 must fail typed, got {:?}",
            batch[1]
        );
        for i in [0usize, 2] {
            let item = batch[i].as_ref().expect("unfaulted item");
            assert_eq!(
                item.logits, clean[i],
                "item {i} at {threads} threads diverged next to a faulted neighbor"
            );
        }
    }
}

/// A zero deadline fails fast — before the first step — with the typed
/// error naming it. (Zero is the only portably deterministic deadline in
/// a debug build; positive deadlines are covered by the slow-step chaos
/// dimension.)
#[test]
fn zero_deadline_fails_fast_and_typed() {
    let _g = lock();
    let mut s = session();
    let mut sampler = Sampler::from_seed(1);
    let policy = RunPolicy::default().with_deadline(Duration::ZERO);
    let err = s
        .run_encrypted_with(&model_with(-2), &input(0), &mut sampler, &policy)
        .expect_err("a zero deadline cannot be met");
    match err {
        AthenaError::DeadlineExceeded { step, deadline, .. } => {
            assert_eq!(step, 0, "must trip before the first step");
            assert_eq!(deadline, Duration::ZERO);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

/// A transient fault (panic on attempt 1 only) succeeds under a 2-attempt
/// retry policy; the retry re-encrypts with a fresh sampler fork.
#[test]
fn transient_fault_retries_to_success() {
    let _g = lock();
    let mut s = session();
    let mut sampler = Sampler::from_seed(7);
    let faults = FaultPlan::new(0, vec![FaultSpec::at(2, FaultKind::Panic).on_attempt(1)]);
    let policy = RunPolicy::default()
        .with_faults(faults)
        .with_retry(RetryPolicy {
            max_attempts: 2,
            backoff: Duration::ZERO,
        });
    let inf = s
        .run_encrypted_with(&model_with(-2), &input(0), &mut sampler, &policy)
        .expect("the retry must recover the transient fault");
    assert_eq!(inf.logits.len(), 3);
}

/// A deterministic fault is never retried, even with attempts to spare: a
/// noise spike scoped to attempt 1 would vanish on attempt 2, but noise
/// exhaustion fails fast — so the request must come back exhausted.
#[test]
fn deterministic_fault_is_not_retried() {
    let _g = lock();
    let mut s = session();
    let mut sampler = Sampler::from_seed(7);
    let faults = FaultPlan::new(
        0,
        vec![FaultSpec::at(2, FaultKind::NoiseSpike { bits: 60_000 }).on_attempt(1)],
    );
    let policy = RunPolicy::default()
        .with_faults(faults)
        .with_retry(RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
        });
    let err = s
        .run_encrypted_with(&model_with(-2), &input(0), &mut sampler, &policy)
        .expect_err("noise exhaustion is deterministic and must fail fast");
    assert_eq!(err.kind(), "noise-exhausted");
    assert!(!err.is_transient());
}

/// A noise spike surfaces as typed exhaustion at any step index — spikes
/// injected below the RLWE layer carry forward to the next probe point,
/// and one past the last probe is charged against the fresh baseline.
#[test]
fn noise_spike_surfaces_as_exhaustion_at_every_step() {
    let _g = lock();
    let model = model_with(-2);
    let mut s = session();
    let step_count = s.plan_for(&model, &[1, 5, 5]).step_count();
    for k in 0..step_count {
        let faults = FaultPlan::new(
            0,
            vec![FaultSpec::at(k, FaultKind::NoiseSpike { bits: 60_000 })],
        );
        let policy = RunPolicy::default().with_faults(faults);
        let mut sampler = Sampler::from_seed(100 + k as u64);
        let err = s
            .run_encrypted_with(&model, &input(0), &mut sampler, &policy)
            .expect_err("a 60k-bit spike dwarfs any budget");
        match err {
            AthenaError::NoiseExhausted(ne) => {
                assert!(ne.budget <= 0, "step {k}: budget {}", ne.budget);
            }
            other => panic!("step {k}: expected NoiseExhausted, got {other:?}"),
        }
    }
}

/// A corrupted limb makes the CRT residues inconsistent; under probing the
/// measured budget collapses and the request fails typed, not garbled.
#[test]
fn corrupt_limb_is_caught_by_the_probe() {
    let _g = lock();
    let mut s = session();
    let mut sampler = Sampler::from_seed(11);
    let faults = FaultPlan::new(3, vec![FaultSpec::at(0, FaultKind::CorruptLimb)]);
    let policy = RunPolicy::default().with_probe().with_faults(faults);
    let err = s
        .run_encrypted_with(&model_with(-2), &input(0), &mut sampler, &policy)
        .expect_err("corruption must collapse the measured budget");
    assert_eq!(err.kind(), "noise-exhausted", "got {err:?}");
}

/// A panic caught while a poisoned shard lock was recovered is reported
/// as [`AthenaError::PoolPoisoned`] — the pool itself was implicated, not
/// just the one step.
#[test]
fn poisoned_shard_lock_reports_pool_poisoned() {
    let _g = lock();
    let mut s = session();
    // Compile + keygen first (both touch the arena): the poison must be
    // in place during the *attempt*, not recovered by setup work.
    s.plan_for(&model_with(-2), &[1, 5, 5]);
    athena_math::arena::poison_shard_lock_for_test(0);
    let mut sampler = Sampler::from_seed(13);
    let policy = RunPolicy::default().with_faults(FaultPlan::panic_at(1));
    let err = s
        .run_encrypted_with(&model_with(-2), &input(0), &mut sampler, &policy)
        .expect_err("fault fires");
    match err {
        AthenaError::PoolPoisoned { recoveries, .. } => {
            assert!(recoveries > 0);
        }
        other => panic!("expected PoolPoisoned, got {other:?}"),
    }
    // The pool recovered: a clean run succeeds.
    let mut sampler = Sampler::from_seed(13);
    s.run_encrypted(&model_with(-2), &input(0), &mut sampler)
        .expect("pool must have recovered");
}

/// A wrong-shaped input is a typed error at every public entry that can
/// return one — never a panic out of input placement. Where a compiled
/// plan already fixes the shape (`execute_resilient`, and a batch, whose
/// first input picks the plan) it is [`AthenaError::ShapeMismatch`] naming
/// both shapes; where the input's shape selects the plan (single session
/// requests) the model itself is rejected for that shape.
#[test]
fn wrong_shaped_input_is_typed_at_every_entry() {
    let _g = lock();
    let model = model_with(-2);
    let wrong = ITensor::from_vec(&[1, 4, 4], vec![1; 16]);
    let policies = [
        RunPolicy::default(),
        RunPolicy::default()
            .with_probe()
            .with_faults(FaultPlan::panic_at(0)),
    ];

    let engine = AthenaEngine::new(BfvParams::test_small());
    let compiled = plan::compile(&engine, &model, &[1, 5, 5]);
    let mut sampler = Sampler::from_seed(21);
    let (secrets, keys) = engine.keygen_for_plan(&compiled, &mut sampler);
    for policy in &policies {
        for (bad, idx) in [
            (&wrong, None),
            (&ITensor::from_vec(&[25], vec![0; 25]), Some(3)),
        ] {
            let err = plan::execute_resilient(
                &engine,
                &secrets,
                &keys,
                &compiled,
                bad,
                &mut sampler,
                policy,
                1,
                idx,
            )
            .expect_err("the plan was compiled for [1, 5, 5]");
            assert_eq!(
                err,
                AthenaError::ShapeMismatch {
                    input: idx.unwrap_or(0),
                    expected: vec![1, 5, 5],
                    got: bad.shape().to_vec(),
                }
            );
        }
    }

    let mut s = session();
    for policy in &policies {
        let err = s
            .run_batch_with(&model, &[input(0), wrong.clone()], &mut sampler, policy)
            .expect_err("one batch shares one plan");
        assert!(
            matches!(err, AthenaError::ShapeMismatch { input: 1, .. }),
            "got {err:?}"
        );
        let err = s
            .run_encrypted_with(&model, &wrong, &mut sampler, policy)
            .expect_err("the FC layer cannot take a 4x4 image's features");
        assert_eq!(err.kind(), "compile", "got {err:?}");
    }
    let err = s
        .run_batch(&model, &[input(0), wrong.clone()], &mut sampler)
        .expect_err("one batch shares one plan");
    assert_eq!(err.kind(), "shape-mismatch", "got {err:?}");
    let err = s
        .run_encrypted(&model, &wrong, &mut sampler)
        .expect_err("the FC layer cannot take a 4x4 image's features");
    assert_eq!(err.kind(), "compile", "got {err:?}");
}

/// The seeded chaos sweep over the fuzz model zoo: random models, random
/// faults, typed errors and bit-identical recovery throughout — and, per
/// case, the backend-generic half of the contract (`fuzz::chaos`): a panic
/// at every flat step index through the wrapped simulation and counting
/// backends surfaces as `StepPanicked` naming that step, and probing a
/// backend with no budget hook reports no budget and changes no logit.
#[test]
fn seeded_chaos_sweep_is_clean() {
    let _g = lock();
    let report = run_chaos(&ChaosConfig {
        seed: 77_000_000,
        cases: 8,
    })
    .unwrap_or_else(|failure| panic!("{failure}"));
    assert_eq!(report.cases, 8);
    assert_eq!(report.typed_errors + report.clean_passes, 8);
}
