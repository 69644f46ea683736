//! `InferenceSession` contracts: plan-cache pointer identity, LRU
//! eviction, `run_batch` ≡ sequential `run_encrypted` bit-identity at
//! every worker count, and per-step reports that reach the caller.

use std::sync::Arc;

use athena_core::pipeline::AthenaEngine;
use athena_core::plan::{self, InferenceSession, RunPolicy};
use athena_fhe::params::BfvParams;
use athena_math::par;
use athena_math::sampler::Sampler;
use athena_nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QuantConfig};
use athena_nn::tensor::ITensor;

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

fn inputs(n: usize) -> Vec<ITensor> {
    (0..n)
        .map(|k| {
            ITensor::from_vec(
                &[1, 5, 5],
                (0..25).map(|i| ((i + k) % 5) as i64 - 2).collect(),
            )
        })
        .collect()
}

#[test]
fn cache_hit_returns_pointer_identical_plan() {
    let mut session = InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 4, 42);
    let model = model_with(-2);
    let shape = [1usize, 5, 5];
    let first = session.plan_for(&model, &shape);
    let second = session.plan_for(&model, &shape);
    assert!(
        Arc::ptr_eq(&first, &second),
        "cache hit must return the same compiled plan, not a recompilation"
    );
    let stats = session.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

    // A structurally different model is a different artifact.
    let third = session.plan_for(&model_with(3), &shape);
    assert!(!Arc::ptr_eq(&first, &third));
    assert_eq!(session.stats().misses, 2);

    // A different input shape likewise (a shape-agnostic conv-only model,
    // since the conv+FC zoo model fixes its input size).
    let conv_only = QModel {
        nodes: vec![QNode {
            op: QOp::Linear(QLinear {
                weight: ITensor::from_vec(&[1, 1, 3, 3], vec![0, 1, 0, 1, 2, 1, 0, 1, 0]),
                bias: vec![0],
                stride: 1,
                padding: 1,
                is_fc: false,
                act: Activation::ReLU,
                in_scale: 1.0,
                w_scale: 0.5,
                out_scale: 1.0,
            }),
            input: 0,
            skip: None,
        }],
        input_scale: 1.0,
        cfg: QuantConfig::new(3, 3),
    };
    let at_4 = session.plan_for(&conv_only, &[1usize, 4, 4]);
    let at_5 = session.plan_for(&conv_only, &[1usize, 5, 5]);
    assert!(!Arc::ptr_eq(&at_4, &at_5));
    assert_eq!(session.stats().misses, 4);
}

#[test]
fn lru_evicts_at_capacity() {
    let mut session = InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 2, 43);
    let shape = [1usize, 5, 5];
    let (a, b, c) = (model_with(-2), model_with(-1), model_with(0));

    let plan_a = session.plan_for(&a, &shape);
    session.plan_for(&b, &shape);
    // Touch `a` so it is the most recently used, then insert `c`: `b` must
    // be the victim.
    let plan_a2 = session.plan_for(&a, &shape);
    assert!(Arc::ptr_eq(&plan_a, &plan_a2));
    session.plan_for(&c, &shape);
    assert_eq!(session.stats().entries, 2, "capacity must hold");

    let plan_a3 = session.plan_for(&a, &shape);
    assert!(Arc::ptr_eq(&plan_a, &plan_a3), "`a` must have survived");
    let misses_before_b = session.stats().misses;
    session.plan_for(&b, &shape);
    assert_eq!(
        session.stats().misses,
        misses_before_b + 1,
        "`b` must have been evicted and recompiled"
    );
}

/// `run_batch` must produce bit-identical logits to running the same
/// inputs one-by-one through `run_encrypted`, at every worker count. Two
/// fresh sessions (same key seed) isolate the sampler streams; the
/// per-input forks happen sequentially before the parallel fan-out, so
/// thread interleaving cannot reorder randomness.
#[test]
fn run_batch_matches_sequential_at_any_thread_count() {
    let model = model_with(-2);
    let imgs = inputs(5);

    let sequential: Vec<Vec<f64>> = {
        let mut session = InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 4, 77);
        let mut sampler = Sampler::from_seed(555);
        imgs.iter()
            .map(|img| {
                session
                    .run_encrypted(&model, img, &mut sampler)
                    .expect("clean run")
                    .logits
            })
            .collect()
    };

    // Uneven chunks (3 and 4 workers) and more workers than inputs (8).
    for threads in [1usize, 3, 4, 8] {
        par::set_threads(threads);
        let mut session = InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 4, 77);
        let mut sampler = Sampler::from_seed(555);
        let batch = session
            .run_batch(&model, &imgs, &mut sampler)
            .expect("batch runs");
        par::set_threads(0);
        assert_eq!(batch.len(), imgs.len());
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            let b = b.as_ref().expect("clean batch item");
            assert_eq!(
                &b.logits, s,
                "input {i} at {threads} threads: batch diverged from sequential"
            );
        }
        // One compile + keygen serves the whole batch: a single lookup,
        // not one per input.
        let stats = session.stats();
        assert_eq!((stats.misses, stats.hits), (1, 0));
    }
}

/// A `run_batch` item is the whole `PlanRun` of its request: the same
/// logits and, step by step, the same measured op and limb-allocation
/// counts as that input run alone through `execute_resilient` with the
/// session's key material and the item's sampler fork.
#[test]
fn run_batch_items_carry_their_step_reports() {
    let model = model_with(-2);
    let imgs = inputs(3);
    let mut session = InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 4, 77);
    let mut sampler = Sampler::from_seed(555);
    let batch = session
        .run_batch(&model, &imgs, &mut sampler)
        .expect("batch runs");

    let compiled = session.plan_for(&model, &[1, 5, 5]);
    let engine = session.engine();
    // The session's first compile draws its keys from the first fork of
    // its key sampler, and each batch item encrypts under the next fork
    // of the caller's sampler.
    let (secrets, keys) = engine.keygen_for_plan(&compiled, &mut Sampler::from_seed(77).fork());
    let mut sampler = Sampler::from_seed(555);
    for (i, (item, img)) in batch.iter().zip(&imgs).enumerate() {
        let item = item.as_ref().expect("clean batch item");
        let alone = plan::execute_resilient(
            engine,
            &secrets,
            &keys,
            &compiled,
            img,
            &mut sampler.fork(),
            &RunPolicy::default(),
            None,
        )
        .expect("clean run");
        assert_eq!(item.logits, alone.logits, "input {i}");
        assert_eq!(item.steps.len(), compiled.step_count(), "input {i}");
        assert_eq!(item.steps.len(), alone.steps.len(), "input {i}");
        for (b, a) in item.steps.iter().zip(&alone.steps) {
            let at = format!("input {i} node {} step {} ({})", b.node, b.step, b.label);
            assert_eq!((b.node, b.step, b.label), (a.node, a.step, a.label), "{at}");
            assert_eq!(b.measured, a.measured, "{at}: measured counts");
            assert_eq!(b.alloc, a.alloc, "{at}: limb allocations");
        }
    }
}

#[test]
fn empty_batch_is_a_no_op() {
    let mut session = InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 2, 9);
    let mut sampler = Sampler::from_seed(1);
    let out = session
        .run_batch(&model_with(-2), &[], &mut sampler)
        .expect("empty batch");
    assert!(out.is_empty());
    assert_eq!(session.stats().misses, 0, "no plan should be compiled");
}

/// A shape-mixed batch fails with a typed error naming the offending
/// input, before any ciphertext work (no plan compiled).
#[test]
fn mixed_shape_batch_reports_offending_input() {
    use athena_core::plan::AthenaError;
    let mut session = InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 2, 9);
    let mut sampler = Sampler::from_seed(1);
    let mut imgs = inputs(3);
    imgs[2] = ITensor::from_vec(&[1, 4, 4], vec![0; 16]);
    let err = session
        .run_batch(&model_with(-2), &imgs, &mut sampler)
        .expect_err("mixed shapes must be rejected");
    match err {
        AthenaError::ShapeMismatch {
            input,
            expected,
            got,
        } => {
            assert_eq!(input, 2);
            assert_eq!(expected, vec![1, 5, 5]);
            assert_eq!(got, vec![1, 4, 4]);
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    assert_eq!(session.stats().misses, 0, "no plan should be compiled");
}

/// An uncompilable model comes back as `AthenaError::Compile`, not a
/// panic, from the batch path.
#[test]
fn uncompilable_model_is_a_typed_batch_error() {
    use athena_core::plan::{AthenaError, CompileError};
    let mut session = InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 2, 9);
    let mut sampler = Sampler::from_seed(1);
    // Pool-final model: the plain reference defines no logits for it.
    let model = QModel {
        nodes: vec![QNode {
            op: QOp::MaxPool { k: 2 },
            input: 0,
            skip: None,
        }],
        input_scale: 1.0,
        cfg: QuantConfig::new(3, 3),
    };
    let err = session
        .run_batch(&model, &inputs(1), &mut sampler)
        .expect_err("pool-final model must be rejected");
    assert!(
        matches!(
            err,
            AthenaError::Compile(CompileError::PoolingFinal { node: 0 })
        ),
        "got {err:?}"
    );
}

/// Capacity 0 is rejected at construction (documented contract).
#[test]
#[should_panic(expected = "cache capacity must be at least 1")]
fn zero_capacity_session_is_rejected() {
    let _ = InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 0, 9);
}
