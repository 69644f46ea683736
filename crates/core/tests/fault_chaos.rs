//! Chaos suite for the resilient serving path: every injectable fault at
//! every step index surfaces as a typed [`AthenaError`] — never a raw
//! panic — or lands nowhere and leaves the logits bit-identical, and the
//! next clean run on the same session is bit-identical to a session that
//! never faulted (a faulted request owns every buffer it touched, so it
//! leaves nothing behind), at both `ATHENA_THREADS` legs.
//!
//! The worker-count override `par::set_threads` is process-global: one
//! test here sets it while others serve batches, so every test in this
//! binary serializes behind one lock.

use std::sync::{Mutex, MutexGuard, OnceLock};

use athena_core::fuzz::{run_chaos, ChaosConfig};
use athena_core::pipeline::{AthenaEngine, PackingMethod};
use athena_core::plan::{
    self, AthenaError, FaultKind, FaultPlan, FaultSpec, InferenceSession, NoiseExhausted, RunPolicy,
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
/// bit-identical to a never-faulted twin.
#[test]
fn panic_at_every_step_surfaces_typed_and_recovers() {
    let _g = lock();
    let model = model_with(-2);
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
            "flat step {k}: the faulted request leaked state"
        );
    }
}

/// One faulted batch item never affects its neighbors: item 1 fails typed,
/// items 0 and 2 stay bit-identical to an unfaulted batch — the
/// regression test for `run_batch` classifying a worker's failure the way
/// single requests do.
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

/// `plan_equivalence.rs`'s `pool_model`: a padded 3×3 conv on 4×4, a 2×2
/// max pool — the pack → FBS(ReLU) → S2C rounds of the max tree inside one
/// `max_reduce` step — and an FC head.
fn pool_model() -> QModel {
    QModel {
        nodes: vec![
            QNode {
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
            },
            QNode {
                op: QOp::MaxPool { k: 2 },
                input: 1,
                skip: None,
            },
            QNode {
                op: QOp::Linear(QLinear {
                    weight: ITensor::from_vec(&[2, 4, 1, 1], vec![1, -1, 1, -1, 2, 0, -2, 0]),
                    bias: vec![0, 0],
                    stride: 1,
                    padding: 0,
                    is_fc: true,
                    act: Activation::Identity,
                    in_scale: 1.0,
                    w_scale: 1.0,
                    out_scale: 1.0,
                }),
                input: 2,
                skip: None,
            },
        ],
        input_scale: 1.0,
        cfg: QuantConfig::new(3, 4),
    }
}

fn pool_input() -> ITensor {
    ITensor::from_vec(
        &[1, 4, 4],
        vec![1, -2, 3, 0, 2, 1, -1, 2, 0, 3, 1, -2, 1, 0, 2, 1],
    )
}

/// Runs a probed request with a `CorruptLimb` armed at each of `steps`
/// flat step indices (fault seed `fault_seed(k)`): the damaged ciphertext
/// either drives the measured budget to zero (a typed `NoiseExhausted`),
/// or the fault is armed after the last RLWE-producing step, lands
/// nowhere, and the logits equal the clean run's. Either way the next
/// clean request (`run` under the default policy) gives the clean logits
/// again. Returns the typed failures by step.
fn corrupt_limb_sweep(
    steps: usize,
    fault_seed: impl Fn(usize) -> u64,
    mut run: impl FnMut(&RunPolicy) -> Result<Vec<f64>, AthenaError>,
) -> Vec<(usize, NoiseExhausted)> {
    let clean_logits = run(&RunPolicy::default()).expect("clean run");
    let mut exhausted = Vec::new();
    for k in 0..steps {
        let faults = FaultPlan::new(
            fault_seed(k),
            vec![FaultSpec::at(k, FaultKind::CorruptLimb)],
        );
        match run(&RunPolicy::default().with_probe().with_faults(faults)) {
            Err(AthenaError::NoiseExhausted(ne)) => {
                assert!(ne.budget <= 0, "step {k}: budget {}", ne.budget);
                exhausted.push((k, ne));
            }
            Ok(logits) => assert_eq!(
                logits, clean_logits,
                "step {k}: an unobserved corruption changed the logits"
            ),
            Err(other) => panic!("step {k}: expected NoiseExhausted or Ok, got {other:?}"),
        }
        let after = run(&RunPolicy::default()).expect("clean run");
        assert_eq!(
            after, clean_logits,
            "step {k}: the faulted request leaked state"
        );
    }
    exhausted
}

/// Limb corruption at *every* flat step index, under the probe, is typed
/// or unobserved ([`corrupt_limb_sweep`]) — for the conv+FC model through
/// a session, and for the pooling model through `execute_resilient`.
/// There a corruption armed at layer 1's `mod_switch`, `extract`,
/// `dim_switch` or `max_reduce` (flat steps 7–10) lands on the first pack
/// of the max tree, inside the composite, and must come back as
/// exhaustion at `max_reduce` — not as `Ok` with garbage logits.
#[test]
fn corrupt_limb_at_every_step_is_typed_or_unobserved() {
    let _g = lock();
    let model = model_with(-2);
    let mut s = session();
    let step_count = s.plan_for(&model, &[1, 5, 5]).step_count();
    let exhausted = corrupt_limb_sweep(
        step_count,
        |k| k as u64,
        |policy| {
            s.run_encrypted_with(&model, &input(0), &mut Sampler::from_seed(9_999), policy)
                .map(|r| r.logits)
        },
    );
    assert!(!exhausted.is_empty(), "no corruption reached a probe point");

    // The pooling model: Column packing, key seed 5, encryption seed 77,
    // fault seed 3.
    let engine = AthenaEngine::new(BfvParams::test_small());
    let compiled = plan::compile(&engine, &pool_model(), &[1, 4, 4]);
    let (secrets, keys) = engine.keygen_for_plan(&compiled, &mut Sampler::from_seed(5));
    let exhausted = corrupt_limb_sweep(
        compiled.step_count(),
        |_| 3,
        |policy| {
            plan::execute_resilient(
                &engine,
                &secrets,
                &keys,
                &compiled,
                &pool_input(),
                &mut Sampler::from_seed(77),
                policy,
                None,
            )
            .map(|r| r.logits)
        },
    );
    for k in 7..=10 {
        let label = exhausted
            .iter()
            .find(|(at, _)| *at == k)
            .map(|(_, ne)| ne.label);
        assert_eq!(label, Some("max_reduce"), "pool step {k}");
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

/// Packing has one rule per method: a BSGS engine handed the keys of a
/// plan that never packs (no BSGS packing key) panics in `pack` rather
/// than quietly packing by columns, and `drive` reports that panic as
/// `StepPanicked` at the first `pack` step, naming the missing key.
#[test]
fn bsgs_engine_without_its_packing_key_panics_in_pack() {
    let _g = lock();
    let engine = AthenaEngine::with_packing(BfvParams::test_small(), PackingMethod::Bsgs);
    let fc_only = QModel {
        nodes: vec![QNode {
            op: QOp::Linear(QLinear {
                weight: ITensor::from_vec(&[3, 25, 1, 1], (0..75).map(|i| i % 3 - 1).collect()),
                bias: vec![0, 1, -1],
                stride: 1,
                padding: 0,
                is_fc: true,
                act: Activation::Identity,
                in_scale: 0.5,
                w_scale: 0.5,
                out_scale: 1.0,
            }),
            input: 0,
            skip: None,
        }],
        input_scale: 0.5,
        cfg: QuantConfig::new(3, 3),
    };
    let fc_plan = plan::compile(&engine, &fc_only, &[1, 5, 5]);
    let (secrets, keys) = engine.keygen_for_plan(&fc_plan, &mut Sampler::from_seed(5));
    assert!(keys.pack_bsgs.is_none());

    let packing_plan = plan::compile(&engine, &model_with(-2), &[1, 5, 5]);
    let err = plan::execute_resilient(
        &engine,
        &secrets,
        &keys,
        &packing_plan,
        &input(0),
        &mut Sampler::from_seed(9),
        &RunPolicy::default(),
        None,
    )
    .expect_err("BSGS packing without the BSGS key");
    match err {
        AthenaError::StepPanicked { label, payload, .. } => {
            assert_eq!(label, "pack");
            assert!(payload.contains("pack_bsgs"), "payload: {payload}");
        }
        other => panic!("expected StepPanicked at pack, got {other:?}"),
    }
}

/// The seeded chaos sweep over the fuzz model zoo: random models, random
/// faults, typed errors and bit-identical recovery throughout — and, per
/// case, the backend-generic half of the contract (`fuzz::chaos`): a panic
/// at every flat step index of the simulation and counting
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
