//! Cross-backend equivalence over the same compiled plan.
//!
//! One generic interpreter drives every backend, so the three views of a
//! model must cohere:
//!
//! * `NoiseSimBackend` at σ = 0 is **exactly** the plain-Q integer
//!   reference (`QModel::forward`) on every zoo model — the simulated
//!   pipeline is certified against the plan, not a parallel
//!   reimplementation;
//! * the legacy fast path (`simulate_inference`, which walks the model
//!   directly) equals the plan-driven simulation at σ = 0;
//! * `EncryptedBackend` logits stay within the propagated `e_ms` bound of
//!   the noise-free simulation on conv / pool / residual models under
//!   both packing strategies.
//!
//! The zoo uses power-of-two scales, so the final dequantization
//! (`acc · in_scale · w_scale`) is exact in `f64` and the σ = 0
//! comparisons can demand bit equality.

use athena_core::pipeline::{AthenaEngine, PackingMethod};
use athena_core::simulate::{simulate_inference, NoiseSpec};
use athena_core::{infer, plan};
use athena_fhe::params::BfvParams;
use athena_math::sampler::Sampler;
use athena_nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QuantConfig};
use athena_nn::tensor::ITensor;

fn conv(weight: Vec<i64>, shape: &[usize], bias: Vec<i64>, padding: usize, act: Activation) -> QOp {
    QOp::Linear(QLinear {
        weight: ITensor::from_vec(shape, weight),
        bias,
        stride: 1,
        padding,
        is_fc: false,
        act,
        in_scale: 1.0,
        w_scale: 0.5,
        out_scale: 1.0,
    })
}

fn fc(weight: Vec<i64>, shape: &[usize], bias: Vec<i64>) -> QOp {
    QOp::Linear(QLinear {
        weight: ITensor::from_vec(shape, weight),
        bias,
        stride: 1,
        padding: 0,
        is_fc: true,
        act: Activation::Identity,
        in_scale: 1.0,
        w_scale: 0.5,
        out_scale: 1.0,
    })
}

fn conv_fc_model() -> (QModel, ITensor) {
    let conv_w: Vec<i64> = (0..2 * 9).map(|i| ((i % 5) as i64) - 2).collect();
    let fc_w: Vec<i64> = (0..3 * 18).map(|i| ((i % 3) as i64) - 1).collect();
    let model = QModel {
        nodes: vec![
            QNode {
                op: conv(conv_w, &[2, 1, 3, 3], vec![1, -2], 0, Activation::ReLU),
                input: 0,
                skip: None,
            },
            QNode {
                op: fc(fc_w, &[3, 18, 1, 1], vec![0, 1, -1]),
                input: 1,
                skip: None,
            },
        ],
        input_scale: 0.5,
        cfg: QuantConfig::new(3, 3),
    };
    let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| ((i % 5) as i64) - 2).collect());
    (model, input)
}

fn maxpool_model() -> (QModel, ITensor) {
    let model = QModel {
        nodes: vec![
            QNode {
                op: conv(
                    vec![0, 1, 0, 1, 2, 1, 0, 1, 0],
                    &[1, 1, 3, 3],
                    vec![0],
                    1,
                    Activation::ReLU,
                ),
                input: 0,
                skip: None,
            },
            QNode {
                op: QOp::MaxPool { k: 2 },
                input: 1,
                skip: None,
            },
            QNode {
                op: fc(vec![1, -1, 1, -1, 2, 0, -2, 0], &[2, 4, 1, 1], vec![0, 0]),
                input: 2,
                skip: None,
            },
        ],
        input_scale: 1.0,
        cfg: QuantConfig::new(3, 4),
    };
    let input = ITensor::from_vec(
        &[1, 4, 4],
        vec![1, -2, 3, 0, 2, 1, -1, 2, 0, 3, 1, -2, 1, 0, 2, 1],
    );
    (model, input)
}

fn avgpool_model() -> (QModel, ITensor) {
    let model = QModel {
        nodes: vec![
            QNode {
                op: conv(
                    vec![0, 1, 0, 1, 2, 1, 0, 1, 0],
                    &[1, 1, 3, 3],
                    vec![1],
                    1,
                    Activation::ReLU,
                ),
                input: 0,
                skip: None,
            },
            QNode {
                op: QOp::AvgPool { k: 2 },
                input: 1,
                skip: None,
            },
            QNode {
                op: fc(vec![1, -1, 2, 0, -1, 1, 0, 2], &[2, 4, 1, 1], vec![1, -1]),
                input: 2,
                skip: None,
            },
        ],
        input_scale: 1.0,
        cfg: QuantConfig::new(3, 4),
    };
    let input = ITensor::from_vec(
        &[1, 4, 4],
        vec![2, 0, -1, 3, 1, 2, 0, -2, 3, 1, 2, 0, -1, 2, 1, 1],
    );
    (model, input)
}

fn skip_model() -> (QModel, ITensor) {
    let model = QModel {
        nodes: vec![
            QNode {
                op: conv(
                    vec![0, 0, 0, 0, 1, 0, 0, 0, 0],
                    &[1, 1, 3, 3],
                    vec![0],
                    1,
                    Activation::ReLU,
                ),
                input: 0,
                skip: None,
            },
            QNode {
                op: conv(
                    vec![0, 1, 0, 0, 0, 0, 0, 1, 0],
                    &[1, 1, 3, 3],
                    vec![0],
                    1,
                    Activation::ReLU,
                ),
                input: 1,
                skip: Some((1, 2)),
            },
            QNode {
                op: fc(vec![1; 9], &[1, 9, 1, 1], vec![0]),
                input: 2,
                skip: None,
            },
        ],
        input_scale: 1.0,
        cfg: QuantConfig::new(4, 4),
    };
    let input = ITensor::from_vec(&[1, 3, 3], vec![2, -1, 3, 0, 1, -2, 4, 2, 0]);
    (model, input)
}

fn zoo() -> Vec<(&'static str, QModel, ITensor)> {
    let (m1, i1) = conv_fc_model();
    let (m2, i2) = maxpool_model();
    let (m3, i3) = avgpool_model();
    let (m4, i4) = skip_model();
    vec![
        ("conv_fc", m1, i1),
        ("maxpool", m2, i2),
        ("avgpool", m3, i3),
        ("skip", m4, i4),
    ]
}

/// σ = 0: the plan-driven simulation is the plain-Q integer reference,
/// bit for bit, on every zoo model under both packing strategies (the
/// packing choice changes the compiled schedule metadata, never the
/// arithmetic).
#[test]
fn sim_at_sigma_zero_equals_plain_q_reference() {
    for (name, model, input) in zoo() {
        let reference = model.forward(&input);
        for method in [PackingMethod::Column, PackingMethod::Bsgs] {
            let engine = AthenaEngine::with_packing(BfvParams::test_small(), method);
            let compiled = plan::compile(&engine, &model, input.shape());
            let mut sampler = Sampler::from_seed(9_001);
            let run = plan::execute_sim(&compiled, &input, &NoiseSpec::zero(), &mut sampler);
            assert_eq!(
                run.logits, reference,
                "{name} ({method:?}): σ=0 sim diverged from plain-Q forward"
            );
            assert_eq!(run.predicted, athena_core::util::argmax(&reference));
        }
    }
}

/// The model-walking simulator (`simulate_inference`) and the
/// plan-driven one agree exactly at σ = 0.
#[test]
fn fast_path_sim_matches_planned_sim_at_sigma_zero() {
    let engine = AthenaEngine::new(BfvParams::test_small());
    for (name, model, input) in zoo() {
        let mut s1 = Sampler::from_seed(123);
        let fast = simulate_inference(&model, &input, &NoiseSpec::zero(), &mut s1);
        let mut s2 = Sampler::from_seed(456);
        let compiled = plan::compile(&engine, &model, input.shape());
        let planned = plan::execute_sim(&compiled, &input, &NoiseSpec::zero(), &mut s2);
        assert_eq!(fast.logits, planned.logits, "{name}: fast vs planned sim");
        assert_eq!(fast.predicted, planned.predicted, "{name}");
    }
}

/// With noise on, the plan-driven simulation only perturbs accumulators
/// (it never changes the integer semantics): at production-shaped σ the
/// logits stay near the noise-free run and the distribution is seeded /
/// deterministic.
#[test]
fn sim_noise_is_seeded_and_bounded() {
    let engine = AthenaEngine::new(BfvParams::test_small());
    let noise = NoiseSpec::for_bfv(engine.context().params());
    for (name, model, input) in zoo() {
        let compiled = plan::compile(&engine, &model, input.shape());
        let clean = {
            let mut s = Sampler::from_seed(7);
            plan::execute_sim(&compiled, &input, &NoiseSpec::zero(), &mut s)
        };
        let mut s = Sampler::from_seed(7);
        let noisy_a = plan::execute_sim(&compiled, &input, &noise, &mut s);
        let mut s = Sampler::from_seed(7);
        let noisy_b = plan::execute_sim(&compiled, &input, &noise, &mut s);
        assert_eq!(noisy_a.logits, noisy_b.logits, "{name}: sim not seeded");
        for (i, (&c, &n)) in clean.logits.iter().zip(&noisy_a.logits).enumerate() {
            assert!(
                (c - n).abs() <= 30.0,
                "{name} logit {i}: noisy sim {n} too far from clean {c}"
            );
        }
    }
}

/// The encrypted backend and the noise simulation describe the same
/// pipeline: encrypted logits stay within the propagated `e_ms` bound of
/// the σ = 0 simulation (which this suite separately pins to plain-Q) on
/// conv / pool / residual models under both packing strategies. The bound
/// matches the pre-refactor end-to-end tolerances: a handful of
/// activation steps of drift from `e_ms ≈ σ` per accumulator, propagated
/// through the final layer's weights.
#[test]
fn encrypted_within_ems_bound_of_sim() {
    for (name, model, input) in zoo() {
        for method in [PackingMethod::Column, PackingMethod::Bsgs] {
            let engine = AthenaEngine::with_packing(BfvParams::test_small(), method);
            let mut sampler = Sampler::from_seed(60_606);
            let (secrets, keys) = engine.keygen(&mut sampler);
            let enc = infer::run_encrypted(&engine, &secrets, &keys, &model, &input, &mut sampler);
            let compiled = plan::compile(&engine, &model, input.shape());
            let mut sim_sampler = Sampler::from_seed(60_607);
            let sim = plan::execute_sim(&compiled, &input, &NoiseSpec::zero(), &mut sim_sampler);
            assert_eq!(enc.logits.len(), sim.logits.len(), "{name} ({method:?})");
            for (i, (&e, &s)) in enc.logits.iter().zip(&sim.logits).enumerate() {
                assert!(
                    (e - s).abs() <= 30.0,
                    "{name} ({method:?}) logit {i}: encrypted {e} vs sim {s}"
                );
            }
        }
    }
}

/// The counting backend's per-step totals match the plan's backfilled
/// analytic counts (they are produced by the same dry run) and
/// re-deriving them is deterministic.
#[test]
fn counting_backend_rederives_plan_analytic() {
    for method in [PackingMethod::Column, PackingMethod::Bsgs] {
        let engine = AthenaEngine::with_packing(BfvParams::test_small(), method);
        for (name, model, input) in zoo() {
            let compiled = plan::compile(&engine, &model, input.shape());
            let counts = plan::execute_counting(&engine, &compiled);
            let steps: Vec<_> = compiled
                .layers
                .iter()
                .flat_map(|l| l.steps.iter())
                .collect();
            assert_eq!(counts.len(), steps.len(), "{name} ({method:?})");
            for (i, (c, s)) in counts.iter().zip(&steps).enumerate() {
                assert_eq!(
                    *c,
                    s.analytic,
                    "{name} ({method:?}) step {i} ({}): counting re-derivation drifted",
                    s.op.label()
                );
            }
        }
    }
}
