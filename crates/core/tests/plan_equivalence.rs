//! Bit-identity of the plan-driven executor against golden logits of the
//! pre-plan monolithic inference loop.
//!
//! The constants below are what the original `infer::run_encrypted` — the
//! hand-written per-layer loop the plan compiler replaced — produced for
//! these four (model, packing, seed) cases, recorded as `f64::to_bits()`
//! patterns. They were taken by running the frozen copy of that loop this
//! file used to carry, at the last commit that carried it (the parent of
//! the change that introduced the single plan driver), with the key and
//! encryption draws below. Every evaluation step is exact modular
//! arithmetic, so the plan path must reproduce them **exactly**, not
//! within tolerance.
//!
//! A deliberate change to the keygen or encryption draw order changes
//! which keys and noise a seed produces and therefore (possibly) these
//! logits; such a change regenerates the constants from the new
//! `infer::run_encrypted` output under review, exactly like the committed
//! `reports/*.txt`.

use athena_core::pipeline::{AthenaEngine, PackingMethod};
use athena_core::{infer, plan};
use athena_fhe::params::BfvParams;
use athena_math::sampler::Sampler;
use athena_nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QuantConfig};
use athena_nn::tensor::ITensor;

/// Legacy-loop logits of `conv_fc_model` (Column, seed 31 337; BSGS, seed
/// 31 338 — both packings compute the same plaintext map): -1.5, -1.0, -2.0.
const CONV_FC_GOLDEN: [u64; 3] = [
    0xbff8_0000_0000_0000,
    0xbff0_0000_0000_0000,
    0xc000_0000_0000_0000,
];
/// Legacy-loop logits of `pool_model` (Column, seed 31 339): 3.0, -2.0.
const POOL_GOLDEN: [u64; 2] = [0x4008_0000_0000_0000, 0xc000_0000_0000_0000];
/// Legacy-loop logit of `skip_model` (Column, seed 31 340): 34.0.
const SKIP_GOLDEN: [u64; 1] = [0x4041_0000_0000_0000];

fn conv_fc_model() -> QModel {
    let conv_w: Vec<i64> = (0..2 * 9).map(|i| ((i % 5) as i64) - 2).collect();
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

fn skip_model() -> QModel {
    let idk = |w: Vec<i64>| ITensor::from_vec(&[1, 1, 3, 3], w);
    QModel {
        nodes: vec![
            QNode {
                op: QOp::Linear(QLinear {
                    weight: idk(vec![0, 0, 0, 0, 1, 0, 0, 0, 0]),
                    bias: vec![0],
                    stride: 1,
                    padding: 1,
                    is_fc: false,
                    act: Activation::ReLU,
                    in_scale: 1.0,
                    w_scale: 1.0,
                    out_scale: 1.0,
                }),
                input: 0,
                skip: None,
            },
            QNode {
                op: QOp::Linear(QLinear {
                    weight: idk(vec![0, 1, 0, 0, 0, 0, 0, 1, 0]),
                    bias: vec![0],
                    stride: 1,
                    padding: 1,
                    is_fc: false,
                    act: Activation::ReLU,
                    in_scale: 1.0,
                    w_scale: 1.0,
                    out_scale: 1.0,
                }),
                input: 1,
                skip: Some((1, 2)),
            },
            QNode {
                op: QOp::Linear(QLinear {
                    weight: ITensor::from_vec(&[1, 9, 1, 1], vec![1; 9]),
                    bias: vec![0],
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
        cfg: QuantConfig::new(4, 4),
    }
}

/// Runs the plan path with the key and encryption draws the goldens were
/// recorded under and asserts the logits are exactly equal.
fn assert_bit_identical(
    method: PackingMethod,
    model: &QModel,
    input: &ITensor,
    seed: u64,
    golden: &[u64],
) {
    let engine = AthenaEngine::with_packing(BfvParams::test_small(), method);
    let mut key_sampler = Sampler::from_seed(seed);
    let (secrets, keys) = engine.keygen(&mut key_sampler);

    let mut s_plan = Sampler::from_seed(seed + 1);
    let enc = infer::run_encrypted(&engine, &secrets, &keys, model, input, &mut s_plan);

    let bits: Vec<u64> = enc.logits.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        bits, golden,
        "plan executor diverged from the legacy loop ({method:?}): logits {:?}",
        enc.logits
    );
}

#[test]
fn conv_fc_bit_identical_column() {
    let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| ((i % 5) as i64) - 2).collect());
    assert_bit_identical(
        PackingMethod::Column,
        &conv_fc_model(),
        &input,
        31_337,
        &CONV_FC_GOLDEN,
    );
}

#[test]
fn conv_fc_bit_identical_bsgs() {
    let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| ((i % 5) as i64) - 2).collect());
    assert_bit_identical(
        PackingMethod::Bsgs,
        &conv_fc_model(),
        &input,
        31_338,
        &CONV_FC_GOLDEN,
    );
}

#[test]
fn padding_and_maxpool_bit_identical() {
    let input = ITensor::from_vec(
        &[1, 4, 4],
        vec![1, -2, 3, 0, 2, 1, -1, 2, 0, 3, 1, -2, 1, 0, 2, 1],
    );
    assert_bit_identical(
        PackingMethod::Column,
        &pool_model(),
        &input,
        31_339,
        &POOL_GOLDEN,
    );
}

#[test]
fn residual_skip_bit_identical() {
    let input = ITensor::from_vec(&[1, 3, 3], vec![2, -1, 3, 0, 1, -2, 4, 2, 0]);
    assert_bit_identical(
        PackingMethod::Column,
        &skip_model(),
        &input,
        31_340,
        &SKIP_GOLDEN,
    );
}

/// Plan-driven keygen is draw-identical to the engine's blanket keygen for
/// a full-pipeline plan: same sampler seed, same keys, same logits.
#[test]
fn keygen_for_plan_matches_keygen_on_full_pipeline() {
    for method in [PackingMethod::Column, PackingMethod::Bsgs] {
        let engine = AthenaEngine::with_packing(BfvParams::test_small(), method);
        let model = conv_fc_model();
        let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| (i % 3) as i64 - 1).collect());
        let compiled = plan::compile(&engine, &model, input.shape());

        let mut s_a = Sampler::from_seed(90_210);
        let (sec_a, keys_a) = engine.keygen(&mut s_a);
        let mut s_b = Sampler::from_seed(90_210);
        let (sec_b, keys_b) = engine.keygen_for_plan(&compiled, &mut s_b);

        assert_eq!(
            keys_a.gk.elements(),
            keys_b.gk.elements(),
            "{method:?}: galois element sets differ"
        );
        let mut r_a = Sampler::from_seed(555);
        let run_a = plan::execute(&engine, &sec_a, &keys_a, &compiled, &input, &mut r_a);
        let mut r_b = Sampler::from_seed(555);
        let run_b = plan::execute(&engine, &sec_b, &keys_b, &compiled, &input, &mut r_b);
        assert_eq!(run_a.logits, run_b.logits, "{method:?}: logits differ");
    }
}
