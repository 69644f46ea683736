//! Consistency between the *functional* engine (what actually runs under
//! FHE) and the *analytical* trace (what the accelerator model charges):
//! the op categories the engine executes must be the ones the trace counts,
//! and their relative magnitudes must rank the same way.

use athena::core::infer::run_encrypted;
use athena::core::pipeline::AthenaEngine;
use athena::core::trace::{trace_model, OpCounts, Phase, TraceParams};
use athena::fhe::params::BfvParams;
use athena::math::sampler::Sampler;
use athena::nn::models::{ConvShape, ModelSpec, NonLinear, SpecLayer};
use athena::nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QuantConfig};
use athena::nn::tensor::ITensor;

/// A tiny conv+FC model and its matching shape-level spec.
fn tiny_model_and_spec() -> (QModel, ModelSpec) {
    let conv_w: Vec<i64> = (0..9).map(|i| (i % 3) - 1).collect();
    let fc_w: Vec<i64> = (0..18).map(|i| (i % 3) - 1).collect();
    let model = QModel {
        nodes: vec![
            QNode {
                op: QOp::Linear(QLinear {
                    weight: ITensor::from_vec(&[1, 1, 3, 3], conv_w),
                    bias: vec![0],
                    stride: 1,
                    padding: 0,
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
                    weight: ITensor::from_vec(&[2, 9, 1, 1], fc_w),
                    bias: vec![0, 0],
                    stride: 1,
                    padding: 0,
                    is_fc: true,
                    act: Activation::Identity,
                    in_scale: 1.0,
                    w_scale: 1.0,
                    out_scale: 1.0,
                }),
                input: 1,
                skip: None,
            },
        ],
        input_scale: 1.0,
        cfg: QuantConfig::new(3, 3),
    };
    let spec = ModelSpec {
        name: "tiny",
        layers: vec![
            SpecLayer {
                conv: ConvShape {
                    hw: 5,
                    c_in: 1,
                    c_out: 1,
                    k: 3,
                    stride: 1,
                    padding: 0,
                },
                act: NonLinear::Activation,
            },
            SpecLayer {
                conv: ConvShape {
                    hw: 1,
                    c_in: 9,
                    c_out: 2,
                    k: 1,
                    stride: 1,
                    padding: 0,
                },
                act: NonLinear::None,
            },
        ],
    };
    (model, spec)
}

#[test]
fn engine_op_mix_matches_trace_structure() {
    let (model, spec) = tiny_model_and_spec();
    // Run the tiny model through the real engine at reduced parameters.
    let engine = AthenaEngine::new(BfvParams::test_small());
    let mut sampler = Sampler::from_seed(808);
    let (secrets, keys) = engine.keygen(&mut sampler);
    let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| (i % 3) - 1).collect());
    let enc = run_encrypted(&engine, &secrets, &keys, &model, &input, &mut sampler);

    // Trace the matching spec at the *engine's* parameters.
    let params = TraceParams {
        n: engine.context().n(),
        limbs: engine.context().q_basis().len(),
        t: engine.context().t(),
        lwe_n: engine.context().params().lwe_n,
    };
    let trace = trace_model(&spec, &params, &QuantConfig::new(3, 3));

    // Structural consistency: one FBS pass (the FC layer's act is the
    // output), one S2C, one pack — trace's activation phase is non-empty
    // for exactly one layer.
    assert_eq!(enc.stats.fbs_calls, 1);
    assert_eq!(enc.stats.s2c_calls, 1);
    assert_eq!(enc.stats.packs, 1);
    let act_layers = trace
        .layers
        .iter()
        .filter(|l| l.phases.iter().any(|(p, _)| *p == Phase::Activation))
        .count();
    assert_eq!(act_layers, 1, "one activation layer in the trace too");

    // Magnitude ranking: SMult dominates CMult in both views (Alg. 2's
    // t vs 2√t), and extraction counts are within the same order.
    let totals: OpCounts = trace.total();
    assert!(totals.smult > totals.cmult);
    assert!(enc.stats.fbs.smult > enc.stats.fbs.cmult);
    // Engine extracts the valid conv outputs (9) + FC logits (2); the trace
    // charges the layer outputs likewise.
    assert!(enc.stats.extracts >= 11);
    assert!(totals.sample_extract >= 11);
}

#[test]
fn trace_fbs_op_counts_match_engine_fbs_counts() {
    // The BSGS structure of Alg. 2 must produce a CMult count in the engine
    // (measured) that matches the baby/giant decomposition at the engine's t.
    let (model, _) = tiny_model_and_spec();
    let engine = AthenaEngine::new(BfvParams::test_small());
    let mut sampler = Sampler::from_seed(809);
    let (secrets, keys) = engine.keygen(&mut sampler);
    let input = ITensor::from_vec(&[1, 5, 5], vec![1; 25]);
    let enc = run_encrypted(&engine, &secrets, &keys, &model, &input, &mut sampler);
    let t = engine.context().t();
    let bs = (t as f64).sqrt().ceil() as usize;
    let gs = (t as usize).div_ceil(bs);
    // One FBS pass per Alg. 2: baby powers x^2..x^bs (bs − 1), the
    // squarings X², X⁴, … of X = x^bs (⌈log₂ gs⌉ − 1), and one product
    // per node of the balanced outer tree over the gs leaves (gs − 1) —
    // about 2·√t at log depth (see DESIGN.md §7 "FBS depth").
    let expected = (bs - 1) + (gs.next_power_of_two().ilog2() as usize - 1) + (gs - 1);
    assert_eq!(
        enc.stats.fbs.cmult, expected,
        "engine cmult {} vs the tree's {expected}",
        enc.stats.fbs.cmult
    );
    assert!(
        enc.stats.fbs.smult <= t as usize,
        "engine smult {} exceeds t = {t}",
        enc.stats.fbs.smult
    );
}
