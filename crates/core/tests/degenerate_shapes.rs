//! Degenerate-shape coverage: 1×1 convolutions (with and without
//! padding), output-channel counts that do not divide the packing group
//! split, single-layer models, and non-square inputs — each run through
//! the differential oracles (plain reference, plan sim, real encryption
//! at reduced parameters) via the fuzz harness — and zero-channel layers,
//! which compilation refuses.

use athena_core::fuzz::{run_case, CaseParams, FuzzCase, OracleCtx};
use athena_core::pipeline::{AthenaEngine, PackingMethod};
use athena_core::plan::{try_compile, CompileError};
use athena_fhe::params::BfvParams;
use athena_nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QuantConfig};
use athena_nn::tensor::ITensor;

fn params(packing: PackingMethod) -> CaseParams {
    CaseParams {
        n: 64,
        lwe_n: 16,
        ks_base_log: 4,
        packing,
    }
}

fn conv(
    weight: ITensor,
    bias: Vec<i64>,
    stride: usize,
    padding: usize,
    act: Activation,
    input: usize,
) -> QNode {
    QNode {
        op: QOp::Linear(QLinear {
            weight,
            bias,
            stride,
            padding,
            is_fc: false,
            act,
            in_scale: 0.5,
            w_scale: 0.5,
            out_scale: 1.0,
        }),
        input,
        skip: None,
    }
}

fn check(name: &str, model: QModel, input: ITensor, packing: PackingMethod) {
    check_at(name, params(packing), model, input);
}

fn check_at(name: &str, params: CaseParams, model: QModel, input: ITensor) {
    let packing = params.packing;
    let case = FuzzCase {
        seed: 0,
        params,
        model,
        input,
    };
    let mut ctx = OracleCtx::new();
    if let Err(failure) = run_case(&mut ctx, &case, true) {
        panic!("{name} ({packing:?}): {failure}");
    }
}

/// A 1×1 convolution is a pure per-pixel channel mix; the coefficient
/// encoding degenerates to kernel taps with no spatial extent.
#[test]
fn one_by_one_conv_all_oracles() {
    for packing in [PackingMethod::Column, PackingMethod::Bsgs] {
        let model = QModel {
            nodes: vec![
                conv(
                    ITensor::from_vec(&[2, 2, 1, 1], vec![1, -2, 2, 1]),
                    vec![1, -1],
                    1,
                    0,
                    Activation::ReLU,
                    0,
                ),
                conv(
                    ITensor::from_vec(&[1, 2, 1, 1], vec![2, -1]),
                    vec![0],
                    1,
                    0,
                    Activation::Identity,
                    1,
                ),
            ],
            input_scale: 0.5,
            cfg: QuantConfig::new(3, 3),
        };
        let input = ITensor::from_vec(&[2, 3, 3], (0..18).map(|i| (i % 5) - 2).collect());
        check("1x1 conv chain", model, input, packing);
    }
}

/// A 1×1 kernel with padding 1: every border output sees only the
/// zero-padding, so the layer *grows* the spatial extent — a planner
/// layout edge case.
#[test]
fn one_by_one_conv_with_padding_grows_output() {
    let model = QModel {
        nodes: vec![conv(
            ITensor::from_vec(&[1, 1, 1, 1], vec![2]),
            vec![1],
            1,
            1,
            Activation::Identity,
            0,
        )],
        input_scale: 1.0,
        cfg: QuantConfig::new(3, 3),
    };
    // Reference: output is 5×5 with the 3×3 input centered.
    let input = ITensor::from_vec(&[1, 3, 3], (0..9).map(|i| (i % 3) - 1).collect());
    let logits = model.forward(&input);
    assert_eq!(logits.len(), 25, "padding must grow 3×3 to 5×5");
    check("1x1 conv pad 1", model, input, PackingMethod::Column);
}

/// `c_out = 3` at a ring degree where only 2 output channels fit per
/// group: the planner must split 2 + 1 (non-dividing), and the tail
/// group's partial fill must still place every output and bias.
#[test]
fn non_dividing_output_channel_split() {
    for packing in [PackingMethod::Column, PackingMethod::Bsgs] {
        let w: Vec<i64> = (0..3)
            .flat_map(|co| vec![1 + co as i64, -1, 0, 2])
            .collect();
        let model = QModel {
            nodes: vec![conv(
                ITensor::from_vec(&[3, 1, 2, 2], w.clone()),
                vec![1, 0, -2],
                1,
                0,
                Activation::Identity,
                0,
            )],
            input_scale: 0.5,
            cfg: QuantConfig::new(3, 3),
        };
        // n = 64, input 5×5 (hw = 25): co_g = 3 needs 25·2 + 2·5+1 + 25 > 64,
        // so the planner halves to co_g = 2 → groups of 2 and 1.
        let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| (i % 5) - 2).collect());
        check("non-dividing channel split", model, input, packing);
    }
}

/// Single-node models: one conv, one FC — the plan has exactly one
/// linear layer ending in `Output`, no FBS chain at all.
#[test]
fn single_layer_models_all_oracles() {
    let conv_model = QModel {
        nodes: vec![conv(
            ITensor::from_vec(&[2, 1, 2, 2], vec![1, -1, 2, 0, -2, 1, 1, 1]),
            vec![0, 3],
            1,
            0,
            Activation::Identity,
            0,
        )],
        input_scale: 1.0,
        cfg: QuantConfig::new(3, 3),
    };
    let input = ITensor::from_vec(&[1, 4, 4], (0..16).map(|i| (i % 4) - 1).collect());
    check("single conv", conv_model, input, PackingMethod::Column);

    let fc_model = QModel {
        nodes: vec![QNode {
            op: QOp::Linear(QLinear {
                weight: ITensor::from_vec(&[2, 9, 1, 1], (0..18).map(|i| (i % 3) - 1).collect()),
                bias: vec![1, -1],
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
    let input = ITensor::from_vec(&[1, 3, 3], (0..9).map(|i| (i % 3) - 1).collect());
    check("single fc", fc_model, input, PackingMethod::Bsgs);
}

/// Stride 2 over an even extent leaves a dangling input column/row
/// (5 = 2·2+1 taps at positions 0, 2 — position 4 unused by row 3);
/// the planner's position mapping must skip it exactly like the
/// reference.
#[test]
fn stride_two_with_dangling_tail() {
    let model = QModel {
        nodes: vec![conv(
            ITensor::from_vec(&[1, 1, 2, 2], vec![1, -1, -1, 1]),
            vec![0],
            2,
            0,
            Activation::Identity,
            0,
        )],
        input_scale: 1.0,
        cfg: QuantConfig::new(3, 3),
    };
    let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| (i % 3) - 1).collect());
    assert_eq!(model.forward(&input).len(), 4, "stride-2 5×5 → 2×2");
    check(
        "stride-2 dangling tail",
        model,
        input,
        PackingMethod::Column,
    );
}

/// Non-square inputs: Eq. 1's row stride is the padded *width*, and the
/// output extent is `oh × ow`. Conv(3×3, pad 1, 1→2, ReLU) → FC on
/// 4×6 and 3×5 (once miscompiled into wrong logits), 6×4 (once refused
/// as too large for the ring), and a stride-2 5×7 whose two output
/// channels only fit the ring one per group.
#[test]
fn non_square_conv_then_fc_all_oracles() {
    for (h, w, stride) in [(4, 6, 1), (3, 5, 1), (6, 4, 1), (5, 7, 2)] {
        let (oh, ow) = ((h - 1) / stride + 1, (w - 1) / stride + 1);
        let flat = 2 * oh * ow;
        let fc = QNode {
            op: QOp::Linear(QLinear {
                weight: ITensor::from_vec(
                    &[2, flat, 1, 1],
                    (0..2 * flat as i64)
                        .map(|i| [1, 0, -1, 0][i as usize % 4])
                        .collect(),
                ),
                bias: vec![0, 1],
                stride: 1,
                padding: 0,
                is_fc: true,
                act: Activation::Identity,
                in_scale: 0.5,
                w_scale: 0.5,
                out_scale: 1.0,
            }),
            input: 1,
            skip: None,
        };
        let model = QModel {
            nodes: vec![
                conv(
                    ITensor::from_vec(&[2, 1, 3, 3], (0..18).map(|i| (i % 5) - 2).collect()),
                    vec![1, -1],
                    stride,
                    1,
                    Activation::ReLU,
                    0,
                ),
                fc,
            ],
            input_scale: 0.5,
            cfg: QuantConfig::new(3, 3),
        };
        let input = ITensor::from_vec(
            &[1, h, w],
            (0..(h * w) as i64).map(|i| (i % 5) - 2).collect(),
        );
        assert_eq!(model.forward(&input).len(), 2);
        for packing in [PackingMethod::Column, PackingMethod::Bsgs] {
            let params = CaseParams {
                n: 128,
                lwe_n: 32,
                ks_base_log: 4,
                packing,
            };
            check_at(
                &format!("conv {h}×{w} stride {stride} → fc"),
                params,
                model.clone(),
                input.clone(),
            );
        }
    }
}

/// A linear layer with no output or no input channels is a typed
/// `ZeroDim` refusal, not an arithmetic overflow in the fit rule.
#[test]
fn zero_channel_layers_are_refused() {
    let engine = AthenaEngine::new(BfvParams::test_small());
    for (c_out, c_in, input_shape) in [(0, 1, [1, 4, 4]), (1, 0, [0, 4, 4])] {
        let model = QModel {
            nodes: vec![conv(
                ITensor::from_vec(&[c_out, c_in, 3, 3], vec![]),
                vec![0; c_out],
                1,
                0,
                Activation::Identity,
                0,
            )],
            input_scale: 1.0,
            cfg: QuantConfig::new(3, 3),
        };
        assert_eq!(
            try_compile(&engine, &model, &input_shape).err(),
            Some(CompileError::ZeroDim { node: 0 }),
            "c_out {c_out}, c_in {c_in}"
        );
    }
}
