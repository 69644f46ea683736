//! End-to-end encrypted inference: runs a quantized [`QModel`] through the
//! Athena loop, layer by layer, entirely under FHE.
//!
//! This is a thin compile-then-execute wrapper over [`crate::plan`]: the
//! model is first compiled into a typed [`crate::plan::ExecutionPlan`]
//! (layouts, group splits, LUTs, key requirements, analytic op counts all
//! resolved up front), then interpreted step by step by
//! [`crate::plan::execute`] — every step is exact modular arithmetic and
//! the only sampler draws are the input encryption's. Callers that want
//! typed errors, a deadline or the per-step noise probe compile the plan
//! themselves and call [`crate::plan::execute_resilient`] with a
//! [`crate::plan::RunPolicy`].
//!
//! Layouts: every intermediate value is held as a coefficient-encoded BFV
//! ciphertext whose layout was chosen for its *consumer* — conv consumers
//! get the padded `M̂` layout of Eq. 1, pooling and FC consumers get flat
//! order. Residual skips re-extract LWEs from the stored producer
//! ciphertext, scale-align them, and add them into the consumer's
//! accumulator at the LWE level (exact mod-`t` arithmetic).
//!
//! This module targets the reduced test parameter sets; model shapes must
//! fit a single input-channel group per ciphertext (the plan compiler
//! rejects the rest). Full-scale models — whose layers exceed that limit,
//! so no plan backend can run them — are measured through the
//! model-walking simulator ([`crate::simulate::simulate_inference`]) and
//! the accelerator cost model, as in the paper.

use athena_math::sampler::Sampler;
use athena_nn::qmodel::QModel;
use athena_nn::tensor::ITensor;

use crate::pipeline::{AthenaEngine, AthenaEvalKeys, AthenaSecrets, PipelineStats};
use crate::plan;

/// Result of an encrypted inference.
#[derive(Debug)]
pub struct EncryptedInference {
    /// Decrypted float logits.
    pub logits: Vec<f64>,
    /// Operation statistics.
    pub stats: PipelineStats,
}

impl EncryptedInference {
    /// Predicted class ([`crate::util::argmax`] over the logits, the same
    /// tie-breaking as the simulated and plain-Q paths).
    pub fn predicted(&self) -> usize {
        crate::util::argmax(&self.logits)
    }
}

/// Runs a quantized model under FHE on one quantized input image.
///
/// # Panics
///
/// Panics if a layer does not fit the engine's ring degree in a single
/// input-channel group (use larger parameters or a smaller model).
pub fn run_encrypted(
    engine: &AthenaEngine,
    secrets: &AthenaSecrets,
    keys: &AthenaEvalKeys,
    model: &QModel,
    input: &ITensor,
    sampler: &mut Sampler,
) -> EncryptedInference {
    let compiled = plan::compile(engine, model, input.shape());
    let run = plan::execute(engine, secrets, keys, &compiled, input, sampler);
    EncryptedInference {
        logits: run.logits,
        stats: run.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_fhe::params::BfvParams;
    use athena_nn::qmodel::{Activation, QLinear, QNode, QOp, QuantConfig};

    fn tiny_model() -> QModel {
        // conv 1->2 ch, 3x3 on 5x5 input (valid 3x3), then FC 18 -> 3.
        // Weights small so accumulators stay well inside t = 257.
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

    #[test]
    fn encrypted_inference_matches_integer_reference() {
        let engine = AthenaEngine::new(BfvParams::test_small());
        let mut sampler = Sampler::from_seed(777);
        let (secrets, keys) = engine.keygen(&mut sampler);
        let model = tiny_model();
        let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| ((i % 5) as i64) - 2).collect());
        let reference = model.forward(&input);
        let enc = run_encrypted(&engine, &secrets, &keys, &model, &input, &mut sampler);
        assert_eq!(enc.logits.len(), 3);
        // Logits must be close (noise can shift an accumulator by a few
        // units; scales are 0.5 here).
        for (i, (&g, &w)) in enc.logits.iter().zip(&reference).enumerate() {
            assert!(
                (g - w).abs() <= 16.0,
                "logit {i}: encrypted {g} vs reference {w}"
            );
        }
        // The loop ran once per non-final layer.
        assert_eq!(enc.stats.fbs_calls, 1);
        assert_eq!(enc.stats.s2c_calls, 1);
        assert!(enc.stats.pmult >= 2);
    }

    #[test]
    fn encrypted_inference_with_padding_and_pool() {
        // conv 1->1 3x3 pad 1 on 4x4 (out 4x4), maxpool 2 (out 2x2), FC 4->2.
        let model = QModel {
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
        };
        let engine = AthenaEngine::new(BfvParams::test_small());
        let mut sampler = Sampler::from_seed(778);
        let (secrets, keys) = engine.keygen(&mut sampler);
        let input = ITensor::from_vec(
            &[1, 4, 4],
            vec![1, -2, 3, 0, 2, 1, -1, 2, 0, 3, 1, -2, 1, 0, 2, 1],
        );
        let reference = model.forward(&input);
        let enc = run_encrypted(&engine, &secrets, &keys, &model, &input, &mut sampler);
        for (i, (&g, &w)) in enc.logits.iter().zip(&reference).enumerate() {
            assert!((g - w).abs() <= 20.0, "logit {i}: {g} vs {w}");
        }
        // MaxPool cost: k²−1 = 3 max rounds → 3 extra FBS calls + 1 conv
        // remap + 1 identity bridge after pooling.
        assert!(
            enc.stats.fbs_calls >= 4,
            "fbs calls = {}",
            enc.stats.fbs_calls
        );
    }

    #[test]
    fn residual_skip_under_encryption() {
        // conv1 1->1 3x3 pad1 (ReLU), conv2 1->1 3x3 pad1 with skip from
        // input value (mult 2), FC.
        let idk = |w: Vec<i64>| ITensor::from_vec(&[1, 1, 3, 3], w);
        let model = QModel {
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
        };
        let engine = AthenaEngine::new(BfvParams::test_small());
        let mut sampler = Sampler::from_seed(779);
        let (secrets, keys) = engine.keygen(&mut sampler);
        let input = ITensor::from_vec(&[1, 3, 3], vec![2, -1, 3, 0, 1, -2, 4, 2, 0]);
        let reference = model.forward(&input);
        let enc = run_encrypted(&engine, &secrets, &keys, &model, &input, &mut sampler);
        assert!(
            (enc.logits[0] - reference[0]).abs() <= 30.0,
            "skip model: {} vs {}",
            enc.logits[0],
            reference[0]
        );
    }
}
