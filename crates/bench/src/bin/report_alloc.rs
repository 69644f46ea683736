//! Allocation telemetry of the plan executor: the limb buffers
//! (`athena_math::stats::alloc_stats`) one encrypted run of the reference
//! model allocates, per step and in total.
//!
//! Writes `reports/alloc.txt`. The counts are determined by the executed
//! ops, so they are the same at any thread count: CI regenerates this file
//! in both `ATHENA_THREADS` legs and fails on any diff against the
//! committed copy.

use athena_bench::render_table;
use athena_core::pipeline::AthenaEngine;
use athena_core::plan;
use athena_fhe::params::BfvParams;
use athena_math::sampler::Sampler;
use athena_math::stats::alloc_stats;
use athena_nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QuantConfig};
use athena_nn::tensor::ITensor;

/// The reference model: conv 1→2 3×3 on 5×5 (bias), then FC 18→3 (bias) —
/// the same shape the tier-1 inference tests pin.
fn reference_model() -> QModel {
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

fn main() {
    let model = reference_model();
    let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| ((i % 5) as i64) - 2).collect());
    let engine = AthenaEngine::new(BfvParams::test_small());
    let compiled = plan::compile(&engine, &model, input.shape());
    let mut sampler = Sampler::from_seed(777);
    let (secrets, keys) = engine.keygen_for_plan(&compiled, &mut sampler);
    let (run, counts) = alloc_stats::measure(|| {
        plan::execute(&engine, &secrets, &keys, &compiled, &input, &mut sampler)
    });

    let mut out = String::new();
    out.push_str("Limb-buffer allocations per plan step (params: test_small)\n");
    out.push_str(
        "Every `Poly` built or cloned counts once. The counts are determined\n\
         by the executed ops, so they are the same at any thread count.\n\n",
    );
    let rows: Vec<Vec<String>> = run
        .steps
        .iter()
        .map(|s| {
            vec![
                format!("{}.{}", s.node, s.step),
                s.label.to_string(),
                s.phase.name().to_string(),
                s.alloc.takes.to_string(),
            ]
        })
        .collect();
    out.push_str(&render_table(&["step", "op", "phase", "limbs"], &rows));
    let step_takes: u64 = run.steps.iter().map(|s| s.alloc.takes).sum();
    out.push_str(&format!(
        "\nstep total {step_takes}, whole run {} \
         (input encryption accounts for the remainder)\n",
        counts.takes
    ));

    print!("{out}");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports");
    let path = dir.join("alloc.txt");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &out)) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}
