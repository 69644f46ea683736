//! The execution-plan report: compiles a small reference model into the
//! typed plan IR, prints the step program, validates the plan's analytic
//! per-step op counts against counter-measured counts from a real encrypted
//! run, and accounts the Galois-key dedup (one merged key set sized from
//! the plan vs per-consumer sets).
//!
//! Writes `reports/plan.txt`.

use athena_bench::render_table;
use athena_core::pipeline::{AthenaEngine, PackingMethod};
use athena_core::plan;
use athena_core::trace::OpCounts;
use athena_fhe::pack::BsgsPackingKey;
use athena_fhe::params::BfvParams;
use athena_math::sampler::Sampler;
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

fn fmt_counts(c: &OpCounts) -> String {
    let mut parts = Vec::new();
    for (v, name) in [
        (c.pmult, "pm"),
        (c.cmult, "cm"),
        (c.smult, "sm"),
        (c.hadd, "ha"),
        (c.hrot, "hr"),
        (c.sample_extract, "se"),
        (c.mod_switch, "ms"),
    ] {
        if v != 0 {
            parts.push(format!("{name}:{v}"));
        }
    }
    if parts.is_empty() {
        "-".into()
    } else {
        parts.join(" ")
    }
}

fn main() {
    let model = reference_model();
    let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| ((i % 5) as i64) - 2).collect());
    let mut out = String::new();
    out.push_str("Execution-plan IR: step program, analytic-vs-measured op counts,\n");
    out.push_str("and plan-driven Galois dedup (params: test_small)\n");
    out.push_str(
        "counts: pm=PMult cm=CMult sm=SMult ha=HAdd hr=HRot se=SampleExtract ms=ModSwitch\n",
    );

    for method in [PackingMethod::Column, PackingMethod::Bsgs] {
        let engine = AthenaEngine::with_packing(BfvParams::test_small(), method);
        let ctx = engine.context();
        let compiled = plan::compile(&engine, &model, input.shape());
        let mut sampler = Sampler::from_seed(777);
        let (secrets, keys) = engine.keygen_for_plan(&compiled, &mut sampler);
        let run = plan::execute(&engine, &secrets, &keys, &compiled, &input, &mut sampler);

        out.push_str(&format!(
            "\n== packing: {method:?} — {} layers, {} steps ==\n\n",
            compiled.layers.len(),
            compiled.step_count()
        ));

        // Per-step analytic vs measured.
        let rows: Vec<Vec<String>> = run
            .steps
            .iter()
            .map(|s| {
                vec![
                    format!("{}.{}", s.node, s.step),
                    s.label.to_string(),
                    s.phase.name().to_string(),
                    fmt_counts(&s.analytic),
                    fmt_counts(&s.measured),
                    if s.analytic == s.measured { "=" } else { "!" }.to_string(),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["step", "op", "phase", "analytic", "measured", "ok"],
            &rows,
        ));
        let mismatches = run
            .steps
            .iter()
            .filter(|s| s.analytic != s.measured)
            .count();
        let (a_tot, m_tot) = run.steps.iter().fold(
            (OpCounts::default(), OpCounts::default()),
            |(mut a, mut m), s| {
                a.add(&s.analytic);
                m.add(&s.measured);
                (a, m)
            },
        );
        out.push_str(&format!(
            "\ntotal analytic: {}\ntotal measured: {}\nmismatching steps: {mismatches}\n",
            fmt_counts(&a_tot),
            fmt_counts(&m_tot)
        ));
        out.push_str(&format!(
            "logits: {:?}\n",
            run.logits.iter().map(|v| *v as f32).collect::<Vec<_>>()
        ));

        // Galois dedup accounting: per-consumer sets vs the merged plan set.
        let ks = ctx.params().keyswitch_key_bytes();
        let s2c = engine.slot_to_coeff().required_galois_elements();
        let bsgs = match method {
            PackingMethod::Bsgs => {
                BsgsPackingKey::required_galois_elements_for(ctx, ctx.params().lwe_n)
            }
            PackingMethod::Column => Vec::new(),
        };
        let merged = &compiled.required_keys().galois;
        let separate = s2c.len() + bsgs.len();
        out.push_str(&format!(
            "\ngalois elements: s2c {} + bsgs {} = {} per-consumer; merged {} \
             (saved {} keys, {} bytes)\n",
            s2c.len(),
            bsgs.len(),
            separate,
            merged.len(),
            separate - merged.len(),
            (separate - merged.len()) * ks
        ));
        out.push_str(&format!(
            "eval-key bytes: {} (merged) vs {} (per-consumer sets)\n",
            keys.bytes(ctx),
            keys.bytes(ctx) + (separate - merged.len()) * ks
        ));
    }

    print!("{out}");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports");
    let path = dir.join("plan.txt");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &out)) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}
