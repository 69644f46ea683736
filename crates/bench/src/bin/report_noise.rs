//! The noise-accounting report: regenerates Table 4 from the derived
//! per-step model (and checks it against the frozen paper fixture
//! bit-for-bit), then cross-validates the plan compiler's analytic
//! per-step noise charges against measured invariant-noise budgets from
//! probed encrypted runs at test parameters, on both packing engines.
//!
//! Writes `reports/noise.txt`. The output is deterministic (seeded
//! samplers, exact modular arithmetic) and thread-count invariant, so CI
//! diffs it against the committed copy.

use athena_bench::render_table;
use athena_core::pipeline::{AthenaEngine, PackingMethod};
use athena_core::plan::{self, RunPolicy};
use athena_fhe::noise::{athena_steps, derive_steps, NoiseModel, StepProfile};
use athena_fhe::params::BfvParams;
use athena_math::sampler::Sampler;
use athena_nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QuantConfig};
use athena_nn::tensor::ITensor;

fn linear_node(shape: &[usize], w: Vec<i64>, bias: Vec<i64>, is_fc: bool, input: usize) -> QNode {
    QNode {
        op: QOp::Linear(QLinear {
            weight: ITensor::from_vec(shape, w),
            bias,
            stride: 1,
            padding: 0,
            is_fc,
            act: if is_fc {
                Activation::Identity
            } else {
                Activation::ReLU
            },
            in_scale: 0.5,
            w_scale: 0.5,
            out_scale: 1.0,
        }),
        input,
        skip: None,
    }
}

/// conv 1→2 3×3 on 5×5 + FC 18→3 — the tier-1 reference shape.
fn conv_model() -> QModel {
    let conv_w: Vec<i64> = (0..2 * 9).map(|i| ((i % 5) as i64) - 2).collect();
    let fc_w: Vec<i64> = (0..3 * 18).map(|i| ((i % 3) as i64) - 1).collect();
    QModel {
        nodes: vec![
            linear_node(&[2, 1, 3, 3], conv_w, vec![1, -2], false, 0),
            linear_node(&[3, 18, 1, 1], fc_w, vec![0, 1, -1], true, 1),
        ],
        input_scale: 0.5,
        cfg: QuantConfig::new(3, 3),
    }
}

/// conv 1→2 3×3 on 6×6 + MaxPool 2 + FC 8→2 — exercises the pooling
/// composite's worst-chain charge.
fn pool_model() -> QModel {
    let conv_w: Vec<i64> = (0..2 * 9).map(|i| ((i % 3) as i64) - 1).collect();
    let fc_w: Vec<i64> = (0..2 * 8).map(|i| ((i % 3) as i64) - 1).collect();
    QModel {
        nodes: vec![
            linear_node(&[2, 1, 3, 3], conv_w, vec![1, 0], false, 0),
            QNode {
                op: QOp::MaxPool { k: 2 },
                input: 1,
                skip: None,
            },
            linear_node(&[2, 8, 1, 1], fc_w, vec![0, 0], true, 2),
        ],
        input_scale: 0.5,
        cfg: QuantConfig::new(3, 3),
    }
}

fn production_table(out: &mut String) {
    let m = NoiseModel::athena_production();
    let derived = derive_steps(&StepProfile::athena_production());
    let fixture = athena_steps();
    let mut rows: Vec<Vec<String>> = derived
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                s.pmult.to_string(),
                s.cmult.to_string(),
                s.smult.to_string(),
                s.hadd.to_string(),
                s.noise_bits(&m).to_string(),
            ]
        })
        .collect();
    rows.push(vec![
        "Total".into(),
        derived.iter().map(|s| s.pmult).sum::<u32>().to_string(),
        derived.iter().map(|s| s.cmult).sum::<u32>().to_string(),
        derived.iter().map(|s| s.smult).sum::<u32>().to_string(),
        derived.iter().map(|s| s.hadd).sum::<u32>().to_string(),
        athena_fhe::noise::total_noise_bits(&derived, &m).to_string(),
    ]);
    out.push_str(
        "Table 4, regenerated from the derived per-step model at the production\n\
         profile (C_in=64, lwe_n=2048, t=65537, 2-stage S2C over 64 channels).\n\
         Paper: 37/43/558/68, total 706.\n\n",
    );
    out.push_str(&render_table(
        &[
            "Step",
            "PMult d",
            "CMult d",
            "SMult d",
            "HAdd d",
            "Noise (bits)",
        ],
        &rows,
    ));
    let matches = derived.len() == fixture.len()
        && derived.iter().zip(&fixture).all(|(d, f)| {
            d.name == f.name
                && d.pmult == f.pmult
                && d.cmult == f.cmult
                && d.smult == f.smult
                && d.hadd == f.hadd
        });
    out.push_str(&format!(
        "\nderivation vs frozen paper fixture (athena_steps): {}\n",
        if matches {
            "bit-for-bit match"
        } else {
            "MISMATCH"
        }
    ));
    out.push_str(&format!(
        "headroom: Δ = {} bits, Δ/2 = {} bits\n",
        m.delta_bits(),
        m.headroom_bits()
    ));
    assert!(matches, "derived Table 4 drifted from the frozen fixture");
}

fn probed_section(out: &mut String, name: &str, model: &QModel, in_shape: &[usize], seed: u64) {
    for method in [PackingMethod::Column, PackingMethod::Bsgs] {
        let len: usize = in_shape.iter().product();
        let input = ITensor::from_vec(in_shape, (0..len).map(|i| ((i % 5) as i64) - 2).collect());
        let engine = AthenaEngine::with_packing(BfvParams::test_small(), method);
        let compiled = plan::compile(&engine, model, in_shape);
        let mut sampler = Sampler::from_seed(seed);
        let (secrets, keys) = engine.keygen_for_plan(&compiled, &mut sampler);
        let run = plan::execute_resilient(
            &engine,
            &secrets,
            &keys,
            &compiled,
            &input,
            &mut sampler,
            &RunPolicy::default().with_probe(),
            None,
        )
        .expect("test_small has ample budget for the report models");

        let fresh = run.fresh_budget.expect("probe on");
        out.push_str(&format!(
            "\n== {name} / {method:?} — fresh budget {fresh} bits, \
             worst analytic chain {} bits ==\n\n",
            compiled.worst_chain_noise_bits()
        ));
        let rows: Vec<Vec<String>> = run
            .steps
            .iter()
            .map(|s| {
                let (budget, consumed, margin) = match (s.noise_budget, s.noise_consumed) {
                    (Some(b), Some(c)) => (
                        b.to_string(),
                        c.to_string(),
                        (i64::from(s.noise_bits) - c).to_string(),
                    ),
                    _ => ("-".into(), "-".into(), "-".into()),
                };
                vec![
                    format!("{}.{}", s.node, s.step),
                    s.label.to_string(),
                    s.noise_bits.to_string(),
                    budget,
                    consumed,
                    margin,
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["step", "op", "charge", "budget", "consumed", "margin"],
            &rows,
        ));
        let undercounts = run
            .steps
            .iter()
            .filter(|s| {
                s.noise_consumed
                    .is_some_and(|c| c > i64::from(s.noise_bits))
            })
            .count();
        out.push_str(&format!(
            "\nsteps where measured consumption exceeds the analytic charge: {undercounts}\n"
        ));
        assert_eq!(undercounts, 0, "analytic model undercounted a step");
    }
}

fn main() {
    let mut out = String::new();
    out.push_str(
        "Plan-derived noise accounting: Table 4 from the derived model, and\n\
         analytic per-step charges vs measured invariant-noise budgets from\n\
         probed encrypted runs (params: test_small; charge/budget/consumed in\n\
         bits; margin = charge - consumed, never negative).\n\n",
    );
    production_table(&mut out);
    probed_section(&mut out, "conv", &conv_model(), &[1, 5, 5], 9_090);
    probed_section(&mut out, "pool", &pool_model(), &[1, 6, 6], 9_091);

    print!("{out}");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports");
    let path = dir.join("noise.txt");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &out)) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}
