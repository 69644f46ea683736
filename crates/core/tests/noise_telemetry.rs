//! Plan-derived noise accounting vs the measured invariant-noise budget.
//!
//! Mirrors `plan_counts.rs` for the noise dimension: the plan compiler
//! attaches an analytic Table-4 noise charge (`PlanStep::noise_bits`) to
//! every step, and the executor's probe mode samples the real
//! `BfvEvaluator::noise_budget` after every RLWE-producing step. This file
//! pins the contract between the two:
//!
//! * `analytic charge ≥ measured consumption` for every probed step, on
//!   both packing engines and across pooling and residual models — the
//!   analytic model is a true upper bound, never an underestimate;
//! * budgets decrease monotonically along every RLWE chain (fresh input →
//!   linear; pack → FBS → S2C → next linear);
//! * exhaustion is a typed `NoiseExhausted` error, not garbage logits:
//!   deliberately undersized parameters make a probed run fail at the
//!   step where the budget dies;
//! * probing changes nothing: logits are bit-identical with the probe on
//!   or off (the probe performs no homomorphic ops and no sampler draws).
//!
//! The probe reads `op-stats`-free code paths only, but the executor still
//! measures global counters around each step, so tests serialize on the
//! same counter mutex pattern as `plan_counts.rs`.

use std::sync::Mutex;

use athena_core::pipeline::{AthenaEngine, PackingMethod};
use athena_core::plan::{self, AthenaError, RunPolicy, StepReport};
use athena_fhe::params::BfvParams;
use athena_math::sampler::Sampler;
use athena_nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QuantConfig};
use athena_nn::tensor::ITensor;

static COUNTER_GUARD: Mutex<()> = Mutex::new(());

fn linear_node(
    shape: &[usize],
    w: Vec<i64>,
    bias: Vec<i64>,
    is_fc: bool,
    input: usize,
    skip: Option<(usize, i64)>,
) -> QNode {
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
        skip,
    }
}

/// conv 1→2 3×3 on 5×5 + FC 18→3 (the tier-1 reference shape).
fn conv_model() -> QModel {
    let conv_w: Vec<i64> = (0..2 * 9).map(|i| ((i % 5) as i64) - 2).collect();
    let fc_w: Vec<i64> = (0..3 * 18).map(|i| ((i % 3) as i64) - 1).collect();
    QModel {
        nodes: vec![
            linear_node(&[2, 1, 3, 3], conv_w, vec![1, -2], false, 0, None),
            linear_node(&[3, 18, 1, 1], fc_w, vec![0, 1, -1], true, 1, None),
        ],
        input_scale: 0.5,
        cfg: QuantConfig::new(3, 3),
    }
}

/// conv 1→2 3×3 on 5×5 + MaxPool 2 (on 3×3 → 1×1... use 4×4 conv out) —
/// conv on 6×6 gives 4×4, pooled to 2×2 — then FC 8→2.
fn pool_model() -> QModel {
    let conv_w: Vec<i64> = (0..2 * 9).map(|i| ((i % 3) as i64) - 1).collect();
    let fc_w: Vec<i64> = (0..2 * 8).map(|i| ((i % 3) as i64) - 1).collect();
    QModel {
        nodes: vec![
            linear_node(&[2, 1, 3, 3], conv_w, vec![1, 0], false, 0, None),
            QNode {
                op: QOp::MaxPool { k: 2 },
                input: 1,
                skip: None,
            },
            linear_node(&[2, 8, 1, 1], fc_w, vec![0, 0], true, 2, None),
        ],
        input_scale: 0.5,
        cfg: QuantConfig::new(3, 3),
    }
}

/// Two padded 1→1 convs (shape-preserving, as residual blocks are) with a
/// skip from the first activation into the second linear layer, then FC.
fn residual_model() -> QModel {
    let c1: Vec<i64> = vec![1, 0, -1, 0, 1, 0, -1, 0, 1];
    let c2: Vec<i64> = vec![0, 1, 0, 1, -1, 1, 0, 1, 0];
    let fc_w: Vec<i64> = (0..3 * 25).map(|i| ((i % 3) as i64) - 1).collect();
    let mut conv1 = linear_node(&[1, 1, 3, 3], c1, vec![1], false, 0, None);
    let mut conv2 = linear_node(&[1, 1, 3, 3], c2, vec![0], false, 1, Some((1, 1)));
    for node in [&mut conv1, &mut conv2] {
        if let QOp::Linear(l) = &mut node.op {
            l.padding = 1;
        }
    }
    QModel {
        nodes: vec![
            conv1,
            conv2,
            linear_node(&[3, 25, 1, 1], fc_w, vec![1, 0, -1], true, 2, None),
        ],
        input_scale: 0.5,
        cfg: QuantConfig::new(3, 3),
    }
}

fn run_probed(
    model: &QModel,
    in_shape: &[usize],
    method: PackingMethod,
    seed: u64,
) -> plan::PlanRun {
    let len: usize = in_shape.iter().product();
    let input = ITensor::from_vec(in_shape, (0..len).map(|i| ((i % 5) as i64) - 2).collect());
    let engine = AthenaEngine::with_packing(BfvParams::test_small(), method);
    let compiled = plan::compile(&engine, model, in_shape);
    let mut sampler = Sampler::from_seed(seed);
    let (secrets, keys) = engine.keygen_for_plan(&compiled, &mut sampler);
    plan::execute_resilient(
        &engine,
        &secrets,
        &keys,
        &compiled,
        &input,
        &mut sampler,
        &RunPolicy::default().with_probe(),
        1,
        None,
    )
    .expect("test_small has ample budget")
}

fn assert_telemetry_contract(run: &plan::PlanRun, tag: &str) {
    let fresh = run.fresh_budget.expect("probe records fresh budget");
    assert!(fresh > 0, "{tag}: fresh budget must be positive");
    let probed: Vec<&StepReport> = run
        .steps
        .iter()
        .filter(|s| s.noise_budget.is_some())
        .collect();
    assert!(!probed.is_empty(), "{tag}: no step was probed");
    for s in &run.steps {
        let rlwe_step = matches!(s.label, "linear" | "pack" | "fbs" | "s2c");
        assert_eq!(
            s.noise_budget.is_some(),
            rlwe_step,
            "{tag}: node {} step {} ({}): probe presence wrong",
            s.node,
            s.step,
            s.label
        );
        if let (Some(b), Some(c)) = (s.noise_budget, s.noise_consumed) {
            assert!(
                b > 0,
                "{tag}: node {} step {} ({}): budget exhausted ({b})",
                s.node,
                s.step,
                s.label
            );
            assert!(
                c >= 0,
                "{tag}: node {} step {} ({}): budget grew ({c} consumed)",
                s.node,
                s.step,
                s.label
            );
            assert!(
                i64::from(s.noise_bits) >= c,
                "{tag}: node {} step {} ({}): analytic charge {} < measured consumption {c}",
                s.node,
                s.step,
                s.label,
                s.noise_bits
            );
        }
        if s.noise_budget.is_some() {
            assert!(
                s.noise_bits > 0,
                "{tag}: RLWE step {} charges no noise",
                s.label
            );
            assert!(
                s.noise_consumed.is_some(),
                "{tag}: probed step {} has no consumption baseline",
                s.label
            );
        }
    }
    // Chain monotonicity: every probed budget sits strictly below the
    // fresh baseline, and pack → fbs → s2c budgets never grow along the
    // chain (the bit measure is coarse, so equality is legitimate — e.g.
    // two consecutive outputs both pinned to the key-switch noise floor).
    for s in &probed {
        assert!(
            s.noise_budget.unwrap() < fresh,
            "{tag}: step {} budget did not decrease from fresh",
            s.label
        );
    }
    let mut chain_prev: Option<i64> = None;
    for s in &run.steps {
        match s.label {
            "pack" => chain_prev = s.noise_budget,
            "fbs" | "s2c" => {
                if let (Some(prev), Some(b)) = (chain_prev, s.noise_budget) {
                    assert!(
                        b <= prev,
                        "{tag}: {} budget {b} grew along the chain ({prev})",
                        s.label
                    );
                    chain_prev = Some(b);
                }
            }
            _ => {}
        }
    }
}

/// The central pin: for every step of every test-model plan, on both
/// packing engines, pooling and residual included, the analytic Table-4
/// charge bounds the measured consumption and budgets shrink
/// monotonically along each RLWE chain.
#[test]
fn analytic_noise_charge_covers_measured_consumption() {
    let _lock = COUNTER_GUARD.lock().unwrap();
    for method in [PackingMethod::Column, PackingMethod::Bsgs] {
        let run = run_probed(&conv_model(), &[1, 5, 5], method, 5_050);
        assert_telemetry_contract(&run, &format!("conv/{method:?}"));
        let run = run_probed(&pool_model(), &[1, 6, 6], method, 5_051);
        assert_telemetry_contract(&run, &format!("pool/{method:?}"));
        let run = run_probed(&residual_model(), &[1, 5, 5], method, 5_052);
        assert_telemetry_contract(&run, &format!("residual/{method:?}"));
    }
}

/// Probing is observation only: logits bit-identical with the probe on or
/// off, and the probed run's reports carry exactly the plan's charges.
#[test]
fn probe_mode_is_pure_observation() {
    let _lock = COUNTER_GUARD.lock().unwrap();
    let model = conv_model();
    let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| ((i % 5) as i64) - 2).collect());
    let engine = AthenaEngine::new(BfvParams::test_small());
    let compiled = plan::compile(&engine, &model, input.shape());

    let mut s1 = Sampler::from_seed(6_060);
    let (sec1, keys1) = engine.keygen_for_plan(&compiled, &mut s1);
    let plain = plan::execute(&engine, &sec1, &keys1, &compiled, &input, &mut s1);

    let mut s2 = Sampler::from_seed(6_060);
    let (sec2, keys2) = engine.keygen_for_plan(&compiled, &mut s2);
    let probed = plan::execute_resilient(
        &engine,
        &sec2,
        &keys2,
        &compiled,
        &input,
        &mut s2,
        &RunPolicy::default().with_probe(),
        1,
        None,
    )
    .expect("ample budget");

    assert_eq!(plain.logits, probed.logits, "probe changed the arithmetic");
    assert!(plain.fresh_budget.is_none() && plain.steps.iter().all(|s| s.noise_budget.is_none()));
    let plan_charges: Vec<u32> = compiled
        .layers
        .iter()
        .flat_map(|l| l.steps.iter().map(|s| s.noise_bits))
        .collect();
    let report_charges: Vec<u32> = probed.steps.iter().map(|s| s.noise_bits).collect();
    assert_eq!(plan_charges, report_charges);
}

/// Exhaustion is typed, not silent: with a deliberately tiny modulus chain
/// (two 50-bit limbs — far below what the FBS depth needs) the probed run
/// must return `NoiseExhausted` at the step whose output died, instead of
/// completing and decrypting garbage.
#[test]
fn exhaustion_surfaces_as_typed_error() {
    let _lock = COUNTER_GUARD.lock().unwrap();
    let params = BfvParams {
        q_primes: athena_math::prime::ntt_primes(50, 128, 2),
        ..BfvParams::test_small()
    };
    params.validate();
    let model = conv_model();
    let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| ((i % 5) as i64) - 2).collect());
    let engine = AthenaEngine::new(params);
    let compiled = plan::compile(&engine, &model, input.shape());
    let mut sampler = Sampler::from_seed(7_070);
    let (secrets, keys) = engine.keygen_for_plan(&compiled, &mut sampler);
    let err = match plan::execute_resilient(
        &engine,
        &secrets,
        &keys,
        &compiled,
        &input,
        &mut sampler,
        &RunPolicy::default().with_probe(),
        1,
        None,
    ) {
        Err(AthenaError::NoiseExhausted(err)) => err,
        other => panic!("100-bit Q cannot survive a depth-9 FBS, got {other:?}"),
    };
    assert!(
        err.budget <= 0,
        "exhaustion error carries a positive budget: {err}"
    );
    // The FBS chain is where the depth lives; the budget must die inside
    // the RLWE tail, not at a step that cannot even be probed.
    assert!(
        matches!(err.label, "pack" | "fbs" | "s2c" | "linear"),
        "exhaustion at unprobeable step: {err}"
    );
    let msg = err.to_string();
    assert!(msg.contains("noise budget exhausted"), "display: {msg}");
    // Ergonomics: the error carries the analytic-vs-measured gap when the
    // dying step had a measured consumption.
    if let Some(gap) = err.budget_gap() {
        let consumed = err.consumed.expect("gap implies a measurement");
        assert_eq!(gap, i64::from(err.analytic_bits) - consumed);
    }
}

/// The compile-time guardrail: an engine with a noise margin rejects a
/// plan whose worst analytic chain cannot fit the parameter headroom,
/// returning the typed [`plan::CompileError::NoiseBudget`] before any key
/// or ciphertext work. The guardrail is opt-in (default `None`) because
/// the analytic chain charge is deliberately conservative — the default
/// engine must keep compiling models whose real runs fit fine.
#[test]
fn noise_margin_guardrail_rejects_at_compile_time() {
    let model = conv_model();
    let engine = AthenaEngine::new(BfvParams::test_small());
    plan::try_compile(&engine, &model, &[1, 5, 5]).expect("guardrail is opt-in");

    let engine = AthenaEngine::new(BfvParams::test_small()).with_noise_margin(Some(10_000));
    let err = plan::try_compile(&engine, &model, &[1, 5, 5])
        .expect_err("a 10k-bit margin cannot fit any parameter set");
    match err {
        plan::CompileError::NoiseBudget {
            chain_bits,
            budget_bits,
            margin,
        } => {
            assert_eq!(margin, 10_000);
            assert!(budget_bits > 0, "headroom must be reported");
            assert!(
                chain_bits.saturating_add(margin) > budget_bits,
                "rejection arithmetic must hold: {chain_bits} + {margin} vs {budget_bits}"
            );
        }
        other => panic!("expected NoiseBudget, got {other:?}"),
    }
}
