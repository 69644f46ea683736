//! Cross-validation of analytic op counts against counter-measured counts.
//!
//! Three independent count models exist for the same computation:
//!
//! 1. the plan compiler's per-step `analytic` counts (schedule dry-runs:
//!    `pack_expected_op_counts`, `expected_stats`, `SlotToCoeff::op_counts`);
//! 2. the `op-stats` counters measured around the executor's real
//!    homomorphic calls;
//! 3. `trace.rs`'s closed-form production cost model (Table 3 constants,
//!    `O(∛N)`-factored S2C, `t_eff` LUTs).
//!
//! (1) and (2) must agree **exactly** — they describe the same schedules.
//! (3) deliberately models a different implementation point (production
//! packing, factored S2C, effective LUT sizes), so this file pins the
//! documented deltas instead: where the models count the same physical
//! quantity (extracted samples, LUT work volume) they must line up; where
//! they diverge (BSGS constants after the PR 3 hoisting rework, S2C
//! factorization) the divergence is bounded and explained.
//!
//! The `op-stats` counters are process-global relaxed atomics; tests that
//! read them serialize on one mutex (same pattern as
//! `crates/fhe/tests/hoisting.rs`).

#![cfg(feature = "op-stats")]

use std::sync::Mutex;

use athena_core::pipeline::{AthenaEngine, PackingMethod};
use athena_core::plan;
use athena_core::trace::{self, OpCounts, TraceParams};
use athena_fhe::params::BfvParams;
use athena_math::sampler::Sampler;
use athena_nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QuantConfig};
use athena_nn::tensor::ITensor;

static COUNTER_GUARD: Mutex<()> = Mutex::new(());

/// Small conv layer + FC head at test parameters.
fn conv_model() -> QModel {
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

/// The central invariant: every step's measured counts equal its analytic
/// counts, for both packing methods. The analytic side is computed at
/// compile time from the schedules (BSGS splits, diagonal occupancy, LUT
/// dry-run); the measured side is counted at the ring-op choke points —
/// two independent code paths.
#[cfg(feature = "op-stats")]
#[test]
fn measured_counts_match_plan_analytic_per_step() {
    let _lock = COUNTER_GUARD.lock().unwrap();
    let model = conv_model();
    let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| ((i % 5) as i64) - 2).collect());
    for method in [PackingMethod::Column, PackingMethod::Bsgs] {
        let engine = AthenaEngine::with_packing(BfvParams::test_small(), method);
        let compiled = plan::compile(&engine, &model, input.shape());
        let mut sampler = Sampler::from_seed(4_040);
        let (secrets, keys) = engine.keygen_for_plan(&compiled, &mut sampler);
        let run = plan::execute(&engine, &secrets, &keys, &compiled, &input, &mut sampler);
        for s in &run.steps {
            assert_eq!(
                s.analytic, s.measured,
                "{method:?} node {} step {} ({}): analytic != measured",
                s.node, s.step, s.label
            );
        }
        // And the derived trace carries exactly the measured totals.
        let tr = compiled.to_trace("conv_model", &model.cfg);
        let mut trace_total = OpCounts::default();
        for (_, c) in tr.phase_totals() {
            trace_total.add(&c);
        }
        let mut measured_total = OpCounts::default();
        for s in &run.steps {
            measured_total.add(&s.measured);
        }
        assert_eq!(
            trace_total, measured_total,
            "{method:?}: to_trace() diverged from the measured run"
        );
    }
}

/// The LUT polynomial is a plan constant: the analytic-count dry run
/// (`expected_stats`) interpolates each FBS step's own `Lut` — the instance
/// stored in the compiled plan, not a dropped clone — so no request does.
#[test]
fn compiled_plan_carries_interpolated_luts() {
    let engine = AthenaEngine::new(BfvParams::test_small());
    let compiled = plan::compile(&engine, &conv_model(), &[1, 5, 5]);
    let luts: Vec<_> = compiled
        .layers
        .iter()
        .flat_map(|l| &l.steps)
        .filter_map(|s| match &s.op {
            plan::StepOp::Fbs { lut } => Some(lut),
            _ => None,
        })
        .collect();
    assert!(!luts.is_empty(), "the model has an activation");
    assert!(luts.iter().all(|lut| lut.is_interpolated()));
}

/// Where `trace.rs`'s production model and the measured executor count the
/// same physical quantity, they agree exactly: extracted samples per layer
/// (one per output activation) and FBS invocation volume.
#[cfg(feature = "op-stats")]
#[test]
fn trace_model_extraction_counts_match_measured() {
    let _lock = COUNTER_GUARD.lock().unwrap();
    let model = conv_model();
    let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| (i % 3) as i64 - 1).collect());
    let engine = AthenaEngine::new(BfvParams::test_small());
    let compiled = plan::compile(&engine, &model, input.shape());
    let mut sampler = Sampler::from_seed(4_041);
    let (secrets, keys) = engine.keygen_for_plan(&compiled, &mut sampler);
    let run = plan::execute(&engine, &secrets, &keys, &compiled, &input, &mut sampler);

    // trace.rs counts `outputs` sample extractions per layer.
    let spec = model.to_spec(&[1, 5, 5]);
    let params = TraceParams {
        n: engine.context().n(),
        limbs: engine.context().params().q_primes.len(),
        t: engine.context().t(),
        lwe_n: engine.context().params().lwe_n,
    };
    let analytic_tr = trace::trace_model(&spec, &params, &model.cfg);
    for (li, layer) in analytic_tr.layers.iter().enumerate() {
        let spec_se: u64 = layer.phases.iter().map(|(_, c)| c.sample_extract).sum();
        let measured_se: u64 = run
            .steps
            .iter()
            .filter(|s| s.node == li)
            .map(|s| s.measured.sample_extract)
            .sum();
        assert_eq!(
            spec_se,
            measured_se,
            "layer {li}: trace.rs charges {spec_se} sample extractions, run performed {measured_se}"
        );
        assert_eq!(spec_se, spec.layers[li].conv.outputs());
    }
}

/// Pinned drift between `trace.rs`'s closed-form FBS cost
/// (`smult = hadd = t_eff`, `cmult = 2√t_eff`) and the measured Alg. 2
/// schedule after the PR 3 hoisting rework:
///
/// * SMult: the real evaluation skips zero LUT coefficients, so measured
///   SMult is ≤ `t − 1` but stays within a few counts of it (the LUT here
///   has nearly full support);
/// * CMult: the concrete Paterson–Stockmeyer split also pays CMults to
///   build the baby-power basis, so measured CMult lands between the
///   idealized `2√t` and `3√t`;
/// * HAdd: one add per nonzero coefficient plus cross-group adds — within
///   `[t − 8, t + 8]`.
///
/// These bounds pin the constants: a schedule regression (e.g. losing the
/// hoisted giant steps) would push CMult or SMult outside them.
#[cfg(feature = "op-stats")]
#[test]
fn trace_fbs_formula_vs_measured_fbs_drift_is_pinned() {
    use athena_core::pipeline::PipelineStats;
    use athena_fhe::fbs::Lut;
    use athena_fhe::lwe::LweCiphertext;
    use athena_math::stats::op_stats;

    let _lock = COUNTER_GUARD.lock().unwrap();
    let engine = AthenaEngine::new(BfvParams::test_small());
    let mut sampler = Sampler::from_seed(4_042);
    let (secrets, keys) = engine.keygen(&mut sampler);
    let mut stats = PipelineStats::default();
    let t = engine.context().t();

    // A ReLU-like remap LUT with nearly full support (only ~half the table
    // maps to 0, but the interpolated polynomial is dense).
    let a_max = 3i64;
    let lut = Lut::from_signed_fn(t, move |v| v.clamp(-a_max, a_max).max(0));
    let lwes: Vec<Option<LweCiphertext>> = (0..8u64)
        .map(|i| {
            Some(LweCiphertext::encrypt(
                (i * 3) % t,
                &secrets.lwe_sk,
                &mut sampler,
            ))
        })
        .collect();
    let packed = engine.pack(&lwes, &keys, &mut stats);
    let (_, hom) = op_stats::measure(|| engine.fbs(&packed, &lut, &lwes, &keys, &mut stats));

    let formula = {
        // trace.rs's closed form at t_eff = t (test scale has no headroom
        // to shrink the LUT).
        let bs = (t as f64).sqrt().ceil() as u64;
        (2 * bs, t, t) // (cmult, smult, hadd)
    };
    assert!(
        hom.smult <= formula.1 && hom.smult + 8 >= formula.1,
        "SMult drift out of pinned range: measured {} vs closed-form {}",
        hom.smult,
        formula.1
    );
    assert!(
        hom.cmult >= formula.0 && hom.cmult <= formula.0 * 3 / 2,
        "CMult drift out of pinned range: measured {} vs closed-form {} (2√t)",
        hom.cmult,
        formula.0
    );
    assert!(
        hom.hadd + 8 >= formula.2 && hom.hadd <= formula.2 + 8,
        "HAdd drift out of pinned range: measured {} vs closed-form {}",
        hom.hadd,
        formula.2
    );
}

/// The S2C factorization drift, documented and pinned: the executor runs a
/// *single-stage* slot-to-coefficient transform whose BSGS schedule costs
/// `rotation_count()` HRots, while `trace.rs` charges the production
/// `O(∛N)`-factored pipeline (`packed_cts·∛N` HRot per layer). Both are
/// internally consistent — the trace's own constant is smaller at test
/// scale, and this test pins the relationship so a change to either model
/// is caught.
#[test]
fn s2c_factorization_drift_is_documented() {
    let engine = AthenaEngine::new(BfvParams::test_small());
    let ctx = engine.context();
    let single_stage_hrot = engine.slot_to_coeff().rotation_count() as u64;
    let cbrt_n = (ctx.n() as f64).cbrt().ceil() as u64;
    // Single-stage BSGS: O(√N) rotations. Factored model: O(∛N) per stage.
    assert!(
        single_stage_hrot > cbrt_n,
        "single-stage S2C ({single_stage_hrot} HRot) should exceed the \
         factored model's per-ct constant ({cbrt_n})"
    );
    // And the plan's analytic S2C counts are exactly the transform's own
    // schedule — not the trace's production constant.
    let s2c_counts = engine.slot_to_coeff().op_counts();
    assert_eq!(s2c_counts.hrot, single_stage_hrot);
}

/// Per-step measured counts are thread-count invariant: the `op-stats`
/// counters are process-global relaxed atomics bumped from worker threads,
/// so a mis-scoped measurement window (or counter bumps escaping a step's
/// `measure()` bracket from still-running workers) would show up as counts
/// drifting between serial and parallel runs. Pins the serial run and a
/// 4-worker run of the same seeded plan to identical per-step counts —
/// the CI `ATHENA_THREADS={1,4}` matrix relies on this invariance.
#[cfg(feature = "op-stats")]
#[test]
fn per_step_counts_are_thread_count_invariant() {
    let _lock = COUNTER_GUARD.lock().unwrap();
    let model = conv_model();
    let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| ((i % 5) as i64) - 2).collect());
    let run_with = |threads: usize| {
        athena_math::par::set_threads(threads);
        let engine = AthenaEngine::with_packing(BfvParams::test_small(), PackingMethod::Bsgs);
        let compiled = plan::compile(&engine, &model, input.shape());
        let mut sampler = Sampler::from_seed(4_242);
        let (secrets, keys) = engine.keygen_for_plan(&compiled, &mut sampler);
        plan::execute(&engine, &secrets, &keys, &compiled, &input, &mut sampler)
    };
    let serial = run_with(1);
    let parallel = run_with(4);
    athena_math::par::set_threads(0);
    assert_eq!(serial.steps.len(), parallel.steps.len());
    for (s1, s4) in serial.steps.iter().zip(&parallel.steps) {
        assert_eq!(
            s1.measured, s4.measured,
            "node {} step {} ({}): counts drift between 1 and 4 threads",
            s1.node, s1.step, s1.label
        );
        assert_eq!(s1.analytic, s4.analytic);
    }
    assert_eq!(
        serial.logits, parallel.logits,
        "threading changed arithmetic"
    );
}
