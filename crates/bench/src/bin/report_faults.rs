//! The fault-injection report: every fault kind at every step index of
//! the tier-1 reference model, the typed [`AthenaError`] each one
//! surfaces as, and the recovery invariant (a clean run after every
//! faulted run stays bit-identical to the unfaulted baseline).
//!
//! Writes `reports/faults.txt`. Everything here is seeded and exact — no
//! timings, no thread-sensitive state — so the output is deterministic
//! and thread-count invariant; CI regenerates it in both `ATHENA_THREADS`
//! legs and diffs it against the committed copy.

use std::collections::BTreeMap;
use std::time::Duration;

use athena_bench::render_table;
use athena_core::pipeline::{AthenaEngine, PackingMethod};
use athena_core::plan::{
    self, AthenaError, FaultKind, FaultPlan, FaultSpec, RetryPolicy, RunPolicy,
};
use athena_fhe::params::BfvParams;
use athena_math::sampler::Sampler;
use athena_nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QuantConfig};
use athena_nn::tensor::ITensor;

/// conv 1→2 3×3 on 5×5 + FC 18→3 — the tier-1 reference shape.
fn conv_model() -> QModel {
    let linear = |shape: &[usize], w: Vec<i64>, bias: Vec<i64>, is_fc: bool, input: usize| QNode {
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
    };
    let conv_w: Vec<i64> = (0..2 * 9).map(|i| ((i % 5) as i64) - 2).collect();
    let fc_w: Vec<i64> = (0..3 * 18).map(|i| ((i % 3) as i64) - 1).collect();
    QModel {
        nodes: vec![
            linear(&[2, 1, 3, 3], conv_w, vec![1, -2], false, 0),
            linear(&[3, 18, 1, 1], fc_w, vec![0, 1, -1], true, 1),
        ],
        input_scale: 0.5,
        cfg: QuantConfig::new(3, 3),
    }
}

const KINDS: [FaultKind; 4] = [
    FaultKind::Panic,
    FaultKind::CorruptLimb,
    FaultKind::NoiseSpike { bits: 60_000 },
    FaultKind::SlowStep { millis: 0 },
];

fn sweep_section(out: &mut String, method: PackingMethod, seed: u64) {
    let model = conv_model();
    let input = ITensor::from_vec(&[1, 5, 5], (0..25).map(|i| ((i % 5) as i64) - 2).collect());
    let engine = AthenaEngine::with_packing(BfvParams::test_small(), method);
    let compiled = plan::compile(&engine, &model, input.shape());
    let mut key_sampler = Sampler::from_seed(seed);
    let (secrets, keys) = engine.keygen_for_plan(&compiled, &mut key_sampler);

    let run_with = |policy: &RunPolicy| {
        let mut sampler = Sampler::from_seed(seed ^ 0x66_61_75_6c_74_73_21_21);
        plan::execute_resilient(
            &engine,
            &secrets,
            &keys,
            &compiled,
            &input,
            &mut sampler,
            policy,
            1,
            None,
        )
    };
    let baseline = run_with(&RunPolicy::default()).expect("baseline clean run");

    let labels: Vec<(usize, usize, &'static str)> = compiled
        .layers
        .iter()
        .flat_map(|l| {
            l.steps
                .iter()
                .enumerate()
                .map(|(si, s)| (l.node, si, s.op.label()))
        })
        .collect();

    out.push_str(&format!(
        "\n== {method:?} — {} flat steps, fresh budget probed per faulted run ==\n\n",
        labels.len()
    ));
    let mut rows = Vec::new();
    let mut outcome_counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut recoveries_ok = 0usize;
    let mut faulted_runs = 0usize;
    for (k, &(node, si, label)) in labels.iter().enumerate() {
        let mut row = vec![format!("{node}.{si}"), label.to_string()];
        for kind in KINDS {
            let policy = RunPolicy::default()
                .with_probe()
                .with_faults(FaultPlan::new(seed, vec![FaultSpec::at(k, kind)]));
            let outcome = match run_with(&policy) {
                Ok(run) => {
                    if run.logits == baseline.logits {
                        "ok".to_string()
                    } else {
                        "OK-BUT-DIVERGED".to_string()
                    }
                }
                Err(e) => e.kind().to_string(),
            };
            *outcome_counts.entry(outcome.clone()).or_default() += 1;
            row.push(outcome);
            faulted_runs += 1;
            let recovered = run_with(&RunPolicy::default()).expect("recovery clean run");
            if recovered.logits == baseline.logits {
                recoveries_ok += 1;
            }
        }
        rows.push(row);
    }
    out.push_str(&render_table(
        &[
            "step",
            "op",
            "panic",
            "corrupt-limb",
            "noise-spike",
            "slow-step",
        ],
        &rows,
    ));
    out.push_str("\noutcome totals: ");
    let totals: Vec<String> = outcome_counts
        .iter()
        .map(|(k, v)| format!("{k} ×{v}"))
        .collect();
    out.push_str(&totals.join(", "));
    out.push_str(&format!(
        "\nrecovery after every faulted run bit-identical to baseline: {}/{}\n",
        recoveries_ok, faulted_runs
    ));
    assert_eq!(
        recoveries_ok, faulted_runs,
        "a faulted run leaked state into a later clean run"
    );

    // Policy behaviors, pinned: a zero deadline fails typed before step 0,
    // and a transient panic recovers under a 2-attempt retry policy.
    let deadline_err =
        run_with(&RunPolicy::default().with_deadline(Duration::ZERO)).expect_err("zero deadline");
    out.push_str(&format!(
        "zero-deadline request: {} ({deadline_err})\n",
        deadline_err.kind()
    ));
    // The retry loop lives in the session layer (execute_resilient is the
    // single-attempt primitive), so the demonstration goes through one.
    let mut session = plan::InferenceSession::new(
        AthenaEngine::with_packing(BfvParams::test_small(), method),
        2,
        seed,
    );
    let mut sampler = Sampler::from_seed(seed ^ 0x72_65_74_72_79_21_21_21);
    let retried = session.run_encrypted_with(
        &model,
        &input,
        &mut sampler,
        &RunPolicy::default()
            .with_faults(FaultPlan::new(
                seed,
                vec![FaultSpec::at(2, FaultKind::Panic).on_attempt(1)],
            ))
            .with_retry(RetryPolicy {
                max_attempts: 2,
                backoff: Duration::ZERO,
            }),
    );
    out.push_str(&format!(
        "transient panic under 2-attempt retry: {}\n",
        match &retried {
            Ok(_) => "recovered on attempt 2".to_string(),
            Err(e) => format!("FAILED ({e})"),
        }
    ));
    assert!(retried.is_ok(), "retry must recover a transient fault");
}

fn taxonomy_table(out: &mut String) {
    let samples: Vec<AthenaError> = vec![
        AthenaError::Compile(plan::CompileError::NoiseBudget {
            chain_bits: 342,
            budget_bits: 241,
            margin: 0,
        }),
        AthenaError::ShapeMismatch {
            input: 2,
            expected: vec![1, 5, 5],
            got: vec![1, 4, 4],
        },
        AthenaError::NoiseExhausted(plan::NoiseExhausted {
            node: 1,
            step: 4,
            label: "fbs",
            budget: -3,
            analytic_bits: 40,
            consumed: Some(43),
        }),
        AthenaError::KeyMissing {
            node: 0,
            step: 6,
            label: "s2c",
            element: 3,
            available: vec![5, 9],
        },
        AthenaError::Fhe {
            node: 0,
            step: 4,
            label: "pack",
            source: athena_fhe::FheError::PackCapacity {
                lwes: 200,
                slots: 128,
            },
        },
        AthenaError::DeadlineExceeded {
            node: 0,
            step: 0,
            label: "linear",
            deadline: Duration::from_millis(5),
        },
        AthenaError::StepPanicked {
            node: 0,
            step: 1,
            label: "mod_switch",
            payload: "injected fault".into(),
        },
    ];
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|e| {
            vec![
                e.kind().to_string(),
                if e.is_transient() {
                    "transient (retried)".into()
                } else {
                    "deterministic (fail fast)".into()
                },
            ]
        })
        .collect();
    out.push_str("Error taxonomy and retry classification:\n\n");
    out.push_str(&render_table(&["kind", "retry class"], &rows));
}

fn main() {
    let mut out = String::new();
    out.push_str(
        "Fault-injection sweep: every fault kind at every flat step index of\n\
         the tier-1 reference model (params: test_small, probe on), the typed\n\
         error each surfaces as, and the quarantine-recovery invariant. A\n\
         `slow-step` of 0 ms and sub-budget faults legitimately complete —\n\
         `ok` means bit-identical to the unfaulted baseline.\n\n",
    );
    taxonomy_table(&mut out);
    sweep_section(&mut out, PackingMethod::Column, 11_000);
    sweep_section(&mut out, PackingMethod::Bsgs, 11_001);

    print!("{out}");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports");
    let path = dir.join("faults.txt");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &out)) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}
