//! Chaos fuzzing: the fault-injection sweep dimension on top of the
//! model-zoo generator.
//!
//! Each chaos case takes a [`gen_case`](super::gen_case) model, draws one
//! seeded fault from [`FaultPlan::seeded`], and drives the resilient
//! executor three times against the same cached engine/key material:
//!
//! 1. a **baseline** clean run (the reference logits),
//! 2. the **faulted** run under the fault plan — which must either
//!    succeed bit-identically (a fault that lands nowhere observable,
//!    e.g. a sub-deadline sleep) or fail with the *typed*
//!    [`AthenaError`] the fault kind predicts — never a raw panic,
//! 3. a **recovery** clean run with the same sampler seed — which must
//!    be bit-identical to the baseline, proving the faulted attempt left
//!    nothing behind that a later run could observe.
//!
//! Every case additionally sweeps the plan through the wrapped
//! [`NoiseSimBackend`](crate::plan::NoiseSimBackend) and
//! [`CountingBackend`](crate::plan::CountingBackend) with a panic injected
//! at *every* flat step index, pinning the composability claim: the step
//! driver and the injection wrapper are backend-generic, so the typed
//! [`AthenaError::StepPanicked`] naming the faulted step is not an
//! encrypted-path special — and probes a backend that cannot measure a
//! noise budget, which must change nothing.
//!
//! Seed policy matches the differential sweep: case `i` of a sweep uses
//! generator seed `base + i`, and its fault plan is salted from the same
//! pair, so any failure reproduces from its printed seed alone.

use std::panic::{catch_unwind, AssertUnwindSafe};

use athena_math::sampler::Sampler;

use crate::plan::{
    drive, execute_resilient, AthenaError, CountingBackend, ExecutionPlan, FaultInjectingBackend,
    FaultKind, FaultPlan, FaultSpec, NoiseSimBackend, RunPolicy,
};
use crate::simulate::NoiseSpec;

use super::gen::{gen_case, FuzzCase};
use super::oracle::OracleCtx;

/// Sampler-seed salt of the chaos runs' encryption draws (baseline,
/// faulted, and recovery all start from the same stream, which is what
/// makes the bit-identity assertion meaningful).
const CHAOS_SALT: u64 = 0x63_68_61_6f_73_21_21_21;

/// Configuration of one chaos sweep.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Base generator seed; case `i` uses `seed + i` for both the model
    /// and its fault plan.
    pub seed: u64,
    /// Number of cases to run.
    pub cases: usize,
}

/// Aggregate result of a clean chaos sweep.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Cases run.
    pub cases: usize,
    /// Faults injected per kind: `[panic, corrupt-limb, noise-spike,
    /// slow-step]`.
    pub kind_counts: [usize; 4],
    /// Faulted runs that surfaced a typed error.
    pub typed_errors: usize,
    /// Faulted runs that completed cleanly (the fault landed nowhere
    /// observable).
    pub clean_passes: usize,
}

/// A chaos case that broke an invariant.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// Generator seed of the failing case.
    pub seed: u64,
    /// The injected fault.
    pub fault: FaultSpec,
    /// Which invariant broke, and how.
    pub detail: String,
}

impl std::fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chaos case seed {} (fault {:?}): {}",
            self.seed, self.fault, self.detail
        )
    }
}

fn fail(case: &FuzzCase, fault: FaultSpec, detail: String) -> Box<ChaosFailure> {
    Box::new(ChaosFailure {
        seed: case.seed,
        fault,
        detail,
    })
}

/// Runs `cfg.cases` seeded chaos cases; returns the first invariant
/// violation, or the aggregate report of a clean sweep.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, Box<ChaosFailure>> {
    let mut ctx = OracleCtx::new();
    let mut report = ChaosReport::default();
    for i in 0..cfg.cases {
        let case = gen_case(cfg.seed + i as u64);
        run_chaos_case(&mut ctx, &case, i, &mut report)?;
        report.cases += 1;
    }
    Ok(report)
}

fn run_chaos_case(
    ctx: &mut OracleCtx,
    case: &FuzzCase,
    index: usize,
    report: &mut ChaosReport,
) -> Result<(), Box<ChaosFailure>> {
    let entry = ctx.entry(&case.params);
    let plan = match crate::plan::try_compile(&entry.engine, &case.model, case.input.shape()) {
        Ok(plan) => plan,
        Err(e) => {
            return Err(fail(
                case,
                FaultSpec::at(0, FaultKind::Panic),
                format!("generator emitted an uncompilable case: {e}"),
            ))
        }
    };
    let faults = FaultPlan::seeded(case.seed, index, plan.step_count());
    let fault = faults.faults[0];
    report.kind_counts[match fault.kind {
        FaultKind::Panic => 0,
        FaultKind::CorruptLimb => 1,
        FaultKind::NoiseSpike { .. } => 2,
        FaultKind::SlowStep { .. } => 3,
    }] += 1;

    let clean_run = |entry: &super::oracle::EngineEntry| {
        let mut sampler = Sampler::from_seed(case.seed ^ CHAOS_SALT);
        execute_resilient(
            &entry.engine,
            &entry.secrets,
            &entry.keys,
            &plan,
            &case.input,
            &mut sampler,
            &RunPolicy::default(),
            1,
            None,
        )
    };
    let baseline = clean_run(entry)
        .map_err(|e| fail(case, fault, format!("baseline clean run failed: {e}")))?;

    // The faulted run: the probe is forced on so limb corruption is
    // observable, and the whole attempt sits inside `catch_unwind` —
    // an escaping panic is itself the bug the harness exists to catch.
    let policy = RunPolicy::default()
        .with_probe()
        .with_faults(faults.clone());
    let mut sampler = Sampler::from_seed(case.seed ^ CHAOS_SALT);
    let faulted = catch_unwind(AssertUnwindSafe(|| {
        execute_resilient(
            &entry.engine,
            &entry.secrets,
            &entry.keys,
            &plan,
            &case.input,
            &mut sampler,
            &policy,
            1,
            None,
        )
    }))
    .map_err(|_| {
        fail(
            case,
            fault,
            "a raw panic escaped the resilient executor".to_string(),
        )
    })?;

    match (&fault.kind, &faulted) {
        // A panic fault must surface typed, naming a step.
        (FaultKind::Panic, Err(AthenaError::StepPanicked { payload, .. })) => {
            if !payload.contains("injected fault") {
                return Err(fail(case, fault, format!("wrong payload: {payload}")));
            }
            report.typed_errors += 1;
        }
        // A 10k+-bit spike always dwarfs the budget: typed exhaustion,
        // wherever in the chain it was injected.
        (FaultKind::NoiseSpike { .. }, Err(AthenaError::NoiseExhausted(_))) => {
            report.typed_errors += 1
        }
        // Corruption collapses the measured budget when it lands on an
        // RLWE value; a fault armed past the last RLWE producer lands
        // nowhere and the run must then be bit-identical.
        (FaultKind::CorruptLimb, Err(AthenaError::NoiseExhausted(_))) => report.typed_errors += 1,
        (FaultKind::CorruptLimb | FaultKind::SlowStep { .. }, Ok(run)) => {
            if run.logits != baseline.logits {
                return Err(fail(
                    case,
                    fault,
                    "an unobserved fault still changed the logits".to_string(),
                ));
            }
            report.clean_passes += 1;
        }
        (kind, outcome) => {
            let got = match outcome {
                Ok(_) => "Ok".to_string(),
                Err(e) => format!("{} ({e})", e.kind()),
            };
            return Err(fail(
                case,
                fault,
                format!("fault kind {kind:?} produced unexpected outcome {got}"),
            ));
        }
    }

    // Recovery: a clean run on the same engine must be bit-identical to
    // the baseline.
    let recovered = clean_run(entry)
        .map_err(|e| fail(case, fault, format!("recovery clean run failed: {e}")))?;
    if recovered.logits != baseline.logits {
        return Err(fail(
            case,
            fault,
            "recovery run diverged from the baseline: the faulted attempt leaked state".to_string(),
        ));
    }

    check_other_backends(&entry.engine, &plan, case, fault)
}

/// The backend-generic half of a chaos case: a panic injected at every
/// flat step index through the wrapped simulation and counting backends
/// must come back as [`AthenaError::StepPanicked`] naming that step, and a
/// probed run of a backend with no budget hook must report no budget
/// anywhere and leave the logits untouched.
fn check_other_backends(
    engine: &crate::pipeline::AthenaEngine,
    plan: &ExecutionPlan,
    case: &FuzzCase,
    fault: FaultSpec,
) -> Result<(), Box<ChaosFailure>> {
    let exact = NoiseSpec::zero();
    let sim = || NoiseSimBackend::new(plan, &exact, &mut Sampler::from_seed(case.seed));
    let policy = RunPolicy::default();

    let flat_steps = plan.layers.iter().flat_map(|l| {
        l.steps
            .iter()
            .enumerate()
            .map(|(si, s)| (l.node, si, s.op.label()))
    });
    for (k, at) in flat_steps.enumerate() {
        let faults = FaultPlan::panic_at(k);
        let mut wrapped_sim = FaultInjectingBackend::new(sim(), &faults, 1, None);
        let mut wrapped_counting =
            FaultInjectingBackend::new(CountingBackend::new(engine), &faults, 1, None);
        for (name, err) in [
            (
                "sim",
                drive(&mut wrapped_sim, plan, &case.input, &policy, None).err(),
            ),
            (
                "counting",
                drive(&mut wrapped_counting, plan, &case.input, &policy, None).err(),
            ),
        ] {
            let typed = matches!(
                &err,
                Some(AthenaError::StepPanicked { node, step, label, payload })
                    if (*node, *step, *label) == at && payload.contains("injected fault")
            );
            if !typed {
                return Err(fail(
                    case,
                    faults.faults[0],
                    format!(
                        "panic through the {name} backend: expected StepPanicked at {at:?}, \
                         got {err:?}"
                    ),
                ));
            }
        }
    }

    let no_hook = |policy: &RunPolicy| {
        drive(&mut sim(), plan, &case.input, policy, None)
            .map_err(|e| fail(case, fault, format!("unfaulted sim run failed: {e}")))
    };
    let unprobed = no_hook(&policy)?;
    let probed = no_hook(&RunPolicy::default().with_probe())?;
    if probed.fresh_budget.is_some()
        || probed.steps.iter().any(|s| s.noise_budget.is_some())
        || probed.logits != unprobed.logits
    {
        return Err(fail(
            case,
            fault,
            "probing a backend with no budget hook was not a no-op".to_string(),
        ));
    }
    Ok(())
}
