//! The generic plan interpreter and its one driver.
//!
//! [`run_step`] owns the control flow of every step — group accumulation,
//! residual re-extraction, the pooling window streams and max tree — and
//! passes every RLWE value a backend returns through one [`Hook`], which
//! lands injected limb corruption and takes the noise probe's readings.
//! [`drive`] owns everything around it: input placement, the step walk,
//! injected panics, per-step panic isolation, and the measured brackets
//! that fill [`StepReport`]. Both are generic over [`PlanBackend`], so all
//! three backends run the identical loop; the four public entry points
//! only construct a backend and call [`drive`]:
//!
//! * [`execute_resilient`] — the encrypted run under a [`RunPolicy`]
//!   (noise probe, fault injection), every failure a typed
//!   [`AthenaError`];
//! * [`execute`] — the same under the default policy, panicking with the
//!   error's `Display` for callers with pre-validated inputs;
//! * [`execute_sim`] — the plan-driven noise-faithful simulation
//!   ([`super::NoiseSimBackend`]);
//! * [`execute_counting`] — the value-free analytic dry run
//!   ([`super::CountingBackend`]), which `compile` uses to backfill
//!   [`super::PlanStep::analytic`].
//!
//! ## Panic safety
//!
//! [`drive`] wraps every step in `catch_unwind` and classifies what it
//! catches: a typed [`athena_fhe::FheError`] becomes
//! [`AthenaError::KeyMissing`] or [`AthenaError::Fhe`], and anything else
//! [`AthenaError::StepPanicked`] — callers never see a raw unwind. A step
//! shares no mutable state with later runs (its limb buffers are owned by
//! the run and freed as it unwinds), so there is nothing to clean up
//! before the error is returned.

use std::panic::{catch_unwind, AssertUnwindSafe};

use athena_fhe::fbs::Lut;
use athena_fhe::FheError;
use athena_math::prng::Prng;
use athena_math::sampler::Sampler;
use athena_math::stats::{self, alloc_stats};
use athena_nn::tensor::ITensor;

use crate::pipeline::{AthenaEngine, AthenaEvalKeys, AthenaSecrets, PipelineStats};
use crate::simulate::NoiseSpec;
use crate::trace::{OpCounts, Phase};

use super::backend::{CountingBackend, EncryptedBackend, NoiseSimBackend, PlanBackend};
use super::error::{panic_text, AthenaError, RunPolicy};
use super::fault::{FaultKind, FaultPlan, FaultTarget};
use super::ir::{ExecutionPlan, StepOp};

/// The measured record of one executed step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Source node index.
    pub node: usize,
    /// Step index within the node.
    pub step: usize,
    /// Step label ([`StepOp::label`]).
    pub label: &'static str,
    /// Phase attribution.
    pub phase: Phase,
    /// Compile-time analytic counts.
    pub analytic: OpCounts,
    /// Counter-measured counts of exactly this step's work, never a
    /// request running concurrently on another thread (zero when the
    /// `op-stats` feature is off).
    pub measured: OpCounts,
    /// Limb buffers the step allocated, scoped like `measured` (zero when
    /// the `alloc-stats` feature is off).
    pub alloc: alloc_stats::AllocCounts,
    /// Compile-time analytic noise charge in bits
    /// ([`super::PlanStep::noise_bits`]).
    pub noise_bits: u32,
    /// Measured invariant-noise budget of the step's RLWE output: the
    /// lowest budget of any RLWE value the step made. `Some` only when
    /// [`RunPolicy::probe`] is on, the backend answers
    /// [`PlanBackend::noise_budget`], and the step makes an RLWE value —
    /// `linear`, `pack`, `fbs`, `s2c`, and `max_reduce`, whose max-tree
    /// rounds each pack, bootstrap and bridge back. Extraction and the
    /// other LWE-level steps make no `Q`-basis ciphertext to probe.
    pub noise_budget: Option<i64>,
    /// Measured noise consumption of the step in bits: the budget of its
    /// chain predecessor minus [`StepReport::noise_budget`]. The
    /// predecessor is the stored value for `linear`, the fresh input
    /// budget for `pack` (packing restarts the chain from fresh
    /// key-material noise), and the packed/bootstrapped value for
    /// `fbs`/`s2c`. A `max_reduce` round is a whole pack → FBS → S2C
    /// chain, so its consumption is the fresh budget minus the worst
    /// round's S2C budget — the quantity the step's charge bounds. The
    /// plan pins `noise_bits ≥ noise_consumed` in tests.
    pub noise_consumed: Option<i64>,
}

/// Typed failure of a probed execution: the measured invariant-noise
/// budget reached zero after a step, so every value downstream of it would
/// decrypt to garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoiseExhausted {
    /// Source node index of the exhausting step.
    pub node: usize,
    /// Step index within the node.
    pub step: usize,
    /// Step label ([`StepOp::label`]).
    pub label: &'static str,
    /// The measured budget (`≤ 0`; `-1` once the noise has swamped the
    /// invariant — the probe saturates there).
    pub budget: i64,
    /// The exhausting step's compile-time analytic charge
    /// ([`super::PlanStep::noise_bits`]), for comparing the analytic
    /// model against what was measured.
    pub analytic_bits: u32,
    /// The measured consumption of the exhausting step (its chain
    /// predecessor's budget minus [`NoiseExhausted::budget`]), when the
    /// probe had a predecessor to charge against.
    pub consumed: Option<i64>,
}

impl NoiseExhausted {
    /// Analytic-minus-measured consumption of the exhausting step:
    /// positive means the analytic model was conservative (the usual
    /// case), negative means the step consumed more than its compile-time
    /// charge — the signal that the Table-4 accounting missed something.
    pub fn budget_gap(&self) -> Option<i64> {
        self.consumed.map(|c| i64::from(self.analytic_bits) - c)
    }
}

impl std::fmt::Display for NoiseExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "noise budget exhausted at node {} step {} ({}): {} bits left",
            self.node, self.step, self.label, self.budget
        )
    }
}

impl std::error::Error for NoiseExhausted {}

/// Result of executing a plan.
#[derive(Debug)]
pub struct PlanRun {
    /// Decrypted float logits.
    pub logits: Vec<f64>,
    /// Aggregate pipeline statistics.
    pub stats: PipelineStats,
    /// Per-step analytic vs measured counts, in execution order.
    pub steps: Vec<StepReport>,
    /// Budget of the freshly encrypted input (probe mode only): the
    /// baseline every chain starts from.
    pub fresh_budget: Option<i64>,
}

/// Result of a plan-driven simulated execution.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Float logits.
    pub logits: Vec<f64>,
    /// Predicted class.
    pub predicted: usize,
}

/// Executor state: the registers the step vocabulary reads and writes,
/// generic over the backend's value types.
pub(crate) struct ExecState<B: PlanBackend> {
    /// Stored values (S2C outputs + the encrypted input), by value index.
    pub values: Vec<Option<B::Rlwe>>,
    /// Pending linear output (between `Linear` and `ModSwitch`).
    pub cur: Option<B::Rlwe>,
    /// Mod-switched RLWE (between `ModSwitch` and `ExtractLwes`).
    pub small: Option<B::Mid>,
    /// Extracted dimension-`N` LWEs (between `ExtractLwes` and
    /// `DimSwitch`).
    pub big: Vec<B::Lwe>,
    /// The layer's LWE accumulator (grows across groups, consumed by
    /// `Pack`/reduce/`Output`).
    pub acc: Vec<B::Lwe>,
    /// Slot assignment of the last `Pack` (the FBS mask needs it).
    pub slots: Vec<Option<B::Lwe>>,
    /// Packed ciphertext (between `Pack` and `Fbs`).
    pub packed: Option<B::Rlwe>,
    /// Bootstrapped ciphertext (between `Fbs` and `S2C`).
    pub boot: Option<B::Rlwe>,
    pub logits: Vec<f64>,
    /// What every RLWE value made passes through.
    pub hook: Hook,
}

impl<B: PlanBackend> ExecState<B> {
    fn new(plan: &ExecutionPlan, hook: Hook) -> Self {
        Self {
            values: (0..plan.layers.len() + 1).map(|_| None).collect(),
            cur: None,
            small: None,
            big: Vec::new(),
            acc: Vec::new(),
            slots: Vec::new(),
            packed: None,
            boot: None,
            logits: Vec::new(),
            hook,
        }
    }
}

/// The one place fault injection and the noise probe act: [`run_step`]
/// passes every RLWE value a backend returns through [`Hook::made`], in
/// plain steps and inside the pooling composite alike.
pub(crate) struct Hook {
    /// A [`FaultKind::CorruptLimb`] fault fired: it lands on the next RLWE
    /// value made.
    armed: bool,
    /// Picks the word and limb a corruption perturbs.
    prng: Prng,
    /// Budget of the freshly encrypted input; `Some` only while probing.
    fresh: Option<i64>,
    /// The current step's readings: its lowest budget and its largest
    /// consumption.
    low: Option<i64>,
    consumed: Option<i64>,
}

impl Hook {
    /// Lands an armed corruption on `v`, and under the probe measures its
    /// budget against its chain predecessor `from` (`None`: the chain
    /// starts from fresh noise, as every pack does).
    fn made<B: PlanBackend>(
        &mut self,
        backend: &B,
        mut v: B::Rlwe,
        from: Option<&B::Rlwe>,
    ) -> B::Rlwe {
        if std::mem::take(&mut self.armed) {
            v.corrupt(&mut self.prng);
        }
        if let Some(fresh) = self.fresh {
            // The probe's decryptions are not the step's work.
            let (budget, start) = stats::unmeasured(|| {
                let start = from.map_or(Some(fresh), |f| backend.noise_budget(f));
                (backend.noise_budget(&v), start)
            });
            if let Some(b) = budget {
                self.low = Some(self.low.map_or(b, |l| l.min(b)));
                self.consumed = self.consumed.max(start.map(|s| s - b));
            }
        }
        v
    }

    /// Drains the current step's readings: `(budget, consumed)`, `None`
    /// when the step made no probed value.
    fn take(&mut self) -> Option<(i64, Option<i64>)> {
        let low = self.low.take()?;
        Some((low, self.consumed.take()))
    }
}

/// Interprets one step against a backend. All control flow — including
/// the pooling composites' window streams, max tree, and window sums, and
/// the residual re-extraction — lives here, decomposed into backend
/// primitives, so every backend runs the identical structure.
pub(crate) fn run_step<B: PlanBackend>(
    backend: &mut B,
    plan: &ExecutionPlan,
    op: &StepOp,
    st: &mut ExecState<B>,
) {
    match op {
        StepOp::Linear {
            value,
            kernel,
            bias,
        } => {
            let ct = st.values[*value].as_ref().expect("producer stored");
            let out = backend.linear(ct, kernel, bias);
            st.cur = Some(st.hook.made(backend, out, Some(ct)));
        }
        StepOp::ModSwitch { value } => {
            let src = match value {
                Some(i) => st.values[*i].as_ref().expect("value stored"),
                None => st.cur.as_ref().expect("pending linear output"),
            };
            st.small = Some(backend.mod_switch(src));
        }
        StepOp::ExtractLwes { positions } => {
            let small = st.small.as_ref().expect("mod-switched ciphertext");
            st.big = backend.extract_lwes(small, positions);
        }
        StepOp::DimSwitch { drop_to_t } => {
            let big = std::mem::take(&mut st.big);
            st.acc.extend(backend.dim_switch(big, *drop_to_t));
        }
        StepOp::ResidualAdd {
            skip,
            positions,
            mult,
            drop_to_t,
        } => {
            let ct = st.values[*skip].as_ref().expect("skip stored");
            let small = backend.mod_switch(ct);
            let big = backend.extract_lwes(&small, positions);
            let sw = backend.dim_switch(big, *drop_to_t);
            assert_eq!(sw.len(), st.acc.len(), "skip shape mismatch");
            for (a, s) in st.acc.iter_mut().zip(&sw) {
                *a = backend.lwe_add_scaled(a, s, *mult);
            }
        }
        StepOp::MaxReduce { k, shape } => {
            let lwes = std::mem::take(&mut st.acc);
            let (c, h, w) = (shape[0], shape[1], shape[2]);
            let (oh, ow) = (h / k, w / k);
            // Window-position streams, then a max tree over them. Each
            // round is max(a,b) = b + ReLU(a − b): LWE diffs, one
            // pack → FBS(ReLU) → S2C cycle, re-extraction, and the add —
            // the noise-robust form of the max tree of [30]: one ReLU LUT
            // per round, and the LWE noise only perturbs the LUT input
            // (it is never amplified by a modular halving). Every round
            // restarts from fresh packing noise, so the hook charges all
            // three of its RLWE values to the fresh budget.
            let mut streams: Vec<Vec<B::Lwe>> = Vec::with_capacity(k * k);
            for ky in 0..*k {
                for kx in 0..*k {
                    let mut s = Vec::with_capacity(c * oh * ow);
                    for ci in 0..c {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                s.push(lwes[(ci * h + oy * k + ky) * w + ox * k + kx].clone());
                            }
                        }
                    }
                    streams.push(s);
                }
            }
            let relu = Lut::from_signed_fn(plan.t, |x| x.max(0));
            while streams.len() > 1 {
                let b = streams.pop().expect("len > 1");
                let a = streams.pop().expect("len > 1");
                let diffs: Vec<Option<B::Lwe>> = a
                    .iter()
                    .zip(&b)
                    .map(|(x, y)| Some(backend.lwe_add_scaled(x, y, -1)))
                    .collect();
                let packed = backend.pack(&diffs);
                let packed = st.hook.made(backend, packed, None);
                let relu_ct = backend.fbs(&packed, &relu, &diffs);
                let relu_ct = st.hook.made(backend, relu_ct, None);
                let relu_coeff = backend.s2c(&relu_ct);
                let relu_coeff = st.hook.made(backend, relu_coeff, None);
                let small = backend.mod_switch(&relu_coeff);
                let positions: Vec<usize> = (0..a.len()).collect();
                let big = backend.extract_lwes(&small, &positions);
                let relu_lwes = backend.dim_switch(big, true);
                streams.push(
                    b.iter()
                        .zip(&relu_lwes)
                        .map(|(y, r)| backend.lwe_add_scaled(y, r, 1))
                        .collect(),
                );
            }
            st.acc = streams.pop().expect("one stream left");
        }
        StepOp::AvgReduce { k, shape } => {
            let lwes = std::mem::take(&mut st.acc);
            let (c, h, w) = (shape[0], shape[1], shape[2]);
            let (oh, ow) = (h / k, w / k);
            let mut sums = Vec::with_capacity(c * oh * ow);
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc: Option<B::Lwe> = None;
                        for ky in 0..*k {
                            for kx in 0..*k {
                                let e = &lwes[(ci * h + oy * k + ky) * w + ox * k + kx];
                                acc = Some(match acc {
                                    None => e.clone(),
                                    Some(a) => backend.lwe_add_scaled(&a, e, 1),
                                });
                            }
                        }
                        sums.push(acc.expect("k >= 1"));
                    }
                }
            }
            st.acc = sums;
        }
        StepOp::Pack { slot_of } => {
            let acc = std::mem::take(&mut st.acc);
            let mut slots: Vec<Option<B::Lwe>> = (0..plan.n).map(|_| None).collect();
            for (slot, flat) in slot_of.iter().enumerate() {
                if let Some(f) = flat {
                    slots[slot] = Some(acc[*f].clone());
                }
            }
            let packed = backend.pack(&slots);
            st.packed = Some(st.hook.made(backend, packed, None));
            st.slots = slots;
        }
        StepOp::Fbs { lut } => {
            let packed = st.packed.take().expect("packed ciphertext");
            let boot = backend.fbs(&packed, lut, &st.slots);
            st.boot = Some(st.hook.made(backend, boot, Some(&packed)));
        }
        StepOp::S2C { value, .. } => {
            let boot = st.boot.take().expect("bootstrapped ciphertext");
            let out = backend.s2c(&boot);
            st.values[*value] = Some(st.hook.made(backend, out, Some(&boot)));
            st.slots.clear();
        }
        StepOp::Output { scale } => {
            st.logits = backend.output(&st.acc, *scale);
        }
    }
}

/// Classifies a caught panic payload into the [`AthenaError`] taxonomy.
fn classify_panic(
    payload: Box<dyn std::any::Any + Send>,
    node: usize,
    step: usize,
    label: &'static str,
) -> AthenaError {
    if let Some(fhe) = payload.downcast_ref::<FheError>() {
        return match fhe.clone() {
            FheError::KeyMissing { element, available } => AthenaError::KeyMissing {
                node,
                step,
                label,
                element,
                available,
            },
            source => AthenaError::Fhe {
                node,
                step,
                label,
                source,
            },
        };
    }
    AthenaError::StepPanicked {
        node,
        step,
        label,
        payload: panic_text(payload.as_ref()),
    }
}

/// What one [`drive`] pass leaves behind besides the backend's own state
/// (which the caller still holds and reads its statistics off).
pub(crate) struct Driven {
    pub logits: Vec<f64>,
    /// One report per executed step, in execution order.
    pub steps: Vec<StepReport>,
    /// [`PlanBackend::take_counts`] drained after every step — the
    /// [`CountingBackend`]'s analytic tally (all zero for the others).
    pub tallied: Vec<OpCounts>,
    /// Budget of the freshly encrypted input (probed runs only).
    pub fresh_budget: Option<i64>,
}

/// Drives `backend` through the whole plan: places and encrypts the
/// input, then walks every step in order. The single place the step loop
/// lives — every backend gets the same isolation and telemetry:
///
/// * a wrong-shaped input is a typed [`AthenaError::ShapeMismatch`]
///   (`batch_input` names it), never a panic;
/// * the encryption and every step run inside `catch_unwind`, and a
///   caught payload is classified into a typed error;
/// * one [`stats::measure`] bracket per step fills
///   [`StepReport::measured`] and [`StepReport::alloc`];
/// * the policy's [`FaultPlan`] (scoped to `batch_input`) fires inside
///   that bracket: a [`FaultKind::Panic`] panics there, a
///   [`FaultKind::CorruptLimb`] arms the [`Hook`] to corrupt the next RLWE
///   value made;
/// * with [`RunPolicy::probe`] on, the [`Hook`] measures every RLWE value
///   made through [`PlanBackend::noise_budget`], and the run aborts with
///   [`AthenaError::NoiseExhausted`] after the first step whose lowest
///   budget reached zero. A backend that cannot answer the query is
///   simply not probed.
///
/// Probing performs no sampler draws and no homomorphic ops, and its
/// decryptions run outside the step's bracket, so logits and measured
/// counts are bit-identical with the probe on or off.
pub(crate) fn drive<B: PlanBackend>(
    backend: &mut B,
    plan: &ExecutionPlan,
    input: &ITensor,
    policy: &RunPolicy,
    batch_input: Option<usize>,
) -> Result<Driven, AthenaError> {
    if input.shape() != &plan.input_shape[..] {
        return Err(AthenaError::ShapeMismatch {
            input: batch_input.unwrap_or(0),
            expected: plan.input_shape.clone(),
            got: input.shape().to_vec(),
        });
    }

    // The flat input activations, at the plan's input-layout coefficient
    // positions.
    let mut coeffs = vec![0i64; plan.n];
    for (flat, &pos) in plan.input_positions.iter().enumerate() {
        coeffs[pos] = input.data()[flat];
    }
    let first_node = plan.layers.first().map_or(0, |l| l.node);
    let encrypted = catch_unwind(AssertUnwindSafe(|| backend.encrypt_input(&coeffs)))
        .map_err(|p| classify_panic(p, first_node, 0, "encrypt"))?;

    let fresh_budget = if policy.probe {
        backend.noise_budget(&encrypted)
    } else {
        None
    };
    let no_faults = FaultPlan::default();
    let faults = policy.faults.as_ref().unwrap_or(&no_faults);
    let hook = Hook {
        armed: false,
        prng: faults.corruption_prng(),
        fresh: fresh_budget,
        low: None,
        consumed: None,
    };
    let mut st = ExecState::new(plan, hook);
    st.values[0] = Some(encrypted);

    let mut steps = Vec::with_capacity(plan.step_count());
    let mut tallied = Vec::with_capacity(plan.step_count());
    let mut flat = 0usize;
    for layer in &plan.layers {
        for (si, step) in layer.steps.iter().enumerate() {
            let label = step.op.label();
            let fault = faults.fault_at(flat, batch_input);
            let ((), counted) = catch_unwind(AssertUnwindSafe(|| {
                stats::measure(|| {
                    match fault {
                        Some(FaultKind::Panic) => panic!(
                            "injected fault: panic at node {} step {si} (flat index {flat})",
                            layer.node
                        ),
                        Some(FaultKind::CorruptLimb) => st.hook.armed = true,
                        None => {}
                    }
                    run_step(backend, plan, &step.op, &mut st)
                })
            }))
            .map_err(|p| classify_panic(p, layer.node, si, label))?;
            flat += 1;
            tallied.push(backend.take_counts());
            let probed = st.hook.take();
            steps.push(StepReport {
                node: layer.node,
                step: si,
                label,
                phase: step.phase,
                analytic: step.analytic,
                measured: counted.into(),
                alloc: counted.into(),
                noise_bits: step.noise_bits,
                noise_budget: probed.map(|(budget, _)| budget),
                noise_consumed: probed.and_then(|(_, consumed)| consumed),
            });
            if let Some((budget, consumed)) = probed {
                if budget <= 0 {
                    return Err(AthenaError::NoiseExhausted(NoiseExhausted {
                        node: layer.node,
                        step: si,
                        label,
                        budget,
                        analytic_bits: step.noise_bits,
                        consumed,
                    }));
                }
            }
        }
    }
    Ok(Driven {
        logits: st.logits,
        steps,
        tallied,
        fresh_budget,
    })
}

/// Executes a compiled plan on one encrypted input under a [`RunPolicy`]:
/// the driver's per-step isolation and probe, with the policy's
/// [`FaultPlan`] (if any) injected (see the module header). Every
/// [`super::InferenceSession`] request is one call of this; `batch_input`
/// names the input in [`AthenaError::ShapeMismatch`] and scopes the fault
/// plan's `on_input` filter.
///
/// The steps perform exact modular arithmetic in a fixed order and the
/// only sampler draws are the input encryption's, so the logits depend on
/// nothing in the policy: probe on or off, they are bit-identical.
#[allow(clippy::too_many_arguments)]
pub fn execute_resilient(
    engine: &AthenaEngine,
    secrets: &AthenaSecrets,
    keys: &AthenaEvalKeys,
    plan: &ExecutionPlan,
    input: &ITensor,
    sampler: &mut Sampler,
    policy: &RunPolicy,
    batch_input: Option<usize>,
) -> Result<PlanRun, AthenaError> {
    let mut backend = EncryptedBackend::new(engine, secrets, keys, sampler);
    let run = drive(&mut backend, plan, input, policy, batch_input)?;
    Ok(PlanRun {
        logits: run.logits,
        stats: backend.into_stats(),
        steps: run.steps,
        fresh_budget: run.fresh_budget,
    })
}

/// Executes a compiled plan on one encrypted input: [`execute_resilient`]
/// under the default policy (no probe, no faults).
///
/// # Panics
///
/// Panics with the [`AthenaError`]'s message if the run fails — a
/// wrong-shaped input or a step that panicked; callers that need the typed
/// value use [`execute_resilient`].
pub fn execute(
    engine: &AthenaEngine,
    secrets: &AthenaSecrets,
    keys: &AthenaEvalKeys,
    plan: &ExecutionPlan,
    input: &ITensor,
    sampler: &mut Sampler,
) -> PlanRun {
    let policy = RunPolicy::default();
    execute_resilient(engine, secrets, keys, plan, input, sampler, &policy, None)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Runs the plan through the noise-faithful [`NoiseSimBackend`]: exact
/// integer semantics with the §3.2.2 `e_ms` injection at every LWE drop,
/// no ciphertext work. At σ = 0 the logits equal the plain-Q integer
/// reference exactly (pinned in the backend-equivalence tests), so the
/// simulation is certified against the same plan the encrypted executor
/// interprets.
///
/// # Panics
///
/// Panics with the [`AthenaError`]'s message if the run fails (a
/// wrong-shaped input).
pub fn execute_sim(
    plan: &ExecutionPlan,
    input: &ITensor,
    noise: &NoiseSpec,
    sampler: &mut Sampler,
) -> SimRun {
    let mut backend = NoiseSimBackend::new(plan, noise, sampler);
    let run = drive(&mut backend, plan, input, &RunPolicy::default(), None)
        .unwrap_or_else(|e| panic!("{e}"));
    SimRun {
        predicted: crate::util::argmax(&run.logits),
        logits: run.logits,
    }
}

/// Runs the plan through the value-free [`CountingBackend`] and returns
/// one [`OpCounts`] per step, in execution order. This is the pass
/// [`super::compile`] uses to backfill [`super::PlanStep::analytic`] —
/// exposed so tests and reports can re-derive the counts independently.
pub fn execute_counting(engine: &AthenaEngine, plan: &ExecutionPlan) -> Vec<OpCounts> {
    let mut backend = CountingBackend::new(engine);
    let input = ITensor::zeros(&plan.input_shape);
    drive(&mut backend, plan, &input, &RunPolicy::default(), None)
        .unwrap_or_else(|e| panic!("{e}"))
        .tallied
}
