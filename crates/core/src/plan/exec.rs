//! The generic plan interpreter and its one driver.
//!
//! [`run_step`] owns the control flow of every step — group accumulation,
//! residual re-extraction, the pooling window streams and max tree — and
//! [`drive`] owns everything around it: input placement, the step walk,
//! per-step panic isolation, the deadline, the measured brackets that fill
//! [`StepReport`], and the noise probe. Both are generic over
//! [`PlanBackend`], so all three backends run the identical loop; the four
//! public entry points only construct a backend and call [`drive`]:
//!
//! * [`execute_resilient`] — one attempt of the encrypted run under a
//!   [`RunPolicy`] (deadline, noise probe, fault injection), every failure
//!   a typed [`AthenaError`];
//! * [`execute`] — the same under the default policy, panicking with the
//!   error's `Display` for callers with pre-validated inputs;
//! * [`execute_sim`] — the plan-driven noise-faithful simulation
//!   ([`super::NoiseSimBackend`]);
//! * [`execute_counting`] — the value-free analytic dry run
//!   ([`super::CountingBackend`]), which `compile` uses to backfill
//!   [`super::PlanStep::analytic`].
//!
//! ## Panic safety and quarantine
//!
//! [`drive`] wraps every step in `catch_unwind`. When a step unwinds, it
//! quarantines the scratch arena ([`athena_math::arena::quarantine`])
//! *before* constructing the typed error: the generation bump means every
//! limb buffer checked out by the faulted request — including
//! partially-written ones still held by the executor state — is freed on
//! drop instead of recycled into the pool, so a faulted request can never
//! leak scratch state into a later run. The caught payload is downcast
//! back into the taxonomy: a typed [`athena_fhe::FheError`] becomes
//! [`AthenaError::KeyMissing`] or [`AthenaError::Fhe`], a panic that
//! poisoned a pool shard becomes [`AthenaError::PoolPoisoned`], and
//! anything else [`AthenaError::StepPanicked`] — callers never see a raw
//! unwind.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use athena_fhe::fbs::Lut;
use athena_fhe::FheError;
use athena_math::arena;
use athena_math::sampler::Sampler;
use athena_math::stats::{alloc_stats, op_stats};
use athena_nn::tensor::ITensor;

use crate::pipeline::{AthenaEngine, AthenaEvalKeys, AthenaSecrets, PipelineStats};
use crate::simulate::NoiseSpec;
use crate::trace::{OpCounts, Phase};

use super::backend::{CountingBackend, EncryptedBackend, NoiseSimBackend, PlanBackend};
use super::error::{panic_text, AthenaError, RunPolicy};
use super::fault::{FaultInjectingBackend, FaultKind, FaultPlan};
use super::ir::{counts_from_hom, ExecutionPlan, StepOp};

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
    /// Counter-measured counts (zero when the `op-stats` feature is off,
    /// and attributable only when no other thread drives the engine
    /// concurrently — the counters are process-global).
    pub measured: OpCounts,
    /// Arena limb-buffer allocation counts of the step (zero when the
    /// `alloc-stats` feature is off; process-global, like `measured`).
    /// `takes` and the drop total are schedule-independent; the
    /// `fresh`/pooled split of a *cold* step depends on thread
    /// interleaving, so only the warm-pool invariant `fresh == 0` is
    /// meaningful across thread counts.
    pub alloc: alloc_stats::AllocCounts,
    /// Compile-time analytic noise charge in bits
    /// ([`super::PlanStep::noise_bits`]).
    pub noise_bits: u32,
    /// Measured invariant-noise budget of the step's RLWE output, sampled
    /// right after the step ran. `Some` only when [`RunPolicy::probe`] is
    /// on, the backend answers [`PlanBackend::noise_budget`], and the step
    /// produces an RLWE value (`linear`, `pack`, `fbs`, `s2c`) — extraction
    /// and LWE-level steps have no `Q`-basis ciphertext to probe, and the
    /// pooling composite's inner chains end at the LWE level.
    pub noise_budget: Option<i64>,
    /// Measured noise consumption of the step in bits: the budget of its
    /// RLWE input (the stored value for `linear`, the fresh input budget
    /// for `pack` — packing restarts the chain from fresh key-material
    /// noise — the packed/bootstrapped register for `fbs`/`s2c`) minus
    /// [`StepReport::noise_budget`]. The plan pins
    /// `noise_bits ≥ noise_consumed` in tests.
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
}

impl<B: PlanBackend> ExecState<B> {
    fn new(plan: &ExecutionPlan) -> Self {
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
        }
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
            st.cur = Some(backend.linear(ct, kernel, bias));
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
            // (it is never amplified by a modular halving).
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
                let relu_ct = backend.fbs(&packed, &relu, &diffs);
                let relu_coeff = backend.s2c(&relu_ct);
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
            st.packed = Some(backend.pack(&slots));
            st.slots = slots;
        }
        StepOp::Fbs { lut } => {
            let packed = st.packed.take().expect("packed ciphertext");
            st.boot = Some(backend.fbs(&packed, lut, &st.slots));
        }
        StepOp::S2C { value, .. } => {
            let boot = st.boot.take().expect("bootstrapped ciphertext");
            st.values[*value] = Some(backend.s2c(&boot));
            st.slots.clear();
        }
        StepOp::Output { scale } => {
            st.logits = backend.output(&st.acc, *scale);
        }
    }
}

/// Per-register noise-budget tracker for probe mode: mirrors the RLWE
/// registers of [`ExecState`] so each step's consumption is measured
/// against its actual chain predecessor.
struct NoiseTracker {
    /// Fresh input budget (also the baseline of every `pack`, whose output
    /// noise is built from fresh packing-key encryptions).
    fresh: i64,
    /// Budget of each stored value (input + S2C outputs).
    values: Vec<Option<i64>>,
    /// Budget after the last `pack`.
    packed: Option<i64>,
    /// Budget after the last `fbs`.
    boot: Option<i64>,
}

/// Probes the RLWE register a step just wrote and charges the consumption
/// to the step's chain predecessor: `(budget, consumed)`. Steps whose
/// output lives below the RLWE layer (extraction, dimension/modulus
/// switches, LWE adds, the pooling composites, output) yield `None`.
fn probe_step<B: PlanBackend>(
    backend: &B,
    op: &StepOp,
    st: &ExecState<B>,
    tr: &mut NoiseTracker,
) -> Option<(i64, Option<i64>)> {
    match op {
        StepOp::Linear { value, .. } => {
            let after = backend.noise_budget(st.cur.as_ref().expect("linear output"))?;
            Some((after, tr.values[*value].map(|b| b - after)))
        }
        StepOp::Pack { .. } => {
            // Packing starts a new chain: its output noise is a sum of
            // PMulted fresh packing-key encryptions, so the fresh budget
            // is the chain's baseline.
            let after = backend.noise_budget(st.packed.as_ref().expect("packed output"))?;
            tr.packed = Some(after);
            Some((after, Some(tr.fresh - after)))
        }
        StepOp::Fbs { .. } => {
            let after = backend.noise_budget(st.boot.as_ref().expect("bootstrapped output"))?;
            let consumed = tr.packed.take().map(|b| b - after);
            tr.boot = Some(after);
            Some((after, consumed))
        }
        StepOp::S2C { value, .. } => {
            let after = backend.noise_budget(st.values[*value].as_ref().expect("s2c output"))?;
            let consumed = tr.boot.take().map(|b| b - after);
            tr.values[*value] = Some(after);
            Some((after, consumed))
        }
        _ => None,
    }
}

/// Classifies a caught panic payload into the [`AthenaError`] taxonomy.
/// `recoveries` is the number of poisoned arena-shard locks recovered
/// during the attempt (a nonzero count means the panic crossed — or
/// another holder of — a shard lock, so the pool itself was implicated).
fn classify_panic(
    payload: Box<dyn std::any::Any + Send>,
    node: usize,
    step: usize,
    label: &'static str,
    recoveries: usize,
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
    let payload = panic_text(payload.as_ref());
    if recoveries > 0 {
        AthenaError::PoolPoisoned {
            recoveries,
            payload,
        }
    } else {
        AthenaError::StepPanicked {
            node,
            step,
            label,
            payload,
        }
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

/// Drives `backend` through one attempt of the whole plan: places and
/// encrypts the input, then walks every step in order. The single place
/// the step loop lives — every backend, wrapped or bare, gets the same
/// isolation and telemetry:
///
/// * a wrong-shaped input is a typed [`AthenaError::ShapeMismatch`]
///   (`batch_input` names it), never a panic;
/// * the encryption and every step run inside `catch_unwind`, with the
///   scratch arena quarantined before the payload is classified;
/// * the policy's cooperative deadline is checked before each step;
/// * `op-stats` / `alloc-stats` brackets fill [`StepReport::measured`] and
///   [`StepReport::alloc`];
/// * with [`RunPolicy::probe`] on — or forced on by a
///   [`FaultKind::NoiseSpike`] in the policy's fault plan, since an
///   artificial budget burn is only observable at a probe point — the
///   measured budget of every RLWE-producing step is sampled through
///   [`PlanBackend::noise_budget`], and the run aborts with
///   [`AthenaError::NoiseExhausted`] the moment one reaches zero. A
///   backend that cannot answer the query is simply not probed.
///
/// A spike drained from [`PlanBackend::take_spike`] at a step with no
/// RLWE output is carried to the next probed step (noise travels down the
/// chain); one injected past the last probe point is charged against the
/// fresh-input baseline at end of run.
///
/// Probing performs no sampler draws and no homomorphic ops, so logits and
/// measured counts are bit-identical with the probe on or off.
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
    let start = Instant::now();
    let poison_base = arena::poison_recoveries();
    // Quarantine-then-classify on every caught unwind: the generation
    // bump must land before the executor state (and its in-flight limb
    // checkouts) drops, so nothing the faulted attempt touched is pooled.
    let caught =
        |payload: Box<dyn std::any::Any + Send>, node: usize, step: usize, label: &'static str| {
            arena::quarantine();
            let recoveries = arena::poison_recoveries() - poison_base;
            classify_panic(payload, node, step, label, recoveries)
        };

    // The flat input activations, at the plan's input-layout coefficient
    // positions.
    let mut coeffs = vec![0i64; plan.n];
    for (flat, &pos) in plan.input_positions.iter().enumerate() {
        coeffs[pos] = input.data()[flat];
    }
    let first_node = plan.layers.first().map_or(0, |l| l.node);
    let encrypted = catch_unwind(AssertUnwindSafe(|| backend.encrypt_input(&coeffs)))
        .map_err(|p| caught(p, first_node, 0, "encrypt"))?;

    let spikes = policy.faults.as_ref().is_some_and(|fp| {
        fp.faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::NoiseSpike { .. }))
    });
    let fresh_budget = if policy.probe || spikes {
        backend.noise_budget(&encrypted)
    } else {
        None
    };
    let mut tracker = fresh_budget.map(|fresh| {
        let mut values = vec![None; plan.layers.len() + 1];
        values[0] = Some(fresh);
        NoiseTracker {
            fresh,
            values,
            packed: None,
            boot: None,
        }
    });
    let mut st = ExecState::new(plan);
    st.values[0] = Some(encrypted);

    let mut steps = Vec::with_capacity(plan.step_count());
    let mut tallied = Vec::with_capacity(plan.step_count());
    let mut carry_spike: i64 = 0;
    let mut flat = 0usize;
    for layer in &plan.layers {
        for (si, step) in layer.steps.iter().enumerate() {
            let label = step.op.label();
            if let Some(deadline) = policy.deadline {
                if start.elapsed() >= deadline {
                    return Err(AthenaError::DeadlineExceeded {
                        node: layer.node,
                        step: si,
                        label,
                        deadline,
                    });
                }
            }
            let (((), hom), alloc) = catch_unwind(AssertUnwindSafe(|| {
                alloc_stats::measure(|| {
                    op_stats::measure(|| {
                        backend.note_step(layer.node, si, flat);
                        run_step(backend, plan, &step.op, &mut st)
                    })
                })
            }))
            .map_err(|p| caught(p, layer.node, si, label))?;
            flat += 1;
            tallied.push(backend.take_counts());
            carry_spike += i64::from(backend.take_spike());
            // A probe point absorbs whatever spike was carried down to it.
            let probed = tracker
                .as_mut()
                .and_then(|tr| probe_step(backend, &step.op, &st, tr))
                .map(|(budget, consumed)| (budget - std::mem::take(&mut carry_spike), consumed));
            steps.push(StepReport {
                node: layer.node,
                step: si,
                label,
                phase: step.phase,
                analytic: step.analytic,
                measured: counts_from_hom(&hom),
                alloc,
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
    // A spike injected after the last probe point: charge it against the
    // fresh-input baseline so it still surfaces typed.
    if let Some(fresh) = fresh_budget {
        let budget = fresh - carry_spike;
        if carry_spike > 0 && budget <= 0 {
            let (node, step, label) = steps
                .last()
                .map_or((0, 0, "encrypt"), |s| (s.node, s.step, s.label));
            return Err(AthenaError::NoiseExhausted(NoiseExhausted {
                node,
                step,
                label,
                budget,
                analytic_bits: 0,
                consumed: None,
            }));
        }
    }
    Ok(Driven {
        logits: st.logits,
        steps,
        tallied,
        fresh_budget,
    })
}

/// Executes one attempt of a compiled plan on one encrypted input under a
/// [`RunPolicy`]: the driver's per-step isolation, deadline and probe (see
/// the module header), with the policy's [`FaultPlan`] (if any) injected.
/// This is the single-attempt primitive [`super::InferenceSession`] builds
/// its retry loop on; `attempt` (1-based) and `batch_input` scope the fault
/// plan's filters.
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
    attempt: u32,
    batch_input: Option<usize>,
) -> Result<PlanRun, AthenaError> {
    // An empty fault plan makes the wrapper a pure forwarder, so one call
    // serves both the production and the chaos path.
    let no_faults = FaultPlan::default();
    let mut backend = FaultInjectingBackend::new(
        EncryptedBackend::new(engine, secrets, keys, sampler),
        policy.faults.as_ref().unwrap_or(&no_faults),
        attempt,
        batch_input,
    );
    let run = drive(&mut backend, plan, input, policy, batch_input)?;
    Ok(PlanRun {
        logits: run.logits,
        stats: backend.into_inner().into_stats(),
        steps: run.steps,
        fresh_budget: run.fresh_budget,
    })
}

/// Executes a compiled plan on one encrypted input: [`execute_resilient`]
/// under the default policy (no deadline, no probe, no faults).
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
    execute_resilient(
        engine, secrets, keys, plan, input, sampler, &policy, 1, None,
    )
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
