//! Plan types and the compiler: the typed step program, key requirements,
//! trace derivation, and plan-driven key generation.

use athena_fhe::fbs::Lut;
use athena_fhe::noise::{NoiseModel, StepDepths};
use athena_math::sampler::Sampler;
use athena_nn::models::ConvShape;
use athena_nn::qmodel::{QLinear, QModel, QOp, QuantConfig};
use athena_nn::tensor::ITensor;

use std::fmt;

use crate::encoding::{ConvEncoder, EncodingError};
use crate::pipeline::{AthenaEngine, AthenaEvalKeys, AthenaSecrets, PackingMethod};
use crate::trace::{LayerTrace, ModelTrace, OpCounts, Phase, TraceParams};

use super::exec::execute_counting;

/// Typed failure of plan compilation. Everything here is reachable with a
/// user-supplied model on the serving path ([`super::InferenceSession`]),
/// so [`try_compile`] returns these as values; [`compile`] keeps the
/// panicking contract for internal callers with pre-validated models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The model has no nodes.
    EmptyModel,
    /// The input tensor is not rank-3 (`[C, H, W]`).
    BadInputShape {
        /// The shape supplied.
        shape: Vec<usize>,
    },
    /// The final node is a pooling op. The integer reference
    /// ([`QModel::forward`]) defines logits only for a final *linear*
    /// node (pool-final models return no logits), so there is nothing
    /// well-defined for the encrypted pipeline to output.
    PoolingFinal {
        /// Offending node index.
        node: usize,
    },
    /// A node reads a value that is not produced before it runs
    /// (`input`/`skip` must reference value `0..=node`).
    BadReference {
        /// Offending node index.
        node: usize,
        /// The out-of-range value index.
        value: usize,
    },
    /// A coefficient encoding rejected the layer.
    Encoding {
        /// Offending node index.
        node: usize,
        /// The underlying encoding failure.
        source: EncodingError,
    },
    /// The layer does not fit the ring degree even with one output
    /// channel per group.
    LayerTooLarge {
        /// Offending node index.
        node: usize,
        /// Ring degree.
        n: usize,
    },
    /// Input channel count does not match the consumed value's shape
    /// (conv: weight `C_in` vs value channels; FC: weight `C_in` vs the
    /// value's flat length).
    ChannelMismatch {
        /// Offending node index.
        node: usize,
        /// Channels the weight expects.
        expected: usize,
        /// Channels the consumed value provides.
        got: usize,
    },
    /// Bias length does not match the layer's output channel count.
    BiasMismatch {
        /// Offending node index.
        node: usize,
        /// Output channel count.
        expected: usize,
        /// Bias entries supplied.
        got: usize,
    },
    /// The kernel is larger than the (padded) input extent it slides
    /// over, or an FC weight has a spatial kernel.
    KernelExceedsInput {
        /// Offending node index.
        node: usize,
        /// Kernel size `K`.
        k: usize,
        /// Padded input extent the kernel must fit.
        extent: usize,
    },
    /// A stride or pool kernel of zero.
    ZeroDim {
        /// Offending node index.
        node: usize,
    },
    /// Pooling would produce an empty output (`k` exceeds the input).
    PoolEmptyOutput {
        /// Offending node index.
        node: usize,
        /// Pool kernel.
        k: usize,
        /// Input spatial extent.
        h: usize,
    },
    /// A residual skip's element count differs from the accumulator's.
    SkipShapeMismatch {
        /// Offending node index.
        node: usize,
        /// Accumulator element count.
        acc: usize,
        /// Skip value element count.
        skip: usize,
    },
    /// A value is consumed under conflicting layouts: every linear/pool
    /// consumer of one stored value must demand the same padding (the
    /// value is packed into coefficient slots exactly once, for its
    /// first consumer).
    LayoutConflict {
        /// The multiply-consumed value index.
        value: usize,
        /// The distinct paddings demanded by its consumers.
        paddings: Vec<usize>,
    },
    /// A stored value (with its consumer's padding) exceeds the ring.
    ValueTooLarge {
        /// The value index.
        value: usize,
        /// Padded slot count the consumer demands.
        len: usize,
        /// Ring degree.
        n: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::EmptyModel => write!(f, "model has no nodes"),
            CompileError::BadInputShape { shape } => {
                write!(f, "input must be rank-3 [C, H, W], got {shape:?}")
            }
            CompileError::PoolingFinal { node } => write!(
                f,
                "node {node}: final node is a pooling op (no logits defined); end with a linear node"
            ),
            CompileError::BadReference { node, value } => {
                write!(f, "node {node}: reads value {value} which is not yet produced")
            }
            CompileError::Encoding { node, source } => write!(f, "node {node}: {source}"),
            CompileError::LayerTooLarge { node, n } => write!(
                f,
                "node {node}: layer does not fit ring degree {n} even with one output channel"
            ),
            CompileError::ChannelMismatch {
                node,
                expected,
                got,
            } => write!(
                f,
                "node {node}: input channel mismatch (weight expects {expected}, value has {got})"
            ),
            CompileError::BiasMismatch {
                node,
                expected,
                got,
            } => write!(f, "node {node}: bias length {got} != output channels {expected}"),
            CompileError::KernelExceedsInput { node, k, extent } => write!(
                f,
                "node {node}: kernel {k} exceeds padded input extent {extent}"
            ),
            CompileError::ZeroDim { node } => {
                write!(f, "node {node}: stride / pool kernel must be nonzero")
            }
            CompileError::PoolEmptyOutput { node, k, h } => {
                write!(f, "node {node}: pool k={k} over extent {h} yields an empty output")
            }
            CompileError::SkipShapeMismatch { node, acc, skip } => write!(
                f,
                "node {node}: skip value has {skip} elements, accumulator has {acc}"
            ),
            CompileError::LayoutConflict { value, paddings } => write!(
                f,
                "value {value}: consumers demand conflicting paddings {paddings:?}"
            ),
            CompileError::ValueTooLarge { value, len, n } => {
                write!(f, "value {value}: padded layout of {len} slots exceeds ring degree {n}")
            }
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Encoding { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The layout a consumer wants its input packed into.
#[derive(Debug, Clone)]
pub(crate) struct ConsumerLayout {
    /// For each slot `s`, which flat activation index goes there (None =
    /// trivial zero / padding).
    pub slot_of: Vec<Option<usize>>,
    /// `positions[i]` = slot (= coefficient after S2C) of flat activation
    /// `i`.
    pub positions: Vec<usize>,
}

pub(crate) fn flat_layout(len: usize, n: usize) -> ConsumerLayout {
    assert!(len <= n, "value of {len} activations exceeds {n} slots");
    let mut slot_of = vec![None; n];
    for (i, s) in slot_of.iter_mut().take(len).enumerate() {
        *s = Some(i);
    }
    ConsumerLayout {
        slot_of,
        positions: (0..len).collect(),
    }
}

/// Padded `M̂` layout for a conv consumer: activation `(c,h,w)` of the
/// unpadded tensor goes to slot `c·H'W' + (h+p)·W' + (w+p)`.
pub(crate) fn conv_layout(shape: &[usize], padding: usize, n: usize) -> ConsumerLayout {
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    let (hp, wp) = (h + 2 * padding, w + 2 * padding);
    assert!(c * hp * wp <= n, "padded input does not fit the ring");
    let mut slot_of = vec![None; n];
    let mut positions = vec![0usize; c * h * w];
    for ci in 0..c {
        for y in 0..h {
            for x in 0..w {
                let flat = (ci * h + y) * w + x;
                let slot = ci * hp * wp + (y + padding) * wp + (x + padding);
                slot_of[slot] = Some(flat);
                positions[flat] = slot;
            }
        }
    }
    ConsumerLayout { slot_of, positions }
}

/// Layout for the consumer of value `value_idx` (first node reading it):
/// conv consumers get the padded `M̂` layout of Eq. 1, everything else flat.
pub(crate) fn consumer_layout(
    model: &QModel,
    value_idx: usize,
    shape: &[usize],
    n: usize,
) -> ConsumerLayout {
    for node in &model.nodes {
        if node.input == value_idx {
            return match &node.op {
                QOp::Linear(l) if !l.is_fc => conv_layout(shape, l.padding, n),
                _ => flat_layout(shape.iter().product(), n),
            };
        }
    }
    flat_layout(shape.iter().product(), n)
}

/// One typed step of the plan.
#[derive(Debug, Clone)]
pub enum StepOp {
    /// Coefficient-encoded conv/FC over stored value `value`: one PMult by
    /// the pre-encoded `kernel` polynomial plus a bias add when `bias` is
    /// non-empty. Large layers appear as several `Linear` steps (one per
    /// output-channel group that fits the ring).
    Linear {
        /// Input value index.
        value: usize,
        /// Encoded kernel polynomial coefficients.
        kernel: Vec<i64>,
        /// Bias terms at output coefficient positions.
        bias: Vec<(usize, i64)>,
    },
    /// Modulus switch `Q → q_mid` of the pending linear output (`None`) or
    /// of a stored value (`Some(idx)` — pooling reads its producer).
    ModSwitch {
        /// Source value, or `None` for the preceding `Linear` output.
        value: Option<usize>,
    },
    /// Sample extraction (Alg. 1) of the listed coefficients.
    ExtractLwes {
        /// Coefficient positions, in flat-activation order.
        positions: Vec<usize>,
    },
    /// LWE dimension switch `N → n`; with `drop_to_t` the LWEs also pay the
    /// final modulus drop (the `e_ms` rounding) — skipped for client-bound
    /// accumulators. Appends to the layer's LWE accumulator.
    DimSwitch {
        /// Whether to drop the switched LWEs from `q_mid` to `t`.
        drop_to_t: bool,
    },
    /// Residual skip: re-extract the skip value's LWEs (mod switch + sample
    /// extraction + dimension switch) and add them into the accumulator at
    /// the LWE level, scaled by `mult`.
    ResidualAdd {
        /// Skip value index.
        skip: usize,
        /// Coefficient positions of the skip value.
        positions: Vec<usize>,
        /// Integer alignment multiplier.
        mult: i64,
        /// Whether the skip LWEs drop to `t` (must match the accumulator's
        /// level).
        drop_to_t: bool,
    },
    /// Max-pooling composite: `k²` window streams over the accumulator and
    /// a max tree of `k²−1` rounds, each a full
    /// diff → pack → FBS(ReLU) → S2C → extract cycle.
    MaxReduce {
        /// Pool kernel (= stride).
        k: usize,
        /// Input shape `[c, h, w]` of the accumulator.
        shape: [usize; 3],
    },
    /// Average-pooling composite: exact LWE-level window sums (the divide
    /// rides the next FBS LUT).
    AvgReduce {
        /// Pool kernel (= stride).
        k: usize,
        /// Input shape `[c, h, w]` of the accumulator.
        shape: [usize; 3],
    },
    /// Packing: place accumulator LWEs into slots per `slot_of` (trivial
    /// zeros elsewhere) and run the LWE → RLWE homomorphic decryption.
    Pack {
        /// `slot_of[s]` = flat accumulator index for slot `s`.
        slot_of: Vec<Option<usize>>,
    },
    /// Functional bootstrapping with the materialized fused remap LUT
    /// (plus the non-valid-slot mask when the LUT moves 0).
    Fbs {
        /// The LUT, resolved at compile time.
        lut: Lut,
    },
    /// Slot-to-coefficient bridge; stores the result as value `value`.
    S2C {
        /// Output value index.
        value: usize,
        /// Coefficient positions of the stored value (for its consumers).
        positions: Vec<usize>,
        /// Logical shape of the stored value.
        shape: Vec<usize>,
    },
    /// Client-side decryption of the accumulator and dequantization by
    /// `scale`.
    Output {
        /// Dequantization factor (`in_scale·w_scale` for a final linear
        /// layer, 1 otherwise).
        scale: f64,
    },
}

impl StepOp {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            StepOp::Linear { .. } => "linear",
            StepOp::ModSwitch { .. } => "mod_switch",
            StepOp::ExtractLwes { .. } => "extract",
            StepOp::DimSwitch { .. } => "dim_switch",
            StepOp::ResidualAdd { .. } => "residual_add",
            StepOp::MaxReduce { .. } => "max_reduce",
            StepOp::AvgReduce { .. } => "avg_reduce",
            StepOp::Pack { .. } => "pack",
            StepOp::Fbs { .. } => "fbs",
            StepOp::S2C { .. } => "s2c",
            StepOp::Output { .. } => "output",
        }
    }
}

/// One plan step plus its static metadata.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// The operation.
    pub op: StepOp,
    /// Phase attribution (Fig. 9 breakdown).
    pub phase: Phase,
    /// Analytic operation counts the step should perform. The compiler
    /// fills these by dry-running the finished plan through the value-free
    /// [`super::CountingBackend`] — the same generic `run_step`
    /// interpreter the executor uses, with each engine primitive replaced
    /// by its schedule dry-run — so the analytic accounting is literally
    /// the execution code path. The executor's measured counts must match
    /// these exactly up to documented data-dependent skips.
    pub analytic: OpCounts,
    /// Analytic noise charge in bits (Table-4 model): an upper bound on
    /// the invariant-noise growth this step inflicts on the RLWE chain it
    /// participates in, computed at compile time from
    /// [`athena_fhe::noise::NoiseModel`]/[`StepDepths`] with the step's
    /// concrete fan-ins.
    /// Steps that operate below the RLWE layer (extraction, dimension
    /// switch, LWE adds, output) charge 0; the pooling composite charges
    /// its worst single inner pack→FBS→S2C chain (each round restarts from
    /// fresh packing noise, so one round's chain is the binding
    /// constraint). Probed runs ([`super::RunPolicy::probe`]) pin
    /// `charge ≥ measured consumption` per step.
    pub noise_bits: u32,
}

/// All steps of one model node.
#[derive(Debug, Clone)]
pub struct PlanLayer {
    /// Node index in the source model.
    pub node: usize,
    /// Steps in execution order.
    pub steps: Vec<PlanStep>,
}

/// Key material a plan demands (all deduplicated).
#[derive(Debug, Clone, Default)]
pub struct KeyRequirements {
    /// Galois elements for every rotation in the plan (S2C ∪ BSGS packing),
    /// sorted and deduplicated.
    pub galois: Vec<usize>,
    /// Whether the BSGS packing key is used.
    pub pack_bsgs: bool,
}

/// A compiled execution plan: the typed IR the executor interprets, the
/// trace derives from, and keygen sizes key material against.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Ring degree.
    pub n: usize,
    /// Plaintext modulus.
    pub t: u64,
    /// Intermediate extraction prime.
    pub q_mid: u64,
    /// Small LWE dimension.
    pub lwe_n: usize,
    /// RNS limb count of `Q`.
    pub limbs: usize,
    /// Packing method the plan was compiled for.
    pub packing: PackingMethod,
    /// Coefficient position of each flat input activation.
    pub input_positions: Vec<usize>,
    /// Input tensor shape.
    pub input_shape: Vec<usize>,
    /// Per-node step lists.
    pub layers: Vec<PlanLayer>,
    keys: KeyRequirements,
}

impl ExecutionPlan {
    /// The key material this plan demands.
    pub fn required_keys(&self) -> &KeyRequirements {
        &self.keys
    }

    /// Total step count.
    pub fn step_count(&self) -> usize {
        self.layers.iter().map(|l| l.steps.len()).sum()
    }

    /// Sum of all steps' analytic counts.
    pub fn analytic_total(&self) -> OpCounts {
        let mut t = OpCounts::default();
        for l in &self.layers {
            for s in &l.steps {
                t.add(&s.analytic);
            }
        }
        t
    }

    /// The worst single RLWE chain's analytic noise charge in bits: each
    /// `pack` starts a fresh chain (homomorphic decryption re-encrypts
    /// from fresh key material) that runs pack → FBS → S2C → the next
    /// `linear`, so the decryptability constraint of Table 4 is the
    /// maximum chain total, not the whole-plan sum. The input encryption
    /// opens the first chain (its `linear` steps charge against fresh
    /// noise too).
    pub fn worst_chain_noise_bits(&self) -> u32 {
        let mut worst = 0u32;
        let mut chain = 0u32;
        for l in &self.layers {
            for s in &l.steps {
                if matches!(s.op, StepOp::Pack { .. }) {
                    worst = worst.max(chain);
                    chain = 0;
                }
                chain += s.noise_bits;
            }
        }
        worst.max(chain)
    }

    /// Derives the [`ModelTrace`] the accelerator model consumes from the
    /// plan's analytic per-step counts: same steps, same schedules — the
    /// trace *is* the plan, re-grouped by (layer, phase).
    pub fn to_trace(&self, name: &'static str, quant: &QuantConfig) -> ModelTrace {
        let params = TraceParams {
            n: self.n,
            limbs: self.limbs,
            t: self.t,
            lwe_n: self.lwe_n,
        };
        let layers = self
            .layers
            .iter()
            .map(|pl| {
                let mut per: Vec<(Phase, OpCounts)> = Phase::all()
                    .iter()
                    .map(|&p| (p, OpCounts::default()))
                    .collect();
                for s in &pl.steps {
                    let slot = per
                        .iter_mut()
                        .find(|(p, _)| *p == s.phase)
                        .expect("phase present");
                    slot.1.add(&s.analytic);
                }
                LayerTrace {
                    layer: pl.node,
                    phases: per
                        .into_iter()
                        .filter(|(_, c)| *c != OpCounts::default())
                        .collect(),
                }
            })
            .collect();
        ModelTrace {
            name,
            params,
            quant: *quant,
            layers,
        }
    }
}

/// The runtime noise charge of one FBS step: the paper's Table-4 row
/// ([`StepDepths::fbs`]: `⌈log₂(t−1)⌉+1` CMult, 1 SMult,
/// `⌈log₂(t−1)⌉−1` HAdd) plus the slack the concrete Alg. 2 schedule
/// demonstrably pays and the paper's production row absorbs in its
/// Δ-granularity rounding: one binary operand-sum HAdd per CMult level
/// (`v_out ≈ N·t·(v₁+v₂)` — the `+v₂` is a real bit per depth), the
/// relinearization key-switch slack (`ks_slack` — injected at every tree
/// level and amplified by the remainder, bounded by one floor hop), and
/// the non-valid-slot mask PMult when the LUT moves 0. The
/// noise-telemetry tests pin this as a true upper bound on the measured
/// consumption; §7 of DESIGN.md records the deviation from the published
/// row.
fn fbs_runtime_charge(t: u64, mask: bool, nm: &NoiseModel, ks_slack: u32) -> u32 {
    let d = StepDepths::fbs(t).cmult; // ⌈log₂(t−1)⌉ + 1
    StepDepths::fbs(t)
        .with_pmult(u32::from(mask))
        .with_hadd(d)
        .noise_bits(nm)
        + ks_slack
}

/// One output-channel group of a linear layer, fully resolved.
struct LinearGroupPlan {
    kernel: Vec<i64>,
    bias: Vec<(usize, i64)>,
    positions: Vec<usize>,
}

/// Splits a linear layer into output-channel groups that fit the ring and
/// resolves each group's encoded kernel, bias placement, and output
/// positions (the planner half of the old `run_linear_accumulate`).
/// `node` only labels errors.
fn plan_linear_groups(
    node: usize,
    n: usize,
    in_shape: &[usize],
    in_len: usize,
    l: &QLinear,
) -> Result<(Vec<LinearGroupPlan>, Vec<usize>), CompileError> {
    let (c_out, c_in, k) = (
        l.weight.shape()[0],
        l.weight.shape()[1],
        l.weight.shape()[2],
    );
    // Effective input spatial dims (padded for conv; 1×1 for FC). The
    // shape-level constraints (channel/bias/kernel fit, nonzero stride)
    // were checked by `validate_model` before planning started.
    let (hp, wp) = if l.is_fc {
        (1usize, 1usize)
    } else {
        (in_shape[1] + 2 * l.padding, in_shape[2] + 2 * l.padding)
    };
    let eff_cin = if l.is_fc { in_len } else { c_in };
    debug_assert_eq!(
        if l.is_fc { eff_cin } else { c_in },
        if l.is_fc { c_in } else { in_shape[0] },
        "input channel mismatch"
    );
    // Choose output-channel group size that fits.
    let hw = hp * wp;
    let mut co_g = c_out;
    loop {
        let t_idx = hw * (co_g * eff_cin - 1) + wp * (k - 1) + k - 1;
        if t_idx + eff_cin * hw <= n {
            break;
        }
        if co_g == 1 {
            return Err(CompileError::LayerTooLarge { node, n });
        }
        co_g = co_g.div_ceil(2);
    }
    let groups = c_out.div_ceil(co_g);
    let valid = hp - k + 1;
    let out_hw = if l.is_fc {
        1
    } else {
        (in_shape[1] + 2 * l.padding - k) / l.stride + 1
    };
    let mut out = Vec::with_capacity(groups);
    for g in 0..groups {
        let co_lo = g * co_g;
        let co_hi = ((g + 1) * co_g).min(c_out);
        let g_cout = co_hi - co_lo;
        let shape = ConvShape {
            hw: hp,
            c_in: eff_cin,
            c_out: g_cout,
            k,
            stride: 1,
            padding: 0,
        };
        let enc = ConvEncoder::try_new(shape, n)
            .map_err(|source| CompileError::Encoding { node, source })?;
        let per = eff_cin * k * k;
        let kw = ITensor::from_vec(
            &[g_cout, eff_cin, k, k],
            l.weight.data()[co_lo * per..co_hi * per].to_vec(),
        );
        let mut bias = Vec::new();
        let mut positions = Vec::new();
        for co in 0..g_cout {
            for oy in 0..out_hw {
                for ox in 0..out_hw {
                    let (y, x) = (oy * l.stride, ox * l.stride);
                    debug_assert!(y < valid && x < valid);
                    let pos = enc.output_index(co, y, x);
                    positions.push(pos);
                    let b = l.bias[co_lo + co];
                    if b != 0 {
                        bias.push((pos, b));
                    }
                }
            }
        }
        out.push(LinearGroupPlan {
            kernel: enc
                .try_encode_kernel(&kw)
                .map_err(|source| CompileError::Encoding { node, source })?,
            bias,
            positions,
        });
    }
    Ok((out, vec![c_out, out_hw, out_hw]))
}

/// Shape-level validation of a model against a ring degree: walks the
/// dataflow once (no encoding work), inferring every value's shape and
/// rejecting anything the planner or the executor would otherwise panic
/// on. Also enforces the one-layout-per-value rule: every linear/pool
/// consumer of a stored value must demand the same padding, because the
/// value is packed into coefficient slots exactly once (for its first
/// consumer).
pub(crate) fn validate_model(
    model: &QModel,
    input_shape: &[usize],
    n: usize,
) -> Result<Vec<Vec<usize>>, CompileError> {
    if model.nodes.is_empty() {
        return Err(CompileError::EmptyModel);
    }
    if input_shape.len() != 3 {
        return Err(CompileError::BadInputShape {
            shape: input_shape.to_vec(),
        });
    }
    let last = model.nodes.len() - 1;
    if !matches!(model.nodes[last].op, QOp::Linear(_)) {
        return Err(CompileError::PoolingFinal { node: last });
    }
    let mut shapes: Vec<Vec<usize>> = vec![input_shape.to_vec()];
    for (ni, node) in model.nodes.iter().enumerate() {
        if node.input > ni {
            return Err(CompileError::BadReference {
                node: ni,
                value: node.input,
            });
        }
        let in_shape = shapes[node.input].clone();
        let out_shape: Vec<usize> = match &node.op {
            QOp::Linear(l) => {
                let (c_out, c_in, k) = (
                    l.weight.shape()[0],
                    l.weight.shape()[1],
                    l.weight.shape()[2],
                );
                if l.stride == 0 {
                    return Err(CompileError::ZeroDim { node: ni });
                }
                if l.bias.len() != c_out {
                    return Err(CompileError::BiasMismatch {
                        node: ni,
                        expected: c_out,
                        got: l.bias.len(),
                    });
                }
                if l.is_fc {
                    let in_len: usize = in_shape.iter().product();
                    if c_in != in_len {
                        return Err(CompileError::ChannelMismatch {
                            node: ni,
                            expected: c_in,
                            got: in_len,
                        });
                    }
                    if k != 1 {
                        return Err(CompileError::KernelExceedsInput {
                            node: ni,
                            k,
                            extent: 1,
                        });
                    }
                    // Single-output-channel group fit (the planner's co_g=1
                    // floor): 2·in_len − 1 coefficients.
                    if 2 * in_len - 1 > n {
                        return Err(CompileError::LayerTooLarge { node: ni, n });
                    }
                    vec![c_out, 1, 1]
                } else {
                    if c_in != in_shape[0] {
                        return Err(CompileError::ChannelMismatch {
                            node: ni,
                            expected: c_in,
                            got: in_shape[0],
                        });
                    }
                    let extent = in_shape[1].min(in_shape[2]) + 2 * l.padding;
                    if k == 0 || k > extent {
                        return Err(CompileError::KernelExceedsInput {
                            node: ni,
                            k,
                            extent,
                        });
                    }
                    // Single-output-channel group fit (the planner's co_g=1
                    // floor): the tail kernel tap plus one input copy.
                    let (hp, wp) = (in_shape[1] + 2 * l.padding, in_shape[2] + 2 * l.padding);
                    let hw = hp * wp;
                    let t_idx = hw * (c_in - 1) + wp * (k - 1) + k - 1;
                    if t_idx + c_in * hw > n {
                        return Err(CompileError::LayerTooLarge { node: ni, n });
                    }
                    let oh = (in_shape[1] + 2 * l.padding - k) / l.stride + 1;
                    let ow = (in_shape[2] + 2 * l.padding - k) / l.stride + 1;
                    vec![c_out, oh, ow]
                }
            }
            QOp::MaxPool { k } | QOp::AvgPool { k } => {
                if *k == 0 {
                    return Err(CompileError::ZeroDim { node: ni });
                }
                let (c, h, w) = (in_shape[0], in_shape[1], in_shape[2]);
                if h / k == 0 || w / k == 0 {
                    return Err(CompileError::PoolEmptyOutput {
                        node: ni,
                        k: *k,
                        h: h.min(w),
                    });
                }
                vec![c, h / k, w / k]
            }
        };
        if let Some((skip_idx, _)) = node.skip {
            if skip_idx > ni {
                return Err(CompileError::BadReference {
                    node: ni,
                    value: skip_idx,
                });
            }
            let acc: usize = out_shape.iter().product();
            let skip: usize = shapes[skip_idx].iter().product();
            if acc != skip {
                return Err(CompileError::SkipShapeMismatch {
                    node: ni,
                    acc,
                    skip,
                });
            }
        }
        shapes.push(out_shape);
    }
    // One layout per stored value: collect the padding every linear/pool
    // consumer demands (FC and pooling read the flat layout, which equals
    // a conv layout of padding 0) and reject conflicts. Residual skips
    // read by stored positions, so they are layout-agnostic.
    for (value, s) in shapes.iter().enumerate() {
        let mut paddings: Vec<usize> = Vec::new();
        for node in &model.nodes {
            if node.input != value {
                continue;
            }
            let p = match &node.op {
                QOp::Linear(l) if !l.is_fc => l.padding,
                _ => 0,
            };
            if !paddings.contains(&p) {
                paddings.push(p);
            }
        }
        if paddings.len() > 1 {
            return Err(CompileError::LayoutConflict { value, paddings });
        }
        let p = paddings.first().copied().unwrap_or(0);
        let len = s[0] * (s[1] + 2 * p) * (s[2] + 2 * p);
        if len > n {
            return Err(CompileError::ValueTooLarge { value, len, n });
        }
    }
    Ok(shapes)
}

/// Compiles a quantized model into an [`ExecutionPlan`] for an engine.
///
/// The structural pass below resolves layouts, group splits, LUTs, key
/// requirements, and per-step noise charges; the per-step *analytic op
/// counts* are then backfilled by dry-running the finished plan through
/// [`super::CountingBackend`] — the same `run_step` interpreter the
/// executor walks, so the analytic accounting cannot drift from the
/// execution semantics.
///
/// # Panics
///
/// Panics if the model is rejected by [`try_compile`] — misfit layers,
/// shape mismatches, pool-final models, conflicting consumer layouts.
pub fn compile(engine: &AthenaEngine, model: &QModel, input_shape: &[usize]) -> ExecutionPlan {
    try_compile(engine, model, input_shape)
        .unwrap_or_else(|e| panic!("plan compilation failed: {e}"))
}

/// Fallible [`compile`]: the serving path, which takes user-shaped models,
/// gets a typed [`CompileError`] instead of a panic.
pub fn try_compile(
    engine: &AthenaEngine,
    model: &QModel,
    input_shape: &[usize],
) -> Result<ExecutionPlan, CompileError> {
    let ctx = engine.context();
    let n = ctx.n();
    let t = ctx.t();
    let a_max = model.cfg.a_max();
    validate_model(model, input_shape, n)?;

    // The Table-4 noise model at this engine's parameters, and the charges
    // of the two fixed-shape tail steps. The S2C fan-in is the single-stage
    // transform's own diagonal count (its schedule is engine-static).
    // Key-switching steps (S2C and BSGS-packing rotations, FBS relin) also
    // charge the gadget noise-floor slack — see
    // `NoiseModel::keyswitch_slack_bits`.
    let nm = engine.noise_model();
    let limb_bits = ctx
        .params()
        .q_primes
        .iter()
        .map(|&p| 64 - p.leading_zeros())
        .max()
        .unwrap_or(0);
    let ks_slack = nm.keyswitch_slack_bits(limb_bits, ctx.params().q_primes.len() as u32);
    let pack_charge = StepDepths::packing(ctx.params().lwe_n as u64).noise_bits(&nm)
        + match engine.packing_method() {
            PackingMethod::Column => 0,
            PackingMethod::Bsgs => ks_slack,
        };
    let s2c_charge = StepDepths::s2c(1, engine.slot_to_coeff().op_counts().pmult.max(1))
        .noise_bits(&nm)
        + ks_slack;

    struct PlannedValue {
        positions: Vec<usize>,
        shape: Vec<usize>,
    }
    let in_layout = consumer_layout(model, 0, input_shape, n);
    let mut values: Vec<Option<PlannedValue>> = vec![Some(PlannedValue {
        positions: in_layout.positions.clone(),
        shape: input_shape.to_vec(),
    })];

    let mut layers = Vec::with_capacity(model.nodes.len());

    for (ni, node) in model.nodes.iter().enumerate() {
        let is_last = ni == model.nodes.len() - 1;
        let sv = values[node.input].as_ref().expect("producer planned");
        let (sv_positions, sv_shape) = (sv.positions.clone(), sv.shape.clone());
        let mut steps: Vec<PlanStep> = Vec::new();
        let out_shape: Vec<usize> = match &node.op {
            QOp::Linear(l) => {
                // Structural accumulation fan-in of the step: all of
                // `C_in·k²` taps (the paper's production row charges the
                // channel fan-in only; counting the spatial taps too is
                // strictly more conservative).
                let k = l.weight.shape()[2];
                let eff_cin = if l.is_fc {
                    sv_positions.len()
                } else {
                    l.weight.shape()[1]
                };
                let fan_in = (eff_cin * k * k).max(1) as u64;
                let (groups, out_shape) =
                    plan_linear_groups(ni, n, &sv_shape, sv_positions.len(), l)?;
                for g in groups {
                    let has_bias = !g.bias.is_empty();
                    steps.push(PlanStep {
                        phase: Phase::Linear,
                        analytic: OpCounts::default(),
                        noise_bits: StepDepths::linear(fan_in)
                            .with_hadd(u32::from(has_bias))
                            .noise_bits(&nm),
                        op: StepOp::Linear {
                            value: node.input,
                            kernel: g.kernel,
                            bias: g.bias,
                        },
                    });
                    steps.push(PlanStep {
                        phase: Phase::Conversion,
                        analytic: OpCounts::default(),
                        noise_bits: 0,
                        op: StepOp::ModSwitch { value: None },
                    });
                    steps.push(PlanStep {
                        phase: Phase::Conversion,
                        analytic: OpCounts::default(),
                        noise_bits: 0,
                        op: StepOp::ExtractLwes {
                            positions: g.positions,
                        },
                    });
                    steps.push(PlanStep {
                        phase: Phase::Conversion,
                        analytic: OpCounts::default(),
                        noise_bits: 0,
                        op: StepOp::DimSwitch {
                            drop_to_t: !is_last,
                        },
                    });
                }
                if let Some((skip_idx, mult)) = node.skip {
                    let skip = values[skip_idx].as_ref().expect("skip planned");
                    steps.push(PlanStep {
                        phase: Phase::Conversion,
                        analytic: OpCounts::default(),
                        noise_bits: 0,
                        op: StepOp::ResidualAdd {
                            skip: skip_idx,
                            positions: skip.positions.clone(),
                            mult,
                            drop_to_t: !is_last,
                        },
                    });
                }
                out_shape
            }
            QOp::MaxPool { k } => {
                let (c, h, w) = (sv_shape[0], sv_shape[1], sv_shape[2]);
                steps.push(PlanStep {
                    phase: Phase::Conversion,
                    analytic: OpCounts::default(),
                    noise_bits: 0,
                    op: StepOp::ModSwitch {
                        value: Some(node.input),
                    },
                });
                steps.push(PlanStep {
                    phase: Phase::Conversion,
                    analytic: OpCounts::default(),
                    noise_bits: 0,
                    op: StepOp::ExtractLwes {
                        positions: sv_positions.clone(),
                    },
                });
                steps.push(PlanStep {
                    phase: Phase::Conversion,
                    analytic: OpCounts::default(),
                    noise_bits: 0,
                    op: StepOp::DimSwitch { drop_to_t: true },
                });
                steps.push(PlanStep {
                    phase: Phase::Pooling,
                    analytic: OpCounts::default(),
                    // Each inner round runs a full pack → FBS(ReLU) → S2C
                    // chain that restarts from fresh packing noise, so the
                    // composite's charge is one round's chain total.
                    noise_bits: pack_charge
                        + fbs_runtime_charge(t, false, &nm, ks_slack)
                        + s2c_charge,
                    op: StepOp::MaxReduce {
                        k: *k,
                        shape: [c, h, w],
                    },
                });
                vec![c, h / k, w / k]
            }
            QOp::AvgPool { k } => {
                let (c, h, w) = (sv_shape[0], sv_shape[1], sv_shape[2]);
                steps.push(PlanStep {
                    phase: Phase::Conversion,
                    analytic: OpCounts::default(),
                    noise_bits: 0,
                    op: StepOp::ModSwitch {
                        value: Some(node.input),
                    },
                });
                steps.push(PlanStep {
                    phase: Phase::Conversion,
                    analytic: OpCounts::default(),
                    noise_bits: 0,
                    op: StepOp::ExtractLwes {
                        positions: sv_positions.clone(),
                    },
                });
                steps.push(PlanStep {
                    phase: Phase::Conversion,
                    analytic: OpCounts::default(),
                    noise_bits: 0,
                    op: StepOp::DimSwitch { drop_to_t: true },
                });
                steps.push(PlanStep {
                    phase: Phase::Pooling,
                    analytic: OpCounts::default(),
                    noise_bits: 0,
                    op: StepOp::AvgReduce {
                        k: *k,
                        shape: [c, h, w],
                    },
                });
                vec![c, h / k, w / k]
            }
        };

        if is_last {
            let scale = match &node.op {
                QOp::Linear(l) => l.in_scale * l.w_scale,
                _ => 1.0,
            };
            steps.push(PlanStep {
                phase: Phase::Linear,
                analytic: OpCounts::default(),
                noise_bits: 0,
                op: StepOp::Output { scale },
            });
            values.push(None);
            layers.push(PlanLayer { node: ni, steps });
            continue;
        }

        // The five-step tail: pack into the consumer's layout, bootstrap
        // through the fused remap LUT, and bridge back to coefficients.
        let layout = consumer_layout(model, ni + 1, &out_shape, n);
        let lut = match &node.op {
            QOp::Linear(l) => {
                let lc = l.clone();
                Lut::from_signed_fn(t, move |v| lc.remap(v, a_max))
            }
            QOp::AvgPool { k } => {
                let kk = (k * k) as f64;
                Lut::from_signed_fn(t, move |v| {
                    ((v as f64 / kk).round() as i64).clamp(-a_max, a_max)
                })
            }
            QOp::MaxPool { .. } => Lut::from_signed_fn(t, |v| v),
        };
        steps.push(PlanStep {
            phase: Phase::Conversion,
            analytic: OpCounts::default(),
            noise_bits: pack_charge,
            op: StepOp::Pack {
                slot_of: layout.slot_of.clone(),
            },
        });
        let needs_mask = lut.get(0) != 0 && layout.slot_of.iter().any(|s| s.is_none());
        let fbs_phase = match &node.op {
            QOp::Linear(_) => Phase::Activation,
            _ => Phase::Pooling,
        };
        steps.push(PlanStep {
            phase: fbs_phase,
            analytic: OpCounts::default(),
            noise_bits: fbs_runtime_charge(t, needs_mask, &nm, ks_slack),
            op: StepOp::Fbs { lut },
        });
        steps.push(PlanStep {
            phase: Phase::Conversion,
            analytic: OpCounts::default(),
            noise_bits: s2c_charge,
            op: StepOp::S2C {
                value: ni + 1,
                positions: layout.positions.clone(),
                shape: out_shape.clone(),
            },
        });
        values.push(Some(PlannedValue {
            positions: layout.positions,
            shape: out_shape,
        }));
        layers.push(PlanLayer { node: ni, steps });
    }

    // Every non-final layer and every max round packs, bootstraps and
    // bridges back: one predicate says whether the plan packs (the BSGS
    // packing key and its rotations, on a BSGS engine) and runs an S2C
    // (its rotations).
    let packs = layers.iter().any(|l| {
        l.steps
            .iter()
            .any(|s| matches!(s.op, StepOp::S2C { .. } | StepOp::MaxReduce { .. }))
    });
    let pack_bsgs = packs && engine.packing_method() == PackingMethod::Bsgs;
    let keys = KeyRequirements {
        galois: engine.galois_elements_for(packs, pack_bsgs),
        pack_bsgs,
    };

    let mut plan = ExecutionPlan {
        n,
        t,
        q_mid: engine.q_mid(),
        lwe_n: ctx.params().lwe_n,
        limbs: ctx.params().q_primes.len(),
        packing: engine.packing_method(),
        input_positions: in_layout.positions,
        input_shape: input_shape.to_vec(),
        layers,
        keys,
    };

    // Backfill the analytic op counts by dry-running the finished plan
    // through the CountingBackend: per-step counts come out of the same
    // generic interpreter the executor runs, with every engine primitive
    // replaced by its schedule dry-run.
    let counts = execute_counting(engine, &plan);
    debug_assert_eq!(counts.len(), plan.step_count());
    let mut it = counts.into_iter();
    for layer in &mut plan.layers {
        for step in &mut layer.steps {
            step.analytic = it.next().expect("one count per step");
        }
    }
    Ok(plan)
}

impl AthenaEngine {
    /// Plan-driven key generation: the Galois elements and packing key
    /// [`ExecutionPlan::required_keys`] demands, through the same draw
    /// sequence as [`AthenaEngine::keygen`]. For a plan that exercises the
    /// engine's full loop the two produce the same key set; for narrower
    /// plans this generates fewer Galois keys and no unused BSGS key.
    pub fn keygen_for_plan(
        &self,
        plan: &ExecutionPlan,
        sampler: &mut Sampler,
    ) -> (AthenaSecrets, AthenaEvalKeys) {
        let req = plan.required_keys();
        self.keygen_with(&req.galois, req.pack_bsgs, sampler)
    }
}
