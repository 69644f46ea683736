//! Plan types and the compiler: the typed step program, key requirements,
//! trace derivation, and plan-driven key generation.

use athena_fhe::fbs::Lut;
use athena_fhe::noise::{NoiseModel, StepDepths};
use athena_math::sampler::Sampler;
use athena_nn::qmodel::{QLinear, QModel, QOp, QuantConfig};
use athena_nn::tensor::ITensor;

use std::fmt;

use crate::encoding::ConvEncoder;
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
    /// A stride, pool kernel, or linear layer channel count of zero.
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
    /// value is packed into coefficient slots exactly once).
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
                write!(f, "node {node}: stride, pool kernel and channel counts must be nonzero")
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

impl std::error::Error for CompileError {}

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

impl PlanStep {
    /// A step whose analytic counts [`try_compile`] backfills once the
    /// plan is complete.
    fn new(phase: Phase, noise_bits: u32, op: StepOp) -> Self {
        Self {
            op,
            phase,
            analytic: OpCounts::default(),
            noise_bits,
        }
    }
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

/// A stored value's geometry, as [`validate_model`] works it out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ValueGeometry {
    /// Logical shape `[c, h, w]`.
    pub shape: [usize; 3],
    /// Zero padding, on each side, of the layout the value is stored in:
    /// its conv consumers' padding; 0 when FC or pooling reads it, or
    /// nothing does.
    pub padding: usize,
}

impl ValueGeometry {
    /// Coefficient position of each flat activation in the padded `M̂`
    /// layout of Eq. 1: `(c, y, x)` goes to `c·H'W' + (y+p)·W' + (x+p)`.
    /// Padding 0 is the flat order.
    fn positions(&self) -> Vec<usize> {
        let ([c, h, w], p) = (self.shape, self.padding);
        let (hp, wp) = (h + 2 * p, w + 2 * p);
        (0..c)
            .flat_map(|ci| {
                (0..h).flat_map(move |y| (0..w).map(move |x| ci * hp * wp + (y + p) * wp + x + p))
            })
            .collect()
    }
}

/// What the one validating walk over a model works out.
pub(crate) struct ModelGeometry {
    /// Per value: index 0 is the input, `i + 1` the output of node `i`.
    pub values: Vec<ValueGeometry>,
    /// Per node: for a linear node, the encoder of its largest
    /// output-channel group that fits the ring (an FC layer reads a `1×1`
    /// input of `C·H·W` channels); `None` for pooling.
    pub groups: Vec<Option<ConvEncoder>>,
}

/// Shape-level validation of a model against a ring degree: walks the
/// dataflow once (no encoding work), working out every value's shape and
/// layout and every linear node's output-channel group, and rejecting
/// anything the planner or the executor would otherwise panic on. Also
/// enforces the one-layout-per-value rule: every linear/pool consumer of a
/// stored value must demand the same padding, because the value is packed
/// into coefficient slots exactly once.
pub(crate) fn validate_model(
    model: &QModel,
    input_shape: &[usize],
    n: usize,
) -> Result<ModelGeometry, CompileError> {
    if model.nodes.is_empty() {
        return Err(CompileError::EmptyModel);
    }
    let &[c0, h0, w0] = input_shape else {
        return Err(CompileError::BadInputShape {
            shape: input_shape.to_vec(),
        });
    };
    let last = model.nodes.len() - 1;
    if !matches!(model.nodes[last].op, QOp::Linear(_)) {
        return Err(CompileError::PoolingFinal { node: last });
    }
    let mut shapes = vec![[c0, h0, w0]];
    let mut groups = Vec::with_capacity(model.nodes.len());
    for (ni, node) in model.nodes.iter().enumerate() {
        if node.input > ni {
            return Err(CompileError::BadReference {
                node: ni,
                value: node.input,
            });
        }
        let [c, h, w] = shapes[node.input];
        let (out_shape, group) = match &node.op {
            QOp::Linear(l) => {
                let (c_out, c_in, k) = (
                    l.weight.shape()[0],
                    l.weight.shape()[1],
                    l.weight.shape()[2],
                );
                if l.stride == 0 || c_out == 0 || c_in == 0 {
                    return Err(CompileError::ZeroDim { node: ni });
                }
                if l.bias.len() != c_out {
                    return Err(CompileError::BiasMismatch {
                        node: ni,
                        expected: c_out,
                        got: l.bias.len(),
                    });
                }
                let (got, extent) = if l.is_fc {
                    (c * h * w, 1)
                } else {
                    (c, h.min(w) + 2 * l.padding)
                };
                if c_in != got {
                    return Err(CompileError::ChannelMismatch {
                        node: ni,
                        expected: c_in,
                        got,
                    });
                }
                if k == 0 || k > extent {
                    return Err(CompileError::KernelExceedsInput {
                        node: ni,
                        k,
                        extent,
                    });
                }
                let (padded, out_shape) = if l.is_fc {
                    ([1, 1], [c_out, 1, 1])
                } else {
                    let (hp, wp) = (h + 2 * l.padding, w + 2 * l.padding);
                    let out = [c_out, (hp - k) / l.stride + 1, (wp - k) / l.stride + 1];
                    ([hp, wp], out)
                };
                // The largest output-channel group that fits, halving from
                // all of them.
                let mut co_g = c_out;
                let enc = loop {
                    match ConvEncoder::try_new(c_in, co_g, padded, k, n) {
                        Ok(enc) => break enc,
                        Err(_) if co_g > 1 => co_g = co_g.div_ceil(2),
                        Err(_) => return Err(CompileError::LayerTooLarge { node: ni, n }),
                    }
                };
                (out_shape, Some(enc))
            }
            QOp::MaxPool { k } | QOp::AvgPool { k } => {
                if *k == 0 {
                    return Err(CompileError::ZeroDim { node: ni });
                }
                if h / k == 0 || w / k == 0 {
                    return Err(CompileError::PoolEmptyOutput {
                        node: ni,
                        k: *k,
                        h: h.min(w),
                    });
                }
                ([c, h / k, w / k], None)
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
        groups.push(group);
    }
    // One layout per stored value: collect the padding every linear/pool
    // consumer demands (FC and pooling read the flat layout, which equals
    // a conv layout of padding 0) and reject conflicts. Residual skips
    // read by stored positions, so they are layout-agnostic.
    let mut values = Vec::with_capacity(shapes.len());
    for (value, shape) in shapes.into_iter().enumerate() {
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
        let len = shape[0] * (shape[1] + 2 * p) * (shape[2] + 2 * p);
        if len > n {
            return Err(CompileError::ValueTooLarge { value, len, n });
        }
        values.push(ValueGeometry { shape, padding: p });
    }
    Ok(ModelGeometry { values, groups })
}

/// Encodes output channels `co_lo..co_lo + enc.c_out` of `l` as one
/// group: the kernel polynomial, the bias at every output coefficient it
/// lands on, and the coefficient of each of the group's `[oh, ow]`
/// (strided) outputs, in flat order.
fn encode_group(
    l: &QLinear,
    enc: &ConvEncoder,
    co_lo: usize,
    [oh, ow]: [usize; 2],
) -> (Vec<i64>, Vec<(usize, i64)>, Vec<usize>) {
    let per = enc.c_in * enc.k * enc.k;
    let kw = ITensor::from_vec(
        &[enc.c_out, enc.c_in, enc.k, enc.k],
        l.weight.data()[co_lo * per..(co_lo + enc.c_out) * per].to_vec(),
    );
    let mut bias = Vec::new();
    let mut positions = Vec::with_capacity(enc.c_out * oh * ow);
    for co in 0..enc.c_out {
        for oy in 0..oh {
            for ox in 0..ow {
                let pos = enc.output_index(co, oy * l.stride, ox * l.stride);
                positions.push(pos);
                let b = l.bias[co_lo + co];
                if b != 0 {
                    bias.push((pos, b));
                }
            }
        }
    }
    (enc.encode_kernel(&kw), bias, positions)
}

/// Compiles a quantized model into an [`ExecutionPlan`] for an engine.
///
/// One validating walk works out every value's shape and layout and every
/// linear node's group split, refusing the model before any encoding
/// work; compilation only reads them to encode kernels, place biases,
/// materialize LUTs, and charge noise per step. The
/// per-step *analytic op counts* are then backfilled by dry-running the
/// finished plan through [`super::CountingBackend`] — the same `run_step`
/// interpreter the executor walks, so the analytic accounting cannot drift
/// from the execution semantics.
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
    let geo = validate_model(model, input_shape, n)?;

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

    let positions: Vec<Vec<usize>> = geo.values.iter().map(ValueGeometry::positions).collect();
    let mut layers = Vec::with_capacity(model.nodes.len());

    for (ni, node) in model.nodes.iter().enumerate() {
        let is_last = ni == model.nodes.len() - 1;
        let mut steps: Vec<PlanStep> = Vec::new();
        match &node.op {
            QOp::Linear(l) => {
                let enc = geo.groups[ni].expect("linear node has a group encoder");
                // Structural accumulation fan-in of the step: all of
                // `C_in·k²` taps (the paper's production row charges the
                // channel fan-in only; counting the spatial taps too is
                // strictly more conservative).
                let fan_in = (enc.c_in * enc.k * enc.k).max(1) as u64;
                let [c_out, oh, ow] = geo.values[ni + 1].shape;
                for co_lo in (0..c_out).step_by(enc.c_out) {
                    let group = ConvEncoder {
                        c_out: enc.c_out.min(c_out - co_lo),
                        ..enc
                    };
                    let (kernel, bias, out_positions) = encode_group(l, &group, co_lo, [oh, ow]);
                    let noise_bits = StepDepths::linear(fan_in)
                        .with_hadd(u32::from(!bias.is_empty()))
                        .noise_bits(&nm);
                    steps.extend([
                        PlanStep::new(
                            Phase::Linear,
                            noise_bits,
                            StepOp::Linear {
                                value: node.input,
                                kernel,
                                bias,
                            },
                        ),
                        PlanStep::new(Phase::Conversion, 0, StepOp::ModSwitch { value: None }),
                        PlanStep::new(
                            Phase::Conversion,
                            0,
                            StepOp::ExtractLwes {
                                positions: out_positions,
                            },
                        ),
                        PlanStep::new(
                            Phase::Conversion,
                            0,
                            StepOp::DimSwitch {
                                drop_to_t: !is_last,
                            },
                        ),
                    ]);
                }
                if let Some((skip, mult)) = node.skip {
                    steps.push(PlanStep::new(
                        Phase::Conversion,
                        0,
                        StepOp::ResidualAdd {
                            skip,
                            positions: positions[skip].clone(),
                            mult,
                            drop_to_t: !is_last,
                        },
                    ));
                }
            }
            QOp::MaxPool { k } | QOp::AvgPool { k } => {
                let (k, shape) = (*k, geo.values[node.input].shape);
                steps.extend([
                    PlanStep::new(
                        Phase::Conversion,
                        0,
                        StepOp::ModSwitch {
                            value: Some(node.input),
                        },
                    ),
                    PlanStep::new(
                        Phase::Conversion,
                        0,
                        StepOp::ExtractLwes {
                            positions: positions[node.input].clone(),
                        },
                    ),
                    PlanStep::new(Phase::Conversion, 0, StepOp::DimSwitch { drop_to_t: true }),
                ]);
                steps.push(match node.op {
                    // Each inner round runs a full pack → FBS(ReLU) → S2C
                    // chain that restarts from fresh packing noise, so the
                    // composite's charge is one round's chain total.
                    QOp::MaxPool { .. } => PlanStep::new(
                        Phase::Pooling,
                        pack_charge + fbs_runtime_charge(t, false, &nm, ks_slack) + s2c_charge,
                        StepOp::MaxReduce { k, shape },
                    ),
                    _ => PlanStep::new(Phase::Pooling, 0, StepOp::AvgReduce { k, shape }),
                });
            }
        }

        if is_last {
            let scale = match &node.op {
                QOp::Linear(l) => l.in_scale * l.w_scale,
                _ => 1.0,
            };
            steps.push(PlanStep::new(Phase::Linear, 0, StepOp::Output { scale }));
            layers.push(PlanLayer { node: ni, steps });
            continue;
        }

        // The five-step tail: pack into the stored value's layout,
        // bootstrap through the fused remap LUT, and bridge back to
        // coefficients.
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
        let mut slot_of = vec![None; n];
        for (flat, &pos) in positions[ni + 1].iter().enumerate() {
            slot_of[pos] = Some(flat);
        }
        let needs_mask = lut.get(0) != 0 && slot_of.iter().any(Option::is_none);
        let fbs_phase = match &node.op {
            QOp::Linear(_) => Phase::Activation,
            _ => Phase::Pooling,
        };
        steps.extend([
            PlanStep::new(Phase::Conversion, pack_charge, StepOp::Pack { slot_of }),
            PlanStep::new(
                fbs_phase,
                fbs_runtime_charge(t, needs_mask, &nm, ks_slack),
                StepOp::Fbs { lut },
            ),
            PlanStep::new(Phase::Conversion, s2c_charge, StepOp::S2C { value: ni + 1 }),
        ]);
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
        input_positions: positions[0].clone(),
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
