//! Operation traces: for a model shape and quantization mode, the counts of
//! every FHE primitive each layer executes under the Athena framework at
//! production parameters. The accelerator simulator lowers these to cycles
//! and energy.
//!
//! Counts follow Table 3's complexities with explicit constants:
//! conv is `packing.pmults` PMult + HAdds; packing is `O(C)` PMult/HRot
//! (amortized packing after \[29\]); FBS is Alg. 2 (`t_eff` SMult/HAdd,
//! `2√t_eff` CMult); S2C is the `O(∛N)`-factored transform. The effective
//! LUT size `t_eff` shrinks with quantization precision — the mechanism
//! behind Fig. 12's w6a7 speedup.

use athena_nn::models::{ModelSpec, NonLinear, SpecLayer};
use athena_nn::qmodel::QuantConfig;

use crate::encoding::athena_packing;

/// Production crypto dimensions the trace is counted at.
#[derive(Debug, Clone, Copy)]
pub struct TraceParams {
    /// Ring degree `N`.
    pub n: usize,
    /// RNS limb count of `Q`.
    pub limbs: usize,
    /// Plaintext modulus.
    pub t: u64,
    /// LWE dimension after switching.
    pub lwe_n: usize,
}

impl TraceParams {
    /// The paper's production parameters.
    pub fn athena_production() -> Self {
        Self {
            n: 1 << 15,
            limbs: 12,
            t: 65537,
            lwe_n: 2048,
        }
    }
}

/// Counts of high-level homomorphic operations: the one type the trace
/// model, the plan's analytic per-step counts and the counters measured
/// around each executed step all share.
pub use athena_math::stats::op_stats::HomOpCounts as OpCounts;

/// Execution phase, for the Fig. 9 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Convolution / FC.
    Linear,
    /// Format conversion: mod switch, sample extraction, packing, S2C.
    Conversion,
    /// Activation FBS.
    Activation,
    /// Pooling FBS.
    Pooling,
    /// Softmax FBS + CMult.
    Softmax,
}

impl Phase {
    /// All phases in display order.
    pub fn all() -> [Phase; 5] {
        [
            Phase::Linear,
            Phase::Conversion,
            Phase::Activation,
            Phase::Pooling,
            Phase::Softmax,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Linear => "Linear",
            Phase::Conversion => "Convert",
            Phase::Activation => "Activation",
            Phase::Pooling => "Pooling",
            Phase::Softmax => "Softmax",
        }
    }
}

/// The per-phase op counts of one model layer.
#[derive(Debug, Clone)]
pub struct LayerTrace {
    /// Layer index in the spec.
    pub layer: usize,
    /// Per-phase counts.
    pub phases: Vec<(Phase, OpCounts)>,
}

/// A whole-model trace.
#[derive(Debug, Clone)]
pub struct ModelTrace {
    /// Model name.
    pub name: &'static str,
    /// Parameters the counts assume.
    pub params: TraceParams,
    /// Quantization mode.
    pub quant: QuantConfig,
    /// Per-layer traces.
    pub layers: Vec<LayerTrace>,
}

impl ModelTrace {
    /// Total ops per phase.
    pub fn phase_totals(&self) -> Vec<(Phase, OpCounts)> {
        let mut totals: Vec<(Phase, OpCounts)> = Phase::all()
            .iter()
            .map(|&p| (p, OpCounts::default()))
            .collect();
        for l in &self.layers {
            for (p, c) in &l.phases {
                let slot = totals
                    .iter_mut()
                    .find(|(tp, _)| tp == p)
                    .expect("phase present");
                slot.1.add(c);
            }
        }
        totals
    }

    /// Grand total.
    pub fn total(&self) -> OpCounts {
        let mut t = OpCounts::default();
        for (_, c) in self.phase_totals() {
            t.add(&c);
        }
        t
    }
}

/// Effective LUT size for a layer under a quantization mode: the smallest
/// power of two covering the layer's statistical MAC bound
/// `√(C_in·k²)·w_max·a_max / 2` (a CLT-style bound matching the measured
/// maxima of Fig. 4), additionally capped at `2^(w_bits + a_bits + 2)`.
/// Lower precision ⇒ smaller LUT ⇒ cheaper FBS — the mechanism behind the
/// w6a7 speedup and the Fig. 12 performance curve. Note the cap
/// deliberately tracks precision past `t` (for w8a8 a larger plaintext
/// modulus would be provisioned), which is how Fig. 12's near-doubling
/// between w7a7 and w8a8 arises.
pub fn effective_lut_size(layer: &SpecLayer, quant: &QuantConfig, _t: u64) -> u64 {
    let fan_in = (layer.conv.c_in * layer.conv.k * layer.conv.k) as f64;
    let bound = fan_in.sqrt() * quant.w_max() as f64 * quant.a_max() as f64 / 2.0;
    let cap = 1u64 << (quant.w_bits + quant.a_bits + 2).min(17);
    let mut size = 256u64;
    while (size as f64) < bound && size < cap {
        size *= 2;
    }
    size.min(cap)
}

fn fbs_counts(t_eff: u64) -> OpCounts {
    let bs = (t_eff as f64).sqrt().ceil() as u64;
    OpCounts {
        smult: t_eff,
        hadd: t_eff,
        cmult: 2 * bs,
        ..OpCounts::default()
    }
}

/// Builds the trace of one layer.
fn layer_trace(
    idx: usize,
    layer: &SpecLayer,
    params: &TraceParams,
    quant: &QuantConfig,
) -> LayerTrace {
    let n = params.n;
    let p = athena_packing(&layer.conv, n);
    let outputs = layer.conv.outputs();
    let packed_cts = outputs.div_ceil(n as u64).max(1);
    let cbrt_n = (n as f64).cbrt().ceil() as u64;
    let c = layer.conv.c_out as u64;

    let mut phases = Vec::new();
    // Linear: Table 3 — O(C) PMult, zero HRot.
    phases.push((
        Phase::Linear,
        OpCounts {
            pmult: p.pmults as u64,
            hadd: p.hadds as u64 + p.result_cts as u64, // accumulation + bias
            ..OpCounts::default()
        },
    ));
    // Conversion: mod switch per result ct, ring-degree switch, SE per
    // output, packing O(C) PMult + O(C) HRot (amortized [29]), S2C per
    // packed ct at O(∛N).
    let mut conv = OpCounts {
        mod_switch: p.result_cts as u64 + packed_cts,
        sample_extract: outputs,
        pmult: c + packed_cts * 2 * cbrt_n,
        hrot: c + packed_cts * cbrt_n,
        hadd: c + packed_cts * cbrt_n,
        ..OpCounts::default()
    };
    // LWE dimension switch: one ring switch per result ct (already counted
    // via mod_switch) plus per-sample digit MACs folded into SE cost.
    conv.mod_switch += p.result_cts as u64;
    phases.push((Phase::Conversion, conv));
    // Non-linearity.
    let t_eff = effective_lut_size(layer, quant, params.t);
    match layer.act {
        NonLinear::Activation => {
            let mut a = OpCounts::default();
            for _ in 0..packed_cts {
                a.add(&fbs_counts(t_eff));
            }
            phases.push((Phase::Activation, a));
        }
        NonLinear::AvgPool { .. } => {
            let mut a = OpCounts::default();
            for _ in 0..packed_cts {
                a.add(&fbs_counts(t_eff));
            }
            phases.push((Phase::Pooling, a));
        }
        NonLinear::MaxPool { k } => {
            // Max-tree: each of the k²−1 rounds is a full
            // extract→pack→FBS→S2C cycle (see `athena_core::pipeline`), so
            // the conversion machinery is charged per round too.
            let rounds = (k * k - 1) as u64;
            let mut a = OpCounts::default();
            for _ in 0..rounds * packed_cts {
                a.add(&fbs_counts(t_eff));
                a.mod_switch += 2;
                a.sample_extract += outputs / rounds.max(1);
                a.pmult += c + 2 * cbrt_n;
                a.hrot += cbrt_n;
                a.hadd += c;
            }
            phases.push((Phase::Pooling, a));
        }
        NonLinear::Softmax => {
            // exp LUT + inverse LUT + one CMult (§3.2.3).
            let mut a = fbs_counts(t_eff);
            a.add(&fbs_counts(t_eff));
            a.cmult += 1;
            phases.push((Phase::Softmax, a));
        }
        NonLinear::None => {}
    }
    LayerTrace { layer: idx, phases }
}

/// Builds the full trace of a model.
pub fn trace_model(spec: &ModelSpec, params: &TraceParams, quant: &QuantConfig) -> ModelTrace {
    ModelTrace {
        name: spec.name,
        params: *params,
        quant: *quant,
        layers: spec
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| layer_trace(i, l, params, quant))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_nn::models::ModelSpec;

    #[test]
    fn resnet20_trace_shape() {
        let spec = ModelSpec::resnet(3);
        let tr = trace_model(
            &spec,
            &TraceParams::athena_production(),
            &QuantConfig::w7a7(),
        );
        assert_eq!(tr.layers.len(), spec.layers.len());
        let totals = tr.phase_totals();
        let act = totals
            .iter()
            .find(|(p, _)| *p == Phase::Activation)
            .expect("activation phase")
            .1;
        // FBS dominates SMult/HAdd volume (the paper's observation 1).
        assert!(act.smult > tr.total().pmult, "{act:?}");
    }

    #[test]
    fn lut_size_shrinks_with_precision() {
        let spec = ModelSpec::resnet(3);
        let layer = &spec.layers[5];
        let t = 65537;
        let hi = effective_lut_size(layer, &QuantConfig::new(8, 8), t);
        let mid = effective_lut_size(layer, &QuantConfig::w7a7(), t);
        let lo = effective_lut_size(layer, &QuantConfig::new(4, 4), t);
        assert!(hi >= mid && mid > lo, "{hi} {mid} {lo}");
        // w8a8 exceeds t: the cost model extrapolates past the clamp (a
        // larger plaintext modulus would be provisioned), as Fig. 12 does.
        assert!(hi <= 1 << 18);
        assert!(lo >= 256);
    }

    #[test]
    fn maxpool_multiplies_fbs_cost() {
        // LeNet (max pooling) must spend more pooling ops than ResNet
        // (average pooling) relative to model size — Fig. 9's point 2.
        let params = TraceParams::athena_production();
        let q = QuantConfig::w7a7();
        let lenet = trace_model(&ModelSpec::lenet(), &params, &q);
        let pool_smult = |tr: &ModelTrace| {
            tr.phase_totals()
                .iter()
                .find(|(p, _)| *p == Phase::Pooling)
                .map(|(_, c)| c.smult)
                .unwrap_or(0)
        };
        let act_smult = |tr: &ModelTrace| {
            tr.phase_totals()
                .iter()
                .find(|(p, _)| *p == Phase::Activation)
                .map(|(_, c)| c.smult)
                .unwrap_or(0)
        };
        // LeNet's max pooling is a substantial share of its non-linear work,
        // far beyond ResNet's average pooling (relative to activations).
        let lenet_ratio = pool_smult(&lenet) as f64 / act_smult(&lenet) as f64;
        let rn = trace_model(&ModelSpec::resnet(3), &params, &q);
        let rn_ratio = pool_smult(&rn) as f64 / act_smult(&rn) as f64;
        assert!(lenet_ratio > 0.2, "LeNet pool/act ratio {lenet_ratio}");
        assert!(
            lenet_ratio > 10.0 * rn_ratio,
            "LeNet {lenet_ratio} vs ResNet {rn_ratio}"
        );
    }

    #[test]
    fn resnet56_roughly_3x_resnet20() {
        let params = TraceParams::athena_production();
        let q = QuantConfig::w7a7();
        let t20 = trace_model(&ModelSpec::resnet(3), &params, &q).total();
        let t56 = trace_model(&ModelSpec::resnet(9), &params, &q).total();
        let ratio = t56.smult as f64 / t20.smult as f64;
        assert!(ratio > 2.2 && ratio < 3.6, "smult ratio {ratio}");
    }
}
