//! The deterministic case generator: random-but-valid models, inputs,
//! and reduced parameter sets from one `u64` seed.

use athena_fhe::params::BfvParams;
use athena_math::prime::ntt_primes;
use athena_math::prng::Prng;
use athena_nn::qmodel::{Activation, QLinear, QModel, QNode, QOp, QStats, QuantConfig};
use athena_nn::tensor::ITensor;

use crate::pipeline::PackingMethod;
use crate::plan::validate_model;

use super::bound::propagate;

/// A reduced parameter configuration a fuzz case runs under. `t = 257`
/// and five 50-bit limbs are fixed (smaller `t` shrinks the FBS chain
/// enough to stay decryptable; fewer limbs would exhaust the ~190-bit
/// worst chain the FBS consumes at `t = 257`); everything else varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseParams {
    /// Ring degree (64 or 128).
    pub n: usize,
    /// LWE dimension after dimension switch (16 or 32).
    pub lwe_n: usize,
    /// LWE key-switch decomposition base log (4 or 5).
    pub ks_base_log: u32,
    /// Packing strategy.
    pub packing: PackingMethod,
}

impl CaseParams {
    /// Materializes the BFV parameter set (limb primes are regenerated
    /// deterministically from the degree).
    pub fn bfv(&self) -> BfvParams {
        BfvParams {
            n: self.n,
            q_primes: ntt_primes(50, self.n, 5),
            t: 257,
            lwe_n: self.lwe_n,
            sigma: 3.2,
            lwe_ks_base_log: self.ks_base_log,
        }
    }

    /// A small stable fingerprint, used to key the oracle's engine/key
    /// cache and to salt key-generation sampler seeds.
    pub fn fingerprint(&self) -> u64 {
        let packing = match self.packing {
            PackingMethod::Column => 0u64,
            PackingMethod::Bsgs => 1u64,
        };
        (self.n as u64) << 32
            | (self.lwe_n as u64) << 16
            | u64::from(self.ks_base_log) << 8
            | packing
    }
}

/// One generated fuzz case: a model, an input, and the parameters to run
/// it under. `seed` reproduces the whole case through [`gen_case`].
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Generator seed (0 for hand-built / corpus-loaded cases).
    pub seed: u64,
    /// Parameter configuration.
    pub params: CaseParams,
    /// The model.
    pub model: QModel,
    /// The input tensor.
    pub input: ITensor,
}

fn pick<T: Copy>(r: &mut Prng, choices: &[T]) -> T {
    choices[r.next_below(choices.len() as u64) as usize]
}

const SCALES: [f64; 4] = [0.25, 0.5, 1.0, 2.0];
const ACTS: [Activation; 4] = [
    Activation::Identity,
    Activation::ReLU,
    Activation::Sigmoid,
    Activation::Gelu,
];

/// Generates the case for `seed`: draws architectures until one passes
/// the validity gates (compilable at the drawn parameters, and inside
/// the `t = 257` accumulator headroom *including* the propagated
/// worst-case `e_ms` deviation, so the encrypted oracle is meaningful).
/// Deterministic: same seed, same case, independent of thread count.
pub fn gen_case(seed: u64) -> FuzzCase {
    let mut r = Prng::seed_from_u64(seed ^ 0xa7_4e_9a_f0_22_33_44_55);
    loop {
        if let Some(case) = try_gen(seed, &mut r) {
            return case;
        }
    }
}

fn try_gen(seed: u64, r: &mut Prng) -> Option<FuzzCase> {
    let params = CaseParams {
        n: if r.next_bool() { 128 } else { 64 },
        lwe_n: if r.next_bool() { 32 } else { 16 },
        ks_base_log: 4 + r.next_below(2) as u32,
        packing: if r.next_bool() {
            PackingMethod::Bsgs
        } else {
            PackingMethod::Column
        },
    };
    let cfg = QuantConfig::new(2 + r.next_below(3) as u32, 3 + r.next_below(3) as u32);
    let (w_max, a_max) = (cfg.w_max(), cfg.a_max());

    // Input shape: small images, 1–3 channels, height and width drawn
    // apart (about a fifth of the draws come out square).
    let c0 = 1 + r.next_below(3) as usize;
    let h0 = 2 + r.next_below(5) as usize;
    let w0 = 2 + r.next_below(5) as usize;
    let mut shape = [c0, h0, w0];
    let n_nodes = 1 + r.next_below(4) as usize;

    let mut nodes: Vec<QNode> = Vec::with_capacity(n_nodes);
    // Shapes of every value (index 0 = input) for skip-candidate search.
    let mut value_shapes: Vec<[usize; 3]> = vec![shape];
    for ni in 0..n_nodes {
        let is_last = ni == n_nodes - 1;
        let flat: usize = shape.iter().product();
        let side = shape[1].min(shape[2]);
        // Node kind: the final node must be linear; pools need room.
        let kind = if is_last {
            if flat <= 24 && r.next_bool() {
                1 // fc
            } else {
                0 // conv
            }
        } else {
            match r.next_below(10) {
                0..=4 => 0,               // conv
                5..=6 if flat <= 24 => 1, // fc
                7..=8 if side >= 2 => 2,  // maxpool
                _ if side >= 2 => 3,      // avgpool
                _ => 0,
            }
        };
        let op = match kind {
            0 => {
                let padding = r.next_below(2) as usize;
                let extent = side + 2 * padding;
                let k = (1 + r.next_below(3) as usize).min(extent);
                let stride = if side >= 4 && r.next_below(4) == 0 {
                    2
                } else {
                    1
                };
                let c_out = 1 + r.next_below(4) as usize;
                let c_in = shape[0];
                let weight = ITensor::from_vec(
                    &[c_out, c_in, k, k],
                    (0..c_out * c_in * k * k)
                        .map(|_| r.next_i64_in(-w_max, w_max))
                        .collect(),
                );
                let bias = (0..c_out).map(|_| r.next_i64_in(-a_max, a_max)).collect();
                let out = |x: usize| (x + 2 * padding - k) / stride + 1;
                shape = [c_out, out(shape[1]), out(shape[2])];
                QOp::Linear(QLinear {
                    weight,
                    bias,
                    stride,
                    padding,
                    is_fc: false,
                    act: pick(r, &ACTS),
                    in_scale: pick(r, &SCALES),
                    w_scale: pick(r, &SCALES),
                    out_scale: pick(r, &SCALES),
                })
            }
            1 => {
                let c_out = 1 + r.next_below(4) as usize;
                let weight = ITensor::from_vec(
                    &[c_out, flat, 1, 1],
                    (0..c_out * flat)
                        .map(|_| r.next_i64_in(-w_max, w_max))
                        .collect(),
                );
                let bias = (0..c_out).map(|_| r.next_i64_in(-a_max, a_max)).collect();
                shape = [c_out, 1, 1];
                QOp::Linear(QLinear {
                    weight,
                    bias,
                    stride: 1,
                    padding: 0,
                    is_fc: true,
                    act: pick(r, &ACTS),
                    in_scale: pick(r, &SCALES),
                    w_scale: pick(r, &SCALES),
                    out_scale: pick(r, &SCALES),
                })
            }
            k_id => {
                // Pool kernel 2, or 3 when it still leaves an output;
                // non-dividing extents (h % k != 0) are deliberately
                // allowed — floor windows are an edge case worth fuzzing.
                let k = if side >= 3 && r.next_bool() { 3 } else { 2 };
                shape = [shape[0], shape[1] / k, shape[2] / k];
                if k_id == 2 {
                    QOp::MaxPool { k }
                } else {
                    QOp::AvgPool { k }
                }
            }
        };
        // Residual skip: linear nodes only (pools ignore skips in both
        // the reference and the plan), onto any earlier value with a
        // matching element count.
        let skip = if matches!(op, QOp::Linear(_)) && r.next_below(4) == 0 {
            let want: usize = shape.iter().product();
            let candidates: Vec<usize> = value_shapes
                .iter()
                .enumerate()
                .filter(|(_, s)| s.iter().product::<usize>() == want)
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                None
            } else {
                let v = pick(r, &candidates);
                let mult = pick(r, &[-2i64, -1, 1, 2]);
                Some((v, mult))
            }
        } else {
            None
        };
        nodes.push(QNode {
            op,
            input: ni,
            skip,
        });
        value_shapes.push(shape);
    }

    let model = QModel {
        nodes,
        input_scale: pick(r, &SCALES),
        cfg,
    };
    let input_shape = value_shapes[0];
    let input = ITensor::from_vec(
        &input_shape,
        (0..input_shape.iter().product())
            .map(|_| r.next_i64_in(-a_max, a_max))
            .collect(),
    );

    // Gate 1: compilable at the drawn ring degree (shape fit, layouts).
    if validate_model(&model, &input_shape, params.n).is_err() {
        return None;
    }

    // Gate 2: accumulator headroom at t = 257. Every accumulator that
    // lives at the plaintext level must stay inside (-t/2, t/2) even
    // after the worst-case propagated e_ms deviation, and the max-pool
    // diff trees need twice the operand magnitude.
    let mut stats = QStats::default();
    let (logits, _) = model.forward_traced(&input, None, &mut stats);
    if logits.is_empty() {
        return None;
    }
    let dev = propagate(&model, params.lwe_n);
    let half_t = 126.0; // (t-1)/2 minus a safety notch
    for (ni, node) in model.nodes.iter().enumerate() {
        let acc = stats.max_acc.get(ni).copied().unwrap_or(0) as f64;
        if acc + dev.per_node_acc[ni] > half_t {
            return None;
        }
        if let QOp::MaxPool { k } = node.op {
            let e = super::bound::e_ms_bound(params.lwe_n);
            let operand = a_max as f64 + dev.per_value[node.input] + (k * k) as f64 * e;
            if 2.0 * operand > half_t {
                return None;
            }
        }
    }

    Some(FuzzCase {
        seed,
        params,
        model,
        input,
    })
}
