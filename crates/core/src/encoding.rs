//! Coefficient encoding of convolution (Eq. 1) and the packing strategies
//! compared in Table 2.
//!
//! With input `M̂[c·HW + h·W + w] = M[c,h,w]` and kernel
//! `K̂[T − c'·C_in·HW − c·HW − i·W − j] = K[c',c,i,j]`,
//! `T = HW(C_out·C_in − 1) + W(W_k − 1) + W_k − 1`, the polynomial product
//! `M̂·K̂` carries output `O[c',y,x] = Σ_{c,i,j} M[c,y+i,x+j]·K[c',c,i,j]`
//! at coefficient `T − c'·C_in·HW + y·W + x`. One `PMult` therefore computes
//! a whole multi-channel multi-kernel convolution with **zero rotations**
//! (Table 3's `Conv` row). `H` and `W` are the padded input's height and
//! width and need not be equal: `W` is the row stride of `M̂`.
//! [`ConvEncoder::try_new`] holds the one fit rule, `T + C_in·HW ≤ N`,
//! which the plan compiler's validating walk also uses to choose each
//! layer's output-channel group.
//!
//! When `C_out·C_in·HW > N` the layer is split into channel groups.
//! *Cheetah* \[16\] packs input channels first, so each result ciphertext
//! carries few valid outputs; *Athena* packs output channels first, so the
//! results land compactly (Table 2).

use std::fmt;

use athena_nn::models::ConvShape;
use athena_nn::tensor::ITensor;

/// Typed failure of a coefficient encoding. These are the shape checks a
/// *served* model can violate (the serving path reaches them with
/// user-supplied architectures), so the `try_*` constructors surface them
/// as values; the panicking wrappers remain for internal call sites that
/// have already validated their shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodingError {
    /// One input channel (plus the kernel's coefficient margin) does not
    /// fit the ring degree: `hw² + margin ≥ n`.
    ChannelTooLarge {
        /// Spatial size `H·W` of one channel.
        hw: usize,
        /// Kernel margin `HW(K−1) + K−1`.
        margin: usize,
        /// Ring degree.
        n: usize,
    },
    /// The conv group's top coefficient `T` plus one channel span exceeds
    /// the ring degree.
    GroupTooLarge {
        /// `T` of Eq. 1 for the group.
        t_index: usize,
        /// Input span `C_in·H·W` the product must also hold.
        input_len: usize,
        /// Ring degree.
        n: usize,
    },
    /// The input tensor's shape differs from the encoder's layer shape.
    InputShapeMismatch {
        /// Shape the encoder was built for (`[C_in, H, W]`).
        expected: [usize; 3],
        /// Shape the caller supplied.
        got: Vec<usize>,
    },
    /// The kernel tensor's shape differs from the encoder's layer shape.
    KernelShapeMismatch {
        /// Shape the encoder was built for (`[C_out, C_in, K, K]`).
        expected: [usize; 4],
        /// Shape the caller supplied.
        got: Vec<usize>,
    },
}

impl fmt::Display for EncodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodingError::ChannelTooLarge { hw, margin, n } => write!(
                f,
                "one channel must fit in the ring: HW {hw} + margin {margin} >= N {n}"
            ),
            EncodingError::GroupTooLarge {
                t_index,
                input_len,
                n,
            } => write!(
                f,
                "conv group does not fit degree {n} (T = {t_index}, input span {input_len})"
            ),
            EncodingError::InputShapeMismatch { expected, got } => {
                write!(
                    f,
                    "input shape mismatch: expected {expected:?}, got {got:?}"
                )
            }
            EncodingError::KernelShapeMismatch { expected, got } => {
                write!(
                    f,
                    "kernel shape mismatch: expected {expected:?}, got {got:?}"
                )
            }
        }
    }
}

impl std::error::Error for EncodingError {}

/// How a convolution layer is split across ciphertexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packing {
    /// Output channels per result ciphertext.
    pub co_per_ct: usize,
    /// Input channels per input ciphertext.
    pub ci_per_ct: usize,
    /// Number of input ciphertexts.
    pub input_cts: usize,
    /// Number of result ciphertexts.
    pub result_cts: usize,
    /// PMult count (one per (co-group, ci-group) pair).
    pub pmults: usize,
    /// HAdd count (partial-sum accumulation).
    pub hadds: usize,
}

impl Packing {
    /// Fraction of result-polynomial coefficients holding valid outputs.
    pub fn valid_ratio(&self, shape: &ConvShape, n: usize) -> f64 {
        let out_per_ct = self.co_per_ct * shape.out_hw() * shape.out_hw();
        out_per_ct as f64 / n as f64
    }
}

/// Safety margin needed so no product coefficient exceeds the degree:
/// the kernel's intra-channel span.
fn margin(shape: &ConvShape) -> usize {
    shape.hw * (shape.k - 1) + shape.k - 1
}

/// Largest divisor of `x` that is `<= cap` (at least 1).
fn divisor_at_most(x: usize, cap: usize) -> usize {
    (1..=cap.min(x))
        .rev()
        .find(|d| x.is_multiple_of(*d))
        .unwrap_or(1)
}

/// Athena's output-channel-first packing: the input-channel group is the
/// largest one whose slots (`co·ci·HW + margin ≤ N`) the full output-channel
/// set leaves room for (at least one channel), then the output-channel
/// group steps down through the divisors of `C_out` until Eq. 1's fit rule
/// ([`ConvEncoder::try_new`], on the padded input) holds.
///
/// # Panics
///
/// Panics if one channel does not fit the ring
/// ([`try_athena_packing`] is the fallible form).
pub fn athena_packing(shape: &ConvShape, n: usize) -> Packing {
    try_athena_packing(shape, n).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`athena_packing`]: returns a typed error instead of
/// panicking when one channel does not fit the ring.
pub fn try_athena_packing(shape: &ConvShape, n: usize) -> Result<Packing, EncodingError> {
    let hw = shape.hw * shape.hw;
    let m = margin(shape);
    if hw + m >= n {
        return Err(EncodingError::ChannelTooLarge { hw, margin: m, n });
    }
    let mut co = shape.c_out.max(1);
    let ci = divisor_at_most(shape.c_in, n.saturating_sub(m) / (co * hw));
    let padded = shape.hw + 2 * shape.padding;
    while let Err(e) = ConvEncoder::try_new(ci, co, [padded, padded], shape.k, n) {
        if co == 1 {
            return Err(e);
        }
        co = divisor_at_most(shape.c_out, co - 1);
    }
    let co_groups = shape.c_out / co;
    let ci_groups = shape.c_in / ci;
    Ok(Packing {
        co_per_ct: co,
        ci_per_ct: ci,
        input_cts: ci_groups,
        result_cts: co_groups,
        pmults: co_groups * ci_groups,
        hadds: co_groups * (ci_groups - 1),
    })
}

/// Cheetah's input-channel-first packing: the input ciphertext packs as many
/// input channels as fit; each result ciphertext carries the outputs of as
/// many output channels as fit *given that full-C_in packing*.
pub fn cheetah_packing(shape: &ConvShape, n: usize) -> Packing {
    let hw = shape.hw * shape.hw;
    let m = margin(shape);
    let ci = divisor_at_most(
        shape.c_in,
        ((n.saturating_sub(m)) / hw).max(1).min(shape.c_in),
    );
    // With ci input channels resident, each extra output channel needs a
    // ci·HW stride in the result polynomial.
    let co = divisor_at_most(
        shape.c_out,
        ((n.saturating_sub(m)) / (ci * hw)).max(1).min(shape.c_out),
    );
    let ci_groups = shape.c_in / ci;
    let co_groups = shape.c_out / co;
    Packing {
        co_per_ct: co,
        ci_per_ct: ci,
        input_cts: ci_groups,
        result_cts: co_groups,
        pmults: co_groups * ci_groups,
        hadds: co_groups * (ci_groups - 1),
    }
}

/// A fully specified single-group conv encoding: `c_out` output channels
/// and `c_in` input channels of an `h × w` (already padded) input in one
/// ciphertext pair. `w` is the row stride of `M̂`, so `h` and `w` may
/// differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvEncoder {
    /// Input channels of the group.
    pub c_in: usize,
    /// Output channels of the group.
    pub c_out: usize,
    /// Input height `H`.
    pub h: usize,
    /// Input width `W`.
    pub w: usize,
    /// Kernel size `K`.
    pub k: usize,
    /// Ring degree.
    pub n: usize,
}

impl ConvEncoder {
    /// Creates an encoder for a channel group over an `[h, w]` input.
    ///
    /// # Panics
    ///
    /// Panics if the group does not fit the ring degree
    /// ([`ConvEncoder::try_new`] is the fallible form).
    pub fn new(c_in: usize, c_out: usize, hw: [usize; 2], k: usize, n: usize) -> Self {
        Self::try_new(c_in, c_out, hw, k, n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ConvEncoder::new`]: Eq. 1's fit rule. The product
    /// `M̂·K̂` reaches coefficient `T + C_in·H·W − 1`, which must stay below
    /// `N` so no output wraps negacyclically.
    pub fn try_new(
        c_in: usize,
        c_out: usize,
        [h, w]: [usize; 2],
        k: usize,
        n: usize,
    ) -> Result<Self, EncodingError> {
        let enc = Self {
            c_in,
            c_out,
            h,
            w,
            k,
            n,
        };
        let input_len = c_in * h * w;
        if enc.t_index() + input_len > n {
            return Err(EncodingError::GroupTooLarge {
                t_index: enc.t_index(),
                input_len,
                n,
            });
        }
        Ok(enc)
    }

    /// `T` of Eq. 1.
    fn t_index(&self) -> usize {
        self.h * self.w * (self.c_out * self.c_in - 1) + self.w * (self.k - 1) + self.k - 1
    }

    /// Encodes the input feature map `[C_in, H, W]` into polynomial
    /// coefficients (length `N`, signed values to be reduced mod `t`).
    ///
    /// # Panics
    ///
    /// Panics on an input-shape mismatch
    /// ([`ConvEncoder::try_encode_input`] is the fallible form).
    pub fn encode_input(&self, m: &ITensor) -> Vec<i64> {
        self.try_encode_input(m).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ConvEncoder::encode_input`]: returns a typed error on an
    /// input-shape mismatch.
    pub fn try_encode_input(&self, m: &ITensor) -> Result<Vec<i64>, EncodingError> {
        let expected = [self.c_in, self.h, self.w];
        if m.shape() != expected {
            return Err(EncodingError::InputShapeMismatch {
                expected,
                got: m.shape().to_vec(),
            });
        }
        // `M̂[c·HW + h·W + w]` is the row-major order of `[C_in, H, W]`.
        let mut out = m.data().to_vec();
        out.resize(self.n, 0);
        Ok(out)
    }

    /// Encodes the kernel `[C_out, C_in, K, K]` into polynomial coefficients.
    ///
    /// # Panics
    ///
    /// Panics on a kernel-shape mismatch
    /// ([`ConvEncoder::try_encode_kernel`] is the fallible form).
    pub fn encode_kernel(&self, k: &ITensor) -> Vec<i64> {
        self.try_encode_kernel(k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ConvEncoder::encode_kernel`]: returns a typed error on a
    /// kernel-shape mismatch.
    pub fn try_encode_kernel(&self, k: &ITensor) -> Result<Vec<i64>, EncodingError> {
        let expected = [self.c_out, self.c_in, self.k, self.k];
        if k.shape() != expected {
            return Err(EncodingError::KernelShapeMismatch {
                expected,
                got: k.shape().to_vec(),
            });
        }
        let hw = self.h * self.w;
        let t = self.t_index();
        let mut out = vec![0i64; self.n];
        for co in 0..self.c_out {
            for ci in 0..self.c_in {
                for i in 0..self.k {
                    for j in 0..self.k {
                        let idx = t - co * self.c_in * hw - ci * hw - i * self.w - j;
                        out[idx] = k.data()[((co * self.c_in + ci) * self.k + i) * self.k + j];
                    }
                }
            }
        }
        Ok(out)
    }

    /// Coefficient index of output `(c_out, y, x)` — valid for
    /// `y ∈ [0, H − K]`, `x ∈ [0, W − K]` (stride-1 positions; strided
    /// layers subsample).
    pub fn output_index(&self, c_out: usize, y: usize, x: usize) -> usize {
        self.t_index() - c_out * self.c_in * self.h * self.w + y * self.w + x
    }

    /// Reference plaintext check: computes the negacyclic product of the two
    /// encodings over the integers and reads the outputs back.
    pub fn conv_via_polynomial(&self, m: &ITensor, k: &ITensor) -> ITensor {
        let a = self.encode_input(m);
        let b = self.encode_kernel(k);
        // negacyclic product over i128 to avoid overflow
        let n = self.n;
        let mut prod = vec![0i128; n];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            for (j, &bj) in b.iter().enumerate() {
                if bj == 0 {
                    continue;
                }
                let p = ai as i128 * bj as i128;
                let idx = i + j;
                if idx < n {
                    prod[idx] += p;
                } else {
                    prod[idx - n] -= p;
                }
            }
        }
        let (oh, ow) = (self.h - self.k + 1, self.w - self.k + 1);
        let mut out = ITensor::zeros(&[self.c_out, oh, ow]);
        for co in 0..self.c_out {
            for y in 0..oh {
                for x in 0..ow {
                    out.data_mut()[(co * oh + y) * ow + x] =
                        prod[self.output_index(co, y, x)] as i64;
                }
            }
        }
        out
    }
}

/// Direct integer convolution (valid positions, stride 1) — the reference
/// the encoding is tested against.
pub fn direct_conv_valid(m: &ITensor, k: &ITensor) -> ITensor {
    let (c_in, h, w) = (m.shape()[0], m.shape()[1], m.shape()[2]);
    let (c_out, kk) = (k.shape()[0], k.shape()[2]);
    let (oh, ow) = (h - kk + 1, w - kk + 1);
    let mut out = ITensor::zeros(&[c_out, oh, ow]);
    for co in 0..c_out {
        for y in 0..oh {
            for x in 0..ow {
                let mut acc = 0i64;
                for ci in 0..c_in {
                    for i in 0..kk {
                        for j in 0..kk {
                            acc += m.data()[(ci * h + y + i) * w + x + j]
                                * k.data()[((co * c_in + ci) * kk + i) * kk + j];
                        }
                    }
                }
                out.data_mut()[(co * oh + y) * ow + x] = acc;
            }
        }
    }
    out
}

/// The six conv shapes of Table 2.
pub fn table2_shapes() -> Vec<ConvShape> {
    vec![
        ConvShape {
            hw: 32,
            c_in: 3,
            c_out: 16,
            k: 3,
            stride: 1,
            padding: 1,
        },
        ConvShape {
            hw: 32,
            c_in: 16,
            c_out: 16,
            k: 3,
            stride: 1,
            padding: 1,
        },
        ConvShape {
            hw: 32,
            c_in: 16,
            c_out: 32,
            k: 1,
            stride: 2,
            padding: 0,
        },
        ConvShape {
            hw: 16,
            c_in: 32,
            c_out: 32,
            k: 3,
            stride: 1,
            padding: 1,
        },
        ConvShape {
            hw: 16,
            c_in: 32,
            c_out: 64,
            k: 1,
            stride: 2,
            padding: 0,
        },
        ConvShape {
            hw: 8,
            c_in: 64,
            c_out: 64,
            k: 3,
            stride: 1,
            padding: 1,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_math::sampler::Sampler;

    fn random_itensor(shape: &[usize], bound: i64, s: &mut Sampler) -> ITensor {
        ITensor::from_vec(
            shape,
            (0..shape.iter().product::<usize>())
                .map(|_| s.uniform_mod(2 * bound as u64 + 1) as i64 - bound)
                .collect(),
        )
    }

    #[test]
    fn encoding_computes_convolution() {
        let mut s = Sampler::from_seed(41);
        for (c_in, c_out, h, w, k) in [
            (1usize, 1usize, 6usize, 6usize, 3usize),
            (2, 2, 5, 5, 3),
            (3, 4, 4, 4, 2),
            (2, 3, 4, 4, 1),
            (2, 2, 4, 6, 3),
            (1, 2, 7, 3, 2),
        ] {
            let enc = ConvEncoder::new(c_in, c_out, [h, w], k, 1024);
            let m = random_itensor(&[c_in, h, w], 7, &mut s);
            let kk = random_itensor(&[c_out, c_in, k, k], 7, &mut s);
            assert_eq!(
                enc.conv_via_polynomial(&m, &kk),
                direct_conv_valid(&m, &kk),
                "{enc:?}"
            );
        }
    }

    #[test]
    fn packing_ratios_beat_cheetah_on_all_table2_rows() {
        let n = 1 << 15;
        for shape in table2_shapes() {
            let a = athena_packing(&shape, n);
            let c = cheetah_packing(&shape, n);
            let ra = a.valid_ratio(&shape, n);
            let rc = c.valid_ratio(&shape, n);
            assert!(
                ra >= rc,
                "Athena ratio {ra} below Cheetah {rc} for {shape:?}"
            );
        }
    }

    #[test]
    fn athena_ratios_match_table2_rows() {
        // Table 2's Athena column at N = 2^15, row by row.
        let n = 1 << 15;
        let expect = [0.50, 0.50, 0.25, 0.25, 0.0625, 0.125];
        for (shape, &want) in table2_shapes().iter().zip(&expect) {
            let ratio = athena_packing(shape, n).valid_ratio(shape, n);
            assert!(
                (ratio - want).abs() < 1e-9,
                "{shape:?}: ratio {ratio} vs paper {want}"
            );
        }
    }

    #[test]
    fn packing_respects_capacity() {
        let n = 1 << 15;
        // Beside Table 2: 18 output channels of a 64² map fit at most 7
        // to a group; halving 18 → 9 → 4 lands on a non-divisor (4 groups
        // of 4 cover 16 channels), the divisors give 6.
        let odd = ConvShape {
            hw: 64,
            c_in: 1,
            c_out: 18,
            k: 1,
            stride: 1,
            padding: 0,
        };
        for shape in table2_shapes().into_iter().chain([odd]) {
            let p = athena_packing(&shape, n);
            let hw = shape.hw * shape.hw;
            assert!(p.co_per_ct * p.ci_per_ct * hw <= n, "{shape:?} overpacked");
            assert_eq!(p.result_cts * p.co_per_ct, shape.c_out);
            assert_eq!(p.input_cts * p.ci_per_ct, shape.c_in);
        }
    }

    #[test]
    fn strided_outputs_are_subsampled_valid_positions() {
        // stride-2 layers read every other valid position.
        let enc = ConvEncoder::new(1, 1, [6, 6], 2, 256);
        let mut s = Sampler::from_seed(42);
        let m = random_itensor(&[1, 6, 6], 5, &mut s);
        let k = random_itensor(&[1, 1, 2, 2], 5, &mut s);
        let full = enc.conv_via_polynomial(&m, &k); // 5×5 stride-1 grid
                                                    // direct stride-2
        for y in 0..3 {
            for x in 0..3 {
                let direct: i64 = (0..2)
                    .flat_map(|i| (0..2).map(move |j| (i, j)))
                    .map(|(i, j)| m.data()[(2 * y + i) * 6 + 2 * x + j] * k.data()[i * 2 + j])
                    .sum();
                assert_eq!(full.data()[(5 * (2 * y)) + 2 * x], direct);
            }
        }
    }
}
