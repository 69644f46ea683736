//! The Athena five-step loop (Fig. 2) over real cryptography.
//!
//! Per linear layer:
//!
//! 1. **Linear** — coefficient-encoded conv/FC via `PMult`/`HAdd` (Eq. 1).
//! 2. **ModSwitch** — rescale to an intermediate RNS prime (kills the
//!    linear-layer noise), Eq. 2.
//! 3. **Sample extraction + dimension switch** — Alg. 1, then LWE
//!    key-switch `N → n` and an LWE modulus switch down to `t`
//!    (introducing the small `e_ms`).
//! 4. **Packing** — homomorphic decryption packs the LWEs into fresh slots
//!    at full modulus `Q`, ordered for the *next* layer's layout.
//! 5. **FBS** — the fused remap+activation LUT (Eq. 3 / Alg. 2), then S2C
//!    returns the values to coefficient positions for the next loop.
//!
//! The engine runs at the reduced parameter sets of
//! [`athena_fhe::params::BfvParams`]; the production-scale numbers come from
//! the op-trace + accelerator model, exactly as in the paper's evaluation.

use athena_fhe::bfv::{BfvCiphertext, BfvContext, BfvEvaluator, GaloisKeys, RelinKey, SecretKey};
use athena_fhe::encoder::encode_coeff;
use athena_fhe::extract::{mod_switch_rlwe, rlwe_secret_as_lwe_mod, sample_extract_one};
use athena_fhe::fbs::{fbs_apply, FbsStats, Lut};
use athena_fhe::linear::SlotToCoeff;
use athena_fhe::lwe::{lwe_mod_switch, LweCiphertext, LweKeySwitchKey, LweSecret};
use athena_fhe::pack::{BsgsPackingKey, ColumnPackingKey};
use athena_fhe::params::BfvParams;
use athena_math::modops::Modulus;
use athena_math::poly::Poly;
use athena_math::sampler::Sampler;

/// Secret material (client side).
#[derive(Debug)]
pub struct AthenaSecrets {
    /// RLWE secret.
    pub sk: SecretKey,
    /// Small LWE secret (dimension `n`) at modulus `t`.
    pub lwe_sk: LweSecret,
}

/// Which packing implementation the engine uses (DESIGN.md ablation 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PackingMethod {
    /// One key ciphertext per LWE coordinate; `n` PMult, zero rotations.
    #[default]
    Column,
    /// Halevi–Shoup diagonals with a BSGS rotation schedule: `O(√n)` HRot —
    /// Table 3's packing row.
    Bsgs,
}

/// Evaluation keys (server side).
#[derive(Debug)]
pub struct AthenaEvalKeys {
    /// Relinearization key (FBS CMults).
    pub rlk: RelinKey,
    /// The single deduplicated Galois key set: S2C elements merged with the
    /// BSGS packing schedule's (when the engine packs via BSGS). Every
    /// rotation in the pipeline — S2C, linear transforms, BSGS packing —
    /// resolves against this one map, so shared elements are keyed once.
    pub gk: GaloisKeys,
    /// LWE dimension-switching key at the intermediate modulus.
    pub lwe_ksk: LweKeySwitchKey,
    /// LWE→RLWE packing key (column method).
    pub pack: ColumnPackingKey,
    /// Optional BSGS packing key (generated when the engine is configured
    /// with [`PackingMethod::Bsgs`]). Holds no Galois material of its own;
    /// its rotations use [`AthenaEvalKeys::gk`].
    pub pack_bsgs: Option<BsgsPackingKey>,
}

impl AthenaEvalKeys {
    /// Total evaluation-key bytes (Table 1 accounting): relinearization +
    /// Galois + LWE dimension switch + packing key material.
    pub fn bytes(&self, ctx: &BfvContext) -> usize {
        let ks = ctx.params().keyswitch_key_bytes();
        let mut total = ks; // rlk is one key-switch key
        total += self.gk.elements().len() * ks;
        total += self.lwe_ksk.bytes();
        total += self.pack.bytes(ctx);
        if let Some(b) = &self.pack_bsgs {
            total += b.bytes(ctx);
        }
        total
    }
}

/// The evaluation engine.
#[derive(Debug)]
pub struct AthenaEngine {
    ctx: BfvContext,
    s2c: SlotToCoeff,
    q_mid: u64,
    packing: PackingMethod,
    noise_margin: Option<u32>,
}

/// Aggregate operation statistics of an encrypted run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// PMult count.
    pub pmult: usize,
    /// HAdd count (ciphertext level).
    pub hadd: usize,
    /// Sample extractions.
    pub extracts: usize,
    /// Packing invocations.
    pub packs: usize,
    /// FBS invocations and their inner op counts.
    pub fbs_calls: usize,
    /// Accumulated FBS inner stats.
    pub fbs: FbsStats,
    /// S2C invocations.
    pub s2c_calls: usize,
}

/// Whether an FBS over `slots` (of an `n`-slot ciphertext) must finish
/// with the non-valid-slot mask PMult: a LUT that moves 0 would otherwise
/// write `LUT(0)` into every slot no value was packed into. The one
/// predicate the engine and every plan backend share, so they cannot
/// disagree on when the mask is charged.
pub(crate) fn fbs_needs_mask<T>(lut: &Lut, slots: &[Option<T>], n: usize) -> bool {
    lut.get(0) != 0 && (slots.len() < n || slots.iter().any(Option::is_none))
}

impl AthenaEngine {
    /// Builds an engine for a parameter set (column packing).
    pub fn new(params: BfvParams) -> Self {
        Self::with_packing(params, PackingMethod::Column)
    }

    /// Builds an engine with an explicit packing method.
    pub fn with_packing(params: BfvParams, packing: PackingMethod) -> Self {
        let ctx = BfvContext::new(params);
        let s2c = SlotToCoeff::new(&ctx);
        let q_mid = ctx.params().q_primes[0];
        Self {
            ctx,
            s2c,
            q_mid,
            packing,
            noise_margin: None,
        }
    }

    /// Sets the compile-time noise guardrail margin: `plan::try_compile`
    /// rejects plans whose worst analytic chain plus this margin exceeds
    /// the parameter set's noise headroom ([`CompileError::NoiseBudget`]).
    /// The default is `None` — guardrail off — because the analytic
    /// chain charge is deliberately conservative (every step's
    /// `noise_bits` over-bounds its measured consumption, and the
    /// over-bounds compound along a chain), so models that run fine on
    /// small test parameter sets can carry analytic chains past the
    /// headroom. Enable it (`Some(0)` or a positive safety margin) when
    /// serving untrusted models on production-sized parameters, where a
    /// rejected-at-compile-time error beats a mid-inference
    /// [`NoiseExhausted`](crate::plan::NoiseExhausted).
    ///
    /// [`CompileError::NoiseBudget`]: crate::plan::CompileError::NoiseBudget
    pub fn with_noise_margin(mut self, margin: Option<u32>) -> Self {
        self.noise_margin = margin;
        self
    }

    /// The configured guardrail margin (`None` = guardrail off).
    pub fn noise_margin_bits(&self) -> Option<u32> {
        self.noise_margin
    }

    /// The FHE context.
    pub fn context(&self) -> &BfvContext {
        &self.ctx
    }

    /// The Table-4 noise model at this engine's parameters (exact `log₂Q`
    /// from the limb product) — the model the plan compiler charges every
    /// step's analytic `noise_bits` with.
    pub fn noise_model(&self) -> athena_fhe::noise::NoiseModel {
        athena_fhe::noise::NoiseModel::for_params(self.ctx.params())
    }

    /// The Galois elements the engine's configuration needs: the S2C
    /// schedule's, merged (sorted, deduplicated) with the BSGS packing
    /// schedule's when the engine packs via BSGS. This is the exact set
    /// [`Self::keygen`] generates — one shared key per element, no
    /// duplicates across consumers.
    pub fn required_galois_elements(&self) -> Vec<usize> {
        let ctx = &self.ctx;
        let mut elements = self.s2c.required_galois_elements(ctx);
        if self.packing == PackingMethod::Bsgs {
            elements.extend(BsgsPackingKey::required_galois_elements_for(
                ctx,
                ctx.params().lwe_n,
            ));
        }
        elements.sort_unstable();
        elements.dedup();
        elements
    }

    /// Generates client secrets and server evaluation keys.
    pub fn keygen(&self, sampler: &mut Sampler) -> (AthenaSecrets, AthenaEvalKeys) {
        let ctx = &self.ctx;
        let sk = SecretKey::generate(ctx, sampler);
        let lwe_sk = LweSecret::generate(ctx.params().lwe_n, ctx.t(), sampler);
        let rlk = RelinKey::generate(ctx, &sk, sampler);
        let gk = GaloisKeys::generate(ctx, &sk, &self.required_galois_elements(), sampler);
        let big = rlwe_secret_as_lwe_mod(&sk, self.q_mid);
        let small_mid = LweSecret::from_coeffs(lwe_sk.coeffs().to_vec(), self.q_mid);
        let lwe_ksk =
            LweKeySwitchKey::generate(&big, &small_mid, ctx.params().lwe_ks_base_log, sampler);
        let pack = ColumnPackingKey::generate(ctx, &sk, &lwe_sk, sampler);
        let pack_bsgs = match self.packing {
            PackingMethod::Bsgs => Some(BsgsPackingKey::generate(ctx, &sk, &lwe_sk, sampler)),
            PackingMethod::Column => None,
        };
        (
            AthenaSecrets { sk, lwe_sk },
            AthenaEvalKeys {
                rlk,
                gk,
                lwe_ksk,
                pack,
                pack_bsgs,
            },
        )
    }

    /// Encrypts activations placed at given coefficient positions
    /// (coefficient encoding, Step ① entry point).
    pub fn encrypt_at(
        &self,
        values: &[i64],
        positions: &[usize],
        secrets: &AthenaSecrets,
        sampler: &mut Sampler,
    ) -> BfvCiphertext {
        assert_eq!(values.len(), positions.len());
        let n = self.ctx.n();
        let mut coeffs = vec![0i64; n];
        for (&v, &p) in values.iter().zip(positions) {
            coeffs[p] = v;
        }
        let m = encode_coeff(&coeffs, self.ctx.t(), n);
        BfvEvaluator::new(&self.ctx).encrypt_sk(&m, &secrets.sk, sampler)
    }

    /// Step ① — the linear layer: multiplies by a plaintext kernel
    /// polynomial (signed coefficients) and adds a plaintext bias
    /// polynomial.
    pub fn linear(
        &self,
        ct: &BfvCiphertext,
        kernel_coeffs: &[i64],
        bias: &[(usize, i64)],
        stats: &mut PipelineStats,
    ) -> BfvCiphertext {
        let ev = BfvEvaluator::new(&self.ctx);
        let n = self.ctx.n();
        let k = encode_coeff(kernel_coeffs, self.ctx.t(), n);
        let mut out = ev.mul_plain(ct, &k);
        stats.pmult += 1;
        if !bias.is_empty() {
            let mut b = vec![0i64; n];
            for &(p, v) in bias {
                b[p] = v;
            }
            out = ev.add_plain(&out, &encode_coeff(&b, self.ctx.t(), n));
        }
        out
    }

    /// Homomorphic addition of two coefficient-encoded ciphertexts.
    pub fn add(
        &self,
        a: &BfvCiphertext,
        b: &BfvCiphertext,
        stats: &mut PipelineStats,
    ) -> BfvCiphertext {
        stats.hadd += 1;
        BfvEvaluator::new(&self.ctx).add(a, b)
    }

    /// Steps ② + ③ — modulus switch to the intermediate prime, extract the
    /// requested coefficients, switch dimension `N → n`, and drop to `t`.
    ///
    /// The final drop to `t` rounds all `n + 1` coordinates independently,
    /// which is exactly where the paper's `e_ms` term enters — use this for
    /// values that continue through the pipeline (the FBS LUT absorbs that
    /// noise). Client-bound outputs should use [`Self::extract_lwes_mid`]
    /// instead, so the rounding happens once, after decryption.
    pub fn extract_lwes(
        &self,
        ct: &BfvCiphertext,
        positions: &[usize],
        keys: &AthenaEvalKeys,
        stats: &mut PipelineStats,
    ) -> Vec<LweCiphertext> {
        self.lwes_to_t(&self.extract_lwes_mid(ct, positions, keys, stats))
    }

    /// Steps ② + ③ *without* the final drop to `t`: the LWEs stay at the
    /// extraction prime `q_mid`, carrying the message at scale `q_mid / t`.
    /// A convenience over the per-op methods the plan backends run
    /// ([`Self::mod_switch_mid`] → [`Self::sample_extract`] →
    /// [`Self::dim_switch`]).
    ///
    /// [`Self::decrypt_lwes`] recovers these exactly — the phase is
    /// computed in exact mod-`q_mid` arithmetic and rounded *once*, so the
    /// per-coordinate `e_ms` rounding noise (std ≈ `√((‖s‖²+1)/12)` plaintext
    /// units, enough to flip small logits) never lands on the result.
    pub fn extract_lwes_mid(
        &self,
        ct: &BfvCiphertext,
        positions: &[usize],
        keys: &AthenaEvalKeys,
        stats: &mut PipelineStats,
    ) -> Vec<LweCiphertext> {
        let small = self.mod_switch_mid(ct);
        let big = self.sample_extract(&small, positions, stats);
        self.dim_switch(&big, keys)
    }

    /// The intermediate extraction prime (`q_primes[0]`).
    pub fn q_mid(&self) -> u64 {
        self.q_mid
    }

    /// The S2C transform the engine applies in Step ⑤ (the plan compiler
    /// reads its schedule: op counts and Galois requirements).
    pub fn slot_to_coeff(&self) -> &SlotToCoeff {
        &self.s2c
    }

    /// Expected homomorphic op counts of one [`Self::pack`] call with
    /// `nontrivial` non-trivial input LWEs, under the configured packing
    /// method. Exact for uniformly random LWE masks (an all-zero mask
    /// column/diagonal is skipped at run time with probability ≈ `t^-slots`
    /// — negligible).
    pub fn pack_expected_op_counts(&self, nontrivial: usize) -> crate::trace::OpCounts {
        use crate::trace::OpCounts;
        let lwe_n = self.ctx.params().lwe_n;
        match self.packing {
            PackingMethod::Column => {
                if nontrivial == 0 {
                    OpCounts {
                        hadd: 1,
                        ..OpCounts::default()
                    }
                } else {
                    OpCounts {
                        pmult: lwe_n as u64,
                        hadd: lwe_n as u64 + 1,
                        ..OpCounts::default()
                    }
                }
            }
            PackingMethod::Bsgs => BsgsPackingKey::expected_op_counts_for(lwe_n),
        }
    }

    /// The configured packing method.
    pub fn packing_method(&self) -> PackingMethod {
        self.packing
    }

    /// Step ② alone — modulus switch to the intermediate prime. The plan
    /// executor runs this as its own step so per-step op counts attribute
    /// the ModSwitch to the Conversion phase, not to whatever follows.
    pub fn mod_switch_mid(&self, ct: &BfvCiphertext) -> athena_fhe::extract::SmallRlwe {
        mod_switch_rlwe(&self.ctx, ct, self.q_mid)
    }

    /// Step ③a alone — sample extraction of the requested coefficients
    /// from a mod-switched ciphertext (still at RLWE dimension `N`), in
    /// position order.
    pub fn sample_extract(
        &self,
        small: &athena_fhe::extract::SmallRlwe,
        positions: &[usize],
        stats: &mut PipelineStats,
    ) -> Vec<LweCiphertext> {
        stats.extracts += positions.len();
        positions
            .iter()
            .map(|&p| sample_extract_one(small, p))
            .collect()
    }

    /// Step ③b alone — LWE dimension switch `N → n` at `q_mid`.
    pub fn dim_switch(&self, big: &[LweCiphertext], keys: &AthenaEvalKeys) -> Vec<LweCiphertext> {
        big.iter().map(|c| keys.lwe_ksk.switch(c)).collect()
    }

    /// Step ③c alone — the final LWE modulus drop to `t` (this rounding is
    /// exactly where the paper's `e_ms` enters; skip it for client-bound
    /// values).
    pub fn lwes_to_t(&self, lwes: &[LweCiphertext]) -> Vec<LweCiphertext> {
        lwes.iter()
            .map(|c| lwe_mod_switch(c, self.ctx.t()))
            .collect()
    }

    /// LWE-level linear combination: `a + mult·b` (used for residual skips
    /// and pooling sums — exact arithmetic at the operands' shared modulus,
    /// framework Step ③½).
    pub fn lwe_add_scaled(&self, a: &LweCiphertext, b: &LweCiphertext, mult: i64) -> LweCiphertext {
        assert_eq!(a.q(), b.q(), "lwe_add_scaled: modulus mismatch");
        let qm = Modulus::new(a.q());
        let m = qm.from_i64(mult);
        let av: Vec<u64> = a
            .a()
            .iter()
            .zip(b.a())
            .map(|(&x, &y)| qm.add(x, qm.mul(y, m)))
            .collect();
        LweCiphertext::from_parts(av, qm.add(a.b(), qm.mul(b.b(), m)), a.q())
    }

    /// Steps ④ + ⑤ — pack LWEs into slots (trivial zeros where `None`),
    /// run FBS with the fused remap LUT, optionally mask non-valid slots,
    /// and S2C back to coefficients.
    ///
    /// Slot `i` of the result (and hence coefficient `i` after S2C) holds
    /// `LUT(value of lwes[i])`.
    pub fn pack_fbs_s2c(
        &self,
        lwes: &[Option<LweCiphertext>],
        lut: &Lut,
        keys: &AthenaEvalKeys,
        stats: &mut PipelineStats,
    ) -> BfvCiphertext {
        let packed = self.pack(lwes, keys, stats);
        let bootstrapped = self.fbs(&packed, lut, lwes, keys, stats);
        self.s2c(&bootstrapped, keys, stats)
    }

    /// Step ④ alone.
    pub fn pack(
        &self,
        lwes: &[Option<LweCiphertext>],
        keys: &AthenaEvalKeys,
        stats: &mut PipelineStats,
    ) -> BfvCiphertext {
        let n = self.ctx.n();
        assert!(lwes.len() <= n, "more values than slots");
        let dim = self.ctx.params().lwe_n;
        let t = self.ctx.t();
        let filled: Vec<LweCiphertext> = lwes
            .iter()
            .map(|o| match o {
                Some(c) => c.clone(),
                None => LweCiphertext::trivial(0, dim, t),
            })
            .collect();
        stats.packs += 1;
        match (self.packing, &keys.pack_bsgs) {
            (PackingMethod::Bsgs, Some(k)) => k.pack(&self.ctx, &filled, &keys.gk),
            _ => keys.pack.pack(&self.ctx, &filled),
        }
    }

    /// Step ⑤'s FBS alone (with masking of non-valid slots when the LUT
    /// does not map 0 to 0).
    pub fn fbs(
        &self,
        packed: &BfvCiphertext,
        lut: &Lut,
        lwes: &[Option<LweCiphertext>],
        keys: &AthenaEvalKeys,
        stats: &mut PipelineStats,
    ) -> BfvCiphertext {
        let ev = BfvEvaluator::new(&self.ctx);
        let (mut out, fstats) = fbs_apply(&self.ctx, packed, lut, &keys.rlk);
        stats.fbs_calls += 1;
        stats.fbs.cmult += fstats.cmult;
        stats.fbs.smult += fstats.smult;
        stats.fbs.hadd += fstats.hadd;
        if fbs_needs_mask(lut, lwes, self.ctx.n()) {
            let mask: Vec<u64> = (0..self.ctx.n())
                .map(|i| u64::from(matches!(lwes.get(i), Some(Some(_)))))
                .collect();
            out = ev.mul_plain(&out, &self.ctx.encoder().encode(&mask));
            stats.pmult += 1;
        }
        out
    }

    /// The S2C bridge alone.
    pub fn s2c(
        &self,
        ct: &BfvCiphertext,
        keys: &AthenaEvalKeys,
        stats: &mut PipelineStats,
    ) -> BfvCiphertext {
        stats.s2c_calls += 1;
        self.s2c.apply(&self.ctx, ct, &keys.gk)
    }

    /// Client-side decryption of selected coefficients (centered).
    pub fn decrypt_coeffs(
        &self,
        ct: &BfvCiphertext,
        positions: &[usize],
        secrets: &AthenaSecrets,
    ) -> Vec<i64> {
        let ev = BfvEvaluator::new(&self.ctx);
        let plain: Poly = ev.decrypt(ct, &secrets.sk);
        let t = Modulus::new(self.ctx.t());
        positions
            .iter()
            .map(|&p| t.center(plain.values()[p]))
            .collect()
    }

    /// Client-side decryption of a batch of LWE ciphertexts (centered).
    ///
    /// Handles both pipeline encodings: mod-`t` LWEs carry the message
    /// directly in their phase, while LWEs still at the extraction prime
    /// (from [`Self::extract_lwes_mid`]) carry it at scale `q_mid / t`.
    /// For the latter the phase is computed in exact mod-`q_mid`
    /// arithmetic and rounded once — the residual error is `e·t/q_mid ≪ ½`,
    /// so these decrypt exactly whenever the ciphertext noise is below
    /// half a plaintext step.
    pub fn decrypt_lwes(&self, lwes: &[LweCiphertext], secrets: &AthenaSecrets) -> Vec<i64> {
        let t = self.ctx.t();
        let tm = Modulus::new(t);
        lwes.iter()
            .map(|c| {
                if c.q() == t {
                    return tm.center(c.decrypt(&secrets.lwe_sk));
                }
                let sk = LweSecret::from_coeffs(secrets.lwe_sk.coeffs().to_vec(), c.q());
                let qm = Modulus::new(c.q());
                let phase = qm.center(c.decrypt(&sk)) as i128;
                let q = c.q() as i128;
                let num = phase * t as i128;
                let m = if num >= 0 {
                    (num + q / 2) / q
                } else {
                    (num - q / 2) / q
                };
                m as i64
            })
            .collect()
    }
}

impl AthenaEngine {
    /// Homomorphic softmax over a vector of LWE-held logits (§3.2.3):
    ///
    /// 1. `f(x) = ⌊e^{x/in_div}·exp_scale⌉` by one FBS pass;
    /// 2. the denominator `Σ e^{x_j}` by exact LWE additions, then the
    ///    inverse LUT `g(v) = ⌊inv_num / v⌉` by a second FBS pass;
    /// 3. one CMult joins numerator and denominator.
    ///
    /// Outputs are LWEs of `⌊softmax_i · out_scale⌉`-ish values (up to the
    /// two LUT roundings); `out_scale = exp_scale_sum / inv` granularity is
    /// chosen by the caller through the scale parameters.
    pub fn encrypted_softmax(
        &self,
        logits: &[LweCiphertext],
        in_div: f64,
        exp_scale: f64,
        inv_num: f64,
        keys: &AthenaEvalKeys,
        stats: &mut PipelineStats,
    ) -> Vec<LweCiphertext> {
        let t = self.ctx.t();
        let n = logits.len();
        assert!(n >= 1 && 2 * n <= self.ctx.n());
        // Step 1: exp LUT.
        let exp_lut = Lut::from_signed_fn(t, move |x| {
            ((x as f64 / in_div).exp() * exp_scale).round() as i64
        });
        let slots: Vec<Option<LweCiphertext>> = logits.iter().cloned().map(Some).collect();
        let packed = self.pack(&slots, keys, stats);
        let exp_ct = self.fbs(&packed, &exp_lut, &slots, keys, stats);
        let exp_coeff = self.s2c(&exp_ct, keys, stats);
        let positions: Vec<usize> = (0..n).collect();
        let exp_lwes = self.extract_lwes(&exp_coeff, &positions, keys, stats);
        // Step 2: denominator + inverse LUT.
        let mut denom = exp_lwes[0].clone();
        for e in &exp_lwes[1..] {
            denom = self.lwe_add_scaled(&denom, e, 1);
        }
        let inv_lut = Lut::from_signed_fn(t, move |v| {
            if v <= 0 {
                0
            } else {
                (inv_num / v as f64).round() as i64
            }
        });
        let denom_slots: Vec<Option<LweCiphertext>> = (0..n).map(|_| Some(denom.clone())).collect();
        let packed_d = self.pack(&denom_slots, keys, stats);
        let inv_ct = self.fbs(&packed_d, &inv_lut, &denom_slots, keys, stats);
        // Step 3: CMult numerator × inverse (both slot-encoded).
        let num_ct = self.fbs(
            &self.pack(
                &exp_lwes.iter().cloned().map(Some).collect::<Vec<_>>(),
                keys,
                stats,
            ),
            &Lut::from_signed_fn(t, |x| x),
            &slots,
            keys,
            stats,
        );
        let ev = BfvEvaluator::new(&self.ctx);
        let prod = ev.mul(&num_ct, &inv_ct, &keys.rlk);
        stats.fbs.cmult += 1;
        let prod_coeff = self.s2c(&prod, keys, stats);
        self.extract_lwes(&prod_coeff, &positions, keys, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fx {
        engine: AthenaEngine,
        secrets: AthenaSecrets,
        keys: AthenaEvalKeys,
        sampler: Sampler,
    }

    fn setup() -> Fx {
        let engine = AthenaEngine::new(BfvParams::test_small());
        let mut sampler = Sampler::from_seed(90210);
        let (secrets, keys) = engine.keygen(&mut sampler);
        Fx {
            engine,
            secrets,
            keys,
            sampler,
        }
    }

    #[test]
    fn one_full_loop_linear_then_relu_lut() {
        // A 1-channel 4×4 input, 2×2 kernel, conv → extract → pack →
        // FBS(ReLU + remap/4) → S2C, checked against plain integer math.
        let mut f = setup();
        let eng = &f.engine;
        use crate::encoding::ConvEncoder;
        use athena_nn::models::ConvShape;
        let shape = ConvShape {
            hw: 4,
            c_in: 1,
            c_out: 1,
            k: 2,
            stride: 1,
            padding: 0,
        };
        let enc = ConvEncoder::new(shape, eng.context().n());
        let img: Vec<i64> = (0..16).map(|i| (i % 7) - 3).collect();
        let kernel: Vec<i64> = vec![2, -1, 3, 1];
        let m = athena_nn::tensor::ITensor::from_vec(&[1, 4, 4], img.clone());
        let kt = athena_nn::tensor::ITensor::from_vec(&[1, 1, 2, 2], kernel.clone());
        let expected_acc = crate::encoding::direct_conv_valid(&m, &kt);

        let mut stats = PipelineStats::default();
        let coeffs = enc.encode_input(&m);
        let positions: Vec<usize> = (0..eng.context().n()).collect();
        let ct = eng.encrypt_at(&coeffs, &positions, &f.secrets, &mut f.sampler);
        let conv = eng.linear(&ct, &enc.encode_kernel(&kt), &[], &mut stats);

        // verify accumulators by decryption
        let out_positions: Vec<usize> = (0..3)
            .flat_map(|y| (0..3).map(move |x| (y, x)))
            .map(|(y, x)| enc.output_index(0, y, x))
            .collect();
        let accs = eng.decrypt_coeffs(&conv, &out_positions, &f.secrets);
        assert_eq!(accs, expected_acc.data());

        // steps 2-3
        let lwes = eng.extract_lwes(&conv, &out_positions, &f.keys, &mut stats);
        let dec = eng.decrypt_lwes(&lwes, &f.secrets);
        for (i, (&d, &want)) in dec.iter().zip(expected_acc.data()).enumerate() {
            assert!((d - want).abs() <= 10, "lwe {i}: {d} vs {want}");
        }

        // steps 4-5: ReLU with remap scale 4
        let lut = Lut::from_signed_fn(eng.context().t(), |x| if x > 0 { (x + 2) / 4 } else { 0 });
        let opt: Vec<Option<LweCiphertext>> = lwes.into_iter().map(Some).collect();
        let result = eng.pack_fbs_s2c(&opt, &lut, &f.keys, &mut stats);
        let got = eng.decrypt_coeffs(&result, &(0..9).collect::<Vec<_>>(), &f.secrets);
        for (i, (&g, &acc)) in got.iter().zip(expected_acc.data()).enumerate() {
            let want = if acc > 0 { (acc + 2) / 4 } else { 0 };
            assert!(
                (g - want).abs() <= 2,
                "slot {i}: got {g}, want {want} (acc {acc})"
            );
        }
        assert_eq!(stats.fbs_calls, 1);
        assert_eq!(stats.packs, 1);
        assert_eq!(stats.s2c_calls, 1);
        assert!(stats.fbs.cmult > 0 && stats.fbs.smult > 0);
    }

    #[test]
    fn bsgs_packing_engine_runs_the_loop() {
        // Ablation 3: the BSGS-packing engine produces the same LUT results
        // as the column engine (both compute the identical plaintext map).
        let engine = AthenaEngine::with_packing(BfvParams::test_small(), PackingMethod::Bsgs);
        let mut sampler = Sampler::from_seed(90211);
        let (secrets, keys) = engine.keygen(&mut sampler);
        assert!(keys.pack_bsgs.is_some());
        let n = engine.context().n();
        let t = engine.context().t();
        let mut stats = PipelineStats::default();
        let values: Vec<i64> = (0..n as i64).map(|i| (i % 33) - 16).collect();
        let positions: Vec<usize> = (0..n).collect();
        let ct = engine.encrypt_at(&values, &positions, &secrets, &mut sampler);
        let lwes = engine.extract_lwes(&ct, &positions, &keys, &mut stats);
        let lut = Lut::from_signed_fn(t, |x| x.max(0));
        let opt: Vec<_> = lwes.into_iter().map(Some).collect();
        let out = engine.pack_fbs_s2c(&opt, &lut, &keys, &mut stats);
        let got = engine.decrypt_coeffs(&out, &positions, &secrets);
        let close = got
            .iter()
            .zip(&values)
            .filter(|(&g, &v)| (g - v.max(0)).abs() <= 8)
            .count();
        assert!(close as f64 > 0.9 * n as f64, "{close}/{n} close");
    }

    #[test]
    fn lwe_scaled_addition_for_skips() {
        let mut f = setup();
        let t = f.engine.context().t();
        let a = LweCiphertext::encrypt(
            Modulus::new(t).from_i64(20),
            &f.secrets.lwe_sk,
            &mut f.sampler,
        );
        let b = LweCiphertext::encrypt(
            Modulus::new(t).from_i64(-3),
            &f.secrets.lwe_sk,
            &mut f.sampler,
        );
        let c = f.engine.lwe_add_scaled(&a, &b, 5);
        let dec = f.engine.decrypt_lwes(&[c], &f.secrets)[0];
        // the multiplier scales b's noise by 5 as well (σ ≈ 16 here)
        assert!((dec - 5).abs() <= 60, "20 + 5·(−3) = 5, got {dec}");
    }

    #[test]
    fn client_bound_extraction_decrypts_exactly() {
        // Mod-`t` extraction rounds every LWE coordinate independently —
        // the e_ms noise the FBS LUT absorbs, but which would land raw on
        // client-bound logits (±1–2 plaintext units on test_small). The
        // q_mid-resident path must decrypt *exactly*: the phase is computed
        // in exact modular arithmetic and rounded once.
        let mut f = setup();
        let positions: Vec<usize> = (0..64).collect();
        let values: Vec<i64> = (0..64).map(|i| (i * 7 % 201) - 100).collect();
        let ct = f
            .engine
            .encrypt_at(&values, &positions, &f.secrets, &mut f.sampler);
        let mut stats = PipelineStats::default();
        let mid = f
            .engine
            .extract_lwes_mid(&ct, &positions, &f.keys, &mut stats);
        assert_ne!(mid[0].q(), f.engine.context().t(), "LWEs stay at q_mid");
        let dec = f.engine.decrypt_lwes(&mid, &f.secrets);
        assert_eq!(dec, values, "client-bound extraction must be exact");
    }

    #[test]
    fn homomorphic_softmax() {
        let mut f = setup();
        let t = f.engine.context().t();
        let tm = Modulus::new(t);
        // Logits chosen so exp values and products stay within t = 257.
        let logits_plain: Vec<i64> = vec![8, 0, -8];
        let lwes: Vec<LweCiphertext> = logits_plain
            .iter()
            .map(|&v| LweCiphertext::encrypt(tm.from_i64(v), &f.secrets.lwe_sk, &mut f.sampler))
            .collect();
        let mut stats = PipelineStats::default();
        // exp(x/8)·5 ∈ {14, 5, 2}; sum = 21; inv = round(105/21) = 5;
        // products {70, 25, 10} < t/2.
        let out = f
            .engine
            .encrypted_softmax(&lwes, 8.0, 5.0, 105.0, &f.keys, &mut stats);
        let dec = f.engine.decrypt_lwes(&out, &f.secrets);
        // Expected (up to LUT rounding and e_ms): the dominant logit's
        // softmax mass clearly exceeds the others (small entries carry
        // multiplied noise from the CMult, so only dominance is asserted).
        assert!(
            dec[0] > dec[1] + 20 && dec[0] > dec[2] + 20,
            "softmax order {dec:?}"
        );
        // Compare against the plain two-LUT pipeline.
        let plain: Vec<i64> = {
            let exps: Vec<i64> = logits_plain
                .iter()
                .map(|&x| ((x as f64 / 8.0).exp() * 5.0).round() as i64)
                .collect();
            let sum: i64 = exps.iter().sum();
            let inv = (105.0 / sum as f64).round() as i64;
            exps.iter().map(|&e| e * inv).collect()
        };
        for (i, (&got, &want)) in dec.iter().zip(&plain).enumerate() {
            assert!((got - want).abs() <= 35, "softmax {i}: {got} vs {want}");
        }
        assert_eq!(stats.fbs_calls, 3, "exp + inverse + identity bridge");
    }
}
