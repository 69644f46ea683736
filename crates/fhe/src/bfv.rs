//! RNS-BFV: the integer-exact FHE scheme Athena builds on.
//!
//! A ciphertext is `(c0, c1)` with `c0 + c1·s = Δ·m + e (mod Q)`,
//! `Δ = ⌊Q/t⌋`. Supported operations: encryption (secret- and public-key),
//! decryption, addition, plaintext multiplication (`PMult`), scalar
//! multiplication (`SMult`), ciphertext multiplication with relinearization
//! (`CMult`), Galois automorphisms / rotations (`HRot`) via key switching,
//! and the invariant-noise-budget probe used by the Table 4 analysis.
//!
//! ## Ciphertext multiplication on the FRU's datapath
//!
//! CMult is **exact** — operands are lifted (centred) into an extended RNS
//! basis `Q·P`, tensored there, and scaled by `t/Q` with exact rounding —
//! and it runs on word-sized arithmetic, the multiply–accumulate lanes of
//! the paper's FRU (§4.2), not on big integers:
//!
//! * **Lift.** The centred value of a coefficient is converted `Q → P` by
//!   [`BaseConverter::convert_centered`]; the `Q` limbs are copied.
//! * **Scale-down.** For a tensor coefficient `x` (limbs in `Q` and `P`):
//!   `r` = the centred residue `[t·x]_Q`, converted `Q → P`; then
//!   `w = (t·x − r)·Q^{-1} mod p_j` on the `P` limbs; then `w` converted
//!   `P → Q`. `Q` is odd and coprime to `2t`, so `t·x/Q` is never a tie,
//!   `|r| < Q/2` strictly, and `(t·x − r)/Q` *is* `round(t·x/Q)`.
//!   Operands are centred, so `|x| ≤ N·Q²/2` and `|w| ≤ t·N·Q/2 + 1`,
//!   which [`BfvParams::aux_primes`]' 8-bit margin keeps below `P/2^9`:
//!   `w` is represented faithfully mod `P`, and the way back is nowhere
//!   near the converter's ambiguous region.
//! * **The guard band.** The converter counts the CRT overflow `α` with a
//!   floating-point estimate whose error is bounded in terms of the limb
//!   count and the mantissa width (see [`BaseConverter`]); a coefficient
//!   whose estimate falls inside a band *proved* wider than that error —
//!   i.e. a value within `≈ 2^-44·Q` of `±Q/2` — takes the big-integer
//!   route instead, that coefficient only. So the result is bit-identical
//!   to big-integer CRT for **every** input, and no big integer is touched
//!   on a served request outside that branch (which a seeded 45 k-conversion
//!   chain never enters; `tests/properties.rs` pins both facts).
//!
//! The big-integer bodies survive once each, as that fallback and as the
//! oracle ([`BfvEvaluator::mul_no_relin_reference`]) the word-sized path
//! is tested against word for word. The same datapath serves Alg. 2's
//! inner sums: [`BfvEvaluator::linear_combination`] is one in-place MAC on
//! `u128` lanes, reduced every [`lazy_mac_terms`] products.
//!
//! ## Representation invariants
//!
//! Every ciphertext is **domain-uniform**: all component polynomials share
//! one [`Domain`], queryable with [`BfvCiphertext::domain`]. Key material
//! (secret key, public key, key-switching keys) lives permanently in Eval
//! (NTT) form — keys only ever participate in multiplications, so storing
//! them evaluated makes every keyed inner product pointwise. Key switching
//! therefore emits Eval-form ciphertexts, and [`apply_galois`]/
//! [`rotate_rows`] keep rotation chains NTT-resident end-to-end; conversion
//! back to coefficient form happens lazily, only where BFV semantics force
//! it: the digit decomposition inside [`KeySwitchKey::apply`], the centered
//! CRT lift of the tensor step in [`mul_no_relin`], modulus switching /
//! decryption scaling, and sample extraction.
//!
//! [`apply_galois`]: BfvEvaluator::apply_galois
//! [`rotate_rows`]: BfvEvaluator::rotate_rows
//! [`mul_no_relin`]: BfvEvaluator::mul_no_relin

use athena_math::bigint::UBig;
use athena_math::modops::{lazy_mac_terms, Modulus};
use athena_math::poly::{Domain, Poly};
use athena_math::rns::{coeff_polys, signed_residue, BaseConverter, RnsBasis, RnsPoly};
use athena_math::sampler::Sampler;
use athena_math::stats::{record, Counter};
use std::collections::HashMap;

use crate::encoder::SlotEncoder;
use crate::error::FheError;
use crate::params::BfvParams;

/// Shared context: parameter set plus every precomputed table.
#[derive(Debug)]
pub struct BfvContext {
    params: BfvParams,
    qb: RnsBasis,
    mb: RnsBasis,
    encoder: SlotEncoder,
    /// Δ mod q_i.
    delta_mod_qi: Vec<u64>,
    /// RNS gadget g_i = (Q/q_i)·[(Q/q_i)^{-1}]_{q_i} as residues mod every q_j.
    gadget: Vec<Vec<u64>>,
    delta: UBig,
    q: UBig,
    half_q: UBig,
    /// `Q → P`: the centred CMult lift.
    lift: BaseConverter,
    /// `Q → P` of the centred `[t·x]_Q`, times `−Q^{-1}`: the remainder
    /// half of the `t/Q` scale-down.
    scale_down: BaseConverter,
    /// `t·Q^{-1} mod p_j` with its Shoup companion, per `P` limb.
    t_q_inv: Vec<(u64, u64)>,
    /// `P → Q`: the scaled-down value back into the ciphertext basis.
    scale_back: BaseConverter,
}

impl BfvContext {
    /// Builds a context (precomputing NTT tables, CRT data, gadget vectors).
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail validation.
    pub fn new(params: BfvParams) -> Self {
        params.validate();
        let qb = params.q_basis();
        let mb = params.mult_basis();
        let encoder = SlotEncoder::new(params.t, params.n);
        let q = params.q_product();
        let delta = params.delta();
        let delta_mod_qi = qb
            .rings()
            .iter()
            .map(|r| delta.rem_u64(r.modulus().value()))
            .collect();
        // Gadget: g_i = hat_i * hat_inv_i mod Q, as residues.
        let k = qb.len();
        let mut gadget = Vec::with_capacity(k);
        for i in 0..k {
            let qi = qb.ring(i).modulus().value();
            let hat = q.div_rem_u64(qi).0;
            let hat_inv = qb
                .ring(i)
                .modulus()
                .inv(hat.rem_u64(qi))
                .expect("pairwise coprime");
            let g = hat.mul_u64(hat_inv).rem(&q);
            gadget.push(qb.crt_decompose(&g));
        }
        let half_q = q.shr(1);
        // CMult's word-sized conversion tables: a few hundred words off
        // the moduli `qb`/`mb` already hold (no further NTT table, no
        // second prime search).
        let (q_primes, p_primes) = (qb.moduli(), mb.moduli().split_off(k));
        let lift = qb.converter_to(&p_primes);
        let q_invs: Vec<u64> = (lift.dst().iter())
            .map(|p| p.inv(q.rem_u64(p.value())).expect("Q and P are coprime"))
            .collect();
        let neg_q_invs: Vec<u64> = (lift.dst().iter().zip(&q_invs))
            .map(|(p, &inv)| p.neg(inv))
            .collect();
        let t_q_inv = (lift.dst().iter().zip(&q_invs))
            .map(|(p, &inv)| {
                let c = p.mul(p.reduce(params.t), inv);
                (c, p.shoup(c))
            })
            .collect();
        let scale_down = lift.clone().scaled(params.t, &neg_q_invs);
        let scale_back = BaseConverter::new(&p_primes, &q_primes);
        Self {
            params,
            qb,
            mb,
            encoder,
            delta_mod_qi,
            gadget,
            delta,
            q,
            half_q,
            lift,
            scale_down,
            t_q_inv,
            scale_back,
        }
    }

    /// The parameter set.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// The RNS basis of `Q`.
    pub fn q_basis(&self) -> &RnsBasis {
        &self.qb
    }

    /// The extended multiplication basis.
    pub fn mult_basis(&self) -> &RnsBasis {
        &self.mb
    }

    /// The slot encoder over `Z_t`.
    pub fn encoder(&self) -> &SlotEncoder {
        &self.encoder
    }

    /// Plaintext modulus `t`.
    pub fn t(&self) -> u64 {
        self.params.t
    }

    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        self.params.n
    }

    /// `Δ = ⌊Q/t⌋`.
    pub fn delta(&self) -> &UBig {
        &self.delta
    }

    /// Lifts a plaintext polynomial (mod `t`, coefficient domain) into the
    /// `Q` basis, **centered** (values above `t/2` become negative), which
    /// keeps PMult noise growth minimal.
    pub fn lift_plaintext(&self, m: &Poly) -> RnsPoly {
        assert_eq!(m.domain(), Domain::Coeff);
        let t = self.params.t;
        let centered: Vec<i64> = m
            .values()
            .iter()
            .map(|&v| {
                if v > t / 2 {
                    v as i64 - t as i64
                } else {
                    v as i64
                }
            })
            .collect();
        self.qb.poly_from_i64(&centered)
    }

    /// `Δ · m` as an RNS polynomial (coefficient domain) — public for the
    /// seed-compressed encryption path.
    pub fn delta_times_plain(&self, m: &Poly) -> RnsPoly {
        self.delta_times(m)
    }

    /// `Δ · m` as an RNS polynomial (coefficient domain).
    fn delta_times(&self, m: &Poly) -> RnsPoly {
        assert_eq!(m.domain(), Domain::Coeff);
        let limbs = self
            .qb
            .rings()
            .iter()
            .zip(&self.delta_mod_qi)
            .map(|(r, &dq)| {
                let q = r.modulus();
                let vals = m.values().iter().map(|&v| q.mul(dq, q.reduce(v))).collect();
                Poly::from_values(vals, Domain::Coeff)
            })
            .collect();
        RnsPoly::from_limbs(limbs)
    }

    /// The recurring key-material inner product `a·b` brought back to
    /// coefficient form in one step. This is the only sanctioned way to
    /// leave Eval form on an encryption path: everything that *stays* on
    /// the hot path keeps the `mul_poly` output NTT-resident instead.
    pub fn mul_into_coeff(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        let mut prod = self.qb.mul_poly(a, b);
        self.qb.poly_to_coeff_inplace(&mut prod);
        prod
    }

    /// Digit-decomposes a coefficient-form polynomial `d` (interpreted mod
    /// `Q`) and lifts every digit into the full basis in **Eval form** —
    /// the `k²` forward NTTs that dominate a key switch. The digits depend
    /// only on `d`, never on the key, so hoisted rotation paths
    /// ([`BfvEvaluator::hoist`]) compute them once and reuse them across
    /// arbitrarily many Galois elements.
    ///
    /// Digits are lifted **balanced**: residue `v ∈ [0, q_i)` is lifted as
    /// the centered integer `v` or `v − q_i ∈ (−q_i/2, q_i/2]`. This is
    /// still the same digit mod `q_i` (so the gadget identity
    /// `Σ D_i·g_i ≡ d (mod Q)` is untouched — the other limbs only ever
    /// see `g_i ≡ 0`), but it halves the expected digit magnitude and with
    /// it the `Σ D_i·e_i` key-switch noise of every rotation and
    /// relinearization.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not in coefficient form (digit decomposition must
    /// read raw residues — one of the scheme's forced-Coeff boundaries).
    pub fn decompose_lift(&self, d: &RnsPoly) -> Vec<RnsPoly> {
        assert_eq!(
            d.domain(),
            Domain::Coeff,
            "digit decomposition needs coefficient form"
        );
        record(Counter::RotDecompose, 1);
        let rings = self.qb.rings();
        rings
            .iter()
            .zip(d.limbs())
            .map(|(ri, limb)| {
                // Lift limb i of d to the full basis, centered: |value| ≤ q_i/2.
                let qi = ri.modulus().value();
                let half = qi / 2;
                let vals = limb.values();
                let lifted_limbs: Vec<Poly> = rings
                    .iter()
                    .map(|r| {
                        let m = r.modulus();
                        let out = vals
                            .iter()
                            .map(|&v| {
                                if v <= half {
                                    m.reduce(v)
                                } else {
                                    m.neg(m.reduce(qi - v))
                                }
                            })
                            .collect();
                        Poly::from_values(out, Domain::Coeff)
                    })
                    .collect();
                let mut lifted = RnsPoly::from_limbs(lifted_limbs);
                self.qb.poly_to_eval_inplace(&mut lifted);
                lifted
            })
            .collect()
    }

    fn sample_error(&self, sampler: &mut Sampler) -> RnsPoly {
        let e = sampler.gaussian(self.params.n);
        self.qb.poly_from_i64(&e)
    }

    fn sample_uniform(&self, sampler: &mut Sampler) -> RnsPoly {
        let limbs = self
            .qb
            .rings()
            .iter()
            .map(|r| {
                Poly::from_values(
                    sampler.uniform_vec(r.modulus().value(), self.params.n),
                    Domain::Coeff,
                )
            })
            .collect();
        RnsPoly::from_limbs(limbs)
    }
}

/// The RLWE secret key: ternary coefficients, kept both as signed integers
/// (for extraction/noise probes) and in **Eval-form** RNS — the secret only
/// ever enters multiplications, so it is stored pre-transformed.
#[derive(Debug, Clone)]
pub struct SecretKey {
    coeffs: Vec<i64>,
    rns: RnsPoly,
}

impl SecretKey {
    /// Samples a fresh ternary secret.
    pub fn generate(ctx: &BfvContext, sampler: &mut Sampler) -> Self {
        let coeffs = sampler.ternary(ctx.params.n);
        let rns = ctx.qb.poly_to_eval(&ctx.qb.poly_from_i64(&coeffs));
        Self { coeffs, rns }
    }

    /// The signed coefficient vector.
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// The Eval-form RNS representation of the secret (for key material
    /// built outside this module, e.g. seed-compressed keys).
    pub fn rns_form(&self) -> &RnsPoly {
        &self.rns
    }

    /// `‖s‖₂²` (used by the e_ms noise model of §3.2.2).
    pub fn norm_sq(&self) -> u64 {
        self.coeffs.iter().map(|&c| (c * c) as u64).sum()
    }
}

/// A public encryption key `(b, a)` with `b = −a·s + e`, stored in Eval
/// form: encryption only ever multiplies both halves by the ephemeral `u`.
#[derive(Debug, Clone)]
pub struct PublicKey {
    b: RnsPoly,
    a: RnsPoly,
}

impl PublicKey {
    /// Derives a public key from a secret key.
    pub fn generate(ctx: &BfvContext, sk: &SecretKey, sampler: &mut Sampler) -> Self {
        let a = ctx.qb.poly_to_eval(&ctx.sample_uniform(sampler));
        let e = ctx.qb.poly_to_eval(&ctx.sample_error(sampler));
        let mut b = ctx.qb.neg_poly(&ctx.qb.mul_poly(&a, &sk.rns));
        ctx.qb.add_assign_poly(&mut b, &e);
        Self { b, a }
    }
}

/// A BFV ciphertext: two (or, mid-multiplication, three) ring elements in
/// RNS form. All parts share one domain — fresh encryptions are Coeff,
/// anything that went through key switching is Eval, and the two never mix
/// within a ciphertext (see the module-level representation invariants).
#[derive(Debug, Clone)]
pub struct BfvCiphertext {
    parts: Vec<RnsPoly>,
}

impl BfvCiphertext {
    /// The component polynomials.
    pub fn parts(&self) -> &[RnsPoly] {
        &self.parts
    }

    /// Mutable access to the component polynomials. The pipeline never
    /// mutates parts in place; this exists for fault-injection tooling
    /// (deliberate limb corruption) and tests. The caller must keep every
    /// value reduced modulo its limb prime and preserve the shared-domain
    /// invariant.
    pub fn parts_mut(&mut self) -> &mut [RnsPoly] {
        &mut self.parts
    }

    /// Number of components (2 normally, 3 before relinearization).
    pub fn size(&self) -> usize {
        self.parts.len()
    }

    /// The common domain of every component polynomial.
    pub fn domain(&self) -> Domain {
        let d = self.parts[0].domain();
        debug_assert!(
            self.parts.iter().all(|p| p.domain() == d),
            "ciphertext parts must share a domain"
        );
        d
    }

    /// Assembles a ciphertext from raw component polynomials.
    ///
    /// # Panics
    ///
    /// Panics unless there are 2 or 3 components; debug builds also reject
    /// components in different domains.
    pub fn from_parts(parts: Vec<RnsPoly>) -> Self {
        assert!(parts.len() == 2 || parts.len() == 3, "2 or 3 components");
        debug_assert!(
            parts.iter().all(|p| p.domain() == parts[0].domain()),
            "ciphertext parts must share a domain"
        );
        Self { parts }
    }

    /// The trivial encryption of zero, in the requested domain (the zero
    /// polynomial is a fixed point of the NTT, so no transform is needed).
    pub fn zero_in(ctx: &BfvContext, domain: Domain) -> Self {
        Self {
            parts: vec![ctx.qb.zero_poly(domain), ctx.qb.zero_poly(domain)],
        }
    }

    /// The trivial encryption of zero (coefficient form).
    pub fn zero(ctx: &BfvContext) -> Self {
        Self::zero_in(ctx, Domain::Coeff)
    }

    /// This ciphertext with every part in Eval form (no-op copies for parts
    /// already there).
    pub fn to_eval(&self, ctx: &BfvContext) -> Self {
        Self {
            parts: self.parts.iter().map(|p| ctx.qb.poly_to_eval(p)).collect(),
        }
    }

    /// This ciphertext with every part in coefficient form (no-op copies
    /// for parts already there).
    pub fn to_coeff(&self, ctx: &BfvContext) -> Self {
        Self {
            parts: self.parts.iter().map(|p| ctx.qb.poly_to_coeff(p)).collect(),
        }
    }

    /// A trivial (noiseless, non-secret) encryption of a plaintext.
    pub fn trivial(ctx: &BfvContext, m: &Poly) -> Self {
        Self {
            parts: vec![ctx.delta_times(m), ctx.qb.zero_poly(Domain::Coeff)],
        }
    }
}

/// A key-switching key translating decryptions under some source secret
/// `s_src` into decryptions under `s` — used for relinearization (`s² → s`)
/// and rotations (`s(X^g) → s`). The pairs are stored in Eval form: every
/// application multiplies them by decomposed digits, so the forward NTTs
/// are paid once at keygen instead of on every homomorphic rotation.
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    /// Per limb i: (b_i, a_i) with b_i = −a_i·s + e_i + g_i·s_src, Eval form.
    pairs: Vec<(RnsPoly, RnsPoly)>,
}

impl KeySwitchKey {
    fn generate(
        ctx: &BfvContext,
        sk: &SecretKey,
        src_rns: &RnsPoly,
        sampler: &mut Sampler,
    ) -> Self {
        assert_eq!(
            src_rns.domain(),
            Domain::Eval,
            "source secrets are derived from the Eval-form secret key"
        );
        let k = ctx.qb.len();
        let mut pairs = Vec::with_capacity(k);
        for i in 0..k {
            let a = ctx.qb.poly_to_eval(&ctx.sample_uniform(sampler));
            let e = ctx.qb.poly_to_eval(&ctx.sample_error(sampler));
            let mut b = ctx.qb.neg_poly(&ctx.qb.mul_poly(&a, &sk.rns));
            ctx.qb.add_assign_poly(&mut b, &e);
            // + g_i · s_src (per-limb scalar residues preserve Eval form)
            let g_src = {
                let limbs = ctx
                    .qb
                    .rings()
                    .iter()
                    .enumerate()
                    .map(|(j, r)| r.scalar_mul(&src_rns.limbs()[j], ctx.gadget[i][j]))
                    .collect();
                RnsPoly::from_limbs(limbs)
            };
            ctx.qb.add_assign_poly(&mut b, &g_src);
            pairs.push((b, a));
        }
        Self { pairs }
    }

    /// Applies the key to a coefficient-form polynomial `d` (interpreted
    /// mod `Q`): returns `(p0, p1)` in **Eval form** with
    /// `p0 + p1·s ≈ d·s_src`.
    ///
    /// The digit decomposition must read raw residues, so `d` is required
    /// in coefficient form — this is one of the scheme's forced-Coeff
    /// boundaries. Each lifted digit is transformed once (`k` forward NTTs,
    /// `k²` in total) and every inner product against the Eval-resident
    /// pairs is pointwise; no inverse transforms happen here at all.
    pub fn apply(&self, ctx: &BfvContext, d: &RnsPoly) -> (RnsPoly, RnsPoly) {
        self.apply_digits(ctx, &ctx.decompose_lift(d))
    }

    /// The per-key half of a key switch: inner products of already lifted,
    /// Eval-form digits against the key pairs. Hoisted rotation paths call
    /// [`BfvContext::decompose_lift`] once and then only pay this part per
    /// Galois element — it performs **zero** NTTs.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one digit per key pair.
    pub fn apply_digits(&self, ctx: &BfvContext, digits: &[RnsPoly]) -> (RnsPoly, RnsPoly) {
        assert_eq!(digits.len(), self.pairs.len(), "one digit per key pair");
        let terms: Vec<(RnsPoly, RnsPoly)> = digits
            .iter()
            .zip(&self.pairs)
            .map(|(digit, (k0, k1))| (ctx.qb.mul_poly(digit, k0), ctx.qb.mul_poly(digit, k1)))
            .collect();
        // Fold from the first term (0 + x = x exactly, so this is
        // bit-identical to seeding with zero polynomials but skips two
        // accumulator allocations and a full pass).
        let mut terms = terms.into_iter();
        let (mut p0, mut p1) = terms.next().expect("at least one digit");
        for (t0, t1) in terms {
            ctx.qb.add_assign_poly(&mut p0, &t0);
            ctx.qb.add_assign_poly(&mut p1, &t1);
        }
        (p0, p1)
    }
}

/// Relinearization key (`s² → s`).
#[derive(Debug, Clone)]
pub struct RelinKey(KeySwitchKey);

impl RelinKey {
    /// Generates a relinearization key.
    pub fn generate(ctx: &BfvContext, sk: &SecretKey, sampler: &mut Sampler) -> Self {
        let s2 = ctx.qb.mul_poly(&sk.rns, &sk.rns);
        Self(KeySwitchKey::generate(ctx, sk, &s2, sampler))
    }
}

/// Galois keys, one key-switching key per Galois element.
#[derive(Debug, Clone, Default)]
pub struct GaloisKeys {
    keys: HashMap<usize, KeySwitchKey>,
}

impl GaloisKeys {
    /// Generates keys for the given Galois elements.
    pub fn generate(
        ctx: &BfvContext,
        sk: &SecretKey,
        elements: &[usize],
        sampler: &mut Sampler,
    ) -> Self {
        let mut keys = HashMap::new();
        for &g in elements {
            assert!(g % 2 == 1, "Galois elements are odd");
            let s_g = ctx.qb.automorphism_poly(&sk.rns, g);
            keys.insert(g, KeySwitchKey::generate(ctx, sk, &s_g, sampler));
        }
        Self { keys }
    }

    /// The key for element `g`, if generated.
    pub fn key(&self, g: usize) -> Option<&KeySwitchKey> {
        self.keys.get(&g)
    }

    /// The key for element `g`, panicking with a typed
    /// [`FheError::KeyMissing`] payload (downcastable by panic-safe
    /// drivers; its display text carries the coverage diagnostic) when it
    /// is absent.
    fn key_or_panic(&self, g: usize) -> &KeySwitchKey {
        self.keys.get(&g).unwrap_or_else(|| {
            crate::error::raise(FheError::KeyMissing {
                element: g,
                available: self.elements(),
            })
        })
    }

    /// Validates that every element of `required` has a key — call this
    /// before starting a rotation schedule so a coverage gap fails up
    /// front, with the full listing, instead of mid-schedule.
    ///
    /// # Panics
    ///
    /// Panics with the required-vs-available listing if any key is missing.
    pub fn ensure_covers(&self, required: &[usize]) {
        let missing: Vec<usize> = required
            .iter()
            .copied()
            .filter(|g| !self.keys.contains_key(g))
            .collect();
        if !missing.is_empty() {
            crate::error::raise(FheError::KeyCoverage {
                missing,
                required: required.to_vec(),
                available: self.elements(),
            });
        }
    }

    /// Galois elements covered.
    pub fn elements(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.keys.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

/// The BFV evaluator: all homomorphic operations, parameterized by context.
#[derive(Debug)]
pub struct BfvEvaluator<'a> {
    ctx: &'a BfvContext,
}

impl<'a> BfvEvaluator<'a> {
    /// Creates an evaluator over a context.
    pub fn new(ctx: &'a BfvContext) -> Self {
        Self { ctx }
    }

    /// The underlying context.
    pub fn context(&self) -> &BfvContext {
        self.ctx
    }

    /// Secret-key encryption of a plaintext polynomial (mod `t`). Fresh
    /// ciphertexts are in coefficient form.
    pub fn encrypt_sk(&self, m: &Poly, sk: &SecretKey, sampler: &mut Sampler) -> BfvCiphertext {
        let ctx = self.ctx;
        let a = ctx.sample_uniform(sampler);
        let e = ctx.sample_error(sampler);
        let mut c0 = ctx.qb.neg_poly(&ctx.mul_into_coeff(&a, &sk.rns));
        ctx.qb.add_assign_poly(&mut c0, &e);
        ctx.qb.add_assign_poly(&mut c0, &ctx.delta_times(m));
        BfvCiphertext { parts: vec![c0, a] }
    }

    /// Public-key encryption of a plaintext polynomial (mod `t`). Fresh
    /// ciphertexts are in coefficient form.
    pub fn encrypt_pk(&self, m: &Poly, pk: &PublicKey, sampler: &mut Sampler) -> BfvCiphertext {
        let ctx = self.ctx;
        let u = ctx
            .qb
            .poly_to_eval(&ctx.qb.poly_from_i64(&sampler.ternary(ctx.params.n)));
        let e0 = ctx.sample_error(sampler);
        let e1 = ctx.sample_error(sampler);
        let mut c0 = ctx.mul_into_coeff(&pk.b, &u);
        ctx.qb.add_assign_poly(&mut c0, &e0);
        ctx.qb.add_assign_poly(&mut c0, &ctx.delta_times(m));
        let mut c1 = ctx.mul_into_coeff(&pk.a, &u);
        ctx.qb.add_assign_poly(&mut c1, &e1);
        BfvCiphertext {
            parts: vec![c0, c1],
        }
    }

    /// Computes the raw phase `c0 + c1·s (+ c2·s²)` in coefficient domain
    /// (accepting ciphertexts in either form — decryption is a forced-Coeff
    /// boundary).
    fn phase(&self, ct: &BfvCiphertext, sk: &SecretKey) -> RnsPoly {
        let ctx = self.ctx;
        let mut acc = ctx.qb.poly_to_coeff(&ct.parts[0]);
        // The first power is the key itself, borrowed; higher powers (only
        // needed for size-3 ciphertexts) are produced on demand, pointwise
        // in Eval form.
        let mut s_owned: Option<RnsPoly> = None;
        for (i, part) in ct.parts[1..].iter().enumerate() {
            let s = s_owned.as_ref().unwrap_or(&sk.rns);
            let term = ctx.mul_into_coeff(part, s);
            let next = (i + 2 < ct.parts.len()).then(|| ctx.qb.mul_poly(s, &sk.rns));
            ctx.qb.add_assign_poly(&mut acc, &term);
            if next.is_some() {
                s_owned = next;
            }
        }
        acc
    }

    /// Decrypts to a plaintext polynomial mod `t`.
    pub fn decrypt(&self, ct: &BfvCiphertext, sk: &SecretKey) -> Poly {
        let ctx = self.ctx;
        let x = self.phase(ct, sk);
        let vals = ctx.qb.scale_round(&x, ctx.params.t, ctx.params.t);
        Poly::from_values(vals, Domain::Coeff)
    }

    /// Invariant noise budget in bits (SEAL-style): bits of headroom left
    /// before `t·(phase)/Q` rounds to the wrong integer. Positive values
    /// are safe doublings of headroom; any value `≤ 0` means decryption is
    /// no longer guaranteed.
    ///
    /// Once the worst coefficient's noise magnitude is within a factor 4
    /// of the wrap boundary `Q/2` the probe returns **−1** — the band
    /// where genuinely swamped (mod-`Q`-wrapped) noise lands almost
    /// surely. The probe **saturates** there: past the wrap, magnitude
    /// information is unrecoverable (the centered residue is at most
    /// `Q/2` however large the true noise), so arbitrarily worse noise
    /// still reads −1 rather than underflowing the `i64`.
    pub fn noise_budget(&self, ct: &BfvCiphertext, sk: &SecretKey) -> i64 {
        let ctx = self.ctx;
        let x = self.phase(ct, sk);
        let coeffs = ctx.qb.poly_to_ubig(&x);
        let mut worst: usize = 0;
        let mut swamped = false;
        for c in &coeffs {
            // v = t*c mod Q, centered
            let v = c.mul_u64(ctx.params.t).rem(&ctx.q);
            let mag = if v > ctx.half_q { ctx.q.sub(&v) } else { v };
            swamped = swamped || mag.mul_u64(4) >= ctx.q;
            worst = worst.max(mag.bits());
        }
        if swamped {
            return -1;
        }
        // mag ≤ ⌊Q/2⌋ by centering, so this difference is never negative
        // on its own; the explicit −1 above is the only negative value the
        // probe can produce.
        ctx.q.bits() as i64 - 1 - worst as i64
    }

    /// Homomorphic addition. Operands must share a domain (debug builds
    /// panic on a mismatch — convert one with [`BfvCiphertext::to_eval`] /
    /// [`BfvCiphertext::to_coeff`] first).
    pub fn add(&self, a: &BfvCiphertext, b: &BfvCiphertext) -> BfvCiphertext {
        assert_eq!(a.size(), b.size(), "ciphertext sizes must match");
        record(Counter::Hadd, 1);
        let parts = a
            .parts
            .iter()
            .zip(&b.parts)
            .map(|(x, y)| self.ctx.qb.add_poly(x, y))
            .collect();
        BfvCiphertext { parts }
    }

    /// Homomorphic subtraction.
    pub fn sub(&self, a: &BfvCiphertext, b: &BfvCiphertext) -> BfvCiphertext {
        assert_eq!(a.size(), b.size(), "ciphertext sizes must match");
        record(Counter::Hadd, 1);
        let parts = a
            .parts
            .iter()
            .zip(&b.parts)
            .map(|(x, y)| self.ctx.qb.sub_poly(x, y))
            .collect();
        BfvCiphertext { parts }
    }

    /// In-place addition.
    pub fn add_assign(&self, a: &mut BfvCiphertext, b: &BfvCiphertext) {
        assert_eq!(a.size(), b.size());
        record(Counter::Hadd, 1);
        for (x, y) in a.parts.iter_mut().zip(&b.parts) {
            self.ctx.qb.add_assign_poly(x, y);
        }
    }

    /// Adds a plaintext polynomial (mod `t`), following the ciphertext's
    /// domain (`Δ·m` is transformed when the ciphertext is Eval-resident).
    pub fn add_plain(&self, a: &BfvCiphertext, m: &Poly) -> BfvCiphertext {
        record(Counter::Hadd, 1);
        let ctx = self.ctx;
        let mut d = ctx.delta_times(m);
        if a.parts[0].domain() == Domain::Eval {
            ctx.qb.poly_to_eval_inplace(&mut d);
        }
        // Build the result directly: part 0 is the sum, the rest are
        // copies — no whole-ciphertext clone followed by an in-place add.
        let mut parts = Vec::with_capacity(a.size());
        parts.push(ctx.qb.add_poly(&a.parts[0], &d));
        parts.extend(a.parts[1..].iter().cloned());
        BfvCiphertext { parts }
    }

    /// Plaintext multiplication (`PMult`): multiplies the encrypted
    /// plaintext by `m` (mod `t`). Domain-preserving: an Eval-resident
    /// ciphertext multiplies pointwise and stays Eval.
    pub fn mul_plain(&self, a: &BfvCiphertext, m: &Poly) -> BfvCiphertext {
        let lifted = self.ctx.qb.poly_to_eval(&self.ctx.lift_plaintext(m));
        self.mul_plain_lifted(a, &lifted)
    }

    /// `PMult` against an already lifted, Eval-form plaintext — the cached
    /// operand shape used by the BSGS linear-transform loops. Domain-
    /// preserving, like [`mul_plain`](Self::mul_plain); on an Eval-form
    /// ciphertext this is NTT-free.
    pub fn mul_plain_lifted(&self, a: &BfvCiphertext, lifted: &RnsPoly) -> BfvCiphertext {
        let ctx = self.ctx;
        assert_eq!(
            lifted.domain(),
            Domain::Eval,
            "lifted plaintext operands are cached in Eval form"
        );
        record(Counter::Pmult, 1);
        let keep_coeff = a.domain() == Domain::Coeff;
        let parts = a
            .parts
            .iter()
            .map(|p| {
                let mut prod = ctx.qb.mul_poly(p, lifted);
                if keep_coeff {
                    ctx.qb.poly_to_coeff_inplace(&mut prod);
                }
                prod
            })
            .collect();
        BfvCiphertext { parts }
    }

    /// Scalar multiplication (`SMult`): multiplies the encrypted plaintext
    /// by the constant `c ∈ Z_t` (lifted centered). Domain-preserving and
    /// NTT-free in either form.
    pub fn mul_scalar(&self, a: &BfvCiphertext, c: u64) -> BfvCiphertext {
        record(Counter::Smult, 1);
        let ctx = self.ctx;
        let t = ctx.params.t;
        let c = c % t;
        let signed = if c > t / 2 {
            c as i64 - t as i64
        } else {
            c as i64
        };
        let parts = a
            .parts
            .iter()
            .map(|p| ctx.qb.scalar_mul_poly_i64(p, signed))
            .collect();
        BfvCiphertext { parts }
    }

    /// The linear combination `Σ c_k·ct_k` (`c_k ∈ Z_t`, lifted centred;
    /// terms with `c_k ≡ 0` skipped) as **one in-place modular
    /// multiply–accumulate** — Alg. 2's inner sum on the FRU's MAC datapath
    /// (§4.2). Residues equal the chain of [`mul_scalar`](Self::mul_scalar)
    /// and [`add`](Self::add) it stands for (modular arithmetic is exact,
    /// so the order of reductions cannot show), and it is tallied as that
    /// chain — one logical SMult per term, one HAdd between terms — but it
    /// writes a single result ciphertext: every lane accumulates
    /// `c'·x` in a `u128` and is reduced once per [`lazy_mac_terms`]
    /// products (a whole block at 50-bit limbs, every 255 terms at 60).
    /// Domain-preserving; `None` when no term survives.
    ///
    /// # Panics
    ///
    /// Panics if the terms differ in size or domain.
    pub fn linear_combination<'c>(
        &self,
        terms: impl IntoIterator<Item = (&'c BfvCiphertext, u64)>,
    ) -> Option<BfvCiphertext> {
        let ctx = self.ctx;
        let tm = Modulus::new(ctx.params.t);
        let terms: Vec<(&BfvCiphertext, i64)> = terms
            .into_iter()
            .map(|(ct, c)| (ct, tm.center(c % tm.value())))
            .filter(|&(_, c)| c != 0)
            .collect();
        let (first, _) = terms.first()?;
        let (size, domain, n) = (first.size(), first.domain(), ctx.params.n);
        assert!(
            terms
                .iter()
                .all(|(ct, _)| ct.size() == size && ct.domain() == domain),
            "linear-combination terms must share size and domain"
        );
        // One fused multiply-accumulate stands for this many logical ops.
        record(Counter::Smult, terms.len() as u64);
        record(Counter::Hadd, terms.len() as u64 - 1);
        let mut lanes = vec![0u128; n];
        let parts = (0..size)
            .map(|part| {
                let limbs = ctx.qb.rings().iter().enumerate().map(|(i, r)| {
                    let m = r.modulus();
                    lanes.fill(0);
                    for run in terms.chunks(lazy_mac_terms(m.bits(), m.bits())) {
                        for &(ct, c) in run {
                            let c = m.from_i64(c) as u128;
                            let xs = ct.parts[part].limbs()[i].values();
                            for (lane, &x) in lanes.iter_mut().zip(xs) {
                                *lane += c * x as u128;
                            }
                        }
                        for lane in lanes.iter_mut() {
                            *lane = m.reduce_u128(*lane) as u128;
                        }
                    }
                    let out = lanes.iter().map(|&lane| lane as u64).collect();
                    Poly::from_values(out, domain)
                });
                RnsPoly::from_limbs(limbs.collect())
            })
            .collect();
        Some(BfvCiphertext { parts })
    }

    /// Lifts a coefficient-form ciphertext part into the extended basis,
    /// centred: the `Q` limbs are the part's own (moved, not recomputed),
    /// the `P` limbs the exact word-sized conversion of the centred value.
    /// Also hands back how many coefficients took the big-integer route.
    fn lift_centered(&self, p: RnsPoly, reference: bool) -> (RnsPoly, usize) {
        let ctx = self.ctx;
        let (aux, big) = if reference {
            (ctx.qb.convert_centered_reference(&p, ctx.lift.dst()), p.n())
        } else {
            ctx.qb.convert_centered(&p, &ctx.lift)
        };
        let mut limbs = p.into_limbs();
        limbs.extend(aux);
        (RnsPoly::from_limbs(limbs), big)
    }

    /// Scales a tensored component by `t/Q` with exact rounding and reduces
    /// back into the `Q` basis, on word-sized arithmetic (module docs:
    /// remainder `Q → P`, exact division on the `P` limbs, quotient
    /// `P → Q`). Also hands back how many coefficients took the
    /// big-integer route.
    fn scale_to_q(&self, mut e: RnsPoly, reference: bool) -> (RnsPoly, usize) {
        let ctx = self.ctx;
        ctx.mb.poly_to_coeff_inplace(&mut e);
        let (k, n) = (ctx.qb.len(), ctx.params.n);
        let mut out = vec![vec![0; n]; k];
        let mut ambiguous: Vec<usize> = if reference {
            (0..n).collect()
        } else {
            let limbs = e.slices();
            let (x_q, x_p) = limbs.split_at(k);
            // w = −r·Q^{-1} (the converter's output) + x·t·Q^{-1}.
            let mut w = vec![vec![0; n]; x_p.len()];
            let mut ambiguous = ctx.scale_down.convert_centered(x_q, &mut w);
            let consts = ctx.scale_down.dst().iter().zip(&ctx.t_q_inv);
            for ((w, x), (p, &(c, c_shoup))) in w.iter_mut().zip(x_p).zip(consts) {
                for (o, &x) in w.iter_mut().zip(*x) {
                    *o = p.add(*o, p.mul_shoup(x, c, c_shoup));
                }
            }
            let w: Vec<&[u64]> = w.iter().map(|l| &l[..]).collect();
            ambiguous.extend(ctx.scale_back.convert_centered(&w, &mut out));
            ambiguous
        };
        ambiguous.sort_unstable();
        ambiguous.dedup();
        let mut residues = vec![0u64; ctx.mb.len()];
        for &c in &ambiguous {
            self.scale_coeff_reference(&e, c, &mut residues, &mut out);
        }
        (RnsPoly::from_limbs(coeff_polys(out)), ambiguous.len())
    }

    /// Coefficient `c` of the scale-down through big integers: CRT
    /// reconstruction in the extended basis, centring, `round(t·x/Q)` by
    /// long division — the guard-band fallback of
    /// [`scale_to_q`](Self::scale_to_q) and, run on every coefficient, its
    /// oracle.
    fn scale_coeff_reference(
        &self,
        e: &RnsPoly,
        c: usize,
        residues: &mut [u64],
        out: &mut [Vec<u64>],
    ) {
        let ctx = self.ctx;
        e.gather(c, residues);
        let x = ctx.mb.crt_reconstruct_centered(residues);
        let w = x.mag.mul_u64(ctx.params.t).div_round(&ctx.q);
        for (o, r) in out.iter_mut().zip(ctx.qb.rings()) {
            o[c] = signed_residue(x.neg, &w, r.modulus());
        }
    }

    /// Ciphertext multiplication without relinearization (result size 3,
    /// coefficient form). The centered CRT lift into the extended basis is
    /// the second forced-Coeff boundary: Eval-resident operands are
    /// converted down here, lazily, rather than eagerly at production.
    pub fn mul_no_relin(&self, a: &BfvCiphertext, b: &BfvCiphertext) -> BfvCiphertext {
        self.mul_no_relin_counted(a, b).0
    }

    /// [`mul_no_relin`](Self::mul_no_relin), also handing back how many of
    /// its coefficient conversions (two lifts per operand part, two per
    /// scale-down) fell into a guard band and went through big integers —
    /// 0 on anything but constructed inputs; the served path drops it.
    pub fn mul_no_relin_counted(
        &self,
        a: &BfvCiphertext,
        b: &BfvCiphertext,
    ) -> (BfvCiphertext, usize) {
        self.mul_no_relin_via(a, b, false)
    }

    /// [`mul_no_relin`](Self::mul_no_relin) with **every** coefficient of
    /// the lifts and scale-downs through big-integer CRT — the oracle of
    /// the word-sized path (same tensor, same NTTs; only the conversions
    /// differ). Test-only in spirit: ~6× the cost of the served path.
    pub fn mul_no_relin_reference(&self, a: &BfvCiphertext, b: &BfvCiphertext) -> BfvCiphertext {
        self.mul_no_relin_via(a, b, true).0
    }

    fn mul_no_relin_via(
        &self,
        a: &BfvCiphertext,
        b: &BfvCiphertext,
        reference: bool,
    ) -> (BfvCiphertext, usize) {
        let (la, big_a) = self.lift_via(a, reference);
        let (lb, big_b) = self.lift_via(b, reference);
        let (ct, big) = self.tensor_via(&la, &lb, reference);
        (ct, big_a + big_b + big)
    }

    /// Lifts a size-2 ciphertext into the extended multiplication basis
    /// (centered CRT lift + forward NTTs there) — the reusable operand half
    /// of a CMult tensor step. BSGS polynomial evaluation multiplies the
    /// same powers many times; lifting each one **once** hoists the
    /// forced-Coeff boundary out of the inner loop, exactly as
    /// [`hoist`](Self::hoist) does for rotations.
    ///
    /// # Panics
    ///
    /// Panics unless `ct` has exactly two components.
    pub fn lift_for_mul(&self, ct: &BfvCiphertext) -> TensorOperand {
        self.lift_via(ct, false).0
    }

    fn lift_via(&self, ct: &BfvCiphertext, reference: bool) -> (TensorOperand, usize) {
        assert_eq!(ct.size(), 2, "operands must be size-2 ciphertexts");
        let ctx = self.ctx;
        record(Counter::LiftComputed, 1);
        let mut big = 0;
        let parts = ct
            .parts
            .iter()
            .map(|p| {
                let (mut lifted, b) = self.lift_centered(ctx.qb.poly_to_coeff(p), reference);
                big += b;
                ctx.mb.poly_to_eval_inplace(&mut lifted);
                lifted
            })
            .collect();
        (TensorOperand { parts }, big)
    }

    /// The tensor step on pre-lifted operands (result size 3, coefficient
    /// form): pointwise products in the extended basis plus the exact `t/Q`
    /// scale-down. No lifts, so repeated products against a cached
    /// [`TensorOperand`] pay zero forward NTTs on that operand.
    pub fn mul_no_relin_lifted(&self, a: &TensorOperand, b: &TensorOperand) -> BfvCiphertext {
        self.tensor_via(a, b, false).0
    }

    fn tensor_via(
        &self,
        a: &TensorOperand,
        b: &TensorOperand,
        reference: bool,
    ) -> (BfvCiphertext, usize) {
        record(Counter::Cmult, 1);
        let ctx = self.ctx;
        let e0 = ctx.mb.mul_poly(&a.parts[0], &b.parts[0]);
        let mut e1 = ctx.mb.mul_poly(&a.parts[0], &b.parts[1]);
        ctx.mb
            .add_assign_poly(&mut e1, &ctx.mb.mul_poly(&a.parts[1], &b.parts[0]));
        let e2 = ctx.mb.mul_poly(&a.parts[1], &b.parts[1]);
        let mut big = 0;
        let parts = [e0, e1, e2]
            .into_iter()
            .map(|e| {
                let (scaled, b) = self.scale_to_q(e, reference);
                big += b;
                scaled
            })
            .collect();
        (BfvCiphertext { parts }, big)
    }

    /// Relinearizes a size-3 ciphertext back to size 2, preserving the
    /// input's domain (the key-switched correction is produced in Eval form
    /// and folded into whatever form `c0`/`c1` are already in).
    pub fn relinearize(&self, ct: &BfvCiphertext, rlk: &RelinKey) -> BfvCiphertext {
        assert_eq!(ct.size(), 3, "relinearization expects a size-3 ciphertext");
        let ctx = self.ctx;
        let d = ctx.qb.poly_to_coeff(&ct.parts[2]);
        let (mut p0, mut p1) = rlk.0.apply(ctx, &d);
        if ct.parts[0].domain() == Domain::Coeff {
            ctx.qb.poly_to_coeff_inplace(&mut p0);
            ctx.qb.poly_to_coeff_inplace(&mut p1);
        }
        BfvCiphertext {
            parts: vec![
                ctx.qb.add_poly(&ct.parts[0], &p0),
                ctx.qb.add_poly(&ct.parts[1], &p1),
            ],
        }
    }

    /// Full ciphertext multiplication (`CMult`): tensor + relinearize.
    pub fn mul(&self, a: &BfvCiphertext, b: &BfvCiphertext, rlk: &RelinKey) -> BfvCiphertext {
        self.relinearize(&self.mul_no_relin(a, b), rlk)
    }

    /// Applies the Galois automorphism `X → X^g` homomorphically
    /// (`HRot` building block). Accepts either domain and always produces
    /// an **Eval-form** ciphertext: on an Eval-resident input the
    /// automorphism is a pure permutation and the only transforms are the
    /// `k` inverse NTTs bringing `c1` down for digit decomposition plus
    /// the `k²` digit lifts inside the key switch — zero forward NTTs touch
    /// the ciphertext body, which is what keeps rotation chains cheap.
    ///
    /// The schedule is decompose-*then*-permute: `c1` is decomposed first
    /// and the automorphism is applied to the lifted digits in Eval form
    /// (a pure index permutation). Because the gadget constants are fixed
    /// by every automorphism, `Σ φ_g(D_i)·g_i = φ_g(c1) (mod Q)` exactly,
    /// so this is the same key switch — and it makes one eager rotation
    /// **bit-identical** to [`BfvEvaluator::hoist`] + one hoisted rotation,
    /// which share this code path.
    ///
    /// # Panics
    ///
    /// Panics if no key for `g` is present.
    pub fn apply_galois(&self, ct: &BfvCiphertext, g: usize, gk: &GaloisKeys) -> BfvCiphertext {
        assert_eq!(ct.size(), 2, "automorphism expects a size-2 ciphertext");
        let ctx = self.ctx;
        let key = gk.key_or_panic(g);
        let c0 = ctx.qb.poly_to_eval(&ct.parts[0]);
        let digits = ctx.decompose_lift(&ctx.qb.poly_to_coeff(&ct.parts[1]));
        record(Counter::RotEager, 1);
        self.galois_from_digits(&c0, &digits, g, key)
    }

    /// One Galois application from pre-lifted digits: permutes the cached
    /// Eval-form digits (index permutation, zero NTTs), runs the per-key
    /// inner products, and folds in the permuted `c0`. Shared by the eager
    /// path above and [`HoistedCiphertext::apply_galois`].
    fn galois_from_digits(
        &self,
        c0_eval: &RnsPoly,
        digits: &[RnsPoly],
        g: usize,
        key: &KeySwitchKey,
    ) -> BfvCiphertext {
        let ctx = self.ctx;
        record(Counter::Hrot, 1);
        let permuted: Vec<RnsPoly> = digits
            .iter()
            .map(|digit| ctx.qb.automorphism_poly(digit, g))
            .collect();
        let (mut p0, p1) = key.apply_digits(ctx, &permuted);
        ctx.qb
            .add_assign_poly(&mut p0, &ctx.qb.automorphism_poly(c0_eval, g));
        BfvCiphertext {
            parts: vec![p0, p1],
        }
    }

    /// Prepares a ciphertext for **hoisted** rotations (Halevi–Shoup):
    /// decomposes and lifts the `c1` digits once — `k` inverse + `k²`
    /// forward NTTs, the same bill as a single rotation — after which every
    /// [`HoistedCiphertext::apply_galois`] is an NTT-free digit permutation
    /// plus inner products. Rotating one source `R` times costs one
    /// decomposition instead of `R`.
    ///
    /// # Panics
    ///
    /// Panics unless `ct` has exactly two components.
    pub fn hoist(&self, ct: &BfvCiphertext) -> HoistedCiphertext {
        assert_eq!(ct.size(), 2, "hoisting expects a size-2 ciphertext");
        let ctx = self.ctx;
        let digits = ctx.decompose_lift(&ctx.qb.poly_to_coeff(&ct.parts[1]));
        HoistedCiphertext {
            ct: ct.to_eval(ctx),
            digits,
        }
    }

    /// Rotates every slot row left by `k` (`HRot`). Output is Eval-form,
    /// except for the trivial `k ≡ 0` rotation, which is a domain-
    /// preserving copy.
    pub fn rotate_rows(&self, ct: &BfvCiphertext, k: usize, gk: &GaloisKeys) -> BfvCiphertext {
        if k.is_multiple_of(self.ctx.encoder.row_size()) {
            return ct.clone();
        }
        let g = self.ctx.encoder.galois_for_rotation(k);
        self.apply_galois(ct, g, gk)
    }

    /// Swaps the two slot rows (`HRot` column rotation, Eval-form output).
    pub fn swap_rows(&self, ct: &BfvCiphertext, gk: &GaloisKeys) -> BfvCiphertext {
        self.apply_galois(ct, self.ctx.encoder.galois_for_row_swap(), gk)
    }
}

/// A size-2 ciphertext lifted (centered) into the extended multiplication
/// basis and NTT-transformed there — the reusable operand half of a CMult
/// tensor step, produced by [`BfvEvaluator::lift_for_mul`] and consumed by
/// [`BfvEvaluator::mul_no_relin_lifted`]. The CMult analogue of
/// [`HoistedCiphertext`]: the forced-Coeff lift is paid once per operand
/// instead of once per product.
#[derive(Debug, Clone)]
pub struct TensorOperand {
    /// Both components in the extended basis, Eval form.
    parts: Vec<RnsPoly>,
}

/// A size-2 ciphertext whose `c1` digit decomposition has been **hoisted**:
/// [`BfvEvaluator::hoist`] decomposed and lifted the digits once, so every
/// rotation of this source is an Eval-domain index permutation of the
/// cached digits plus per-key inner products — zero NTTs per Galois
/// element. This is the decompose-once/rotate-many shape of every BSGS
/// schedule (all baby rotations act on the same source).
///
/// Outputs are bit-identical to the eager [`BfvEvaluator::apply_galois`]
/// path — both run the same decompose-then-permute key switch.
#[derive(Debug, Clone)]
pub struct HoistedCiphertext {
    /// The source ciphertext, Eval-resident.
    ct: BfvCiphertext,
    /// Eval-form lifted digits of `c1`, shared by every rotation.
    digits: Vec<RnsPoly>,
}

impl HoistedCiphertext {
    /// The underlying (Eval-form) ciphertext.
    pub fn ciphertext(&self) -> &BfvCiphertext {
        &self.ct
    }

    /// Heap size of the cached digits in bytes (`k²` limb polynomials) —
    /// for key-material accounting when digits are stored long-term.
    pub fn digit_bytes(&self) -> usize {
        self.digits
            .iter()
            .map(|d| {
                d.limbs()
                    .iter()
                    .map(|l| l.values().len() * 8)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Applies the Galois automorphism `X → X^g` from the cached digits
    /// (always Eval-form output, zero NTTs).
    ///
    /// # Panics
    ///
    /// Panics if no key for `g` is present.
    pub fn apply_galois(&self, ctx: &BfvContext, g: usize, gk: &GaloisKeys) -> BfvCiphertext {
        let key = gk.key_or_panic(g);
        record(Counter::RotHoisted, 1);
        BfvEvaluator::new(ctx).galois_from_digits(&self.ct.parts[0], &self.digits, g, key)
    }

    /// Rotates every slot row left by `k` from the cached digits; the
    /// trivial `k ≡ 0` rotation is a copy of the source.
    pub fn rotate_rows(&self, ctx: &BfvContext, k: usize, gk: &GaloisKeys) -> BfvCiphertext {
        if k.is_multiple_of(ctx.encoder().row_size()) {
            return self.ct.clone();
        }
        self.apply_galois(ctx, ctx.encoder().galois_for_rotation(k), gk)
    }

    /// Swaps the two slot rows from the cached digits.
    pub fn swap_rows(&self, ctx: &BfvContext, gk: &GaloisKeys) -> BfvCiphertext {
        self.apply_galois(ctx, ctx.encoder().galois_for_row_swap(), gk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::encode_coeff;

    fn setup() -> (BfvContext, SecretKey, Sampler) {
        let ctx = BfvContext::new(BfvParams::test_small());
        let mut sampler = Sampler::from_seed(1234);
        let sk = SecretKey::generate(&ctx, &mut sampler);
        (ctx, sk, sampler)
    }

    #[test]
    fn encrypt_decrypt_roundtrip_sk() {
        let (ctx, sk, mut sampler) = setup();
        let ev = BfvEvaluator::new(&ctx);
        let m = encode_coeff(&(0..128).map(|i| i - 64).collect::<Vec<_>>(), 257, 128);
        let ct = ev.encrypt_sk(&m, &sk, &mut sampler);
        assert!(ev.noise_budget(&ct, &sk) > 100, "fresh budget too small");
        assert_eq!(ev.decrypt(&ct, &sk), m);
    }

    #[test]
    fn encrypt_decrypt_roundtrip_pk() {
        let (ctx, sk, mut sampler) = setup();
        let pk = PublicKey::generate(&ctx, &sk, &mut sampler);
        let ev = BfvEvaluator::new(&ctx);
        let m = encode_coeff(&[42, -7, 100], 257, 128);
        let ct = ev.encrypt_pk(&m, &pk, &mut sampler);
        assert_eq!(ev.decrypt(&ct, &sk), m);
    }

    #[test]
    fn homomorphic_add_sub() {
        let (ctx, sk, mut sampler) = setup();
        let ev = BfvEvaluator::new(&ctx);
        let ma = encode_coeff(&[10, 20, 30], 257, 128);
        let mb = encode_coeff(&[1, 2, 250], 257, 128);
        let ca = ev.encrypt_sk(&ma, &sk, &mut sampler);
        let cb = ev.encrypt_sk(&mb, &sk, &mut sampler);
        let sum = ev.decrypt(&ev.add(&ca, &cb), &sk);
        assert_eq!(&sum.values()[..3], &[11, 22, (30 + 250) % 257]);
        let diff = ev.decrypt(&ev.sub(&ca, &cb), &sk);
        assert_eq!(&diff.values()[..3], &[9, 18, (30 + 257 - 250) % 257]);
    }

    #[test]
    fn plain_and_scalar_mul() {
        let (ctx, sk, mut sampler) = setup();
        let ev = BfvEvaluator::new(&ctx);
        // slot-encoded so products are slot-wise
        let enc = ctx.encoder();
        let a: Vec<u64> = (0..128u64).collect();
        let b: Vec<u64> = (0..128u64).map(|i| (3 * i + 1) % 257).collect();
        let ct = ev.encrypt_sk(&enc.encode(&a), &sk, &mut sampler);
        let prod = ev.mul_plain(&ct, &enc.encode(&b));
        let got = enc.decode(&ev.decrypt(&prod, &sk));
        let want: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x * y % 257).collect();
        assert_eq!(got, want);
        let scaled = ev.mul_scalar(&ct, 5);
        let got = enc.decode(&ev.decrypt(&scaled, &sk));
        let want: Vec<u64> = a.iter().map(|&x| 5 * x % 257).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn ciphertext_multiplication_with_relin() {
        let (ctx, sk, mut sampler) = setup();
        let ev = BfvEvaluator::new(&ctx);
        let rlk = RelinKey::generate(&ctx, &sk, &mut sampler);
        let enc = ctx.encoder();
        let a: Vec<u64> = (0..128u64).map(|i| (i * 7) % 257).collect();
        let b: Vec<u64> = (0..128u64).map(|i| (i + 11) % 257).collect();
        let ca = ev.encrypt_sk(&enc.encode(&a), &sk, &mut sampler);
        let cb = ev.encrypt_sk(&enc.encode(&b), &sk, &mut sampler);
        let prod = ev.mul(&ca, &cb, &rlk);
        assert_eq!(prod.size(), 2);
        assert!(
            ev.noise_budget(&prod, &sk) > 0,
            "budget exhausted after one mul"
        );
        let got = enc.decode(&ev.decrypt(&prod, &sk));
        let want: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x * y % 257).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn repeated_multiplication_depth() {
        let (ctx, sk, mut sampler) = setup();
        let ev = BfvEvaluator::new(&ctx);
        let rlk = RelinKey::generate(&ctx, &sk, &mut sampler);
        let enc = ctx.encoder();
        let x: Vec<u64> = vec![3; 128];
        let mut ct = ev.encrypt_sk(&enc.encode(&x), &sk, &mut sampler);
        // square 3 times: 3^8 = 6561 mod 257 = 6561 - 25*257 = 136
        for _ in 0..3 {
            ct = ev.mul(&ct, &ct, &rlk);
        }
        let got = enc.decode(&ev.decrypt(&ct, &sk));
        assert!(got.iter().all(|&v| v == 6561 % 257), "got[0] = {}", got[0]);
    }

    #[test]
    fn rotation_rotates_slots() {
        let (ctx, sk, mut sampler) = setup();
        let ev = BfvEvaluator::new(&ctx);
        let enc = ctx.encoder();
        let vals: Vec<u64> = (0..128u64).collect();
        let g1 = enc.galois_for_rotation(1);
        let g5 = enc.galois_for_rotation(5);
        let gs = enc.galois_for_row_swap();
        let gk = GaloisKeys::generate(&ctx, &sk, &[g1, g5, gs], &mut sampler);
        let ct = ev.encrypt_sk(&enc.encode(&vals), &sk, &mut sampler);
        for k in [1usize, 5] {
            let rot = ev.rotate_rows(&ct, k, &gk);
            let got = enc.decode(&ev.decrypt(&rot, &sk));
            assert_eq!(got, enc.rotate_slots(&vals, k), "k={k}");
        }
        let sw = ev.swap_rows(&ct, &gk);
        let got = enc.decode(&ev.decrypt(&sw, &sk));
        assert_eq!(got, enc.swap_rows(&vals));
    }

    #[test]
    fn hoisted_rotations_match_eager_bitwise() {
        let (ctx, sk, mut sampler) = setup();
        let ev = BfvEvaluator::new(&ctx);
        let enc = ctx.encoder();
        let vals: Vec<u64> = (0..128u64).map(|i| (i * 13 + 5) % 257).collect();
        let els: Vec<usize> = (1..4usize)
            .map(|k| enc.galois_for_rotation(k))
            .chain([enc.galois_for_row_swap()])
            .collect();
        let gk = GaloisKeys::generate(&ctx, &sk, &els, &mut sampler);
        let ct = ev.encrypt_sk(&enc.encode(&vals), &sk, &mut sampler);
        let hoisted = ev.hoist(&ct);
        for k in 1..4usize {
            let eager = ev.rotate_rows(&ct, k, &gk);
            let fast = hoisted.rotate_rows(&ctx, k, &gk);
            assert_eq!(eager.parts(), fast.parts(), "k={k}");
        }
        assert_eq!(
            ev.swap_rows(&ct, &gk).parts(),
            hoisted.swap_rows(&ctx, &gk).parts()
        );
    }

    #[test]
    fn lifted_tensor_mul_matches_direct() {
        let (ctx, sk, mut sampler) = setup();
        let ev = BfvEvaluator::new(&ctx);
        let enc = ctx.encoder();
        let a: Vec<u64> = (0..128u64).map(|i| (i * 7) % 257).collect();
        let b: Vec<u64> = (0..128u64).map(|i| (i + 11) % 257).collect();
        let ca = ev.encrypt_sk(&enc.encode(&a), &sk, &mut sampler);
        let cb = ev.encrypt_sk(&enc.encode(&b), &sk, &mut sampler);
        let direct = ev.mul_no_relin(&ca, &cb);
        let (la, lb) = (ev.lift_for_mul(&ca), ev.lift_for_mul(&cb));
        let lifted = ev.mul_no_relin_lifted(&la, &lb);
        assert_eq!(direct.parts(), lifted.parts());
        // Reusing a cached operand (squaring) also matches the direct route.
        assert_eq!(
            ev.mul_no_relin(&ca, &ca).parts(),
            ev.mul_no_relin_lifted(&la, &la).parts()
        );
    }

    #[test]
    fn scale_down_guard_band_coefficients_fall_back_and_still_match() {
        // Tensor coefficients x with [t·x]_Q = ±⌊Q/2⌋ put the scale-down's
        // remainder conversion inside its guard band: x = (v + m·Q)/t for
        // the m that makes the division exact.
        let (ctx, _sk, _s) = setup();
        let ev = BfvEvaluator::new(&ctx);
        let tm = Modulus::new(ctx.t());
        let q_inv = tm.inv(ctx.q.rem_u64(ctx.t())).expect("Q coprime to t");
        let planted: Vec<UBig> = [ctx.half_q.clone(), ctx.half_q.add_u64(1)]
            .iter()
            .map(|v| {
                let m = tm.mul(tm.neg(v.rem_u64(ctx.t())), q_inv);
                let (x, rem) = v.add(&ctx.q.mul_u64(m)).div_rem_u64(ctx.t());
                assert_eq!(rem, 0);
                x
            })
            .collect();
        let mut coeffs: Vec<UBig> = (0..ctx.n() as u64)
            .map(|i| ctx.delta.mul_u64(i * i + 1))
            .collect();
        coeffs[5] = planted[0].clone();
        coeffs[90] = planted[1].clone();
        let e = ctx.mb.poly_from_ubig(&coeffs);
        let (fast, big) = ev.scale_to_q(e.clone(), false);
        let (reference, all) = ev.scale_to_q(e, true);
        assert_eq!(fast, reference);
        assert_eq!((big, all), (planted.len(), ctx.n()));
    }

    #[test]
    fn missing_galois_key_panics_with_typed_payload() {
        let (ctx, sk, mut sampler) = setup();
        let ev = BfvEvaluator::new(&ctx);
        let enc = ctx.encoder();
        let g1 = enc.galois_for_rotation(1);
        let g2 = enc.galois_for_rotation(2);
        let gk = GaloisKeys::generate(&ctx, &sk, &[g1], &mut sampler);
        let ct = ev.encrypt_sk(&encode_coeff(&[1], 257, 128), &sk, &mut sampler);
        // Key for rotation 2 was never generated: the unwind payload must
        // be the typed error, downcastable at a catch boundary.
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = ev.rotate_rows(&ct, 2, &gk);
        }))
        .expect_err("missing key must unwind");
        let err = payload
            .downcast_ref::<FheError>()
            .expect("payload is FheError");
        assert_eq!(
            *err,
            FheError::KeyMissing {
                element: g2,
                available: vec![g1],
            }
        );
        assert!(err.to_string().contains("missing Galois key for element"));
    }

    #[test]
    fn ensure_covers_reports_missing_elements_as_typed_payload() {
        let (ctx, sk, mut sampler) = setup();
        let enc = ctx.encoder();
        let g1 = enc.galois_for_rotation(1);
        let g2 = enc.galois_for_rotation(2);
        let gk = GaloisKeys::generate(&ctx, &sk, &[g1], &mut sampler);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gk.ensure_covers(&[g1, g2]);
        }))
        .expect_err("coverage gap must unwind");
        let err = payload
            .downcast_ref::<FheError>()
            .expect("payload is FheError");
        assert!(
            matches!(err, FheError::KeyCoverage { missing, .. } if missing == &vec![g2]),
            "wrong payload: {err:?}"
        );
        assert!(err.to_string().contains("Galois key coverage gap"));
    }

    #[test]
    fn ensure_covers_accepts_full_coverage() {
        let (ctx, sk, mut sampler) = setup();
        let enc = ctx.encoder();
        let els = [enc.galois_for_rotation(1), enc.galois_for_row_swap()];
        let gk = GaloisKeys::generate(&ctx, &sk, &els, &mut sampler);
        gk.ensure_covers(&els);
        gk.ensure_covers(&[]);
    }

    #[test]
    fn trivial_ciphertext_decrypts() {
        let (ctx, sk, _s) = setup();
        let ev = BfvEvaluator::new(&ctx);
        let m = encode_coeff(&[7, 0, 99], 257, 128);
        let ct = BfvCiphertext::trivial(&ctx, &m);
        assert_eq!(ev.decrypt(&ct, &sk), m);
    }

    #[test]
    fn add_plain_matches() {
        let (ctx, sk, mut sampler) = setup();
        let ev = BfvEvaluator::new(&ctx);
        let m1 = encode_coeff(&[100], 257, 128);
        let m2 = encode_coeff(&[200], 257, 128);
        let ct = ev.encrypt_sk(&m1, &sk, &mut sampler);
        let sum = ev.add_plain(&ct, &m2);
        assert_eq!(ev.decrypt(&sum, &sk).values()[0], 300 % 257);
    }
}
