//! Functional bootstrapping (framework Step ⑤, Eq. 3 + Alg. 2).
//!
//! A lookup table over `Z_t` is interpolated into the polynomial `FBS(x)`
//! with `FBS(k) = LUT(k)` for every `k ∈ Z_t` (t prime), then evaluated on a
//! slot-encoded BFV ciphertext with the BSGS schedule of Alg. 2
//! ([`bsgs_polynomial_eval`]: baby powers `x^1..x^bs`, one multiply–
//! accumulate per leaf of `bs` coefficients, and the outer sum as a
//! balanced tree of `X^{2^j}` products — ≈ 2√t CMults, 34 at `t = 257` and
//! 518 at `t = 65537`, at depth `⌈log₂ bs⌉ + ⌈log₂ gs⌉`). Every CMult
//! operand's tensor-basis lift lives only as long as the schedule still
//! multiplies by it (see `Lifted`). Because the
//! packing step produced a *fresh* ciphertext at full modulus `Q`, the LUT
//! evaluation simultaneously (a) applies an arbitrary non-linear function,
//! (b) performs the quantization remap, and (c) refreshes the noise — the
//! paper's "merged" bootstrapping.
//!
//! Interpolation cost: `O(t log t)` when `t − 1` is a power of two (a
//! size-(t−1) Fermat-style NTT over `Z_t` — this covers the production
//! `t = 65537`), with an `O(t²)` Lagrange fallback for other primes. A
//! [`Lut`] is a plan constant, so it pays that cost once: [`Lut::coeffs`]
//! memoises the polynomial, the plan compiler's dry run
//! ([`expected_stats`]) warms it, and a served request never interpolates.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

use athena_math::bsgs::bsgs_polynomial_eval;
use athena_math::modops::Modulus;
use athena_math::ntt::CyclicNtt;
use athena_math::par;
use athena_math::prime::{is_prime, primitive_root};
use athena_math::stats::{record, Counter};

use crate::bfv::{BfvCiphertext, BfvContext, BfvEvaluator, RelinKey, TensorOperand};

/// A lookup table over `Z_t`: entry `k` is the image of input `k`.
///
/// # Examples
///
/// ```
/// use athena_fhe::fbs::Lut;
/// // ReLU over Z_17 (inputs 9..16 represent negatives).
/// let lut = Lut::from_signed_fn(17, |x| x.max(0));
/// assert_eq!(lut.get(3), 3);
/// assert_eq!(lut.get(16), 0); // 16 ≡ -1
/// ```
#[derive(Debug, Clone)]
pub struct Lut {
    t: u64,
    table: Vec<u64>,
    /// The interpolated polynomial, computed on first use.
    coeffs: OnceLock<Vec<u64>>,
}

/// Equality is over what defines the LUT, `(t, table)`: a LUT whose
/// polynomial has been memoised equals one that has not interpolated yet.
impl PartialEq for Lut {
    fn eq(&self, other: &Self) -> bool {
        (self.t, &self.table) == (other.t, &other.table)
    }
}

impl Eq for Lut {}

impl Lut {
    /// Builds a LUT from explicit entries (reduced mod `t`).
    ///
    /// # Panics
    ///
    /// Panics unless `table.len() == t` and `t` is prime.
    pub fn new(t: u64, table: Vec<u64>) -> Self {
        assert!(is_prime(t), "FBS requires a prime plaintext modulus");
        assert_eq!(table.len(), t as usize, "LUT must have t entries");
        let table = table.into_iter().map(|v| v % t).collect();
        Self {
            t,
            table,
            coeffs: OnceLock::new(),
        }
    }

    /// Builds a LUT from a function on raw residues `[0, t)`.
    pub fn from_fn(t: u64, f: impl Fn(u64) -> u64) -> Self {
        Self::new(t, (0..t).map(f).collect())
    }

    /// Builds a LUT from a function on **centered** inputs
    /// `(-t/2, t/2]`, producing centered outputs (re-encoded mod `t`).
    pub fn from_signed_fn(t: u64, f: impl Fn(i64) -> i64) -> Self {
        let m = Modulus::new(t);
        Self::new(t, (0..t).map(|k| m.from_i64(f(m.center(k)))).collect())
    }

    /// The plaintext modulus.
    pub fn t(&self) -> u64 {
        self.t
    }

    /// Entry `k`.
    pub fn get(&self, k: u64) -> u64 {
        self.table[(k % self.t) as usize]
    }

    /// Evaluates the LUT on a centered input.
    pub fn get_signed(&self, x: i64) -> i64 {
        let m = Modulus::new(self.t);
        m.center(self.get(m.from_i64(x)))
    }

    /// The raw table.
    pub fn table(&self) -> &[u64] {
        &self.table
    }

    /// The interpolated polynomial `c_0..c_{t−1}` ([`interpolate`]d on the
    /// first call, memoised for the life of this `Lut` and of its clones).
    ///
    /// [`interpolate`]: Self::interpolate
    pub fn coeffs(&self) -> &[u64] {
        self.coeffs.get_or_init(|| self.interpolate())
    }

    /// Whether [`coeffs`](Self::coeffs) is already memoised — true for every
    /// LUT of a compiled plan, so a request never interpolates.
    pub fn is_interpolated(&self) -> bool {
        self.coeffs.get().is_some()
    }

    /// Interpolates the LUT into polynomial coefficients `c_0..c_{t−1}`
    /// with `Σ c_i x^i ≡ LUT(x) (mod t)` for all `x` (Eq. 3). Always
    /// recomputes; [`coeffs`](Self::coeffs) is the memoised form.
    pub fn interpolate(&self) -> Vec<u64> {
        if (self.t - 1).is_power_of_two() && self.t > 3 {
            self.interpolate_ntt()
        } else {
            self.interpolate_naive()
        }
    }

    /// `O(t²)` direct evaluation of Eq. 3 (reference / fallback).
    pub fn interpolate_naive(&self) -> Vec<u64> {
        let t = self.t;
        let m = Modulus::new(t);
        let mut coeffs = vec![0u64; t as usize];
        coeffs[0] = self.table[0];
        // c_i = -Σ_{k=1}^{t-1} LUT(k) · k^{t-1-i}, with the 0^0 = 1
        // convention adding LUT(0) into c_{t-1}.
        for i in 1..t {
            let mut s = 0u64;
            for k in 1..t {
                s = m.add(s, m.mul(self.table[k as usize], m.pow(k, t - 1 - i)));
            }
            if i == t - 1 {
                s = m.add(s, self.table[0]);
            }
            coeffs[i as usize] = m.neg(s);
        }
        coeffs
    }

    /// `O(t log t)` interpolation via the multiplicative-group DFT: with
    /// `k = g^j` (g a generator of `Z_t^*`), the sums
    /// `S_i = Σ_k LUT(k)·k^{−i}` become a length-(t−1) cyclic NTT over `Z_t`
    /// with root `ζ = g^{−1}`.
    ///
    /// # Panics
    ///
    /// Panics unless `t − 1` is a power of two.
    pub fn interpolate_ntt(&self) -> Vec<u64> {
        let t = self.t;
        assert!((t - 1).is_power_of_two(), "needs a Fermat-style prime");
        let m = Modulus::new(t);
        let g = primitive_root(t);
        let g_inv = m.inv(g).expect("generator invertible");
        let len = (t - 1) as usize;
        // a_j = LUT(g^j)
        let mut a = vec![0u64; len];
        let mut gp = 1u64;
        for slot in a.iter_mut() {
            *slot = self.table[gp as usize];
            gp = m.mul(gp, g);
        }
        // S_i = Σ_j a_j ζ^{ij} = DFT with ω = ζ = g^{-1}
        let ntt = CyclicNtt::with_omega(t, len, g_inv);
        let s = ntt.forward(&a);
        let mut coeffs = vec![0u64; t as usize];
        coeffs[0] = self.table[0];
        for i in 1..t as usize {
            // c_i = -S_{i mod (t-1)}; for i = t-1 the index wraps to 0 and
            // the 0^0 convention adds LUT(0).
            let mut v = s[i % len];
            if i == t as usize - 1 {
                v = m.add(v, self.table[0]);
            }
            coeffs[i] = m.neg(v);
        }
        coeffs
    }
}

/// Operation counts of one FBS evaluation (drives the cost model and the
/// Table 3 / Table 4 accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FbsStats {
    /// Ciphertext–ciphertext multiplications (CMult).
    pub cmult: usize,
    /// Scalar multiplications (SMult).
    pub smult: usize,
    /// Homomorphic additions (HAdd).
    pub hadd: usize,
}

/// A power's tensor-basis lift, the `L` of [`bsgs_polynomial_eval`]: the
/// schedule decides how long it lives (a baby power only while it is a
/// factor of a higher one, each giant `X^{2^j}` for the whole tree, each
/// node's `hi` for its single product), so each is computed once and
/// every further product against it — on whichever worker — counts as a
/// reused lift.
struct Lifted {
    op: TensorOperand,
    used: AtomicBool,
}

impl Lifted {
    fn new(ev: &BfvEvaluator, ct: &BfvCiphertext) -> Self {
        Self {
            op: ev.lift_for_mul(ct),
            used: AtomicBool::new(false),
        }
    }

    /// The lift as a CMult operand.
    fn operand(&self) -> &TensorOperand {
        if self.used.swap(true, Ordering::Relaxed) {
            record(Counter::LiftReused, 1);
        }
        &self.op
    }
}

/// Evaluates the LUT homomorphically on a slot-encoded ciphertext:
/// every slot `x` becomes `LUT(x)` (Alg. 2), forked over
/// [`par::num_threads`] workers where the schedule is large enough to pay
/// (bit-identical at any worker count). Returns the result and the
/// operation counts.
///
/// # Panics
///
/// Panics if the LUT modulus differs from the context's `t`.
pub fn fbs_apply(
    ctx: &BfvContext,
    ct: &BfvCiphertext,
    lut: &Lut,
    rlk: &RelinKey,
) -> (BfvCiphertext, FbsStats) {
    assert_eq!(lut.t(), ctx.t(), "LUT modulus must match context t");
    let ev = BfvEvaluator::new(ctx);
    let constant = |c: u64| ctx.encoder().encode(&vec![c; ctx.n()]);
    let tally = Tally::default();
    // Polynomial evaluation is CMult-dominated, and every CMult tensors
    // through the centered CRT lift — a forced-Coeff boundary — so an
    // Eval-resident input (e.g. fresh out of packing) is normalized to
    // coefficient form once here instead of inside every product.
    let out = bsgs_polynomial_eval(
        par::num_threads(),
        lut.coeffs(),
        ct.to_coeff(ctx),
        &|x: &BfvCiphertext| Lifted::new(&ev, x),
        &|a: &Lifted, b: &Lifted| {
            tally.mul();
            let tensored = ev.mul_no_relin_lifted(a.operand(), b.operand());
            ev.relinearize(&tensored, rlk)
        },
        // A leaf is one in-place MAC writing one ciphertext plus its
        // boundary coefficient as a plaintext constant, tallied as the
        // per-term SMult/HAdd chain it stands for.
        &|xs: &[BfvCiphertext], cs: &[u64], c: u64| {
            tally.lincomb(cs, c);
            match ev.linear_combination(xs.iter().zip(cs.iter().copied())) {
                None => BfvCiphertext::trivial(ctx, &constant(c)),
                Some(sum) if c == 0 => sum,
                Some(sum) => ev.add_plain(&sum, &constant(c)),
            }
        },
        &|a: &BfvCiphertext, b: &BfvCiphertext| {
            tally.add();
            ev.add(a, b)
        },
    );
    (out, tally.stats())
}

/// The logical op tally of Alg. 2's schedule, shared by the ciphertext
/// run and the [`expected_stats`] dry run so the two cannot count by
/// different rules: a leaf is one SMult per evaluated (non-zero) term, one
/// HAdd between terms and one HAdd for a non-zero constant, however the
/// algebra fuses it; a constant alone is a trivial ciphertext, no op.
/// Atomic, because the schedule's workers tally into it together.
#[derive(Default)]
struct Tally {
    cmult: AtomicUsize,
    smult: AtomicUsize,
    hadd: AtomicUsize,
}

impl Tally {
    fn mul(&self) {
        self.cmult.fetch_add(1, Ordering::Relaxed);
    }

    /// Tallies `c + Σ cs[k]·xs[k]`.
    fn lincomb(&self, cs: &[u64], c: u64) {
        let terms = cs.iter().filter(|&&c| c != 0).count();
        if terms > 0 {
            self.smult.fetch_add(terms, Ordering::Relaxed);
            self.hadd
                .fetch_add(terms - 1 + usize::from(c != 0), Ordering::Relaxed);
        }
    }

    fn add(&self) {
        self.hadd.fetch_add(1, Ordering::Relaxed);
    }

    fn stats(&self) -> FbsStats {
        FbsStats {
            cmult: self.cmult.load(Ordering::Relaxed),
            smult: self.smult.load(Ordering::Relaxed),
            hadd: self.hadd.load(Ordering::Relaxed),
        }
    }
}

/// Exact operation counts one [`fbs_apply`] of this LUT will incur,
/// computed by dry-running Alg. 2's schedule over a unit algebra on one
/// worker (the same [`bsgs_polynomial_eval`] drives both, and its counts
/// do not depend on the worker count, so zero-coefficient skipping — the
/// data-dependent part of the count — is reproduced exactly). The
/// constant `c_0 = LUT(0)` is part of the schedule (the first leaf's
/// plaintext constant), so these are all of the call's ops.
///
/// Reads — and on a cold `Lut`, fills — the memoised polynomial, so the
/// plan compiler's dry run over a step's own `Lut` is what spares every
/// later request the interpolation.
pub fn expected_stats(lut: &Lut) -> FbsStats {
    let tally = Tally::default();
    bsgs_polynomial_eval(
        1,
        lut.coeffs(),
        (),
        &|_: &()| (),
        &|_: &(), _: &()| tally.mul(),
        &|_: &[()], cs: &[u64], c: u64| tally.lincomb(cs, c),
        &|_: &(), _: &()| tally.add(),
    );
    tally.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfv::SecretKey;
    use crate::noise::StepDepths;
    use crate::params::BfvParams;
    use athena_math::bsgs::BsgsSplit;
    use athena_math::sampler::Sampler;

    #[test]
    fn paper_example_relu_mod_5() {
        // §3.2.3: t = 5, LUT = ReLU → FBS(x) = 3x + x² + 2x⁴.
        let lut = Lut::from_signed_fn(5, |x| x.max(0));
        assert_eq!(lut.table(), &[0, 1, 2, 0, 0]);
        let coeffs = lut.interpolate();
        assert_eq!(coeffs, vec![0, 3, 1, 0, 2]);
    }

    #[test]
    fn memoised_polynomial_is_the_interpolation_and_does_not_affect_equality() {
        let cold = Lut::from_signed_fn(257, |x| x.max(0));
        let warm = cold.clone();
        assert!(!warm.is_interpolated());
        assert_eq!(warm.coeffs(), &cold.interpolate()[..]);
        assert!(warm.is_interpolated() && !cold.is_interpolated());
        // A warmed LUT still equals a cold one; its clones stay warm; the
        // dry run is what warms a plan's LUT.
        assert_eq!(warm, cold);
        assert!(warm.clone().is_interpolated());
        assert_ne!(warm, Lut::from_signed_fn(257, |x| x.min(0)));
        expected_stats(&cold);
        assert!(cold.is_interpolated());
    }

    #[test]
    fn relu_remap_schedule_is_pinned() {
        // (bs−1) + (⌈log₂ gs⌉−1) + (gs−1) CMults: the LUT polynomial's few
        // zero coefficients (1 at t = 257, 3 at t = 65537) never empty a
        // leaf. One SMult per non-zero coefficient off the leaf
        // boundaries `c_{g·bs}` (those are plaintext constants).
        for (t, cmult) in [(257u64, 34usize), (65537, 518)] {
            let lut = Lut::from_signed_fn(t, |x| if x > 0 { (x + 2) / 4 } else { 0 });
            let bs = BsgsSplit::balanced(t as usize).baby;
            let off_boundary = lut.coeffs().iter().enumerate();
            let smult = off_boundary
                .filter(|&(i, &c)| c != 0 && i % bs != 0)
                .count();
            let stats = expected_stats(&lut);
            assert_eq!((stats.cmult, stats.smult), (cmult, smult), "t={t}");
        }
    }

    #[test]
    fn schedule_depth_fits_table4_fbs_row() {
        // The CMult depth of Alg. 2's tree on a dense LUT polynomial is
        // ⌈log₂ bs⌉ + ⌈log₂ gs⌉, within the depth Table 4 charges FBS.
        let ceil_log2 = |v: usize| v.next_power_of_two().ilog2();
        for t in [17u64, 257, 65537] {
            let lut = Lut::from_signed_fn(t, |x| x.max(0));
            let depth = bsgs_polynomial_eval(
                1,
                lut.coeffs(),
                0u32,
                &|d: &u32| *d,
                &|a: &u32, b: &u32| a.max(b) + 1,
                &|xs: &[u32], cs: &[u64], _: u64| {
                    let used = xs.iter().zip(cs).filter(|(_, &c)| c != 0);
                    used.map(|(d, _)| *d).max().unwrap_or(0)
                },
                &|a: &u32, b: &u32| *a.max(b),
            );
            let split = BsgsSplit::balanced(t as usize);
            assert_eq!(
                depth,
                ceil_log2(split.baby) + ceil_log2(split.giant),
                "t={t}"
            );
            assert!(depth <= StepDepths::fbs(t).cmult, "t={t}: depth {depth}");
        }
    }

    #[test]
    fn interpolation_agrees_on_all_points() {
        for t in [5u64, 17, 257] {
            let m = Modulus::new(t);
            let lut = Lut::from_fn(t, |k| (k * k + 3 * k + 1) % t);
            let coeffs = lut.interpolate_naive();
            for x in 0..t {
                let mut acc = 0u64;
                for &c in coeffs.iter().rev() {
                    acc = m.mul_add(acc, x, c);
                }
                assert_eq!(acc, lut.get(x), "t={t}, x={x}");
            }
        }
    }

    #[test]
    fn ntt_interpolation_matches_naive() {
        for t in [5u64, 17, 257] {
            let lut = Lut::from_fn(t, |k| (7 * k + k * k * k + 2) % t);
            assert_eq!(lut.interpolate_ntt(), lut.interpolate_naive(), "t={t}");
        }
    }

    #[test]
    fn full_t_interpolation_is_fast_and_correct() {
        // t = 65537: the production LUT size. NTT interpolation plus spot
        // checks of 100 points.
        let t = 65537u64;
        let m = Modulus::new(t);
        let lut = Lut::from_signed_fn(t, |x| x.clamp(-128, 127));
        let coeffs = lut.interpolate_ntt();
        for x in (0..t).step_by(653) {
            let mut acc = 0u64;
            for &c in coeffs.iter().rev() {
                acc = m.mul_add(acc, x, c);
            }
            assert_eq!(acc, lut.get(x), "x={x}");
        }
    }

    #[test]
    fn homomorphic_fbs_computes_relu_with_remap() {
        // The real thing: encrypt slot values, run FBS with a fused
        // ReLU + remap LUT, decrypt, compare with the plain LUT.
        let ctx = BfvContext::new(BfvParams::test_small());
        let mut sampler = Sampler::from_seed(555);
        let sk = SecretKey::generate(&ctx, &mut sampler);
        let rlk = RelinKey::generate(&ctx, &sk, &mut sampler);
        let ev = BfvEvaluator::new(&ctx);
        let enc = ctx.encoder();
        let t = ctx.t();
        // LUT(x) = round(ReLU(x) / 4)  (remap scale 4)
        let lut = Lut::from_signed_fn(t, |x| if x > 0 { (x + 2) / 4 } else { 0 });
        let inputs: Vec<u64> = (0..ctx.n() as u64).map(|i| i % t).collect();
        let ct = ev.encrypt_sk(&enc.encode(&inputs), &sk, &mut sampler);
        let (out, stats) = fbs_apply(&ctx, &ct, &lut, &rlk);
        let got = enc.decode(&ev.decrypt(&out, &sk));
        let want: Vec<u64> = inputs.iter().map(|&x| lut.get(x)).collect();
        assert_eq!(got, want);
        // Alg. 2 structure: CMult is O(sqrt t), SMult is O(t).
        let split = BsgsSplit::balanced(t as usize);
        assert!(
            stats.cmult <= 2 * (split.baby + split.giant),
            "cmult = {}",
            stats.cmult
        );
        assert!(stats.smult <= t as usize, "smult = {}", stats.smult);
    }

    #[test]
    fn fbs_constant_lut() {
        // A constant LUT exercises the trivial path (no CMult at all).
        let ctx = BfvContext::new(BfvParams::test_small());
        let mut sampler = Sampler::from_seed(556);
        let sk = SecretKey::generate(&ctx, &mut sampler);
        let rlk = RelinKey::generate(&ctx, &sk, &mut sampler);
        let ev = BfvEvaluator::new(&ctx);
        let enc = ctx.encoder();
        let lut = Lut::from_fn(ctx.t(), |_| 42);
        let inputs: Vec<u64> = (0..ctx.n() as u64).collect();
        let ct = ev.encrypt_sk(&enc.encode(&inputs), &sk, &mut sampler);
        let (out, stats) = fbs_apply(&ctx, &ct, &lut, &rlk);
        let got = enc.decode(&ev.decrypt(&out, &sk));
        assert!(got.iter().all(|&v| v == 42));
        assert_eq!(stats.cmult, 0);
    }

    #[test]
    fn fbs_refreshes_noise() {
        // After FBS the ciphertext must have enough budget for another
        // round of linear ops — the bootstrapping property.
        let ctx = BfvContext::new(BfvParams::test_small());
        let mut sampler = Sampler::from_seed(557);
        let sk = SecretKey::generate(&ctx, &mut sampler);
        let rlk = RelinKey::generate(&ctx, &sk, &mut sampler);
        let ev = BfvEvaluator::new(&ctx);
        let enc = ctx.encoder();
        let lut = Lut::from_signed_fn(ctx.t(), |x| x.max(0));
        let inputs: Vec<u64> = vec![5; ctx.n()];
        let ct = ev.encrypt_sk(&enc.encode(&inputs), &sk, &mut sampler);
        let (out, _) = fbs_apply(&ctx, &ct, &lut, &rlk);
        let budget = ev.noise_budget(&out, &sk);
        assert!(budget > 20, "post-FBS budget = {budget}");
    }
}
