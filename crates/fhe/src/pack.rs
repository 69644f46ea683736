//! Framework Step ④: packing `n`-dimensional LWE ciphertexts (mod `t`)
//! back into one BFV ciphertext (mod `Q`) whose **slots** hold the LWE
//! plaintexts.
//!
//! The operation is a homomorphic decryption: slot `i` of the result must
//! equal `b_i + ⟨a⃗_i, s'⟩ (mod t)`. The mask matrix `A = (a⃗_i)` and bodies
//! `b⃗` are *plaintext*; only the LWE secret `s'` is encrypted (the "packing
//! key"). Two implementations are provided:
//!
//! * [`ColumnPackingKey`] — one BFV ciphertext per LWE coordinate
//!   (`n` PMult + HAdd, zero rotations; big key). Simple and robust.
//! * [`BsgsPackingKey`] — one BFV ciphertext holding `s'` replicated across
//!   slots; the Halevi–Shoup diagonal method with a baby-step/giant-step
//!   rotation schedule (`O(√n)` HRot, `n` PMult). This matches the paper's
//!   Table 3 complexity (`O(C)` PMult, `O(C)` HRot via BSGS \[7\]).

use athena_math::bsgs::BsgsSplit;
use athena_math::poly::Domain;
use athena_math::sampler::Sampler;
use athena_math::stats::op_stats::HomOpCounts;

use crate::bfv::{
    BfvCiphertext, BfvContext, BfvEvaluator, GaloisKeys, HoistedCiphertext, SecretKey,
};
use crate::error::FheError;
use crate::lwe::{LweCiphertext, LweSecret};

/// Validates the shared preconditions of both packing strategies, raising
/// a typed [`FheError`] payload on violation.
fn check_pack_operands(lwes: &[LweCiphertext], n_slots: usize, n_lwe: usize, t: u64) {
    if lwes.len() > n_slots {
        crate::error::raise(FheError::PackCapacity {
            lwes: lwes.len(),
            slots: n_slots,
        });
    }
    for ct in lwes {
        if ct.dim() != n_lwe {
            crate::error::raise(FheError::LweDimension {
                got: ct.dim(),
                expected: n_lwe,
            });
        }
        if ct.q() != t {
            crate::error::raise(FheError::LweModulus {
                got: ct.q(),
                expected: t,
            });
        }
    }
}

/// Packing key for the naive column method: `pk[j]` encrypts the constant
/// `s'_j` in every slot. The component ciphertexts are key material — they
/// only ever feed PMult — so they are stored in Eval form.
#[derive(Debug, Clone)]
pub struct ColumnPackingKey {
    keys: Vec<BfvCiphertext>,
}

impl ColumnPackingKey {
    /// Generates the key (n BFV encryptions under the RLWE secret).
    pub fn generate(
        ctx: &BfvContext,
        rlwe_sk: &SecretKey,
        lwe_sk: &LweSecret,
        sampler: &mut Sampler,
    ) -> Self {
        let ev = BfvEvaluator::new(ctx);
        let enc = ctx.encoder();
        let keys = lwe_sk
            .coeffs()
            .iter()
            .map(|&sj| {
                let slots = vec![enc.ring().modulus().from_i64(sj); ctx.n()];
                ev.encrypt_sk(&enc.encode(&slots), rlwe_sk, sampler)
                    .to_eval(ctx)
            })
            .collect();
        Self { keys }
    }

    /// Number of component ciphertexts (`n`).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the key is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Key size in bytes (Table 1 accounting).
    pub fn bytes(&self, ctx: &BfvContext) -> usize {
        self.len() * ctx.params().ciphertext_bytes()
    }

    /// Expected operation counts of one [`pack`](Self::pack) call with at
    /// least one non-trivial LWE among the inputs: one PMult + HAdd per
    /// LWE coordinate, plus the plaintext-bodies add. A mask *column* that
    /// happens to be all-zero across every slot is skipped at run time, so
    /// the measured count can only fall below this (for uniform LWE masks
    /// the probability is ≈ `t^-slots` per column — negligible).
    pub fn expected_op_counts(&self, nontrivial: usize) -> HomOpCounts {
        if nontrivial == 0 {
            return HomOpCounts {
                hadd: 1,
                ..HomOpCounts::default()
            };
        }
        HomOpCounts {
            pmult: self.len() as u64,
            hadd: self.len() as u64 + 1,
            ..HomOpCounts::default()
        }
    }

    /// Packs up to `N` LWE ciphertexts; missing entries become zero slots.
    ///
    /// # Panics
    ///
    /// Panics with a typed [`FheError`] payload if more than `N`
    /// ciphertexts are supplied or dimensions mismatch.
    pub fn pack(&self, ctx: &BfvContext, lwes: &[LweCiphertext]) -> BfvCiphertext {
        let n_slots = ctx.n();
        let n_lwe = self.keys.len();
        check_pack_operands(lwes, n_slots, n_lwe, ctx.t());
        let ev = BfvEvaluator::new(ctx);
        let enc = ctx.encoder();
        // One term col_j ⊙ Enc(s'_j) per LWE coordinate; all-zero columns
        // contribute nothing and are skipped.
        let terms: Vec<Option<BfvCiphertext>> = (0..n_lwe)
            .map(|j| {
                let mut col = vec![0u64; n_slots];
                let mut all_zero = true;
                for (i, ct) in lwes.iter().enumerate() {
                    col[i] = ct.a()[j];
                    all_zero &= col[i] == 0;
                }
                if all_zero {
                    return None;
                }
                Some(ev.mul_plain(&self.keys[j], &enc.encode(&col)))
            })
            .collect();
        // The Eval-resident keys make every term Eval; the whole fold stays
        // NTT-free and the packed ciphertext is handed on in Eval form.
        let mut acc = BfvCiphertext::zero_in(ctx, Domain::Eval);
        for term in terms.into_iter().flatten() {
            ev.add_assign(&mut acc, &term);
        }
        // + plaintext bodies b_i
        let mut bodies = vec![0u64; n_slots];
        for (i, ct) in lwes.iter().enumerate() {
            bodies[i] = ct.b();
        }
        ev.add_plain(&acc, &enc.encode(&bodies))
    }
}

/// Packing key for the BSGS diagonal method: the LWE secret replicated
/// across slots, plus the Galois keys for the rotation schedule.
///
/// The key ciphertext never changes between pack calls, so it is stored
/// **hoisted** ([`HoistedCiphertext`]): its `c1` digit decomposition is
/// computed once at [`generate`](Self::generate) time and every baby
/// rotation in every subsequent [`pack`](Self::pack) call is an NTT-free
/// digit permutation.
#[derive(Debug, Clone)]
pub struct BsgsPackingKey {
    key: HoistedCiphertext,
    lwe_dim: usize,
    split: BsgsSplit,
    /// Giant-group count (`giant` clamped to the groups the schedule
    /// actually visits).
    groups: usize,
}

impl BsgsPackingKey {
    /// The BSGS schedule for an LWE dimension: the balanced split and the
    /// clamped giant-group count. Static — the plan compiler sizes key
    /// material from this before any key exists.
    pub fn schedule(lwe_dim: usize) -> (BsgsSplit, usize) {
        let split = BsgsSplit::balanced(lwe_dim);
        let groups = split.giant.min(lwe_dim.div_ceil(split.baby.max(1)));
        (split, groups)
    }

    /// The Galois elements the schedule for `lwe_dim` needs: rotations
    /// `1..baby` (baby steps) and `baby, 2·baby, …` for the clamped giant
    /// groups. The key no longer owns these — they are merged into the
    /// engine's single deduplicated [`GaloisKeys`] set alongside the S2C
    /// elements and passed to [`pack`](Self::pack).
    pub fn required_galois_elements_for(ctx: &BfvContext, lwe_dim: usize) -> Vec<usize> {
        let (split, groups) = Self::schedule(lwe_dim);
        let enc = ctx.encoder();
        let mut elements = Vec::new();
        for b in 1..split.baby {
            elements.push(enc.galois_for_rotation(b));
        }
        for g in 1..groups {
            elements.push(enc.galois_for_rotation(g * split.baby));
        }
        elements.sort_unstable();
        elements.dedup();
        elements
    }

    /// Generates the key (the replicated-secret ciphertext and its hoisted
    /// digit cache; no Galois material — see
    /// [`required_galois_elements_for`](Self::required_galois_elements_for)).
    ///
    /// # Panics
    ///
    /// Panics unless the LWE dimension divides the slot row size (`N/2`).
    pub fn generate(
        ctx: &BfvContext,
        rlwe_sk: &SecretKey,
        lwe_sk: &LweSecret,
        sampler: &mut Sampler,
    ) -> Self {
        let n_lwe = lwe_sk.dim();
        let row = ctx.encoder().row_size();
        if !row.is_multiple_of(n_lwe) {
            crate::error::raise(FheError::GroupMisfit { lwe_n: n_lwe, row });
        }
        let ev = BfvEvaluator::new(ctx);
        let enc = ctx.encoder();
        // Replicate s' with period n along both rows.
        let slots: Vec<u64> = (0..ctx.n())
            .map(|i| {
                let c = i % row;
                enc.ring().modulus().from_i64(lwe_sk.coeffs()[c % n_lwe])
            })
            .collect();
        // Hoist the key once: the digit decomposition is part of the key
        // material, paid at generation instead of on every pack call.
        let key = ev.hoist(&ev.encrypt_sk(&enc.encode(&slots), rlwe_sk, sampler));
        let (split, groups) = Self::schedule(n_lwe);
        Self {
            key,
            lwe_dim: n_lwe,
            split,
            groups,
        }
    }

    /// The Galois elements this key's schedule needs.
    pub fn required_galois_elements(&self, ctx: &BfvContext) -> Vec<usize> {
        Self::required_galois_elements_for(ctx, self.lwe_dim)
    }

    /// Key size in bytes: 1 ciphertext + hoisted digit cache. The Galois
    /// keys the schedule rotates with live in the engine's shared,
    /// deduplicated set and are accounted there, once.
    pub fn bytes(&self, ctx: &BfvContext) -> usize {
        ctx.params().ciphertext_bytes() + self.key.digit_bytes()
    }

    /// Number of HRot operations one pack call performs: `baby − 1` baby
    /// rotations of the key plus `groups − 1` giant output rotations.
    pub fn rotation_count(&self) -> usize {
        (self.split.baby - 1) + (self.groups - 1)
    }

    /// Expected operation counts of one [`pack`](Self::pack) call: one
    /// PMult per mask diagonal (there are `lwe_dim` of them across the
    /// giant groups), the in-group and cross-group HAdd folds, the bodies
    /// add, and [`rotation_count`](Self::rotation_count) HRots. All-zero
    /// diagonals are skipped at run time, so measured counts can only fall
    /// below this (negligibly likely for real LWE masks).
    pub fn expected_op_counts(&self) -> HomOpCounts {
        Self::expected_op_counts_for(self.lwe_dim)
    }

    /// [`expected_op_counts`](Self::expected_op_counts) computed from the
    /// dimension alone — the plan compiler's entry point, usable before any
    /// key exists.
    pub fn expected_op_counts_for(lwe_dim: usize) -> HomOpCounts {
        let (split, groups_n) = Self::schedule(lwe_dim);
        let mut pmult = 0u64;
        let mut hadd = 0u64;
        for g in 0..groups_n {
            let shift = g * split.baby;
            let terms = split.baby.min(lwe_dim.saturating_sub(shift)) as u64;
            if terms == 0 {
                continue;
            }
            pmult += terms;
            hadd += terms - 1;
        }
        hadd += groups_n as u64 - 1; // cross-group fold
        hadd += 1; // plaintext bodies
        HomOpCounts {
            pmult,
            hadd,
            hrot: ((split.baby - 1) + (groups_n - 1)) as u64,
            ..HomOpCounts::default()
        }
    }

    /// Packs up to `N` LWE ciphertexts with the BSGS diagonal method,
    /// rotating with the caller's (shared, deduplicated) Galois key set.
    ///
    /// # Panics
    ///
    /// Panics with a typed [`FheError`] payload on dimension/modulus
    /// mismatches or if `gk` is missing an element the schedule needs.
    pub fn pack(&self, ctx: &BfvContext, lwes: &[LweCiphertext], gk: &GaloisKeys) -> BfvCiphertext {
        let n_slots = ctx.n();
        let row = ctx.encoder().row_size();
        let n_lwe = self.lwe_dim;
        check_pack_operands(lwes, n_slots, n_lwe, ctx.t());
        // Fail up front on a missing key, not mid-schedule.
        gk.ensure_covers(&self.required_galois_elements(ctx));
        let ev = BfvEvaluator::new(ctx);
        let enc = ctx.encoder();
        // diag_d[i] = A[i][(c_i + d) mod n], c_i = (i mod row) mod n
        let diag = |d: usize| -> Vec<u64> {
            (0..n_slots)
                .map(|i| {
                    if i < lwes.len() {
                        let c = (i % row) % n_lwe;
                        lwes[i].a()[(c + d) % n_lwe]
                    } else {
                        0
                    }
                })
                .collect()
        };
        // Baby rotations of the key are hoisted: each permutes the digit
        // cache computed once at `generate` — no NTTs.
        let key = &self.key;
        let baby_keys: Vec<BfvCiphertext> = (0..self.split.baby)
            .map(|b| {
                if b == 0 {
                    key.ciphertext().clone()
                } else {
                    key.rotate_rows(ctx, b, gk)
                }
            })
            .collect();
        // Each giant group is the inner diagonal sum plus one output
        // rotation; the groups are folded in order below.
        let groups: Vec<Option<BfvCiphertext>> = (0..self.groups)
            .map(|g| {
                let shift = g * self.split.baby;
                // inner = Σ_b rot_{-shift}(diag_{shift+b}) ⊙ rot_b(key)
                let mut inner: Option<BfvCiphertext> = None;
                for (b, baby_key) in baby_keys.iter().enumerate() {
                    let d = shift + b;
                    if d >= n_lwe {
                        break;
                    }
                    let dv = diag(d);
                    if dv.iter().all(|&x| x == 0) {
                        continue;
                    }
                    // Rotate the diagonal right by `shift` so that the final
                    // left-rotation by `shift` restores alignment:
                    // inv_rot[c] = dv[c - shift] (per row).
                    let inv_rot: Vec<u64> = (0..n_slots)
                        .map(|i| {
                            let r = i / row;
                            let c = i % row;
                            dv[r * row + (c + row - (shift % row)) % row]
                        })
                        .collect();
                    let term = ev.mul_plain(baby_key, &enc.encode(&inv_rot));
                    inner = Some(match inner {
                        None => term,
                        Some(mut a) => {
                            ev.add_assign(&mut a, &term);
                            a
                        }
                    });
                }
                inner.map(|inn| {
                    if shift == 0 {
                        inn
                    } else {
                        ev.rotate_rows(&inn, shift, gk)
                    }
                })
            })
            .collect();
        let mut acc: Option<BfvCiphertext> = None;
        for rotated in groups.into_iter().flatten() {
            acc = Some(match acc {
                None => rotated,
                Some(mut a) => {
                    ev.add_assign(&mut a, &rotated);
                    a
                }
            });
        }
        // The key, its baby rotations, and every group output are Eval, so
        // the schedule never leaves NTT form; the result stays Eval too.
        let acc = acc.unwrap_or_else(|| BfvCiphertext::zero_in(ctx, Domain::Eval));
        let mut bodies = vec![0u64; n_slots];
        for (i, ct) in lwes.iter().enumerate() {
            bodies[i] = ct.b();
        }
        ev.add_plain(&acc, &enc.encode(&bodies))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::encode_coeff;
    use crate::extract::{mod_switch_rlwe, rlwe_secret_as_lwe_mod, sample_extract_all};
    use crate::params::BfvParams;

    struct Fixture {
        ctx: BfvContext,
        rlwe_sk: SecretKey,
        lwe_sk: LweSecret,
        sampler: Sampler,
    }

    fn setup() -> Fixture {
        let ctx = BfvContext::new(BfvParams::test_small());
        let mut sampler = Sampler::from_seed(2024);
        let rlwe_sk = SecretKey::generate(&ctx, &mut sampler);
        let lwe_sk = LweSecret::generate(ctx.params().lwe_n, ctx.t(), &mut sampler);
        Fixture {
            ctx,
            rlwe_sk,
            lwe_sk,
            sampler,
        }
    }

    fn fresh_lwes(f: &mut Fixture, msgs: &[u64]) -> Vec<LweCiphertext> {
        msgs.iter()
            .map(|&m| LweCiphertext::encrypt(m, &f.lwe_sk, &mut f.sampler))
            .collect()
    }

    #[test]
    fn column_packing_recovers_lwe_plaintexts() {
        let mut f = setup();
        let pk = ColumnPackingKey::generate(&f.ctx, &f.rlwe_sk, &f.lwe_sk, &mut f.sampler);
        // Put messages at multiples of 16 so the small LWE noise is visible
        // in LSBs but the value identifiable.
        let msgs: Vec<u64> = (0..64u64).map(|i| (i % 16) * 16).collect();
        let lwes = fresh_lwes(&mut f, &msgs);
        let packed = pk.pack(&f.ctx, &lwes);
        let ev = BfvEvaluator::new(&f.ctx);
        let slots = f.ctx.encoder().decode(&ev.decrypt(&packed, &f.rlwe_sk));
        for (i, &want) in msgs.iter().enumerate() {
            let got = slots[i] as i64;
            let want = want as i64;
            let diff = (got - want).rem_euclid(257);
            let diff = diff.min(257 - diff);
            assert!(diff <= 20, "slot {i}: got {got}, want {want}");
        }
        // unpacked tail is zero-ish
        for (i, &s) in slots.iter().enumerate().skip(msgs.len()) {
            let c = if s > 128 { s as i64 - 257 } else { s as i64 };
            assert!(c.abs() <= 20, "tail slot {i} = {c}");
        }
    }

    #[test]
    fn bsgs_packing_matches_column_packing() {
        let mut f = setup();
        let col = ColumnPackingKey::generate(&f.ctx, &f.rlwe_sk, &f.lwe_sk, &mut f.sampler);
        let bsgs = BsgsPackingKey::generate(&f.ctx, &f.rlwe_sk, &f.lwe_sk, &mut f.sampler);
        let gk = GaloisKeys::generate(
            &f.ctx,
            &f.rlwe_sk,
            &bsgs.required_galois_elements(&f.ctx),
            &mut f.sampler,
        );
        let msgs: Vec<u64> = (0..32u64).map(|i| i * 8 % 257).collect();
        let lwes = fresh_lwes(&mut f, &msgs);
        let ev = BfvEvaluator::new(&f.ctx);
        let a = f
            .ctx
            .encoder()
            .decode(&ev.decrypt(&col.pack(&f.ctx, &lwes), &f.rlwe_sk));
        let b = f
            .ctx
            .encoder()
            .decode(&ev.decrypt(&bsgs.pack(&f.ctx, &lwes, &gk), &f.rlwe_sk));
        // Both compute exactly the same plaintext function of (A, b, s'), so
        // the decrypted slots must agree exactly (same LWE noise embedded).
        assert_eq!(a, b);
    }

    #[test]
    fn bsgs_uses_sqrt_rotations() {
        let f = {
            let mut f = setup();
            BsgsPackingKey::generate(&f.ctx, &f.rlwe_sk, &f.lwe_sk, &mut f.sampler)
        };
        // n = 32 -> baby 6, giant 6 -> ~10 rotations, far below 32.
        assert!(
            f.rotation_count() <= 12,
            "rotations = {}",
            f.rotation_count()
        );
    }

    #[test]
    fn pack_after_extract_roundtrip() {
        // The full Step ②→③→④ chain in the noise-correct order: mod-switch
        // the RLWE ciphertext to an intermediate RNS prime, extract, switch
        // dimension N -> n at that prime (key-switch noise is negligible
        // there), mod-switch each LWE down to t, and pack.
        let mut f = setup();
        let ev = BfvEvaluator::new(&f.ctx);
        let n = f.ctx.n();
        let msgs: Vec<i64> = (0..n as i64).map(|i| (i % 8) * 32).collect();
        let m = encode_coeff(&msgs, f.ctx.t(), n);
        let ct = ev.encrypt_sk(&m, &f.rlwe_sk, &mut f.sampler);
        let q_mid = f.ctx.params().q_primes[0];
        let small = mod_switch_rlwe(&f.ctx, &ct, q_mid);
        let lwes = sample_extract_all(&small);
        let big_lwe_sk = rlwe_secret_as_lwe_mod(&f.rlwe_sk, q_mid);
        let lwe_sk_mid = LweSecret::from_coeffs(f.lwe_sk.coeffs().to_vec(), q_mid);
        let ksk = crate::lwe::LweKeySwitchKey::generate(
            &big_lwe_sk,
            &lwe_sk_mid,
            f.ctx.params().lwe_ks_base_log,
            &mut f.sampler,
        );
        let switched: Vec<LweCiphertext> = lwes
            .iter()
            .map(|c| crate::lwe::lwe_mod_switch(&ksk.switch(c), f.ctx.t()))
            .collect();
        let pk = ColumnPackingKey::generate(&f.ctx, &f.rlwe_sk, &f.lwe_sk, &mut f.sampler);
        let packed = pk.pack(&f.ctx, &switched);
        let slots = f.ctx.encoder().decode(&ev.decrypt(&packed, &f.rlwe_sk));
        let t = f.ctx.t() as i64;
        for (i, (&got, &want)) in slots.iter().zip(&msgs).enumerate() {
            let got = got as i64;
            let diff = (got - want).rem_euclid(t);
            let diff = diff.min(t - diff);
            assert!(diff <= 24, "slot {i}: got {got}, want {want}, diff {diff}");
        }
    }
}
