//! Homomorphic linear transforms over the slot vector, and the
//! slot-to-coefficient (S2C) transform that closes the Athena loop
//! (Step ⑤ → Step ①).
//!
//! An arbitrary `N×N` plaintext matrix `M` over `Z_t` is applied to an
//! encrypted slot vector with the Halevi–Shoup generalized-diagonal method.
//! The permutation group used is the full slot symmetry group: row rotations
//! `k ∈ [0, N/2)` crossed with the row swap — a regular action on slots, so
//! each matrix entry lands in exactly one generalized diagonal. A
//! baby-step/giant-step schedule keeps the number of key-switched rotations
//! at `O(√N)` instead of `O(N)`.

use athena_math::bsgs::{bsgs_diagonal_counts, bsgs_diagonal_sum, BsgsSplit};
use athena_math::par;
use athena_math::poly::Domain;
use athena_math::rns::RnsPoly;
use athena_math::stats::op_stats::HomOpCounts;

use crate::bfv::{BfvCiphertext, BfvContext, BfvEvaluator, GaloisKeys};

/// The Galois elements of a BSGS diagonal schedule under `split`: baby
/// rotations `1..baby`, giant rotations `baby, 2·baby, …` and, when `swap`,
/// the row swap; sorted and deduplicated.
pub(crate) fn diagonal_galois_elements(
    ctx: &BfvContext,
    split: BsgsSplit,
    swap: bool,
) -> Vec<usize> {
    let enc = ctx.encoder();
    let babies = (1..split.baby).map(|k| enc.galois_for_rotation(k));
    let giants = (1..split.giant).map(|g| enc.galois_for_rotation(g * split.baby));
    let mut els: Vec<usize> = babies.chain(giants).collect();
    if swap {
        els.push(enc.galois_for_row_swap());
    }
    els.sort_unstable();
    els.dedup();
    els
}

/// Diagonal `d`'s slot values rotated right, within each row, by its
/// group's shift `d − d mod baby`: the operand shape
/// [`bsgs_diagonal_sum`] multiplies, so that the group's one giant
/// rotation restores alignment.
pub(crate) fn pre_rotate(ctx: &BfvContext, diag: &[u64], split: BsgsSplit, d: usize) -> Vec<u64> {
    let row = ctx.encoder().row_size();
    let shift = d - d % split.baby;
    (0..diag.len())
        .map(|i| diag[i - i % row + (i % row + row - shift) % row])
        .collect()
}

/// A plaintext matrix to be applied homomorphically to the slot vector.
///
/// The generalized diagonals the BSGS schedule multiplies against are
/// fixed by the matrix, so they are lifted into the `Q` basis and
/// NTT-transformed **once, at construction**: the cache holds Eval-form
/// operands and [`apply`](Self::apply) runs the whole schedule NTT-resident.
#[derive(Debug, Clone)]
pub struct HomLinearTransform {
    /// The Galois elements of the schedule (see
    /// [`required_galois_elements`](Self::required_galois_elements)).
    galois: Vec<usize>,
    /// Lifted Eval-form plaintext operands, flat index `d·2 + b` for the
    /// `N/2` row rotations `d`: the generalized diagonal `(d, b)`
    /// pre-rotated by its group shift. `None` marks an all-zero diagonal,
    /// skipped by the schedule.
    diag_cache: Vec<Option<RnsPoly>>,
}

impl HomLinearTransform {
    /// Precomputes the Eval-form diagonal cache of a row-major `N×N`
    /// matrix over `Z_t` (entries reduced mod `t`); the matrix itself is
    /// not kept.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square `N×N`.
    pub fn new(ctx: &BfvContext, matrix: &[Vec<u64>]) -> Self {
        let n = ctx.n();
        assert_eq!(matrix.len(), n, "matrix must have N rows");
        assert!(matrix.iter().all(|r| r.len() == n), "matrix must be N×N");
        let row = ctx.encoder().row_size();
        let split = BsgsSplit::balanced(row);
        // Building the cache is `k + 1` NTTs for each of the `2·row`
        // diagonals, once per transform (the S2C one is built with every
        // engine). Run inline, engine set-up took +21 % on the
        // `fc_nofbs_t257` benchmark workload (2 hardware threads), so this
        // is the one fan-out kept besides `run_batch`'s.
        let mut slots: Vec<(usize, Option<RnsPoly>)> =
            (0..2 * row).map(|idx| (idx, None)).collect();
        par::parallel_for_each_mut_with(par::num_threads(), &mut slots, |(idx, out)| {
            *out = cached_operand(ctx, matrix, split, *idx)
        });
        Self {
            galois: diagonal_galois_elements(ctx, split, true),
            diag_cache: slots.into_iter().map(|(_, op)| op).collect(),
        }
    }

    /// The S2C transform: moves slot values into coefficient positions, so
    /// that decrypting its output and reading raw coefficients yields the
    /// former slot values.
    pub fn slot_to_coeff(ctx: &BfvContext) -> Self {
        Self::new(ctx, &s2c_matrix(ctx))
    }

    /// The Galois elements the BSGS schedule needs (generate keys for
    /// these): baby and giant rotations and the row swap, sorted and
    /// deduplicated.
    pub fn required_galois_elements(&self) -> &[usize] {
        &self.galois
    }

    /// Number of HRot operations one [`apply`](Self::apply) performs.
    pub fn rotation_count(&self) -> usize {
        self.op_counts().hrot as usize
    }

    /// Exact operation counts of one [`apply`](Self::apply) call: a dry run
    /// of its schedule over the cached diagonal sparsity, plus the row
    /// swap. These match the op-stats-measured counts bit for bit.
    pub fn op_counts(&self) -> HomOpCounts {
        let mut counts = bsgs_diagonal_counts(self.diag_cache.len() / 2, 2, |d, b| {
            self.diag_cache[d * 2 + b].is_some()
        });
        counts.hrot += 1;
        counts
    }

    /// Applies the transform homomorphically through
    /// [`bsgs_diagonal_sum`]. The whole schedule runs in Eval form — one
    /// up-conversion of the input here, then every HRot, the PMults against
    /// the cached Eval diagonals, and the HAdd folds are NTT-resident — and
    /// the result is handed on in Eval form.
    ///
    /// Both BSGS sources are **hoisted**: the identity source and the
    /// row-swapped source each pay one digit decomposition, and all their
    /// baby rotations permute the cached digits NTT-free. The giant output
    /// rotations stay eager — each acts on a distinct group sum, so there
    /// is nothing to share (hoisting one ciphertext for one rotation costs
    /// exactly one rotation).
    ///
    /// # Panics
    ///
    /// Panics up front, with the full required-vs-available listing, if any
    /// Galois key of the schedule is missing.
    pub fn apply(&self, ctx: &BfvContext, ct: &BfvCiphertext, gk: &GaloisKeys) -> BfvCiphertext {
        gk.ensure_covers(&self.galois);
        let ev = BfvEvaluator::new(ctx);
        // Two sources, identity and row-swapped, each with its c1 digits
        // decomposed once (the swap itself rotates the hoisted identity
        // source).
        let hoisted = ev.hoist(ct);
        let swapped = ev.hoist(&hoisted.swap_rows(ctx, gk));
        let sources = [&hoisted, &swapped];
        bsgs_diagonal_sum(
            self.diag_cache.len() / 2,
            2,
            &mut |b, k| sources[b].rotate_rows(ctx, k, gk),
            &mut |d, b| self.diag_cache[d * 2 + b].as_ref(),
            &mut |c, p| ev.mul_plain_lifted(c, p),
            &mut |acc, term| ev.add_assign(acc, term),
            &mut |c, shift| ev.rotate_rows(c, shift, gk),
        )
        .unwrap_or_else(|| BfvCiphertext::zero_in(ctx, Domain::Eval))
    }
}

/// Entry `idx` of a transform's diagonal cache (see the `diag_cache`
/// field of [`HomLinearTransform`]).
fn cached_operand(
    ctx: &BfvContext,
    matrix: &[Vec<u64>],
    split: BsgsSplit,
    idx: usize,
) -> Option<RnsPoly> {
    let (d, b) = (idx / 2, idx % 2 == 1);
    let dv = diagonal(ctx, matrix, d, b);
    if dv.iter().all(|&x| x == 0) {
        return None;
    }
    let pre = pre_rotate(ctx, &dv, split, d);
    Some(
        ctx.q_basis()
            .poly_to_eval(&ctx.lift_plaintext(&ctx.encoder().encode(&pre))),
    )
}

/// Generalized diagonal `(k, b)` of `matrix`: entry `i` is `M[i][π_{k,b}(i)]`
/// where `π_{k,b}` rotates rows by `k` and swaps rows if `b`.
fn diagonal(ctx: &BfvContext, matrix: &[Vec<u64>], k: usize, b: bool) -> Vec<u64> {
    let row = ctx.encoder().row_size();
    (0..ctx.n())
        .map(|i| {
            let r = i / row;
            let c = i % row;
            let src_r = if b { 1 - r } else { r };
            let src_c = (c + k) % row;
            matrix[i][src_r * row + src_c]
        })
        .collect()
}

/// Builds the S2C matrix `D`: for a plaintext polynomial with coefficient
/// vector `v`, `slots(v as coefficients) = D · slots(v as slots)` — i.e.
/// applying `D` in slot space rewrites the slot values into the coefficient
/// positions. `D[i][j] = ψ^{e_i · j}` where `e_i` is slot `i`'s evaluation
/// exponent, composed with the inverse encode map.
fn s2c_matrix(ctx: &BfvContext) -> Vec<Vec<u64>> {
    let enc = ctx.encoder();
    let n = ctx.n();
    let t = enc.ring().modulus();
    let psi = enc.ntt().psi();
    // E[i][j]: slot i of the polynomial X^j, i.e. evaluation of X^j at the
    // slot-i point: psi^{e_i * j}.
    // We want: given ct with slots v, produce ct' whose *coefficients* are
    // v. The plaintext map is v |-> poly with coeffs v; its slot vector is
    // slots' = E · v. So the matrix to apply in slot space is exactly E.
    let mut e = vec![vec![0u64; n]; n];
    for (i, row) in e.iter_mut().enumerate() {
        // evaluation exponent of slot i
        let slot_ntt = {
            // reconstruct: encoder stores slot->ntt; exponent via ntt tables
            enc.slot_eval_exponent(i)
        };
        let base = t.pow(psi, slot_ntt);
        let mut p = 1u64;
        for ej in row.iter_mut() {
            *ej = p;
            p = t.mul(p, base);
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfv::SecretKey;
    use crate::params::BfvParams;
    use athena_math::sampler::Sampler;

    struct Fx {
        ctx: BfvContext,
        sk: SecretKey,
        sampler: Sampler,
    }

    fn setup() -> Fx {
        let ctx = BfvContext::new(BfvParams::test_small());
        let mut sampler = Sampler::from_seed(31337);
        let sk = SecretKey::generate(&ctx, &mut sampler);
        Fx { ctx, sk, sampler }
    }

    fn keys_for(f: &mut Fx, tr: &HomLinearTransform) -> GaloisKeys {
        GaloisKeys::generate(&f.ctx, &f.sk, tr.required_galois_elements(), &mut f.sampler)
    }

    #[test]
    fn identity_matrix_is_identity() {
        let mut f = setup();
        let n = f.ctx.n();
        let mut m = vec![vec![0u64; n]; n];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = 1;
        }
        let tr = HomLinearTransform::new(&f.ctx, &m);
        let gk = keys_for(&mut f, &tr);
        let ev = BfvEvaluator::new(&f.ctx);
        let vals: Vec<u64> = (0..n as u64).map(|i| (i * 3 + 1) % 257).collect();
        let ct = ev.encrypt_sk(&f.ctx.encoder().encode(&vals), &f.sk, &mut f.sampler);
        let out = tr.apply(&f.ctx, &ct, &gk);
        assert_eq!(f.ctx.encoder().decode(&ev.decrypt(&out, &f.sk)), vals);
    }

    #[test]
    fn random_matrix_matches_plain_matvec() {
        let mut f = setup();
        let n = f.ctx.n();
        let mut rng = Sampler::from_seed(99);
        let m: Vec<Vec<u64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.uniform_mod(257)).collect())
            .collect();
        let tr = HomLinearTransform::new(&f.ctx, &m);
        let gk = keys_for(&mut f, &tr);
        let ev = BfvEvaluator::new(&f.ctx);
        let vals: Vec<u64> = (0..n as u64).map(|i| (7 * i + 2) % 257).collect();
        let want: Vec<u64> = m
            .iter()
            .map(|row| row.iter().zip(&vals).map(|(a, b)| a * b).sum::<u64>() % f.ctx.t())
            .collect();
        let ct = ev.encrypt_sk(&f.ctx.encoder().encode(&vals), &f.sk, &mut f.sampler);
        let out = tr.apply(&f.ctx, &ct, &gk);
        assert_eq!(f.ctx.encoder().decode(&ev.decrypt(&out, &f.sk)), want);
    }

    #[test]
    fn s2c_moves_slots_to_coefficients() {
        let mut f = setup();
        let s2c = HomLinearTransform::slot_to_coeff(&f.ctx);
        let gk = keys_for(&mut f, &s2c);
        let ev = BfvEvaluator::new(&f.ctx);
        let n = f.ctx.n();
        let vals: Vec<u64> = (0..n as u64).map(|i| (i * 5 + 3) % 257).collect();
        let ct = ev.encrypt_sk(&f.ctx.encoder().encode(&vals), &f.sk, &mut f.sampler);
        let out = s2c.apply(&f.ctx, &ct, &gk);
        // Raw coefficients (no slot decode) must equal the slot values.
        let plain = ev.decrypt(&out, &f.sk);
        assert_eq!(plain.values(), &vals[..]);
    }

    #[test]
    fn s2c_uses_sqrt_rotations() {
        let f = setup();
        let s2c = HomLinearTransform::slot_to_coeff(&f.ctx);
        // N = 128 -> row 64 -> baby 8, giant 8 -> 2·7 baby + 7 giant +
        // 1 swap = 22 rotations, far below the 2·64 = 128 diagonals a
        // rotation-per-diagonal schedule would need.
        assert!(
            s2c.rotation_count() <= 24,
            "rotations = {}",
            s2c.rotation_count()
        );
    }
}
