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

use athena_math::bsgs::BsgsSplit;
use athena_math::modops::Modulus;
use athena_math::par;
use athena_math::poly::Domain;
use athena_math::rns::RnsPoly;
use athena_math::stats::op_stats::HomOpCounts;

use crate::bfv::{BfvCiphertext, BfvContext, BfvEvaluator, GaloisKeys};

/// A plaintext matrix to be applied homomorphically to the slot vector.
///
/// The generalized diagonals the BSGS schedule multiplies against are
/// fixed by the matrix, so they are lifted into the `Q` basis and
/// NTT-transformed **once, at construction**: the cache holds Eval-form
/// operands and [`apply`](Self::apply) runs the whole schedule NTT-resident.
#[derive(Debug, Clone)]
pub struct HomLinearTransform {
    /// Row-major `N×N` matrix over `Z_t`.
    matrix: Vec<Vec<u64>>,
    split: BsgsSplit,
    /// Giant-group count of the BSGS schedule.
    groups: usize,
    /// Lifted Eval-form plaintext operands, flat index
    /// `(g·baby + k2)·2 + bi`: the generalized diagonal `(g·baby + k2, bi)`
    /// pre-rotated right by the group shift. `None` marks an all-zero (or
    /// out-of-range) diagonal, skipped by the schedule.
    diag_cache: Vec<Option<RnsPoly>>,
}

impl HomLinearTransform {
    /// Wraps a matrix (must be `N×N` with entries reduced mod `t`) and
    /// precomputes the Eval-form diagonal cache.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square `N×N`.
    pub fn new(ctx: &BfvContext, matrix: Vec<Vec<u64>>) -> Self {
        let n = ctx.n();
        assert_eq!(matrix.len(), n, "matrix must have N rows");
        assert!(matrix.iter().all(|r| r.len() == n), "matrix must be N×N");
        let row = ctx.encoder().row_size();
        let split = BsgsSplit::balanced(row);
        let groups = split.giant.min(row.div_ceil(split.baby.max(1)));
        let tmp = Self {
            matrix,
            split,
            groups,
            diag_cache: Vec::new(),
        };
        // Building the cache is `k + 1` NTTs for each of `2·groups·baby`
        // diagonals, once per transform (the S2C one is built with every
        // engine). Run inline, engine set-up took +21 % on the
        // `fc_nofbs_t257` benchmark workload (2 hardware threads), so this
        // is the one fan-out kept besides `run_batch`'s.
        let mut slots: Vec<(usize, Option<RnsPoly>)> = (0..groups * split.baby * 2)
            .map(|idx| (idx, None))
            .collect();
        par::parallel_for_each_mut_with(par::num_threads(), &mut slots, |(idx, out)| {
            *out = tmp.cached_operand(ctx, *idx)
        });
        let diag_cache = slots.into_iter().map(|(_, op)| op).collect();
        Self { diag_cache, ..tmp }
    }

    /// Entry `idx` of the diagonal cache (see the `diag_cache` field).
    fn cached_operand(&self, ctx: &BfvContext, idx: usize) -> Option<RnsPoly> {
        let n = ctx.n();
        let row = ctx.encoder().row_size();
        let baby = self.split.baby;
        let bi = idx % 2;
        let k2 = (idx / 2) % baby;
        let g = idx / 2 / baby;
        let shift = g * baby;
        let k = shift + k2;
        if k >= row {
            return None;
        }
        let dv = self.diagonal(ctx, k, bi == 1);
        if dv.iter().all(|&x| x == 0) {
            return None;
        }
        // Pre-rotate the diagonal right by `shift` per row so the one
        // giant rotation at the end restores alignment.
        let pre: Vec<u64> = (0..n)
            .map(|i| {
                let r = i / row;
                let c = i % row;
                dv[r * row + (c + row - (shift % row)) % row]
            })
            .collect();
        Some(
            ctx.q_basis()
                .poly_to_eval(&ctx.lift_plaintext(&ctx.encoder().encode(&pre))),
        )
    }

    /// The Galois elements the BSGS schedule needs (generate keys for
    /// these). Giant steps use the clamped group count — the shifts
    /// [`apply`](Self::apply) actually performs.
    pub fn required_galois_elements(&self, ctx: &BfvContext) -> Vec<usize> {
        let enc = ctx.encoder();
        let mut els = vec![enc.galois_for_row_swap()];
        for b in 1..self.split.baby {
            els.push(enc.galois_for_rotation(b));
        }
        for g in 1..self.groups {
            els.push(enc.galois_for_rotation(g * self.split.baby));
        }
        els.sort_unstable();
        els.dedup();
        els
    }

    /// Number of HRot operations one dense application performs: `baby − 1`
    /// baby rotations of **each** of the two sources (identity and
    /// row-swapped), `groups − 1` giant output rotations, and one row swap.
    pub fn rotation_count(&self) -> usize {
        2 * (self.split.baby - 1) + (self.groups - 1) + 1
    }

    /// Exact operation counts of one [`apply`](Self::apply) call, derived
    /// from the cached diagonal sparsity — these match the op-stats-measured
    /// counts bit for bit (the schedule is deterministic):
    ///
    /// * `pmult` — one per cached (non-zero) generalized diagonal;
    /// * `hrot` — the swap, all `2·(baby−1)` baby rotations (performed
    ///   unconditionally), and one giant rotation per *non-empty* group
    ///   beyond group 0;
    /// * `hadd` — the in-group folds plus the final cross-group fold.
    pub fn op_counts(&self) -> HomOpCounts {
        let baby = self.split.baby;
        let mut pmult = 0u64;
        let mut hadd = 0u64;
        let mut nonempty = 0u64;
        let mut giant_rots = 0u64;
        for g in 0..self.groups {
            let terms = (0..2 * baby)
                .filter(|i| self.diag_cache[g * 2 * baby + i].is_some())
                .count() as u64;
            if terms == 0 {
                continue;
            }
            pmult += terms;
            hadd += terms - 1;
            nonempty += 1;
            if g > 0 {
                giant_rots += 1;
            }
        }
        hadd += nonempty.saturating_sub(1);
        HomOpCounts {
            pmult,
            hadd,
            hrot: 1 + 2 * (baby as u64 - 1) + giant_rots,
            ..HomOpCounts::default()
        }
    }

    /// Reference (plaintext) application for tests: `out = M · v`.
    pub fn apply_plain(&self, ctx: &BfvContext, v: &[u64]) -> Vec<u64> {
        let t = Modulus::new(ctx.t());
        self.matrix
            .iter()
            .map(|row| {
                let mut acc = 0u64;
                for (m, &x) in row.iter().zip(v) {
                    acc = t.mul_add(*m % t.value(), x, acc);
                }
                acc
            })
            .collect()
    }

    /// Generalized diagonal `(k, b)`: entry `i` is `M[i][π_{k,b}(i)]` where
    /// `π_{k,b}` rotates rows by `k` and swaps rows if `b`.
    fn diagonal(&self, ctx: &BfvContext, k: usize, b: bool) -> Vec<u64> {
        let n = ctx.n();
        let row = ctx.encoder().row_size();
        (0..n)
            .map(|i| {
                let r = i / row;
                let c = i % row;
                let src_r = if b { 1 - r } else { r };
                let src_c = (c + k) % row;
                self.matrix[i][src_r * row + src_c]
            })
            .collect()
    }

    /// Applies the transform homomorphically. The whole schedule runs in
    /// Eval form — one up-conversion of the input here, then every HRot,
    /// the PMults against the cached Eval diagonals, and the HAdd folds are
    /// NTT-resident — and the result is handed on in Eval form.
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
        gk.ensure_covers(&self.required_galois_elements(ctx));
        let ev = BfvEvaluator::new(ctx);
        // Two "source" ciphertexts: identity and row-swapped, each with its
        // c1 digits decomposed once (the swap itself rotates the hoisted
        // identity source).
        let hoisted = ev.hoist(ct);
        let swapped = ev.hoist(&hoisted.swap_rows(ctx, gk));
        let sources = [&hoisted, &swapped];
        // Baby rotations of both sources — 2·baby digit permutations
        // (flat index = bi * baby + k).
        let baby_flat: Vec<BfvCiphertext> = (0..2 * self.split.baby)
            .map(|idx| {
                let (bi, k) = (idx / self.split.baby, idx % self.split.baby);
                if k == 0 {
                    sources[bi].ciphertext().clone()
                } else {
                    sources[bi].rotate_rows(ctx, k, gk)
                }
            })
            .collect();
        let baby: Vec<&[BfvCiphertext]> = baby_flat.chunks(self.split.baby).collect();
        // Each giant group is the inner diagonal sum plus one output
        // rotation; the groups are folded in order below.
        let groups: Vec<Option<BfvCiphertext>> = (0..self.groups)
            .map(|g| {
                let shift = g * self.split.baby;
                let mut inner: Option<BfvCiphertext> = None;
                for (bi, chunk) in baby.iter().enumerate() {
                    for (k2, src) in chunk.iter().enumerate() {
                        let Some(lifted) = &self.diag_cache[(shift + k2) * 2 + bi] else {
                            continue;
                        };
                        let term = ev.mul_plain_lifted(src, lifted);
                        inner = Some(match inner {
                            None => term,
                            Some(mut a) => {
                                ev.add_assign(&mut a, &term);
                                a
                            }
                        });
                    }
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
        acc.unwrap_or_else(|| BfvCiphertext::zero_in(ctx, Domain::Eval))
    }
}

/// Builds the S2C matrix `D`: for a plaintext polynomial with coefficient
/// vector `v`, `slots(v as coefficients) = D · slots(v as slots)` — i.e.
/// applying `D` in slot space rewrites the slot values into the coefficient
/// positions. `D[i][j] = ψ^{e_i · j}` where `e_i` is slot `i`'s evaluation
/// exponent, composed with the inverse encode map.
pub fn s2c_matrix(ctx: &BfvContext) -> Vec<Vec<u64>> {
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

/// The S2C transform packaged with its matrix.
#[derive(Debug, Clone)]
pub struct SlotToCoeff {
    transform: HomLinearTransform,
}

impl SlotToCoeff {
    /// Builds the S2C transform for a context.
    pub fn new(ctx: &BfvContext) -> Self {
        Self {
            transform: HomLinearTransform::new(ctx, s2c_matrix(ctx)),
        }
    }

    /// Galois elements needed by [`SlotToCoeff::apply`].
    pub fn required_galois_elements(&self, ctx: &BfvContext) -> Vec<usize> {
        self.transform.required_galois_elements(ctx)
    }

    /// Rotation count per application.
    pub fn rotation_count(&self) -> usize {
        self.transform.rotation_count()
    }

    /// Exact operation counts of one application (see
    /// [`HomLinearTransform::op_counts`]).
    pub fn op_counts(&self) -> HomOpCounts {
        self.transform.op_counts()
    }

    /// Moves slot values into coefficient positions: after this, decrypting
    /// and reading raw coefficients yields the former slot values.
    pub fn apply(&self, ctx: &BfvContext, ct: &BfvCiphertext, gk: &GaloisKeys) -> BfvCiphertext {
        self.transform.apply(ctx, ct, gk)
    }
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
        let els = tr.required_galois_elements(&f.ctx);
        GaloisKeys::generate(&f.ctx, &f.sk, &els, &mut f.sampler)
    }

    #[test]
    fn identity_matrix_is_identity() {
        let mut f = setup();
        let n = f.ctx.n();
        let mut m = vec![vec![0u64; n]; n];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = 1;
        }
        let tr = HomLinearTransform::new(&f.ctx, m);
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
        let tr = HomLinearTransform::new(&f.ctx, m);
        let gk = keys_for(&mut f, &tr);
        let ev = BfvEvaluator::new(&f.ctx);
        let vals: Vec<u64> = (0..n as u64).map(|i| (7 * i + 2) % 257).collect();
        let want = tr.apply_plain(&f.ctx, &vals);
        let ct = ev.encrypt_sk(&f.ctx.encoder().encode(&vals), &f.sk, &mut f.sampler);
        let out = tr.apply(&f.ctx, &ct, &gk);
        assert_eq!(f.ctx.encoder().decode(&ev.decrypt(&out, &f.sk)), want);
    }

    #[test]
    fn s2c_moves_slots_to_coefficients() {
        let mut f = setup();
        let s2c = SlotToCoeff::new(&f.ctx);
        let els = s2c.required_galois_elements(&f.ctx);
        let gk = GaloisKeys::generate(&f.ctx, &f.sk, &els, &mut f.sampler);
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
        let s2c = SlotToCoeff::new(&f.ctx);
        // N = 128 -> row 64 -> baby 8, groups 8 -> 2·7 baby + 7 giant +
        // 1 swap = 22 rotations, far below the 2·64 = 128 diagonals a
        // rotation-per-diagonal schedule would need.
        assert!(
            s2c.rotation_count() <= 24,
            "rotations = {}",
            s2c.rotation_count()
        );
    }
}
