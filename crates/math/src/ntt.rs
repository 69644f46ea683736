//! Number-theoretic transforms: negacyclic (for `Z_q[X]/(X^N+1)`) and plain
//! cyclic power-of-two DFTs (used by the LUT→polynomial interpolation, which
//! is a size-`t−1` Fermat-number transform when `t = 65537`).
//!
//! The negacyclic transform follows the standard Cooley–Tukey /
//! Gentleman–Sande pair with merged `ψ` twisting and Shoup multiplication,
//! as in Longa–Naehrig and Microsoft SEAL. The forward transform maps the
//! coefficient vector of `a(X)` to the evaluations `a(ψ^{2·brv(j)+1})` stored
//! at index `j` (bit-reversed evaluation order); the inverse undoes it.
//!
//! Butterflies are Harvey's lazy ones ("Faster arithmetic for
//! number-theoretic transforms", 2014): forward operands live in `[0, 4q)`,
//! inverse operands in `[0, 2q)`, and each transform ends with one
//! mask-select correction pass, so no butterfly branches on a residue. The
//! ranges need `4q < 2^64`, which [`Modulus::new`]'s `q < 2^62` guarantees.

use crate::modops::{csub, Modulus};
use crate::prime::root_of_unity;
use crate::stats::{record, Counter};

/// Bit-reverses the low `bits` bits of `x`.
#[inline]
pub fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

/// Permutes a slice into bit-reversed index order in place.
pub fn bit_reverse_permute<T>(a: &mut [T]) {
    let n = a.len();
    assert!(n.is_power_of_two());
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = bit_reverse(i, bits);
        if i < j {
            a.swap(i, j);
        }
    }
}

/// Precomputed tables for the negacyclic NTT over `Z_q[X]/(X^N+1)`.
///
/// # Examples
///
/// ```
/// use athena_math::ntt::NttTables;
/// let tables = NttTables::new(257, 8); // 257 ≡ 1 (mod 16)
/// let mut a: Vec<u64> = (0..8).collect();
/// let orig = a.clone();
/// tables.forward(&mut a);
/// tables.inverse(&mut a);
/// assert_eq!(a, orig);
/// ```
#[derive(Debug, Clone)]
pub struct NttTables {
    modulus: Modulus,
    n: usize,
    /// psi^brv(i), psi a primitive 2N-th root of unity.
    psi_br: Vec<u64>,
    psi_br_shoup: Vec<u64>,
    /// psi^{-brv(i)} tables for the inverse transform.
    ipsi_br: Vec<u64>,
    ipsi_br_shoup: Vec<u64>,
    /// `n⁻¹` and its Shoup form, folded into the inverse's last stage.
    n_inv: (u64, u64),
    /// `ψ^{-brv(1)}·n⁻¹` and its Shoup form: the last inverse stage's root
    /// with the `n⁻¹` scaling folded in.
    last_inv: (u64, u64),
    psi: u64,
}

impl NttTables {
    /// Builds tables for degree `n` (a power of two) over prime `q` with
    /// `q ≡ 1 (mod 2n)`.
    ///
    /// # Panics
    ///
    /// Panics if the congruence does not hold or `n` is not a power of two.
    pub fn new(q: u64, n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "degree must be a power of two >= 2"
        );
        assert_eq!((q - 1) % (2 * n as u64), 0, "q must be 1 mod 2n");
        let psi = root_of_unity(q, 2 * n as u64);
        Self::with_psi(q, n, psi)
    }

    /// Builds tables with an explicit primitive `2n`-th root `psi`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `psi` is not a primitive `2n`-th root of unity
    /// mod `q`.
    pub fn with_psi(q: u64, n: usize, psi: u64) -> Self {
        assert!(n >= 2, "degree must be >= 2");
        let modulus = Modulus::new(q);
        assert_eq!(modulus.pow(psi, 2 * n as u64), 1, "psi^2n must be 1");
        assert_eq!(modulus.pow(psi, n as u64), q - 1, "psi^n must be -1");
        let bits = n.trailing_zeros();
        let ipsi = modulus.inv(psi).expect("psi invertible");
        let mut psi_br = vec![0u64; n];
        let mut ipsi_br = vec![0u64; n];
        let mut p = 1u64;
        let mut ip = 1u64;
        for i in 0..n {
            let j = bit_reverse(i, bits);
            psi_br[j] = p;
            ipsi_br[j] = ip;
            p = modulus.mul(p, psi);
            ip = modulus.mul(ip, ipsi);
        }
        let psi_br_shoup = psi_br.iter().map(|&w| modulus.shoup(w)).collect();
        let ipsi_br_shoup = ipsi_br.iter().map(|&w| modulus.shoup(w)).collect();
        let n_inv = modulus.inv(n as u64).expect("n invertible mod prime");
        let last_inv = modulus.mul(ipsi_br[1], n_inv);
        Self {
            modulus,
            n,
            psi_br,
            psi_br_shoup,
            ipsi_br,
            ipsi_br_shoup,
            n_inv: (n_inv, modulus.shoup(n_inv)),
            last_inv: (last_inv, modulus.shoup(last_inv)),
            psi,
        }
    }

    /// The ring degree.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The coefficient modulus.
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The primitive 2N-th root of unity used by these tables.
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// In-place forward negacyclic NTT.
    ///
    /// After the call, index `j` holds `a(ψ^{2·brv(j)+1})`, canonical in
    /// `[0, q)`. Harvey's lazy butterflies: operands stay in `[0, 4q)`
    /// between stages and are corrected once, by mask, at the end.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        record(Counter::NttForward, 1);
        let q = self.modulus.value();
        let two_q = 2 * q;
        let mut t = self.n;
        let mut m = 1;
        while m < self.n {
            t /= 2;
            let roots = self.psi_br[m..2 * m]
                .iter()
                .zip(&self.psi_br_shoup[m..2 * m]);
            for (block, (&w, &w_shoup)) in a.chunks_exact_mut(2 * t).zip(roots) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi) {
                    // x, y ∈ [0, 4q) → u, v ∈ [0, 2q) → x', y' ∈ [0, 4q).
                    let u = csub(*x, two_q);
                    let v = self.modulus.mul_shoup_lazy(*y, w, w_shoup);
                    *x = u + v;
                    *y = u + two_q - v;
                }
            }
            m *= 2;
        }
        for x in a.iter_mut() {
            *x = csub(csub(*x, two_q), q);
        }
    }

    /// In-place inverse negacyclic NTT (consumes the layout produced by
    /// [`NttTables::forward`]; the output is canonical in `[0, q)`).
    ///
    /// Lazy Gentleman–Sande butterflies keep operands in `[0, 2q)`; the
    /// `n⁻¹` scaling is folded into the last stage's two multiplies, whose
    /// outputs get the one final correction.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        record(Counter::NttInverse, 1);
        let two_q = 2 * self.modulus.value();
        let mut t = 1;
        let mut m = self.n;
        while m > 2 {
            let h = m / 2;
            let roots = self.ipsi_br[h..m].iter().zip(&self.ipsi_br_shoup[h..m]);
            for (block, (&w, &w_shoup)) in a.chunks_exact_mut(2 * t).zip(roots) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi) {
                    // x, y ∈ [0, 2q) → x', y' ∈ [0, 2q).
                    let (u, v) = (*x, *y);
                    *x = csub(u + v, two_q);
                    *y = self.modulus.mul_shoup_lazy(u + two_q - v, w, w_shoup);
                }
            }
            t *= 2;
            m = h;
        }
        // Last stage (one block of n/2 pairs, root ψ^{-brv(1)}), with n⁻¹
        // multiplied into both outputs by the correcting `mul_shoup`.
        let (lo, hi) = a.split_at_mut(self.n / 2);
        let ((n_inv, n_inv_shoup), (w, w_shoup)) = (self.n_inv, self.last_inv);
        for (x, y) in lo.iter_mut().zip(hi) {
            let (u, v) = (*x, *y);
            *x = self.modulus.mul_shoup(u + v, n_inv, n_inv_shoup);
            *y = self.modulus.mul_shoup(u + two_q - v, w, w_shoup);
        }
    }

    /// Exponent `e` such that forward-NTT output index `j` is the evaluation
    /// of the polynomial at `ψ^e`.
    pub fn eval_exponent(&self, j: usize) -> u64 {
        let bits = self.n.trailing_zeros();
        (2 * bit_reverse(j, bits) as u64 + 1) % (2 * self.n as u64)
    }
}

/// Plain cyclic power-of-two NTT over `Z_q` (no negacyclic twist): computes
/// `X[k] = Σ_j x[j]·ω^{jk}` in natural order.
///
/// # Examples
///
/// ```
/// use athena_math::ntt::CyclicNtt;
/// let t = CyclicNtt::new(17, 4); // 17 ≡ 1 (mod 4)
/// let x = vec![1, 2, 3, 4];
/// let y = t.forward(&x);
/// assert_eq!(t.inverse(&y), x);
/// ```
#[derive(Debug, Clone)]
pub struct CyclicNtt {
    modulus: Modulus,
    len: usize,
    omega: u64,
    omega_inv: u64,
    len_inv: u64,
}

impl CyclicNtt {
    /// Builds a transform of power-of-two length `len` over prime `q` with
    /// `q ≡ 1 (mod len)`.
    ///
    /// # Panics
    ///
    /// Panics if the congruence fails or `len` is not a power of two.
    pub fn new(q: u64, len: usize) -> Self {
        assert!(len.is_power_of_two(), "length must be a power of two");
        let omega = root_of_unity(q, len as u64);
        Self::with_omega(q, len, omega)
    }

    /// Builds a transform with an explicit primitive `len`-th root `omega`.
    ///
    /// # Panics
    ///
    /// Panics if `omega` is not a primitive `len`-th root of unity.
    pub fn with_omega(q: u64, len: usize, omega: u64) -> Self {
        let modulus = Modulus::new(q);
        assert_eq!(modulus.pow(omega, len as u64), 1);
        if len > 1 {
            assert_ne!(modulus.pow(omega, len as u64 / 2), 1, "omega not primitive");
        }
        Self {
            modulus,
            len,
            omega,
            omega_inv: modulus.inv(omega).expect("omega invertible"),
            len_inv: modulus.inv(len as u64).expect("len invertible"),
        }
    }

    /// The transform length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the transform is length zero (it never is; present for
    /// `len`/`is_empty` convention).
    pub fn is_empty(&self) -> bool {
        false
    }

    fn transform(&self, x: &[u64], root: u64) -> Vec<u64> {
        assert_eq!(x.len(), self.len);
        let q = &self.modulus;
        let mut a: Vec<u64> = x.to_vec();
        bit_reverse_permute(&mut a);
        let mut width = 2;
        while width <= self.len {
            let w_step = q.pow(root, (self.len / width) as u64);
            for start in (0..self.len).step_by(width) {
                let mut w = 1u64;
                for k in 0..width / 2 {
                    let u = a[start + k];
                    let v = q.mul(a[start + k + width / 2], w);
                    a[start + k] = q.add(u, v);
                    a[start + k + width / 2] = q.sub(u, v);
                    w = q.mul(w, w_step);
                }
            }
            width *= 2;
        }
        a
    }

    /// Forward transform, natural-order input and output.
    pub fn forward(&self, x: &[u64]) -> Vec<u64> {
        self.transform(x, self.omega)
    }

    /// Inverse transform, natural-order input and output.
    pub fn inverse(&self, x: &[u64]) -> Vec<u64> {
        let mut a = self.transform(x, self.omega_inv);
        for v in &mut a {
            *v = self.modulus.mul(*v, self.len_inv);
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modops::Modulus;

    fn naive_negacyclic_mul(a: &[u64], b: &[u64], q: &Modulus) -> Vec<u64> {
        let n = a.len();
        let mut out = vec![0u64; n];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                let p = q.mul(ai, bj);
                let k = i + j;
                if k < n {
                    out[k] = q.add(out[k], p);
                } else {
                    out[k - n] = q.sub(out[k - n], p);
                }
            }
        }
        out
    }

    #[test]
    fn forward_is_evaluation_at_documented_points() {
        let n = 8;
        let q = 257; // 257 = 2^8+1, 2n=16 divides 256
        let t = NttTables::new(q, n);
        let m = Modulus::new(q);
        let a: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let mut f = a.clone();
        t.forward(&mut f);
        for (j, &fj) in f.iter().enumerate() {
            let e = t.eval_exponent(j);
            let point = m.pow(t.psi(), e);
            let mut val = 0u64;
            for (i, &c) in a.iter().enumerate() {
                val = m.add(val, m.mul(c, m.pow(point, i as u64)));
            }
            assert_eq!(fj, val, "output index {j}");
        }
    }

    #[test]
    fn roundtrip_various_sizes() {
        for &(q, n) in &[(257u64, 8usize), (12289, 64), (65537, 1024)] {
            let t = NttTables::new(q, n);
            let a: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % q).collect();
            let mut b = a.clone();
            t.forward(&mut b);
            t.inverse(&mut b);
            assert_eq!(a, b, "q={q}, n={n}");
        }
    }

    #[test]
    fn convolution_theorem() {
        let n = 16;
        let q = 12289;
        let t = NttTables::new(q, n);
        let m = Modulus::new(q);
        let a: Vec<u64> = (0..n as u64).map(|i| (i * i + 1) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (3 * i + 7) % q).collect();
        let expected = naive_negacyclic_mul(&a, &b, &m);
        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| m.mul(x, y)).collect();
        t.inverse(&mut fc);
        assert_eq!(fc, expected);
    }

    #[test]
    fn cyclic_roundtrip_and_dft_definition() {
        let q = 65537u64;
        let len = 16;
        let t = CyclicNtt::new(q, len);
        let m = Modulus::new(q);
        let x: Vec<u64> = (0..len as u64).map(|i| (i * 31 + 5) % q).collect();
        let y = t.forward(&x);
        // Check the DFT definition directly.
        for (k, &yk) in y.iter().enumerate() {
            let mut s = 0u64;
            for (j, &xj) in x.iter().enumerate() {
                s = m.add(s, m.mul(xj, m.pow(t.omega, (j * k) as u64)));
            }
            assert_eq!(yk, s, "k={k}");
        }
        assert_eq!(t.inverse(&y), x);
    }

    #[test]
    fn fermat_number_transform_full_length() {
        // Size 65536 transform over Z_65537: the transform used to
        // interpolate full-size LUT polynomials.
        let t = CyclicNtt::new(65537, 65536);
        let x: Vec<u64> = (0..65536u64).map(|i| (i * 17 + 11) % 65537).collect();
        let y = t.forward(&x);
        assert_eq!(t.inverse(&y), x);
    }
}
