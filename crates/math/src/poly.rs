//! Polynomials over `R_q = Z_q[X]/(X^N + 1)` for a single word-sized prime
//! modulus, together with the [`Ring`] context that owns the NTT tables.
//!
//! A [`Poly`] is tagged with its [`Domain`]: `Coeff` (coefficient vector) or
//! `Eval` (NTT/evaluation form). Multiplication is pointwise in `Eval` form;
//! automorphisms are supported in both forms.
//!
//! Limbs are plain `Vec<u64>` buffers from the system allocator. Every one
//! is built through [`Poly::from_values`] (or [`Poly`]'s `Clone`), which
//! records it in the `AllocTake` row of [`crate::stats`].

use std::borrow::Cow;

use crate::modops::Modulus;
use crate::ntt::NttTables;
use crate::stats::{record, Counter};

/// Representation domain of a polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Coefficient representation.
    Coeff,
    /// NTT / evaluation representation (bit-reversed evaluation order).
    Eval,
}

/// A residue polynomial: `N` values mod a single prime `q`, in one of two
/// domains.
#[derive(Debug, PartialEq, Eq)]
pub struct Poly {
    values: Vec<u64>,
    domain: Domain,
}

impl Poly {
    /// Wraps raw values (each must already be reduced mod the ring modulus).
    /// The one constructor every limb buffer goes through, so it is where
    /// limb allocations are counted.
    pub fn from_values(values: Vec<u64>, domain: Domain) -> Self {
        record(Counter::AllocTake, 1);
        Self { values, domain }
    }

    /// The underlying values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Mutable access to the underlying values.
    pub fn values_mut(&mut self) -> &mut [u64] {
        &mut self.values
    }

    /// The representation domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Number of values (the ring degree).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the polynomial has no values (never true for ring elements).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Counted like every other limb buffer: a clone allocates one.
impl Clone for Poly {
    fn clone(&self) -> Self {
        Self::from_values(self.values.clone(), self.domain)
    }
}

/// Context for arithmetic in `R_q = Z_q[X]/(X^N + 1)`.
///
/// # Examples
///
/// ```
/// use athena_math::poly::{Ring, Domain};
/// let ring = Ring::new(12289, 64);
/// let a = ring.from_i64(&vec![1i64; 64]);
/// let b = ring.from_i64(&vec![2i64; 64]);
/// let c = ring.add(&a, &b);
/// assert_eq!(c.values()[0], 3);
/// ```
#[derive(Debug, Clone)]
pub struct Ring {
    n: usize,
    modulus: Modulus,
    ntt: NttTables,
}

impl Ring {
    /// Creates a ring of degree `n` (power of two) over prime `q ≡ 1 mod 2n`.
    ///
    /// # Panics
    ///
    /// Panics if the NTT does not exist for `(q, n)`.
    pub fn new(q: u64, n: usize) -> Self {
        Self {
            n,
            modulus: Modulus::new(q),
            ntt: NttTables::new(q, n),
        }
    }

    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Coefficient modulus.
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The NTT tables for this ring.
    pub fn ntt(&self) -> &NttTables {
        &self.ntt
    }

    /// The zero polynomial in the given domain.
    pub fn zero(&self, domain: Domain) -> Poly {
        Poly::from_values(vec![0; self.n], domain)
    }

    /// Builds a coefficient-domain polynomial from signed coefficients.
    pub fn from_i64(&self, coeffs: &[i64]) -> Poly {
        assert_eq!(coeffs.len(), self.n, "coefficient count must equal N");
        let out = coeffs.iter().map(|&c| self.modulus.from_i64(c)).collect();
        Poly::from_values(out, Domain::Coeff)
    }

    /// Converts to evaluation domain (no-op if already there).
    pub fn to_eval(&self, p: &Poly) -> Poly {
        match p.domain {
            Domain::Eval => p.clone(),
            Domain::Coeff => {
                let mut v = p.values.clone();
                self.ntt.forward(&mut v);
                Poly::from_values(v, Domain::Eval)
            }
        }
    }

    /// Converts to coefficient domain (no-op if already there).
    pub fn to_coeff(&self, p: &Poly) -> Poly {
        match p.domain {
            Domain::Coeff => p.clone(),
            Domain::Eval => {
                let mut v = p.values.clone();
                self.ntt.inverse(&mut v);
                Poly::from_values(v, Domain::Coeff)
            }
        }
    }

    /// In-place domain conversion to evaluation form.
    pub fn to_eval_inplace(&self, p: &mut Poly) {
        if p.domain == Domain::Coeff {
            self.ntt.forward(&mut p.values);
            p.domain = Domain::Eval;
        }
    }

    /// In-place domain conversion to coefficient form.
    pub fn to_coeff_inplace(&self, p: &mut Poly) {
        if p.domain == Domain::Eval {
            self.ntt.inverse(&mut p.values);
            p.domain = Domain::Coeff;
        }
    }

    fn zip(&self, a: &Poly, b: &Poly, f: impl Fn(&Modulus, u64, u64) -> u64) -> Poly {
        assert_eq!(a.domain, b.domain, "domain mismatch");
        assert_eq!(a.len(), self.n);
        assert_eq!(b.len(), self.n);
        let out = a
            .values
            .iter()
            .zip(&b.values)
            .map(|(&x, &y)| f(&self.modulus, x, y))
            .collect();
        Poly::from_values(out, a.domain)
    }

    /// Element-wise addition (same domain required).
    pub fn add(&self, a: &Poly, b: &Poly) -> Poly {
        self.zip(a, b, Modulus::add)
    }

    /// Element-wise subtraction (same domain required).
    pub fn sub(&self, a: &Poly, b: &Poly) -> Poly {
        self.zip(a, b, Modulus::sub)
    }

    /// In-place addition `a += b`.
    pub fn add_assign(&self, a: &mut Poly, b: &Poly) {
        assert_eq!(a.domain, b.domain, "domain mismatch");
        for (x, &y) in a.values.iter_mut().zip(b.values.iter()) {
            *x = self.modulus.add(*x, y);
        }
    }

    /// In-place subtraction `a -= b`.
    pub fn sub_assign(&self, a: &mut Poly, b: &Poly) {
        assert_eq!(a.domain, b.domain, "domain mismatch");
        for (x, &y) in a.values.iter_mut().zip(b.values.iter()) {
            *x = self.modulus.sub(*x, y);
        }
    }

    /// Negation.
    pub fn neg(&self, a: &Poly) -> Poly {
        let out = a.values.iter().map(|&x| self.modulus.neg(x)).collect();
        Poly::from_values(out, a.domain)
    }

    /// Scalar multiplication by `c ∈ Z_q` (domain preserved).
    pub fn scalar_mul(&self, a: &Poly, c: u64) -> Poly {
        let c = self.modulus.reduce(c);
        let c_shoup = self.modulus.shoup(c);
        let out = a
            .values
            .iter()
            .map(|&x| self.modulus.mul_shoup(x, c, c_shoup))
            .collect();
        Poly::from_values(out, a.domain)
    }

    /// Pointwise multiplication of two `Eval`-domain polynomials.
    ///
    /// # Panics
    ///
    /// Panics if either operand is in coefficient domain.
    pub fn mul_eval(&self, a: &Poly, b: &Poly) -> Poly {
        assert_eq!(a.domain, Domain::Eval, "mul_eval needs Eval domain");
        self.zip(a, b, Modulus::mul)
    }

    /// Full polynomial multiplication: accepts any domains, returns `Eval`.
    /// An operand already in `Eval` form is read in place, not copied.
    pub fn mul(&self, a: &Poly, b: &Poly) -> Poly {
        self.mul_eval(&self.eval_form(a), &self.eval_form(b))
    }

    /// `p` in `Eval` form: borrowed when it already is, else transformed.
    fn eval_form<'p>(&self, p: &'p Poly) -> Cow<'p, Poly> {
        match p.domain {
            Domain::Eval => Cow::Borrowed(p),
            Domain::Coeff => Cow::Owned(self.to_eval(p)),
        }
    }

    /// Galois automorphism `a(X) → a(X^k)` for odd `k`, in coefficient
    /// domain.
    ///
    /// # Panics
    ///
    /// Panics if `k` is even or the input is not in coefficient domain.
    pub fn automorphism_coeff(&self, a: &Poly, k: usize) -> Poly {
        assert_eq!(
            a.domain,
            Domain::Coeff,
            "automorphism_coeff needs Coeff domain"
        );
        assert!(k % 2 == 1, "Galois element must be odd");
        let two_n = 2 * self.n;
        let mut out = vec![0; self.n];
        for i in 0..self.n {
            let e = (i * k) % two_n;
            let v = a.values[i];
            if e < self.n {
                out[e] = self.modulus.add(out[e], v);
            } else {
                out[e - self.n] = self.modulus.sub(out[e - self.n], v);
            }
        }
        Poly::from_values(out, Domain::Coeff)
    }

    /// Galois automorphism in evaluation domain (a pure index permutation).
    ///
    /// # Panics
    ///
    /// Panics if `k` is even or the input is not in evaluation domain.
    pub fn automorphism_eval(&self, a: &Poly, k: usize) -> Poly {
        assert_eq!(
            a.domain,
            Domain::Eval,
            "automorphism_eval needs Eval domain"
        );
        assert!(k % 2 == 1, "Galois element must be odd");
        let perm = self.automorphism_permutation(k);
        self.automorphism_eval_perm(a, &perm)
    }

    /// Galois automorphism in evaluation domain from a precomputed
    /// permutation (see [`Ring::automorphism_permutation`]) — the hot-path
    /// variant: callers applying the same `k` across many limbs or digits
    /// compute the permutation once.
    pub fn automorphism_eval_perm(&self, a: &Poly, perm: &[usize]) -> Poly {
        assert_eq!(
            a.domain,
            Domain::Eval,
            "automorphism_eval needs Eval domain"
        );
        assert_eq!(perm.len(), self.n, "permutation length must equal N");
        let out = perm.iter().map(|&src| a.values[src]).collect();
        Poly::from_values(out, Domain::Eval)
    }

    /// For output index `j`, the input index whose evaluation point maps to
    /// `j` under `X → X^k`: output slot `j` (point `ψ^e`) takes the value of
    /// the polynomial at `ψ^{e·k}`.
    pub fn automorphism_permutation(&self, k: usize) -> Vec<usize> {
        let two_n = 2 * self.n as u64;
        // exponent -> ntt index lookup
        let mut index_of_exp = vec![usize::MAX; two_n as usize];
        for j in 0..self.n {
            index_of_exp[self.ntt.eval_exponent(j) as usize] = j;
        }
        (0..self.n)
            .map(|j| {
                let e = self.ntt.eval_exponent(j);
                let src_exp = (e * k as u64) % two_n;
                index_of_exp[src_exp as usize]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Ring {
        Ring::new(12289, 16)
    }

    #[test]
    fn domain_roundtrip() {
        let r = ring();
        let a = r.from_i64(&(0..16).map(|i| i - 8).collect::<Vec<_>>());
        let b = r.to_coeff(&r.to_eval(&a));
        assert_eq!(a, b);
    }

    #[test]
    fn mul_matches_schoolbook() {
        let r = ring();
        let a = r.from_i64(&(0..16).map(|i| i * 3 - 5).collect::<Vec<_>>());
        let b = r.from_i64(&(0..16).map(|i| 7 - i).collect::<Vec<_>>());
        let c = r.to_coeff(&r.mul(&a, &b));
        // schoolbook negacyclic
        let q = r.modulus();
        let mut want = [0u64; 16];
        for i in 0..16 {
            for j in 0..16 {
                let p = q.mul(a.values()[i], b.values()[j]);
                if i + j < 16 {
                    want[i + j] = q.add(want[i + j], p);
                } else {
                    want[i + j - 16] = q.sub(want[i + j - 16], p);
                }
            }
        }
        assert_eq!(c.values(), &want[..]);
    }

    #[test]
    fn automorphism_coeff_matches_eval() {
        let r = ring();
        let a = r.from_i64(&(0..16).map(|i| i + 1).collect::<Vec<_>>());
        for k in [3usize, 5, 9, 31] {
            let via_coeff = r.to_eval(&r.automorphism_coeff(&a, k));
            let via_eval = r.automorphism_eval(&r.to_eval(&a), k);
            assert_eq!(via_coeff, via_eval, "k={k}");
        }
    }

    #[test]
    fn automorphism_is_ring_homomorphism() {
        let r = ring();
        let a = r.from_i64(&(0..16).map(|i| 2 * i - 3).collect::<Vec<_>>());
        let b = r.from_i64(&(0..16).map(|i| i * i).collect::<Vec<_>>());
        let k = 5;
        let lhs = r.automorphism_coeff(&r.to_coeff(&r.mul(&a, &b)), k);
        let rhs = r.to_coeff(&r.mul(&r.automorphism_coeff(&a, k), &r.automorphism_coeff(&b, k)));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn scalar_and_linear_ops() {
        let r = ring();
        let a = r.from_i64(&[5i64; 16]);
        let b = r.scalar_mul(&a, 3);
        assert_eq!(b.values()[7], 15);
        let c = r.sub(&b, &a);
        assert_eq!(c.values()[0], 10);
        let d = r.neg(&c);
        assert_eq!(r.add(&c, &d), r.zero(Domain::Coeff));
    }
}
