//! Plaintext encoders for BFV over `Z_t[X]/(X^N + 1)` with prime
//! `t ≡ 1 (mod 2N)`.
//!
//! Two encodings are used by the Athena framework:
//!
//! * **Coefficient encoding** (`encode_coeff`) — values live in polynomial
//!   coefficients; this is what the convolution layer uses (Eq. 1) because
//!   polynomial multiplication then *is* the sliding inner product.
//! * **Slot (batch) encoding** (`SlotEncoder`) — values live in the CRT
//!   "slots"; element-wise plaintext ops act in parallel on all slots, which
//!   is what FBS needs to evaluate a LUT polynomial on every value at once.
//!
//! Slots are arranged SEAL-style as a 2×(N/2) matrix. The Galois
//! automorphism `X → X^{3^k}` rotates each row left by `k`; `X → X^{−1}`
//! swaps the rows.

use athena_math::modops::Modulus;
use athena_math::ntt::NttTables;
use athena_math::poly::{Domain, Poly, Ring};

use crate::error::FheError;

/// Encoder/decoder between slot vectors over `Z_t` and plaintext polynomials.
///
/// # Examples
///
/// ```
/// use athena_fhe::encoder::SlotEncoder;
/// let enc = SlotEncoder::new(257, 16);
/// let values: Vec<u64> = (0..16).collect();
/// let poly = enc.encode(&values);
/// assert_eq!(enc.decode(&poly), values);
/// ```
#[derive(Debug, Clone)]
pub struct SlotEncoder {
    ring: Ring,
    /// slot index -> NTT output index
    slot_to_ntt: Vec<usize>,
}

impl SlotEncoder {
    /// Creates an encoder for prime `t ≡ 1 (mod 2n)`.
    ///
    /// # Panics
    ///
    /// Panics if the congruence fails.
    pub fn new(t: u64, n: usize) -> Self {
        let ring = Ring::new(t, n);
        let two_n = 2 * n as u64;
        let tm = Modulus::new(two_n);
        // exponent -> NTT index
        let ntt = ring.ntt();
        let mut index_of_exp = vec![usize::MAX; two_n as usize];
        for j in 0..n {
            index_of_exp[ntt.eval_exponent(j) as usize] = j;
        }
        // slot (r, c): exponent 3^c * (-1)^r mod 2N
        let half = n / 2;
        let mut slot_to_ntt = vec![usize::MAX; n];
        let mut e = 1u64;
        for c in 0..half {
            let j0 = index_of_exp[e as usize];
            let j1 = index_of_exp[(two_n - e) as usize]; // -e ≡ 2N - e
            slot_to_ntt[c] = j0;
            slot_to_ntt[half + c] = j1;
            e = tm.mul(e, 3);
        }
        Self { ring, slot_to_ntt }
    }

    /// The plaintext ring (over `t`).
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The plaintext modulus.
    pub fn t(&self) -> u64 {
        self.ring.modulus().value()
    }

    /// Number of slots (`N`).
    pub fn slot_count(&self) -> usize {
        self.ring.n()
    }

    /// Slots per row (`N/2`).
    pub fn row_size(&self) -> usize {
        self.ring.n() / 2
    }

    /// The NTT tables over `Z_t`.
    pub fn ntt(&self) -> &NttTables {
        self.ring.ntt()
    }

    /// Encodes a slot vector (values mod `t`, length `N`) into a
    /// coefficient-domain plaintext polynomial.
    ///
    /// # Panics
    ///
    /// Panics with a typed [`FheError::EncodeLength`] payload if
    /// `values.len() != N`.
    pub fn encode(&self, values: &[u64]) -> Poly {
        let n = self.ring.n();
        if values.len() != n {
            crate::error::raise(FheError::EncodeLength {
                got: values.len(),
                expected: n,
            });
        }
        let t = self.ring.modulus();
        let mut eval = vec![0u64; n];
        for (s, &v) in values.iter().enumerate() {
            eval[self.slot_to_ntt[s]] = t.reduce(v);
        }
        let mut p = Poly::from_values(eval, Domain::Eval);
        self.ring.to_coeff_inplace(&mut p);
        p
    }

    /// Decodes a coefficient-domain plaintext polynomial into its slot
    /// vector.
    pub fn decode(&self, p: &Poly) -> Vec<u64> {
        let e = self.ring.to_eval(p);
        (0..self.ring.n())
            .map(|s| e.values()[self.slot_to_ntt[s]])
            .collect()
    }

    /// The evaluation exponent of slot `i`: the plaintext value in slot `i`
    /// is the polynomial evaluated at `ψ^{e}` with `e` this exponent.
    pub fn slot_eval_exponent(&self, i: usize) -> u64 {
        self.ring.ntt().eval_exponent(self.slot_to_ntt[i])
    }

    /// Galois element realizing "rotate each row left by `k`":
    /// `X → X^{3^k mod 2N}`.
    pub fn galois_for_rotation(&self, k: usize) -> usize {
        let two_n = 2 * self.ring.n() as u64;
        let m = Modulus::new(two_n);
        m.pow(3, k as u64 % (self.ring.n() as u64 / 2)) as usize
    }

    /// Galois element realizing the row swap: `X → X^{2N−1}`.
    pub fn galois_for_row_swap(&self) -> usize {
        2 * self.ring.n() - 1
    }

    /// Applies "rotate rows left by k" to a plain slot vector (reference
    /// semantics for tests and plaintext mirrors).
    pub fn rotate_slots(&self, slots: &[u64], k: usize) -> Vec<u64> {
        let half = self.row_size();
        assert_eq!(slots.len(), 2 * half);
        let mut out = vec![0u64; slots.len()];
        for c in 0..half {
            out[c] = slots[(c + k) % half];
            out[half + c] = slots[half + (c + k) % half];
        }
        out
    }

    /// Applies the row swap to a plain slot vector.
    pub fn swap_rows(&self, slots: &[u64]) -> Vec<u64> {
        let half = self.row_size();
        let mut out = slots[half..].to_vec();
        out.extend_from_slice(&slots[..half]);
        out
    }
}

/// Coefficient encoding: places signed values directly into polynomial
/// coefficients mod `t` (length-N, zero-padded).
///
/// # Panics
///
/// Panics with a typed [`FheError::CoeffOverflow`] payload if more than
/// `n` values are supplied.
pub fn encode_coeff(values: &[i64], t: u64, n: usize) -> Poly {
    if values.len() > n {
        crate::error::raise(FheError::CoeffOverflow {
            got: values.len(),
            max: n,
        });
    }
    let m = Modulus::new(t);
    let mut v = vec![0u64; n];
    for (i, &x) in values.iter().enumerate() {
        v[i] = m.from_i64(x);
    }
    Poly::from_values(v, Domain::Coeff)
}

/// Reads centered signed values back out of a coefficient-encoded plaintext.
pub fn decode_coeff(p: &Poly, t: u64) -> Vec<i64> {
    let m = Modulus::new(t);
    p.values().iter().map(|&x| m.center(x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let enc = SlotEncoder::new(257, 32);
        let vals: Vec<u64> = (0..32u64).map(|i| (i * 13 + 7) % 257).collect();
        assert_eq!(enc.decode(&enc.encode(&vals)), vals);
    }

    #[test]
    fn encoding_is_linear() {
        let enc = SlotEncoder::new(257, 16);
        let a: Vec<u64> = (0..16u64).map(|i| i % 257).collect();
        let b: Vec<u64> = (0..16u64).map(|i| (i * i) % 257).collect();
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| (x + y) % 257).collect();
        let ea = enc.encode(&a);
        let eb = enc.encode(&b);
        let esum = enc.ring().add(&ea, &eb);
        assert_eq!(enc.decode(&esum), sum);
    }

    #[test]
    fn slotwise_product_is_poly_product() {
        let enc = SlotEncoder::new(257, 16);
        let a: Vec<u64> = (1..17u64).collect();
        let b: Vec<u64> = (3..19u64).collect();
        let prod_slots: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| (x * y) % 257).collect();
        let p = enc
            .ring()
            .to_coeff(&enc.ring().mul(&enc.encode(&a), &enc.encode(&b)));
        assert_eq!(enc.decode(&p), prod_slots);
    }

    #[test]
    fn rotation_via_automorphism_matches_reference() {
        let enc = SlotEncoder::new(257, 32);
        let vals: Vec<u64> = (0..32u64).collect();
        let p = enc.encode(&vals);
        for k in [1usize, 3, 7, 15] {
            let g = enc.galois_for_rotation(k);
            let rotated = enc.ring().automorphism_coeff(&p, g);
            assert_eq!(
                enc.decode(&rotated),
                enc.rotate_slots(&vals, k),
                "rotation k={k}"
            );
        }
    }

    #[test]
    fn row_swap_via_automorphism() {
        let enc = SlotEncoder::new(257, 32);
        let vals: Vec<u64> = (0..32u64).map(|i| i * 2 + 1).collect();
        let p = enc.encode(&vals);
        let swapped = enc.ring().automorphism_coeff(&p, enc.galois_for_row_swap());
        assert_eq!(enc.decode(&swapped), enc.swap_rows(&vals));
    }

    #[test]
    fn coeff_encode_roundtrip() {
        let p = encode_coeff(&[-3, 5, 0, 120], 257, 8);
        let back = decode_coeff(&p, 257);
        assert_eq!(&back[..4], &[-3, 5, 0, 120]);
        assert_eq!(&back[4..], &[0, 0, 0, 0]);
    }

    #[test]
    fn full_t_encoder() {
        // t = 65537 with N = 1024 (production plaintext modulus).
        let enc = SlotEncoder::new(65537, 1024);
        let vals: Vec<u64> = (0..1024u64).map(|i| (i * 64 + 1) % 65537).collect();
        assert_eq!(enc.decode(&enc.encode(&vals)), vals);
    }
}
