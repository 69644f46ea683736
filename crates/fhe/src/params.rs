//! Parameter sets for the Athena cryptosystem: an RNS-BFV RLWE layer
//! (linear algebra, FBS, packing) plus an LWE layer (sample extraction /
//! dimension switching), as in §3.3 of the paper.
//!
//! The paper's production set is `N = 2^15`, `log₂ Q = 720`, `t = 65537`,
//! LWE `n = 2048`, `q = t` — exposed as [`BfvParams::athena_production`].
//! Reduced sets keep every pipeline step real but finish in milliseconds,
//! for tests and examples.

use athena_math::bigint::UBig;
use athena_math::prime::ntt_primes;
use athena_math::rns::RnsBasis;

/// Parameters of the full Athena cryptosystem.
///
/// # Examples
///
/// ```
/// use athena_fhe::params::BfvParams;
/// let p = BfvParams::test_small();
/// assert!(p.delta().bits() > 20);
/// ```
#[derive(Debug, Clone)]
pub struct BfvParams {
    /// RLWE ring degree `N`.
    pub n: usize,
    /// RNS limb primes whose product is `Q`.
    pub q_primes: Vec<u64>,
    /// Plaintext modulus `t` (prime, `t ≡ 1 mod 2N` for slot encoding).
    pub t: u64,
    /// LWE dimension `n` after dimension switching.
    pub lwe_n: usize,
    /// Error standard deviation.
    pub sigma: f64,
    /// Decomposition base (log2) for LWE dimension switching.
    pub lwe_ks_base_log: u32,
}

impl BfvParams {
    /// The paper's production parameter set (§3.3): `N = 2^15`,
    /// twelve 60-bit primes (`log₂ Q = 720`), `t = 65537`, LWE `n = 2048`.
    ///
    /// Too heavy to run under test profiles; used by the cost model, size
    /// accounting (Tables 1 and 8) and noise analysis (Table 4).
    pub fn athena_production() -> Self {
        Self {
            n: 1 << 15,
            q_primes: ntt_primes(60, 1 << 15, 12),
            t: 65537,
            lwe_n: 2048,
            sigma: 3.2,
            lwe_ks_base_log: 8,
        }
    }

    /// Small test set: `N = 128`, five 50-bit primes, `t = 257`.
    ///
    /// `t − 1 = 256` is a power of two, so the fast LUT interpolation works,
    /// and `2N = 256` divides `t − 1`, so slot encoding works; a full FBS
    /// finishes quickly.
    pub fn test_small() -> Self {
        Self {
            n: 128,
            q_primes: ntt_primes(50, 128, 5),
            t: 257,
            lwe_n: 32,
            sigma: 3.2,
            lwe_ks_base_log: 4,
        }
    }

    /// Builds the RNS basis for `Q`.
    pub fn q_basis(&self) -> RnsBasis {
        RnsBasis::new(&self.q_primes, self.n)
    }

    /// Builds the extended basis used during ciphertext multiplication:
    /// `Q ∪ P` with `P` big enough that the tensor product never wraps
    /// (`|P| · |Q| > N · Q² · t`, with margin).
    pub fn mult_basis(&self) -> RnsBasis {
        let mut primes = self.q_primes.clone();
        primes.extend_from_slice(&self.aux_primes());
        RnsBasis::new(&primes, self.n)
    }

    /// Auxiliary primes appended for multiplication.
    pub fn aux_primes(&self) -> Vec<u64> {
        // Need P > N * Q * t * margin (tensor coeffs are bounded by
        // N * (Q/2)^2, and we carry them modulo Q*P).
        let q_bits: u32 = self.q_primes.iter().map(|&p| 64 - p.leading_zeros()).sum();
        let need_bits = q_bits + (self.n as u64).ilog2() + (64 - self.t.leading_zeros()) + 8;
        let prime_bits = 55u32;
        let count = need_bits.div_ceil(prime_bits - 1) as usize;
        // Pick primes disjoint from q_primes by going one bit smaller.
        let mut cands = ntt_primes(prime_bits, self.n, count + self.q_primes.len());
        cands.retain(|p| !self.q_primes.contains(p));
        cands.truncate(count);
        cands
    }

    /// `Q = ∏ q_i` as a big integer.
    pub fn q_product(&self) -> UBig {
        let mut q = UBig::one();
        for &p in &self.q_primes {
            q = q.mul_u64(p);
        }
        q
    }

    /// `Δ = ⌊Q/t⌋`, the BFV plaintext scaling factor.
    pub fn delta(&self) -> UBig {
        self.q_product().div_rem_u64(self.t).0
    }

    /// Total bits of `Q`.
    pub fn q_bits(&self) -> usize {
        self.q_product().bits()
    }

    /// Size in bytes of one BFV ciphertext (two ring elements, RNS form,
    /// 8 bytes per residue) — the quantity reported in Table 1.
    pub fn ciphertext_bytes(&self) -> usize {
        2 * self.n * self.q_primes.len() * 8
    }

    /// Size in bytes of one key-switching key (per-limb gadget: `k` pairs of
    /// ring elements).
    pub fn keyswitch_key_bytes(&self) -> usize {
        let k = self.q_primes.len();
        2 * k * self.n * k * 8
    }

    /// Number of slots (equal to `N` for our power-of-two cyclotomic with
    /// `t ≡ 1 mod 2N`).
    pub fn slot_count(&self) -> usize {
        self.n
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics with a description if any constraint is violated.
    pub fn validate(&self) {
        assert!(self.n.is_power_of_two(), "N must be a power of two");
        assert!(self.lwe_n.is_power_of_two(), "LWE n must be a power of two");
        assert!(self.lwe_n <= self.n, "LWE dimension cannot exceed N");
        assert_eq!(
            (self.t - 1) % (2 * self.n as u64),
            0,
            "t must be 1 mod 2N for slot encoding"
        );
        for &p in &self.q_primes {
            assert_eq!((p - 1) % (2 * self.n as u64), 0, "q_i must be 1 mod 2N");
            assert!(p > self.t, "limb primes must exceed t");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        BfvParams::test_small().validate();
    }

    #[test]
    fn production_matches_paper() {
        let p = BfvParams::athena_production();
        p.validate();
        assert_eq!(p.n, 32768);
        assert_eq!(p.t, 65537);
        assert_eq!(p.lwe_n, 2048);
        // log2 Q = 720 (12 x 60-bit primes).
        assert!(
            p.q_bits() >= 708 && p.q_bits() <= 720,
            "q_bits = {}",
            p.q_bits()
        );
        // Ciphertext size ~ 5.6 MB > 5 MB, < 7 MB (Table 1 reports 5.6 MB,
        // counting 720 bits packed; our 8-byte-per-residue RNS form is 6 MB).
        let mb = p.ciphertext_bytes() as f64 / (1024.0 * 1024.0);
        assert!(mb > 4.0 && mb < 8.0, "ciphertext {mb} MB");
    }

    #[test]
    fn aux_primes_disjoint_and_sufficient() {
        let p = BfvParams::test_small();
        let aux = p.aux_primes();
        for a in &aux {
            assert!(!p.q_primes.contains(a));
        }
        let mut total = UBig::one();
        for &x in &aux {
            total = total.mul_u64(x);
        }
        // P > N * Q * t
        let bound = p.q_product().mul_u64(p.n as u64).mul_u64(p.t);
        assert!(total > bound);
    }

    #[test]
    fn delta_close_to_q_over_t() {
        let p = BfvParams::test_small();
        let d = p.delta();
        let back = d.mul_u64(p.t);
        let q = p.q_product();
        assert!(back <= q);
        assert!(q.sub(&back) < UBig::from(p.t));
    }
}
