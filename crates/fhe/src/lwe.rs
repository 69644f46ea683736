//! The LWE layer: ciphertexts modulo the plaintext modulus `t`, produced by
//! modulus switching + sample extraction (framework Steps ② and ③), plus
//! the dimension-switching key switch `N → n` of \[12\] (Gentry et al. field
//! switching, realized here as an LWE key switch).
//!
//! Decryption convention: `ct = (a⃗, b)` decrypts as `b + ⟨a⃗, s⃗⟩ mod t`.

use athena_math::modops::{lazy_mac_terms, Modulus};
use athena_math::sampler::Sampler;

/// An LWE secret key: signed ternary coefficients.
#[derive(Debug, Clone)]
pub struct LweSecret {
    coeffs: Vec<i64>,
    q: u64,
}

impl LweSecret {
    /// Samples a ternary LWE secret of dimension `n` over modulus `q`.
    pub fn generate(n: usize, q: u64, sampler: &mut Sampler) -> Self {
        Self {
            coeffs: sampler.ternary(n),
            q,
        }
    }

    /// Wraps explicit coefficients (used to view an RLWE secret as an LWE
    /// secret after sample extraction).
    pub fn from_coeffs(coeffs: Vec<i64>, q: u64) -> Self {
        Self { coeffs, q }
    }

    /// The signed coefficients.
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.coeffs.len()
    }

    /// Modulus.
    pub fn q(&self) -> u64 {
        self.q
    }
}

/// An LWE ciphertext `(a⃗, b)` modulo `q` with decryption `b + ⟨a⃗, s⃗⟩`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LweCiphertext {
    a: Vec<u64>,
    b: u64,
    q: u64,
}

impl LweCiphertext {
    /// Wraps raw components (already reduced mod `q`).
    pub fn from_parts(a: Vec<u64>, b: u64, q: u64) -> Self {
        Self { a, b, q }
    }

    /// The mask vector `a⃗`.
    pub fn a(&self) -> &[u64] {
        &self.a
    }

    /// The body `b`.
    pub fn b(&self) -> u64 {
        self.b
    }

    /// The modulus.
    pub fn q(&self) -> u64 {
        self.q
    }

    /// Dimension of the mask.
    pub fn dim(&self) -> usize {
        self.a.len()
    }

    /// A fresh encryption of `m ∈ Z_q` under `s` ("fresh" here means noise
    /// `e` sampled from the sampler's Gaussian; Athena's pipeline instead
    /// *produces* LWE ciphertexts by extraction, but direct encryption is
    /// useful for tests and key material).
    pub fn encrypt(m: u64, s: &LweSecret, sampler: &mut Sampler) -> Self {
        let q = Modulus::new(s.q);
        let a: Vec<u64> = (0..s.dim()).map(|_| sampler.uniform_mod(s.q)).collect();
        let mut dot = 0u64;
        for (x, &si) in a.iter().zip(s.coeffs()) {
            dot = q.add(dot, q.mul(*x, q.from_i64(si)));
        }
        let e = q.from_i64(sampler.gaussian_one());
        // b = m - <a,s> + e
        let b = q.add(q.sub(q.reduce(m), dot), e);
        Self { a, b, q: s.q }
    }

    /// Decrypts (returns `m + e mod q`; the caller decides how much noise is
    /// tolerable).
    pub fn decrypt(&self, s: &LweSecret) -> u64 {
        assert_eq!(self.dim(), s.dim(), "dimension mismatch");
        let q = Modulus::new(self.q);
        let mut acc = self.b;
        for (x, &si) in self.a.iter().zip(s.coeffs()) {
            acc = q.add(acc, q.mul(*x, q.from_i64(si)));
        }
        acc
    }

    /// Homomorphic addition of two LWE ciphertexts.
    pub fn add(&self, other: &LweCiphertext) -> LweCiphertext {
        assert_eq!(self.q, other.q);
        assert_eq!(self.dim(), other.dim());
        let q = Modulus::new(self.q);
        LweCiphertext {
            a: self
                .a
                .iter()
                .zip(&other.a)
                .map(|(&x, &y)| q.add(x, y))
                .collect(),
            b: q.add(self.b, other.b),
            q: self.q,
        }
    }

    /// The trivial (noiseless) encryption of `m`.
    pub fn trivial(m: u64, dim: usize, q: u64) -> Self {
        Self {
            a: vec![0; dim],
            b: m % q,
            q,
        }
    }
}

/// LWE modulus switching: rescales `(a⃗, b)` from `q` to `new_q` with
/// rounding. The plaintext scales by `new_q / q`; the rounding introduces
/// the paper's `e_ms ~ N(0, (t·σ/Q)² + (‖s‖² + 1)/12)` noise on the result.
pub fn lwe_mod_switch(ct: &LweCiphertext, new_q: u64) -> LweCiphertext {
    let q = ct.q();
    let qm = Modulus::new(q);
    let round = |x: u64| -> u64 {
        // centered rounding: treat x as signed in (-q/2, q/2]
        let c = qm.center(x);
        let scaled = (c as i128 * new_q as i128
            + if c >= 0 {
                q as i128 / 2
            } else {
                -(q as i128) / 2
            })
            / q as i128;
        scaled.rem_euclid(new_q as i128) as u64
    };
    LweCiphertext {
        a: ct.a().iter().map(|&x| round(x)).collect(),
        b: round(ct.b()),
        q: new_q,
    }
}

/// Key-switching key from a dimension-`N` secret to a dimension-`n` secret,
/// with unsigned base-`2^base_log` digit decomposition.
#[derive(Debug, Clone)]
pub struct LweKeySwitchKey {
    /// keys[j][d] encrypts `s_src[j] · B^d` under the destination secret.
    keys: Vec<Vec<LweCiphertext>>,
    base_log: u32,
    digits: usize,
    q: u64,
    dst_dim: usize,
}

impl LweKeySwitchKey {
    /// Generates a key switching `src → dst`.
    pub fn generate(
        src: &LweSecret,
        dst: &LweSecret,
        base_log: u32,
        sampler: &mut Sampler,
    ) -> Self {
        assert_eq!(src.q(), dst.q(), "moduli must match");
        let q = src.q();
        let qm = Modulus::new(q);
        let digits = (64 - (q - 1).leading_zeros()).div_ceil(base_log) as usize;
        let keys = src
            .coeffs()
            .iter()
            .map(|&sj| {
                (0..digits)
                    .map(|d| {
                        let scale = qm.pow(2, (d as u32 * base_log) as u64);
                        let m = qm.mul(qm.from_i64(sj), scale);
                        LweCiphertext::encrypt(m, dst, sampler)
                    })
                    .collect()
            })
            .collect();
        Self {
            keys,
            base_log,
            digits,
            q,
            dst_dim: dst.dim(),
        }
    }

    /// The key ciphertexts: entry `[j][d]` encrypts `s_src[j]·2^(d·base_log)`.
    pub fn keys(&self) -> &[Vec<LweCiphertext>] {
        &self.keys
    }

    /// Number of decomposition digits.
    pub fn digits(&self) -> usize {
        self.digits
    }

    /// Size of the key in bytes (Table 1 key accounting).
    pub fn bytes(&self) -> usize {
        self.keys.len() * self.digits * (self.dst_dim + 1) * 8
    }

    /// Switches a ciphertext from the source to the destination dimension.
    ///
    /// One fused multiply–accumulate: every output word sums its
    /// `digit·key` products in a `u128` lane, reduced once per
    /// [`lazy_mac_terms`] products (once at the end, at the sizes run
    /// here). Zero digits are multiplied like any other.
    ///
    /// # Panics
    ///
    /// Panics if `ct` does not match the source dimension/modulus.
    pub fn switch(&self, ct: &LweCiphertext) -> LweCiphertext {
        assert_eq!(ct.dim(), self.keys.len(), "source dimension mismatch");
        assert_eq!(ct.q(), self.q, "modulus mismatch");
        let qm = Modulus::new(self.q);
        let (base_log, mask) = (self.base_log, (1u64 << self.base_log) - 1);
        let run = lazy_mac_terms(base_log, qm.bits());
        // Lanes 0..dst_dim accumulate a⃗, the last one b.
        let mut lanes = vec![0u128; self.dst_dim + 1];
        lanes[self.dst_dim] = ct.b() as u128;
        let mut left = run;
        for (&aj, keys) in ct.a().iter().zip(&self.keys) {
            for (d, key) in keys.iter().enumerate() {
                if left == 0 {
                    for lane in lanes.iter_mut() {
                        *lane = qm.reduce_u128(*lane) as u128;
                    }
                    left = run;
                }
                left -= 1;
                let digit = ((aj >> (d as u32 * base_log)) & mask) as u128;
                let words = key.a().iter().copied().chain([key.b()]);
                for (lane, w) in lanes.iter_mut().zip(words) {
                    *lane += digit * w as u128;
                }
            }
        }
        let mut a: Vec<u64> = lanes.iter().map(|&lane| qm.reduce_u128(lane)).collect();
        let b = a.pop().expect("the b lane");
        LweCiphertext { a, b, q: self.q }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encrypt_decrypt_with_scale_margin() {
        // Encode m in the high bits so Gaussian noise does not corrupt it.
        let q = 65537u64;
        let scale = 256u64;
        let mut sampler = Sampler::from_seed(7);
        let s = LweSecret::generate(64, q, &mut sampler);
        for m in [0u64, 1, 100, 255] {
            let ct = LweCiphertext::encrypt(m * scale, &s, &mut sampler);
            let dec = ct.decrypt(&s);
            let recovered = (dec + scale / 2) / scale % 256;
            assert_eq!(recovered, m);
        }
    }

    #[test]
    fn additive_homomorphism() {
        let q = 65537u64;
        let scale = 512u64;
        let mut sampler = Sampler::from_seed(8);
        let s = LweSecret::generate(32, q, &mut sampler);
        let c1 = LweCiphertext::encrypt(3 * scale, &s, &mut sampler);
        let c2 = LweCiphertext::encrypt(9 * scale, &s, &mut sampler);
        let sum = c1.add(&c2);
        let dec = sum.decrypt(&s);
        assert_eq!((dec + scale / 2) / scale, 12);
    }

    #[test]
    fn trivial_decrypts_exactly() {
        let q = 257u64;
        let s = LweSecret::generate(16, q, &mut Sampler::from_seed(9));
        let ct = LweCiphertext::trivial(123, 16, q);
        assert_eq!(ct.decrypt(&s), 123);
    }

    #[test]
    fn keyswitch_preserves_message_at_large_modulus() {
        // Dimension switching happens at a word-sized RNS prime, where the
        // key-switch noise (~2^20) is negligible relative to the scale.
        let q = athena_math::prime::ntt_primes(50, 64, 1)[0];
        let scale = 1u64 << 40;
        let mut sampler = Sampler::from_seed(10);
        let big = LweSecret::generate(256, q, &mut sampler);
        let small = LweSecret::generate(64, q, &mut sampler);
        let ksk = LweKeySwitchKey::generate(&big, &small, 8, &mut sampler);
        for m in [0u64, 5, 31, 63] {
            let ct = LweCiphertext::encrypt(m * scale, &big, &mut sampler);
            let switched = ksk.switch(&ct);
            assert_eq!(switched.dim(), 64);
            let dec = switched.decrypt(&small);
            let recovered = (dec + scale / 2) / scale % 64;
            assert_eq!(recovered, m, "m={m}");
        }
    }

    #[test]
    fn lwe_mod_switch_rescales_message() {
        // Encrypt (q1/t)*m at modulus q1, switch to t, recover m.
        let q1 = athena_math::prime::ntt_primes(50, 64, 1)[0];
        let t = 257u64;
        let mut sampler = Sampler::from_seed(12);
        let s_q1 = LweSecret::generate(32, q1, &mut sampler);
        for m in [0u64, 1, 100, 200, 256] {
            let scaled = ((m as u128 * q1 as u128) / t as u128) as u64;
            let ct = LweCiphertext::encrypt(scaled, &s_q1, &mut sampler);
            let switched = lwe_mod_switch(&ct, t);
            let s_t = LweSecret::from_coeffs(s_q1.coeffs().to_vec(), t);
            let dec = switched.decrypt(&s_t) as i64;
            let diff = (dec - m as i64).rem_euclid(t as i64);
            let diff = diff.min(t as i64 - diff);
            assert!(diff <= 12, "m={m}, dec={dec}, diff={diff}");
        }
    }

    #[test]
    fn keyswitch_key_size_accounting() {
        let q = 65537u64;
        let mut sampler = Sampler::from_seed(11);
        let big = LweSecret::generate(128, q, &mut sampler);
        let small = LweSecret::generate(32, q, &mut sampler);
        let ksk = LweKeySwitchKey::generate(&big, &small, 8, &mut sampler);
        // 17-bit modulus, base 2^8 -> 3 digits
        assert_eq!(ksk.digits(), 3);
        assert_eq!(ksk.bytes(), 128 * 3 * 33 * 8);
    }
}
