//! Framework Steps ② and ③: modulus switching `Q → t` (Eq. 2) and sample
//! extraction (Alg. 1), turning one RLWE ciphertext into `N` LWE
//! ciphertexts — one per plaintext coefficient.

use athena_math::modops::Modulus;
use athena_math::poly::Domain;
use athena_math::stats::{record, Counter};

use crate::bfv::{BfvCiphertext, BfvContext, SecretKey};
use crate::lwe::{LweCiphertext, LweSecret};

/// An RLWE ciphertext over the small modulus `t`, produced by modulus
/// switching: `(a, b)` with `b + a·s = m + e_ms (mod t)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRlwe {
    /// Mask polynomial coefficients mod `t` (this is `c1` of the BFV pair).
    pub a: Vec<u64>,
    /// Body polynomial coefficients mod `t` (this is `c0`).
    pub b: Vec<u64>,
    /// The small modulus (`t`).
    pub q: u64,
}

impl SmallRlwe {
    /// Decrypts directly (reference path for tests): returns
    /// `b + a·s mod t` coefficient-wise, i.e. `m + e_ms`.
    pub fn decrypt(&self, sk_coeffs: &[i64]) -> Vec<u64> {
        let n = self.a.len();
        assert_eq!(sk_coeffs.len(), n);
        let q = Modulus::new(self.q);
        // b + a*s over the negacyclic ring mod t
        let mut out = self.b.clone();
        for (i, &ai) in self.a.iter().enumerate() {
            for (j, &sj) in sk_coeffs.iter().enumerate() {
                let p = q.mul(ai, q.from_i64(sj));
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
}

/// Modulus switching (Step ②, Eq. 2) to an arbitrary smaller modulus:
/// rescales both ciphertext components from `Q` to `target` with rounding.
/// This removes the accumulated linear-layer noise `e` (which lived below
/// Δ) at the cost of a small rounding noise `e_ms`.
///
/// Switching directly to `t` puts `e_ms` on the plaintext itself; switching
/// to an intermediate word-sized modulus (e.g. one RNS prime) keeps plenty
/// of noise headroom for the LWE dimension switch, after which a final LWE
/// modulus switch drops to `t` — the order that makes the paper's
/// `e_ms ≈ 4 bits` claim hold.
///
/// # Panics
///
/// Panics if the ciphertext has more than two components.
pub fn mod_switch_rlwe(ctx: &BfvContext, ct: &BfvCiphertext, target: u64) -> SmallRlwe {
    assert_eq!(ct.size(), 2, "mod switch expects a size-2 ciphertext");
    record(Counter::ModSwitch, 1);
    let qb = ctx.q_basis();
    let c0 = qb.poly_to_coeff(&ct.parts()[0]);
    let c1 = qb.poly_to_coeff(&ct.parts()[1]);
    assert_eq!(c0.domain(), Domain::Coeff);
    let b = qb.scale_round(&c0, target, target);
    let a = qb.scale_round(&c1, target, target);
    SmallRlwe { a, b, q: target }
}

/// Modulus switching straight to the plaintext modulus `t`.
pub fn mod_switch_to_t(ctx: &BfvContext, ct: &BfvCiphertext) -> SmallRlwe {
    mod_switch_rlwe(ctx, ct, ctx.t())
}

/// Sample extraction (Step ③, Alg. 1): expands a [`SmallRlwe`] ciphertext
/// into `N` LWE ciphertexts, where the `i`-th decrypts to the `i`-th
/// plaintext coefficient under the RLWE secret viewed as an LWE secret.
pub fn sample_extract_all(rlwe: &SmallRlwe) -> Vec<LweCiphertext> {
    let n = rlwe.a.len();
    (0..n).map(|i| sample_extract_one(rlwe, i)).collect()
}

/// Extracts only coefficient `i` (Alg. 1 body).
///
/// # Panics
///
/// Panics if `i >= N`.
pub fn sample_extract_one(rlwe: &SmallRlwe, i: usize) -> LweCiphertext {
    let n = rlwe.a.len();
    assert!(i < n, "coefficient index out of range");
    record(Counter::SampleExtract, 1);
    let q = Modulus::new(rlwe.q);
    let mut a = vec![0u64; n];
    for (j, slot) in a.iter_mut().enumerate() {
        *slot = if j <= i {
            rlwe.a[i - j]
        } else {
            q.neg(rlwe.a[n + i - j])
        };
    }
    LweCiphertext::from_parts(a, rlwe.b[i], rlwe.q)
}

/// Views the RLWE secret key as the LWE secret the extracted ciphertexts
/// decrypt under, at modulus `q`.
pub fn rlwe_secret_as_lwe_mod(sk: &SecretKey, q: u64) -> LweSecret {
    LweSecret::from_coeffs(sk.coeffs().to_vec(), q)
}

/// Views the RLWE secret key as an LWE secret at the plaintext modulus `t`.
pub fn rlwe_secret_as_lwe(ctx: &BfvContext, sk: &SecretKey) -> LweSecret {
    rlwe_secret_as_lwe_mod(sk, ctx.t())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfv::{BfvContext, BfvEvaluator, SecretKey};
    use crate::encoder::encode_coeff;
    use crate::params::BfvParams;
    use athena_math::sampler::Sampler;

    fn setup() -> (BfvContext, SecretKey, Sampler) {
        let ctx = BfvContext::new(BfvParams::test_small());
        let mut sampler = Sampler::from_seed(77);
        let sk = SecretKey::generate(&ctx, &mut sampler);
        (ctx, sk, sampler)
    }

    #[test]
    fn mod_switch_then_direct_decrypt() {
        let (ctx, sk, mut sampler) = setup();
        let ev = BfvEvaluator::new(&ctx);
        // message in the high bits of t so e_ms (a few units) is visible but
        // removable: encode m * 16
        let msgs: Vec<i64> = (0..128).map(|i| (i % 16) * 16).collect();
        let m = encode_coeff(&msgs, 257, 128);
        let ct = ev.encrypt_sk(&m, &sk, &mut sampler);
        let small = mod_switch_to_t(&ctx, &ct);
        let dec = small.decrypt(sk.coeffs());
        for (i, (&d, &want)) in dec.iter().zip(&msgs).enumerate() {
            let err = (d as i64 - want).rem_euclid(257);
            let err = err.min(257 - err);
            assert!(
                err <= 16,
                "coeff {i}: decrypted {d}, want {want} (err {err})"
            );
        }
    }

    #[test]
    fn extraction_matches_ring_decryption() {
        let (ctx, sk, mut sampler) = setup();
        let ev = BfvEvaluator::new(&ctx);
        let msgs: Vec<i64> = (0..128).map(|i| (i * 2) % 257).collect();
        let m = encode_coeff(&msgs, 257, 128);
        let ct = ev.encrypt_sk(&m, &sk, &mut sampler);
        let small = mod_switch_to_t(&ctx, &ct);
        let ring_dec = small.decrypt(sk.coeffs());
        let lwe_sk = rlwe_secret_as_lwe(&ctx, &sk);
        let lwes = sample_extract_all(&small);
        assert_eq!(lwes.len(), 128);
        for (i, lwe) in lwes.iter().enumerate() {
            assert_eq!(lwe.decrypt(&lwe_sk), ring_dec[i], "coefficient {i}");
        }
    }

    #[test]
    fn extraction_is_exact_on_trivial_rlwe() {
        // With a = 0 the extraction must return exactly b_i.
        let rlwe = SmallRlwe {
            a: vec![0; 8],
            b: (0..8u64).collect(),
            q: 257,
        };
        let s = LweSecret::from_coeffs(vec![1, -1, 0, 1, 0, 0, -1, 1], 257);
        for i in 0..8 {
            let ct = sample_extract_one(&rlwe, i);
            assert_eq!(ct.decrypt(&s), i as u64);
        }
    }

    #[test]
    fn extraction_negacyclic_wraparound_sign() {
        // Single nonzero a coefficient at position N-1 exercises the
        // negation branch of Alg. 1.
        let n = 8;
        let mut a = vec![0u64; n];
        a[n - 1] = 5;
        let rlwe = SmallRlwe {
            a,
            b: vec![0; n],
            q: 257,
        };
        let mut s = vec![0i64; n];
        s[1] = 1; // s = X
        let sk = LweSecret::from_coeffs(s.clone(), 257);
        // a*s = 5 X^{n-1} * X = 5 X^n = -5 (negacyclic)
        let dec0 = sample_extract_one(&rlwe, 0).decrypt(&sk);
        assert_eq!(dec0, 257 - 5);
        // all other coefficients are 0
        for i in 1..n {
            assert_eq!(sample_extract_one(&rlwe, i).decrypt(&sk), 0, "i={i}");
        }
    }
}
