//! # athena-fhe
//!
//! The FHE substrate of the Athena reproduction: RNS-BFV with slot and
//! coefficient encodings, LWE ciphertexts, modulus switching, sample
//! extraction (Alg. 1), LWE→RLWE packing, functional bootstrapping
//! (Eq. 3 / Alg. 2), homomorphic linear transforms with S2C, and the
//! Table 4 noise model.
//!
//! ## The five-step loop's crypto, in order
//!
//! 1. [`bfv`] — coefficient-encoded linear layers via `PMult`/`HAdd`.
//! 2. [`extract::mod_switch_rlwe`] — noise-killing modulus switch (Eq. 2).
//! 3. [`extract::sample_extract_all`] + [`lwe`] — RLWE→LWE and `N → n`.
//! 4. [`pack`] — homomorphic decryption packs LWEs into fresh slots.
//! 5. [`fbs`] — LUT evaluation = non-linearity + remap + bootstrap;
//!    then [`linear::HomLinearTransform::slot_to_coeff`] re-enters step 1.
//!
//! ## Example
//!
//! ```
//! use athena_fhe::params::BfvParams;
//! use athena_fhe::bfv::{BfvContext, BfvEvaluator, SecretKey};
//! use athena_math::sampler::Sampler;
//!
//! let ctx = BfvContext::new(BfvParams::test_small());
//! let mut sampler = Sampler::from_seed(1);
//! let sk = SecretKey::generate(&ctx, &mut sampler);
//! let ev = BfvEvaluator::new(&ctx);
//! let m = ctx.encoder().encode(&vec![7u64; ctx.n()]);
//! let ct = ev.encrypt_sk(&m, &sk, &mut sampler);
//! assert_eq!(ev.decrypt(&ct, &sk), m);
//! ```

pub mod bfv;
pub mod encoder;
pub mod error;
pub mod extract;
pub mod fbs;
pub mod linear;
pub mod lwe;
pub mod noise;
pub mod pack;
pub mod params;
pub mod security;

pub use bfv::{BfvCiphertext, BfvContext, BfvEvaluator, GaloisKeys, RelinKey, SecretKey};
pub use error::FheError;
pub use fbs::{fbs_apply, Lut};
pub use params::BfvParams;
