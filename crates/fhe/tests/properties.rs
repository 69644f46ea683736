//! Property-style tests of the FHE layer: homomorphism laws of BFV,
//! encoder/LUT/extraction invariants, all on random inputs.
//!
//! Originally written with `proptest`; ported to plain `#[test]`s driven by
//! the in-repo PRNG (fixed seeds, N random cases each) so the suite runs
//! with zero external dependencies.

use athena_fhe::bfv::{BfvContext, BfvEvaluator, GaloisKeys, RelinKey, SecretKey};
use athena_fhe::encoder::SlotEncoder;
use athena_fhe::extract::{mod_switch_to_t, rlwe_secret_as_lwe, sample_extract_all, SmallRlwe};
use athena_fhe::fbs::Lut;
use athena_fhe::lwe::{LweCiphertext, LweKeySwitchKey, LweSecret};
use athena_fhe::params::BfvParams;
use athena_math::modops::Modulus;
use athena_math::prng::Prng;
use athena_math::sampler::Sampler;
use std::sync::OnceLock;

const CASES: usize = 8;

/// Shared context (keygen is the slow part; the properties hold for any
/// fixed key).
struct Fixture {
    ctx: BfvContext,
    sk: SecretKey,
    rlk: RelinKey,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let ctx = BfvContext::new(BfvParams::test_small());
        let mut sampler = Sampler::from_seed(0xF1);
        let sk = SecretKey::generate(&ctx, &mut sampler);
        let rlk = RelinKey::generate(&ctx, &sk, &mut sampler);
        Fixture { ctx, sk, rlk }
    })
}

fn slot_values(rng: &mut Prng) -> Vec<u64> {
    (0..128).map(|_| rng.next_below(257)).collect()
}

#[test]
fn enc_dec_roundtrip() {
    let f = fixture();
    let ev = BfvEvaluator::new(&f.ctx);
    let mut rng = Prng::seed_from_u64(0x21);
    for _ in 0..CASES {
        let vals = slot_values(&mut rng);
        let mut s = Sampler::from_seed(rng.next_u64());
        let m = f.ctx.encoder().encode(&vals);
        let ct = ev.encrypt_sk(&m, &f.sk, &mut s);
        assert_eq!(ev.decrypt(&ct, &f.sk), m);
    }
}

#[test]
fn add_is_homomorphic() {
    let f = fixture();
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let mut rng = Prng::seed_from_u64(0x22);
    for _ in 0..CASES {
        let a = slot_values(&mut rng);
        let b = slot_values(&mut rng);
        let mut s = Sampler::from_seed(rng.next_u64());
        let ca = ev.encrypt_sk(&enc.encode(&a), &f.sk, &mut s);
        let cb = ev.encrypt_sk(&enc.encode(&b), &f.sk, &mut s);
        let got = enc.decode(&ev.decrypt(&ev.add(&ca, &cb), &f.sk));
        let want: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| (x + y) % 257).collect();
        assert_eq!(got, want);
    }
}

#[test]
fn mul_is_homomorphic() {
    let f = fixture();
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let mut rng = Prng::seed_from_u64(0x23);
    for _ in 0..CASES {
        let a = slot_values(&mut rng);
        let b = slot_values(&mut rng);
        let mut s = Sampler::from_seed(rng.next_u64());
        let ca = ev.encrypt_sk(&enc.encode(&a), &f.sk, &mut s);
        let cb = ev.encrypt_sk(&enc.encode(&b), &f.sk, &mut s);
        let got = enc.decode(&ev.decrypt(&ev.mul(&ca, &cb, &f.rlk), &f.sk));
        let want: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x * y % 257).collect();
        assert_eq!(got, want);
    }
}

#[test]
fn lut_interpolation_is_exact_everywhere() {
    // Random LUT over t = 257: the interpolated polynomial must hit
    // every entry exactly (both interpolation paths).
    let t = 257u64;
    let m = Modulus::new(t);
    let mut rng = Prng::seed_from_u64(0x24);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let lut = Lut::from_fn(t, |k| (k.wrapping_mul(seed | 1) ^ (k >> 3)) % t);
        for coeffs in [lut.interpolate_ntt(), lut.interpolate_naive()] {
            for x in (0..t).step_by(17) {
                let mut acc = 0u64;
                for &c in coeffs.iter().rev() {
                    acc = m.mul_add(acc, x, c);
                }
                assert_eq!(acc, lut.get(x), "seed={seed} x={x}");
            }
        }
    }
}

#[test]
fn extraction_linear_in_ciphertext() {
    // Extracted LWE decryptions equal the SmallRlwe ring decryption at
    // every coefficient, for arbitrary ciphertext data.
    let f = fixture();
    let ev = BfvEvaluator::new(&f.ctx);
    let mut rng = Prng::seed_from_u64(0x25);
    for _ in 0..CASES {
        let vals = slot_values(&mut rng);
        let mut s = Sampler::from_seed(rng.next_u64());
        let m = athena_fhe::encoder::encode_coeff(
            &vals.iter().map(|&v| v as i64).collect::<Vec<_>>(),
            257,
            128,
        );
        let ct = ev.encrypt_sk(&m, &f.sk, &mut s);
        let small = mod_switch_to_t(&f.ctx, &ct);
        let ring_dec = small.decrypt(f.sk.coeffs());
        let lwe_sk = rlwe_secret_as_lwe(&f.ctx, &f.sk);
        for (i, lwe) in sample_extract_all(&small).iter().enumerate().step_by(13) {
            assert_eq!(lwe.decrypt(&lwe_sk), ring_dec[i]);
        }
    }
}

#[test]
fn extraction_of_trivial_is_exact() {
    let mut rng = Prng::seed_from_u64(0x26);
    for _ in 0..CASES {
        let b_vals: Vec<u64> = (0..16).map(|_| rng.next_below(257)).collect();
        let rlwe = SmallRlwe {
            a: vec![0; 16],
            b: b_vals.clone(),
            q: 257,
        };
        let sk = LweSecret::from_coeffs(vec![0; 16], 257);
        for (i, lwe) in sample_extract_all(&rlwe).iter().enumerate() {
            assert_eq!(lwe.decrypt(&sk), b_vals[i]);
        }
    }
}

#[test]
fn encoder_rotation_group_structure() {
    // rot(k1) ∘ rot(k2) = rot(k1 + k2) on the plaintext semantics.
    let enc = SlotEncoder::new(257, 128);
    let mut rng = Prng::seed_from_u64(0x27);
    for _ in 0..CASES * 4 {
        let vals = slot_values(&mut rng);
        let k1 = rng.next_below(64) as usize;
        let k2 = rng.next_below(64) as usize;
        let lhs = enc.rotate_slots(&enc.rotate_slots(&vals, k1), k2);
        let rhs = enc.rotate_slots(&vals, (k1 + k2) % 64);
        assert_eq!(lhs, rhs, "k1={k1} k2={k2}");
        // row swap is an involution
        assert_eq!(enc.swap_rows(&enc.swap_rows(&vals)), vals);
    }
}

#[test]
fn noise_budget_decreases_under_mul() {
    let f = fixture();
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let mut rng = Prng::seed_from_u64(0x28);
    for _ in 0..CASES {
        let vals = slot_values(&mut rng);
        let mut s = Sampler::from_seed(rng.next_u64());
        let ct = ev.encrypt_sk(&enc.encode(&vals), &f.sk, &mut s);
        let fresh = ev.noise_budget(&ct, &f.sk);
        let squared = ev.mul(&ct, &ct, &f.rlk);
        let after = ev.noise_budget(&squared, &f.sk);
        assert!(after < fresh, "budget must shrink: {fresh} -> {after}");
        assert!(after > 0, "one multiplication cannot exhaust the budget");
    }
}

/// The budget probe saturates instead of wrapping: repeated squaring
/// drives the budget monotonically down to the declared saturation value
/// `-1` (noise magnitude ≥ Q/4, past which the wrapped phase carries no
/// recoverable magnitude information), and *stays* exactly `-1` for
/// arbitrarily deeper circuits — no i64 underflow, no wrapped "recovered"
/// positive budget.
#[test]
fn noise_budget_saturates_at_minus_one_once_swamped() {
    let f = fixture();
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let mut s = Sampler::from_seed(0x5A7);
    let vals: Vec<u64> = (0..f.ctx.n() as u64).map(|i| (i * 3 + 1) % 17).collect();
    let mut ct = ev.encrypt_sk(&enc.encode(&vals), &f.sk, &mut s);
    let mut prev = ev.noise_budget(&ct, &f.sk);
    assert!(prev > 0, "fresh ciphertext must have positive budget");
    let mut exhausted_at = None;
    for depth in 1..=24 {
        ct = ev.mul(&ct, &ct, &f.rlk);
        let b = ev.noise_budget(&ct, &f.sk);
        if b >= 0 {
            assert!(
                b < prev,
                "depth {depth}: healthy budget must keep shrinking ({prev} -> {b})"
            );
        } else {
            assert_eq!(
                b, -1,
                "depth {depth}: saturation must read exactly -1, got {b}"
            );
            exhausted_at.get_or_insert(depth);
        }
        prev = b;
    }
    let first = exhausted_at.expect("test_small must exhaust within 24 squarings");
    // Two more squarings past exhaustion: still exactly -1.
    for _ in 0..2 {
        ct = ev.mul(&ct, &ct, &f.rlk);
        assert_eq!(
            ev.noise_budget(&ct, &f.sk),
            -1,
            "saturation band must be sticky"
        );
    }
    assert!(first >= 2, "budget should survive at least one squaring");
}

// ---------------------------------------------------------------------
// Kernel differentials and goldens for the word-sized request path
// (`cargo test -p athena-fhe --test properties kernel_` runs exactly
// these; CI does so in both `ATHENA_THREADS` legs).
// ---------------------------------------------------------------------

use athena_fhe::bfv::BfvCiphertext;
use athena_fhe::extract::mod_switch_rlwe;
use athena_fhe::fbs::fbs_apply;
use athena_math::bsgs::lincomb_by_terms;
use athena_math::poly::{Domain, Poly};
use athena_math::prime::ntt_primes;
use athena_math::rns::RnsPoly;

/// The 12-limb `t = 65537` set of the `cnn_t65537` benchmark workload.
fn paper_t_params() -> BfvParams {
    BfvParams {
        q_primes: ntt_primes(50, 128, 12),
        t: 65537,
        ..BfvParams::test_small()
    }
}

/// 64-bit FNV-1a of every limb (little-endian words), parts in order.
fn fnv1a_limbs(ct: &BfvCiphertext) -> Vec<u64> {
    ct.parts()
        .iter()
        .flat_map(|p| p.limbs())
        .map(|limb| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &v in limb.values() {
                for b in v.to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            h
        })
        .collect()
}

/// One `fbs_apply` under sampler seed 555 (the seed of the unit test
/// `homomorphic_fbs_computes_relu_with_remap`): keys, then one encryption
/// of the slots `(521·i + 7) mod t`, then the ReLU-remap LUT
/// `x ↦ round(ReLU(x)/4)`. Decrypts correctly, then hashes the output.
fn fbs_golden(params: BfvParams) -> Vec<u64> {
    let ctx = BfvContext::new(params);
    let mut sampler = Sampler::from_seed(555);
    let sk = SecretKey::generate(&ctx, &mut sampler);
    let rlk = RelinKey::generate(&ctx, &sk, &mut sampler);
    let ev = BfvEvaluator::new(&ctx);
    let t = ctx.t();
    let lut = Lut::from_signed_fn(t, |x| if x > 0 { (x + 2) / 4 } else { 0 });
    let inputs: Vec<u64> = (0..ctx.n() as u64).map(|i| (i * 521 + 7) % t).collect();
    let ct = ev.encrypt_sk(&ctx.encoder().encode(&inputs), &sk, &mut sampler);
    let (out, _) = fbs_apply(&ctx, &ct, &lut, &rlk);
    let got = ctx.encoder().decode(&ev.decrypt(&out, &sk));
    let want: Vec<u64> = inputs.iter().map(|&x| lut.get(x)).collect();
    assert_eq!(got, want);
    assert_eq!(out.domain(), Domain::Coeff);
    fnv1a_limbs(&out)
}

// Goldens: recorded by running `fbs_golden` above, verbatim, at the
// commit that made Alg. 2's outer sum a balanced tree (leaf constants
// `c_{g·bs}` as plaintext adds, `X^{2^j}` products instead of one giant
// power per block), at `ATHENA_THREADS` unset and `=4` (identical). That
// schedule multiplies different ciphertexts than the one before it, so
// the bits moved on purpose; what pins its values is
// `kernel_fbs_matches_lut_on_every_residue` below. Every limb of the
// output ciphertext must still hash to the same value: the request path
// is bit-identical run to run, not approximately right.

#[test]
fn kernel_golden_fbs_test_small() {
    assert_eq!(
        fbs_golden(BfvParams::test_small()),
        [
            0xf4d1a0b956657939,
            0x8e74a3b7e5227bcf,
            0xa880d90e9b2b0904,
            0x36453fc870553592,
            0xb5583dca53a1d9ad,
            0xbd0f5266b13744d1,
            0xb1efe1fc0234d53a,
            0xf3aa22e11b51a462,
            0xbfda2d0839ce28e6,
            0xdebe562e8959b890,
        ]
    );
}

#[test]
fn kernel_golden_fbs_paper_t_12_limbs() {
    assert_eq!(
        fbs_golden(paper_t_params()),
        [
            0xa5d4be6b8e5ca687,
            0x32526ded09857929,
            0xf0fe5b070c0fad0f,
            0x1254e0842bc60a32,
            0x9e26fcce4d1c7a41,
            0x346fbe0a5a4e228e,
            0xef26da47d2139463,
            0x360c178233d012f8,
            0xf9aa698d8a96967d,
            0x09a524a4d51ed661,
            0x327cae81a36130dc,
            0x1d5c9f18c7112b9d,
            0x7efe00ad34f513ae,
            0x57a8d2234e495ee7,
            0xfb20b4ebb34b666b,
            0xbad57d28a60d6dc4,
            0x170c98960fc43b32,
            0x3829cab2e7cb50ca,
            0x9ec8f2a0f0caca27,
            0x15b9917d5fc69def,
            0xf9c01b546822143f,
            0x3800cfef4b99ebe5,
            0x47c9cc722c519114,
            0x591aadf5fe99f276,
        ]
    );
}

/// The ciphertext zoo of the CMult / mod-switch differentials: fresh,
/// squared four times (noise all over the residues), a trivial
/// encryption and the all-zero ciphertext.
fn ciphertext_zoo(f: &Fixture) -> Vec<(&'static str, BfvCiphertext)> {
    let ev = BfvEvaluator::new(&f.ctx);
    let mut rng = Prng::seed_from_u64(0x2A);
    let mut s = Sampler::from_seed(rng.next_u64());
    let m = f.ctx.encoder().encode(&slot_values(&mut rng));
    let fresh = ev.encrypt_sk(&m, &f.sk, &mut s);
    let mut deep = fresh.clone();
    for _ in 0..4 {
        deep = ev.mul(&deep, &deep, &f.rlk);
    }
    vec![
        ("fresh", fresh),
        ("squared four times", deep),
        ("trivial", BfvCiphertext::trivial(&f.ctx, &m)),
        ("all-zero", BfvCiphertext::zero(&f.ctx)),
    ]
}

#[test]
fn kernel_mul_no_relin_matches_its_reference_body() {
    let f = fixture();
    let ev = BfvEvaluator::new(&f.ctx);
    let zoo = ciphertext_zoo(f);
    for (na, a) in &zoo {
        for (nb, b) in &zoo {
            let want = ev.mul_no_relin_reference(a, b);
            let (got, big) = ev.mul_no_relin_counted(a, b);
            assert_eq!(got.parts(), want.parts(), "{na} × {nb}");
            assert_eq!(big, 0, "{na} × {nb}: guard band fired");
            // Eval-resident operands are brought down lazily.
            let got_eval = ev.mul_no_relin(&a.to_eval(&f.ctx), &b.to_eval(&f.ctx));
            assert_eq!(got_eval.parts(), want.parts(), "{na} × {nb} (Eval)");
        }
    }
}

#[test]
fn kernel_mod_switch_matches_its_reference_body() {
    let f = fixture();
    let qb = f.ctx.q_basis();
    for (name, ct) in ciphertext_zoo(f) {
        for input in [ct.to_coeff(&f.ctx), ct.to_eval(&f.ctx)] {
            // Every limb is a word-sized target; t is not a limb and
            // stays on the reference path.
            for target in qb.moduli().into_iter().chain([f.ctx.t()]) {
                let got = mod_switch_rlwe(&f.ctx, &input, target);
                let coeff = input.to_coeff(&f.ctx);
                let b = qb.scale_round_reference(&coeff.parts()[0], target, target);
                let a = qb.scale_round_reference(&coeff.parts()[1], target, target);
                assert_eq!((got.b, got.a), (b, a), "{name} → {target}");
            }
        }
    }
}

/// A seeded `test_small` CMult chain: 36 tensor products, 1280 coefficient
/// conversions each (4 lifted parts + 3 × 2 scale-down conversions, 128
/// coefficients apiece) ≈ 46 k conversions, none of which may enter the
/// guard band — a band that fires here is too wide.
#[test]
fn kernel_cmult_chain_never_takes_the_big_integer_route() {
    let f = fixture();
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let mut rng = Prng::seed_from_u64(0x2B);
    let mut s = Sampler::from_seed(rng.next_u64());
    let mut big_total = 0;
    for _ in 0..6 {
        let mut acc = ev.encrypt_sk(&enc.encode(&slot_values(&mut rng)), &f.sk, &mut s);
        for _ in 0..6 {
            let other = ev.encrypt_sk(&enc.encode(&slot_values(&mut rng)), &f.sk, &mut s);
            let (tensored, big) = ev.mul_no_relin_counted(&acc, &other);
            big_total += big;
            acc = ev.relinearize(&tensored, &f.rlk);
        }
    }
    assert_eq!(big_total, 0);
}

/// Coefficients planted inside the lift's guard band — the centred
/// extremes `±⌊Q/2⌋` and their neighbours — must each take the
/// big-integer route (and only they), and the product must still equal the
/// reference word for word.
#[test]
fn kernel_cmult_guard_band_coefficients_fall_back_and_still_match() {
    let f = fixture();
    let ev = BfvEvaluator::new(&f.ctx);
    let qb = f.ctx.q_basis();
    let mut rng = Prng::seed_from_u64(0x2C);
    let mut s = Sampler::from_seed(rng.next_u64());
    let fresh = ev.encrypt_sk(
        &f.ctx.encoder().encode(&slot_values(&mut rng)),
        &f.sk,
        &mut s,
    );
    let half = qb.product().shr(1); // ⌊Q/2⌋: the largest centred value
    let planted = [
        half.clone(),
        half.add_u64(1), // −⌊Q/2⌋
        half.sub(&7u64.into()),
        half.add_u64(1_000_000),
    ];
    let mut coeffs = qb.poly_to_ubig(&fresh.parts()[0]);
    for (slot, v) in planted.iter().enumerate() {
        coeffs[17 * slot + 3] = v.clone();
    }
    let crafted =
        BfvCiphertext::from_parts(vec![qb.poly_from_ubig(&coeffs), fresh.parts()[1].clone()]);
    let (got, big) = ev.mul_no_relin_counted(&crafted, &fresh);
    assert_eq!(big, planted.len());
    assert_eq!(
        got.parts(),
        ev.mul_no_relin_reference(&crafted, &fresh).parts()
    );
}

/// FBS against the plain LUT over **all** of `Z_257` (three ciphertexts of
/// 128 slots), for a ReLU-remap, a sign and a constant LUT, and two
/// monomial LUTs that reach the sparse corners of the outer tree: `x^255 + 3`
/// (one non-constant leaf under constant subtrees) and `x^240` (the top
/// leaf is its lone boundary coefficient, an SMult of `X`).
#[test]
fn kernel_fbs_matches_lut_on_every_residue() {
    let f = fixture();
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let t = f.ctx.t();
    let mut s = Sampler::from_seed(0x2D);
    let luts = [
        Lut::from_signed_fn(t, |x| if x > 0 { (x + 2) / 4 } else { 0 }),
        Lut::from_signed_fn(t, |x| x.signum()),
        Lut::from_fn(t, |_| 42),
        Lut::from_fn(t, |k| (Modulus::new(t).pow(k, t - 2) + 3) % t),
        Lut::from_fn(t, |k| Modulus::new(t).pow(k, t - 17)),
    ];
    for (li, lut) in luts.iter().enumerate() {
        for base in [0u64, 128, 256] {
            let inputs: Vec<u64> = (0..128).map(|i| (base + i) % t).collect();
            let ct = ev.encrypt_sk(&enc.encode(&inputs), &f.sk, &mut s);
            let (out, _) = fbs_apply(&f.ctx, &ct, lut, &f.rlk);
            let got = enc.decode(&ev.decrypt(&out, &f.sk));
            let want: Vec<u64> = inputs.iter().map(|&x| lut.get(x)).collect();
            assert_eq!(got, want, "LUT {li}, residues {base}..");
        }
    }
}

/// The in-place MAC against the per-term `mul_scalar`/`add` chain it
/// replaces, on one block with zero coefficients in it. At 50-bit limbs a
/// whole block fits one `u128` lane; at the production 60 bits a lane
/// holds 255 products, so the 300-term block below crosses a mid-block
/// reduction (this runs under the test profile's overflow checks, which
/// are the guard on that headroom rule).
#[test]
fn kernel_mac_matches_the_per_term_chain() {
    for (bits, limbs) in [(50u32, 5usize), (60, 3)] {
        let ctx = BfvContext::new(BfvParams {
            q_primes: ntt_primes(bits, 128, limbs),
            ..BfvParams::test_small()
        });
        let ev = BfvEvaluator::new(&ctx);
        let mut rng = Prng::seed_from_u64(0x2E + bits as u64);
        let random_ct = |rng: &mut Prng, domain| {
            let parts = (0..2).map(|_| {
                let limbs = ctx.q_basis().moduli().into_iter().map(|q| {
                    Poly::from_values((0..128).map(|_| rng.next_below(q)).collect(), domain)
                });
                RnsPoly::from_limbs(limbs.collect())
            });
            BfvCiphertext::from_parts(parts.collect())
        };
        for domain in [Domain::Coeff, Domain::Eval] {
            let cts: Vec<BfvCiphertext> = (0..300).map(|_| random_ct(&mut rng, domain)).collect();
            let mut cs: Vec<u64> = (0..300).map(|_| 1 + rng.next_below(256)).collect();
            for hole in [0usize, 1, 77, 254, 255, 299] {
                cs[hole] = 0;
            }
            let want =
                lincomb_by_terms(&cts, &cs, |ct, c| ev.mul_scalar(ct, c), |a, b| ev.add(a, b))
                    .expect("non-zero terms");
            let got = ev
                .linear_combination(cts.iter().zip(cs.iter().copied()))
                .expect("non-zero terms");
            assert_eq!(got.parts(), want.parts(), "{bits}-bit limbs, {domain:?}");
            assert_eq!(got.domain(), domain);
        }
        assert!(ev
            .linear_combination([(&random_ct(&mut rng, Domain::Coeff), 0)])
            .is_none());
    }
}

/// Residue polynomials over every limb of `ctx`: uniformly random, all
/// zero and all `q_j − 1`, in the given domain.
fn residue_zoo(ctx: &BfvContext, rng: &mut Prng, domain: Domain) -> Vec<RnsPoly> {
    let (moduli, n) = (ctx.q_basis().moduli(), ctx.n());
    let make = |f: &mut dyn FnMut(u64) -> u64| {
        let limbs = moduli
            .iter()
            .map(|&q| Poly::from_values((0..n).map(|_| f(q)).collect(), domain));
        RnsPoly::from_limbs(limbs.collect())
    };
    vec![
        make(&mut |q| rng.next_below(q)),
        make(&mut |q| rng.next_below(q)),
        make(&mut |_| 0),
        make(&mut |q| q - 1),
    ]
}

/// A 32-limb basis of 62-bit primes (the `Modulus` ceiling) at `N = 64`:
/// a `u128` lane holds only 15 such products, and 32 of them overflow it,
/// so the key-switch MAC must fold its lanes inside every inner product.
fn wide_limb_params() -> BfvParams {
    BfvParams {
        n: 64,
        q_primes: ntt_primes(62, 64, 32),
        ..BfvParams::test_small()
    }
}

#[test]
fn kernel_apply_digits_matches_the_per_term_mac() {
    for params in [BfvParams::test_small(), wide_limb_params()] {
        let ctx = BfvContext::new(params);
        let mut sampler = Sampler::from_seed(0x50);
        let sk = SecretKey::generate(&ctx, &mut sampler);
        let gk = GaloisKeys::generate(&ctx, &sk, &[3], &mut sampler);
        let key = gk.key(3).expect("generated");
        let (k, moduli) = (ctx.q_basis().len(), ctx.q_basis().moduli());
        let mut rng = Prng::seed_from_u64(0x51);
        let zoo = residue_zoo(&ctx, &mut rng, Domain::Eval);
        let decomposed = ctx.decompose_lift(&residue_zoo(&ctx, &mut rng, Domain::Coeff)[0]);
        // Each digit set: the zoo rotated, every digit all `q_j − 1` (the
        // largest products), and the lift of a real polynomial.
        let sets = (0..zoo.len())
            .map(|r| {
                (0..k)
                    .map(|i| zoo[(i + r) % zoo.len()].clone())
                    .collect::<Vec<_>>()
            })
            .chain([vec![zoo[3].clone(); k], decomposed]);
        for (s, digits) in sets.enumerate() {
            let (p0, p1) = key.apply_digits(&ctx, &digits);
            for (part, got) in [(0, &p0), (1, &p1)] {
                assert_eq!(got.domain(), Domain::Eval);
                for (j, &q) in moduli.iter().enumerate() {
                    let want: Vec<u64> = (0..ctx.n())
                        .map(|c| {
                            let terms = digits.iter().zip(key.pairs()).map(|(d, pair)| {
                                let kp = if part == 0 { &pair.0 } else { &pair.1 };
                                let x = d.limbs()[j].values()[c] as u128;
                                x * kp.limbs()[j].values()[c] as u128 % q as u128
                            });
                            terms.fold(0u128, |acc, t| (acc + t) % q as u128) as u64
                        })
                        .collect();
                    assert_eq!(
                        got.limbs()[j].values(),
                        &want[..],
                        "set {s}, part {part}, limb {j}"
                    );
                }
            }
        }
    }
}

#[test]
fn kernel_decompose_lift_matches_the_centred_lift() {
    // Primes of one size, and mixed sizes where q_i/2 exceeds a later q_j
    // (the lift must reduce there).
    let mixed = vec![
        ntt_primes(50, 128, 1)[0],
        ntt_primes(30, 128, 1)[0],
        ntt_primes(40, 128, 1)[0],
    ];
    for primes in [BfvParams::test_small().q_primes, mixed] {
        let ctx = BfvContext::new(BfvParams {
            q_primes: primes,
            ..BfvParams::test_small()
        });
        let moduli = ctx.q_basis().moduli();
        let mut rng = Prng::seed_from_u64(0x52);
        for d in residue_zoo(&ctx, &mut rng, Domain::Coeff) {
            let digits = ctx.decompose_lift(&d);
            assert_eq!(digits.len(), moduli.len());
            for (i, digit) in digits.iter().enumerate() {
                let qi = moduli[i] as i128;
                let back = ctx.q_basis().poly_to_coeff(digit);
                for (j, &qj) in moduli.iter().enumerate() {
                    let want: Vec<u64> = (d.limbs()[i].values().iter())
                        .map(|&v| {
                            let c = if v as i128 > qi / 2 {
                                v as i128 - qi
                            } else {
                                v as i128
                            };
                            c.rem_euclid(qj as i128) as u64
                        })
                        .collect();
                    assert_eq!(back.limbs()[j].values(), &want[..], "digit {i}, limb {j}");
                }
            }
        }
    }
}

#[test]
fn kernel_lwe_switch_matches_the_per_term_mac() {
    // test_small's base 2^4 at a 50-bit prime, and one base-2^61 digit
    // per word at a 61-bit prime: a u128 lane holds only 63 such products
    // and 512 of them overflow it, so the switch must fold mid-way.
    for (bits, base_log, dim) in [(50u32, 4u32, 128usize), (61, 61, 512)] {
        let q = ntt_primes(bits, 64, 1)[0];
        let mut sampler = Sampler::from_seed(0x53);
        let big = LweSecret::generate(dim, q, &mut sampler);
        let small = LweSecret::generate(32, q, &mut sampler);
        let ksk = LweKeySwitchKey::generate(&big, &small, base_log, &mut sampler);
        let mut rng = Prng::seed_from_u64(0x54);
        let mask = (1u64 << base_log) - 1;
        let random: Vec<u64> = (0..dim).map(|_| rng.next_below(q)).collect();
        for (a, b) in [
            (random, rng.next_below(q)),
            (vec![q - 1; dim], q - 1),
            (vec![0; dim], 0),
        ] {
            let ct = LweCiphertext::from_parts(a.clone(), b, q);
            let (mut want_a, mut want_b) = (vec![0u128; 32], b as u128);
            for (&aj, keys) in a.iter().zip(ksk.keys()) {
                for (d, key) in keys.iter().enumerate() {
                    let digit = ((aj >> (d as u32 * base_log)) & mask) as u128;
                    for (acc, &ka) in want_a.iter_mut().zip(key.a()) {
                        *acc = (*acc + digit * ka as u128 % q as u128) % q as u128;
                    }
                    want_b = (want_b + digit * key.b() as u128 % q as u128) % q as u128;
                }
            }
            let got = ksk.switch(&ct);
            let want_a: Vec<u64> = want_a.into_iter().map(|v| v as u64).collect();
            assert_eq!(
                (got.a(), got.b()),
                (&want_a[..], want_b as u64),
                "{bits}-bit q, base 2^{base_log}"
            );
        }
    }
}
