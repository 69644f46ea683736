//! Property-style tests of the FHE layer: homomorphism laws of BFV,
//! encoder/LUT/extraction invariants, all on random inputs.
//!
//! Originally written with `proptest`; ported to plain `#[test]`s driven by
//! the in-repo PRNG (fixed seeds, N random cases each) so the suite runs
//! with zero external dependencies.

use athena_fhe::bfv::{BfvContext, BfvEvaluator, RelinKey, SecretKey};
use athena_fhe::encoder::SlotEncoder;
use athena_fhe::extract::{mod_switch_to_t, rlwe_secret_as_lwe, sample_extract_all, SmallRlwe};
use athena_fhe::fbs::Lut;
use athena_fhe::lwe::LweSecret;
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
// parent commit 289a151 (per-coefficient `UBig` CRT in the CMult lift and
// scale-down, per-term `mul_scalar`/`add` inner sums, per-call LUT
// interpolation), at `ATHENA_THREADS` unset and `=4` (identical). Every
// limb of the output ciphertext must still hash to the same value: the
// word-sized path is bit-identical, not approximately right.

#[test]
fn kernel_golden_fbs_test_small() {
    assert_eq!(
        fbs_golden(BfvParams::test_small()),
        [
            0x8088f3f21f9ebb28,
            0x52576657316f7755,
            0x4d0a2f7b1dbd1d12,
            0x824403a67633c191,
            0x31f57ac95bced037,
            0x6866b2600587cade,
            0x4ca9629ef4d67c63,
            0x0e4ffe26cd6b41e0,
            0x84401a2b0a2127cc,
            0x75ee1857b1b64c92,
        ]
    );
}

#[test]
fn kernel_golden_fbs_paper_t_12_limbs() {
    assert_eq!(
        fbs_golden(paper_t_params()),
        [
            0xcd425bb8c9daf759,
            0x313cf0fec1e14b18,
            0x1720cf720c201451,
            0x262442a0abfd85ef,
            0x2f731bffeeacd9d6,
            0x5a44397c2bfb01ab,
            0x233cbcaa612f49fa,
            0xa78d0d0e54b73242,
            0x7d32624df5bf1e9d,
            0xf71b64239e71a6db,
            0x721b330992335e9a,
            0x0814148d15f50055,
            0x99a5ff3f0179953d,
            0x128476d851634692,
            0x071fdd1b63cb0336,
            0xde884c4a62f9d224,
            0xfa4d3c3b0ba9c5a7,
            0x036ef7a09d1f504a,
            0x78fd94082586fdd9,
            0x59019b0900dc7edc,
            0x33f7ac2c613cc6da,
            0x02bbc49e13f8871d,
            0xb14c9309207154b6,
            0xf127b80fcec8d633,
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
/// 128 slots), for a ReLU-remap, a sign and a constant LUT.
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
