//! Property-style tests of the math substrate: ring axioms, NTT/CRT
//! round-trips, big-integer arithmetic against u128 oracles, and the
//! exact-vs-fast base-conversion relation.
//!
//! Originally written with `proptest`; ported to plain `#[test]`s driven by
//! the in-repo PRNG (fixed seeds, N random cases each) so the suite runs
//! with zero external dependencies. Determinism per seed is preserved.

use athena_math::bigint::UBig;
use athena_math::bsgs::{bsgs_polynomial_eval, lincomb_by_terms};
use athena_math::modops::Modulus;
use athena_math::ntt::NttTables;
use athena_math::poly::{Domain, Ring};
use athena_math::prime::ntt_primes;
use athena_math::prng::Prng;
use athena_math::rns::RnsBasis;

const Q: u64 = 12289;
const N: usize = 64;
const CASES: usize = 64;

fn ring() -> Ring {
    Ring::new(Q, N)
}

fn coeffs(rng: &mut Prng) -> Vec<i64> {
    (0..N).map(|_| rng.next_i64_in(-6000, 6000)).collect()
}

#[test]
fn modulus_mul_matches_u128() {
    let mut rng = Prng::seed_from_u64(0x11);
    let m = Modulus::new(Q);
    for _ in 0..CASES {
        let a = rng.next_below(Q);
        let b = rng.next_below(Q);
        assert_eq!(m.mul(a, b), ((a as u128 * b as u128) % Q as u128) as u64);
    }
}

#[test]
fn modulus_inverse_is_inverse() {
    let mut rng = Prng::seed_from_u64(0x12);
    let m = Modulus::new(Q);
    for _ in 0..CASES {
        let a = 1 + rng.next_below(Q - 1);
        let inv = m.inv(a).expect("prime modulus");
        assert_eq!(m.mul(a, inv), 1, "a={a}");
    }
}

#[test]
fn shoup_mul_matches_barrett() {
    let mut rng = Prng::seed_from_u64(0x13);
    let m = Modulus::new(Q);
    for _ in 0..CASES {
        let a = rng.next_below(Q);
        let w = rng.next_below(Q);
        assert_eq!(m.mul_shoup(a, w, m.shoup(w)), m.mul(a, w), "a={a} w={w}");
    }
}

#[test]
fn ntt_roundtrip() {
    let mut rng = Prng::seed_from_u64(0x14);
    let r = ring();
    for _ in 0..CASES {
        let p = r.from_i64(&coeffs(&mut rng));
        assert_eq!(r.to_coeff(&r.to_eval(&p)), p);
    }
}

#[test]
fn ntt_is_linear() {
    let mut rng = Prng::seed_from_u64(0x15);
    let r = ring();
    for _ in 0..CASES {
        let pa = r.from_i64(&coeffs(&mut rng));
        let pb = r.from_i64(&coeffs(&mut rng));
        let lhs = r.to_eval(&r.add(&pa, &pb));
        let rhs = r.add(&r.to_eval(&pa), &r.to_eval(&pb));
        assert_eq!(lhs, rhs);
    }
}

#[test]
fn ring_mul_commutes_and_distributes() {
    let mut rng = Prng::seed_from_u64(0x16);
    let r = ring();
    for _ in 0..CASES / 2 {
        let pa = r.from_i64(&coeffs(&mut rng));
        let pb = r.from_i64(&coeffs(&mut rng));
        let pc = r.from_i64(&coeffs(&mut rng));
        assert_eq!(r.mul(&pa, &pb), r.mul(&pb, &pa));
        let lhs = r.to_coeff(&r.mul(&pa, &r.add(&pb, &pc)));
        let rhs = r.to_coeff(&r.add(&r.mul(&pa, &pb), &r.mul(&pa, &pc)));
        assert_eq!(lhs, rhs);
    }
}

#[test]
fn automorphism_preserves_products() {
    let mut rng = Prng::seed_from_u64(0x17);
    let r = ring();
    let galois = [3usize, 5, 9, 17, 2 * N - 1];
    for _ in 0..CASES / 2 {
        let k = galois[rng.next_below(galois.len() as u64) as usize];
        let pa = r.from_i64(&coeffs(&mut rng));
        let pb = r.from_i64(&coeffs(&mut rng));
        let lhs = r.automorphism_coeff(&r.to_coeff(&r.mul(&pa, &pb)), k);
        let rhs = r.to_coeff(&r.mul(&r.automorphism_coeff(&pa, k), &r.automorphism_coeff(&pb, k)));
        assert_eq!(lhs, rhs, "k={k}");
    }
}

#[test]
fn ubig_add_mul_match_u128() {
    let mut rng = Prng::seed_from_u64(0x18);
    for _ in 0..CASES {
        let a = ((rng.next_u64() as u128) << 63) | rng.next_u64() as u128 >> 1;
        let a = a % (u128::MAX / 2);
        let b = (rng.next_u64() % (1 << 60)) as u128;
        let ua = UBig::from(a);
        let ub = UBig::from(b);
        assert_eq!(ua.add(&ub).to_u128_lossy(), a + b);
        if a < (1 << 64) {
            assert_eq!(ua.mul(&ub).to_u128_lossy(), a.wrapping_mul(b));
        }
    }
}

#[test]
fn ubig_divrem_reconstructs() {
    let mut rng = Prng::seed_from_u64(0x19);
    for _ in 0..CASES {
        let na = 1 + rng.next_below(5) as usize;
        let nd = 1 + rng.next_below(3) as usize;
        let n = UBig::from_limbs((0..na).map(|_| rng.next_u64()).collect());
        let dd = UBig::from_limbs((0..nd).map(|_| rng.next_u64()).collect());
        if dd.is_zero() {
            continue;
        }
        let (q, r) = n.div_rem(&dd);
        assert!(r < dd);
        assert_eq!(q.mul(&dd).add(&r), n);
    }
}

#[test]
fn crt_roundtrip() {
    let mut rng = Prng::seed_from_u64(0x1A);
    let basis = RnsBasis::new(&ntt_primes(40, 16, 3), 16);
    for _ in 0..CASES {
        let reduced: Vec<u64> = basis.moduli().iter().map(|&q| rng.next_u64() % q).collect();
        let x = basis.crt_reconstruct(&reduced);
        assert_eq!(basis.crt_decompose(&x), reduced);
    }
}

#[test]
fn fast_bconv_within_alpha_q() {
    let mut rng = Prng::seed_from_u64(0x1B);
    let src = RnsBasis::new(&ntt_primes(40, 16, 3), 16);
    let dst = RnsBasis::new(&ntt_primes(39, 16, 2), 16);
    for _ in 0..CASES / 4 {
        let v: Vec<i64> = (0..16)
            .map(|_| rng.next_i64_in(-100_000, 100_000))
            .collect();
        let p = src.poly_from_i64(&v);
        let fast = src.fast_base_convert(&p, &dst);
        let exact = src.exact_base_convert(&p, &dst);
        for (j, r) in dst.rings().iter().enumerate() {
            let pj = r.modulus();
            let qmod = src.product().rem_u64(pj.value());
            for c in 0..16 {
                let f = fast.limbs()[j].values()[c];
                let e = exact.limbs()[j].values()[c];
                let mut ok = false;
                let mut cand = e;
                for _ in 0..src.len() + 1 {
                    if cand == f {
                        ok = true;
                        break;
                    }
                    cand = pj.add(cand, qmod);
                }
                assert!(ok, "limb {j} coeff {c}: fast not within alpha*Q of exact");
            }
        }
    }
}

#[test]
fn bsgs_matches_horner() {
    let mut rng = Prng::seed_from_u64(0x1C);
    let m = Modulus::new(Q);
    for _ in 0..CASES {
        let deg = 1 + rng.next_below(39) as usize;
        let x = rng.next_below(Q);
        let seed = rng.next_u64();
        let coeffs: Vec<u64> = (0..=deg as u64)
            .map(|i| (i.wrapping_mul(seed | 1)) % Q)
            .collect();
        let got = bsgs_polynomial_eval(
            &coeffs,
            &x,
            &mut |a: &u64, b: &u64| m.mul(*a, *b),
            &mut |xs: &[u64], cs: &[u64]| {
                lincomb_by_terms(xs, cs, |a, c| m.mul(*a, c % Q), |a, b| m.add(*a, *b))
            },
            &mut |a: &u64, b: &u64| m.add(*a, *b),
        );
        // Horner evaluation, then strip the constant term (BSGS evaluates
        // only the non-constant part).
        let mut acc = 0u64;
        for &c in coeffs.iter().rev() {
            acc = m.mul_add(acc, x, c);
        }
        let nonconst = m.sub(acc, coeffs[0] % Q);
        assert_eq!(got.unwrap_or(0), nonconst, "deg={deg} x={x}");
    }
}

#[test]
fn negacyclic_identity_xn_is_minus_one() {
    let mut rng = Prng::seed_from_u64(0x1D);
    let r = ring();
    let m = Modulus::new(Q);
    for _ in 0..CASES {
        // X^(N/2) * X^(N/2) = X^N = -1 in the ring.
        let c = rng.next_below(Q);
        let mut half = vec![0i64; N];
        half[N / 2] = c as i64;
        let p = r.from_i64(&half);
        let sq = r.to_coeff(&r.mul(&p, &p));
        assert_eq!(sq.values()[0], m.neg(m.mul(c, c)));
        for i in 1..N {
            assert_eq!(sq.values()[i], 0);
        }
    }
}

#[test]
fn parallel_rns_ops_match_serial() {
    // The RNS limb operations must be bit-identical for any worker count
    // (the par layer reassembles chunks in order; modular arithmetic is
    // exact, so there is no tolerance here).
    use athena_math::par;
    let mut rng = Prng::seed_from_u64(0x1E);
    let basis = RnsBasis::new(&ntt_primes(40, 64, 4), 64);
    let v1: Vec<i64> = (0..64).map(|_| rng.next_i64_in(-50_000, 50_000)).collect();
    let v2: Vec<i64> = (0..64).map(|_| rng.next_i64_in(-50_000, 50_000)).collect();
    let a = basis.poly_from_i64(&v1);
    let b = basis.poly_from_i64(&v2);
    let dst = RnsBasis::new(&ntt_primes(39, 64, 2), 64);

    par::set_threads(1);
    let mul_1 = basis.mul_poly(&a, &b);
    let eval_1 = basis.poly_to_eval(&a);
    let coeff_1 = basis.poly_to_coeff(&eval_1);
    let conv_1 = basis.fast_base_convert(&a, &dst);
    par::set_threads(4);
    let mul_4 = basis.mul_poly(&a, &b);
    let eval_4 = basis.poly_to_eval(&a);
    let coeff_4 = basis.poly_to_coeff(&eval_4);
    let conv_4 = basis.fast_base_convert(&a, &dst);
    par::set_threads(0);

    assert_eq!(mul_1, mul_4);
    assert_eq!(eval_1, eval_4);
    assert_eq!(coeff_1, coeff_4);
    assert_eq!(conv_1, conv_4);
}

#[test]
fn ntt_tables_reject_bad_congruence() {
    // q = 12289 supports 2n | 12288 only up to n = 2048.
    assert!(std::panic::catch_unwind(|| NttTables::new(12289, 4096)).is_err());
    let _ = NttTables::new(12289, 2048);
}

#[test]
fn poly_domain_mismatch_panics() {
    let r = ring();
    let a = r.from_i64(&vec![1; N]);
    let b = r.to_eval(&a);
    assert!(std::panic::catch_unwind(|| {
        let r2 = Ring::new(Q, N);
        r2.add(&a, &b)
    })
    .is_err());
    let _ = r.zero(Domain::Coeff);
}

// ---------------------------------------------------------------------
// Kernel differentials for the word-sized exact base conversion
// (`cargo test -p athena-math --test properties kernel_` runs exactly
// these; CI does so in both `ATHENA_THREADS` legs).
// ---------------------------------------------------------------------

/// The basis shapes the request path converts between, all at `n = 128`:
/// `(name, source primes, target primes)`.
fn conversion_shapes() -> Vec<(&'static str, Vec<u64>, Vec<u64>)> {
    let n = 128;
    let aux = |count| ntt_primes(55, n, count);
    vec![
        ("test_small 5×50 → 6×55", ntt_primes(50, n, 5), aux(6)),
        ("cnn_t65537 12×50 → 12×55", ntt_primes(50, n, 12), aux(12)),
        ("production 12×60 → 14×55", ntt_primes(60, n, 12), aux(14)),
        ("single-limb Q → 2×55", ntt_primes(50, n, 1), aux(2)),
    ]
}

/// How many of `values` (taken mod the `k`-limb product `b`) the guard
/// band of a `k`-limb converter **must** flag, and how many more it
/// **may**: the band is `|x/b − ½| < β` on an estimate that is within
/// `β/2` of the truth (`β = (k² + 3k)·2^-52`), so `|2x − b| < β·b` is
/// surely inside and `|2x − b| > 3β·b` surely outside.
fn band_census(values: &[UBig], b: &UBig, k: usize) -> (usize, usize) {
    let to_f64 = |x: &UBig| x.to_decimal().parse::<f64>().expect("decimal");
    let beta_b = (k * k + 3 * k) as f64 * f64::EPSILON * to_f64(b);
    let (mut sure, mut maybe) = (0, 0);
    for x in values {
        let twice = x.rem(b).shl(1);
        let d = to_f64(&if twice > *b {
            twice.sub(b)
        } else {
            b.sub(&twice)
        });
        sure += usize::from(d < 0.99 * beta_b);
        maybe += usize::from((0.99 * beta_b..=3.01 * beta_b).contains(&d));
    }
    (sure, maybe)
}

/// A source polynomial whose first coefficients are the hostile values —
/// 0, ±1, the centred extremes `⌊B/2⌋` / `⌊B/2⌋ + 1` and values planted
/// around them inside the guard band, all-equal limbs — and the rest
/// uniformly random residues.
fn hostile_poly(src: &RnsBasis, rng: &mut Prng) -> athena_math::rns::RnsPoly {
    let b = src.product();
    let half = b.shr(1);
    let mut hostile: Vec<UBig> = vec![
        UBig::zero(),
        UBig::one(),
        b.sub(&UBig::one()), // −1
        half.clone(),
        half.add_u64(1).rem(b), // −⌊B/2⌋
        half.sub(&UBig::one()),
        half.add_u64(2).rem(b),
        half.add_u64(1 << 20).rem(b),
    ];
    let mut coeffs: Vec<UBig> = (0..src.n())
        .map(|_| {
            let residues: Vec<u64> = src.moduli().iter().map(|&q| rng.next_below(q)).collect();
            src.crt_reconstruct(&residues)
        })
        .collect();
    // All-equal limbs (the value itself when it is below every modulus).
    let same = rng.next_below(1 << 40);
    hostile.push(src.crt_reconstruct(&vec![same; src.len()]));
    coeffs[..hostile.len()].clone_from_slice(&hostile);
    src.poly_from_ubig(&coeffs)
}

#[test]
fn kernel_base_convert_matches_exact_crt() {
    let mut rng = Prng::seed_from_u64(0x31);
    for (name, src_primes, dst_primes) in conversion_shapes() {
        let src = RnsBasis::new(&src_primes, 128);
        let dst = RnsBasis::new(&dst_primes, 128);
        let conv = src.converter_to(&dst_primes);
        let half = src.product().shr(1);
        for round in 0..4 {
            let p = hostile_poly(&src, &mut rng);
            let (got, big) = src.convert_centered(&p, &conv);
            // Oracle 1: the big-integer body the fallback runs.
            assert_eq!(
                got,
                src.convert_centered_reference(&p, conv.dst()),
                "{name}"
            );
            // Oracle 2: `exact_base_convert` (x in [0, B)), centred by hand.
            let exact = src.exact_base_convert(&p, &dst);
            let xs = src.poly_to_ubig(&p);
            for (j, r) in dst.rings().iter().enumerate() {
                let m = r.modulus();
                let b_mod = src.product().rem_u64(m.value());
                for (c, x) in xs.iter().enumerate() {
                    let e = exact.limbs()[j].values()[c];
                    let want = if *x > half { m.sub(e, b_mod) } else { e };
                    assert_eq!(got[j].values()[c], want, "{name}: limb {j} coeff {c}");
                }
            }
            // Exactly the planted in-band coefficients took the fallback.
            let (sure, maybe) = band_census(&xs, src.product(), src.len());
            assert!(
                (sure..=sure + maybe).contains(&big),
                "{name}, round {round}: {big} fallbacks, {sure} sure + {maybe} borderline"
            );
            assert!(big >= 2, "{name}: ±⌊B/2⌋ are always in band");
            if src.len() > 1 {
                assert_eq!((sure, maybe), (5, 0), "{name}: planted values");
            }
        }
    }
}

#[test]
fn kernel_scaled_converter_fuses_both_multiplications() {
    // The BFV scale-down shape: the centred [m·x]_B, each output word
    // times s_j — against the same thing spelled out in big integers.
    let mut rng = Prng::seed_from_u64(0x32);
    for (name, src_primes, dst_primes) in conversion_shapes() {
        let src = RnsBasis::new(&src_primes, 128);
        let m = 65537u64;
        let scale = |c: &Modulus| c.value() - 3;
        let scales: Vec<u64> = dst_primes.iter().map(|&c| c - 3).collect();
        let conv = src.converter_to(&dst_primes).scaled(m, &scales);
        let p = hostile_poly(&src, &mut rng);
        let mut out: Vec<Vec<u64>> = vec![vec![0; 128]; dst_primes.len()];
        let ambiguous = conv.convert_centered(&p.slices(), &mut out);
        let half = src.product().shr(1);
        for (c, x) in src.poly_to_ubig(&p).iter().enumerate() {
            if ambiguous.contains(&c) {
                continue; // the caller's big-integer route owns these
            }
            let u = x.mul_u64(m).rem(src.product());
            for (j, cj) in conv.dst().iter().enumerate() {
                let centred = if u > half {
                    cj.neg(src.product().sub(&u).rem_u64(cj.value()))
                } else {
                    u.rem_u64(cj.value())
                };
                assert_eq!(out[j][c], cj.mul(centred, scale(cj)), "{name}: {j}/{c}");
            }
        }
    }
}

#[test]
fn kernel_scale_round_matches_its_reference_body() {
    let mut rng = Prng::seed_from_u64(0x33);
    for (name, primes, _) in conversion_shapes() {
        let basis = RnsBasis::new(&primes, 128);
        // Plant ties-that-are-not on top of the hostile values: x whose
        // remainder mod Q/q_0 is the centred extreme, so the drop-limb
        // conversion is in band. (`±⌊Q/2⌋` are there already:
        // `⌊Q/2⌋ ≡ ⌊(Q/q_0)/2⌋` because `q_0` is odd.)
        let (rest, _) = basis.product().div_rem_u64(primes[0]);
        let mut xs = basis.poly_to_ubig(&hostile_poly(&basis, &mut rng));
        xs[100] = rest.shr(1).add(&rest.mul_u64(12345)).rem(basis.product());
        xs[101] = rest.shr(1).add_u64(1).add(&rest.mul_u64(primes[0] - 1));
        let p = basis.poly_from_ubig(&xs);
        // Q/q_0 = 1 for the single-limb basis: nothing to convert there.
        let (sure, maybe) = match primes.len() {
            1 => (0, 0),
            k => band_census(&xs, &rest, k - 1),
        };
        assert!(primes.len() == 1 || sure >= 7, "{name}: planted values");
        for threads in [1usize, 4] {
            athena_math::par::set_threads(threads);
            for (i, &target) in primes.iter().enumerate() {
                let (got, big) = basis.scale_round_counted(&p, target, target);
                let want = basis.scale_round_reference(&p, target, target);
                assert_eq!(got, want, "{name}: drop to limb {i}");
                assert_eq!(basis.scale_round(&p, target, target), want);
                if i == 0 {
                    assert!(
                        (sure..=sure + maybe).contains(&big),
                        "{name}: {big} fallbacks, {sure} sure + {maybe} borderline"
                    );
                }
            }
            // Off the word-sized arm: a non-limb target, and num != target.
            for (num, target) in [(257u64, 257u64), (primes[0], 65537)] {
                let (got, big) = basis.scale_round_counted(&p, num, target);
                assert_eq!(got, basis.scale_round_reference(&p, num, target));
                assert_eq!(big, 128, "{name}: reference path counts every coefficient");
            }
        }
        athena_math::par::set_threads(0);
    }
}

#[test]
fn kernel_fast_and_exact_conversions_share_their_inner_products() {
    // fast = exact + α·B with 0 ≤ α ≤ k, through the same tables.
    let mut rng = Prng::seed_from_u64(0x34);
    for (name, src_primes, dst_primes) in conversion_shapes() {
        let src = RnsBasis::new(&src_primes, 128);
        let dst = RnsBasis::new(&dst_primes, 128);
        let p = hostile_poly(&src, &mut rng);
        let fast = src.fast_base_convert(&p, &dst);
        let (exact, _) = src.convert_centered(&p, &src.converter_to(&dst_primes));
        for (j, r) in dst.rings().iter().enumerate() {
            let m = r.modulus();
            let b_mod = src.product().rem_u64(m.value());
            for c in 0..128 {
                let (f, e) = (fast.limbs()[j].values()[c], exact[j].values()[c]);
                let alpha = (0..=src.len() as u64).find(|&a| m.add(e, m.mul(a, b_mod)) == f);
                assert!(alpha.is_some(), "{name}: limb {j} coeff {c}");
            }
        }
    }
}
