//! Domain-representation invariants: rotation chains stay NTT-resident,
//! lazy Coeff conversion happens only at the forced boundaries, and the
//! `op-stats` counters prove the NTT budget of a key-switched rotation.
//! Each `ntt_stats::measure` counts only its own call tree, so the tests
//! run concurrently.

use athena_fhe::bfv::{BfvContext, BfvEvaluator, GaloisKeys, SecretKey};
use athena_fhe::params::BfvParams;
use athena_math::poly::Domain;
use athena_math::sampler::Sampler;

struct Fx {
    ctx: BfvContext,
    sk: SecretKey,
    sampler: Sampler,
}

fn setup() -> Fx {
    let ctx = BfvContext::new(BfvParams::test_small());
    let mut sampler = Sampler::from_seed(77_001);
    let sk = SecretKey::generate(&ctx, &mut sampler);
    Fx { ctx, sk, sampler }
}

fn rotation_keys(f: &mut Fx, rotations: &[usize]) -> GaloisKeys {
    let enc = f.ctx.encoder();
    let mut els: Vec<usize> = rotations
        .iter()
        .map(|&k| enc.galois_for_rotation(k))
        .collect();
    els.sort_unstable();
    els.dedup();
    GaloisKeys::generate(&f.ctx, &f.sk, &els, &mut f.sampler)
}

/// A rotate→rotate→add chain held in Eval form end-to-end decrypts to
/// exactly the same plaintext as the eager variant that converts back to
/// coefficient form after every operation (the conversions are exact, so
/// even the embedded noise agrees).
#[test]
fn eval_resident_rotation_chain_matches_eager() {
    let mut f = setup();
    let gk = rotation_keys(&mut f, &[1, 2]);
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let t = f.ctx.t();
    let vals: Vec<u64> = (0..f.ctx.n() as u64).map(|i| (i * 11 + 3) % t).collect();
    let ct = ev.encrypt_sk(&enc.encode(&vals), &f.sk, &mut f.sampler);

    // Resident chain: every intermediate stays in Eval form.
    let r1 = ev.rotate_rows(&ct, 1, &gk);
    assert_eq!(
        r1.domain(),
        Domain::Eval,
        "rotation output is Eval-resident"
    );
    let r2 = ev.rotate_rows(&r1, 2, &gk);
    assert_eq!(r2.domain(), Domain::Eval);
    let resident = ev.add(&r1, &r2);
    assert_eq!(resident.domain(), Domain::Eval);

    // Eager chain: identical operations, forced down to Coeff at each step.
    let e1 = ev.rotate_rows(&ct, 1, &gk).to_coeff(&f.ctx);
    let e2 = ev.rotate_rows(&e1, 2, &gk).to_coeff(&f.ctx);
    let eager = ev.add(&e1, &e2);

    let got = ev.decrypt(&resident, &f.sk);
    assert_eq!(got, ev.decrypt(&eager, &f.sk));
    // And the plaintext is the expected rot¹(v) + rot³(v).
    let want: Vec<u64> = {
        let a = enc.rotate_slots(&vals, 1);
        let b = enc.rotate_slots(&vals, 3);
        a.iter().zip(&b).map(|(&x, &y)| (x + y) % t).collect()
    };
    assert_eq!(enc.decode(&got), want);
}

/// Domain bookkeeping across the forced-Coeff boundaries: CMult accepts
/// Eval operands and produces Coeff, relinearization preserves the input's
/// domain, and decryption works from either form.
#[test]
fn lazy_boundaries_accept_eval_operands() {
    let mut f = setup();
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let rlk = athena_fhe::bfv::RelinKey::generate(&f.ctx, &f.sk, &mut f.sampler);
    let t = f.ctx.t();
    let vals: Vec<u64> = (0..f.ctx.n() as u64).map(|i| (i + 5) % t).collect();
    let ct = ev.encrypt_sk(&enc.encode(&vals), &f.sk, &mut f.sampler);
    let ct_eval = ct.to_eval(&f.ctx);
    assert_eq!(ct_eval.domain(), Domain::Eval);

    let prod = ev.mul(&ct_eval, &ct_eval, &rlk);
    assert_eq!(prod.domain(), Domain::Coeff, "tensor route lands in Coeff");
    let want: Vec<u64> = vals.iter().map(|&x| x * x % t).collect();
    assert_eq!(enc.decode(&ev.decrypt(&prod, &f.sk)), want);
    // Decrypting the Eval form directly matches the Coeff form.
    assert_eq!(ev.decrypt(&ct_eval, &f.sk), ev.decrypt(&ct, &f.sk));
}

/// PMult and plaintext addition follow the ciphertext's domain, so slot
/// arithmetic is identical whichever form the operand is resident in.
#[test]
fn pmult_and_add_plain_are_domain_preserving() {
    let mut f = setup();
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let t = f.ctx.t();
    let vals: Vec<u64> = (0..f.ctx.n() as u64).map(|i| (3 * i) % t).collect();
    let m: Vec<u64> = (0..f.ctx.n() as u64).map(|i| (i + 9) % t).collect();
    let ct = ev.encrypt_sk(&enc.encode(&vals), &f.sk, &mut f.sampler);
    let ct_eval = ct.to_eval(&f.ctx);

    let p_coeff = ev.mul_plain(&ct, &enc.encode(&m));
    let p_eval = ev.mul_plain(&ct_eval, &enc.encode(&m));
    assert_eq!(p_coeff.domain(), Domain::Coeff);
    assert_eq!(p_eval.domain(), Domain::Eval);
    assert_eq!(ev.decrypt(&p_coeff, &f.sk), ev.decrypt(&p_eval, &f.sk));

    let s_coeff = ev.add_plain(&ct, &enc.encode(&m));
    let s_eval = ev.add_plain(&ct_eval, &enc.encode(&m));
    assert_eq!(s_eval.domain(), Domain::Eval);
    assert_eq!(ev.decrypt(&s_coeff, &f.sk), ev.decrypt(&s_eval, &f.sk));
}

/// The headline count: one `rotate_rows` on an Eval-resident ciphertext
/// performs **zero forward NTTs on the ciphertext body**. The only forward
/// transforms are the k² digit lifts inside the key switch, and the only
/// inverse transforms are the k limbs of `c1∘g` coming down for digit
/// decomposition — for the pre-refactor Coeff-resident path this operation
/// cost 4k² forward + 2k² inverse (100 + 50 at k = 5; see
/// `reports/domain_ntt_baseline.txt`).
#[cfg(feature = "op-stats")]
#[test]
fn eval_rotation_does_no_body_forward_ntts() {
    use athena_math::stats::ntt_stats;
    let mut f = setup();
    let gk = rotation_keys(&mut f, &[1]);
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let vals: Vec<u64> = (0..f.ctx.n() as u64).map(|i| i % f.ctx.t()).collect();
    let ct = ev
        .encrypt_sk(&enc.encode(&vals), &f.sk, &mut f.sampler)
        .to_eval(&f.ctx);
    let k = f.ctx.q_basis().len();

    let (rot, counts) = ntt_stats::measure(|| ev.rotate_rows(&ct, 1, &gk));
    assert_eq!(
        counts.forward,
        (k * k) as u64,
        "only the k² digit lifts may transform forward"
    );
    assert_eq!(
        counts.inverse, k as u64,
        "only c1∘g comes down for decomposition"
    );
    assert_eq!(rot.domain(), Domain::Eval);
    assert_eq!(
        enc.decode(&ev.decrypt(&rot, &f.sk)),
        enc.rotate_slots(&vals, 1)
    );
}

/// A second rotation chained onto the first costs exactly the same budget —
/// residency means no re-conversion between hops.
#[cfg(feature = "op-stats")]
#[test]
fn chained_rotations_pay_no_conversion_between_hops() {
    use athena_math::stats::ntt_stats;
    let mut f = setup();
    let gk = rotation_keys(&mut f, &[1, 2]);
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let vals: Vec<u64> = (0..f.ctx.n() as u64).map(|i| i % f.ctx.t()).collect();
    let ct = ev
        .encrypt_sk(&enc.encode(&vals), &f.sk, &mut f.sampler)
        .to_eval(&f.ctx);
    let k = (f.ctx.q_basis().len()) as u64;

    let ((), counts) = ntt_stats::measure(|| {
        let r1 = ev.rotate_rows(&ct, 1, &gk);
        let r2 = ev.rotate_rows(&r1, 2, &gk);
        std::hint::black_box(r2);
    });
    assert_eq!(counts.forward, 2 * k * k);
    assert_eq!(counts.inverse, 2 * k);
}
