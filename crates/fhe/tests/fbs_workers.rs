//! The forked FBS is the one-worker FBS: `fbs_apply` at the `cnn_t65537`
//! benchmark's parameters (`t = 65537`, twelve 50-bit limbs, N = 128) —
//! the size at which Alg. 2's schedule forks — run at one and at two
//! workers gives the same ciphertext bits, the same homomorphic-operation
//! counts and the same number of limb buffers.
//!
//! The worker count is set with the process-wide `par::set_threads`, which
//! is why this is its own test binary with a single test.

use athena_fhe::bfv::{BfvCiphertext, BfvContext, BfvEvaluator, RelinKey, SecretKey};
use athena_fhe::fbs::{fbs_apply, Lut};
use athena_fhe::params::BfvParams;
use athena_math::par;
use athena_math::prime::ntt_primes;
use athena_math::sampler::Sampler;
use athena_math::stats::alloc_stats::AllocCounts;
use athena_math::stats::lift_stats::LiftCounts;
use athena_math::stats::measure;
use athena_math::stats::op_stats::HomOpCounts;

/// Every word of every limb of every part, in order.
fn bits(ct: &BfvCiphertext) -> Vec<u64> {
    let limbs = ct.parts().iter().flat_map(|p| p.limbs());
    limbs.flat_map(|l| l.values().iter().copied()).collect()
}

#[test]
fn forked_fbs_is_bit_identical_and_counts_the_same() {
    let ctx = BfvContext::new(BfvParams {
        q_primes: ntt_primes(50, 128, 12),
        t: 65537,
        ..BfvParams::test_small()
    });
    let mut sampler = Sampler::from_seed(38);
    let sk = SecretKey::generate(&ctx, &mut sampler);
    let rlk = RelinKey::generate(&ctx, &sk, &mut sampler);
    let ev = BfvEvaluator::new(&ctx);
    let t = ctx.t();
    let lut = Lut::from_signed_fn(t, |x| x.clamp(-128, 127) / 2);
    let inputs: Vec<u64> = (0..ctx.n() as u64).map(|i| (i * 4099 + 3) % t).collect();
    let ct = ev.encrypt_sk(&ctx.encoder().encode(&inputs), &sk, &mut sampler);
    lut.coeffs();
    let runs: Vec<_> = [1, 2]
        .into_iter()
        .map(|workers| {
            par::set_threads(workers);
            let ((out, stats), counts) = measure(|| fbs_apply(&ctx, &ct, &lut, &rlk));
            (
                out,
                stats,
                HomOpCounts::from(counts),
                AllocCounts::from(counts),
                LiftCounts::from(counts),
            )
        })
        .collect();
    par::set_threads(0);
    let (one, two) = (&runs[0], &runs[1]);
    assert!(
        bits(&one.0) == bits(&two.0),
        "the output ciphertexts differ"
    );
    assert_eq!(one.1, two.1, "FbsStats");
    assert_eq!(one.2, two.2, "HomOpCounts");
    assert_eq!(one.3, two.3, "AllocCounts");
    assert_eq!(one.4, two.4, "LiftCounts");
    assert_eq!(one.1.cmult, 518);
    let got = ctx.encoder().decode(&ev.decrypt(&two.0, &sk));
    let want: Vec<u64> = inputs.iter().map(|&x| lut.get(x)).collect();
    assert_eq!(got, want);
}
