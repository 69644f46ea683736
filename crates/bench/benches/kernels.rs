//! Micro-benchmarks of the kernels whose costs drive every evaluation
//! table: NTT, the five framework steps, and the FBS internals (the
//! bottleneck per Table 3 / Fig. 9), measured on real ciphertexts at the
//! reduced parameter set.
//!
//! The NTT and pointwise kernels are timed on a rotating pool of random
//! inputs (`/fresh`) beside the same kernel replaying one input
//! (`/replayed`); only the fresh figure is what a request pays.
//!
//! This is a `std`-only harness (`harness = false`, timed with
//! `std::time::Instant`) so the workspace builds with zero external
//! dependencies. Run with `cargo bench -p athena-bench`.

use std::time::Duration;

use athena_bench::microbench::{run_named, BenchOpts};
use athena_core::encoding::ConvEncoder;
use athena_core::pipeline::{AthenaEngine, PipelineStats};
use athena_fhe::bfv::{BfvEvaluator, RelinKey, SecretKey};
use athena_fhe::extract::{mod_switch_rlwe, sample_extract_all};
use athena_fhe::fbs::{fbs_apply, Lut};
use athena_fhe::params::BfvParams;
use athena_math::poly::{Domain, Poly, Ring};
use athena_math::prng::Prng;
use athena_math::sampler::Sampler;
use athena_nn::tensor::ITensor;

/// Random inputs each kernel rotates through. Ciphertext words are
/// uniform mod `q`; replaying one input lets the branch predictor learn
/// it, so a branchy kernel would look faster than any request sees it.
const POOL: usize = 64;

/// Times `f(i)` twice: on input 0 every call (`replayed`), then on the
/// next pool input each call (`fresh`, the number that counts).
fn replayed_and_fresh(opts: &BenchOpts, name: &str, mut f: impl FnMut(usize)) {
    run_named(opts, &format!("{name}/replayed"), || f(0));
    let mut i = 0;
    run_named(opts, &format!("{name}/fresh"), || {
        i = (i + 1) % POOL;
        f(i)
    });
}

fn bench_ntt(opts: &BenchOpts) {
    for n in [1024usize, 4096] {
        let ring = Ring::new(athena_math::prime::ntt_primes(50, n, 1)[0], n);
        let q = ring.modulus().value();
        let mut rng = Prng::seed_from_u64(n as u64);
        let pool: Vec<Poly> = (0..POOL)
            .map(|_| Poly::from_values((0..n).map(|_| rng.next_below(q)).collect(), Domain::Eval))
            .collect();
        let mut buf = vec![0u64; n];
        replayed_and_fresh(opts, &format!("ntt/forward_{n}"), |i| {
            buf.copy_from_slice(pool[i].values());
            ring.ntt().forward(std::hint::black_box(&mut buf));
        });
        replayed_and_fresh(opts, &format!("ntt/inverse_{n}"), |i| {
            buf.copy_from_slice(pool[i].values());
            ring.ntt().inverse(std::hint::black_box(&mut buf));
        });
        replayed_and_fresh(opts, &format!("ntt/pointwise_mul_{n}"), |i| {
            let b = &pool[(i + POOL / 2) % POOL];
            std::hint::black_box(ring.mul_eval(std::hint::black_box(&pool[i]), b));
        });
    }
}

fn bench_framework_steps(opts: &BenchOpts) {
    let params = BfvParams::test_small();
    let ctx_engine = AthenaEngine::new(params.clone());
    let mut sampler = Sampler::from_seed(1);
    let (secrets, keys) = ctx_engine.keygen(&mut sampler);
    let n = ctx_engine.context().n();
    let t = ctx_engine.context().t();

    // Step 1: conv via one PMult (Table 3's Conv row).
    let enc = ConvEncoder::new(2, 1, [6, 6], 3, n);
    let img = ITensor::from_vec(&[2, 6, 6], (0..72).map(|i| (i % 7) - 3).collect());
    let ker = ITensor::from_vec(&[1, 2, 3, 3], (0..18).map(|i| (i % 5) - 2).collect());
    let positions: Vec<usize> = (0..n).collect();
    let ct = ctx_engine.encrypt_at(&enc.encode_input(&img), &positions, &secrets, &mut sampler);
    let kcoeffs = enc.encode_kernel(&ker);
    run_named(opts, "framework/conv_pmult", || {
        let mut st = PipelineStats::default();
        ctx_engine.linear(std::hint::black_box(&ct), &kcoeffs, &[], &mut st)
    });

    // Step 2: modulus switch.
    let ctx = ctx_engine.context();
    run_named(opts, "framework/mod_switch", || {
        mod_switch_rlwe(ctx, std::hint::black_box(&ct), params.q_primes[0])
    });

    // Step 3: sample extraction of all N coefficients.
    let small = mod_switch_rlwe(ctx, &ct, t);
    run_named(opts, "framework/sample_extract_all", || {
        sample_extract_all(std::hint::black_box(&small))
    });

    // Steps 2+3 fused as the engine runs them (incl. dimension switch).
    run_named(opts, "framework/extract_pipeline", || {
        let mut st = PipelineStats::default();
        ctx_engine.extract_lwes(&ct, &positions[..32], &keys, &mut st)
    });

    // Step 4: packing 32 LWEs.
    let mut st = PipelineStats::default();
    let lwes: Vec<_> = ctx_engine
        .extract_lwes(&ct, &positions[..32], &keys, &mut st)
        .into_iter()
        .map(Some)
        .collect();
    run_named(opts, "framework/pack_32_lwes", || {
        let mut st = PipelineStats::default();
        ctx_engine.pack(std::hint::black_box(&lwes), &keys, &mut st)
    });

    // Step 5: S2C.
    run_named(opts, "framework/s2c", || {
        let mut st = PipelineStats::default();
        ctx_engine.s2c(std::hint::black_box(&ct), &keys, &mut st)
    });
}

fn bench_fbs(opts: &BenchOpts) {
    let ctx = athena_fhe::bfv::BfvContext::new(BfvParams::test_small());
    let mut sampler = Sampler::from_seed(2);
    let sk = SecretKey::generate(&ctx, &mut sampler);
    let rlk = RelinKey::generate(&ctx, &sk, &mut sampler);
    let ev = BfvEvaluator::new(&ctx);
    let enc = ctx.encoder();
    let inputs: Vec<u64> = (0..ctx.n() as u64).map(|i| i % ctx.t()).collect();
    let ct = ev.encrypt_sk(&enc.encode(&inputs), &sk, &mut sampler);
    let relu = Lut::from_signed_fn(ctx.t(), |x| x.max(0));

    run_named(opts, "fbs/fbs_full_t257", || {
        fbs_apply(&ctx, std::hint::black_box(&ct), &relu, &rlk)
    });
    // The two LUT→polynomial interpolation paths (design decision 2 of
    // DESIGN.md).
    run_named(opts, "fbs/lut_interpolate_ntt_t257", || {
        std::hint::black_box(&relu).interpolate_ntt()
    });
    run_named(opts, "fbs/lut_interpolate_naive_t257", || {
        std::hint::black_box(&relu).interpolate_naive()
    });
    let big = Lut::from_signed_fn(65537, |x| x.max(0));
    run_named(opts, "fbs/lut_interpolate_ntt_t65537", || {
        std::hint::black_box(&big).interpolate_ntt()
    });
    // One CMult (the giant-step unit of Alg. 2).
    run_named(opts, "fbs/cmult_relin", || {
        ev.mul(std::hint::black_box(&ct), &ct, &rlk)
    });
    // One SMult (the baby-step unit).
    run_named(opts, "fbs/smult", || {
        ev.mul_scalar(std::hint::black_box(&ct), 123)
    });
}

fn bench_base_conversion(opts: &BenchOpts) {
    // Base conversion on the FRU's RNS datapath (ablation 1): the classic
    // fast form, the exact word-sized form the request path runs on, and
    // the big-integer CRT both are tested against.
    use athena_math::prime::ntt_primes;
    use athena_math::rns::RnsBasis;
    let n = 1024;
    let src = RnsBasis::new(&ntt_primes(50, n, 4), n);
    let dst = RnsBasis::new(&ntt_primes(49, n, 4), n);
    let p = src.poly_from_i64(&(0..n as i64).map(|i| i * 31 % 1000).collect::<Vec<_>>());
    run_named(opts, "base_conversion/fast_bconv_4to4_n1024", || {
        src.fast_base_convert(std::hint::black_box(&p), &dst)
    });
    let conv = src.converter_to(&dst.moduli());
    run_named(opts, "base_conversion/exact_word_sized_4to4_n1024", || {
        src.convert_centered(std::hint::black_box(&p), &conv)
    });
    run_named(opts, "base_conversion/exact_bconv_4to4_n1024", || {
        src.exact_base_convert(std::hint::black_box(&p), &dst)
    });
}

fn main() {
    // `cargo bench` passes --bench (and possibly filter args); ignore them.
    let opts = BenchOpts {
        warmup: Duration::from_millis(300),
        measure: Duration::from_secs(2),
        ..BenchOpts::default()
    };
    bench_ntt(&opts);
    bench_framework_steps(&opts);
    bench_fbs(&opts);
    bench_base_conversion(&opts);
}
