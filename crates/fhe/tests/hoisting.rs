//! Hoisted-rotation invariants: decompose-once/rotate-many is bit-identical
//! to the eager path, noise-neutral, and actually shares the digit
//! decomposition (one per source, not one per rotation — proved with the
//! `op-stats` counters).
//!
//! Each `measure` counts only its own call tree, so the tests run
//! concurrently.

use athena_fhe::bfv::{BfvContext, BfvEvaluator, GaloisKeys, SecretKey};
use athena_fhe::linear::HomLinearTransform;
use athena_fhe::lwe::{LweCiphertext, LweSecret};
use athena_fhe::pack::BsgsPackingKey;
use athena_fhe::params::BfvParams;
use athena_math::sampler::Sampler;

struct Fx {
    ctx: BfvContext,
    sk: SecretKey,
    sampler: Sampler,
}

fn setup() -> Fx {
    let ctx = BfvContext::new(BfvParams::test_small());
    let mut sampler = Sampler::from_seed(88_001);
    let sk = SecretKey::generate(&ctx, &mut sampler);
    Fx { ctx, sk, sampler }
}

/// Galois keys for a BSGS-shaped element set: rotations `1..=max_rot` plus
/// the row swap.
fn schedule_keys(f: &mut Fx, max_rot: usize) -> GaloisKeys {
    let enc = f.ctx.encoder();
    let mut els: Vec<usize> = (1..=max_rot).map(|k| enc.galois_for_rotation(k)).collect();
    els.push(enc.galois_for_row_swap());
    els.sort_unstable();
    els.dedup();
    GaloisKeys::generate(&f.ctx, &f.sk, &els, &mut f.sampler)
}

/// Hoisted rotation output is bit-identical to the eager path for every
/// Galois element of a BSGS schedule.
#[test]
fn hoisted_matches_eager_for_every_element() {
    let mut f = setup();
    let gk = schedule_keys(&mut f, 8);
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let vals: Vec<u64> = (0..f.ctx.n() as u64).map(|i| (i * 9 + 4) % 257).collect();
    let ct = ev.encrypt_sk(&enc.encode(&vals), &f.sk, &mut f.sampler);

    let hoisted = ev.hoist(&ct);
    for k in 1..=8usize {
        let eager = ev.rotate_rows(&ct, k, &gk);
        let fast = hoisted.rotate_rows(&f.ctx, k, &gk);
        assert_eq!(eager.parts(), fast.parts(), "k={k}");
    }
    let eager_swap = ev.swap_rows(&ct, &gk);
    let fast_swap = hoisted.swap_rows(&f.ctx, &gk);
    assert_eq!(eager_swap.parts(), fast_swap.parts(), "row swap");
}

/// The trivial rotation (`k ≡ 0 mod row`) returns the source unchanged.
#[test]
fn hoisted_trivial_rotation_is_identity() {
    let mut f = setup();
    let gk = schedule_keys(&mut f, 1);
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let vals: Vec<u64> = (0..f.ctx.n() as u64).collect();
    let ct = ev
        .encrypt_sk(&enc.encode(&vals), &f.sk, &mut f.sampler)
        .to_eval(&f.ctx);
    let hoisted = ev.hoist(&ct);
    let row = enc.row_size();
    assert_eq!(hoisted.rotate_rows(&f.ctx, 0, &gk).parts(), ct.parts());
    assert_eq!(hoisted.rotate_rows(&f.ctx, row, &gk).parts(), ct.parts());
}

/// Hoisting is noise-neutral: the rotated output decrypts correctly and its
/// invariant-noise budget equals the eager path's (they are bit-identical).
#[test]
fn hoisted_rotation_noise_budget_matches_eager() {
    let mut f = setup();
    let gk = schedule_keys(&mut f, 4);
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let vals: Vec<u64> = (0..f.ctx.n() as u64).map(|i| (5 * i + 1) % 257).collect();
    let ct = ev.encrypt_sk(&enc.encode(&vals), &f.sk, &mut f.sampler);
    let hoisted = ev.hoist(&ct);
    for k in 1..=4usize {
        let fast = hoisted.rotate_rows(&f.ctx, k, &gk);
        let eager = ev.rotate_rows(&ct, k, &gk);
        assert_eq!(
            enc.decode(&ev.decrypt(&fast, &f.sk)),
            enc.rotate_slots(&vals, k),
            "k={k}"
        );
        let (bf, be) = (
            ev.noise_budget(&fast, &f.sk),
            ev.noise_budget(&eager, &f.sk),
        );
        assert_eq!(bf, be, "k={k}: hoisted budget {bf} != eager budget {be}");
        assert!(bf > 0, "k={k}: budget exhausted");
    }
}

/// The headline hoisting budget: preparing one source and rotating it R
/// times performs exactly **one** digit decomposition — `k` inverse plus
/// `k²` forward NTTs in total, zero additional NTTs per rotation — where
/// the eager schedule pays the full bill R times.
#[cfg(feature = "op-stats")]
#[test]
fn hoisted_schedule_shares_one_decomposition() {
    use athena_math::stats::{ntt_stats, rot_stats};
    let mut f = setup();
    const R: usize = 5;
    let gk = schedule_keys(&mut f, R);
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let vals: Vec<u64> = (0..f.ctx.n() as u64).map(|i| i % 257).collect();
    let ct = ev
        .encrypt_sk(&enc.encode(&vals), &f.sk, &mut f.sampler)
        .to_eval(&f.ctx);
    let k = f.ctx.q_basis().len() as u64;

    let (rots, (ntt, rot)) = {
        let ((out, rot), ntt) = ntt_stats::measure(|| {
            rot_stats::measure(|| {
                let hoisted = ev.hoist(&ct);
                (1..=R)
                    .map(|r| hoisted.rotate_rows(&f.ctx, r, &gk))
                    .collect::<Vec<_>>()
            })
        });
        (out, (ntt, rot))
    };

    assert_eq!(rot.decompose, 1, "one decomposition for the whole schedule");
    assert_eq!(rot.hoisted, R as u64);
    assert_eq!(rot.eager, 0);
    assert_eq!(
        ntt.forward,
        k * k,
        "only the one-time k² digit lifts transform forward"
    );
    assert_eq!(
        ntt.inverse, k,
        "only c1 comes down, once, for decomposition"
    );
    // And the rotations are still correct.
    for (i, r) in rots.iter().enumerate() {
        assert_eq!(
            enc.decode(&ev.decrypt(r, &f.sk)),
            enc.rotate_slots(&vals, i + 1)
        );
    }
}

/// `HomLinearTransform::rotation_count()` equals the HRot count an actual
/// dense `apply` performs, as measured by the rotation counters.
#[cfg(feature = "op-stats")]
#[test]
fn linear_rotation_count_matches_measured() {
    use athena_math::stats::rot_stats;
    let mut f = setup();
    let n = f.ctx.n();
    let mut rng = Sampler::from_seed(424_242);
    // Dense random matrix: no all-zero diagonal, so every group is visited.
    let m: Vec<Vec<u64>> = (0..n)
        .map(|_| (0..n).map(|_| 1 + rng.uniform_mod(256)).collect())
        .collect();
    let tr = HomLinearTransform::new(&f.ctx, m);
    let els = tr.required_galois_elements(&f.ctx);
    let gk = GaloisKeys::generate(&f.ctx, &f.sk, &els, &mut f.sampler);
    let ev = BfvEvaluator::new(&f.ctx);
    let enc = f.ctx.encoder();
    let vals: Vec<u64> = (0..n as u64).map(|i| (i * 3 + 2) % 257).collect();
    let ct = ev.encrypt_sk(&enc.encode(&vals), &f.sk, &mut f.sampler);

    let (out, rot) = rot_stats::measure(|| tr.apply(&f.ctx, &ct, &gk));
    assert_eq!(
        rot.rotations() as usize,
        tr.rotation_count(),
        "measured HRots (eager {} + hoisted {}) != rotation_count()",
        rot.eager,
        rot.hoisted
    );
    // Two hoisted sources (identity + swapped) pay one decomposition each;
    // every other decomposition belongs to an eager giant rotation. The
    // un-hoisted schedule would have paid rotation_count() of them.
    assert_eq!(rot.decompose, rot.eager + 2);
    assert_eq!(
        enc.decode(&ev.decrypt(&out, &f.sk)),
        tr.apply_plain(&f.ctx, &vals)
    );
}

/// `BsgsPackingKey::rotation_count()` equals the HRot count an actual
/// `pack` call performs, and the baby rotations ride on the digit cache
/// hoisted at `generate` time (zero decompositions during pack).
#[cfg(feature = "op-stats")]
#[test]
fn pack_rotation_count_matches_measured() {
    use athena_math::stats::rot_stats;
    let mut f = setup();
    let lwe_sk = LweSecret::generate(f.ctx.params().lwe_n, f.ctx.t(), &mut f.sampler);
    let pk = BsgsPackingKey::generate(&f.ctx, &f.sk, &lwe_sk, &mut f.sampler);
    let gk = GaloisKeys::generate(
        &f.ctx,
        &f.sk,
        &pk.required_galois_elements(&f.ctx),
        &mut f.sampler,
    );
    let lwes: Vec<LweCiphertext> = (0..32u64)
        .map(|i| LweCiphertext::encrypt((i * 8) % 257, &lwe_sk, &mut f.sampler))
        .collect();

    let (_, rot) = rot_stats::measure(|| pk.pack(&f.ctx, &lwes, &gk));
    assert_eq!(
        rot.rotations() as usize,
        pk.rotation_count(),
        "measured HRots (eager {} + hoisted {}) != rotation_count()",
        rot.eager,
        rot.hoisted
    );
    assert_eq!(
        rot.decompose, rot.eager,
        "pack-time decompositions must come from giant steps only — the \
         key's digits were hoisted at generate time"
    );
}
