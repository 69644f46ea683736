//! Before/after accounting for hoisted rotations (decompose-once,
//! rotate-many) and the tensor-lift operand cache: NTT counts, the
//! hoisted-vs-eager HRot breakdown, and computed-vs-reused tensor lifts for
//! the rotation-heavy ops and one full five-step layer.
//!
//! Compares against the forward-NTT counts of the Eval-resident,
//! pre-hoisting code (frozen below) and writes `reports/hoisting.txt` with
//! deltas plus the headline five-step forward-NTT reduction.

use std::time::Duration;

use athena_bench::microbench::{fmt_duration, run, BenchOpts};
use athena_bench::render_table;
use athena_core::pipeline::{AthenaEngine, PackingMethod, PipelineStats};
use athena_fhe::bfv::BfvEvaluator;
use athena_fhe::fbs::{fbs_apply, Lut};
use athena_fhe::lwe::LweCiphertext;
use athena_fhe::params::BfvParams;
use athena_math::stats::{lift_stats, ntt_stats, rot_stats};

struct Row {
    name: String,
    forward: u64,
    inverse: u64,
    rot_eager: u64,
    rot_hoisted: u64,
    lifts_computed: u64,
    lifts_reused: u64,
    latency: Duration,
}

/// Counts NTTs/rotations/lifts for one execution of `f`, then times it.
fn profile(opts: &BenchOpts, name: &str, mut f: impl FnMut()) -> Row {
    let ((((), lifts), rot), ntt) =
        ntt_stats::measure(|| rot_stats::measure(|| lift_stats::measure(&mut f)));
    let latency = run(opts, &mut f).median;
    Row {
        name: name.to_string(),
        forward: ntt.forward,
        inverse: ntt.inverse,
        rot_eager: rot.eager,
        rot_hoisted: rot.hoisted,
        lifts_computed: lifts.computed,
        lifts_reused: lifts.reused,
        latency,
    }
}

/// Forward NTTs per op of the Eval-resident representation before
/// rotations were hoisted (as `report_domains` measured it then, same
/// params and seeds). Frozen here: `reports/domain_ntt.txt` is regenerated
/// from the current code and no longer holds them.
const PRE_HOISTING_FWD: [(&str, u64); 3] = [
    ("op:pack_bsgs_32", 415),
    ("op:fbs_relu", 3105),
    ("op:five_step_layer", 4095),
];

fn pre_hoisting_fwd(name: &str) -> Option<u64> {
    PRE_HOISTING_FWD
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, fwd)| fwd)
}

fn main() {
    let opts = BenchOpts {
        warmup: Duration::from_millis(100),
        measure: Duration::from_millis(600),
        samples: 7,
    };
    let engine = AthenaEngine::with_packing(BfvParams::test_small(), PackingMethod::Bsgs);
    let ctx = engine.context();
    let mut sampler = athena_math::sampler::Sampler::from_seed(4242);
    let (secrets, keys) = engine.keygen(&mut sampler);
    let ev = BfvEvaluator::new(ctx);
    let enc = ctx.encoder();
    let n = ctx.n();
    let t = ctx.t();
    let k_limbs = ctx.q_basis().len();

    let vals: Vec<u64> = (0..n as u64).map(|i| (i * 3 + 1) % t).collect();
    let ct = ev.encrypt_sk(&enc.encode(&vals), &secrets.sk, &mut sampler);
    let ct_eval = ct.to_eval(ctx);
    let mut rows: Vec<Row> = Vec::new();

    // Eight eager rotations of one source vs hoist-once + eight rotations —
    // the decompose-once/rotate-many shape of every BSGS schedule.
    const R: usize = 8;
    rows.push(profile(&opts, "op:rot8_eager", || {
        for k in 1..=R {
            std::hint::black_box(ev.rotate_rows(&ct_eval, k, &keys.gk));
        }
    }));
    rows.push(profile(&opts, "op:rot8_hoisted", || {
        let hoisted = ev.hoist(&ct_eval);
        for k in 1..=R {
            std::hint::black_box(hoisted.rotate_rows(ctx, k, &keys.gk));
        }
    }));

    // BSGS packing of 32 LWEs (baby rotations ride the key's digit cache).
    let lwes: Vec<LweCiphertext> = (0..32u64)
        .map(|i| LweCiphertext::encrypt((i * 8) % t, &secrets.lwe_sk, &mut sampler))
        .collect();
    let pack_key = keys.pack_bsgs.as_ref().expect("bsgs engine");
    rows.push(profile(&opts, "op:pack_bsgs_32", || {
        std::hint::black_box(pack_key.pack(ctx, &lwes, &keys.gk));
    }));

    // One FBS (ReLU LUT) on a packed ciphertext (cached tensor lifts).
    let packed = pack_key.pack(ctx, &lwes, &keys.gk);
    let lut = Lut::from_signed_fn(t, |x| x.max(0));
    rows.push(profile(&opts, "op:fbs_relu", || {
        std::hint::black_box(fbs_apply(ctx, &packed, &lut, &keys.rlk));
    }));

    // One five-step layer: linear → extract → pack → FBS → S2C.
    let positions: Vec<usize> = (0..32).collect();
    let kernel: Vec<i64> = {
        let mut v = vec![0i64; n];
        v[0] = 2;
        v[1] = -1;
        v
    };
    rows.push(profile(&opts, "op:five_step_layer", || {
        let mut stats = PipelineStats::default();
        let conv = engine.linear(&ct, &kernel, &[], &mut stats);
        let lw = engine.extract_lwes(&conv, &positions, &keys, &mut stats);
        let opt: Vec<Option<LweCiphertext>> = lw.into_iter().map(Some).collect();
        std::hint::black_box(engine.pack_fbs_s2c(&opt, &lut, &keys, &mut stats));
    }));

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let dfwd = pre_hoisting_fwd(&r.name)
                .map(|bf| format!("{:+}", r.forward as i64 - bf as i64))
                .unwrap_or_else(|| "-".into());
            vec![
                r.name.trim_start_matches("op:").to_string(),
                r.forward.to_string(),
                dfwd,
                r.inverse.to_string(),
                format!("{}/{}", r.rot_eager, r.rot_hoisted),
                format!("{}/{}", r.lifts_computed, r.lifts_reused),
                fmt_duration(r.latency),
            ]
        })
        .collect();

    let mut out = String::new();
    out.push_str("Hoisted rotations + tensor-lift cache: NTT counts per op\n");
    out.push_str(&format!(
        "params: test_small (N={n}, t={t}, {k_limbs} RNS limbs); counts from a 1-worker run\n"
    ));
    out.push_str("HRot column = eager/hoisted; lift column = computed/reused\n");
    out.push_str("Δfwd vs the Eval-resident, pre-hoisting forward-NTT counts\n\n");
    out.push_str(&render_table(
        &[
            "op", "fwd NTT", "Δfwd", "inv NTT", "HRot e/h", "lift c/r", "latency",
        ],
        &table_rows,
    ));

    // Headline: five-step forward-NTT reduction vs the pre-hoisting report.
    if let Some(base_fwd) = pre_hoisting_fwd("op:five_step_layer") {
        let now = rows
            .iter()
            .find(|r| r.name == "op:five_step_layer")
            .map(|r| r.forward)
            .unwrap_or(0);
        let cut = 100.0 * (1.0 - now as f64 / base_fwd as f64);
        out.push_str(&format!(
            "\nfive-step forward NTTs: {base_fwd} -> {now} ({cut:.1}% reduction vs pre-hoisting)\n"
        ));
    }

    out.push_str("\nmachine-readable (op: name fwd inv latency_ns):\n");
    for r in &rows {
        out.push_str(&format!(
            "{} {} {} {}\n",
            r.name,
            r.forward,
            r.inverse,
            r.latency.as_nanos()
        ));
    }
    print!("{out}");

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports");
    let path = dir.join("hoisting.txt");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &out)) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}
