//! NTT counts and per-op latency of the domain-sensitive hot paths:
//! HRot (`rotate_rows`), the BSGS LWE→RLWE packing, one FBS, and a full
//! five-step layer (linear → mod-switch/extract → pack → FBS → S2C).
//!
//! Run once before the Eval-resident refactor to record the baseline
//! (`reports/domain_ntt_baseline.txt`), and after it to produce
//! `reports/domain_ntt.txt` with before/after deltas; counting uses the
//! `op-stats` feature of `athena-math`. Every operation runs on the calling
//! thread, so the counts are those of a 1-worker run, as the report's
//! header line states.

use std::time::Duration;

use athena_bench::microbench::{fmt_duration, run, BenchOpts};
use athena_bench::render_table;
use athena_core::pipeline::{AthenaEngine, PackingMethod, PipelineStats};
use athena_fhe::bfv::BfvEvaluator;
use athena_fhe::fbs::{fbs_apply, Lut};
use athena_fhe::lwe::LweCiphertext;
use athena_fhe::params::BfvParams;
use athena_math::stats::ntt_stats;

struct Row {
    name: String,
    forward: u64,
    inverse: u64,
    latency: Duration,
}

/// Counts NTTs for one execution of `f`, then times it.
fn profile(opts: &BenchOpts, name: &str, mut f: impl FnMut()) -> Row {
    let ((), counts) = ntt_stats::measure(&mut f);
    let latency = run(opts, &mut f).median;
    Row {
        name: name.to_string(),
        forward: counts.forward,
        inverse: counts.inverse,
        latency,
    }
}

/// Parses `name forward inverse latency_ns` lines from a previous baseline
/// file, returning `(forward, inverse, latency)` per row name.
fn read_baseline(path: &std::path::Path) -> Vec<(String, u64, u64, Duration)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let name = it.next()?.to_string();
            if !name.starts_with("op:") {
                return None;
            }
            let fwd = it.next()?.parse().ok()?;
            let inv = it.next()?.parse().ok()?;
            let ns: u64 = it.next()?.parse().ok()?;
            Some((name, fwd, inv, Duration::from_nanos(ns)))
        })
        .collect()
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
    let mut rows: Vec<Row> = Vec::new();

    // HRot on the ciphertext in its resident form (Coeff pre-refactor; now
    // Eval, converted once outside the measured region, matching how the
    // BSGS loops hold their operands).
    let ct_eval = ct.to_eval(ctx);
    rows.push(profile(&opts, "op:hrot_resident", || {
        std::hint::black_box(ev.rotate_rows(&ct_eval, 1, &keys.gk));
    }));

    // BSGS packing of 32 LWEs.
    let lwes: Vec<LweCiphertext> = (0..32u64)
        .map(|i| LweCiphertext::encrypt((i * 8) % t, &secrets.lwe_sk, &mut sampler))
        .collect();
    let pack_key = keys.pack_bsgs.as_ref().expect("bsgs engine");
    rows.push(profile(&opts, "op:pack_bsgs_32", || {
        std::hint::black_box(pack_key.pack(ctx, &lwes, &keys.gk));
    }));

    // One FBS (ReLU LUT) on a packed ciphertext.
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

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports");
    let baseline_path = dir.join("domain_ntt_baseline.txt");
    let baseline = read_baseline(&baseline_path);
    let have_baseline = !baseline.is_empty();

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let (dfwd, dinv, dlat) = baseline
                .iter()
                .find(|(bn, ..)| *bn == r.name)
                .map(|&(_, bf, bi, bl)| {
                    (
                        format!("{:+}", r.forward as i64 - bf as i64),
                        format!("{:+}", r.inverse as i64 - bi as i64),
                        format!(
                            "{:+.1}%",
                            (r.latency.as_secs_f64() / bl.as_secs_f64().max(1e-12) - 1.0) * 100.0
                        ),
                    )
                })
                .unwrap_or_else(|| ("-".into(), "-".into(), "-".into()));
            vec![
                r.name.trim_start_matches("op:").to_string(),
                r.forward.to_string(),
                dfwd,
                r.inverse.to_string(),
                dinv,
                fmt_duration(r.latency),
                dlat,
            ]
        })
        .collect();

    let mut out = String::new();
    out.push_str("Domain-aware representation: NTT counts and latency per op\n");
    out.push_str(&format!(
        "params: test_small (N={n}, t={t}, {k_limbs} RNS limbs); counts from a 1-worker run\n"
    ));
    if have_baseline {
        out.push_str("deltas vs reports/domain_ntt_baseline.txt (pre-refactor)\n");
    } else {
        out.push_str("no baseline file found: this run IS the baseline\n");
    }
    out.push('\n');
    out.push_str(&render_table(
        &[
            "op", "fwd NTT", "Δfwd", "inv NTT", "Δinv", "latency", "Δlat",
        ],
        &table_rows,
    ));
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

    let path = if have_baseline {
        dir.join("domain_ntt.txt")
    } else {
        baseline_path
    };
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &out)) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}
