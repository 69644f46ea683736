//! The differential-fuzzing report: runs the fixed-seed sweep of
//! `athena_core::fuzz` — every case through all three oracles (plain
//! reference, plan-driven simulation, real encryption at the case's
//! reduced parameters) — and summarizes coverage and the
//! worst observed encrypted deviation against its `e_ms` tolerance.
//!
//! Writes `reports/fuzz.txt`. The output is deterministic (every sampler
//! is seeded from the case seed or parameter fingerprint, no timings) and
//! thread-count invariant, so CI diffs it against the committed copy.

use athena_bench::render_table;
use athena_core::fuzz::{corpus, run_case, run_fuzz, FuzzConfig, OracleCtx};

/// The sweep CI replays: seeds `FUZZ_BASE_SEED + 0..400`.
const FUZZ_BASE_SEED: u64 = 20_260_808;
const CASES: usize = 400;

fn main() {
    let cfg = FuzzConfig {
        seed: FUZZ_BASE_SEED,
        cases: CASES,
        encrypted: true,
    };
    let report = match run_fuzz(&cfg) {
        Ok(r) => r,
        Err(failure) => {
            eprintln!("{failure}");
            eprintln!("minimized case:\n{}", corpus::to_text(&failure.case));
            std::process::exit(1);
        }
    };

    let mut out = String::new();
    out.push_str(&format!(
        "Differential fuzzing sweep: {} seeded cases (base seed {}), each run\n\
         through three oracles — plain QModel::forward, plan-driven\n\
         NoiseSimBackend at sigma=0 (bit-equal), and EncryptedBackend at the\n\
         case's reduced parameters (within the propagated e_ms logit bound).\n\
         All oracles agreed on every case.\n\n",
        cfg.cases, cfg.seed
    ));
    out.push_str(&render_table(
        &["metric", "value"],
        &[
            vec!["cases run".into(), report.cases.to_string()],
            vec!["encrypted runs".into(), report.encrypted_runs.to_string()],
            vec![
                "max encrypted logit deviation".into(),
                format!("{:.6}", report.max_encrypted_dev),
            ],
            vec![
                "e_ms tolerance at that case".into(),
                format!("{:.6}", report.tolerance_at_max),
            ],
        ],
    ));
    out.push('\n');
    out.push_str(&render_table(
        &["coverage", "count"],
        &[
            vec!["conv nodes".into(), report.op_counts[0].to_string()],
            vec!["fc nodes".into(), report.op_counts[1].to_string()],
            vec!["maxpool nodes".into(), report.op_counts[2].to_string()],
            vec!["avgpool nodes".into(), report.op_counts[3].to_string()],
            vec!["residual skips".into(), report.op_counts[4].to_string()],
            vec![
                "non-square inputs".into(),
                report.non_square_inputs.to_string(),
            ],
            vec![
                "column-packed cases".into(),
                report.packing_counts[0].to_string(),
            ],
            vec![
                "bsgs-packed cases".into(),
                report.packing_counts[1].to_string(),
            ],
        ],
    ));

    // Replay the pinned regression corpus through the same oracles.
    let dir = corpus::corpus_dir();
    let mut corpus_rows: Vec<Vec<String>> = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .map(|rd| rd.filter_map(Result::ok).collect::<Vec<_>>())
        .unwrap_or_default();
    entries.sort_by_key(|e| e.file_name());
    let mut ctx = OracleCtx::new();
    for entry in entries {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("case") {
            continue;
        }
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("?")
            .to_string();
        let text = std::fs::read_to_string(&path).expect("corpus file readable");
        let case = corpus::from_text(&text)
            .unwrap_or_else(|e| panic!("corpus file {name} does not parse: {e}"));
        match run_case(&mut ctx, &case, true) {
            Ok(_) => corpus_rows.push(vec![name, "pass".into()]),
            Err(f) => {
                eprintln!("pinned corpus case {name} regressed: {f}");
                std::process::exit(1);
            }
        }
    }
    if !corpus_rows.is_empty() {
        out.push('\n');
        out.push_str(&render_table(
            &["pinned corpus case", "status"],
            &corpus_rows,
        ));
    }

    print!("{out}");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports");
    let path = dir.join("fuzz.txt");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &out)) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}
