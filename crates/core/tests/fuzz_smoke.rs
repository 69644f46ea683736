//! Fixed-seed differential-fuzzing smoke legs (CI tier-1, both
//! `ATHENA_THREADS` legs). A failure prints the failing seed and the
//! minimized case in the corpus text format — copy it into
//! `tests/fuzz_corpus/` once fixed to pin it forever.

use athena_core::fuzz::{corpus, run_fuzz, FuzzConfig, FuzzReport};

fn sweep(cfg: &FuzzConfig) -> FuzzReport {
    match run_fuzz(cfg) {
        Ok(report) => report,
        Err(failure) => panic!(
            "{failure}\nreproduce with seed {}; minimized case:\n{}",
            failure.case.seed,
            corpus::to_text(&failure.case)
        ),
    }
}

/// 256 seeded cases through the two plaintext oracles (plain reference
/// and plan-driven sim at σ = 0, bit-equal). Cheap: no ciphertext work.
#[test]
fn fixed_seed_sweep_plaintext_oracles() {
    let report = sweep(&FuzzConfig {
        seed: 1_000_000,
        cases: 256,
        encrypted: false,
    });
    assert_eq!(report.cases, 256);
    // The zoo must actually cover the op mix, not degenerate to FC chains.
    assert!(report.op_counts[0] > 0, "no conv coverage");
    assert!(report.op_counts[1] > 0, "no fc coverage");
    assert!(report.op_counts[2] > 0, "no maxpool coverage");
    assert!(report.op_counts[3] > 0, "no avgpool coverage");
    assert!(report.op_counts[4] > 0, "no residual coverage");
    assert!(
        report.packing_counts[0] > 0 && report.packing_counts[1] > 0,
        "both packing methods must be exercised"
    );
}

/// A slice of the sweep through all three oracles, real encryption
/// included. The full 400-case encrypted sweep runs as `report_fuzz`
/// (release) in CI; this leg keeps the suite itself honest.
#[test]
fn fixed_seed_sweep_all_oracles() {
    let report = sweep(&FuzzConfig {
        seed: 20_260_808,
        cases: 12,
        encrypted: true,
    });
    assert_eq!(report.encrypted_runs, 12);
    assert!(
        report.max_encrypted_dev <= report.tolerance_at_max || report.encrypted_runs == 0,
        "deviation {} above tolerance {}",
        report.max_encrypted_dev,
        report.tolerance_at_max
    );
}
