//! Deterministic differential fuzzing across the plan backends.
//!
//! A seeded model-zoo generator ([`gen_case`]) over the in-repo xoshiro
//! PRNG emits random-but-valid [`athena_nn::qmodel::QModel`]
//! architectures — conv / pool / residual mixes, random shapes, random
//! power-of-two quantization scales, both packing strategies, and random
//! reduced parameter sets — and every case is run through four oracles
//! ([`run_case`]):
//!
//! 1. the plain-Q integer reference (`QModel::forward`),
//! 2. the legacy fast simulation path (`simulate_inference` at σ = 0),
//! 3. the plan-driven [`crate::plan::NoiseSimBackend`] at σ = 0,
//! 4. the real [`crate::plan::EncryptedBackend`] at the case's reduced
//!    parameters.
//!
//! Oracles 2 and 3 must be **bit-equal** to the reference (power-of-two
//! scales make the final dequantization exact in `f64`); oracle 4 must
//! stay within the propagated worst-case `e_ms` bound
//! ([`DeviationBound`]) of the reference — the same §3.2.2 noise budget
//! the generator uses to keep accumulators inside the plaintext modulus.
//!
//! A failure is [`shrink`]-minimized (drop layers, halve channels, strip
//! skips/biases/activations — greedily, re-checking that the minimized
//! case still fails) and pinned as a permanent regression case in
//! `tests/fuzz_corpus/` via the text format of [`corpus`]. The CI smoke
//! leg replays a fixed-seed sweep (`tests/fuzz_smoke.rs`) plus the whole
//! corpus (`tests/fuzz_corpus.rs`) under both `ATHENA_THREADS` legs.
//!
//! Seed policy: case `i` of a sweep uses generator seed `base + i`; every
//! derived sampler (key material, encryption randomness) is salted from
//! the case seed, so any failure reproduces from its printed seed alone.
//!
//! An orthogonal sweep dimension is chaos fuzzing ([`run_chaos`]): the
//! same generated cases run under seeded fault plans
//! ([`crate::plan::FaultPlan`]) through the resilient executor, pinning
//! the serving path's typed-error and clean-recovery invariants
//! (see the module docs of [`chaos`](self)).

mod bound;
mod chaos;
pub mod corpus;
mod gen;
mod oracle;
mod shrink;

pub use bound::{e_ms_bound, DeviationBound};
pub use chaos::{run_chaos, ChaosConfig, ChaosFailure, ChaosReport};
pub use gen::{gen_case, CaseParams, FuzzCase};
pub use oracle::{run_case, CaseOutcome, FuzzFailure, Oracle, OracleCtx};
pub use shrink::shrink;

/// Configuration of one fuzzing sweep.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Base generator seed; case `i` uses `seed + i`.
    pub seed: u64,
    /// Number of cases to run.
    pub cases: usize,
    /// Whether to run the encrypted oracle (the expensive one) on every
    /// case. The three plaintext oracles always run.
    pub encrypted: bool,
}

/// Aggregate result of a clean sweep.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases run (all four-oracle agreeing).
    pub cases: usize,
    /// Cases that ran the encrypted oracle.
    pub encrypted_runs: usize,
    /// Worst observed encrypted deviation from the σ = 0 reference, in
    /// dequantized logit units.
    pub max_encrypted_dev: f64,
    /// The tolerance in force for the case with the worst deviation.
    pub tolerance_at_max: f64,
    /// Model-shape coverage counters: `[conv, fc, maxpool, avgpool,
    /// residual-skip]` node totals across the sweep.
    pub op_counts: [usize; 5],
    /// Cases compiled per packing method: `[column, bsgs]`.
    pub packing_counts: [usize; 2],
}

/// Runs a sweep of `cfg.cases` seeded cases. On the first failing case,
/// shrinks it and returns the minimized failure; a clean sweep returns
/// the aggregate report.
pub fn run_fuzz(cfg: &FuzzConfig) -> Result<FuzzReport, Box<FuzzFailure>> {
    let mut ctx = OracleCtx::new();
    let mut report = FuzzReport::default();
    for i in 0..cfg.cases {
        let case = gen_case(cfg.seed + i as u64);
        match run_case(&mut ctx, &case, cfg.encrypted) {
            Ok(outcome) => {
                report.cases += 1;
                if cfg.encrypted {
                    report.encrypted_runs += 1;
                    if outcome.encrypted_dev > report.max_encrypted_dev {
                        report.max_encrypted_dev = outcome.encrypted_dev;
                        report.tolerance_at_max = outcome.tolerance;
                    }
                }
                for node in &case.model.nodes {
                    use athena_nn::qmodel::QOp;
                    match &node.op {
                        QOp::Linear(l) if !l.is_fc => report.op_counts[0] += 1,
                        QOp::Linear(_) => report.op_counts[1] += 1,
                        QOp::MaxPool { .. } => report.op_counts[2] += 1,
                        QOp::AvgPool { .. } => report.op_counts[3] += 1,
                    }
                    if node.skip.is_some() {
                        report.op_counts[4] += 1;
                    }
                }
                match case.params.packing {
                    crate::pipeline::PackingMethod::Column => report.packing_counts[0] += 1,
                    crate::pipeline::PackingMethod::Bsgs => report.packing_counts[1] += 1,
                }
            }
            Err(failure) => {
                let minimized = shrink(&mut ctx, *failure, cfg.encrypted);
                return Err(Box::new(minimized));
            }
        }
    }
    Ok(report)
}
