//! The three differential oracles and the engine/key cache they share.

use athena_math::sampler::Sampler;

use crate::pipeline::{AthenaEngine, AthenaEvalKeys, AthenaSecrets};
use crate::plan::{execute, execute_sim, try_compile};
use crate::simulate::NoiseSpec;

use super::bound::propagate;
use super::gen::{CaseParams, FuzzCase};

/// Sampler-seed salts, one per randomness consumer, all derived from the
/// case seed (or the parameter fingerprint for key material) so a failure
/// reproduces from its printed seed alone.
const KEYGEN_SALT: u64 = 0x6b_65_79_67_65_6e_21_21;
const PLAN_SIM_SALT: u64 = 0x70_6c_61_6e_73_69_6d_21;
const ENCRYPT_SALT: u64 = 0x65_6e_63_72_79_70_74_21;

/// Which oracle a case failed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// `try_compile` rejected a model the reference executes fine.
    Compile,
    /// Plan-driven `NoiseSimBackend` at σ = 0 diverged from the reference.
    PlanSim,
    /// `EncryptedBackend` exceeded the propagated `e_ms` logit bound.
    Encrypted,
}

impl std::fmt::Display for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Oracle::Compile => "compile",
            Oracle::PlanSim => "plan-sim",
            Oracle::Encrypted => "encrypted",
        })
    }
}

/// A failing case: which oracle disagreed and how.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The (possibly minimized) failing case.
    pub case: FuzzCase,
    /// The oracle that disagreed.
    pub oracle: Oracle,
    /// Human-readable discrepancy description.
    pub detail: String,
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fuzz case seed {} failed the {} oracle: {}",
            self.case.seed, self.oracle, self.detail
        )
    }
}

/// Result of a clean all-oracle run of one case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The reference logits.
    pub logits: Vec<f64>,
    /// Max |encrypted − reference| logit deviation (0 when the encrypted
    /// oracle was skipped).
    pub encrypted_dev: f64,
    /// The `e_ms` tolerance that was in force.
    pub tolerance: f64,
}

pub(super) struct EngineEntry {
    pub(super) engine: AthenaEngine,
    pub(super) secrets: AthenaSecrets,
    pub(super) keys: AthenaEvalKeys,
}

/// Caches one engine + key set per distinct [`CaseParams`] across a sweep
/// (key generation dominates per-case cost otherwise). Key material is
/// seeded from the parameter fingerprint, so a sweep's keys — and
/// therefore its encrypted transcripts — are reproducible in isolation.
pub struct OracleCtx {
    engines: Vec<(u64, EngineEntry)>,
}

impl Default for OracleCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl OracleCtx {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            engines: Vec::new(),
        }
    }

    pub(super) fn entry(&mut self, params: &CaseParams) -> &EngineEntry {
        let fp = params.fingerprint();
        if let Some(pos) = self.engines.iter().position(|(f, _)| *f == fp) {
            return &self.engines[pos].1;
        }
        let engine = AthenaEngine::with_packing(params.bfv(), params.packing);
        let mut sampler = Sampler::from_seed(fp ^ KEYGEN_SALT);
        let (secrets, keys) = engine.keygen(&mut sampler);
        self.engines.push((
            fp,
            EngineEntry {
                engine,
                secrets,
                keys,
            },
        ));
        &self.engines.last().expect("just pushed").1
    }
}

fn logit_diff(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() {
        return None;
    }
    Some(
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max),
    )
}

fn first_mismatch(reference: &[f64], got: &[f64]) -> String {
    if reference.len() != got.len() {
        return format!(
            "logit count mismatch: reference {} vs {}",
            reference.len(),
            got.len()
        );
    }
    for (i, (r, g)) in reference.iter().zip(got).enumerate() {
        if r != g {
            return format!("logit {i}: reference {r} vs {g}");
        }
    }
    "no mismatch".into()
}

/// Runs `case` through the oracles: the plain integer reference, the
/// plan-driven simulation at σ = 0 (must be bit-equal), and — when
/// `encrypted` — the real encrypted executor at the case's parameters
/// (must stay inside the propagated `e_ms` logit bound).
pub fn run_case(
    ctx: &mut OracleCtx,
    case: &FuzzCase,
    encrypted: bool,
) -> Result<CaseOutcome, Box<FuzzFailure>> {
    let exact = NoiseSpec { sigma: 0.0 };
    let reference = case.model.forward(&case.input);

    // Oracle 2: the plan-driven simulation, σ = 0 → bit-equal. A model
    // the reference executes but the planner rejects is itself a failure.
    let entry = ctx.entry(&case.params);
    let plan = match try_compile(&entry.engine, &case.model, case.input.shape()) {
        Ok(plan) => plan,
        Err(e) => {
            return Err(Box::new(FuzzFailure {
                case: case.clone(),
                oracle: Oracle::Compile,
                detail: e.to_string(),
            }))
        }
    };
    let mut sampler = Sampler::from_seed(case.seed ^ PLAN_SIM_SALT);
    let plan_sim = execute_sim(&plan, &case.input, &exact, &mut sampler);
    if plan_sim.logits != reference {
        return Err(Box::new(FuzzFailure {
            case: case.clone(),
            oracle: Oracle::PlanSim,
            detail: first_mismatch(&reference, &plan_sim.logits),
        }));
    }

    // Oracle 3: the real thing, held to the documented e_ms bound.
    let tolerance = propagate(&case.model, case.params.lwe_n).logits;
    let mut encrypted_dev = 0.0f64;
    if encrypted {
        let mut sampler = Sampler::from_seed(case.seed ^ ENCRYPT_SALT);
        let run = execute(
            &entry.engine,
            &entry.secrets,
            &entry.keys,
            &plan,
            &case.input,
            &mut sampler,
        );
        match logit_diff(&reference, &run.logits) {
            Some(dev) if dev <= tolerance => encrypted_dev = dev,
            Some(dev) => {
                return Err(Box::new(FuzzFailure {
                    case: case.clone(),
                    oracle: Oracle::Encrypted,
                    detail: format!(
                        "max logit deviation {dev} exceeds e_ms tolerance {tolerance} ({})",
                        first_mismatch(&reference, &run.logits)
                    ),
                }))
            }
            None => {
                return Err(Box::new(FuzzFailure {
                    case: case.clone(),
                    oracle: Oracle::Encrypted,
                    detail: first_mismatch(&reference, &run.logits),
                }))
            }
        }
    }

    Ok(CaseOutcome {
        logits: reference,
        encrypted_dev,
        tolerance,
    })
}
