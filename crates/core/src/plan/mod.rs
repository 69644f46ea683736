//! The execution-plan IR: a typed, per-layer step program compiled from a
//! [`athena_nn::qmodel::QModel`] ahead of any ciphertext work.
//!
//! The planner ([`compile`]) resolves everything that is static for a
//! (model, engine) pair up front — consumer layouts, output-channel group
//! splits, encoded kernels and bias positions, materialized remap LUTs,
//! Galois-element and key requirements, and per-step *analytic* operation
//! counts. Execution is one generic interpreter (`exec::run_step`) under
//! one generic driver (`exec::drive`), both parameterized by a
//! [`PlanBackend`] — the step structure, group accumulation, residual
//! re-extraction and pooling decompositions, and around them the step
//! walk, panic isolation, deadline, measured brackets and noise probe, are
//! written once and retargeted across three backends:
//!
//! * [`EncryptedBackend`] ([`execute_resilient`], and [`execute`] as its
//!   default-policy, panicking shorthand) — real RNS-BFV via the
//!   [`crate::pipeline::AthenaEngine`] primitives, bit-identical to the
//!   pre-plan `infer::run_encrypted` loop (golden logits pinned in
//!   `tests/plan_equivalence.rs`) — every step is exact modular
//!   arithmetic, so re-grouping the loop cannot change a single
//!   coefficient;
//! * [`NoiseSimBackend`] ([`execute_sim`]) — the §3.2.2 noise-faithful
//!   integer simulation, driven step-by-step from the same compiled plan
//!   (exact plain-Q semantics at σ = 0, `e_ms` injection at every LWE
//!   drop otherwise);
//! * [`CountingBackend`] ([`execute_counting`]) — a value-free dry run
//!   producing the per-step analytic [`crate::trace::OpCounts`] that
//!   `compile` backfills into [`PlanStep::analytic`], so analytic
//!   accounting is literally the same code path as execution.
//!
//! Two more consumers hang off the same plan:
//! [`ExecutionPlan::to_trace`], which derives the
//! [`crate::trace::ModelTrace`] the accelerator model lowers to
//! cycles/energy, and [`crate::pipeline::AthenaEngine::keygen_for_plan`],
//! which generates
//! exactly the deduplicated key material [`ExecutionPlan::required_keys`]
//! demands and validates Galois coverage with `ensure_covers`. On top,
//! [`InferenceSession`] caches compiled plans + key material in an LRU
//! and batches encrypted requests over the worker pool.
//!
//! Step vocabulary: `Linear` (coefficient-encoded conv/FC group),
//! `ModSwitch` (Q → q_mid), `ExtractLwes` (Alg. 1 sample extraction),
//! `DimSwitch` (LWE N → n, optionally dropping to `t`), `ResidualAdd`
//! (skip-path extraction + LWE-level scaled add), `Pack` (LWE → RLWE
//! homomorphic decryption), `Fbs` (the fused remap LUT of Alg. 2), `S2C`
//! (slots back to coefficients), the pooling composites
//! `MaxReduce`/`AvgReduce` (LWE-level trees over the accumulator), and
//! `Output` (client-side decrypt + dequantize).
//!
//! The serving path is *resilient*: the driver isolates every step behind
//! `catch_unwind`, enforces a
//! cooperative [`RunPolicy`] deadline, samples the measured noise budget
//! when the policy's probe flag is on, and surfaces every failure as a
//! typed [`AthenaError`] through [`execute_resilient`]; the seeded
//! fault-injection harness ([`FaultPlan`] / [`FaultInjectingBackend`])
//! drives those paths in the chaos tests.

mod backend;
mod error;
mod exec;
mod fault;
mod ir;
mod session;

pub use backend::{CountingBackend, EncryptedBackend, NoiseSimBackend, PlanBackend, SimLwe};
pub use error::{AthenaError, RetryPolicy, RunPolicy};
pub(crate) use exec::drive;
pub use exec::{
    execute, execute_counting, execute_resilient, execute_sim, NoiseExhausted, PlanRun, SimRun,
    StepReport,
};
pub use fault::{FaultInjectingBackend, FaultKind, FaultPlan, FaultSpec, FaultTarget};
pub(crate) use ir::validate_model;
pub use ir::{
    compile, try_compile, CompileError, ExecutionPlan, KeyRequirements, PlanLayer, PlanStep, StepOp,
};
pub use session::{InferenceSession, SessionStats};
