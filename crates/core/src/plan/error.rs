//! The unified error taxonomy of the serving path, and the run policy
//! (deadline + retry) the resilient executor enforces.
//!
//! Every failure a caller of [`super::InferenceSession`] or the resilient
//! executor ([`super::execute_resilient`]) can observe is an
//! [`AthenaError`] — a typed value naming the offending plan step, never a
//! raw panic payload. The taxonomy splits along one axis that matters for
//! serving: [`AthenaError::is_transient`]. A transient fault (an untyped
//! worker panic) may succeed on a retry with fresh encryption randomness;
//! deterministic faults (a compile rejection, a
//! shape mismatch, analytic noise exhaustion, missing key material) will
//! fail identically every time and are never retried.

use std::fmt;
use std::time::Duration;

use athena_fhe::FheError;

use super::exec::NoiseExhausted;
use super::fault::FaultPlan;
use super::ir::CompileError;

/// Typed failure of a plan execution or session request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AthenaError {
    /// The model cannot be compiled for this engine (includes the
    /// compile-time noise-budget guardrail,
    /// [`CompileError::NoiseBudget`]).
    Compile(CompileError),
    /// Batch input `input`'s shape differs from the first input's (one
    /// batch shares one plan).
    ShapeMismatch {
        /// Index of the offending input.
        input: usize,
        /// Shape of the batch's first input.
        expected: Vec<usize>,
        /// Shape of the offending input.
        got: Vec<usize>,
    },
    /// A probed run measured its invariant-noise budget at zero.
    NoiseExhausted(NoiseExhausted),
    /// A rotation schedule needed a Galois key that was never generated.
    KeyMissing {
        /// Source node index of the step that needed the key.
        node: usize,
        /// Step index within the node.
        step: usize,
        /// Step label.
        label: &'static str,
        /// The absent Galois element.
        element: usize,
        /// The elements keys exist for.
        available: Vec<usize>,
    },
    /// The FHE substrate rejected a precondition mid-step (encoder
    /// lengths, packing capacity, LWE dimensions — see [`FheError`]).
    Fhe {
        /// Source node index of the offending step.
        node: usize,
        /// Step index within the node.
        step: usize,
        /// Step label.
        label: &'static str,
        /// The typed substrate fault.
        source: FheError,
    },
    /// The cooperative per-step deadline expired before the step started.
    DeadlineExceeded {
        /// Source node index of the step that would have run next.
        node: usize,
        /// Step index within the node.
        step: usize,
        /// Step label.
        label: &'static str,
        /// The deadline that expired.
        deadline: Duration,
    },
    /// A step panicked with a payload the executor could not type.
    StepPanicked {
        /// Source node index of the panicking step.
        node: usize,
        /// Step index within the node.
        step: usize,
        /// Step label.
        label: &'static str,
        /// Stringified panic payload.
        payload: String,
    },
}

impl fmt::Display for AthenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AthenaError::Compile(e) => write!(f, "plan compilation failed: {e}"),
            AthenaError::ShapeMismatch {
                input,
                expected,
                got,
            } => write!(
                f,
                "batch input {input} has shape {got:?}, batch shape is {expected:?}"
            ),
            AthenaError::NoiseExhausted(e) => write!(f, "{e}"),
            AthenaError::KeyMissing {
                node,
                step,
                label,
                element,
                available,
            } => write!(
                f,
                "missing Galois key at node {node} step {step} ({label}): element {element}, \
                 available {available:?}"
            ),
            AthenaError::Fhe {
                node,
                step,
                label,
                source,
            } => write!(
                f,
                "FHE fault at node {node} step {step} ({label}): {source}"
            ),
            AthenaError::DeadlineExceeded {
                node,
                step,
                label,
                deadline,
            } => write!(
                f,
                "deadline of {deadline:?} exceeded before node {node} step {step} ({label})"
            ),
            AthenaError::StepPanicked {
                node,
                step,
                label,
                payload,
            } => write!(
                f,
                "step panicked at node {node} step {step} ({label}): {payload}"
            ),
        }
    }
}

impl std::error::Error for AthenaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AthenaError::Compile(e) => Some(e),
            AthenaError::NoiseExhausted(e) => Some(e),
            AthenaError::Fhe { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Stringifies a caught panic payload (`&str` and `String` payloads
/// verbatim — what `panic!` produces — anything else by a fixed marker).
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

impl From<CompileError> for AthenaError {
    fn from(e: CompileError) -> Self {
        AthenaError::Compile(e)
    }
}

impl From<NoiseExhausted> for AthenaError {
    fn from(e: NoiseExhausted) -> Self {
        AthenaError::NoiseExhausted(e)
    }
}

impl AthenaError {
    /// Whether a retry with fresh encryption randomness could plausibly
    /// succeed. Compile rejections, shape mismatches, noise exhaustion,
    /// missing keys, substrate precondition faults, and expired deadlines
    /// are deterministic — the same request fails the same way every time
    /// — so the retry loop fails fast on them. An untyped panic is the
    /// one transient kind: an attempt owns every buffer it touched, so
    /// nothing of the faulted attempt reaches the retry, which runs with
    /// fresh randomness.
    pub fn is_transient(&self) -> bool {
        matches!(self, AthenaError::StepPanicked { .. })
    }

    /// A stable short name of the variant, for reports and log lines.
    pub fn kind(&self) -> &'static str {
        match self {
            AthenaError::Compile(_) => "compile",
            AthenaError::ShapeMismatch { .. } => "shape-mismatch",
            AthenaError::NoiseExhausted(_) => "noise-exhausted",
            AthenaError::KeyMissing { .. } => "key-missing",
            AthenaError::Fhe { .. } => "fhe",
            AthenaError::DeadlineExceeded { .. } => "deadline-exceeded",
            AthenaError::StepPanicked { .. } => "step-panicked",
        }
    }
}

/// Retry discipline of a session request: how many attempts a transient
/// fault earns, with a fixed backoff between them. Retries re-encrypt
/// with a *fresh* sampler fork — the faulted attempt's randomness is
/// never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retries).
    pub max_attempts: u32,
    /// Sleep between attempts.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

/// Execution policy of one session request: deadline, retries, noise
/// probing, and the (test-only) fault plan to inject.
#[derive(Debug, Clone, Default)]
pub struct RunPolicy {
    /// Cooperative per-request deadline, checked before every step; the
    /// granularity is one step, so a step already running is never
    /// interrupted.
    pub deadline: Option<Duration>,
    /// Retry discipline for transient faults.
    pub retry: RetryPolicy,
    /// Whether to probe the measured noise budget after every
    /// RLWE-producing step and fail with [`AthenaError::NoiseExhausted`]
    /// the moment one reaches zero, instead of decrypting garbage at the
    /// end. Reads the secret key, so tests/debugging only: a production
    /// server holds none.
    pub probe: bool,
    /// Faults to inject (chaos testing); `None` in production.
    pub faults: Option<FaultPlan>,
}

impl RunPolicy {
    /// A policy with `deadline` set.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// A policy with `retry` set.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// A policy with the noise probe on.
    pub fn with_probe(mut self) -> Self {
        self.probe = true;
        self
    }

    /// A policy injecting `faults`.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_splits_the_taxonomy() {
        let transient = [AthenaError::StepPanicked {
            node: 0,
            step: 1,
            label: "pack",
            payload: "boom".into(),
        }];
        for e in &transient {
            assert!(e.is_transient(), "{e}");
        }
        let deterministic = [
            AthenaError::ShapeMismatch {
                input: 2,
                expected: vec![1, 5, 5],
                got: vec![1, 4, 4],
            },
            AthenaError::NoiseExhausted(NoiseExhausted {
                node: 0,
                step: 3,
                label: "fbs",
                budget: -1,
                analytic_bits: 40,
                consumed: None,
            }),
            AthenaError::KeyMissing {
                node: 0,
                step: 2,
                label: "s2c",
                element: 3,
                available: vec![5, 9],
            },
            AthenaError::DeadlineExceeded {
                node: 0,
                step: 0,
                label: "linear",
                deadline: Duration::ZERO,
            },
        ];
        for e in &deterministic {
            assert!(!e.is_transient(), "{e}");
        }
    }

    #[test]
    fn display_names_the_step() {
        let e = AthenaError::StepPanicked {
            node: 2,
            step: 5,
            label: "fbs",
            payload: "injected".into(),
        };
        let s = e.to_string();
        assert!(s.contains("node 2"), "{s}");
        assert!(s.contains("step 5"), "{s}");
        assert!(s.contains("fbs"), "{s}");
        assert_eq!(e.kind(), "step-panicked");
    }

    #[test]
    fn fhe_source_is_chained() {
        use std::error::Error;
        let e = AthenaError::Fhe {
            node: 1,
            step: 0,
            label: "pack",
            source: FheError::PackCapacity {
                lwes: 200,
                slots: 128,
            },
        };
        assert!(e.source().is_some());
        assert!(e.to_string().contains("more LWE ciphertexts than slots"));
    }
}
