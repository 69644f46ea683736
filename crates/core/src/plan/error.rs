//! The unified error taxonomy of the serving path, and the run policy
//! (noise probe + injected faults) the resilient executor takes.
//!
//! Every failure a caller of [`super::InferenceSession`] or the resilient
//! executor ([`super::execute_resilient`]) can observe is an
//! [`AthenaError`] — a typed value naming the offending plan step, never a
//! raw panic payload. A request runs once: the pipeline is deterministic
//! for a given encryption draw, so a failure is reported, not retried.

use std::fmt;

use athena_fhe::FheError;

use super::exec::NoiseExhausted;
use super::fault::FaultPlan;
use super::ir::CompileError;

/// Typed failure of a plan execution or session request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AthenaError {
    /// The model cannot be compiled for this engine.
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
    /// A stable short name of the variant, for reports and log lines.
    pub fn kind(&self) -> &'static str {
        match self {
            AthenaError::Compile(_) => "compile",
            AthenaError::ShapeMismatch { .. } => "shape-mismatch",
            AthenaError::NoiseExhausted(_) => "noise-exhausted",
            AthenaError::KeyMissing { .. } => "key-missing",
            AthenaError::Fhe { .. } => "fhe",
            AthenaError::StepPanicked { .. } => "step-panicked",
        }
    }
}

/// Execution policy of one session request: noise probing, and the
/// (test-only) fault plan to inject.
#[derive(Debug, Clone, Default)]
pub struct RunPolicy {
    /// Whether to probe the measured noise budget of every RLWE value a
    /// step makes (the rounds of the max-pooling tree included) and fail
    /// with [`AthenaError::NoiseExhausted`] after the step where one
    /// reached zero, instead of decrypting garbage at the end. Reads the
    /// secret key, so tests/debugging only: a production server holds
    /// none.
    pub probe: bool,
    /// Faults to inject (chaos testing); `None` in production.
    pub faults: Option<FaultPlan>,
}

impl RunPolicy {
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
