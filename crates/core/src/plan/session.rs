//! [`InferenceSession`]: the serving-shaped front end over the plan
//! pipeline.
//!
//! A session owns an [`AthenaEngine`] and an LRU cache of compiled
//! artifacts, keyed by `(parameter fingerprint, model fingerprint, input
//! shape)`. A cache hit returns the pointer-identical
//! [`ExecutionPlan`] (and its key material), so repeated requests against
//! the same model pay compilation and [`AthenaEngine::keygen_for_plan`]
//! exactly once. [`InferenceSession::run_batch`] fans a batch of inputs
//! out over `athena_math::par` worker threads (the `ATHENA_THREADS`
//! knob), with per-input forked samplers so the results are bit-identical
//! to the same inputs run sequentially at any thread count.
//!
//! ## Resilience
//!
//! Every request is one [`super::execute_resilient`] call on the request's
//! own sampler fork: failures come back as typed [`AthenaError`] values
//! (never a raw panic), and a faulted request leaves no state behind for
//! later ones (its buffers are its own and are freed as it unwinds). A
//! [`RunPolicy`] can turn on the noise probe and, in chaos tests, inject
//! faults.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use athena_math::par;
use athena_math::sampler::Sampler;
use athena_nn::qmodel::{QModel, QOp};
use athena_nn::tensor::ITensor;

use crate::pipeline::{AthenaEngine, AthenaEvalKeys, AthenaSecrets};

use super::error::{panic_text, AthenaError, RunPolicy};
use super::exec::{execute_resilient, PlanRun};
use super::ir::{try_compile, CompileError, ExecutionPlan};

/// 64-bit FNV-1a — a tiny deterministic fingerprint hasher, enough to key
/// an in-process plan cache (collisions are astronomically unlikely at
/// the handful of models a session serves, and a collision only costs a
/// wrong cache hit between models the caller deliberately aliased).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        // Normalize before hashing: `-0.0` and `0.0` compare equal (and
        // behave identically through every scale computation), and all
        // NaN payloads behave alike, but their bit patterns differ —
        // hashing raw bits would key semantically identical models to
        // different cache slots.
        let bits = if v == 0.0 {
            0u64
        } else if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        };
        self.u64(bits);
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of the engine's parameter set.
fn fingerprint_params(engine: &AthenaEngine) -> u64 {
    let p = engine.context().params();
    let mut h = Fnv::new();
    h.usize(p.n);
    h.usize(p.q_primes.len());
    for &q in &p.q_primes {
        h.u64(q);
    }
    h.u64(p.t);
    h.usize(p.lwe_n);
    h.f64(p.sigma);
    h.u64(u64::from(p.lwe_ks_base_log));
    h.finish()
}

/// Structural fingerprint of a quantized model: weights, biases, scales,
/// shapes, dataflow. Two models hash equal iff they compile to the same
/// plan and execute identically.
fn fingerprint_model(model: &QModel) -> u64 {
    let mut h = Fnv::new();
    h.u64(u64::from(model.cfg.w_bits));
    h.u64(u64::from(model.cfg.a_bits));
    h.f64(model.input_scale);
    h.usize(model.nodes.len());
    for node in &model.nodes {
        h.usize(node.input);
        match node.skip {
            None => h.u64(0),
            Some((v, m)) => {
                h.u64(1);
                h.usize(v);
                h.i64(m);
            }
        }
        match &node.op {
            QOp::Linear(l) => {
                h.u64(2);
                h.usize(l.weight.shape().len());
                for &d in l.weight.shape() {
                    h.usize(d);
                }
                for &w in l.weight.data() {
                    h.i64(w);
                }
                for &b in &l.bias {
                    h.i64(b);
                }
                h.usize(l.stride);
                h.usize(l.padding);
                h.u64(u64::from(l.is_fc));
                h.u64(l.act as u64);
                h.f64(l.in_scale);
                h.f64(l.w_scale);
                h.f64(l.out_scale);
            }
            QOp::MaxPool { k } => {
                h.u64(3);
                h.usize(*k);
            }
            QOp::AvgPool { k } => {
                h.u64(4);
                h.usize(*k);
            }
        }
    }
    h.finish()
}

type CacheKey = (u64, u64, Vec<usize>);

/// One cached compiled artifact: the plan and the key material generated
/// for it, shared out to callers by `Arc`.
#[derive(Clone)]
struct CacheEntry {
    key: CacheKey,
    plan: Arc<ExecutionPlan>,
    secrets: Arc<AthenaSecrets>,
    keys: Arc<AthenaEvalKeys>,
}

/// Cache counters of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests served from the plan cache.
    pub hits: u64,
    /// Requests that compiled (and keygenned) a fresh plan.
    pub misses: u64,
    /// Plans currently cached.
    pub entries: usize,
    /// Always 0: limb buffers come from the system allocator, so no plan
    /// reserves memory. Kept only because the benchmark package reads it.
    pub arena_reserved: usize,
}

/// An owning inference server: engine + LRU plan cache + amortized
/// keygen + batched execution.
///
/// # Examples
///
/// ```no_run
/// use athena_core::pipeline::AthenaEngine;
/// use athena_core::plan::InferenceSession;
/// use athena_fhe::params::BfvParams;
/// use athena_math::sampler::Sampler;
/// # let model: athena_nn::qmodel::QModel = unimplemented!();
/// # let inputs: Vec<athena_nn::tensor::ITensor> = unimplemented!();
///
/// let mut session = InferenceSession::new(AthenaEngine::new(BfvParams::test_small()), 4, 42);
/// let mut sampler = Sampler::from_seed(7);
/// let results = session.run_batch(&model, &inputs, &mut sampler);
/// ```
pub struct InferenceSession {
    engine: AthenaEngine,
    params_fp: u64,
    capacity: usize,
    key_sampler: Sampler,
    entries: Vec<CacheEntry>,
    hits: u64,
    misses: u64,
}

impl InferenceSession {
    /// Creates a session over `engine` caching at most `capacity` compiled
    /// plans (LRU eviction). `key_seed` seeds the dedicated key-generation
    /// sampler, so key material is independent of request order and of the
    /// per-request encryption samplers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(engine: AthenaEngine, capacity: usize, key_seed: u64) -> Self {
        assert!(capacity > 0, "cache capacity must be at least 1");
        let params_fp = fingerprint_params(&engine);
        Self {
            engine,
            params_fp,
            capacity,
            key_sampler: Sampler::from_seed(key_seed),
            entries: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The engine this session serves with.
    pub fn engine(&self) -> &AthenaEngine {
        &self.engine
    }

    /// Cache counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries.len(),
            arena_reserved: 0,
        }
    }

    /// The compiled plan for `model` at `input_shape` — from cache when
    /// present (pointer-identical `Arc` across calls), compiled and
    /// keygenned on first use.
    ///
    /// # Panics
    ///
    /// Panics if the model fails to compile
    /// ([`InferenceSession::try_plan_for`] is the fallible form).
    pub fn plan_for(&mut self, model: &QModel, input_shape: &[usize]) -> Arc<ExecutionPlan> {
        self.try_plan_for(model, input_shape)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`InferenceSession::plan_for`]: returns the typed
    /// [`CompileError`] when the model cannot be served.
    pub fn try_plan_for(
        &mut self,
        model: &QModel,
        input_shape: &[usize],
    ) -> Result<Arc<ExecutionPlan>, CompileError> {
        Ok(self.entry_for(model, input_shape)?.plan)
    }

    /// Runs one encrypted inference through the session cache with a
    /// default [`RunPolicy`] (no probing, no faults).
    ///
    /// Forks `sampler` for the request's encryption draws, so a sequence
    /// of calls consumes exactly one fork per call — the property that
    /// makes [`InferenceSession::run_batch`] bit-identical to a sequential
    /// loop. Failures are typed [`AthenaError`] values, and the next clean
    /// request on this session is bit-identical to one on a session that
    /// never faulted.
    pub fn run_encrypted(
        &mut self,
        model: &QModel,
        input: &ITensor,
        sampler: &mut Sampler,
    ) -> Result<PlanRun, AthenaError> {
        self.run_encrypted_with(model, input, sampler, &RunPolicy::default())
    }

    /// [`InferenceSession::run_encrypted`] under an explicit
    /// [`RunPolicy`]: noise probing and (for chaos tests) fault injection.
    pub fn run_encrypted_with(
        &mut self,
        model: &QModel,
        input: &ITensor,
        sampler: &mut Sampler,
        policy: &RunPolicy,
    ) -> Result<PlanRun, AthenaError> {
        let mut fork = sampler.fork();
        let entry = self
            .entry_for(model, input.shape())
            .map_err(AthenaError::from)?;
        run_one(&self.engine, &entry, input, &mut fork, policy, None)
    }

    /// Runs a batch of encrypted inferences, fanning out over the
    /// `athena_math::par` worker pool (`ATHENA_THREADS`), with a default
    /// [`RunPolicy`].
    ///
    /// Samplers are forked from `sampler` sequentially (one per input, in
    /// order) before the parallel region, so the results — and the
    /// caller-visible sampler state afterwards — are bit-identical to
    /// calling [`InferenceSession::run_encrypted`] on each input in order,
    /// at any thread count. All inputs must share one shape (one plan).
    ///
    /// The outer `Result` fails for whole-batch problems (a shape
    /// mismatch, a compile rejection) before any ciphertext work; each
    /// inner `Result` is its input's own outcome, so one faulted item
    /// never affects its neighbors — the faulted worker classifies its
    /// failure as [`InferenceSession::run_encrypted`] does, and the other
    /// items' logits are bit-identical to an unfaulted batch.
    pub fn run_batch(
        &mut self,
        model: &QModel,
        inputs: &[ITensor],
        sampler: &mut Sampler,
    ) -> Result<Vec<Result<PlanRun, AthenaError>>, AthenaError> {
        self.run_batch_with(model, inputs, sampler, &RunPolicy::default())
    }

    /// [`InferenceSession::run_batch`] under an explicit [`RunPolicy`].
    /// The policy applies to every item; a [`super::FaultPlan`] in it can
    /// scope faults to single items via `FaultSpec::on_input`.
    pub fn run_batch_with(
        &mut self,
        model: &QModel,
        inputs: &[ITensor],
        sampler: &mut Sampler,
        policy: &RunPolicy,
    ) -> Result<Vec<Result<PlanRun, AthenaError>>, AthenaError> {
        let Some(first) = inputs.first() else {
            return Ok(Vec::new());
        };
        for (i, input) in inputs.iter().enumerate() {
            if input.shape() != first.shape() {
                return Err(AthenaError::ShapeMismatch {
                    input: i,
                    expected: first.shape().to_vec(),
                    got: input.shape().to_vec(),
                });
            }
        }
        let entry = self
            .entry_for(model, first.shape())
            .map_err(AthenaError::from)?;
        type JobResult = Result<PlanRun, AthenaError>;
        let mut jobs: Vec<(usize, Sampler, Option<JobResult>)> = inputs
            .iter()
            .enumerate()
            .map(|(i, _)| (i, sampler.fork(), None))
            .collect();
        let engine = &self.engine;
        par::parallel_for_each_mut_with(par::num_threads(), &mut jobs, |(i, fork, out)| {
            // `run_one` already catches per-step unwinds; this outer catch
            // is the backstop for a panic outside the step loop, so a
            // worker can never unwind through the batch.
            *out = Some(
                catch_unwind(AssertUnwindSafe(|| {
                    run_one(engine, &entry, &inputs[*i], fork, policy, Some(*i))
                }))
                .unwrap_or_else(|payload| {
                    Err(AthenaError::StepPanicked {
                        node: 0,
                        step: 0,
                        label: "batch",
                        payload: panic_text(payload.as_ref()),
                    })
                }),
            );
        });
        Ok(jobs
            .into_iter()
            .map(|(_, _, out)| {
                out.unwrap_or(Err(AthenaError::StepPanicked {
                    node: 0,
                    step: 0,
                    label: "batch",
                    payload: "job never ran".to_string(),
                }))
            })
            .collect())
    }

    /// Looks up (moving the entry to the back of the LRU order) or
    /// compiles + keygens the artifact for `(model, input_shape)`.
    fn entry_for(
        &mut self,
        model: &QModel,
        input_shape: &[usize],
    ) -> Result<CacheEntry, CompileError> {
        let key: CacheKey = (
            self.params_fp,
            fingerprint_model(model),
            input_shape.to_vec(),
        );
        if let Some(pos) = self.entries.iter().position(|e| e.key == key) {
            let entry = self.entries.remove(pos);
            self.entries.push(entry.clone());
            self.hits += 1;
            return Ok(entry);
        }
        self.misses += 1;
        let plan = Arc::new(try_compile(&self.engine, model, input_shape)?);
        let mut key_fork = self.key_sampler.fork();
        let (secrets, keys) = self.engine.keygen_for_plan(&plan, &mut key_fork);
        let entry = CacheEntry {
            key,
            plan,
            secrets: Arc::new(secrets),
            keys: Arc::new(keys),
        };
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push(entry.clone());
        Ok(entry)
    }
}

/// Executes one input against a cached artifact under `policy`, drawing
/// the encryption randomness from `fork` (the request's sampler fork).
fn run_one(
    engine: &AthenaEngine,
    entry: &CacheEntry,
    input: &ITensor,
    fork: &mut Sampler,
    policy: &RunPolicy,
    input_idx: Option<usize>,
) -> Result<PlanRun, AthenaError> {
    execute_resilient(
        engine,
        &entry.secrets,
        &entry.keys,
        &entry.plan,
        input,
        fork,
        policy,
        input_idx,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_nn::qmodel::{Activation, QLinear, QuantConfig};

    fn model_with_scales(input_scale: f64, out_scale: f64) -> QModel {
        QModel {
            nodes: vec![athena_nn::qmodel::QNode {
                op: QOp::Linear(QLinear {
                    weight: ITensor::from_vec(&[1, 4, 1, 1], vec![1, -1, 2, 0]),
                    bias: vec![0],
                    stride: 1,
                    padding: 0,
                    is_fc: true,
                    act: Activation::Identity,
                    in_scale: 1.0,
                    w_scale: 0.5,
                    out_scale,
                }),
                input: 0,
                skip: None,
            }],
            input_scale,
            cfg: QuantConfig::new(3, 3),
        }
    }

    /// `-0.0` and `0.0` scales are semantically identical (they compare
    /// equal and flow identically through every scale product), so they
    /// must fingerprint — and therefore cache — identically.
    #[test]
    fn negative_zero_scale_fingerprints_equal() {
        let a = fingerprint_model(&model_with_scales(0.5, 0.0));
        let b = fingerprint_model(&model_with_scales(0.5, -0.0));
        assert_eq!(a, b, "-0.0 vs 0.0 out_scale must not split the cache");
        let a = fingerprint_model(&model_with_scales(0.0, 1.0));
        let b = fingerprint_model(&model_with_scales(-0.0, 1.0));
        assert_eq!(a, b, "-0.0 vs 0.0 input_scale must not split the cache");
    }

    /// All NaN payloads behave alike downstream; they must hash alike.
    #[test]
    fn nan_payloads_fingerprint_equal() {
        let q1 = f64::NAN;
        let q2 = f64::from_bits(f64::NAN.to_bits() ^ 0x1); // different payload
        assert!(q2.is_nan());
        assert_ne!(q1.to_bits(), q2.to_bits());
        let a = fingerprint_model(&model_with_scales(1.0, q1));
        let b = fingerprint_model(&model_with_scales(1.0, q2));
        assert_eq!(a, b, "NaN payloads must not split the cache");
    }

    /// Distinct ordinary scales still fingerprint apart (the
    /// normalization only merges the degenerate classes).
    #[test]
    fn distinct_scales_fingerprint_apart() {
        let a = fingerprint_model(&model_with_scales(1.0, 0.5));
        let b = fingerprint_model(&model_with_scales(1.0, 0.25));
        assert_ne!(a, b);
    }
}
