//! The [`PlanBackend`] trait and its three implementations.
//!
//! A backend supplies the *value types* and *primitive semantics* the
//! generic step interpreter ([`super::exec`]) drives; the interpreter owns
//! the control flow (group accumulation, pooling trees, residual adds), so
//! every backend interprets the identical step sequence:
//!
//! * [`EncryptedBackend`] — the real RNS-BFV pipeline. Each method wraps
//!   the corresponding [`AthenaEngine`] primitive; logits are bit-identical
//!   to the pre-refactor monolithic executor.
//! * [`NoiseSimBackend`] — exact mod-`t` integer arithmetic over plaintext
//!   vectors with the §3.2.2 `e_ms` rounding noise injected at every
//!   `q_mid → t` LWE drop. At σ = 0 it reproduces the plain-Q integer
//!   reference exactly; at σ > 0 it is the plan-certified counterpart of
//!   [`crate::simulate::simulate_inference`].
//! * [`CountingBackend`] — value-free: every method only tallies the
//!   analytic [`OpCounts`] of the schedule the engine would run. The
//!   compiler dry-runs it over the finished plan to backfill
//!   [`super::PlanStep::analytic`], so analytic accounting is literally
//!   the execution code path.

use athena_fhe::bfv::{BfvCiphertext, BfvEvaluator};
use athena_fhe::extract::SmallRlwe;
use athena_fhe::fbs::{expected_stats, FbsStats, Lut};
use athena_fhe::lwe::LweCiphertext;
use athena_math::modops::Modulus;
use athena_math::sampler::Sampler;

use crate::pipeline::{fbs_needs_mask, AthenaEngine, AthenaEvalKeys, AthenaSecrets, PipelineStats};
use crate::simulate::NoiseSpec;
use crate::trace::OpCounts;

use super::ir::ExecutionPlan;

/// Value types + one primitive per step semantic: what a plan interpreter
/// needs to run a compiled [`ExecutionPlan`] end to end.
///
/// `Rlwe` is a coefficient-encoded ring value (the `Q`-basis ciphertext of
/// the real pipeline), `Mid` its mod-switched `q_mid` form, and `Lwe` one
/// extracted sample. The composite steps (`MaxReduce`, `AvgReduce`,
/// `ResidualAdd`) are *not* trait methods: the interpreter decomposes them
/// into these primitives, so a backend cannot diverge from the executor on
/// the composites' structure.
pub trait PlanBackend {
    /// Coefficient-encoded ring value at the full modulus `Q`.
    type Rlwe: Clone;
    /// Mod-switched ring value at the extraction prime `q_mid`.
    type Mid;
    /// One extracted LWE sample.
    type Lwe: Clone;

    /// Encrypts the length-`n` coefficient vector of the input layout.
    fn encrypt_input(&mut self, coeffs: &[i64]) -> Self::Rlwe;
    /// One linear group: PMult by the encoded kernel + optional bias add.
    fn linear(&mut self, ct: &Self::Rlwe, kernel: &[i64], bias: &[(usize, i64)]) -> Self::Rlwe;
    /// Modulus switch `Q → q_mid`.
    fn mod_switch(&mut self, ct: &Self::Rlwe) -> Self::Mid;
    /// Sample extraction of the listed coefficients (Alg. 1).
    fn extract_lwes(&mut self, mid: &Self::Mid, positions: &[usize]) -> Vec<Self::Lwe>;
    /// LWE dimension switch `N → n`, optionally paying the final drop to
    /// `t` — the exact point where the paper's `e_ms` enters.
    fn dim_switch(&mut self, big: Vec<Self::Lwe>, drop_to_t: bool) -> Vec<Self::Lwe>;
    /// Exact LWE-level `a + mult·b` at the operands' shared modulus.
    fn lwe_add_scaled(&mut self, a: &Self::Lwe, b: &Self::Lwe, mult: i64) -> Self::Lwe;
    /// LWE → RLWE homomorphic decryption (trivial zeros where `None`).
    fn pack(&mut self, slots: &[Option<Self::Lwe>]) -> Self::Rlwe;
    /// Functional bootstrapping with `lut` (plus the non-valid-slot mask
    /// when the LUT moves 0 — `slots` carries the validity pattern).
    fn fbs(&mut self, packed: &Self::Rlwe, lut: &Lut, slots: &[Option<Self::Lwe>]) -> Self::Rlwe;
    /// Slot-to-coefficient bridge.
    fn s2c(&mut self, ct: &Self::Rlwe) -> Self::Rlwe;
    /// Client-side decrypt of the accumulator and dequantization.
    fn output(&mut self, acc: &[Self::Lwe], scale: f64) -> Vec<f64>;
    /// Drains the analytic counts accrued since the last call (the
    /// [`CountingBackend`]'s channel; other backends report none — their
    /// measured counts come from the `op-stats` counters instead).
    fn take_counts(&mut self) -> OpCounts {
        OpCounts::default()
    }
    /// Hook the executor calls immediately before interpreting the step
    /// at `(node, step)` — `index` is the flat execution-order step
    /// index. No-op by default; the fault-injection wrapper
    /// ([`super::FaultInjectingBackend`]) fires panics/sleeps here.
    fn note_step(&mut self, _node: usize, _step: usize, _index: usize) {}
    /// Drains the artificial noise-budget consumption (bits) armed since
    /// the last call. Zero by default; only the fault-injection wrapper
    /// ever arms any ([`super::FaultKind::NoiseSpike`]).
    fn take_spike(&mut self) -> u32 {
        0
    }
    /// The measured invariant-noise budget of `ct` in bits, for the
    /// executor's probe mode ([`super::RunPolicy::probe`]). `None` by
    /// default — measuring needs a secret key, which only
    /// [`EncryptedBackend`] holds — and a backend answering `None` is
    /// simply not probed.
    fn noise_budget(&self, _ct: &Self::Rlwe) -> Option<i64> {
        None
    }
}

/// The real pipeline: every primitive delegates to the corresponding
/// [`AthenaEngine`] call with this backend's keys, secrets, and sampler —
/// the exact calls (and sampler draws) of the pre-trait executor, so
/// logits are bit-identical.
pub struct EncryptedBackend<'a> {
    engine: &'a AthenaEngine,
    secrets: &'a AthenaSecrets,
    keys: &'a AthenaEvalKeys,
    sampler: &'a mut Sampler,
    stats: PipelineStats,
}

impl<'a> EncryptedBackend<'a> {
    /// Wraps an engine + key material + sampler into a backend.
    pub fn new(
        engine: &'a AthenaEngine,
        secrets: &'a AthenaSecrets,
        keys: &'a AthenaEvalKeys,
        sampler: &'a mut Sampler,
    ) -> Self {
        Self {
            engine,
            secrets,
            keys,
            sampler,
            stats: PipelineStats::default(),
        }
    }

    /// The aggregate pipeline statistics accrued so far.
    pub fn into_stats(self) -> PipelineStats {
        self.stats
    }
}

impl PlanBackend for EncryptedBackend<'_> {
    type Rlwe = BfvCiphertext;
    type Mid = SmallRlwe;
    type Lwe = LweCiphertext;

    fn encrypt_input(&mut self, coeffs: &[i64]) -> BfvCiphertext {
        let positions: Vec<usize> = (0..coeffs.len()).collect();
        self.engine
            .encrypt_at(coeffs, &positions, self.secrets, self.sampler)
    }

    fn linear(
        &mut self,
        ct: &BfvCiphertext,
        kernel: &[i64],
        bias: &[(usize, i64)],
    ) -> BfvCiphertext {
        self.engine.linear(ct, kernel, bias, &mut self.stats)
    }

    fn mod_switch(&mut self, ct: &BfvCiphertext) -> SmallRlwe {
        self.engine.mod_switch_mid(ct)
    }

    fn extract_lwes(&mut self, mid: &SmallRlwe, positions: &[usize]) -> Vec<LweCiphertext> {
        self.engine.sample_extract(mid, positions, &mut self.stats)
    }

    fn dim_switch(&mut self, big: Vec<LweCiphertext>, drop_to_t: bool) -> Vec<LweCiphertext> {
        let mut sw = self.engine.dim_switch(&big, self.keys);
        if drop_to_t {
            sw = self.engine.lwes_to_t(&sw);
        }
        sw
    }

    fn lwe_add_scaled(&mut self, a: &LweCiphertext, b: &LweCiphertext, mult: i64) -> LweCiphertext {
        self.engine.lwe_add_scaled(a, b, mult)
    }

    fn pack(&mut self, slots: &[Option<LweCiphertext>]) -> BfvCiphertext {
        self.engine.pack(slots, self.keys, &mut self.stats)
    }

    fn fbs(
        &mut self,
        packed: &BfvCiphertext,
        lut: &Lut,
        slots: &[Option<LweCiphertext>],
    ) -> BfvCiphertext {
        self.engine
            .fbs(packed, lut, slots, self.keys, &mut self.stats)
    }

    fn s2c(&mut self, ct: &BfvCiphertext) -> BfvCiphertext {
        self.engine.s2c(ct, self.keys, &mut self.stats)
    }

    fn output(&mut self, acc: &[LweCiphertext], scale: f64) -> Vec<f64> {
        self.engine
            .decrypt_lwes(acc, self.secrets)
            .iter()
            .map(|&v| v as f64 * scale)
            .collect()
    }

    fn noise_budget(&self, ct: &BfvCiphertext) -> Option<i64> {
        Some(BfvEvaluator::new(self.engine.context()).noise_budget(ct, &self.secrets.sk))
    }
}

/// One simulated LWE sample: the exact message value plus whether it has
/// been dropped to the plaintext modulus `t` (client-bound accumulators
/// stay at `q_mid`, where arithmetic never wraps mod `t` — mirroring the
/// real pipeline's level discipline).
#[derive(Debug, Clone, Copy)]
pub struct SimLwe {
    /// Centered message value.
    pub v: i64,
    /// Whether the sample lives at modulus `t` (wraps) or `q_mid` (exact).
    pub at_t: bool,
}

/// Noise-faithful plaintext interpreter: exact integer arithmetic over
/// centered mod-`t` coefficient vectors, with the §3.2.2 `e_ms` rounding
/// noise `N(0, (tσ/Q)² + (‖s‖²+1)/12)` injected at every `q_mid → t` LWE
/// drop — the only point where the encrypted pipeline perturbs the
/// plaintext computation. At σ = 0 no draws happen and the run is exactly
/// the plain-Q integer reference (given the `t/2` accumulator headroom of
/// §3.3).
///
/// Construction needs only the plan (for `n`, `t`) — no engine, keys, or
/// ciphertext work — so simulated runs cost microseconds. The `Linear`
/// primitive is an `O(n·nnz(kernel))` sparse negacyclic convolution,
/// mirroring the coefficient-encoded PMult.
pub struct NoiseSimBackend {
    n: usize,
    t: u64,
    sigma: f64,
    noise: Sampler,
}

impl NoiseSimBackend {
    /// Builds a simulator for `plan`, forking `sampler` for the noise
    /// stream exactly like [`crate::simulate::simulate_inference`] does.
    pub fn new(plan: &ExecutionPlan, noise: &NoiseSpec, sampler: &mut Sampler) -> Self {
        Self {
            n: plan.n,
            t: plan.t,
            sigma: noise.sigma,
            noise: sampler.fork().with_sigma(noise.sigma),
        }
    }

    fn center(&self, v: i64) -> i64 {
        let m = Modulus::new(self.t);
        m.center(m.from_i64(v))
    }
}

impl PlanBackend for NoiseSimBackend {
    /// Length-`n` centered mod-`t` coefficient (or slot) vector.
    type Rlwe = Vec<i64>;
    type Mid = Vec<i64>;
    type Lwe = SimLwe;

    fn encrypt_input(&mut self, coeffs: &[i64]) -> Vec<i64> {
        assert_eq!(coeffs.len(), self.n);
        coeffs.iter().map(|&v| self.center(v)).collect()
    }

    fn linear(&mut self, ct: &Vec<i64>, kernel: &[i64], bias: &[(usize, i64)]) -> Vec<i64> {
        // Sparse negacyclic convolution: X^i · X^j = ±X^{(i+j) mod n}.
        let n = self.n;
        let mut acc = vec![0i64; n];
        for (j, &w) in kernel.iter().enumerate() {
            if w == 0 {
                continue;
            }
            for (i, &a) in ct.iter().enumerate() {
                if a == 0 {
                    continue;
                }
                let k = i + j;
                if k < n {
                    acc[k] += a * w;
                } else {
                    acc[k - n] -= a * w;
                }
            }
        }
        for &(p, b) in bias {
            acc[p] += b;
        }
        acc.iter().map(|&v| self.center(v)).collect()
    }

    fn mod_switch(&mut self, ct: &Vec<i64>) -> Vec<i64> {
        // Q → q_mid rescales the noise, not the message.
        ct.to_vec()
    }

    fn extract_lwes(&mut self, mid: &Vec<i64>, positions: &[usize]) -> Vec<SimLwe> {
        positions
            .iter()
            .map(|&p| SimLwe {
                v: mid[p],
                at_t: false,
            })
            .collect()
    }

    fn dim_switch(&mut self, big: Vec<SimLwe>, drop_to_t: bool) -> Vec<SimLwe> {
        if !drop_to_t {
            return big;
        }
        big.into_iter()
            .map(|l| {
                let e = if self.sigma > 0.0 {
                    self.noise.gaussian_one()
                } else {
                    0
                };
                SimLwe {
                    v: self.center(l.v + e),
                    at_t: true,
                }
            })
            .collect()
    }

    fn lwe_add_scaled(&mut self, a: &SimLwe, b: &SimLwe, mult: i64) -> SimLwe {
        assert_eq!(a.at_t, b.at_t, "lwe_add_scaled: modulus mismatch");
        let v = a.v + mult * b.v;
        SimLwe {
            v: if a.at_t { self.center(v) } else { v },
            at_t: a.at_t,
        }
    }

    fn pack(&mut self, slots: &[Option<SimLwe>]) -> Vec<i64> {
        let mut out = vec![0i64; self.n];
        for (slot, o) in slots.iter().enumerate() {
            if let Some(l) = o {
                debug_assert!(l.at_t, "packing a q_mid-level LWE");
                out[slot] = l.v;
            }
        }
        out
    }

    fn fbs(&mut self, packed: &Vec<i64>, lut: &Lut, slots: &[Option<SimLwe>]) -> Vec<i64> {
        let needs_mask = fbs_needs_mask(lut, slots, self.n);
        (0..self.n)
            .map(|i| {
                let filled = matches!(slots.get(i), Some(Some(_)));
                if filled {
                    lut.get_signed(packed[i])
                } else if needs_mask {
                    0
                } else {
                    lut.get_signed(0)
                }
            })
            .collect()
    }

    fn s2c(&mut self, ct: &Vec<i64>) -> Vec<i64> {
        // Slot i moves to coefficient i — the identity on message values.
        ct.to_vec()
    }

    fn output(&mut self, acc: &[SimLwe], scale: f64) -> Vec<f64> {
        acc.iter().map(|l| l.v as f64 * scale).collect()
    }
}

/// Analytic counts of one FBS step: the dry-run BSGS schedule of the
/// interpolated LUT, the final constant add (paid whenever the evaluation
/// is non-trivial), and the non-valid-slot mask PMult when needed.
pub(crate) fn fbs_analytic(lut: &Lut, mask: bool) -> OpCounts {
    let es = expected_stats(lut);
    let mut c = OpCounts {
        cmult: es.cmult as u64,
        smult: es.smult as u64,
        hadd: es.hadd as u64,
        ..OpCounts::default()
    };
    if es != FbsStats::default() {
        c.hadd += 1; // the constant-coefficient add_plain
    }
    if mask {
        c.pmult += 1;
    }
    c
}

/// Value-free dry run: every primitive tallies the [`OpCounts`] of the
/// schedule the engine would execute — `pack` asks the engine's packing
/// schedule for its expected counts at the step's non-trivial slot count,
/// `fbs` dry-runs the interpolated LUT's BSGS evaluation, `s2c` reads the
/// transform's static schedule. The interpreter drains per-step totals via
/// [`PlanBackend::take_counts`]; `plan::compile` uses them to backfill
/// [`super::PlanStep::analytic`].
pub struct CountingBackend<'a> {
    engine: &'a AthenaEngine,
    counts: OpCounts,
}

impl<'a> CountingBackend<'a> {
    /// A counting backend borrowing the engine's schedules.
    pub fn new(engine: &'a AthenaEngine) -> Self {
        Self {
            engine,
            counts: OpCounts::default(),
        }
    }
}

impl PlanBackend for CountingBackend<'_> {
    type Rlwe = ();
    type Mid = ();
    type Lwe = ();

    fn encrypt_input(&mut self, _coeffs: &[i64]) {}

    fn linear(&mut self, _ct: &(), _kernel: &[i64], bias: &[(usize, i64)]) {
        self.counts.pmult += 1;
        self.counts.hadd += u64::from(!bias.is_empty());
    }

    fn mod_switch(&mut self, _ct: &()) {
        self.counts.mod_switch += 1;
    }

    fn extract_lwes(&mut self, _mid: &(), positions: &[usize]) -> Vec<()> {
        self.counts.sample_extract += positions.len() as u64;
        vec![(); positions.len()]
    }

    fn dim_switch(&mut self, big: Vec<()>, _drop_to_t: bool) -> Vec<()> {
        // LWE-level arithmetic is below the op-count abstraction.
        big
    }

    fn lwe_add_scaled(&mut self, _a: &(), _b: &(), _mult: i64) {}

    fn pack(&mut self, slots: &[Option<()>]) {
        let nontrivial = slots.iter().filter(|s| s.is_some()).count();
        self.counts
            .add(&self.engine.pack_expected_op_counts(nontrivial));
    }

    fn fbs(&mut self, _packed: &(), lut: &Lut, slots: &[Option<()>]) {
        let mask = fbs_needs_mask(lut, slots, self.engine.context().n());
        self.counts.add(&fbs_analytic(lut, mask));
    }

    fn s2c(&mut self, _ct: &()) {
        self.counts.add(&self.engine.slot_to_coeff().op_counts());
    }

    fn output(&mut self, acc: &[()], _scale: f64) -> Vec<f64> {
        vec![0.0; acc.len()]
    }

    fn take_counts(&mut self) -> OpCounts {
        std::mem::take(&mut self.counts)
    }
}
