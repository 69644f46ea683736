//! Seeded fault injection for the plan executor: a [`FaultPlan`] chooses
//! *what* goes wrong at *which* step, and [`FaultInjectingBackend`] wraps
//! any [`PlanBackend`] to make it happen.
//!
//! The harness exists to exercise the resilient serving path
//! ([`super::execute_resilient`], [`super::InferenceSession`]) against
//! the two failure modes a long-lived FHE server actually sees: a step
//! that panics mid-request, and a ciphertext whose limbs are corrupted (a
//! single perturbed word makes the CRT residues inconsistent, so the
//! measured invariant-noise budget collapses). Faults are chosen by an
//! in-repo PRNG under the same seed-salting discipline as
//! `crate::fuzz::gen`, so every chaos case is reproducible from `(seed,
//! case index)` alone.
//!
//! Composability: the wrapper is generic over the backend and its value
//! types — it injects into the encrypted pipeline, the noise simulation,
//! and the counting dry run alike (corruption is a [`FaultTarget`]
//! behavior of the value type; the unit values of the counting backend
//! corrupt to nothing).

use athena_fhe::bfv::BfvCiphertext;
use athena_fhe::fbs::Lut;
use athena_math::prng::Prng;

use crate::trace::OpCounts;

use super::backend::PlanBackend;

/// Seed salt of the fault-plan PRNG (the same discipline as
/// `fuzz::gen`: independent streams come from XOR salts on one seed).
const FAULT_SALT: u64 = 0x5f_a0_17_c3_8e_21_d9_44;

/// What goes wrong at an injected step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The step panics (a worker crash mid-request).
    Panic,
    /// One word of one limb of the step's RLWE output is perturbed,
    /// making its CRT residues inconsistent — under probing the measured
    /// budget collapses and the run fails typed as noise exhaustion.
    CorruptLimb,
}

impl FaultKind {
    /// A stable short name, for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::CorruptLimb => "corrupt-limb",
        }
    }
}

/// One injected fault: which flat step index it fires at, what it does,
/// and an optional filter for batch scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Flat step index (execution order across all layers) the fault
    /// fires at.
    pub step: usize,
    /// What goes wrong.
    pub kind: FaultKind,
    /// Fire only for this batch input index; `None` = every input. Lets
    /// a chaos case fault exactly one item of a batch and assert its
    /// neighbors are unharmed.
    pub on_input: Option<usize>,
}

impl FaultSpec {
    /// A fault firing at `step` on every input.
    pub fn at(step: usize, kind: FaultKind) -> Self {
        Self {
            step,
            kind,
            on_input: None,
        }
    }

    /// Restricts the fault to batch input `input`.
    pub fn on_input(mut self, input: usize) -> Self {
        self.on_input = Some(input);
        self
    }
}

/// A reproducible set of faults to inject into one execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the corruption PRNG (which word of which limb gets
    /// perturbed).
    pub seed: u64,
    /// The faults, in no particular order; at most one fires per step.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An explicit fault plan.
    pub fn new(seed: u64, faults: Vec<FaultSpec>) -> Self {
        Self { seed, faults }
    }

    /// The single-fault plan "panic at flat step `step`" — the workhorse
    /// of the chaos sweep.
    pub fn panic_at(step: usize) -> Self {
        Self::new(0, vec![FaultSpec::at(step, FaultKind::Panic)])
    }

    /// A seeded random fault plan over a plan of `step_count` steps:
    /// picks one step and one kind per `(seed, case)` pair, under the
    /// `fuzz::gen` salting discipline.
    pub fn seeded(seed: u64, case: usize, step_count: usize) -> Self {
        let mut r = Prng::seed_from_u64(seed ^ FAULT_SALT ^ (case as u64).wrapping_mul(0x9e37));
        let step = r.next_below(step_count.max(1) as u64) as usize;
        let kind = if r.next_below(2) == 0 {
            FaultKind::Panic
        } else {
            FaultKind::CorruptLimb
        };
        Self::new(seed, vec![FaultSpec::at(step, kind)])
    }

    /// The fault (if any) firing at flat step `index` for `input`.
    pub fn fault_at(&self, index: usize, input: Option<usize>) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.step == index && (f.on_input.is_none() || f.on_input == input))
            .map(|f| f.kind)
    }
}

/// A value a [`FaultKind::CorruptLimb`] fault can perturb. The encrypted
/// backend's ciphertexts take a single-word limb perturbation; the
/// simulation's integer vectors take a single-element perturbation; the
/// counting backend's unit values have nothing to corrupt.
pub trait FaultTarget {
    /// Perturbs one element of `self`, chosen by `prng`.
    fn corrupt(&mut self, prng: &mut Prng);
}

impl FaultTarget for BfvCiphertext {
    fn corrupt(&mut self, prng: &mut Prng) {
        // Perturb one word of one limb of part 0. The decrement keeps the
        // value reduced mod the limb prime (primes are > 2), but the CRT
        // residues are now inconsistent, so reconstruction — and with it
        // the measured invariant-noise budget — collapses.
        let part = &mut self.parts_mut()[0];
        let limb = prng.next_below(part.limb_count() as u64) as usize;
        let word = prng.next_below(part.n() as u64) as usize;
        let v = &mut part.limbs_mut()[limb].values_mut()[word];
        *v = if *v > 0 { *v - 1 } else { 1 };
    }
}

impl FaultTarget for Vec<i64> {
    fn corrupt(&mut self, prng: &mut Prng) {
        if !self.is_empty() {
            let i = prng.next_below(self.len() as u64) as usize;
            self[i] = self[i].wrapping_add(1);
        }
    }
}

impl FaultTarget for () {
    fn corrupt(&mut self, _prng: &mut Prng) {}
}

/// Wraps a backend and injects the faults of a [`FaultPlan`]: panics fire
/// in [`PlanBackend::note_step`] (before the step runs), and corruption
/// arms there and lands on the next RLWE value the backend produces.
pub struct FaultInjectingBackend<'p, B: PlanBackend> {
    inner: B,
    plan: &'p FaultPlan,
    input: Option<usize>,
    armed_corrupt: bool,
    prng: Prng,
}

impl<'p, B: PlanBackend> FaultInjectingBackend<'p, B> {
    /// Wraps `inner`, injecting `plan`'s faults for `input`.
    pub fn new(inner: B, plan: &'p FaultPlan, input: Option<usize>) -> Self {
        Self {
            inner,
            plan,
            input,
            armed_corrupt: false,
            prng: Prng::seed_from_u64(plan.seed ^ FAULT_SALT.rotate_left(17)),
        }
    }

    /// Unwraps the inner backend.
    pub fn into_inner(self) -> B {
        self.inner
    }

    fn maybe_corrupt(&mut self, mut v: B::Rlwe) -> B::Rlwe
    where
        B::Rlwe: FaultTarget,
    {
        if self.armed_corrupt {
            self.armed_corrupt = false;
            v.corrupt(&mut self.prng);
        }
        v
    }
}

impl<B: PlanBackend> PlanBackend for FaultInjectingBackend<'_, B>
where
    B::Rlwe: FaultTarget,
{
    type Rlwe = B::Rlwe;
    type Mid = B::Mid;
    type Lwe = B::Lwe;

    fn note_step(&mut self, node: usize, step: usize, index: usize) {
        self.inner.note_step(node, step, index);
        match self.plan.fault_at(index, self.input) {
            None => {}
            Some(FaultKind::Panic) => {
                panic!("injected fault: panic at node {node} step {step} (flat index {index})")
            }
            Some(FaultKind::CorruptLimb) => self.armed_corrupt = true,
        }
    }

    fn encrypt_input(&mut self, coeffs: &[i64]) -> Self::Rlwe {
        let v = self.inner.encrypt_input(coeffs);
        self.maybe_corrupt(v)
    }

    fn linear(&mut self, ct: &Self::Rlwe, kernel: &[i64], bias: &[(usize, i64)]) -> Self::Rlwe {
        let v = self.inner.linear(ct, kernel, bias);
        self.maybe_corrupt(v)
    }

    fn mod_switch(&mut self, ct: &Self::Rlwe) -> Self::Mid {
        self.inner.mod_switch(ct)
    }

    fn extract_lwes(&mut self, mid: &Self::Mid, positions: &[usize]) -> Vec<Self::Lwe> {
        self.inner.extract_lwes(mid, positions)
    }

    fn dim_switch(&mut self, big: Vec<Self::Lwe>, drop_to_t: bool) -> Vec<Self::Lwe> {
        self.inner.dim_switch(big, drop_to_t)
    }

    fn lwe_add_scaled(&mut self, a: &Self::Lwe, b: &Self::Lwe, mult: i64) -> Self::Lwe {
        self.inner.lwe_add_scaled(a, b, mult)
    }

    fn pack(&mut self, slots: &[Option<Self::Lwe>]) -> Self::Rlwe {
        let v = self.inner.pack(slots);
        self.maybe_corrupt(v)
    }

    fn fbs(&mut self, packed: &Self::Rlwe, lut: &Lut, slots: &[Option<Self::Lwe>]) -> Self::Rlwe {
        let v = self.inner.fbs(packed, lut, slots);
        self.maybe_corrupt(v)
    }

    fn s2c(&mut self, ct: &Self::Rlwe) -> Self::Rlwe {
        let v = self.inner.s2c(ct);
        self.maybe_corrupt(v)
    }

    fn output(&mut self, acc: &[Self::Lwe], scale: f64) -> Vec<f64> {
        self.inner.output(acc, scale)
    }

    fn take_counts(&mut self) -> OpCounts {
        self.inner.take_counts()
    }

    fn noise_budget(&self, ct: &Self::Rlwe) -> Option<i64> {
        self.inner.noise_budget(ct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_case_varied() {
        let a = FaultPlan::seeded(42, 0, 20);
        let b = FaultPlan::seeded(42, 0, 20);
        assert_eq!(a, b, "same (seed, case) must give the same plan");
        let kinds: Vec<FaultKind> = (0..16)
            .map(|c| FaultPlan::seeded(42, c, 20).faults[0].kind)
            .collect();
        assert!(
            kinds.iter().any(|k| matches!(k, FaultKind::Panic)),
            "16 cases should hit panic at least once: {kinds:?}"
        );
        assert!(
            kinds.iter().any(|k| !matches!(k, FaultKind::Panic)),
            "16 cases should hit a non-panic kind at least once: {kinds:?}"
        );
    }

    #[test]
    fn attempt_and_input_filters_gate_firing() {
        let plan = FaultPlan::new(
            0,
            vec![
                FaultSpec::at(3, FaultKind::Panic),
                FaultSpec::at(5, FaultKind::CorruptLimb).on_input(2),
            ],
        );
        assert_eq!(plan.fault_at(3, None), Some(FaultKind::Panic));
        assert_eq!(plan.fault_at(3, Some(1)), Some(FaultKind::Panic));
        assert_eq!(plan.fault_at(5, Some(2)), Some(FaultKind::CorruptLimb));
        assert_eq!(plan.fault_at(5, Some(1)), None, "input filter");
        assert_eq!(plan.fault_at(5, None), None, "no input in scope");
        assert_eq!(plan.fault_at(4, None), None, "unfaulted step");
    }

    #[test]
    fn corrupting_a_sim_vector_changes_one_element() {
        let mut v = vec![1i64, 2, 3, 4];
        let orig = v.clone();
        let mut prng = Prng::seed_from_u64(7);
        v.corrupt(&mut prng);
        let diffs = v.iter().zip(&orig).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
    }
}
