//! Seeded fault injection for the plan executor: a [`FaultPlan`] chooses
//! *what* goes wrong at *which* step, and the step driver makes it happen
//! (`exec::drive` fires panics inside the step's bracket; `exec::Hook`
//! lands corruption on the next RLWE value a backend returns).
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
//! Composability: the driver is generic over the backend and its value
//! types, so faults inject into the encrypted pipeline, the noise
//! simulation, and the counting dry run alike (corruption is a
//! [`FaultTarget`] behavior of the value type, which every
//! [`super::PlanBackend::Rlwe`] implements; the unit values of the
//! counting backend corrupt to nothing).

use athena_fhe::bfv::BfvCiphertext;
use athena_math::prng::Prng;

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

    /// The stream that picks which word of which limb each
    /// [`FaultKind::CorruptLimb`] perturbs.
    pub(crate) fn corruption_prng(&self) -> Prng {
        Prng::seed_from_u64(self.seed ^ FAULT_SALT.rotate_left(17))
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
