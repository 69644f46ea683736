//! The cycle-level performance and energy model of the Athena accelerator.
//!
//! Per layer, per phase, the lowered [`Work`] is scheduled onto the units:
//!
//! * **NTT unit** — 256 radix-8 cores, 2048 butterflies/cycle: one
//!   single-limb `N = 2^15` NTT takes `5·(N/lanes) = 80` cycles (§4.2.1).
//! * **Automorphism unit** — 8 cores of width 256, `2(l + N/l)` cycles per
//!   poly, pipelined across cores (§4.2.1).
//! * **FRU array** — Region 1: `16 × 2048` cascaded MM+MA pairs; Region 0:
//!   one block of 2048 (§4.2.2).
//! * **SE unit** — one extraction per cycle after pipeline fill (§4.2.3).
//!
//! The FBS phase uses the Region-0/Region-1 pipelined dataflow of §4.3:
//! baby-step `SMult`/`HAdd` stream through Region 1 while giant-step
//! `CMult`s run on Region 0 + the NTT unit, so the phase latency is the
//! *maximum* of the two regions' work (the sum when the ablation flag
//! disables pipelining). Other phases are bandwidth-checked sums.

use athena_core::plan::ExecutionPlan;
use athena_core::trace::{ModelTrace, OpCounts, Phase, TraceParams};
use athena_nn::models::ModelSpec;
use athena_nn::qmodel::QuantConfig;

use crate::config::{floorplan, AccelConfig};
use crate::lower::{lower, Work};

/// Cycle/energy result for one phase of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseCost {
    /// Cycles.
    pub cycles: f64,
    /// Dynamic energy in joules.
    pub energy_j: f64,
}

/// Simulation result for a whole model.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Model name.
    pub model: &'static str,
    /// Total latency in milliseconds.
    pub latency_ms: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Per-phase totals.
    pub phase_costs: Vec<(Phase, PhaseCost)>,
    /// Per-unit busy-cycle totals (NTT, FRU, Automorphism, SE) plus memory
    /// energy, for the Fig. 10 breakdown.
    pub unit_energy_j: Vec<(&'static str, f64)>,
}

impl SimResult {
    /// Energy-delay product in J·s.
    pub fn edp(&self) -> f64 {
        self.energy_j * self.latency_ms / 1000.0
    }

    /// Energy-delay-area product in J·s·mm² (divided by 1000 for display
    /// parity with Fig. 11's scale).
    pub fn edap(&self, area_mm2: f64) -> f64 {
        self.edp() * area_mm2
    }
}

/// The simulator.
#[derive(Debug, Clone, Copy)]
pub struct AthenaSim {
    /// Hardware configuration.
    pub config: AccelConfig,
    /// Crypto parameters of the trace.
    pub params: TraceParams,
}

/// DRAM energy per byte (HBM2E class, ~4 pJ/bit ≈ 32 pJ/byte at the
/// paper's operating point; calibrated so memory is ≈ half the energy as
/// in Fig. 10).
const HBM_PJ_PER_BYTE: f64 = 32.0;
/// Scratchpad/NoC energy per byte touched by the FRU stream (heavy
/// operand reuse inside the cascaded MM+MA blocks).
const SRAM_PJ_PER_BYTE: f64 = 0.1;

impl AthenaSim {
    /// Simulator at the paper's configuration.
    pub fn athena() -> Self {
        Self {
            config: AccelConfig::athena(),
            params: TraceParams::athena_production(),
        }
    }

    /// Cycles for one single-limb NTT.
    fn ntt_poly_cycles(&self) -> f64 {
        let lanes = (self.config.ntt_cores * 8) as f64;
        // radix-8: log8(N) iterations, N/lanes vector passes each
        let iters = ((self.params.n as f64).log2() / 3.0).ceil();
        iters * (self.params.n as f64 / lanes).max(1.0)
    }

    /// Cycles for one automorphism poly pass.
    fn autom_poly_cycles(&self) -> f64 {
        let l = 256.0;
        let n = self.params.n as f64;
        2.0 * (l + n / l) / self.config.autom_cores as f64
    }

    fn r1_mma_per_cycle(&self) -> f64 {
        (self.config.fru_blocks_r1 * 2048) as f64
    }

    fn r0_mma_per_cycle(&self) -> f64 {
        (self.config.fru_blocks_r0 * 2048) as f64
    }

    /// Schedules one phase's ops; `pipelined_fbs` applies the §4.3 overlap.
    fn phase_cycles(&self, phase: Phase, ops: &OpCounts) -> (f64, Work) {
        let w = lower(ops, &self.params);
        let is_fbs_phase = matches!(phase, Phase::Activation | Phase::Pooling | Phase::Softmax);
        let ntt_cy = w.ntt_polys as f64 * self.ntt_poly_cycles();
        let autom_cy = w.autom_polys as f64 * self.autom_poly_cycles();
        // SE shifter width follows the lane count (1 extraction/cycle at
        // full width).
        let se_cy = w.se_cycles as f64 * 2048.0 / self.config.lanes as f64;
        let cycles = if is_fbs_phase && self.config.fbs_pipelined {
            // Region 1: the baby-step SMult/HAdd stream.
            let bulk = lower(
                &OpCounts {
                    smult: ops.smult,
                    hadd: ops.hadd,
                    ..OpCounts::default()
                },
                &self.params,
            );
            let r1 = (bulk.fru_mm + bulk.fru_ma / 2) as f64 / self.r1_mma_per_cycle();
            // Region 0: CMult MM work + its NTTs (NTT unit runs alongside).
            let cm = lower(
                &OpCounts {
                    cmult: ops.cmult,
                    ..OpCounts::default()
                },
                &self.params,
            );
            let r0 = (cm.fru_mm + cm.fru_ma / 2) as f64 / self.r0_mma_per_cycle();
            let r0 = r0.max(cm.ntt_polys as f64 * self.ntt_poly_cycles());
            r1.max(r0) + autom_cy + se_cy
        } else {
            // Sequential: all MM/MA on the combined FRU capacity.
            let fru = (w.fru_mm + w.fru_ma / 2) as f64
                / (self.r1_mma_per_cycle() + self.r0_mma_per_cycle());
            fru + ntt_cy + autom_cy + se_cy
        };
        // Bandwidth check against HBM.
        let hbm_bytes_per_cycle = self.config.hbm_tbs * 1e12 / (self.config.freq_ghz * 1e9);
        let mem_cycles = w.hbm_bytes as f64 / hbm_bytes_per_cycle;
        (cycles.max(mem_cycles), w)
    }

    /// Runs the model trace through the cycle model.
    pub fn run(&self, trace: &ModelTrace) -> SimResult {
        let comps = floorplan();
        let power = |name: &str| -> f64 {
            comps
                .iter()
                .find(|c| c.name.starts_with(name))
                .map(|c| c.peak_power_w)
                .unwrap_or(0.0)
        };
        let freq = self.config.freq_ghz * 1e9;
        let mut phase_costs: Vec<(Phase, PhaseCost)> = Phase::all()
            .iter()
            .map(|&p| (p, PhaseCost::default()))
            .collect();
        let mut total_cycles = 0.0;
        let mut unit_cycles = [0.0f64; 4]; // ntt, fru, autom, se
        let mut hbm_bytes = 0u64;
        let mut sram_bytes = 0u64;
        for layer in &trace.layers {
            total_cycles += self.config.layer_overhead_cycles;
            if let Some((_, slot)) = phase_costs
                .iter_mut()
                .find(|(p, _)| *p == Phase::Conversion)
            {
                slot.cycles += self.config.layer_overhead_cycles;
            }
            for (phase, ops) in &layer.phases {
                let (cycles, w) = self.phase_cycles(*phase, ops);
                total_cycles += cycles;
                let slot = phase_costs
                    .iter_mut()
                    .find(|(p, _)| p == phase)
                    .expect("phase exists");
                slot.1.cycles += cycles;
                unit_cycles[0] += w.ntt_polys as f64 * self.ntt_poly_cycles();
                unit_cycles[1] += (w.fru_mm + w.fru_ma / 2) as f64 / self.r1_mma_per_cycle();
                unit_cycles[2] += w.autom_polys as f64 * self.autom_poly_cycles();
                unit_cycles[3] += w.se_cycles as f64;
                hbm_bytes += w.hbm_bytes;
                sram_bytes += (w.fru_mm + w.fru_ma) * 16; // 2×8B operands
            }
        }
        // Energy: unit busy time × unit power + memory traffic.
        let e_ntt = unit_cycles[0] / freq * power("NTT");
        let e_fru = unit_cycles[1] / freq * power("FRU");
        let e_autom = unit_cycles[2] / freq * power("Automorphism");
        let e_se = unit_cycles[3] / freq * power("SE");
        let e_noc = total_cycles / freq * power("NoC") * 0.5;
        let e_hbm = hbm_bytes as f64 * HBM_PJ_PER_BYTE * 1e-12;
        let e_sram = sram_bytes as f64 * SRAM_PJ_PER_BYTE * 1e-12;
        let energy = e_ntt + e_fru + e_autom + e_se + e_noc + e_hbm + e_sram;
        // Distribute energy into phases proportionally to cycles.
        for (_, c) in &mut phase_costs {
            c.energy_j = energy * c.cycles / total_cycles.max(1.0);
        }
        SimResult {
            model: trace.name,
            latency_ms: total_cycles / freq * 1e3,
            energy_j: energy,
            phase_costs,
            unit_energy_j: vec![
                ("NTT", e_ntt),
                ("FRU", e_fru),
                ("Automorphism", e_autom),
                ("SE", e_se),
                ("NoC", e_noc),
                ("Memory", e_hbm + e_sram),
            ],
        }
    }

    /// Convenience: trace + run a model spec.
    pub fn run_model(&self, spec: &ModelSpec, quant: &QuantConfig) -> SimResult {
        let trace = athena_core::trace::trace_model(spec, &self.params, quant);
        self.run(&trace)
    }

    /// Runs a compiled execution plan through the cycle model: the trace is
    /// derived from the plan's own per-step analytic op counts
    /// ([`ExecutionPlan::to_trace`]), so the accelerator sees exactly the
    /// schedules the executor runs — not a separately-maintained analytic
    /// model.
    pub fn run_plan(
        &self,
        plan: &ExecutionPlan,
        name: &'static str,
        quant: &QuantConfig,
    ) -> SimResult {
        self.run(&plan.to_trace(name, quant))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_nn::models::ModelSpec;

    #[test]
    fn run_plan_matches_to_trace_run() {
        use athena_core::pipeline::AthenaEngine;
        use athena_core::plan;
        use athena_fhe::params::BfvParams;
        use athena_nn::qmodel::{Activation, QLinear, QModel, QNode, QOp};
        use athena_nn::tensor::ITensor;

        let engine = AthenaEngine::new(BfvParams::test_small());
        let model = QModel {
            nodes: vec![
                QNode {
                    op: QOp::Linear(QLinear {
                        weight: ITensor::from_vec(&[2, 1, 3, 3], vec![1; 18]),
                        bias: vec![0, 0],
                        stride: 1,
                        padding: 0,
                        is_fc: false,
                        act: Activation::ReLU,
                        in_scale: 1.0,
                        w_scale: 1.0,
                        out_scale: 1.0,
                    }),
                    input: 0,
                    skip: None,
                },
                QNode {
                    op: QOp::Linear(QLinear {
                        weight: ITensor::from_vec(&[3, 18, 1, 1], vec![0; 54]),
                        bias: vec![0; 3],
                        stride: 1,
                        padding: 0,
                        is_fc: true,
                        act: Activation::Identity,
                        in_scale: 1.0,
                        w_scale: 1.0,
                        out_scale: 1.0,
                    }),
                    input: 1,
                    skip: None,
                },
            ],
            input_scale: 1.0,
            cfg: QuantConfig::new(3, 3),
        };
        let plan = plan::compile(&engine, &model, &[1, 5, 5]);
        let sim = AthenaSim::athena();
        let r = sim.run_plan(&plan, "tiny", &model.cfg);
        assert_eq!(r.model, "tiny");
        assert!(r.latency_ms > 0.0 && r.latency_ms.is_finite());
        assert!(r.energy_j > 0.0);
        // Same numbers as lowering the derived trace directly.
        let direct = sim.run(&plan.to_trace("tiny", &model.cfg));
        assert_eq!(r.latency_ms, direct.latency_ms);
        assert_eq!(r.energy_j, direct.energy_j);
    }

    #[test]
    fn resnet20_latency_in_paper_ballpark() {
        let sim = AthenaSim::athena();
        let r = sim.run_model(&ModelSpec::resnet(3), &QuantConfig::w7a7());
        // Paper: 65.5 ms. The model should land within ~2×.
        assert!(
            r.latency_ms > 30.0 && r.latency_ms < 140.0,
            "ResNet-20 latency {} ms",
            r.latency_ms
        );
    }

    #[test]
    fn w6a7_is_faster_than_w7a7() {
        let sim = AthenaSim::athena();
        let a = sim.run_model(&ModelSpec::resnet(3), &QuantConfig::w7a7());
        let b = sim.run_model(&ModelSpec::resnet(3), &QuantConfig::w6a7());
        assert!(
            b.latency_ms < a.latency_ms,
            "{} !< {}",
            b.latency_ms,
            a.latency_ms
        );
    }

    #[test]
    fn pipelining_helps_fbs() {
        let mut sim = AthenaSim::athena();
        let with = sim.run_model(&ModelSpec::resnet(3), &QuantConfig::w7a7());
        sim.config.fbs_pipelined = false;
        let without = sim.run_model(&ModelSpec::resnet(3), &QuantConfig::w7a7());
        assert!(
            without.latency_ms > with.latency_ms * 1.1,
            "pipelined {} vs sequential {}",
            with.latency_ms,
            without.latency_ms
        );
    }

    #[test]
    fn fbs_dominates_execution_time() {
        let sim = AthenaSim::athena();
        let r = sim.run_model(&ModelSpec::resnet(3), &QuantConfig::w7a7());
        let total: f64 = r.phase_costs.iter().map(|(_, c)| c.cycles).sum();
        let nonlinear: f64 = r
            .phase_costs
            .iter()
            .filter(|(p, _)| matches!(p, Phase::Activation | Phase::Pooling | Phase::Softmax))
            .map(|(_, c)| c.cycles)
            .sum();
        let share = nonlinear / total;
        // Fig. 9: the non-linear share is the largest, up to ~72%.
        assert!(share > 0.35 && share < 0.9, "non-linear share {share}");
    }

    #[test]
    fn energy_split_has_large_memory_share() {
        let sim = AthenaSim::athena();
        let r = sim.run_model(&ModelSpec::resnet(3), &QuantConfig::w7a7());
        let mem = r
            .unit_energy_j
            .iter()
            .find(|(n, _)| *n == "Memory")
            .expect("memory row")
            .1;
        let share = mem / r.energy_j;
        // Fig. 10: memory ≈ 50%.
        assert!(share > 0.25 && share < 0.75, "memory share {share}");
        // FRU is the largest compute consumer.
        let fru = r
            .unit_energy_j
            .iter()
            .find(|(n, _)| *n == "FRU")
            .expect("fru")
            .1;
        for (n, e) in &r.unit_energy_j {
            if *n != "FRU" && *n != "Memory" {
                assert!(fru >= *e, "FRU ({fru}) must dominate {n} ({e})");
            }
        }
    }

    #[test]
    fn resnet56_scales_about_3x() {
        let sim = AthenaSim::athena();
        let a = sim.run_model(&ModelSpec::resnet(3), &QuantConfig::w7a7());
        let b = sim.run_model(&ModelSpec::resnet(9), &QuantConfig::w7a7());
        let ratio = b.latency_ms / a.latency_ms;
        assert!(ratio > 2.2 && ratio < 3.8, "RN56/RN20 ratio {ratio}");
    }
}
