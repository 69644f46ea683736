//! Noise-faithful fast simulation of encrypted inference.
//!
//! The encrypted pipeline's only effect on the *plaintext computation* is
//! the noise `e_ms` added to every linear-layer accumulator before its remap
//! LUT (§3.2.2): modulus-switch rounding plus the residue of the dimension
//! switch, modelled as `N(0, (tσ/Q)² + (‖s‖² + 1)/12)` — with `‖s‖² ≈ 2n/3`
//! for a ternary secret of dimension `n`. This module runs the exact integer
//! pipeline with that noise injected, which is what makes Table 5 /
//! Fig. 4 / Fig. 12 computable for full-size ResNets in seconds instead of
//! hours of real FHE.
//!
//! The model is validated against the real pipeline in the integration
//! tests: the measured `e_ms` distribution of `athena_core::pipeline`
//! matches this sampler's parameters.

use athena_fhe::params::BfvParams;
use athena_math::sampler::Sampler;
use athena_nn::qmodel::{QModel, QStats};
use athena_nn::tensor::{ITensor, Tensor};

/// Parameters of the `e_ms` noise model.
#[derive(Debug, Clone, Copy)]
pub struct NoiseSpec {
    /// Standard deviation of the accumulator noise.
    pub sigma: f64,
}

impl NoiseSpec {
    /// From the cryptosystem: the §3.2.2 model
    /// `e_ms ~ N(0, (tσ/Q)² + (‖s‖² + 1)/12)` with `‖s‖² ≈ 2n/3` for a
    /// ternary LWE secret of dimension `lwe_n`. The first term carries
    /// the fresh error σ scaled down by the `Q → t` modulus switch; at
    /// production parameters (`log₂ Q = 720`) it is astronomically small,
    /// but it belongs to the model and matters for hypothetical shallow
    /// moduli.
    pub fn from_params(lwe_n: usize, sigma_fresh: f64, t: u64, log2_q: f64) -> Self {
        let scaled_fresh = (t as f64) * sigma_fresh / log2_q.exp2();
        let s_norm_sq = 2.0 * lwe_n as f64 / 3.0;
        Self {
            sigma: (scaled_fresh * scaled_fresh + (s_norm_sq + 1.0) / 12.0).sqrt(),
        }
    }

    /// The noise model induced by a concrete parameter set.
    pub fn for_bfv(params: &BfvParams) -> Self {
        Self::from_params(params.lwe_n, params.sigma, params.t, params.q_bits() as f64)
    }

    /// The paper's production model (`n = 2048`, `t = 65537`,
    /// `log₂ Q = 720`): σ ≈ 10.7, i.e. about 4 bits — the "e_ms typically
    /// falls within about 4 bits" claim.
    pub fn athena_production() -> Self {
        Self::from_params(2048, 3.2, 65537, 720.0)
    }

    /// Noise-free (for plain-Q baselines).
    pub fn zero() -> Self {
        Self { sigma: 0.0 }
    }
}

/// Result of a simulated encrypted inference.
#[derive(Debug, Clone)]
pub struct SimulatedRun {
    /// Float logits.
    pub logits: Vec<f64>,
    /// Predicted class.
    pub predicted: usize,
    /// Accumulator statistics (max MAC per layer — Fig. 4's orange line).
    pub stats: QStats,
}

/// Simulates one encrypted inference.
///
/// It walks [`QModel::forward_with_noise`] directly, without compiling a
/// plan, so it also runs the full-size ResNets whose layers exceed the
/// one-channel-group-per-ciphertext limit of the plan compiler. For models
/// that do compile it is validated against the plan-certified path
/// ([`crate::plan::execute_sim`], which drives
/// [`crate::plan::NoiseSimBackend`] step-by-step from the compiled plan)
/// in the backend-equivalence tests: at σ = 0 both are exactly the
/// plain-Q integer reference.
pub fn simulate_inference(
    model: &QModel,
    input: &ITensor,
    noise: &NoiseSpec,
    sampler: &mut Sampler,
) -> SimulatedRun {
    let mut stats = QStats::default();
    let mut gen = {
        let mut s = sampler.fork().with_sigma(noise.sigma);
        move || s.gaussian_one()
    };
    let logits = if noise.sigma > 0.0 {
        model.forward_with_noise(input, Some(&mut gen), &mut stats)
    } else {
        model.forward_with_noise(input, None, &mut stats)
    };
    let predicted = crate::util::argmax(&logits);
    SimulatedRun {
        logits,
        predicted,
        stats,
    }
}

/// Accuracy of the simulated encrypted pipeline over a labelled set.
pub fn simulated_accuracy(
    model: &QModel,
    images: &[Tensor],
    labels: &[usize],
    noise: &NoiseSpec,
    sampler: &mut Sampler,
) -> f64 {
    let correct = images
        .iter()
        .zip(labels)
        .filter(|(img, &label)| {
            let q = model.quantize_input(img);
            simulate_inference(model, &q, noise, sampler).predicted == label
        })
        .count();
    correct as f64 / images.len() as f64
}

/// Per-layer error ratio (Fig. 4's blue line): fraction of post-remap
/// activations that differ between the noisy and noise-free pipelines.
pub fn per_layer_error_ratio(
    model: &QModel,
    images: &[Tensor],
    noise: &NoiseSpec,
    sampler: &mut Sampler,
) -> Vec<f64> {
    let n_nodes = model.nodes.len();
    let mut diff = vec![0usize; n_nodes];
    let mut total = vec![0usize; n_nodes];
    for img in images {
        let q = model.quantize_input(img);
        let mut st0 = QStats::default();
        let (_, clean) = model.forward_traced(&q, None, &mut st0);
        let mut gen = {
            let mut s = sampler.fork().with_sigma(noise.sigma);
            move || s.gaussian_one()
        };
        let mut st1 = QStats::default();
        let (_, noisy) = model.forward_traced(&q, Some(&mut gen), &mut st1);
        for ni in 0..n_nodes {
            let (a, b) = (&clean[ni + 1], &noisy[ni + 1]);
            total[ni] += a.len();
            diff[ni] += a
                .data()
                .iter()
                .zip(b.data())
                .filter(|(x, y)| x != y)
                .count();
        }
    }
    diff.iter()
        .zip(&total)
        .map(|(&d, &t)| if t == 0 { 0.0 } else { d as f64 / t as f64 })
        .collect()
}

/// Max |accumulator| per layer across a set (Fig. 4's orange line), plus
/// the `t/2` headroom check of §3.3.
pub fn max_mac_per_layer(model: &QModel, images: &[Tensor]) -> Vec<i64> {
    let mut agg = QStats::default();
    for img in images {
        let q = model.quantize_input(img);
        let mut st = QStats::default();
        let _ = model.forward_with_noise(&q, None, &mut st);
        agg.merge(&st);
    }
    // one entry per node
    let mut v = agg.max_acc;
    v.resize(model.nodes.len(), 0);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_math::sampler::Sampler;
    use athena_nn::data::{SyntheticConfig, SyntheticSource};
    use athena_nn::models::ModelKind;
    use athena_nn::qmodel::QuantConfig;
    use athena_nn::quant::quantize;
    use athena_nn::train::{train, TrainConfig};

    fn trained_qmodel() -> (QModel, Vec<Tensor>, Vec<usize>) {
        let src = SyntheticSource::new(SyntheticConfig::mnist_like(), 33);
        let train_set = src.generate(240, 1);
        let test_set = src.generate(100, 2);
        let mut s = Sampler::from_seed(12);
        let mut net = ModelKind::Mnist.build(&mut s);
        train(&mut net, &train_set, &TrainConfig::default(), &mut s);
        let calib: Vec<Tensor> = train_set.images.iter().take(24).cloned().collect();
        let qm = quantize(&net, &calib, QuantConfig::w7a7());
        (qm, test_set.images, test_set.labels)
    }

    #[test]
    fn production_noise_is_about_four_bits() {
        let n = NoiseSpec::athena_production();
        assert!(n.sigma > 8.0 && n.sigma < 14.0, "sigma = {}", n.sigma);
        // "about 4 bits"
        assert!((n.sigma.log2() - 4.0).abs() < 1.0);
        // Pin the constant: σ = sqrt((tσ_f/Q)² + (2·2048/3 + 1)/12) ≈ 10.67,
        // the (tσ_f/Q)² term being ~2^-1370 at log₂Q = 720.
        assert!((n.sigma - 10.67).abs() < 0.05, "sigma = {}", n.sigma);
    }

    #[test]
    fn fresh_term_contributes_at_shallow_modulus() {
        // With Q barely above t the scaled fresh error dominates: t·σ/Q =
        // 65537·3.2/2^20 ≈ 0.2 adds in quadrature over the rounding term.
        let deep = NoiseSpec::from_params(2048, 3.2, 65537, 720.0);
        let shallow = NoiseSpec::from_params(2048, 3.2, 65537, 20.0);
        assert!(shallow.sigma > deep.sigma);
        let expected = {
            let fresh = 65537.0 * 3.2 / (2f64).powi(20);
            let round = (2.0 * 2048.0 / 3.0 + 1.0) / 12.0;
            (fresh * fresh + round).sqrt()
        };
        assert!((shallow.sigma - expected).abs() < 1e-9);
    }

    #[test]
    fn for_bfv_matches_explicit_params() {
        let p = athena_fhe::params::BfvParams::test_small();
        let a = NoiseSpec::for_bfv(&p);
        let b = NoiseSpec::from_params(p.lwe_n, p.sigma, p.t, p.q_bits() as f64);
        assert_eq!(a.sigma.to_bits(), b.sigma.to_bits());
    }

    #[test]
    fn noise_barely_moves_accuracy() {
        let (qm, images, labels) = trained_qmodel();
        let mut s = Sampler::from_seed(44);
        let clean = simulated_accuracy(&qm, &images, &labels, &NoiseSpec::zero(), &mut s);
        let noisy = simulated_accuracy(
            &qm,
            &images,
            &labels,
            &NoiseSpec::athena_production(),
            &mut s,
        );
        assert!(clean > 0.75, "clean accuracy {clean}");
        assert!(
            (clean - noisy).abs() <= 0.05,
            "cipher-sim accuracy moved too much: {clean} -> {noisy}"
        );
    }

    #[test]
    fn error_ratio_is_small_but_nonzero() {
        let (qm, images, _) = trained_qmodel();
        let mut s = Sampler::from_seed(45);
        let ratios =
            per_layer_error_ratio(&qm, &images[..10], &NoiseSpec::athena_production(), &mut s);
        // Fig. 4: most layers < 6%, max < ~11% — allow a loose upper bound,
        // but require the effect to exist and be small. The final node is
        // excluded: it has no remap LUT, so its raw accumulators absorb the
        // noise directly (the paper's figure likewise plots remapped
        // layers).
        for (i, &r) in ratios.iter().enumerate().take(ratios.len() - 1) {
            assert!(r < 0.35, "layer {i} error ratio {r}");
        }
        assert!(
            ratios.iter().any(|&r| r > 0.0),
            "noise should flip something"
        );
    }

    #[test]
    fn max_mac_fits_plaintext_modulus() {
        let (qm, images, _) = trained_qmodel();
        let macs = max_mac_per_layer(&qm, &images[..20]);
        // §3.3: t = 65537 holds the maximum MAC results under w7a7.
        for (i, &m) in macs.iter().enumerate() {
            assert!(m < 65537 / 2, "layer {i} max MAC {m} exceeds t/2");
        }
        assert!(macs.iter().any(|&m| m > 0));
    }
}
