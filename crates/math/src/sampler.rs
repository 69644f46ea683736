//! Randomness for lattice cryptography: uniform ring elements, ternary
//! secrets, and rounded-Gaussian error, all driven by a seedable PRNG so
//! tests are reproducible.
//!
//! The accelerator mirrors this module in hardware as its PRNG unit, which
//! regenerates the uniform `a`-halves of key-switching keys from
//! seeds to halve key storage and bandwidth (as CraterLake and SHARP do).

use crate::prng::Prng;

/// Default error standard deviation used across the stack (the classic 3.2
/// from the homomorphic-encryption security standard).
pub const DEFAULT_SIGMA: f64 = 3.2;

/// A seedable sampler for lattice noise and secrets.
///
/// # Examples
///
/// ```
/// use athena_math::sampler::Sampler;
/// let mut s = Sampler::from_seed(7);
/// let sk = s.ternary(16);
/// assert!(sk.iter().all(|&c| c == -1 || c == 0 || c == 1));
/// ```
#[derive(Debug)]
pub struct Sampler {
    rng: Prng,
    sigma: f64,
}

impl Sampler {
    /// Creates a sampler from a 64-bit seed with the default σ.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            rng: Prng::seed_from_u64(seed),
            sigma: DEFAULT_SIGMA,
        }
    }

    /// Creates a sampler from ambient entropy.
    pub fn from_entropy() -> Self {
        Self {
            rng: Prng::from_entropy(),
            sigma: DEFAULT_SIGMA,
        }
    }

    /// Overrides the Gaussian standard deviation.
    pub fn with_sigma(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        self.sigma = sigma;
        self
    }

    /// The Gaussian standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// A uniform value in `[0, q)`.
    pub fn uniform_mod(&mut self, q: u64) -> u64 {
        self.rng.next_below(q)
    }

    /// A vector of uniform values in `[0, q)`.
    pub fn uniform_vec(&mut self, q: u64, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.uniform_mod(q)).collect()
    }

    /// A ternary vector with entries in `{-1, 0, 1}` (uniform).
    pub fn ternary(&mut self, n: usize) -> Vec<i64> {
        (0..n).map(|_| self.rng.next_i64_in(-1, 1)).collect()
    }

    /// A rounded-Gaussian error vector with standard deviation σ, truncated
    /// at 6σ.
    pub fn gaussian(&mut self, n: usize) -> Vec<i64> {
        (0..n).map(|_| self.gaussian_one()).collect()
    }

    /// One rounded-Gaussian sample.
    pub fn gaussian_one(&mut self) -> i64 {
        if self.sigma == 0.0 {
            return 0;
        }
        let bound = (6.0 * self.sigma).ceil();
        loop {
            // Box–Muller
            let u1: f64 = self.rng.next_f64().max(f64::EPSILON);
            let u2: f64 = self.rng.next_f64();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let v = (z * self.sigma).round();
            if v.abs() <= bound {
                return v as i64;
            }
        }
    }

    /// Raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Derives an independent sampler (for splitting deterministic streams).
    pub fn fork(&mut self) -> Sampler {
        Sampler {
            rng: Prng::seed_from_u64(self.rng.next_u64()),
            sigma: self.sigma,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Sampler::from_seed(42);
        let mut b = Sampler::from_seed(42);
        assert_eq!(a.uniform_vec(1 << 30, 32), b.uniform_vec(1 << 30, 32));
        assert_eq!(a.gaussian(32), b.gaussian(32));
    }

    #[test]
    fn uniform_in_range() {
        let mut s = Sampler::from_seed(1);
        for _ in 0..1000 {
            assert!(s.uniform_mod(97) < 97);
        }
    }

    #[test]
    fn gaussian_statistics() {
        let mut s = Sampler::from_seed(9);
        let xs = s.gaussian(20_000);
        let mean: f64 = xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.2, "mean {mean}");
        let sigma2 = DEFAULT_SIGMA * DEFAULT_SIGMA;
        assert!((var - sigma2).abs() < sigma2 * 0.2, "var {var}");
        assert!(xs
            .iter()
            .all(|&x| x.abs() <= (6.0 * DEFAULT_SIGMA).ceil() as i64));
    }

    #[test]
    fn zero_sigma_yields_zero() {
        let mut s = Sampler::from_seed(3).with_sigma(0.0);
        assert!(s.gaussian(100).iter().all(|&x| x == 0));
    }

    #[test]
    fn fork_streams_differ() {
        let mut s = Sampler::from_seed(5);
        let mut f1 = s.fork();
        let mut f2 = s.fork();
        assert_ne!(f1.uniform_vec(1 << 20, 16), f2.uniform_vec(1 << 20, 16));
    }
}
