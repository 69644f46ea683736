//! Baby-step/giant-step decompositions used throughout Athena: polynomial
//! evaluation (Alg. 2 of the paper, after Paterson–Stockmeyer) and
//! matrix-vector rotation schedules.

/// A baby-step/giant-step split of a problem of size `total`:
/// `total <= baby * giant`, with `baby = ceil(sqrt(total))` by default.
///
/// # Examples
///
/// ```
/// use athena_math::bsgs::BsgsSplit;
/// let s = BsgsSplit::balanced(65537);
/// assert!(s.baby * s.giant >= 65537);
/// assert!(s.baby <= 257 && s.giant <= 257);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BsgsSplit {
    /// Baby-step count (inner loop; cheap ops).
    pub baby: usize,
    /// Giant-step count (outer loop; expensive ops).
    pub giant: usize,
}

/// Exact ceiling square root: the smallest `r` with `r·r >= total`.
///
/// `f64::sqrt` only carries 53 mantissa bits, so for large `total` the
/// rounded seed can land one off the true root; the fix-up loops below move
/// it onto the exact answer using full-width `u128` products.
pub fn ceil_sqrt(total: usize) -> usize {
    let t = total as u128;
    let mut r = (total as f64).sqrt().ceil() as u128;
    while r > 0 && (r - 1) * (r - 1) >= t {
        r -= 1;
    }
    while r * r < t {
        r += 1;
    }
    r as usize
}

impl BsgsSplit {
    /// Balanced split: `baby = ceil(sqrt(total))`, `giant = ceil(total/baby)`.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0`.
    pub fn balanced(total: usize) -> Self {
        assert!(total > 0, "cannot split zero work");
        let baby = ceil_sqrt(total);
        let giant = total.div_ceil(baby);
        Self { baby, giant }
    }

    /// Split with an explicit baby-step count.
    ///
    /// # Panics
    ///
    /// Panics if `baby == 0`.
    pub fn with_baby(total: usize, baby: usize) -> Self {
        assert!(baby > 0);
        Self {
            baby,
            giant: total.div_ceil(baby),
        }
    }

    /// Total capacity `baby * giant`.
    pub fn capacity(&self) -> usize {
        self.baby * self.giant
    }
}

/// Evaluates the **non-constant part** `Σ_{i>=1} c_i x^i` (degree <
/// `coeffs.len()`) over any "ciphertext-like" algebra supplied via closures,
/// using the BSGS schedule of Alg. 2; the constant `c_0` is the caller's
/// responsibility (FBS adds `LUT(0)` in plaintext).
///
/// Baby/giant structure:
/// baby powers `x^1..x^baby` are combined with scalar multiplications, giant
/// powers `x^(baby·k)` with full multiplications.
///
/// `mul` is the expensive ciphertext×ciphertext product. `lincomb(xs, cs)`
/// is one block's whole inner sum `Σ_k cs[k]·xs[k]` over the **non-zero**
/// `cs[k]` — logically one scalar multiplication per term and one addition
/// between terms, handed over as a single call so the algebra can run it
/// as one in-place multiply–accumulate (the FRU's modular-MAC datapath,
/// §4.2) instead of materialising every term; it returns `None` when
/// every `cs[k]` is zero. `add` sums two block results. Returns `None`
/// when all coefficients are zero.
///
/// The closure design lets the exact same schedule drive (a) real BFV
/// ciphertexts, (b) plain modular integers in tests, and (c) the
/// op-counting cost model.
pub fn bsgs_polynomial_eval<T: Clone>(
    coeffs: &[u64],
    x: &T,
    mul: &mut impl FnMut(&T, &T) -> T,
    lincomb: &mut impl FnMut(&[T], &[u64]) -> Option<T>,
    add: &mut impl FnMut(&T, &T) -> T,
) -> Option<T> {
    // Highest non-constant coefficient actually present.
    let max_idx = (1..coeffs.len()).rev().find(|&i| coeffs[i] != 0)?;
    let split = BsgsSplit::balanced((max_idx + 1).max(2));
    let bs = split.baby;
    // Baby powers x^1 .. x^bs, built by the half-split tree so that the
    // multiplicative depth is log₂(bs) rather than bs. powers[i] = x^{i+1}.
    let baby_needed = bs.min(max_idx.max(1));
    let mut powers: Vec<T> = Vec::with_capacity(baby_needed);
    powers.push(x.clone());
    for i in 1..baby_needed {
        // x^{i+1} = x^{ceil((i+1)/2)} · x^{floor((i+1)/2)}
        let hi = (i + 1).div_ceil(2);
        let lo = (i + 1) - hi;
        let p = mul(&powers[hi - 1], &powers[lo - 1]);
        powers.push(p);
    }
    // Giant powers x^{bs·g}, also by half-split tree over g, keeping total
    // depth at log₂(bs) + log₂(gs) ≈ log₂(t) — the depth Table 4 charges
    // FBS for. giants[g-1] = x^{bs·g}.
    let giant_blocks = max_idx / bs; // blocks beyond block 0
    let mut giants: Vec<T> = Vec::with_capacity(giant_blocks);
    if giant_blocks >= 1 {
        giants.push(powers[bs - 1].clone());
        for g in 2..=giant_blocks {
            let hi = g.div_ceil(2);
            let lo = g - hi;
            let p = mul(&giants[hi - 1], &giants[lo - 1]);
            giants.push(p);
        }
    }
    let mut result: Option<T> = None;
    for g in 0..split.giant {
        let start = g * bs;
        if start > max_idx {
            break;
        }
        let end = (start + bs).min(max_idx + 1);
        // inner = Σ_{k=1..bs-1} c_{start+k} · x^k  (local-degree >= 1 part)
        let inner = lincomb(&powers[..end - start - 1], &coeffs[start + 1..end]);
        // Block contribution: inner · x^{start}, plus the boundary term
        // c_{start} · x^{start}. For g == 0 the boundary term is the
        // constant c_0, which FBS adds in plaintext, so it is skipped here.
        let mut block: Option<T> = match inner {
            Some(inn) if g == 0 => Some(inn), // x^{start} = 1
            Some(inn) => Some(mul(&inn, &giants[g - 1])),
            None => None,
        };
        if start != 0 {
            if let Some(t) = lincomb(&giants[g - 1..g], &coeffs[start..=start]) {
                block = Some(match block {
                    None => t,
                    Some(acc) => add(&acc, &t),
                });
            }
        }
        if let Some(bc) = block {
            result = Some(match result {
                None => bc,
                Some(acc) => add(&acc, &bc),
            });
        }
    }
    result
}

/// The reference `lincomb` of [`bsgs_polynomial_eval`], term by term:
/// `Σ_k cs[k]·xs[k]` over the non-zero `cs[k]` from a scalar
/// multiplication and an addition — what an algebra without a fused
/// multiply–accumulate plugs in, and the chain a fused one is tested
/// against.
pub fn lincomb_by_terms<T>(
    xs: &[T],
    cs: &[u64],
    mut smul: impl FnMut(&T, u64) -> T,
    mut add: impl FnMut(&T, &T) -> T,
) -> Option<T> {
    let mut acc: Option<T> = None;
    for (x, &c) in xs.iter().zip(cs).filter(|&(_, &c)| c != 0) {
        let t = smul(x, c);
        acc = Some(match acc {
            None => t,
            Some(a) => add(&a, &t),
        });
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modops::Modulus;

    fn eval_plain(coeffs: &[u64], x: u64, q: &Modulus) -> u64 {
        let mut acc = 0;
        for &c in coeffs.iter().rev() {
            acc = q.mul_add(acc, x, c % q.value());
        }
        acc
    }

    #[test]
    fn split_covers_total() {
        for total in [1usize, 2, 3, 5, 17, 100, 65537] {
            let s = BsgsSplit::balanced(total);
            assert!(s.capacity() >= total, "total={total}");
        }
    }

    #[test]
    fn ceil_sqrt_exact_on_perfect_squares() {
        for r in [1usize, 2, 3, 16, 257, 65536, 1 << 26, (1 << 31) + 12345] {
            assert_eq!(ceil_sqrt(r * r), r, "r={r}");
            assert_eq!(ceil_sqrt(r * r + 1), r + 1, "r²+1, r={r}");
            if r > 1 {
                assert_eq!(ceil_sqrt(r * r - 1), r, "r²-1, r={r}");
            }
        }
    }

    #[test]
    fn ceil_sqrt_edge_cases() {
        assert_eq!(ceil_sqrt(0), 0);
        assert_eq!(ceil_sqrt(1), 1);
        assert_eq!(ceil_sqrt(2), 2);
        assert_eq!(ceil_sqrt(3), 2);
        assert_eq!(ceil_sqrt(4), 2);
    }

    #[test]
    fn ceil_sqrt_usize_large_totals() {
        // Near the top of the usize range, an f64 round-trip is lossy:
        // (2⁶⁴−1) as f64 rounds *up* to 2⁶⁴ and sqrt().ceil() would still
        // seed at 2³², which happens to be correct here — but values like
        // (2³²−1)² + 2³² sit exactly where the 53-bit mantissa mis-rounds.
        assert_eq!(ceil_sqrt(usize::MAX), 1 << 32);
        let r = (1u64 << 32) - 1;
        let r2 = (r * r) as usize;
        assert_eq!(ceil_sqrt(r2), r as usize);
        assert_eq!(ceil_sqrt(r2 + 1), r as usize + 1);
        // Balanced splits at large totals keep the covering invariant
        // (checked in u128 — capacity() itself would overflow usize).
        for total in [r2, r2 + 1, usize::MAX] {
            let s = BsgsSplit::balanced(total);
            assert!(
                (s.baby as u128) * (s.giant as u128) >= total as u128,
                "total={total}"
            );
        }
    }

    #[test]
    fn bsgs_eval_matches_horner_many() {
        let q = Modulus::new(65537);
        for (deg, x, seed) in [
            (1usize, 5u64, 1u64),
            (4, 7, 2),
            (16, 123, 3),
            (17, 9999, 4),
            (63, 3, 5),
            (64, 65536, 6),
        ] {
            let coeffs: Vec<u64> = (0..=deg as u64)
                .map(|i| (i * seed * 2654435761 + 17) % 65537)
                .collect();
            let mut muls = 0usize;
            let got = bsgs_polynomial_eval(
                &coeffs,
                &x,
                &mut |a: &u64, b: &u64| {
                    muls += 1;
                    q.mul(*a, *b)
                },
                &mut |xs: &[u64], cs: &[u64]| {
                    lincomb_by_terms(xs, cs, |a, c| q.mul(*a, c % 65537), |a, b| q.add(*a, *b))
                },
                &mut |a: &u64, b: &u64| q.add(*a, *b),
            );
            let want_nonconst = {
                let mut c = coeffs.clone();
                c[0] = 0;
                eval_plain(&c, x, &q)
            };
            assert_eq!(
                got.unwrap_or(0),
                want_nonconst,
                "deg={deg} (non-constant part)"
            );
            // CMult count should be O(sqrt(deg)) rather than O(deg).
            if deg >= 16 {
                assert!(
                    muls <= 4 * (deg as f64).sqrt() as usize + 4,
                    "deg={deg}, muls={muls}"
                );
            }
        }
    }

    #[test]
    fn bsgs_eval_constant_only_returns_none() {
        let q = Modulus::new(97);
        let got = bsgs_polynomial_eval(
            &[5, 0, 0, 0],
            &3u64,
            &mut |a: &u64, b: &u64| q.mul(*a, *b),
            &mut |xs: &[u64], cs: &[u64]| {
                lincomb_by_terms(xs, cs, |a, c| q.mul(*a, c), |a, b| q.add(*a, *b))
            },
            &mut |a: &u64, b: &u64| q.add(*a, *b),
        );
        // Constant term is the caller's responsibility (it is added in
        // plaintext in FBS); all-zero non-constant part yields None.
        assert!(got.is_none());
    }
}
