//! Baby-step/giant-step decompositions used throughout Athena: polynomial
//! evaluation (Alg. 2 of the paper, after Paterson–Stockmeyer, with the
//! outer sum as a balanced tree) and the Halevi–Shoup diagonal
//! matrix–vector product that packing (step ④) and S2C (step ⑤) run.

use std::cell::Cell;
use std::collections::VecDeque;

use crate::stats::op_stats::HomOpCounts;

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

    /// Total capacity `baby * giant`.
    pub fn capacity(&self) -> usize {
        self.baby * self.giant
    }
}

/// Evaluates the polynomial `Σ_i c_i x^i` (degree < `coeffs.len()`) over
/// any "ciphertext-like" algebra supplied via closures, using the BSGS
/// schedule of Alg. 2 with a balanced outer tree.
///
/// With `bs = ⌈√(d+1)⌉` for the top non-zero degree `d`, `X = x^bs` and the
/// leaves `leaf_g(x) = Σ_{k<bs} c_{g·bs+k} x^k`, the polynomial is
/// `Σ_g leaf_g(x)·X^g`:
///
/// * the baby powers `x^1..x^bs` are built by the half-split tree
///   (`x^m = x^⌈m/2⌉·x^⌊m/2⌋`, multiplicative depth `⌈log₂ bs⌉`);
/// * each leaf is one `lincomb` of the baby powers whose constant is the
///   leaf's boundary coefficient `c_{g·bs}`;
/// * the outer sum over the `gs` leaves is a balanced tree walked
///   depth-first, each node `lo + X^{2^j}·hi` with `2^j` leaves under `lo`.
///   It needs only the squarings `X², X⁴, …` up to `X^{2^{⌈log₂ gs⌉−1}}`
///   and one `mul` per node whose `hi` is not a constant; a constant `hi`
///   is a scalar multiple of `X^{2^j}` (one `lincomb` term).
///
/// For a dense polynomial that is `(bs−1) + (⌈log₂ gs⌉−1) + (gs−1)`
/// multiplications (≈ 2√d) at multiplicative depth
/// `⌈log₂ bs⌉ + ⌈log₂ gs⌉`.
///
/// The closures are the algebra. `lift` prepares a value as a `mul`
/// operand, `mul` is the expensive product of two lifted operands (for
/// BFV, a lift is the tensor-basis conversion of a CMult operand). The
/// schedule lifts each value right before its uses and drops the lift
/// after its last one: a baby power only while it is a factor of a higher
/// baby power, each `X^{2^j}` once, and each node's `hi` once. At most
/// `bs` baby powers plus `O(log gs)` giants, lifts and partial sums are
/// alive at any moment.
///
/// `lincomb(xs, cs, c)` is `c + Σ_k cs[k]·xs[k]` over the non-zero
/// `cs[k]`: logically one scalar multiplication per term, one addition
/// between terms and one constant addition, handed over as a single call
/// so the algebra can run it as one in-place multiply–accumulate (the
/// FRU's modular-MAC datapath, §4.2). With no non-zero `cs[k]` it must
/// return the constant `c` as a value. `add` sums two values.
///
/// The closure design lets the exact same schedule drive (a) real BFV
/// ciphertexts, (b) plain modular integers in tests, and (c) the
/// op-counting cost model.
pub fn bsgs_polynomial_eval<T, L>(
    coeffs: &[u64],
    x: T,
    lift: &mut impl FnMut(&T) -> L,
    mul: &mut impl FnMut(&L, &L) -> T,
    lincomb: &mut impl FnMut(&[T], &[u64], u64) -> T,
    add: &mut impl FnMut(&T, &T) -> T,
) -> T {
    let c0 = coeffs.first().copied().unwrap_or(0);
    // Highest non-constant coefficient actually present.
    let Some(max_idx) = (1..coeffs.len()).rev().find(|&i| coeffs[i] != 0) else {
        return lincomb(&[], &[], c0);
    };
    let bs = BsgsSplit::balanced(max_idx + 1).baby;
    let leaves = max_idx / bs + 1;
    // Baby powers: powers[i] = x^{i+1}, up to x^bs when there is an outer
    // tree (X = x^bs), else up to the degree. x^k is a factor of x^{2k−1},
    // x^{2k} and x^{2k+1} only, so at most two lifts are alive here.
    let baby_needed = bs.min(max_idx);
    let mut powers: Vec<T> = Vec::with_capacity(baby_needed);
    powers.push(x);
    let mut factors: VecDeque<L> = VecDeque::new();
    let mut first = 1; // factors[0] is the lift of x^first
    for m in 2..=baby_needed {
        let (hi, lo) = (m.div_ceil(2), m / 2);
        while first < lo {
            factors.pop_front();
            first += 1;
        }
        while first + factors.len() <= hi {
            factors.push_back(lift(&powers[first + factors.len() - 1]));
        }
        let p = mul(&factors[hi - first], &factors[lo - first]);
        powers.push(p);
    }
    drop(factors);
    if leaves == 1 {
        return lincomb(&powers, &coeffs[1..=max_idx], c0);
    }
    let top = powers.pop();
    let mut tree = OuterTree {
        coeffs: &coeffs[..=max_idx],
        bs,
        powers,
        top,
        giants: Vec::new(),
        lift,
        mul,
        lincomb,
        add,
    };
    match tree.eval(0, leaves) {
        Node::Const(c) => (tree.lincomb)(&[], &[], c),
        Node::Value(v) => v,
    }
}

/// A subtree's value: a plain constant (no ciphertext work yet) or a value
/// of the algebra.
enum Node<T> {
    Const(u64),
    Value(T),
}

/// The outer tree of [`bsgs_polynomial_eval`]: its leaves, the giants
/// `X^{2^j}` built so far, and the algebra.
struct OuterTree<'a, T, L, Lf, M, C, A> {
    coeffs: &'a [u64],
    bs: usize,
    /// `x^1..x^{bs−1}`, the leaves' terms.
    powers: Vec<T>,
    /// `X = x^bs` until it becomes `giants[0]`.
    top: Option<T>,
    /// `giants[j] = X^{2^j}`, lifted once on its first use as a factor.
    giants: Vec<(T, Option<L>)>,
    lift: &'a mut Lf,
    mul: &'a mut M,
    lincomb: &'a mut C,
    add: &'a mut A,
}

impl<T, L, Lf, M, C, A> OuterTree<'_, T, L, Lf, M, C, A>
where
    Lf: FnMut(&T) -> L,
    M: FnMut(&L, &L) -> T,
    C: FnMut(&[T], &[u64], u64) -> T,
    A: FnMut(&T, &T) -> T,
{
    /// `Σ_{g<len} leaf_{first+g}(x)·X^g`, depth-first: the `lo` subtree
    /// holds the largest power of two of leaves below `len`.
    fn eval(&mut self, first: usize, len: usize) -> Node<T> {
        if len == 1 {
            return self.leaf(first);
        }
        let j = (len - 1).ilog2() as usize;
        let half = 1 << j;
        let lo = self.eval(first, half);
        let hi = self.eval(first + half, len - half);
        self.node(lo, hi, j)
    }

    fn leaf(&mut self, g: usize) -> Node<T> {
        let start = g * self.bs;
        let end = (start + self.bs).min(self.coeffs.len());
        let cs = &self.coeffs[start + 1..end];
        if cs.iter().all(|&c| c == 0) {
            return Node::Const(self.coeffs[start]);
        }
        let xs = &self.powers[..cs.len()];
        Node::Value((self.lincomb)(xs, cs, self.coeffs[start]))
    }

    /// `lo + X^{2^j}·hi`.
    fn node(&mut self, lo: Node<T>, hi: Node<T>, j: usize) -> Node<T> {
        let scaled = match hi {
            Node::Const(0) => return lo,
            Node::Const(c) => {
                self.giant(j, false);
                let xj = std::slice::from_ref(&self.giants[j].0);
                if let Node::Const(c0) = lo {
                    return Node::Value((self.lincomb)(xj, &[c], c0));
                }
                (self.lincomb)(xj, &[c], 0)
            }
            Node::Value(h) => {
                self.giant(j, true);
                let h = {
                    let lifted = (self.lift)(&h);
                    drop(h);
                    lifted
                };
                let xj = self.giants[j].1.as_ref().expect("lifted above");
                (self.mul)(xj, &h)
            }
        };
        Node::Value(match lo {
            Node::Const(0) => scaled,
            Node::Const(c0) => (self.add)(&scaled, &(self.lincomb)(&[], &[], c0)),
            Node::Value(l) => (self.add)(&l, &scaled),
        })
    }

    /// Builds `giants[..=j]` by squaring (each factor lifted once) and,
    /// when `lifted`, lifts `giants[j]` too.
    fn giant(&mut self, j: usize, lifted: bool) {
        if self.giants.is_empty() {
            let x = self.top.take().expect("an outer tree has X = x^bs");
            self.giants.push((x, None));
        }
        while self.giants.len() <= j {
            let last = self.giants.len() - 1;
            self.lift_giant(last);
            let l = self.giants[last].1.as_ref().expect("lifted above");
            let square = (self.mul)(l, l);
            self.giants.push((square, None));
        }
        if lifted {
            self.lift_giant(j);
        }
    }

    fn lift_giant(&mut self, j: usize) {
        let (x, l) = &mut self.giants[j];
        if l.is_none() {
            *l = Some((self.lift)(x));
        }
    }
}

/// Halevi–Shoup's diagonal matrix–vector product with a baby-step/giant-step
/// rotation schedule, over any algebra supplied via closures.
///
/// The product is `Σ_s Σ_{d<total} diag_{d,s} ⊙ rot_d(src_s)` over
/// `sources` source vectors. With `split = BsgsSplit::balanced(total)`,
/// diagonal `d = g·baby + k` meets baby rotation `k` of its source, and the
/// sum of giant group `g` is rotated once, by `g·baby`:
///
/// `Σ_g rot_{g·baby}(Σ_s Σ_{k<baby} rot_{−g·baby}(diag_{g·baby+k,s}) ⊙ rot_k(src_s))`
///
/// so the operand of diagonal `d` comes pre-rotated right by its group's
/// shift `d − d mod baby`.
///
/// * `baby(s, k)` is source `s` rotated by `k` (`k = 0` is the source
///   itself). All `sources·baby` of them are made first, source by source.
/// * `operand(d, s)` is the operand of diagonal `d` of source `s`, asked
///   for right before its product; `None` (an all-zero diagonal) skips it.
/// * `pmult` multiplies a baby rotation by an operand; `add` accumulates
///   in place.
/// * `giant(c, shift)` rotates the sum of a non-empty group by
///   `shift = g·baby > 0`. Groups are folded in order as they are made.
///
/// That is `sources·(baby−1)` baby rotations, one `pmult` per present
/// operand and one `add` fewer, and one giant rotation per non-empty group
/// past the first; [`bsgs_diagonal_counts`] tallies them from the same
/// run. Returns `None` when no operand is present.
///
/// # Panics
///
/// Panics if `total == 0`.
pub fn bsgs_diagonal_sum<C, P>(
    total: usize,
    sources: usize,
    baby: &mut impl FnMut(usize, usize) -> C,
    operand: &mut impl FnMut(usize, usize) -> Option<P>,
    pmult: &mut impl FnMut(&C, &P) -> C,
    add: &mut impl FnMut(&mut C, &C),
    giant: &mut impl FnMut(&C, usize) -> C,
) -> Option<C> {
    let split = BsgsSplit::balanced(total);
    let rotated: Vec<Vec<C>> = (0..sources)
        .map(|s| (0..split.baby).map(|k| baby(s, k)).collect())
        .collect();
    let mut acc = None;
    for g in 0..split.giant {
        let shift = g * split.baby;
        let mut inner = None;
        for (s, babies) in rotated.iter().enumerate() {
            for (k, src) in babies.iter().enumerate().take(total - shift) {
                if let Some(p) = operand(shift + k, s) {
                    accumulate(&mut inner, pmult(src, &p), add);
                }
            }
        }
        if let Some(sum) = inner {
            let sum = if shift == 0 { sum } else { giant(&sum, shift) };
            accumulate(&mut acc, sum, add);
        }
    }
    acc
}

fn accumulate<C>(acc: &mut Option<C>, term: C, add: &mut impl FnMut(&mut C, &C)) {
    match acc {
        None => *acc = Some(term),
        Some(a) => add(a, &term),
    }
}

/// The HRot, PMult and HAdd counts of one [`bsgs_diagonal_sum`] over
/// `total` diagonals of each of `sources` sources, `present(d, s)` telling
/// which operands exist: a dry run of the same schedule over a unit
/// algebra, so it skips exactly what the real run skips. A `k = 0` baby
/// "rotation" is the source itself and is not counted.
pub fn bsgs_diagonal_counts(
    total: usize,
    sources: usize,
    mut present: impl FnMut(usize, usize) -> bool,
) -> HomOpCounts {
    let (hrot, pmult, hadd) = (Cell::new(0), Cell::new(0), Cell::new(0));
    let bump = |c: &Cell<u64>| c.set(c.get() + 1);
    bsgs_diagonal_sum(
        total,
        sources,
        &mut |_, k| {
            if k > 0 {
                bump(&hrot)
            }
        },
        &mut |d, s| present(d, s).then_some(()),
        &mut |_: &(), _: &()| bump(&pmult),
        &mut |_: &mut (), _: &()| bump(&hadd),
        &mut |_: &(), _| bump(&hrot),
    );
    HomOpCounts {
        pmult: pmult.get(),
        hadd: hadd.get(),
        hrot: hrot.get(),
        ..HomOpCounts::default()
    }
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
    use std::cell::Cell;
    use std::rc::Rc;

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

    /// Runs the schedule over `Z_q` with the per-term reference `lincomb`;
    /// returns the value and the number of `mul` calls.
    fn eval_bsgs(coeffs: &[u64], x: u64, q: &Modulus) -> (u64, usize) {
        let mut muls = 0usize;
        let v = bsgs_polynomial_eval(
            coeffs,
            x,
            &mut |a: &u64| *a,
            &mut |a: &u64, b: &u64| {
                muls += 1;
                q.mul(*a, *b)
            },
            &mut |xs: &[u64], cs: &[u64], c: u64| {
                let sum =
                    lincomb_by_terms(xs, cs, |a, c| q.mul(*a, q.reduce(c)), |a, b| q.add(*a, *b));
                q.add(sum.unwrap_or(0), q.reduce(c))
            },
            &mut |a: &u64, b: &u64| q.add(*a, *b),
        );
        (v, muls)
    }

    /// The dense-polynomial CMult count of the tree schedule: baby powers,
    /// squarings, and one product per node — except the top one when the
    /// last leaf is its lone boundary coefficient (an SMult then).
    fn tree_muls(degree: usize) -> usize {
        let bs = BsgsSplit::balanced(degree + 1).baby;
        let gs = degree / bs + 1;
        let constant_top = gs > 1 && degree.is_multiple_of(bs);
        (bs.min(degree) - 1)
            + (gs.next_power_of_two().ilog2() as usize).saturating_sub(1)
            + (gs - 1)
            - usize::from(constant_top)
    }

    #[test]
    fn bsgs_eval_matches_horner_many() {
        let q = Modulus::new(65537);
        for (deg, x, seed) in [
            (1usize, 5u64, 1u64),
            (2, 3, 9),
            (4, 7, 2),
            (16, 123, 3),
            (17, 9999, 4),
            (63, 3, 5),
            (64, 65536, 6),
            (256, 77, 7),
        ] {
            let coeffs: Vec<u64> = (0..=deg as u64)
                .map(|i| (i * seed * 2654435761 + 17) % 65537)
                .collect();
            let (got, muls) = eval_bsgs(&coeffs, x, &q);
            assert_eq!(got, eval_plain(&coeffs, x, &q), "deg={deg}");
            if coeffs.iter().all(|&c| c != 0) {
                assert_eq!(muls, tree_muls(deg), "deg={deg}");
            }
        }
    }

    #[test]
    fn bsgs_eval_matches_horner_on_sparse_polynomials() {
        let q = Modulus::new(65537);
        let x = 4242u64;
        let check = |coeffs: &[u64], what: &str| {
            let (got, _) = eval_bsgs(coeffs, x, &q);
            assert_eq!(
                got,
                eval_plain(coeffs, x, &q),
                "{what}, len={}",
                coeffs.len()
            );
        };
        for deg in [0usize, 1, 2, 3, 4, 16, 17, 63, 64, 256] {
            // Only the top coefficient, with and without a constant.
            for c0 in [0u64, 9] {
                let mut coeffs = vec![0u64; deg + 1];
                coeffs[0] = c0;
                coeffs[deg] = 65536;
                check(&coeffs, "top only");
            }
            // Only the boundary coefficients c_{g·bs} (every leaf a
            // constant), and all of them but c_0.
            let bs = BsgsSplit::balanced(deg + 1).baby;
            let mut coeffs: Vec<u64> = (0..=deg as u64)
                .map(|i| {
                    if (i as usize).is_multiple_of(bs) {
                        i + 3
                    } else {
                        0
                    }
                })
                .collect();
            coeffs[deg] = 1;
            check(&coeffs, "boundaries only");
            coeffs[0] = 0;
            check(&coeffs, "boundaries without c_0");
            // Only the last leaf non-zero, and only the first.
            let mut coeffs = vec![0u64; deg + 1];
            coeffs[deg - deg % bs..].fill(5);
            check(&coeffs, "last leaf only");
            let mut coeffs = vec![0u64; deg + 1];
            coeffs[..bs.min(deg)].fill(6);
            coeffs[deg] = 1;
            check(&coeffs, "first leaf and top");
        }
        // Degree below the baby-step count: a single leaf, no outer tree.
        for coeffs in [vec![], vec![7], vec![0, 3], vec![5, 0], vec![1, 2]] {
            check(&coeffs, "single leaf");
        }
    }

    #[test]
    fn bsgs_eval_constant_only_is_the_constant() {
        let q = Modulus::new(97);
        let (got, muls) = eval_bsgs(&[5, 0, 0, 0], 3, &q);
        assert_eq!((got, muls), (5, 0));
        assert_eq!(eval_bsgs(&[], 3, &q), (0, 0));
    }

    /// Dense coefficients `c_0..c_{t−1}`, all non-zero.
    fn dense(t: u64) -> Vec<u64> {
        (0..t).map(|i| 1 + i % (t - 1)).collect()
    }

    #[test]
    fn dense_lut_cmult_counts_are_pinned() {
        for (t, want) in [(17u64, 8usize), (257, 34), (65537, 518)] {
            let mut muls = 0usize;
            bsgs_polynomial_eval(
                &dense(t),
                (),
                &mut |_: &()| (),
                &mut |_: &(), _: &()| muls += 1,
                &mut |_: &[()], _: &[u64], _: u64| (),
                &mut |_: &(), _: &()| (),
            );
            assert_eq!(muls, want, "t={t}");
            assert_eq!(muls, tree_muls(t as usize - 1), "t={t}");
        }
    }

    #[test]
    fn dense_lut_cmult_depth_is_log_bs_plus_log_gs() {
        let ceil_log2 = |v: usize| v.next_power_of_two().ilog2();
        for t in [17u64, 257, 65537] {
            let depth = bsgs_polynomial_eval(
                &dense(t),
                0u32,
                &mut |d: &u32| *d,
                &mut |a: &u32, b: &u32| a.max(b) + 1,
                &mut |xs: &[u32], cs: &[u64], _: u64| {
                    xs.iter()
                        .zip(cs)
                        .filter(|(_, &c)| c != 0)
                        .map(|(d, _)| *d)
                        .max()
                        .unwrap_or(0)
                },
                &mut |a: &u32, b: &u32| *a.max(b),
            );
            let split = BsgsSplit::balanced(t as usize);
            assert_eq!(
                depth,
                ceil_log2(split.baby) + ceil_log2(split.giant),
                "t={t}"
            );
        }
    }

    /// A value that counts how many of its kind are alive (and the peak).
    struct Tracked(Rc<Cell<(usize, usize)>>);

    impl Tracked {
        fn new(live: &Rc<Cell<(usize, usize)>>) -> Self {
            let (now, peak) = live.get();
            live.set((now + 1, peak.max(now + 1)));
            Tracked(Rc::clone(live))
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            let (now, peak) = self.0.get();
            self.0.set((now - 1, peak));
        }
    }

    #[test]
    fn live_values_stay_within_baby_powers_plus_log_giants() {
        for t in [257u64, 65537] {
            let live = Rc::new(Cell::new((0, 0)));
            let split = BsgsSplit::balanced(t as usize);
            let out = bsgs_polynomial_eval(
                &dense(t),
                Tracked::new(&live),
                &mut |_: &Tracked| Tracked::new(&live),
                &mut |_: &Tracked, _: &Tracked| Tracked::new(&live),
                &mut |_: &[Tracked], _: &[u64], _: u64| Tracked::new(&live),
                &mut |_: &Tracked, _: &Tracked| Tracked::new(&live),
            );
            drop(out);
            let (now, peak) = live.get();
            assert_eq!(now, 0, "t={t}: every value dropped");
            let log_gs = split.giant.next_power_of_two().ilog2() as usize;
            // bs − 1 baby powers; per tree level a giant, its lift and a
            // pending `lo`; and a leaf, a lifted `hi` or a product in flight
            // (28 of 29 at t = 257, 280 of 281 at t = 65537).
            assert!(peak <= split.baby + 3 * log_gs, "t={t}: peak {peak}");
        }
    }

    /// Two rows of `row` slots mod 65537, the shape of the BFV slot
    /// vector: rotation by `k` shifts each row cyclically left by `k`, the
    /// swap exchanges the rows, products are slot by slot.
    struct SlotAlgebra {
        row: usize,
        q: Modulus,
    }

    impl SlotAlgebra {
        fn rot(&self, v: &[u64], k: usize) -> Vec<u64> {
            let row = self.row;
            (0..v.len())
                .map(|i| v[i - i % row + (i % row + k) % row])
                .collect()
        }

        fn swap(&self, v: &[u64]) -> Vec<u64> {
            (0..v.len()).map(|i| v[(i + self.row) % v.len()]).collect()
        }

        /// The slot of source `s` that diagonal `d` reads into slot `i`.
        fn source_slot(&self, i: usize, d: usize, s: usize) -> usize {
            let (r, c) = (i / self.row, i % self.row);
            ((r + s) % 2) * self.row + (c + d) % self.row
        }

        /// A random matrix over the slots (block diagonal per row with one
        /// source, whose diagonals cannot leave their row), with every
        /// third diagonal of each source and the whole of giant groups 1
        /// and `giant − 1` planted to zero.
        fn matrix(&self, sources: usize, seed: u64) -> Vec<Vec<u64>> {
            let n = 2 * self.row;
            let split = BsgsSplit::balanced(self.row);
            let mut rng = crate::prng::Prng::seed_from_u64(seed);
            let mut m: Vec<Vec<u64>> = (0..n)
                .map(|_| (0..n).map(|_| rng.next_below(self.q.value())).collect())
                .collect();
            for d in 0..self.row {
                let g = d / split.baby;
                for s in 0..2 {
                    let planted = (d + s).is_multiple_of(3) || g == 1 || g + 1 == split.giant;
                    if s >= sources || planted {
                        for (i, mi) in m.iter_mut().enumerate() {
                            mi[self.source_slot(i, d, s)] = 0;
                        }
                    }
                }
            }
            m
        }

        fn diagonal(&self, m: &[Vec<u64>], d: usize, s: usize) -> Vec<u64> {
            (0..m.len())
                .map(|i| m[i][self.source_slot(i, d, s)])
                .collect()
        }
    }

    /// `bsgs_diagonal_sum` over plain slot vectors equals the naive
    /// matrix–vector product, with planted zero diagonals and empty giant
    /// groups skipped, and performs exactly the operations its dry run
    /// tallies and the closed forms in its documentation state.
    #[test]
    fn diagonal_sum_matches_naive_matvec() {
        for row in [24usize, 32, 64] {
            for sources in [1usize, 2] {
                let alg = SlotAlgebra {
                    row,
                    q: Modulus::new(65537),
                };
                let q = &alg.q;
                let split = BsgsSplit::balanced(row);
                let m = alg.matrix(sources, (row * 10 + sources) as u64);
                let v: Vec<u64> = (0..2 * row as u64)
                    .map(|i| (i * 7919 + 11) % 65537)
                    .collect();
                let want: Vec<u64> = m
                    .iter()
                    .map(|mi| {
                        mi.iter()
                            .zip(&v)
                            .fold(0, |acc, (&a, &x)| q.mul_add(a, x, acc))
                    })
                    .collect();
                let present = |d: usize, s: usize| alg.diagonal(&m, d, s).iter().any(|&x| x != 0);
                let srcs = [v.clone(), alg.swap(&v)];
                let (mut babies, mut pmults, mut adds, mut giants) = (0u64, 0u64, 0u64, 0u64);
                let got = bsgs_diagonal_sum(
                    row,
                    sources,
                    &mut |s, k| {
                        babies += u64::from(k > 0);
                        alg.rot(&srcs[s], k)
                    },
                    &mut |d, s| {
                        let dv = alg.diagonal(&m, d, s);
                        let shift = d - d % split.baby;
                        // Rotated right by the group shift.
                        dv.iter()
                            .any(|&x| x != 0)
                            .then(|| alg.rot(&dv, row - shift))
                    },
                    &mut |c: &Vec<u64>, p: &Vec<u64>| {
                        pmults += 1;
                        c.iter().zip(p).map(|(&a, &b)| q.mul(a, b)).collect()
                    },
                    &mut |acc: &mut Vec<u64>, t: &Vec<u64>| {
                        adds += 1;
                        acc.iter_mut().zip(t).for_each(|(a, &b)| *a = q.add(*a, b));
                    },
                    &mut |c: &Vec<u64>, shift| {
                        giants += 1;
                        alg.rot(c, shift)
                    },
                );
                let what = format!("row {row}, {sources} source(s)");
                assert_eq!(got.expect("some diagonal is present"), want, "{what}");
                let tally = bsgs_diagonal_counts(row, sources, present);
                assert_eq!(
                    (tally.hrot, tally.pmult, tally.hadd),
                    (babies + giants, pmults, adds),
                    "{what}"
                );
                let operands = (0..row)
                    .flat_map(|d| (0..sources).map(move |s| (d, s)))
                    .filter(|&(d, s)| present(d, s))
                    .count() as u64;
                let nonempty = (1..split.giant)
                    .filter(|g| {
                        let ds = g * split.baby..((g + 1) * split.baby).min(row);
                        ds.flat_map(|d| (0..sources).map(move |s| (d, s)))
                            .any(|(d, s)| present(d, s))
                    })
                    .count() as u64;
                assert!(
                    nonempty + 3 <= split.giant as u64,
                    "{what}: groups planted empty"
                );
                assert_eq!(babies, (sources * (split.baby - 1)) as u64, "{what}");
                assert_eq!(
                    (pmults, adds, giants),
                    (operands, operands - 1, nonempty),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn diagonal_sum_of_no_operands_is_none() {
        let out = bsgs_diagonal_sum(
            32,
            2,
            &mut |_, _| (),
            &mut |_, _| None::<()>,
            &mut |_: &(), _: &()| unreachable!("no operand to multiply"),
            &mut |_: &mut (), _: &()| unreachable!("no term to add"),
            &mut |_: &(), _| unreachable!("no group to rotate"),
        );
        assert!(out.is_none());
        let tally = bsgs_diagonal_counts(32, 2, |_, _| false);
        assert_eq!((tally.hrot, tally.pmult, tally.hadd), (10, 0, 0));
    }
}
