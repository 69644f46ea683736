//! Baby-step/giant-step decompositions used throughout Athena: polynomial
//! evaluation (Alg. 2 of the paper, after Paterson–Stockmeyer, with the
//! outer sum as a balanced tree) and the Halevi–Shoup diagonal
//! matrix–vector product that packing (step ④) and S2C (step ⑤) run.

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::par;
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

/// The fewest products each side of a fork of [`bsgs_polynomial_eval`]
/// must hold: a baby-power level is split into runs of at least this many
/// products, and an outer subtree forks only when both halves hold at
/// least this many leaves.
///
/// At 16, a `t = 65537` FBS forks its levels of 32, 64 and 128 products
/// and its 128 | 128 tree — four spawns per FBS at two workers, which cut
/// `cnn_t65537`'s `latency_min_ms` by 38.8 % in ten benchmark pairs on a
/// two-thread host — while every `t = 257` FBS (levels of at most 8
/// products, 8 | 8 leaves) and every smaller one stays on its caller's
/// thread. Forking those too (a threshold of 2, ten pairs on `cnn_t257`)
/// bought 10.3 % of `latency_min_ms` for 7.9 % more `cpu_s_per_inf` and
/// 3.4 % more `peak_rss_mb`, both worse in every pair, and would spawn
/// threads for every FBS of the fuzz sweeps' tiny rings.
pub const FORK_MIN: usize = 16;

/// Evaluates the polynomial `Σ_i c_i x^i` (degree < `coeffs.len()`) over
/// any "ciphertext-like" algebra supplied via closures, using the BSGS
/// schedule of Alg. 2 with a balanced outer tree, forked over up to
/// `workers` threads.
///
/// With `bs = ⌈√(d+1)⌉` for the top non-zero degree `d`, `X = x^bs` and the
/// leaves `leaf_g(x) = Σ_{k<bs} c_{g·bs+k} x^k`, the polynomial is
/// `Σ_g leaf_g(x)·X^g`:
///
/// * the baby powers `x^1..x^bs` are built by the half-split tree
///   (`x^m = x^⌈m/2⌉·x^⌊m/2⌋`, multiplicative depth `⌈log₂ bs⌉`), level by
///   level: level `j` is the products `x^m` for `m ∈ (2^{j−1}, 2^j]`;
/// * the giants `X, X², X⁴, …` up to `X^{2^{⌈log₂ gs⌉−1}}` are squared
///   next;
/// * each leaf is one `lincomb` of the baby powers whose constant is the
///   leaf's boundary coefficient `c_{g·bs}`;
/// * the outer sum over the `gs` leaves is a balanced tree walked
///   depth-first, each node `lo + X^{2^j}·hi` with `2^j` leaves under `lo`:
///   one `mul` per node whose `hi` is not a constant; a constant `hi` is a
///   scalar multiple of `X^{2^j}` (one `lincomb` term).
///
/// For a dense polynomial that is `(bs−1) + (⌈log₂ gs⌉−1) + (gs−1)`
/// multiplications (≈ 2√d) at multiplicative depth
/// `⌈log₂ bs⌉ + ⌈log₂ gs⌉`.
///
/// The closures are the algebra. `lift` prepares a value as a `mul`
/// operand, `mul` is the expensive product of two lifted operands (for
/// BFV, a lift is the tensor-basis conversion of a CMult operand). The
/// schedule lifts each value once, right before its first use, and drops
/// the lift after its last one: a baby power only while it is a factor of
/// a higher baby power, each `X^{2^j}` once, and each node's `hi` once.
///
/// `lincomb(xs, cs, c)` is `c + Σ_k cs[k]·xs[k]` over the non-zero
/// `cs[k]`: logically one scalar multiplication per term, one addition
/// between terms and one constant addition, handed over as a single call
/// so the algebra can run it as one in-place multiply–accumulate (the
/// FRU's modular-MAC datapath, §4.2). With no non-zero `cs[k]` it must
/// return the constant `c` as a value. `add` sums two values.
///
/// **Forks.** A baby-power level of at least `2·`[`FORK_MIN`] products is
/// split into contiguous runs, one per worker, each sliding its own window
/// of lifts; the one factor two neighbouring runs share is lifted before
/// the fork and borrowed by both. The outer tree forks at the first node
/// whose halves both hold at least [`FORK_MIN`] leaves, and further down
/// while workers remain; the subtrees run on their own threads and the
/// nodes above them are combined in tree order. Every spawn comes from the
/// calling thread (see [`crate::par::parallel_join`]), so inside a `par`
/// worker all of it runs inline. Every product, lift, `lincomb` and `add`
/// is the same call at any `workers` — only which thread makes it changes
/// — so the result and every count are identical for any `workers`,
/// including `1`, which spawns nothing. At most `bs` baby powers plus
/// `O(log gs)` giants, lifts and partial sums per worker are alive at any
/// moment.
///
/// The closure design lets the exact same schedule drive (a) real BFV
/// ciphertexts, (b) plain modular integers in tests, and (c) the
/// op-counting cost model.
pub fn bsgs_polynomial_eval<T, L>(
    workers: usize,
    coeffs: &[u64],
    x: T,
    lift: &(impl Fn(&T) -> L + Sync),
    mul: &(impl Fn(&L, &L) -> T + Sync),
    lincomb: &(impl Fn(&[T], &[u64], u64) -> T + Sync),
    add: &(impl Fn(&T, &T) -> T + Sync),
) -> T
where
    T: Send + Sync,
    L: Send + Sync,
{
    let c0 = coeffs.first().copied().unwrap_or(0);
    // Highest non-constant coefficient actually present.
    let Some(max_idx) = (1..coeffs.len()).rev().find(|&i| coeffs[i] != 0) else {
        return lincomb(&[], &[], c0);
    };
    let bs = BsgsSplit::balanced(max_idx + 1).baby;
    let leaves = max_idx / bs + 1;
    // Baby powers: powers[i] = x^{i+1}, up to x^bs when there is an outer
    // tree (X = x^bs), else up to the degree.
    let mut powers = baby_powers(workers, x, bs.min(max_idx), lift, mul);
    if leaves == 1 {
        return lincomb(&powers, &coeffs[1..=max_idx], c0);
    }
    // The last leaf holds c_{max_idx} ≠ 0, so the top node multiplies by
    // X^{2^j} for its own j, the largest in the tree: the whole chain up
    // to it is needed.
    let top_j = (leaves - 1).ilog2() as usize;
    let mut giants: Vec<(T, OnceLock<L>)> = Vec::with_capacity(top_j + 1);
    giants.push((powers.pop().expect("x^bs"), OnceLock::new()));
    for j in 0..top_j {
        let (x, l) = &giants[j];
        let l = l.get_or_init(|| lift(x));
        let square = mul(l, l);
        giants.push((square, OnceLock::new()));
    }
    let tree = OuterTree {
        coeffs: &coeffs[..=max_idx],
        bs,
        powers,
        giants,
        lift,
        mul,
        lincomb,
        add,
    };
    match tree.eval(0, leaves, workers) {
        Node::Const(c) => lincomb(&[], &[], c),
        Node::Value(v) => v,
    }
}

/// Runs every task — the first on the calling thread, each other one on a
/// worker of its own — and returns their results in order.
fn fork_all<R: Send>(mut tasks: Vec<impl FnOnce() -> R + Send>) -> Vec<R> {
    let last = tasks.pop().expect("at least one task");
    if tasks.is_empty() {
        return vec![last()];
    }
    let (mut out, r) = par::parallel_join(|| fork_all(tasks), last);
    out.push(r);
    out
}

/// `x^1..x^needed`, level by level. `x^k` is a factor of `x^{2k−1}`,
/// `x^{2k}` and `x^{2k+1}` only, so a run's window holds at most two
/// lifts, and the last lift of a level is the first factor of the next
/// level, carried over to it.
fn baby_powers<T, L>(
    workers: usize,
    x: T,
    needed: usize,
    lift: &(impl Fn(&T) -> L + Sync),
    mul: &(impl Fn(&L, &L) -> T + Sync),
) -> Vec<T>
where
    T: Send + Sync,
    L: Send + Sync,
{
    let mut powers = Vec::with_capacity(needed);
    powers.push(x);
    let mut carry: Option<Arc<L>> = None;
    let mut a = 2;
    while a <= needed {
        // Level (a−1, 2(a−1)], cut at the top power needed.
        let b = (2 * (a - 1)).min(needed);
        let n = b - a + 1;
        let runs = workers.min(n / FORK_MIN).max(1);
        let starts: Vec<usize> = (0..=runs).map(|r| a + r * n / runs).collect();
        // Run r − 1 ends on factor ⌈(s−1)/2⌉ and run r starts on ⌊s/2⌋, the
        // same one, for s = starts[r].
        let shared: Vec<Arc<L>> = starts[1..runs]
            .iter()
            .map(|&s| Arc::new(lift(&powers[s / 2 - 1])))
            .collect();
        let done: &[T] = &powers;
        let tasks: Vec<_> = (0..runs)
            .map(|r| {
                let first = if r == 0 {
                    carry.take()
                } else {
                    Some(Arc::clone(&shared[r - 1]))
                };
                let last = shared.get(r).map(Arc::clone);
                let ms = starts[r]..starts[r + 1];
                move || baby_run(done, ms, first, last, lift, mul)
            })
            .collect();
        drop(shared);
        let mut outs = fork_all(tasks);
        carry = outs.last_mut().and_then(|(_, back)| back.take());
        for (out, _) in outs {
            powers.extend(out);
        }
        a = b + 1;
    }
    powers
}

/// The products `x^m` for `m ∈ ms`, from the powers below them in `done`,
/// sliding a window of lifts over their factors `⌊ms.start/2⌋ ..=
/// ⌈(ms.end−1)/2⌉`. The first and last factor come pre-lifted when
/// `first` / `last` hold them. Returns the products and the lift of the
/// last factor.
fn baby_run<T, L>(
    done: &[T],
    ms: Range<usize>,
    mut first: Option<Arc<L>>,
    mut last: Option<Arc<L>>,
    lift: &impl Fn(&T) -> L,
    mul: &impl Fn(&L, &L) -> T,
) -> (Vec<T>, Option<Arc<L>>) {
    let (low, high) = (ms.start / 2, (ms.end - 1).div_ceil(2));
    let mut out = Vec::with_capacity(ms.len());
    let mut window: VecDeque<Arc<L>> = VecDeque::new();
    let mut front = low; // window[0] is the lift of x^front
    for m in ms {
        let (hi, lo) = (m.div_ceil(2), m / 2);
        while front < lo {
            window.pop_front();
            front += 1;
        }
        while front + window.len() <= hi {
            let k = front + window.len();
            let given = if k == low {
                first.take()
            } else if k == high {
                last.take()
            } else {
                None
            };
            window.push_back(given.unwrap_or_else(|| Arc::new(lift(&done[k - 1]))));
        }
        out.push(mul(&window[hi - front], &window[lo - front]));
    }
    (out, window.pop_back())
}

/// A subtree's value: a plain constant (no ciphertext work yet) or a value
/// of the algebra.
enum Node<T> {
    Const(u64),
    Value(T),
}

/// The outer tree of [`bsgs_polynomial_eval`]: its leaves, the giants
/// `X^{2^j}`, and the algebra — read-only, shared by every worker.
struct OuterTree<'a, T, L, Lf, M, C, A> {
    coeffs: &'a [u64],
    bs: usize,
    /// `x^1..x^{bs−1}`, the leaves' terms.
    powers: Vec<T>,
    /// `giants[j] = X^{2^j}` and its lift, made once on its first use as a
    /// factor.
    giants: Vec<(T, OnceLock<L>)>,
    lift: &'a Lf,
    mul: &'a M,
    lincomb: &'a C,
    add: &'a A,
}

impl<T, L, Lf, M, C, A> OuterTree<'_, T, L, Lf, M, C, A>
where
    T: Send + Sync,
    L: Send + Sync,
    Lf: Fn(&T) -> L + Sync,
    M: Fn(&L, &L) -> T + Sync,
    C: Fn(&[T], &[u64], u64) -> T + Sync,
    A: Fn(&T, &T) -> T + Sync,
{
    /// `Σ_{g<len} leaf_{first+g}(x)·X^g`, depth-first: the `lo` subtree
    /// holds the largest power of two of leaves below `len`. A node that
    /// forks hands the subtrees of [`Self::frontier`] to workers and
    /// combines them in tree order.
    fn eval(&self, first: usize, len: usize, workers: usize) -> Node<T> {
        if len == 1 {
            return self.leaf(first);
        }
        if fork(len, workers).is_some() {
            let mut parts = Vec::new();
            Self::frontier(first, len, workers, &mut parts);
            let tasks = parts.into_iter().map(|(f, l)| move || self.eval(f, l, 1));
            let nodes = fork_all(tasks.collect());
            return self.combine(len, workers, &mut nodes.into_iter());
        }
        let (j, half) = halves(len);
        let lo = self.eval(first, half, workers);
        let hi = self.eval(first + half, len - half, workers);
        self.node(lo, hi, j)
    }

    /// The subtrees of a forking node, in tree order: its halves, each
    /// split again while it forks with its share of the workers.
    fn frontier(first: usize, len: usize, workers: usize, parts: &mut Vec<(usize, usize)>) {
        match fork(len, workers) {
            Some((half, w_lo)) => {
                Self::frontier(first, half, w_lo, parts);
                Self::frontier(first + half, len - half, workers - w_lo, parts);
            }
            None => parts.push((first, len)),
        }
    }

    /// The nodes above [`Self::frontier`]'s subtrees, from their values.
    fn combine(
        &self,
        len: usize,
        workers: usize,
        parts: &mut impl Iterator<Item = Node<T>>,
    ) -> Node<T> {
        match fork(len, workers) {
            Some((half, w_lo)) => {
                let lo = self.combine(half, w_lo, parts);
                let hi = self.combine(len - half, workers - w_lo, parts);
                self.node(lo, hi, halves(len).0)
            }
            None => parts.next().expect("one value per subtree"),
        }
    }

    fn leaf(&self, g: usize) -> Node<T> {
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
    fn node(&self, lo: Node<T>, hi: Node<T>, j: usize) -> Node<T> {
        let scaled = match hi {
            Node::Const(0) => return lo,
            Node::Const(c) => {
                let xj = std::slice::from_ref(&self.giants[j].0);
                if let Node::Const(c0) = lo {
                    return Node::Value((self.lincomb)(xj, &[c], c0));
                }
                (self.lincomb)(xj, &[c], 0)
            }
            Node::Value(h) => {
                let (x, l) = &self.giants[j];
                let xj = l.get_or_init(|| (self.lift)(x));
                let h = {
                    let lifted = (self.lift)(&h);
                    drop(h);
                    lifted
                };
                (self.mul)(xj, &h)
            }
        };
        Node::Value(match lo {
            Node::Const(0) => scaled,
            Node::Const(c0) => (self.add)(&scaled, &(self.lincomb)(&[], &[], c0)),
            Node::Value(l) => (self.add)(&l, &scaled),
        })
    }
}

/// A tree node over `len ≥ 2` leaves: `j` and the `2^j` leaves of `lo`.
fn halves(len: usize) -> (usize, usize) {
    let j = (len - 1).ilog2() as usize;
    (j, 1 << j)
}

/// Whether a node over `len` leaves forks at `workers`: its halves both
/// hold [`FORK_MIN`] leaves and there are workers to share. Returns `lo`'s
/// leaves and its share of the workers (the larger one).
fn fork(len: usize, workers: usize) -> Option<(usize, usize)> {
    if len < 2 * FORK_MIN || workers < 2 {
        return None;
    }
    let half = halves(len).1;
    (len - half >= FORK_MIN).then(|| (half, workers.div_ceil(2)))
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
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

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

    /// Runs the schedule over `Z_q` on `workers` with the per-term
    /// reference `lincomb`; returns the value and the number of `mul`
    /// calls.
    fn eval_bsgs_on(workers: usize, coeffs: &[u64], x: u64, q: &Modulus) -> (u64, usize) {
        let muls = AtomicUsize::new(0);
        let v = bsgs_polynomial_eval(
            workers,
            coeffs,
            x,
            &|a: &u64| *a,
            &|a: &u64, b: &u64| {
                muls.fetch_add(1, Ordering::Relaxed);
                q.mul(*a, *b)
            },
            &|xs: &[u64], cs: &[u64], c: u64| {
                let sum =
                    lincomb_by_terms(xs, cs, |a, c| q.mul(*a, q.reduce(c)), |a, b| q.add(*a, *b));
                q.add(sum.unwrap_or(0), q.reduce(c))
            },
            &|a: &u64, b: &u64| q.add(*a, *b),
        );
        (v, muls.into_inner())
    }

    fn eval_bsgs(coeffs: &[u64], x: u64, q: &Modulus) -> (u64, usize) {
        eval_bsgs_on(1, coeffs, x, q)
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
            let muls = AtomicUsize::new(0);
            bsgs_polynomial_eval(
                1,
                &dense(t),
                (),
                &|_: &()| (),
                &|_: &(), _: &()| {
                    muls.fetch_add(1, Ordering::Relaxed);
                },
                &|_: &[()], _: &[u64], _: u64| (),
                &|_: &(), _: &()| (),
            );
            let muls = muls.into_inner();
            assert_eq!(muls, want, "t={t}");
            assert_eq!(muls, tree_muls(t as usize - 1), "t={t}");
        }
    }

    #[test]
    fn dense_lut_cmult_depth_is_log_bs_plus_log_gs() {
        let ceil_log2 = |v: usize| v.next_power_of_two().ilog2();
        for t in [17u64, 257, 65537] {
            let depth = bsgs_polynomial_eval(
                1,
                &dense(t),
                0u32,
                &|d: &u32| *d,
                &|a: &u32, b: &u32| a.max(b) + 1,
                &|xs: &[u32], cs: &[u64], _: u64| {
                    xs.iter()
                        .zip(cs)
                        .filter(|(_, &c)| c != 0)
                        .map(|(d, _)| *d)
                        .max()
                        .unwrap_or(0)
                },
                &|a: &u32, b: &u32| *a.max(b),
            );
            let split = BsgsSplit::balanced(t as usize);
            assert_eq!(
                depth,
                ceil_log2(split.baby) + ceil_log2(split.giant),
                "t={t}"
            );
        }
    }

    /// What one run of the schedule did, tallied the way `fbs::Tally`
    /// does, plus its lifts and the threads its products ran on.
    #[derive(Debug, PartialEq, Eq)]
    struct Run {
        value: u64,
        /// (mul, scalar terms, lincomb constants + adds) calls.
        tally: (usize, usize, usize),
        lifts: usize,
    }

    fn run_on(workers: usize, coeffs: &[u64], x: u64) -> (Run, usize) {
        let q = Modulus::new(65537);
        let (muls, terms, adds, lifts) = Default::default();
        let (muls, terms, adds, lifts): (AtomicUsize, AtomicUsize, AtomicUsize, AtomicUsize) =
            (muls, terms, adds, lifts);
        let threads = Mutex::new(HashSet::new());
        let bump = |c: &AtomicUsize, n: usize| {
            c.fetch_add(n, Ordering::Relaxed);
        };
        let value = bsgs_polynomial_eval(
            workers,
            coeffs,
            x,
            &|a: &u64| {
                bump(&lifts, 1);
                *a
            },
            &|a: &u64, b: &u64| {
                bump(&muls, 1);
                threads.lock().unwrap().insert(std::thread::current().id());
                q.mul(*a, *b)
            },
            &|xs: &[u64], cs: &[u64], c: u64| {
                bump(&terms, cs.iter().filter(|&&c| c != 0).count());
                bump(&adds, usize::from(c != 0));
                let sum =
                    lincomb_by_terms(xs, cs, |a, c| q.mul(*a, q.reduce(c)), |a, b| q.add(*a, *b));
                q.add(sum.unwrap_or(0), q.reduce(c))
            },
            &|a: &u64, b: &u64| {
                bump(&adds, 1);
                q.add(*a, *b)
            },
        );
        let run = Run {
            value,
            tally: (muls.into_inner(), terms.into_inner(), adds.into_inner()),
            lifts: lifts.into_inner(),
        };
        (run, threads.into_inner().unwrap().len())
    }

    /// At every worker count the schedule makes the same calls: value,
    /// tallies and lifts equal the one-worker run. A `t = 257` FBS never
    /// forks. A `t = 65537` one forks its levels of 32, 64 and 128
    /// products into runs of at least `FORK_MIN` (2, 2 / 3 / 4, 2 / 3 / 4
    /// runs at 2 / 3 / 4 workers) and its tree into 2 / 3 / 4 subtrees,
    /// each extra run or subtree on a thread of its own.
    #[test]
    fn forked_runs_match_the_one_worker_run() {
        for t in [257u64, 65537] {
            let mut sparse = dense(t);
            let bs = BsgsSplit::balanced(t as usize).baby;
            // Whole leaves zero or constant, scattered zero terms.
            for (i, c) in sparse.iter_mut().enumerate() {
                let g = i / bs;
                if g % 7 == 3 || (g % 5 == 1 && i % bs != 0) || i % 11 == 4 {
                    *c = 0;
                }
            }
            for coeffs in [dense(t), sparse] {
                let (want, one) = run_on(1, &coeffs, 4242);
                assert_eq!(one, 1);
                assert_eq!(want.value, eval_plain(&coeffs, 4242, &Modulus::new(65537)));
                for (workers, spawned) in [(2usize, 4usize), (3, 7), (4, 10)] {
                    let (got, threads) = run_on(workers, &coeffs, 4242);
                    assert_eq!(got, want, "t={t} workers={workers}");
                    let spawned = if t == 65537 { spawned } else { 0 };
                    assert_eq!(threads, 1 + spawned, "t={t} workers={workers}");
                }
            }
        }
    }

    /// A value that counts how many of its kind are alive (and the peak),
    /// across threads.
    struct Tracked(Arc<[AtomicUsize; 2]>);

    impl Tracked {
        fn new(live: &Arc<[AtomicUsize; 2]>) -> Self {
            let now = live[0].fetch_add(1, Ordering::SeqCst) + 1;
            live[1].fetch_max(now, Ordering::SeqCst);
            Tracked(Arc::clone(live))
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0[0].fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn live_values_stay_within_baby_powers_plus_log_giants() {
        for t in [257u64, 65537] {
            let split = BsgsSplit::balanced(t as usize);
            let log_gs = split.giant.next_power_of_two().ilog2() as usize;
            for workers in 1..=4 {
                let live = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
                let out = bsgs_polynomial_eval(
                    workers,
                    &dense(t),
                    Tracked::new(&live),
                    &|_: &Tracked| Tracked::new(&live),
                    &|_: &Tracked, _: &Tracked| Tracked::new(&live),
                    &|_: &[Tracked], _: &[u64], _: u64| Tracked::new(&live),
                    &|_: &Tracked, _: &Tracked| Tracked::new(&live),
                );
                drop(out);
                let (now, peak) = (
                    live[0].load(Ordering::SeqCst),
                    live[1].load(Ordering::SeqCst),
                );
                assert_eq!(now, 0, "t={t}: every value dropped");
                // bs − 1 baby powers and the giants, shared by every
                // worker; per worker a pending `lo` per tree level and a
                // leaf, a lifted `hi` or a product in flight, or a run's
                // window of lifts (29 of 29 at t = 257, 281 of 281 at
                // t = 65537 on one worker; 281–284 of 305–353 on 2–4).
                let bound = split.baby + 3 * log_gs * workers;
                assert!(peak <= bound, "t={t} workers={workers}: peak {peak}");
            }
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
