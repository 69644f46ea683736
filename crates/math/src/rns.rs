//! Residue number system (RNS) machinery: multi-prime bases, CRT
//! reconstruction through [`UBig`], and the word-sized base conversion the
//! Athena accelerator's FRU executes in hardware — both the classic fast
//! form (`x + α·B`) and the **exact** centred form the request path runs
//! on ([`BaseConverter`]).

use crate::bigint::{IBig, UBig};
use crate::modops::{lazy_mac_terms, Modulus};
use crate::poly::{Domain, Poly, Ring};

/// Word-sized tables converting a value from a source basis `B = ∏ b_i`
/// to target moduli `c_j` — the FRU's `BConv` datapath (§4.2): one Shoup
/// multiply per source limb, then one `u128` inner product and a single
/// reduction per output word.
///
/// With `y_i = [v_i·(B/b_i)^{-1}]_{b_i}` the CRT sum is
/// `Σ y_i·(B/b_i) = v + α·B`. [`convert_fast`](Self::convert_fast) stops
/// there (the classic approximate conversion, off by `α·B`, `0 ≤ α ≤ k`);
/// [`convert_centered`](Self::convert_centered) also computes
/// `α = round(Σ y_i/b_i)` and subtracts `α·(B mod c_j)`, which yields the
/// **centred** representative `v ∈ (−B/2, B/2)` exactly.
///
/// # The guard band
///
/// `α` is estimated in `f64` (`p = 53` mantissa bits, unit roundoff
/// `ε = 2^-53`). Each term `fl(fl(y_i)·fl(1/b_i))` carries three roundings
/// on a value below 1, an error below `3.01·ε`; the `k − 1` sequential
/// additions each round a partial sum below `k`, adding at most `k·ε`
/// apiece. The estimate is therefore within `(k² + 3k)·ε` of the true
/// `Σ y_i/b_i = α + v/B`, and rounding it is wrong only if its fractional
/// part is that close to ½, i.e. `v` is that close to `±B/2`. Coefficients
/// whose estimate falls inside the band `|frac − ½| < (k² + 3k)·2^-52` —
/// twice the error bound, so the band is *proved* wider than the error —
/// are reported back instead of trusted, and the caller sends those (only
/// those) through its [`UBig`] route. The result is bit-identical to
/// big-integer CRT for every input; the band is `≈ 2^-44` wide at 12
/// limbs, so on uniformly distributed values it essentially never fires.
#[derive(Debug, Clone)]
pub struct BaseConverter {
    src: Vec<Modulus>,
    dst: Vec<Modulus>,
    /// `m·(B/b_i)^{-1} mod b_i` with its Shoup companion (`m` is the fused
    /// source scale, 1 unless [`scaled`](Self::scaled)).
    hat_invs: Vec<(u64, u64)>,
    /// `fl(1/b_i)`.
    recips: Vec<f64>,
    /// Row `j`, `k + 1` words: `s_j·(B/b_i) mod c_j` for every `i`, then
    /// `−s_j·B mod c_j` (the word `α` multiplies).
    rows: Vec<u64>,
    /// Products one `u128` lane absorbs between reductions.
    lane_terms: usize,
}

impl BaseConverter {
    /// Tables for converting from the basis `∏ src` to the moduli `dst`
    /// (`src` pairwise coprime; may be empty: `B = 1`, every value is 0).
    ///
    /// # Panics
    ///
    /// Panics if two source moduli share a factor.
    pub fn new(src: &[u64], dst: &[u64]) -> Self {
        let src: Vec<Modulus> = src.iter().map(|&b| Modulus::new(b)).collect();
        let hat_invs = (0..src.len())
            .map(|i| {
                let hat = product_except(&src, i, &src[i]);
                src[i].inv(hat).expect("source moduli pairwise coprime")
            })
            .collect();
        Self::from_hat_invs(src, hat_invs, dst)
    }

    /// [`new`](Self::new) for callers that already hold
    /// `(B/b_i)^{-1} mod b_i` (an [`RnsBasis`] does): no modular inverse is
    /// computed, only `O(k·k')` multiplications.
    fn from_hat_invs(src: Vec<Modulus>, hat_invs: Vec<u64>, dst: &[u64]) -> Self {
        let k = src.len();
        let dst: Vec<Modulus> = dst.iter().map(|&c| Modulus::new(c)).collect();
        let mut rows = Vec::with_capacity(dst.len() * (k + 1));
        for c in &dst {
            // B/b_i mod c as prefix·suffix products of the reduced b_l.
            let reduced: Vec<u64> = src.iter().map(|b| c.reduce(b.value())).collect();
            let mut suffix = vec![1u64; k + 1];
            for i in (0..k).rev() {
                suffix[i] = c.mul(suffix[i + 1], reduced[i]);
            }
            let mut prefix = 1u64;
            for i in 0..k {
                rows.push(c.mul(prefix, suffix[i + 1]));
                prefix = c.mul(prefix, reduced[i]);
            }
            rows.push(c.neg(prefix));
        }
        let bits = |ms: &[Modulus]| ms.iter().map(Modulus::bits).max().unwrap_or(1);
        Self {
            hat_invs: hat_invs
                .iter()
                .zip(&src)
                .map(|(&h, b)| (h, b.shoup(h)))
                .collect(),
            recips: src.iter().map(|b| 1.0 / b.value() as f64).collect(),
            rows,
            lane_terms: lazy_mac_terms(bits(&src), bits(&dst)),
            src,
            dst,
        }
    }

    /// Fuses two multiplications into the tables: the converted value
    /// becomes the centred `[m·v]_B`, and output word `j` comes out
    /// multiplied by `scales[j]` (reduced mod `c_j`) — the shape of a BFV
    /// scale-down (`m = t`, `scales = −Q^{-1}`), at no per-coefficient cost.
    ///
    /// # Panics
    ///
    /// Panics unless there is one scale per target modulus.
    pub fn scaled(mut self, m: u64, scales: &[u64]) -> Self {
        assert_eq!(scales.len(), self.dst.len(), "one scale per target");
        for ((h, h_shoup), b) in self.hat_invs.iter_mut().zip(&self.src) {
            *h = b.mul(*h, b.reduce(m));
            *h_shoup = b.shoup(*h);
        }
        let k = self.src.len();
        for ((row, c), &s) in self.rows.chunks_mut(k + 1).zip(&self.dst).zip(scales) {
            for w in row {
                *w = c.mul(*w, s);
            }
        }
        self
    }

    /// The target moduli `c_j`.
    pub fn dst(&self) -> &[Modulus] {
        &self.dst
    }

    /// Half-width of the guard band around `frac = ½` (see the type docs).
    fn band(&self) -> f64 {
        let k = self.src.len() as f64;
        (k * k + 3.0 * k) * f64::EPSILON
    }

    /// The shared datapath of both conversions: per coefficient, the `y_i`
    /// (and, when `EXACT`, the overflow count `α`) are gathered into one
    /// `k + 1`-word vector and every output word is its inner product
    /// with a table row. Returns the coefficients whose `α` is ambiguous.
    fn run<const EXACT: bool>(&self, src: &[&[u64]], dst: &mut [Vec<u64>]) -> Vec<usize> {
        let k = self.src.len();
        assert_eq!(src.len(), k, "one residue slice per source modulus");
        assert_eq!(dst.len(), self.dst.len(), "one slice per target modulus");
        let n = dst.first().map_or(0, |d| d.len());
        assert!(src.iter().all(|s| s.len() == n) && dst.iter().all(|d| d.len() == n));
        let band = self.band();
        let mut ambiguous = Vec::new();
        // ys[k] is α (left 0 by the fast conversion).
        let mut ys = vec![0u64; k + 1];
        for c in 0..n {
            let mut estimate = 0.0f64;
            for (i, (b, &(h, h_shoup))) in self.src.iter().zip(&self.hat_invs).enumerate() {
                let y = b.mul_shoup(src[i][c], h, h_shoup);
                ys[i] = y;
                if EXACT {
                    // y < 2^62: the signed conversion is the cheap one.
                    estimate += y as i64 as f64 * self.recips[i];
                }
            }
            if EXACT {
                let floor = estimate.floor();
                let frac = estimate - floor;
                if (frac - 0.5).abs() < band {
                    ambiguous.push(c);
                }
                ys[k] = floor as u64 + u64::from(frac > 0.5);
            }
            for ((out, m), row) in dst.iter_mut().zip(&self.dst).zip(self.rows.chunks(k + 1)) {
                let mut acc = 0u128;
                for (y_run, w_run) in ys.chunks(self.lane_terms).zip(row.chunks(self.lane_terms)) {
                    for (&y, &w) in y_run.iter().zip(w_run) {
                        acc += y as u128 * w as u128;
                    }
                    acc = m.reduce_u128(acc) as u128;
                }
                out[c] = acc as u64;
            }
        }
        ambiguous
    }

    /// Fast (approximate) conversion: `dst[j][c] = v_c + α·B mod c_j` for
    /// some overflow `0 ≤ α ≤ k` — the classic `BConv`.
    pub fn convert_fast(&self, src: &[&[u64]], dst: &mut [Vec<u64>]) {
        self.run::<false>(src, dst);
    }

    /// Exact centred conversion: `dst[j][c] = v_c mod c_j` for the centred
    /// `v_c ∈ (−B/2, B/2)` — except at the returned coefficient indices,
    /// whose overflow estimate fell inside the guard band: their words are
    /// unspecified and the caller must recompute them exactly.
    #[must_use = "ambiguous coefficients must be recomputed through the exact route"]
    pub fn convert_centered(&self, src: &[&[u64]], dst: &mut [Vec<u64>]) -> Vec<usize> {
        self.run::<true>(src, dst)
    }
}

/// `∏_{l ≠ skip} ms[l] mod m`.
fn product_except(ms: &[Modulus], skip: usize, m: &Modulus) -> u64 {
    ms.iter()
        .enumerate()
        .filter(|&(l, _)| l != skip)
        .fold(1, |acc, (_, b)| m.mul(acc, m.reduce(b.value())))
}

/// An RNS basis: a set of pairwise-coprime NTT-friendly primes sharing one
/// ring degree, with CRT precomputations.
///
/// # Examples
///
/// ```
/// use athena_math::rns::RnsBasis;
/// use athena_math::prime::ntt_primes;
/// let primes = ntt_primes(30, 64, 3);
/// let basis = RnsBasis::new(&primes, 64);
/// assert_eq!(basis.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct RnsBasis {
    rings: Vec<Ring>,
    /// Q = prod q_i
    product: UBig,
    /// ⌊Q/2⌋, the largest centred value
    half: UBig,
    /// Q_i = Q / q_i
    hats: Vec<UBig>,
    /// (Q_i)^{-1} mod q_i
    hat_invs: Vec<u64>,
    /// Converter `i` takes the other `k − 1` limbs to `q_i`, scaled by
    /// `−(Q_i)^{-1}`: the "drop limb `i`" tables of the word-sized
    /// [`RnsBasis::scale_round`] arm (`≈ 2k²` words in all).
    drop_limb: Vec<BaseConverter>,
    /// Q mod 2^64 convenience (lossy)
    bits: usize,
}

impl RnsBasis {
    /// Builds a basis from distinct primes, each `≡ 1 (mod 2n)`.
    ///
    /// # Panics
    ///
    /// Panics if primes are not distinct or not NTT-friendly for `n`.
    pub fn new(primes: &[u64], n: usize) -> Self {
        assert!(!primes.is_empty(), "basis needs at least one prime");
        let mut sorted = primes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), primes.len(), "primes must be distinct");
        let rings: Vec<Ring> = primes.iter().map(|&q| Ring::new(q, n)).collect();
        let mut product = UBig::one();
        for &q in primes {
            product = product.mul_u64(q);
        }
        let hats: Vec<UBig> = primes.iter().map(|&q| product.div_rem_u64(q).0).collect();
        let hat_invs: Vec<u64> = primes
            .iter()
            .zip(&hats)
            .map(|(&q, hat)| {
                let m = Modulus::new(q);
                m.inv(hat.rem_u64(q))
                    .expect("hat invertible: primes coprime")
            })
            .collect();
        let bits = product.bits();
        let moduli: Vec<Modulus> = rings.iter().map(|r| *r.modulus()).collect();
        let drop_limb = (0..primes.len())
            .map(|i| {
                // (Q/(q_i·q_l))^{-1} = (Q/q_l)^{-1}·q_i (mod q_l): derived
                // from the full-basis inverses, no further inversion.
                let (rest, rest_invs) = (0..primes.len())
                    .filter(|&l| l != i)
                    .map(|l| {
                        let m = moduli[l];
                        (m, m.mul(hat_invs[l], m.reduce(primes[i])))
                    })
                    .unzip();
                BaseConverter::from_hat_invs(rest, rest_invs, &primes[i..=i])
                    .scaled(1, &[moduli[i].neg(hat_invs[i])])
            })
            .collect();
        Self {
            rings,
            half: product.shr(1),
            product,
            hats,
            hat_invs,
            drop_limb,
            bits,
        }
    }

    /// Number of limb primes.
    pub fn len(&self) -> usize {
        self.rings.len()
    }

    /// Whether the basis is empty (never true).
    pub fn is_empty(&self) -> bool {
        self.rings.is_empty()
    }

    /// The shared ring degree.
    pub fn n(&self) -> usize {
        self.rings[0].n()
    }

    /// The rings, one per limb prime.
    pub fn rings(&self) -> &[Ring] {
        &self.rings
    }

    /// The `i`-th ring.
    pub fn ring(&self, i: usize) -> &Ring {
        &self.rings[i]
    }

    /// The limb primes.
    pub fn moduli(&self) -> Vec<u64> {
        self.rings.iter().map(|r| r.modulus().value()).collect()
    }

    /// `Q = ∏ q_i`.
    pub fn product(&self) -> &UBig {
        &self.product
    }

    /// Bit size of `Q`.
    pub fn product_bits(&self) -> usize {
        self.bits
    }

    /// A sub-basis keeping only the first `k` primes.
    pub fn prefix(&self, k: usize) -> RnsBasis {
        RnsBasis::new(&self.moduli()[..k], self.n())
    }

    /// CRT-reconstructs residues `x_i` into `x ∈ [0, Q)`.
    pub fn crt_reconstruct(&self, residues: &[u64]) -> UBig {
        assert_eq!(residues.len(), self.len());
        let mut acc = UBig::zero();
        for (i, &res) in residues.iter().enumerate() {
            let m = self.rings[i].modulus();
            let term = self.hats[i].mul_u64(m.mul(res, self.hat_invs[i]));
            acc = acc.add(&term);
        }
        acc.rem(&self.product)
    }

    /// Decomposes `x mod Q` into RNS residues.
    pub fn crt_decompose(&self, x: &UBig) -> Vec<u64> {
        self.rings
            .iter()
            .map(|r| x.rem_u64(r.modulus().value()))
            .collect()
    }

    /// Centered CRT value in `(-Q/2, Q/2]`.
    pub fn crt_reconstruct_centered(&self, residues: &[u64]) -> IBig {
        let x = self.crt_reconstruct(residues);
        if x > self.half {
            IBig::new(true, self.product.sub(&x))
        } else {
            IBig::new(false, x)
        }
    }
}

/// A polynomial in RNS form: one residue [`Poly`] per basis prime, all in the
/// same domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    limbs: Vec<Poly>,
}

impl RnsPoly {
    /// Wraps per-limb polynomials (must share degree and domain).
    ///
    /// # Panics
    ///
    /// Panics on mismatched domains or lengths.
    pub fn from_limbs(limbs: Vec<Poly>) -> Self {
        assert!(!limbs.is_empty());
        let d = limbs[0].domain();
        let n = limbs[0].len();
        assert!(
            limbs.iter().all(|l| l.domain() == d && l.len() == n),
            "limbs must share domain and degree"
        );
        Self { limbs }
    }

    /// The per-limb polynomials.
    pub fn limbs(&self) -> &[Poly] {
        &self.limbs
    }

    /// Mutable per-limb polynomials.
    pub fn limbs_mut(&mut self) -> &mut [Poly] {
        &mut self.limbs
    }

    /// The shared domain.
    pub fn domain(&self) -> Domain {
        self.limbs[0].domain()
    }

    /// Number of limbs.
    pub fn limb_count(&self) -> usize {
        self.limbs.len()
    }

    /// The ring degree.
    pub fn n(&self) -> usize {
        self.limbs[0].len()
    }

    /// The limbs' values as word slices (the shape the conversion
    /// kernels of [`BaseConverter`] read).
    pub fn slices(&self) -> Vec<&[u64]> {
        self.limbs.iter().map(Poly::values).collect()
    }

    /// Consumes the polynomial into its limbs.
    pub fn into_limbs(self) -> Vec<Poly> {
        self.limbs
    }

    /// Copies the residues of coefficient `c` (one per limb) into
    /// `residues` — the input of a per-coefficient CRT reconstruction.
    pub fn gather(&self, c: usize, residues: &mut [u64]) {
        for (r, limb) in residues.iter_mut().zip(&self.limbs) {
            *r = limb.values()[c];
        }
    }
}

/// Arithmetic on [`RnsPoly`] values over a fixed [`RnsBasis`].
impl RnsBasis {
    /// The zero RNS polynomial.
    pub fn zero_poly(&self, domain: Domain) -> RnsPoly {
        RnsPoly::from_limbs(self.rings.iter().map(|r| r.zero(domain)).collect())
    }

    /// Lifts signed coefficients into RNS (coefficient domain).
    pub fn poly_from_i64(&self, coeffs: &[i64]) -> RnsPoly {
        RnsPoly::from_limbs(self.rings.iter().map(|r| r.from_i64(coeffs)).collect())
    }

    /// Lifts `UBig` coefficients (each in `[0, Q)`) into RNS.
    pub fn poly_from_ubig(&self, coeffs: &[UBig]) -> RnsPoly {
        assert_eq!(coeffs.len(), self.n());
        let limbs = self
            .rings
            .iter()
            .map(|r| {
                let q = r.modulus().value();
                Poly::from_values(coeffs.iter().map(|c| c.rem_u64(q)).collect(), Domain::Coeff)
            })
            .collect();
        RnsPoly::from_limbs(limbs)
    }

    /// CRT-reconstructs every coefficient to `[0, Q)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in coefficient domain.
    pub fn poly_to_ubig(&self, p: &RnsPoly) -> Vec<UBig> {
        assert_eq!(
            p.domain(),
            Domain::Coeff,
            "reconstruction needs Coeff domain"
        );
        let mut residues = vec![0u64; self.len()];
        (0..self.n())
            .map(|c| {
                p.gather(c, &mut residues);
                self.crt_reconstruct(&residues)
            })
            .collect()
    }

    /// Maps a unary per-limb operation over the limbs.
    fn map_limbs(&self, a: &RnsPoly, f: impl Fn(&Ring, &Poly) -> Poly) -> RnsPoly {
        assert_eq!(a.limb_count(), self.len());
        RnsPoly::from_limbs(
            self.rings
                .iter()
                .zip(&a.limbs)
                .map(|(r, x)| f(r, x))
                .collect(),
        )
    }

    /// Debug-checked domain agreement for element-wise (additive) zip ops.
    ///
    /// Adding a Coeff-form polynomial to an Eval-form one is *always* a
    /// logic error — the sum would mix incompatible representations and
    /// silently decrypt to garbage — so every additive zip op funnels
    /// through this check. Multiplicative ops ([`RnsBasis::mul_poly`]) are
    /// exempt: [`Ring::mul`] is deliberately domain-polymorphic and
    /// converts operands to Eval itself.
    #[inline]
    fn debug_check_zip_domains(&self, a: &RnsPoly, b: &RnsPoly, op: &str) {
        assert_eq!(a.limb_count(), self.len());
        assert_eq!(b.limb_count(), self.len());
        debug_assert_eq!(
            a.domain(),
            b.domain(),
            "RnsBasis::{op}: domain mismatch (lhs is {:?}, rhs is {:?}); \
             convert one operand with poly_to_eval/poly_to_coeff first",
            a.domain(),
            b.domain()
        );
    }

    fn zip_polys(
        &self,
        a: &RnsPoly,
        b: &RnsPoly,
        f: impl Fn(&Ring, &Poly, &Poly) -> Poly,
    ) -> RnsPoly {
        assert_eq!(a.limb_count(), self.len());
        assert_eq!(b.limb_count(), self.len());
        RnsPoly::from_limbs(
            (0..self.len())
                .map(|i| f(&self.rings[i], &a.limbs[i], &b.limbs[i]))
                .collect(),
        )
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the operands are in different domains.
    pub fn add_poly(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        self.debug_check_zip_domains(a, b, "add_poly");
        self.zip_polys(a, b, Ring::add)
    }

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the operands are in different domains.
    pub fn sub_poly(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        self.debug_check_zip_domains(a, b, "sub_poly");
        self.zip_polys(a, b, Ring::sub)
    }

    /// In-place element-wise combination, limb by limb (shared impl of
    /// the `*_assign` zip ops).
    fn zip_assign_polys(&self, a: &mut RnsPoly, b: &RnsPoly, f: impl Fn(&Ring, &mut Poly, &Poly)) {
        for ((r, x), y) in self.rings.iter().zip(a.limbs.iter_mut()).zip(&b.limbs) {
            f(r, x, y);
        }
    }

    /// In-place addition.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the operands are in different domains.
    pub fn add_assign_poly(&self, a: &mut RnsPoly, b: &RnsPoly) {
        self.debug_check_zip_domains(a, b, "add_assign_poly");
        self.zip_assign_polys(a, b, Ring::add_assign);
    }

    /// In-place subtraction.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the operands are in different domains.
    pub fn sub_assign_poly(&self, a: &mut RnsPoly, b: &RnsPoly) {
        self.debug_check_zip_domains(a, b, "sub_assign_poly");
        self.zip_assign_polys(a, b, Ring::sub_assign);
    }

    /// Negation.
    pub fn neg_poly(&self, a: &RnsPoly) -> RnsPoly {
        self.map_limbs(a, Ring::neg)
    }

    /// Polynomial multiplication (result in `Eval` domain).
    pub fn mul_poly(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        self.zip_polys(a, b, Ring::mul)
    }

    /// Multiplication by a small scalar (applied per limb).
    pub fn scalar_mul_poly(&self, a: &RnsPoly, c: u64) -> RnsPoly {
        self.map_limbs(a, |r, x| r.scalar_mul(x, c))
    }

    /// Multiplication by a signed scalar.
    pub fn scalar_mul_poly_i64(&self, a: &RnsPoly, c: i64) -> RnsPoly {
        self.map_limbs(a, |r, x| r.scalar_mul(x, r.modulus().from_i64(c)))
    }

    /// Converts all limbs to evaluation domain (one NTT per limb).
    pub fn poly_to_eval(&self, a: &RnsPoly) -> RnsPoly {
        self.map_limbs(a, Ring::to_eval)
    }

    /// Converts all limbs to coefficient domain (one inverse NTT per limb).
    pub fn poly_to_coeff(&self, a: &RnsPoly) -> RnsPoly {
        self.map_limbs(a, Ring::to_coeff)
    }

    /// In-place conversion of all limbs to evaluation domain: transforms
    /// inside the existing limb buffers — no allocation, no copy (the
    /// variant of [`RnsBasis::poly_to_eval`] for callers that own their
    /// operand).
    pub fn poly_to_eval_inplace(&self, a: &mut RnsPoly) {
        assert_eq!(a.limb_count(), self.len());
        for (p, r) in a.limbs_mut().iter_mut().zip(&self.rings) {
            r.to_eval_inplace(p);
        }
    }

    /// In-place conversion of all limbs to coefficient domain (see
    /// [`RnsBasis::poly_to_eval_inplace`]).
    pub fn poly_to_coeff_inplace(&self, a: &mut RnsPoly) {
        assert_eq!(a.limb_count(), self.len());
        for (p, r) in a.limbs_mut().iter_mut().zip(&self.rings) {
            r.to_coeff_inplace(p);
        }
    }

    /// Applies the Galois automorphism `X → X^k` per limb (any domain).
    ///
    /// In Eval form the slot permutation depends only on the shared ring
    /// degree, so it is computed once here and applied to every limb —
    /// not recomputed per limb.
    pub fn automorphism_poly(&self, a: &RnsPoly, k: usize) -> RnsPoly {
        match a.domain() {
            Domain::Coeff => self.map_limbs(a, |r, x| r.automorphism_coeff(x, k)),
            Domain::Eval => {
                let perm = self.rings[0].automorphism_permutation(k);
                self.map_limbs(a, |r, x| r.automorphism_eval_perm(x, &perm))
            }
        }
    }

    /// **Exact** scaled rounding `round(num · x / Q) mod target` applied per
    /// coefficient, where `x` is the centered CRT value — BFV modulus
    /// switching / decryption scaling.
    ///
    /// When `num == target` is limb `i` of this basis (the `Q → q_mid`
    /// switch of every extraction) the rounding runs on word-sized
    /// arithmetic: with `Q_i = Q/q_i` and `r` the centred residue
    /// `[x]_{Q_i}`, converted exactly from the other `k − 1` limbs by
    /// [`BaseConverter::convert_centered`], the answer is
    /// `(x_i − r)·Q_i^{-1} mod q_i`. `Q_i` is odd, so `x/Q_i` is never a
    /// tie and `(x − r)/Q_i` *is* the rounded quotient; coefficients inside
    /// the converter's guard band take the big-integer route instead, so
    /// the result is bit-identical to
    /// [`scale_round_reference`](Self::scale_round_reference) for every
    /// input. Every other `(num, target)` is the reference path.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in coefficient domain.
    pub fn scale_round(&self, p: &RnsPoly, num: u64, target: u64) -> Vec<u64> {
        self.scale_round_counted(p, num, target).0
    }

    /// [`scale_round`](Self::scale_round), also handing back how many
    /// coefficients went through big integers (all `N` off the word-sized
    /// arm; on it, only guard-band hits — 0 on anything but constructed
    /// inputs).
    pub fn scale_round_counted(&self, p: &RnsPoly, num: u64, target: u64) -> (Vec<u64>, usize) {
        assert_eq!(p.domain(), Domain::Coeff);
        let limb = self
            .rings
            .iter()
            .position(|r| num == target && r.modulus().value() == target);
        let Some(i) = limb else {
            return (self.scale_round_reference(p, num, target), self.n());
        };
        let rest: Vec<&[u64]> = (0..self.len())
            .filter(|&l| l != i)
            .map(|l| p.limbs[l].values())
            .collect();
        // out = −r·Q_i^{-1}, then += x_i·Q_i^{-1}.
        let mut out = vec![0u64; self.n()];
        let ambiguous = self.drop_limb[i].convert_centered(&rest, std::slice::from_mut(&mut out));
        let qi = self.rings[i].modulus();
        let (inv, inv_shoup) = (self.hat_invs[i], qi.shoup(self.hat_invs[i]));
        for (o, &x) in out.iter_mut().zip(p.limbs[i].values()) {
            *o = qi.add(*o, qi.mul_shoup(x, inv, inv_shoup));
        }
        let mut residues = vec![0u64; self.len()];
        for &c in &ambiguous {
            out[c] = self.scale_round_coeff(p, c, num, qi, &mut residues);
        }
        (out, ambiguous.len())
    }

    /// The big-integer body of [`scale_round`](Self::scale_round): every
    /// coefficient CRT-reconstructed, centred, multiplied and divided with
    /// rounding — the guard-band fallback of the word-sized arm and the
    /// oracle it is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in coefficient domain.
    pub fn scale_round_reference(&self, p: &RnsPoly, num: u64, target: u64) -> Vec<u64> {
        assert_eq!(p.domain(), Domain::Coeff);
        let tm = Modulus::new(target);
        let mut residues = vec![0u64; self.len()];
        (0..self.n())
            .map(|c| self.scale_round_coeff(p, c, num, &tm, &mut residues))
            .collect()
    }

    /// Coefficient `c` of [`scale_round_reference`](Self::scale_round_reference).
    fn scale_round_coeff(
        &self,
        p: &RnsPoly,
        c: usize,
        num: u64,
        tm: &Modulus,
        residues: &mut [u64],
    ) -> u64 {
        p.gather(c, residues);
        let x = self.crt_reconstruct_centered(residues);
        let w = x.mag.mul_u64(num).div_round(&self.product);
        signed_residue(x.neg, &w, tm)
    }

    /// The conversion tables from this basis to the moduli `dst`, reusing
    /// the basis' own `(Q/q_i)^{-1}` (no modular inverse is computed).
    pub fn converter_to(&self, dst: &[u64]) -> BaseConverter {
        let src = self.rings.iter().map(|r| *r.modulus()).collect();
        BaseConverter::from_hat_invs(src, self.hat_invs.clone(), dst)
    }

    /// Fast (approximate) base conversion of one coefficient vector of
    /// residues from this basis to `other`: computes
    /// `Σ_i [x_i · (Q/q_i)^{-1}]_{q_i} · (Q/q_i) mod p_j`, which equals
    /// `x + α·Q (mod p_j)` for some small overflow `0 ≤ α ≤ len`.
    ///
    /// This is the `BConv` workload executed by the FRU's RNS datapath;
    /// the exact conversions of the request path
    /// ([`convert_centered`](Self::convert_centered)) run the same inner
    /// loops plus the overflow count.
    pub fn fast_base_convert(&self, p: &RnsPoly, other: &RnsBasis) -> RnsPoly {
        assert_eq!(
            p.domain(),
            Domain::Coeff,
            "base conversion needs Coeff domain"
        );
        let conv = self.converter_to(&other.moduli());
        let mut out = vec![vec![0; self.n()]; other.len()];
        conv.convert_fast(&p.slices(), &mut out);
        RnsPoly::from_limbs(coeff_polys(out))
    }

    /// **Exact** centred base conversion of `p` through `conv` (built by
    /// [`converter_to`](Self::converter_to), unscaled): limb `j` of the
    /// result holds `v mod c_j` for the centred CRT value
    /// `v ∈ (−Q/2, Q/2)` of every coefficient — the CMult lift. Word-sized
    /// except for the coefficients inside the converter's guard band,
    /// which are recomputed through [`UBig`]; their number is handed back
    /// (0 on anything but constructed inputs).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in coefficient domain.
    pub fn convert_centered(&self, p: &RnsPoly, conv: &BaseConverter) -> (Vec<Poly>, usize) {
        assert_eq!(p.domain(), Domain::Coeff, "CRT lift reads coefficients");
        let mut out = vec![vec![0; self.n()]; conv.dst().len()];
        let ambiguous = conv.convert_centered(&p.slices(), &mut out);
        let mut residues = vec![0u64; self.len()];
        for &c in &ambiguous {
            self.convert_coeff_reference(p, c, conv.dst(), &mut residues, &mut out);
        }
        (coeff_polys(out), ambiguous.len())
    }

    /// The big-integer body of [`convert_centered`](Self::convert_centered):
    /// every coefficient CRT-reconstructed and centred — its guard-band
    /// fallback and the oracle it is tested against.
    pub fn convert_centered_reference(&self, p: &RnsPoly, dst: &[Modulus]) -> Vec<Poly> {
        assert_eq!(p.domain(), Domain::Coeff, "CRT lift reads coefficients");
        let mut out = vec![vec![0; self.n()]; dst.len()];
        let mut residues = vec![0u64; self.len()];
        for c in 0..self.n() {
            self.convert_coeff_reference(p, c, dst, &mut residues, &mut out);
        }
        coeff_polys(out)
    }

    /// Coefficient `c` of
    /// [`convert_centered_reference`](Self::convert_centered_reference).
    fn convert_coeff_reference(
        &self,
        p: &RnsPoly,
        c: usize,
        dst: &[Modulus],
        residues: &mut [u64],
        out: &mut [Vec<u64>],
    ) {
        p.gather(c, residues);
        let x = self.crt_reconstruct_centered(residues);
        for (o, m) in out.iter_mut().zip(dst) {
            o[c] = signed_residue(x.neg, &x.mag, m);
        }
    }

    /// Exact base conversion via CRT reconstruction (reference path; the
    /// *non-centred* value in `[0, Q)`).
    pub fn exact_base_convert(&self, p: &RnsPoly, other: &RnsBasis) -> RnsPoly {
        let coeffs = self.poly_to_ubig(p);
        other.poly_from_ubig(&coeffs)
    }
}

/// `±mag mod m`: the residue of a sign-magnitude big integer.
pub fn signed_residue(neg: bool, mag: &UBig, m: &Modulus) -> u64 {
    let r = mag.rem_u64(m.value());
    if neg {
        m.neg(r)
    } else {
        r
    }
}

/// Wraps conversion outputs as coefficient-form limbs.
pub fn coeff_polys(limbs: Vec<Vec<u64>>) -> Vec<Poly> {
    limbs
        .into_iter()
        .map(|l| Poly::from_values(l, Domain::Coeff))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::ntt_primes;

    fn basis(n: usize, k: usize) -> RnsBasis {
        RnsBasis::new(&ntt_primes(30, n, k), n)
    }

    #[test]
    fn crt_roundtrip() {
        let b = basis(16, 3);
        let x = UBig::from_decimal("123456789012345678901234");
        let x = x.rem(b.product());
        let res = b.crt_decompose(&x);
        assert_eq!(b.crt_reconstruct(&res), x);
    }

    #[test]
    fn poly_roundtrip_and_ops() {
        let b = basis(16, 2);
        let a = b.poly_from_i64(&(0..16).map(|i| i as i64 - 8).collect::<Vec<_>>());
        let c = b.add_poly(&a, &a);
        let d = b.sub_poly(&c, &a);
        assert_eq!(d, a);
        let coeffs = b.poly_to_ubig(&a);
        let back = b.poly_from_ubig(&coeffs);
        assert_eq!(back, a);
    }

    #[test]
    fn mul_matches_bigint() {
        let b = basis(16, 2);
        let a = b.poly_from_i64(&(0..16).map(|i| i as i64 + 1).collect::<Vec<_>>());
        let c = b.poly_from_i64(&(0..16).map(|i| 2 * i as i64 - 3).collect::<Vec<_>>());
        let prod = b.poly_to_coeff(&b.mul_poly(&a, &c));
        // verify one coefficient against schoolbook over centered integers
        let av: Vec<i64> = (0..16).map(|i| i as i64 + 1).collect();
        let cv: Vec<i64> = (0..16).map(|i| 2 * i as i64 - 3).collect();
        let mut want = vec![0i64; 16];
        for i in 0..16 {
            for j in 0..16 {
                let p = av[i] * cv[j];
                if i + j < 16 {
                    want[i + j] += p;
                } else {
                    want[i + j - 16] -= p;
                }
            }
        }
        let got = b.poly_to_ubig(&prod);
        for j in 0..16 {
            let w = IBig::from_i64(want[j]).rem_euclid(b.product());
            assert_eq!(got[j], w, "coeff {j}");
        }
    }

    #[test]
    fn scale_round_matches_manual() {
        // Switch a known value from Q to t = 97.
        let b = basis(16, 2);
        let t = 97u64;
        // encode x_j = j * Q / 100 approximately: use  x = j * (Q/100)
        let (q100, _) = b.product().div_rem_u64(100);
        let coeffs: Vec<UBig> = (0..16u64).map(|j| q100.mul_u64(j)).collect();
        let p = b.poly_from_ubig(&coeffs);
        let scaled = b.scale_round(&p, t, t);
        for j in 0..16usize {
            // round(t * j * (Q/100) / Q) ≈ round(97*j/100)
            let want = coeffs[j].mul_u64(t).div_round(b.product()).rem_u64(t);
            assert_eq!(scaled[j], want, "j={j}");
        }
    }

    #[test]
    fn fast_base_convert_off_by_alpha_q() {
        let b = basis(16, 3);
        let other = RnsBasis::new(&ntt_primes(31, 16, 2), 16);
        let a = b.poly_from_i64(&(0..16).map(|i| 1000 * i as i64).collect::<Vec<_>>());
        let fast = b.fast_base_convert(&a, &other);
        let exact = b.exact_base_convert(&a, &other);
        // fast = exact + alpha*Q mod p_j, with 0 <= alpha < len
        for (j, r) in other.rings().iter().enumerate() {
            let pj = r.modulus();
            let qmod = b.product().rem_u64(pj.value());
            for c in 0..16 {
                let f = fast.limbs()[j].values()[c];
                let e = exact.limbs()[j].values()[c];
                let mut ok = false;
                let mut cand = e;
                for _ in 0..b.len() + 1 {
                    if cand == f {
                        ok = true;
                        break;
                    }
                    cand = pj.add(cand, qmod);
                }
                assert!(ok, "limb {j} coeff {c}: fast not within alpha*Q of exact");
            }
        }
    }

    #[test]
    fn add_assign_matches_add() {
        let b = basis(16, 3);
        let x = b.poly_from_i64(&(0..16).map(|i| 3 * i as i64 - 20).collect::<Vec<_>>());
        let y = b.poly_from_i64(&(0..16).map(|i| 7 - i as i64).collect::<Vec<_>>());
        let want_add = b.add_poly(&x, &y);
        let want_sub = b.sub_poly(&x, &y);
        let mut a = x.clone();
        b.add_assign_poly(&mut a, &y);
        assert_eq!(a, want_add, "add");
        let mut s = x.clone();
        b.sub_assign_poly(&mut s, &y);
        assert_eq!(s, want_sub, "sub");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "domain mismatch")]
    fn add_assign_rejects_mixed_domains() {
        let b = basis(16, 2);
        let x = b.poly_from_i64(&(0..16).map(|i| i as i64).collect::<Vec<_>>());
        let mut e = b.poly_to_eval(&x);
        b.add_assign_poly(&mut e, &x);
    }

    #[test]
    fn automorphism_poly_coeff_matches_eval() {
        let b = basis(16, 3);
        let a = b.poly_from_i64(&(0..16).map(|i| 5 * i as i64 - 11).collect::<Vec<_>>());
        let ae = b.poly_to_eval(&a);
        for k in [3usize, 5, 9, 31] {
            let via_coeff = b.poly_to_eval(&b.automorphism_poly(&a, k));
            let via_eval = b.automorphism_poly(&ae, k);
            assert_eq!(via_coeff, via_eval, "k={k}");
            // and back down to Coeff for good measure
            assert_eq!(
                b.poly_to_coeff(&via_eval),
                b.automorphism_poly(&a, k),
                "k={k} roundtrip"
            );
        }
    }

    #[test]
    fn prefix_basis() {
        let b = basis(16, 3);
        let p = b.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.moduli(), b.moduli()[..2].to_vec());
    }
}
