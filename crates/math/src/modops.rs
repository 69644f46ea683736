//! Scalar modular arithmetic over word-sized moduli.
//!
//! Every modulus used in Athena fits in 62 bits (RNS limb primes are chosen
//! NTT-friendly and below 2^60; the plaintext modulus `t = 65537` is tiny),
//! so `u64` values with 128-bit intermediates are sufficient everywhere.
//!
//! The hot paths (NTT butterflies, element-wise modular multiply-accumulate)
//! use [`Modulus`], which precomputes a Barrett constant, and Shoup
//! multiplication for operand-invariant multiplies.
//!
//! No operation here branches on a residue. Ciphertext words are uniform
//! mod `q`, so a data-dependent `if` is mispredicted about half the time;
//! every final correction is a sign-mask select instead (`csub`).

/// `x − m` if `x ≥ m`, else `x`, without a branch: the one correction
/// every operation here ends with. Valid for `x < m + 2^63` with
/// `m < 2^63`, so that `x − m` is negative as an `i64` exactly when
/// `x < m`.
#[inline(always)]
pub(crate) fn csub(x: u64, m: u64) -> u64 {
    let d = x.wrapping_sub(m);
    d.wrapping_add(m & ((d as i64 >> 63) as u64))
}

/// A prime (or prime-power) modulus with precomputed Barrett reduction data.
///
/// # Examples
///
/// ```
/// use athena_math::modops::Modulus;
/// let m = Modulus::new(65537);
/// assert_eq!(m.mul(65536, 65536), 1); // (-1)*(-1) mod 65537
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    value: u64,
    /// floor(2^128 / value), stored as (hi, lo) 64-bit words.
    barrett_hi: u64,
    barrett_lo: u64,
}

impl Modulus {
    /// Creates a new modulus.
    ///
    /// # Panics
    ///
    /// Panics if `value < 2` or `value >= 2^62`.
    pub fn new(value: u64) -> Self {
        assert!(value >= 2, "modulus must be >= 2");
        // 4q < 2^64: the NTT's lazy butterflies hold values below 4q.
        assert!(value < (1u64 << 62), "modulus must fit in 62 bits");
        // floor(2^128 / v), computed from (2^128 - 1) = q*v + r:
        // floor(2^128 / v) is q unless r == v-1, in which case it is q+1.
        let q = u128::MAX / value as u128;
        let r = u128::MAX % value as u128;
        let q = if r == value as u128 - 1 { q + 1 } else { q };
        Self {
            value,
            barrett_hi: (q >> 64) as u64,
            barrett_lo: q as u64,
        }
    }

    /// The raw modulus value.
    #[inline(always)]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Number of significant bits in the modulus.
    pub fn bits(&self) -> u32 {
        64 - self.value.leading_zeros()
    }

    /// Reduces an arbitrary `u64` into `[0, q)`.
    #[inline(always)]
    pub fn reduce(&self, x: u64) -> u64 {
        self.reduce_u128(x as u128)
    }

    /// Reduces a 128-bit value into `[0, q)` using Barrett reduction.
    #[inline(always)]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        // Barrett: estimate quotient qhat = floor(x * floor(2^128/q) / 2^128)
        let xl = x as u64 as u128;
        let xh = (x >> 64) as u64 as u128;
        let bl = self.barrett_lo as u128;
        let bh = self.barrett_hi as u128;
        // x * b = (xh*2^64 + xl) * (bh*2^64 + bl); we need bits >= 128.
        let ll = xl * bl; // contributes to <128 only via carry
        let lh = xl * bh;
        let hl = xh * bl;
        let hh = xh * bh; // contributes fully above 2^128
        let mid = lh + hl + (ll >> 64);
        let qhat = hh + (mid >> 64);
        // qhat = ⌊x·b / 2^128⌋ exactly, and b ≥ 2^128/q − 1 with x < 2^128,
        // so qhat ≥ ⌊x/q⌋ − 1: the remainder lies in [0, 2q) and one
        // correction makes it canonical.
        let rem = x.wrapping_sub(qhat.wrapping_mul(self.value as u128)) as u64;
        csub(rem, self.value)
    }

    /// Modular addition of two values already in `[0, q)`.
    #[inline(always)]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        csub(a + b, self.value)
    }

    /// Modular subtraction of two values already in `[0, q)`.
    #[inline(always)]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        csub(a + self.value - b, self.value)
    }

    /// Modular negation of a value already in `[0, q)`.
    #[inline(always)]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.value);
        self.sub(0, a)
    }

    /// Modular multiplication of two values already in `[0, q)`.
    #[inline(always)]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Fused multiply-add: `(a*b + c) mod q`.
    #[inline(always)]
    pub fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        self.reduce_u128(a as u128 * b as u128 + c as u128)
    }

    /// Modular exponentiation by squaring.
    pub fn pow(&self, mut base: u64, mut exp: u64) -> u64 {
        base = self.reduce(base);
        let mut acc = 1u64 % self.value;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse, if it exists (i.e. `gcd(a, q) == 1`).
    pub fn inv(&self, a: u64) -> Option<u64> {
        // Extended Euclid over i128.
        let (mut t, mut new_t) = (0i128, 1i128);
        let (mut r, mut new_r) = (self.value as i128, self.reduce(a) as i128);
        while new_r != 0 {
            let q = r / new_r;
            (t, new_t) = (new_t, t - q * new_t);
            (r, new_r) = (new_r, r - q * new_r);
        }
        if r != 1 {
            return None;
        }
        let mut t = t % self.value as i128;
        if t < 0 {
            t += self.value as i128;
        }
        Some(t as u64)
    }

    /// Centered representative of `a` in `(-q/2, q/2]`, as `i64`.
    #[inline]
    pub fn center(&self, a: u64) -> i64 {
        debug_assert!(a < self.value);
        if a > self.value / 2 {
            a as i64 - self.value as i64
        } else {
            a as i64
        }
    }

    /// Maps a signed value into `[0, q)`.
    #[inline]
    pub fn from_i64(&self, a: i64) -> u64 {
        let r = a.rem_euclid(self.value as i64);
        r as u64
    }

    /// Precomputes a Shoup representation of `w` for fast repeated
    /// multiplication by the fixed operand `w`.
    #[inline]
    pub fn shoup(&self, w: u64) -> u64 {
        debug_assert!(w < self.value);
        (((w as u128) << 64) / self.value as u128) as u64
    }

    /// Shoup multiplication `a * w mod q`, where `w_shoup = shoup(w)`, for
    /// any `a < 2^64` (`w < q`).
    ///
    /// Roughly twice as fast as Barrett because the quotient estimate is a
    /// single high multiply.
    #[inline(always)]
    pub fn mul_shoup(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        csub(self.mul_shoup_lazy(a, w, w_shoup), self.value)
    }

    /// [`Modulus::mul_shoup`] without its final correction: `a·w mod q`
    /// as a value in `[0, 2q)`, for **any** `a < 2^64` (`w < q`). This is
    /// what lets NTT operands stay unreduced between stages.
    #[inline(always)]
    pub fn mul_shoup_lazy(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        let q = ((a as u128 * w_shoup as u128) >> 64) as u64;
        a.wrapping_mul(w).wrapping_sub(q.wrapping_mul(self.value))
    }
}

/// How many products `a·b` (`a < 2^a_bits`, `b < 2^b_bits`) a `u128` lane
/// can absorb on top of an already reduced word before it must be reduced
/// again — the headroom rule of every lazy multiply–accumulate in the
/// workspace (base conversion, the FBS inner sum). The reduced carry is
/// below one product, so `2^(128 − a_bits − b_bits) − 1` products plus the
/// carry stay below `2^128`: a whole 257-term block at 50-bit limbs, 255
/// terms at the production 60 bits, 15 at the 62-bit ceiling. The test
/// profile's overflow checks are the guard on this rule.
pub fn lazy_mac_terms(a_bits: u32, b_bits: u32) -> usize {
    let spare = 128u32.saturating_sub(a_bits + b_bits);
    assert!(spare >= 1, "operands too wide for a u128 lane");
    (1usize << spare.min(usize::BITS - 2)) - 1
}

impl std::fmt::Display for Modulus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrett_matches_naive() {
        let q = Modulus::new((0x3fff_ffff_0000_0001 % (1 << 61)) | 1);
        for &x in &[
            0u128,
            1,
            12345,
            u128::from(u64::MAX),
            u128::MAX / 7,
            u128::MAX,
        ] {
            assert_eq!(q.reduce_u128(x), (x % q.value() as u128) as u64);
        }
    }

    #[test]
    fn add_sub_neg() {
        let q = Modulus::new(97);
        assert_eq!(q.add(96, 5), 4);
        assert_eq!(q.sub(3, 10), 90);
        assert_eq!(q.neg(0), 0);
        assert_eq!(q.neg(1), 96);
    }

    #[test]
    fn pow_and_inv() {
        let q = Modulus::new(65537);
        let a = 12345;
        let ai = q.inv(a).expect("65537 is prime");
        assert_eq!(q.mul(a, ai), 1);
        // Fermat's little theorem.
        assert_eq!(q.pow(a, 65536), 1);
        assert_eq!(q.pow(a, 65535), ai);
    }

    #[test]
    fn inv_of_noninvertible() {
        let q = Modulus::new(100);
        assert_eq!(q.inv(10), None);
        assert_eq!(q.inv(3).map(|i| q.mul(3, i)), Some(1));
    }

    #[test]
    fn center_roundtrip() {
        let q = Modulus::new(17);
        for a in 0..17u64 {
            let c = q.center(a);
            assert!(c > -9 && c <= 8);
            assert_eq!(q.from_i64(c), a);
        }
    }

    #[test]
    fn shoup_matches_barrett() {
        let q = Modulus::new((1 << 59) - 55); // arbitrary odd modulus
        let w = 0x1234_5678_9abc % q.value();
        let ws = q.shoup(w);
        for a in [0u64, 1, 42, q.value() - 1, q.value() / 2] {
            assert_eq!(q.mul_shoup(a, w, ws), q.mul(a, w));
        }
    }

    #[test]
    fn mul_add_matches() {
        let q = Modulus::new(65537);
        assert_eq!(
            q.mul_add(65536, 65536, 65536),
            q.add(q.mul(65536, 65536), 65536)
        );
    }
}
