//! A small arbitrary-precision unsigned integer, `UBig`.
//!
//! Athena's exact paths need integers up to roughly `Q² · N` where
//! `log₂ Q = 720`, i.e. ~1500 bits — far beyond `u128` but small enough that
//! a simple little-endian `Vec<u64>` limb representation with schoolbook
//! multiplication and Knuth Algorithm D division is more than fast enough.
//! This keeps the workspace free of external big-integer dependencies and
//! doubles as the reference implementation that the RNS fast paths are
//! property-tested against.

use std::cmp::Ordering;

/// Arbitrary-precision unsigned integer (little-endian `u64` limbs, no
/// trailing zero limbs; zero is the empty limb vector).
///
/// # Examples
///
/// ```
/// use athena_math::bigint::UBig;
/// let a = UBig::from(u64::MAX);
/// let b = &a * &a;
/// let (q, r) = b.div_rem(&a);
/// assert_eq!(q, a);
/// assert!(r.is_zero());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct UBig {
    limbs: Vec<u64>,
}

impl UBig {
    /// The value zero.
    pub fn zero() -> Self {
        Self { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        Self { limbs: vec![1] }
    }

    /// Constructs from little-endian limbs (trailing zeros allowed).
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Self { limbs }
    }

    /// The little-endian limb view.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&hi) => self.limbs.len() * 64 - hi.leading_zeros() as usize,
        }
    }

    /// The low 128 bits.
    pub fn to_u128_lossy(&self) -> u128 {
        let lo = self.limbs.first().copied().unwrap_or(0) as u128;
        let hi = self.limbs.get(1).copied().unwrap_or(0) as u128;
        (hi << 64) | lo
    }

    /// Bit `i` (false beyond the top).
    pub fn bit(&self, i: usize) -> bool {
        self.limbs
            .get(i / 64)
            .is_some_and(|l| (l >> (i % 64)) & 1 == 1)
    }

    /// `self + other`.
    pub fn add(&self, other: &UBig) -> UBig {
        let (a, b) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = 0u64;
        for (i, &ai) in a.iter().enumerate() {
            let bi = b.get(i).copied().unwrap_or(0);
            let (s1, c1) = ai.overflowing_add(bi);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry != 0 {
            out.push(carry);
        }
        UBig::from_limbs(out)
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &UBig) -> UBig {
        assert!(self >= other, "UBig::sub would underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let bi = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(bi);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        UBig::from_limbs(out)
    }

    /// `self * other` (schoolbook).
    pub fn mul(&self, other: &UBig) -> UBig {
        if self.is_zero() || other.is_zero() {
            return UBig::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        UBig::from_limbs(out)
    }

    /// Multiplies by a single word.
    pub fn mul_u64(&self, w: u64) -> UBig {
        if w == 0 || self.is_zero() {
            return UBig::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &a in &self.limbs {
            let cur = a as u128 * w as u128 + carry;
            out.push(cur as u64);
            carry = cur >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        UBig::from_limbs(out)
    }

    /// Adds a single word.
    pub fn add_u64(&self, w: u64) -> UBig {
        self.add(&UBig::from(w))
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> UBig {
        if self.is_zero() {
            return UBig::zero();
        }
        let word_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = vec![0u64; word_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        UBig::from_limbs(out)
    }

    /// Right shift by `n` bits.
    pub fn shr(&self, n: usize) -> UBig {
        let word_shift = n / 64;
        if word_shift >= self.limbs.len() {
            return UBig::zero();
        }
        let bit_shift = n % 64;
        let src = &self.limbs[word_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = src.get(i + 1).map_or(0, |&l| l << (64 - bit_shift));
                out.push(lo | hi);
            }
        }
        UBig::from_limbs(out)
    }

    /// Divides by a single word, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn div_rem_u64(&self, d: u64) -> (UBig, u64) {
        assert!(d != 0, "division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (UBig::from_limbs(out), rem as u64)
    }

    /// Full division: returns `(quotient, remainder)` with
    /// `self = q*d + r`, `0 <= r < d` (Knuth Algorithm D).
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn div_rem(&self, d: &UBig) -> (UBig, UBig) {
        assert!(!d.is_zero(), "division by zero");
        if self < d {
            return (UBig::zero(), self.clone());
        }
        if d.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(d.limbs[0]);
            return (q, UBig::from(r));
        }
        // Normalize so divisor's top limb has its high bit set.
        let shift = d.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = d.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut un = u.limbs.clone();
        un.push(0); // u has m+n+1 limbs
        let vn = &v.limbs;
        let mut q = vec![0u64; m + 1];
        let b = 1u128 << 64;
        for j in (0..=m).rev() {
            // Estimate qhat from top two limbs of current remainder.
            let top = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = top / vn[n - 1] as u128;
            let mut rhat = top % vn[n - 1] as u128;
            while qhat >= b || qhat * vn[n - 2] as u128 > ((rhat << 64) | un[j + n - 2] as u128) {
                qhat -= 1;
                rhat += vn[n - 1] as u128;
                if rhat >= b {
                    break;
                }
            }
            // Multiply and subtract: un[j..j+n+1] -= qhat * v.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let sub = un[j + i] as i128 - (p as u64) as i128 - borrow;
                un[j + i] = sub as u64;
                borrow = i128::from(sub < 0);
            }
            let sub = un[j + n] as i128 - carry as i128 - borrow;
            un[j + n] = sub as u64;
            if sub < 0 {
                // qhat was one too large; add divisor back.
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + carry;
                    un[j + i] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
            q[j] = qhat as u64;
        }
        let r = UBig::from_limbs(un[..n].to_vec()).shr(shift);
        (UBig::from_limbs(q), r)
    }

    /// `self mod d`.
    pub fn rem(&self, d: &UBig) -> UBig {
        self.div_rem(d).1
    }

    /// `self mod m` for a word-sized modulus.
    pub fn rem_u64(&self, m: u64) -> u64 {
        self.div_rem_u64(m).1
    }

    /// Rounded division `round(self / d)` (ties away from zero, matching
    /// `⌊x/d⌉` for non-negative x as used in BFV scaling).
    pub fn div_round(&self, d: &UBig) -> UBig {
        let (q, r) = self.div_rem(d);
        // round up if 2r >= d
        if r.mul_u64(2) >= *d {
            q.add(&UBig::one())
        } else {
            q
        }
    }

    /// Parses from a decimal string.
    ///
    /// # Panics
    ///
    /// Panics on non-digit characters.
    pub fn from_decimal(s: &str) -> UBig {
        let mut acc = UBig::zero();
        for c in s.bytes() {
            assert!(c.is_ascii_digit(), "invalid decimal digit");
            acc = acc.mul_u64(10).add_u64((c - b'0') as u64);
        }
        acc
    }

    /// Renders as a decimal string.
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(10);
            digits.push(b'0' + r as u8);
            cur = q;
        }
        digits.reverse();
        String::from_utf8(digits).expect("digits are ASCII")
    }
}

impl From<u64> for UBig {
    fn from(v: u64) -> Self {
        UBig::from_limbs(vec![v])
    }
}

impl From<u128> for UBig {
    fn from(v: u128) -> Self {
        UBig::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for UBig {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for i in (0..self.limbs.len()).rev() {
                    match self.limbs[i].cmp(&other.limbs[i]) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl std::ops::Add for &UBig {
    type Output = UBig;
    fn add(self, rhs: &UBig) -> UBig {
        UBig::add(self, rhs)
    }
}

impl std::ops::Sub for &UBig {
    type Output = UBig;
    fn sub(self, rhs: &UBig) -> UBig {
        UBig::sub(self, rhs)
    }
}

impl std::ops::Mul for &UBig {
    type Output = UBig;
    fn mul(self, rhs: &UBig) -> UBig {
        UBig::mul(self, rhs)
    }
}

impl std::fmt::Display for UBig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_decimal())
    }
}

/// A signed wrapper over [`UBig`], used for centered residues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IBig {
    /// Magnitude.
    pub mag: UBig,
    /// Sign: true if negative (zero is always non-negative).
    pub neg: bool,
}

impl IBig {
    /// Constructs from a sign and a magnitude.
    pub fn new(neg: bool, mag: UBig) -> Self {
        let neg = neg && !mag.is_zero();
        Self { mag, neg }
    }

    /// Constructs from an `i64`.
    pub fn from_i64(v: i64) -> Self {
        Self::new(v < 0, UBig::from(v.unsigned_abs()))
    }

    /// Signed addition.
    pub fn add(&self, other: &IBig) -> IBig {
        if self.neg == other.neg {
            IBig::new(self.neg, self.mag.add(&other.mag))
        } else if self.mag >= other.mag {
            IBig::new(self.neg, self.mag.sub(&other.mag))
        } else {
            IBig::new(other.neg, other.mag.sub(&self.mag))
        }
    }

    /// Signed multiplication.
    pub fn mul(&self, other: &IBig) -> IBig {
        IBig::new(self.neg != other.neg, self.mag.mul(&other.mag))
    }

    /// Euclidean remainder in `[0, m)`.
    pub fn rem_euclid(&self, m: &UBig) -> UBig {
        let r = self.mag.rem(m);
        if self.neg && !r.is_zero() {
            m.sub(&r)
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = UBig::from_decimal("123456789012345678901234567890");
        let b = UBig::from_decimal("987654321098765432109876543210");
        let s = a.add(&b);
        assert_eq!(s.sub(&b), a);
        assert_eq!(s.to_decimal(), "1111111110111111111011111111100");
    }

    #[test]
    fn mul_div_roundtrip() {
        let a = UBig::from_decimal("340282366920938463463374607431768211457"); // 2^128+1
        let b = UBig::from_decimal("18446744073709551629"); // prime > 2^64
        let p = a.mul(&b);
        let (q, r) = p.div_rem(&b);
        assert_eq!(q, a);
        assert!(r.is_zero());
        let p1 = p.add_u64(12345);
        let (q1, r1) = p1.div_rem(&b);
        assert_eq!(q1, a);
        assert_eq!(r1, UBig::from(12345u64));
    }

    #[test]
    fn division_stress_knuth_d_edge() {
        // Case that exercises the add-back branch: divisor with max top limb.
        let d = UBig::from_limbs(vec![0, u64::MAX]);
        let n = UBig::from_limbs(vec![u64::MAX, u64::MAX, u64::MAX - 1]);
        let (q, r) = n.div_rem(&d);
        let recon = q.mul(&d).add(&r);
        assert_eq!(recon, n);
        assert!(r < d);
    }

    #[test]
    fn shifts() {
        let a = UBig::from_decimal("123456789123456789123456789");
        assert_eq!(a.shl(67).shr(67), a);
        assert_eq!(a.shl(3), a.mul_u64(8));
        assert_eq!(a.shr(200), UBig::zero());
    }

    #[test]
    fn div_round_ties() {
        let d = UBig::from(10u64);
        assert_eq!(UBig::from(14u64).div_round(&d), UBig::from(1u64));
        assert_eq!(UBig::from(15u64).div_round(&d), UBig::from(2u64));
        assert_eq!(UBig::from(16u64).div_round(&d), UBig::from(2u64));
    }

    #[test]
    fn decimal_roundtrip() {
        for s in [
            "0",
            "1",
            "18446744073709551616",
            "340282366920938463463374607431768211456",
        ] {
            assert_eq!(UBig::from_decimal(s).to_decimal(), s);
        }
    }

    #[test]
    fn bits_and_bit() {
        let a = UBig::from(0b1011u64);
        assert_eq!(a.bits(), 4);
        assert!(a.bit(0) && a.bit(1) && !a.bit(2) && a.bit(3) && !a.bit(64));
        assert_eq!(UBig::zero().bits(), 0);
    }

    #[test]
    fn ibig_arithmetic() {
        let a = IBig::from_i64(-7);
        let b = IBig::from_i64(3);
        assert_eq!(a.add(&b), IBig::from_i64(-4));
        assert_eq!(a.mul(&b), IBig::from_i64(-21));
        assert_eq!(a.rem_euclid(&UBig::from(5u64)), UBig::from(3u64));
    }
}
