//! Primality testing and NTT-friendly prime generation.
//!
//! RNS limb moduli must satisfy `q ≡ 1 (mod 2N)` so that the negacyclic NTT
//! over `Z_q[X]/(X^N + 1)` exists. [`ntt_primes`] produces such primes just
//! below a requested bit size, and [`primitive_root`] finds generators used
//! to derive roots of unity.

use crate::modops::Modulus;

/// Deterministic Miller–Rabin for `u64` (the first 12 prime bases are a
/// proven-deterministic witness set below 3.3·10^24).
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let m = Modulus::new(n);
    let d = n - 1;
    let s = d.trailing_zeros();
    let d = d >> s;
    'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = m.pow(a, d);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = m.mul(x, x);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Returns `count` distinct primes `q ≡ 1 (mod 2n)` with at most `bits` bits,
/// largest first.
///
/// # Panics
///
/// Panics if `bits > 62`, if `n` is not a power of two, or if not enough
/// primes exist below `2^bits` (practically impossible for the sizes used
/// here).
pub fn ntt_primes(bits: u32, n: usize, count: usize) -> Vec<u64> {
    assert!((4..=62).contains(&bits), "prime size out of range");
    assert!(n.is_power_of_two(), "ring degree must be a power of two");
    let step = 2 * n as u64;
    let mut candidate = ((1u64 << bits) - 1) / step * step + 1;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        assert!(
            candidate > step,
            "exhausted candidates for {count} NTT primes of {bits} bits (n={n})"
        );
        if is_prime(candidate) {
            out.push(candidate);
        }
        candidate -= step;
    }
    out
}

/// Trial divisors tried before handing the cofactor to Pollard–Brent.
const TRIAL_BOUND: u64 = 256;

/// The distinct prime factors of `n < 2^62`, ascending.
///
/// The orders factored here are `q − 1` for NTT primes: a power of two,
/// a few small primes and usually one large prime cofactor. Small factors
/// come out by trial division, which stops the moment the remaining
/// cofactor is prime (the common case — walking divisors up to `2^21`
/// for every limb prime used to be 40 % of context set-up); a composite
/// cofactor is split by a deterministic Pollard–Brent rho. Only the
/// factor *set* matters to [`primitive_root`], so the least generator —
/// and with it every NTT table — is what trial division alone produced.
fn factorize(mut n: u64) -> Vec<u64> {
    let mut fs = Vec::new();
    let mut d = 2u64;
    let mut done = is_prime(n);
    while !done && d < TRIAL_BOUND && d * d <= n {
        if n.is_multiple_of(d) {
            fs.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
            done = is_prime(n);
        }
        d += 1;
    }
    // What is left has no factor below `d`: 1, a prime, or a product of
    // large primes for the rho to split.
    let mut pending = vec![n];
    while let Some(m) = pending.pop() {
        if m == 1 {
            continue;
        }
        if is_prime(m) {
            fs.push(m);
        } else {
            let f = rho_factor(m);
            pending.extend([f, m / f]);
        }
    }
    fs.sort_unstable();
    fs.dedup();
    fs
}

/// A non-trivial factor of the odd composite `n` by Pollard's rho with
/// Brent's cycle detection and batched gcds. Deterministic: the walk
/// `x → x² + c` starts at 2 with `c = 1` and retries with the next `c`
/// on the (rare) cycle that collapses all factors at once.
fn rho_factor(n: u64) -> u64 {
    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    const BATCH: u64 = 128;
    let m = Modulus::new(n);
    for c in 1..n {
        let step = |x: u64| m.add(m.mul(x, x), c);
        let (mut x, mut y, mut saved) = (2u64, 2u64, 2u64);
        let (mut g, mut run) = (1u64, 1u64);
        while g == 1 {
            x = y;
            for _ in 0..run {
                y = step(y);
            }
            let mut done = 0;
            while done < run && g == 1 {
                saved = y;
                let mut prod = 1u64;
                for _ in 0..BATCH.min(run - done) {
                    y = step(y);
                    prod = m.mul(prod, x.abs_diff(y));
                }
                g = gcd(prod, n);
                done += BATCH;
            }
            run *= 2;
        }
        if g == n {
            // The batch product hit 0 mod n: replay it one step at a time.
            g = 1;
            while g == 1 {
                saved = step(saved);
                g = gcd(x.abs_diff(saved), n);
            }
        }
        if g != n {
            return g;
        }
    }
    unreachable!("rho_factor is only called on composites")
}

/// The previous `factorize` — trial division to `2^21`, then on — kept as
/// the independent oracle of the test below.
#[cfg(test)]
fn factorize_by_trial_division(mut n: u64) -> Vec<u64> {
    let mut fs = Vec::new();
    let mut d = 2u64;
    while d * d <= n && d < (1 << 21) {
        if n.is_multiple_of(d) {
            fs.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += 1;
    }
    if n > 1 {
        if is_prime(n) {
            fs.push(n);
        } else {
            // Rare for our prime-1 orders; finish with slow trial division.
            while d * d <= n {
                if n.is_multiple_of(d) {
                    fs.push(d);
                    while n.is_multiple_of(d) {
                        n /= d;
                    }
                }
                d += 1;
            }
            if n > 1 {
                fs.push(n);
            }
        }
    }
    fs
}

/// Finds a generator of the multiplicative group `Z_q^*` for prime `q`.
///
/// # Panics
///
/// Panics if `q` is not prime.
pub fn primitive_root(q: u64) -> u64 {
    assert!(is_prime(q), "primitive_root requires a prime modulus");
    let m = Modulus::new(q);
    let order = q - 1;
    let factors = factorize(order);
    'cand: for g in 2..q {
        for &f in &factors {
            if m.pow(g, order / f) == 1 {
                continue 'cand;
            }
        }
        return g;
    }
    unreachable!("every prime has a primitive root")
}

/// Returns a primitive `order`-th root of unity mod prime `q`.
///
/// # Panics
///
/// Panics if `order` does not divide `q - 1`.
pub fn root_of_unity(q: u64, order: u64) -> u64 {
    assert_eq!((q - 1) % order, 0, "order must divide q-1");
    let m = Modulus::new(q);
    let g = primitive_root(q);
    let w = m.pow(g, (q - 1) / order);
    debug_assert_eq!(m.pow(w, order), 1);
    debug_assert_ne!(m.pow(w, order / 2), 1);
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes() {
        let primes: Vec<u64> = (0..100).filter(|&n| is_prime(n)).collect();
        assert_eq!(
            primes,
            vec![
                2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
                83, 89, 97
            ]
        );
    }

    #[test]
    fn known_primes() {
        assert!(is_prime(65537));
        assert!(is_prime(12289)); // classic NTT prime
        assert!(!is_prime(65536));
        assert!(is_prime((1 << 61) - 1)); // Mersenne prime M61
    }

    #[test]
    fn ntt_primes_congruence() {
        let ps = ntt_primes(50, 1 << 12, 4);
        assert_eq!(ps.len(), 4);
        for &p in &ps {
            assert!(is_prime(p));
            assert_eq!(p % (2 << 12), 1);
            assert!(p < (1 << 50));
        }
        // Distinct and descending.
        for w in ps.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn primitive_root_has_full_order() {
        for &q in &[17u64, 257, 65537, 12289] {
            let g = primitive_root(q);
            let m = Modulus::new(q);
            assert_eq!(m.pow(g, q - 1), 1);
            // No proper divisor order.
            for &f in &factorize(q - 1) {
                assert_ne!(m.pow(g, (q - 1) / f), 1);
            }
        }
    }

    #[test]
    fn factorize_matches_the_trial_division_oracle_on_every_limb_order() {
        // Same factor set => same least generator, ψ and NTT tables.
        for bits in [30u32, 50, 55, 60] {
            for n in [64usize, 128, 1 << 15] {
                for q in ntt_primes(bits, n, 16) {
                    assert_eq!(
                        factorize(q - 1),
                        factorize_by_trial_division(q - 1),
                        "q = {q} ({bits} bits, n = {n})"
                    );
                }
            }
        }
    }

    #[test]
    fn factorize_splits_stubborn_cofactors() {
        // Two large primes (no factor for trial division to find), a
        // prime square, and a three-way product.
        let (p, q, r) = (1_000_003u64, 998_244_353, 4_294_967_311);
        assert_eq!(factorize(p * q), vec![p, q]);
        assert_eq!(factorize(p * p), vec![p]);
        assert_eq!(factorize(2 * 3 * p * r), vec![2, 3, p, r]);
        assert_eq!(factorize(q * r), vec![q, r]);
        assert_eq!(factorize(1), Vec::<u64>::new());
        assert_eq!(factorize(2), vec![2]);
        assert_eq!(factorize(1 << 40), vec![2]);
    }

    #[test]
    fn roots_of_unity() {
        let q = 65537;
        let m = Modulus::new(q);
        let w = root_of_unity(q, 65536);
        assert_eq!(m.pow(w, 65536), 1);
        assert_ne!(m.pow(w, 32768), 1);
        let w2 = root_of_unity(q, 2);
        assert_eq!(w2, q - 1);
    }
}
