//! Exact rational numbers over `i128`.
//!
//! The cost estimator manipulates device constants such as
//! `InitCom[HDD→RAM] = 15 ms = 3/200 s` and `UnitTr = 1 s / 30 MiB =
//! 1/31457280 s/byte`. Keeping these exact (instead of `f64`) makes the
//! symbolic simplifier's term combination and cancellation deterministic,
//! which in turn makes search-space deduplication and cost comparison stable.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number `num/den` with `den > 0` and `gcd(num, den) == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

/// Greatest common divisor (always non-negative). A 64-bit remainder is
/// far cheaper than a 128-bit one, and nearly every operand fits in one.
fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let rem = match (u64::try_from(a), u64::try_from(b)) {
            (Ok(x), Ok(y)) => u128::from(x % y),
            _ => a % b,
        };
        (a, b) = (b, rem);
    }
    a as i128
}

impl Rat {
    /// The rational zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Builds `num/den`, normalizing sign and reducing by the gcd.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        if den == 1 {
            return Rat { num, den };
        }
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den).max(1);
        Rat {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// Builds the integer rational `n/1`.
    pub fn int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// `ms` milliseconds, in seconds: `Rat::millis(15)` is 3/200.
    pub fn millis(ms: i128) -> Rat {
        Rat::new(ms, 1000)
    }

    /// `1 second / bytes`: a transfer rate of `bytes` a second, as s/byte.
    pub fn per_bytes_of_second(bytes: i128) -> Rat {
        Rat::new(1, bytes)
    }

    /// Numerator (sign-carrying).
    pub fn num(self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn den(self) -> i128 {
        self.den
    }

    /// True if the value is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// True if the value is exactly one.
    pub fn is_one(self) -> bool {
        self.num == 1 && self.den == 1
    }

    /// True if the value is an integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// True if the value is negative.
    pub fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Converts to `f64` (may lose precision for huge numerators).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "reciprocal of zero");
        Rat::new(self.den, self.num)
    }

    /// Smallest integer `>= self`, as a rational.
    pub fn ceil(self) -> Rat {
        Rat::int(self.num.div_euclid(self.den) + i128::from(self.num.rem_euclid(self.den) != 0))
    }

    /// Largest integer `<= self`, as a rational.
    pub fn floor(self) -> Rat {
        Rat::int(self.num.div_euclid(self.den))
    }

    /// Integer power (negative exponents take the reciprocal first).
    pub fn powi(self, exp: i32) -> Rat {
        let base = if exp < 0 { self.recip() } else { self };
        let mut out = Rat::ONE;
        for _ in 0..exp.unsigned_abs() {
            out = out * base;
        }
        out
    }

    /// `log2(self)` if `self` is an exact power of two, else `None`.
    pub fn exact_log2(self) -> Option<i32> {
        if self.num <= 0 {
            return None;
        }
        let log_of = |v: i128| -> Option<i32> {
            if v.count_ones() == 1 {
                Some(v.trailing_zeros() as i32)
            } else {
                None
            }
        };
        match (self.num, self.den) {
            (n, 1) => log_of(n),
            (1, d) => log_of(d).map(|e| -e),
            _ => None,
        }
    }
}

impl From<i128> for Rat {
    fn from(n: i128) -> Rat {
        Rat::int(n)
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::int(n as i128)
    }
}

impl From<u64> for Rat {
    fn from(n: u64) -> Rat {
        Rat::int(n as i128)
    }
}

impl From<i32> for Rat {
    fn from(n: i32) -> Rat {
        Rat::int(n as i128)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        if self.den == 1 && rhs.den == 1 {
            return Rat::int(self.num + rhs.num);
        }
        // Reduce cross terms first to delay overflow.
        let g = gcd(self.den, rhs.den).max(1);
        let l = self.den / g * rhs.den;
        Rat::new(self.num * (rhs.den / g) + rhs.num * (self.den / g), l)
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        if self.den == 1 && rhs.den == 1 {
            return Rat::int(self.num * rhs.num);
        }
        // Cross-reduce before multiplying to keep magnitudes small.
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        Rat::new(
            (self.num / g1) * (rhs.num / g2),
            (self.den / g2) * (rhs.den / g1),
        )
    }
}

impl Div for Rat {
    type Output = Rat;
    // Dividing by a rational IS multiplying by its reciprocal.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b (denominators positive).
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_sign_and_gcd() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(1, -2), Rat::new(-1, 2));
        assert_eq!(Rat::new(-3, -9), Rat::new(1, 3));
        assert_eq!(Rat::new(0, 5), Rat::ZERO);
    }

    #[test]
    fn constructors() {
        assert_eq!(Rat::millis(15), Rat::new(3, 200));
        assert_eq!(Rat::per_bytes_of_second(4), Rat::new(1, 4));
        assert!(Rat::ZERO.is_zero());
    }

    #[test]
    fn arithmetic() {
        let half = Rat::new(1, 2);
        let third = Rat::new(1, 3);
        assert_eq!(half + third, Rat::new(5, 6));
        assert_eq!(half - third, Rat::new(1, 6));
        assert_eq!(half * third, Rat::new(1, 6));
        assert_eq!(half / third, Rat::new(3, 2));
        assert_eq!(-half, Rat::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::int(5) > Rat::new(9, 2));
    }

    #[test]
    fn ceil_floor() {
        assert_eq!(Rat::new(7, 2).ceil(), Rat::int(4));
        assert_eq!(Rat::new(7, 2).floor(), Rat::int(3));
        assert_eq!(Rat::new(-7, 2).ceil(), Rat::int(-3));
        assert_eq!(Rat::new(-7, 2).floor(), Rat::int(-4));
        assert_eq!(Rat::int(3).ceil(), Rat::int(3));
    }

    #[test]
    fn powers() {
        assert_eq!(Rat::new(2, 3).powi(2), Rat::new(4, 9));
        assert_eq!(Rat::new(2, 3).powi(-1), Rat::new(3, 2));
        assert_eq!(Rat::new(5, 7).powi(0), Rat::ONE);
    }

    #[test]
    fn exact_log2() {
        assert_eq!(Rat::int(1024).exact_log2(), Some(10));
        assert_eq!(Rat::new(1, 8).exact_log2(), Some(-3));
        assert_eq!(Rat::int(3).exact_log2(), None);
        assert_eq!(Rat::int(-4).exact_log2(), None);
    }

    #[test]
    fn device_constants_are_exact() {
        // 15 ms and 1 s / 30 MiB from Figure 7.
        let init = Rat::new(15, 1000);
        let unit = Rat::new(1, 30 * 1024 * 1024);
        assert_eq!(init, Rat::new(3, 200));
        let bytes = Rat::int(1 << 30);
        // Transferring 1 GiB: (2^30)/(30*2^20) s = 1024/30 s = 512/15 s.
        assert_eq!(unit * bytes, Rat::new(512, 15));
    }
}
