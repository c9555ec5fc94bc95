//! Exact rational cost constants.
//!
//! The hierarchy crate sits below `ocas-symbolic` in the dependency graph,
//! so it carries its own minimal rational type; the cost estimator converts
//! these constants into its symbolic representation losslessly via
//! `num()`/`den()`.

use std::fmt;
use std::ops::{Add, Mul};

/// An exact non-negative rational number of seconds (or seconds/byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    /// Zero seconds.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };

    /// Builds `num/den` seconds.
    ///
    /// # Panics
    /// Panics if `den == 0` or the value is negative.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den).max(1);
        let r = Rat {
            num: sign * num / g,
            den: sign * den / g,
        };
        assert!(r.num >= 0, "cost constants must be non-negative");
        r
    }

    /// Milliseconds constructor: `Rat::millis(15)` is 15 ms.
    pub fn millis(ms: i128) -> Rat {
        Rat::new(ms, 1000)
    }

    /// `1 second / bytes` — a transfer rate expressed as s/byte.
    pub fn per_bytes_of_second(bytes: i128) -> Rat {
        Rat::new(1, bytes)
    }

    /// Numerator.
    pub fn num(self) -> i128 {
        self.num
    }

    /// Denominator (positive).
    pub fn den(self) -> i128 {
        self.den
    }

    /// True if zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Lossy conversion for numeric work.
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        Rat::new(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        Rat::new(
            (self.num / g1) * (rhs.num / g2),
            (self.den / g2) * (rhs.den / g1),
        )
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
    fn constructors() {
        assert_eq!(Rat::millis(15), Rat::new(3, 200));
        assert_eq!(Rat::per_bytes_of_second(4), Rat::new(1, 4));
        assert!(Rat::ZERO.is_zero());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_cost_rejected() {
        let _ = Rat::new(-1, 2);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Rat::new(1, 2) + Rat::new(1, 3), Rat::new(5, 6));
        assert_eq!(Rat::new(2, 3) * Rat::new(3, 4), Rat::new(1, 2));
    }
}
