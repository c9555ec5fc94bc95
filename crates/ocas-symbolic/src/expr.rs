//! The symbolic expression tree.
//!
//! Cost formulas produced by the estimator are functions of input cardinalities
//! (`x`, `y`), tunable parameters (`k1`, `k2`, `b_in`, `b_out`) and exact
//! rational device constants. This module defines the tree; `simplify` turns it
//! into a canonical sum-of-products form and `eval` turns it into numbers.
//! Subtrees are shared (see the crate docs, "Representation").

use crate::rat::Rat;
use std::collections::BTreeSet;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::Arc;

/// A symbolic arithmetic expression.
///
/// Construction goes through the associated functions and the overloaded
/// `+ - * /` operators; the representation is deliberately permissive
/// (non-canonical) — call [`crate::simplify`] to normalize. A clone shares
/// every child with the original (see the module docs); the derived `Eq`,
/// `Ord` and `Hash` compare the trees, not the pointers.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Expr {
    /// An exact rational constant.
    Const(Rat),
    /// A free variable (input cardinality or tunable parameter).
    Var(Arc<str>),
    /// n-ary sum.
    Add(Arc<[Expr]>),
    /// n-ary product.
    Mul(Arc<[Expr]>),
    /// Integer power; `Pow(e, -1)` is division by `e`.
    Pow(Arc<Expr>, i32),
    /// Smallest integer not below the operand.
    Ceil(Arc<Expr>),
    /// Largest integer not above the operand.
    Floor(Arc<Expr>),
    /// Pointwise maximum.
    Max(Arc<[Expr]>),
    /// Pointwise minimum.
    Min(Arc<[Expr]>),
    /// Base-2 logarithm.
    Log2(Arc<Expr>),
    /// `Σ_{var = from}^{to} body`; simplification extracts closed forms for
    /// bodies polynomial in `var` (the paper's Merge-Sort derivation needs
    /// `Σ_{j=0}^{x-1} (j+1) = x(x+1)/2`).
    Sum {
        /// The bound summation variable.
        var: Arc<str>,
        /// Inclusive lower bound.
        from: Arc<Expr>,
        /// Inclusive upper bound.
        to: Arc<Expr>,
        /// Summand, may mention `var`.
        body: Arc<Expr>,
    },
}

impl Expr {
    /// Integer constant.
    pub fn int(n: i128) -> Expr {
        Expr::Const(Rat::int(n))
    }

    /// Rational constant `num/den`.
    pub fn rat(num: i128, den: i128) -> Expr {
        Expr::Const(Rat::new(num, den))
    }

    /// The constant zero.
    pub fn zero() -> Expr {
        Expr::Const(Rat::ZERO)
    }

    /// The constant one.
    pub fn one() -> Expr {
        Expr::Const(Rat::ONE)
    }

    /// A named variable.
    pub fn var(name: impl AsRef<str>) -> Expr {
        Expr::Var(Arc::from(name.as_ref()))
    }

    /// `ceil(self)`.
    pub fn ceil(self) -> Expr {
        Expr::Ceil(Arc::new(self))
    }

    /// `floor(self)`.
    pub fn floor(self) -> Expr {
        Expr::Floor(Arc::new(self))
    }

    /// `log2(self)`.
    pub fn log2(self) -> Expr {
        Expr::Log2(Arc::new(self))
    }

    /// Binary maximum (use [`Expr::max_of`] for more operands).
    pub fn max(self, other: Expr) -> Expr {
        Expr::Max(Arc::new([self, other]))
    }

    /// Binary minimum.
    pub fn min(self, other: Expr) -> Expr {
        Expr::Min(Arc::new([self, other]))
    }

    /// n-ary maximum.
    pub fn max_of(items: Vec<Expr>) -> Expr {
        Expr::Max(items.into())
    }

    /// n-ary minimum.
    pub fn min_of(items: Vec<Expr>) -> Expr {
        Expr::Min(items.into())
    }

    /// Integer power.
    pub fn pow(self, exp: i32) -> Expr {
        Expr::Pow(Arc::new(self), exp)
    }

    /// Multiplicative inverse.
    pub fn recip(self) -> Expr {
        self.pow(-1)
    }

    /// `Σ_{var=from}^{to} body`.
    pub fn sum(var: impl AsRef<str>, from: Expr, to: Expr, body: Expr) -> Expr {
        Expr::Sum {
            var: Arc::from(var.as_ref()),
            from: Arc::new(from),
            to: Arc::new(to),
            body: Arc::new(body),
        }
    }

    /// The constant value if this node is a constant.
    pub fn as_const(&self) -> Option<Rat> {
        match self {
            Expr::Const(r) => Some(*r),
            _ => None,
        }
    }

    /// True if this is the literal constant zero.
    pub fn is_zero(&self) -> bool {
        matches!(self, Expr::Const(r) if r.is_zero())
    }

    /// Collects the free variables (summation variables are bound).
    pub fn vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => {
                out.insert(v.to_string());
            }
            Expr::Add(xs) | Expr::Mul(xs) | Expr::Max(xs) | Expr::Min(xs) => {
                for x in xs.iter() {
                    x.collect_vars(out);
                }
            }
            Expr::Pow(e, _) | Expr::Ceil(e) | Expr::Floor(e) | Expr::Log2(e) => e.collect_vars(out),
            Expr::Sum {
                var,
                from,
                to,
                body,
            } => {
                from.collect_vars(out);
                to.collect_vars(out);
                let mut inner = BTreeSet::new();
                body.collect_vars(&mut inner);
                inner.remove(&**var);
                out.extend(inner);
            }
        }
    }

    /// Capture-avoiding substitution of `name` by `with`.
    pub fn subst(&self, name: &str, with: &Expr) -> Expr {
        match self {
            Expr::Const(_) => self.clone(),
            Expr::Var(v) => {
                if **v == *name {
                    with.clone()
                } else {
                    self.clone()
                }
            }
            Expr::Add(xs) => Expr::Add(xs.iter().map(|x| x.subst(name, with)).collect()),
            Expr::Mul(xs) => Expr::Mul(xs.iter().map(|x| x.subst(name, with)).collect()),
            Expr::Max(xs) => Expr::Max(xs.iter().map(|x| x.subst(name, with)).collect()),
            Expr::Min(xs) => Expr::Min(xs.iter().map(|x| x.subst(name, with)).collect()),
            Expr::Pow(e, k) => Expr::Pow(Arc::new(e.subst(name, with)), *k),
            Expr::Ceil(e) => Expr::Ceil(Arc::new(e.subst(name, with))),
            Expr::Floor(e) => Expr::Floor(Arc::new(e.subst(name, with))),
            Expr::Log2(e) => Expr::Log2(Arc::new(e.subst(name, with))),
            Expr::Sum {
                var,
                from,
                to,
                body,
            } => {
                let body = if **var == *name {
                    body.clone() // `name` is shadowed inside the sum.
                } else {
                    Arc::new(body.subst(name, with))
                };
                Expr::Sum {
                    var: var.clone(),
                    from: Arc::new(from.subst(name, with)),
                    to: Arc::new(to.subst(name, with)),
                    body,
                }
            }
        }
    }
}

impl From<i64> for Expr {
    fn from(n: i64) -> Expr {
        Expr::int(n as i128)
    }
}

impl From<u64> for Expr {
    fn from(n: u64) -> Expr {
        Expr::int(n as i128)
    }
}

impl From<Rat> for Expr {
    fn from(r: Rat) -> Expr {
        Expr::Const(r)
    }
}

impl Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Arc::new([self, rhs]))
    }
}

impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Add(Arc::new([self, -rhs]))
    }
}

impl Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Arc::new([self, rhs]))
    }
}

impl Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::Mul(Arc::new([self, rhs.pow(-1)]))
    }
}

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Mul(Arc::new([Expr::int(-1), self]))
    }
}

/// Precedence levels for the pretty printer.
fn prec(e: &Expr) -> u8 {
    match e {
        Expr::Add(_) => 1,
        Expr::Mul(_) => 2,
        Expr::Pow(_, _) => 3,
        Expr::Const(r) if r.is_negative() || !r.is_integer() => 2,
        _ => 4,
    }
}

fn write_child(f: &mut fmt::Formatter<'_>, child: &Expr, parent_prec: u8) -> fmt::Result {
    if prec(child) < parent_prec {
        write!(f, "({child})")
    } else {
        write!(f, "{child}")
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(r) => write!(f, "{r}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Add(xs) => {
                if xs.is_empty() {
                    return write!(f, "0");
                }
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write_child(f, x, 1)?;
                }
                Ok(())
            }
            Expr::Mul(xs) => {
                if xs.is_empty() {
                    return write!(f, "1");
                }
                // Render trailing negative powers as a division for readability.
                let (num, den): (Vec<&Expr>, Vec<&Expr>) = xs
                    .iter()
                    .partition(|x| !matches!(x, Expr::Pow(_, k) if *k < 0));
                let write_product = |f: &mut fmt::Formatter<'_>, items: &[&Expr]| -> fmt::Result {
                    if items.is_empty() {
                        return write!(f, "1");
                    }
                    for (i, x) in items.iter().enumerate() {
                        if i > 0 {
                            write!(f, "*")?;
                        }
                        write_child(f, x, 2)?;
                    }
                    Ok(())
                };
                write_product(f, &num)?;
                for d in den {
                    if let Expr::Pow(base, k) = d {
                        write!(f, "/")?;
                        if *k == -1 {
                            write_child(f, base, 3)?;
                        } else {
                            write_child(f, base, 3)?;
                            write!(f, "^{}", -k)?;
                        }
                    }
                }
                Ok(())
            }
            Expr::Pow(e, k) => {
                if *k < 0 {
                    write!(f, "1/")?;
                    write_child(f, e, 3)?;
                    if *k != -1 {
                        write!(f, "^{}", -k)?;
                    }
                    Ok(())
                } else {
                    write_child(f, e, 4)?;
                    write!(f, "^{k}")
                }
            }
            Expr::Ceil(e) => write!(f, "ceil({e})"),
            Expr::Floor(e) => write!(f, "floor({e})"),
            Expr::Max(xs) => {
                write!(f, "max(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Expr::Min(xs) => {
                write!(f, "min(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Expr::Log2(e) => write!(f, "log2({e})"),
            Expr::Sum {
                var,
                from,
                to,
                body,
            } => write!(f, "sum({var} = {from} .. {to}, {body})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify;
    use std::cmp::Ordering;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    /// A cost-formula-shaped expression a few loop levels deep, built
    /// afresh — every node newly allocated — on each call.
    fn deep() -> Expr {
        let mut e = Expr::var("x") * Expr::var("y");
        for i in 0..8 {
            let k = Expr::var(format!("k{i}"));
            let scan = Expr::sum("j", Expr::zero(), k.clone() - Expr::one(), Expr::var("j"));
            e = (e / k.clone()).ceil() * k.min(Expr::int(1 << 20)) + scan.max(Expr::int(i).log2());
        }
        e
    }

    fn hash_of(e: &Expr) -> u64 {
        let mut h = DefaultHasher::new();
        e.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_clone_shares_its_children_and_a_rebuild_is_interchangeable() {
        let (e, rebuilt) = (deep(), deep());
        let (Expr::Add(shared), Expr::Add(fresh)) = (&e, &rebuilt) else {
            panic!("a sum at the root");
        };
        // A clone is a reference-count bump all the way down.
        let Expr::Add(cloned) = e.clone() else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(shared, &cloned));
        let (Expr::Mul(a), Expr::Mul(b)) = (&shared[0], &cloned[0]) else {
            panic!("a product first");
        };
        assert!(Arc::ptr_eq(a, b));
        // The same tree built from scratch shares nothing with it ...
        assert!(!Arc::ptr_eq(shared, fresh));
        // ... and is the same expression to every structural operation.
        assert_eq!(e, rebuilt);
        assert_eq!(e.cmp(&rebuilt), Ordering::Equal);
        assert_eq!(hash_of(&e), hash_of(&rebuilt));
        for other in [Expr::var("x"), e.clone() + Expr::one(), simplify(&e)] {
            assert_eq!(e.cmp(&other), rebuilt.cmp(&other));
        }
        assert_eq!(simplify(&e), simplify(&rebuilt));
        assert_eq!(simplify(&e.clone()), simplify(&e));
    }

    #[test]
    fn operator_construction() {
        let x = Expr::var("x");
        let e = (x.clone() + Expr::int(1)) * x;
        assert_eq!(e.vars().into_iter().collect::<Vec<_>>(), vec!["x"]);
    }

    #[test]
    fn vars_exclude_bound_sum_variable() {
        let s = Expr::sum(
            "j",
            Expr::int(0),
            Expr::var("x") - Expr::int(1),
            Expr::var("j") + Expr::var("c"),
        );
        let vs = s.vars();
        assert!(vs.contains("x"));
        assert!(vs.contains("c"));
        assert!(!vs.contains("j"));
    }

    #[test]
    fn subst_respects_shadowing() {
        let s = Expr::sum("j", Expr::int(0), Expr::var("j"), Expr::var("j"));
        let t = s.subst("j", &Expr::int(5));
        match t {
            Expr::Sum { to, body, .. } => {
                // Free occurrence in the bound is replaced; body occurrence is not.
                assert_eq!(*to, Expr::int(5));
                assert_eq!(*body, Expr::var("j"));
            }
            other => panic!("expected sum, got {other:?}"),
        }
    }

    #[test]
    fn display_round_trips_visually() {
        let e = Expr::var("x") / Expr::var("k1") + Expr::int(2) * Expr::var("y");
        let s = format!("{e}");
        assert!(s.contains("x/k1"), "got {s}");
        assert!(s.contains("2*y"), "got {s}");
    }
}
