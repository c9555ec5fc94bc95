//! Numeric evaluation of symbolic expressions.

use crate::compiled::{Compiled, Slots};
use crate::expr::Expr;
use std::collections::BTreeMap;
use std::fmt;

/// A variable binding environment for [`Expr::eval`][crate::Expr]-style
/// evaluation. Thin wrapper over a sorted map so call sites stay tidy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Env {
    bindings: BTreeMap<String, f64>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Adds (or overwrites) a binding, builder-style.
    pub fn with(mut self, name: impl Into<String>, value: f64) -> Env {
        self.bindings.insert(name.into(), value);
        self
    }

    /// Adds (or overwrites) a binding in place.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.bindings.insert(name.into(), value);
    }

    /// Looks up a binding.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.bindings.get(name).copied()
    }

    /// Iterates over the bindings in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.bindings.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

impl<S: Into<String>> FromIterator<(S, f64)> for Env {
    fn from_iter<T: IntoIterator<Item = (S, f64)>>(iter: T) -> Env {
        Env {
            bindings: iter.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        }
    }
}

/// Errors produced by numeric evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable had no binding in the environment.
    UnboundVariable(String),
    /// An unexpanded `Σ` had a range too large to iterate numerically.
    SumTooLarge {
        /// The bound summation variable.
        var: String,
        /// Number of iterations the sum would need.
        span: u64,
    },
    /// Logarithm or division produced a non-finite value.
    NonFinite(&'static str),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(v) => write!(f, "unbound variable `{v}`"),
            EvalError::SumTooLarge { var, span } => write!(
                f,
                "sum over `{var}` spans {span} iterations; simplify() it into closed form first"
            ),
            EvalError::NonFinite(op) => write!(f, "non-finite result in `{op}`"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates `e` under `env`. Unexpanded sums are iterated numerically when
/// small; run [`crate::simplify`] first to get closed forms for large ranges.
///
/// The one-shot entry: it compiles `e` ([`Compiled`]), binds the names `env`
/// has and evaluates once. A formula evaluated more than once should be
/// compiled by its caller instead.
pub fn eval(e: &Expr, env: &Env) -> Result<f64, EvalError> {
    let mut slots = Slots::new();
    let formula = Compiled::new(e, &mut slots);
    slots.bind_env(env);
    formula.eval(&mut slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify::simplify;

    fn v(n: &str) -> Expr {
        Expr::var(n)
    }

    #[test]
    fn basic_eval() {
        let e = v("x") * Expr::int(2) + Expr::rat(1, 2);
        let env = Env::new().with("x", 3.0);
        assert_eq!(eval(&e, &env).unwrap(), 6.5);
    }

    #[test]
    fn unbound_variable_errors() {
        let e = v("missing");
        assert_eq!(
            eval(&e, &Env::new()),
            Err(EvalError::UnboundVariable("missing".into()))
        );
    }

    #[test]
    fn minmax_ceil_log() {
        let env = Env::new().with("x", 10.0);
        assert_eq!(eval(&v("x").max(Expr::int(3)), &env).unwrap(), 10.0);
        assert_eq!(eval(&v("x").min(Expr::int(3)), &env).unwrap(), 3.0);
        assert_eq!(eval(&(v("x") / Expr::int(4)).ceil(), &env).unwrap(), 3.0);
        assert!((eval(&Expr::int(1024).log2(), &env).unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn small_sum_iterates() {
        let s = Expr::sum("j", Expr::int(1), Expr::int(10), v("j"));
        assert_eq!(eval(&s, &Env::new()).unwrap(), 55.0);
    }

    #[test]
    fn closed_form_matches_numeric_iteration() {
        let body = v("c") + (v("j") + Expr::int(1)) * v("u");
        let s = Expr::sum("j", Expr::int(0), v("x") - Expr::int(1), body);
        let closed = simplify(&s);
        let env = Env::new().with("x", 1000.0).with("c", 0.25).with("u", 2.0);
        let a = eval(&s, &env).unwrap();
        let b = eval(&closed, &env).unwrap();
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn huge_unexpanded_sum_errors_but_closed_form_works() {
        let s = Expr::sum("j", Expr::int(0), v("x"), v("j"));
        let env = Env::new().with("x", 1e9);
        assert!(matches!(eval(&s, &env), Err(EvalError::SumTooLarge { .. })));
        let closed = simplify(&s);
        let got = eval(&closed, &env).unwrap();
        let expect = 1e9 * (1e9 + 1.0) / 2.0;
        assert!((got - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn empty_sum_is_zero() {
        let s = Expr::sum("j", Expr::int(5), Expr::int(2), v("j"));
        assert_eq!(eval(&s, &Env::new()).unwrap(), 0.0);
    }
}
