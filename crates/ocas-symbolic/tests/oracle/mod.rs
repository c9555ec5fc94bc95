//! The tree-walking evaluator that `ocas_symbolic::eval` was before the
//! compiled form existed, kept as the parity oracle (Deletion policy). Not a
//! test by itself: `compiled_parity.rs` declares it as `mod oracle;`, and the
//! suites of crates that drive their own compiled evaluators (`ocas-opt`)
//! include it by path, under a module that imports `Env`, `EvalError` and
//! `Expr`. It uses only the crate's public API.

use super::{Env, EvalError, Expr};

/// Upper bound on numerically iterated (non-closed-form) sums.
const MAX_SUM_ITERS: u64 = 4_000_000;

/// Evaluates `e` under `env` by walking the tree.
pub fn eval_tree(e: &Expr, env: &Env) -> Result<f64, EvalError> {
    match e {
        Expr::Const(r) => Ok(r.to_f64()),
        Expr::Var(v) => env
            .get(v)
            .ok_or_else(|| EvalError::UnboundVariable(v.to_string())),
        Expr::Add(xs) => {
            let mut acc = 0.0;
            for x in xs.iter() {
                acc += eval_tree(x, env)?;
            }
            Ok(acc)
        }
        Expr::Mul(xs) => {
            let mut acc = 1.0;
            for x in xs.iter() {
                acc *= eval_tree(x, env)?;
            }
            Ok(acc)
        }
        Expr::Pow(b, k) => {
            let v = eval_tree(b, env)?.powi(*k);
            if v.is_finite() {
                Ok(v)
            } else {
                Err(EvalError::NonFinite("pow"))
            }
        }
        Expr::Ceil(x) => Ok(eval_tree(x, env)?.ceil()),
        Expr::Floor(x) => Ok(eval_tree(x, env)?.floor()),
        Expr::Max(xs) => {
            let mut acc = f64::NEG_INFINITY;
            for x in xs.iter() {
                acc = acc.max(eval_tree(x, env)?);
            }
            Ok(acc)
        }
        Expr::Min(xs) => {
            let mut acc = f64::INFINITY;
            for x in xs.iter() {
                acc = acc.min(eval_tree(x, env)?);
            }
            Ok(acc)
        }
        Expr::Log2(x) => {
            let v = eval_tree(x, env)?.log2();
            if v.is_finite() {
                Ok(v)
            } else {
                Err(EvalError::NonFinite("log2"))
            }
        }
        Expr::Sum {
            var,
            from,
            to,
            body,
        } => {
            let lo = eval_tree(from, env)?.ceil() as i64;
            let hi = eval_tree(to, env)?.floor() as i64;
            if hi < lo {
                return Ok(0.0);
            }
            // `hi - lo + 1` without the i64 overflow at saturated bounds (the one
            // line that differs from the body `eval` had).
            let span = hi.abs_diff(lo).saturating_add(1);
            if span > MAX_SUM_ITERS {
                return Err(EvalError::SumTooLarge {
                    var: var.to_string(),
                    span,
                });
            }
            let mut inner = env.clone();
            let mut acc = 0.0;
            for j in lo..=hi {
                inner.set(var.to_string(), j as f64);
                acc += eval_tree(body, &inner)?;
            }
            Ok(acc)
        }
    }
}
