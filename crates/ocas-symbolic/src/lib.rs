//! Symbolic arithmetic for the OCAS cost estimator.
//!
//! The OCAS synthesizer (Klonatos et al., *Automatic Synthesis of Out-of-Core
//! Algorithms*, SIGMOD 2013, §5) characterizes the cost of a candidate program
//! as a closed-form arithmetic expression over
//!
//! * input cardinalities (e.g. `x = |R|`, `y = |S|`),
//! * tunable parameters (block sizes `k1`, `k2`, buffer sizes `b_in`, `b_out`),
//! * exact device constants (`InitCom`, `UnitTr` weights from the hierarchy).
//!
//! This crate provides that expression language: construction with overloaded
//! operators, a canonicalizing [`simplify`] pass with **closed-form bounded
//! sums** (the paper's §7.2 shows the engine turning the naive insertion-sort
//! cost `Σ_{j=0}^{x-1}(InitCom + (j+1)(…))` into `x·InitCom + x(x+1)/2·(…)`;
//! the same machinery lives in [`simplify`]), and numeric [`eval`]uation used
//! by the parameter optimizer.
//!
//! # Example
//!
//! ```
//! use ocas_symbolic::{Expr, Env, simplify, eval};
//!
//! // Cost of a blocked scan: ceil(x/k) seeks plus x transfer units.
//! let x = Expr::var("x");
//! let k = Expr::var("k");
//! let cost = (x.clone() / k).ceil() * Expr::rat(15, 1000) + x * Expr::rat(1, 31457280);
//! let cost = simplify(&cost);
//! let env = Env::new().with("x", 1_073_741_824.0).with("k", 8.0 * 1024.0 * 1024.0);
//! let seconds = eval(&cost, &env).unwrap();
//! assert!(seconds > 30.0 && seconds < 40.0);
//! ```
//!
//! # Representation
//!
//! An [`Expr`] shares its subtrees: every child list and child box is an
//! `Arc`, and a variable name is an `Arc<str>`. Cloning a formula — the
//! cost engine, its annotations and the tuner's problems copy them all
//! the time — bumps one reference count, however deep the tree. The
//! derived `Eq`, `Ord` and `Hash` look through the `Arc`s and compare
//! structure, so a shared tree and the same tree rebuilt from scratch are
//! equal, hash alike and sort alike; the canonical term order, and with it
//! every normal form and every evaluated bit, does not depend on what is
//! shared.
//!
//! # Compiled form
//!
//! [`eval`] is the one-shot entry. A formula that is evaluated more than
//! once — the parameter tuner probes each candidate's seconds formula and
//! its constraints a few thousand times — is compiled first:
//! [`Compiled::new`] resolves every variable name to a slot of a [`Slots`]
//! binding table (one table can serve several formulas: a problem's
//! objective and all its constraints), converts the rational constants to
//! `f64` once and flattens the tree; after that a probe is "write the
//! parameter slots, call [`Compiled::eval`]" with no allocation, no string
//! compare and no map lookup.
//!
//! ```
//! use ocas_symbolic::{Compiled, Expr, Slots};
//!
//! let cost = (Expr::var("x") / Expr::var("k")).ceil() + Expr::var("k");
//! let mut slots = Slots::new();
//! let formula = Compiled::new(&cost, &mut slots);
//! let (x, k) = (slots.slot("x"), slots.slot("k"));
//! slots.set(x, 1000.0);
//! let best = (0..=10)
//!     .map(|e| {
//!         slots.set(k, f64::from(1 << e));
//!         formula.eval(&mut slots).unwrap()
//!     })
//!     .fold(f64::INFINITY, f64::min);
//! assert_eq!(best, 64.0); // k = 32: ceil(1000/32) + 32
//! ```
//!
//! There is one evaluator: [`eval`] compiles and calls [`Compiled::eval`],
//! so the two cannot disagree, and `tests/compiled_parity.rs` holds both to
//! the tree-walking evaluator they replaced, **bit for bit** (`to_bits()` on
//! `Ok`, the same [`EvalError`] — variant and variable name — on `Err`).
//! What that guarantees: every operation keeps the tree's order (sums start
//! at `0.0` and products at `1.0` and fold left to right, `max`/`min` fold
//! from ∓∞, powers are `powi`, nothing is constant-folded or re-associated),
//! the first error in traversal order is the one reported, a variable that
//! is never reached may stay unbound, and a `Σ` shadows an outer binding of
//! its variable and restores it afterwards, also when its body fails.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod eval;
mod expr;
mod rat;
mod simplify;

pub use compiled::{Compiled, Slots};
pub use eval::{eval, Env, EvalError};
pub use expr::Expr;
pub use rat::Rat;
pub use simplify::{simplify, Normal};
