//! # OCAL — the Out-of-Core Algorithm Language
//!
//! This crate implements the DSL of Klonatos et al., *Automatic Synthesis of
//! Out-of-Core Algorithms* (SIGMOD 2013), §3: Monad Calculus on lists
//! extended with `foldL`, plus the paper's named definitions (Figure 2), the
//! blocked `for` loop, sequentiality annotations and programmer size
//! annotations.
//!
//! Components:
//!
//! * [`ast`] — expressions, definitions, block sizes, annotations;
//! * [`types`] + [`typecheck`](mod@typecheck) — the Figure 1 type system
//!   with unification;
//! * [`value`] + [`eval`] — the reference interpreter (memory-hierarchy
//!   oblivious denotational semantics; ground truth for every rewrite);
//! * [`defs`] — base-language expansions of definitions, with tests that the
//!   efficient built-ins agree with them;
//! * [`parser`] + [`pretty`](mod@pretty) — concrete syntax in both directions;
//! * [`gen`] — deterministic type-driven value generation for the rewrite
//!   rules' conservative side-condition checks.
//!
//! # Example
//!
//! ```
//! use ocal::{parse, pretty, typecheck, Evaluator, Type, TypeEnv, Value};
//! use std::collections::BTreeMap;
//!
//! // Example 1 of the paper: the naive nested-loops join.
//! let join = parse(
//!     "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
//! ).unwrap();
//!
//! let rel = Type::list(Type::tuple(vec![Type::Int, Type::Int]));
//! let env: TypeEnv = [("R".to_string(), rel.clone()), ("S".to_string(), rel)]
//!     .into_iter().collect();
//! let ty = typecheck(&join, &env).unwrap();
//! assert_eq!(ty.to_string(), "[<<Int, Int>, <Int, Int>>]");
//!
//! let inputs: BTreeMap<String, Value> = [
//!     ("R".to_string(), Value::pair_list(&[(1, 10), (2, 20)])),
//!     ("S".to_string(), Value::pair_list(&[(2, 7), (3, 8)])),
//! ].into_iter().collect();
//! let out = Evaluator::new().run(&join, &inputs).unwrap();
//! assert_eq!(out.to_string(), "[<<2, 20>, <2, 7>>]");
//! assert_eq!(pretty(&join), "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod defs;
pub mod eval;
pub mod gen;
pub mod intern;
pub mod parser;
pub mod pretty;
pub mod typecheck;
pub mod types;
pub mod value;

pub use ast::{BlockSize, CardHint, DefName, Expr, PrimOp, SeqAnnot, SizeHint, TypeEnv};
pub use eval::{EvalError, Evaluator};
pub use intern::{ExprId, Interner};
pub use parser::{parse, ParseError};
pub use pretty::pretty;
pub use typecheck::{infer_type, typecheck, TypeError};
pub use types::Type;
pub use value::{stable_hash, value_cmp, Env, Value};
