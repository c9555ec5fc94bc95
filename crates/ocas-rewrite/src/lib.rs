//! Transformation rules and program search for OCAS (paper §6).
//!
//! Each rule rewrites an OCAL expression into an equivalent one that may
//! perform better on the target memory hierarchy. The search engine applies
//! every rule at every position breadth-first, deduplicates candidates up to
//! α-equivalence and parameter renaming, type-checks them against the
//! specification's type, and — as the practical embodiment of the paper's
//! "conservative estimation procedure" for undecidable side conditions —
//! differentially validates every candidate against the specification on
//! random inputs with the reference interpreter.
//!
//! Rules implemented (paper §6.2):
//!
//! | rule            | effect |
//! |-----------------|--------|
//! | *apply-block*   | `for (x ← R) e ⇒ for (xB [k] ← R) for (x ← xB) e` |
//! | *unfoldR-block* | `unfoldR ⇒ unfoldR[b_in, b_out]` (the "analogous rule") |
//! | *prefetch*      | `f(L) ⇒ f(for (xB [k] ← L) for (x ← xB) [x])` for streaming consumers |
//! | *swap-iter*     | exchanges independent nested loops (incl. the `if` variant) |
//! | *order-inputs*  | smaller relation first via `length` comparison |
//! | *hash-part*     | GRACE-style hash partitioning of a two-input program |
//! | *fldL-to-trfld* | `foldL(c,f) ⇒ treeFold[2](c,f)` for associative `f` |
//! | *funcPow-intro* | `f ⇒ funcPow[1](f)` inside `treeFold[2]` |
//! | *inc-branching* | `treeFold[2ᵏ](c, …funcPow[k](f)…) ⇒ treeFold[2ᵏ⁺¹](c, …funcPow[k+1](f)…)` |
//! | *seq-ac*        | sequentiality annotation on interference-free scans |
//!
//! # Search engine
//!
//! [`search`] is a level-synchronous BFS over a hash-consed term arena
//! (`ocal::Interner`): dedup keys are canonical `ocal::ExprId`s computed in
//! one canonicalize-and-intern pass, and each level is expanded in-line in
//! frontier order, a candidate being built, typechecked and validated only
//! once its key is new. [`search_with`] additionally takes a callback that
//! sees each accepted program in index order, which the synthesizer uses to
//! feed its cost workers while the search runs. [`reference_search`] keeps the original single-queue
//! engine as the parity oracle, and [`dedup_key`] its owned-`Expr` dedup
//! key; regression tests hold both engines to identical statistics on every
//! Table 1 row.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conditions;
mod rules;
mod search;

pub use conditions::{differential_check, Equivalence, ValidationCfg};
pub use rules::{default_rules, next_fresh_index, Rule, RuleCtx};
pub use search::{
    dedup_key, reference_search, rewrite_everywhere, search, search_with, SearchConfig,
    SearchResult, SearchStats,
};
