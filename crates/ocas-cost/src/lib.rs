//! Automated cost estimation for OCAL programs (paper §5).
//!
//! Costing never runs the program: it derives, per directed hierarchy edge,
//! symbolic counts of **InitCom** (transfer initiations — disk seeks, flash
//! erases) and **UnitTr** (bytes moved) events, then folds them into a single
//! seconds formula over the tunable parameters (block sizes `k1, k2, …`,
//! buffer sizes `b_in`, `b_out`). Three layers:
//!
//! * [`Annot`] — annotated types `α ::= [α]ₓ | ⟨α,…⟩ | c` (§5.1);
//! * [`result_size`] — the worst-case size rules of Figure 5;
//! * [`CostEngine`] — the event rules of Figure 6, with the paper's implicit
//!   data-transfer model (§5.2): dedicated input/output buffers per level,
//!   spilling of oversized intermediates, sequentiality annotations
//!   (*seq-ac*), and per-definition cost plugins (§5.3).
//!
//! The engine also emits the capacity [`Constraint`]s that the parameter
//! optimizer must respect (e.g. `k1·8 + k2·8 + b_out ≤ RAM`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annot;
mod events;
mod memo;
mod size;

pub use annot::{card_to_sym, Annot};
pub use events::{Constraint, CostEngine, CostReport, EdgeEvents, Events, Layout, B_IN, B_OUT};
pub use size::{block_sym, match_ordered_pair, result_size, spine, SizeCtx};

use std::fmt;

/// Errors produced by size estimation or event counting.
#[derive(Debug, Clone, PartialEq)]
pub enum CostError {
    /// A variable had no annotation in `Γ`.
    UnboundVariable(String),
    /// A value had the wrong shape for the rule.
    BadShape {
        /// Which rule failed.
        context: &'static str,
    },
    /// The construct has no size/cost rule (and no plugin).
    Unsupported(&'static str),
    /// A named hierarchy node was not found.
    UnknownNode(String),
    /// An intermediate outgrew the root but no spill node exists.
    NoSpillNode,
    /// Hierarchy lookup failed.
    Hierarchy(ocas_hierarchy::HierarchyError),
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::UnboundVariable(v) => write!(f, "no annotation for variable `{v}`"),
            CostError::BadShape { context } => {
                write!(f, "annotated type has the wrong shape in {context}")
            }
            CostError::Unsupported(what) => write!(f, "no cost rule for {what}"),
            CostError::UnknownNode(n) => write!(f, "unknown hierarchy node `{n}`"),
            CostError::NoSpillNode => write!(
                f,
                "an intermediate result exceeds the root but no spill node is configured"
            ),
            CostError::Hierarchy(e) => write!(f, "hierarchy error: {e}"),
        }
    }
}

impl std::error::Error for CostError {}
