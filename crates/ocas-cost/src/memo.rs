//! The cost engine's table of `simplify` results.
//!
//! The candidates of one synthesis share their inputs and most of their
//! loop nests, so the size and event rules ask for the same normal forms
//! over and over — in a Table 1 row nearly every normalisation repeats one
//! already done for an earlier candidate. Each [`crate::CostEngine`] keeps
//! one table for its synthesis and drops it with the engine.

use ocas_symbolic::{simplify, Expr as Sym};
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// `simplify` results keyed by their input. Keys and values are plain
/// expressions: they share their subtrees with the formulas they came
/// from, so an entry costs little beyond the two roots. The table is
/// shared by reference with the engine's cost workers, hence the lock; it
/// is held for a lookup or an insert, never while normalising.
#[derive(Debug, Default)]
pub(crate) struct SimplifyTable(Mutex<HashMap<Sym, Sym>>);

impl SimplifyTable {
    /// A handle that normalises through this table.
    pub(crate) fn simp(&self) -> Simp<'_> {
        Simp(Some(self))
    }
}

/// Where the size and cost rules normalise: through an engine's table, or
/// — for a [`crate::SizeCtx`] built outside an engine — by calling
/// `simplify` directly. Either way the result is `simplify`'s.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Simp<'t>(Option<&'t SimplifyTable>);

impl Simp<'_> {
    /// Normalises by calling `simplify`, with no table.
    pub(crate) const PLAIN: Simp<'static> = Simp(None);

    /// `simplify(e)`, answered from the table when it has been asked before.
    pub(crate) fn simplify(self, e: &Sym) -> Sym {
        let Some(SimplifyTable(table)) = self.0 else {
            return simplify(e);
        };
        // Every entry is complete when it goes in, so the map is sound even
        // if a worker panicked while holding the lock.
        let lock = || table.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(normal) = lock().get(e) {
            return normal.clone();
        }
        let normal = simplify(e);
        lock().insert(e.clone(), normal.clone());
        normal
    }
}
