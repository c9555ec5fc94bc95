//! The batch-level reference merge that the faithful merge pass is held
//! to, kept as a test oracle (Deletion policy). Not a test by itself:
//! `ocas-engine`'s unit tests include it by path, and so do the suites of
//! the crates that check merges end to end (`ocas-runtime`'s `real_vs_sim`
//! and `out_of_core`, the root `proptest_invariants`), each under a module
//! that imports `MergeKind` and `RowBuf`. It uses only the crate's public
//! API.

use super::{MergeKind, RowBuf};

/// Reference semantics of the merge operators: merges two sorted flat
/// batches into a fresh one, comparing and copying row slices.
pub fn merge_bufs(a: &RowBuf, b: &RowBuf, kind: MergeKind) -> RowBuf {
    let width = a.width().max(b.width());
    let mut out = RowBuf::with_capacity(width, a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    match kind {
        MergeKind::MultisetUnionSorted => {
            while i < a.len() || j < b.len() {
                let take_a = j >= b.len() || (i < a.len() && a.row(i) <= b.row(j));
                if take_a {
                    out.push(a.row(i));
                    i += 1;
                } else {
                    out.push(b.row(j));
                    j += 1;
                }
            }
        }
        MergeKind::SetUnion => {
            while i < a.len() || j < b.len() {
                let take_a = j >= b.len() || (i < a.len() && a.row(i) <= b.row(j));
                let row = if take_a {
                    let r = a.row(i);
                    i += 1;
                    r
                } else {
                    let r = b.row(j);
                    j += 1;
                    r
                };
                if out.is_empty() || out.row(out.len() - 1) != row {
                    out.push(row);
                }
            }
        }
        MergeKind::MultisetUnionVm => {
            // Rows are <value, multiplicity> sorted by value.
            while i < a.len() || j < b.len() {
                if i < a.len() && j < b.len() && a.row(i)[0] == b.row(j)[0] {
                    out.push(&[a.row(i)[0], a.row(i)[1] + b.row(j)[1]]);
                    i += 1;
                    j += 1;
                } else if j >= b.len() || (i < a.len() && a.row(i)[0] < b.row(j)[0]) {
                    out.push(a.row(i));
                    i += 1;
                } else {
                    out.push(b.row(j));
                    j += 1;
                }
            }
        }
        MergeKind::MultisetDiffSorted => {
            while i < a.len() {
                if j < b.len() && b.row(j) < a.row(i) {
                    j += 1;
                } else if j < b.len() && b.row(j) == a.row(i) {
                    i += 1;
                    j += 1;
                } else {
                    out.push(a.row(i));
                    i += 1;
                }
            }
        }
        MergeKind::MultisetDiffVm => {
            while i < a.len() {
                if j < b.len() && b.row(j)[0] < a.row(i)[0] {
                    j += 1;
                } else if j < b.len() && b.row(j)[0] == a.row(i)[0] {
                    let m = a.row(i)[1] - b.row(j)[1];
                    if m > 0 {
                        out.push(&[a.row(i)[0], m]);
                    }
                    i += 1;
                    j += 1;
                } else {
                    out.push(a.row(i));
                    i += 1;
                }
            }
        }
    }
    out
}
