//! The per-row loops the executor's batch kernels replaced, kept as their
//! test oracles (Deletion policy) in one place: the block-nested-loops
//! tile join, the merge pass, the column zip, the duplicate removal, and the
//! loser-tree merge of sorted runs. Not a test by itself: `ocas-engine`'s
//! unit tests include it by path, and so do the throughput gates that time
//! the merge and streaming kernels against their loops (`merge_throughput`,
//! `stream_throughput`), each under a module that imports `BlockCursor`,
//! `ExecError`, `JoinPred`, `MergeKind`, `RowsView` and `Tiling`. It uses
//! only the crate's public API.
//!
//! A loop hands what it does to one callback, in loop order
//! ([`Step`]): each row it emits, and the bytes its cursors hold wherever
//! the executor's loop noted its peak — the caller adds its sink's staging.
//! The callback gets the storage backend too, since emitting may flush.

// Each suite that includes this module runs some of its loops.
#![allow(dead_code)]

use super::{BlockCursor, ExecError, JoinPred, MergeKind, RowsView, Tiling};
use ocas_storage::{CacheSim, StorageBackend};
use std::cmp::Ordering::{self, Equal, Less};

/// One thing a loop does that its caller sees.
pub enum Step<'a> {
    /// A row to emit.
    Emit(&'a [i64]),
    /// The loop notes its peak: the cursors hold this many bytes.
    Peak(u64),
}

/// Refills `cursor` if its block is used up; a literal loop runs on rows.
fn ensure<B: StorageBackend>(sm: &mut B, cursor: &mut BlockCursor) -> Result<(), ExecError> {
    assert!(cursor.ensure(sm)?, "a literal loop needs the rows");
    Ok(())
}

/// The faithful BNL pair loop of one outer block and one inner block, as
/// every plan ran it before the block hash join: tile pair by tile pair
/// (outer tile, inner tile), then row-major — one compare and one branch a
/// pair, each match emitted as the row `outer ++ inner`. With a cache
/// simulator, one outer-tuple access and one inner-tile sweep per outer row
/// of every tile pair, at the addresses the executor uses for blocks based
/// at tuples `obase` and `ibase`.
#[allow(clippy::too_many_arguments)]
pub fn join_tile<B: StorageBackend>(
    sm: &mut B,
    (orows, irows): (RowsView<'_>, RowsView<'_>),
    (obase, ibase): (u64, u64),
    (otb, itb): (u64, u64),
    tiling: Option<Tiling>,
    pred: JoinPred,
    mut cache: Option<&mut CacheSim>,
    mut step: impl FnMut(&mut B, Step<'_>) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    let oaddr = |idx: usize| (1u64 << 42) + (obase + idx as u64) * otb;
    let iaddr = |idx: usize| (2u64 << 42) + (ibase + idx as u64) * itb;
    let (to, ti) = match tiling {
        Some(t) => (t.outer.max(1) as usize, t.inner.max(1) as usize),
        None => (orows.len().max(1), irows.len().max(1)),
    };
    let mut joined = Vec::new();
    for ob in (0..orows.len()).step_by(to) {
        let otile = orows.view(ob, to);
        for ib in (0..irows.len()).step_by(ti) {
            let itile = irows.view(ib, ti);
            for (x, a) in otile.iter().enumerate() {
                if let Some(c) = cache.as_deref_mut() {
                    c.access(oaddr(ob + x), otb);
                    c.access_tuples(iaddr(ib), itb, itile.len() as u64);
                }
                for b in itile.iter() {
                    if pred == JoinPred::Cross || a[0] == b[0] {
                        joined.clear();
                        joined.extend_from_slice(a);
                        joined.extend_from_slice(b);
                        step(sm, Step::Emit(&joined))?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// The merge pass of `kind` over two cursors, a row at a time: refill what
/// is due, note the peak, look at the heads, emit, advance. A difference
/// stops reading its right input once the left one is dry.
pub fn merge_pass<B: StorageBackend>(
    sm: &mut B,
    (a, b): (&mut BlockCursor, &mut BlockCursor),
    kind: MergeKind,
    mut step: impl FnMut(&mut B, Step<'_>) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    let vm = matches!(kind, MergeKind::MultisetUnionVm | MergeKind::MultisetDiffVm);
    let diff = matches!(
        kind,
        MergeKind::MultisetDiffSorted | MergeKind::MultisetDiffVm
    );
    let mut last: Vec<i64> = Vec::new();
    loop {
        ensure(sm, a)?;
        if !(diff && a.head().is_none()) {
            ensure(sm, b)?;
        }
        step(sm, Step::Peak(a.resident_bytes() + b.resident_bytes()))?;
        let (ha, hb) = (a.head(), b.head());
        match kind {
            MergeKind::MultisetUnionSorted | MergeKind::SetUnion => {
                let take_a = hb.map_or(true, |y| ha.is_some_and(|x| x <= y));
                let Some(row) = (if take_a { ha } else { hb }) else {
                    return Ok(());
                };
                if kind == MergeKind::MultisetUnionSorted || last != row {
                    step(sm, Step::Emit(row))?;
                    if kind == MergeKind::SetUnion {
                        last.clear();
                        last.extend_from_slice(row);
                    }
                }
                if take_a {
                    a.advance();
                } else {
                    b.advance();
                }
            }
            MergeKind::MultisetUnionVm => match (ha, hb) {
                (None, None) => return Ok(()),
                (Some(x), Some(y)) if x[0] == y[0] => {
                    step(sm, Step::Emit(&[x[0], x[1] + y[1]]))?;
                    a.advance();
                    b.advance();
                }
                (Some(x), y) if y.map_or(true, |y| x[0] < y[0]) => {
                    step(sm, Step::Emit(x))?;
                    a.advance();
                }
                (_, y) => {
                    step(sm, Step::Emit(y.expect("the side that remains")))?;
                    b.advance();
                }
            },
            MergeKind::MultisetDiffSorted | MergeKind::MultisetDiffVm => {
                let Some(x) = ha else { return Ok(()) };
                let key = if vm { 1 } else { x.len() };
                match hb.map(|y| (y[..key].cmp(&x[..key]), y)) {
                    Some((Less, _)) => b.advance(),
                    Some((Equal, y)) => {
                        if vm && x[1] > y[1] {
                            step(sm, Step::Emit(&[x[0], x[1] - y[1]]))?;
                        }
                        a.advance();
                        b.advance();
                    }
                    _ => {
                        step(sm, Step::Emit(x))?;
                        a.advance();
                    }
                }
            }
        }
    }
}

/// The column zip of `card` rows, a row at a time: each cursor's head in
/// column order, emitted as one row, then the peak.
pub fn zip<B: StorageBackend>(
    sm: &mut B,
    cursors: &mut [BlockCursor],
    card: u64,
    mut step: impl FnMut(&mut B, Step<'_>) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    let mut zipped: Vec<i64> = Vec::new();
    for _ in 0..card {
        zipped.clear();
        for cursor in cursors.iter_mut() {
            ensure(sm, cursor)?;
            zipped.extend_from_slice(cursor.head().expect("within card"));
            cursor.advance();
        }
        step(sm, Step::Emit(&zipped))?;
        let held = cursors.iter().map(BlockCursor::resident_bytes).sum();
        step(sm, Step::Peak(held))?;
    }
    Ok(())
}

/// The duplicate removal of a sorted input, a row at a time: each row
/// unequal to the last one emitted, then the peak after every row.
pub fn dedup<B: StorageBackend>(
    sm: &mut B,
    cursor: &mut BlockCursor,
    mut step: impl FnMut(&mut B, Step<'_>) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    let mut last: Vec<i64> = Vec::new();
    loop {
        ensure(sm, cursor)?;
        let Some(row) = cursor.head() else {
            return Ok(());
        };
        if last != row {
            step(sm, Step::Emit(row))?;
            last.clear();
            last.extend_from_slice(row);
        }
        cursor.advance();
        step(sm, Step::Peak(cursor.resident_bytes()))?;
    }
}

/// True when head `a` (of run `i`) is merged before head `b` (of run `j`):
/// the smaller row, the lower run on a tie (which keeps the merge stable),
/// and any row before an exhausted run.
pub fn merges_first((a, i): (Option<&[i64]>, usize), (b, j): (Option<&[i64]>, usize)) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => match x.cmp(y) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => i < j,
        },
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (None, None) => i < j,
    }
}

/// A tournament tree over the `k` runs of one merge: `nodes[0]` is the run
/// whose head is merged next, `nodes[1..]` the loser of each match on the
/// way up (heap layout; run `i` is leaf `k + i`). After the winner advances
/// only its own path is replayed — `log2(k)` comparisons a row instead of a
/// scan of every run. `first(a, b)` says whether run `a`'s head is merged
/// before run `b`'s ([`merges_first`]).
pub struct LoserTree {
    nodes: Vec<usize>,
}

impl LoserTree {
    /// Plays every match bottom-up.
    pub fn new(k: usize, first: impl Fn(usize, usize) -> bool) -> LoserTree {
        // `winners[n]` is who left node `n`.
        let mut winners: Vec<usize> = (0..2 * k).map(|n| n.saturating_sub(k)).collect();
        let mut nodes = vec![0; k];
        for n in (1..k).rev() {
            let (a, b) = (winners[2 * n], winners[2 * n + 1]);
            let a_wins = first(a, b);
            winners[n] = if a_wins { a } else { b };
            nodes[n] = if a_wins { b } else { a };
        }
        nodes[0] = winners[1];
        LoserTree { nodes }
    }

    /// The run whose head is merged next.
    pub fn winner(&self) -> usize {
        self.nodes[0]
    }

    /// Replays the matches of run `i` (the last winner) after its head
    /// changed.
    pub fn replay(&mut self, i: usize, first: impl Fn(usize, usize) -> bool) {
        let mut winner = i;
        let mut n = (self.nodes.len() + i) / 2;
        while n > 0 {
            if first(self.nodes[n], winner) {
                std::mem::swap(&mut self.nodes[n], &mut winner);
            }
            n /= 2;
        }
        self.nodes[0] = winner;
    }
}

/// The literal merge: merges the sorted runs behind `cursors` (at least
/// one) into one sorted stream, handing `emit` the cursors and the index of
/// the one whose head is the next row. A refill is issued only for the
/// cursor that just advanced, and only after `emit` returned — so whatever
/// `emit` writes precedes the read, as it would in a loop that refilled
/// every cursor before each pick.
pub fn merge_runs<B: StorageBackend>(
    sm: &mut B,
    cursors: &mut [BlockCursor],
    mut emit: impl FnMut(&[BlockCursor], usize),
) -> Result<(), ExecError> {
    for c in cursors.iter_mut() {
        ensure(sm, c)?;
    }
    let first = |cursors: &[BlockCursor], a: usize, b: usize| {
        merges_first((cursors[a].head(), a), (cursors[b].head(), b))
    };
    let mut tree = LoserTree::new(cursors.len(), |a, b| first(cursors, a, b));
    loop {
        let i = tree.winner();
        if cursors[i].head().is_none() {
            return Ok(()); // the best cursor is exhausted: all are
        }
        emit(cursors, i);
        cursors[i].advance();
        ensure(sm, &mut cursors[i])?;
        tree.replay(i, |a, b| first(cursors, a, b));
    }
}
