//! The inner loops of the streaming templates — merge pass (all five
//! kinds), column zip and duplicate removal — a batch at a time.
//!
//! Each template's literal loop takes one step per row: refill whatever
//! cursor is due, look at the heads, maybe emit a row through the sink,
//! advance, note the resident bytes. Here one call takes every step it can
//! over the rows the cursors have buffered (their `BlockCursor::rest`
//! slices) and appends the rows those steps emit to a plain `Vec`. A call
//! stops where the literal loop would do something other than compute:
//!
//! * right after the step that uses up the rows an input had buffered —
//!   the loop's next step starts by refilling that cursor (or finds its
//!   input finished; an input that has no rows at a call's start is one);
//! * right after the step that emits the `room`-th row — the caller sizes
//!   `room` so that this is the row whose emission flushes the sink's
//!   buffer;
//! * when no step is left.
//!
//! So every request, and every flush, happens between calls, in the order
//! the loop issued them. What a call reports ([`Took`]) is enough for the
//! caller to hand the rows to its sink and to note the resident bytes the
//! loop would have seen: within a call nothing is read or flushed, so the
//! loop's largest observation there is the one before or after the last
//! step.
//!
//! A merge of rows of one or two columns — lists, and the value-multiplicity
//! kinds — gets an instantiation of its own, in which a row is a value or a
//! pair rather than a slice (no slice compares, no `memcpy` a row), and so
//! does a zipped unary column. The two steps that decide a row from an
//! unpredictable comparison on unary lists, the multiset union's pick and
//! the duplicate removal's test, are branch-free. Like
//! [`MergeHeads`](crate::MergeHeads) nothing here is generic over a backend
//! or can fail, and it is compiled once, into this crate; the literal loops
//! survive as the executor's test oracles.

use crate::plan::MergeKind;
use std::cmp::Ordering::{Equal, Less};

/// How far one kernel call went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Took {
    /// Rows taken from the left and from the right input (a duplicate
    /// removal has one input, a zip takes the same rows from every column:
    /// both in `rows[0]`).
    pub rows: [usize; 2],
    /// Steps of the literal loop taken: 0 only when none was left.
    pub steps: usize,
    /// Values in `out` before the last step.
    pub before_last: usize,
}

/// Row `i` of `rows` (`width` columns), if it has one.
#[inline(always)]
fn row(rows: &[i64], width: usize, i: usize) -> Option<&[i64]> {
    rows.get(i * width..(i + 1) * width)
}

/// Steps of a merge pass of `kind` over the buffered rows `a` and `b` of
/// its two inputs (row-major, `width` columns; a value-multiplicity kind
/// has two), appending what they emit to `out`; see the module docs for
/// where it stops. `last` is the row a set union emitted last (empty before
/// the first), kept up to date. A difference takes no step once `a` is
/// empty, whatever `b` holds.
#[inline(never)]
pub(crate) fn merge_pass(
    kind: MergeKind,
    width: usize,
    inputs: (&[i64], &[i64]),
    last: &mut Vec<i64>,
    room: usize,
    out: &mut Vec<i64>,
) -> Took {
    match width {
        1 => merge_rows::<1>(kind, 1, inputs, last, room, out),
        2 => merge_rows::<2>(kind, 2, inputs, last, room, out),
        _ => merge_rows::<0>(kind, width, inputs, last, room, out),
    }
}

/// [`merge_pass`] for rows of `W` columns (`W = 0`: `width`, whatever it
/// is).
#[inline(always)]
fn merge_rows<const W: usize>(
    kind: MergeKind,
    width: usize,
    (a, b): (&[i64], &[i64]),
    last: &mut Vec<i64>,
    room: usize,
    out: &mut Vec<i64>,
) -> Took {
    let w = if W == 0 { width } else { W };
    let (na, nb) = (a.len() / w, b.len() / w);
    let start = out.len();
    if W == 1 && kind == MergeKind::MultisetUnionSorted && na > 0 && nb > 0 {
        // Every step emits the smaller head; branch-free until an input or
        // the room is used up, which is where the loop below would stop.
        out.reserve(room.min(na + nb));
        let (mut i, mut j, mut steps) = (0, 0, 0);
        while i < na && j < nb && steps < room {
            let (x, y) = (a[i], b[j]);
            let take_a = x <= y;
            out.push(if take_a { x } else { y });
            i += usize::from(take_a);
            j += usize::from(!take_a);
            steps += 1;
        }
        return Took {
            rows: [i, j],
            steps,
            before_last: out.len() - 1,
        };
    }
    let (mut i, mut j) = (0, 0);
    let (mut steps, mut emitted, mut before_last) = (0, 0, start);
    let vm = matches!(kind, MergeKind::MultisetUnionVm | MergeKind::MultisetDiffVm);
    let key = if vm { 1 } else { w };
    loop {
        let (ha, hb) = (row(a, w, i), row(b, w, j));
        let before = out.len();
        match kind {
            MergeKind::MultisetUnionSorted | MergeKind::SetUnion => {
                let take_a = hb.map_or(true, |y| ha.is_some_and(|x| x <= y));
                let Some(head) = (if take_a { ha } else { hb }) else {
                    break;
                };
                let fresh = kind == MergeKind::MultisetUnionSorted
                    || match before > start {
                        true => &out[before - w..] != head,
                        false => last.as_slice() != head,
                    };
                if fresh {
                    out.extend_from_slice(head);
                }
                if take_a {
                    i += 1;
                } else {
                    j += 1;
                }
            }
            MergeKind::MultisetUnionVm => match (ha, hb) {
                (None, None) => break,
                (Some(x), Some(y)) if x[0] == y[0] => {
                    out.extend_from_slice(&[x[0], x[1] + y[1]]);
                    i += 1;
                    j += 1;
                }
                (Some(x), y) if y.map_or(true, |y| x[0] < y[0]) => {
                    out.extend_from_slice(x);
                    i += 1;
                }
                (_, y) => {
                    out.extend_from_slice(y.expect("the side that remains"));
                    j += 1;
                }
            },
            MergeKind::MultisetDiffSorted | MergeKind::MultisetDiffVm => {
                let Some(x) = ha else { break };
                match hb.map(|y| (y[..key].cmp(&x[..key]), y)) {
                    Some((Less, _)) => j += 1,
                    Some((Equal, y)) => {
                        if vm && x[1] > y[1] {
                            out.extend_from_slice(&[x[0], x[1] - y[1]]);
                        }
                        i += 1;
                        j += 1;
                    }
                    _ => {
                        out.extend_from_slice(x);
                        i += 1;
                    }
                }
            }
        }
        steps += 1;
        before_last = before;
        emitted += usize::from(out.len() > before);
        if emitted == room || (na > 0 && i == na) || (nb > 0 && j == nb) {
            break;
        }
    }
    if kind == MergeKind::SetUnion && out.len() > start {
        last.clear();
        last.extend_from_slice(&out[out.len() - w..]);
    }
    Took {
        rows: [i, j],
        steps,
        before_last,
    }
}

/// Steps of a duplicate removal over the buffered rows `rows` (`width`
/// columns) of its sorted input: every row unequal to the last emitted one
/// (`last`, empty before the first; kept up to date) goes to `out`, until
/// the rows are used up or the `room`-th row is out.
#[inline(never)]
pub(crate) fn dedup(
    width: usize,
    rows: &[i64],
    last: &mut Vec<i64>,
    room: usize,
    out: &mut Vec<i64>,
) -> Took {
    if width == 1 {
        return dedup_unary(rows, last, room, out);
    }
    let start = out.len();
    let (mut steps, mut emitted, mut before_last) = (0, 0, start);
    for head in rows.chunks_exact(width) {
        let before = out.len();
        let fresh = match before > start {
            true => &out[before - width..] != head,
            false => last.as_slice() != head,
        };
        if fresh {
            out.extend_from_slice(head);
            emitted += 1;
        }
        steps += 1;
        before_last = before;
        if emitted == room {
            break;
        }
    }
    if out.len() > start {
        last.clear();
        last.extend_from_slice(&out[out.len() - width..]);
    }
    Took {
        rows: [steps, 0],
        steps,
        before_last,
    }
}

/// [`dedup`] for a unary list, branch-free: each value is written where the
/// next fresh one goes, and kept by moving that place on when it differs
/// from the value before it (in a sorted list, the last one emitted).
#[inline(always)]
fn dedup_unary(rows: &[i64], last: &mut Vec<i64>, room: usize, out: &mut Vec<i64>) -> Took {
    let start = out.len();
    out.resize(start + rows.len(), 0);
    // Before any row was emitted, a value the first row is not.
    let first = rows.first().map_or(0, |v| v.wrapping_add(1));
    let mut prev = last.first().copied().unwrap_or(first);
    let (mut steps, mut emitted, mut before_last) = (0, 0, start);
    while steps < rows.len() && emitted < room {
        let v = rows[steps];
        before_last = start + emitted;
        out[start + emitted] = v;
        emitted += usize::from(v != prev);
        prev = v;
        steps += 1;
    }
    out.truncate(start + emitted);
    if emitted > 0 {
        last.clear();
        last.push(prev);
    }
    Took {
        rows: [steps, 0],
        steps,
        before_last,
    }
}

/// Steps of a column zip over the buffered rows of its columns (`columns[c]`
/// with `widths[c]` columns a row): up to `limit` output rows, each the
/// concatenation of one row of every column, appended to `out` — as many as
/// the column with the fewest buffered rows allows.
#[inline(never)]
pub(crate) fn zip(columns: &[&[i64]], widths: &[usize], limit: usize, out: &mut Vec<i64>) -> Took {
    let buffered = columns.iter().zip(widths).map(|(c, w)| c.len() / w);
    let rows = buffered.min().unwrap_or(0).min(limit);
    let start = out.len();
    if rows == 0 {
        let before_last = start;
        return Took {
            before_last,
            ..Took::default()
        };
    }
    let out_width: usize = widths.iter().sum();
    out.resize(start + rows * out_width, 0);
    let mut at = 0;
    for (column, &w) in columns.iter().zip(widths) {
        let zipped = out[start + at..].chunks_mut(out_width);
        if w == 1 {
            for (to, &from) in zipped.zip(&column[..rows]) {
                to[0] = from;
            }
        } else {
            for (to, from) in zipped.zip(column.chunks_exact(w).take(rows)) {
                to[..w].copy_from_slice(from);
            }
        }
        at += w;
    }
    Took {
        rows: [rows, 0],
        steps: rows,
        before_last: start + (rows - 1) * out_width,
    }
}
