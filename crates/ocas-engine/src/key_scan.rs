//! The faithful block-nested-loops pair loop, run as a key-column scan.
//!
//! A faithful BNL join holds an outer block resident and compares each of
//! its tuples with each tuple of the inner block streaming past. As the
//! literal row-major nested loop that is a strided load, a compare and a
//! branch per pair plus the set-up of one inner loop per outer row — and
//! the plan the synthesizer tunes (all of RAM to the outer block, the inner
//! relation a tuple at a time) makes every one of those inner loops one
//! iteration long. Here each block's join keys (column 0) are copied into a
//! contiguous column when the block is read, and the matches of a tile pair
//! are found by scanning one column for a key of the other, [`CHUNK`] keys
//! to a branch-free fold that the compiler turns into vector compares; only
//! a chunk that holds a match is looked at key by key.
//!
//! The scan runs along the **longer** side of the tile pair — the inner
//! keys once per outer row, or the outer keys once per inner row when the
//! inner tile is the short one — but the matches always come back in the
//! nested loop's order (outer row, then inner row), so what a join emits
//! does not depend on how its matches were found.
//!
//! Nothing in this module is generic: the scan is compiled once, into this
//! crate, so an executor over real files and its simulator twin run the
//! same machine code.

use crate::rel::RowsView;
use std::ops::Range;

/// Keys per branch-free fold. Wide enough to amortise the hit test over
/// several vector compares, narrow enough that the key-by-key pass over a
/// chunk with a match stays cheap.
const CHUNK: usize = 32;

/// Most matches buffered per [`tile_matches`] call when it scans the outer
/// side (the side whose matches have to be put back in order): bounds the
/// buffer at 512 KiB however dense the join is.
const MAX_BUFFERED: usize = 1 << 16;

/// One match of a tile pair, packed so that integer order is nested-loop
/// order: the outer tile position in the high half, the inner one in the
/// low half.
fn pack(outer: usize, inner: usize) -> u64 {
    ((outer as u64) << 32) | inner as u64
}

fn unpack(pair: u64) -> (usize, usize) {
    ((pair >> 32) as usize, (pair & 0xffff_ffff) as usize)
}

/// Pushes `first + j * step` for every position `j` of `keys` holding
/// `probe`, in ascending order of `j`.
fn scan_eq(keys: &[i64], probe: i64, first: u64, step: u64, pairs: &mut Vec<u64>) {
    let chunks = keys.chunks_exact(CHUNK);
    let tail = chunks.remainder();
    let mut at = first;
    for chunk in chunks {
        let mut any = false;
        for &key in chunk {
            any |= key == probe;
        }
        if any {
            rescan(chunk, probe, at, step, pairs);
        }
        at += CHUNK as u64 * step;
    }
    rescan(tail, probe, at, step, pairs);
}

/// [`scan_eq`] a key at a time: the tail of a column, and the chunks that
/// hold a match.
fn rescan(keys: &[i64], probe: i64, first: u64, step: u64, pairs: &mut Vec<u64>) {
    for (j, &key) in keys.iter().enumerate() {
        if key == probe {
            pairs.push(first + j as u64 * step);
        }
    }
}

/// Replaces `pairs` with the matches between `okeys[from..to]` and all of
/// `ikeys` — positions within the two tiles, [`pack`]ed, in nested-loop
/// order — and returns `to`, which is past `from`: the caller emits the
/// pairs and asks again from there until `okeys` is used up.
///
/// Never inlined, so that every caller runs the one copy in this crate.
#[inline(never)]
fn tile_matches(okeys: &[i64], ikeys: &[i64], from: usize, pairs: &mut Vec<u64>) -> usize {
    assert!(
        okeys.len() <= u32::MAX as usize && ikeys.len() <= u32::MAX as usize,
        "tile too large for u32 row positions"
    );
    pairs.clear();
    if ikeys.len() >= okeys.len() {
        // Inner side: one outer row's matches are already in order.
        scan_eq(ikeys, okeys[from], pack(from, 0), 1, pairs);
        from + 1
    } else {
        // Outer side: a strip of outer rows against each inner row in
        // turn, which finds the strip's matches inner row first.
        let strip = (MAX_BUFFERED / ikeys.len().max(1) / CHUNK).max(1) * CHUNK;
        let to = okeys.len().min(from + strip);
        for (y, &probe) in ikeys.iter().enumerate() {
            scan_eq(&okeys[from..to], probe, pack(from, y), 1 << 32, pairs);
        }
        if ikeys.len() > 1 {
            pairs.sort_unstable();
        }
        to
    }
}

/// The key columns of the two blocks a BNL join is currently comparing,
/// and the buffer its matches are found into. One per run, reused from
/// block to block: a column is rebuilt whenever its block is read and
/// never outlives the run, so it cannot describe anything but the rows in
/// front of it.
#[derive(Debug, Default)]
pub(crate) struct KeyColumns {
    outer: Vec<i64>,
    inner: Vec<i64>,
    pairs: Vec<u64>,
}

fn key_column(rows: RowsView<'_>, column: &mut Vec<i64>) {
    column.clear();
    column.extend(rows.as_slice().iter().step_by(rows.width()));
}

impl KeyColumns {
    /// Takes the keys of the outer block just read.
    pub(crate) fn set_outer(&mut self, rows: RowsView<'_>) {
        key_column(rows, &mut self.outer);
    }

    /// Takes the keys of the inner block just read.
    pub(crate) fn set_inner(&mut self, rows: RowsView<'_>) {
        key_column(rows, &mut self.inner);
    }

    /// Finds the next batch of matches of the tile pair `outer` x `inner`
    /// (row ranges of the two blocks), starting at outer tile position
    /// `from`; returns the position to continue from, at most
    /// `outer.len()`. The batch is read with [`pairs`](KeyColumns::pairs).
    pub(crate) fn find(&mut self, outer: Range<usize>, inner: Range<usize>, from: usize) -> usize {
        tile_matches(
            &self.outer[outer],
            &self.inner[inner],
            from,
            &mut self.pairs,
        )
    }

    /// The batch [`find`](KeyColumns::find) found last, as (outer, inner)
    /// positions within the tile pair, in nested-loop order.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.pairs.iter().map(|&pair| unpack(pair))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Every match of a tile pair through [`tile_matches`], batch after
    /// batch.
    fn all_matches(okeys: &[i64], ikeys: &[i64]) -> Vec<(usize, usize)> {
        let (mut out, mut pairs) = (Vec::new(), Vec::new());
        let mut from = 0;
        while from < okeys.len() {
            let to = tile_matches(okeys, ikeys, from, &mut pairs);
            assert!(to > from && to <= okeys.len());
            assert!(pairs.len() <= MAX_BUFFERED.max(CHUNK * ikeys.len()));
            out.extend(pairs.iter().map(|&p| unpack(p)));
            from = to;
        }
        out
    }

    fn nested_loop(okeys: &[i64], ikeys: &[i64]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (x, a) in okeys.iter().enumerate() {
            for (y, b) in ikeys.iter().enumerate() {
                if a == b {
                    out.push((x, y));
                }
            }
        }
        out
    }

    /// `len` keys drawn from `range` values starting at `base` (which may
    /// sit at either end of the domain: the offsets wrap).
    fn keys(len: usize, range: u64, base: i64, seed: u64) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| base.wrapping_add(rng.gen_range(0..range) as i64))
            .collect()
    }

    #[test]
    fn scan_finds_every_position_in_order() {
        for len in [0, 1, 31, 32, 33, 64, 95, 200] {
            let column = keys(len, 3, -1, len as u64);
            for probe in -2..3 {
                let mut got = Vec::new();
                scan_eq(&column, probe, 7, 3, &mut got);
                let want: Vec<u64> = (0..len)
                    .filter(|&j| column[j] == probe)
                    .map(|j| 7 + 3 * j as u64)
                    .collect();
                assert_eq!(got, want, "len {len} probe {probe}");
            }
        }
    }

    #[test]
    fn columns_are_rebuilt_not_appended() {
        let mut cols = KeyColumns::default();
        let a = crate::rel::RowBuf::from_vec(vec![1, 10, 2, 20, 1, 30], 2);
        let b = crate::rel::RowBuf::from_vec(vec![2, 1, 2], 1);
        cols.set_outer(a.as_view());
        cols.set_inner(b.as_view());
        assert_eq!(cols.find(0..3, 0..3, 0), 1);
        assert_eq!(cols.pairs().collect::<Vec<_>>(), [(0, 1)]);
        // Same shapes, other keys: nothing of the first pair may survive.
        let a = crate::rel::RowBuf::from_vec(vec![5, 10, 5, 20, 2, 30], 2);
        cols.set_outer(a.as_view());
        assert_eq!(cols.find(0..3, 0..3, 0), 1);
        assert_eq!(cols.pairs().count(), 0);
        assert_eq!(cols.find(0..3, 0..3, 2), 3);
        assert_eq!(cols.pairs().collect::<Vec<_>>(), [(2, 0), (2, 2)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whichever side is scanned, and in however many batches, the
        /// matches are the nested loop's, in the nested loop's order.
        #[test]
        fn matches_are_the_nested_loops_in_its_order(
            (oshape, ishape) in (0usize..8, 0usize..8),
            (range_kind, base_kind) in (0u32..4, 0u32..4),
            seed in 0u64..1_000_000,
        ) {
            const SHAPES: [usize; 8] = [0, 1, 2, 31, 32, 33, 64, 4096];
            let (on, in_n) = (SHAPES[oshape], SHAPES[ishape]);
            // Every pair matches; duplicates; moderately sparse; sparse —
            // the dense ones only while the match list stays small.
            let range = match range_kind {
                0 if on * in_n <= 1 << 18 => 1,
                0 | 1 if on * in_n <= 1 << 20 => 5,
                0..=2 => 300,
                _ => 1 << 40,
            };
            let base = match base_kind {
                0 => 0,
                1 => -(range as i64 / 2) - 1,
                2 => i64::MIN,
                _ => i64::MAX - (range as i64 - 1),
            };
            let okeys = keys(on, range, base, seed);
            let ikeys = keys(in_n, range, base, seed + 1);
            prop_assert_eq!(all_matches(&okeys, &ikeys), nested_loop(&okeys, &ikeys));
        }
    }
}
