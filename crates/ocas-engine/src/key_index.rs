//! The in-memory equi-join index both joins build: a chained hash over a
//! batch's first column, held in two flat `u32` arrays that are reused from
//! one batch to the next — the GRACE join's build bucket, a block-nested-
//! loops join's outer tile — and the two probe loops over it.

use crate::rel::{RowBuf, RowsView};

/// End-of-chain marker (so a batch may hold at most `u32::MAX` rows — the
/// width of a row number here).
const NIL: u32 = u32::MAX;

/// Row numbers of a batch, chained by the hash of their key (column 0).
///
/// `heads[slot]` is the lowest row number whose key hashes to `slot`,
/// `next[row]` the next higher one. [`build`](KeyIndex::build) links the
/// rows back to front, so every chain — and therefore
/// [`matches`](KeyIndex::matches) — yields **ascending row numbers**: a
/// probe sees the build side's matches in batch order, exactly as a
/// `BTreeMap<key, Vec<row>>` filled front to back would list them.
/// Building is two linear passes and no allocation once the arrays have
/// grown to the largest batch.
#[derive(Debug)]
pub struct KeyIndex {
    heads: Vec<u32>,
    next: Vec<u32>,
    /// `64 - log2(heads.len())`: the slot is the hash's top bits.
    shift: u32,
    /// Chain entries looked at, so that the tests can bound a probe
    /// loop's work.
    #[cfg(test)]
    steps: std::cell::Cell<u64>,
}

impl KeyIndex {
    /// An index over no rows (matches nothing until built).
    pub fn new() -> KeyIndex {
        KeyIndex {
            heads: vec![NIL; 2],
            next: Vec::new(),
            shift: 63,
            #[cfg(test)]
            steps: Default::default(),
        }
    }

    /// Fibonacci hashing: the multiply spreads every key bit into the top
    /// bits, which pick the slot.
    fn slot(&self, key: i64) -> usize {
        ((key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// Re-indexes over `rows`, replacing what was indexed before.
    pub fn build(&mut self, rows: RowsView<'_>) {
        let n = rows.len();
        assert!(n < NIL as usize, "batch too large for u32 row numbers");
        // At least two slots (a shift of 64 would overflow), load <= 1.
        let slots = n.next_power_of_two().max(2);
        self.shift = 64 - slots.trailing_zeros();
        self.heads.clear();
        self.heads.resize(slots, NIL);
        self.next.clear();
        self.next.resize(n, NIL);
        let keys = rows.as_slice().iter().step_by(rows.width());
        for (row, &key) in keys.enumerate().rev() {
            let slot = self.slot(key);
            self.next[row] = self.heads[slot];
            self.heads[slot] = row as u32;
        }
    }

    /// The first row from `at` on along its chain whose key in `rows` is
    /// `key`, or [`NIL`].
    fn seek(&self, rows: RowsView<'_>, mut at: u32, key: i64) -> u32 {
        let (data, width) = (rows.as_slice(), rows.width());
        while at != NIL {
            #[cfg(test)]
            self.steps.set(self.steps.get() + 1);
            if data[at as usize * width] == key {
                break;
            }
            at = self.next[at as usize];
        }
        at
    }

    /// The lowest row of `rows` whose key is `key`, or [`NIL`].
    fn first(&self, rows: RowsView<'_>, key: i64) -> u32 {
        self.seek(rows, self.heads[self.slot(key)], key)
    }

    /// The numbers of the rows of `rows` — the batch this index was built
    /// over — whose key equals `key`, ascending.
    pub fn matches<'a>(&'a self, rows: RowsView<'a>, key: i64) -> impl Iterator<Item = u32> + 'a {
        let mut at = self.first(rows, key);
        std::iter::from_fn(move || {
            let row = at;
            (row != NIL).then(|| {
                at = self.seek(rows, self.next[row as usize], key);
                row
            })
        })
    }
}

/// The join pass's probe loop: the pairs the build rows `build` form with
/// the probe rows `probe[from..]` (row-major, `width` columns), as `(build
/// row, probe row)` appended to `pairs` in emission order — probe row by
/// probe row, each one's build rows ascending. An equi-join finds them in
/// `index`, built over `build`; a cross product (`cross`) pairs every build
/// row and never consults it. Returns after the first probe row that brings
/// `pairs` to [`PROBE_PAIRS`], with the probe row to resume from (the
/// number of probe rows once all are done), so that the caller's scratch
/// stays bounded. Non-generic and infallible: compiled once for every
/// backend.
pub(crate) fn probe(
    index: &KeyIndex,
    build: &RowBuf,
    probe: &[i64],
    width: usize,
    from: usize,
    cross: bool,
    pairs: &mut Vec<(u32, u32)>,
) -> usize {
    let rows = probe.len() / width;
    for y in from..rows {
        if cross {
            pairs.extend((0..build.len() as u32).map(|x| (x, y as u32)));
        } else {
            let key = probe[y * width];
            pairs.extend(index.matches(build.as_view(), key).map(|x| (x, y as u32)));
        }
        if pairs.len() >= PROBE_PAIRS {
            return y + 1;
        }
    }
    rows
}

/// Pairs either probe loop collects before it hands them to the caller.
pub(crate) const PROBE_PAIRS: usize = 1 << 12;

/// Where a tile pair's probes stand between two [`tile_pairs`] calls: for
/// each inner row with a match left, its next matching outer row — the
/// place its chain resumes from — listed under the strip of outer rows that
/// row falls in. Reused from one tile pair to the next.
#[derive(Debug, Default)]
pub(crate) struct TileProbe {
    /// `(next matching outer row, inner row)`, one entry per inner row that
    /// had a match.
    live: Vec<(u32, u32)>,
    /// The next entry in the same strip's list, or [`NIL`].
    link: Vec<u32>,
    /// The first entry of each strip's list, or [`NIL`].
    strips: Vec<u32>,
    /// Outer rows per strip.
    width: usize,
}

/// A block-nested-loops tile pair's probe loop: the pairs `(outer row,
/// inner row)` of `outer` x `inner` (positions within the two tiles) whose
/// keys are equal — every pair, for a cross product (`cross`) — in the
/// nested loop's order, outer row first, a strip of outer rows a call.
///
/// `index` is built over `outer`. Each inner row probes it once, in the
/// call that starts the tile pair (`from == 0`), and is listed under the
/// strip of its first match. Strips are as many outer rows as keep `pairs`
/// within [`PROBE_PAIRS`] even if every inner row with a match matched every
/// one of them. A call takes the next strip with a list, walks each listed
/// row's chain to the end of the strip and lists the row again under the
/// strip of its next match, so each chain is walked once however many
/// strips there are, and a strip costs its matches: a tile pair costs its
/// probes, its matches and one look per strip. The strip's pairs, found
/// inner row by inner row, are sorted into outer-row order (a one-row inner
/// tile finds them in that order).
///
/// Replaces `pairs` and returns the outer row the next strip with a match
/// starts at: the number of outer rows once the tile pair is done.
/// Non-generic and infallible: compiled once for every backend.
#[inline(never)]
pub(crate) fn tile_pairs(
    index: &KeyIndex,
    (outer, inner): (RowsView<'_>, RowsView<'_>),
    cross: bool,
    from: usize,
    probe: &mut TileProbe,
    pairs: &mut Vec<(u32, u32)>,
) -> usize {
    pairs.clear();
    let (olen, ilen) = (outer.len(), inner.len());
    if cross {
        let to = olen.min(from + (PROBE_PAIRS / ilen.max(1)).max(1));
        let strip = (from as u32..to as u32).flat_map(|x| (0..ilen as u32).map(move |y| (x, y)));
        pairs.extend(strip);
        return to;
    }
    let TileProbe {
        live,
        link,
        strips,
        width,
    } = probe;
    let (ikeys, iw) = (inner.as_slice(), inner.width());
    if from == 0 {
        live.clear();
        for (y, &key) in ikeys.iter().step_by(iw).enumerate() {
            let at = index.first(outer, key);
            if at != NIL {
                live.push((at, y as u32));
            }
        }
        *width = (PROBE_PAIRS / live.len().max(1)).max(1);
        strips.clear();
        strips.resize(olen.div_ceil(*width), NIL);
        link.clear();
        link.resize(live.len(), NIL);
        for (e, &(at, _)) in live.iter().enumerate() {
            let strip = &mut strips[at as usize / *width];
            (link[e], *strip) = (*strip, e as u32);
        }
    }
    let Some(strip) = (from / *width..strips.len()).find(|&s| strips[s] != NIL) else {
        return olen;
    };
    let to = olen.min((strip + 1) * *width) as u32;
    let mut e = std::mem::replace(&mut strips[strip], NIL);
    while e != NIL {
        let (at, y) = &mut live[e as usize];
        let key = ikeys[*y as usize * iw];
        while *at < to {
            pairs.push((*at, *y));
            *at = index.seek(outer, index.next[*at as usize], key);
        }
        let next = link[e as usize];
        if *at != NIL {
            let later = &mut strips[*at as usize / *width];
            (link[e as usize], *later) = (*later, e);
        }
        e = next;
    }
    if ilen > 1 {
        pairs.sort_unstable();
    }
    let rest = (strip + 1..strips.len()).find(|&s| strips[s] != NIL);
    rest.map_or(olen, |s| s * *width)
}

/// The join rows of `pairs` — build row `x` of `build` (`lw` columns), then
/// probe row `y` of `probe` (`rw` columns), for each `(x, y)` in order —
/// appended row-major to `out`. Non-generic and infallible: compiled once
/// for every backend.
#[inline(never)]
pub(crate) fn join_rows(
    (build, lw): (&[i64], usize),
    (probe, rw): (&[i64], usize),
    pairs: &[(u32, u32)],
    out: &mut Vec<i64>,
) {
    out.reserve(pairs.len() * (lw + rw));
    for &(x, y) in pairs {
        let (x, y) = (x as usize * lw, y as usize * rw);
        out.extend_from_slice(&build[x..x + lw]);
        out.extend_from_slice(&probe[y..y + rw]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Tiling;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// The index this one replaced, as the operators built it.
    fn reference(rows: &RowBuf) -> BTreeMap<i64, Vec<u32>> {
        let mut table: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for (n, row) in rows.iter().enumerate() {
            table.entry(row[0]).or_default().push(n as u32);
        }
        table
    }

    fn assert_same_matches(index: &KeyIndex, rows: &RowBuf, probes: &[i64]) {
        let table = reference(rows);
        for &key in probes {
            let want = table.get(&key).cloned().unwrap_or_default();
            let got: Vec<u32> = index.matches(rows.as_view(), key).collect();
            assert_eq!(got, want, "key {key}");
        }
    }

    /// Maps a small draw onto keys that collide a lot, sit at both ends of
    /// the domain, and straddle zero.
    fn key_of(draw: i64) -> i64 {
        match draw {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => i64::MIN + 1,
            3 => i64::MAX - 1,
            d => d - 12, // -8 ..= 7
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn matches_equal_the_btreemap_reference(
            width in 1usize..4,
            draws in proptest::collection::vec((0i64..20, -3i64..4), 0..70),
            reuse in proptest::collection::vec(0i64..20, 0..9),
        ) {
            let mut index = KeyIndex::new();
            // A first build over another batch: the arrays are reused and
            // nothing of it may show through.
            let mut stale = RowBuf::new(width);
            for k in &reuse {
                stale.push(&vec![key_of(*k); width]);
            }
            index.build(stale.as_view());

            let mut rows = RowBuf::new(width);
            for (n, (k, payload)) in draws.iter().enumerate() {
                let mut row = vec![key_of(*k)];
                row.extend((1..width).map(|c| payload * 100 + (n * width + c) as i64));
                rows.push(&row);
            }
            index.build(rows.as_view());
            let probes: Vec<i64> = (0..20).map(key_of).chain([0, 8, 1 << 40]).collect();
            assert_same_matches(&index, &rows, &probes);
        }
    }

    #[test]
    fn empty_unbuilt_and_single_row_batches() {
        let empty = RowBuf::new(2);
        let mut index = KeyIndex::new();
        assert_eq!(index.matches(empty.as_view(), 0).count(), 0, "never built");
        index.build(empty.as_view());
        assert_same_matches(&index, &empty, &[0, -1, i64::MIN, i64::MAX]);

        let one = RowBuf::from_rows(&[vec![i64::MIN, 7]]);
        index.build(one.as_view());
        assert_same_matches(&index, &one, &[i64::MIN, i64::MAX, 0, 7]);
        assert_eq!(
            index.matches(one.as_view(), i64::MIN).collect::<Vec<_>>(),
            [0]
        );
    }

    #[test]
    fn duplicates_come_back_in_batch_order() {
        let rows = RowBuf::from_rows(&[vec![5, 0], vec![9, 1], vec![5, 2], vec![5, 3], vec![9, 4]]);
        let mut index = KeyIndex::new();
        index.build(rows.as_view());
        let payloads = |key| -> Vec<i64> {
            let matches = index.matches(rows.as_view(), key);
            matches.map(|r| rows.row(r as usize)[1]).collect()
        };
        assert_eq!(payloads(5), vec![0, 2, 3]);
        assert_eq!(payloads(9), vec![1, 4]);
    }

    /// Every pair [`tile_pairs`] hands out for the tile pair `outer` x
    /// `inner`, strip after strip, each strip within the bound — and each
    /// inner row's chain walked once however many strips there are: no
    /// more chain entries looked at than the rows that share the inner
    /// keys' slots.
    fn strips(
        index: &KeyIndex,
        tiles: (RowsView<'_>, RowsView<'_>),
        cross: bool,
    ) -> Vec<(u32, u32)> {
        let (mut probe, mut pairs, mut out) = (TileProbe::default(), Vec::new(), Vec::new());
        index.steps.set(0);
        let mut from = 0;
        while from < tiles.0.len() {
            let to = tile_pairs(index, tiles, cross, from, &mut probe, &mut pairs);
            assert!(to > from && to <= tiles.0.len(), "{from} -> {to}");
            assert!(
                pairs.len() <= PROBE_PAIRS.max(tiles.1.len()),
                "{} pairs",
                pairs.len()
            );
            out.extend_from_slice(&pairs);
            from = to;
        }
        let mut slot_rows = vec![0u64; index.heads.len()];
        tiles
            .0
            .iter()
            .for_each(|row| slot_rows[index.slot(row[0])] += 1);
        let chains: u64 = tiles
            .1
            .iter()
            .map(|row| slot_rows[index.slot(row[0])])
            .sum();
        let steps = index.steps.get();
        assert!(
            steps <= chains,
            "{steps} chain entries looked at, chains of {chains} rows"
        );
        out
    }

    /// The pairs of two blocks as `tiling` cuts them: every tile pair
    /// through [`tile_pairs`] over an index of its outer tile, or (`literal`)
    /// through the nested loop — outer tile, inner tile, outer row, inner
    /// row — as block positions.
    fn block_pairs(
        (outer, inner): (&RowBuf, &RowBuf),
        tiling: Option<Tiling>,
        cross: bool,
        literal: bool,
    ) -> Vec<(u32, u32)> {
        let (to, ti) = match tiling {
            Some(t) => (t.outer as usize, t.inner as usize),
            None => (outer.len().max(1), inner.len().max(1)),
        };
        let (mut index, mut out) = (KeyIndex::new(), Vec::new());
        for ob in (0..outer.len()).step_by(to) {
            let otile = outer.view(ob, to);
            index.build(otile);
            for ib in (0..inner.len()).step_by(ti) {
                let itile = inner.view(ib, ti);
                let at = |(x, y): (u32, u32)| (x + ob as u32, y + ib as u32);
                if !literal {
                    out.extend(strips(&index, (otile, itile), cross).into_iter().map(at));
                    continue;
                }
                for (x, a) in otile.iter().enumerate() {
                    for (y, b) in itile.iter().enumerate() {
                        if cross || a[0] == b[0] {
                            out.push(at((x as u32, y as u32)));
                        }
                    }
                }
            }
        }
        out
    }

    /// `len` rows of `width` columns, the key drawn from `range` values
    /// starting at `base` (the offsets wrap, so a base at either end of the
    /// domain puts keys at both).
    fn keyed(len: usize, width: usize, range: u64, base: i64, rng: &mut StdRng) -> RowBuf {
        let mut data = Vec::with_capacity(len * width);
        for id in 0..len {
            data.push(base.wrapping_add(rng.gen_range(0..range) as i64));
            data.extend((1..width).map(|col| (id * width + col) as i64));
        }
        RowBuf::from_vec(data, width)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The tile pair's probe loop against the literal nested loop: the
        /// same pairs in the nested loop's order, strips within the bound.
        /// Blocks around the pairs bound and its square root, empty ones
        /// included, whole or cut into 7 x 33 and 100 x 3 tiles; keys from
        /// one value (every pair matches, while the block pair stays under
        /// 2^20 pairs) to 2^40, straddling zero or at either end of the
        /// domain; cross products of small blocks. (One side stays under
        /// 4,095 rows, so that the literal loop stays quick in a debug
        /// build; the executor's differential test joins 4,096 x 4,096.)
        #[test]
        fn tile_pairs_are_the_nested_loops_in_its_order(
            (oshape, ishape, width) in (0usize..10, 0usize..10, 1usize..4),
            (range_kind, base_kind, tiling_kind, cross_kind) in (0u32..4, 0u32..4, 0u32..4, 0u32..8),
            seed in 0u64..1_000_000,
        ) {
            const SHAPES: [usize; 10] = [0, 1, 2, 63, 64, 65, 300, 4095, 4096, 4097];
            let (on, in_n) = match (SHAPES[oshape], SHAPES[ishape]) {
                (on, in_n) if on.min(in_n) >= 4095 => (on, SHAPES[ishape - 3]),
                shape => shape,
            };
            let range = match range_kind {
                0 if on * in_n <= 1 << 20 => 1,
                0 | 1 if on * in_n <= 1 << 22 => 5,
                0..=2 => 300,
                _ => 1 << 40,
            };
            let base = match base_kind {
                0 => 0,
                1 => -(range as i64 / 2) - 1,
                2 => i64::MIN,
                _ => i64::MAX - (range as i64 - 1),
            };
            let tiling = match tiling_kind {
                0 | 1 => None,
                2 => Some(Tiling { outer: 7, inner: 33 }),
                _ => Some(Tiling { outer: 100, inner: 3 }),
            };
            let cross = cross_kind == 0 && on * in_n <= 1 << 16;
            let mut rng = StdRng::seed_from_u64(seed);
            let outer = keyed(on, width, range, base, &mut rng);
            let inner = keyed(in_n, 4 - width, range, base, &mut rng);
            let blocks = (&outer, &inner);
            let (got, want) = (block_pairs(blocks, tiling, cross, false), block_pairs(blocks, tiling, cross, true));
            prop_assert!(
                got == want,
                "{} x {}, {:?}, cross {}, key range {} from {}: {} vs {} pairs",
                on, in_n, tiling, cross, range, base, got.len(), want.len()
            );
        }
    }
}
