//! The in-memory equi-join index the GRACE join builds per bucket: a
//! chained hash over a [`RowBuf`]'s first column, held in two flat `u32`
//! arrays that are reused from one bucket to the next — and the probe loop
//! over it.

use crate::rel::RowBuf;

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
}

impl KeyIndex {
    /// An index over no rows (matches nothing until built).
    pub fn new() -> KeyIndex {
        KeyIndex {
            heads: vec![NIL; 2],
            next: Vec::new(),
            shift: 63,
        }
    }

    /// Fibonacci hashing: the multiply spreads every key bit into the top
    /// bits, which pick the slot.
    fn slot(&self, key: i64) -> usize {
        ((key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// Re-indexes over the rows of `rows`, replacing what was indexed
    /// before.
    pub fn build(&mut self, rows: &RowBuf) {
        let n = rows.len();
        assert!(n < NIL as usize, "batch too large for u32 row numbers");
        // At least two slots (a shift of 64 would overflow), load <= 1.
        let slots = n.next_power_of_two().max(2);
        self.shift = 64 - slots.trailing_zeros();
        self.heads.clear();
        self.heads.resize(slots, NIL);
        self.next.clear();
        self.next.resize(n, NIL);
        let width = rows.width();
        let keys = rows.as_slice().iter().step_by(width);
        for (row, &key) in keys.enumerate().rev() {
            let slot = self.slot(key);
            self.next[row] = self.heads[slot];
            self.heads[slot] = row as u32;
        }
    }

    /// The numbers of the rows of `rows` — the batch this index was built
    /// over — whose key equals `key`, ascending.
    pub fn matches<'a>(&'a self, rows: &'a RowBuf, key: i64) -> impl Iterator<Item = u32> + 'a {
        let width = rows.width();
        let data = rows.as_slice();
        let mut at = self.heads[self.slot(key)];
        std::iter::from_fn(move || {
            while at != NIL {
                let row = at;
                at = self.next[row as usize];
                if data[row as usize * width] == key {
                    return Some(row);
                }
            }
            None
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
            pairs.extend(index.matches(build, key).map(|x| (x, y as u32)));
        }
        if pairs.len() >= PROBE_PAIRS {
            return y + 1;
        }
    }
    rows
}

/// Pairs [`probe`] collects before it hands them to the caller.
pub(crate) const PROBE_PAIRS: usize = 1 << 12;

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
    use proptest::prelude::*;
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
            let got: Vec<u32> = index.matches(rows, key).collect();
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
            index.build(&stale);

            let mut rows = RowBuf::new(width);
            for (n, (k, payload)) in draws.iter().enumerate() {
                let mut row = vec![key_of(*k)];
                row.extend((1..width).map(|c| payload * 100 + (n * width + c) as i64));
                rows.push(&row);
            }
            index.build(&rows);
            let probes: Vec<i64> = (0..20).map(key_of).chain([0, 8, 1 << 40]).collect();
            assert_same_matches(&index, &rows, &probes);
        }
    }

    #[test]
    fn empty_unbuilt_and_single_row_batches() {
        let empty = RowBuf::new(2);
        let mut index = KeyIndex::new();
        assert_eq!(index.matches(&empty, 0).count(), 0, "never built");
        index.build(&empty);
        assert_same_matches(&index, &empty, &[0, -1, i64::MIN, i64::MAX]);

        let one = RowBuf::from_rows(&[vec![i64::MIN, 7]]);
        index.build(&one);
        assert_same_matches(&index, &one, &[i64::MIN, i64::MAX, 0, 7]);
        assert_eq!(index.matches(&one, i64::MIN).collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn duplicates_come_back_in_batch_order() {
        let rows = RowBuf::from_rows(&[vec![5, 0], vec![9, 1], vec![5, 2], vec![5, 3], vec![9, 4]]);
        let mut index = KeyIndex::new();
        index.build(&rows);
        let payloads = |key| -> Vec<i64> {
            let matches = index.matches(&rows, key);
            matches.map(|r| rows.row(r as usize)[1]).collect()
        };
        assert_eq!(payloads(5), vec![0, 2, 3]);
        assert_eq!(payloads(9), vec![1, 4]);
    }
}
