//! The k-way merge of sorted runs, a batch at a time.
//!
//! An external merge holds one buffered piece of each run and repeatedly
//! moves the smallest head row to its output. Done a row at a time through
//! row slices that costs a call, a handful of `Option`s and several
//! unpredictable slice compares per row. Here the head *key* (column 0) of
//! every run is cached in one small array, and [`MergeHeads::fill`] merges
//! a whole output batch per call:
//!
//! * up to [`SCAN_MAX`] runs — every fan-in the synthesizer commits to —
//!   the next row is found by a branch-free minimum scan over the cached
//!   keys (a compare and two selects a run, no tree to maintain);
//! * above that, by a loser tree over the same cached keys (`log2 k`
//!   compares a row).
//!
//! Rows are only looked at when keys tie: the smaller row wins, and on a
//! full tie the lower run, which makes the merge stable. A run whose
//! buffered piece is used up has no head; its cached key reads `i64::MAX`,
//! so it loses every scan without a liveness test in the loop — and since a
//! live row may carry that very key, a tie *on* `i64::MAX` is settled on
//! liveness first.
//!
//! A call returns when the batch is full, or as soon as the run that just
//! advanced ran dry: the caller owns the runs' storage, and whatever it
//! does to get the next piece (a read, after flushing a batch the same row
//! completed) happens between calls. Nothing here is generic and nothing
//! can fail: the merge is compiled once, into this crate.

use crate::rel::RowBuf;

/// Largest fan-in merged by scanning the cached keys; wider merges use the
/// loser tree. Chosen from the fan-in alone: the scan's cost grows with
/// every run, the tree's with their logarithm, and they cross a little
/// above the widest fan-in (16) any committed plan uses.
const SCAN_MAX: usize = 16;

/// Why [`MergeHeads::fill`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStop {
    /// The rows asked for are out; every run still has its head.
    Full,
    /// The buffered piece of this run is used up (its last row is out).
    /// Before the next call the caller replaces the run's slice with its
    /// next piece, or with an empty slice when the run has ended.
    Dry(usize),
    /// No run has a row left.
    Done,
}

/// The state of one merge: where each run's head is within its buffered
/// piece, and the cached head keys.
#[derive(Debug)]
pub struct MergeHeads {
    width: usize,
    /// Column 0 of each run's head row; `i64::MAX` for a run without one.
    keys: Vec<i64>,
    /// Offset of each run's head within its slice, in columns.
    at: Vec<usize>,
    /// The loser tree (heap layout: `nodes[0]` the winner, `nodes[1..]`
    /// the loser of each match, run `i` is leaf `k + i`); empty when the
    /// keys are scanned instead.
    nodes: Vec<usize>,
    /// The run reported [`MergeStop::Dry`] by the last call, whose slice
    /// the caller has replaced since.
    refilled: Option<usize>,
}

/// The key cached for a run whose unmerged rows are `run`.
fn head_key(run: &[i64]) -> i64 {
    run.first().copied().unwrap_or(i64::MAX)
}

/// True when run `a`'s head is merged before run `b`'s: the smaller key,
/// then a head before none, the smaller row, the lower run.
fn merges_first(
    keys: &[i64],
    at: &[usize],
    runs: &[&[i64]],
    width: usize,
    a: usize,
    b: usize,
) -> bool {
    if keys[a] != keys[b] {
        return keys[a] < keys[b];
    }
    // Equal keys below `i64::MAX` are two heads; at it, either may be dry.
    let head = |i: usize| runs[i].get(at[i]..at[i] + width);
    let (x, y) = (head(a), head(b));
    (x.is_none(), x, a) < (y.is_none(), y, b)
}

/// Replays the matches of run `i` up the loser tree after its head changed.
fn replay(
    nodes: &mut [usize],
    keys: &[i64],
    at: &[usize],
    runs: &[&[i64]],
    width: usize,
    i: usize,
) {
    let mut winner = i;
    let mut n = (keys.len() + i) / 2;
    while n > 0 {
        if merges_first(keys, at, runs, width, nodes[n], winner) {
            std::mem::swap(&mut nodes[n], &mut winner);
        }
        n /= 2;
    }
    nodes[0] = winner;
}

/// Among the runs whose cached key equals run `first`'s — `first` is the
/// lowest of them — the one whose head merges first, or `None` when none of
/// them has a head (only possible at `i64::MAX`, and then every run is dry).
fn settle_tie(
    keys: &[i64],
    at: &[usize],
    runs: &[&[i64]],
    width: usize,
    first: usize,
) -> Option<usize> {
    let key = keys[first];
    let mut best: Option<(usize, &[i64])> = None;
    for i in first..keys.len() {
        if keys[i] != key {
            continue;
        }
        let Some(row) = runs[i].get(at[i]..at[i] + width) else {
            continue;
        };
        if best.map_or(true, |(_, least)| row < least) {
            best = Some((i, row));
        }
    }
    best.map(|(i, _)| i)
}

/// Moves up to `room` rows, in merge order, from `runs` to `out`, advancing
/// `at` and `keys`; see [`MergeHeads::fill`]. Never inlined, so that every
/// caller runs the one copy in this crate.
#[inline(never)]
fn merge_fill(
    heads: &mut MergeHeads,
    runs: &[&[i64]],
    room: usize,
    out: &mut Vec<i64>,
) -> MergeStop {
    let width = heads.width;
    let (keys, at, nodes) = (
        heads.keys.as_mut_slice(),
        heads.at.as_mut_slice(),
        heads.nodes.as_mut_slice(),
    );
    assert!(runs.len() == keys.len(), "one slice per run");
    if keys.is_empty() {
        return MergeStop::Done;
    }
    out.reserve(room * width);
    for _ in 0..room {
        let winner = if nodes.is_empty() {
            // The lowest run holding the least key, and how many hold it,
            // without a branch.
            let (mut best, mut least, mut holders) = (0, keys[0], 1);
            for (i, &key) in keys.iter().enumerate().skip(1) {
                let lower = key < least;
                holders = if lower {
                    1
                } else {
                    holders + usize::from(key == least)
                };
                best = if lower { i } else { best };
                least = if lower { key } else { least };
            }
            if least == i64::MAX || (width > 1 && holders > 1) {
                match settle_tie(keys, at, runs, width, best) {
                    Some(i) => i,
                    None => return MergeStop::Done,
                }
            } else {
                best
            }
        } else {
            let i = nodes[0];
            if at[i] >= runs[i].len() {
                return MergeStop::Done; // the best run has no head: none has
            }
            i
        };
        let run = runs[winner];
        let head = at[winner];
        if width == 1 {
            out.push(run[head]);
        } else {
            out.extend_from_slice(&run[head..head + width]);
        }
        let next = head + width;
        at[winner] = next;
        match run.get(next) {
            Some(&key) => keys[winner] = key,
            None => {
                // Its matches are replayed once the caller has refilled it.
                keys[winner] = i64::MAX;
                heads.refilled = Some(winner);
                return MergeStop::Dry(winner);
            }
        }
        if !nodes.is_empty() {
            replay(nodes, keys, at, runs, width, winner);
        }
    }
    MergeStop::Full
}

impl MergeHeads {
    /// Starts a merge of `runs`: the buffered first piece of each sorted
    /// run, row-major with `width` columns (an empty slice for an empty
    /// run).
    pub fn new(width: usize, runs: &[&[i64]]) -> MergeHeads {
        let width = width.max(1);
        let k = runs.len();
        let keys: Vec<i64> = runs.iter().map(|run| head_key(run)).collect();
        let at = vec![0; k];
        let mut nodes = Vec::new();
        if k > SCAN_MAX {
            // Play every match bottom-up; `winners[n]` is who left node `n`.
            let mut winners: Vec<usize> = (0..2 * k).map(|n| n.saturating_sub(k)).collect();
            nodes = vec![0; k];
            for n in (1..k).rev() {
                let (a, b) = (winners[2 * n], winners[2 * n + 1]);
                let a_first = merges_first(&keys, &at, runs, width, a, b);
                winners[n] = if a_first { a } else { b };
                nodes[n] = if a_first { b } else { a };
            }
            nodes[0] = winners[1];
        }
        MergeHeads {
            width,
            keys,
            at,
            nodes,
            refilled: None,
        }
    }

    /// Appends the next rows of the merge to `out`: until `room` of them
    /// are out, or the run that just advanced has used up its slice, or
    /// none has a row left.
    ///
    /// `runs` are the slices the merge was started with, except that the
    /// run the previous call reported [`MergeStop::Dry`] now has its next
    /// piece (or an empty slice). The merge is stable: of equal rows the one
    /// from the lower run comes first.
    pub fn fill(&mut self, runs: &[&[i64]], room: usize, out: &mut RowBuf) -> MergeStop {
        assert!(out.width() == self.width, "row width mismatch");
        if let Some(i) = self.refilled.take() {
            self.at[i] = 0;
            self.keys[i] = head_key(runs[i]);
            if !self.nodes.is_empty() {
                replay(&mut self.nodes, &self.keys, &self.at, runs, self.width, i);
            }
        }
        merge_fill(self, runs, room, out.raw_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The merge order of whole runs: the stable sort of their
    /// concatenation, as `(row, run)`.
    fn stable_order(runs: &[Vec<i64>], width: usize) -> Vec<(Vec<i64>, usize)> {
        let mut tagged: Vec<(Vec<i64>, usize)> = runs
            .iter()
            .enumerate()
            .flat_map(|(i, run)| run.chunks_exact(width).map(move |r| (r.to_vec(), i)))
            .collect();
        tagged.sort(); // by row, then by run
        tagged
    }

    /// Drives the kernel the way a merge pass does — each run buffered
    /// `piece` rows at a time and refilled when reported dry, `room` rows a
    /// call — and holds it to `want`, the oracle's `(row, run)` sequence:
    /// the same rows in the same order, and after every call each run
    /// advanced exactly as far as the oracle had by then (equal rows cannot
    /// tell which run they came from; the positions can).
    fn check_kernel(
        runs: &[Vec<i64>],
        width: usize,
        piece: usize,
        room: usize,
        want: &[(Vec<i64>, usize)],
    ) {
        let step = piece * width;
        let mut from = vec![0usize; runs.len()];
        let buffered = |from: &[usize]| -> Vec<&[i64]> {
            runs.iter()
                .zip(from)
                .map(|(run, &f)| &run[f..run.len().min(f + step)])
                .collect()
        };
        let mut heads = MergeHeads::new(width, &buffered(&from));
        let mut want_at = vec![0usize; runs.len()];
        let mut emitted = 0;
        let mut batch = RowBuf::new(width);
        loop {
            batch.clear();
            let stop = heads.fill(&buffered(&from), room, &mut batch);
            let rows = batch.len();
            assert!(rows <= room, "more rows than room");
            for (row, (want_row, run)) in batch.iter().zip(&want[emitted..]) {
                assert_eq!(row, want_row.as_slice());
                want_at[*run] += width;
            }
            emitted += rows;
            let at: Vec<usize> = from.iter().zip(&heads.at).map(|(f, a)| f + a).collect();
            assert_eq!(at, want_at, "a row was taken from the wrong run");
            match stop {
                MergeStop::Done => break,
                MergeStop::Dry(i) => {
                    assert_eq!(heads.at[i], buffered(&from)[i].len(), "not dry");
                    from[i] += heads.at[i];
                    // `at` is stale until the next call re-reads the slice.
                    heads.at[i] = 0;
                }
                MergeStop::Full => assert_eq!(rows, room, "not full"),
            }
        }
        assert_eq!(emitted, want.len(), "rows lost");
    }

    #[test]
    fn no_runs_and_empty_runs_are_done_at_once() {
        let mut out = RowBuf::new(1);
        assert_eq!(
            MergeHeads::new(1, &[]).fill(&[], 4, &mut out),
            MergeStop::Done
        );
        let runs: [&[i64]; 3] = [&[], &[], &[]];
        assert_eq!(
            MergeHeads::new(1, &runs).fill(&runs, 4, &mut out),
            MergeStop::Done
        );
        assert!(out.is_empty());
    }

    #[test]
    fn a_live_max_key_beats_a_dry_run_and_ties_go_to_the_lower_run() {
        // Run 0 dries up first; runs 1 and 2 both hold i64::MAX rows.
        let runs = vec![
            vec![i64::MIN, 5],
            vec![5, i64::MAX, i64::MAX],
            vec![i64::MAX],
        ];
        let want = vec![
            (vec![i64::MIN], 0),
            (vec![5], 0),
            (vec![5], 1),
            (vec![i64::MAX], 1),
            (vec![i64::MAX], 1),
            (vec![i64::MAX], 2),
        ];
        assert_eq!(stable_order(&runs, 1), want);
        for (piece, room) in [(8, 1), (1, 1), (2, 3)] {
            check_kernel(&runs, 1, piece, room, &want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The kernel against the stable sort of the concatenation (which
        /// `ocas-runtime` holds its literal loser-tree merge to, next to
        /// this kernel): 1 to 17 runs, so the scan and the tree arm are
        /// both hit, widths 1 to 3, empty and unequal runs, key domains
        /// small enough that most rows tie, the two extreme keys in live
        /// runs, one-row pieces and one-row rooms.
        #[test]
        fn kernel_merges_in_stable_order_and_advances_the_right_runs(
            (width, piece, room) in (1usize..4, 1usize..6, 1usize..8),
            lens in proptest::collection::vec(0usize..13, 1..18),
            draws in proptest::collection::vec((0i64..5, 0i64..2, 0i64..2), 200..201),
            extremes in 0u32..4,
        ) {
            // 0: plain keys; 1: some i64::MAX; 2: some i64::MIN; 3: both.
            let key_of = |k: i64| match (extremes, k) {
                (1 | 3, 4) => i64::MAX,
                (2 | 3, 0) => i64::MIN,
                _ => k,
            };
            let mut draw = draws.iter().cycle();
            let runs: Vec<Vec<i64>> = lens
                .iter()
                .map(|&len| {
                    let mut rows: Vec<Vec<i64>> = (0..len)
                        .map(|_| {
                            let (a, b, c) = *draw.next().expect("cycled");
                            [key_of(a), b, c][..width].to_vec()
                        })
                        .collect();
                    rows.sort();
                    rows.concat()
                })
                .collect();
            let want = stable_order(&runs, width);
            check_kernel(&runs, width, piece, room, &want);
        }
    }
}
