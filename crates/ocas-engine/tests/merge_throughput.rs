//! The batch merge kernel's throughput against the literal loser-tree loop
//! it replaced, in the same test — a ratio, so the runner's speed cancels
//! (the pattern of `tile_throughput.rs`).
//!
//! Sorted runs of 2^19 ints each, buffered 64 Ki rows at a time and merged
//! into 64 Ki-row batches, best of five passes, the kernel and the literal
//! loop taking turns: at 8 runs — the fan-in the synthesizer tunes for the
//! real-I/O sort — scanning the cached head keys must be at least
//! [`MIN_SPEEDUP`] times faster than a tournament replayed through row
//! slices; at 2 runs (nothing to amortise) and at 32 (the tree arm, same
//! tournament over cached keys) it must not be slower. Both sides pay the
//! same buffering: a run's next piece is a sub-slice, never a copy.
//!
//! The ratios are only asserted in optimised builds; a debug build runs
//! both sides once, over a tenth of the rows, and checks that they emit the
//! same rows in the same order.

use ocas_engine::{
    BlockCursor, ExecError, JoinPred, MergeHeads, MergeKind, MergeStop, RowBuf, RowsView, Tiling,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

#[path = "literal/mod.rs"]
mod literal;
use literal::LoserTree;

/// Passes per side.
const PASSES: usize = if cfg!(debug_assertions) { 1 } else { 5 };
/// Rows per run.
const RUN_ROWS: usize = if cfg!(debug_assertions) {
    (1 << 19) / 10
} else {
    1 << 19
};
/// Rows a run is buffered at a time, and rows per output batch.
const BUFFER_ROWS: usize = 1 << 16;
#[cfg(not(debug_assertions))]
const MIN_SPEEDUP: f64 = 1.3;

fn sorted_runs(k: usize) -> Vec<Vec<i64>> {
    (0..k)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(i as u64 + 1);
            let mut run: Vec<i64> = (0..RUN_ROWS)
                .map(|_| rng.gen_range(0..1u64 << 40) as i64)
                .collect();
            run.sort_unstable();
            run
        })
        .collect()
}

/// The buffered piece of `run` starting at row `from`.
fn piece(run: &[i64], from: usize) -> &[i64] {
    &run[from.min(run.len())..run.len().min(from + BUFFER_ROWS)]
}

/// The kernel, driven as a merge pass drives it. `sink` gets every batch.
fn merge_kernel(runs: &[Vec<i64>], mut sink: impl FnMut(&[i64])) {
    let mut from = vec![0usize; runs.len()];
    let mut pieces: Vec<&[i64]> = runs.iter().map(|run| piece(run, 0)).collect();
    let mut heads = MergeHeads::new(1, &pieces);
    let mut batch = RowBuf::with_capacity(1, BUFFER_ROWS);
    loop {
        let stop = heads.fill(&pieces, BUFFER_ROWS - batch.len(), &mut batch);
        if batch.len() == BUFFER_ROWS || (stop == MergeStop::Done && !batch.is_empty()) {
            sink(batch.as_slice());
            batch.clear();
        }
        match stop {
            MergeStop::Done => return,
            MergeStop::Dry(i) => {
                from[i] += BUFFER_ROWS;
                pieces[i] = piece(&runs[i], from[i]);
            }
            MergeStop::Full => {}
        }
    }
}

/// One buffered run of the literal loop.
struct Reader<'a> {
    run: &'a [i64],
    from: usize,
    buf: &'a [i64],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn head(&self) -> Option<&'a [i64]> {
        self.buf.get(self.pos..self.pos + 1)
    }

    fn ensure(&mut self) {
        if self.pos >= self.buf.len() && self.from + self.buf.len() < self.run.len() {
            self.from += self.buf.len();
            self.buf = piece(self.run, self.from);
            self.pos = 0;
        }
    }
}

/// True when reader `a`'s head is merged before reader `b`'s.
fn merges_first(readers: &[Reader<'_>], a: usize, b: usize) -> bool {
    literal::merges_first((readers[a].head(), a), (readers[b].head(), b))
}

/// The literal loop: a loser tree over the readers' head rows, replayed
/// after every row, each row handed to a closure that batches it.
fn merge_literal(runs: &[Vec<i64>], mut sink: impl FnMut(&[i64])) {
    let k = runs.len();
    let mut readers: Vec<Reader<'_>> = runs
        .iter()
        .map(|run| Reader {
            run,
            from: 0,
            buf: piece(run, 0),
            pos: 0,
        })
        .collect();
    let mut tree = LoserTree::new(k, |a, b| merges_first(&readers, a, b));
    let mut batch: Vec<i64> = Vec::with_capacity(BUFFER_ROWS);
    let mut emit = |row: &[i64]| {
        batch.extend_from_slice(row);
        if batch.len() >= BUFFER_ROWS {
            sink(&batch);
            batch.clear();
        }
    };
    loop {
        let i = tree.winner();
        let Some(row) = readers[i].head() else { break };
        emit(row);
        readers[i].pos += 1;
        readers[i].ensure();
        tree.replay(i, |a, b| merges_first(&readers, a, b));
    }
    if !batch.is_empty() {
        sink(&batch);
    }
}

/// Best seconds of the kernel and of the literal loop merging `k` runs,
/// after checking that they emit the same rows in the same order.
fn best_seconds(k: usize) -> (f64, f64) {
    let runs = sorted_runs(k);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    merge_kernel(&runs, |batch| got.extend_from_slice(batch));
    merge_literal(&runs, |batch| want.extend_from_slice(batch));
    assert_eq!(got.len(), k * RUN_ROWS);
    assert!(got.windows(2).all(|w| w[0] <= w[1]), "not sorted");
    assert!(got == want, "rows or their order differ");

    let (mut kernel, mut literal) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PASSES {
        let mut sum = 0i64;
        let t0 = Instant::now();
        merge_kernel(black_box(&runs), |batch| sum = sum.wrapping_add(batch[0]));
        kernel = kernel.min(t0.elapsed().as_secs_f64());
        black_box(sum);

        let mut sum = 0i64;
        let t0 = Instant::now();
        merge_literal(black_box(&runs), |batch| sum = sum.wrapping_add(batch[0]));
        literal = literal.min(t0.elapsed().as_secs_f64());
        black_box(sum);
    }
    (kernel, literal)
}

#[test]
fn batch_merge_kernel_beats_the_literal_loser_tree_where_it_has_to() {
    let shapes = [2usize, 8, 32].map(|k| (k, best_seconds(k)));
    for (k, (kernel, literal)) in shapes {
        let ns = |s: f64| s * 1e9 / (k * RUN_ROWS) as f64;
        println!(
            "{k} runs, ns/row, best of {PASSES}: {:.1} kernel / {:.1} literal = {:.2}x",
            ns(kernel),
            ns(literal),
            literal / kernel
        );
    }
    #[cfg(not(debug_assertions))]
    for (k, (kernel, literal)) in shapes {
        let floor = if k == 8 { MIN_SPEEDUP } else { 1.0 };
        assert!(
            literal >= floor * kernel,
            "{k} runs: the merge kernel is only {:.2}x the literal loser tree, under {floor}x",
            literal / kernel
        );
    }
}
