//! The sorted-window fill's throughput against the literal filter and sort
//! it replaced, in the same test — a ratio, so the runner's speed cancels
//! (the pattern of `tile_throughput.rs` and `merge_throughput.rs`).
//!
//! A width-1 sorted generator of 2^21 tuples (the size of `real-stream`'s
//! sorted inputs) fills its 2^20-tuple window that starts in the middle of
//! its ranks, best of five passes, the fill and the literal loop taking
//! turns. The literal loop draws the whole stream again, pushes the draws in
//! the window's value range and sorts them with `RowBuf::sort`. The fill must
//! be at least [`MIN_SPEEDUP`] times faster, at a power-of-two key range and
//! at one that is not, and it must produce the literal loop's rows, bit for
//! bit.
//!
//! The ratio is only asserted in optimised builds; a debug build runs both
//! sides once, over an eighth of the tuples, and checks the rows alone.

use ocas_engine::{RowBuf, RowGen};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Passes per side.
const PASSES: usize = if cfg!(debug_assertions) { 1 } else { 5 };
/// Tuples in the relation; its window is half of them.
const CARD: u64 = if cfg!(debug_assertions) {
    1 << 18
} else {
    1 << 21
};
const SEED: u64 = 3;
#[cfg(not(debug_assertions))]
const MIN_SPEEDUP: f64 = 1.5;

/// The literal loop: every draw of the stream, those in `lo..=hi` pushed,
/// then sorted — into `out`, whose allocation is reused as a window's is.
fn literal(range: u64, lo: i64, hi: i64, out: &mut RowBuf) {
    out.clear();
    let mut rng = StdRng::seed_from_u64(SEED);
    for _ in 0..CARD {
        let v: i64 = rng.gen_range(0..range as i64);
        if (lo..=hi).contains(&v) {
            out.push(&[v]);
        }
    }
    out.sort();
}

/// Best seconds of the fill and of the literal loop, after checking that
/// they produce the same rows.
fn best_seconds(range: u64) -> (f64, f64) {
    let gen = RowGen::new(CARD, 1, range, true, SEED);
    let (mut got, mut want) = (RowBuf::new(1), RowBuf::new(1));
    let fill = |out: &mut RowBuf| gen.fill_window(CARD / 2, 1, CARD / 2, out);
    let start = fill(&mut got);
    let half = got.len() as u64 >= CARD / 2 - CARD / 64;
    assert!(start > 0 && half, "range {range}: not the window asked for");
    // The window is whole buckets: every draw from its least to its largest
    // value is in it.
    let (lo, hi) = (got.as_slice()[0], got.as_slice()[got.len() - 1]);
    literal(range, lo, hi, &mut want);
    assert!(got == want, "range {range}: not the literal loop's rows");

    let (mut fast, mut slow) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PASSES {
        let t0 = Instant::now();
        fill(black_box(&mut got));
        fast = fast.min(t0.elapsed().as_secs_f64());
        black_box(&got);

        let t0 = Instant::now();
        literal(black_box(range), lo, hi, &mut want);
        slow = slow.min(t0.elapsed().as_secs_f64());
        black_box(&want);
    }
    (fast, slow)
}

#[test]
fn sorted_window_fill_beats_the_literal_filter_and_sort() {
    let ranges = [1u64 << 21, 3_000_017].map(|range| (range, best_seconds(range)));
    for (range, (fast, slow)) in ranges {
        println!(
            "key range {range}, ms a window, best of {PASSES}: {:.1} fill / {:.1} literal = {:.2}x",
            fast * 1e3,
            slow * 1e3,
            slow / fast
        );
    }
    #[cfg(not(debug_assertions))]
    for (range, (fast, slow)) in ranges {
        assert!(
            slow >= MIN_SPEEDUP * fast,
            "key range {range}: the window fill is only {:.2}x the literal loop, under {MIN_SPEEDUP}x",
            slow / fast
        );
    }
}
