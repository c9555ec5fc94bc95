//! Run formation's throughput: the width-1 sort-and-encode kernel
//! (`RowBuf::sort_encode`) against the literal `sort_unstable` and
//! `encode_cols` it replaced (`RowBuf::sort`, then `RowBuf::encode_into`),
//! in the same test — a ratio, so the runner's speed cancels (the pattern
//! of `window_throughput.rs` and `merge_throughput.rs`).
//!
//! The runs are `real-spill`'s: 786,432 keys (`fan_in * b_in + b_out` of
//! its sort), 8-byte columns, drawn uniformly from the 2^22 values of its
//! relation's key range. Each side sorts and encodes the same unsorted
//! batch, refilled outside the timer, into a byte buffer reused from run
//! to run as the executor's is; best of three passes, the two sides taking
//! turns. Both must give the same keys and bytes, and the kernel must be at
//! least [`MIN_SPEEDUP`] times faster.
//!
//! The ratio is only asserted in optimised builds; a debug build runs both
//! sides once, over a sixteenth of the keys, and checks the output alone.

use ocas_engine::RowBuf;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Passes per side.
const PASSES: usize = if cfg!(debug_assertions) { 1 } else { 3 };
/// Keys a run holds.
const RUN: usize = if cfg!(debug_assertions) {
    786_432 / 16
} else {
    786_432
};
/// The relation's key range: `real-spill` sorts 2^22 keys drawn from as
/// many values.
const RANGE: i64 = 1 << 22;
const COL_BYTES: usize = 8;
/// Measured 1.32-1.51x on a 2-vCPU x86-64 host (13-23 against 20-32 ns a
/// key, the host's load moving both sides); the bound sits 0.17 below the
/// lowest of those, and 0.09 above the 1.06x the literal loop measured
/// against itself.
#[cfg(not(debug_assertions))]
const MIN_SPEEDUP: f64 = 1.15;

/// The literal run formation: sort, then encode.
fn literal(rows: &mut RowBuf, out: &mut Vec<u8>) {
    rows.sort();
    out.clear();
    rows.encode_into(COL_BYTES, out);
}

fn kernel(rows: &mut RowBuf, out: &mut Vec<u8>) {
    rows.sort_encode(COL_BYTES, out);
}

/// Seconds `form` takes over `keys`, refilled into `rows` first.
fn timed(
    form: fn(&mut RowBuf, &mut Vec<u8>),
    keys: &[i64],
    rows: &mut RowBuf,
    out: &mut Vec<u8>,
) -> f64 {
    rows.clear();
    rows.extend_raw(keys);
    let start = Instant::now();
    form(black_box(rows), out);
    black_box(&*out);
    start.elapsed().as_secs_f64()
}

#[test]
fn run_formation_kernel_beats_sort_then_encode() {
    let mut rng = StdRng::seed_from_u64(11);
    let keys: Vec<i64> = (0..RUN).map(|_| rng.gen_range(0..RANGE)).collect();
    let (mut rows, mut want_rows) = (RowBuf::new(1), RowBuf::new(1));
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let (mut best_kernel, mut best_literal) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PASSES {
        best_literal = best_literal.min(timed(literal, &keys, &mut want_rows, &mut want));
        best_kernel = best_kernel.min(timed(kernel, &keys, &mut rows, &mut got));
    }
    assert!(
        rows.as_slice() == want_rows.as_slice(),
        "the sorted keys differ"
    );
    assert!(got == want, "the run's bytes differ");

    let per_key = |s: f64| s * 1e9 / RUN as f64;
    let speedup = best_literal / best_kernel;
    println!(
        "run formation, {RUN} keys: kernel {:.1} ns/key, sort + encode {:.1} ns/key, {speedup:.2}x",
        per_key(best_kernel),
        per_key(best_literal),
    );
    #[cfg(not(debug_assertions))]
    assert!(
        speedup >= MIN_SPEEDUP,
        "the kernel is only {speedup:.2}x the literal sort and encode (need {MIN_SPEEDUP}x)"
    );
}
