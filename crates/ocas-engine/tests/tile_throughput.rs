//! The faithful BNL join's throughput against the literal nested loop it
//! replaced, in the same test — a ratio, so the runner's speed cancels
//! (the pattern of `ocas-runtime`'s `pool_bandwidth.rs`).
//!
//! Two shapes, best of five passes each, the executor and the literal loop
//! taking turns: the shape the synthesizer tunes — a 4096-tuple outer block
//! with the inner relation streaming past it a tuple at a time, 20,000
//! tile joins of 4096 x 1 — where probing an index of the outer block once
//! per inner tuple must be at least [`MIN_SPEEDUP`] times faster than one
//! inner-loop set-up and compare per pair; and 512 x 512 tiles, where the
//! literal loop is at its best and the block hash join must not be slower.
//! The executor side is the whole public path (`Executor::run` over a
//! `StorageSim`: block reads, views, the outer block's index, its probes,
//! the sink), so the gate also notices per-block or per-pair work creeping
//! back into `run_bnl`. The literal side is the pair loop at its leanest,
//! over plain slices: the executor's differential oracle
//! (`literal/mod.rs`) also feeds a cache simulator and a sink, which would
//! flatter the ratio.
//!
//! The ratios are only asserted in optimised builds; a debug build runs
//! both sides once, over a tenth of the inner rows, and checks that they
//! emit the same rows in the same order.

use ocas_engine::{CpuModel, Executor, JoinPred, Mode, Output, Plan, RelSpec, Relation, RowBuf};
use ocas_hierarchy::presets;
use ocas_storage::StorageSim;
use std::hint::black_box;
use std::time::Instant;

/// Passes per side.
const PASSES: usize = if cfg!(debug_assertions) { 1 } else { 5 };
/// What the inner cardinalities are divided by.
const SHRINK: u64 = if cfg!(debug_assertions) { 10 } else { 1 };
/// Under half of what a 2-vCPU x86-64 host measures on 4096 x 1 tiles,
/// 49-52x.
#[cfg(not(debug_assertions))]
const MIN_SPEEDUP: f64 = 20.0;

/// The literal pair loop over whole relations: block pair by block pair,
/// row-major within one, one strided compare and one branch per pair.
fn literal_bnl(outer: &RowBuf, inner: &RowBuf, k1: usize, k2: usize) -> RowBuf {
    let (ow, iw) = (outer.width(), inner.width());
    let mut out = Vec::new();
    for oblock in outer.as_slice().chunks(k1 * ow) {
        for iblock in inner.as_slice().chunks(k2 * iw) {
            for x in oblock.chunks_exact(ow) {
                let x0 = x[0];
                for y in iblock.chunks_exact(iw) {
                    if x0 == y[0] {
                        out.extend_from_slice(x);
                        out.extend_from_slice(y);
                    }
                }
            }
        }
    }
    RowBuf::from_vec(out, ow + iw)
}

/// Best seconds of the executor and of the literal loop joining `ocard` x
/// `icard` pairs in blocks of `k1` x `k2`, after checking that they emit
/// the same rows in the same order.
fn best_seconds(ocard: u64, icard: u64, k1: u64, k2: u64) -> (f64, f64) {
    let sm = StorageSim::from_hierarchy(&presets::hdd_ram(1 << 25));
    let mut ex = Executor::new(sm, Mode::Faithful, CpuModel::disabled());
    let mut add = |name: &str, card: u64, seed: u64| {
        let spec = RelSpec::pairs(name, "HDD", card).with_key_range(ocard);
        let rel = Relation::create(&mut ex.sm, &spec, true, seed).unwrap();
        let rows = rel.collect_rows().unwrap();
        (ex.add_relation(rel), rows)
    };
    let ((outer, orows), (inner, irows)) = (add("R", ocard, 1), add("S", icard, 2));
    let plan = Plan::BnlJoin {
        outer,
        inner,
        k1,
        k2,
        tiling: None,
        pred: JoinPred::KeyEq,
        order_inputs: false,
        output: Output::Discard,
    };
    let (mut kernel, mut literal) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PASSES {
        let t0 = Instant::now();
        let stats = ex.run(black_box(&plan)).unwrap();
        kernel = kernel.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let want = literal_bnl(
            black_box(&orows),
            black_box(&irows),
            k1 as usize,
            k2 as usize,
        );
        literal = literal.min(t0.elapsed().as_secs_f64());

        assert_eq!(stats.compares, ocard * icard);
        assert!(stats.output_rows > 0, "degenerate join");
        assert!(
            stats.output.as_ref() == Some(&want),
            "rows or their order differ"
        );
    }
    (kernel, literal)
}

#[test]
fn block_hash_join_beats_the_literal_pair_loop_where_it_has_to() {
    let (tuned_inner, square_inner) = (20_000 / SHRINK, 8192 / SHRINK);
    let (tuned_kernel, tuned_literal) = best_seconds(4096, tuned_inner, 4096, 1);
    let (square_kernel, square_literal) = best_seconds(2048, square_inner, 512, 512);
    let ns = |s: f64, pairs: u64| s * 1e9 / pairs as f64;
    println!(
        "ns/pair, best of {PASSES}: 4096 x 1 tiles {:.3} kernel / {:.3} literal = {:.1}x; \
         512 x 512 tiles {:.3} kernel / {:.3} literal = {:.1}x",
        ns(tuned_kernel, 4096 * tuned_inner),
        ns(tuned_literal, 4096 * tuned_inner),
        tuned_literal / tuned_kernel,
        ns(square_kernel, 2048 * square_inner),
        ns(square_literal, 2048 * square_inner),
        square_literal / square_kernel,
    );
    #[cfg(not(debug_assertions))]
    {
        assert!(
            tuned_literal >= MIN_SPEEDUP * tuned_kernel,
            "4096 x 1 tiles: the block hash join is only {:.1}x the literal pair loop, under {MIN_SPEEDUP}x",
            tuned_literal / tuned_kernel
        );
        assert!(
            square_literal >= square_kernel,
            "512 x 512 tiles: the block hash join is slower than the literal pair loop ({:.2}x)",
            square_literal / square_kernel
        );
    }
}
