//! The streaming kernels' throughput against the per-row loops they
//! replaced, in the same test — a ratio, so the runner's speed cancels (the
//! pattern of `merge_throughput.rs`).
//!
//! The three cursor templates of the `real-stream` benchmark at its sizes and
//! block lengths, over files the simulator keeps (so both sides decode the
//! same bytes from the same run-free request stream): a sorted multiset
//! union of two 2^21-int lists, a zip of five 2^20-int columns and a
//! duplicate removal over a sorted 2^21-int list, each output consumed and
//! collected. The kernel side is `Executor<StorageSim>::run`; the literal
//! side is the loop the executor ran before, written out here over the same
//! public `BlockCursor`: refill what is due, look at the heads, keep the row,
//! advance, note the resident bytes — a row at a time. Best of five passes
//! each, taking turns; the three templates together must run at least
//! [`MIN_SPEEDUP`] times faster through the kernels.
//!
//! The ratio is only asserted in optimised builds; a debug build runs both
//! sides once, over a sixteenth of the rows, and checks that they produce
//! the same rows and peak.

use ocas_engine::{
    BlockCursor, CpuModel, ExecStats, Executor, MergeKind, Mode, Output, Plan, Relation, RowBuf,
};
use ocas_hierarchy::presets;
use ocas_storage::{StorageBackend, StorageSim};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Instant;

/// Passes per side.
const PASSES: usize = if cfg!(debug_assertions) { 1 } else { 5 };
/// Rows of the longest input.
const ROWS: u64 = if cfg!(debug_assertions) {
    1 << 17
} else {
    1 << 21
};
/// `real-stream`'s tuned block lengths: the union's and the duplicate
/// removal's, and the zip's.
const B_IN: u64 = 32_768;
const ZIP_B_IN: u64 = 26_102;
/// About two thirds of what a 2-vCPU x86-64 sandbox measures: 2.2-2.5x in
/// all (the union ~2.5x, the zip ~1.9x, the duplicate removal ~7x).
#[cfg(not(debug_assertions))]
const MIN_SPEEDUP: f64 = 1.5;

/// `n` ints below `range`, sorted or not.
fn ints(n: u64, range: u64, sorted: bool, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<i64> = (0..n).map(|_| rng.gen_range(0..range) as i64).collect();
    if sorted {
        v.sort_unstable();
    }
    v
}

/// A faithful executor over one kept file per input, attached as unary
/// relations in order.
fn executor(inputs: &[Vec<i64>]) -> Executor<StorageSim> {
    let h = presets::hdd_ram(1 << 25);
    let mut ex = Executor::new(
        StorageSim::from_hierarchy(&h),
        Mode::Faithful,
        CpuModel::disabled(),
    );
    for rows in inputs {
        let bytes = RowBuf::from_vec(rows.clone(), 1).encode();
        let file = ex.sm.alloc("HDD", bytes.len() as u64).unwrap();
        ex.sm
            .write(file, 0, bytes.len() as u64, 1, Some(&bytes))
            .unwrap();
        ex.add_relation(Relation::attach(file, rows.len() as u64, 1, 1));
    }
    ex
}

/// One template: its plan, its inputs and its literal loop, which returns
/// the rows it kept and the peak resident bytes it noted.
struct Template {
    name: &'static str,
    plan: Plan,
    inputs: Vec<Vec<i64>>,
    literal: fn(&mut Executor<StorageSim>, &Plan) -> (Vec<i64>, u64),
}

fn cursor(ex: &Executor<StorageSim>, rel: usize, b_in: u64) -> BlockCursor {
    BlockCursor::new(ex.rels[rel].clone(), b_in)
}

/// The sorted multiset union's loop.
fn union_literal(ex: &mut Executor<StorageSim>, plan: &Plan) -> (Vec<i64>, u64) {
    let Plan::MergePass { b_in, .. } = *plan else {
        unreachable!()
    };
    let (mut a, mut b) = (cursor(ex, 0, b_in), cursor(ex, 1, b_in));
    let mut kept = Vec::with_capacity((ex.rels[0].card + ex.rels[1].card) as usize);
    let mut peak = 0;
    loop {
        assert!(a.ensure(&mut ex.sm).unwrap() && b.ensure(&mut ex.sm).unwrap());
        peak = peak.max(a.resident_bytes() + b.resident_bytes() + kept.len() as u64 * 8);
        let (ha, hb) = (a.head(), b.head());
        let take_a = hb.map_or(true, |y| ha.is_some_and(|x| x <= y));
        let Some(row) = (if take_a { ha } else { hb }) else {
            return (kept, peak);
        };
        kept.extend_from_slice(row);
        if take_a {
            a.advance();
        } else {
            b.advance();
        }
    }
}

/// The column zip's loop.
fn zip_literal(ex: &mut Executor<StorageSim>, plan: &Plan) -> (Vec<i64>, u64) {
    let Plan::ColumnZip {
        ref columns, b_in, ..
    } = *plan
    else {
        unreachable!()
    };
    let mut cursors: Vec<BlockCursor> = columns.iter().map(|&c| cursor(ex, c, b_in)).collect();
    let card = ex.rels[0].card;
    let mut kept = Vec::with_capacity((card * columns.len() as u64) as usize);
    let mut zipped = Vec::new();
    let mut peak = 0;
    for _ in 0..card {
        zipped.clear();
        for c in &mut cursors {
            assert!(c.ensure(&mut ex.sm).unwrap());
            zipped.extend_from_slice(c.head().unwrap());
            c.advance();
        }
        kept.extend_from_slice(&zipped);
        let held: u64 = cursors.iter().map(BlockCursor::resident_bytes).sum();
        peak = peak.max(held + kept.len() as u64 * 8);
    }
    (kept, peak)
}

/// The duplicate removal's loop.
fn dedup_literal(ex: &mut Executor<StorageSim>, plan: &Plan) -> (Vec<i64>, u64) {
    let Plan::DedupSorted { b_in, .. } = *plan else {
        unreachable!()
    };
    let mut c = cursor(ex, 0, b_in);
    let mut kept = Vec::with_capacity(ex.rels[0].card as usize);
    let mut last: Vec<i64> = Vec::new();
    let mut peak = 0;
    loop {
        assert!(c.ensure(&mut ex.sm).unwrap());
        let Some(row) = c.head() else {
            return (kept, peak);
        };
        if last != row {
            kept.extend_from_slice(row);
            last.clear();
            last.extend_from_slice(row);
        }
        c.advance();
        peak = peak.max(c.resident_bytes() + kept.len() as u64 * 8);
    }
}

fn templates() -> Vec<Template> {
    let half = ROWS / 2;
    vec![
        Template {
            name: "merge pass",
            plan: Plan::MergePass {
                left: 0,
                right: 1,
                kind: MergeKind::MultisetUnionSorted,
                b_in: B_IN,
                output: Output::Discard,
            },
            inputs: vec![ints(ROWS, ROWS, true, 1), ints(ROWS, ROWS, true, 2)],
            literal: union_literal,
        },
        Template {
            name: "column zip",
            plan: Plan::ColumnZip {
                columns: (0..5).collect(),
                b_in: ZIP_B_IN,
                output: Output::Discard,
            },
            inputs: (0..5).map(|i| ints(half, half, false, 3 + i)).collect(),
            literal: zip_literal,
        },
        Template {
            name: "dedup",
            plan: Plan::DedupSorted {
                input: 0,
                b_in: B_IN,
                output: Output::Discard,
            },
            inputs: vec![ints(ROWS, half, true, 8)],
            literal: dedup_literal,
        },
    ]
}

/// Seconds of one kernel run and of one literal run of `t`, after checking
/// that they keep the same rows and note the same peak.
fn one_pass(t: &Template) -> (f64, f64) {
    let mut ex = executor(&t.inputs);
    let t0 = Instant::now();
    let stats: ExecStats = ex.run(&t.plan).unwrap();
    let kernel = t0.elapsed().as_secs_f64();

    let mut ex = executor(&t.inputs);
    let t0 = Instant::now();
    let (rows, peak) = (t.literal)(&mut ex, &t.plan);
    let literal = t0.elapsed().as_secs_f64();

    let out = stats.output.expect("collected");
    assert!(out.as_slice() == rows.as_slice(), "{}: rows differ", t.name);
    assert_eq!(stats.peak_resident_bytes, peak, "{}: peak", t.name);
    (kernel, literal)
}

#[test]
fn streaming_kernels_beat_the_per_row_loops_they_replaced() {
    let mut total = (0.0, 0.0);
    for t in templates() {
        let (mut kernel, mut literal) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..PASSES {
            let (k, l) = one_pass(&t);
            kernel = kernel.min(k);
            literal = literal.min(l);
        }
        println!(
            "{}, best of {PASSES}: {:.1} ms kernel / {:.1} ms literal = {:.2}x",
            t.name,
            kernel * 1e3,
            literal * 1e3,
            literal / kernel
        );
        total.0 += kernel;
        total.1 += literal;
    }
    let (kernel, literal) = total;
    println!(
        "all three: {:.1} ms / {:.1} ms = {:.2}x",
        kernel * 1e3,
        literal * 1e3,
        literal / kernel
    );
    #[cfg(not(debug_assertions))]
    assert!(
        literal >= MIN_SPEEDUP * kernel,
        "the streaming kernels are only {:.2}x the per-row loops, under {MIN_SPEEDUP}x",
        literal / kernel
    );
}
