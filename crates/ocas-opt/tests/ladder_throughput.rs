//! The ladder on the compiled form against the ladder over the tree walk
//! it replaced, in the same test — a ratio, so the runner's speed cancels
//! (the pattern of `ocas-engine`'s `tile_throughput.rs`).
//!
//! The workload is the largest search space of Table 1: the 926 candidate
//! programs of BNL-with-cache, each tuned once per pass, best of
//! [`PASSES`] passes a side, the sides taking turns. A probe on the
//! compiled form writes a few slots and walks a flat node array; the
//! oracle clones the fixed-variable map, re-inserts every parameter under a
//! freshly allocated name and walks the tree with a map lookup per
//! variable, so the compiled ladder must be at least [`MIN_SPEEDUP`] times
//! faster (~4x here). Every pass also checks that both sides return the
//! same optima, `evals` included.
//!
//! The ratio is only asserted in optimised builds; a debug build runs both
//! sides once over a tenth of the problems.

mod common;

use common::{ladder_oracle, problems_of};
use ocas::experiments;
use ocas_opt::ladder_search;
use std::hint::black_box;
use std::time::Instant;

/// Passes per side.
const PASSES: usize = if cfg!(debug_assertions) { 1 } else { 5 };
/// Every how many-th problem is tuned.
const STRIDE: usize = if cfg!(debug_assertions) { 10 } else { 1 };
#[cfg(not(debug_assertions))]
const MIN_SPEEDUP: f64 = 2.5;

#[test]
fn the_compiled_ladder_beats_the_tree_walking_ladder() {
    let all = problems_of(&experiments::bnl_with_cache());
    assert_eq!(all.len(), 926, "BNL-with-cache's search space moved");
    let problems: Vec<_> = all.iter().step_by(STRIDE).collect();

    let (mut compiled, mut oracle) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PASSES {
        let t0 = Instant::now();
        let got: Vec<_> = problems
            .iter()
            .map(|p| ladder_search(black_box(p)))
            .collect();
        compiled = compiled.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let want: Vec<_> = problems
            .iter()
            .map(|p| ladder_oracle(black_box(p)))
            .collect();
        oracle = oracle.min(t0.elapsed().as_secs_f64());

        assert!(got == want, "the two ladders disagree");
        assert!(got.iter().all(|o| o.is_ok()), "an untunable candidate");
    }
    let us = |s: f64| s * 1e6 / problems.len() as f64;
    println!(
        "us/problem over {} problems, best of {PASSES}: {:.1} compiled / {:.1} tree walk = {:.1}x",
        problems.len(),
        us(compiled),
        us(oracle),
        oracle / compiled,
    );
    #[cfg(not(debug_assertions))]
    assert!(
        oracle >= MIN_SPEEDUP * compiled,
        "compiled ladder only {:.2}x the tree-walking ladder (need {MIN_SPEEDUP}x)",
        oracle / compiled
    );
}
