//! The tuner against its oracle on the problems that matter: every
//! candidate program of the 16 Table 1 rows (1,909 problems, built the way
//! the benchmark's `synthesis_stages` builds them). `ladder_search` must
//! return the `Optimum` the tree-walking tuner returns (`common/mod.rs`) —
//! `values`, `objective` by `to_bits()`, `feasible` and **`evals`**, so the
//! probes are the same probes in the same order — and `optimize` must on
//! the five cheapest of each row, the ones the synthesizer refines.
//!
//! Release builds check all 1,909 (~2 s); a debug build checks every
//! [`STRIDE`]-th problem of a row, since the oracle allocates a fresh
//! `Env` for each of its ~2,800 probes a problem.

mod common;

use common::{ladder_oracle, optimize_oracle, table1_problems};
use ocas_opt::{ladder_search, optimize, OptError, Optimum};

const STRIDE: usize = if cfg!(debug_assertions) { 12 } else { 1 };

fn assert_same(
    got: &Result<Optimum, OptError>,
    want: &Result<Optimum, OptError>,
    what: &str,
    row: &str,
    index: usize,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.values, w.values, "{what}, {row} #{index}: values");
            assert_eq!(
                g.objective.to_bits(),
                w.objective.to_bits(),
                "{what}, {row} #{index}: objective {} vs {}",
                g.objective,
                w.objective
            );
            assert_eq!(g.feasible, w.feasible, "{what}, {row} #{index}: feasible");
            assert_eq!(g.evals, w.evals, "{what}, {row} #{index}: evals");
        }
        (g, w) => assert_eq!(g, w, "{what}, {row} #{index}"),
    }
}

#[test]
fn the_tuner_returns_its_oracles_optimum_on_every_table1_problem() {
    let rows = table1_problems();
    assert_eq!(rows.len(), 16);
    let mut problems_seen = 0;
    let mut probes = 0;
    for (row, problems) in &rows {
        problems_seen += problems.len();
        let mut tuned: Vec<(f64, usize)> = Vec::new();
        for (i, p) in problems.iter().enumerate().step_by(STRIDE) {
            let got = ladder_search(p);
            assert_same(&got, &ladder_oracle(p), "ladder_search", row, i);
            if let Ok(o) = got {
                probes += o.evals;
                tuned.push((o.objective, i));
            }
        }
        tuned.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for &(_, i) in tuned.iter().take(5) {
            let p = &problems[i];
            assert_same(&optimize(p), &optimize_oracle(p), "optimize", row, i);
        }
    }
    assert_eq!(problems_seen, 1909, "Table 1's search spaces moved");
    assert!(probes > 0);
    println!(
        "{problems_seen} problems, stride {STRIDE}: {probes} ladder probes held to the oracle"
    );
}
