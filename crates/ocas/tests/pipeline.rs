//! End-to-end pipeline tests: synthesize → lower → execute on the
//! simulated hierarchy, for a representative subset of Table 1 (the full
//! table is regenerated by `cargo run -p ocas-bench --bin table1`).

use ocas::experiments;
use ocas::verify;

#[test]
fn aggregation_row_end_to_end() {
    let row = experiments::aggregation().run().expect("aggregation row");
    assert!(
        row.spec_seconds > 50.0 * row.opt_seconds,
        "naive aggregation must be orders of magnitude worse: spec={} opt={}",
        row.spec_seconds,
        row.opt_seconds
    );
    // 4 GiB at 30 MiB/s is ~137 s of pure transfer; estimate and simulated
    // measurement must both be in that regime, with the measurement at or
    // above the estimate (the engine charges CPU, the estimator does not).
    assert!(
        (100.0..400.0).contains(&row.opt_seconds),
        "estimate {} out of range",
        row.opt_seconds
    );
    assert!(
        (100.0..500.0).contains(&row.act_seconds),
        "measured {} out of range",
        row.act_seconds
    );
    assert!(
        row.act_seconds >= 0.8 * row.opt_seconds,
        "measured {} should not be far below the estimate {}",
        row.act_seconds,
        row.opt_seconds
    );
    assert!(row.search_space >= 2);
}

#[test]
fn set_union_row_end_to_end() {
    let row = experiments::set_union().run().expect("set union row");
    assert!(
        row.spec_seconds > 10.0 * row.opt_seconds,
        "spec={} opt={}",
        row.spec_seconds,
        row.opt_seconds
    );
    // With a 48 KiB budget the two alternating input streams seek per
    // block, so both numbers are seek-dominated; what matters is that the
    // estimate tracks the simulated measurement.
    let ratio = row.opt_seconds / row.act_seconds;
    assert!(
        (0.25..4.0).contains(&ratio),
        "estimate {} vs measured {} diverge",
        row.opt_seconds,
        row.act_seconds
    );
}

#[test]
fn bnl_join_synthesis_finds_textbook_shape_small_scale() {
    // A scaled-down version of row 1 so the search runs in seconds.
    let mut e = experiments::bnl_no_writeout();
    e.spec = ocas::specs::join(1 << 16, 1 << 12, false);
    e.depth = 5;
    e.max_programs = 400;
    let synth = e.synthesize().expect("synthesis");
    assert!(
        verify::is_block_nested_loops(&synth.best.program),
        "winner is not a BNL: {}",
        ocal::pretty(&synth.best.program)
    );
    assert!(
        synth.best.seconds < synth.spec.seconds / 100.0,
        "BNL must dominate the naive join: {} vs {}",
        synth.best.seconds,
        synth.spec.seconds
    );
}

/// The synthesizer merges its cost workers' results by program index, so
/// on every Table 1 row the winner, its tuned parameters and every count
/// are the same whether one thread or three cost the candidates. Rows are
/// searched at their real depth and rule exclusions but with a lowered
/// program cap so the debug-mode suite stays fast.
#[test]
fn synthesis_is_independent_of_the_worker_counts() {
    for e in experiments::table1() {
        let run = |workers: usize| {
            ocas::Synthesizer::new(e.hierarchy.clone(), e.layout.clone())
                .with_depth(e.depth)
                .with_max_programs(e.max_programs.min(250))
                .without_rules(&e.exclude_rules)
                .with_workers(workers)
                .synthesize(&e.spec)
                .unwrap_or_else(|err| panic!("`{}` with {workers} workers: {err}", e.name))
        };
        let (one, three) = (run(1), run(3));
        assert_eq!(one.best.program, three.best.program, "`{}`", e.name);
        assert_eq!(one.best.params, three.best.params, "`{}`", e.name);
        assert_eq!(
            one.best.seconds.to_bits(),
            three.best.seconds.to_bits(),
            "`{}`",
            e.name
        );
        assert_eq!(
            one.spec.seconds.to_bits(),
            three.spec.seconds.to_bits(),
            "`{}`",
            e.name
        );
        assert_eq!(
            (one.costed, one.uncosted),
            (three.costed, three.uncosted),
            "`{}`",
            e.name
        );
        assert_eq!(
            one.stats.deterministic(),
            three.stats.deterministic(),
            "`{}`",
            e.name
        );
    }
}

/// Regression for the Table 1 GRACE row: with partition-spill seeks
/// charged on both sides (the estimator's per-bucket-flush InitCom events
/// and the engine's per-flush extent writes), the simulated "actual"
/// seconds must track the estimate within a small constant factor. Before
/// the reconciliation the engine overshot the estimate ~75x — the
/// estimator assumed b_out-sized streaming flushes while the engine
/// seeked per `b_in/s`-byte bucket flush, and the untaxed estimate let
/// the optimizer pick an absurd partition count (s = 909).
#[test]
fn grace_row_estimate_tracks_simulated_measurement() {
    let row = experiments::grace_hash_join().run().expect("grace row");
    assert!(
        verify::is_grace_hash_join(&ocal::parse(&row.best_program).expect("winner parses back")),
        "winner is not a GRACE join: {}",
        row.best_program
    );
    let ratio = row.act_seconds / row.opt_seconds;
    assert!(
        (0.5..2.0).contains(&ratio),
        "GRACE act {} must track opt {} (ratio {ratio}); the partition-spill \
         request pattern and the estimator's event counts have diverged",
        row.act_seconds,
        row.opt_seconds
    );
    // The tuned partition count stays implementable: each co-bucket pair
    // must fit the 8 MiB RAM budget, which needs s >= |R| / RAM = 128.
    let s = row
        .params
        .iter()
        .find(|(k, _)| k.starts_with('s'))
        .map(|(_, v)| *v)
        .expect("a partition parameter");
    assert!((128..=2048).contains(&s), "absurd partition count {s}");
}
