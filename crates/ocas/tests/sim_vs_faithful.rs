//! Table 1's "act" against the algorithm that runs: every row's winner,
//! synthesized at paper scale, runs in `Mode::Simulated` (what Table 1
//! reports: the faithful schedule with the data elided for BNL, column zip,
//! dedup and aggregate, a per-template emulation for merge, sort and GRACE)
//! and in `Mode::Faithful` (the algorithm a real run executes) on a fresh
//! `StorageSim` with `CpuModel::default()`, over
//! the row's relations with `card` and `key_range` divided by 1024 (seeds
//! 7, 8, … per relation).
//!
//! This is a ratchet, not a statement of the target. [`TODAY`] holds what
//! the two arms do today: where their per-device counters are equal the
//! test requires them equal, and for every row it requires today's
//! faithful/simulated seconds to ±2%. The target for every row is equal
//! `DeviceStats` and a ratio of 1.00 (ROADMAP direction 1: one arm per
//! template); a change that moves a row towards it updates the row here,
//! and one that moves a row away fails. `-- --nocapture` prints the table.

use ocas::experiments::{self, Experiment};
use ocas_engine::{lower, CpuModel, ExecError, Executor, Mode, Plan, RelSpec, Relation};
use ocas_storage::{DeviceStats, StorageSim};
use std::collections::BTreeMap;

/// The divisor of every relation's `card` and `key_range`.
const SCALE: u64 = 1024;

/// How far a row's faithful/simulated ratio may move from today's.
const RATIO_TOLERANCE: f64 = 0.02;

/// What the two arms of a row do today.
#[derive(Debug, Clone, Copy)]
enum Today {
    /// Equal `DeviceStats` on every device; the seconds differ by the CPU
    /// charge alone, at this faithful/simulated ratio.
    Same(f64),
    /// Different requests, at this faithful/simulated ratio.
    Differs(f64),
    /// The faithful arm refuses the plan with this `BadParameter`.
    Refused(&'static str),
}

/// Today's table, in `experiments::table1()` order. Target for every row:
/// `Same(1.00)`.
const TODAY: [(&str, Today); 16] = [
    ("BNL - No writeout", Today::Same(1.000)),
    ("BNL with cache - No writeout", Today::Same(1.000)),
    // Seeks 1,203 against 276, 3.70 MB read against 2.17: the simulated
    // arm models 8 output rows, the faithful run emits 1,984.
    ("(GRACE) hash join - No writeout", Today::Differs(4.269)),
    // Act/opt 0.136: the estimator's error, not the emulation's.
    ("BNL writing to HDD", Today::Same(1.000)),
    ("BNL wr. to other HDD", Today::Same(1.000)),
    ("BNL writing to flash", Today::Same(1.000)),
    // The row's 1-byte columns; with 8-byte columns the ping-pong
    // emulation reads 109 MB against the faithful sort's 16.8.
    (
        "External sorting",
        Today::Refused("external sort needs 8-byte columns"),
    ),
    // The simulated arm writes every input row, the faithful one the
    // distinct ones.
    ("Set Union", Today::Differs(0.940)),
    ("Multiset Union (sorted list)", Today::Differs(1.317)),
    ("Multiset Union (value-multiplicity)", Today::Differs(1.075)),
    ("Multiset Diff. (sorted list)", Today::Differs(0.959)),
    ("Multiset Diff. (value-multiplicity)", Today::Differs(1.101)),
    ("Column Store Read 5 cols.", Today::Same(1.000)),
    ("Column Store Read 10 cols.", Today::Same(1.000)),
    // Same reads and seeks; the faithful run writes the distinct keys its
    // data holds (7,258,112 B), the oracle their expected count (7,254,016).
    (
        "Duplicate Removal from a Sorted List",
        Today::Differs(1.000),
    ),
    ("Aggregation", Today::Same(1.000)),
];

type Run = Result<(f64, Vec<(String, DeviceStats)>), ExecError>;

/// `plan` over `specs` on a fresh simulator of the row's hierarchy.
fn run(e: &Experiment, plan: &Plan, specs: &[RelSpec], mode: Mode) -> Run {
    let sm = StorageSim::from_hierarchy(&e.hierarchy);
    let mut ex = Executor::new(sm, mode, CpuModel::default()).with_output_collection(false);
    for (spec, seed) in specs.iter().zip(7..) {
        let rel = Relation::create(&mut ex.sm, spec, mode == Mode::Faithful, seed)?;
        ex.add_relation(rel);
    }
    let stats = ex.run(plan)?;
    let h = &e.hierarchy;
    let devices = h.ids().filter_map(|id| {
        let name = &h.node(id).name;
        ex.sm.device_stats(name).map(|s| (name.clone(), s))
    });
    Ok((stats.seconds, devices.collect()))
}

/// The row's paper-scale winner, lowered over its relations at 1/`SCALE`.
fn scaled_winner(e: &Experiment) -> (Plan, Vec<RelSpec>) {
    let synth = e
        .synthesize()
        .unwrap_or_else(|err| panic!("{}: {err}", e.name));
    let specs: Vec<RelSpec> = e
        .rel_specs
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.card /= SCALE;
            s.key_range /= SCALE;
            s
        })
        .collect();
    let relations: BTreeMap<String, usize> = (specs.iter().zip(0..))
        .map(|(s, i)| (s.name.clone(), i))
        .collect();
    // The engine defaults `Experiment::execute` gives parameters the
    // optimizer did not see.
    let mut params = synth.best.params.clone();
    params.entry("b_out".to_string()).or_insert(1 << 20);
    params.entry("b_in".to_string()).or_insert(1 << 20);
    let cx = ocas_engine::lower::LowerCtx {
        params,
        relations,
        output: e.output.clone(),
        scratch: e.scratch.clone(),
    };
    let plan = lower(&synth.best.program, e.spec.hint, &cx).unwrap();
    (plan, specs)
}

#[test]
fn every_table1_winner_runs_both_arms_as_it_does_today() {
    let rows = experiments::table1();
    assert_eq!(rows.len(), TODAY.len());
    for (e, (name, today)) in rows.iter().zip(TODAY) {
        assert_eq!(e.name, name);
        let (plan, specs) = scaled_winner(e);
        let (sim_s, sim_devices) = run(e, &plan, &specs, Mode::Simulated)
            .unwrap_or_else(|err| panic!("{name}: simulated arm: {err}"));
        let faithful = run(e, &plan, &specs, Mode::Faithful);
        let (want, fa_s) = match (today, faithful) {
            (Today::Refused(why), Err(err)) => {
                println!("{name:40} faithful refused: {err}");
                assert!(
                    matches!(err, ExecError::BadParameter(w) if w == why),
                    "{name}: {err}"
                );
                continue;
            }
            (Today::Refused(_), Ok(_)) => panic!("{name}: the faithful arm no longer refuses"),
            (_, Err(err)) => panic!("{name}: faithful arm: {err}"),
            (Today::Same(want), Ok((fa_s, fa_devices))) => {
                assert_eq!(fa_devices, sim_devices, "{name}: device counters");
                (want, fa_s)
            }
            (Today::Differs(want), Ok((fa_s, fa_devices))) => {
                assert_ne!(
                    fa_devices, sim_devices,
                    "{name}: the arms' device counters now agree: make the row `Same`"
                );
                (want, fa_s)
            }
        };
        let ratio = fa_s / sim_s;
        println!("{name:40} faithful {fa_s:.6e} s, simulated {sim_s:.6e} s, ratio {ratio:.4}");
        assert!(
            (ratio / want - 1.0).abs() <= RATIO_TOLERANCE,
            "{name}: faithful/simulated {ratio:.4}, today {want}"
        );
    }
}
