//! Table 1's "act" against the algorithm that runs: every row's winner,
//! synthesized at paper scale, runs in `Mode::Simulated` (what Table 1
//! reports) and in `Mode::Faithful` (what a real run executes) on a fresh
//! `StorageSim` with `CpuModel::default()`, over the row's relations with
//! `card` and `key_range` divided by 1024 (seeds 7, 8, … per relation).
//! The relations keep their column widths: row 7's 1-byte columns are read,
//! spilled and merged as one byte a value, so every row runs both arms.
//!
//! Every template is one loop in both modes: simulated mode issues the
//! faithful requests with the data elided, and an oracle stands in for
//! what the data decides — expected matches and distinct rows, the cursor
//! a merge refills next, the rows a GRACE bucket gets. So the arms can only
//! differ where the data departs from its oracle. [`TODAY`] says, for each
//! row, that they do not (equal `DeviceStats` on every device) or how they
//! do, with the reason written beside it; either way it pins the
//! faithful/simulated seconds to ±2%, and a row that differs must stay
//! inside [`BAND`]. `-- --nocapture` prints the table.

use ocas::experiments::{self, Experiment};
use ocas_engine::{lower, CpuModel, ExecError, Executor, Mode, Plan, RelSpec, Relation};
use ocas_storage::{DeviceStats, StorageSim};
use std::collections::BTreeMap;

/// The divisor of every relation's `card` and `key_range`.
const SCALE: u64 = 1024;

/// How far a row's faithful/simulated ratio may move from today's.
const RATIO_TOLERANCE: f64 = 0.02;

/// Where the faithful/simulated ratio of a row whose arms differ must lie:
/// the data against its oracle, not a second schedule.
const BAND: (f64, f64) = (0.9, 1.1);

/// What the two arms of a row do today.
#[derive(Debug, Clone, Copy)]
enum Today {
    /// Equal `DeviceStats` on every device; the seconds differ by the CPU
    /// charge alone, at this faithful/simulated ratio.
    Same(f64),
    /// Different requests, because the data is not its oracle, at this
    /// faithful/simulated ratio.
    Differs(f64),
}

/// Today's table, in `experiments::table1()` order.
const TODAY: [(&str, Today); 16] = [
    ("BNL - No writeout", Today::Same(1.000)),
    ("BNL with cache - No writeout", Today::Same(1.000)),
    // The data's buckets are uneven (256 left rows each on average): 75 of
    // 256 never fill a 248-row staging buffer, so the faithful run writes
    // 437 left flushes against the oracle's 512 (1,203 seeks against
    // 1,282), and its uneven buckets straddle more pages (3.70 MB read
    // against 3.18).
    ("(GRACE) hash join - No writeout", Today::Differs(0.940)),
    // Act/opt 0.136: the estimator's error, not the executor's.
    ("BNL writing to HDD", Today::Same(1.000)),
    ("BNL wr. to other HDD", Today::Same(1.000)),
    ("BNL writing to flash", Today::Same(1.000)),
    // 1-byte columns, spilled and merged as they are in the file.
    ("External sorting", Today::Same(1.000)),
    // Output writes only: the distinct keys the data holds (1,818,624 B)
    // against their expected count (1,814,528), and one seek.
    ("Set Union", Today::Differs(0.997)),
    ("Multiset Union (sorted list)", Today::Same(1.000)),
    // The data's refills drift apart from the oracle's evenly interleaved
    // ones, so output flushes fall between them (415 seeks against 383);
    // output writes differ by the matched values' count.
    ("Multiset Union (value-multiplicity)", Today::Differs(1.080)),
    // The data lets one input run a block ahead of the other, so some
    // refills follow one another without a seek (24 of 386), and the
    // device reads 5.67 MB of pages against 5.77.
    ("Multiset Diff. (sorted list)", Today::Differs(0.950)),
    // Output writes (1,605,632 B against 1,601,536) and one seek.
    ("Multiset Diff. (value-multiplicity)", Today::Differs(0.997)),
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
        if let Today::Differs(_) = today {
            assert!(
                (BAND.0..=BAND.1).contains(&ratio),
                "{name}: faithful/simulated {ratio:.4} is outside {BAND:?}"
            );
        }
        assert!(
            (ratio / want - 1.0).abs() <= RATIO_TOLERANCE,
            "{name}: faithful/simulated {ratio:.4}, today {want}"
        );
    }
}
