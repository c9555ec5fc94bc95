//! The simulator twin of `Runtime::run_plan` shares the real run's
//! generators: each relation's generator is built once, writes the real
//! file, and serves a simulator extent (`Relation::twin`) on the run's twin
//! worker instead of being generated a second time. This holds that twin to
//! the one it replaced — every relation created afresh on a new
//! `StorageSim`, kept here as [`twin_created_afresh`] — for one plan of each
//! template: simulated seconds to the bit, every device's counters, and the
//! output rows. Sorted inputs run with a small generator cache, so the twin
//! rebuilds its windows while it reads.

use ocas_engine::{
    CpuModel, Executor, JoinPred, MergeKind, Mode, Output, Plan, RelSpec, Relation, RowBuf,
};
use ocas_hierarchy::{presets, Hierarchy};
use ocas_runtime::Runtime;
use ocas_storage::{DeviceStats, StorageSim};

/// What a twin reports: simulated seconds, per-device counters, output rows.
type Twin = (f64, Vec<(String, DeviceStats)>, RowBuf);

/// The twin as `run_plan` used to build it: every relation generated again,
/// seeded `seed + index`, on a fresh simulator.
fn twin_created_afresh(h: &Hierarchy, plan: &Plan, specs: &[RelSpec], seed: u64) -> Twin {
    let sim = StorageSim::from_hierarchy(h);
    let mut ex = Executor::new(sim, Mode::Faithful, CpuModel::default());
    for (spec, i) in specs.iter().zip(0..) {
        let rel = Relation::create(&mut ex.sm, spec, true, seed + i).unwrap();
        ex.add_relation(rel);
    }
    let stats = ex.run(plan).unwrap();
    let devices = h.ids().filter_map(|id| {
        let name = &h.node(id).name;
        ex.sm.device_stats(name).map(|s| (name.clone(), s))
    });
    let devices = devices.collect();
    (stats.seconds, devices, stats.output.unwrap_or_default())
}

fn to_hdd() -> Output {
    Output::ToDevice {
        device: "HDD".into(),
        buffer_bytes: 1 << 10,
    }
}

/// A sorted list whose generator holds 512 tuples at a time.
fn sorted_ints(name: &str, card: u64, key_range: u64) -> RelSpec {
    let spec = RelSpec::ints(name, "HDD", card).sorted();
    spec.with_key_range(key_range).with_cache_bytes(512 * 8)
}

#[test]
fn the_shared_twin_is_the_twin_created_afresh_for_every_template() {
    let h = presets::hdd_ram(1 << 20);
    let pairs = |name: &str, card| RelSpec::pairs(name, "HDD", card).with_key_range(60);
    let cases: Vec<(Plan, Vec<RelSpec>)> = vec![
        (
            Plan::BnlJoin {
                outer: 0,
                inner: 1,
                k1: 64,
                k2: 16,
                tiling: None,
                pred: JoinPred::KeyEq,
                order_inputs: false,
                output: to_hdd(),
            },
            vec![pairs("R", 300), pairs("S", 500)],
        ),
        (
            Plan::GraceJoin {
                left: 0,
                right: 1,
                partitions: 4,
                buffer_bytes: 1 << 11,
                spill: "HDD".into(),
                pred: JoinPred::KeyEq,
                output: to_hdd(),
            },
            vec![pairs("R", 400), pairs("S", 300)],
        ),
        (
            Plan::ExternalSort {
                input: 0,
                fan_in: 4,
                b_in: 64,
                b_out: 128,
                scratch: "HDD".into(),
                output: to_hdd(),
            },
            vec![RelSpec::ints("L", "HDD", 3_000)],
        ),
        (
            Plan::MergePass {
                left: 0,
                right: 1,
                kind: MergeKind::MultisetUnionSorted,
                b_in: 128,
                output: to_hdd(),
            },
            vec![sorted_ints("A", 3_000, 0), sorted_ints("B", 2_000, 0)],
        ),
        (
            Plan::ColumnZip {
                columns: vec![0, 1, 2],
                b_in: 100,
                output: Output::Discard,
            },
            (1..=3)
                .map(|i| RelSpec::ints(&format!("C{i}"), "HDD", 2_000))
                .collect(),
        ),
        (
            Plan::DedupSorted {
                input: 0,
                b_in: 256,
                output: to_hdd(),
            },
            vec![sorted_ints("L", 5_000, 700)],
        ),
        (
            Plan::Aggregate {
                input: 0,
                b_in: 512,
            },
            vec![RelSpec::ints("L", "HDD", 10_000)],
        ),
    ];
    let (rt, seed) = (Runtime::new(h.clone()), 17);
    for (plan, specs) in cases {
        let name = plan.name();
        let report = rt.run_plan(&plan, &specs, seed).unwrap();
        assert!(report.outputs_match(), "{name}");
        let (seconds, devices, output) = twin_created_afresh(&h, &plan, &specs, seed);
        assert_eq!(report.sim_seconds.to_bits(), seconds.to_bits(), "{name}");
        assert_eq!(report.sim_devices, devices, "{name}");
        assert_eq!(report.sim_output, output, "{name}");
        assert!(!output.is_empty(), "{name}: degenerate plan");
    }
}
