//! `Runtime::run_plan` runs its simulator twin on the calling thread's
//! worker while the calling thread runs the plan on files. These tests hold
//! that arrangement to the sequential one it replaced: two threads calling
//! `run_plan` at once each get the report a lone call gives, a plan the real
//! run rejects is that run's typed error, and a traced call records the
//! twin's events after the real run's, as if the twin had run inline
//! afterwards.

use ocas_engine::{
    CpuModel, ExecError, Executor, JoinPred, Mode, Output, Plan, RelSpec, Relation, RowGen,
};
use ocas_hierarchy::{presets, Hierarchy};
use ocas_runtime::{FileBackend, PoolConfig, RealReport, Runtime, RuntimeError};
use ocas_storage::StorageSim;
use std::sync::{Arc, Barrier};

fn hierarchy() -> Hierarchy {
    presets::two_hdd_ram(1 << 20)
}

fn to_hdd2() -> Output {
    Output::ToDevice {
        device: "HDD2".into(),
        buffer_bytes: 1 << 10,
    }
}

fn sort(fan_in: u64) -> (Plan, Vec<RelSpec>) {
    let plan = Plan::ExternalSort {
        input: 0,
        fan_in,
        b_in: 64,
        b_out: 128,
        scratch: "HDD2".into(),
        output: to_hdd2(),
    };
    (plan, vec![RelSpec::ints("L", "HDD", 6_000)])
}

fn grace() -> (Plan, Vec<RelSpec>) {
    let pairs = |name: &str, card| RelSpec::pairs(name, "HDD", card).with_key_range(90);
    let plan = Plan::GraceJoin {
        left: 0,
        right: 1,
        partitions: 4,
        buffer_bytes: 1 << 11,
        spill: "HDD2".into(),
        pred: JoinPred::KeyEq,
        output: to_hdd2(),
    };
    (plan, vec![pairs("R", 900), pairs("S", 700)])
}

fn dedup() -> (Plan, Vec<RelSpec>) {
    let spec = RelSpec::ints("L", "HDD", 8_000).sorted();
    let plan = Plan::DedupSorted {
        input: 0,
        b_in: 256,
        output: to_hdd2(),
    };
    (
        plan,
        vec![spec.with_key_range(900).with_cache_bytes(512 * 8)],
    )
}

/// A tuple-at-a-time join: over 4,096 simulated reads of one pair, more
/// than the default event cap.
fn bnl_tuple_at_a_time() -> (Plan, Vec<RelSpec>) {
    let pairs = |name: &str| RelSpec::pairs(name, "HDD", 100).with_key_range(90);
    let plan = Plan::BnlJoin {
        outer: 0,
        inner: 1,
        k1: 1,
        k2: 1,
        tiling: None,
        pred: JoinPred::KeyEq,
        order_inputs: false,
        output: to_hdd2(),
    };
    (plan, vec![pairs("R"), pairs("S")])
}

/// The fields a twin and a real run compute deterministically.
fn assert_same_report(got: &RealReport, want: &RealReport, what: &str) {
    assert_eq!(
        got.sim_seconds.to_bits(),
        want.sim_seconds.to_bits(),
        "{what}"
    );
    assert_eq!(got.sim_devices, want.sim_devices, "{what}");
    assert_eq!(got.sim_output, want.sim_output, "{what}");
    assert_eq!(got.output, want.output, "{what}");
    assert!(got.outputs_match(), "{what}");
    assert!(!got.output.is_empty(), "{what}: degenerate plan");
}

#[test]
fn two_threads_running_plans_at_once_each_get_the_sequential_report() {
    let rt = Runtime::new(hierarchy());
    let cases = [("sort", sort(4)), ("grace", grace()), ("dedup", dedup())];
    let alone: Vec<RealReport> = cases
        .iter()
        .map(|(_, (plan, specs))| rt.run_plan(plan, specs, 5).unwrap())
        .collect();
    let start = Arc::new(Barrier::new(2));
    // Each thread runs every plan, the two in opposite orders, so every
    // pair of templates overlaps on the two threads' workers.
    let threads: Vec<_> = [false, true]
        .into_iter()
        .map(|reversed| {
            let (rt, cases, start) = (rt.clone(), cases.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                let mut order: Vec<usize> = (0..cases.len()).collect();
                if reversed {
                    order.reverse();
                }
                start.wait();
                let mut reports: Vec<_> = order
                    .into_iter()
                    .map(|i| (i, rt.run_plan(&cases[i].1 .0, &cases[i].1 .1, 5).unwrap()))
                    .collect();
                reports.sort_by_key(|(i, _)| *i);
                reports
            })
        })
        .collect();
    for thread in threads {
        for (i, report) in thread.join().unwrap() {
            assert_same_report(&report, &alone[i], cases[i].0);
        }
    }
}

#[test]
fn a_plan_the_real_run_rejects_is_the_real_runs_typed_error() {
    let h = hierarchy();
    let rt = Runtime::new(h.clone());
    let (plan, specs) = sort(1);
    let mut fb = FileBackend::from_hierarchy(&h, PoolConfig::default()).unwrap();
    let rels: Vec<Relation> = (specs.iter().zip(9..))
        .map(|(spec, seed)| Relation::create(&mut fb, spec, true, seed).unwrap())
        .collect();
    let (_, real) = Runtime::execute(fb, &rels, &plan);
    let want = real.expect_err("the real run rejects the plan");
    assert!(matches!(
        want,
        RuntimeError::Exec(ExecError::BadParameter(_))
    ));
    let got = rt.run_plan(&plan, &specs, 9).expect_err("run_plan too");
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    // The worker outlives a rejected plan: the thread's next call runs,
    // over 8-byte columns and over 4-byte ones alike.
    let (plan, mut specs) = sort(4);
    let report = rt.run_plan(&plan, &specs, 9).unwrap();
    assert!(report.outputs_match() && report.output.len() == 6_000);
    specs[0].col_bytes = 4;
    let report = rt.run_plan(&plan, &specs, 9).unwrap();
    assert!(report.outputs_match() && report.output.len() == 6_000);
}

/// One event as a string: every field but the wall clock's instants and
/// durations, which no two runs share.
fn event_key(trace: &ocas_obs::Trace, e: &ocas_obs::Event) -> String {
    let (start, dur, args) = match e.clock {
        ocas_obs::Clock::Sim => (e.start, e.dur, format!("{:?}", e.args)),
        ocas_obs::Clock::Wall => (0.0, 0.0, String::new()),
    };
    format!(
        "{}|{:?}|{:?}|{}|{}|{start:?}|{dur:?}|{args}|{}",
        e.id,
        e.kind,
        e.clock,
        trace.track(e),
        e.name,
        e.merged
    )
}

/// A traced call, and the sequential call it replaced on this thread:
/// files, run, flush, harvest, then the twin. The worker records with the
/// caller's cap: an uncapped caller sees every one of the tuple-at-a-time
/// join's reads, and a cap of 2 folds the twin's events into the real
/// run's where their pairs meet.
#[test]
fn a_traced_call_records_the_twin_after_the_real_run_as_if_inline() {
    let h = hierarchy();
    let rt = Runtime::new(h.clone());
    for ((plan, specs), cap) in [grace(), bnl_tuple_at_a_time()]
        .into_iter()
        .flat_map(|case| [(case.clone(), 2), (case, u64::MAX)])
    {
        let what = format!("{} with cap {cap}", plan.name());
        ocas_obs::start_with_cap(cap);
        let report = rt.run_plan(&plan, &specs, 3).unwrap();
        let traced = ocas_obs::finish().unwrap();

        ocas_obs::start_with_cap(cap);
        let gens: Vec<Arc<RowGen>> = (specs.iter().zip(3..))
            .map(|(spec, seed)| Arc::new(RowGen::from_spec(spec, seed)))
            .collect();
        let mut fb = FileBackend::from_hierarchy(&h, PoolConfig::default()).unwrap();
        let rels: Vec<Relation> = (specs.iter().zip(&gens))
            .map(|(spec, gen)| Relation::generated(&mut fb, spec, Arc::clone(gen)).unwrap())
            .collect();
        let (mut fb, run) = Runtime::execute(fb, &rels, &plan);
        let run = run.unwrap();
        fb.flush().unwrap();
        let output = Runtime::harvest(&mut fb, run).unwrap();
        drop(fb);
        let sim = StorageSim::from_hierarchy(&h);
        let mut twin = Executor::new(sim, Mode::Faithful, CpuModel::default());
        for (spec, gen) in specs.iter().zip(gens) {
            let rel = Relation::twin(&mut twin.sm, spec, gen).unwrap();
            twin.add_relation(rel);
        }
        let sim_stats = twin.run(&plan).unwrap();
        let inline = ocas_obs::finish().unwrap();

        assert_eq!(report.output, output, "{what}");
        let sim_bits = sim_stats.seconds.to_bits();
        assert_eq!(report.sim_seconds.to_bits(), sim_bits, "{what}");
        assert_eq!(traced.tracks, inline.tracks, "{what}");
        let keys = |t: &ocas_obs::Trace| -> Vec<String> {
            t.events.iter().map(|e| event_key(t, e)).collect()
        };
        assert_eq!(keys(&traced), keys(&inline), "{what}");
        assert_eq!(traced.metrics().events, inline.metrics().events, "{what}");
        assert!(traced
            .events
            .iter()
            .any(|e| e.clock == ocas_obs::Clock::Sim));
    }
}
