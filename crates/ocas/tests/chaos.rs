//! The chaos suite: synthesized Table 1 programs under randomized (but
//! seeded, so replayable) fault plans, on both the real file backend and
//! the device simulator. Every run must respect the robustness
//! trichotomy — output bit-identical to a clean run, or a typed error —
//! and leave its backend clean: no panic, no leaked temp dir.
//! 4 workloads × 26 seeds × 2 backends = 208 faulted executions.
//!
//! Both backends run under the same injector (`Faulted`) and issue the
//! same requests, so a seed whose plan tears no page — the one fault whose
//! consequences only a backend holding page data can have — must end the
//! same way on both, with the same recovery counters.

use ocas::chaos::{self, ChaosOutcome, ChaosRun, ChaosWorkload};
use ocas_storage::FaultKind;
use std::sync::OnceLock;

/// Synthesis runs once; the four test functions share the workloads and
/// run in parallel.
fn workloads() -> &'static [ChaosWorkload] {
    static W: OnceLock<Vec<ChaosWorkload>> = OnceLock::new();
    W.get_or_init(|| chaos::table1_workloads().expect("synthesis + lowering + clean oracles"))
}

const SEEDS_PER_WORKLOAD: u64 = 26;

fn check(run: &ChaosRun) {
    assert_ne!(
        run.outcome,
        ChaosOutcome::WrongAnswer,
        "{}/{} seed {}: faulted run completed with a wrong answer",
        run.workload,
        run.backend,
        run.fault_seed
    );
    assert!(
        !run.leaked_dir,
        "{}/{} seed {}: temp dir leaked",
        run.workload, run.backend, run.fault_seed
    );
}

/// Runs `w` under `seed` on real files and on the simulator, checks both
/// runs, and requires them to agree unless the seed's plan tears a page.
fn run_both(w: &ChaosWorkload, seed: u64) -> [ChaosRun; 2] {
    let (file, sim) = (chaos::run_file(w, seed), chaos::run_sim(w, seed));
    check(&file);
    check(&sim);
    let plan = chaos::plan_for(w, seed);
    if !plan
        .specs
        .iter()
        .any(|s| s.kind == FaultKind::TornWriteBack)
    {
        assert_eq!(
            (&file.outcome, file.counters),
            (&sim.outcome, sim.counters),
            "{} seed {seed}: the file and simulator runs disagree under {plan:?}",
            w.name
        );
    }
    [file, sim]
}

/// Runs one workload through its full seed range on both backends and
/// asserts the trichotomy plus suite-level coverage: faults actually
/// fired, and at least one run absorbed its faults completely.
fn chaos_workload(name: &str, seed_base: u64) {
    let w = workloads()
        .iter()
        .find(|w| w.name == name)
        .expect("workload present");
    let runs: Vec<ChaosRun> = (0..SEEDS_PER_WORKLOAD)
        .flat_map(|i| run_both(w, seed_base + i))
        .collect();
    let s = chaos::summarize(&runs);
    assert!(s.clean());
    assert_eq!(s.runs, 2 * SEEDS_PER_WORKLOAD);
    assert!(
        s.counters.faults_injected > 0,
        "{name}: no fault ever fired — the suite tested nothing"
    );
    assert!(
        s.identical > 0,
        "{name}: no run ever matched the clean oracle"
    );
}

#[test]
fn chaos_synthesized_external_sort() {
    chaos_workload("sort", 1_000);
}

#[test]
fn chaos_synthesized_grace_join() {
    chaos_workload("grace", 2_000);
}

#[test]
fn chaos_synthesized_multiset_union() {
    chaos_workload("union", 3_000);
}

#[test]
fn chaos_synthesized_dedup() {
    chaos_workload("dedup", 4_000);
}

/// Across the whole suite, the error leg of the trichotomy is exercised
/// too: some seeds must surface typed errors (ENOSPC once a spill can
/// neither shrink nor fail over, exhausted retries, torn pages caught by
/// checksums) — and every one of them is a typed error string, never a
/// panic. Every spill degrades, the GRACE join's buckets included, so an
/// ENOSPC seldom ends a run; the seeds reach far enough for a torn
/// partition page (seed 5,010).
#[test]
fn chaos_suite_exercises_typed_errors() {
    let mut typed = 0u64;
    for w in workloads() {
        for seed in 0..12 {
            for run in run_both(w, 5_000 + seed) {
                if let ChaosOutcome::TypedError(e) = &run.outcome {
                    assert!(!e.is_empty());
                    typed += 1;
                }
            }
        }
    }
    assert!(typed > 0, "no fault seed ever produced a typed error");
}

/// A plan that names a relation its workload does not have is a typed
/// `BadRelation` error on both backends, for all four plan shapes — never
/// an index out of bounds.
#[test]
fn a_plan_over_a_missing_relation_is_a_typed_error() {
    for w in workloads() {
        let mut bad = w.clone();
        bad.rel_specs.clear();
        for run in run_both(&bad, 1) {
            let ChaosOutcome::TypedError(e) = &run.outcome else {
                panic!("{}/{}: {:?}", run.workload, run.backend, run.outcome);
            };
            assert!(e.contains("no relation with index 0"), "{e}");
        }
    }
}
