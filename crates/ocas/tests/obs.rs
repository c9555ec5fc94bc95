//! Observability integration: worker-count-invariant traces and the
//! simulated-clock attribution identity.

use ocas::experiments;
use ocas_obs::Clock;

/// The deterministic (simulated-clock) event sequence — ids, tracks,
/// names, timestamps, durations, args, fold counts — must be identical
/// for 1, 4 and 8 search workers. Workers only measure; recording happens
/// on the owning thread during the deterministic merge.
#[test]
fn trace_is_identical_across_search_worker_counts() {
    let mut views = Vec::new();
    for workers in [1usize, 4, 8] {
        ocas_obs::start();
        let r = experiments::set_union()
            .run_search(false, workers, Some(200))
            .expect("search succeeds");
        let trace = ocas_obs::finish().expect("recorder was active");
        assert!(r.stats.explored > 0);
        let view = trace.deterministic_view();
        assert!(
            view.iter().any(|l| l.contains("|search|level|")),
            "no search-level spans recorded"
        );
        assert!(
            view.iter().any(|l| l.contains("|candidates|")),
            "no per-rule candidate counters recorded"
        );
        views.push((workers, view));
    }
    let (_, base) = &views[0];
    for (workers, view) in &views[1..] {
        assert_eq!(base, view, "trace diverged at {workers} workers");
    }
}

/// Summing the per-device (`dev:*`) and CPU simulated-clock spans of a
/// full synthesize + execute recording reconstructs the simulator's
/// reported seconds within 1% — the acceptance identity. Holds because
/// `StorageSim` advances its clock only in read/write/charge_cpu, each of
/// which emits a span of exactly the advance.
#[test]
fn sim_span_attribution_reconstructs_simulator_seconds() {
    let e = experiments::set_union();
    ocas_obs::start();
    let synth = e.synthesize().expect("synthesis succeeds");
    let seconds = e.execute(&synth).expect("execution succeeds");
    let trace = ocas_obs::finish().expect("recorder was active");
    assert!(seconds > 0.0, "workload must consume simulated time");

    let by_track = trace.span_seconds_by_track(Clock::Sim);
    let attributed: f64 = by_track
        .iter()
        .filter(|(t, _)| t.starts_with("dev:") || t.as_str() == "cpu")
        .map(|(_, s)| s)
        .sum();
    let rel = (attributed - seconds).abs() / seconds;
    assert!(
        rel < 0.01,
        "attributed {attributed:.6}s vs simulator {seconds:.6}s (relative error {rel:.4})"
    );
    assert!(
        by_track.keys().any(|t| t.starts_with("dev:")),
        "no per-device tracks recorded"
    );

    // The same recording must export a non-trivial Chrome trace document.
    let chrome = trace.to_chrome_json();
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"ph\":\"X\""));
}

/// Table 1 row 1 at paper scale: the winner reads its 2^26-tuple inner
/// relation one tuple at a time, four times over, and the executor issues
/// each of those passes as one run request — so the recording is a handful
/// of spans, not 2.7e8 occurrences, and they still add up to the
/// simulator's seconds.
#[test]
fn paper_scale_bnl_records_one_span_per_run_and_keeps_the_identity() {
    let e = experiments::bnl_no_writeout();
    let synth = e.synthesize().expect("synthesis succeeds");
    ocas_obs::start();
    let seconds = e.execute(&synth).expect("execution succeeds");
    let trace = ocas_obs::finish().expect("recorder was active");

    let sim_events: u64 = trace
        .events
        .iter()
        .filter(|ev| ev.clock == Clock::Sim)
        .map(|ev| 1 + ev.merged)
        .sum();
    assert!(sim_events < 100, "{sim_events} simulated-clock occurrences");

    let runs: Vec<_> = trace
        .events
        .iter()
        .filter(|ev| trace.track(ev) == "dev:HDD" && ev.name == "read_run")
        .collect();
    assert!(!runs.is_empty(), "no run span recorded");
    for run in &runs {
        let arg = |name: &str| run.args.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        assert_eq!(arg("requests"), Some((1u64 << 26) as f64));
        assert_eq!(arg("bytes"), Some((1u64 << 30) as f64));
        assert!(arg("seeks").is_some());
    }

    let attributed: f64 = trace
        .span_seconds_by_track(Clock::Sim)
        .iter()
        .filter(|(t, _)| t.starts_with("dev:") || t.as_str() == "cpu")
        .map(|(_, s)| s)
        .sum();
    let rel = (attributed - seconds).abs() / seconds;
    assert!(
        rel < 0.01,
        "attributed {attributed:.6}s vs simulator {seconds:.6}s (relative error {rel:.4})"
    );
}

/// Table 1 row 4 at paper scale: the winner writes 2^32 rows through a
/// 20 KiB output buffer onto the disk it reads from, and its sink issues
/// the buffers each inner block fills as one write run — one `write_run`
/// span, whose `requests`, `bytes` and `seeks` say what the run stood for.
/// Every buffer is on the `dev:HDD` track, as a run or (where the cursor
/// wraps at the end of the output extent) as single writes, and the `dev:*`
/// and `cpu` spans still add up to the simulator's seconds.
#[test]
fn paper_scale_write_out_records_one_span_per_run_and_keeps_the_identity() {
    let e = experiments::bnl_writeout_same_hdd();
    let synth = e.synthesize().expect("synthesis succeeds");
    ocas_obs::start();
    let seconds = e.execute(&synth).expect("execution succeeds");
    let trace = ocas_obs::finish().expect("recorder was active");

    let (mut runs, mut singles, mut written) = (0u64, 0u64, 0.0);
    for ev in &trace.events {
        if trace.track(ev) != "dev:HDD" || !ev.name.starts_with("write") {
            continue;
        }
        let arg = |name: &str| ev.args.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        assert!(arg("seeks").is_some(), "{}", ev.name);
        // A folded event's args are the sums over its occurrences.
        written += arg("bytes").expect("bytes");
        match arg("requests") {
            Some(requests) => {
                assert_eq!(ev.name, "write_run");
                assert_eq!(arg("bytes"), Some(requests * 20480.0));
                runs += 1 + ev.merged;
            }
            None => singles += 1 + ev.merged,
        }
    }
    assert!(runs > 0, "no write run recorded");
    assert!(
        singles < runs,
        "{singles} single writes against {runs} runs"
    );
    assert_eq!(
        written,
        (32u64 << 32) as f64,
        "every output byte on `dev:HDD`"
    );

    let attributed: f64 = trace
        .span_seconds_by_track(Clock::Sim)
        .iter()
        .filter(|(t, _)| t.starts_with("dev:") || t.as_str() == "cpu")
        .map(|(_, s)| s)
        .sum();
    let rel = (attributed - seconds).abs() / seconds;
    assert!(
        rel < 0.01,
        "attributed {attributed:.6}s vs simulator {seconds:.6}s (relative error {rel:.4})"
    );
}

/// The engine operator span carries the executed plan's name and its
/// row/byte attribution args.
#[test]
fn engine_operator_span_carries_attribution_args() {
    let e = experiments::set_union();
    let synth = e.synthesize().expect("synthesis succeeds");
    ocas_obs::start();
    e.execute(&synth).expect("execution succeeds");
    let trace = ocas_obs::finish().expect("recorder was active");
    let op = trace
        .events
        .iter()
        .find(|ev| trace.track(ev) == "engine")
        .expect("an engine operator span");
    for arg in ["output_rows", "compares", "peak_resident_bytes"] {
        assert!(
            op.args.iter().any(|(n, _)| *n == arg),
            "engine span missing `{arg}`"
        );
    }
}

/// Each cost job's span on its `cost-w{n}` track says how hard the
/// candidate was to tune — `evals` (the ladder's objective evaluations)
/// and `params` next to `index` — one span per explored program whatever
/// the worker count, recorded at the index-sorted merge.
#[test]
fn cost_job_spans_say_how_hard_the_candidate_was_to_tune() {
    let e = experiments::set_union();
    let mut per_workers = Vec::new();
    for cost_workers in [1usize, 3] {
        let synthesizer = ocas::Synthesizer::new(e.hierarchy.clone(), e.layout.clone())
            .with_depth(e.depth)
            .with_max_programs(e.max_programs)
            .without_rules(&e.exclude_rules)
            .with_workers(1, cost_workers);
        ocas_obs::start();
        let synth = synthesizer.synthesize(&e.spec).expect("synthesis succeeds");
        let trace = ocas_obs::finish().expect("recorder was active");
        let jobs: Vec<[f64; 3]> = trace
            .events
            .iter()
            .filter(|ev| trace.track(ev).starts_with("cost-w") && ev.name == "cost")
            .map(|ev| {
                let arg = |name: &str| {
                    let found = ev.args.iter().find(|(n, _)| *n == name);
                    found
                        .unwrap_or_else(|| panic!("cost span missing `{name}`"))
                        .1
                };
                [arg("index"), arg("evals"), arg("params")]
            })
            .collect();
        assert_eq!(jobs.len(), synth.stats.explored);
        assert!(jobs.windows(2).all(|w| w[0][0] < w[1][0]), "index order");
        assert!(jobs.iter().any(|j| j[1] > 1.0 && j[2] >= 1.0), "{jobs:?}");
        per_workers.push(jobs);
    }
    assert_eq!(per_workers[0], per_workers[1], "args depend on the workers");
}
