//! The `BENCH_*.json` trajectory schema, checked two ways: a freshly
//! generated document (real-I/O section at smoke scale) must validate, and
//! the committed `BENCH_results.json` at the repo root must still parse
//! and validate (the file is a trajectory point — regenerate it with
//! `cargo run --release -p ocas-bench --bin bench_json`, don't hand-edit).
//! The regression checker (`bench_json --check`) is pinned here too.

use ocas_bench::json::Json;
use ocas_bench::report::{
    check_regressions, engine_throughput, faithful_scale_rows, real_workloads, schema,
    synthesis_stats, validate_bench_doc, BenchDoc, Gate, Kind, SCHEMA,
};

#[test]
fn fresh_real_document_validates() {
    let real = real_workloads(1, false).expect("real workloads");
    assert_eq!(real.len(), 2);
    for r in &real {
        assert!(
            r.report.outputs_match(),
            "{}: real and simulated outputs must agree",
            r.name
        );
        assert!(r.report.wall_seconds > 0.0);
        assert!(r.report.sim_seconds > 0.0);
    }
    let doc = BenchDoc {
        real: &real,
        ..Default::default()
    }
    .to_json();
    validate_bench_doc(&doc).expect("schema");
    // And it survives a serialization round trip.
    let back = Json::parse(&doc.pretty()).expect("parse back");
    validate_bench_doc(&back).expect("schema after round trip");
    assert_eq!(back.get("schema").unwrap().as_str(), Some(SCHEMA));
}

#[test]
fn fresh_faithful_scale_section_validates_and_twins_agree() {
    let faithful = faithful_scale_rows().expect("faithful-scale workloads");
    assert_eq!(faithful.len(), 3);
    for r in &faithful {
        assert!(r.relation_bytes > r.ram_bytes, "{}: not past RAM", r.name);
        assert!(r.outputs_match, "{}: twins diverged", r.name);
        assert!(r.peak_bounded(), "{}: peak not bounded", r.name);
    }
    let doc = BenchDoc {
        faithful_scale: &faithful,
        ..Default::default()
    }
    .to_json();
    validate_bench_doc(&doc).expect("schema");
    // Digest survives the JSON round trip as text.
    let back = Json::parse(&doc.pretty()).expect("parse back");
    let entries = back.get("faithful_scale").unwrap().as_arr().unwrap();
    assert_eq!(
        entries[0].get("digest").and_then(Json::as_str).unwrap(),
        format!("{:016x}", faithful[0].output_digest)
    );
}

fn faithful_fixture(rows: u64, digest: &str, bounded: bool, wall: f64) -> Json {
    Json::parse(&format!(
        r#"{{"schema": "ocas-bench/v6", "table1": [], "chaos": [], "figure8": [], "obs": [], "engine": [],
            "figures": {{"paper_platform_devices": []}}, "synthesis": [], "real": [],
            "faithful_scale": [{{"name": "w", "relation_bytes": 2097152,
                "ram_bytes": 1048576, "output_rows": {rows}, "digest": "{digest}",
                "outputs_match": true, "peak_bounded": {bounded},
                "sim_peak_resident": 200000, "real_peak_resident": 200000,
                "sim_seconds": 1.0, "wall_seconds": {wall}}}]}}"#
    ))
    .unwrap()
}

#[test]
fn regression_checker_pins_faithful_scale_determinism() {
    let baseline = faithful_fixture(1000, "00000000deadbeef", true, 0.1);
    assert_eq!(check_regressions(&baseline, &baseline, 25.0), Ok(1));
    // Row-count or digest drift is a data change: exact failure.
    let drifted_rows = faithful_fixture(1001, "00000000deadbeef", true, 0.1);
    let errs = check_regressions(&drifted_rows, &baseline, 25.0).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("output_rows")), "{errs:?}");
    let drifted_digest = faithful_fixture(1000, "00000000deadbeee", true, 0.1);
    let errs = check_regressions(&drifted_digest, &baseline, 25.0).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("digest")), "{errs:?}");
    // A peak past the RAM device fails regardless of the baseline.
    let unbounded = faithful_fixture(1000, "00000000deadbeef", false, 0.1);
    let errs = check_regressions(&unbounded, &baseline, 25.0).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("peak_bounded")), "{errs:?}");
    // Wall-clock gets the usual generous tolerance.
    let slow = faithful_fixture(1000, "00000000deadbeef", true, 99.0);
    let errs = check_regressions(&slow, &baseline, 10.0).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("wall_seconds")), "{errs:?}");
}

#[test]
fn committed_trajectory_point_validates() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_results.json");
    let text = std::fs::read_to_string(path)
        .expect("BENCH_results.json missing at repo root — regenerate with bench_json");
    let doc = Json::parse(&text).expect("parse committed BENCH_results.json");
    validate_bench_doc(&doc).expect("committed document satisfies the schema");
    assert_eq!(doc.pretty(), text, "the emitter writes the committed bytes");
    // The trajectory point must carry the real-I/O numbers.
    let real = doc.get("real").unwrap().as_arr().unwrap();
    assert!(!real.is_empty(), "no real-I/O entries recorded");
    for entry in real {
        assert_eq!(
            entry.get("outputs_match"),
            Some(&Json::Bool(true)),
            "recorded real run disagreed with the simulator"
        );
    }
    // And the full table (16 rows) from the committed regeneration.
    assert_eq!(doc.get("table1").unwrap().as_arr().unwrap().len(), 16);
    // The faithful-scale section records the streamed-generator claim:
    // relation past the RAM device, twins agreeing, peaks bounded.
    let faithful = doc.get("faithful_scale").unwrap().as_arr().unwrap();
    assert_eq!(faithful.len(), 3, "three faithful-scale twin workloads");
    for entry in faithful {
        assert_eq!(entry.get("outputs_match"), Some(&Json::Bool(true)));
        assert_eq!(entry.get("peak_bounded"), Some(&Json::Bool(true)));
        let rel = entry.get("relation_bytes").and_then(Json::as_num).unwrap();
        let ram = entry.get("ram_bytes").and_then(Json::as_num).unwrap();
        assert!(rel > ram, "recorded relation must exceed the RAM device");
    }
    // The engine section records the flat-batch before/after trajectory:
    // every entry carries a before-number, and the refactor's headline
    // claim (≥2x on the sort and join data paths) is pinned to the
    // committed measurements.
    let engine = doc.get("engine").unwrap().as_arr().unwrap();
    assert!(!engine.is_empty(), "no engine throughput entries recorded");
    for tpl in ["external-sort", "bnl-join", "grace-join"] {
        let e = engine
            .iter()
            .find(|e| {
                e.get("template").and_then(Json::as_str) == Some(tpl)
                    && e.get("backend").and_then(Json::as_str) == Some("sim")
            })
            .unwrap_or_else(|| panic!("missing engine entry for {tpl}/sim"));
        let speedup = e.get("speedup").and_then(Json::as_num).unwrap_or(0.0);
        assert!(
            speedup >= 2.0,
            "committed {tpl} speedup {speedup} below the 2x flat-batch claim"
        );
    }
    for e in engine {
        let speedup = e.get("speedup").and_then(Json::as_num).unwrap_or(0.0);
        assert!(
            speedup >= 0.8,
            "committed engine entry regressed vs its before-number: {e:?}"
        );
    }
    // The synthesis section records the interned search rework:
    // the two largest-search Table 1 rows must commit a ≥4x search
    // wall-clock speedup of the arena engine over the legacy reference.
    let synthesis = doc.get("synthesis").unwrap().as_arr().unwrap();
    assert_eq!(synthesis.len(), 2, "two largest-search rows recorded");
    for s in synthesis {
        let speedup = s.get("speedup").and_then(Json::as_num).unwrap_or(0.0);
        assert!(
            speedup >= 4.0,
            "committed synthesis speedup {speedup:.2}x below the 4x claim: {s:?}"
        );
    }
}

/// Every field of every section is checked as its table gates it: in a
/// copy of the committed document, change one field of a section's first
/// entry the way a regression would move it, and check the copy against
/// the committed document. Gated fields fail naming the field; a changed
/// key or scope drops the entry from the comparison; recorded fields pass.
#[test]
fn every_field_is_checked_as_its_table_gates_it() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_results.json");
    let committed = Json::parse(&std::fs::read_to_string(path).expect("committed document"))
        .expect("parse committed BENCH_results.json");
    let all = check_regressions(&committed, &committed, 25.0).expect("it passes against itself");
    for (section, fields) in schema() {
        let gated = fields
            .iter()
            .any(|f| matches!(f.2, Gate::Exact | Gate::Lower(_) | Gate::Higher(_)));
        for (field, kind, gate) in fields {
            let mut doc = committed.clone();
            let Json::Obj(top) = &mut doc else { panic!() };
            let entries = top.iter_mut().find(|(k, _)| k == section).expect(section);
            let Json::Arr(entries) = &mut entries.1 else {
                panic!()
            };
            let Json::Obj(entry) = &mut entries[0] else {
                panic!()
            };
            let value = &mut entry.iter_mut().find(|(k, _)| k == field).expect(field).1;
            *value = match (kind, value.clone()) {
                (Kind::Str, Json::Str(s)) => Json::Str(s + "~"),
                (Kind::Bool, Json::Bool(b)) => Json::Bool(!b),
                (Kind::Counters, Json::Obj(mut pairs)) => {
                    pairs.push(("new/counter".into(), Json::num(1.0)));
                    Json::Obj(pairs)
                }
                (_, Json::Num(x)) if matches!(gate, Gate::Higher(_)) => Json::num(x / 100.0),
                (_, Json::Num(x)) => Json::num(x * 100.0 + 1.0),
                (_, v) => panic!("{section}.{field} is {v}"),
            };
            let verdict = check_regressions(&doc, &committed, 25.0);
            match gate {
                Gate::Exact | Gate::Claim | Gate::Lower(_) | Gate::Higher(_) => {
                    let errs = verdict.expect_err(field);
                    assert!(
                        errs.iter()
                            .any(|e| e.starts_with(section) && e.contains(field)),
                        "{section}.{field}: {errs:?}"
                    );
                }
                Gate::Key | Gate::Scope if gated => {
                    assert_eq!(verdict, Ok(all - 1), "{section}.{field}")
                }
                Gate::Key | Gate::Scope | Gate::Info => {
                    assert_eq!(verdict, Ok(all), "{section}.{field}")
                }
            }
        }
    }
}

#[test]
fn validator_rejects_malformed_documents() {
    let bad = Json::obj(vec![("schema", Json::str("something/else"))]);
    assert!(validate_bench_doc(&bad).is_err());
    let missing_field = Json::parse(
        r#"{"schema": "ocas-bench/v6", "table1": [], "chaos": [], "figure8": [], "obs": [], "engine": [],
            "figures": {"paper_platform_devices": []}, "synthesis": [],
            "faithful_scale": [], "real": [{"name": "x"}]}"#,
    )
    .unwrap();
    let err = validate_bench_doc(&missing_field).unwrap_err();
    assert!(err.contains("real[0]"), "{err}");
    let missing_engine = Json::parse(
        r#"{"schema": "ocas-bench/v6", "table1": [], "chaos": [], "figure8": [], "obs": [],
            "figures": {"paper_platform_devices": []}, "synthesis": [], "faithful_scale": [], "real": []}"#,
    )
    .unwrap();
    let err = validate_bench_doc(&missing_engine).unwrap_err();
    assert!(err.contains("engine"), "{err}");
    let missing_synthesis = Json::parse(
        r#"{"schema": "ocas-bench/v6", "table1": [], "chaos": [], "figure8": [], "obs": [], "engine": [],
            "figures": {"paper_platform_devices": []}, "faithful_scale": [], "real": []}"#,
    )
    .unwrap();
    let err = validate_bench_doc(&missing_synthesis).unwrap_err();
    assert!(err.contains("synthesis"), "{err}");
}

#[test]
fn engine_throughput_covers_every_template_on_both_backends() {
    let rows = engine_throughput(1).expect("engine throughput");
    let mut templates: Vec<&str> = rows.iter().map(|r| r.template.as_str()).collect();
    templates.sort();
    templates.dedup();
    assert_eq!(
        templates,
        vec![
            "aggregate",
            "bnl-join",
            "column-zip",
            "dedup-sorted",
            "external-sort",
            "grace-join",
            "merge-pass",
        ]
    );
    for r in &rows {
        assert!(r.rows_per_sec > 0.0, "{r:?}");
        assert!(r.rows_in > 0, "{r:?}");
    }
    assert_eq!(
        rows.iter().filter(|r| r.backend == "real").count(),
        rows.len() / 2,
        "every template measured on both backends"
    );
}

fn check_fixture_scaled(wall: f64, bytes: f64, rps: f64, scale: u64) -> Json {
    Json::parse(&format!(
        r#"{{"schema": "ocas-bench/v6", "table1": [], "chaos": [], "figure8": [], "obs": [],
            "figures": {{"paper_platform_devices": []}},
            "engine": [{{"template": "external-sort", "backend": "sim",
                        "rows_in": 1000, "rows_out": 1000, "seconds": 1.0,
                        "rows_per_sec": {rps}}}],
            "synthesis": [], "faithful_scale": [],
            "real": [{{"name": "w", "scale": {scale}, "wall_seconds": {wall},
                      "io_seconds": 0.1, "sim_seconds": 1.0, "output_rows": 10,
                      "outputs_match": true,
                      "bytes_read": {bytes}, "bytes_written": 0}}]}}"#
    ))
    .unwrap()
}

fn synthesis_fixture(explored: u64, seconds: f64, speedup: f64) -> Json {
    Json::parse(&format!(
        r#"{{"schema": "ocas-bench/v6", "table1": [], "chaos": [], "figure8": [], "obs": [], "engine": [],
            "figures": {{"paper_platform_devices": []}}, "real": [], "faithful_scale": [],
            "synthesis": [{{"name": "BNL - No writeout", "explored": {explored},
                           "generated": 3000, "rejected_type": 0,
                           "rejected_semantics": 5, "depth_reached": 5,
                           "arena_nodes": 1800, "seconds": {seconds},
                           "reference_seconds": 0.4, "speedup": {speedup},
                           "programs_per_sec": 10000}}]}}"#
    ))
    .unwrap()
}

fn check_fixture(wall: f64, bytes: f64, rps: f64) -> Json {
    check_fixture_scaled(wall, bytes, rps, 1)
}

#[test]
fn regression_checker_accepts_within_tolerance_and_rejects_beyond() {
    let baseline = check_fixture(0.1, 4096.0, 1_000_000.0);
    // Identical run: fine; slower wall within tolerance: fine.
    assert_eq!(check_regressions(&baseline, &baseline, 25.0), Ok(2));
    let slower = check_fixture(2.0, 4096.0, 900_000.0);
    assert_eq!(check_regressions(&slower, &baseline, 25.0), Ok(2));
    // Wall blowing past the tolerance fails.
    let blown = check_fixture(3.0, 4096.0, 1_000_000.0);
    let errs = check_regressions(&blown, &baseline, 10.0).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("wall_seconds")), "{errs:?}");
    // Byte totals are deterministic: any drift fails outright.
    let drifted = check_fixture(0.1, 8192.0, 1_000_000.0);
    let errs = check_regressions(&drifted, &baseline, 25.0).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("bytes_read")), "{errs:?}");
    // Throughput collapse fails.
    let collapsed = check_fixture(0.1, 4096.0, 10_000.0);
    let errs = check_regressions(&collapsed, &baseline, 10.0).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("rows_per_sec")), "{errs:?}");
    // A run at a different scale than the baseline skips the real
    // comparison (different workload) instead of failing on row/byte
    // drift — the nightly's scaled regeneration must not trip the gate.
    let scaled = check_fixture_scaled(9.0, 999_999.0, 1_000_000.0, 20);
    assert_eq!(check_regressions(&scaled, &baseline, 10.0), Ok(1));
    // Unmatched names are skipped, not failed.
    let empty = Json::parse(
        r#"{"schema": "ocas-bench/v6", "table1": [], "chaos": [], "figure8": [], "obs": [], "engine": [],
            "figures": {"paper_platform_devices": []}, "synthesis": [], "faithful_scale": [], "real": []}"#,
    )
    .unwrap();
    assert_eq!(check_regressions(&baseline, &empty, 25.0), Ok(0));
}

#[test]
fn regression_checker_pins_synthesis_determinism_and_speedup() {
    let baseline = synthesis_fixture(900, 0.1, 4.0);
    assert_eq!(check_regressions(&baseline, &baseline, 25.0), Ok(1));
    // The explored space is deterministic: any drift fails exactly.
    let drifted = synthesis_fixture(901, 0.1, 4.0);
    let errs = check_regressions(&drifted, &baseline, 25.0).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("explored")), "{errs:?}");
    // A collapsed arena-vs-reference speedup fails (ratio of two clocks on
    // the same machine, so the floor is much tighter than raw seconds).
    let collapsed = synthesis_fixture(900, 0.1, 0.3);
    let errs = check_regressions(&collapsed, &baseline, 10.0).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("speedup")), "{errs:?}");
    // Slower absolute seconds within tolerance still pass.
    let slower = synthesis_fixture(900, 1.5, 4.0);
    assert_eq!(check_regressions(&slower, &baseline, 25.0), Ok(1));
}

fn obs_fixture(events: u64, hits: f64, sim: f64) -> Json {
    Json::parse(&format!(
        r#"{{"schema": "ocas-bench/v6", "table1": [], "chaos": [], "figure8": [], "engine": [],
            "figures": {{"paper_platform_devices": []}}, "synthesis": [],
            "faithful_scale": [], "real": [],
            "obs": [{{"name": "real:grace-join", "events": {events},
                     "sim_span_seconds": {sim}, "wall_span_seconds": 0.5,
                     "counters": {{"pool:HDD/hits": {hits}}}}}]}}"#
    ))
    .unwrap()
}

#[test]
fn regression_checker_pins_obs_counters_exactly() {
    let baseline = obs_fixture(5000, 42.0, 1.0);
    validate_bench_doc(&baseline).expect("obs fixture satisfies the schema");
    assert_eq!(check_regressions(&baseline, &baseline, 25.0), Ok(1));
    // Event counts and counter totals are deterministic: exact failures.
    let drifted_events = obs_fixture(5001, 42.0, 1.0);
    let errs = check_regressions(&drifted_events, &baseline, 25.0).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("events")), "{errs:?}");
    let drifted_counter = obs_fixture(5000, 43.0, 1.0);
    let errs = check_regressions(&drifted_counter, &baseline, 25.0).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("counters")), "{errs:?}");
    // Span seconds are timing: the generous tolerance applies.
    let slower = obs_fixture(5000, 42.0, 3.0);
    assert_eq!(check_regressions(&slower, &baseline, 25.0), Ok(1));
    let blown = obs_fixture(5000, 42.0, 50.0);
    let errs = check_regressions(&blown, &baseline, 10.0).unwrap_err();
    assert!(
        errs.iter().any(|e| e.contains("sim_span_seconds")),
        "{errs:?}"
    );
}

#[test]
fn fresh_synthesis_section_validates_and_engines_agree() {
    let synthesis = synthesis_stats();
    assert_eq!(synthesis.len(), 2, "the two largest-search Table 1 rows");
    for s in &synthesis {
        assert!(s.explored > 100, "{s:?}");
        assert!(s.seconds > 0.0 && s.reference_seconds > 0.0, "{s:?}");
        assert!(s.arena_nodes > 0, "{s:?}");
    }
    let doc = BenchDoc {
        synthesis: &synthesis,
        ..Default::default()
    }
    .to_json();
    validate_bench_doc(&doc).expect("schema");
}

fn chaos_fixture(seed: u64, identical: u64, faults: u64, retries: u64, wrong: u64) -> Json {
    Json::parse(&format!(
        r#"{{"schema": "ocas-bench/v6", "table1": [], "chaos": [{{"workload": "sort",
            "chaos_seed": {seed}, "runs": 12, "identical": {identical},
            "typed_errors": 2, "wrong_answers": {wrong}, "leaked_dirs": 0,
            "faults_injected": {faults}, "retries": {retries},
            "retry_successes": 3, "gave_up": 1, "degraded_shrinks": 2,
            "degraded_failovers": 0, "corrupt_pages_detected": 1}}],
            "figure8": [], "obs": [], "engine": [],
            "figures": {{"paper_platform_devices": []}}, "synthesis": [],
            "faithful_scale": [], "real": []}}"#
    ))
    .unwrap()
}

#[test]
fn regression_checker_pins_chaos_counters_exactly_for_matching_seeds() {
    let baseline = chaos_fixture(0, 10, 9, 4, 0);
    validate_bench_doc(&baseline).expect("chaos fixture satisfies the schema");
    assert_eq!(check_regressions(&baseline, &baseline, 25.0), Ok(1));
    // Same seed, same plans: outcome and recovery counters are
    // deterministic — any drift fails exactly.
    let drifted_outcomes = chaos_fixture(0, 9, 9, 4, 0);
    let errs = check_regressions(&drifted_outcomes, &baseline, 25.0).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("identical")), "{errs:?}");
    let drifted_faults = chaos_fixture(0, 10, 8, 4, 0);
    let errs = check_regressions(&drifted_faults, &baseline, 25.0).unwrap_err();
    assert!(
        errs.iter().any(|e| e.contains("faults_injected")),
        "{errs:?}"
    );
    let drifted_retries = chaos_fixture(0, 10, 9, 5, 0);
    let errs = check_regressions(&drifted_retries, &baseline, 25.0).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("retries")), "{errs:?}");
}

#[test]
fn regression_checker_skips_chaos_sweeps_at_a_different_seed() {
    // The nightly sweeps randomized seeds: different seed, different
    // experiment — outcome totals legitimately differ, so the comparison
    // skips (mirroring the real-I/O scale skip).
    let baseline = chaos_fixture(0, 10, 9, 4, 0);
    let nightly = chaos_fixture(777, 3, 25, 11, 0);
    assert_eq!(check_regressions(&nightly, &baseline, 25.0), Ok(0));
}

#[test]
fn regression_checker_fails_chaos_trichotomy_violations_unconditionally() {
    // A wrong answer under faults is a robustness bug, not a regression to
    // tolerate: it fails even when the seed differs from the baseline (and
    // even against an empty baseline).
    let baseline = chaos_fixture(0, 10, 9, 4, 0);
    let wrong = chaos_fixture(777, 3, 25, 11, 1);
    let errs = check_regressions(&wrong, &baseline, 25.0).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("wrong_answers")), "{errs:?}");
    let empty = Json::parse(
        r#"{"schema": "ocas-bench/v6", "table1": [], "chaos": [], "figure8": [], "obs": [], "engine": [],
            "figures": {"paper_platform_devices": []}, "synthesis": [], "faithful_scale": [], "real": []}"#,
    )
    .unwrap();
    let errs = check_regressions(&chaos_fixture(5, 3, 25, 11, 2), &empty, 25.0).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("wrong_answers")), "{errs:?}");
}
