//! Drives the one command (`bench/run.sh`) at `--quick` size and holds its
//! output to `BENCHMARK.json`.

#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("bench/ sits in the repository root")
        .to_path_buf()
}

fn out_dir() -> PathBuf {
    repo_root().join("bench/target/ocas-perf-smoke")
}

/// Runs `bench/run.sh --quick` with `extra` arguments; returns whether it
/// exited 0 and the parsed last line of its output.
fn run(extra: &[&str]) -> (bool, Option<Json>) {
    let out = Command::new("bash")
        .arg("bench/run.sh")
        .args(["--quick", "--seed", "3", "--out"])
        .arg(out_dir())
        .args(extra)
        .current_dir(repo_root())
        .output()
        .expect("bash bench/run.sh");
    let text = String::from_utf8_lossy(&out.stdout);
    let result = text.lines().last().and_then(|line| Json::parse(line).ok());
    (out.status.success(), result)
}

fn names(section: &Json) -> BTreeSet<String> {
    section
        .arr()
        .iter()
        .map(|m| m.get("name").and_then(Json::str).expect("name").to_string())
        .collect()
}

fn metrics(result: &Json) -> BTreeMap<String, (f64, String)> {
    result
        .get("metrics")
        .expect("metrics")
        .obj()
        .iter()
        .map(|(k, v)| {
            let value = v.get("value").and_then(Json::num).expect("value");
            let unit = v.get("unit").and_then(Json::str).expect("unit");
            (k.clone(), (value, unit.to_string()))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn quick_runs_match_benchmark_json_and_repeat_exactly() {
    let bench =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = Json::parse(&bench).expect("BENCHMARK.json parses");
    let end_to_end = names(bench.get("end_to_end").expect("end_to_end"));
    let per_layer = names(bench.get("per_layer").expect("per_layer"));
    let workloads = names(bench.get("workloads").expect("workloads"));
    assert_eq!(workloads.len(), 5);
    for name in end_to_end.iter().chain(&per_layer).chain(&workloads) {
        assert!(well_formed(name), "bad name `{name}`");
    }
    let units: BTreeMap<String, String> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|s| bench.get(s).expect("section").arr())
        .map(|m| {
            (
                m.get("name").and_then(Json::str).expect("name").to_string(),
                m.get("unit").and_then(Json::str).expect("unit").to_string(),
            )
        })
        .collect();

    for w in &workloads {
        let mut layer_runs = Vec::new();
        for trace in ["0", "1", "1"] {
            let (ok, result) = run(&["--workload", w, "--trace", trace]);
            let result = result.unwrap_or_else(|| panic!("{w} --trace {trace}: no result line"));
            assert!(ok, "{w} --trace {trace} exited non-zero: {result}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert_eq!(result.get("failed").and_then(Json::num), Some(0.0), "{w}");
            assert!(
                result.get("attempted").and_then(Json::num) >= Some(1.0),
                "{w}"
            );
            let got = metrics(&result);
            let expected = if trace == "0" {
                &end_to_end
            } else {
                &per_layer
            };
            assert_eq!(
                &got.keys().cloned().collect::<BTreeSet<_>>(),
                expected,
                "{w}"
            );
            for (name, (value, unit)) in &got {
                assert_eq!(unit, &units[name], "{w}: unit of {name}");
                assert!(value.is_finite(), "{w}: {name} = {value}");
                assert!(trace == "1" || *value > 0.0, "{w}: {name} must never be 0");
            }
            if trace == "1" {
                assert_eq!(got["failed_share"].0, 0.0, "{w}");
                layer_runs.push(got);
            }
        }
        // Exact quantities repeat bit for bit.
        for (name, (first, unit)) in &layer_runs[0] {
            if matches!(unit.as_str(), "count" | "B" | "ln-ratio" | "sim-s") {
                assert_eq!(
                    *first, layer_runs[1][name].0,
                    "{w}: {name} differs between runs"
                );
            }
        }
        // The trace loads: Chrome trace format, complete events.
        let trace =
            std::fs::read_to_string(out_dir().join(format!("trace-{w}.json"))).expect("trace file");
        let trace = Json::parse(&trace).expect("trace parses");
        let events = trace.get("traceEvents").expect("traceEvents").arr();
        assert!(!events.is_empty(), "{w}: empty trace");
        for e in events {
            assert_eq!(e.get("ph").and_then(Json::str), Some("X"));
            assert!(e.get("name").and_then(Json::str).is_some());
            assert!(e.get("ts").and_then(Json::num).is_some());
            assert!(e.get("dur").and_then(Json::num) >= Some(0.0));
        }
    }
}

#[test]
fn corrupted_reference_fails_the_command() {
    let (ok, result) = run(&[
        "--workload",
        "real-stream",
        "--trace",
        "0",
        "--corrupt-reference",
    ]);
    assert!(!ok, "a wrong reference digest must exit non-zero");
    let result = result.expect("the result line is still printed");
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(result.get("failed").and_then(Json::num), Some(4.0));
}
