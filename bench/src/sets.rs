//! Running every workload, each in a fresh process of this binary (so that
//! peak memory is per workload), and `--verify-repeat`: two such sets of
//! one commit, held to the benchmark's own bounds.

use crate::json::Json;
use crate::workloads::WORKLOADS;
use crate::{median, Args};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// metric name -> (value, unit).
type Metrics = BTreeMap<String, (f64, String)>;
type Set = BTreeMap<&'static str, Metrics>;

/// Runs one workload in a child process and returns its metrics; `None`
/// when the child reported failed operations or did not finish.
fn child(a: &Args, workload: &str, trace: bool) -> Result<Option<Metrics>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&a.out);
    if a.quick {
        cmd.arg("--quick");
    }
    if a.corrupt_reference {
        cmd.arg("--corrupt-reference");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines() {
        println!("  {line}");
    }
    let Some(last) = text.lines().last().filter(|l| l.starts_with('{')) else {
        return Ok(None);
    };
    let result = Json::parse(last)?;
    let metrics = result
        .get("metrics")
        .map(Json::obj)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| {
            Some((
                k.clone(),
                (v.get("value")?.num()?, v.get("unit")?.str()?.to_string()),
            ))
        })
        .collect();
    let clean = out.status.success() && result.get("correct") == Some(&Json::Bool(true));
    Ok(clean.then_some(metrics))
}

/// Runs every workload once per trace mode and writes `results.json`.
fn run_set(a: &Args) -> Result<bool, String> {
    let mut set = Set::new();
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            println!("== {w} --trace {}", u8::from(trace));
            match child(a, w, trace)? {
                Some(metrics) => set.entry(w).or_default().extend(metrics),
                None => ok = false,
            }
        }
    }
    std::fs::create_dir_all(&a.out).map_err(|e| e.to_string())?;
    let doc = Json::Obj(vec![
        ("seed".into(), Json::Num(a.seed as f64)),
        // Quick results are marked and never compared with full ones.
        ("quick".into(), Json::Bool(a.quick)),
        (
            "workloads".into(),
            Json::Obj(
                set.iter()
                    .map(|(w, metrics)| {
                        let fields = metrics
                            .iter()
                            .map(|(k, (v, unit))| {
                                let cell = vec![
                                    ("value".into(), Json::Num(*v)),
                                    ("unit".into(), Json::Str(unit.clone())),
                                ];
                                (k.clone(), Json::Obj(cell))
                            })
                            .collect();
                        (w.to_string(), Json::Obj(fields))
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = a.out.join("results.json");
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(ok)
}

/// Runs of each workload per side of `--verify-repeat`.
const REPEAT_RUNS: usize = 5;

/// Two sets of one commit with one seed, held to the benchmark's own
/// bounds. Per workload the two sides' runs alternate, so that the box's
/// drift over minutes falls on both; each side's end-to-end metrics are
/// medians over its `REPEAT_RUNS` runs and must agree within the bound of
/// `BENCHMARK.json`; every exact value of the two layer passes must be
/// identical.
fn verify_repeat(a: &Args) -> Result<bool, String> {
    let bench = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let bench = Json::parse(&bench)?;
    let bounds: Vec<(&str, f64)> = bench
        .get("end_to_end")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some((m.get("name")?.str()?, m.get("bound")?.num()?)))
        .collect();
    let mut ok = true;
    let mut table = vec![format!(
        "{:<12} {:<12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "first", "second", "ratio", "bound"
    )];
    for w in WORKLOADS {
        let mut sides: [Vec<Metrics>; 2] = [Vec::new(), Vec::new()];
        for run in 0..2 * REPEAT_RUNS {
            println!("== {w} --trace 0, side {} run {}", run % 2, run / 2);
            match child(a, w, false)? {
                Some(metrics) => sides[run % 2].push(metrics),
                None => ok = false,
            }
        }
        for (name, bound) in &bounds {
            let side = |runs: &[Metrics]| {
                median(
                    &runs
                        .iter()
                        .filter_map(|m| Some(m.get(*name)?.0))
                        .collect::<Vec<_>>(),
                )
            };
            let (first, second) = (side(&sides[0]), side(&sides[1]));
            // Every end-to-end metric is lower-is-better.
            let ratio = first.max(second) / first.min(second);
            let within = ratio <= 1.0 + bound;
            table.push(format!(
                "{w:<12} {name:<12} {first:>12.6} {second:>12.6} {ratio:>8.4} {bound:>6}{}",
                if within { "" } else { "  OUT OF BOUND" }
            ));
            ok &= within;
        }
        println!("== {w} --trace 1, twice");
        let (Some(first), Some(second)) = (child(a, w, true)?, child(a, w, true)?) else {
            ok = false;
            continue;
        };
        for (name, (x, unit)) in &first {
            let exact = matches!(unit.as_str(), "count" | "B" | "ln-ratio" | "sim-s");
            let y = second.get(name).map(|m| m.0);
            if exact && y != Some(*x) {
                table.push(format!("{w:<12} {name}: {x} vs {y:?}  NOT IDENTICAL"));
                ok = false;
            }
        }
    }
    for line in table {
        println!("{line}");
    }
    Ok(ok)
}

pub fn run_all(a: &Args) -> Result<bool, String> {
    let ok = if a.verify_repeat {
        verify_repeat(a)?
    } else {
        run_set(a)?
    };
    println!("{}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}
