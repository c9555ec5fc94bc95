//! `ocas-perf`: the repository's benchmark. See `bench/README.md`.
//!
//! With `--workload` it runs that one workload in this process and prints
//! its result object as the last line of standard output. Without, it runs
//! every workload, each in a fresh process of this same binary.

mod calib;
mod json;
mod layers;
mod reference;
mod sets;
mod trace;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Workload, WORKLOADS};

/// Every end-to-end metric: name and unit. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("stage_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Set-up runs this many times in a run; `setup_s` is their median.
const SETUPS: usize = 5;

pub struct Args {
    pub workload: Option<&'static str>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
    /// The build directory; device files fall back to it off tmpfs.
    pub target: PathBuf,
    pub verify_repeat: bool,
    pub corrupt_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    // <target>/release/ocas-perf -> <target>
    let target = std::env::current_exe()
        .ok()
        .and_then(|p| Some(p.parent()?.parent()?.to_path_buf()))
        .ok_or("cannot locate the build directory")?;
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        out: target.join("ocas-perf-out"),
        target,
        verify_repeat: false,
        corrupt_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                a.workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|k| *k == w)
                        .ok_or(format!("unknown workload `{w}`; one of {WORKLOADS:?}"))?,
                );
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--out" => a.out = PathBuf::from(value()?),
            "--quick" => a.quick = true,
            "--verify-repeat" => a.verify_repeat = true,
            "--corrupt-reference" => a.corrupt_reference = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The lower quartile: interference on this kind of box (a busy sibling
/// hyperthread, for 10-15 s at a time) only ever adds time, so the low end
/// of the samples is the steadier estimate of what the code costs.
fn lower_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 4]
}

/// One rep's time as the sum over its cases of each case's lower quartile
/// across the reps: a burst of interference spoils the cases it hits, not
/// the whole rep.
fn steady_sum(
    reps: &[workloads::RepOut],
    per_case: impl Fn(&workloads::RepOut) -> &Vec<f64>,
) -> f64 {
    let cases = reps.iter().map(|r| per_case(r).len()).min().unwrap_or(0);
    (0..cases)
        .map(|c| lower_quartile(&reps.iter().map(|r| per_case(r)[c]).collect::<Vec<_>>()))
        .sum()
}

fn spread(values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(0.0, f64::max);
    format!("(min {min:.4} max {max:.4} n {})", values.len())
}

/// Set-up as a user of the system pays it: build the workload and run the
/// code once. `synth16` warms up with a full rep (synthesis does not scale
/// with rows); the real workloads with a rep at `--quick` size; the
/// simulator workload's set-up is the synthesis of its sixteen winners.
fn set_up(name: &'static str, a: &Args, doc: &Json) -> Result<Workload, String> {
    let warm = |wl: &mut Workload| match wl.rep(&mut None).failures.first() {
        Some(why) => Err(format!("warm-up rep failed: {why}")),
        None => Ok(()),
    };
    match name {
        "synth16" => {
            let mut wl = Workload::build(name, a.seed, a.quick, doc)?;
            warm(&mut wl)?;
            Ok(wl)
        }
        "sim-table1" => Workload::build(name, a.seed, a.quick, doc),
        _ => {
            warm(&mut Workload::build(name, a.seed, true, doc)?)?;
            Workload::build(name, a.seed, a.quick, doc)
        }
    }
}

fn run_one(name: &'static str, a: &Args) -> Result<bool, String> {
    if let Some(limit) = calib::file_size_limit().filter(|l| *l < workloads::REAL_HDD) {
        return Err(format!(
            "file size limit of {limit} B is below the {} B of a device file",
            workloads::REAL_HDD
        ));
    }
    let dev = calib::DeviceDir::create(&a.target).map_err(|e| format!("device directory: {e}"))?;
    println!("# device_dir_fs {}", dev.fs);
    println!(
        "# workload {name} seed {} quick {} threads {}",
        a.seed,
        a.quick,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let doc = std::fs::read_to_string("BENCH_results.json")
        .map_err(|e| format!("BENCH_results.json (run from the repository root): {e}"))?;
    let doc = Json::parse(&doc)?;

    let mut setups = Vec::new();
    let mut wl = None;
    for _ in 0..if a.quick { 1 } else { SETUPS } {
        let t0 = Instant::now();
        wl = Some(set_up(name, a, &doc)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut wl = wl.expect("at least one set-up");
    wl.corrupt_reference = a.corrupt_reference;
    wl.compute_references()?;

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let (attempted, failures) = if a.trace {
        let mut tr = Some(Tracer::new());
        let (layer, attempted, failures) = layers::layer_pass(&mut wl, &dev, &mut tr)?;
        let tracer = tr.expect("tracer");
        for (layer, secs) in tracer.self_time_by_layer() {
            println!("# self_time {layer} {secs:.6} s");
        }
        std::fs::create_dir_all(&a.out).map_err(|e| e.to_string())?;
        let path = a.out.join(format!("trace-{name}.json"));
        std::fs::write(&path, tracer.to_chrome_json()).map_err(|e| e.to_string())?;
        println!("# trace {}", path.display());
        for (metric, unit) in layers::PER_LAYER {
            metrics.push((metric, unit, layer.get(metric).copied().unwrap_or(0.0)));
        }
        (attempted, failures)
    } else {
        // Closed loop for `--seconds`: at least two reps, then stop when
        // one more as long as the longest so far would overrun.
        let start = Instant::now();
        let mut reps: Vec<workloads::RepOut> = Vec::new();
        loop {
            let mut rep = wl.rep(&mut None);
            // Only the timings are kept: a real case's report holds its
            // whole output, and peak memory is a metric.
            rep.cases.clear();
            reps.push(rep);
            let longest = reps.iter().map(|r| r.wall_s).fold(0.0, f64::max);
            let full = reps.len() >= 2 && start.elapsed().as_secs_f64() + longest > a.seconds;
            if a.quick || full {
                break;
            }
        }
        let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
        let stages: Vec<f64> = reps.iter().map(|r| r.stage_s()).collect();
        println!("# rep wall_s {}", spread(&walls));
        println!("# rep stage_s {}", spread(&stages));
        println!("# setup_s {}", spread(&setups));
        let values = [
            steady_sum(&reps, |r| &r.case_walls),
            steady_sum(&reps, |r| &r.case_stages),
            median(&setups),
            calib::peak_rss_mb(),
        ];
        let attempted = reps.iter().map(|r| r.attempted).sum();
        let failures: Vec<String> = reps.into_iter().flat_map(|r| r.failures).collect();
        for ((metric, unit), v) in END_TO_END.into_iter().zip(values) {
            metrics.push((metric, unit, v));
        }
        (attempted, failures)
    };
    drop(dev);

    for why in &failures {
        println!("# FAILED {why}");
    }
    for (metric, unit, v) in &metrics {
        println!("{metric} {unit} {v}");
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(failures.is_empty())),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failures.len() as f64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|(metric, unit, v)| {
                        (
                            metric.to_string(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(*v)),
                                ("unit".into(), Json::Str(unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    Ok(failures.is_empty())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|a| match a.workload {
        Some(name) => run_one(name, &a),
        None => sets::run_all(&a),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("ocas-perf: {why}");
            ExitCode::from(2)
        }
    }
}
