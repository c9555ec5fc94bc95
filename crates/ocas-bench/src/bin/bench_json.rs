//! Emits the `BENCH_results.json` trajectory point: Table 1 rows, Figure 8
//! points, the Figure 7 device constants, the cache-miss companion, the
//! engine data-path throughput (faithful rows/sec per plan template on both
//! backends), and the real-I/O workloads (wall-clock + simulated seconds
//! side by side).
//!
//! Usage: `cargo run --release -p ocas-bench --bin bench_json [-- OPTIONS]`
//!
//! * `--out <path>`           output file (default `BENCH_results.json`)
//! * `--real-only`            skip the synthesis-heavy Table 1 / Figure 8 runs
//! * `--real-scale <n>`       multiply the real-workload cardinalities
//! * `--engine-scale <n>`     multiply the engine-throughput cardinalities
//! * `--engine-before <path>` prior document whose `engine` section becomes
//!   the before-numbers (`before_rows_per_sec` / `speedup` per entry)
//! * `--check <path>`         compare this run against a baseline document
//!   and exit non-zero on regressions, field by field as each section's
//!   table gates it (exact on rows/bytes/digests/counters, a generous
//!   wall-clock and throughput tolerance for machine variance)
//! * `--check-tolerance <x>`  override the wall/throughput factor (default 25)
//! * `--chaos-seed <n>`       base fault seed of the chaos sweep (default 0;
//!   the nightly passes its run id, and a failing sweep replays exactly by
//!   passing the printed seed back in). `--check` compares chaos counters
//!   exactly when the seeds match and skips them when they differ.
//! * `--disk-bound`           run the real-I/O workloads in the
//!   fsync/`O_DIRECT` disk-bounded timing mode
//! * `--assert-direct`        exit non-zero unless at least one real-I/O
//!   workload actually engaged `O_DIRECT` (nightly runs this together with
//!   `--disk-bound` on a real filesystem, pinning that the buffered
//!   fallback is not the only path ever exercised)
//! * `--trace-out <dir>`      record every Table 1 row (and the two `obs`
//!   workloads) under the `ocas-obs` recorder and write one Chrome
//!   trace-event JSON file per row into `<dir>` (load them in Perfetto or
//!   `chrome://tracing`). Every written file is re-parsed and schema
//!   validated; a malformed trace fails the run.
//!
//! Whatever the options, the run exits non-zero after writing the document
//! if it breaks one of its claims (`report::claims`): a real-I/O or
//! faithful-scale twin disagreeing, a peak past the RAM device, or a chaos
//! run giving a wrong answer or leaking a temp dir.
//!
//! The `obs` section (two representative workloads run under the
//! `ocas-obs` recorder, reduced to counter and span-seconds totals)
//! always runs: its counters and event counts are deterministic, so
//! `--check` gates them exactly, with the usual tolerance on span
//! seconds.
//!
//! The synthesis-search section (arena/parallel engine vs the legacy
//! reference engine on the two largest-search Table 1 rows) always runs —
//! it takes seconds and its statistics are deterministic, so the smoke
//! job's `--check` gates them exactly. So does the `faithful_scale`
//! section (streamed-generator twin runs past the RAM device): its row
//! counts, sizes and emission digests are deterministic and gated
//! exactly.
//!
//! `--real-only` is the mode CI's smoke job affords (seconds); the full
//! document is regenerated manually per trajectory point.

use ocas_bench::json::Json;
use ocas_bench::report::{
    anchor_engine_rows, chaos_rows, check_regressions, claims, engine_throughput,
    faithful_scale_rows, obs_rows, real_workloads, synthesis_stats, validate_bench_doc,
    validate_chrome_trace, BenchDoc,
};

/// Lower-cases `name` into a filesystem-safe slug.
fn slug(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// Writes one Chrome trace file and round-trips it through the parser and
/// the trace schema check; a malformed export fails the whole run.
fn write_trace(dir: &str, stem: &str, chrome: &str) {
    let path = format!("{dir}/{stem}.json");
    std::fs::write(&path, chrome).expect("write trace file");
    let parsed = Json::parse(chrome).unwrap_or_else(|e| {
        eprintln!("FAIL: trace {path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    if let Err(e) = validate_chrome_trace(&parsed) {
        eprintln!("FAIL: trace {path} failed schema validation: {e}");
        std::process::exit(1);
    }
    eprintln!("  wrote trace {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_results.json".to_string();
    let mut real_only = false;
    let mut real_scale = 1u64;
    let mut engine_scale = 1u64;
    let mut engine_before: Option<String> = None;
    let mut check: Option<String> = None;
    let mut check_tolerance = 25.0f64;
    let mut chaos_seed = 0u64;
    let mut disk_bound = false;
    let mut assert_direct = false;
    let mut trace_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--real-only" => real_only = true,
            "--real-scale" => {
                real_scale = it
                    .next()
                    .expect("--real-scale needs a number")
                    .parse()
                    .expect("--real-scale needs a number")
            }
            "--engine-scale" => {
                engine_scale = it
                    .next()
                    .expect("--engine-scale needs a number")
                    .parse()
                    .expect("--engine-scale needs a number")
            }
            "--engine-before" => {
                engine_before = Some(it.next().expect("--engine-before needs a path").clone())
            }
            "--check" => check = Some(it.next().expect("--check needs a path").clone()),
            "--check-tolerance" => {
                check_tolerance = it
                    .next()
                    .expect("--check-tolerance needs a number")
                    .parse()
                    .expect("--check-tolerance needs a number")
            }
            "--chaos-seed" => {
                chaos_seed = it
                    .next()
                    .expect("--chaos-seed needs a number")
                    .parse()
                    .expect("--chaos-seed needs a number")
            }
            "--disk-bound" => disk_bound = true,
            "--assert-direct" => assert_direct = true,
            "--trace-out" => {
                trace_out = Some(it.next().expect("--trace-out needs a directory").clone())
            }
            other => {
                eprintln!("unknown option `{other}`");
                std::process::exit(2);
            }
        }
    }

    if let Some(dir) = &trace_out {
        std::fs::create_dir_all(dir).expect("create --trace-out directory");
    }

    let mut table1 = Vec::new();
    let mut figure8 = Vec::new();
    let mut cache = None;
    if !real_only {
        eprintln!("running Table 1 (16 synthesis + execution rows)…");
        for e in ocas::experiments::table1() {
            if trace_out.is_some() {
                ocas_obs::start();
            }
            let run = e.run();
            let trace = ocas_obs::finish();
            match run {
                Ok(row) => {
                    eprintln!("  {:<40} ok", row.name);
                    if let (Some(dir), Some(t)) = (&trace_out, &trace) {
                        write_trace(
                            dir,
                            &format!("table1-{}", slug(&row.name)),
                            &t.to_chrome_json(),
                        );
                    }
                    table1.push(row);
                }
                Err(err) => eprintln!("  {:<40} FAILED: {err}", e.name),
            }
        }
        eprintln!("running Figure 8…");
        match ocas::experiments::figure8() {
            Ok(points) => figure8 = points,
            Err(e) => eprintln!("  figure8 FAILED: {e}"),
        }
        eprintln!("running cache-miss comparison…");
        match ocas::experiments::cache_miss_comparison() {
            Ok(pair) => cache = Some(pair),
            Err(e) => eprintln!("  cache-miss comparison FAILED: {e}"),
        }
    }

    eprintln!("running synthesis-search benchmarks (arena vs reference engine)…");
    let synthesis = synthesis_stats();
    for s in &synthesis {
        eprintln!(
            "  {:<40} explored={:>5} {:>8.0} programs/s  {:.3}s vs reference {:.3}s ({:.2}x)",
            s.name, s.explored, s.programs_per_sec, s.seconds, s.reference_seconds, s.speedup
        );
    }

    eprintln!("running engine throughput workloads (scale {engine_scale})…");
    let mut engine = match engine_throughput(engine_scale) {
        Ok(rows) => {
            for r in &rows {
                eprintln!(
                    "  {:<16} {:<4} {:>12.0} rows/s ({} rows in {:.3}s)",
                    r.template, r.backend, r.rows_per_sec, r.rows_in, r.seconds
                );
            }
            rows
        }
        Err(e) => {
            eprintln!("engine throughput FAILED: {e}");
            std::process::exit(1);
        }
    };

    eprintln!("running faithful-scale twin workloads (relation > RAM device)…");
    let faithful = match faithful_scale_rows() {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("faithful-scale workloads FAILED: {e}");
            std::process::exit(1);
        }
    };
    for r in &faithful {
        eprintln!(
            "  {:<24} rel={}KiB ram={}KiB peak sim/real={}/{}KiB rows={} match={} bounded={}",
            r.name,
            r.relation_bytes >> 10,
            r.ram_bytes >> 10,
            r.sim_peak_resident >> 10,
            r.real_peak_resident >> 10,
            r.output_rows,
            r.outputs_match,
            r.peak_bounded()
        );
    }

    eprintln!("running real-I/O workloads (scale {real_scale}, disk_bound {disk_bound})…");
    let real = match real_workloads(real_scale, disk_bound) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("real-I/O workloads FAILED: {e}");
            std::process::exit(1);
        }
    };
    for r in &real {
        eprintln!(
            "  {:<34} wall={:.4}s sim={:.2}s rows={} match={}",
            r.name,
            r.report.wall_seconds,
            r.report.sim_seconds,
            r.report.output.len(),
            r.report.outputs_match()
        );
    }

    eprintln!("running observability workloads (ocas-obs recorder)…");
    let obs = match obs_rows() {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("observability workloads FAILED: {e}");
            std::process::exit(1);
        }
    };
    for r in &obs {
        eprintln!(
            "  {:<16} events={:>8} counters={} sim={:.4}s wall={:.4}s",
            r.name,
            r.events,
            r.counters.len(),
            r.sim_span_seconds,
            r.wall_span_seconds
        );
        if let Some(dir) = &trace_out {
            write_trace(dir, &format!("obs-{}", slug(&r.name)), &r.chrome_trace);
        }
    }

    eprintln!(
        "running chaos suite (fault seed {chaos_seed}, 4 synthesized workloads × 2 backends)…"
    );
    let chaos = match chaos_rows(chaos_seed) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("chaos suite FAILED: {e}");
            std::process::exit(1);
        }
    };
    for r in &chaos {
        let s = &r.summary;
        eprintln!(
            "  {:<8} runs={:>2} identical={:>2} typed={:>2} faults={:>3} retries={:>3} degraded={:>2} wrong={} leaks={}",
            r.workload,
            s.runs,
            s.identical,
            s.typed_errors,
            s.counters.faults_injected,
            s.counters.retries,
            s.counters.degradations(),
            s.wrong_answers,
            s.leaked_dirs
        );
    }

    if let Some(p) = engine_before {
        let text = std::fs::read_to_string(&p).expect("read --engine-before document");
        let prior = Json::parse(&text).expect("parse --engine-before document");
        anchor_engine_rows(&mut engine, &prior);
    }
    let doc = BenchDoc {
        table1: &table1,
        figure8: &figure8,
        cache_misses: cache,
        engine: &engine,
        synthesis: &synthesis,
        faithful_scale: &faithful,
        obs: &obs,
        chaos: &chaos,
        real: &real,
    }
    .to_json();
    validate_bench_doc(&doc).expect("generated document must satisfy its own schema");
    std::fs::write(&out_path, doc.pretty()).expect("write BENCH json");
    eprintln!("wrote {out_path}");
    let broken = claims(&doc);
    if !broken.is_empty() {
        for b in &broken {
            eprintln!("FAIL: {b}");
        }
        eprintln!("(a chaos sweep replays exactly with `--chaos-seed {chaos_seed}`)");
        std::process::exit(1);
    }
    if assert_direct && !real.iter().any(|r| r.report.direct_io) {
        eprintln!(
            "FAIL: --assert-direct, but no real-I/O workload engaged O_DIRECT              (buffered fallback everywhere — is this tmpfs, or was --disk-bound omitted?)"
        );
        std::process::exit(1);
    }

    if let Some(baseline_path) = check {
        let text = std::fs::read_to_string(&baseline_path).expect("read --check baseline");
        let baseline = Json::parse(&text).expect("parse --check baseline");
        match check_regressions(&doc, &baseline, check_tolerance) {
            Ok(compared) => eprintln!("check OK: {compared} entries within tolerance"),
            Err(failures) => {
                for f in &failures {
                    eprintln!("REGRESSION: {f}");
                }
                std::process::exit(1);
            }
        }
    }
}
