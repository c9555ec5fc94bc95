//! The layer pass of a `--trace 1` run: one rep with spans around every
//! call into a layer, then each layer's stage driven alone through its
//! public functions, so its time and counts are known apart from the
//! pipeline that overlaps them.

use crate::calib::{self, DeviceDir};
use crate::trace::{timed, Tracer};
use crate::workloads::{Case, Kind, RepOut, Workload, REAL_RAM};
use ocas_cost::CostEngine;
use ocas_engine::{CpuModel, Executor, Mode, Plan, Relation};
use ocas_opt::{ladder_search, optimize, ParamSpec, Problem};
use ocas_runtime::{BufferPool, FileBackend, PolicyKind, PoolConfig};
use ocas_storage::StorageSim;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric: name and unit. `BENCHMARK.json` lists the same
/// (with which direction is better), and the smoke test holds the two
/// together. Metrics a workload
/// does not exercise read 0.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("synth_s", "s"),
    ("exec_s", "s"),
    ("model_err", "ln-ratio"),
    ("sim_plan_s", "sim-s"),
    ("failed_share", "ratio"),
    ("ocal.parse_s", "s"),
    ("rewrite.search_s", "s"),
    ("rewrite.programs_per_s", "1/s"),
    ("rewrite.explored", "count"),
    ("rewrite.generated", "count"),
    ("rewrite.yield", "ratio"),
    ("rewrite.rejected", "count"),
    ("rewrite.arena_nodes", "count"),
    ("cost.estimate_s", "s"),
    ("cost.us_per_program", "us"),
    ("cost.programs", "count"),
    ("cost.uncosted", "count"),
    ("opt.ladder_s", "s"),
    ("opt.refine_s", "s"),
    ("opt.problems", "count"),
    ("synth.pipeline_s", "s"),
    ("synth.overlap", "ratio"),
    ("synth.costed", "count"),
    ("synth.uncosted", "count"),
    ("engine.lower_s", "s"),
    ("engine.gen_s", "s"),
    ("engine.gen_sorted_s", "s"),
    ("engine.gen_mrows_per_s", "Mrows/s"),
    ("engine.exec_sim_s", "s"),
    ("engine.exec_file_s", "s"),
    ("engine.io_stack_share", "ratio"),
    ("engine.compares", "count"),
    ("engine.output_rows", "count"),
    ("engine.peak_resident_bytes", "B"),
    ("storage.sim_exec_s", "s"),
    ("storage.sim_s_per_wall_s", "ratio"),
    ("storage.sim_seeks", "count"),
    ("storage.sim_bytes_read", "B"),
    ("storage.sim_bytes_written", "B"),
    ("runtime.exec_s", "s"),
    ("runtime.io_s", "s"),
    ("runtime.cpu_s", "s"),
    ("runtime.pool_hits", "count"),
    ("runtime.pool_misses", "count"),
    ("runtime.pool_evictions", "count"),
    ("runtime.pool_write_backs", "count"),
    ("runtime.pool_hit_ratio", "ratio"),
    ("runtime.bytes_read", "B"),
    ("runtime.bytes_written", "B"),
    ("runtime.seeks", "count"),
    ("runtime.bytes_per_input_byte", "ratio"),
    ("runtime.peak_resident_bytes", "B"),
    ("runtime.resident_over_ram", "ratio"),
    ("runtime.retries", "count"),
    ("runtime.bw_frac", "ratio"),
    ("runtime.pool_seq_write_mb_s", "MB/s"),
    ("runtime.pool_seq_read_mb_s", "MB/s"),
    ("runtime.pool_hit_read_mb_s", "MB/s"),
    ("calib.memcpy_mb_s", "MB/s"),
    ("calib.file_write_mb_s", "MB/s"),
    ("calib.file_read_mb_s", "MB/s"),
    ("obs.traced_over_untraced", "ratio"),
    ("obs.events", "count"),
];

pub type Metrics = BTreeMap<&'static str, f64>;

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Search, costing and tuning of one case, each alone. `synthesize`
/// pipelines the three; alone they show what each costs and what the
/// pipelining hides.
fn synthesis_stages(case: &Case, tr: &mut Option<Tracer>, m: &mut Metrics) -> Result<(), String> {
    let exp = &case.exp;
    let (found, search_s) = timed(tr, "rewrite.search", |_| exp.run_search(false, 0, None));
    let found = found.map_err(|e| e.to_string())?;
    add(m, "rewrite.search_s", search_s);
    add(m, "rewrite.explored", found.stats.explored as f64);
    add(m, "rewrite.generated", found.stats.generated as f64);
    add(
        m,
        "rewrite.rejected",
        (found.stats.rejected_type + found.stats.rejected_semantics) as f64,
    );
    add(m, "rewrite.arena_nodes", found.stats.arena_nodes as f64);

    let engine = CostEngine::new(
        &exp.hierarchy,
        &exp.layout,
        exp.spec.annots.clone(),
        exp.spec.stats.clone(),
        exp.spec.int_size,
    )
    .map_err(|e| e.to_string())?;
    let mut problems = Vec::new();
    let ((), cost_s) = timed(tr, "cost.estimate", |_| {
        for (program, _) in &found.programs {
            match engine.cost(program) {
                Ok(report) => problems.push(Problem {
                    objective: report.seconds,
                    params: report
                        .params
                        .iter()
                        .map(|p| ParamSpec::new(p.clone(), None))
                        .collect(),
                    constraints: report
                        .constraints
                        .into_iter()
                        .map(|c| (c.lhs, c.rhs))
                        .collect(),
                    fixed: exp.spec.stats.clone(),
                }),
                Err(_) => add(m, "cost.uncosted", 1.0),
            }
        }
    });
    add(m, "cost.estimate_s", cost_s);
    add(m, "cost.programs", found.programs.len() as f64);

    let mut tuned: Vec<(f64, usize)> = Vec::new();
    let ((), ladder_s) = timed(tr, "opt.ladder", |_| {
        for (i, p) in problems.iter().enumerate() {
            if let Ok(o) = ladder_search(p) {
                tuned.push((o.objective, i));
            }
        }
    });
    add(m, "opt.ladder_s", ladder_s);
    add(m, "opt.problems", problems.len() as f64);
    tuned.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let ((), refine_s) = timed(tr, "opt.refine", |_| {
        for (_, i) in tuned.iter().take(5) {
            let _ = std::hint::black_box(optimize(&problems[*i]));
        }
    });
    add(m, "opt.refine_s", refine_s);
    Ok(())
}

/// One real plan's data generation and faithful execution, alone: rows
/// generated onto a `StorageSim`, then the plan through the generic
/// executor on the simulator and on real files (CPU model and output
/// collection off), which differ only by the I/O stack under them.
fn engine_stages(
    case: &Case,
    plan: &Plan,
    seed: u64,
    tr: &mut Option<Tracer>,
    m: &mut Metrics,
) -> Result<(), String> {
    let h = &case.exp.hierarchy;
    let mut sim = Executor::new(
        StorageSim::from_hierarchy(h),
        Mode::Faithful,
        CpuModel::disabled(),
    )
    .with_output_collection(false);
    for (i, spec) in case.exp.rel_specs.iter().enumerate() {
        let (rel, dt) = timed(tr, "engine.gen", |_| {
            Relation::create(&mut sim.sm, spec, true, seed + i as u64)
        });
        sim.add_relation(rel.map_err(|e| e.to_string())?);
        add(m, "engine.gen_s", dt);
        if spec.sorted {
            add(m, "engine.gen_sorted_s", dt);
        }
        add(m, "engine.gen_rows", spec.card as f64);
    }
    let (on_sim, sim_s) = timed(tr, "engine.exec_sim", |_| sim.run(plan));
    let on_sim = on_sim.map_err(|e| e.to_string())?;
    drop(sim);

    let fb = FileBackend::from_hierarchy(h, PoolConfig::default()).map_err(|e| e.to_string())?;
    let mut file =
        Executor::new(fb, Mode::Faithful, CpuModel::disabled()).with_output_collection(false);
    for (i, spec) in case.exp.rel_specs.iter().enumerate() {
        let rel = Relation::create(&mut file.sm, spec, true, seed + i as u64)
            .map_err(|e| e.to_string())?;
        file.add_relation(rel);
    }
    let (on_file, file_s) = timed(tr, "engine.exec_file", |_| file.run(plan));
    let on_file = on_file.map_err(|e| e.to_string())?;
    if (on_sim.output_rows, on_sim.output_digest) != (on_file.output_rows, on_file.output_digest) {
        return Err(format!(
            "{}: generic executor disagrees between simulator and files",
            case.exp.name
        ));
    }
    add(m, "engine.exec_sim_s", sim_s);
    add(m, "engine.exec_file_s", file_s);
    add(m, "engine.compares", on_file.compares as f64);
    add(m, "engine.output_rows", on_file.output_rows as f64);
    let peak = m.entry("engine.peak_resident_bytes").or_default();
    *peak = peak.max(on_file.peak_resident_bytes as f64);
    Ok(())
}

/// The runtime counters of the traced rep's real reports.
fn runtime_counters(cases: &[Case], rep: &RepOut, file_write_mb_s: f64, m: &mut Metrics) {
    let specs = cases.iter().flat_map(|c| &c.exp.rel_specs);
    let input = specs.map(|r| r.card * r.tuple_bytes()).sum::<u64>() as f64;
    let mut peak = 0.0f64;
    for r in rep.cases.iter().filter_map(|c| c.real.as_ref()) {
        add(m, "runtime.exec_s", r.wall_seconds);
        add(m, "runtime.io_s", r.io_seconds);
        for (_, p) in &r.pools {
            add(m, "runtime.pool_hits", p.hits as f64);
            add(m, "runtime.pool_misses", p.misses as f64);
            add(m, "runtime.pool_evictions", p.evictions as f64);
            add(m, "runtime.pool_write_backs", p.write_backs as f64);
        }
        for (_, d) in &r.real_devices {
            add(m, "runtime.bytes_read", d.bytes_read as f64);
            add(m, "runtime.bytes_written", d.bytes_written as f64);
            add(m, "runtime.seeks", d.seeks as f64);
        }
        peak = peak.max(r.peak_resident_bytes.unwrap_or(0) as f64);
        add(
            m,
            "runtime.retries",
            r.recovery.as_ref().map_or(0, |c| c.retries) as f64,
        );
    }
    let (exec, io) = (get(m, "runtime.exec_s"), get(m, "runtime.io_s"));
    let moved = get(m, "runtime.bytes_read") + get(m, "runtime.bytes_written");
    let (hits, misses) = (get(m, "runtime.pool_hits"), get(m, "runtime.pool_misses"));
    m.insert("runtime.cpu_s", exec - io);
    m.insert("runtime.pool_hit_ratio", ratio(hits, hits + misses));
    m.insert("runtime.bytes_per_input_byte", ratio(moved, input));
    m.insert("runtime.peak_resident_bytes", peak);
    m.insert("runtime.resident_over_ram", peak / REAL_RAM as f64);
    m.insert(
        "runtime.bw_frac",
        ratio(ratio(moved, exec), file_write_mb_s * 1e6),
    );
}

/// `BufferPool` driven directly: 64 MiB through 256 frames of 4 KiB,
/// written once, read once, then 512 KiB that fit read again and again.
fn pool_throughput(dev: &DeviceDir, m: &mut Metrics) -> Result<(), String> {
    const BYTES: usize = 64 << 20;
    const CHUNK: usize = 64 << 10;
    let path = dev.path.join("pool.bin");
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)
        .map_err(|e| e.to_string())?;
    file.set_len(BYTES as u64).map_err(|e| e.to_string())?;
    let mut pool = BufferPool::new(file, 4096, 256, PolicyKind::Lru);
    let mut buf = vec![0x3cu8; CHUNK];
    let mb = BYTES as f64 / 1e6;
    let err = |e: ocas_storage::StorageError| e.to_string();

    let t0 = Instant::now();
    for at in (0..BYTES).step_by(CHUNK) {
        pool.write(at as u64, &buf).map_err(err)?;
    }
    pool.flush().map_err(err)?;
    m.insert(
        "runtime.pool_seq_write_mb_s",
        mb / t0.elapsed().as_secs_f64(),
    );

    let t0 = Instant::now();
    for at in (0..BYTES).step_by(CHUNK) {
        pool.read(at as u64, &mut buf).map_err(err)?;
    }
    m.insert(
        "runtime.pool_seq_read_mb_s",
        mb / t0.elapsed().as_secs_f64(),
    );

    let resident = 512 << 10;
    let t0 = Instant::now();
    for i in 0..BYTES / CHUNK {
        pool.read(((i * CHUNK) % resident) as u64, &mut buf)
            .map_err(err)?;
    }
    std::hint::black_box(&buf);
    // The first pass over the resident range misses; 127 of 128 hit.
    m.insert(
        "runtime.pool_hit_read_mb_s",
        mb / t0.elapsed().as_secs_f64(),
    );
    drop(pool);
    std::fs::remove_file(&path).map_err(|e| e.to_string())
}

fn add(m: &mut Metrics, key: &'static str, v: f64) {
    *m.entry(key).or_default() += v;
}

fn get(m: &Metrics, key: &str) -> f64 {
    m.get(key).copied().unwrap_or(0.0)
}

/// Runs the layer pass and returns every per-layer metric, the traced
/// rep's operation count, and each failure met on the way.
pub fn layer_pass(
    wl: &mut Workload,
    dev: &DeviceDir,
    tr: &mut Option<Tracer>,
) -> Result<(Metrics, u64, Vec<String>), String> {
    let mut m = Metrics::new();
    let cal = calib::calibrate(&dev.path).map_err(|e| e.to_string())?;
    m.insert("calib.memcpy_mb_s", cal.memcpy_mb_s);
    m.insert("calib.file_write_mb_s", cal.file_write_mb_s);
    m.insert("calib.file_read_mb_s", cal.file_read_mb_s);

    // The traced rep: spans from outside, the program's own recorder off.
    // It is the first thing the tracer sees, so its root span is span 0.
    let rep = wl.rep(tr);
    let mut failures = rep.failures.clone();
    let tracer = tr.as_mut().expect("the layer pass needs a tracer");
    let (covered, unaccounted) = tracer.coverage(0);
    println!(
        "# layer spans cover {covered:.4} of the rep ({unaccounted:.4} s in bench.rep itself)"
    );
    if covered < 0.9 {
        failures.push(format!(
            "layer spans cover only {covered:.3} of the rep: {unaccounted:.3} s unaccounted"
        ));
    }
    for (metric, span) in [
        ("ocal.parse_s", "ocal.parse"),
        ("synth.pipeline_s", "synth.pipeline"),
        ("engine.lower_s", "engine.lower"),
    ] {
        let total = tracer.spans.iter().filter(|s| s.name == span);
        m.insert(metric, total.fold(0.0, |sum, s| sum + (s.end - s.start)));
    }
    // Everything after this belongs to the stages driven alone.
    tracer.rep = 1;
    m.insert("synth_s", rep.synth_s);
    m.insert("exec_s", rep.exec_s);
    m.insert(
        "failed_share",
        ratio(rep.failures.len() as f64, rep.attempted as f64),
    );
    if rep.cases.len() != wl.cases.len() {
        // A case broke off before its facts were recorded; the failure is
        // reported, the stages below need every case.
        return Ok((m, rep.attempted, failures));
    }
    let sims: Vec<(f64, f64)> = rep
        .cases
        .iter()
        .filter_map(|c| c.sim_seconds.map(|s| (s, c.est_seconds)))
        .collect();
    if !sims.is_empty() {
        let n = sims.len() as f64;
        m.insert(
            "model_err",
            sims.iter().map(|(s, e)| (s / e).ln().abs()).sum::<f64>() / n,
        );
        m.insert(
            "sim_plan_s",
            (sims.iter().map(|(s, _)| s.ln()).sum::<f64>() / n).exp(),
        );
    }

    if wl.kind == Kind::SimTable1 {
        let mut sim_seconds = 0.0;
        for c in &rep.cases {
            let io = c.sim_io.unwrap_or_default();
            sim_seconds += c.sim_seconds.unwrap_or(0.0);
            add(&mut m, "storage.sim_seeks", io.seeks as f64);
            add(&mut m, "storage.sim_bytes_read", io.bytes_read as f64);
            add(&mut m, "storage.sim_bytes_written", io.bytes_written as f64);
        }
        m.insert("storage.sim_exec_s", rep.exec_s);
        m.insert("storage.sim_s_per_wall_s", ratio(sim_seconds, rep.exec_s));
        return Ok((m, rep.attempted, failures));
    }

    // The program's own recorder on: what its tracing costs and how much
    // it records. Not on `sim-table1` (it has returned): the recorder turns
    // its 1.3e8 simulated requests into 5.7e8 events and the rep into 75 s.
    ocas_obs::start();
    let again = wl.rep(&mut None);
    let recorded = ocas_obs::finish().map_or(0, |t| t.metrics().events);
    failures.extend(again.failures.iter().cloned());
    m.insert(
        "obs.traced_over_untraced",
        ratio(again.stage_s(), rep.stage_s()),
    );
    m.insert("obs.events", recorded as f64);
    drop(again);

    for (case, out) in wl.cases.iter().zip(&rep.cases) {
        add(&mut m, "synth.costed", out.costed as f64);
        add(&mut m, "synth.uncosted", out.uncosted as f64);
        synthesis_stages(case, tr, &mut m)?;
    }
    let alone = get(&m, "rewrite.search_s")
        + get(&m, "cost.estimate_s")
        + get(&m, "opt.ladder_s")
        + get(&m, "opt.refine_s");
    let explored = get(&m, "rewrite.explored");
    m.insert("synth.overlap", ratio(alone, get(&m, "synth.pipeline_s")));
    m.insert(
        "rewrite.programs_per_s",
        ratio(explored, get(&m, "rewrite.search_s")),
    );
    m.insert(
        "rewrite.yield",
        ratio(explored, get(&m, "rewrite.generated")),
    );
    m.insert(
        "cost.us_per_program",
        ratio(get(&m, "cost.estimate_s") * 1e6, get(&m, "cost.programs")),
    );

    if wl.kind == Kind::Real {
        for (case, out) in wl.cases.iter().zip(&rep.cases) {
            if let Err(why) = engine_stages(case, &out.plan, wl.seed, tr, &mut m) {
                failures.push(why);
            }
        }
        let share = 1.0 - ratio(get(&m, "engine.exec_sim_s"), get(&m, "engine.exec_file_s"));
        m.insert("engine.io_stack_share", share);
        let rows = m.remove("engine.gen_rows").unwrap_or(0.0);
        m.insert(
            "engine.gen_mrows_per_s",
            ratio(rows / 1e6, get(&m, "engine.gen_s")),
        );
        runtime_counters(&wl.cases, &rep, cal.file_write_mb_s, &mut m);
        pool_throughput(dev, &mut m)?;
    }
    Ok((m, rep.attempted, failures))
}
