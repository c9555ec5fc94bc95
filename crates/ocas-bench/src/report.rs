//! Building and validating the `BENCH_*.json` trajectory document.
//!
//! One schema'd JSON file records everything the reproduction binaries
//! measure: the Table 1 rows, the Figure 8 points, the cache-miss
//! companion, and the real-I/O workloads with wall-clock and simulated
//! seconds side by side.

use crate::json::Json;
use ocas::experiments::{FaithfulScaleReport, Fig8Point, Row};
use ocas_engine::{CpuModel, Executor, JoinPred, MergeKind, Mode, Output, Plan, RelSpec, Relation};
use ocas_hierarchy::presets;
use ocas_runtime::{FileBackend, PoolConfig, RealReport, Runtime, RuntimeError};
use ocas_storage::{StorageBackend, StorageSim};

/// The document's schema tag; bump on breaking layout changes.
pub const SCHEMA: &str = "ocas-bench/v6";

/// One named real-I/O measurement.
pub struct RealRow {
    /// Workload name.
    pub name: String,
    /// Cardinality scale factor the workload ran at (entries are only
    /// regression-compared against a baseline at the same scale).
    pub scale: u64,
    /// The measured report.
    pub report: RealReport,
}

fn row_json(r: &Row) -> Json {
    Json::obj(vec![
        ("name", Json::str(&r.name)),
        ("spec_seconds", Json::num(r.spec_seconds)),
        ("opt_seconds", Json::num(r.opt_seconds)),
        ("act_seconds", Json::num(r.act_seconds)),
        ("search_space", Json::num(r.search_space as f64)),
        ("steps", Json::num(r.steps as f64)),
        ("ocas_seconds", Json::num(r.ocas_seconds)),
        ("best_program", Json::str(&r.best_program)),
    ])
}

fn fig8_json(p: &Fig8Point) -> Json {
    Json::obj(vec![
        ("panel", Json::str(p.panel)),
        ("label", Json::str(&p.label)),
        ("estimated_seconds", Json::num(p.estimated)),
        ("measured_seconds", Json::num(p.measured)),
    ])
}

fn real_json(r: &RealRow) -> Json {
    let bytes_read: u64 = r
        .report
        .real_devices
        .iter()
        .map(|(_, s)| s.bytes_read)
        .sum();
    let bytes_written: u64 = r
        .report
        .real_devices
        .iter()
        .map(|(_, s)| s.bytes_written)
        .sum();
    let (pool_hits, pool_misses) = r
        .report
        .pools
        .iter()
        .fold((0u64, 0u64), |(h, m), (_, p)| (h + p.hits, m + p.misses));
    Json::obj(vec![
        ("name", Json::str(&r.name)),
        ("scale", Json::num(r.scale as f64)),
        ("wall_seconds", Json::num(r.report.wall_seconds)),
        ("io_seconds", Json::num(r.report.io_seconds)),
        ("sim_seconds", Json::num(r.report.sim_seconds)),
        ("output_rows", Json::num(r.report.output.len() as f64)),
        ("outputs_match", Json::Bool(r.report.outputs_match())),
        ("bytes_read", Json::num(bytes_read as f64)),
        ("bytes_written", Json::num(bytes_written as f64)),
        ("pool_hits", Json::num(pool_hits as f64)),
        ("pool_misses", Json::num(pool_misses as f64)),
        ("direct_io", Json::Bool(r.report.direct_io)),
    ])
}

/// One engine data-path throughput measurement: a plan template executed
/// faithfully (real rows end to end) on one backend.
#[derive(Debug, Clone)]
pub struct EngineRow {
    /// Plan template name (`Plan::name`).
    pub template: String,
    /// `"sim"` (StorageSim) or `"real"` (FileBackend temp files).
    pub backend: String,
    /// Input tuples the template consumed.
    pub rows_in: u64,
    /// Output tuples the template produced.
    pub rows_out: u64,
    /// Host wall-clock seconds of the faithful execution.
    pub seconds: f64,
    /// `rows_in / seconds` — the data-path throughput the flat-batch
    /// representation is accountable for.
    pub rows_per_sec: f64,
}

fn engine_json(r: &EngineRow, before: Option<f64>) -> Json {
    let mut pairs = vec![
        ("template", Json::str(&r.template)),
        ("backend", Json::str(&r.backend)),
        ("rows_in", Json::num(r.rows_in as f64)),
        ("rows_out", Json::num(r.rows_out as f64)),
        ("seconds", Json::num(r.seconds)),
        ("rows_per_sec", Json::num(r.rows_per_sec)),
    ];
    if let Some(b) = before {
        pairs.push(("before_rows_per_sec", Json::num(b)));
        pairs.push((
            "speedup",
            Json::num(r.rows_per_sec / b.max(f64::MIN_POSITIVE)),
        ));
    }
    Json::obj(pairs)
}

/// The engine throughput workloads: every plan template, faithful mode,
/// sized so one run takes well under a second each at `scale = 1`.
pub fn engine_workloads(scale: u64) -> Vec<(Plan, Vec<RelSpec>)> {
    let s = scale.max(1);
    let out = |buf: u64| Output::ToDevice {
        device: "HDD".into(),
        buffer_bytes: buf,
    };
    vec![
        (
            Plan::BnlJoin {
                outer: 0,
                inner: 1,
                k1: 512,
                k2: 512,
                tiling: None,
                pred: JoinPred::KeyEq,
                order_inputs: false,
                output: out(1 << 16),
            },
            vec![
                RelSpec::pairs("R", "HDD", 6_000 * s).with_key_range(2_000 * s),
                RelSpec::pairs("S", "HDD", 4_000 * s).with_key_range(2_000 * s),
            ],
        ),
        (
            Plan::GraceJoin {
                left: 0,
                right: 1,
                partitions: 64,
                buffer_bytes: 1 << 20,
                spill: "HDD".into(),
                pred: JoinPred::KeyEq,
                output: out(1 << 16),
            },
            vec![
                RelSpec::pairs("R", "HDD", 300_000 * s).with_key_range(60_000 * s),
                RelSpec::pairs("S", "HDD", 200_000 * s).with_key_range(60_000 * s),
            ],
        ),
        (
            Plan::ExternalSort {
                input: 0,
                fan_in: 8,
                b_in: 4096,
                b_out: 16384,
                scratch: "HDD".into(),
                output: out(1 << 16),
            },
            vec![RelSpec::ints("L", "HDD", 1_000_000 * s)],
        ),
        (
            Plan::MergePass {
                left: 0,
                right: 1,
                kind: MergeKind::MultisetUnionSorted,
                b_in: 4096,
                output: out(1 << 16),
            },
            vec![
                RelSpec::ints("A", "HDD", 800_000 * s).sorted(),
                RelSpec::ints("B", "HDD", 800_000 * s).sorted(),
            ],
        ),
        (
            Plan::ColumnZip {
                columns: vec![0, 1, 2, 3, 4],
                b_in: 4096,
                output: out(1 << 16),
            },
            (1..=5)
                .map(|i| RelSpec::ints(&format!("C{i}"), "HDD", 300_000 * s))
                .collect(),
        ),
        (
            Plan::DedupSorted {
                input: 0,
                b_in: 4096,
                output: out(1 << 16),
            },
            vec![RelSpec::ints("L", "HDD", 1_000_000 * s)
                .sorted()
                .with_key_range(500_000 * s)],
        ),
        (
            Plan::Aggregate {
                input: 0,
                b_in: 4096,
            },
            vec![RelSpec::ints("L", "HDD", 2_000_000 * s)],
        ),
    ]
}

/// Creates the relations of one [`engine_workloads`] entry in `ex` and runs
/// `plan` faithfully, measuring host wall-clock throughput.
pub fn engine_run<B: StorageBackend>(
    mut ex: Executor<B>,
    plan: &Plan,
    specs: &[RelSpec],
    backend: &str,
) -> Result<EngineRow, RuntimeError> {
    let mut rows_in = 0u64;
    for (i, spec) in specs.iter().enumerate() {
        rows_in += spec.card;
        let rel = Relation::create(&mut ex.sm, spec, true, 100 + i as u64)
            .map_err(ocas_engine::ExecError::from)?;
        ex.add_relation(rel);
    }
    let t0 = std::time::Instant::now();
    let stats = ex.run(plan)?;
    let seconds = t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
    Ok(EngineRow {
        template: plan.name().to_string(),
        backend: backend.to_string(),
        rows_in,
        rows_out: stats.output_rows,
        seconds,
        rows_per_sec: rows_in as f64 / seconds,
    })
}

/// Measures faithful data-path throughput (host rows/sec) for every plan
/// template on both backends. `scale` multiplies the input cardinalities.
pub fn engine_throughput(scale: u64) -> Result<Vec<EngineRow>, RuntimeError> {
    let mut out = Vec::new();
    for (plan, specs) in engine_workloads(scale) {
        let h = presets::hdd_ram(64 << 20);
        let sim = Executor::new(
            StorageSim::from_hierarchy(&h),
            Mode::Faithful,
            CpuModel::disabled(),
        );
        out.push(engine_run(sim, &plan, &specs, "sim")?);

        let fb = FileBackend::from_hierarchy(&h, PoolConfig::default())?;
        let real = Executor::new(fb, Mode::Faithful, CpuModel::disabled());
        out.push(engine_run(real, &plan, &specs, "real")?);
    }
    Ok(out)
}

/// One observability row: a representative workload run under the
/// `ocas-obs` recorder, reduced to the trace's flat metric totals (the
/// document's `obs` section) plus the Chrome trace-event export.
#[derive(Debug, Clone)]
pub struct ObsRow {
    /// Row name. `sim:` rows are fully deterministic (every event lives on
    /// the simulated clock); `real:` rows have deterministic counters and
    /// event counts but wall-clock span seconds.
    pub name: String,
    /// Total recorded occurrences (retained events plus merged folds).
    pub events: u64,
    /// Summed span seconds on the simulated clock.
    pub sim_span_seconds: f64,
    /// Summed span seconds on the wall clock.
    pub wall_span_seconds: f64,
    /// Counter totals keyed `"track/name"`.
    pub counters: std::collections::BTreeMap<String, f64>,
    /// The recording exported as Chrome trace-event JSON.
    pub chrome_trace: String,
}

fn obs_reduce(name: &str, trace: &ocas_obs::Trace) -> ObsRow {
    let m = trace.metrics();
    ObsRow {
        name: name.to_string(),
        events: m.events,
        // `+ 0.0` normalizes the empty sum (`Sum for f64` folds from -0.0).
        sim_span_seconds: m.sim_span_seconds.values().sum::<f64>() + 0.0,
        wall_span_seconds: m.wall_span_seconds.values().sum::<f64>() + 0.0,
        counters: m.counters,
        chrome_trace: trace.to_chrome_json(),
    }
}

/// Runs the two observability workloads under the recorder:
///
/// * `sim:set-union` — a full synthesize + execute pass on the simulator.
///   Search-level spans, per-rule counters and device/CPU attribution
///   spans are all on the deterministic clock, so `bench_json --check`
///   gates the counters *and* the simulated span seconds exactly.
/// * `real:grace-join` — the GRACE-join engine workload on the
///   [`FileBackend`]. Pool counters (hits/misses/evictions/write-backs)
///   and the event count are deterministic; wall span seconds are not.
pub fn obs_rows() -> Result<Vec<ObsRow>, String> {
    let mut out = Vec::new();

    ocas_obs::start();
    let sim = (|| {
        let e = ocas::experiments::set_union();
        let synth = e.synthesize()?;
        e.execute(&synth)?;
        Ok::<(), ocas::experiments::ExpError>(())
    })();
    let trace = ocas_obs::finish().unwrap_or_default();
    sim.map_err(|e| format!("obs `sim:set-union` failed: {e}"))?;
    out.push(obs_reduce("sim:set-union", &trace));

    ocas_obs::start();
    let real = (|| {
        let (plan, specs) = engine_workloads(1)
            .into_iter()
            .nth(1)
            .expect("the GRACE-join workload");
        let h = presets::hdd_ram(64 << 20);
        let fb = FileBackend::from_hierarchy(&h, PoolConfig::default())?;
        let ex = Executor::new(fb, Mode::Faithful, CpuModel::disabled());
        engine_run(ex, &plan, &specs, "real")?;
        Ok::<(), RuntimeError>(())
    })();
    let trace = ocas_obs::finish().unwrap_or_default();
    real.map_err(|e| format!("obs `real:grace-join` failed: {e}"))?;
    out.push(obs_reduce("real:grace-join", &trace));

    Ok(out)
}

fn obs_json(r: &ObsRow) -> Json {
    let counters = Json::Obj(
        r.counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::num(*v)))
            .collect(),
    );
    Json::obj(vec![
        ("name", Json::str(&r.name)),
        ("events", Json::num(r.events as f64)),
        ("sim_span_seconds", Json::num(r.sim_span_seconds)),
        ("wall_span_seconds", Json::num(r.wall_span_seconds)),
        ("counters", counters),
    ])
}

/// Checks that `doc` is a Chrome trace-event document Perfetto will load:
/// a `traceEvents` array whose entries carry `ph`/`pid`/`tid`/`ts`, with
/// a `name` on metadata/span/counter events and a `dur` on complete
/// (`"X"`) events.
pub fn validate_chrome_trace(doc: &Json) -> Result<(), String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;
    if events.is_empty() {
        return Err("empty `traceEvents`".into());
    }
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("traceEvents[{i}] missing `ph`"))?;
        for field in ["pid", "tid"] {
            if e.get(field).and_then(Json::as_num).is_none() {
                return Err(format!("traceEvents[{i}] missing numeric `{field}`"));
            }
        }
        match ph {
            "M" => {}
            "X" => {
                for field in ["ts", "dur"] {
                    if e.get(field).and_then(Json::as_num).is_none() {
                        return Err(format!("traceEvents[{i}] missing numeric `{field}`"));
                    }
                }
            }
            "C" => {
                if e.get("ts").and_then(Json::as_num).is_none() {
                    return Err(format!("traceEvents[{i}] missing numeric `ts`"));
                }
            }
            other => return Err(format!("traceEvents[{i}] has unknown phase `{other}`")),
        }
        if e.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("traceEvents[{i}] missing `name`"));
        }
    }
    Ok(())
}

/// The faithful-scale twin workloads (relation strictly larger than the
/// RAM device, streamed generation, digest-compared twins) at the
/// committed baseline scale.
pub fn faithful_scale_rows() -> Result<Vec<FaithfulScaleReport>, ocas::experiments::ExpError> {
    ocas::experiments::faithful_scale(1)
}

fn faithful_json(r: &FaithfulScaleReport) -> Json {
    Json::obj(vec![
        ("name", Json::str(&r.name)),
        ("relation_bytes", Json::num(r.relation_bytes as f64)),
        ("ram_bytes", Json::num(r.ram_bytes as f64)),
        ("output_rows", Json::num(r.output_rows as f64)),
        // The digest is a full u64: stored as hex text because JSON
        // numbers (f64) cannot carry 64 bits exactly.
        ("digest", Json::str(format!("{:016x}", r.output_digest))),
        ("outputs_match", Json::Bool(r.outputs_match)),
        ("peak_bounded", Json::Bool(r.peak_bounded())),
        ("sim_peak_resident", Json::num(r.sim_peak_resident as f64)),
        ("real_peak_resident", Json::num(r.real_peak_resident as f64)),
        ("sim_seconds", Json::num(r.sim_seconds)),
        ("wall_seconds", Json::num(r.wall_seconds)),
    ])
}

/// One synthesis-search benchmark entry: the arena/parallel engine vs the
/// legacy reference engine on one Table 1 row's exact search settings.
#[derive(Debug, Clone)]
pub struct SynthesisRow {
    /// Table 1 row name.
    pub name: String,
    /// Distinct programs explored (identical for both engines by the
    /// determinism contract; `bench_json --check` compares it exactly).
    pub explored: usize,
    /// Candidates generated before deduplication.
    pub generated: usize,
    /// Candidates rejected by the type checker.
    pub rejected_type: usize,
    /// Candidates rejected by differential validation.
    pub rejected_semantics: usize,
    /// Longest derivation.
    pub depth_reached: u32,
    /// Distinct hash-consed nodes in the arena engine's term store.
    pub arena_nodes: usize,
    /// Arena engine search wall seconds (best of [`SYNTH_BENCH_RUNS`]).
    pub seconds: f64,
    /// Legacy reference engine wall seconds (best of the same runs).
    pub reference_seconds: f64,
    /// `reference_seconds / seconds`.
    pub speedup: f64,
    /// `explored / seconds`.
    pub programs_per_sec: f64,
}

/// Timing repetitions per engine in [`synthesis_stats`]; the best run is
/// reported (single-machine wall clocks are noisy at the tens of
/// milliseconds these searches take).
pub const SYNTH_BENCH_RUNS: usize = 3;

/// Regression floor for the synthesis `speedup` ratio: a fresh run may not
/// fall below `baseline_speedup / SYNTH_SPEEDUP_TOLERANCE`. The ratio pits
/// two engines run back-to-back on the same machine, so it is far more
/// stable than absolute wall clocks — it gets a real floor instead of the
/// generous `--check-tolerance` the clocks need.
pub const SYNTH_SPEEDUP_TOLERANCE: f64 = 2.0;

/// Measures the synthesis search on the two largest-search Table 1 rows:
/// both engines at the rows' exact Table 1 settings (validation on, the
/// rows' rule exclusions). Panics if the engines disagree on any
/// deterministic statistic — the same invariant the parity regression test
/// pins across all sixteen rows.
pub fn synthesis_stats() -> Vec<SynthesisRow> {
    let rows = [
        ocas::experiments::bnl_no_writeout(),
        ocas::experiments::bnl_with_cache(),
    ];
    let mut out = Vec::new();
    for e in rows {
        let mut best_new = f64::INFINITY;
        let mut best_ref = f64::INFINITY;
        let mut result = None;
        for _ in 0..SYNTH_BENCH_RUNS {
            let reference = e
                .run_search(true, 1, None)
                .expect("reference search must succeed");
            best_ref = best_ref.min(reference.stats.seconds);
            // workers = 1: the committed ratio isolates the arena engine
            // itself (zipper dedup, interned keys, check exemptions) and
            // stays comparable across machines with different core counts;
            // parallel frontier expansion is a further machine-dependent
            // win on top.
            let arena = e
                .run_search(false, 1, None)
                .expect("arena search must succeed");
            best_new = best_new.min(arena.stats.seconds);
            assert_eq!(
                reference.stats.deterministic(),
                arena.stats.deterministic(),
                "engines diverged on `{}`",
                e.name
            );
            result = Some(arena);
        }
        let stats = result.expect("at least one run").stats;
        out.push(SynthesisRow {
            name: e.name.clone(),
            explored: stats.explored,
            generated: stats.generated,
            rejected_type: stats.rejected_type,
            rejected_semantics: stats.rejected_semantics,
            depth_reached: stats.depth_reached,
            arena_nodes: stats.arena_nodes,
            seconds: best_new,
            reference_seconds: best_ref,
            speedup: best_ref / best_new.max(f64::MIN_POSITIVE),
            programs_per_sec: stats.explored as f64 / best_new.max(f64::MIN_POSITIVE),
        });
    }
    out
}

fn synthesis_json(r: &SynthesisRow) -> Json {
    Json::obj(vec![
        ("name", Json::str(&r.name)),
        ("explored", Json::num(r.explored as f64)),
        ("generated", Json::num(r.generated as f64)),
        ("rejected_type", Json::num(r.rejected_type as f64)),
        ("rejected_semantics", Json::num(r.rejected_semantics as f64)),
        ("depth_reached", Json::num(r.depth_reached as f64)),
        ("arena_nodes", Json::num(r.arena_nodes as f64)),
        ("seconds", Json::num(r.seconds)),
        ("reference_seconds", Json::num(r.reference_seconds)),
        ("speedup", Json::num(r.speedup)),
        ("programs_per_sec", Json::num(r.programs_per_sec)),
    ])
}

/// Figure 7 device constants (sizes and page sizes of the paper platform).
fn figures_json() -> Json {
    let h = presets::paper_platform(32 << 20);
    let devices: Vec<Json> = h
        .ids()
        .map(|id| {
            let n = h.node(id);
            Json::obj(vec![
                ("name", Json::str(&n.name)),
                ("size_bytes", Json::num(n.size as f64)),
                ("pagesize_bytes", Json::num(n.pagesize as f64)),
            ])
        })
        .collect();
    Json::obj(vec![("paper_platform_devices", Json::Arr(devices))])
}

/// Looks up a prior document's `engine` entry for `(template, backend)`
/// and returns the before-number of the trajectory pair: the prior
/// entry's own `before_rows_per_sec` when it carries one (so the
/// trajectory stays anchored at the original baseline instead of
/// ratcheting forward on every regeneration), else its `rows_per_sec`.
fn engine_before(doc: &Json, template: &str, backend: &str) -> Option<f64> {
    doc.get("engine")?.as_arr()?.iter().find_map(|e| {
        let t = e.get("template")?.as_str()?;
        let b = e.get("backend")?.as_str()?;
        if t == template && b == backend {
            e.get("before_rows_per_sec")
                .and_then(Json::as_num)
                .or_else(|| e.get("rows_per_sec").and_then(Json::as_num))
        } else {
            None
        }
    })
}

/// Assembles the full document. `engine_baseline` is an earlier document
/// whose `engine` section provides the before-numbers of the trajectory
/// (each entry then carries `before_rows_per_sec` and `speedup`).
#[allow(clippy::too_many_arguments)]
pub fn bench_doc(
    table1: &[Row],
    figure8: &[Fig8Point],
    cache_misses: Option<(u64, u64)>,
    real: &[RealRow],
    engine: &[EngineRow],
    synthesis: &[SynthesisRow],
    faithful: &[FaithfulScaleReport],
    obs: &[ObsRow],
    chaos: &[ChaosRow],
    engine_baseline: Option<&Json>,
) -> Json {
    let engine_entries: Vec<Json> = engine
        .iter()
        .map(|r| {
            let before = engine_baseline.and_then(|d| engine_before(d, &r.template, &r.backend));
            engine_json(r, before)
        })
        .collect();
    let mut pairs = vec![
        ("schema", Json::str(SCHEMA)),
        ("table1", Json::Arr(table1.iter().map(row_json).collect())),
        (
            "figure8",
            Json::Arr(figure8.iter().map(fig8_json).collect()),
        ),
        ("figures", figures_json()),
        ("engine", Json::Arr(engine_entries)),
        (
            "synthesis",
            Json::Arr(synthesis.iter().map(synthesis_json).collect()),
        ),
        (
            "faithful_scale",
            Json::Arr(faithful.iter().map(faithful_json).collect()),
        ),
        ("obs", Json::Arr(obs.iter().map(obs_json).collect())),
        ("chaos", Json::Arr(chaos.iter().map(chaos_json).collect())),
        ("real", Json::Arr(real.iter().map(real_json).collect())),
    ];
    if let Some((untiled, tiled)) = cache_misses {
        pairs.insert(
            4,
            (
                "cache_misses",
                Json::obj(vec![
                    ("untiled", Json::num(untiled as f64)),
                    ("tiled", Json::num(tiled as f64)),
                ]),
            ),
        );
    }
    Json::obj(pairs)
}

/// Checks a document against the [`SCHEMA`] schema. Sections may be
/// empty arrays (a partial regeneration) but must be present and
/// well-typed; every `real` entry must carry both clocks.
pub fn validate_bench_doc(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema`")?;
    if schema != SCHEMA {
        return Err(format!("schema `{schema}` is not `{SCHEMA}`"));
    }
    let sections: [(&str, &[&str]); 8] = [
        (
            "obs",
            &["name", "events", "sim_span_seconds", "wall_span_seconds"],
        ),
        (
            "chaos",
            &[
                "workload",
                "chaos_seed",
                "runs",
                "identical",
                "typed_errors",
                "wrong_answers",
                "leaked_dirs",
                "faults_injected",
                "retries",
            ],
        ),
        (
            "table1",
            &[
                "name",
                "spec_seconds",
                "opt_seconds",
                "act_seconds",
                "search_space",
            ],
        ),
        (
            "figure8",
            &["panel", "label", "estimated_seconds", "measured_seconds"],
        ),
        (
            "engine",
            &[
                "template",
                "backend",
                "rows_in",
                "rows_out",
                "seconds",
                "rows_per_sec",
            ],
        ),
        (
            "synthesis",
            &[
                "name",
                "explored",
                "generated",
                "rejected_type",
                "rejected_semantics",
                "depth_reached",
                "seconds",
                "reference_seconds",
                "speedup",
            ],
        ),
        (
            "faithful_scale",
            &[
                "name",
                "relation_bytes",
                "ram_bytes",
                "output_rows",
                "digest",
                "outputs_match",
                "peak_bounded",
                "sim_peak_resident",
                "real_peak_resident",
                "wall_seconds",
            ],
        ),
        (
            "real",
            &[
                "name",
                "wall_seconds",
                "io_seconds",
                "sim_seconds",
                "output_rows",
                "outputs_match",
                "bytes_read",
                "bytes_written",
            ],
        ),
    ];
    for (section, fields) in sections {
        let arr = doc
            .get(section)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing array `{section}`"))?;
        for (i, entry) in arr.iter().enumerate() {
            for field in fields {
                let v = entry
                    .get(field)
                    .ok_or_else(|| format!("{section}[{i}] missing `{field}`"))?;
                let ok = match *field {
                    "name" | "panel" | "label" | "best_program" | "template" | "backend"
                    | "digest" | "workload" => v.as_str().is_some(),
                    "outputs_match" | "peak_bounded" => matches!(v, Json::Bool(_)),
                    _ => v.as_num().is_some(),
                };
                if !ok {
                    return Err(format!("{section}[{i}].{field} has the wrong type"));
                }
            }
        }
    }
    if let Some(arr) = doc.get("obs").and_then(Json::as_arr) {
        for (i, entry) in arr.iter().enumerate() {
            let counters = entry
                .get("counters")
                .ok_or_else(|| format!("obs[{i}] missing `counters`"))?;
            let Json::Obj(pairs) = counters else {
                return Err(format!("obs[{i}].counters is not an object"));
            };
            for (k, v) in pairs {
                if v.as_num().is_none() {
                    return Err(format!("obs[{i}].counters.{k} is not a number"));
                }
            }
        }
    }
    doc.get("figures")
        .and_then(|f| f.get("paper_platform_devices"))
        .and_then(Json::as_arr)
        .ok_or("missing `figures.paper_platform_devices`")?;
    Ok(())
}

/// Compares a freshly generated document against a committed baseline.
///
/// Determinism invariants (same seeds, same plans) are exact: `real`
/// entries matched by name must agree on `output_rows`, `bytes_read` and
/// `bytes_written`, and must have `outputs_match = true`. Timing is
/// machine-dependent, so `wall_seconds` may only regress by `tolerance`×
/// over the baseline, and `engine` throughput (matched by template +
/// backend) may only drop to `1/tolerance` of the baseline. Entries present
/// on one side only are skipped (workloads evolve across trajectory
/// points). Returns the number of entries compared, or the list of
/// violations.
pub fn check_regressions(
    doc: &Json,
    baseline: &Json,
    tolerance: f64,
) -> Result<usize, Vec<String>> {
    let tol = tolerance.max(1.0);
    let mut failures = Vec::new();
    let mut compared = 0usize;

    let arr = |d: &Json, key: &str| -> Vec<Json> {
        d.get(key)
            .and_then(Json::as_arr)
            .map(|a| a.to_vec())
            .unwrap_or_default()
    };

    for entry in arr(doc, "real") {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let Some(base) = arr(baseline, "real")
            .into_iter()
            .find(|b| b.get("name").and_then(Json::as_str) == Some(&name))
        else {
            continue;
        };
        // A run at a different cardinality scale than the baseline is a
        // different workload — its row counts, byte totals and wall clock
        // are all legitimately different (the nightly runs scaled; the
        // committed baseline is scale 1). Only same-scale entries compare.
        let scale_of = |e: &Json| e.get("scale").and_then(Json::as_num).unwrap_or(1.0);
        if scale_of(&entry) != scale_of(&base) {
            continue;
        }
        compared += 1;
        let num = |e: &Json, f: &str| e.get(f).and_then(Json::as_num).unwrap_or(f64::NAN);
        for field in ["output_rows", "bytes_read", "bytes_written"] {
            let (got, want) = (num(&entry, field), num(&base, field));
            if got != want {
                failures.push(format!("real `{name}`: {field} {got} != baseline {want}"));
            }
        }
        if entry.get("outputs_match") != Some(&Json::Bool(true)) {
            failures.push(format!("real `{name}`: outputs_match is not true"));
        }
        let (wall, base_wall) = (num(&entry, "wall_seconds"), num(&base, "wall_seconds"));
        if wall > tol * base_wall {
            failures.push(format!(
                "real `{name}`: wall_seconds {wall:.4} > {tol}x baseline {base_wall:.4}"
            ));
        }
    }

    for entry in arr(doc, "faithful_scale") {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let Some(base) = arr(baseline, "faithful_scale")
            .into_iter()
            .find(|b| b.get("name").and_then(Json::as_str) == Some(&name))
        else {
            continue;
        };
        compared += 1;
        let num = |e: &Json, f: &str| e.get(f).and_then(Json::as_num).unwrap_or(f64::NAN);
        // Same seeds, same plans: sizes, rows and the emission digest are
        // deterministic — compare exactly. The digest is the *only*
        // output witness at this scale (collection is off), so drift here
        // means the streamed generator or an operator changed data.
        for field in ["relation_bytes", "ram_bytes", "output_rows"] {
            let (got, want) = (num(&entry, field), num(&base, field));
            if got != want {
                failures.push(format!(
                    "faithful_scale `{name}`: {field} {got} != baseline {want}"
                ));
            }
        }
        let digest = |e: &Json| e.get("digest").and_then(Json::as_str).map(str::to_string);
        if digest(&entry) != digest(&base) {
            failures.push(format!(
                "faithful_scale `{name}`: digest {:?} != baseline {:?}",
                digest(&entry),
                digest(&base)
            ));
        }
        // The twins must agree and the peaks must stay below the RAM
        // device — these are the claims, not measurements.
        for flag in ["outputs_match", "peak_bounded"] {
            if entry.get(flag) != Some(&Json::Bool(true)) {
                failures.push(format!("faithful_scale `{name}`: {flag} is not true"));
            }
        }
        let (wall, base_wall) = (num(&entry, "wall_seconds"), num(&base, "wall_seconds"));
        if wall > tol * base_wall {
            failures.push(format!(
                "faithful_scale `{name}`: wall_seconds {wall:.4} > {tol}x baseline {base_wall:.4}"
            ));
        }
    }

    for entry in arr(doc, "synthesis") {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let Some(base) = arr(baseline, "synthesis")
            .into_iter()
            .find(|b| b.get("name").and_then(Json::as_str) == Some(&name))
        else {
            continue;
        };
        compared += 1;
        let num = |e: &Json, f: &str| e.get(f).and_then(Json::as_num).unwrap_or(f64::NAN);
        // The explored space is deterministic by the engine contract:
        // compare exactly. Any drift here means the search changed (or the
        // parallel merge broke) and must be an explicit baseline update.
        for field in [
            "explored",
            "generated",
            "rejected_type",
            "rejected_semantics",
            "depth_reached",
        ] {
            let (got, want) = (num(&entry, field), num(&base, field));
            if got != want {
                failures.push(format!(
                    "synthesis `{name}`: {field} {got} != baseline {want}"
                ));
            }
        }
        let (secs, base_secs) = (num(&entry, "seconds"), num(&base, "seconds"));
        if secs > tol * base_secs {
            failures.push(format!(
                "synthesis `{name}`: seconds {secs:.4} > {tol}x baseline {base_secs:.4}"
            ));
        }
        // The committed speedup (arena engine vs legacy reference) may not
        // collapse: both engines run back-to-back on the same machine, so
        // the ratio gets a real floor (SYNTH_SPEEDUP_TOLERANCE), not the
        // generous wall-clock tolerance.
        let (speedup, base_speedup) = (num(&entry, "speedup"), num(&base, "speedup"));
        if speedup * SYNTH_SPEEDUP_TOLERANCE < base_speedup {
            failures.push(format!(
                "synthesis `{name}`: speedup {speedup:.2}x < baseline {base_speedup:.2}x / {SYNTH_SPEEDUP_TOLERANCE}"
            ));
        }
    }

    for entry in arr(doc, "obs") {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let Some(base) = arr(baseline, "obs")
            .into_iter()
            .find(|b| b.get("name").and_then(Json::as_str) == Some(&name))
        else {
            continue;
        };
        compared += 1;
        let num = |e: &Json, f: &str| e.get(f).and_then(Json::as_num).unwrap_or(f64::NAN);
        // Counters and event counts are deterministic by the recorder
        // contract (same seeds, same plans, worker-count-invariant
        // recording): compare the whole counter map exactly. Drift means
        // the instrumentation or the workload changed and must be an
        // explicit baseline update.
        let (got, want) = (num(&entry, "events"), num(&base, "events"));
        if got != want {
            failures.push(format!("obs `{name}`: events {got} != baseline {want}"));
        }
        let counters = |e: &Json| -> Vec<(String, f64)> {
            match e.get("counters") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_num().unwrap_or(f64::NAN)))
                    .collect(),
                _ => Vec::new(),
            }
        };
        let (got_c, want_c) = (counters(&entry), counters(&base));
        if got_c != want_c {
            failures.push(format!(
                "obs `{name}`: counters {got_c:?} != baseline {want_c:?}"
            ));
        }
        // Span seconds carry timing: wall seconds are machine noise, and
        // even simulated totals get the tolerance (they move legitimately
        // whenever the cost model or a workload constant is tuned).
        for field in ["sim_span_seconds", "wall_span_seconds"] {
            let (secs, base_secs) = (num(&entry, field), num(&base, field));
            if secs > tol * base_secs.max(f64::MIN_POSITIVE) {
                failures.push(format!(
                    "obs `{name}`: {field} {secs:.4} > {tol}x baseline {base_secs:.4}"
                ));
            }
        }
    }

    for entry in arr(doc, "chaos") {
        let name = entry
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let num = |e: &Json, f: &str| e.get(f).and_then(Json::as_num).unwrap_or(f64::NAN);
        // Trichotomy violations fail regardless of any baseline: a wrong
        // answer or a leaked temp dir under faults is a robustness bug, not
        // a regression to tolerate.
        for field in ["wrong_answers", "leaked_dirs"] {
            let got = num(&entry, field);
            if got != 0.0 {
                failures.push(format!("chaos `{name}`: {field} {got} != 0"));
            }
        }
        let Some(base) = arr(baseline, "chaos")
            .into_iter()
            .find(|b| b.get("workload").and_then(Json::as_str) == Some(&name))
        else {
            continue;
        };
        // A sweep at a different fault seed than the baseline is a
        // different experiment — its outcome and counter totals are all
        // legitimately different (the nightly runs randomized seeds; the
        // committed baseline is the fixed default). Only same-seed sweeps
        // compare, mirroring the real-I/O scale skip above.
        if num(&entry, "chaos_seed") != num(&base, "chaos_seed") {
            continue;
        }
        compared += 1;
        // Same seed, same plans: every outcome and recovery counter is
        // deterministic — compare exactly. Drift means fault injection,
        // retry or degradation behavior changed and must be an explicit
        // baseline update.
        for field in [
            "runs",
            "identical",
            "typed_errors",
            "faults_injected",
            "retries",
            "retry_successes",
            "gave_up",
            "degraded_shrinks",
            "degraded_failovers",
            "corrupt_pages_detected",
        ] {
            let (got, want) = (num(&entry, field), num(&base, field));
            if got != want {
                failures.push(format!("chaos `{name}`: {field} {got} != baseline {want}"));
            }
        }
    }

    for entry in arr(doc, "engine") {
        let template = entry
            .get("template")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let backend = entry
            .get("backend")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let Some(base) = arr(baseline, "engine").into_iter().find(|b| {
            b.get("template").and_then(Json::as_str) == Some(&template)
                && b.get("backend").and_then(Json::as_str) == Some(&backend)
        }) else {
            continue;
        };
        compared += 1;
        let num = |e: &Json, f: &str| e.get(f).and_then(Json::as_num).unwrap_or(f64::NAN);
        if num(&entry, "rows_in") == num(&base, "rows_in") {
            let (rps, base_rps) = (num(&entry, "rows_per_sec"), num(&base, "rows_per_sec"));
            if rps * tol < base_rps {
                failures.push(format!(
                    "engine `{template}/{backend}`: rows_per_sec {rps:.0} < baseline {base_rps:.0} / {tol}"
                ));
            }
        }
    }

    if failures.is_empty() {
        Ok(compared)
    } else {
        Err(failures)
    }
}

/// One chaos-suite aggregate: one synthesized workload's seeded fault
/// sweep ([`CHAOS_SEEDS_PER_WORKLOAD`] fault plans, both backends),
/// reduced to trichotomy and recovery-counter totals. Everything in it is
/// deterministic in `chaos_seed`, so `bench_json --check` gates the
/// counters exactly when the seeds match.
pub struct ChaosRow {
    /// Workload name (`sort`, `grace`, `union`, `dedup`).
    pub workload: String,
    /// The sweep's base fault seed (`--chaos-seed`).
    pub chaos_seed: u64,
    /// Aggregated outcomes and recovery counters.
    pub summary: ocas::chaos::ChaosSummary,
}

/// Fault seeds per workload in the bench chaos sweep (each seed runs on
/// both backends, so one row aggregates `2 ×` this many executions).
pub const CHAOS_SEEDS_PER_WORKLOAD: u64 = 6;

/// Runs the bench-scale chaos sweep: the four synthesized Table 1
/// workloads under seeded fault plans on both backends. The returned rows
/// are deterministic in `chaos_seed`; a trichotomy violation is reported
/// in the row (the binary fails on it), never panicked over here.
pub fn chaos_rows(chaos_seed: u64) -> Result<Vec<ChaosRow>, String> {
    let workloads = ocas::chaos::table1_workloads()
        .map_err(|e| format!("chaos workload synthesis failed: {e}"))?;
    let mut out = Vec::new();
    for w in &workloads {
        let mut runs = Vec::new();
        for i in 0..CHAOS_SEEDS_PER_WORKLOAD {
            let seed = chaos_seed.wrapping_mul(10_000).wrapping_add(i);
            runs.push(ocas::chaos::run_file(w, seed));
            runs.push(ocas::chaos::run_sim(w, seed));
        }
        out.push(ChaosRow {
            workload: w.name.to_string(),
            chaos_seed,
            summary: ocas::chaos::summarize(&runs),
        });
    }
    Ok(out)
}

fn chaos_json(r: &ChaosRow) -> Json {
    let s = &r.summary;
    let c = &s.counters;
    Json::obj(vec![
        ("workload", Json::str(&r.workload)),
        ("chaos_seed", Json::num(r.chaos_seed as f64)),
        ("runs", Json::num(s.runs as f64)),
        ("identical", Json::num(s.identical as f64)),
        ("typed_errors", Json::num(s.typed_errors as f64)),
        ("wrong_answers", Json::num(s.wrong_answers as f64)),
        ("leaked_dirs", Json::num(s.leaked_dirs as f64)),
        ("faults_injected", Json::num(c.faults_injected as f64)),
        ("retries", Json::num(c.retries as f64)),
        ("retry_successes", Json::num(c.retry_successes as f64)),
        ("gave_up", Json::num(c.gave_up as f64)),
        ("degraded_shrinks", Json::num(c.degraded_shrinks as f64)),
        ("degraded_failovers", Json::num(c.degraded_failovers as f64)),
        (
            "corrupt_pages_detected",
            Json::num(c.corrupt_pages_detected as f64),
        ),
    ])
}

/// The real-I/O workloads the trajectory tracks: a GRACE hash join and a
/// 2ᵏ-way external merge-sort at faithful scale (`scale` multiplies the
/// base cardinalities; 1 is a sub-second smoke size). `disk_bound` runs
/// them in the fsync/`O_DIRECT` disk-bounded timing mode.
pub fn real_workloads(scale: u64, disk_bound: bool) -> Result<Vec<RealRow>, RuntimeError> {
    let scale = scale.max(1);
    let h = presets::hdd_ram(8 << 20);
    let mut rt = Runtime::new(h);
    if disk_bound {
        rt = rt.with_pool(PoolConfig {
            timing: ocas_runtime::TimingMode::DiskBounded,
            ..PoolConfig::default()
        });
    }

    let grace = rt.run_plan(
        &Plan::GraceJoin {
            left: 0,
            right: 1,
            partitions: 16,
            buffer_bytes: 1 << 14,
            spill: "HDD".into(),
            pred: JoinPred::KeyEq,
            output: Output::ToDevice {
                device: "HDD".into(),
                buffer_bytes: 1 << 14,
            },
        },
        &[
            RelSpec::pairs("R", "HDD", 4000 * scale).with_key_range(500 * scale),
            RelSpec::pairs("S", "HDD", 2500 * scale).with_key_range(500 * scale),
        ],
        1,
    )?;

    let sort = rt.run_plan(
        &Plan::ExternalSort {
            input: 0,
            fan_in: 8,
            b_in: 64,
            b_out: 256,
            scratch: "HDD".into(),
            output: Output::ToDevice {
                device: "HDD".into(),
                buffer_bytes: 1 << 14,
            },
        },
        &[RelSpec::ints("L", "HDD", 20_000 * scale)],
        2,
    )?;

    Ok(vec![
        RealRow {
            name: "grace-hash-join (real I/O)".into(),
            scale,
            report: grace,
        },
        RealRow {
            name: "external-merge-sort (real I/O)".into(),
            scale,
            report: sort,
        },
    ])
}
