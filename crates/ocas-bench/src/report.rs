//! Building, validating and checking the `BENCH_*.json` trajectory document.
//!
//! One schema'd JSON file records everything the reproduction binaries
//! measure: the Table 1 rows, the Figure 8 points, the cache-miss
//! companion, and the real-I/O workloads with wall-clock and simulated
//! seconds side by side.
//!
//! Every array section of the document is one table: each field's JSON
//! name, its [`Kind`], its [`Gate`] and the function that reads it off a
//! row. The layout ([`BenchDoc::to_json`]), the schema check
//! ([`validate_bench_doc`]), the claims every run must hold ([`claims`])
//! and the baseline comparison ([`check_regressions`]) are all read from
//! those tables, so a field is added, typed and gated in one line.

use crate::json::Json;
use ocas::experiments::{FaithfulScaleReport, Fig8Point, Row};
use ocas_engine::{CpuModel, Executor, JoinPred, MergeKind, Mode, Output, Plan, RelSpec, Relation};
use ocas_hierarchy::presets;
use ocas_runtime::{FileBackend, PoolConfig, RealReport, Runtime, RuntimeError};
use ocas_storage::{StorageBackend, StorageSim};
use Factor::{Fixed, Tolerance};
use Gate::{Claim, Exact, Higher, Info, Key, Lower, Scope};
use Kind::{Bool, Counters, Num, OptNum, Str};

/// The document's schema tag; bump on breaking layout changes.
pub const SCHEMA: &str = "ocas-bench/v6";

/// The JSON type of a field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A string.
    Str,
    /// A number.
    Num,
    /// A number an entry may leave out: a `null` read off the row is not
    /// emitted.
    OptNum,
    /// A boolean.
    Bool,
    /// An object of numbers (counter totals keyed by name).
    Counters,
}

/// How `bench_json --check` treats a field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Names the entry: the baseline entry with the same keys is its
    /// counterpart. An entry without one is skipped (workloads evolve
    /// across trajectory points).
    Key,
    /// Sets the experiment (a cardinality scale, a fault seed): an entry
    /// whose counterpart differs here is a different workload, and is not
    /// compared.
    Scope,
    /// Deterministic (same seeds, same plans): equal to the counterpart.
    Exact,
    /// What the run claims, checked in every document whatever the
    /// baseline: `true` for a boolean, `0` for a number.
    Claim,
    /// Lower is better: may rise to the factor times the counterpart.
    Lower(Factor),
    /// Higher is better: may fall to the counterpart over the factor.
    Higher(Factor),
    /// Recorded, not compared.
    Info,
}

/// The factor a [`Gate::Lower`] or [`Gate::Higher`] field may move by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Factor {
    /// The run's `--check-tolerance`: wall clocks move with the machine.
    Tolerance,
    /// A fixed factor: a ratio of two clocks read back to back on the same
    /// machine is far more stable than either clock, so it gets a real
    /// floor instead of the generous tolerance.
    Fixed(f64),
}

/// One field of a section's table.
struct Field<T> {
    name: &'static str,
    kind: Kind,
    gate: Gate,
    get: fn(&T) -> Json,
}

const fn field<T>(name: &'static str, kind: Kind, gate: Gate, get: fn(&T) -> Json) -> Field<T> {
    Field {
        name,
        kind,
        gate,
        get,
    }
}

/// One array section of the document: its key and its fields, in
/// emission order.
struct Section<T: 'static> {
    name: &'static str,
    fields: &'static [Field<T>],
}

impl<T: 'static> Section<T> {
    /// The section's `(key, array)` pair for `rows`.
    fn emit(&self, rows: &[T]) -> (&'static str, Json) {
        let entry = |row: &T| {
            Json::Obj(
                self.fields
                    .iter()
                    .map(|f| (f, (f.get)(row)))
                    .filter(|(f, v)| f.kind != OptNum || *v != Json::Null)
                    .map(|(f, v)| (f.name.to_string(), v))
                    .collect(),
            )
        };
        (self.name, Json::Arr(rows.iter().map(entry).collect()))
    }
}

/// A field's `(name, kind, gate)`: what validation and `--check` read.
pub type Spec = (&'static str, Kind, Gate);

/// A section with its row type erased.
trait Table: Sync {
    fn name(&self) -> &'static str;
    fn specs(&self) -> Vec<Spec>;
}

impl<T: 'static> Table for Section<T> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn specs(&self) -> Vec<Spec> {
        self.fields
            .iter()
            .map(|f| (f.name, f.kind, f.gate))
            .collect()
    }
}

static TABLE1: Section<Row> = Section {
    name: "table1",
    fields: &[
        field("name", Str, Key, |r| Json::str(&r.name)),
        field("spec_seconds", Num, Info, |r| r.spec_seconds.into()),
        field("opt_seconds", Num, Info, |r| r.opt_seconds.into()),
        field("act_seconds", Num, Info, |r| r.act_seconds.into()),
        field("search_space", Num, Info, |r| r.search_space.into()),
        field("steps", Num, Info, |r| r.steps.into()),
        field("ocas_seconds", Num, Info, |r| r.ocas_seconds.into()),
        field("best_program", Str, Info, |r| Json::str(&r.best_program)),
    ],
};

static FIGURE8: Section<Fig8Point> = Section {
    name: "figure8",
    fields: &[
        field("panel", Str, Key, |p| Json::str(p.panel)),
        field("label", Str, Key, |p| Json::str(&p.label)),
        field("estimated_seconds", Num, Info, |p| p.estimated.into()),
        field("measured_seconds", Num, Info, |p| p.measured.into()),
    ],
};

static ENGINE: Section<EngineRow> = Section {
    name: "engine",
    fields: &[
        field("template", Str, Key, |r| Json::str(&r.template)),
        field("backend", Str, Key, |r| Json::str(&r.backend)),
        field("rows_in", Num, Scope, |r| r.rows_in.into()),
        field("rows_out", Num, Info, |r| r.rows_out.into()),
        field("seconds", Num, Info, |r| r.seconds.into()),
        field("rows_per_sec", Num, Higher(Tolerance), |r| {
            r.rows_per_sec.into()
        }),
        field("before_rows_per_sec", OptNum, Info, |r| {
            r.before_rows_per_sec.map_or(Json::Null, Json::num)
        }),
        field("speedup", OptNum, Info, |r| {
            r.before_rows_per_sec.map_or(Json::Null, |b| {
                Json::num(r.rows_per_sec / b.max(f64::MIN_POSITIVE))
            })
        }),
    ],
};

static SYNTHESIS: Section<SynthesisRow> = Section {
    name: "synthesis",
    fields: &[
        field("name", Str, Key, |r| Json::str(&r.name)),
        // The explored space is deterministic by the engine contract: drift
        // means the search changed, or the parallel merge broke.
        field("explored", Num, Exact, |r| r.explored.into()),
        field("generated", Num, Exact, |r| r.generated.into()),
        field("rejected_type", Num, Exact, |r| r.rejected_type.into()),
        field("rejected_semantics", Num, Exact, |r| {
            r.rejected_semantics.into()
        }),
        field("depth_reached", Num, Exact, |r| r.depth_reached.into()),
        field("arena_nodes", Num, Info, |r| r.arena_nodes.into()),
        field("seconds", Num, Lower(Tolerance), |r| r.seconds.into()),
        field("reference_seconds", Num, Info, |r| {
            r.reference_seconds.into()
        }),
        field(
            "speedup",
            Num,
            Higher(Fixed(SYNTH_SPEEDUP_TOLERANCE)),
            |r| r.speedup.into(),
        ),
        field("programs_per_sec", Num, Info, |r| r.programs_per_sec.into()),
    ],
};

static FAITHFUL_SCALE: Section<FaithfulScaleReport> = Section {
    name: "faithful_scale",
    fields: &[
        field("name", Str, Key, |r| Json::str(&r.name)),
        field("relation_bytes", Num, Exact, |r| r.relation_bytes.into()),
        field("ram_bytes", Num, Exact, |r| r.ram_bytes.into()),
        field("output_rows", Num, Exact, |r| r.output_rows.into()),
        // The only output witness at this scale (collection is off), as hex
        // text: JSON numbers (f64) cannot carry 64 bits exactly.
        field("digest", Str, Exact, |r| {
            Json::str(format!("{:016x}", r.output_digest))
        }),
        field("outputs_match", Bool, Claim, |r| r.outputs_match.into()),
        field("peak_bounded", Bool, Claim, |r| r.peak_bounded().into()),
        field("sim_peak_resident", Num, Info, |r| {
            r.sim_peak_resident.into()
        }),
        field("real_peak_resident", Num, Info, |r| {
            r.real_peak_resident.into()
        }),
        field("sim_seconds", Num, Info, |r| r.sim_seconds.into()),
        field("wall_seconds", Num, Lower(Tolerance), |r| {
            r.wall_seconds.into()
        }),
    ],
};

static OBS: Section<ObsRow> = Section {
    name: "obs",
    fields: &[
        field("name", Str, Key, |r| Json::str(&r.name)),
        // Counters and event counts are deterministic by the recorder
        // contract (worker-count-invariant recording). Span seconds carry
        // timing; even the simulated totals move whenever the cost model or
        // a workload constant is tuned.
        field("events", Num, Exact, |r| r.events.into()),
        field("sim_span_seconds", Num, Lower(Tolerance), |r| {
            r.sim_span_seconds.into()
        }),
        field("wall_span_seconds", Num, Lower(Tolerance), |r| {
            r.wall_span_seconds.into()
        }),
        field("counters", Counters, Exact, |r| {
            Json::Obj(
                r.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::num(*v)))
                    .collect(),
            )
        }),
    ],
};

static CHAOS: Section<ChaosRow> = Section {
    name: "chaos",
    fields: &[
        field("workload", Str, Key, |r| Json::str(&r.workload)),
        field("chaos_seed", Num, Scope, |r| r.chaos_seed.into()),
        field("runs", Num, Exact, |r| r.summary.runs.into()),
        field("identical", Num, Exact, |r| r.summary.identical.into()),
        field("typed_errors", Num, Exact, |r| {
            r.summary.typed_errors.into()
        }),
        // A wrong answer or a leaked temp dir under faults is a robustness
        // bug, not a regression to tolerate.
        field("wrong_answers", Num, Claim, |r| {
            r.summary.wrong_answers.into()
        }),
        field("leaked_dirs", Num, Claim, |r| r.summary.leaked_dirs.into()),
        field("faults_injected", Num, Exact, |r| {
            r.summary.counters.faults_injected.into()
        }),
        field("retries", Num, Exact, |r| r.summary.counters.retries.into()),
        field("retry_successes", Num, Exact, |r| {
            r.summary.counters.retry_successes.into()
        }),
        field("gave_up", Num, Exact, |r| r.summary.counters.gave_up.into()),
        field("degraded_shrinks", Num, Exact, |r| {
            r.summary.counters.degraded_shrinks.into()
        }),
        field("degraded_failovers", Num, Exact, |r| {
            r.summary.counters.degraded_failovers.into()
        }),
        field("corrupt_pages_detected", Num, Exact, |r| {
            r.summary.counters.corrupt_pages_detected.into()
        }),
    ],
};

static REAL: Section<RealRow> = Section {
    name: "real",
    fields: &[
        field("name", Str, Key, |r| Json::str(&r.name)),
        field("scale", Num, Scope, |r| r.scale.into()),
        field("wall_seconds", Num, Lower(Tolerance), |r| {
            r.report.wall_seconds.into()
        }),
        field("io_seconds", Num, Info, |r| r.report.io_seconds.into()),
        field("sim_seconds", Num, Info, |r| r.report.sim_seconds.into()),
        field("output_rows", Num, Exact, |r| r.report.output.len().into()),
        field("outputs_match", Bool, Claim, |r| {
            r.report.outputs_match().into()
        }),
        field("bytes_read", Num, Exact, |r| {
            let devices = r.report.real_devices.iter();
            devices.map(|(_, s)| s.bytes_read).sum::<u64>().into()
        }),
        field("bytes_written", Num, Exact, |r| {
            let devices = r.report.real_devices.iter();
            devices.map(|(_, s)| s.bytes_written).sum::<u64>().into()
        }),
        field("pool_hits", Num, Info, |r| {
            r.report
                .pools
                .iter()
                .map(|(_, p)| p.hits)
                .sum::<u64>()
                .into()
        }),
        field("pool_misses", Num, Info, |r| {
            r.report
                .pools
                .iter()
                .map(|(_, p)| p.misses)
                .sum::<u64>()
                .into()
        }),
        field("direct_io", Bool, Info, |r| r.report.direct_io.into()),
    ],
};

/// Every array section.
static TABLES: [&dyn Table; 8] = [
    &TABLE1,
    &FIGURE8,
    &ENGINE,
    &SYNTHESIS,
    &FAITHFUL_SCALE,
    &OBS,
    &CHAOS,
    &REAL,
];

/// Every array section's key with its fields, as the document is emitted,
/// validated and checked.
pub fn schema() -> Vec<(&'static str, Vec<Spec>)> {
    TABLES.iter().map(|t| (t.name(), t.specs())).collect()
}

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
    /// The trajectory's before-number, set by [`anchor_engine_rows`]; an
    /// entry carries it and its `speedup` only when it is set.
    pub before_rows_per_sec: Option<f64>,
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
        before_rows_per_sec: None,
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

/// Sets each row's before-number from a prior document's `engine` entry
/// for the same template and backend: that entry's own
/// `before_rows_per_sec` when it carries one (so the trajectory stays
/// anchored at the original baseline instead of ratcheting forward on
/// every regeneration), else its `rows_per_sec`.
pub fn anchor_engine_rows(rows: &mut [EngineRow], prior: &Json) {
    for r in rows {
        r.before_rows_per_sec = entries(prior, ENGINE.name)
            .iter()
            .find(|e| {
                e.get("template").and_then(Json::as_str) == Some(r.template.as_str())
                    && e.get("backend").and_then(Json::as_str) == Some(r.backend.as_str())
            })
            .and_then(|e| {
                e.get("before_rows_per_sec")
                    .and_then(Json::as_num)
                    .or_else(|| e.get("rows_per_sec").and_then(Json::as_num))
            });
    }
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
///   gates the counters exactly.
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

/// Regression floor for the synthesis `speedup` ratio (its
/// [`Factor::Fixed`]): a fresh run may not fall below
/// `baseline_speedup / SYNTH_SPEEDUP_TOLERANCE`.
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
            // Both engines run on one thread, so the committed ratio is the
            // arena engine's own (zipper dedup, interned keys, check
            // exemptions) and comparable across machines.
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

/// Everything one `bench_json` run measured, section by section. A section
/// left empty is an empty array (a partial regeneration).
#[derive(Default)]
pub struct BenchDoc<'a> {
    /// Table 1 rows.
    pub table1: &'a [Row],
    /// Figure 8 points.
    pub figure8: &'a [Fig8Point],
    /// The cache-miss companion: `(untiled, tiled)` misses.
    pub cache_misses: Option<(u64, u64)>,
    /// Engine data-path throughput.
    pub engine: &'a [EngineRow],
    /// Synthesis-search statistics.
    pub synthesis: &'a [SynthesisRow],
    /// Faithful-scale twin workloads.
    pub faithful_scale: &'a [FaithfulScaleReport],
    /// Observability workloads.
    pub obs: &'a [ObsRow],
    /// Chaos sweeps.
    pub chaos: &'a [ChaosRow],
    /// Real-I/O workloads.
    pub real: &'a [RealRow],
}

impl BenchDoc<'_> {
    /// The document, each array section laid out by its table.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema", Json::str(SCHEMA)),
            TABLE1.emit(self.table1),
            FIGURE8.emit(self.figure8),
            ("figures", figures_json()),
        ];
        if let Some((untiled, tiled)) = self.cache_misses {
            pairs.push((
                "cache_misses",
                Json::obj(vec![
                    ("untiled", Json::num(untiled as f64)),
                    ("tiled", Json::num(tiled as f64)),
                ]),
            ));
        }
        pairs.extend([
            ENGINE.emit(self.engine),
            SYNTHESIS.emit(self.synthesis),
            FAITHFUL_SCALE.emit(self.faithful_scale),
            OBS.emit(self.obs),
            CHAOS.emit(self.chaos),
            REAL.emit(self.real),
        ]);
        Json::obj(pairs)
    }
}

/// The entries of array section `section`, or none.
fn entries<'a>(doc: &'a Json, section: &str) -> &'a [Json] {
    doc.get(section).and_then(Json::as_arr).unwrap_or(&[])
}

/// The entry's key fields joined by `/`, for messages.
fn entry_id(specs: &[Spec], entry: &Json) -> String {
    specs
        .iter()
        .filter(|s| s.2 == Key)
        .map(|s| entry.get(s.0).and_then(Json::as_str).unwrap_or("?"))
        .collect::<Vec<_>>()
        .join("/")
}

/// A field's value, for messages.
fn shown(v: Option<&Json>) -> String {
    v.map_or_else(|| "missing".to_string(), Json::to_string)
}

/// Checks a document against the [`SCHEMA`] schema: every section present,
/// and every entry carrying every field of its section with the field's
/// [`Kind`] (an [`Kind::OptNum`] field may be absent). Sections may be
/// empty arrays (a partial regeneration).
pub fn validate_bench_doc(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema`")?;
    if schema != SCHEMA {
        return Err(format!("schema `{schema}` is not `{SCHEMA}`"));
    }
    for t in &TABLES {
        let section = t.name();
        let arr = doc
            .get(section)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing array `{section}`"))?;
        let specs = t.specs();
        for (i, entry) in arr.iter().enumerate() {
            for &(field, kind, _) in &specs {
                let ok = match (entry.get(field), kind) {
                    (None, OptNum) => true,
                    (None, _) => return Err(format!("{section}[{i}] missing `{field}`")),
                    (Some(v), Str) => v.as_str().is_some(),
                    (Some(v), Num | OptNum) => v.as_num().is_some(),
                    (Some(v), Bool) => matches!(v, Json::Bool(_)),
                    (Some(Json::Obj(pairs)), Counters) => {
                        pairs.iter().all(|(_, v)| v.as_num().is_some())
                    }
                    (Some(_), Counters) => false,
                };
                if !ok {
                    return Err(format!("{section}[{i}].{field} has the wrong type"));
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

/// The claims a document makes whatever the baseline: every
/// [`Gate::Claim`] field of every entry is `true` (a boolean) or `0` (a
/// number) — twins agree, peaks stay below the RAM device, and no chaos
/// run gives a wrong answer or leaks a temp dir. Returns one message per
/// broken claim.
pub fn claims(doc: &Json) -> Vec<String> {
    let mut broken = Vec::new();
    for t in &TABLES {
        let specs = t.specs();
        for entry in entries(doc, t.name()) {
            for &(field, kind, _) in specs.iter().filter(|s| s.2 == Claim) {
                let v = entry.get(field);
                let holds = match kind {
                    Bool => v == Some(&Json::Bool(true)),
                    _ => v.and_then(Json::as_num) == Some(0.0),
                };
                if !holds {
                    let id = entry_id(&specs, entry);
                    broken.push(format!("{} `{id}`: {field} is {}", t.name(), shown(v)));
                }
            }
        }
    }
    broken
}

/// Compares a freshly generated document against a committed baseline as
/// the section tables gate it: every [`claims`] of `doc`; then, for each
/// entry whose counterpart has the same keys and scope, [`Gate::Exact`]
/// fields equal, [`Gate::Lower`] fields at most the factor times the
/// counterpart and [`Gate::Higher`] fields at least the counterpart over
/// it (`tolerance`, raised to 1, for wall clocks and throughput). Returns
/// the number of entries compared, or the list of violations.
pub fn check_regressions(
    doc: &Json,
    baseline: &Json,
    tolerance: f64,
) -> Result<usize, Vec<String>> {
    let tol = tolerance.max(1.0);
    let factor = |f: Factor| match f {
        Tolerance => tol,
        Fixed(k) => k,
    };
    let num = |v: Option<&Json>| v.and_then(Json::as_num).unwrap_or(f64::NAN);
    let mut failures = claims(doc);
    let mut compared = 0usize;
    for t in &TABLES {
        let (section, specs) = (t.name(), t.specs());
        if !specs
            .iter()
            .any(|s| matches!(s.2, Exact | Lower(_) | Higher(_)))
        {
            continue;
        }
        let agree = |gate: Gate, a: &Json, b: &Json| {
            specs
                .iter()
                .filter(|s| s.2 == gate)
                .all(|s| a.get(s.0) == b.get(s.0))
        };
        for entry in entries(doc, section) {
            let Some(base) = entries(baseline, section)
                .iter()
                .find(|b| agree(Key, entry, b))
            else {
                continue;
            };
            if !agree(Scope, entry, base) {
                continue;
            }
            compared += 1;
            for &(field, _, gate) in &specs {
                let (got, want) = (entry.get(field), base.get(field));
                let (g, w) = (num(got), num(want));
                let failure = match gate {
                    Exact if got != want => {
                        format!("{field} {} != baseline {}", shown(got), shown(want))
                    }
                    Lower(f) if g > factor(f) * w => {
                        format!("{field} {g:.4} > {}x baseline {w:.4}", factor(f))
                    }
                    Higher(f) if g * factor(f) < w => {
                        format!("{field} {g:.4} < baseline {w:.4} / {}", factor(f))
                    }
                    _ => continue,
                };
                let id = entry_id(&specs, entry);
                failures.push(format!("{section} `{id}`: {failure}"));
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
