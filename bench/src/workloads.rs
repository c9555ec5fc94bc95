//! The five workloads: what one rep does, and how its result is checked.

use crate::json::Json;
use crate::reference::{self, Expected, Semantics};
use crate::trace::{timed, Tracer};
use ocal::{Expr, SizeHint};
use ocas::experiments::{self, Experiment};
use ocas::{specs, verify, Synthesis};
use ocas_engine::lower::LowerCtx;
use ocas_engine::{lower, CpuModel, Executor, Mode, Output, Plan, RelSpec, Relation};
use ocas_hierarchy::{presets, Hierarchy};
use ocas_runtime::RealReport;
use ocas_storage::StorageSim;
use std::collections::BTreeMap;
use std::time::Instant;

pub const WORKLOADS: [&str; 5] = [
    "synth16",
    "sim-table1",
    "real-spill",
    "real-stream",
    "real-bnl",
];

/// RAM device of every real workload; each relation is 8-32x this, and
/// 8-32x the default 256-frame x 4 KiB pool (except in `real-bnl`, whose
/// working set is meant to fit).
pub const REAL_RAM: u64 = 1 << 20;

/// HDD device of every real workload. `FileBackend` sizes each sparse
/// device file to the device's capacity up front; at the preset's 1 TiB
/// that `ftruncate` is killed by SIGXFSZ wherever a file-size limit is set
/// (the driver's sandbox sets one). `real-spill`'s sort, the largest user,
/// allocates 128 MiB.
pub const REAL_HDD: u64 = 128 << 20;

/// `presets::hdd_ram(REAL_RAM)` with the disk cut down to `REAL_HDD`.
fn real_hierarchy() -> Hierarchy {
    let mut hdd = presets::hdd_props("HDD");
    hdd.size = REAL_HDD;
    let mut h = Hierarchy::new(presets::ram_props("RAM", REAL_RAM)).expect("valid root");
    h.add_child("RAM", hdd, presets::hdd_edge())
        .expect("valid child");
    h
}

/// `--quick` divides real cardinalities (and `sim-table1`'s) by this.
const QUICK_DIV: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Synth16,
    SimTable1,
    Real,
}

/// The committed Table 1 row a synthesis is compared with.
pub struct Golden {
    pub search_space: f64,
    pub steps: f64,
    pub best_program: String,
    pub opt_seconds: f64,
    pub act_seconds: f64,
}

pub struct Case {
    pub exp: Experiment,
    /// The specification as text; every rep starts by parsing it.
    pub text: String,
    /// The programmer's result-size annotation (paper 5.1), which has no
    /// surface syntax; re-applied to the parsed program.
    pub size_hint: Option<SizeHint>,
    /// Template the winner must lower to.
    pub template: &'static str,
    pub shape: Shape,
    pub golden: Option<Golden>,
    pub semantics: Option<Semantics>,
    /// Reference output; filled once per process, outside set-up time.
    pub expected: Option<Expected>,
}

pub struct Workload {
    pub kind: Kind,
    pub cases: Vec<Case>,
    /// `sim-table1`: the winners, synthesized in set-up.
    pub winners: Vec<Synthesis>,
    pub seed: u64,
    pub quick: bool,
    /// Test hook: flip the reference digests so that every check fails.
    pub corrupt_reference: bool,
}

#[derive(Default, Clone, Copy)]
pub struct SimIo {
    pub seeks: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

pub struct CaseOut {
    /// The winner, lowered.
    pub plan: Plan,
    pub est_seconds: f64,
    /// Simulated seconds of the winner on the modelled devices.
    pub sim_seconds: Option<f64>,
    /// `sim-table1`: what the simulated devices counted.
    pub sim_io: Option<SimIo>,
    pub costed: usize,
    pub uncosted: usize,
    /// `real-*`: what the real execution reported.
    pub real: Option<RealReport>,
}

#[derive(Default)]
pub struct RepOut {
    pub wall_s: f64,
    pub synth_s: f64,
    pub exec_s: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub cases: Vec<CaseOut>,
    /// Wall of each case, spec text to verdict; they sum to `wall_s`.
    pub case_walls: Vec<f64>,
    /// Per case, the stage the workload isolates (see README): synthesis
    /// for `synth16`, execution for the others.
    pub case_stages: Vec<f64>,
}

impl RepOut {
    pub fn stage_s(&self) -> f64 {
        self.case_stages.iter().sum()
    }
}

/// A textbook-shape matcher of `ocas::verify`, where one exists.
pub type Shape = Option<fn(&Expr) -> bool>;

fn is_merge_sort(e: &Expr) -> bool {
    verify::is_external_merge_sort(e, 4).is_some()
}

/// Template and matcher per Table 1 row, in `experiments::table1()` order.
/// The write-out rows are products: their winners keep no `if`, so the BNL
/// matcher (which wants the join condition innermost) does not apply.
const TABLE1_SHAPES: [(&str, Shape); 16] = [
    ("bnl-join", Some(verify::is_block_nested_loops)),
    ("bnl-join", Some(verify::is_block_nested_loops)),
    ("grace-join", Some(verify::is_grace_hash_join)),
    ("bnl-join", None),
    ("bnl-join", None),
    ("bnl-join", None),
    ("external-sort", Some(is_merge_sort)),
    ("merge-pass", None),
    ("merge-pass", None),
    ("merge-pass", None),
    ("merge-pass", None),
    ("merge-pass", None),
    ("column-zip", None),
    ("column-zip", None),
    ("dedup-sorted", None),
    ("aggregate", None),
];

impl Case {
    fn new(exp: Experiment, template: &'static str, shape: Shape) -> Case {
        let (text, size_hint) = match &exp.spec.program {
            Expr::Sized { expr, hint } => (ocal::pretty(expr), Some(hint.clone())),
            plain => (ocal::pretty(plain), None),
        };
        Case {
            exp,
            text,
            size_hint,
            template,
            shape,
            golden: None,
            semantics: None,
            expected: None,
        }
    }
}

fn golden_rows(doc: &Json) -> Result<BTreeMap<String, Golden>, String> {
    let rows = doc
        .get("table1")
        .ok_or("BENCH_results.json has no `table1` section")?
        .arr();
    let mut out = BTreeMap::new();
    for r in rows {
        let num = |k: &str| {
            r.get(k)
                .and_then(Json::num)
                .ok_or_else(|| format!("table1 row lacks `{k}`"))
        };
        let text = |k: &str| {
            r.get(k)
                .and_then(Json::str)
                .map(str::to_string)
                .ok_or_else(|| format!("table1 row lacks `{k}`"))
        };
        out.insert(
            text("name")?,
            Golden {
                search_space: num("search_space")?,
                steps: num("steps")?,
                best_program: text("best_program")?,
                opt_seconds: num("opt_seconds")?,
                act_seconds: num("act_seconds")?,
            },
        );
    }
    Ok(out)
}

fn table1_cases(doc: &Json) -> Result<Vec<Case>, String> {
    let mut golden = golden_rows(doc)?;
    experiments::table1()
        .into_iter()
        .zip(TABLE1_SHAPES)
        .map(|(exp, (template, shape))| {
            let g = golden
                .remove(&exp.name)
                .ok_or_else(|| format!("no committed Table 1 row named `{}`", exp.name))?;
            Ok(Case {
                golden: Some(g),
                ..Case::new(exp, template, shape)
            })
        })
        .collect()
}

/// A real plan: a Table 1 experiment re-targeted at the 1 MiB hierarchy,
/// with the specification built at the data's own cardinalities, so that
/// the synthesizer tunes for the relations that are then really run.
fn real_case(
    mut exp: Experiment,
    spec: ocas::Spec,
    rel_specs: Vec<RelSpec>,
    template: &'static str,
    shape: Shape,
    semantics: Semantics,
) -> Case {
    exp.hierarchy = real_hierarchy();
    exp.spec = spec;
    exp.rel_specs = rel_specs;
    // Not `ToDevice`: the generic executor's sink (the simulator twin of
    // every real run) allocates a 1 GiB extent on the output device, so the
    // device, and with it the backing file, could not stay under `REAL_HDD`.
    exp.output = Output::Discard;
    Case {
        semantics: Some(semantics),
        ..Case::new(exp, template, shape)
    }
}

fn real_cases(name: &str, quick: bool) -> Vec<Case> {
    let m: u64 = if quick {
        (1 << 20) / QUICK_DIV
    } else {
        1 << 20
    };
    match name {
        // Write-once spill streams read back once: 32 MB of sort runs,
        // 36 MB of GRACE partitions.
        "real-spill" => {
            let (x, y) = (3 * m / 2, 3 * m / 4);
            vec![
                real_case(
                    experiments::external_sorting(),
                    specs::sort(4 * m),
                    vec![RelSpec::ints("R", "HDD", 4 * m)],
                    "external-sort",
                    Some(is_merge_sort),
                    Semantics::Sort,
                ),
                real_case(
                    experiments::grace_hash_join(),
                    specs::join(x, y, false),
                    vec![
                        RelSpec::pairs("R", "HDD", x).with_key_range(x),
                        RelSpec::pairs("S", "HDD", y).with_key_range(x),
                    ],
                    "grace-join",
                    Some(verify::is_grace_hash_join),
                    Semantics::Join,
                ),
            ]
        }
        // Every page touched once, sequentially; no spill.
        "real-stream" => {
            let columns: Vec<RelSpec> = (1..=5)
                .map(|i| RelSpec::ints(&format!("C{i}"), "HDD", m))
                .collect();
            vec![
                real_case(
                    experiments::multiset_union_sorted(),
                    specs::multiset_union_sorted(2 * m, 2 * m),
                    vec![
                        RelSpec::ints("A", "HDD", 2 * m).sorted(),
                        RelSpec::ints("B", "HDD", 2 * m).sorted(),
                    ],
                    "merge-pass",
                    None,
                    Semantics::UnionSorted,
                ),
                real_case(
                    experiments::column_store_read(5),
                    specs::column_read(5, m),
                    columns,
                    "column-zip",
                    None,
                    Semantics::Zip,
                ),
                real_case(
                    experiments::dedup_sorted(),
                    specs::dedup_sorted(2 * m),
                    vec![RelSpec::ints("L", "HDD", 2 * m).sorted().with_key_range(m)],
                    "dedup-sorted",
                    None,
                    Semantics::Dedup,
                ),
                real_case(
                    experiments::aggregation(),
                    specs::aggregate(4 * m),
                    vec![RelSpec::ints("L", "HDD", 4 * m)],
                    "aggregate",
                    None,
                    Semantics::Average,
                ),
            ]
        }
        // Pure operator CPU: 4k x 80k key comparisons; the outer block
        // (64 KiB) stays resident and the inner relation streams through
        // the pool, 256 tuples to the page.
        "real-bnl" => {
            let (x, y) = if quick {
                (4 * 1024 / 8, 80 * 1024 / 8)
            } else {
                (4 * 1024, 80 * 1024)
            };
            vec![real_case(
                experiments::bnl_no_writeout(),
                specs::join(x, y, false),
                vec![
                    RelSpec::pairs("R", "HDD", x).with_key_range(x),
                    RelSpec::pairs("S", "HDD", y).with_key_range(x),
                ],
                "bnl-join",
                Some(verify::is_block_nested_loops),
                Semantics::Join,
            )]
        }
        other => unreachable!("not a real workload: {other}"),
    }
}

/// The lowering context `Experiment::execute` (simulated) and
/// `Synthesis::run_real` build internally; `default_block` is the value
/// each gives `b_in`/`b_out` when the optimizer left them free.
fn lower_ctx(exp: &Experiment, synth: &Synthesis, default_block: u64) -> LowerCtx {
    let mut params = synth.best.params.clone();
    params.entry("b_out".into()).or_insert(default_block);
    params.entry("b_in".into()).or_insert(default_block);
    LowerCtx {
        params,
        relations: exp
            .rel_specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.clone(), i))
            .collect(),
        output: exp.output.clone(),
        scratch: exp.scratch.clone(),
    }
}

const SIM_DEFAULT_BLOCK: u64 = 1 << 20;
const REAL_DEFAULT_BLOCK: u64 = 1 << 16;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

impl Workload {
    /// Builds the workload's cases. `results_doc` is the committed
    /// `BENCH_results.json`, the golden record of the Table 1 rows.
    pub fn build(
        name: &'static str,
        seed: u64,
        quick: bool,
        results_doc: &Json,
    ) -> Result<Workload, String> {
        let (kind, mut cases) = match name {
            "synth16" => (Kind::Synth16, table1_cases(results_doc)?),
            "sim-table1" => (Kind::SimTable1, table1_cases(results_doc)?),
            _ => (Kind::Real, real_cases(name, quick)),
        };
        let mut winners = Vec::new();
        if kind == Kind::SimTable1 {
            for case in &mut cases {
                winners.push(case.exp.synthesize().map_err(|e| e.to_string())?);
                if quick {
                    // Paper-scale act_seconds no longer apply.
                    for r in &mut case.exp.rel_specs {
                        r.card = (r.card / QUICK_DIV).max(1);
                    }
                }
            }
        }
        Ok(Workload {
            kind,
            cases,
            winners,
            seed,
            quick,
            corrupt_reference: false,
        })
    }

    /// Computes every real plan's reference output from the rows the
    /// generator yields for this seed (relation `i` uses `seed + i`, as
    /// `Runtime::run_plan` does).
    pub fn compute_references(&mut self) -> Result<(), String> {
        for case in &mut self.cases {
            let Some(sem) = case.semantics else { continue };
            let mut sim = StorageSim::from_hierarchy(&case.exp.hierarchy);
            let mut inputs = Vec::new();
            for (i, spec) in case.exp.rel_specs.iter().enumerate() {
                let rows = Relation::create(&mut sim, spec, true, self.seed + i as u64)
                    .map_err(|e| e.to_string())?
                    .collect_rows()
                    .ok_or("faithful relation carries no rows")?;
                inputs.push(rows);
            }
            let slices: Vec<&[i64]> = inputs.iter().map(|rows| rows.as_slice()).collect();
            let mut exp = reference::expected(sem, &slices);
            if self.corrupt_reference {
                for d in &mut exp.any_of {
                    d.xor ^= 1;
                }
            }
            case.expected = Some(exp);
        }
        Ok(())
    }

    /// One rep: every case from spec text to checked result. An operation
    /// is one case; it fails if any step errors or any check disagrees.
    pub fn rep(&mut self, tr: &mut Option<Tracer>) -> RepOut {
        let mut out = RepOut::default();
        let (kind, seed, quick) = (self.kind, self.seed, self.quick);
        let winners = &self.winners;
        let cases = &mut self.cases;
        let ((), wall) = timed(tr, "bench.rep", |tr| {
            for (i, case) in cases.iter_mut().enumerate() {
                out.attempted += 1;
                let (synth0, exec0, t0) = (out.synth_s, out.exec_s, Instant::now());
                let done = match kind {
                    Kind::SimTable1 => sim_case(case, &winners[i], quick, tr, &mut out),
                    _ => synth_case(case, kind, seed, tr, &mut out),
                };
                if let Err(why) = done {
                    out.failures.push(format!("{}: {why}", case.exp.name));
                }
                out.case_walls.push(t0.elapsed().as_secs_f64());
                out.case_stages.push(match kind {
                    Kind::Synth16 => out.synth_s - synth0,
                    _ => out.exec_s - exec0,
                });
            }
        });
        out.wall_s = wall;
        out
    }
}

/// `synth16` and `real-*`: parse, synthesize, then lower and check
/// (`synth16`) or run for real and check (`real-*`).
fn synth_case(
    case: &mut Case,
    kind: Kind,
    seed: u64,
    tr: &mut Option<Tracer>,
    out: &mut RepOut,
) -> Result<(), String> {
    let (parsed, _) = timed(tr, "ocal.parse", |_| ocal::parse(&case.text));
    let parsed = parsed.map_err(|e| e.to_string())?;
    case.exp.spec.program = match &case.size_hint {
        Some(hint) => parsed.sized(hint.clone()),
        None => parsed,
    };
    let (synth, dt) = timed(tr, "synth.pipeline", |_| case.exp.synthesize());
    out.synth_s += dt;
    let synth = synth.map_err(|e| e.to_string())?;
    let default_block = if kind == Kind::Real {
        REAL_DEFAULT_BLOCK
    } else {
        SIM_DEFAULT_BLOCK
    };
    let (plan, _) = timed(tr, "engine.lower", |_| {
        lower(
            &synth.best.program,
            case.exp.spec.hint,
            &lower_ctx(&case.exp, &synth, default_block),
        )
    });
    let plan = plan.map_err(|e| e.to_string())?;

    let mut facts = CaseOut {
        plan: plan.clone(),
        est_seconds: synth.best.seconds,
        sim_seconds: None,
        sim_io: None,
        costed: synth.costed,
        uncosted: synth.uncosted,
        real: None,
    };
    let report = if kind == Kind::Real {
        let (report, _) = timed(tr, "runtime.run_real", |_| {
            synth.run_real(&case.exp.real_setup(case.exp.rel_specs.clone(), seed))
        });
        let report = report.map_err(|e| e.to_string())?;
        out.exec_s += report.wall_seconds;
        facts.sim_seconds = Some(report.sim_seconds);
        Some(report)
    } else {
        None
    };

    let (verdict, _) = timed(tr, "bench.check", |_| {
        check_winner(case, &synth, &plan)?;
        if let Some(report) = &report {
            if !report.outputs_match() {
                return Err("real output differs from its simulator twin".to_string());
            }
            if let Some(exp) = &case.expected {
                reference::check(exp, report.output.as_slice(), report.output.width())?;
            }
        }
        Ok(())
    });
    facts.real = report;
    out.cases.push(facts);
    verdict
}

/// Structural and golden checks of a synthesis result.
fn check_winner(case: &Case, synth: &Synthesis, plan: &Plan) -> Result<(), String> {
    if plan.name() != case.template {
        return Err(format!(
            "winner lowers to `{}`, expected `{}`",
            plan.name(),
            case.template
        ));
    }
    if let Some(matcher) = case.shape {
        if !matcher(&synth.best.program) {
            return Err(format!(
                "winner lacks the textbook shape: {}",
                ocal::pretty(&synth.best.program)
            ));
        }
    }
    if let Some(g) = &case.golden {
        let best = ocal::pretty(&synth.best.program);
        if best != g.best_program {
            return Err(format!("best program `{best}` is not the committed one"));
        }
        if synth.stats.explored as f64 != g.search_space
            || f64::from(synth.stats.depth_reached) != g.steps
        {
            return Err(format!(
                "search space {}/{} steps, committed {}/{}",
                synth.stats.explored, synth.stats.depth_reached, g.search_space, g.steps
            ));
        }
        if !close(synth.best.seconds, g.opt_seconds) {
            return Err(format!(
                "opt_seconds {} vs committed {}",
                synth.best.seconds, g.opt_seconds
            ));
        }
    }
    Ok(())
}

/// `sim-table1`: lower one winner and run it at paper scale on the
/// simulator. This is `Experiment::execute` spelled out, so that the
/// devices' counters are in reach afterwards.
fn sim_case(
    case: &mut Case,
    winner: &Synthesis,
    quick: bool,
    tr: &mut Option<Tracer>,
    out: &mut RepOut,
) -> Result<(), String> {
    let exp = &case.exp;
    let (plan, _) = timed(tr, "engine.lower", |_| {
        lower(
            &winner.best.program,
            exp.spec.hint,
            &lower_ctx(exp, winner, SIM_DEFAULT_BLOCK),
        )
    });
    let plan = plan.map_err(|e| e.to_string())?;
    let (stats, dt) = timed(tr, "storage.sim_exec", |_| {
        let mut ex = Executor::new(
            StorageSim::from_hierarchy(&exp.hierarchy),
            Mode::Simulated,
            CpuModel::default(),
        );
        for spec in &exp.rel_specs {
            let rel = Relation::create(&mut ex.sm, spec, false, 0).map_err(|e| e.to_string())?;
            ex.add_relation(rel);
        }
        let stats = ex.run(&plan).map_err(|e| e.to_string())?;
        let mut io = SimIo::default();
        for id in exp.hierarchy.ids() {
            if let Some(d) = ex.sm.device_stats(&exp.hierarchy.node(id).name) {
                io.seeks += d.seeks;
                io.bytes_read += d.bytes_read;
                io.bytes_written += d.bytes_written;
            }
        }
        Ok::<_, String>((stats.seconds, io))
    });
    out.exec_s += dt;
    let (act, io) = stats?;
    let (verdict, _) = timed(tr, "bench.check", |_| {
        check_winner(case, winner, &plan)?;
        let committed = case.golden.as_ref().map_or(act, |g| g.act_seconds);
        if !quick && !close(act, committed) {
            return Err(format!("act_seconds {act} vs committed {committed}"));
        }
        Ok(())
    });
    out.cases.push(CaseOut {
        plan,
        est_seconds: winner.best.seconds,
        sim_seconds: Some(act),
        sim_io: Some(io),
        costed: winner.costed,
        uncosted: winner.uncosted,
        real: None,
    });
    verdict
}
