//! End-to-end experiment driver: synthesize → lower → execute.
//!
//! Each function builds one of the paper's Table 1 rows (or Figure 8
//! points): it runs the synthesizer on the naive spec, lowers the winning
//! program to a physical plan, executes it against the simulated hierarchy,
//! and reports estimate vs. (simulated) measurement plus the search
//! statistics. Input sizes are scaled relative to the paper where the
//! originals would not fit the simulated devices (documented per row in
//! EXPERIMENTS.md); the claims under test are the *shapes*, not the
//! absolute seconds.

use crate::specs::{self, Spec};
use crate::synth::{SynthError, Synthesis, Synthesizer};
use ocas_cost::Layout;
use ocas_engine::{lower, CpuModel, Executor, LowerError, Mode, Output, Plan, RelSpec, Relation};
use ocas_hierarchy::{presets, Hierarchy};
use ocas_storage::{CacheSim, StorageSim};
use std::collections::BTreeMap;
use std::fmt;

/// One Table 1 row of the reproduction.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// Estimated cost of the naive specification (seconds).
    pub spec_seconds: f64,
    /// Estimated cost of the synthesized algorithm (seconds).
    pub opt_seconds: f64,
    /// Simulated "actual" running time of the synthesized algorithm.
    pub act_seconds: f64,
    /// Explored search-space size.
    pub search_space: usize,
    /// Derivation depth of the space.
    pub steps: u32,
    /// Synthesizer wall-clock seconds.
    pub ocas_seconds: f64,
    /// The winning program (pretty-printed).
    pub best_program: String,
    /// Tuned parameters.
    pub params: BTreeMap<String, u64>,
}

/// Experiment failures.
#[derive(Debug)]
pub enum ExpError {
    /// Synthesis failed.
    Synth(SynthError),
    /// Lowering failed.
    Lower(LowerError),
    /// Execution failed.
    Exec(ocas_engine::ExecError),
    /// Storage setup failed.
    Storage(ocas_storage::StorageError),
    /// Real-I/O execution failed.
    Runtime(ocas_runtime::RuntimeError),
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::Synth(e) => write!(f, "synthesis: {e}"),
            ExpError::Lower(e) => write!(f, "lowering: {e}"),
            ExpError::Exec(e) => write!(f, "execution: {e}"),
            ExpError::Storage(e) => write!(f, "storage: {e}"),
            ExpError::Runtime(e) => write!(f, "real I/O: {e}"),
        }
    }
}

impl std::error::Error for ExpError {}

impl From<SynthError> for ExpError {
    fn from(e: SynthError) -> Self {
        ExpError::Synth(e)
    }
}
impl From<LowerError> for ExpError {
    fn from(e: LowerError) -> Self {
        ExpError::Lower(e)
    }
}
impl From<ocas_engine::ExecError> for ExpError {
    fn from(e: ocas_engine::ExecError) -> Self {
        ExpError::Exec(e)
    }
}
impl From<ocas_storage::StorageError> for ExpError {
    fn from(e: ocas_storage::StorageError) -> Self {
        ExpError::Storage(e)
    }
}
impl From<ocas_runtime::RuntimeError> for ExpError {
    fn from(e: ocas_runtime::RuntimeError) -> Self {
        ExpError::Runtime(e)
    }
}

/// A fully described experiment.
pub struct Experiment {
    /// Row name.
    pub name: String,
    /// The naive specification.
    pub spec: Spec,
    /// Target hierarchy.
    pub hierarchy: Hierarchy,
    /// Cost-model layout.
    pub layout: Layout,
    /// Engine relations to allocate (simulated mode).
    pub rel_specs: Vec<RelSpec>,
    /// Engine output destination.
    pub output: Output,
    /// Scratch/spill device for the engine.
    pub scratch: String,
    /// Search depth.
    pub depth: u32,
    /// Search-space cap.
    pub max_programs: usize,
    /// Rules excluded for this row.
    pub exclude_rules: Vec<&'static str>,
}

impl Experiment {
    /// Runs the experiment end to end.
    pub fn run(&self) -> Result<Row, ExpError> {
        let synth = self.synthesize()?;
        let act = self.execute(&synth)?;
        Ok(Row {
            name: self.name.clone(),
            spec_seconds: synth.spec.seconds,
            opt_seconds: synth.best.seconds,
            act_seconds: act,
            search_space: synth.stats.explored,
            steps: synth.stats.depth_reached,
            ocas_seconds: synth.stats.seconds,
            best_program: ocal::pretty(&synth.best.program),
            params: synth.best.params.clone(),
        })
    }

    /// Runs only the synthesizer part.
    pub fn synthesize(&self) -> Result<Synthesis, ExpError> {
        let synthesizer = Synthesizer::new(self.hierarchy.clone(), self.layout.clone())
            .with_depth(self.depth)
            .with_max_programs(self.max_programs)
            .without_rules(&self.exclude_rules);
        Ok(synthesizer.synthesize(&self.spec)?)
    }

    /// Runs only the *search* component of this experiment — exactly the
    /// settings [`Experiment::synthesize`] would use (validation on, the
    /// row's rule exclusions) but without the costing pipeline. `reference`
    /// selects the legacy single-queue engine, the before-baseline of the
    /// `ocas-bench` `synthesis` section; `max_programs` optionally lowers
    /// the row's exploration cap (the parity regression tests use a small
    /// cap so debug runs stay fast). Both engines must report identical
    /// deterministic statistics. `_workers` is accepted and ignored: the
    /// search runs on the calling thread.
    pub fn run_search(
        &self,
        reference: bool,
        _workers: usize,
        max_programs: Option<usize>,
    ) -> Result<ocas_rewrite::SearchResult, ExpError> {
        let mut validation =
            ocas_rewrite::ValidationCfg::new(self.spec.env.clone(), self.spec.equivalence);
        if self.spec.sorted_inputs {
            validation = validation.with_sorted_inputs();
        }
        let cfg = ocas_rewrite::SearchConfig {
            max_depth: self.depth,
            max_programs: max_programs.unwrap_or(self.max_programs),
            validation: Some(validation),
        };
        let rules: Vec<Box<dyn ocas_rewrite::Rule>> = ocas_rewrite::default_rules()
            .into_iter()
            .filter(|r| !self.exclude_rules.contains(&r.name()))
            .collect();
        let engine = if reference {
            ocas_rewrite::reference_search
        } else {
            ocas_rewrite::search
        };
        engine(
            &self.spec.program,
            &self.spec.env,
            &self.hierarchy,
            &self.layout.inputs,
            self.layout.output.clone(),
            &rules,
            &cfg,
        )
        .map_err(|e| ExpError::Synth(SynthError::Type(e)))
    }

    /// Lowers + executes a synthesis result, returning simulated seconds.
    pub fn execute(&self, synth: &Synthesis) -> Result<f64, ExpError> {
        let sm = StorageSim::from_hierarchy(&self.hierarchy);
        let mut ex = Executor::new(sm, Mode::Simulated, CpuModel::default());
        let mut relations = BTreeMap::new();
        for spec in &self.rel_specs {
            let rel = Relation::create(&mut ex.sm, spec, false, 0)?;
            let idx = ex.add_relation(rel);
            relations.insert(spec.name.clone(), idx);
        }
        let mut params = synth.best.params.clone();
        // Engine defaults for parameters the optimizer did not see.
        params.entry("b_out".to_string()).or_insert(1 << 20);
        params.entry("b_in".to_string()).or_insert(1 << 20);
        let cx = ocas_engine::lower::LowerCtx {
            params,
            relations,
            output: self.output.clone(),
            scratch: self.scratch.clone(),
        };
        let plan: Plan = lower(&synth.best.program, self.spec.hint, &cx)?;
        let stats = ex.run(&plan)?;
        Ok(stats.seconds)
    }
}

// --------------------------------------------------------------------------
// Table 1 experiment constructors.
//
// Scale note: relation sizes are in TUPLES here; the paper reports bytes.
// Rows whose outputs would overflow the simulated devices use proportionally
// smaller inputs (see EXPERIMENTS.md).

const MIB: u64 = 1 << 20;

fn join_layout(output: Option<&str>) -> Layout {
    let mut l = Layout::all_inputs_on("HDD", &["R", "S"]);
    if let Some(o) = output {
        l = l.with_output(o);
    }
    l
}

/// Row 1 — BNL join, no write-out. R = 1 GiB, S = 32 MiB (16-byte tuples),
/// RAM = 8 MiB.
pub fn bnl_no_writeout() -> Experiment {
    let x = (1024 * MIB) / 16;
    let y = (32 * MIB) / 16;
    Experiment {
        name: "BNL - No writeout".into(),
        spec: specs::join(x, y, false),
        hierarchy: presets::hdd_ram(8 * MIB),
        layout: join_layout(None),
        rel_specs: vec![RelSpec::pairs("R", "HDD", x), RelSpec::pairs("S", "HDD", y)],
        output: Output::Discard,
        scratch: "HDD".into(),
        depth: 5,
        max_programs: 900,
        exclude_rules: vec!["hash-part", "prefetch", "fldL-to-trfld"],
    }
}

/// Row 2 — BNL with a cache level (loop tiling).
pub fn bnl_with_cache() -> Experiment {
    let mut e = bnl_no_writeout();
    e.name = "BNL with cache - No writeout".into();
    e.hierarchy = presets::hdd_ram_cache(8 * MIB);
    e.depth = 7;
    e.max_programs = 1200;
    e
}

/// Row 3 — GRACE hash join. The search is scoped to the hash-partition
/// family (as the paper scopes rules per experiment): with partition-spill
/// seeks charged honestly, GRACE costs more than BNL on this platform, so
/// an open search would (correctly) pick BNL — this row's claim is that
/// the *hash-join pipeline* is synthesized and its estimate tracks the
/// simulated measurement.
pub fn grace_hash_join() -> Experiment {
    let mut e = bnl_no_writeout();
    e.name = "(GRACE) hash join - No writeout".into();
    e.exclude_rules = vec![
        "prefetch",
        "fldL-to-trfld",
        "apply-block",
        "swap-iter",
        "swap-iter-cond",
        "order-inputs",
        "seq-ac",
    ];
    e.depth = 4;
    e.max_programs = 600;
    e
}

fn writeout_join(name: &str, hierarchy: Hierarchy, out_device: &str) -> Experiment {
    // Product join: R = 4096 tuples (64 KiB), S = 2^20 tuples (16 MiB);
    // output = 2^32 rows × 32 B ≈ 137 GiB.
    let x = 4096;
    let y = 1 << 20;
    Experiment {
        name: name.into(),
        spec: specs::join(x, y, true),
        hierarchy,
        layout: join_layout(Some(out_device)),
        rel_specs: vec![RelSpec::pairs("R", "HDD", x), RelSpec::pairs("S", "HDD", y)],
        output: Output::ToDevice {
            device: out_device.into(),
            buffer_bytes: 20 * 1024,
        },
        scratch: "HDD".into(),
        depth: 5,
        max_programs: 900,
        exclude_rules: vec!["hash-part", "prefetch", "fldL-to-trfld"],
    }
}

/// Row 4 — BNL product join writing to the same HDD (interference).
pub fn bnl_writeout_same_hdd() -> Experiment {
    writeout_join(
        "BNL writing to HDD",
        presets::hdd_ram(20 * 1024 + 64 * 1024),
        "HDD",
    )
}

/// Row 5 — BNL product join writing to a second HDD.
pub fn bnl_writeout_other_hdd() -> Experiment {
    writeout_join(
        "BNL wr. to other HDD",
        presets::two_hdd_ram(20 * 1024 + 64 * 1024),
        "HDD2",
    )
}

/// Row 6 — BNL product join writing to flash.
pub fn bnl_writeout_flash() -> Experiment {
    writeout_join(
        "BNL writing to flash",
        presets::hdd_flash_ram(20 * 1024 + 64 * 1024),
        "SSD",
    )
}

/// Row 7 — External sorting (1 GiB of 1-byte elements, 260 KiB RAM).
pub fn external_sorting() -> Experiment {
    let x = 1 << 30;
    Experiment {
        name: "External sorting".into(),
        spec: specs::sort(x),
        hierarchy: presets::hdd_ram(260 * 1024),
        layout: Layout::all_inputs_on("HDD", &["R"]).with_output("HDD"),
        rel_specs: vec![{
            let mut r = RelSpec::ints("R", "HDD", x);
            r.col_bytes = 1;
            r
        }],
        output: Output::ToDevice {
            device: "HDD".into(),
            buffer_bytes: 64 * 1024,
        },
        scratch: "HDD".into(),
        depth: 12,
        max_programs: 400,
        exclude_rules: vec![
            "apply-block",
            "prefetch",
            "swap-iter",
            "swap-iter-cond",
            "order-inputs",
            "hash-part",
            "seq-ac",
        ],
    }
}

fn merge_experiment(name: &str, spec: Spec, cards: (u64, u64), width: u32) -> Experiment {
    let (x, y) = cards;
    let mk = |n: &str, c: u64| {
        let mut r = if width == 2 {
            RelSpec::pairs(n, "HDD", c)
        } else {
            RelSpec::ints(n, "HDD", c)
        };
        r.sorted = true;
        r
    };
    Experiment {
        name: name.into(),
        spec,
        hierarchy: presets::hdd_ram(48 * 1024),
        layout: Layout::all_inputs_on("HDD", &["A", "B"]).with_output("HDD"),
        rel_specs: vec![mk("A", x), mk("B", y)],
        output: Output::ToDevice {
            device: "HDD".into(),
            buffer_bytes: 16 * 1024,
        },
        scratch: "HDD".into(),
        depth: 3,
        max_programs: 100,
        exclude_rules: vec![
            "apply-block",
            "prefetch",
            "swap-iter",
            "swap-iter-cond",
            "order-inputs",
            "hash-part",
            "fldL-to-trfld",
        ],
    }
}

/// Row 8 — set union of 2 GiB + 2 GiB sorted lists (8-byte values).
pub fn set_union() -> Experiment {
    let x = (2048 * MIB) / 8;
    merge_experiment("Set Union", specs::set_union(x, x), (x, x), 1)
}

/// Row 9 — multiset union, sorted-list representation.
pub fn multiset_union_sorted() -> Experiment {
    let x = (2048 * MIB) / 8;
    merge_experiment(
        "Multiset Union (sorted list)",
        specs::multiset_union_sorted(x, x),
        (x, x),
        1,
    )
}

/// Row 10 — multiset union, value–multiplicity representation.
pub fn multiset_union_vm() -> Experiment {
    let x = (2048 * MIB) / 16;
    merge_experiment(
        "Multiset Union (value-multiplicity)",
        specs::multiset_union_vm(x, x),
        (x, x),
        2,
    )
}

/// Row 11 — multiset difference, sorted-list representation.
pub fn multiset_diff_sorted() -> Experiment {
    let x = (2048 * MIB) / 8;
    merge_experiment(
        "Multiset Diff. (sorted list)",
        specs::multiset_diff_sorted(x, x),
        (x, x),
        1,
    )
}

/// Row 12 — multiset difference, value–multiplicity representation.
pub fn multiset_diff_vm() -> Experiment {
    let x = (2048 * MIB) / 16;
    merge_experiment(
        "Multiset Diff. (value-multiplicity)",
        specs::multiset_diff_vm(x, x),
        (x, x),
        2,
    )
}

/// Rows 13–14 — column-store read of `n` columns (4 GiB per 5 columns).
pub fn column_store_read(n: usize) -> Experiment {
    let card = (4096 * MIB) / 8 / 5; // ~0.8 GiB per column
    let spec = specs::column_read(n, card);
    let names: Vec<String> = (1..=n).map(|i| format!("C{i}")).collect();
    Experiment {
        name: format!("Column Store Read {n} cols."),
        spec,
        hierarchy: presets::hdd_ram(n as u64 * MIB),
        layout: Layout {
            inputs: names
                .iter()
                .map(|c| (c.clone(), "HDD".to_string()))
                .collect(),
            output: None,
        },
        rel_specs: names
            .iter()
            .map(|c| RelSpec::ints(c, "HDD", card))
            .collect(),
        output: Output::Discard,
        scratch: "HDD".into(),
        depth: 2,
        max_programs: 50,
        exclude_rules: vec![
            "apply-block",
            "prefetch",
            "swap-iter",
            "swap-iter-cond",
            "order-inputs",
            "hash-part",
            "fldL-to-trfld",
        ],
    }
}

/// Row 15 — duplicate removal from a 16 GiB sorted list.
pub fn dedup_sorted() -> Experiment {
    let x = (16 * 1024 * MIB) / 8;
    Experiment {
        name: "Duplicate Removal from a Sorted List".into(),
        spec: specs::dedup_sorted(x),
        hierarchy: presets::hdd_ram(16 * 1024),
        layout: Layout::all_inputs_on("HDD", &["L"]).with_output("HDD"),
        rel_specs: vec![RelSpec::ints("L", "HDD", x).sorted().with_key_range(x / 2)],
        output: Output::ToDevice {
            device: "HDD".into(),
            buffer_bytes: 8 * 1024,
        },
        scratch: "HDD".into(),
        depth: 3,
        max_programs: 100,
        exclude_rules: vec![
            "apply-block",
            "prefetch",
            "swap-iter",
            "swap-iter-cond",
            "order-inputs",
            "hash-part",
            "fldL-to-trfld",
        ],
    }
}

/// Row 16 — aggregation (avg) over 4 GiB of integers.
pub fn aggregation() -> Experiment {
    let x = (4096 * MIB) / 8;
    Experiment {
        name: "Aggregation".into(),
        spec: specs::aggregate(x),
        hierarchy: presets::hdd_ram(32 * 1024),
        layout: Layout::all_inputs_on("HDD", &["L"]),
        rel_specs: vec![RelSpec::ints("L", "HDD", x)],
        output: Output::Discard,
        scratch: "HDD".into(),
        depth: 3,
        max_programs: 100,
        exclude_rules: vec![
            "swap-iter",
            "swap-iter-cond",
            "order-inputs",
            "hash-part",
            "fldL-to-trfld",
        ],
    }
}

/// All sixteen Table 1 rows in order.
pub fn table1() -> Vec<Experiment> {
    vec![
        bnl_no_writeout(),
        bnl_with_cache(),
        grace_hash_join(),
        bnl_writeout_same_hdd(),
        bnl_writeout_other_hdd(),
        bnl_writeout_flash(),
        external_sorting(),
        set_union(),
        multiset_union_sorted(),
        multiset_union_vm(),
        multiset_diff_sorted(),
        multiset_diff_vm(),
        column_store_read(5),
        column_store_read(10),
        dedup_sorted(),
        aggregation(),
    ]
}

/// One Figure 8 point: estimated vs simulated-measured seconds.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// Panel name.
    pub panel: &'static str,
    /// X-axis label (sizes).
    pub label: String,
    /// Estimated seconds.
    pub estimated: f64,
    /// Simulated-measured seconds.
    pub measured: f64,
}

/// Figure 8: estimated and measured times for varying input/buffer sizes
/// across the three panels (BNL write-out, merge-sort, aggregation).
pub fn figure8() -> Result<Vec<Fig8Point>, ExpError> {
    let mut out = Vec::new();

    // Panel 1: BNL with write-out, growing product size.
    for (r_tuples, s_tuples, buf) in [
        (1024u64, 1 << 18, 16 * 1024u64),
        (2048, 1 << 19, 16 * 1024),
        (4096, 1 << 20, 32 * 1024),
    ] {
        let mut e = writeout_join(
            "BNL - write-out",
            presets::two_hdd_ram(buf + 64 * 1024),
            "HDD2",
        );
        e.spec = specs::join(r_tuples, s_tuples, true);
        e.rel_specs = vec![
            RelSpec::pairs("R", "HDD", r_tuples),
            RelSpec::pairs("S", "HDD", s_tuples),
        ];
        e.output = Output::ToDevice {
            device: "HDD2".into(),
            buffer_bytes: buf,
        };
        let row = e.run()?;
        out.push(Fig8Point {
            panel: "BNL - write-out",
            label: format!("{}x{}/{}K", r_tuples, s_tuples, buf / 1024),
            estimated: row.opt_seconds,
            measured: row.act_seconds,
        });
    }

    // Panel 2: merge-sort, growing input.
    for (tuples, buf) in [
        (1u64 << 28, 128 * 1024u64),
        (1 << 29, 192 * 1024),
        (1 << 30, 260 * 1024),
    ] {
        let mut e = external_sorting();
        e.spec = specs::sort(tuples);
        e.hierarchy = presets::hdd_ram(buf);
        e.rel_specs = vec![{
            let mut r = RelSpec::ints("R", "HDD", tuples);
            r.col_bytes = 1;
            r
        }];
        let row = e.run()?;
        out.push(Fig8Point {
            panel: "Merge-sort",
            label: format!("{}M/{}K", tuples >> 20, buf / 1024),
            estimated: row.opt_seconds,
            measured: row.act_seconds,
        });
    }

    // Panel 3: aggregation, growing input.
    for (tuples, buf) in [
        ((1024 * MIB) / 8, 16 * 1024u64),
        ((2048 * MIB) / 8, 32 * 1024),
        ((4096 * MIB) / 8, 64 * 1024),
    ] {
        let mut e = aggregation();
        e.spec = specs::aggregate(tuples);
        e.hierarchy = presets::hdd_ram(buf);
        e.rel_specs = vec![RelSpec::ints("L", "HDD", tuples)];
        let row = e.run()?;
        out.push(Fig8Point {
            panel: "Aggregation",
            label: format!("{}M/{}K", (tuples * 8) >> 20, buf / 1024),
            estimated: row.opt_seconds,
            measured: row.act_seconds,
        });
    }
    Ok(out)
}

/// One faithful-scale twin comparison: a relation strictly larger than
/// the hierarchy's RAM device, executed **faithfully** on the device
/// simulator and on the real file backend with output collection off,
/// compared by row count and emission digest, with the metered peak of
/// resident tuple bytes on both backends.
#[derive(Debug, Clone)]
pub struct FaithfulScaleReport {
    /// Workload name.
    pub name: String,
    /// Input relation size in bytes (strictly above `ram_bytes`).
    pub relation_bytes: u64,
    /// The hierarchy's RAM device size in bytes.
    pub ram_bytes: u64,
    /// Rows both twins emitted.
    pub output_rows: u64,
    /// The simulator twin's emission digest.
    pub output_digest: u64,
    /// True when both twins agreed on rows and digest.
    pub outputs_match: bool,
    /// Peak resident tuple bytes of the simulator twin (generator
    /// windows + sink staging; output collection off).
    pub sim_peak_resident: u64,
    /// Peak resident tuple bytes of the real-backend twin.
    pub real_peak_resident: u64,
    /// Simulated seconds of the simulator twin.
    pub sim_seconds: f64,
    /// Wall seconds of the real-backend execution.
    pub wall_seconds: f64,
}

impl FaithfulScaleReport {
    /// True when both twins' metered peaks stayed strictly below the RAM
    /// device size while the relation exceeded it — the past-RAM claim.
    pub fn peak_bounded(&self) -> bool {
        self.relation_bytes > self.ram_bytes
            && self.sim_peak_resident < self.ram_bytes
            && self.real_peak_resident < self.ram_bytes
    }
}

/// RAM device size of the faithful-scale configuration.
pub const FAITHFUL_SCALE_RAM: u64 = 1 << 20;

/// The faithful-scale workloads: streaming templates over a relation
/// `2 * scale` times the RAM device (generator cache capped at 1/8 of
/// RAM), faithful on both backends. This is the simulator-twin
/// configuration the streamed `Relation` generator exists for: before it,
/// faithful comparisons were capped by host RAM because every relation
/// materialized eagerly.
pub fn faithful_scale(scale: u64) -> Result<Vec<FaithfulScaleReport>, ExpError> {
    use ocas_runtime::{FileBackend, PoolConfig};
    let scale = scale.max(1);
    let ram = FAITHFUL_SCALE_RAM;
    let cache = ram / 8;
    let card = 2 * scale * ram / 8; // 8-byte ints: relation = 2 * scale * ram
    let ints = || {
        RelSpec::ints("L", "HDD", card)
            .with_key_range(card / 2)
            .with_cache_bytes(cache)
    };
    let out = Output::ToDevice {
        device: "HDD".into(),
        buffer_bytes: 1 << 16,
    };
    let workloads: Vec<(&str, Plan, RelSpec)> = vec![
        (
            "aggregate past RAM",
            Plan::Aggregate {
                input: 0,
                b_in: 4096,
            },
            ints(),
        ),
        (
            "dedup-sorted past RAM",
            Plan::DedupSorted {
                input: 0,
                b_in: 4096,
                output: out.clone(),
            },
            ints().sorted(),
        ),
        (
            "external-sort past RAM",
            Plan::ExternalSort {
                input: 0,
                fan_in: 8,
                b_in: 4096,
                b_out: 8192,
                scratch: "HDD".into(),
                output: out,
            },
            ints(),
        ),
    ];

    let mut reports = Vec::new();
    for (name, plan, spec) in workloads {
        let h = presets::hdd_ram(ram);
        let run_one = |stats: &ocas_engine::ExecStats| {
            (
                stats.output_rows,
                stats.output_digest.unwrap_or(0),
                stats.peak_resident_bytes,
            )
        };

        // Simulator twin.
        let sm = StorageSim::from_hierarchy(&h);
        let mut sim =
            Executor::new(sm, Mode::Faithful, CpuModel::default()).with_output_collection(false);
        let rel = Relation::create(&mut sim.sm, &spec, true, 77)?;
        sim.add_relation(rel);
        let sim_stats = sim.run(&plan)?;
        let (sim_rows, sim_digest, sim_peak) = run_one(&sim_stats);

        // Real-backend twin: the same plan over actual temp files.
        let fb = FileBackend::from_hierarchy(&h, PoolConfig::default())
            .map_err(ocas_engine::ExecError::from)?;
        let mut real =
            Executor::new(fb, Mode::Faithful, CpuModel::disabled()).with_output_collection(false);
        let rel = Relation::create(&mut real.sm, &spec, true, 77)?;
        real.add_relation(rel);
        let t0 = std::time::Instant::now();
        let real_stats = real.run(&plan)?;
        let wall_seconds = t0.elapsed().as_secs_f64();
        let (real_rows, real_digest, real_peak) = run_one(&real_stats);

        reports.push(FaithfulScaleReport {
            name: name.to_string(),
            relation_bytes: card * 8,
            ram_bytes: ram,
            output_rows: sim_rows,
            output_digest: sim_digest,
            outputs_match: sim_rows == real_rows && sim_digest == real_digest,
            sim_peak_resident: sim_peak,
            real_peak_resident: real_peak,
            sim_seconds: sim_stats.seconds,
            wall_seconds,
        });
    }
    Ok(reports)
}

/// The cache-miss companion experiment ("BNL with cache"): faithful
/// execution at reduced scale, tiled vs untiled, returning
/// `(untiled_misses, tiled_misses)`.
pub fn cache_miss_comparison() -> Result<(u64, u64), ExpError> {
    let run = |tiled: bool| -> Result<u64, ExpError> {
        let h = presets::hdd_ram(1 << 30);
        let sm = StorageSim::from_hierarchy(&h);
        let mut ex = Executor::new(sm, Mode::Faithful, CpuModel::default())
            .with_cache(CacheSim::new(64 * 1024, 512, 8));
        let r = Relation::create(
            &mut ex.sm,
            &RelSpec::pairs("R", "HDD", 8192).with_key_range(200),
            true,
            21,
        )?;
        let s = Relation::create(
            &mut ex.sm,
            &RelSpec::pairs("S", "HDD", 8192).with_key_range(200),
            true,
            22,
        )?;
        let ri = ex.add_relation(r);
        let si = ex.add_relation(s);
        let stats = ex.run(&Plan::BnlJoin {
            outer: ri,
            inner: si,
            k1: 8192,
            k2: 8192,
            tiling: if tiled {
                Some(ocas_engine::plan::Tiling {
                    outer: 512,
                    inner: 512,
                })
            } else {
                None
            },
            pred: ocas_engine::JoinPred::KeyEq,
            order_inputs: false,
            output: Output::Discard,
        })?;
        Ok(stats.cache.map(|c| c.misses).unwrap_or(0))
    };
    Ok((run(false)?, run(true)?))
}
