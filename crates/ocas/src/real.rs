//! Running synthesis results for real: lower the winning program and
//! execute it through the `ocas-runtime` file backend, with the simulated
//! twin alongside — it runs at the same time, on the calling thread's twin
//! worker ([`Runtime::run_plan`]).

use crate::experiments::{ExpError, Experiment};
use crate::synth::Synthesis;
use ocas_engine::{lower, Output, RelSpec, WorkloadHint};
use ocas_hierarchy::Hierarchy;
use ocas_runtime::{RealReport, Runtime};
use std::collections::BTreeMap;

/// Everything a synthesis result needs to run against real files: the
/// hierarchy (devices become temp files), faithful-scale relation specs,
/// the workload hint for lowering, and the output/scratch placement.
#[derive(Debug, Clone)]
pub struct RealRunSetup {
    /// Target hierarchy.
    pub hierarchy: Hierarchy,
    /// Lowering hint (the spec's workload family).
    pub hint: WorkloadHint,
    /// Relations to generate — faithful scale: every tuple is materialized
    /// on disk, so cardinalities are "fits in memory", not paper-scale.
    pub rel_specs: Vec<RelSpec>,
    /// Output destination.
    pub output: Output,
    /// Scratch/spill device name.
    pub scratch: String,
    /// Base RNG seed (relation `i` uses `seed + i`).
    pub seed: u64,
}

impl Synthesis {
    /// Lowers the winning program to a physical plan and executes it **for
    /// real**: actual temp files, page-granular buffer pools, wall-clock
    /// seconds — plus the identical plan on the device simulator, run beside
    /// it on a worker thread, so the report carries both numbers and both
    /// outputs.
    pub fn run_real(&self, setup: &RealRunSetup) -> Result<RealReport, ExpError> {
        let mut params = self.best.params.clone();
        params.entry("b_out".to_string()).or_insert(1 << 16);
        params.entry("b_in".to_string()).or_insert(1 << 16);
        let relations: BTreeMap<String, usize> = setup
            .rel_specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.clone(), i))
            .collect();
        let cx = ocas_engine::lower::LowerCtx {
            params,
            relations,
            output: setup.output.clone(),
            scratch: setup.scratch.clone(),
        };
        let plan = lower(&self.best.program, setup.hint, &cx)?;
        let rt = Runtime::new(setup.hierarchy.clone());
        Ok(rt.run_plan(&plan, &setup.rel_specs, setup.seed)?)
    }
}

impl Experiment {
    /// Builds the real-run setup for this experiment with the given
    /// relation specs (an experiment's own `rel_specs` are usually
    /// paper-scale; pass faithful-scale ones).
    pub fn real_setup(&self, rel_specs: Vec<RelSpec>, seed: u64) -> RealRunSetup {
        RealRunSetup {
            hierarchy: self.hierarchy.clone(),
            hint: self.spec.hint,
            rel_specs,
            output: self.output.clone(),
            scratch: self.scratch.clone(),
            seed,
        }
    }

    /// Synthesizes, then executes the winner for real at the experiment's
    /// own relation scale (callers must ensure that scale is faithful).
    pub fn run_real(&self, seed: u64) -> Result<RealReport, ExpError> {
        let synth = self.synthesize()?;
        synth.run_real(&self.real_setup(self.rel_specs.clone(), seed))
    }
}
