//! The synthesizer pipeline: search → cost → parameter tuning → best plan.
//!
//! Cost estimation is **pipelined into the search loop** instead of being a
//! post-hoc pass over the explored space: the search's
//! [`ocas_rewrite::SearchHooks`] hand each accepted program to a pool of
//! scoped cost-worker threads (cost analysis + ladder screening) while the
//! frontier keeps expanding. Results are merged by program index, so with
//! pruning off the outcome is bit-identical to the old sequential
//! search-then-cost pass.
//!
//! An opt-in branch-and-bound prune ([`PruneCfg`]) additionally skips both
//! the ladder screening and the *expansion* of candidates whose admissible
//! cost lower bound ([`ocas_opt::admissible_lower_bound`]) already exceeds
//! the best tuned cost seen so far. It is OFF by default precisely because
//! it changes the explored space (Table 1's `explored`/`depth_reached`
//! stats are pinned against the exhaustive baseline).

use crate::specs::Spec;
use ocal::Expr;
use ocas_cost::{CostEngine, CostError, CostReport, Layout};
use ocas_opt::{admissible_lower_bound, ladder_search, optimize, Optimum, Problem};
use ocas_rewrite::{
    default_rules, search_with, Rule, SearchConfig, SearchHooks, SearchStats, ValidationCfg,
};
use ocas_symbolic::Expr as Sym;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;

/// One costed candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The program.
    pub program: Expr,
    /// Derivation depth at which the search found it.
    pub depth: u32,
    /// Tuned parameter values.
    pub params: BTreeMap<String, u64>,
    /// Estimated seconds at the tuned parameters.
    pub seconds: f64,
    /// The symbolic cost formula.
    pub formula: Sym,
}

/// The synthesizer's result.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The winning program with tuned parameters.
    pub best: Candidate,
    /// The specification's own (naive) cost, parameters tuned the same way.
    pub spec: Candidate,
    /// Search statistics (paper Table 1's space/steps/runtime columns).
    pub stats: SearchStats,
    /// How many candidates were costed successfully.
    pub costed: usize,
    /// How many candidates the cost engine could not analyze.
    pub uncosted: usize,
    /// How many candidates the branch-and-bound screen skipped the ladder
    /// for (0 unless [`Synthesizer::prune`] is set).
    pub screened: usize,
}

/// Synthesizer errors.
#[derive(Debug)]
pub enum SynthError {
    /// The specification itself failed to typecheck.
    Type(ocal::TypeError),
    /// The specification could not be costed.
    Cost(CostError),
    /// No candidate could be costed and tuned.
    NoCandidate,
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::Type(e) => write!(f, "type error: {e}"),
            SynthError::Cost(e) => write!(f, "cost error: {e}"),
            SynthError::NoCandidate => write!(f, "no candidate program could be costed"),
        }
    }
}

impl std::error::Error for SynthError {}

/// Branch-and-bound pruning policy (opt-in, see [`Synthesizer::prune`]).
#[derive(Debug, Clone, Copy)]
pub struct PruneCfg {
    /// A candidate is pruned when its admissible lower bound exceeds
    /// `slack ×` the incumbent best tuned cost. `1.0` prunes everything
    /// that provably cannot win; larger values keep a safety margin of
    /// candidates whose *descendants* might still improve.
    pub slack: f64,
}

impl Default for PruneCfg {
    fn default() -> PruneCfg {
        PruneCfg { slack: 1.0 }
    }
}

/// The synthesizer: a hierarchy, a physical layout and search settings.
pub struct Synthesizer {
    /// Target memory hierarchy.
    pub hierarchy: ocas_hierarchy::Hierarchy,
    /// Physical layout of inputs/output/spill.
    pub layout: Layout,
    /// BFS depth limit.
    pub max_depth: u32,
    /// Cap on the explored program count.
    pub max_programs: usize,
    /// Enable differential validation of candidates.
    pub validate: bool,
    /// Rule names to exclude (per-experiment scoping, e.g. disabling
    /// *hash-part* to study plain BNL).
    pub exclude_rules: Vec<String>,
    /// How many ladder-screened candidates get the full pattern-search
    /// refinement.
    pub refine_top: usize,
    /// Search frontier-expansion workers (0 = available parallelism).
    pub search_workers: usize,
    /// Pipelined cost-estimation workers (0 = available parallelism).
    pub cost_workers: usize,
    /// Opt-in branch-and-bound pruning. `None` (the default) keeps the
    /// search exhaustive and every statistic bit-identical to the
    /// sequential baseline; `Some` trades that determinism for a smaller
    /// explored space on cost-dominated workloads.
    pub prune: Option<PruneCfg>,
}

/// A program handed from the search thread to the cost workers.
struct CostJob {
    index: usize,
    program: Expr,
    depth: u32,
}

/// A cost analysis prepared by the prune hook on the search thread and
/// handed to the cost workers so the analysis is not repeated there.
struct PreparedCost {
    lower_bound: f64,
    problem: Problem,
    report: CostReport,
}

/// What a cost worker measured for one job; it becomes a trace span at
/// the index-sorted merge (workers carry no recorder).
struct JobTiming {
    worker: usize,
    index: usize,
    start: f64,
    dur: f64,
    evals: u64,
    params: usize,
}

/// What a cost worker produced for one program index.
enum CostOut {
    Costed(usize, Box<Candidate>),
    Uncosted(usize),
    Screened(usize),
}

/// Lock-free running minimum over f64 bits (all values are ≥ 0 here, so
/// the IEEE total order agrees with the numeric order on the bit level).
fn fetch_min(cell: &AtomicU64, value: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    while value < f64::from_bits(cur) {
        match cell.compare_exchange_weak(cur, value.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => break,
            Err(seen) => cur = seen,
        }
    }
}

/// Search hooks implementing the cost pipeline: `on_program` enqueues each
/// accepted program for the cost workers; `should_expand` consults the
/// branch-and-bound bound when pruning is enabled.
struct PipelineHooks<'a> {
    tx: Option<mpsc::Sender<CostJob>>,
    prune: Option<PruneCfg>,
    incumbent: &'a AtomicU64,
    prepared: &'a Mutex<HashMap<usize, PreparedCost>>,
    engine: &'a CostEngine<'a>,
    spec: &'a Spec,
}

impl SearchHooks for PipelineHooks<'_> {
    fn on_program(&mut self, index: usize, program: &Expr, depth: u32) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(CostJob {
                index,
                program: program.clone(),
                depth,
            });
        }
    }

    fn should_expand(&mut self, index: usize, program: &Expr, _depth: u32) -> bool {
        let Some(prune) = self.prune else {
            return true;
        };
        let incumbent = f64::from_bits(self.incumbent.load(Ordering::Relaxed));
        if !incumbent.is_finite() {
            return true;
        }
        // The bound is computed here (one cost-analysis pass, no ladder)
        // rather than waiting for the asynchronous cost worker — by the
        // time the worker gets to this program the frontier has moved on.
        // The analysis is stashed for that worker so it is not repeated.
        match candidate_problem(self.engine, self.spec, program) {
            Ok((problem, report)) => match admissible_lower_bound(&problem) {
                Ok(lb) => {
                    let verdict = lb <= prune.slack * incumbent;
                    self.prepared.lock().unwrap().insert(
                        index,
                        PreparedCost {
                            lower_bound: lb,
                            problem,
                            report,
                        },
                    );
                    verdict
                }
                Err(_) => true,
            },
            // Uncostable programs can't beat the incumbent themselves,
            // but their descendants might become costable; expand.
            Err(_) => true,
        }
    }
}

/// Cost-analyzes one program into an optimization problem.
fn candidate_problem(
    engine: &CostEngine<'_>,
    spec: &Spec,
    program: &Expr,
) -> Result<(Problem, CostReport), CostError> {
    let report: CostReport = engine.cost(program)?;
    let problem = Problem {
        objective: report.seconds.clone(),
        params: report
            .params
            .iter()
            .map(|p| ocas_opt::ParamSpec::new(p.clone(), None))
            .collect(),
        constraints: report
            .constraints
            .iter()
            .map(|c| (c.lhs.clone(), c.rhs.clone()))
            .collect(),
        fixed: spec.stats.clone(),
    };
    Ok((problem, report))
}

/// Costs one program and tunes its parameters (cheap ladder screening,
/// optionally refined with the full pattern search).
fn cost_candidate(
    engine: &CostEngine<'_>,
    spec: &Spec,
    program: &Expr,
    depth: u32,
    refine: bool,
) -> Result<Candidate, CostError> {
    let (problem, report) = candidate_problem(engine, spec, program)?;
    let tuned: Optimum = if refine {
        optimize(&problem)
            .or_else(|_| ladder_search(&problem))
            .map_err(|_| CostError::Unsupported("parameter optimization"))?
    } else {
        ladder_search(&problem).map_err(|_| CostError::Unsupported("parameter optimization"))?
    };
    Ok(Candidate {
        program: program.clone(),
        depth,
        params: tuned.values,
        seconds: tuned.objective,
        formula: report.seconds,
    })
}

impl Synthesizer {
    /// A synthesizer with default settings.
    pub fn new(hierarchy: ocas_hierarchy::Hierarchy, layout: Layout) -> Synthesizer {
        Synthesizer {
            hierarchy,
            layout,
            max_depth: 6,
            max_programs: 2000,
            validate: true,
            exclude_rules: Vec::new(),
            refine_top: 5,
            search_workers: 0,
            cost_workers: 0,
            prune: None,
        }
    }

    /// Sets the search depth, builder style.
    pub fn with_depth(mut self, depth: u32) -> Synthesizer {
        self.max_depth = depth;
        self
    }

    /// Caps the explored space, builder style.
    pub fn with_max_programs(mut self, n: usize) -> Synthesizer {
        self.max_programs = n;
        self
    }

    /// Excludes rules by name, builder style.
    pub fn without_rules(mut self, names: &[&str]) -> Synthesizer {
        self.exclude_rules = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Disables differential validation (trust the syntactic guards).
    pub fn without_validation(mut self) -> Synthesizer {
        self.validate = false;
        self
    }

    /// Enables branch-and-bound pruning, builder style.
    pub fn with_prune(mut self, prune: PruneCfg) -> Synthesizer {
        self.prune = Some(prune);
        self
    }

    /// Fixes the worker counts (searching, costing), builder style.
    pub fn with_workers(mut self, search: usize, cost: usize) -> Synthesizer {
        self.search_workers = search;
        self.cost_workers = cost;
        self
    }

    fn rules(&self) -> Vec<Box<dyn Rule>> {
        default_rules()
            .into_iter()
            .filter(|r| !self.exclude_rules.iter().any(|x| x == r.name()))
            .collect()
    }

    /// Runs the full pipeline on a specification.
    pub fn synthesize(&self, spec: &Spec) -> Result<Synthesis, SynthError> {
        let validation = if self.validate {
            let mut v = ValidationCfg::new(spec.env.clone(), spec.equivalence);
            if spec.sorted_inputs {
                v = v.with_sorted_inputs();
            }
            Some(v)
        } else {
            None
        };
        let cfg = SearchConfig {
            max_depth: self.max_depth,
            max_programs: self.max_programs,
            validation,
            workers: self.search_workers,
        };
        let rules = self.rules();
        // One engine per synthesis, shared by reference with the workers.
        let engine = CostEngine::new(
            &self.hierarchy,
            &self.layout,
            spec.annots.clone(),
            spec.stats.clone(),
            spec.int_size,
        )
        .map_err(SynthError::Cost)?;
        let engine = &engine;

        let incumbent = AtomicU64::new(f64::INFINITY.to_bits());
        if self.prune.is_some() {
            // Seed the incumbent with the spec's own tuned cost so the
            // bound has something to prune against from the start.
            if let Ok(c) = cost_candidate(engine, spec, &spec.program, 0, false) {
                fetch_min(&incumbent, c.seconds);
            }
        }

        let (tx, rx) = mpsc::channel::<CostJob>();
        let rx = Mutex::new(rx);
        let results: Mutex<Vec<CostOut>> = Mutex::new(Vec::new());
        let prepared: Mutex<HashMap<usize, PreparedCost>> = Mutex::new(HashMap::new());
        let cost_workers = if self.cost_workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.cost_workers
        };
        // Tracing: the recorder is thread-local, so workers only *measure*
        // (against a shared epoch) and the spans are recorded after the
        // deterministic index-sorted merge below — one span per cost job
        // regardless of the worker count or scheduling.
        let obs_epoch = if ocas_obs::enabled() {
            Some((std::time::Instant::now(), ocas_obs::wall_now()))
        } else {
            None
        };
        let timings: Mutex<Vec<JobTiming>> = Mutex::new(Vec::new());

        let search_result = std::thread::scope(|s| {
            for w in 0..cost_workers {
                let (rx, prepared, results, incumbent, timings) =
                    (&rx, &prepared, &results, &incumbent, &timings);
                s.spawn(move || loop {
                    let job = match rx.lock().unwrap().recv() {
                        Ok(job) => job,
                        Err(_) => break,
                    };
                    let t0 = obs_epoch.map(|(epoch, _)| epoch.elapsed().as_secs_f64());
                    // Reuse the analysis the prune hook already did for
                    // this program, if any (bound included).
                    let ready = prepared.lock().unwrap().remove(&job.index);
                    let analyzed = match ready {
                        Some(pc) => Ok((pc.problem, pc.report, Some(pc.lower_bound))),
                        None => candidate_problem(engine, spec, &job.program)
                            .map(|(problem, report)| (problem, report, None)),
                    };
                    // How hard the job was to tune, for its trace span.
                    let (mut evals, mut params) = (0u64, 0usize);
                    let out = match analyzed {
                        Err(_) => CostOut::Uncosted(job.index),
                        Ok((problem, report, bound)) => {
                            params = problem.params.len();
                            let screened = self.prune.is_some_and(|p| {
                                let inc = f64::from_bits(incumbent.load(Ordering::Relaxed));
                                inc.is_finite()
                                    && bound
                                        .map(Ok)
                                        .unwrap_or_else(|| admissible_lower_bound(&problem))
                                        .is_ok_and(|lb| lb > p.slack * inc)
                            });
                            if screened {
                                CostOut::Screened(job.index)
                            } else {
                                match ladder_search(&problem) {
                                    Err(_) => CostOut::Uncosted(job.index),
                                    Ok(tuned) => {
                                        evals = tuned.evals;
                                        fetch_min(incumbent, tuned.objective);
                                        CostOut::Costed(
                                            job.index,
                                            Box::new(Candidate {
                                                program: job.program.clone(),
                                                depth: job.depth,
                                                params: tuned.values,
                                                seconds: tuned.objective,
                                                formula: report.seconds,
                                            }),
                                        )
                                    }
                                }
                            }
                        }
                    };
                    if let (Some(start), Some((epoch, _))) = (t0, obs_epoch) {
                        timings.lock().unwrap().push(JobTiming {
                            worker: w,
                            index: job.index,
                            start,
                            dur: epoch.elapsed().as_secs_f64() - start,
                            evals,
                            params,
                        });
                    }
                    results.lock().unwrap().push(out);
                });
            }
            let mut hooks = PipelineHooks {
                tx: Some(tx),
                prune: self.prune,
                incumbent: &incumbent,
                prepared: &prepared,
                engine,
                spec,
            };
            let result = search_with(
                &spec.program,
                &spec.env,
                &self.hierarchy,
                &self.layout.inputs,
                self.layout.output.clone(),
                &rules,
                &cfg,
                &mut hooks,
            );
            // Close the channel so the workers drain the queue and exit;
            // the scope joins them before returning.
            hooks.tx.take();
            result
        })
        .map_err(SynthError::Type)?;

        // Deterministic merge: results keyed by program index, exactly the
        // order the old post-hoc costing pass produced.
        let mut outs = results.into_inner().unwrap();
        outs.sort_unstable_by_key(|o| match o {
            CostOut::Costed(i, _) | CostOut::Uncosted(i) | CostOut::Screened(i) => *i,
        });
        if let Some((_, base)) = obs_epoch {
            // One wall-clock span per cost job on its worker's track,
            // recorded in program-index order, with how hard the candidate
            // was to tune: the ladder's objective evaluations and the
            // number of parameters it ranged over (0 and 0 for a program
            // the engine could not analyze).
            let mut ts = timings.into_inner().unwrap();
            ts.sort_unstable_by_key(|t| t.index);
            for t in ts {
                ocas_obs::span(
                    ocas_obs::Clock::Wall,
                    &format!("cost-w{}", t.worker),
                    "cost",
                    base + t.start,
                    t.dur,
                    &[
                        ("index", t.index as f64),
                        ("evals", t.evals as f64),
                        ("params", t.params as f64),
                    ],
                );
            }
        }
        let mut costed: Vec<Candidate> = Vec::new();
        let mut uncosted = 0usize;
        let mut screened = 0usize;
        for out in outs {
            match out {
                CostOut::Costed(_, c) => costed.push(*c),
                CostOut::Uncosted(_) => uncosted += 1,
                CostOut::Screened(_) => screened += 1,
            }
        }
        if costed.is_empty() {
            return Err(SynthError::NoCandidate);
        }
        let spec_candidate = costed
            .iter()
            .find(|c| c.depth == 0)
            .cloned()
            .unwrap_or_else(|| costed[0].clone());

        // Refine the most promising candidates with the full pattern search.
        costed.sort_by(|a, b| a.seconds.partial_cmp(&b.seconds).unwrap());
        let mut best = costed[0].clone();
        for cand in costed.iter().take(self.refine_top) {
            if let Ok(refined) = cost_candidate(engine, spec, &cand.program, cand.depth, true) {
                if refined.seconds < best.seconds {
                    best = refined;
                }
            }
        }
        Ok(Synthesis {
            best,
            spec: spec_candidate,
            stats: search_result.stats,
            costed: costed.len(),
            uncosted,
            screened,
        })
    }
}
