//! The synthesizer pipeline: search → cost → parameter tuning → best plan.
//!
//! Cost estimation is **pipelined into the search loop** instead of being a
//! post-hoc pass over the explored space: the search runs on the calling
//! thread, and the callback handed to [`ocas_rewrite::search_with`] sends
//! each accepted program to a pool of scoped cost-worker threads (cost
//! analysis + ladder screening) while the frontier keeps expanding. That
//! pool is the synthesizer's only parallelism. The search is exhaustive,
//! and results are merged by program index, so the outcome is bit-identical
//! to a sequential search-then-cost pass for every worker count. The five candidates the
//! ladder ranks cheapest are then refined with the full pattern search, on
//! the problems the workers built for them — a program is costed once.

use crate::specs::Spec;
use ocal::Expr;
use ocas_cost::{CostEngine, CostError, CostReport, Layout};
use ocas_opt::{ladder_search, optimize, Optimum, Problem};
use ocas_rewrite::{default_rules, search_with, Rule, SearchConfig, SearchStats, ValidationCfg};
use ocas_symbolic::Expr as Sym;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::mpsc;
use std::sync::Mutex;

/// How many of the candidates the ladder ranks cheapest get the full
/// pattern-search refinement.
const REFINE_TOP: usize = 5;

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
    /// Rule names to exclude (per-experiment scoping, e.g. disabling
    /// *hash-part* to study plain BNL).
    pub exclude_rules: Vec<String>,
    /// Pipelined cost-estimation workers (0 = available parallelism), the
    /// synthesizer's only threads besides the one that searches.
    pub cost_workers: usize,
}

/// A program handed from the search thread to the cost workers.
struct CostJob {
    index: usize,
    program: Expr,
    depth: u32,
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

/// The screened candidates the ladder ranks cheapest, best first, each with
/// the problem it was screened on: refinement re-tunes these problems
/// instead of costing the programs again, and no other candidate's problem
/// outlives its screening. Equal estimates keep program-index order, the
/// order a stable sort of the index-merged results gives.
#[derive(Default)]
struct Cheapest(Vec<(usize, Candidate, Problem)>);

impl Cheapest {
    fn offer(&mut self, index: usize, cand: &Candidate, problem: Problem) {
        let at = self
            .0
            .iter()
            .position(|(i, c, _)| {
                let by_cost = cand
                    .seconds
                    .partial_cmp(&c.seconds)
                    .expect("finite estimates");
                by_cost.then(index.cmp(i)).is_lt()
            })
            .unwrap_or(self.0.len());
        if at < REFINE_TOP {
            self.0.insert(at, (index, cand.clone(), problem));
            self.0.truncate(REFINE_TOP);
        }
    }
}

/// Re-tunes a screened candidate's problem with the full pattern search
/// (the ladder when the pattern search fails).
fn refine_candidate(cand: &Candidate, problem: &Problem) -> Option<Candidate> {
    let tuned: Optimum = optimize(problem).or_else(|_| ladder_search(problem)).ok()?;
    Some(Candidate {
        params: tuned.values,
        seconds: tuned.objective,
        ..cand.clone()
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
            exclude_rules: Vec::new(),
            cost_workers: 0,
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

    /// Fixes the cost-worker count, builder style.
    pub fn with_workers(mut self, cost: usize) -> Synthesizer {
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
        let mut validation = ValidationCfg::new(spec.env.clone(), spec.equivalence);
        if spec.sorted_inputs {
            validation = validation.with_sorted_inputs();
        }
        let cfg = SearchConfig {
            max_depth: self.max_depth,
            max_programs: self.max_programs,
            validation: Some(validation),
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

        let (tx, rx) = mpsc::channel::<CostJob>();
        let rx = Mutex::new(rx);
        // Per program index, its tuned candidate (`None`: not costable).
        let results: Mutex<Vec<(usize, Option<Candidate>)>> = Mutex::new(Vec::new());
        let cheapest = Mutex::new(Cheapest::default());
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
                let (rx, results, cheapest, timings) = (&rx, &results, &cheapest, &timings);
                s.spawn(move || loop {
                    let job = match rx.lock().unwrap().recv() {
                        Ok(job) => job,
                        Err(_) => break,
                    };
                    let t0 = obs_epoch.map(|(epoch, _)| epoch.elapsed().as_secs_f64());
                    // How hard the job was to tune, for its trace span.
                    let (mut evals, mut params) = (0u64, 0usize);
                    let costed = candidate_problem(engine, spec, &job.program).ok().and_then(
                        |(problem, report)| {
                            params = problem.params.len();
                            let tuned = ladder_search(&problem).ok()?;
                            evals = tuned.evals;
                            let cand = Candidate {
                                program: job.program,
                                depth: job.depth,
                                params: tuned.values,
                                seconds: tuned.objective,
                                formula: report.seconds,
                            };
                            cheapest
                                .lock()
                                .expect("no cost worker panics holding the shortlist")
                                .offer(job.index, &cand, problem);
                            Some(cand)
                        },
                    );
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
                    results.lock().unwrap().push((job.index, costed));
                });
            }
            // The callback owns the sender: `search_with` drops it on
            // return, which closes the channel so the workers drain the
            // queue and exit; the scope joins them before returning.
            search_with(
                &spec.program,
                &spec.env,
                &self.hierarchy,
                &self.layout.inputs,
                self.layout.output.clone(),
                &rules,
                &cfg,
                move |index, program, depth| {
                    let _ = tx.send(CostJob {
                        index,
                        program: program.clone(),
                        depth,
                    });
                },
            )
        })
        .map_err(SynthError::Type)?;

        // Deterministic merge: results keyed by program index, exactly the
        // order the old post-hoc costing pass produced.
        let mut outs = results.into_inner().unwrap();
        outs.sort_unstable_by_key(|(i, _)| *i);
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
        let uncosted = outs.iter().filter(|(_, c)| c.is_none()).count();
        let costed: Vec<Candidate> = outs.into_iter().filter_map(|(_, c)| c).collect();
        if costed.is_empty() {
            return Err(SynthError::NoCandidate);
        }
        let spec_candidate = costed
            .iter()
            .find(|c| c.depth == 0)
            .unwrap_or(&costed[0])
            .clone();

        // Refine the most promising candidates with the full pattern search.
        let cheapest = cheapest
            .into_inner()
            .expect("no cost worker panics holding the shortlist")
            .0;
        let mut best = cheapest[0].1.clone();
        for (_, cand, problem) in &cheapest {
            if let Some(refined) = refine_candidate(cand, problem) {
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
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cost workers offer candidates in whatever order they finish, so the
    /// shortlist must break equal estimates by program index, the order of
    /// the index-merged results.
    #[test]
    fn the_shortlist_breaks_equal_estimates_by_program_index() {
        let offer = |cheapest: &mut Cheapest, index: usize, seconds: f64| {
            let cand = Candidate {
                program: Expr::Int(index as i64),
                depth: 1,
                params: BTreeMap::new(),
                seconds,
                formula: Sym::int(0),
            };
            let problem = Problem {
                objective: Sym::int(0),
                params: Vec::new(),
                constraints: Vec::new(),
                fixed: Default::default(),
            };
            cheapest.offer(index, &cand, problem);
        };
        let mut cheapest = Cheapest::default();
        for index in [6, 2, 7, 0, 3, 5, 1, 4] {
            offer(&mut cheapest, index, 1.0);
        }
        offer(&mut cheapest, 9, 0.5);
        offer(&mut cheapest, 8, 2.0);
        let order: Vec<usize> = cheapest.0.iter().map(|(i, _, _)| *i).collect();
        assert_eq!(order, [9, 0, 1, 2, 3]);
        for (i, cand, _) in &cheapest.0 {
            assert_eq!(cand.program, Expr::Int(*i as i64));
        }
    }
}
