//! Shared by `table1_oracle.rs` and `ladder_throughput.rs`: the tuner as it
//! was before it ran on the compiled form — `Evaluator`, `pattern_search`,
//! `optimize` and `ladder_search` verbatim, a fresh `Env` per probe, over
//! `ocas-symbolic`'s tree-walking oracle evaluator (included by path, one
//! copy) — and the Table 1 problems, built the way the benchmark's
//! `synthesis_stages` builds them. A parity oracle (Deletion policy), not a
//! test by itself.
#![allow(dead_code)]

use ocas::experiments::{self, Experiment};
use ocas_cost::CostEngine;
use ocas_opt::{OptError, Optimum, ParamSpec, Problem};
use ocas_symbolic::{Env, EvalError, Expr};
use std::collections::BTreeMap;

#[path = "../../../ocas-symbolic/tests/oracle/mod.rs"]
mod oracle;
use oracle::eval_tree;

/// Every candidate program of one Table 1 row as an optimization problem:
/// search, cost each explored program with one engine, wrap the report.
pub fn problems_of(exp: &Experiment) -> Vec<Problem> {
    let found = exp.run_search(false, 0, None).expect("search");
    let engine = CostEngine::new(
        &exp.hierarchy,
        &exp.layout,
        exp.spec.annots.clone(),
        exp.spec.stats.clone(),
        exp.spec.int_size,
    )
    .expect("engine");
    found
        .programs
        .iter()
        .filter_map(|(program, _)| engine.cost(program).ok())
        .map(|report| Problem {
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
        })
        .collect()
}

/// The 16 rows' names and problems, in `experiments::table1()` order.
pub fn table1_problems() -> Vec<(String, Vec<Problem>)> {
    experiments::table1()
        .iter()
        .map(|exp| (exp.name.clone(), problems_of(exp)))
        .collect()
}

fn hi(p: &ParamSpec) -> f64 {
    p.hi.unwrap_or(2f64.powi(40))
}

struct Evaluator<'p> {
    problem: &'p Problem,
    evals: u64,
    first_error: Option<String>,
}

impl<'p> Evaluator<'p> {
    fn env(&self, x: &[f64]) -> Env {
        let mut env = self.problem.fixed.clone();
        for (spec, v) in self.problem.params.iter().zip(x) {
            env.set(spec.name.clone(), *v);
        }
        env
    }

    fn objective(&mut self, x: &[f64]) -> Option<f64> {
        self.evals += 1;
        let env = self.env(x);
        match eval_tree(&self.problem.objective, &env) {
            Ok(v) if v.is_finite() => Some(v),
            Ok(_) => None,
            Err(e) => {
                if self.first_error.is_none() {
                    self.first_error = Some(e.to_string());
                }
                None
            }
        }
    }

    /// Total relative violation `Σ max(0, (lhs−rhs)/max(rhs,1))`.
    fn violation(&mut self, x: &[f64]) -> Option<f64> {
        let env = self.env(x);
        let mut total = 0.0;
        for (lhs, rhs) in &self.problem.constraints {
            let l = eval_tree(lhs, &env).ok()?;
            let r = eval_tree(rhs, &env).ok()?;
            let scale = r.abs().max(1.0);
            total += ((l - r) / scale).max(0.0);
        }
        Some(total)
    }

    fn penalized(&mut self, x: &[f64], inv_eps: f64) -> Option<f64> {
        let f = self.objective(x)?;
        let v = self.violation(x)?;
        Some(f + inv_eps * v * f.abs().max(1.0))
    }
}

/// Clamps each coordinate into its box.
fn clamp(x: &mut [f64], params: &[ParamSpec]) {
    for (v, p) in x.iter_mut().zip(params) {
        *v = v.max(p.lo).min(hi(p));
    }
}

/// Pattern (coordinate) search in log₂ space.
fn pattern_search(ev: &mut Evaluator<'_>, start: &[f64], inv_eps: f64, max_iters: u32) -> Vec<f64> {
    let params: Vec<ParamSpec> = ev.problem.params.clone();
    let mut x: Vec<f64> = start.to_vec();
    clamp(&mut x, &params);
    let mut best = ev.penalized(&x, inv_eps).unwrap_or(f64::INFINITY);
    let mut step = 4.0; // log₂ step: ×16 moves initially.
    let mut iters = 0;
    while step > 0.01 && iters < max_iters {
        iters += 1;
        let mut improved = false;
        for i in 0..x.len() {
            for dir in [step, -step] {
                let mut cand = x.clone();
                cand[i] = (cand[i].max(1e-9).log2() + dir).exp2();
                clamp(&mut cand, &params);
                if (cand[i] - x[i]).abs() < f64::EPSILON {
                    continue;
                }
                if let Some(val) = ev.penalized(&cand, inv_eps) {
                    if val < best {
                        best = val;
                        x = cand;
                        improved = true;
                    }
                }
            }
        }
        if !improved {
            step /= 2.0;
        }
    }
    x
}

/// `ocas_opt::optimize` as it was, over the tree-walking evaluator.
pub fn optimize_oracle(problem: &Problem) -> Result<Optimum, OptError> {
    if problem.params.is_empty() {
        let env = problem.fixed.clone();
        let objective = eval_tree(&problem.objective, &env)
            .map_err(|e| OptError::Unevaluable(e.to_string()))?;
        return Ok(Optimum {
            values: BTreeMap::new(),
            objective,
            feasible: true,
            evals: 1,
        });
    }
    let mut ev = Evaluator {
        problem,
        evals: 0,
        first_error: None,
    };
    let n = problem.params.len();

    // Multi-start: geometric low / mid / high points.
    let starts: Vec<Vec<f64>> = vec![
        problem.params.iter().map(|p| p.lo.max(1.0)).collect(),
        problem
            .params
            .iter()
            .map(|p| (p.lo.max(1.0) * hi(p)).sqrt())
            .collect(),
        problem.params.iter().map(hi).collect(),
        problem
            .params
            .iter()
            .map(|p| (hi(p) / (n as f64 + 1.0)).max(p.lo))
            .collect(),
    ];

    let mut incumbent: Option<(Vec<f64>, f64)> = None;
    for start in &starts {
        // Sequential penalty: tighten ε across outer iterations.
        let mut x = start.clone();
        for inv_eps in [1e2, 1e4, 1e6, 1e9] {
            x = pattern_search(&mut ev, &x, inv_eps, 200);
        }
        let feas = ev.violation(&x).is_some_and(|v| v <= 1e-9);
        if let Some(obj) = ev.objective(&x) {
            let score = if feas { obj } else { f64::INFINITY };
            match &incumbent {
                Some((_, best)) if *best <= score => {}
                _ => incumbent = Some((x.clone(), score)),
            }
        }
    }

    let Some((x, _)) = incumbent else {
        return Err(OptError::Unevaluable(
            ev.first_error
                .unwrap_or_else(|| "no evaluable start point".to_string()),
        ));
    };

    // Integer rounding with downward feasibility repair.
    let mut rounded: Vec<f64> = x.iter().map(|v| v.round().max(1.0)).collect();
    clamp(&mut rounded, &problem.params);
    for _ in 0..128 {
        match ev.violation(&rounded) {
            Some(v) if v <= 1e-9 => break,
            Some(_) => {
                // Shrink the largest coordinate still above its lower bound.
                if let Some((i, _)) = rounded
                    .iter()
                    .enumerate()
                    .filter(|(i, v)| **v > problem.params[*i].lo)
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                {
                    rounded[i] = (rounded[i] / 2.0).floor().max(problem.params[i].lo);
                } else {
                    break;
                }
            }
            None => break,
        }
    }
    let feasible = ev.violation(&rounded).is_some_and(|v| v <= 1e-9);
    if !feasible {
        return Err(OptError::Infeasible);
    }
    let objective = ev
        .objective(&rounded)
        .ok_or_else(|| OptError::Unevaluable("rounded point".to_string()))?;
    Ok(Optimum {
        values: problem
            .params
            .iter()
            .zip(&rounded)
            .map(|(p, v)| (p.name.clone(), *v as u64))
            .collect(),
        objective,
        feasible,
        evals: ev.evals,
    })
}

/// `ocas_opt::ladder_search` as it was, over the tree-walking evaluator.
pub fn ladder_oracle(problem: &Problem) -> Result<Optimum, OptError> {
    if problem.params.is_empty() {
        return optimize_oracle(problem);
    }
    let mut ev = Evaluator {
        problem,
        evals: 0,
        first_error: None,
    };
    let mut x: Vec<f64> = problem.params.iter().map(|p| p.lo.max(1.0)).collect();
    fn feas_obj(ev: &mut Evaluator<'_>, x: &[f64]) -> Option<f64> {
        let v = ev.violation(x)?;
        if v > 1e-9 {
            return None;
        }
        ev.objective(x)
    }
    let mut best = feas_obj(&mut ev, &x).unwrap_or(f64::INFINITY);
    loop {
        let mut improved = false;
        for i in 0..x.len() {
            for e in 0..=40u32 {
                let cand_v = (2f64.powi(e as i32))
                    .max(problem.params[i].lo)
                    .min(hi(&problem.params[i]));
                let mut cand = x.clone();
                cand[i] = cand_v;
                if let Some(val) = feas_obj(&mut ev, &cand) {
                    if val < best {
                        best = val;
                        x = cand;
                        improved = true;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    if !best.is_finite() {
        return Err(OptError::Infeasible);
    }
    Ok(Optimum {
        values: problem
            .params
            .iter()
            .zip(&x)
            .map(|(p, v)| (p.name.clone(), *v as u64))
            .collect(),
        objective: best,
        feasible: true,
        evals: ev.evals,
    })
}
