//! Non-linear parameter optimization for OCAS.
//!
//! The cost estimator characterizes a candidate program's running time as a
//! possibly non-linear function of block and buffer sizes (`k1`, `k2`,
//! `b_in`, `b_out`, `s1`, …) subject to capacity constraints (paper §1:
//! "We have also implemented the non-linear optimization solver described in
//! [19] (Liuzzi, Lucidi, Sciandrone) to tune the values of parameters so as
//! to minimize the cost estimate").
//!
//! This crate implements that scheme as a **sequential-penalty,
//! derivative-free pattern search**:
//!
//! 1. constraints `g(x) ≤ 0` are folded into a penalized objective
//!    `f(x) + (1/ε)·Σ max(0, g(x)/scale)`;
//! 2. an inner coordinate/pattern search minimizes the penalized objective
//!    in *log₂ space* (parameters are positive and span many orders of
//!    magnitude), halving steps on failure;
//! 3. the penalty parameter `ε` is reduced and the search restarted from the
//!    incumbent until the iterate is feasible and the step small;
//! 4. the result is rounded to integers, repairing feasibility downward.
//!
//! [`ladder_search`] (powers of two, exhaustive per coordinate — what the
//! paper's "maximize k" heuristic corresponds to) is the cheap tuner. What
//! runs where: `ocas::Synthesizer` screens **every** candidate program with
//! the ladder on its cost workers, ranks them by that, and re-tunes only the
//! five cheapest with [`optimize`] (falling back to the ladder's answer
//! where the pattern search finds nothing feasible).
//!
//! Both probe one formula thousands of times, so neither calls
//! `ocas_symbolic::eval` per probe: a problem's objective and constraints
//! are compiled once against one binding table
//! (`ocas_symbolic::{Compiled, Slots}`, fixed variables bound at set-up),
//! and a probe writes its point into the parameter slots and evaluates —
//! no allocation, no name lookup. The compiled form is bit-equal to `eval`,
//! so every tuned value and every [`Optimum::evals`] is what the
//! tree-walking tuner produced (`tests/table1_oracle.rs` holds all 1,909
//! Table 1 problems to that, `tests/ladder_throughput.rs` gates the ratio).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ocas_symbolic::{eval, Compiled, Env, EvalError, Expr as Sym, Slots};
use std::collections::BTreeMap;
use std::fmt;

/// One tunable parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Parameter name as it appears in the objective.
    pub name: String,
    /// Lower bound (inclusive), usually 1.
    pub lo: f64,
    /// Upper bound (inclusive); defaults to 2⁴⁰ when absent.
    pub hi: Option<f64>,
}

impl ParamSpec {
    /// A parameter in `[1, hi]`.
    pub fn new(name: impl Into<String>, hi: Option<f64>) -> ParamSpec {
        ParamSpec {
            name: name.into(),
            lo: 1.0,
            hi,
        }
    }

    fn hi(&self) -> f64 {
        self.hi.unwrap_or(DEFAULT_HI)
    }
}

/// Upper bound of a parameter that declares none: 2⁴⁰.
const DEFAULT_HI: f64 = (1u64 << 40) as f64;

/// A constrained minimization problem over positive parameters.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Objective (seconds) as a symbolic expression.
    pub objective: Sym,
    /// The decision variables.
    pub params: Vec<ParamSpec>,
    /// Constraints `lhs ≤ rhs`.
    pub constraints: Vec<(Sym, Sym)>,
    /// Fixed variables (input cardinalities).
    pub fixed: Env,
}

/// Result of an optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimum {
    /// Chosen parameter values (integral).
    pub values: BTreeMap<String, u64>,
    /// Objective at the optimum.
    pub objective: f64,
    /// Whether all constraints hold at the returned point.
    pub feasible: bool,
    /// Number of objective evaluations spent.
    pub evals: u64,
}

/// Optimization failures.
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// The objective could not be evaluated at any probed point.
    Unevaluable(String),
    /// No feasible point was found.
    Infeasible,
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::Unevaluable(v) => {
                write!(f, "objective not evaluable (first failure: {v})")
            }
            OptError::Infeasible => write!(f, "no feasible parameter assignment found"),
        }
    }
}

impl std::error::Error for OptError {}

/// A problem's binding table: `fixed` bound once, one slot per parameter.
/// Formulas compiled through it are evaluated at a point by writing the
/// point into the parameter slots — a parameter that `fixed` also names
/// takes the point's value.
struct Table<'p> {
    problem: &'p Problem,
    slots: Slots,
    params: Vec<usize>,
}

impl<'p> Table<'p> {
    fn new(problem: &'p Problem) -> Table<'p> {
        let mut slots = Slots::new();
        let params = problem.params.iter().map(|p| slots.slot(&p.name)).collect();
        Table {
            problem,
            slots,
            params,
        }
    }

    fn compile(&mut self, e: &Sym) -> Compiled {
        let formula = Compiled::new(e, &mut self.slots);
        self.slots.bind_env(&self.problem.fixed);
        formula
    }

    fn eval(&mut self, formula: &Compiled, x: &[f64]) -> Result<f64, EvalError> {
        for (slot, v) in self.params.iter().zip(x) {
            self.slots.set(*slot, *v);
        }
        formula.eval(&mut self.slots)
    }
}

struct Evaluator<'p> {
    table: Table<'p>,
    objective: Compiled,
    constraints: Vec<(Compiled, Compiled)>,
    evals: u64,
    first_error: Option<String>,
}

impl<'p> Evaluator<'p> {
    fn new(problem: &'p Problem) -> Evaluator<'p> {
        let mut table = Table::new(problem);
        let objective = table.compile(&problem.objective);
        let constraints = problem
            .constraints
            .iter()
            .map(|(lhs, rhs)| (table.compile(lhs), table.compile(rhs)))
            .collect();
        Evaluator {
            table,
            objective,
            constraints,
            evals: 0,
            first_error: None,
        }
    }

    fn params(&self) -> &'p [ParamSpec] {
        &self.table.problem.params
    }

    fn objective(&mut self, x: &[f64]) -> Option<f64> {
        self.evals += 1;
        match self.table.eval(&self.objective, x) {
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
        let mut total = 0.0;
        for (lhs, rhs) in &self.constraints {
            let l = self.table.eval(lhs, x).ok()?;
            let r = self.table.eval(rhs, x).ok()?;
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
        *v = v.max(p.lo).min(p.hi());
    }
}

/// Pattern (coordinate) search in log₂ space.
fn pattern_search(ev: &mut Evaluator<'_>, start: &[f64], inv_eps: f64, max_iters: u32) -> Vec<f64> {
    let params = ev.params();
    let mut x: Vec<f64> = start.to_vec();
    clamp(&mut x, params);
    let mut best = ev.penalized(&x, inv_eps).unwrap_or(f64::INFINITY);
    let mut step = 4.0; // log₂ step: ×16 moves initially.
    let mut iters = 0;
    while step > 0.01 && iters < max_iters {
        iters += 1;
        let mut improved = false;
        for i in 0..x.len() {
            for dir in [step, -step] {
                // The candidate is `x` with coordinate `i` moved, probed in
                // place and moved back unless it is an improvement.
                let here = x[i];
                let moved = (here.max(1e-9).log2() + dir).exp2();
                let moved = moved.max(params[i].lo).min(params[i].hi());
                if (moved - here).abs() < f64::EPSILON {
                    continue;
                }
                x[i] = moved;
                match ev.penalized(&x, inv_eps) {
                    Some(val) if val < best => {
                        best = val;
                        improved = true;
                    }
                    _ => x[i] = here,
                }
            }
        }
        if !improved {
            step /= 2.0;
        }
    }
    x
}

/// Sequential-penalty derivative-free minimization.
pub fn optimize(problem: &Problem) -> Result<Optimum, OptError> {
    if problem.params.is_empty() {
        let objective = eval(&problem.objective, &problem.fixed)
            .map_err(|e| OptError::Unevaluable(e.to_string()))?;
        return Ok(Optimum {
            values: BTreeMap::new(),
            objective,
            feasible: true,
            evals: 1,
        });
    }
    let mut ev = Evaluator::new(problem);
    let n = problem.params.len();

    // Multi-start: geometric low / mid / high points.
    let starts: Vec<Vec<f64>> = vec![
        problem.params.iter().map(|p| p.lo.max(1.0)).collect(),
        problem
            .params
            .iter()
            .map(|p| (p.lo.max(1.0) * p.hi()).sqrt())
            .collect(),
        problem.params.iter().map(|p| p.hi()).collect(),
        problem
            .params
            .iter()
            .map(|p| (p.hi() / (n as f64 + 1.0)).max(p.lo))
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

/// Exhaustive powers-of-two coordinate descent — the tuner the synthesizer
/// screens every candidate with. Each parameter sweeps `2⁰ … 2⁴⁰` (clamped
/// to its box) while the others stay fixed, repeating until no coordinate
/// improves. Infeasible points are skipped outright.
pub fn ladder_search(problem: &Problem) -> Result<Optimum, OptError> {
    if problem.params.is_empty() {
        return optimize(problem);
    }
    let mut ev = Evaluator::new(problem);
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
                // `x` with coordinate `i` on rung `e`, probed in place.
                let here = x[i];
                x[i] = (2f64.powi(e as i32))
                    .max(problem.params[i].lo)
                    .min(problem.params[i].hi());
                match feas_obj(&mut ev, &x) {
                    Some(val) if val < best => {
                        best = val;
                        improved = true;
                    }
                    _ => x[i] = here,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Sym {
        Sym::var(n)
    }

    #[test]
    fn unconstrained_single_blocksize() {
        // f(k) = 1000/k + k/100: minimum at k = √(100·1000) ≈ 316.
        let p = Problem {
            objective: Sym::int(1000) / v("k") + v("k") / Sym::int(100),
            params: vec![ParamSpec::new("k", Some(1e9))],
            constraints: vec![],
            fixed: Env::new(),
        };
        let o = optimize(&p).unwrap();
        let k = o.values["k"] as f64;
        assert!((150.0..700.0).contains(&k), "expected k near 316, got {k}");
        assert!(o.feasible);
        assert!(o.objective < 7.0, "objective {o:?}");
    }

    #[test]
    fn capacity_constraint_binds() {
        // f(k) = 1e6/k, s.t. k ≤ 4096: best is k = 4096.
        let p = Problem {
            objective: Sym::int(1_000_000) / v("k"),
            params: vec![ParamSpec::new("k", Some(1e9))],
            constraints: vec![(v("k"), Sym::int(4096))],
            fixed: Env::new(),
        };
        let o = optimize(&p).unwrap();
        assert!(o.feasible);
        let k = o.values["k"];
        assert!(
            (3500..=4096).contains(&k),
            "expected k at the 4096 boundary, got {k}"
        );
    }

    #[test]
    fn bnl_buffer_split_prefers_big_outer_block() {
        // BNL seeks: x/k1 + x·y/(k1·k2), subject to k1 + k2 ≤ M.
        let x = 1e9;
        let y = 3e7;
        let m = 1e6;
        let p = Problem {
            objective: v("x") / v("k1") + v("x") * v("y") / (v("k1") * v("k2")),
            params: vec![ParamSpec::new("k1", Some(m)), ParamSpec::new("k2", Some(m))],
            constraints: vec![(v("k1") + v("k2"), Sym::int(m as i128))],
            fixed: Env::new().with("x", x).with("y", y),
        };
        let o = optimize(&p).unwrap();
        assert!(o.feasible, "{o:?}");
        let k1 = o.values["k1"] as f64;
        let k2 = o.values["k2"] as f64;
        assert!(k1 + k2 <= m + 0.5);
        // The x·y/(k1·k2) term dominates, so the optimum maximizes the
        // product k1·k2 under k1 + k2 ≤ M — a near-even split.
        let mut brute = f64::INFINITY;
        for i in 1..1000 {
            let k1g = m * (i as f64) / 1000.0;
            let k2g = m - k1g;
            if k1g < 1.0 || k2g < 1.0 {
                continue;
            }
            let c = x / k1g + x * y / (k1g * k2g);
            brute = brute.min(c);
        }
        assert!(
            o.objective <= brute * 1.05,
            "optimizer {o:?} worse than grid {brute}"
        );
        assert!(
            (0.2..5.0).contains(&(k1 / k2)),
            "expected a balanced split, got k1={k1} k2={k2}"
        );
    }

    #[test]
    fn merge_sort_fanout_tradeoff() {
        // Cost ≈ ceil(30/k)·(T + penalty·2^k): more ways, fewer passes but
        // more buffer pressure: an interior k must win over k = 1.
        let p = Problem {
            objective: (Sym::int(30) / v("k")).ceil()
                * (Sym::int(100) + Sym::int(20) * v("two_k") / Sym::int(64))
                + v("two_k") * Sym::rat(1, 100),
            params: vec![
                ParamSpec::new("k", Some(20.0)),
                ParamSpec::new("two_k", Some(1e6)),
            ],
            constraints: vec![],
            fixed: Env::new(),
        };
        let o = optimize(&p).unwrap();
        assert!(o.feasible);
        assert!(o.values["k"] >= 2, "{o:?}");
    }

    #[test]
    fn infeasible_problem_detected() {
        let p = Problem {
            objective: v("k"),
            params: vec![ParamSpec::new("k", Some(1e9))],
            // k ≤ 0 is unsatisfiable with k ≥ 1.
            constraints: vec![(v("k"), Sym::int(0))],
            fixed: Env::new(),
        };
        assert_eq!(optimize(&p), Err(OptError::Infeasible));
    }

    #[test]
    fn no_params_returns_constant() {
        let p = Problem {
            objective: Sym::int(42),
            params: vec![],
            constraints: vec![],
            fixed: Env::new(),
        };
        let o = optimize(&p).unwrap();
        assert_eq!(o.objective, 42.0);
    }

    #[test]
    fn ladder_matches_pattern_search_on_simple_problem() {
        let p = Problem {
            objective: Sym::int(1_000_000) / v("k") + v("k"),
            params: vec![ParamSpec::new("k", Some(1e9))],
            constraints: vec![],
            fixed: Env::new(),
        };
        let a = optimize(&p).unwrap();
        let b = ladder_search(&p).unwrap();
        // Optimum at k = 1000 → f = 2000; the ladder reaches 1024 → ~2001.
        assert!(a.objective < 2100.0, "{a:?}");
        assert!(b.objective < 2100.0, "{b:?}");
        assert!((a.objective - b.objective).abs() / a.objective < 0.05);
    }

    #[test]
    fn a_parameter_that_fixed_also_names_takes_the_probes_value() {
        // `k` is a parameter *and* has a fixed value: the point wins, as it
        // did when the parameters were `Env::set` over a copy of `fixed`.
        let p = Problem {
            objective: v("x") / v("k") + v("k"),
            params: vec![ParamSpec::new("k", Some(1e6))],
            constraints: vec![(v("k"), v("x"))],
            fixed: Env::new().with("x", 4096.0).with("k", 1e5),
        };
        let o = ladder_search(&p).unwrap();
        assert_eq!(o.values["k"], 64);
        assert_eq!(o.objective, 128.0);
        let o = optimize(&p).unwrap();
        assert!((60..=68).contains(&o.values["k"]), "{o:?}");
    }

    #[test]
    fn unbound_variable_is_reported() {
        let p = Problem {
            objective: v("k") + v("mystery"),
            params: vec![ParamSpec::new("k", Some(10.0))],
            constraints: vec![],
            fixed: Env::new(),
        };
        assert!(matches!(optimize(&p), Err(OptError::Unevaluable(_))));
    }
}
