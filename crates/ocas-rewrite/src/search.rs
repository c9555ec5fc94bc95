//! Breadth-first exhaustive search over the space of equivalent programs
//! (paper §6: "OCAS exhaustively searches the space of equivalent programs,
//! estimates the cost of each and then selects one with the best
//! performance"; §7.4 reports the search-space statistics we reproduce in
//! [`SearchStats`]).
//!
//! The engine is a **level-synchronous BFS over a hash-consed term arena**
//! ([`ocal::Interner`]):
//!
//! * Each frontier level is expanded in-line, item by item in frontier
//!   order, so every statistic and the `programs` list are a function of
//!   the specification and the rules alone. The synthesizer's concurrency
//!   is its cost pool (`ocas::Synthesizer`), which the search feeds through
//!   [`search_with`]'s callback.
//! * Candidates are enumerated as rewrite *sites* (position path +
//!   replacement subterm); the dedup key is interned by walking the parent
//!   tree with the replacement spliced in logically
//!   ([`ocal::Interner::canonical_at`]), so duplicate candidates — the
//!   majority in a saturating space — are dropped without ever being
//!   built. The seen-set is a `HashSet<ExprId>` with O(1) equality.
//! * Fresh-name counters are derived per frontier item
//!   ([`next_fresh_index`]) instead of threading one global counter through
//!   the whole search, so an item's candidates depend on the item alone.
//! * Rules that are typed identities skip re-typechecking, and rules that
//!   are unconditional equivalences skip differential validation (see
//!   [`Rule::preserves_type`] / [`Rule::preserves_semantics`]); debug
//!   builds assert both claims on every accepted candidate.
//!
//! [`reference_search`] keeps the original single-queue, clone-heavy
//! implementation as the oracle: the parity regression tests and the
//! `ocas-bench` `synthesis` section run both and require identical
//! statistics.

use crate::conditions::{differential_check, Equivalence, ValidationCfg};
use crate::rules::{next_fresh_index, Rule, RuleCtx};
use ocal::intern::FxBuildHasher;
use ocal::{typecheck, BlockSize, DefName, Expr, ExprId, Interner, TypeEnv};
use ocas_hierarchy::Hierarchy;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::time::Instant;

/// Search configuration.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Maximum number of rule applications along one derivation.
    pub max_depth: u32,
    /// Hard cap on the number of distinct programs explored.
    pub max_programs: usize,
    /// Differential validation of every candidate against the spec;
    /// `None` trusts the rules' syntactic guards alone.
    pub validation: Option<ValidationCfg>,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            max_depth: 7,
            max_programs: 20_000,
            validation: None,
        }
    }
}

/// Statistics mirroring the paper's Table 1 search columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Number of distinct programs in the explored space (paper: "Search
    /// space").
    pub explored: usize,
    /// Candidates generated before deduplication.
    pub generated: usize,
    /// Candidates rejected by the type checker.
    pub rejected_type: usize,
    /// Candidates rejected by differential validation.
    pub rejected_semantics: usize,
    /// Longest derivation (paper: "Steps").
    pub depth_reached: u32,
    /// Distinct hash-consed nodes in the term arena at the end of the
    /// search (a measure of structural sharing across the space).
    pub arena_nodes: usize,
    /// Wall-clock seconds spent searching (paper: "OCAS Runtime").
    pub seconds: f64,
}

impl SearchStats {
    /// The deterministic subset of the statistics — everything except the
    /// wall clock. Two runs of the same search (either engine) must agree
    /// on this.
    pub fn deterministic(&self) -> (usize, usize, usize, usize, u32) {
        (
            self.explored,
            self.generated,
            self.rejected_type,
            self.rejected_semantics,
            self.depth_reached,
        )
    }
}

/// The explored program space.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Every distinct (validated) program, including the specification at
    /// index 0, paired with its derivation depth.
    pub programs: Vec<(Expr, u32)>,
    /// Search statistics.
    pub stats: SearchStats,
}

/// Runs the BFS.
///
/// `input_nodes`/`output` describe the physical layout (used by *seq-ac*).
pub fn search(
    spec: &Expr,
    env: &TypeEnv,
    hierarchy: &Hierarchy,
    input_nodes: &BTreeMap<String, String>,
    output: Option<String>,
    rules: &[Box<dyn Rule>],
    cfg: &SearchConfig,
) -> Result<SearchResult, ocal::TypeError> {
    search_with(
        spec,
        env,
        hierarchy,
        input_nodes,
        output,
        rules,
        cfg,
        |_, _, _| {},
    )
}

/// Per-candidate provenance: the producing rule's name (for the per-rule
/// tracing counters) and its conservative-check exemptions (see
/// [`Rule::preserves_type`]).
#[derive(Debug, Clone, Copy)]
struct RuleInfo {
    name: &'static str,
    preserves_type: bool,
    preserves_semantics: bool,
}

/// Rebuilds "`e` with the subterm at `path` replaced by `repl`".
fn splice(e: &Expr, path: &[usize], repl: &Expr) -> Expr {
    match path.split_first() {
        None => repl.clone(),
        Some((&target, rest)) => {
            let mut i = 0usize;
            e.map_children(|c| {
                let out = if i == target {
                    splice(c, rest, repl)
                } else {
                    c.clone()
                };
                i += 1;
                out
            })
        }
    }
}

/// Runs the BFS, calling `on_program(index, program, depth)` once per
/// accepted program as soon as it enters the space (index 0 is the
/// specification) — the entry point the synthesizer uses to pipeline cost
/// estimation into the search loop. The callback runs on the calling
/// thread, in program-index order.
#[allow(clippy::too_many_arguments)]
pub fn search_with(
    spec: &Expr,
    env: &TypeEnv,
    hierarchy: &Hierarchy,
    input_nodes: &BTreeMap<String, String>,
    output: Option<String>,
    rules: &[Box<dyn Rule>],
    cfg: &SearchConfig,
    mut on_program: impl FnMut(usize, &Expr, u32),
) -> Result<SearchResult, ocal::TypeError> {
    let start = Instant::now();
    let spec_ty = typecheck(spec, env)?;

    let mut stats = SearchStats::default();
    let mut interner = Interner::new();
    let mut seen: HashSet<ExprId, FxBuildHasher> = HashSet::default();
    let mut programs: Vec<(Expr, u32)> = Vec::new();

    seen.insert(interner.canonical(spec));
    programs.push((spec.clone(), 0));
    on_program(0, spec, 0);
    let mut frontier: Vec<Expr> = vec![spec.clone()];
    let equivalence = cfg.validation.as_ref().map(|v| v.equivalence);

    // Level `depth` expands the programs found at `depth`.
    for depth in 0..cfg.max_depth {
        if frontier.is_empty() || programs.len() >= cfg.max_programs {
            break;
        }
        // Tracing: the level span lives on the programs-explored axis (a
        // deterministic "clock").
        let tracing = ocas_obs::enabled();
        let explored0 = programs.len();
        let generated0 = stats.generated;
        let frontier_len = frontier.len();
        // Per-rule `(candidates, deduped, rejected_type, rejected_sem)`.
        let mut rule_stats: BTreeMap<&'static str, [u64; 4]> = BTreeMap::new();

        let mut next_frontier: Vec<Expr> = Vec::new();
        for item in &frontier {
            // Mirrors the reference engine: an item popped after the cap is
            // reached contributes nothing, not even `generated`.
            if programs.len() >= cfg.max_programs {
                break;
            }
            let mut cx = RuleCtx {
                hierarchy,
                env,
                input_nodes,
                output: output.clone(),
                fresh: next_fresh_index(item),
                bound: Vec::new(),
            };
            rewrite_sites(
                item,
                rules,
                &mut cx,
                equivalence,
                &mut |path, repl, info| {
                    stats.generated += 1;
                    if programs.len() >= cfg.max_programs {
                        return;
                    }
                    let mut count = |slot: usize| {
                        if tracing {
                            rule_stats.entry(info.name).or_insert([0; 4])[slot] += 1;
                        }
                    };
                    count(0);
                    // Dedup without building the candidate: canonicalize the
                    // item tree with the rewrite spliced in at its path.
                    let key = interner.canonical_at(item, path, &repl);
                    if !seen.insert(key) {
                        count(1);
                        return;
                    }
                    let cand = splice(item, path, &repl);
                    // Type preservation.
                    let ty_ok = if info.preserves_type {
                        debug_assert!(
                            matches!(typecheck(&cand, env), Ok(ref t) if *t == spec_ty),
                            "rule flagged preserves_type produced an ill-typed candidate: {cand:?}"
                        );
                        true
                    } else {
                        matches!(typecheck(&cand, env), Ok(ref t) if *t == spec_ty)
                    };
                    if !ty_ok {
                        stats.rejected_type += 1;
                        count(2);
                        return;
                    }
                    // Semantic preservation (conservative differential testing).
                    let sem_ok = match cfg.validation.as_ref() {
                        None => true,
                        Some(v) if info.preserves_semantics => {
                            debug_assert!(
                            differential_check(spec, &cand, v),
                            "rule flagged preserves_semantics produced a diverging candidate: {cand:?}"
                        );
                            true
                        }
                        Some(v) => differential_check(spec, &cand, v),
                    };
                    if !sem_ok {
                        stats.rejected_semantics += 1;
                        count(3);
                        return;
                    }
                    stats.depth_reached = depth + 1;
                    let index = programs.len();
                    on_program(index, &cand, depth + 1);
                    if depth + 1 < cfg.max_depth {
                        next_frontier.push(cand.clone());
                    }
                    programs.push((cand, depth + 1));
                },
            );
        }
        if tracing {
            ocas_obs::span(
                ocas_obs::Clock::Sim,
                "search",
                "level",
                explored0 as f64,
                (programs.len() - explored0) as f64,
                &[
                    ("depth", f64::from(depth + 1)),
                    ("frontier", frontier_len as f64),
                    ("generated", (stats.generated - generated0) as f64),
                ],
            );
            let at = f64::from(depth + 1);
            for (rule, [cand, dup, rty, rsem]) in rule_stats {
                let track = format!("rule:{rule}");
                for (name, v) in [
                    ("candidates", cand),
                    ("deduped", dup),
                    ("rejected_type", rty),
                    ("rejected_semantics", rsem),
                ] {
                    if v > 0 {
                        ocas_obs::counter(ocas_obs::Clock::Sim, &track, name, at, v as f64);
                    }
                }
            }
        }
        frontier = next_frontier;
    }

    stats.explored = programs.len();
    stats.arena_nodes = interner.len();
    stats.seconds = start.elapsed().as_secs_f64();
    Ok(SearchResult { programs, stats })
}

/// The original single-queue BFS (one global fresh-name counter, owned
/// [`Expr`] dedup keys in a `HashSet<Expr>`). Kept verbatim as the test
/// oracle and the before-baseline of the `ocas-bench` `synthesis` section;
/// [`search`] must report identical deterministic statistics.
pub fn reference_search(
    spec: &Expr,
    env: &TypeEnv,
    hierarchy: &Hierarchy,
    input_nodes: &BTreeMap<String, String>,
    output: Option<String>,
    rules: &[Box<dyn Rule>],
    cfg: &SearchConfig,
) -> Result<SearchResult, ocal::TypeError> {
    let start = Instant::now();
    let spec_ty = typecheck(spec, env)?;

    let mut stats = SearchStats::default();
    let mut seen: HashSet<Expr> = HashSet::new();
    let mut programs: Vec<(Expr, u32)> = Vec::new();
    let mut queue: VecDeque<(Expr, u32)> = VecDeque::new();

    seen.insert(dedup_key(spec));
    programs.push((spec.clone(), 0));
    queue.push_back((spec.clone(), 0));

    let mut cx = RuleCtx {
        hierarchy,
        env,
        input_nodes,
        output,
        fresh: 0,
        bound: Vec::new(),
    };

    while let Some((program, depth)) = queue.pop_front() {
        if depth >= cfg.max_depth || programs.len() >= cfg.max_programs {
            continue;
        }
        let candidates = rewrite_everywhere(&program, rules, &mut cx);
        stats.generated += candidates.len();
        for cand in candidates {
            if programs.len() >= cfg.max_programs {
                break;
            }
            let key = dedup_key(&cand);
            if seen.contains(&key) {
                continue;
            }
            // Type preservation.
            match typecheck(&cand, env) {
                Ok(t) if t == spec_ty => {}
                _ => {
                    stats.rejected_type += 1;
                    seen.insert(key);
                    continue;
                }
            }
            // Semantic preservation (conservative differential testing).
            if let Some(v) = &cfg.validation {
                if !differential_check(spec, &cand, v) {
                    stats.rejected_semantics += 1;
                    seen.insert(key);
                    continue;
                }
            }
            seen.insert(key);
            stats.depth_reached = stats.depth_reached.max(depth + 1);
            programs.push((cand.clone(), depth + 1));
            queue.push_back((cand, depth + 1));
        }
    }

    stats.explored = programs.len();
    stats.seconds = start.elapsed().as_secs_f64();
    Ok(SearchResult { programs, stats })
}

/// Applies every rule at every position of `e`, returning whole programs.
pub fn rewrite_everywhere(e: &Expr, rules: &[Box<dyn Rule>], cx: &mut RuleCtx<'_>) -> Vec<Expr> {
    let mut out = Vec::new();
    rewrite_sites(e, rules, cx, None, &mut |path, repl, _| {
        out.push(splice(e, path, &repl))
    });
    out
}

/// Applies every rule at every position of `e`, emitting each rewrite as a
/// site: the position's [`Expr::children`] index path plus the replacement
/// subterm, together with the producing rule's check exemptions. Emission
/// order is pre-order over positions with the rules in library order at
/// each position — identical to the candidate order of the original
/// rebuild-as-you-go walker, which the engine-parity guarantees rely on.
fn rewrite_sites(
    e: &Expr,
    rules: &[Box<dyn Rule>],
    cx: &mut RuleCtx<'_>,
    equivalence: Option<Equivalence>,
    emit: &mut dyn FnMut(&[usize], Expr, RuleInfo),
) {
    fn go(
        e: &Expr,
        rules: &[Box<dyn Rule>],
        cx: &mut RuleCtx<'_>,
        equivalence: Option<Equivalence>,
        is_root: bool,
        path: &mut Vec<usize>,
        emit: &mut dyn FnMut(&[usize], Expr, RuleInfo),
    ) {
        for rule in rules {
            if rule.root_only() && !is_root {
                continue;
            }
            let info = RuleInfo {
                name: rule.name(),
                preserves_type: rule.preserves_type(),
                preserves_semantics: equivalence.is_some_and(|eq| rule.preserves_semantics(eq)),
            };
            for rw in rule.apply(e, cx) {
                emit(path, rw, info);
            }
        }
        // Recurse into children, tracking binders for the rules' guards.
        match e {
            Expr::Lam { param, body } => {
                cx.bound.push(param.clone());
                path.push(0);
                go(body, rules, cx, equivalence, false, path, emit);
                path.pop();
                cx.bound.pop();
            }
            Expr::For {
                var, source, body, ..
            } => {
                path.push(0);
                go(source, rules, cx, equivalence, false, path, emit);
                path.pop();
                cx.bound.push(var.clone());
                path.push(1);
                go(body, rules, cx, equivalence, false, path, emit);
                path.pop();
                cx.bound.pop();
            }
            other => {
                for (i, child) in other.children().iter().enumerate() {
                    path.push(i);
                    go(child, rules, cx, equivalence, false, path, emit);
                    path.pop();
                }
            }
        }
    }
    go(e, rules, cx, equivalence, true, &mut Vec::new(), emit);
}

/// Deduplication key: α-canonical form with block-size parameters renamed in
/// first-occurrence order, so derivations that differ only in the generated
/// names collapse. This is the legacy owned-`Expr` key;
/// [`ocal::Interner::canonical`] computes the identical key directly in the
/// term arena and is what [`search`] uses.
pub fn dedup_key(e: &Expr) -> Expr {
    let canon = e.alpha_canonical();
    let mut order: Vec<String> = Vec::new();
    collect_params(&canon, &mut order);
    let map: BTreeMap<String, String> = order
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, format!("%p{i}")))
        .collect();
    rename_params(&canon, &map)
}

fn collect_params(e: &Expr, out: &mut Vec<String>) {
    let mut push = |b: &BlockSize| {
        if let BlockSize::Param(p) = b {
            if !out.contains(p) {
                out.push(p.clone());
            }
        }
    };
    match e {
        Expr::For {
            block, out_block, ..
        } => {
            push(block);
            push(out_block);
        }
        Expr::DefRef(DefName::TreeFold(k)) | Expr::DefRef(DefName::HashPartition(k)) => push(k),
        Expr::DefRef(DefName::UnfoldR { b_in, b_out }) => {
            push(b_in);
            push(b_out);
        }
        _ => {}
    }
    for c in e.children() {
        collect_params(c, out);
    }
}

fn rename_params(e: &Expr, map: &BTreeMap<String, String>) -> Expr {
    let rn = |b: &BlockSize| -> BlockSize {
        match b {
            BlockSize::Param(p) => {
                BlockSize::Param(map.get(p).cloned().unwrap_or_else(|| p.clone()))
            }
            c => c.clone(),
        }
    };
    let rebuilt = match e {
        Expr::For {
            var,
            block,
            source,
            out_block,
            body,
            seq,
        } => Expr::For {
            var: var.clone(),
            block: rn(block),
            source: source.clone(),
            out_block: rn(out_block),
            body: body.clone(),
            seq: seq.clone(),
        },
        Expr::DefRef(DefName::TreeFold(k)) => Expr::DefRef(DefName::TreeFold(rn(k))),
        Expr::DefRef(DefName::HashPartition(k)) => Expr::DefRef(DefName::HashPartition(rn(k))),
        Expr::DefRef(DefName::UnfoldR { b_in, b_out }) => Expr::DefRef(DefName::UnfoldR {
            b_in: rn(b_in),
            b_out: rn(b_out),
        }),
        other => other.clone(),
    };
    rebuilt.map_children(|c| rename_params(c, map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::Equivalence;
    use crate::rules::default_rules;
    use ocal::{parse, pretty, Type};
    use ocas_hierarchy::presets;

    fn join_env() -> TypeEnv {
        let rel = Type::list(Type::tuple(vec![Type::Int, Type::Int]));
        [("R".to_string(), rel.clone()), ("S".to_string(), rel)]
            .into_iter()
            .collect()
    }

    fn hdd_inputs(names: &[&str]) -> BTreeMap<String, String> {
        names
            .iter()
            .map(|n| (n.to_string(), "HDD".to_string()))
            .collect()
    }

    #[test]
    fn dedup_key_collapses_parameter_renamings() {
        let a = parse("for (xB [k1] <- R) for (x <- xB) [x]").unwrap();
        let b = parse("for (yB [k7] <- R) for (x <- yB) [x]").unwrap();
        assert_eq!(dedup_key(&a), dedup_key(&b));
        let c = parse("for (xB [k1] <- S) for (x <- xB) [x]").unwrap();
        assert_ne!(dedup_key(&a), dedup_key(&c));
    }

    #[test]
    fn interned_canonical_matches_legacy_dedup_key() {
        // The fused canonicalize-and-intern pass must partition terms like
        // the legacy key: same id iff same legacy key.
        let exprs = [
            "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
            "for (xB [k4] <- R) for (x <- xB) [x]",
            "for (yB [k9] <- R) for (z <- yB) [z]",
            "foldL([], unfoldR(mrg))(R)",
            "treeFold[4](<[], unfoldR(funcPow[2](mrg))>)(R)",
            "avg(for (pB_1 [k0] <- L) for (p <- pB_1) [p])",
            "avg(for (qB [k5] <- L) for (q <- qB) [q])",
        ];
        let mut it = Interner::new();
        let keyed: Vec<(ExprId, Expr)> = exprs
            .iter()
            .map(|src| {
                let e = parse(src).unwrap();
                (it.canonical(&e), dedup_key(&e))
            })
            .collect();
        for (i, (id_a, key_a)) in keyed.iter().enumerate() {
            for (j, (id_b, key_b)) in keyed.iter().enumerate() {
                assert_eq!(
                    id_a == id_b,
                    key_a == key_b,
                    "fused canonical disagrees with legacy key on {} vs {}",
                    exprs[i],
                    exprs[j]
                );
            }
        }
    }

    #[test]
    fn canonical_at_matches_spliced_canonical() {
        // Dedup-by-hole must agree with canonicalizing the built candidate.
        let mut it = Interner::new();
        let root = parse("for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []").unwrap();
        let repl = parse("for (yB [k3] <- S) for (y <- yB) [y]").unwrap();
        for path in [vec![], vec![1], vec![0], vec![1, 0]] {
            let via_hole = it.canonical_at(&root, &path, &repl);
            let built = splice(&root, &path, &repl);
            assert_eq!(via_hole, it.canonical(&built), "path {path:?}");
        }
    }

    #[test]
    fn bnl_join_space_contains_the_textbook_plan() {
        let h = presets::hdd_ram(8 << 20);
        let env = join_env();
        let inputs = hdd_inputs(&["R", "S"]);
        let spec = parse("for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []").unwrap();
        let cfg = SearchConfig {
            max_depth: 5,
            max_programs: 4000,
            validation: Some(ValidationCfg::new(env.clone(), Equivalence::Bag)),
        };
        let result = search(&spec, &env, &h, &inputs, None, &default_rules(), &cfg).unwrap();
        assert!(result.stats.explored > 10, "{:?}", result.stats);
        // The canonical BNL shape must be somewhere in the space: an outer
        // blocked loop over one relation, an inner blocked loop over the
        // other, then element loops.
        let found = result.programs.iter().any(|(p, _)| {
            let s = pretty(p);
            is_bnl_shape(&s)
        });
        assert!(
            found,
            "no BNL shape among {} programs",
            result.stats.explored
        );
        // And a seq-annotated variant too.
        let seq_found = result
            .programs
            .iter()
            .any(|(p, _)| pretty(p).contains("for[HDD >> RAM]"));
        assert!(seq_found, "no seq-annotated program found");
    }

    fn is_bnl_shape(s: &str) -> bool {
        // for (aB [kX] <- R|S) for (bB [kY] <- S|R) for (a <- aB) for (b <- bB)
        let mut fors = 0;
        let mut blocked = 0;
        for part in s.split("for ") {
            if part.starts_with('(') {
                fors += 1;
                if part.contains("[k") {
                    blocked += 1;
                }
            }
        }
        fors >= 4 && blocked >= 2 && s.contains("if")
    }

    #[test]
    fn sort_space_reaches_wide_merges() {
        let h = presets::hdd_ram(8 << 20);
        let env: TypeEnv = [("R".to_string(), Type::list(Type::list(Type::Int)))]
            .into_iter()
            .collect();
        let inputs = hdd_inputs(&["R"]);
        let spec = parse("foldL([], unfoldR(mrg))(R)").unwrap();
        let cfg = SearchConfig {
            max_depth: 6,
            max_programs: 3000,
            validation: Some(
                ValidationCfg::new(env.clone(), Equivalence::Exact).with_sorted_inputs(),
            ),
        };
        let result = search(&spec, &env, &h, &inputs, None, &default_rules(), &cfg).unwrap();
        let widths: Vec<u64> = result
            .programs
            .iter()
            .filter_map(|(p, _)| max_treefold_width(p))
            .collect();
        let max_width = widths.into_iter().max().unwrap_or(0);
        assert!(
            max_width >= 16,
            "expected at least a 16-way merge in the space, got {max_width} \
             over {} programs",
            result.stats.explored
        );
    }

    fn max_treefold_width(e: &Expr) -> Option<u64> {
        let mut best = None;
        fn walk(e: &Expr, best: &mut Option<u64>) {
            if let Expr::DefRef(DefName::TreeFold(BlockSize::Const(m))) = e {
                *best = Some(best.unwrap_or(0).max(*m));
            }
            for c in e.children() {
                walk(c, best);
            }
        }
        walk(e, &mut best);
        best
    }

    #[test]
    fn validation_rejects_hash_part_on_cross_products() {
        // Cross product: hash partitioning would lose cross-bucket pairs;
        // differential validation must reject every hash-part candidate.
        let h = presets::hdd_ram(8 << 20);
        let env = join_env();
        let inputs = hdd_inputs(&["R", "S"]);
        let spec = parse("for (x <- R) for (y <- S) [<x, y>]").unwrap();
        let cfg = SearchConfig {
            max_depth: 2,
            max_programs: 500,
            validation: Some(ValidationCfg::new(env.clone(), Equivalence::Bag)),
        };
        let result = search(&spec, &env, &h, &inputs, None, &default_rules(), &cfg).unwrap();
        assert!(
            result.stats.rejected_semantics > 0,
            "expected semantic rejections: {:?}",
            result.stats
        );
        for (p, _) in &result.programs {
            assert!(
                !pretty(p).contains("hashPartition"),
                "unsound hash-part survived: {}",
                pretty(p)
            );
        }
    }

    #[test]
    fn search_depth_and_stats_reported() {
        let h = presets::hdd_ram(8 << 20);
        let env = join_env();
        let inputs = hdd_inputs(&["R", "S"]);
        let spec = parse("for (x <- R) [x]").unwrap();
        let cfg = SearchConfig {
            max_depth: 3,
            max_programs: 200,
            validation: None,
        };
        let result = search(&spec, &env, &h, &inputs, None, &default_rules(), &cfg).unwrap();
        assert!(result.stats.explored >= 2);
        assert!(result.stats.depth_reached >= 1);
        assert!(result.stats.arena_nodes > 0);
        assert_eq!(result.programs[0].1, 0, "spec first at depth 0");
    }

    /// The arena engine reports the reference engine's deterministic
    /// statistics and explores the same programs up to the canonical key.
    #[test]
    fn arena_engine_agrees_with_the_reference_engine() {
        let h = presets::hdd_ram(8 << 20);
        let env = join_env();
        let inputs = hdd_inputs(&["R", "S"]);
        let spec = parse("for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []").unwrap();
        let cfg = SearchConfig {
            max_depth: 4,
            max_programs: 3000,
            validation: Some(ValidationCfg::new(env.clone(), Equivalence::Bag)),
        };
        let arena = search(&spec, &env, &h, &inputs, None, &default_rules(), &cfg).unwrap();
        let reference =
            reference_search(&spec, &env, &h, &inputs, None, &default_rules(), &cfg).unwrap();
        assert_eq!(reference.stats.deterministic(), arena.stats.deterministic());
        // Reference and arena engines number fresh names differently, but
        // candidate sets must agree up to the canonical key.
        let keys = |r: &SearchResult| {
            let mut ks: Vec<Expr> = r.programs.iter().map(|(p, _)| dedup_key(p)).collect();
            ks.sort();
            ks
        };
        assert_eq!(keys(&reference), keys(&arena));
    }

    /// The callback fires once per explored program, in index order.
    #[test]
    fn on_program_fires_once_per_program_in_index_order() {
        let h = presets::hdd_ram(8 << 20);
        let env = join_env();
        let inputs = hdd_inputs(&["R", "S"]);
        let spec = parse("for (x <- R) for (y <- S) [<x, y>]").unwrap();
        let cfg = SearchConfig {
            max_depth: 3,
            max_programs: 500,
            validation: None,
        };
        let mut seen: Vec<(usize, Expr, u32)> = Vec::new();
        let result = search_with(
            &spec,
            &env,
            &h,
            &inputs,
            None,
            &default_rules(),
            &cfg,
            |index, program, depth| seen.push((index, program.clone(), depth)),
        )
        .unwrap();
        assert!(result.stats.explored > 1);
        assert_eq!(seen.len(), result.stats.explored);
        for (i, ((index, program, depth), (p, d))) in seen.iter().zip(&result.programs).enumerate()
        {
            assert_eq!(*index, i);
            assert_eq!((program, *depth), (p, *d));
        }
    }
}
