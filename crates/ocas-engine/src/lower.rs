//! Lowering synthesized OCAL programs into physical plans.
//!
//! The synthesizer's output is an OCAL expression with tuned block-size
//! parameters. This module pattern-matches the algorithm *shapes* the rules
//! can produce (blocked nested loops, GRACE pipelines, treeFold merges,
//! blocked `unfoldR` streams) and extracts their parameters. The workload
//! *semantics* (join vs. set union vs. aggregation) comes from the spec
//! library as a [`WorkloadHint`] — lowering validates that the program's
//! shape matches the hint's family and picks the right operator template.

use crate::plan::{JoinPred, MergeKind, Output, Plan, Tiling};
use ocal::{BlockSize, DefName, Expr, PrimOp};
use std::collections::BTreeMap;
use std::fmt;

/// The workload family of a specification (provided by the spec library).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadHint {
    /// Equi-join or cross product of two relations.
    Join {
        /// `true` for the constant-true condition (relational product).
        cross: bool,
    },
    /// Sorting a unary relation.
    Sort,
    /// Set union of sorted unique lists.
    SetUnion,
    /// Multiset union (sorted-list representation).
    MultisetUnionSorted,
    /// Multiset union (value–multiplicity representation).
    MultisetUnionVm,
    /// Multiset difference (sorted-list representation).
    MultisetDiffSorted,
    /// Multiset difference (value–multiplicity representation).
    MultisetDiffVm,
    /// Column-store read (zip of columns).
    Columns,
    /// Duplicate removal from a sorted list.
    Dedup,
    /// Streaming aggregation.
    Aggregate,
}

/// Lowering failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// The program's shape does not match any template for the hint.
    Unrecognized(&'static str),
    /// A block-size parameter had no optimized value.
    MissingParam(String),
    /// An input variable had no registered relation.
    MissingRelation(String),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::Unrecognized(what) => write!(f, "unrecognized program shape: {what}"),
            LowerError::MissingParam(p) => write!(f, "no value for parameter `{p}`"),
            LowerError::MissingRelation(r) => write!(f, "no relation registered for `{r}`"),
        }
    }
}

impl std::error::Error for LowerError {}

/// Everything lowering needs besides the program.
#[derive(Debug, Clone)]
pub struct LowerCtx {
    /// Optimized parameter values.
    pub params: BTreeMap<String, u64>,
    /// Input variable → executor relation index.
    pub relations: BTreeMap<String, usize>,
    /// Output destination.
    pub output: Output,
    /// Scratch/spill device name.
    pub scratch: String,
}

fn block_value(b: &BlockSize, params: &BTreeMap<String, u64>) -> Result<u64, LowerError> {
    match b {
        BlockSize::Const(c) => Ok(*c),
        BlockSize::Param(p) => params
            .get(p)
            .copied()
            .ok_or_else(|| LowerError::MissingParam(p.clone())),
    }
}

/// Collects the chain of nested `for` loops with their blocks and sources.
fn for_chain(e: &Expr) -> Vec<(&str, &BlockSize, &Expr)> {
    let mut out = Vec::new();
    let mut cur = e;
    while let Expr::For {
        var,
        block,
        source,
        body,
        ..
    } = cur
    {
        out.push((var.as_str(), block, &**source));
        cur = body;
    }
    out
}

/// Finds the first subexpression matching a predicate.
fn find<'a>(e: &'a Expr, pred: &impl Fn(&Expr) -> bool) -> Option<&'a Expr> {
    if pred(e) {
        return Some(e);
    }
    for c in e.children() {
        if let Some(hit) = find(c, pred) {
            return Some(hit);
        }
    }
    None
}

fn contains_length_selector(e: &Expr) -> bool {
    find(e, &|x| {
        matches!(x, Expr::If { cond, .. }
            if matches!(&**cond, Expr::Prim { op: PrimOp::Le, .. }))
    })
    .is_some()
}

fn strip_wrappers(e: &Expr) -> &Expr {
    // Unwrap (possibly curried) lambda-wrapper applications: both the
    // order-inputs form `(λq. body)(selector)` and a fully-applied spine
    // `((λa. λb. body)(x))(y)` peel down to `body`. (Regression: the
    // single-argument version silently left curried wrappers in place, so
    // their loop nests were unrecognizable — the same assumption class as
    // the `app_size` β-reduction fix in ocas-cost.)
    let mut cur = e;
    while let Some((_, body)) = cur.applied_lambda_spine() {
        cur = body;
    }
    cur
}

fn first_unfoldr(e: &Expr) -> Option<(&BlockSize, &BlockSize)> {
    match find(e, &|x| matches!(x, Expr::DefRef(DefName::UnfoldR { .. })))? {
        Expr::DefRef(DefName::UnfoldR { b_in, b_out }) => Some((b_in, b_out)),
        _ => None,
    }
}

fn rel_index(cx: &LowerCtx, name: &str) -> Result<usize, LowerError> {
    cx.relations
        .get(name)
        .copied()
        .ok_or_else(|| LowerError::MissingRelation(name.to_string()))
}

/// Lowers a synthesized program into a plan.
pub fn lower(program: &Expr, hint: WorkloadHint, cx: &LowerCtx) -> Result<Plan, LowerError> {
    match hint {
        WorkloadHint::Join { cross } => lower_join(program, cross, cx),
        WorkloadHint::Sort => lower_sort(program, cx),
        WorkloadHint::SetUnion
        | WorkloadHint::MultisetUnionSorted
        | WorkloadHint::MultisetUnionVm
        | WorkloadHint::MultisetDiffSorted
        | WorkloadHint::MultisetDiffVm => lower_merge(program, hint, cx),
        WorkloadHint::Columns => lower_columns(program, cx),
        WorkloadHint::Dedup => lower_dedup(program, cx),
        WorkloadHint::Aggregate => lower_aggregate(program, cx),
    }
}

fn lower_join(program: &Expr, cross: bool, cx: &LowerCtx) -> Result<Plan, LowerError> {
    let pred = if cross {
        JoinPred::Cross
    } else {
        JoinPred::KeyEq
    };
    let order_inputs = contains_length_selector(program);

    // GRACE pipeline?
    if let Some(Expr::DefRef(DefName::HashPartition(s))) = find(program, &|x| {
        matches!(x, Expr::DefRef(DefName::HashPartition(_)))
    }) {
        let partitions = block_value(s, &cx.params)?.max(1);
        let mut names: Vec<&String> = cx.relations.keys().collect();
        names.sort();
        if names.len() != 2 {
            return Err(LowerError::Unrecognized("hash join needs two relations"));
        }
        return Ok(Plan::GraceJoin {
            left: rel_index(cx, names[0])?,
            right: rel_index(cx, names[1])?,
            partitions,
            buffer_bytes: cx.params.get("b_in").copied().unwrap_or(1 << 20).max(4096),
            spill: cx.scratch.clone(),
            pred,
            output: cx.output.clone(),
        });
    }

    // Blocked nested loops: the loop chain of the (possibly wrapped) body.
    let body = strip_wrappers(program);
    let chain = for_chain(body);
    if chain.is_empty() {
        return Err(LowerError::Unrecognized("no loops in join"));
    }
    // Blocked loops in chain order; element loops follow.
    let blocked: Vec<&(&str, &BlockSize, &Expr)> =
        chain.iter().filter(|(_, b, _)| !b.is_one()).collect();
    let k1 = blocked
        .first()
        .map(|(_, b, _)| block_value(b, &cx.params))
        .transpose()?
        .unwrap_or(1);
    let k2 = blocked
        .get(1)
        .map(|(_, b, _)| block_value(b, &cx.params))
        .transpose()?
        .unwrap_or(1);
    // Deeper blocking = cache tiling (k3, k4).
    let tiling = if blocked.len() >= 4 {
        Some(Tiling {
            outer: block_value(blocked[2].1, &cx.params)?,
            inner: block_value(blocked[3].1, &cx.params)?,
        })
    } else {
        None
    };

    // Which relation does the outermost loop scan?
    let outer_name = outermost_input(&chain, cx);
    let mut names: Vec<&String> = cx.relations.keys().collect();
    names.sort();
    if names.len() != 2 {
        return Err(LowerError::Unrecognized("join needs two relations"));
    }
    let (outer, inner) = match outer_name {
        Some(o) if o == *names[1] => (names[1].clone(), names[0].clone()),
        _ => (names[0].clone(), names[1].clone()),
    };
    Ok(Plan::BnlJoin {
        outer: rel_index(cx, &outer)?,
        inner: rel_index(cx, &inner)?,
        k1: k1.max(1),
        k2: k2.max(1),
        tiling,
        pred,
        order_inputs,
        output: cx.output.clone(),
    })
}

fn outermost_input(chain: &[(&str, &BlockSize, &Expr)], cx: &LowerCtx) -> Option<String> {
    for (_, _, source) in chain {
        let fv = source.free_vars();
        for v in fv {
            if cx.relations.contains_key(&v) {
                return Some(v);
            }
        }
    }
    None
}

fn lower_sort(program: &Expr, cx: &LowerCtx) -> Result<Plan, LowerError> {
    let tf = find(program, &|x| {
        matches!(x, Expr::DefRef(DefName::TreeFold(_)))
    });
    let fan_in = match tf {
        Some(Expr::DefRef(DefName::TreeFold(m))) => block_value(m, &cx.params)?,
        _ => {
            return Err(LowerError::Unrecognized(
                "sort plan needs a treeFold (the foldL spec is not an out-of-core plan)",
            ))
        }
    };
    let (b_in, b_out) = match first_unfoldr(program) {
        Some((bi, bo)) => (block_value(bi, &cx.params)?, block_value(bo, &cx.params)?),
        None => (1, 1),
    };
    let mut names: Vec<&String> = cx.relations.keys().collect();
    names.sort();
    let input = rel_index(
        cx,
        names.first().ok_or(LowerError::Unrecognized("no input"))?,
    )?;
    Ok(Plan::ExternalSort {
        input,
        fan_in: fan_in.max(2),
        b_in: b_in.max(1),
        b_out: b_out.max(1),
        scratch: cx.scratch.clone(),
        output: cx.output.clone(),
    })
}

fn lower_merge(program: &Expr, hint: WorkloadHint, cx: &LowerCtx) -> Result<Plan, LowerError> {
    let kind = match hint {
        WorkloadHint::SetUnion => MergeKind::SetUnion,
        WorkloadHint::MultisetUnionSorted => MergeKind::MultisetUnionSorted,
        WorkloadHint::MultisetUnionVm => MergeKind::MultisetUnionVm,
        WorkloadHint::MultisetDiffSorted => MergeKind::MultisetDiffSorted,
        WorkloadHint::MultisetDiffVm => MergeKind::MultisetDiffVm,
        _ => unreachable!("caller dispatches merge hints only"),
    };
    let b_in = match first_unfoldr(program) {
        Some((bi, _)) => block_value(bi, &cx.params)?,
        None => 1,
    };
    let mut names: Vec<&String> = cx.relations.keys().collect();
    names.sort();
    if names.len() != 2 {
        return Err(LowerError::Unrecognized("merge needs two relations"));
    }
    Ok(Plan::MergePass {
        left: rel_index(cx, names[0])?,
        right: rel_index(cx, names[1])?,
        kind,
        b_in: b_in.max(1),
        output: cx.output.clone(),
    })
}

fn lower_columns(program: &Expr, cx: &LowerCtx) -> Result<Plan, LowerError> {
    let b_in = match first_unfoldr(program) {
        Some((bi, _)) => block_value(bi, &cx.params)?,
        None => 1,
    };
    let mut names: Vec<&String> = cx.relations.keys().collect();
    names.sort();
    let columns = names
        .iter()
        .map(|n| rel_index(cx, n))
        .collect::<Result<Vec<_>, _>>()?;
    if columns.is_empty() {
        return Err(LowerError::Unrecognized("no columns"));
    }
    Ok(Plan::ColumnZip {
        columns,
        b_in: b_in.max(1),
        output: cx.output.clone(),
    })
}

/// Finds the blocked prefetch loop's block size (if any).
fn prefetch_block(program: &Expr, cx: &LowerCtx) -> Result<u64, LowerError> {
    match find(
        program,
        &|x| matches!(x, Expr::For { block, .. } if !block.is_one()),
    ) {
        Some(Expr::For { block, .. }) => block_value(block, &cx.params),
        _ => Ok(1),
    }
}

fn lower_dedup(program: &Expr, cx: &LowerCtx) -> Result<Plan, LowerError> {
    let b_in = match first_unfoldr(program) {
        Some((bi, _)) => block_value(bi, &cx.params)?,
        None => prefetch_block(program, cx)?,
    };
    let mut names: Vec<&String> = cx.relations.keys().collect();
    names.sort();
    let input = rel_index(
        cx,
        names.first().ok_or(LowerError::Unrecognized("no input"))?,
    )?;
    Ok(Plan::DedupSorted {
        input,
        b_in: b_in.max(1),
        output: cx.output.clone(),
    })
}

fn lower_aggregate(program: &Expr, cx: &LowerCtx) -> Result<Plan, LowerError> {
    let b_in = prefetch_block(program, cx)?;
    let mut names: Vec<&String> = cx.relations.keys().collect();
    names.sort();
    let input = rel_index(
        cx,
        names.first().ok_or(LowerError::Unrecognized("no input"))?,
    )?;
    Ok(Plan::Aggregate {
        input,
        b_in: b_in.max(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocal::parse;

    fn cx_two() -> LowerCtx {
        LowerCtx {
            params: [
                ("k0".to_string(), 512u64),
                ("k1".to_string(), 256),
                ("k2".to_string(), 128),
                ("k3".to_string(), 64),
                ("s0".to_string(), 16),
                ("bin".to_string(), 64),
                ("bout".to_string(), 32),
            ]
            .into_iter()
            .collect(),
            relations: [("R".to_string(), 0), ("S".to_string(), 1)]
                .into_iter()
                .collect(),
            output: Output::Discard,
            scratch: "HDD".into(),
        }
    }

    #[test]
    fn lowers_blocked_bnl() {
        let p = parse(
            "for (xB [k0] <- R) for (yB [k1] <- S) for (x <- xB) for (y <- yB) \
             if x.1 == y.1 then [<x, y>] else []",
        )
        .unwrap();
        let plan = lower(&p, WorkloadHint::Join { cross: false }, &cx_two()).unwrap();
        match plan {
            Plan::BnlJoin {
                k1,
                k2,
                tiling,
                pred,
                ..
            } => {
                assert_eq!((k1, k2), (512, 256));
                assert!(tiling.is_none());
                assert_eq!(pred, JoinPred::KeyEq);
            }
            other => panic!("expected BNL, got {other:?}"),
        }
    }

    #[test]
    fn lowers_tiled_bnl() {
        let p = parse(
            "for (xB [k0] <- R) for (yB [k1] <- S) for (xT [k2] <- xB) for (yT [k3] <- yB) \
             for (x <- xT) for (y <- yT) if x.1 == y.1 then [<x, y>] else []",
        )
        .unwrap();
        let plan = lower(&p, WorkloadHint::Join { cross: false }, &cx_two()).unwrap();
        match plan {
            Plan::BnlJoin {
                tiling: Some(t), ..
            } => {
                assert_eq!((t.outer, t.inner), (128, 64));
            }
            other => panic!("expected tiled BNL, got {other:?}"),
        }
    }

    #[test]
    fn lowers_curried_wrapped_bnl() {
        // A fully-applied curried wrapper around the blocked loops must
        // peel just like the single-argument order-inputs wrapper.
        let p = parse(
            "((\\a. \\b. for (xB [k0] <- a) for (yB [k1] <- b) for (x <- xB) for (y <- yB) \
             if x.1 == y.1 then [<x, y>] else [])(R))(S)",
        )
        .unwrap();
        let plan = lower(&p, WorkloadHint::Join { cross: false }, &cx_two()).unwrap();
        match plan {
            Plan::BnlJoin { k1, k2, .. } => assert_eq!((k1, k2), (512, 256)),
            other => panic!("expected BNL through the curried wrapper, got {other:?}"),
        }
    }

    #[test]
    fn an_ordered_join_whose_blocks_tune_to_one_keeps_its_order_inputs() {
        let p = parse(
            "(\\q. for (xB [k0] <- q.1) for (yB [k1] <- q.2) for (x <- xB) for (y <- yB) \
             if x.1 == y.1 then [<x, y>] else [])\
             (if length(R) <= length(S) then <R, S> else <S, R>)",
        )
        .unwrap();
        let mut cx = cx_two();
        cx.params.insert("k0".to_string(), 1);
        cx.params.insert("k1".to_string(), 1);
        let plan = lower(&p, WorkloadHint::Join { cross: false }, &cx).unwrap();
        match plan {
            Plan::BnlJoin {
                k1,
                k2,
                order_inputs,
                ..
            } => {
                assert_eq!((k1, k2), (1, 1));
                assert!(order_inputs, "the order-inputs wrapper was dropped");
            }
            other => panic!("expected BNL, got {other:?}"),
        }
    }

    #[test]
    fn lowers_grace() {
        let p = parse(
            "flatMap(\\q. for (x <- q.1) for (y <- q.2) if x.1 == y.1 then [<x, y>] else [])\
             (unfoldR(zip[2])(<hashPartition[s0](R), hashPartition[s0](S)>))",
        )
        .unwrap();
        let plan = lower(&p, WorkloadHint::Join { cross: false }, &cx_two()).unwrap();
        match plan {
            Plan::GraceJoin { partitions, .. } => assert_eq!(partitions, 16),
            other => panic!("expected GRACE, got {other:?}"),
        }
    }

    #[test]
    fn lowers_external_sort() {
        let p = parse("treeFold[8](<[], unfoldR[bin, bout](funcPow[3](mrg))>)(R)").unwrap();
        let mut cx = cx_two();
        cx.relations = [("R".to_string(), 0)].into_iter().collect();
        let plan = lower(&p, WorkloadHint::Sort, &cx).unwrap();
        match plan {
            Plan::ExternalSort {
                fan_in,
                b_in,
                b_out,
                ..
            } => {
                assert_eq!(fan_in, 8);
                assert_eq!((b_in, b_out), (64, 32));
            }
            other => panic!("expected sort, got {other:?}"),
        }
    }

    #[test]
    fn sort_spec_is_rejected() {
        let p = parse("foldL([], unfoldR(mrg))(R)").unwrap();
        let mut cx = cx_two();
        cx.relations = [("R".to_string(), 0)].into_iter().collect();
        assert!(matches!(
            lower(&p, WorkloadHint::Sort, &cx),
            Err(LowerError::Unrecognized(_))
        ));
    }

    #[test]
    fn lowers_merge_and_streaming_shapes() {
        let p = parse("unfoldR[bin, bout](mrg)(<A, B>)").unwrap();
        let mut cx = cx_two();
        cx.relations = [("A".to_string(), 0), ("B".to_string(), 1)]
            .into_iter()
            .collect();
        let plan = lower(&p, WorkloadHint::SetUnion, &cx).unwrap();
        assert!(matches!(
            plan,
            Plan::MergePass {
                kind: MergeKind::SetUnion,
                b_in: 64,
                ..
            }
        ));

        let agg = parse("avg(for (pB [k0] <- L) for (x <- pB) [x])").unwrap();
        let mut cx = cx_two();
        cx.relations = [("L".to_string(), 0)].into_iter().collect();
        let plan = lower(&agg, WorkloadHint::Aggregate, &cx).unwrap();
        assert!(matches!(plan, Plan::Aggregate { b_in: 512, .. }));
    }

    #[test]
    fn missing_param_reported() {
        let p = parse("for (xB [k9] <- R) for (x <- xB) [x]").unwrap();
        let mut cx = cx_two();
        cx.relations = [("R".to_string(), 0), ("S".to_string(), 1)]
            .into_iter()
            .collect();
        assert!(matches!(
            lower(&p, WorkloadHint::Join { cross: false }, &cx),
            Err(LowerError::MissingParam(_))
        ));
    }
}
