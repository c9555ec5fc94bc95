//! Result-size estimation — the `R(Γ, e)` rules of Figure 5.
//!
//! The analysis is worst-case: `if` takes the larger branch, nested lists
//! take the maximum inner length, and definitions fall back to conservative
//! plugins. Programmers can override any subexpression with a `Sized`
//! annotation (paper §5.1) — this is what makes the multiset-difference
//! estimate of §7.3 exact.

use crate::annot::Annot;
use crate::memo::Simp;
use crate::CostError;
use ocal::{BlockSize, DefName, Expr, PrimOp};
use ocas_hierarchy::NodeId;
use ocas_symbolic::Expr as Sym;
use std::collections::BTreeMap;

/// Context for size estimation: `Γ` plus configuration.
///
/// `Γ` is borrowed, never copied: the bindings the rules introduce while
/// they size an expression (a `for` variable, a lambda parameter) go on a
/// stack above it, innermost last, and come off again on the way out.
#[derive(Debug, Clone)]
pub struct SizeCtx<'g> {
    outer: Outer<'g>,
    local: Vec<(String, Annot)>,
    /// Byte width of `Int`/`hash` results (the paper's Figure 4 example uses
    /// 1; the experiments use machine-width integers).
    pub int_size: u64,
    simp: Simp<'g>,
}

/// The borrowed `Γ`: input annotations, or the cost engine's environment,
/// which also places every name on a hierarchy node.
#[derive(Debug, Clone, Copy)]
enum Outer<'g> {
    Annots(&'g BTreeMap<String, Annot>),
    Placed(&'g BTreeMap<String, (Annot, NodeId)>),
}

impl<'g> SizeCtx<'g> {
    /// Creates a context over input annotations with the given `Int` width.
    pub fn new(gamma: &'g BTreeMap<String, Annot>, int_size: u64) -> SizeCtx<'g> {
        SizeCtx {
            outer: Outer::Annots(gamma),
            local: Vec::new(),
            int_size,
            simp: Simp::PLAIN,
        }
    }

    /// The cost engine's context: its `Γ` and its table of normal forms.
    pub(crate) fn placed(
        gamma: &'g BTreeMap<String, (Annot, NodeId)>,
        int_size: u64,
        simp: Simp<'g>,
    ) -> SizeCtx<'g> {
        SizeCtx {
            outer: Outer::Placed(gamma),
            local: Vec::new(),
            int_size,
            simp,
        }
    }

    /// The annotation `name` is bound to, innermost binding first.
    fn get(&self, name: &str) -> Option<&Annot> {
        match self.local.iter().rev().find(|(n, _)| n == name) {
            Some((_, a)) => Some(a),
            None => match self.outer {
                Outer::Annots(g) => g.get(name),
                Outer::Placed(g) => g.get(name).map(|(a, _)| a),
            },
        }
    }

    /// Binds `name` over every binding of it so far, until [`Self::unbind`].
    fn bind(&mut self, name: &str, a: Annot) {
        self.local.push((name.to_string(), a));
    }

    /// Drops the `n` innermost bindings.
    fn unbind(&mut self, n: usize) {
        self.local.truncate(self.local.len() - n);
    }

    fn simplify(&self, e: &Sym) -> Sym {
        self.simp.simplify(e)
    }
}

/// Converts a block size into a symbolic expression.
pub fn block_sym(b: &BlockSize) -> Sym {
    match b {
        BlockSize::Const(n) => Sym::int(*n as i128),
        BlockSize::Param(p) => Sym::var(p.clone()),
    }
}

/// Splits an application chain into its head and argument list.
pub fn spine(e: &Expr) -> (&Expr, Vec<&Expr>) {
    let mut head = e;
    let mut args = Vec::new();
    while let Expr::App { func, arg } = head {
        args.push(&**arg);
        head = &**func;
    }
    args.reverse();
    (head, args)
}

/// Recognizes the *order-inputs* selector
/// `if length(a) <= length(b) then <a, b> else <b, a>`
/// and returns the two list expressions `(a, b)`.
pub fn match_ordered_pair(e: &Expr) -> Option<(&Expr, &Expr)> {
    let Expr::If {
        cond,
        then_branch,
        else_branch,
    } = e
    else {
        return None;
    };
    let Expr::Prim {
        op: PrimOp::Le,
        args,
    } = &**cond
    else {
        return None;
    };
    let len_arg = |e| match spine(e) {
        (Expr::DefRef(DefName::Length), args) if args.len() == 1 => Some(args[0]),
        _ => None,
    };
    let a = len_arg(&args[0])?;
    let b = len_arg(&args[1])?;
    match (&**then_branch, &**else_branch) {
        (Expr::Tuple(t), Expr::Tuple(f))
            if t.len() == 2
                && f.len() == 2
                && t[0] == *a
                && t[1] == *b
                && f[0] == *b
                && f[1] == *a =>
        {
            Some((&t[0], &t[1]))
        }
        _ => None,
    }
}

/// `R(Γ, e)` — the result size of `e` as an annotated type.
pub fn result_size(e: &Expr, ctx: &SizeCtx) -> Result<Annot, CostError> {
    let a = go(e, &mut ctx.clone())?;
    Ok(a.simplified(ctx.simp))
}

fn go(e: &Expr, ctx: &mut SizeCtx) -> Result<Annot, CostError> {
    match e {
        Expr::Var(v) => ctx
            .get(v)
            .cloned()
            .ok_or_else(|| CostError::UnboundVariable(v.clone())),
        Expr::Int(_) => Ok(Annot::atom(ctx.int_size)),
        Expr::Bool(_) => Ok(Annot::atom(1)),
        Expr::Str(s) => Ok(Annot::atom(s.len() as u64)),
        // Function-forming expressions occupy no data space themselves.
        Expr::Lam { .. } | Expr::DefRef(_) | Expr::FlatMap { .. } | Expr::FoldL { .. } => {
            Ok(Annot::atom(0))
        }
        Expr::Tuple(items) => {
            let mut out = Vec::with_capacity(items.len());
            for i in items {
                out.push(go(i, ctx)?);
            }
            Ok(Annot::Tuple(out))
        }
        Expr::Proj { tuple, index } => {
            let t = go(tuple, ctx)?;
            t.proj(*index).ok_or(CostError::BadShape {
                context: "projection",
            })
        }
        Expr::Singleton(inner) => Ok(Annot::list(go(inner, ctx)?, Sym::one())),
        Expr::Empty => Ok(Annot::Zero),
        Expr::Union { left, right } => {
            let l = go(left, ctx)?;
            let r = go(right, ctx)?;
            Ok(l.add(&r, ctx.simp))
        }
        Expr::If { .. } => {
            if let Some((a, b)) = match_ordered_pair(e) {
                // order-inputs selector: the result is the same pair with the
                // smaller list first — exactly representable with min/max.
                let aa = go(a, ctx)?;
                let bb = go(b, ctx)?;
                if let (Some(ca), Some(cb)) = (aa.card(), bb.card()) {
                    let elem = aa
                        .elem()
                        .map(|e| e.join(bb.elem().unwrap_or(&Annot::Zero), ctx.simp))
                        .unwrap_or(Annot::Zero);
                    let min = ctx.simplify(&ca.clone().min(cb.clone()));
                    let max = ctx.simplify(&ca.max(cb));
                    return Ok(Annot::Tuple(vec![
                        Annot::list(elem.clone(), min),
                        Annot::list(elem, max),
                    ]));
                }
            }
            let Expr::If {
                then_branch,
                else_branch,
                ..
            } = e
            else {
                unreachable!()
            };
            let t = go(then_branch, ctx)?;
            let f = go(else_branch, ctx)?;
            Ok(t.join(&f, ctx.simp))
        }
        Expr::Prim { op, .. } => Ok(match op {
            PrimOp::Eq
            | PrimOp::Ne
            | PrimOp::Lt
            | PrimOp::Le
            | PrimOp::Gt
            | PrimOp::Ge
            | PrimOp::And
            | PrimOp::Or
            | PrimOp::Not => Annot::atom(1),
            _ => Annot::atom(ctx.int_size),
        }),
        Expr::For {
            var,
            block,
            source,
            body,
            ..
        } => {
            let src = go(source, ctx)?;
            let card = src.card().ok_or(CostError::BadShape {
                context: "for source",
            })?;
            let elem = src.elem().cloned().unwrap_or(Annot::Zero);
            let k = block_sym(block);
            let bound = if block.is_one() {
                elem
            } else {
                Annot::list(elem, k.clone())
            };
            ctx.bind(var, bound);
            let body_annot = go(body, ctx);
            ctx.unbind(1);
            Ok(body_annot?.scale(&(card / k), ctx.simp))
        }
        Expr::Sized { hint, .. } => Ok(Annot::from_hint(hint)),
        Expr::App { .. } => app_size(e, ctx),
    }
}

fn app_size(e: &Expr, ctx: &mut SizeCtx) -> Result<Annot, CostError> {
    let (head, args) = spine(e);
    match head {
        Expr::Lam { .. } => {
            // β-reduce the spine ((λx.…)(a1))(a2)…: spine arguments are
            // syntactically outside the lambdas, so size them all in the
            // outer scope, then bind each under its lambda and size the
            // innermost body with every binding in scope.
            let mut sized = Vec::with_capacity(args.len());
            for arg in args.iter().copied() {
                sized.push(go(arg, ctx)?);
            }
            let mut current: &Expr = head;
            let mut bound = 0;
            let mut over_applied = false;
            for a in sized {
                match current {
                    Expr::Lam { param, body } => {
                        ctx.bind(param, a);
                        bound += 1;
                        current = body;
                    }
                    _ => {
                        over_applied = true;
                        break;
                    }
                }
            }
            let result = if over_applied {
                Err(CostError::Unsupported("over-applied lambda"))
            } else {
                go(current, ctx)
            };
            ctx.unbind(bound);
            result
        }
        Expr::FlatMap { func } => {
            let [src] = args.as_slice() else {
                return Err(CostError::Unsupported("flatMap arity"));
            };
            let s = go(src, ctx)?;
            let card = s.card().ok_or(CostError::BadShape {
                context: "flatMap source",
            })?;
            let elem = s.elem().cloned().unwrap_or(Annot::Zero);
            let body = apply_fn_size(func, elem, ctx)?;
            Ok(body.scale(&card, ctx.simp))
        }
        Expr::FoldL { init, func } => {
            let [src] = args.as_slice() else {
                return Err(CostError::Unsupported("foldL arity"));
            };
            let s = go(src, ctx)?;
            let card = s.card().ok_or(CostError::BadShape {
                context: "foldL source",
            })?;
            let elem = s.elem().cloned().unwrap_or(Annot::Zero);
            fold_size(init, func, &elem, &card, ctx)
        }
        Expr::DefRef(def) => {
            if args.len() < def.arity() {
                // Partial application: a function value, no data size.
                return Ok(Annot::atom(0));
            }
            def_size(def, &args, ctx)
        }
        Expr::Sized { hint, .. } => {
            let _ = args;
            Ok(Annot::from_hint(hint))
        }
        _ => Err(CostError::Unsupported("application head")),
    }
}

/// Applies a function expression to an argument *annotation* and sizes the
/// result (used for `flatMap`/`foldL` bodies and definition arguments).
pub fn apply_fn_size(f: &Expr, arg: Annot, ctx: &mut SizeCtx) -> Result<Annot, CostError> {
    match f {
        Expr::Lam { param, body } => {
            ctx.bind(param, arg);
            let r = go(body, ctx);
            ctx.unbind(1);
            r
        }
        Expr::Sized { hint, .. } => Ok(Annot::from_hint(hint)),
        Expr::DefRef(def) => {
            // A unary definition applied to a pre-sized argument.
            def_size_with_annots(def, &[arg], ctx)
        }
        Expr::App { .. } => {
            // Partially applied definition, e.g. `unfoldR(mrg)` as the
            // foldL step function.
            let (head, pre_args) = spine(f);
            if let Expr::DefRef(def) = head {
                let mut annots = Vec::with_capacity(pre_args.len() + 1);
                for a in pre_args {
                    annots.push(go(a, ctx)?);
                }
                annots.push(arg);
                return def_size_with_annots(def, &annots, ctx);
            }
            Err(CostError::Unsupported("function application head"))
        }
        _ => Err(CostError::Unsupported("function position expression")),
    }
}

/// Figure 6's linear-growth model for `foldL`:
/// `R = R(c) + card · (R(step(⟨c, elem⟩)) − R(c))`.
fn fold_size(
    init: &Expr,
    func: &Expr,
    elem: &Annot,
    card: &Sym,
    ctx: &mut SizeCtx,
) -> Result<Annot, CostError> {
    let c = go(init, ctx)?;
    let step_arg = Annot::Tuple(vec![c.clone(), elem.clone()]);
    let one_step = apply_fn_size(func, step_arg, ctx)?;
    // Combine shape-wise: list cards grow linearly; scalars keep the
    // one-step size (the common accumulate-a-counter case).
    Ok(linear_growth(&c, &one_step, card, ctx.simp))
}

fn linear_growth(c: &Annot, step: &Annot, card: &Sym, simp: Simp<'_>) -> Annot {
    match (c, step) {
        (Annot::Zero, Annot::Zero) => Annot::Zero,
        (Annot::List { card: c0, elem: e0 }, Annot::List { card: c1, elem: e1 }) => {
            let delta = simp.simplify(&(c1.clone() - c0.clone()));
            let grown = simp.simplify(&(c0.clone() + card.clone() * delta));
            Annot::list(e0.join(e1, simp), grown)
        }
        (Annot::Zero, Annot::List { card: c1, elem }) => {
            let grown = simp.simplify(&(card.clone() * c1.clone()));
            Annot::list((**elem).clone(), grown)
        }
        (Annot::Tuple(xs), Annot::Tuple(ys)) if xs.len() == ys.len() => Annot::Tuple(
            xs.iter()
                .zip(ys)
                .map(|(x, y)| linear_growth(x, y, card, simp))
                .collect(),
        ),
        // Scalar accumulators keep their per-step size.
        (_, s) if s.is_scalar() => s.clone(),
        (c0, s) => {
            // Fallback: linear growth on the byte size.
            let delta = simp.simplify(&(s.size() - c0.size()));
            Annot::Atom(simp.simplify(&(c0.size() + card.clone() * delta)))
        }
    }
}

fn def_size(def: &DefName, args: &[&Expr], ctx: &mut SizeCtx) -> Result<Annot, CostError> {
    let mut annots = Vec::with_capacity(args.len());
    for a in args {
        annots.push(go(a, ctx)?);
    }
    def_size_with_annots(def, &annots, ctx)
}

/// Size plugins for the named definitions (paper §5.3: "our system also
/// allows the developer to define custom costs for definitions").
pub fn def_size_with_annots(
    def: &DefName,
    args: &[Annot],
    ctx: &mut SizeCtx,
) -> Result<Annot, CostError> {
    let wrong = || CostError::BadShape {
        context: "definition argument",
    };
    match def {
        DefName::Head => args[0].elem().cloned().ok_or_else(wrong),
        DefName::Tail => {
            let card = args[0].card().ok_or_else(wrong)?;
            let elem = args[0].elem().cloned().ok_or_else(wrong)?;
            Ok(Annot::list(elem, ctx.simplify(&(card - Sym::one()))))
        }
        DefName::Length | DefName::Avg => Ok(Annot::atom(ctx.int_size)),
        DefName::Mrg => {
            // One merge step: emits at most one element.
            let elem = match &args[0] {
                Annot::Tuple(items) if !items.is_empty() => {
                    items[0].elem().cloned().unwrap_or(Annot::Zero)
                }
                _ => return Err(wrong()),
            };
            let out = Annot::list(elem, Sym::one());
            Ok(Annot::Tuple(vec![out, args[0].clone()]))
        }
        DefName::Zip(_) => {
            let Annot::Tuple(items) = &args[0] else {
                return Err(wrong());
            };
            let heads: Vec<Annot> = items
                .iter()
                .map(|l| l.elem().cloned().unwrap_or(Annot::Zero))
                .collect();
            let out = Annot::list(Annot::Tuple(heads), Sym::one());
            Ok(Annot::Tuple(vec![out, args[0].clone()]))
        }
        DefName::Partition => {
            // Worst-case: every tuple forms its own group (documented
            // overestimate; the costed experiments use hashPartition).
            let card = args[0].card().ok_or_else(wrong)?;
            let elem = args[0].elem().cloned().ok_or_else(wrong)?;
            let (key, rest) = match &elem {
                Annot::Tuple(items) if items.len() >= 2 => {
                    let key = items[0].clone();
                    let rest = if items.len() == 2 {
                        items[1].clone()
                    } else {
                        Annot::Tuple(items[1..].to_vec())
                    };
                    (key, rest)
                }
                _ => return Err(wrong()),
            };
            Ok(Annot::list(
                Annot::Tuple(vec![key, Annot::list(rest, card.clone())]),
                card,
            ))
        }
        DefName::HashPartition(s) => {
            let card = args[0].card().ok_or_else(wrong)?;
            let elem = args[0].elem().cloned().ok_or_else(wrong)?;
            let s = block_sym(s);
            let per_bucket = ctx.simplify(&(card / s.clone()).ceil());
            Ok(Annot::list(Annot::list(elem, per_bucket), s))
        }
        DefName::UnfoldR { .. } => {
            if args.len() != 2 {
                return Err(CostError::Unsupported("partially applied unfoldR"));
            }
            let Annot::Tuple(lists) = &args[1] else {
                return Err(wrong());
            };
            // The step function decides the output shape; args[0] sized the
            // step (opaque). We conservatively emit the *sum* of input
            // cardinalities (exact for merges, the worst case otherwise) —
            // except when every input has the same elem and the step is a
            // zip, which the events engine special-cases before calling us.
            let mut card = Sym::zero();
            let mut elem = Annot::Zero;
            for l in lists {
                card = card + l.card().ok_or_else(wrong)?;
                elem = elem.join(l.elem().unwrap_or(&Annot::Zero), ctx.simp);
            }
            Ok(Annot::list(elem, ctx.simplify(&card)))
        }
        DefName::TreeFold(_) => {
            if args.len() != 2 {
                return Err(CostError::Unsupported("partially applied treeFold"));
            }
            let seed = &args[1];
            let card = seed.card().ok_or_else(wrong)?;
            match seed.elem().ok_or_else(wrong)? {
                Annot::List {
                    elem: inner,
                    card: inner_card,
                } => {
                    // Size-preserving aggregation (merge): all leaf elements
                    // survive into the single result list.
                    let total = ctx.simplify(&(card * inner_card.clone()));
                    Ok(Annot::list((**inner).clone(), total))
                }
                scalar => Ok(scalar.clone()),
            }
        }
        DefName::FuncPow(_) => Err(CostError::Unsupported(
            "funcPow outside unfoldR/treeFold context",
        )),
    }
}

/// Sizes `unfoldR(zip)` applied to a tuple of lists: cardinality is the
/// *minimum* of the inputs (zip stops at the first exhausted list).
pub fn zip_unfold_size(lists: &Annot, simp: Simp<'_>) -> Result<Annot, CostError> {
    let Annot::Tuple(items) = lists else {
        return Err(CostError::BadShape { context: "zip" });
    };
    let mut card: Option<Sym> = None;
    let mut heads = Vec::with_capacity(items.len());
    for l in items {
        let c = l.card().ok_or(CostError::BadShape { context: "zip" })?;
        card = Some(match card {
            None => c,
            Some(prev) => {
                if prev == c {
                    prev
                } else {
                    prev.min(c)
                }
            }
        });
        heads.push(l.elem().cloned().unwrap_or(Annot::Zero));
    }
    Ok(Annot::list(
        Annot::Tuple(heads),
        simp.simplify(&card.unwrap_or_else(Sym::zero)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocal::parse;
    use ocas_symbolic::simplify;

    fn gamma_binary_join() -> BTreeMap<String, Annot> {
        let mut gamma = BTreeMap::new();
        gamma.insert("R".into(), Annot::relation(Sym::var("x"), 1, 1));
        gamma.insert("S".into(), Annot::relation(Sym::var("y"), 1, 1));
        gamma
    }

    #[test]
    fn figure4_result_sizes() {
        // The Figure 4 example: unary relations, Int size 1.
        let gamma = gamma_binary_join();
        let ctx = SizeCtx::new(&gamma, 1);
        let program = parse(
            "for (xB [k1] <- R) for (yB [k2] <- S) for (x <- xB) for (y <- yB) \
             if x == y then [<x, y>] else []",
        )
        .unwrap();
        let annot = result_size(&program, &ctx).unwrap();
        // [<1,1>]_{x·y}
        let expect = Annot::list(
            Annot::Tuple(vec![Annot::atom(1), Annot::atom(1)]),
            simplify(&(Sym::var("x") * Sym::var("y"))),
        );
        assert_eq!(annot, expect);
    }

    #[test]
    fn curried_application_binds_every_argument() {
        // ((λx. λy. <x, y>)(R))(S): sizing the innermost body must see
        // BOTH bindings. Regression test for the early return that bound
        // only the first spine argument and sized the remaining lambda
        // to an empty atom.
        let gamma = gamma_binary_join();
        let ctx = SizeCtx::new(&gamma, 1);
        let e = Expr::lam(
            "x",
            Expr::lam("y", Expr::tuple(vec![Expr::var("x"), Expr::var("y")])),
        )
        .app(Expr::var("R"))
        .app(Expr::var("S"));
        let annot = result_size(&e, &ctx).unwrap();
        let expect = Annot::Tuple(vec![
            Annot::relation(Sym::var("x"), 1, 1),
            Annot::relation(Sym::var("y"), 1, 1),
        ]);
        assert_eq!(annot, expect);
    }

    #[test]
    fn figure4_intermediate_rows() {
        // Row 4: for (y <- yB) ... with xB, yB, x in scope.
        let mut gamma = gamma_binary_join();
        gamma.insert("xB".into(), Annot::relation(Sym::var("k1"), 1, 1));
        gamma.insert("yB".into(), Annot::relation(Sym::var("k2"), 1, 1));
        gamma.insert("x".into(), Annot::atom(1));
        let row4 = parse("for (y <- yB) if x == y then [<x, y>] else []").unwrap();
        let annot = result_size(&row4, &SizeCtx::new(&gamma, 1)).unwrap();
        let expect = Annot::list(
            Annot::Tuple(vec![Annot::atom(1), Annot::atom(1)]),
            Sym::var("k2"),
        );
        assert_eq!(annot, expect, "row 4 of Figure 4");
    }

    #[test]
    fn if_takes_worst_case() {
        let gamma = gamma_binary_join();
        let ctx = SizeCtx::new(&gamma, 1);
        let e = parse("if true then R else []").unwrap();
        let annot = result_size(&e, &ctx).unwrap();
        assert_eq!(annot, Annot::relation(Sym::var("x"), 1, 1));
    }

    #[test]
    fn union_adds() {
        let gamma = gamma_binary_join();
        let ctx = SizeCtx::new(&gamma, 1);
        let e = parse("R ++ S").unwrap();
        let annot = result_size(&e, &ctx).unwrap();
        assert_eq!(
            annot.card().unwrap(),
            simplify(&(Sym::var("x") + Sym::var("y")))
        );
    }

    #[test]
    fn fold_sum_is_scalar() {
        let gamma = gamma_binary_join();
        let ctx = SizeCtx::new(&gamma, 1);
        let e = parse("foldL(0, \\a. a.1 + a.2)(R)").unwrap();
        let annot = result_size(&e, &ctx).unwrap();
        assert_eq!(annot, Annot::atom(1));
    }

    #[test]
    fn fold_append_grows_linearly() {
        let gamma = gamma_binary_join();
        let ctx = SizeCtx::new(&gamma, 1);
        // foldL([], λa. a.1 ++ [a.2]) — the identity-ish accumulation.
        let e = parse("foldL([], \\a. a.1 ++ [a.2])(R)").unwrap();
        let annot = result_size(&e, &ctx).unwrap();
        assert_eq!(annot.card().unwrap(), Sym::var("x"));
    }

    #[test]
    fn insertion_sort_size() {
        // foldL([], unfoldR(mrg)) over [[Int]_1]_x yields [Int]_x.
        let mut gamma = BTreeMap::new();
        gamma.insert(
            "R".into(),
            Annot::list(Annot::list(Annot::atom(1), Sym::one()), Sym::var("x")),
        );
        let ctx = SizeCtx::new(&gamma, 1);
        let e = parse("foldL([], unfoldR(mrg))(R)").unwrap();
        let annot = result_size(&e, &ctx).unwrap();
        assert_eq!(annot.card().unwrap(), Sym::var("x"));
    }

    #[test]
    fn treefold_merge_sort_size() {
        let mut gamma = BTreeMap::new();
        gamma.insert(
            "R".into(),
            Annot::list(Annot::list(Annot::atom(1), Sym::one()), Sym::var("x")),
        );
        let ctx = SizeCtx::new(&gamma, 1);
        let e = parse("treeFold[4](<[], unfoldR(funcPow[2](mrg))>)(R)").unwrap();
        let annot = result_size(&e, &ctx).unwrap();
        assert_eq!(annot.card().unwrap(), Sym::var("x"));
    }

    #[test]
    fn hash_partition_buckets_size() {
        let gamma = gamma_binary_join();
        let ctx = SizeCtx::new(&gamma, 1);
        let e = parse("hashPartition[s1](R)").unwrap();
        let annot = result_size(&e, &ctx).unwrap();
        assert_eq!(annot.card().unwrap(), Sym::var("s1"));
        let bucket = annot.elem().unwrap();
        assert_eq!(
            bucket.card().unwrap(),
            simplify(&(Sym::var("x") / Sym::var("s1")).ceil())
        );
        // Total size is preserved up to the ceiling.
        let total = simplify(&annot.size());
        let expect = simplify(&(Sym::var("s1") * (Sym::var("x") / Sym::var("s1")).ceil()));
        assert_eq!(total, expect);
    }

    #[test]
    fn order_inputs_selector_gives_min_max() {
        let gamma = gamma_binary_join();
        let ctx = SizeCtx::new(&gamma, 1);
        let e = parse("if length(R) <= length(S) then <R, S> else <S, R>").unwrap();
        let annot = result_size(&e, &ctx).unwrap();
        let Annot::Tuple(items) = &annot else {
            panic!("expected pair, got {annot}");
        };
        let x = Sym::var("x");
        let y = Sym::var("y");
        assert_eq!(
            items[0].card().unwrap(),
            simplify(&x.clone().min(y.clone()))
        );
        assert_eq!(items[1].card().unwrap(), simplify(&x.max(y)));
    }

    #[test]
    fn sized_annotation_overrides() {
        let gamma = gamma_binary_join();
        let ctx = SizeCtx::new(&gamma, 1);
        let base = parse("R ++ S").unwrap();
        let e = base.sized(ocal::SizeHint::List(
            Box::new(ocal::SizeHint::Atom(1)),
            ocal::CardHint::Var("x".into()),
        ));
        let annot = result_size(&e, &ctx).unwrap();
        assert_eq!(annot.card().unwrap(), Sym::var("x"));
    }
}
