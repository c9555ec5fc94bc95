//! The transformation-rule library (paper §6.2).

use crate::conditions::Equivalence;
use ocal::{BlockSize, DefName, Expr, PrimOp, SeqAnnot, TypeEnv};
use ocas_hierarchy::Hierarchy;
use std::collections::BTreeMap;

/// Context handed to rules: the target hierarchy, the typing environment,
/// the physical layout of inputs/output, a fresh-name counter and the
/// variables bound around the current position.
pub struct RuleCtx<'a> {
    /// The target memory hierarchy.
    pub hierarchy: &'a Hierarchy,
    /// Types of the program's named inputs.
    pub env: &'a TypeEnv,
    /// Input name → hierarchy node name.
    pub input_nodes: &'a BTreeMap<String, String>,
    /// Output node name (None = consumed by the CPU).
    pub output: Option<String>,
    /// Counter for fresh parameter/variable names.
    pub fresh: u32,
    /// Variables bound around the position currently being rewritten
    /// (maintained by the search walker).
    pub bound: Vec<String>,
}

impl RuleCtx<'_> {
    /// A fresh block-size parameter name (`k0`, `k1`, …).
    pub fn fresh_param(&mut self) -> String {
        let n = self.fresh;
        self.fresh += 1;
        format!("k{n}")
    }

    /// A fresh partition-count parameter name (`s0`, `s1`, …).
    pub fn fresh_partitions(&mut self) -> String {
        let n = self.fresh;
        self.fresh += 1;
        format!("s{n}")
    }

    /// A fresh variable name.
    pub fn fresh_var(&mut self, base: &str) -> String {
        let n = self.fresh;
        self.fresh += 1;
        format!("{base}_{n}")
    }

    fn is_bound(&self, v: &str) -> bool {
        self.bound.iter().any(|b| b == v)
    }

    /// Resolves the device holding a loop source: all free variables of the
    /// source (ignoring locally bound ones) must be inputs mapped to the
    /// same node. Walks the free variables directly (no set is built) —
    /// this guard runs at every `for` node the search visits.
    pub fn source_device(&self, source: &Expr) -> Option<String> {
        // `walk` returns false to abort (some free var is locally bound,
        // not an input, or on a conflicting node).
        fn walk<'e>(
            e: &'e Expr,
            bound: &mut Vec<&'e str>,
            cx: &RuleCtx<'_>,
            node: &mut Option<String>,
            saw_input: &mut bool,
        ) -> bool {
            match e {
                Expr::Var(v) => {
                    if bound.iter().any(|b| *b == v) {
                        return true; // Bound here: not a free variable.
                    }
                    if cx.is_bound(v) {
                        return false; // Bound data lives above the leaves.
                    }
                    match cx.input_nodes.get(v) {
                        Some(n) => {
                            *saw_input = true;
                            if let Some(prev) = node {
                                if prev != n {
                                    return false;
                                }
                            }
                            *node = Some(n.clone());
                            true
                        }
                        None => false,
                    }
                }
                Expr::Lam { param, body } => {
                    bound.push(param);
                    let ok = walk(body, bound, cx, node, saw_input);
                    bound.pop();
                    ok
                }
                Expr::For {
                    var, source, body, ..
                } => {
                    if !walk(source, bound, cx, node, saw_input) {
                        return false;
                    }
                    bound.push(var);
                    let ok = walk(body, bound, cx, node, saw_input);
                    bound.pop();
                    ok
                }
                other => other
                    .children()
                    .into_iter()
                    .all(|c| walk(c, bound, cx, node, saw_input)),
            }
        }
        let mut node = None;
        let mut saw_input = false;
        if !walk(source, &mut Vec::new(), self, &mut node, &mut saw_input) {
            return None;
        }
        if saw_input {
            node
        } else {
            None
        }
    }
}

/// A transformation rule `e₁ ⇒ e₂` with its applicability conditions.
///
/// Rules are stateless: all mutable context lives in [`RuleCtx`].
pub trait Rule {
    /// The paper's rule name.
    fn name(&self) -> &'static str;

    /// True if the rule only makes sense at the program root
    /// (*order-inputs*, *hash-part*).
    fn root_only(&self) -> bool {
        false
    }

    /// True when every rewrite this rule proposes is guaranteed to have the
    /// same type as the term it replaces. The search then skips
    /// re-typechecking those candidates (debug builds still verify the
    /// claim with an assertion). Defaults to `false` so custom rules get
    /// the full check unless they opt in.
    fn preserves_type(&self) -> bool {
        false
    }

    /// True when every rewrite this rule proposes is unconditionally
    /// semantics-preserving **under the given output equivalence** — an
    /// identity up to the cost model, with no undecidable side conditions.
    /// *apply-block*'s re-blocking or *seq-ac*'s pure annotation qualify
    /// under every equivalence; *swap-iter* qualifies under the bag
    /// equivalences (its independence condition is decidable and checked
    /// syntactically) but not under `Exact`, where reordering is
    /// observable. The search skips differential validation for exempt
    /// candidates (debug builds still verify the claim). Defaults to
    /// `false`: rules with genuine side conditions (*hash-part*,
    /// *order-inputs*, …) must stay under the conservative check.
    fn preserves_semantics(&self, equivalence: Equivalence) -> bool {
        let _ = equivalence;
        false
    }

    /// Proposes rewrites of the expression rooted at `e`.
    fn apply(&self, e: &Expr, cx: &mut RuleCtx<'_>) -> Vec<Expr>;
}

/// Scans `e` for generated-name indices (`k3`/`s3` block-size parameters
/// and `_3`-suffixed variables) and returns one past the largest, i.e. a
/// safe starting value for [`RuleCtx::fresh`] that cannot collide with any
/// name already in the program. This is what makes per-frontier-item fresh
/// counters deterministic and collision-free regardless of how many other
/// programs were expanded before this one.
pub fn next_fresh_index(e: &Expr) -> u32 {
    fn param_idx(p: &str) -> Option<u32> {
        let rest = p.strip_prefix('k').or_else(|| p.strip_prefix('s'))?;
        rest.parse().ok()
    }
    fn var_idx(v: &str) -> Option<u32> {
        let (_, suffix) = v.rsplit_once('_')?;
        suffix.parse().ok()
    }
    fn block_idx(b: &BlockSize) -> Option<u32> {
        b.param_name().and_then(param_idx)
    }
    fn go(e: &Expr, max: &mut u32) {
        let mut bump = |i: Option<u32>| {
            if let Some(i) = i {
                *max = (*max).max(i + 1);
            }
        };
        match e {
            Expr::Var(v) => bump(var_idx(v)),
            Expr::Lam { param, .. } => bump(var_idx(param)),
            Expr::For {
                var,
                block,
                out_block,
                ..
            } => {
                bump(var_idx(var));
                bump(block_idx(block));
                bump(block_idx(out_block));
            }
            Expr::DefRef(DefName::TreeFold(k)) | Expr::DefRef(DefName::HashPartition(k)) => {
                bump(block_idx(k))
            }
            Expr::DefRef(DefName::UnfoldR { b_in, b_out }) => {
                bump(block_idx(b_in));
                bump(block_idx(b_out));
            }
            _ => {}
        }
        for c in e.children() {
            go(c, max);
        }
    }
    let mut max = 0;
    go(e, &mut max);
    max
}

/// The default rule library, in the paper's order.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(ApplyBlock),
        Box::new(UnfoldrBlock),
        Box::new(Prefetch),
        Box::new(SwapIter),
        Box::new(SwapIterCond),
        Box::new(OrderInputs),
        Box::new(HashPart),
        Box::new(FldlToTrfld),
        Box::new(FuncPowIntro),
        Box::new(IncBranching),
        Box::new(SeqAc),
    ]
}

// ---------------------------------------------------------------------------

/// *apply-block*: `for (x ← R) e ⇒ for (xB [k] ← R) for (x ← xB) e`.
pub struct ApplyBlock;

impl Rule for ApplyBlock {
    fn name(&self) -> &'static str {
        "apply-block"
    }

    fn preserves_type(&self) -> bool {
        true
    }

    fn preserves_semantics(&self, _equivalence: Equivalence) -> bool {
        true
    }

    fn apply(&self, e: &Expr, cx: &mut RuleCtx<'_>) -> Vec<Expr> {
        let Expr::For {
            var,
            block,
            source,
            out_block,
            body,
            seq,
        } = e
        else {
            return vec![];
        };
        if !block.is_one() {
            return vec![];
        }
        // Blocking a literal list would be noise.
        if matches!(**source, Expr::Empty | Expr::Singleton(_)) {
            return vec![];
        }
        let k = cx.fresh_param();
        let block_var = cx.fresh_var(&format!("{var}B"));
        let inner = Expr::For {
            var: var.clone(),
            block: BlockSize::one(),
            source: Box::new(Expr::var(block_var.clone())),
            out_block: out_block.clone(),
            body: body.clone(),
            seq: None,
        };
        vec![Expr::For {
            var: block_var,
            block: BlockSize::Param(k),
            source: source.clone(),
            out_block: BlockSize::one(),
            body: Box::new(inner),
            seq: seq.clone(),
        }]
    }
}

/// The "analogous rule" for `unfoldR` (paper §6.2): introduce input/output
/// blocking parameters on an element-wise `unfoldR`.
pub struct UnfoldrBlock;

impl Rule for UnfoldrBlock {
    fn name(&self) -> &'static str {
        "unfoldR-block"
    }

    fn preserves_type(&self) -> bool {
        true
    }

    fn preserves_semantics(&self, _equivalence: Equivalence) -> bool {
        true
    }

    fn apply(&self, e: &Expr, cx: &mut RuleCtx<'_>) -> Vec<Expr> {
        let Expr::DefRef(DefName::UnfoldR { b_in, b_out }) = e else {
            return vec![];
        };
        if !b_in.is_one() || !b_out.is_one() {
            return vec![];
        }
        let bi = cx.fresh_param();
        let bo = cx.fresh_param();
        vec![Expr::DefRef(DefName::UnfoldR {
            b_in: BlockSize::Param(bi),
            b_out: BlockSize::Param(bo),
        })]
    }
}

/// *prefetch* (an apply-block corollary): feed a streaming consumer through
/// a blocked identity loop, `f(L) ⇒ f(for (xB [k] ← L) for (x ← xB) [x])`.
pub struct Prefetch;

impl Rule for Prefetch {
    fn name(&self) -> &'static str {
        "prefetch"
    }

    fn preserves_type(&self) -> bool {
        true
    }

    fn preserves_semantics(&self, _equivalence: Equivalence) -> bool {
        true
    }

    fn apply(&self, e: &Expr, cx: &mut RuleCtx<'_>) -> Vec<Expr> {
        let Expr::App { func, arg } = e else {
            return vec![];
        };
        let streaming = matches!(&**func, Expr::FoldL { .. } | Expr::DefRef(DefName::Avg));
        if !streaming {
            return vec![];
        }
        // Don't prefetch something that is already a loop.
        if matches!(&**arg, Expr::For { .. }) {
            return vec![];
        }
        let k = cx.fresh_param();
        let block_var = cx.fresh_var("pB");
        let elem_var = cx.fresh_var("p");
        let identity = Expr::For {
            var: block_var.clone(),
            block: BlockSize::Param(k),
            source: arg.clone(),
            out_block: BlockSize::one(),
            body: Box::new(Expr::for_each(
                elem_var.clone(),
                Expr::var(block_var),
                Expr::var(elem_var).singleton(),
            )),
            seq: None,
        };
        vec![Expr::App {
            func: func.clone(),
            arg: Box::new(identity),
        }]
    }
}

/// *swap-iter*: exchange two directly nested loops when the inner range is
/// independent of the outer variable.
pub struct SwapIter;

impl Rule for SwapIter {
    fn name(&self) -> &'static str {
        "swap-iter"
    }

    fn preserves_type(&self) -> bool {
        true
    }

    fn preserves_semantics(&self, equivalence: Equivalence) -> bool {
        matches!(
            equivalence,
            Equivalence::Bag | Equivalence::BagModuloFieldOrder
        )
    }

    fn apply(&self, e: &Expr, _cx: &mut RuleCtx<'_>) -> Vec<Expr> {
        let Expr::For {
            var: v1,
            block: k1,
            source: s1,
            out_block: o1,
            body,
            seq: q1,
        } = e
        else {
            return vec![];
        };
        let Expr::For {
            var: v2,
            block: k2,
            source: s2,
            out_block: o2,
            body: inner,
            seq: q2,
        } = &**body
        else {
            return vec![];
        };
        if s2.mentions(v1) || s1.mentions(v2) || v1 == v2 {
            return vec![];
        }
        vec![Expr::For {
            var: v2.clone(),
            block: k2.clone(),
            source: s2.clone(),
            out_block: o2.clone(),
            body: Box::new(Expr::For {
                var: v1.clone(),
                block: k1.clone(),
                source: s1.clone(),
                out_block: o1.clone(),
                body: inner.clone(),
                seq: q1.clone(),
            }),
            seq: q2.clone(),
        }]
    }
}

/// The conditional variant of *swap-iter*:
/// `for x: if c then (for y: e) else [] ⇒ for y: for x: if c then e else []`.
/// The empty else-branch is required for equivalence.
pub struct SwapIterCond;

impl Rule for SwapIterCond {
    fn name(&self) -> &'static str {
        "swap-iter-cond"
    }

    fn preserves_type(&self) -> bool {
        true
    }

    fn preserves_semantics(&self, equivalence: Equivalence) -> bool {
        matches!(
            equivalence,
            Equivalence::Bag | Equivalence::BagModuloFieldOrder
        )
    }

    fn apply(&self, e: &Expr, _cx: &mut RuleCtx<'_>) -> Vec<Expr> {
        let Expr::For {
            var: v1,
            block: k1,
            source: s1,
            out_block: o1,
            body,
            seq: q1,
        } = e
        else {
            return vec![];
        };
        let Expr::If {
            cond,
            then_branch,
            else_branch,
        } = &**body
        else {
            return vec![];
        };
        if !matches!(**else_branch, Expr::Empty) {
            return vec![];
        }
        let Expr::For {
            var: v2,
            block: k2,
            source: s2,
            out_block: o2,
            body: inner,
            seq: q2,
        } = &**then_branch
        else {
            return vec![];
        };
        if s2.mentions(v1) || s1.mentions(v2) || v1 == v2 || cond.mentions(v2) {
            return vec![];
        }
        vec![Expr::For {
            var: v2.clone(),
            block: k2.clone(),
            source: s2.clone(),
            out_block: o2.clone(),
            body: Box::new(Expr::For {
                var: v1.clone(),
                block: k1.clone(),
                source: s1.clone(),
                out_block: o1.clone(),
                body: Box::new(Expr::If {
                    cond: cond.clone(),
                    then_branch: inner.clone(),
                    else_branch: Box::new(Expr::Empty),
                }),
                seq: q1.clone(),
            }),
            seq: q2.clone(),
        }]
    }
}

/// Checks if a program is already wrapped by an input-ordering selector.
fn already_ordered(e: &Expr) -> bool {
    fn contains_length_selector(e: &Expr) -> bool {
        if let Expr::If { cond, .. } = e {
            if let Expr::Prim { op: PrimOp::Le, .. } = &**cond {
                return true;
            }
        }
        e.children().iter().any(|c| contains_length_selector(c))
    }
    contains_length_selector(e)
}

/// *order-inputs*: wrap the program so the shorter relation comes first.
pub struct OrderInputs;

impl Rule for OrderInputs {
    fn name(&self) -> &'static str {
        "order-inputs"
    }

    fn preserves_type(&self) -> bool {
        true
    }

    fn root_only(&self) -> bool {
        true
    }

    fn apply(&self, e: &Expr, cx: &mut RuleCtx<'_>) -> Vec<Expr> {
        let Some((a, b, _)) = crate::conditions::two_equal_list_inputs(cx.env) else {
            return vec![];
        };
        if already_ordered(e) || !e.mentions(&a) || !e.mentions(&b) {
            return vec![];
        }
        let q = cx.fresh_var("q");
        let body = e
            .subst(&a, &Expr::var(q.clone()).proj(1))
            .subst(&b, &Expr::var(q.clone()).proj(2));
        let len = |x: &str| Expr::def(DefName::Length).app(Expr::var(x));
        let selector = Expr::if_(
            Expr::binop(PrimOp::Le, len(&a), len(&b)),
            Expr::tuple(vec![Expr::var(a.clone()), Expr::var(b.clone())]),
            Expr::tuple(vec![Expr::var(b.clone()), Expr::var(a.clone())]),
        );
        vec![Expr::lam(q, body).app(selector)]
    }
}

/// *hash-part*: partition both inputs by hash and map the program over
/// corresponding bucket pairs (the GRACE hash-join recipe). Semantically
/// valid only for programs that commute with partitioning — enforced by the
/// search engine's differential validation.
pub struct HashPart;

impl Rule for HashPart {
    fn name(&self) -> &'static str {
        "hash-part"
    }

    fn preserves_type(&self) -> bool {
        true
    }

    fn root_only(&self) -> bool {
        true
    }

    fn apply(&self, e: &Expr, cx: &mut RuleCtx<'_>) -> Vec<Expr> {
        let Some((a, b, elem_ty)) = crate::conditions::two_equal_list_inputs(cx.env) else {
            return vec![];
        };
        // Partitioning keys off the first tuple component.
        let is_tuple_elem = matches!(
            elem_ty,
            ocal::Type::List(ref inner) if matches!(**inner, ocal::Type::Tuple(_))
        );
        if !is_tuple_elem || !e.mentions(&a) || !e.mentions(&b) {
            return vec![];
        }
        if contains_hash_partition(e) || already_ordered(e) {
            return vec![];
        }
        let s = cx.fresh_partitions();
        let q = cx.fresh_var("q");
        let inner = e
            .subst(&a, &Expr::var(q.clone()).proj(1))
            .subst(&b, &Expr::var(q.clone()).proj(2));
        let part = |x: &str| {
            Expr::def(DefName::HashPartition(BlockSize::Param(s.clone()))).app(Expr::var(x))
        };
        let zipped = Expr::def(DefName::unfoldr())
            .app(Expr::def(DefName::Zip(2)))
            .app(Expr::tuple(vec![part(&a), part(&b)]));
        vec![Expr::flat_map(Expr::lam(q, inner)).app(zipped)]
    }
}

fn contains_hash_partition(e: &Expr) -> bool {
    if matches!(e, Expr::DefRef(DefName::HashPartition(_))) {
        return true;
    }
    e.children().iter().any(|c| contains_hash_partition(c))
}

/// Conservative whitelist: step functions built from `mrg` are associative
/// with identity `[]` (sorted-list merge forms a monoid).
fn is_merge_like(f: &Expr) -> bool {
    match f {
        Expr::DefRef(DefName::Mrg) => true,
        Expr::App { func, arg } => match (&**func, &**arg) {
            (Expr::DefRef(DefName::UnfoldR { .. }), inner) => is_merge_like(inner),
            (Expr::DefRef(DefName::FuncPow(_)), inner) => is_merge_like(inner),
            _ => false,
        },
        _ => false,
    }
}

/// *fldL-to-trfld*: `foldL(c, f)(l) ⇒ treeFold[2](⟨c, f⟩)(l)` when `f` is
/// associative and `c` its identity (whitelisted merge forms; everything
/// else is left to differential validation).
pub struct FldlToTrfld;

impl Rule for FldlToTrfld {
    fn name(&self) -> &'static str {
        "fldL-to-trfld"
    }

    fn preserves_type(&self) -> bool {
        true
    }

    fn apply(&self, e: &Expr, _cx: &mut RuleCtx<'_>) -> Vec<Expr> {
        let Expr::App { func, arg } = e else {
            return vec![];
        };
        let Expr::FoldL { init, func: f } = &**func else {
            return vec![];
        };
        if !is_merge_like(f) {
            return vec![];
        }
        vec![Expr::def(DefName::TreeFold(BlockSize::Const(2)))
            .app(Expr::tuple(vec![(**init).clone(), (**f).clone()]))
            .app((**arg).clone())]
    }
}

/// The auxiliary rule `f ⇒ funcPow[1](f)` (paper §6.2, used before the first
/// *inc-branching*): applied to `mrg` in step position under `unfoldR`.
pub struct FuncPowIntro;

impl Rule for FuncPowIntro {
    fn name(&self) -> &'static str {
        "funcPow-intro"
    }

    fn preserves_type(&self) -> bool {
        true
    }

    fn apply(&self, e: &Expr, _cx: &mut RuleCtx<'_>) -> Vec<Expr> {
        let Expr::App { func, arg } = e else {
            return vec![];
        };
        if !matches!(&**func, Expr::DefRef(DefName::UnfoldR { .. })) {
            return vec![];
        }
        if !matches!(&**arg, Expr::DefRef(DefName::Mrg)) {
            return vec![];
        }
        vec![Expr::App {
            func: func.clone(),
            arg: Box::new(Expr::def(DefName::FuncPow(1)).app(Expr::def(DefName::Mrg))),
        }]
    }
}

/// *inc-branching*: double a treeFold's arity together with its step's
/// `funcPow` exponent (both the plain and the `unfoldR` form).
pub struct IncBranching;

/// Upper bound on the branching exponent explored (2¹⁰ = 1024-way merges).
const MAX_BRANCH_LOG: u32 = 10;

impl Rule for IncBranching {
    fn name(&self) -> &'static str {
        "inc-branching"
    }

    fn preserves_type(&self) -> bool {
        true
    }

    fn apply(&self, e: &Expr, _cx: &mut RuleCtx<'_>) -> Vec<Expr> {
        // Match treeFold[m](<c, step>)(seed) where step embeds funcPow[k]
        // with 2^k == m.
        let Expr::App {
            func: outer,
            arg: seed,
        } = e
        else {
            return vec![];
        };
        let Expr::App { func: tf, arg: cf } = &**outer else {
            return vec![];
        };
        let Expr::DefRef(DefName::TreeFold(BlockSize::Const(m))) = &**tf else {
            return vec![];
        };
        let Expr::Tuple(items) = &**cf else {
            return vec![];
        };
        let [c, step] = items.as_slice() else {
            return vec![];
        };
        let Some((k, bumped)) = bump_funcpow(step) else {
            return vec![];
        };
        if (1u64 << k) != *m || k >= MAX_BRANCH_LOG {
            return vec![];
        }
        let new_m = BlockSize::Const(m * 2);
        vec![Expr::def(DefName::TreeFold(new_m))
            .app(Expr::tuple(vec![c.clone(), bumped]))
            .app((**seed).clone())]
    }
}

/// Finds `funcPow[k](f)` (optionally under `unfoldR`) and returns `k` plus
/// the same expression with `k+1`.
fn bump_funcpow(step: &Expr) -> Option<(u32, Expr)> {
    match step {
        Expr::App { func, arg } => match &**func {
            Expr::DefRef(DefName::FuncPow(k)) => {
                Some((*k, Expr::def(DefName::FuncPow(k + 1)).app((**arg).clone())))
            }
            Expr::DefRef(DefName::UnfoldR { .. }) => {
                let (k, inner) = bump_funcpow(arg)?;
                Some((
                    k,
                    Expr::App {
                        func: func.clone(),
                        arg: Box::new(inner),
                    },
                ))
            }
            _ => None,
        },
        _ => None,
    }
}

/// *seq-ac*: annotate an interference-free device scan as sequential.
pub struct SeqAc;

impl Rule for SeqAc {
    fn name(&self) -> &'static str {
        "seq-ac"
    }

    fn preserves_type(&self) -> bool {
        true
    }

    fn preserves_semantics(&self, _equivalence: Equivalence) -> bool {
        true
    }

    fn apply(&self, e: &Expr, cx: &mut RuleCtx<'_>) -> Vec<Expr> {
        let Expr::For {
            var,
            block,
            source,
            out_block,
            body,
            seq,
        } = e
        else {
            return vec![];
        };
        if seq.is_some() {
            return vec![];
        }
        let Some(m1) = cx.source_device(source) else {
            return vec![];
        };
        let Some(m1_id) = cx.hierarchy.by_name(&m1) else {
            return vec![];
        };
        let Some(m2_id) = cx.hierarchy.parent(m1_id) else {
            return vec![];
        };
        let m2 = cx.hierarchy.node(m2_id).name.clone();
        // Interference checks: the body must not touch any input on m1, and
        // the program output must not go to m1.
        if cx.output.as_deref() == Some(m1.as_str()) {
            return vec![];
        }
        let body_fv = body.free_vars();
        for v in &body_fv {
            if v != var && cx.input_nodes.get(v) == Some(&m1) {
                return vec![];
            }
        }
        vec![Expr::For {
            var: var.clone(),
            block: block.clone(),
            source: source.clone(),
            out_block: out_block.clone(),
            body: body.clone(),
            seq: Some(SeqAnnot { from: m1, to: m2 }),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocal::{parse, pretty, Type};
    use ocas_hierarchy::presets;

    fn join_env() -> TypeEnv {
        let rel = Type::list(Type::tuple(vec![Type::Int, Type::Int]));
        [("R".to_string(), rel.clone()), ("S".to_string(), rel)]
            .into_iter()
            .collect()
    }

    fn ctx<'a>(
        h: &'a Hierarchy,
        env: &'a TypeEnv,
        inputs: &'a BTreeMap<String, String>,
    ) -> RuleCtx<'a> {
        RuleCtx {
            hierarchy: h,
            env,
            input_nodes: inputs,
            output: None,
            fresh: 0,
            bound: Vec::new(),
        }
    }

    fn hdd_inputs(names: &[&str]) -> BTreeMap<String, String> {
        names
            .iter()
            .map(|n| (n.to_string(), "HDD".to_string()))
            .collect()
    }

    #[test]
    fn apply_block_introduces_block_loop() {
        let h = presets::hdd_ram(1 << 25);
        let env = join_env();
        let inputs = hdd_inputs(&["R", "S"]);
        let mut cx = ctx(&h, &env, &inputs);
        let e = parse("for (x <- R) [x]").unwrap();
        let out = ApplyBlock.apply(&e, &mut cx);
        assert_eq!(out.len(), 1);
        assert_eq!(pretty(&out[0]), "for (xB_1 [k0] <- R) for (x <- xB_1) [x]");
    }

    #[test]
    fn swap_iter_requires_independence() {
        let h = presets::hdd_ram(1 << 25);
        let env = join_env();
        let inputs = hdd_inputs(&["R", "S"]);
        let mut cx = ctx(&h, &env, &inputs);
        let independent = parse("for (x <- R) for (y <- S) [<x, y>]").unwrap();
        assert_eq!(SwapIter.apply(&independent, &mut cx).len(), 1);
        let dependent = parse("for (x <- R) for (y <- [x]) [<x, y>]").unwrap();
        assert!(SwapIter.apply(&dependent, &mut cx).is_empty());
    }

    #[test]
    fn swap_iter_cond_needs_empty_else() {
        let h = presets::hdd_ram(1 << 25);
        let env = join_env();
        let inputs = hdd_inputs(&["R", "S"]);
        let mut cx = ctx(&h, &env, &inputs);
        let good = parse("for (x <- R) if x.1 == 1 then for (y <- S) [<x, y>] else []").unwrap();
        assert_eq!(SwapIterCond.apply(&good, &mut cx).len(), 1);
        let bad = parse("for (x <- R) if x.1 == 1 then for (y <- S) [<x, y>] else [x]").unwrap();
        assert!(SwapIterCond.apply(&bad, &mut cx).is_empty());
    }

    #[test]
    fn order_inputs_wraps_program() {
        let h = presets::hdd_ram(1 << 25);
        let env = join_env();
        let inputs = hdd_inputs(&["R", "S"]);
        let mut cx = ctx(&h, &env, &inputs);
        let join = parse("for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []").unwrap();
        let out = OrderInputs.apply(&join, &mut cx);
        assert_eq!(out.len(), 1);
        let s = pretty(&out[0]);
        assert!(s.contains("length"), "{s}");
        // Not re-applicable.
        let again = OrderInputs.apply(&out[0], &mut cx);
        assert!(again.is_empty());
    }

    #[test]
    fn hash_part_builds_grace_pipeline() {
        let h = presets::hdd_ram(1 << 25);
        let env = join_env();
        let inputs = hdd_inputs(&["R", "S"]);
        let mut cx = ctx(&h, &env, &inputs);
        let join = parse("for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []").unwrap();
        let out = HashPart.apply(&join, &mut cx);
        assert_eq!(out.len(), 1);
        let s = pretty(&out[0]);
        assert!(s.contains("hashPartition[s0]"), "{s}");
        assert!(s.contains("zip[2]"), "{s}");
        assert!(HashPart.apply(&out[0], &mut cx).is_empty());
    }

    #[test]
    fn sort_derivation_chain() {
        let h = presets::hdd_ram(1 << 25);
        let env: TypeEnv = [("R".to_string(), Type::list(Type::list(Type::Int)))]
            .into_iter()
            .collect();
        let inputs = hdd_inputs(&["R"]);
        let mut cx = ctx(&h, &env, &inputs);

        let sort = parse("foldL([], unfoldR(mrg))(R)").unwrap();
        let t2 = FldlToTrfld.apply(&sort, &mut cx);
        assert_eq!(t2.len(), 1);
        assert_eq!(pretty(&t2[0]), "treeFold[2](<[], unfoldR(mrg)>)(R)");

        // funcPow-intro fires on the unfoldR(mrg) inside.
        let step = parse("unfoldR(mrg)").unwrap();
        let fp = FuncPowIntro.apply(&step, &mut cx);
        assert_eq!(fp.len(), 1);
        assert_eq!(pretty(&fp[0]), "unfoldR(funcPow[1](mrg))");

        let t2fp = parse("treeFold[2](<[], unfoldR(funcPow[1](mrg))>)(R)").unwrap();
        let t4 = IncBranching.apply(&t2fp, &mut cx);
        assert_eq!(t4.len(), 1);
        assert_eq!(
            pretty(&t4[0]),
            "treeFold[4](<[], unfoldR(funcPow[2](mrg))>)(R)"
        );
        // Arity and exponent stay in sync.
        let t8 = IncBranching.apply(&t4[0], &mut cx);
        assert_eq!(
            pretty(&t8[0]),
            "treeFold[8](<[], unfoldR(funcPow[3](mrg))>)(R)"
        );
        // Mismatched arity does not fire.
        let bad = parse("treeFold[8](<[], unfoldR(funcPow[1](mrg))>)(R)").unwrap();
        assert!(IncBranching.apply(&bad, &mut cx).is_empty());
    }

    #[test]
    fn fldl_to_trfld_requires_merge_like_step() {
        let h = presets::hdd_ram(1 << 25);
        let env = join_env();
        let inputs = hdd_inputs(&["R"]);
        let mut cx = ctx(&h, &env, &inputs);
        let not_assoc = parse("foldL(0, \\a. a.1 - a.2)(R)").unwrap();
        assert!(FldlToTrfld.apply(&not_assoc, &mut cx).is_empty());
    }

    #[test]
    fn seq_ac_respects_interference() {
        let h = presets::hdd_ram(1 << 25);
        let env = join_env();
        let inputs = hdd_inputs(&["R", "S"]);

        // Inner loop over S with body touching only bound vars: annotatable.
        let inner = parse("for (y <- S) [y]").unwrap();
        let mut cx = ctx(&h, &env, &inputs);
        let out = SeqAc.apply(&inner, &mut cx);
        assert_eq!(out.len(), 1);
        match &out[0] {
            Expr::For { seq: Some(sa), .. } => {
                assert_eq!(sa.from, "HDD");
                assert_eq!(sa.to, "RAM");
            }
            other => panic!("expected annotated for, got {other:?}"),
        }

        // Outer loop whose body reads another HDD input: no annotation.
        let outer = parse("for (x <- R) for (y <- S) [<x, y>]").unwrap();
        let mut cx = ctx(&h, &env, &inputs);
        assert!(SeqAc.apply(&outer, &mut cx).is_empty());

        // Output on the same device: no annotation.
        let mut cx = ctx(&h, &env, &inputs);
        cx.output = Some("HDD".to_string());
        assert!(SeqAc.apply(&inner, &mut cx).is_empty());
    }

    #[test]
    fn prefetch_wraps_streaming_consumers() {
        let h = presets::hdd_ram(1 << 25);
        let env: TypeEnv = [("L".to_string(), Type::list(Type::Int))]
            .into_iter()
            .collect();
        let inputs = hdd_inputs(&["L"]);
        let mut cx = ctx(&h, &env, &inputs);
        let agg = parse("avg(L)").unwrap();
        let out = Prefetch.apply(&agg, &mut cx);
        assert_eq!(out.len(), 1);
        let s = pretty(&out[0]);
        assert!(s.starts_with("avg(for (pB_1 [k0] <- L)"), "{s}");
        // Re-application is blocked.
        assert!(Prefetch.apply(&out[0], &mut cx).is_empty());
    }

    #[test]
    fn unfoldr_block_parameterizes() {
        let h = presets::hdd_ram(1 << 25);
        let env = join_env();
        let inputs = hdd_inputs(&["R"]);
        let mut cx = ctx(&h, &env, &inputs);
        let e = Expr::def(DefName::unfoldr());
        let out = UnfoldrBlock.apply(&e, &mut cx);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out[0],
            Expr::DefRef(DefName::UnfoldR {
                b_in: BlockSize::Param(_),
                ..
            })
        ));
        assert!(UnfoldrBlock.apply(&out[0], &mut cx).is_empty());
    }
}
