//! Transfer-event counting — the `C(Γ,e)`/`T(Γ,e)` rules of Figure 6.
//!
//! The engine walks an OCAL program and accumulates, per directed hierarchy
//! edge, two symbolic quantities: the number of **InitCom** events (seeks /
//! erases) and the number of bytes moved (**UnitTr**). Data transfers are
//! modelled implicitly (paper §5.2): whenever an iteration construct binds a
//! value that lives below the root, the engine charges the transfers needed
//! to bring it up, and whenever an intermediate result exceeds the root's
//! capacity it is *spilled* to a designated storage node and charged again
//! when consumed. The paper's §5.2 buffer model appears as the `b_in`/`b_out`
//! parameters and per-node capacity constraints that the engine emits for
//! the parameter optimizer.

use crate::annot::Annot;
use crate::memo::{Simp, SimplifyTable};
use crate::size::{
    apply_fn_size, block_sym, def_size_with_annots, match_ordered_pair, result_size, spine,
    zip_unfold_size, SizeCtx,
};
use crate::CostError;
use ocal::{BlockSize, DefName, Expr, SeqAnnot};
use ocas_hierarchy::{Hierarchy, NodeId};
use ocas_symbolic::{Compiled, Env, Expr as Sym, Normal, Slots};
use std::collections::{BTreeMap, BTreeSet};

/// Symbolic event totals for one directed edge.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeEvents {
    /// Number of InitCom events (seeks, erases).
    pub init: Sym,
    /// Number of bytes transferred (UnitTr units).
    pub bytes: Sym,
}

impl EdgeEvents {
    fn zero() -> EdgeEvents {
        EdgeEvents {
            init: Sym::zero(),
            bytes: Sym::zero(),
        }
    }
}

/// Symbolic event totals over all directed edges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Events {
    edges: BTreeMap<(NodeId, NodeId), EdgeEvents>,
}

impl Events {
    /// No events.
    pub fn zero() -> Events {
        Events::default()
    }

    /// The per-edge totals.
    pub fn edges(&self) -> &BTreeMap<(NodeId, NodeId), EdgeEvents> {
        &self.edges
    }

    /// Event totals for one directed edge (zero if absent).
    pub fn edge(&self, from: NodeId, to: NodeId) -> EdgeEvents {
        self.edges
            .get(&(from, to))
            .cloned()
            .unwrap_or_else(EdgeEvents::zero)
    }

    fn entry(&mut self, from: NodeId, to: NodeId) -> &mut EdgeEvents {
        self.edges
            .entry((from, to))
            .or_insert_with(EdgeEvents::zero)
    }

    fn add_init(&mut self, from: NodeId, to: NodeId, n: Sym) {
        let e = self.entry(from, to);
        e.init = e.init.clone() + n;
    }

    fn add_bytes(&mut self, from: NodeId, to: NodeId, n: Sym) {
        let e = self.entry(from, to);
        e.bytes = e.bytes.clone() + n;
    }

    fn merge(&mut self, other: Events) {
        for ((f, t), ev) in other.edges {
            let e = self.entry(f, t);
            e.init = e.init.clone() + ev.init;
            e.bytes = e.bytes.clone() + ev.bytes;
        }
    }

    fn scaled(&self, factor: &Sym) -> Events {
        Events {
            edges: self
                .edges
                .iter()
                .map(|(k, v)| {
                    (
                        *k,
                        EdgeEvents {
                            init: factor.clone() * v.init.clone(),
                            bytes: factor.clone() * v.bytes.clone(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Worst case of two alternatives (per-edge max) — the `if` rule.
    fn join(&self, other: &Events) -> Events {
        let mut keys: BTreeSet<(NodeId, NodeId)> = self.edges.keys().copied().collect();
        keys.extend(other.edges.keys().copied());
        let mut out = Events::zero();
        for k in keys {
            let a = self.edges.get(&k).cloned().unwrap_or_else(EdgeEvents::zero);
            let b = other
                .edges
                .get(&k)
                .cloned()
                .unwrap_or_else(EdgeEvents::zero);
            out.edges.insert(
                k,
                EdgeEvents {
                    init: a.init.max(b.init),
                    bytes: a.bytes.max(b.bytes),
                },
            );
        }
        out
    }

    /// Simplifies every embedded expression and converts the totals into
    /// seconds using the hierarchy's edge weights, `Σ init·InitCom +
    /// bytes·UnitTr` — each edge normalised once, the seconds formed as a
    /// linear combination of those normal forms rather than by simplifying
    /// the weighted sum of the simplified edges all over again.
    pub fn priced(&self, h: &Hierarchy) -> Result<(Events, Sym), CostError> {
        let mut edges = BTreeMap::new();
        let mut total = Normal::default();
        for ((from, to), ev) in &self.edges {
            let pair = h.edge(*from, *to).map_err(CostError::Hierarchy)?;
            let (init, bytes) = (Normal::of(&ev.init), Normal::of(&ev.bytes));
            total.add_scaled(pair.init_com, &init);
            total.add_scaled(pair.unit_tr, &bytes);
            edges.insert(
                (*from, *to),
                EdgeEvents {
                    init: init.expr(),
                    bytes: bytes.expr(),
                },
            );
        }
        Ok((Events { edges }, total.expr()))
    }
}

/// A constraint `lhs ≤ rhs` handed to the parameter optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Human-readable origin (e.g. `"RAM capacity"`).
    pub label: String,
    /// Left-hand side (symbolic, mentions parameters).
    pub lhs: Sym,
    /// Right-hand side.
    pub rhs: Sym,
}

/// Where a program's inputs live and where its output goes.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    /// Input name → hierarchy node name.
    pub inputs: BTreeMap<String, String>,
    /// Output node name; `None` means the output is consumed by the CPU.
    pub output: Option<String>,
}

impl Layout {
    /// All inputs on `node`, output discarded.
    pub fn all_inputs_on(node: &str, inputs: &[&str]) -> Layout {
        Layout {
            inputs: inputs
                .iter()
                .map(|i| (i.to_string(), node.to_string()))
                .collect(),
            output: None,
        }
    }

    /// Sets the output node, builder style.
    pub fn with_output(mut self, node: &str) -> Layout {
        self.output = Some(node.to_string());
        self
    }
}

/// The full cost analysis result for one program.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Result-size annotation of the whole program.
    pub result: Annot,
    /// Per-edge symbolic event totals (simplified).
    pub events: Events,
    /// Total estimated seconds as a function of the tunable parameters.
    pub seconds: Sym,
    /// Capacity and sequence-length constraints for the optimizer.
    pub constraints: Vec<Constraint>,
    /// Names of the tunable parameters appearing in `seconds`.
    pub params: BTreeSet<String>,
}

/// Name of the engine-introduced output-buffer parameter (bytes).
pub const B_OUT: &str = "b_out";
/// Name of the engine-introduced input-buffer parameter (bytes) used by
/// streaming definitions (`hashPartition`, `partition`).
pub const B_IN: &str = "b_in";

/// How many free parameters [`CostEngine`]'s placement evaluation binds to
/// its two trial values before it gives up and calls the size infinite.
const MAX_FREE_PARAMS: usize = 15;

/// The cost estimation engine: one per specification × hierarchy × layout,
/// i.e. one per synthesis — [`CostEngine::cost`] takes `&self`, and the
/// synthesizer's cost workers share one engine by reference. Between
/// programs it keeps only its table of normal forms: every `simplify` the
/// engine and its size rules make goes through it, so a formula the
/// candidates share is normalised once per synthesis. The table has no
/// bearing on any result, and it is dropped with the engine.
pub struct CostEngine<'h> {
    h: &'h Hierarchy,
    inputs: BTreeMap<String, (Annot, NodeId)>,
    output: Option<NodeId>,
    spill: Option<NodeId>,
    stats: Env,
    int_size: u64,
    normal_forms: SimplifyTable,
}

#[derive(Debug, Clone)]
struct Outcome {
    annot: Annot,
    loc: NodeId,
    ev: Events,
}

#[derive(Debug, Clone, Default)]
struct Ctx {
    gamma: BTreeMap<String, (Annot, NodeId)>,
    usage: BTreeMap<NodeId, Vec<Sym>>,
    seq_constraints: Vec<Constraint>,
    used_b_out: bool,
}

impl<'h> CostEngine<'h> {
    /// Builds an engine.
    ///
    /// * `annots` — annotated types of the named inputs (cards may be
    ///   symbolic, e.g. `x`);
    /// * `stats` — concrete values for those cardinality variables, used
    ///   only for *placement* decisions (does a value fit in the root?);
    /// * `int_size` — byte width of integers.
    pub fn new(
        h: &'h Hierarchy,
        layout: &Layout,
        annots: BTreeMap<String, Annot>,
        stats: Env,
        int_size: u64,
    ) -> Result<CostEngine<'h>, CostError> {
        let resolve = |name: &str| {
            h.by_name(name)
                .ok_or_else(|| CostError::UnknownNode(name.to_string()))
        };
        let mut inputs = BTreeMap::new();
        for (input, annot) in annots {
            let node = match layout.inputs.get(&input) {
                Some(n) => resolve(n)?,
                None => h.root(),
            };
            inputs.insert(input, (annot, node));
        }
        let output = layout.output.as_deref().map(resolve).transpose()?;
        // Intermediates that exceed the root's capacity spill to the
        // device holding the first input, else to the first storage node.
        let spill = inputs
            .values()
            .map(|(_, n)| *n)
            .find(|n| *n != h.root())
            .or_else(|| h.storage_nodes().first().copied());
        Ok(CostEngine {
            h,
            inputs,
            output,
            spill,
            stats,
            int_size,
            normal_forms: SimplifyTable::default(),
        })
    }

    /// Normalises through the engine's table.
    fn simp(&self) -> Simp<'_> {
        self.normal_forms.simp()
    }

    /// `simplify(e)`, through the engine's table.
    fn simplify(&self, e: &Sym) -> Sym {
        self.simp().simplify(e)
    }

    fn root(&self) -> NodeId {
        self.h.root()
    }

    /// Root capacity in bytes (placement budget).
    fn budget(&self) -> f64 {
        self.h.node(self.root()).size as f64
    }

    /// Numeric evaluation for placement decisions. Cardinality variables
    /// come from `stats`. Unknown *parameters* are still free at this point;
    /// the optimizer will choose them to satisfy the capacity constraints,
    /// so the placement question is "can any parameter choice make this
    /// fit?" — approximated by taking the minimum over a small and a large
    /// parameter assignment. A formula with more than [`MAX_FREE_PARAMS`]
    /// free parameters, or one that does not evaluate, counts as infinite
    /// (so the value spills).
    fn numeric(&self, s: &Sym) -> f64 {
        let mut slots = Slots::new();
        let formula = Compiled::new(&self.simplify(s), &mut slots);
        slots.bind_env(&self.stats);
        let free: Vec<usize> = (0..slots.len())
            .filter(|i| slots.get(*i).is_none())
            .collect();
        if free.len() > MAX_FREE_PARAMS {
            return f64::INFINITY;
        }
        let mut try_with = |default: f64| -> f64 {
            for slot in &free {
                slots.set(*slot, default);
            }
            formula.eval(&mut slots).unwrap_or(f64::INFINITY)
        };
        try_with(1.0).min(try_with(1e9))
    }

    /// Runs the analysis on a program.
    pub fn cost(&self, program: &Expr) -> Result<CostReport, CostError> {
        let w0 = ocas_obs::wall_now();
        let out = self.cost_inner(program);
        if ocas_obs::enabled() {
            // Fires only on threads that carry a recorder — a direct call
            // on the main thread; the synthesizer's pipelined cost workers
            // record their spans at its deterministic merge instead.
            ocas_obs::counter(ocas_obs::Clock::Wall, "cost", "estimates", w0, 1.0);
            ocas_obs::span(
                ocas_obs::Clock::Wall,
                "cost",
                "estimate",
                w0,
                ocas_obs::wall_now() - w0,
                &[],
            );
        }
        out
    }

    fn cost_inner(&self, program: &Expr) -> Result<CostReport, CostError> {
        let mut ctx = Ctx {
            gamma: self.inputs.clone(),
            ..Ctx::default()
        };
        let out = self.go(program, &mut ctx)?;
        let mut ev = out.ev;
        // Results that still sit below the root (lazy views over device
        // data) must reach the processing unit to be consumed: charge the
        // element-wise read the naive consumer would perform.
        if out.loc != self.root() {
            if let (Some(card), Some(elem)) = (out.annot.card(), out.annot.elem()) {
                self.charge_elementwise_read(&mut ev, out.loc, &card, &self.simplify(&elem.size()));
            } else {
                let size = self.simplify(&out.annot.size());
                self.charge_elementwise_read(&mut ev, out.loc, &Sym::one(), &size);
            }
        }
        // Top-level output write.
        if let Some(mo) = self.output {
            if out.loc != mo {
                let size = out.annot.size();
                self.charge_write_path(&mut ev, self.root(), mo, &size, &mut ctx);
            }
        }
        let (events, seconds) = ev.priced(self.h)?;
        // Assemble constraints.
        let mut constraints = ctx.seq_constraints.clone();
        if ctx.used_b_out {
            ctx.usage
                .entry(self.root())
                .or_default()
                .push(Sym::var(B_OUT));
        }
        for (node, terms) in &ctx.usage {
            let mut lhs = Sym::zero();
            for t in terms {
                lhs = lhs + t.clone();
            }
            let lhs = self.simplify(&lhs);
            if lhs.vars().is_empty() {
                continue; // Constant usage: nothing for the optimizer.
            }
            constraints.push(Constraint {
                label: format!("{} capacity", self.h.node(*node).name),
                lhs,
                rhs: Sym::int(self.h.node(*node).size as i128),
            });
        }
        let mut params: BTreeSet<String> = seconds.vars();
        for c in &constraints {
            params.extend(c.lhs.vars());
        }
        // Cardinality variables are not parameters.
        for v in self.stats.iter().map(|(k, _)| k.to_string()) {
            params.remove(&v);
        }
        Ok(CostReport {
            result: out.annot,
            events,
            seconds,
            constraints,
            params,
        })
    }

    fn size_ctx<'a>(&'a self, ctx: &'a Ctx) -> SizeCtx<'a> {
        SizeCtx::placed(&ctx.gamma, self.int_size, self.simp())
    }

    fn annot_of(&self, e: &Expr, ctx: &Ctx) -> Result<Annot, CostError> {
        result_size(e, &self.size_ctx(ctx))
    }

    /// Where a consumed value effectively lives; spills oversized
    /// root-resident intermediates to the spill node (charging the write).
    fn effective_source(
        &self,
        out: Outcome,
        ctx: &mut Ctx,
    ) -> Result<(NodeId, Annot, Events), CostError> {
        if out.loc != self.root() {
            return Ok((out.loc, out.annot, out.ev));
        }
        let size = out.annot.size();
        if self.numeric(&size) > self.budget() {
            let spill = self.spill.ok_or(CostError::NoSpillNode)?;
            let mut ev = out.ev;
            self.charge_write_path(&mut ev, self.root(), spill, &size, ctx);
            return Ok((spill, out.annot, ev));
        }
        Ok((self.root(), out.annot, out.ev))
    }

    /// Like [`Self::effective_source`], but for *streaming* consumers
    /// (`foldL`, `avg`, another `for`): a `for`-shaped source is pipelined —
    /// only one block is resident at a time — so it never spills regardless
    /// of its total size.
    fn effective_source_streaming(
        &self,
        src_expr: &Expr,
        out: Outcome,
        ctx: &mut Ctx,
    ) -> Result<(NodeId, Annot, Events), CostError> {
        let pipelined = matches!(
            strip_sized(src_expr),
            Expr::For { .. } | Expr::FlatMap { .. }
        );
        if pipelined && out.loc == self.root() {
            return Ok((self.root(), out.annot, out.ev));
        }
        self.effective_source(out, ctx)
    }

    /// Charges a buffered bulk write of `size` bytes along the tree path
    /// `from → to` (toward a leaf): `size` UnitTr plus InitCom events.
    ///
    /// When the destination device holds none of the program's inputs, reads
    /// never interleave with the writes, so the stream is fully sequential
    /// (paper §7.2: "If the memory hierarchy changes so that another hard
    /// disk HDD2 stores the output, reading and writing do not interfere,
    /// so both can be executed sequentially"): InitCom collapses to
    /// `max(1, size/maxSeqW)`. Otherwise every buffer flush is assumed to
    /// seek: `size / min(b_out, maxSeqW)`.
    fn charge_write_path(
        &self,
        ev: &mut Events,
        from: NodeId,
        to: NodeId,
        size: &Sym,
        ctx: &mut Ctx,
    ) {
        let dedicated = self.inputs.values().all(|(_, n)| *n != to);
        let mut path = self.h.path_to_root(to);
        path.reverse(); // root … to
        let start = path.iter().position(|n| *n == from).unwrap_or(0);
        for pair in path[start..].windows(2) {
            let (a, b) = (pair[0], pair[1]);
            ev.add_bytes(a, b, size.clone());
            if dedicated {
                let init = match self.h.node(b).max_seq_write {
                    Some(m) => Sym::one().max(size.clone() / Sym::int(m as i128)),
                    None => Sym::one(),
                };
                ev.add_init(a, b, init);
            } else {
                let mut denom = Sym::var(B_OUT);
                ctx.used_b_out = true;
                if let Some(m) = self.h.node(b).max_seq_write {
                    denom = denom.min(Sym::int(m as i128));
                }
                ev.add_init(a, b, size.clone() / denom);
            }
        }
    }

    /// Charges an element-at-a-time read of a list (`card` elements of
    /// `elem_bytes` each) along the path `from → root`.
    fn charge_elementwise_read(&self, ev: &mut Events, from: NodeId, card: &Sym, elem_bytes: &Sym) {
        let path = self.h.path_to_root(from);
        for pair in path.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let page = self.h.node(a).pagesize;
            ev.add_init(a, b, card.clone());
            let per_elem = if page > 1 {
                elem_bytes.clone().max(Sym::int(page as i128))
            } else {
                elem_bytes.clone()
            };
            ev.add_bytes(a, b, card.clone() * per_elem);
        }
    }

    fn go(&self, e: &Expr, ctx: &mut Ctx) -> Result<Outcome, CostError> {
        let root = self.root();
        match e {
            Expr::Var(v) => {
                let (annot, loc) = ctx
                    .gamma
                    .get(v)
                    .cloned()
                    .ok_or_else(|| CostError::UnboundVariable(v.clone()))?;
                Ok(Outcome {
                    annot,
                    loc,
                    ev: Events::zero(),
                })
            }
            Expr::Int(_)
            | Expr::Bool(_)
            | Expr::Str(_)
            | Expr::Empty
            | Expr::Lam { .. }
            | Expr::DefRef(_)
            | Expr::FlatMap { .. }
            | Expr::FoldL { .. } => Ok(Outcome {
                annot: self.annot_of(e, ctx)?,
                loc: root,
                ev: Events::zero(),
            }),
            Expr::Tuple(items) => {
                let mut ev = Events::zero();
                let mut annots = Vec::with_capacity(items.len());
                let mut locs = Vec::with_capacity(items.len());
                for i in items {
                    let o = self.go(i, ctx)?;
                    ev.merge(o.ev);
                    annots.push(o.annot);
                    locs.push(o.loc);
                }
                let loc = common_loc(&locs, root);
                Ok(Outcome {
                    annot: Annot::Tuple(annots),
                    loc,
                    ev,
                })
            }
            Expr::Proj { tuple, index } => {
                let o = self.go(tuple, ctx)?;
                let annot = o.annot.proj(*index).ok_or(CostError::BadShape {
                    context: "projection",
                })?;
                Ok(Outcome {
                    annot,
                    loc: o.loc,
                    ev: o.ev,
                })
            }
            Expr::Singleton(inner) => {
                let o = self.go(inner, ctx)?;
                Ok(Outcome {
                    annot: Annot::list(o.annot, Sym::one()),
                    loc: root,
                    ev: o.ev,
                })
            }
            Expr::Union { left, right } => {
                let l = self.go(left, ctx)?;
                let r = self.go(right, ctx)?;
                let mut ev = l.ev;
                ev.merge(r.ev);
                Ok(Outcome {
                    annot: l.annot.add(&r.annot, self.simp()),
                    loc: root,
                    ev,
                })
            }
            Expr::Prim { args, .. } => {
                let mut ev = Events::zero();
                for a in args {
                    let o = self.go(a, ctx)?;
                    ev.merge(o.ev);
                }
                Ok(Outcome {
                    annot: self.annot_of(e, ctx)?,
                    loc: root,
                    ev,
                })
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if let Some((a, b)) = match_ordered_pair(e) {
                    // order-inputs selector: a pure, zero-cost permutation.
                    let oa = self.go(a, ctx)?;
                    let ob = self.go(b, ctx)?;
                    let annot = self.annot_of(e, ctx)?;
                    let loc = common_loc(&[oa.loc, ob.loc], root);
                    let mut ev = oa.ev;
                    ev.merge(ob.ev);
                    return Ok(Outcome { annot, loc, ev });
                }
                let c = self.go(cond, ctx)?;
                let t = self.go(then_branch, ctx)?;
                let f = self.go(else_branch, ctx)?;
                let mut ev = c.ev;
                ev.merge(t.ev.join(&f.ev));
                Ok(Outcome {
                    annot: t.annot.join(&f.annot, self.simp()),
                    loc: root,
                    ev,
                })
            }
            Expr::Sized { expr, .. } => {
                let o = self.go(expr, ctx)?;
                Ok(Outcome {
                    annot: self.annot_of(e, ctx)?,
                    loc: o.loc,
                    ev: o.ev,
                })
            }
            Expr::For { .. } => self.cost_for(e, ctx),
            Expr::App { .. } => self.cost_app(e, ctx),
        }
    }

    fn cost_for(&self, e: &Expr, ctx: &mut Ctx) -> Result<Outcome, CostError> {
        let Expr::For {
            var,
            block,
            source,
            body,
            seq,
            ..
        } = e
        else {
            unreachable!()
        };
        let root = self.root();
        let src = self.go(source, ctx)?;
        let (ms, src_annot, mut ev) = self.effective_source_streaming(source, src, ctx)?;
        let card = src_annot.card().ok_or(CostError::BadShape {
            context: "for source",
        })?;
        let elem = src_annot.elem().cloned().unwrap_or(Annot::Zero);
        let elem_bytes = self.simplify(&elem.size());
        let k = block_sym(block);
        let blocks = self.simplify(&(card.clone() / k.clone()));

        // A block can never exceed its source's cardinality; without this
        // bound the optimizer could drive iteration counts below one.
        if !block.is_one() {
            ctx.seq_constraints.push(Constraint {
                label: "block within source".to_string(),
                lhs: k.clone(),
                rhs: card.clone(),
            });
        }
        let (bound_loc, md) = if ms == root {
            (root, root)
        } else {
            let md = self.h.parent(ms).unwrap_or(root);
            // Input transfer over the ms → md edge.
            let total = self.simplify(&(card.clone() * elem_bytes.clone()));
            let is_seq = matches!(seq, Some(sa) if self.seq_matches(sa, ms, md));
            let init = if is_seq {
                self.seq_init_count(ms, md, &total)
            } else {
                blocks.clone()
            };
            ev.add_init(ms, md, init);
            let page = self.h.node(ms).pagesize;
            // A sequential scan streams whole pages contiguously, so it
            // never pays the page-granularity penalty of random element
            // reads.
            let bytes = if page > 1 && !is_seq {
                total.clone().max(blocks.clone() * Sym::int(page as i128))
            } else {
                total.clone()
            };
            ev.add_bytes(ms, md, bytes);
            // The bound element/block must fit at md while processed.
            if block.is_one() && !elem_bytes.vars().is_empty() {
                ctx.usage.entry(md).or_default().push(elem_bytes.clone());
            }
            // Block buffer occupies space at md.
            if !block.is_one() {
                ctx.usage
                    .entry(md)
                    .or_default()
                    .push(self.simplify(&(k.clone() * elem_bytes.clone())));
                if let Some(msr) = self.h.node(ms).max_seq_read {
                    ctx.seq_constraints.push(Constraint {
                        label: format!("maxSeqR of {}", self.h.node(ms).name),
                        lhs: self.simplify(&(k.clone() * elem_bytes.clone())),
                        rhs: Sym::int(msr as i128),
                    });
                }
            }
            (md, md)
        };

        let bound_annot = if block.is_one() {
            elem.clone()
        } else {
            Annot::list(elem.clone(), k.clone())
        };
        let shadowed = ctx.gamma.insert(var.clone(), (bound_annot, bound_loc));
        let body_out = self.go(body, ctx);
        restore(&mut ctx.gamma, var, shadowed);
        let body_out = body_out?;

        let mut per_iter = body_out.ev;
        // If the bound value still sits below the root and the body consumes
        // it directly (no nested for over it), charge the remaining hops
        // element-wise — the naive access pattern.
        if md != root && !contains_for_over(body, var) {
            self.charge_elementwise_read(&mut per_iter, md, &k, &elem_bytes);
        }
        ev.merge(per_iter.scaled(&blocks));

        let annot = body_out.annot.scale(&blocks, self.simp());
        Ok(Outcome {
            annot: annot.simplified(self.simp()),
            loc: root,
            ev,
        })
    }

    fn seq_matches(&self, sa: &SeqAnnot, ms: NodeId, md: NodeId) -> bool {
        self.h.node(ms).name == sa.from && self.h.node(md).name == sa.to
    }

    /// The *seq-ac* InitCom count: `max(1, total / min(maxSeqR, maxSeqW))`.
    fn seq_init_count(&self, ms: NodeId, md: NodeId, total: &Sym) -> Sym {
        let mut cap: Option<u64> = None;
        if let Some(r) = self.h.node(ms).max_seq_read {
            cap = Some(cap.map_or(r, |c| c.min(r)));
        }
        if let Some(w) = self.h.node(md).max_seq_write {
            cap = Some(cap.map_or(w, |c| c.min(w)));
        }
        match cap {
            None => Sym::one(),
            Some(c) => Sym::one().max(total.clone() / Sym::int(c as i128)),
        }
    }

    fn cost_app(&self, e: &Expr, ctx: &mut Ctx) -> Result<Outcome, CostError> {
        let (head, args) = spine(e);
        match head {
            Expr::Lam { .. } => self.cost_app_lam(head, &args, ctx),
            Expr::FlatMap { func } => {
                let [src] = args.as_slice() else {
                    return Err(CostError::Unsupported("flatMap arity"));
                };
                self.cost_flatmap(func, src, ctx)
            }
            Expr::FoldL { init, func } => {
                let [src] = args.as_slice() else {
                    return Err(CostError::Unsupported("foldL arity"));
                };
                self.cost_fold(init, func, src, ctx)
            }
            Expr::DefRef(def) => self.cost_def(def, &args, ctx),
            Expr::Sized { expr, .. } => {
                // Re-associate: ((@sized f) a b) costs like (f a b) with the
                // size override applied to the head only.
                let mut rebuilt = (**expr).clone();
                for a in args {
                    rebuilt = rebuilt.app(a.clone());
                }
                self.go(&rebuilt, ctx)
            }
            _ => Err(CostError::Unsupported("application head")),
        }
    }

    fn cost_app_lam(
        &self,
        lam: &Expr,
        args: &[&Expr],
        ctx: &mut Ctx,
    ) -> Result<Outcome, CostError> {
        // Bind arguments one at a time (lazy: no transfer at binding —
        // consumption charges them; see DESIGN.md on lazy App vs Figure 6).
        let mut current = lam;
        let mut ev = Events::zero();
        let mut bindings: Vec<(String, Option<(Annot, NodeId)>)> = Vec::new();
        let mut result = None;
        for (i, arg) in args.iter().enumerate() {
            let a = self.go(arg, ctx)?;
            ev.merge(a.ev.clone());
            match current {
                Expr::Lam { param, body } => {
                    let shadowed = ctx.gamma.insert(param.clone(), (a.annot, a.loc));
                    bindings.push((param.clone(), shadowed));
                    current = body;
                    if i + 1 == args.len() {
                        result = Some(self.go(current, ctx));
                    }
                }
                _ => {
                    result = Some(Err(CostError::Unsupported("over-applied lambda")));
                    break;
                }
            }
        }
        for (param, shadowed) in bindings.into_iter().rev() {
            restore(&mut ctx.gamma, &param, shadowed);
        }
        let out = result.ok_or(CostError::Unsupported("unapplied lambda"))??;
        ev.merge(out.ev);
        Ok(Outcome {
            annot: out.annot,
            loc: out.loc,
            ev,
        })
    }

    fn cost_flatmap(&self, f: &Expr, src: &Expr, ctx: &mut Ctx) -> Result<Outcome, CostError> {
        let root = self.root();
        let s = self.go(src, ctx)?;
        let (ms, annot, mut ev) = self.effective_source_streaming(src, s, ctx)?;
        let card = annot.card().ok_or(CostError::BadShape {
            context: "flatMap source",
        })?;
        let elem = annot.elem().cloned().unwrap_or(Annot::Zero);
        let elem_bytes = self.simplify(&elem.size());
        if ms != root {
            self.charge_elementwise_read(&mut ev, ms, &card, &elem_bytes);
            // Each element must fit in the root while processed (this is
            // what bounds the partition count of a hash join from below).
            if !elem_bytes.vars().is_empty() {
                ctx.usage.entry(root).or_default().push(elem_bytes.clone());
            }
        }
        let body = self.cost_apply_fn(f, elem, root, ctx)?;
        ev.merge(body.ev.scaled(&card));
        Ok(Outcome {
            annot: body.annot.scale(&card, self.simp()).simplified(self.simp()),
            loc: root,
            ev,
        })
    }

    /// `foldL` events (Figure 6's third rule): element-at-a-time source
    /// consumption plus, when the accumulator outgrows the root, the
    /// linearly-growing per-iteration round trip whose closed form is the
    /// paper's `x·InitCom + x(x+1)/2·(…)` insertion-sort formula.
    fn cost_fold(
        &self,
        init: &Expr,
        func: &Expr,
        src: &Expr,
        ctx: &mut Ctx,
    ) -> Result<Outcome, CostError> {
        let root = self.root();
        let s = self.go(src, ctx)?;
        let (ms, src_annot, mut ev) = self.effective_source_streaming(src, s, ctx)?;
        let card = src_annot.card().ok_or(CostError::BadShape {
            context: "foldL source",
        })?;
        let elem = src_annot.elem().cloned().unwrap_or(Annot::Zero);
        let elem_bytes = self.simplify(&elem.size());

        let init_out = self.go(init, ctx)?;
        ev.merge(init_out.ev);
        let c_annot = init_out.annot;

        // Element-wise source reads.
        if ms != root {
            self.charge_elementwise_read(&mut ev, ms, &card, &elem_bytes);
        }

        // One fold step for size growth.
        let mut sctx = self.size_ctx(ctx);
        let step_arg = Annot::Tuple(vec![c_annot.clone(), elem.clone()]);
        let one_step = apply_fn_size(func, step_arg.clone(), &mut sctx)?;
        let c_size = self.simplify(&c_annot.size());
        let delta = self.simplify(&(one_step.size() - c_size.clone()));

        // Final accumulator size via the linear-growth model, on byte
        // sizes: R(c) + card·(R(step) − R(c)).
        let final_annot = self.simplify(&(c_size.clone() + card.clone() * delta.clone()));

        if self.numeric(&final_annot) > self.budget() {
            // Accumulator spills: per-iteration round trip of the growing
            // prefix (paper §7.2's naive insertion-sort derivation).
            let spill = self.spill.ok_or(CostError::NoSpillNode)?;
            let j = Sym::var("j");
            let acc_j = c_size.clone() + (j.clone() + Sym::one()) * delta.clone();
            let sum = Sym::sum("j", Sym::zero(), card.clone() - Sym::one(), acc_j);
            ev.add_bytes(root, spill, sum.clone());
            ev.add_bytes(spill, root, sum.clone());
            // Element-wise writes (one InitCom per written element).
            ev.add_init(root, spill, sum);
        }

        // Step-function events (bound at the root), once per element.
        let step_out = self.cost_apply_fn(func, step_arg, root, ctx)?;
        ev.merge(step_out.ev.scaled(&card));

        // Result annotation from the size rules.
        let annot = {
            let whole = Expr::fold_l(init.clone(), func.clone()).app(src.clone());
            self.annot_of(&whole, ctx)?
        };
        Ok(Outcome {
            annot,
            loc: root,
            ev,
        })
    }

    /// Costs a function expression applied to an argument annotation.
    fn cost_apply_fn(
        &self,
        f: &Expr,
        arg: Annot,
        arg_loc: NodeId,
        ctx: &mut Ctx,
    ) -> Result<Outcome, CostError> {
        match f {
            Expr::Lam { param, body } => {
                let shadowed = ctx.gamma.insert(param.clone(), (arg, arg_loc));
                let r = self.go(body, ctx);
                restore(&mut ctx.gamma, param, shadowed);
                r
            }
            // Definitions and partial applications are pure at the root;
            // their I/O (if any) is charged by the dedicated plugins when
            // they appear applied to device-resident data.
            _ => {
                let mut sctx = self.size_ctx(ctx);
                let annot = apply_fn_size(f, arg, &mut sctx)?;
                Ok(Outcome {
                    annot,
                    loc: self.root(),
                    ev: Events::zero(),
                })
            }
        }
    }

    fn cost_def(&self, def: &DefName, args: &[&Expr], ctx: &mut Ctx) -> Result<Outcome, CostError> {
        let root = self.root();
        if args.len() < def.arity() {
            // Partial application: a pure function value; argument events
            // still count (e.g. a treeFold seed expression).
            let mut ev = Events::zero();
            for a in args {
                let o = self.go(a, ctx)?;
                ev.merge(o.ev);
            }
            return Ok(Outcome {
                annot: Annot::atom(0),
                loc: root,
                ev,
            });
        }
        match def {
            DefName::Length => {
                // O(1) plugin: cardinality metadata, no transfers.
                let o = self.go(args[0], ctx)?;
                Ok(Outcome {
                    annot: Annot::atom(self.int_size),
                    loc: root,
                    ev: o.ev,
                })
            }
            DefName::Head => {
                let o = self.go(args[0], ctx)?;
                let elem = o
                    .annot
                    .elem()
                    .cloned()
                    .ok_or(CostError::BadShape { context: "head" })?;
                let mut ev = o.ev;
                if o.loc != root {
                    self.charge_elementwise_read(&mut ev, o.loc, &Sym::one(), &elem.size());
                }
                Ok(Outcome {
                    annot: elem,
                    loc: root,
                    ev,
                })
            }
            DefName::Tail => {
                // A view: stays where the list is.
                let o = self.go(args[0], ctx)?;
                let card = o
                    .annot
                    .card()
                    .ok_or(CostError::BadShape { context: "tail" })?;
                let elem = o
                    .annot
                    .elem()
                    .cloned()
                    .ok_or(CostError::BadShape { context: "tail" })?;
                Ok(Outcome {
                    annot: Annot::list(elem, self.simplify(&(card - Sym::one()))),
                    loc: o.loc,
                    ev: o.ev,
                })
            }
            DefName::Avg => {
                // Naive streaming aggregate: element-at-a-time scan.
                let o = self.go(args[0], ctx)?;
                let card = o
                    .annot
                    .card()
                    .ok_or(CostError::BadShape { context: "avg" })?;
                let elem_bytes = o
                    .annot
                    .elem()
                    .map(|e| self.simplify(&e.size()))
                    .unwrap_or_else(Sym::zero);
                let mut ev = o.ev;
                if o.loc != root {
                    self.charge_elementwise_read(&mut ev, o.loc, &card, &elem_bytes);
                }
                Ok(Outcome {
                    annot: Annot::atom(self.int_size),
                    loc: root,
                    ev,
                })
            }
            DefName::Mrg | DefName::Zip(_) | DefName::FuncPow(_) => {
                // Pure step functions.
                let mut ev = Events::zero();
                let mut annots = Vec::new();
                for a in args {
                    let o = self.go(a, ctx)?;
                    ev.merge(o.ev);
                    annots.push(o.annot);
                }
                let mut sctx = self.size_ctx(ctx);
                let annot = def_size_with_annots(def, &annots, &mut sctx)?;
                Ok(Outcome {
                    annot,
                    loc: root,
                    ev,
                })
            }
            DefName::Partition | DefName::HashPartition(_) => {
                self.cost_partition(def, args[0], ctx)
            }
            DefName::UnfoldR { b_in, b_out } => {
                if args.len() != 2 {
                    return Err(CostError::Unsupported("partially applied unfoldR"));
                }
                self.cost_unfoldr(args[0], args[1], b_in, b_out, ctx)
            }
            DefName::TreeFold(m) => {
                if args.len() != 2 {
                    return Err(CostError::Unsupported("partially applied treeFold"));
                }
                self.cost_treefold(m, args[0], args[1], ctx)
            }
        }
    }

    /// `partition`/`hashPartition`: one streaming pass over the input
    /// (blocked by `b_in`), buckets written back out when they exceed the
    /// root budget; the result then lives on the spill node.
    fn cost_partition(
        &self,
        def: &DefName,
        src: &Expr,
        ctx: &mut Ctx,
    ) -> Result<Outcome, CostError> {
        let root = self.root();
        let s = self.go(src, ctx)?;
        let (ms, src_annot, mut ev) = self.effective_source(s, ctx)?;
        let card = src_annot.card().ok_or(CostError::BadShape {
            context: "partition",
        })?;
        let elem_bytes = src_annot
            .elem()
            .map(|e| self.simplify(&e.size()))
            .unwrap_or_else(Sym::zero);
        let total = self.simplify(&(card.clone() * elem_bytes.clone()));
        if ms != root {
            let md = self.h.parent(ms).unwrap_or(root);
            // Streaming blocked read: b_in is a byte-sized buffer.
            ev.add_init(ms, md, total.clone() / Sym::var(B_IN));
            ev.add_bytes(ms, md, total.clone());
            ctx.usage.entry(root).or_default().push(Sym::var(B_IN));
        }
        let mut sctx = self.size_ctx(ctx);
        let annot = def_size_with_annots(def, &[src_annot], &mut sctx)?;
        // Bucket write-back when the whole partitioned output cannot stay
        // resident.
        let out_size = self.simplify(&annot.size());
        let loc = if self.numeric(&out_size) > self.budget() {
            let spill = self.spill.ok_or(CostError::NoSpillNode)?;
            match def {
                DefName::HashPartition(s) => {
                    // `s`-way spill under a shared `b_in`-byte staging
                    // buffer: each bucket owns `b_in / s` bytes, and every
                    // bucket-buffer flush lands on its own spill region —
                    // a seek per flush (`size·s / b_in` of them), with each
                    // flush rounded up to the spill device's page. This is
                    // exactly the request pattern the engine's partition
                    // pass issues; charging it here is what keeps GRACE
                    // estimates honest (act/opt ≈ 1) instead of the
                    // b_out-streaming assumption that undercharged seeks
                    // ~75x and let the optimizer pick absurd `s`.
                    let s_sym = block_sym(s);
                    let flushes = self.simplify(
                        &(out_size.clone() * s_sym.clone() / Sym::var(B_IN)).max(Sym::one()),
                    );
                    ctx.usage.entry(root).or_default().push(Sym::var(B_IN));
                    let mut path = self.h.path_to_root(spill);
                    path.reverse(); // root … spill
                    let start = path.iter().position(|n| *n == root).unwrap_or(0);
                    for pair in path[start..].windows(2) {
                        let (a, b) = (pair[0], pair[1]);
                        let page = self.h.node(b).pagesize;
                        let rounded = out_size
                            .clone()
                            .max(flushes.clone() * Sym::int(page as i128));
                        ev.add_bytes(a, b, rounded);
                        ev.add_init(a, b, flushes.clone());
                    }
                }
                _ => self.charge_write_path(&mut ev, root, spill, &out_size, ctx),
            }
            spill
        } else {
            root
        };
        Ok(Outcome { annot, loc, ev })
    }

    fn cost_unfoldr(
        &self,
        f: &Expr,
        seed: &Expr,
        b_in: &BlockSize,
        _b_out: &BlockSize,
        ctx: &mut Ctx,
    ) -> Result<Outcome, CostError> {
        let root = self.root();
        // Cost components individually when the seed is a literal tuple so
        // each list keeps its own location.
        let components: Vec<Outcome> = match seed {
            Expr::Tuple(items) => items
                .iter()
                .map(|i| self.go(i, ctx))
                .collect::<Result<_, _>>()?,
            other => {
                let o = self.go(other, ctx)?;
                let Annot::Tuple(items) = o.annot.clone() else {
                    return Err(CostError::BadShape { context: "unfoldR" });
                };
                items
                    .into_iter()
                    .map(|annot| Outcome {
                        annot,
                        loc: o.loc,
                        ev: Events::zero(),
                    })
                    .chain(std::iter::once(Outcome {
                        annot: Annot::Zero,
                        loc: root,
                        ev: o.ev.clone(),
                    }))
                    .collect()
            }
        };

        let is_zip = matches!(f, Expr::DefRef(DefName::Zip(_)));
        let mut ev = Events::zero();
        let b_in_sym = block_sym(b_in);

        // Resolve per-component effective sources first.
        let mut resolved: Vec<(NodeId, Annot)> = Vec::new();
        for comp in components {
            if matches!(comp.annot, Annot::Zero) && comp.loc == root {
                ev.merge(comp.ev);
                continue;
            }
            let (ms, annot, comp_ev) = self.effective_source(comp, ctx)?;
            ev.merge(comp_ev);
            resolved.push((ms, annot));
        }

        // An *unblocked* `unfoldR(zip)` over co-located device lists is a
        // *view*: zipping reorders nothing and transfers nothing by itself;
        // the consumer (flatMap/for) charges the reads. This prevents
        // double-spilling the partitions of a GRACE hash join. A *blocked*
        // zip (apply-block applied) materializes rows through its buffers
        // and is charged below.
        if is_zip && b_in.is_one() {
            let locs: Vec<NodeId> = resolved.iter().map(|(m, _)| *m).collect();
            let seed_annot = Annot::Tuple(resolved.iter().map(|(_, a)| a.clone()).collect());
            let annot = zip_unfold_size(&seed_annot, self.simp())?;
            let loc = common_loc(&locs, root);
            if loc != root {
                return Ok(Outcome { annot, loc, ev });
            }
            // Mixed / in-root locations: charge device components below.
        }

        let mut annots: Vec<Annot> = Vec::new();
        for (ms, annot) in &resolved {
            if let Some(card) = annot.card() {
                let elem_bytes = annot
                    .elem()
                    .map(|e| self.simplify(&e.size()))
                    .unwrap_or_else(Sym::zero);
                if *ms != root {
                    let md = self.h.parent(*ms).unwrap_or(root);
                    let total = self.simplify(&(card.clone() * elem_bytes.clone()));
                    ev.add_init(*ms, md, self.simplify(&(card.clone() / b_in_sym.clone())));
                    let page = self.h.node(*ms).pagesize;
                    let bytes = if page > 1 && b_in.is_one() {
                        card.clone() * Sym::int(page as i128).max(elem_bytes.clone())
                    } else {
                        total
                    };
                    ev.add_bytes(*ms, md, bytes);
                    if !b_in.is_one() {
                        ctx.usage
                            .entry(md)
                            .or_default()
                            .push(self.simplify(&(b_in_sym.clone() * elem_bytes.clone())));
                    }
                }
            }
            annots.push(annot.clone());
        }

        let seed_annot = Annot::Tuple(annots);
        let mut sctx = self.size_ctx(ctx);
        let annot = if is_zip {
            zip_unfold_size(&seed_annot, self.simp())?
        } else {
            def_size_with_annots(
                &DefName::UnfoldR {
                    b_in: b_in.clone(),
                    b_out: _b_out.clone(),
                },
                &[Annot::atom(0), seed_annot],
                &mut sctx,
            )?
        };
        Ok(Outcome {
            annot,
            loc: root,
            ev,
        })
    }

    /// `treeFold[m](⟨c, step⟩)(seed)` — the external-sort cost plugin.
    ///
    /// When the seed lives below the root, each of the
    /// `⌈log₂(runs)/log₂(m)⌉` merge levels streams all bytes down and back
    /// up, seeking once per `b_in` elements on reads and once per
    /// `min(b_out·elem, maxSeqW)` bytes on writes (paper §7.2's 2ᵏ-way
    /// External Merge-Sort formula). The root must hold `m` input buffers
    /// plus one output buffer.
    fn cost_treefold(
        &self,
        m: &BlockSize,
        cf: &Expr,
        seed: &Expr,
        ctx: &mut Ctx,
    ) -> Result<Outcome, CostError> {
        let root = self.root();
        let BlockSize::Const(m_val) = m else {
            return Err(CostError::Unsupported("symbolic treeFold arity"));
        };
        let m_val = *m_val;
        let cf_out = self.go(cf, ctx)?;
        let seed_out = self.go(seed, ctx)?;
        let mut ev = cf_out.ev;
        let (ms, seed_annot, seed_ev) = self.effective_source(seed_out, ctx)?;
        ev.merge(seed_ev);

        let mut sctx = self.size_ctx(ctx);
        let annot = def_size_with_annots(
            &DefName::TreeFold(m.clone()),
            &[cf_out.annot, seed_annot.clone()],
            &mut sctx,
        )?;

        if ms == root {
            return Ok(Outcome {
                annot,
                loc: root,
                ev,
            });
        }
        let md = self.h.parent(ms).unwrap_or(root);
        let runs = seed_annot.card().ok_or(CostError::BadShape {
            context: "treeFold seed",
        })?;
        let total_bytes = self.simplify(&seed_annot.size());
        let elems = match seed_annot.elem() {
            Some(Annot::List { card: inner, .. }) => self.simplify(&(runs.clone() * inner.clone())),
            _ => runs.clone(),
        };
        let elem_bytes = match seed_annot.elem() {
            Some(Annot::List { elem, .. }) => self.simplify(&elem.size()),
            Some(other) => self.simplify(&other.size()),
            None => Sym::one(),
        };

        // Blocking parameters from the embedded (possibly blocked) unfoldR.
        let (b_in, b_out) = find_unfoldr_blocks(cf).unwrap_or((BlockSize::one(), BlockSize::one()));
        let b_in_sym = block_sym(&b_in);
        let b_out_sym = block_sym(&b_out);

        // Merge levels.
        if m_val < 2 || !m_val.is_power_of_two() {
            return Err(CostError::Unsupported("treeFold arity must be 2^k"));
        }
        let k_log = Sym::int(m_val.trailing_zeros() as i128);
        let levels = self.simplify(&(runs.clone().log2() / k_log).ceil().max(Sym::one()));

        // Per level: read everything, write everything.
        let read_init = self.simplify(&(elems.clone() / b_in_sym.clone()));
        let mut write_block = b_out_sym.clone() * elem_bytes.clone();
        if let Some(w) = self.h.node(ms).max_seq_write {
            write_block = write_block.min(Sym::int(w as i128));
        }
        let write_init = self.simplify(&(total_bytes.clone() / write_block));
        let page = self.h.node(ms).pagesize;
        let read_bytes = if page > 1 && b_in.is_one() {
            self.simplify(&(elems.clone() * Sym::int(page as i128).max(elem_bytes.clone())))
        } else {
            total_bytes.clone()
        };
        let mut level_ev = Events::zero();
        level_ev.add_init(ms, md, read_init);
        level_ev.add_bytes(ms, md, read_bytes);
        level_ev.add_init(md, ms, write_init);
        level_ev.add_bytes(md, ms, total_bytes.clone());
        ev.merge(level_ev.scaled(&levels));

        // Buffer constraint: m input blocks + 1 output block at the root.
        if b_in.param_name().is_some() || b_out.param_name().is_some() {
            ctx.usage.entry(md).or_default().push(self.simplify(
                &(Sym::int(m_val as i128) * b_in_sym * elem_bytes.clone() + b_out_sym * elem_bytes),
            ));
        }
        Ok(Outcome {
            annot,
            loc: root,
            ev,
        })
    }
}

fn strip_sized(e: &Expr) -> &Expr {
    match e {
        Expr::Sized { expr, .. } => strip_sized(expr),
        other => other,
    }
}

fn restore(
    gamma: &mut BTreeMap<String, (Annot, NodeId)>,
    name: &str,
    old: Option<(Annot, NodeId)>,
) {
    match old {
        Some(v) => {
            gamma.insert(name.to_string(), v);
        }
        None => {
            gamma.remove(name);
        }
    }
}

fn common_loc(locs: &[NodeId], root: NodeId) -> NodeId {
    let mut iter = locs.iter().copied();
    let first = iter.next().unwrap_or(root);
    if iter.all(|l| l == first) {
        first
    } else {
        root
    }
}

/// True if `body` contains a `for` iterating directly over `var`.
fn contains_for_over(body: &Expr, var: &str) -> bool {
    if let Expr::For { source, .. } = body {
        if let Expr::Var(v) = &**source {
            if v == var {
                return true;
            }
        }
    }
    body.children().iter().any(|c| contains_for_over(c, var))
}

/// Finds the blocking of the first `unfoldR` inside an expression (used by
/// the treeFold plugin to locate the step's buffers).
fn find_unfoldr_blocks(e: &Expr) -> Option<(BlockSize, BlockSize)> {
    if let Expr::DefRef(DefName::UnfoldR { b_in, b_out }) = e {
        return Some((b_in.clone(), b_out.clone()));
    }
    e.children().iter().find_map(|c| find_unfoldr_blocks(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocas_hierarchy::presets;

    fn engine(h: &Hierarchy) -> CostEngine<'_> {
        let stats = Env::new().with("x", 1000.0);
        CostEngine::new(h, &Layout::default(), BTreeMap::new(), stats, 8).unwrap()
    }

    #[test]
    fn placement_takes_the_smaller_of_a_small_and_a_large_assignment() {
        let h = presets::hdd_ram(1 << 20);
        let e = engine(&h);
        let (x, k) = (Sym::var("x"), Sym::var("k"));
        // Free parameters are tried at 1 and at 1e9; cardinalities are fixed.
        assert_eq!(e.numeric(&(x.clone() * k.clone())), 1000.0);
        assert_eq!(
            e.numeric(&(x.clone() / k.clone())),
            1000.0 * 1e9f64.powi(-1)
        );
        assert_eq!(e.numeric(&x), 1000.0);
        // What does not evaluate does not fit — at either trial value, or
        // at one of them (log2(k - 1) is not finite at k = 1).
        assert_eq!(e.numeric(&(x - Sym::int(1000)).recip()), f64::INFINITY);
        assert_eq!(e.numeric(&(k - Sym::int(1)).log2()), (1e9f64 - 1.0).log2());
    }

    #[test]
    fn a_size_with_too_many_free_parameters_does_not_fit() {
        let h = presets::hdd_ram(1 << 20);
        let e = engine(&h);
        let sum_of = |n: usize| Sym::Add((0..n).map(|i| Sym::var(format!("p{i}"))).collect());
        assert_eq!(e.numeric(&sum_of(MAX_FREE_PARAMS)), MAX_FREE_PARAMS as f64);
        assert_eq!(e.numeric(&sum_of(MAX_FREE_PARAMS + 1)), f64::INFINITY);
    }
}
