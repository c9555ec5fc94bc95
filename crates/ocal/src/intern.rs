//! A hash-consed term arena that computes the synthesizer's dedup key.
//!
//! The synthesizer's search generates (and re-generates) hundreds of
//! thousands of candidate programs, most of which differ from an already
//! seen program only in generated names. Representing candidates as owned
//! [`Expr`] trees makes deduplication the dominant search cost: every
//! candidate pays an α-canonicalizing clone, a parameter-renaming clone and
//! an `O(size)` tree hash per set operation.
//!
//! This module fixes that with a classic hash-consing arena. Each id names
//! one shallow constructor node whose children are ids and whose variable
//! and parameter names are interned, so node equality and hashing are word
//! compares with no string traffic. Structure is shared: interning a
//! candidate that reuses subterms of an existing program allocates only the
//! nodes along the changed spine. The nodes are private; the API is:
//!
//! * [`ExprId`] — a dense 32-bit handle. Two interned terms are
//!   structurally equal **iff their ids are equal**, so equality and
//!   hashing are O(1) and a dedup set is `HashSet<ExprId>`.
//! * [`Interner::canonical`] — the search's dedup key
//!   (α-canonicalization plus block-size-parameter renaming in
//!   first-occurrence order, exactly `ocas-rewrite`'s legacy `dedup_key`)
//!   computed and interned in **one pass** without building intermediate
//!   `Expr` trees — and [`Interner::canonical_at`], the same key for
//!   "parent tree with a rewrite spliced in at a path", so duplicate
//!   search candidates are rejected without ever being constructed.
//! * [`Interner::find_canonical`] — the read-only lookup of that key.
//! * [`Interner::new`], [`Interner::len`] (the number of distinct nodes,
//!   which the search reports as `arena_nodes`) and [`Interner::is_empty`].
//! * [`FxHasher`] and [`FxBuildHasher`] — the hasher of the arena's index,
//!   which the search's seen-set uses too.
//!
//! The interner is deliberately not thread-safe (`&mut self` to intern):
//! the parallel search keeps one interner on the merge thread and hands
//! workers read-only [`Interner::find_canonical`] snapshots, which is what
//! keeps merged statistics deterministic.

use crate::ast::{BlockSize, DefName, Expr, PrimOp, SeqAnnot, SizeHint};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A fast, non-cryptographic word-at-a-time hasher (the rustc `FxHash`
/// recipe). Interning hashes one shallow node per tree position on the
/// search's hottest path; SipHash's per-byte mixing is measurable overhead
/// there and DoS resistance buys nothing for compiler-internal keys.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps and sets.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A handle to an interned expression. Equality of handles is structural
/// equality of the underlying terms (within one [`Interner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

/// A handle to an interned variable/parameter name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct NameId(u32);

/// An interned [`BlockSize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum IBlock {
    Const(u64),
    Param(NameId),
}

/// An interned [`DefName`].
#[derive(Debug, PartialEq, Eq, Hash)]
enum IDef {
    Head,
    Tail,
    Length,
    Avg,
    TreeFold(IBlock),
    UnfoldR { b_in: IBlock, b_out: IBlock },
    Mrg,
    Zip(u32),
    Partition,
    HashPartition(IBlock),
    FuncPow(u32),
}

/// One interned expression constructor; children are [`ExprId`]s, names are
/// [`NameId`]s. Mirrors [`Expr`] — see the corresponding variant there for
/// semantics.
#[derive(Debug, PartialEq, Eq, Hash)]
enum Node {
    Var(NameId),
    Int(i64),
    Bool(bool),
    Str(String),
    Lam {
        param: NameId,
        body: ExprId,
    },
    App {
        func: ExprId,
        arg: ExprId,
    },
    Tuple(Vec<ExprId>),
    Proj {
        tuple: ExprId,
        index: u32,
    },
    Singleton(ExprId),
    Empty,
    Union {
        left: ExprId,
        right: ExprId,
    },
    FlatMap {
        func: ExprId,
    },
    FoldL {
        init: ExprId,
        func: ExprId,
    },
    If {
        cond: ExprId,
        then_branch: ExprId,
        else_branch: ExprId,
    },
    Prim {
        op: PrimOp,
        args: Vec<ExprId>,
    },
    For {
        var: NameId,
        block: IBlock,
        source: ExprId,
        out_block: IBlock,
        body: ExprId,
        /// `(from, to)` of the sequentiality annotation, if any.
        seq: Option<(NameId, NameId)>,
    },
    DefRef(IDef),
    Sized {
        expr: ExprId,
        hint: SizeHint,
    },
}

/// The hash-consing arena.
#[derive(Debug, Default)]
pub struct Interner {
    /// Every distinct node with its id; ids are dense in insertion order.
    index: HashMap<Node, ExprId, FxBuildHasher>,
    names: HashMap<String, NameId, FxBuildHasher>,
    /// Cached canonical binder name ids (`%0`, `%1`, …).
    canon_vars: Vec<NameId>,
    /// Cached canonical parameter name ids (`%p0`, `%p1`, …).
    canon_params: Vec<NameId>,
}

/// Canonicalization state: the α-renaming scope, the binder counter and the
/// parameter first-occurrence order. Borrows the names of the expression
/// being canonicalized — nothing is allocated per binder.
#[derive(Default)]
struct CanonCx<'e> {
    scope: Vec<(&'e str, NameId)>,
    counter: usize,
    params: Vec<&'e str>,
}

impl<'e> CanonCx<'e> {
    fn lookup(&self, v: &str) -> Option<NameId> {
        self.scope
            .iter()
            .rev()
            .find(|(orig, _)| *orig == v)
            .map(|(_, canon)| *canon)
    }

    /// Position of `p` in first-occurrence order, registering it if new.
    fn param_pos(&mut self, p: &'e str) -> usize {
        if let Some(i) = self.params.iter().position(|q| *q == p) {
            i
        } else {
            self.params.push(p);
            self.params.len() - 1
        }
    }
}

impl Interner {
    /// An empty arena.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Number of distinct interned nodes.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn name_id(&mut self, s: &str) -> NameId {
        if let Some(&id) = self.names.get(s) {
            return id;
        }
        let id = NameId(self.names.len() as u32);
        self.names.insert(s.to_string(), id);
        id
    }

    fn find_name(&self, s: &str) -> Option<NameId> {
        self.names.get(s).copied()
    }

    fn insert(&mut self, node: Node) -> ExprId {
        let next = ExprId(self.index.len() as u32);
        *self.index.entry(node).or_insert(next)
    }

    fn canon_var(&mut self, i: usize) -> NameId {
        while self.canon_vars.len() <= i {
            let name = format!("%{}", self.canon_vars.len());
            let id = self.name_id(&name);
            self.canon_vars.push(id);
        }
        self.canon_vars[i]
    }

    fn canon_param(&mut self, i: usize) -> NameId {
        while self.canon_params.len() <= i {
            let name = format!("%p{}", self.canon_params.len());
            let id = self.name_id(&name);
            self.canon_params.push(id);
        }
        self.canon_params[i]
    }

    fn canon_var_find(&self, i: usize) -> Option<NameId> {
        self.canon_vars.get(i).copied()
    }

    fn canon_param_find(&self, i: usize) -> Option<NameId> {
        self.canon_params.get(i).copied()
    }

    /// Interns the **canonical form** of `e` in a single pass: bound
    /// variables are renamed `%0`, `%1`, … in binding order and block-size
    /// parameters `%p0`, `%p1`, … in first-occurrence (pre-order) order.
    ///
    /// Two terms get the same id iff the legacy `ocas-rewrite` `dedup_key`
    /// gives them equal keys, but without materializing the three
    /// intermediate trees that function builds — this is the search's
    /// per-candidate hot path.
    pub fn canonical(&mut self, e: &Expr) -> ExprId {
        let mut cx = CanonCx::default();
        self.canon_go(e, &mut cx)
    }

    /// Read-only twin of [`Interner::canonical`]: returns the canonical id
    /// if (and only if) that canonical term is already interned. Used by
    /// parallel search workers to skip re-validating duplicates without
    /// mutating the shared arena.
    pub fn find_canonical(&self, e: &Expr) -> Option<ExprId> {
        let mut cx = CanonCx::default();
        self.canon_find(e, &mut cx)
    }

    /// [`Interner::canonical`] of "`root` with the subterm at `path`
    /// replaced by `replacement`" — without materializing that candidate
    /// tree. `path` is a chain of [`Expr::children`] indices. This is how
    /// the search deduplicates rewrite candidates: the full candidate is
    /// only ever built for the (minority of) keys that turn out to be new.
    pub fn canonical_at(&mut self, root: &Expr, path: &[usize], replacement: &Expr) -> ExprId {
        let mut cx = CanonCx::default();
        self.canon_go_at(root, &mut cx, path, replacement)
    }

    fn canon_block<'e>(&mut self, b: &'e BlockSize, cx: &mut CanonCx<'e>) -> IBlock {
        match b {
            BlockSize::Const(n) => IBlock::Const(*n),
            BlockSize::Param(p) => {
                let pos = cx.param_pos(p);
                IBlock::Param(self.canon_param(pos))
            }
        }
    }

    fn canon_go<'e>(&mut self, e: &'e Expr, cx: &mut CanonCx<'e>) -> ExprId {
        let node = match e {
            Expr::Var(v) => match cx.lookup(v) {
                Some(id) => Node::Var(id),
                None => Node::Var(self.name_id(v)),
            },
            Expr::Lam { param, body } => {
                let canon = self.canon_var(cx.counter);
                cx.counter += 1;
                cx.scope.push((param, canon));
                let body = self.canon_go(body, cx);
                cx.scope.pop();
                Node::Lam { param: canon, body }
            }
            Expr::For {
                var,
                block,
                source,
                out_block,
                body,
                seq,
            } => {
                // Parameter renaming is pre-order over the node itself
                // (block, then out_block) before either child — this is
                // what `collect_params` does in the legacy key.
                let block = self.canon_block(block, cx);
                let out_block = self.canon_block(out_block, cx);
                let source = self.canon_go(source, cx);
                let canon = self.canon_var(cx.counter);
                cx.counter += 1;
                cx.scope.push((var, canon));
                let body = self.canon_go(body, cx);
                cx.scope.pop();
                Node::For {
                    var: canon,
                    block,
                    source,
                    out_block,
                    body,
                    seq: self.iseq(seq),
                }
            }
            Expr::DefRef(d) => Node::DefRef(
                idef(d, |b| Some(self.canon_block(b, cx))).expect("interning never fails"),
            ),
            other => shallow(other, |c| Some(self.canon_go(c, cx))).expect("interning never fails"),
        };
        self.insert(node)
    }

    fn canon_go_at<'e>(
        &mut self,
        e: &'e Expr,
        cx: &mut CanonCx<'e>,
        path: &[usize],
        replacement: &'e Expr,
    ) -> ExprId {
        let Some((&target, rest)) = path.split_first() else {
            return self.canon_go(replacement, cx);
        };
        let node = match e {
            Expr::Lam { param, body } => {
                debug_assert_eq!(target, 0);
                let canon = self.canon_var(cx.counter);
                cx.counter += 1;
                cx.scope.push((param, canon));
                let body = self.canon_go_at(body, cx, rest, replacement);
                cx.scope.pop();
                Node::Lam { param: canon, body }
            }
            Expr::For {
                var,
                block,
                source,
                out_block,
                body,
                seq,
            } => {
                let block = self.canon_block(block, cx);
                let out_block = self.canon_block(out_block, cx);
                let source = if target == 0 {
                    self.canon_go_at(source, cx, rest, replacement)
                } else {
                    self.canon_go(source, cx)
                };
                let canon = self.canon_var(cx.counter);
                cx.counter += 1;
                cx.scope.push((var, canon));
                let body = if target == 1 {
                    self.canon_go_at(body, cx, rest, replacement)
                } else {
                    self.canon_go(body, cx)
                };
                cx.scope.pop();
                Node::For {
                    var: canon,
                    block,
                    source,
                    out_block,
                    body,
                    seq: self.iseq(seq),
                }
            }
            other => {
                let mut i = 0usize;
                shallow(other, |c| {
                    let id = if i == target {
                        self.canon_go_at(c, cx, rest, replacement)
                    } else {
                        self.canon_go(c, cx)
                    };
                    i += 1;
                    Some(id)
                })
                .expect("interning never fails")
            }
        };
        self.insert(node)
    }

    fn canon_find<'e>(&self, e: &'e Expr, cx: &mut CanonCx<'e>) -> Option<ExprId> {
        let node = match e {
            Expr::Var(v) => match cx.lookup(v) {
                Some(id) => Node::Var(id),
                None => Node::Var(self.find_name(v)?),
            },
            Expr::Lam { param, body } => {
                let canon = self.canon_var_find(cx.counter)?;
                cx.counter += 1;
                cx.scope.push((param, canon));
                let body = self.canon_find(body, cx);
                cx.scope.pop();
                Node::Lam {
                    param: canon,
                    body: body?,
                }
            }
            Expr::For {
                var,
                block,
                source,
                out_block,
                body,
                seq,
            } => {
                let block = self.canon_block_find(block, cx)?;
                let out_block = self.canon_block_find(out_block, cx)?;
                let source = self.canon_find(source, cx);
                let canon = self.canon_var_find(cx.counter)?;
                cx.counter += 1;
                cx.scope.push((var, canon));
                let body = self.canon_find(body, cx);
                cx.scope.pop();
                Node::For {
                    var: canon,
                    block,
                    source: source?,
                    out_block,
                    body: body?,
                    seq: self.iseq_find(seq)?,
                }
            }
            Expr::DefRef(d) => Node::DefRef(idef(d, |b| self.canon_block_find(b, cx))?),
            other => shallow(other, |c| self.canon_find(c, cx))?,
        };
        self.index.get(&node).copied()
    }

    fn canon_block_find<'e>(&self, b: &'e BlockSize, cx: &mut CanonCx<'e>) -> Option<IBlock> {
        match b {
            BlockSize::Const(n) => Some(IBlock::Const(*n)),
            BlockSize::Param(p) => {
                let pos = cx.param_pos(p);
                Some(IBlock::Param(self.canon_param_find(pos)?))
            }
        }
    }

    fn iseq(&mut self, seq: &Option<SeqAnnot>) -> Option<(NameId, NameId)> {
        seq.as_ref()
            .map(|s| (self.name_id(&s.from), self.name_id(&s.to)))
    }

    /// `Some(None)`-free read-only twin of [`Interner::iseq`]: `None` when
    /// an annotation name is unknown (so the term cannot be interned yet),
    /// `Some(opt)` otherwise.
    #[allow(clippy::option_option)]
    fn iseq_find(&self, seq: &Option<SeqAnnot>) -> Option<Option<(NameId, NameId)>> {
        match seq {
            None => Some(None),
            Some(s) => Some(Some((self.find_name(&s.from)?, self.find_name(&s.to)?))),
        }
    }
}

/// The [`IDef`] of `d`, with each block size (in pre-order) from `block`;
/// `None` when `block` returns `None`.
fn idef<'e>(
    d: &'e DefName,
    mut block: impl FnMut(&'e BlockSize) -> Option<IBlock>,
) -> Option<IDef> {
    Some(match d {
        DefName::Head => IDef::Head,
        DefName::Tail => IDef::Tail,
        DefName::Length => IDef::Length,
        DefName::Avg => IDef::Avg,
        DefName::TreeFold(k) => IDef::TreeFold(block(k)?),
        DefName::UnfoldR { b_in, b_out } => IDef::UnfoldR {
            b_in: block(b_in)?,
            b_out: block(b_out)?,
        },
        DefName::Mrg => IDef::Mrg,
        DefName::Zip(n) => IDef::Zip(*n),
        DefName::Partition => IDef::Partition,
        DefName::HashPartition(k) => IDef::HashPartition(block(k)?),
        DefName::FuncPow(k) => IDef::FuncPow(*k),
    })
}

/// The [`Node`] of a constructor that binds and names nothing, with each
/// child's id (in [`Expr::children`] order) from `child`; `None` when
/// `child` returns `None`. `Var`, `Lam`, `For` and `DefRef` carry names or
/// block sizes, which only the canonicalizing walkers can intern.
fn shallow<'e>(e: &'e Expr, mut child: impl FnMut(&'e Expr) -> Option<ExprId>) -> Option<Node> {
    Some(match e {
        Expr::Int(n) => Node::Int(*n),
        Expr::Bool(b) => Node::Bool(*b),
        Expr::Str(s) => Node::Str(s.clone()),
        Expr::App { func, arg } => Node::App {
            func: child(func)?,
            arg: child(arg)?,
        },
        Expr::Tuple(items) => Node::Tuple(items.iter().map(&mut child).collect::<Option<_>>()?),
        Expr::Proj { tuple, index } => Node::Proj {
            tuple: child(tuple)?,
            index: *index,
        },
        Expr::Singleton(e) => Node::Singleton(child(e)?),
        Expr::Empty => Node::Empty,
        Expr::Union { left, right } => Node::Union {
            left: child(left)?,
            right: child(right)?,
        },
        Expr::FlatMap { func } => Node::FlatMap { func: child(func)? },
        Expr::FoldL { init, func } => Node::FoldL {
            init: child(init)?,
            func: child(func)?,
        },
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => Node::If {
            cond: child(cond)?,
            then_branch: child(then_branch)?,
            else_branch: child(else_branch)?,
        },
        Expr::Prim { op, args } => Node::Prim {
            op: *op,
            args: args.iter().map(&mut child).collect::<Option<_>>()?,
        },
        Expr::Sized { expr, hint } => Node::Sized {
            expr: child(expr)?,
            hint: hint.clone(),
        },
        Expr::Var(_) | Expr::Lam { .. } | Expr::For { .. } | Expr::DefRef(_) => {
            unreachable!("named constructors are interned by the canonicalizing walkers")
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn interning_is_hash_consed() {
        let mut it = Interner::new();
        let a = parse("for (x <- R) [x]").unwrap();
        let ia = it.canonical(&a);
        let nodes_before = it.len();
        let b = parse("for (x <- R) [x]").unwrap();
        assert_eq!(
            it.canonical(&b),
            ia,
            "structurally equal terms share one id"
        );
        assert_eq!(it.len(), nodes_before, "a known term adds no node");
        // A superterm reuses every existing node and adds only its new
        // spine: the outer loop, its body `[y]` and the variable `y`.
        let c = parse("for (y <- for (x <- R) [x]) [y]").unwrap();
        assert_ne!(it.canonical(&c), ia);
        assert_eq!(it.len(), nodes_before + 3);
    }

    #[test]
    fn canonical_collapses_renamings() {
        let mut it = Interner::new();
        let a = parse("for (xB [k1] <- R) for (x <- xB) [x]").unwrap();
        let b = parse("for (yB [k7] <- R) for (x <- yB) [x]").unwrap();
        assert_eq!(it.canonical(&a), it.canonical(&b));
        let c = parse("for (xB [k1] <- S) for (x <- xB) [x]").unwrap();
        assert_ne!(it.canonical(&a), it.canonical(&c));
    }

    #[test]
    fn find_canonical_is_read_only_twin() {
        let mut it = Interner::new();
        let a = parse("for (xB [k1] <- R) for (x <- xB) [x]").unwrap();
        let b = parse("for (yB [k9] <- R) for (z <- yB) [z]").unwrap();
        assert_eq!(it.find_canonical(&a), None, "not interned yet");
        let id = it.canonical(&a);
        let n = it.len();
        assert_eq!(it.find_canonical(&b), Some(id));
        assert_eq!(it.len(), n, "find_canonical must not intern");
    }

    #[test]
    fn canonical_id_is_the_alpha_class() {
        let mut it = Interner::new();
        for src in [
            "foldL([], unfoldR(mrg))(R)",
            "treeFold[4](<[], unfoldR(funcPow[2](mrg))>)(R)",
            "for (xB [k1] <- R) for (x <- xB) for (y <- S) [<x, y>]",
        ] {
            let e = parse(src).unwrap();
            let id = it.canonical(&e);
            assert_eq!(it.canonical(&e.alpha_canonical()), id, "{src}");
        }
    }

    #[test]
    fn seq_annotations_separate_canonical_terms() {
        let mut it = Interner::new();
        let plain = parse("for (x <- R) [x]").unwrap();
        let mut annotated = plain.clone();
        if let Expr::For { seq, .. } = &mut annotated {
            *seq = Some(SeqAnnot {
                from: "HDD".into(),
                to: "RAM".into(),
            });
        }
        let id = it.canonical(&annotated);
        assert_ne!(
            it.canonical(&plain),
            id,
            "the annotation distinguishes terms"
        );
        assert_eq!(it.find_canonical(&annotated), Some(id));
        // The same holds for an annotated loop on the path of a splice.
        let repl = parse("[1]").unwrap();
        assert_ne!(
            it.canonical_at(&annotated, &[1], &repl),
            it.canonical_at(&plain, &[1], &repl),
        );
    }
}
