//! The compiled form of an [`Expr`]: variables resolved to slots, constants
//! converted, the tree flattened — and the one place evaluation arithmetic
//! is written (see the crate docs, "Compiled form").

use crate::eval::{Env, EvalError};
use crate::expr::Expr;

/// Upper bound on numerically iterated (non-closed-form) sums.
const MAX_SUM_ITERS: u64 = 4_000_000;

/// A binding table: one `f64` slot per distinct variable name, shared by
/// every [`Compiled`] formula built against it. A slot is unbound until
/// [`Slots::set`] (or [`Slots::bind_env`]) gives it a value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Slots {
    names: Vec<String>,
    values: Vec<Option<f64>>,
}

impl Slots {
    /// An empty table.
    pub fn new() -> Slots {
        Slots::default()
    }

    /// The slot of `name`, allocated (unbound) the first time it is asked
    /// for. Formulas mention a handful of names, so this is a scan.
    pub fn slot(&mut self, name: &str) -> usize {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i;
        }
        self.names.push(name.to_string());
        self.values.push(None);
        self.names.len() - 1
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no name has a slot yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// A slot's value, `None` while unbound.
    pub fn get(&self, slot: usize) -> Option<f64> {
        self.values[slot]
    }

    /// Binds (or overwrites) a slot.
    pub fn set(&mut self, slot: usize, value: f64) {
        self.values[slot] = Some(value);
    }

    /// Gives every slot whose name `env` binds that value; the others stay
    /// as they are.
    pub fn bind_env(&mut self, env: &Env) {
        for (name, value) in self.names.iter().zip(&mut self.values) {
            if let Some(v) = env.get(name) {
                *value = Some(v);
            }
        }
    }
}

/// A flattened node; children are indices into [`Compiled::nodes`], n-ary
/// operand lists are ranges of [`Compiled::args`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Node {
    Const(f64),
    Slot(u32),
    Add(u32, u32),
    Mul(u32, u32),
    Max(u32, u32),
    Min(u32, u32),
    Pow(u32, i32),
    Ceil(u32),
    Floor(u32),
    Log2(u32),
    Sum {
        slot: u32,
        from: u32,
        to: u32,
        body: u32,
    },
}

/// An [`Expr`] compiled against a [`Slots`] table: evaluate it as often as
/// needed with [`Compiled::eval`], rebinding slots in between, with no
/// allocation and no name lookup per evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Compiled {
    nodes: Vec<Node>,
    args: Vec<u32>,
    root: u32,
}

impl Compiled {
    /// Compiles `e`, allocating a slot in `slots` for every variable name
    /// not seen before (summation variables included).
    pub fn new(e: &Expr, slots: &mut Slots) -> Compiled {
        let mut c = Compiled {
            nodes: Vec::new(),
            args: Vec::new(),
            root: 0,
        };
        c.root = c.lower(e, slots);
        c
    }

    fn push(&mut self, node: Node) -> u32 {
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    fn lower_all(&mut self, xs: &[Expr], slots: &mut Slots) -> (u32, u32) {
        let kids: Vec<u32> = xs.iter().map(|x| self.lower(x, slots)).collect();
        let first = self.args.len() as u32;
        self.args.extend(kids);
        (first, xs.len() as u32)
    }

    fn lower(&mut self, e: &Expr, slots: &mut Slots) -> u32 {
        let node = match e {
            Expr::Const(r) => Node::Const(r.to_f64()),
            Expr::Var(v) => Node::Slot(slots.slot(v) as u32),
            Expr::Add(xs) => {
                let (first, len) = self.lower_all(xs, slots);
                Node::Add(first, len)
            }
            Expr::Mul(xs) => {
                let (first, len) = self.lower_all(xs, slots);
                Node::Mul(first, len)
            }
            Expr::Max(xs) => {
                let (first, len) = self.lower_all(xs, slots);
                Node::Max(first, len)
            }
            Expr::Min(xs) => {
                let (first, len) = self.lower_all(xs, slots);
                Node::Min(first, len)
            }
            Expr::Pow(b, k) => Node::Pow(self.lower(b, slots), *k),
            Expr::Ceil(x) => Node::Ceil(self.lower(x, slots)),
            Expr::Floor(x) => Node::Floor(self.lower(x, slots)),
            Expr::Log2(x) => Node::Log2(self.lower(x, slots)),
            Expr::Sum {
                var,
                from,
                to,
                body,
            } => Node::Sum {
                slot: slots.slot(var) as u32,
                from: self.lower(from, slots),
                to: self.lower(to, slots),
                body: self.lower(body, slots),
            },
        };
        self.push(node)
    }

    /// Evaluates under the current bindings of `slots`, which must be the
    /// table this formula was compiled against (slots added to it since are
    /// fine). A `Σ` binds its variable's slot while it iterates and puts
    /// the previous binding back before returning, on errors too — hence
    /// `&mut`.
    pub fn eval(&self, slots: &mut Slots) -> Result<f64, EvalError> {
        self.run(self.root, &mut slots.values, &slots.names)
    }

    fn operands(&self, first: u32, len: u32) -> &[u32] {
        &self.args[first as usize..(first + len) as usize]
    }

    fn run(&self, at: u32, vals: &mut [Option<f64>], names: &[String]) -> Result<f64, EvalError> {
        match self.nodes[at as usize] {
            Node::Const(c) => Ok(c),
            Node::Slot(s) => vals[s as usize]
                .ok_or_else(|| EvalError::UnboundVariable(names[s as usize].clone())),
            Node::Add(first, len) => {
                let mut acc = 0.0;
                for &x in self.operands(first, len) {
                    acc += self.run(x, vals, names)?;
                }
                Ok(acc)
            }
            Node::Mul(first, len) => {
                let mut acc = 1.0;
                for &x in self.operands(first, len) {
                    acc *= self.run(x, vals, names)?;
                }
                Ok(acc)
            }
            Node::Pow(b, k) => {
                let v = self.run(b, vals, names)?.powi(k);
                if v.is_finite() {
                    Ok(v)
                } else {
                    Err(EvalError::NonFinite("pow"))
                }
            }
            Node::Ceil(x) => Ok(self.run(x, vals, names)?.ceil()),
            Node::Floor(x) => Ok(self.run(x, vals, names)?.floor()),
            Node::Max(first, len) => {
                let mut acc = f64::NEG_INFINITY;
                for &x in self.operands(first, len) {
                    acc = acc.max(self.run(x, vals, names)?);
                }
                Ok(acc)
            }
            Node::Min(first, len) => {
                let mut acc = f64::INFINITY;
                for &x in self.operands(first, len) {
                    acc = acc.min(self.run(x, vals, names)?);
                }
                Ok(acc)
            }
            Node::Log2(x) => {
                let v = self.run(x, vals, names)?.log2();
                if v.is_finite() {
                    Ok(v)
                } else {
                    Err(EvalError::NonFinite("log2"))
                }
            }
            Node::Sum {
                slot,
                from,
                to,
                body,
            } => {
                let lo = self.run(from, vals, names)?.ceil() as i64;
                let hi = self.run(to, vals, names)?.floor() as i64;
                if hi < lo {
                    return Ok(0.0);
                }
                // `hi - lo + 1` without the i64 overflow at saturated bounds.
                let span = hi.abs_diff(lo).saturating_add(1);
                if span > MAX_SUM_ITERS {
                    return Err(EvalError::SumTooLarge {
                        var: names[slot as usize].clone(),
                        span,
                    });
                }
                let outer = vals[slot as usize];
                let total = (lo..=hi).try_fold(0.0, |acc, j| {
                    vals[slot as usize] = Some(j as f64);
                    Ok(acc + self.run(body, vals, names)?)
                });
                vals[slot as usize] = outer;
                total
            }
        }
    }
}
