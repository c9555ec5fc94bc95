//! Runtime values for the OCAL reference interpreter.

use crate::ast::{DefName, Expr};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// A runtime value. Data values (`Int`, `Bool`, `Str`, `Tuple`, `List`)
/// correspond to the storable types `τ ::= D | ⟨τ,…⟩ | [τ]`; the remaining
/// variants are function values that only occur in function position.
#[derive(Debug, Clone)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(Rc<str>),
    /// Tuple of values.
    Tuple(Rc<Vec<Value>>),
    /// List of values.
    List(Rc<Vec<Value>>),
    /// λ-closure.
    Closure(Rc<Closure>),
    /// A (possibly partially applied) named definition.
    Builtin {
        /// The definition.
        def: DefName,
        /// Arguments supplied so far (fewer than `def.arity()`).
        applied: Vec<Value>,
    },
    /// `flatMap(f)` as a function value.
    FlatMapF(Rc<Value>),
    /// `foldL(c, f)` as a function value (`.0` is `c`, `.1` is `f`).
    FoldLF(Rc<(Value, Value)>),
}

/// Captured λ-abstraction.
#[derive(Debug)]
pub struct Closure {
    /// The bound parameter name.
    pub param: String,
    /// The body expression.
    pub body: Expr,
    /// The captured environment.
    pub env: Env,
}

/// A persistent (linked) binding environment; cloning is O(1) and extending
/// does not disturb previously captured closures.
#[derive(Debug, Clone, Default)]
pub struct Env(Option<Rc<Frame>>);

#[derive(Debug)]
struct Frame {
    name: String,
    value: Value,
    parent: Env,
}

impl Env {
    /// The empty environment.
    pub fn empty() -> Env {
        Env(None)
    }

    /// Builds an environment from a map of top-level inputs.
    pub fn from_inputs(inputs: &BTreeMap<String, Value>) -> Env {
        let mut env = Env::empty();
        for (k, v) in inputs {
            env = env.bind(k.clone(), v.clone());
        }
        env
    }

    /// Returns a new environment with `name` bound to `value`.
    pub fn bind(&self, name: impl Into<String>, value: Value) -> Env {
        Env(Some(Rc::new(Frame {
            name: name.into(),
            value,
            parent: self.clone(),
        })))
    }

    /// Looks up the innermost binding of `name`.
    pub fn lookup(&self, name: &str) -> Option<&Value> {
        let mut cur = self;
        while let Some(frame) = &cur.0 {
            if frame.name == name {
                return Some(&frame.value);
            }
            cur = &frame.parent;
        }
        None
    }
}

impl Value {
    /// Builds a list of integers.
    pub fn int_list(items: &[i64]) -> Value {
        Value::List(Rc::new(items.iter().copied().map(Value::Int).collect()))
    }

    /// Builds a list of integer pairs (a binary relation).
    pub fn pair_list(items: &[(i64, i64)]) -> Value {
        Value::List(Rc::new(
            items
                .iter()
                .map(|(a, b)| Value::Tuple(Rc::new(vec![Value::Int(*a), Value::Int(*b)])))
                .collect(),
        ))
    }

    /// Builds a list value from parts.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Rc::new(items))
    }

    /// Builds a tuple value from parts.
    pub fn tuple(items: Vec<Value>) -> Value {
        Value::Tuple(Rc::new(items))
    }

    /// The contained list, if this is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// The contained integer, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// True for storable (first-order) data values.
    pub fn is_data(&self) -> bool {
        match self {
            Value::Int(_) | Value::Bool(_) | Value::Str(_) => true,
            Value::Tuple(items) | Value::List(items) => items.iter().all(Value::is_data),
            _ => false,
        }
    }

    /// Size of the value in bytes under the cost model's conventions:
    /// atomic values occupy their machine width (8 for `Int`, 1 for `Bool`,
    /// string length for `Str`); tuples and lists are the sum of their parts.
    pub fn byte_size(&self) -> u64 {
        match self {
            Value::Int(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => s.len() as u64,
            Value::Tuple(items) | Value::List(items) => items.iter().map(Value::byte_size).sum(),
            _ => 0,
        }
    }
}

/// Structural equality on data values (function values never compare equal).
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Tuple(a), Value::Tuple(b)) | (Value::List(a), Value::List(b)) => a == b,
            _ => false,
        }
    }
}

/// Total order on data values of the same shape (the paper's domain `D` is
/// totally ordered; tuples and lists compare lexicographically). Returns
/// `None` when the shapes differ or a function value is involved.
pub fn value_cmp(a: &Value, b: &Value) -> Option<Ordering> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        (Value::Tuple(xs), Value::Tuple(ys)) | (Value::List(xs), Value::List(ys)) => {
            for (x, y) in xs.iter().zip(ys.iter()) {
                match value_cmp(x, y)? {
                    Ordering::Equal => continue,
                    other => return Some(other),
                }
            }
            Some(xs.len().cmp(&ys.len()))
        }
        _ => None,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline(always)]
fn mix(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// [`stable_hash`]'s step for an integer: its tag, then its eight
/// little-endian bytes.
#[inline(always)]
fn mix_int(mut h: u64, n: i64) -> u64 {
    h = mix(h, 1);
    for b in n.to_le_bytes() {
        h = mix(h, b);
    }
    h
}

/// Deterministic structural hash (FNV-1a). This is the function behind the
/// `hash` primitive and `hashPartition[s]`; the C code generator emits the
/// same function so partitioning decisions agree across backends.
pub fn stable_hash(v: &Value) -> u64 {
    fn go(v: &Value, mut h: u64) -> u64 {
        match v {
            Value::Int(n) => mix_int(h, *n),
            Value::Bool(b) => mix(mix(h, 2), u8::from(*b)),
            Value::Str(s) => {
                h = mix(h, 3);
                for b in s.bytes() {
                    h = mix(h, b);
                }
                h
            }
            Value::Tuple(items) => {
                h = mix(h, 4);
                for i in items.iter() {
                    h = go(i, h);
                }
                h
            }
            Value::List(items) => {
                h = mix(h, 5);
                for i in items.iter() {
                    h = go(i, h);
                }
                h
            }
            _ => mix(h, 6),
        }
    }
    go(v, FNV_OFFSET)
}

/// [`stable_hash`] of `Value::Int(n)`, without building the value: the
/// same FNV-1a steps, one integer at a time. The GRACE partition pass
/// buckets its keys by it, so its buckets are `hashPartition`'s. Inlined
/// into callers in other crates, whose loops over independent keys then
/// overlap the hashes' multiply chains.
#[inline]
pub fn stable_hash_int(n: i64) -> u64 {
    mix_int(FNV_OFFSET, n)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Tuple(items) => {
                write!(f, "<")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ">")
            }
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Closure(_) => write!(f, "<closure>"),
            Value::Builtin { def, applied } => {
                write!(f, "<{}:{}/{}>", def.name(), applied.len(), def.arity())
            }
            Value::FlatMapF(_) => write!(f, "<flatMap>"),
            Value::FoldLF(_) => write!(f, "<foldL>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_shadowing() {
        let env = Env::empty()
            .bind("x", Value::Int(1))
            .bind("x", Value::Int(2));
        assert_eq!(env.lookup("x"), Some(&Value::Int(2)));
        assert_eq!(env.lookup("y"), None);
    }

    #[test]
    fn value_ordering_lexicographic() {
        let a = Value::tuple(vec![Value::Int(1), Value::Int(9)]);
        let b = Value::tuple(vec![Value::Int(2), Value::Int(0)]);
        assert_eq!(value_cmp(&a, &b), Some(Ordering::Less));
        let l1 = Value::int_list(&[1, 2]);
        let l2 = Value::int_list(&[1, 2, 3]);
        assert_eq!(value_cmp(&l1, &l2), Some(Ordering::Less));
        assert_eq!(value_cmp(&Value::Int(1), &Value::Bool(true)), None);
    }

    #[test]
    fn stable_hash_is_stable_and_structural() {
        let a = Value::tuple(vec![Value::Int(42), Value::Str("k".into())]);
        let b = Value::tuple(vec![Value::Int(42), Value::Str("k".into())]);
        assert_eq!(stable_hash(&a), stable_hash(&b));
        let c = Value::tuple(vec![Value::Int(43), Value::Str("k".into())]);
        assert_ne!(stable_hash(&a), stable_hash(&c));
        // Lists and tuples with the same content hash differently.
        let t = Value::tuple(vec![Value::Int(1)]);
        let l = Value::list(vec![Value::Int(1)]);
        assert_ne!(stable_hash(&t), stable_hash(&l));
    }

    #[test]
    fn stable_hash_int_is_the_int_arm() {
        for n in [0, 1, -1, 42, i64::MIN, i64::MAX, 1 << 40, -(1 << 33)] {
            assert_eq!(stable_hash_int(n), stable_hash(&Value::Int(n)), "{n}");
        }
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Value::Int(7).byte_size(), 8);
        assert_eq!(Value::pair_list(&[(1, 2), (3, 4)]).byte_size(), 32);
    }
}
