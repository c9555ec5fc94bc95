//! Annotated types (paper §5.1).
//!
//! An annotated type keeps the *structure* of a value while replacing every
//! list type with a symbolic cardinality:
//!
//! ```text
//! α ::= [α]ₓ | ⟨α₁, …, αₙ⟩ | c
//! ```
//!
//! Cardinalities are symbolic arithmetic expressions, so result sizes are
//! functions of the input sizes and of tunable parameters — the paper's
//! requirement that "we can express the result size as a function of the
//! input sizes … without having to recompute the cost of a program every
//! time the size of its inputs … changes".

use crate::memo::Simp;
use ocal::{CardHint, SizeHint};
use ocas_symbolic::Expr as Sym;

/// An annotated type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Annot {
    /// An atomic (or opaque) value occupying a fixed number of bytes.
    Atom(Sym),
    /// A tuple of annotated components.
    Tuple(Vec<Annot>),
    /// A list `[elem]_card`.
    List {
        /// Element annotation.
        elem: Box<Annot>,
        /// Symbolic cardinality.
        card: Sym,
    },
    /// The zero annotation — the result size of `[]` (paper Figure 4 gives
    /// `R(Γ, []) = 0`). Identity for `Annot::add` and bottom for
    /// `Annot::join`.
    Zero,
}

impl Annot {
    /// An atomic value of `n` bytes.
    pub fn atom(n: u64) -> Annot {
        Annot::Atom(Sym::int(n as i128))
    }

    /// A list annotation.
    pub fn list(elem: Annot, card: Sym) -> Annot {
        Annot::List {
            elem: Box::new(elem),
            card,
        }
    }

    /// A list of `card` tuples of `width` integer-like fields of `field`
    /// bytes each — the shape of every relation in the evaluation.
    pub fn relation(card: Sym, width: usize, field: u64) -> Annot {
        let elem = if width == 1 {
            Annot::atom(field)
        } else {
            Annot::Tuple(vec![Annot::atom(field); width])
        };
        Annot::list(elem, card)
    }

    /// Total size in bytes as a symbolic expression.
    pub fn size(&self) -> Sym {
        match self {
            Annot::Atom(s) => s.clone(),
            Annot::Tuple(items) => {
                let mut acc = Sym::zero();
                for i in items {
                    acc = acc + i.size();
                }
                acc
            }
            Annot::List { elem, card } => card.clone() * elem.size(),
            Annot::Zero => Sym::zero(),
        }
    }

    /// List cardinality, if this is a list (`Zero` counts as an empty list).
    pub fn card(&self) -> Option<Sym> {
        match self {
            Annot::List { card, .. } => Some(card.clone()),
            Annot::Zero => Some(Sym::zero()),
            _ => None,
        }
    }

    /// List element annotation, if this is a list.
    pub fn elem(&self) -> Option<&Annot> {
        match self {
            Annot::List { elem, .. } => Some(elem),
            _ => None,
        }
    }

    /// 1-based tuple projection.
    pub fn proj(&self, index: u32) -> Option<Annot> {
        match self {
            Annot::Tuple(items) => items.get((index as usize).checked_sub(1)?).cloned(),
            _ => None,
        }
    }

    /// True if this annotation contains no lists (constant size).
    pub fn is_scalar(&self) -> bool {
        match self {
            Annot::Atom(_) => true,
            Annot::Tuple(items) => items.iter().all(Annot::is_scalar),
            Annot::List { .. } => false,
            Annot::Zero => true,
        }
    }

    /// Worst-case join (the `max` of Figure 5's `if` rule). Shapes are
    /// joined structurally; mismatched shapes degrade to an atom of the
    /// maximum byte size.
    pub(crate) fn join(&self, other: &Annot, s: Simp<'_>) -> Annot {
        match (self, other) {
            (Annot::Zero, a) | (a, Annot::Zero) => a.clone(),
            (Annot::Atom(a), Annot::Atom(b)) => {
                if a == b {
                    Annot::Atom(a.clone())
                } else {
                    Annot::Atom(s.simplify(&a.clone().max(b.clone())))
                }
            }
            (Annot::Tuple(xs), Annot::Tuple(ys)) if xs.len() == ys.len() => {
                Annot::Tuple(xs.iter().zip(ys).map(|(x, y)| x.join(y, s)).collect())
            }
            (Annot::List { elem: e1, card: c1 }, Annot::List { elem: e2, card: c2 }) => {
                let card = if c1 == c2 {
                    c1.clone()
                } else {
                    s.simplify(&c1.clone().max(c2.clone()))
                };
                Annot::list(e1.join(e2, s), card)
            }
            (a, b) => Annot::Atom(s.simplify(&a.size().max(b.size()))),
        }
    }

    /// Size addition (`⊔` rule): concatenating two lists adds cardinalities;
    /// mismatched shapes degrade to an atom of the summed byte size.
    pub(crate) fn add(&self, other: &Annot, s: Simp<'_>) -> Annot {
        match (self, other) {
            (Annot::Zero, a) | (a, Annot::Zero) => a.clone(),
            (Annot::List { elem: e1, card: c1 }, Annot::List { elem: e2, card: c2 }) => {
                Annot::list(e1.join(e2, s), s.simplify(&(c1.clone() + c2.clone())))
            }
            (a, b) => Annot::Atom(s.simplify(&(a.size() + b.size()))),
        }
    }

    /// Multiplies the outermost cardinality by `factor` (the `for` rule's
    /// `card/k · R(body)`). Scaling a non-list scales its byte size.
    pub(crate) fn scale(&self, factor: &Sym, s: Simp<'_>) -> Annot {
        match self {
            Annot::Zero => Annot::Zero,
            Annot::List { elem, card } => Annot::list(
                (**elem).clone(),
                s.simplify(&(factor.clone() * card.clone())),
            ),
            other => Annot::Atom(s.simplify(&(factor.clone() * other.size()))),
        }
    }

    /// Converts a programmer [`SizeHint`] into an annotation.
    pub fn from_hint(hint: &SizeHint) -> Annot {
        match hint {
            SizeHint::Atom(n) => Annot::atom(*n),
            SizeHint::Tuple(items) => Annot::Tuple(items.iter().map(Annot::from_hint).collect()),
            SizeHint::List(elem, card) => Annot::list(Annot::from_hint(elem), card_to_sym(card)),
        }
    }

    /// Simplifies all embedded symbolic expressions.
    pub(crate) fn simplified(&self, s: Simp<'_>) -> Annot {
        match self {
            Annot::Atom(e) => Annot::Atom(s.simplify(e)),
            Annot::Tuple(items) => Annot::Tuple(items.iter().map(|i| i.simplified(s)).collect()),
            Annot::List { elem, card } => Annot::list(elem.simplified(s), s.simplify(card)),
            Annot::Zero => Annot::Zero,
        }
    }
}

/// Converts a programmer cardinality hint into a symbolic expression.
pub fn card_to_sym(c: &CardHint) -> Sym {
    match c {
        CardHint::Const(n) => Sym::int(*n as i128),
        CardHint::Var(v) => Sym::var(v.clone()),
        CardHint::Add(a, b) => card_to_sym(a) + card_to_sym(b),
        CardHint::Mul(a, b) => card_to_sym(a) * card_to_sym(b),
        CardHint::Div(a, b) => (card_to_sym(a) / card_to_sym(b)).ceil(),
    }
}

impl std::fmt::Display for Annot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Annot::Atom(s) => write!(f, "{s}"),
            Annot::Tuple(items) => {
                write!(f, "<")?;
                for (i, a) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ">")
            }
            Annot::List { elem, card } => write!(f, "[{elem}]_({card})"),
            Annot::Zero => write!(f, "0"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocas_symbolic::simplify;

    const S: Simp<'static> = Simp::PLAIN;

    fn x() -> Sym {
        Sym::var("x")
    }

    #[test]
    fn sizes() {
        // <[[1]_y]_x, [<1,1>]_z> from the paper's §5.1 example.
        let a = Annot::Tuple(vec![
            Annot::list(Annot::list(Annot::atom(1), Sym::var("y")), x()),
            Annot::list(
                Annot::Tuple(vec![Annot::atom(1), Annot::atom(1)]),
                Sym::var("z"),
            ),
        ]);
        let size = simplify(&a.size());
        let expect = simplify(&(x() * Sym::var("y") + Sym::int(2) * Sym::var("z")));
        assert_eq!(size, expect);
        assert_eq!(a.to_string(), "<[[1]_(y)]_(x), [<1, 1>]_(z)>");
    }

    #[test]
    fn join_is_max() {
        let a = Annot::list(Annot::atom(1), Sym::int(5));
        let b = Annot::list(Annot::atom(1), Sym::int(9));
        match a.join(&b, S) {
            Annot::List { card, .. } => assert_eq!(card, Sym::int(9)),
            other => panic!("expected list, got {other}"),
        }
        // Zero is the identity.
        assert_eq!(a.join(&Annot::Zero, S), a);
    }

    #[test]
    fn add_concatenates() {
        let a = Annot::list(Annot::atom(4), x());
        let b = Annot::list(Annot::atom(4), Sym::var("y"));
        match a.add(&b, S) {
            Annot::List { card, .. } => {
                assert_eq!(card, simplify(&(x() + Sym::var("y"))));
            }
            other => panic!("expected list, got {other}"),
        }
    }

    #[test]
    fn scale_multiplies_cardinality() {
        let a = Annot::list(Annot::atom(2), Sym::var("k"));
        let s = a.scale(&(x() / Sym::var("k")), S);
        match s {
            Annot::List { card, .. } => assert_eq!(card, x()),
            other => panic!("expected list, got {other}"),
        }
    }

    #[test]
    fn relation_shapes() {
        let r = Annot::relation(x(), 2, 4);
        assert_eq!(simplify(&r.size()), simplify(&(Sym::int(8) * x())));
        let unary = Annot::relation(x(), 1, 1);
        assert_eq!(simplify(&unary.size()), x());
    }

    #[test]
    fn hint_conversion() {
        let hint = SizeHint::List(
            Box::new(SizeHint::Atom(8)),
            CardHint::Div(
                Box::new(CardHint::Var("x".into())),
                Box::new(CardHint::Const(4)),
            ),
        );
        let a = Annot::from_hint(&hint);
        let size = simplify(&a.size());
        let expect = simplify(&(Sym::int(8) * (x() / Sym::int(4)).ceil()));
        assert_eq!(size, expect);
    }

    #[test]
    fn mismatched_shapes_degrade_to_atoms() {
        let a = Annot::list(Annot::atom(1), x());
        let b = Annot::Tuple(vec![Annot::atom(2)]);
        match a.join(&b, S) {
            Annot::Atom(_) => {}
            other => panic!("expected atom fallback, got {other}"),
        }
    }
}
