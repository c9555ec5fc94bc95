//! Normalization of [`Expr`] into a canonical sum-of-products form.
//!
//! The canonical form is a polynomial with exact rational coefficients over
//! *atoms* — maximal subexpressions that are not themselves sums, products or
//! integer powers (variables, `ceil`, `max`, `log2`, unexpanded `Σ`, and
//! multi-term denominators). Two cost formulas that the paper would consider
//! "the same after its arithmetic engine runs" normalize to identical trees,
//! which the synthesizer exploits both for display and for deduplication.

use crate::expr::Expr;
use crate::rat::Rat;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A monomial: atoms with non-zero integer exponents, sorted by atom and
/// each atom once. A sorted vector orders like the `BTreeMap<Expr, i32>`
/// it stands for (both compare their `(atom, exponent)` pairs in turn),
/// without a map node per monomial.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
struct Monomial(Vec<(Expr, i32)>);

impl Monomial {
    fn new() -> Monomial {
        Monomial::default()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Appends an atom that sorts after every atom already present.
    fn push(&mut self, atom: Expr, exp: i32) {
        assert!(
            self.0.last().map_or(true, |(a, _)| *a < atom),
            "atoms out of order"
        );
        self.0.push((atom, exp));
    }

    /// The product: exponents of a shared atom add, and an atom whose
    /// exponent reaches zero drops out.
    fn times(&self, other: &Monomial) -> Monomial {
        let (a, b) = (&self.0, &other.0);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    out.push(a[i].clone());
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(b[j].clone());
                    j += 1;
                }
                Ordering::Equal => {
                    let exp = a[i].1 + b[j].1;
                    if exp != 0 {
                        out.push((a[i].0.clone(), exp));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Monomial(out)
    }
}

impl<'a> IntoIterator for &'a Monomial {
    type Item = &'a (Expr, i32);
    type IntoIter = std::slice::Iter<'a, (Expr, i32)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// A polynomial: monomials with non-zero rational coefficients.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Poly {
    terms: BTreeMap<Monomial, Rat>,
}

impl Poly {
    fn constant(r: Rat) -> Poly {
        let mut terms = BTreeMap::new();
        if !r.is_zero() {
            terms.insert(Monomial::new(), r);
        }
        Poly { terms }
    }

    fn atom(a: Expr) -> Poly {
        if let Expr::Const(r) = a {
            return Poly::constant(r);
        }
        let mut terms = BTreeMap::new();
        terms.insert(Monomial(vec![(a, 1)]), Rat::ONE);
        Poly { terms }
    }

    fn add(&self, other: &Poly) -> Poly {
        let mut out = self.clone();
        out.add_scaled(Rat::ONE, other);
        out
    }

    /// `self += coeff · other`, in place.
    fn add_scaled(&mut self, coeff: Rat, other: &Poly) {
        if coeff.is_zero() {
            return;
        }
        for (m, c) in &other.terms {
            let entry = self.terms.entry(m.clone()).or_insert(Rat::ZERO);
            *entry = *entry + coeff * *c;
            if entry.is_zero() {
                self.terms.remove(m);
            }
        }
    }

    /// `self += other`, in place, moving `other`'s monomials.
    fn absorb(&mut self, other: Poly) {
        if self.terms.is_empty() {
            *self = other;
            return;
        }
        for (m, c) in other.terms {
            match self.terms.get_mut(&m) {
                Some(entry) => {
                    *entry = *entry + c;
                    if entry.is_zero() {
                        self.terms.remove(&m);
                    }
                }
                None => {
                    self.terms.insert(m, c);
                }
            }
        }
    }

    fn neg(&self) -> Poly {
        Poly {
            terms: self.terms.iter().map(|(m, c)| (m.clone(), -*c)).collect(),
        }
    }

    fn mul(&self, other: &Poly) -> Poly {
        let mut out: BTreeMap<Monomial, Rat> = BTreeMap::new();
        for (m1, c1) in &self.terms {
            for (m2, c2) in &other.terms {
                let m = m1.times(m2);
                let c = *c1 * *c2;
                let entry = out.entry(m).or_insert(Rat::ZERO);
                *entry = *entry + c;
            }
        }
        out.retain(|_, c| !c.is_zero());
        Poly { terms: out }
    }

    fn powi(&self, exp: u32) -> Poly {
        let mut out = Poly::constant(Rat::ONE);
        for _ in 0..exp {
            out = out.mul(self);
        }
        out
    }

    fn as_const(&self) -> Option<Rat> {
        if self.terms.is_empty() {
            return Some(Rat::ZERO);
        }
        if self.terms.len() == 1 {
            let (m, c) = self.terms.iter().next().unwrap();
            if m.is_empty() {
                return Some(*c);
            }
        }
        None
    }

    /// The single-monomial view, if this polynomial has exactly one term.
    fn as_single(&self) -> Option<(&Monomial, Rat)> {
        if self.terms.len() == 1 {
            let (m, c) = self.terms.iter().next().unwrap();
            Some((m, *c))
        } else {
            None
        }
    }
}

/// Simplifies an expression into canonical sum-of-products form.
pub fn simplify(e: &Expr) -> Expr {
    from_poly(&to_poly(e))
}

/// A normal form that is still a polynomial — what [`simplify`] builds
/// before it writes it out as an [`Expr`]. A caller that goes on to form a
/// linear combination of expressions it has just normalised (the cost
/// engine's `Σ init·InitCom + bytes·UnitTr` over already-simplified edge
/// totals) combines the polynomials with [`Normal::add_scaled`] instead of
/// building the sum as an `Expr` and having `simplify` parse every term
/// back; the result is the one `simplify` of that sum would give.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Normal(Poly);

impl Normal {
    /// Normalises `e`; `Normal::of(e).expr() == simplify(e)`.
    pub fn of(e: &Expr) -> Normal {
        Normal(to_poly(e))
    }

    /// The normal form as an expression.
    pub fn expr(&self) -> Expr {
        from_poly(&self.0)
    }

    /// `self += coeff · term`.
    pub fn add_scaled(&mut self, coeff: Rat, term: &Normal) {
        self.0.add_scaled(coeff, &term.0);
    }
}

fn to_poly(e: &Expr) -> Poly {
    match e {
        Expr::Const(r) => Poly::constant(*r),
        Expr::Var(_) => Poly::atom(e.clone()),
        Expr::Add(_) => {
            // Nested sums (an accumulated total is a chain of them) add
            // into one polynomial.
            let mut acc = Poly::default();
            let mut stack = vec![e];
            while let Some(x) = stack.pop() {
                match x {
                    Expr::Add(xs) => stack.extend(xs.iter().rev()),
                    other => acc.absorb(to_poly(other)),
                }
            }
            acc
        }
        Expr::Mul(xs) => product_poly(xs.iter().map(|x| (x, 1))),
        Expr::Pow(base, k) => product_poly([(&**base, *k)]),
        Expr::Ceil(inner) => rounded(inner, true),
        Expr::Floor(inner) => rounded(inner, false),
        Expr::Max(xs) => fold_minmax(xs, true),
        Expr::Min(xs) => fold_minmax(xs, false),
        Expr::Log2(inner) => {
            let p = to_poly(inner);
            if let Some(c) = p.as_const() {
                if let Some(l) = c.exact_log2() {
                    return Poly::constant(Rat::int(l as i128));
                }
            }
            Poly::atom(from_poly(&p).log2())
        }
        Expr::Sum {
            var,
            from,
            to,
            body,
        } => sum_poly(var, from, to, body),
    }
}

/// Multiplies a list of `(factor, exponent)` pairs. Factors are first
/// canonicalized and collected into a multiset so that syntactically equal
/// factors with opposite exponents cancel *before* polynomial expansion —
/// this is what makes `(x+1) * 1/(x+1)` collapse to `1` even though the
/// inverse of a multi-term polynomial is otherwise an opaque atom.
///
/// Each factor is normalised once: the multiset holds the factors' `Poly`s
/// and compares those — two factors have the same normal form exactly when
/// they have the same polynomial — instead of writing every factor out as
/// an `Expr` key and parsing the key back into a `Poly`, which, a factor
/// being as deep as the loop nest it came from, used to redo the whole
/// subtree at every level.
fn product_poly<'a>(factors: impl IntoIterator<Item = (&'a Expr, i32)>) -> Poly {
    let mut coeff = Rat::ONE;
    let mut bases: Vec<(Poly, i32)> = Vec::new();
    let mut saw_zero = false;
    let mut stack: Vec<(&Expr, i32)> = factors.into_iter().collect();
    while let Some((x, k)) = stack.pop() {
        match x {
            Expr::Mul(inner) => stack.extend(inner.iter().map(|i| (i, k))),
            Expr::Pow(b, j) => stack.push((&**b, k.saturating_mul(*j))),
            other => {
                let p = to_poly(other);
                match p.as_const() {
                    Some(r) if r.is_zero() => saw_zero = true,
                    Some(r) => coeff = coeff * r.powi(k),
                    None => match bases.iter_mut().find(|(base, _)| *base == p) {
                        Some((_, exp)) => *exp += k,
                        None => bases.push((p, k)),
                    },
                }
            }
        }
    }
    if saw_zero {
        return Poly::default();
    }
    let mut acc = Poly::constant(coeff);
    for (p, exp) in bases {
        if exp != 0 {
            acc = acc.mul(&pow_poly(&p, exp));
        }
    }
    acc
}

fn pow_poly(p: &Poly, k: i32) -> Poly {
    if k == 0 {
        return Poly::constant(Rat::ONE);
    }
    if k > 0 {
        return p.powi(k as u32);
    }
    // Negative exponent: invert. Exact inversion is possible for a single
    // monomial; otherwise the whole polynomial becomes an atom.
    if let Some(c) = p.as_const() {
        return Poly::constant(c.powi(k));
    }
    if let Some((m, c)) = p.as_single() {
        // Invert atom by atom — except that a multi-term denominator coming
        // back up (`1/(1/(x+1))`) is a polynomial again, not an atom with a
        // positive exponent: sums are only ever atoms below the line.
        let mut inv = Monomial::new();
        let mut sums = Poly::constant(c.recip());
        for (a, e) in m {
            match a {
                Expr::Add(_) if *e < 0 => sums = sums.mul(&to_poly(a).powi(e.unsigned_abs())),
                _ => inv.push(a.clone(), -e),
            }
        }
        let base = sums.mul(&Poly {
            terms: [(inv, Rat::ONE)].into_iter().collect(),
        });
        return base.powi((-k) as u32);
    }
    Poly {
        terms: [(Monomial(vec![(from_poly(p), k)]), Rat::ONE)]
            .into_iter()
            .collect(),
    }
}

/// `ceil`/`floor` handling: fold constants, collapse nested rounding, and pull
/// integer-constant addends out (`ceil(x + 3) = ceil(x) + 3`).
fn rounded(inner: &Expr, is_ceil: bool) -> Poly {
    let p = to_poly(inner);
    if let Some(c) = p.as_const() {
        return Poly::constant(if is_ceil { c.ceil() } else { c.floor() });
    }
    // Split off an integer constant addend.
    let mut shifted = p.clone();
    let mut offset = Rat::ZERO;
    if let Some(c) = shifted.terms.get(&Monomial::new()).copied() {
        if c.is_integer() {
            offset = c;
            shifted.terms.remove(&Monomial::new());
        }
    }
    let rebuilt = from_poly(&shifted);
    // Nested rounding of the same kind collapses; a bare rounded atom of an
    // already-rounded expression also collapses.
    let atom = match (&rebuilt, is_ceil) {
        (Expr::Ceil(_), true) | (Expr::Floor(_), false) => rebuilt,
        _ if is_ceil => rebuilt.ceil(),
        _ => rebuilt.floor(),
    };
    Poly::atom(atom).add(&Poly::constant(offset))
}

fn fold_minmax(xs: &[Expr], is_max: bool) -> Poly {
    let mut consts: Vec<Rat> = Vec::new();
    let mut others: Vec<Expr> = Vec::new();
    let mut note = |s: Expr| match s.as_const() {
        Some(c) => consts.push(c),
        None => {
            if !others.contains(&s) {
                others.push(s);
            }
        }
    };
    let mut stack: Vec<&Expr> = xs.iter().collect();
    while let Some(x) = stack.pop() {
        match (x, is_max) {
            // Flatten same-kind nesting.
            (Expr::Max(inner), true) | (Expr::Min(inner), false) => stack.extend(inner.iter()),
            _ => match (simplify(x), is_max) {
                // An operand that only turns out to be a same-kind `max`/
                // `min` once simplified (`max(1*max(a, b), c)`) is flattened
                // too — its operands are normal and flat already — so that
                // a normal form parses back into itself.
                (Expr::Max(inner), true) | (Expr::Min(inner), false) => {
                    inner.iter().cloned().for_each(&mut note)
                }
                (s, _) => note(s),
            },
        }
    }
    let folded = if is_max {
        consts.into_iter().max()
    } else {
        consts.into_iter().min()
    };
    let mut items = others;
    if let Some(c) = folded {
        items.push(Expr::Const(c));
    }
    items.sort();
    items.dedup();
    match items.len() {
        0 => Poly::default(),
        1 => to_poly(&items[0]),
        _ => Poly::atom(if is_max {
            Expr::max_of(items)
        } else {
            Expr::min_of(items)
        }),
    }
}

/// Closed-form extraction for `Σ_{var=from}^{to} body` when `body` is a
/// polynomial of degree ≤ 3 in `var` (Faulhaber). Falls back to an unexpanded
/// `Sum` atom otherwise.
fn sum_poly(var: &str, from: &Expr, to: &Expr, body: &Expr) -> Poly {
    let from_p = to_poly(from);
    let to_p = to_poly(to);
    let body_p = to_poly(body);
    let a = from_poly(&from_p);
    let b = from_poly(&to_p);

    // Collect the body as Σ coeff(rest) * var^p. Bail out if `var` occurs
    // inside a non-variable atom (e.g. ceil(var/2)).
    let var_atom = Expr::var(var);
    let mut by_power: BTreeMap<i32, Poly> = BTreeMap::new();
    for (m, c) in &body_p.terms {
        let mut power = 0;
        let mut rest = Monomial::new();
        let mut opaque = false;
        for (atom, e) in m {
            if *atom == var_atom {
                power = *e;
            } else if atom.vars().contains(var) {
                opaque = true;
                break;
            } else {
                rest.push(atom.clone(), *e);
            }
        }
        if opaque || !(0..=3).contains(&power) {
            return Poly::atom(Expr::sum(var, a, b, from_poly(&body_p)));
        }
        let term = Poly {
            terms: [(rest, *c)].into_iter().collect(),
        };
        let slot = by_power.entry(power).or_default();
        *slot = slot.add(&term);
    }

    // Σ_{j=a}^{b} j^p  via prefix sums  S_p(b) - S_p(a-1).
    let prefix = |p: i32, n: &Poly| -> Poly {
        // S_p(n) = Σ_{j=1}^{n} j^p (valid as a polynomial identity for all n).
        let n1 = n.add(&Poly::constant(Rat::ONE));
        match p {
            0 => n.clone(),
            1 => n.mul(&n1).mul(&Poly::constant(Rat::new(1, 2))),
            2 => {
                let two_n1 = n
                    .mul(&Poly::constant(Rat::int(2)))
                    .add(&Poly::constant(Rat::ONE));
                n.mul(&n1).mul(&two_n1).mul(&Poly::constant(Rat::new(1, 6)))
            }
            3 => {
                let s1 = n.mul(&n1).mul(&Poly::constant(Rat::new(1, 2)));
                s1.mul(&s1)
            }
            _ => unreachable!("degree checked above"),
        }
    };
    let a_minus_1 = from_p.add(&Poly::constant(Rat::ONE).neg());
    let mut acc = Poly::default();
    for (p, coeff) in by_power {
        let span = prefix(p, &to_p).add(&prefix(p, &a_minus_1).neg());
        acc = acc.add(&coeff.mul(&span));
    }
    acc
}

fn from_poly(p: &Poly) -> Expr {
    if p.terms.is_empty() {
        return Expr::int(0);
    }
    let mut terms: Vec<Expr> = Vec::with_capacity(p.terms.len());
    for (m, c) in &p.terms {
        let coeff = (!c.is_one() || m.is_empty()).then_some(Expr::Const(*c));
        let len = usize::from(coeff.is_some()) + m.0.len();
        // An iterator of known length: the product's factors are written
        // straight into its shared slice, with no `Vec` in between.
        let mut factors = coeff
            .into_iter()
            .chain(m.into_iter().map(|(atom, e)| match *e {
                1 => atom.clone(),
                k => atom.clone().pow(k),
            }));
        terms.push(match len {
            1 => factors.next().expect("one factor"),
            _ => Expr::Mul(factors.collect()),
        });
    }
    if terms.len() == 1 {
        terms.pop().unwrap()
    } else {
        Expr::Add(terms.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(n: &str) -> Expr {
        Expr::var(n)
    }

    /// `product_poly` as it was before it carried each factor's `Poly`:
    /// `simplify` the factor to an `Expr`, key by it, parse the key again.
    /// Kept as the parity oracle (Deletion policy).
    fn product_poly_reference(factors: impl IntoIterator<Item = (Expr, i32)>) -> Poly {
        let mut coeff = Rat::ONE;
        let mut bases: BTreeMap<Expr, i32> = BTreeMap::new();
        let mut saw_zero = false;
        let mut stack: Vec<(Expr, i32)> = factors.into_iter().collect();
        while let Some((x, k)) = stack.pop() {
            match x {
                Expr::Mul(inner) => stack.extend(inner.iter().map(|i| (i.clone(), k))),
                Expr::Pow(b, j) => stack.push(((*b).clone(), k.saturating_mul(j))),
                other => {
                    let s = simplify(&other);
                    match s {
                        Expr::Const(r) => {
                            if r.is_zero() {
                                saw_zero = true;
                            } else {
                                coeff = coeff * r.powi(k);
                            }
                        }
                        s => *bases.entry(s).or_insert(0) += k,
                    }
                }
            }
        }
        if saw_zero {
            return Poly::default();
        }
        let mut acc = Poly::constant(coeff);
        for (base, exp) in bases {
            if exp != 0 {
                acc = acc.mul(&pow_poly(&to_poly(&base), exp));
            }
        }
        acc
    }

    /// `simplify` with the reference product at the top node. Below it the
    /// reference calls `simplify` on strict subexpressions, so holding
    /// `simplify(s) == simplify_reference(s)` for every subexpression `s`
    /// of an input is the induction that the two agree on the input.
    fn simplify_reference(e: &Expr) -> Expr {
        from_poly(&match e {
            Expr::Mul(xs) => product_poly_reference(xs.iter().map(|x| (x.clone(), 1))),
            Expr::Pow(base, k) => product_poly_reference([((**base).clone(), *k)]),
            other => to_poly(other),
        })
    }

    fn subexpressions<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        out.push(e);
        match e {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Add(xs) | Expr::Mul(xs) | Expr::Max(xs) | Expr::Min(xs) => {
                xs.iter().for_each(|x| subexpressions(x, out))
            }
            Expr::Pow(x, _) | Expr::Ceil(x) | Expr::Floor(x) | Expr::Log2(x) => {
                subexpressions(x, out)
            }
            Expr::Sum { from, to, body, .. } => {
                [from, to, body].iter().for_each(|x| subexpressions(x, out))
            }
        }
    }

    /// splitmix64, seeded per case by proptest.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize]
        }
    }

    /// Cost-formula-shaped expressions: products and quotients of sums
    /// nested a few levels deep (one level per loop of a candidate), with
    /// repeated subterms so that bases meet and cancel, rounding, `max`/
    /// `min`, logarithms and bounded sums.
    fn formula(g: &mut Gen, depth: u32) -> Expr {
        if depth == 0 || g.below(5) == 0 {
            return match g.below(3) {
                0 => Expr::rat(g.below(7) as i128 - 2, g.below(3) as i128 + 1),
                1 => Expr::int(g.pick(&[0, 1, 2, 3, 8])),
                _ => v(g.pick(&["x", "y", "k1", "k2", "b_out"])),
            };
        }
        let list = |g: &mut Gen, min: u64| -> Vec<Expr> {
            (0..min + g.below(3))
                .map(|_| formula(g, depth - 1))
                .collect()
        };
        match g.below(12) {
            0..=2 => Expr::Mul(list(g, 1).into()),
            3 | 4 => Expr::Add(list(g, 1).into()),
            5 => formula(g, depth - 1).pow(g.pick(&[-2, -1, -1, 0, 1, 2])),
            6 => {
                // The shape that cancels: d * (… / d).
                let d = formula(g, depth - 1);
                d.clone() * (formula(g, depth - 1) / d)
            }
            7 => formula(g, depth - 1).ceil(),
            8 => formula(g, depth - 1).floor(),
            9 => Expr::max_of(list(g, 1)),
            10 => match g.below(2) {
                0 => Expr::min_of(list(g, 1)),
                _ => formula(g, depth - 1).log2(),
            },
            _ => Expr::sum(
                "j",
                Expr::int(g.below(2) as i128),
                formula(g, 1),
                formula(g, depth - 1) * v("j").pow(g.pick(&[0, 1, 1, 2, 4])),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        #[test]
        fn simplify_equals_the_reference_on_every_subexpression(seed in 0u64..u64::MAX) {
            let e = formula(&mut Gen(seed), 4);
            let mut subs = Vec::new();
            subexpressions(&e, &mut subs);
            for s in subs {
                prop_assert_eq!(simplify(s), simplify_reference(s), "for {}", s);
            }
        }

        /// What carrying the `Poly` relies on: a normal form parses back
        /// into the polynomial it was built from.
        #[test]
        fn a_normal_form_parses_back_into_its_polynomial(seed in 0u64..u64::MAX) {
            let e = formula(&mut Gen(seed), 4);
            let mut subs = Vec::new();
            subexpressions(&e, &mut subs);
            for s in subs {
                let p = to_poly(s);
                prop_assert_eq!(to_poly(&from_poly(&p)), p, "for {}", s);
            }
        }
    }

    #[test]
    fn combines_like_terms() {
        let x = v("x");
        let e = x.clone() + x.clone() + Expr::int(3) * x.clone() - x.clone();
        assert_eq!(simplify(&e), simplify(&(Expr::int(4) * v("x"))));
    }

    #[test]
    fn cancels_divisions() {
        let e = v("k") * v("x") / v("k");
        assert_eq!(simplify(&e), Expr::var("x"));
    }

    #[test]
    fn expands_products() {
        let e = (v("x") + Expr::int(1)) * (v("x") - Expr::int(1));
        let expect = simplify(&(v("x") * v("x") - Expr::int(1)));
        assert_eq!(simplify(&e), expect);
    }

    #[test]
    fn folds_constants() {
        let e = Expr::rat(1, 2) + Expr::rat(1, 3) * Expr::int(6);
        assert_eq!(simplify(&e), Expr::rat(5, 2));
    }

    #[test]
    fn paper_insertion_sort_sum() {
        // Σ_{j=0}^{x-1} (seek + (j+1)·unit)  =  x·seek + x(x+1)/2·unit
        let body = v("seek") + (v("j") + Expr::int(1)) * v("unit");
        let s = Expr::sum("j", Expr::int(0), v("x") - Expr::int(1), body);
        let got = simplify(&s);
        let expect = simplify(
            &(v("x") * v("seek") + v("x") * (v("x") + Expr::int(1)) * Expr::rat(1, 2) * v("unit")),
        );
        assert_eq!(got, expect);
    }

    #[test]
    fn sum_of_squares_closed_form() {
        let s = Expr::sum("j", Expr::int(1), v("n"), v("j") * v("j"));
        let got = simplify(&s);
        let expect = simplify(
            &(v("n")
                * (v("n") + Expr::int(1))
                * (Expr::int(2) * v("n") + Expr::int(1))
                * Expr::rat(1, 6)),
        );
        assert_eq!(got, expect);
    }

    #[test]
    fn opaque_sum_is_kept() {
        let s = Expr::sum("j", Expr::int(0), v("n"), v("j").ceil());
        let got = simplify(&s);
        assert!(matches!(got, Expr::Sum { .. }), "got {got}");
    }

    #[test]
    fn minmax_folding() {
        let e = Expr::max_of(vec![Expr::int(3), Expr::int(7), v("x")]);
        match simplify(&e) {
            Expr::Max(items) => {
                assert_eq!(items.len(), 2);
                assert!(items.contains(&Expr::int(7)));
                assert!(items.contains(&v("x")));
            }
            other => panic!("expected max, got {other}"),
        }
        assert_eq!(
            simplify(&Expr::min_of(vec![Expr::int(3), Expr::int(7)])),
            Expr::int(3)
        );
        assert_eq!(simplify(&Expr::max_of(vec![v("x"), v("x")])), v("x"));
    }

    #[test]
    fn ceil_constant_and_offset() {
        assert_eq!(simplify(&Expr::rat(7, 2).ceil()), Expr::int(4));
        let e = (v("x") + Expr::int(3)).ceil();
        let got = simplify(&e);
        let expect = simplify(&(v("x").ceil() + Expr::int(3)));
        assert_eq!(got, expect);
    }

    #[test]
    fn log2_power_of_two() {
        assert_eq!(simplify(&Expr::int(1024).log2()), Expr::int(10));
        assert!(matches!(simplify(&v("x").log2()), Expr::Log2(_)));
    }

    #[test]
    fn division_by_multiterm_is_atom_but_cancels() {
        let d = v("x") + Expr::int(1);
        let e = d.clone() * (Expr::one() / d.clone());
        assert_eq!(simplify(&e), Expr::int(1));
    }

    #[test]
    fn a_max_that_appears_on_simplification_is_flattened() {
        // `1*max(a, b)` is not a `max` until simplified; it used to stay
        // nested, and flatten only on a second `simplify`.
        let nested = Expr::max_of(vec![Expr::one() * v("a").max(v("b")), v("c")]);
        let flat = Expr::max_of(vec![v("a"), v("b"), v("c")]);
        assert_eq!(simplify(&nested), simplify(&flat));
        assert_eq!(simplify(&simplify(&nested)), simplify(&nested));
    }

    #[test]
    fn a_sum_leaves_the_denominator_as_a_polynomial() {
        // 1/min(1/(x+1)): the inverse of the single monomial (x+1)^-1 used
        // to be the atom (x+1)^1, expanded only by a second `simplify`.
        let d = v("x") + Expr::int(1);
        let e = Expr::min_of(vec![d.clone().recip()]).recip() * v("y");
        assert_eq!(simplify(&e), simplify(&(d * v("y"))));
    }

    #[test]
    fn a_linear_combination_of_normal_forms_is_the_simplified_sum() {
        let a = (v("x") / v("k1")).ceil() + v("x") * v("y") / (v("k1") * v("k2"));
        let b = v("x") * Expr::int(8) + (v("x") / v("k1")) * v("y") * Expr::int(8);
        let (ca, cb) = (Rat::new(3, 200), Rat::new(1, 31_457_280));
        let (na, nb) = (Normal::of(&a), Normal::of(&b));
        let mut total = Normal::default();
        total.add_scaled(ca, &na);
        total.add_scaled(cb, &nb);
        total.add_scaled(Rat::ZERO, &na);
        // The sum the cost engine used to build and re-parse.
        let as_expr = Expr::zero() + na.expr() * Expr::Const(ca) + nb.expr() * Expr::Const(cb);
        assert_eq!(total.expr(), simplify(&as_expr));
        // Opposite terms cancel to the empty polynomial.
        total.add_scaled(-ca, &na);
        total.add_scaled(-cb, &nb);
        assert_eq!(total, Normal::default());
        assert_eq!(total.expr(), Expr::int(0));
    }

    #[test]
    fn simplify_is_idempotent() {
        let exprs = [
            v("x") / v("k") + v("y") * Expr::rat(2, 3),
            Expr::sum("j", Expr::int(0), v("n"), v("j")),
            Expr::max_of(vec![v("a"), v("b"), Expr::int(1)]),
            (v("x") + Expr::int(2)).ceil() * v("k").recip(),
        ];
        for e in exprs {
            let once = simplify(&e);
            let twice = simplify(&once);
            assert_eq!(once, twice, "not idempotent for {e}");
        }
    }
}
