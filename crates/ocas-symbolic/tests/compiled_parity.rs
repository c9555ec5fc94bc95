//! The compiled evaluator against the tree-walking evaluator it replaced
//! (`oracle/mod.rs`), bit for bit: the same `f64` by `to_bits()` where the
//! oracle returns one, the same `EvalError` — variant and variable name, so
//! the *first* error in traversal order — where it does not. This is what
//! lets the tuner run on the compiled form without moving a golden.

mod oracle;

use ocas_symbolic::{eval, Compiled, Env, EvalError, Expr, Slots};
use oracle::eval_tree;
use proptest::prelude::*;

/// splitmix64: the generator's own stream, seeded per case by proptest.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

const VARS: [&str; 5] = ["x", "y", "k", "j", "b_out"];

/// A random expression over `VARS`: every node kind, `Pow` with negative
/// and zero exponents (so `0^-1` and overflow happen), `Log2` of whatever
/// comes (zero and negatives included), `Max`/`Min` of zero, one or several
/// operands, and `Σ` over small, empty and — rarely — oversized ranges whose
/// variable is one of `VARS`, so it shadows an outer binding.
fn expr(g: &mut Gen, depth: u32) -> Expr {
    let leaf = depth == 0 || g.below(4) == 0;
    if leaf {
        return match g.below(3) {
            0 => Expr::rat(g.below(9) as i128 - 3, g.below(4) as i128 + 1),
            1 => Expr::int(g.pick(&[0, 1, 2, 1024, 1 << 40])),
            _ => Expr::var(g.pick(&VARS)),
        };
    }
    let list = |g: &mut Gen, min: u64| -> Vec<Expr> {
        (0..min + g.below(3)).map(|_| expr(g, depth - 1)).collect()
    };
    match g.below(10) {
        0 | 1 => Expr::Add(list(g, 0).into()),
        2 | 3 => Expr::Mul(list(g, 0).into()),
        4 => Expr::Max(list(g, 0).into()),
        5 => Expr::Min(list(g, 1).into()),
        6 => expr(g, depth - 1).pow(g.pick(&[-3, -1, 0, 1, 2, 400])),
        7 => match g.below(3) {
            0 => expr(g, depth - 1).ceil(),
            1 => expr(g, depth - 1).floor(),
            _ => expr(g, depth - 1).log2(),
        },
        _ => {
            let var = g.pick(&["j", "x", "t"]);
            let from = if g.below(3) == 0 {
                expr(g, 1)
            } else {
                Expr::int(g.below(4) as i128 - 1)
            };
            let to = match g.below(8) {
                0 => Expr::int(5_000_000),
                1 | 2 => expr(g, 1),
                _ => Expr::int(g.below(6) as i128 - 1),
            };
            Expr::sum(var, from, to, expr(g, depth - 1))
        }
    }
}

/// Binds each of `VARS` with probability 3/4.
fn env(g: &mut Gen) -> Env {
    let mut env = Env::new();
    for v in VARS {
        if g.below(4) != 0 {
            env.set(v, g.pick(&[0.0, 1.0, -2.5, 3.0, 7.5, 1000.0, 1e9, 0.1]));
        }
    }
    env
}

fn same(a: &Result<f64, EvalError>, b: &Result<f64, EvalError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => a.to_bits() == b.to_bits(),
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn compiled_equals_the_tree_walk_bit_for_bit(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let e = expr(&mut g, 4);
        let env = env(&mut g);
        let want = eval_tree(&e, &env);

        prop_assert!(same(&eval(&e, &env), &want), "eval: {e} under {env:?}");

        // The reusable form: evaluating leaves the table as it found it
        // (every Σ put its slot back, errors included), so a second
        // evaluation sees the same bindings and says the same thing.
        let mut slots = Slots::new();
        let formula = Compiled::new(&e, &mut slots);
        slots.bind_env(&env);
        let before = slots.clone();
        let first = formula.eval(&mut slots);
        prop_assert!(same(&first, &want), "compiled: {e} under {env:?}");
        prop_assert!(slots == before, "bindings moved: {e} under {env:?}");
        prop_assert!(same(&formula.eval(&mut slots), &want));
    }

    #[test]
    fn formulas_sharing_a_table_do_not_disturb_each_other(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let (a, b) = (expr(&mut g, 3), expr(&mut g, 3));
        let env = env(&mut g);
        let mut slots = Slots::new();
        let (fa, fb) = (Compiled::new(&a, &mut slots), Compiled::new(&b, &mut slots));
        slots.bind_env(&env);
        for _ in 0..2 {
            prop_assert!(same(&fa.eval(&mut slots), &eval_tree(&a, &env)));
            prop_assert!(same(&fb.eval(&mut slots), &eval_tree(&b, &env)));
        }
    }
}

#[test]
fn the_generator_reaches_every_outcome() {
    // Guards the property above against a generator that only ever
    // produces, say, unbound-variable errors.
    let (mut ok, mut unbound, mut too_large, mut pow, mut log2) = (0, 0, 0, 0, 0);
    for seed in 0..4000u64 {
        let mut g = Gen(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let e = expr(&mut g, 4);
        match eval_tree(&e, &env(&mut g)) {
            Ok(_) => ok += 1,
            Err(EvalError::UnboundVariable(_)) => unbound += 1,
            Err(EvalError::SumTooLarge { .. }) => too_large += 1,
            Err(EvalError::NonFinite("pow")) => pow += 1,
            Err(EvalError::NonFinite(_)) => log2 += 1,
        }
    }
    for (what, n) in [
        ("Ok", ok),
        ("UnboundVariable", unbound),
        ("SumTooLarge", too_large),
        ("NonFinite(pow)", pow),
        ("NonFinite(log2)", log2),
    ] {
        assert!(n >= 20, "only {n} of 4000 cases end in {what}");
    }
}

#[test]
fn a_sum_shadows_an_outer_binding_and_restores_it() {
    // j is bound outside to 100; inside the sum it is 1, 2, 3.
    let e = Expr::var("j") + Expr::sum("j", Expr::int(1), Expr::int(3), Expr::var("j"));
    let mut slots = Slots::new();
    let formula = Compiled::new(&e, &mut slots);
    let j = slots.slot("j");
    slots.set(j, 100.0);
    assert_eq!(formula.eval(&mut slots), Ok(106.0));
    assert_eq!(slots.get(j), Some(100.0));
    assert_eq!(eval_tree(&e, &Env::new().with("j", 100.0)), Ok(106.0));

    // An outer *unbound* slot is unbound again afterwards: the free `j`
    // after the sum is still an error, as it is for the tree walk.
    let e = Expr::sum("j", Expr::int(1), Expr::int(3), Expr::var("j")) + Expr::var("j");
    let mut slots = Slots::new();
    let formula = Compiled::new(&e, &mut slots);
    let j = slots.slot("j");
    let want = Err(EvalError::UnboundVariable("j".into()));
    assert_eq!(formula.eval(&mut slots), want);
    assert_eq!(slots.get(j), None);
    assert_eq!(eval_tree(&e, &Env::new()), want);
}

#[test]
fn a_sum_whose_body_fails_midway_still_restores_the_outer_binding() {
    // 1/(j-2) is fine at j = 1 and not finite at j = 2.
    let body = (Expr::var("j") - Expr::int(2)).recip();
    let e = Expr::sum("j", Expr::int(1), Expr::int(3), body);
    let mut slots = Slots::new();
    let formula = Compiled::new(&e, &mut slots);
    let j = slots.slot("j");
    slots.set(j, 42.0);
    assert_eq!(formula.eval(&mut slots), Err(EvalError::NonFinite("pow")));
    assert_eq!(slots.get(j), Some(42.0));
    assert_eq!(
        eval_tree(&e, &Env::new().with("j", 42.0)),
        Err(EvalError::NonFinite("pow"))
    );
}

#[test]
fn the_first_error_in_traversal_order_is_the_one_reported() {
    let e = Expr::var("a") + Expr::int(0).recip() + Expr::var("b");
    assert_eq!(
        eval(&e, &Env::new()),
        Err(EvalError::UnboundVariable("a".into()))
    );
    assert_eq!(
        eval(&e, &Env::new().with("a", 1.0)),
        Err(EvalError::NonFinite("pow"))
    );
    // A variable that is never reached may stay unbound: the range is empty.
    let e = Expr::sum("j", Expr::int(1), Expr::int(0), Expr::var("nobody"));
    assert_eq!(eval(&e, &Env::new()), Ok(0.0));
}

#[test]
fn saturated_sum_bounds_are_too_large_not_an_overflow() {
    // 2^40 * 2^40 saturates the i64 bound; `hi - lo + 1` used to overflow.
    let huge = Expr::int(1 << 40) * Expr::int(1 << 40);
    let e = Expr::sum("j", -huge.clone(), huge, Expr::var("j"));
    let want = Err(EvalError::SumTooLarge {
        var: "j".into(),
        span: u64::MAX,
    });
    assert_eq!(eval(&e, &Env::new()), want);
    assert_eq!(eval_tree(&e, &Env::new()), want);
}
