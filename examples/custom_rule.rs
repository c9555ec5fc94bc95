//! Extensibility: adding a custom transformation rule.
//!
//! The paper's architecture lets developers extend the rule library "as new
//! hardware platforms become available and new algorithms are proposed".
//! This example defines a (deliberately simple) rule — eliminating a
//! double input-ordering wrapper — registers it next to the defaults, and
//! shows the search using it.
//!
//! Run with: `cargo run --release --example custom_rule`

use ocal::{parse, pretty, Expr, Type, TypeEnv};
use ocas_hierarchy::presets;
use ocas_rewrite::{default_rules, search, Rule, RuleCtx, SearchConfig};
use std::collections::BTreeMap;

/// A toy rule: `[e] ++ [] ⇒ [e]` (right-identity of list union).
struct UnionIdentity;

impl Rule for UnionIdentity {
    fn name(&self) -> &'static str {
        "union-identity"
    }

    fn apply(&self, e: &Expr, _cx: &mut RuleCtx<'_>) -> Vec<Expr> {
        if let Expr::Union { left, right } = e {
            if matches!(**right, Expr::Empty) {
                return vec![(**left).clone()];
            }
            if matches!(**left, Expr::Empty) {
                return vec![(**right).clone()];
            }
        }
        vec![]
    }
}

fn main() {
    let env: TypeEnv = [(
        "R".to_string(),
        Type::list(Type::tuple(vec![Type::Int, Type::Int])),
    )]
    .into_iter()
    .collect();
    let inputs: BTreeMap<String, String> =
        [("R".to_string(), "HDD".to_string())].into_iter().collect();
    let h = presets::hdd_ram(1 << 20);

    // A program with a redundant `++ []`.
    let spec = parse("for (x <- R) ([x] ++ [])").unwrap();
    println!("spec: {}", pretty(&spec));

    let mut rules = default_rules();
    rules.push(Box::new(UnionIdentity));

    let result = search(
        &spec,
        &env,
        &h,
        &inputs,
        None,
        &rules,
        &SearchConfig {
            max_depth: 3,
            max_programs: 200,
            validation: None,
        },
    )
    .unwrap();

    println!("explored {} programs:", result.stats.explored);
    for (p, depth) in result.programs.iter().take(8) {
        println!("  [depth {depth}] {}", pretty(p));
    }
    let simplified = result
        .programs
        .iter()
        .any(|(p, _)| pretty(p) == "for (x <- R) [x]");
    assert!(simplified, "the custom rule must fire");
    println!("\n=> custom rule `union-identity` participated in the search.");
}
