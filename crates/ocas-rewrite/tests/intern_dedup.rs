//! Property: the arena's canonical interning partitions rule-generated
//! candidates exactly like the legacy `dedup_key`-on-`Expr` path — two
//! candidates share an `ExprId` iff their legacy keys are equal, so both
//! dedup implementations produce identical distinct-program sets.

use ocal::{parse, Expr, ExprId, Interner, Type, TypeEnv};
use ocas_hierarchy::presets;
use ocas_rewrite::{dedup_key, next_fresh_index, rewrite_everywhere, RuleCtx};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};

fn specs() -> Vec<(Expr, TypeEnv, BTreeMap<String, String>)> {
    let rel = Type::list(Type::tuple(vec![Type::Int, Type::Int]));
    let join_env: TypeEnv = [("R".to_string(), rel.clone()), ("S".to_string(), rel)]
        .into_iter()
        .collect();
    let sort_env: TypeEnv = [("R".to_string(), Type::list(Type::list(Type::Int)))]
        .into_iter()
        .collect();
    let agg_env: TypeEnv = [("L".to_string(), Type::list(Type::Int))]
        .into_iter()
        .collect();
    let on_hdd = |names: &[&str]| -> BTreeMap<String, String> {
        names
            .iter()
            .map(|n| (n.to_string(), "HDD".to_string()))
            .collect()
    };
    vec![
        (
            parse("for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []").unwrap(),
            join_env.clone(),
            on_hdd(&["R", "S"]),
        ),
        (
            parse("for (x <- R) for (y <- S) [<x, y>]").unwrap(),
            join_env,
            on_hdd(&["R", "S"]),
        ),
        (
            parse("foldL([], unfoldR(mrg))(R)").unwrap(),
            sort_env,
            on_hdd(&["R"]),
        ),
        (parse("avg(L)").unwrap(), agg_env, on_hdd(&["L"])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random rule-derived candidate pools partition identically under the
    /// interner and under the legacy key.
    #[test]
    fn interned_dedup_agrees_with_legacy_dedup_key(
        spec_idx in 0usize..4,
        steps in proptest::collection::vec((0usize..64, 0usize..64), 0..5),
    ) {
        let h = presets::hdd_ram_cache(8 << 20);
        let rules = ocas_rewrite::default_rules();
        let (spec, env, inputs) = specs().swap_remove(spec_idx);

        // Walk a random derivation, pooling every candidate generated on
        // the way (the same population the search deduplicates).
        let mut pool: Vec<Expr> = vec![spec.clone()];
        let mut current = spec;
        for (pick, _salt) in steps {
            let mut cx = RuleCtx {
                hierarchy: &h,
                env: &env,
                input_nodes: &inputs,
                output: None,
                fresh: next_fresh_index(&current),
                bound: Vec::new(),
            };
            let candidates = rewrite_everywhere(&current, &rules, &mut cx);
            if candidates.is_empty() {
                break;
            }
            let next = candidates[pick % candidates.len()].clone();
            pool.extend(candidates);
            current = next;
        }

        // Interner partition vs legacy-key partition must be the same
        // equivalence relation: each canonical id maps to exactly one
        // legacy key and vice versa.
        let mut interner = Interner::new();
        let mut id_to_key: HashMap<ExprId, Expr> = HashMap::new();
        let mut key_to_id: HashMap<Expr, ExprId> = HashMap::new();
        for cand in &pool {
            let id = interner.canonical(cand);
            let key = dedup_key(cand);
            if let Some(prev) = id_to_key.get(&id) {
                prop_assert_eq!(
                    prev, &key,
                    "one ExprId covers two distinct legacy keys"
                );
            } else {
                id_to_key.insert(id, key.clone());
            }
            if let Some(prev) = key_to_id.get(&key) {
                prop_assert_eq!(
                    *prev, id,
                    "one legacy key split across two ExprIds"
                );
            } else {
                key_to_id.insert(key, id);
            }
        }
        // Identical distinct-program sets under both dedup paths.
        let legacy_distinct: HashSet<Expr> = pool.iter().map(dedup_key).collect();
        prop_assert_eq!(id_to_key.len(), legacy_distinct.len());
    }
}
