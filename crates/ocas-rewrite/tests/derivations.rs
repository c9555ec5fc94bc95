//! Replays the paper's §6 derivation of the Block Nested Loops Join step by
//! step, checking that every intermediate program of the published chain is
//! reachable in the search space:
//!
//! ```text
//! naive            ⇒ apply-block ×2
//! blocked          ⇒ swap-iter(-cond) + seq-ac
//! seq-annotated    ⇒ order-inputs
//! textbook BNL
//! ```

use ocal::{parse, pretty, Type, TypeEnv};
use ocas_hierarchy::presets;
use ocas_rewrite::{default_rules, search, Equivalence, SearchConfig, ValidationCfg};
use std::collections::BTreeMap;

fn join_env() -> TypeEnv {
    let rel = Type::list(Type::tuple(vec![Type::Int, Type::Int]));
    [("R".to_string(), rel.clone()), ("S".to_string(), rel)]
        .into_iter()
        .collect()
}

fn hdd_inputs() -> BTreeMap<String, String> {
    [("R", "HDD"), ("S", "HDD")]
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect()
}

fn space(depth: u32) -> Vec<String> {
    let h = presets::hdd_ram(8 << 20);
    let env = join_env();
    let inputs = hdd_inputs();
    let spec = parse("for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []").unwrap();
    let cfg = SearchConfig {
        max_depth: depth,
        max_programs: 3000,
        validation: Some(ValidationCfg::new(
            env.clone(),
            Equivalence::BagModuloFieldOrder,
        )),
    };
    let result = search(&spec, &env, &h, &inputs, None, &default_rules(), &cfg).unwrap();
    result.programs.iter().map(|(p, _)| pretty(p)).collect()
}

#[test]
fn derivation_step1_single_blocking() {
    let programs = space(1);
    // apply-block on either loop.
    assert!(
        programs
            .iter()
            .any(|p| p.contains("[k") && p.contains("<- R")),
        "blocking R missing: {programs:#?}"
    );
    assert!(
        programs
            .iter()
            .any(|p| p.contains("<- S") && p.contains("[k")),
        "blocking S missing"
    );
    // swap-iter-cond applies at depth 1 too (the paper's if-variant).
    assert!(
        programs
            .iter()
            .any(|p| p.starts_with("for (y <- S) for (x <- R)")),
        "swap-iter(-cond) missing at depth 1"
    );
}

#[test]
fn derivation_step2_double_blocking() {
    let programs = space(2);
    // Both relations blocked simultaneously.
    assert!(
        programs.iter().any(|p| {
            let blocked_r = p.contains("<- R") && p.matches("[k").count() >= 2;
            blocked_r && p.contains("<- S")
        }),
        "double blocking missing"
    );
}

#[test]
fn derivation_step3_seq_annotation_on_inner_scan() {
    let programs = space(3);
    assert!(
        programs.iter().any(|p| p.contains("for[HDD >> RAM]")),
        "seq-ac missing at depth 3"
    );
}

#[test]
fn derivation_step4_order_inputs_wrapper() {
    let programs = space(4);
    assert!(
        programs
            .iter()
            .any(|p| p.contains("length") && p.contains("for[HDD >> RAM]")),
        "ordered + seq-annotated program missing at depth 4"
    );
}

#[test]
fn sort_derivation_reaches_every_intermediate() {
    // §7.2: insertion sort ⇒ fldL-to-trfld ⇒ funcPow-intro ⇒ inc-branching*
    //       ⇒ blocked unfoldR.
    let h = presets::hdd_ram(260 * 1024);
    let env: TypeEnv = [("R".to_string(), Type::list(Type::list(Type::Int)))]
        .into_iter()
        .collect();
    let inputs: BTreeMap<String, String> =
        [("R".to_string(), "HDD".to_string())].into_iter().collect();
    let spec = parse("foldL([], unfoldR(mrg))(R)").unwrap();
    let cfg = SearchConfig {
        max_depth: 7,
        max_programs: 500,
        validation: Some(ValidationCfg::new(env.clone(), Equivalence::Exact).with_sorted_inputs()),
    };
    let result = search(&spec, &env, &h, &inputs, None, &default_rules(), &cfg).unwrap();
    let programs: Vec<String> = result.programs.iter().map(|(p, _)| pretty(p)).collect();
    for expected in [
        "treeFold[2](<[], unfoldR(mrg)>)(R)",
        "treeFold[2](<[], unfoldR(funcPow[1](mrg))>)(R)",
        "treeFold[4](<[], unfoldR(funcPow[2](mrg))>)(R)",
        "treeFold[8](<[], unfoldR(funcPow[3](mrg))>)(R)",
    ] {
        assert!(
            programs.iter().any(|p| p == expected),
            "missing intermediate `{expected}` in: {programs:#?}"
        );
    }
    // Blocked variants of the merges appear as well.
    assert!(
        programs
            .iter()
            .any(|p| p.contains("unfoldR[k") && p.contains("funcPow")),
        "no blocked unfoldR variant found"
    );
}

#[test]
fn every_program_in_the_space_is_semantically_valid() {
    // The search already validates; this re-validates a sample with a
    // different seed to guard against coincidental agreement.
    let h = presets::hdd_ram(8 << 20);
    let env = join_env();
    let inputs = hdd_inputs();
    let spec = parse("for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []").unwrap();
    let cfg = SearchConfig {
        max_depth: 3,
        max_programs: 300,
        validation: Some(ValidationCfg::new(
            env.clone(),
            Equivalence::BagModuloFieldOrder,
        )),
    };
    let result = search(&spec, &env, &h, &inputs, None, &default_rules(), &cfg).unwrap();
    let mut recheck = ValidationCfg::new(env.clone(), Equivalence::BagModuloFieldOrder);
    recheck.seed = 0xfeed_beef;
    recheck.rounds = 6;
    for (p, _) in &result.programs {
        assert!(
            ocas_rewrite::differential_check(&spec, p, &recheck),
            "program fails under a fresh seed: {}",
            pretty(p)
        );
    }
}
