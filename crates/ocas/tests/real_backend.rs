//! The acceptance check for the real-I/O backend: a **synthesized** GRACE
//! hash join, 2ᵏ-way external merge-sort and block-nested-loops join run
//! end-to-end through the `ocas-runtime` `FileBackend` on real temp files,
//! and their outputs are byte-identical to (1) the OCAL reference
//! interpreter evaluating the naive specification (for the BNL join: the
//! plan's own blocked loop nest, row for row) and (2) the simulator's
//! faithful mode.
//!
//! Synthesis happens at the experiments' paper scale (that is where GRACE
//! and wide merges win); execution happens at faithful scale with the
//! block parameters scaled down to the data (the shapes, not the tuned
//! constants, are the claim under test).

use ocas::experiments;
use ocas::verify;
use ocas_engine::{Output, Plan, RelSpec, Relation, Row};
use ocas_storage::StorageSim;
use std::collections::BTreeMap;

/// Regenerates the exact rows `Runtime::run_plan` will generate for a spec
/// (same seed convention: relation `i` gets `seed + i`).
fn rows_for(spec: &RelSpec, seed: u64) -> Vec<Row> {
    let h = ocas_hierarchy::presets::hdd_ram(1 << 25);
    let mut sm = StorageSim::from_hierarchy(&h);
    Relation::create(&mut sm, spec, true, seed)
        .unwrap()
        .collect_rows()
        .unwrap()
        .to_rows()
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// The rows of an interpreter result whose elements are (nested) tuples of
/// integers: `<<a, b>, <c, d>>` -> `[a, b, c, d]`.
fn interpreter_rows(v: &ocal::Value) -> Vec<Row> {
    v.as_list()
        .unwrap()
        .iter()
        .map(|row| {
            row.to_string()
                .chars()
                .filter(|c| c.is_ascii_digit() || *c == ' ' || *c == '-')
                .collect::<String>()
                .split_whitespace()
                .map(|t| t.parse().unwrap())
                .collect()
        })
        .collect()
}

/// Binary relations as interpreter inputs.
fn pair_inputs(rels: &[(&str, &[Row])]) -> BTreeMap<String, ocal::Value> {
    rels.iter()
        .map(|(name, rows)| {
            let pairs: Vec<(i64, i64)> = rows.iter().map(|r| (r[0], r[1])).collect();
            (name.to_string(), ocal::Value::pair_list(&pairs))
        })
        .collect()
}

#[test]
fn synthesized_grace_join_runs_on_real_files_three_way_identical() {
    // Synthesize at paper scale with the search scoped to the hash family
    // (as the paper scopes rules per experiment): the blocked-loop rules
    // are excluded, so winning at all means deriving the GRACE pipeline.
    let mut e = experiments::grace_hash_join();
    e.exclude_rules = vec![
        "prefetch",
        "fldL-to-trfld",
        "apply-block",
        "swap-iter",
        "swap-iter-cond",
        "order-inputs",
        "seq-ac",
    ];
    e.depth = 3;
    e.max_programs = 100;
    let synth = e.synthesize().expect("synthesis");
    assert!(
        verify::is_grace_hash_join(&synth.best.program),
        "winner is not a GRACE join: {}",
        ocal::pretty(&synth.best.program)
    );

    // Execute for real at faithful scale.
    let rel_specs = vec![
        RelSpec::pairs("R", "HDD", 300).with_key_range(50),
        RelSpec::pairs("S", "HDD", 200).with_key_range(50),
    ];
    let seed = 42;
    let setup = e.real_setup(rel_specs.clone(), seed);
    let report = synth.run_real(&setup).expect("real execution");

    // (2) real ≡ simulator faithful mode, byte for byte.
    assert!(
        report.outputs_match(),
        "real vs simulated outputs differ: {} vs {} rows",
        report.output.len(),
        report.sim_output.len()
    );

    // (1) real ≡ OCAL reference interpreter on the naive spec (join output
    // order is nested-loop order there, bucket order here: compare the
    // encoded bytes of the canonically sorted row sets).
    let rrows = rows_for(&rel_specs[0], seed);
    let srows = rows_for(&rel_specs[1], seed + 1);
    let inputs = pair_inputs(&[("R", &rrows), ("S", &srows)]);
    let v = ocal::Evaluator::new()
        .run(&e.spec.program, &inputs)
        .expect("interpreter");
    let interp = interpreter_rows(&v);
    assert!(!interp.is_empty(), "degenerate join");
    assert_eq!(
        sorted(report.output.to_rows()),
        sorted(interp),
        "real output differs from the OCAL interpreter"
    );

    // The partition pass really spilled both relations to disk.
    let (_, hdd) = report
        .real_devices
        .iter()
        .find(|(n, _)| n == "HDD")
        .unwrap()
        .clone();
    assert!(hdd.bytes_written >= (300 + 200) * 16, "{hdd:?}");
    assert!(report.wall_seconds > 0.0 && report.sim_seconds > 0.0);
}

/// The block-nested-loops join in the shape the synthesizer tunes it to —
/// one relation blocked as large as RAM allows, the other streaming past it
/// a tuple at a time — lowered from the synthesized program with the block
/// scaled down to faithful data (37 tuples: no multiple of the key scan's
/// chunk width), and once more with the stream three tuples at a time.
/// Here the output is held to the interpreter **row for row**: the same
/// loop nest, evaluated with the same block sizes, emits in the order the
/// plan must.
#[test]
fn synthesized_bnl_join_runs_on_real_files_three_way_identical() {
    let e = experiments::bnl_no_writeout();
    let synth = e.synthesize().expect("synthesis");
    assert!(
        verify::is_block_nested_loops(&synth.best.program),
        "winner is not a BNL join: {}",
        ocal::pretty(&synth.best.program)
    );
    let cx = ocas_engine::lower::LowerCtx {
        params: synth.best.params.keys().map(|k| (k.clone(), 37)).collect(),
        relations: [("R".to_string(), 0usize), ("S".to_string(), 1)].into(),
        output: Output::Discard,
        scratch: "HDD".into(),
    };
    let lowered = ocas_engine::lower(&synth.best.program, e.spec.hint, &cx).expect("lowering");
    let Plan::BnlJoin {
        outer,
        inner,
        k1: 37,
        k2: 1,
        ..
    } = lowered
    else {
        panic!("lowered to {lowered:?}");
    };

    let rel_specs = vec![
        RelSpec::pairs("R", "HDD", 150).with_key_range(60),
        RelSpec::pairs("S", "HDD", 400).with_key_range(60),
    ];
    let seed = 17;
    let rows = [
        rows_for(&rel_specs[0], seed),
        rows_for(&rel_specs[1], seed + 1),
    ];
    let inputs = pair_inputs(&[("O", &rows[outer]), ("I", &rows[inner])]);
    let loops = ocal::parse(
        "for (oB [k1] <- O) for (iB [k2] <- I) for (o <- oB) for (i <- iB) \
         if o.1 == i.1 then [<o, i>] else []",
    )
    .unwrap();
    let rt = ocas_runtime::Runtime::new(e.hierarchy.clone());

    for k2 in [1, 3] {
        let mut plan = lowered.clone();
        if let Plan::BnlJoin {
            k2: inner_block, ..
        } = &mut plan
        {
            *inner_block = k2;
        }
        // (2) real ≡ simulator faithful mode, byte for byte.
        let report = rt
            .run_plan(&plan, &rel_specs, seed)
            .expect("real execution");
        assert!(report.outputs_match(), "k2 = {k2}");

        // (1) real ≡ OCAL reference interpreter, in emission order.
        let v = ocal::Evaluator::new()
            .with_param("k1", 37)
            .with_param("k2", k2)
            .run(&loops, &inputs)
            .expect("interpreter");
        let interp = interpreter_rows(&v);
        assert!(!interp.is_empty(), "degenerate join");
        assert_eq!(
            report.output.to_rows(),
            interp,
            "k2 = {k2}: real output differs from the OCAL interpreter"
        );
    }
}

#[test]
fn synthesized_external_sort_runs_on_real_files_three_way_identical() {
    // Synthesize at paper scale with a shallower search (fan 2⁴ instead of
    // the full 2¹⁰ — the 2ᵏ-way *shape* is the claim, not the exponent).
    let mut e = experiments::external_sorting();
    e.depth = 7;
    e.max_programs = 200;
    let synth = e.synthesize().expect("synthesis");
    let fan = verify::is_external_merge_sort(&synth.best.program, 4)
        .expect("winner is not a 2^k-way external merge-sort");

    // Lower with block parameters scaled to faithful data: small b_in/b_out
    // force multiple runs, so the merge levels really happen on disk.
    let card = 600u64;
    let mut params = synth.best.params.clone();
    for b in ["b_in", "b_out"] {
        params.remove(b);
    }
    let mut small: BTreeMap<String, u64> = params;
    for (k, v) in [("b_in", 16u64), ("b_out", 32)] {
        small.insert(k.to_string(), v);
    }
    // Every unfoldR block parameter the optimizer introduced shrinks too.
    for v in small.values_mut() {
        *v = (*v).clamp(1, 64);
    }
    let cx = ocas_engine::lower::LowerCtx {
        params: small,
        relations: [("R".to_string(), 0usize)].into_iter().collect(),
        output: Output::ToDevice {
            device: "HDD".into(),
            buffer_bytes: 1 << 10,
        },
        scratch: "HDD".into(),
    };
    let plan = ocas_engine::lower(&synth.best.program, e.spec.hint, &cx).expect("lowering");
    let Plan::ExternalSort { fan_in, .. } = &plan else {
        panic!("lowered to {plan:?}");
    };
    assert_eq!(*fan_in, fan, "plan fan-in mirrors the treeFold arity");
    // 8-byte columns, and the row's own 1-byte ones.
    for col_bytes in [8, 1] {
        let rel_specs = vec![RelSpec {
            col_bytes,
            ..RelSpec::ints("R", "HDD", card)
        }];
        sort_runs_three_way_identical(&e, &plan, &rel_specs);
    }
}

/// The external sort `plan` over `rel_specs`, run on real files against the
/// simulator's faithful twin and the OCAL interpreter.
fn sort_runs_three_way_identical(e: &experiments::Experiment, plan: &Plan, rel_specs: &[RelSpec]) {
    let (seed, card) = (9, rel_specs[0].card);
    let rt = ocas_runtime::Runtime::new(e.hierarchy.clone());
    let report = rt.run_plan(plan, rel_specs, seed).expect("real execution");

    // (2) real ≡ simulator faithful mode.
    assert!(report.outputs_match());
    assert_eq!(report.output.len(), card as usize);
    assert!(report.output.is_sorted(), "sorted");

    // (1) real ≡ OCAL reference interpreter (the foldL/mrg spec over the
    // same values as singleton lists).
    let rows = rows_for(&rel_specs[0], seed);
    let singletons = ocal::Value::list(
        rows.iter()
            .map(|r| ocal::Value::int_list(&[r[0]]))
            .collect(),
    );
    let inputs: BTreeMap<String, ocal::Value> =
        [("R".to_string(), singletons)].into_iter().collect();
    let v = ocal::Evaluator::new()
        .with_fuel(200_000_000)
        .run(&e.spec.program, &inputs)
        .expect("interpreter");
    let interp: Vec<Row> = v
        .as_list()
        .unwrap()
        .iter()
        .map(|x| vec![x.as_int().unwrap()])
        .collect();
    assert_eq!(
        report.output.to_rows(),
        interp,
        "real output differs from the OCAL interpreter"
    );

    // Run formation + merge levels really hit the scratch device: strictly
    // more write traffic than the input size.
    let (_, hdd) = report
        .real_devices
        .iter()
        .find(|(n, _)| n == "HDD")
        .unwrap()
        .clone();
    assert!(
        hdd.bytes_written > card * rel_specs[0].tuple_bytes(),
        "{hdd:?}"
    );
}
