//! C generation for synthesized programs (paper §3, "Generating C code from
//! OCAL"): which Table 1 winners `ocas-codegen` turns into C, and compiled
//! winners checked against the OCAL reference interpreter.
//!
//! The compiled checks need a C compiler (`cc` or `gcc`). Without one they
//! skip with a note, unless the `CI` environment variable is set: there a
//! missing compiler fails them.

use ocal::{Type, Value};
use ocas::experiments::{self, Experiment};
use ocas_codegen::{CInput, Codegen, CodegenError};
use std::collections::BTreeMap;
use std::process::Command;

/// One C input per relation of the experiment's spec, with the tuple width
/// its type declares, in the spec's (name) order.
fn c_inputs(e: &Experiment) -> Vec<CInput> {
    e.spec
        .env
        .iter()
        .map(|(name, ty)| CInput {
            name: name.clone(),
            width: match ty {
                Type::List(elem) => match &**elem {
                    Type::Tuple(fields) => fields.len(),
                    _ => 1,
                },
                other => panic!("{}: input `{name}` has type {other}", e.name),
            },
        })
        .collect()
}

#[test]
fn exactly_the_join_loop_and_avg_winners_generate_c() {
    let mut generated = Vec::new();
    for e in experiments::table1() {
        let synth = e
            .synthesize()
            .unwrap_or_else(|err| panic!("{}: {err}", e.name));
        match Codegen::new(synth.best.params).emit_program(&synth.best.program, &c_inputs(&e)) {
            Ok(_) => generated.push(e.name),
            Err(CodegenError::Unsupported(_)) => {}
            Err(err) => panic!(
                "{}: a tuned winner must generate or be unsupported: {err}",
                e.name
            ),
        }
    }
    assert_eq!(
        generated,
        [
            "BNL - No writeout",
            "BNL with cache - No writeout",
            "BNL writing to HDD",
            "BNL wr. to other HDD",
            "BNL writing to flash",
            "Aggregation",
        ]
    );
}

/// A C compiler on the `PATH`, or `None` (which fails the caller when `CI`
/// is set).
fn c_compiler() -> Option<&'static str> {
    let found = ["cc", "gcc"]
        .into_iter()
        .find(|c| Command::new(c).arg("--version").output().is_ok());
    if found.is_none() {
        assert!(
            std::env::var_os("CI").is_none(),
            "no C compiler (cc or gcc), and CI is set"
        );
        eprintln!("no C compiler; skipping");
    }
    found
}

/// Compiles `c` with `cc`, runs it on `inputs` (each written as a binary
/// file of little-endian `int64_t`s, row-major) and returns its output
/// rows.
fn compile_and_run(cc: &str, name: &str, c: &str, inputs: &[Vec<Vec<i64>>]) -> Vec<Vec<i64>> {
    let dir = std::env::temp_dir().join(format!("ocas_codegen_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let c_path = dir.join("program.c");
    std::fs::write(&c_path, c).unwrap();
    let bin = dir.join("program");
    let status = Command::new(cc)
        .args(["-std=c99", "-O1", "-o"])
        .arg(&bin)
        .arg(&c_path)
        .status()
        .unwrap();
    assert!(status.success(), "generated C failed to compile:\n{c}");
    let mut run = Command::new(&bin);
    for (i, rows) in inputs.iter().enumerate() {
        let path = dir.join(format!("input{i}.bin"));
        let bytes: Vec<u8> = rows
            .iter()
            .flatten()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        std::fs::write(&path, bytes).unwrap();
        run.arg(path);
    }
    let out = run.output().unwrap();
    assert!(out.status.success(), "generated program failed: {out:?}");
    std::fs::remove_dir_all(&dir).unwrap();
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|line| line.split(' ').map(|v| v.parse().unwrap()).collect())
        .collect()
}

/// The integers of `v` in order, tuples flattened.
fn flatten(v: &Value, out: &mut Vec<i64>) {
    match v {
        Value::Int(n) => out.push(*n),
        Value::Tuple(items) => items.iter().for_each(|item| flatten(item, out)),
        other => panic!("not a tuple of integers: {other}"),
    }
}

/// Synthesizes `e`, sets every tuned block size to `block`, and checks the
/// compiled winner's output rows (in order) against `ocal::eval` on
/// `inputs`, given in the order of [`c_inputs`].
fn compiled_winner_matches_interpreter(e: &Experiment, block: u64, inputs: &[Vec<Vec<i64>>]) {
    let Some(cc) = c_compiler() else {
        return;
    };
    let synth = e.synthesize().unwrap();
    let params: BTreeMap<String, u64> = synth
        .best
        .params
        .keys()
        .map(|k| (k.clone(), block))
        .collect();
    let c_inputs = c_inputs(e);
    let c = Codegen::new(params.clone())
        .emit_program(&synth.best.program, &c_inputs)
        .unwrap();
    let got = compile_and_run(cc, &e.name.replace(' ', "_"), &c, inputs);

    let values: BTreeMap<String, Value> = c_inputs
        .iter()
        .zip(inputs)
        .map(|(input, rows)| {
            let rows = rows.iter().map(|row| match row[..] {
                [v] => Value::Int(v),
                _ => Value::tuple(row.iter().map(|&v| Value::Int(v)).collect()),
            });
            (input.name.clone(), Value::list(rows.collect()))
        })
        .collect();
    let mut eval = params.iter().fold(ocal::Evaluator::new(), |ev, (k, &v)| {
        ev.with_param(k.clone(), v)
    });
    let want: Vec<Vec<i64>> = match eval.run(&synth.best.program, &values).unwrap() {
        Value::List(rows) => rows
            .iter()
            .map(|row| {
                let mut flat = Vec::new();
                flatten(row, &mut flat);
                flat
            })
            .collect(),
        scalar => {
            let mut flat = Vec::new();
            flatten(&scalar, &mut flat);
            vec![flat]
        }
    };
    assert!(!want.is_empty());
    assert_eq!(got, want, "{}: C output vs interpreter\n{c}", e.name);
}

/// The synthesized BNL join at block size 3: partial blocks on both sides,
/// and keys that match several times.
#[test]
fn compiled_join_matches_interpreter() {
    let r: Vec<Vec<i64>> = (0..13).map(|i| vec![i * 7 % 5, 100 + i]).collect();
    let s: Vec<Vec<i64>> = (0..8).map(|j| vec![j * 3 % 5, 200 + j]).collect();
    compiled_winner_matches_interpreter(&experiments::bnl_no_writeout(), 3, &[r, s]);
}

/// The synthesized aggregation at block size 4 over a list it does not
/// divide.
#[test]
fn compiled_aggregate_matches_interpreter() {
    let l: Vec<Vec<i64>> = (0..25).map(|i| vec![i * 37 % 101]).collect();
    compiled_winner_matches_interpreter(&experiments::aggregation(), 4, &[l]);
}
