//! Property-based tests on the core invariants, spanning crates:
//!
//! * blocking never changes program semantics (apply-block soundness);
//! * the symbolic simplifier is value-preserving and idempotent;
//! * the engine's merge operators agree with set/multiset models;
//! * the flat-batch codec and batch operations agree with the per-row
//!   reference codec and boundary-row semantics;
//! * result-size estimation is a sound upper bound on actual sizes.

use ocal::{parse, Evaluator, Value};
use ocas_engine::{MergeKind, RowBuf};
use ocas_symbolic::{eval as sym_eval, simplify, Env, Expr as Sym};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[path = "../crates/ocas-engine/tests/merge_oracle/mod.rs"]
mod merge_oracle;
use merge_oracle::merge_bufs;

fn pair_value(items: &[(i64, i64)]) -> Value {
    Value::pair_list(items)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// for (x [k] <- R) ... must equal the unblocked loop for every k.
    #[test]
    fn blocking_preserves_join_semantics(
        r in proptest::collection::vec((0i64..20, 0i64..100), 0..40),
        s in proptest::collection::vec((0i64..20, 0i64..100), 0..40),
        k1 in 1u64..16,
        k2 in 1u64..16,
    ) {
        let naive = parse(
            "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
        ).unwrap();
        let blocked = parse(
            "for (xB [k1] <- R) for (yB [k2] <- S) for (x <- xB) for (y <- yB) \
             if x.1 == y.1 then [<x, y>] else []",
        ).unwrap();
        let inputs: BTreeMap<String, Value> = [
            ("R".to_string(), pair_value(&r)),
            ("S".to_string(), pair_value(&s)),
        ].into_iter().collect();
        let a = Evaluator::new().run(&naive, &inputs).unwrap();
        let b = Evaluator::new()
            .with_param("k1", k1)
            .with_param("k2", k2)
            .run(&blocked, &inputs)
            .unwrap();
        // Same multiset (blocking reorders pairs).
        let canon = |v: &Value| {
            let mut xs: Vec<String> =
                v.as_list().unwrap().iter().map(|x| x.to_string()).collect();
            xs.sort();
            xs
        };
        prop_assert_eq!(canon(&a), canon(&b));
    }

    /// simplify() preserves the numeric value of expressions and is
    /// idempotent.
    #[test]
    fn simplify_preserves_value(
        ax in 1i64..50, bx in 1i64..50, cx in 1i64..50,
        x in 1.0f64..1000.0, y in 1.0f64..1000.0,
    ) {
        let e = (Sym::var("x") * Sym::int(ax as i128) + Sym::var("y") / Sym::int(bx as i128))
            * Sym::int(cx as i128)
            + Sym::var("x") * Sym::var("y") / (Sym::var("x") + Sym::int(1))
            + Sym::sum("j", Sym::int(0), Sym::int(ax as i128), Sym::var("j") * Sym::var("y"));
        let s = simplify(&e);
        let env = Env::new().with("x", x).with("y", y);
        let v1 = sym_eval(&e, &env).unwrap();
        let v2 = sym_eval(&s, &env).unwrap();
        prop_assert!((v1 - v2).abs() <= 1e-6 * v1.abs().max(1.0),
            "simplify changed value: {} vs {}", v1, v2);
        prop_assert_eq!(simplify(&s), s.clone(), "not idempotent");
    }

    /// Engine merge ops match set/multiset models.
    #[test]
    fn merge_ops_match_models(
        mut a in proptest::collection::vec(0i64..30, 0..50),
        mut b in proptest::collection::vec(0i64..30, 0..50),
    ) {
        a.sort();
        b.sort();
        let merge = |a: &[i64], b: &[i64], kind| {
            let (a, b) = (RowBuf::from_vec(a.to_vec(), 1), RowBuf::from_vec(b.to_vec(), 1));
            merge_bufs(&a, &b, kind).as_slice().to_vec()
        };

        // Multiset union = sorted concatenation.
        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        concat.sort();
        prop_assert_eq!(merge(&a, &b, MergeKind::MultisetUnionSorted), concat);

        // Set union over deduplicated inputs = BTreeSet union.
        let (mut ad, mut bd) = (a.clone(), b.clone());
        ad.dedup();
        bd.dedup();
        let want: Vec<i64> = a.iter().chain(b.iter()).copied()
            .collect::<std::collections::BTreeSet<i64>>()
            .into_iter().collect();
        prop_assert_eq!(merge(&ad, &bd, MergeKind::SetUnion), want);

        // Multiset difference respects multiplicities.
        let mut counts: BTreeMap<i64, i64> = BTreeMap::new();
        for v in &a { *counts.entry(*v).or_default() += 1; }
        for v in &b { *counts.entry(*v).or_default() -= 1; }
        let want: Vec<i64> = counts.iter()
            .flat_map(|(v, c)| std::iter::repeat(*v).take((*c).max(0) as usize))
            .collect();
        prop_assert_eq!(merge(&a, &b, MergeKind::MultisetDiffSorted), want);
    }

    /// Figure 5's worst-case size analysis upper-bounds the true output
    /// cardinality of the join for arbitrary inputs.
    #[test]
    fn size_estimate_is_upper_bound(
        r in proptest::collection::vec((0i64..10, 0i64..100), 0..30),
        s in proptest::collection::vec((0i64..10, 0i64..100), 0..30),
    ) {
        use ocas_cost::{result_size, Annot, SizeCtx};
        let program = parse(
            "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []",
        ).unwrap();
        let mut gamma = BTreeMap::new();
        gamma.insert("R".to_string(), Annot::relation(Sym::int(r.len() as i128), 2, 8));
        gamma.insert("S".to_string(), Annot::relation(Sym::int(s.len() as i128), 2, 8));
        let annot = result_size(&program, &SizeCtx::new(&gamma, 8)).unwrap();
        let bound = sym_eval(&annot.card().unwrap(), &Env::new()).unwrap();

        let inputs: BTreeMap<String, Value> = [
            ("R".to_string(), pair_value(&r)),
            ("S".to_string(), pair_value(&s)),
        ].into_iter().collect();
        let actual = Evaluator::new().run(&program, &inputs).unwrap()
            .as_list().unwrap().len() as f64;
        prop_assert!(actual <= bound + 0.5,
            "estimate {} below actual {}", bound, actual);
    }

    /// Pretty-print → parse round trip on the join family.
    #[test]
    fn join_programs_round_trip(
        k1 in 1u64..100, k2 in 1u64..100, key in 0i64..5,
    ) {
        let src = format!(
            "for (xB [{k1}] <- R) for (yB [{k2}] <- S) for (x <- xB) for (y <- yB) \
             if x.1 == y.1 && x.2 == {key} then [<x, y>] else []"
        );
        let e = parse(&src).unwrap();
        let printed = ocal::pretty(&e);
        let e2 = parse(&printed).unwrap();
        prop_assert_eq!(e.alpha_canonical(), e2.alpha_canonical());
    }

    /// The flat-batch codec is byte-identical to the per-row reference
    /// codec, both directions, for every width.
    #[test]
    fn rowbuf_codec_matches_reference_codec(
        rows in proptest::collection::vec(
            proptest::collection::vec(-4_000_000_000_000i64..4_000_000_000_000, 3..4), 0..50),
    ) {
        use ocas_engine::{decode_rows, encode_rows, RowBuf};
        let buf = RowBuf::from_rows(&rows);
        let reference = encode_rows(&rows);
        // Encode: flat batch == per-row reference, byte for byte.
        prop_assert_eq!(&buf.encode(), &reference);
        // Decode: both decoders reconstruct the same rows.
        prop_assert_eq!(RowBuf::decode(&reference, 3).to_rows(), buf.to_rows());
        prop_assert_eq!(decode_rows(&reference, 3), buf.to_rows());
        // Trailing partial rows are dropped by both decoders.
        if !reference.is_empty() {
            let truncated = &reference[..reference.len() - 5];
            prop_assert_eq!(
                RowBuf::decode(truncated, 3).to_rows(),
                decode_rows(truncated, 3)
            );
        }
    }

    /// Narrow-column encoding (col_bytes < 8) agrees with truncating each
    /// reference-encoded column to its low-order bytes.
    #[test]
    fn rowbuf_narrow_encode_matches_reference(
        vals in proptest::collection::vec(-4_000_000_000_000i64..4_000_000_000_000, 0..60),
        cb in 1usize..8,
    ) {
        use ocas_engine::RowBuf;
        let rows: Vec<Vec<i64>> = vals.iter().map(|v| vec![*v]).collect();
        let buf = RowBuf::from_rows(&rows);
        let mut got = Vec::new();
        buf.encode_into(cb, &mut got);
        let want: Vec<u8> = vals
            .iter()
            .flat_map(|v| v.to_le_bytes()[..cb].to_vec())
            .collect();
        prop_assert_eq!(got, want);
    }

    /// In-place flat sort and dedup agree with the boundary-row semantics
    /// the engine used before the flat-batch data path.
    #[test]
    fn rowbuf_sort_dedup_match_row_semantics(
        mut rows in proptest::collection::vec(
            proptest::collection::vec(0i64..10, 2..3), 0..60),
    ) {
        use ocas_engine::RowBuf;
        let mut buf = RowBuf::from_rows(&rows);
        buf.sort();
        rows.sort();
        prop_assert_eq!(buf.to_rows(), rows.clone());
        prop_assert!(buf.is_sorted());
        let mut deduped = buf.clone();
        deduped.dedup();
        rows.dedup();
        prop_assert_eq!(deduped.to_rows(), rows);
    }
}
