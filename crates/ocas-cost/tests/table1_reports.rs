//! The cost engine's output on the inputs that matter — every candidate
//! program of the 16 Table 1 rows, 1,909 reports — held to what the engine
//! produced before `simplify` stopped normalising each factor twice.
//!
//! A report's `seconds`, `constraints` and `events` are hashed through
//! their `Debug` form, so term *order* is checked, not just value: the
//! order of a sum's terms is the order the tuner adds them in, which is
//! what makes `opt_seconds` bit-stable. The digests below were produced by
//! this file at the parent commit (PR 23, where `product_poly` simplified a
//! factor to an `Expr` and parsed it again); they are frozen goldens in the
//! sense of the Golden policy — a PR that means to move a cost formula
//! regenerates them (`-- --nocapture` prints the table) and says so.
//!
//! The same pass checks the property the carried-`Poly` product relies on,
//! on real formulas: every expression of a report is a fixed point of
//! `simplify`.

use ocas::experiments;
use ocas_cost::{CostEngine, CostReport};
use ocas_symbolic::simplify;

/// `(row, candidate programs, FNV-1a over the reports' Debug forms)`.
const GOLDEN: [(&str, usize, u64); 16] = [
    ("BNL - No writeout", 265, 0x0549a5ff65d50f67),
    ("BNL with cache - No writeout", 926, 0xccf1be55b75dab22),
    ("(GRACE) hash join - No writeout", 3, 0xefd9195a31b3c665),
    ("BNL writing to HDD", 135, 0x6b02f59d1ed0cb92),
    ("BNL wr. to other HDD", 265, 0x8417f1bd61b45911),
    ("BNL writing to flash", 265, 0x2709c1d2141c2dd4),
    ("External sorting", 26, 0x85184ef37fd99b2d),
    ("Set Union", 2, 0xb8a804e36f2f18fe),
    ("Multiset Union (sorted list)", 4, 0xaed9b6223ac793d7),
    ("Multiset Union (value-multiplicity)", 2, 0x87116cf881398eb6),
    ("Multiset Diff. (sorted list)", 2, 0xd1c0e62a83258607),
    ("Multiset Diff. (value-multiplicity)", 2, 0x0b034d88e48900fc),
    ("Column Store Read 5 cols.", 2, 0x6816bb3cc14f1d73),
    ("Column Store Read 10 cols.", 2, 0xf93be6babf6a24a3),
    (
        "Duplicate Removal from a Sorted List",
        2,
        0x85b0d710a295463d,
    ),
    ("Aggregation", 6, 0x730b4d9a582572d2),
];

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn assert_normal(report: &CostReport, row: &str, index: usize) {
    let mut exprs = vec![&report.seconds];
    exprs.extend(report.constraints.iter().map(|c| &c.lhs));
    for ev in report.events.edges().values() {
        exprs.extend([&ev.init, &ev.bytes]);
    }
    for e in exprs {
        assert!(simplify(e) == *e, "{row} #{index}: not a normal form: {e}");
    }
}

#[test]
fn every_table1_report_is_what_the_parent_commit_produced() {
    let mut got = Vec::new();
    for exp in experiments::table1() {
        let found = exp.run_search(false, 0, None).expect("search");
        let engine = CostEngine::new(
            &exp.hierarchy,
            &exp.layout,
            exp.spec.annots.clone(),
            exp.spec.stats.clone(),
            exp.spec.int_size,
        )
        .expect("engine");
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for (i, (program, _)) in found.programs.iter().enumerate() {
            let report = engine
                .cost(program)
                .expect("every Table 1 candidate is costable");
            assert_normal(&report, &exp.name, i);
            let text = format!(
                "{:?}|{:?}|{:?}\n",
                report.seconds, report.constraints, report.events
            );
            fnv1a(&mut digest, text.as_bytes());
        }
        println!(
            "    ({:?}, {}, {digest:#018x}),",
            exp.name,
            found.programs.len()
        );
        got.push((exp.name.clone(), found.programs.len(), digest));
    }
    assert_eq!(got.iter().map(|g| g.1).sum::<usize>(), 1909);
    for ((name, programs, digest), want) in got.iter().zip(GOLDEN) {
        assert_eq!((name.as_str(), *programs, *digest), want, "row {name}");
    }
    assert_eq!(got.len(), GOLDEN.len());
}
