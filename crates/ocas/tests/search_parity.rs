//! Engine-parity regression: on **every** Table 1 row, the arena search
//! must report deterministic statistics (`explored`, `generated`,
//! `rejected_*`, `depth_reached`) identical to the legacy reference BFS,
//! and the same program set up to the canonical dedup key. This is the
//! invariant that lets the synthesizer use the interned engine without
//! moving a single Table 1 number.
//!
//! Rows are searched at their real depth and rule exclusions but with a
//! lowered program cap so the debug-mode suite stays fast; `bench_json
//! --check` additionally pins the two largest rows at their full Table 1
//! caps in release CI.

use ocas_rewrite::dedup_key;

#[test]
fn all_table1_rows_agree_across_engines() {
    let cap = Some(250);
    for e in ocas::experiments::table1() {
        let reference = e
            .run_search(true, 1, cap)
            .unwrap_or_else(|err| panic!("{}: reference search failed: {err}", e.name));
        let arena = e
            .run_search(false, 1, cap)
            .unwrap_or_else(|err| panic!("{}: arena search failed: {err}", e.name));

        assert_eq!(
            reference.stats.deterministic(),
            arena.stats.deterministic(),
            "`{}`: arena engine diverged from the reference BFS",
            e.name
        );

        // Reference and arena engines number fresh names differently, but
        // the explored sets must coincide up to the canonical key, pairwise
        // in order (both engines accept in the same candidate order).
        assert_eq!(reference.programs.len(), arena.programs.len());
        for ((a, da), (b, db)) in reference.programs.iter().zip(&arena.programs) {
            assert_eq!(da, db, "`{}`: depth mismatch", e.name);
            assert_eq!(
                dedup_key(a),
                dedup_key(b),
                "`{}`: program sets diverged at depth {da}",
                e.name
            );
        }
    }
}
