//! Table 1 against the committed record: every row's estimated and
//! simulated seconds and its search statistics must equal the `table1`
//! rows of `BENCH_results.json` exactly (floats bit for bit), so a change
//! to the simulator, the executor or the cost model cannot move the
//! paper's table without the diff showing up in the committed file.

use ocas::experiments;
use std::collections::BTreeMap;

/// The committed `table1` rows as `key -> value text` maps. `bench_json`
/// writes the section as an array of flat objects, one `"key": value` per
/// line; string values lose their quotes here.
fn committed_rows() -> Vec<BTreeMap<String, String>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_results.json");
    let doc = std::fs::read_to_string(path).expect("BENCH_results.json at the repo root");
    let mut rows = Vec::new();
    let section = doc
        .lines()
        .skip_while(|l| l.trim() != "\"table1\": [")
        .skip(1)
        .take_while(|l| l.trim() != "],");
    for line in section {
        let line = line.trim().trim_end_matches(',');
        if line == "{" {
            rows.push(BTreeMap::new());
        } else if let Some((key, value)) = line.split_once(": ") {
            let row = rows.last_mut().expect("a row is open");
            row.insert(
                key.trim_matches('"').to_string(),
                value.trim_matches('"').to_string(),
            );
        }
    }
    rows
}

#[test]
fn every_row_equals_the_committed_table() {
    let committed = committed_rows();
    let experiments = experiments::table1();
    assert_eq!(committed.len(), 16);
    assert_eq!(experiments.len(), committed.len());
    for (e, want) in experiments.iter().zip(&committed) {
        let row = e.run().unwrap_or_else(|err| panic!("{}: {err}", e.name));
        assert_eq!(row.name, want["name"]);
        let float = |key: &str| -> f64 { want[key].parse().expect("a float") };
        assert_eq!(
            row.act_seconds.to_bits(),
            float("act_seconds").to_bits(),
            "{}: act_seconds {} vs committed {}",
            row.name,
            row.act_seconds,
            float("act_seconds")
        );
        assert_eq!(
            row.opt_seconds.to_bits(),
            float("opt_seconds").to_bits(),
            "{}: opt_seconds {} vs committed {}",
            row.name,
            row.opt_seconds,
            float("opt_seconds")
        );
        assert_eq!(
            (
                row.search_space.to_string().as_str(),
                row.steps.to_string().as_str()
            ),
            (want["search_space"].as_str(), want["steps"].as_str()),
            "{}: search space / steps",
            row.name
        );
    }
}
