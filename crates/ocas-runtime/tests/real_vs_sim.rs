//! Cross-backend equivalence: the same faithful plan, executed on the
//! device simulator and on real temp files, must produce identical outputs
//! and issue the same request stream (equal read/write byte totals).
//!
//! The property tests use a hierarchy with `pagesize = 1` so the
//! simulator's page rounding is the identity and its byte counters are
//! directly comparable with the real backend's raw request totals.
//!
//! Which kind each test is (ROADMAP, "Reading real-backend numbers"): the
//! tests up to `eviction_policies_all_produce_correct_results` compare two
//! executions over the same generated rows and would pass on an executor
//! that never looked at its files; `tampered_files_*` at the end are the
//! **"follows the file"** tests — they change the bytes under a relation
//! after its creation and require the real output to change with them, on
//! both routes a plan takes to real files: the generic executor handed a
//! `FileBackend` directly, and `Runtime::execute` (what `Runtime::run_plan`
//! runs between creating the relations and harvesting the output).

use ocas_engine::{
    CpuModel, ExecError, Executor, JoinPred, MergeKind, Mode, Output, Plan, RelSpec, Relation,
    RowBuf, RowGen,
};
use ocas_hierarchy::{CostPair, DeviceKind, EdgeCosts, Hierarchy, NodeProps, Rat};
use ocas_runtime::{FileBackend, PoolConfig, Runtime};
use ocas_storage::{StorageBackend, StorageSim};
use proptest::prelude::*;

#[path = "../../ocas-engine/tests/merge_oracle/mod.rs"]
mod merge_oracle;
use merge_oracle::merge_bufs;

/// RAM + HDD with byte-granular pages (no page rounding in the simulator).
fn unit_page_hierarchy() -> Hierarchy {
    let mut h =
        Hierarchy::new(NodeProps::new("RAM", 1 << 26, DeviceKind::Ram).with_pagesize(1)).unwrap();
    h.add_child(
        "RAM",
        NodeProps::new("HDD", 1 << 32, DeviceKind::Hdd).with_pagesize(1),
        EdgeCosts::symmetric(CostPair::new(
            Rat::millis(15),
            Rat::new(1, 30 * 1024 * 1024),
        )),
    )
    .unwrap();
    h
}

/// `(read, written)` byte totals of one backend's HDD device.
type ByteTotals = (u64, u64);
/// Outputs and byte totals of the simulated and the real execution.
type BothRuns = (
    ocas_engine::RowBuf,
    ocas_engine::RowBuf,
    ByteTotals,
    ByteTotals,
);

/// Runs `plan` faithfully on both backends over identical relations and
/// returns `(sim outputs, real outputs, sim bytes, real bytes)`.
fn run_both(plan: &Plan, specs: &[RelSpec], seed: u64) -> BothRuns {
    let report = report_over_files(plan, specs, seed, Route::Executor, |_, _| {});
    let hdd = |devices: &[(String, ocas_storage::DeviceStats)]| {
        let (_, d) = devices.iter().find(|(name, _)| name == "HDD").unwrap();
        (d.bytes_read, d.bytes_written)
    };
    let (sim_bytes, real_bytes) = (hdd(&report.sim_devices), hdd(&report.real_devices));
    (report.sim_output, report.output, sim_bytes, real_bytes)
}

/// How a plan gets to real files.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// `Executor<FileBackend>`, output collected.
    Executor,
    /// `Runtime::execute`, output harvested.
    Runtime,
}

/// One real execution over files a test may have tampered with after their
/// creation, next to its clean simulator twin, as the
/// [`ocas_runtime::RealReport`] that `Runtime::run_plan` would hand out for
/// it (timing and recovery fields left empty).
fn report_over_files(
    plan: &Plan,
    specs: &[RelSpec],
    seed: u64,
    route: Route,
    tamper: impl FnOnce(&mut FileBackend, &[Relation]),
) -> ocas_runtime::RealReport {
    let h = unit_page_hierarchy();
    let mut sim = Executor::new(
        StorageSim::from_hierarchy(&h),
        Mode::Faithful,
        CpuModel::disabled(),
    );
    let pool = PoolConfig {
        page_bytes: 4096,
        frames: 64,
        ..PoolConfig::default()
    };
    let mut fb = FileBackend::from_hierarchy(&h, pool).unwrap();
    let mut rels = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let twin = Relation::create(&mut sim.sm, spec, true, seed + i as u64).unwrap();
        sim.add_relation(twin);
        rels.push(Relation::create(&mut fb, spec, true, seed + i as u64).unwrap());
    }
    tamper(&mut fb, &rels);
    let sim_stats = sim.run(plan).expect("simulated run");
    let (fb, output, peak) = match route {
        Route::Executor => {
            let mut real = Executor::new(fb, Mode::Faithful, CpuModel::disabled());
            real.rels = rels;
            let stats = real.run(plan).expect("real run");
            let output = stats.output.expect("collected");
            (real.sm, output, stats.peak_resident_bytes)
        }
        Route::Runtime => {
            let (mut fb, run) = Runtime::execute(fb, &rels, plan);
            let run = run.expect("real run");
            let peak = run.peak_resident_bytes;
            let output = Runtime::harvest(&mut fb, run).expect("harvest");
            (fb, output, peak)
        }
    };
    let sim_hdd = StorageSim::device_stats(&sim.sm, "HDD").unwrap();
    ocas_runtime::RealReport {
        wall_seconds: 0.0,
        io_seconds: fb.clock(),
        sim_seconds: sim_stats.seconds,
        real_devices: fb.all_device_stats(),
        pools: fb.pool_stats(),
        output,
        sim_output: sim_stats.output.unwrap_or_default(),
        peak_resident_bytes: Some(peak),
        sim_devices: vec![("HDD".to_string(), sim_hdd)],
        direct_io: false,
        recovery: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bnl_join_same_output_and_bytes_on_both_backends(
        cards in (20u64..140, 10u64..90),
        blocks in (1u64..48, 1u64..48),
        key_range in 5u64..40,
        seed in 0u64..1000,
    ) {
        let specs = [
            RelSpec::pairs("R", "HDD", cards.0).with_key_range(key_range),
            RelSpec::pairs("S", "HDD", cards.1).with_key_range(key_range),
        ];
        let plan = Plan::BnlJoin {
            outer: 0,
            inner: 1,
            k1: blocks.0,
            k2: blocks.1,
            tiling: None,
            pred: JoinPred::KeyEq,
            order_inputs: false,
            output: Output::ToDevice { device: "HDD".into(), buffer_bytes: 512 },
        };
        let (sim_out, real_out, sim_bytes, real_bytes) = run_both(&plan, &specs, seed);
        prop_assert_eq!(sim_out, real_out);
        prop_assert_eq!(sim_bytes, real_bytes);
    }

    /// Heavily duplicated keys, one-row buckets, partition counts that are
    /// not powers of two.
    #[test]
    fn grace_join_same_output_and_bytes_on_both_backends(
        cards in (30u64..120, 20u64..80),
        (key_range, partitions) in (1u64..50, 1u64..12),
        seed in 0u64..1000,
    ) {
        let specs = [
            RelSpec::pairs("R", "HDD", cards.0).with_key_range(key_range),
            RelSpec::pairs("S", "HDD", cards.1).with_key_range(key_range),
        ];
        let plan = Plan::GraceJoin {
            left: 0,
            right: 1,
            partitions,
            buffer_bytes: 1 << 10,
            spill: "HDD".into(),
            pred: JoinPred::KeyEq,
            output: Output::ToDevice { device: "HDD".into(), buffer_bytes: 256 },
        };
        let (sim_out, real_out, sim_bytes, real_bytes) = run_both(&plan, &specs, seed);
        prop_assert_eq!(sim_out, real_out);
        prop_assert_eq!(sim_bytes, real_bytes);
    }

    #[test]
    fn merge_and_sort_same_output_and_bytes_on_both_backends(
        cards in (20u64..120, 20u64..120),
        b_in in 4u64..64,
        seed in 0u64..1000,
    ) {
        let specs = [
            RelSpec::ints("A", "HDD", cards.0).sorted(),
            RelSpec::ints("B", "HDD", cards.1).sorted(),
        ];
        let plan = Plan::MergePass {
            left: 0,
            right: 1,
            kind: MergeKind::MultisetUnionSorted,
            b_in,
            output: Output::ToDevice { device: "HDD".into(), buffer_bytes: 256 },
        };
        let (sim_out, real_out, sim_bytes, real_bytes) = run_both(&plan, &specs, seed);
        prop_assert_eq!(sim_out, real_out);
        prop_assert_eq!(sim_bytes, real_bytes);

        let sort_specs = [RelSpec::ints("L", "HDD", cards.0)];
        let sort = Plan::ExternalSort {
            input: 0,
            fan_in: 4,
            b_in,
            b_out: 2 * b_in,
            scratch: "HDD".into(),
            output: Output::ToDevice { device: "HDD".into(), buffer_bytes: 256 },
        };
        let (sim_out, real_out, sim_bytes, real_bytes) = run_both(&sort, &sort_specs, seed);
        prop_assert_eq!(sim_out, real_out);
        prop_assert_eq!(sim_bytes, real_bytes);
    }
}

#[test]
fn real_grace_join_is_correct_and_matches_simulator() {
    let h = unit_page_hierarchy();
    let rt = Runtime::new(h);
    let specs = [
        RelSpec::pairs("R", "HDD", 400).with_key_range(60),
        RelSpec::pairs("S", "HDD", 250).with_key_range(60),
    ];
    let plan = Plan::GraceJoin {
        left: 0,
        right: 1,
        partitions: 8,
        buffer_bytes: 1 << 12,
        spill: "HDD".into(),
        pred: JoinPred::KeyEq,
        output: Output::ToDevice {
            device: "HDD".into(),
            buffer_bytes: 1 << 10,
        },
    };
    let report = rt.run_plan(&plan, &specs, 3).unwrap();
    assert!(
        report.outputs_match(),
        "real ({} rows) vs simulated ({} rows)",
        report.output.len(),
        report.sim_output.len()
    );
    // Brute-force ground truth over the same generated rows.
    let h = unit_page_hierarchy();
    let mut sm = StorageSim::from_hierarchy(&h);
    let r = Relation::create(&mut sm, &specs[0], true, 3).unwrap();
    let s = Relation::create(&mut sm, &specs[1], true, 4).unwrap();
    let (rbuf, sbuf) = (r.collect_rows().unwrap(), s.collect_rows().unwrap());
    let mut expect = Vec::new();
    for x in rbuf.iter() {
        for y in sbuf.iter() {
            if x[0] == y[0] {
                let mut row = x.to_vec();
                row.extend_from_slice(y);
                expect.push(row);
            }
        }
    }
    let mut got = report.output.to_rows();
    got.sort();
    expect.sort();
    assert_eq!(got, expect);
    // Partitions really spilled: the spill device saw both write passes.
    let (_, hdd) = report
        .real_devices
        .iter()
        .find(|(n, _)| n == "HDD")
        .unwrap()
        .clone();
    let input_bytes = 400 * 16 + 250 * 16;
    assert!(
        hdd.bytes_written >= input_bytes,
        "partition pass must write both relations: {hdd:?}"
    );
    assert!(report.wall_seconds > 0.0);
    assert!(report.sim_seconds > 0.0);
}

#[test]
fn real_external_sort_is_correct_and_matches_simulator() {
    let h = unit_page_hierarchy();
    let rt = Runtime::new(h);
    let specs = [RelSpec::ints("L", "HDD", 3000)];
    let plan = Plan::ExternalSort {
        input: 0,
        fan_in: 4,
        b_in: 32,
        b_out: 64,
        scratch: "HDD".into(),
        output: Output::ToDevice {
            device: "HDD".into(),
            buffer_bytes: 1 << 10,
        },
    };
    let report = rt.run_plan(&plan, &specs, 11).unwrap();
    assert_eq!(report.output.len(), 3000);
    assert!(report.output.is_sorted(), "sorted");
    assert!(report.outputs_match());
    // With runs of 4*32+64 = 192 tuples, 3000 tuples form 16 runs and need
    // two 4-way merge levels: scratch traffic far exceeds the input size.
    let (_, hdd) = report
        .real_devices
        .iter()
        .find(|(n, _)| n == "HDD")
        .unwrap()
        .clone();
    assert!(
        hdd.bytes_written > 2 * 3000 * 8,
        "runs + merge levels really hit the scratch device: {hdd:?}"
    );
    // The buffer pools did real paging work.
    let pool_misses: u64 = report.pools.iter().map(|(_, p)| p.misses).sum();
    assert!(pool_misses > 0);
}

#[test]
fn a_tiny_pool_under_eviction_pressure_still_sorts_correctly() {
    let rt = Runtime::new(unit_page_hierarchy()).with_pool(PoolConfig {
        page_bytes: 256,
        frames: 8, // tiny pool: constant eviction pressure
        ..PoolConfig::default()
    });
    let specs = [RelSpec::ints("L", "HDD", 500)];
    let plan = Plan::ExternalSort {
        input: 0,
        fan_in: 2,
        b_in: 16,
        b_out: 16,
        scratch: "HDD".into(),
        output: Output::Discard,
    };
    let report = rt.run_plan(&plan, &specs, 7).unwrap();
    assert!(report.output.is_sorted());
    assert_eq!(report.output.len(), 500);
    let evictions: u64 = report.pools.iter().map(|(_, p)| p.evictions).sum();
    assert!(evictions > 0, "the pool must be under eviction pressure");
}

/// Creation writes the backing file per block; the bytes on disk must be
/// identical to the whole relation drawn at once
/// (`RowGen::generate_all`) and encoded in one pass — across sortedness,
/// widths and narrow `col_bytes` (the check for the per-block
/// `encode_into`/`materialize` setup path).
#[test]
fn streamed_creation_writes_byte_identical_files_to_the_legacy_path() {
    use std::io::Read;
    let cases = [
        (false, 1u32, 8u32, 0u64), // unsorted ints, default key range
        (true, 1, 8, 97),          // sorted ints
        (true, 2, 8, 40),          // sorted pairs (lexicographic)
        (true, 1, 1, 50),          // sorted narrow columns
        (false, 3, 4, 33),         // wide tuples, 4-byte columns
    ];
    for (sorted, width, col_bytes, key_range) in cases {
        let h = unit_page_hierarchy();
        let mut fb = FileBackend::from_hierarchy(&h, PoolConfig::default()).unwrap();
        let mut spec = RelSpec::pairs("R", "HDD", 3_000)
            .with_key_range(key_range)
            // Small budget: many per-block materialize calls.
            .with_cache_bytes(512 * u64::from(width) * 8);
        spec.width = width;
        spec.col_bytes = col_bytes;
        spec.sorted = sorted;
        let rel = Relation::create(&mut fb, &spec, true, 7).unwrap();
        fb.flush().unwrap();
        let mut on_disk = vec![0u8; rel.bytes() as usize];
        std::fs::File::open(fb.dir().join("HDD.dev"))
            .unwrap()
            .read_exact(&mut on_disk)
            .unwrap();
        let mut whole = Vec::new();
        let rows = RowGen::from_spec(&spec, 7).generate_all();
        rows.encode_into(col_bytes as usize, &mut whole);
        assert_eq!(
            on_disk, whole,
            "sorted={sorted} width={width} col_bytes={col_bytes} key_range={key_range}"
        );
    }
}

/// Narrow-column regression: a faithful plan over 1-byte columns must land
/// on disk in the documented on-disk format (`col_bytes` LE bytes per
/// column), matching how `Relation::create` materializes inputs — not as
/// truncated 8-byte columns.
#[test]
fn narrow_column_output_uses_the_on_disk_tuple_format() {
    let h = unit_page_hierarchy();
    let fb = FileBackend::from_hierarchy(&h, PoolConfig::default()).unwrap();
    let mut ex = Executor::new(fb, Mode::Faithful, CpuModel::disabled());
    let mut spec = RelSpec::ints("L", "HDD", 64).sorted().with_key_range(40);
    spec.col_bytes = 1;
    let rel = Relation::create(&mut ex.sm, &spec, true, 5).unwrap();
    let input_bytes = rel.bytes();
    let rows = rel.collect_rows().unwrap();
    let li = ex.add_relation(rel);
    let stats = ex
        .run(&Plan::DedupSorted {
            input: li,
            b_in: 16,
            output: Output::ToDevice {
                device: "HDD".into(),
                buffer_bytes: 8,
            },
        })
        .unwrap();
    let out_rows = stats.output.unwrap();
    let mut expect = rows;
    expect.dedup();
    assert_eq!(out_rows, expect);
    // The sink's extent starts right after the input allocation (bump
    // allocator); its bytes must be each value's low byte in order.
    ex.sm.flush().unwrap();
    use std::io::{Read, Seek, SeekFrom};
    let path = ex.sm.dir().join("HDD.dev");
    let mut f = std::fs::File::open(path).unwrap();
    f.seek(SeekFrom::Start(input_bytes)).unwrap();
    let mut got = vec![0u8; out_rows.len()];
    f.read_exact(&mut got).unwrap();
    let want: Vec<u8> = out_rows.iter().map(|r| r[0].to_le_bytes()[0]).collect();
    assert_eq!(got, want, "on-disk bytes are col_bytes-wide LE columns");
}

/// A value-multiplicity union over 1-byte columns sums multiplicities past
/// what a byte holds, and its output file keeps every sum whole: the
/// harvested real output is the twin's (a multiplicity written in the
/// inputs' column width would read back truncated).
#[test]
fn a_value_multiplicity_union_of_narrow_columns_keeps_its_sums() {
    let rt = Runtime::new(unit_page_hierarchy());
    let spec = |name| RelSpec {
        col_bytes: 1,
        ..RelSpec::pairs(name, "HDD", 400)
            .sorted()
            .with_key_range(200)
    };
    let plan = Plan::MergePass {
        left: 0,
        right: 1,
        kind: MergeKind::MultisetUnionVm,
        b_in: 64,
        output: Output::ToDevice {
            device: "HDD".into(),
            buffer_bytes: 1 << 10,
        },
    };
    let report = rt.run_plan(&plan, &[spec("A"), spec("B")], 3).unwrap();
    assert_eq!(report.output.len(), 559);
    assert!(
        report.sim_output.iter().any(|row| row[1] > 255),
        "a sum a byte does not hold"
    );
    assert!(report.outputs_match());
}

/// Overwrites `rel`'s file with `rows` (uncharged, like its creation), in
/// its column width.
fn rewrite(fb: &mut FileBackend, rel: &Relation, rows: &ocas_engine::RowBuf) {
    assert_eq!(rows.len() as u64, rel.card);
    let mut bytes = Vec::new();
    rows.encode_into(rel.col_bytes(), &mut bytes);
    fb.materialize(rel.file, 0, &bytes).unwrap();
}

/// A "follows the file" test. The aggregate, one tuple and one page at a
/// time: untampered it agrees with its twin and with the interpreter's
/// `avg`; over a file whose bytes are not what the generator yields, the
/// real average is the file's, the twin's is still the generator's, and
/// `outputs_match` says so.
#[test]
fn tampered_files_move_the_real_average_and_not_the_twins() {
    let specs = [RelSpec::ints("L", "HDD", 3_000).with_key_range(1 << 20)];
    let seed = 5;
    let generated = {
        let mut sm = StorageSim::from_hierarchy(&unit_page_hierarchy());
        let rel = Relation::create(&mut sm, &specs[0], true, seed).unwrap();
        rel.collect_rows().unwrap()
    };
    let avg_of = |rows: &ocas_engine::RowBuf| {
        let inputs = [("L".to_string(), ocal::Value::int_list(rows.as_slice()))].into();
        let v = ocal::Evaluator::new()
            .run(&ocal::parse("avg(L)").unwrap(), &inputs)
            .expect("interpreter");
        v.as_int().unwrap()
    };
    // Not a permutation of the generated values: every one moved up.
    let tampered = ocas_engine::RowBuf::from_vec(
        generated.as_slice().iter().map(|v| v + 1_000_000).collect(),
        1,
    );
    assert_ne!(avg_of(&generated), avg_of(&tampered));

    for b_in in [1, 512] {
        let plan = Plan::Aggregate { input: 0, b_in };
        let clean = report_over_files(&plan, &specs, seed, Route::Executor, |_, _| {});
        assert!(clean.outputs_match(), "b_in = {b_in}");
        assert_eq!(clean.output.row(0), [avg_of(&generated)], "b_in = {b_in}");

        let moved = report_over_files(&plan, &specs, seed, Route::Executor, |fb, rels| {
            rewrite(fb, &rels[0], &tampered)
        });
        assert_eq!(moved.output.row(0), [avg_of(&tampered)], "b_in = {b_in}");
        assert_eq!(moved.sim_output, clean.sim_output, "b_in = {b_in}");
        assert!(!moved.outputs_match(), "b_in = {b_in}");
        // The same requests either way: what moved is the payload.
        let requests = |r: &ocas_runtime::RealReport| -> Vec<(u64, u64)> {
            let counts = r.real_devices.iter().map(|(_, d)| (d.bytes_read, d.seeks));
            counts.collect()
        };
        assert_eq!(requests(&moved), requests(&clean), "b_in = {b_in}");
    }
}

/// A "follows the file" test. The block-nested-loops join in the shape the
/// synthesizer tunes (`k1 = 37` against a stream of one or three tuples):
/// untampered, row for row what its twin and the interpreter's loop nest
/// emit; with the inner file rewritten, row for row the join of the outer
/// relation with what the file now holds.
#[test]
fn tampered_files_move_the_real_join_and_not_the_twins() {
    let specs = [
        RelSpec::pairs("R", "HDD", 150).with_key_range(60),
        RelSpec::pairs("S", "HDD", 400).with_key_range(60),
    ];
    let seed = 17;
    let generated: Vec<ocas_engine::RowBuf> = {
        let mut sm = StorageSim::from_hierarchy(&unit_page_hierarchy());
        (0..2)
            .map(|i| {
                let rel = Relation::create(&mut sm, &specs[i], true, seed + i as u64).unwrap();
                rel.collect_rows().unwrap()
            })
            .collect()
    };
    let loops = ocal::parse(
        "for (oB [k1] <- O) for (iB [k2] <- I) for (o <- oB) for (i <- iB) \
         if o.1 == i.1 then [<o, i>] else []",
    )
    .unwrap();
    let join_of = |outer: &ocas_engine::RowBuf, inner: &ocas_engine::RowBuf, k2: u64| {
        let pairs = |rows: &ocas_engine::RowBuf| {
            let pairs: Vec<(i64, i64)> = rows.iter().map(|r| (r[0], r[1])).collect();
            ocal::Value::pair_list(&pairs)
        };
        let inputs = [
            ("O".to_string(), pairs(outer)),
            ("I".to_string(), pairs(inner)),
        ]
        .into();
        let v = ocal::Evaluator::new()
            .with_param("k1", 37)
            .with_param("k2", k2)
            .run(&loops, &inputs)
            .expect("interpreter");
        // `<<a, b>, <c, d>>` -> `[a, b, c, d]`.
        let flat: Vec<i64> = v
            .to_string()
            .split(|c: char| !c.is_ascii_digit() && c != '-')
            .filter(|t| !t.is_empty())
            .map(|t| t.parse().unwrap())
            .collect();
        ocas_engine::RowBuf::from_vec(flat, 4)
    };
    // The inner relation with its key column reversed: the same keys, so
    // the join stays as dense, on other rows and in another order.
    let tampered = {
        let mut keys: Vec<i64> = generated[1].iter().map(|r| r[0]).collect();
        keys.reverse();
        let rows = generated[1].iter().zip(keys).flat_map(|(r, k)| [k, r[1]]);
        ocas_engine::RowBuf::from_vec(rows.collect(), 2)
    };

    for k2 in [1, 3] {
        let plan = Plan::BnlJoin {
            outer: 0,
            inner: 1,
            k1: 37,
            k2,
            tiling: None,
            pred: JoinPred::KeyEq,
            order_inputs: false,
            output: Output::Discard,
        };
        let clean = report_over_files(&plan, &specs, seed, Route::Executor, |_, _| {});
        assert!(clean.outputs_match(), "k2 = {k2}");
        assert!(!clean.output.is_empty(), "degenerate join");
        assert_eq!(clean.output, join_of(&generated[0], &generated[1], k2));

        let moved = report_over_files(&plan, &specs, seed, Route::Executor, |fb, rels| {
            rewrite(fb, &rels[1], &tampered)
        });
        assert_eq!(moved.output, join_of(&generated[0], &tampered, k2));
        assert_eq!(moved.sim_output, clean.sim_output, "k2 = {k2}");
        assert!(!moved.outputs_match(), "k2 = {k2}");
    }
}

/// "Follows the file" tests for the three streaming templates, on both
/// routes. One input file is rewritten after its creation (still sorted
/// where the template needs that): the real output is the union / zip /
/// duplicate-free list *of what the files now hold*, row for row; the twin's
/// output does not move; `outputs_match` turns false; and the requests are
/// those of the untampered run — what moved is the payload. On the parent of
/// this change the direct route computed all three on the generator's rows.
#[test]
fn tampered_files_move_the_real_union_zip_and_dedup_and_not_the_twins() {
    let seed = 23;
    let generated = |spec: &RelSpec, i: u64| {
        let mut sm = StorageSim::from_hierarchy(&unit_page_hierarchy());
        let rel = Relation::create(&mut sm, spec, true, seed + i).unwrap();
        rel.collect_rows().unwrap()
    };
    let sorted = |name: &str, card| {
        RelSpec::ints(name, "HDD", card)
            .sorted()
            .with_key_range(300)
    };
    let to_hdd = Output::ToDevice {
        device: "HDD".into(),
        buffer_bytes: 512,
    };
    // (plan, specs, which relation is rewritten and how, what the output
    // must then be — computed from the rows each file holds).
    type Case = (
        Plan,
        Vec<RelSpec>,
        (usize, fn(i64) -> i64),
        fn(&[RowBuf]) -> RowBuf,
    );
    let cases: Vec<Case> = vec![
        (
            Plan::MergePass {
                left: 0,
                right: 1,
                kind: MergeKind::MultisetUnionSorted,
                b_in: 48,
                output: to_hdd.clone(),
            },
            vec![sorted("A", 900), sorted("B", 700)],
            (1, |v| 2 * v + 1),
            |files| merge_bufs(&files[0], &files[1], MergeKind::MultisetUnionSorted),
        ),
        (
            Plan::ColumnZip {
                columns: vec![0, 1, 2],
                b_in: 40,
                output: Output::Discard,
            },
            (1..=3)
                .map(|i| RelSpec::ints(&format!("C{i}"), "HDD", 600))
                .collect(),
            (2, |v| -v),
            |files| {
                let rows = (0..files[0].len()).flat_map(|i| files.iter().map(move |f| f.row(i)[0]));
                RowBuf::from_vec(rows.collect(), 3)
            },
        ),
        (
            Plan::DedupSorted {
                input: 0,
                b_in: 64,
                output: to_hdd,
            },
            vec![sorted("L", 1_000)],
            (0, |v| v / 7),
            |files| {
                let mut rows = files[0].clone();
                rows.dedup();
                rows
            },
        ),
    ];
    for (plan, specs, (victim, rewrite_value), expected) in cases {
        let name = plan.name();
        let files: Vec<RowBuf> = (specs.iter().zip(0..))
            .map(|(spec, i)| generated(spec, i))
            .collect();
        let mut tampered = files.clone();
        let moved_rows = files[victim].as_slice().iter().map(|v| rewrite_value(*v));
        tampered[victim] = RowBuf::from_vec(moved_rows.collect(), 1);
        assert_ne!(
            expected(&files),
            expected(&tampered),
            "{name}: tamper harder"
        );

        for route in [Route::Executor, Route::Runtime] {
            let clean = report_over_files(&plan, &specs, seed, route, |_, _| {});
            assert!(clean.outputs_match(), "{name} {route:?}");
            assert_eq!(clean.output, expected(&files), "{name} {route:?}");

            let moved = report_over_files(&plan, &specs, seed, route, |fb, rels| {
                rewrite(fb, &rels[victim], &tampered[victim])
            });
            assert_eq!(moved.output, expected(&tampered), "{name} {route:?}");
            assert_eq!(moved.sim_output, clean.sim_output, "{name} {route:?}");
            assert!(!moved.outputs_match(), "{name} {route:?}");
            let requests = |r: &ocas_runtime::RealReport| -> Vec<(u64, u64, u64)> {
                let counts = r.real_devices.iter();
                counts
                    .map(|(_, d)| (d.bytes_read, d.bytes_written, d.seeks))
                    .collect()
            };
            let same_size = moved.output.len() == clean.output.len();
            if same_size {
                assert_eq!(requests(&moved), requests(&clean), "{name} {route:?}");
            } else {
                // The dedup writes fewer rows; it reads the same.
                let reads = |r| requests(r).iter().map(|c| c.0).collect::<Vec<_>>();
                assert_eq!(reads(&moved), reads(&clean), "{name} {route:?}");
            }
        }
    }
}

/// A "follows the file" test for the external sort, on both routes and at
/// two column widths: over an input file rewritten after its creation —
/// negated (8-byte columns) or reversed (1-byte columns), and with
/// duplicates the generator never drew — the real output is the sort of
/// what the file now holds, row for row, spilled runs and merge levels
/// included; the twin's output does not move; `outputs_match` turns false;
/// and the same bytes are read and written as untampered (which cursor runs
/// dry first, and so the seeks, follow the data). A faithful sort arm that
/// emits from the generator fails the direct route, and one that refuses or
/// truncates 1-byte columns fails both.
#[test]
fn tampered_files_move_the_real_sort_and_not_the_twin() {
    let wide = RelSpec::pairs("L", "HDD", 900).with_key_range(400);
    let narrow = RelSpec {
        col_bytes: 1,
        ..wide.clone()
    };
    tampered_file_moves_the_real_sort(wide, |v| -v / 3);
    tampered_file_moves_the_real_sort(narrow, |v| 255 - v / 3);
}

fn tampered_file_moves_the_real_sort(spec: RelSpec, tamper: fn(i64) -> i64) {
    let specs = [spec];
    let seed = 31;
    let generated = {
        let mut sm = StorageSim::from_hierarchy(&unit_page_hierarchy());
        let rel = Relation::create(&mut sm, &specs[0], true, seed).unwrap();
        rel.collect_rows().unwrap()
    };
    let tampered = RowBuf::from_vec(generated.as_slice().iter().map(|v| tamper(*v)).collect(), 2);
    let sorted = |rows: &RowBuf| {
        let mut rows = rows.clone();
        rows.sort();
        rows
    };
    assert_ne!(sorted(&generated), sorted(&tampered), "tamper harder");
    // Runs of 3 x 16 + 32 = 80 tuples: twelve runs, two merge levels and
    // the output pass, which writes to the HDD.
    let plan = Plan::ExternalSort {
        input: 0,
        fan_in: 3,
        b_in: 16,
        b_out: 32,
        scratch: "HDD".into(),
        output: Output::ToDevice {
            device: "HDD".into(),
            buffer_bytes: 512,
        },
    };
    let col_bytes = specs[0].col_bytes;
    for route in [Route::Executor, Route::Runtime] {
        let clean = report_over_files(&plan, &specs, seed, route, |_, _| {});
        assert!(clean.outputs_match(), "{route:?} {col_bytes} B");
        assert_eq!(clean.output, sorted(&generated), "{route:?} {col_bytes} B");

        let moved = report_over_files(&plan, &specs, seed, route, |fb, rels| {
            rewrite(fb, &rels[0], &tampered)
        });
        assert_eq!(moved.output, sorted(&tampered), "{route:?} {col_bytes} B");
        assert_eq!(
            moved.sim_output, clean.sim_output,
            "{route:?} {col_bytes} B"
        );
        assert!(!moved.outputs_match(), "{route:?} {col_bytes} B");
        let bytes = |r: &ocas_runtime::RealReport| -> Vec<(u64, u64)> {
            let devices = r.real_devices.iter();
            devices
                .map(|(_, d)| (d.bytes_read, d.bytes_written))
                .collect()
        };
        assert_eq!(bytes(&moved), bytes(&clean), "{route:?} {col_bytes} B");
    }
}

/// A "follows the file" test: a relation that is nothing but an attached
/// file — no generator — runs through the generic executor on a backend
/// that hands its payload back, and is a typed `MissingRows` on the
/// simulator, which cannot.
#[test]
fn an_attached_file_runs_where_its_payload_is_and_is_missing_rows_elsewhere() {
    let h = unit_page_hierarchy();
    let rows = RowBuf::from_vec((0..500).map(|v| v / 3).collect(), 1);
    let plan = Plan::DedupSorted {
        input: 0,
        b_in: 32,
        output: Output::Discard,
    };
    fn attached<B: StorageBackend>(sm: B, rows: &RowBuf) -> Executor<B> {
        let mut ex = Executor::new(sm, Mode::Faithful, CpuModel::disabled());
        let file = ex.sm.alloc("HDD", rows.len() as u64 * 8).unwrap();
        ex.sm.materialize(file, 0, &rows.encode()).unwrap();
        ex.add_relation(Relation::attach(file, rows.len() as u64, 1, 1));
        ex
    }
    let fb = FileBackend::from_hierarchy(&h, PoolConfig::default()).unwrap();
    let stats = attached(fb, &rows).run(&plan).unwrap();
    let mut want = rows.clone();
    want.dedup();
    assert_eq!(stats.output, Some(want));

    let on_sim = attached(StorageSim::from_hierarchy(&h), &rows).run(&plan);
    assert!(
        matches!(on_sim, Err(ExecError::MissingRows(0))),
        "{on_sim:?}"
    );
}

/// A "follows the file" test for the GRACE join, on both routes: with the
/// right input's key column rewritten after its creation, the real output is
/// the join of what the files now hold — as a bag, against a brute-force
/// nested loop, since the buckets decide the order — the twin's output does
/// not move, and `outputs_match` turns false; and both passes read the same
/// bytes as untampered. So at 8-byte columns, at 4-byte ones, and with
/// 8-byte columns on the left and 4-byte ones on the right, whose join rows
/// are read back in that layout. A faithful GRACE arm that partitions the
/// generator's rows fails the direct route, and one that refuses or
/// truncates narrow columns fails both.
#[test]
fn tampered_files_move_the_real_grace_join_and_not_the_twin() {
    for col_bytes in [(8, 8), (4, 4), (8, 4)] {
        let spec = |name, card, col_bytes| RelSpec {
            col_bytes,
            ..RelSpec::pairs(name, "HDD", card).with_key_range(50)
        };
        tampered_file_moves_the_real_grace_join([
            spec("R", 300, col_bytes.0),
            spec("S", 200, col_bytes.1),
        ]);
    }
}

fn tampered_file_moves_the_real_grace_join(specs: [RelSpec; 2]) {
    let layout = (specs[0].col_bytes, specs[1].col_bytes);
    let seed = 41;
    let generated: Vec<RowBuf> = (0..2)
        .map(|i| {
            let mut sm = StorageSim::from_hierarchy(&unit_page_hierarchy());
            let rel = Relation::create(&mut sm, &specs[i], true, seed + i as u64).unwrap();
            rel.collect_rows().unwrap()
        })
        .collect();
    // The right input's keys moved to other keys of the same range: the
    // join stays as dense, over other pairs.
    let tampered = {
        let rows = generated[1]
            .iter()
            .flat_map(|r| [(r[0] * 7 + 3) % 50, r[1]]);
        RowBuf::from_vec(rows.collect(), 2)
    };
    let join_bag = |left: &RowBuf, right: &RowBuf| {
        let mut rows: Vec<Vec<i64>> = Vec::new();
        for x in left.iter() {
            for y in right.iter().filter(|y| y[0] == x[0]) {
                rows.push([x, y].concat());
            }
        }
        rows.sort();
        rows
    };
    let bag = |rows: &RowBuf| {
        let mut rows = rows.to_rows();
        rows.sort();
        rows
    };
    let want = join_bag(&generated[0], &generated[1]);
    let want_moved = join_bag(&generated[0], &tampered);
    assert_ne!(want, want_moved, "tamper harder");
    let plan = Plan::GraceJoin {
        left: 0,
        right: 1,
        partitions: 5,
        buffer_bytes: 1 << 10,
        spill: "HDD".into(),
        pred: JoinPred::KeyEq,
        output: Output::ToDevice {
            device: "HDD".into(),
            buffer_bytes: 512,
        },
    };
    for route in [Route::Executor, Route::Runtime] {
        let clean = report_over_files(&plan, &specs, seed, route, |_, _| {});
        assert!(clean.outputs_match(), "{route:?} {layout:?} B");
        assert_eq!(bag(&clean.output), want, "{route:?} {layout:?} B");

        let moved = report_over_files(&plan, &specs, seed, route, |fb, rels| {
            rewrite(fb, &rels[1], &tampered)
        });
        assert_eq!(bag(&moved.output), want_moved, "{route:?} {layout:?} B");
        assert_eq!(moved.sim_output, clean.sim_output, "{route:?} {layout:?} B");
        assert!(!moved.outputs_match(), "{route:?} {layout:?} B");
        let reads = |r: &ocas_runtime::RealReport| -> Vec<u64> {
            r.real_devices.iter().map(|(_, d)| d.bytes_read).collect()
        };
        assert_eq!(reads(&moved), reads(&clean), "{route:?} {layout:?} B");
    }
}
