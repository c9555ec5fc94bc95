//! The streaming templates out of core: merge passes, column zips and
//! duplicate removal stream blocks of real files through the buffer pool
//! like sort and GRACE — correct against the engine's reference semantics,
//! with peak resident tuple memory bounded by the configured buffers (NOT
//! by input cardinality), and the fsync/`O_DIRECT` disk-bounded timing mode
//! produces identical results.
//!
//! The templates run on two routes, and the tests take both: the generic
//! executor handed a [`FileBackend`] directly, and the runtime's entry
//! points ([`Runtime::run_plan`], [`Runtime::execute`]), which run the same
//! executor with device-bound outputs left on their device until the
//! harvest. The relations of the direct route are attached files without a
//! generator, so these are "follows the file" tests: the rows can only have
//! come from the bytes the block reads returned.

use ocas_engine::{CpuModel, Executor, MergeKind, Mode, Output, Plan, RelSpec, Relation, RowBuf};
use ocas_hierarchy::presets;
use ocas_runtime::{FileBackend, PoolConfig, Runtime, TimingMode};
use ocas_storage::StorageBackend;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "../../ocas-engine/tests/merge_oracle/mod.rs"]
mod merge_oracle;
use merge_oracle::merge_bufs;

/// Generates a sorted relation of `card` tuples directly on the backend,
/// in bounded chunks — the relation is attached, without in-memory rows, so
/// the input never resides in RAM (the setup a peak-memory claim needs).
/// Width 1 is a sorted list with duplicates; width 2 is `<value,
/// multiplicity>` pairs, values strictly increasing.
fn streamed_sorted(fb: &mut FileBackend, card: u64, width: usize, seed: u64) -> Relation {
    let tb = width as u64 * 8;
    let file = fb.alloc("HDD", (card * tb).max(1)).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cur = 0i64;
    let mut at = 0u64;
    let chunk = 64 * 1024u64;
    let mut buf = RowBuf::new(width);
    let mut bytes = Vec::new();
    while at < card {
        let take = chunk.min(card - at);
        buf.clear();
        for _ in 0..take {
            if width == 1 {
                cur += rng.gen_range(0..3i64);
                buf.push(&[cur]);
            } else {
                cur += rng.gen_range(1..3i64);
                buf.push(&[cur, rng.gen_range(1..5i64)]);
            }
        }
        bytes.clear();
        buf.encode_into(8, &mut bytes);
        fb.materialize(file, at * tb, &bytes).unwrap();
        at += take;
    }
    Relation::attach(file, card, width as u32, card.max(1))
}

fn streamed_sorted_ints(fb: &mut FileBackend, card: u64, seed: u64) -> Relation {
    streamed_sorted(fb, card, 1, seed)
}

/// The generic executor on `fb`, faithful, over `rels` (plan index =
/// position).
fn executor(fb: FileBackend, rels: &[Relation], collect: bool) -> Executor<FileBackend> {
    let mut ex =
        Executor::new(fb, Mode::Faithful, CpuModel::disabled()).with_output_collection(collect);
    ex.rels = rels.to_vec();
    ex
}

#[test]
fn merge_zip_dedup_match_the_simulator_through_the_runtime() {
    let h = presets::hdd_ram(1 << 22);
    let rt = Runtime::new(h);

    // Merge pass, every kind that runs on sorted unary lists.
    for kind in [
        MergeKind::SetUnion,
        MergeKind::MultisetUnionSorted,
        MergeKind::MultisetDiffSorted,
    ] {
        let report = rt
            .run_plan(
                &Plan::MergePass {
                    left: 0,
                    right: 1,
                    kind,
                    b_in: 64,
                    output: Output::ToDevice {
                        device: "HDD".into(),
                        buffer_bytes: 1 << 10,
                    },
                },
                &[
                    RelSpec::ints("A", "HDD", 700).sorted().with_key_range(90),
                    RelSpec::ints("B", "HDD", 400).sorted().with_key_range(90),
                ],
                21,
            )
            .unwrap();
        assert!(report.outputs_match(), "{kind:?} diverged from simulator");
        assert!(!report.output.is_empty(), "{kind:?} produced no rows");
        assert!(
            report.peak_resident_bytes.is_some(),
            "{kind:?} must meter its resident tuples"
        );
    }

    // Column zip.
    let report = rt
        .run_plan(
            &Plan::ColumnZip {
                columns: vec![0, 1, 2],
                b_in: 32,
                output: Output::ToDevice {
                    device: "HDD".into(),
                    buffer_bytes: 1 << 10,
                },
            },
            &[
                RelSpec::ints("C1", "HDD", 500),
                RelSpec::ints("C2", "HDD", 500),
                RelSpec::ints("C3", "HDD", 500),
            ],
            31,
        )
        .unwrap();
    assert!(report.outputs_match(), "zip diverged from simulator");
    assert_eq!(report.output.len(), 500);
    assert_eq!(report.output.width(), 3);

    // Dedup.
    let report = rt
        .run_plan(
            &Plan::DedupSorted {
                input: 0,
                b_in: 64,
                output: Output::ToDevice {
                    device: "HDD".into(),
                    buffer_bytes: 1 << 10,
                },
            },
            &[RelSpec::ints("L", "HDD", 900).sorted().with_key_range(111)],
            41,
        )
        .unwrap();
    assert!(report.outputs_match(), "dedup diverged from simulator");
    assert!(report.output.len() <= 112, "adjacent duplicates removed");
}

/// The headline out-of-core property: the streaming templates' resident
/// tuple memory is bounded by the configured buffers — below the RAM
/// device size — even when the input is orders of magnitude larger, on both
/// routes. On the direct one the inputs are generated straight onto the
/// backing files and attached, so nothing about the setup holds the
/// relations in memory either; through `run_plan` the bound holds because
/// a device-bound output stays on its device until the harvest.
#[test]
fn streaming_templates_peak_memory_is_bounded_by_ram_not_cardinality() {
    let ram_bytes: u64 = 256 * 1024;
    let h = presets::hdd_ram(ram_bytes);
    let mut fb = FileBackend::from_hierarchy(&h, PoolConfig::default()).unwrap();
    // 800k + 400k tuples = 9.6 MB of input against a 256 KiB RAM device.
    let a = streamed_sorted_ints(&mut fb, 800_000, 1);
    let b = streamed_sorted_ints(&mut fb, 400_000, 2);
    let input_bytes = a.bytes() + b.bytes();
    assert!(input_bytes > 30 * ram_bytes, "input dwarfs RAM");
    let out = Output::ToDevice {
        device: "HDD".into(),
        buffer_bytes: 16 * 1024,
    };
    let merge = Plan::MergePass {
        left: 0,
        right: 1,
        kind: MergeKind::MultisetUnionSorted,
        b_in: 1024,
        output: out.clone(),
    };
    let dedup = Plan::DedupSorted {
        input: 0,
        b_in: 1024,
        output: out.clone(),
    };
    let zip = Plan::ColumnZip {
        columns: vec![0, 1],
        b_in: 1024,
        output: out.clone(),
    };
    let mut ex = executor(fb, &[a.clone(), b.clone()], false);

    // Merge: 2 x b_in-tuple cursors + one 16 KiB staging buffer.
    let run = ex.run(&merge).unwrap();
    assert_eq!(run.output_rows, 1_200_000);
    assert!(
        run.peak_resident_bytes <= ram_bytes,
        "merge peak {} exceeds the {} B RAM device",
        run.peak_resident_bytes,
        ram_bytes
    );

    // Dedup: one cursor + staging.
    let run = ex.run(&dedup).unwrap();
    assert!(run.output_rows > 0 && run.output_rows <= a.card);
    assert!(
        run.peak_resident_bytes <= ram_bytes,
        "dedup peak {}",
        run.peak_resident_bytes
    );

    // Zip: one cursor per column + staging.
    let run = ex.run(&zip).unwrap();
    assert_eq!(run.output_rows, b.card);
    assert!(
        run.peak_resident_bytes <= ram_bytes,
        "zip peak {}",
        run.peak_resident_bytes
    );

    // External sort under the same bound: a batch of fan_in*b_in + b_out
    // tuples and its encoding while the runs of the attached file form.
    let sort = Plan::ExternalSort {
        input: 1,
        fan_in: 4,
        b_in: 512,
        b_out: 1024,
        scratch: "HDD".into(),
        output: out.clone(),
    };
    let run = ex.run(&sort).unwrap();
    assert_eq!(run.output_rows, b.card);
    assert!(
        run.peak_resident_bytes <= ram_bytes,
        "sort peak {} exceeds RAM {}",
        run.peak_resident_bytes,
        ram_bytes
    );
    drop(ex);

    // The same three plans through the runtime, over generated relations
    // of the same sizes: the whole output comes back, and was never held.
    let rt = Runtime::new(h);
    let specs = [
        RelSpec::ints("A", "HDD", 800_000).sorted(),
        RelSpec::ints("B", "HDD", 400_000).sorted(),
    ];
    for (plan, rows) in [
        (merge, Some(1_200_000)),
        (dedup, None),
        (zip, Some(400_000)),
    ] {
        let report = rt.run_plan(&plan, &specs, 3).unwrap();
        assert!(report.outputs_match(), "{}", plan.name());
        assert!(!report.output.is_empty(), "{}", plan.name());
        if let Some(rows) = rows {
            assert_eq!(report.output.len(), rows, "{}", plan.name());
        }
        let peak = report.peak_resident_bytes.expect("metered");
        assert!(peak <= ram_bytes, "{} peak {peak}", plan.name());
    }
}

/// Correctness of the streaming merge against the engine's batch-level
/// reference semantics, on data read back from the real files: every
/// [`MergeKind`], on both routes.
#[test]
fn streaming_merge_agrees_with_reference_semantics_on_disk_data() {
    let h = presets::hdd_ram(1 << 22);
    let mut fb = FileBackend::from_hierarchy(&h, PoolConfig::default()).unwrap();
    // Relations 0, 1: sorted lists; 2, 3: value-multiplicity pairs.
    let rels = [
        streamed_sorted_ints(&mut fb, 5_000, 7),
        streamed_sorted_ints(&mut fb, 3_000, 8),
        streamed_sorted(&mut fb, 5_000, 2, 9),
        streamed_sorted(&mut fb, 3_000, 2, 10),
    ];
    // Read the generated inputs back (uncharged) for the oracle.
    let bufs: Vec<RowBuf> = rels
        .iter()
        .map(|rel| {
            let mut bytes = vec![0; rel.bytes() as usize];
            fb.peek(rel.file, 0, &mut bytes).unwrap();
            rel.layout().decode(&bytes)
        })
        .collect();
    for (kind, left) in [
        (MergeKind::SetUnion, 0),
        (MergeKind::MultisetUnionSorted, 0),
        (MergeKind::MultisetDiffSorted, 0),
        (MergeKind::MultisetUnionVm, 2),
        (MergeKind::MultisetDiffVm, 2),
    ] {
        let plan = Plan::MergePass {
            left,
            right: left + 1,
            kind,
            b_in: 128,
            output: Output::Discard,
        };
        let want = merge_bufs(&bufs[left], &bufs[left + 1], kind);
        assert!(!want.is_empty(), "{kind:?} is degenerate");

        let mut ex = executor(fb, &rels, true);
        let direct = ex.run(&plan).unwrap();
        assert_eq!(
            direct.output.as_ref(),
            Some(&want),
            "{kind:?} diverged from reference semantics"
        );
        let (back, run) = Runtime::execute(ex.sm, &rels, &plan);
        fb = back;
        assert_eq!(
            run.unwrap().output,
            Some(want),
            "{kind:?} diverged through the runtime"
        );
    }
}

/// The disk-bounded timing mode (fsync + `O_DIRECT` where the platform
/// grants it) produces byte-identical results; its clock includes the
/// write-back + sync work.
#[test]
fn disk_bounded_timing_mode_is_correct_and_charges_the_sync() {
    let h = presets::hdd_ram(1 << 22);
    let plan = Plan::ExternalSort {
        input: 0,
        fan_in: 4,
        b_in: 64,
        b_out: 128,
        scratch: "HDD".into(),
        output: Output::ToDevice {
            device: "HDD".into(),
            buffer_bytes: 1 << 12,
        },
    };
    let specs = [RelSpec::ints("L", "HDD", 20_000)];
    let buffered = Runtime::new(h.clone()).run_plan(&plan, &specs, 5).unwrap();
    let bounded = Runtime::new(h)
        .with_pool(PoolConfig {
            timing: TimingMode::DiskBounded,
            ..PoolConfig::default()
        })
        .run_plan(&plan, &specs, 5)
        .unwrap();
    assert_eq!(
        buffered.output, bounded.output,
        "timing mode changed results"
    );
    assert!(bounded.outputs_match());
    assert!(bounded.wall_seconds > 0.0 && bounded.io_seconds > 0.0);
    // Identical request streams in both modes.
    let bytes = |r: &ocas_runtime::RealReport| {
        r.real_devices
            .iter()
            .map(|(_, s)| (s.bytes_read, s.bytes_written))
            .collect::<Vec<_>>()
    };
    assert_eq!(bytes(&buffered), bytes(&bounded));
}

/// The direct-I/O staging path of the buffer pool is exercised even where
/// `O_DIRECT` itself is unavailable (the aligned-copy logic is identical).
#[test]
fn pool_direct_staging_round_trips() {
    use ocas_runtime::{BufferPool, PolicyKind};
    let dir = std::env::temp_dir().join(format!("ocas-direct-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("staging.bin");
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)
        .unwrap();
    file.set_len(1 << 20).unwrap();
    let mut pool = BufferPool::new(file, 4096, 4, PolicyKind::Lru).with_direct(true);
    assert!(pool.is_direct());
    let data: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
    pool.write(100, &data).unwrap();
    pool.flush().unwrap();
    let mut back = vec![0u8; 9000];
    pool.read(100, &mut back).unwrap();
    assert_eq!(back, data);
    let _ = std::fs::remove_dir_all(&dir);
}
