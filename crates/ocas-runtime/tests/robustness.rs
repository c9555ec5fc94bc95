//! Robustness of plans run on real files through `Runtime::execute` — the
//! external sort's spilled runs, the GRACE join's spilled buckets, the
//! streaming templates: graceful ENOSPC degradation (shrink
//! spill extents, fail over to an alternate device) keeps results correct,
//! and every failure path — injected or genuine — leaves the backend clean:
//! no spill or output extents past the entry watermark, and typed errors
//! rather than panics. Faults are injected by wrapping the file backend in
//! `Faulted`, the injector the simulator runs under too.

use ocas_engine::{
    CpuModel, ExecError, Executor, JoinPred, MergeKind, Mode, Output, Plan, RelSpec, Relation,
    RowBuf,
};
use ocas_hierarchy::{presets, DeviceKind, Hierarchy, NodeProps};
use ocas_runtime::{FileBackend, PoolConfig, Runtime, RuntimeError};
use ocas_storage::{
    FaultKind, FaultOp, FaultPlan, Faulted, RetryPolicy, StorageBackend, StorageError, StorageSim,
};

/// RAM root with the input HDD, a deliberately tiny scratch device, and a
/// roomy fallback device.
fn tiny_scratch_hierarchy(scratch_bytes: u64) -> Hierarchy {
    let mut h = Hierarchy::new(presets::ram_props("RAM", 1 << 22)).expect("root");
    h.add_child("RAM", presets::hdd_props("HDD"), presets::hdd_edge())
        .expect("hdd");
    h.add_child(
        "RAM",
        NodeProps::new("TINY", scratch_bytes, DeviceKind::Hdd).with_pagesize(4096),
        presets::hdd_edge(),
    )
    .expect("tiny");
    h.add_child("RAM", presets::hdd_props("BIG"), presets::hdd_edge())
        .expect("big");
    h
}

fn backend(h: &Hierarchy) -> FileBackend {
    FileBackend::from_hierarchy(h, PoolConfig::default()).unwrap()
}

/// `fb` under `plan`, with the default retry policy.
fn faulted(fb: FileBackend, plan: FaultPlan) -> Faulted<FileBackend> {
    Faulted::new(fb, plan, RetryPolicy::default())
}

/// The rows a `Discard` run collected, sorted.
fn sorted_rows(rows: Option<RowBuf>) -> RowBuf {
    let mut rows = rows.expect("collected");
    rows.sort();
    rows
}

/// The external sort the tests below run: four 64-tuple cursors and a
/// 128-tuple output batch, so runs of 384 tuples.
fn sort(scratch: &str, output: Output) -> Plan {
    Plan::ExternalSort {
        input: 0,
        fan_in: 4,
        b_in: 64,
        b_out: 128,
        scratch: scratch.into(),
        output,
    }
}

/// The GRACE join of relations 0 and 1 the tests below run: four
/// partitions, `Output::Discard`.
fn grace(spill: &str, buffer_bytes: u64) -> Plan {
    Plan::GraceJoin {
        left: 0,
        right: 1,
        partitions: 4,
        buffer_bytes,
        spill: spill.into(),
        pred: JoinPred::KeyEq,
        output: Output::Discard,
    }
}

#[test]
fn sort_degrades_to_smaller_runs_and_fails_over_with_correct_output() {
    let h = tiny_scratch_hierarchy(4096);
    // Clean oracle: same data, scratch on the roomy device.
    let mut clean = backend(&h);
    let rel = Relation::create(&mut clean, &RelSpec::ints("A", "HDD", 2_000), true, 9).unwrap();
    let oracle = Runtime::execute(clean, &[rel], &sort("BIG", Output::Discard)).1;
    let oracle = oracle.unwrap().output;

    // Degrading run: scratch is 4 KiB against 16 KB of runs per merge
    // level, so run formation must shrink and eventually fail over.
    let mut fb = backend(&h).with_spill_fallback("BIG");
    let rel = Relation::create(&mut fb, &RelSpec::ints("A", "HDD", 2_000), true, 9).unwrap();
    let (fb, run) = Runtime::execute(fb, &[rel], &sort("TINY", Output::Discard));
    let run = run.unwrap();
    assert_eq!(run.output_rows, 2_000);
    assert_eq!(run.output, oracle, "degraded sort changed the answer");

    let rec = fb.recovery_counters().expect("degradations recorded");
    assert!(rec.degraded_shrinks > 0, "expected shrink degradations");
    assert_eq!(rec.degraded_failovers, 1, "expected one device failover");
}

#[test]
fn grace_join_degrades_spill_partitions_with_correct_output() {
    let h = tiny_scratch_hierarchy(2048);
    let specs = [
        RelSpec::ints("L", "HDD", 800).with_key_range(50),
        RelSpec::ints("R", "HDD", 600).with_key_range(50),
    ];

    let mut clean = backend(&h);
    let l = Relation::create(&mut clean, &specs[0], true, 3).unwrap();
    let r = Relation::create(&mut clean, &specs[1], true, 4).unwrap();
    let oracle = Runtime::execute(clean, &[l, r], &grace("BIG", 512))
        .1
        .unwrap()
        .output;
    assert!(oracle.as_ref().is_some_and(|rows| !rows.is_empty()));

    let mut fb = backend(&h).with_spill_fallback("BIG");
    let l = Relation::create(&mut fb, &specs[0], true, 3).unwrap();
    let r = Relation::create(&mut fb, &specs[1], true, 4).unwrap();
    let (fb, run) = Runtime::execute(fb, &[l, r], &grace("TINY", 512));
    let run = run.unwrap();
    assert_eq!(
        sorted_rows(run.output),
        sorted_rows(oracle),
        "degraded GRACE join changed the answer"
    );

    let rec = fb.recovery_counters().expect("degradations recorded");
    assert!(rec.degradations() > 0, "expected spill degradations");
    assert_eq!(rec.degraded_failovers, 1);
}

#[test]
fn injected_no_space_triggers_degradation_not_failure() {
    // A one-shot ENOSPC on the first scratch allocation: the sort shrinks
    // (and the next attempt's request index clears the spec), completing
    // with the right answer on an otherwise roomy device.
    let h = presets::two_hdd_ram(1 << 22);
    let plan = FaultPlan::new().with("HDD2", FaultOp::Alloc, 0, FaultKind::NoSpace);
    let mut fb = faulted(backend(&h), plan);
    let rel = Relation::create(&mut fb, &RelSpec::ints("A", "HDD", 1_500), true, 11).unwrap();
    let (fb, run) = Runtime::execute(fb, &[rel], &sort("HDD2", Output::Discard));
    assert_eq!(run.unwrap().output_rows, 1_500);
    let rec = fb.recovery_counters().expect("counters with injector");
    assert_eq!(rec.no_space_faults, 1);
    assert!(rec.degraded_shrinks > 0, "ENOSPC must degrade, not fail");
}

/// A persistent injected failure mid-sort surfaces a typed error and leaves
/// the backend clean — scratch watermark rolled back to its entry mark.
#[test]
fn failed_sort_leaves_no_spill_extents_and_no_pins() {
    let h = presets::two_hdd_ram(1 << 22);
    // Every scratch-device write fails on every retry attempt.
    let mut plan = FaultPlan::new();
    for at in 0..256 {
        plan = plan.with("HDD2", FaultOp::Write, at, FaultKind::Transient);
    }
    let mut fb = faulted(backend(&h), plan);
    let rel = Relation::create(&mut fb, &RelSpec::ints("A", "HDD", 2_000), true, 5).unwrap();
    let mark = fb.watermark("HDD2").unwrap();

    let (fb, run) = Runtime::execute(fb, &[rel], &sort("HDD2", Output::Discard));
    let err = run.expect_err("persistent write faults must fail the sort");
    assert!(
        matches!(
            &err,
            RuntimeError::Exec(ExecError::Storage(StorageError::Transient { device, .. }))
                if device == "HDD2"
        ),
        "expected a typed transient error, got: {err}"
    );
    assert_eq!(
        fb.watermark("HDD2").unwrap(),
        mark,
        "failed sort leaked spill extents"
    );
    let rec = fb.recovery_counters().expect("counters with injector");
    assert!(rec.gave_up >= 1);
}

/// A persistent injected failure mid-GRACE-partition — on the
/// first append, or forty requests into the streams — surfaces a typed
/// error and leaves the backend clean.
#[test]
fn failed_grace_partition_leaves_no_spill_extents_and_no_pins() {
    for first_fault in [0, 40] {
        failed_grace_partition(first_fault);
    }
}

fn failed_grace_partition(first_fault: u64) {
    let h = presets::two_hdd_ram(1 << 22);
    let mut plan = FaultPlan::new();
    for at in first_fault..first_fault + 256 {
        plan = plan.with("HDD2", FaultOp::Write, at, FaultKind::Transient);
    }
    let mut fb = faulted(backend(&h), plan);
    let l = Relation::create(
        &mut fb,
        &RelSpec::ints("L", "HDD", 800).with_key_range(50),
        true,
        6,
    )
    .unwrap();
    let r = Relation::create(
        &mut fb,
        &RelSpec::ints("R", "HDD", 600).with_key_range(50),
        true,
        7,
    )
    .unwrap();
    let mark = fb.watermark("HDD2").unwrap();

    let (fb, run) = Runtime::execute(fb, &[l, r], &grace("HDD2", 512));
    let err = run.expect_err("persistent spill faults must fail the join");
    assert!(
        matches!(
            err,
            RuntimeError::Exec(ExecError::Storage(StorageError::Transient { .. }))
        ),
        "expected a typed transient error, got: {err}"
    );
    assert_eq!(
        fb.watermark("HDD2").unwrap(),
        mark,
        "failed join leaked spill extents"
    );
}

/// Transient faults under the default retry policy are invisible to
/// callers: same rows, recovery counters show the retries.
#[test]
fn transient_faults_are_absorbed_by_retries() {
    let h = presets::two_hdd_ram(1 << 22);
    let plan = FaultPlan::new()
        .with("HDD2", FaultOp::Any, 1, FaultKind::Transient)
        .with("HDD2", FaultOp::Any, 9, FaultKind::Transient)
        .with("HDD2", FaultOp::Any, 14, FaultKind::Latency(0.005));
    let mut fb = faulted(backend(&h), plan);
    let rel = Relation::create(&mut fb, &RelSpec::ints("A", "HDD", 1_200), true, 13).unwrap();
    let (fb, run) = Runtime::execute(fb, &[rel], &sort("HDD2", Output::Discard));
    let run = run.unwrap();
    assert_eq!(run.output_rows, 1_200);
    let output = run.output.expect("collected");
    assert!(output.is_sorted(), "output must still be sorted");
    let rec = fb.recovery_counters().expect("counters with injector");
    assert!(rec.retry_successes >= 2);
    assert_eq!(rec.gave_up, 0);
    assert!(rec.latency_spikes <= 1);
}

/// A bucket's extent reservation that meets ENOSPC halves — sixteen pages
/// down to the one page that holds a staging buffer — and only then fails
/// over, once; the join's answer does not change.
#[test]
fn no_space_on_a_bucket_reservation_halves_it_then_fails_over() {
    let h = presets::two_hdd_ram(1 << 22);
    let specs = [
        RelSpec::pairs("L", "HDD", 900).with_key_range(60),
        RelSpec::pairs("R", "HDD", 700).with_key_range(60),
    ];
    let join = |mut fb: Faulted<FileBackend>| {
        let l = Relation::create(&mut fb, &specs[0], true, 3).unwrap();
        let r = Relation::create(&mut fb, &specs[1], true, 4).unwrap();
        let (fb, run) = Runtime::execute(fb, &[l, r], &grace("HDD2", 2048));
        (fb, run.unwrap())
    };
    let oracle = sorted_rows(join(faulted(backend(&h), FaultPlan::new())).1.output);
    assert!(!oracle.is_empty(), "join oracle must produce rows");

    // HDD2 sees nothing but the spill: its request 0 is the first bucket's
    // reservation, and every failed attempt is the next request.
    for (refusals, shrinks, failovers) in [(2, 2, 0), (4, 4, 0), (5, 4, 1)] {
        let mut plan = FaultPlan::new();
        for at in 0..refusals {
            plan = plan.with("HDD2", FaultOp::Alloc, at, FaultKind::NoSpace);
        }
        let fb = faulted(backend(&h).with_spill_fallback("HDD"), plan);
        let (fb, run) = join(fb);
        assert_eq!(sorted_rows(run.output), oracle, "{refusals} refusals");
        let rec = fb.recovery_counters().expect("counters with injector");
        assert_eq!(rec.no_space_faults, refusals, "{refusals} refusals");
        assert_eq!(rec.degraded_shrinks, shrinks, "{refusals} refusals");
        assert_eq!(rec.degraded_failovers, failovers, "{refusals} refusals");
        let spilled = fb.device_stats("HDD2").unwrap().bytes_written;
        assert_eq!(
            spilled == 0,
            failovers == 1,
            "a failover moves every stream"
        );
    }
}

/// A failure in the middle of the sort's output pass — the pass that
/// writes to the output device, here a second one — leaves no spill bytes
/// and nothing on the output device past its entry mark.
#[test]
fn failed_output_pass_leaves_neither_spill_nor_output_bytes() {
    let h = presets::two_hdd_ram(1 << 22);
    // Output-device writes fail for good from the third batch on.
    let mut plan = FaultPlan::new();
    for at in 3..259 {
        plan = plan.with("HDD2", FaultOp::Write, at, FaultKind::Transient);
    }
    let mut fb = faulted(backend(&h), plan);
    let rel = Relation::create(&mut fb, &RelSpec::ints("A", "HDD", 2_000), true, 5).unwrap();
    let marks = [fb.watermark("HDD").unwrap(), fb.watermark("HDD2").unwrap()];
    let out = Output::ToDevice {
        device: "HDD2".into(),
        buffer_bytes: 1 << 10,
    };
    let (fb, run) = Runtime::execute(fb, &[rel], &sort("HDD", out));
    let err = run.expect_err("persistent output faults must fail the sort");
    assert!(
        matches!(
            &err,
            RuntimeError::Exec(ExecError::Storage(StorageError::Transient { device, .. }))
                if device == "HDD2"
        ),
        "expected a typed transient error, got: {err}"
    );
    let written = fb.device_stats("HDD2").unwrap().bytes_written;
    assert!(written > 0, "the pass was under way: {written} bytes out");
    assert_eq!(fb.watermark("HDD").unwrap(), marks[0], "leaked spill runs");
    assert_eq!(fb.watermark("HDD2").unwrap(), marks[1], "leaked output");
}

/// A torn write-back of a partition page is silent while the bucket is
/// written and surfaces as `CorruptPage` on the bucket read that reaches
/// the page — a typed error, and a clean backend after it.
#[test]
fn torn_partition_page_surfaces_on_the_bucket_read_that_reaches_it() {
    let h = presets::two_hdd_ram(1 << 22);
    // Four frames, and staging buffers of exactly one page: every flush
    // dirties a whole page, the fifth evicts the first — torn, its second
    // half never reaches the file.
    let cfg = PoolConfig {
        page_bytes: 4096,
        frames: 4,
        ..PoolConfig::default()
    };
    let plan = FaultPlan::new().with("HDD2", FaultOp::Write, 1, FaultKind::TornWriteBack);
    let mut fb = faulted(FileBackend::from_hierarchy(&h, cfg).unwrap(), plan);
    let l = Relation::create(
        &mut fb,
        &RelSpec::pairs("L", "HDD", 4096).with_key_range(500),
        true,
        6,
    )
    .unwrap();
    let r = Relation::create(
        &mut fb,
        &RelSpec::pairs("R", "HDD", 2048).with_key_range(500),
        true,
        7,
    )
    .unwrap();
    let mark = fb.watermark("HDD2").unwrap();
    let (lbytes, rbytes) = (l.bytes(), r.bytes());
    let (fb, run) = Runtime::execute(fb, &[l, r], &grace("HDD2", 4 * 4096));
    let err = run.expect_err("the torn page must not be joined");
    assert!(
        matches!(
            &err,
            RuntimeError::Exec(ExecError::Storage(StorageError::CorruptPage { device, .. }))
                if device == "HDD2"
        ),
        "expected CorruptPage, got: {err}"
    );
    let rec = fb.recovery_counters().expect("counters with injector");
    assert_eq!(rec.torn_write_backs, 1);
    assert_eq!(rec.corrupt_pages_detected, 1);
    // Both relations were partitioned in full before any bucket was read.
    let spilled = fb.device_stats("HDD2").unwrap().bytes_written;
    assert_eq!(spilled, lbytes + rbytes);
    assert_eq!(fb.watermark("HDD2").unwrap(), mark, "leaked spill extents");
}

/// The generic branch of `Runtime::execute` under a write fault that
/// exhausts the retry budget in the middle of a device-bound output — a
/// sorted union, and a block-nested-loops join with write-out: a typed
/// `StorageError`, and on the backend that outlives the run the output
/// device is back at its entry watermark.
#[test]
fn failed_generic_run_leaves_its_output_device_at_the_entry_watermark() {
    let h = presets::two_hdd_ram(1 << 22);
    let out = Output::ToDevice {
        device: "HDD2".into(),
        buffer_bytes: 1 << 10,
    };
    let union = Plan::MergePass {
        left: 0,
        right: 1,
        kind: MergeKind::MultisetUnionSorted,
        b_in: 64,
        output: out.clone(),
    };
    let join = Plan::BnlJoin {
        outer: 0,
        inner: 1,
        k1: 256,
        k2: 16,
        tiling: None,
        pred: JoinPred::KeyEq,
        order_inputs: false,
        output: out,
    };
    for plan in [union, join] {
        // Output-device writes fail for good from the third flush on (HDD2
        // sees nothing else: request 0 allocates the sink's extent).
        let mut faults = FaultPlan::new();
        for at in 3..259 {
            faults = faults.with("HDD2", FaultOp::Write, at, FaultKind::Transient);
        }
        let mut fb = faulted(backend(&h), faults);
        let specs = [
            RelSpec::ints("A", "HDD", 1_500)
                .sorted()
                .with_key_range(400),
            RelSpec::ints("B", "HDD", 1_200)
                .sorted()
                .with_key_range(400),
        ];
        let rels: Vec<Relation> = (specs.iter().zip(5..))
            .map(|(spec, seed)| Relation::create(&mut fb, spec, true, seed).unwrap())
            .collect();
        let marks = [fb.watermark("HDD").unwrap(), fb.watermark("HDD2").unwrap()];

        let (fb, run) = Runtime::execute(fb, &rels, &plan);
        let err = run.expect_err("persistent output faults must fail the run");
        assert!(
            matches!(
                &err,
                RuntimeError::Exec(ExecError::Storage(StorageError::Transient { device, .. }))
                    if device == "HDD2"
            ),
            "{}: expected a typed transient error, got: {err}",
            plan.name()
        );
        let written = fb.device_stats("HDD2").unwrap().bytes_written;
        assert!(written > 0, "{}: the run was under way", plan.name());
        assert_eq!(fb.watermark("HDD").unwrap(), marks[0], "{}", plan.name());
        assert_eq!(
            fb.watermark("HDD2").unwrap(),
            marks[1],
            "{}: leaked output",
            plan.name()
        );
        assert!(fb.recovery_counters().expect("injector").gave_up >= 1);
    }
}

/// A torn write-back of a page of an *input* relation is silent until a
/// block cursor's refill reaches the page, and is `CorruptPage` there — not
/// before, and not a wrong answer.
#[test]
fn torn_input_page_surfaces_on_the_refill_that_reaches_it() {
    const PAGE: u64 = 4096;
    let h = presets::hdd_ram(1 << 22);
    let cfg = PoolConfig {
        page_bytes: PAGE as usize,
        frames: 4,
        ..PoolConfig::default()
    };
    // The run's first request schedules the tear for the next write-back:
    // the relation's last pages are still dirty in the four-frame pool, and
    // reading its first pages evicts them — the first one torn.
    let faults = FaultPlan::new().with("HDD", FaultOp::Read, 1, FaultKind::TornWriteBack);
    let mut fb = faulted(FileBackend::from_hierarchy(&h, cfg).unwrap(), faults);
    let pages = 16;
    let spec = RelSpec::ints("L", "HDD", pages * PAGE / 8)
        .sorted()
        .with_key_range(3_000);
    let rel = Relation::create(&mut fb, &spec, true, 9).unwrap();
    let plan = Plan::DedupSorted {
        input: 0,
        // A page a request.
        b_in: PAGE / 8,
        output: Output::Discard,
    };
    let (fb, run) = Runtime::execute(fb, &[rel], &plan);
    let err = run.expect_err("the torn page must not be read as data");
    let RuntimeError::Exec(ExecError::Storage(StorageError::CorruptPage { device, page })) = &err
    else {
        panic!("expected CorruptPage, got: {err}");
    };
    assert_eq!(device, "HDD");
    // One of the four pages that were still dirty, and every refill before
    // it succeeded: exactly `page` blocks were read in full.
    assert!((pages - 4..pages).contains(page), "page {page}");
    assert_eq!(fb.device_stats("HDD").unwrap().bytes_read, page * PAGE);
    let rec = fb.recovery_counters().expect("injector");
    assert_eq!((rec.torn_write_backs, rec.corrupt_pages_detected), (1, 1));
}

/// A parameter no execution can honour — a GRACE join over zero
/// partitions, a sort with a fan-in of one or a zero buffer — is one typed
/// error on every route, raised before the first request:
/// `Runtime::execute`, `Runtime::run_plan` (which used to run the whole real
/// join with one partition and fail only on its simulator twin) and the
/// generic executor on the simulator. No device is read, written or
/// allocated on.
#[test]
fn a_parameter_no_run_can_honour_is_one_error_on_every_route_before_any_request() {
    let h = presets::two_hdd_ram(1 << 22);
    let specs = [
        RelSpec::ints("L", "HDD", 2_000).with_key_range(50),
        RelSpec::ints("R", "HDD", 600).with_key_range(50),
    ];
    let output = Output::ToDevice {
        device: "HDD2".into(),
        buffer_bytes: 1 << 10,
    };
    let sort = |fan_in, b_in, b_out| Plan::ExternalSort {
        input: 0,
        fan_in,
        b_in,
        b_out,
        scratch: "HDD2".into(),
        output: output.clone(),
    };
    let join = |partitions| Plan::GraceJoin {
        left: 0,
        right: 1,
        partitions,
        buffer_bytes: 512,
        spill: "HDD2".into(),
        pred: JoinPred::KeyEq,
        output: output.clone(),
    };
    let cases = [
        (join(0), &specs, "zero partitions"),
        (sort(1, 64, 128), &specs, "fan-in must be >= 2"),
        (sort(4, 0, 128), &specs, "zero sort buffer"),
        (sort(4, 64, 0), &specs, "zero sort buffer"),
    ];
    let untouched = |stats: &[Option<ocas_storage::DeviceStats>]| {
        stats.iter().all(|s| *s == Some(Default::default()))
    };
    for (plan, specs, what) in cases {
        let rejected = |e: &ExecError| matches!(e, ExecError::BadParameter(w) if *w == what);

        let mut fb = backend(&h);
        let rels: Vec<Relation> = (specs.iter().zip(1..))
            .map(|(spec, seed)| Relation::create(&mut fb, spec, true, seed).unwrap())
            .collect();
        let marks = [fb.watermark("HDD"), fb.watermark("HDD2")];
        let (fb, run) = Runtime::execute(fb, &rels, &plan);
        let err = run.expect_err(what);
        assert!(
            matches!(&err, RuntimeError::Exec(e) if rejected(e)),
            "{what}: {err}"
        );
        assert!(untouched(&[
            fb.device_stats("HDD"),
            fb.device_stats("HDD2")
        ]));
        assert_eq!([fb.watermark("HDD"), fb.watermark("HDD2")], marks, "{what}");

        let err = Runtime::new(h.clone()).run_plan(&plan, specs, 1);
        let err = err.expect_err(what);
        assert!(
            matches!(&err, RuntimeError::Exec(e) if rejected(e)),
            "{what}: {err}"
        );

        let sim = StorageSim::from_hierarchy(&h);
        let mut ex = Executor::new(sim, Mode::Faithful, CpuModel::disabled());
        for (spec, seed) in specs.iter().zip(1..) {
            let rel = Relation::create(&mut ex.sm, spec, true, seed).unwrap();
            ex.add_relation(rel);
        }
        let marks = [ex.sm.watermark("HDD"), ex.sm.watermark("HDD2")];
        let err = ex.run(&plan).expect_err(what);
        assert!(rejected(&err), "{what}: {err}");
        assert!(untouched(&[
            ex.sm.device_stats("HDD"),
            ex.sm.device_stats("HDD2")
        ]));
        assert_eq!([ex.sm.watermark("HDD"), ex.sm.watermark("HDD2")], marks);
    }
}

/// A tuple layout no relation can have — no columns, a column of no bytes,
/// a column wider than a machine integer — is one typed error from
/// `Relation::create`, raised before anything is allocated, on the simulator
/// and on real files, faithful or not. Accepted, a 16-byte column gets a
/// file written at the wrong stride, whose blocks the reads then take from
/// the generator instead.
#[test]
fn a_tuple_layout_no_relation_can_have_is_refused_before_any_allocation() {
    fn refuses<B: StorageBackend>(sm: &mut B) {
        for (width, col_bytes) in [(0, 8), (1, 0), (0, 0), (2, 16), (1, 9)] {
            let mut spec = RelSpec::ints("L", "HDD", 1_000);
            (spec.width, spec.col_bytes) = (width, col_bytes);
            let mark = sm.watermark("HDD");
            for faithful in [true, false] {
                let err = Relation::create(sm, &spec, faithful, 3).unwrap_err();
                assert_eq!(err, StorageError::BadLayout { width, col_bytes });
            }
            assert_eq!(sm.watermark("HDD"), mark, "{width} x {col_bytes} B");
        }
        let mark = sm.watermark("HDD");
        Relation::create(sm, &RelSpec::ints("L", "HDD", 1_000), true, 3).unwrap();
        assert_ne!(sm.watermark("HDD"), mark, "a good layout allocates");
    }
    let h = tiny_scratch_hierarchy(4096);
    refuses(&mut StorageSim::from_hierarchy(&h));
    refuses(&mut backend(&h));
}
