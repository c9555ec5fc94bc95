//! Error-classification parity: the same fault plan, applied to the same
//! request stream, must produce the same outcome sequence — success or
//! identically-typed error at every step — whether [`Faulted`], the one
//! fault injector, wraps the device simulator or the real file backend,
//! and both sides must report identical recovery counters. The injector is
//! shared; what these tests hold to it is that the two backends issue,
//! fail and recover the same requests.
//!
//! A run request (`read_run`, or the `write_run` an output sink flushes its
//! whole buffers with) is its requests, one by one, on both: a spec at an
//! index inside a run fires there, not at the run's first request and not
//! never.
//!
//! The same holds for the one-tuple data reads of the faithful operators,
//! which the file backend serves from a read-ahead window: a request the
//! window answers still consumes its index, so a spec planted in the middle
//! of a window fires there. What the window must not do is read a fault
//! into a request that does not cover it, or hide one from a request that
//! does — the torn-page test at the end.
//!
//! `TornWriteBack` is excluded: the simulator holds no page data to tear,
//! so it is the one kind whose *consequences* (not classification) are
//! backend-specific.

use ocas_engine::{CpuModel, Executor, JoinPred, MergeKind, Mode, Output, Plan, RelSpec, Relation};
use ocas_hierarchy::{presets, Hierarchy};
use ocas_runtime::{FileBackend, PoolConfig};
use ocas_storage::{
    DeviceStats, FaultKind, FaultOp, FaultPlan, Faulted, FileId, RecoveryCounters, RetryPolicy,
    StorageBackend, StorageError, StorageSim,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scripted request. File slots index the list of files allocated so
/// far (resolved modulo its length at run time, so both backends resolve
/// identically as long as their outcome histories agree).
#[derive(Debug, Clone, Copy)]
enum Op {
    Alloc(u64),
    Write(usize, u64),
    Read(usize, u64),
}

/// Longest request of a [`script`]: past the file backend's 1 MiB chunk,
/// so one request moves several chunks.
const BIG: u64 = 3 << 20;

/// Deterministic request script: starts with an allocation of [`BIG`]
/// bytes, written and read whole, and one of a page; then mixes small
/// allocs, reads and writes.
fn script(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5c21);
    let mut big = || rng.gen_range(1u64 << 20..BIG + 1);
    let mut ops = vec![Op::Alloc(BIG), Op::Write(0, big()), Op::Read(0, big())];
    ops.push(Op::Alloc(4096));
    for _ in ops.len()..n {
        ops.push(match rng.gen_range(0u32..4) {
            0 => Op::Alloc(rng.gen_range(64u64..4096)),
            1 => Op::Write(rng.gen_range(0usize..64), rng.gen_range(2u64..64) * 8),
            _ => Op::Read(rng.gen_range(0usize..64), rng.gen_range(2u64..64) * 8),
        });
    }
    ops
}

/// Runs the script, recording each step's outcome as a display string
/// (`"ok"` or the typed error, which includes device/op/request context).
fn drive<B: StorageBackend>(b: &mut B, ops: &[Op]) -> Vec<String> {
    let mut files: Vec<(ocas_storage::FileId, u64)> = Vec::new();
    let mut outcomes = Vec::new();
    for op in ops {
        let r = match *op {
            Op::Alloc(len) => match b.alloc("HDD", len) {
                Ok(f) => {
                    files.push((f, len));
                    Ok(())
                }
                Err(e) => Err(e),
            },
            Op::Write(slot, len) => match files.is_empty() {
                true => {
                    outcomes.push("skip".to_string());
                    continue;
                }
                false => {
                    let (f, cap) = files[slot % files.len()];
                    b.write(f, 0, len.min(cap))
                }
            },
            Op::Read(slot, len) => match files.is_empty() {
                true => {
                    outcomes.push("skip".to_string());
                    continue;
                }
                false => {
                    let (f, cap) = files[slot % files.len()];
                    b.read(f, 0, len.min(cap))
                }
            },
        };
        outcomes.push(match r {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("err: {e}"),
        });
    }
    outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The script's first requests move 1-3 MiB each, and an ENOSPC is
    /// planted on the allocation after them: one index per request, however
    /// many chunks the file backend moves it in.
    #[test]
    fn sim_and_file_backend_classify_fault_plans_identically(
        seed in 0u64..50_000,
        faults in 0usize..8,
    ) {
        let mut plan = FaultPlan::randomized(seed, &["HDD"], faults, 48)
            .with("HDD", FaultOp::Alloc, 3, FaultKind::NoSpace);
        plan.specs.retain(|s| s.kind != FaultKind::TornWriteBack);
        let policy = RetryPolicy::default();
        let ops = script(seed, 40);
        let h = presets::hdd_ram(1 << 22);

        let mut sim = Faulted::new(StorageSim::from_hierarchy(&h), plan.clone(), policy);
        let sim_outcomes = drive(&mut sim, &ops);
        let mut fb = faulted_files(&h, PoolConfig::default(), plan, policy);
        let fb_outcomes = drive(&mut fb, &ops);

        prop_assert_eq!(&sim_outcomes, &fb_outcomes,
            "outcome sequences diverged (seed {}, {} faults)", seed, faults);
        prop_assert_eq!(sim.counters(), fb.counters(), "recovery counters diverged (seed {})", seed);
    }

    /// With no faults scheduled, the wrapper is a strict no-op on both
    /// backends: everything succeeds.
    #[test]
    fn empty_plans_are_passthrough_on_both_backends(seed in 0u64..10_000) {
        let ops = script(seed, 24);
        let h = presets::hdd_ram(1 << 22);
        let mut sim = Faulted::new(
            StorageSim::from_hierarchy(&h),
            FaultPlan::new(),
            RetryPolicy::default(),
        );
        let mut fb = faulted_files(&h, PoolConfig::default(), FaultPlan::new(), RetryPolicy::default());
        for out in drive(&mut sim, &ops).iter().chain(drive(&mut fb, &ops).iter()) {
            prop_assert!(out == "ok" || out == "skip", "clean run failed: {}", out);
        }
    }

    /// A plan with a guaranteed early transient burst: both backends give
    /// up after the same number of attempts with the same typed error, and
    /// every per-kind counter matches. (The randomized plans above may
    /// place faults past the script's horizon; this one always fires.)
    #[test]
    fn persistent_faults_exhaust_retries_identically(
        at in 0u64..6,
        seed in 0u64..10_000,
    ) {
        let mut plan = FaultPlan::new();
        for i in at..at + 8 {
            plan = plan.with("HDD", FaultOp::Any, i, FaultKind::Transient);
        }
        let policy = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        let ops = script(seed, 12);
        let h = presets::hdd_ram(1 << 22);

        let mut sim = Faulted::new(StorageSim::from_hierarchy(&h), plan.clone(), policy);
        let sim_outcomes = drive(&mut sim, &ops);
        let mut fb = faulted_files(&h, PoolConfig::default(), plan, policy);
        let fb_outcomes = drive(&mut fb, &ops);

        prop_assert!(sim_outcomes.iter().any(|o| o.starts_with("err")), "burst must surface");
        prop_assert_eq!(&sim_outcomes, &fb_outcomes);
        let (sc, fc) = (sim.counters(), fb.counters());
        prop_assert_eq!(sc, fc);
        prop_assert!(sc.gave_up >= 1);
    }

    /// A fault scheduled *inside* a run request fires at that request on
    /// both backends, with the same outcome and counters: neither
    /// overrides `read_run`, so each issues the run as single reads, every
    /// one of which consumes a per-device index. (`Faulted` handing the
    /// run to the simulator's fast path would skip the index entirely —
    /// most requests of this run are read-ahead hits the HDD model never
    /// visits.)
    #[test]
    fn a_fault_inside_a_run_fires_at_its_request_on_both_backends(
        k in 1u64..RUN_REQUESTS + 1,
        kind in 0u32..3,
        retry in 0u32..2,
    ) {
        let kind = match kind {
            0 => FaultKind::Transient,
            1 => FaultKind::ShortRead,
            _ => FaultKind::Latency(0.002),
        };
        let policy = if retry == 0 { RetryPolicy::none() } else { RetryPolicy::default() };
        // Per-device indices: 0 is the alloc, 1..=RUN_REQUESTS the run.
        let plan = FaultPlan::new().with("HDD", FaultOp::Read, k, kind);
        let h = presets::hdd_ram(1 << 22);
        let mut sim = Faulted::new(StorageSim::from_hierarchy(&h), plan.clone(), policy);
        let mut fb = faulted_files(&h, PoolConfig::default(), plan, policy);

        let sim_out = drive_run(&mut sim);
        let fb_out = drive_run(&mut fb);
        prop_assert_eq!(&sim_out, &fb_out);
        let (outcome, counters) = sim_out;
        prop_assert_eq!(counters.faults_injected, 1, "the spec at request {} never fired", k);
        match (kind, retry) {
            (FaultKind::Latency(_), _) | (_, 1) => prop_assert_eq!(outcome, "ok"),
            _ => prop_assert!(
                outcome.contains(&format!("read request {k} on `HDD`")),
                "fired elsewhere: {}", outcome
            ),
        }
    }

    /// The faithful aggregate at `b_in = 1` and the BNL join at `k2 = 1`:
    /// a thousand one-tuple data reads, 32 to the page and 256 to the file
    /// backend's window. A spec at any of them fires at that request on
    /// both backends, recovers or gives up the same way, and leaves the same
    /// answer.
    #[test]
    fn a_fault_inside_a_window_fires_at_its_request_on_both_backends(
        (join, k) in (0u32..2, 0u64..TUPLE_REQUESTS),
        kind in 0u32..3,
        retry in 0u32..2,
    ) {
        let kind = match kind {
            0 => FaultKind::Transient,
            1 => FaultKind::ShortRead,
            _ => FaultKind::Latency(0.002),
        };
        let policy = if retry == 0 { RetryPolicy::none() } else { RetryPolicy::default() };
        // Per-device indices: one alloc per relation, the join's outer
        // block, then the one-tuple stream.
        let (plan, specs, first) = if join == 1 {
            let plan = Plan::BnlJoin {
                outer: 0,
                inner: 1,
                k1: 37,
                k2: 1,
                tiling: None,
                pred: JoinPred::KeyEq,
                order_inputs: false,
                output: Output::Discard,
            };
            let specs = vec![
                RelSpec::pairs("R", "HDD", 30).with_key_range(40),
                RelSpec::pairs("S", "HDD", TUPLE_REQUESTS).with_key_range(40),
            ];
            (plan, specs, 3)
        } else {
            let plan = Plan::Aggregate { input: 0, b_in: 1 };
            (plan, vec![RelSpec::ints("L", "HDD", TUPLE_REQUESTS)], 1)
        };
        let at = first + k;
        let faults = FaultPlan::new().with("HDD", FaultOp::Read, at, kind);
        let h = presets::hdd_ram(1 << 22);
        let pool = PoolConfig { page_bytes: 256, ..PoolConfig::default() };
        let sim = Faulted::new(StorageSim::from_hierarchy(&h), faults.clone(), policy);
        let fb = faulted_files(&h, pool, faults, policy);

        let sim_out = run_plan(Mode::Faithful, sim, &plan, &specs);
        let fb_out = run_plan(Mode::Faithful, fb, &plan, &specs);
        prop_assert_eq!(&sim_out, &fb_out);
        let (outcome, counters) = sim_out;
        prop_assert_eq!(counters.faults_injected, 1, "the spec at request {} never fired", at);
        match (kind, retry) {
            (FaultKind::Latency(_), _) | (_, 1) => prop_assert!(outcome.starts_with("ok"), "{}", outcome),
            _ => prop_assert!(
                outcome.contains(&format!("read request {at} on `HDD`")),
                "fired elsewhere: {}", outcome
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The streaming templates run one implementation on both backends, so
    /// this holds by construction — pinned so that it stays true: a sorted
    /// union and a duplicate removal under a fault at any request of their
    /// streams, reads and output writes alike, fail at that request or
    /// recover on both backends, with identical counters and the same rows.
    #[test]
    fn a_fault_in_a_cursor_stream_is_the_same_fault_on_both_backends(
        (dedup, k) in (0u32..2, 0u64..40),
        kind in 0u32..4,
        retry in 0u32..2,
    ) {
        let kind = match kind {
            0 => FaultKind::Transient,
            1 => FaultKind::ShortRead,
            2 => FaultKind::ShortWrite,
            _ => FaultKind::Latency(0.002),
        };
        let policy = if retry == 0 { RetryPolicy::none() } else { RetryPolicy::default() };
        let output = Output::ToDevice { device: "HDD".into(), buffer_bytes: 256 };
        let sorted = |name: &str, card| RelSpec::ints(name, "HDD", card).sorted().with_key_range(300);
        let (plan, specs) = if dedup == 1 {
            (Plan::DedupSorted { input: 0, b_in: 24, output }, vec![sorted("L", 900)])
        } else {
            let kind = MergeKind::MultisetUnionSorted;
            let plan = Plan::MergePass { left: 0, right: 1, kind, b_in: 24, output };
            (plan, vec![sorted("A", 500), sorted("B", 400)])
        };
        // Past the allocations: somewhere in the first 40 requests of the
        // interleaved reads and flushes.
        let at = specs.len() as u64 + k;
        let faults = FaultPlan::new().with("HDD", FaultOp::Any, at, kind);
        let h = presets::hdd_ram(1 << 22);
        let pool = PoolConfig { page_bytes: 256, ..PoolConfig::default() };
        let sim = Faulted::new(StorageSim::from_hierarchy(&h), faults.clone(), policy);
        let fb = faulted_files(&h, pool, faults, policy);

        let sim_out = run_plan(Mode::Faithful, sim, &plan, &specs);
        let fb_out = run_plan(Mode::Faithful, fb, &plan, &specs);
        prop_assert_eq!(&sim_out, &fb_out);
        let (outcome, counters) = sim_out;
        prop_assert_eq!(counters.faults_injected, 1, "the spec at request {} never fired", at);
        if matches!(kind, FaultKind::Latency(_)) || retry == 1 {
            prop_assert!(outcome.starts_with("ok"), "{}", outcome);
        }
    }
}

/// Blocks of the simulated duplicate removal in
/// `a_write_fault_inside_a_sink_run_fires_at_its_request_on_both_backends`,
/// and the whole output buffers each block fills: 64 ints a block, half of
/// them emitted, 16 bytes a buffer.
const SINK_BLOCKS: u64 = 4;
const RUN_WRITES: u64 = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A simulated duplicate removal fills [`RUN_WRITES`] output buffers
    /// with each block it reads, and its sink issues them as one
    /// `write_run`. A write fault planted at any request of such a run
    /// fires at that request on both backends, with the same outcome and
    /// counters: `Faulted` keeps the run's loop of writes, each of which
    /// consumes a per-device index. (`Faulted` handing the run to its inner
    /// backend would let all sixteen writes past injection and shift every
    /// later index.)
    #[test]
    fn a_write_fault_inside_a_sink_run_fires_at_its_request_on_both_backends(
        (block, w) in (0u64..SINK_BLOCKS, 0u64..RUN_WRITES),
        kind in 0u32..3,
        retry in 0u32..2,
    ) {
        let kind = match kind {
            0 => FaultKind::Transient,
            1 => FaultKind::ShortWrite,
            _ => FaultKind::Latency(0.002),
        };
        let policy = if retry == 0 { RetryPolicy::none() } else { RetryPolicy::default() };
        let b_in = 64;
        let plan = Plan::DedupSorted {
            input: 0,
            b_in,
            output: Output::ToDevice { device: "HDD".into(), buffer_bytes: 16 },
        };
        let specs = vec![RelSpec::ints("L", "HDD", SINK_BLOCKS * b_in).sorted()];
        // Per-device indices: 0 allocates the input; each block is two
        // reads (the staggered formulation reads the list twice), then its
        // run; the first run follows the sink extent's allocation (3).
        let at = 4 + block * (2 + RUN_WRITES) + w;
        let faults = FaultPlan::new().with("HDD", FaultOp::Write, at, kind);
        let h = presets::hdd_ram(1 << 22);
        let sim = Faulted::new(StorageSim::from_hierarchy(&h), faults.clone(), policy);
        let fb = faulted_files(&h, PoolConfig::default(), faults, policy);

        let sim_out = run_plan(Mode::Simulated, sim, &plan, &specs);
        let fb_out = run_plan(Mode::Simulated, fb, &plan, &specs);
        prop_assert_eq!(&sim_out, &fb_out);
        let (outcome, counters) = sim_out;
        prop_assert_eq!(counters.faults_injected, 1, "the spec at request {} never fired", at);
        match (kind, retry) {
            (FaultKind::Latency(_), _) | (_, 1) => {
                prop_assert_eq!(outcome, format!("ok: {} rows", SINK_BLOCKS * b_in / 2))
            }
            _ => prop_assert!(
                outcome.contains(&format!("write request {at} on `HDD`")),
                "fired elsewhere: {}", outcome
            ),
        }
    }
}

/// Real files under `faults`, through the one injector.
fn faulted_files(
    h: &Hierarchy,
    pool: PoolConfig,
    faults: FaultPlan,
    policy: RetryPolicy,
) -> Faulted<FileBackend> {
    let fb = FileBackend::from_hierarchy(h, pool).unwrap();
    Faulted::new(fb, faults, policy)
}

/// One-tuple requests in the stream of
/// `a_fault_inside_a_window_fires_at_its_request_on_both_backends`.
const TUPLE_REQUESTS: u64 = 1000;

/// Creates `specs` on `backend` (materialized for a faithful run) and runs
/// `plan` in `mode`; returns the outcome (the output rows — their count in
/// simulated mode — or the typed error) and the recovery counters.
fn run_plan<B: StorageBackend>(
    mode: Mode,
    backend: B,
    plan: &Plan,
    specs: &[RelSpec],
) -> (String, RecoveryCounters) {
    let mut ex = Executor::new(backend, mode, CpuModel::disabled());
    let faithful = mode == Mode::Faithful;
    for (i, spec) in specs.iter().enumerate() {
        let rel = Relation::create(&mut ex.sm, spec, faithful, 9 + i as u64).expect("setup");
        ex.add_relation(rel);
    }
    let outcome = match ex.run(plan) {
        Ok(stats) if faithful => format!("ok: {:?}", stats.output.expect("collected").as_slice()),
        Ok(stats) => format!("ok: {} rows", stats.output_rows),
        Err(e) => format!("err: {e}"),
    };
    (
        outcome,
        ex.sm.recovery_counters().expect("injector present"),
    )
}

/// The one kind the parity tests leave out, on the file backend alone: a
/// torn write-back under a one-tuple stream. The window had read the page
/// ahead *before* it was rewritten, and reads it ahead again afterwards,
/// when it is torn on the file: the requests in front of the page are
/// served (a fault on a page a request does not cover is not that request's
/// fault), and the first request on the page is `CorruptPage` — not the
/// bytes the window once held, and not the half-written ones.
#[test]
fn a_torn_page_fails_the_first_tuple_on_it_and_none_before() {
    const PAGE: u64 = 256;
    let h = presets::hdd_ram(1 << 22);
    let pool = PoolConfig {
        page_bytes: PAGE as usize,
        frames: 2,
        ..PoolConfig::default()
    };
    // HDD requests: 0 the alloc, 1-2 two tuples, 3 the rewrite of page 3.
    let plan = FaultPlan::new().with("HDD", FaultOp::Write, 3, FaultKind::TornWriteBack);
    let mut fb = faulted_files(&h, pool, plan, RetryPolicy::default());
    let f = fb.alloc("HDD", 8 * PAGE).unwrap();
    let old: Vec<u8> = (0..8 * PAGE).map(|i| (i * 3 + 1) as u8).collect();
    fb.materialize(f, 0, &old).unwrap();
    fb.inner_mut().flush().unwrap();

    let mut tuple = [0u8; 8];
    for at in [0, 8] {
        assert!(fb.read_data(f, at, &mut tuple).unwrap());
        assert_eq!(tuple, old[at as usize..at as usize + 8]);
    }
    // Page 3 is rewritten, and torn on its way out of the two-frame pool.
    fb.write_bytes(f, 3 * PAGE, &vec![0xAB; PAGE as usize])
        .unwrap();
    for page in [5, 6] {
        fb.write_bytes(f, page * PAGE, &vec![0xCD; PAGE as usize])
            .unwrap();
    }
    assert_eq!(fb.recovery_counters().unwrap().torn_write_backs, 1);

    let mut at = 16;
    let err = loop {
        match fb.read_data(f, at, &mut tuple) {
            Ok(_) => assert_eq!(tuple, old[at as usize..at as usize + 8], "tuple at {at}"),
            Err(e) => break e,
        }
        at += 8;
    };
    assert_eq!(at, 3 * PAGE, "{err}");
    assert!(
        matches!(err, StorageError::CorruptPage { ref device, page: 3 } if device == "HDD"),
        "{err:?}"
    );
    // Still corrupt, still typed, on the next attempt.
    assert!(matches!(
        fb.read_data(f, at, &mut tuple),
        Err(StorageError::CorruptPage { page: 3, .. })
    ));
}

/// Requests in the run of [`drive_run`]: 64 to a page, so all but one in
/// 64 are read-ahead hits on the simulated HDD.
const RUN_REQUESTS: u64 = 512;

/// Allocates a file and reads it as one run; returns the outcome and the
/// recovery counters.
fn drive_run<B: StorageBackend>(b: &mut B) -> (String, ocas_storage::RecoveryCounters) {
    let unit = 64;
    let f = b
        .alloc("HDD", unit * RUN_REQUESTS)
        .expect("alloc is not faulted");
    let outcome = match b.read_run(f, 0, unit, RUN_REQUESTS) {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("err: {e}"),
    };
    (outcome, b.recovery_counters().expect("injector present"))
}

/// A request whose `offset + len` overflows `u64` is `OutOfBounds` on both
/// backends, read or write, injected or not — identically reported, never a
/// panic (debug) and never a wrapped sum slipping past the bounds check
/// (release).
#[test]
fn an_overflowing_request_end_is_out_of_bounds_on_both_backends() {
    fn probe<B: StorageBackend>(b: &mut B) -> Vec<String> {
        let f = b.alloc("HDD", 4096).expect("fits");
        let (offset, len) = (u64::MAX - 1, 8);
        let mut outcomes = vec![
            b.read(f, offset, len),
            b.write(f, offset, len),
            b.write_bytes(f, offset, &[0u8; 8]),
        ];
        // The ordinary case on the same file, for contrast: one byte past.
        outcomes.push(b.read(f, 4090, 7));
        outcomes
            .into_iter()
            .map(|r| match r {
                Err(e @ ocas_storage::StorageError::OutOfBounds { .. }) => e.to_string(),
                other => panic!("expected OutOfBounds, got {other:?}"),
            })
            .collect()
    }
    let h = presets::hdd_ram(1 << 22);
    let sim = probe(&mut StorageSim::from_hierarchy(&h));
    let plain = probe(&mut FileBackend::from_hierarchy(&h, PoolConfig::default()).unwrap());
    let injected = probe(&mut faulted_files(
        &h,
        PoolConfig::default(),
        FaultPlan::new(),
        RetryPolicy::default(),
    ));
    assert_eq!(sim, plain);
    assert_eq!(sim, injected);
}

/// The simulator with a spill fallback device, as `FileBackend` has with
/// `FileBackend::with_spill_fallback`: everything else forwarded.
struct WithFallback(StorageSim, &'static str);

impl StorageBackend for WithFallback {
    fn alloc(&mut self, device: &str, len: u64) -> Result<FileId, StorageError> {
        self.0.alloc(device, len)
    }
    fn read(&mut self, file: FileId, offset: u64, len: u64) -> Result<(), StorageError> {
        StorageBackend::read(&mut self.0, file, offset, len)
    }
    fn read_data(
        &mut self,
        file: FileId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<bool, StorageError> {
        self.0.read_data(file, offset, buf)
    }
    fn write(&mut self, file: FileId, offset: u64, len: u64) -> Result<(), StorageError> {
        StorageBackend::write(&mut self.0, file, offset, len)
    }
    fn write_bytes(&mut self, file: FileId, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        self.0.write_bytes(file, offset, data)
    }
    fn materialize(&mut self, file: FileId, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        self.0.materialize(file, offset, data)
    }
    fn charge_cpu(&mut self, seconds: f64) {
        StorageBackend::charge_cpu(&mut self.0, seconds)
    }
    fn clock(&self) -> f64 {
        StorageBackend::clock(&self.0)
    }
    fn len(&self, file: FileId) -> u64 {
        StorageBackend::len(&self.0, file)
    }
    fn device_of(&self, file: FileId) -> &str {
        StorageBackend::device_of(&self.0, file)
    }
    fn device_stats(&self, device: &str) -> Option<DeviceStats> {
        StorageBackend::device_stats(&self.0, device)
    }
    fn truncate_device(&mut self, device: &str, mark: u64) -> Result<(), StorageError> {
        StorageBackend::truncate_device(&mut self.0, device, mark)
    }
    fn watermark(&self, device: &str) -> Option<u64> {
        StorageBackend::watermark(&self.0, device)
    }
    fn page_bytes(&self, device: &str) -> Result<u64, StorageError> {
        StorageBackend::page_bytes(&self.0, device)
    }
    fn spill_fallback(&self) -> Option<&str> {
        Some(self.1)
    }
}

/// The sort of the tests below: 40 ints in ten runs of 2 x 1 + 2 tuples,
/// merged two at a time over three levels and an output pass onto the same
/// device. One-tuple cursors make the request stream independent of the
/// data: on `HDD`, request 0 allocates the relation, run formation is
/// (read, alloc, write) per run — requests 1 to 30 — and the first merge
/// allocates its run (31), fills both cursors (32, 33) and, its first row
/// out and its batch of two not full, refills that row's cursor (34).
fn sort_plan() -> (Plan, Vec<RelSpec>) {
    let plan = Plan::ExternalSort {
        input: 0,
        fan_in: 2,
        b_in: 1,
        b_out: 2,
        scratch: "HDD".into(),
        output: Output::ToDevice {
            device: "HDD".into(),
            buffer_bytes: 256,
        },
    };
    (plan, vec![RelSpec::ints("L", "HDD", 40).with_key_range(30)])
}

/// The GRACE join of the tests below: 60 and 40 pairs on `HDD2`, in three
/// buckets spilled to `HDD`, which sees nothing but the spill. Its request
/// 0 is the first bucket's reservation (no pad: the device is empty); the
/// partition pass — six reservations, one a bucket and a side, and 20
/// flushes — is requests 0 to 25, and the join pass reads the six extents
/// back, a bucket's build extent and then its probe extent, from request 26
/// on.
fn grace_plan() -> (Plan, Vec<RelSpec>) {
    let plan = Plan::GraceJoin {
        left: 0,
        right: 1,
        partitions: 3,
        buffer_bytes: 256,
        spill: "HDD".into(),
        pred: JoinPred::KeyEq,
        output: Output::Discard,
    };
    let pairs = |name, card| RelSpec::pairs(name, "HDD2", card).with_key_range(30);
    (plan, vec![pairs("L", 60), pairs("R", 40)])
}

/// Runs `plan` over `specs` under `faults` on the faulted simulator and on
/// faulted files, both with `HDD2` as the spill fallback; returns both
/// outcomes.
fn on_both(
    (plan, specs): &(Plan, Vec<RelSpec>),
    faults: FaultPlan,
    policy: RetryPolicy,
) -> [(String, RecoveryCounters); 2] {
    let h = presets::two_hdd_ram(1 << 22);
    let sim = WithFallback(StorageSim::from_hierarchy(&h), "HDD2");
    let sim = Faulted::new(sim, faults.clone(), policy);
    let fb = FileBackend::from_hierarchy(&h, PoolConfig::default())
        .unwrap()
        .with_spill_fallback("HDD2");
    let fb = Faulted::new(fb, faults, policy);
    [
        run_plan(Mode::Faithful, sim, plan, specs),
        run_plan(Mode::Faithful, fb, plan, specs),
    ]
}

/// The external sort is one implementation on both backends, so its
/// degradations are one too: an ENOSPC on the allocation of a run extent
/// halves the extent (two sorted runs where there was one) and the sort
/// goes on; refused down to one tuple, the spill fails over to the fallback
/// device, once; and a transient on a cursor refill is retried, or is the
/// typed error at that request without retries.
#[test]
fn a_sort_degrades_and_recovers_the_same_way_on_both_backends() {
    let run_extent = |refusals: u64| {
        (2..2 + refusals).fold(FaultPlan::new(), |plan, at| {
            plan.with("HDD", FaultOp::Alloc, at, FaultKind::NoSpace)
        })
    };
    let refill = FaultPlan::new().with("HDD", FaultOp::Read, 34, FaultKind::Transient);
    degrades_alike(
        &sort_plan(),
        [
            (run_extent(1), RetryPolicy::default(), 1, 0),
            (run_extent(3), RetryPolicy::default(), 2, 1),
            (refill.clone(), RetryPolicy::default(), 0, 0),
            (refill, RetryPolicy::none(), 0, 0),
        ],
        "read request 34 on `HDD`",
    );
}

/// So are the GRACE join's: an ENOSPC on a bucket's reservation halves it —
/// sixteen pages down to the one that holds a staging buffer — and the
/// partition pass goes on; refused at one page, the spill fails over to the
/// fallback device, once, for the rest of both sides; and a transient on a
/// bucket read (the second bucket's probe extent) is retried, or is the
/// typed error at that request without retries.
#[test]
fn a_grace_join_degrades_and_recovers_the_same_way_on_both_backends() {
    let reservation = |refusals: u64| {
        (0..refusals).fold(FaultPlan::new(), |plan, at| {
            plan.with("HDD", FaultOp::Alloc, at, FaultKind::NoSpace)
        })
    };
    let bucket_read = FaultPlan::new().with("HDD", FaultOp::Read, 29, FaultKind::Transient);
    degrades_alike(
        &grace_plan(),
        [
            (reservation(2), RetryPolicy::default(), 2, 0),
            (reservation(5), RetryPolicy::default(), 4, 1),
            (bucket_read.clone(), RetryPolicy::default(), 0, 0),
            (bucket_read, RetryPolicy::none(), 0, 0),
        ],
        "read request 29 on `HDD`",
    );
}

/// Runs `workload` under each `(faults, policy, shrinks, failovers)` case
/// on the faulted simulator and on faulted files: the same outcome and the
/// same recovery counters on both, every spec fired, the shrinks and
/// failovers expected — and the clean run's rows, or, without retries, the
/// typed error at `request`.
fn degrades_alike(
    workload: &(Plan, Vec<RelSpec>),
    cases: [(FaultPlan, RetryPolicy, u64, u64); 4],
    request: &str,
) {
    let (clean, _) = on_both(workload, FaultPlan::new(), RetryPolicy::default())[0].clone();
    assert!(clean.starts_with("ok"), "{clean}");
    for (faults, policy, shrinks, failovers) in cases {
        let [sim, file] = on_both(workload, faults.clone(), policy);
        assert_eq!(sim, file, "{faults:?}");
        let (outcome, counters) = sim;
        assert_eq!(counters.faults_injected, faults.specs.len() as u64);
        assert_eq!(
            (counters.degraded_shrinks, counters.degraded_failovers),
            (shrinks, failovers),
            "{faults:?}"
        );
        if policy.max_attempts > 1 {
            assert_eq!(outcome, clean, "{faults:?}");
        } else {
            assert!(outcome.contains(request), "{outcome}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any fault kind at any of the sort's first requests — run formation,
    /// the merge levels, the output pass — is the same fault on both
    /// backends: the same rows or the same typed error, the same counters.
    #[test]
    fn a_fault_anywhere_in_a_sort_is_the_same_fault_on_both_backends(
        at in 1u64..160,
        kind in 0u32..5,
        retry in 0u32..2,
    ) {
        let kind = match kind {
            0 => FaultKind::Transient,
            1 => FaultKind::ShortRead,
            2 => FaultKind::ShortWrite,
            3 => FaultKind::NoSpace,
            _ => FaultKind::Latency(0.002),
        };
        let policy = if retry == 0 { RetryPolicy::none() } else { RetryPolicy::default() };
        let faults = FaultPlan::new().with("HDD", FaultOp::Any, at, kind);
        let [sim, file] = on_both(&sort_plan(), faults, policy);
        prop_assert_eq!(&sim, &file);
        prop_assert_eq!(sim.1.faults_injected, 1, "the spec at request {} never fired", at);
    }
}
