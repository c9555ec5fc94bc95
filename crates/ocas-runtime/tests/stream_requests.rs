//! The request stream of the streaming templates — merge pass, column zip,
//! duplicate removal — and of the external sort and the GRACE join on real
//! files, as a test instead of a claim.
//!
//! Two kinds of assertion (ROADMAP, "Reading real-backend numbers"):
//!
//! * **Counts.** `DeviceStats.{bytes_read, bytes_written, seeks}` and
//!   `PoolStats.{hits, misses}` of the plans through [`Runtime::execute`]
//!   are pinned to the numbers the hand-written `ocas_runtime::algos`
//!   functions they replaced produced for the same relations —
//!   `merge_pass`, `column_zip`, `dedup_sorted`, `external_sort` and
//!   `grace_join`. The sort's peak resident bytes are pinned too (measured on
//!   that function, derived below from the input bytes), and so are the
//!   join's. The executor over block cursors must issue what they issued.
//! * **Order.** Every request the operators issue is recorded with its
//!   offset (a forwarding [`StorageBackend`] wrapper: obs spans carry bytes
//!   but no offsets) on real files and on the simulator in faithful mode.
//!   The two sequences are identical — the property that makes the
//!   simulator twin a twin — and on directed inputs they are the literal
//!   ones: a cursor is refilled only when its block is exhausted, a
//!   difference reads nothing of its right input once the left one is dry,
//!   a duplicate removal reads each block once. The `dev:HDD` obs tracks of
//!   the runtime's run and of the simulator twin show the same requests.
//!
//! These run in debug builds too: nothing here is a timing.

use ocas_engine::{CpuModel, Executor, MergeKind, Mode, Output, Plan, RelSpec, Relation, RowBuf};
use ocas_hierarchy::presets;
use ocas_runtime::{FileBackend, PoolConfig, PoolStats, Runtime};
use ocas_storage::{DeviceStats, StorageBackend, StorageSim};
use std::collections::BTreeSet;

#[path = "../../ocas-engine/tests/recording/mod.rs"]
mod recording;
use recording::{Recording, Request};

/// What relation `i` of a case holds.
enum Input {
    /// Generated from a spec, seeded `seed + i` (as `Runtime::run_plan` does).
    Spec(RelSpec),
    /// These unary rows, written to an attached file (no generator).
    Rows(Vec<i64>),
}

fn relations<B: StorageBackend>(sm: &mut B, inputs: &[Input], seed: u64) -> Vec<Relation> {
    let create = |(i, input): (usize, &Input)| match input {
        Input::Spec(spec) => Relation::create(sm, spec, true, seed + i as u64).unwrap(),
        Input::Rows(rows) => {
            let file = sm.alloc("HDD", (rows.len() as u64 * 8).max(1)).unwrap();
            let bytes = RowBuf::from_vec(rows.clone(), 1).encode();
            sm.materialize(file, 0, &bytes).unwrap();
            Relation::attach(file, rows.len() as u64, 1, 1)
        }
    };
    inputs.iter().enumerate().map(create).collect()
}

/// `(is_write, bytes)` of every request on the `dev:HDD` obs track.
fn hdd_track(trace: &ocas_obs::Trace) -> Vec<(bool, u64)> {
    let spans = trace
        .events
        .iter()
        .filter(|e| e.kind == ocas_obs::EventKind::Span && trace.track(e) == "dev:HDD");
    spans
        .map(|e| {
            let bytes = e.args.iter().find(|(name, _)| *name == "bytes");
            (
                e.name == "write",
                bytes.expect("a request has bytes").1 as u64,
            )
        })
        .collect()
}

/// Runs `plan` faithfully on `sm` through the generic executor and returns
/// the charged requests it issued, in order, with the output's digest and
/// the run's `dev:HDD` obs track.
fn recorded<B: StorageBackend>(
    sm: B,
    inputs: &[Input],
    plan: &Plan,
) -> (Vec<Request>, u64, Vec<(bool, u64)>) {
    let mut sm = Recording::new(sm, false);
    let rels = relations(&mut sm, inputs, SEED);
    let mut ex =
        Executor::new(sm, Mode::Faithful, CpuModel::disabled()).with_output_collection(false);
    ex.rels = rels;
    ocas_obs::start();
    let stats = ex.run(plan).expect("recorded run");
    let trace = ocas_obs::finish().expect("recording");
    let digest = stats.output_digest.expect("not collected");
    (ex.sm.log, digest, hdd_track(&trace))
}

const SEED: u64 = 11;

fn file_backend() -> FileBackend {
    FileBackend::from_hierarchy(&presets::hdd_ram(1 << 20), PoolConfig::default()).unwrap()
}

/// What one plan did through the runtime: the HDD's device and pool
/// counters and the run's peak resident tuple bytes.
type Counts = (DeviceStats, PoolStats, u64);

/// Runs `plan` through the runtime's entry point on real files, tracing it,
/// and returns its counts, the harvested output and the `(is_write, bytes)`
/// of every request on the `dev:HDD` obs track.
fn through_the_runtime(inputs: &[Input], plan: &Plan) -> (Counts, RowBuf, Vec<(bool, u64)>) {
    let mut fb = file_backend();
    let rels = relations(&mut fb, inputs, SEED);
    ocas_obs::start();
    let (mut fb, run) = Runtime::execute(fb, &rels, plan);
    let trace = ocas_obs::finish().expect("recording");
    // The counters of the run alone: the harvest is pool reads too.
    let device = fb.device_stats("HDD").unwrap();
    let (_, pool) = fb
        .pool_stats()
        .into_iter()
        .find(|(d, _)| d == "HDD")
        .unwrap();
    let run = run.expect("clean run");
    let peak = run.peak_resident_bytes;
    let output = Runtime::harvest(&mut fb, run).unwrap();
    ((device, pool, peak), output, hdd_track(&trace))
}

fn to_hdd() -> Output {
    Output::ToDevice {
        device: "HDD".into(),
        buffer_bytes: 1 << 10,
    }
}

/// The counts of one plan through the runtime, the request sequence of the
/// same plan recorded on files and on the simulator (identical), and that
/// the obs tracks of the runtime's run and of the simulator twin show that
/// sequence. Returns the counts and the sequence.
fn check_case(inputs: &[Input], plan: &Plan) -> (Counts, Vec<Request>) {
    let (counts, output, spans) = through_the_runtime(inputs, plan);
    let (on_file, file_digest, _) = recorded(file_backend(), inputs, plan);
    let sim = StorageSim::from_hierarchy(&presets::hdd_ram(1 << 20));
    let attached = inputs.iter().any(|i| matches!(i, Input::Rows(_)));
    if !attached {
        // (An attached file has no rows for the simulator to compute on.)
        let (on_sim, sim_digest, sim_spans) = recorded(sim, inputs, plan);
        assert_eq!(
            on_sim,
            on_file,
            "{}: the twin issues other requests",
            plan.name()
        );
        assert_eq!(sim_spans, spans, "{}: the twin's obs track", plan.name());
        assert_eq!(sim_digest, file_digest, "{}", plan.name());
    }
    let logged: Vec<(bool, u64)> = on_file.iter().map(|r| (r.0, r.3)).collect();
    assert_eq!(spans, logged, "{}: obs track", plan.name());
    let moved = |write: bool| -> u64 { on_file.iter().filter(|r| r.0 == write).map(|r| r.3).sum() };
    let device = counts.0;
    assert_eq!(device.bytes_read, moved(false), "{}", plan.name());
    assert_eq!(device.bytes_written, moved(true), "{}", plan.name());
    let spills = matches!(plan, Plan::ExternalSort { .. } | Plan::GraceJoin { .. });
    if matches!(plan.output(), Output::ToDevice { .. }) && !spills {
        assert_eq!(device.bytes_written, output.as_slice().len() as u64 * 8);
    }
    (counts, on_file)
}

/// `(bytes_read, bytes_written, seeks, pool hits, pool misses)`.
fn counts((device, pool, _): Counts) -> [u64; 5] {
    [
        device.bytes_read,
        device.bytes_written,
        device.seeks,
        pool.hits,
        pool.misses,
    ]
}

/// The reads of `file` in `log`, as `(offset, len)` in tuples.
fn reads_of(log: &[Request], file: usize) -> Vec<(u64, u64)> {
    let of_file = log.iter().filter(|r| !r.0 && r.1 == file);
    of_file.map(|r| (r.2 / 8, r.3 / 8)).collect()
}

/// Every block of a `card`-tuple relation once, front to back.
fn each_block_once(card: u64, b_in: u64) -> Vec<(u64, u64)> {
    let blocks = (0..card.div_ceil(b_in)).map(|k| k * b_in);
    blocks.map(|at| (at, b_in.min(card - at))).collect()
}

fn sorted_ints(name: &str, card: u64, key_range: u64) -> Input {
    Input::Spec(
        RelSpec::ints(name, "HDD", card)
            .sorted()
            .with_key_range(key_range),
    )
}

#[test]
fn sorted_union_issues_the_native_requests_and_refills_on_exhaustion() {
    let b_in = 100;
    let plan = |kind| Plan::MergePass {
        left: 0,
        right: 1,
        kind,
        b_in,
        output: to_hdd(),
    };
    let inputs = [
        sorted_ints("A", 5_000, 3_000),
        sorted_ints("B", 3_000, 3_000),
    ];
    let (got, log) = check_case(&inputs, &plan(MergeKind::MultisetUnionSorted));
    // 8,000 tuples in, 8,000 out, 8 bytes each.
    assert_eq!(counts(got), [64_000, 64_000, 137, 166, 32], "as on PR 22");
    assert_eq!(reads_of(&log, 0), each_block_once(5_000, b_in));
    assert_eq!(reads_of(&log, 1), each_block_once(3_000, b_in));

    // Directed: everything in A sorts before anything in B, so B's second
    // block is due only when all of A and B's first block are out. (A merge
    // that read ahead, or alternated blocks, would read it earlier.)
    let inputs = [
        Input::Rows((0..300).collect()),
        Input::Rows((1_000..1_200).collect()),
    ];
    let b_in = 64;
    let plan = Plan::MergePass {
        left: 0,
        right: 1,
        kind: MergeKind::MultisetUnionSorted,
        b_in,
        output: Output::Discard,
    };
    let (_, log) = check_case(&inputs, &plan);
    let reads: Vec<(usize, u64)> = log.iter().map(|r| (r.1, r.2 / 8)).collect();
    let want = [
        (0, 0),
        (1, 0),
        (0, 64),
        (0, 128),
        (0, 192),
        (0, 256),
        (1, 64),
        (1, 128),
        (1, 192),
    ];
    assert_eq!(reads, want);
}

#[test]
fn a_difference_stops_reading_its_right_input_when_the_left_one_is_dry() {
    let b_in = 100;
    let plan = |b_in, output| Plan::MergePass {
        left: 0,
        right: 1,
        kind: MergeKind::MultisetDiffSorted,
        b_in,
        output,
    };
    // A's 1,000 values end below 500; B's 4,000 spread over 0..4,000.
    let inputs = [sorted_ints("A", 1_000, 500), sorted_ints("B", 4_000, 4_000)];
    let (got, log) = check_case(&inputs, &plan(b_in, to_hdd()));
    // All 1,000 tuples of A and the first six blocks of B in, 632 out.
    assert_eq!(counts(got), [12_800, 5_056, 18, 27, 11], "as on PR 22");
    assert_eq!(reads_of(&log, 0), each_block_once(1_000, b_in));
    assert_eq!(reads_of(&log, 1), each_block_once(4_000, b_in)[..6]);

    // Directed, and the case a loop that refills both cursors before it
    // looks at either gets wrong: A's last row cancels against the last row
    // of B's second block, so A runs dry at the moment B's cursor is due.
    // Nothing of B is read after that (PR 22's `merge_pass` read one more
    // block here).
    let inputs = [
        Input::Rows((0..128).collect()),
        Input::Rows((0..10_000).collect()),
    ];
    let (_, log) = check_case(&inputs, &plan(64, Output::Discard));
    assert_eq!(reads_of(&log, 0), [(0, 64), (64, 64)]);
    assert_eq!(reads_of(&log, 1), [(0, 64), (64, 64)]);
    let last_of_a = log.iter().rposition(|r| r.1 == 0).unwrap();
    assert_eq!(log.len() - last_of_a, 2, "one read of B follows A's last");
}

#[test]
fn a_column_zip_reads_its_columns_round_robin_a_block_at_a_time() {
    let (card, b_in) = (2_500, 64);
    let columns = |i: u64| Input::Spec(RelSpec::ints(&format!("C{i}"), "HDD", card));
    let inputs = [columns(1), columns(2), columns(3)];
    let plan = Plan::ColumnZip {
        columns: vec![0, 1, 2],
        b_in,
        output: to_hdd(),
    };
    let (got, log) = check_case(&inputs, &plan);
    // Three columns of 2,500 ints in, 2,500 rows of three out.
    assert_eq!(counts(got), [60_000, 60_000, 159, 195, 30], "as on PR 22");
    let reads: Vec<(usize, u64, u64)> = log
        .iter()
        .filter(|r| !r.0)
        .map(|r| (r.1, r.2 / 8, r.3 / 8))
        .collect();
    let want: Vec<(usize, u64, u64)> = each_block_once(card, b_in)
        .into_iter()
        .flat_map(|(at, n)| (0..3).map(move |column| (column, at, n)))
        .collect();
    assert_eq!(reads, want);
}

#[test]
fn a_duplicate_removal_reads_every_block_once() {
    let (card, b_in) = (7_000, 96);
    let inputs = [sorted_ints("L", card, 2_000)];
    let plan = Plan::DedupSorted {
        input: 0,
        b_in,
        output: to_hdd(),
    };
    let (got, log) = check_case(&inputs, &plan);
    // 7,000 tuples in, the 1,934 distinct ones out.
    assert_eq!(counts(got), [56_000, 15_472, 29, 126, 18], "as on PR 22");
    let reads = reads_of(&log, 0);
    assert_eq!(reads.len() as u64, card.div_ceil(b_in));
    assert_eq!(reads, each_block_once(card, b_in));
}

/// A sort of more runs than its fan-in: 5,000 ints in 14 runs of 4 x 64 +
/// 128 tuples, merged four at a time into four, then the output pass —
/// every request of it the native `algos::external_sort` it replaced issued,
/// on real files and on the simulator twin, which now keeps what a run
/// writes and merges it.
#[test]
fn a_two_level_sort_issues_the_native_requests_on_files_and_on_its_twin() {
    let (card, fan_in, b_in, b_out) = (5_000, 4, 64, 128);
    let inputs = [Input::Spec(RelSpec::ints("L", "HDD", card))];
    let run_tuples = fan_in * b_in + b_out;
    let runs = card.div_ceil(run_tuples);
    assert_eq!(
        (runs, runs.div_ceil(fan_in)),
        (14, 4),
        "one level, then output"
    );
    // Three passes read the input's 40,000 bytes; a device-bound output
    // writes in all three, a collected one in two.
    for (output, want) in [
        (Output::Discard, [120_000, 80_000, 219, 259, 30]),
        (to_hdd(), [120_000, 120_000, 251, 299, 40]),
    ] {
        let plan = Plan::ExternalSort {
            input: 0,
            fan_in,
            b_in,
            b_out,
            scratch: "HDD".into(),
            output: output.clone(),
        };
        let (got, log) = check_case(&inputs, &plan);
        assert_eq!(counts(got), want, "{output:?}: as the native sort");
        // A batch and its encoding while the runs form.
        assert_eq!(
            got.2,
            2 * run_tuples * 8,
            "{output:?}: peak as the native sort"
        );
        // Run formation reads the input once, a run at a time, in order.
        let input_reads: Vec<(u64, u64)> = reads_of(&log, 0);
        let each_run = (0..runs).map(|k| (k * run_tuples, run_tuples.min(card - k * run_tuples)));
        assert_eq!(input_reads, each_run.collect::<Vec<_>>(), "{output:?}");
        // Every other read is a cursor refill of at most b_in tuples.
        let refills = log.iter().filter(|r| !r.0 && r.1 != 0);
        assert!(refills.clone().all(|r| r.3 <= b_in * 8), "{output:?}");
        assert_eq!(refills.map(|r| r.3).sum::<u64>(), 2 * card * 8);
    }
}

/// A GRACE join with skewed keys and a partition count that is no power of
/// two: the left side's 24,000 pairs draw from four keys, so they land in at
/// most four of the seven buckets, streams of two extents or more; the right
/// side's 2,000 spread over a thousand keys. On real files it issues what the
/// native `algos::grace_join` it replaced issued — partition pass, bucket
/// reads, seeks and pool accesses, measured on that function — and the
/// simulator twin, which keeps what a bucket writes, issues the same
/// requests one for one. (Every probe bucket here is one extent, read before
/// its first row is emitted, as the native join read a whole bucket; so the
/// device-bound output's flushes fall where they fell.) The peak is the
/// largest build bucket, about one hot key's 6,000 pairs, with its probe
/// extent — and the sink's staging, for the device-bound output; the native
/// join read 1,438,512 and 101,648 B, counting a `Discard` run's collected
/// rows and the probe bucket whole.
#[test]
fn a_skewed_grace_join_issues_the_native_requests_on_files_and_on_its_twin() {
    let (left, right, block) = (24_000, 2_000, 256);
    let inputs = [
        Input::Spec(RelSpec::pairs("R", "HDD", left).with_key_range(4)),
        Input::Spec(RelSpec::pairs("S", "HDD", right).with_key_range(1_000)),
    ];
    // Two passes read both inputs' 416,000 bytes; the partitions are
    // written once, and a device-bound output writes its 53,826 rows.
    for (output, want, peak) in [
        (Output::Discard, [832_000, 416_000, 820, 914, 212], 101_328),
        (to_hdd(), [832_000, 2_138_432, 824, 2_127, 682], 101_904),
    ] {
        let plan = Plan::GraceJoin {
            left: 0,
            right: 1,
            partitions: 7,
            buffer_bytes: block * 16,
            spill: "HDD".into(),
            pred: ocas_engine::JoinPred::KeyEq,
            output: output.clone(),
        };
        let (got, log) = check_case(&inputs, &plan);
        assert_eq!(counts(got), want, "{output:?}: as the native join");
        assert_eq!(got.2, peak, "{output:?}: peak");
        // The partition pass reads each input once, a buffer at a time, in
        // order (offsets and lengths in 8-byte words).
        assert_eq!(reads_of(&log, 0), each_block_once(2 * left, 2 * block));
        assert_eq!(reads_of(&log, 1), each_block_once(2 * right, 2 * block));
        // The join pass reads every bucket extent once, its filled prefix
        // with one request from its start.
        let written: BTreeSet<usize> = log.iter().filter(|r| r.0).map(|r| r.1).collect();
        let extent_reads: Vec<&Request> = log.iter().filter(|r| !r.0 && r.1 > 1).collect();
        assert!(extent_reads
            .iter()
            .all(|r| r.2 == 0 && written.contains(&r.1)));
        let extents: BTreeSet<usize> = extent_reads.iter().map(|r| r.1).collect();
        assert_eq!(
            extents.len(),
            extent_reads.len(),
            "{output:?}: an extent read twice"
        );
    }
}
