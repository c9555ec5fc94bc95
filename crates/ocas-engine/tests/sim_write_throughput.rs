//! Simulated write runs against the loop of writes they stand for, in the
//! same test — a ratio, so the runner's speed cancels (the pattern of
//! `stream_throughput.rs`).
//!
//! The plan is Table 1 row 4's winner at paper scale: a block nested loops
//! product join of 4096 by 2^20 16-byte pairs, outer blocks of 1024 and
//! inner blocks of 256 tuples, writing its 2^32 rows through a 20 KiB
//! output buffer onto the disk it reads from — 6.7M buffer flushes, ~410
//! after each inner block. `Executor<StorageSim>` in `Mode::Simulated`
//! issues each inner block's flushes as one `write_run`; the same plan over
//! [`Looped`], which keeps the trait's default `write_run`, issues them one
//! `write` at a time. Both must end on the same clock bits and device
//! counters; best of three passes each, taking turns, the runs must be at
//! least [`MIN_SPEEDUP`] times faster.
//!
//! The ratio is only asserted in optimised builds; a debug build runs both
//! sides once over a 64th of the inner relation and checks that they agree.

use ocas_engine::{CpuModel, Executor, JoinPred, Mode, Output, Plan, RelSpec, Relation};
use ocas_hierarchy::presets;
use ocas_storage::{DeviceStats, FileId, StorageBackend, StorageError, StorageSim};
use std::time::Instant;

/// Passes per side.
const PASSES: usize = if cfg!(debug_assertions) { 1 } else { 3 };
/// Tuples of the inner relation.
const INNER: u64 = if cfg!(debug_assertions) {
    1 << 14
} else {
    1 << 20
};
/// A 2-vCPU x86-64 VM measures 18-21x (~1 ns a buffer in a run, ~18 ns
/// through `StorageSim::write`), and 3.3x with runs that visit every
/// request (`HddSim::write_run` without its page-aligned path): the floor
/// fails that, and leaves room for slow runners.
#[cfg(not(debug_assertions))]
const MIN_SPEEDUP: f64 = 6.0;

/// The simulator with the trait's default `write_run`: the loop of writes.
/// Everything else goes straight through, read runs included, so the two
/// sides differ in how the sink's flushes reach the device and nothing else.
struct Looped(StorageSim);

impl StorageBackend for Looped {
    fn alloc(&mut self, device: &str, len: u64) -> Result<FileId, StorageError> {
        self.0.alloc(device, len)
    }
    fn read(&mut self, file: FileId, offset: u64, len: u64) -> Result<(), StorageError> {
        self.0.read(file, offset, len)
    }
    fn read_run(
        &mut self,
        file: FileId,
        offset: u64,
        unit: u64,
        count: u64,
    ) -> Result<(), StorageError> {
        self.0.read_run(file, offset, unit, count)
    }
    fn write(&mut self, file: FileId, offset: u64, len: u64) -> Result<(), StorageError> {
        self.0.write(file, offset, len)
    }
    fn write_bytes(&mut self, file: FileId, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        self.0.write_bytes(file, offset, data)
    }
    fn materialize(&mut self, file: FileId, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        self.0.materialize(file, offset, data)
    }
    fn charge_cpu(&mut self, seconds: f64) {
        self.0.charge_cpu(seconds)
    }
    fn clock(&self) -> f64 {
        self.0.clock()
    }
    fn len(&self, file: FileId) -> u64 {
        self.0.len(file)
    }
    fn device_of(&self, file: FileId) -> &str {
        self.0.device_of(file)
    }
    fn device_stats(&self, device: &str) -> Option<DeviceStats> {
        self.0.device_stats(device)
    }
    fn truncate_device(&mut self, device: &str, mark: u64) -> Result<(), StorageError> {
        self.0.truncate_device(device, mark)
    }
    fn watermark(&self, device: &str) -> Option<u64> {
        self.0.watermark(device)
    }
    fn page_bytes(&self, device: &str) -> Result<u64, StorageError> {
        StorageBackend::page_bytes(&self.0, device)
    }
}

/// Row 4's plan over its relations on `sm`; returns the wall seconds of the
/// run and what it left: the clock's bits, the output rows and the HDD's
/// counters (busy seconds as bits).
fn one_run<B: StorageBackend>(sm: B) -> (f64, (u64, u64, DeviceStats, u64)) {
    let mut ex = Executor::new(sm, Mode::Simulated, CpuModel::default());
    for spec in [
        RelSpec::pairs("R", "HDD", 4096),
        RelSpec::pairs("S", "HDD", INNER),
    ] {
        let rel = Relation::create(&mut ex.sm, &spec, false, 0).unwrap();
        ex.add_relation(rel);
    }
    let plan = Plan::BnlJoin {
        outer: 0,
        inner: 1,
        k1: 1024,
        k2: 256,
        tiling: None,
        pred: JoinPred::Cross,
        order_inputs: false,
        output: Output::ToDevice {
            device: "HDD".into(),
            buffer_bytes: 20 * 1024,
        },
    };
    let t0 = Instant::now();
    let stats = ex.run(&plan).unwrap();
    let wall = t0.elapsed().as_secs_f64();
    let hdd = ex.sm.device_stats("HDD").unwrap();
    let seen = (
        ex.sm.clock().to_bits(),
        stats.output_rows,
        hdd,
        hdd.busy_seconds.to_bits(),
    );
    (wall, seen)
}

/// Row 4's hierarchy: one HDD under a RAM of the output buffer plus 64 KiB.
fn sim() -> StorageSim {
    StorageSim::from_hierarchy(&presets::hdd_ram(20 * 1024 + 64 * 1024))
}

#[test]
fn simulated_write_runs_beat_the_loop_of_writes() {
    let (mut runs, mut looped) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PASSES {
        let (r, got) = one_run(sim());
        let (l, want) = one_run(Looped(sim()));
        assert_eq!(got, want, "the runs moved the clock or the counters");
        assert!(got.2.bytes_written >= 32 * 4096 * INNER);
        runs = runs.min(r);
        looped = looped.min(l);
    }
    println!(
        "row 4 write-out, best of {PASSES}: {:.1} ms runs / {:.1} ms loop = {:.2}x",
        runs * 1e3,
        looped * 1e3,
        looped / runs
    );
    #[cfg(not(debug_assertions))]
    assert!(
        looped >= MIN_SPEEDUP * runs,
        "the write runs are only {:.2}x the loop of writes, under {MIN_SPEEDUP}x",
        looped / runs
    );
}
