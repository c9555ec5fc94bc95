//! The backend seam: one trait over which the execution engine issues every
//! storage request, implemented by both the device *simulator*
//! ([`StorageSim`]) and — in the `ocas-runtime` crate — a real-I/O file
//! backend. The engine is generic over this trait, so every faithful-mode
//! plan execution can run unchanged against simulated devices or actual
//! files on disk, and the two executions issue the *same* request stream
//! (the property the cross-backend equivalence tests pin down).

use crate::device::DeviceStats;
use crate::fault::RecoveryCounters;
use crate::manager::{FileId, StorageError, StorageSim};

/// A clocked storage layer: named devices, extent allocation, read/write
/// request accounting and (for real backends) actual data transfer.
///
/// Four kinds of request coexist:
///
/// * **Accounting requests** ([`read`](StorageBackend::read) /
///   [`write`](StorageBackend::write)) carry no payload. The simulator
///   charges modeled time; a real backend moves that many actual bytes
///   (reading and dropping them, writing filler) so wall-clock time is
///   honest even where the engine models data flow analytically.
/// * **Data writes** ([`write_bytes`](StorageBackend::write_bytes))
///   additionally carry the payload, so faithful-mode outputs land
///   byte-for-byte in real files. The simulator charges them exactly like
///   the accounting variant — both backends see identical request streams —
///   and keeps the payload, so a run hands back what it was given: an
///   external sort's runs, written by one pass, are what the next pass
///   merges, on the simulator as on real files.
/// * **Data reads** ([`read_data`](StorageBackend::read_data)) are the
///   other direction: an accounting read that also hands the payload back
///   where the backend holds one. A real backend fills the caller's buffer
///   and says so, and the faithful operators then compute on those bytes;
///   the simulator does the same for a file written with data, and
///   otherwise — an input relation, placed by `materialize` — charges the
///   read and answers "no payload", and the caller falls back to the
///   relation's generator. Either way the request is charged, counted and
///   faulted exactly like the accounting read of the same length.
/// * **Run requests** ([`read_run`](StorageBackend::read_run)) stand for a
///   sequence of equal accounting reads laid end to end — a scan issued
///   block by block. They are shorthand, not a new kind of I/O: the default
///   body issues the reads one by one, and only the simulator answers the
///   whole run at once (same clock and counters, to the last bit).
/// * **Data runs** ([`read_data_run`](StorageBackend::read_data_run)) are
///   to run requests what data reads are to accounting reads: a sequence of
///   equal data reads laid end to end, each filling its slice of one
///   buffer. Shorthand again: the default body is the loop of data reads.
///   The simulator answers a data run with its run request plus the kept
///   payload; the file backend serves the requests its read-ahead window
///   already holds with one copy, still counting (and, when tracing,
///   recording) each, and sends exactly the requests that refill the
///   window down the single-request path.
///
/// Who may override a run: a backend that gives the same clock, counters,
/// bytes and device state as the loop without visiting each request. A
/// backend whose behaviour depends on seeing every request one at a time —
/// above all [`Faulted`](crate::Faulted), which numbers them for its
/// [`FaultPlan`](crate::FaultPlan) — keeps both default loops.
///
/// [`materialize`](StorageBackend::materialize) is the setup path: it
/// places input data into a file *without* charging the clock or counters,
/// so measurements cover only the algorithm under test. The simulator keeps
/// nothing of it: inputs stay on their generators.
pub trait StorageBackend {
    /// Allocates a file of `len` bytes on the named device.
    fn alloc(&mut self, device: &str, len: u64) -> Result<FileId, StorageError>;

    /// Reads `len` bytes at `offset` within `file` (accounting request).
    fn read(&mut self, file: FileId, offset: u64, len: u64) -> Result<(), StorageError>;

    /// A run request: `count` sequential accounting reads of `unit` bytes,
    /// request `j` covering `[offset + j * unit, offset + (j + 1) * unit)`
    /// of `file`.
    ///
    /// The default body *is* that loop of [`read`](StorageBackend::read)
    /// calls, and every backend whose behaviour depends on seeing requests
    /// one at a time must keep it: a real backend moves bytes per request,
    /// and [`Faulted`](crate::Faulted) numbers requests per device so that
    /// a [`FaultPlan`](crate::FaultPlan) fires at the same index on every
    /// backend — it must not forward a run to its inner backend, or the
    /// requests inside the run would bypass injection and shift every later
    /// index. Only a backend that can *prove* the same clock, counters and
    /// device state without visiting each request may override it;
    /// [`StorageSim`] does (an HDD charges nothing for the requests its
    /// read-ahead window already covers), with one documented difference:
    /// it rejects a run that leaves the file before charging anything,
    /// where the loop charges the in-bounds prefix first.
    fn read_run(
        &mut self,
        file: FileId,
        offset: u64,
        unit: u64,
        count: u64,
    ) -> Result<(), StorageError> {
        for j in 0..count {
            self.read(file, offset + j * unit, unit)?;
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes at `offset` within `file` (data read).
    /// Charged and counted exactly like [`read`](StorageBackend::read) of
    /// `buf.len()` bytes. `Ok(true)` means `buf` now holds the file's
    /// bytes; `Ok(false)` — the default — means this backend holds no
    /// payload and `buf` is unspecified.
    fn read_data(
        &mut self,
        file: FileId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<bool, StorageError> {
        self.read(file, offset, buf.len() as u64)?;
        Ok(false)
    }

    /// A data run: `count` sequential data reads of `unit` bytes, request
    /// `j` filling `buf[j * unit..(j + 1) * unit]` from `offset + j * unit`
    /// of `file`; `buf` is `unit * count` bytes long. `Ok(true)` means `buf`
    /// holds the file's bytes (vacuously so for an empty run), as for
    /// [`read_data`](StorageBackend::read_data).
    ///
    /// The default body *is* that loop of `read_data` calls
    /// ([`read_data_loop`]), and the rule for overriding it is
    /// [`read_run`](StorageBackend::read_run)'s: the same clock, counters,
    /// bytes and device state as the loop, or keep the loop.
    /// [`Faulted`](crate::Faulted) keeps it. [`StorageSim`] overrides it
    /// with its run request and the kept payload (and so shares the run
    /// request's one difference: a run leaving the file is rejected before
    /// anything is charged).
    fn read_data_run(
        &mut self,
        file: FileId,
        offset: u64,
        unit: u64,
        count: u64,
        buf: &mut [u8],
    ) -> Result<bool, StorageError> {
        read_data_loop(self, file, offset, unit, count, buf)
    }

    /// Writes `len` bytes at `offset` within `file` (accounting request).
    fn write(&mut self, file: FileId, offset: u64, len: u64) -> Result<(), StorageError>;

    /// Writes `data` at `offset` within `file` (data request). Charged
    /// exactly like [`write`](StorageBackend::write) of `data.len()` bytes.
    fn write_bytes(&mut self, file: FileId, offset: u64, data: &[u8]) -> Result<(), StorageError>;

    /// Places `data` at `offset` within `file` without charging the clock
    /// or the I/O counters (test/input setup, not measured work).
    fn materialize(&mut self, file: FileId, offset: u64, data: &[u8]) -> Result<(), StorageError>;

    /// Adds pure computation time to the clock. Real backends ignore this —
    /// their CPU time is part of wall time already.
    fn charge_cpu(&mut self, seconds: f64);

    /// Seconds elapsed so far: simulated seconds for the simulator,
    /// wall-clock seconds spent in I/O for a real backend.
    fn clock(&self) -> f64;

    /// Which [`ocas_obs`] clock domain this backend's [`clock`]
    /// (StorageBackend::clock) advances in: [`ocas_obs::Clock::Sim`] by
    /// default; real backends override with [`ocas_obs::Clock::Wall`].
    fn obs_clock(&self) -> ocas_obs::Clock {
        ocas_obs::Clock::Sim
    }

    /// File length in bytes.
    fn len(&self, file: FileId) -> u64;

    /// True if the file is empty.
    fn is_empty(&self, file: FileId) -> bool {
        self.len(file) == 0
    }

    /// Device name holding the file.
    fn device_of(&self, file: FileId) -> &str;

    /// Statistics for a device by name.
    fn device_stats(&self, device: &str) -> Option<DeviceStats>;

    /// Frees the most recent allocations down to `mark` bytes on a device.
    fn truncate_device(&mut self, device: &str, mark: u64) -> Result<(), StorageError>;

    /// Current allocation watermark of a device.
    fn watermark(&self, device: &str) -> Option<u64>;

    /// The page size of `device` in bytes: the unit a spill stream aligns
    /// its extents to, so that no two streams share a page. A query, not a
    /// knob — the simulator answers the hierarchy's `pagesize`, a real
    /// backend its buffer pool's page, and under the default pool
    /// configuration the two are the same.
    fn page_bytes(&self, device: &str) -> Result<u64, StorageError>;

    /// Charges fault-handling seconds (retry backoff, latency spikes) to
    /// the clock. Defaults to [`charge_cpu`](StorageBackend::charge_cpu);
    /// real backends override so the penalty lands on their I/O clock.
    fn charge_penalty(&mut self, seconds: f64) {
        self.charge_cpu(seconds);
    }

    /// Fault/recovery counters this backend accumulated, if it injects
    /// or recovers from faults (`None` for plain backends).
    fn recovery_counters(&self) -> Option<RecoveryCounters> {
        None
    }

    /// Records a degradation event on `device` (`"shrink"` /
    /// `"failover"`) for reporting. No-op by default.
    fn note_degradation(&mut self, _device: &str, _what: &'static str) {}

    /// The device a spill that keeps running out of space fails over to
    /// (`None` by default: the spill fails).
    fn spill_fallback(&self) -> Option<&str> {
        None
    }

    /// Asks the backend to tear the `at`-th upcoming buffer-pool
    /// write-back on `device` (half the page persists; the recorded
    /// checksum keeps the full intent, so re-read detects the tear).
    /// Returns `false` where unsupported — the simulator holds no page
    /// data to tear.
    fn schedule_torn_write_back(&mut self, _device: &str, _at: u64) -> bool {
        false
    }
}

/// The loop of [`read_data`](StorageBackend::read_data) calls a data run
/// stands for: the default body of
/// [`read_data_run`](StorageBackend::read_data_run), the fallback of a
/// backend that overrides it, and the oracle every override is held to.
/// `Ok(true)` when every request handed the file's bytes back.
///
/// # Panics
///
/// Unless `buf` is `unit * count` bytes long.
pub fn read_data_loop<B: StorageBackend + ?Sized>(
    backend: &mut B,
    file: FileId,
    offset: u64,
    unit: u64,
    count: u64,
    buf: &mut [u8],
) -> Result<bool, StorageError> {
    check_run_buffer(unit, count, buf);
    let mut held = true;
    for j in 0..count {
        let at = (j * unit) as usize;
        let request = &mut buf[at..at + unit as usize];
        held &= backend.read_data(file, offset + j * unit, request)?;
    }
    Ok(held)
}

/// Panics unless `buf` is the `unit * count` bytes a data run fills.
fn check_run_buffer(unit: u64, count: u64, buf: &[u8]) {
    assert!(
        unit.checked_mul(count) == Some(buf.len() as u64),
        "a data run of {count} x {unit} B fills {} B",
        buf.len()
    );
}

impl StorageBackend for StorageSim {
    fn alloc(&mut self, device: &str, len: u64) -> Result<FileId, StorageError> {
        StorageSim::alloc(self, device, len)
    }

    fn read(&mut self, file: FileId, offset: u64, len: u64) -> Result<(), StorageError> {
        StorageSim::read(self, file, offset, len)
    }

    fn read_run(
        &mut self,
        file: FileId,
        offset: u64,
        unit: u64,
        count: u64,
    ) -> Result<(), StorageError> {
        StorageSim::read_run(self, file, offset, unit, count)
    }

    fn write(&mut self, file: FileId, offset: u64, len: u64) -> Result<(), StorageError> {
        StorageSim::write(self, file, offset, len)
    }

    fn read_data(
        &mut self,
        file: FileId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<bool, StorageError> {
        StorageSim::read(self, file, offset, buf.len() as u64)?;
        Ok(self.load(file, offset, buf))
    }

    fn read_data_run(
        &mut self,
        file: FileId,
        offset: u64,
        unit: u64,
        count: u64,
        buf: &mut [u8],
    ) -> Result<bool, StorageError> {
        check_run_buffer(unit, count, buf);
        StorageSim::read_run(self, file, offset, unit, count)?;
        Ok(count == 0 || self.load(file, offset, buf))
    }

    fn write_bytes(&mut self, file: FileId, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        StorageSim::write(self, file, offset, data.len() as u64)?;
        self.store(file, offset, data);
        Ok(())
    }

    fn materialize(&mut self, file: FileId, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        // The simulator keeps no data; setup only needs the extent to exist.
        let end = offset + data.len() as u64;
        if end > StorageSim::len(self, file) {
            return Err(StorageError::OutOfBounds {
                file: file.0,
                end,
                len: StorageSim::len(self, file),
            });
        }
        Ok(())
    }

    fn charge_cpu(&mut self, seconds: f64) {
        StorageSim::charge_cpu(self, seconds)
    }

    fn clock(&self) -> f64 {
        StorageSim::clock(self)
    }

    fn len(&self, file: FileId) -> u64 {
        StorageSim::len(self, file)
    }

    fn device_of(&self, file: FileId) -> &str {
        StorageSim::device_of(self, file)
    }

    fn device_stats(&self, device: &str) -> Option<DeviceStats> {
        StorageSim::device_stats(self, device)
    }

    fn truncate_device(&mut self, device: &str, mark: u64) -> Result<(), StorageError> {
        StorageSim::truncate_device(self, device, mark)
    }

    fn watermark(&self, device: &str) -> Option<u64> {
        StorageSim::watermark(self, device)
    }

    fn page_bytes(&self, device: &str) -> Result<u64, StorageError> {
        StorageSim::page_bytes(self, device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocas_hierarchy::presets;

    fn dyn_roundtrip(b: &mut dyn StorageBackend) {
        let f = b.alloc("HDD", 4096).unwrap();
        b.read(f, 0, 4096).unwrap();
        b.write_bytes(f, 0, &[7u8; 128]).unwrap();
        b.materialize(f, 0, &[1u8; 64]).unwrap();
        assert_eq!(b.len(f), 4096);
        assert!(!b.is_empty(f));
        assert_eq!(b.device_of(f), "HDD");
        assert!(b.clock() > 0.0);
        let stats = b.device_stats("HDD").unwrap();
        // materialize is uncharged; write_bytes charges page-rounded bytes.
        assert_eq!(stats.bytes_read, 4096);
        assert_eq!(stats.bytes_written, 4096);
    }

    #[test]
    fn storage_sim_is_object_safe_backend() {
        let h = presets::hdd_ram(1 << 25);
        let mut sm = StorageSim::from_hierarchy(&h);
        dyn_roundtrip(&mut sm);
    }

    /// A file written with data reads back what was written (zeros where
    /// nothing was), one that was only materialized has no payload, and
    /// truncating the device frees the written files past the mark.
    #[test]
    fn written_bytes_read_back_and_truncation_frees_them() {
        let h = presets::hdd_ram(1 << 25);
        let mut sm = StorageSim::from_hierarchy(&h);
        let input = sm.alloc("HDD", 64).unwrap();
        sm.materialize(input, 0, &[9u8; 64]).unwrap();
        let mark = sm.watermark("HDD").unwrap();
        let runs = [sm.alloc("HDD", 32).unwrap(), sm.alloc("HDD", 32).unwrap()];
        for (i, run) in runs.into_iter().enumerate() {
            sm.write_bytes(run, 8, &[i as u8 + 1; 8]).unwrap();
        }
        let mut buf = [7u8; 24];
        assert!(!sm.read_data(input, 0, &mut buf).unwrap());
        assert!(sm.read_data(runs[1], 0, &mut buf).unwrap());
        assert_eq!(buf, [[0u8; 8], [2; 8], [0; 8]].concat()[..]);

        sm.truncate_device("HDD", mark + 32).unwrap();
        assert!(sm.read_data(runs[0], 8, &mut buf[..8]).unwrap());
        assert_eq!(buf[..8], [1; 8]);
        assert!(!sm.read_data(runs[1], 0, &mut buf).unwrap());
        sm.truncate_device("HDD", mark).unwrap();
        assert!(!sm.read_data(runs[0], 0, &mut buf).unwrap());
    }

    #[test]
    fn materialize_checks_bounds() {
        let h = presets::hdd_ram(1 << 25);
        let mut sm = StorageSim::from_hierarchy(&h);
        let f = StorageSim::alloc(&mut sm, "HDD", 16).unwrap();
        assert!(matches!(
            StorageBackend::materialize(&mut sm, f, 8, &[0u8; 16]),
            Err(StorageError::OutOfBounds { .. })
        ));
    }
}
