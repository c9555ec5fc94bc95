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

/// A clocked storage layer: named devices, extent allocation, charged
/// requests and (for real backends) actual data transfer.
///
/// **One request.** The paper prices every transfer between two levels of
/// the hierarchy as one request: an initiation cost plus its bytes. Here a
/// request is one [`read`](StorageBackend::read) or
/// [`write`](StorageBackend::write) of `unit` bytes, and a call issues a
/// *run* of `count` of them laid end to end — request `j` covers
/// `[offset + j * unit, offset + (j + 1) * unit)` of `file` — so a scan
/// issued block by block, or an output sink's whole buffers flushed back to
/// back, is one call; a single request is a run of one. A run either
/// carries its bytes or elides them, and the choice changes nothing about
/// what is charged, counted or faulted:
///
/// * **With the bytes** (faithful mode): a write hands over `unit * count`
///   bytes, and real files receive them byte for byte; a read hands over a
///   buffer of that length and answers `true` when the backend filled it
///   with the file's bytes. A real backend always does. The simulator keeps
///   what writes carried, so a file written with data reads back (an
///   external sort's runs, written by one pass, are what the next pass
///   merges), and answers `false` for an input relation placed by
///   `materialize`: the caller then falls back to the relation's generator.
/// * **Elided** (simulated mode, `None`): only the length travels. The
///   simulator charges exactly what it charges with the bytes; a real
///   backend moves that many actual bytes (reading and dropping them,
///   writing filler) so that wall-clock time stays honest.
///
/// **Who may answer a run whole.** A run stands for the loop of its single
/// requests, and every backend must behave as that loop does, to the bit.
/// The simulator answers a run with one bounds check and one file lookup
/// (same clock bits, counters and device state as the loop; one
/// difference: a run that leaves the file is rejected before anything is
/// charged, where the loop charges the in-bounds prefix first). The file
/// backend serves the requests its read-ahead window holds with one copy,
/// counting each. A backend whose behaviour depends on seeing every request
/// one at a time answers it request by request — above all
/// [`Faulted`](crate::Faulted), which numbers each request of a run for its
/// [`FaultPlan`](crate::FaultPlan) before handing it to its inner backend,
/// so a plan fires at the same index on every backend.
///
/// [`materialize`](StorageBackend::materialize) is the setup path: it
/// places input data into a file *without* charging the clock or counters,
/// so measurements cover only the algorithm under test. The simulator keeps
/// nothing of it: inputs stay on their generators.
pub trait StorageBackend {
    /// Allocates a file of `len` bytes on the named device.
    fn alloc(&mut self, device: &str, len: u64) -> Result<FileId, StorageError>;

    /// Reads a run of `count` requests of `unit` bytes from `offset` of
    /// `file`, into `buf` (`unit * count` bytes, request `j` filling
    /// `buf[j * unit..(j + 1) * unit]`) or with the data elided (`None`).
    /// `Ok(true)` means `buf` holds the file's bytes (vacuously so for an
    /// empty run); `Ok(false)`, that the data was elided or that this
    /// backend holds no payload for the file, and `buf` is unspecified.
    ///
    /// # Panics
    ///
    /// Where `buf` is not `unit * count` bytes long.
    fn read(
        &mut self,
        file: FileId,
        offset: u64,
        unit: u64,
        count: u64,
        buf: Option<&mut [u8]>,
    ) -> Result<bool, StorageError>;

    /// Writes a run of `count` requests of `unit` bytes from `offset` of
    /// `file`, carrying `data` (`unit * count` bytes, request `j` writing
    /// `data[j * unit..(j + 1) * unit]`) or with the data elided (`None`).
    ///
    /// # Panics
    ///
    /// Where `data` is not `unit * count` bytes long.
    fn write(
        &mut self,
        file: FileId,
        offset: u64,
        unit: u64,
        count: u64,
        data: Option<&[u8]>,
    ) -> Result<(), StorageError>;

    /// Places `data` at `offset` within `file` without charging the clock
    /// or the I/O counters (test/input setup, not measured work).
    fn materialize(&mut self, file: FileId, offset: u64, data: &[u8]) -> Result<(), StorageError>;

    /// Adds pure computation time to the clock. Real backends ignore this —
    /// their CPU time is part of wall time already.
    fn charge_cpu(&mut self, seconds: f64);

    /// Seconds elapsed so far: simulated seconds for the simulator,
    /// wall-clock seconds spent in I/O for a real backend.
    fn clock(&self) -> f64;

    /// Which [`ocas_obs`] clock domain this backend's
    /// [`clock`](StorageBackend::clock) advances in:
    /// [`ocas_obs::Clock::Sim`] by default; real backends override with
    /// [`ocas_obs::Clock::Wall`].
    fn obs_clock(&self) -> ocas_obs::Clock {
        ocas_obs::Clock::Sim
    }

    /// File length in bytes.
    fn len(&self, file: FileId) -> u64;

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

/// Panics unless `bytes` is the `unit * count` bytes a run carries.
pub(crate) fn check_run_bytes(unit: u64, count: u64, bytes: usize) {
    assert!(
        unit.checked_mul(count) == Some(bytes as u64),
        "a run of {count} x {unit} B carries {bytes} B"
    );
}

impl StorageBackend for StorageSim {
    fn alloc(&mut self, device: &str, len: u64) -> Result<FileId, StorageError> {
        StorageSim::alloc(self, device, len)
    }

    fn read(
        &mut self,
        file: FileId,
        offset: u64,
        unit: u64,
        count: u64,
        buf: Option<&mut [u8]>,
    ) -> Result<bool, StorageError> {
        if let Some(buf) = &buf {
            check_run_bytes(unit, count, buf.len());
        }
        self.charge(false, file, offset, unit, count)?;
        Ok(buf.is_some_and(|buf| count == 0 || self.load(file, offset, buf)))
    }

    fn write(
        &mut self,
        file: FileId,
        offset: u64,
        unit: u64,
        count: u64,
        data: Option<&[u8]>,
    ) -> Result<(), StorageError> {
        if let Some(data) = data {
            check_run_bytes(unit, count, data.len());
        }
        self.charge(true, file, offset, unit, count)?;
        if let Some(data) = data.filter(|_| count > 0) {
            self.store(file, offset, data);
        }
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
        b.read(f, 0, 4096, 1, None).unwrap();
        b.write(f, 0, 128, 1, Some(&[7u8; 128])).unwrap();
        b.materialize(f, 0, &[1u8; 64]).unwrap();
        assert_eq!(b.len(f), 4096);
        assert_eq!(b.device_of(f), "HDD");
        assert!(b.clock() > 0.0);
        let stats = b.device_stats("HDD").unwrap();
        // materialize is uncharged; a write charges page-rounded bytes.
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
            sm.write(run, 8, 8, 1, Some(&[i as u8 + 1; 8])).unwrap();
        }
        let mut buf = [7u8; 24];
        fn read(sm: &mut StorageSim, file: FileId, offset: u64, buf: &mut [u8]) -> bool {
            let len = buf.len() as u64;
            sm.read(file, offset, len, 1, Some(buf)).unwrap()
        }
        assert!(!read(&mut sm, input, 0, &mut buf));
        assert!(read(&mut sm, runs[1], 0, &mut buf));
        assert_eq!(buf, [[0u8; 8], [2; 8], [0; 8]].concat()[..]);

        sm.truncate_device("HDD", mark + 32).unwrap();
        assert!(read(&mut sm, runs[0], 8, &mut buf[..8]));
        assert_eq!(buf[..8], [1; 8]);
        assert!(!read(&mut sm, runs[1], 0, &mut buf));
        sm.truncate_device("HDD", mark).unwrap();
        assert!(!read(&mut sm, runs[0], 0, &mut buf));
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
