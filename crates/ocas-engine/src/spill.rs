//! Spill allocation that degrades instead of failing a run.

use ocas_storage::{FileId, StorageBackend, StorageError};

/// Allocates a spill stream's extents on one device and, when that device
/// runs out of space, degrades gracefully instead of failing the run:
/// extents shrink by halving where the caller can live with smaller pieces,
/// and once even single-tuple extents no longer fit the allocator fails over
/// (once) to the backend's [`spill_fallback`](StorageBackend::spill_fallback)
/// device. Every degradation is recorded with
/// [`note_degradation`](StorageBackend::note_degradation), so it lands in the
/// recovery counters and the obs `degrade:*` tracks.
///
/// The external sort's runs are its spills here; the GRACE join of
/// `ocas-runtime` reserves its page-aligned bucket extents on top of
/// [`SpillAlloc::fail_over`].
#[derive(Debug)]
pub struct SpillAlloc {
    device: String,
    fallback: Option<String>,
    failed_over: bool,
}

impl SpillAlloc {
    /// Spills to `device`, failing over to `sm`'s fallback device.
    pub fn new<B: StorageBackend>(sm: &B, device: &str) -> SpillAlloc {
        SpillAlloc {
            device: device.to_string(),
            fallback: sm.spill_fallback().map(str::to_string),
            failed_over: false,
        }
    }

    /// The device spills go to now.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// Switches to the fallback device, or gives up with the capacity error
    /// `e` when there is none (or it is already in use).
    pub fn fail_over<B: StorageBackend>(
        &mut self,
        sm: &mut B,
        e: StorageError,
    ) -> Result<(), StorageError> {
        match &self.fallback {
            Some(to) if !self.failed_over && *to != self.device => {
                sm.note_degradation(&self.device, "failover");
                self.device = to.clone();
                self.failed_over = true;
                Ok(())
            }
            _ => Err(e),
        }
    }

    /// Allocates one contiguous extent (a merged run must stay contiguous,
    /// so shrinking is not an option — only failover).
    pub(crate) fn alloc<B: StorageBackend>(
        &mut self,
        sm: &mut B,
        len: u64,
    ) -> Result<FileId, StorageError> {
        loop {
            match sm.alloc(&self.device, len) {
                Err(e) if e.is_capacity() => self.fail_over(sm, e)?,
                done => return done,
            }
        }
    }

    /// Writes `bytes` (whole `tb`-byte tuples, one sorted batch) as one run,
    /// appending `(file, tuples)` to `runs`. On capacity exhaustion the
    /// extent halves — a contiguous slice of a sorted batch is still a sorted
    /// run — and when single-tuple extents no longer fit it fails over.
    pub(crate) fn spill_rows<B: StorageBackend>(
        &mut self,
        sm: &mut B,
        bytes: &[u8],
        tb: u64,
        runs: &mut Vec<(FileId, u64)>,
    ) -> Result<(), StorageError> {
        let rows = bytes.len() as u64 / tb;
        let (mut start, mut chunk) = (0u64, rows);
        while start < rows {
            let n = chunk.min(rows - start);
            match sm.alloc(&self.device, n * tb) {
                Ok(f) => {
                    sm.write_bytes(
                        f,
                        0,
                        &bytes[(start * tb) as usize..((start + n) * tb) as usize],
                    )?;
                    runs.push((f, n));
                    start += n;
                }
                Err(e) if e.is_capacity() && chunk > 1 => {
                    chunk /= 2;
                    sm.note_degradation(&self.device, "shrink");
                }
                Err(e) if e.is_capacity() => {
                    self.fail_over(sm, e)?;
                    // Fresh device: back to full-size extents.
                    chunk = rows;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}
