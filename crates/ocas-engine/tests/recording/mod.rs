//! The recording storage backend of the request-order tests, kept in one
//! place. Not a test by itself: `ocas-engine`'s unit tests include it by
//! path, and so does `ocas-runtime`'s `stream_requests`. It uses only the
//! public API of `ocas-storage`.

use ocas_storage::{DeviceStats, FileId, StorageBackend, StorageError};

/// One charged request: `(is_write, file, offset, len)`.
pub type Request = (bool, usize, u64, u64);

/// Forwards everything to `inner`, logging every charged request of a run
/// on its own. A run reaches `inner` request by request — the loop every
/// backend is held to — unless `runs` is `Some`; then it goes whole, and
/// `runs` counts the write runs of more than one request.
pub struct Recording<B> {
    pub inner: B,
    pub log: Vec<Request>,
    pub runs: Option<u64>,
}

impl<B> Recording<B> {
    /// Forwards runs whole if `runs`, else request by request.
    pub fn new(inner: B, runs: bool) -> Recording<B> {
        Recording {
            inner,
            log: Vec::new(),
            runs: runs.then_some(0),
        }
    }

    fn log_run(&mut self, write: bool, file: FileId, offset: u64, unit: u64, count: u64) {
        let requests = (0..count).map(|j| (write, file.0, offset + j * unit, unit));
        self.log.extend(requests);
    }
}

impl<B: StorageBackend> StorageBackend for Recording<B> {
    fn alloc(&mut self, device: &str, len: u64) -> Result<FileId, StorageError> {
        self.inner.alloc(device, len)
    }
    fn read(
        &mut self,
        file: FileId,
        offset: u64,
        unit: u64,
        count: u64,
        mut buf: Option<&mut [u8]>,
    ) -> Result<bool, StorageError> {
        self.log_run(false, file, offset, unit, count);
        if self.runs.is_some() {
            return self.inner.read(file, offset, unit, count, buf);
        }
        let mut held = true;
        for j in 0..count {
            let from = (j * unit) as usize;
            let part = buf
                .as_deref_mut()
                .map(|b| &mut b[from..from + unit as usize]);
            held &= self.inner.read(file, offset + j * unit, unit, 1, part)?;
        }
        Ok(held && buf.is_some())
    }
    fn write(
        &mut self,
        file: FileId,
        offset: u64,
        unit: u64,
        count: u64,
        data: Option<&[u8]>,
    ) -> Result<(), StorageError> {
        self.log_run(true, file, offset, unit, count);
        if let Some(runs) = &mut self.runs {
            *runs += u64::from(count > 1);
            return self.inner.write(file, offset, unit, count, data);
        }
        for j in 0..count {
            let from = (j * unit) as usize;
            let part = data.map(|d| &d[from..from + unit as usize]);
            self.inner.write(file, offset + j * unit, unit, 1, part)?;
        }
        Ok(())
    }
    fn materialize(&mut self, file: FileId, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        self.inner.materialize(file, offset, data)
    }
    fn charge_cpu(&mut self, seconds: f64) {
        self.inner.charge_cpu(seconds)
    }
    fn clock(&self) -> f64 {
        self.inner.clock()
    }
    fn obs_clock(&self) -> ocas_obs::Clock {
        self.inner.obs_clock()
    }
    fn len(&self, file: FileId) -> u64 {
        self.inner.len(file)
    }
    fn device_of(&self, file: FileId) -> &str {
        self.inner.device_of(file)
    }
    fn device_stats(&self, device: &str) -> Option<DeviceStats> {
        self.inner.device_stats(device)
    }
    fn truncate_device(&mut self, device: &str, mark: u64) -> Result<(), StorageError> {
        self.inner.truncate_device(device, mark)
    }
    fn watermark(&self, device: &str) -> Option<u64> {
        self.inner.watermark(device)
    }
    fn page_bytes(&self, device: &str) -> Result<u64, StorageError> {
        self.inner.page_bytes(device)
    }
}
