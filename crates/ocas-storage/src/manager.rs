//! File allocation and clocked access across the simulated devices.

use crate::device::{DeviceSim, DeviceStats};
use ocas_hierarchy::{CostPair, Hierarchy};
use std::collections::BTreeMap;
use std::fmt;

/// Identifies an allocated file (a contiguous extent on one device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub usize);

#[derive(Debug, Clone, Copy)]
struct FileMeta {
    device: u32,
    /// `1 +` the index of the file's bytes in [`StorageSim`]'s payloads; 0
    /// while nothing has been written to it with data.
    payload: u32,
    offset: u64,
    len: u64,
}

/// Storage errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Unknown hierarchy node name.
    UnknownDevice(String),
    /// Access beyond a file's extent.
    OutOfBounds {
        /// The file.
        file: usize,
        /// Requested end offset.
        end: u64,
        /// File length.
        len: u64,
    },
    /// Device capacity exhausted.
    Full(String),
    /// Operating-system I/O failure (real backends only).
    Io(String),
    /// Unknown file handle (stale or foreign [`FileId`]).
    UnknownFile(usize),
    /// Transient I/O failure (an injected or real `EIO`/short transfer).
    /// Retryable: re-issuing the same request may succeed.
    Transient {
        /// Device the request targeted.
        device: String,
        /// Operation kind (`"read"`, `"write"`, `"alloc"`).
        op: &'static str,
        /// Per-device request index at which the failure fired.
        request: u64,
    },
    /// No space on a device for a specific allocation (`ENOSPC`).
    /// Not retryable, but degradable: callers may shrink the request or
    /// fail over to another spill device.
    NoSpace {
        /// Device that ran out of space.
        device: String,
        /// Bytes the failed allocation asked for.
        requested: u64,
    },
    /// A buffer-pool page failed its checksum on re-read — a torn or
    /// corrupted write-back was detected before it could become a wrong
    /// answer.
    CorruptPage {
        /// Device whose backing file holds the page.
        device: String,
        /// Page index within the device file.
        page: u64,
    },
    /// A tuple layout no extent is allocated for: no columns, or columns
    /// outside 1 to 8 bytes.
    BadLayout {
        /// Columns per tuple.
        width: u32,
        /// Bytes per column.
        col_bytes: u32,
    },
}

impl StorageError {
    /// True for errors where re-issuing the same request may succeed
    /// (the retry loop's classification).
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::Transient { .. })
    }

    /// True for capacity-style errors that degradation (shrink spill
    /// units / fail over to an alternate device) can handle.
    pub fn is_capacity(&self) -> bool {
        matches!(self, StorageError::Full(_) | StorageError::NoSpace { .. })
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownDevice(d) => write!(f, "unknown device `{d}`"),
            StorageError::OutOfBounds { file, end, len } => {
                write!(f, "access past end of file {file}: {end} > {len}")
            }
            StorageError::Full(d) => write!(f, "device `{d}` is full"),
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::UnknownFile(id) => write!(f, "unknown file handle {id}"),
            StorageError::Transient {
                device,
                op,
                request,
            } => {
                write!(
                    f,
                    "transient I/O failure: {op} request {request} on `{device}`"
                )
            }
            StorageError::NoSpace { device, requested } => {
                write!(f, "no space on `{device}` for {requested} bytes")
            }
            StorageError::CorruptPage { device, page } => {
                write!(
                    f,
                    "checksum mismatch on page {page} of `{device}` (torn write-back detected)"
                )
            }
            StorageError::BadLayout { width, col_bytes } => write!(
                f,
                "tuples of {width} columns of {col_bytes} bytes: need 1 or more columns of 1 to 8 bytes"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

/// The clocked storage layer: devices built from a hierarchy, plus a bump
/// allocator of file extents per device and a global simulated clock.
#[derive(Debug)]
pub struct StorageSim {
    devices: Vec<DeviceSim>,
    /// `dev:<name>` per device: the observability track its requests are
    /// recorded on.
    tracks: Vec<String>,
    device_by_name: BTreeMap<String, usize>,
    capacity: Vec<u64>,
    /// Each device's hierarchy `pagesize`.
    page: Vec<u64>,
    allocated: Vec<u64>,
    files: Vec<FileMeta>,
    /// The bytes of every file written with data, as `(file, bytes)`: the
    /// prefix of the file up to its last written byte, zeros where nothing
    /// was written.
    payloads: Vec<(FileId, Vec<u8>)>,
    clock_seconds: f64,
}

impl StorageSim {
    /// Builds one simulated device per storage node of the hierarchy (the
    /// root is memory and gets a free RAM device as well, so intermediates
    /// can be "allocated" uniformly).
    pub fn from_hierarchy(h: &Hierarchy) -> StorageSim {
        let mut devices = Vec::new();
        let mut tracks = Vec::new();
        let mut device_by_name = BTreeMap::new();
        let mut capacity = Vec::new();
        let mut page = Vec::new();
        for id in h.ids() {
            let props = h.node(id);
            let (up, down) = match h.parent(id) {
                Some(p) => (
                    h.edge(id, p).expect("parent edge"),
                    h.edge(p, id).expect("parent edge"),
                ),
                None => (CostPair::FREE, CostPair::FREE),
            };
            device_by_name.insert(props.name.clone(), devices.len());
            capacity.push(props.size);
            page.push(props.pagesize);
            tracks.push(format!("dev:{}", props.name));
            devices.push(DeviceSim::for_node(props, up, down));
        }
        let n = devices.len();
        StorageSim {
            devices,
            tracks,
            device_by_name,
            capacity,
            page,
            allocated: vec![0; n],
            files: Vec::new(),
            payloads: Vec::new(),
            clock_seconds: 0.0,
        }
    }

    /// Allocates a file of `len` bytes on the named device.
    pub fn alloc(&mut self, device: &str, len: u64) -> Result<FileId, StorageError> {
        let d = *self
            .device_by_name
            .get(device)
            .ok_or_else(|| StorageError::UnknownDevice(device.to_string()))?;
        if self.allocated[d] + len > self.capacity[d] {
            return Err(StorageError::Full(device.to_string()));
        }
        let offset = self.allocated[d];
        self.allocated[d] += len;
        let id = FileId(self.files.len());
        self.files.push(FileMeta {
            device: d as u32,
            payload: 0,
            offset,
            len,
        });
        Ok(id)
    }

    fn meta(&self, file: FileId) -> &FileMeta {
        &self.files[file.0]
    }

    /// The metadata of `file`, once `len` bytes at `offset` are known to
    /// lie inside it: one lookup for the check and the request.
    #[inline]
    fn extent(&self, file: FileId, offset: u64, len: u64) -> Result<FileMeta, StorageError> {
        let m = self.files[file.0];
        let end = offset.saturating_add(len);
        if end > m.len {
            return Err(StorageError::OutOfBounds {
                file: file.0,
                end,
                len: m.len,
            });
        }
        Ok(m)
    }

    /// Charges a run of `count` requests of `unit` bytes from `offset` of
    /// `file` — reads, or writes if `write` — advancing the clock. A single
    /// request is charged on its own: one file lookup, one read of the
    /// tracing flag, and one `read`/`write` span while tracing; a longer run
    /// is [`charge_run`](StorageSim::charge_run).
    #[inline(always)]
    pub(crate) fn charge(
        &mut self,
        write: bool,
        file: FileId,
        offset: u64,
        unit: u64,
        count: u64,
    ) -> Result<(), StorageError> {
        if count != 1 {
            return self.charge_run(write, file, offset, unit, count);
        }
        let m = self.extent(file, offset, unit)?;
        let d = m.device as usize;
        let seeks0 = self.obs_seeks(d);
        let (device, at) = (&mut self.devices[d], m.offset + offset);
        let (name, t) = match write {
            false => ("read", device.read(at, unit)),
            true => ("write", device.write(at, unit)),
        };
        if let Some(seeks0) = seeks0 {
            self.obs_span(name, d, t, unit, seeks0, None);
        }
        self.clock_seconds += t;
        Ok(())
    }

    /// [`charge`](StorageSim::charge) for a run of `count != 1` requests:
    /// clock and device statistics end up bit-identical to charging the
    /// requests one by one, but the bounds check and file lookup happen
    /// once, an HDD is consulted only for the reads it charges (see
    /// [`DeviceSim::read_run`]) and a page-aligned write run is charged in
    /// closed form ([`DeviceSim::write_run`]). One difference from the
    /// loop: a run that would leave the file is rejected before anything is
    /// charged, where the loop charges the in-bounds prefix first. While
    /// tracing, the run records one `read_run`/`write_run` span. Kept out
    /// of line, so that `charge`'s single request inlines where it is
    /// called.
    #[inline(never)]
    fn charge_run(
        &mut self,
        write: bool,
        file: FileId,
        offset: u64,
        unit: u64,
        count: u64,
    ) -> Result<(), StorageError> {
        if count == 0 {
            return Ok(());
        }
        let m = self.extent(file, offset, unit.saturating_mul(count))?;
        let d = m.device as usize;
        let seeks0 = self.obs_seeks(d);
        let (t0, mut clock) = (self.clock_seconds, self.clock_seconds);
        let (device, at) = (&mut self.devices[d], m.offset + offset);
        let name = match write {
            false => {
                device.read_run(at, unit, count, &mut clock);
                "read_run"
            }
            true => {
                device.write_run(at, unit, count, &mut clock);
                "write_run"
            }
        };
        if let Some(seeks0) = seeks0 {
            self.obs_span(name, d, clock - t0, unit * count, seeks0, Some(count));
        }
        self.clock_seconds = clock;
        Ok(())
    }

    /// Keeps `data` as the bytes at `offset` of `file` (the payload of a
    /// charged write; the caller has bounds-checked the request). The
    /// file's payload grows to the end of its last write.
    pub(crate) fn store(&mut self, file: FileId, offset: u64, data: &[u8]) {
        let m = &mut self.files[file.0];
        if m.payload == 0 {
            self.payloads.push((file, Vec::new()));
            m.payload = self.payloads.len() as u32;
        }
        let bytes = &mut self.payloads[m.payload as usize - 1].1;
        let (from, to) = (offset as usize, offset as usize + data.len());
        if bytes.len() < to {
            bytes.resize(to, 0);
        }
        bytes[from..to].copy_from_slice(data);
    }

    /// Fills `buf` with the bytes at `offset` of `file` if it was ever
    /// written with data (zeros past its last write) — one index, no search
    /// — and says whether it was.
    pub(crate) fn load(&self, file: FileId, offset: u64, buf: &mut [u8]) -> bool {
        let p = self.files[file.0].payload;
        if p == 0 {
            return false;
        }
        let bytes = &self.payloads[p as usize - 1].1;
        let from = (offset as usize).min(bytes.len());
        let n = (bytes.len() - from).min(buf.len());
        buf[..n].copy_from_slice(&bytes[from..from + n]);
        buf[n..].fill(0);
        true
    }

    /// Seek count of a device while tracing, `None` when not: the one
    /// `enabled()` check a request pays, whose answer says whether to
    /// [`obs_span`](StorageSim::obs_span) it.
    #[inline]
    fn obs_seeks(&self, device: usize) -> Option<u64> {
        ocas_obs::enabled().then(|| self.devices[device].stats().seeks)
    }

    /// Records one request — or one run of `requests` requests — as a span
    /// of `t` seconds starting at the current clock on the device's
    /// simulated-clock track; called while tracing only (see
    /// [`obs_seeks`](StorageSim::obs_seeks)). The span durations on each
    /// `dev:*` track (plus the `cpu` track) sum to the clock advance — the
    /// attribution property the acceptance test pins.
    fn obs_span(
        &self,
        name: &'static str,
        device: usize,
        t: f64,
        bytes: u64,
        seeks0: u64,
        requests: Option<u64>,
    ) {
        let seeks = self.devices[device].stats().seeks - seeks0;
        let args = [
            ("bytes", bytes as f64),
            ("seeks", seeks as f64),
            ("requests", requests.unwrap_or(1) as f64),
        ];
        ocas_obs::span(
            ocas_obs::Clock::Sim,
            &self.tracks[device],
            name,
            self.clock_seconds,
            t,
            // Single requests keep their two-argument shape.
            &args[..if requests.is_some() { 3 } else { 2 }],
        );
    }

    /// Adds pure computation time to the clock (the engine's CPU model).
    pub fn charge_cpu(&mut self, seconds: f64) {
        if ocas_obs::enabled() && seconds > 0.0 {
            ocas_obs::span(
                ocas_obs::Clock::Sim,
                "cpu",
                "charge",
                self.clock_seconds,
                seconds,
                &[],
            );
        }
        self.clock_seconds += seconds;
    }

    /// Simulated seconds elapsed so far.
    pub fn clock(&self) -> f64 {
        self.clock_seconds
    }

    /// File length in bytes.
    pub fn len(&self, file: FileId) -> u64 {
        self.meta(file).len
    }

    /// Device name holding the file.
    pub fn device_of(&self, file: FileId) -> &str {
        self.devices[self.meta(file).device as usize].name()
    }

    /// Statistics for a device by name.
    pub fn device_stats(&self, device: &str) -> Option<DeviceStats> {
        self.device_by_name
            .get(device)
            .map(|d| self.devices[*d].stats())
    }

    /// Frees the *most recent* allocations down to `mark` bytes on a device
    /// (simple region deallocation for scratch space between merge levels),
    /// and the bytes written to the files that lay there.
    pub fn truncate_device(&mut self, device: &str, mark: u64) -> Result<(), StorageError> {
        let d = *self
            .device_by_name
            .get(device)
            .ok_or_else(|| StorageError::UnknownDevice(device.to_string()))?;
        self.allocated[d] = self.allocated[d].min(mark);
        let mut i = 0;
        while i < self.payloads.len() {
            let m = self.files[self.payloads[i].0 .0];
            if m.device as usize != d || m.offset < mark {
                i += 1;
                continue;
            }
            self.files[self.payloads[i].0 .0].payload = 0;
            self.payloads.swap_remove(i);
            if let Some((moved, _)) = self.payloads.get(i) {
                self.files[moved.0].payload = i as u32 + 1;
            }
        }
        Ok(())
    }

    /// Current allocation watermark of a device (pair with
    /// [`StorageSim::truncate_device`]).
    pub fn watermark(&self, device: &str) -> Option<u64> {
        self.device_by_name.get(device).map(|d| self.allocated[*d])
    }

    /// The hierarchy `pagesize` of a device, in bytes.
    pub(crate) fn page_bytes(&self, device: &str) -> Result<u64, StorageError> {
        self.device_by_name
            .get(device)
            .map(|d| self.page[*d])
            .ok_or_else(|| StorageError::UnknownDevice(device.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StorageBackend;
    use ocas_hierarchy::presets;

    #[test]
    fn alloc_read_write_and_clock() {
        let h = presets::hdd_ram(1 << 25);
        let mut sm = StorageSim::from_hierarchy(&h);
        let f = sm.alloc("HDD", 1 << 20).unwrap();
        sm.read(f, 0, 1 << 20, 1, None).unwrap();
        let t1 = sm.clock();
        assert!(t1 > 0.0);
        // Sequential second read seeks back (head moved past the extent).
        sm.read(f, 0, 1 << 20, 1, None).unwrap();
        assert!(sm.clock() > 2.0 * t1 * 0.99);
        let stats = sm.device_stats("HDD").unwrap();
        assert_eq!(stats.bytes_read, 2 << 20);
        assert_eq!(stats.seeks, 1);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let h = presets::hdd_ram(1 << 25);
        let mut sm = StorageSim::from_hierarchy(&h);
        let f = sm.alloc("HDD", 100).unwrap();
        assert!(matches!(
            sm.read(f, 64, 100, 1, None),
            Err(StorageError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn capacity_enforced() {
        let h = presets::hdd_ram(1 << 20);
        let mut sm = StorageSim::from_hierarchy(&h);
        assert!(sm.alloc("RAM", 1 << 19).is_ok());
        assert!(matches!(
            sm.alloc("RAM", 1 << 20),
            Err(StorageError::Full(_))
        ));
        assert!(matches!(
            sm.alloc("nope", 1),
            Err(StorageError::UnknownDevice(_))
        ));
    }

    #[test]
    fn ram_files_are_free_to_access() {
        let h = presets::hdd_ram(1 << 25);
        let mut sm = StorageSim::from_hierarchy(&h);
        let f = sm.alloc("RAM", 1 << 20).unwrap();
        sm.read(f, 0, 1 << 20, 1, None).unwrap();
        sm.write(f, 0, 1 << 20, 1, None).unwrap();
        assert_eq!(sm.clock(), 0.0);
    }

    #[test]
    fn truncate_reuses_scratch_space() {
        let h = presets::hdd_ram(1 << 25);
        let mut sm = StorageSim::from_hierarchy(&h);
        let mark = sm.watermark("HDD").unwrap();
        sm.alloc("HDD", 1 << 30).unwrap();
        sm.truncate_device("HDD", mark).unwrap();
        // Space is reusable afterwards.
        for _ in 0..10 {
            let m = sm.watermark("HDD").unwrap();
            sm.alloc("HDD", 1 << 30).unwrap();
            sm.truncate_device("HDD", m).unwrap();
        }
    }

    #[test]
    fn flash_device_in_manager() {
        let h = presets::hdd_flash_ram(1 << 25);
        let mut sm = StorageSim::from_hierarchy(&h);
        let f = sm.alloc("SSD", 1 << 20).unwrap();
        sm.write(f, 0, 1 << 20, 1, None).unwrap();
        let stats = sm.device_stats("SSD").unwrap();
        assert_eq!(stats.erases, 4, "1 MiB / 256 KiB erase blocks");
    }
}
