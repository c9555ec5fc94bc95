//! The real-I/O storage backend: one temp file per hierarchy device, each
//! fronted by a page-granular [`BufferPool`] and a small read-ahead window
//! for forward cursors, implementing the engine's [`StorageBackend`] seam —
//! a read carrying its bytes hands back what the file holds — with
//! per-device I/O counters that mirror the simulator's [`DeviceStats`].

use crate::pool::{BufferPool, PolicyKind, PoolStats};
use ocas_hierarchy::Hierarchy;
use ocas_storage::{DeviceStats, FileId, RecoveryCounters, StorageBackend, StorageError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How wall-clock timing relates to the physical disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingMode {
    /// Default: I/O goes through the OS page cache; `wall_seconds` on
    /// workloads smaller than free RAM mostly measures `memcpy`.
    #[default]
    Buffered,
    /// fsync-bounded timing: device files are opened with `O_DIRECT` where
    /// the platform allows (Linux, 512-byte-aligned pages, a filesystem
    /// that supports it — probed at startup, silently falling back to
    /// buffered I/O elsewhere), and [`FileBackend::flush`] — write-back +
    /// fsync — charges the clock, so `wall_seconds` reflects the disk
    /// rather than the kernel's RAM.
    DiskBounded,
}

/// Buffer-pool configuration shared by every device of a backend.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Page size in bytes (0 = use each device's hierarchy `pagesize`).
    pub page_bytes: usize,
    /// Frames per device pool.
    pub frames: usize,
    /// Timing mode (buffered page-cache I/O vs fsync/`O_DIRECT`-bounded).
    pub timing: TimingMode,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            page_bytes: 0,
            frames: 256,
            timing: TimingMode::Buffered,
        }
    }
}

/// Tries to reopen `path` for direct I/O and probes one aligned read; any
/// failure (unsupported platform, filesystem, or page geometry) returns
/// `None` and the caller stays on buffered I/O.
#[cfg(target_os = "linux")]
fn try_direct_open(path: &Path, page: usize) -> Option<std::fs::File> {
    use std::os::unix::fs::{FileExt, OpenOptionsExt};
    if page % 512 != 0 {
        return None;
    }
    #[cfg(any(target_arch = "aarch64", target_arch = "arm"))]
    const O_DIRECT: i32 = 0o200000;
    #[cfg(not(any(target_arch = "aarch64", target_arch = "arm")))]
    const O_DIRECT: i32 = 0o40000;
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .custom_flags(O_DIRECT)
        .open(path)
        .ok()?;
    let mut probe = vec![0u8; page + 511];
    let off = probe.as_ptr().align_offset(512);
    file.read_at(&mut probe[off..off + page], 0).ok()?;
    Some(file)
}

#[cfg(not(target_os = "linux"))]
fn try_direct_open(_path: &Path, _page: usize) -> Option<std::fs::File> {
    None
}

#[derive(Debug, Clone, Copy)]
struct FileMeta {
    device: usize,
    offset: u64,
    len: u64,
}

/// Where one bounds-checked request lands: the device, the absolute
/// position on it, and where the file's extent ends there.
#[derive(Debug, Clone, Copy)]
struct Located {
    device: usize,
    pos: u64,
    extent_end: u64,
}

/// Longest transfer one read, or one write with the data elided, moves; a
/// longer request is issued as a sequence of these.
const CHUNK: usize = 1 << 20;

/// Pages in a device's read-ahead window (see [`FileBackend`]). At least
/// two, so that a sub-page request always fits the window it refills;
/// measured flat from 4 to 32 on a one-tuple scan.
const WINDOW_PAGES: usize = 8;

struct DeviceFile {
    name: String,
    /// Obs track names (`dev:<name>`, `pool:<name>`), built once.
    dev_track: String,
    pool_track: String,
    pool: BufferPool,
    stats: DeviceStats,
    /// Next byte position a purely sequential request would start at —
    /// a request elsewhere counts as a seek, mirroring the HDD simulator.
    position: u64,
    /// Pool statistics as of the last emitted obs counter sample, so
    /// tracing emits per-request deltas (only read while tracing).
    obs_pool: PoolStats,
    /// The read-ahead window: `window[ahead]` are the device's bytes from
    /// `position` on, as the pool last served them. Empty after anything
    /// but a sequential sub-page read.
    window: Vec<u8>,
    ahead: std::ops::Range<usize>,
}

impl DeviceFile {
    /// Forgets the window: the device's bytes or extents are about to
    /// change, or its position is about to move some other way.
    fn drop_window(&mut self) {
        self.ahead = 0..0;
    }

    /// Serves the sequential sub-page read `buf` at `pos` and reads ahead:
    /// one pool read from `pos` to the end of the window's last page, or of
    /// the file's extent if that comes first. A corrupt page past the
    /// request ends the window in front of it instead of failing a request
    /// that does not cover it (the pool fills in order, so everything
    /// before that page is good); it fails the request that reaches it.
    fn refill(&mut self, pos: u64, extent_end: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        self.drop_window();
        let pb = self.pool.page_bytes() as u64;
        let end = ((pos / pb + WINDOW_PAGES as u64) * pb).min(extent_end);
        let n = (end - pos) as usize;
        if self.window.len() < n {
            self.window.resize(WINDOW_PAGES * pb as usize, 0);
        }
        let valid = match self.pool.read(pos, &mut self.window[..n]) {
            Ok(()) => n,
            Err(StorageError::CorruptPage { page, .. }) if page * pb >= pos + buf.len() as u64 => {
                (page * pb - pos) as usize
            }
            Err(e) => return Err(e),
        };
        buf.copy_from_slice(&self.window[..buf.len()]);
        self.ahead = buf.len()..valid;
        Ok(())
    }

    /// Serves `count` sequential requests of `unit` bytes, `buf` in all,
    /// out of the window (the caller checked that it holds them): one copy
    /// and one pointer bump, but each request counted — and recorded while
    /// tracing — on its own. Nothing worth timing.
    #[inline]
    fn serve_ahead(&mut self, buf: &mut [u8], unit: u64, count: u64) {
        let from = self.ahead.start;
        buf.copy_from_slice(&self.window[from..from + buf.len()]);
        self.ahead.start += buf.len();
        self.position += buf.len() as u64;
        self.stats.bytes_read += buf.len() as u64;
        if ocas_obs::enabled() {
            for _ in 0..count {
                self.obs_request("read", ocas_obs::wall_now(), 0.0, unit, false);
            }
        }
    }

    /// Records one charged request as a wall-clock span on this device's
    /// track, plus counter deltas for any buffer-pool activity it caused.
    fn obs_request(&mut self, name: &'static str, start: f64, dur: f64, bytes: u64, seek: bool) {
        if !ocas_obs::enabled() {
            return;
        }
        ocas_obs::span(
            ocas_obs::Clock::Wall,
            &self.dev_track,
            name,
            start,
            dur,
            &[("bytes", bytes as f64), ("seeks", u64::from(seek) as f64)],
        );
        let s = self.pool.stats();
        for (counter, cur, prev) in [
            ("hits", s.hits, self.obs_pool.hits),
            ("misses", s.misses, self.obs_pool.misses),
            ("evictions", s.evictions, self.obs_pool.evictions),
            ("write_backs", s.write_backs, self.obs_pool.write_backs),
        ] {
            if cur > prev {
                ocas_obs::counter(
                    ocas_obs::Clock::Wall,
                    &self.pool_track,
                    counter,
                    start + dur,
                    (cur - prev) as f64,
                );
            }
        }
        self.obs_pool = s;
    }
}

/// The real-I/O backend: files on disk, wall-clock accounting.
///
/// Every device of the hierarchy's storage tree maps to one sparse backing
/// file inside a per-backend temp directory; engine file extents are
/// bump-allocated ranges of those files, exactly like the simulator's
/// extent allocator — so a plan executed here issues the same `(device,
/// offset, len)` request stream as on [`ocas_storage::StorageSim`], but
/// each request moves real bytes through the device's buffer pool.
///
/// The backend is built for **faithful-scale** runs (real rows, real
/// bytes). Simulated-mode plans model multi-terabyte transfers; pointing
/// one at a `FileBackend` would faithfully write that much filler.
///
/// It injects no faults of its own: a faulted real run is
/// [`Faulted<FileBackend>`](ocas_storage::Faulted), the injector the
/// simulator runs under too, which numbers the requests it forwards here.
///
/// # The read-ahead window
///
/// The plans the synthesizer tunes stream a relation one tuple at a time —
/// the paper's model prices the second sequential request at nothing — so
/// each device keeps a small read-ahead window (`WINDOW_PAGES` pages, a
/// constant). A read shorter than a page that starts where the device's
/// last request ended refills it with **one** pool read, from the request
/// to the end of the window's last page or of the file's extent, whichever
/// comes first; the requests that follow sequentially are a copy out of it
/// and a pointer bump.
///
/// * *Counted per request, window or not:* `bytes_read`, the sequential
///   position and `seeks` in [`DeviceStats`], and an obs span when
///   tracing; a [`Faulted`](ocas_storage::Faulted) wrapper numbers every
///   one of them too, so a fault plan cannot tell the window is there.
///   Pool statistics move when the pool is asked: a page is missed,
///   verified and admitted once, by the refill, instead of being hit once
///   per tuple afterwards.
/// * *Not timed:* a request served from the window reads no clock — there
///   is no I/O in it to time. The refill is timed like any pool read, on
///   the request that caused it.
/// * *Served together in a run:* a read run carrying its bytes is the loop
///   of its requests, except that the ones the window holds are one copy
///   and one bulk update of the counters (still one obs span each while
///   tracing). The requests that find the window short take the
///   single-request path, so the window refills at the same requests, and
///   the bytes, counters, pool statistics and window afterwards are the
///   loop's. A run with the data elided, or whose requests are empty or
///   longer than a transfer, is the loop itself.
/// * *Dropped by:* any `write` or `materialize` on the device
///   (its bytes change), `truncate_device` (its extents change), and any
///   read that is not such a sequential sub-page one (the position moves
///   some other way). So the window never holds a byte the pool would not
///   return, and a torn page surfaces as `CorruptPage` on the request that
///   reaches it — a corrupt page that only the read-ahead touched ends the
///   window in front of it and fails nobody else.
/// * *Not in anyone's `resident_bytes`:* like the pool's frames it is the
///   hierarchy's memory level holding device pages, not tuples an operator
///   keeps; the operator's share is the block it decoded.
pub struct FileBackend {
    dir: PathBuf,
    timing: TimingMode,
    devices: Vec<DeviceFile>,
    device_by_name: BTreeMap<String, usize>,
    capacity: Vec<u64>,
    allocated: Vec<u64>,
    files: Vec<FileMeta>,
    clock_seconds: f64,
    scratch: Vec<u8>,
    /// Degradations recorded via `note_degradation`: genuine `Full`
    /// conditions degrade too.
    recovery: RecoveryCounters,
    /// Alternate spill device the out-of-core algorithms fail over to
    /// when a spill device runs out of space.
    spill_fallback: Option<String>,
}

impl std::fmt::Debug for FileBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileBackend")
            .field("dir", &self.dir)
            .field("devices", &self.device_by_name)
            .field("files", &self.files.len())
            .field("clock_seconds", &self.clock_seconds)
            .finish()
    }
}

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

static BACKEND_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl FileBackend {
    /// Builds a backend in a fresh temp directory (removed on drop).
    pub fn from_hierarchy(h: &Hierarchy, cfg: PoolConfig) -> Result<FileBackend, StorageError> {
        let seq = BACKEND_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ocas-runtime-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        let mut devices = Vec::new();
        let mut device_by_name = BTreeMap::new();
        let mut capacity = Vec::new();
        for id in h.ids() {
            let props = h.node(id);
            let path = dir.join(format!("{}.dev", props.name));
            let file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
                .map_err(io_err)?;
            // Sparse up to the device capacity: reads of unwritten ranges
            // see zeros, allocation never preallocates blocks.
            file.set_len(props.size).map_err(io_err)?;
            let page = if cfg.page_bytes > 0 {
                cfg.page_bytes
            } else {
                props.pagesize.clamp(1, 1 << 20) as usize
            };
            // Disk-bounded timing: swap in an O_DIRECT handle when the
            // platform grants one for this page geometry and filesystem.
            let (file, direct) = if cfg.timing == TimingMode::DiskBounded {
                match try_direct_open(&path, page) {
                    Some(f) => (f, true),
                    None => (file, false),
                }
            } else {
                (file, false)
            };
            device_by_name.insert(props.name.clone(), devices.len());
            capacity.push(props.size);
            devices.push(DeviceFile {
                name: props.name.clone(),
                dev_track: format!("dev:{}", props.name),
                pool_track: format!("pool:{}", props.name),
                pool: BufferPool::new(file, page, cfg.frames, PolicyKind::Lru)
                    .with_direct(direct)
                    .with_label(&props.name),
                stats: DeviceStats::default(),
                position: 0,
                obs_pool: PoolStats::default(),
                window: Vec::new(),
                ahead: 0..0,
            });
        }
        let n = devices.len();
        Ok(FileBackend {
            dir,
            timing: cfg.timing,
            devices,
            device_by_name,
            capacity,
            allocated: vec![0; n],
            files: Vec::new(),
            clock_seconds: 0.0,
            scratch: Vec::new(),
            recovery: RecoveryCounters::default(),
            spill_fallback: None,
        })
    }

    /// The backend's temp directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Names an alternate spill device for ENOSPC fail-over,
    /// builder-style: [`StorageBackend::spill_fallback`], which the external
    /// sort and the GRACE join consult when a spill allocation keeps
    /// failing after shrinking.
    pub fn with_spill_fallback(mut self, device: &str) -> FileBackend {
        self.spill_fallback = Some(device.to_string());
        self
    }

    fn device_idx(&self, device: &str) -> Result<usize, StorageError> {
        self.device_by_name
            .get(device)
            .copied()
            .ok_or_else(|| StorageError::UnknownDevice(device.to_string()))
    }

    /// Looks up a file's extent; a stale or foreign id is a typed error,
    /// not a panic (the trait returns `Result` — callers propagate).
    fn meta(&self, file: FileId) -> Result<&FileMeta, StorageError> {
        self.files
            .get(file.0)
            .ok_or(StorageError::UnknownFile(file.0))
    }

    /// Bounds-checks `[offset, offset + len)` against `file`'s extent and
    /// resolves it to a device position — once per request. An end past
    /// `u64::MAX` is out of bounds like any other (reported saturated, as
    /// the simulator does), never a wrapped pass.
    fn locate(&self, file: FileId, offset: u64, len: u64) -> Result<Located, StorageError> {
        let m = *self.meta(file)?;
        match offset.checked_add(len) {
            Some(end) if end <= m.len => Ok(Located {
                device: m.device,
                pos: m.offset + offset,
                extent_end: m.offset + m.len,
            }),
            end => Err(StorageError::OutOfBounds {
                file: file.0,
                end: end.unwrap_or(u64::MAX),
                len: m.len,
            }),
        }
    }

    /// One charged read request of `len` bytes at `offset` of `file`,
    /// moved in transfers of at most a [`CHUNK`] — into `buf`, or through
    /// the scratch buffer where the data is elided.
    fn read_request(
        &mut self,
        file: FileId,
        offset: u64,
        len: u64,
        mut buf: Option<&mut [u8]>,
    ) -> Result<(), StorageError> {
        let mut done = 0;
        while done < len {
            let n = (len - done).min(CHUNK as u64) as usize;
            let at = self.locate(file, offset + done, n as u64)?;
            match buf.as_deref_mut() {
                Some(buf) => self.read_device(at, &mut buf[done as usize..done as usize + n])?,
                None => {
                    if self.scratch.len() < n {
                        self.scratch.resize(n, 0);
                    }
                    let mut scratch = std::mem::take(&mut self.scratch);
                    let r = self.read_device(at, &mut scratch[..n]);
                    self.scratch = scratch;
                    r?;
                }
            }
            done += n as u64;
        }
        Ok(())
    }

    /// One charged read at a located position.
    #[inline]
    fn read_device(&mut self, at: Located, buf: &mut [u8]) -> Result<(), StorageError> {
        let d = &mut self.devices[at.device];
        if at.pos != d.position || buf.len() > d.ahead.len() {
            return self.read_pool(at, buf);
        }
        // The pointer bump: the bytes are already here, no pool lookup.
        d.serve_ahead(buf, buf.len() as u64, 1);
        Ok(())
    }

    /// A run of reads carrying their bytes within one file's extent, with
    /// `unit` from 1 B to a [`CHUNK`], so that each request is one
    /// [`read_device`](FileBackend::read_device): the requests the window
    /// holds are served together, and each one that finds it short takes
    /// the single-request path, as in the loop.
    fn read_device_run(
        &mut self,
        at: Located,
        unit: usize,
        buf: &mut [u8],
    ) -> Result<(), StorageError> {
        let mut done = 0;
        while done < buf.len() {
            let pos = at.pos + done as u64;
            let d = &mut self.devices[at.device];
            let held = if pos == d.position {
                (d.ahead.len() / unit * unit).min(buf.len() - done)
            } else {
                0
            };
            if held > 0 {
                let n = held / unit;
                d.serve_ahead(&mut buf[done..done + held], unit as u64, n as u64);
                done += held;
            } else {
                self.read_device(Located { pos, ..at }, &mut buf[done..done + unit])?;
                done += unit;
            }
        }
        Ok(())
    }

    /// [`read_device`](FileBackend::read_device) for a request the window
    /// does not hold: through the pool, timed, refilling the window when
    /// the request is a sequential sub-page one.
    fn read_pool(&mut self, at: Located, buf: &mut [u8]) -> Result<(), StorageError> {
        let Located {
            pos, extent_end, ..
        } = at;
        let d = &mut self.devices[at.device];
        let w0 = ocas_obs::wall_now();
        let t0 = Instant::now();
        let seek = pos != d.position;
        if seek {
            d.stats.seeks += 1;
        }
        if !seek && buf.len() < d.pool.page_bytes() {
            d.refill(pos, extent_end, buf)?;
        } else {
            d.drop_window();
            d.pool.read(pos, buf)?;
        }
        d.position = pos + buf.len() as u64;
        d.stats.bytes_read += buf.len() as u64;
        let dt = t0.elapsed().as_secs_f64();
        d.stats.busy_seconds += dt;
        d.obs_request("read", w0, dt, buf.len() as u64, seek);
        self.clock_seconds += dt;
        Ok(())
    }

    /// One charged write at device position `pos`.
    fn write_device(&mut self, d: usize, pos: u64, data: &[u8]) -> Result<(), StorageError> {
        let w0 = ocas_obs::wall_now();
        let t0 = Instant::now();
        let d = &mut self.devices[d];
        d.drop_window();
        let seek = pos != d.position;
        if seek {
            d.stats.seeks += 1;
        }
        d.pool.write(pos, data)?;
        d.position = pos + data.len() as u64;
        d.stats.bytes_written += data.len() as u64;
        let dt = t0.elapsed().as_secs_f64();
        d.stats.busy_seconds += dt;
        d.obs_request("write", w0, dt, data.len() as u64, seek);
        self.clock_seconds += dt;
        Ok(())
    }

    /// Uncharged read of real bytes — the harvest path for pulling results
    /// back out after a measured run (no clock, no counters, no seek).
    pub fn peek(&mut self, file: FileId, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        let at = self.locate(file, offset, buf.len() as u64)?;
        self.devices[at.device].pool.read(at.pos, buf)
    }

    /// Writes every pool's dirty pages back and syncs the files. In
    /// disk-bounded timing mode the write-back + fsync time is charged to
    /// the clock and the device (it *is* disk time); buffered mode leaves
    /// it uncharged, mirroring a page-cache-backed run.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        let charge = self.timing == TimingMode::DiskBounded;
        for d in &mut self.devices {
            let t0 = Instant::now();
            d.pool.flush()?;
            if charge {
                let dt = t0.elapsed().as_secs_f64();
                d.stats.busy_seconds += dt;
                self.clock_seconds += dt;
            }
        }
        Ok(())
    }

    /// The backend's timing mode.
    pub fn timing(&self) -> TimingMode {
        self.timing
    }

    /// True when at least one device pool runs on an `O_DIRECT` handle.
    pub fn any_direct(&self) -> bool {
        self.devices.iter().any(|d| d.pool.is_direct())
    }

    /// Aggregated buffer-pool statistics per device.
    pub fn pool_stats(&self) -> Vec<(String, PoolStats)> {
        self.devices
            .iter()
            .map(|d| (d.name.clone(), d.pool.stats()))
            .collect()
    }

    /// Per-device I/O statistics, in hierarchy order.
    pub fn all_device_stats(&self) -> Vec<(String, DeviceStats)> {
        self.devices
            .iter()
            .map(|d| (d.name.clone(), d.stats))
            .collect()
    }
}

impl Drop for FileBackend {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl StorageBackend for FileBackend {
    fn alloc(&mut self, device: &str, len: u64) -> Result<FileId, StorageError> {
        let d = self.device_idx(device)?;
        if self.allocated[d] + len > self.capacity[d] {
            return Err(StorageError::Full(device.to_string()));
        }
        let offset = self.allocated[d];
        self.allocated[d] += len;
        let id = FileId(self.files.len());
        self.files.push(FileMeta {
            device: d,
            offset,
            len,
        });
        Ok(id)
    }

    fn read(
        &mut self,
        file: FileId,
        offset: u64,
        unit: u64,
        count: u64,
        mut buf: Option<&mut [u8]>,
    ) -> Result<bool, StorageError> {
        let held = buf.is_some();
        if let Some(buf) = buf.as_deref_mut() {
            assert!(
                unit.checked_mul(count) == Some(buf.len() as u64),
                "a run of {count} x {unit} B carries {} B",
                buf.len()
            );
            // Served together where each request is one transfer and the
            // run stays in the file.
            let at = self.locate(file, offset, buf.len() as u64).ok();
            if let Some(at) = at.filter(|_| (1..=CHUNK as u64).contains(&unit)) {
                self.read_device_run(at, unit as usize, buf)?;
                return Ok(true);
            }
        }
        // Else the loop itself, which serves a run leaving the file up to
        // where it fails; with the data elided, the bytes are really
        // fetched (through the pool, off the file) and dropped.
        for j in 0..count {
            let from = (j * unit) as usize;
            let request = buf
                .as_deref_mut()
                .map(|b| &mut b[from..from + unit as usize]);
            self.read_request(file, offset + j * unit, unit, request)?;
        }
        Ok(held)
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
            assert!(
                unit.checked_mul(count) == Some(data.len() as u64),
                "a run of {count} x {unit} B carries {} B",
                data.len()
            );
        }
        for j in 0..count {
            let at = offset + j * unit;
            let Some(data) = data else {
                // Elided: move that many real filler bytes, in transfers
                // of at most a chunk.
                let mut done = 0;
                while done < unit {
                    let n = (unit - done).min(CHUNK as u64) as usize;
                    if self.scratch.len() < n {
                        self.scratch.resize(n, 0);
                    }
                    let l = self.locate(file, at + done, n as u64)?;
                    let scratch = std::mem::take(&mut self.scratch);
                    let r = self.write_device(l.device, l.pos, &scratch[..n]);
                    self.scratch = scratch;
                    r?;
                    done += n as u64;
                }
                continue;
            };
            // With the bytes, a request is one transfer however long.
            let l = self.locate(file, at, unit)?;
            let from = (j * unit) as usize;
            self.write_device(l.device, l.pos, &data[from..from + unit as usize])?;
        }
        Ok(())
    }

    fn materialize(&mut self, file: FileId, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        let at = self.locate(file, offset, data.len() as u64)?;
        // Through the pool (cache coherence) but uncharged and without
        // disturbing the sequential-position seek accounting.
        let d = &mut self.devices[at.device];
        d.drop_window();
        d.pool.write(at.pos, data)
    }

    fn charge_cpu(&mut self, _seconds: f64) {
        // Real backends measure wall time; modeled CPU would double-count.
    }

    fn charge_penalty(&mut self, seconds: f64) {
        // Fault-handling penalties (backoff, latency spikes) land on the
        // I/O-accounted clock even on the real backend — they model time
        // the device was unavailable, not CPU work.
        self.clock_seconds += seconds;
    }

    fn clock(&self) -> f64 {
        self.clock_seconds
    }

    fn obs_clock(&self) -> ocas_obs::Clock {
        ocas_obs::Clock::Wall
    }

    fn len(&self, file: FileId) -> u64 {
        self.files.get(file.0).map(|m| m.len).unwrap_or(0)
    }

    fn device_of(&self, file: FileId) -> &str {
        match self.files.get(file.0) {
            Some(m) => &self.devices[m.device].name,
            None => "?",
        }
    }

    fn device_stats(&self, device: &str) -> Option<DeviceStats> {
        self.device_by_name
            .get(device)
            .map(|d| self.devices[*d].stats)
    }

    fn truncate_device(&mut self, device: &str, mark: u64) -> Result<(), StorageError> {
        let d = self.device_idx(device)?;
        self.allocated[d] = self.allocated[d].min(mark);
        self.devices[d].drop_window();
        Ok(())
    }

    fn watermark(&self, device: &str) -> Option<u64> {
        self.device_by_name.get(device).map(|d| self.allocated[*d])
    }

    fn page_bytes(&self, device: &str) -> Result<u64, StorageError> {
        let d = self.device_idx(device)?;
        Ok(self.devices[d].pool.page_bytes() as u64)
    }

    fn recovery_counters(&self) -> Option<RecoveryCounters> {
        let mut c = self.recovery;
        for d in &self.devices {
            c.corrupt_pages_detected += d.pool.stats().checksum_failures;
        }
        (c != RecoveryCounters::default()).then_some(c)
    }

    fn note_degradation(&mut self, device: &str, what: &'static str) {
        self.recovery.note_degradation(what);
        if ocas_obs::enabled() {
            ocas_obs::counter(
                ocas_obs::Clock::Wall,
                &format!("degrade:{device}"),
                what,
                self.clock_seconds,
                1.0,
            );
        }
    }

    fn schedule_torn_write_back(&mut self, device: &str, at: u64) -> bool {
        match self.device_by_name.get(device) {
            Some(&d) => {
                self.devices[d].pool.schedule_torn(at);
                true
            }
            None => false,
        }
    }

    fn spill_fallback(&self) -> Option<&str> {
        self.spill_fallback.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocas_hierarchy::presets;
    use ocas_storage::{FaultKind, FaultOp, FaultPlan, Faulted, RetryPolicy};

    fn backend() -> FileBackend {
        let h = presets::hdd_ram(1 << 25);
        FileBackend::from_hierarchy(&h, PoolConfig::default()).unwrap()
    }

    #[test]
    fn bytes_round_trip_through_real_files() {
        let mut b = backend();
        let f = b.alloc("HDD", 4096).unwrap();
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 241) as u8).collect();
        b.write(f, 0, 4096, 1, Some(&data)).unwrap();
        b.flush().unwrap();
        // The bytes are really on disk (read only the prefix — the device
        // file is sparse up to the hierarchy capacity).
        use std::io::Read;
        let path = b.dir().join("HDD.dev");
        let mut on_disk = vec![0u8; 4096];
        std::fs::File::open(&path)
            .unwrap()
            .read_exact(&mut on_disk)
            .unwrap();
        assert_eq!(on_disk, data);
        let mut buf = vec![0u8; 4096];
        assert!(b.read(f, 0, 4096, 1, Some(&mut buf)).unwrap());
        assert_eq!(buf, data);
    }

    #[test]
    fn counters_mirror_device_stats() {
        let mut b = backend();
        let f = b.alloc("HDD", 1 << 16).unwrap();
        b.write(f, 0, 1 << 16, 1, None).unwrap();
        b.read(f, 0, 1 << 16, 1, None).unwrap();
        // Jump back: a second read from 0 is a seek.
        b.read(f, 0, 4096, 1, None).unwrap();
        let s = b.device_stats("HDD").unwrap();
        assert_eq!(s.bytes_written, 1 << 16);
        assert_eq!(s.bytes_read, (1 << 16) + 4096);
        assert!(s.seeks >= 2, "write→read jump and read→read jump: {s:?}");
        assert!(b.clock() > 0.0);
        assert!(s.busy_seconds > 0.0);
    }

    #[test]
    fn materialize_is_uncharged() {
        let mut b = backend();
        let f = b.alloc("HDD", 1024).unwrap();
        b.materialize(f, 0, &[5u8; 1024]).unwrap();
        assert_eq!(b.clock(), 0.0);
        let s = b.device_stats("HDD").unwrap();
        assert_eq!((s.bytes_read, s.bytes_written), (0, 0));
        let mut buf = [0u8; 16];
        b.read(f, 100, 16, 1, Some(&mut buf)).unwrap();
        assert_eq!(buf, [5u8; 16]);
    }

    #[test]
    fn alloc_bounds_and_capacity() {
        let mut b = backend();
        let f = b.alloc("HDD", 100).unwrap();
        assert!(matches!(
            b.read(f, 64, 100, 1, None),
            Err(StorageError::OutOfBounds { .. })
        ));
        assert!(matches!(
            b.alloc("nope", 1),
            Err(StorageError::UnknownDevice(_))
        ));
        assert!(matches!(
            b.alloc("RAM", 1 << 40),
            Err(StorageError::Full(_))
        ));
        // truncate_device reuses scratch space.
        let mark = StorageBackend::watermark(&b, "HDD").unwrap();
        b.alloc("HDD", 1 << 20).unwrap();
        b.truncate_device("HDD", mark).unwrap();
        assert_eq!(StorageBackend::watermark(&b, "HDD"), Some(mark));
    }

    #[test]
    fn unknown_file_is_typed_not_panic() {
        let mut b = backend();
        let stale = ocas_storage::FileId(999);
        assert!(matches!(
            b.read(stale, 0, 8, 1, Some(&mut [0u8; 8])),
            Err(StorageError::UnknownFile(999))
        ));
        assert!(matches!(
            b.write(stale, 0, 8, 1, Some(&[0u8; 8])),
            Err(StorageError::UnknownFile(999))
        ));
        assert_eq!(StorageBackend::len(&b, stale), 0);
        assert_eq!(b.device_of(stale), "?");
    }

    /// `backend()` under `plan`, through the one fault injector.
    fn faulted(plan: FaultPlan, cfg: PoolConfig) -> Faulted<FileBackend> {
        let h = presets::hdd_ram(1 << 25);
        let fb = FileBackend::from_hierarchy(&h, cfg).unwrap();
        Faulted::new(fb, plan, RetryPolicy::default())
    }

    #[test]
    fn injected_transient_retries_on_real_files() {
        let plan = FaultPlan::new().with("HDD", FaultOp::Write, 1, FaultKind::Transient);
        let mut b = faulted(plan, PoolConfig::default());
        let f = b.alloc("HDD", 4096).unwrap();
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 13) as u8).collect();
        // alloc = HDD request 0; this write fires the fault, retries, and
        // the data still lands intact.
        b.write(f, 0, 4096, 1, Some(&data)).unwrap();
        let mut buf = vec![0u8; 4096];
        assert!(b.read(f, 0, 4096, 1, Some(&mut buf)).unwrap());
        assert_eq!(buf, data);
        let c = b.recovery_counters().unwrap();
        assert_eq!(c.transient_faults, 1);
        assert_eq!(c.retry_successes, 1);
        // Backoff was charged to the wall-accounted clock.
        assert!(b.clock() >= 0.001);
    }

    #[test]
    fn injected_no_space_is_typed_and_leaves_capacity() {
        let plan = FaultPlan::new().with("HDD", FaultOp::Alloc, 1, FaultKind::NoSpace);
        let mut b = faulted(plan, PoolConfig::default());
        b.alloc("HDD", 1024).unwrap();
        let before = StorageBackend::watermark(&b, "HDD").unwrap();
        let err = b.alloc("HDD", 2048).unwrap_err();
        assert!(
            matches!(err, StorageError::NoSpace { ref device, requested }
                if device == "HDD" && requested == 2048)
        );
        assert_eq!(StorageBackend::watermark(&b, "HDD"), Some(before));
        // The next (degraded) attempt consumes a later index and works.
        b.alloc("HDD", 2048).unwrap();
    }

    #[test]
    fn injected_torn_write_back_detected_end_to_end() {
        // Small pool so the torn page is evicted and must be re-read.
        let cfg = PoolConfig {
            frames: 2,
            ..PoolConfig::default()
        };
        let plan = FaultPlan::new().with("HDD", FaultOp::Write, 1, FaultKind::TornWriteBack);
        let mut b = faulted(plan, cfg);
        let page = 4096u64;
        let f = b.alloc("HDD", 8 * page).unwrap();
        let mut data = vec![0x11u8; page as usize];
        data[page as usize / 2..].fill(0x22);
        // Request 1 schedules the tear; the write itself succeeds.
        b.write(f, 0, page, 1, Some(&data)).unwrap();
        // Push the page out through a 2-frame pool and pull it back in.
        for i in 1..6u64 {
            b.write(f, i * page, page, 1, Some(&data)).unwrap();
        }
        let mut buf = vec![0u8; page as usize];
        let got = (0..8u64)
            .map(|i| b.read(f, i * page, page, 1, Some(&mut buf)))
            .find(|r| r.is_err());
        let err = got
            .expect("torn page must surface on some re-read")
            .unwrap_err();
        assert!(
            matches!(err, StorageError::CorruptPage { ref device, .. } if device == "HDD"),
            "{err:?}"
        );
        let c = b.recovery_counters().unwrap();
        assert_eq!(c.torn_write_backs, 1);
        assert!(c.corrupt_pages_detected >= 1);
    }

    /// The file backend records a degradation itself (a genuine `Full`
    /// degrades too), and `Faulted` merges the inner counters into its own:
    /// under the wrapper, one degradation is still one count and one
    /// `degrade:` event.
    #[test]
    fn a_degradation_under_the_injector_is_counted_and_traced_once() {
        let mut plain = backend();
        plain.note_degradation("HDD", "shrink");
        assert_eq!(plain.recovery_counters().unwrap().degraded_shrinks, 1);

        let mut b = faulted(FaultPlan::new(), PoolConfig::default());
        ocas_obs::start();
        b.note_degradation("HDD", "shrink");
        b.note_degradation("HDD", "failover");
        let trace = ocas_obs::finish().expect("recorder was active");
        let c = b.recovery_counters().unwrap();
        assert_eq!((c.degraded_shrinks, c.degraded_failovers), (1, 1));
        let events = trace.metrics().counters;
        assert_eq!(events.get("degrade:HDD/shrink"), Some(&1.0));
        assert_eq!(events.get("degrade:HDD/failover"), Some(&1.0));
    }

    #[test]
    fn temp_dir_removed_on_drop() {
        let dir;
        {
            let b = backend();
            dir = b.dir().to_path_buf();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "temp dir {dir:?} should be cleaned up");
    }
}
