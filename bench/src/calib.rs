//! The device directory and the hardware yardstick measured in it.

use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The directory every device file of this process lives in, removed when
/// the value drops (also on a panic's unwind).
pub struct DeviceDir {
    pub path: PathBuf,
    /// `tmpfs` or `checkout`; printed with the results.
    pub fs: &'static str,
}

impl DeviceDir {
    /// `/dev/shm` when it is a writable tmpfs: on a disk every rep's
    /// `FileBackend::flush` fsyncs ~100 MB and the timing is the VM disk's,
    /// not the software path's (sort window on this box: 0.89-0.97 s on
    /// tmpfs, 1.2-2.5 s on disk, medians of three). Otherwise a directory
    /// next to the build output, inside the checkout.
    ///
    /// Exports the choice as `TMPDIR`, which `FileBackend::from_hierarchy`
    /// honours; call before any thread starts.
    pub fn create(fallback_parent: &Path) -> std::io::Result<DeviceDir> {
        let leaf = format!("ocas-perf-{}", std::process::id());
        let shm_is_tmpfs = fs::read_to_string("/proc/mounts")
            .map(|m| {
                m.lines().any(|l| {
                    let mut f = l.split_whitespace();
                    f.nth(1) == Some("/dev/shm") && f.next() == Some("tmpfs")
                })
            })
            .unwrap_or(false);
        let shm = Path::new("/dev/shm").join(&leaf);
        let dir = if shm_is_tmpfs && fs::create_dir(&shm).is_ok() {
            DeviceDir {
                path: shm,
                fs: "tmpfs",
            }
        } else {
            let path = fallback_parent.join("ocas-perf-work").join(&leaf);
            fs::create_dir_all(&path)?;
            DeviceDir {
                path,
                fs: "checkout",
            }
        };
        std::env::set_var("TMPDIR", &dir.path);
        Ok(dir)
    }
}

impl Drop for DeviceDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

pub struct Calibration {
    pub memcpy_mb_s: f64,
    pub file_write_mb_s: f64,
    pub file_read_mb_s: f64,
}

const CALIB_BYTES: usize = 64 << 20;
const CHUNK: usize = 1 << 20;

/// Best of three passes of each: the yardstick is what the box can do, so
/// interference only ever lowers it.
pub fn calibrate(dir: &Path) -> std::io::Result<Calibration> {
    let mb = CALIB_BYTES as f64 / 1e6;
    let src = vec![0x5au8; CALIB_BYTES];
    let mut dst = vec![0u8; CALIB_BYTES];
    let mut best = [f64::INFINITY; 3];
    let path = dir.join("calib.bin");
    for _ in 0..3 {
        let t0 = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best[0] = best[0].min(t0.elapsed().as_secs_f64());

        let mut f = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let t0 = Instant::now();
        for chunk in src.chunks(CHUNK) {
            f.write_all(chunk)?;
        }
        f.sync_data()?;
        best[1] = best[1].min(t0.elapsed().as_secs_f64());

        f.seek(SeekFrom::Start(0))?;
        let t0 = Instant::now();
        for chunk in dst.chunks_mut(CHUNK) {
            f.read_exact(chunk)?;
        }
        best[2] = best[2].min(t0.elapsed().as_secs_f64());
    }
    fs::remove_file(&path)?;
    Ok(Calibration {
        memcpy_mb_s: mb / best[0],
        file_write_mb_s: mb / best[1],
        file_read_mb_s: mb / best[2],
    })
}

/// The soft limit on the size of a file this process may write
/// (`RLIMIT_FSIZE`), `None` when unlimited. Past it a write or `ftruncate`
/// is answered with SIGXFSZ, which says nothing about why.
pub fn file_size_limit() -> Option<u64> {
    let limits = fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits
        .lines()
        .find_map(|l| l.strip_prefix("Max file size"))?;
    line.split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
