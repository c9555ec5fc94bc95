//! The buffer pool's sequential throughput as a fraction of what plain
//! `std::fs` positional I/O moves on the same file in the same test — the
//! first gate "normalised by an in-run calibration kernel" (ROADMAP aim 1):
//! a ratio, not seconds, so the runner's speed cancels.
//!
//! 16 MiB are written and then read back through a 256-frame x 4 KiB pool
//! in 64 KiB requests (the spill-stream shape: every page touched once,
//! thrashing the pool), best of five passes each, against best-of-five
//! plain `write_all_at` + `sync_data` / `read_at` passes in 1 MiB requests.
//! With byte-serial page checksums and a seek, a read and an allocation per
//! page the pool sat at about 0.13 of the file system; it must stay at or
//! above [`MIN_FRACTION`].
//!
//! The file lives under `TMPDIR` when that is set, else on `/dev/shm` when
//! it can (the benchmark's choice, for the benchmark's reason: on a tmpfs
//! the ratio gates the software path; on a disk the write side mostly
//! compares two `fsync`s), else in the system temp directory.
//!
//! The ratio is only asserted in optimised builds; a debug build still
//! runs the passes and checks every byte.

use ocas_runtime::{BufferPool, PolicyKind};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::Instant;

const BYTES: usize = 16 << 20;
const POOL_REQUEST: usize = 64 << 10;
const PLAIN_REQUEST: usize = 1 << 20;
const PASSES: usize = 5;
#[cfg(not(debug_assertions))]
const MIN_FRACTION: f64 = 0.25;

fn scratch_dir() -> PathBuf {
    let leaf = format!("ocas-pool-bandwidth-{}", std::process::id());
    if std::env::var_os("TMPDIR").is_none() {
        let shm = Path::new("/dev/shm").join(&leaf);
        if std::fs::create_dir(&shm).is_ok() {
            return shm;
        }
    }
    let dir = std::env::temp_dir().join(leaf);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open(path: &Path) -> File {
    std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
        .unwrap()
}

#[test]
fn sequential_pool_throughput_is_a_fair_fraction_of_the_file_systems() {
    let dir = scratch_dir();
    let path = dir.join("stream.bin");
    let data: Vec<u8> = (0..BYTES)
        .map(|i| (i as u32).wrapping_mul(2_654_435_761).to_le_bytes()[2])
        .collect();
    let mut back = vec![0u8; BYTES];
    // Best seconds of: plain write, plain read, pool write, pool read.
    let mut best = [f64::INFINITY; 4];

    for _ in 0..PASSES {
        let file = open(&path);
        let t0 = Instant::now();
        for (i, chunk) in data.chunks(PLAIN_REQUEST).enumerate() {
            file.write_all_at(chunk, (i * PLAIN_REQUEST) as u64)
                .unwrap();
        }
        file.sync_data().unwrap();
        best[0] = best[0].min(t0.elapsed().as_secs_f64());

        back.fill(0);
        let t0 = Instant::now();
        for (i, chunk) in back.chunks_mut(PLAIN_REQUEST).enumerate() {
            file.read_exact_at(chunk, (i * PLAIN_REQUEST) as u64)
                .unwrap();
        }
        best[1] = best[1].min(t0.elapsed().as_secs_f64());
        assert!(back == data, "plain read-back");
        drop(file);

        let file = open(&path);
        file.set_len(BYTES as u64).unwrap();
        let mut pool = BufferPool::new(file, 4096, 256, PolicyKind::Lru);
        let t0 = Instant::now();
        for (i, chunk) in data.chunks(POOL_REQUEST).enumerate() {
            pool.write((i * POOL_REQUEST) as u64, chunk).unwrap();
        }
        pool.flush().unwrap();
        best[2] = best[2].min(t0.elapsed().as_secs_f64());
        assert!(
            std::fs::read(&path).unwrap() == data,
            "bytes on disk after the flush"
        );

        back.fill(0);
        let t0 = Instant::now();
        for (i, chunk) in back.chunks_mut(POOL_REQUEST).enumerate() {
            pool.read((i * POOL_REQUEST) as u64, chunk).unwrap();
        }
        best[3] = best[3].min(t0.elapsed().as_secs_f64());
        assert!(back == data, "pool read-back");
        // Written once, read once, in the same order: LRU never has the
        // page it is asked for.
        let pages = (BYTES / 4096) as u64;
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (0, 2 * pages));
        assert_eq!((s.write_backs, s.checksum_failures), (pages, 0));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let [plain_write, plain_read, pool_write, pool_read] = best.map(|s| BYTES as f64 / 1e6 / s);
    println!(
        "MB/s in {dir:?}, best of {PASSES}: write {pool_write:.0} pool / {plain_write:.0} plain = {:.2}; \
         read {pool_read:.0} pool / {plain_read:.0} plain = {:.2}",
        pool_write / plain_write,
        pool_read / plain_read
    );
    #[cfg(not(debug_assertions))]
    {
        assert!(
            pool_write >= MIN_FRACTION * plain_write,
            "pool writes {pool_write:.0} MB/s, under {MIN_FRACTION} of the file system's {plain_write:.0}"
        );
        assert!(
            pool_read >= MIN_FRACTION * plain_read,
            "pool reads {pool_read:.0} MB/s, under {MIN_FRACTION} of the file system's {plain_read:.0}"
        );
    }
}
