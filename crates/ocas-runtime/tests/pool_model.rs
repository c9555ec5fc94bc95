//! Model-based check of [`BufferPool`]: the pool serves runs of absent
//! pages with one read, overwrites whole pages without fetching them and
//! reuses its buffers — and must be indistinguishable, op for op, from the
//! page-at-a-time pool it replaced. [`RefPool`] *is* that pool (one
//! `seek` + `read` and one fresh buffer per miss, every page fetched before
//! it is touched), kept here as the oracle: same returned bytes, same six
//! [`PoolStats`] counters after every operation, same typed error at the
//! same operation, same file bytes after a flush. Its eviction order is
//! its own least-recently-used scan, so a pool that evicts in any other
//! order shows up as a different hit or miss.

use ocas_runtime::{BufferPool, PolicyKind, PoolStats};
use ocas_storage::StorageError;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

const PAGE: usize = 64;

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

/// The reference's page checksum (byte-serial FNV-1a). Only its own pool
/// ever sees the values, so it need not agree with the pool's.
fn ref_checksum(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct RefFrame {
    page: u64,
    data: Vec<u8>,
    dirty: bool,
    /// The tick of the frame's last admission or hit.
    last_use: u64,
}

/// The page-at-a-time buffer pool, as it was before run reads.
struct RefPool {
    file: File,
    capacity: usize,
    frames: Vec<RefFrame>,
    table: BTreeMap<u64, usize>,
    /// Counts admissions and hits; every one gets a tick of its own.
    tick: u64,
    stats: PoolStats,
    label: String,
    checksums: BTreeMap<u64, u64>,
    torn: BTreeSet<u64>,
}

impl RefPool {
    fn new(file: File, capacity: usize, label: &str) -> RefPool {
        RefPool {
            file,
            capacity,
            frames: Vec::new(),
            table: BTreeMap::new(),
            tick: 0,
            stats: PoolStats::default(),
            label: label.to_string(),
            checksums: BTreeMap::new(),
            torn: BTreeSet::new(),
        }
    }

    fn load_page(&mut self, page: u64) -> Result<usize, StorageError> {
        if let Some(&f) = self.table.get(&page) {
            self.stats.hits += 1;
            self.tick += 1;
            self.frames[f].last_use = self.tick;
            return Ok(f);
        }
        self.stats.misses += 1;
        let mut data = vec![0u8; PAGE];
        self.file
            .seek(SeekFrom::Start(page * PAGE as u64))
            .map_err(io_err)?;
        let mut filled = 0;
        while filled < data.len() {
            match self.file.read(&mut data[filled..]).map_err(io_err)? {
                0 => break,
                n => filled += n,
            }
        }
        if let Some(&want) = self.checksums.get(&page) {
            if ref_checksum(&data) != want {
                self.stats.checksum_failures += 1;
                return Err(StorageError::CorruptPage {
                    device: self.label.clone(),
                    page,
                });
            }
        }
        self.tick += 1;
        let fresh = RefFrame {
            page,
            data,
            dirty: false,
            last_use: self.tick,
        };
        let frame = if self.frames.len() < self.capacity {
            self.frames.push(fresh);
            self.frames.len() - 1
        } else {
            // Least recently used: the frame with the oldest tick.
            let victim = (0..self.frames.len())
                .min_by_key(|&f| self.frames[f].last_use)
                .expect("a full pool has a frame");
            self.stats.evictions += 1;
            self.write_back(victim)?;
            self.table.remove(&self.frames[victim].page);
            self.frames[victim] = fresh;
            victim
        };
        self.table.insert(page, frame);
        Ok(frame)
    }

    fn write_back(&mut self, frame: usize) -> Result<(), StorageError> {
        if !self.frames[frame].dirty {
            return Ok(());
        }
        let page = self.frames[frame].page;
        self.checksums
            .insert(page, ref_checksum(&self.frames[frame].data));
        let take = if self.torn.remove(&self.stats.write_backs) {
            self.stats.torn_injected += 1;
            PAGE / 2
        } else {
            PAGE
        };
        self.file
            .seek(SeekFrom::Start(page * PAGE as u64))
            .map_err(io_err)?;
        self.file
            .write_all(&self.frames[frame].data[..take])
            .map_err(io_err)?;
        self.frames[frame].dirty = false;
        self.stats.write_backs += 1;
        Ok(())
    }

    fn schedule_torn(&mut self, at: u64) {
        self.torn.insert(self.stats.write_backs + at);
    }

    fn read(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        let mut done = 0usize;
        while done < buf.len() {
            let pos = offset + done as u64;
            let within = (pos % PAGE as u64) as usize;
            let take = (buf.len() - done).min(PAGE - within);
            let f = self.load_page(pos / PAGE as u64)?;
            buf[done..done + take].copy_from_slice(&self.frames[f].data[within..within + take]);
            done += take;
        }
        Ok(())
    }

    fn write(&mut self, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let within = (pos % PAGE as u64) as usize;
            let take = (data.len() - done).min(PAGE - within);
            let f = self.load_page(pos / PAGE as u64)?;
            self.frames[f].data[within..within + take].copy_from_slice(&data[done..done + take]);
            self.frames[f].dirty = true;
            done += take;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        for f in 0..self.frames.len() {
            self.write_back(f)?;
        }
        self.file.sync_data().map_err(io_err)
    }
}

/// Both pools over twin files in a directory of their own, removed on drop.
struct Twins {
    dir: PathBuf,
    pool: BufferPool,
    reference: RefPool,
}

impl Twins {
    /// `file_pages` pages of identical non-zero bytes under both pools; the
    /// ops address more than that, so some reads run past EOF.
    fn new(tag: &str, frames: usize, file_pages: usize) -> Twins {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "ocas-pool-model-{}-{tag}-{seq}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let initial: Vec<u8> = (0..file_pages * PAGE)
            .map(|i| (i % 239) as u8 + 1)
            .collect();
        let open = |name: &str| {
            let mut f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(dir.join(name))
                .unwrap();
            f.write_all(&initial).unwrap();
            f
        };
        let pool =
            BufferPool::new(open("pool.bin"), PAGE, frames, PolicyKind::Lru).with_label("DEV");
        let reference = RefPool::new(open("ref.bin"), frames, "DEV");
        Twins {
            dir,
            pool,
            reference,
        }
    }

    fn files(&self) -> (Vec<u8>, Vec<u8>) {
        (
            std::fs::read(self.dir.join("pool.bin")).unwrap(),
            std::fs::read(self.dir.join("ref.bin")).unwrap(),
        )
    }

    fn assert_same_stats(&self, what: &str) {
        assert_eq!(
            self.pool.stats(),
            self.reference.stats,
            "stats after {what}"
        );
    }

    fn read(&mut self, offset: u64, len: usize, what: &str) -> Result<Vec<u8>, String> {
        let (mut got, mut want) = (vec![0xEEu8; len], vec![0xDDu8; len]);
        let r = self.pool.read(offset, &mut got).map_err(|e| e.to_string());
        let w = self
            .reference
            .read(offset, &mut want)
            .map_err(|e| e.to_string());
        assert_eq!(r, w, "outcome of {what}");
        if r.is_ok() {
            assert_eq!(got, want, "bytes of {what}");
        }
        self.assert_same_stats(what);
        r.map(|()| got)
    }

    fn write(&mut self, offset: u64, data: &[u8], what: &str) -> Result<(), String> {
        let r = self.pool.write(offset, data).map_err(|e| e.to_string());
        let w = self
            .reference
            .write(offset, data)
            .map_err(|e| e.to_string());
        assert_eq!(r, w, "outcome of {what}");
        self.assert_same_stats(what);
        r
    }

    fn schedule_torn(&mut self, at: u64) {
        self.pool.schedule_torn(at);
        self.reference.schedule_torn(at);
    }

    fn flush(&mut self, what: &str) {
        self.pool.flush().unwrap();
        self.reference.flush().unwrap();
        self.assert_same_stats(what);
        let (got, want) = self.files();
        assert_eq!(got, want, "file bytes after {what}");
    }
}

impl Drop for Twins {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Request lengths below, equal to, above and not dividing the page, whole
/// multiples of it, and long enough to span a mix of resident, dirty and
/// absent pages.
fn length(kind: u64, draw: u64) -> usize {
    let page = PAGE as u64;
    (match kind % 6 {
        0 => 1 + draw % 8,
        1 => 1 + draw % (page - 1),
        2 => page,
        3 => page + 1 + draw % (2 * page),
        4 => (2 + draw % 5) * page,
        _ => 6 * page + draw % (5 * page),
    }) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    #[test]
    fn pool_equals_the_page_at_a_time_reference(
        (frames_kind, align_bias) in (0usize..6, 0u64..4),
        ops in proptest::collection::vec((0u32..13, 0u64..1 << 20, 0u64..1 << 20, 0u64..251), 1..90),
    ) {
        // 1-4 frames over a dozen pages, or 256 frames over 600: both under
        // eviction pressure, the large pool only after it has filled.
        let (frames, span_pages) = match frames_kind {
            k @ 0..=3 => (k + 1, 12usize),
            _ => (256, 600),
        };
        let mut t = Twins::new("prop", frames, span_pages * 2 / 3);
        let span = (span_pages * PAGE) as u64;
        for (n, (kind, at, len_draw, fill)) in ops.into_iter().enumerate() {
            let len = length(len_draw, len_draw / 6);
            let mut offset = at % span;
            if at % 4 < align_bias {
                offset -= offset % PAGE as u64;
            }
            let what = format!("op {n}: kind {kind} at {offset} len {len} ({frames} frames)");
            match kind {
                0..=5 => {
                    let _ = t.read(offset, len, &what);
                }
                6..=10 => {
                    let data: Vec<u8> = (0..len).map(|i| (fill as usize + i * 7) as u8).collect();
                    let _ = t.write(offset, &data, &what);
                }
                11 => t.schedule_torn(fill % 4),
                _ => t.flush(&what),
            }
        }
        // Nothing is left unflushed differently: flush, and the files agree
        // byte for byte.
        t.flush("the final flush");
    }
}

/// A long sequential stream through the 256-frame pool: whole-page
/// overwrites of never-written pages, then one run per request on the way
/// back — the spill-stream shape, against the reference.
#[test]
fn sequential_stream_through_a_full_size_pool_matches_the_reference() {
    let mut t = Twins::new("stream", 256, 0);
    let chunk = 16 * PAGE;
    for i in 0..64u64 {
        let data: Vec<u8> = (0..chunk).map(|b| (b as u64 * 31 + i) as u8).collect();
        t.write(i * chunk as u64, &data, "stream write").unwrap();
    }
    t.flush("stream flush");
    for i in 0..64u64 {
        let got = t.read(i * chunk as u64, chunk, "stream read").unwrap();
        assert_eq!(got[5], (5 * 31 + i) as u8);
    }
    let s = t.pool.stats();
    assert_eq!((s.hits, s.misses), (0, 2 * 64 * 16));
}

/// A request whose first run, while being admitted, evicts a *dirty* page
/// that lies later in the same request: by the time the request reaches
/// that page it is absent, and what the caller gets must be the written
/// bytes, re-read from the file after the write-back — not the file's
/// content from before it, and not a frame that no longer holds the page.
#[test]
fn a_dirty_page_evicted_by_its_own_request_is_re_read_not_served_stale() {
    let mut t = Twins::new("stale", 2, 8);
    let fresh = [0xC3u8; PAGE];
    // Frames: page 3 (dirty, the older one) and page 5.
    t.write(3 * PAGE as u64, &fresh, "dirtying page 3").unwrap();
    t.read(5 * PAGE as u64, PAGE, "loading page 5").unwrap();
    let before = t.pool.stats();
    // Pages 0..=3: the run 0-2 stops at resident page 3; admitting
    // page 0 evicts page 3 (write-back), so page 3 forms a second run.
    let got = t.read(0, 4 * PAGE, "the spanning read").unwrap();
    assert_eq!(&got[3 * PAGE..], &fresh[..], "page 3 served stale");
    let after = t.pool.stats();
    assert_eq!(after.misses - before.misses, 4);
    assert_eq!(after.hits, before.hits, "page 3 was gone by then");
    assert_eq!(after.write_backs - before.write_backs, 1);
    t.flush("the flush");
}

/// A torn write-back surfaces as the same `CorruptPage` at the same
/// operation whether the reload is a single page, the middle of a run, a
/// partial write or a whole-page overwrite — and the pages of the run
/// before it are admitted, as the reference admits them.
#[test]
fn a_torn_page_fails_the_same_operation_in_every_access_shape() {
    for shape in 0..4 {
        let mut t = Twins::new("torn", 2, 8);
        let mut content = [0x11u8; PAGE];
        content[PAGE / 2..].fill(0x22);
        t.write(2 * PAGE as u64, &content, "dirtying page 2")
            .unwrap();
        t.schedule_torn(0);
        t.read(6 * PAGE as u64, 2 * PAGE, "pushing page 2 out")
            .unwrap();
        let what = format!("the access of shape {shape}");
        let err = match shape {
            0 => t.read(2 * PAGE as u64 + 3, 5, &what).map(|_| ()),
            1 => t.read(0, 4 * PAGE, &what).map(|_| ()),
            2 => t.write(2 * PAGE as u64 + 8, &[9u8; 8], &what),
            _ => t.write(2 * PAGE as u64, &[9u8; PAGE], &what),
        }
        .unwrap_err();
        assert!(err.contains("page 2"), "{err}");
        assert_eq!(t.pool.stats().checksum_failures, 1);
    }
}
