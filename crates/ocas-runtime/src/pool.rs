//! A page-granular buffer pool over one backing file.
//!
//! Every read and write the [`FileBackend`](crate::FileBackend) issues goes
//! through a pool: fixed-size page frames cached in memory, the least
//! recently used frame evicted to make room, and dirty pages written back
//! lazily (on eviction or [`BufferPool::flush`]). This is the real-I/O
//! counterpart of the storage simulator's free RAM level: the pool is the
//! "memory" of the hierarchy, the backing file is the device.
//!
//! # What a page costs
//!
//! The pool's *decisions* are page-at-a-time — every page of a request is
//! looked up, counted as a hit or a miss, admitted, and may evict a victim,
//! one by one and in request order — but its *file I/O* is not:
//!
//! * **Run reads.** [`BufferPool::read`] serves each maximal run of whole,
//!   non-resident pages inside a request with one positional read straight
//!   into the caller's buffer, then verifies and admits the run's pages in
//!   order (copying each into its frame). A resident page ends the run and
//!   is served from its frame — it may be dirty, and the frame, not the
//!   file, holds its bytes. Runs are formed lazily, after the previous
//!   run's admissions: a dirty page those admissions evict is absent by
//!   the time the request reaches it and is re-read from the file, after
//!   its write-back.
//! * **No-fetch overwrites.** A [`BufferPool::write`] covering a whole
//!   non-resident page that has no recorded checksum claims a frame without
//!   reading the file: every byte the read would fetch is about to be
//!   replaced, and there is nothing to verify it against. A page *with* a
//!   recorded checksum is still fetched and verified first, so an overwrite
//!   never masks a torn write-back.
//! * **No per-page allocation, seek or scan.** Page I/O is positional
//!   (`read_at`/`write_all_at`), a miss reads into a spare buffer that is
//!   swapped with the victim's, and the frames are kept in stamp order, so
//!   a victim is the head of a list.
//!
//! None of this is visible in [`PoolStats`] or in the order of evictions
//! and write-backs: a whole page served by a run or claimed by an
//! overwrite is still one miss and one admission at the same point of the
//! request as when it was fetched on its own. What is *not* admitted is
//! unchanged too — a page that fails its checksum. `O_DIRECT` pools keep
//! the page-at-a-time fetch through the aligned staging buffer (the
//! caller's buffer carries no alignment).

use ocas_storage::StorageError;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::os::unix::fs::FileExt;

/// The per-page write-back checksum: four independent 64-bit
/// multiply-rotate lanes over 32-byte blocks, the lanes folded in order,
/// then the byte tail, then a final avalanche.
///
/// Every step is a bijection of the running state for a fixed input word
/// and of the input word for a fixed state, so any change confined to one
/// word — every single-bit flip — changes the result; a half-page tear or
/// a 512-aligned truncation goes undetected only with hash-collision
/// probability (2⁻⁶⁴).
///
/// Cost budget: **at most 0.5 µs per 4 KiB page** (four lanes retire 32
/// bytes per multiply latency, about 0.15-0.2 µs a page). The checksum runs
/// on every write-back and every verified reload, so it has to stay well
/// under the ~1 µs `pread` it guards. The byte-serial FNV-1a it replaces
/// carried a xor-multiply dependency per *byte* — 4-5 µs a page, more than
/// the transfer itself.
fn page_checksum(data: &[u8]) -> u64 {
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(MUL).rotate_left(27);
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte word"));
    let mut lanes: [u64; 4] = [
        0xcbf2_9ce4_8422_2325 ^ data.len() as u64,
        0x8422_2325_cbf2_9ce4,
        0x2545_f491_4f6c_dd1d,
        0xd6e8_feb8_6659_fd93,
    ];
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        lanes[0] = step(lanes[0], word(&block[0..8]));
        lanes[1] = step(lanes[1], word(&block[8..16]));
        lanes[2] = step(lanes[2], word(&block[16..24]));
        lanes[3] = step(lanes[3], word(&block[24..32]));
    }
    let mut h = lanes[0];
    for lane in &lanes[1..] {
        h = step(h, *lane);
    }
    for &b in blocks.remainder() {
        h = step(h, b as u64);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(MUL);
    h ^ (h >> 29)
}

/// Cumulative pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page accesses served from a resident frame.
    pub hits: u64,
    /// Page accesses that had to load the page from the file.
    pub misses: u64,
    /// Frames reclaimed to make room.
    pub evictions: u64,
    /// Dirty pages written back to the file.
    pub write_backs: u64,
    /// Write-backs deliberately torn by fault injection (half the page
    /// persisted, full-intent checksum recorded).
    pub torn_injected: u64,
    /// Checksum mismatches detected when re-loading a page from the file.
    pub checksum_failures: u64,
}

/// Frames ordered by logical timestamp, as an index: a doubly linked list
/// threaded through one array of neighbour pairs, oldest stamp at the head.
/// A frame gets the newest stamp by moving to the tail; the victim is the
/// head — the frame a scan for the smallest stamp would find, without a
/// pass over every frame per eviction.
#[derive(Debug, Default)]
struct StampOrder {
    /// The `(older, newer)` neighbours of each stamped frame.
    links: Vec<Option<Neighbours>>,
    oldest: Option<usize>,
    newest: Option<usize>,
}

type Neighbours = (Option<usize>, Option<usize>);

impl StampOrder {
    fn neighbours(&mut self, frame: usize) -> &mut Neighbours {
        self.links[frame].as_mut().expect("a neighbour is stamped")
    }

    /// Gives `frame` the newest stamp (dropping the one it had).
    fn stamp(&mut self, frame: usize) {
        self.clear(frame);
        if frame >= self.links.len() {
            self.links.resize(frame + 1, None);
        }
        self.links[frame] = Some((self.newest, None));
        match self.newest {
            Some(prev) => self.neighbours(prev).1 = Some(frame),
            None => self.oldest = Some(frame),
        }
        self.newest = Some(frame);
    }

    /// Takes `frame`'s stamp away, if it has one.
    fn clear(&mut self, frame: usize) {
        let Some((older, newer)) = self.links.get_mut(frame).and_then(Option::take) else {
            return;
        };
        match older {
            Some(prev) => self.neighbours(prev).1 = newer,
            None => self.oldest = newer,
        }
        match newer {
            Some(next) => self.neighbours(next).0 = older,
            None => self.newest = older,
        }
    }

    /// The frame with the oldest stamp.
    fn oldest(&self) -> usize {
        self.oldest.expect("a full pool has a stamped frame")
    }
}

/// The pool's eviction policy. Least recently used is the only one; the
/// enum stays only so [`BufferPool::new`] keeps the signature the benchmark
/// crate (`bench/`) still calls it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// Least recently used.
    #[default]
    Lru,
}

#[derive(Debug)]
struct Frame {
    page: u64,
    data: Vec<u8>,
    dirty: bool,
}

/// The pool: `frames` page-sized buffers fronting one backing file.
pub struct BufferPool {
    file: File,
    page_bytes: usize,
    capacity: usize,
    frames: Vec<Frame>,
    /// page number → frame index.
    table: BTreeMap<u64, usize>,
    /// Least-recently-used order: a frame is stamped when admitted and
    /// on every hit, and the oldest stamp is the victim.
    order: StampOrder,
    stats: PoolStats,
    /// The buffer a single-page miss fetches into before anything is
    /// evicted; swapped with the claimed frame's, so a miss allocates
    /// nothing once the pool is full.
    spare: Vec<u8>,
    /// `O_DIRECT` mode: page loads and write-backs go through a 512-byte
    /// aligned staging buffer (direct I/O requires aligned memory, offsets
    /// and lengths; page offsets are aligned by construction).
    direct: bool,
    staging: Vec<u8>,
    /// Device name, for typed error context (`CorruptPage`).
    label: String,
    /// Checksum of the *intended* content of every page ever written back,
    /// verified when the page is next loaded from the file — the detector
    /// for torn write-backs.
    checksums: BTreeMap<u64, u64>,
    /// Absolute write-back indices scheduled to tear (fault injection):
    /// those write-backs persist only the first half of the page while
    /// still recording the full-intent checksum.
    torn: BTreeSet<u64>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("page_bytes", &self.page_bytes)
            .field("capacity", &self.capacity)
            .field("resident", &self.table.len())
            .field("stats", &self.stats)
            .finish()
    }
}

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

/// Fills `dst` from `file` at `offset` with positional reads; a short read
/// past EOF leaves the tail zeroed (sparse files).
fn read_zero_filled(file: &File, dst: &mut [u8], offset: u64) -> Result<(), StorageError> {
    let mut filled = 0;
    while filled < dst.len() {
        match file
            .read_at(&mut dst[filled..], offset + filled as u64)
            .map_err(io_err)?
        {
            0 => break,
            n => filled += n,
        }
    }
    dst[filled..].fill(0);
    Ok(())
}

impl BufferPool {
    /// Builds a pool of `capacity` frames of `page_bytes` each over `file`.
    /// Eviction is always least recently used; [`PolicyKind`] has no other
    /// value to select.
    pub fn new(file: File, page_bytes: usize, capacity: usize, _: PolicyKind) -> BufferPool {
        let page_bytes = page_bytes.max(1);
        BufferPool {
            file,
            page_bytes,
            capacity: capacity.max(1),
            frames: Vec::new(),
            table: BTreeMap::new(),
            order: StampOrder::default(),
            stats: PoolStats::default(),
            spare: vec![0u8; page_bytes],
            direct: false,
            staging: Vec::new(),
            label: String::new(),
            checksums: BTreeMap::new(),
            torn: BTreeSet::new(),
        }
    }

    /// Names the pool's device for typed error context, builder-style.
    pub fn with_label(mut self, label: &str) -> BufferPool {
        self.label = label.to_string();
        self
    }

    /// Marks the backing file as opened with `O_DIRECT`, builder-style:
    /// page I/O then goes through an aligned staging buffer. The caller
    /// guarantees `page_bytes` is a multiple of 512.
    pub fn with_direct(mut self, direct: bool) -> BufferPool {
        self.direct = direct;
        if direct {
            self.staging = vec![0u8; self.page_bytes + 511];
        }
        self
    }

    /// True when the pool runs in direct-I/O mode.
    pub fn is_direct(&self) -> bool {
        self.direct
    }

    /// The 512-byte-aligned window of the staging buffer.
    fn staging_range(&self) -> std::ops::Range<usize> {
        let off = self.staging.as_ptr().align_offset(512);
        off..off + self.page_bytes
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Pool statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// The frame holding `page` if it is resident, counted as a hit.
    fn hit(&mut self, page: u64) -> Option<usize> {
        let f = *self.table.get(&page)?;
        self.stats.hits += 1;
        self.order.stamp(f);
        Some(f)
    }

    /// A page that was ever written back must match its recorded checksum:
    /// a mismatch means the write-back was torn (or the file corrupted
    /// behind the pool) and must surface as a typed error rather than a
    /// wrong answer. The page is not admitted.
    fn verify(&mut self, page: u64, data: &[u8]) -> Result<(), StorageError> {
        match self.checksums.get(&page) {
            Some(&want) if page_checksum(data) != want => {
                self.stats.checksum_failures += 1;
                Err(StorageError::CorruptPage {
                    device: self.label.clone(),
                    page,
                })
            }
            _ => Ok(()),
        }
    }

    /// Reads one page off the file into `data` (through the aligned staging
    /// buffer in direct mode) and verifies it.
    fn fetch(&mut self, page: u64, data: &mut [u8]) -> Result<(), StorageError> {
        let offset = page * self.page_bytes as u64;
        if self.direct {
            let range = self.staging_range();
            read_zero_filled(&self.file, &mut self.staging[range.clone()], offset)?;
            data.copy_from_slice(&self.staging[range]);
        } else {
            read_zero_filled(&self.file, data, offset)?;
        }
        self.verify(page, data)
    }

    /// Makes `page` resident in a frame of its own — a free one while the
    /// pool is below capacity, else the least recently used one, written
    /// back first if dirty — and returns it clean. The frame's bytes are
    /// stale: the caller fills them before anything reads the frame.
    fn claim_frame(&mut self, page: u64) -> Result<usize, StorageError> {
        let frame = if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                page,
                data: vec![0u8; self.page_bytes],
                dirty: false,
            });
            self.frames.len() - 1
        } else {
            let victim = self.order.oldest();
            self.stats.evictions += 1;
            self.write_back(victim)?;
            self.table.remove(&self.frames[victim].page);
            self.order.clear(victim);
            self.frames[victim].page = page;
            victim
        };
        self.table.insert(page, frame);
        self.order.stamp(frame);
        Ok(frame)
    }

    /// The frame holding `page`, fetching it from the file on a miss.
    fn load_page(&mut self, page: u64) -> Result<usize, StorageError> {
        match self.hit(page) {
            Some(f) => Ok(f),
            None => self.load_absent(page),
        }
    }

    /// The miss path of [`load_page`](BufferPool::load_page): fetches one
    /// absent page into a frame of its own.
    fn load_absent(&mut self, page: u64) -> Result<usize, StorageError> {
        self.stats.misses += 1;
        // Fetch and verify before evicting anything: a corrupt page must
        // leave the pool as it found it.
        let mut data = std::mem::take(&mut self.spare);
        let claimed = self
            .fetch(page, &mut data)
            .and_then(|()| self.claim_frame(page));
        if let Ok(f) = claimed {
            std::mem::swap(&mut self.frames[f].data, &mut data);
        }
        self.spare = data;
        claimed
    }

    /// The frame a write covering all of `page` lands in. A non-resident
    /// page with no recorded checksum is claimed without reading the file:
    /// every fetched byte would be overwritten and there is nothing to
    /// verify. It still counts as the miss it is.
    fn load_for_overwrite(&mut self, page: u64) -> Result<usize, StorageError> {
        if let Some(f) = self.hit(page) {
            return Ok(f);
        }
        if self.checksums.contains_key(&page) {
            return self.load_absent(page);
        }
        self.stats.misses += 1;
        self.claim_frame(page)
    }

    /// Serves the whole, non-resident pages `first ..` covering `dst` with
    /// one positional read into `dst`, then verifies and admits them in
    /// order — the same misses, evictions and write-backs, at the same
    /// points, as fetching them one by one.
    fn read_run(&mut self, first: u64, dst: &mut [u8]) -> Result<(), StorageError> {
        read_zero_filled(&self.file, dst, first * self.page_bytes as u64)?;
        for (page, bytes) in (first..).zip(dst.chunks_exact(self.page_bytes)) {
            self.stats.misses += 1;
            self.verify(page, bytes)?;
            let f = self.claim_frame(page)?;
            self.frames[f].data.copy_from_slice(bytes);
        }
        Ok(())
    }

    fn write_back(&mut self, frame: usize) -> Result<(), StorageError> {
        if !self.frames[frame].dirty {
            return Ok(());
        }
        let page = self.frames[frame].page;
        // The checksum records the *intent* — the full frame content —
        // even when injection tears the physical write below, so the tear
        // is detected when the page is next loaded.
        self.checksums
            .insert(page, page_checksum(&self.frames[frame].data));
        let tear = self.torn.remove(&self.stats.write_backs);
        let take = if tear {
            self.stats.torn_injected += 1;
            // Direct I/O needs 512-aligned lengths; align the tear down
            // (possibly to zero — a fully lost write-back).
            if self.direct {
                self.page_bytes / 2 / 512 * 512
            } else {
                self.page_bytes / 2
            }
        } else {
            self.page_bytes
        };
        if take > 0 {
            let offset = page * self.page_bytes as u64;
            let src = if self.direct {
                let range = self.staging_range();
                self.staging[range.clone()].copy_from_slice(&self.frames[frame].data);
                &self.staging[range.start..range.start + take]
            } else {
                &self.frames[frame].data[..take]
            };
            self.file.write_all_at(src, offset).map_err(io_err)?;
        }
        self.frames[frame].dirty = false;
        self.stats.write_backs += 1;
        Ok(())
    }

    /// Schedules the `at`-th *upcoming* write-back to tear: it persists
    /// only the first half of its page while recording the full-intent
    /// checksum, so the corruption is silent until the page is re-read.
    pub fn schedule_torn(&mut self, at: u64) {
        self.torn.insert(self.stats.write_backs + at);
    }

    /// Reads `buf.len()` bytes at `offset` through the pool.
    pub fn read(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        let pb = self.page_bytes;
        let mut done = 0usize;
        while done < buf.len() {
            let pos = offset + done as u64;
            let page = pos / pb as u64;
            let within = (pos % pb as u64) as usize;
            if within == 0 && !self.direct {
                // The whole pages from here up to the first resident one.
                let whole = ((buf.len() - done) / pb) as u64;
                let run = match self.table.range(page..page + whole).next() {
                    Some((&resident, _)) => resident - page,
                    None => whole,
                } as usize;
                if run > 0 {
                    self.read_run(page, &mut buf[done..done + run * pb])?;
                    done += run * pb;
                    continue;
                }
            }
            let take = (buf.len() - done).min(pb - within);
            let f = self.load_page(page)?;
            buf[done..done + take].copy_from_slice(&self.frames[f].data[within..within + take]);
            done += take;
        }
        Ok(())
    }

    /// Writes `data` at `offset` through the pool (dirty pages are written
    /// back on eviction or [`flush`](BufferPool::flush)).
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        let pb = self.page_bytes;
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let page = pos / pb as u64;
            let within = (pos % pb as u64) as usize;
            let take = (data.len() - done).min(pb - within);
            let f = if take == pb {
                self.load_for_overwrite(page)?
            } else {
                self.load_page(page)?
            };
            self.frames[f].data[within..within + take].copy_from_slice(&data[done..done + take]);
            self.frames[f].dirty = true;
            done += take;
        }
        Ok(())
    }

    /// Writes every dirty page back to the file and syncs it.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        for f in 0..self.frames.len() {
            self.write_back(f)?;
        }
        self.file.sync_data().map_err(io_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_pool(capacity: usize) -> BufferPool {
        let dir = std::env::temp_dir().join(format!(
            "ocas-pool-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("pool-{capacity}.bin"));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .unwrap();
        file.set_len(1 << 20).unwrap();
        BufferPool::new(file, 64, capacity, PolicyKind::Lru)
    }

    /// The per-frame timestamps and per-eviction scan that [`StampOrder`]
    /// indexes, as its oracle: `victim` is the frame with the smallest
    /// stamp.
    #[derive(Default)]
    struct StampScan {
        stamp: Vec<u64>,
        now: u64,
    }

    impl StampScan {
        fn stamp(&mut self, frame: usize) {
            if frame >= self.stamp.len() {
                self.stamp.resize(frame + 1, 0);
            }
            self.now += 1;
            self.stamp[frame] = self.now;
        }

        fn clear(&mut self, frame: usize) {
            if let Some(s) = self.stamp.get_mut(frame) {
                *s = 0;
            }
        }

        fn victim(&self) -> Option<usize> {
            self.stamp
                .iter()
                .enumerate()
                .filter(|(_, s)| **s > 0)
                .min_by_key(|(_, s)| **s)
                .map(|(f, _)| f)
        }
    }

    #[test]
    fn stamp_order_picks_the_victims_of_a_stamp_scan() {
        const FRAMES: usize = 9;
        let (mut order, mut scan) = (StampOrder::default(), StampScan::default());
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let frame = (x >> 8) as usize % FRAMES;
            match x % 8 {
                0..=3 => {
                    order.stamp(frame);
                    scan.stamp(frame);
                }
                4 => {
                    order.clear(frame);
                    scan.clear(frame);
                }
                _ => {
                    // Evict: the victim loses its stamp, as in the pool.
                    if let Some(v) = order.oldest {
                        order.clear(v);
                        scan.clear(v);
                    }
                }
            }
            assert_eq!(order.oldest, scan.victim(), "step {step}");
        }
    }

    #[test]
    fn read_back_what_was_written() {
        let mut p = temp_pool(8);
        let data: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        p.write(100, &data).unwrap();
        let mut buf = vec![0u8; 300];
        p.read(100, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn dirty_pages_survive_eviction() {
        let mut p = temp_pool(2);
        // Write 8 pages through a 2-frame pool, forcing write-backs.
        for page in 0u64..8 {
            p.write(page * 64, &[page as u8 + 1; 64]).unwrap();
        }
        assert!(p.stats().evictions >= 6, "{:?}", p.stats());
        assert!(p.stats().write_backs >= 6, "{:?}", p.stats());
        // Every page reads back intact (from file or frame).
        for page in 0u64..8 {
            let mut buf = [0u8; 64];
            p.read(page * 64, &mut buf).unwrap();
            assert_eq!(buf, [page as u8 + 1; 64], "page {page}");
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut p = temp_pool(4);
        let mut buf = [0u8; 64];
        p.read(0, &mut buf).unwrap();
        p.read(0, &mut buf).unwrap();
        p.read(64, &mut buf).unwrap();
        let s = p.stats();
        assert_eq!((s.misses, s.hits), (2, 1));
    }

    #[test]
    fn lru_keeps_the_hot_page() {
        let mut p = temp_pool(2);
        let mut buf = [0u8; 64];
        p.read(0, &mut buf).unwrap(); // page 0
        p.read(64, &mut buf).unwrap(); // page 1
        p.read(0, &mut buf).unwrap(); // touch page 0
        p.read(128, &mut buf).unwrap(); // page 2 evicts page 1 (LRU)
        let before = p.stats().misses;
        p.read(0, &mut buf).unwrap(); // page 0 still resident
        assert_eq!(p.stats().misses, before);
        p.read(64, &mut buf).unwrap(); // page 1 was evicted
        assert_eq!(p.stats().misses, before + 1);
    }

    #[test]
    fn torn_write_back_detected_as_corrupt_page() {
        let mut p = temp_pool(2).with_label("HDD");
        // Dirty page 0 with content whose halves differ, tear its
        // write-back, then force it out and back in.
        let mut content = [0xAAu8; 64];
        content[32..].fill(0xBB);
        p.write(0, &content).unwrap();
        p.schedule_torn(0);
        let mut buf = [0u8; 64];
        p.read(64, &mut buf).unwrap();
        p.read(128, &mut buf).unwrap(); // evicts page 0, torn write-back
        assert_eq!(p.stats().torn_injected, 1);
        let err = p.read(0, &mut buf).unwrap_err();
        assert!(
            matches!(err, StorageError::CorruptPage { ref device, page }
                if device == "HDD" && page == 0),
            "{err:?}"
        );
        assert_eq!(p.stats().checksum_failures, 1);
    }

    #[test]
    fn clean_write_backs_verify_on_reload() {
        let mut p = temp_pool(2).with_label("HDD");
        let content = [0x5Au8; 64];
        p.write(0, &content).unwrap();
        let mut buf = [0u8; 64];
        p.read(64, &mut buf).unwrap();
        p.read(128, &mut buf).unwrap(); // evicts page 0 (clean write-back)
        p.read(0, &mut buf).unwrap(); // reload verifies the checksum
        assert_eq!(buf, content);
        assert_eq!(p.stats().checksum_failures, 0);
    }

    /// Varied page contents without a zero byte, so every tear below
    /// really changes the page.
    fn patterned(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761).to_le_bytes()[3] | 1)
            .collect()
    }

    #[test]
    fn checksum_sees_every_bit_flip_tear_and_truncation() {
        // 64 B: lanes only; 4 KiB: the pool's page; 4099 and 37: the byte
        // tail (and for 37, a single 32-byte block).
        for len in [64usize, 4096, 4099, 37] {
            let page = patterned(len);
            let want = page_checksum(&page);
            assert_eq!(want, page_checksum(&page.clone()), "deterministic");

            let mut flipped = page.clone();
            for bit in 0..len * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(page_checksum(&flipped), want, "len {len} bit {bit}");
                flipped[bit / 8] ^= 1 << (bit % 8);
            }

            // A torn write-back persists a prefix over whatever the file
            // held: zeros (never written) or an older version of the page.
            let older: Vec<u8> = page.iter().map(|b| b.wrapping_add(2)).collect();
            let cuts = (0..len).step_by(512).chain([len / 2]);
            for cut in cuts {
                let mut over_zeros = page.clone();
                over_zeros[cut..].fill(0);
                assert_ne!(page_checksum(&over_zeros), want, "len {len} cut {cut}");
                let mut over_older = page.clone();
                over_older[cut..].copy_from_slice(&older[cut..]);
                assert_ne!(page_checksum(&over_older), want, "len {len} cut {cut}");
            }
        }
    }

    #[test]
    fn checksum_tells_zero_pages_of_different_lengths_apart() {
        let sums: Vec<u64> = [0usize, 1, 31, 32, 64, 4096]
            .iter()
            .map(|len| page_checksum(&vec![0u8; *len]))
            .collect();
        for (i, a) in sums.iter().enumerate() {
            for b in &sums[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn zero_and_never_written_pages_behave_as_before() {
        let mut p = temp_pool(2).with_label("HDD");
        let mut buf = [1u8; 64];
        // Never written: nothing recorded, nothing verified, reads zeros
        // (sparse file) however often it is evicted and reloaded.
        for _ in 0..2 {
            p.read(0, &mut buf).unwrap();
            assert_eq!(buf, [0u8; 64]);
            p.read(64, &mut buf).unwrap();
            p.read(128, &mut buf).unwrap();
        }
        // An all-zero page written back verifies on reload like any other…
        p.write(0, &[0u8; 64]).unwrap();
        p.read(64, &mut buf).unwrap();
        p.read(128, &mut buf).unwrap();
        p.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
        // …and a tear of it changes no byte, so there is nothing to detect.
        p.write(0, &[0u8; 64]).unwrap();
        p.schedule_torn(0);
        p.read(64, &mut buf).unwrap();
        p.read(128, &mut buf).unwrap();
        assert_eq!(p.stats().torn_injected, 1);
        p.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
        assert_eq!(p.stats().checksum_failures, 0);
    }

    #[test]
    fn whole_page_overwrite_fetches_only_to_verify() {
        let mut p = temp_pool(2).with_label("HDD");
        let mut buf = [0u8; 64];
        let mut content = [0xAAu8; 64];
        content[32..].fill(0xBB);
        // Tear page 0's write-back, then overwrite the whole page while it
        // is absent: it has a recorded checksum, so the overwrite still
        // fetches, verifies and reports the tear.
        p.write(0, &content).unwrap();
        p.schedule_torn(0);
        p.read(64, &mut buf).unwrap();
        p.read(128, &mut buf).unwrap();
        let err = p.write(0, &[7u8; 64]).unwrap_err();
        assert!(
            matches!(err, StorageError::CorruptPage { page: 0, .. }),
            "{err:?}"
        );
        // A never-written page is claimed without a fetch and still counts
        // as the miss it is.
        let before = p.stats();
        p.write(4096, &[9u8; 64]).unwrap();
        assert_eq!(p.stats().misses, before.misses + 1);
        assert_eq!(p.stats().evictions, before.evictions + 1);
        p.read(4096, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 64]);
    }

    #[test]
    fn flush_persists_dirty_pages() {
        let mut p = temp_pool(8);
        p.write(10, b"hello pool").unwrap();
        assert_eq!(p.stats().write_backs, 0);
        p.flush().unwrap();
        assert!(p.stats().write_backs >= 1);
        // A second flush has nothing left to do.
        let wb = p.stats().write_backs;
        p.flush().unwrap();
        assert_eq!(p.stats().write_backs, wb);
    }
}
