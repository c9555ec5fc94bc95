//! Model-based check of the [`FileBackend`]'s read-ahead window: whatever
//! a forward cursor's sub-page requests are served from, every byte a data
//! read returns is the byte the device holds at that moment, and every
//! request is counted on its own.
//!
//! The shadow model is a flat `Vec<u8>` of the device plus the bump
//! allocator's extents and one sequential position: a read returns the
//! shadow's bytes, moves `bytes_read` by its length and is a seek exactly
//! when it does not start where the last charged request on the device
//! ended. Nothing in it knows about pages, pools or windows.
//!
//! These are "follows the file" tests (ROADMAP, "Reading real-backend
//! numbers"): they compare returned payload with written payload.

use ocas_hierarchy::{CostPair, DeviceKind, EdgeCosts, Hierarchy, NodeProps, Rat};
use ocas_runtime::{FileBackend, PoolConfig, PoolStats};
use ocas_storage::{FileId, StorageBackend, StorageError};
use proptest::prelude::*;

const PAGE: u64 = 64;
/// Pages the backend reads ahead (its private `WINDOW_PAGES`); the tests
/// only use it to aim at window boundaries, never to decide an outcome.
const WINDOW: u64 = 8 * PAGE;

/// RAM over one `hdd_bytes`-byte disk.
fn hierarchy(hdd_bytes: u64) -> Hierarchy {
    let mut h = Hierarchy::new(NodeProps::new("RAM", 1 << 20, DeviceKind::Ram)).unwrap();
    h.add_child(
        "RAM",
        NodeProps::new("HDD", hdd_bytes, DeviceKind::Hdd),
        EdgeCosts::symmetric(CostPair::new(Rat::millis(15), Rat::new(1, 30 << 20))),
    )
    .unwrap();
    h
}

fn backend(hdd_bytes: u64, frames: usize) -> FileBackend {
    let pool = PoolConfig {
        page_bytes: PAGE as usize,
        frames,
        ..PoolConfig::default()
    };
    FileBackend::from_hierarchy(&hierarchy(hdd_bytes), pool).unwrap()
}

/// The backend next to its shadow.
struct Twins {
    fb: FileBackend,
    /// Device bytes by absolute position (unwritten ranges read as zero).
    device: Vec<u8>,
    /// `(file, device offset, length)` of every live extent, in order.
    files: Vec<(FileId, u64, u64)>,
    watermark: u64,
    /// Where a purely sequential request would start.
    position: u64,
    bytes_read: u64,
    bytes_written: u64,
    seeks: u64,
}

impl Twins {
    fn new(hdd_bytes: u64, frames: usize) -> Twins {
        Twins {
            fb: backend(hdd_bytes, frames),
            device: vec![0; hdd_bytes as usize],
            files: Vec::new(),
            watermark: 0,
            position: 0,
            bytes_read: 0,
            bytes_written: 0,
            seeks: 0,
        }
    }

    fn alloc(&mut self, len: u64) -> usize {
        let file = self.fb.alloc("HDD", len).unwrap();
        self.files.push((file, self.watermark, len));
        self.watermark += len;
        self.files.len() - 1
    }

    /// Frees the last extent and allocates `len` bytes in its place.
    fn realloc_last(&mut self, len: u64) {
        let (_, offset, _) = self.files.pop().unwrap();
        self.fb.truncate_device("HDD", offset).unwrap();
        self.watermark = offset;
        self.alloc(len);
    }

    fn charge(&mut self, pos: u64, len: u64) {
        self.seeks += u64::from(pos != self.position);
        self.position = pos + len;
    }

    /// A data read, checked byte for byte and counter for counter.
    fn read(&mut self, slot: usize, offset: u64, len: u64, what: &str) -> Vec<u8> {
        let (file, at, _) = self.files[slot];
        let mut buf = vec![0xEE; len as usize];
        let held = self
            .fb
            .read(file, offset, buf.len() as u64, 1, Some(&mut buf))
            .unwrap();
        assert!(held, "{what}: a file backend holds its payload");
        let pos = (at + offset) as usize;
        assert_eq!(buf, self.device[pos..pos + len as usize], "{what}");
        self.charge(at + offset, len);
        self.bytes_read += len;
        self.check(what);
        buf
    }

    fn write(&mut self, slot: usize, offset: u64, data: &[u8], what: &str) {
        let (file, at, _) = self.files[slot];
        self.fb
            .write(file, offset, data.len() as u64, 1, Some(data))
            .unwrap();
        let pos = (at + offset) as usize;
        self.device[pos..pos + data.len()].copy_from_slice(data);
        self.charge(at + offset, data.len() as u64);
        self.bytes_written += data.len() as u64;
        self.check(what);
    }

    /// Uncharged: the bytes change, the position and the counters do not.
    fn materialize(&mut self, slot: usize, offset: u64, data: &[u8], what: &str) {
        let (file, at, _) = self.files[slot];
        self.fb.materialize(file, offset, data).unwrap();
        let pos = (at + offset) as usize;
        self.device[pos..pos + data.len()].copy_from_slice(data);
        self.check(what);
    }

    fn check(&self, what: &str) {
        let s = self.fb.device_stats("HDD").unwrap();
        assert_eq!(
            (s.bytes_read, s.bytes_written, s.seeks),
            (self.bytes_read, self.bytes_written, self.seeks),
            "{what}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// One cursor walking forward a tuple at a time, interrupted by
    /// everything else a device sees.
    #[test]
    fn every_byte_is_the_devices_and_every_request_is_counted(
        (frames, tuple, lens) in (1usize..24, 1u64..4, (1u64..40, 1u64..3000, 1u64..700)),
        ops in proptest::collection::vec((0u32..20, 0u64..1 << 20, 0u64..1 << 20, 0u64..251), 1..160),
    ) {
        let tuple = tuple * 8;
        let mut t = Twins::new(1 << 16, frames);
        // An odd-sized first file, so that no extent is page-aligned.
        t.alloc(lens.0);
        let main = t.alloc(lens.1.max(tuple));
        let other = t.alloc(lens.2);
        let last = t.alloc(tuple * 20);
        for slot in [main, other, last] {
            let (_, _, len) = t.files[slot];
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + slot as u64) as u8).collect();
            t.materialize(slot, 0, &data, "setup");
        }
        // The forward cursor, in bytes of `main`.
        let mut cursor = 0u64;
        for (n, (kind, a, b, fill)) in ops.into_iter().enumerate() {
            let (_, _, main_len) = t.files[main];
            let what = format!("op {n}: kind {kind} a {a} b {b} cursor {cursor}/{main_len} tuple {tuple} frames {frames}");
            let bytes = |len: u64| -> Vec<u8> { (0..len).map(|i| (fill + i * 13) as u8).collect() };
            match kind {
                // The stream: one tuple, continuing where it stopped.
                0..=8 => {
                    if cursor + tuple > main_len {
                        cursor = 0;
                    }
                    t.read(main, cursor, tuple, &what);
                    cursor += tuple;
                }
                // A page-sized (or longer) read at the cursor: around the window.
                9 => {
                    let len = (PAGE + b % (3 * PAGE)).min(main_len - cursor.min(main_len));
                    if len > 0 {
                        t.read(main, cursor, len, &what);
                        cursor += len;
                    }
                }
                // Seeks, backward and forward, tuple-aligned or not.
                10 | 11 => {
                    cursor = a % main_len;
                    if kind == 10 {
                        cursor -= cursor % tuple;
                    }
                }
                // A charged write into the stream's file — often just ahead
                // of the cursor, where a window would be holding the bytes.
                12 | 13 => {
                    let at = match (kind, a % 2) {
                        (12, 0) => cursor.min(main_len - 1),
                        (12, _) => (cursor + a % WINDOW).min(main_len - 1),
                        _ => a % main_len,
                    };
                    let len = (1 + b % (2 * PAGE)).min(main_len - at);
                    t.write(main, at, &bytes(len), &what);
                }
                // The same, uncharged.
                14 => {
                    let at = (cursor + a % WINDOW).min(main_len - 1);
                    let len = (1 + b % (2 * PAGE)).min(main_len - at);
                    t.materialize(main, at, &bytes(len), &what);
                }
                // Another file of the same device, read and written.
                15 | 16 => {
                    let (_, _, len) = t.files[other];
                    let at = a % len;
                    let take = (1 + b % PAGE).min(len - at);
                    if kind == 15 {
                        t.read(other, at, take, &what);
                    } else {
                        t.write(other, at, &bytes(take), &what);
                    }
                }
                // An accounting read: counted, nothing to compare.
                17 => {
                    let (file, at, len) = t.files[other];
                    let off = a % len;
                    let take = (1 + b % PAGE).min(len - off);
                    t.fb.read(file, off, take, 1, None).unwrap();
                    t.charge(at + off, take);
                    t.bytes_read += take;
                    t.check(&what);
                }
                // The last extent goes away and another takes its place,
                // then is read from its first tuple on.
                _ => {
                    let len = tuple * (1 + b % 40);
                    t.realloc_last(len);
                    let slot = t.files.len() - 1;
                    if kind == 18 {
                        t.materialize(slot, 0, &bytes(len), &what);
                    }
                    let mut at = 0;
                    while at + tuple <= len.min(4 * tuple) {
                        t.read(slot, at, tuple, &what);
                        at += tuple;
                    }
                }
            }
        }
    }
}

/// Everything observable about one side of
/// [`a_data_run_is_the_loop_of_its_requests`]: the run's outcome and bytes,
/// the device's `(bytes_read, bytes_written, seeks)` and pool statistics
/// after it, the outcomes of the tuple requests after it and the pool
/// statistics after those, and the obs events of it all.
type Seen = (
    String,
    Vec<u8>,
    (u64, u64, u64),
    PoolStats,
    Vec<String>,
    PoolStats,
    usize,
);

/// The loop of single reads carrying their bytes that a read run carrying
/// them stands for: `true` when every request handed the file's bytes back.
fn read_data_loop(
    fb: &mut FileBackend,
    file: FileId,
    offset: u64,
    unit: u64,
    count: u64,
    buf: &mut [u8],
) -> Result<bool, StorageError> {
    let mut held = true;
    for j in 0..count {
        let request = &mut buf[(j * unit) as usize..((j + 1) * unit) as usize];
        held &= fb.read(file, offset + j * unit, unit, 1, Some(request))?;
    }
    Ok(held)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// A read run carrying its bytes on the file backend against the loop of
    /// single reads it stands for, on two backends that saw the same requests
    /// before it: the same outcome and bytes, the same `DeviceStats` and
    /// `PoolStats`, the same obs event count when tracing — and the same
    /// window afterwards, which the tuple stream after the run shows: its
    /// requests are served alike, refilling at the same ones. The run
    /// follows a tuple stream, and then perhaps a write or a
    /// materialization into the window or a read elsewhere; it starts where
    /// the stream stands, a little past it, or anywhere, ends at the extent's
    /// end or leaves the file; its units are sub-page, a tuple, a page or
    /// more; it is empty or long enough to straddle pages and the window's
    /// end.
    #[test]
    fn a_data_run_is_the_loop_of_its_requests(
        (frames, unit_kind, unit_draw, count) in (1usize..24, 0u32..5, 1u64..PAGE, 0u64..80),
        (stream, prior, at_kind, draw) in (0u64..40, 0u32..4, 0u32..5, 0u64..1 << 16),
        tracing in 0u32..2,
    ) {
        let unit = match unit_kind {
            0 => unit_draw,
            1 => 8,
            2 => PAGE,
            3 => PAGE + unit_draw,
            _ => 3 * PAGE,
        };
        let len = 50 * PAGE + 13;
        let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        let position = stream * 8;
        let count = match at_kind {
            0 => count.min((len - position) / unit),
            1 => count.min((len - position - 1 - draw % PAGE) / unit),
            _ => count.min(len / unit),
        };
        let start = match at_kind {
            0 => position,
            1 => position + 1 + draw % PAGE,
            2 => draw % (len - unit * count + 1),
            3 => len - unit * count,
            // Past the extent's end by one byte.
            _ => len - unit * count + 1,
        };
        let side = |looped: bool| -> Seen {
            let mut fb = backend(1 << 16, frames);
            fb.alloc("HDD", 21).unwrap();
            let f = fb.alloc("HDD", len).unwrap();
            fb.materialize(f, 0, &data).unwrap();
            let mut tuple = [0u8; 8];
            for k in 0..stream {
                fb.read(f, 8 * k, tuple.len() as u64, 1, Some(&mut tuple)).unwrap();
            }
            let near = (position + draw % WINDOW).min(len - 8);
            match prior {
                0 => {}
                1 => fb.write(f, near, 8, 1, Some(&[0x5A; 8])).unwrap(),
                2 => fb.materialize(f, near, &[0xA5; 8]).unwrap(),
                _ => {
                    fb.read(f, draw % (len - PAGE), PAGE, 1, None).unwrap();
                }
            }
            if tracing == 1 {
                ocas_obs::start();
            }
            let mut buf = vec![0xEE; (unit * count) as usize];
            let outcome = if looped {
                read_data_loop(&mut fb, f, start, unit, count, &mut buf)
            } else {
                fb.read(f, start, unit, count, Some(&mut buf))
            };
            let s = fb.device_stats("HDD").unwrap();
            let pool = fb.pool_stats()[1].1;
            let end = start + unit * count;
            let after: Vec<String> = (0..20)
                .map(|k| format!("{:?}", fb.read(f, end + 8 * k, tuple.len() as u64, 1, Some(&mut tuple)).map(|_| tuple)))
                .collect();
            let events = match tracing {
                1 => ocas_obs::finish().expect("recording").events.len(),
                _ => 0,
            };
            let outcome = format!("{outcome:?}");
            let stats = (s.bytes_read, s.bytes_written, s.seeks);
            (outcome, buf, stats, pool, after, fb.pool_stats()[1].1, events)
        };
        let (run, looped) = (side(false), side(true));
        prop_assert_eq!(&run, &looped, "{} x {} B at {}", count, unit, start);
        if run.0 == "Ok(true)" && matches!(prior, 0 | 3) {
            let from = start as usize;
            prop_assert_eq!(&run.1[..], &data[from..from + run.1.len()]);
        }
    }
}

/// The directed cases of the property above: a tuple stream inside one
/// window, and a write landing in the bytes read ahead — at the tuple after
/// next (a seek back to read it), or exactly at the cursor (the stream then
/// continues sequentially, behind the write).
#[test]
fn a_write_into_the_window_is_seen_by_the_reads_after_it() {
    for (charged, at_cursor) in [(true, false), (false, false), (true, true)] {
        let mut t = Twins::new(1 << 14, 8);
        let f = t.alloc(4 * WINDOW);
        let data: Vec<u8> = (0..4 * WINDOW).map(|i| (i * 7 + 1) as u8).collect();
        t.materialize(f, 0, &data, "setup");
        // Three sequential tuples: the later ones are served from the window.
        let misses = |t: &Twins| t.fb.pool_stats()[1].1.misses;
        t.read(f, 0, 8, "first tuple");
        let filled = misses(&t);
        t.read(f, 8, 8, "second tuple");
        t.read(f, 16, 8, "third tuple");
        assert_eq!(misses(&t), filled, "tuples two and three are read ahead");
        let what = format!("charged = {charged}, at the cursor = {at_cursor}");
        let target = if at_cursor { 24 } else { 32 };
        if charged {
            t.write(f, target, &[0x77; 8], &what);
        } else {
            t.materialize(f, target, &[0x77; 8], &what);
        }
        if at_cursor {
            // Sequential again, right behind the write.
            t.read(f, 32, 8, &what);
        }
        let got = t.read(f, target, 8, &what);
        assert_eq!(got, [0x77; 8], "{what}");
    }
}

/// A window never reaches past the extent it reads for, and a file that
/// ends with the device — in the middle of a page — is read to its last
/// byte and not beyond.
#[test]
fn a_window_stops_at_the_files_extent_and_at_the_devices_end() {
    let hdd_bytes = 5 * WINDOW + 37;
    let mut t = Twins::new(hdd_bytes, 64);
    let short = t.alloc(PAGE + 10);
    let rest = hdd_bytes - (PAGE + 10);
    let tail = t.alloc(rest);
    for slot in [short, tail] {
        let (_, _, len) = t.files[slot];
        let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        t.materialize(slot, 0, &data, "setup");
    }
    t.fb.flush().unwrap();

    // Fresh backend state for the pool counters: everything is on file.
    let before = t.fb.pool_stats()[1].1;
    let mut at = 0;
    while at + 2 <= PAGE + 10 {
        t.read(short, at, 2, "the short file");
        at += 2;
    }
    let after = t.fb.pool_stats()[1].1;
    // Its two pages were resident from the setup; a window running on into
    // `tail` would have touched eight.
    assert_eq!(
        (after.hits - before.hits) + (after.misses - before.misses),
        2,
        "only the extent's own pages: {before:?} -> {after:?}"
    );

    // The tail, three bytes at a time, up to the device's last byte.
    let mut at = 0;
    while at + 3 <= rest {
        t.read(tail, at, 3, "the tail");
        at += 3;
    }
    if at < rest {
        t.read(tail, at, rest - at, "the last bytes");
    }
    let (file, _, _) = t.files[tail];
    assert!(matches!(
        t.fb.read(file, rest - 1, 2, 1, Some(&mut [0u8; 2])),
        Err(StorageError::OutOfBounds { .. })
    ));
    t.check("an out-of-bounds request is not counted");
}
