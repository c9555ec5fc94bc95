//! The template that runs natively on the real backend: the out-of-core
//! GRACE hash join.
//!
//! The join really spills partition files and joins co-buckets read back
//! from disk: every byte flows through the [`FileBackend`]'s buffer pools
//! onto actual temp files, and every tuple-holding buffer is metered
//! ([`AlgoRun::peak_resident_bytes`] stays bounded by the configured buffers
//! whatever the input cardinality). Every other template — the external
//! merge sort, merge passes, column zips, duplicate removal, nested loops,
//! aggregation — runs on real files through the generic executor
//! ([`crate::Runtime::execute`]), the same code its simulator twin runs;
//! there is no second implementation of those here.
//!
//! # What a spill stream costs
//!
//! The paper charges one `InitCom` per non-contiguous request and prices a
//! GRACE flush as a seek *to that bucket's partition file*; a spill stream
//! here is laid out, and read back, the way it was written.
//!
//! * **Who owns an extent.** A GRACE bucket is a stream with extents of its
//!   own: `partition_side` appends a bucket's flushes to extents reserved
//!   for that bucket, `PARTITION_EXTENT_PAGES` pool pages at a time and
//!   never less than one staging buffer, whole pages from a page boundary —
//!   so no two buckets share a page, and `read_bucket` reads each extent's
//!   filled prefix with one request. A reservation that does not fit halves
//!   down to one staging buffer's pages, then fails over (the engine's
//!   [`SpillAlloc`], which the external sort's runs go through too);
//!   `SpillGuard` truncates everything on error.
//! * **Why 16 pages.** Long enough that a bucket comes back in a few
//!   requests instead of one per staging buffer, short enough that a bucket
//!   which never fills one wastes little of the device; 4 to 64 measured
//!   flat.
//! * **What is still page-at-a-time.** The writes: a flush shorter than a
//!   page goes through a pool frame, and the pool writes back and checksums
//!   every partition page on eviction — which is also why a torn partition
//!   page still surfaces as `CorruptPage` on the bucket read that reaches
//!   it.

use crate::backend::FileBackend;
use ocas_engine::{ExecStats, KeyIndex, Output, Relation, RowBuf, SpillAlloc};
use ocas_storage::{FileId, StorageBackend, StorageError};

/// Algorithm failures.
#[derive(Debug)]
pub enum AlgoError {
    /// Storage-level failure.
    Storage(StorageError),
    /// The relation layout is outside what the real path supports.
    Unsupported(&'static str),
}

impl std::fmt::Display for AlgoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgoError::Storage(e) => write!(f, "storage error: {e}"),
            AlgoError::Unsupported(what) => write!(f, "unsupported by real backend: {what}"),
        }
    }
}

impl std::error::Error for AlgoError {}

impl From<StorageError> for AlgoError {
    fn from(e: StorageError) -> AlgoError {
        AlgoError::Storage(e)
    }
}

fn check_width(rel: &Relation) -> Result<usize, AlgoError> {
    let w = rel.width as usize;
    if w == 0 || rel.tuple_bytes != w as u64 * 8 {
        return Err(AlgoError::Unsupported(
            "real algorithms need 8-byte columns",
        ));
    }
    Ok(w)
}

/// Scope guard over the devices a run allocates on: snapshots their
/// allocation watermarks at entry so the error path can roll everything
/// back. Every entry point that runs a plan on a [`FileBackend`] calls
/// [`SpillGuard::cleanup`] on failure — pinned pages are released and each
/// device is truncated to its entry mark, so a failed run leaves no spill
/// extents, output extent or pinned frames behind. The success path simply
/// drops the guard: outputs are harvested after the measured window and
/// must survive.
pub(crate) struct SpillGuard {
    marks: Vec<(String, u64)>,
}

impl SpillGuard {
    pub(crate) fn new(fb: &FileBackend, scratch: Option<&str>, output: &Output) -> SpillGuard {
        let mut devices: Vec<&str> = Vec::new();
        if let Some(s) = scratch {
            devices.push(s);
        }
        if let Some(f) = fb.spill_fallback() {
            devices.push(f);
        }
        if let Output::ToDevice { device, .. } = output {
            devices.push(device);
        }
        let mut marks: Vec<(String, u64)> = Vec::new();
        for d in devices {
            if !marks.iter().any(|(name, _)| name == d) {
                marks.push((d.to_string(), fb.watermark(d).unwrap_or(0)));
            }
        }
        SpillGuard { marks }
    }

    pub(crate) fn cleanup(self, fb: &mut FileBackend) {
        fb.release_all_pins();
        for (device, mark) in &self.marks {
            let _ = fb.truncate_device(device, *mark);
        }
    }
}

/// Reserves the next extent of one spill stream: whole pool pages from a
/// page boundary (the device's watermark is padded up to one first),
/// [`PARTITION_EXTENT_PAGES`] of them and never less than hold
/// `stage_bytes`, the stream's longest append. A reservation that does not
/// fit halves down to that floor, then fails over to the alternate device
/// and starts again at full size.
fn reserve(
    spill: &mut SpillAlloc,
    fb: &mut FileBackend,
    stage_bytes: u64,
) -> Result<Extent, AlgoError> {
    let mut shrunk_to: Option<u64> = None;
    loop {
        let page = fb.page_bytes(spill.device())?;
        let floor = stage_bytes.div_ceil(page).max(1);
        let pages = shrunk_to.unwrap_or(PARTITION_EXTENT_PAGES.max(floor));
        let pad = fb
            .watermark(spill.device())
            .map_or(0, |mark| mark.next_multiple_of(page) - mark);
        let aligned = match pad {
            0 => Ok(()),
            _ => fb.alloc(spill.device(), pad).map(|_| ()),
        };
        match aligned.and_then(|()| fb.alloc(spill.device(), pages * page)) {
            Ok(file) => {
                return Ok(Extent {
                    file,
                    cap: pages * page,
                    filled: 0,
                })
            }
            Err(e) if e.is_capacity() => {
                if pages > floor {
                    shrunk_to = Some((pages / 2).max(floor));
                    fb.note_degradation(spill.device(), "shrink");
                } else {
                    spill.fail_over(fb, e)?;
                    shrunk_to = None;
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Pool pages a spill stream reserves at a time. Large enough that reading
/// a bucket back is a few long requests instead of one per staging buffer,
/// small enough that a bucket that never fills one wastes little of the
/// device: the GRACE window measured flat (0.164-0.172 s) from 4 to 64.
const PARTITION_EXTENT_PAGES: u64 = 16;

/// One reserved piece of a spill stream: the first `filled` of its `cap`
/// bytes hold tuples, appended in arrival order.
#[derive(Debug, Clone, Copy)]
struct Extent {
    file: FileId,
    cap: u64,
    filled: u64,
}

/// What one execution on real files produced.
#[derive(Debug)]
pub struct AlgoRun {
    /// Collected output rows. Only populated for [`Output::Discard`] runs
    /// (the verification path); device-bound runs leave this empty and are
    /// read back with [`AlgoRun::harvest`] after the measured window.
    pub output: RowBuf,
    /// Rows emitted.
    pub rows: u64,
    /// Extents written on the output device, in emission order, as
    /// `(file, bytes)` — the uncharged harvest path.
    pub out_extents: Vec<(FileId, u64)>,
    /// Output width in columns (for harvest decoding).
    pub out_width: usize,
    /// High-water mark of resident tuple bytes across every working buffer
    /// (input blocks, bucket staging, co-bucket batches, the output staging
    /// buffer, and — for `Discard` runs — the collected rows).
    pub peak_resident_bytes: u64,
}

impl From<ExecStats> for AlgoRun {
    /// A faithful run of the generic executor on real files.
    fn from(stats: ExecStats) -> AlgoRun {
        AlgoRun {
            output: (stats.output).unwrap_or_else(|| RowBuf::new(stats.output_width)),
            rows: stats.output_rows,
            out_extents: stats.output_extent.into_iter().collect(),
            out_width: stats.output_width,
            peak_resident_bytes: stats.peak_resident_bytes,
        }
    }
}

impl AlgoRun {
    /// The run's output rows: collected, or read back (uncharged) from the
    /// extents a device-bound run wrote.
    pub fn harvest(self, fb: &mut FileBackend) -> Result<RowBuf, StorageError> {
        let mut out = self.output;
        for (file, bytes) in &self.out_extents {
            let rows = bytes / (self.out_width as u64 * 8);
            fb.peek_rows(*file, 0, rows, self.out_width, &mut out)?;
        }
        Ok(out)
    }
}

/// Tracks the high-water mark of resident tuple bytes.
#[derive(Debug, Default)]
struct MemGauge {
    peak: u64,
}

impl MemGauge {
    /// Records an observation of the current resident total.
    fn note(&mut self, bytes: u64) {
        self.peak = self.peak.max(bytes);
    }
}

/// A buffered output writer: rows are encoded into a `buffer_bytes` staging
/// buffer and flushed to fresh extents on the output device (sequential,
/// the bump allocator keeps flushes contiguous). `Discard` outputs skip the
/// device but collect the rows for verification.
struct RealSink {
    output: Output,
    buffer: Vec<u8>,
    cap: usize,
    rows: u64,
    width: usize,
    collected: RowBuf,
    collect: bool,
    extents: Vec<(FileId, u64)>,
}

impl RealSink {
    fn new(output: &Output, width: usize, tuple_bytes: u64) -> RealSink {
        let cap = match output {
            Output::ToDevice { buffer_bytes, .. } => (*buffer_bytes).max(tuple_bytes) as usize,
            Output::Discard => 0,
        };
        RealSink {
            output: output.clone(),
            buffer: Vec::with_capacity(cap),
            cap,
            rows: 0,
            width,
            collected: RowBuf::new(width),
            collect: matches!(output, Output::Discard),
            extents: Vec::new(),
        }
    }

    /// Resident staging bytes (collected rows count only on the
    /// verification path, where collection is the point).
    fn resident_bytes(&self) -> u64 {
        (self.buffer.len() + self.collected.len() * self.width * 8) as u64
    }

    fn encode_row(&mut self, row: &[i64]) {
        for col in row {
            self.buffer.extend_from_slice(&col.to_le_bytes());
        }
    }

    /// Emits the join row `a ++ b` without materializing it first.
    fn emit_concat(&mut self, fb: &mut FileBackend, a: &[i64], b: &[i64]) -> Result<(), AlgoError> {
        self.rows += 1;
        if let Output::ToDevice { .. } = self.output {
            self.encode_row(a);
            self.encode_row(b);
            if self.buffer.len() >= self.cap {
                self.flush(fb)?;
            }
        }
        if self.collect {
            self.collected.push_concat(a, b);
        }
        Ok(())
    }

    fn flush(&mut self, fb: &mut FileBackend) -> Result<(), AlgoError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        if let Output::ToDevice { device, .. } = &self.output {
            let f = fb.alloc(device, self.buffer.len() as u64)?;
            fb.write_bytes(f, 0, &self.buffer)?;
            self.extents.push((f, self.buffer.len() as u64));
            self.buffer.clear();
        }
        Ok(())
    }

    fn finish(mut self, fb: &mut FileBackend, gauge: MemGauge) -> Result<AlgoRun, AlgoError> {
        self.flush(fb)?;
        Ok(AlgoRun {
            output: self.collected,
            rows: self.rows,
            out_extents: self.extents,
            out_width: self.width,
            peak_resident_bytes: gauge.peak,
        })
    }
}

/// One side's partition streams after the GRACE partition pass.
struct Partitions {
    /// Each bucket's extents, in reservation order: a bucket is a stream
    /// with extents of its own, so reading it back touches its pages only.
    extents: Vec<Vec<Extent>>,
}

/// Appends `bytes` (whole tuples, at most `stage_bytes` of them) to a spill
/// stream: into the room left in its last extent, or into a fresh
/// reservation when they do not fit there.
fn append_to_stream(
    fb: &mut FileBackend,
    spill: &mut SpillAlloc,
    stream: &mut Vec<Extent>,
    bytes: &[u8],
    stage_bytes: u64,
) -> Result<(), AlgoError> {
    let len = bytes.len() as u64;
    if !stream.last().is_some_and(|e| e.cap - e.filled >= len) {
        stream.push(reserve(spill, fb, stage_bytes)?);
    }
    let extent = stream.last_mut().expect("just reserved");
    fb.write_bytes(extent.file, extent.filled, bytes)?;
    extent.filled += len;
    Ok(())
}

fn partition_side(
    fb: &mut FileBackend,
    rel: &Relation,
    partitions: u64,
    buffer_bytes: u64,
    spill: &mut SpillAlloc,
    gauge: &mut MemGauge,
) -> Result<Partitions, AlgoError> {
    let width = check_width(rel)?;
    let tb = rel.tuple_bytes;
    let block = (buffer_bytes / tb).max(1);
    let per_bucket_buf = (buffer_bytes / partitions).max(tb);
    // A staging buffer is flushed by the tuple that fills it.
    let stage_bytes = per_bucket_buf.div_ceil(tb) * tb;
    let mut buckets: Vec<Vec<u8>> = vec![Vec::new(); partitions as usize];
    let mut parts = Partitions {
        extents: vec![Vec::new(); partitions as usize],
    };
    let mut batch = RowBuf::new(width);
    let mut at = 0u64;
    while at < rel.card {
        let take = block.min(rel.card - at);
        batch.clear();
        fb.read_rows(rel.file, at, take, width, &mut batch)?;
        for row in batch.iter() {
            let key = row.first().copied().unwrap_or(0);
            // Same bucket function as the simulator and the OCAL
            // `hashPartition` definition: identical bucket contents.
            let b = (ocal::stable_hash(&ocal::Value::Int(key)) % partitions) as usize;
            for col in row {
                buckets[b].extend_from_slice(&col.to_le_bytes());
            }
            if buckets[b].len() as u64 >= per_bucket_buf {
                append_to_stream(fb, spill, &mut parts.extents[b], &buckets[b], stage_bytes)?;
                buckets[b].clear();
            }
        }
        gauge.note((take * tb) + buckets.iter().map(|b| b.len() as u64).sum::<u64>());
        at += take;
    }
    for (b, buf) in buckets.iter().enumerate() {
        if !buf.is_empty() {
            append_to_stream(fb, spill, &mut parts.extents[b], buf, stage_bytes)?;
        }
    }
    Ok(parts)
}

/// Reads one bucket back: one request per extent, for its filled prefix.
fn read_bucket(
    fb: &mut FileBackend,
    extents: &[Extent],
    width: usize,
    out: &mut RowBuf,
) -> Result<(), AlgoError> {
    out.clear();
    for extent in extents {
        let rows = extent.filled / (width as u64 * 8);
        fb.read_rows(extent.file, 0, rows, width, out)?;
    }
    Ok(())
}

/// Runs a real GRACE hash join: both relations are hash-partitioned into
/// `partitions > 0` spill files on the `spill` device, then each co-bucket
/// pair is read back and joined in memory (build an index over the left
/// batch, probe with the right), results flowing through a buffered writer
/// to `output`. [`crate::Runtime::execute`] is the way in: it checks the
/// plan's parameters first.
#[allow(clippy::too_many_arguments)]
pub(crate) fn grace_join(
    fb: &mut FileBackend,
    left: &Relation,
    right: &Relation,
    partitions: u64,
    buffer_bytes: u64,
    spill: &str,
    cross: bool,
    output: &Output,
) -> Result<AlgoRun, AlgoError> {
    let guard = SpillGuard::new(fb, Some(spill), output);
    match grace_inner(
        fb,
        left,
        right,
        partitions,
        buffer_bytes,
        spill,
        cross,
        output,
    ) {
        Ok(run) => Ok(run),
        Err(e) => {
            guard.cleanup(fb);
            Err(e)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn grace_inner(
    fb: &mut FileBackend,
    left: &Relation,
    right: &Relation,
    partitions: u64,
    buffer_bytes: u64,
    spill: &str,
    cross: bool,
    output: &Output,
) -> Result<AlgoRun, AlgoError> {
    let lw = check_width(left)?;
    let rw = check_width(right)?;
    let mut gauge = MemGauge::default();
    // One allocator across both sides: a failover triggered while
    // partitioning the left relation sticks for the right one.
    let mut alloc = SpillAlloc::new(fb, spill);
    let lparts = partition_side(fb, left, partitions, buffer_bytes, &mut alloc, &mut gauge)?;
    let rparts = partition_side(fb, right, partitions, buffer_bytes, &mut alloc, &mut gauge)?;

    let mut sink = RealSink::new(output, lw + rw, left.tuple_bytes + right.tuple_bytes);
    let mut lb = RowBuf::new(lw);
    let mut rb = RowBuf::new(rw);
    let mut index = KeyIndex::new();
    for b in 0..partitions as usize {
        read_bucket(fb, &lparts.extents[b], lw, &mut lb)?;
        read_bucket(fb, &rparts.extents[b], rw, &mut rb)?;
        gauge.note((lb.len() * lw * 8 + rb.len() * rw * 8) as u64 + sink.resident_bytes());
        if cross {
            for y in rb.iter() {
                for x in lb.iter() {
                    sink.emit_concat(fb, x, y)?;
                }
            }
        } else {
            index.build(&lb);
            for y in rb.iter() {
                for x in index.matches(&lb, y[0]) {
                    sink.emit_concat(fb, x, y)?;
                }
            }
        }
    }
    sink.finish(fb, gauge)
}
