//! The two templates that run natively on the real backend: out-of-core
//! external merge-sort and GRACE hash join.
//!
//! The engine's faithful sort and GRACE arms compute their results in memory
//! and *account* the out-of-core I/O; these implementations do the opposite
//! of a shortcut: the 2ᵏ-way merge-sort really forms sorted runs on the
//! scratch device and merges them `fan_in` at a time through bounded
//! buffers, and the GRACE join really spills partition files and joins
//! co-buckets read back from disk. Every byte flows through the
//! [`FileBackend`]'s buffer pools onto actual temp files, and every
//! tuple-holding buffer is metered ([`AlgoRun::peak_resident_bytes`] stays
//! bounded by the configured buffers whatever the input cardinality). Every
//! other template — merge passes, column zips, duplicate removal, nested
//! loops, aggregation — runs on real files through the generic executor
//! over block cursors ([`crate::Runtime::execute`]); there is no second
//! implementation of those here.
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
//!   down to one staging buffer's pages, then fails over; `SpillGuard`
//!   truncates everything on error. A sort run is one extent per sorted
//!   batch (split only under capacity pressure).
//! * **Why 16 pages.** Long enough that a bucket comes back in a few
//!   requests instead of one per staging buffer, short enough that a bucket
//!   which never fills one wastes little of the device; 4 to 64 measured
//!   flat.
//! * **What the last pass writes.** The merge pass that leaves a single run
//!   is the output pass: its batches go to the output device's extent or
//!   onto the collected rows, not to a scratch run that a copy-out pass
//!   would move once more. An input that forms a single run is not spilled.
//! * **What is still page-at-a-time.** The writes: a flush shorter than a
//!   page goes through a pool frame, and the pool writes back and checksums
//!   every run and partition page on eviction — which is also why a torn
//!   partition page still surfaces as `CorruptPage` on the bucket read that
//!   reaches it.
//!
//! The merge itself is [`ocas_engine::MergeHeads`], a batch kernel over
//! cached head keys; `merge_group` drives it in the request order of a
//! row-at-a-time loop (a full batch is written before the refill read of
//! the cursor it exhausted).

use crate::backend::FileBackend;
use ocas_engine::{ExecStats, KeyIndex, MergeHeads, MergeStop, Output, Relation, RowBuf};
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

/// Spill allocation that degrades gracefully on capacity exhaustion
/// instead of failing the whole run: extents shrink by halving where the
/// caller can live with smaller pieces, and once even single-tuple extents
/// no longer fit the allocator fails over (once) to the backend's
/// configured alternate spill device. Every degradation is recorded via
/// [`FileBackend`]'s `note_degradation` so it lands in the recovery
/// counters and the obs `degrade:*` tracks.
struct SpillAlloc {
    device: String,
    fallback: Option<String>,
    failed_over: bool,
}

impl SpillAlloc {
    fn new(fb: &FileBackend, device: &str) -> SpillAlloc {
        SpillAlloc {
            device: device.to_string(),
            fallback: fb.spill_fallback().map(str::to_string),
            failed_over: false,
        }
    }

    /// Switches to the alternate spill device, or gives up with the
    /// original capacity error when there is none (or it is already in
    /// use).
    fn fail_over(&mut self, fb: &mut FileBackend, e: StorageError) -> Result<(), AlgoError> {
        match &self.fallback {
            Some(to) if !self.failed_over && *to != self.device => {
                fb.note_degradation(&self.device, "failover");
                self.device = to.clone();
                self.failed_over = true;
                Ok(())
            }
            _ => Err(e.into()),
        }
    }

    /// Allocates one contiguous extent (merged runs must stay contiguous,
    /// so shrinking is not an option — only failover).
    fn alloc(&mut self, fb: &mut FileBackend, len: u64) -> Result<FileId, AlgoError> {
        loop {
            match fb.alloc(&self.device, len) {
                Ok(f) => return Ok(f),
                Err(e) if e.is_capacity() => self.fail_over(fb, e)?,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Writes `bytes` (whole `tb`-byte tuples, one sorted batch) as one
    /// spill extent — one run — appending `(file, bytes)` to `out`. On
    /// capacity exhaustion the extent size halves — a contiguous slice of
    /// a sorted batch is still a sorted run — and when single-tuple extents
    /// no longer fit it fails over to the alternate device.
    fn spill_rows(
        &mut self,
        fb: &mut FileBackend,
        bytes: &[u8],
        tb: u64,
        out: &mut Vec<(FileId, u64)>,
    ) -> Result<(), AlgoError> {
        let rows = bytes.len() as u64 / tb;
        let mut start = 0u64;
        let mut chunk = rows;
        while start < rows {
            let n = chunk.min(rows - start);
            match fb.alloc(&self.device, n * tb) {
                Ok(f) => {
                    fb.write_bytes(
                        f,
                        0,
                        &bytes[(start * tb) as usize..((start + n) * tb) as usize],
                    )?;
                    out.push((f, n * tb));
                    start += n;
                }
                Err(e) if e.is_capacity() => {
                    if chunk > 1 {
                        chunk /= 2;
                        fb.note_degradation(&self.device, "shrink");
                    } else {
                        self.fail_over(fb, e)?;
                        // Fresh device: go back to full-size extents.
                        chunk = rows;
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Reserves the next extent of one spill stream: whole pool pages from
    /// a page boundary (the device's watermark is padded up to one first),
    /// [`PARTITION_EXTENT_PAGES`] of them and never less than hold
    /// `stage_bytes`, the stream's longest append. A reservation that does
    /// not fit halves down to that floor, then fails over to the alternate
    /// device and starts again at full size.
    fn reserve(&mut self, fb: &mut FileBackend, stage_bytes: u64) -> Result<Extent, AlgoError> {
        let mut shrunk_to: Option<u64> = None;
        loop {
            let page = fb.page_bytes(&self.device)?;
            let floor = stage_bytes.div_ceil(page).max(1);
            let pages = shrunk_to.unwrap_or(PARTITION_EXTENT_PAGES.max(floor));
            let pad = fb
                .watermark(&self.device)
                .map_or(0, |mark| mark.next_multiple_of(page) - mark);
            let aligned = match pad {
                0 => Ok(()),
                _ => fb.alloc(&self.device, pad).map(|_| ()),
            };
            match aligned.and_then(|()| fb.alloc(&self.device, pages * page)) {
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
                        fb.note_degradation(&self.device, "shrink");
                    } else {
                        self.fail_over(fb, e)?;
                        shrunk_to = None;
                    }
                }
                Err(e) => return Err(e.into()),
            }
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
    /// (input cursors, bucket staging, run buffers, the output staging
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

/// One sorted run on the scratch device.
struct RunFile {
    file: FileId,
    card: u64,
}

/// A buffered cursor over the tuples of one file region (a sorted run, an
/// input relation, a column): refills a `b_in`-tuple flat batch on demand
/// through the backend's scratch buffer — bounded memory per cursor.
struct RunReader {
    file: FileId,
    card: u64,
    width: usize,
    next: u64,
    buf: RowBuf,
    /// Rows in `buf`, cached at refill: `RowBuf::len` divides, and `head`
    /// runs once or more per merged row.
    rows: usize,
    pos: usize,
    b_in: u64,
}

impl RunReader {
    fn new(file: FileId, card: u64, width: usize, b_in: u64) -> RunReader {
        RunReader {
            file,
            card,
            width,
            next: 0,
            buf: RowBuf::new(width),
            rows: 0,
            pos: 0,
            b_in: b_in.max(1),
        }
    }

    /// Resident buffer bytes.
    fn resident_bytes(&self) -> u64 {
        (self.rows * self.width * 8) as u64
    }

    /// Refills the buffer if it is exhausted and tuples remain on disk.
    fn ensure(&mut self, fb: &mut FileBackend) -> Result<(), AlgoError> {
        if self.pos >= self.rows && self.next < self.card {
            let take = self.b_in.min(self.card - self.next);
            self.buf.clear();
            fb.read_rows(self.file, self.next, take, self.width, &mut self.buf)?;
            self.rows = take as usize;
            self.pos = 0;
            self.next += take;
        }
        Ok(())
    }

    /// The buffered head row, by reference (no I/O — call `ensure` first).
    #[cfg(test)]
    fn head(&self) -> Option<&[i64]> {
        if self.pos < self.rows {
            Some(self.buf.row(self.pos))
        } else {
            None
        }
    }

    /// Steps past the buffered head row.
    #[cfg(test)]
    fn advance(&mut self) {
        self.pos += 1;
    }
}

/// The rows a merge cursor holds that the merge kernel has not been handed
/// yet: all of a freshly filled buffer, none of one the kernel reported dry.
fn buffered(r: &RunReader) -> &[i64] {
    &r.buf.as_slice()[r.pos * r.width..r.rows * r.width]
}

/// Where the batches of one merge go.
enum MergeDest<'a> {
    /// Into one contiguous extent, batch after batch from its start: a
    /// merged run on the scratch device, or — on the last pass — the
    /// sort's output extent.
    Extent(FileId),
    /// Onto the collected rows of a [`Output::Discard`] run (the last pass
    /// only).
    Rows(&'a mut RowBuf),
}

/// Merges the sorted `runs` into `dest`, `b_out` rows a batch, through one
/// `b_in`-row cursor per run and the engine's batch merge kernel.
///
/// The request order is that of a loop which refills every cursor before
/// picking each row: a cursor is refilled only once its last buffered row
/// is out, and a batch which that row completed is written *before* the
/// refill is read. Every written batch — the last, partial one too — is
/// metered: the cursors' buffers, the batch, and its encoding when it goes
/// to a device.
#[allow(clippy::too_many_arguments)]
fn merge_group(
    fb: &mut FileBackend,
    runs: &[RunFile],
    width: usize,
    b_in: u64,
    b_out: u64,
    mut dest: MergeDest<'_>,
    encode_buf: &mut Vec<u8>,
    gauge: &mut MemGauge,
) -> Result<(), AlgoError> {
    let tb = width as u64 * 8;
    let mut readers: Vec<RunReader> = runs
        .iter()
        .map(|r| RunReader::new(r.file, r.card, width, b_in))
        .collect();
    for r in readers.iter_mut() {
        r.ensure(fb)?;
    }
    let mut heads = MergeHeads::new(
        width,
        &readers.iter().map(buffered).collect::<Vec<&[i64]>>(),
    );
    let mut batch = RowBuf::with_capacity(width, b_out as usize);
    let mut written = 0u64;
    loop {
        let stop = heads.fill(
            &readers.iter().map(buffered).collect::<Vec<&[i64]>>(),
            b_out as usize - batch.len(),
            &mut batch,
        );
        let rows = batch.len() as u64;
        if rows == b_out || (stop == MergeStop::Done && rows > 0) {
            let cursors: u64 = readers.iter().map(RunReader::resident_bytes).sum();
            match &mut dest {
                MergeDest::Extent(file) => {
                    gauge.note(cursors + 2 * rows * tb);
                    encode_buf.clear();
                    batch.encode_into(8, encode_buf);
                    fb.write_bytes(*file, written * tb, encode_buf)?;
                }
                MergeDest::Rows(collected) => {
                    gauge.note(cursors + rows * tb);
                    collected.extend_raw(batch.as_slice());
                }
            }
            written += rows;
            batch.clear();
        }
        match stop {
            MergeStop::Full => {}
            MergeStop::Dry(i) => {
                // The kernel took every buffered row: the cursor is due.
                readers[i].pos = readers[i].rows;
                readers[i].ensure(fb)?;
            }
            MergeStop::Done => {
                debug_assert_eq!(written, runs.iter().map(|r| r.card).sum::<u64>());
                return Ok(());
            }
        }
    }
}

/// Runs a real 2ᵏ-way external merge-sort: sorted run formation on the
/// scratch device, then `fan_in`-way merge passes with `b_in`-tuple input
/// buffers and a `b_out`-tuple output buffer. The last pass — the one that
/// leaves a single run — is the output pass: its batches go to `output`,
/// not to one more scratch run that would have to be copied out. An input
/// that forms a single run is never spilled at all.
#[allow(clippy::too_many_arguments)]
pub fn external_sort(
    fb: &mut FileBackend,
    input: &Relation,
    fan_in: u64,
    b_in: u64,
    b_out: u64,
    scratch: &str,
    output: &Output,
) -> Result<AlgoRun, AlgoError> {
    let guard = SpillGuard::new(fb, Some(scratch), output);
    match sort_inner(fb, input, fan_in, b_in, b_out, scratch, output) {
        Ok(run) => Ok(run),
        Err(e) => {
            guard.cleanup(fb);
            Err(e)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn sort_inner(
    fb: &mut FileBackend,
    input: &Relation,
    fan_in: u64,
    b_in: u64,
    b_out: u64,
    scratch: &str,
    output: &Output,
) -> Result<AlgoRun, AlgoError> {
    let width = check_width(input)?;
    let tb = input.tuple_bytes;
    let fan_in = fan_in.max(2);
    let (b_in, b_out) = (b_in.max(1), b_out.max(1));
    let mut gauge = MemGauge::default();

    let run_tuples = (fan_in * b_in + b_out).max(1);
    let mut sink = RealSink::new(output, width, tb);
    let mut batch = RowBuf::new(width);
    let mut encode_buf: Vec<u8> = Vec::new();
    if input.card <= run_tuples {
        // An input that forms a single run goes from the sorted batch to
        // the sink: nothing to merge, so nothing to spill.
        if input.card > 0 {
            fb.read_rows(input.file, 0, input.card, width, &mut batch)?;
            batch.sort();
            match output {
                Output::ToDevice { device, .. } => {
                    batch.encode_into(8, &mut encode_buf);
                    gauge.note(input.card * tb * 2);
                    let out_file = fb.alloc(device, input.card * tb)?;
                    fb.write_bytes(out_file, 0, &encode_buf)?;
                    sink.extents.push((out_file, input.card * tb));
                }
                Output::Discard => {
                    gauge.note(input.card * tb);
                    sink.collected = batch;
                }
            }
            sink.rows = input.card;
        }
        return sink.finish(fb, gauge);
    }

    // Run formation under the merge's memory footprint: fan_in input
    // buffers plus the output buffer. A sorted batch normally becomes one
    // run; under capacity pressure the spill allocator splits it into
    // several smaller (still sorted) runs or fails over devices.
    let mut spill = SpillAlloc::new(fb, scratch);
    let mut runs: Vec<RunFile> = Vec::new();
    let mut extents: Vec<(FileId, u64)> = Vec::new();
    let mut at = 0u64;
    while at < input.card {
        let take = run_tuples.min(input.card - at);
        batch.clear();
        fb.read_rows(input.file, at, take, width, &mut batch)?;
        batch.sort();
        encode_buf.clear();
        batch.encode_into(8, &mut encode_buf);
        gauge.note(take * tb * 2); // batch + its encoding
        extents.clear();
        spill.spill_rows(fb, &encode_buf, tb, &mut extents)?;
        runs.extend(extents.iter().map(|&(file, bytes)| RunFile {
            file,
            card: bytes / tb,
        }));
        at += take;
    }
    drop(batch); // the merges hold cursors and one output batch instead

    // Merge passes onto the scratch device, fan_in runs at a time, until
    // one more pass leaves a single run.
    while runs.len() > fan_in as usize {
        let mut next: Vec<RunFile> = Vec::new();
        for group in runs.chunks(fan_in as usize) {
            if group.len() == 1 {
                next.push(RunFile {
                    file: group[0].file,
                    card: group[0].card,
                });
                continue;
            }
            let total: u64 = group.iter().map(|r| r.card).sum();
            let merged = spill.alloc(fb, (total * tb).max(1))?;
            merge_group(
                fb,
                group,
                width,
                b_in,
                b_out,
                MergeDest::Extent(merged),
                &mut encode_buf,
                &mut gauge,
            )?;
            next.push(RunFile {
                file: merged,
                card: total,
            });
        }
        runs = next;
    }

    // That pass is the output pass.
    let dest = match output {
        Output::ToDevice { device, .. } => {
            let out_file = fb.alloc(device, input.card * tb)?;
            sink.extents.push((out_file, input.card * tb));
            MergeDest::Extent(out_file)
        }
        Output::Discard => {
            // Reserved once: the cardinality is known.
            sink.collected = RowBuf::with_capacity(width, input.card as usize);
            MergeDest::Rows(&mut sink.collected)
        }
    };
    merge_group(
        fb,
        &runs,
        width,
        b_in,
        b_out,
        dest,
        &mut encode_buf,
        &mut gauge,
    )?;
    sink.rows = input.card;
    sink.finish(fb, gauge)
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
        stream.push(spill.reserve(fb, stage_bytes)?);
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
    let per_bucket_buf = (buffer_bytes / partitions.max(1)).max(tb);
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
/// `partitions` spill files on the `spill` device, then each co-bucket pair
/// is read back and joined in memory (build an index over the left batch,
/// probe with the right), results flowing through a buffered writer to
/// `output`.
#[allow(clippy::too_many_arguments)]
pub fn grace_join(
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
    let partitions = partitions.max(1);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::PoolConfig;
    use ocas_engine::RelSpec;
    use ocas_hierarchy::presets;
    use proptest::prelude::*;

    fn backend() -> FileBackend {
        FileBackend::from_hierarchy(&presets::hdd_ram(1 << 25), PoolConfig::default()).unwrap()
    }

    /// True when reader `a`'s head is merged before reader `b`'s: the smaller
    /// row, the lower reader on a tie (which keeps the merge stable), and any
    /// row before an exhausted reader.
    fn merges_first(readers: &[RunReader], a: usize, b: usize) -> bool {
        match (readers[a].head(), readers[b].head()) {
            (Some(x), Some(y)) => match x.cmp(y) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => a < b,
            },
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    /// A tournament tree over the readers of one merge: `nodes[0]` is the
    /// reader whose head is merged next, `nodes[1..]` the loser of each match
    /// on the way up (heap layout; reader `i` is leaf `k + i`). After the
    /// winner advances only its own path is replayed — `log2(k)` comparisons a
    /// row instead of a scan of every reader.
    struct LoserTree {
        nodes: Vec<usize>,
    }

    impl LoserTree {
        fn new(readers: &[RunReader]) -> LoserTree {
            let k = readers.len();
            // Play every match bottom-up; `winners[n]` is who left node `n`.
            let mut winners: Vec<usize> = (0..2 * k).map(|n| n.saturating_sub(k)).collect();
            let mut nodes = vec![0; k];
            for n in (1..k).rev() {
                let (a, b) = (winners[2 * n], winners[2 * n + 1]);
                let a_wins = merges_first(readers, a, b);
                winners[n] = if a_wins { a } else { b };
                nodes[n] = if a_wins { b } else { a };
            }
            nodes[0] = winners[1];
            LoserTree { nodes }
        }

        fn winner(&self) -> usize {
            self.nodes[0]
        }

        /// Replays the matches of reader `i` (the last winner) after its head
        /// changed.
        fn replay(&mut self, readers: &[RunReader], i: usize) {
            let mut winner = i;
            let mut n = (readers.len() + i) / 2;
            while n > 0 {
                if merges_first(readers, self.nodes[n], winner) {
                    std::mem::swap(&mut self.nodes[n], &mut winner);
                }
                n /= 2;
            }
            self.nodes[0] = winner;
        }
    }

    /// Merges the sorted runs behind `readers` (at least one) into one sorted
    /// stream, handing `emit` the readers and the index of the one whose head
    /// is the next row. A refill is issued only for the reader that just
    /// advanced, and only after `emit` returned — so whatever `emit` writes
    /// precedes the read, as it would in a loop that refilled every reader
    /// before each pick.
    fn merge_runs(
        fb: &mut FileBackend,
        readers: &mut [RunReader],
        mut emit: impl FnMut(&mut FileBackend, &[RunReader], usize) -> Result<(), AlgoError>,
    ) -> Result<(), AlgoError> {
        for r in readers.iter_mut() {
            r.ensure(fb)?;
        }
        let mut tree = LoserTree::new(readers);
        loop {
            let i = tree.winner();
            if readers[i].head().is_none() {
                return Ok(()); // the best reader is exhausted: all are
            }
            emit(fb, readers, i)?;
            readers[i].advance();
            readers[i].ensure(fb)?;
            tree.replay(readers, i);
        }
    }

    /// Writes `rows` (uncharged) as one file on `device`.
    fn file_of(fb: &mut FileBackend, device: &str, rows: &RowBuf) -> FileId {
        let bytes = rows.encode();
        let file = fb.alloc(device, (bytes.len() as u64).max(1)).unwrap();
        fb.materialize(file, 0, &bytes).unwrap();
        file
    }

    /// The charged requests on `device`'s obs track, in order.
    fn requests(trace: &ocas_obs::Trace, device: &str) -> Vec<(&'static str, u64)> {
        trace
            .events
            .iter()
            .filter(|e| e.kind == ocas_obs::EventKind::Span && trace.track(e) == device)
            .map(|e| {
                let bytes = e.args.iter().find(|(name, _)| *name == "bytes");
                (e.name, bytes.expect("a request has bytes").1 as u64)
            })
            .collect()
    }

    /// The request order of the merge, pinned on the device's obs track:
    /// the write of a full batch precedes the refill read of the cursor
    /// whose last row completed it.
    #[test]
    fn a_full_batch_is_written_before_the_cursor_it_exhausted_is_refilled() {
        let mut fb = backend();
        // Two batches of 12 (fan_in * b_in + b_out), every row of the first
        // below every row of the second: cursor 0 runs dry exactly when a
        // 4-row batch fills, three times, then cursor 1 does the same.
        let rows: Vec<i64> = (0..12).rev().chain((12..24).rev()).collect();
        let file = file_of(&mut fb, "HDD", &RowBuf::from_vec(rows, 1));
        let rel = Relation::attach(file, 24, 1, 24);
        let out = Output::ToDevice {
            device: "HDD".into(),
            buffer_bytes: 32,
        };
        ocas_obs::start();
        let run = external_sort(&mut fb, &rel, 2, 4, 4, "HDD", &out).unwrap();
        let trace = ocas_obs::finish().expect("recording");
        assert_eq!(
            run.harvest(&mut fb).unwrap().as_slice(),
            (0..24).collect::<Vec<i64>>()
        );
        let (r, w) = (("read", 32), ("write", 32));
        let want = [
            // Run formation: two sorted batches, two runs.
            ("read", 96),
            ("write", 96),
            ("read", 96),
            ("write", 96),
            // The output pass: both cursors filled, then a write per batch,
            // each before the refill it triggered; a run's last batch
            // triggers none.
            r,
            r,
            w,
            r,
            w,
            r,
            w,
            w,
            r,
            w,
            r,
            w,
        ];
        assert_eq!(requests(&trace, "dev:HDD"), want);
    }

    /// A merge whose output never fills a batch is metered all the same:
    /// its cursors and the partial batch it wrote.
    #[test]
    fn a_merge_shorter_than_one_batch_is_still_metered() {
        let mut fb = backend();
        let runs: Vec<RunFile> = [[1i64, 4, 7], [2, 5, 8]]
            .iter()
            .map(|rows| RunFile {
                file: file_of(&mut fb, "HDD", &RowBuf::from_vec(rows.to_vec(), 1)),
                card: 3,
            })
            .collect();
        let mut gauge = MemGauge::default();
        let mut collected = RowBuf::new(1);
        let dest = MergeDest::Rows(&mut collected);
        merge_group(&mut fb, &runs, 1, 2, 100, dest, &mut Vec::new(), &mut gauge).unwrap();
        assert_eq!(collected.as_slice(), [1, 2, 4, 5, 7, 8]);
        // Two one-row cursor tails (the second refills) and six batch rows.
        assert_eq!(gauge.peak, (2 + 6) * 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The literal merge against a stable sort of the concatenation,
        /// and the batch merge against the literal one: any number of runs
        /// (one, powers of two and not, up to 17 — past the kernel's scan
        /// into its tree), widths 1 to 3, unequal and empty runs, keys from
        /// a domain small enough that most rows tie — and a tie goes to the
        /// lower run — with both extreme keys in it; rows collected and
        /// rows written to an extent.
        #[test]
        fn merge_runs_is_the_stable_sort_of_the_concatenation(
            (width, b_in, b_out) in (1usize..4, 1u64..6, 1u64..9),
            lens in proptest::collection::vec(0usize..13, 1..18),
            draws in proptest::collection::vec((0i64..5, 0i64..2, 0i64..2), 200..201),
        ) {
            let mut fb = backend();
            let mut draw = draws.iter().cycle();
            let mut readers = Vec::new();
            let mut runs = Vec::new();
            let mut tagged: Vec<(Vec<i64>, usize)> = Vec::new();
            for (run, &len) in lens.iter().enumerate() {
                let mut rows = RowBuf::new(width);
                for _ in 0..len {
                    let (a, b, c) = *draw.next().expect("cycled");
                    let key = match a { 0 => i64::MIN, 4 => i64::MAX, a => a };
                    rows.push(&[key, b, c][..width]);
                }
                rows.sort();
                tagged.extend(rows.iter().map(|r| (r.to_vec(), run)));
                let file = file_of(&mut fb, "HDD", &rows);
                readers.push(RunReader::new(file, len as u64, width, b_in));
                runs.push(RunFile { file, card: len as u64 });
            }
            let mut got: Vec<(Vec<i64>, usize)> = Vec::new();
            merge_runs(&mut fb, &mut readers, |_, readers, i| {
                got.push((readers[i].head().expect("has a head").to_vec(), i));
                Ok(())
            })
            .unwrap();
            tagged.sort(); // by row, then by run: the stable order
            prop_assert_eq!(&got, &tagged);

            let want: Vec<i64> = tagged.iter().flat_map(|(row, _)| row.iter().copied()).collect();
            let (mut gauge, mut encode_buf) = (MemGauge::default(), Vec::new());
            let mut collected = RowBuf::new(width);
            let dest = MergeDest::Rows(&mut collected);
            merge_group(&mut fb, &runs, width, b_in, b_out, dest, &mut encode_buf, &mut gauge)
                .unwrap();
            prop_assert_eq!(collected.as_slice(), want.as_slice());
            let merged = fb.alloc("HDD", (want.len() as u64 * 8).max(1)).unwrap();
            let dest = MergeDest::Extent(merged);
            merge_group(&mut fb, &runs, width, b_in, b_out, dest, &mut encode_buf, &mut gauge)
                .unwrap();
            let mut written = RowBuf::new(width);
            fb.peek_rows(merged, 0, (want.len() / width) as u64, width, &mut written).unwrap();
            prop_assert_eq!(written.as_slice(), want.as_slice());
        }

        /// The whole sort, run formation included, at the degenerate buffer
        /// sizes: one-tuple input and output buffers, fan-ins that are not
        /// powers of two, inputs that form no run, one run (never spilled)
        /// and several merge levels, keys up to `i64::MAX` — collected, and
        /// written to the scratch device or to another one.
        #[test]
        fn external_sort_sorts_at_every_buffer_geometry(
            (fan_in, b_in, b_out) in (2u64..17, 1u64..4, 1u64..4),
            (card, wide, key_range) in (0u64..260, 0u32..2, 1u64..40),
        ) {
            let h = presets::two_hdd_ram(1 << 25);
            let mut fb = FileBackend::from_hierarchy(&h, PoolConfig::default()).unwrap();
            let spec = match wide {
                0 => RelSpec::ints("L", "HDD", card),
                _ => RelSpec::pairs("L", "HDD", card),
            }
            .with_key_range(key_range);
            let width = spec.width as usize;
            let drawn = Relation::create(&mut fb, &spec, true, fan_in * 1000 + card).unwrap();
            // The top of the key range becomes the top of the key domain.
            let rows: Vec<i64> = drawn
                .collect_rows()
                .expect("faithful rows")
                .iter()
                .flat_map(|row| {
                    let top = row[0] == key_range as i64 - 1;
                    std::iter::once(if top { i64::MAX } else { row[0] }).chain(row[1..].iter().copied())
                })
                .collect();
            let mut want = RowBuf::from_vec(rows, width);
            let rel = Relation::attach(file_of(&mut fb, "HDD", &want), card, width as u32, key_range);
            want.sort();
            for output in [
                Output::Discard,
                Output::ToDevice { device: "HDD".into(), buffer_bytes: 64 },
                Output::ToDevice { device: "HDD2".into(), buffer_bytes: 64 },
            ] {
                let run = external_sort(&mut fb, &rel, fan_in, b_in, b_out, "HDD", &output).unwrap();
                prop_assert_eq!(run.rows, card);
                prop_assert_eq!(&run.harvest(&mut fb).unwrap(), &want, "{:?}", output);
            }
        }
    }
}
