//! Plan execution against a storage backend.
//!
//! The executor is generic over [`StorageBackend`]: the same plan, in the
//! same mode, issues the same request stream whether the backend is the
//! device simulator (`StorageSim`, simulated seconds) or the real-I/O file
//! backend of the `ocas-runtime` crate (actual temp files, wall seconds).
//!
//! The data path is **flat-batch**: tuples move as [`RowBuf`] blocks and
//! operator inner loops work on borrowed row slices ([`RowsView`]) — no
//! per-tuple heap allocation anywhere between a relation's buffer and the
//! output sink.

use crate::key_index::{self, KeyIndex};
use crate::key_scan::KeyColumns;
use crate::merge_kernel::{MergeHeads, MergeStop};
use crate::plan::{CpuModel, JoinPred, MergeKind, Mode, Output, Plan};
use crate::rel::{BlockBuf, BlockCursor, Relation, RowBuf, RowsView};
use crate::spill::{stage_rows, Extent, SpillAlloc};
use crate::stream_kernel::{dedup, merge_pass, zip};
use ocas_storage::{CacheSim, CacheStats, FileId, StorageBackend, StorageError, StorageSim};
use std::fmt;

/// Execution errors.
#[derive(Debug)]
pub enum ExecError {
    /// Storage-level failure (capacity, bounds).
    Storage(StorageError),
    /// A plan referenced a relation index that does not exist.
    BadRelation(usize),
    /// A plan parameter is invalid (zero block size, fan-in < 2, …).
    BadParameter(&'static str),
    /// Faithful mode requested but a relation has no rows.
    MissingRows(usize),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::BadRelation(i) => write!(f, "no relation with index {i}"),
            ExecError::BadParameter(what) => write!(f, "invalid plan parameter: {what}"),
            ExecError::MissingRows(i) => {
                write!(f, "relation {i} has no rows (faithful mode needs data)")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> ExecError {
        ExecError::Storage(e)
    }
}

/// What one plan execution produced.
#[derive(Debug, Clone)]
pub struct ExecStats {
    /// Simulated seconds (I/O + modeled CPU).
    pub seconds: f64,
    /// Rows produced (exact in faithful mode, modeled in simulated mode).
    pub output_rows: u64,
    /// Tuple comparisons performed/modeled. A faithful block-nested-loops
    /// join counts the pairs its synthesized loops range over (outer block
    /// x inner block, per block pair) — the quantity the cost model and the
    /// CPU model reason about — however the executor finds the matches
    /// among them.
    pub compares: u64,
    /// Output rows materialized in faithful mode, one flat batch (`None`
    /// in simulated mode or when the executor's output collection is
    /// switched off for larger-than-RAM faithful runs).
    pub output: Option<RowBuf>,
    /// FNV-1a digest over every emitted row's column values, in emission
    /// order: `Some` for a faithful run that did not collect its output
    /// (one witness per run — nothing is hashed for rows that are kept;
    /// [`ExecStats::digest`] gives the digest of either). Lets two faithful
    /// twins — simulator and real backend — be compared without
    /// materializing either output.
    pub output_digest: Option<u64>,
    /// Columns per output row.
    pub output_width: usize,
    /// Where a faithful run's [`Output::ToDevice`] rows can be read back
    /// from: `(file, bytes)`, the rows in emission order from the file's
    /// start, `output_width` 8-byte columns each. `None` for narrower
    /// columns and for an output that outgrew the sink's wrap-around
    /// window (witnessed by its row count and digest).
    pub output_extent: Option<(FileId, u64)>,
    /// High-water mark of resident tuple bytes the faithful data path
    /// held during this run: relation cache windows, decoded blocks and
    /// the sink's staging/collected rows — for an external sort, its
    /// batch, cursors and output batch (see `sort_faithful`); for a GRACE
    /// join, an input block and the bucket staging buffers, then the build
    /// bucket, one probe extent and the sink's staging (see
    /// `grace_faithful`). 0 in simulated mode.
    pub peak_resident_bytes: u64,
    /// Cache statistics, when a cache simulator was attached.
    pub cache: Option<CacheStats>,
    /// Fault-injection and recovery counters reported by the backend
    /// (`None` for backends that neither inject faults nor degrade).
    pub recovery: Option<ocas_storage::RecoveryCounters>,
}

impl ExecStats {
    /// The emission digest of a faithful run: `output_digest`, or the same
    /// fold over the collected rows.
    pub fn digest(&self) -> Option<u64> {
        let rows = self.output.as_ref();
        (self.output_digest).or_else(|| rows.map(|o| fnv_values(FNV_OFFSET, o.as_slice())))
    }
}

/// The plan executor: owns the storage backend, the relation table and
/// the CPU/cache models.
pub struct Executor<B: StorageBackend = StorageSim> {
    /// The clocked storage layer (simulated or real).
    pub sm: B,
    /// Relation table (plans refer to relations by index).
    pub rels: Vec<Relation>,
    /// Faithful or simulated execution.
    pub mode: Mode,
    /// CPU model.
    pub cpu: CpuModel,
    /// Optional CPU-cache simulator for the in-memory loops.
    pub cache: Option<CacheSim>,
    /// Whether faithful runs collect emitted rows into
    /// [`ExecStats::output`]. Defaults to true; switch off for
    /// faithful-scale runs whose output would not fit in memory (the
    /// [`ExecStats::output_digest`] still allows twin comparisons).
    pub collect_output: bool,
    /// High-water mark of resident tuple bytes, updated by the faithful
    /// operator loops (reset per run).
    peak_resident: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Folds row-major column values into a running FNV-1a digest.
fn fnv_values(mut h: u64, values: &[i64]) -> u64 {
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// The wrapping sum of column 0 over `bytes`, rows of `width` little-endian
/// 8-byte columns: the aggregate's inner loop over a data run, compiled once.
fn column0_sum(bytes: &[u8], width: usize) -> i64 {
    let first = |row: &[u8]| i64::from_le_bytes(row[..8].try_into().expect("an 8-byte column"));
    let rows = bytes.chunks_exact(8 * width);
    rows.fold(0i64, |sum, row| sum.wrapping_add(first(row)))
}

/// Expected matches between an outer block of `on` tuples and an inner
/// block of `in_n` tuples at match `density` (simulated mode).
fn expected_rows(on: u64, in_n: u64, density: f64) -> f64 {
    on as f64 * in_n as f64 * density
}

/// One step of simulated mode's emission recurrence: `c` expected rows
/// join the fractional `carry`; the whole part is emitted now, the rest
/// carried to the next inner block.
fn emit_step(c: f64, carry: f64) -> (u64, f64) {
    let expected = c + carry;
    let whole = expected.floor() as u64;
    (whole, expected - whole as f64)
}

/// [`emit_step`] applied `steps` times with the same `c`: total rows
/// emitted and the carry left over.
///
/// When `c` and `carry` are multiples of the largest power of two `g` for
/// which every multiple of `g` below `c + 1` is an `f64`, no step rounds
/// (`c + carry` stays on that grid, below `c + 1`), so the loop computes
/// exactly `steps * c + carry` and its integer and fractional parts are
/// taken in fixed point. Otherwise the steps are replayed one by one.
fn emit_steps(c: f64, steps: u64, carry: f64) -> (u64, f64) {
    // c + 1 < 2^(e + 1) (an inexact sum can only round up, which
    // coarsens the grid); g = 2^(e - 52).
    let e = ((c + 1.0).to_bits() >> 52) as i32 - 1023;
    if (0..=52).contains(&e) {
        let shift = (52 - e) as u32;
        let scale = (1u64 << shift) as f64;
        let (cs, ks) = (c * scale, carry * scale);
        if cs.fract() == 0.0 && ks.fract() == 0.0 {
            let total = u128::from(steps) * cs as u128 + ks as u128;
            if let Ok(rows) = u64::try_from(total >> shift) {
                let frac = (total & ((1u128 << shift) - 1)) as u64;
                return (rows, frac as f64 / scale);
            }
        }
    }
    let (mut rows, mut carry) = (0u64, carry);
    for _ in 0..steps {
        let whole;
        (whole, carry) = emit_step(c, carry);
        rows += whole;
    }
    (rows, carry)
}

/// Rows simulated mode emits while one outer block of `on` tuples meets a
/// whole inner relation of `card` tuples scanned in blocks of `k2`, and the
/// carry afterwards: `card / k2` equal steps, then the shorter last block.
fn emitted_over(on: u64, k2: u64, card: u64, density: f64, carry: f64) -> (u64, f64) {
    let (rows, carry) = emit_steps(expected_rows(on, k2, density), card / k2, carry);
    match card % k2 {
        0 => (rows, carry),
        tail => {
            let (whole, carry) = emit_step(expected_rows(on, tail, density), carry);
            (rows + whole, carry)
        }
    }
}

/// Buffered output sink. Each flush allocates a fresh extent right after
/// the previous one (the storage manager's bump allocator keeps them
/// contiguous), so writes are sequential on the device *unless* interleaved
/// reads move the head — which is exactly the paper's read/write
/// interference experiment.
///
/// Rows arrive as borrowed slices; they are appended to the flat
/// `collected` batch and encoded straight into the staging byte buffer — no
/// per-tuple allocation. (An external sort writes its own output extent and
/// hands the sink only its batches to witness.)
struct Sink {
    output: Output,
    tuple_bytes: u64,
    pending: u64,
    rows: u64,
    /// True for faithful runs: real payload bytes are encoded for device
    /// outputs, and the emitted rows are witnessed — kept in `collected`,
    /// or else folded into `digest`.
    faithful: bool,
    /// Columns per output row.
    width: usize,
    collected: Option<RowBuf>,
    /// Running FNV-1a digest over emitted rows (faithful mode, when they
    /// are not collected).
    digest: u64,
    /// `Some(col_bytes)` when every column encodes as the same number of
    /// little-endian bytes (`tuple_bytes / columns`); `None` falls back to
    /// padding/trimming full 8-byte columns to the declared tuple size.
    codec: Option<usize>,
    /// Encoded-but-unflushed row bytes (faithful mode only): flushes carry
    /// this payload so a real backend writes genuine tuples, not filler.
    encoded: Vec<u8>,
    /// One pre-allocated output extent, written sequentially with
    /// wrap-around; keeps metadata O(1) even for 100+ GB simulated outputs
    /// while preserving the head-movement behaviour of streaming writes.
    extent: Option<(FileId, u64)>,
    cursor: u64,
}

/// Size of the pre-allocated output region (wrap-around window).
const SINK_EXTENT: u64 = 1 << 30;

impl Sink {
    fn new(
        output: &Output,
        tuple_bytes: u64,
        out_cols: usize,
        faithful: bool,
        collect: bool,
    ) -> Sink {
        let want = tuple_bytes.max(1) as usize;
        let ncols = out_cols.max(1);
        let codec = if want % ncols == 0 && (1..=8).contains(&(want / ncols)) {
            Some(want / ncols)
        } else {
            None
        };
        Sink {
            output: output.clone(),
            tuple_bytes: tuple_bytes.max(1),
            pending: 0,
            rows: 0,
            faithful,
            width: ncols,
            collected: (faithful && collect).then(|| RowBuf::new(ncols)),
            digest: FNV_OFFSET,
            codec,
            encoded: Vec::new(),
            extent: None,
            cursor: 0,
        }
    }

    fn encoding(&self) -> bool {
        matches!(self.output, Output::ToDevice { .. }) && self.faithful
    }

    /// Resident staging bytes: encoded-but-unflushed payload plus (when
    /// output collection is on) the collected rows.
    #[inline]
    fn resident_bytes(&self) -> u64 {
        let collected = self
            .collected
            .as_ref()
            .map_or(0, |c| c.as_slice().len() as u64 * 8);
        self.encoded.len() as u64 + collected
    }

    /// Encodes the columns of one row in the on-disk tuple format
    /// `Relation::create` materializes.
    fn encode_cols<'a>(&mut self, cols: impl Iterator<Item = &'a i64>) {
        match self.codec {
            Some(8) => {
                for col in cols {
                    self.encoded.extend_from_slice(&col.to_le_bytes());
                }
            }
            Some(cb) => {
                for col in cols {
                    self.encoded.extend_from_slice(&col.to_le_bytes()[..cb]);
                }
            }
            None => {
                // Mixed-width tuples have no uniform column encoding; keep
                // the byte accounting exact by padding/trimming full
                // 8-byte columns to the declared tuple size.
                let want = self.tuple_bytes as usize;
                let mut n = 0usize;
                for col in cols {
                    if n >= want {
                        break;
                    }
                    let take = (want - n).min(8);
                    self.encoded.extend_from_slice(&col.to_le_bytes()[..take]);
                    n += take;
                }
                self.encoded
                    .extend(std::iter::repeat(0u8).take(want - n.min(want)));
            }
        }
    }

    /// Makes room for `rows` collected rows at once: the bound an operator
    /// knows on its output, so that collecting does not grow by doubling.
    fn reserve(&mut self, rows: u64) {
        if let Some(c) = &mut self.collected {
            c.raw_mut().reserve(rows as usize * self.width);
        }
    }

    /// Witnesses `values` (a row, rows, or the pieces of one in order): kept
    /// when collecting, else folded into the digest of a faithful run.
    #[inline(always)]
    fn witness(&mut self, values: &[i64]) {
        if let Some(c) = &mut self.collected {
            c.raw_mut().extend_from_slice(values);
        } else if self.faithful {
            self.digest = fnv_values(self.digest, values);
        }
    }

    /// How many rows a streaming kernel may emit before handing them over:
    /// the rows the output buffer absorbs, plus the one whose emission
    /// flushes it (no limit for a consumed output).
    fn room(&self) -> usize {
        match &self.output {
            Output::Discard => usize::MAX,
            Output::ToDevice { buffer_bytes, .. } => {
                let cap = (*buffer_bytes).max(self.tuple_bytes);
                let left = (cap - self.pending).div_ceil(self.tuple_bytes);
                usize::try_from(left).unwrap_or(usize::MAX)
            }
        }
    }

    /// Emits whole rows given row-major — a kernel's batch, or one row of a
    /// test oracle's loop — exactly as emitting them one at a time would:
    /// the witness, then the encoding and the flushes of a device-bound
    /// output.
    fn emit_rows<B: StorageBackend>(
        &mut self,
        sm: &mut B,
        values: &[i64],
    ) -> Result<(), ExecError> {
        if values.is_empty() {
            return Ok(());
        }
        self.witness(values);
        let n = (values.len() / self.width) as u64;
        if matches!(self.output, Output::Discard) {
            self.rows += n;
            return Ok(());
        }
        if self.faithful {
            match self.codec {
                Some(8) => self.encode_cols(values.iter()),
                _ => {
                    for row in values.chunks_exact(self.width) {
                        self.encode_cols(row.iter());
                    }
                }
            }
        }
        self.emit_bulk(sm, n)
    }

    /// Emits the join row `a ++ b` without materializing it first.
    fn emit_concat<B: StorageBackend>(
        &mut self,
        sm: &mut B,
        a: &[i64],
        b: &[i64],
    ) -> Result<(), ExecError> {
        if self.encoding() {
            self.encode_cols(a.iter().chain(b.iter()));
        }
        self.witness(a);
        self.witness(b);
        self.emit_bulk(sm, 1)
    }

    /// True when `n` more rows fit the output buffer without filling it,
    /// i.e. emitting them issues no write.
    fn absorbs(&self, n: u64) -> bool {
        match &self.output {
            Output::Discard => true,
            Output::ToDevice { buffer_bytes, .. } => n
                .checked_mul(self.tuple_bytes)
                .and_then(|bytes| bytes.checked_add(self.pending))
                .is_some_and(|pending| pending < (*buffer_bytes).max(self.tuple_bytes)),
        }
    }

    /// Counts `n` more rows and flushes every buffer they fill: one
    /// `flush_bytes` a buffer while the staged payload lasts, then the
    /// buffers that carry none — all of them in simulated mode — as runs
    /// (see [`flush_run`](Sink::flush_run)).
    fn emit_bulk<B: StorageBackend>(&mut self, sm: &mut B, n: u64) -> Result<(), ExecError> {
        self.rows += n;
        if let Output::ToDevice { buffer_bytes, .. } = &self.output {
            self.pending += n * self.tuple_bytes;
            let cap = (*buffer_bytes).max(self.tuple_bytes);
            while self.pending >= cap && !self.encoded.is_empty() {
                self.flush_bytes(sm, cap)?;
                self.pending -= cap;
            }
            let whole = self.pending / cap;
            if whole > 0 {
                self.flush_run(sm, cap, whole)?;
                self.pending -= whole * cap;
            }
        }
        Ok(())
    }

    /// The output extent, allocated on the output device by the first
    /// flush.
    fn extent<B: StorageBackend>(&mut self, sm: &mut B) -> Result<(FileId, u64), ExecError> {
        if let Some(e) = self.extent {
            return Ok(e);
        }
        let Output::ToDevice { device, .. } = &self.output else {
            unreachable!("only a device-bound output flushes");
        };
        let file = sm.alloc(device, SINK_EXTENT)?;
        self.extent = Some((file, SINK_EXTENT));
        Ok((file, SINK_EXTENT))
    }

    /// Flushes `count` whole buffers of `cap` bytes that carry no payload:
    /// the requests `count` calls of `flush_bytes(cap)` issue, with the
    /// buffers that fit before the extent wraps issued as one
    /// [`write_run`](StorageBackend::write_run). A buffer that straddles
    /// the wrap is split by `flush_bytes`, as the loop splits it.
    fn flush_run<B: StorageBackend>(
        &mut self,
        sm: &mut B,
        cap: u64,
        mut count: u64,
    ) -> Result<(), ExecError> {
        let (file, len) = self.extent(sm)?;
        while count > 0 {
            if self.cursor >= len {
                self.cursor = 0;
            }
            let fit = ((len - self.cursor) / cap).min(count);
            if fit == 0 {
                self.flush_bytes(sm, cap)?;
                count -= 1;
            } else {
                sm.write_run(file, self.cursor, cap, fit)?;
                self.cursor += fit * cap;
                count -= fit;
            }
        }
        Ok(())
    }

    fn flush_bytes<B: StorageBackend>(&mut self, sm: &mut B, bytes: u64) -> Result<(), ExecError> {
        if bytes == 0 {
            return Ok(());
        }
        if let Output::ToDevice { .. } = &self.output {
            let (file, len) = self.extent(sm)?;
            let mut remaining = bytes;
            let mut drained = 0usize;
            while remaining > 0 {
                if self.cursor >= len {
                    self.cursor = 0;
                }
                let chunk = remaining.min(len - self.cursor);
                let available = self.encoded.len() - drained;
                if available > 0 {
                    let take = (chunk as usize).min(available);
                    sm.write_bytes(file, self.cursor, &self.encoded[drained..drained + take])?;
                    drained += take;
                    if (take as u64) < chunk {
                        sm.write(file, self.cursor + take as u64, chunk - take as u64)?;
                    }
                } else {
                    sm.write(file, self.cursor, chunk)?;
                }
                self.cursor += chunk;
                remaining -= chunk;
            }
            self.encoded.drain(..drained);
        }
        Ok(())
    }

    fn finish<B: StorageBackend>(mut self, sm: &mut B) -> Result<OpResult, ExecError> {
        let pending = self.pending;
        self.flush_bytes(sm, pending)?;
        let bytes = self.rows * self.tuple_bytes;
        // Real rows, all of them still there, eight bytes a column.
        let extent = self
            .extent
            .filter(|(_, len)| self.faithful && self.codec == Some(8) && bytes <= *len)
            .map(|(file, _)| (file, bytes));
        Ok(OpResult {
            rows: self.rows,
            width: self.width,
            digest: (self.faithful && self.collected.is_none()).then_some(self.digest),
            output: self.collected,
            extent,
        })
    }
}

/// What one operator produced: emitted rows, their witness (the collected
/// batch or else the emission digest, in faithful mode) and the extent a
/// device-bound output can be read back from.
#[derive(Default)]
struct OpResult {
    rows: u64,
    width: usize,
    output: Option<RowBuf>,
    digest: Option<u64>,
    extent: Option<(FileId, u64)>,
}

impl<B: StorageBackend> Executor<B> {
    /// Builds an executor over any storage backend.
    pub fn new(sm: B, mode: Mode, cpu: CpuModel) -> Executor<B> {
        Executor {
            sm,
            rels: Vec::new(),
            mode,
            cpu,
            cache: None,
            collect_output: true,
            peak_resident: 0,
        }
    }

    /// Attaches a cache simulator for in-memory loop accounting.
    pub fn with_cache(mut self, cache: CacheSim) -> Executor<B> {
        self.cache = Some(cache);
        self
    }

    /// Switches faithful output collection on/off, builder-style (off =
    /// larger-than-RAM faithful runs compare via
    /// [`ExecStats::output_digest`] instead).
    pub fn with_output_collection(mut self, collect: bool) -> Executor<B> {
        self.collect_output = collect;
        self
    }

    /// Records an observation of currently resident faithful tuple bytes.
    fn note_peak(&mut self, bytes: u64) {
        self.peak_resident = self.peak_resident.max(bytes);
    }

    /// The sink for one operator under the executor's mode and collection
    /// policy.
    fn sink(&self, output: &Output, tuple_bytes: u64, out_cols: usize) -> Sink {
        Sink::new(
            output,
            tuple_bytes,
            out_cols,
            self.faithful(),
            self.collect_output,
        )
    }

    /// Registers a relation, returning its plan index.
    pub fn add_relation(&mut self, rel: Relation) -> usize {
        self.rels.push(rel);
        self.rels.len() - 1
    }

    fn rel(&self, i: usize) -> Result<&Relation, ExecError> {
        self.rels.get(i).ok_or(ExecError::BadRelation(i))
    }

    fn faithful(&self) -> bool {
        self.mode == Mode::Faithful
    }

    fn charge_cpu(&mut self, compares: u64, emits: u64, hashes: u64) {
        if self.cpu.enabled {
            let t = compares as f64 * self.cpu.per_compare
                + emits as f64 * self.cpu.per_emit
                + hashes as f64 * self.cpu.per_hash;
            self.sm.charge_cpu(t);
        }
    }

    /// Runs a plan to completion.
    pub fn run(&mut self, plan: &Plan) -> Result<ExecStats, ExecError> {
        plan.validate()?;
        let t0 = self.sm.clock();
        let w0 = ocas_obs::wall_now();
        self.peak_resident = 0;
        let mut compares: u64 = 0;
        let op = match plan {
            Plan::BnlJoin {
                outer,
                inner,
                k1,
                k2,
                tiling,
                pred,
                order_inputs,
                output,
            } => self.run_bnl(
                *outer,
                *inner,
                *k1,
                *k2,
                *tiling,
                *pred,
                *order_inputs,
                output,
                &mut compares,
            )?,
            Plan::GraceJoin {
                left,
                right,
                partitions,
                buffer_bytes,
                spill,
                pred,
                output,
            } => self.run_grace(
                *left,
                *right,
                *partitions,
                *buffer_bytes,
                spill,
                *pred,
                output,
                &mut compares,
            )?,
            Plan::ExternalSort {
                input,
                fan_in,
                b_in,
                b_out,
                scratch,
                output,
            } => self.run_sort(
                *input,
                *fan_in,
                *b_in,
                *b_out,
                scratch,
                output,
                &mut compares,
            )?,
            Plan::MergePass {
                left,
                right,
                kind,
                b_in,
                output,
            } => self.run_merge(*left, *right, *kind, *b_in, output, &mut compares)?,
            Plan::ColumnZip {
                columns,
                b_in,
                output,
            } => self.run_columns(columns, *b_in, output)?,
            Plan::DedupSorted {
                input,
                b_in,
                output,
            } => self.run_dedup(*input, *b_in, output, &mut compares)?,
            Plan::Aggregate { input, b_in } => self.run_aggregate(*input, *b_in, &mut compares)?,
        };
        if ocas_obs::enabled() {
            // One span per operator instance, on the backend's clock
            // domain so it aligns with the device tracks below it.
            let clock = self.sm.obs_clock();
            let (start, dur) = match clock {
                ocas_obs::Clock::Sim => (t0, self.sm.clock() - t0),
                ocas_obs::Clock::Wall => (w0, ocas_obs::wall_now() - w0),
            };
            ocas_obs::span(
                clock,
                "engine",
                plan.name(),
                start,
                dur,
                &[
                    ("output_rows", op.rows as f64),
                    ("compares", compares as f64),
                    ("peak_resident_bytes", self.peak_resident as f64),
                ],
            );
        }
        Ok(ExecStats {
            seconds: self.sm.clock() - t0,
            output_rows: op.rows,
            compares,
            output: op.output,
            output_digest: op.digest,
            output_width: op.width,
            output_extent: op.extent,
            peak_resident_bytes: self.peak_resident,
            cache: self.cache.as_ref().map(|c| c.stats()),
            recovery: self.sm.recovery_counters(),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn run_bnl(
        &mut self,
        outer: usize,
        inner: usize,
        k1: u64,
        k2: u64,
        tiling: Option<crate::plan::Tiling>,
        pred: JoinPred,
        order_inputs: bool,
        output: &Output,
        compares: &mut u64,
    ) -> Result<OpResult, ExecError> {
        let (oi, ii) = if order_inputs && self.rel(outer)?.card > self.rel(inner)?.card {
            (inner, outer)
        } else {
            (outer, inner)
        };
        let mut o = self.rel(oi)?.clone();
        let mut i = self.rel(ii)?.clone();
        let out_width = o.tuple_bytes + i.tuple_bytes;
        let out_cols = (o.width + i.width) as usize;
        let mut sink = self.sink(output, out_width, out_cols);
        // Expected match density for simulated mode.
        let density = match pred {
            JoinPred::Cross => 1.0,
            JoinPred::KeyEq => 1.0 / o.key_range.max(i.key_range).max(1) as f64,
        };
        let inner_blocks = i.card.div_ceil(k2);
        let mut emits: u64 = 0;
        if self.faithful() {
            emits = self.bnl_faithful(&mut o, &mut i, k1, k2, tiling, pred, &mut sink, compares)?;
        } else {
            let mut carry = 0.0f64;
            let mut oidx = 0;
            while oidx < o.card {
                let on = o.read_block(&mut self.sm, oidx, k1)?;
                // At paper scale the per-pair count is astronomically
                // CPU-bound; real block joins hash the resident block (build
                // once per outer block amortized + one probe per inner
                // tuple), which is what simulated mode models per inner
                // block.
                let build_share = on / inner_blocks.max(1);
                let pass = Some(emitted_over(on, k2, i.card, density, carry))
                    .filter(|(rows, _)| sink.absorbs(*rows));
                if let Some((rows, carry_after)) = pass {
                    // The sink cannot flush before the pass ends, so the
                    // device sees nothing but the inner scan: issue it as
                    // one run.
                    i.read_scan(&mut self.sm, k2)?;
                    *compares += i.card + inner_blocks * build_share;
                    carry = carry_after;
                    emits += rows;
                    sink.emit_bulk(&mut self.sm, rows)?;
                } else {
                    let mut iidx = 0;
                    while iidx < i.card {
                        let in_n = i.read_block(&mut self.sm, iidx, k2)?;
                        *compares += in_n + build_share;
                        let whole;
                        (whole, carry) = emit_step(expected_rows(on, in_n, density), carry);
                        emits += whole;
                        sink.emit_bulk(&mut self.sm, whole)?;
                        iidx += in_n.max(1);
                    }
                }
                oidx += on.max(1);
            }
        }
        self.charge_cpu(*compares, emits, 0);
        sink.finish(&mut self.sm)
    }

    /// The faithful arm of [`run_bnl`](Executor::run_bnl): every block is
    /// a [`Relation::load_block`], so on a backend that holds the payload
    /// the join is computed on the bytes it read. Returns the emitted rows.
    #[allow(clippy::too_many_arguments)]
    fn bnl_faithful(
        &mut self,
        o: &mut Relation,
        i: &mut Relation,
        k1: u64,
        k2: u64,
        tiling: Option<crate::plan::Tiling>,
        pred: JoinPred,
        sink: &mut Sink,
        compares: &mut u64,
    ) -> Result<u64, ExecError> {
        let (otb, itb) = (o.tuple_bytes, i.tuple_bytes);
        let mut emits: u64 = 0;
        let mut keys = KeyColumns::default();
        let (mut oblock, mut iblock) = (BlockBuf::default(), BlockBuf::default());
        let mut oidx = 0;
        while oidx < o.card {
            // The outer block is resolved, and its key column taken,
            // once; every inner block then streams past it. Matches are
            // found by scanning key columns (see `key_scan`), but
            // `compares` stays what the model counts: the pairs the
            // synthesized loops range over.
            let on = k1.min(o.card - oidx);
            let orows = o.load_block(&mut self.sm, oidx, k1, &mut oblock)?;
            keys.set_outer(orows);
            // High-water mark of what streams past the outer block:
            // the inner block (or the window it is generated from) plus
            // the sink's staging.
            let mut streamed = None;
            let mut iidx = 0;
            while iidx < i.card {
                let in_n = k2.min(i.card - iidx);
                let irows = i.load_block(&mut self.sm, iidx, k2, &mut iblock)?;
                *compares += on * in_n;
                keys.set_inner(irows);
                self.join_tile(
                    orows, irows, &mut keys, oidx, iidx, otb, itb, tiling, pred, sink, &mut emits,
                )?;
                streamed = streamed.max(Some(
                    i.resident_bytes() + iblock.resident_bytes() + sink.resident_bytes(),
                ));
                iidx += in_n;
            }
            if let Some(streamed) = streamed {
                self.note_peak(o.resident_bytes() + oblock.resident_bytes() + streamed);
            }
            oidx += on;
        }
        Ok(emits)
    }

    /// Joins one outer block with one inner block, tile pair by tile pair,
    /// emitting in the nested loop's order: outer tile, inner tile, outer
    /// row, inner row. `keys` holds the two blocks' key columns.
    ///
    /// Everything the cost and cache models see is the nested loop's — one
    /// outer-tuple access and one inner-tile sweep per outer row of every
    /// tile pair — and none of it depends on how the matches are found;
    /// the literal pair loop is kept as this function's test oracle
    /// (`join_tile_literal`).
    #[allow(clippy::too_many_arguments)]
    fn join_tile(
        &mut self,
        orows: RowsView<'_>,
        irows: RowsView<'_>,
        keys: &mut KeyColumns,
        obase: u64,
        ibase: u64,
        otb: u64,
        itb: u64,
        tiling: Option<crate::plan::Tiling>,
        pred: JoinPred,
        sink: &mut Sink,
        emits: &mut u64,
    ) -> Result<(), ExecError> {
        // Virtual addresses for cache accounting: each relation gets its own
        // region; in-RAM block bases reflect the on-disk tuple positions.
        let oaddr = |idx: usize| (1u64 << 42) + (obase + idx as u64) * otb;
        let iaddr = |idx: usize| (2u64 << 42) + (ibase + idx as u64) * itb;
        let (to, ti) = match tiling {
            Some(t) => (t.outer.max(1) as usize, t.inner.max(1) as usize),
            None => (orows.len().max(1), irows.len().max(1)),
        };
        let (olen, ilen) = (orows.len(), irows.len());
        let (ow, iw) = (orows.width(), irows.width());
        let mut ob = 0;
        while ob < olen {
            let oend = (ob + to).min(olen);
            let mut ib = 0;
            while ib < ilen {
                let iend = (ib + ti).min(ilen);
                // With a cache simulator attached, accounting is batched
                // per outer row: one `access` for the outer tuple, one
                // `access_tuples` for the whole inner tile — exactly the
                // per-tuple access stream (pinned by a parity test in
                // `ocas-storage`) at per-line instead of per-tuple cost.
                if let Some(c) = &mut self.cache {
                    for x in ob..oend {
                        c.access(oaddr(x), otb);
                        c.access_tuples(iaddr(ib), itb, (iend - ib) as u64);
                    }
                }
                match pred {
                    // Emit-bound: every pair is a row.
                    JoinPred::Cross => {
                        let osub = &orows.as_slice()[ob * ow..oend * ow];
                        let isub = &irows.as_slice()[ib * iw..iend * iw];
                        for x in osub.chunks_exact(ow) {
                            for y in isub.chunks_exact(iw) {
                                *emits += 1;
                                sink.emit_concat(&mut self.sm, x, y)?;
                            }
                        }
                    }
                    JoinPred::KeyEq => {
                        let mut from = 0;
                        while from < oend - ob {
                            from = keys.find(ob..oend, ib..iend, from);
                            for (x, y) in keys.pairs() {
                                *emits += 1;
                                sink.emit_concat(
                                    &mut self.sm,
                                    orows.row(ob + x),
                                    irows.row(ib + y),
                                )?;
                            }
                        }
                    }
                }
                ib = iend;
            }
            ob = oend;
        }
        Ok(())
    }

    /// The faithful pair loop as every BNL plan ran it before the
    /// key-column scan: row-major, one strided compare and one branch per
    /// pair. Kept as the oracle [`join_tile`](Executor::join_tile) is held
    /// to — same rows in the same order, same emit count, same cache
    /// statistics.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    fn join_tile_literal(
        &mut self,
        orows: RowsView<'_>,
        irows: RowsView<'_>,
        obase: u64,
        ibase: u64,
        otb: u64,
        itb: u64,
        tiling: Option<crate::plan::Tiling>,
        pred: JoinPred,
        sink: &mut Sink,
        emits: &mut u64,
    ) -> Result<(), ExecError> {
        let oaddr = |idx: usize| (1u64 << 42) + (obase + idx as u64) * otb;
        let iaddr = |idx: usize| (2u64 << 42) + (ibase + idx as u64) * itb;
        let (to, ti) = match tiling {
            Some(t) => (t.outer.max(1) as usize, t.inner.max(1) as usize),
            None => (orows.len().max(1), irows.len().max(1)),
        };
        let (ow, iw) = (orows.width(), irows.width());
        let mut ob = 0;
        while ob < orows.len() {
            let oend = (ob + to).min(orows.len());
            let mut ib = 0;
            while ib < irows.len() {
                let iend = (ib + ti).min(irows.len());
                let osub = &orows.as_slice()[ob * ow..oend * ow];
                let isub = &irows.as_slice()[ib * iw..iend * iw];
                for (i, x) in osub.chunks_exact(ow).enumerate() {
                    if let Some(c) = &mut self.cache {
                        c.access(oaddr(ob + i), otb);
                        c.access_tuples(iaddr(ib), itb, (iend - ib) as u64);
                    }
                    match pred {
                        JoinPred::Cross => {
                            for y in isub.chunks_exact(iw) {
                                *emits += 1;
                                sink.emit_concat(&mut self.sm, x, y)?;
                            }
                        }
                        JoinPred::KeyEq => {
                            let x0 = x[0];
                            for y in isub.chunks_exact(iw) {
                                if x0 == y[0] {
                                    *emits += 1;
                                    sink.emit_concat(&mut self.sm, x, y)?;
                                }
                            }
                        }
                    }
                }
                ib = iend;
            }
            ob = oend;
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn run_grace(
        &mut self,
        left: usize,
        right: usize,
        partitions: u64,
        buffer_bytes: u64,
        spill: &str,
        pred: JoinPred,
        output: &Output,
        compares: &mut u64,
    ) -> Result<OpResult, ExecError> {
        let l = self.rel(left)?.clone();
        let r = self.rel(right)?.clone();
        let out_width = l.tuple_bytes + r.tuple_bytes;
        let out_cols = (l.width + r.width) as usize;
        let mut sink = self.sink(output, out_width, out_cols);
        if self.faithful() {
            let hashes = self.grace_faithful(
                (left, l),
                (right, r),
                (partitions, buffer_bytes),
                spill,
                pred,
                &mut sink,
                compares,
            )?;
            self.charge_cpu(*compares, sink.rows, hashes);
            return sink.finish(&mut self.sm);
        }
        let mut emits = 0u64;
        let mut hashes = 0u64;

        // Partition pass: stream each relation, spill bucket buffers as
        // they fill.
        let spill_partition =
            |this: &mut Executor<B>, rel: &Relation, hashes: &mut u64| -> Result<(), ExecError> {
                let tb = rel.tuple_bytes;
                let mut carry = 0u64;
                let per_bucket_buf = (buffer_bytes / partitions.max(1)).max(tb);
                let block = (buffer_bytes / tb).max(1);
                let mut idx = 0;
                while idx < rel.card {
                    let n = rel.read_block(&mut this.sm, idx, block)?;
                    *hashes += n;
                    // Uniform buckets: charge the same writes in bulk.
                    let bytes = n * rel.tuple_bytes;
                    let mut remaining = bytes;
                    while remaining >= per_bucket_buf {
                        let f = this.sm.alloc(spill, per_bucket_buf)?;
                        this.sm.write(f, 0, per_bucket_buf)?;
                        remaining -= per_bucket_buf;
                    }
                    // Remainder accumulates; approximate by carrying it
                    // into the next block.
                    carry += remaining;
                    if carry >= per_bucket_buf {
                        let f = this.sm.alloc(spill, carry)?;
                        this.sm.write(f, 0, carry)?;
                        carry = 0;
                    }
                    idx += n.max(1);
                }
                if carry > 0 {
                    let f = this.sm.alloc(spill, carry)?;
                    this.sm.write(f, 0, carry)?;
                }
                Ok(())
            };

        spill_partition(self, &l, &mut hashes)?;
        spill_partition(self, &r, &mut hashes)?;

        // Join pass: read each co-bucket pair back and join in memory.
        let density = match pred {
            JoinPred::Cross => 1.0,
            JoinPred::KeyEq => 1.0 / l.key_range.max(r.key_range).max(1) as f64,
        };
        let mut carry = 0.0f64;
        for _ in 0..partitions {
            let lcard = l.card / partitions;
            let rcard = r.card / partitions;
            let lbytes = lcard * l.tuple_bytes;
            let rbytes = rcard * r.tuple_bytes;
            if lbytes > 0 {
                let f = self.sm.alloc(spill, lbytes)?;
                self.sm.read(f, 0, lbytes)?;
            }
            if rbytes > 0 {
                let f = self.sm.alloc(spill, rbytes)?;
                self.sm.read(f, 0, rbytes)?;
            }
            hashes += lcard + rcard;
            *compares += lcard + rcard; // hash probes, not pairs
            let expected = lcard as f64 * rcard as f64 * density + carry;
            let whole = expected.floor() as u64;
            carry = expected - whole as f64;
            emits += whole;
            sink.emit_bulk(&mut self.sm, whole)?;
        }
        self.charge_cpu(*compares, emits, hashes);
        sink.finish(&mut self.sm)
    }

    /// The faithful arm of [`run_grace`](Executor::run_grace), on every
    /// backend: the out-of-core GRACE hash join itself. Returns the rows it
    /// hashed (once when partitioned, once when joined), for the CPU model.
    ///
    /// Each side is partitioned by [`partition_pass`](Executor::partition_pass)
    /// into bucket streams on the `spill` device — one [`SpillAlloc`] for
    /// both, so a failover while the left side spills holds for the right
    /// one. Then, bucket by bucket, the left (build) side's extents are read
    /// back, one request for each extent's filled prefix, and indexed by key
    /// ([`KeyIndex`]); the right (probe) side's extents are read the same
    /// way, one at a time, and each is probed as it arrives, so the probe
    /// bucket is never held whole. Rows leave in the order of a loop over
    /// the probe rows and, inside, the build rows that match (every build row
    /// of a cross product); `compares` counts one per pair emitted.
    ///
    /// The buckets come back from the backend that was given them — real
    /// files, or the simulator, which keeps what a data write carries — so
    /// the simulator twin issues the real run's requests and joins the same
    /// buckets. What is metered is what the join holds: an input block and
    /// the staging buffers while the sides partition, the build bucket, one
    /// probe extent and the sink's staged bytes while they join. Neither the
    /// generator window an input comes from on a backend without its payload
    /// nor the rows a `Discard` run collects count, so both twins, and a
    /// collected and a digested run, meter the same bytes. Columns narrower
    /// than 8 bytes are refused before any request.
    #[allow(clippy::too_many_arguments)]
    fn grace_faithful(
        &mut self,
        (left, l): (usize, Relation),
        (right, r): (usize, Relation),
        buckets: (u64, u64),
        spill: &str,
        pred: JoinPred,
        sink: &mut Sink,
        compares: &mut u64,
    ) -> Result<u64, ExecError> {
        let (lw, rw) = (l.width.max(1) as usize, r.width.max(1) as usize);
        if l.tuple_bytes != lw as u64 * 8 || r.tuple_bytes != rw as u64 * 8 {
            return Err(ExecError::BadParameter("GRACE join needs 8-byte columns"));
        }
        let mut hashes = 0u64;
        let mut alloc = SpillAlloc::new(&self.sm, spill);
        let lstreams = self.partition_pass((left, l), buckets, &mut alloc, &mut hashes)?;
        let rstreams = self.partition_pass((right, r), buckets, &mut alloc, &mut hashes)?;

        let (mut build, mut block) = (RowBuf::new(lw), BlockBuf::default());
        let mut index = KeyIndex::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let cross = pred == JoinPred::Cross;
        for (lstream, rstream) in lstreams.iter().zip(&rstreams) {
            build.clear();
            for extent in lstream {
                let rows = self.extent_rows(left, extent, lw, &mut block)?;
                build.extend_raw(rows.as_slice());
            }
            if !cross {
                index.build(&build);
            }
            hashes += build.len() as u64;
            let built = build.as_slice();
            let held = built.len() as u64 * 8;
            for extent in rstream {
                let rows = self.extent_rows(right, extent, rw, &mut block)?;
                let probe = rows.as_slice();
                hashes += rows.len() as u64;
                let mut from = 0;
                while from < rows.len() {
                    pairs.clear();
                    from = key_index::probe(&index, &build, probe, rw, from, cross, &mut pairs);
                    *compares += pairs.len() as u64;
                    // Sliced here: `RowBuf::row` would be a call per pair,
                    // the executor being instantiated in the crate that
                    // runs it.
                    for &(x, y) in &pairs {
                        let (x, y) = (x as usize * lw, y as usize * rw);
                        sink.emit_concat(&mut self.sm, &built[x..x + lw], &probe[y..y + rw])?;
                    }
                }
                self.note_peak(held + probe.len() as u64 * 8 + sink.encoded.len() as u64);
            }
            self.note_peak(held + sink.encoded.len() as u64);
        }
        Ok(hashes)
    }

    /// One side's partition pass: the relation read `buffer_bytes` at a time
    /// through [`Relation::load_block`] — so on a backend that holds the
    /// payload it is the file's rows that are hashed — each row staged in
    /// its bucket's buffer of `buffer_bytes / partitions` bytes, and a
    /// buffer appended to its bucket's stream of page-aligned extents
    /// ([`SpillAlloc::append_to_stream`]) by the row that fills it; what is
    /// left of each is appended at the end. Returns each bucket's extents.
    fn partition_pass(
        &mut self,
        (input, mut rel): (usize, Relation),
        (partitions, buffer_bytes): (u64, u64),
        spill: &mut SpillAlloc,
        hashes: &mut u64,
    ) -> Result<Vec<Vec<Extent>>, ExecError> {
        let (tb, width) = (rel.tuple_bytes, rel.width.max(1) as usize);
        let block = (buffer_bytes / tb).max(1);
        let flush_at = (buffer_bytes / partitions).max(tb);
        // A staging buffer is flushed by the tuple that fills it.
        let stage_bytes = flush_at.div_ceil(tb) * tb;
        let mut staged: Vec<Vec<u8>> = vec![Vec::new(); partitions as usize];
        let mut streams: Vec<Vec<Extent>> = vec![Vec::new(); partitions as usize];
        let mut buf = BlockBuf::default();
        let mut at = 0;
        while at < rel.card {
            let take = block.min(rel.card - at);
            let rows = rel.load_block(&mut self.sm, at, block, &mut buf)?;
            if rows.len() as u64 != take {
                return Err(ExecError::MissingRows(input));
            }
            let mut rest = rows.as_slice();
            while let Some((b, n)) =
                stage_rows(rest, width, partitions, &mut staged, flush_at as usize)
            {
                spill.append_to_stream(&mut self.sm, &mut streams[b], &staged[b], stage_bytes)?;
                staged[b].clear();
                rest = &rest[n * width..];
            }
            *hashes += take;
            let staging = staged.iter().map(|s| s.len() as u64).sum::<u64>();
            self.note_peak(take * tb + staging);
            at += take;
        }
        for (stream, stage) in streams.iter_mut().zip(&staged) {
            if !stage.is_empty() {
                spill.append_to_stream(&mut self.sm, stream, stage, stage_bytes)?;
            }
        }
        Ok(streams)
    }

    /// The tuples of one spill extent: one data read of its filled prefix.
    fn extent_rows<'a>(
        &mut self,
        input: usize,
        extent: &Extent,
        width: usize,
        block: &'a mut BlockBuf,
    ) -> Result<&'a RowBuf, ExecError> {
        let card = extent.filled / (width as u64 * 8);
        let mut rel = Relation::attach(extent.file, card, width as u32, 1);
        let rows = rel.load_rows(&mut self.sm, 0, card, block)?;
        rows.map(|rows| &*rows).ok_or(ExecError::MissingRows(input))
    }

    // The parameters mirror Plan::ExternalSort field-for-field; bundling
    // them into a struct would just duplicate that variant.
    #[allow(clippy::too_many_arguments)]
    fn run_sort(
        &mut self,
        input: usize,
        fan_in: u64,
        b_in: u64,
        b_out: u64,
        scratch: &str,
        output: &Output,
        compares: &mut u64,
    ) -> Result<OpResult, ExecError> {
        let rel = self.rel(input)?.clone();
        let n = rel.card;
        let tb = rel.tuple_bytes;

        // Number of 2^k-way merge levels over n singleton runs.
        let levels = if n <= 1 {
            0
        } else {
            ((n as f64).log2() / (fan_in as f64).log2()).ceil() as u64
        };
        if self.faithful() {
            // What the model counts — the levels above — not the merge
            // kernel's comparisons.
            *compares += levels * n * (fan_in as f64).log2().ceil() as u64;
            let mut sink = self.sink(output, tb, rel.width.max(1) as usize);
            sink.extent =
                self.sort_faithful(input, rel, (fan_in, b_in, b_out), scratch, &mut sink)?;
            sink.rows = n;
            self.charge_cpu(*compares, n, 0);
            return sink.finish(&mut self.sm);
        }

        // Level 0 reads the input; later levels read the previous scratch
        // region. Each level: runs shrink by `fan_in`; reads alternate
        // between the merged runs (seeking), writes stream to fresh extents.
        let mut first = true;
        for _level in 0..levels {
            // Read side: merging consumes each tuple once, in b_in-tuple
            // chunks alternating across the fan-in runs (non-contiguous ⇒
            // the HDD model charges a seek per chunk).
            let total_chunks = n.div_ceil(b_in);
            let chunk_bytes = (b_in * tb).min(n * tb);
            let mark = self.sm.watermark(scratch).unwrap_or(0);
            // A k-way merge alternates between its input runs, so
            // consecutive chunk reads land at different positions: emulate
            // by ping-ponging between two cursors half the data apart.
            for c in 0..total_chunks {
                if first {
                    let half = (total_chunks / 2).max(1);
                    let pos = if c % 2 == 0 { c / 2 } else { half + c / 2 };
                    let offset = (pos * b_in) % n.max(1);
                    let len = chunk_bytes.min((n - offset.min(n)) * tb).max(tb.min(8));
                    self.sm.read(rel.file, offset * tb, len.min(rel.bytes()))?;
                } else {
                    // Two alternating scratch extents: every read seeks,
                    // matching the estimator's one-InitCom-per-b_in-block.
                    let f1 = self.sm.alloc(scratch, chunk_bytes.max(1))?;
                    let f2 = self.sm.alloc(scratch, chunk_bytes.max(1))?;
                    self.sm.read(f2, 0, chunk_bytes.max(1))?;
                    self.sm.read(f1, 0, chunk_bytes.max(1))?;
                }
            }
            // Write side: merged output in b_out chunks, streaming.
            let out_chunks = n.div_ceil(b_out);
            for _ in 0..out_chunks {
                let f = self.sm.alloc(scratch, (b_out * tb).max(1))?;
                self.sm.write(f, 0, (b_out * tb).max(1))?;
            }
            self.sm.truncate_device(scratch, mark)?;
            *compares += n * (fan_in as f64).log2().ceil() as u64;
            first = false;
        }

        // Final output: stream the sorted relation in b_out-tuple blocks.
        let mut sink = self.sink(output, tb, rel.width.max(1) as usize);
        sink.emit_bulk(&mut self.sm, n)?;
        self.charge_cpu(*compares, n, 0);
        sink.finish(&mut self.sm)
    }

    /// The faithful arm of [`run_sort`](Executor::run_sort), on every
    /// backend: the 2ᵏ-way external merge sort itself. Runs of `fan_in *
    /// b_in + b_out` tuples — the merge's memory — are sorted and spilled
    /// to `scratch` through a [`SpillAlloc`] (shrinking, or failing over,
    /// when the device is full), then merged `fan_in` at a time by
    /// [`merge_runs`](Executor::merge_runs) until one more pass leaves a
    /// single run. That pass is the output pass: its batches go to one
    /// extent on the output device, or to the sink's witness, not to a
    /// scratch run that would have to be copied out; an input that forms a
    /// single run is never spilled. Returns the output extent of a
    /// device-bound output.
    ///
    /// The runs come back from the backend that was given them — real
    /// files, or the simulator, which keeps what a run writes — so the
    /// twin issues the real run's requests and computes on the same runs.
    /// What is metered is what the sort holds: a batch and its encoding
    /// while runs form, the run cursors and one output batch (and its
    /// encoding, when it is written) while they merge. The generator window
    /// the input comes from on a backend without its payload stands in for
    /// the file and is not counted, so both twins meter the same bytes.
    fn sort_faithful(
        &mut self,
        input: usize,
        mut rel: Relation,
        (fan_in, b_in, b_out): (u64, u64, u64),
        scratch: &str,
        sink: &mut Sink,
    ) -> Result<Option<(FileId, u64)>, ExecError> {
        let (card, tb, width) = (rel.card, rel.tuple_bytes, rel.width.max(1) as usize);
        if tb != width as u64 * 8 {
            return Err(ExecError::BadParameter(
                "external sort needs 8-byte columns",
            ));
        }
        let device = match &sink.output {
            Output::ToDevice { device, .. } => Some(device.clone()),
            Output::Discard => None,
        };
        let run_tuples = fan_in * b_in + b_out;
        let (mut block, mut encoded) = (BlockBuf::default(), Vec::new());
        if card <= run_tuples {
            // One run: from the sorted batch to the sink, nothing spilled.
            if card == 0 {
                return Ok(None);
            }
            let rows = rel.load_rows(&mut self.sm, 0, card, &mut block)?;
            let rows = rows.ok_or(ExecError::MissingRows(input))?;
            rows.sort();
            sink.witness(rows.as_slice());
            let Some(device) = device else {
                self.note_peak(card * tb);
                return Ok(None);
            };
            rows.encode_into(8, &mut encoded);
            self.note_peak(card * tb * 2);
            let out = self.sm.alloc(&device, card * tb)?;
            self.sm.write_bytes(out, 0, &encoded)?;
            return Ok(Some((out, card * tb)));
        }

        // Run formation: a sorted batch is one run, or several smaller
        // (still sorted) ones when the spill allocator has to shrink.
        let mut spill = SpillAlloc::new(&self.sm, scratch);
        let mut runs: Vec<(FileId, u64)> = Vec::new();
        let mut at = 0u64;
        while at < card {
            let take = run_tuples.min(card - at);
            let rows = rel.load_rows(&mut self.sm, at, take, &mut block)?;
            let rows = rows.ok_or(ExecError::MissingRows(input))?;
            rows.sort();
            encoded.clear();
            rows.encode_into(8, &mut encoded);
            self.note_peak(take * tb * 2);
            spill.spill_rows(&mut self.sm, &encoded, tb, &mut runs)?;
            at += take;
        }
        drop((rel, block)); // the merges hold cursors and one output batch

        // Merge passes onto the scratch device, fan_in runs at a time, until
        // one more pass leaves a single run.
        let buffers = (b_in, b_out);
        while runs.len() > fan_in as usize {
            let mut next = Vec::new();
            for group in runs.chunks(fan_in as usize) {
                if let [run] = group {
                    next.push(*run);
                    continue;
                }
                let total = group.iter().map(|run| run.1).sum::<u64>();
                let merged = spill.alloc(&mut self.sm, (total * tb).max(1))?;
                self.merge_runs(
                    input,
                    group,
                    width,
                    buffers,
                    Some(merged),
                    None,
                    &mut encoded,
                )?;
                next.push((merged, total));
            }
            runs = next;
        }
        // That pass is the output pass.
        let out = match device {
            Some(device) => Some(self.sm.alloc(&device, card * tb)?),
            None => None,
        };
        sink.reserve(card);
        self.merge_runs(input, &runs, width, buffers, out, Some(sink), &mut encoded)?;
        Ok(out.map(|file| (file, card * tb)))
    }

    /// Merges the sorted `runs` (run file, tuples) — one `b_in`-tuple
    /// [`BlockCursor`] each — `b_out` rows a batch with the merge kernel,
    /// writing each batch to the file `to` (one contiguous extent, batch
    /// after batch) and handing it to `sink`'s witness, where given.
    ///
    /// The request order is that of a loop which refills every cursor
    /// before picking each row: a cursor is refilled only once its last
    /// buffered row is out, and a batch which that row completed is written
    /// *before* the refill is read. Every batch — the last, partial one too
    /// — is metered: the cursors' blocks, the batch, and its encoding when
    /// it is written.
    #[allow(clippy::too_many_arguments)]
    fn merge_runs(
        &mut self,
        input: usize,
        runs: &[(FileId, u64)],
        width: usize,
        (b_in, b_out): (u64, u64),
        to: Option<FileId>,
        mut sink: Option<&mut Sink>,
        encoded: &mut Vec<u8>,
    ) -> Result<(), ExecError> {
        let tb = width as u64 * 8;
        let over = |&(file, card): &(FileId, u64)| {
            BlockCursor::new(Relation::attach(file, card, width as u32, 1), b_in)
        };
        let mut cursors: Vec<BlockCursor> = runs.iter().map(over).collect();
        for cursor in cursors.iter_mut() {
            ensure(&mut self.sm, cursor, input)?;
        }
        fn rests(cursors: &[BlockCursor]) -> Vec<&[i64]> {
            cursors.iter().map(BlockCursor::rest).collect()
        }
        let mut heads = MergeHeads::new(width, &rests(&cursors));
        let mut batch = RowBuf::with_capacity(width, b_out as usize);
        let mut written = 0u64;
        loop {
            let room = (b_out - batch.len() as u64) as usize;
            let stop = heads.fill(&rests(&cursors), room, &mut batch);
            let rows = batch.len() as u64;
            if rows == b_out || (stop == MergeStop::Done && rows > 0) {
                let held: u64 = cursors.iter().map(BlockCursor::resident_bytes).sum();
                if let Some(file) = to {
                    self.note_peak(held + 2 * rows * tb);
                    encoded.clear();
                    batch.encode_into(8, encoded);
                    self.sm.write_bytes(file, written * tb, encoded)?;
                } else {
                    self.note_peak(held + rows * tb);
                }
                if let Some(sink) = sink.as_deref_mut() {
                    sink.witness(batch.as_slice());
                }
                written += rows;
                batch.clear();
            }
            match stop {
                MergeStop::Full => {}
                MergeStop::Dry(i) => {
                    // The kernel took every buffered row: the cursor is due.
                    cursors[i].drain();
                    ensure(&mut self.sm, &mut cursors[i], input)?;
                }
                MergeStop::Done => return Ok(()),
            }
        }
    }

    fn run_merge(
        &mut self,
        left: usize,
        right: usize,
        kind: MergeKind,
        b_in: u64,
        output: &Output,
        compares: &mut u64,
    ) -> Result<OpResult, ExecError> {
        let l = self.rel(left)?.clone();
        let r = self.rel(right)?.clone();
        let mut sink = self.sink(output, l.tuple_bytes, l.width.max(1) as usize);
        *compares += l.card + r.card;
        if self.faithful() {
            self.merge_faithful((left, l), (right, r), kind, b_in, &mut sink)?;
            self.charge_cpu(*compares, sink.rows, 0);
            return sink.finish(&mut self.sm);
        }

        // Read both inputs in alternating b_in blocks (streaming merge),
        // emitting output as the stream advances so writes interleave with
        // the reads (the head-interference behaviour a real merge has).
        let out_fraction = match kind {
            MergeKind::SetUnion | MergeKind::MultisetUnionSorted | MergeKind::MultisetUnionVm => {
                1.0
            }
            // Documented modeling assumption: on random inputs about half
            // of the left multiset survives the difference — the paper's
            // worst-case estimate (all of it) then overshoots, reproducing
            // §7.3's overestimation discussion.
            MergeKind::MultisetDiffSorted | MergeKind::MultisetDiffVm => 0.5,
        };
        let mut li = 0;
        let mut ri = 0;
        let mut emits = 0u64;
        while li < l.card || ri < r.card {
            let mut consumed = 0u64;
            if li < l.card {
                let n = l.read_block(&mut self.sm, li, b_in)?;
                li += n.max(1);
                consumed += n;
            }
            if ri < r.card {
                let n = r.read_block(&mut self.sm, ri, b_in)?;
                ri += n.max(1);
                if matches!(
                    kind,
                    MergeKind::SetUnion
                        | MergeKind::MultisetUnionSorted
                        | MergeKind::MultisetUnionVm
                ) {
                    consumed += n;
                }
            }
            let e = (consumed as f64 * out_fraction) as u64;
            emits += e;
            sink.emit_bulk(&mut self.sm, e)?;
        }
        self.charge_cpu(*compares, emits, 0);
        sink.finish(&mut self.sm)
    }

    /// The faithful arm of [`run_merge`](Executor::run_merge): two block
    /// cursors and, for the set union, the last emitted row — the online
    /// form of the tests' reference `merge_bufs`, which they hold it to. A
    /// cursor is refilled only when its block is exhausted, and a difference
    /// stops reading its right input once the left one is dry; between
    /// refills and flushes, [`merge_pass`] takes the steps.
    fn merge_faithful(
        &mut self,
        (left, l): (usize, Relation),
        (right, r): (usize, Relation),
        kind: MergeKind,
        b_in: u64,
        sink: &mut Sink,
    ) -> Result<(), ExecError> {
        // Rows of <value, multiplicity>, keyed by the value.
        let vm = matches!(kind, MergeKind::MultisetUnionVm | MergeKind::MultisetDiffVm);
        if l.width != r.width || (vm && l.width != 2) {
            return Err(ExecError::BadParameter(
                "merge inputs must share a width (two columns for value-multiplicity kinds)",
            ));
        }
        let diff = matches!(
            kind,
            MergeKind::MultisetDiffSorted | MergeKind::MultisetDiffVm
        );
        sink.reserve(l.card + if diff { 0 } else { r.card });
        let width = l.width.max(1) as usize;
        let mut a = BlockCursor::new(l, b_in);
        let mut b = BlockCursor::new(r, b_in);
        // The last emitted row (set-union dedup); empty — which no row is —
        // until there is one.
        let mut last: Vec<i64> = Vec::new();
        let mut out: Vec<i64> = Vec::new();
        loop {
            ensure(&mut self.sm, &mut a, left)?;
            if !(diff && a.head().is_none()) {
                ensure(&mut self.sm, &mut b, right)?;
            }
            // The loop notes what is resident before each step.
            let held = a.resident_bytes() + b.resident_bytes();
            self.note_peak(held + sink.resident_bytes());
            out.clear();
            let rests = (a.rest(), b.rest());
            let took = merge_pass(kind, width, rests, &mut last, sink.room(), &mut out);
            if took.steps == 0 {
                return Ok(());
            }
            a.skip(took.rows[0]);
            b.skip(took.rows[1]);
            sink.emit_rows(&mut self.sm, &out[..took.before_last])?;
            if took.steps > 1 {
                self.note_peak(held + sink.resident_bytes());
            }
            sink.emit_rows(&mut self.sm, &out[took.before_last..])?;
        }
    }

    /// The per-row loop [`merge_faithful`](Executor::merge_faithful) runs
    /// as [`merge_pass`] calls: the oracle the kernel is held to.
    #[cfg(test)]
    fn merge_literal(
        &mut self,
        (left, l): (usize, Relation),
        (right, r): (usize, Relation),
        kind: MergeKind,
        b_in: u64,
        sink: &mut Sink,
    ) -> Result<(), ExecError> {
        use std::cmp::Ordering::{Equal, Less};
        let vm = matches!(kind, MergeKind::MultisetUnionVm | MergeKind::MultisetDiffVm);
        let diff = matches!(
            kind,
            MergeKind::MultisetDiffSorted | MergeKind::MultisetDiffVm
        );
        sink.reserve(l.card + if diff { 0 } else { r.card });
        let mut a = BlockCursor::new(l, b_in);
        let mut b = BlockCursor::new(r, b_in);
        let mut last: Vec<i64> = Vec::new();
        loop {
            ensure(&mut self.sm, &mut a, left)?;
            if !(diff && a.head().is_none()) {
                ensure(&mut self.sm, &mut b, right)?;
            }
            self.note_peak(a.resident_bytes() + b.resident_bytes() + sink.resident_bytes());
            let (ha, hb) = (a.head(), b.head());
            match kind {
                MergeKind::MultisetUnionSorted | MergeKind::SetUnion => {
                    let take_a = hb.map_or(true, |y| ha.is_some_and(|x| x <= y));
                    let Some(row) = (if take_a { ha } else { hb }) else {
                        return Ok(());
                    };
                    if kind == MergeKind::MultisetUnionSorted || last != row {
                        sink.emit_rows(&mut self.sm, row)?;
                        if kind == MergeKind::SetUnion {
                            last.clear();
                            last.extend_from_slice(row);
                        }
                    }
                    if take_a {
                        a.advance();
                    } else {
                        b.advance();
                    }
                }
                MergeKind::MultisetUnionVm => match (ha, hb) {
                    (None, None) => return Ok(()),
                    (Some(x), Some(y)) if x[0] == y[0] => {
                        sink.emit_rows(&mut self.sm, &[x[0], x[1] + y[1]])?;
                        a.advance();
                        b.advance();
                    }
                    (Some(x), y) if y.map_or(true, |y| x[0] < y[0]) => {
                        sink.emit_rows(&mut self.sm, x)?;
                        a.advance();
                    }
                    (_, y) => {
                        sink.emit_rows(&mut self.sm, y.expect("the side that remains"))?;
                        b.advance();
                    }
                },
                MergeKind::MultisetDiffSorted | MergeKind::MultisetDiffVm => {
                    let Some(x) = ha else { return Ok(()) };
                    let key = if vm { 1 } else { x.len() };
                    match hb.map(|y| (y[..key].cmp(&x[..key]), y)) {
                        Some((Less, _)) => b.advance(),
                        Some((Equal, y)) => {
                            if vm && x[1] > y[1] {
                                sink.emit_rows(&mut self.sm, &[x[0], x[1] - y[1]])?;
                            }
                            a.advance();
                            b.advance();
                        }
                        _ => {
                            sink.emit_rows(&mut self.sm, x)?;
                            a.advance();
                        }
                    }
                }
            }
        }
    }

    fn run_columns(
        &mut self,
        columns: &[usize],
        b_in: u64,
        output: &Output,
    ) -> Result<OpResult, ExecError> {
        let rels: Vec<Relation> = columns
            .iter()
            .map(|c| self.rel(*c).cloned())
            .collect::<Result<_, _>>()?;
        let card = rels.iter().map(|r| r.card).min().unwrap_or(0);
        let out_bytes: u64 = rels.iter().map(|r| r.tuple_bytes).sum();
        let out_cols: usize = rels.iter().map(|r| r.width.max(1) as usize).sum();
        let mut sink = self.sink(output, out_bytes, out_cols);
        if self.faithful() {
            // One cursor per column, advanced in lock-step; the zip stops
            // at the shortest column.
            sink.reserve(card);
            let over = |mut r: Relation| {
                r.card = card;
                BlockCursor::new(r, b_in)
            };
            let cursors: Vec<BlockCursor> = rels.into_iter().map(over).collect();
            self.zip_faithful(cursors, columns, card, &mut sink)?;
        } else {
            // Round-robin block reads across the columns (seeks between
            // files).
            let mut idx = 0;
            while idx < card {
                let mut n = 0;
                for r in &rels {
                    n = r.read_block(&mut self.sm, idx, b_in)?;
                }
                sink.emit_bulk(&mut self.sm, n)?;
                idx += n.max(1);
            }
        }
        self.charge_cpu(0, card, 0);
        sink.finish(&mut self.sm)
    }

    /// The faithful arm of [`run_columns`](Executor::run_columns): the
    /// first `card` rows of every column's cursor, zipped by [`zip`] a
    /// buffered stretch at a time. Every cursor is refilled when its block
    /// is exhausted, in column order.
    fn zip_faithful(
        &mut self,
        mut cursors: Vec<BlockCursor>,
        columns: &[usize],
        card: u64,
        sink: &mut Sink,
    ) -> Result<(), ExecError> {
        let widths: Vec<usize> = cursors.iter().map(BlockCursor::width).collect();
        let mut out: Vec<i64> = Vec::new();
        let mut done = 0;
        while done < card {
            for (cursor, column) in cursors.iter_mut().zip(columns) {
                ensure(&mut self.sm, cursor, *column)?;
            }
            let rests: Vec<&[i64]> = cursors.iter().map(BlockCursor::rest).collect();
            let limit = (card - done).min(sink.room() as u64) as usize;
            out.clear();
            let took = zip(&rests, &widths, limit, &mut out);
            assert!(took.steps > 0, "every column holds a row within card");
            for cursor in &mut cursors {
                cursor.skip(took.rows[0]);
            }
            // The loop notes what is resident after each step.
            let held: u64 = cursors.iter().map(BlockCursor::resident_bytes).sum();
            sink.emit_rows(&mut self.sm, &out[..took.before_last])?;
            if took.steps > 1 {
                self.note_peak(held + sink.resident_bytes());
            }
            sink.emit_rows(&mut self.sm, &out[took.before_last..])?;
            self.note_peak(held + sink.resident_bytes());
            done += took.steps as u64;
        }
        Ok(())
    }

    /// The per-row loop [`zip_faithful`](Executor::zip_faithful) runs as
    /// [`zip`] calls: the oracle the kernel is held to.
    #[cfg(test)]
    fn zip_literal(
        &mut self,
        mut cursors: Vec<BlockCursor>,
        columns: &[usize],
        card: u64,
        sink: &mut Sink,
    ) -> Result<(), ExecError> {
        let mut zipped: Vec<i64> = Vec::new();
        for _ in 0..card {
            zipped.clear();
            for (cursor, column) in cursors.iter_mut().zip(columns) {
                ensure(&mut self.sm, cursor, *column)?;
                zipped.extend_from_slice(cursor.head().expect("within card"));
                cursor.advance();
            }
            sink.emit_rows(&mut self.sm, &zipped)?;
            let res = cursors.iter().map(BlockCursor::resident_bytes).sum::<u64>()
                + sink.resident_bytes();
            self.note_peak(res);
        }
        Ok(())
    }

    fn run_dedup(
        &mut self,
        input: usize,
        b_in: u64,
        output: &Output,
        compares: &mut u64,
    ) -> Result<OpResult, ExecError> {
        let rel = self.rel(input)?.clone();
        let mut sink = self.sink(output, rel.tuple_bytes, rel.width.max(1) as usize);
        *compares += rel.card;
        if self.faithful() {
            sink.reserve(rel.card);
            self.dedup_faithful(BlockCursor::new(rel, b_in), input, &mut sink)?;
        } else {
            let mut idx = 0;
            while idx < rel.card {
                let n = rel.read_block(&mut self.sm, idx, b_in)?;
                // The staggered formulation (⟨tail(L), L⟩) maintains a second
                // cursor one element behind: a literal implementation streams
                // the list twice.
                let _ = rel.read_block(&mut self.sm, idx.saturating_sub(1), b_in)?;
                // Modeling assumption: half the sorted input is duplicated;
                // emit as the stream advances so writes interleave.
                sink.emit_bulk(&mut self.sm, n / 2)?;
                idx += n.max(1);
            }
        }
        self.charge_cpu(*compares, sink.rows, 0);
        sink.finish(&mut self.sm)
    }

    /// The faithful arm of [`run_dedup`](Executor::run_dedup): one cursor
    /// over relation `input`, every block read once, and the last emitted
    /// row (empty, which no row is, until there is one), the rows between
    /// refills deduplicated by [`dedup`].
    fn dedup_faithful(
        &mut self,
        mut cursor: BlockCursor,
        input: usize,
        sink: &mut Sink,
    ) -> Result<(), ExecError> {
        let width = cursor.width();
        let mut last: Vec<i64> = Vec::new();
        let mut out: Vec<i64> = Vec::new();
        loop {
            ensure(&mut self.sm, &mut cursor, input)?;
            out.clear();
            let took = dedup(width, cursor.rest(), &mut last, sink.room(), &mut out);
            if took.steps == 0 {
                return Ok(());
            }
            cursor.skip(took.rows[0]);
            // The loop notes what is resident after each step.
            let held = cursor.resident_bytes();
            sink.emit_rows(&mut self.sm, &out[..took.before_last])?;
            if took.steps > 1 {
                self.note_peak(held + sink.resident_bytes());
            }
            sink.emit_rows(&mut self.sm, &out[took.before_last..])?;
            self.note_peak(held + sink.resident_bytes());
        }
    }

    /// The per-row loop [`dedup_faithful`](Executor::dedup_faithful) runs
    /// as [`dedup`] calls: the oracle the kernel is held to.
    #[cfg(test)]
    fn dedup_literal(
        &mut self,
        mut cursor: BlockCursor,
        input: usize,
        sink: &mut Sink,
    ) -> Result<(), ExecError> {
        let mut last: Vec<i64> = Vec::new();
        loop {
            ensure(&mut self.sm, &mut cursor, input)?;
            let Some(row) = cursor.head() else { break };
            if last != row {
                sink.emit_rows(&mut self.sm, row)?;
                last.clear();
                last.extend_from_slice(row);
            }
            cursor.advance();
            self.note_peak(cursor.resident_bytes() + sink.resident_bytes());
        }
        Ok(())
    }

    fn run_aggregate(
        &mut self,
        input: usize,
        b_in: u64,
        compares: &mut u64,
    ) -> Result<OpResult, ExecError> {
        let rel = self.rel(input)?.clone();
        if self.faithful() {
            return self.aggregate_faithful(rel, b_in, compares);
        }
        // Simulated mode coalesces the single sequential stream into ~4 MiB
        // requests: for one cursor moving forward, every device model
        // charges by the page-rounded high-water mark, so the totals (bytes,
        // seeks, seconds) are identical at any request granularity — but the
        // paper-scale scans (4 GiB in b_in-tuple blocks) stop costing 10⁸
        // host-side calls.
        let chunk_tuples = ((4u64 << 20) / rel.tuple_bytes.max(1)).max(1);
        let step = b_in.max(chunk_tuples.next_multiple_of(b_in));
        let mut idx = 0;
        while idx < rel.card {
            let n = rel.read_block(&mut self.sm, idx, step)?;
            *compares += n;
            idx += n.max(1);
        }
        self.charge_cpu(*compares, 1, 0);
        Ok(OpResult {
            rows: 1,
            width: 1,
            ..OpResult::default()
        })
    }

    /// The faithful arm of [`run_aggregate`](Executor::run_aggregate): the
    /// request of [`Relation::load_block`] per `b_in` tuples, averaged as
    /// they arrive. The requests go out as data runs of at most one device
    /// page (a block longer than that, or the shorter last block, is a run
    /// of one), so a backend that serves sequential requests together sees
    /// them together. The rows are decoded from a run's bytes where the
    /// backend handed them back (8-byte columns), else they are the
    /// generator's: the run's from the window at once when it holds them
    /// all, else block by block, so the window moves where it always did.
    /// Either way residency is counted as the block read that way would
    /// hold it — a run's byte staging is the memory level's, like the
    /// backend's read-ahead, not an operator's.
    fn aggregate_faithful(
        &mut self,
        mut rel: Relation,
        b_in: u64,
        compares: &mut u64,
    ) -> Result<OpResult, ExecError> {
        let tb = rel.tuple_bytes;
        let width = rel.width.max(1) as usize;
        let decodes = tb == width as u64 * 8;
        let page = self.sm.page_bytes(self.sm.device_of(rel.file))?;
        let per_run = (page / (b_in * tb).max(1)).max(1);
        let mut bytes: Vec<u8> = Vec::new();
        let mut sum: i64 = 0;
        let mut count: i64 = 0;
        // Residency changes with the block or the generator's window, not
        // with the executor: tracked here, reported once.
        let mut peak = 0;
        let mut idx = 0;
        while idx < rel.card {
            let full = (rel.card - idx) / b_in;
            let (block, blocks) = match full {
                0 => (rel.card - idx, 1),
                _ => (b_in, full.min(per_run)),
            };
            let len = (block * blocks * tb) as usize;
            if bytes.len() < len {
                bytes.resize(len, 0);
            }
            let run = &mut bytes[..len];
            let held = self
                .sm
                .read_data_run(rel.file, idx * tb, block * tb, blocks, run)?;
            if held && decodes {
                sum = sum.wrapping_add(column0_sum(run, width));
                count += (block * blocks) as i64;
                peak = peak.max(rel.resident_bytes() + block * width as u64 * 8);
            } else if let Some(rows) = rel.cached_rows(idx, block * blocks) {
                // Every block of the run in the window already generated.
                sum = rows.iter().fold(sum, |s, row| s.wrapping_add(row[0]));
                count += rows.len() as i64;
            } else {
                for at in (idx..).step_by(block as usize).take(blocks as usize) {
                    let rows = rel.block_rows(at, block);
                    sum = rows.iter().fold(sum, |s, row| s.wrapping_add(row[0]));
                    count += rows.len() as i64;
                    peak = peak.max(rel.resident_bytes());
                }
            }
            idx += block * blocks;
        }
        *compares += rel.card;
        self.note_peak(peak);
        self.charge_cpu(*compares, 1, 0);
        let avg = if count > 0 { sum / count } else { 0 };
        // One witness, like a sink's: the row, or else its digest.
        let output = self.collect_output.then(|| RowBuf::from_vec(vec![avg], 1));
        Ok(OpResult {
            rows: 1,
            width: 1,
            digest: output.is_none().then(|| fnv_values(FNV_OFFSET, &[avg])),
            output,
            extent: None,
        })
    }
}

/// [`BlockCursor::ensure`] for the cursor over relation `rel`: a request
/// that comes back without rows means the relation can only be read on a
/// backend that holds its payload.
#[inline]
fn ensure<B: StorageBackend>(
    sm: &mut B,
    cursor: &mut BlockCursor,
    rel: usize,
) -> Result<(), ExecError> {
    if cursor.ensure(sm)? {
        Ok(())
    } else {
        Err(ExecError::MissingRows(rel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge_oracle::merge_bufs;
    use crate::rel::{RelSpec, Row, RowGen};
    use ocas_hierarchy::presets;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn setup(faithful: bool, ram: u64) -> Executor {
        let h = presets::hdd_ram(ram);
        let sm = StorageSim::from_hierarchy(&h);
        Executor::new(
            sm,
            if faithful {
                Mode::Faithful
            } else {
                Mode::Simulated
            },
            CpuModel::default(),
        )
    }

    fn brute_join(r: &[Row], s: &[Row], pred: JoinPred) -> Vec<Row> {
        let mut out = Vec::new();
        for x in r {
            for y in s {
                let m = match pred {
                    JoinPred::Cross => true,
                    JoinPred::KeyEq => x[0] == y[0],
                };
                if m {
                    let mut row = x.clone();
                    row.extend_from_slice(y);
                    out.push(row);
                }
            }
        }
        out
    }

    fn sorted(mut v: Vec<Row>) -> Vec<Row> {
        v.sort();
        v
    }

    /// The simulated block-nested-loops join as it ran before inner passes
    /// were issued as run requests: one `read_block` and one emission step
    /// per inner block, every time. Returns `(seconds, output rows,
    /// compares)`. Kept as the oracle for
    /// [`simulated_bnl_equals_the_per_request_reference`].
    fn reference_sim_bnl(
        ex: &mut Executor,
        (outer, inner): (usize, usize),
        (k1, k2): (u64, u64),
        pred: JoinPred,
        output: &Output,
    ) -> (f64, u64, u64) {
        let t0 = ex.sm.clock();
        let (o, i) = (ex.rels[outer].clone(), ex.rels[inner].clone());
        let mut sink = ex.sink(output, o.tuple_bytes + i.tuple_bytes, 4);
        let density = match pred {
            JoinPred::Cross => 1.0,
            JoinPred::KeyEq => 1.0 / o.key_range.max(i.key_range).max(1) as f64,
        };
        let (mut compares, mut emits, mut carry) = (0u64, 0u64, 0.0f64);
        let mut oidx = 0;
        while oidx < o.card {
            let on = o.read_block(&mut ex.sm, oidx, k1).unwrap();
            let mut iidx = 0;
            while iidx < i.card {
                let in_n = i.read_block(&mut ex.sm, iidx, k2).unwrap();
                compares += in_n + on / (i.card.div_ceil(k2)).max(1);
                let expected = on as f64 * in_n as f64 * density + carry;
                let whole = expected.floor() as u64;
                carry = expected - whole as f64;
                emits += whole;
                sink.emit_bulk(&mut ex.sm, whole).unwrap();
                iidx += in_n.max(1);
            }
            oidx += on.max(1);
        }
        ex.charge_cpu(compares, emits, 0);
        let output_rows = sink.finish(&mut ex.sm).unwrap().rows;
        (ex.sm.clock() - t0, output_rows, compares)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// Issuing no-flush inner passes as runs, with compares and emitted
        /// rows in closed form, changes nothing observable: seconds, rows,
        /// compares and every device's counters equal the per-request loop
        /// bit for bit — for dyadic densities (fixed-point emission),
        /// arbitrary ones (replayed emission) and output buffers small
        /// enough that some passes flush (per-request path).
        #[test]
        fn simulated_bnl_equals_the_per_request_reference(
            (card_r, card_s, k1, k2) in (1u64..1500, 1u64..1500, 1u64..400, 1u64..48),
            (range_kind, range_draw, cross) in (0u32..3, 1u64..5000, 0u32..4),
            (out_kind, buffer_bytes) in (0u32..3, 1u64..6000),
        ) {
            let key_range = match range_kind {
                0 => 1 << (range_draw % 14), // dyadic density
                1 => range_draw,             // any density
                _ => 0,                      // the cardinality
            };
            let pred = if cross == 0 { JoinPred::Cross } else { JoinPred::KeyEq };
            let output = match out_kind {
                0 => Output::Discard,
                1 => Output::ToDevice { device: "HDD".into(), buffer_bytes },
                _ => Output::ToDevice { device: "HDD2".into(), buffer_bytes },
            };
            let mk = || {
                let sm = StorageSim::from_hierarchy(&presets::two_hdd_ram(1 << 22));
                let mut ex = Executor::new(sm, Mode::Simulated, CpuModel::default());
                for (name, card) in [("R", card_r), ("S", card_s)] {
                    let spec = RelSpec::pairs(name, "HDD", card).with_key_range(key_range);
                    let rel = Relation::create(&mut ex.sm, &spec, false, 0).unwrap();
                    ex.add_relation(rel);
                }
                ex
            };
            let (mut ex, mut reference) = (mk(), mk());
            let got = ex
                .run(&Plan::BnlJoin {
                    outer: 0,
                    inner: 1,
                    k1,
                    k2,
                    tiling: None,
                    pred,
                    order_inputs: false,
                    output: output.clone(),
                })
                .unwrap();
            let want = reference_sim_bnl(&mut reference, (0, 1), (k1, k2), pred, &output);
            proptest::prop_assert_eq!(
                (got.seconds.to_bits(), got.output_rows, got.compares),
                (want.0.to_bits(), want.1, want.2)
            );
            for device in ["HDD", "HDD2", "RAM"] {
                let (a, b) = (ex.sm.device_stats(device), reference.sm.device_stats(device));
                proptest::prop_assert_eq!(a, b, "{} counters", device);
                proptest::prop_assert_eq!(
                    a.unwrap().busy_seconds.to_bits(),
                    b.unwrap().busy_seconds.to_bits()
                );
            }
        }
    }

    /// The writes a sink that flushes `bytes` in buffers of `cap` issues
    /// one `flush_bytes` at a time: each buffer at the cursor, split where
    /// the cursor wraps at the end of the extent, the partial last buffer
    /// at the end — as `(offset, len)`.
    fn buffer_flushes(bytes: u64, cap: u64) -> Vec<(u64, u64)> {
        let mut writes = Vec::new();
        let mut cursor = 0;
        for start in (0..bytes).step_by(cap as usize) {
            let mut remaining = cap.min(bytes - start);
            while remaining > 0 {
                if cursor >= SINK_EXTENT {
                    cursor = 0;
                }
                let chunk = remaining.min(SINK_EXTENT - cursor);
                writes.push((cursor, chunk));
                cursor += chunk;
                remaining -= chunk;
            }
        }
        writes
    }

    /// A simulated plan's sink issues its whole buffers as write runs,
    /// split where the cursor wraps at the end of the 1 GiB extent. A BNL
    /// product join and a sorted duplicate removal, writing 2 GiB and 1.25
    /// GiB, at buffer sizes that divide 2^30 and ones that do not (Table
    /// 1's 20 KiB among them), and one larger than the extent, which only
    /// `flush_bytes` can flush. On the simulator with the runs and on the
    /// recording wrapper that keeps the loop of writes: the same requests
    /// in order (runs expanded), clock bits, rows and counters of every
    /// device; and the writes are the ones flushing a buffer at a time
    /// issues ([`buffer_flushes`]).
    #[test]
    fn sink_write_runs_equal_the_loop_across_the_extent_wrap() {
        let bnl: fn(Output) -> Plan = |output| Plan::BnlJoin {
            outer: 0,
            inner: 1,
            k1: 16,
            k2: 1 << 14,
            tiling: None,
            pred: JoinPred::Cross,
            order_inputs: false,
            output,
        };
        let dedup: fn(Output) -> Plan = |output| Plan::DedupSorted {
            input: 0,
            b_in: 1 << 22,
            output,
        };
        let bnl_specs = vec![
            RelSpec::pairs("R", "HDD", 64),
            RelSpec::pairs("S", "HDD", 1 << 20),
        ];
        let dedup_specs = vec![RelSpec::ints("L", "HDD", 5 << 26).sorted()];
        for (name, plan, specs, tuple_bytes) in [
            ("bnl", bnl, bnl_specs, 32),
            ("dedup", dedup, dedup_specs, 8),
        ] {
            for (device, buffer_bytes) in [
                ("HDD", 1 << 16),
                ("HDD2", 1 << 20),
                ("HDD", 20 * 1024),
                ("HDD2", 300_001),
                ("HDD2", 3 << 29),
            ] {
                let plan = plan(Output::ToDevice {
                    device: device.into(),
                    buffer_bytes,
                });
                let run = |runs: bool| {
                    let sm = StorageSim::from_hierarchy(&presets::two_hdd_ram(1 << 22));
                    let mut ex = Executor::new(
                        Recording::new(sm, runs),
                        Mode::Simulated,
                        CpuModel::default(),
                    );
                    for spec in &specs {
                        let rel = Relation::create(&mut ex.sm, spec, false, 0).unwrap();
                        ex.add_relation(rel);
                    }
                    let stats = ex.run(&plan).unwrap();
                    let devices = ["HDD", "HDD2", "RAM"].map(|d| {
                        let stats = ex.sm.device_stats(d).unwrap();
                        (stats, stats.busy_seconds.to_bits())
                    });
                    let seen = (stats.seconds.to_bits(), stats.output_rows, devices);
                    (seen, ex.sm.log, ex.sm.write_runs)
                };
                let ((got, got_log, write_runs), (want, want_log, _)) = (run(true), run(false));
                let what = format!("{name} writing {buffer_bytes} B buffers to {device}");
                assert_eq!(got, want, "{what}");
                assert!(got_log == want_log, "{what}: the request sequences differ");
                let writes: Vec<_> = want_log
                    .iter()
                    .filter(|r| r.0)
                    .map(|r| (r.2, r.3))
                    .collect();
                let bytes = got.1 * tuple_bytes;
                assert!(bytes > SINK_EXTENT, "{what}: wrote {bytes} B");
                assert!(
                    writes == buffer_flushes(bytes, buffer_bytes),
                    "{what}: the writes"
                );
                assert_eq!(
                    write_runs > 0,
                    buffer_bytes <= SINK_EXTENT,
                    "{what}: write runs"
                );
            }
        }
    }

    #[test]
    fn bnl_join_matches_brute_force() {
        let mut ex = setup(true, 1 << 25);
        let r = Relation::create(
            &mut ex.sm,
            &RelSpec::pairs("R", "HDD", 300).with_key_range(40),
            true,
            1,
        )
        .unwrap();
        let s = Relation::create(
            &mut ex.sm,
            &RelSpec::pairs("S", "HDD", 200).with_key_range(40),
            true,
            2,
        )
        .unwrap();
        let rrows = r.collect_rows().unwrap().to_rows();
        let srows = s.collect_rows().unwrap().to_rows();
        let ri = ex.add_relation(r);
        let si = ex.add_relation(s);
        let stats = ex
            .run(&Plan::BnlJoin {
                outer: ri,
                inner: si,
                k1: 64,
                k2: 64,
                tiling: None,
                pred: JoinPred::KeyEq,
                order_inputs: true,
                output: Output::Discard,
            })
            .unwrap();
        let expect = brute_join(&rrows, &srows, JoinPred::KeyEq);
        assert_eq!(stats.output_rows as usize, expect.len());
        // order-inputs put S (smaller) outside, so rows come out in S-major
        // order: compare as multisets.
        let got: Vec<Row> = stats
            .output
            .unwrap()
            .to_rows()
            .into_iter()
            .map(|row| {
                // swap back to R-major layout when S went outside
                let (a, b) = row.split_at(2);
                let mut r = b.to_vec();
                r.extend_from_slice(a);
                r
            })
            .collect();
        assert_eq!(sorted(got), sorted(expect));
        assert!(stats.seconds > 0.0);
    }

    /// One tile-join case of the differential test below.
    struct TileCase {
        orows: RowBuf,
        irows: RowBuf,
        tiling: Option<crate::plan::Tiling>,
        pred: JoinPred,
        cache: bool,
    }

    /// `len` rows of `width` columns: the key drawn from `range` values
    /// starting at `base`, then (from width 2) the row's own number, so
    /// that an emitted row names the pair that produced it.
    fn tile_block(len: usize, width: usize, range: u64, base: i64, rng: &mut StdRng) -> RowBuf {
        let mut data = Vec::with_capacity(len * width);
        for id in 0..len {
            data.push(base.wrapping_add(rng.gen_range(0..range) as i64));
            data.extend((1..width).map(|col| (id * 8 + col) as i64));
        }
        RowBuf::from_vec(data, width)
    }

    /// Runs one tile join through the key-column kernel or the literal
    /// pair loop; returns the emit count, the emitted rows in order and the
    /// cache statistics.
    fn run_tile(case: &TileCase, literal: bool) -> (u64, RowBuf, Option<CacheStats>) {
        let mut ex = setup(true, 1 << 25);
        if case.cache {
            ex = ex.with_cache(CacheSim::new(8 * 1024, 64, 2));
        }
        let (o, i) = (case.orows.as_view(), case.irows.as_view());
        let (otb, itb) = (o.width() as u64 * 8, i.width() as u64 * 8);
        let mut sink = ex.sink(&Output::Discard, otb + itb, o.width() + i.width());
        let mut emits = 0;
        let (tiling, pred) = (case.tiling, case.pred);
        if literal {
            ex.join_tile_literal(o, i, 40, 7, otb, itb, tiling, pred, &mut sink, &mut emits)
        } else {
            let mut keys = KeyColumns::default();
            keys.set_outer(o);
            keys.set_inner(i);
            ex.join_tile(
                o, i, &mut keys, 40, 7, otb, itb, tiling, pred, &mut sink, &mut emits,
            )
        }
        .unwrap();
        let done = sink.finish(&mut ex.sm).unwrap();
        assert_eq!(done.rows, emits);
        let cache = ex.cache.as_ref().map(|c| c.stats());
        (emits, done.output.expect("collected"), cache)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// The key-column kernel against the literal pair loop it replaced:
        /// the same rows in the same order (from width 2 every row carries
        /// its row number, so that is the same (outer row, inner row)
        /// pairs), the same emit count and — with a cache simulator
        /// attached — the same cache statistics. Every pair of
        /// tile shapes around the chunk width and at the tuned block size,
        /// each with its own draw of widths, tiling (tiles that do not
        /// divide the block), key density, key sign and domain end.
        #[test]
        fn tile_join_equals_the_literal_pair_loop(seed in 0u64..1_000_000) {
            const SHAPES: [usize; 8] = [0, 1, 2, 31, 32, 33, 64, 4096];
            for (n, (on, in_n)) in SHAPES
                .iter()
                .flat_map(|on| SHAPES.iter().map(move |in_n| (*on, *in_n)))
                .enumerate()
            {
                let mut rng = StdRng::seed_from_u64(seed * 64 + n as u64);
                let pairs = on * in_n;
                // Every pair matches; duplicates; moderately sparse; sparse
                // — the dense ones only while the output stays small.
                let range = match rng.gen_range(0..4u32) {
                    0 if pairs <= 1 << 16 => 1,
                    0 | 1 if pairs <= 1 << 20 => 5,
                    0..=2 => 300,
                    _ => 1 << 40,
                };
                let base = match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => -(range as i64 / 2) - 1,
                    2 => i64::MIN,
                    _ => i64::MAX - (range as i64 - 1),
                };
                let tiling = match rng.gen_range(0..4u32) {
                    0 | 1 => None,
                    2 => Some(crate::plan::Tiling { outer: 7, inner: 33 }),
                    _ => Some(crate::plan::Tiling { outer: 100, inner: 3 }),
                };
                let case = TileCase {
                    orows: tile_block(on, rng.gen_range(1..5), range, base, &mut rng),
                    irows: tile_block(in_n, rng.gen_range(1..5), range, base, &mut rng),
                    tiling,
                    // Cross emits every pair: small shapes only.
                    pred: if pairs <= 1 << 12 && rng.gen_range(0..4u32) == 0 {
                        JoinPred::Cross
                    } else {
                        JoinPred::KeyEq
                    },
                    // (Not on the 16M-pair shape: it would take the debug
                    // build seconds per case.)
                    cache: pairs < 1 << 24 && rng.gen_range(0..2u32) == 0,
                };
                let (got, want) = (run_tile(&case, false), run_tile(&case, true));
                proptest::prop_assert!(
                    got == want,
                    "{} x {} rows, {:?}, {:?}, key range {} from {}: {} vs {} rows, cache {:?} vs {:?}",
                    on, in_n, case.tiling, case.pred, range, base, got.0, want.0, got.2, want.2
                );
            }
        }
    }

    /// Two relations of `cards`, seeded from `seed`, registered with `ex`;
    /// returns their plan indices.
    fn add_pair<B: StorageBackend>(
        ex: &mut Executor<B>,
        cards: (u64, u64),
        seed: u64,
    ) -> (usize, usize) {
        let mut add = |name: &str, card: u64, seed: u64| {
            let spec = RelSpec::pairs(name, "HDD", card).with_key_range(40);
            let rel = Relation::create(&mut ex.sm, &spec, true, seed).unwrap();
            ex.add_relation(rel)
        };
        (add("R", cards.0, seed), add("S", cards.1, seed + 1))
    }

    /// The tuned shape at test scale: a block size that is no multiple of
    /// the scan's chunk width, the inner relation a few tuples at a time.
    fn tuned_bnl(outer: usize, inner: usize, k2: u64, output: Output) -> Plan {
        Plan::BnlJoin {
            outer,
            inner,
            k1: 37,
            k2,
            tiling: None,
            pred: JoinPred::KeyEq,
            order_inputs: false,
            output,
        }
    }

    /// An executor is reused across plans: the second of two BNL joins
    /// over *different* relations of the *same* cardinalities must not see
    /// anything of the first (a key column kept by position or length
    /// would).
    #[test]
    fn a_reused_executor_joins_the_relations_in_front_of_it() {
        for k2 in [1, 3] {
            let mut ex = setup(true, 1 << 25);
            let (r1, s1) = add_pair(&mut ex, (300, 200), 1);
            let (r2, s2) = add_pair(&mut ex, (300, 200), 11);
            let first = ex.run(&tuned_bnl(r1, s1, k2, Output::Discard)).unwrap();
            let second = ex.run(&tuned_bnl(r2, s2, k2, Output::Discard)).unwrap();
            assert_ne!(first.digest(), second.digest());

            let mut fresh = setup(true, 1 << 25);
            let (r, s) = add_pair(&mut fresh, (300, 200), 11);
            let want = fresh.run(&tuned_bnl(r, s, k2, Output::Discard)).unwrap();
            assert_eq!(second.output, want.output, "k2 = {k2}");
            assert_eq!(second.digest(), want.digest());
            assert_eq!(second.compares, 300 * 200);
            let rows = |i: usize| fresh.rels[i].collect_rows().unwrap().to_rows();
            assert_eq!(
                sorted(second.output.unwrap().to_rows()),
                sorted(brute_join(&rows(r), &rows(s), JoinPred::KeyEq))
            );
        }
    }

    /// A run whose sink fails in the middle of a tile leaves nothing
    /// behind: the next run on the same executor is the clean run, row for
    /// row.
    #[test]
    fn a_sink_failure_mid_tile_does_not_poison_the_next_run() {
        use ocas_storage::{FaultKind, FaultOp, FaultPlan, Faulted, RetryPolicy};
        let output = Output::ToDevice {
            device: "HDD2".into(),
            buffer_bytes: 256,
        };
        for k2 in [1, 3] {
            // The sink is alone on HDD2: request 0 allocates its extent,
            // request 3 is its third flush — no room left on the device.
            let plan = FaultPlan::new().with("HDD2", FaultOp::Write, 3, FaultKind::NoSpace);
            let sm = StorageSim::from_hierarchy(&presets::two_hdd_ram(1 << 22));
            let mut ex = Executor::new(
                Faulted::new(sm, plan, RetryPolicy::none()),
                Mode::Faithful,
                CpuModel::default(),
            );
            let (r, s) = add_pair(&mut ex, (300, 200), 5);
            let failed = ex.run(&tuned_bnl(r, s, k2, output.clone()));
            assert!(
                matches!(
                    failed,
                    Err(ExecError::Storage(StorageError::NoSpace { .. }))
                ),
                "{failed:?}"
            );
            let retried = ex.run(&tuned_bnl(r, s, k2, output.clone())).unwrap();

            let sm = StorageSim::from_hierarchy(&presets::two_hdd_ram(1 << 22));
            let mut clean = Executor::new(sm, Mode::Faithful, CpuModel::default());
            let (r, s) = add_pair(&mut clean, (300, 200), 5);
            let want = clean.run(&tuned_bnl(r, s, k2, output.clone())).unwrap();
            assert!(want.output_rows > 24, "the fault must land mid-run");
            assert_eq!(retried.output, want.output, "k2 = {k2}");
            assert_eq!(retried.digest(), want.digest());
            assert_eq!(retried.peak_resident_bytes, want.peak_resident_bytes);
        }
    }

    #[test]
    fn grace_join_matches_bnl() {
        let mut ex = setup(true, 1 << 25);
        let r = Relation::create(
            &mut ex.sm,
            &RelSpec::pairs("R", "HDD", 400).with_key_range(60),
            true,
            3,
        )
        .unwrap();
        let s = Relation::create(
            &mut ex.sm,
            &RelSpec::pairs("S", "HDD", 250).with_key_range(60),
            true,
            4,
        )
        .unwrap();
        let rrows = r.collect_rows().unwrap().to_rows();
        let srows = s.collect_rows().unwrap().to_rows();
        let ri = ex.add_relation(r);
        let si = ex.add_relation(s);
        let stats = ex
            .run(&Plan::GraceJoin {
                left: ri,
                right: si,
                partitions: 8,
                buffer_bytes: 1 << 12,
                spill: "HDD".into(),
                pred: JoinPred::KeyEq,
                output: Output::Discard,
            })
            .unwrap();
        let expect = brute_join(&rrows, &srows, JoinPred::KeyEq);
        assert_eq!(
            sorted(stats.output.unwrap().to_rows()),
            sorted(expect),
            "GRACE must produce exactly the join result"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The GRACE join at every geometry, against a brute-force nested
        /// loop compared as a bag (the buckets decide the order): one to
        /// eleven partitions, powers of two and not; keys from a single
        /// value (one bucket, every pair a match) to fifty; buffers below one
        /// tuple per bucket (every row flushed alone) and up to a few
        /// kilobytes; an equi-join and a cross product of co-buckets; the
        /// output collected
        /// and digested — the same digest and the same peak — and written to
        /// the spill device or to another one, where it is read back from.
        #[test]
        fn grace_joins_at_every_geometry(
            (lcard, rcard) in (1u64..320, 1u64..220),
            (key_range, partitions) in (1u64..50, 1u64..12),
            (tight, buffer_bytes, cross) in (0u32..3, 1u64..4096, 0u32..4),
        ) {
            let pred = if cross == 0 { JoinPred::Cross } else { JoinPred::KeyEq };
            // A cross product at the smaller cardinalities only.
            let (lcard, rcard) = match pred {
                JoinPred::Cross => (lcard % 40 + 1, rcard % 40 + 1),
                JoinPred::KeyEq => (lcard, rcard),
            };
            let buffer_bytes = match tight {
                0 => buffer_bytes % (partitions * 16) + 1,
                _ => buffer_bytes,
            };
            let mut ex = Executor::new(
                StorageSim::from_hierarchy(&presets::two_hdd_ram(1 << 25)),
                Mode::Faithful,
                CpuModel::default(),
            );
            let mut want = Vec::new();
            for (name, card, seed) in [("R", lcard, key_range), ("S", rcard, partitions)] {
                let spec = RelSpec::pairs(name, "HDD", card).with_key_range(key_range);
                let rel = Relation::create(&mut ex.sm, &spec, true, seed).unwrap();
                want.push(rel.collect_rows().unwrap().to_rows());
                ex.add_relation(rel);
            }
            // A cross product pairs the rows of co-buckets (what the plan's
            // `pred` documents: GRACE is correct for `KeyEq`).
            let bucket = |key: i64| ocal::stable_hash(&ocal::Value::Int(key)) % partitions;
            let co_buckets: Vec<Row> = brute_join(&want[0], &want[1], JoinPred::Cross)
                .into_iter()
                .filter(|row| bucket(row[0]) == bucket(row[2]))
                .collect();
            let want = sorted(match pred {
                JoinPred::Cross => co_buckets,
                JoinPred::KeyEq => brute_join(&want[0], &want[1], pred),
            });
            let (mut digests, mut peaks) = (Vec::new(), Vec::new());
            for (output, collect) in [
                (Output::Discard, true),
                (Output::Discard, false),
                (Output::ToDevice { device: "HDD".into(), buffer_bytes: 64 }, true),
                (Output::ToDevice { device: "HDD2".into(), buffer_bytes: 64 }, false),
            ] {
                ex.collect_output = collect;
                let plan = Plan::GraceJoin {
                    left: 0, right: 1, partitions, buffer_bytes, spill: "HDD".into(), pred,
                    output: output.clone(),
                };
                let stats = ex.run(&plan).unwrap();
                proptest::prop_assert_eq!(stats.output_rows, want.len() as u64);
                if let Some(rows) = &stats.output {
                    proptest::prop_assert_eq!(&sorted(rows.to_rows()), &want, "{:?}", output);
                }
                if matches!(output, Output::ToDevice { .. }) && !want.is_empty() {
                    let rows = written(&mut ex, &stats).to_rows();
                    proptest::prop_assert_eq!(&sorted(rows), &want, "{:?}", output);
                }
                digests.push(stats.digest());
                peaks.push(stats.peak_resident_bytes);
            }
            proptest::prop_assert!(digests.iter().all(|d| *d == digests[0]), "{:?}", digests);
            proptest::prop_assert_eq!((peaks[0], peaks[2]), (peaks[1], peaks[3]));
        }
    }

    #[test]
    fn external_sort_sorts() {
        let mut ex = setup(true, 1 << 25);
        let l = Relation::create(&mut ex.sm, &RelSpec::ints("L", "HDD", 1000), true, 5).unwrap();
        let li = ex.add_relation(l);
        let stats = ex
            .run(&Plan::ExternalSort {
                input: li,
                fan_in: 8,
                b_in: 32,
                b_out: 64,
                scratch: "HDD".into(),
                output: Output::Discard,
            })
            .unwrap();
        let out = stats.output.unwrap();
        assert_eq!(out.len(), 1000);
        assert!(out.is_sorted());
    }

    /// The sort holds its buffers, not its relation: a 50,000-tuple sort
    /// peaks at one batch of `fan_in * b_in + b_out` tuples and its encoding
    /// while runs form — far inside one block of the relation's size, where
    /// the old clone-then-sort emit step peaked at 2-3x it — and its merges
    /// (eight 256-tuple cursors and a 1,024-tuple batch, encoded on the
    /// intermediate pass) stay below that. The same with the output
    /// collected or digested: collecting is what a `Discard` run is for, and
    /// is not the algorithm's memory.
    #[test]
    fn sort_transient_allocation_stays_within_one_block_of_the_relation() {
        let (card, fan_in, b_in, b_out) = (50_000u64, 8, 256, 1024);
        let spec = RelSpec::ints("L", "HDD", card)
            .with_key_range(9_999)
            .with_cache_bytes(16 * 1024);
        let run_bytes = (fan_in * b_in + b_out) * 8;
        assert!(card * 8 > 16 * run_bytes, "17 runs, one intermediate pass");
        let mut digests = Vec::new();
        for collect in [false, true] {
            let mut ex = setup(true, 1 << 25);
            ex.collect_output = collect;
            let l = Relation::create(&mut ex.sm, &spec, true, 5).unwrap();
            let input = ex.add_relation(l);
            let stats = ex
                .run(&Plan::ExternalSort {
                    input,
                    fan_in,
                    b_in,
                    b_out,
                    scratch: "HDD".into(),
                    output: Output::Discard,
                })
                .unwrap();
            assert_eq!(stats.output_rows, card);
            assert_eq!(
                stats.peak_resident_bytes,
                2 * run_bytes,
                "collect {collect}"
            );
            assert!(fan_in * b_in * 8 + 2 * b_out * 8 < 2 * run_bytes);
            digests.push(stats.digest());
        }
        let mut want = RowGen::from_spec(&spec, 5).generate_all();
        want.sort();
        assert_eq!(digests, [Some(fnv_values(FNV_OFFSET, want.as_slice())); 2]);
    }

    /// The emission digest is stable across output collection on/off and
    /// equals the fold over the rows the relation's generator draws, deduped
    /// — the comparison handle for faithful twins too large to materialize —
    /// and a run carries one witness of its output: the rows, or the digest
    /// folded as they were emitted.
    #[test]
    fn output_digest_is_collection_and_source_independent() {
        let spec = RelSpec::ints("L", "HDD", 3_000)
            .sorted()
            .with_key_range(500);
        let run = |collect: bool, seed: u64| -> ExecStats {
            let mut ex = setup(true, 1 << 25);
            ex.collect_output = collect;
            let l = Relation::create(&mut ex.sm, &spec, true, seed).unwrap();
            let li = ex.add_relation(l);
            ex.run(&Plan::DedupSorted {
                input: li,
                b_in: 64,
                output: Output::Discard,
            })
            .unwrap()
        };
        let (a, b) = (run(true, 13), run(false, 13));
        assert!(a.output.is_some() && a.output_digest.is_none());
        assert!(b.output.is_none() && b.output_digest.is_some());
        assert_eq!(a.output_rows, b.output_rows);
        assert_eq!(a.digest(), b.output_digest);
        let mut drawn = RowGen::from_spec(&spec, 13).generate_all();
        drawn.dedup();
        assert_eq!(a.digest(), Some(fnv_values(FNV_OFFSET, drawn.as_slice())));
        // Different data ⇒ different digest.
        assert_ne!(a.digest(), run(true, 14).digest());
    }

    /// Writes `rows` as one file on `device` with a charged data write —
    /// the simulator keeps what is written (not what is materialized), so
    /// an attached relation over the file has rows on every backend.
    fn file_of<B: StorageBackend>(sm: &mut B, device: &str, rows: &RowBuf) -> FileId {
        let bytes = rows.encode();
        let file = sm.alloc(device, (bytes.len() as u64).max(1)).unwrap();
        sm.write_bytes(file, 0, &bytes).unwrap();
        file
    }

    /// What a faithful run left on the device it wrote its output to: the
    /// rows of [`ExecStats::output_extent`], read back.
    fn written(ex: &mut Executor, stats: &ExecStats) -> RowBuf {
        let (file, bytes) = stats.output_extent.expect("a device-bound output");
        let mut buf = vec![0u8; bytes as usize];
        assert!(ex.sm.read_data(file, 0, &mut buf).unwrap(), "kept");
        RowBuf::decode(&buf, stats.output_width)
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
        let mut ex = setup(true, 1 << 25);
        // Two batches of 12 (fan_in * b_in + b_out), every row of the first
        // below every row of the second: cursor 0 runs dry exactly when a
        // 4-row batch fills, three times, then cursor 1 does the same.
        let rows: Vec<i64> = (0..12).rev().chain((12..24).rev()).collect();
        let file = file_of(&mut ex.sm, "HDD", &RowBuf::from_vec(rows, 1));
        let input = ex.add_relation(Relation::attach(file, 24, 1, 24));
        let plan = Plan::ExternalSort {
            input,
            fan_in: 2,
            b_in: 4,
            b_out: 4,
            scratch: "HDD".into(),
            output: Output::ToDevice {
                device: "HDD".into(),
                buffer_bytes: 32,
            },
        };
        ocas_obs::start();
        let stats = ex.run(&plan).unwrap();
        let trace = ocas_obs::finish().expect("recording");
        let sorted: Vec<i64> = (0..24).collect();
        assert_eq!(stats.output.as_ref().unwrap().as_slice(), sorted);
        assert_eq!(written(&mut ex, &stats).as_slice(), sorted);
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
        let mut ex = setup(true, 1 << 25);
        let runs: Vec<(FileId, u64)> = [[1i64, 4, 7], [2, 5, 8]]
            .iter()
            .map(|rows| {
                (
                    file_of(&mut ex.sm, "HDD", &RowBuf::from_vec(rows.to_vec(), 1)),
                    3,
                )
            })
            .collect();
        let mut sink = ex.sink(&Output::Discard, 8, 1);
        ex.merge_runs(
            0,
            &runs,
            1,
            (2, 100),
            None,
            Some(&mut sink),
            &mut Vec::new(),
        )
        .unwrap();
        let done = sink.finish(&mut ex.sm).unwrap();
        assert_eq!(done.output.unwrap().as_slice(), [1, 2, 4, 5, 7, 8]);
        // Two one-row cursor tails (the second refills) and six batch rows.
        assert_eq!(ex.peak_resident, (2 + 6) * 8);
    }

    /// True when cursor `a`'s head is merged before cursor `b`'s: the
    /// smaller row, the lower cursor on a tie (which keeps the merge
    /// stable), and any row before an exhausted cursor.
    fn merges_first(cursors: &[BlockCursor], a: usize, b: usize) -> bool {
        match (cursors[a].head(), cursors[b].head()) {
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

    /// A tournament tree over the cursors of one merge: `nodes[0]` is the
    /// cursor whose head is merged next, `nodes[1..]` the loser of each
    /// match on the way up (heap layout; cursor `i` is leaf `k + i`). After
    /// the winner advances only its own path is replayed — `log2(k)`
    /// comparisons a row instead of a scan of every cursor.
    struct LoserTree {
        nodes: Vec<usize>,
    }

    impl LoserTree {
        fn new(cursors: &[BlockCursor]) -> LoserTree {
            let k = cursors.len();
            // Play every match bottom-up; `winners[n]` is who left node `n`.
            let mut winners: Vec<usize> = (0..2 * k).map(|n| n.saturating_sub(k)).collect();
            let mut nodes = vec![0; k];
            for n in (1..k).rev() {
                let (a, b) = (winners[2 * n], winners[2 * n + 1]);
                let a_wins = merges_first(cursors, a, b);
                winners[n] = if a_wins { a } else { b };
                nodes[n] = if a_wins { b } else { a };
            }
            nodes[0] = winners[1];
            LoserTree { nodes }
        }

        fn winner(&self) -> usize {
            self.nodes[0]
        }

        /// Replays the matches of cursor `i` (the last winner) after its
        /// head changed.
        fn replay(&mut self, cursors: &[BlockCursor], i: usize) {
            let mut winner = i;
            let mut n = (cursors.len() + i) / 2;
            while n > 0 {
                if merges_first(cursors, self.nodes[n], winner) {
                    std::mem::swap(&mut self.nodes[n], &mut winner);
                }
                n /= 2;
            }
            self.nodes[0] = winner;
        }
    }

    /// The literal merge: merges the sorted runs behind `cursors` (at least
    /// one) into one sorted stream, handing `emit` the cursors and the index
    /// of the one whose head is the next row. A refill is issued only for
    /// the cursor that just advanced, and only after `emit` returned — so
    /// whatever `emit` writes precedes the read, as it would in a loop that
    /// refilled every cursor before each pick.
    fn literal_merge<B: StorageBackend>(
        sm: &mut B,
        cursors: &mut [BlockCursor],
        mut emit: impl FnMut(&[BlockCursor], usize),
    ) {
        for c in cursors.iter_mut() {
            assert!(c.ensure(sm).unwrap());
        }
        let mut tree = LoserTree::new(cursors);
        loop {
            let i = tree.winner();
            if cursors[i].head().is_none() {
                return; // the best cursor is exhausted: all are
            }
            emit(cursors, i);
            cursors[i].advance();
            assert!(cursors[i].ensure(sm).unwrap());
            tree.replay(cursors, i);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(160))]

        /// The literal merge against a stable sort of the concatenation,
        /// and the batch merge against the literal one: any number of runs
        /// (one, powers of two and not, up to 17 — past the kernel's scan
        /// into its tree), widths 1 to 3, unequal and empty runs, keys from
        /// a domain small enough that most rows tie — and a tie goes to the
        /// lower run — with both extreme keys in it; rows witnessed and
        /// rows written to an extent.
        #[test]
        fn merge_runs_is_the_stable_sort_of_the_concatenation(
            (width, b_in, b_out) in (1usize..4, 1u64..6, 1u64..9),
            lens in proptest::collection::vec(0usize..13, 1..18),
            draws in proptest::collection::vec((0i64..5, 0i64..2, 0i64..2), 200..201),
        ) {
            let mut ex = setup(true, 1 << 25);
            let mut draw = draws.iter().cycle();
            let mut cursors = Vec::new();
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
                let file = file_of(&mut ex.sm, "HDD", &rows);
                let rel = Relation::attach(file, len as u64, width as u32, 1);
                cursors.push(BlockCursor::new(rel, b_in));
                runs.push((file, len as u64));
            }
            let mut got: Vec<(Vec<i64>, usize)> = Vec::new();
            literal_merge(&mut ex.sm, &mut cursors, |cursors, i| {
                got.push((cursors[i].head().expect("has a head").to_vec(), i));
            });
            tagged.sort(); // by row, then by run: the stable order
            proptest::prop_assert_eq!(&got, &tagged);

            let want: Vec<i64> = tagged.iter().flat_map(|(row, _)| row.iter().copied()).collect();
            let mut sink = ex.sink(&Output::Discard, width as u64 * 8, width);
            ex.merge_runs(0, &runs, width, (b_in, b_out), None, Some(&mut sink), &mut Vec::new())
                .unwrap();
            let done = sink.finish(&mut ex.sm).unwrap();
            proptest::prop_assert_eq!(done.output.unwrap().as_slice(), want.as_slice());
            let merged = ex.sm.alloc("HDD", (want.len() as u64 * 8).max(1)).unwrap();
            ex.merge_runs(0, &runs, width, (b_in, b_out), Some(merged), None, &mut Vec::new())
                .unwrap();
            let mut bytes = vec![0u8; want.len() * 8];
            let kept = ex.sm.read_data(merged, 0, &mut bytes).unwrap();
            proptest::prop_assert_eq!(kept, !want.is_empty(), "a written run is kept");
            proptest::prop_assert_eq!(RowBuf::decode(&bytes, width).as_slice(), want.as_slice());
        }

        /// The whole sort, run formation included, at every buffer geometry:
        /// one-tuple input and output buffers and buffers of two dozen,
        /// fan-ins that are not powers of two, inputs that form no run, one
        /// run (never spilled) and several merge levels, one- and
        /// two-column tuples over key ranges that tie most rows, keys up to
        /// `i64::MAX` — collected and digested, and written to the scratch
        /// device or to another one, where it is read back from.
        #[test]
        fn external_sort_sorts_at_every_buffer_geometry(
            (fan_in, b_in, b_out, tiny) in (2u64..17, 1u64..24, 1u64..24, 0u32..2),
            (card, wide, key_range) in (0u64..320, 0u32..2, 1u64..50),
        ) {
            // Half the cases keep both buffers at one to three tuples.
            let (b_in, b_out) = match tiny {
                1 => (b_in % 3 + 1, b_out % 3 + 1),
                _ => (b_in, b_out),
            };
            let mut ex = Executor::new(
                StorageSim::from_hierarchy(&presets::two_hdd_ram(1 << 25)),
                Mode::Faithful,
                CpuModel::default(),
            );
            let spec = match wide {
                0 => RelSpec::ints("L", "HDD", card),
                _ => RelSpec::pairs("L", "HDD", card),
            }
            .with_key_range(key_range);
            let width = spec.width as usize;
            // The top of the key range becomes the top of the key domain.
            let drawn = RowGen::from_spec(&spec, fan_in * 1000 + card).generate_all();
            let rows: Vec<i64> = drawn
                .iter()
                .flat_map(|row| {
                    let top = row[0] == key_range as i64 - 1;
                    std::iter::once(if top { i64::MAX } else { row[0] }).chain(row[1..].iter().copied())
                })
                .collect();
            let mut want = RowBuf::from_vec(rows, width);
            let file = file_of(&mut ex.sm, "HDD", &want);
            let input = ex.add_relation(Relation::attach(file, card, width as u32, key_range));
            want.sort();
            for (output, collect) in [
                (Output::Discard, true),
                (Output::Discard, false),
                (Output::ToDevice { device: "HDD".into(), buffer_bytes: 64 }, true),
                (Output::ToDevice { device: "HDD2".into(), buffer_bytes: 64 }, false),
            ] {
                ex.collect_output = collect;
                let plan = Plan::ExternalSort {
                    input, fan_in, b_in, b_out, scratch: "HDD".into(), output: output.clone(),
                };
                let stats = ex.run(&plan).unwrap();
                proptest::prop_assert_eq!(stats.output_rows, card);
                let digest = fnv_values(FNV_OFFSET, want.as_slice());
                proptest::prop_assert_eq!(stats.digest(), Some(digest), "{:?}", output);
                if collect {
                    proptest::prop_assert_eq!(stats.output.as_ref(), Some(&want));
                }
                if matches!(output, Output::ToDevice { .. }) && card > 0 {
                    proptest::prop_assert_eq!(&written(&mut ex, &stats), &want, "{:?}", output);
                }
            }
        }
    }

    #[test]
    fn wider_fan_in_needs_fewer_passes() {
        let mk = |fan: u64| -> f64 {
            let mut ex = setup(false, 1 << 22);
            let l = Relation::create(&mut ex.sm, &RelSpec::ints("L", "HDD", 1 << 20), false, 0)
                .unwrap();
            let li = ex.add_relation(l);
            ex.run(&Plan::ExternalSort {
                input: li,
                // Chunks above the 4 KiB page size so alternating-run reads
                // genuinely seek (sub-page chunks coalesce via read-ahead).
                b_in: 1024,
                fan_in: fan,
                b_out: 4096,
                scratch: "HDD".into(),
                output: Output::Discard,
            })
            .unwrap()
            .seconds
        };
        let t2 = mk(2);
        let t16 = mk(16);
        assert!(
            t2 > 2.0 * t16,
            "2-way ({t2}) must be much slower than 16-way ({t16})"
        );
    }

    #[test]
    fn merge_kinds_reference_semantics() {
        let merge_rows = |a: &[Row], b: &[Row], kind| {
            merge_bufs(&RowBuf::from_rows(a), &RowBuf::from_rows(b), kind).to_rows()
        };
        let a: Vec<Row> = vec![vec![1], vec![2], vec![2], vec![5]];
        let b: Vec<Row> = vec![vec![2], vec![3], vec![5]];
        assert_eq!(
            merge_rows(&a, &b, MergeKind::MultisetUnionSorted),
            vec![
                vec![1],
                vec![2],
                vec![2],
                vec![2],
                vec![3],
                vec![5],
                vec![5]
            ]
        );
        assert_eq!(
            merge_rows(&a, &b, MergeKind::SetUnion),
            vec![vec![1], vec![2], vec![3], vec![5]]
        );
        assert_eq!(
            merge_rows(&a, &b, MergeKind::MultisetDiffSorted),
            vec![vec![1], vec![2]]
        );
        let avm: Vec<Row> = vec![vec![1, 3], vec![4, 2]];
        let bvm: Vec<Row> = vec![vec![1, 1], vec![4, 2], vec![9, 5]];
        assert_eq!(
            merge_rows(&avm, &bvm, MergeKind::MultisetUnionVm),
            vec![vec![1, 4], vec![4, 4], vec![9, 5]]
        );
        assert_eq!(
            merge_rows(&avm, &bvm, MergeKind::MultisetDiffVm),
            vec![vec![1, 2]]
        );
    }

    /// One charged request: `(is_write, file, offset, len)`.
    type Request = (bool, usize, u64, u64);

    /// The simulator, logging every charged request — the wrapper
    /// `ocas-runtime`'s `stream_requests.rs` records real runs with. Run
    /// requests keep the trait's loops unless `runs` is set; then they go
    /// to the simulator whole, logged request by request (write runs
    /// counted in `write_runs`).
    struct Recording {
        inner: StorageSim,
        log: Vec<Request>,
        runs: bool,
        write_runs: u64,
    }

    impl Recording {
        fn new(inner: StorageSim, runs: bool) -> Recording {
            Recording {
                inner,
                log: Vec::new(),
                runs,
                write_runs: 0,
            }
        }

        fn log_run(&mut self, write: bool, file: FileId, offset: u64, unit: u64, count: u64) {
            self.write_runs += u64::from(write);
            let requests = (0..count).map(|j| (write, file.0, offset + j * unit, unit));
            self.log.extend(requests);
        }
    }

    impl StorageBackend for Recording {
        fn alloc(&mut self, device: &str, len: u64) -> Result<FileId, StorageError> {
            self.inner.alloc(device, len)
        }
        fn read(&mut self, file: FileId, offset: u64, len: u64) -> Result<(), StorageError> {
            self.log.push((false, file.0, offset, len));
            StorageBackend::read(&mut self.inner, file, offset, len)
        }
        fn read_run(
            &mut self,
            file: FileId,
            offset: u64,
            unit: u64,
            count: u64,
        ) -> Result<(), StorageError> {
            if !self.runs {
                for j in 0..count {
                    self.read(file, offset + j * unit, unit)?;
                }
                return Ok(());
            }
            self.log_run(false, file, offset, unit, count);
            self.inner.read_run(file, offset, unit, count)
        }
        fn write_run(
            &mut self,
            file: FileId,
            offset: u64,
            unit: u64,
            count: u64,
        ) -> Result<(), StorageError> {
            if !self.runs {
                for j in 0..count {
                    self.write(file, offset + j * unit, unit)?;
                }
                return Ok(());
            }
            self.log_run(true, file, offset, unit, count);
            self.inner.write_run(file, offset, unit, count)
        }
        fn read_data(
            &mut self,
            file: FileId,
            offset: u64,
            buf: &mut [u8],
        ) -> Result<bool, StorageError> {
            self.log.push((false, file.0, offset, buf.len() as u64));
            self.inner.read_data(file, offset, buf)
        }
        fn write(&mut self, file: FileId, offset: u64, len: u64) -> Result<(), StorageError> {
            self.log.push((true, file.0, offset, len));
            StorageBackend::write(&mut self.inner, file, offset, len)
        }
        fn write_bytes(
            &mut self,
            file: FileId,
            offset: u64,
            data: &[u8],
        ) -> Result<(), StorageError> {
            self.log.push((true, file.0, offset, data.len() as u64));
            self.inner.write_bytes(file, offset, data)
        }
        fn materialize(
            &mut self,
            file: FileId,
            offset: u64,
            data: &[u8],
        ) -> Result<(), StorageError> {
            self.inner.materialize(file, offset, data)
        }
        fn charge_cpu(&mut self, seconds: f64) {
            StorageBackend::charge_cpu(&mut self.inner, seconds)
        }
        fn clock(&self) -> f64 {
            StorageBackend::clock(&self.inner)
        }
        fn len(&self, file: FileId) -> u64 {
            StorageBackend::len(&self.inner, file)
        }
        fn device_of(&self, file: FileId) -> &str {
            StorageBackend::device_of(&self.inner, file)
        }
        fn device_stats(&self, device: &str) -> Option<ocas_storage::DeviceStats> {
            StorageBackend::device_stats(&self.inner, device)
        }
        fn truncate_device(&mut self, device: &str, mark: u64) -> Result<(), StorageError> {
            StorageBackend::truncate_device(&mut self.inner, device, mark)
        }
        fn watermark(&self, device: &str) -> Option<u64> {
            StorageBackend::watermark(&self.inner, device)
        }
        fn page_bytes(&self, device: &str) -> Result<u64, StorageError> {
            StorageBackend::page_bytes(&self.inner, device)
        }
    }

    /// What a streaming plan's run is held to: the collected rows, the
    /// digest, the rows emitted, the comparisons, the peak resident bytes,
    /// every request in order and the device's counters.
    type Witness = (
        Option<RowBuf>,
        Option<u64>,
        u64,
        u64,
        u64,
        Vec<Request>,
        Option<ocas_storage::DeviceStats>,
    );

    /// `plan` — a merge pass, column zip or duplicate removal — run by the
    /// per-row loop its kernel replaced, set up as `Executor::run` sets it
    /// up: `(output, digest, rows, compares, peak)`.
    fn run_literal<B: StorageBackend>(
        ex: &mut Executor<B>,
        plan: &Plan,
    ) -> (Option<RowBuf>, Option<u64>, u64, u64, u64) {
        ex.peak_resident = 0;
        let (sink, compares) = match plan {
            Plan::MergePass {
                left,
                right,
                kind,
                b_in,
                output,
            } => {
                let (l, r) = (ex.rels[*left].clone(), ex.rels[*right].clone());
                let compares = l.card + r.card;
                let mut sink = ex.sink(output, l.tuple_bytes, l.width.max(1) as usize);
                let inputs = ((*left, l), (*right, r));
                ex.merge_literal(inputs.0, inputs.1, *kind, *b_in, &mut sink)
                    .unwrap();
                (sink, compares)
            }
            Plan::ColumnZip {
                columns,
                b_in,
                output,
            } => {
                let rels: Vec<Relation> = columns.iter().map(|c| ex.rels[*c].clone()).collect();
                let card = rels.iter().map(|r| r.card).min().unwrap_or(0);
                let bytes = rels.iter().map(|r| r.tuple_bytes).sum();
                let cols = rels.iter().map(|r| r.width.max(1) as usize).sum();
                let mut sink = ex.sink(output, bytes, cols);
                sink.reserve(card);
                let over = |mut r: Relation| {
                    r.card = card;
                    BlockCursor::new(r, *b_in)
                };
                let cursors = rels.into_iter().map(over).collect();
                ex.zip_literal(cursors, columns, card, &mut sink).unwrap();
                (sink, 0)
            }
            Plan::DedupSorted {
                input,
                b_in,
                output,
            } => {
                let rel = ex.rels[*input].clone();
                let compares = rel.card;
                let mut sink = ex.sink(output, rel.tuple_bytes, rel.width.max(1) as usize);
                sink.reserve(rel.card);
                let cursor = BlockCursor::new(rel, *b_in);
                ex.dedup_literal(cursor, *input, &mut sink).unwrap();
                (sink, compares)
            }
            other => unreachable!("not a streaming plan: {}", other.name()),
        };
        let op = sink.finish(&mut ex.sm).unwrap();
        (op.output, op.digest, op.rows, compares, ex.peak_resident)
    }

    /// Runs `plan` over relations made from `specs` on a fresh recording
    /// simulator, through the kernels (`Executor::run`) or the literal loop.
    fn witness(specs: &[RelSpec], plan: &Plan, collect: bool, literal: bool) -> Witness {
        let sm = Recording::new(
            StorageSim::from_hierarchy(&presets::hdd_ram(1 << 25)),
            false,
        );
        let mut ex =
            Executor::new(sm, Mode::Faithful, CpuModel::disabled()).with_output_collection(collect);
        for (i, spec) in specs.iter().enumerate() {
            let rel = Relation::create(&mut ex.sm, spec, true, 40 + i as u64).unwrap();
            ex.add_relation(rel);
        }
        let (output, digest, rows, compares, peak) = if literal {
            run_literal(&mut ex, plan)
        } else {
            let s = ex.run(plan).unwrap();
            let rows = s.output_rows;
            (
                s.output,
                s.output_digest,
                rows,
                s.compares,
                s.peak_resident_bytes,
            )
        };
        let stats = ex.sm.device_stats("HDD");
        (output, digest, rows, compares, peak, ex.sm.log, stats)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// Each streaming kernel against the per-row loop it replaced, on
        /// the recording simulator: the five merge kinds, zips of one to
        /// five columns of one to three columns each, and the duplicate
        /// removal, at `b_in` of 1, 3, 64 and the whole input, over key
        /// domains small enough that rows tie, generator windows small
        /// enough to move mid-run, a consumed output and device-bound ones
        /// whose buffers flush mid-block, rows collected or digested. The
        /// same requests in the same order, rows, digest, comparisons, peak
        /// and device counters.
        #[test]
        fn streaming_kernels_equal_their_literal_loops(
            (template, width, columns) in (0u32..7, 1u32..4, 1usize..6),
            (cards, key_range, cache) in ((0u64..300, 0u64..300), 1u64..40, 0u64..4),
            (b_in_kind, buffer, collect) in (0u32..4, 0u64..200, 0u32..2),
            widths in proptest::collection::vec(1u32..4, 5..6),
        ) {
            let spec = |name: &str, card: u64, width: u32| RelSpec {
                width,
                cache_bytes: [0, 64, 520, 4096][cache as usize],
                ..RelSpec::ints(name, "HDD", card)
                    .sorted()
                    .with_key_range(key_range)
            };
            let longest = cards.0.max(cards.1).max(1);
            let b_in = [1, 3, 64, longest][b_in_kind as usize];
            let output = match buffer {
                0..=39 => Output::Discard,
                _ => Output::ToDevice {
                    device: "HDD".into(),
                    buffer_bytes: buffer - 40,
                },
            };
            let (specs, plan) = match template {
                0..=4 => {
                    let kind = [
                        MergeKind::MultisetUnionSorted,
                        MergeKind::SetUnion,
                        MergeKind::MultisetUnionVm,
                        MergeKind::MultisetDiffSorted,
                        MergeKind::MultisetDiffVm,
                    ][template as usize];
                    let vm = matches!(kind, MergeKind::MultisetUnionVm | MergeKind::MultisetDiffVm);
                    let width = if vm { 2 } else { width };
                    let specs = vec![spec("A", cards.0, width), spec("B", cards.1, width)];
                    (specs, Plan::MergePass { left: 0, right: 1, kind, b_in, output })
                }
                5 => {
                    let specs = (0..columns)
                        .map(|c| spec(&format!("C{c}"), cards.0 + c as u64 % 2, widths[c]))
                        .collect();
                    (specs, Plan::ColumnZip { columns: (0..columns).collect(), b_in, output })
                }
                _ => (vec![spec("L", cards.0, width)], Plan::DedupSorted { input: 0, b_in, output }),
            };
            let kernel = witness(&specs, &plan, collect == 1, false);
            let literal = witness(&specs, &plan, collect == 1, true);
            proptest::prop_assert_eq!(kernel, literal, "{:?}", plan);
        }
    }

    #[test]
    fn merge_pass_runs_and_charges_io() {
        let mut ex = setup(true, 1 << 25);
        let a = Relation::create(
            &mut ex.sm,
            &RelSpec::ints("A", "HDD", 500).sorted(),
            true,
            6,
        )
        .unwrap();
        let b = Relation::create(
            &mut ex.sm,
            &RelSpec::ints("B", "HDD", 300).sorted(),
            true,
            7,
        )
        .unwrap();
        let abuf = a.collect_rows().unwrap();
        let bbuf = b.collect_rows().unwrap();
        let ai = ex.add_relation(a);
        let bi = ex.add_relation(b);
        let stats = ex
            .run(&Plan::MergePass {
                left: ai,
                right: bi,
                kind: MergeKind::MultisetUnionSorted,
                b_in: 64,
                output: Output::Discard,
            })
            .unwrap();
        assert_eq!(
            stats.output.unwrap(),
            merge_bufs(&abuf, &bbuf, MergeKind::MultisetUnionSorted)
        );
        assert!(stats.seconds > 0.0);
    }

    #[test]
    fn column_zip_produces_rows() {
        let mut ex = setup(true, 1 << 25);
        let c1 = Relation::create(&mut ex.sm, &RelSpec::ints("C1", "HDD", 100), true, 8).unwrap();
        let c2 = Relation::create(&mut ex.sm, &RelSpec::ints("C2", "HDD", 100), true, 9).unwrap();
        let r1 = c1.collect_rows().unwrap();
        let r2 = c2.collect_rows().unwrap();
        let i1 = ex.add_relation(c1);
        let i2 = ex.add_relation(c2);
        let stats = ex
            .run(&Plan::ColumnZip {
                columns: vec![i1, i2],
                b_in: 16,
                output: Output::Discard,
            })
            .unwrap();
        let out = stats.output.unwrap();
        assert_eq!(out.len(), 100);
        for (i, row) in out.iter().enumerate() {
            assert_eq!(row[0], r1.row(i)[0]);
            assert_eq!(row[1], r2.row(i)[0]);
        }
    }

    #[test]
    fn dedup_removes_adjacent_duplicates() {
        let mut ex = setup(true, 1 << 25);
        let l = Relation::create(
            &mut ex.sm,
            &RelSpec::ints("L", "HDD", 500).sorted().with_key_range(50),
            true,
            10,
        )
        .unwrap();
        let rows = l.collect_rows().unwrap();
        let li = ex.add_relation(l);
        let stats = ex
            .run(&Plan::DedupSorted {
                input: li,
                b_in: 64,
                output: Output::Discard,
            })
            .unwrap();
        let mut expect = rows;
        expect.dedup();
        assert_eq!(stats.output.unwrap(), expect);
    }

    #[test]
    fn aggregate_computes_avg() {
        let mut ex = setup(true, 1 << 25);
        let l = Relation::create(&mut ex.sm, &RelSpec::ints("L", "HDD", 400), true, 11).unwrap();
        let rows = l.collect_rows().unwrap();
        let li = ex.add_relation(l);
        let stats = ex
            .run(&Plan::Aggregate {
                input: li,
                b_in: 64,
            })
            .unwrap();
        let sum: i64 = rows.iter().map(|r| r[0]).sum();
        assert_eq!(stats.output.unwrap().row(0)[0], sum / rows.len() as i64);
    }

    #[test]
    fn write_interference_same_disk_slower_than_second_disk() {
        let mk = |two_disks: bool| -> f64 {
            let h = if two_disks {
                presets::two_hdd_ram(1 << 22)
            } else {
                presets::hdd_ram(1 << 22)
            };
            let sm = StorageSim::from_hierarchy(&h);
            let mut ex = Executor::new(sm, Mode::Simulated, CpuModel::default());
            let r =
                Relation::create(&mut ex.sm, &RelSpec::pairs("R", "HDD", 2_000), false, 0).unwrap();
            let s = Relation::create(&mut ex.sm, &RelSpec::pairs("S", "HDD", 200_000), false, 0)
                .unwrap();
            let ri = ex.add_relation(r);
            let si = ex.add_relation(s);
            ex.run(&Plan::BnlJoin {
                outer: ri,
                inner: si,
                k1: 256,
                k2: 4096,
                tiling: None,
                pred: JoinPred::Cross,
                order_inputs: true,
                output: Output::ToDevice {
                    device: if two_disks {
                        "HDD2".into()
                    } else {
                        "HDD".into()
                    },
                    buffer_bytes: 20 * 1024,
                },
            })
            .unwrap()
            .seconds
        };
        let same = mk(false);
        let other = mk(true);
        assert!(
            same > 1.3 * other,
            "same-disk output ({same}) must be much slower than second disk ({other})"
        );
    }

    #[test]
    fn flash_output_beats_second_hdd() {
        let mk = |device: &str| -> f64 {
            let h = presets::hdd_flash_ram(1 << 22);
            let mut h2 = presets::two_hdd_ram(1 << 22);
            let _ = &mut h2;
            let h = if device == "SSD" { h } else { h2 };
            let sm = StorageSim::from_hierarchy(&h);
            let mut ex = Executor::new(sm, Mode::Simulated, CpuModel::default());
            let r =
                Relation::create(&mut ex.sm, &RelSpec::pairs("R", "HDD", 2_000), false, 0).unwrap();
            let s = Relation::create(&mut ex.sm, &RelSpec::pairs("S", "HDD", 200_000), false, 0)
                .unwrap();
            let ri = ex.add_relation(r);
            let si = ex.add_relation(s);
            ex.run(&Plan::BnlJoin {
                outer: ri,
                inner: si,
                k1: 256,
                k2: 4096,
                tiling: None,
                pred: JoinPred::Cross,
                order_inputs: true,
                output: Output::ToDevice {
                    device: device.into(),
                    buffer_bytes: 256 * 1024,
                },
            })
            .unwrap()
            .seconds
        };
        let ssd = mk("SSD");
        let hdd2 = mk("HDD2");
        assert!(
            ssd < hdd2,
            "flash output ({ssd}) must beat the second HDD ({hdd2})"
        );
    }

    #[test]
    fn cache_tiling_cuts_misses() {
        let run = |tiling: Option<crate::plan::Tiling>| -> CacheStats {
            let h = presets::hdd_ram(1 << 30);
            let sm = StorageSim::from_hierarchy(&h);
            // 16 KiB cache vs a 64 KiB inner relation: the untiled loop
            // re-misses the whole inner side on every outer tuple.
            let mut ex = Executor::new(sm, Mode::Faithful, CpuModel::default())
                .with_cache(CacheSim::new(16 * 1024, 64, 8));
            let r = Relation::create(
                &mut ex.sm,
                &RelSpec::pairs("R", "HDD", 4096).with_key_range(100),
                true,
                12,
            )
            .unwrap();
            let s = Relation::create(
                &mut ex.sm,
                &RelSpec::pairs("S", "HDD", 4096).with_key_range(100),
                true,
                13,
            )
            .unwrap();
            let ri = ex.add_relation(r);
            let si = ex.add_relation(s);
            ex.run(&Plan::BnlJoin {
                outer: ri,
                inner: si,
                k1: 4096,
                k2: 4096,
                tiling,
                pred: JoinPred::KeyEq,
                order_inputs: false,
                output: Output::Discard,
            })
            .unwrap()
            .cache
            .unwrap()
        };
        let untiled = run(None);
        let tiled = run(Some(crate::plan::Tiling {
            outer: 256,
            inner: 256,
        }));
        // Tiling re-touches each outer row once per inner tile, so access
        // counts differ slightly; the claim is about misses.
        let ratio = tiled.accesses as f64 / untiled.accesses as f64;
        assert!((0.99..1.01).contains(&ratio), "access counts comparable");
        assert!(
            (tiled.misses as f64) < 0.2 * untiled.misses as f64,
            "tiling must cut misses by >80%: untiled={} tiled={}",
            untiled.misses,
            tiled.misses
        );
    }
}
