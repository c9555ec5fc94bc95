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
//!
//! **One arm per template.** Every template is one loop issuing the
//! faithful requests in both modes. Where a request brings rows back the
//! kernel computes on them; where simulated mode elides the data an oracle
//! for uniform keys stands in for what the data decides: expected matches
//! (a GRACE co-bucket pair's at `partitions` times the relations' density),
//! a zip's block of rows, expected distinct rows, a merge's expected output,
//! the cursor a merge refills next (`Refills`) and the rows each GRACE
//! bucket gets (`card / partitions`, the staging buffers filling in turn).
//! Requests with nothing computed or flushed between them go out as one
//! run. So a template's simulated seconds are its faithful schedule's, the
//! data aside; the spill layout (`SpillAlloc`) is the same in both modes.

use crate::key_index::{self, KeyIndex};
use crate::key_scan::KeyColumns;
use crate::merge_kernel::{MergeHeads, MergeStop};
use crate::plan::{CpuModel, JoinPred, MergeKind, Mode, Output, Plan};
use crate::rel::{BlockBuf, BlockCursor, Layout, Relation, RowBuf, RowsView};
use crate::spill::{bucket_ids, stage_rows, Extent, SpillAlloc};
use crate::stream_kernel::{dedup, merge_pass, zip, Took};
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
    /// Backend seconds: the requests issued (the same in both modes where
    /// the data is what the oracle expects) plus the modeled CPU.
    pub seconds: f64,
    /// Rows produced: the kernel's in faithful mode, the oracle's (expected
    /// matches, distinct rows or merge output, a zip's shortest column, a
    /// sort's input) in simulated mode.
    pub output_rows: u64,
    /// Tuple comparisons the model counts, in both modes. A block-nested-
    /// loops join counts the pairs its synthesized loops range over (outer
    /// block x inner block, per block pair) — the quantity the cost model
    /// reasons about — however the executor finds the matches among them;
    /// its CPU charge is a block join's build and probes instead. A GRACE
    /// join counts the pairs it emits, a merge pass its input rows and an
    /// external sort its merge levels over singleton runs.
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
    /// Columns per output row and their bytes in `output_extent`.
    pub output_layout: Layout,
    /// Where a faithful run's [`Output::ToDevice`] rows can be read back
    /// from: `(file, bytes)`, the rows in emission order from the file's
    /// start, in [`output_layout`](ExecStats::output_layout). `None` for an
    /// output that outgrew the sink's wrap-around window (witnessed by its
    /// row count and digest).
    pub output_extent: Option<(FileId, u64)>,
    /// High-water mark of resident tuple bytes the faithful data path
    /// held during this run: relation cache windows, decoded blocks and
    /// the sink's staging/collected rows — for an external sort, its
    /// batch, cursors and output batch; for a GRACE join, an input block and
    /// the bucket staging buffers, then the build bucket, one probe extent
    /// and the sink's staging. 0 in simulated mode.
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

/// The share of `a` x `b` pairs a join under `pred` emits, for keys drawn
/// uniformly from the larger key range.
fn density(pred: JoinPred, a: &Relation, b: &Relation) -> f64 {
    match pred {
        JoinPred::Cross => 1.0,
        JoinPred::KeyEq => 1.0 / a.key_range.max(b.key_range).max(1) as f64,
    }
}

/// Expected matches between an outer block of `on` tuples and an inner
/// block of `in_n` tuples at match `density`: the join's oracle where
/// simulated mode elides the rows.
fn expected_rows(on: u64, in_n: u64, density: f64) -> f64 {
    on as f64 * in_n as f64 * density
}

/// Expected distinct values among `card` uniform draws from `keys` values,
/// `K·(1 − (1 − 1/K)^card)`: the duplicate removal's and the set union's
/// oracle where simulated mode elides the rows.
fn expected_distinct(keys: f64, card: u64) -> f64 {
    let k = keys.clamp(1.0, 1e300);
    -k * (card as f64 * (-1.0 / k).ln_1p()).exp_m1()
}

/// Expected pairs between `a` and `b` uniform draws from `keys` values when
/// each value pairs as often as it occurs on its rarer side: `K·E[min(X,
/// Y)]` for Poisson `X` and `Y` of means `a/K` and `b/K`, summed as
/// `Σ_{t≥1} P(X ≥ t)·P(Y ≥ t)` up to ten deviations past the smaller mean.
fn expected_pairs(keys: f64, a: u64, b: u64) -> f64 {
    let k = keys.clamp(1.0, 1e300);
    let (x, y) = (a as f64 / k, b as f64 / k);
    let last = x.min(y) + 10.0 * x.min(y).sqrt() + 10.0;
    // ln P(· = t), then P(· > t).
    let (mut lx, mut ly, mut gx, mut gy, mut sum, mut t) = (-x, -y, 1.0f64, 1.0f64, 0.0, 0.0);
    while t < last {
        (gx, gy) = ((gx - lx.exp()).max(0.0), (gy - ly.exp()).max(0.0));
        sum += gx * gy;
        t += 1.0;
        (lx, ly) = (lx + (x / t).ln(), ly + (y / t).ln());
    }
    k * sum
}

/// The rows a merge of `kind` emits, laid out: the left input's, except
/// that a value-multiplicity union's summed multiplicity gets 8 bytes,
/// which hold every sum whatever the inputs' column width.
fn merge_layout(kind: MergeKind, l: &Relation) -> Layout {
    match kind {
        MergeKind::MultisetUnionVm => Layout::new(1, l.col_bytes()).then(&Layout::new(1, 8)),
        _ => l.layout(),
    }
}

/// Expected rows a merge pass of `kind` emits over sorted inputs of
/// uniform keys, every column drawn from the larger key range: the merge's
/// oracle where simulated mode elides the rows. A row is a key of the whole
/// row, except for the value-multiplicity kinds, which pair rows on the
/// value; a difference keeps the excess multiplicity of a paired row half
/// the time.
fn expected_merge_rows(kind: MergeKind, a: &Relation, b: &Relation) -> u64 {
    let k = a.key_range.max(b.key_range).max(1) as f64;
    let rows = k.powi(a.width.max(1) as i32);
    let (na, nb) = (a.card as f64, b.card as f64);
    let expected = match kind {
        MergeKind::MultisetUnionSorted => na + nb,
        MergeKind::SetUnion => expected_distinct(rows, a.card + b.card),
        MergeKind::MultisetUnionVm => na + nb - expected_pairs(k, a.card, b.card),
        MergeKind::MultisetDiffSorted => na - expected_pairs(rows, a.card, b.card),
        MergeKind::MultisetDiffVm => na - expected_pairs(k, a.card, b.card) * (k + 1.0) / (2.0 * k),
    };
    expected.round().max(0.0) as u64
}

/// Where simulated mode refills the cursors of a merge over uniform keys.
/// Cursor `i` holds `cards[i]` rows, read `b_in` at a time; its block `j`
/// runs dry — and block `j + 1` is read — once the output fraction `(j +
/// 1)·b_in / cards[i]` is out. To the row: cursor `i`'s `n`-th row has key
/// `n / cards[i]`, a tie going to the lower cursor as in a stable merge, so
/// equally long inputs interleave round-robin; `total` rows come out.
struct Refills {
    cards: Vec<u64>,
    b_in: u64,
    total: u64,
    /// Blocks read per cursor (the first ones before the merge starts).
    read: Vec<u64>,
    /// Per cursor, the input rows merged when its next refill falls due.
    due: Vec<Option<u64>>,
}

/// `a · b / c` rounded down, and the remainder (`c > 0`), in 64 bits where
/// the product fits; no division when `b == c` (equal inputs, or an output
/// of every input row).
fn mul_div(a: u64, b: u64, c: u64) -> (u64, u64) {
    match a.checked_mul(b) {
        _ if b == c => (a, 0),
        Some(p) => (p / c, p % c),
        None => {
            let (p, c) = (u128::from(a) * u128::from(b), u128::from(c));
            ((p / c) as u64, (p % c) as u64)
        }
    }
}

impl Refills {
    fn new(cards: Vec<u64>, b_in: u64, total: u64) -> Refills {
        let read = vec![1; cards.len()];
        let mut refills = Refills {
            cards,
            b_in,
            total,
            read,
            due: Vec::new(),
        };
        refills.due = (0..refills.cards.len()).map(|i| refills.due(i)).collect();
        refills
    }

    /// Input rows merged once cursor `i`'s current block has run dry, if
    /// another block follows: its last row's rank among every cursor's rows.
    fn due(&self, i: usize) -> Option<u64> {
        let (n, card) = (self.read[i] * self.b_in, self.cards[i]);
        let rank = |(k, &other): (usize, &u64)| match k {
            k if k == i => n,
            // Rows with a lower key, and with the same key from a lower cursor.
            k => match mul_div(n, other, card) {
                (0, 0) => 0,
                (below, 0) => below - u64::from(k > i),
                (below, _) => below,
            },
        };
        (n < card).then(|| self.cards.iter().enumerate().map(rank).sum())
    }

    /// The next refill: the cursor whose block runs dry first, and the rows
    /// out by then (rounded half up); `None` once every block has been read.
    fn next(&mut self) -> Option<(usize, u64)> {
        let (merged, i) = (self.due.iter().enumerate())
            .filter_map(|(i, due)| Some(((*due)?, i)))
            .min()?;
        self.read[i] += 1;
        self.due[i] = self.due(i);
        let inputs = self.cards.iter().sum::<u64>();
        let (out, rest) = mul_div(merged, self.total, inputs);
        Some((i, out + u64::from(2 * rest >= inputs)))
    }
}

/// One step of simulated mode's emission recurrence: `c` expected rows
/// join the fractional `carry`; the whole part is emitted now, the rest
/// carried to the next block.
fn emit_step(c: f64, carry: f64) -> (u64, f64) {
    let expected = c + carry;
    // `as` truncates toward zero and saturates, which for every `f64` is
    // `expected.floor() as u64` (a negative sum saturates to 0 either way)
    // — without `floor`'s library call on a target lacking SSE4.1.
    let whole = expected as u64;
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
/// `collected` batch and encoded straight into the staging byte buffer, in
/// the output's [`Layout`] — no per-tuple allocation. (An external sort
/// writes its own output extent and hands the sink its batches to witness.)
struct Sink {
    output: Output,
    /// The output's tuple format: its inputs' layouts, concatenated.
    layout: Layout,
    tuple_bytes: u64,
    pending: u64,
    rows: u64,
    /// True for faithful runs: real payload bytes are encoded for device
    /// outputs, and the emitted rows are witnessed — kept in `collected`,
    /// or else folded into `digest`.
    faithful: bool,
    collected: Option<RowBuf>,
    /// Running FNV-1a digest over emitted rows (faithful mode, when they
    /// are not collected).
    digest: u64,
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
    fn new(output: &Output, layout: Layout, faithful: bool, collect: bool) -> Sink {
        Sink {
            output: output.clone(),
            tuple_bytes: layout.tuple_bytes(),
            collected: (faithful && collect).then(|| RowBuf::new(layout.width())),
            layout,
            pending: 0,
            rows: 0,
            faithful,
            digest: FNV_OFFSET,
            encoded: Vec::new(),
            extent: None,
            cursor: 0,
        }
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

    /// Makes room for `rows` collected rows at once: the bound an operator
    /// knows on its output, so that collecting does not grow by doubling.
    fn reserve(&mut self, rows: u64) {
        if let Some(c) = &mut self.collected {
            c.raw_mut().reserve(rows as usize * self.layout.width());
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
        let n = (values.len() / self.layout.width()) as u64;
        if matches!(self.output, Output::Discard) {
            self.rows += n;
            return Ok(());
        }
        if self.faithful {
            self.layout.encode(values, &mut self.encoded);
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
        if self.faithful && matches!(self.output, Output::ToDevice { .. }) {
            self.layout.encode_concat(a, b, &mut self.encoded);
        }
        self.witness(a);
        self.witness(b);
        self.emit_bulk(sm, 1)
    }

    /// Emits the join rows of `pairs` (see [`key_index::join_rows`]) in
    /// order, exactly as [`emit_concat`](Sink::emit_concat) a pair at a
    /// time would: gathered into `joined`, at most [`room`](Sink::room) rows
    /// at a time, so a device-bound output flushes at the same rows, and
    /// each stretch witnessed and encoded at once.
    fn emit_pairs<B: StorageBackend>(
        &mut self,
        sm: &mut B,
        build: (&[i64], usize),
        probe: (&[i64], usize),
        pairs: &[(u32, u32)],
        joined: &mut Vec<i64>,
    ) -> Result<(), ExecError> {
        let mut rest = pairs;
        while !rest.is_empty() {
            let (now, later) = rest.split_at(self.room().min(rest.len()));
            joined.clear();
            key_index::join_rows(build, probe, now, joined);
            self.emit_rows(sm, joined)?;
            rest = later;
        }
        Ok(())
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

    /// Counts `n` more rows and flushes every buffer they fill (see
    /// [`flush`](Sink::flush)); divides only when one is full.
    fn emit_bulk<B: StorageBackend>(&mut self, sm: &mut B, n: u64) -> Result<(), ExecError> {
        self.rows += n;
        if let Output::ToDevice { buffer_bytes, .. } = &self.output {
            self.pending += n * self.tuple_bytes;
            let cap = (*buffer_bytes).max(self.tuple_bytes);
            if self.pending >= cap {
                let whole = self.pending / cap;
                self.flush(sm, cap, whole)?;
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

    /// Flushes `count` buffers of `unit` bytes — the whole buffers an
    /// emission fills, or the partial last one — carrying their bytes in
    /// faithful mode: the requests flushing one buffer at a time issues,
    /// with the buffers that fit before the extent wraps issued as one run
    /// and a buffer that straddles the wrap split where it wraps.
    fn flush<B: StorageBackend>(
        &mut self,
        sm: &mut B,
        unit: u64,
        mut count: u64,
    ) -> Result<(), ExecError> {
        if unit == 0 || count == 0 {
            return Ok(());
        }
        let (file, len) = self.extent(sm)?;
        let mut drained = 0;
        while count > 0 {
            if self.cursor >= len {
                self.cursor = 0;
            }
            // Divides only when the run reaches the wrap.
            let fit = match self.cursor + unit * count <= len {
                true => count,
                false => (len - self.cursor) / unit,
            };
            if fit > 0 {
                self.put(sm, file, (unit, fit), &mut drained)?;
                count -= fit;
                continue;
            }
            // A buffer that straddles the wrap: a piece up to it, the rest
            // past it.
            let mut rest = unit;
            while rest > 0 {
                if self.cursor >= len {
                    self.cursor = 0;
                }
                let piece = rest.min(len - self.cursor);
                self.put(sm, file, (piece, 1), &mut drained)?;
                rest -= piece;
            }
            count -= 1;
        }
        self.encoded.drain(..drained);
        Ok(())
    }

    /// Writes a run of `count` requests of `unit` bytes at the cursor,
    /// carrying the staged bytes from `drained` on in faithful mode.
    fn put<B: StorageBackend>(
        &mut self,
        sm: &mut B,
        file: FileId,
        (unit, count): (u64, u64),
        drained: &mut usize,
    ) -> Result<(), StorageError> {
        let bytes = unit * count;
        let data = self
            .faithful
            .then(|| &self.encoded[*drained..*drained + bytes as usize]);
        sm.write(file, self.cursor, unit, count, data)?;
        if data.is_some() {
            *drained += bytes as usize;
        }
        self.cursor += bytes;
        Ok(())
    }

    fn finish<B: StorageBackend>(mut self, sm: &mut B) -> Result<OpResult, ExecError> {
        let pending = self.pending;
        self.flush(sm, pending, 1)?;
        let bytes = self.rows * self.tuple_bytes;
        // Real rows, all of them still there.
        let extent = self
            .extent
            .filter(|(_, len)| self.faithful && bytes <= *len)
            .map(|(file, _)| (file, bytes));
        Ok(OpResult {
            rows: self.rows,
            layout: self.layout,
            digest: (self.faithful && self.collected.is_none()).then_some(self.digest),
            output: self.collected,
            extent,
        })
    }
}

/// What one operator produced: emitted rows, their witness (the collected
/// batch or else the emission digest, in faithful mode) and the extent a
/// device-bound output can be read back from.
struct OpResult {
    rows: u64,
    layout: Layout,
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

    /// Records an observation of currently resident faithful tuple bytes
    /// (simulated mode holds none).
    fn note_peak(&mut self, bytes: u64) {
        if self.faithful() {
            self.peak_resident = self.peak_resident.max(bytes);
        }
    }

    /// The sink for one operator under the executor's mode and collection
    /// policy.
    fn sink(&self, output: &Output, layout: Layout) -> Sink {
        Sink::new(output, layout, self.faithful(), self.collect_output)
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
            output_layout: op.layout,
            output_extent: op.extent,
            peak_resident_bytes: self.peak_resident,
            cache: self.cache.as_ref().map(|c| c.stats()),
            recovery: self.sm.recovery_counters(),
        })
    }

    /// An outer block of `k1` tuples, then every inner block of `k2` past
    /// it: [`join_tile`](Executor::join_tile) where the rows came back, else
    /// the expected-rows recurrence.
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
        let (otb, itb) = (o.tuple_bytes, i.tuple_bytes);
        let mut sink = self.sink(output, o.layout().then(&i.layout()));
        let density = density(pred, &o, &i);
        let inner_blocks = i.card.div_ceil(k2);
        let (mut emits, mut probes, mut carry) = (0u64, 0u64, 0.0f64);
        let mut keys = KeyColumns::default();
        let (mut oblock, mut iblock) = (BlockBuf::default(), BlockBuf::default());
        for oidx in (0..o.card).step_by(k1 as usize) {
            let on = k1.min(o.card - oidx);
            // `compares` is what the model counts: the pairs the synthesized
            // loops range over. The CPU is charged for what a block join
            // does: hash the resident outer block (the build, amortized
            // over the inner blocks) and probe it once per inner tuple.
            *compares += on * i.card;
            probes += i.card + inner_blocks * (on / inner_blocks.max(1));
            let orows = self.load(&mut o, oidx, on, &mut oblock)?;
            if let Some(orows) = orows {
                keys.set_outer(orows);
            } else if let Some((rows, after)) = Some(emitted_over(on, k2, i.card, density, carry))
                .filter(|(rows, _)| sink.absorbs(*rows))
            {
                // Nothing is computed, and the sink cannot flush before the
                // pass ends: the inner scan is the only request, one run.
                i.read_scan(&mut self.sm, k2)?;
                (emits, carry) = (emits + rows, after);
                sink.emit_bulk(&mut self.sm, rows)?;
                continue;
            }
            // High-water mark of what streams past the outer block: the
            // inner block (or the window it is generated from) plus the
            // sink's staging.
            let mut streamed = None;
            for iidx in (0..i.card).step_by(k2 as usize) {
                let in_n = k2.min(i.card - iidx);
                match (orows, self.load(&mut i, iidx, in_n, &mut iblock)?) {
                    (Some(orows), Some(irows)) => {
                        keys.set_inner(irows);
                        self.join_tile(
                            orows, irows, &mut keys, oidx, iidx, otb, itb, tiling, pred, &mut sink,
                            &mut emits,
                        )?;
                        streamed = streamed.max(Some(
                            i.resident_bytes() + iblock.resident_bytes() + sink.resident_bytes(),
                        ));
                    }
                    _ => {
                        let whole;
                        (whole, carry) = emit_step(expected_rows(on, in_n, density), carry);
                        emits += whole;
                        sink.emit_bulk(&mut self.sm, whole)?;
                    }
                }
            }
            if let Some(streamed) = streamed {
                self.note_peak(o.resident_bytes() + oblock.resident_bytes() + streamed);
            }
        }
        self.charge_cpu(probes, emits, 0);
        sink.finish(&mut self.sm)
    }

    /// [`Relation::load_block`]'s request: the block's rows in faithful
    /// mode, `None` where simulated mode elides them.
    fn load<'a>(
        &mut self,
        rel: &'a mut Relation,
        index: u64,
        count: u64,
        buf: &'a mut BlockBuf,
    ) -> Result<Option<RowsView<'a>>, ExecError> {
        if !self.faithful() {
            rel.read_block(&mut self.sm, index, count)?;
            return Ok(None);
        }
        Ok(Some(rel.load_block(&mut self.sm, index, count, buf)?))
    }

    /// [`BlockCursor::ensure`] for the cursor over relation `rel`: `true`
    /// while it holds rows — a request that comes back without any is
    /// `MissingRows`, a relation only a backend holding its payload can
    /// read. In simulated mode the next block's request goes out with the
    /// data elided ([`BlockCursor::elide`]), and the answer is `false`.
    fn ensure(&mut self, cursor: &mut BlockCursor, rel: usize) -> Result<bool, ExecError> {
        if !self.faithful() {
            cursor.elide(&mut self.sm)?;
            return Ok(false);
        }
        match cursor.ensure(&mut self.sm)? {
            true => Ok(true),
            false => Err(ExecError::MissingRows(rel)),
        }
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

    /// The out-of-core GRACE hash join; `compares` counts the pairs emitted.
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
    /// of a cross product). Where simulated mode elides the rows, each probe
    /// extent emits its expected matches against the build bucket instead:
    /// matching keys hash into the same bucket, so a co-bucket pair matches
    /// at `partitions` times the relations' density (at most every pair).
    ///
    /// The buckets come back from the backend that was given them — real
    /// files, or the simulator, which keeps what a data write carries — so
    /// the simulator twin issues the real run's requests and joins the same
    /// buckets. What is metered is what the join holds: an input block and
    /// the staging buffers while the sides partition, the build bucket, one
    /// probe extent and the sink's staged bytes while they join. Neither the
    /// generator window an input comes from on a backend without its payload
    /// nor the rows a `Discard` run collects count, so both twins, and a
    /// collected and a digested run, meter the same bytes.
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
        let (lw, rw) = (l.width.max(1) as usize, r.width.max(1) as usize);
        let (ltb, rtb) = (l.tuple_bytes, r.tuple_bytes);
        let mut sink = self.sink(output, l.layout().then(&r.layout()));
        let density = (partitions as f64 * density(pred, &l, &r)).min(1.0);
        let mut hashes = 0u64;
        let mut alloc = SpillAlloc::new(&self.sm, spill);
        let buckets = (partitions, buffer_bytes);
        let lstreams = self.partition_pass((left, l.clone()), buckets, &mut alloc, &mut hashes)?;
        let rstreams = self.partition_pass((right, r.clone()), buckets, &mut alloc, &mut hashes)?;

        let (mut build, mut block) = (RowBuf::new(lw), BlockBuf::default());
        let mut index = KeyIndex::new();
        let (mut pairs, mut joined): (Vec<(u32, u32)>, Vec<i64>) = (Vec::new(), Vec::new());
        let cross = pred == JoinPred::Cross;
        let mut carry = 0.0f64;
        for (lstream, rstream) in lstreams.iter().zip(&rstreams) {
            build.clear();
            let mut built_rows = 0u64;
            for extent in lstream {
                if let Some(rows) = self.extent_rows(left, extent, &l, &mut block)? {
                    build.extend_raw(rows.as_slice());
                }
                built_rows += extent.filled / ltb;
            }
            if !cross {
                index.build(&build);
            }
            hashes += built_rows;
            let built = build.as_slice();
            let held = built.len() as u64 * 8;
            for extent in rstream {
                let probed = extent.filled / rtb;
                hashes += probed;
                let Some(rows) = self.extent_rows(right, extent, &r, &mut block)? else {
                    let whole;
                    (whole, carry) = emit_step(expected_rows(built_rows, probed, density), carry);
                    *compares += whole;
                    sink.emit_bulk(&mut self.sm, whole)?;
                    continue;
                };
                let probe = rows.as_slice();
                let mut from = 0;
                while from < rows.len() {
                    pairs.clear();
                    from = key_index::probe(&index, &build, probe, rw, from, cross, &mut pairs);
                    *compares += pairs.len() as u64;
                    sink.emit_pairs(&mut self.sm, (built, lw), (probe, rw), &pairs, &mut joined)?;
                }
                self.note_peak(held + probe.len() as u64 * 8 + sink.encoded.len() as u64);
            }
            self.note_peak(held + sink.encoded.len() as u64);
        }
        self.charge_cpu(*compares, sink.rows, hashes);
        sink.finish(&mut self.sm)
    }

    /// One side's partition pass: the relation read `buffer_bytes` at a time
    /// through [`Executor::load`] — so on a backend that holds the payload
    /// it is the file's rows that are hashed — each loaded block's bucket
    /// ids computed in one hash pass ([`bucket_ids`]), then each row staged
    /// in its bucket's buffer of `buffer_bytes / partitions` bytes
    /// ([`stage_rows`]), and a buffer appended to its bucket's stream of
    /// page-aligned extents ([`SpillAlloc::append_to_stream`]) by the row
    /// that fills it; what is left of each is appended at the end, in bucket
    /// order. Returns each bucket's extents.
    ///
    /// Where simulated mode elides the rows, they take the buckets in turn:
    /// every bucket gets `card / partitions` rows and every staging buffer
    /// fills at the same rate, so bucket `b`'s `k`-th flush falls due with
    /// input row `(k·s − 1)·partitions + b + 1`, `s` the rows a buffer holds.
    fn partition_pass(
        &mut self,
        (input, mut rel): (usize, Relation),
        (partitions, buffer_bytes): (u64, u64),
        spill: &mut SpillAlloc,
        hashes: &mut u64,
    ) -> Result<Vec<Vec<Extent>>, ExecError> {
        let (tb, card) = (rel.tuple_bytes, rel.card);
        let cols = (rel.width.max(1) as usize, rel.col_bytes());
        let block = (buffer_bytes / tb).max(1);
        let flush_at = (buffer_bytes / partitions).max(tb);
        // A staging buffer is flushed by the tuple that fills it.
        let stage_bytes = flush_at.div_ceil(tb) * tb;
        let mut staged: Vec<Vec<u8>> = vec![Vec::new(); partitions as usize];
        let mut streams: Vec<Vec<Extent>> = vec![Vec::new(); partitions as usize];
        // Simulated mode's next flush: (k, b).
        let (s, mut due) = (stage_bytes / tb, (1u64, 0u64));
        let (mut buf, mut ids) = (BlockBuf::default(), Vec::new());
        let mut at = 0;
        while at < card {
            let take = block.min(card - at);
            match self.load(&mut rel, at, block, &mut buf)? {
                Some(rows) if rows.len() as u64 != take => {
                    return Err(ExecError::MissingRows(input))
                }
                Some(rows) => {
                    bucket_ids(rows.as_slice(), cols.0, partitions, &mut ids);
                    let (mut rest, mut rest_ids) = (rows.as_slice(), &ids[..]);
                    while let Some((b, n)) =
                        stage_rows(rest, rest_ids, cols, &mut staged, flush_at as usize)
                    {
                        let rows = (Some(&staged[b][..]), staged[b].len() as u64);
                        spill.append_to_stream(&mut self.sm, &mut streams[b], rows, stage_bytes)?;
                        staged[b].clear();
                        (rest, rest_ids) = (&rest[n * cols.0..], &rest_ids[n..]);
                    }
                    let staging = staged.iter().map(|s| s.len() as u64).sum::<u64>();
                    self.note_peak(take * tb + staging);
                }
                None => {
                    while (due.0 * s - 1) * partitions + due.1 < at + take {
                        let stream = &mut streams[due.1 as usize];
                        let rows = (None, stage_bytes);
                        spill.append_to_stream(&mut self.sm, stream, rows, stage_bytes)?;
                        due = match due.1 + 1 {
                            b if b == partitions => (due.0 + 1, 0),
                            b => (due.0, b),
                        };
                    }
                }
            }
            *hashes += take;
            at += take;
        }
        for (b, (stream, stage)) in (0..).zip(streams.iter_mut().zip(&staged)) {
            let rows = match self.faithful() {
                true => (Some(&stage[..]), stage.len() as u64),
                false => {
                    let flushed = due.0 - 1 + u64::from(b < due.1);
                    let share = (card + partitions - 1 - b) / partitions;
                    (None, (share - flushed * s) * tb)
                }
            };
            if rows.1 > 0 {
                spill.append_to_stream(&mut self.sm, stream, rows, stage_bytes)?;
            }
        }
        Ok(streams)
    }

    /// The tuples of one spill extent, laid out as `run`: one read of its
    /// filled prefix, decoded; `None` where simulated mode elides them.
    fn extent_rows<'a>(
        &mut self,
        input: usize,
        extent: &Extent,
        run: &Relation,
        block: &'a mut BlockBuf,
    ) -> Result<Option<&'a RowBuf>, ExecError> {
        let mut rel = run.in_file(extent.file, extent.filled / run.tuple_bytes);
        let card = rel.card;
        Ok(self
            .load_rows((input, &mut rel), 0, card, block)?
            .map(|rows| &*rows))
    }

    /// [`Relation::load_rows`]'s request for the `n > 0` tuples at `index`:
    /// the rows, to sort in place, in faithful mode; `None` where simulated
    /// mode elides them.
    fn load_rows<'a>(
        &mut self,
        (input, rel): (usize, &mut Relation),
        index: u64,
        n: u64,
        buf: &'a mut BlockBuf,
    ) -> Result<Option<&'a mut RowBuf>, ExecError> {
        if !self.faithful() {
            rel.read_block(&mut self.sm, index, n)?;
            return Ok(None);
        }
        let rows = rel.load_rows(&mut self.sm, index, n, buf)?;
        rows.map(Some).ok_or(ExecError::MissingRows(input))
    }

    /// The 2ᵏ-way external merge sort. Runs of `fan_in * b_in + b_out`
    /// tuples — the merge's memory — are sorted and encoded into the run's
    /// bytes by [`RowBuf::sort_encode`] (for width-1 tuples one kernel that
    /// buckets the encodings straight into those bytes and radix sorts each
    /// bucket in cache, with no scratch of the run's size) and spilled to
    /// `scratch` through a [`SpillAlloc`] (shrinking, or failing over, when
    /// the device is full), then merged `fan_in` at a time by
    /// [`merge_runs`](Executor::merge_runs) until one more pass leaves a
    /// single run. That pass is the output pass: its batches go to one
    /// extent on the output device, or to the sink's witness, not to a
    /// scratch run that would have to be copied out; an input that forms a
    /// single run is never spilled.
    ///
    /// The runs come back from the backend that was given them — real
    /// files, or the simulator, which keeps what a run writes — so the
    /// twin issues the real run's requests and computes on the same runs.
    /// What is metered is what the sort holds: a batch and its encoding
    /// while runs form, the run cursors and one output batch (and its
    /// encoding, when it is written) while they merge. The generator window
    /// the input comes from on a backend without its payload stands in for
    /// the file and is not counted, so both twins meter the same bytes.
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
        let mut rel = self.rel(input)?.clone();
        let (card, tb, cb) = (rel.card, rel.tuple_bytes, rel.col_bytes());
        // What the model counts — 2^k-way merge levels over singleton runs
        // — not the merge kernel's comparisons.
        let levels = match card {
            0 | 1 => 0,
            n => ((n as f64).log2() / (fan_in as f64).log2()).ceil() as u64,
        };
        *compares += levels * card * (fan_in as f64).log2().ceil() as u64;
        let mut sink = self.sink(output, rel.layout());
        let device = match output {
            Output::ToDevice { device, .. } => Some(device.as_str()),
            Output::Discard => None,
        };
        let run_tuples = fan_in * b_in + b_out;
        let (mut block, mut encoded) = (BlockBuf::default(), Vec::new());
        let out = if card == 0 {
            None
        } else if card <= run_tuples {
            // One run: from the sorted batch to the sink, nothing spilled.
            let mut rows = self.load_rows((input, &mut rel), 0, card, &mut block)?;
            if let Some(rows) = rows.as_deref_mut() {
                match device {
                    Some(_) => rows.sort_encode(cb, &mut encoded),
                    None => rows.sort(),
                }
                sink.witness(rows.as_slice());
            }
            match device {
                Some(device) => {
                    let rows = rows.map(|_| &encoded[..]);
                    self.note_peak(card * tb * 2);
                    let out = self.sm.alloc(device, card * tb)?;
                    self.sm.write(out, 0, card * tb, 1, rows)?;
                    Some(out)
                }
                None => {
                    self.note_peak(card * tb);
                    None
                }
            }
        } else {
            // Run formation: a sorted batch is one run, or several smaller
            // (still sorted) ones when the spill allocator has to shrink.
            let mut spill = SpillAlloc::new(&self.sm, scratch);
            let mut runs: Vec<(FileId, u64)> = Vec::new();
            let mut at = 0u64;
            while at < card {
                let take = run_tuples.min(card - at);
                let rows = self.load_rows((input, &mut rel), at, take, &mut block)?;
                let rows = rows.map(|rows| {
                    rows.sort_encode(cb, &mut encoded);
                    &encoded[..]
                });
                self.note_peak(take * tb * 2);
                spill.spill_rows(&mut self.sm, (rows, take * tb), tb, &mut runs)?;
                at += take;
            }
            let (run, shape) = (rel.in_file(rel.file, 0), (b_in, b_out));
            drop((rel, block)); // the merges hold cursors and one output batch

            // Merge passes onto the scratch device, fan_in runs at a time,
            // until one more pass leaves a single run.
            while runs.len() > fan_in as usize {
                let mut next = Vec::new();
                for group in runs.chunks(fan_in as usize) {
                    if let [run] = group {
                        next.push(*run);
                        continue;
                    }
                    let total = group.iter().map(|run| run.1).sum::<u64>();
                    let merged = spill.alloc(&mut self.sm, (total * tb).max(1))?;
                    let to = Some(merged);
                    self.merge_runs((input, &run), group, shape, to, None, &mut encoded)?;
                    next.push((merged, total));
                }
                runs = next;
            }
            // That pass is the output pass.
            let out = match device {
                Some(device) => Some(self.sm.alloc(device, card * tb)?),
                None => None,
            };
            sink.reserve(card);
            let sink = Some(&mut sink);
            self.merge_runs((input, &run), &runs, shape, out, sink, &mut encoded)?;
            out
        };
        sink.extent = out.map(|file| (file, card * tb));
        sink.rows = card;
        self.charge_cpu(*compares, card, 0);
        sink.finish(&mut self.sm)
    }

    /// Merges the sorted `runs` (run file, tuples) laid out as `run` — one
    /// `b_in`-tuple [`BlockCursor`] each — `b_out` rows a batch with the
    /// merge kernel, writing each batch to the file `to` (one contiguous
    /// extent, batch after batch) and handing it to `sink`'s witness, where
    /// given.
    ///
    /// The request order is that of a loop which refills every cursor
    /// before picking each row: a cursor is refilled only once its last
    /// buffered row is out, and a batch which that row completed is written
    /// *before* the refill is read. Where simulated mode elides the rows,
    /// [`Refills`] names the cursor that runs dry next and the rows out by
    /// then. Every batch — the last, partial one too — is metered: the
    /// cursors' blocks, the batch, and its encoding when it is written.
    fn merge_runs(
        &mut self,
        (input, run): (usize, &Relation),
        runs: &[(FileId, u64)],
        (b_in, b_out): (u64, u64),
        to: Option<FileId>,
        mut sink: Option<&mut Sink>,
        encoded: &mut Vec<u8>,
    ) -> Result<(), ExecError> {
        let (width, tb, cb) = (run.width.max(1) as usize, run.tuple_bytes, run.col_bytes());
        let over = |&(file, card): &(FileId, u64)| BlockCursor::new(run.in_file(file, card), b_in);
        let mut cursors: Vec<BlockCursor> = runs.iter().map(over).collect();
        for cursor in cursors.iter_mut() {
            self.ensure(cursor, input)?;
        }
        fn rests(cursors: &[BlockCursor]) -> Vec<&[i64]> {
            cursors.iter().map(BlockCursor::rest).collect()
        }
        let cards: Vec<u64> = runs.iter().map(|run| run.1).collect();
        let total = cards.iter().sum::<u64>();
        let mut refills = (!self.faithful()).then(|| Refills::new(cards, b_in, total));
        let mut heads = MergeHeads::new(width, &rests(&cursors));
        let capacity = if refills.is_some() { 0 } else { b_out as usize };
        let mut batch = RowBuf::with_capacity(width, capacity);
        let mut written = 0u64;
        loop {
            let stop = match &mut refills {
                Some(refills) => {
                    let next = refills.next();
                    let out = next.map_or(total, |(_, out)| out);
                    // The batches out by then, and the partial last one.
                    while written < out && (written + b_out <= out || next.is_none()) {
                        let rows = b_out.min(out - written);
                        if let Some(file) = to {
                            self.sm.write(file, written * tb, rows * tb, 1, None)?;
                        }
                        written += rows;
                    }
                    next.map_or(MergeStop::Done, |(i, _)| MergeStop::Dry(i))
                }
                None => {
                    let room = (b_out - batch.len() as u64) as usize;
                    let stop = heads.fill(&rests(&cursors), room, &mut batch);
                    let rows = batch.len() as u64;
                    if rows == b_out || (stop == MergeStop::Done && rows > 0) {
                        let held: u64 = cursors.iter().map(BlockCursor::resident_bytes).sum();
                        if let Some(file) = to {
                            self.note_peak(held + 2 * rows * tb);
                            encoded.clear();
                            batch.encode_into(cb, encoded);
                            let len = encoded.len() as u64;
                            self.sm.write(file, written * tb, len, 1, Some(encoded))?;
                        } else {
                            self.note_peak(held + rows * tb);
                        }
                        if let Some(sink) = sink.as_deref_mut() {
                            sink.witness(batch.as_slice());
                        }
                        written += rows;
                        batch.clear();
                    }
                    stop
                }
            };
            match stop {
                MergeStop::Full => {}
                MergeStop::Dry(i) => {
                    // Every buffered row is out: the cursor is due.
                    cursors[i].drain();
                    self.ensure(&mut cursors[i], input)?;
                }
                MergeStop::Done => return Ok(()),
            }
        }
    }

    /// Two block cursors and, for the set union, the last emitted row — the
    /// online form of the tests' reference `merge_bufs`, which they hold it
    /// to. A cursor is refilled only when its block is exhausted, and a
    /// difference stops reading its right input once the left one is dry.
    /// Between refills and flushes, [`merge_pass`] takes the steps where the
    /// rows came back; where simulated mode elides them, [`Refills`] names
    /// the cursor that runs dry next and the expected rows out by then
    /// ([`expected_merge_rows`]).
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
        let mut sink = self.sink(output, merge_layout(kind, &l));
        sink.reserve(l.card + if diff { 0 } else { r.card });
        *compares += l.card + r.card;
        let width = l.width.max(1) as usize;
        let total = expected_merge_rows(kind, &l, &r);
        let cards = vec![l.card, r.card];
        let mut refills = (!self.faithful()).then(|| Refills::new(cards, b_in, total));
        let left_empty = l.card == 0;
        let mut a = BlockCursor::new(l, b_in);
        let mut b = BlockCursor::new(r, b_in);
        // The last emitted row (set-union dedup); empty — which no row is —
        // until there is one.
        let mut last: Vec<i64> = Vec::new();
        let mut out: Vec<i64> = Vec::new();
        let mut due = [true, true];
        loop {
            if due[0] {
                self.ensure(&mut a, left)?;
            }
            // Simulated mode holds no rows: its left input is dry if empty.
            let left_dry = a.head().is_none() && (refills.is_none() || left_empty);
            if due[1] && !(diff && left_dry) {
                self.ensure(&mut b, right)?;
            }
            if let Some(refills) = &mut refills {
                let Some((i, out)) = refills.next() else {
                    sink.emit_bulk(&mut self.sm, total - sink.rows)?;
                    break;
                };
                sink.emit_bulk(&mut self.sm, out - sink.rows)?;
                due = [i == 0, i == 1];
                continue;
            }
            // The loop notes what is resident before each step.
            let held = a.resident_bytes() + b.resident_bytes();
            self.note_peak(held + sink.resident_bytes());
            out.clear();
            let rests = (a.rest(), b.rest());
            let took = merge_pass(kind, width, rests, &mut last, sink.room(), &mut out);
            if took.steps == 0 {
                break;
            }
            a.skip(took.rows[0]);
            b.skip(took.rows[1]);
            sink.emit_rows(&mut self.sm, &out[..took.before_last])?;
            if took.steps > 1 {
                self.note_peak(held + sink.resident_bytes());
            }
            sink.emit_rows(&mut self.sm, &out[took.before_last..])?;
            due = [a.rest().is_empty(), b.rest().is_empty()];
        }
        self.charge_cpu(*compares, sink.rows, 0);
        sink.finish(&mut self.sm)
    }

    /// The per-row loop [`run_merge`](Executor::run_merge) runs as
    /// [`merge_pass`] calls: the oracle the kernel is held to.
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
            self.ensure(&mut a, left)?;
            if !(diff && a.head().is_none()) {
                self.ensure(&mut b, right)?;
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

    /// A block of every column in column order, up to the shortest column:
    /// zipped a buffered stretch at a time where the rows came back, else
    /// emitted as they are counted.
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
        // `validate` refuses an empty zip.
        let layouts = rels.iter().map(Relation::layout);
        let mut sink = self.sink(output, layouts.reduce(|row, next| row.then(&next)).unwrap());
        sink.reserve(card);
        let over = |mut r: Relation| {
            r.card = card;
            BlockCursor::new(r, b_in)
        };
        let mut cursors: Vec<BlockCursor> = rels.into_iter().map(over).collect();
        let widths: Vec<usize> = cursors.iter().map(BlockCursor::width).collect();
        let mut out: Vec<i64> = Vec::new();
        for idx in (0..card).step_by(b_in as usize) {
            let mut rows = true;
            for (cursor, column) in cursors.iter_mut().zip(columns) {
                rows &= self.ensure(cursor, *column)?;
            }
            if !rows {
                sink.emit_bulk(&mut self.sm, b_in.min(card - idx))?;
            }
            // Every cursor holds the block's rows, or none.
            while !cursors[0].rest().is_empty() {
                let rests: Vec<&[i64]> = cursors.iter().map(BlockCursor::rest).collect();
                out.clear();
                let took = zip(&rests, &widths, sink.room(), &mut out);
                for cursor in &mut cursors {
                    cursor.skip(took.rows[0]);
                }
                let held = cursors.iter().map(BlockCursor::resident_bytes).sum();
                self.emit_took(&mut sink, &out, took, held)?;
            }
        }
        self.charge_cpu(0, card, 0);
        sink.finish(&mut self.sm)
    }

    /// Hands a streaming kernel's rows to the sink in two parts, noting the
    /// resident bytes the per-row loop notes after each step: `held` by the
    /// cursors, plus the sink's staging — after the step before the last
    /// one, and after the last.
    fn emit_took(
        &mut self,
        sink: &mut Sink,
        out: &[i64],
        took: Took,
        held: u64,
    ) -> Result<(), ExecError> {
        sink.emit_rows(&mut self.sm, &out[..took.before_last])?;
        if took.steps > 1 {
            self.note_peak(held + sink.resident_bytes());
        }
        sink.emit_rows(&mut self.sm, &out[took.before_last..])?;
        self.note_peak(held + sink.resident_bytes());
        Ok(())
    }

    /// The per-row loop [`run_columns`](Executor::run_columns) runs as
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
                self.ensure(cursor, *column)?;
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

    /// Every block of the sorted input read once: each row unequal to the
    /// last one emitted kept where the rows came back, else the expected
    /// distinct count spread over the blocks.
    fn run_dedup(
        &mut self,
        input: usize,
        b_in: u64,
        output: &Output,
        compares: &mut u64,
    ) -> Result<OpResult, ExecError> {
        let rel = self.rel(input)?.clone();
        let card = rel.card;
        let rows = (rel.key_range as f64).powi(rel.width.max(1) as i32);
        let per_row = expected_distinct(rows, card) / card as f64;
        let mut sink = self.sink(output, rel.layout());
        sink.reserve(card);
        *compares += card;
        let mut cursor = BlockCursor::new(rel, b_in);
        let width = cursor.width();
        // The last emitted row: empty, which no row is, until there is one.
        let (mut last, mut out, mut carry) = (Vec::new(), Vec::new(), 0.0f64);
        for idx in (0..card).step_by(b_in as usize) {
            if !self.ensure(&mut cursor, input)? {
                let whole;
                (whole, carry) = emit_step(b_in.min(card - idx) as f64 * per_row, carry);
                sink.emit_bulk(&mut self.sm, whole)?;
            }
            while !cursor.rest().is_empty() {
                out.clear();
                let took = dedup(width, cursor.rest(), &mut last, sink.room(), &mut out);
                cursor.skip(took.rows[0]);
                self.emit_took(&mut sink, &out, took, cursor.resident_bytes())?;
            }
        }
        self.charge_cpu(*compares, sink.rows, 0);
        sink.finish(&mut self.sm)
    }

    /// The per-row loop [`run_dedup`](Executor::run_dedup) runs
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
            self.ensure(&mut cursor, input)?;
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

    /// The request of [`Relation::load_block`] per `b_in` tuples, column 0
    /// averaged as they arrive. The requests go out as runs of at most
    /// one device page (a block longer than that, or the shorter last block,
    /// is a run of one), so a backend that serves sequential requests
    /// together sees them together — all the full blocks at once where
    /// simulated mode elides the data. The rows are decoded from a run's bytes
    /// where the backend handed them back, else they are the
    /// generator's: the run's from the window at once when it holds them
    /// all, else block by block, so the window moves where it always did.
    /// Either way residency is counted as the block read that way would
    /// hold it — a run's byte staging is the memory level's, like the
    /// backend's read-ahead, not an operator's.
    fn run_aggregate(
        &mut self,
        input: usize,
        b_in: u64,
        compares: &mut u64,
    ) -> Result<OpResult, ExecError> {
        let mut rel = self.rel(input)?.clone();
        let (tb, layout) = (rel.tuple_bytes, rel.layout());
        let width = rel.width.max(1) as usize;
        let page = self.sm.page_bytes(self.sm.device_of(rel.file))?;
        let per_run = (page / (b_in * tb).max(1)).max(1);
        let mut bytes: Vec<u8> = Vec::new();
        let (mut sum, mut count) = (0i64, 0i64);
        // Residency changes with the block or the generator's window, not
        // with the executor: tracked here, reported once.
        let mut peak = 0;
        let mut idx = 0;
        while idx < rel.card {
            let full = (rel.card - idx) / b_in;
            let (block, blocks) = match full {
                0 => (rel.card - idx, 1),
                _ if !self.faithful() => (b_in, full),
                _ => (b_in, full.min(per_run)),
            };
            let (n, faithful) = (block * blocks, self.faithful());
            let len = (n * tb) as usize;
            if faithful && bytes.len() < len {
                bytes.resize(len, 0);
            }
            let run = faithful.then(|| &mut bytes[..len]);
            let held = self.sm.read(rel.file, idx * tb, block * tb, blocks, run)?;
            if !faithful {
                idx += n;
                continue;
            }
            let run = &bytes[..len];
            if held {
                sum = sum.wrapping_add(layout.column0_sum(run));
                count += n as i64;
                peak = peak.max(rel.resident_bytes() + block * width as u64 * 8);
            } else if let Some(rows) = rel.cached_rows(idx, n) {
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
            idx += n;
        }
        *compares += rel.card;
        self.note_peak(peak);
        self.charge_cpu(*compares, 1, 0);
        // A faithful run's one witness, like a sink's: the row, or else its
        // digest.
        let avg = self
            .faithful()
            .then(|| if count > 0 { sum / count } else { 0 });
        let output =
            (avg.filter(|_| self.collect_output)).map(|avg| RowBuf::from_vec(vec![avg], 1));
        Ok(OpResult {
            rows: 1,
            layout: Layout::new(1, 8),
            digest: avg
                .filter(|_| output.is_none())
                .map(|avg| fnv_values(FNV_OFFSET, &[avg])),
            output,
            extent: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key_index::PROBE_PAIRS;
    use crate::merge_oracle::merge_bufs;
    use crate::recording::{Recording, Request};
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
    /// per inner block, every time, with the pairs counted and the build and
    /// probes charged per inner block. Returns `(seconds, output rows,
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
        let mut sink = ex.sink(output, o.layout().then(&i.layout()));
        let density = density(pred, &o, &i);
        let (mut compares, mut probes, mut emits, mut carry) = (0u64, 0u64, 0u64, 0.0f64);
        let mut oidx = 0;
        while oidx < o.card {
            let on = o.read_block(&mut ex.sm, oidx, k1).unwrap();
            let mut iidx = 0;
            while iidx < i.card {
                let in_n = i.read_block(&mut ex.sm, iidx, k2).unwrap();
                compares += on * in_n;
                probes += in_n + on / (i.card.div_ceil(k2)).max(1);
                let expected = on as f64 * in_n as f64 * density + carry;
                let whole = expected.floor() as u64;
                carry = expected - whole as f64;
                emits += whole;
                sink.emit_bulk(&mut ex.sm, whole).unwrap();
                iidx += in_n.max(1);
            }
            oidx += on.max(1);
        }
        ex.charge_cpu(probes, emits, 0);
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
    /// one buffer at a time: each buffer at the cursor, split where
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
    /// 1's 20 KiB among them), and one larger than the extent, which goes
    /// out in pieces. On the simulator with the runs and on the
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
                    (seen, ex.sm.log, ex.sm.runs)
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
                    write_runs > Some(0),
                    buffer_bytes <= SINK_EXTENT,
                    "{what}: write runs"
                );
            }
        }
    }

    /// The faithful sibling, below the extent's wrap: buffers that carry
    /// their rows still go out as the writes flushing one buffer at a time
    /// issues ([`buffer_flushes`], runs expanded), the partial last buffer
    /// included, and the output file reads back as the rows' encoding. A
    /// sorted duplicate removal and a BNL product join — whose kernels fill
    /// at most one buffer an emission — and a sink handed one batch of many
    /// buffers, a run carrying them all; at buffer sizes that divide the
    /// output and ones that do not.
    #[test]
    fn faithful_sink_writes_carry_the_rows_a_buffer_a_request() {
        let dedup: fn(Output) -> Plan = |output| Plan::DedupSorted {
            input: 0,
            b_in: 1 << 12,
            output,
        };
        let bnl: fn(Output) -> Plan = |output| Plan::BnlJoin {
            outer: 0,
            inner: 1,
            k1: 16,
            k2: 1 << 10,
            tiling: None,
            pred: JoinPred::Cross,
            order_inputs: false,
            output,
        };
        let dedup_specs = vec![RelSpec::ints("L", "HDD", 1 << 18)
            .sorted()
            .with_key_range(1 << 20)];
        let bnl_specs = vec![
            RelSpec::pairs("R", "HDD", 32),
            RelSpec::pairs("S", "HDD", 1 << 12),
        ];
        let sim = || {
            Recording::new(
                StorageSim::from_hierarchy(&presets::two_hdd_ram(1 << 22)),
                true,
            )
        };
        // The file `extent` names: written as `buffer_flushes` says, and
        // read back as `rows` encoded.
        fn check(
            sm: &mut Recording<StorageSim>,
            (file, bytes): (FileId, u64),
            layout: &Layout,
            rows: &[i64],
            cap: u64,
            what: &str,
        ) {
            let writes = sm.log.iter().filter(|r| r.0 && r.1 == file.0);
            let writes: Vec<_> = writes.map(|r| (r.2, r.3)).collect();
            assert!(writes == buffer_flushes(bytes, cap), "{what}: the writes");
            let mut buf = vec![0u8; bytes as usize];
            let kept = sm.read(file, 0, bytes, 1, Some(&mut buf)).unwrap();
            let mut want = Vec::new();
            layout.encode(rows, &mut want);
            assert!(kept && buf == want, "{what}: the file");
        }
        for buffer_bytes in [1 << 16, 20 * 1024, 300_001] {
            let output = Output::ToDevice {
                device: "HDD2".into(),
                buffer_bytes,
            };
            for (name, plan, specs) in [("dedup", dedup, &dedup_specs), ("bnl", bnl, &bnl_specs)] {
                let mut ex = Executor::new(sim(), Mode::Faithful, CpuModel::disabled());
                for (i, spec) in specs.iter().enumerate() {
                    let rel = Relation::create(&mut ex.sm, spec, true, 7 + i as u64).unwrap();
                    ex.add_relation(rel);
                }
                let stats = ex.run(&plan(output.clone())).unwrap();
                let rows = stats.output.expect("collected");
                let extent = stats.output_extent.expect("a device-bound output");
                assert!(
                    extent.1 % buffer_bytes != 0 || buffer_bytes == 1 << 16,
                    "{name}"
                );
                let what = format!("{name} writing {buffer_bytes} B buffers");
                check(
                    &mut ex.sm,
                    extent,
                    &stats.output_layout,
                    rows.as_slice(),
                    buffer_bytes,
                    &what,
                );
            }
            let mut sm = sim();
            let layout = Layout::new(2, 8);
            let mut sink = Sink::new(&output, layout.clone(), true, false);
            let values: Vec<i64> = (0..1 << 18).collect();
            sink.emit_rows(&mut sm, &values).unwrap();
            let extent = sink.finish(&mut sm).unwrap().extent.expect("written");
            let what = format!("one batch in {buffer_bytes} B buffers");
            check(&mut sm, extent, &layout, &values, buffer_bytes, &what);
            assert!(sm.runs > Some(0), "{what}: a run");
        }
    }

    /// [`Sink::emit_pairs`] is the per-pair [`Sink::emit_concat`] loop it
    /// replaced in the GRACE join: the same rows (collected, or folded into
    /// the digest), the same requests in the same order on the recording
    /// simulator — one buffer a flush, none gathered into a longer write
    /// run — and the same output file. For a consumed output and for
    /// device-bound ones whose buffers end exactly at the end of a
    /// 4,096-pair probe batch, inside one, and inside one without holding
    /// whole rows; at one column width and at mixed ones.
    #[test]
    fn emit_pairs_is_the_per_pair_emit_concat_loop() {
        let mut rng = StdRng::seed_from_u64(9);
        let (lw, rw, build_rows, probe_rows) = (2, 3, 500u32, 700u32);
        let build: Vec<i64> = (0..build_rows as usize * lw)
            .map(|_| rng.gen_range(0..1 << 20))
            .collect();
        let probe: Vec<i64> = (0..probe_rows as usize * rw)
            .map(|_| rng.gen_range(0..1 << 20))
            .collect();
        // Three full probe batches and a short last one.
        let batches: Vec<Vec<(u32, u32)>> = [PROBE_PAIRS, PROBE_PAIRS, PROBE_PAIRS, 17]
            .iter()
            .map(|&n| {
                let pair = |_| (rng.gen_range(0..build_rows), rng.gen_range(0..probe_rows));
                (0..n).map(pair).collect()
            })
            .collect();
        for (l, r) in [(8, 8), (8, 4)] {
            let layout = Layout::new(lw, l).then(&Layout::new(rw, r));
            let (tb, batch) = (
                layout.tuple_bytes(),
                PROBE_PAIRS as u64 * layout.tuple_bytes(),
            );
            let to_device = |buffer_bytes| Output::ToDevice {
                device: "HDD2".into(),
                buffer_bytes,
            };
            let outputs = [
                Output::Discard,
                to_device(batch),
                to_device(batch / 3),
                to_device(1000 * tb + 7),
                to_device(2 * batch + tb),
            ];
            for (output, collect) in outputs.iter().flat_map(|o| [(o, true), (o, false)]) {
                let run = |batched: bool| {
                    // Runs go whole, and are counted: emitting more than
                    // `room` rows at once would flush several buffers as one.
                    let sim = StorageSim::from_hierarchy(&presets::two_hdd_ram(1 << 22));
                    let mut sm = Recording::new(sim, true);
                    let mut sink = Sink::new(output, layout.clone(), true, collect);
                    let mut joined = Vec::new();
                    for pairs in &batches {
                        if batched {
                            let sides = ((&build[..], lw), (&probe[..], rw));
                            sink.emit_pairs(&mut sm, sides.0, sides.1, pairs, &mut joined)
                                .unwrap();
                            continue;
                        }
                        for &(x, y) in pairs {
                            let (x, y) = (x as usize * lw, y as usize * rw);
                            let (a, b) = (&build[x..x + lw], &probe[y..y + rw]);
                            sink.emit_concat(&mut sm, a, b).unwrap();
                        }
                    }
                    let done = sink.finish(&mut sm).unwrap();
                    let file = done.extent.map(|(file, bytes)| {
                        let mut buf = vec![0u8; bytes as usize];
                        assert!(sm.read(file, 0, bytes, 1, Some(&mut buf)).unwrap());
                        buf
                    });
                    let rows = done.output.map(|rows| rows.as_slice().to_vec());
                    (done.rows, rows, done.digest, file, sm.log, sm.runs)
                };
                let (got, want) = (run(true), run(false));
                let what = format!("{output:?} at {l}/{r} bytes, collected {collect}");
                assert_eq!(got.0, want.0, "{what}: rows");
                assert!(got.1 == want.1 && got.2 == want.2, "{what}: the witness");
                assert!(got.3 == want.3, "{what}: the output file");
                assert!(got.4 == want.4, "{what}: the requests");
                assert_eq!(got.5, want.5, "{what}: write runs");
                let writes = want.4.iter().filter(|r| r.0).count();
                let device = matches!(output, Output::ToDevice { .. });
                assert_eq!(writes > 1, device, "{what}: {writes} writes");
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
        let layout = Layout::new(o.width(), 8).then(&Layout::new(i.width(), 8));
        let mut sink = ex.sink(&Output::Discard, layout);
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
        sm.write(file, 0, bytes.len() as u64, 1, Some(&bytes))
            .unwrap();
        file
    }

    /// What a faithful run left on the device it wrote its output to: the
    /// rows of [`ExecStats::output_extent`], read back.
    fn written(ex: &mut Executor, stats: &ExecStats) -> RowBuf {
        let (file, bytes) = stats.output_extent.expect("a device-bound output");
        let mut buf = vec![0u8; bytes as usize];
        assert!(
            ex.sm.read(file, 0, bytes, 1, Some(&mut buf)).unwrap(),
            "kept"
        );
        stats.output_layout.decode(&buf)
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
        let mut sink = ex.sink(&Output::Discard, Layout::new(1, 8));
        ex.merge_runs(
            (0, &Relation::attach(runs[0].0, 0, 1, 1)),
            &runs,
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
            let mut sink = ex.sink(&Output::Discard, Layout::new(width, 8));
            let (run, shape) = (Relation::attach(runs[0].0, 0, width as u32, 1), (b_in, b_out));
            ex.merge_runs((0, &run), &runs, shape, None, Some(&mut sink), &mut Vec::new())
                .unwrap();
            let done = sink.finish(&mut ex.sm).unwrap();
            proptest::prop_assert_eq!(done.output.unwrap().as_slice(), want.as_slice());
            let merged = ex.sm.alloc("HDD", (want.len() as u64 * 8).max(1)).unwrap();
            ex.merge_runs((0, &run), &runs, shape, Some(merged), None, &mut Vec::new())
                .unwrap();
            let mut bytes = vec![0u8; want.len() * 8];
            let len = bytes.len() as u64;
            let kept = ex.sm.read(merged, 0, len, 1, Some(&mut bytes)).unwrap();
            proptest::prop_assert_eq!(kept, !want.is_empty(), "a written run is kept");
            proptest::prop_assert_eq!(Layout::new(width, 8).decode(&bytes).as_slice(), want.as_slice());
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

    const MERGE_KINDS: [MergeKind; 5] = [
        MergeKind::MultisetUnionSorted,
        MergeKind::SetUnion,
        MergeKind::MultisetUnionVm,
        MergeKind::MultisetDiffSorted,
        MergeKind::MultisetDiffVm,
    ];

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
                let mut sink = ex.sink(output, merge_layout(*kind, &l));
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
                let layouts = rels.iter().map(Relation::layout);
                let mut sink = ex.sink(output, layouts.reduce(|a, b| a.then(&b)).unwrap());
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
                let mut sink = ex.sink(output, rel.layout());
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
                    let kind = MERGE_KINDS[template as usize];
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

    /// A zip stops at its shortest column in both modes, whichever column
    /// that is: 10 rows out of columns of 10 and 12 ints, in blocks of 4,
    /// and exactly the first 10 tuples of each column read.
    #[test]
    fn a_column_zip_reads_and_emits_its_shortest_column_in_both_modes() {
        for (faithful, mode) in [(true, Mode::Faithful), (false, Mode::Simulated)] {
            let h = presets::hdd_ram(1 << 25);
            let sm = Recording::new(StorageSim::from_hierarchy(&h), false);
            let mut ex = Executor::new(sm, mode, CpuModel::default());
            for card in [10, 12] {
                let spec = RelSpec::ints("C", "HDD", card);
                let rel = Relation::create(&mut ex.sm, &spec, faithful, 3).unwrap();
                ex.add_relation(rel);
            }
            let plan = Plan::ColumnZip {
                columns: vec![0, 1],
                b_in: 4,
                output: Output::Discard,
            };
            assert_eq!(ex.run(&plan).unwrap().output_rows, 10, "{mode:?}");
            for rel in &ex.rels {
                let reads = ex.sm.log.iter().filter(|r| !r.0 && r.1 == rel.file.0);
                assert_eq!(reads.map(|r| r.3).sum::<u64>(), 80, "{mode:?}");
            }
        }
    }

    /// The duplicate removal's oracle is what a faithful run over uniform
    /// keys emits: 2^20 sorted ints drawn from half as many, as many and
    /// four times as many keys, and 2^16 pairs from half as many (a row is a
    /// duplicate only if both columns are), within 1% of
    /// [`expected_distinct`] — which a simulated run emits, its last
    /// fraction dropped.
    #[test]
    fn the_dedup_oracle_is_the_faithful_distinct_count() {
        let ints = 1u64 << 20;
        for (width, card, range) in [
            (1, ints, ints / 2),
            (1, ints, ints),
            (1, ints, 4 * ints),
            (2, 1 << 16, 1 << 15),
        ] {
            let spec = RelSpec {
                width,
                ..RelSpec::ints("L", "HDD", card)
                    .sorted()
                    .with_key_range(range)
            };
            let rows = |faithful: bool| {
                let mut ex = setup(faithful, 1 << 25).with_output_collection(false);
                let rel = Relation::create(&mut ex.sm, &spec, faithful, 5).unwrap();
                ex.add_relation(rel);
                let plan = Plan::DedupSorted {
                    input: 0,
                    b_in: 1 << 12,
                    output: Output::Discard,
                };
                ex.run(&plan).unwrap().output_rows
            };
            let keys = (range as f64).powi(width as i32);
            let (want, got) = (expected_distinct(keys, card), rows(true) as f64);
            assert!(
                (got / want - 1.0).abs() < 0.01,
                "{got} of {range} keys, expected {want}"
            );
            assert_eq!(rows(false), want.floor() as u64, "{range} keys");
        }
    }

    /// The GRACE join's and the merge pass's oracles are what a faithful run
    /// over uniform keys emits, within 3%: an equi-join (a co-bucket pair
    /// matches at `partitions` times the relations' density) and a cross
    /// product of co-buckets, and the five merge kinds over sorted inputs
    /// drawn from as many keys as rows and from a quarter as many.
    #[test]
    fn the_grace_and_merge_oracles_are_the_faithful_counts() {
        let mut cases = Vec::new();
        for (pred, card) in [(JoinPred::KeyEq, 1 << 14), (JoinPred::Cross, 2048)] {
            let specs = ["R", "S"].map(|n| RelSpec::pairs(n, "HDD", card).with_key_range(card / 4));
            let (partitions, buffer_bytes, spill) = (8, 1 << 12, "HDD".into());
            let output = Output::Discard;
            let plan = Plan::GraceJoin {
                left: 0,
                right: 1,
                partitions,
                buffer_bytes,
                spill,
                pred,
                output,
            };
            cases.push((specs, plan));
        }
        let card = 1u64 << 15;
        for (kind, range) in MERGE_KINDS.iter().flat_map(|&k| [(k, card), (k, card / 4)]) {
            let vm = matches!(kind, MergeKind::MultisetUnionVm | MergeKind::MultisetDiffVm);
            let spec = if vm { RelSpec::pairs } else { RelSpec::ints };
            let specs = ["A", "B"].map(|n| spec(n, "HDD", card).sorted().with_key_range(range));
            let (b_in, output) = (1 << 10, Output::Discard);
            cases.push((
                specs,
                Plan::MergePass {
                    left: 0,
                    right: 1,
                    kind,
                    b_in,
                    output,
                },
            ));
        }
        for (specs, plan) in cases {
            let rows = |faithful: bool| {
                let mut ex = setup(faithful, 1 << 25).with_output_collection(false);
                for (spec, seed) in specs.iter().zip(21..) {
                    let rel = Relation::create(&mut ex.sm, spec, faithful, seed).unwrap();
                    ex.add_relation(rel);
                }
                ex.run(&plan).unwrap().output_rows as f64
            };
            let (want, got) = (rows(false), rows(true));
            assert!(
                (got / want - 1.0).abs() < 0.03,
                "{plan:?}: {got} rows, the oracle's {want}"
            );
        }
    }

    /// The stable merge order of runs of `cards` rows under the refill
    /// oracle's model: run `i`'s `n`-th row has key `n / cards[i]`, a tie
    /// going to the lower run. Returns the run of each merged row.
    fn model_order(cards: &[u64]) -> Vec<usize> {
        let rows = (0..cards.len()).flat_map(|i| (1..=cards[i]).map(move |n| (n, i)));
        let mut rows: Vec<(u64, usize)> = rows.collect();
        rows.sort_by(|&(n, i), &(m, j)| (n * cards[j]).cmp(&(m * cards[i])).then(i.cmp(&j)));
        rows.into_iter().map(|(_, i)| i).collect()
    }

    /// An external sort's runs: a formed run, or a group it merges, with
    /// their tuples.
    enum Runs {
        Formed(usize),
        Merged(Vec<(u64, Runs)>),
    }

    /// Hands the sorted `keys` of `runs` down to the formed runs, in the
    /// order the refill oracle's model merges each group.
    fn deal(keys: Vec<i64>, runs: Runs, formed: &mut [Vec<i64>]) {
        match runs {
            Runs::Formed(i) => formed[i] = keys,
            Runs::Merged(group) => {
                let order = model_order(&group.iter().map(|run| run.0).collect::<Vec<_>>());
                let mut parts = vec![Vec::new(); group.len()];
                for (key, i) in keys.into_iter().zip(order) {
                    parts[i].push(key);
                }
                for (part, (_, runs)) in parts.into_iter().zip(group) {
                    deal(part, runs, formed);
                }
            }
        }
    }

    /// Where the data is what the oracles assume, leaving it out is the only
    /// difference between the modes: the same requests in the same order
    /// (`Recording`, runs issued request by request), the same rows and the
    /// same seconds, for
    /// - every merge kind over even keys on the left and odd ones on the
    ///   right (values, for the value-multiplicity kinds), from a key range
    ///   large enough that the expected output is every row (of the left
    ///   input, for a difference), flushing mid-block;
    /// - an external sort of three merge levels whose last groups are
    ///   short (a pair of runs, one of them short, and a run alone), over
    ///   runs whose keys interleave at every level as the refill oracle
    ///   spaces them — round-robin among runs of one length;
    /// - a GRACE cross product of co-buckets whose keys take the buckets in
    ///   turn, so that every bucket gets the same rows, writing its output.
    #[test]
    fn the_modes_issue_the_same_requests_where_the_oracle_is_exact() {
        let mut cases: Vec<(Vec<RowBuf>, Plan)> = Vec::new();
        let device = |buffer_bytes| Output::ToDevice {
            device: "HDD2".into(),
            buffer_bytes,
        };
        for kind in MERGE_KINDS {
            let vm = matches!(kind, MergeKind::MultisetUnionVm | MergeKind::MultisetDiffVm);
            let width = 1 + usize::from(vm);
            let side = |parity: i64| {
                let rows = (0..64).flat_map(|n| [2 * n + parity, n % 5 + 1]);
                RowBuf::from_vec(rows.step_by(3 - width).collect(), width)
            };
            let (b_in, output) = (8, device(56 * width as u64));
            let plan = Plan::MergePass {
                left: 0,
                right: 1,
                kind,
                b_in,
                output,
            };
            cases.push((vec![side(0), side(1)], plan));
        }

        // Eleven runs of 9 tuples (fan-in 3 x 2 + 3), the last of 5: merged
        // as [27, 27, 27, 14], then [81, 14], then by the output pass.
        let (fan_in, b_in, b_out, card) = (3, 2, 3, 95u64);
        let run = fan_in * b_in + b_out;
        let mut level: Vec<(u64, Runs)> = (0..card.div_ceil(run))
            .map(|i| (run.min(card - i * run), Runs::Formed(i as usize)))
            .collect();
        let mut merges = 0;
        while level.len() > 1 {
            let size = level
                .len()
                .min(fan_in as usize + usize::from(level.len() <= 3));
            let mut groups = level.into_iter().peekable();
            level = Vec::new();
            while groups.peek().is_some() {
                let mut group: Vec<(u64, Runs)> = groups.by_ref().take(size).collect();
                merges += usize::from(group.len() > 1);
                level.push(match group.len() {
                    1 => group.pop().expect("one run"),
                    _ => (group.iter().map(|run| run.0).sum(), Runs::Merged(group)),
                });
            }
        }
        assert_eq!(merges, 6, "five merges and the output pass");
        let mut formed = vec![Vec::new(); card.div_ceil(run) as usize];
        let runs = level.pop().expect("the output pass").1;
        deal((0..card as i64).collect(), runs, &mut formed);
        let input = formed.into_iter().flat_map(|keys| keys.into_iter().rev());
        let (scratch, output) = ("HDD".into(), device(40));
        let plan = Plan::ExternalSort {
            input: 0,
            fan_in,
            b_in,
            b_out,
            scratch,
            output,
        };
        cases.push((vec![RowBuf::from_vec(input.collect(), 1)], plan));

        // Keys that take four buckets in turn.
        let (partitions, mut next) = (4, 0i64);
        let mut key_for = |bucket: u64| loop {
            next += 1;
            if ocal::stable_hash(&ocal::Value::Int(next)) % partitions == bucket {
                return next;
            }
        };
        let mut side = |card: u64| {
            let rows = (0..card).flat_map(|n| [key_for(n % partitions), n as i64]);
            RowBuf::from_vec(rows.collect(), 2)
        };
        let (buffer_bytes, spill, pred, output) = (192, "HDD".into(), JoinPred::Cross, device(96));
        let plan = Plan::GraceJoin {
            left: 0,
            right: 1,
            partitions,
            buffer_bytes,
            spill,
            pred,
            output,
        };
        cases.push((vec![side(80), side(28)], plan));

        for (rows, plan) in cases {
            let log = |mode: Mode| {
                let h = presets::two_hdd_ram(1 << 25);
                let sm = Recording::new(StorageSim::from_hierarchy(&h), false);
                let mut ex = Executor::new(sm, mode, CpuModel::default());
                for rows in &rows {
                    let file = file_of(&mut ex.sm, "HDD", rows);
                    let card = rows.len() as u64;
                    ex.add_relation(Relation::attach(file, card, rows.width() as u32, 1 << 40));
                }
                ex.sm.log.clear();
                let stats = ex.run(&plan).unwrap();
                (ex.sm.log, stats.output_rows, stats.seconds.to_bits())
            };
            let (want, got) = (log(Mode::Faithful), log(Mode::Simulated));
            assert!(want.0.len() > 20, "{plan:?}: {} requests", want.0.len());
            assert_eq!(
                (got.1, got.2),
                (want.1, want.2),
                "{plan:?}: rows and seconds"
            );
            assert!(got.0 == want.0, "{plan:?}: the request sequences differ");
        }
    }

    /// Columns narrower than 8 bytes run the one schedule in both modes:
    /// the external sort spills its 13 full formed runs of 384 one-byte
    /// tuples and the GRACE join appends its buckets to extents of their
    /// own, with the data elided in simulated mode and, in faithful mode,
    /// over the rows the one-byte files hold — the same formed runs, the
    /// generator's rows sorted, and the nested loop's join as a bag.
    #[test]
    fn narrow_columns_run_the_same_schedule_in_both_modes() {
        let (spill, output) = ("HDD".to_string(), Output::Discard);
        // `plan` over two relations of 5,000 one-byte keys: the output of
        // either mode, the charged requests and the relations' rows.
        let run = |plan: &Plan, mode: Mode| {
            let h = presets::hdd_ram(1 << 16);
            let sm = Recording::new(StorageSim::from_hierarchy(&h), false);
            let mut ex = Executor::new(sm, mode, CpuModel::default());
            let mut inputs = Vec::new();
            for name in ["R", "S"] {
                let spec = RelSpec {
                    col_bytes: 1,
                    ..RelSpec::ints(name, "HDD", 5000)
                };
                let rel = Relation::create(&mut ex.sm, &spec.with_key_range(1000), true, 1);
                let rel = rel.unwrap();
                inputs.push(rel.collect_rows().unwrap().to_rows());
                ex.add_relation(rel);
            }
            let stats = ex.run(plan).unwrap();
            assert!(stats.output_rows > 0, "{} {mode:?}", plan.name());
            (
                stats.output.map(|rows| sorted(rows.to_rows())),
                ex.sm.log,
                inputs,
            )
        };

        let (fan_in, b_in, b_out, scratch) = (4, 64, 128, spill.clone());
        let sort = Plan::ExternalSort {
            input: 0,
            fan_in,
            b_in,
            b_out,
            scratch,
            output: output.clone(),
        };
        let formed_runs = |log: &[Request]| -> Vec<Request> {
            log.iter().filter(|r| r.0 && r.3 == 384).copied().collect()
        };
        let (_, simulated, _) = run(&sort, Mode::Simulated);
        let (rows, faithful, inputs) = run(&sort, Mode::Faithful);
        assert_eq!(formed_runs(&simulated).len(), 13);
        assert_eq!(formed_runs(&faithful), formed_runs(&simulated));
        assert_eq!(rows, Some(sorted(inputs[0].clone())));

        let (partitions, buffer_bytes, pred) = (4, 1024, JoinPred::KeyEq);
        let grace = Plan::GraceJoin {
            left: 0,
            right: 1,
            partitions,
            buffer_bytes,
            spill,
            pred,
            output,
        };
        let appends = |log: &[Request]| log.iter().any(|r| r.0 && r.2 > 0);
        let (_, simulated, _) = run(&grace, Mode::Simulated);
        let (rows, faithful, inputs) = run(&grace, Mode::Faithful);
        assert!(appends(&simulated) && appends(&faithful));
        assert_eq!(rows, Some(sorted(brute_join(&inputs[0], &inputs[1], pred))));
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
