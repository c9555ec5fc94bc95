//! Relations: on-device extents of fixed-width integer tuples, and the
//! flat batch representation ([`RowBuf`]) the whole data path moves them
//! in.

use crate::sorted_window::{self, GROUP_BITS, GROUP_TUPLES};
use ocas_storage::{FileId, StorageBackend, StorageError, StorageSim};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A row of 64-bit integers — the *boundary* representation (OCAL
/// interpreter values, test fixtures, reports). The hot data path never
/// allocates one of these per tuple; it moves [`RowBuf`] batches.
pub type Row = Vec<i64>;

/// A flat, fixed-width batch of rows: `len() * width()` machine integers
/// in row-major order, one heap allocation per batch.
///
/// This is the engine's unit of data flow. Every operator inner loop works
/// on row *slices* borrowed from a `RowBuf` (no per-tuple allocation), the
/// sort is in place over the flat buffer, and encode/decode to the on-disk
/// little-endian format are single linear passes that the compiler lowers
/// to `memcpy`-like loops on little-endian targets.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowBuf {
    data: Vec<i64>,
    width: usize,
}

impl RowBuf {
    /// An empty batch of `width`-column rows.
    pub fn new(width: usize) -> RowBuf {
        RowBuf {
            data: Vec::new(),
            width: width.max(1),
        }
    }

    /// An empty batch with room for `rows` rows.
    pub fn with_capacity(width: usize, rows: usize) -> RowBuf {
        RowBuf {
            data: Vec::with_capacity(rows * width.max(1)),
            width: width.max(1),
        }
    }

    /// Wraps an existing row-major buffer (length must be a multiple of
    /// `width`).
    pub fn from_vec(data: Vec<i64>, width: usize) -> RowBuf {
        let width = width.max(1);
        debug_assert_eq!(data.len() % width, 0, "partial row");
        RowBuf { data, width }
    }

    /// Builds a batch from boundary rows (each must have `width` columns).
    pub fn from_rows(rows: &[Row]) -> RowBuf {
        let width = rows.first().map_or(1, |r| r.len().max(1));
        let mut out = RowBuf::with_capacity(width, rows.len());
        for r in rows {
            out.push(r);
        }
        out
    }

    /// Converts to boundary rows (allocates one `Vec` per row — reports
    /// and interpreter comparisons only, never the hot path).
    pub fn to_rows(&self) -> Vec<Row> {
        self.iter().map(|r| r.to_vec()).collect()
    }

    /// Columns per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.width
    }

    /// True when no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Drops all rows, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// The `i`-th row as a slice.
    pub fn row(&self, i: usize) -> &[i64] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Iterates over the rows as slices.
    pub fn iter(&self) -> impl Iterator<Item = &[i64]> {
        self.data.chunks_exact(self.width)
    }

    /// The raw row-major data.
    pub fn as_slice(&self) -> &[i64] {
        &self.data
    }

    /// Appends one row (must have `width` columns).
    pub fn push(&mut self, row: &[i64]) {
        debug_assert_eq!(row.len(), self.width, "row width mismatch");
        self.data.extend_from_slice(row);
    }

    /// Appends one raw column value; callers must complete the row before
    /// the buffer is read (generator inner loops only).
    pub(crate) fn push_raw(&mut self, v: i64) {
        self.data.push(v);
    }

    /// The raw row-major buffer, for an in-crate kernel that appends whole
    /// rows to it.
    pub(crate) fn raw_mut(&mut self) -> &mut Vec<i64> {
        &mut self.data
    }

    /// Appends the concatenation `a ++ b` as one row (joins).
    pub fn push_concat(&mut self, a: &[i64], b: &[i64]) {
        debug_assert_eq!(a.len() + b.len(), self.width, "row width mismatch");
        self.data.extend_from_slice(a);
        self.data.extend_from_slice(b);
    }

    /// Appends raw row-major data of the same width.
    pub fn extend_raw(&mut self, rows: &[i64]) {
        debug_assert_eq!(rows.len() % self.width, 0, "partial row");
        self.data.extend_from_slice(rows);
    }

    /// Appends every row of `view`.
    pub fn extend_view(&mut self, view: RowsView<'_>) {
        debug_assert_eq!(view.width, self.width, "row width mismatch");
        self.data.extend_from_slice(view.data);
    }

    /// A borrowed view of rows `start .. start + count` (clamped).
    pub fn view(&self, start: usize, count: usize) -> RowsView<'_> {
        let n = self.len();
        let start = start.min(n);
        let end = (start + count).min(n);
        RowsView {
            data: &self.data[start * self.width..end * self.width],
            width: self.width,
        }
    }

    /// A view of the whole batch.
    pub fn as_view(&self) -> RowsView<'_> {
        RowsView {
            data: &self.data,
            width: self.width,
        }
    }

    /// Sorts the rows lexicographically, in place over the flat buffer.
    ///
    /// Width-1 batches sort the raw buffer directly; wider rows sort an
    /// index permutation and gather once (one linear pass, no per-row
    /// allocation). A batch that is sorted to be written, such as an
    /// external sort's run, goes through [`sort_encode`](RowBuf::sort_encode)
    /// instead.
    pub fn sort(&mut self) {
        if self.width == 1 {
            self.data.sort_unstable();
            return;
        }
        let w = self.width;
        let n = self.len();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        idx.sort_unstable_by(|&a, &b| {
            self.data[a as usize * w..(a as usize + 1) * w]
                .cmp(&self.data[b as usize * w..(b as usize + 1) * w])
        });
        let mut out = Vec::with_capacity(self.data.len());
        for i in idx {
            out.extend_from_slice(&self.data[i as usize * w..(i as usize + 1) * w]);
        }
        self.data = out;
    }

    /// True when the rows are lexicographically non-decreasing.
    pub fn is_sorted(&self) -> bool {
        (1..self.len()).all(|i| self.row(i - 1) <= self.row(i))
    }

    /// Removes adjacent duplicate rows, in place.
    pub fn dedup(&mut self) {
        let w = self.width;
        let n = self.len();
        if n <= 1 {
            return;
        }
        let mut keep = w; // the first row always stays
        for i in 1..n {
            if self.data[keep - w..keep] != self.data[i * w..(i + 1) * w] {
                self.data.copy_within(i * w..(i + 1) * w, keep);
                keep += w;
            }
        }
        self.data.truncate(keep);
    }

    /// Sorts the rows as [`sort`](RowBuf::sort) does and replaces the
    /// contents of `out` with their encoding, every column `col_bytes` wide
    /// ([`Layout`]): an external sort's run formation. A width-1 batch is
    /// sorted and encoded by one kernel that buckets the keys' encodings
    /// straight into `out` and radix sorts each bucket in cache, with no
    /// buffer of the batch's size besides `out`; wider rows are sorted, then
    /// encoded. Narrow columns must hold values below `256^col_bytes`, as
    /// every file of them does.
    pub fn sort_encode(&mut self, col_bytes: usize, out: &mut Vec<u8>) {
        let cb = col_bytes.clamp(1, 8);
        if self.width != 1 {
            self.sort();
            out.clear();
            return self.encode_into(cb, out);
        }
        out.resize(self.data.len() * cb, 0);
        crate::sort_kernel::sort_encode(&mut self.data, cb, out);
    }

    /// Encodes every row into `out` in the on-disk format, every column
    /// `col_bytes` wide ([`Layout`]).
    pub fn encode_into(&self, col_bytes: usize, out: &mut Vec<u8>) {
        encode_cols(&self.data, col_bytes, out);
    }

    /// Encodes to a fresh byte buffer (8-byte columns).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(8, &mut out);
        out
    }
}

/// Encodes `values` into `out`, each as its `col_bytes` (1 to 8) low-order
/// little-endian bytes: [`Layout`]'s column format. The width is checked
/// once a call; the 8-byte path compiles to a `memcpy`-like loop on
/// little-endian targets.
#[inline]
pub(crate) fn encode_cols(values: &[i64], col_bytes: usize, out: &mut Vec<u8>) {
    let cb = col_bytes.clamp(1, 8);
    out.reserve(values.len() * cb);
    if cb == 8 {
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    } else {
        for v in values {
            out.extend_from_slice(&v.to_le_bytes()[..cb]);
        }
    }
}

/// Appends the `col_bytes`-byte (1 to 8) columns in `bytes`, zero-extended,
/// ignoring a trailing partial column: the inverse of [`encode_cols`] below
/// `256^col_bytes`.
#[inline]
pub(crate) fn decode_cols(bytes: &[u8], col_bytes: usize, out: &mut Vec<i64>) {
    let cb = col_bytes.clamp(1, 8);
    if cb == 8 {
        let cols = bytes.chunks_exact(8);
        out.extend(cols.map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk"))));
    } else {
        out.extend(bytes.chunks_exact(cb).map(|c| {
            let mut word = [0u8; 8];
            word[..cb].copy_from_slice(c);
            i64::from_le_bytes(word)
        }));
    }
}

/// The tuple format of a file of rows, and the one place columns become
/// bytes: stretches of equally wide columns in column order, each column
/// its 1 to 8 low-order little-endian bytes, read back zero-extended (so a
/// value below `256^col_bytes`, all a generator draws for such a column,
/// reads back as written: [`RelSpec::key_range`]). A relation's is
/// one stretch ([`Relation::layout`]); an operator's output concatenates
/// its inputs' ([`Layout::then`]: a join row is the outer row's columns,
/// then the inner row's).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// `(columns, bytes a column)`, neighbours of different widths.
    parts: Vec<(usize, usize)>,
}

impl Layout {
    /// `width` columns of `col_bytes` bytes each.
    pub fn new(width: usize, col_bytes: usize) -> Layout {
        Layout {
            parts: vec![(width.max(1), col_bytes.clamp(1, 8))],
        }
    }

    /// This layout's columns, then `next`'s.
    pub fn then(mut self, next: &Layout) -> Layout {
        for &(cols, cb) in &next.parts {
            match self.parts.last_mut() {
                Some(last) if last.1 == cb => last.0 += cols,
                _ => self.parts.push((cols, cb)),
            }
        }
        self
    }

    /// Columns per row.
    pub fn width(&self) -> usize {
        self.parts.iter().map(|p| p.0).sum()
    }

    /// Bytes per row.
    pub fn tuple_bytes(&self) -> u64 {
        self.parts.iter().map(|p| (p.0 * p.1) as u64).sum()
    }

    /// Encodes whole rows, row-major, into `out`: one pass over the batch
    /// when every column has one width.
    #[inline]
    pub fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        self.encode_concat(values, &[], out);
    }

    /// Encodes the rows `a ++ b` (one row, when `b` is not empty) without
    /// materializing them.
    #[inline]
    pub(crate) fn encode_concat(&self, a: &[i64], b: &[i64], out: &mut Vec<u8>) {
        if let [(_, cb)] = self.parts[..] {
            encode_cols(a, cb, out);
            return encode_cols(b, cb, out);
        }
        for (v, cb) in a.iter().chain(b).zip(self.column_bytes().cycle()) {
            encode_cols(std::slice::from_ref(v), cb, out);
        }
    }

    /// A fresh batch of the whole rows encoded in `bytes` (a trailing
    /// partial row is ignored): the inverse of [`encode`](Layout::encode).
    pub fn decode(&self, bytes: &[u8]) -> RowBuf {
        let (tb, mut out) = (self.tuple_bytes() as usize, RowBuf::new(self.width()));
        let bytes = &bytes[..bytes.len() / tb * tb];
        if let [(_, cb)] = self.parts[..] {
            decode_cols(bytes, cb, &mut out.data);
            return out;
        }
        let (mut at, cols) = (0, bytes.len() / tb * out.width);
        for cb in self.column_bytes().cycle().take(cols) {
            decode_cols(&bytes[at..at + cb], cb, &mut out.data);
            at += cb;
        }
        out
    }

    /// Each column's bytes, in column order.
    fn column_bytes(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        self.parts
            .iter()
            .flat_map(|&(n, cb)| std::iter::repeat(cb).take(n))
    }

    /// The wrapping sum of column 0 over the whole rows in `bytes`: the
    /// aggregate's inner loop over a run's bytes, compiled once.
    pub(crate) fn column0_sum(&self, bytes: &[u8]) -> i64 {
        let rows = bytes.chunks_exact(self.tuple_bytes() as usize);
        let (cb, mut word) = (self.parts[0].1, [0u8; 8]);
        if cb == 8 {
            let first = |row: &[u8]| i64::from_le_bytes(row[..8].try_into().expect("8 bytes"));
            return rows.fold(0i64, |sum, row| sum.wrapping_add(first(row)));
        }
        rows.fold(0i64, |sum, row| {
            word[..cb].copy_from_slice(&row[..cb]);
            sum.wrapping_add(i64::from_le_bytes(word))
        })
    }
}

/// A borrowed, fixed-width view over rows of a [`RowBuf`] (or any
/// row-major `i64` slice): the type operator inner loops consume.
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a> {
    data: &'a [i64],
    width: usize,
}

impl<'a> RowsView<'a> {
    /// An empty view.
    pub fn empty() -> RowsView<'static> {
        RowsView {
            data: &[],
            width: 1,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.width
    }

    /// True when no rows are visible.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Columns per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The `i`-th row as a slice.
    pub fn row(&self, i: usize) -> &'a [i64] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Iterates over the rows as slices.
    pub fn iter(&self) -> impl Iterator<Item = &'a [i64]> {
        self.data.chunks_exact(self.width)
    }

    /// The raw row-major data.
    pub fn as_slice(&self) -> &'a [i64] {
        self.data
    }
}

/// The reusable buffers behind [`Relation::load_block`]: the bytes of the
/// last block read and the rows decoded from them.
#[derive(Debug)]
pub struct BlockBuf {
    bytes: Vec<u8>,
    rows: RowBuf,
}

impl Default for BlockBuf {
    fn default() -> BlockBuf {
        BlockBuf {
            bytes: Vec::new(),
            rows: RowBuf::new(1),
        }
    }
}

impl BlockBuf {
    /// Tuple bytes of the block currently decoded here: 0 when the last
    /// block came from the relation's generator instead (and is counted in
    /// [`Relation::resident_bytes`]).
    #[inline]
    pub fn resident_bytes(&self) -> u64 {
        self.rows.data.len() as u64 * 8
    }
}

/// Declarative description of a relation to allocate/generate.
#[derive(Debug, Clone)]
pub struct RelSpec {
    /// Name (matches the OCAL input variable).
    pub name: String,
    /// Hierarchy node holding the data.
    pub device: String,
    /// Number of tuples.
    pub card: u64,
    /// Columns per tuple.
    pub width: u32,
    /// Bytes per column (8 for machine integers; the paper's Figure 4
    /// example uses 1).
    pub col_bytes: u32,
    /// Key range for generated data: keys drawn from the **half-open**
    /// range `0..key_range` (0 means "same as card"). Every generated
    /// value is strictly below `key_range` — the simulated join
    /// selectivity (`1 / key_range`) relies on exactly `key_range`
    /// distinct possible keys. Columns narrower than 8 bytes cap the range
    /// at `256^col_bytes`, the values such a column holds, so that a file
    /// holds every row the generator draws
    /// ([`effective_range`](RelSpec::effective_range)).
    pub key_range: u64,
    /// Keep sorted by first column (merges/dedup need sorted inputs).
    pub sorted: bool,
    /// Resident-row budget for the streamed faithful generator, in bytes
    /// (0 = [`DEFAULT_CACHE_BYTES`]). Bounds the block cache a streamed
    /// [`Relation`] keeps in host memory, so faithful-mode relations can
    /// exceed RAM.
    pub cache_bytes: u64,
}

impl RelSpec {
    /// A binary relation of `card` pairs on `device`.
    pub fn pairs(name: &str, device: &str, card: u64) -> RelSpec {
        RelSpec {
            name: name.into(),
            device: device.into(),
            card,
            width: 2,
            col_bytes: 8,
            key_range: 0,
            sorted: false,
            cache_bytes: 0,
        }
    }

    /// A unary integer list.
    pub fn ints(name: &str, device: &str, card: u64) -> RelSpec {
        RelSpec {
            name: name.into(),
            device: device.into(),
            card,
            width: 1,
            col_bytes: 8,
            key_range: 0,
            sorted: false,
            cache_bytes: 0,
        }
    }

    /// Sorted variant, builder-style.
    pub fn sorted(mut self) -> RelSpec {
        self.sorted = true;
        self
    }

    /// Restrict keys to the half-open `0..range`, builder-style.
    pub fn with_key_range(mut self, range: u64) -> RelSpec {
        self.key_range = range;
        self
    }

    /// Bound the streamed generator's resident-row cache, builder-style.
    pub fn with_cache_bytes(mut self, bytes: u64) -> RelSpec {
        self.cache_bytes = bytes;
        self
    }

    /// The effective generation range: `0..key_range`, with 0 meaning
    /// "same as card", capped at `256^col_bytes` for columns narrower than
    /// 8 bytes.
    pub fn effective_range(&self) -> u64 {
        let range = match self.key_range {
            0 => self.card.max(1),
            range => range,
        };
        match self.col_bytes {
            cb @ 1..=7 => range.min(1 << (8 * cb)),
            _ => range,
        }
    }

    /// Tuple width in bytes.
    pub fn tuple_bytes(&self) -> u64 {
        u64::from(self.width) * u64::from(self.col_bytes)
    }

    /// The one layout check, which every [`Relation`] constructor makes
    /// before it allocates anything: at least one column, of 1 to 8 bytes
    /// each (the generator draws `width` values a tuple, and a file holds
    /// each as its `col_bytes` low-order bytes).
    fn check(&self) -> Result<(), StorageError> {
        if self.width == 0 || !(1..=8).contains(&self.col_bytes) {
            return Err(StorageError::BadLayout {
                width: self.width,
                col_bytes: self.col_bytes,
            });
        }
        Ok(())
    }
}

/// Default resident-row budget of a streamed relation's block cache.
pub const DEFAULT_CACHE_BYTES: u64 = 8 << 20;

/// First-column value buckets the sorted generator's order statistics use.
const SORT_BUCKETS: u64 = 4096;

/// A deterministic block-streaming row generator.
///
/// `RowGen` reproduces, block by block, exactly the stream the legacy
/// whole-relation generator draws: `StdRng::seed_from_u64(seed)` emitting
/// `card * width` values uniform in the half-open `0..range`, optionally
/// followed by a lexicographic sort. Blocks are *seeded per block* — the
/// generator for draw index `d` is the seed advanced by `d` in O(1)
/// ([`StdRng::advance`]) — so any block can be (re)produced independently
/// and their concatenation is bit-identical to the legacy stream (pinned
/// by the streamed-vs-materialized parity proptest).
///
/// Sorted specs stream in *output* (sorted) order: construction takes one
/// counting pass recording how many tuples fall into each of
/// `SORT_BUCKETS` first-column value buckets, which maps any output rank
/// to a value range; a window of ranks is then regenerated by one pass over
/// the stream that keeps the tuples whose first column falls in that range.
/// Since bucket boundaries are on the first column — the lexicographically
/// dominant one — concatenated sorted windows equal the globally sorted
/// relation. A width-1 window is ordered without comparisons (the kernel in
/// `sorted_window.rs`): the kept draws go straight to groups of buckets
/// whose sizes the counts give, and each group is radix-sorted in cache.
/// Wider tuples sort the window's rows.
///
/// Cost model: every sorted-window rebuild draws all `card` tuples again.
/// The draws are uniform, so every stretch of the stream holds tuples of
/// every window and none can be skipped; a full sequential scan — and
/// streamed creation — of a sorted relation is O(card² / window_tuples)
/// RNG draws. Those draws are the cost of a width-1 window: placing and
/// ordering the kept ones adds a few nanoseconds a tuple, with scratch
/// bounded by one group rather than a second window. The trade buys
/// O(SORT_BUCKETS) state instead of materialization; it is the right one
/// for twin comparisons a few multiples past the RAM device, but scans get
/// quadratically slower as the relation-to-cache ratio grows. Unsorted
/// windows regenerate in O(window) via the O(1) draw skip. A generator is
/// built once per relation and shared, as an `Arc`, by its clones and by a
/// simulator twin ([`Relation::twin`]), which therefore generates nothing at
/// set-up.
#[derive(Debug, Clone)]
pub struct RowGen {
    seed: u64,
    card: u64,
    width: usize,
    range: i64,
    sorted: bool,
    /// Sorted specs: `prefix[b]` = number of tuples whose first column
    /// falls in a bucket `< b` (len = buckets + 1). Empty when unsorted.
    prefix: Vec<u64>,
}

impl RowGen {
    /// A generator for `spec`'s rows under `seed`.
    pub fn from_spec(spec: &RelSpec, seed: u64) -> RowGen {
        RowGen::new(
            spec.card,
            spec.width as usize,
            spec.effective_range(),
            spec.sorted,
            seed,
        )
    }

    /// A generator for `card` `width`-column tuples with values in
    /// `0..range`, sorted or in stream order.
    pub fn new(card: u64, width: usize, range: u64, sorted: bool, seed: u64) -> RowGen {
        let width = width.max(1);
        let range = (range.max(1)).min(i64::MAX as u64) as i64;
        let mut gen = RowGen {
            seed,
            card,
            width,
            range,
            sorted,
            prefix: Vec::new(),
        };
        if sorted {
            gen.build_prefix();
        }
        gen
    }

    /// Number of tuples.
    pub fn card(&self) -> u64 {
        self.card
    }

    /// Columns per tuple.
    pub fn width(&self) -> usize {
        self.width
    }

    fn n_buckets(&self) -> u64 {
        (self.range as u64).clamp(1, SORT_BUCKETS)
    }

    fn bucket_of(&self, v: i64) -> u64 {
        (v as u128 * self.n_buckets() as u128 / self.range as u128) as u64
    }

    /// Smallest first-column value of bucket `b` (bucket `n_buckets` is
    /// the exclusive upper bound `range`).
    fn bucket_lo(&self, b: u64) -> i64 {
        let nb = self.n_buckets() as u128;
        ((b as u128 * self.range as u128).div_ceil(nb)) as i64
    }

    /// True when bucket `b` spans exactly one first-column value. Width-1
    /// tuples in such a bucket are all identical, so a sorted window may
    /// slice the bucket at any rank — the fast path that keeps one
    /// huge-multiplicity value from forcing a window far past the cache
    /// budget.
    fn single_value_bucket(&self, b: u64) -> bool {
        self.bucket_lo(b + 1) - self.bucket_lo(b) == 1
    }

    /// One counting pass over the stream: per-bucket tuple counts, as
    /// cumulative prefix sums. O(card) time, O(SORT_BUCKETS) memory.
    fn build_prefix(&mut self) {
        let nb = self.n_buckets() as usize;
        let mut counts = vec![0u64; nb];
        let mut rng = self.rng_at(0);
        for _ in 0..self.card {
            let first: i64 = rng.gen_range(0..self.range);
            counts[self.bucket_of(first) as usize] += 1;
            rng.advance(self.width as u64 - 1);
        }
        let mut prefix = Vec::with_capacity(nb + 1);
        let mut total = 0u64;
        prefix.push(0);
        for c in counts {
            total += c;
            prefix.push(total);
        }
        self.prefix = prefix;
    }

    /// The stream generator positioned at draw index `draw` — per-block
    /// seeding, O(1).
    fn rng_at(&self, draw: u64) -> StdRng {
        let mut rng = StdRng::seed_from_u64(self.seed);
        rng.advance(draw);
        rng
    }

    /// Appends stream-order tuples `[start, start + count)` to `out`.
    fn gen_block_into(&self, start: u64, count: u64, out: &mut RowBuf) {
        debug_assert_eq!(out.width(), self.width);
        let mut rng = self.rng_at(start * self.width as u64);
        for _ in 0..count * self.width as u64 {
            out.push_raw(rng.gen_range(0..self.range));
        }
    }

    /// The generation window containing output rank `rank`: covers at
    /// least `[rank, rank + need)` and aims for `budget` tuples.
    /// Unsorted windows align to the budget grid; sorted windows align to
    /// bucket boundaries (and can exceed `budget` only as far as covering
    /// `need` or one bucket requires).
    fn window_of(&self, rank: u64, need: u64, budget: u64) -> (u64, u64) {
        let budget = budget.max(1);
        if !self.sorted {
            let start = rank / budget * budget;
            let len = budget.max(rank + need - start).min(self.card - start);
            return (start, len);
        }
        let nb = self.n_buckets() as usize;
        let fast = self.width == 1;
        // The bucket whose rank span contains `rank`.
        let b0 = self
            .prefix
            .partition_point(|p| *p <= rank)
            .saturating_sub(1);
        // Width-1 single-value buckets can be sliced at any rank (all
        // their tuples are identical), so enter the bucket on the budget
        // grid rather than at its boundary.
        let start = if fast && self.single_value_bucket(b0 as u64) {
            self.prefix[b0] + (rank - self.prefix[b0]) / budget * budget
        } else {
            self.prefix[b0]
        };
        let target = (rank + need).max(start + budget);
        let mut b = b0;
        loop {
            if fast && self.single_value_bucket(b as u64) && target < self.prefix[b + 1] {
                // Stop mid-bucket: a slice up to `target` covers the need
                // and the budget without dragging in the whole bucket.
                return (start, target - start);
            }
            let end = self.prefix[b + 1];
            if b + 1 >= nb || (end >= rank + need && end - start >= budget) {
                return (start, end - start);
            }
            b += 1;
        }
    }

    /// Fills `out` (cleared) with the generation window that holds output
    /// ranks `[rank, rank + need)` (`need > 0`, all within the relation),
    /// aiming for `budget` tuples, and returns the window's first rank:
    /// what a [`Relation`]'s block cache does when a request falls outside
    /// its window.
    pub fn fill_window(&self, rank: u64, need: u64, budget: u64, out: &mut RowBuf) -> u64 {
        let (start, count) = self.window_of(rank, need, budget);
        self.fill_ranks(start, count, out);
        start
    }

    /// Fills `out` (cleared) with output ranks `[start, start + count)`.
    /// For sorted specs the window must come from [`RowGen::window_of`]:
    /// bucket-aligned except where a width-1 single-value bucket allows a
    /// partial head or tail slice (those ranks are copies of the bucket's
    /// one value, so they need no regeneration pass, and they sort before
    /// and after every other rank of the window).
    fn fill_ranks(&self, start: u64, count: u64, out: &mut RowBuf) {
        out.clear();
        if count == 0 {
            return;
        }
        if !self.sorted {
            self.gen_block_into(start, count, out);
            return;
        }
        let end = start + count;
        let hb = self
            .prefix
            .partition_point(|p| *p <= start)
            .saturating_sub(1);
        // Partial head: the window enters bucket `hb` past its boundary.
        let mut at = start;
        if self.prefix[hb] < start {
            let head_end = end.min(self.prefix[hb + 1]);
            debug_assert!(
                self.width == 1 && self.single_value_bucket(hb as u64),
                "unaligned window start outside the width-1 fast path"
            );
            let v = self.bucket_lo(hb as u64);
            for _ in at..head_end {
                out.push_raw(v);
            }
            at = head_end;
        }
        if at < end {
            // Fully covered buckets [m0, m1), then a partial tail slice
            // inside bucket `m1`.
            let m0 = self.prefix.partition_point(|p| *p <= at).saturating_sub(1);
            debug_assert_eq!(self.prefix[m0], at, "window not bucket-aligned");
            let m1 = self.prefix.partition_point(|p| *p <= end).saturating_sub(1);
            if m0 < m1 && self.width == 1 {
                self.sorted_keys_into(m0, m1, out);
            } else if m0 < m1 {
                self.sorted_rows_into(m0, m1, out);
            }
            if self.prefix[m1] < end {
                debug_assert!(
                    self.width == 1 && self.single_value_bucket(m1 as u64),
                    "unaligned window end outside the width-1 fast path"
                );
                let v = self.bucket_lo(m1 as u64);
                for _ in self.prefix[m1]..end {
                    out.push_raw(v);
                }
            }
        }
        debug_assert_eq!(out.len() as u64, count, "bucket counts disagree");
    }

    /// Appends the width-1 tuples of buckets `[m0, m1)`, ascending: the
    /// buckets cut into the kernel's groups (see `sorted_window.rs`).
    fn sorted_keys_into(&self, m0: usize, m1: usize, out: &mut RowBuf) {
        let mut bounds = vec![self.bucket_lo(m0 as u64)];
        let mut offs = vec![0];
        let mut b = m0;
        while b < m1 {
            let (first, lo) = (b, self.bucket_lo(b as u64));
            b += 1;
            while b < m1
                && self.bucket_lo(b as u64 + 1) - lo <= 1 << GROUP_BITS
                && self.prefix[b + 1] - self.prefix[first] <= GROUP_TUPLES
            {
                b += 1;
            }
            bounds.push(self.bucket_lo(b as u64));
            offs.push((self.prefix[b] - self.prefix[m0]) as usize);
        }
        let keys = out.raw_mut();
        let at = keys.len();
        keys.resize(at + offs[offs.len() - 1], 0);
        let rng = self.rng_at(0);
        sorted_window::fill_sorted(rng, self.card, self.range, &bounds, &offs, &mut keys[at..]);
    }

    /// Fills `out` with the tuples of buckets `[m0, m1)` — a whole window,
    /// since only width-1 windows cut buckets — in lexicographic order: one
    /// filtered pass that regenerates every tuple and keeps those whose
    /// first column lands in the buckets' value range, skipping the rest in
    /// O(1) per tuple, then the rows sorted.
    fn sorted_rows_into(&self, m0: usize, m1: usize, out: &mut RowBuf) {
        let (lo, hi) = (self.bucket_lo(m0 as u64), self.bucket_lo(m1 as u64));
        let mut rng = self.rng_at(0);
        let skip = self.width as u64 - 1;
        for _ in 0..self.card {
            let first: i64 = rng.gen_range(0..self.range);
            if (lo..hi).contains(&first) {
                out.push_raw(first);
                for _ in 0..skip {
                    out.push_raw(rng.gen_range(0..self.range));
                }
            } else {
                rng.advance(skip);
            }
        }
        out.sort();
    }

    /// Materializes the whole relation — the legacy eager semantics
    /// (stream everything, then sort if the spec is sorted). Oracle and
    /// test use; allocates `card * width` integers.
    pub fn generate_all(&self) -> RowBuf {
        let mut out = RowBuf::with_capacity(self.width, self.card as usize);
        self.gen_block_into(0, self.card, &mut out);
        if self.sorted {
            out.sort();
        }
        out
    }
}

/// The bounded block cache fronting a [`RowGen`]: one contiguous rank
/// window, regenerated on demand.
#[derive(Debug, Clone)]
struct BlockCache {
    start: u64,
    buf: RowBuf,
    budget_tuples: u64,
    peak_bytes: u64,
}

impl BlockCache {
    /// An empty cache of `spec`'s budget ([`RelSpec::with_cache_bytes`]).
    fn for_spec(spec: &RelSpec) -> BlockCache {
        let budget_bytes = if spec.cache_bytes == 0 {
            DEFAULT_CACHE_BYTES
        } else {
            spec.cache_bytes
        };
        let width = spec.width as usize;
        BlockCache {
            start: 0,
            buf: RowBuf::new(width),
            budget_tuples: (budget_bytes / (width as u64 * 8)).max(1),
            peak_bytes: 0,
        }
    }

    fn resident_bytes(&self) -> u64 {
        self.buf.as_slice().len() as u64 * 8
    }

    /// Drops the window's allocation (setup scratch release: relations
    /// registered with an executor stay empty until an operator clones
    /// them and starts serving blocks).
    fn release(&mut self) {
        let width = self.buf.width();
        self.buf = RowBuf::new(width);
        self.start = 0;
    }

    /// A borrowed view of output ranks `[index, index + count)` if the
    /// cached window holds them all (`count > 0`).
    fn cached(&self, index: u64, count: u64) -> Option<RowsView<'_>> {
        let covered = self.start <= index && index + count <= self.start + self.buf.len() as u64;
        covered.then(|| self.buf.view((index - self.start) as usize, count as usize))
    }

    /// A borrowed view of output ranks `[index, index + count)`
    /// (pre-clamped by the caller), regenerating the cached window when
    /// the request falls outside it.
    fn serve(&mut self, gen: &RowGen, index: u64, count: u64) -> RowsView<'_> {
        if count == 0 {
            return RowsView::empty();
        }
        let covered = self.start <= index && index + count <= self.start + self.buf.len() as u64;
        if !covered {
            self.start = gen.fill_window(index, count, self.budget_tuples, &mut self.buf);
            self.peak_bytes = self.peak_bytes.max(self.resident_bytes());
        }
        self.buf.view((index - self.start) as usize, count as usize)
    }
}

/// Where a relation's faithful-mode rows come from.
#[derive(Debug, Clone)]
enum RowSource {
    /// Simulated mode, or an attached file: cardinality and width only, no
    /// generator.
    Virtual,
    /// A deterministic generator plus a bounded block cache. Resident
    /// memory is the cache window, not the relation.
    Streamed { gen: Arc<RowGen>, cache: BlockCache },
}

/// A materialized (or virtual) relation.
#[derive(Debug, Clone)]
pub struct Relation {
    /// The allocation on a simulated device.
    pub file: FileId,
    /// Number of tuples.
    pub card: u64,
    /// Bytes per tuple.
    pub tuple_bytes: u64,
    /// Columns per tuple.
    pub width: u32,
    /// Key range used for generation (drives simulated join selectivity).
    pub key_range: u64,
    /// Faithful-mode row source (virtual or streamed).
    source: RowSource,
}

impl Relation {
    /// Allocates a relation per `spec`; when `faithful`, its rows come from
    /// a [`RowGen`] seeded with `seed` ([`Relation::generated`]), else it is
    /// virtual: cardinality and width only. A layout without columns, or
    /// with columns outside 1 to 8 bytes, is [`StorageError::BadLayout`]
    /// before anything is allocated.
    pub fn create<B: StorageBackend>(
        sm: &mut B,
        spec: &RelSpec,
        faithful: bool,
        seed: u64,
    ) -> Result<Relation, StorageError> {
        if faithful {
            return Relation::generated(sm, spec, Arc::new(RowGen::from_spec(spec, seed)));
        }
        let file = Relation::extent(sm, spec)?;
        Ok(Relation::over(file, spec, RowSource::Virtual))
    }

    /// Allocates a relation per `spec` whose rows come from `gen` behind a
    /// bounded block cache, and *materializes* them into the backing file
    /// (uncharged setup writes), block by block, so setup memory stays
    /// bounded by the cache budget: the simulator keeps nothing of them,
    /// while a real backend ends up with genuine tuple bytes on disk, in
    /// the relation's [`Layout`]. Every drawn value fits its column
    /// ([`RelSpec::effective_range`]), so the file holds the generator's
    /// rows exactly, at any column width.
    ///
    /// `gen` is shared, not copied: a simulator twin of a run over this
    /// relation ([`Relation::twin`]) takes the same `Arc`, so a sorted
    /// relation's counting pass runs once for both.
    pub fn generated<B: StorageBackend>(
        sm: &mut B,
        spec: &RelSpec,
        gen: Arc<RowGen>,
    ) -> Result<Relation, StorageError> {
        let file = Relation::extent(sm, spec)?;
        let cb = spec.col_bytes as usize;
        let mut cache = BlockCache::for_spec(spec);
        // The transient is one window plus its encoding, never the whole
        // relation.
        let tb = spec.tuple_bytes();
        let mut encoded = Vec::new();
        let mut at = 0u64;
        while at < spec.card {
            let take = cache.budget_tuples.min(spec.card - at);
            encoded.clear();
            encode_cols(cache.serve(&gen, at, take).as_slice(), cb, &mut encoded);
            sm.materialize(file, at * tb, &encoded)?;
            at += take;
        }
        cache.release();
        Ok(Relation::over(
            file,
            spec,
            RowSource::Streamed { gen, cache },
        ))
    }

    /// The relation [`Relation::generated`] gives for `spec` and `gen`, on a
    /// simulator: an extent of the same length on `spec`'s device, allocated
    /// as `generated` allocates it, and an empty block cache of the same
    /// budget. Nothing is generated or placed — the simulator keeps nothing
    /// of an input anyway, and serves every block of it from the generator
    /// — so a simulator twin of a real run costs no window at set-up and
    /// reads exactly the rows the run's files were written from.
    pub fn twin(
        sim: &mut StorageSim,
        spec: &RelSpec,
        gen: Arc<RowGen>,
    ) -> Result<Relation, StorageError> {
        let file = Relation::extent(sim, spec)?;
        let cache = BlockCache::for_spec(spec);
        Ok(Relation::over(
            file,
            spec,
            RowSource::Streamed { gen, cache },
        ))
    }

    /// `spec`'s extent on its device, once its layout checks out.
    fn extent<B: StorageBackend>(sm: &mut B, spec: &RelSpec) -> Result<FileId, StorageError> {
        spec.check()?;
        sm.alloc(&spec.device, (spec.card * spec.tuple_bytes()).max(1))
    }

    fn over(file: FileId, spec: &RelSpec, source: RowSource) -> Relation {
        Relation {
            file,
            card: spec.card,
            tuple_bytes: spec.tuple_bytes(),
            width: spec.width,
            key_range: spec.effective_range(),
            source,
        }
    }

    /// Wraps an already-populated file extent of `width` 8-byte columns a
    /// tuple as a virtual relation (no in-memory rows; real backends read
    /// the data through the storage seam).
    pub fn attach(file: FileId, card: u64, width: u32, key_range: u64) -> Relation {
        Relation {
            file,
            card,
            tuple_bytes: u64::from(width.max(1)) * 8,
            width: width.max(1),
            key_range: key_range.max(1),
            source: RowSource::Virtual,
        }
    }

    /// `card` tuples of this relation's layout in `file` alone — a spilled
    /// run or bucket — as a virtual relation.
    pub(crate) fn in_file(&self, file: FileId, card: u64) -> Relation {
        Relation {
            file,
            card,
            source: RowSource::Virtual,
            ..*self
        }
    }

    /// Bytes per column.
    #[inline]
    pub fn col_bytes(&self) -> usize {
        (self.tuple_bytes / u64::from(self.width.max(1))) as usize
    }

    /// The tuple format of this relation's file.
    pub fn layout(&self) -> Layout {
        Layout::new(self.width.max(1) as usize, self.col_bytes())
    }

    /// Total size in bytes.
    pub fn bytes(&self) -> u64 {
        self.card * self.tuple_bytes
    }

    /// Reads a block of `count` tuples starting at tuple `index`, charging
    /// the device, with the data elided; returns the actual count read.
    pub fn read_block<B: StorageBackend>(
        &self,
        sm: &mut B,
        index: u64,
        count: u64,
    ) -> Result<u64, StorageError> {
        let n = count.min(self.card.saturating_sub(index));
        if n > 0 {
            self.fetch_block(sm, index, n, None)?;
        }
        Ok(n)
    }

    /// Reads a block like [`read_block`](Relation::read_block) — the same
    /// request, charged and counted the same — and returns its rows.
    ///
    /// The rows are decoded from the bytes the backend handed back when it
    /// holds a payload (a real file backend), at any column width: what the
    /// operator computes on is then what is in the file, whatever the
    /// generator would have produced. A backend without payload (the
    /// simulator) gets the block from the relation's generator, as
    /// [`block_rows`](Relation::block_rows) serves it.
    pub fn load_block<'a, B: StorageBackend>(
        &'a mut self,
        sm: &mut B,
        index: u64,
        count: u64,
        buf: &'a mut BlockBuf,
    ) -> Result<RowsView<'a>, StorageError> {
        let n = count.min(self.card.saturating_sub(index));
        if n == 0 {
            buf.rows.data.clear();
            return Ok(RowsView::empty());
        }
        if self.fetch_block(sm, index, n, Some(buf))? {
            Ok(buf.rows.as_view())
        } else {
            Ok(self.block_rows(index, n))
        }
    }

    /// Reads tuples `[index, index + n)` (`n > 0`, all within the relation)
    /// with [`load_block`](Relation::load_block)'s request into `buf`'s own
    /// rows — decoded from the payload, or copied from the generator — and
    /// hands them out to keep or sort in place; `None` when the request
    /// brought no rows (no payload, no generator).
    pub(crate) fn load_rows<'a, B: StorageBackend>(
        &mut self,
        sm: &mut B,
        index: u64,
        n: u64,
        buf: &'a mut BlockBuf,
    ) -> Result<Option<&'a mut RowBuf>, StorageError> {
        buf.rows.width = self.width.max(1) as usize;
        if !self.fetch_block(sm, index, n, Some(buf))? {
            let rows = self.block_rows(index, n);
            buf.rows.data.extend_from_slice(rows.as_slice());
        }
        Ok(Some(&mut buf.rows).filter(|rows| rows.len() as u64 == n))
    }

    /// A block's one request and the one payload-or-generator decision
    /// (see `load_block`): the read of the `n > 0` tuples at `index`, into
    /// `buf` and decoded there when it returns `true`, with the data elided
    /// where there is no `buf`; `false` leaves `buf` empty — the
    /// generator's block. Always inlined, so that the elided read of
    /// [`read_block`](Relation::read_block) is the request and nothing else.
    #[inline(always)]
    fn fetch_block<B: StorageBackend>(
        &self,
        sm: &mut B,
        index: u64,
        n: u64,
        mut buf: Option<&mut BlockBuf>,
    ) -> Result<bool, StorageError> {
        let len = (n * self.tuple_bytes) as usize;
        let bytes = buf.as_deref_mut().map(|buf| {
            buf.rows.data.clear();
            if buf.bytes.len() < len {
                buf.bytes.resize(len, 0);
            }
            &mut buf.bytes[..len]
        });
        let at = index * self.tuple_bytes;
        let holds_payload = sm.read(self.file, at, len as u64, 1, bytes)?;
        if let Some(buf) = buf.filter(|_| holds_payload) {
            buf.rows.width = self.width as usize;
            decode_cols(&buf.bytes[..len], self.col_bytes(), &mut buf.rows.data);
        }
        Ok(holds_payload)
    }

    /// Reads the whole relation front to back in blocks of `count > 0`
    /// tuples, charging the device: the request stream of calling
    /// [`read_block`](Relation::read_block) at `0, count, 2 * count, …`,
    /// issued as one run of the full blocks plus a read for the shorter
    /// last block, if any, with the data elided.
    pub fn read_scan<B: StorageBackend>(&self, sm: &mut B, count: u64) -> Result<(), StorageError> {
        let full = self.card / count;
        sm.read(self.file, 0, count * self.tuple_bytes, full, None)?;
        self.read_block(sm, full * count, count)?;
        Ok(())
    }

    /// The rows of a block (faithful mode), as a borrowed flat view.
    ///
    /// Streamed relations serve the view from their bounded cache window,
    /// regenerating it when the request falls outside — hence `&mut`.
    /// The request count is clamped to the relation end; virtual
    /// relations return an empty view.
    pub fn block_rows(&mut self, index: u64, count: u64) -> RowsView<'_> {
        let count = count.min(self.card.saturating_sub(index));
        match &mut self.source {
            RowSource::Virtual => RowsView::empty(),
            RowSource::Streamed { gen, cache } => cache.serve(gen, index, count),
        }
    }

    /// The rows of tuples `[index, index + count)` (`count > 0`, all within
    /// the relation) if the generator's cached window holds them: what
    /// [`block_rows`](Relation::block_rows) would serve without generating
    /// anything. `None` otherwise, and for a virtual relation.
    pub fn cached_rows(&self, index: u64, count: u64) -> Option<RowsView<'_>> {
        match &self.source {
            RowSource::Virtual => None,
            RowSource::Streamed { cache, .. } => cache.cached(index, count),
        }
    }

    /// Materializes the full relation as one flat batch (`None` for
    /// virtual relations). Oracle/test use only: allocates the whole
    /// relation.
    pub fn collect_rows(&self) -> Option<RowBuf> {
        match &self.source {
            RowSource::Virtual => None,
            RowSource::Streamed { gen, .. } => Some(gen.generate_all()),
        }
    }

    /// Resident row bytes this relation currently holds in host memory:
    /// the cache window of a generated relation, 0 for a virtual one.
    #[inline]
    pub fn resident_bytes(&self) -> u64 {
        match &self.source {
            RowSource::Virtual => 0,
            RowSource::Streamed { cache, .. } => cache.resident_bytes(),
        }
    }

    /// High-water mark of [`Relation::resident_bytes`] over this value's
    /// lifetime.
    pub fn peak_resident_bytes(&self) -> u64 {
        match &self.source {
            RowSource::Virtual => 0,
            RowSource::Streamed { cache, .. } => cache.peak_bytes,
        }
    }
}

/// A forward cursor over a relation's tuples, `b_in` to the block: the
/// input side of the streaming operators (merge pass, column zip, duplicate
/// removal) and of the external sort's merges, on every backend.
///
/// When its block runs dry the cursor issues **one** read for the next
/// `b_in` tuples — [`Relation::load_block`]'s request, under its
/// payload-or-generator rule — and keeps the rows: decoded from the file on
/// a backend that holds it (so a [`Relation::attach`]ed file works), copied
/// from the generator otherwise. Nothing above it knows which it was.
#[derive(Debug)]
pub struct BlockCursor {
    rel: Relation,
    block: BlockBuf,
    b_in: u64,
    /// The first tuple not read yet.
    next: u64,
    /// Rows in `block`, cached at refill ([`RowBuf::len`] divides, and
    /// `head` runs once or more per row).
    rows: usize,
    pos: usize,
}

impl BlockCursor {
    /// A cursor at the start of `rel`, reading `b_in > 0` tuples a request.
    pub fn new(rel: Relation, b_in: u64) -> BlockCursor {
        BlockCursor {
            rel,
            block: BlockBuf::default(),
            b_in,
            next: 0,
            rows: 0,
            pos: 0,
        }
    }

    /// Reads the next block if this one is exhausted and tuples remain on
    /// the device. `Ok(false)` means a request was issued and produced no
    /// rows: the backend holds no payload and the relation no generator.
    #[inline]
    pub fn ensure<B: StorageBackend>(&mut self, sm: &mut B) -> Result<bool, StorageError> {
        if self.pos < self.rows || self.next >= self.rel.card {
            return Ok(true);
        }
        let n = self.b_in.min(self.rel.card - self.next);
        let full = self
            .rel
            .load_rows(sm, self.next, n, &mut self.block)?
            .is_some();
        self.rows = self.block.rows.len();
        self.pos = 0;
        self.next += n;
        Ok(full)
    }

    /// Issues the request [`ensure`](BlockCursor::ensure) issues for the
    /// next block — charged and counted the same — with the data elided:
    /// the cursor moves past the block and holds no rows of it.
    pub fn elide<B: StorageBackend>(&mut self, sm: &mut B) -> Result<(), StorageError> {
        self.next += self.rel.read_block(sm, self.next, self.b_in)?;
        Ok(())
    }

    /// The row under the cursor (no I/O; call `ensure` first): `None` once
    /// the relation is exhausted.
    #[inline]
    pub fn head(&self) -> Option<&[i64]> {
        // Sliced here: `RowBuf::row` would be a call per row, the executor's
        // loops being instantiated in the crate that runs them.
        let (rows, w) = (&self.block.rows, self.block.rows.width);
        (self.pos < self.rows).then(|| &rows.data[self.pos * w..(self.pos + 1) * w])
    }

    /// Steps past the row under the cursor.
    #[inline]
    pub fn advance(&mut self) {
        self.pos += 1;
    }

    /// Steps past the next `rows` rows of the block, at most what
    /// [`rest`](BlockCursor::rest) holds: what a kernel took from it.
    #[inline]
    pub fn skip(&mut self, rows: usize) {
        debug_assert!(self.pos + rows <= self.rows, "past the block");
        self.pos += rows;
    }

    /// Columns per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.rel.width.max(1) as usize
    }

    /// The rows left in the block, row-major (no I/O; call `ensure` first):
    /// what a merge may take before this cursor is due again.
    #[inline]
    pub fn rest(&self) -> &[i64] {
        let w = self.block.rows.width;
        &self.block.rows.data[self.pos * w..self.rows * w]
    }

    /// Steps past every row left in the block: the next `ensure` refills it.
    #[inline]
    pub fn drain(&mut self) {
        self.pos = self.rows;
    }

    /// Resident tuple bytes: the block, plus the generator's window where
    /// the rows came from one.
    #[inline]
    pub fn resident_bytes(&self) -> u64 {
        self.rel.resident_bytes() + self.block.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocas_hierarchy::presets;
    use ocas_storage::StorageSim;
    use proptest::prelude::*;

    #[test]
    fn encode_decode_round_trip() {
        let rows: Vec<Row> = vec![vec![1, -2], vec![i64::MAX, i64::MIN], vec![0, 42]];
        let bytes: Vec<u8> = rows
            .iter()
            .flatten()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let buf = RowBuf::from_rows(&rows);
        assert_eq!(buf.encode(), bytes);
        assert_eq!(Layout::new(2, 8).decode(&bytes), buf);
        assert!(Layout::new(1, 8).decode(&[]).is_empty());
        // One byte a column: the low-order byte, read back zero-extended.
        let mut narrow = Vec::new();
        RowBuf::from_rows(&[vec![300], vec![-1], vec![7]]).encode_into(1, &mut narrow);
        assert_eq!(narrow, [44, 255, 7]);
        assert_eq!(Layout::new(1, 1).decode(&narrow).as_slice(), [44, 255, 7]);
    }

    #[test]
    fn rowbuf_sort_dedup_and_views() {
        let mut buf = RowBuf::from_rows(&[vec![3, 1], vec![1, 2], vec![3, 1], vec![1, 0]]);
        buf.sort();
        assert_eq!(
            buf.to_rows(),
            vec![vec![1, 0], vec![1, 2], vec![3, 1], vec![3, 1]]
        );
        assert!(buf.is_sorted());
        buf.dedup();
        assert_eq!(buf.to_rows(), vec![vec![1, 0], vec![1, 2], vec![3, 1]]);
        let v = buf.view(1, 5);
        assert_eq!(v.len(), 2);
        assert_eq!(v.row(0), &[1, 2]);
        let mut out = RowBuf::new(2);
        out.extend_view(v);
        assert_eq!(out.len(), 2);
        let mut joined = RowBuf::new(4);
        joined.push_concat(&[1, 2], &[3, 4]);
        assert_eq!(joined.row(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn create_and_read_blocks() {
        let h = presets::hdd_ram(1 << 25);
        let mut sm = StorageSim::from_hierarchy(&h);
        let spec = RelSpec::pairs("R", "HDD", 1000);
        let mut r = Relation::create(&mut sm, &spec, true, 42).unwrap();
        assert_eq!(r.bytes(), 16_000);
        assert!(r.collect_rows().is_some());
        assert_eq!(r.collect_rows().unwrap().len(), 1000);
        let n = r.read_block(&mut sm, 990, 100).unwrap();
        assert_eq!(n, 10, "clamped at the end");
        assert!(sm.clock() > 0.0);
        assert_eq!(r.block_rows(0, 3).len(), 3);
        assert_eq!(r.block_rows(995, 100).len(), 5, "views clamp too");
    }

    #[test]
    fn sorted_generation() {
        let h = presets::hdd_ram(1 << 25);
        let mut sm = StorageSim::from_hierarchy(&h);
        let spec = RelSpec::ints("L", "HDD", 500).sorted();
        let r = Relation::create(&mut sm, &spec, true, 7).unwrap();
        assert!(r.collect_rows().unwrap().is_sorted());
    }

    #[test]
    fn deterministic_for_seed() {
        let h = presets::hdd_ram(1 << 25);
        let mut sm = StorageSim::from_hierarchy(&h);
        let spec = RelSpec::pairs("R", "HDD", 100);
        let a = Relation::create(&mut sm, &spec, true, 9).unwrap();
        let b = Relation::create(&mut sm, &spec, true, 9).unwrap();
        assert_eq!(a.collect_rows(), b.collect_rows());
    }

    #[test]
    fn virtual_relation_has_no_rows() {
        let h = presets::hdd_ram(1 << 25);
        let mut sm = StorageSim::from_hierarchy(&h);
        let spec = RelSpec::pairs("R", "HDD", 1 << 20);
        let mut r = Relation::create(&mut sm, &spec, false, 0).unwrap();
        assert!(r.collect_rows().is_none());
        assert!(r.collect_rows().is_none());
        assert!(r.block_rows(0, 10).is_empty());
    }

    /// The headline key-range regression: `RelSpec::key_range` documents
    /// the **half-open** contract `0..key_range`; every generated value
    /// must be strictly below it (the inclusive off-by-one skewed the
    /// generator's own documented distribution, and with it every
    /// selectivity the cost model derives from `1 / key_range`). The
    /// relation's blocks are these rows (the proptest below).
    #[test]
    fn generated_keys_stay_strictly_below_key_range() {
        let h = presets::hdd_ram(1 << 25);
        let mut sm = StorageSim::from_hierarchy(&h);
        for (range, card) in [(7u64, 5000u64), (1, 500), (40, 2000)] {
            let spec = RelSpec::pairs("R", "HDD", card).with_key_range(range);
            let rel = Relation::create(&mut sm, &spec, true, 3).unwrap();
            let rows = rel.collect_rows().unwrap();
            assert!(
                rows.as_slice()
                    .iter()
                    .all(|v| (0..range as i64).contains(v)),
                "a value escaped 0..{range}"
            );
            // With enough draws, the top key must actually occur — the
            // range is exactly `key_range` values, not one fewer.
            if range > 1 && card >= 1000 {
                assert!(
                    rows.as_slice().contains(&(range as i64 - 1)),
                    "top key {} never drawn",
                    range - 1
                );
            }
        }
        // key_range = 0 means "same as card".
        let spec = RelSpec::ints("L", "HDD", 300);
        let rel = Relation::create(&mut sm, &spec, true, 5).unwrap();
        let rows = rel.collect_rows().unwrap();
        assert!(rows.as_slice().iter().all(|v| (0..300).contains(v)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// A relation's block sequence concatenates to exactly the whole
        /// relation drawn at once (`RowGen::generate_all`, the eager
        /// semantics: every draw, then sorted if the spec is) — same seed,
        /// same bytes — across widths, sortedness, key ranges,
        /// cardinalities, cache budgets and access block sizes, including
        /// the order-preserving sorted path.
        ///
        /// Key ranges: below 90, where every bucket holds one value;
        /// 4097..2^24, non-powers of two and powers of two, where a bucket
        /// holds several and a window cuts its buckets into groups; 2^52 and
        /// up, where `bucket_of`'s product leaves `u64`; and next to
        /// `i64::MAX`. Half the budgets force three or more windows.
        #[test]
        fn streamed_blocks_concatenate_to_the_materialized_oracle(
            card in 0u64..700,
            width in 1u32..4,
            (range_class, range_draw) in (0u8..5, 0u64..u64::MAX),
            sorted_sel in 0u8..2,
            seed in 0u64..10_000,
            (budget_tuples, few_windows) in (1u64..128, 0u8..2),
            block in 1u64..96,
            col_bytes in 1u32..9,
        ) {
            let key_range = match range_class {
                0 => range_draw % 90,
                1 => 4097 + range_draw % ((1 << 24) - 4097),
                2 => 1 << (13 + range_draw % 12),
                3 => (1 << 52) + range_draw % ((1 << 62) - (1 << 52)),
                _ => i64::MAX as u64 - range_draw % 1024,
            };
            let budget_tuples = if few_windows == 1 {
                budget_tuples.min((card / 3).max(1))
            } else {
                budget_tuples
            };
            let sorted = sorted_sel == 1;
            let h = presets::hdd_ram(1 << 25);
            let mut sm = StorageSim::from_hierarchy(&h);
            let mut spec = RelSpec::pairs("R", "HDD", card)
                .with_key_range(key_range)
                .with_cache_bytes(budget_tuples * u64::from(width) * 8);
            spec.width = width;
            spec.sorted = sorted;
            spec.col_bytes = col_bytes;
            let oracle = RowGen::from_spec(&spec, seed).generate_all();
            let mut streamed = Relation::create(&mut sm, &spec, true, seed).unwrap();
            // Forward block scan concatenates to the oracle...
            let mut concat = RowBuf::new(width.max(1) as usize);
            let mut at = 0u64;
            while at < card {
                let v = streamed.block_rows(at, block);
                prop_assert!(!v.is_empty());
                concat.extend_view(v);
                at += block.min(card - at);
            }
            prop_assert_eq!(&concat, &oracle);
            // Per-block on-disk encodes (the creation path) concatenate to
            // the whole-relation encode, at every column width.
            let cb = col_bytes as usize;
            let mut whole = Vec::new();
            oracle.encode_into(cb, &mut whole);
            let mut blockwise = Vec::new();
            let mut at = 0u64;
            while at < card {
                let take = block.min(card - at);
                encode_cols(streamed.block_rows(at, take).as_slice(), cb, &mut blockwise);
                at += take;
            }
            prop_assert_eq!(&blockwise, &whole);
            // ...and random re-reads agree with the same oracle slice
            // (regeneration is deterministic).
            for probe in 0..8u64 {
                let i = if card == 0 { 0 } else { (probe * 131) % card };
                let n = block.min(card.saturating_sub(i));
                prop_assert_eq!(
                    streamed.block_rows(i, block).as_slice(),
                    oracle.view(i as usize, n as usize).as_slice()
                );
            }
        }
    }

    /// Width-1 sorted windows at the sizes where the kernel's groups matter
    /// (the proptest's relations are too small for a draw to land on a
    /// group bound): many values a bucket and many draws a value, so group
    /// bounds are hit; dense enough that a group is cut by its draw count
    /// rather than its value span; and buckets wider than a group, each
    /// radix-sorted in five passes. Every window is the oracle's slice.
    #[test]
    fn sorted_width1_windows_cut_into_groups_match_the_oracle() {
        let h = presets::hdd_ram(1 << 25);
        for (card, key_range) in [(120_000u64, 61_447u64), (150_000, 9_000), (60_000, 1 << 40)] {
            let mut sm = StorageSim::from_hierarchy(&h);
            let spec = RelSpec::ints("L", "HDD", card)
                .sorted()
                .with_key_range(key_range)
                .with_cache_bytes(40_000 * 8);
            let mut rel = Relation::create(&mut sm, &spec, true, 4).unwrap();
            let oracle = rel.collect_rows().unwrap();
            let mut seen = RowBuf::new(1);
            while (seen.len() as u64) < card {
                seen.extend_view(rel.block_rows(seen.len() as u64, 4096));
            }
            assert_eq!(seen, oracle, "key_range={key_range}");
        }
    }

    /// A forward scan over a streamed relation keeps the resident window
    /// bounded by the configured budget (+ the requested block), far
    /// below the relation size.
    #[test]
    fn streamed_scan_stays_within_the_cache_budget() {
        let h = presets::hdd_ram(1 << 25);
        let mut sm = StorageSim::from_hierarchy(&h);
        let budget = 4 * 1024u64; // bytes = 512 tuples of width 1
        for sorted in [false, true] {
            let mut spec = RelSpec::ints("L", "HDD", 100_000)
                .with_key_range(5_000)
                .with_cache_bytes(budget);
            spec.sorted = sorted;
            let mut rel = Relation::create(&mut sm, &spec, true, 2).unwrap();
            let mut at = 0u64;
            while at < rel.card {
                let n = rel.block_rows(at, 128).len() as u64;
                at += n;
            }
            let peak = rel.peak_resident_bytes();
            // Sorted windows are bucket-aligned and may overshoot by a
            // bucket; either way the window stays a small fraction of the
            // 800 KB relation.
            assert!(
                peak <= 4 * budget,
                "sorted={sorted}: peak {peak} vs budget {budget}"
            );
        }
    }

    /// The PR 5 caveat, fixed: a width-1 sorted relation whose first
    /// column has huge multiplicity (few distinct values, so one bucket
    /// holds a large share of all tuples) must still honor the cache
    /// budget — single-value buckets are sliced on the budget grid
    /// instead of being regenerated whole.
    #[test]
    fn sorted_width1_huge_multiplicity_honors_the_cache_budget() {
        let h = presets::hdd_ram(1 << 25);
        let budget = 4 * 1024u64; // bytes = 512 tuples of width 1
        for key_range in [1u64, 3] {
            let mut sm = StorageSim::from_hierarchy(&h);
            let mut spec = RelSpec::ints("L", "HDD", 100_000)
                .with_key_range(key_range)
                .with_cache_bytes(budget);
            spec.sorted = true;
            let mut rel = Relation::create(&mut sm, &spec, true, 2).unwrap();
            let oracle = rel.collect_rows().unwrap();
            let mut at = 0u64;
            let mut seen = RowBuf::new(oracle.width());
            while at < rel.card {
                let view = rel.block_rows(at, 128);
                let n = view.len() as u64;
                seen.extend_view(view);
                at += n;
            }
            assert_eq!(seen, oracle, "key_range={key_range}: stream != oracle");
            let peak = rel.peak_resident_bytes();
            // Before the fast path the first window was the whole bucket:
            // up to the full 800 KB relation. Now it stays within a small
            // multiple of the 4 KB budget.
            assert!(
                peak <= 4 * budget,
                "key_range={key_range}: peak {peak} vs budget {budget}"
            );
        }
    }
}
