//! The out-of-core execution engine.
//!
//! This crate *runs* synthesized algorithms against the simulated storage
//! hierarchy of [`ocas_storage`], producing the "actual running time"
//! column of the paper's Table 1 in simulated seconds. Two modes:
//!
//! * **Faithful** — relations carry real rows; plans execute the real
//!   algorithm end-to-end and their outputs are validated against the OCAL
//!   reference interpreter in the test suite. Used at small scale.
//! * **Simulated** — relations are cardinality + width only; every I/O
//!   request is still accounted by the device simulators (so seeks, erase
//!   blocks and read/write interference are enacted exactly), while the
//!   in-memory work is accounted through the CPU model. Used at the
//!   paper's multi-gigabyte scales. It is the faithful schedule with the
//!   data elided: every template is one loop issuing the same requests in
//!   both modes, and where a request brings no rows back an oracle for
//!   uniform keys stands in for what the data decides — the expected
//!   matches of a block pair or a GRACE co-bucket pair, a zip's block of
//!   rows, the expected distinct count spread over the blocks, a merge's
//!   expected output and the cursor it refills next, the rows each GRACE
//!   bucket gets. The spill layout (runs, bucket extents) is the same in
//!   both modes.
//!
//! **One request, with or without its data.** Every transfer the engine
//! issues is one [`StorageBackend::read`](ocas_storage::StorageBackend::read)
//! or [`StorageBackend::write`](ocas_storage::StorageBackend::write): a run
//! of `count` requests of `unit` bytes laid end to end (a single request is
//! a run of one) that carries its bytes in faithful mode and elides them in
//! simulated mode. Both modes issue the same requests in the same order;
//! only the bytes are left out.
//!
//! **Runs in simulated mode.** The cost of simulating a plan must not grow
//! with how finely the plan slices a sequential scan — the paper's cost
//! model charges the scan by what the device does, and the worst candidates
//! are exactly the ones that block their loops badly. So where the executor
//! can prove that a whole pass is nothing but a scan, it issues the pass as
//! one run instead of one call per block: the inner pass of a simulated
//! block-nested-loops join whenever the output sink cannot flush before the
//! pass ends (always for `Output::Discard`; for `Output::ToDevice` when the
//! rows the pass emits still fit the output buffer), and every full block
//! of a simulated aggregate. Emitted rows for such a pass are taken in
//! closed form (the emission recurrence in fixed point when that is exact,
//! replayed without touching the device when it is not), and the simulator
//! answers the run with the same clock, counters and head position as the
//! loop, to the last bit. Everything else keeps the per-request loop,
//! because there the request *order* is the experiment: a pass during
//! which the sink flushes interleaves writes with the reads (the paper's
//! read/write interference rows). A parity test holds the two paths
//! bit-equal. The sink's flushes are runs too, without changing the order:
//! the whole buffers one emission fills go out as one write run, split
//! where the sink's 1 GiB extent wraps, carrying their bytes in faithful
//! mode, and the simulator charges it with the loop's sums.
//!
//! **Block cursors.** Every faithful operator reads its rows with one read
//! carrying its bytes per block — charged, counted and faulted exactly like
//! the read simulated mode issues with them elided. One function in
//! `rel.rs` asks whether the backend handed the bytes back, and it is the
//! only place that does: if so (real files, at any column width) the block
//! is decoded from those bytes — the operator computes on what it read, a
//! [`Relation::attach`]ed file needs no generator, and a twin comparison
//! can fail because of what is in a file — else (the simulator) it is the
//! relation's generator's. The nested-loops join takes whole blocks
//! ([`Relation::load_block`]); the aggregation issues the same block
//! requests as runs of at most one device page, which the file backend
//! serves from its read-ahead window with one copy and the simulator
//! answers whole — still counted, faulted and (on files) traced request by
//! request; merge pass, column zip and duplicate removal pull rows through
//! one [`BlockCursor`] per input, refilled when its block is exhausted, and
//! that loop is their only implementation, on the simulator and on real
//! files; simulated mode issues the same cursor requests with the data
//! elided ([`BlockCursor::elide`]).
//!
//! **Tuple codec.** Every file the engine writes and reads back — a
//! relation's, a spilled run or bucket, an output — holds its rows in one
//! format, a [`Layout`]: each column as its 1 to 8 low-order little-endian
//! bytes. Nothing else maps columns to bytes, so every template follows
//! its files at every column width.
//!
//! **External sort.** The faithful sort is the out-of-core algorithm
//! itself, on every backend: sorted runs of `fan_in * b_in + b_out` tuples
//! spilled to the scratch device through `SpillAlloc` (which shrinks a
//! run, or fails over to the backend's
//! [`spill_fallback`](ocas_storage::StorageBackend::spill_fallback)
//! device, when the scratch device is full), then merged `fan_in` at a time
//! through one [`BlockCursor`] per run file, the last pass writing the
//! output. The runs come back from whichever backend was given them — a
//! real file, or the simulator, which keeps what a data write carries — so
//! the simulator twin issues the real run's requests and merges the same
//! runs. Both modes count the model's comparisons: ⌈log_fan_in n⌉ merge
//! levels over singleton runs. A width-1 run is sorted and encoded into its
//! bytes by one kernel (`sort_kernel`, [`RowBuf::sort_encode`]): a bucket
//! pass writes each key's encoding straight into the run's byte buffer,
//! then each bucket is radix sorted in cache — the crate's one radix sort,
//! shared with the sorted generation window.
//!
//! **GRACE join.** So is the faithful GRACE join: both inputs hashed into
//! buckets, each a stream of page-aligned extents of its own on the spill
//! device (`SpillAlloc`), then, bucket by bucket, the build side indexed
//! by key and the probe side probed an extent at a time — over the buckets
//! the backend hands back, so the twin issues the real run's requests too.
//! A loaded block's bucket ids are computed in one hash pass
//! ([`ocal::stable_hash_int`]) before its rows are staged, and the join's
//! pairs reach the sink a probe batch at a time, cut where the output
//! buffer flushes.
//!
//! **Faithful pair loop.** A faithful block-nested-loops join compares every
//! tuple of the resident outer block with every tuple of the inner block
//! streaming past it, and the plan the synthesizer tunes gives all of RAM
//! to the outer block and streams the inner relation a tuple at a time —
//! so a literal row-major pair loop would spend its time setting up inner
//! loops of length one. Instead the executor runs the block hash join its
//! CPU model charges, over the index the GRACE join builds (`key_index`):
//! each outer tile of the resident block is indexed once, when the block is
//! read, and each inner row of a tile pair probes its outer tile's index.
//! The matches reach the sink through the call the GRACE join emits
//! through, a strip of outer rows at a time: each inner row's chain resumes
//! where the last strip stopped, and a strip's pairs are sorted into the
//! nested loop's order (outer row, then inner row) before they are emitted,
//! so the output is row for row what the OCAL interpreter produces for the
//! same loop nest. The probe loop is non-generic, cannot fail and is
//! compiled once into this crate. And everything the models see is still
//! the nested loop's: [`ExecStats::compares`] counts the pairs the
//! synthesized loops range over, the cache simulator is fed one outer-tuple
//! access and one inner-tile sweep per outer row of every tile pair, peak
//! residency counts tuple bytes (the index is kernel scratch), and block
//! reads, emits and sink flushes happen in the same order — the simulated
//! clocks, Table 1 and the cache-miss experiment do not move. The CPU
//! model is charged for what the join does, the same count in both modes:
//! a build of the resident outer block, amortized over the inner blocks,
//! and one probe per inner tuple. A cross product emits every pair of a
//! strip through the same call; the literal pair loop survives as the test
//! oracle the join is held to (`tests/literal/mod.rs`).
//!
//! **Merge kernel.** The k-way merge of the external sort is a batch
//! kernel too ([`MergeHeads`], `merge_kernel`): the head key of every run's
//! buffered piece is cached in one small array, and one call moves a whole
//! output batch — by a branch-free minimum scan over the cached keys up to
//! 16 runs (every fan-in a committed plan uses), by a loser tree over the
//! same keys above that. Rows are only compared when keys tie, a full tie
//! goes to the lower run (the merge is stable, so which cursor advances —
//! and with it the request order — is that of the literal merge), and a
//! run without a buffered row reads `i64::MAX`, a tie on which is settled
//! on liveness. The call returns as soon as the run that just advanced is
//! out of buffered rows: refilling it is the caller's I/O, and happens
//! after the caller has flushed a batch the same row completed. Like the
//! join's probe loop it is non-generic, cannot fail, and is compiled once
//! into this crate; `tests/merge_throughput.rs` gates it against the
//! literal loser-tree loop (at least 1.3x at 8 runs, no slower at 2 and at
//! 32), and the literal loop survives as the test oracle
//! (`tests/literal/mod.rs`, whose loser tree both use).
//!
//! **Streaming kernels.** Merge pass (all five kinds), column zip and
//! duplicate removal move a batch per call too (`stream_kernel`): between
//! two cursor refills or two sink flushes, one call takes every step of the
//! template's loop over the cursors' buffered rows ([`BlockCursor::rest`])
//! and appends what they emit to a plain `Vec`, which the sink then takes
//! whole. A call stops right after the step that uses up an input's block
//! or emits the row that fills the output buffer, so every request, flush
//! offset, comparison count, digest and peak is the per-row loop's; the
//! caller notes the resident bytes the loop would have noted before or
//! after the call's last step. Rows of one column (and the merge's pairs)
//! get instantiations of their own, the unary union's pick and the
//! duplicate test are branch-free, and nothing in them is generic over a
//! backend or can fail. `tests/stream_throughput.rs` gates them against
//! the per-row loops (at least 1.5x together at `real-stream`'s sizes), and
//! the loops survive in `tests/literal/mod.rs` as the oracles of
//! `streaming_kernels_equal_their_literal_loops`.
//!
//! **Sorted windows.** A sorted relation's generator rebuilds a window of
//! ranks by drawing its whole stream again. For unary lists the draws it
//! keeps go straight into groups of value buckets whose sizes the generator
//! counted up front, and each group is radix-sorted in cache
//! (`sorted_window`): no comparison sort, and scratch of one group rather
//! than a second window. It too is non-generic and compiled once;
//! `tests/window_throughput.rs` gates it against the literal filter and
//! sort (at least 1.5x on a 2^20-tuple window), which survives there as the
//! oracle.
//!
//! The CPU model is what the paper's estimator deliberately ignores (§7.3:
//! "OCAS does not currently model computation costs … underestimation grows
//! the more CPU intensive a task is"); enabling it in the engine while the
//! estimator stays I/O-only reproduces Figure 8's growing gap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
mod key_index;
#[cfg(test)]
#[path = "../tests/literal/mod.rs"]
mod literal;
pub mod lower;
mod merge_kernel;
#[cfg(test)]
#[path = "../tests/merge_oracle/mod.rs"]
mod merge_oracle;
pub mod plan;
#[cfg(test)]
#[path = "../tests/recording/mod.rs"]
mod recording;
pub mod rel;
mod sort_kernel;
mod sorted_window;
mod spill;
mod stream_kernel;

pub use exec::{ExecError, ExecStats, Executor};
pub use lower::{lower, LowerError, WorkloadHint};
pub use merge_kernel::{MergeHeads, MergeStop};
pub use plan::{CpuModel, JoinPred, MergeKind, Mode, Output, Plan, Tiling};
pub use rel::{
    BlockBuf, BlockCursor, Layout, RelSpec, Relation, Row, RowBuf, RowGen, RowsView,
    DEFAULT_CACHE_BYTES,
};
