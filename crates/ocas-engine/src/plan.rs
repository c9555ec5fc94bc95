//! Physical plans: the algorithm templates the synthesizer's outputs lower
//! into, each executable both faithfully (real rows) and at scale
//! (simulated rows, exact I/O).

use crate::exec::ExecError;

/// Where a plan's output goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// Consumed by the CPU (the paper's "no write-out" experiments).
    Discard,
    /// Written to the named device through an output buffer of the given
    /// number of bytes.
    ToDevice {
        /// Device (hierarchy node) name.
        device: String,
        /// Output buffer in bytes (`b_out`).
        buffer_bytes: u64,
    },
}

/// Join predicate of the nested-loops / hash templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPred {
    /// Equality on the first column.
    KeyEq,
    /// Constant `true` — a relational product (the paper's write-out
    /// experiments use this).
    Cross,
}

/// The merge-based binary operators of Table 1 rows 8–12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeKind {
    /// Union of sets represented as sorted unique lists.
    SetUnion,
    /// Union of multisets as sorted lists (keeps duplicates).
    MultisetUnionSorted,
    /// Union of multisets as sorted value–multiplicity pairs.
    MultisetUnionVm,
    /// Difference of multisets as sorted lists.
    MultisetDiffSorted,
    /// Difference of multisets as value–multiplicity pairs.
    MultisetDiffVm,
}

/// Execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Real rows, exact outputs (small scale): every request brings its
    /// block's rows back and the template's kernel computes on them.
    Faithful,
    /// The same schedule with the data elided (paper scale): every template
    /// issues the faithful requests, which bring no rows; an oracle for
    /// uniform keys stands in for what the data decides (expected matches
    /// and distinct counts, the cursor a merge refills next, the rows a
    /// GRACE bucket gets), and the CPU is modeled.
    Simulated,
}

/// The engine's CPU model — the term the paper's estimator omits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Seconds per tuple comparison (join predicates, merge steps).
    pub per_compare: f64,
    /// Seconds per emitted/copied tuple.
    pub per_emit: f64,
    /// Seconds per hash computation.
    pub per_hash: f64,
    /// Globally enables/disables CPU charging.
    pub enabled: bool,
}

impl Default for CpuModel {
    fn default() -> CpuModel {
        CpuModel {
            per_compare: 1.2e-9,
            per_emit: 6.0e-9,
            per_hash: 4.0e-9,
            enabled: true,
        }
    }
}

impl CpuModel {
    /// A disabled model (pure I/O accounting).
    pub fn disabled() -> CpuModel {
        CpuModel {
            enabled: false,
            ..CpuModel::default()
        }
    }
}

/// Cache-tiling configuration for the in-memory join loops ("BNL with
/// cache", loop tiling for the Cache level of the hierarchy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    /// Outer tile in tuples (`k3`).
    pub outer: u64,
    /// Inner tile in tuples (`k4`).
    pub inner: u64,
}

/// A physical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Block Nested Loops join. `outer`/`inner` index into the executor's
    /// relation table; blocks are in tuples.
    BnlJoin {
        /// Outer relation index.
        outer: usize,
        /// Inner relation index.
        inner: usize,
        /// Outer block size `k1` (tuples).
        k1: u64,
        /// Inner block size `k2` (tuples).
        k2: u64,
        /// Optional cache tiling of the in-memory loops.
        tiling: Option<Tiling>,
        /// Join predicate.
        pred: JoinPred,
        /// Whether to put the smaller relation outside (order-inputs).
        order_inputs: bool,
        /// Output destination.
        output: Output,
    },
    /// GRACE hash join: partition both sides to the spill device, then join
    /// co-buckets in memory.
    GraceJoin {
        /// Left relation index.
        left: usize,
        /// Right relation index.
        right: usize,
        /// Number of partitions `s`.
        partitions: u64,
        /// Streaming buffer (bytes) for the partition pass.
        buffer_bytes: u64,
        /// Device for partition spill.
        spill: String,
        /// Join predicate (must be `KeyEq` for correctness).
        pred: JoinPred,
        /// Output destination.
        output: Output,
    },
    /// 2ᵏ-way external merge sort of a unary relation.
    ExternalSort {
        /// Input relation index.
        input: usize,
        /// Merge fan-in (2ᵏ).
        fan_in: u64,
        /// Input buffer per run, in tuples (`b_in`).
        b_in: u64,
        /// Output buffer in tuples (`b_out`).
        b_out: u64,
        /// Scratch device for runs.
        scratch: String,
        /// Output destination.
        output: Output,
    },
    /// One merging pass over two sorted relations.
    MergePass {
        /// Left relation index.
        left: usize,
        /// Right relation index.
        right: usize,
        /// Operator.
        kind: MergeKind,
        /// Input buffer per side, in tuples.
        b_in: u64,
        /// Output destination.
        output: Output,
    },
    /// Column-store read: zip `n` unary columns into rows.
    ColumnZip {
        /// Column relation indices.
        columns: Vec<usize>,
        /// Input buffer per column, in tuples.
        b_in: u64,
        /// Output destination.
        output: Output,
    },
    /// Duplicate removal from a sorted relation.
    DedupSorted {
        /// Input relation index.
        input: usize,
        /// Input buffer in tuples.
        b_in: u64,
        /// Output destination.
        output: Output,
    },
    /// Streaming aggregation (`avg`) over a unary relation.
    Aggregate {
        /// Input relation index.
        input: usize,
        /// Input buffer in tuples.
        b_in: u64,
    },
}

impl Plan {
    /// Human-readable operator name.
    pub fn name(&self) -> &'static str {
        match self {
            Plan::BnlJoin { .. } => "bnl-join",
            Plan::GraceJoin { .. } => "grace-join",
            Plan::ExternalSort { .. } => "external-sort",
            Plan::MergePass { .. } => "merge-pass",
            Plan::ColumnZip { .. } => "column-zip",
            Plan::DedupSorted { .. } => "dedup-sorted",
            Plan::Aggregate { .. } => "aggregate",
        }
    }

    /// Rejects a plan whose parameters no execution can honour — a zero
    /// block, buffer or partition count, a fan-in below two — before it
    /// issues a request. The one parameter check of every route:
    /// [`Executor::run`](crate::Executor::run) calls it, and every route to
    /// real files runs through that.
    pub fn validate(&self) -> Result<(), ExecError> {
        let bad = match self {
            Plan::BnlJoin { k1, k2, .. } if *k1 == 0 || *k2 == 0 => "zero block size",
            Plan::GraceJoin { partitions: 0, .. } => "zero partitions",
            Plan::ExternalSort { fan_in, .. } if *fan_in < 2 => "fan-in must be >= 2",
            Plan::ExternalSort { b_in, b_out, .. } if *b_in == 0 || *b_out == 0 => {
                "zero sort buffer"
            }
            Plan::MergePass { b_in: 0, .. } => "zero merge buffer",
            Plan::ColumnZip { columns, b_in, .. } if columns.is_empty() || *b_in == 0 => {
                "columns/b_in"
            }
            Plan::DedupSorted { b_in: 0, .. } => "zero dedup buffer",
            Plan::Aggregate { b_in: 0, .. } => "zero aggregate buffer",
            _ => return Ok(()),
        };
        Err(ExecError::BadParameter(bad))
    }

    /// Where the plan's rows go (an aggregate's one row is consumed by the
    /// CPU).
    pub fn output(&self) -> &Output {
        match self {
            Plan::BnlJoin { output, .. }
            | Plan::GraceJoin { output, .. }
            | Plan::ExternalSort { output, .. }
            | Plan::MergePass { output, .. }
            | Plan::ColumnZip { output, .. }
            | Plan::DedupSorted { output, .. } => output,
            Plan::Aggregate { .. } => &Output::Discard,
        }
    }
}
