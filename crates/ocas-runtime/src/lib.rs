//! # ocas-runtime — the real-I/O execution backend
//!
//! The paper validates synthesized algorithms by running generated programs
//! on real hardware. This crate closes the reproduction's corresponding
//! gap: it executes `ocas-engine` plans against **actual files on disk**
//! instead of the device simulator, so wall-clock numbers exist next to
//! simulated seconds, and correctness is checked three ways —
//!
//! > OCAL reference interpreter ≡ simulator faithful mode ≡ real files.
//!
//! Three layers:
//!
//! * [`BufferPool`] — a page-granular cache over one backing file: LRU
//!   eviction, dirty-page write-back, per-page checksums.
//! * [`FileBackend`] — the [`ocas_storage::StorageBackend`] implementation:
//!   one sparse temp file per hierarchy device, bump-allocated extents
//!   (the simulator's allocator, re-enacted on disk), per-device I/O
//!   counters mirroring [`ocas_storage::DeviceStats`], wall-clock charging.
//!   It injects no faults itself: a faulted real run wraps it in
//!   [`ocas_storage::Faulted`], the injector the simulator runs under.
//! * [`Runtime`] — the entry point that runs a plan for real: every
//!   template, the external merge sort's spilled runs and the GRACE join's
//!   spilled buckets included, through the engine's executor over block
//!   cursors — the code its simulated twin runs — with peak resident tuple
//!   memory metered, returning a [`RealReport`] with both. The simulated
//!   twin of [`Runtime::run_plan`] runs at the same time as the real run,
//!   on a long-lived worker thread of the calling thread's own, over the
//!   same shared generators.
//!   [`Runtime::execute`] runs a plan on any backend, `Faulted` ones
//!   included, and rolls a failed run back.
//!   [`TimingMode::DiskBounded`] bounds wall-clock by the disk (fsync +
//!   `O_DIRECT` where available) instead of the kernel page cache.
//!
//! When is which mode authoritative? The **simulator** for paper-scale
//! claims (terabyte workloads, exact modeled devices); the **real backend**
//! for grounding — that a synthesized plan, run against actual bytes,
//! produces exactly the answer the specification's interpreter defines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod pool;
pub mod runtime;

pub use backend::{FileBackend, PoolConfig, TimingMode};
pub use pool::{BufferPool, PolicyKind, PoolStats};
pub use runtime::{RealReport, Runtime, RuntimeError};
