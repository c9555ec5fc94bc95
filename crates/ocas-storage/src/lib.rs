//! Simulated storage devices for the OCAS execution engine.
//!
//! The paper evaluates generated C programs on a real machine (1 TB WD hard
//! disk, Apple SSD, Intel CPU cache). This crate is the reproduction's
//! substitute (see DESIGN.md §1): device simulators that enact exactly the
//! I/O requests an algorithm issues and charge simulated time from the same
//! constants the cost model uses (Figure 7). Because the simulator tracks
//! *positional state* — the disk head, flash erase blocks, cache lines — it
//! reproduces the phenomena the paper's experiments rely on:
//!
//! * sequential vs. random hard-disk access (seek iff the head moved),
//! * read/write interference when input and output share a disk,
//! * erase-before-write on flash (one erase per touched erase block),
//! * cache misses under tiled vs. untiled access streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod device;
pub mod fault;
pub mod manager;

pub use backend::StorageBackend;
pub use cache::{CacheSim, CacheStats};
pub use device::{DeviceSim, DeviceStats, FlashSim, HddSim, RamSim};
pub use fault::{FaultKind, FaultOp, FaultPlan, FaultSpec, Faulted, RecoveryCounters, RetryPolicy};
pub use manager::{FileId, StorageError, StorageSim};
