//! Spill streams: allocation that degrades instead of failing a run, and
//! the page-aligned extents a GRACE bucket is written to.
//!
//! # What a spill stream costs
//!
//! The paper charges one `InitCom` per non-contiguous request and prices a
//! GRACE flush as a seek *to that bucket's partition file*; a spill stream
//! here is laid out, and read back, the way it was written.
//!
//! * **Who owns an extent.** A GRACE bucket is a stream with extents of its
//!   own: the partition pass appends a bucket's flushes to extents reserved
//!   for that bucket ([`SpillAlloc::append_to_stream`]),
//!   [`PARTITION_EXTENT_PAGES`] device pages at a time and never less than one
//!   staging buffer, whole pages from a page boundary — so no two buckets
//!   share a page, and the join pass reads each extent's filled prefix with
//!   one request. A reservation that does not fit halves down to one staging
//!   buffer's pages, then fails over; the runtime truncates everything on
//!   error.
//! * **What is still page-at-a-time.** The writes: a flush shorter than a
//!   page goes through a pool frame on real files, and the pool writes back
//!   and checksums every partition page on eviction — which is also why a
//!   torn partition page still surfaces as `CorruptPage` on the bucket read
//!   that reaches it.
//!
//! Both executor modes lay their spills out here. A write carries the
//! tuples' bytes, or where simulated mode elides the data their length
//! alone, which places and charges the same request.

use crate::rel::encode_cols;
use ocas_storage::{FileId, StorageBackend, StorageError};

/// Allocates a spill stream's extents on one device and, when that device
/// runs out of space, degrades gracefully instead of failing the run:
/// extents shrink by halving where the caller can live with smaller pieces,
/// and once even the smallest extents no longer fit the allocator fails over
/// (once) to the backend's [`spill_fallback`](StorageBackend::spill_fallback)
/// device. Every degradation is recorded with
/// [`note_degradation`](StorageBackend::note_degradation), so it lands in the
/// recovery counters and the obs `degrade:*` tracks.
///
/// The external sort's runs are its spills ([`SpillAlloc::spill_rows`]), and
/// so are the GRACE join's bucket extents ([`SpillAlloc::append_to_stream`]).
#[derive(Debug)]
pub struct SpillAlloc {
    device: String,
    fallback: Option<String>,
    failed_over: bool,
}

/// Device pages a spill stream reserves at a time. Large enough that reading
/// a bucket back is a few long requests instead of one per staging buffer,
/// small enough that a bucket that never fills one wastes little of the
/// device: the GRACE window measured flat (0.164-0.172 s) from 4 to 64.
const PARTITION_EXTENT_PAGES: u64 = 16;

/// One reserved piece of a spill stream: the first `filled` of its `cap`
/// bytes hold tuples, appended in arrival order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extent {
    pub(crate) file: FileId,
    cap: u64,
    pub(crate) filled: u64,
}

impl SpillAlloc {
    /// Spills to `device`, failing over to `sm`'s fallback device.
    pub fn new<B: StorageBackend>(sm: &B, device: &str) -> SpillAlloc {
        SpillAlloc {
            device: device.to_string(),
            fallback: sm.spill_fallback().map(str::to_string),
            failed_over: false,
        }
    }

    /// Switches to the fallback device, or gives up with the capacity error
    /// `e` when there is none (or it is already in use).
    fn fail_over<B: StorageBackend>(
        &mut self,
        sm: &mut B,
        e: StorageError,
    ) -> Result<(), StorageError> {
        match &self.fallback {
            Some(to) if !self.failed_over && *to != self.device => {
                sm.note_degradation(&self.device, "failover");
                self.device = to.clone();
                self.failed_over = true;
                Ok(())
            }
            _ => Err(e),
        }
    }

    /// Allocates one contiguous extent (a merged run must stay contiguous,
    /// so shrinking is not an option — only failover).
    pub(crate) fn alloc<B: StorageBackend>(
        &mut self,
        sm: &mut B,
        len: u64,
    ) -> Result<FileId, StorageError> {
        loop {
            match sm.alloc(&self.device, len) {
                Err(e) if e.is_capacity() => self.fail_over(sm, e)?,
                done => return done,
            }
        }
    }

    /// Writes `len` bytes of `rows` (whole `tb`-byte tuples, one sorted
    /// batch; `None` where the data is elided) as one run, appending
    /// `(file, tuples)` to `runs`. On capacity exhaustion the
    /// extent halves — a contiguous slice of a sorted batch is still a sorted
    /// run — and when single-tuple extents no longer fit it fails over.
    pub(crate) fn spill_rows<B: StorageBackend>(
        &mut self,
        sm: &mut B,
        (rows, len): (Option<&[u8]>, u64),
        tb: u64,
        runs: &mut Vec<(FileId, u64)>,
    ) -> Result<(), StorageError> {
        let (count, mut start) = (len / tb, 0u64);
        let mut chunk = count;
        while start < count {
            let n = chunk.min(count - start);
            match sm.alloc(&self.device, n * tb) {
                Ok(f) => {
                    let part = rows.map(|r| &r[(start * tb) as usize..((start + n) * tb) as usize]);
                    sm.write(f, 0, n * tb, 1, part)?;
                    runs.push((f, n));
                    start += n;
                }
                Err(e) if e.is_capacity() && chunk > 1 => {
                    chunk /= 2;
                    sm.note_degradation(&self.device, "shrink");
                }
                Err(e) if e.is_capacity() => {
                    self.fail_over(sm, e)?;
                    // Fresh device: back to full-size extents.
                    chunk = count;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reserves the next extent of one spill stream: whole device pages from
    /// a page boundary (the device's watermark is padded up to one first),
    /// [`PARTITION_EXTENT_PAGES`] of them and never less than hold
    /// `stage_bytes`, the stream's longest append. A reservation that does
    /// not fit halves down to that floor, then fails over to the alternate
    /// device and starts again at full size.
    fn reserve<B: StorageBackend>(
        &mut self,
        sm: &mut B,
        stage_bytes: u64,
    ) -> Result<Extent, StorageError> {
        let mut shrunk_to: Option<u64> = None;
        loop {
            let page = sm.page_bytes(&self.device)?;
            let floor = stage_bytes.div_ceil(page).max(1);
            let pages = shrunk_to.unwrap_or(PARTITION_EXTENT_PAGES.max(floor));
            let pad = sm
                .watermark(&self.device)
                .map_or(0, |mark| mark.next_multiple_of(page) - mark);
            let aligned = match pad {
                0 => Ok(()),
                _ => sm.alloc(&self.device, pad).map(|_| ()),
            };
            let cap = pages * page;
            match aligned.and_then(|()| sm.alloc(&self.device, cap)) {
                Ok(file) => {
                    return Ok(Extent {
                        file,
                        cap,
                        filled: 0,
                    })
                }
                Err(e) if e.is_capacity() && pages > floor => {
                    shrunk_to = Some((pages / 2).max(floor));
                    sm.note_degradation(&self.device, "shrink");
                }
                Err(e) if e.is_capacity() => {
                    self.fail_over(sm, e)?;
                    shrunk_to = None;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Appends `len` bytes of `rows` (whole tuples, at most `stage_bytes`
    /// of them; `None` where the data is elided) to a spill stream: into the
    /// room left in its last extent, or into a fresh reservation when they
    /// do not fit there.
    pub(crate) fn append_to_stream<B: StorageBackend>(
        &mut self,
        sm: &mut B,
        stream: &mut Vec<Extent>,
        (rows, len): (Option<&[u8]>, u64),
        stage_bytes: u64,
    ) -> Result<(), StorageError> {
        if !stream.last().is_some_and(|e| e.cap - e.filled >= len) {
            stream.push(self.reserve(sm, stage_bytes)?);
        }
        let extent = stream.last_mut().expect("just reserved");
        sm.write(extent.file, extent.filled, len, 1, rows)?;
        extent.filled += len;
        Ok(())
    }
}

/// The partition pass's hash loop: the bucket of every row of `rows`
/// (row-major, `width` columns), into `ids` — `stable_hash_int(key) %
/// partitions`, the simulator's and the OCAL `hashPartition` definition's
/// bucket function, so the bucket contents are theirs. One loop over
/// independent keys, so the hashes' multiply chains overlap; the remainder
/// is a mask when `partitions` is a power of two, which gives the same
/// bucket. Non-generic and infallible: compiled once for every backend.
#[inline(never)]
pub(crate) fn bucket_ids(rows: &[i64], width: usize, partitions: u64, ids: &mut Vec<u32>) {
    assert!(
        partitions > 0 && partitions <= 1 << 32,
        "{partitions} partitions"
    );
    ids.clear();
    let keys = rows
        .chunks_exact(width)
        .map(|row| ocal::stable_hash_int(row[0]));
    if partitions.is_power_of_two() {
        let mask = partitions - 1;
        ids.extend(keys.map(|h| (h & mask) as u32));
    } else {
        ids.extend(keys.map(|h| (h % partitions) as u32));
    }
}

/// The partition pass's staging loop: stages each row of `rows` (row-major,
/// `width` columns) in the buffer of its bucket, `ids` (see [`bucket_ids`]),
/// as its encoding, `col_bytes` a column. Returns at the first row that
/// brings a buffer to `flush_at` bytes, as `(bucket, rows consumed)`, so
/// that the caller flushes it before the next row is staged; `None` once
/// every row is. Non-generic and infallible: compiled once for every
/// backend.
pub(crate) fn stage_rows(
    rows: &[i64],
    ids: &[u32],
    (width, col_bytes): (usize, usize),
    staged: &mut [Vec<u8>],
    flush_at: usize,
) -> Option<(usize, usize)> {
    for (n, (row, &b)) in rows.chunks_exact(width).zip(ids).enumerate() {
        let stage = &mut staged[b as usize];
        encode_cols(row, col_bytes, stage);
        if stage.len() >= flush_at {
            return Some((b as usize, n + 1));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every row's bucket is `stable_hash(&Value::Int(key)) % p`, at
        /// powers of two and at other counts, negative keys included.
        #[test]
        fn bucket_ids_are_the_stable_hash_buckets(
            keys in proptest::collection::vec(-1_000_000i64..1_000_000, 0..300),
            width in 1usize..4,
            scale in 0u32..40,
        ) {
            let ends = [i64::MIN, i64::MAX, -1];
            let keys = keys.iter().map(|&k| k << scale).chain(ends);
            let rows: Vec<i64> = keys.flat_map(|k| std::iter::repeat(k).take(width)).collect();
            let mut ids = Vec::new();
            for p in [1u64, 2, 3, 7, 64, 100, 128, 129] {
                bucket_ids(&rows, width, p, &mut ids);
                let want: Vec<u32> = rows
                    .chunks_exact(width)
                    .map(|row| (ocal::stable_hash(&ocal::Value::Int(row[0])) % p) as u32)
                    .collect();
                prop_assert_eq!(&ids, &want, "{} partitions", p);
            }
        }
    }
}
