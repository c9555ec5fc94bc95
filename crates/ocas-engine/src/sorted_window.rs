//! A sorted generation window of width-1 tuples, filled without a
//! comparison sort.
//!
//! A sorted [`RowGen`](crate::RowGen) window is every draw of the stream
//! whose value falls in the window's value range, in ascending order. The
//! range is a run of the generator's value buckets, and the generator knows
//! how many draws each bucket holds, so the window is cut into *groups* —
//! runs of buckets spanning at most 2^[`GROUP_BITS`] values and, unless one
//! bucket holds more, at most [`GROUP_TUPLES`] draws — whose places in the
//! window are known before the first draw:
//!
//! * one pass draws the whole stream, exactly as the generator does. A
//!   chunk of draws at a time, the ones in the window are kept by
//!   branch-free compaction (every draw is written, the count advances by
//!   whether it is kept), and the kept ones are scattered to the next free
//!   slot of their group. A small table indexed by the value's high bits
//!   names the group up to one bound compare;
//! * then each group, a cache-sized slice, is ordered by the crate's one
//!   radix sort ([`radix_sort`]) of `value - group_lo` in 6-bit digits (two
//!   passes for a 12-bit group), with one group's worth of scratch.
//!
//! Nothing here is generic and nothing can fail: the kernel is compiled
//! once, into this crate, and `tests/window_throughput.rs` gates it against
//! the literal filter and sort it replaced.

use crate::sort_kernel::radix_sort;
use rand::rngs::StdRng;
use rand::Rng;

/// Widest value span of a group, in bits: two radix passes.
pub(crate) const GROUP_BITS: u32 = 12;
/// Most draws a group of several buckets takes: bounds the radix scratch
/// (256 KiB) unless a single bucket holds more.
pub(crate) const GROUP_TUPLES: u64 = 1 << 15;
/// Draws compacted before their kept values are scattered.
const CHUNK: usize = 256;

/// Fills `out` with the `card` draws of `rng` in `0..range` that fall in
/// `bounds[0]..bounds[groups]`, ascending. Group `g` is the values
/// `bounds[g]..bounds[g + 1]`, and it holds exactly the draws that land in
/// `out[offs[g]..offs[g + 1]]`; `offs[groups]` is `out.len()`.
pub(crate) fn fill_sorted(
    mut rng: StdRng,
    card: u64,
    range: i64,
    bounds: &[i64],
    offs: &[usize],
    out: &mut [i64],
) {
    let groups = bounds.len() - 1;
    debug_assert_eq!(offs.len(), bounds.len());
    debug_assert_eq!(offs[groups], out.len());
    let lo = bounds[0];
    let span = (bounds[groups] - lo) as u64;
    // Cells no wider than the narrowest group hold at most one group bound,
    // so a value's group is its cell's first group or the one after. Every
    // bucket, and so every group, spans at least one value.
    let narrowest = bounds.windows(2).map(|b| (b[1] - b[0]) as u64).min();
    let shift = narrowest.unwrap_or(1).ilog2();
    let last_cell = (span - 1) >> shift;
    let mut group_of_cell = Vec::with_capacity(last_cell as usize + 1);
    let mut g = 0;
    for cell in 0..=last_cell {
        let first = lo + (cell << shift) as i64;
        while bounds[g + 1] <= first {
            g += 1;
        }
        group_of_cell.push(g as u16);
    }

    let mut next = offs[..groups].to_vec();
    let mut kept = [0i64; CHUNK];
    let mut left = card;
    while left > 0 {
        let take = left.min(CHUNK as u64) as usize;
        left -= take as u64;
        let mut n = 0;
        for _ in 0..take {
            let v: i64 = rng.gen_range(0..range);
            kept[n] = v;
            n += usize::from((v.wrapping_sub(lo) as u64) < span);
        }
        for &v in &kept[..n] {
            let g0 = group_of_cell[((v - lo) as u64 >> shift) as usize] as usize;
            let g = g0 + usize::from(v >= bounds[g0 + 1]);
            out[next[g]] = v;
            next[g] += 1;
        }
    }
    debug_assert_eq!(next, offs[1..], "bucket counts disagree");

    let mut scratch = Vec::new();
    for g in 0..groups {
        let (keys, base) = (&mut out[offs[g]..offs[g + 1]], bounds[g]);
        radix_sort(keys, base, (bounds[g + 1] - base - 1) as u64, &mut scratch);
    }
}
