//! The crate's sort kernels: one LSD radix sort of a cache-sized slice,
//! and run formation's sort-and-encode of a width-1 batch built on it.
//!
//! The external sort forms a run by sorting a batch of keys and encoding it
//! into the run's bytes. [`sort_encode`] does both at once, with no buffer
//! beyond the batch and those bytes:
//!
//! * one pass over the keys finds their `[min, max]` span, a second counts
//!   them into power-of-two value buckets of that span (at most
//!   [`BUCKET_KEYS`] keys each on average, each bucket a whole number of
//!   radix digits wide where that costs at most four times the buckets),
//!   and a third
//!   writes each key's encoding straight into the byte buffer at its
//!   bucket's next slot. The buckets are then in order, their keys not
//!   yet;
//! * each bucket's bytes, a cache-sized stretch, are decoded back into the
//!   batch's slots of that bucket (whose keys are all in the byte buffer by
//!   now), radix sorted there ([`radix_sort`], with one bucket's worth of
//!   scratch) and encoded again in place. A bucket of more than
//!   [`BUCKET_MAX`] keys — skewed keys — is bucketed again the same way, so
//!   the scratch stays one bucket's.
//!
//! Decoding is exact because a narrow column only holds values below
//! `256^col_bytes` (the tuple codec's contract): the keys come back as they
//! were written. Both the batch and the bytes end up sorted. The column
//! width is a const generic, so every width from 1 to 8 bytes is the same
//! code with its own fixed-size stores.
//!
//! Nothing here is generic over a backend and nothing can fail: the kernels
//! are compiled once, into this crate. `tests/window_throughput.rs` gates
//! the radix sort inside the sorted window's fill, and
//! `tests/run_formation_throughput.rs` gates [`sort_encode`] against the
//! `sort_unstable` and `encode_cols` it replaced.

/// Bits of one radix digit.
const DIGIT_BITS: u32 = 6;
const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;
/// Digit passes that cover any offset below 2^64.
const MAX_PASSES: usize = 11;

/// Keys a bucket of [`sort_encode`] is sized for, at uniform keys: a bucket
/// and its radix scratch stay in the L2 cache.
const BUCKET_KEYS: usize = 1 << 11;
/// Most keys radix sorted in one piece; a larger batch or bucket is
/// bucketed first.
const BUCKET_MAX: usize = 1 << 14;

/// Sorts `keys`, every one in `base..=base + top`, by an LSD radix sort of
/// `key - base` in 6-bit digits, ping-ponging through `scratch`.
pub(crate) fn radix_sort(keys: &mut [i64], base: i64, top: u64, scratch: &mut Vec<i64>) {
    if keys.len() < 2 || top == 0 {
        return;
    }
    let passes = (u64::BITS - top.leading_zeros()).div_ceil(DIGIT_BITS) as usize;
    if scratch.len() < keys.len() {
        scratch.resize(keys.len(), 0);
    }
    let scratch = &mut scratch[..keys.len()];
    let mut counts = [[0usize; 1 << DIGIT_BITS]; MAX_PASSES];
    for &k in keys.iter() {
        let mut d = k.wrapping_sub(base) as u64;
        for c in &mut counts[..passes] {
            c[(d & DIGIT_MASK) as usize] += 1;
            d >>= DIGIT_BITS;
        }
    }
    for (p, c) in counts[..passes].iter_mut().enumerate() {
        let mut sum = 0;
        for n in c.iter_mut() {
            let here = *n;
            *n = sum;
            sum += here;
        }
        let shift = p as u32 * DIGIT_BITS;
        let (src, dst) = if p % 2 == 0 {
            (&*keys, &mut *scratch)
        } else {
            (&*scratch, &mut *keys)
        };
        for &k in src {
            let d = ((k.wrapping_sub(base) as u64 >> shift) & DIGIT_MASK) as usize;
            dst[c[d]] = k;
            c[d] += 1;
        }
    }
    if passes % 2 == 1 {
        keys.copy_from_slice(scratch);
    }
}

/// Sorts `keys` ascending and writes their encoding, each key its
/// `col_bytes` (1 to 8) low-order little-endian bytes, to `out`, which
/// must be exactly that long: the `sort_unstable` of the keys, then
/// `encode_cols`, for keys below `256^col_bytes` at narrow widths (any key
/// at 8 bytes). Allocates one bucket's radix scratch and bucket table, never
/// a batch-sized buffer.
pub(crate) fn sort_encode(keys: &mut [i64], col_bytes: usize, out: &mut [u8]) {
    assert_eq!(out.len(), keys.len() * col_bytes, "out must hold the keys");
    let mut scratch = Vec::new();
    match col_bytes {
        1 => sort_encode_cb::<1>(keys, out, &mut scratch),
        2 => sort_encode_cb::<2>(keys, out, &mut scratch),
        3 => sort_encode_cb::<3>(keys, out, &mut scratch),
        4 => sort_encode_cb::<4>(keys, out, &mut scratch),
        5 => sort_encode_cb::<5>(keys, out, &mut scratch),
        6 => sort_encode_cb::<6>(keys, out, &mut scratch),
        7 => sort_encode_cb::<7>(keys, out, &mut scratch),
        8 => sort_encode_cb::<8>(keys, out, &mut scratch),
        cb => panic!("a column is 1 to 8 bytes, not {cb}"),
    }
}

/// [`sort_encode`] at `CB`-byte columns.
#[inline(never)]
fn sort_encode_cb<const CB: usize>(keys: &mut [i64], out: &mut [u8], scratch: &mut Vec<i64>) {
    let Some(&first) = keys.first() else {
        return;
    };
    let span = keys
        .iter()
        .fold((first, first), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    sort_span::<CB>(keys, span, out, scratch);
}

/// [`sort_encode_cb`] of keys, at least one, that span `lo..=hi`.
fn sort_span<const CB: usize>(
    keys: &mut [i64],
    (lo, hi): (i64, i64),
    out: &mut [u8],
    scratch: &mut Vec<i64>,
) {
    let top = hi.wrapping_sub(lo) as u64;
    if keys.len() <= BUCKET_MAX || top == 0 {
        radix_sort(keys, lo, top, scratch);
        return encode::<CB>(keys, out);
    }
    // Power-of-two buckets over the span, at least two of them, so a
    // bucket's span is at most half this one's; rounded to a whole number
    // of radix digits when that at most quadruples them.
    let want = keys.len().div_ceil(BUCKET_KEYS).next_power_of_two();
    let shift = (u64::BITS - top.leading_zeros()).saturating_sub(want.trailing_zeros());
    let shift = match shift % DIGIT_BITS {
        r if r <= 2 => shift - r,
        _ => shift,
    };
    let buckets = (top >> shift) as usize + 1;
    let bucket = |k: i64| (k.wrapping_sub(lo) as u64 >> shift) as usize;
    let mut starts = vec![0usize; buckets + 1];
    for &k in keys.iter() {
        starts[bucket(k) + 1] += 1;
    }
    for b in 1..=buckets {
        starts[b] += starts[b - 1];
    }
    let mut next = starts[..buckets].to_vec();
    for &k in keys.iter() {
        let at = &mut next[bucket(k)];
        out[*at * CB..(*at + 1) * CB].copy_from_slice(&k.to_le_bytes()[..CB]);
        *at += 1;
    }
    for b in starts.windows(2).filter(|b| b[0] < b[1]) {
        let (keys, out) = (&mut keys[b[0]..b[1]], &mut out[b[0] * CB..b[1] * CB]);
        let span = decode::<CB>(out, keys);
        sort_span::<CB>(keys, span, out, scratch);
    }
}

fn encode<const CB: usize>(keys: &[i64], out: &mut [u8]) {
    for (k, bytes) in keys.iter().zip(out.chunks_exact_mut(CB)) {
        bytes.copy_from_slice(&k.to_le_bytes()[..CB]);
    }
}

/// The inverse of [`encode`] below `256^CB`, each column zero-extended,
/// into `keys`, which are at least one: returns their least and largest.
fn decode<const CB: usize>(bytes: &[u8], keys: &mut [i64]) -> (i64, i64) {
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for (k, bytes) in keys.iter_mut().zip(bytes.chunks_exact(CB)) {
        let mut word = [0u8; 8];
        word[..CB].copy_from_slice(bytes);
        *k = i64::from_le_bytes(word);
        (lo, hi) = (lo.min(*k), hi.max(*k));
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::encode_cols;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

    /// The literal run formation the kernel replaced: `sort_unstable`, then
    /// `encode_cols`.
    fn literal(keys: &[i64], cb: usize) -> (Vec<i64>, Vec<u8>) {
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let mut bytes = Vec::new();
        encode_cols(&sorted, cb, &mut bytes);
        (sorted, bytes)
    }

    fn check(keys: &[i64], cb: usize, what: &str) {
        let mut got = keys.to_vec();
        let mut bytes = vec![0xa5u8; keys.len() * cb];
        sort_encode(&mut got, cb, &mut bytes);
        let (want, want_bytes) = literal(keys, cb);
        assert!(
            got == want,
            "{what} ({} keys, {cb} B): the keys",
            keys.len()
        );
        assert!(
            bytes == want_bytes,
            "{what} ({} keys, {cb} B): the bytes",
            keys.len()
        );
    }

    /// The exclusive bound of a `cb`-byte column's values (`None`: any i64).
    fn bound(cb: usize) -> Option<i64> {
        (cb < 8).then(|| 1i64 << (8 * cb))
    }

    /// The batch lengths around every place the kernel changes course.
    const LENGTHS: [usize; 9] = [
        0,
        1,
        2,
        BUCKET_KEYS,
        BUCKET_MAX - 1,
        BUCKET_MAX,
        BUCKET_MAX + 1,
        3 * BUCKET_MAX + 17,
        40 * BUCKET_KEYS,
    ];

    #[test]
    fn equal_keys_one_bucket_and_the_ends_of_the_domain() {
        let mut rng = StdRng::seed_from_u64(5);
        for cb in 1..=8 {
            let top = bound(cb).map_or(i64::MAX, |b| b - 1);
            for n in LENGTHS {
                check(&vec![top / 3; n], cb, "all equal");
                check(&vec![top; n], cb, "all the largest value");
                // Every key in one of the buckets of a wide span: the
                // ends, and a crowd in between that is bucketed again.
                let mut keys: Vec<i64> =
                    (0..n).map(|_| top / 2 + rng.gen_range(0..64i64)).collect();
                if n > 2 {
                    (keys[0], keys[n / 2]) = (0, top);
                }
                check(&keys, cb, "one crowded bucket");
                let ramp: Vec<i64> = (0..n as i64).rev().map(|k| k % top).collect();
                check(&ramp, cb, "descending");
            }
        }
        for n in LENGTHS {
            let ends = [i64::MIN, i64::MAX, -1, 0, i64::MIN + 1, i64::MAX - 1];
            let keys: Vec<i64> = (0..n).map(|i| ends[i % ends.len()]).collect();
            check(&keys, 8, "the ends of i64");
            let keys: Vec<i64> = (0..n).map(|_| rng.next_u64() as i64).collect();
            check(&keys, 8, "any i64");
            let keys: Vec<i64> = (0..n).map(|_| rng.gen_range(-5000..5000)).collect();
            check(&keys, 8, "around zero");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any batch at any column width, from a key range as small as one
        /// value up to the column's whole domain.
        #[test]
        fn sort_encode_equals_sort_unstable_then_encode_cols(
            seed in 0u64..1_000_000,
            cb in 1usize..9,
            len in 0usize..3 * BUCKET_MAX,
            range_bits in 0u32..64,
            negative in 0u8..2,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let range = bound(cb).map_or(1i64 << range_bits.min(62), |b| b.min(1 << range_bits.min(62)));
            let shift = if cb == 8 && negative == 1 { range / 2 } else { 0 };
            let keys: Vec<i64> = (0..len).map(|_| rng.gen_range(0..range) - shift).collect();
            check(&keys, cb, "proptest");
        }
    }

    #[test]
    fn the_radix_sort_covers_the_whole_i64_domain() {
        let mut keys = vec![i64::MAX, 0, i64::MIN, -1, 1, i64::MIN + 1];
        let mut scratch = Vec::new();
        radix_sort(&mut keys, i64::MIN, u64::MAX, &mut scratch);
        assert_eq!(keys, [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX]);
    }
}
