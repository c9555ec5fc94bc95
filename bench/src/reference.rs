//! Expected outputs computed here, with `std` collections, from the
//! generated input rows — independent of the operators under test.
//!
//! Outputs are compared by an order-insensitive digest (row count, wrapping
//! sum and xor of a per-row FNV-1a), so a plan may emit rows in any order;
//! where the specification fixes the order (sort, merges, dedup), sortedness
//! is checked separately on the output itself.

use std::collections::{BTreeSet, HashMap};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
    pub xor: u64,
}

fn fnv_row(row: &[i64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in row {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

impl Digest {
    pub fn push(&mut self, row: &[i64]) {
        let h = fnv_row(row);
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h;
    }

    /// Digest of flat row-major `data` of `width` columns.
    pub fn of(data: &[i64], width: usize) -> Digest {
        let mut d = Digest::default();
        for row in data.chunks_exact(width.max(1)) {
            d.push(row);
        }
        d
    }
}

/// What a plan's output must be, given its generated inputs (flat row-major
/// slices, one per relation in `RelSpec` order; the semantics fix the widths).
#[derive(Debug, Clone, Copy)]
pub enum Semantics {
    /// The sorted permutation of a unary input.
    Sort,
    /// Equi-join on the first column of two binary relations.
    Join,
    /// Multiset union of two sorted unary lists.
    UnionSorted,
    /// Row `i` is the `i`-th value of every column.
    Zip,
    /// The distinct values of a sorted unary list.
    Dedup,
    /// One row: the truncated integer mean.
    Average,
}

/// The reference: accepted digests (a join may emit `<r, s>` or, with its
/// inputs swapped by *order-inputs*, `<s, r>`) and whether the output must
/// be sorted.
pub struct Expected {
    pub any_of: Vec<Digest>,
    pub sorted: bool,
}

pub fn expected(sem: Semantics, inputs: &[&[i64]]) -> Expected {
    let one = |d: Digest, sorted: bool| Expected {
        any_of: vec![d],
        sorted,
    };
    match sem {
        // Same multiset as the input; order is the separate check.
        Semantics::Sort => one(Digest::of(inputs[0], 1), true),
        Semantics::UnionSorted => {
            let mut d = Digest::of(inputs[0], 1);
            for v in inputs[1] {
                d.push(&[*v]);
            }
            one(d, true)
        }
        Semantics::Dedup => {
            let distinct: BTreeSet<i64> = inputs[0].iter().copied().collect();
            let mut d = Digest::default();
            for v in distinct {
                d.push(&[v]);
            }
            one(d, true)
        }
        Semantics::Average => {
            let vals = inputs[0];
            let sum: i128 = vals.iter().map(|v| i128::from(*v)).sum();
            let avg = if vals.is_empty() {
                0
            } else {
                (sum / vals.len() as i128) as i64
            };
            one(Digest::of(&[avg], 1), false)
        }
        Semantics::Zip => {
            let n = inputs[0].len();
            let mut d = Digest::default();
            let mut row = vec![0i64; inputs.len()];
            for i in 0..n {
                for (c, col) in inputs.iter().enumerate() {
                    row[c] = col[i];
                }
                d.push(&row);
            }
            one(d, false)
        }
        Semantics::Join => {
            let (r, s) = (inputs[0], inputs[1]);
            let mut by_key: HashMap<i64, Vec<i64>> = HashMap::new();
            for t in s.chunks_exact(2) {
                by_key.entry(t[0]).or_default().push(t[1]);
            }
            let (mut rs, mut sr) = (Digest::default(), Digest::default());
            for t in r.chunks_exact(2) {
                for s2 in by_key.get(&t[0]).into_iter().flatten() {
                    rs.push(&[t[0], t[1], t[0], *s2]);
                    sr.push(&[t[0], *s2, t[0], t[1]]);
                }
            }
            Expected {
                any_of: vec![rs, sr],
                sorted: false,
            }
        }
    }
}

/// Checks one output (flat row-major, `width` columns) against the
/// reference; the error names what differs.
pub fn check(exp: &Expected, output: &[i64], width: usize) -> Result<(), String> {
    let got = Digest::of(output, width);
    if !exp.any_of.contains(&got) {
        return Err(format!(
            "digest {got:?} is none of the reference's {:?}",
            exp.any_of
        ));
    }
    if exp.sorted {
        let w = width.max(1);
        let mut rows = output.chunks_exact(w);
        if let Some(mut prev) = rows.next() {
            for row in rows {
                if row < prev {
                    return Err("output is not sorted".into());
                }
                prev = row;
            }
        }
    }
    Ok(())
}
