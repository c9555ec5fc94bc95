//! Where a spill stream's bytes land, and what reading them back costs.
//!
//! A GRACE bucket is a stream with extents of its own — whole pool pages
//! from a page boundary — so reading a bucket back touches its pages once;
//! and the sort's last merge pass is its output pass, so the result moves
//! through memory once per pass of the algorithm and not once more. Both
//! are held here by what is in the device file and by exact device and
//! pool counts, in debug builds too.
//!
//! These are "follows the file" tests: the partition layout is decoded from
//! the backing file itself (after a flush), and the sort's result from its
//! output extent. Both run through `Runtime::execute`.

use ocas_engine::{JoinPred, Layout, Output, Plan, Relation, RowBuf};
use ocas_hierarchy::presets;
use ocas_runtime::{FileBackend, PoolConfig, PoolStats, Runtime};
use ocas_storage::{DeviceStats, FileId, StorageBackend};
use std::collections::BTreeMap;
use std::os::unix::fs::FileExt;

const PAGE: u64 = 4096;
const FRAMES: u64 = 256;

fn backend() -> FileBackend {
    let pool = PoolConfig {
        page_bytes: PAGE as usize,
        frames: FRAMES as usize,
        ..PoolConfig::default()
    };
    FileBackend::from_hierarchy(&presets::hdd_ram(1 << 20), pool).unwrap()
}

/// Writes `rows` (uncharged) as a relation on the HDD.
fn relation(fb: &mut FileBackend, rows: &RowBuf) -> Relation {
    let bytes = rows.encode();
    let file = fb.alloc("HDD", bytes.len() as u64).unwrap();
    fb.materialize(file, 0, &bytes).unwrap();
    let card = rows.len() as u64;
    Relation::attach(file, card, rows.width() as u32, card)
}

/// Pushes every page the pool holds out of it, so that what follows misses
/// on its inputs.
fn flood_pool(fb: &mut FileBackend) {
    let junk: FileId = fb.alloc("HDD", 2 * FRAMES * PAGE).unwrap();
    fb.read(junk, 0, 2 * FRAMES * PAGE, 1, None).unwrap();
}

fn hdd(fb: &FileBackend) -> (DeviceStats, PoolStats) {
    let (_, pool) = fb
        .pool_stats()
        .into_iter()
        .find(|(name, _)| name == "HDD")
        .unwrap();
    (fb.device_stats("HDD").unwrap(), pool)
}

/// Payloads of the right relation start here: a tuple tells its side.
const RIGHT: i64 = 1 << 40;

/// `card` pairs, every other one with the key `hot`, the rest spread over
/// a hundred thousand keys; the payload is `first` plus the arrival index,
/// never zero — so an all-zero tuple in the file is room nobody wrote.
fn skewed_pairs(card: usize, hot: i64, first: i64) -> RowBuf {
    let mut rows = RowBuf::with_capacity(2, card);
    for i in 0..card as i64 {
        let key = if i % 2 == 0 {
            hot
        } else {
            3 + i * 7919 % 100_000
        };
        rows.push(&[key, first + i]);
    }
    rows
}

#[test]
fn a_grace_bucket_owns_its_pages_and_is_read_back_once() {
    const PARTITIONS: u64 = 64;
    const BUFFER: u64 = 64 << 10;
    const FLUSH: u64 = BUFFER / PARTITIONS; // one staging buffer: 1 KiB
    let mut fb = backend();
    // Each side's hot key is missing on the other: half of a side's rows
    // go to one bucket, and the join stays small.
    let left = skewed_pairs(1 << 16, 1, 1);
    let right = skewed_pairs(1 << 15, 2, RIGHT);
    let (l, r) = (relation(&mut fb, &left), relation(&mut fb, &right));
    let input_bytes = l.bytes() + r.bytes();
    flood_pool(&mut fb);

    let mark = fb.watermark("HDD").unwrap();
    let (dev0, pool0) = hdd(&fb);
    let plan = Plan::GraceJoin {
        left: 0,
        right: 1,
        partitions: PARTITIONS,
        buffer_bytes: BUFFER,
        spill: "HDD".into(),
        pred: JoinPred::KeyEq,
        output: Output::Discard,
    };
    let (mut fb, run) = Runtime::execute(fb, &[l, r], &plan);
    let run = run.unwrap();
    let (dev1, pool1) = hdd(&fb);
    fb.flush().unwrap();
    let end = fb.watermark("HDD").unwrap();

    // What was hashed where, in arrival order.
    let bucket = |key: i64| ocal::stable_hash(&ocal::Value::Int(key)) % PARTITIONS;
    let mut want: BTreeMap<(bool, u64), Vec<[i64; 2]>> = BTreeMap::new();
    let mut keys: BTreeMap<i64, (u64, u64)> = BTreeMap::new();
    for (is_right, rows) in [(false, &left), (true, &right)] {
        for row in rows.iter() {
            want.entry((is_right, bucket(row[0])))
                .or_default()
                .push([row[0], row[1]]);
            let count = keys.entry(row[0]).or_default();
            *(if is_right { &mut count.1 } else { &mut count.0 }) += 1;
        }
    }
    assert_eq!(
        run.output_rows,
        keys.values().map(|(a, b)| a * b).sum::<u64>()
    );

    // The spill area of the device file, page by page: every page holds
    // tuples of one bucket of one side only, as a prefix; and a bucket's
    // pages, in device order, hold its tuples in arrival order.
    let spill_from = mark.next_multiple_of(PAGE);
    let mut area = vec![0u8; (end - spill_from) as usize];
    std::fs::File::open(fb.dir().join("HDD.dev"))
        .unwrap()
        .read_exact_at(&mut area, spill_from)
        .unwrap();
    let mut got: BTreeMap<(bool, u64), Vec<[i64; 2]>> = BTreeMap::new();
    let (mut data_pages, mut extents) = (0u64, 0u64);
    for (n, group) in area.chunks((16 * PAGE) as usize).enumerate() {
        let mut group_owner = None;
        for (p, page) in group.chunks(PAGE as usize).enumerate() {
            let tuples = Layout::new(2, 8).decode(page);
            let filled = tuples.iter().take_while(|t| *t != [0, 0]).count();
            assert!(
                tuples.iter().skip(filled).all(|t| t == [0, 0]),
                "group {n} page {p}: a hole inside a page"
            );
            if filled == 0 {
                continue;
            }
            data_pages += 1;
            let owner = (tuples.row(0)[1] >= RIGHT, bucket(tuples.row(0)[0]));
            for t in tuples.iter().take(filled) {
                assert_eq!(
                    (t[1] >= RIGHT, bucket(t[0])),
                    owner,
                    "group {n} page {p}: two buckets share a page"
                );
            }
            // A reservation is 16 pages here and belongs to one bucket.
            assert_eq!(*group_owner.get_or_insert(owner), owner, "group {n}");
            got.entry(owner)
                .or_default()
                .extend(tuples.iter().take(filled).map(|t| [t[0], t[1]]));
        }
        extents += u64::from(group_owner.is_some());
    }
    assert!(
        got == want,
        "a bucket's pages do not hold its tuples in order"
    );
    let hot = want[&(false, bucket(1))].len() as u64 * 16;
    assert!(hot > 8 * 16 * PAGE, "the hot bucket outgrows many extents");
    let cold = want
        .values()
        .filter(|rows| rows.len() as u64 * 16 < 16 * PAGE);
    assert!(cold.count() > 100, "most buckets never fill one");

    // Exact traffic: both inputs and every partition byte read once, every
    // partition byte written once.
    assert_eq!(dev1.bytes_read - dev0.bytes_read, 2 * input_bytes);
    assert_eq!(dev1.bytes_written - dev0.bytes_written, input_bytes);
    // Exact page accesses: an input page, a flush and — in the join pass —
    // a partition page are one access each; a bucket read back a staging
    // buffer at a time would be one per *flush* instead (four to the page).
    let flushes: u64 = want
        .values()
        .map(|rows| (rows.len() as u64 * 16).div_ceil(FLUSH))
        .sum();
    // (A short extent read right behind its neighbour is a sequential
    // sub-page request: the backend's read-ahead looks at the extent's
    // empty pages too.)
    let accesses = (pool1.hits + pool1.misses) - (pool0.hits + pool0.misses);
    let once = input_bytes / PAGE + flushes + data_pages;
    assert!(
        (once..=once + extents).contains(&accesses),
        "{accesses} page accesses, {once} pages and flushes"
    );
    // And misses: an input page, the first flush to a page, and a page of
    // the join pass unless it was still resident — never a page twice.
    let misses = pool1.misses - pool0.misses;
    let once = input_bytes / PAGE + 2 * data_pages;
    assert!(
        (once - FRAMES..=once).contains(&misses),
        "{misses} misses for {data_pages} partition pages in {extents} extents"
    );
}

/// Merge levels of a sort of `runs` initial runs.
fn levels(mut runs: u64, fan_in: u64) -> u64 {
    let mut n = 0;
    while runs > 1 {
        runs = runs.div_ceil(fan_in);
        n += 1;
    }
    n
}

#[test]
fn a_sort_moves_its_input_once_per_pass_and_not_once_more() {
    const FAN_IN: u64 = 4;
    const B_IN: u64 = 256;
    const B_OUT: u64 = 512;
    // 64 full runs: every run is merged at every level, none carried over.
    const CARD: u64 = 64 * (FAN_IN * B_IN + B_OUT);
    let passes = 1 + levels(64, FAN_IN);
    assert_eq!(passes, 4, "run formation and three merge levels");
    let rows: Vec<i64> = (0..CARD as i64).map(|i| i * 48_271 % 65_537).collect();
    let mut sorted = rows.clone();
    sorted.sort_unstable();
    for to_device in [true, false] {
        let mut fb = backend();
        let rel = relation(&mut fb, &RowBuf::from_vec(rows.clone(), 1));
        let output = match to_device {
            true => Output::ToDevice {
                device: "HDD".into(),
                buffer_bytes: 1 << 12,
            },
            false => Output::Discard,
        };
        let plan = Plan::ExternalSort {
            input: 0,
            fan_in: FAN_IN,
            b_in: B_IN,
            b_out: B_OUT,
            scratch: "HDD".into(),
            output,
        };
        let (dev0, _) = hdd(&fb);
        let (mut fb, run) = Runtime::execute(fb, &[rel], &plan);
        let run = run.unwrap();
        let (dev1, _) = hdd(&fb);
        // Every pass reads the input once; every pass but a collected last
        // one writes it once. No copy-out term.
        assert_eq!(dev1.bytes_read - dev0.bytes_read, CARD * 8 * passes);
        let written = passes - u64::from(!to_device);
        assert_eq!(dev1.bytes_written - dev0.bytes_written, CARD * 8 * written);
        assert_eq!(run.output_rows, CARD);
        let out = Runtime::harvest(&mut fb, run).unwrap();
        assert!(out.as_slice() == sorted, "to_device {to_device}");
    }
}
