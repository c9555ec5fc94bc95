//! `StorageSim::read_run` against the loop of `read` it stands for,
//! `StorageSim::read_data_run` against the loop of `read_data`, and
//! `StorageSim::write_run` against the loop of `write`: same clock, same
//! device counters, same device state afterwards — to the last bit, on
//! every device kind — the same bytes handed back, and the one documented
//! difference (a run leaving the file is rejected before anything is
//! charged).

use ocas_hierarchy::presets;
use ocas_storage::{read_data_loop, DeviceStats, FileId, StorageBackend, StorageError, StorageSim};
use proptest::prelude::*;

const PAGE: u64 = 4096;
const FILE_LEN: u64 = 16 << 20;

/// Bytes in front of each test file on its device.
const PADDING: u64 = 5000;

/// A simulator with one file per device kind, each preceded by a
/// [`PADDING`]-byte file so the run's file does not start on a page
/// boundary of its device.
fn sim() -> (StorageSim, [(&'static str, FileId); 3]) {
    let mut sm = StorageSim::from_hierarchy(&presets::hdd_flash_ram(64 << 20));
    let files = ["HDD", "SSD", "RAM"].map(|device| {
        sm.alloc(device, PADDING).expect("padding fits");
        (device, sm.alloc(device, FILE_LEN).expect("file fits"))
    });
    (sm, files)
}

/// Everything observable about a device and the clock, floats as bits.
fn observe(sm: &StorageSim, device: &str) -> (u64, DeviceStats, u64) {
    let stats = sm.device_stats(device).expect("device exists");
    (sm.clock().to_bits(), stats, stats.busy_seconds.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn read_run_equals_the_loop_of_reads(
        (device, unit_kind, unit_draw, offset) in (0usize..3, 0u32..5, 1u64..PAGE, 0u64..3 * PAGE),
        (count, prior_kind, prior_at, prior_len) in
            (0u64..700, 0u32..4, 0u64..FILE_LEN - 4 * PAGE, 1u64..4 * PAGE),
        probe_at in 0u64..FILE_LEN - PAGE,
    ) {
        let unit = match unit_kind {
            0 => unit_draw,          // below the page size, dividing it or not
            1 => 1 + unit_draw % 64, // many requests per page
            2 => PAGE,               // exactly a page
            3 => PAGE + unit_draw,   // above, not dividing
            _ => 3 * PAGE,           // a multiple of the page size
        };
        let count = count.min((FILE_LEN - offset) / unit);

        let (mut run, files) = sim();
        let (mut looped, _) = sim();
        let (device, file) = files[device];
        for sm in [&mut run, &mut looped] {
            // Leave the head anywhere: nowhere, after a read, after a write,
            // or right where the run starts (the read-ahead overlap case).
            match prior_kind {
                0 => {}
                1 => sm.read(file, prior_at, prior_len).unwrap(),
                2 => sm.write(file, prior_at, prior_len).unwrap(),
                _ => sm.read(file, offset.saturating_sub(prior_len), prior_len).unwrap(),
            }
        }

        run.read_run(file, offset, unit, count).unwrap();
        for j in 0..count {
            looped.read(file, offset + j * unit, unit).unwrap();
        }
        prop_assert_eq!(observe(&run, device), observe(&looped, device),
            "{} run of {} x {} B at {}", device, count, unit, offset);

        // The next request sees the same device state (head, open block).
        for sm in [&mut run, &mut looped] {
            sm.read(file, probe_at, PAGE).unwrap();
        }
        prop_assert_eq!(observe(&run, device), observe(&looped, device),
            "{} probe at {} after the run", device, probe_at);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// `StorageSim::read_data_run` against the loop of `read_data` it stands
    /// for: the same clock to the bit, the same device counters, the same
    /// answer and — for a file written with data, which the simulator keeps
    /// — the same bytes (zeros past the last write); an input file, placed
    /// without data, has no payload either way. Then the next request sees
    /// the same device.
    #[test]
    fn read_data_run_equals_the_loop_of_data_reads(
        (device, unit_kind, unit_draw, offset) in (0usize..3, 0u32..5, 1u64..PAGE, 0u64..3 * PAGE),
        (count, written, write_at, write_len) in (0u64..300, 0u32..3, 0u64..4 * PAGE, 1u64..4 * PAGE),
        probe_at in 0u64..FILE_LEN - PAGE,
    ) {
        let unit = match unit_kind {
            0 => unit_draw,
            1 => 1 + unit_draw % 64,
            2 => PAGE,
            3 => PAGE + unit_draw,
            _ => 3 * PAGE,
        };
        let count = count.min((FILE_LEN - offset) / unit);
        let (mut run, files) = sim();
        let (mut looped, _) = sim();
        let (device, file) = files[device];
        let data: Vec<u8> = (0..write_len).map(|i| (i * 7 + 1) as u8).collect();
        for sm in [&mut run, &mut looped] {
            match written {
                // An input: placed, kept nowhere.
                0 => StorageBackend::materialize(sm, file, write_at, &data).unwrap(),
                // Written with data, where the run reads or past it.
                1 => sm.write_bytes(file, write_at, &data).unwrap(),
                _ => sm.write_bytes(file, FILE_LEN - write_len, &data).unwrap(),
            }
        }

        let len = (unit * count) as usize;
        let (mut got, mut want) = (vec![0xEE; len], vec![0xEE; len]);
        let held = run.read_data_run(file, offset, unit, count, &mut got).unwrap();
        let looped_held = read_data_loop(&mut looped, file, offset, unit, count, &mut want).unwrap();
        prop_assert_eq!(observe(&run, device), observe(&looped, device),
            "{} run of {} x {} B at {}", device, count, unit, offset);
        prop_assert_eq!(held, looped_held);
        prop_assert_eq!(held, written != 0 || count == 0);
        if held {
            prop_assert_eq!(got, want);
        }

        for sm in [&mut run, &mut looped] {
            sm.read(file, probe_at, PAGE).unwrap();
        }
        prop_assert_eq!(observe(&run, device), observe(&looped, device),
            "{} probe at {} after the run", device, probe_at);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// `StorageSim::write_run` against the loop of `write` it stands for. A
    /// case is a few steps — write runs interleaved with single reads and
    /// writes, so each run meets the HDD head and the flash drive's open
    /// erase block wherever the step before left them — and after every
    /// step the clock's bits and the full `DeviceStats` must be the loop's.
    /// Units are empty, below a page, a page, above a page or five pages
    /// (Table 1's 20 KiB output buffer); offsets sit on a page boundary of
    /// the device (the HDD's page-aligned path), on one of the file only,
    /// anywhere, or where the step before ended (so a head left one request
    /// short would seek).
    #[test]
    fn write_run_equals_the_loop_of_writes(
        device in 0usize..3,
        steps in proptest::collection::vec(
            ((0u32..4, 0u32..6, 1u64..PAGE), (0u32..4, 0u64..FILE_LEN / 2, 0u64..81)),
            1..8,
        ),
        probe_at in 0u64..FILE_LEN - PAGE,
    ) {
        let (mut run, files) = sim();
        let (mut looped, _) = sim();
        let (device, file) = files[device];
        let mut end = 0;
        for ((kind, unit_kind, unit_draw), (align, at, count)) in steps {
            let unit = match unit_kind {
                0 => 0,
                1 => unit_draw,
                2 => PAGE,
                3 => PAGE + unit_draw,
                4 => 5 * PAGE,
                _ => 1 + unit_draw % 64,
            };
            let offset = match align {
                0 => at / PAGE * PAGE + (PAGE - PADDING % PAGE),
                1 => at / PAGE * PAGE,
                2 => at,
                _ => end.min(FILE_LEN / 2),
            };
            let count = count.min((FILE_LEN - offset) / unit.max(1));
            end = offset + if kind < 2 { unit * count } else { unit };
            match kind {
                0 | 1 => {
                    run.write_run(file, offset, unit, count).unwrap();
                    for j in 0..count {
                        looped.write(file, offset + j * unit, unit).unwrap();
                    }
                }
                2 => {
                    for sm in [&mut run, &mut looped] {
                        sm.read(file, offset, unit.max(1)).unwrap();
                    }
                }
                _ => {
                    for sm in [&mut run, &mut looped] {
                        sm.write(file, offset, unit).unwrap();
                    }
                }
            }
            prop_assert_eq!(observe(&run, device), observe(&looped, device),
                "{} step {} of {} x {} B at {}", device, kind, count, unit, offset);
        }

        // The next requests see the same device state (head, open block).
        for sm in [&mut run, &mut looped] {
            sm.write(file, probe_at, PAGE).unwrap();
            sm.read(file, probe_at / 2, PAGE).unwrap();
        }
        prop_assert_eq!(observe(&run, device), observe(&looped, device),
            "{} probes at {} after the runs", device, probe_at);
    }
}

/// The write run's side of the documented difference, on every device
/// kind: a run leaving the file charges nothing, where the loop writes the
/// in-bounds prefix before it fails.
#[test]
fn out_of_bounds_write_run_is_rejected_before_anything_is_charged() {
    let (unit, count) = (PAGE, FILE_LEN / PAGE + 1);
    for i in 0..3 {
        let (mut run, files) = sim();
        let (mut looped, _) = sim();
        let (device, file) = files[i];
        let untouched = observe(&run, device);
        assert!(matches!(
            run.write_run(file, 0, unit, count),
            Err(StorageError::OutOfBounds { .. })
        ));
        assert_eq!(observe(&run, device), untouched, "{device}");

        let failed_at = (0..count).find(|j| looped.write(file, j * unit, unit).is_err());
        assert_eq!(failed_at, Some(count - 1), "{device}");
        assert!(looped.device_stats(device).unwrap().bytes_written >= FILE_LEN);

        run.write_run(file, FILE_LEN + 1, unit, 0).unwrap();
        assert_eq!(observe(&run, device), untouched, "{device}: an empty run");
    }
}

/// The documented difference: the run checks its whole extent up front and
/// charges nothing when it would leave the file; the loop fails at the
/// first out-of-bounds request, after charging the ones before it.
#[test]
fn out_of_bounds_run_is_rejected_before_anything_is_charged() {
    let (mut run, files) = sim();
    let (mut looped, _) = sim();
    let (device, file) = files[0];
    let (unit, count) = (PAGE, FILE_LEN / PAGE + 1);

    let untouched = observe(&run, device);
    assert!(matches!(
        run.read_run(file, 0, unit, count),
        Err(StorageError::OutOfBounds { .. })
    ));
    assert_eq!(observe(&run, device), untouched);

    let failed_at = (0..count).find(|j| looped.read(file, j * unit, unit).is_err());
    assert_eq!(failed_at, Some(count - 1));
    assert_eq!(
        looped.device_stats(device).unwrap().bytes_read,
        FILE_LEN + PAGE,
        "the loop charged the in-bounds prefix (page-rounded: the file starts mid-page)"
    );

    // An empty run asks for nothing, wherever it points.
    run.read_run(file, FILE_LEN + 1, unit, 0).unwrap();
    assert_eq!(observe(&run, device), untouched);
}
