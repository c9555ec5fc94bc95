//! Device timing models.

use ocas_hierarchy::{CostPair, DeviceKind, NodeProps};

/// Cumulative per-device statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceStats {
    /// Seeks performed (HDD) — the simulator's InitCom events on reads.
    pub seeks: u64,
    /// Erase operations (flash).
    pub erases: u64,
    /// Bytes read from the device.
    pub bytes_read: u64,
    /// Bytes written to the device.
    pub bytes_written: u64,
    /// Total simulated seconds spent on this device.
    pub busy_seconds: f64,
}

/// Rotating-disk model: moving the head costs a seek (`InitCom`), transfers
/// run at the edge's `UnitTr` rate, and all accesses are rounded to page
/// boundaries.
///
/// Page sizes are powers of two (the hierarchy refuses others), so the
/// rounding is a mask: no request divides.
#[derive(Debug, Clone)]
pub struct HddSim {
    name: String,
    head: u64,
    /// `pagesize - 1`.
    page_mask: u64,
    seek_seconds: f64,
    secs_per_byte_read: f64,
    secs_per_byte_write: f64,
    stats: DeviceStats,
}

impl HddSim {
    /// Builds the model from node properties and its edge costs.
    ///
    /// # Panics
    ///
    /// If `props.pagesize` is not a power of two, which
    /// [`Hierarchy`](ocas_hierarchy::Hierarchy) never lets through.
    pub fn new(props: &NodeProps, up: CostPair, down: CostPair) -> HddSim {
        assert!(
            props.pagesize.is_power_of_two(),
            "HDD `{}`: pagesize {} is not a power of two",
            props.name,
            props.pagesize
        );
        HddSim {
            name: props.name.clone(),
            head: 0,
            page_mask: props.pagesize - 1,
            seek_seconds: up.init_com.to_f64(),
            secs_per_byte_read: up.unit_tr.to_f64(),
            secs_per_byte_write: down.unit_tr.to_f64(),
            stats: DeviceStats::default(),
        }
    }

    /// The whole pages `[start, start + span)` that bytes `[offset, offset
    /// + len)` touch.
    #[inline]
    fn page_extent(&self, offset: u64, len: u64) -> (u64, u64) {
        let start = offset & !self.page_mask;
        let end = (offset + len + self.page_mask) & !self.page_mask;
        (start, end - start)
    }

    /// Reads `len` bytes at `offset`; returns simulated seconds.
    ///
    /// Sequential sub-page reads are coalesced: a request that falls inside
    /// the page the head just passed is served from the device/OS read-ahead
    /// for free (otherwise an element-at-a-time sequential scan would be
    /// charged a full page per element, which no real stack does).
    pub fn read(&mut self, offset: u64, len: u64) -> f64 {
        let (start, span) = self.page_extent(offset, len);
        let end = start + span;
        let ahead = start >= self.head.saturating_sub(self.page_mask + 1);
        // Fully covered by the page(s) just read: read-ahead hit.
        if ahead && end <= self.head {
            return 0.0;
        }
        let mut t = 0.0;
        let charged = if ahead && start < self.head {
            // Overlaps the current read-ahead window: pay only the new
            // pages, no seek.
            end - self.head
        } else {
            if start != self.head {
                t += self.seek_seconds;
                self.stats.seeks += 1;
            }
            span
        };
        t += charged as f64 * self.secs_per_byte_read;
        self.head = end;
        self.stats.bytes_read += charged;
        self.stats.busy_seconds += t;
        t
    }

    /// `count` back-to-back reads of `unit` bytes starting at `offset`,
    /// adding each request's seconds to `clock` in request order — the
    /// same floating-point sums, counters and head position as calling
    /// [`read`](HddSim::read) `count` times, at the cost of the requests
    /// the device is *charged* for only.
    ///
    /// Once request `j` has been served the head sits on the page boundary
    /// at or past its end, so every later request that ends at or before
    /// the head (index below `(head - offset) / unit`) starts inside the
    /// read-ahead window: `read` would return `0.0` for it without touching
    /// a counter, and the run steps over all of them at once.
    pub fn read_run(&mut self, offset: u64, unit: u64, count: u64, clock: &mut f64) {
        let mut j = 0;
        while j < count {
            *clock += self.read(offset + j * unit, unit);
            j += 1;
            // Divides only when the next request ends inside the window.
            if unit > 0 && offset + (j + 1) * unit <= self.head {
                j = ((self.head - offset) / unit).min(count);
            }
        }
    }

    /// Writes `len` bytes at `offset`; returns simulated seconds.
    pub fn write(&mut self, offset: u64, len: u64) -> f64 {
        let (start, span) = self.page_extent(offset, len);
        let mut t = 0.0;
        if start != self.head {
            t += self.seek_seconds;
            self.stats.seeks += 1;
        }
        t += span as f64 * self.secs_per_byte_write;
        self.head = start + span;
        self.stats.bytes_written += span;
        self.stats.busy_seconds += t;
        t
    }

    /// `count` back-to-back writes of `unit` bytes starting at `offset`,
    /// adding each request's seconds to `clock` in request order — the
    /// same floating-point sums, counters and head position as calling
    /// [`write`](HddSim::write) `count` times.
    ///
    /// Every write is charged, so every request's seconds are added; what
    /// the run saves is each request's page rounding, seek test and counter
    /// updates. When `offset` and `unit` are whole pages, each request after
    /// the first starts where the head stopped: no seek, a span of `unit`,
    /// the same seconds every time.
    pub fn write_run(&mut self, offset: u64, unit: u64, count: u64, clock: &mut f64) {
        if count == 0 {
            return;
        }
        if (offset | unit) & self.page_mask != 0 {
            for j in 0..count {
                *clock += self.write(offset + j * unit, unit);
            }
            return;
        }
        *clock += self.write(offset, unit);
        let t = unit as f64 * self.secs_per_byte_write;
        for _ in 1..count {
            *clock += t;
            self.stats.busy_seconds += t;
        }
        self.head = offset + unit * count;
        self.stats.bytes_written += unit * (count - 1);
    }
}

/// Flash model: reads are seek-free; writing into an erase block not written
/// since its last erase costs one erase (`InitCom`).
///
/// Erase blocks are powers of two (the hierarchy refuses other `maxSeqW`),
/// so a byte's block is a shift: no request divides.
#[derive(Debug, Clone)]
pub struct FlashSim {
    name: String,
    /// `log2` of the erase block size.
    erase_shift: u32,
    erase_seconds: f64,
    secs_per_byte_read: f64,
    secs_per_byte_write: f64,
    /// Erase block currently "open" for appending.
    open_block: Option<u64>,
    stats: DeviceStats,
}

impl FlashSim {
    /// Builds the model from node properties and its edge costs; without
    /// a `maxSeqW` the erase block is 256 KiB.
    ///
    /// # Panics
    ///
    /// If `props.max_seq_write` is not a power of two, which
    /// [`Hierarchy`](ocas_hierarchy::Hierarchy) never lets through.
    pub fn new(props: &NodeProps, up: CostPair, down: CostPair) -> FlashSim {
        let erase_block = props.max_seq_write.unwrap_or(256 * 1024);
        assert!(
            erase_block.is_power_of_two(),
            "flash `{}`: maxSeqW {erase_block} is not a power of two",
            props.name
        );
        FlashSim {
            name: props.name.clone(),
            erase_shift: erase_block.trailing_zeros(),
            erase_seconds: down.init_com.to_f64(),
            secs_per_byte_read: up.unit_tr.to_f64(),
            secs_per_byte_write: down.unit_tr.to_f64(),
            open_block: None,
            stats: DeviceStats::default(),
        }
    }

    /// Reads `len` bytes; returns simulated seconds (no seek component).
    pub fn read(&mut self, _offset: u64, len: u64) -> f64 {
        let t = len as f64 * self.secs_per_byte_read;
        self.stats.bytes_read += len;
        self.stats.busy_seconds += t;
        t
    }

    /// The first and last erase blocks that bytes `[offset, offset + len)`
    /// touch (a zero-length write touches the block at `offset`).
    #[inline]
    fn erase_blocks(&self, offset: u64, len: u64) -> (u64, u64) {
        let last = offset + len.max(1) - 1;
        (offset >> self.erase_shift, last >> self.erase_shift)
    }

    /// Writes `len` bytes at `offset`; erases every newly-touched block.
    pub fn write(&mut self, offset: u64, len: u64) -> f64 {
        let (first, last) = self.erase_blocks(offset, len);
        let mut t = len as f64 * self.secs_per_byte_write;
        for b in first..=last {
            if self.open_block != Some(b) {
                t += self.erase_seconds;
                self.stats.erases += 1;
                self.open_block = Some(b);
            }
        }
        self.stats.bytes_written += len;
        self.stats.busy_seconds += t;
        t
    }
}

/// RAM model: transfers are free at this level (the paper zeroes RAM costs
/// for I/O-bound workloads); it exists so files can live "in memory".
#[derive(Debug, Clone)]
pub struct RamSim {
    name: String,
    stats: DeviceStats,
}

impl RamSim {
    /// Builds the model.
    pub fn new(props: &NodeProps) -> RamSim {
        RamSim {
            name: props.name.clone(),
            stats: DeviceStats::default(),
        }
    }
}

/// A simulated device of any kind.
#[derive(Debug, Clone)]
pub enum DeviceSim {
    /// Rotating disk.
    Hdd(HddSim),
    /// Flash drive.
    Flash(FlashSim),
    /// Main memory.
    Ram(RamSim),
}

impl DeviceSim {
    /// Builds the right model for a hierarchy node.
    pub fn for_node(props: &NodeProps, up: CostPair, down: CostPair) -> DeviceSim {
        match props.kind {
            DeviceKind::Hdd => DeviceSim::Hdd(HddSim::new(props, up, down)),
            DeviceKind::Flash => DeviceSim::Flash(FlashSim::new(props, up, down)),
            DeviceKind::Ram | DeviceKind::Cache => DeviceSim::Ram(RamSim::new(props)),
        }
    }

    /// Device name.
    pub fn name(&self) -> &str {
        match self {
            DeviceSim::Hdd(d) => &d.name,
            DeviceSim::Flash(d) => &d.name,
            DeviceSim::Ram(d) => &d.name,
        }
    }

    /// Reads and returns simulated seconds.
    pub fn read(&mut self, offset: u64, len: u64) -> f64 {
        match self {
            DeviceSim::Hdd(d) => d.read(offset, len),
            DeviceSim::Flash(d) => d.read(offset, len),
            DeviceSim::Ram(d) => {
                d.stats.bytes_read += len;
                0.0
            }
        }
    }

    /// `count` back-to-back reads of `unit` bytes starting at `offset`,
    /// each request's seconds added to `clock` in request order: equal to
    /// the last bit to `count` calls of [`read`](DeviceSim::read). Only the
    /// HDD can skip work (see [`HddSim::read_run`]); flash charges every
    /// request, so it keeps the loop, and RAM only counts bytes.
    pub fn read_run(&mut self, offset: u64, unit: u64, count: u64, clock: &mut f64) {
        match self {
            DeviceSim::Hdd(d) => d.read_run(offset, unit, count, clock),
            DeviceSim::Flash(d) => {
                for j in 0..count {
                    *clock += d.read(offset + j * unit, unit);
                }
            }
            DeviceSim::Ram(d) => d.stats.bytes_read += unit * count,
        }
    }

    /// Writes and returns simulated seconds.
    pub fn write(&mut self, offset: u64, len: u64) -> f64 {
        match self {
            DeviceSim::Hdd(d) => d.write(offset, len),
            DeviceSim::Flash(d) => d.write(offset, len),
            DeviceSim::Ram(d) => {
                d.stats.bytes_written += len;
                0.0
            }
        }
    }

    /// `count` back-to-back writes of `unit` bytes starting at `offset`,
    /// each request's seconds added to `clock` in request order: equal to
    /// the last bit to `count` calls of [`write`](DeviceSim::write). The HDD
    /// charges page-aligned runs without rounding each request (see
    /// [`HddSim::write_run`]); flash may open a new erase block at any
    /// request, so it keeps the loop; RAM only counts bytes.
    pub fn write_run(&mut self, offset: u64, unit: u64, count: u64, clock: &mut f64) {
        match self {
            DeviceSim::Hdd(d) => d.write_run(offset, unit, count, clock),
            DeviceSim::Flash(d) => {
                for j in 0..count {
                    *clock += d.write(offset + j * unit, unit);
                }
            }
            DeviceSim::Ram(d) => d.stats.bytes_written += unit * count,
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DeviceStats {
        match self {
            DeviceSim::Hdd(d) => d.stats,
            DeviceSim::Flash(d) => d.stats,
            DeviceSim::Ram(d) => d.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocas_hierarchy::presets;
    use proptest::prelude::*;

    fn hdd() -> HddSim {
        let e = presets::hdd_edge();
        HddSim::new(&presets::hdd_props("HDD"), e.up, e.down)
    }

    #[test]
    fn sequential_reads_seek_once() {
        let mut d = hdd();
        let mut t = 0.0;
        for i in 0..100u64 {
            t += d.read(i * 4096, 4096);
        }
        assert_eq!(d.stats.seeks, 0, "offset 0 start means head is in place");
        // 100 pages at 30 MiB/s.
        let expect = 100.0 * 4096.0 / (30.0 * 1024.0 * 1024.0);
        assert!((t - expect).abs() < 1e-9);
    }

    #[test]
    fn random_reads_seek_every_time() {
        let mut d = hdd();
        for i in 0..10u64 {
            d.read((10 - i) * (1 << 20), 4096);
        }
        assert_eq!(d.stats.seeks, 10);
        assert!(d.stats.busy_seconds > 10.0 * 0.015);
    }

    #[test]
    fn interleaved_read_write_thrashes_the_head() {
        let mut d = hdd();
        // Alternate reading the low region and writing the high region.
        for i in 0..50u64 {
            d.read(i * 4096, 4096);
            d.write((1 << 30) + i * 4096, 4096);
        }
        // Every access after the first moves the head.
        assert!(d.stats.seeks >= 99, "seeks: {}", d.stats.seeks);
    }

    #[test]
    fn page_rounding_inflates_small_reads() {
        let mut d = hdd();
        d.read(10, 8); // 8 bytes -> one full 4 KiB page
        assert_eq!(d.stats.bytes_read, 4096);
    }

    #[test]
    fn flash_erases_per_block() {
        let e = presets::flash_edge();
        let mut f = FlashSim::new(&presets::flash_props("SSD"), e.up, e.down);
        // Sequential write of 1 MiB = 4 erase blocks of 256 KiB.
        let mut offset = 0;
        while offset < 1 << 20 {
            f.write(offset, 64 * 1024);
            offset += 64 * 1024;
        }
        assert_eq!(f.stats.erases, 4);
        // Reads never erase or seek.
        let t = f.read(0, 1 << 20);
        let expect = (1 << 20) as f64 / (120.0 * 1024.0 * 1024.0);
        assert!((t - expect).abs() < 1e-9);
    }

    #[test]
    fn flash_random_writes_erase_more() {
        let e = presets::flash_edge();
        let mut f = FlashSim::new(&presets::flash_props("SSD"), e.up, e.down);
        // Alternating between two blocks erases on every write.
        for i in 0..10u64 {
            f.write((i % 2) * (1 << 20), 4096);
        }
        assert_eq!(f.stats.erases, 10);
    }

    /// An HDD with `pagesize`-byte pages and a flash drive with
    /// `pagesize`-byte erase blocks.
    fn devices(pagesize: u64) -> (HddSim, FlashSim) {
        let (h, f) = (presets::hdd_edge(), presets::flash_edge());
        let hdd = NodeProps::new("HDD", 1 << 50, DeviceKind::Hdd).with_pagesize(pagesize);
        let ssd = NodeProps::new("SSD", 1 << 50, DeviceKind::Flash).with_max_seq_write(pagesize);
        (
            HddSim::new(&hdd, h.up, h.down),
            FlashSim::new(&ssd, f.up, f.down),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// Page and erase-block rounding by mask and shift equal the
        /// division form they replaced, at every power-of-two size from 1
        /// byte to 256 KiB, at and around block boundaries, for lengths of
        /// 0 and 1 byte, inside one block and across many.
        #[test]
        fn mask_rounding_equals_division(
            (log2, at, near, kind) in (0u32..19, 0u64..1 << 46, 0u32..3, 0u32..4),
            drawn in 0u64..1 << 22,
        ) {
            let size = 1u64 << log2;
            let offset = match near {
                0 => at,
                1 => at / size * size,
                _ => (at / size * size).saturating_sub(1),
            };
            let len = match kind {
                0 => 0,
                1 => 1,
                2 => drawn % (2 * size),
                _ => drawn,
            };
            let (hdd, flash) = devices(size);
            let start = offset / size * size;
            let end = (offset + len).div_ceil(size) * size;
            prop_assert_eq!(hdd.page_extent(offset, len), (start, end - start));
            let last = (offset + len.max(1) - 1) / size;
            prop_assert_eq!(flash.erase_blocks(offset, len), (offset / size, last));
        }
    }

    #[test]
    fn a_flash_write_straddling_erase_blocks_erases_each_once() {
        let (_, mut f) = devices(256 * 1024);
        // The last 100 bytes of block 0 and the first 200 of block 1.
        f.write(256 * 1024 - 100, 300);
        assert_eq!(f.stats.erases, 2);
        // Block 1 is open: appending to it erases nothing.
        f.write(256 * 1024 + 200, 4096);
        assert_eq!(f.stats.erases, 2);
        // Blocks 1 (open), 2, 3 and 4: three erases.
        f.write(256 * 1024 + 4296, 3 * 256 * 1024);
        assert_eq!(f.stats.erases, 5);
        assert_eq!(f.erase_blocks(256 * 1024 + 4296, 3 * 256 * 1024), (1, 4));
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn an_hdd_page_that_is_not_a_power_of_two_is_refused() {
        let e = presets::hdd_edge();
        let props = NodeProps::new("HDD", 1 << 40, DeviceKind::Hdd).with_pagesize(3000);
        HddSim::new(&props, e.up, e.down);
    }

    #[test]
    fn ram_is_free() {
        let mut r = DeviceSim::Ram(RamSim::new(&presets::ram_props("RAM", 1 << 20)));
        assert_eq!(r.read(0, 1 << 19), 0.0);
        assert_eq!(r.write(0, 1 << 19), 0.0);
        assert_eq!(r.stats().bytes_read, 1 << 19);
    }
}
