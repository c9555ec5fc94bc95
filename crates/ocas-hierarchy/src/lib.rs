//! Memory & storage model for OCAS (paper §4, Figures 3 and 7).
//!
//! A memory hierarchy is a **tree** whose nodes are hardware components able
//! to store data and whose edges represent the ability to transfer data
//! between adjacent components. The root is the fastest level — the only one
//! the (single) processing unit can compute on. Each node carries the
//! properties of Figure 3 (`size`, `pagesize`, `maxSeqR`, `maxSeqW`); each
//! edge carries two directional cost metrics:
//!
//! * **InitCom** — the cost of initiating a transfer (a *seek* for hard
//!   disks, an *erase* for flash),
//! * **UnitTr** — the cost of transferring one byte.
//!
//! Costs are exact rationals in seconds (resp. seconds/byte) — the cost
//! estimator's own [`Rat`], so it simplifies formulas over them
//! deterministically, with no conversion.
//!
//! [`presets`] reproduces every hierarchy used in the paper's evaluation
//! with the constants of Figure 7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub use ocas_symbolic::Rat;

/// Identifies a node within a [`Hierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// What kind of hardware a node models; drives the behaviour of the storage
/// simulator (seek modelling for disks, erase blocks for flash, line-grain
/// miss counting for caches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Random-access memory: no positional state.
    Ram,
    /// Rotating disk: sequential access is cheap, moving the head costs a
    /// full `InitCom` (seek).
    Hdd,
    /// Flash/SSD: random reads are cheap; writes must erase a block first
    /// (`InitCom` per erase, with `maxSeqW` bytes writable per erase).
    Flash,
    /// CPU cache: set-associative, line-granular.
    Cache,
}

/// Per-node properties (paper Figure 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeProps {
    /// Device name used in programs' sequentiality annotations (`HDD`, `RAM`).
    pub name: String,
    /// Capacity in bytes. Must be positive.
    pub size: u64,
    /// Access granularity in bytes; `1` means byte-addressable. A power of
    /// two (a [`Hierarchy`] refuses other sizes with
    /// [`HierarchyError::InvalidProps`]), so the simulator rounds requests
    /// to pages with a mask.
    pub pagesize: u64,
    /// Maximum bytes readable with a single I/O request (`None` = unlimited).
    pub max_seq_read: Option<u64>,
    /// Maximum bytes writable with a single I/O request (`None` = unlimited).
    /// For flash drives this equals the erase-block size. A power of two
    /// when set (a [`Hierarchy`] refuses others with
    /// [`HierarchyError::InvalidProps`]).
    pub max_seq_write: Option<u64>,
    /// Device kind for the simulator.
    pub kind: DeviceKind,
}

impl NodeProps {
    /// Convenience constructor with byte-addressable, unlimited-sequence
    /// defaults.
    pub fn new(name: impl Into<String>, size: u64, kind: DeviceKind) -> NodeProps {
        NodeProps {
            name: name.into(),
            size,
            pagesize: 1,
            max_seq_read: None,
            max_seq_write: None,
            kind,
        }
    }

    /// Sets the page size, builder style. `pagesize` must be a power of
    /// two: a [`Hierarchy`] refuses the node otherwise.
    pub fn with_pagesize(mut self, pagesize: u64) -> NodeProps {
        self.pagesize = pagesize;
        self
    }

    /// Sets the maximum write-sequence length, builder style. `bytes` must
    /// be a power of two: a [`Hierarchy`] refuses the node otherwise.
    pub fn with_max_seq_write(mut self, bytes: u64) -> NodeProps {
        self.max_seq_write = Some(bytes);
        self
    }
}

/// One direction of an edge's costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostPair {
    /// Seconds to initiate one transfer.
    pub init_com: Rat,
    /// Seconds per byte transferred.
    pub unit_tr: Rat,
}

impl CostPair {
    /// A zero-cost direction (the paper: "costs not included are assumed to
    /// be zero").
    pub const FREE: CostPair = CostPair {
        init_com: Rat::ZERO,
        unit_tr: Rat::ZERO,
    };

    /// Builds a cost pair.
    ///
    /// # Panics
    /// Panics if either cost is negative.
    pub fn new(init_com: Rat, unit_tr: Rat) -> CostPair {
        assert!(
            !init_com.is_negative() && !unit_tr.is_negative(),
            "cost constants must be non-negative"
        );
        CostPair { init_com, unit_tr }
    }
}

/// Costs of the edge between a node and its parent, in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeCosts {
    /// Child → parent (toward the root; e.g. `HDD → RAM`).
    pub up: CostPair,
    /// Parent → child (away from the root; e.g. `RAM → HDD`).
    pub down: CostPair,
}

impl EdgeCosts {
    /// Symmetric costs in both directions.
    pub fn symmetric(pair: CostPair) -> EdgeCosts {
        EdgeCosts {
            up: pair,
            down: pair,
        }
    }
}

/// Errors building or querying a hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// Node name already used.
    DuplicateName(String),
    /// Referenced node does not exist.
    UnknownNode(String),
    /// A node property is invalid (zero size, a pagesize or `maxSeqW` that
    /// is not a power of two, …).
    InvalidProps {
        /// Node name.
        node: String,
        /// What is wrong.
        reason: String,
    },
    /// The two nodes are not adjacent in the tree.
    NotAdjacent(String, String),
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::DuplicateName(n) => write!(f, "duplicate node name `{n}`"),
            HierarchyError::UnknownNode(n) => write!(f, "unknown node `{n}`"),
            HierarchyError::InvalidProps { node, reason } => {
                write!(f, "invalid properties for `{node}`: {reason}")
            }
            HierarchyError::NotAdjacent(a, b) => {
                write!(f, "nodes `{a}` and `{b}` are not adjacent")
            }
        }
    }
}

impl std::error::Error for HierarchyError {}

/// A tree-shaped memory hierarchy.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    nodes: Vec<NodeProps>,
    parents: Vec<Option<(NodeId, EdgeCosts)>>,
}

impl Hierarchy {
    /// Creates a hierarchy whose root is the given (fastest) node.
    pub fn new(root: NodeProps) -> Result<Hierarchy, HierarchyError> {
        validate_props(&root)?;
        Ok(Hierarchy {
            nodes: vec![root],
            parents: vec![None],
        })
    }

    /// Adds a child below `parent`, connected with `costs`.
    pub fn add_child(
        &mut self,
        parent: &str,
        props: NodeProps,
        costs: EdgeCosts,
    ) -> Result<NodeId, HierarchyError> {
        validate_props(&props)?;
        if self.by_name(&props.name).is_some() {
            return Err(HierarchyError::DuplicateName(props.name));
        }
        let parent_id = self
            .by_name(parent)
            .ok_or_else(|| HierarchyError::UnknownNode(parent.to_string()))?;
        let id = NodeId(self.nodes.len());
        self.nodes.push(props);
        self.parents.push(Some((parent_id, costs)));
        Ok(id)
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Node properties by id.
    pub fn node(&self, id: NodeId) -> &NodeProps {
        &self.nodes[id.0]
    }

    /// Looks a node up by name.
    pub fn by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the hierarchy has only a root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Iterates over all node ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// The parent of a node (`None` for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.parents[id.0].as_ref().map(|(p, _)| *p)
    }

    /// Direct children of a node.
    pub fn children(&self, id: NodeId) -> Vec<NodeId> {
        self.parents
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p {
                Some((parent, _)) if *parent == id => Some(NodeId(i)),
                _ => None,
            })
            .collect()
    }

    /// Depth of a node (root = 0).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            cur = p;
            d += 1;
        }
        d
    }

    /// The path from `id` up to the root, inclusive on both ends.
    pub fn path_to_root(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = vec![id];
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            out.push(p);
            cur = p;
        }
        out
    }

    /// Transfer costs for the directed adjacent move `from → to`.
    pub fn edge(&self, from: NodeId, to: NodeId) -> Result<CostPair, HierarchyError> {
        if let Some((p, costs)) = &self.parents[from.0] {
            if *p == to {
                return Ok(costs.up);
            }
        }
        if let Some((p, costs)) = &self.parents[to.0] {
            if *p == from {
                return Ok(costs.down);
            }
        }
        Err(HierarchyError::NotAdjacent(
            self.node(from).name.clone(),
            self.node(to).name.clone(),
        ))
    }

    /// `InitCom[from → to]` in seconds for adjacent nodes.
    pub fn init_com(&self, from: NodeId, to: NodeId) -> Result<Rat, HierarchyError> {
        Ok(self.edge(from, to)?.init_com)
    }

    /// `UnitTr[from → to]` in seconds per byte for adjacent nodes.
    pub fn unit_tr(&self, from: NodeId, to: NodeId) -> Result<Rat, HierarchyError> {
        Ok(self.edge(from, to)?.unit_tr)
    }

    /// All storage (non-root) nodes.
    pub fn storage_nodes(&self) -> Vec<NodeId> {
        self.ids().filter(|id| *id != self.root()).collect()
    }
}

fn validate_props(p: &NodeProps) -> Result<(), HierarchyError> {
    let err = |reason: &str| HierarchyError::InvalidProps {
        node: p.name.clone(),
        reason: reason.to_string(),
    };
    if p.name.is_empty() {
        return Err(err("empty name"));
    }
    if p.size == 0 {
        return Err(err("size must be positive"));
    }
    if !p.pagesize.is_power_of_two() {
        return Err(err("pagesize must be a power of two"));
    }
    if let Some(m) = p.max_seq_read {
        if m == 0 {
            return Err(err("maxSeqR must be positive when set"));
        }
    }
    if let Some(m) = p.max_seq_write {
        if !m.is_power_of_two() {
            return Err(err("maxSeqW must be a power of two when set"));
        }
    }
    Ok(())
}

pub mod presets {
    //! The hierarchies of the paper's evaluation with the Figure 7 constants:
    //!
    //! ```text
    //! Hard disk:   size 1T,  pagesize 4K
    //! Flash drive: size 512G, maxSeqW = 256K
    //! Cache:       size 3M,  pagesize 512B
    //! InitCom[HDD ↔ RAM] = 15 ms       UnitTr[HDD ↔ RAM] = 1 s / 30 MiB
    //! InitCom[RAM → SSD] = 1.7 ms      UnitTr[SSD ↔ RAM] = 1 s / 120 MiB
    //! InitCom[RAM → Cache] = 0.1 ms
    //! ```
    //!
    //! Costs not listed are zero, as in the paper.

    use super::*;

    const KIB: u64 = 1024;
    const MIB: u64 = 1024 * KIB;
    const GIB: u64 = 1024 * MIB;
    const TIB: u64 = 1024 * GIB;

    /// Hard-disk properties of Figure 7.
    pub fn hdd_props(name: &str) -> NodeProps {
        NodeProps::new(name, TIB, DeviceKind::Hdd).with_pagesize(4 * KIB)
    }

    /// Flash-drive properties of Figure 7 (erase block = `maxSeqW` = 256 KiB).
    pub fn flash_props(name: &str) -> NodeProps {
        NodeProps::new(name, 512 * GIB, DeviceKind::Flash).with_max_seq_write(256 * KIB)
    }

    /// Cache properties of Figure 7.
    pub fn cache_props(name: &str) -> NodeProps {
        NodeProps::new(name, 3 * MIB, DeviceKind::Cache).with_pagesize(512)
    }

    /// RAM with a given capacity ("total buffer" column of Table 1).
    pub fn ram_props(name: &str, size: u64) -> NodeProps {
        NodeProps::new(name, size, DeviceKind::Ram)
    }

    /// `InitCom[HDD↔RAM] = 15 ms`, `UnitTr = 1 s / 30 MiB`, symmetric.
    pub fn hdd_edge() -> EdgeCosts {
        EdgeCosts::symmetric(CostPair::new(
            Rat::millis(15),
            Rat::per_bytes_of_second(30 * MIB as i128),
        ))
    }

    /// Flash edge: reads are free to initiate (no seek); writes pay the
    /// 1.7 ms erase; both directions move 120 MiB/s.
    pub fn flash_edge() -> EdgeCosts {
        let unit = Rat::per_bytes_of_second(120 * MIB as i128);
        EdgeCosts {
            up: CostPair::new(Rat::ZERO, unit),
            down: CostPair::new(Rat::new(17, 10_000), unit),
        }
    }

    /// Cache edge: `InitCom[RAM → Cache] = 0.1 ms`, transfers free.
    pub fn cache_edge() -> EdgeCosts {
        EdgeCosts {
            up: CostPair::FREE,
            down: CostPair::new(Rat::new(1, 10_000), Rat::ZERO),
        }
    }

    /// RAM (root) with a single HDD below — the hierarchy of Example 1 and
    /// of the BNL/GRACE/sort rows of Table 1.
    pub fn hdd_ram(ram_size: u64) -> Hierarchy {
        let mut h = Hierarchy::new(ram_props("RAM", ram_size)).expect("valid root");
        h.add_child("RAM", hdd_props("HDD"), hdd_edge())
            .expect("valid child");
        h
    }

    /// Cache-extended hierarchy: Cache (root) ← RAM ← HDD, used by the
    /// "BNL with cache" row (loop tiling).
    pub fn hdd_ram_cache(ram_size: u64) -> Hierarchy {
        let mut h = Hierarchy::new(cache_props("Cache")).expect("valid root");
        h.add_child("Cache", ram_props("RAM", ram_size), cache_edge())
            .expect("valid child");
        h.add_child("RAM", hdd_props("HDD"), hdd_edge())
            .expect("valid child");
        h
    }

    /// RAM with two independent hard disks (reads from one, writes to the
    /// other) — the "BNL wr. to other HDD" row.
    pub fn two_hdd_ram(ram_size: u64) -> Hierarchy {
        let mut h = Hierarchy::new(ram_props("RAM", ram_size)).expect("valid root");
        h.add_child("RAM", hdd_props("HDD"), hdd_edge())
            .expect("valid child");
        h.add_child("RAM", hdd_props("HDD2"), hdd_edge())
            .expect("valid child");
        h
    }

    /// RAM with a hard disk (input) and a flash drive (output) — the
    /// "BNL writing to flash" row.
    pub fn hdd_flash_ram(ram_size: u64) -> Hierarchy {
        let mut h = Hierarchy::new(ram_props("RAM", ram_size)).expect("valid root");
        h.add_child("RAM", hdd_props("HDD"), hdd_edge())
            .expect("valid child");
        h.add_child("RAM", flash_props("SSD"), flash_edge())
            .expect("valid child");
        h
    }

    /// The full experimental platform of Figure 7 (HDD + SSD + cache) —
    /// not used directly by any single Table 1 row but handy for examples.
    pub fn paper_platform(ram_size: u64) -> Hierarchy {
        let mut h = Hierarchy::new(cache_props("Cache")).expect("valid root");
        h.add_child("Cache", ram_props("RAM", ram_size), cache_edge())
            .expect("valid child");
        h.add_child("RAM", hdd_props("HDD"), hdd_edge())
            .expect("valid child");
        h.add_child("RAM", flash_props("SSD"), flash_edge())
            .expect("valid child");
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_cost_rejected() {
        let _ = CostPair::new(Rat::new(-1, 2), Rat::ZERO);
    }

    #[test]
    fn figure7_constants() {
        let h = presets::hdd_ram(32 * 1024 * 1024);
        let ram = h.by_name("RAM").unwrap();
        let hdd = h.by_name("HDD").unwrap();
        assert_eq!(h.init_com(hdd, ram).unwrap(), Rat::new(3, 200)); // 15 ms
        assert_eq!(h.init_com(ram, hdd).unwrap(), Rat::new(3, 200));
        assert_eq!(h.unit_tr(hdd, ram).unwrap(), Rat::new(1, 30 * 1024 * 1024));
        assert_eq!(h.node(hdd).pagesize, 4096);
        assert_eq!(h.node(hdd).size, 1 << 40);
    }

    #[test]
    fn flash_reads_free_writes_erase() {
        let h = presets::hdd_flash_ram(1 << 28);
        let ram = h.by_name("RAM").unwrap();
        let ssd = h.by_name("SSD").unwrap();
        assert!(h.init_com(ssd, ram).unwrap().is_zero());
        assert_eq!(h.init_com(ram, ssd).unwrap(), Rat::new(17, 10_000));
        assert_eq!(h.node(ssd).max_seq_write, Some(256 * 1024));
    }

    #[test]
    fn cache_hierarchy_shape() {
        let h = presets::hdd_ram_cache(1 << 25);
        let cache = h.by_name("Cache").unwrap();
        let ram = h.by_name("RAM").unwrap();
        let hdd = h.by_name("HDD").unwrap();
        assert_eq!(h.root(), cache);
        assert_eq!(h.parent(ram), Some(cache));
        assert_eq!(h.parent(hdd), Some(ram));
        assert_eq!(h.depth(hdd), 2);
        assert_eq!(h.path_to_root(hdd), vec![hdd, ram, cache]);
        assert_eq!(h.node(cache).pagesize, 512);
        assert_eq!(h.node(cache).size, 3 * 1024 * 1024);
    }

    #[test]
    fn adjacency_is_enforced() {
        let h = presets::hdd_ram_cache(1 << 25);
        let cache = h.by_name("Cache").unwrap();
        let hdd = h.by_name("HDD").unwrap();
        assert!(matches!(
            h.edge(hdd, cache),
            Err(HierarchyError::NotAdjacent(_, _))
        ));
    }

    #[test]
    fn two_hdds_are_siblings() {
        let h = presets::two_hdd_ram(1 << 28);
        let ram = h.by_name("RAM").unwrap();
        let kids = h.children(ram);
        assert_eq!(kids.len(), 2);
        assert_eq!(h.storage_nodes().len(), 2);
    }

    #[test]
    fn builder_validation() {
        assert!(Hierarchy::new(NodeProps::new("", 10, DeviceKind::Ram)).is_err());
        assert!(Hierarchy::new(NodeProps::new("X", 0, DeviceKind::Ram)).is_err());
        let mut h = Hierarchy::new(NodeProps::new("RAM", 10, DeviceKind::Ram)).unwrap();
        assert!(matches!(
            h.add_child("nope", presets::hdd_props("HDD"), presets::hdd_edge()),
            Err(HierarchyError::UnknownNode(_))
        ));
        h.add_child("RAM", presets::hdd_props("HDD"), presets::hdd_edge())
            .unwrap();
        assert!(matches!(
            h.add_child("RAM", presets::hdd_props("HDD"), presets::hdd_edge()),
            Err(HierarchyError::DuplicateName(_))
        ));
    }

    #[test]
    fn pages_and_erase_blocks_are_powers_of_two() {
        let node = |props: NodeProps| Hierarchy::new(props).map(|_| ());
        let refused = |props: NodeProps, why: &str| match node(props) {
            Err(HierarchyError::InvalidProps { reason, .. }) => assert!(reason.contains(why)),
            other => panic!("expected InvalidProps ({why}), got {other:?}"),
        };
        let hdd = || NodeProps::new("HDD", 1 << 40, DeviceKind::Hdd);
        let ssd = || NodeProps::new("SSD", 1 << 40, DeviceKind::Flash);
        refused(hdd().with_pagesize(3000), "pagesize");
        refused(hdd().with_pagesize(0), "pagesize");
        refused(ssd().with_max_seq_write(100_000), "maxSeqW");
        refused(ssd().with_max_seq_write(0), "maxSeqW");
        for bytes in [1, 512, 4096, 256 * 1024] {
            assert_eq!(node(hdd().with_pagesize(bytes)), Ok(()), "pagesize {bytes}");
            assert_eq!(
                node(ssd().with_max_seq_write(bytes)),
                Ok(()),
                "maxSeqW {bytes}"
            );
        }
        // A child is held to the same rule.
        let mut h = Hierarchy::new(NodeProps::new("RAM", 1 << 20, DeviceKind::Ram)).unwrap();
        assert!(matches!(
            h.add_child("RAM", hdd().with_pagesize(3000), presets::hdd_edge()),
            Err(HierarchyError::InvalidProps { .. })
        ));
    }

    #[test]
    fn rational_constants_are_exact() {
        // 1 GiB over the HDD edge: 1024/30 s = 512/15 s ≈ 34.13 s.
        let unit = Rat::per_bytes_of_second(30 * 1024 * 1024);
        let total = unit * Rat::new(1 << 30, 1);
        assert_eq!(total, Rat::new(512, 15));
        assert!((total.to_f64() - 34.1333).abs() < 1e-3);
    }
}
