//! # OCAS — the Out-of-Core Algorithm Synthesizer
//!
//! A from-scratch Rust reproduction of Klonatos, Nötzli, Spielmann, Koch &
//! Kuncak, *Automatic Synthesis of Out-of-Core Algorithms*, SIGMOD 2013.
//!
//! Given (1) a naive, memory-hierarchy-oblivious algorithm in the OCAL DSL
//! and (2) a tree-shaped description of the target memory hierarchy, the
//! [`Synthesizer`] explores the space of equivalent programs generated by
//! the paper's transformation rules, costs each candidate with the static
//! I/O model of §5, tunes block/buffer parameters with a derivative-free
//! non-linear optimizer, and returns the cheapest algorithm — the Block
//! Nested Loops join, the GRACE hash join and the 2ᵏ-way External
//! Merge-Sort all emerge from their one-line specifications.
//!
//! # Quickstart
//!
//! ```
//! use ocas::{specs, Synthesizer};
//! use ocas_cost::Layout;
//! use ocas_hierarchy::presets;
//!
//! // The naive join of the paper's Example 1, at small scale.
//! let spec = specs::join(4096, 512, false);
//! let hierarchy = presets::hdd_ram(64 * 1024);
//! let layout = Layout::all_inputs_on("HDD", &["R", "S"]);
//! let synth = Synthesizer::new(hierarchy, layout)
//!     .with_depth(4)
//!     .with_max_programs(200)
//!     .without_rules(&["hash-part", "prefetch", "fldL-to-trfld"]);
//! let result = synth.synthesize(&spec).unwrap();
//! assert!(result.best.seconds < result.spec.seconds / 10.0,
//!         "the synthesized join must beat the naive one by far");
//! ```
//!
//! The [`experiments`] module regenerates every row of the paper's Table 1
//! and every point of Figure 8 (against the simulated storage hierarchy —
//! see DESIGN.md for the substitution argument); [`verify`] re-checks §7.2's
//! "textbook shape" claims structurally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod real;
pub mod specs;
pub mod synth;
pub mod verify;

pub use real::RealRunSetup;
pub use specs::Spec;
pub use synth::{Candidate, SynthError, Synthesis, Synthesizer};
