//! # crimson-simulation — gold-standard simulation trees and sequence data
//!
//! The CIPRes modeling effort the paper supports generates "very large tree
//! models and very complex sequence evolution models" that act as a *gold
//! standard* against which reconstruction algorithms are benchmarked. The
//! curated CIPRes trees themselves are not available, so this crate is the
//! substitution: stochastic tree generators and standard
//! molecular-evolution models producing trees and alignments with the same
//! structural properties (depth, size, branch-length distribution, species
//! data volume) the real gold standards have.
//!
//! Components:
//!
//! * [`birth_death`] — Yule (pure-birth) and birth–death tree generators with
//!   exponential waiting times, plus extinct-lineage pruning;
//! * [`seqevo`] — nucleotide substitution models (JC69, K2P, F81, HKY85) and
//!   simulation of sequence evolution along a tree;
//! * [`gold`] — the [`gold::GoldStandard`] builder tying both together and
//!   exporting NEXUS documents that the Crimson loader ingests.
//!
//! ```
//! use simulation::gold::GoldStandardBuilder;
//!
//! let gold = GoldStandardBuilder::new()
//!     .leaves(32)
//!     .sequence_length(200)
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! assert_eq!(gold.tree.leaf_count(), 32);
//! assert_eq!(gold.sequences.len(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod birth_death;
pub mod gold;
pub mod seqevo;

pub use birth_death::{birth_death_tree, yule_tree, BirthDeathConfig};
pub use gold::{GoldStandard, GoldStandardBuilder};
pub use seqevo::{evolve_sequences, Model};
