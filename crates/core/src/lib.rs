//! # soc-core — self-organizing strategies for a column store
//!
//! A faithful reproduction of the core of *"Self-organizing Strategies for
//! a Column-store Database"* (Ivanova, Kersten, Nes — EDBT 2008): two
//! workload-driven reorganization techniques for value-organized columns,
//! driven by pluggable segmentation models.
//!
//! * **Adaptive segmentation** ([`AdaptiveSegmentation`], Section 4) keeps a
//!   column as a list of adjacent value-ranged segments and eagerly splits
//!   the segments each range selection overlaps, in place.
//! * **Adaptive replication** ([`AdaptiveReplication`], Section 5) grows a
//!   replica tree: selection results are retained as materialized replicas,
//!   complements become virtual segments materialized lazily by later
//!   queries; fully replicated parents are dropped to reclaim storage.
//! * **Segmentation models** ([`GaussianDice`], [`AdaptivePageModel`],
//!   Section 3.2) decide split-or-not from size estimates only.
//!
//! ## Quick start
//!
//! ```
//! use soc_core::{
//!     AdaptivePageModel, AdaptiveSegmentation, ColumnStrategy, CountingTracker,
//!     SegmentedColumn, SizeEstimator, ValueRange,
//! };
//!
//! // A column of 100k uniformly distributed 4-byte values.
//! let values: Vec<u32> =
//!     (0..100_000u64).map(|i| ((i * 2_654_435_761) % 1_000_000) as u32).collect();
//! let column = SegmentedColumn::new(ValueRange::must(0, 999_999), values).unwrap();
//!
//! // Self-organize under the Adaptive Page Model (Mmin=3KB, Mmax=12KB).
//! let model = Box::new(AdaptivePageModel::simulation_default());
//! let mut strategy = AdaptiveSegmentation::new(column, model, SizeEstimator::Uniform);
//!
//! let mut tracker = CountingTracker::new();
//! let n = strategy.select_count(&ValueRange::must(100_000, 199_999), &mut tracker);
//! assert!(n > 0);
//! // The first query scanned the whole column and reorganized it…
//! assert!(strategy.segment_count() > 1);
//! // …so an identical query now touches a fraction of the data.
//! tracker.begin_query();
//! strategy.select_count(&ValueRange::must(100_000, 199_999), &mut tracker);
//! assert!(tracker.query_stats().read_bytes < 100_000);
//! ```
//!
//! All data movement is observable through [`AccessTracker`], which is how
//! the experiment harness (`soc-sim`) reproduces the paper's read/write
//! figures without instrumenting the algorithms themselves.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod admission;
pub mod baseline;
pub mod column;
pub mod compress;
pub mod cracking;
pub mod delta;
pub mod epoch;
pub mod estimate;
pub mod faults;
pub mod kernels;
pub mod merge;
pub mod meta;
pub mod model;
pub mod paired;
pub mod range;
pub mod replication;
pub mod segment;
pub mod segmentation;
pub mod spec;
pub mod strategy;
pub mod synopsis;
pub mod tracker;
pub mod validate;
pub mod value;

pub use admission::{
    AdmissionConfig, AdmissionGate, AdmissionPolicy, AdmissionStats, Admitted, Permit, QueryError,
};
pub use baseline::{FullySorted, NonSegmented};
pub use column::{ColumnError, SegmentedColumn};
pub use compress::{
    EncodedPayload, EncodingMode, EncodingPolicy, PiecePayload, SegmentEncoding, SegmentHeat,
};
pub use cracking::CrackedColumn;
pub use delta::{CompactionPolicy, DeltaBatch, DeltaOp, DeltaRun, MIN_AUTO_MERGE_STEP};
pub use epoch::{ConcurrentColumn, StrategySnapshot};
pub use estimate::SizeEstimator;
pub use faults::{Fault, FaultInjector, FaultPlan, FaultSite, NoFaults};
pub use merge::{MergePolicy, MergingSegmentation};
pub use meta::{MetaEntry, MetaIndex};
pub use model::{
    AdaptivePageModel, AlwaysSplit, AutoTunedApm, GaussianDice, NeverSplit, SegmentationModel,
    SplitDecision, SplitGeometry, Technique, WhichBound,
};
pub use paired::{pair_rows, Pair};
pub use range::ValueRange;
pub use replication::{AdaptiveReplication, ReplicaTree};
pub use segment::{SegId, SegIdGen, SegmentData};
pub use segmentation::AdaptiveSegmentation;
pub use spec::{StrategyKind, StrategySpec};
pub use strategy::{AdaptationStats, ColumnStrategy};
pub use synopsis::{PieceSynopsis, SynopsisClass};
pub use tracker::{
    AccessTracker, CountingTracker, EventLog, NullTracker, QueryStats, TrackerEvent,
};
pub use validate::Violation;
pub use value::{ColumnValue, OrdF64};
