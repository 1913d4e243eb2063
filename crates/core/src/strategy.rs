//! The common interface all column-organization strategies implement.
//!
//! The evaluation (Section 6) compares four self-organizing strategies
//! ({GD, APM} × {segmentation, replication}) against a non-segmented
//! baseline; the experiment drivers in `soc-sim` treat them uniformly
//! through [`ColumnStrategy`].

use crate::range::ValueRange;
use crate::tracker::AccessTracker;
use crate::value::ColumnValue;

/// Counters describing how much self-organization a strategy has performed.
///
/// Uniform across strategies so experiment drivers can report adaptation
/// activity without downcasting: segmentation counts `splits` (and `merges`
/// when wrapped in a merge policy), replication counts `replicas_created` /
/// `drops` / `budget_declines`, cracking counts its cracks as `splits`.
/// Counters a strategy does not maintain stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptationStats {
    /// Segment splits (or cracks) performed.
    pub splits: u64,
    /// Merge operations performed (merge-policy wrapper only).
    pub merges: u64,
    /// Replica segments materialized (replication only).
    pub replicas_created: u64,
    /// Fully replicated segments dropped (replication only).
    pub drops: u64,
    /// Materializations declined by a storage budget (replication only).
    pub budget_declines: u64,
}

impl std::ops::AddAssign for AdaptationStats {
    /// Field-wise sum: folds a retired strategy's (or another node's)
    /// history into a running total.
    fn add_assign(&mut self, rhs: Self) {
        self.splits += rhs.splits;
        self.merges += rhs.merges;
        self.replicas_created += rhs.replicas_created;
        self.drops += rhs.drops;
        self.budget_declines += rhs.budget_declines;
    }
}

/// A column organization that can answer range selections and may
/// reorganize itself as a side effect (the paper's "reorganization decisions
/// … made an integral part of query execution").
///
/// # Thread-safety contract
///
/// Every strategy is `Send + Sync`, so `Box<dyn ColumnStrategy<V>>` (what
/// [`crate::spec::StrategySpec::build`] produces) can be owned by, and
/// handed between, worker threads — the contract the parallel sharded
/// executor in `soc-sim` relies on when it runs one strategy per node on
/// scoped threads. Concretely:
///
/// * the **mutating** methods ([`Self::select_count`],
///   [`Self::select_collect`]) take `&mut self`, so they are exclusive per
///   strategy *instance*; concurrency comes from running *distinct*
///   instances (one per shard node) in parallel, never from sharing one;
/// * the **read-only** methods ([`Self::peek_collect`],
///   [`Self::storage_bytes`], [`Self::segment_count`],
///   [`Self::segment_bytes`], [`Self::segment_ranges`],
///   [`Self::adaptation`]) take `&self` and may be called concurrently
///   from multiple threads on one instance (`Sync`); implementations must
///   not use interior mutability for them;
/// * per-thread accounting goes to a private [`AccessTracker`] (e.g. an
///   event log) merged deterministically afterwards — see the merge
///   contract on [`crate::tracker::AccessTracker`].
pub trait ColumnStrategy<V: ColumnValue>: Send + Sync {
    /// Display name for experiment output ("GD Segm", "APM Repl", …).
    fn name(&self) -> String;

    /// Answers `SELECT count(*) WHERE v BETWEEN q.lo AND q.hi`, reporting
    /// every scan/materialization to `tracker` and self-organizing along
    /// the way.
    fn select_count(&mut self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> u64;

    /// As [`Self::select_count`] but materializes the qualifying values
    /// (unordered). Used by tests and examples; the simulation figures use
    /// the counting path.
    fn select_collect(&mut self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> Vec<V>;

    /// Read-only variant of [`Self::select_collect`]: returns the values in
    /// `q` without reorganizing, adapting, or reporting accesses.
    ///
    /// This is the extraction path for layers that present a strategy's
    /// segments as data (the MAL `bpm` module materializes per-segment
    /// bats, checkpointing reads pieces) — those reads must not perturb
    /// the self-organization the workload is driving.
    fn peek_collect(&self, q: &ValueRange<V>) -> Vec<V>;

    /// Bytes of materialized segment storage currently held, including the
    /// base column (the "Replica storage" axis of Figures 8–9).
    fn storage_bytes(&self) -> u64;

    /// Number of materialized segments currently held (Table 2's "Segm.#").
    fn segment_count(&self) -> usize;

    /// Sizes in bytes of the placeable segments, positionally paired with
    /// [`Self::segment_ranges`] (Table 2's size stats).
    ///
    /// For replication this is the flat covering leaf set, not every
    /// replica in storage, so the bytes sum to the logical column.
    fn segment_bytes(&self) -> Vec<u64>;

    /// Value ranges of the placeable segments in value order — the
    /// partitioning a distributed placement policy ships to nodes
    /// (Section 8's outlook). Entry `i` describes the same segment as
    /// entry `i` of [`Self::segment_bytes`].
    ///
    /// The ranges are pairwise disjoint and sorted; positional placement
    /// over them never double-counts data. Replication reports the flat
    /// covering leaf set (the deepest materialized replicas tiling the
    /// domain), so nested parent replicas are excluded even though they
    /// occupy storage; strategies whose pieces can be degenerate
    /// (cracking's empty boundary pieces) may return fewer entries than
    /// [`Self::segment_count`].
    fn segment_ranges(&self) -> Vec<ValueRange<V>>;

    /// How much self-organization has been performed so far.
    ///
    /// The default reports no activity, which is correct for the static
    /// baselines; adaptive strategies override it.
    fn adaptation(&self) -> AdaptationStats {
        AdaptationStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptation_stats_add_assign_sums_every_field() {
        let mut total = AdaptationStats {
            splits: 1,
            merges: 2,
            replicas_created: 3,
            drops: 4,
            budget_declines: 5,
        };
        total += AdaptationStats {
            splits: 10,
            merges: 20,
            replicas_created: 30,
            drops: 40,
            budget_declines: 50,
        };
        assert_eq!(
            total,
            AdaptationStats {
                splits: 11,
                merges: 22,
                replicas_created: 33,
                drops: 44,
                budget_declines: 55,
            }
        );
    }
}
