//! Sorted delta runs: pending inserts/updates/deletes overlaid on the
//! epoch read path, MonetDB-style (Section 7 of the paper) but organized
//! for merge-on-read instead of merge-on-query-materialization.
//!
//! The paper's delta scheme keeps pending writes in separate structures
//! and folds them into every query answer; our catalog layer reproduces
//! that as a query-time materialized merge (Figure 1). This module is the
//! *epoch-layer* counterpart, shaped like an LSM overlay ("Columnar
//! Formats for Schemaless LSM-based Document Stores", PAPERS.md):
//!
//! * A write batch accumulates in a [`DeltaBatch`], which shadows
//!   operations per oid (a later update of the same row wins; deleting a
//!   row inserted in the same batch cancels both) so a sealed run never
//!   carries intra-batch ghosts.
//! * Sealing produces an immutable [`DeltaRun`]: two ascending-sorted
//!   sides — **inserts** (new values, including the new side of updates)
//!   and **tombstones** (deleted values and the old side of updates) —
//!   each carrying a [`PieceSynopsis`] zone map, so range reads prune
//!   whole runs exactly like base pieces. Values sort ascending; columns
//!   of [`Pair`](crate::Pair) rows therefore order by value with oid
//!   tiebreak, which is what keeps reconstruction joins exact.
//! * Runs fold into the base **oldest first** ([`DeltaRun::seq`] order):
//!   a run's tombstones always target rows that are in the base by the
//!   time it folds (seal-time shadowing cancels intra-batch targets, and
//!   older runs fold before younger ones reference their inserts). Any
//!   prefix of the oldest run therefore folds safely, which is what the
//!   incremental compactor exploits ([`DeltaRun::split_for_fold`],
//!   bounded by [`CompactionPolicy::rows_per_step`]).
//!
//! Read semantics are multiset arithmetic by value: a query's answer is
//! `base + inserts − tombstones`, evaluated per run through the
//! branchless kernels in [`crate::kernels`] (`sorted_run` masks for
//! counts, the galloping [`merge_sorted`](crate::kernels::merge_sorted)
//! for collects, [`subtract_sorted`](crate::kernels::subtract_sorted)
//! for tombstones). The epoch snapshot proves the resulting answers
//! bit-identical to the catalog's Figure-1 merge in `tests/`.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::range::ValueRange;
use crate::segment::SegId;
use crate::synopsis::{PieceSynopsis, SynopsisClass};
use crate::validate::Violation;
use crate::value::ColumnValue;

/// One pending logical write against a column.
///
/// The caller supplies the *old* value of updates and the value of
/// deletes (the catalog knows both from the base column); the run needs
/// them because tombstones cancel by value, not by oid probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOp<V> {
    /// A new row `oid` with `value`.
    Insert {
        /// The new row's oid.
        oid: u64,
        /// The inserted value.
        value: V,
    },
    /// Row `oid` changes from `old` to `new`.
    Update {
        /// The updated row's oid.
        oid: u64,
        /// The value the row holds before the update (tombstoned).
        old: V,
        /// The value the row holds after the update (inserted).
        new: V,
    },
    /// Row `oid`, currently holding `value`, is removed.
    Delete {
        /// The deleted row's oid.
        oid: u64,
        /// The value the row held (tombstoned).
        value: V,
    },
}

/// Per-oid net effect of a batch, after shadowing.
#[derive(Debug, Clone, Copy)]
enum Slot<V> {
    Inserted(V),
    Updated { old: V, new: V },
    Deleted(V),
}

/// An order-preserving accumulator of pending writes, shadowed per oid.
///
/// Shadowing rules (the Figure-1 merge applied eagerly within one batch):
/// a later [`DeltaOp::Update`] of the same oid replaces the earlier new
/// value but keeps the *original* old value (only one base row is ever
/// tombstoned); updating or deleting a row inserted in the same batch
/// rewrites or cancels the insert instead of emitting a tombstone;
/// operations on a row already deleted in the batch are no-ops (the
/// catalog applies updates to existing rows only).
#[derive(Debug, Clone)]
pub struct DeltaBatch<V> {
    slots: BTreeMap<u64, Slot<V>>,
}

impl<V: ColumnValue> Default for DeltaBatch<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: ColumnValue> DeltaBatch<V> {
    /// An empty batch.
    pub fn new() -> Self {
        DeltaBatch {
            slots: BTreeMap::new(),
        }
    }

    /// Whether no operation survives shadowing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Rows with a surviving pending operation.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Applies one operation, shadowing earlier operations on the same
    /// oid (see the type docs for the exact rules).
    pub fn push(&mut self, op: DeltaOp<V>) {
        match op {
            DeltaOp::Insert { oid, value } => {
                self.slots.insert(oid, Slot::Inserted(value));
            }
            DeltaOp::Update { oid, old, new } => match self.slots.get(&oid).copied() {
                Some(Slot::Inserted(_)) => {
                    self.slots.insert(oid, Slot::Inserted(new));
                }
                Some(Slot::Updated { old: first, .. }) => {
                    self.slots.insert(oid, Slot::Updated { old: first, new });
                }
                Some(Slot::Deleted(_)) => {}
                None => {
                    self.slots.insert(oid, Slot::Updated { old, new });
                }
            },
            DeltaOp::Delete { oid, value } => match self.slots.get(&oid).copied() {
                Some(Slot::Inserted(_)) => {
                    self.slots.remove(&oid);
                }
                Some(Slot::Updated { old, .. }) => {
                    self.slots.insert(oid, Slot::Deleted(old));
                }
                Some(Slot::Deleted(_)) => {}
                None => {
                    self.slots.insert(oid, Slot::Deleted(value));
                }
            },
        }
    }

    /// Seals the batch into an immutable sorted run, or `None` when
    /// shadowing cancelled everything. `seq` orders the run among its
    /// siblings (fold oldest — smallest — first); `id` is its stable
    /// scan-attribution identity.
    pub fn seal(self, seq: u64, id: SegId) -> Option<DeltaRun<V>> {
        let mut inserts = Vec::new();
        let mut tombstones = Vec::new();
        for slot in self.slots.into_values() {
            match slot {
                Slot::Inserted(v) => inserts.push(v),
                Slot::Updated { old, new } => {
                    tombstones.push(old);
                    inserts.push(new);
                }
                Slot::Deleted(v) => tombstones.push(v),
            }
        }
        if inserts.is_empty() && tombstones.is_empty() {
            return None;
        }
        Some(DeltaRun::from_parts(seq, id, inserts, tombstones))
    }
}

/// An immutable, sorted run of pending writes: the unit the epoch
/// snapshot overlays on its base pieces and the unit the compactor folds.
///
/// Both sides are ascending; each carries an exact [`PieceSynopsis`]
/// (`None` for an empty side), so the read path classifies a query
/// against the run in O(1) and prunes disjoint runs with a
/// [`skip`](crate::AccessTracker::skip) charge — zone maps apply to
/// deltas exactly as they do to base pieces.
#[derive(Clone)]
pub struct DeltaRun<V> {
    seq: u64,
    id: SegId,
    /// New values (inserts and the new side of updates), ascending.
    inserts: Arc<Vec<V>>,
    /// Cancelled values (deletes and the old side of updates), ascending.
    /// One tombstone removes one occurrence of its value.
    tombstones: Arc<Vec<V>>,
    insert_synopsis: Option<PieceSynopsis<V>>,
    tombstone_synopsis: Option<PieceSynopsis<V>>,
    bytes: u64,
}

impl<V: ColumnValue> std::fmt::Debug for DeltaRun<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaRun")
            .field("seq", &self.seq)
            .field("inserts", &self.inserts.len())
            .field("tombstones", &self.tombstones.len())
            .finish_non_exhaustive()
    }
}

impl<V: ColumnValue> DeltaRun<V> {
    /// Assembles a run from its two sides, sorting them ascending (a
    /// defensive re-sort: already-sorted input costs one verification
    /// pass). Used by [`DeltaBatch::seal`], by the compactor when it
    /// retains the unfolded remainder of a run, and by bridge layers
    /// (the MAL catalog) that stage deltas outside this module.
    pub fn from_parts(seq: u64, id: SegId, mut inserts: Vec<V>, mut tombstones: Vec<V>) -> Self {
        inserts.sort_unstable();
        tombstones.sort_unstable();
        let bytes = (inserts.len() + tombstones.len()) as u64 * V::BYTES;
        let insert_synopsis = PieceSynopsis::from_sorted(&inserts);
        let tombstone_synopsis = PieceSynopsis::from_sorted(&tombstones);
        DeltaRun {
            seq,
            id,
            inserts: Arc::new(inserts),
            tombstones: Arc::new(tombstones),
            insert_synopsis,
            tombstone_synopsis,
            bytes,
        }
    }

    /// The run's fold-order position: smaller seals earlier, folds first.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Stable scan-attribution identity (one charge per query, rule L5).
    pub fn id(&self) -> SegId {
        self.id
    }

    /// Footprint of both sides, as charged to the tracker.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Pending rows this run holds (inserts plus tombstones) — the unit
    /// the compaction watermarks and per-step budget count.
    pub fn rows(&self) -> u64 {
        (self.inserts.len() + self.tombstones.len()) as u64
    }

    /// Ascending new values.
    pub fn inserts(&self) -> &[V] {
        &self.inserts
    }

    /// Ascending cancelled values (one occurrence each).
    pub fn tombstones(&self) -> &[V] {
        &self.tombstones
    }

    /// Zone map of the insert side (`None` when empty).
    pub fn insert_synopsis(&self) -> Option<&PieceSynopsis<V>> {
        self.insert_synopsis.as_ref()
    }

    /// Zone map of the tombstone side (`None` when empty).
    pub fn tombstone_synopsis(&self) -> Option<&PieceSynopsis<V>> {
        self.tombstone_synopsis.as_ref()
    }

    /// Whether `q` can touch either side — the pruning decision. A run
    /// disjoint from `q` on both zone maps contributes nothing and
    /// charges only a [`skip`](crate::AccessTracker::skip).
    pub fn overlaps(&self, q: &ValueRange<V>) -> bool {
        let side = |s: &Option<PieceSynopsis<V>>| {
            s.as_ref()
                .is_some_and(|s| s.classify(q) != SynopsisClass::Disjoint)
        };
        side(&self.insert_synopsis) || side(&self.tombstone_synopsis)
    }

    /// Splits off up to `budget` rows for folding into the base:
    /// tombstones first (they only shrink the base), then inserts.
    /// Returns `(inserts, tombstones, remainder)`; `remainder` is `None`
    /// when the whole run fit the budget. Safe for the **oldest** run
    /// only: its tombstones target rows already in the base (see the
    /// module docs), so any subset folds without reordering effects.
    pub fn split_for_fold(&self, budget: usize) -> (Vec<V>, Vec<V>, Option<DeltaRun<V>>) {
        let t_take = budget.min(self.tombstones.len());
        let i_take = (budget - t_take).min(self.inserts.len());
        let fold_tombs = self.tombstones[..t_take].to_vec();
        let fold_ins = self.inserts[..i_take].to_vec();
        let rest_ins = self.inserts[i_take..].to_vec();
        let rest_tombs = self.tombstones[t_take..].to_vec();
        let remainder = (!rest_ins.is_empty() || !rest_tombs.is_empty())
            .then(|| DeltaRun::from_parts(self.seq, self.id, rest_ins, rest_tombs));
        (fold_ins, fold_tombs, remainder)
    }

    /// Structural invariants: both sides ascending, zone maps exact.
    /// Folded into [`StrategySnapshot::validate`](crate::StrategySnapshot)
    /// at every epoch publish.
    pub fn validate(&self) -> Result<(), Violation> {
        for (what, values, syn) in [
            ("insert", &self.inserts, self.insert_synopsis.as_ref()),
            (
                "tombstone",
                &self.tombstones,
                self.tombstone_synopsis.as_ref(),
            ),
        ] {
            if !values.windows(2).all(|w| w[0] <= w[1]) {
                return Err(Violation::NotSorted { index: 0 });
            }
            crate::validate::synopsis_consistent(syn, values).map_err(|v| match v {
                Violation::Synopsis { detail, .. } => Violation::Synopsis {
                    index: 0,
                    detail: format!("delta {what} side: {detail}"),
                },
                other => other,
            })?;
        }
        Ok(())
    }
}

/// Smallest number of rows one threshold-derived compaction step folds
/// ([`CompactionPolicy::from_threshold`]). Keeps the per-step rebuild
/// from degenerating into one-row rewrites under tiny thresholds (tests,
/// demos) while the default threshold compacts in `threshold/4` chunks
/// between the watermarks.
pub const MIN_AUTO_MERGE_STEP: u64 = 256;

/// Hysteresis watermarks and the per-step budget of the incremental
/// compactor: folding starts when the pending rows across all runs reach
/// [`start_above`](Self::start_above), proceeds at most
/// [`rows_per_step`](Self::rows_per_step) delta rows per reorganization
/// step (each step rebuilds the base once, charged as reorganization
/// bytes), and stops once pending rows fall to
/// [`stop_below`](Self::stop_below) — so a column hovering at the
/// threshold does not thrash between folding and accumulating.
///
/// Both compactors decide through this one rule: the epoch writer and
/// the catalog's automatic delta merge each keep a "compacting" flag and
/// consult [`engaged`](Self::engaged) and [`drained`](Self::drained).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    start_above: u64,
    stop_below: u64,
    rows_per_step: u64,
}

impl Default for CompactionPolicy {
    /// [`Self::from_threshold`] at 4096 pending rows (the catalog's
    /// historical bulk-merge threshold): drain to 1024, fold 1024 rows
    /// per step.
    fn default() -> Self {
        Self::from_threshold(4096)
    }
}

impl CompactionPolicy {
    /// A policy with explicit watermarks; `stop_below` is clamped to at
    /// most `start_above` and `rows_per_step` to at least 1.
    pub fn new(start_above: u64, stop_below: u64, rows_per_step: u64) -> Self {
        CompactionPolicy {
            start_above,
            stop_below: stop_below.min(start_above),
            rows_per_step: rows_per_step.max(1),
        }
    }

    /// The policy a single merge threshold implies: start at `threshold`,
    /// stop at `threshold/4`, and fold `threshold/4` rows per step, but
    /// never fewer than [`MIN_AUTO_MERGE_STEP`].
    pub fn from_threshold(threshold: u64) -> Self {
        Self::new(
            threshold,
            threshold / 4,
            (threshold / 4).max(MIN_AUTO_MERGE_STEP),
        )
    }

    /// Pending-row level at which folding starts.
    pub fn start_above(&self) -> u64 {
        self.start_above
    }

    /// Pending-row level at which folding stops (hysteresis low side).
    pub fn stop_below(&self) -> u64 {
        self.stop_below
    }

    /// Maximum delta rows folded per reorganization step.
    pub fn rows_per_step(&self) -> u64 {
        self.rows_per_step
    }

    /// Whether compaction runs at `pending` rows, given whether it was
    /// already running: it starts once `pending` reaches
    /// [`start_above`](Self::start_above) and, once started, continues
    /// until a [`drained`](Self::drained) check ends it.
    pub fn engaged(&self, compacting: bool, pending: u64) -> bool {
        compacting || pending >= self.start_above
    }

    /// Whether a running compaction stops at `pending` rows: the backlog
    /// is down to [`stop_below`](Self::stop_below).
    pub fn drained(&self, pending: u64) -> bool {
        pending <= self.stop_below
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paired::Pair;

    fn seal(batch: DeltaBatch<u32>) -> DeltaRun<u32> {
        batch.seal(0, SegId(1)).expect("non-empty batch")
    }

    #[test]
    fn seal_sorts_and_summarizes_both_sides() {
        let mut b = DeltaBatch::new();
        b.push(DeltaOp::Insert { oid: 9, value: 50 });
        b.push(DeltaOp::Insert { oid: 7, value: 10 });
        b.push(DeltaOp::Delete { oid: 1, value: 30 });
        b.push(DeltaOp::Update {
            oid: 2,
            old: 40,
            new: 5,
        });
        let run = seal(b);
        assert_eq!(run.inserts(), &[5, 10, 50]);
        assert_eq!(run.tombstones(), &[30, 40]);
        assert_eq!(run.rows(), 5);
        assert_eq!(run.bytes(), 5 * 4);
        let ins = run.insert_synopsis().expect("insert side non-empty");
        assert_eq!((ins.min(), ins.max(), ins.count()), (5, 50, 3));
        let tom = run.tombstone_synopsis().expect("tombstone side non-empty");
        assert_eq!((tom.min(), tom.max()), (30, 40));
        run.validate().expect("sealed runs validate");
    }

    #[test]
    fn shadowing_applies_figure1_rules_within_a_batch() {
        let mut b = DeltaBatch::new();
        // Insert then update: the insert is rewritten, no tombstone.
        b.push(DeltaOp::Insert { oid: 1, value: 10 });
        b.push(DeltaOp::Update {
            oid: 1,
            old: 10,
            new: 11,
        });
        // Insert then delete: both cancel.
        b.push(DeltaOp::Insert { oid: 2, value: 20 });
        b.push(DeltaOp::Delete { oid: 2, value: 20 });
        // Update then update: later new wins, original old tombstones.
        b.push(DeltaOp::Update {
            oid: 3,
            old: 30,
            new: 31,
        });
        b.push(DeltaOp::Update {
            oid: 3,
            old: 31,
            new: 32,
        });
        // Update then delete: the original base value tombstones once.
        b.push(DeltaOp::Update {
            oid: 4,
            old: 40,
            new: 41,
        });
        b.push(DeltaOp::Delete { oid: 4, value: 41 });
        // Delete then update: no-op on a dead row.
        b.push(DeltaOp::Delete { oid: 5, value: 50 });
        b.push(DeltaOp::Update {
            oid: 5,
            old: 50,
            new: 51,
        });
        let run = seal(b);
        assert_eq!(run.inserts(), &[11, 32]);
        assert_eq!(run.tombstones(), &[30, 40, 50]);
    }

    #[test]
    fn all_cancelling_batch_seals_to_none() {
        let mut b = DeltaBatch::new();
        b.push(DeltaOp::Insert { oid: 1, value: 10 });
        b.push(DeltaOp::Delete { oid: 1, value: 10 });
        assert!(b.is_empty());
        assert!(b.seal(0, SegId(1)).is_none());
    }

    #[test]
    fn paired_runs_order_by_value_with_oid_tiebreak() {
        let mut b: DeltaBatch<Pair<i64>> = DeltaBatch::new();
        b.push(DeltaOp::Insert {
            oid: 9,
            value: Pair::new(5, 9),
        });
        b.push(DeltaOp::Insert {
            oid: 3,
            value: Pair::new(5, 3),
        });
        b.push(DeltaOp::Insert {
            oid: 1,
            value: Pair::new(4, 1),
        });
        let run = b.seal(0, SegId(1)).expect("non-empty");
        assert_eq!(
            run.inserts(),
            &[Pair::new(4, 1), Pair::new(5, 3), Pair::new(5, 9)]
        );
    }

    #[test]
    fn overlaps_prunes_through_both_zone_maps() {
        let mut b = DeltaBatch::new();
        b.push(DeltaOp::Insert { oid: 1, value: 10 });
        b.push(DeltaOp::Delete { oid: 2, value: 90 });
        let run = seal(b);
        assert!(run.overlaps(&ValueRange::must(5, 15)), "insert side");
        assert!(run.overlaps(&ValueRange::must(85, 95)), "tombstone side");
        assert!(!run.overlaps(&ValueRange::must(20, 80)), "between sides");
        assert!(!run.overlaps(&ValueRange::must(95, 99)), "above both");
    }

    #[test]
    fn split_for_fold_takes_tombstones_first_and_preserves_rows() {
        let mut b = DeltaBatch::new();
        for i in 0..4 {
            b.push(DeltaOp::Insert {
                oid: i,
                value: 10 + i as u32,
            });
        }
        b.push(DeltaOp::Delete { oid: 100, value: 1 });
        b.push(DeltaOp::Delete { oid: 101, value: 2 });
        let run = seal(b); // 4 inserts, 2 tombstones
        let (ins, tombs, rest) = run.split_for_fold(3);
        assert_eq!(tombs, vec![1, 2], "tombstones fold first");
        assert_eq!(ins, vec![10]);
        let rest = rest.expect("three of six rows remain");
        assert_eq!(rest.rows(), 3);
        assert_eq!(rest.inserts(), &[11, 12, 13]);
        assert!(rest.tombstones().is_empty());
        assert_eq!(rest.seq(), run.seq());

        // A budget covering the whole run leaves no remainder.
        let (ins, tombs, rest) = run.split_for_fold(6);
        assert_eq!(ins.len() + tombs.len(), 6);
        assert!(rest.is_none());
    }

    #[test]
    fn policy_clamps_and_defaults() {
        let p = CompactionPolicy::default();
        assert_eq!(
            (p.start_above(), p.stop_below(), p.rows_per_step()),
            (4096, 1024, 1024)
        );
        let q = CompactionPolicy::new(100, 500, 0);
        assert_eq!(q.stop_below(), 100, "stop clamps to start");
        assert_eq!(q.rows_per_step(), 1, "step is at least one row");
    }

    #[test]
    fn hysteresis_boundaries_and_threshold_policies() {
        // (policy, pending, was compacting) -> (engaged, drained)
        let p = CompactionPolicy::new(100, 25, 10);
        let table = [
            (99, false, false, false),
            (100, false, true, false),
            (101, false, true, false),
            (99, true, true, false),
            (26, true, true, false),
            (25, true, true, true),
            (25, false, false, true),
            (0, true, true, true),
        ];
        for (pending, was, engaged, drained) in table {
            assert_eq!(
                (p.engaged(was, pending), p.drained(pending)),
                (engaged, drained),
                "pending {pending}, compacting {was}"
            );
        }

        // threshold -> (start_above, stop_below, rows_per_step)
        let derived = [
            (1, (1, 0, MIN_AUTO_MERGE_STEP)),
            (4, (4, 1, MIN_AUTO_MERGE_STEP)),
            (4096, (4096, 1024, 1024)),
        ];
        for (threshold, want) in derived {
            let q = CompactionPolicy::from_threshold(threshold);
            assert_eq!(
                (q.start_above(), q.stop_below(), q.rows_per_step()),
                want,
                "threshold {threshold}"
            );
            assert!(
                q.engaged(false, threshold),
                "starts exactly at the threshold"
            );
            assert!(!q.engaged(false, threshold - 1));
            assert!(q.drained(threshold / 4), "stops exactly at threshold/4");
        }
        assert_eq!(
            CompactionPolicy::default(),
            CompactionPolicy::from_threshold(4096)
        );
    }

    #[test]
    fn validate_rejects_a_drifted_synopsis() {
        let run = DeltaRun::from_parts(0, SegId(1), vec![3u32, 1, 2], vec![9]);
        assert_eq!(run.inserts(), &[1, 2, 3], "from_parts sorts");
        run.validate().expect("fresh runs validate");
    }
}
