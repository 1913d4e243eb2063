//! Physical segments: a value range plus the tuples falling into it.

use std::borrow::Cow;

use crate::compress::{EncodingMode, PiecePayload, SegmentEncoding, SegmentHeat};
use crate::range::ValueRange;
use crate::synopsis::{PieceSynopsis, SynopsisClass};
use crate::tracker::AccessTracker;
use crate::value::ColumnValue;

/// Stable identity of a materialized segment.
///
/// Every materialization (initial load, split product, replica) gets a fresh
/// id from the owning structure's counter; ids are never reused. The buffer
/// manager in `soc-sim` keys residency on this.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegId(pub u64);

impl std::fmt::Debug for SegId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seg#{}", self.0)
    }
}

/// Hands out fresh [`SegId`]s.
#[derive(Debug, Default)]
pub struct SegIdGen {
    next: u64,
}

impl SegIdGen {
    /// A generator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next unused id.
    pub fn fresh(&mut self) -> SegId {
        let id = SegId(self.next);
        self.next += 1;
        id
    }
}

/// A materialized segment: contiguous storage of the values of one range.
///
/// Values are *not* sorted within the segment — the paper's value-based
/// organization only guarantees that every value lies inside `range`
/// (like a cracking piece). Positional correspondence across columns is
/// deliberately given up (Section 1).
///
/// The payload may be raw or in one of the packed encodings of
/// [`crate::compress`]; [`Self::count_in`]/[`Self::collect_in`] dispatch
/// to the compressed-domain kernels, so every strategy built on
/// `SegmentData` inherits per-segment compression transparently.
///
/// Each segment also caches a [`PieceSynopsis`] (exact min/max/count/sum),
/// recomputed whenever the payload changes — construction, restore, and
/// every encode step. The pure-read scan methods consult it first: a
/// provably disjoint predicate answers without touching the payload, and
/// a covering one answers counts and sums O(1) from the stored
/// aggregates. The synopsis bounds are usually *tighter* than `range`
/// (the range is the reorganization partition; the data inside it
/// clusters), which is where zone-map pruning wins over the range check
/// alone.
#[derive(Debug, Clone)]
pub struct SegmentData<V> {
    id: SegId,
    range: ValueRange<V>,
    payload: PiecePayload<V>,
    heat: SegmentHeat,
    synopsis: Option<PieceSynopsis<V>>,
}

impl<V: ColumnValue> SegmentData<V> {
    /// Creates a raw segment, validating that every value is inside `range`.
    pub fn new(id: SegId, range: ValueRange<V>, values: Vec<V>) -> Self {
        debug_assert!(
            values.iter().all(|v| range.contains(*v)),
            "segment values must lie within the segment range"
        );
        let payload = PiecePayload::Raw(values);
        let synopsis = payload.synopsis();
        SegmentData {
            id,
            range,
            payload,
            heat: SegmentHeat::default(),
            synopsis,
        }
    }

    /// Wraps an existing payload (possibly packed) — the store's restore
    /// path, which must not decode what it read verbatim.
    pub fn from_payload(id: SegId, range: ValueRange<V>, payload: PiecePayload<V>) -> Self {
        debug_assert!(
            payload.decoded().iter().all(|v| range.contains(*v)),
            "segment values must lie within the segment range"
        );
        let synopsis = payload.synopsis();
        SegmentData {
            id,
            range,
            payload,
            heat: SegmentHeat::default(),
            synopsis,
        }
    }

    /// The cached zone-map synopsis (`None` for an empty segment).
    #[inline]
    pub fn synopsis(&self) -> Option<PieceSynopsis<V>> {
        self.synopsis
    }

    /// Recomputes the cached synopsis from the current payload — called
    /// after every payload mutation so the cache can never go stale.
    fn refresh_synopsis(&mut self) {
        self.synopsis = self.payload.synopsis();
    }

    /// Segment identity.
    #[inline]
    pub fn id(&self) -> SegId {
        self.id
    }

    /// The closed value range this segment is responsible for.
    #[inline]
    pub fn range(&self) -> ValueRange<V> {
        self.range
    }

    /// The stored values (unordered), when the segment is raw.
    ///
    /// # Panics
    /// Panics if the segment is packed — encoding-agnostic callers use
    /// [`Self::decoded`] (or the dispatching scan methods) instead.
    #[inline]
    pub fn values(&self) -> &[V] {
        self.payload
            .raw_values()
            // soc-lint: allow(L1-panic-free, documented contract: values is only called on raw segments)
            .expect("values() on a packed segment; use decoded()")
    }

    /// The stored values in storage order, decoding only if packed.
    #[inline]
    pub fn decoded(&self) -> Cow<'_, [V]> {
        self.payload.decoded()
    }

    /// The physical payload.
    #[inline]
    pub fn payload(&self) -> &PiecePayload<V> {
        &self.payload
    }

    /// The payload's current encoding.
    #[inline]
    pub fn encoding(&self) -> SegmentEncoding {
        self.payload.encoding()
    }

    /// Number of stored tuples.
    #[inline]
    pub fn len(&self) -> u64 {
        self.payload.len()
    }

    /// Whether the segment holds no tuples (its range may still be non-empty).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Storage footprint in bytes, the unit of the paper's read/write
    /// counters — the *encoded* size for packed segments, so trackers,
    /// placement balance and the sharded executor see the real cost.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.payload.bytes()
    }

    /// Consumes the segment, returning its values (decoded if packed).
    pub fn into_values(self) -> Vec<V> {
        self.payload.into_values()
    }

    /// The segment's read-heat record (encoding-policy input).
    #[inline]
    pub fn heat(&self) -> SegmentHeat {
        self.heat
    }

    /// Records a read at `tick` — called from the `&mut` select paths
    /// (never from `&self` peeks, preserving the no-interior-mutability
    /// contract of [`crate::ColumnStrategy`]).
    #[inline]
    pub fn note_read(&mut self, tick: u64) {
        self.heat.note_read(tick);
    }

    /// Stamps the segment as created at `tick` (split products,
    /// restored checkpoints).
    #[inline]
    pub fn stamp_born(&mut self, tick: u64) {
        self.heat = SegmentHeat::born_at(tick);
    }

    /// Re-encodes the payload, recording the flip at `tick` for
    /// hysteresis. Returns `(old_bytes, new_bytes)` when the
    /// representation changed, `None` otherwise (already in that
    /// encoding, or `V` cannot pack).
    pub fn reencode(&mut self, enc: SegmentEncoding, tick: u64) -> Option<(u64, u64)> {
        let old = self.payload.bytes();
        if self.payload.reencode(enc) {
            self.heat.note_flip(tick);
            // The synopsis sum tracks the *current* layout's accumulation
            // order (raw chunked vs. packed key-visit), so a representation
            // change must refresh it even though the values are unchanged.
            self.refresh_synopsis();
            Some((old, self.payload.bytes()))
        } else {
            None
        }
    }

    /// Packs with the best-shrinking codec (if any), recording the flip.
    /// Returns `(old_bytes, new_bytes)` when the payload changed.
    ///
    /// A failed pack (incompressible or unpackable payload) still advances
    /// the hysteresis anchor, so the adaptive sweep does not re-size the
    /// same hopeless segment on every pass.
    pub fn pack_best(&mut self, tick: u64) -> Option<(u64, u64)> {
        let old = self.payload.bytes();
        if self.payload.pack_best() {
            self.heat.note_flip(tick);
            self.refresh_synopsis();
            Some((old, self.payload.bytes()))
        } else {
            self.heat.note_flip(tick);
            None
        }
    }

    /// Applies one encoding-mode decision to this segment at `tick`,
    /// reporting a representation change to `tracker` as a free of the old
    /// footprint plus a materialization of the new one. Returns whether
    /// the representation changed.
    ///
    /// This is the single place the [`EncodingMode`] semantics live —
    /// the segmented column, the baselines and the replica tree all route
    /// their encoding sweeps through it.
    pub fn apply_encoding(
        &mut self,
        mode: &EncodingMode,
        tick: u64,
        tracker: &mut dyn AccessTracker,
    ) -> bool {
        let delta =
            crate::compress::apply_encoding_step(&mut self.payload, &mut self.heat, mode, tick);
        if let Some((old, new)) = delta {
            self.refresh_synopsis();
            tracker.free(self.id, old);
            tracker.materialize(self.id, new);
            true
        } else {
            false
        }
    }

    /// Classifies `q` against the cached synopsis. An empty segment has
    /// no synopsis and nothing to find, so it classifies as disjoint.
    #[inline]
    fn classify(&self, q: &ValueRange<V>) -> SynopsisClass {
        match &self.synopsis {
            Some(s) => s.classify(q),
            None => SynopsisClass::Disjoint,
        }
    }

    /// Counts the stored values inside `q` without materializing them.
    ///
    /// The cached synopsis answers the easy classes without touching the
    /// payload: a disjoint query is zero, a covering one is the length
    /// (the synopsis bounds are tighter than `range`, so this fires more
    /// often than the old whole-range shortcut). Only a straddling query
    /// scans — branchless [`crate::kernels::count_range`] for raw
    /// payloads, the compressed-domain kernels for packed ones. **No
    /// decoded value is ever materialized on this path.**
    pub fn count_in(&self, q: &ValueRange<V>) -> u64 {
        match self.classify(q) {
            SynopsisClass::Disjoint => 0,
            SynopsisClass::Covered => self.len(),
            SynopsisClass::Straddle => self.payload.count_range(q),
        }
    }

    /// Copies the stored values inside `q` into `out`.
    ///
    /// A disjoint query returns untouched; a covering one appends the
    /// whole payload (decoding a packed one); only partial overlap
    /// filters tuple by tuple.
    pub fn collect_in(&self, q: &ValueRange<V>, out: &mut Vec<V>) {
        match self.classify(q) {
            SynopsisClass::Disjoint => {}
            SynopsisClass::Covered => self.payload.collect_all(out),
            SynopsisClass::Straddle => self.payload.collect_range(q, out),
        }
    }

    /// Splits the segment's values across an ordered list of sub-ranges that
    /// tile `self.range`, producing one new segment per sub-range.
    ///
    /// This is the single scan that materializes split products in both
    /// Algorithm 1 (replace a segment by its sub-segments) and the eager part
    /// of the replica tree. `ids` supplies a fresh id per piece. Products
    /// are always raw — a reorganization touches a segment precisely
    /// because the workload reads it, so it starts hot; the encoding
    /// policy re-evaluates at the next boundary.
    ///
    /// # Panics
    /// Panics (debug) if the sub-ranges do not tile `self.range`.
    pub fn partition(self, pieces: &[ValueRange<V>], ids: &mut SegIdGen) -> Vec<SegmentData<V>> {
        debug_assert!(!pieces.is_empty());
        debug_assert_eq!(
            pieces[0].lo(),
            self.range.lo(),
            "pieces must start at segment lo"
        );
        debug_assert_eq!(
            pieces[pieces.len() - 1].hi(),
            self.range.hi(),
            "pieces must end at segment hi"
        );
        debug_assert!(
            pieces.windows(2).all(|w| w[0].adjacent_before(&w[1])),
            "pieces must be adjacent and ordered"
        );

        let values = self.payload.into_values();
        let est = values.len() / pieces.len() + 1;
        let mut buckets: Vec<Vec<V>> = pieces.iter().map(|_| Vec::with_capacity(est)).collect();
        'outer: for v in values {
            // Pieces are few (2–3); a linear probe beats binary search here.
            for (i, p) in pieces.iter().enumerate() {
                if p.contains(v) {
                    buckets[i].push(v);
                    continue 'outer;
                }
            }
            unreachable!("value {v:?} outside every piece of its own segment");
        }
        pieces
            .iter()
            .zip(buckets)
            .map(|(range, values)| SegmentData::new(ids.fresh(), *range, values))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(lo: u32, hi: u32, values: &[u32]) -> (SegmentData<u32>, SegIdGen) {
        let mut ids = SegIdGen::new();
        let s = SegmentData::new(ids.fresh(), ValueRange::must(lo, hi), values.to_vec());
        (s, ids)
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let mut g = SegIdGen::new();
        let a = g.fresh();
        let b = g.fresh();
        assert_ne!(a, b);
        assert!(a < b);
    }

    #[test]
    fn bytes_counts_tuples_times_width() {
        let (s, _) = seg(0, 100, &[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.bytes(), 12); // 3 tuples x 4 bytes
    }

    #[test]
    fn count_and_collect_agree() {
        let (s, _) = seg(0, 100, &[5, 50, 95, 20, 60]);
        let q = ValueRange::must(20, 60);
        assert_eq!(s.count_in(&q), 3);
        let mut out = Vec::new();
        s.collect_in(&q, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![20, 50, 60]);
    }

    #[test]
    fn count_full_cover_shortcut() {
        let (s, _) = seg(10, 20, &[10, 15, 20]);
        assert_eq!(s.count_in(&ValueRange::must(0, 100)), 3);
    }

    #[test]
    fn synopsis_bounds_are_tighter_than_the_range() {
        // Range says [0, 100]; the data only spans [20, 60].
        let (s, _) = seg(0, 100, &[20, 40, 60]);
        let syn = s.synopsis().expect("non-empty segment has a synopsis");
        assert_eq!((syn.min(), syn.max(), syn.count()), (20, 60, 3));
        // A query inside the range but outside the data prunes to zero...
        assert_eq!(s.count_in(&ValueRange::must(61, 100)), 0);
        let mut out = Vec::new();
        s.collect_in(&ValueRange::must(61, 100), &mut out);
        assert!(out.is_empty());
        // ...and one covering only the data (not the range) answers O(1).
        assert_eq!(s.count_in(&ValueRange::must(20, 60)), 3);
    }

    #[test]
    fn fast_paths_agree_with_payload_scans_when_packed() {
        let values: Vec<u32> = (0..512).map(|i| 100 + (i * 7) % 400).collect();
        let (mut s, _) = seg(0, 999, &values);
        for enc in [
            SegmentEncoding::Rle,
            SegmentEncoding::For,
            SegmentEncoding::Dict,
        ] {
            s.reencode(enc, 1).expect("u32 payloads pack");
            assert_eq!(s.encoding(), enc);
            for q in [
                ValueRange::must(0, 99),    // disjoint below the data
                ValueRange::must(500, 999), // disjoint above the data
                ValueRange::must(100, 499), // covers the data exactly
                ValueRange::must(0, 999),   // covers via the range too
                ValueRange::must(150, 350), // straddles
            ] {
                assert_eq!(s.count_in(&q), s.payload().count_range(&q), "{q:?}");
                let (mut fast, mut slow) = (Vec::new(), Vec::new());
                s.collect_in(&q, &mut fast);
                s.payload().collect_range(&q, &mut slow);
                assert_eq!(fast, slow, "{q:?}");
            }
            s.reencode(SegmentEncoding::Raw, 2).expect("unpack");
        }
    }

    #[test]
    fn encode_steps_keep_the_synopsis_fresh() {
        let (mut s, _) = seg(0, 999, &[7, 7, 7, 900]);
        let before = s.synopsis().expect("non-empty");
        s.pack_best(5);
        let after = s.synopsis().expect("still non-empty");
        assert_eq!((before.min(), before.max()), (after.min(), after.max()));
        assert_eq!(before.count(), after.count());
        // The packed sum must match the decoded values' sum (exact for u32).
        let decoded_sum = crate::kernels::sum_all(&s.payload().decoded());
        assert_eq!(after.sum().to_bits(), decoded_sum.to_bits());
    }

    #[test]
    fn empty_segment_prunes_everything() {
        let (s, _) = seg(0, 99, &[]);
        assert_eq!(s.synopsis(), None);
        assert_eq!(s.count_in(&ValueRange::must(0, 99)), 0);
    }

    #[test]
    fn partition_three_way() {
        let (s, mut ids) = seg(0, 99, &[5, 10, 40, 60, 95, 41, 59]);
        let pieces = [
            ValueRange::must(0, 39),
            ValueRange::must(40, 59),
            ValueRange::must(60, 99),
        ];
        let parts = s.partition(&pieces, &mut ids);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 2); // 5, 10
        assert_eq!(parts[1].len(), 3); // 40, 41, 59
        assert_eq!(parts[2].len(), 2); // 60, 95
                                       // Fresh, distinct ids.
        assert!(parts[0].id() != parts[1].id() && parts[1].id() != parts[2].id());
        // Ranges preserved in order.
        assert_eq!(parts[0].range(), pieces[0]);
        assert_eq!(parts[2].range(), pieces[2]);
    }

    #[test]
    fn partition_preserves_every_tuple() {
        let values: Vec<u32> = (0..1000).map(|i| (i * 37) % 1000).collect();
        let (s, mut ids) = seg(0, 999, &values);
        let pieces = [ValueRange::must(0, 499), ValueRange::must(500, 999)];
        let parts = s.partition(&pieces, &mut ids);
        let total: u64 = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 1000);
        for p in &parts {
            assert!(p.values().iter().all(|v| p.range().contains(*v)));
        }
    }

    #[test]
    fn partition_allows_empty_pieces() {
        let (s, mut ids) = seg(0, 99, &[1, 2, 3]);
        let pieces = [ValueRange::must(0, 49), ValueRange::must(50, 99)];
        let parts = s.partition(&pieces, &mut ids);
        assert_eq!(parts[0].len(), 3);
        assert_eq!(parts[1].len(), 0);
        assert!(parts[1].is_empty());
        assert_eq!(parts[1].bytes(), 0);
    }
}
