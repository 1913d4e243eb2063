//! Branchless, chunked scan kernels — the innermost loops of every range
//! selection.
//!
//! The paper's figures count *bytes* scanned; how fast those bytes move is
//! the other half of the story once the layout has converged. Tuple-at-a-time
//! `filter(contains)` loops carry a data-dependent branch per element, which
//! modern cores mispredict on the ~selectivity boundary of every query. The
//! kernels here follow the column-store playbook (vectorized, predicate-as-
//! arithmetic execution): fixed-size chunks that stay in L1, comparisons
//! folded into `0/1` integers summed in a narrow accumulator (no flow
//! control inside the hot loop, so LLVM autovectorizes it), a `covers` fast
//! path that degenerates to `memcpy`, and a binary-search fast path for
//! sorted runs that skips the scan entirely.
//!
//! Everything downstream — [`crate::segment::SegmentData`], the cracked
//! column, adaptive replication's cover scans, the fully-sorted baseline —
//! routes its per-element work through this module, so a kernel improvement
//! lands in every strategy at once.

use crate::range::ValueRange;
use crate::value::ColumnValue;

/// Elements per chunk. Small enough that a chunk of 8-byte values sits in
/// L1 alongside the output, large enough to amortize the loop bookkeeping.
/// Also bounds the inner `u32` match accumulator (4096 < `u32::MAX`).
pub const CHUNK: usize = 4096;

/// Counts the values of one chunk inside `[lo, hi]` with no branches in the
/// loop body: each comparison becomes a `0/1` and the pair is combined with
/// bitwise `&` (not `&&`, which would reintroduce a branch).
#[inline]
fn count_chunk<V: ColumnValue>(chunk: &[V], lo: V, hi: V) -> u32 {
    let mut acc = 0u32;
    for &v in chunk {
        acc += u32::from(lo <= v) & u32::from(v <= hi);
    }
    acc
}

/// Branchless chunked count of the values inside `q`.
///
/// Equivalent to `values.iter().filter(|v| q.contains(**v)).count()` but
/// with the comparison folded into integer arithmetic so the loop carries
/// no data-dependent branch (sum-of-bool-cast counting).
pub fn count_range<V: ColumnValue>(values: &[V], q: &ValueRange<V>) -> u64 {
    let (lo, hi) = (q.lo(), q.hi());
    let mut total = 0u64;
    for chunk in values.chunks(CHUNK) {
        total += count_chunk(chunk, lo, hi) as u64;
    }
    total
}

/// Chunked copy of the values inside `q` into `out`.
///
/// Each chunk is first counted branchlessly (cheap, vectorized, and the
/// chunk is then hot in L1): a fully matching chunk is appended with
/// `extend_from_slice` (the per-chunk `covers` fast path), a fully missing
/// chunk is skipped, and only mixed chunks pay the per-element filter —
/// with the exact reservation already made, so the `Vec` never reallocates
/// mid-chunk.
pub fn collect_range<V: ColumnValue>(values: &[V], q: &ValueRange<V>, out: &mut Vec<V>) {
    let (lo, hi) = (q.lo(), q.hi());
    for chunk in values.chunks(CHUNK) {
        let n = count_chunk(chunk, lo, hi) as usize;
        if n == chunk.len() {
            out.extend_from_slice(chunk);
        } else if n > 0 {
            out.reserve(n);
            out.extend(chunk.iter().copied().filter(|&v| lo <= v && v <= hi));
        }
    }
}

/// Branchless three-way partition count against `q`:
/// `(below q.lo, inside, above q.hi)`, summing to `values.len()`.
///
/// This is the one-pass carve-up the segmentation models decide on
/// ([`crate::estimate::exact_pieces`]); two accumulators per chunk, the
/// overlap by subtraction.
pub fn count_partition<V: ColumnValue>(values: &[V], q: &ValueRange<V>) -> (u64, u64, u64) {
    let (lo, hi) = (q.lo(), q.hi());
    let mut below = 0u64;
    let mut above = 0u64;
    for chunk in values.chunks(CHUNK) {
        let mut b = 0u32;
        let mut a = 0u32;
        for &v in chunk {
            b += u32::from(v < lo);
            a += u32::from(hi < v);
        }
        below += b as u64;
        above += a as u64;
    }
    let mid = values.len() as u64 - below - above;
    (below, mid, above)
}

/// One-pass fused `SUM(v) WHERE v IN q` (as `f64`): the predicate folds
/// into a `0.0/1.0` multiplier, so the loop carries no branch and never
/// materializes the qualifying values — replacing collect-then-fold
/// aggregate call sites with a single scan.
pub fn sum_range<V: ColumnValue>(values: &[V], q: &ValueRange<V>) -> f64 {
    let (lo, hi) = (q.lo(), q.hi());
    let mut total = 0.0f64;
    for chunk in values.chunks(CHUNK) {
        let mut acc = 0.0f64;
        for &v in chunk {
            let m = (u32::from(lo <= v) & u32::from(v <= hi)) as f64;
            acc += m * v.to_f64();
        }
        total += acc;
    }
    total
}

/// Sum of every value's `to_f64` projection, chunked exactly like
/// [`sum_range`]. This is what a piece synopsis stores: because IEEE-754
/// guarantees `1.0 * x == x`, and the chunk/accumulator structure is the
/// same, the stored sum is bit-identical to the `sum_range` result of any
/// query that covers the whole slice — so a pruned aggregate that answers
/// a covered piece from its synopsis reproduces the unpruned scan exactly.
pub fn sum_all<V: ColumnValue>(values: &[V]) -> f64 {
    let mut total = 0.0f64;
    for chunk in values.chunks(CHUNK) {
        let mut acc = 0.0f64;
        for &v in chunk {
            acc += v.to_f64();
        }
        total += acc;
    }
    total
}

/// Min and max over the whole slice (no predicate); `None` when empty.
/// The unconditioned fold behind synopsis construction for unsorted
/// payloads — sorted callers read their first/last element instead.
pub fn min_max_all<V: ColumnValue>(values: &[V]) -> Option<(V, V)> {
    let mut iter = values.iter();
    let &first = iter.next()?;
    let (mut mn, mut mx) = (first, first);
    for &v in iter {
        if v < mn {
            mn = v;
        }
        if mx < v {
            mx = v;
        }
    }
    Some((mn, mx))
}

/// The positions `[start, end)` of the values inside `q` within a *sorted*
/// run — two binary searches, no scan.
///
/// This is the fast path for data that is already totally ordered: the
/// fully-sorted baseline, and the contiguous result slices a cracked
/// column's pieces delimit. `end >= start` always holds (an empty result is
/// `start == end`).
///
/// The caller guarantees `sorted` is ascending (an O(n) check here would
/// invert the fast path's complexity on every query); unsorted input
/// yields positions of no particular meaning, never a panic.
pub fn sorted_run<V: ColumnValue>(sorted: &[V], q: &ValueRange<V>) -> (usize, usize) {
    let start = sorted.partition_point(|x| *x < q.lo());
    let end = sorted.partition_point(|x| *x <= q.hi());
    (start, end.max(start))
}

/// Galloping merge of two ascending runs into `out` (ascending, stable:
/// ties take from `a` first).
///
/// Instead of a per-element compare-and-branch, each iteration binary
/// searches how far the current side runs below the other side's head and
/// appends that whole prefix with `extend_from_slice` — so merging a long
/// base stream with a short delta run costs O(short · log long) plus the
/// `memcpy`s, and the inner loop carries no per-element branch. This is
/// the merge-on-read kernel behind delta-visible collects.
pub fn merge_sorted<V: ColumnValue>(mut a: &[V], mut b: &[V], out: &mut Vec<V>) {
    out.reserve(a.len() + b.len());
    while !a.is_empty() && !b.is_empty() {
        if a[0] <= b[0] {
            let n = a.partition_point(|x| *x <= b[0]);
            out.extend_from_slice(&a[..n]);
            a = &a[n..];
        } else {
            let n = b.partition_point(|x| *x < a[0]);
            out.extend_from_slice(&b[..n]);
            b = &b[n..];
        }
    }
    out.extend_from_slice(a);
    out.extend_from_slice(b);
}

/// Sorted multiset subtraction: appends `base` minus one occurrence per
/// `tombstones` entry to `out`. Both inputs ascending; the output is the
/// ascending remainder. A tombstone with no matching occurrence cancels
/// nothing (the delta layer guarantees matches by construction, but a
/// stray tombstone must degrade to a no-op, never corrupt the survivors).
///
/// Runs of surviving values move with `extend_from_slice` (the positions
/// come from binary searches against the next tombstone), so the kernel
/// never pays a per-element branch on the survivor path.
pub fn subtract_sorted<V: ColumnValue>(base: &[V], tombstones: &[V], out: &mut Vec<V>) {
    let mut i = 0;
    for &t in tombstones {
        if i >= base.len() {
            return;
        }
        let run = base[i..].partition_point(|x| *x < t);
        out.extend_from_slice(&base[i..i + run]);
        i += run;
        if i < base.len() && base[i] == t {
            i += 1; // cancel exactly one occurrence
        }
    }
    out.extend_from_slice(&base[i..]);
}

/// Delete-mask count of one delta run against `q`: how many inserts and
/// how many tombstones fall inside the query, as `(added, removed)` —
/// four binary searches, no scan. The caller folds these into the base
/// count as `base + added − removed` (the multiset identity; `removed`
/// never exceeds the values actually present when tombstones are valid).
pub fn delta_count<V: ColumnValue>(
    inserts: &[V],
    tombstones: &[V],
    q: &ValueRange<V>,
) -> (u64, u64) {
    let (s, e) = sorted_run(inserts, q);
    let added = (e - s) as u64;
    let (s, e) = sorted_run(tombstones, q);
    (added, (e - s) as u64)
}

/// Smallest net-surviving value across ascending `adds` streams after
/// cancelling one occurrence per entry of the ascending `tombs` streams;
/// `None` when everything cancels.
///
/// Both sides walk ascending in lockstep: a tombstone equal to the
/// current smallest add cancels it and the walk advances; a tombstone
/// below every add cancels nothing. The walk stops at the first
/// uncancelled add, so the cost is O(cancelled prefix), not O(total) —
/// the update-shadowing kernel behind delta-visible `MIN`.
pub fn net_min<V: ColumnValue>(adds: &[&[V]], tombs: &[&[V]]) -> Option<V> {
    let mut ai = vec![0usize; adds.len()];
    let mut ti = vec![0usize; tombs.len()];
    loop {
        let mut best: Option<(usize, V)> = None;
        for (k, s) in adds.iter().enumerate() {
            if let Some(&v) = s.get(ai[k]) {
                let better = match best {
                    None => true,
                    Some((_, b)) => v < b,
                };
                if better {
                    best = Some((k, v));
                }
            }
        }
        let (k, v) = best?;
        let mut tbest: Option<(usize, V)> = None;
        for (j, s) in tombs.iter().enumerate() {
            if let Some(&t) = s.get(ti[j]) {
                let better = match tbest {
                    None => true,
                    Some((_, b)) => t < b,
                };
                if better {
                    tbest = Some((j, t));
                }
            }
        }
        match tbest {
            Some((j, t)) if t < v => ti[j] += 1, // stray: nothing to cancel
            Some((j, t)) if t == v => {
                ti[j] += 1;
                ai[k] += 1;
            }
            _ => return Some(v),
        }
    }
}

/// Largest net-surviving value — the descending mirror of [`net_min`],
/// walking both sides from their tails. The kernel behind delta-visible
/// `MAX`.
pub fn net_max<V: ColumnValue>(adds: &[&[V]], tombs: &[&[V]]) -> Option<V> {
    let mut ai: Vec<usize> = adds.iter().map(|s| s.len()).collect();
    let mut ti: Vec<usize> = tombs.iter().map(|s| s.len()).collect();
    loop {
        let mut best: Option<(usize, V)> = None;
        for (k, s) in adds.iter().enumerate() {
            if ai[k] > 0 {
                let v = s[ai[k] - 1];
                let better = match best {
                    None => true,
                    Some((_, b)) => v > b,
                };
                if better {
                    best = Some((k, v));
                }
            }
        }
        let (k, v) = best?;
        let mut tbest: Option<(usize, V)> = None;
        for (j, s) in tombs.iter().enumerate() {
            if ti[j] > 0 {
                let t = s[ti[j] - 1];
                let better = match tbest {
                    None => true,
                    Some((_, b)) => t > b,
                };
                if better {
                    tbest = Some((j, t));
                }
            }
        }
        match tbest {
            Some((j, t)) if t > v => ti[j] -= 1, // stray: nothing to cancel
            Some((j, t)) if t == v => {
                ti[j] -= 1;
                ai[k] -= 1;
            }
            _ => return Some(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn shuffled(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..100_000)).collect()
    }

    fn naive_count(values: &[u32], q: &ValueRange<u32>) -> u64 {
        values.iter().filter(|v| q.contains(**v)).count() as u64
    }

    #[test]
    fn count_matches_naive_across_chunk_boundaries() {
        // Lengths straddling 0, 1, CHUNK-1, CHUNK, CHUNK+1, several chunks.
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17] {
            let values = shuffled(n, n as u64);
            for (lo, hi) in [(0, 99_999), (20_000, 59_999), (99_999, 99_999), (0, 0)] {
                let q = ValueRange::must(lo, hi);
                assert_eq!(
                    count_range(&values, &q),
                    naive_count(&values, &q),
                    "n={n} {q:?}"
                );
            }
        }
    }

    #[test]
    fn collect_matches_naive_and_preserves_order() {
        let values = shuffled(2 * CHUNK + 123, 7);
        for (lo, hi) in [(0, 99_999), (10_000, 49_999), (50_000, 50_000)] {
            let q = ValueRange::must(lo, hi);
            let mut got = Vec::new();
            collect_range(&values, &q, &mut got);
            let expect: Vec<u32> = values.iter().copied().filter(|v| q.contains(*v)).collect();
            assert_eq!(got, expect, "{q:?}");
        }
    }

    #[test]
    fn collect_full_cover_chunk_fast_path() {
        // Every value matches: the fast path must still append all chunks.
        let values: Vec<u32> = (0..(CHUNK as u32 * 2 + 5)).collect();
        let q = ValueRange::must(0, u32::MAX);
        let mut got = Vec::new();
        collect_range(&values, &q, &mut got);
        assert_eq!(got, values);
    }

    #[test]
    fn partition_counts_sum_and_match() {
        let values = shuffled(CHUNK + 999, 11);
        let q = ValueRange::must(25_000, 74_999);
        let (b, m, a) = count_partition(&values, &q);
        assert_eq!(b + m + a, values.len() as u64);
        assert_eq!(b, values.iter().filter(|&&v| v < 25_000).count() as u64);
        assert_eq!(a, values.iter().filter(|&&v| v > 74_999).count() as u64);
        assert_eq!(m, naive_count(&values, &q));
    }

    #[test]
    fn sorted_run_matches_linear_scan() {
        let mut values = shuffled(5_000, 13);
        values.sort_unstable();
        for (lo, hi) in [(0, 99_999), (30_000, 30_000), (99_998, 99_999), (0, 0)] {
            let q = ValueRange::must(lo, hi);
            let (s, e) = sorted_run(&values, &q);
            assert_eq!((e - s) as u64, naive_count(&values, &q), "{q:?}");
            assert!(values[s..e].iter().all(|v| q.contains(*v)));
        }
    }

    #[test]
    fn sorted_run_empty_result_is_start_eq_end() {
        let values: Vec<u32> = vec![10, 20, 30];
        let (s, e) = sorted_run(&values, &ValueRange::must(11, 19));
        assert_eq!(s, e);
        let (s, e) = sorted_run(&values, &ValueRange::must(31, 99));
        assert_eq!((s, e), (3, 3));
    }

    #[test]
    fn fused_sum_matches_collect_then_fold() {
        let values = shuffled(2 * CHUNK + 77, 17);
        for (lo, hi) in [(0, 99_999), (20_000, 59_999), (5, 5), (99_999, 99_999)] {
            let q = ValueRange::must(lo, hi);
            let expect: f64 = values
                .iter()
                .filter(|v| q.contains(**v))
                .map(|&v| v as f64)
                .sum();
            assert_eq!(sum_range(&values, &q), expect, "{q:?}");
        }
    }

    #[test]
    fn sum_all_is_bit_identical_to_a_covering_sum_range() {
        let values = shuffled(3 * CHUNK + 41, 23);
        let covering = ValueRange::must(0u32, u32::MAX);
        assert_eq!(
            sum_all(&values).to_bits(),
            sum_range(&values, &covering).to_bits()
        );
        assert_eq!(sum_all::<u32>(&[]), 0.0);
    }

    #[test]
    fn min_max_all_matches_iterator_fold() {
        let values = shuffled(CHUNK + 3, 29);
        let mn = values.iter().copied().min().unwrap();
        let mx = values.iter().copied().max().unwrap();
        assert_eq!(min_max_all(&values), Some((mn, mx)));
        assert_eq!(min_max_all::<u32>(&[]), None);
        assert_eq!(min_max_all(&[7u32]), Some((7, 7)));
    }

    #[test]
    fn merge_sorted_matches_sort_of_concatenation() {
        for (na, nb) in [(0, 0), (0, 7), (7, 0), (300, 5), (5, 300), (257, 263)] {
            let mut a = shuffled(na, na as u64 + 1);
            let mut b = shuffled(nb, nb as u64 + 2);
            a.sort_unstable();
            b.sort_unstable();
            let mut got = Vec::new();
            merge_sorted(&a, &b, &mut got);
            let mut expect = [a.clone(), b.clone()].concat();
            expect.sort_unstable();
            assert_eq!(got, expect, "na={na} nb={nb}");
        }
    }

    #[test]
    fn merge_sorted_is_stable_on_ties() {
        // Equal values interleave with the `a` side first — observable
        // through Pair's oid component.
        use crate::paired::Pair;
        let a = vec![Pair::new(5u32, 1), Pair::new(5, 3)];
        let b = vec![Pair::new(5u32, 2)];
        // Pairs differ in oid so the total order decides; merge by value
        // stability is inherited from the total order here.
        let mut got = Vec::new();
        merge_sorted(&a, &b, &mut got);
        assert_eq!(got, vec![Pair::new(5, 1), Pair::new(5, 2), Pair::new(5, 3)]);
    }

    #[test]
    fn subtract_sorted_removes_one_occurrence_per_tombstone() {
        let base = vec![1u32, 2, 2, 2, 5, 7, 7, 9];
        let mut out = Vec::new();
        subtract_sorted(&base, &[2, 2, 7, 9], &mut out);
        assert_eq!(out, vec![1, 2, 5, 7]);

        // Stray tombstones (no matching occurrence) cancel nothing.
        out.clear();
        subtract_sorted(&base, &[0, 3, 100], &mut out);
        assert_eq!(out, base);

        // Tombstones can drain the base completely.
        out.clear();
        subtract_sorted(&[4u32, 4], &[4, 4], &mut out);
        assert!(out.is_empty());

        // Empty sides are identities.
        out.clear();
        subtract_sorted(&base, &[], &mut out);
        assert_eq!(out, base);
        out.clear();
        subtract_sorted(&[], &[1u32], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn delta_count_masks_both_sides() {
        let ins = vec![10u32, 20, 30, 40];
        let tombs = vec![15u32, 25];
        let q = ValueRange::must(12, 32);
        assert_eq!(delta_count(&ins, &tombs, &q), (2, 2));
        assert_eq!(delta_count(&ins, &tombs, &ValueRange::must(0, 5)), (0, 0));
        assert_eq!(delta_count(&ins, &tombs, &ValueRange::must(0, 99)), (4, 2));
    }

    #[test]
    fn net_min_max_cancel_tombstones_in_order() {
        // Base {5, 7, 9} plus inserts {6}, tombstones cancel 5 and 9.
        let adds: Vec<&[u32]> = vec![&[5, 7, 9], &[6]];
        let tombs: Vec<&[u32]> = vec![&[5, 9]];
        assert_eq!(net_min(&adds, &tombs), Some(6));
        assert_eq!(net_max(&adds, &tombs), Some(7));

        // No tombstones: plain k-way min/max.
        assert_eq!(net_min(&adds, &[]), Some(5));
        assert_eq!(net_max(&adds, &[]), Some(9));

        // Everything cancels.
        let all: Vec<&[u32]> = vec![&[1, 2]];
        let kill: Vec<&[u32]> = vec![&[1], &[2]];
        assert_eq!(net_min(&all, &kill), None);
        assert_eq!(net_max(&all, &kill), None);

        // Stray tombstones below/above everything cancel nothing.
        let stray: Vec<&[u32]> = vec![&[0, 100]];
        assert_eq!(net_min(&adds, &stray), Some(5));
        assert_eq!(net_max(&adds, &stray), Some(9));

        // Duplicates cancel one occurrence at a time.
        let dup: Vec<&[u32]> = vec![&[3, 3, 3]];
        let one: Vec<&[u32]> = vec![&[3]];
        assert_eq!(net_min(&dup, &one), Some(3));
        let two: Vec<&[u32]> = vec![&[3, 3]];
        assert_eq!(net_min(&dup, &two), Some(3));
        let three: Vec<&[u32]> = vec![&[3, 3, 3]];
        assert_eq!(net_min(&dup, &three), None);

        // Empty adds.
        assert_eq!(net_min::<u32>(&[], &[]), None);
        assert_eq!(net_max::<u32>(&[], &[]), None);
    }

    #[test]
    fn net_walk_matches_naive_multiset_subtraction() {
        let mut rng = SmallRng::seed_from_u64(41);
        for _ in 0..50 {
            let a: Vec<u32> = {
                let mut v: Vec<u32> = (0..30).map(|_| rng.gen_range(0..20)).collect();
                v.sort_unstable();
                v
            };
            let b: Vec<u32> = {
                let mut v: Vec<u32> = (0..10).map(|_| rng.gen_range(0..20)).collect();
                v.sort_unstable();
                v
            };
            let t: Vec<u32> = {
                let mut v: Vec<u32> = (0..15).map(|_| rng.gen_range(0..20)).collect();
                v.sort_unstable();
                v
            };
            let mut merged = Vec::new();
            merge_sorted(&a, &b, &mut merged);
            let mut survivors = Vec::new();
            subtract_sorted(&merged, &t, &mut survivors);
            let adds: Vec<&[u32]> = vec![&a, &b];
            let tombs: Vec<&[u32]> = vec![&t];
            assert_eq!(net_min(&adds, &tombs), survivors.first().copied());
            assert_eq!(net_max(&adds, &tombs), survivors.last().copied());
        }
    }

    #[test]
    fn kernels_handle_float_values() {
        use crate::value::OrdF64;
        let values: Vec<OrdF64> = (0..1000)
            .map(|i| OrdF64::from_finite(i as f64 * 0.5))
            .collect();
        let q = ValueRange::must(OrdF64::from_finite(100.0), OrdF64::from_finite(200.0));
        assert_eq!(count_range(&values, &q), 201);
        let (s, e) = sorted_run(&values, &q);
        assert_eq!(e - s, 201);
    }
}
