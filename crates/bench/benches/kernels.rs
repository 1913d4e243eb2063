//! Kernel micro-benches: full-column scan vs segment-pruned selection —
//! the mechanism behind every read-size figure in the paper — plus the
//! branchless chunked kernels of `soc_core::kernels` against the naive
//! per-element filters they replaced.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use soc_core::{
    kernels, AdaptivePageModel, AdaptiveSegmentation, ColumnStrategy, NonSegmented, NullTracker,
    PiecePayload, SegmentEncoding, SegmentedColumn, SizeEstimator, ValueRange,
};
use soc_workload::{uniform_values, WorkloadSpec};

const DOMAIN_HI: u32 = 999_999;
const COLUMN_LEN: usize = 100_000;

fn domain() -> ValueRange<u32> {
    ValueRange::must(0, DOMAIN_HI)
}

/// A pre-converged APM-segmented column (after 500 warm-up queries).
fn converged_segmentation() -> AdaptiveSegmentation<u32> {
    let column = SegmentedColumn::new(domain(), uniform_values(COLUMN_LEN, &domain(), 1)).unwrap();
    let mut s = AdaptiveSegmentation::new(
        column,
        Box::new(AdaptivePageModel::simulation_default()),
        SizeEstimator::Uniform,
    );
    for q in WorkloadSpec::uniform(0.1, 500, 2).generate(&domain()) {
        s.select_count(&q, &mut NullTracker);
    }
    s
}

fn bench_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_sel0.1");
    group.sample_size(20);

    let queries = WorkloadSpec::uniform(0.1, 64, 3).generate(&domain());

    let mut baseline = NonSegmented::new(domain(), uniform_values(COLUMN_LEN, &domain(), 1));
    group.bench_function(BenchmarkId::new("full_scan", COLUMN_LEN), |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(baseline.select_count(q, &mut NullTracker))
        })
    });

    let mut segmented = converged_segmentation();
    group.bench_function(BenchmarkId::new("segmented_converged", COLUMN_LEN), |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(segmented.select_count(q, &mut NullTracker))
        })
    });
    group.finish();
}

fn bench_overlap_lookup(c: &mut Criterion) {
    let segmented = converged_segmentation();
    let meta = segmented.column().meta_index();
    let queries = WorkloadSpec::uniform(0.01, 256, 4).generate(&domain());
    c.bench_function("meta_index_overlap_lookup", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(meta.overlapping(q).len())
        })
    });
}

/// The raw scan kernels against the tuple-at-a-time loops they replaced —
/// one benchmark per kernel, same data, same query, elements/sec reported.
fn bench_scan_kernels(c: &mut Criterion) {
    const N: usize = 1_000_000;
    let values = uniform_values(N, &domain(), 5);
    let q = ValueRange::must(200_000, 599_999); // ~40% selectivity
    let mut group = c.benchmark_group("scan_kernels");
    group.sample_size(20);
    group.throughput(Throughput::Elements(N as u64));

    group.bench_function(BenchmarkId::new("count_naive_filter", N), |b| {
        b.iter(|| black_box(values.iter().filter(|v| q.contains(**v)).count() as u64))
    });
    group.bench_function(BenchmarkId::new("count_branchless", N), |b| {
        b.iter(|| black_box(kernels::count_range(&values, &q)))
    });

    group.bench_function(BenchmarkId::new("collect_naive_filter", N), |b| {
        b.iter(|| {
            let out: Vec<u32> = values.iter().copied().filter(|v| q.contains(*v)).collect();
            black_box(out.len())
        })
    });
    group.bench_function(BenchmarkId::new("collect_chunked", N), |b| {
        b.iter(|| {
            let mut out = Vec::new();
            kernels::collect_range(&values, &q, &mut out);
            black_box(out.len())
        })
    });

    group.bench_function(BenchmarkId::new("partition_branchless", N), |b| {
        b.iter(|| black_box(kernels::count_partition(&values, &q)))
    });

    let mut sorted = values.clone();
    sorted.sort_unstable();
    group.bench_function(BenchmarkId::new("sorted_run_binary_search", N), |b| {
        b.iter(|| black_box(kernels::sorted_run(&sorted, &q)))
    });
    group.finish();
}

/// Compressed-domain scans against decode-then-scan: the packed kernels
/// evaluate the predicate over codec words without expanding them.
fn bench_packed_scans(c: &mut Criterion) {
    const N: usize = 1_000_000;
    // Sorted, duplicate-heavy column: compressible under every codec.
    let values: Vec<u32> = (0..N as u32).map(|i| i / 8).collect();
    let q = ValueRange::must(N as u32 / 32, N as u32 / 32 + N as u32 / 20);
    let mut group = c.benchmark_group("packed_scans");
    group.sample_size(20);
    group.throughput(Throughput::Elements(N as u64));

    let raw = PiecePayload::Raw(values.clone());
    group.bench_function(BenchmarkId::new("count_raw", N), |b| {
        b.iter(|| black_box(raw.count_range(&q)))
    });
    for enc in [
        SegmentEncoding::Rle,
        SegmentEncoding::For,
        SegmentEncoding::Dict,
    ] {
        let mut packed = PiecePayload::Raw(values.clone());
        assert!(packed.reencode(enc), "column must pack under {enc:?}");
        group.bench_function(BenchmarkId::new("count_packed", enc.token()), |b| {
            b.iter(|| black_box(packed.count_range(&q)))
        });
        group.bench_function(
            BenchmarkId::new("count_decode_then_scan", enc.token()),
            |b| b.iter(|| black_box(kernels::count_range(&packed.decoded(), &q))),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_select,
    bench_overlap_lookup,
    bench_scan_kernels,
    bench_packed_scans
);
criterion_main!(benches);
