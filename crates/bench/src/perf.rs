//! The machine-readable perf baseline behind `repro --json`.
//!
//! Every repro run can emit `BENCH_PR4.json`: per-experiment wall time,
//! and — for the parallel-executor experiments — bytes scanned and the
//! measured serial-vs-parallel speedup. CI uploads the file as an
//! artifact, so the performance trajectory of the executor finally has a
//! baseline that survives the run instead of scrolling away in a log.
//!
//! The JSON is hand-rolled (the build is offline; no serde) but kept
//! trivially regular: one object, a `schema` tag, and an `experiments`
//! array of flat objects with stable keys.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use criterion::quantile;
use soc_core::{
    kernels, AdmissionConfig, AdmissionGate, AdmissionPolicy, CompactionPolicy, ConcurrentColumn,
    CountingTracker, DeltaBatch, DeltaOp, Fault, FaultPlan, FaultSite, NullTracker, Permit,
    StrategyKind, StrategySnapshot, StrategySpec, ValueRange,
};
use soc_sim::{ExecMode, PlacementPolicy, ShardedColumn};
use soc_workload::{uniform_values, Arrival, OpenLoopSpec, WorkloadSpec};

/// One line of the perf baseline.
#[derive(Debug, Clone)]
pub struct PerfEntry {
    /// Stable experiment identifier (`"simulation"`, `"perf-sharded-nodes16"`, …).
    pub id: String,
    /// Wall-clock time of the whole experiment section, in milliseconds.
    pub wall_ms: f64,
    /// Bytes of segment storage scanned, when the experiment measured it.
    pub bytes_scanned: Option<u64>,
    /// Serial executor wall time (ms), for the sharded-scan experiments.
    pub serial_ms: Option<f64>,
    /// Parallel executor wall time (ms), for the sharded-scan experiments.
    pub parallel_ms: Option<f64>,
    /// `serial_ms / parallel_ms` — > 1.0 means the parallel executor won.
    pub speedup: Option<f64>,
    /// Raw (unencoded) footprint in bytes, for the compression experiments.
    pub bytes_raw: Option<u64>,
    /// Encoded footprint in bytes, for the compression experiments.
    pub bytes_encoded: Option<u64>,
    /// Bytes the same walk would have read with zone-map pruning off
    /// (`scanned + skipped`), for the pruning experiment.
    pub bytes_unpruned: Option<u64>,
    /// Median open-loop latency in microseconds.
    pub p50_us: Option<f64>,
    /// 99th-percentile open-loop latency in microseconds.
    pub p99_us: Option<f64>,
    /// 99.9th-percentile open-loop latency in microseconds.
    pub p999_us: Option<f64>,
    /// Fraction of arrivals the admission gate refused, for the overload
    /// experiments (0.0 for the gate-off baseline).
    pub shed_rate: Option<f64>,
    /// Served (non-shed) queries per second of wall time, for the
    /// overload experiments.
    pub goodput_qps: Option<f64>,
    /// Wall time of the query that absorbed a worker rebuild after an
    /// injected kill, for the recovery experiment.
    pub recovery_ms: Option<f64>,
}

impl PerfEntry {
    /// A timing-only entry for an experiment section.
    pub fn section(id: impl Into<String>, wall_ms: f64) -> Self {
        PerfEntry {
            id: id.into(),
            wall_ms,
            bytes_scanned: None,
            serial_ms: None,
            parallel_ms: None,
            speedup: None,
            bytes_raw: None,
            bytes_encoded: None,
            bytes_unpruned: None,
            p50_us: None,
            p99_us: None,
            p999_us: None,
            shed_rate: None,
            goodput_qps: None,
            recovery_ms: None,
        }
    }
}

/// Workload shape of the sharded-scan perf experiment. Round-robin
/// placement over a non-adapting strategy maximizes per-query fan-out —
/// every node scans for every query — which is both the worst case for the
/// serial executor and the best-defined measurement of parallel overlap
/// (no adaptation state to drift between the two timed runs).
fn perf_shard(nodes: usize, column_len: usize) -> (ShardedColumn<u32>, Vec<ValueRange<u32>>) {
    let domain = ValueRange::must(0u32, 999_999);
    let values = uniform_values(column_len, &domain, 41);
    let shard = ShardedColumn::new(
        StrategySpec::new(StrategyKind::NoSegm),
        PlacementPolicy::RoundRobin,
        nodes,
        domain,
        values,
    )
    .expect("nodes > 0 and values in domain");
    // Selectivity 0.5: every query overlaps seed ranges of every node's
    // round-robin stripe, so measured fan-out is the full node count and
    // each query costs one whole-column scan spread across the nodes.
    let queries = WorkloadSpec::uniform(0.5, 64, 42).generate(&domain);
    (shard, queries)
}

/// Times one batch execution under `mode`, best of `reps` runs.
fn time_batch(
    shard: &mut ShardedColumn<u32>,
    queries: &[ValueRange<u32>],
    mode: ExecMode,
    reps: usize,
) -> (f64, Vec<u64>) {
    shard.set_exec_mode(mode);
    let mut best = f64::INFINITY;
    let mut counts = Vec::new();
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        counts = shard.select_count_batch(queries, &mut soc_core::NullTracker);
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, counts)
}

/// Measures the serial-vs-parallel sharded scan at `nodes` nodes and
/// returns the filled-in [`PerfEntry`] (`perf-sharded-nodes<n>`).
///
/// The speedup is wall-clock and therefore hardware-dependent: on a
/// single-core container the parallel executor can only tie serial (minus
/// a small scheduling overhead), while any multi-core machine shows the
/// overlap directly.
pub fn sharded_scan_perf(nodes: usize, quick: bool) -> PerfEntry {
    // Sized so batch scan work dominates the per-node thread-spawn cost
    // even in quick mode (~2 ms serial at 200k × 64 queries vs ~0.4 ms of
    // coordination at 16 nodes).
    let column_len = if quick { 200_000 } else { 400_000 };
    let section_start = Instant::now();
    let (mut shard, queries) = perf_shard(nodes, column_len);

    // Warm once (page in the shards), then measure both modes on the same
    // converged state. NoSegm never adapts, so the two timed runs scan
    // identical data.
    let _ = shard.select_count_batch(&queries, &mut soc_core::NullTracker);
    let (serial_ms, serial_counts) = time_batch(&mut shard, &queries, ExecMode::Serial, 3);
    let (parallel_ms, parallel_counts) = time_batch(&mut shard, &queries, ExecMode::Parallel, 3);
    assert_eq!(
        serial_counts, parallel_counts,
        "parallel batch diverged from serial"
    );

    // One audited pass for the bytes-scanned axis.
    let mut tracker = CountingTracker::new();
    shard.set_exec_mode(ExecMode::Parallel);
    let _ = shard.select_count_batch(&queries, &mut tracker);

    PerfEntry {
        bytes_scanned: Some(tracker.totals().read_bytes),
        serial_ms: Some(serial_ms),
        parallel_ms: Some(parallel_ms),
        speedup: Some(serial_ms / parallel_ms.max(1e-9)),
        ..PerfEntry::section(
            format!("perf-sharded-nodes{nodes}"),
            section_start.elapsed().as_secs_f64() * 1e3,
        )
    }
}

/// Measures the branchless scan kernel against the naive per-element
/// filter on the same data (`perf-kernels-count`): the microscopic half of
/// the baseline, pure kernel throughput with no executor around it.
pub fn kernel_count_perf(quick: bool) -> PerfEntry {
    let n = if quick { 200_000 } else { 1_000_000 };
    let section_start = Instant::now();
    let domain = ValueRange::must(0u32, 999_999);
    let values = uniform_values(n, &domain, 43);
    let q = ValueRange::must(100_000, 499_999);

    let timed = |f: &dyn Fn() -> u64| -> (f64, u64) {
        let mut best = f64::INFINITY;
        let mut out = 0u64;
        for _ in 0..5 {
            let t0 = Instant::now();
            out = std::hint::black_box(f());
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        (best, out)
    };
    let (naive_ms, naive_n) = timed(&|| values.iter().filter(|v| q.contains(**v)).count() as u64);
    let (kernel_ms, kernel_n) = timed(&|| soc_core::kernels::count_range(&values, &q));
    assert_eq!(naive_n, kernel_n, "kernel count diverged from naive filter");

    PerfEntry {
        bytes_scanned: Some(n as u64 * 4),
        serial_ms: Some(naive_ms),
        parallel_ms: Some(kernel_ms),
        speedup: Some(naive_ms / kernel_ms.max(1e-9)),
        ..PerfEntry::section(
            "perf-kernels-count",
            section_start.elapsed().as_secs_f64() * 1e3,
        )
    }
}

/// Workload of the epoch-read-path perf experiments: a self-organizing
/// column under a query stream that keeps reorganizing it.
fn concurrent_setup(
    quick: bool,
) -> (
    StrategySpec,
    ValueRange<u32>,
    Vec<u32>,
    Vec<ValueRange<u32>>,
) {
    let column_len = if quick { 100_000 } else { 400_000 };
    let domain = ValueRange::must(0u32, 999_999);
    let values = uniform_values(column_len, &domain, 47);
    let queries = WorkloadSpec::uniform(0.02, 96, 48).generate(&domain);
    let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(16 * 1024, 64 * 1024);
    (spec, domain, values, queries)
}

/// Measures the epoch-snapshot read path against the serial `&mut` path
/// (`perf-concurrent-readers`): `R` reader threads hammer one
/// [`ConcurrentColumn`] while its writer folds the reorganizations in the
/// background, versus the same total query count executed serially on the
/// bare strategy (every query paying reads *and* reorganization inline).
///
/// `serial_ms` is the `&mut` baseline, `parallel_ms` the concurrent wall
/// clock for the identical workload; on a single-core container the
/// speedup degenerates to ~1.0 (overhead only), while any multi-core
/// machine overlaps the readers directly.
pub fn concurrent_read_perf(quick: bool) -> PerfEntry {
    let section_start = Instant::now();
    let (spec, domain, values, queries) = concurrent_setup(quick);
    let readers = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(2)
        .max(2);
    let expect: Vec<u64> = queries
        .iter()
        .map(|q| values.iter().filter(|v| q.contains(**v)).count() as u64)
        .collect();

    // Serial &mut baseline: R passes over the query stream, one after the
    // other, reorganization folded inline as the paper prescribes.
    let mut serial = spec
        .build(domain, values.clone())
        .expect("values in domain");
    let t0 = Instant::now();
    for _ in 0..readers {
        for (q, &e) in queries.iter().zip(&expect) {
            assert_eq!(serial.select_count(q, &mut NullTracker), e);
        }
    }
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Concurrent: the same R passes, one reader thread each, against the
    // published snapshots; the single writer folds reorganizations off
    // the read path.
    let concurrent =
        ConcurrentColumn::from_spec(&spec, domain, values.clone()).expect("values in domain");
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..readers {
            s.spawn(|| {
                for (q, &e) in queries.iter().zip(&expect) {
                    assert_eq!(concurrent.select_count(q, &mut NullTracker), e);
                }
            });
        }
    });
    let parallel_ms = t0.elapsed().as_secs_f64() * 1e3;
    concurrent.quiesce();
    let bytes = concurrent.snapshot().storage_bytes() * readers as u64;

    PerfEntry {
        bytes_scanned: Some(bytes),
        serial_ms: Some(serial_ms),
        parallel_ms: Some(parallel_ms),
        speedup: Some(serial_ms / parallel_ms.max(1e-9)),
        ..PerfEntry::section(
            "perf-concurrent-readers",
            section_start.elapsed().as_secs_f64() * 1e3,
        )
    }
}

/// Proves `set_strategy` migrations never block readers
/// (`perf-concurrent-migrate`): read latency over a quiet column versus
/// the same reads issued while background migrations are continuously
/// rebuilding the column. The ratio (`speedup` field: quiet / during)
/// should hover near 1.0 — the readers keep answering from published
/// epochs while the writer rebuilds.
pub fn concurrent_migration_perf(quick: bool) -> PerfEntry {
    let section_start = Instant::now();
    let (spec, domain, values, queries) = concurrent_setup(quick);
    let expect: Vec<u64> = queries
        .iter()
        .map(|q| values.iter().filter(|v| q.contains(**v)).count() as u64)
        .collect();
    let concurrent =
        ConcurrentColumn::from_spec(&spec, domain, values.clone()).expect("values in domain");

    concurrent.quiesce();
    let t0 = Instant::now();
    for _ in 0..2 {
        for (q, &e) in queries.iter().zip(&expect) {
            assert_eq!(concurrent.select_count(q, &mut NullTracker), e);
        }
    }
    let quiet_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The busy pass re-enqueues a full-column rebuild every few queries,
    // cycling strategy kinds, so the writer is rebuilding for the whole
    // measured window — not just at its start (a single up-front burst
    // can drain before the first read on a fast box, which would measure
    // a quiet column and prove nothing).
    const MIGRATION_KINDS: [StrategyKind; 4] = [
        StrategyKind::FullSort,
        StrategyKind::Cracking,
        StrategyKind::GdSegm,
        StrategyKind::ApmSegm,
    ];
    let mut fired = 0usize;
    let t0 = Instant::now();
    for _ in 0..2 {
        for (i, (q, &e)) in queries.iter().zip(&expect).enumerate() {
            if i % 8 == 0 {
                let kind = MIGRATION_KINDS[fired % MIGRATION_KINDS.len()];
                concurrent.set_strategy(StrategySpec { kind, ..spec });
                fired += 1;
            }
            assert_eq!(concurrent.select_count(q, &mut NullTracker), e);
        }
    }
    let busy_ms = t0.elapsed().as_secs_f64() * 1e3;
    concurrent.quiesce();
    assert_eq!(
        concurrent.snapshot().failed_migrations(),
        0,
        "migrations must land"
    );

    PerfEntry {
        bytes_scanned: Some(values.len() as u64 * 4 * 2),
        serial_ms: Some(quiet_ms),
        parallel_ms: Some(busy_ms),
        speedup: Some(quiet_ms / busy_ms.max(1e-9)),
        ..PerfEntry::section(
            "perf-concurrent-migrate",
            section_start.elapsed().as_secs_f64() * 1e3,
        )
    }
}

/// Best-of-`reps` wall time of `f`, in milliseconds, with the result of
/// the last run passed back for validation.
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        out = Some(std::hint::black_box(f()));
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, out.expect("reps >= 1"))
}

/// The cold sorted column of the compression baseline: ascending with an
/// 8-fold duplication factor, so RLE collapses it by runs, FOR by bit
/// width, and the dictionary by cardinality.
fn cold_sorted_column(quick: bool) -> Vec<u32> {
    let n: u32 = if quick { 400_000 } else { 2_000_000 };
    (0..n).map(|i| i / 8).collect()
}

/// Measures the compressed-domain scan kernels (`perf-compress-<codec>`,
/// `perf-compress-hot`): per codec, the footprint of the cold sorted
/// column (`bytes_raw` vs `bytes_encoded`) and the wall time of a
/// packed-domain range count (`parallel_ms`) against decode-then-scan
/// (`serial_ms`) over the same payload. The `-hot` entry compares the
/// packed scan against the raw branchless kernel on in-cache data — the
/// regime the CI gate holds to ≤ 1.2x raw.
pub fn compress_perf(quick: bool) -> Vec<PerfEntry> {
    use soc_core::{PiecePayload, SegmentEncoding};

    let section_start = Instant::now();
    let values = cold_sorted_column(quick);
    let n = values.len() as u64;
    let hi = *values.last().expect("non-empty");
    // ~40% selectivity, interior bounds so every piece of the scan runs.
    let q = ValueRange::must(hi / 4, hi / 4 + 2 * (hi / 5));
    let raw = PiecePayload::Raw(values);
    let expect = raw.count_range(&q);

    let mut entries = Vec::new();
    let mut best_packed: Option<(u64, PiecePayload<u32>)> = None;
    for enc in [
        SegmentEncoding::Rle,
        SegmentEncoding::For,
        SegmentEncoding::Dict,
    ] {
        let entry_start = Instant::now();
        let mut packed = raw.clone();
        assert!(
            packed.reencode(enc),
            "the cold sorted column must be {enc:?}-encodable"
        );
        let (packed_ms, packed_n) = best_ms(5, || packed.count_range(&q));
        assert_eq!(packed_n, expect, "{enc:?} packed count diverged from raw");
        // The alternative the packed kernel replaces: materialize the
        // decoded values, then run the raw kernel over them.
        let (decode_ms, decode_n) =
            best_ms(5, || soc_core::kernels::count_range(&packed.decoded(), &q));
        assert_eq!(decode_n, expect, "{enc:?} decoded count diverged from raw");
        if best_packed
            .as_ref()
            .is_none_or(|(b, _)| packed.bytes() < *b)
        {
            best_packed = Some((packed.bytes(), packed.clone()));
        }
        entries.push(PerfEntry {
            bytes_scanned: Some(packed.bytes()),
            serial_ms: Some(decode_ms),
            parallel_ms: Some(packed_ms),
            speedup: Some(decode_ms / packed_ms.max(1e-9)),
            bytes_raw: Some(n * 4),
            bytes_encoded: Some(packed.bytes()),
            ..PerfEntry::section(
                format!("perf-compress-{}", enc.token()),
                entry_start.elapsed().as_secs_f64() * 1e3,
            )
        });
    }

    // Hot regime: the same (in-cache) data scanned raw vs through the
    // smallest packed representation — the footprint win must not cost
    // scan speed.
    let (bytes_encoded, packed) = best_packed.expect("three codecs ran");
    let (raw_ms, raw_n) = best_ms(7, || raw.count_range(&q));
    let (packed_ms, packed_n) = best_ms(7, || packed.count_range(&q));
    assert_eq!(raw_n, expect);
    assert_eq!(packed_n, expect);
    entries.push(PerfEntry {
        bytes_scanned: Some(bytes_encoded),
        serial_ms: Some(raw_ms),
        parallel_ms: Some(packed_ms),
        speedup: Some(raw_ms / packed_ms.max(1e-9)),
        bytes_raw: Some(n * 4),
        bytes_encoded: Some(bytes_encoded),
        ..PerfEntry::section(
            "perf-compress-hot",
            section_start.elapsed().as_secs_f64() * 1e3,
        )
    });
    entries
}

/// Measures the fused aggregate kernels against the collect-then-fold
/// pattern they replace (`perf-compress-aggregate`): `serial_ms` collects
/// the qualifying values into a scratch vector and folds it (the old
/// `peek_collect`-then-fold call-site shape), `parallel_ms` runs the
/// one-pass `kernels::sum_range`/`min_max_range` pair over the same data.
pub fn aggregate_kernel_perf(quick: bool) -> PerfEntry {
    let section_start = Instant::now();
    let n = if quick { 400_000 } else { 2_000_000 };
    let domain = ValueRange::must(0u32, 999_999);
    let values = uniform_values(n, &domain, 53);
    let q = ValueRange::must(150_000, 549_999);

    let (fold_ms, fold_out) = best_ms(5, || {
        let mut scratch = Vec::new();
        soc_core::kernels::collect_range(&values, &q, &mut scratch);
        let sum: f64 = scratch.iter().map(|&v| f64::from(v)).sum();
        let min = scratch.iter().copied().min();
        let max = scratch.iter().copied().max();
        (sum, min.zip(max))
    });
    let (fused_ms, fused_out) = best_ms(5, || {
        (
            soc_core::kernels::sum_range(&values, &q),
            soc_core::kernels::min_max_range(&values, &q),
        )
    });
    assert_eq!(fused_out.1, fold_out.1, "fused min/max diverged from fold");
    assert!(
        (fused_out.0 - fold_out.0).abs() <= fold_out.0.abs() * 1e-9,
        "fused sum diverged from fold"
    );

    PerfEntry {
        bytes_scanned: Some(n as u64 * 4),
        serial_ms: Some(fold_ms),
        parallel_ms: Some(fused_ms),
        speedup: Some(fold_ms / fused_ms.max(1e-9)),
        ..PerfEntry::section(
            "perf-compress-aggregate",
            section_start.elapsed().as_secs_f64() * 1e3,
        )
    }
}

/// Workload of the zone-map pruning experiment: the cold sorted column
/// under APM segmentation, converged by one pass of the query stream so
/// every piece carries tight synopsis bounds. The APM
/// bounds are deliberately small relative to the ~10%-selectivity query
/// width, so a typical query overlaps many pieces and only its two
/// boundary pieces straddle.
fn pruned_setup(quick: bool) -> (ConcurrentColumn<u32>, Vec<ValueRange<u32>>, Vec<u32>) {
    let values = cold_sorted_column(quick);
    let hi = *values.last().expect("non-empty");
    let domain = ValueRange::must(0u32, hi);
    let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(4 * 1024, 16 * 1024);
    let column =
        ConcurrentColumn::from_spec(&spec, domain, values.clone()).expect("values in domain");
    let queries = WorkloadSpec::uniform(0.1, 64, 59).generate(&domain);
    for q in &queries {
        let _ = column.select_count(q, &mut NullTracker);
    }
    column.quiesce();
    (column, queries, values)
}

/// Measures zone-map piece pruning on the snapshot read path
/// (`perf-pruning`): one audited pass of the query stream over the
/// converged clustered column, with [`CountingTracker`] splitting the
/// bytes actually scanned (`bytes_scanned`) from what the same walk
/// reads with the synopses ignored (`bytes_unpruned` = scanned +
/// skipped — the skip accounting carries the piece size precisely so
/// the unpruned cost is reconstructible from one pruned run). The
/// `speedup` field is the byte ratio; CI gates it at ≥ 3x here.
pub fn pruning_scan_perf(quick: bool) -> PerfEntry {
    let section_start = Instant::now();
    let (column, queries, values) = pruned_setup(quick);
    let snapshot = column.snapshot();

    let mut tracker = CountingTracker::new();
    for q in &queries {
        tracker.begin_query();
        let n = snapshot.select_count(q, &mut tracker);
        assert_eq!(
            n,
            kernels::count_range(&values, q),
            "pruned count diverged from the naive filter"
        );
    }
    let pruned = tracker.totals().read_bytes;
    let unpruned = tracker.totals().unpruned_read_bytes();

    PerfEntry {
        bytes_scanned: Some(pruned),
        bytes_unpruned: Some(unpruned),
        speedup: Some(unpruned as f64 / pruned.max(1) as f64),
        ..PerfEntry::section("perf-pruning", section_start.elapsed().as_secs_f64() * 1e3)
    }
}

/// Fractional microseconds from the scheduled arrival `at_micros` (an
/// offset from `t0`) to now. Timed in nanoseconds: a served read takes a
/// few microseconds, so whole-microsecond truncation would be a ±30%
/// error at the median.
fn us_since(t0: Instant, at_micros: u64) -> f64 {
    let late = t0
        .elapsed()
        .saturating_sub(Duration::from_micros(at_micros));
    late.as_nanos() as f64 / 1e3
}

/// Runs the open-loop (arrival-rate-driven) Zipf workload against a
/// self-organizing [`ConcurrentColumn`] (`perf-openloop`) and reports
/// scheduled-arrival latency quantiles. Each query is issued at its
/// Poisson arrival instant — early slots are waited out, late ones are
/// never compressed — and latency is completion minus *scheduled*
/// arrival, so queueing delay behind a reorganizing writer lands in the
/// tail. p50/p99/p999 come from the shared criterion-shim
/// [`quantile`] estimator.
pub fn open_loop_perf(quick: bool) -> PerfEntry {
    let section_start = Instant::now();
    let n = if quick { 100_000 } else { 400_000 };
    let domain = ValueRange::must(0u32, 999_999);
    let values = uniform_values(n, &domain, 67);
    let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(16 * 1024, 64 * 1024);
    let column = ConcurrentColumn::from_spec(&spec, domain, values).expect("values in domain");

    let count = if quick { 800 } else { 4_000 };
    let open = OpenLoopSpec::new(WorkloadSpec::zipf(0.02, count, 71), 4_000.0);
    let schedule = open.schedule(&domain);

    let t0 = Instant::now();
    let mut latencies_us: Vec<f64> = Vec::with_capacity(schedule.len());
    for a in &schedule {
        while t0.elapsed() < Duration::from_micros(a.at_micros) {
            std::hint::spin_loop();
        }
        let _ = std::hint::black_box(column.select_count(&a.query, &mut NullTracker));
        latencies_us.push(us_since(t0, a.at_micros));
    }
    column.quiesce();
    latencies_us.sort_unstable_by(f64::total_cmp);

    PerfEntry {
        p50_us: Some(quantile(&latencies_us, 0.50)),
        p99_us: Some(quantile(&latencies_us, 0.99)),
        p999_us: Some(quantile(&latencies_us, 0.999)),
        ..PerfEntry::section("perf-openloop", section_start.elapsed().as_secs_f64() * 1e3)
    }
}

/// Rows each write batch of the delta experiments inserts per arrival.
const DELTA_BATCH_ROWS: usize = 32;

/// Pending-row count at which the bulk-merge variant stalls to drain.
const DELTA_BULK_THRESHOLD: u64 = 8_192;

/// One write-heavy open-loop run against a [`ConcurrentColumn`]: every
/// arrival applies a [`DeltaBatch`] of [`DELTA_BATCH_ROWS`] inserts and
/// then reads, with latency measured from the *scheduled* arrival. With
/// `incremental` the epoch writer folds the runs a step at a time in the
/// background (the PR's compactor); without it the column never
/// auto-folds and the driver blocks on [`ConcurrentColumn::drain_deltas`]
/// whenever the backlog reaches [`DELTA_BULK_THRESHOLD`] — the
/// threshold-triggered full merge this PR replaces, with the stall
/// landing in the measured tail exactly where a serving system feels it.
fn delta_write_perf(quick: bool, incremental: bool) -> PerfEntry {
    let section_start = Instant::now();
    let n = if quick { 100_000 } else { 300_000 };
    let domain = ValueRange::must(0u32, 999_999);
    let values = uniform_values(n, &domain, 73);
    let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(16 * 1024, 64 * 1024);
    let policy = if incremental {
        CompactionPolicy::default()
    } else {
        // Out of reach: the writer holds every run until the drain.
        CompactionPolicy::new(u64::MAX, u64::MAX, u64::MAX)
    };
    let column = ConcurrentColumn::from_spec_with_policy(&spec, domain, values, policy)
        .expect("values in domain");

    let count = if quick { 800 } else { 3_000 };
    let open = OpenLoopSpec::new(WorkloadSpec::zipf(0.02, count, 71), 4_000.0);
    let schedule = open.schedule(&domain);
    let writes = uniform_values(schedule.len() * DELTA_BATCH_ROWS, &domain, 79);

    let mut next_oid = n as u64;
    let t0 = Instant::now();
    let mut latencies_us: Vec<f64> = Vec::with_capacity(schedule.len());
    for (i, a) in schedule.iter().enumerate() {
        while t0.elapsed() < Duration::from_micros(a.at_micros) {
            std::hint::spin_loop();
        }
        let mut batch = DeltaBatch::new();
        for &value in &writes[i * DELTA_BATCH_ROWS..(i + 1) * DELTA_BATCH_ROWS] {
            batch.push(DeltaOp::Insert {
                oid: next_oid,
                value,
            });
            next_oid += 1;
        }
        column.apply_deltas(batch);
        if !incremental && column.pending_delta_rows() >= DELTA_BULK_THRESHOLD {
            column.drain_deltas();
        }
        let _ = std::hint::black_box(column.select_count(&a.query, &mut NullTracker));
        latencies_us.push(us_since(t0, a.at_micros));
    }
    column.drain_deltas();
    assert_eq!(
        column.select_count(&domain, &mut NullTracker),
        (n + schedule.len() * DELTA_BATCH_ROWS) as u64,
        "the write stream must land exactly"
    );
    latencies_us.sort_unstable_by(f64::total_cmp);

    let id = if incremental {
        "perf-delta-incremental"
    } else {
        "perf-delta-bulk"
    };
    PerfEntry {
        p50_us: Some(quantile(&latencies_us, 0.50)),
        p99_us: Some(quantile(&latencies_us, 0.99)),
        p999_us: Some(quantile(&latencies_us, 0.999)),
        ..PerfEntry::section(id, section_start.elapsed().as_secs_f64() * 1e3)
    }
}

/// A base-only replica of the snapshot count walk, built from the same
/// frozen organization: disjoint pieces charge a skip, covered pieces
/// answer from their length (also a skip — nothing read), straddling
/// pieces scan through the branchless sorted-run kernel — exactly the
/// pre-overlay read path including its tracker traffic, with no delta
/// fold at the end.
struct BaseOnlyPiece {
    range: ValueRange<u32>,
    /// `Arc` like the snapshot's own pieces, so the walk pays the same
    /// indirection per piece.
    values: Arc<Vec<u32>>,
    /// Zone-map bounds over the actual values (`None` when empty), the
    /// same tightened bounds the snapshot's synopsis classifies with.
    bounds: Option<(u32, u32)>,
    id: soc_core::SegId,
    bytes: u64,
}

struct BaseOnlyWalk {
    pieces: Vec<BaseOnlyPiece>,
}

impl BaseOnlyWalk {
    fn of(snapshot: &StrategySnapshot<u32>, values: &[u32]) -> Self {
        let ranges = snapshot.piece_ranges();
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let mut gen = soc_core::SegIdGen::new();
        let mut pieces = Vec::with_capacity(ranges.len());
        let mut at = 0usize;
        for r in ranges {
            let end = at + sorted[at..].partition_point(|v| *v <= r.hi());
            let vals = sorted[at..end].to_vec();
            at = end;
            pieces.push(BaseOnlyPiece {
                range: r,
                bounds: vals.first().copied().zip(vals.last().copied()),
                bytes: vals.len() as u64 * 4,
                values: Arc::new(vals),
                id: gen.fresh(),
            });
        }
        assert_eq!(at, sorted.len(), "pieces must tile the column");
        BaseOnlyWalk { pieces }
    }

    fn count(&self, q: &ValueRange<u32>, tracker: &mut dyn soc_core::AccessTracker) -> u64 {
        let first = self.pieces.partition_point(|p| p.range.hi() < q.lo());
        let mut n = 0u64;
        for p in self.pieces[first..]
            .iter()
            .take_while(|p| p.range.lo() <= q.hi())
        {
            match p.bounds {
                None => tracker.skip(p.id, p.bytes),
                Some((lo, hi)) if hi < q.lo() || lo > q.hi() => tracker.skip(p.id, p.bytes),
                Some((lo, hi)) if q.lo() <= lo && hi <= q.hi() => {
                    tracker.skip(p.id, p.bytes);
                    n += p.values.len() as u64;
                }
                Some(_) => {
                    tracker.scan(p.id, p.bytes);
                    let (s, e) = kernels::sorted_run(&p.values, q);
                    n += (e - s) as u64;
                }
            }
        }
        n
    }
}

/// Measures what the delta overlay costs a column that has **no** deltas
/// (`perf-delta-overlay`): the same converged snapshot counted through
/// the overlay-aware read path (`parallel_ms`) versus the base-only
/// replica walk above (`serial_ms`). The `speedup` field is the overhead
/// ratio `overlay / base-only`; CI gates it at ≤ 1.2x — carrying the
/// merge-on-read capability must be free when there is nothing to merge.
fn delta_overlay_perf(quick: bool) -> PerfEntry {
    let section_start = Instant::now();
    let n = if quick { 200_000 } else { 1_000_000 };
    let domain = ValueRange::must(0u32, 999_999);
    let values = uniform_values(n, &domain, 83);
    let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(16 * 1024, 64 * 1024);
    let column =
        ConcurrentColumn::from_spec(&spec, domain, values.clone()).expect("values in domain");
    let queries = WorkloadSpec::uniform(0.05, 64, 87).generate(&domain);
    for q in &queries {
        let _ = column.select_count(q, &mut NullTracker);
    }
    column.quiesce();
    let snapshot = column.snapshot();
    assert_eq!(snapshot.delta_runs(), 0, "the column must be delta-free");

    let walk = BaseOnlyWalk::of(&snapshot, &values);
    for q in &queries {
        assert_eq!(
            walk.count(q, &mut NullTracker),
            snapshot.select_count(q, &mut NullTracker),
            "base-only replica diverged from the snapshot walk"
        );
    }

    // The per-pass work is microseconds on a converged column, so each
    // timed sample runs the stream several times — the ratio gate needs
    // the measurement well clear of clock noise. The two sides are timed
    // back to back inside one rep (so load drift hits both), and the rep
    // with the *median* paired ratio is reported: load bursts from the
    // rest of the pipeline (the full `--experiment all` run shares the
    // process) corrupt individual reps in either direction, and the
    // median discards up to half of them without the optimistic bias a
    // min-over-ratios would carry.
    const PASSES: usize = 16;
    const REPS: usize = 9;
    let mut reps: Vec<(f64, f64)> = Vec::with_capacity(REPS);
    let mut sink = 0u64;
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..PASSES {
            sink += queries
                .iter()
                .map(|q| walk.count(q, &mut NullTracker))
                .sum::<u64>();
        }
        let rep_base = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        for _ in 0..PASSES {
            sink += queries
                .iter()
                .map(|q| snapshot.select_count(q, &mut NullTracker))
                .sum::<u64>();
        }
        let rep_overlay = t0.elapsed().as_secs_f64() * 1e3;
        reps.push((rep_base, rep_overlay));
    }
    std::hint::black_box(sink);
    reps.sort_by(|a, b| {
        let (ra, rb) = (a.1 / a.0.max(1e-9), b.1 / b.0.max(1e-9));
        ra.partial_cmp(&rb).expect("elapsed times are finite")
    });
    let (base_ms, overlay_ms) = reps[reps.len() / 2];

    PerfEntry {
        bytes_scanned: Some(snapshot.storage_bytes()),
        serial_ms: Some(base_ms),
        parallel_ms: Some(overlay_ms),
        speedup: Some(overlay_ms / base_ms.max(1e-9)),
        ..PerfEntry::section(
            "perf-delta-overlay",
            section_start.elapsed().as_secs_f64() * 1e3,
        )
    }
}

/// The delta-compaction experiment set (`perf-delta-*`): the write-heavy
/// open-loop tail with incremental background merge versus the bulk
/// threshold merge it replaces, plus the delta-free overlay overhead.
/// CI gates incremental p999 ≤ bulk p999 (on ≥ 2 cores — a single core
/// serializes the background folds into the read path and the comparison
/// loses meaning) and overlay overhead ≤ 1.2x unconditionally.
pub fn delta_merge_perf(quick: bool) -> Vec<PerfEntry> {
    vec![
        delta_write_perf(quick, true),
        delta_write_perf(quick, false),
        delta_overlay_perf(quick),
    ]
}

/// Outcome of one open-loop overload run.
struct OverloadRun {
    /// Scheduled-arrival-to-completion latency of every served query,
    /// microseconds, ascending.
    served_us: Vec<f64>,
    wall_s: f64,
}

/// Drives `schedule` against `snap` with `workers` server threads. With a
/// gate, each arrival is admitted on the spot (the permit travels with
/// the job and frees on completion) or shed; without one, every arrival
/// is enqueued unbounded — the admission-off baseline whose backlog at
/// 2× saturation grows for the whole run.
fn drive_open_loop(
    snap: &Arc<StrategySnapshot<u32>>,
    schedule: &[Arrival<u32>],
    gate: Option<&AdmissionGate>,
    workers: usize,
) -> OverloadRun {
    let (tx, rx) = mpsc::channel::<(u64, ValueRange<u32>, Option<Permit>)>();
    let rx = Arc::new(Mutex::new(rx));
    let t0 = Instant::now();
    let served: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let snap = Arc::clone(snap);
                s.spawn(move || {
                    let mut lat = Vec::new();
                    loop {
                        let job = rx.lock().expect("job queue lock").recv();
                        let Ok((at, q, permit)) = job else { break };
                        let _ = std::hint::black_box(snap.select_count(&q, &mut NullTracker));
                        lat.push(us_since(t0, at));
                        drop(permit);
                    }
                    lat
                })
            })
            .collect();
        // Open-loop dispatcher: arrivals fire at their scheduled instant
        // whether or not the servers keep up; `ShedImmediately` keeps the
        // gate decision non-blocking, so a shed never delays the clock.
        for a in schedule {
            while t0.elapsed() < Duration::from_micros(a.at_micros) {
                std::hint::spin_loop();
            }
            let permit = match gate {
                Some(g) => match g.admit() {
                    Ok(p) => Some(p),
                    Err(_) => continue,
                },
                None => None,
            };
            let _ = tx.send((a.at_micros, a.query, permit));
        }
        drop(tx);
        handles
            .into_iter()
            .map(|h| h.join().expect("server thread joined"))
            .collect()
    });
    let mut served_us: Vec<f64> = served.into_iter().flatten().collect();
    served_us.sort_unstable_by(f64::total_cmp);
    OverloadRun {
        served_us,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// The overload experiment (`perf-overload-admission-{off,on}`): the same
/// open-loop arrival schedule at 2× the measured saturation rate, served
/// by the same worker pool from the same converged snapshot, with the
/// admission gate off then on. Off, the unbounded backlog absorbs the
/// excess and the tail latency grows with the run; on, the gate sheds
/// the excess at arrival and the served tail stays bounded by the permit
/// count times the service time.
pub fn overload_perf(quick: bool) -> Vec<PerfEntry> {
    const WORKERS: usize = 2;
    let n = if quick { 100_000 } else { 300_000 };
    let domain = ValueRange::must(0u32, 999_999);
    let values = uniform_values(n, &domain, 67);
    let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(16 * 1024, 64 * 1024);
    let column = ConcurrentColumn::from_spec(&spec, domain, values).expect("values in domain");
    // Converge the layout first so both runs serve one identical snapshot.
    for q in WorkloadSpec::zipf(0.05, 200, 13).generate(&domain) {
        let _ = column.select_count(&q, &mut NullTracker);
    }
    column.quiesce();
    let snap = column.snapshot();

    // Closed-loop calibration: mean service time → the pool's saturation
    // rate; the open-loop schedule then arrives at twice it.
    let probe = WorkloadSpec::zipf(0.05, 64, 29).generate(&domain);
    let t0 = Instant::now();
    for q in &probe {
        let _ = std::hint::black_box(snap.select_count(q, &mut NullTracker));
    }
    let mean_service_s = (t0.elapsed().as_secs_f64() / probe.len() as f64).max(1e-9);
    let rate = 2.0 * WORKERS as f64 / mean_service_s;

    let count = if quick { 1_500 } else { 6_000 };
    let schedule = OpenLoopSpec::new(WorkloadSpec::zipf(0.05, count, 71), rate).schedule(&domain);

    let section_start = Instant::now();
    let off = drive_open_loop(&snap, &schedule, None, WORKERS);
    let off_entry = PerfEntry {
        p50_us: Some(quantile(&off.served_us, 0.50)),
        p99_us: Some(quantile(&off.served_us, 0.99)),
        p999_us: Some(quantile(&off.served_us, 0.999)),
        shed_rate: Some(0.0),
        goodput_qps: Some(off.served_us.len() as f64 / off.wall_s.max(1e-9)),
        ..PerfEntry::section(
            "perf-overload-admission-off",
            section_start.elapsed().as_secs_f64() * 1e3,
        )
    };

    let gate = AdmissionGate::new(
        AdmissionConfig::with_in_flight(WORKERS * 2).policy(AdmissionPolicy::ShedImmediately),
    );
    let section_start = Instant::now();
    let on = drive_open_loop(&snap, &schedule, Some(&gate), WORKERS);
    let on_entry = PerfEntry {
        p50_us: Some(quantile(&on.served_us, 0.50)),
        p99_us: Some(quantile(&on.served_us, 0.99)),
        p999_us: Some(quantile(&on.served_us, 0.999)),
        shed_rate: Some(gate.stats().shed_rate()),
        goodput_qps: Some(on.served_us.len() as f64 / on.wall_s.max(1e-9)),
        ..PerfEntry::section(
            "perf-overload-admission-on",
            section_start.elapsed().as_secs_f64() * 1e3,
        )
    };

    vec![off_entry, on_entry, overload_recovery_perf(quick)]
}

/// The recovery half of the overload experiment
/// (`perf-overload-recovery`): one injected worker kill under the shard
/// supervisor, measuring the wall time of the query that absorbed the
/// rebuild — detection, state reload from the packed image, and the
/// retried scan — while asserting every answer stays bit-identical.
pub fn overload_recovery_perf(quick: bool) -> PerfEntry {
    let section_start = Instant::now();
    let n = if quick { 60_000 } else { 200_000 };
    let domain = ValueRange::must(0u32, 999_999);
    let values = uniform_values(n, &domain, 91);
    let plan = Arc::new(FaultPlan::one_shot(FaultSite::ShardTask, Fault::Panic));
    let mut shard = ShardedColumn::with_faults(
        StrategySpec::new(StrategyKind::NoSegm),
        PlacementPolicy::RoundRobin,
        4,
        domain,
        values.clone(),
        plan,
    )
    .expect("nodes > 0 and values in domain");
    let queries = WorkloadSpec::uniform(0.2, 32, 5).generate(&domain);
    let mut recovery_ms = None;
    for q in &queries {
        let t = Instant::now();
        let got = shard
            .try_select_count(q, &mut NullTracker)
            .expect("supervision recovers a single injected kill");
        let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
        let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
        assert_eq!(got, expect, "recovered count diverged on {q:?}");
        if recovery_ms.is_none() && shard.node_recoveries() >= 1 {
            recovery_ms = Some(elapsed_ms);
        }
    }
    assert_eq!(shard.node_recoveries(), 1, "exactly one injected kill");
    PerfEntry {
        recovery_ms,
        ..PerfEntry::section(
            "perf-overload-recovery",
            section_start.elapsed().as_secs_f64() * 1e3,
        )
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn push_field(buf: &mut String, key: &str, value: Option<String>) {
    if let Some(v) = value {
        buf.push_str(&format!(", \"{key}\": {v}"));
    }
}

/// Renders the baseline and writes it as `BENCH_PR4.json` under `dir`,
/// returning the path.
///
/// # Errors
/// Propagates filesystem errors creating `dir` or writing the file.
pub fn write_bench_json(dir: &Path, quick: bool, entries: &[PerfEntry]) -> io::Result<PathBuf> {
    write_bench_json_named(dir, "BENCH_PR4.json", "soc-bench-pr4", quick, entries)
}

/// As [`write_bench_json`] but with an explicit file name and schema tag —
/// each PR's perf baseline lives in its own artifact (`BENCH_PR5.json`
/// carries the epoch-read-path experiments next to PR 4's executor
/// baseline).
///
/// # Errors
/// Propagates filesystem errors creating `dir` or writing the file.
pub fn write_bench_json_named(
    dir: &Path,
    file: &str,
    schema: &str,
    quick: bool,
    entries: &[PerfEntry],
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut body = format!("{{\n  \"schema\": \"{}\",\n", json_escape(schema));
    body.push_str(&format!("  \"quick\": {quick},\n"));
    body.push_str("  \"experiments\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let mut line = format!(
            "    {{\"id\": \"{}\", \"wall_ms\": {:.3}",
            json_escape(&e.id),
            e.wall_ms
        );
        push_field(
            &mut line,
            "bytes_scanned",
            e.bytes_scanned.map(|b| b.to_string()),
        );
        push_field(
            &mut line,
            "serial_ms",
            e.serial_ms.map(|v| format!("{v:.3}")),
        );
        push_field(
            &mut line,
            "parallel_ms",
            e.parallel_ms.map(|v| format!("{v:.3}")),
        );
        push_field(&mut line, "speedup", e.speedup.map(|v| format!("{v:.3}")));
        push_field(&mut line, "bytes_raw", e.bytes_raw.map(|b| b.to_string()));
        push_field(
            &mut line,
            "bytes_encoded",
            e.bytes_encoded.map(|b| b.to_string()),
        );
        push_field(
            &mut line,
            "bytes_unpruned",
            e.bytes_unpruned.map(|b| b.to_string()),
        );
        push_field(&mut line, "p50_us", e.p50_us.map(|v| format!("{v:.1}")));
        push_field(&mut line, "p99_us", e.p99_us.map(|v| format!("{v:.1}")));
        push_field(&mut line, "p999_us", e.p999_us.map(|v| format!("{v:.1}")));
        push_field(
            &mut line,
            "shed_rate",
            e.shed_rate.map(|v| format!("{v:.4}")),
        );
        push_field(
            &mut line,
            "goodput_qps",
            e.goodput_qps.map(|v| format!("{v:.1}")),
        );
        push_field(
            &mut line,
            "recovery_ms",
            e.recovery_ms.map(|v| format!("{v:.3}")),
        );
        line.push('}');
        if i + 1 < entries.len() {
            line.push(',');
        }
        line.push('\n');
        body.push_str(&line);
    }
    body.push_str("  ]\n}\n");
    let path = dir.join(file);
    std::fs::write(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_perf_reports_consistent_numbers() {
        let e = sharded_scan_perf(4, true);
        assert_eq!(e.id, "perf-sharded-nodes4");
        assert!(e.wall_ms > 0.0);
        assert!(e.serial_ms.unwrap() > 0.0 && e.parallel_ms.unwrap() > 0.0);
        // Round-robin NoSegm: every query scans the whole column.
        assert_eq!(e.bytes_scanned.unwrap(), 200_000 * 4 * 64);
        let speedup = e.speedup.unwrap();
        assert!(speedup > 0.0 && speedup.is_finite());
    }

    #[test]
    fn kernel_perf_validates_against_naive() {
        let e = kernel_count_perf(true);
        assert_eq!(e.bytes_scanned.unwrap(), 800_000);
        assert!(e.speedup.unwrap() > 0.0);
    }

    #[test]
    fn concurrent_perf_validates_against_expected_counts() {
        let e = concurrent_read_perf(true);
        assert_eq!(e.id, "perf-concurrent-readers");
        assert!(e.serial_ms.unwrap() > 0.0 && e.parallel_ms.unwrap() > 0.0);
        let speedup = e.speedup.unwrap();
        assert!(speedup > 0.0 && speedup.is_finite());
    }

    #[test]
    fn migration_perf_reads_never_fail_mid_rebuild() {
        let e = concurrent_migration_perf(true);
        assert_eq!(e.id, "perf-concurrent-migrate");
        assert!(e.serial_ms.unwrap() > 0.0 && e.parallel_ms.unwrap() > 0.0);
    }

    #[test]
    fn compress_perf_meets_the_footprint_and_speed_gates() {
        let entries = compress_perf(true);
        assert_eq!(entries.len(), 4);
        // Every per-codec entry carries both footprint axes.
        for e in &entries[..3] {
            assert!(e.id.starts_with("perf-compress-"), "{}", e.id);
            assert!(e.bytes_raw.unwrap() > 0);
            assert!(e.bytes_encoded.unwrap() > 0);
        }
        // The best codec shrinks the cold sorted column at least 2x.
        let best = entries[..3]
            .iter()
            .map(|e| e.bytes_encoded.unwrap())
            .min()
            .unwrap();
        let raw = entries[0].bytes_raw.unwrap();
        assert!(
            best * 2 <= raw,
            "best codec {best} B must halve the raw {raw} B"
        );
        let hot = entries.last().unwrap();
        assert_eq!(hot.id, "perf-compress-hot");
        assert!(hot.serial_ms.unwrap() > 0.0 && hot.parallel_ms.unwrap() > 0.0);
    }

    #[test]
    fn aggregate_perf_validates_against_fold() {
        let e = aggregate_kernel_perf(true);
        assert_eq!(e.id, "perf-compress-aggregate");
        assert!(e.serial_ms.unwrap() > 0.0 && e.parallel_ms.unwrap() > 0.0);
    }

    #[test]
    fn pruning_perf_meets_the_one_third_gate() {
        let e = pruning_scan_perf(true);
        assert_eq!(e.id, "perf-pruning");
        let pruned = e.bytes_scanned.unwrap();
        let unpruned = e.bytes_unpruned.unwrap();
        assert!(pruned > 0, "boundary pieces always straddle something");
        assert!(
            pruned * 3 <= unpruned,
            "pruned {pruned} B must be at most a third of unpruned {unpruned} B"
        );
        assert!(e.speedup.unwrap() >= 3.0);
    }

    #[test]
    fn open_loop_perf_reports_ordered_quantiles() {
        let e = open_loop_perf(true);
        assert_eq!(e.id, "perf-openloop");
        let (p50, p99, p999) = (e.p50_us.unwrap(), e.p99_us.unwrap(), e.p999_us.unwrap());
        assert!(p50 >= 0.0);
        assert!(p50 <= p99 && p99 <= p999, "quantiles must be monotone");
    }

    #[test]
    fn named_json_writer_carries_its_schema() {
        let dir = std::env::temp_dir().join("soc_bench_json5_test");
        let entries = vec![PerfEntry::section("perf-concurrent-readers", 1.0)];
        let path = write_bench_json_named(&dir, "BENCH_PR5.json", "soc-bench-pr5", true, &entries)
            .unwrap();
        assert!(path.ends_with("BENCH_PR5.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"schema\": \"soc-bench-pr5\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_perf_reports_both_merge_modes_and_the_overlay_ratio() {
        let entries = delta_merge_perf(true);
        assert_eq!(entries.len(), 3);
        let (inc, bulk, overlay) = (&entries[0], &entries[1], &entries[2]);
        assert_eq!(inc.id, "perf-delta-incremental");
        assert_eq!(bulk.id, "perf-delta-bulk");
        assert_eq!(overlay.id, "perf-delta-overlay");
        for e in [inc, bulk] {
            let (p50, p99, p999) = (e.p50_us.unwrap(), e.p99_us.unwrap(), e.p999_us.unwrap());
            assert!(p50 >= 0.0);
            assert!(
                p50 <= p99 && p99 <= p999,
                "{}: quantiles must be monotone",
                e.id
            );
        }
        // The p999 incremental-vs-bulk ordering is a CI gate on multi-core
        // runners, not asserted here: a single-core test machine serializes
        // the background folds into the read path.
        let ratio = overlay.speedup.unwrap();
        assert!(ratio > 0.0 && ratio.is_finite());
        assert!(overlay.serial_ms.unwrap() > 0.0 && overlay.parallel_ms.unwrap() > 0.0);
    }

    #[test]
    fn overload_gate_sheds_under_2x_load_and_recovery_is_measured() {
        let entries = overload_perf(true);
        assert_eq!(entries.len(), 3);
        let (off, on, rec) = (&entries[0], &entries[1], &entries[2]);
        assert_eq!(off.id, "perf-overload-admission-off");
        assert_eq!(on.id, "perf-overload-admission-on");
        assert_eq!(rec.id, "perf-overload-recovery");
        assert!(
            on.shed_rate.unwrap() > 0.0,
            "a 2x-saturation arrival rate must shed"
        );
        assert!(off.shed_rate.unwrap() == 0.0);
        assert!(off.goodput_qps.unwrap() > 0.0 && on.goodput_qps.unwrap() > 0.0);
        assert!(off.p999_us.unwrap() >= off.p50_us.unwrap());
        assert!(on.p999_us.unwrap() >= on.p50_us.unwrap());
        // The p999 on-vs-off ordering is a CI gate on multi-core runners,
        // not asserted here: a single-core test machine serializes the
        // servers and the comparison loses meaning.
        assert!(rec.recovery_ms.unwrap() > 0.0);
    }

    #[test]
    fn json_round_trips_structurally() {
        let dir = std::env::temp_dir().join("soc_bench_json_test");
        let entries = vec![
            PerfEntry::section("simulation", 12.5),
            PerfEntry {
                bytes_scanned: Some(1024),
                serial_ms: Some(10.0),
                parallel_ms: Some(4.0),
                speedup: Some(2.5),
                bytes_unpruned: Some(4096),
                p50_us: Some(12.34),
                p999_us: Some(98.76),
                shed_rate: Some(0.25),
                goodput_qps: Some(1234.5),
                recovery_ms: Some(7.5),
                ..PerfEntry::section("perf-sharded-nodes16", 99.0)
            },
        ];
        let path = write_bench_json(&dir, true, &entries).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"schema\": \"soc-bench-pr4\""));
        assert!(text.contains("\"quick\": true"));
        assert!(text.contains("\"id\": \"perf-sharded-nodes16\""));
        assert!(text.contains("\"speedup\": 2.500"));
        assert!(text.contains("\"bytes_unpruned\": 4096"));
        assert!(text.contains("\"p50_us\": 12.3"));
        assert!(text.contains("\"p999_us\": 98.8"));
        assert!(text.contains("\"shed_rate\": 0.2500"));
        assert!(text.contains("\"goodput_qps\": 1234.5"));
        assert!(text.contains("\"recovery_ms\": 7.500"));
        // Balanced braces/brackets — a cheap structural sanity check.
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        std::fs::remove_dir_all(&dir).ok();
    }
}
