//! The wall-clock perf experiments of `repro`, the one metric record they
//! report, and the gate table that holds them to their claims.
//!
//! Every experiment returns flat [`Metric`]s — `{experiment, name, unit,
//! value}` — whose names say what was timed or counted (`serial_ms` vs
//! `parallel_ms`, `quiet_ms` vs `busy_ms`, `bytes_scanned` vs
//! `bytes_unpruned`, `p50_us`, …). Ratios are not stored; the [`GATES`]
//! compute them where they judge. `repro` writes every metric of a run to
//! one `<out>/BENCH.json` ([`write_bench_json`]), then evaluates each gate
//! whose experiment ran ([`evaluate_gates`]) and exits non-zero on a
//! failure or a missing metric.
//!
//! The JSON is hand-rolled (the build is offline; no serde) but kept
//! trivially regular: one object, a `schema` tag, and a `metrics` array
//! of flat objects with stable keys.

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

/// One measured number of a repro run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Experiment identifier (`"fig5"`, `"perf-sharded-nodes16"`, …).
    pub experiment: String,
    /// What was measured; one meaning per name (`"wall_ms"` is always the
    /// wall time of the whole experiment section).
    pub name: &'static str,
    /// Unit of `value` (`"ms"`, `"us"`, `"B"`, `"frac"`, `"1/s"`).
    pub unit: &'static str,
    /// The measurement.
    pub value: f64,
}

/// The metrics of one experiment, from `(name, unit, value)` triples.
pub fn metrics(experiment: &str, values: &[(&'static str, &'static str, f64)]) -> Vec<Metric> {
    values
        .iter()
        .map(|&(name, unit, value)| Metric {
            experiment: experiment.to_owned(),
            name,
            unit,
            value,
        })
        .collect()
}

/// The value of `experiment`'s metric `name`.
///
/// # Errors
/// Names the metric when the run did not report it.
pub fn lookup(all: &[Metric], experiment: &str, name: &str) -> Result<f64, String> {
    all.iter()
        .find(|m| m.experiment == experiment && m.name == name)
        .map(|m| m.value)
        .ok_or_else(|| format!("missing metric {experiment}/{name}"))
}

/// Milliseconds elapsed since `t0`.
fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// `wall_ms` plus the p50/p99/p999 of `sorted_us` (ascending latencies,
/// microseconds), from the shared criterion-shim [`quantile`] estimator.
fn latency_metrics(experiment: &str, section_start: Instant, sorted_us: &[f64]) -> Vec<Metric> {
    metrics(
        experiment,
        &[
            ("wall_ms", "ms", ms_since(section_start)),
            ("p50_us", "us", quantile(sorted_us, 0.50)),
            ("p99_us", "us", quantile(sorted_us, 0.99)),
            ("p999_us", "us", quantile(sorted_us, 0.999)),
        ],
    )
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
        best = best.min(ms_since(t0));
    }
    (best, counts)
}

/// Measures the serial-vs-parallel sharded scan at `nodes` nodes
/// (`perf-sharded-nodes<n>`): `serial_ms` and `parallel_ms` are the best
/// batch times of each executor, `bytes_scanned` one audited pass.
///
/// The comparison is wall-clock and therefore hardware-dependent: on a
/// single-core container the parallel executor can only tie serial (minus
/// a small scheduling overhead), while any multi-core machine shows the
/// overlap directly.
pub fn sharded_scan_perf(nodes: usize, quick: bool) -> Vec<Metric> {
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

    metrics(
        &format!("perf-sharded-nodes{nodes}"),
        &[
            ("wall_ms", "ms", ms_since(section_start)),
            ("serial_ms", "ms", serial_ms),
            ("parallel_ms", "ms", parallel_ms),
            ("bytes_scanned", "B", tracker.totals().read_bytes as f64),
        ],
    )
}

/// Measures the branchless scan kernel against the naive per-element
/// filter on the same data (`perf-kernels-count`: `naive_ms` vs
/// `kernel_ms`): pure kernel throughput with no executor around it.
pub fn kernel_count_perf(quick: bool) -> Vec<Metric> {
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
            best = best.min(ms_since(t0));
        }
        (best, out)
    };
    let (naive_ms, naive_n) = timed(&|| values.iter().filter(|v| q.contains(**v)).count() as u64);
    let (kernel_ms, kernel_n) = timed(&|| soc_core::kernels::count_range(&values, &q));
    assert_eq!(naive_n, kernel_n, "kernel count diverged from naive filter");

    metrics(
        "perf-kernels-count",
        &[
            ("wall_ms", "ms", ms_since(section_start)),
            ("naive_ms", "ms", naive_ms),
            ("kernel_ms", "ms", kernel_ms),
            ("bytes_scanned", "B", (n * 4) as f64),
        ],
    )
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
/// `serial_mut_ms` is the `&mut` baseline, `snapshot_readers_ms` the
/// concurrent wall clock for the identical workload; on a single-core
/// container the two degenerate to a tie (overhead only), while any
/// multi-core machine overlaps the readers directly.
pub fn concurrent_read_perf(quick: bool) -> Vec<Metric> {
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
    let serial_mut_ms = ms_since(t0);

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
    let snapshot_readers_ms = ms_since(t0);
    concurrent.quiesce();

    metrics(
        "perf-concurrent-readers",
        &[
            ("wall_ms", "ms", ms_since(section_start)),
            ("serial_mut_ms", "ms", serial_mut_ms),
            ("snapshot_readers_ms", "ms", snapshot_readers_ms),
        ],
    )
}

/// Proves `set_strategy` migrations never block readers
/// (`perf-concurrent-migrate`): read latency over a quiet column versus
/// the same reads issued while background migrations are continuously
/// rebuilding the column. `busy_ms` should stay near `quiet_ms` — the
/// readers keep answering from published epochs while the writer
/// rebuilds.
pub fn concurrent_migration_perf(quick: bool) -> Vec<Metric> {
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
    let quiet_ms = ms_since(t0);

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
    let busy_ms = ms_since(t0);
    concurrent.quiesce();
    assert_eq!(
        concurrent.snapshot().failed_migrations(),
        0,
        "migrations must land"
    );

    metrics(
        "perf-concurrent-migrate",
        &[
            ("wall_ms", "ms", ms_since(section_start)),
            ("quiet_ms", "ms", quiet_ms),
            ("busy_ms", "ms", busy_ms),
        ],
    )
}

/// Best-of-`reps` wall time of `f`, in milliseconds, with the result of
/// the last run passed back for validation.
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        out = Some(std::hint::black_box(f()));
        best = best.min(ms_since(t0));
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
/// packed-domain range count (`packed_scan_ms`) against decode-then-scan
/// (`decode_scan_ms`) over the same payload. The `-hot` experiment
/// compares the smallest packed payload's scan against the raw branchless
/// kernel (`raw_scan_ms`) on in-cache data — the regime gated to ≤ 1.2x
/// raw.
pub fn compress_perf(quick: bool) -> Vec<Metric> {
    use soc_core::{PiecePayload, SegmentEncoding};

    let section_start = Instant::now();
    let values = cold_sorted_column(quick);
    let n = values.len() as u64;
    let hi = *values.last().expect("non-empty");
    // ~40% selectivity, interior bounds so every piece of the scan runs.
    let q = ValueRange::must(hi / 4, hi / 4 + 2 * (hi / 5));
    let raw = PiecePayload::Raw(values);
    let expect = raw.count_range(&q);

    let mut out = Vec::new();
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
        out.extend(metrics(
            &format!("perf-compress-{}", enc.token()),
            &[
                ("wall_ms", "ms", ms_since(entry_start)),
                ("decode_scan_ms", "ms", decode_ms),
                ("packed_scan_ms", "ms", packed_ms),
                ("bytes_raw", "B", (n * 4) as f64),
                ("bytes_encoded", "B", packed.bytes() as f64),
            ],
        ));
    }

    // Hot regime: the same (in-cache) data scanned raw vs through the
    // smallest packed representation — the footprint win must not cost
    // scan speed.
    let (bytes_encoded, packed) = best_packed.expect("three codecs ran");
    let (raw_ms, raw_n) = best_ms(7, || raw.count_range(&q));
    let (packed_ms, packed_n) = best_ms(7, || packed.count_range(&q));
    assert_eq!(raw_n, expect);
    assert_eq!(packed_n, expect);
    out.extend(metrics(
        "perf-compress-hot",
        &[
            ("wall_ms", "ms", ms_since(section_start)),
            ("raw_scan_ms", "ms", raw_ms),
            ("packed_scan_ms", "ms", packed_ms),
            ("bytes_raw", "B", (n * 4) as f64),
            ("bytes_encoded", "B", bytes_encoded as f64),
        ],
    ));
    out
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
/// the unpruned cost is reconstructible from one pruned run). Gated at
/// scanned ≤ ⅓ unpruned.
pub fn pruning_scan_perf(quick: bool) -> Vec<Metric> {
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
    let totals = tracker.totals();
    metrics(
        "perf-pruning",
        &[
            ("wall_ms", "ms", ms_since(section_start)),
            ("bytes_scanned", "B", totals.read_bytes as f64),
            ("bytes_unpruned", "B", totals.unpruned_read_bytes() as f64),
        ],
    )
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
/// tail.
pub fn open_loop_perf(quick: bool) -> Vec<Metric> {
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
    latency_metrics("perf-openloop", section_start, &latencies_us)
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
fn delta_write_perf(quick: bool, incremental: bool) -> Vec<Metric> {
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
    latency_metrics(id, section_start, &latencies_us)
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
/// the overlay-aware read path (`overlay_ms`) versus the base-only
/// replica walk above (`base_only_ms`), gated at overlay ≤ 1.2x
/// base-only — carrying the merge-on-read capability must be free when
/// there is nothing to merge.
fn delta_overlay_perf(quick: bool) -> Vec<Metric> {
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
        let rep_base = ms_since(t0);
        let t0 = Instant::now();
        for _ in 0..PASSES {
            sink += queries
                .iter()
                .map(|q| snapshot.select_count(q, &mut NullTracker))
                .sum::<u64>();
        }
        let rep_overlay = ms_since(t0);
        reps.push((rep_base, rep_overlay));
    }
    std::hint::black_box(sink);
    reps.sort_by(|a, b| {
        let (ra, rb) = (a.1 / a.0.max(1e-9), b.1 / b.0.max(1e-9));
        ra.partial_cmp(&rb).expect("elapsed times are finite")
    });
    let (base_ms, overlay_ms) = reps[reps.len() / 2];

    metrics(
        "perf-delta-overlay",
        &[
            ("wall_ms", "ms", ms_since(section_start)),
            ("base_only_ms", "ms", base_ms),
            ("overlay_ms", "ms", overlay_ms),
        ],
    )
}

/// The delta-compaction experiment set (`perf-delta-*`): the write-heavy
/// open-loop tail with incremental background merge versus the bulk
/// threshold merge it replaces, plus the delta-free overlay overhead.
pub fn delta_merge_perf(quick: bool) -> Vec<Metric> {
    let mut out = delta_write_perf(quick, true);
    out.extend(delta_write_perf(quick, false));
    out.extend(delta_overlay_perf(quick));
    out
}

/// Outcome of one open-loop overload run.
struct OverloadRun {
    /// Scheduled-arrival-to-completion latency of every served query,
    /// microseconds, ascending.
    served_us: Vec<f64>,
    wall_s: f64,
}

impl OverloadRun {
    /// Served queries per second of wall time.
    fn goodput_qps(&self) -> f64 {
        self.served_us.len() as f64 / self.wall_s.max(1e-9)
    }
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
pub fn overload_perf(quick: bool) -> Vec<Metric> {
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
    let mut out = latency_metrics("perf-overload-admission-off", section_start, &off.served_us);
    out.extend(metrics(
        "perf-overload-admission-off",
        &[("goodput_qps", "1/s", off.goodput_qps())],
    ));

    let gate = AdmissionGate::new(
        AdmissionConfig::with_in_flight(WORKERS * 2).policy(AdmissionPolicy::ShedImmediately),
    );
    let section_start = Instant::now();
    let on = drive_open_loop(&snap, &schedule, Some(&gate), WORKERS);
    out.extend(latency_metrics(
        "perf-overload-admission-on",
        section_start,
        &on.served_us,
    ));
    out.extend(metrics(
        "perf-overload-admission-on",
        &[
            ("goodput_qps", "1/s", on.goodput_qps()),
            ("shed_rate", "frac", gate.stats().shed_rate()),
        ],
    ));
    out.extend(overload_recovery_perf(quick));
    out
}

/// The recovery half of the overload experiment
/// (`perf-overload-recovery`): one injected worker kill under the shard
/// supervisor, measuring the wall time of the query that absorbed the
/// rebuild — detection, state reload from the packed image, and the
/// retried scan — while asserting every answer stays bit-identical.
pub fn overload_recovery_perf(quick: bool) -> Vec<Metric> {
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
        let elapsed_ms = ms_since(t);
        let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
        assert_eq!(got, expect, "recovered count diverged on {q:?}");
        if recovery_ms.is_none() && shard.node_recoveries() >= 1 {
            recovery_ms = Some(elapsed_ms);
        }
    }
    assert_eq!(shard.node_recoveries(), 1, "exactly one injected kill");
    metrics(
        "perf-overload-recovery",
        &[
            ("wall_ms", "ms", ms_since(section_start)),
            // 0 (failing the recovery gate) if no query absorbed it.
            ("recovery_ms", "ms", recovery_ms.unwrap_or(0.0)),
        ],
    )
}

/// One pass/fail condition over a run's metrics, declared next to the
/// experiments it judges.
pub struct Gate {
    /// The experiment whose run triggers the gate (it may also read the
    /// metrics of experiments that run alongside it).
    pub experiment: &'static str,
    /// The condition, as printed.
    pub condition: &'static str,
    /// Why the condition must hold, and why at this strength.
    pub reason: &'static str,
    /// A wall-clock comparison that needs real thread overlap: skipped
    /// on a host with fewer than two CPUs, where it measures only
    /// scheduling.
    pub needs_two_cpus: bool,
    /// `Ok(true)` when the condition holds; `Err` names a missing metric.
    pub check: fn(&[Metric]) -> Result<bool, String>,
}

/// The per-codec experiments of [`compress_perf`].
const CODEC_EXPERIMENTS: [&str; 3] = [
    "perf-compress-rle",
    "perf-compress-for",
    "perf-compress-dict",
];

/// `0 <= p50 <= p99 <= p999` for `experiment`'s latency quantiles.
fn quantiles_monotone(all: &[Metric], experiment: &str) -> Result<bool, String> {
    let p50 = lookup(all, experiment, "p50_us")?;
    let p99 = lookup(all, experiment, "p99_us")?;
    let p999 = lookup(all, experiment, "p999_us")?;
    Ok(0.0 <= p50 && p50 <= p99 && p99 <= p999)
}

/// The perf gates `repro` enforces after every run.
pub const GATES: &[Gate] = &[
    Gate {
        experiment: "perf-sharded-nodes16",
        condition: "parallel_ms <= 1.10 * serial_ms",
        reason: "at 16 nodes the parallel sharded scan must not be slower than serial; \
                 the 10% margin keeps a scheduler blip on a busy host from flaking it, \
                 a genuinely slower parallel path still fails",
        needs_two_cpus: true,
        check: |m| {
            let e = "perf-sharded-nodes16";
            Ok(lookup(m, e, "parallel_ms")? <= 1.10 * lookup(m, e, "serial_ms")?)
        },
    },
    Gate {
        experiment: "perf-concurrent-migrate",
        condition: "busy_ms <= 3.0 * quiet_ms",
        reason: "reads issued while migrations rebuild the column may pay scheduling \
                 overhead but must not serialize behind the rebuild, which takes orders \
                 of magnitude longer: readers answer from published epochs",
        needs_two_cpus: true,
        check: |m| {
            let e = "perf-concurrent-migrate";
            Ok(lookup(m, e, "busy_ms")? <= 3.0 * lookup(m, e, "quiet_ms")?)
        },
    },
    Gate {
        experiment: "perf-compress-rle",
        condition: "2 * min(bytes_encoded of rle, for, dict) <= bytes_raw",
        reason: "packed payloads must shrink the cold sorted column at least 2x under \
                 the best codec; footprint is deterministic, so it gates on any host",
        needs_two_cpus: false,
        check: |m| {
            let mut best = f64::INFINITY;
            for e in CODEC_EXPERIMENTS {
                best = best.min(lookup(m, e, "bytes_encoded")?);
            }
            Ok(2.0 * best <= lookup(m, "perf-compress-rle", "bytes_raw")?)
        },
    },
    Gate {
        experiment: "perf-compress-hot",
        condition: "packed_scan_ms <= 1.2 * raw_scan_ms",
        reason: "the compressed-domain count over hot data must stay within 1.2x of the \
                 raw-slice kernel (no decode on the scan path); on one core noise \
                 dominates these sub-millisecond scans",
        needs_two_cpus: true,
        check: |m| {
            let e = "perf-compress-hot";
            Ok(lookup(m, e, "packed_scan_ms")? <= 1.2 * lookup(m, e, "raw_scan_ms")?)
        },
    },
    Gate {
        experiment: "perf-pruning",
        condition: "3 * bytes_scanned <= bytes_unpruned",
        reason: "pruned scans on the clustered workload must read at most a third of the \
                 reconstructed unpruned cost; pure byte accounting, no wall clock, so it \
                 gates on any host",
        needs_two_cpus: false,
        check: |m| {
            let e = "perf-pruning";
            Ok(3.0 * lookup(m, e, "bytes_scanned")? <= lookup(m, e, "bytes_unpruned")?)
        },
    },
    Gate {
        experiment: "perf-openloop",
        condition: "0 <= p50_us <= p99_us <= p999_us",
        reason: "the open-loop run must report all three latency quantiles, in order",
        needs_two_cpus: false,
        check: |m| quantiles_monotone(m, "perf-openloop"),
    },
    Gate {
        experiment: "perf-overload-admission-on",
        condition: "shed_rate > 0",
        reason: "an arrival rate of 2x saturation must shed some arrivals; whether the \
                 gate refused any is a load-independent fact",
        needs_two_cpus: false,
        check: |m| Ok(lookup(m, "perf-overload-admission-on", "shed_rate")? > 0.0),
    },
    Gate {
        experiment: "perf-overload-recovery",
        condition: "recovery_ms > 0",
        reason: "the injected worker kill must be absorbed by a measured rebuild; the \
                 worker either rebuilt or the run failed",
        needs_two_cpus: false,
        check: |m| Ok(lookup(m, "perf-overload-recovery", "recovery_ms")? > 0.0),
    },
    Gate {
        experiment: "perf-overload-admission-on",
        condition: "p999_us (admission on) <= p999_us (admission off)",
        reason: "admission control must bound the served tail at 2x saturation; the \
                 comparison needs real server overlap",
        needs_two_cpus: true,
        check: |m| {
            Ok(lookup(m, "perf-overload-admission-on", "p999_us")?
                <= lookup(m, "perf-overload-admission-off", "p999_us")?)
        },
    },
    Gate {
        experiment: "perf-delta-incremental",
        condition: "0 <= p50_us <= p99_us <= p999_us (incremental and bulk)",
        reason: "both write-heavy runs must report all three latency quantiles, in order",
        needs_two_cpus: false,
        check: |m| {
            Ok(quantiles_monotone(m, "perf-delta-incremental")?
                && quantiles_monotone(m, "perf-delta-bulk")?)
        },
    },
    Gate {
        experiment: "perf-delta-overlay",
        condition: "overlay_ms <= 1.2 * base_only_ms",
        reason: "carrying the merge-on-read overlay must cost a delta-free column at most \
                 1.2x the base-only walk; both are single-threaded walks over the same \
                 in-cache organization, so it gates on any host",
        needs_two_cpus: false,
        check: |m| {
            let e = "perf-delta-overlay";
            Ok(lookup(m, e, "overlay_ms")? <= 1.2 * lookup(m, e, "base_only_ms")?)
        },
    },
    Gate {
        experiment: "perf-delta-incremental",
        condition: "p999_us (incremental) <= p999_us (bulk)",
        reason: "incremental background merge must keep the write-heavy tail at or below \
                 the threshold-triggered bulk merge it replaces; one core serializes the \
                 folds into the read path and measures nothing",
        needs_two_cpus: true,
        check: |m| {
            Ok(lookup(m, "perf-delta-incremental", "p999_us")?
                <= lookup(m, "perf-delta-bulk", "p999_us")?)
        },
    },
];

/// A gate's verdict on one run.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The condition holds.
    Pass,
    /// The condition does not hold.
    Fail,
    /// A two-CPU gate on a host with fewer CPUs.
    SkippedSingleCpu,
    /// The experiment ran but did not report a metric the gate reads.
    Missing(String),
}

impl Verdict {
    /// Whether the run must exit non-zero.
    pub fn is_failure(&self) -> bool {
        matches!(self, Verdict::Fail | Verdict::Missing(_))
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Pass => f.write_str("pass"),
            Verdict::Fail => f.write_str("FAIL"),
            Verdict::SkippedSingleCpu => f.write_str("skipped (single CPU)"),
            Verdict::Missing(what) => write!(f, "FAIL ({what})"),
        }
    }
}

/// Evaluates every gate whose experiment reported a metric in `all`, on
/// a host with `cpus` available CPUs. A missing metric is reported even
/// where the gate would be skipped.
pub fn evaluate_gates(all: &[Metric], cpus: usize) -> Vec<(&'static Gate, Verdict)> {
    GATES
        .iter()
        .filter(|g| all.iter().any(|m| m.experiment == g.experiment))
        .map(|g| {
            let verdict = match (g.check)(all) {
                Err(missing) => Verdict::Missing(missing),
                Ok(_) if g.needs_two_cpus && cpus < 2 => Verdict::SkippedSingleCpu,
                Ok(true) => Verdict::Pass,
                Ok(false) => Verdict::Fail,
            };
            (g, verdict)
        })
        .collect()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes every metric of a run as `BENCH.json` under `dir`, returning
/// the path. Non-finite values are written as `null`.
///
/// # Errors
/// Propagates filesystem errors creating `dir` or writing the file.
pub fn write_bench_json(dir: &Path, quick: bool, all: &[Metric]) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let rows: Vec<String> = all
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_owned()
            };
            format!(
                "    {{\"experiment\": \"{}\", \"name\": \"{}\", \"unit\": \"{}\", \"value\": {value}}}",
                json_escape(&m.experiment),
                json_escape(m.name),
                json_escape(m.unit),
            )
        })
        .collect();
    let body = format!(
        "{{\n  \"schema\": \"soc-bench\",\n  \"quick\": {quick},\n  \"metrics\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = dir.join("BENCH.json");
    std::fs::write(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(all: &[Metric], experiment: &str, name: &str) -> f64 {
        lookup(all, experiment, name).unwrap()
    }

    /// Asserts that every gate of `experiments` holds on `all`, through
    /// the same predicates `repro` enforces. Evaluated as on one CPU, so
    /// the two-CPU timing gates skip and the test does not depend on the
    /// host.
    fn assert_gates_hold(all: &[Metric], experiments: &[&str]) {
        let verdicts = evaluate_gates(all, 1);
        for e in experiments {
            assert!(
                verdicts.iter().any(|(g, _)| g.experiment == *e),
                "no gate ran for {e}"
            );
        }
        for (g, v) in verdicts
            .iter()
            .filter(|(g, _)| experiments.contains(&g.experiment))
        {
            assert!(!v.is_failure(), "{} [{}]: {v}", g.experiment, g.condition);
        }
    }

    #[test]
    fn sharded_perf_reports_consistent_numbers() {
        let m = sharded_scan_perf(4, true);
        let e = "perf-sharded-nodes4";
        assert!(value(&m, e, "wall_ms") > 0.0);
        assert!(value(&m, e, "serial_ms") > 0.0 && value(&m, e, "parallel_ms") > 0.0);
        // Round-robin NoSegm: every query scans the whole column.
        assert_eq!(value(&m, e, "bytes_scanned"), (200_000 * 4 * 64) as f64);
    }

    #[test]
    fn kernel_perf_validates_against_naive() {
        let m = kernel_count_perf(true);
        let e = "perf-kernels-count";
        assert_eq!(value(&m, e, "bytes_scanned"), 800_000.0);
        assert!(value(&m, e, "naive_ms") > 0.0 && value(&m, e, "kernel_ms") > 0.0);
    }

    #[test]
    fn concurrent_perf_validates_against_expected_counts() {
        let m = concurrent_read_perf(true);
        let e = "perf-concurrent-readers";
        assert!(value(&m, e, "serial_mut_ms") > 0.0);
        assert!(value(&m, e, "snapshot_readers_ms") > 0.0);
    }

    #[test]
    fn migration_perf_reads_never_fail_mid_rebuild() {
        let m = concurrent_migration_perf(true);
        let e = "perf-concurrent-migrate";
        assert!(value(&m, e, "quiet_ms") > 0.0 && value(&m, e, "busy_ms") > 0.0);
    }

    #[test]
    fn compress_perf_meets_the_footprint_gate() {
        let m = compress_perf(true);
        for e in CODEC_EXPERIMENTS {
            assert!(value(&m, e, "bytes_raw") > 0.0, "{e}");
            assert!(value(&m, e, "bytes_encoded") > 0.0, "{e}");
            assert!(value(&m, e, "packed_scan_ms") > 0.0, "{e}");
        }
        assert!(value(&m, "perf-compress-hot", "raw_scan_ms") > 0.0);
        assert_gates_hold(&m, &["perf-compress-rle", "perf-compress-hot"]);
    }

    #[test]
    fn pruning_perf_meets_the_one_third_gate() {
        let m = pruning_scan_perf(true);
        assert!(
            value(&m, "perf-pruning", "bytes_scanned") > 0.0,
            "boundary pieces always straddle something"
        );
        assert_gates_hold(&m, &["perf-pruning"]);
    }

    #[test]
    fn open_loop_perf_reports_ordered_quantiles() {
        assert_gates_hold(&open_loop_perf(true), &["perf-openloop"]);
    }

    #[test]
    fn delta_perf_reports_both_merge_modes_and_the_overlay_walks() {
        let m = delta_merge_perf(true);
        // Quantiles monotone for both modes; the p999 incremental-vs-bulk
        // ordering is a two-CPU gate and skips here.
        assert_gates_hold(&m, &["perf-delta-incremental"]);
        let e = "perf-delta-overlay";
        assert!(value(&m, e, "base_only_ms") > 0.0 && value(&m, e, "overlay_ms") > 0.0);
    }

    #[test]
    fn overload_gate_sheds_under_2x_load_and_recovery_is_measured() {
        let m = overload_perf(true);
        // Shed > 0 and recovery > 0; the served-tail on-vs-off ordering
        // is a two-CPU gate and skips here.
        assert_gates_hold(
            &m,
            &["perf-overload-admission-on", "perf-overload-recovery"],
        );
        for e in ["perf-overload-admission-off", "perf-overload-admission-on"] {
            assert!(value(&m, e, "goodput_qps") > 0.0, "{e}");
            assert!(value(&m, e, "p999_us") >= value(&m, e, "p50_us"), "{e}");
        }
    }

    /// A metric set on which every gate holds (today's quick values,
    /// roughly).
    const SATISFYING: &[(&str, &str, f64)] = &[
        ("perf-sharded-nodes16", "serial_ms", 23.0),
        ("perf-sharded-nodes16", "parallel_ms", 2.0),
        ("perf-concurrent-migrate", "quiet_ms", 0.05),
        ("perf-concurrent-migrate", "busy_ms", 0.04),
        ("perf-compress-rle", "bytes_raw", 1600.0),
        ("perf-compress-rle", "bytes_encoded", 600.0),
        ("perf-compress-for", "bytes_raw", 1600.0),
        ("perf-compress-for", "bytes_encoded", 900.0),
        ("perf-compress-dict", "bytes_raw", 1600.0),
        ("perf-compress-dict", "bytes_encoded", 1000.0),
        ("perf-compress-hot", "raw_scan_ms", 0.12),
        ("perf-compress-hot", "packed_scan_ms", 0.07),
        ("perf-pruning", "bytes_scanned", 400.0),
        ("perf-pruning", "bytes_unpruned", 10_000.0),
        ("perf-openloop", "p50_us", 3.0),
        ("perf-openloop", "p99_us", 170.0),
        ("perf-openloop", "p999_us", 550.0),
        ("perf-overload-admission-off", "p999_us", 420.0),
        ("perf-overload-admission-on", "p999_us", 60.0),
        ("perf-overload-admission-on", "shed_rate", 0.8),
        ("perf-overload-recovery", "recovery_ms", 40.0),
        ("perf-delta-incremental", "p50_us", 5.0),
        ("perf-delta-incremental", "p99_us", 30.0),
        ("perf-delta-incremental", "p999_us", 70.0),
        ("perf-delta-bulk", "p50_us", 5.0),
        ("perf-delta-bulk", "p99_us", 900.0),
        ("perf-delta-bulk", "p999_us", 4800.0),
        ("perf-delta-overlay", "base_only_ms", 1.0),
        ("perf-delta-overlay", "overlay_ms", 1.08),
    ];

    /// Per gate, in [`GATES`] order, the changes to [`SATISFYING`] that
    /// violate it and no other gate.
    const VIOLATIONS: [&[(&str, &str, f64)]; 12] = [
        &[("perf-sharded-nodes16", "parallel_ms", 25.4)],
        &[("perf-concurrent-migrate", "busy_ms", 0.16)],
        &[
            ("perf-compress-rle", "bytes_encoded", 900.0),
            ("perf-compress-for", "bytes_encoded", 801.0),
        ],
        &[("perf-compress-hot", "packed_scan_ms", 0.145)],
        &[("perf-pruning", "bytes_scanned", 3_400.0)],
        &[("perf-openloop", "p99_us", 600.0)],
        &[("perf-overload-admission-on", "shed_rate", 0.0)],
        &[("perf-overload-recovery", "recovery_ms", 0.0)],
        &[("perf-overload-admission-on", "p999_us", 430.0)],
        &[("perf-delta-bulk", "p50_us", -1.0)],
        &[("perf-delta-overlay", "overlay_ms", 1.25)],
        &[("perf-delta-incremental", "p999_us", 5_000.0)],
    ];

    fn metric_set(changes: &[(&str, &str, f64)]) -> Vec<Metric> {
        SATISFYING
            .iter()
            .map(|&(experiment, name, value)| {
                let value = changes
                    .iter()
                    .find(|c| c.0 == experiment && c.1 == name)
                    .map_or(value, |c| c.2);
                Metric {
                    experiment: experiment.to_owned(),
                    name,
                    unit: "-",
                    value,
                }
            })
            .collect()
    }

    fn verdicts(all: &[Metric], cpus: usize) -> Vec<Verdict> {
        let out = evaluate_gates(all, cpus);
        assert_eq!(out.len(), GATES.len(), "every gate's experiment ran");
        out.into_iter().map(|(_, v)| v).collect()
    }

    #[test]
    fn each_gate_fails_exactly_on_its_violation() {
        assert!(verdicts(&metric_set(&[]), 2)
            .iter()
            .all(|v| *v == Verdict::Pass));
        for (i, changes) in VIOLATIONS.iter().enumerate() {
            let got = verdicts(&metric_set(changes), 2);
            for (j, v) in got.iter().enumerate() {
                let want = if i == j { Verdict::Fail } else { Verdict::Pass };
                assert_eq!(*v, want, "violation {i}, gate {j} [{}]", GATES[j].condition);
            }
        }
    }

    #[test]
    fn timing_gates_skip_on_one_cpu() {
        for changes in std::iter::once(&[][..]).chain(VIOLATIONS.iter().copied()) {
            for (g, v) in GATES.iter().zip(verdicts(&metric_set(changes), 1)) {
                if g.needs_two_cpus {
                    assert_eq!(v, Verdict::SkippedSingleCpu, "[{}]", g.condition);
                } else {
                    assert_ne!(v, Verdict::SkippedSingleCpu, "[{}]", g.condition);
                }
            }
        }
        let skipped = GATES.iter().filter(|g| g.needs_two_cpus).count();
        assert_eq!(
            skipped, 5,
            "sharded, migrate, hot scan, served tail, delta tail"
        );
    }

    #[test]
    fn a_missing_metric_fails_even_where_skipped() {
        for (experiment, name) in [
            ("perf-pruning", "bytes_unpruned"),
            ("perf-compress-dict", "bytes_encoded"),
            ("perf-delta-bulk", "p999_us"),
        ] {
            let all: Vec<Metric> = metric_set(&[])
                .into_iter()
                .filter(|m| !(m.experiment == experiment && m.name == name))
                .collect();
            for cpus in [1, 2] {
                let failed: Vec<Verdict> = verdicts(&all, cpus)
                    .into_iter()
                    .filter(Verdict::is_failure)
                    .collect();
                let want = Verdict::Missing(format!("missing metric {experiment}/{name}"));
                assert!(!failed.is_empty(), "{experiment}/{name}");
                assert!(failed.iter().all(|v| *v == want), "{failed:?}");
            }
        }
        // A gate whose experiment did not run is not evaluated at all.
        assert!(evaluate_gates(&metrics("fig2", &[("wall_ms", "ms", 1.0)]), 2).is_empty());
    }

    #[test]
    fn bench_json_carries_every_metric() {
        let dir = std::env::temp_dir().join(format!("soc_bench_json_{}", std::process::id()));
        let mut all = metrics("fig2", &[("wall_ms", "ms", 12.5)]);
        all.extend(metrics(
            "perf-pruning",
            &[
                ("bytes_scanned", "B", 1024.0),
                ("bytes_unpruned", "B", f64::NAN),
            ],
        ));
        let path = write_bench_json(&dir, true, &all).unwrap();
        assert!(path.ends_with("BENCH.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"schema\": \"soc-bench\""));
        assert!(text.contains("\"quick\": true"));
        assert!(text.contains(
            "{\"experiment\": \"fig2\", \"name\": \"wall_ms\", \"unit\": \"ms\", \"value\": 12.5}"
        ));
        assert!(text.contains("\"name\": \"bytes_scanned\", \"unit\": \"B\", \"value\": 1024}"));
        assert!(text.contains("\"name\": \"bytes_unpruned\", \"unit\": \"B\", \"value\": null}"));
        assert_eq!(text.matches("\"experiment\"").count(), all.len());
        // Balanced braces/brackets — a cheap structural sanity check.
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        std::fs::remove_dir_all(&dir).ok();
    }
}
