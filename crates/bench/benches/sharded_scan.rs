//! Sharded range selection: throughput of the placement-routed executor
//! against the single-node baseline, sweeping the node count and the
//! execution mode.
//!
//! Three effects interact as nodes grow: routing skips ever more of the
//! data for narrow queries (contiguous placement), per-query coordination
//! over more strategies adds overhead (round-robin fans out to
//! everything), and — since the executor went parallel — the fanned-out
//! scans overlap on worker threads. The serial/parallel sweep at 1/4/16
//! nodes separates the three: the 1-node shard bounds the executor's own
//! overhead, contiguous shows routing selectivity, and round-robin
//! full-fanout is where parallel overlap pays (on multi-core hardware;
//! a single-core runner only measures the coordination overhead).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use soc_core::{ColumnStrategy, NullTracker, StrategyKind, StrategySpec, ValueRange};
use soc_sim::{ExecMode, PlacementPolicy, ShardedColumn};
use soc_workload::{uniform_values, WorkloadSpec};

const DOMAIN_HI: u32 = 999_999;
const COLUMN_LEN: usize = 100_000;
const NODE_COUNTS: [usize; 3] = [1, 4, 16];
const BATCH: usize = 64;

fn domain() -> ValueRange<u32> {
    ValueRange::must(0, DOMAIN_HI)
}

fn spec() -> StrategySpec {
    StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(3 * 1024, 12 * 1024)
}

/// A converged shard: the workload has already shaped the per-node columns,
/// so the measurement sees steady-state routed scans, not first-touch
/// reorganization.
fn converged_shard(policy: PlacementPolicy, nodes: usize) -> ShardedColumn<u32> {
    let values = uniform_values(COLUMN_LEN, &domain(), 21);
    let mut sharded = ShardedColumn::new(spec(), policy, nodes, domain(), values)
        .expect("valid shard")
        .with_exec_mode(ExecMode::Serial);
    for q in WorkloadSpec::uniform(0.01, 400, 22).generate(&domain()) {
        sharded.select_count(&q, &mut NullTracker);
    }
    sharded
}

fn mode_name(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Serial => "serial",
        ExecMode::Parallel => "parallel",
    }
}

fn bench_sharded_scan(c: &mut Criterion) {
    let queries = WorkloadSpec::uniform(0.01, BATCH, 23).generate(&domain());
    let mut group = c.benchmark_group("sharded_scan");
    group.sample_size(20);
    group.throughput(Throughput::Elements((COLUMN_LEN * BATCH) as u64));
    for policy in [
        PlacementPolicy::RangeContiguous,
        PlacementPolicy::RoundRobin,
    ] {
        for nodes in NODE_COUNTS {
            let mut sharded = converged_shard(policy, nodes);
            // Also converge on the benchmark queries themselves, so the
            // adapting strategy reaches a fixed point before either mode
            // is timed — otherwise whichever mode runs first would absorb
            // the residual reorganization and bias the comparison.
            for _ in 0..3 {
                let _ = sharded.select_count_batch(&queries, &mut NullTracker);
            }
            for mode in [ExecMode::Serial, ExecMode::Parallel] {
                sharded.set_exec_mode(mode);
                let id = format!("{}-{}", policy.name(), mode_name(mode));
                group.bench_function(BenchmarkId::new(id, nodes), |b| {
                    b.iter(|| {
                        let counts =
                            sharded.select_count_batch(black_box(&queries), &mut NullTracker);
                        black_box(counts.iter().sum::<u64>())
                    })
                });
            }
        }
    }
    group.finish();
}

/// The full-fanout, real-work case the parallel executor exists for: wide
/// queries over round-robin placement, every node scanning for every
/// query. This is `repro`'s `perf-sharded-*` experiment run under the
/// criterion harness. The column is 4× the routed-scan bench so
/// per-batch scan work dominates the one-spawn-per-node coordination cost
/// — on multi-core hardware the parallel/serial ratio then approaches the
/// core count.
fn bench_sharded_fanout_scan(c: &mut Criterion) {
    const FANOUT_COLUMN_LEN: usize = 400_000;
    let queries = WorkloadSpec::uniform(0.5, BATCH, 24).generate(&domain());
    let mut group = c.benchmark_group("sharded_fanout_scan");
    group.sample_size(10);
    group.throughput(Throughput::Elements((FANOUT_COLUMN_LEN * BATCH) as u64));
    for nodes in NODE_COUNTS {
        let values = uniform_values(FANOUT_COLUMN_LEN, &domain(), 25);
        let mut sharded = ShardedColumn::new(
            StrategySpec::new(StrategyKind::NoSegm),
            PlacementPolicy::RoundRobin,
            nodes,
            domain(),
            values,
        )
        .expect("valid shard");
        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            sharded.set_exec_mode(mode);
            group.bench_function(BenchmarkId::new(mode_name(mode), nodes), |b| {
                b.iter(|| {
                    let counts = sharded.select_count_batch(black_box(&queries), &mut NullTracker);
                    black_box(counts.iter().sum::<u64>())
                })
            });
        }
    }
    group.finish();
}

fn bench_replacement_epoch(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_replace");
    group.sample_size(10);
    for nodes in NODE_COUNTS {
        group.bench_function(BenchmarkId::from_parameter(nodes), |b| {
            b.iter_batched(
                || converged_shard(PlacementPolicy::RangeContiguous, nodes),
                |mut sharded| {
                    black_box(sharded.replace(&mut NullTracker).expect("nodes > 0"));
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sharded_scan,
    bench_sharded_fanout_scan,
    bench_replacement_epoch
);
criterion_main!(benches);
