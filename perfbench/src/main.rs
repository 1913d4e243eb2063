//! End-to-end and per-layer benchmark of socdb.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sql-read --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Four seeded workloads (see `BENCHMARK.json` for why each exists, and
//! `--workload all` to run them one after another):
//! `sql-read` and `sql-dml` drive one SQL session through
//! sql → optimizer → interpreter → bat kernels → bpm → strategy;
//! `serve-read` and `serve-write` drive the serving stack (admission,
//! epochs, delta runs, compaction, compressed snapshots) with an open
//! loop. Every answer is checked against an oracle outside the timed
//! regions. With `--trace 0` the run prints the end-to-end metrics, with
//! `--trace 1` the per-layer ones from spans recorded around each layer
//! call. The last line of standard output is one JSON object.
//!
//! Extra flags for the self-test: `--toy` shrinks every workload, and
//! `--corrupt` falsifies one answer so the check must catch it.

mod report;
mod serve;
mod sql;
mod sys;
mod trace;

use std::process::ExitCode;

/// Counts live heap bytes for `mem_bytes_per_row`.
#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

use report::{Metric, Outcome};
use serve::ServeShape;
use sql::{DmlMix, SqlShape};

/// Every end-to-end metric, by name and unit, in output order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("read_slo_frac", "frac"),
    ("write_slo_frac", "frac"),
    ("read_bytes_per_query", "B"),
    ("mem_bytes_per_row", "B"),
    ("ok_frac", "frac"),
];

/// Every per-layer metric, by name and unit, in output order. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("sql.compile_us", "us"),
    ("optimizer.optimize_us", "us"),
    ("optimizer.segments_per_stmt", "count"),
    ("interp.run_us", "us"),
    ("interp.self_us", "us"),
    ("bat.projection_us", "us"),
    ("bat.select_us", "us"),
    ("bat.rows_touched_per_row_out", "ratio"),
    ("bpm.adapt_us", "us"),
    ("bpm.footprint_bytes", "B"),
    ("catalog.dml_us", "us"),
    ("catalog.merge_ms", "ms"),
    ("catalog.merges", "count"),
    ("catalog.pieces_lost_per_merge", "count"),
    ("catalog.pending_rows_max", "count"),
    ("strategy.pieces", "count"),
    ("strategy.reorg_write_bytes", "B"),
    ("strategy.reorg_bytes_per_query", "B"),
    ("epoch.count_us", "us"),
    ("epoch.sum_us", "us"),
    ("epoch.minmax_us", "us"),
    ("epoch.collect_us", "us"),
    ("snapshot.count_us", "us"),
    ("snapshot.sum_us", "us"),
    ("snapshot.collect_us", "us"),
    ("epoch.apply_deltas_us", "us"),
    ("epoch.pending_rows_max", "count"),
    ("epoch.delta_runs_max", "count"),
    ("epoch.hints_dropped", "count"),
    ("epoch.drain_ms", "ms"),
    ("epoch.visibility_lag_batches", "count"),
    ("delta.read_bytes_frac", "frac"),
    ("synopsis.pruned_frac", "frac"),
    ("synopsis.unpruned_bytes_ratio", "ratio"),
    ("compress.strategy_bytes_per_row", "B"),
    ("admission.admit_us", "us"),
    ("admission.shed_frac", "frac"),
    ("read_qps", "1/s"),
    ("latency.read_p50_us", "us"),
    ("latency.write_p50_us", "us"),
    ("latency.read_p95_us", "us"),
    ("latency.read_p99_us", "us"),
    ("latency.write_p95_us", "us"),
    ("latency.write_p99_us", "us"),
    ("bench.late_p99_us", "us"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.traced_stmt_us", "us"),
    ("bench.reconcile_gap_frac", "frac"),
    ("bench.spans", "count"),
];

/// The command line of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corrupt: bool,
    pub toy: bool,
}

fn parse_args() -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        corrupt: false,
        toy: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{what} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--corrupt" => args.corrupt = true,
            "--toy" => args.toy = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

/// The DML batch of `sql-dml` (and of the write probe after `sql-read`):
/// as many deletes as inserts keep the table at its loaded size, and at
/// 20 pending units a batch (an insert counts once per column) the
/// default 4096-unit auto-merge compacts every 150 or so batches: a
/// cycle every few seconds, several per run.
const DML: DmlMix = DmlMix {
    inserts: 6,
    updates: 2,
    deletes: 6,
};

fn sql_shape(dml: bool, toy: bool) -> SqlShape {
    SqlShape {
        rows: if toy { 20_000 } else { 40_000 },
        setups: 25,
        ledger: if toy { 50 } else { 800 },
        selectivity: 0.001,
        dml: dml.then_some(DML),
        write_probe: (if toy { 50 } else { 1_000 }, DML),
        slo_us: (25_000.0, 1_000.0),
    }
}

fn serve_shape(write: bool, toy: bool) -> ServeShape {
    ServeShape {
        rows: if toy { 50_000 } else { 4_000_000 },
        domain_hi: 99_999_999,
        selectivity: 0.001,
        rate: 500.0,
        write_rate: if write { 50.0 } else { 0.0 },
        batch: (30, 2),
        write_probe: if toy { 50 } else { 1_000 },
        converge: if toy { 200 } else { 4_000 },
        setups: 3,
        slo_us: (1_000.0, 1_000.0),
    }
}

fn run(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "sql-read" => sql::run(&sql_shape(false, args.toy), args),
        "sql-dml" => sql::run(&sql_shape(true, args.toy), args),
        "serve-read" => serve::run(&serve_shape(false, args.toy), args),
        "serve-write" => serve::run(&serve_shape(true, args.toy), args),
        other => Err(format!(
            "unknown workload {other}; expected {} or all",
            WORKLOADS.join(", ")
        )),
    }
}

/// Orders `metrics` as `canon` lists them and fills in the metrics the
/// workload does not exercise with 0. A metric outside `canon`, or with
/// another unit, is a harness bug.
fn canonical(metrics: Vec<Metric>, canon: &[(&'static str, &'static str)]) -> Vec<Metric> {
    for m in &metrics {
        assert!(
            canon.contains(&(m.name, m.unit)),
            "metric {} [{}] is not in the declared list",
            m.name,
            m.unit
        );
    }
    canon
        .iter()
        .map(|&(name, unit)| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(Metric {
                    name,
                    unit,
                    value: 0.0,
                    samples: 0,
                    note: Some("not exercised by this workload".to_owned()),
                })
        })
        .collect()
}

/// The workloads `--workload all` runs, in order.
const WORKLOADS: [&str; 4] = ["sql-read", "sql-dml", "serve-read", "serve-write"];

/// Runs one workload and prints its table and JSON line; returns whether
/// every operation succeeded and every answer verified.
fn report(args: &RunArgs) -> Result<bool, String> {
    let mut outcome = run(args)?;
    let canon: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    outcome.metrics = canonical(std::mem::take(&mut outcome.metrics), canon);
    print!("{}", outcome.table(&args.workload));
    println!("{}", outcome.json());
    if !outcome.correct() {
        eprintln!(
            "perfbench: {}: {} of {} operations failed or answered wrongly",
            args.workload, outcome.failed, outcome.attempted
        );
    }
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // `all` runs every workload in turn, one table and JSON line each.
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for name in names {
        let args = RunArgs {
            workload: name.to_owned(),
            ..args.clone()
        };
        match report(&args) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
