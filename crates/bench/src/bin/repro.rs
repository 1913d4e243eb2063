//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p soc-bench --bin repro --release -- --experiment all
//! cargo run -p soc-bench --bin repro --release -- --experiment fig5 --out results
//! cargo run -p soc-bench --bin repro --release -- --experiment skyserver --quick
//! ```
//!
//! Experiments: fig2, fig5, fig6, fig7, tab1, fig8, fig9 (simulation);
//! fig10–fig16, tab2 (SkyServer); ablation-cracking, ablation-apm,
//! ablation-merge, ablation-buffer, ablation-budget, ablation-auto-apm,
//! ablation-estimator, ablation-placement, ablation-sharding,
//! ablation-sql-strategy, ablation-compress; perf-sharded, perf-kernels,
//! perf-concurrent, perf-compress, perf-pruning, perf-openloop,
//! perf-overload, perf-delta (wall-clock measurements of the parallel
//! executor, the scan kernels, the epoch-snapshot concurrent read path,
//! the compressed-domain scan kernels, zone-map pruning, the open-loop
//! tail-latency run, the admission-gate overload/recovery run, and the delta-compaction
//! write-heavy run); or the groups `simulation`, `skyserver`, `ablation`,
//! `perf`, `all`.
//!
//! Each figure/table is printed (tables verbatim, figures as sparkline
//! summaries) and written as CSV under `--out` (default `results/`).
//! Every section's wall time and every perf measurement is printed as one
//! `<experiment> <name> = <value> <unit>` line and written to
//! `<out>/BENCH.json` (`perf-pruning bytes_scanned`, `perf-openloop
//! p999_us`, `perf-delta-overlay overlay_ms`, …). The perf gates declared
//! in `soc_bench::perf::GATES` are then evaluated for every experiment
//! that ran, one verdict line each; `repro` exits non-zero when a gate
//! fails or an experiment that ran lacks a metric its gate reads. Gates
//! that compare wall-clock overlap skip on a host with fewer than two
//! available CPUs.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use soc_bench::fig2;
use soc_bench::perf::{
    compress_perf, concurrent_migration_perf, concurrent_read_perf, delta_merge_perf,
    evaluate_gates, kernel_count_perf, metrics, open_loop_perf, overload_perf, pruning_scan_perf,
    sharded_scan_perf, write_bench_json, Metric,
};
use soc_sim::experiment::ablation;
use soc_sim::experiment::simulation::{run_simulation_matrix, SimConfig, SimulationMatrix};
use soc_sim::experiment::skyserver::{
    run_skyserver, SkyConfig, SkyLoad, SkyScheme, SkyServerResults,
};
use soc_sim::output;
use soc_sim::{Figure, TableOut};

struct Opts {
    experiment: String,
    out: PathBuf,
    quick: bool,
    scale: usize,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        experiment: "all".to_owned(),
        out: PathBuf::from("results"),
        quick: false,
        scale: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--experiment" | "-e" => {
                opts.experiment = args.next().ok_or("--experiment needs a value")?;
            }
            "--out" | "-o" => {
                opts.out = PathBuf::from(args.next().ok_or("--out needs a value")?);
            }
            "--quick" => opts.quick = true,
            "--scale" => {
                opts.scale = args
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|_| "bad --scale value")?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--experiment <id|group|all>] [--out DIR] [--quick] \
                     [--scale N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

struct Emitter {
    out: PathBuf,
    written: Vec<PathBuf>,
}

impl Emitter {
    fn figure(&mut self, f: &Figure) {
        println!("{}", output::render_figure_summary(f));
        match output::write_figure_csv(&self.out, f) {
            Ok(p) => self.written.push(p),
            Err(e) => eprintln!("warning: could not write {}: {e}", f.id),
        }
    }

    fn table(&mut self, t: &TableOut) {
        println!("{}", output::render_table(t));
        match output::write_table_csv(&self.out, t) {
            Ok(p) => self.written.push(p),
            Err(e) => eprintln!("warning: could not write {}: {e}", t.id),
        }
    }
}

fn wants(experiment: &str, id: &str, group: &str) -> bool {
    experiment == "all" || experiment == id || experiment == group
}

/// Prints one line per metric and appends them to the run's record.
fn record(all: &mut Vec<Metric>, new: Vec<Metric>) {
    for m in &new {
        let digits = if m.value.fract() == 0.0 { 0 } else { 3 };
        println!(
            "{} {} = {:.*} {}",
            m.experiment, m.name, digits, m.value, m.unit
        );
    }
    all.extend(new);
}

/// Runs `f` and records its wall time as `<id> wall_ms`, passing the
/// closure's value through.
fn timed<T, F: FnOnce() -> T>(all: &mut Vec<Metric>, id: &str, f: F) -> T {
    let t0 = Instant::now();
    let out = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    record(all, metrics(id, &[("wall_ms", "ms", ms)]));
    out
}

/// The wall-clock perf experiments: selector, what is measured, runner.
type PerfRun = (&'static str, &'static str, fn(bool) -> Vec<Metric>);

const PERF_RUNS: &[PerfRun] = &[
    (
        "perf-sharded",
        "sharded serial-vs-parallel scan at 1, 4 and 16 nodes",
        |quick| {
            [1, 4, 16]
                .into_iter()
                .flat_map(|nodes| sharded_scan_perf(nodes, quick))
                .collect()
        },
    ),
    (
        "perf-kernels",
        "branchless scan kernel vs naive filter",
        kernel_count_perf,
    ),
    (
        "perf-concurrent",
        "snapshot readers vs the serial &mut path, and reads during migrations",
        |quick| {
            let mut out = concurrent_read_perf(quick);
            out.extend(concurrent_migration_perf(quick));
            out
        },
    ),
    (
        "perf-compress",
        "packed-domain scans vs decode-then-scan per codec",
        compress_perf,
    ),
    (
        "perf-pruning",
        "zone-map pruning on the snapshot read path",
        pruning_scan_perf,
    ),
    (
        "perf-openloop",
        "the open-loop Zipf workload for tail latency",
        open_loop_perf,
    ),
    (
        "perf-overload",
        "the 2x-saturation overload run, admission gate off vs on",
        overload_perf,
    ),
    (
        "perf-delta",
        "the write-heavy open-loop run, incremental vs bulk merge",
        delta_merge_perf,
    ),
];

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut em = Emitter {
        out: opts.out.clone(),
        written: Vec::new(),
    };
    let e = opts.experiment.as_str();
    let mut all: Vec<Metric> = Vec::new();

    if wants(e, "fig2", "simulation") {
        timed(&mut all, "fig2", || em.figure(&fig2()));
    }

    // ---- Section 6.1 simulation ----------------------------------------
    let sim_ids = ["fig5", "fig6", "fig7", "tab1", "fig8", "fig9"];
    if sim_ids.iter().any(|id| wants(e, id, "simulation")) {
        let cfg = if opts.quick {
            SimConfig {
                column_len: 20_000,
                query_count: 2_000,
                ..SimConfig::default()
            }
        } else {
            SimConfig::default()
        };
        eprintln!(
            "running simulation matrix ({} values, {} queries, 16 runs)…",
            cfg.column_len, cfg.query_count
        );
        let m: SimulationMatrix = timed(&mut all, "simulation-matrix", || {
            run_simulation_matrix(&cfg)
        });
        if wants(e, "fig5", "simulation") {
            for f in m.fig5() {
                em.figure(&f);
            }
        }
        if wants(e, "fig6", "simulation") {
            for f in m.fig6() {
                em.figure(&f);
            }
        }
        if wants(e, "fig7", "simulation") {
            em.figure(&m.fig7());
        }
        if wants(e, "tab1", "simulation") {
            em.table(&m.tab1());
        }
        if wants(e, "fig8", "simulation") {
            for f in m.fig8() {
                em.figure(&f);
            }
        }
        if wants(e, "fig9", "simulation") {
            for f in m.fig9() {
                em.figure(&f);
            }
        }
    }

    // ---- Section 6.2 SkyServer ------------------------------------------
    let sky_ids = [
        "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "tab2",
    ];
    if sky_ids.iter().any(|id| wants(e, id, "skyserver")) {
        let mut cfg = SkyConfig::default();
        if opts.quick {
            cfg = cfg.scaled_down(40);
        }
        if opts.scale > 1 {
            cfg = cfg.scaled_down(opts.scale);
        }
        eprintln!(
            "running SkyServer grid ({} ra values ≈ {} MB, {} queries, 12 runs)…",
            cfg.column_len,
            cfg.column_len * 8 / (1024 * 1024),
            cfg.query_count
        );
        let r: SkyServerResults = timed(&mut all, "skyserver-grid", || run_skyserver(&cfg));
        if wants(e, "fig10", "skyserver") {
            em.table(&r.fig10());
        }
        for (id, fig) in [
            ("fig11", r.fig11()),
            ("fig12", r.fig12()),
            ("fig13", r.fig13()),
            ("fig14", r.fig14()),
            ("fig15", r.fig15()),
            ("fig16", r.fig16()),
        ] {
            if wants(e, id, "skyserver") {
                em.figure(&fig);
            }
        }
        if wants(e, "tab2", "skyserver") {
            em.table(&r.tab2());
        }
        // Narrative diagnostics matching the paper's Section 6.2 prose.
        if e == "all" || e == "skyserver" {
            for load in SkyLoad::ALL {
                for scheme in [SkyScheme::Gd, SkyScheme::Apm1_25, SkyScheme::Apm1_5] {
                    if let Some(n) = r.amortization_point(load, scheme) {
                        println!(
                            "amortization: {} on {} overtakes NoSegm after {} queries",
                            scheme.name(),
                            load.name(),
                            n
                        );
                    }
                }
            }
            println!();
        }
    }

    // ---- Ablations --------------------------------------------------------
    if [
        "ablation-cracking",
        "ablation-apm",
        "ablation-merge",
        "ablation-buffer",
        "ablation-budget",
        "ablation-auto-apm",
        "ablation-estimator",
        "ablation-placement",
        "ablation-sharding",
        "ablation-sql-strategy",
        "ablation-compress",
    ]
    .iter()
    .any(|id| wants(e, id, "ablation"))
    {
        let cfg = if opts.quick {
            SimConfig {
                column_len: 20_000,
                query_count: 1_000,
                ..SimConfig::default()
            }
        } else {
            SimConfig {
                query_count: 5_000,
                ..SimConfig::default()
            }
        };
        if wants(e, "ablation-cracking", "ablation") {
            timed(&mut all, "ablation-cracking", || {
                em.table(&ablation::cracking_comparison(&cfg))
            });
        }
        if wants(e, "ablation-apm", "ablation") {
            timed(&mut all, "ablation-apm", || {
                em.table(&ablation::apm_bound_sweep(&cfg))
            });
        }
        if wants(e, "ablation-merge", "ablation") {
            timed(&mut all, "ablation-merge", || {
                em.table(&ablation::merge_ablation(&cfg))
            });
        }
        if wants(e, "ablation-buffer", "ablation") {
            timed(&mut all, "ablation-buffer", || {
                em.table(&ablation::buffer_ablation(&cfg))
            });
        }
        if wants(e, "ablation-budget", "ablation") {
            timed(&mut all, "ablation-budget", || {
                em.table(&ablation::budget_ablation(&cfg))
            });
        }
        if wants(e, "ablation-auto-apm", "ablation") {
            timed(&mut all, "ablation-auto-apm", || {
                em.table(&ablation::auto_apm_ablation(&cfg))
            });
        }
        if wants(e, "ablation-estimator", "ablation") {
            timed(&mut all, "ablation-estimator", || {
                em.table(&ablation::estimator_ablation(&cfg))
            });
        }
        if wants(e, "ablation-placement", "ablation") {
            timed(&mut all, "ablation-placement", || {
                em.table(&ablation::placement_ablation(&cfg, 8))
            });
        }
        if wants(e, "ablation-sharding", "ablation") {
            timed(&mut all, "ablation-sharding", || {
                em.table(&ablation::sharding_ablation(&cfg, 8))
            });
        }
        if wants(e, "ablation-sql-strategy", "ablation") {
            timed(&mut all, "ablation-sql-strategy", || {
                em.table(&ablation::sql_strategy_ablation(&cfg))
            });
        }
        if wants(e, "ablation-compress", "ablation") {
            timed(&mut all, "ablation-compress", || {
                em.table(&ablation::compress_ablation(&cfg))
            });
        }
    }

    // ---- Wall-clock perf: executors, kernels, serving paths -------------
    for (id, what, run) in PERF_RUNS {
        if wants(e, id, "perf") {
            eprintln!("measuring {what}…");
            record(&mut all, run(opts.quick));
        }
    }

    if all.is_empty() {
        eprintln!(
            "error: no experiment matched {e:?}; try fig2, fig5..fig16, tab1, tab2, \
             simulation, skyserver, ablation-*, perf-sharded, perf-kernels, \
             perf-concurrent, perf-compress, perf-pruning, perf-openloop, \
             perf-overload, perf-delta, or all"
        );
        return ExitCode::FAILURE;
    }
    match write_bench_json(&opts.out, opts.quick, &all) {
        Ok(path) => eprintln!("wrote {} metric(s) to {}", all.len(), path.display()),
        Err(err) => {
            eprintln!("error: could not write BENCH.json: {err}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "wrote {} CSV file(s) under {}",
        em.written.len(),
        opts.out.display()
    );

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("perf gates ({cpus} available CPU(s)):");
    let mut failed = 0usize;
    for (gate, verdict) in evaluate_gates(&all, cpus) {
        println!("gate {} [{}]: {verdict}", gate.experiment, gate.condition);
        if verdict.is_failure() {
            eprintln!("  {}", gate.reason);
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("error: {failed} perf gate(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
