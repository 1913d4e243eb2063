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
//! With `--json`, a machine-readable perf baseline — per-experiment wall
//! time, bytes scanned, serial-vs-parallel speedup — is additionally
//! written to `<out>/BENCH_PR4.json`, the epoch-read-path experiments
//! to `<out>/BENCH_PR5.json`, the compression experiments — raw vs
//! encoded footprint, packed-scan vs decode-then-scan ms per codec — to
//! `<out>/BENCH_PR6.json`, and the pruning/open-loop experiments —
//! pruned vs unpruned bytes scanned, p50/p99/p999 latency — to
//! `<out>/BENCH_PR8.json`, and the overload/recovery experiments — shed
//! rate, goodput, served-tail quantiles with the admission gate off vs
//! on at 2× saturation, worker-rebuild recovery time — to
//! `<out>/BENCH_PR9.json`, and the delta-compaction experiments —
//! write-heavy open-loop tail with incremental vs bulk merge, delta-free
//! overlay overhead — to `<out>/BENCH_PR10.json` (CI uploads all six as
//! artifacts).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use soc_bench::fig2;
use soc_bench::perf::{
    aggregate_kernel_perf, compress_perf, concurrent_migration_perf, concurrent_read_perf,
    delta_merge_perf, kernel_count_perf, open_loop_perf, overload_perf, pruning_scan_perf,
    sharded_scan_perf, write_bench_json_named, PerfEntry,
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
    json: bool,
    scale: usize,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        experiment: "all".to_owned(),
        out: PathBuf::from("results"),
        quick: false,
        json: false,
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
            "--json" => opts.json = true,
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
                     [--json] [--scale N]"
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

/// Runs `f` and appends its wall time to the perf baseline under `id`,
/// passing the closure's value through.
fn timed<T, F: FnOnce() -> T>(perf: &mut Vec<PerfEntry>, id: &str, f: F) -> T {
    let t0 = Instant::now();
    let out = f();
    perf.push(PerfEntry::section(id, t0.elapsed().as_secs_f64() * 1e3));
    out
}

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
    let mut perf: Vec<PerfEntry> = Vec::new();

    if wants(e, "fig2", "simulation") {
        timed(&mut perf, "fig2", || em.figure(&fig2()));
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
        let m: SimulationMatrix = timed(&mut perf, "simulation-matrix", || {
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
        let r: SkyServerResults = timed(&mut perf, "skyserver-grid", || run_skyserver(&cfg));
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
            timed(&mut perf, "ablation-cracking", || {
                em.table(&ablation::cracking_comparison(&cfg))
            });
        }
        if wants(e, "ablation-apm", "ablation") {
            timed(&mut perf, "ablation-apm", || {
                em.table(&ablation::apm_bound_sweep(&cfg))
            });
        }
        if wants(e, "ablation-merge", "ablation") {
            timed(&mut perf, "ablation-merge", || {
                em.table(&ablation::merge_ablation(&cfg))
            });
        }
        if wants(e, "ablation-buffer", "ablation") {
            timed(&mut perf, "ablation-buffer", || {
                em.table(&ablation::buffer_ablation(&cfg))
            });
        }
        if wants(e, "ablation-budget", "ablation") {
            timed(&mut perf, "ablation-budget", || {
                em.table(&ablation::budget_ablation(&cfg))
            });
        }
        if wants(e, "ablation-auto-apm", "ablation") {
            timed(&mut perf, "ablation-auto-apm", || {
                em.table(&ablation::auto_apm_ablation(&cfg))
            });
        }
        if wants(e, "ablation-estimator", "ablation") {
            timed(&mut perf, "ablation-estimator", || {
                em.table(&ablation::estimator_ablation(&cfg))
            });
        }
        if wants(e, "ablation-placement", "ablation") {
            timed(&mut perf, "ablation-placement", || {
                em.table(&ablation::placement_ablation(&cfg, 8))
            });
        }
        if wants(e, "ablation-sharding", "ablation") {
            timed(&mut perf, "ablation-sharding", || {
                em.table(&ablation::sharding_ablation(&cfg, 8))
            });
        }
        if wants(e, "ablation-sql-strategy", "ablation") {
            timed(&mut perf, "ablation-sql-strategy", || {
                em.table(&ablation::sql_strategy_ablation(&cfg))
            });
        }
        if wants(e, "ablation-compress", "ablation") {
            timed(&mut perf, "ablation-compress", || {
                em.table(&ablation::compress_ablation(&cfg))
            });
        }
    }

    // ---- Wall-clock perf: parallel executor & scan kernels ---------------
    let mut ran_perf = false;
    if wants(e, "perf-sharded", "perf") {
        for nodes in [1usize, 4, 16] {
            eprintln!("measuring sharded serial-vs-parallel scan at {nodes} node(s)…");
            let entry = sharded_scan_perf(nodes, opts.quick);
            println!(
                "{}: serial {:.2} ms, parallel {:.2} ms, speedup {:.2}x, {} KB scanned",
                entry.id,
                entry.serial_ms.unwrap_or(0.0),
                entry.parallel_ms.unwrap_or(0.0),
                entry.speedup.unwrap_or(0.0),
                entry.bytes_scanned.unwrap_or(0) / 1024,
            );
            perf.push(entry);
            ran_perf = true;
        }
    }
    if wants(e, "perf-kernels", "perf") {
        eprintln!("measuring branchless scan kernel vs naive filter…");
        let entry = kernel_count_perf(opts.quick);
        println!(
            "{}: naive {:.3} ms, kernel {:.3} ms, speedup {:.2}x",
            entry.id,
            entry.serial_ms.unwrap_or(0.0),
            entry.parallel_ms.unwrap_or(0.0),
            entry.speedup.unwrap_or(0.0),
        );
        perf.push(entry);
        ran_perf = true;
    }
    let mut perf5: Vec<PerfEntry> = Vec::new();
    if wants(e, "perf-concurrent", "perf") {
        eprintln!("measuring concurrent snapshot readers vs the serial &mut path…");
        let entry = concurrent_read_perf(opts.quick);
        println!(
            "{}: serial &mut {:.2} ms, concurrent {:.2} ms, speedup {:.2}x",
            entry.id,
            entry.serial_ms.unwrap_or(0.0),
            entry.parallel_ms.unwrap_or(0.0),
            entry.speedup.unwrap_or(0.0),
        );
        perf5.push(entry);
        eprintln!("measuring reads during background strategy migrations…");
        let entry = concurrent_migration_perf(opts.quick);
        println!(
            "{}: quiet reads {:.2} ms, during migrations {:.2} ms (ratio {:.2})",
            entry.id,
            entry.serial_ms.unwrap_or(0.0),
            entry.parallel_ms.unwrap_or(0.0),
            entry.speedup.unwrap_or(0.0),
        );
        perf5.push(entry);
        ran_perf = true;
    }
    let mut perf6: Vec<PerfEntry> = Vec::new();
    if wants(e, "perf-compress", "perf") {
        eprintln!("measuring packed-domain scans vs decode-then-scan per codec…");
        for entry in compress_perf(opts.quick) {
            println!(
                "{}: decode+scan {:.3} ms, packed scan {:.3} ms, {} KB raw -> {} KB encoded",
                entry.id,
                entry.serial_ms.unwrap_or(0.0),
                entry.parallel_ms.unwrap_or(0.0),
                entry.bytes_raw.unwrap_or(0) / 1024,
                entry.bytes_encoded.unwrap_or(0) / 1024,
            );
            perf6.push(entry);
        }
        eprintln!("measuring fused aggregate kernels vs collect-then-fold…");
        let entry = aggregate_kernel_perf(opts.quick);
        println!(
            "{}: collect+fold {:.3} ms, fused {:.3} ms, speedup {:.2}x",
            entry.id,
            entry.serial_ms.unwrap_or(0.0),
            entry.parallel_ms.unwrap_or(0.0),
            entry.speedup.unwrap_or(0.0),
        );
        perf6.push(entry);
        ran_perf = true;
    }
    let mut perf8: Vec<PerfEntry> = Vec::new();
    if wants(e, "perf-pruning", "perf") {
        eprintln!("measuring zone-map pruning on the snapshot read path…");
        let entry = pruning_scan_perf(opts.quick);
        println!(
            "{}: {} KB scanned vs {} KB unpruned ({:.1}x pruned away)",
            entry.id,
            entry.bytes_scanned.unwrap_or(0) / 1024,
            entry.bytes_unpruned.unwrap_or(0) / 1024,
            entry.speedup.unwrap_or(0.0),
        );
        perf8.push(entry);
        ran_perf = true;
    }
    if wants(e, "perf-openloop", "perf") {
        eprintln!("running the open-loop Zipf workload for tail latency…");
        let entry = open_loop_perf(opts.quick);
        println!(
            "{}: p50 {:.1} us, p99 {:.1} us, p999 {:.1} us",
            entry.id,
            entry.p50_us.unwrap_or(0.0),
            entry.p99_us.unwrap_or(0.0),
            entry.p999_us.unwrap_or(0.0),
        );
        perf8.push(entry);
        ran_perf = true;
    }
    let mut perf9: Vec<PerfEntry> = Vec::new();
    if wants(e, "perf-overload", "perf") {
        eprintln!("running the 2x-saturation overload run, admission gate off vs on…");
        for entry in overload_perf(opts.quick) {
            match entry.recovery_ms {
                Some(r) => println!("{}: worker rebuild absorbed in {:.2} ms", entry.id, r),
                None => println!(
                    "{}: shed {:.1}%, goodput {:.0} q/s, p50 {:.1} us, p99 {:.1} us, p999 {:.1} us",
                    entry.id,
                    entry.shed_rate.unwrap_or(0.0) * 100.0,
                    entry.goodput_qps.unwrap_or(0.0),
                    entry.p50_us.unwrap_or(0.0),
                    entry.p99_us.unwrap_or(0.0),
                    entry.p999_us.unwrap_or(0.0),
                ),
            }
            perf9.push(entry);
        }
        ran_perf = true;
    }
    let mut perf10: Vec<PerfEntry> = Vec::new();
    if wants(e, "perf-delta", "perf") {
        eprintln!("running the write-heavy open-loop run, incremental vs bulk merge…");
        for entry in delta_merge_perf(opts.quick) {
            match (entry.p999_us, entry.speedup) {
                (Some(_), _) => println!(
                    "{}: p50 {:.1} us, p99 {:.1} us, p999 {:.1} us",
                    entry.id,
                    entry.p50_us.unwrap_or(0.0),
                    entry.p99_us.unwrap_or(0.0),
                    entry.p999_us.unwrap_or(0.0),
                ),
                (None, Some(ratio)) => println!(
                    "{}: base-only {:.3} ms, overlay-aware {:.3} ms (overhead {:.2}x)",
                    entry.id,
                    entry.serial_ms.unwrap_or(0.0),
                    entry.parallel_ms.unwrap_or(0.0),
                    ratio,
                ),
                _ => println!("{}: {:.2} ms", entry.id, entry.wall_ms),
            }
            perf10.push(entry);
        }
        ran_perf = true;
    }

    if em.written.is_empty() && !ran_perf {
        eprintln!(
            "error: no experiment matched {e:?}; try fig2, fig5..fig16, tab1, tab2, \
             simulation, skyserver, ablation-*, perf-sharded, perf-kernels, \
             perf-concurrent, perf-compress, perf-pruning, perf-openloop, \
             perf-overload, perf-delta, or all"
        );
        return ExitCode::FAILURE;
    }
    if opts.json {
        // Only write a baseline that has content: a filtered run (e.g.
        // `--experiment perf-sharded --json`) must not clobber the other
        // file's previous, valid baseline with an empty experiments list.
        for (file, schema, entries) in [
            ("BENCH_PR4.json", "soc-bench-pr4", &perf),
            ("BENCH_PR5.json", "soc-bench-pr5", &perf5),
            ("BENCH_PR6.json", "soc-bench-pr6", &perf6),
            ("BENCH_PR8.json", "soc-bench-pr8", &perf8),
            ("BENCH_PR9.json", "soc-bench-pr9", &perf9),
            ("BENCH_PR10.json", "soc-bench-pr10", &perf10),
        ] {
            if entries.is_empty() {
                eprintln!("skipping {file}: no matching experiments ran");
                continue;
            }
            match write_bench_json_named(&opts.out, file, schema, opts.quick, entries) {
                Ok(path) => eprintln!("wrote perf baseline {}", path.display()),
                Err(err) => {
                    eprintln!("error: could not write {file}: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    eprintln!(
        "wrote {} CSV file(s) under {}",
        em.written.len(),
        opts.out.display()
    );
    ExitCode::SUCCESS
}
