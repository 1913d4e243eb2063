//! The closed-loop SQL workloads (`sql-read`, `sql-dml`): one session
//! issuing `SELECT objid FROM sys.P WHERE ra BETWEEN ? AND ?` against a
//! SkyServer-shaped table, optionally with a catalog DML batch before each
//! statement. The column starts cold: adaptation is what is measured.

use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soc_bat::{algebra, Atom, Bat, Oid, Tail};
use soc_core::{OrdF64, StrategyKind, StrategySpec};
use soc_mal::{compile_select, Catalog, Interp, MalValue, Program, SegmentOptimizer, Stmt};
use soc_workload::{skyserver_domain, skyserver_ra, QueryDistribution, WorkloadSpec};

use crate::report::{MetricSet, Outcome, Samples};
use crate::sys::{live_heap_bytes, ns_since};
use crate::trace::{trace_path, Tracer};
use crate::RunArgs;

/// One DML batch: row inserts, `ra` updates of distinct base rows, and
/// deletes of distinct base rows.
#[derive(Debug, Clone, Copy)]
pub struct DmlMix {
    pub inserts: usize,
    pub updates: usize,
    pub deletes: usize,
}

/// Size and traffic of a SQL workload.
#[derive(Debug, Clone, Copy)]
pub struct SqlShape {
    pub rows: usize,
    /// Query width as a fraction of the `ra` domain.
    pub selectivity: f64,
    /// A DML batch before every SELECT (`sql-dml`); `None` for `sql-read`.
    pub dml: Option<DmlMix>,
    /// DML batches issued back to back after the read phase when the
    /// workload itself writes nothing, so write latency is defined on
    /// every workload.
    pub write_probe: (usize, DmlMix),
    /// Latency limits of `read_slo_frac` and `write_slo_frac`,
    /// microseconds.
    pub slo_us: (f64, f64),
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Statements from cold that the byte ledger covers.
    /// A fixed count, not the run's length: most reorganization happens
    /// early, so dividing by however many statements a faster or slower
    /// run completed would move the figures with host speed.
    pub ledger: usize,
}

const SELECT: &str = "SELECT objid FROM sys.P WHERE ra BETWEEN ? AND ?";
const RA: &str = "sys.P.ra";
const RA_LO: f64 = 110.0;
/// Exclusive upper bound of the registered domain, just above the
/// generator's 260° footprint edge.
const RA_HI_EXCL: f64 = 260.001;
const BASE_OBJID: i64 = 587_730_000_000;
const INSERT_OBJID: i64 = 900_000_000_000;

fn ra_spec() -> StrategySpec {
    StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(8 * 1024, 32 * 1024)
}

/// The set-up a session starts from: the table loaded, nothing adapted.
fn load(ra: &[f64]) -> Result<Catalog, String> {
    let objid: Vec<i64> = (0..ra.len() as i64).map(|i| BASE_OBJID + i).collect();
    let mut c = Catalog::new();
    c.register_segmented(
        "sys",
        "P",
        "ra",
        Bat::dense_dbl(ra.to_vec()),
        RA_LO,
        RA_HI_EXCL,
        ra_spec(),
    )
    .map_err(|e| format!("register sys.P.ra: {e}"))?;
    c.register_bat("sys", "P", "objid", Bat::dense_int(objid));
    Ok(c)
}

/// The live rows of `sys.P` as the benchmark expects them.
struct Oracle {
    ra: Vec<f64>,
    objid: Vec<i64>,
    index: BTreeSet<(OrdF64, Oid)>,
}

impl Oracle {
    fn new(ra: &[f64]) -> Self {
        let mut o = Oracle {
            ra: Vec::with_capacity(ra.len()),
            objid: Vec::with_capacity(ra.len()),
            index: BTreeSet::new(),
        };
        for (i, &v) in ra.iter().enumerate() {
            o.insert(i as Oid, v, BASE_OBJID + i as i64);
        }
        o
    }

    fn insert(&mut self, oid: Oid, ra: f64, objid: i64) {
        assert_eq!(oid as usize, self.ra.len(), "oids are dense");
        self.ra.push(ra);
        self.objid.push(objid);
        self.index.insert((OrdF64::from_finite(ra), oid));
    }

    fn update_ra(&mut self, oid: Oid, ra: f64) {
        let i = oid as usize;
        self.index.remove(&(OrdF64::from_finite(self.ra[i]), oid));
        self.ra[i] = ra;
        self.index.insert((OrdF64::from_finite(ra), oid));
    }

    fn delete(&mut self, oid: Oid) {
        self.index
            .remove(&(OrdF64::from_finite(self.ra[oid as usize]), oid));
    }

    /// Objids of the live rows with `ra` in `[lo, hi]`, ascending.
    fn select(&self, lo: f64, hi: f64) -> Vec<i64> {
        let from = (OrdF64::from_finite(lo), 0);
        let to = (OrdF64::from_finite(hi), Oid::MAX);
        let mut ids: Vec<i64> = self
            .index
            .range(from..=to)
            .map(|&(_, oid)| self.objid[oid as usize])
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// Checks a SELECT answer against the oracle, outside any timed region.
fn verify(result: &Bat, expect: &[i64]) -> bool {
    let Tail::Int(ids) = result.tail() else {
        return false;
    };
    let mut got = ids.clone();
    got.sort_unstable();
    got == expect
}

fn exec_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The plan variables the isolated kernel timings replay, and the
/// Figure-1 projection chain over them (everything after the selection
/// that is not a `uselect`).
const CAPTURED: [&str; 19] = [
    "X14", "X16", "X17", "X18", "X19", "X20", "X21", "X22", "X23", "X24", "X25", "X28", "X29",
    "X30", "X32", "X33", "X34", "X35", "X36",
];

enum Kernel {
    Union(&'static str, &'static str),
    Diff(&'static str, &'static str),
    Reverse(&'static str),
    Mark(&'static str),
    Join(&'static str, &'static str),
}

const PROJECTION: [Kernel; 11] = [
    Kernel::Union("X14", "X17"),
    Kernel::Diff("X18", "X19"),
    Kernel::Union("X20", "X21"),
    Kernel::Reverse("X23"),
    Kernel::Diff("X22", "X24"),
    Kernel::Mark("X25"),
    Kernel::Reverse("X28"),
    Kernel::Union("X30", "X32"),
    Kernel::Diff("X33", "X34"),
    Kernel::Union("X35", "X34"),
    Kernel::Join("X29", "X36"),
];

/// What the traced path keeps of one statement for the isolated timings.
struct Captured {
    pieces: Vec<Bat>,
    vars: HashMap<&'static str, Bat>,
}

/// Isolated kernel timings of one statement's own intermediates.
#[derive(Default)]
struct KernelTimes {
    select_ns: u64,
    projection_ns: u64,
    rows_in: u64,
}

fn time_kernels(cap: &Captured, lo: &Atom, hi: &Atom) -> Result<KernelTimes, String> {
    let var = |v: &str| {
        cap.vars
            .get(v)
            .ok_or_else(|| format!("plan variable {v} was not captured"))
    };
    let mut k = KernelTimes::default();
    let uselect = |b: &Bat, k: &mut KernelTimes| -> Result<(), String> {
        let t = Instant::now();
        let r = algebra::uselect(b, lo, hi).map_err(exec_err)?;
        k.select_ns += ns_since(t);
        k.rows_in += b.len() as u64;
        black_box(r);
        Ok(())
    };
    for p in &cap.pieces {
        uselect(p, &mut k)?;
    }
    uselect(var("X16")?, &mut k)?;
    uselect(var("X19")?, &mut k)?;
    for op in &PROJECTION {
        let (t, r, rows) = match *op {
            Kernel::Union(a, b) => {
                let (a, b) = (var(a)?, var(b)?);
                let t = Instant::now();
                (t, algebra::kunion(a, b), a.len() + b.len())
            }
            Kernel::Diff(a, b) => {
                let (a, b) = (var(a)?, var(b)?);
                let t = Instant::now();
                (t, algebra::kdifference(a, b), a.len() + b.len())
            }
            Kernel::Reverse(a) => {
                let a = var(a)?;
                let t = Instant::now();
                (t, algebra::reverse(a), a.len())
            }
            Kernel::Mark(a) => {
                let a = var(a)?;
                let t = Instant::now();
                (t, Ok(algebra::mark_t(a, 0)), a.len())
            }
            Kernel::Join(a, b) => {
                let (a, b) = (var(a)?, var(b)?);
                let t = Instant::now();
                (t, algebra::join(a, b), a.len() + b.len())
            }
        };
        let r = r.map_err(exec_err)?;
        k.projection_ns += ns_since(t);
        k.rows_in += rows as u64;
        black_box(r);
    }
    Ok(k)
}

/// The optimized plan without its `bpm.adapt` hook, which the traced
/// path calls itself so adaptation gets a span of its own.
fn without_adapt(plan: &Program) -> Program {
    Program {
        stmts: plan
            .stmts
            .iter()
            .filter(|s| !matches!(s, Stmt::Assign(i) if i.qualified() == "bpm.adapt"))
            .cloned()
            .collect(),
    }
}

/// Per-statement layer times of the traced run.
#[derive(Default)]
struct LayerSamples {
    compile: Samples,
    optimize: Samples,
    run: Samples,
    run_self: Samples,
    adapt: Samples,
    select: Samples,
    projection: Samples,
    stmt: Samples,
    segments: Samples,
    rows_in: u64,
    rows_out: u64,
    parts_ns: f64,
    stmt_ns: f64,
    traced_gross: Samples,
    untraced: Samples,
}

/// DML-side observations of the catalog.
#[derive(Default)]
struct CatalogSamples {
    dml_us: Samples,
    merge_ms: Samples,
    pieces_lost: Samples,
    pending_max: usize,
}

/// A pseudo-random stream of DML targets and values.
struct DmlSource {
    rng: SmallRng,
    /// Live rows never updated or deleted: each row is touched at most
    /// once, so no row carries two pending changes.
    untouched: Vec<Oid>,
    ra: Vec<f64>,
    next_ra: usize,
}

impl DmlSource {
    fn new(rows: usize, seed: u64) -> Self {
        DmlSource {
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_d41a),
            untouched: (0..rows as Oid).collect(),
            ra: skyserver_ra(4096, seed ^ 0x1a5e_47ed)
                .into_iter()
                .map(OrdF64::get)
                .collect(),
            next_ra: 0,
        }
    }

    fn ra(&mut self) -> f64 {
        let v = self.ra[self.next_ra % self.ra.len()];
        self.next_ra += 1;
        v
    }

    /// A random untouched live row; `None` once every row has been used.
    fn target(&mut self) -> Option<Oid> {
        if self.untouched.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..self.untouched.len());
        Some(self.untouched.swap_remove(i))
    }

    fn inserted(&mut self, oid: Oid) {
        self.untouched.push(oid);
    }
}

/// The session: the catalog under test, the oracle, and the tracer.
struct Session {
    catalog: Catalog,
    oracle: Oracle,
    tracer: Tracer,
    dml: DmlSource,
    cat: CatalogSamples,
}

impl Session {
    fn pending(&self) -> usize {
        self.catalog.pending_rows("sys", "P")
    }

    fn pieces(&self) -> usize {
        self.catalog.segmented(RA).map_or(0, |s| s.piece_count())
    }

    /// Times one catalog DML call; a call during which the pending count
    /// fell short of what it added ran an automatic merge step.
    fn dml_call(&mut self, added: usize, req: u64, f: impl FnOnce(&mut Catalog)) -> u64 {
        let pending = self.pending();
        let pieces = self.pieces();
        let span = self.tracer.begin("catalog.dml", req);
        let t = Instant::now();
        f(&mut self.catalog);
        let ns = ns_since(t);
        self.tracer.end(span);
        let after = self.pending();
        self.cat.pending_max = self.cat.pending_max.max(after).max(pending + added);
        if after < pending + added {
            self.cat.merge_ms.push(ns as f64 / 1e6);
            self.cat
                .pieces_lost
                .push(pieces.saturating_sub(self.pieces()) as f64);
        }
        self.cat.dml_us.push(ns as f64 / 1e3);
        ns
    }

    /// One DML batch; returns its acknowledgement time in nanoseconds.
    fn dml_batch(&mut self, mix: DmlMix, req: u64) -> Result<u64, String> {
        let root = self.tracer.begin("write", req);
        let mut total = 0;
        for _ in 0..mix.inserts {
            let ra = self.dml.ra();
            let oid = self.oracle.ra.len() as Oid;
            let objid = INSERT_OBJID + oid as i64;
            let mut got = 0;
            total += self.dml_call(2, req, |c| {
                got = c.insert_row(
                    "sys",
                    "P",
                    &[("ra", Atom::Dbl(ra)), ("objid", Atom::Int(objid))],
                );
            });
            if got != oid {
                return Err(format!("insert_row returned oid {got}, expected {oid}"));
            }
            self.oracle.insert(oid, ra, objid);
            self.dml.inserted(oid);
        }
        for _ in 0..mix.updates {
            let Some(oid) = self.dml.target() else { break };
            let ra = self.dml.ra();
            total += self.dml_call(1, req, |c| {
                c.update_value("sys", "P", "ra", oid, Atom::Dbl(ra));
            });
            self.oracle.update_ra(oid, ra);
        }
        for _ in 0..mix.deletes {
            let Some(oid) = self.dml.target() else { break };
            total += self.dml_call(1, req, |c| c.delete_row("sys", "P", oid));
            self.oracle.delete(oid);
        }
        self.tracer.end(root);
        Ok(total)
    }

    /// One untraced statement: compile, optimize, interpret.
    fn select(&mut self, lo: f64, hi: f64) -> Result<Bat, String> {
        let plan = compile_select(SELECT).map_err(exec_err)?;
        let (plan, _) = SegmentOptimizer::new().optimize(&plan, &self.catalog);
        Interp::new(&mut self.catalog)
            .run(&plan, &[Atom::Dbl(lo), Atom::Dbl(hi)])
            .map_err(exec_err)?
            .ok_or_else(|| "the plan exported no result".to_owned())
    }

    /// One traced statement: a span per layer, with the adaptation hook
    /// dispatched by the harness and the plan's intermediates captured
    /// for the isolated kernel timings.
    fn select_traced(
        &mut self,
        lo: f64,
        hi: f64,
        req: u64,
        layers: &mut LayerSamples,
    ) -> Result<Bat, String> {
        let args = [Atom::Dbl(lo), Atom::Dbl(hi)];
        let root = self.tracer.begin("stmt", req);
        let s_compile = self.tracer.begin("sql.compile", req);
        let plan = compile_select(SELECT).map_err(exec_err);
        self.tracer.end(s_compile);
        let s_optimize = self.tracer.begin("optimizer.optimize", req);
        let plan = plan.map(|p| SegmentOptimizer::new().optimize(&p, &self.catalog).0);
        self.tracer.end(s_optimize);
        let run = self.tracer.begin("interp.run", req);
        let cap = self.tracer.begin("bench.capture", req);
        let stripped = plan.as_ref().map(without_adapt).map_err(String::clone);
        let pieces = self
            .catalog
            .segmented(RA)
            .ok_or_else(|| format!("{RA} is not segmented"))
            .and_then(|s| s.piece_bats(lo, hi).map_err(exec_err));
        self.tracer.end(cap);
        let mut interp = Interp::new(&mut self.catalog);
        let result = stripped.and_then(|p| interp.run(&p, &args).map_err(exec_err));
        let cap = self.tracer.begin("bench.capture", req);
        let vars: HashMap<&'static str, Bat> = CAPTURED
            .iter()
            .filter_map(|&v| match interp.get(v) {
                Some(MalValue::Bat(b)) => Some((v, b.clone())),
                _ => None,
            })
            .collect();
        drop(interp);
        self.tracer.end(cap);
        let s_adapt = self.tracer.begin("bpm.adapt", req);
        let adapted = self
            .catalog
            .segmented_mut(RA)
            .ok_or_else(|| format!("{RA} is not segmented"))
            .and_then(|s| s.adapt(&args[0], &args[1]).map_err(exec_err));
        self.tracer.end(s_adapt);
        self.tracer.end(run);
        self.tracer.end(root);
        let result = result?.ok_or_else(|| "the plan exported no result".to_owned())?;
        adapted?;

        let cap = Captured {
            pieces: pieces?,
            vars,
        };
        let k = time_kernels(&cap, &args[0], &args[1])?;
        let compile = self.tracer.net_ns(s_compile);
        let optimize = self.tracer.net_ns(s_optimize);
        let run_ns = self.tracer.net_ns(run);
        let adapt_ns = self.tracer.net_ns(s_adapt);
        let stmt_ns = self.tracer.net_ns(root);
        layers.compile.push(compile as f64 / 1e3);
        layers.optimize.push(optimize as f64 / 1e3);
        layers.run.push(run_ns as f64 / 1e3);
        layers.adapt.push(adapt_ns as f64 / 1e3);
        layers.select.push(k.select_ns as f64 / 1e3);
        layers.projection.push(k.projection_ns as f64 / 1e3);
        layers.run_self.push(
            (run_ns as f64 - adapt_ns as f64 - k.select_ns as f64 - k.projection_ns as f64) / 1e3,
        );
        layers.stmt.push(stmt_ns as f64 / 1e3);
        layers
            .traced_gross
            .push(self.tracer.gross_ns(root) as f64 / 1e3);
        layers.segments.push(cap.pieces.len() as f64);
        layers.rows_in += k.rows_in;
        layers.rows_out += result.len() as u64;
        layers.parts_ns += (compile + optimize + run_ns) as f64;
        layers.stmt_ns += stmt_ns as f64;
        Ok(result)
    }
}

/// Runs one SQL workload.
pub fn run(shape: &SqlShape, args: &RunArgs) -> Result<Outcome, String> {
    let seed = args.seed;
    let base_ra: Vec<f64> = skyserver_ra(shape.rows, seed)
        .into_iter()
        .map(OrdF64::get)
        .collect();
    // Zipf(0.5) ranks over 100 domain slices: every slice is visited
    // within a run, so the layout converges, and no single slice draws
    // enough queries for its piece sizes to decide bytes per query.
    let queries: Vec<(f64, f64)> = WorkloadSpec {
        distribution: QueryDistribution::Zipf {
            exponent: 0.5,
            buckets: 100,
        },
        selectivity: shape.selectivity,
        count: 20_000,
        seed: seed ^ 0x51,
    }
    .generate(&skyserver_domain())
    .into_iter()
    .map(|q| (q.lo().get(), q.hi().get()))
    .collect();

    let oracle = Oracle::new(&base_ra);
    let dml = DmlSource::new(shape.rows, seed);
    let mut setup_s = Samples::default();

    let heap0 = live_heap_bytes();
    let t = Instant::now();
    let catalog = load(&base_ra)?;
    setup_s.push(t.elapsed().as_secs_f64());
    // Taken as loaded: after adaptation the spare capacity split pieces
    // keep depends on the split history, and varies by half across seeds.
    let mem_bytes_per_row =
        live_heap_bytes().saturating_sub(heap0) as f64 / shape.rows.max(1) as f64;
    let mut s = Session {
        catalog,
        oracle,
        tracer: Tracer::new(),
        dml,
        cat: CatalogSamples::default(),
    };
    let mut writes = Samples::default();
    let mut read_bytes = Samples::default();
    let mut gaps = Samples::default();
    let mut layers = LayerSamples::default();

    let (mut attempted, mut failed, mut within_slo) = (0u64, 0u64, 0u64);
    let mut ledger = None;

    let run_for = std::time::Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut last_end: Option<Instant> = None;
    let mut i = 0usize;
    while started.elapsed() < run_for {
        let (lo, hi) = queries[i % queries.len()];
        let req = i as u64;
        // Every other statement of a traced run is traced; the others
        // are the untraced twins the tracing overhead is measured against.
        s.tracer.active = args.trace && i % 2 == 0;
        if let Some(end) = last_end {
            gaps.push(ns_since(end) as f64 / 1e3);
        }
        if let Some(mix) = shape.dml {
            attempted += 1;
            match s.dml_batch(mix, req) {
                Ok(ns) => writes.push(ns as f64 / 1e3),
                Err(e) => {
                    failed += 1;
                    eprintln!("write {i}: {e}");
                }
            }
        }
        read_bytes.push(
            s.catalog
                .segmented(RA)
                .map_or(0, |seg| seg.footprint_bytes(lo, hi)) as f64,
        );
        attempted += 1;
        let t = Instant::now();
        let result = if s.tracer.active {
            s.select_traced(lo, hi, req, &mut layers)
        } else {
            s.select(lo, hi)
        };
        let ns = ns_since(t);
        last_end = Some(Instant::now());
        let us = ns as f64 / 1e3;
        if args.trace && !s.tracer.active {
            layers.untraced.push(us);
        }
        let ok = match result {
            Ok(mut bat) => {
                if args.corrupt && i == 3 {
                    bat = corrupt(&bat);
                }
                verify(&bat, &s.oracle.select(lo, hi))
            }
            Err(e) => {
                eprintln!("statement {i}: {e}");
                false
            }
        };
        if !ok {
            failed += 1;
            eprintln!("statement {i}: wrong answer for ra in [{lo}, {hi}]");
        } else if us <= shape.slo_us.0 {
            within_slo += 1;
        }
        i += 1;
        if i == shape.ledger {
            ledger = Some(reorg_bytes(&s.catalog));
        }
    }
    s.tracer.active = false;
    let statements = i;
    let (ledger_n, ledger_reorg) = match ledger {
        Some(l) => (shape.ledger, l),
        None => {
            eprintln!("only {statements} statements ran; the byte ledger covers them all");
            (statements, reorg_bytes(&s.catalog))
        }
    };

    // Write latency on a read-only workload: a probe after the read phase.
    if shape.dml.is_none() {
        let (batches, mix) = shape.write_probe;
        for b in 0..batches {
            attempted += 1;
            match s.dml_batch(mix, (statements + b) as u64) {
                Ok(ns) => writes.push(ns as f64 / 1e3),
                Err(e) => {
                    failed += 1;
                    eprintln!("probe write {b}: {e}");
                }
            }
        }
    }
    // Every write landed: a whole-domain statement sees exactly the oracle.
    attempted += 1;
    match s.select(RA_LO, RA_HI_EXCL) {
        Ok(bat) if verify(&bat, &s.oracle.select(RA_LO, RA_HI_EXCL)) => {}
        _ => {
            failed += 1;
            eprintln!("final whole-domain statement disagrees with the oracle");
        }
    }

    let seg = s
        .catalog
        .segmented(RA)
        .ok_or_else(|| format!("{RA} is not segmented"))?;
    let pieces = seg.piece_count();
    let reorg_total = seg.reorg_write_bytes();
    let merges = s.cat.merge_ms.len();
    if args.trace {
        let path = trace_path(&args.workload, seed);
        s.tracer
            .write_tsv(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let cat = std::mem::take(&mut s.cat);
    let spans = s.tracer.len();
    drop(s);
    for _ in 1..shape.setups {
        let t = Instant::now();
        let c = load(&base_ra)?;
        setup_s.push(t.elapsed().as_secs_f64());
        drop(c);
    }

    let mut m = MetricSet::default();
    if args.trace {
        m.median("sql.compile_us", "us", &layers.compile);
        m.median("optimizer.optimize_us", "us", &layers.optimize);
        m.add(
            "optimizer.segments_per_stmt",
            "count",
            layers.segments.mean(),
            layers.segments.len(),
        );
        m.median("interp.run_us", "us", &layers.run);
        m.median("interp.self_us", "us", &layers.run_self);
        m.median("bat.projection_us", "us", &layers.projection);
        m.median("bat.select_us", "us", &layers.select);
        m.add(
            "bat.rows_touched_per_row_out",
            "ratio",
            layers.rows_in as f64 / layers.rows_out.max(1) as f64,
            layers.stmt.len(),
        );
        m.median("bpm.adapt_us", "us", &layers.adapt);
        m.add(
            "bpm.footprint_bytes",
            "B",
            read_bytes.mean(),
            read_bytes.len(),
        );
        m.median("catalog.dml_us", "us", &cat.dml_us);
        m.median("catalog.merge_ms", "ms", &cat.merge_ms);
        m.add("catalog.merges", "count", merges as f64, 1);
        m.add(
            "catalog.pieces_lost_per_merge",
            "count",
            cat.pieces_lost.mean(),
            cat.pieces_lost.len(),
        );
        m.add(
            "catalog.pending_rows_max",
            "count",
            cat.pending_max as f64,
            cat.dml_us.len(),
        );
        m.add("strategy.pieces", "count", pieces as f64, 1);
        m.add("strategy.reorg_write_bytes", "B", reorg_total as f64, 1);
        m.add(
            "strategy.reorg_bytes_per_query",
            "B",
            ledger_reorg as f64 / ledger_n.max(1) as f64,
            ledger_n,
        );
        m.add("bench.spans", "count", spans as f64, 1);
        m.add(
            "read_qps",
            "1/s",
            layers.untraced.len() as f64 / (layers.untraced.sum() / 1e6).max(1e-9),
            layers.untraced.len(),
        );
        m.median("latency.read_p50_us", "us", &layers.untraced);
        m.median("latency.write_p50_us", "us", &writes);
        m.tail("latency.read_p95_us", "us", &layers.untraced, 0.95);
        m.tail("latency.read_p99_us", "us", &layers.untraced, 0.99);
        m.tail("latency.write_p95_us", "us", &writes, 0.95);
        m.tail("latency.write_p99_us", "us", &writes, 0.99);
        m.tail("bench.late_p99_us", "us", &gaps, 0.99);
        m.add(
            "bench.trace_overhead_frac",
            "frac",
            layers.traced_gross.median() / layers.untraced.median().max(1e-9) - 1.0,
            layers.traced_gross.len() + layers.untraced.len(),
        );
        m.median("bench.traced_stmt_us", "us", &layers.stmt);
        m.add(
            "bench.reconcile_gap_frac",
            "frac",
            (layers.stmt_ns - layers.parts_ns) / layers.stmt_ns.max(1.0),
            layers.stmt.len(),
        );
    } else {
        m.median("setup_s", "s", &setup_s);
        m.add(
            "read_slo_frac",
            "frac",
            within_slo as f64 / statements.max(1) as f64,
            statements,
        );
        m.add(
            "write_slo_frac",
            "frac",
            writes.share_within(shape.slo_us.1),
            writes.len(),
        );
        let ledger_reads = Samples::from(read_bytes.values()[..ledger_n].to_vec());
        m.add("read_bytes_per_query", "B", ledger_reads.mean(), ledger_n);
        m.add("mem_bytes_per_row", "B", mem_bytes_per_row, 1);
        m.add(
            "ok_frac",
            "frac",
            1.0 - failed as f64 / attempted.max(1) as f64,
            attempted as usize,
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: m.metrics,
    })
}

/// Reorganization bytes charged to `sys.P.ra` so far.
fn reorg_bytes(catalog: &Catalog) -> u64 {
    catalog
        .segmented(RA)
        .map_or(0, |seg| seg.reorg_write_bytes())
}

/// A deliberately wrong answer: one objid too many.
fn corrupt(bat: &Bat) -> Bat {
    let Tail::Int(ids) = bat.tail() else {
        return bat.clone();
    };
    let mut ids = ids.clone();
    ids.push(-1);
    Bat::dense_int(ids)
}
