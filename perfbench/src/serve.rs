//! The open-loop serving workloads (`serve-read`, `serve-write`): Poisson
//! arrivals of Zipf range reads against a converged `ConcurrentColumn`,
//! each admitted through an `AdmissionGate`, optionally with
//! `apply_deltas` write batches at a fixed share of arrivals.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soc_core::{
    AdmissionConfig, AdmissionGate, ConcurrentColumn, CountingTracker, DeltaBatch, DeltaOp,
    EncodingMode, EncodingPolicy, NullTracker, QueryStats, StrategyKind, StrategySnapshot,
    StrategySpec, ValueRange,
};
use soc_workload::{uniform_values, OpenLoopSpec, WorkloadSpec};

use crate::report::{MetricSet, Outcome, Samples};
use crate::sys::{live_heap_bytes, ns_since, wait_until};
use crate::trace::{trace_path, Tracer};
use crate::RunArgs;

/// Size and traffic of a serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    pub rows: usize,
    /// Inclusive upper end of the value domain `[0, domain_hi]`.
    pub domain_hi: u32,
    /// Query width as a fraction of the domain.
    pub selectivity: f64,
    /// Mean Poisson arrival rate of reads, per second.
    pub rate: f64,
    /// Mean Poisson arrival rate of write batches, per second, issued by a
    /// client thread of their own (`serve-write`); 0 for none.
    pub write_rate: f64,
    /// Inserts and deletes per write batch.
    pub batch: (usize, usize),
    /// Write batches issued back to back after the read phase when the
    /// workload itself writes nothing, so write latency is defined on
    /// every workload.
    pub write_probe: usize,
    /// Queries run during set-up to converge the layout.
    pub converge: usize,
    /// Latency limits of `read_slo_frac` and `write_slo_frac`,
    /// microseconds.
    pub slo_us: (f64, f64),
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl ServeShape {
    fn domain(&self) -> ValueRange<u32> {
        ValueRange::must(0, self.domain_hi)
    }
}

fn spec() -> StrategySpec {
    StrategySpec::new(StrategyKind::ApmSegm)
        .with_apm_bounds(16 * 1024, 64 * 1024)
        .with_encoding(EncodingMode::Adaptive(EncodingPolicy::default()))
}

/// Builds the column and converges its layout under the workload's own
/// query distribution.
fn setup(
    shape: &ServeShape,
    values: &[u32],
    converge: &[ValueRange<u32>],
) -> Result<ConcurrentColumn<u32>, String> {
    let column = ConcurrentColumn::from_spec(&spec(), shape.domain(), values.to_vec())
        .map_err(|e| format!("build the served column: {e}"))?;
    for (i, q) in converge.iter().enumerate() {
        black_box(column.select_count(q, &mut NullTracker));
        // Drain hints before the writer queue fills, so no convergence
        // step is dropped and every run converges the same way.
        if i % 64 == 63 {
            column.quiesce();
        }
    }
    column.quiesce();
    Ok(column)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Answer {
    Count(u64),
    Sum(f64),
    MinMax(Option<(u32, u32)>),
    /// Length and FNV-1a hash of the collected values, in order.
    Collect(u64, u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Count,
    Sum,
    MinMax,
    Collect,
}

impl Kind {
    fn pick(rng: &mut SmallRng) -> Kind {
        // Sums are rare: on a piece a fold has reset to one run a sum
        // scans the whole piece, and the reads queued behind it would
        // otherwise make the tail a measure of the sum share.
        match rng.gen_range(0u32..200) {
            0 => Kind::Sum,
            1..=89 => Kind::Count,
            90..=144 => Kind::MinMax,
            _ => Kind::Collect,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Kind::Count => "epoch.count",
            Kind::Sum => "epoch.sum",
            Kind::MinMax => "epoch.minmax",
            Kind::Collect => "epoch.collect",
        }
    }
}

fn digest(values: &[u32]) -> Answer {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Answer::Collect(values.len() as u64, h)
}

fn answer_of(values: &[u32], kind: Kind) -> Answer {
    match kind {
        Kind::Count => Answer::Count(values.len() as u64),
        Kind::Sum => Answer::Sum(values.iter().map(|&v| f64::from(v)).sum()),
        Kind::MinMax => Answer::MinMax(values.first().copied().zip(values.last().copied())),
        Kind::Collect => digest(values),
    }
}

/// A read as answered, kept for verification after the run.
struct ReadRec {
    q: ValueRange<u32>,
    kind: Kind,
    /// Write batches acknowledged before the read was issued.
    acked: usize,
    /// Write batches whose `apply_deltas` had begun when the read returned:
    /// the most the answer may reflect.
    visible_max: usize,
    answer: Option<Answer>,
}

/// One acknowledged write batch, as the oracle replays it.
struct WriteRec {
    inserts: Vec<u32>,
    deletes: Vec<u32>,
}

/// The column's expected content after any prefix of the write batches:
/// the base values plus the net multiplicity changes of the batches
/// applied so far.
struct Oracle {
    base: Vec<u32>,
    adj: BTreeMap<u32, i64>,
    applied: usize,
}

impl Oracle {
    fn new(values: &[u32]) -> Self {
        let mut base = values.to_vec();
        base.sort_unstable();
        Oracle {
            base,
            adj: BTreeMap::new(),
            applied: 0,
        }
    }

    fn apply(&mut self, w: &WriteRec) {
        for &v in &w.inserts {
            *self.adj.entry(v).or_insert(0) += 1;
        }
        for &v in &w.deletes {
            *self.adj.entry(v).or_insert(0) -= 1;
        }
        self.applied += 1;
    }

    fn total(&self) -> u64 {
        (self.base.len() as i64 + self.adj.values().sum::<i64>()) as u64
    }

    /// The values in `q`, ascending, after the batches applied so far.
    fn collect(&self, q: &ValueRange<u32>) -> Vec<u32> {
        let a = self.base.partition_point(|&v| v < q.lo());
        let b = self.base.partition_point(|&v| v <= q.hi());
        let mut out = self.base[a..b].to_vec();
        for (&v, &d) in self.adj.range(q.lo()..=q.hi()) {
            adjust(&mut out, v, d);
        }
        out
    }
}

/// Adds (`d > 0`) or removes (`d < 0`) `|d|` occurrences of `v` in the
/// ascending `out`.
fn adjust(out: &mut Vec<u32>, v: u32, d: i64) {
    for _ in 0..d.unsigned_abs() {
        let at = out.partition_point(|&x| x < v);
        if d > 0 {
            out.insert(at, v);
        } else if out.get(at) == Some(&v) {
            out.remove(at);
        }
    }
}

/// Visibility lag beyond which an answer counts as wrong rather than old.
const MAX_LAG: usize = 1024;

/// Replays the run against the oracle: each read must equal the oracle
/// after some prefix of the write batches, no longer than the batches
/// begun when it returned. Returns the wrong reads and, for each right
/// one, how many batches acknowledged before it was issued it did not see.
fn verify(reads: &[ReadRec], writes: &[WriteRec], oracle: &mut Oracle) -> (u64, Samples) {
    let mut wrong = 0;
    let mut lags = Samples::with_capacity(reads.len());
    for r in reads {
        let Some(answer) = r.answer else { continue };
        while oracle.applied < r.visible_max {
            oracle.apply(&writes[oracle.applied]);
        }
        let mut expect = oracle.collect(&r.q);
        let mut seen = r.visible_max;
        loop {
            if answer_of(&expect, r.kind) == answer {
                lags.push(r.acked.saturating_sub(seen) as f64);
                break;
            }
            if seen == 0 || r.visible_max - seen == MAX_LAG {
                wrong += 1;
                break;
            }
            // One batch further back: undo the newest batch still applied.
            seen -= 1;
            let w = &writes[seen];
            for &v in w.inserts.iter().filter(|&&v| r.q.contains(v)) {
                adjust(&mut expect, v, -1);
            }
            for &v in w.deletes.iter().filter(|&&v| r.q.contains(v)) {
                adjust(&mut expect, v, 1);
            }
        }
    }
    (wrong, lags)
}

/// Every write batch of a run, in order, with its timings.
struct WriteLog {
    recs: Vec<WriteRec>,
    /// From scheduled arrival to acknowledgement, microseconds.
    lat: Samples,
    /// The `apply_deltas` call alone, microseconds.
    apply_us: Samples,
}

impl WriteLog {
    fn with_capacity(n: usize) -> Self {
        WriteLog {
            recs: Vec::with_capacity(n),
            lat: Samples::with_capacity(n),
            apply_us: Samples::with_capacity(n),
        }
    }
}

/// What the write client observed of the column.
struct Written {
    batches: usize,
    pending_max: u64,
    runs_max: usize,
}

/// Poisson arrival instants at `rate` per second over `seconds`, in
/// nanoseconds.
fn poisson_ns(rate: f64, seconds: f64, seed: u64) -> Vec<u64> {
    let mut out = Vec::new();
    if rate <= 0.0 {
        return out;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut clock = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        clock += -(1.0 - u).ln() / rate;
        if clock >= seconds {
            return out;
        }
        out.push((clock * 1e9) as u64);
    }
}

/// The write client: issues one batch at each due instant on its own
/// thread, so a blocked `apply_deltas` delays writes, not reads.
#[allow(clippy::too_many_arguments)]
fn write_client(
    column: &ConcurrentColumn<u32>,
    source: &mut WriteSource,
    due: &[u64],
    batch: (usize, usize),
    t0: Instant,
    (started, acked): (&AtomicUsize, &AtomicUsize),
    log: &mut WriteLog,
    tracer: &mut Tracer,
) -> Result<Written, String> {
    let mut out = Written {
        batches: 0,
        pending_max: 0,
        runs_max: 0,
    };
    for (k, &due_ns) in due.iter().enumerate() {
        let (b, rec) = source.batch(batch.0, batch.1)?;
        wait_until(t0, due_ns);
        let req = k as u64;
        let root = tracer.begin("write", req);
        let s = tracer.begin("epoch.apply_deltas", req);
        started.store(k + 1, Ordering::SeqCst);
        let t = Instant::now();
        column.apply_deltas(b);
        let apply_ns = ns_since(t);
        acked.store(k + 1, Ordering::SeqCst);
        tracer.end(s);
        tracer.end(root);
        log.lat
            .push(ns_since(t0).saturating_sub(due_ns) as f64 / 1e3);
        log.apply_us.push(apply_ns as f64 / 1e3);
        log.recs.push(rec);
        let snap = column.snapshot();
        out.pending_max = out.pending_max.max(snap.pending_delta_rows());
        out.runs_max = out.runs_max.max(snap.delta_runs());
        out.batches += 1;
    }
    Ok(out)
}

/// The seeded stream of write batches.
struct WriteSource {
    inserts: Vec<u32>,
    next_insert: usize,
    /// Base rows `(oid, value)` in a seeded order, each deleted at most
    /// once.
    deletable: Vec<(u64, u32)>,
    next_oid: u64,
}

impl WriteSource {
    fn new(shape: &ServeShape, values: &[u32], seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0de1_e7e5);
        let mut deletable: Vec<(u64, u32)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect();
        for i in (1..deletable.len()).rev() {
            let j = rng.gen_range(0..=i);
            deletable.swap(i, j);
        }
        WriteSource {
            inserts: uniform_values(1 << 16, &shape.domain(), seed ^ 0x001a_5e47),
            next_insert: 0,
            deletable,
            next_oid: values.len() as u64,
        }
    }

    fn batch(
        &mut self,
        inserts: usize,
        deletes: usize,
    ) -> Result<(DeltaBatch<u32>, WriteRec), String> {
        let mut batch = DeltaBatch::new();
        let mut rec = WriteRec {
            inserts: Vec::with_capacity(inserts),
            deletes: Vec::with_capacity(deletes),
        };
        for _ in 0..inserts {
            let value = self.inserts[self.next_insert % self.inserts.len()];
            self.next_insert += 1;
            batch.push(DeltaOp::Insert {
                oid: self.next_oid,
                value,
            });
            self.next_oid += 1;
            rec.inserts.push(value);
        }
        for _ in 0..deletes {
            let (oid, value) = self
                .deletable
                .pop()
                .ok_or_else(|| "writes ran out of base rows to delete".to_owned())?;
            batch.push(DeltaOp::Delete { oid, value });
            rec.deletes.push(value);
        }
        Ok((batch, rec))
    }
}

/// Answers `q` of `kind` from the live column.
fn read_live(
    column: &ConcurrentColumn<u32>,
    q: &ValueRange<u32>,
    kind: Kind,
    tracker: &mut CountingTracker,
) -> Answer {
    match kind {
        Kind::Count => Answer::Count(column.select_count(q, tracker)),
        Kind::Sum => Answer::Sum(column.select_sum(q, tracker)),
        Kind::MinMax => Answer::MinMax(column.select_min_max(q, tracker)),
        Kind::Collect => digest(&column.select_collect(q, tracker)),
    }
}

/// The same query against a frozen snapshot, untracked.
fn read_frozen(snap: &StrategySnapshot<u32>, q: &ValueRange<u32>, kind: Kind) {
    let t = &mut NullTracker;
    match kind {
        Kind::Count => {
            black_box(snap.select_count(q, t));
        }
        Kind::Sum => {
            black_box(snap.select_sum(q, t));
        }
        Kind::MinMax => {
            black_box(snap.select_min_max(q, t));
        }
        Kind::Collect => {
            black_box(snap.select_collect(q, t));
        }
    }
}

/// A deliberately wrong answer.
fn corrupt(a: Answer) -> Answer {
    match a {
        Answer::Count(n) => Answer::Count(n + 1),
        Answer::Sum(s) => Answer::Sum(s + 1.0),
        Answer::MinMax(_) => Answer::MinMax(Some((u32::MAX, 0))),
        Answer::Collect(n, h) => Answer::Collect(n, h ^ 1),
    }
}

/// Runs one serving workload.
pub fn run(shape: &ServeShape, args: &RunArgs) -> Result<Outcome, String> {
    let seed = args.seed;
    let domain = shape.domain();
    let values = uniform_values(shape.rows, &domain, seed);
    let converge =
        WorkloadSpec::zipf(shape.selectivity, shape.converge, seed ^ 0xc0_4e).generate(&domain);
    let arrivals = (shape.rate * args.seconds * 1.2) as usize + 64;
    let horizon_us = (args.seconds * 1e6) as u64;
    let schedule: Vec<_> = OpenLoopSpec::new(
        WorkloadSpec::zipf(shape.selectivity, arrivals, seed ^ 0x0a_11),
        shape.rate,
    )
    .schedule(&domain)
    .into_iter()
    .take_while(|a| a.at_micros < horizon_us)
    .collect();
    let write_due = poisson_ns(shape.write_rate, args.seconds, seed ^ 0x3417e);
    let mut kinds = SmallRng::seed_from_u64(seed ^ 0x4b1d);
    let mut source = WriteSource::new(shape, &values, seed);
    let mut oracle = Oracle::new(&values);
    let mut reads: Vec<ReadRec> = Vec::with_capacity(schedule.len());
    let mut writes = WriteLog::with_capacity(write_due.len() + shape.write_probe);
    let mut late = Samples::with_capacity(schedule.len());
    let mut admit_us = Samples::with_capacity(schedule.len());
    let mut heap = Samples::with_capacity(schedule.len());
    let mut traced = Samples::default();
    let mut untraced = Samples::default();
    let mut tracer = Tracer::new();
    let mut write_tracer = tracer.fork();
    let mut setup_s = Samples::default();

    // The harness's own buffers are reserved above, before the heap
    // baseline, so `mem_bytes_per_row` counts only the system under test.
    let heap0 = live_heap_bytes();
    let t = Instant::now();
    let column = setup(shape, &values, &converge)?;
    setup_s.push(t.elapsed().as_secs_f64());

    let gate = AdmissionGate::new(AdmissionConfig::with_in_flight(1));
    let mut tracker = CountingTracker::new();
    let mut bytes = QueryStats::default();
    let (mut within_slo, mut refused) = (0u64, 0u64);
    // Batches whose `apply_deltas` has begun, and has returned.
    let started = AtomicUsize::new(0);
    let acked = AtomicUsize::new(0);

    let t0 = Instant::now();
    let written = std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            write_tracer.active = args.trace;
            write_client(
                &column,
                &mut source,
                &write_due,
                shape.batch,
                t0,
                (&started, &acked),
                &mut writes,
                &mut write_tracer,
            )
        });
        for (i, a) in schedule.iter().enumerate() {
            let due_ns = a.at_micros * 1_000;
            if let Some(ns) = wait_until(t0, due_ns) {
                late.push(ns as f64 / 1e3);
            }
            tracer.active = args.trace && i % 2 == 0;
            let req = i as u64;
            let kind = Kind::pick(&mut kinds);
            let acked_before = acked.load(Ordering::SeqCst);
            tracker.begin_query();
            let root = tracer.begin("read", req);
            let s = tracer.begin("admission.admit", req);
            let t = Instant::now();
            let permit = gate.admit();
            let admit_ns = ns_since(t);
            tracer.end(s);
            let answer = match permit {
                Ok(permit) => {
                    let s = tracer.begin(kind.span(), req);
                    let answer = read_live(&column, &a.query, kind, &mut tracker);
                    tracer.end(s);
                    drop(permit);
                    Some(answer)
                }
                Err(_) => None,
            };
            tracer.end(root);
            let us = (ns_since(t0).saturating_sub(due_ns)) as f64 / 1e3;
            let started_after = started.load(Ordering::SeqCst);
            admit_us.push(admit_ns as f64 / 1e3);
            heap.push(live_heap_bytes().saturating_sub(heap0) as f64);
            if args.trace {
                if tracer.active {
                    &mut traced
                } else {
                    &mut untraced
                }
                .push(us);
            }
            bytes.absorb(&tracker.query_stats());
            match answer {
                Some(_) if us <= shape.slo_us.0 => within_slo += 1,
                Some(_) => {}
                None => refused += 1,
            }
            let answer = if args.corrupt && reads.len() == 3 {
                answer.map(corrupt)
            } else {
                answer
            };
            reads.push(ReadRec {
                q: a.query,
                kind,
                acked: acked_before,
                visible_max: started_after,
                answer,
            });
        }
        client
            .join()
            .map_err(|_| "the write client panicked".to_owned())?
    })?;
    tracer.active = false;
    tracer.absorb(write_tracer);
    let run_s = ns_since(t0) as f64 / 1e9;
    column.quiesce();

    // The same reads against one frozen snapshot, with no writer running:
    // the gap to the live timings is writer contention.
    let mut frozen: [Samples; 4] = Default::default();
    if args.trace {
        let snap = column.snapshot();
        for r in &reads {
            let t = Instant::now();
            read_frozen(&snap, &r.q, r.kind);
            frozen[r.kind as usize].push(ns_since(t) as f64 / 1e3);
        }
    }
    let snap = column.snapshot();
    let live_rows = values.len() as i64 + net_rows(&writes.recs);
    let mem_bytes_per_row = heap.mean() / live_rows.max(1) as f64;
    let strategy_bytes_per_row = snap.storage_bytes() as f64 / snap.total_rows().max(1) as f64;
    let pieces = snap.segment_count();
    let reorg = column.reorg_totals();
    drop(snap);

    // Write latency on a read-only workload: a probe after the read phase.
    if shape.write_rate == 0.0 {
        for _ in 0..shape.write_probe {
            let (batch, rec) = source.batch(shape.batch.0, shape.batch.1)?;
            // Acknowledged and visible: without reads to wait behind, the
            // send alone is a few dozen nanoseconds of channel work.
            let t = Instant::now();
            column.apply_deltas(batch);
            writes.apply_us.push(ns_since(t) as f64 / 1e3);
            column.quiesce();
            writes.lat.push(ns_since(t) as f64 / 1e3);
            writes.recs.push(rec);
        }
    }

    let (mut wrong, lags) = verify(&reads, &writes.recs, &mut oracle);
    while oracle.applied < writes.recs.len() {
        oracle.apply(&writes.recs[oracle.applied]);
    }
    column.quiesce();
    let t = Instant::now();
    column.drain_deltas();
    let drain_ms = ns_since(t) as f64 / 1e6;
    // Every acknowledged write landed exactly.
    let whole = column.select_count(&domain, &mut NullTracker);
    if whole != oracle.total() {
        eprintln!(
            "after draining, the column holds {whole} rows; the oracle {}",
            oracle.total()
        );
        wrong += 1;
    }
    let hints_dropped = column.reorg_hints_dropped();
    let admission = gate.stats();
    if args.trace {
        let path = trace_path(&args.workload, seed);
        tracer
            .write_tsv(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    drop(column);
    for _ in 1..shape.setups {
        let t = Instant::now();
        let c = setup(shape, &values, &converge)?;
        setup_s.push(t.elapsed().as_secs_f64());
        drop(c);
    }

    let n_reads = reads.len();
    let attempted = (n_reads + writes.recs.len() + 1) as u64;
    let failed = wrong + refused;
    if wrong > 0 {
        eprintln!("{wrong} answers disagree with the oracle");
    }
    let mut m = MetricSet::default();
    if args.trace {
        m.add("strategy.pieces", "count", pieces as f64, 1);
        m.add(
            "strategy.reorg_write_bytes",
            "B",
            reorg.write_bytes as f64,
            1,
        );
        m.add(
            "strategy.reorg_bytes_per_query",
            "B",
            reorg.write_bytes as f64 / (converge.len() + n_reads).max(1) as f64,
            converge.len() + n_reads,
        );
        for kind in [Kind::Count, Kind::Sum, Kind::MinMax, Kind::Collect] {
            let name = match kind {
                Kind::Count => "epoch.count_us",
                Kind::Sum => "epoch.sum_us",
                Kind::MinMax => "epoch.minmax_us",
                Kind::Collect => "epoch.collect_us",
            };
            let s = Samples::from(tracer.durations_us(kind.span()));
            m.median(name, "us", &s);
        }
        m.median("snapshot.count_us", "us", &frozen[Kind::Count as usize]);
        m.median("snapshot.sum_us", "us", &frozen[Kind::Sum as usize]);
        m.median("snapshot.collect_us", "us", &frozen[Kind::Collect as usize]);
        m.median("epoch.apply_deltas_us", "us", &writes.apply_us);
        m.add(
            "epoch.pending_rows_max",
            "count",
            written.pending_max as f64,
            written.batches,
        );
        m.add(
            "epoch.delta_runs_max",
            "count",
            written.runs_max as f64,
            written.batches,
        );
        m.add("epoch.hints_dropped", "count", hints_dropped as f64, 1);
        m.add("epoch.drain_ms", "ms", drain_ms, 1);
        m.add(
            "epoch.visibility_lag_batches",
            "count",
            lags.mean(),
            lags.len(),
        );
        m.add(
            "delta.read_bytes_frac",
            "frac",
            bytes.delta_read_bytes as f64 / bytes.read_bytes.max(1) as f64,
            n_reads,
        );
        let looked = bytes.segments_pruned + bytes.segments_scanned;
        m.add(
            "synopsis.pruned_frac",
            "frac",
            bytes.segments_pruned as f64 / looked.max(1) as f64,
            n_reads,
        );
        m.add(
            "synopsis.unpruned_bytes_ratio",
            "ratio",
            bytes.unpruned_read_bytes() as f64 / bytes.read_bytes.max(1) as f64,
            n_reads,
        );
        m.add(
            "compress.strategy_bytes_per_row",
            "B",
            strategy_bytes_per_row,
            1,
        );
        m.median("admission.admit_us", "us", &admit_us);
        m.add(
            "admission.shed_frac",
            "frac",
            admission.shed_rate(),
            n_reads,
        );
        m.add("bench.spans", "count", tracer.len() as f64, 1);
        m.add(
            "read_qps",
            "1/s",
            (n_reads as u64 - refused) as f64 / run_s,
            n_reads,
        );
        m.median("latency.read_p50_us", "us", &untraced);
        m.median("latency.write_p50_us", "us", &writes.lat);
        m.tail("latency.read_p95_us", "us", &untraced, 0.95);
        m.tail("latency.read_p99_us", "us", &untraced, 0.99);
        m.tail("latency.write_p95_us", "us", &writes.lat, 0.95);
        m.tail("latency.write_p99_us", "us", &writes.lat, 0.99);
        m.tail("bench.late_p99_us", "us", &late, 0.99);
        m.add(
            "bench.trace_overhead_frac",
            "frac",
            traced.median() / untraced.median().max(1e-9) - 1.0,
            traced.len() + untraced.len(),
        );
    } else {
        m.median("setup_s", "s", &setup_s);
        m.add(
            "read_slo_frac",
            "frac",
            within_slo as f64 / n_reads.max(1) as f64,
            n_reads,
        );
        m.add(
            "write_slo_frac",
            "frac",
            writes.lat.share_within(shape.slo_us.1),
            writes.lat.len(),
        );
        m.add(
            "read_bytes_per_query",
            "B",
            bytes.read_bytes as f64 / n_reads.max(1) as f64,
            n_reads,
        );
        m.add("mem_bytes_per_row", "B", mem_bytes_per_row, heap.len());
        m.add(
            "ok_frac",
            "frac",
            1.0 - failed as f64 / attempted as f64,
            attempted as usize,
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: m.metrics,
    })
}

/// Net rows the write batches add (inserts minus deletes).
fn net_rows(writes: &[WriteRec]) -> i64 {
    writes
        .iter()
        .map(|w| w.inserts.len() as i64 - w.deletes.len() as i64)
        .sum()
}
