//! One trial: build and prefill a set under one reclaimer, warm it up, run
//! the closed-loop clients for the timed window, then check the outputs.
//!
//! The output oracle: every worker counts the inserts and removes that
//! returned `true`; afterwards `prefill + Σins − Σrem` must equal `size()`
//! and the number of keys a single-threaded `contains` sweep finds. Once
//! every thread has unregistered and the set is dropped, the live heap must
//! be back at its level before the build (reclaiming schemes only). A
//! mismatch counts its absolute size as failed ops; a worker panic or a leak
//! fails every op of the trial.

use crate::traced::{LayerCounts, Probe, Span, SpanKind, ThreadTrace};
use crate::workload::{smr_config, Workload};
use conc_ds::ConcurrentSet;
use smr_common::{CachePadded, Smr, ThreadStats};
use smr_harness::{alloc_track, Buildable, Op, OpGenerator, WorkloadSpec};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Ops between two reads of the stop flag.
const STOP_CHECK: u64 = 16;

/// Generator stream of the prefill (the workers use their thread slot).
const PREFILL_STREAM: usize = 1000;

/// Threads that prefill the set, each inserting the keys of one residue
/// class, so the prefilled set depends on the seed only.
const PREFILL_THREADS: usize = 2;

/// The quantile of the sampled garbage that `garbage_p50` reports. The
/// upper tail is set by preemptions of a worker in mid-op (the epoch or
/// hazard it holds then pins every peer's retires for a time slice); on a
/// small shared box they come and go with the host's load, moving even the
/// 95th percentile of DEBRA's garbage fifty-fold between runs. The median
/// repeats.
pub const GARBAGE_QUANTILE: f64 = 0.5;

/// Values below this are counted in unit buckets; larger ones are kept
/// individually. Either way the quantiles are exact.
const FINE: usize = 1 << 16;

/// Non-negative integer samples (op latencies in ns, garbage in records)
/// with exact quantiles.
pub struct Samples {
    fine: Vec<u32>,
    over: Vec<u64>,
    n: u64,
}

impl Default for Samples {
    fn default() -> Self {
        Self {
            fine: vec![0; FINE],
            over: Vec::new(),
            n: 0,
        }
    }
}

impl Samples {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        match self.fine.get_mut(v as usize) {
            Some(b) => *b += 1,
            None => self.over.push(v),
        }
        self.n += 1;
    }

    /// Adds another set's samples.
    pub fn merge(&mut self, other: &Samples) {
        for (a, b) in self.fine.iter_mut().zip(&other.fine) {
            *a += b;
        }
        self.over.extend_from_slice(&other.over);
        self.n += other.n;
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The nearest-rank `q`-quantile (0 when empty).
    pub fn quantile(&mut self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (v, &c) in self.fine.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return v as u64;
            }
        }
        self.over.sort_unstable();
        self.over[(rank - seen - 1) as usize]
    }
}

/// The reclaimer counters the benchmark reads, as a window delta.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Records retired.
    pub retires: u64,
    /// Records freed.
    pub frees: u64,
    /// Neutralization signals sent.
    pub signals_sent: u64,
    /// Neutralizations taken (read phases restarted by a signal).
    pub neutralizations: u64,
    /// Handshake rounds conceded to a silent peer.
    pub ping_concessions: u64,
    /// Peer bags adopted by a combining scanner.
    pub combine_adoptions: u64,
    /// Lookups answered by the memo.
    pub memo_hits: u64,
    /// Lookups that consulted the memo and traversed anyway.
    pub memo_misses: u64,
    /// Allocations served by the node pool.
    pub pool_hits: u64,
    /// Allocations that fell through to the global allocator.
    pub pool_misses: u64,
}

impl Counters {
    fn of(s: &ThreadStats) -> Self {
        Self {
            retires: s.retires,
            frees: s.frees,
            signals_sent: s.signals_sent,
            neutralizations: s.neutralizations,
            ping_concessions: s.ping_concessions,
            combine_adoptions: s.combine_adoptions,
            memo_hits: s.memo_hits,
            memo_misses: s.memo_misses,
            pool_hits: s.pool_hits,
            pool_misses: s.pool_misses,
        }
    }

    fn zip(self, o: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        Self {
            retires: f(self.retires, o.retires),
            frees: f(self.frees, o.frees),
            signals_sent: f(self.signals_sent, o.signals_sent),
            neutralizations: f(self.neutralizations, o.neutralizations),
            ping_concessions: f(self.ping_concessions, o.ping_concessions),
            combine_adoptions: f(self.combine_adoptions, o.combine_adoptions),
            memo_hits: f(self.memo_hits, o.memo_hits),
            memo_misses: f(self.memo_misses, o.memo_misses),
            pool_hits: f(self.pool_hits, o.pool_hits),
            pool_misses: f(self.pool_misses, o.pool_misses),
        }
    }
}

/// Layer numbers of one traced trial, summed over the workers.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrialLayers {
    /// Span counts and times.
    pub counts: LayerCounts,
    /// Median duration of a scan-bearing call, ns.
    pub scan_p50_ns: u64,
    /// 99th-percentile duration of a scan-bearing call, ns.
    pub scan_p99_ns: u64,
}

/// The output-oracle readings of one trial.
#[derive(Debug, Default, Clone, Copy)]
pub struct Oracle {
    /// `prefill + Σins − Σrem`.
    pub expected: i64,
    /// `size()` after the run.
    pub size: i64,
    /// Keys a `contains` sweep over the key range found.
    pub swept: i64,
    /// Live heap bytes left behind once the set is dropped (0 when not
    /// checked: the leaky reclaimer keeps everything until its drop).
    pub leaked_bytes: i64,
    /// A worker panicked.
    pub panicked: bool,
}

/// Everything one trial reports. Holds no heap memory, so it can outlive the
/// leak check.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrialOut {
    /// Build + prefill + warm-up.
    pub setup: Duration,
    /// Timed window, start barrier to stop flag.
    pub window: Duration,
    /// Ops completed in the timed window.
    pub timed_ops: u64,
    /// All ops the workers ran (warm-up included): what the oracle checks.
    pub attempted: u64,
    /// Failed ops (see the module docs).
    pub failed: u64,
    /// Oracle readings.
    pub oracle: Oracle,
    /// Median op latency, ns.
    pub p50_ns: u64,
    /// 99th-percentile op latency, ns.
    pub p99_ns: u64,
    /// Latency samples.
    pub samples: u64,
    /// The [`GARBAGE_QUANTILE`] of Σ(retires − frees) over the workers,
    /// sampled by each worker every [`STOP_CHECK`] ops of the timed window.
    pub garbage_p50: u64,
    /// The largest of those samples.
    pub max_garbage: u64,
    /// Number of those samples.
    pub garbage_samples: u64,
    /// Counter deltas over the timed window, summed over the workers.
    pub counters: Counters,
    /// Layer numbers (traced trials only).
    pub layers: Option<TrialLayers>,
}

impl TrialOut {
    /// Million completed ops per second in the timed window.
    pub fn mops(&self) -> f64 {
        self.timed_ops as f64 / self.window.as_secs_f64() / 1e6
    }
}

/// Where traced trials write their spans, as Chrome trace-event JSON.
pub struct ChromeTrace {
    out: std::io::BufWriter<std::fs::File>,
    first: bool,
}

impl ChromeTrace {
    /// Opens the trace file and writes the array's opening bracket.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[\n")?;
        Ok(Self { out, first: true })
    }

    fn sep(&mut self) -> std::io::Result<()> {
        if !self.first {
            self.out.write_all(b",\n")?;
        }
        self.first = false;
        Ok(())
    }

    /// Writes one thread's spans under process `pid` labelled `label`.
    /// Formats straight into the writer: no heap allocation, so it can run
    /// inside a trial's leak-checked region.
    fn write_thread(&mut self, pid: usize, label: &str, tr: &ThreadTrace) -> std::io::Result<()> {
        self.sep()?;
        write!(
            self.out,
            r#"{{"name":"process_name","ph":"M","pid":{pid},"args":{{"name":"{label}"}}}}"#
        )?;
        for s in &tr.spans {
            self.sep()?;
            write_span(&mut self.out, pid, tr.tid, s)?;
        }
        Ok(())
    }

    /// Closes the array and flushes the file.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.out.write_all(b"\n]\n")?;
        self.out.flush()
    }
}

fn write_span(out: &mut impl Write, pid: usize, tid: usize, s: &Span) -> std::io::Result<()> {
    let ts = s.start_ns as f64 / 1e3;
    let dur = (s.end_ns - s.start_ns) as f64 / 1e3;
    let op = s.op;
    let scan = s.scan;
    let name = s.kind.name();
    write!(
        out,
        r#"{{"name":"{name}","ph":"X","pid":{pid},"tid":{tid},"ts":{ts:.3},"dur":{dur:.3},"args":{{"op":{op},"scan":{scan}}}}}"#
    )
}

struct SharedState {
    ready: Barrier,
    start: Barrier,
    stop: AtomicBool,
    /// Workers that have snapshotted their counters after the stop flag.
    /// No worker unregisters, and the stalled reader does not unpin, before
    /// this reaches the worker count: otherwise a last scan against an
    /// emptied registry frees the pinned backlog inside the counted window.
    finished: AtomicUsize,
    workers: usize,
    /// Per-worker `retires − frees`, published every [`STOP_CHECK`] ops.
    garbage: Vec<CachePadded<AtomicI64>>,
}

impl SharedState {
    fn garbage(&self) -> u64 {
        let g: i64 = self.garbage.iter().map(|g| g.load(Ordering::Relaxed)).sum();
        g.max(0) as u64
    }
}

struct WorkerOut {
    ops: u64,
    timed_ops: u64,
    inserted: u64,
    removed: u64,
    lat: Samples,
    garbage: Samples,
    counters: Counters,
    trace: Option<ThreadTrace>,
    panicked: bool,
}

#[derive(Default)]
struct Tally {
    ops: u64,
    inserted: u64,
    removed: u64,
}

#[inline(always)]
fn apply<S: Smr, D: ConcurrentSet<S>>(
    ds: &D,
    ctx: &mut S::ThreadCtx,
    op: Op,
    t: &mut Tally,
) -> SpanKind {
    t.ops += 1;
    match op {
        Op::Insert(k) => {
            t.inserted += u64::from(ds.insert(ctx, k));
            SpanKind::Insert
        }
        Op::Remove(k) => {
            t.removed += u64::from(ds.remove(ctx, k));
            SpanKind::Remove
        }
        Op::Contains(k) => {
            std::hint::black_box(ds.contains(ctx, k));
            SpanKind::Contains
        }
    }
}

#[inline(always)]
fn publish_garbage<S: Smr>(smr: &S, ctx: &mut S::ThreadCtx, slot: &AtomicI64) {
    let s = smr.thread_stats_mut(ctx);
    slot.store(s.retires as i64 - s.frees as i64, Ordering::Relaxed);
}

fn worker<S: Probe, D: ConcurrentSet<S>>(
    ds: &D,
    shared: &SharedState,
    spec: &WorkloadSpec,
    tid: usize,
) -> WorkerOut {
    let smr = ds.smr();
    let mut ctx = smr.register(tid);
    let mut gen = OpGenerator::new(spec, tid);
    let mut lat = Samples::default();
    let mut garbage = Samples::default();
    let mut t = Tally::default();
    let slot = &*shared.garbage[tid];

    let mut healthy = catch_unwind(AssertUnwindSafe(|| {
        for _ in 0..crate::workload::WARMUP_OPS {
            let op = gen.next_op();
            apply(ds, &mut ctx, op, &mut t);
        }
        publish_garbage(smr, &mut ctx, slot);
    }))
    .is_ok();
    shared.ready.wait();
    shared.start.wait();

    let warm_ops = t.ops;
    let _warmup_trace = smr.take_trace(&mut ctx);
    let before = Counters::of(&smr.thread_stats(&ctx));
    healthy = healthy
        && catch_unwind(AssertUnwindSafe(|| loop {
            for _ in 0..STOP_CHECK {
                let op = gen.next_op();
                smr.op_begin(&mut ctx);
                let t0 = Instant::now();
                let kind = apply(ds, &mut ctx, op, &mut t);
                let t1 = Instant::now();
                smr.op_end(&mut ctx, kind, t0, t1);
                lat.record(t1.duration_since(t0).as_nanos() as u64);
            }
            publish_garbage(smr, &mut ctx, slot);
            garbage.record(shared.garbage());
            if shared.stop.load(Ordering::Relaxed) {
                break;
            }
        }))
        .is_ok();
    while !shared.stop.load(Ordering::Relaxed) {
        std::thread::yield_now();
    }
    let after = Counters::of(&smr.thread_stats(&ctx));
    let trace = smr.take_trace(&mut ctx);

    shared.finished.fetch_add(1, Ordering::AcqRel);
    while shared.finished.load(Ordering::Acquire) < shared.workers {
        // Keep acknowledging neutralization pings while peers drain.
        let _ = smr.checkpoint(&mut ctx);
        std::thread::yield_now();
    }
    if healthy {
        smr.unregister(&mut ctx);
    }
    WorkerOut {
        ops: t.ops,
        timed_ops: t.ops - warm_ops,
        inserted: t.inserted,
        removed: t.removed,
        lat,
        counters: after.zip(before, u64::wrapping_sub),
        garbage,
        trace,
        panicked: !healthy,
    }
}

/// The stalled reader of `list-stall`. It pins (`begin_op` +
/// `begin_read_phase`) *before* the start barrier, so its reservation covers
/// every record retired in the timed window; it keeps acknowledging
/// `checkpoint` (as a real signal would interrupt a sleeping thread), and it
/// releases only after every worker has snapshotted its counters.
fn stalled_reader<S: Smr>(smr: &S, shared: &SharedState, tid: usize) {
    let mut ctx = smr.register(tid);
    shared.ready.wait();
    smr.begin_op(&mut ctx);
    smr.begin_read_phase(&mut ctx);
    shared.start.wait();
    while !shared.stop.load(Ordering::Acquire)
        || shared.finished.load(Ordering::Acquire) < shared.workers
    {
        let _ = smr.checkpoint(&mut ctx);
        std::thread::yield_now();
    }
    smr.end_read_phase(&mut ctx, &[]);
    smr.end_op(&mut ctx);
    smr.unregister(&mut ctx);
}

/// Inserts `spec.prefill` distinct keys. Prefill thread `f` draws from its
/// own generator stream and keeps only keys `≡ f (mod PREFILL_THREADS)`, so
/// the threads never race for a key and a seed always gives the same set.
fn prefill<S: Smr, D: ConcurrentSet<S>>(ds: &D, spec: &WorkloadSpec, first_tid: usize) {
    let smr = ds.smr();
    let n = PREFILL_THREADS as u64;
    std::thread::scope(|scope| {
        for f in 0..PREFILL_THREADS {
            let target = spec.prefill / n + u64::from((f as u64) < spec.prefill % n);
            scope.spawn(move || {
                let mut ctx = smr.register(first_tid - f);
                let mut gen = OpGenerator::new(spec, PREFILL_STREAM + f);
                let mut inserted = 0;
                while inserted < target {
                    let key = gen.next_key();
                    if key % n == f as u64 {
                        inserted += u64::from(ds.insert(&mut ctx, key));
                    }
                }
                smr.flush(&mut ctx);
                smr.unregister(&mut ctx);
            });
        }
    });
}

/// `(size(), keys found by a contains sweep over 1..=key_range)`.
fn sweep<S: Smr, D: ConcurrentSet<S>>(ds: &D, key_range: u64, tid: usize) -> (i64, i64) {
    let smr = ds.smr();
    let mut ctx = smr.register(tid);
    let size = ds.size(&mut ctx) as i64;
    let swept = (1..=key_range)
        .filter(|&k| ds.contains(&mut ctx, k))
        .count() as i64;
    smr.unregister(&mut ctx);
    (size, swept)
}

/// Runs one trial of `wl` with set `D` under reclaimer `S`.
///
/// `chrome` receives the workers' spans (traced reclaimers only) under the
/// given process id.
pub fn trial<S, D>(
    wl: &Workload,
    seed: u64,
    window: Duration,
    chrome: Option<(&mut ChromeTrace, usize)>,
) -> TrialOut
where
    S: Probe,
    D: Buildable<S> + Send + Sync,
{
    let config = smr_config();
    let spare_tid = config.max_threads - 1;
    let spec = wl.spec(seed, window);
    let heap_before = alloc_track::current_bytes() as i64;

    let setup_start = Instant::now();
    let ds = Arc::new(D::build(config));
    prefill(&*ds, &spec, spare_tid);
    let shared = Arc::new(SharedState {
        ready: Barrier::new(wl.workers + usize::from(wl.stalled_reader) + 1),
        start: Barrier::new(wl.workers + usize::from(wl.stalled_reader) + 1),
        stop: AtomicBool::new(false),
        finished: AtomicUsize::new(0),
        workers: wl.workers,
        garbage: (0..wl.workers)
            .map(|_| CachePadded::new(AtomicI64::new(0)))
            .collect(),
    });
    let workers: Vec<_> = (0..wl.workers)
        .map(|tid| {
            let (ds, shared, spec) = (Arc::clone(&ds), Arc::clone(&shared), spec.clone());
            std::thread::spawn(move || worker::<S, D>(&*ds, &shared, &spec, tid))
        })
        .collect();
    let stalled = wl.stalled_reader.then(|| {
        let (ds, shared) = (Arc::clone(&ds), Arc::clone(&shared));
        let tid = wl.workers;
        std::thread::spawn(move || stalled_reader(ds.smr(), &shared, tid))
    });
    shared.ready.wait();
    let setup = setup_start.elapsed();

    shared.start.wait();
    let started = Instant::now();
    std::thread::sleep(window);
    shared.stop.store(true, Ordering::Release);
    let window = started.elapsed();

    let outs: Vec<WorkerOut> = workers
        .into_iter()
        .map(|h| {
            h.join()
                .expect("worker panics are caught inside the worker")
        })
        .collect();
    let mut panicked = outs.iter().any(|o| o.panicked);
    if let Some(h) = stalled {
        panicked |= h.join().is_err();
    }
    let mut out = TrialOut {
        setup,
        window,
        ..TrialOut::default()
    };
    let mut lat = Samples::default();
    let mut garbage = Samples::default();
    let mut traces = Vec::new();
    for o in outs {
        out.attempted += o.ops;
        out.timed_ops += o.timed_ops;
        out.oracle.expected += o.inserted as i64 - o.removed as i64;
        out.counters = out.counters.zip(o.counters, u64::wrapping_add);
        lat.merge(&o.lat);
        garbage.merge(&o.garbage);
        traces.extend(o.trace);
    }
    out.oracle.expected += wl.prefill as i64;
    out.samples = lat.len();
    out.p50_ns = lat.quantile(0.50);
    out.p99_ns = lat.quantile(0.99);
    drop(lat);
    out.garbage_p50 = garbage.quantile(GARBAGE_QUANTILE);
    out.max_garbage = garbage.quantile(1.0);
    out.garbage_samples = garbage.len();
    drop(garbage);
    if !traces.is_empty() {
        out.layers = Some(layers(&traces));
        if let Some((chrome, pid)) = chrome {
            for tr in &traces {
                // A trace-file error loses spans, not results: report it
                // and carry on.
                if let Err(e) = chrome.write_thread(pid, S::NAME, tr) {
                    eprintln!("chrome trace write failed: {e}");
                }
            }
        }
    }
    drop(traces);

    out.oracle.panicked = panicked;
    if !panicked {
        (out.oracle.size, out.oracle.swept) = sweep(&*ds, wl.key_range, spare_tid);
    }
    drop(shared);
    drop(ds);
    if S::NAME != smr_baselines::Leaky::NAME {
        out.oracle.leaked_bytes = alloc_track::current_bytes() as i64 - heap_before;
    }
    out.failed = if panicked || out.oracle.leaked_bytes != 0 {
        out.attempted
    } else {
        let o = &out.oracle;
        o.expected.abs_diff(o.size) + o.expected.abs_diff(o.swept)
    };
    out
}

fn layers(traces: &[ThreadTrace]) -> TrialLayers {
    let mut c = LayerCounts::default();
    let mut scans = Samples::default();
    for tr in traces {
        let t = &tr.counts;
        c.ops += t.ops;
        c.op_ns += t.op_ns;
        c.child_ns += t.child_ns;
        c.read_phases += t.read_phases;
        c.protects += t.protects;
        c.allocs += t.allocs;
        c.alloc_ns += t.alloc_ns;
        c.plain_retires += t.plain_retires;
        c.plain_retire_ns += t.plain_retire_ns;
        c.scans += t.scans;
        c.scan_ns += t.scan_ns;
        c.scan_skips += t.scan_skips;
        for &d in &tr.scan_durations {
            scans.record(d);
        }
    }
    TrialLayers {
        counts: c,
        scan_p50_ns: scans.quantile(0.50),
        scan_p99_ns: scans.quantile(0.99),
    }
}
