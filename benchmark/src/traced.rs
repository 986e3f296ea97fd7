//! `Traced<S>`: an [`Smr`] wrapper that times the reclaimer's calls from
//! outside the reclaimer, for the per-layer decomposition of a traced run.
//!
//! Every method and constant delegates to `S` (so the data structures take
//! the same code paths under `Traced<S>` as under `S`: the Harris list still
//! reads `CAN_TRAVERSE_UNLINKED`, IBR/HE still stamp birth eras in their own
//! `alloc`). On top of the delegation:
//!
//! * `begin_op`, `end_op`, `end_read_phase`, `alloc` and `retire` record a
//!   span (kind, start, end, parent op, tid). `begin_op` is included because
//!   DEBRA frees its epoch bags there.
//! * `protect` and `begin_read_phase` are only counted: they run once per
//!   hop (or per restart), and a clock read would swamp them. `checkpoint`
//!   runs alongside every `protect` and is not counted separately.
//! * Around each span the thread's counters are read (through
//!   `thread_stats_mut`, which does not copy the telemetry histograms) to
//!   classify the call: it is *scan-bearing* when `reclaim_scans` or `frees`
//!   advanced during it, and a scan-bearing call that freed nothing is a
//!   *skip*.
//!
//! The benchmark's op loop opens the parent `insert`/`remove`/`contains`
//! spans through [`Probe`]. Spans and counts stay in the thread's context;
//! the benchmark collects them with [`Probe::take_trace`] once the timed
//! window closes.

use nbr::NbrPlus;
use smr_baselines::{Debra, HazardPointers};
use smr_common::{Atomic, Magazine, Shared, Smr, SmrConfig, SmrNode, ThreadStats};
use std::time::Instant;

/// Spans kept per thread and trial for the Chrome trace. Layer counts keep
/// accumulating past the cap; only the stored span list stops growing.
pub const SPAN_CAP: usize = 4096;

/// What a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A set `insert`, opened by the benchmark's op loop.
    Insert,
    /// A set `remove`, opened by the benchmark's op loop.
    Remove,
    /// A set `contains`, opened by the benchmark's op loop.
    Contains,
    /// `Smr::begin_op`.
    BeginOp,
    /// `Smr::end_op`.
    EndOp,
    /// `Smr::end_read_phase`.
    EndReadPhase,
    /// `Smr::alloc`.
    Alloc,
    /// `Smr::retire`.
    Retire,
}

impl SpanKind {
    /// Span name in the Chrome trace.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Insert => "insert",
            SpanKind::Remove => "remove",
            SpanKind::Contains => "contains",
            SpanKind::BeginOp => "begin_op",
            SpanKind::EndOp => "end_op",
            SpanKind::EndReadPhase => "end_read_phase",
            SpanKind::Alloc => "alloc",
            SpanKind::Retire => "retire",
        }
    }
}

/// One recorded span. Times are nanoseconds since the reclaimer was built.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span times.
    pub kind: SpanKind,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Sequence number of the parent op span (an op span carries its own).
    pub op: u64,
    /// Whether the call ran a reclamation scan or freed records.
    pub scan: bool,
}

/// Per-thread layer counts, accumulated as spans close.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCounts {
    /// Op spans closed.
    pub ops: u64,
    /// Total op span time, ns.
    pub op_ns: u64,
    /// Total reclaimer child span time inside op spans, ns.
    pub child_ns: u64,
    /// `begin_read_phase` calls (one per read phase; more than one per op
    /// means restarts).
    pub read_phases: u64,
    /// `protect` calls (one per hop).
    pub protects: u64,
    /// `alloc` calls and their total time, ns.
    pub allocs: u64,
    /// Total `alloc` time, ns.
    pub alloc_ns: u64,
    /// `retire` calls that ran no scan, and their total time, ns.
    pub plain_retires: u64,
    /// Total time of `retire` calls that ran no scan, ns.
    pub plain_retire_ns: u64,
    /// Scan-bearing calls (any span kind).
    pub scans: u64,
    /// Total time of scan-bearing calls, ns.
    pub scan_ns: u64,
    /// Scan-bearing calls that freed nothing.
    pub scan_skips: u64,
}

/// One thread's trace: layer counts, scan-call durations and the first
/// [`SPAN_CAP`] spans.
#[derive(Debug, Default)]
pub struct ThreadTrace {
    /// Thread slot the trace belongs to.
    pub tid: usize,
    /// Layer counts.
    pub counts: LayerCounts,
    /// Duration of every scan-bearing call, ns.
    pub scan_durations: Vec<u64>,
    /// The first [`SPAN_CAP`] spans.
    pub spans: Vec<Span>,
    op_seq: u64,
}

impl ThreadTrace {
    fn new(tid: usize) -> Self {
        Self {
            tid,
            ..Self::default()
        }
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        }
    }

    fn close_child(&mut self, kind: SpanKind, start_ns: u64, end_ns: u64, scan: bool, freed: bool) {
        let d = end_ns - start_ns;
        let c = &mut self.counts;
        c.child_ns += d;
        match kind {
            SpanKind::Alloc => {
                c.allocs += 1;
                c.alloc_ns += d;
            }
            SpanKind::Retire if !scan => {
                c.plain_retires += 1;
                c.plain_retire_ns += d;
            }
            _ => {}
        }
        if scan {
            c.scans += 1;
            c.scan_ns += d;
            c.scan_skips += u64::from(!freed);
            self.scan_durations.push(d);
        }
        let op = self.op_seq;
        self.push(Span {
            kind,
            start_ns,
            end_ns,
            op,
            scan,
        });
    }
}

/// The op-loop side of tracing. Untraced reclaimers use the empty defaults,
/// so the benchmark's op loop is the same code in both runs.
pub trait Probe: Smr {
    /// Called before each op.
    #[inline]
    fn op_begin(&self, _ctx: &mut Self::ThreadCtx) {}

    /// Called after each op with the loop's own clock reads.
    #[inline]
    fn op_end(&self, _ctx: &mut Self::ThreadCtx, _kind: SpanKind, _t0: Instant, _t1: Instant) {}

    /// Takes the thread's trace so far and starts a fresh one (`None` when
    /// the reclaimer is not traced).
    fn take_trace(&self, _ctx: &mut Self::ThreadCtx) -> Option<ThreadTrace> {
        None
    }
}

impl Probe for NbrPlus {}
impl Probe for Debra {}
impl Probe for HazardPointers {}

/// The traced wrapper around reclaimer `S`.
pub struct Traced<S: Smr> {
    inner: S,
    base: Instant,
}

/// Thread context of [`Traced`]: the wrapped context plus the trace.
pub struct TracedCtx<S: Smr> {
    inner: S::ThreadCtx,
    trace: ThreadTrace,
}

impl<S: Smr> Traced<S> {
    #[inline]
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.base).as_nanos() as u64
    }

    /// Runs one reclaimer call as a child span of the current op.
    #[inline]
    fn span<R>(
        &self,
        ctx: &mut TracedCtx<S>,
        kind: SpanKind,
        call: impl FnOnce(&S, &mut S::ThreadCtx) -> R,
    ) -> R {
        let before = scan_counters(self.inner.thread_stats_mut(&mut ctx.inner));
        let t0 = Instant::now();
        let r = call(&self.inner, &mut ctx.inner);
        let t1 = Instant::now();
        let after = scan_counters(self.inner.thread_stats_mut(&mut ctx.inner));
        let scan = after != before;
        let freed = after.1 != before.1;
        let (s, e) = (self.ns(t0), self.ns(t1));
        ctx.trace.close_child(kind, s, e, scan, freed);
        r
    }
}

/// `(reclaim_scans, frees)`: a call that moves either ran a scan.
#[inline]
fn scan_counters(s: &ThreadStats) -> (u64, u64) {
    (s.reclaim_scans, s.frees)
}

impl<S: Smr> Probe for Traced<S> {
    #[inline]
    fn op_begin(&self, ctx: &mut TracedCtx<S>) {
        ctx.trace.op_seq += 1;
    }

    #[inline]
    fn op_end(&self, ctx: &mut TracedCtx<S>, kind: SpanKind, t0: Instant, t1: Instant) {
        let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
        let tr = &mut ctx.trace;
        tr.counts.ops += 1;
        tr.counts.op_ns += end_ns - start_ns;
        let op = tr.op_seq;
        tr.push(Span {
            kind,
            start_ns,
            end_ns,
            op,
            scan: false,
        });
    }

    fn take_trace(&self, ctx: &mut TracedCtx<S>) -> Option<ThreadTrace> {
        let tid = ctx.trace.tid;
        Some(std::mem::replace(&mut ctx.trace, ThreadTrace::new(tid)))
    }
}

impl<S: Smr> Smr for Traced<S> {
    type ThreadCtx = TracedCtx<S>;

    const NAME: &'static str = S::NAME;
    const USES_PHASES: bool = S::USES_PHASES;
    const USES_PROTECTION: bool = S::USES_PROTECTION;
    const CAN_TRAVERSE_UNLINKED: bool = S::CAN_TRAVERSE_UNLINKED;

    fn new(config: SmrConfig) -> Self {
        Self {
            inner: S::new(config),
            base: Instant::now(),
        }
    }

    fn config(&self) -> &SmrConfig {
        self.inner.config()
    }

    fn register(&self, tid: usize) -> TracedCtx<S> {
        TracedCtx {
            inner: self.inner.register(tid),
            trace: ThreadTrace::new(tid),
        }
    }

    fn unregister(&self, ctx: &mut TracedCtx<S>) {
        self.inner.unregister(&mut ctx.inner);
    }

    #[inline]
    fn begin_op(&self, ctx: &mut TracedCtx<S>) {
        self.span(ctx, SpanKind::BeginOp, |s, c| s.begin_op(c));
    }

    #[inline]
    fn end_op(&self, ctx: &mut TracedCtx<S>) {
        self.span(ctx, SpanKind::EndOp, |s, c| s.end_op(c));
    }

    #[inline]
    fn begin_read_phase(&self, ctx: &mut TracedCtx<S>) {
        ctx.trace.counts.read_phases += 1;
        self.inner.begin_read_phase(&mut ctx.inner);
    }

    #[inline]
    fn end_read_phase(&self, ctx: &mut TracedCtx<S>, reservations: &[usize]) {
        self.span(ctx, SpanKind::EndReadPhase, |s, c| {
            s.end_read_phase(c, reservations)
        });
    }

    #[inline]
    fn checkpoint(&self, ctx: &mut TracedCtx<S>) -> bool {
        self.inner.checkpoint(&mut ctx.inner)
    }

    #[inline]
    fn protect<T: SmrNode>(
        &self,
        ctx: &mut TracedCtx<S>,
        slot: usize,
        src: &Atomic<T>,
    ) -> Shared<T> {
        ctx.trace.counts.protects += 1;
        self.inner.protect(&mut ctx.inner, slot, src)
    }

    #[inline]
    fn protect_copy<T: SmrNode>(
        &self,
        ctx: &mut TracedCtx<S>,
        dst_slot: usize,
        src_slot: usize,
        ptr: Shared<T>,
    ) {
        self.inner
            .protect_copy(&mut ctx.inner, dst_slot, src_slot, ptr)
    }

    #[inline]
    fn clear_protections(&self, ctx: &mut TracedCtx<S>) {
        self.inner.clear_protections(&mut ctx.inner)
    }

    #[inline]
    fn global_era(&self) -> u64 {
        self.inner.global_era()
    }

    #[inline]
    fn validation_stamp(&self, ctx: &mut TracedCtx<S>) -> Option<u64> {
        self.inner.validation_stamp(&mut ctx.inner)
    }

    #[inline]
    fn magazine_mut<'a>(&self, ctx: &'a mut TracedCtx<S>) -> Option<&'a mut Magazine> {
        self.inner.magazine_mut(&mut ctx.inner)
    }

    fn alloc<T: SmrNode>(&self, ctx: &mut TracedCtx<S>, value: T) -> Shared<T> {
        self.span(ctx, SpanKind::Alloc, |s, c| s.alloc(c, value))
    }

    unsafe fn dealloc_unpublished<T: SmrNode>(&self, ctx: &mut TracedCtx<S>, ptr: Shared<T>) {
        // SAFETY: forwarded unchanged; the caller's guarantee (`ptr` came
        // from this reclaimer's `alloc` and was never published) is the one
        // the wrapped reclaimer requires, since `alloc` delegates too.
        unsafe { self.inner.dealloc_unpublished(&mut ctx.inner, ptr) }
    }

    unsafe fn retire<T: SmrNode>(&self, ctx: &mut TracedCtx<S>, ptr: Shared<T>) {
        // SAFETY: forwarded unchanged; the caller's guarantee (unlinked,
        // allocated by this reclaimer, retired once) is the one the wrapped
        // reclaimer requires.
        self.span(ctx, SpanKind::Retire, |s, c| unsafe { s.retire(c, ptr) })
    }

    fn flush(&self, ctx: &mut TracedCtx<S>) {
        self.inner.flush(&mut ctx.inner)
    }

    fn thread_stats(&self, ctx: &TracedCtx<S>) -> ThreadStats {
        self.inner.thread_stats(&ctx.inner)
    }

    fn thread_stats_mut<'a>(&self, ctx: &'a mut TracedCtx<S>) -> &'a mut ThreadStats {
        self.inner.thread_stats_mut(&mut ctx.inner)
    }

    fn limbo_len(&self, ctx: &TracedCtx<S>) -> usize {
        self.inner.limbo_len(&ctx.inner)
    }
}
