//! A run: the trial rounds of one workload, reduced to the metrics the
//! benchmark reports.
//!
//! Every round runs each compared reclaimer once, untraced, in an order that
//! rotates from round to round; a traced run adds each reclaimer and the
//! leaky reference once more under [`Traced`]. Each metric is the median of
//! its per-round values, never the best.

use crate::traced::{Probe, Traced};
use crate::trial::{trial, ChromeTrace, TrialOut};
use crate::workload::{Scheme, Structure, Workload};
use conc_ds::{DgtTree, HarrisList, LazyList};
use nbr::NbrPlus;
use smr_baselines::{Debra, HazardPointers, Leaky};
use smr_harness::OpGenerator;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Reclaimers of a traced round: the compared three plus the leaky reference.
const TRACED: [Scheme; 4] = [Scheme::Nbrp, Scheme::Debra, Scheme::Hp, Scheme::None];

/// Ops the generator-cost probe draws.
const GEN_PROBE_OPS: u32 = 2_000_000;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count or reduction, for the human-readable line.
    pub note: String,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops the oracle covered.
    pub attempted: u64,
    /// Failed ops.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Oracle findings, one line per failed trial.
    pub problems: Vec<String>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    fn account(&mut self, scheme: Scheme, traced: bool, round: usize, t: &TrialOut) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        if t.failed > 0 {
            let o = &t.oracle;
            self.problems.push(format!(
                "{}{} round {round}: failed={} expected={} size={} swept={} leaked_bytes={} panicked={}",
                scheme.key(),
                if traced { " (traced)" } else { "" },
                t.failed,
                o.expected,
                o.size,
                o.swept,
                o.leaked_bytes,
                o.panicked
            ));
        }
    }
}

fn on<S: Probe>(
    wl: &Workload,
    seed: u64,
    window: Duration,
    chrome: Option<(&mut ChromeTrace, usize)>,
) -> TrialOut {
    match wl.structure {
        Structure::DgtTree => trial::<S, DgtTree<S>>(wl, seed, window, chrome),
        Structure::LazyList => trial::<S, LazyList<S>>(wl, seed, window, chrome),
        Structure::HarrisList => trial::<S, HarrisList<S>>(wl, seed, window, chrome),
    }
}

fn run_trial(
    scheme: Scheme,
    traced: bool,
    wl: &Workload,
    seed: u64,
    window: Duration,
    chrome: Option<(&mut ChromeTrace, usize)>,
) -> TrialOut {
    match (scheme, traced) {
        (Scheme::Nbrp, false) => on::<NbrPlus>(wl, seed, window, chrome),
        (Scheme::Debra, false) => on::<Debra>(wl, seed, window, chrome),
        (Scheme::Hp, false) => on::<HazardPointers>(wl, seed, window, chrome),
        (Scheme::None, false) => unreachable!("the leaky reference runs traced only"),
        (Scheme::Nbrp, true) => on::<Traced<NbrPlus>>(wl, seed, window, chrome),
        (Scheme::Debra, true) => on::<Traced<Debra>>(wl, seed, window, chrome),
        (Scheme::Hp, true) => on::<Traced<HazardPointers>>(wl, seed, window, chrome),
        (Scheme::None, true) => on::<Traced<Leaky>>(wl, seed, window, chrome),
    }
}

/// Median of `v` (mean of the middle two for an even count; 0 when empty).
fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn med(trials: &[TrialOut], f: impl Fn(&TrialOut) -> f64) -> f64 {
    median(trials.iter().map(f).collect())
}

/// Runs `wl` for `seconds` of timed windows in total and reduces the trials
/// to the end-to-end metrics, or with `traced` to the per-layer metrics.
/// A traced run also writes `<workload>.trace.json` (Chrome trace events)
/// and `<workload>.layers.tsv` into `out_dir`.
pub fn run(wl: &Workload, seed: u64, seconds: u64, traced: bool, out_dir: &Path) -> Report {
    // A traced round runs seven trials instead of three; a fifth of the
    // rounds keeps each traced window long enough to hold many scans.
    let (per_round, rounds) = if traced {
        (Scheme::COMPARED.len() + TRACED.len(), wl.rounds.div_ceil(5))
    } else {
        (Scheme::COMPARED.len(), wl.rounds)
    };
    let window = Duration::from_secs_f64(seconds as f64 / (per_round * rounds) as f64);
    let mut chrome = traced.then(|| {
        std::fs::create_dir_all(out_dir).expect("create the benchmark's output directory");
        let path = out_dir.join(format!("{}.trace.json", wl.name));
        ChromeTrace::create(&path).unwrap_or_else(|e| panic!("create {}: {e}", path.display()))
    });
    let mut report = Report::default();
    let mut plain: [Vec<TrialOut>; 3] = Default::default();
    let mut layered: [Vec<TrialOut>; 4] = Default::default();
    for round in 0..rounds {
        for i in 0..Scheme::COMPARED.len() {
            let k = (i + round) % Scheme::COMPARED.len();
            let s = Scheme::COMPARED[k];
            let t = run_trial(s, false, wl, seed, window, None);
            report.account(s, false, round, &t);
            plain[k].push(t);
        }
        if traced {
            for i in 0..TRACED.len() {
                let k = (i + round) % TRACED.len();
                let s = TRACED[k];
                // Spans of the first round only: one trial per reclaimer is
                // plenty for a trace viewer.
                let sink = chrome.as_mut().filter(|_| round == 0).map(|c| (c, k + 1));
                let t = run_trial(s, true, wl, seed, window, sink);
                report.account(s, true, round, &t);
                layered[k].push(t);
            }
        }
    }
    if let Some(c) = chrome {
        c.finish().expect("write the Chrome trace");
    }
    if traced {
        per_layer(&mut report, wl, seed, rounds, &plain, &layered);
        write_layers(&report, &out_dir.join(format!("{}.layers.tsv", wl.name)));
    } else {
        end_to_end(&mut report, wl.rounds, &plain);
    }
    report
}

fn end_to_end(r: &mut Report, rounds: usize, plain: &[Vec<TrialOut>; 3]) {
    let setup = median(
        (0..rounds)
            .map(|i| plain.iter().map(|t| t[i].setup.as_secs_f64()).sum())
            .collect(),
    );
    r.push(
        "setup_s",
        setup,
        "s",
        format!("median of {rounds} rounds of build+prefill+warm-up, summed over nbrp/debra/hp"),
    );
    for (s, trials) in Scheme::COMPARED.iter().zip(plain) {
        let k = s.key();
        let samples = trials.iter().map(|t| t.samples).min().unwrap_or(0);
        let reduction = format!("median of {rounds} rounds");
        let per = format!("{reduction}, >= {samples} op samples per round");
        r.push(
            format!("{k}.mops"),
            med(trials, TrialOut::mops),
            "Mops/s",
            reduction.clone(),
        );
        r.push(
            format!("{k}.op_p50_ns"),
            med(trials, |t| t.p50_ns as f64),
            "ns",
            per.clone(),
        );
        r.push(
            format!("{k}.op_p99_ns"),
            med(trials, |t| t.p99_ns as f64),
            "ns",
            per,
        );
        r.push(
            format!("{k}.garbage_p50"),
            med(trials, |t| t.garbage_p50 as f64),
            "records",
            format!(
                "{reduction}, p50 of >= {} samples per round",
                trials.iter().map(|t| t.garbage_samples).min().unwrap_or(0)
            ),
        );
    }
}

fn per_layer(
    r: &mut Report,
    wl: &Workload,
    seed: u64,
    rounds: usize,
    plain: &[Vec<TrialOut>; 3],
    layered: &[Vec<TrialOut>; 4],
) {
    let lay = |t: &TrialOut| t.layers.unwrap_or_default();
    let op_ns = |t: &TrialOut| {
        let c = lay(t).counts;
        ratio(c.op_ns as f64, c.ops as f64)
    };
    let none_op_ns = med(&layered[3], op_ns);
    let note = format!("median of {rounds} traced rounds");
    for (k, s) in Scheme::COMPARED.iter().enumerate() {
        let ts = &layered[k];
        let p = s.key();
        let mut m = |name: &str, unit: &'static str, f: &dyn Fn(&TrialOut) -> f64| {
            r.push(format!("{p}.{name}"), med(ts, f), unit, note.clone());
        };
        m("ds.op_ns", "ns", &op_ns);
        m("ds.op_self_ns", "ns", &|t| {
            let c = lay(t).counts;
            ratio((c.op_ns - c.child_ns) as f64, c.ops as f64)
        });
        m("ds.read_phases_per_op", "1/op", &|t| {
            let c = lay(t).counts;
            ratio(c.read_phases as f64, c.ops as f64)
        });
        m("ds.protects_per_op", "1/op", &|t| {
            let c = lay(t).counts;
            ratio(c.protects as f64, c.ops as f64)
        });
        m("ds.memo_hit_rate", "frac", &|t| {
            let c = t.counters;
            ratio(c.memo_hits as f64, (c.memo_hits + c.memo_misses) as f64)
        });
        m("recycle.alloc_ns", "ns", &|t| {
            let c = lay(t).counts;
            ratio(c.alloc_ns as f64, c.allocs as f64)
        });
        m("recycle.pool_hit_rate", "frac", &|t| {
            let c = t.counters;
            ratio(c.pool_hits as f64, (c.pool_hits + c.pool_misses) as f64)
        });
        m("recycle.global_allocs_per_kop", "1/kop", &|t| {
            ratio(
                1e3 * t.counters.pool_misses as f64,
                lay(t).counts.ops as f64,
            )
        });
        m("limbo.retire_ns", "ns", &|t| {
            let c = lay(t).counts;
            ratio(c.plain_retire_ns as f64, c.plain_retires as f64)
        });
        m("limbo.scan_ns_p50", "ns", &|t| lay(t).scan_p50_ns as f64);
        m("limbo.scan_ns_p99", "ns", &|t| lay(t).scan_p99_ns as f64);
        m("limbo.scan_busy_frac", "frac", &|t| {
            let c = lay(t).counts;
            ratio(c.scan_ns as f64, c.op_ns as f64)
        });
        m("limbo.frees_per_scan", "1/scan", &|t| {
            ratio(t.counters.frees as f64, lay(t).counts.scans as f64)
        });
        m("limbo.skip_frac", "frac", &|t| {
            let c = lay(t).counts;
            ratio(c.scan_skips as f64, c.scans as f64)
        });
        m("limbo.combine_adoptions_per_kscan", "1/kscan", &|t| {
            ratio(
                1e3 * t.counters.combine_adoptions as f64,
                lay(t).counts.scans as f64,
            )
        });
        if *s == Scheme::Nbrp {
            m("ping.signals_per_scan", "1/scan", &|t| {
                ratio(t.counters.signals_sent as f64, lay(t).counts.scans as f64)
            });
            m("ping.concessions_per_kscan", "1/kscan", &|t| {
                ratio(
                    1e3 * t.counters.ping_concessions as f64,
                    lay(t).counts.scans as f64,
                )
            });
            m("ping.neutralizations_per_kop", "1/kop", &|t| {
                ratio(
                    1e3 * t.counters.neutralizations as f64,
                    lay(t).counts.ops as f64,
                )
            });
        }
        r.push(
            format!("{p}.smr.overhead_ns"),
            med(ts, op_ns) - none_op_ns,
            "ns",
            "ds.op_ns minus none.ds.op_ns".into(),
        );
    }
    r.push("none.ds.op_ns", none_op_ns, "ns", note);

    let spec = wl.spec(seed, Duration::ZERO);
    let mut gen = OpGenerator::new(&spec, 0);
    let t0 = Instant::now();
    for _ in 0..GEN_PROBE_OPS {
        std::hint::black_box(gen.next_op());
    }
    let gen_ns = t0.elapsed().as_nanos() as f64 / f64::from(GEN_PROBE_OPS);
    r.push(
        "gen.ns_per_op",
        gen_ns,
        "ns",
        format!("{GEN_PROBE_OPS} draws, one thread"),
    );

    let untraced: f64 = plain.iter().map(|ts| med(ts, TrialOut::mops)).sum();
    let traced: f64 = layered[..3].iter().map(|ts| med(ts, TrialOut::mops)).sum();
    r.push(
        "trace.overhead_frac",
        1.0 - ratio(traced, untraced),
        "frac",
        format!("1 - traced/untraced Mops/s summed over nbrp/debra/hp ({traced:.3}/{untraced:.3})"),
    );
}

fn write_layers(r: &Report, path: &Path) {
    let write = || -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "metric\tvalue\tunit")?;
        for m in &r.metrics {
            writeln!(f, "{}\t{}\t{}", m.name, m.value, m.unit)?;
        }
        f.flush()
    };
    write().unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}
