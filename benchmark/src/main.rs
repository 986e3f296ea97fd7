//! `nbr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric with its unit, then, as the last
//! line of standard output, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` the per-layer
//! metrics, and writes a Chrome trace and the layer table under `out/` in
//! the benchmark's directory.

use nbr_benchmark::report::{self, Report};
use nbr_benchmark::workload::{smr_config, workloads, Workload, THREADS};
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: smr_harness::alloc_track::CountingAlloc = smr_harness::alloc_track::CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must lie in 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The git revision when run from a git checkout, else a fingerprint of the
/// sources the benchmark was built from (so a number can still be tied to
/// the code that produced it).
fn revision(root: &Path) -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "benchmark/src"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.sort();
    // FNV-1a over every path and its contents.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .bytes()
            .chain(bytes)
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn collect_sources(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, files);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            files.push(p);
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0 && r.attempted > 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    // Instrumentation must never leak into a measurement build.
    if smr_common::check::compiled_in() || smr_common::telemetry::trace_compiled_in() {
        eprintln!("refusing to run: smr-common was built with the `check` or `trace` feature");
        return ExitCode::FAILURE;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<_> = workloads().iter().map(|w| w.name).collect();
            eprintln!("error: {e}");
            eprintln!(
                "usage: nbr-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir.parent().unwrap_or(bench_dir);
    let wl = &args.workload;
    let cfg = smr_config();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# nbr-benchmark workload={} seed={} seconds={} trace={} nproc={nproc} threads={THREADS} rev={}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        revision(root)
    );
    println!(
        "# {} {} {} keys=1..={} prefill={} workers={} stalled_reader={} rounds={} \
         | SmrConfig max_threads={} hi/lo={}/{} signal_cost_ns={} heartbeat_ops={} \
         recycle={} coalesce={} combine={} memo={}",
        wl.structure.label(),
        wl.mix.label(),
        wl.dist.label(),
        wl.key_range,
        wl.prefill,
        wl.workers,
        wl.stalled_reader,
        wl.rounds,
        cfg.max_threads,
        cfg.hi_watermark,
        cfg.lo_watermark,
        cfg.signal_cost_ns,
        cfg.scan_heartbeat_ops,
        cfg.recycle,
        cfg.coalesce,
        cfg.combine,
        cfg.memo
    );
    let r = report::run(
        wl,
        args.seed,
        args.seconds,
        args.trace,
        &bench_dir.join("out"),
    );
    for m in &r.metrics {
        println!("{} = {} {}  ({})", m.name, m.value, m.unit, m.note);
    }
    for p in &r.problems {
        println!("oracle: {p}");
    }
    println!("ops_attempted = {}  ops_failed = {}", r.attempted, r.failed);
    println!("{}", json_line(&r));
    ExitCode::SUCCESS
}
