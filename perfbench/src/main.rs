//! The dmsa benchmark: one command per workload, printing every metric
//! by name and unit and checking the program's outputs.
//!
//! ```text
//! cargo run --offline --locked --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline_8day|serve_hot|serve_churn|sweep_warm \
//!     --seed N --seconds S --trace 0|1
//! cargo run --offline --locked --release -q --manifest-path perfbench/Cargo.toml -- --check
//! ```
//!
//! Run from the repository root. `--trace 0` measures with tracing off
//! and prints the end-to-end metrics; `--trace 1` measures an untraced
//! and then a traced leg, prints the per-layer metrics and the tracing
//! overhead. The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! Everything else (the environment, the per-layer self-time table,
//! per-request-kind latencies) goes to standard error and to
//! `.perfbench_out/`. `--check` runs every workload on small inputs,
//! cross-checks prepared matching against the naive oracle, and asserts
//! that every metric named in `BENCHMARK.json` is printed, finite and
//! has its unit. See `perfbench/README.md` for the workloads.

mod checks;
mod layers;
mod pipeline;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// Where the benchmark writes its scratch inputs (removed at exit).
const WORK_DIR: &str = ".perfbench_work";
/// Where result and span files of each run are kept.
const OUT_DIR: &str = ".perfbench_out";

/// The workloads `BENCHMARK.json` names.
pub const WORKLOADS: [&str; 3] = ["pipeline_8day", "serve_hot", "sweep_warm"];
/// Workloads the command runs on request and `--check` covers, but that
/// carry no bound: on a 2-vCPU host the tail latency of `serve_churn`
/// swung between two levels from run to run (queries beside a reload
/// ran 1.2 to 2 times slower), a spread above any bound it could carry.
pub const UNGATED_WORKLOADS: [&str; 1] = ["serve_churn"];

fn all_workloads() -> impl Iterator<Item = &'static str> {
    WORKLOADS.into_iter().chain(UNGATED_WORKLOADS)
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct Report {
    /// End-to-end metrics (printed with `--trace 0`).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub layer: Vec<Metric>,
    /// Workload-specific detail (standard error and the result file).
    pub detail: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failed checks, for the log.
    pub failures: Vec<String>,
    /// Threads, connections, offered rates and input sizes used.
    pub env: Vec<(String, String)>,
    /// Human-readable per-layer table of the traced leg.
    pub trace_table: String,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.e2e, name, value, unit);
    }
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.layer, name, value, unit);
    }
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.detail, name, value, unit);
    }
    pub fn env(&mut self, key: &str, value: impl ToString) {
        self.env.push((key.to_string(), value.to_string()));
    }
    /// Count one checked operation; record the failure if `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

fn push(v: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    v.retain(|m| m.name != name);
    v.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

/// Run-wide settings every workload reads.
pub struct Ctx {
    pub seed: u64,
    /// Measurement budget of the run.
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs (the `--check` mode).
    pub small: bool,
    pub work: PathBuf,
    pub tracer: Tracer,
    pub nproc: usize,
}

impl Ctx {
    /// Measurement budget of the untraced leg and of the traced leg: the
    /// whole budget untraced, or half each when tracing.
    pub fn legs(&self) -> (f64, f64) {
        if self.trace {
            (self.seconds / 2.0, self.seconds / 2.0)
        } else {
            (self.seconds, 0.0)
        }
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        check: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--check" {
            a.check = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                if !all_workloads().any(|w| w == value) {
                    return Err(format!(
                        "unknown workload {value:?} ({})",
                        all_workloads().collect::<Vec<_>>().join("|")
                    ));
                }
                a.workload = Some(value.clone());
            }
            "--seed" => a.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    if a.workload.is_none() && !a.check {
        return Err("--workload is required (or --check)".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1\n       perfbench --check",
                all_workloads().collect::<Vec<_>>().join("|")
            );
            return ExitCode::from(2);
        }
    };
    if a.check {
        return match checks::run_check_mode() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("check mode FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = a.workload.expect("checked by parse_args");
    match run_workload(&workload, a.seed, a.seconds, a.trace, false) {
        Ok((report, line)) => {
            println!("{line}");
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one workload and return its report and the result line.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
) -> Result<(Report, String), String> {
    let work = PathBuf::from(WORK_DIR).join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        small,
        work: work.clone(),
        tracer: Tracer::new(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let result = match workload {
        "pipeline_8day" => pipeline::run(&ctx),
        "serve_hot" => serve::run(&ctx, serve::Mode::Hot),
        "serve_churn" => serve::run(&ctx, serve::Mode::Churn),
        "sweep_warm" => sweep::run(&ctx),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    let mut report = result?;
    // Not gated: under sweep_warm the high-water mark moves with how
    // worker threads share allocator arenas (10-seed spread 0.35).
    report.detail(
        "peak_rss_mb",
        peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
        "MB",
    );
    report.env("nproc", ctx.nproc);
    report.env(
        "build_profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    report.env(
        "rayon",
        "vendored sequential shim: prepared.build_s and match.* run on one thread",
    );
    if trace {
        report.layer("trace.spans", ctx.tracer.spans().len() as f64, "count");
    }
    let metrics = if trace {
        layers::complete(&report.layer)?
    } else {
        report.e2e.clone()
    };
    log_report(workload, seed, &report);
    let line = result_line(&report, &metrics);
    save_outputs(workload, seed, trace, &report, &line, &ctx.tracer);
    Ok((report, line))
}

fn fmt_value(v: f64) -> String {
    // `{}` on f64 prints the shortest string that round-trips: every
    // digit the measurement has, never rounded to look steady.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(report: &Report, metrics: &[Metric]) -> String {
    let mut o = String::new();
    let _ = write!(
        o,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(
            o,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            fmt_value(m.value),
            m.unit
        );
    }
    o.push_str("}}");
    o
}

fn log_report(workload: &str, seed: u64, report: &Report) {
    let mut s = format!("== {workload} seed {seed}\nenv:");
    for (k, v) in &report.env {
        let _ = write!(s, " {k}={v};");
    }
    s.push('\n');
    for (title, ms) in [
        ("end-to-end", &report.e2e),
        ("per-layer", &report.layer),
        ("detail", &report.detail),
    ] {
        if ms.is_empty() {
            continue;
        }
        let _ = writeln!(s, "{title}:");
        for m in ms.iter() {
            let _ = writeln!(s, "  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    if !report.trace_table.is_empty() {
        s.push_str(&report.trace_table);
    }
    let _ = writeln!(
        s,
        "checks: {} attempted, {} failed (error_rate {})",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for f in &report.failures {
        let _ = writeln!(s, "  FAILED: {f}");
    }
    eprint!("{s}");
}

/// Keep the result (with its environment) and the spans of the run.
/// Best-effort: a full disk must not fail a finished measurement.
fn save_outputs(
    workload: &str,
    seed: u64,
    trace: bool,
    report: &Report,
    line: &str,
    tracer: &Tracer,
) {
    let dir = Path::new(OUT_DIR);
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let tag = format!("{workload}-seed{seed}-trace{}", u8::from(trace));
    let mut env = String::from("{");
    for (i, (k, v)) in report.env.iter().enumerate() {
        if i > 0 {
            env.push(',');
        }
        let mut kv = String::new();
        dmsa_cli::json::push_str_lit(&mut kv, k);
        kv.push(':');
        dmsa_cli::json::push_str_lit(&mut kv, v);
        env.push_str(&kv);
    }
    env.push('}');
    let mut detail = String::from("{");
    for (i, m) in report.detail.iter().enumerate() {
        if i > 0 {
            detail.push(',');
        }
        let _ = write!(
            detail,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            fmt_value(m.value),
            m.unit
        );
    }
    detail.push('}');
    let doc = format!("{{\"env\":{env},\"result\":{line},\"detail\":{detail}}}\n");
    let _ = std::fs::write(dir.join(format!("result-{tag}.json")), doc);
    if trace {
        let _ = std::fs::write(
            dir.join(format!("spans-{tag}.json")),
            trace::spans_json(&tracer.spans()),
        );
    }
}
