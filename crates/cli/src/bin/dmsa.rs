//! The `dmsa` command-line tool.
//!
//! ```text
//! dmsa simulate --preset 8day --scale 0.02 --seed 42 --out campaign.json
//! dmsa simulate --preset faulty --fail-prob 0.1 --max-retries 3 --out campaign.json
//! dmsa simulate --preset faulty --adaptive-exclusion --out adaptive.json
//! dmsa simulate --preset faulty --checkpoint-dir ckpts --checkpoint-every 6h --resume --out campaign.json
//! dmsa match    --campaign campaign.json --method rm2 --engine prepared --out matches.json
//! dmsa analyze  --campaign campaign.json [--matches matches.json] --report summary|matrix|temporal|redundancy
//! dmsa analyze  --campaign adaptive.json --baseline campaign.json --report exclusion
//! dmsa analyze  --campaign damaged.json --quarantine-report --report summary
//! dmsa compare  --campaign campaign.json
//! ```

use dmsa_analysis::render::{RenderError, REPORT_NAMES};
use dmsa_cli::atomic::{write_atomic, write_atomic_via};
use dmsa_cli::run::{
    analyze, compare_methods, parse_sim_duration, preset_config, run_match, simulate,
    CheckpointKnobs, EngineChoice, FaultKnobs, HealthKnobs, MatcherChoice,
};
use dmsa_cli::serve::{load_store_gen, ServeConfig, Server};
use dmsa_cli::signals;
use dmsa_cli::sweep::{
    human_report, parse_breakers, parse_fail_probs, parse_seed, parse_seeds, run_sweep, SweepOpts,
};
use dmsa_cli::verify;
use dmsa_cli::vfs::{self, ChaosProfile, IoRetryPolicy};
use dmsa_scenario::{PresetAxis, SweepGrid};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The error is written with `writeln!`, not `eprintln!`, and a failed
    // write is ignored: when stderr is a pipe whose reader has exited,
    // `eprintln!` would panic and turn the exit code into 101.
    match dispatch(&args) {
        Ok(code) => code,
        Err(Failure::Usage(msg)) => {
            let _ = writeln!(std::io::stderr(), "error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Runtime(msg)) => {
            let _ = writeln!(std::io::stderr(), "error: {msg}");
            ExitCode::from(1)
        }
    }
}

/// Why a command failed, which sets its exit code. A usage error (a
/// missing or unknown flag, an unparseable or out-of-range value) exits
/// 2 and reprints the usage text; anything that goes wrong once the
/// arguments are good (unreadable, damaged or refused input, a failed
/// run or write) exits 1 with the error line alone. `?` on a `String`
/// error means a usage error; runtime errors are wrapped explicitly.
enum Failure {
    Usage(String),
    Runtime(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Usage(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Usage(msg.to_string())
    }
}

const USAGE: &str = "usage:
  dmsa simulate --preset 8day|92day|small|faulty|faulty-adaptive|8day-faulty
                [--scale F] [--seed N]
                [--fail-prob F] [--site-outage F] [--link-outage F]
                [--max-retries N]
                [--adaptive-exclusion] [--breaker-failure-rate F]
                [--breaker-consecutive N] [--breaker-cooldown SECS]
                [--checkpoint-dir DIR] [--checkpoint-every 6h] [--resume]
                [--fork-at DUR]
                [--chaos-profile seed=N,enospc=F,eio=F,torn=F,fsync=F,rename=F]
                [--out FILE]
  dmsa sweep    --out-dir DIR
                [--presets faulty,8day-faulty] [--scale F]
                [--seeds 1,7] [--fail-probs 0.05,0.2]
                [--breakers off,adaptive,adaptive:SECS]
                [--warm-start-at 10h] [--jobs N]
                [--resume] [--cell-retries N] [--cell-timeout SECS]
                [--chaos-profile seed=N,enospc=F,...]
                (journals to sweep-journal.dmsaj; --resume adopts
                 verified-complete cells instead of re-running them,
                 --cell-retries re-runs storage:-quarantined cells with
                 backoff, --cell-timeout quarantines hung cells)
  dmsa verify   DIR|FILE
                (offline artifact audit: checkpoint frames, sweep
                 journals, campaign exports, sweep summaries/ops)

  exit codes: 0 = success            1 = runtime or data error
              2 = usage error
              3 = partial sweep (some cells quarantined; summary valid)
              4 = verify found corruption
  dmsa match    --campaign FILE --method exact|rm1|rm2|scored[:T]
                [--engine naive|indexed|parallel|prepared] [--out FILE]
  dmsa analyze  --campaign FILE [--matches FILE] [--baseline FILE]
                [--quarantine-report]
                --report summary|matrix|temporal|redundancy|exclusion
  dmsa compare  --campaign FILE
  dmsa serve    --campaign FILE [--addr HOST:PORT] [--port-file FILE]
                [--max-inflight N] [--max-conns N] [--max-line-bytes N]
                [--deadline-ms N] [--write-timeout-ms N] [--drain-ms N]
                [--max-quarantine-frac F] [--debug-commands]
                (newline-delimited JSON over TCP: health|match|analyze|
                 reload|shutdown; SIGHUP = hot reload, SIGTERM = drain)";

/// Flags that take no value; their presence means `true`.
const BOOLEAN_FLAGS: &[&str] = &[
    "adaptive-exclusion",
    "resume",
    "quarantine-report",
    "debug-commands",
];

/// Parse `--key value` pairs (and bare boolean flags) after the
/// subcommand.
fn flags(args: &[String]) -> Result<HashMap<&str, &str>, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {:?}", args[i]))?;
        if BOOLEAN_FLAGS.contains(&key) {
            map.insert(key, "true");
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key, value.as_str());
        i += 2;
    }
    Ok(map)
}

/// Print to stdout without panicking when the consumer hangs up
/// (`dmsa ... | head`): `BrokenPipe` is quiet success.
fn print_stdout(content: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{content}").and_then(|()| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("writing stdout: {e}")),
    }
}

/// Read a file as text, decoding lossily: a campaign with a few corrupt
/// bytes should reach the quarantine loader (which counts them as
/// bad-utf8 records) instead of dying at the read.
fn read_lossy(path: &str) -> Result<String, String> {
    std::fs::read(path)
        .map(|b| String::from_utf8_lossy(&b).into_owned())
        .map_err(|e| format!("reading {path}: {e}"))
}

fn dispatch(args: &[String]) -> Result<ExitCode, Failure> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("no subcommand".into());
    };
    // `verify` takes a positional directory or file, not `--flag value`
    // pairs.
    if cmd == "verify" {
        let dir = rest
            .first()
            .filter(|d| !d.starts_with("--"))
            .ok_or("verify needs a directory or file (dmsa verify DIR|FILE)")?;
        let outcome = verify::verify_dir(Path::new(dir)).map_err(Failure::Runtime)?;
        print_stdout(&outcome.to_string()).map_err(Failure::Runtime)?;
        return Ok(if outcome.clean() {
            ExitCode::SUCCESS
        } else {
            // Exit 4: at least one artifact failed its integrity audit
            // (2 = usage error, 3 = partial sweep).
            ExitCode::from(4)
        });
    }
    let f = flags(rest)?;
    let read = |key: &str| -> Result<String, Failure> {
        let path = f.get(key).ok_or_else(|| format!("--{key} is required"))?;
        read_lossy(path).map_err(Failure::Runtime)
    };
    let write_or_print = |key: &str, content: &str| -> Result<(), Failure> {
        match f.get(key) {
            Some(path) => {
                write_atomic(Path::new(path), content.as_bytes())
                    .map_err(|e| Failure::Runtime(format!("writing {path}: {e}")))?;
                eprintln!("wrote {path} ({} bytes)", content.len());
                Ok(())
            }
            None => print_stdout(content).map_err(Failure::Runtime),
        }
    };

    match cmd.as_str() {
        "simulate" => {
            let preset = f.get("preset").copied().unwrap_or("small");
            let scale: f64 = f
                .get("scale")
                .map(|s| s.parse().map_err(|e| format!("bad --scale: {e}")))
                .transpose()?
                .unwrap_or(0.02);
            let seed: u64 = f
                .get("seed")
                .map(|s| parse_seed(s).map_err(|e| format!("--seed: {e}")))
                .transpose()?
                .unwrap_or(42);
            let opt_f64 = |key: &str| -> Result<Option<f64>, String> {
                f.get(key)
                    .map(|s| s.parse().map_err(|e| format!("bad --{key}: {e}")))
                    .transpose()
            };
            let knobs = FaultKnobs {
                fail_prob: opt_f64("fail-prob")?,
                site_outage: opt_f64("site-outage")?,
                link_outage: opt_f64("link-outage")?,
                max_retries: f
                    .get("max-retries")
                    .map(|s| s.parse().map_err(|e| format!("bad --max-retries: {e}")))
                    .transpose()?,
            };
            let health = HealthKnobs {
                adaptive: f.contains_key("adaptive-exclusion"),
                failure_rate: opt_f64("breaker-failure-rate")?,
                consecutive: f
                    .get("breaker-consecutive")
                    .map(|s| {
                        s.parse()
                            .map_err(|e| format!("bad --breaker-consecutive: {e}"))
                    })
                    .transpose()?,
                cooldown_secs: f
                    .get("breaker-cooldown")
                    .map(|s| {
                        s.parse()
                            .map_err(|e| format!("bad --breaker-cooldown: {e}"))
                    })
                    .transpose()?,
            };
            let chaos = f
                .get("chaos-profile")
                .map(|s| ChaosProfile::parse(s))
                .transpose()?;
            let mut ckpt = CheckpointKnobs {
                dir: f.get("checkpoint-dir").map(PathBuf::from),
                resume: f.contains_key("resume"),
                chaos,
                ..CheckpointKnobs::default()
            };
            if let Some(every) = f.get("checkpoint-every") {
                ckpt.every = parse_sim_duration(every)?;
            }
            if (ckpt.resume || f.contains_key("checkpoint-every")) && ckpt.dir.is_none() {
                return Err("--resume/--checkpoint-every need --checkpoint-dir".into());
            }
            let fork_at = f
                .get("fork-at")
                .map(|s| parse_sim_duration(s))
                .transpose()?;
            if fork_at.is_some() && ckpt.dir.is_some() {
                return Err("--fork-at cannot be combined with --checkpoint-dir".into());
            }
            preset_config(preset, scale, seed)?;
            let json = simulate(preset, scale, seed, knobs, health, &ckpt, fork_at)
                .map_err(Failure::Runtime)?;
            match f.get("out") {
                // Under a chaos drill the export write itself is a
                // fault-injection target (with the retry ladder).
                Some(path) if chaos.is_some() => {
                    let io = vfs::backend_for(chaos.as_ref());
                    let mut note = |line: String| eprintln!("{line}");
                    vfs::with_retry(&IoRetryPolicy::default(), "export write", &mut note, || {
                        write_atomic_via(&*io, Path::new(path), json.as_bytes())
                            .map_err(|e| e.to_string())
                    })
                    .map_err(|e| Failure::Runtime(format!("writing {path}: {e}")))?;
                    eprintln!("wrote {path} ({} bytes)", json.len());
                }
                _ => write_or_print("out", &json)?,
            }
            Ok(ExitCode::SUCCESS)
        }
        "sweep" => {
            let out_dir = f
                .get("out-dir")
                .ok_or_else(|| "--out-dir is required".to_string())?;
            let scale: f64 = f
                .get("scale")
                .map(|s| s.parse().map_err(|e| format!("bad --scale: {e}")))
                .transpose()?
                .unwrap_or(0.02);
            let presets = f
                .get("presets")
                .copied()
                .unwrap_or("faulty")
                .split(',')
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .map(|name| {
                    Ok(PresetAxis {
                        name: name.to_string(),
                        base: preset_config(name, scale, 0)?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            let grid = SweepGrid {
                presets,
                seeds: parse_seeds(f.get("seeds").copied().unwrap_or("42"))?,
                fail_probs: parse_fail_probs(f.get("fail-probs").copied().unwrap_or(""))?,
                breakers: parse_breakers(f.get("breakers").copied().unwrap_or(""))?,
            };
            // Ctrl-C stops dispatching new cells; in-flight cells finish,
            // unstarted ones are quarantined, and the partial summary is
            // still written (exit 3 = partial success).
            signals::install_termination_handler();
            let opts = SweepOpts {
                jobs: f
                    .get("jobs")
                    .map(|s| s.parse().map_err(|e| format!("bad --jobs: {e}")))
                    .transpose()?
                    .unwrap_or(0),
                warm_start_at: f
                    .get("warm-start-at")
                    .map(|s| parse_sim_duration(s))
                    .transpose()?,
                out_dir: PathBuf::from(out_dir),
                write_cell_exports: true,
                interrupt: Some(signals::termination_requested),
                chaos: f
                    .get("chaos-profile")
                    .map(|s| ChaosProfile::parse(s))
                    .transpose()?,
                resume: f.contains_key("resume"),
                cell_retries: f
                    .get("cell-retries")
                    .map(|s| s.parse().map_err(|e| format!("bad --cell-retries: {e}")))
                    .transpose()?
                    .unwrap_or(0),
                cell_timeout: f
                    .get("cell-timeout")
                    .map(|s| match s.parse::<f64>() {
                        Ok(secs) if secs > 0.0 && secs.is_finite() => {
                            Ok(Duration::from_secs_f64(secs))
                        }
                        _ => Err(format!("bad --cell-timeout {s:?} (want positive seconds)")),
                    })
                    .transpose()?,
                ..SweepOpts::default()
            };
            grid.expand()?;
            let outcome = run_sweep(&grid, &opts).map_err(Failure::Runtime)?;
            print_stdout(&human_report(&outcome)).map_err(Failure::Runtime)?;
            eprintln!(
                "wrote {} cell exports + sweep_summary.json to {out_dir}",
                outcome.cells.len() - outcome.n_failed()
            );
            if outcome.n_failed() > 0 {
                Ok(ExitCode::from(3))
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        "match" => {
            let campaign = read("campaign")?;
            let method = MatcherChoice::parse(f.get("method").copied().unwrap_or("exact"))?;
            let engine = EngineChoice::parse(f.get("engine").copied().unwrap_or("prepared"))?;
            let (json, stats) = run_match(&campaign, method, engine).map_err(Failure::Runtime)?;
            eprintln!("{stats}");
            write_or_print("out", &json)?;
            Ok(ExitCode::SUCCESS)
        }
        "analyze" => {
            let report = f.get("report").copied().unwrap_or("summary");
            if !REPORT_NAMES.contains(&report) {
                return Err(RenderError::UnknownReport(report.to_string())
                    .to_string()
                    .into());
            }
            let campaign = read("campaign")?;
            let read_opt = |key: &str| -> Result<Option<String>, String> {
                f.get(key).map(|path| read_lossy(path)).transpose()
            };
            let matches = read_opt("matches").map_err(Failure::Runtime)?;
            let baseline = read_opt("baseline").map_err(Failure::Runtime)?;
            analyze(
                &campaign,
                matches.as_deref(),
                baseline.as_deref(),
                report,
                f.contains_key("quarantine-report"),
                &mut std::io::stdout().lock(),
            )
            .map_err(Failure::Runtime)?;
            Ok(ExitCode::SUCCESS)
        }
        "compare" => {
            let campaign = read("campaign")?;
            print_stdout(&compare_methods(&campaign).map_err(Failure::Runtime)?)
                .map_err(Failure::Runtime)?;
            Ok(ExitCode::SUCCESS)
        }
        "serve" => {
            let campaign_path = f
                .get("campaign")
                .ok_or_else(|| "--campaign is required".to_string())?;
            let parse_ms = |key: &str, default_ms: u64| -> Result<Duration, String> {
                f.get(key)
                    .map(|s| s.parse().map_err(|e| format!("bad --{key}: {e}")))
                    .transpose()
                    .map(|ms| Duration::from_millis(ms.unwrap_or(default_ms)))
            };
            let mut cfg = ServeConfig {
                watch_signals: true,
                debug_commands: f.contains_key("debug-commands"),
                deadline: parse_ms("deadline-ms", 10_000)?,
                write_timeout: parse_ms("write-timeout-ms", 5_000)?,
                drain_deadline: parse_ms("drain-ms", 5_000)?,
                ..ServeConfig::default()
            };
            if let Some(addr) = f.get("addr") {
                cfg.addr = addr.to_string();
            }
            if let Some(n) = f.get("max-inflight") {
                cfg.max_inflight = n.parse().map_err(|e| format!("bad --max-inflight: {e}"))?;
            }
            if let Some(n) = f.get("max-conns") {
                cfg.max_conns = n.parse().map_err(|e| format!("bad --max-conns: {e}"))?;
            }
            if let Some(n) = f.get("max-line-bytes") {
                cfg.max_line_bytes = n
                    .parse()
                    .map_err(|e| format!("bad --max-line-bytes: {e}"))?;
            }
            if let Some(frac) = f.get("max-quarantine-frac") {
                cfg.max_quarantine_frac = frac
                    .parse()
                    .map_err(|e| format!("bad --max-quarantine-frac: {e}"))?;
            }
            let json = read_lossy(campaign_path).map_err(Failure::Runtime)?;
            let initial = load_store_gen(&json, campaign_path, cfg.max_quarantine_frac)
                .map_err(Failure::Runtime)?;
            drop(json);

            // Latch signals before the accept loop starts polling them.
            signals::install_termination_handler();
            signals::install_reload_handler();

            let server = Server::start(cfg, initial, Some(PathBuf::from(campaign_path)))
                .map_err(Failure::Runtime)?;
            let addr = server.local_addr();
            if let Some(port_file) = f.get("port-file") {
                write_atomic(Path::new(port_file), addr.to_string().as_bytes())
                    .map_err(|e| Failure::Runtime(format!("writing {port_file}: {e}")))?;
            }
            eprintln!("dmsa serve: listening on {addr} (campaign {campaign_path})");
            eprintln!("dmsa serve: SIGHUP reloads the campaign, SIGTERM drains and exits");

            while !server.state().draining() {
                std::thread::sleep(Duration::from_millis(50));
            }
            let state = std::sync::Arc::clone(server.state());
            let outcome = server.shutdown();
            let c = state.counters();
            eprintln!(
                "dmsa serve: drained ({}); served {} | shed {} | panics contained {} | reloads {} ok / {} failed",
                if outcome.clean {
                    "clean".to_string()
                } else {
                    format!("{} connection(s) abandoned", outcome.abandoned_conns)
                },
                c.served.load(Ordering::Relaxed),
                c.shed.load(Ordering::Relaxed),
                c.panics.load(Ordering::Relaxed),
                c.reloads_ok.load(Ordering::Relaxed),
                c.reloads_failed.load(Ordering::Relaxed),
            );
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand {other:?}").into()),
    }
}
