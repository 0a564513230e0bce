//! `pipeline_8day`: what an analyst does with the CLI, as one batch
//! pass: simulate paper_8day, write the export, read it back through
//! the lenient loader, build the prepared store, match with exact, RM1,
//! RM2 and scored, and render all five reports. The simulator, export
//! codec and loader do almost all of the work; serve does none.

use crate::layers::{self, Counts};
use crate::stats::{median, tail};
use crate::{Ctx, Report};
use dmsa_cli::export::CampaignExport;
use dmsa_scenario::ScenarioConfig;
use std::path::Path;
use std::time::Instant;

/// Workload scale of the measured pass (paper_8day at 1.0 is the
/// paper's eight days; 0.02 is about 0.24 M jobs+files+transfers).
const SCALE: f64 = 0.02;
/// Scale of the warm-up pass in set-up.
const WARM_SCALE: f64 = 0.005;
/// Scale under `--check`.
const SMALL_SCALE: f64 = 0.002;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Pass {
    secs: f64,
    records: usize,
    ok: Result<(), String>,
}

/// One full analyst pass over a fresh campaign of `config`.
fn pass(
    ctx: &Ctx,
    counts: &mut Counts,
    config: &ScenarioConfig,
    path: &Path,
) -> Result<Pass, String> {
    let t0 = Instant::now();
    let root = ctx.tracer.span("pipeline.pass", 0);
    let campaign = layers::simulate(ctx, root.id(), counts, config);
    let (jobs, files, transfers, _) = campaign.store.counts();
    let records = jobs + files + transfers;
    layers::write_export(ctx, root.id(), counts, &campaign, path)?;
    // The simulating process has exited by the time an analyst loads.
    drop(campaign);
    let loaded = layers::load_export(ctx, root.id(), counts, path)?;
    let analysis = layers::analyze(ctx, root.id(), counts, &loaded.export)?;
    drop(root);
    let secs = t0.elapsed().as_secs_f64();

    let (lj, lf, lt, _) = loaded.export.store.counts();
    let ok = if !loaded.quarantine.is_empty() {
        Err(format!(
            "lenient load quarantined {}",
            loaded.quarantine.one_line()
        ))
    } else if lj + lf + lt != records {
        Err(format!(
            "loaded {} records, simulated {records}",
            lj + lf + lt
        ))
    } else if let Some((name, _)) = analysis.reports.iter().find(|(_, t)| t.is_empty()) {
        Err(format!("report {name} rendered empty"))
    } else {
        layers::check_subsumption(&analysis.sets)
    };
    Ok(Pass { secs, records, ok })
}

/// Strict reload of the written export: zero quarantines, and its
/// re-encoding is byte-identical to the file.
pub fn check_strict_roundtrip(path: &Path) -> Result<(), String> {
    let src =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let strict = CampaignExport::from_json(&src)?;
    if strict.to_json() != src {
        return Err(format!(
            "{} does not re-encode byte-identically after a strict load",
            path.display()
        ));
    }
    Ok(())
}

/// Passes until adding one more would overrun `budget` (at least one).
fn leg(
    ctx: &Ctx,
    counts: &mut Counts,
    config: &ScenarioConfig,
    path: &Path,
    budget: f64,
    report: &mut Report,
) -> Result<(Vec<f64>, usize), String> {
    let t0 = Instant::now();
    let mut secs = Vec::new();
    loop {
        let p = pass(ctx, counts, config, path)?;
        report.check(p.ok.is_ok(), || {
            format!("pass {}: {}", secs.len(), p.ok.clone().unwrap_err())
        });
        secs.push(p.secs);
        if t0.elapsed().as_secs_f64() + p.secs > budget {
            return Ok((secs, p.records));
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let scale = if ctx.small { SMALL_SCALE } else { SCALE };
    let config = ScenarioConfig {
        seed: ctx.seed,
        ..ScenarioConfig::paper_8day(scale)
    };
    let mut report = Report::default();
    report.env("loop", "batch passes back to back (one thread)");
    report.env("scale", scale);
    report.env("threads", 1);

    // Set-up: the scratch directory and one warm-up pass over a small
    // campaign of the same seed (code, allocator and page cache warm).
    let warm = ScenarioConfig {
        seed: ctx.seed,
        ..ScenarioConfig::paper_8day(WARM_SCALE)
    };
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let dir = ctx.work.join(format!("setup-{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let p = pass(ctx, &mut Counts::default(), &warm, &dir.join("warm.json"))?;
        p.ok.map_err(|e| format!("warm-up pass: {e}"))?;
        setups.push(t0.elapsed().as_secs_f64());
    }
    report.e2e("setup_s", median(&setups), "s");

    let path = ctx.work.join("campaign.json");
    let mut counts = Counts::default();
    let (untraced_budget, traced_budget) = ctx.legs();
    let (secs, records) = leg(
        ctx,
        &mut counts,
        &config,
        &path,
        untraced_budget,
        &mut report,
    )?;
    report.env("records", records);
    report.env("export_bytes", counts.median("export.bytes").unwrap_or(0.0));
    report.env("passes", secs.len());
    report.env("pass_s", format!("{secs:.3?}"));
    let p50 = median(&secs);
    let (tail_pct, tail_s) = tail(&secs);
    report.e2e("throughput_per_s", records as f64 / p50, "1/s");
    report.e2e("p50_ms", 1e3 * p50, "ms");
    report.e2e("tail_ms", 1e3 * tail_s, "ms");
    report.detail("records_per_s", records as f64 / p50, "1/s");
    report.detail("tail_percentile", tail_pct, "pct");

    if ctx.trace {
        ctx.tracer.set_enabled(true);
        let (traced, _) = leg(ctx, &mut counts, &config, &path, traced_budget, &mut report)?;
        ctx.tracer.set_enabled(false);
        layers::emit(ctx, &counts, &mut report);
        layers::trace_summary(
            ctx,
            &["pipeline.pass"],
            1e3 * p50,
            1e3 * median(&traced),
            &mut report,
        );
    }

    let strict = check_strict_roundtrip(&path);
    report.check(strict.is_ok(), || strict.unwrap_err());
    Ok(report)
}
