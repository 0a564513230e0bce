//! `sweep_warm`: the 18-cell `8day-faulty` grid of `bench_sweep`
//! (2 seeds × 3 fault rates × 3 breaker settings) through `run_sweep`
//! with warm starts, the journal and cell exports on, at `--jobs` =
//! `nproc`. The fork/prefix layer, the worker pool and the journal do
//! the work here, and it is the one workload that uses every core.

use crate::layers::{self, Counts};
use crate::stats::{median, tail};
use crate::{Ctx, Report};
use dmsa_cli::sweep::{parse_breakers, run_sweep, SweepOpts};
use dmsa_scenario::{PresetAxis, ScenarioConfig, SweepGrid};
use dmsa_simcore::{SimDuration, SimTime};
use std::path::Path;
use std::time::Instant;

/// Workload scale of every cell (the site count does not shrink with
/// it, so the per-event O(sites) loop a warm start skips dominates).
const SCALE: f64 = 0.01;
const SMALL_SCALE: f64 = 0.002;
/// Scale of the set-up sweep (one day of the same 18 cells).
const WARM_SCALE: f64 = 0.005;
const DURATION_H: i64 = 96;
const WARM_START_H: i64 = 88;
const FAIL_PROBS: [f64; 3] = [0.05, 0.12, 0.2];
const BREAKERS: &str = "off,adaptive,adaptive:600";
const SETUPS: usize = 3;

fn grid(seed: u64, scale: f64, duration_h: i64) -> Result<SweepGrid, String> {
    let base = ScenarioConfig {
        duration: SimDuration::from_hours(duration_h),
        ..ScenarioConfig::paper_8day_faulty(scale)
    };
    Ok(SweepGrid {
        presets: vec![PresetAxis {
            name: "8day-faulty".into(),
            base,
        }],
        seeds: vec![seed, seed.wrapping_add(1)],
        fail_probs: FAIL_PROBS.to_vec(),
        breakers: parse_breakers(BREAKERS)?,
    })
}

fn opts(ctx: &Ctx, dir: &Path, warm_h: i64) -> SweepOpts {
    SweepOpts {
        jobs: ctx.nproc,
        warm_start_at: Some(SimDuration::from_hours(warm_h)),
        out_dir: dir.to_path_buf(),
        write_cell_exports: true,
        ..SweepOpts::default()
    }
}

struct Sweeps {
    /// Cells per second of each sweep.
    rates: Vec<f64>,
    cell_s: Vec<f64>,
    /// Σ cell wall / (sweep wall × jobs), per sweep.
    eff: Vec<f64>,
    warm_cells: usize,
    retries: u32,
    quarantined: usize,
}

/// Sweeps back to back until one more would overrun `budget`; the last
/// sweep's directory is kept for the output checks.
fn leg(
    ctx: &Ctx,
    grid: &SweepGrid,
    budget: f64,
    tag: &str,
    report: &mut Report,
) -> Result<(Sweeps, std::path::PathBuf), String> {
    let t0 = Instant::now();
    let mut s = Sweeps {
        rates: Vec::new(),
        cell_s: Vec::new(),
        eff: Vec::new(),
        warm_cells: 0,
        retries: 0,
        quarantined: 0,
    };
    let mut i = 0;
    loop {
        let dir = ctx.work.join(format!("{tag}-{i}"));
        let opts = opts(ctx, &dir, WARM_START_H);
        let started = Instant::now();
        let outcome = {
            let _s = ctx.tracer.span("sweep.run", 0);
            run_sweep(grid, &opts)?
        };
        let wall = started.elapsed().as_secs_f64();
        s.rates.push(outcome.cells.len() as f64 / wall);
        let busy: f64 = outcome.cells.iter().map(|c| c.wall_s).sum();
        s.eff.push(busy / (wall * opts.jobs as f64));
        for c in &outcome.cells {
            s.cell_s.push(c.wall_s);
            s.warm_cells += usize::from(c.warm_started);
            s.retries += c.retries;
            report.check(c.result.is_ok(), || {
                format!(
                    "cell {} quarantined: {}",
                    c.label,
                    c.result.clone().unwrap_err()
                )
            });
        }
        s.quarantined += outcome.n_failed();
        i += 1;
        if t0.elapsed().as_secs_f64() + wall > budget {
            return Ok((s, dir));
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }
}

/// Check the last sweep's outputs: every cell export loads strictly and
/// re-encodes byte-identically; one cell, replayed standalone the way
/// `dmsa simulate --fork-at` runs it, writes the same bytes; and that
/// cell is analysable end to end (Exact ⊆ RM1 ⊆ RM2).
fn check_outputs(
    ctx: &Ctx,
    grid: &SweepGrid,
    dir: &Path,
    counts: &mut Counts,
    report: &mut Report,
) -> Result<(), String> {
    let cells = grid.expand()?;
    for cell in &cells {
        let path = dir.join(dmsa_cli::sweep::export_file_name(&cell.label));
        let r = crate::pipeline::check_strict_roundtrip(&path);
        report.check(r.is_ok(), || r.unwrap_err());
    }
    let cell = &cells[(ctx.seed % cells.len() as u64) as usize];
    let root = ctx.tracer.span("sweep.check", 0);
    let campaign = {
        let _s = ctx.tracer.span("scenario.run", root.id());
        dmsa_scenario::run_forked(
            &cell.base,
            &cell.config,
            SimTime::EPOCH + SimDuration::from_hours(WARM_START_H),
        )?
    };
    counts.add("scenario.events", campaign.events_processed as f64);
    let replay = ctx.work.join("replay.json");
    let bytes = layers::write_export(ctx, root.id(), counts, &campaign, &replay)?;
    drop(campaign);
    let cell_path = dir.join(dmsa_cli::sweep::export_file_name(&cell.label));
    let same = std::fs::read_to_string(&cell_path).is_ok_and(|c| c == bytes);
    report.check(same, || {
        format!("cell {} differs from its standalone replay", cell.label)
    });
    let loaded = layers::load_export(ctx, root.id(), counts, &cell_path)?;
    let a = layers::analyze(ctx, root.id(), counts, &loaded.export)?;
    let sub = layers::check_subsumption(&a.sets);
    report.check(loaded.quarantine.is_empty() && sub.is_ok(), || {
        format!(
            "cell {}: {}",
            cell.label,
            sub.err().unwrap_or_else(|| loaded.quarantine.one_line())
        )
    });
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let scale = if ctx.small { SMALL_SCALE } else { SCALE };
    let grid = grid(ctx.seed, scale, DURATION_H)?;
    report.env("loop", "sweeps back to back, cells on a worker pool");
    report.env("scale", scale);
    report.env("cells", grid.n_cells());
    report.env("jobs", ctx.nproc);
    report.env("threads", ctx.nproc);
    report.env("grid", format!("2 seeds x {FAIL_PROBS:?} fail probs x [{BREAKERS}], {DURATION_H}h, warm start at {WARM_START_H}h"));

    // Set-up: a small sweep of the same shape (thread pool, journal,
    // exports and allocator warm).
    let warm = grid_small(ctx.seed)?;
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let dir = ctx.work.join(format!("setup-{i}"));
        let outcome = run_sweep(&warm, &opts(ctx, &dir, 20))?;
        if outcome.n_failed() > 0 {
            return Err(format!(
                "warm-up sweep quarantined {} cell(s)",
                outcome.n_failed()
            ));
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    report.e2e("setup_s", median(&setups), "s");

    let (untraced_budget, traced_budget) = ctx.legs();
    let (s, dir) = leg(ctx, &grid, untraced_budget, "sweep", &mut report)?;
    report.env("sweeps", s.rates.len());
    let cells_per_s = median(&s.rates);
    report.e2e("throughput_per_s", cells_per_s, "1/s");
    report.e2e("p50_ms", 1e3 * median(&s.cell_s), "ms");
    let (pct, t) = tail(&s.cell_s);
    report.e2e("tail_ms", 1e3 * t, "ms");
    report.detail("cells_per_s", cells_per_s, "1/s");
    report.detail("tail_percentile", pct, "pct");
    report.detail("sweep.cell_p50_s", median(&s.cell_s), "s");
    report.detail(
        "sweep.cell_max_s",
        s.cell_s.iter().copied().fold(0.0, f64::max),
        "s",
    );

    let mut counts = Counts::default();
    if ctx.trace {
        ctx.tracer.set_enabled(true);
        let (ts, tdir) = leg(ctx, &grid, traced_budget, "traced", &mut report)?;
        check_outputs(ctx, &grid, &tdir, &mut counts, &mut report)?;
        ctx.tracer.set_enabled(false);
        report.layer(
            "sweep.cells",
            (s.cell_s.len() + ts.cell_s.len()) as f64,
            "count",
        );
        report.layer(
            "sweep.warm_cells",
            (s.warm_cells + ts.warm_cells) as f64,
            "count",
        );
        report.layer("sweep.retries", f64::from(s.retries + ts.retries), "count");
        report.layer(
            "sweep.quarantined",
            (s.quarantined + ts.quarantined) as f64,
            "count",
        );
        report.layer("sweep.parallel_eff", median(&s.eff), "ratio");
        layers::emit(ctx, &counts, &mut report);
        // The measured operation is one sweep: compare sweep walls.
        let untraced_ms = 1e3 * grid.n_cells() as f64 / cells_per_s;
        let traced_ms = 1e3 * grid.n_cells() as f64 / median(&ts.rates);
        layers::trace_summary(ctx, &["sweep.run"], untraced_ms, traced_ms, &mut report);
    } else {
        check_outputs(ctx, &grid, &dir, &mut counts, &mut report)?;
    }
    Ok(report)
}

/// The warm-up grid: the same 18 cells over one day.
fn grid_small(seed: u64) -> Result<SweepGrid, String> {
    grid(seed, WARM_SCALE, 24)
}
