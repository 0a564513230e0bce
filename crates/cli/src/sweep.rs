//! `dmsa sweep`: a parallel, self-healing ablation-fleet runner.
//!
//! Expands a config grid ([`dmsa_scenario::SweepGrid`]: presets × seeds
//! × fault rates × breaker settings), runs every cell deterministically
//! across a capped worker pool, and aggregates the per-cell campaigns
//! into one machine-readable `sweep_summary.json` plus a human report.
//!
//! Supervision layer (see DESIGN.md §5k): every sweep keeps an
//! append-only [`crate::journal`] of per-cell lifecycle transitions, so
//! `--resume` after a crash replays the journal, re-validates surviving
//! exports (checksum against the journaled stamp, then the
//! [`crate::verify`] content auditor), adopts verified-complete cells
//! and re-dispatches only the rest — ending byte-identical to an
//! uninterrupted sweep. Transient `storage:` failures are retried at
//! the cell level (`--cell-retries`, exponential backoff), and
//! `--cell-timeout` threads a cooperative [`CancelToken`] deadline into
//! each cell's hot loop so a hung cell is quarantined as `timeout:`
//! instead of wedging the fleet.
//!
//! Determinism split: `sweep_summary.json` contains only deterministic
//! facts (it must compare byte-equal across crash/resume and across
//! inert chaos drills), while everything timing- and process-shaped —
//! wall clocks, worker count, how many cells were adopted on resume —
//! lives in the `sweep_ops.json` sidecar.
//!
//! Three properties the tests pin:
//!
//! * **Byte-identity** — every cell's export equals a standalone
//!   `dmsa simulate` with the same config/seed. Warm-started cells fork
//!   from a shared prefix, which equals `dmsa simulate --fork-at` of
//!   the same `(base, cell)` pair. Resumed and cell-retried sweeps
//!   reproduce the artifacts of clean first-attempt sweeps exactly.
//! * **Warm-start sharing** — cells agreeing on `(preset, seed)` pay
//!   the `[0, warm_start_at)` prefix once, via
//!   [`dmsa_scenario::SharedPrefix::new`]; each cell then continues from
//!   a memcpy-scale copy of the live prefix state
//!   ([`dmsa_scenario::Start::Prefix`]) rather than re-decoding a byte
//!   snapshot per cell. SIGTERM aborts a prefix as it aborts a cell.
//! * **Failure isolation** — one panicking cell is quarantined (its row
//!   records the panic, the summary counts it, the exit code reflects
//!   partial success); the rest of the fleet completes.

use crate::atomic::write_atomic_via;
use crate::export::ExportParts;
use crate::journal::{self, SweepJournal};
use crate::verify::{self, FileVerdict};
use crate::vfs::{self, ChaosProfile, IoBackend, IoRetryPolicy, RealBackend};
use dmsa_analysis::sweep::{
    aggregate, cell_metrics, classify_failure, CellFailureClass, CellMetrics, KnobGroup,
};
use dmsa_scenario::{
    BreakerSetting, Campaign, CancelToken, DrainOpts, GridCell, SharedPrefix, Start, SweepGrid,
};
use dmsa_simcore::codec::crc32;
use dmsa_simcore::stats::Summary;
use dmsa_simcore::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Schema tag written into `sweep_summary.json`. v2 split the summary:
/// deterministic facts stay here, timing moved to [`OPS_SCHEMA`].
pub const SWEEP_SCHEMA: &str = "dmsa-sweep-summary-v2";

/// Schema tag of the `sweep_ops.json` sidecar: process history (wall
/// clocks, worker count, resume adoption) that legitimately differs
/// between byte-identical sweeps.
pub const OPS_SCHEMA: &str = "dmsa-sweep-ops-v1";

/// Sweep execution knobs.
#[derive(Clone, Debug)]
pub struct SweepOpts {
    /// Worker-pool cap (`--jobs`); 0 means one worker per available core.
    pub jobs: usize,
    /// Warm-start divergence time (`--warm-start-at`): cells sharing a
    /// `(preset, seed)` base pay the `[0, at)` prefix once. `None` runs
    /// every cell cold from t=0.
    pub warm_start_at: Option<SimDuration>,
    /// Directory receiving `cell-<label>.json` exports and
    /// `sweep_summary.json`.
    pub out_dir: PathBuf,
    /// Write the per-cell campaign exports (the default). `false` keeps
    /// only the aggregated summary — metrics are computed straight from
    /// each in-memory campaign — which `bench_sweep` uses to time fleet
    /// compute without the export serialization/IO term (identical in
    /// every mode, and pinned byte-identical by the sweep tests).
    pub write_cell_exports: bool,
    /// Polled before each cell is dispatched *and* inside each running
    /// cell's tick loop (via its [`CancelToken`] probe); `true` stops
    /// the fleet: in-flight cells abort as `interrupted:`, unstarted
    /// cells are quarantined, and the partial summary is still written.
    /// The CLI wires [`crate::signals::termination_requested`] (Ctrl-C /
    /// SIGTERM) here; `None` never interrupts.
    pub interrupt: Option<fn() -> bool>,
    /// Storage-fault injection profile (`--chaos-profile`); `None` is
    /// the real filesystem.
    pub chaos: Option<ChaosProfile>,
    /// Backoff policy for individual cell-export and summary writes.
    pub retry: IoRetryPolicy,
    /// Replay `sweep-journal.dmsaj` in the out dir and adopt cells whose
    /// journaled completion still checks out on disk (`--resume`).
    pub resume: bool,
    /// Whole-cell retries for `storage:`-quarantined cells
    /// (`--cell-retries`): the cell re-runs from scratch — deterministic,
    /// so a healed retry is byte-identical to a clean first attempt.
    pub cell_retries: u32,
    /// Cooperative per-cell deadline (`--cell-timeout`): each attempt
    /// gets this much wall clock before its [`CancelToken`] trips and
    /// the cell is quarantined as `timeout:`. `None` never times out.
    pub cell_timeout: Option<Duration>,
    /// Delay before the first cell-level retry; doubles per retry.
    pub cell_backoff: Duration,
}

impl Default for SweepOpts {
    fn default() -> Self {
        SweepOpts {
            jobs: 1,
            warm_start_at: None,
            out_dir: PathBuf::new(),
            write_cell_exports: true,
            interrupt: None,
            chaos: None,
            retry: IoRetryPolicy::default(),
            resume: false,
            cell_retries: 0,
            cell_timeout: None,
            cell_backoff: Duration::from_millis(250),
        }
    }
}

/// What happened to one cell.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    pub label: String,
    pub seed: u64,
    pub knobs: Vec<(String, String)>,
    pub warm_started: bool,
    /// Wall-clock seconds this cell took (run + export + write); 0 for
    /// cells adopted from a journal.
    pub wall_s: f64,
    /// Metrics on success; the classified failure reason on failure.
    pub result: Result<CellMetrics, String>,
    /// Export file name (relative to the out dir), when written.
    pub export_file: Option<String>,
    /// Adopted from the journal by `--resume` instead of re-run.
    pub resumed: bool,
    /// Cell-level retries this outcome consumed (0 = first attempt).
    pub retries: u32,
}

/// The whole fleet's outcome.
#[derive(Debug)]
pub struct SweepOutcome {
    pub cells: Vec<CellOutcome>,
    /// Per-knob aggregation rows over the successful cells.
    pub rows: Vec<KnobGroup>,
    pub wall_s: f64,
    pub jobs: usize,
    pub warm_start_at: Option<SimDuration>,
    /// The fleet stopped early on an interrupt (Ctrl-C): some cells may
    /// be quarantined as never-started, and the summary is partial.
    pub interrupted: bool,
}

impl SweepOutcome {
    pub fn n_failed(&self) -> usize {
        self.cells.iter().filter(|c| c.result.is_err()).count()
    }

    /// Cells adopted from the journal by `--resume`.
    pub fn n_resumed(&self) -> usize {
        self.cells.iter().filter(|c| c.resumed).count()
    }

    /// Cells that needed at least one cell-level (`storage:`) retry.
    pub fn n_retried(&self) -> usize {
        self.cells.iter().filter(|c| c.retries > 0).count()
    }

    /// Cells quarantined by their cooperative `--cell-timeout` deadline.
    pub fn n_timed_out(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| {
                matches!(&c.result,
                    Err(e) if classify_failure(e) == CellFailureClass::Timeout)
            })
            .count()
    }

    /// Some cell failed for a storage reason rather than a simulation
    /// one — its error carries the `storage:` prefix [`run_sweep_with`]
    /// attaches when an export write exhausts its retry budget. Those
    /// cells are quarantined (metrics lost, row kept) instead of
    /// aborting the fleet.
    pub fn degraded_storage(&self) -> bool {
        self.cells
            .iter()
            .any(|c| matches!(&c.result, Err(e) if e.starts_with("storage:")))
    }

    /// Throughput over the whole fleet; denominator clamped so a
    /// sub-resolution wall clock can never put `inf` in the JSON.
    pub fn cells_per_s(&self) -> f64 {
        safe_ratio(self.cells.len() as f64, self.wall_s)
    }
}

/// `num / den` with the denominator clamped away from zero — the one
/// ratio guard every tracked-JSON number goes through, so hand-rolled
/// writers never see `inf`/`NaN`.
pub fn safe_ratio(num: f64, den: f64) -> f64 {
    num / den.max(1e-9)
}

/// Split a `--seeds`-style comma list, ignoring blanks.
fn split_list(s: &str) -> impl Iterator<Item = &str> {
    s.split(',').map(str::trim).filter(|t| !t.is_empty())
}

/// Largest seed a campaign export carries exactly. `cli::json` reads
/// numbers as `f64`, so a larger seed writes an export that strict load
/// refuses and that a sweep's `--resume` audit can never adopt.
pub const MAX_SEED: u64 = 1 << 53;

/// Parse one `--seed`/`--seeds` value, bounded at [`MAX_SEED`].
pub fn parse_seed(t: &str) -> Result<u64, String> {
    let seed: u64 = t.parse().map_err(|e| format!("bad seed {t:?}: {e}"))?;
    if seed > MAX_SEED {
        return Err(format!(
            "bad seed {t:?}: above the limit 2^53 = {MAX_SEED} that an export carries exactly"
        ));
    }
    Ok(seed)
}

/// Parse a `--seeds 1,7,42` axis.
pub fn parse_seeds(s: &str) -> Result<Vec<u64>, String> {
    split_list(s).map(parse_seed).collect()
}

/// Parse a `--fail-probs 0.05,0.2` axis.
pub fn parse_fail_probs(s: &str) -> Result<Vec<f64>, String> {
    split_list(s)
        .map(|t| match t.parse::<f64>() {
            Ok(p) if (0.0..=1.0).contains(&p) => Ok(p),
            _ => Err(format!("bad fail probability {t:?} (want 0..=1)")),
        })
        .collect()
}

/// Parse a `--breakers off,adaptive,adaptive:600` axis — `adaptive:SECS`
/// overrides the open-state cooldown.
pub fn parse_breakers(s: &str) -> Result<Vec<BreakerSetting>, String> {
    split_list(s)
        .map(|t| match t {
            "off" => Ok(BreakerSetting::Off),
            "adaptive" => Ok(BreakerSetting::Adaptive {
                cooldown_secs: None,
            }),
            other => match other.strip_prefix("adaptive:") {
                Some(secs) => match secs.parse::<i64>() {
                    Ok(s) if s > 0 => Ok(BreakerSetting::Adaptive {
                        cooldown_secs: Some(s),
                    }),
                    _ => Err(format!(
                        "bad breaker cooldown {secs:?} (want positive secs)"
                    )),
                },
                None => Err(format!(
                    "bad breaker {other:?} (off | adaptive | adaptive:SECS)"
                )),
            },
        })
        .collect()
}

/// Runs one cell to a campaign; `prefix` is the shared warm-start state
/// when the sweep runs warm, `cancel` the cell's cooperative token (the
/// production runner threads it into the simulation's tick loop; a
/// runner ignoring it merely opts out of deadlines). Injectable so
/// tests can make a specific cell panic and watch the fleet survive.
pub type CellRunner =
    dyn Fn(&GridCell, Option<&SharedPrefix>, &CancelToken) -> Result<Campaign, String> + Sync;

/// The production runner: cold cells run from t=0, warm cells fork the
/// shared prefix under the cell's (knob-applied) config — both
/// cancelable between event batches.
pub fn run_cell(
    cell: &GridCell,
    prefix: Option<&SharedPrefix>,
    cancel: &CancelToken,
) -> Result<Campaign, String> {
    let start = match prefix {
        None => Start::Cold,
        Some(p) => Start::Prefix(p),
    };
    let opts = DrainOpts {
        start,
        cancel: Some(cancel),
        ..DrainOpts::default()
    };
    dmsa_scenario::drain(&cell.config, opts)
}

/// The canonical export name of a cell.
pub fn export_file_name(label: &str) -> String {
    format!("cell-{label}.json")
}

/// Run the fleet with the production cell runner.
pub fn run_sweep(grid: &SweepGrid, opts: &SweepOpts) -> Result<SweepOutcome, String> {
    run_sweep_with(grid, opts, &run_cell)
}

/// Best-effort journal append: the journal is a flight recorder, so a
/// failing append costs resume coverage, never the sweep.
fn jnote(r: Result<(), String>) {
    if let Err(e) = r {
        eprintln!("{e} (sweep continues; resume coverage reduced)");
    }
}

/// The checksum stamp of a written export, journaled so resume can
/// re-validate the artifact without trusting its bytes.
struct ExportStamp {
    name: String,
    crc: u32,
    len: u64,
}

/// One cell's end state plus its supervision history.
struct CellRun {
    result: Result<CellMetrics, String>,
    retries: u32,
    export: Option<ExportStamp>,
}

/// [`run_sweep`] with an injected cell runner (panic-isolation tests).
pub fn run_sweep_with(
    grid: &SweepGrid,
    opts: &SweepOpts,
    runner: &CellRunner,
) -> Result<SweepOutcome, String> {
    let cells = grid.expand()?;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    let jobs = if opts.jobs == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        opts.jobs
    };
    let io = vfs::backend_for(opts.chaos.as_ref());
    let t0 = Instant::now();

    let header = journal::Header {
        grid_fingerprint: grid.fingerprint()?,
        n_cells: cells.len(),
        warm_start_at_ms: opts.warm_start_at.map(|at| at.as_millis()),
    };

    // Resume ladder: replay the journal, adopt cells whose completion
    // record still checks out against the artifact on disk, re-dispatch
    // everything else. Every rung degrades to "run it again" — resume
    // can reduce work, never correctness.
    let mut adopted: HashMap<usize, (CellOutcome, journal::Record)> = HashMap::new();
    if opts.resume {
        match journal::load(&opts.out_dir) {
            Ok(None) => eprintln!(
                "sweep resume: no journal in {}; starting cold",
                opts.out_dir.display()
            ),
            Err(e) => eprintln!("sweep resume: journal unreadable ({e}); starting cold"),
            Ok(Some(replay)) => {
                if replay.header != header {
                    eprintln!(
                        "sweep resume: journal belongs to a different sweep \
                         (grid fingerprint / cell count / warm-start mismatch); starting cold"
                    );
                } else {
                    if let Some(t) = &replay.torn_tail {
                        eprintln!(
                            "sweep resume: journal tail damaged ({t}); \
                             salvaging {} records",
                            replay.records.len()
                        );
                    }
                    // Last completion per label wins (a label completes
                    // at most once per journal generation anyway).
                    let mut completed: HashMap<&str, &journal::Record> = HashMap::new();
                    for rec in &replay.records {
                        if let journal::Record::Completed { label, .. } = rec {
                            completed.insert(label.as_str(), rec);
                        }
                    }
                    for (i, cell) in cells.iter().enumerate() {
                        if let Some(rec) = completed.get(cell.label.as_str()) {
                            match adopt_cell(cell, rec, opts) {
                                Ok(pair) => {
                                    adopted.insert(i, pair);
                                }
                                Err(why) => {
                                    eprintln!("sweep resume: re-dispatching {}: {why}", cell.label)
                                }
                            }
                        }
                    }
                    eprintln!(
                        "sweep resume: adopted {} of {} cells from the journal",
                        adopted.len(),
                        cells.len()
                    );
                }
            }
        }
    }

    // Fresh journal generation: header, then the adopted completions
    // re-emitted, so the file never accretes stale generations and a
    // second resume sees one coherent manifest.
    let jrnl = match SweepJournal::create(&opts.out_dir, &header) {
        Ok(j) => Some(j),
        Err(e) => {
            eprintln!("{e} (sweep continues without a journal; --resume will start cold)");
            None
        }
    };
    if let Some(j) = &jrnl {
        for i in 0..cells.len() {
            if let Some((_, rec)) = adopted.get(&i) {
                jnote(j.append(rec));
            }
        }
    }

    let todo: Vec<usize> = (0..cells.len())
        .filter(|i| !adopted.contains_key(i))
        .collect();

    // Shared prefixes, one per distinct base config (= per (preset,
    // seed) group) that still has work, computed across the same worker
    // pool. A panicking prefix poisons only its own group's cells. The
    // interrupt probe reaches into each prefix run (the per-cell deadline
    // does not: a prefix serves a whole group), and an aborted prefix
    // quarantines its group as `interrupted:`. Each entry holds the
    // reason its group's cells fail with.
    let mut prefixes: HashMap<u64, Result<SharedPrefix, String>> = HashMap::new();
    if let Some(at) = opts.warm_start_at {
        let divergence = SimTime::EPOCH + at;
        let mut groups: Vec<(u64, &GridCell)> = Vec::new();
        for &i in &todo {
            let cell = &cells[i];
            let key = cell.base.behavior_fingerprint();
            if !groups.iter().any(|(k, _)| *k == key) {
                groups.push((key, cell));
            }
        }
        let cancel = opts
            .interrupt
            .map(|stop| CancelToken::new().with_probe(stop));
        let snaps = run_pool(groups.len(), jobs, opts.interrupt, |i| {
            let (_, cell) = groups[i];
            match catch_unwind(AssertUnwindSafe(|| {
                SharedPrefix::new(&cell.base, divergence, cancel.as_ref())
            })) {
                Ok(Ok(prefix)) => Ok(prefix),
                Ok(Err(e)) => Err(format!(
                    "interrupted: shared prefix aborted by termination request ({e})"
                )),
                Err(p) => Err(format!(
                    "shared prefix unavailable: prefix for {} panicked: {}",
                    cell.label,
                    panic_msg(&*p)
                )),
            }
        });
        for ((key, _), snap) in groups.into_iter().zip(snaps) {
            prefixes.insert(
                key,
                snap.unwrap_or_else(|| Err("interrupted: shared prefix never started".into())),
            );
        }
    }

    let slots = run_pool(todo.len(), jobs, opts.interrupt, |k| {
        let cell = &cells[todo[k]];
        let cell_t0 = Instant::now();
        if let Some(j) = &jrnl {
            jnote(j.append(&journal::Record::Dispatched {
                label: cell.label.clone(),
            }));
        }
        let prefix = opts.warm_start_at.map(|_| {
            prefixes[&cell.base.behavior_fingerprint()]
                .as_ref()
                .map_err(Clone::clone)
        });
        let run = run_one(cell, prefix, runner, opts, &*io, jrnl.as_ref());
        if let Some(j) = &jrnl {
            let rec = match &run.result {
                Ok(m) => journal::Record::Completed {
                    label: cell.label.clone(),
                    export: run.export.as_ref().map(|s| s.name.clone()),
                    export_crc: run.export.as_ref().map_or(0, |s| s.crc),
                    export_len: run.export.as_ref().map_or(0, |s| s.len),
                    metrics: *m,
                    retries: run.retries,
                },
                Err(e) => journal::Record::Quarantined {
                    label: cell.label.clone(),
                    retries: run.retries,
                    reason: e.clone(),
                },
            };
            jnote(j.append(&rec));
        }
        CellOutcome {
            label: cell.label.clone(),
            seed: cell.seed,
            knobs: cell.knobs.clone(),
            warm_started: opts.warm_start_at.is_some(),
            wall_s: cell_t0.elapsed().as_secs_f64(),
            export_file: run.export.as_ref().map(|s| s.name.clone()),
            result: run.result,
            resumed: false,
            retries: run.retries,
        }
    });
    let mut ran: HashMap<usize, CellOutcome> = todo
        .iter()
        .zip(slots)
        .filter_map(|(&i, slot)| slot.map(|out| (i, out)))
        .collect();

    // Cells the pool never claimed (interrupt observed first) are
    // quarantined explicitly, not silently dropped: their rows appear in
    // the summary with an `interrupted` error, they count as failed, and
    // the exit code reports partial success.
    let outcomes: Vec<CellOutcome> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            if let Some((out, _)) = adopted.remove(&i) {
                return out;
            }
            if let Some(out) = ran.remove(&i) {
                return out;
            }
            let reason = "interrupted: cell never started".to_string();
            if let Some(j) = &jrnl {
                jnote(j.append(&journal::Record::Quarantined {
                    label: cell.label.clone(),
                    retries: 0,
                    reason: reason.clone(),
                }));
            }
            CellOutcome {
                label: cell.label.clone(),
                seed: cell.seed,
                knobs: cell.knobs.clone(),
                warm_started: opts.warm_start_at.is_some(),
                wall_s: 0.0,
                result: Err(reason),
                export_file: None,
                resumed: false,
                retries: 0,
            }
        })
        .collect();

    let ok: Vec<(Vec<(String, String)>, CellMetrics)> = outcomes
        .iter()
        .filter_map(|c| c.result.as_ref().ok().map(|m| (c.knobs.clone(), *m)))
        .collect();
    let outcome = SweepOutcome {
        rows: aggregate(&ok),
        cells: outcomes,
        wall_s: t0.elapsed().as_secs_f64(),
        jobs,
        warm_start_at: opts.warm_start_at,
        interrupted: opts.interrupt.is_some_and(|stop| stop()),
    };

    // The summary and ops sidecar are the drill's flight recorders, so
    // they deliberately bypass the chaos backend: a drill that could eat
    // its own report would be undebuggable. They still retry real
    // transient faults.
    let mut note = |line: String| eprintln!("{line}");
    for (file, content) in [
        ("sweep_summary.json", summary_json(&outcome)),
        ("sweep_ops.json", ops_json(&outcome)),
    ] {
        let path = opts.out_dir.join(file);
        vfs::with_retry(&opts.retry, &format!("{file} write"), &mut note, || {
            write_atomic_via(&RealBackend, &path, content.as_bytes()).map_err(|e| e.to_string())
        })
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(outcome)
}

/// Check one journaled completion against the artifact on disk: name,
/// length, CRC against the journaled stamp, then the [`crate::verify`]
/// content audit. Any mismatch re-dispatches the cell (the `Err` is the
/// operator-facing reason), it never fails the sweep.
fn adopt_cell(
    cell: &GridCell,
    rec: &journal::Record,
    opts: &SweepOpts,
) -> Result<(CellOutcome, journal::Record), String> {
    let journal::Record::Completed {
        export,
        export_crc,
        export_len,
        metrics,
        retries,
        ..
    } = rec
    else {
        return Err("not a completion record".into());
    };
    if opts.write_cell_exports {
        let name = export
            .as_deref()
            .ok_or("journal records no export but this sweep writes them")?;
        if name != export_file_name(&cell.label) {
            return Err(format!("journaled export name {name:?} is not the cell's"));
        }
        let path = opts.out_dir.join(name);
        let bytes = std::fs::read(&path).map_err(|e| format!("export {name} unreadable: {e}"))?;
        if bytes.len() as u64 != *export_len {
            return Err(format!(
                "export {name} is {} bytes, journal stamped {export_len}",
                bytes.len()
            ));
        }
        if crc32(&bytes) != *export_crc {
            return Err(format!("export {name} fails its journaled checksum"));
        }
        match verify::verify_file(&path) {
            FileVerdict::Ok {
                kind: "campaign", ..
            } => {}
            FileVerdict::Ok { kind, .. } => {
                return Err(format!("export audits as {kind}, not a campaign"))
            }
            FileVerdict::Corrupt { reason, .. } => {
                return Err(format!("export fails the content audit: {reason}"))
            }
            FileVerdict::Skipped { reason } => {
                return Err(format!("export not recognised by the auditor: {reason}"))
            }
        }
    } else if export.is_some() {
        return Err("journal records an export but this sweep is metrics-only".into());
    }
    Ok((
        CellOutcome {
            label: cell.label.clone(),
            seed: cell.seed,
            knobs: cell.knobs.clone(),
            warm_started: opts.warm_start_at.is_some(),
            wall_s: 0.0,
            result: Ok(*metrics),
            export_file: export.clone(),
            resumed: true,
            retries: *retries,
        },
        rec.clone(),
    ))
}

/// One cell under supervision: run attempts until success, a
/// non-transient failure, or the `--cell-retries` budget is spent.
/// Only `storage:`-classified failures are transient by definition —
/// the simulation itself is deterministic, so re-running a panic or a
/// timeout would reproduce it.
fn run_one(
    cell: &GridCell,
    prefix: Option<Result<&SharedPrefix, String>>,
    runner: &CellRunner,
    opts: &SweepOpts,
    io: &dyn IoBackend,
    jrnl: Option<&SweepJournal>,
) -> CellRun {
    let prefix = match prefix.transpose() {
        Ok(p) => p,
        Err(e) => {
            return CellRun {
                result: Err(e),
                retries: 0,
                export: None,
            }
        }
    };
    let mut retries = 0;
    loop {
        match attempt_cell(cell, prefix, runner, opts, io) {
            Ok((metrics, export)) => {
                return CellRun {
                    result: Ok(metrics),
                    retries,
                    export,
                }
            }
            Err(e) => {
                let transient = classify_failure(&e) == CellFailureClass::Storage;
                if !transient || retries >= opts.cell_retries {
                    return CellRun {
                        result: Err(e),
                        retries,
                        export: None,
                    };
                }
                retries += 1;
                if let Some(j) = jrnl {
                    jnote(j.append(&journal::Record::RetryScheduled {
                        label: cell.label.clone(),
                        attempt: retries,
                        reason: e,
                    }));
                }
                // Exponential backoff between whole-cell attempts; the
                // rerun is deterministic, so a healed retry's artifact is
                // byte-identical to a clean first attempt.
                let backoff = opts
                    .cell_backoff
                    .saturating_mul(1u32 << (retries - 1).min(20));
                std::thread::sleep(backoff);
            }
        }
    }
}

/// One attempt end-to-end: run (panics caught, cancelation classified),
/// metrics, and — unless the sweep is metrics-only — export + write. A
/// write that exhausts its retry budget fails the attempt with a
/// `storage:`-prefixed reason instead of taking down the fleet.
fn attempt_cell(
    cell: &GridCell,
    prefix: Option<&SharedPrefix>,
    runner: &CellRunner,
    opts: &SweepOpts,
    io: &dyn IoBackend,
) -> Result<(CellMetrics, Option<ExportStamp>), String> {
    let mut cancel = CancelToken::default();
    if let Some(stop) = opts.interrupt {
        cancel = cancel.with_probe(stop);
    }
    if let Some(t) = opts.cell_timeout {
        cancel = cancel.with_deadline(Instant::now() + t);
    }
    let campaign = catch_unwind(AssertUnwindSafe(|| runner(cell, prefix, &cancel)))
        .map_err(|p| format!("panicked: {}", panic_msg(&*p)))?
        .map_err(|e| classify_cancel(e, &cancel, opts))?;
    let metrics = cell_metrics(
        &campaign.store,
        campaign.window,
        campaign.path_stats,
        campaign.health.as_ref(),
    );
    let export = if opts.write_cell_exports {
        Some(EXPORT_BUF.with_borrow_mut(|buf| write_cell_export(cell, &campaign, buf, opts, io))?)
    } else {
        None
    };
    Ok((metrics, export))
}

thread_local! {
    /// The export buffer of this worker thread: each cell renders into
    /// it and the next cell reuses its pages.
    static EXPORT_BUF: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Render a cell's export into `buf`, publish it with one atomic write
/// and stamp it.
fn write_cell_export(
    cell: &GridCell,
    campaign: &Campaign,
    buf: &mut String,
    opts: &SweepOpts,
    io: &dyn IoBackend,
) -> Result<ExportStamp, String> {
    let name = export_file_name(&cell.label);
    let path = opts.out_dir.join(&name);
    ExportParts::of_campaign(campaign).write_into(buf);
    let bytes = buf.as_bytes();
    let mut note = |line: String| eprintln!("{line}");
    vfs::with_retry(&opts.retry, "cell export write", &mut note, || {
        write_atomic_via(io, &path, bytes).map_err(|e| e.to_string())
    })
    .map_err(|e| format!("storage: writing {}: {e}", path.display()))?;
    Ok(ExportStamp {
        name,
        crc: crc32(bytes),
        len: bytes.len() as u64,
    })
}

/// A cooperative cancel aborts with a uniform `canceled:` error; the
/// supervisor — which knows why the token tripped — rewrites it into the
/// quarantine taxonomy: `timeout:` (this cell overran its deadline,
/// `--resume` re-dispatches it) or `interrupted:` (the whole fleet is
/// stopping).
fn classify_cancel(e: String, cancel: &CancelToken, opts: &SweepOpts) -> String {
    if !e.starts_with("canceled:") {
        return e;
    }
    if cancel.deadline_exceeded() {
        let secs = opts.cell_timeout.map_or(0.0, |t| t.as_secs_f64());
        format!("timeout: cell exceeded its {secs}s cooperative deadline ({e})")
    } else {
        format!("interrupted: cell aborted by termination request ({e})")
    }
}

/// Fixed-size worker pool over indices `0..n`: `jobs` threads pull the
/// next index from a shared counter. Results land in input order, so
/// downstream output is deterministic regardless of scheduling. `f`
/// must not panic (cell panics are caught inside it). `stop` is polled
/// before each claim; once it reports true, workers finish what they
/// hold and claim nothing more — unclaimed slots come back `None`.
fn run_pool<T: Send, F: Fn(usize) -> T + Sync>(
    n: usize,
    jobs: usize,
    stop: Option<fn() -> bool>,
    f: F,
) -> Vec<Option<T>> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs.clamp(1, n.max(1)) {
            s.spawn(|| loop {
                if stop.is_some_and(|should_stop| should_stop()) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned"))
        .collect()
}

fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// A float for hand-rolled JSON: plain decimal, never `inf`/`NaN`
/// (non-finite values — which no guarded ratio should produce — render
/// as `null` rather than corrupting the document).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            '\t' => o.push_str("\\t"),
            '\r' => o.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn summary_obj(s: &Summary) -> String {
    format!(
        "{{\"n\":{},\"mean\":{},\"sd\":{},\"p50\":{},\"p95\":{},\"ci95_lo\":{},\"ci95_hi\":{}}}",
        s.n,
        json_f64(s.mean),
        json_f64(s.sd),
        json_f64(s.p50),
        json_f64(s.p95),
        json_f64(s.ci95_lo),
        json_f64(s.ci95_hi),
    )
}

/// The machine-readable `sweep_summary.json`: stable key order, flat
/// enough to diff, floats guarded — and fully deterministic, so a
/// crashed-and-resumed sweep produces the byte-identical file an
/// uninterrupted sweep does. Timing and process shape live in
/// [`ops_json`]. Layout: `{schema, n_cells, n_failed, n_retried,
/// n_timed_out, degraded_storage, interrupted, warm_start_at_ms,
/// cells: [...], knob_rows: [...]}`.
pub fn summary_json(o: &SweepOutcome) -> String {
    let mut out = String::with_capacity(1024 + o.cells.len() * 256);
    out.push('{');
    let _ = write!(
        out,
        "\"schema\":{},\"n_cells\":{},\"n_failed\":{},\"n_retried\":{},\"n_timed_out\":{},\
         \"degraded_storage\":{},\"interrupted\":{}",
        json_str(SWEEP_SCHEMA),
        o.cells.len(),
        o.n_failed(),
        o.n_retried(),
        o.n_timed_out(),
        o.degraded_storage(),
        o.interrupted,
    );
    match o.warm_start_at {
        Some(at) => {
            let _ = write!(out, ",\"warm_start_at_ms\":{}", at.as_millis());
        }
        None => out.push_str(",\"warm_start_at_ms\":null"),
    }
    out.push_str(",\"cells\":[");
    for (i, c) in o.cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"label\":{},\"seed\":{},\"warm_started\":{},\"retries\":{}",
            json_str(&c.label),
            c.seed,
            c.warm_started,
            c.retries
        );
        out.push_str(",\"knobs\":{");
        for (k, (axis, value)) in c.knobs.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_str(axis), json_str(value));
        }
        out.push('}');
        match &c.result {
            Ok(m) => {
                let _ = write!(
                    out,
                    ",\"ok\":true,\"error\":null,\"export\":{},\"exhausted\":{},\
                     \"failed_attempts\":{},\"delivered\":{},\"requests\":{},\
                     \"retry_delay_secs\":{},\"excluded_hours\":{},\"trips\":{},\
                     \"jobs\":{},\"transfers\":{}",
                    c.export_file
                        .as_deref()
                        .map_or_else(|| "null".into(), json_str),
                    m.exhausted,
                    m.failed_attempts,
                    m.delivered,
                    m.requests,
                    json_f64(m.retry_delay_secs),
                    json_f64(m.excluded_hours),
                    m.trips,
                    m.jobs,
                    m.transfers
                );
            }
            Err(e) => {
                let _ = write!(
                    out,
                    ",\"ok\":false,\"error\":{},\"export\":null",
                    json_str(e)
                );
            }
        }
        out.push('}');
    }
    out.push_str("],\"knob_rows\":[");
    for (i, r) in o.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"axis\":{},\"value\":{},\"n_cells\":{},\"exhausted\":{},\
             \"failed_attempts\":{},\"retry_delay_secs\":{},\"excluded_hours\":{}}}",
            json_str(&r.axis),
            json_str(&r.value),
            r.n_cells,
            summary_obj(&r.exhausted),
            summary_obj(&r.failed_attempts),
            summary_obj(&r.retry_delay_secs),
            summary_obj(&r.excluded_hours)
        );
    }
    out.push_str("]}");
    out
}

/// The `sweep_ops.json` sidecar: everything about *this process's* run
/// of the sweep — wall clocks, worker count, resume adoption — which
/// legitimately differs between byte-identical sweeps and therefore
/// must not live in the summary.
pub fn ops_json(o: &SweepOutcome) -> String {
    let mut out = String::with_capacity(256 + o.cells.len() * 64);
    out.push('{');
    let _ = write!(
        out,
        "\"schema\":{},\"jobs\":{},\"wall_s\":{},\"cells_per_s\":{},\
         \"n_resumed\":{},\"interrupted\":{}",
        json_str(OPS_SCHEMA),
        o.jobs,
        json_f64(o.wall_s),
        json_f64(o.cells_per_s()),
        o.n_resumed(),
        o.interrupted,
    );
    out.push_str(",\"cells\":[");
    for (i, c) in o.cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"label\":{},\"wall_s\":{},\"resumed\":{},\"retries\":{}}}",
            json_str(&c.label),
            json_f64(c.wall_s),
            c.resumed,
            c.retries
        );
    }
    out.push_str("]}");
    out
}

/// The human report printed after a sweep.
pub fn human_report(o: &SweepOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sweep: {} cells ({} failed) | {} workers | {:.2} s wall | {:.2} cells/s{}",
        o.cells.len(),
        o.n_failed(),
        o.jobs,
        o.wall_s,
        o.cells_per_s(),
        match o.warm_start_at {
            Some(at) => format!(" | warm-started at {} h", at.as_millis() / 3_600_000),
            None => " | cold".into(),
        }
    );
    if o.n_resumed() > 0 || o.n_retried() > 0 || o.n_timed_out() > 0 {
        let _ = writeln!(
            out,
            "  self-healing: {} adopted on resume | {} healed by retry | {} timed out",
            o.n_resumed(),
            o.n_retried(),
            o.n_timed_out()
        );
    }
    if o.interrupted {
        let _ = writeln!(
            out,
            "  INTERRUPTED: fleet stopped early; summary is partial"
        );
    }
    for c in o.cells.iter().filter(|c| c.result.is_err()) {
        let why = c.result.as_ref().err().map(String::as_str).unwrap_or("");
        let _ = writeln!(out, "  FAILED {}: {}", c.label, why);
    }
    let _ = writeln!(
        out,
        "{:<10} {:<10} {:>5} {:>26} {:>22} {:>14}",
        "axis", "value", "cells", "exhausted mean [95% CI]", "retry delay s (p95)", "excl hours"
    );
    for r in &o.rows {
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:>5} {:>10.1} [{:>6.1},{:>6.1}] {:>14.0} ({:>5.0}) {:>14.2}",
            r.axis,
            r.value,
            r.n_cells,
            r.exhausted.mean,
            r.exhausted.ci95_lo,
            r.exhausted.ci95_hi,
            r.retry_delay_secs.mean,
            r.retry_delay_secs.p95,
            r.excluded_hours.mean
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::CampaignExport;
    use crate::json;
    use dmsa_scenario::{BreakerSetting, PresetAxis, ScenarioConfig};

    fn tiny_preset() -> ScenarioConfig {
        let mut c = ScenarioConfig::small_faulty();
        c.duration = SimDuration::from_hours(6);
        c.workload.tasks_per_hour = 10.0;
        c.initial_datasets = 20;
        c.background_transfers_per_hour = 50.0;
        c
    }

    fn tiny_grid() -> SweepGrid {
        SweepGrid {
            presets: vec![PresetAxis {
                name: "faulty".into(),
                base: tiny_preset(),
            }],
            seeds: vec![1, 2],
            fail_probs: vec![0.05, 0.2],
            breakers: vec![
                BreakerSetting::Off,
                BreakerSetting::Adaptive {
                    cooldown_secs: None,
                },
            ],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dmsa-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn axis_flag_parsing() {
        assert_eq!(parse_seeds("1, 7,42").unwrap(), vec![1, 7, 42]);
        assert!(parse_seeds("1,x").is_err());
        assert_eq!(parse_seeds("9007199254740992").unwrap(), vec![MAX_SEED]);
        let err = parse_seeds("1,9007199254740993").unwrap_err();
        assert!(
            err.contains("above the limit 2^53 = 9007199254740992"),
            "{err}"
        );
        assert!(parse_seed("18446744073709551615").is_err());
        assert_eq!(parse_fail_probs("0.05,0.2").unwrap(), vec![0.05, 0.2]);
        assert!(parse_fail_probs("1.5").is_err());
        assert_eq!(
            parse_breakers("off,adaptive,adaptive:600").unwrap(),
            vec![
                BreakerSetting::Off,
                BreakerSetting::Adaptive {
                    cooldown_secs: None
                },
                BreakerSetting::Adaptive {
                    cooldown_secs: Some(600)
                },
            ]
        );
        assert!(parse_breakers("on").is_err());
        assert!(parse_breakers("adaptive:-5").is_err());
        // Blank lists mean "axis absent".
        assert!(parse_fail_probs("").unwrap().is_empty());
    }

    #[test]
    fn safe_ratio_never_produces_non_finite() {
        assert!(safe_ratio(5.0, 0.0).is_finite());
        assert!(safe_ratio(0.0, 0.0).is_finite());
        assert_eq!(safe_ratio(10.0, 2.0), 5.0);
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn cold_sweep_cells_are_byte_identical_to_standalone_runs() {
        let dir = tmp_dir("cold");
        let grid = tiny_grid();
        let outcome = run_sweep(
            &grid,
            &SweepOpts {
                jobs: 2,
                warm_start_at: None,
                out_dir: dir.clone(),
                write_cell_exports: true,
                interrupt: None,
                ..SweepOpts::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.cells.len(), 8);
        assert_eq!(outcome.n_failed(), 0);
        for cell in grid.expand().unwrap() {
            let standalone =
                CampaignExport::from_campaign(&dmsa_scenario::run(&cell.config)).to_json();
            let from_sweep =
                std::fs::read_to_string(dir.join(export_file_name(&cell.label))).unwrap();
            assert_eq!(from_sweep, standalone, "cell {} diverged", cell.label);
        }
        // The journal manifest records every completion.
        let replay = journal::load(&dir).unwrap().expect("sweep journals");
        let completions = replay
            .records
            .iter()
            .filter(|r| matches!(r, journal::Record::Completed { .. }))
            .count();
        assert_eq!(completions, 8);
        assert!(replay.torn_tail.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_sweep_cells_are_byte_identical_to_standalone_forked_runs() {
        // At `jobs: 1` one worker's buffer renders every cell in grid
        // order, exports of different sizes in turn; at `jobs: 2` two
        // buffers share the cells. Either way each export must equal its
        // standalone bytes and carry their CRC stamp.
        let grid = tiny_grid();
        let at = SimDuration::from_hours(4);
        let cells = grid.expand().unwrap();
        let standalone: Vec<String> = cells
            .iter()
            .map(|cell| {
                CampaignExport::from_campaign(
                    &dmsa_scenario::run_forked(&cell.base, &cell.config, SimTime::EPOCH + at)
                        .unwrap(),
                )
                .to_json()
            })
            .collect();
        assert!(
            standalone.windows(2).any(|w| w[1].len() < w[0].len()),
            "the grid must render a smaller export after a larger one"
        );
        for jobs in [1, 2] {
            let dir = tmp_dir(&format!("warm-j{jobs}"));
            let outcome = run_sweep(
                &grid,
                &SweepOpts {
                    jobs,
                    warm_start_at: Some(at),
                    out_dir: dir.clone(),
                    write_cell_exports: true,
                    interrupt: None,
                    ..SweepOpts::default()
                },
            )
            .unwrap();
            assert_eq!(outcome.n_failed(), 0, "{:?}", outcome.cells);
            assert!(outcome.cells.iter().all(|c| c.warm_started));
            let replay = journal::load(&dir).unwrap().expect("sweep journals");
            for (cell, want) in cells.iter().zip(&standalone) {
                let from_sweep =
                    std::fs::read_to_string(dir.join(export_file_name(&cell.label))).unwrap();
                assert_eq!(
                    &from_sweep, want,
                    "jobs {jobs}: warm cell {} diverged",
                    cell.label
                );
                let stamp = replay.records.iter().find_map(|r| match r {
                    journal::Record::Completed {
                        label,
                        export_crc,
                        export_len,
                        ..
                    } if *label == cell.label => Some((*export_crc, *export_len)),
                    _ => None,
                });
                assert_eq!(
                    stamp,
                    Some((crc32(want.as_bytes()), want.len() as u64)),
                    "jobs {jobs}: cell {} stamp",
                    cell.label
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn one_panicking_cell_is_quarantined_and_the_fleet_completes() {
        let dir = tmp_dir("panic");
        let grid = tiny_grid();
        let victim = "faulty-s2-fp0.2-brkoff";
        let runner = move |cell: &GridCell, prefix: Option<&SharedPrefix>, cancel: &CancelToken| {
            if cell.label == victim {
                panic!("injected failure for {}", cell.label);
            }
            run_cell(cell, prefix, cancel)
        };
        let outcome = run_sweep_with(
            &grid,
            &SweepOpts {
                jobs: 2,
                warm_start_at: None,
                out_dir: dir.clone(),
                write_cell_exports: true,
                interrupt: None,
                ..SweepOpts::default()
            },
            &runner,
        )
        .unwrap();
        assert_eq!(outcome.cells.len(), 8);
        assert_eq!(outcome.n_failed(), 1);
        let failed = outcome.cells.iter().find(|c| c.result.is_err()).unwrap();
        assert_eq!(failed.label, victim);
        let why = failed.result.as_ref().err().unwrap();
        assert!(why.starts_with("panicked:"), "{why}");
        assert!(why.contains("injected failure"), "{why}");
        assert!(failed.export_file.is_none());
        assert!(!dir.join(export_file_name(victim)).exists());
        // The other 7 cells all delivered exports and metrics.
        assert_eq!(outcome.cells.iter().filter(|c| c.result.is_ok()).count(), 7);
        // The summary is still valid JSON and marks the failure.
        let summary = std::fs::read_to_string(dir.join("sweep_summary.json")).unwrap();
        let root = json::parse(&summary).expect("summary parses");
        assert_eq!(root.get("n_failed").and_then(|v| v.as_u64()), Some(1));
        // The journal quarantined the victim with the panic taxonomy.
        let replay = journal::load(&dir).unwrap().unwrap();
        assert!(replay.records.iter().any(|r| matches!(
            r,
            journal::Record::Quarantined { label, reason, .. }
                if label == victim && reason.starts_with("panicked:")
        )));
        // Aggregation rows cover only the survivors.
        let seed2_off: Vec<&KnobGroup> = outcome
            .rows
            .iter()
            .filter(|r| r.axis == "seed" && r.value == "2")
            .collect();
        assert_eq!(seed2_off[0].n_cells, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupt_quarantines_unstarted_cells_but_still_writes_the_summary() {
        use std::sync::atomic::AtomicBool;
        static STOP: AtomicBool = AtomicBool::new(false);
        STOP.store(false, Ordering::Relaxed);

        let dir = tmp_dir("interrupt");
        let grid = tiny_grid();
        // The first dispatched cell raises the "signal"; with one worker,
        // every later cell observes it before being claimed.
        let runner = |cell: &GridCell, prefix: Option<&SharedPrefix>, cancel: &CancelToken| {
            STOP.store(true, Ordering::Relaxed);
            // This runner ignores the probe on purpose (the production
            // runner would abort mid-cell): the test pins the dispatch-
            // level interrupt path specifically.
            let _ = cancel;
            run_cell(cell, prefix, &CancelToken::default())
        };
        let outcome = run_sweep_with(
            &grid,
            &SweepOpts {
                jobs: 1,
                warm_start_at: None,
                out_dir: dir.clone(),
                write_cell_exports: false,
                interrupt: Some(|| STOP.load(Ordering::Relaxed)),
                ..SweepOpts::default()
            },
            &runner,
        )
        .unwrap();

        assert!(outcome.interrupted);
        assert_eq!(outcome.cells.len(), 8, "every cell gets a row");
        // The in-flight cell finished; the rest were quarantined as
        // never-started rather than silently dropped.
        assert_eq!(outcome.cells.iter().filter(|c| c.result.is_ok()).count(), 1);
        let interrupted = outcome
            .cells
            .iter()
            .filter(|c| {
                c.result
                    .as_ref()
                    .err()
                    .is_some_and(|e| e.contains("interrupted"))
            })
            .count();
        assert_eq!(interrupted, 7);
        assert_eq!(outcome.n_failed(), 7, "partial success must exit 3");

        // The partial summary still lands, marked interrupted.
        let summary = std::fs::read_to_string(dir.join("sweep_summary.json")).unwrap();
        let root = json::parse(&summary).expect("partial summary parses");
        assert_eq!(
            root.get("interrupted").and_then(|v| v.as_bool()),
            Some(true)
        );
        assert_eq!(root.get("n_failed").and_then(|v| v.as_u64()), Some(7));
        assert!(human_report(&outcome).contains("INTERRUPTED"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupt_during_the_prefix_phase_aborts_the_prefix() {
        use std::sync::atomic::AtomicU32;
        static CALLS: AtomicU32 = AtomicU32::new(0);
        CALLS.store(0, Ordering::Relaxed);
        // The "signal" arrives on the probe's tenth call: after the pool
        // claimed the first prefix, while that prefix is running.
        fn probe() -> bool {
            CALLS.fetch_add(1, Ordering::Relaxed) >= 10
        }

        let dir = tmp_dir("prefix-interrupt");
        let outcome = run_sweep(
            &tiny_grid(),
            &SweepOpts {
                jobs: 1,
                warm_start_at: Some(SimDuration::from_hours(5)),
                out_dir: dir.clone(),
                write_cell_exports: false,
                interrupt: Some(probe),
                ..SweepOpts::default()
            },
        )
        .unwrap();

        assert!(outcome.interrupted);
        assert_eq!(outcome.cells.len(), 8, "every cell gets a row");
        // The prefix was aborted, not run to completion: had it finished,
        // the pool would have claimed a cell before seeing the signal.
        for c in &outcome.cells {
            assert_eq!(
                c.result.as_ref().err().map(String::as_str),
                Some("interrupted: cell never started"),
                "{}",
                c.label
            );
        }
        let summary = std::fs::read_to_string(dir.join("sweep_summary.json")).unwrap();
        let root = json::parse(&summary).expect("partial summary parses");
        assert_eq!(
            root.get("interrupted").and_then(|v| v.as_bool()),
            Some(true)
        );
        assert_eq!(root.get("n_failed").and_then(|v| v.as_u64()), Some(8));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn summary_json_is_parseable_with_the_documented_schema() {
        let dir = tmp_dir("schema");
        let grid = SweepGrid {
            seeds: vec![1],
            fail_probs: vec![0.05],
            breakers: vec![BreakerSetting::Off],
            ..tiny_grid()
        };
        let outcome = run_sweep(
            &grid,
            &SweepOpts {
                jobs: 1,
                warm_start_at: None,
                out_dir: dir.clone(),
                write_cell_exports: true,
                interrupt: None,
                ..SweepOpts::default()
            },
        )
        .unwrap();
        let text = summary_json(&outcome);
        let root = json::parse(&text).expect("summary parses");
        assert_eq!(
            root.get("schema").and_then(|v| v.as_str()),
            Some(SWEEP_SCHEMA)
        );
        for key in ["n_cells", "n_failed", "n_retried", "n_timed_out"] {
            assert!(root.get(key).and_then(|v| v.as_u64()).is_some(), "{key}");
        }
        // Timing and process shape must NOT leak into the deterministic
        // summary — they live in the ops sidecar.
        for key in ["jobs", "wall_s", "cells_per_s"] {
            assert!(root.get(key).is_none(), "{key} belongs in sweep_ops.json");
        }
        let cells = root.get("cells").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(cells.len(), 1);
        for key in ["label", "ok", "exhausted", "knobs", "export", "retries"] {
            assert!(cells[0].get(key).is_some(), "cell lacks {key}");
        }
        let rows = root.get("knob_rows").and_then(|v| v.as_arr()).unwrap();
        assert!(!rows.is_empty());
        assert!(rows[0].get("exhausted").unwrap().get("ci95_lo").is_some());

        // The ops sidecar carries the process history.
        let ops_text = std::fs::read_to_string(dir.join("sweep_ops.json")).unwrap();
        let ops = json::parse(&ops_text).expect("ops parses");
        assert_eq!(ops.get("schema").and_then(|v| v.as_str()), Some(OPS_SCHEMA));
        for key in ["jobs", "n_resumed"] {
            assert!(ops.get(key).and_then(|v| v.as_u64()).is_some(), "{key}");
        }
        assert!(ops.get("wall_s").is_some());

        let report = human_report(&outcome);
        assert!(report.contains("cells/s"), "{report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_storage_failures_quarantine_cells_and_mark_the_summary() {
        let dir = tmp_dir("chaos");
        let grid = SweepGrid {
            seeds: vec![1, 2],
            fail_probs: vec![0.05],
            breakers: vec![BreakerSetting::Off],
            ..tiny_grid()
        };
        // Every cell-export write attempt EIOs; the retry budget
        // exhausts, so every cell is quarantined with a structured
        // storage reason — but the fleet completes and the summary
        // (written outside the chaos backend) still lands.
        let outcome = run_sweep(
            &grid,
            &SweepOpts {
                jobs: 2,
                out_dir: dir.clone(),
                chaos: Some(ChaosProfile {
                    seed: 11,
                    p_eio: 1.0,
                    ..ChaosProfile::default()
                }),
                retry: IoRetryPolicy::fast(),
                ..SweepOpts::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.cells.len(), 2);
        assert_eq!(outcome.n_failed(), 2);
        assert!(outcome.degraded_storage());
        for cell in &outcome.cells {
            let why = cell.result.as_ref().err().unwrap();
            assert!(why.starts_with("storage:"), "{why}");
            assert!(why.contains("EIO"), "{why}");
            assert!(cell.export_file.is_none());
        }
        // No torn/partial cell exports litter the output directory.
        assert!(!dir.join(export_file_name(&outcome.cells[0].label)).exists());
        let summary = std::fs::read_to_string(dir.join("sweep_summary.json")).unwrap();
        let root = json::parse(&summary).expect("summary parses");
        assert_eq!(
            root.get("degraded_storage").and_then(|v| v.as_bool()),
            Some(true)
        );
        assert_eq!(root.get("n_failed").and_then(|v| v.as_u64()), Some(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inert_chaos_profile_leaves_the_sweep_byte_identical() {
        let dir_plain = tmp_dir("inert-plain");
        let dir_chaos = tmp_dir("inert-chaos");
        let grid = SweepGrid {
            seeds: vec![1],
            fail_probs: vec![0.05],
            breakers: vec![BreakerSetting::Off],
            ..tiny_grid()
        };
        let run = |dir: &PathBuf, chaos: Option<ChaosProfile>| {
            run_sweep(
                &grid,
                &SweepOpts {
                    jobs: 1,
                    out_dir: dir.clone(),
                    chaos,
                    ..SweepOpts::default()
                },
            )
            .unwrap()
        };
        let plain = run(&dir_plain, None);
        let drilled = run(
            &dir_chaos,
            Some(ChaosProfile {
                seed: 99,
                ..ChaosProfile::default()
            }),
        );
        assert_eq!(plain.n_failed(), 0);
        assert_eq!(drilled.n_failed(), 0);
        assert!(!drilled.degraded_storage());
        let name = export_file_name(&plain.cells[0].label);
        assert_eq!(
            std::fs::read(dir_plain.join(&name)).unwrap(),
            std::fs::read(dir_chaos.join(&name)).unwrap(),
            "an inert drill must not perturb artifacts"
        );
        // The deterministic summary is byte-identical too.
        assert_eq!(
            std::fs::read(dir_plain.join("sweep_summary.json")).unwrap(),
            std::fs::read(dir_chaos.join("sweep_summary.json")).unwrap(),
            "summary v2 must not depend on timing or chaos wiring"
        );
        std::fs::remove_dir_all(&dir_plain).unwrap();
        std::fs::remove_dir_all(&dir_chaos).unwrap();
    }

    /// Satellite: the chaos self-healing drill. Under a transient EIO
    /// profile a cell quarantines at `--cell-retries 0`, heals at
    /// `--cell-retries 2`, and the healed artifact is byte-identical to
    /// its fault-free counterpart.
    #[test]
    fn transient_storage_fault_heals_on_cell_retry_byte_identically() {
        let grid = SweepGrid {
            seeds: vec![1],
            fail_probs: vec![0.05],
            breakers: vec![BreakerSetting::Off],
            ..tiny_grid()
        };
        // Fault-free reference artifacts.
        let dir_ref = tmp_dir("heal-ref");
        let base = SweepOpts {
            jobs: 1,
            out_dir: dir_ref.clone(),
            // One write attempt per cell attempt: the inner I/O ladder is
            // disabled so healing is attributable to the cell-level retry.
            retry: IoRetryPolicy {
                attempts: 1,
                ..IoRetryPolicy::fast()
            },
            cell_backoff: Duration::from_millis(1),
            ..SweepOpts::default()
        };
        let reference = run_sweep(&grid, &base).unwrap();
        assert_eq!(reference.n_failed(), 0);
        let name = export_file_name(&reference.cells[0].label);
        let ref_bytes = std::fs::read(dir_ref.join(&name)).unwrap();

        // Find a chaos seed whose first export write EIOs but which a
        // retried attempt survives — deterministic given the profile, so
        // the scan itself is deterministic.
        let mut healed = false;
        for seed in 0..64u64 {
            let profile = ChaosProfile {
                seed,
                p_eio: 0.5,
                ..ChaosProfile::default()
            };
            let dir_q = tmp_dir("heal-quarantine");
            let quarantined = run_sweep(
                &grid,
                &SweepOpts {
                    out_dir: dir_q.clone(),
                    chaos: Some(profile),
                    ..base.clone()
                },
            )
            .unwrap();
            let first_attempt_fails = quarantined.degraded_storage();
            std::fs::remove_dir_all(&dir_q).unwrap();
            if !first_attempt_fails {
                continue;
            }
            let dir_h = tmp_dir("heal-retry");
            let retried = run_sweep(
                &grid,
                &SweepOpts {
                    out_dir: dir_h.clone(),
                    chaos: Some(profile),
                    cell_retries: 2,
                    ..base.clone()
                },
            )
            .unwrap();
            if retried.n_failed() != 0 {
                std::fs::remove_dir_all(&dir_h).unwrap();
                continue;
            }
            // Converged to zero storage quarantines, via ≥1 retry…
            assert!(retried.n_retried() >= 1, "healing must consume a retry");
            // …and the healed export is byte-identical to fault-free.
            assert_eq!(
                std::fs::read(dir_h.join(&name)).unwrap(),
                ref_bytes,
                "a retried cell must reproduce the clean artifact exactly"
            );
            // The journal shows the supervision history: a scheduled
            // retry, then a completion carrying the retry count.
            let replay = journal::load(&dir_h).unwrap().unwrap();
            assert!(replay.records.iter().any(|r| matches!(
                r,
                journal::Record::RetryScheduled { reason, .. }
                    if reason.starts_with("storage:")
            )));
            assert!(replay.records.iter().any(|r| matches!(
                r,
                journal::Record::Completed { retries, .. } if *retries > 0
            )));
            std::fs::remove_dir_all(&dir_h).unwrap();
            healed = true;
            break;
        }
        assert!(healed, "no chaos seed in 0..64 exercised the heal path");
        std::fs::remove_dir_all(&dir_ref).unwrap();
    }

    /// A deliberately hung cell trips its cooperative deadline, is
    /// quarantined as `timeout:`, and the fleet neither wedges nor loses
    /// its partial summary.
    #[test]
    fn hung_cell_is_contained_by_the_cooperative_deadline() {
        let dir = tmp_dir("timeout");
        // One enormous cell: at tiny-preset event rates a 20-year run
        // takes far longer than the 50 ms deadline, so only cooperative
        // cancelation can end it.
        let mut huge = tiny_preset();
        huge.duration = SimDuration::from_hours(24 * 365 * 20);
        let grid = SweepGrid {
            presets: vec![PresetAxis {
                name: "huge".into(),
                base: huge,
            }],
            seeds: vec![1],
            fail_probs: vec![0.05],
            breakers: vec![BreakerSetting::Off],
        };
        let t0 = Instant::now();
        let outcome = run_sweep(
            &grid,
            &SweepOpts {
                jobs: 1,
                out_dir: dir.clone(),
                cell_timeout: Some(Duration::from_millis(50)),
                ..SweepOpts::default()
            },
        )
        .unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "deadline must abort the cell promptly, not wedge the fleet"
        );
        assert_eq!(outcome.n_failed(), 1);
        assert_eq!(outcome.n_timed_out(), 1);
        let why = outcome.cells[0].result.as_ref().err().unwrap();
        assert!(why.starts_with("timeout:"), "{why}");
        assert!(why.contains("canceled:"), "cancel detail preserved: {why}");
        // Partial summary still written, journal records the quarantine.
        let summary = std::fs::read_to_string(dir.join("sweep_summary.json")).unwrap();
        let root = json::parse(&summary).unwrap();
        assert_eq!(root.get("n_timed_out").and_then(|v| v.as_u64()), Some(1));
        let replay = journal::load(&dir).unwrap().unwrap();
        assert!(replay.records.iter().any(|r| matches!(
            r,
            journal::Record::Quarantined { reason, .. } if reason.starts_with("timeout:")
        )));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
