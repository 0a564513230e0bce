//! Subcommand implementations.
//!
//! Kept binary-free so every path is unit-testable; the `dmsa` binary is a
//! thin argv adapter over [`simulate`], [`run_match`], and [`analyze`].

use crate::checkpoint::{self, CheckpointDir};
use crate::export::CampaignExport;
use crate::json;
use crate::vfs::{self, ChaosProfile, IoRetryPolicy, StorageHealth};
use dmsa_analysis::exclusion::{exclusion_report, ExclusionReport};
use dmsa_analysis::render::{self, ReportInputs};
use dmsa_core::matcher::Matcher;
use dmsa_core::{
    evaluate, IndexedMatcher, MatchMethod, MatchSet, MatchedJob, NaiveMatcher, ParallelMatcher,
    PreparedMatcher, PreparedStore, ScoredMatcher,
};
use dmsa_gridnet::HealthConfig;
use dmsa_scenario::{Campaign, ScenarioConfig};
use dmsa_simcore::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::Ordering;

/// Which matcher the `match` subcommand runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MatcherChoice {
    /// Algorithm 1.
    Exact,
    /// Relaxed level 1.
    Rm1,
    /// Relaxed level 2.
    Rm2,
    /// Scored matcher at a threshold.
    Scored(f64),
}

impl MatcherChoice {
    /// Parse a `--method` argument (`exact`, `rm1`, `rm2`,
    /// `scored[:threshold]`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "exact" => Ok(MatcherChoice::Exact),
            "rm1" => Ok(MatcherChoice::Rm1),
            "rm2" => Ok(MatcherChoice::Rm2),
            _ => {
                if let Some(rest) = s.strip_prefix("scored") {
                    let threshold = match rest.strip_prefix(':') {
                        None if rest.is_empty() => ScoredMatcher::DEFAULT_THRESHOLD,
                        Some(t) => t
                            .parse()
                            .map_err(|e| format!("bad scored threshold {t:?}: {e}"))?,
                        _ => return Err(format!("unknown method {s:?}")),
                    };
                    Ok(MatcherChoice::Scored(threshold))
                } else {
                    Err(format!(
                        "unknown method {s:?} (expected exact|rm1|rm2|scored[:T])"
                    ))
                }
            }
        }
    }
}

/// Which matching engine runs the chosen method. All engines produce
/// identical match sets (property-tested); they differ only in speed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum EngineChoice {
    /// Quadratic reference scan.
    Naive,
    /// Sequential prepared-index engine.
    Indexed,
    /// Rayon-parallel prepared-index engine.
    Parallel,
    /// Prepared CSR index, parallel matching (default).
    #[default]
    Prepared,
}

impl EngineChoice {
    /// Parse an `--engine` argument.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "naive" => Ok(EngineChoice::Naive),
            "indexed" => Ok(EngineChoice::Indexed),
            "parallel" => Ok(EngineChoice::Parallel),
            "prepared" => Ok(EngineChoice::Prepared),
            _ => Err(format!(
                "unknown engine {s:?} (expected naive|indexed|parallel|prepared)"
            )),
        }
    }

    fn matcher(self) -> &'static dyn Matcher {
        match self {
            EngineChoice::Naive => &NaiveMatcher,
            EngineChoice::Indexed => &IndexedMatcher,
            EngineChoice::Parallel => &ParallelMatcher,
            EngineChoice::Prepared => &PreparedMatcher,
        }
    }
}

/// Failure-injection overrides for `dmsa simulate`. `None` leaves the
/// preset's value (inert for every preset except `faulty`) untouched, so
/// default runs stay byte-identical to the pre-fault tool.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultKnobs {
    /// Per-attempt transfer failure probability.
    pub fail_prob: Option<f64>,
    /// Fraction of site-hours spent in outage.
    pub site_outage: Option<f64>,
    /// Fraction of link-hours spent in outage.
    pub link_outage: Option<f64>,
    /// Retry budget per transfer request.
    pub max_retries: Option<u32>,
}

impl FaultKnobs {
    fn apply(&self, config: &mut ScenarioConfig) {
        if let Some(p) = self.fail_prob {
            config.faults.p_attempt_failure = p;
        }
        if let Some(p) = self.site_outage {
            config.faults.site_outage_fraction = p;
        }
        if let Some(p) = self.link_outage {
            config.faults.link_outage_fraction = p;
        }
        if let Some(n) = self.max_retries {
            config.retry.max_retries = n;
        }
    }
}

/// Closed-loop health overrides for `dmsa simulate`. `adaptive` arms the
/// breakers (`--adaptive-exclusion`); the threshold knobs override
/// individual [`HealthConfig`] fields and imply arming, since a breaker
/// threshold on a disabled monitor would silently do nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HealthKnobs {
    /// Arm the circuit breakers (`HealthConfig::adaptive` baseline).
    pub adaptive: bool,
    /// Failure rate over the sliding window that opens a breaker.
    pub failure_rate: Option<f64>,
    /// Consecutive failures that open a breaker regardless of rate.
    pub consecutive: Option<u32>,
    /// Open-state cooldown before Half-Open probation, in seconds.
    pub cooldown_secs: Option<i64>,
}

impl HealthKnobs {
    fn apply(&self, config: &mut ScenarioConfig) {
        if self.adaptive
            || self.failure_rate.is_some()
            || self.consecutive.is_some()
            || self.cooldown_secs.is_some()
        {
            config.health = HealthConfig::adaptive();
        }
        if let Some(r) = self.failure_rate {
            config.health.failure_rate_threshold = r;
        }
        if let Some(n) = self.consecutive {
            config.health.consecutive_failures = n;
        }
        if let Some(s) = self.cooldown_secs {
            config.health.cooldown = SimDuration::from_secs(s);
        }
    }
}

/// Checkpointing controls for `dmsa simulate`. With `dir` unset the run is
/// plain (no snapshots, no resume) and byte-identical to the pre-checkpoint
/// tool.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointKnobs {
    /// Where checkpoint files live (`--checkpoint-dir`).
    pub dir: Option<PathBuf>,
    /// Snapshot cadence in sim time (`--checkpoint-every`, default 6h).
    pub every: SimDuration,
    /// Restore the newest usable checkpoint before running (`--resume`).
    pub resume: bool,
    /// Checkpoint files retained (oldest pruned).
    pub keep: usize,
    /// Storage-fault injection profile (`--chaos-profile`); `None` is the
    /// real filesystem.
    pub chaos: Option<ChaosProfile>,
    /// Backoff policy for checkpoint writes that hit storage faults.
    pub retry: IoRetryPolicy,
}

impl Default for CheckpointKnobs {
    fn default() -> Self {
        CheckpointKnobs {
            dir: None,
            every: SimDuration::from_hours(6),
            resume: false,
            keep: 3,
            chaos: None,
            retry: IoRetryPolicy::default(),
        }
    }
}

/// Parse a `--checkpoint-every` duration: an integer with a `d`/`h`/`m`/`s`
/// suffix (bare integers are seconds).
pub fn parse_sim_duration(s: &str) -> Result<SimDuration, String> {
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'd') => (&s[..s.len() - 1], 86_400),
        Some(b'h') => (&s[..s.len() - 1], 3_600),
        Some(b'm') => (&s[..s.len() - 1], 60),
        Some(b's') => (&s[..s.len() - 1], 1),
        _ => (s, 1),
    };
    match digits.parse::<i64>() {
        Ok(n) if n > 0 => Ok(SimDuration::from_secs(n * mult)),
        _ => Err(format!(
            "bad duration {s:?} (expected a positive integer with d/h/m/s suffix, e.g. 6h)"
        )),
    }
}

/// Resolve a preset name to its seeded base config at `scale` — the
/// config a warm-started run shares with its siblings, before any knob
/// overrides.
pub fn preset_config(preset: &str, scale: f64, seed: u64) -> Result<ScenarioConfig, String> {
    let mut config = match preset {
        "8day" => ScenarioConfig::paper_8day(scale),
        "92day" => ScenarioConfig::paper_92day(scale),
        "small" => ScenarioConfig::small(),
        "faulty" => ScenarioConfig::small_faulty(),
        "faulty-adaptive" | "faulty_adaptive" => ScenarioConfig::faulty_adaptive(),
        "8day-faulty" | "8day_faulty" => ScenarioConfig::paper_8day_faulty(scale),
        other => {
            return Err(format!(
                "unknown preset {other:?} (8day|92day|small|faulty|faulty-adaptive|8day-faulty)"
            ))
        }
    };
    config.seed = seed;
    Ok(config)
}

/// `dmsa simulate`: run a preset campaign and return its JSON export.
///
/// With `fork_at` set, the run reproduces a sweep's warm-started cell:
/// the `[0, fork_at)` prefix runs under the *base* config (preset +
/// seed, knobs not yet applied) and the knobs take effect from the
/// divergence time — byte-identical to the corresponding sweep cell.
pub fn simulate(
    preset: &str,
    scale: f64,
    seed: u64,
    faults: FaultKnobs,
    health: HealthKnobs,
    ckpt: &CheckpointKnobs,
    fork_at: Option<SimDuration>,
) -> Result<String, String> {
    let base = preset_config(preset, scale, seed)?;
    let mut config = base.clone();
    faults.apply(&mut config);
    health.apply(&mut config);
    let campaign = match fork_at {
        Some(at) => {
            if ckpt.dir.is_some() {
                return Err(
                    "--fork-at cannot be combined with --checkpoint-dir (a forked run \
                     replays a fresh prefix; resume it from the sweep instead)"
                        .into(),
                );
            }
            dmsa_scenario::run_forked(&base, &config, SimTime::EPOCH + at)?
        }
        None => {
            let mut note = |line: String| eprintln!("{line}");
            let (campaign, storage) = run_with_checkpoints_status(&config, ckpt, &mut note)?;
            if storage.degraded() {
                note(format!("storage health: {}", storage.summary()));
            }
            campaign
        }
    };
    Ok(CampaignExport::from_campaign(&campaign).to_json())
}

/// Run a scenario under the checkpoint policy. With no checkpoint dir this
/// is exactly [`dmsa_scenario::run`]; with one, snapshots are framed and
/// written atomically at every cadence boundary, and `--resume` walks the
/// fallback ladder: newest checkpoint first, skipping (with a diagnostic
/// through `note`) anything whose frame fails to verify *or* whose snapshot
/// payload fails validation against `config`, down to a cold start when
/// nothing survives. Determinism of the snapshot layer makes the resumed
/// campaign byte-identical to an uninterrupted run of the same seed.
pub fn run_with_checkpoints(
    config: &ScenarioConfig,
    ckpt: &CheckpointKnobs,
    note: &mut dyn FnMut(String),
) -> Result<Campaign, String> {
    run_with_checkpoints_status(config, ckpt, note).map(|(campaign, _)| campaign)
}

/// [`run_with_checkpoints`] plus the run's [`StorageHealth`] latch.
///
/// Degradation contract: a campaign is never aborted because a checkpoint
/// could not be made durable. Each checkpoint write is retried with
/// backoff under `ckpt.retry`; one that exhausts its budget (disk full
/// that never clears, dead device) is *skipped* — the run continues,
/// latches `degraded_storage`, and says so through `note`. The final
/// export is unaffected; only crash-resumability is reduced.
pub fn run_with_checkpoints_status(
    config: &ScenarioConfig,
    ckpt: &CheckpointKnobs,
    note: &mut dyn FnMut(String),
) -> Result<(Campaign, StorageHealth), String> {
    let storage = StorageHealth::default();
    let Some(dir) = &ckpt.dir else {
        return Ok((dmsa_scenario::run(config), storage));
    };
    let store = CheckpointDir::open_with(dir, ckpt.keep, vfs::backend_for(ckpt.chaos.as_ref()))?;
    // Both the checkpoint sink and the resume ladder narrate through the
    // same caller-supplied channel; the RefCell lets the long-lived sink
    // closure share it with the ladder below.
    let note = std::cell::RefCell::new(note);
    let say = |line: String| (note.borrow_mut())(line);
    let mut sink = |at: SimTime, payload: &[u8]| -> Result<(), String> {
        let mut retried = false;
        let result = vfs::with_retry(
            &ckpt.retry,
            "checkpoint write",
            &mut |line| {
                retried = true;
                say(line);
            },
            || store.write(at, payload),
        );
        if retried {
            storage.retried_writes.fetch_add(1, Ordering::Relaxed);
        }
        match result {
            Ok(()) => Ok(()),
            Err(e) => {
                storage.mark_degraded();
                storage.checkpoints_skipped.fetch_add(1, Ordering::Relaxed);
                say(format!(
                    "degraded storage: skipping checkpoint at sim-time {} ms: {e}",
                    at.as_millis()
                ));
                Ok(())
            }
        }
    };
    if ckpt.resume {
        for path in store.scan()? {
            let bytes = match store.read(&path) {
                Ok(b) => b,
                Err(e) => {
                    say(format!("skipping {}: unreadable: {e}", path.display()));
                    continue;
                }
            };
            let payload = match checkpoint::unframe(&bytes) {
                Ok(p) => p,
                Err(why) => {
                    say(format!("skipping {}: {why}", path.display()));
                    continue;
                }
            };
            match dmsa_scenario::snapshot::validate_classified(config, payload) {
                Ok(at) => {
                    say(format!(
                        "resuming from {} (sim-time {} ms)",
                        path.display(),
                        at.as_millis()
                    ));
                    let campaign = dmsa_scenario::resume_checkpointed(
                        config,
                        payload,
                        Some(ckpt.every),
                        &mut sink,
                    )?;
                    return Ok((campaign, storage));
                }
                Err(why) => say(format!(
                    "skipping {}: [{}] {why}",
                    path.display(),
                    why.kind.label()
                )),
            }
        }
        say(format!(
            "no usable checkpoint in {}; starting from the beginning",
            dir.display()
        ));
    }
    let campaign = dmsa_scenario::run_checkpointed(config, ckpt.every, &mut sink)?;
    Ok((campaign, storage))
}

/// Serialize a match set: `{"method":"rm2","jobs":[[job_idx,[t,...]],...]}`.
pub fn matchset_to_json(set: &MatchSet) -> String {
    let mut o = String::with_capacity(32 + set.jobs.len() * 16);
    o.push_str("{\"method\":\"");
    o.push_str(match set.method {
        MatchMethod::Exact => "exact",
        MatchMethod::Rm1 => "rm1",
        MatchMethod::Rm2 => "rm2",
    });
    o.push_str("\",\"jobs\":[");
    for (i, j) in set.jobs.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push('[');
        o.push_str(&j.job_idx.to_string());
        o.push_str(",[");
        for (k, t) in j.transfers.iter().enumerate() {
            if k > 0 {
                o.push(',');
            }
            o.push_str(&t.to_string());
        }
        o.push_str("]]");
    }
    o.push_str("]}");
    o
}

/// Inverse of [`matchset_to_json`].
pub fn matchset_from_json(src: &str) -> Result<MatchSet, String> {
    let idx_u32 = |el: &json::Json, what: &str| -> Result<u32, String> {
        el.as_u64()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| format!("match {what} is not a u32 index {}", el.at()))
    };
    let root = json::parse(src).map_err(|e| format!("matches parse error {e}"))?;
    let mj = root
        .get("method")
        .ok_or_else(|| format!("matches have no \"method\" field ({})", root.at()))?;
    let method = match mj.as_str() {
        Some("exact") => MatchMethod::Exact,
        Some("rm1") => MatchMethod::Rm1,
        Some("rm2") => MatchMethod::Rm2,
        Some(other) => return Err(format!("unknown match method {other:?} {}", mj.at())),
        None => return Err(format!("match method is not a string {}", mj.at())),
    };
    let jj = root
        .get("jobs")
        .ok_or_else(|| format!("matches have no \"jobs\" field ({})", root.at()))?;
    let arr = jj
        .as_arr()
        .ok_or_else(|| format!("match jobs must be an array {}", jj.at()))?;
    let mut jobs = Vec::with_capacity(arr.len());
    for el in arr {
        let Some([idx, ts]) = el.as_arr() else {
            return Err(format!(
                "match job must be [job_idx,[transfers]] {}",
                el.at()
            ));
        };
        let tarr = ts
            .as_arr()
            .ok_or_else(|| format!("match transfers must be an array {}", ts.at()))?;
        jobs.push(MatchedJob {
            job_idx: idx_u32(idx, "job")?,
            transfers: tarr
                .iter()
                .map(|t| idx_u32(t, "transfer"))
                .collect::<Result<Vec<u32>, String>>()?,
        });
    }
    Ok(MatchSet { method, jobs })
}

/// `dmsa match`: run a matcher over an exported campaign; returns the
/// match set as JSON plus a one-line stats summary. `engine` selects the
/// implementation for the exact/RM1/RM2 methods (scored matching has a
/// single engine and ignores it).
pub fn run_match(
    campaign_json: &str,
    choice: MatcherChoice,
    engine: EngineChoice,
) -> Result<(String, String), String> {
    let export = CampaignExport::from_json(campaign_json)?;
    let set: MatchSet = match choice {
        MatcherChoice::Exact => {
            engine
                .matcher()
                .match_jobs(&export.store, export.window, MatchMethod::Exact)
        }
        MatcherChoice::Rm1 => {
            engine
                .matcher()
                .match_jobs(&export.store, export.window, MatchMethod::Rm1)
        }
        MatcherChoice::Rm2 => {
            engine
                .matcher()
                .match_jobs(&export.store, export.window, MatchMethod::Rm2)
        }
        MatcherChoice::Scored(t) => {
            ScoredMatcher::default().match_jobs_scored(&export.store, export.window, t)
        }
    };
    let eval = evaluate(&export.store, &set, export.window);
    let stats = format!(
        "matched {} transfers across {} jobs | precision {:.3} recall {:.3}",
        set.n_matched_transfers(),
        set.n_matched_jobs(),
        eval.transfer_precision(),
        eval.transfer_recall()
    );
    Ok((matchset_to_json(&set), stats))
}

/// `dmsa analyze`: write a textual report over a campaign (and optionally
/// a match set) to `out`.
///
/// Inputs are parsed and the report name validated *before* anything is
/// written, so usage errors never leave a half-printed report. Write
/// failures propagate as errors — except `BrokenPipe`, which is treated
/// as success so `dmsa analyze | head` exits cleanly instead of
/// panicking. `baseline_json` is a second campaign export consulted only
/// by the `exclusion` report (adaptive-vs-baseline delta).
///
/// The campaign is loaded through the hardened streaming loader. Without
/// `quarantine_report`, a campaign carrying malformed records is refused
/// (the error names the per-kind counts); with it, the quarantine
/// breakdown is printed ahead of the report and analysis proceeds over
/// what survived — the recovery path for partially corrupted exports.
pub fn analyze(
    campaign_json: &str,
    matches_json: Option<&str>,
    baseline_json: Option<&str>,
    report: &str,
    quarantine_report: bool,
    out: &mut dyn io::Write,
) -> Result<(), String> {
    let loaded = CampaignExport::from_json_lenient(campaign_json)?;
    if !quarantine_report && !loaded.quarantine.is_empty() {
        return Err(format!(
            "campaign export contains {} quarantined record(s): {}; \
             re-run with --quarantine-report to see the breakdown and analyze what survived",
            loaded.quarantine.total(),
            loaded.quarantine.one_line()
        ));
    }
    let export = loaded.export;
    let matches: Option<MatchSet> = matches_json.map(matchset_from_json).transpose()?;
    let baseline: Option<ExclusionReport> = baseline_json
        .map(|bj| {
            CampaignExport::from_json(bj)
                .map(|b| exclusion_report(&b.store, b.window, b.path_stats, b.health.as_ref()))
        })
        .transpose()?;
    let inputs = report_inputs(&export);
    // Validate the report name before anything is written, so usage
    // errors never leave a half-printed report.
    if !render::REPORT_NAMES.contains(&report) {
        return Err(render::RenderError::UnknownReport(report.to_string()).to_string());
    }
    if quarantine_report {
        swallow_broken_pipe(out.write_all(loaded.quarantine.render().as_bytes()))?;
    }
    match render::render_report(&inputs, report, matches.as_ref(), baseline.as_ref(), out) {
        Ok(()) => Ok(()),
        Err(render::RenderError::Io(e)) => swallow_broken_pipe(Err(e)),
        Err(e) => Err(e.to_string()),
    }
}

/// Borrow the report-relevant pieces of an export as [`ReportInputs`].
pub fn report_inputs(export: &CampaignExport) -> ReportInputs<'_> {
    ReportInputs {
        store: &export.store,
        window: export.window,
        path_stats: export.path_stats,
        health: export.health.as_ref(),
    }
}

/// Map a report-writer outcome to the CLI error domain: `BrokenPipe` is
/// success (the consumer closed early, e.g. `| head`), everything else
/// is a real error.
fn swallow_broken_pipe(result: io::Result<()>) -> Result<(), String> {
    match result {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("writing report: {e}")),
    }
}

/// Run the three matchers sequentially on one campaign (the `bench-lite`
/// subcommand used by docs and smoke tests).
pub fn compare_methods(campaign_json: &str) -> Result<String, String> {
    let export = CampaignExport::from_json(campaign_json)?;
    let mut out = String::new();
    // One prepared index serves all three methods.
    let prepared = PreparedStore::build(&export.store);
    for method in MatchMethod::ALL {
        let set = prepared.par_match_window(export.window, method);
        let e = evaluate(&export.store, &set, export.window);
        writeln!(
            out,
            "{:<6} {:>7} transfers {:>6} jobs  precision {:.3} recall {:.3}",
            method.label(),
            set.n_matched_transfers(),
            set.n_matched_jobs(),
            e.transfer_precision(),
            e.transfer_recall()
        )
        .unwrap();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmsa_analysis::redundancy::redundancy_breakdown;
    use std::fs;

    fn tiny_campaign_json() -> String {
        let mut c = ScenarioConfig::small();
        c.duration = SimDuration::from_hours(3);
        c.workload.tasks_per_hour = 10.0;
        c.background_transfers_per_hour = 50.0;
        c.initial_datasets = 20;
        let campaign = dmsa_scenario::run(&c);
        CampaignExport::from_campaign(&campaign).to_json()
    }

    #[test]
    fn matcher_choice_parsing() {
        assert_eq!(MatcherChoice::parse("exact").unwrap(), MatcherChoice::Exact);
        assert_eq!(MatcherChoice::parse("rm1").unwrap(), MatcherChoice::Rm1);
        assert_eq!(MatcherChoice::parse("rm2").unwrap(), MatcherChoice::Rm2);
        assert_eq!(
            MatcherChoice::parse("scored").unwrap(),
            MatcherChoice::Scored(0.75)
        );
        assert_eq!(
            MatcherChoice::parse("scored:0.9").unwrap(),
            MatcherChoice::Scored(0.9)
        );
        assert!(MatcherChoice::parse("fuzzy").is_err());
        assert!(MatcherChoice::parse("scored:x").is_err());
    }

    #[test]
    fn engine_choice_parsing() {
        assert_eq!(EngineChoice::parse("naive").unwrap(), EngineChoice::Naive);
        assert_eq!(
            EngineChoice::parse("indexed").unwrap(),
            EngineChoice::Indexed
        );
        assert_eq!(
            EngineChoice::parse("parallel").unwrap(),
            EngineChoice::Parallel
        );
        assert_eq!(
            EngineChoice::parse("prepared").unwrap(),
            EngineChoice::Prepared
        );
        assert_eq!(EngineChoice::default(), EngineChoice::Prepared);
        assert!(EngineChoice::parse("quantum").is_err());
    }

    fn analyze_str(campaign: &str, matches: Option<&str>, report: &str) -> Result<String, String> {
        let mut buf = Vec::new();
        analyze(campaign, matches, None, report, false, &mut buf)?;
        Ok(String::from_utf8(buf).expect("reports are utf-8"))
    }

    #[test]
    fn simulate_rejects_unknown_preset() {
        let r = simulate(
            "weekly",
            1.0,
            1,
            FaultKnobs::default(),
            HealthKnobs::default(),
            &CheckpointKnobs::default(),
            None,
        );
        assert!(r.is_err());
    }

    #[test]
    fn forked_simulate_with_unchanged_knobs_matches_a_plain_run() {
        // With no knob overrides, forking at T replays the same campaign:
        // prefix and suffix run under the identical config.
        let plain = simulate(
            "faulty",
            1.0,
            11,
            FaultKnobs::default(),
            HealthKnobs::default(),
            &CheckpointKnobs::default(),
            None,
        )
        .unwrap();
        let forked = simulate(
            "faulty",
            1.0,
            11,
            FaultKnobs::default(),
            HealthKnobs::default(),
            &CheckpointKnobs::default(),
            Some(SimDuration::from_hours(6)),
        )
        .unwrap();
        assert_eq!(plain, forked);
    }

    #[test]
    fn forked_simulate_refuses_checkpoint_dir() {
        let ckpt = CheckpointKnobs {
            dir: Some(std::env::temp_dir().join("dmsa-fork-ckpt-refused")),
            ..CheckpointKnobs::default()
        };
        let r = simulate(
            "faulty",
            1.0,
            1,
            FaultKnobs::default(),
            HealthKnobs::default(),
            &ckpt,
            Some(SimDuration::from_hours(1)),
        );
        let err = r.unwrap_err();
        assert!(err.contains("--fork-at"), "{err}");
    }

    #[test]
    fn sim_duration_parsing() {
        assert_eq!(
            parse_sim_duration("6h").unwrap(),
            SimDuration::from_hours(6)
        );
        assert_eq!(
            parse_sim_duration("2d").unwrap(),
            SimDuration::from_hours(48)
        );
        assert_eq!(
            parse_sim_duration("30m").unwrap(),
            SimDuration::from_secs(1800)
        );
        assert_eq!(
            parse_sim_duration("90s").unwrap(),
            SimDuration::from_secs(90)
        );
        assert_eq!(
            parse_sim_duration("45").unwrap(),
            SimDuration::from_secs(45)
        );
        assert!(parse_sim_duration("0h").is_err());
        assert!(parse_sim_duration("-3h").is_err());
        assert!(parse_sim_duration("h").is_err());
        assert!(parse_sim_duration("6 hours").is_err());
    }

    #[test]
    fn matchset_json_round_trips() {
        let campaign = tiny_campaign_json();
        let (json, _) = run_match(&campaign, MatcherChoice::Rm2, EngineChoice::default()).unwrap();
        let set = matchset_from_json(&json).unwrap();
        assert_eq!(matchset_to_json(&set), json);
        assert!(set.n_matched_jobs() > 0);
        assert!(matchset_from_json("{\"method\":\"rm9\",\"jobs\":[]}").is_err());
        assert!(matchset_from_json("{\"method\":\"rm2\",\"jobs\":[[0]]}").is_err());
    }

    #[test]
    fn checkpointed_run_resumes_byte_identical() {
        let dir = std::env::temp_dir().join(format!("dmsa-run-ckpt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut c = ScenarioConfig::small_faulty();
        c.duration = SimDuration::from_hours(6);
        c.workload.tasks_per_hour = 20.0;
        let ckpt = CheckpointKnobs {
            dir: Some(dir.clone()),
            every: SimDuration::from_hours(1),
            resume: false,
            keep: 3,
            ..CheckpointKnobs::default()
        };
        let mut notes = Vec::new();
        let mut note = |l: String| notes.push(l);
        let full = run_with_checkpoints(&c, &ckpt, &mut note).unwrap();
        let full_json = CampaignExport::from_campaign(&full).to_json();

        // A "crashed" rerun: checkpoints are on disk, resume picks up the
        // newest and must land on the identical campaign bytes.
        let resumed = run_with_checkpoints(
            &c,
            &CheckpointKnobs {
                resume: true,
                ..ckpt.clone()
            },
            &mut note,
        )
        .unwrap();
        assert_eq!(CampaignExport::from_campaign(&resumed).to_json(), full_json);
        assert!(
            notes.iter().any(|l| l.contains("resuming from")),
            "{notes:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_writes_that_exhaust_retries_degrade_instead_of_aborting() {
        let dir = std::env::temp_dir().join(format!("dmsa-run-chaos-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut c = ScenarioConfig::small();
        c.duration = SimDuration::from_hours(4);
        c.workload.tasks_per_hour = 10.0;
        c.initial_datasets = 20;

        // Every checkpoint write fails with ENOSPC, every retry too: the
        // campaign must still complete, byte-identical to a plain run,
        // with the degraded-storage latch set and every skip narrated.
        let ckpt = CheckpointKnobs {
            dir: Some(dir.clone()),
            every: SimDuration::from_hours(1),
            chaos: Some(ChaosProfile {
                seed: 9,
                p_enospc: 1.0,
                ..ChaosProfile::default()
            }),
            retry: IoRetryPolicy::fast(),
            ..CheckpointKnobs::default()
        };
        let mut notes = Vec::new();
        let (campaign, storage) =
            run_with_checkpoints_status(&c, &ckpt, &mut |l| notes.push(l)).unwrap();
        assert!(storage.degraded());
        assert!(storage.checkpoints_skipped.load(Ordering::Relaxed) > 0);
        assert!(
            notes.iter().any(|l| l.contains("degraded storage")),
            "{notes:?}"
        );
        let plain = dmsa_scenario::run(&c);
        assert_eq!(
            CampaignExport::from_campaign(&campaign).to_json(),
            CampaignExport::from_campaign(&plain).to_json(),
            "storage faults must never perturb the simulation"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn analyze_quarantines_or_refuses_corrupt_campaign() {
        let campaign = tiny_campaign_json();
        let anchor = "\"files\":[";
        let at = campaign.find(anchor).unwrap() + anchor.len();
        let corrupt = format!("{}[1,2,3],{}", &campaign[..at], &campaign[at..]);

        // Strict path (no flag): refused, pointing at the flag.
        let err = analyze_str(&corrupt, None, "summary").unwrap_err();
        assert!(err.contains("quarantine-report"), "unhelpful error: {err}");

        // Recovery path: quarantine breakdown first, then the report.
        let mut buf = Vec::new();
        analyze(&corrupt, None, None, "summary", true, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("quarantined records: 1"), "{text}");
        assert!(text.contains("malformed          1"), "{text}");
        assert!(text.contains("jobs "), "report missing: {text}");

        // The flag on a clean campaign reports an empty quarantine.
        let mut buf = Vec::new();
        analyze(&campaign, None, None, "summary", true, &mut buf).unwrap();
        assert!(String::from_utf8(buf)
            .unwrap()
            .contains("quarantined records: 0"));
    }

    #[test]
    fn fault_knobs_override_only_what_they_set() {
        let mut config = ScenarioConfig::small();
        let knobs = FaultKnobs {
            fail_prob: Some(0.1),
            max_retries: Some(5),
            ..FaultKnobs::default()
        };
        knobs.apply(&mut config);
        assert_eq!(config.faults.p_attempt_failure, 0.1);
        assert_eq!(config.retry.max_retries, 5);
        // Untouched knobs keep the preset's inert defaults.
        assert_eq!(config.faults.site_outage_fraction, 0.0);
        assert_eq!(config.faults.link_outage_fraction, 0.0);
        assert!(!config.faults.enabled() || config.faults.p_attempt_failure > 0.0);
    }

    #[test]
    fn all_engines_agree_via_cli_path() {
        let campaign = tiny_campaign_json();
        let engines = [
            EngineChoice::Naive,
            EngineChoice::Indexed,
            EngineChoice::Parallel,
            EngineChoice::Prepared,
        ];
        let results: Vec<String> = engines
            .iter()
            .map(|&e| run_match(&campaign, MatcherChoice::Rm2, e).unwrap().0)
            .collect();
        for r in &results[1..] {
            assert_eq!(*r, results[0], "engine output diverged");
        }
    }

    #[test]
    fn full_cli_pipeline_runs() {
        let campaign = tiny_campaign_json();
        let (matches, stats) =
            run_match(&campaign, MatcherChoice::Rm2, EngineChoice::default()).unwrap();
        assert!(stats.contains("precision"));
        let report = analyze_str(&campaign, Some(&matches), "summary").unwrap();
        assert!(report.contains("transfers"));
        let matrix = analyze_str(&campaign, None, "matrix").unwrap();
        assert!(matrix.contains("local"));
        let temporal = analyze_str(&campaign, None, "temporal").unwrap();
        assert!(temporal.contains("Gini"));
        let redundancy = analyze_str(&campaign, None, "redundancy").unwrap();
        assert!(redundancy.contains("retry-induced") && redundancy.contains("reaper-induced"));
        let exclusion = analyze_str(&campaign, None, "exclusion").unwrap();
        assert!(exclusion.contains("adaptive exclusion off"));
        let cmp = compare_methods(&campaign).unwrap();
        assert!(cmp.contains("Exact") && cmp.contains("RM2"));
    }

    #[test]
    fn faulty_campaign_attributes_retry_induced_redundancy() {
        let mut c = ScenarioConfig::small_faulty();
        c.duration = SimDuration::from_hours(6);
        c.workload.tasks_per_hour = 20.0;
        let campaign = dmsa_scenario::run(&c);
        let b = redundancy_breakdown(&campaign.store, SimDuration::from_hours(24));
        // Failed attempts must surface as a *separately attributed* class
        // of duplicates, not blend into the reaper-induced pool.
        assert!(b.retry_induced.n_groups > 0, "no retry-induced groups");
        assert!(b.retry_induced.n_redundant > 0);
    }

    #[test]
    fn analyze_rejects_unknown_report() {
        let campaign = tiny_campaign_json();
        assert!(analyze_str(&campaign, None, "pie-chart").is_err());
    }

    #[test]
    fn health_knobs_arm_and_override_the_breakers() {
        let mut config = ScenarioConfig::small_faulty();
        assert!(!config.health.enabled);
        // Any breaker-threshold override implies arming.
        HealthKnobs {
            consecutive: Some(2),
            ..HealthKnobs::default()
        }
        .apply(&mut config);
        assert!(config.health.enabled);
        assert_eq!(config.health.consecutive_failures, 2);

        let mut config = ScenarioConfig::small_faulty();
        HealthKnobs {
            adaptive: true,
            failure_rate: Some(0.5),
            cooldown_secs: Some(600),
            ..HealthKnobs::default()
        }
        .apply(&mut config);
        assert!(config.health.enabled);
        assert_eq!(config.health.failure_rate_threshold, 0.5);
        assert_eq!(config.health.cooldown, SimDuration::from_secs(600));

        // No knobs set: the preset's health block is untouched.
        let mut config = ScenarioConfig::small();
        HealthKnobs::default().apply(&mut config);
        assert!(!config.health.enabled);
    }

    #[test]
    fn exclusion_report_surfaces_breaker_telemetry_end_to_end() {
        let mut c = ScenarioConfig::faulty_adaptive();
        c.duration = SimDuration::from_hours(6);
        c.workload.tasks_per_hour = 20.0;
        let adaptive = CampaignExport::from_campaign(&dmsa_scenario::run(&c));
        assert!(adaptive.health.is_some(), "armed run exports telemetry");
        assert!(adaptive.path_stats.requests > 0);

        let mut b = ScenarioConfig::small_faulty();
        b.duration = SimDuration::from_hours(6);
        b.workload.tasks_per_hour = 20.0;
        let baseline = CampaignExport::from_campaign(&dmsa_scenario::run(&b));
        assert!(
            baseline.health.is_none(),
            "unarmed run exports no telemetry"
        );

        let baseline_report = exclusion_report(
            &baseline.store,
            baseline.window,
            baseline.path_stats,
            baseline.health.as_ref(),
        );
        let mut buf = Vec::new();
        render::write_exclusion(&mut buf, &report_inputs(&adaptive), Some(&baseline_report))
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("adaptive exclusion armed"));
        assert!(text.contains("vs baseline"));
        assert!(text.contains("strictly better"));
    }

    #[test]
    fn broken_pipe_is_swallowed_but_other_write_errors_propagate() {
        use std::io;
        assert_eq!(swallow_broken_pipe(Ok(())), Ok(()));
        let pipe = io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed");
        assert_eq!(swallow_broken_pipe(Err(pipe)), Ok(()));
        let disk = io::Error::other("disk full");
        assert!(swallow_broken_pipe(Err(disk)).is_err());
    }

    #[test]
    fn report_writers_stop_at_a_broken_pipe_without_panicking() {
        // A sink that accepts one write then reports the consumer hung up
        // (what `dmsa analyze | head` does once head exits).
        struct ClosedPipe {
            writes_left: u32,
        }
        impl std::io::Write for ClosedPipe {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.writes_left == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::BrokenPipe,
                        "pipe closed",
                    ));
                }
                self.writes_left -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut c = ScenarioConfig::small();
        c.duration = SimDuration::from_hours(3);
        c.workload.tasks_per_hour = 10.0;
        c.background_transfers_per_hour = 50.0;
        c.initial_datasets = 20;
        let export = CampaignExport::from_campaign(&dmsa_scenario::run(&c));
        let mut sink = ClosedPipe { writes_left: 1 };
        let err = render::write_summary(&mut sink, &report_inputs(&export), None).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert_eq!(swallow_broken_pipe(Err(err)), Ok(()));
    }

    #[test]
    fn scored_match_runs_via_cli_path() {
        let campaign = tiny_campaign_json();
        let engine = EngineChoice::default();
        let (json, _) = run_match(&campaign, MatcherChoice::Scored(0.6), engine).unwrap();
        let set = matchset_from_json(&json).unwrap();
        let (strict_json, _) = run_match(&campaign, MatcherChoice::Scored(0.99), engine).unwrap();
        let strict = matchset_from_json(&strict_json).unwrap();
        assert!(set.n_matched_transfers() >= strict.n_matched_transfers());
    }
}
