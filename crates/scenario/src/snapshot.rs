//! Deterministic checkpoint snapshots of a mid-flight campaign.
//!
//! [`encode`] serializes **every piece of mutable driver state** — the
//! pending event queue (with its FIFO tie-break counters), the exact
//! positions of all RNG streams, the transfer engine (slot clocks, its two
//! RNG streams, path counters), the replica catalog, replication rules,
//! circuit-breaker state, in-progress task/job/transfer accumulators, and
//! the id counters — into a self-contained byte payload. [`decode`]
//! rebuilds a [`Driver`] from a payload plus the *same* scenario config:
//! everything derivable from the config (topology, bandwidth oracle, fault
//! oracle, samplers, brokerage) is reconstructed rather than serialized,
//! which keeps snapshots small and makes it impossible for a stale
//! checkpoint to smuggle in divergent tuning.
//!
//! The resumed campaign is byte-identical to the uninterrupted same-seed
//! run; `crates/scenario` locks this with tests and the CLI locks it again
//! end-to-end over the export JSON.
//!
//! Decoding never panics on malformed input: every structural error is
//! reported with the byte offset where the payload stopped making sense,
//! and every cross-field invariant (catalog back-pointers, rule id
//! density, slot-table shape, site counts) is revalidated so a corrupted
//! checkpoint is rejected instead of corrupting a resumed campaign.

use crate::config::ScenarioConfig;
use crate::driver::{Driver, Event, PendingJob, TaskCtx};
use dmsa_gridnet::{
    BreakerSnapshot, BreakerState, HealthCounters, HealthMonitor, HealthSnapshot, HealthSubject,
    OpenEpisode, RseId, SiteId,
};
use dmsa_panda_sim::task::TaskProgress;
use dmsa_panda_sim::{IoMode, Job, JobId, JobStatus, TaskId, TaskKind, TaskStatus};
use dmsa_rucio_sim::catalog::{ContainerEntry, ContainerId, DatasetEntry, FileEntry};
use dmsa_rucio_sim::transfer::TransferEngineSnapshot;
use dmsa_rucio_sim::{
    Activity, DatasetId, DidName, FileId, ReplicaCatalog, ReplicationRule, RuleEngine, RuleId,
    Scope, TransferEvent, TransferId, TransferPathStats,
};
use dmsa_simcore::codec::{CodecError, Reader, Writer};
use dmsa_simcore::interval::Interval;
use dmsa_simcore::{EventQueue, SimDuration, SimRng, SimTime, Sym, SymbolTable};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Version of the snapshot payload layout. Bumped on any incompatible
/// change; [`decode`] refuses payloads from a newer layout with a
/// found-vs-supported message instead of misreading them.
/// Version history: v2 interned catalog/transfer-event names (the
/// catalog's symbol table is now part of the payload and name fields are
/// `u32` symbol ids) and added the delivered-event counter. v3 widened
/// the config fingerprint to cover **every** behavior-affecting knob
/// (fault rates, breaker settings, retry budgets, workload shape — not
/// just seed/duration/datasets) plus a structural fingerprint consulted
/// by the deliberate-fork path.
pub const SNAPSHOT_VERSION: u32 = 3;

/// How strictly [`decode`] matches the resume config against the config
/// the snapshot was taken under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ResumeMode {
    /// Resume: every behavior-affecting knob must match, otherwise the
    /// resumed campaign would silently replay divergent state.
    Strict,
    /// Deliberate fork ([`fork_with_config`]): only the structural knobs
    /// (seed, topology) must match; fault/retry/health/workload knobs may
    /// differ and take effect from the snapshot time onward.
    Fork,
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

pub(crate) fn encode(d: &Driver) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(SNAPSHOT_VERSION);

    // Config fingerprint: enough to catch a resume under the wrong
    // scenario before any state is misinterpreted. The legible fields
    // (seed/duration/datasets/sites) drive the human-readable mismatch
    // message; the two hashes are the actual guarantees — `behavior`
    // covers every knob, `structural` only what a deliberate fork must
    // still agree on.
    w.put_u64(d.config.seed);
    w.put_i64(d.config.duration.as_millis());
    w.put_u64(d.config.initial_datasets as u64);
    w.put_u32(d.topology.n_sites() as u32);
    w.put_u64(d.config.behavior_fingerprint());
    w.put_u64(d.config.structural_fingerprint());

    // Clock + event queue.
    w.put_i64(d.queue.now().as_millis());
    w.put_u64(d.queue.next_seq());
    let entries = d.queue.snapshot_entries();
    w.put_seq_len(entries.len());
    for (t, seq, ev) in entries {
        w.put_i64(t.as_millis());
        w.put_u64(seq);
        put_event(&mut w, ev);
    }

    // Driver RNG streams.
    put_rng(&mut w, &d.rng_task);
    put_rng(&mut w, &d.rng_job);
    put_rng(&mut w, &d.rng_bg);

    // Transfer engine.
    put_engine(&mut w, &d.engine.snapshot());

    // Replica catalog.
    put_catalog(&mut w, &d.catalog);

    // Replication rules.
    let rules = d.rules.rules();
    w.put_seq_len(rules.len());
    for r in rules {
        put_rule(&mut w, r);
    }

    // Circuit breakers.
    match d.health.as_ref() {
        None => w.put_bool(false),
        Some(m) => {
            w.put_bool(true);
            put_health(&mut w, &m.snapshot());
        }
    }

    // Brokerage load feedback + compute slots.
    put_u32_seq(&mut w, &d.queued);
    put_u32_seq(&mut w, &d.running);
    w.put_seq_len(d.compute_slots.len());
    for heap in &d.compute_slots {
        let mut times: Vec<i64> = heap.iter().map(|Reverse(t)| *t).collect();
        times.sort_unstable();
        w.put_seq_len(times.len());
        for t in times {
            w.put_i64(t);
        }
    }

    // Task contexts.
    w.put_seq_len(d.tasks.len());
    for t in &d.tasks {
        put_task_ctx(&mut w, t);
    }

    // Finished jobs.
    w.put_seq_len(d.finished.len());
    for (job, task_idx, recorded_upload) in &d.finished {
        put_job(&mut w, job);
        w.put_u32(*task_idx);
        w.put_bool(*recorded_upload);
    }

    // Ground-truth transfer events.
    w.put_seq_len(d.transfers.len());
    for (ev, recorded) in &d.transfers {
        put_transfer_event(&mut w, ev);
        w.put_bool(*recorded);
    }

    // Id counters.
    w.put_u64(d.next_pandaid);
    w.put_u64(d.next_taskid);
    w.put_u64(d.next_dio_id);
    w.put_u64(d.next_output_seq);

    // Delivered-event counter (v2).
    w.put_u64(d.events_processed);

    w.into_bytes()
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

pub(crate) fn decode(config: &ScenarioConfig, bytes: &[u8]) -> Result<Driver, String> {
    let mut r = Reader::new(bytes);
    decode_inner(config, &mut r, ResumeMode::Strict).map_err(|e| e.to_string())
}

/// Decode a snapshot for a **deliberate config fork**: the escape hatch
/// the sweep's warm-start path uses. Only the structural fingerprint
/// (seed + topology) must match the snapshot; every other knob — fault
/// rates, breaker settings, retry budgets, workload shape — is taken
/// from `config` and governs the campaign from the snapshot time onward.
/// Arming or disarming the health loop across the fork is allowed: a
/// newly armed fork starts with fresh (empty-telemetry) breakers, a
/// disarming fork drops the snapshot's breaker state.
pub(crate) fn decode_forked(config: &ScenarioConfig, bytes: &[u8]) -> Result<Driver, String> {
    let mut r = Reader::new(bytes);
    decode_inner(config, &mut r, ResumeMode::Fork).map_err(|e| e.to_string())
}

/// Fully decode-check a snapshot against `config` without resuming it,
/// returning the sim-time it was taken at. This is what a resume ladder
/// calls to decide whether a candidate checkpoint is usable before
/// committing to it: a truncated, corrupted, version-skewed, or
/// wrong-config snapshot is reported as an error (never a panic), so the
/// caller can fall back to an older checkpoint.
pub fn validate(config: &ScenarioConfig, bytes: &[u8]) -> Result<SimTime, String> {
    validate_classified(config, bytes).map_err(|e| e.to_string())
}

/// Coarse taxonomy of snapshot validation failures. Resume ladders and
/// auditors act on the *class*: truncation and corruption mean the file
/// is damaged (fall back to an older checkpoint, flag the artifact);
/// version skew means a different build wrote it (not damage); a
/// fingerprint mismatch means the bytes are fine but the config is wrong
/// (falling back further will not help).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotErrorKind {
    /// The payload ends before the layout says it should.
    Truncated,
    /// A different (usually newer) layout version wrote this snapshot.
    VersionSkew,
    /// Structurally sound but taken under a different scenario config.
    FingerprintMismatch,
    /// Any other structural damage: bad tags, broken invariants,
    /// out-of-range references, trailing bytes.
    Corrupt,
}

impl SnapshotErrorKind {
    /// Stable lower-case label for logs and structured errors.
    pub fn label(self) -> &'static str {
        match self {
            SnapshotErrorKind::Truncated => "truncated",
            SnapshotErrorKind::VersionSkew => "version-skew",
            SnapshotErrorKind::FingerprintMismatch => "fingerprint-mismatch",
            SnapshotErrorKind::Corrupt => "corrupt",
        }
    }
}

/// A classified snapshot validation failure: the kind plus the full
/// offset-carrying diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotError {
    pub kind: SnapshotErrorKind,
    pub message: String,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SnapshotError {}

/// [`validate`] with the failure classified into [`SnapshotErrorKind`].
pub fn validate_classified(
    config: &ScenarioConfig,
    bytes: &[u8],
) -> Result<SimTime, SnapshotError> {
    let mut r = Reader::new(bytes);
    decode_inner(config, &mut r, ResumeMode::Strict)
        .map(|d| d.queue.now())
        .map_err(|e| SnapshotError {
            kind: classify(&e.what),
            message: e.to_string(),
        })
}

/// Map a codec diagnostic onto the coarse taxonomy. The codec's error
/// strings are part of its tested contract (`truncated: …`, `snapshot
/// layout version … found`, `… fingerprint mismatch …`), so matching on
/// their stable prefixes here is deliberate, not incidental.
fn classify(what: &str) -> SnapshotErrorKind {
    if what.starts_with("truncated") {
        SnapshotErrorKind::Truncated
    } else if what.starts_with("snapshot layout version") {
        SnapshotErrorKind::VersionSkew
    } else if what.contains("fingerprint") {
        SnapshotErrorKind::FingerprintMismatch
    } else {
        SnapshotErrorKind::Corrupt
    }
}

/// The layout version stamped at the front of a snapshot payload, without
/// decoding (or validating) the rest. Errors only when the payload is too
/// short to carry a version at all.
pub fn peek_version(bytes: &[u8]) -> Result<u32, String> {
    let mut r = Reader::new(bytes);
    r.get_u32().map_err(|e| e.to_string())
}

fn decode_inner(
    config: &ScenarioConfig,
    r: &mut Reader<'_>,
    mode: ResumeMode,
) -> Result<Driver, CodecError> {
    let version = r.get_u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(bad(
            r,
            format!("snapshot layout version {version} found, supported {SNAPSHOT_VERSION}"),
        ));
    }

    // A freshly constructed driver supplies all config-derived state; the
    // snapshot then overwrites everything mutable. `Driver::new` does not
    // seed the catalog or push events — that is `start()`, which a resume
    // must never run. Under `ResumeMode::Fork` the config-derived state
    // (fault oracle, retry policy, breaker thresholds, samplers) is
    // exactly where the forked knobs take effect.
    let mut d = Driver::new(config.clone());

    let seed = r.get_u64()?;
    let duration_ms = r.get_i64()?;
    let initial_datasets = r.get_u64()?;
    let n_sites = r.get_u32()? as usize;
    let behavior_fp = r.get_u64()?;
    let structural_fp = r.get_u64()?;
    if structural_fp != config.structural_fingerprint() || n_sites != d.topology.n_sites() {
        return Err(bad(
            r,
            format!(
                "snapshot structural fingerprint mismatch: taken under seed {seed} with \
                 {n_sites} sites — {} config has seed {} and {} sites (seed and topology can \
                 never change across a resume or fork)",
                if mode == ResumeMode::Fork {
                    "fork"
                } else {
                    "resume"
                },
                config.seed,
                d.topology.n_sites()
            ),
        ));
    }
    if mode == ResumeMode::Strict {
        if seed != config.seed
            || duration_ms != config.duration.as_millis()
            || initial_datasets != config.initial_datasets as u64
        {
            return Err(bad(
                r,
                format!(
                    "snapshot fingerprint mismatch: taken under seed {seed}, duration {duration_ms} ms, \
                     {initial_datasets} datasets — resume config has seed {}, \
                     duration {} ms, {} datasets",
                    config.seed,
                    config.duration.as_millis(),
                    config.initial_datasets,
                ),
            ));
        }
        if behavior_fp != config.behavior_fingerprint() {
            return Err(bad(
                r,
                format!(
                    "snapshot behavior fingerprint mismatch ({behavior_fp:#018x} vs \
                     {:#018x}): the resume config differs in a behavior-affecting knob \
                     (fault rates, breaker settings, retry budget, workload, corruption, \
                     or traffic fractions); resuming would silently replay divergent \
                     state — use the deliberate fork entry point if the change is intended",
                    config.behavior_fingerprint()
                ),
            ));
        }
    }

    // Clock + event queue.
    let now = get_time(r)?;
    let next_seq = r.get_u64()?;
    let n = r.get_seq_len(17)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let t = get_time(r)?;
        let seq = r.get_u64()?;
        if seq >= next_seq {
            return Err(bad(
                r,
                format!("queue entry seq {seq} >= next_seq {next_seq}"),
            ));
        }
        let ev = get_event(r)?;
        entries.push((t, seq, ev));
    }
    d.queue = EventQueue::restore(entries, next_seq, now);

    // Driver RNG streams.
    d.rng_task = get_rng(r)?;
    d.rng_job = get_rng(r)?;
    d.rng_bg = get_rng(r)?;

    // Transfer engine.
    let engine_snap = get_engine(r)?;
    d.engine
        .restore(engine_snap)
        .map_err(|e| bad(r, format!("transfer engine: {e}")))?;

    // Replica catalog.
    d.catalog = get_catalog(r)?;

    // Replication rules.
    let n = r.get_seq_len(8)?;
    let mut rules = Vec::with_capacity(n);
    for _ in 0..n {
        rules.push(get_rule(r)?);
    }
    d.rules = RuleEngine::from_rules(rules).map_err(|e| bad(r, format!("rules: {e}")))?;

    // Circuit breakers. On a strict resume the armed/disarmed choice must
    // agree with the config, otherwise the resumed decision paths would
    // diverge from the run that produced the snapshot. A deliberate fork
    // may flip the switch: arming starts fresh breakers (empty
    // telemetry), disarming drops the snapshot's breaker state.
    let had_health = r.get_bool()?;
    let snap_health = if had_health {
        let snap = get_health(r)?;
        if snap.sites.len() != d.topology.n_sites() {
            return Err(bad(
                r,
                format!(
                    "health snapshot covers {} sites, topology has {}",
                    snap.sites.len(),
                    d.topology.n_sites()
                ),
            ));
        }
        Some(snap)
    } else {
        None
    };
    d.health = match (snap_health, config.health.enabled) {
        (None, false) => None,
        (Some(snap), true) => Some(HealthMonitor::restore(config.health.clone(), snap)),
        (None, true) if mode == ResumeMode::Fork => Some(HealthMonitor::new(
            config.health.clone(),
            d.topology.n_sites(),
        )),
        (Some(_), false) if mode == ResumeMode::Fork => None,
        (snap, cfg_armed) => {
            return Err(bad(
                r,
                format!(
                    "health loop mismatch: snapshot armed = {}, config armed = {cfg_armed}",
                    snap.is_some()
                ),
            ));
        }
    };

    // Brokerage load feedback + compute slots.
    d.queued = get_u32_seq(r, d.topology.n_sites(), "queued")?;
    d.running = get_u32_seq(r, d.topology.n_sites(), "running")?;
    let n = r.get_seq_len(8)?;
    if n != d.compute_slots.len() {
        return Err(bad(
            r,
            format!(
                "{n} compute-slot rows, topology has {}",
                d.compute_slots.len()
            ),
        ));
    }
    for (site, heap) in d.compute_slots.iter_mut().enumerate() {
        let k = r.get_seq_len(8)?;
        if k != heap.len() {
            return Err(bad(
                r,
                format!(
                    "site {site} has {k} slot clocks, topology says {}",
                    heap.len()
                ),
            ));
        }
        let mut fresh = BinaryHeap::with_capacity(k);
        for _ in 0..k {
            fresh.push(Reverse(r.get_i64()?));
        }
        *heap = fresh;
    }

    // Task contexts.
    let n = r.get_seq_len(19)?;
    let mut tasks = Vec::with_capacity(n);
    for _ in 0..n {
        tasks.push(get_task_ctx(r)?);
    }
    d.tasks = tasks;

    // Finished jobs. Task indices must point into the task table.
    let n = r.get_seq_len(60)?;
    let mut finished = Vec::with_capacity(n);
    for _ in 0..n {
        let job = get_job(r)?;
        let task_idx = r.get_u32()?;
        if task_idx as usize >= d.tasks.len() {
            return Err(bad(
                r,
                format!(
                    "finished job points at task {task_idx} of {}",
                    d.tasks.len()
                ),
            ));
        }
        let recorded_upload = r.get_bool()?;
        finished.push((job, task_idx, recorded_upload));
    }
    d.finished = finished;

    // Ground-truth transfer events.
    let n = r.get_seq_len(80)?;
    let mut transfers = Vec::with_capacity(n);
    let n_syms = d.catalog.names().len() as u32;
    for i in 0..n {
        let ev = get_transfer_event(r)?;
        if ev.lfn.0 >= n_syms || ev.dataset.0 >= n_syms || ev.proddblock.0 >= n_syms {
            return Err(bad(
                r,
                format!("transfer event {i} name symbol out of range"),
            ));
        }
        let recorded = r.get_bool()?;
        transfers.push((ev, recorded));
    }
    d.transfers = transfers;

    // Id counters.
    d.next_pandaid = r.get_u64()?;
    d.next_taskid = r.get_u64()?;
    d.next_dio_id = r.get_u64()?;
    d.next_output_seq = r.get_u64()?;

    // Delivered-event counter (v2).
    d.events_processed = r.get_u64()?;

    if !r.is_exhausted() {
        return Err(bad(
            r,
            format!("{} trailing bytes after snapshot payload", r.remaining()),
        ));
    }
    Ok(d)
}

fn bad(r: &Reader<'_>, what: String) -> CodecError {
    CodecError {
        offset: r.offset(),
        what,
    }
}

// ---------------------------------------------------------------------------
// Leaf helpers
// ---------------------------------------------------------------------------

fn put_time(w: &mut Writer, t: SimTime) {
    w.put_i64(t.as_millis());
}

fn get_time(r: &mut Reader<'_>) -> Result<SimTime, CodecError> {
    Ok(SimTime::from_millis(r.get_i64()?))
}

fn put_rng(w: &mut Writer, rng: &SimRng) {
    for word in rng.state() {
        w.put_u64(word);
    }
}

fn get_rng(r: &mut Reader<'_>) -> Result<SimRng, CodecError> {
    let mut s = [0u64; 4];
    for word in &mut s {
        *word = r.get_u64()?;
    }
    if s == [0; 4] {
        return Err(bad(r, "all-zero RNG state (xoshiro fixed point)".into()));
    }
    Ok(SimRng::from_state(s))
}

fn put_opt_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        None => w.put_bool(false),
        Some(x) => {
            w.put_bool(true);
            w.put_u64(x);
        }
    }
}

fn get_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, CodecError> {
    Ok(if r.get_bool()? {
        Some(r.get_u64()?)
    } else {
        None
    })
}

fn put_u32_seq(w: &mut Writer, xs: &[u32]) {
    w.put_seq_len(xs.len());
    for &x in xs {
        w.put_u32(x);
    }
}

fn get_u32_seq(r: &mut Reader<'_>, want: usize, what: &str) -> Result<Vec<u32>, CodecError> {
    let n = r.get_seq_len(4)?;
    if n != want {
        return Err(bad(
            r,
            format!("{what} has {n} entries, topology wants {want}"),
        ));
    }
    (0..n).map(|_| r.get_u32()).collect()
}

fn put_file_ids(w: &mut Writer, xs: &[FileId]) {
    w.put_seq_len(xs.len());
    for x in xs {
        w.put_u64(x.0);
    }
}

fn get_file_ids(r: &mut Reader<'_>) -> Result<Vec<FileId>, CodecError> {
    let n = r.get_seq_len(8)?;
    (0..n).map(|_| Ok(FileId(r.get_u64()?))).collect()
}

fn put_scope(w: &mut Writer, s: Scope) {
    match s {
        Scope::User(u) => {
            w.put_u8(0);
            w.put_u32(u);
        }
        Scope::McProd => w.put_u8(1),
        Scope::Data => w.put_u8(2),
        Scope::GroupPhys => w.put_u8(3),
    }
}

fn get_scope(r: &mut Reader<'_>) -> Result<Scope, CodecError> {
    match r.get_u8()? {
        0 => Ok(Scope::User(r.get_u32()?)),
        1 => Ok(Scope::McProd),
        2 => Ok(Scope::Data),
        3 => Ok(Scope::GroupPhys),
        t => Err(bad(r, format!("unknown scope tag {t}"))),
    }
}

fn put_kind(w: &mut Writer, k: TaskKind) {
    w.put_u8(match k {
        TaskKind::UserAnalysis => 0,
        TaskKind::Production => 1,
    });
}

fn get_kind(r: &mut Reader<'_>) -> Result<TaskKind, CodecError> {
    match r.get_u8()? {
        0 => Ok(TaskKind::UserAnalysis),
        1 => Ok(TaskKind::Production),
        t => Err(bad(r, format!("unknown task kind tag {t}"))),
    }
}

fn put_io_mode(w: &mut Writer, m: IoMode) {
    w.put_u8(match m {
        IoMode::StageIn => 0,
        IoMode::DirectIo => 1,
    });
}

fn get_io_mode(r: &mut Reader<'_>) -> Result<IoMode, CodecError> {
    match r.get_u8()? {
        0 => Ok(IoMode::StageIn),
        1 => Ok(IoMode::DirectIo),
        t => Err(bad(r, format!("unknown io-mode tag {t}"))),
    }
}

fn put_activity(w: &mut Writer, a: Activity) {
    w.put_u8(match a {
        Activity::AnalysisDownload => 0,
        Activity::AnalysisUpload => 1,
        Activity::AnalysisDownloadDirectIo => 2,
        Activity::ProductionUpload => 3,
        Activity::ProductionDownload => 4,
        Activity::DataRebalancing => 5,
        Activity::TapeRecall => 6,
        Activity::DataConsolidation => 7,
    });
}

fn get_activity(r: &mut Reader<'_>) -> Result<Activity, CodecError> {
    Ok(match r.get_u8()? {
        0 => Activity::AnalysisDownload,
        1 => Activity::AnalysisUpload,
        2 => Activity::AnalysisDownloadDirectIo,
        3 => Activity::ProductionUpload,
        4 => Activity::ProductionDownload,
        5 => Activity::DataRebalancing,
        6 => Activity::TapeRecall,
        7 => Activity::DataConsolidation,
        t => return Err(bad(r, format!("unknown activity tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Compound helpers
// ---------------------------------------------------------------------------

fn put_pending_job(w: &mut Writer, pj: &PendingJob) {
    w.put_u64(pj.pandaid);
    w.put_u32(pj.task_idx);
    put_kind(w, pj.kind);
    put_io_mode(w, pj.io_mode);
    w.put_bool(pj.doomed);
    put_file_ids(w, &pj.input_files);
    w.put_u64(pj.input_bytes);
    put_time(w, pj.creation);
    w.put_u32(pj.site.0);
    w.put_bool(pj.recorded_stagein);
    match pj.stage_source {
        None => w.put_bool(false),
        Some(rse) => {
            w.put_bool(true);
            w.put_u32(rse.0);
        }
    }
    w.put_seq_len(pj.stage_intervals.len());
    for iv in &pj.stage_intervals {
        put_time(w, iv.start);
        put_time(w, iv.end);
    }
    put_time(w, pj.staging_end);
    w.put_bool(pj.lost_input);
    w.put_bool(pj.rebrokered);
    put_time(w, pj.start);
    put_time(w, pj.exec_end);
}

fn get_pending_job(r: &mut Reader<'_>) -> Result<PendingJob, CodecError> {
    let pandaid = r.get_u64()?;
    let task_idx = r.get_u32()?;
    let kind = get_kind(r)?;
    let io_mode = get_io_mode(r)?;
    let doomed = r.get_bool()?;
    let input_files = get_file_ids(r)?;
    let input_bytes = r.get_u64()?;
    let creation = get_time(r)?;
    let site = SiteId(r.get_u32()?);
    let recorded_stagein = r.get_bool()?;
    let stage_source = if r.get_bool()? {
        Some(RseId(r.get_u32()?))
    } else {
        None
    };
    let n = r.get_seq_len(16)?;
    let mut stage_intervals = Vec::with_capacity(n);
    for _ in 0..n {
        let start = get_time(r)?;
        let end = get_time(r)?;
        stage_intervals.push(Interval::new(start, end));
    }
    let staging_end = get_time(r)?;
    let lost_input = r.get_bool()?;
    let rebrokered = r.get_bool()?;
    let start = get_time(r)?;
    let exec_end = get_time(r)?;
    Ok(PendingJob {
        pandaid,
        task_idx,
        kind,
        io_mode,
        doomed,
        input_files,
        input_bytes,
        creation,
        site,
        recorded_stagein,
        stage_source,
        stage_intervals,
        staging_end,
        lost_input,
        rebrokered,
        start,
        exec_end,
    })
}

fn put_event(w: &mut Writer, ev: &Event) {
    match ev {
        Event::TaskArrival => w.put_u8(0),
        Event::JobCreated(pj) => {
            w.put_u8(1);
            put_pending_job(w, pj);
        }
        Event::StagingDone(pj) => {
            w.put_u8(2);
            put_pending_job(w, pj);
        }
        Event::ExecDone(pj) => {
            w.put_u8(3);
            put_pending_job(w, pj);
        }
        Event::Background => w.put_u8(4),
        Event::Reaper => w.put_u8(5),
    }
}

fn get_event(r: &mut Reader<'_>) -> Result<Event, CodecError> {
    Ok(match r.get_u8()? {
        0 => Event::TaskArrival,
        1 => Event::JobCreated(Box::new(get_pending_job(r)?)),
        2 => Event::StagingDone(Box::new(get_pending_job(r)?)),
        3 => Event::ExecDone(Box::new(get_pending_job(r)?)),
        4 => Event::Background,
        5 => Event::Reaper,
        t => return Err(bad(r, format!("unknown event tag {t}"))),
    })
}

fn put_engine(w: &mut Writer, s: &TransferEngineSnapshot) {
    w.put_seq_len(s.slots.len());
    for row in &s.slots {
        w.put_seq_len(row.len());
        for &t in row {
            w.put_i64(t);
        }
    }
    w.put_u64(s.next_id);
    for word in s.jitter_rng {
        w.put_u64(word);
    }
    for word in s.fault_rng {
        w.put_u64(word);
    }
    let st = &s.stats;
    w.put_u64(st.requests);
    w.put_u64(st.delivered);
    w.put_u64(st.delivered_after_retry);
    w.put_u64(st.failed_attempts);
    w.put_u64(st.exhausted);
    w.put_u64(st.no_replica);
}

fn get_engine(r: &mut Reader<'_>) -> Result<TransferEngineSnapshot, CodecError> {
    let n = r.get_seq_len(8)?;
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        let k = r.get_seq_len(8)?;
        let mut row = Vec::with_capacity(k);
        for _ in 0..k {
            row.push(r.get_i64()?);
        }
        slots.push(row);
    }
    let next_id = r.get_u64()?;
    let mut jitter_rng = [0u64; 4];
    for word in &mut jitter_rng {
        *word = r.get_u64()?;
    }
    let mut fault_rng = [0u64; 4];
    for word in &mut fault_rng {
        *word = r.get_u64()?;
    }
    let stats = TransferPathStats {
        requests: r.get_u64()?,
        delivered: r.get_u64()?,
        delivered_after_retry: r.get_u64()?,
        failed_attempts: r.get_u64()?,
        exhausted: r.get_u64()?,
        no_replica: r.get_u64()?,
    };
    Ok(TransferEngineSnapshot {
        slots,
        next_id,
        jitter_rng,
        fault_rng,
        stats,
    })
}

fn put_catalog(w: &mut Writer, c: &ReplicaCatalog) {
    // Symbol table first: every string once, in dense sym order, so the
    // per-entry name fields below are plain u32 handles.
    put_symbol_table(w, c.names());
    w.put_seq_len(c.files().len());
    for f in c.files() {
        w.put_u64(f.id.0);
        w.put_u32(f.lfn.0);
        put_scope(w, f.scope);
        w.put_u64(f.size);
        w.put_u64(f.dataset.0);
        put_time(w, f.registered);
    }
    w.put_seq_len(c.datasets().len());
    for ds in c.datasets() {
        w.put_u64(ds.id.0);
        w.put_u32(ds.name.0);
        put_scope(w, ds.scope);
        w.put_u32(ds.prod_dblock.0);
        put_file_ids(w, &ds.files);
        w.put_u64(ds.total_bytes);
    }
    w.put_seq_len(c.containers().len());
    for ct in c.containers() {
        w.put_u64(ct.id.0);
        w.put_str(&ct.name.0);
        w.put_seq_len(ct.datasets.len());
        for d in &ct.datasets {
            w.put_u64(d.0);
        }
    }
    w.put_seq_len(c.replicas().len());
    for set in c.replicas() {
        w.put_seq_len(set.len());
        for rse in set {
            w.put_u32(rse.0);
        }
    }
}

fn get_catalog(r: &mut Reader<'_>) -> Result<ReplicaCatalog, CodecError> {
    let names = get_symbol_table(r)?;
    let n = r.get_seq_len(35)?;
    let mut files = Vec::with_capacity(n);
    for _ in 0..n {
        files.push(FileEntry {
            id: FileId(r.get_u64()?),
            lfn: Sym(r.get_u32()?),
            scope: get_scope(r)?,
            size: r.get_u64()?,
            dataset: DatasetId(r.get_u64()?),
            registered: get_time(r)?,
        });
    }
    let n = r.get_seq_len(40)?;
    let mut datasets = Vec::with_capacity(n);
    for _ in 0..n {
        datasets.push(DatasetEntry {
            id: DatasetId(r.get_u64()?),
            name: Sym(r.get_u32()?),
            scope: get_scope(r)?,
            prod_dblock: Sym(r.get_u32()?),
            files: get_file_ids(r)?,
            total_bytes: r.get_u64()?,
        });
    }
    let n = r.get_seq_len(24)?;
    let mut containers = Vec::with_capacity(n);
    for _ in 0..n {
        let id = ContainerId(r.get_u64()?);
        let name = DidName(r.get_str()?);
        let k = r.get_seq_len(8)?;
        let datasets = (0..k)
            .map(|_| Ok(DatasetId(r.get_u64()?)))
            .collect::<Result<Vec<_>, CodecError>>()?;
        containers.push(ContainerEntry { id, name, datasets });
    }
    let n = r.get_seq_len(8)?;
    let mut replicas = Vec::with_capacity(n);
    for _ in 0..n {
        let k = r.get_seq_len(4)?;
        let set = (0..k)
            .map(|_| Ok(RseId(r.get_u32()?)))
            .collect::<Result<Vec<_>, CodecError>>()?;
        replicas.push(set);
    }
    let off = r.offset();
    ReplicaCatalog::from_parts(names, files, datasets, containers, replicas).map_err(|e| {
        CodecError {
            offset: off,
            what: format!("catalog: {e}"),
        }
    })
}

/// Dense symbol-table image: string count, then every string in sym
/// order (index 0 is always the `UNKNOWN` sentinel a fresh table holds).
fn put_symbol_table(w: &mut Writer, t: &SymbolTable) {
    w.put_seq_len(t.len());
    for s in t.iter() {
        w.put_str(s);
    }
}

fn get_symbol_table(r: &mut Reader<'_>) -> Result<SymbolTable, CodecError> {
    let n = r.get_seq_len(8)?;
    let mut t = SymbolTable::new();
    t.reserve(n);
    for i in 0..n {
        let s = r.get_str()?;
        let sym = t
            .try_intern(&s)
            .ok_or_else(|| bad(r, format!("symbol table entry {i} does not fit")))?;
        if sym.0 as usize != i {
            return Err(bad(
                r,
                format!("symbol table entry {i} duplicates entry {}", sym.0),
            ));
        }
    }
    Ok(t)
}

fn put_rule(w: &mut Writer, rule: &ReplicationRule) {
    w.put_u64(rule.id.0);
    w.put_u64(rule.dataset.0);
    w.put_seq_len(rule.candidate_rses.len());
    for rse in &rule.candidate_rses {
        w.put_u32(rse.0);
    }
    w.put_u64(rule.copies as u64);
    put_time(w, rule.created);
    match rule.lifetime {
        None => w.put_bool(false),
        Some(l) => {
            w.put_bool(true);
            w.put_i64(l.as_millis());
        }
    }
}

fn get_rule(r: &mut Reader<'_>) -> Result<ReplicationRule, CodecError> {
    let id = RuleId(r.get_u64()?);
    let dataset = DatasetId(r.get_u64()?);
    let n = r.get_seq_len(4)?;
    let candidate_rses = (0..n)
        .map(|_| Ok(RseId(r.get_u32()?)))
        .collect::<Result<Vec<_>, CodecError>>()?;
    let copies = r.get_u64()? as usize;
    let created = get_time(r)?;
    let lifetime = if r.get_bool()? {
        Some(SimDuration::from_millis(r.get_i64()?))
    } else {
        None
    };
    Ok(ReplicationRule {
        id,
        dataset,
        candidate_rses,
        copies,
        created,
        lifetime,
    })
}

fn put_subject(w: &mut Writer, s: HealthSubject) {
    match s {
        HealthSubject::Site(site) => {
            w.put_u8(0);
            w.put_u32(site.0);
        }
        HealthSubject::Link { src, dst } => {
            w.put_u8(1);
            w.put_u32(src.0);
            w.put_u32(dst.0);
        }
    }
}

fn get_subject(r: &mut Reader<'_>) -> Result<HealthSubject, CodecError> {
    match r.get_u8()? {
        0 => Ok(HealthSubject::Site(SiteId(r.get_u32()?))),
        1 => Ok(HealthSubject::Link {
            src: SiteId(r.get_u32()?),
            dst: SiteId(r.get_u32()?),
        }),
        t => Err(bad(r, format!("unknown health subject tag {t}"))),
    }
}

fn put_breaker(w: &mut Writer, b: &BreakerSnapshot) {
    w.put_u8(match b.state {
        BreakerState::Closed => 0,
        BreakerState::Open => 1,
        BreakerState::HalfOpen => 2,
    });
    w.put_seq_len(b.samples.len());
    for &(t, failed) in &b.samples {
        put_time(w, t);
        w.put_bool(failed);
    }
    w.put_u32(b.consecutive_failures);
    put_time(w, b.open_until);
    w.put_u32(b.probes_granted);
    w.put_u32(b.probe_successes);
}

fn get_breaker(r: &mut Reader<'_>) -> Result<BreakerSnapshot, CodecError> {
    let state = match r.get_u8()? {
        0 => BreakerState::Closed,
        1 => BreakerState::Open,
        2 => BreakerState::HalfOpen,
        t => return Err(bad(r, format!("unknown breaker state tag {t}"))),
    };
    let n = r.get_seq_len(9)?;
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t = get_time(r)?;
        let failed = r.get_bool()?;
        samples.push((t, failed));
    }
    Ok(BreakerSnapshot {
        state,
        samples,
        consecutive_failures: r.get_u32()?,
        open_until: get_time(r)?,
        probes_granted: r.get_u32()?,
        probe_successes: r.get_u32()?,
    })
}

fn put_health(w: &mut Writer, h: &HealthSnapshot) {
    w.put_seq_len(h.sites.len());
    for b in &h.sites {
        put_breaker(w, b);
    }
    w.put_seq_len(h.links.len());
    for ((src, dst), b) in &h.links {
        w.put_u32(src.0);
        w.put_u32(dst.0);
        put_breaker(w, b);
    }
    w.put_seq_len(h.episodes.len());
    for ep in &h.episodes {
        put_subject(w, ep.subject);
        put_time(w, ep.from);
        put_time(w, ep.until);
    }
    w.put_u64(h.counters.site_refusals);
    w.put_u64(h.counters.link_refusals);
    w.put_u64(h.counters.probes_granted);
    w.put_u64(h.counters.trips);
}

fn get_health(r: &mut Reader<'_>) -> Result<HealthSnapshot, CodecError> {
    let n = r.get_seq_len(26)?;
    let mut sites = Vec::with_capacity(n);
    for _ in 0..n {
        sites.push(get_breaker(r)?);
    }
    let n = r.get_seq_len(34)?;
    let mut links = Vec::with_capacity(n);
    for _ in 0..n {
        let src = SiteId(r.get_u32()?);
        let dst = SiteId(r.get_u32()?);
        links.push(((src, dst), get_breaker(r)?));
    }
    let n = r.get_seq_len(17)?;
    let mut episodes = Vec::with_capacity(n);
    for _ in 0..n {
        let subject = get_subject(r)?;
        let from = get_time(r)?;
        let until = get_time(r)?;
        episodes.push(OpenEpisode {
            subject,
            from,
            until,
        });
    }
    let counters = HealthCounters {
        site_refusals: r.get_u64()?,
        link_refusals: r.get_u64()?,
        probes_granted: r.get_u64()?,
        trips: r.get_u64()?,
    };
    Ok(HealthSnapshot {
        sites,
        links,
        episodes,
        counters,
    })
}

fn put_task_ctx(w: &mut Writer, t: &TaskCtx) {
    w.put_u64(t.id.0);
    put_kind(w, t.kind);
    w.put_bool(t.doomed);
    w.put_u32(t.n_jobs);
    w.put_u32(t.progress.n_finished);
    w.put_u32(t.progress.n_failed);
}

fn get_task_ctx(r: &mut Reader<'_>) -> Result<TaskCtx, CodecError> {
    Ok(TaskCtx {
        id: TaskId(r.get_u64()?),
        kind: get_kind(r)?,
        doomed: r.get_bool()?,
        n_jobs: r.get_u32()?,
        progress: TaskProgress {
            n_finished: r.get_u32()?,
            n_failed: r.get_u32()?,
        },
    })
}

fn put_job(w: &mut Writer, j: &Job) {
    w.put_u64(j.id.0);
    w.put_u64(j.task.0);
    put_kind(w, j.kind);
    w.put_u32(j.computing_site.0);
    put_time(w, j.creationtime);
    put_time(w, j.starttime);
    put_time(w, j.endtime);
    put_file_ids(w, &j.input_files);
    put_file_ids(w, &j.output_files);
    w.put_u64(j.ninputfilebytes);
    w.put_u64(j.noutputfilebytes);
    put_io_mode(w, j.io_mode);
    w.put_u8(match j.status {
        JobStatus::Finished => 0,
        JobStatus::Failed => 1,
    });
    w.put_u8(match j.task_status {
        TaskStatus::Done => 0,
        TaskStatus::Failed => 1,
    });
    match j.error_code {
        None => w.put_bool(false),
        Some(c) => {
            w.put_bool(true);
            w.put_u32(c);
        }
    }
}

fn get_job(r: &mut Reader<'_>) -> Result<Job, CodecError> {
    Ok(Job {
        id: JobId(r.get_u64()?),
        task: TaskId(r.get_u64()?),
        kind: get_kind(r)?,
        computing_site: SiteId(r.get_u32()?),
        creationtime: get_time(r)?,
        starttime: get_time(r)?,
        endtime: get_time(r)?,
        input_files: get_file_ids(r)?,
        output_files: get_file_ids(r)?,
        ninputfilebytes: r.get_u64()?,
        noutputfilebytes: r.get_u64()?,
        io_mode: get_io_mode(r)?,
        status: match r.get_u8()? {
            0 => JobStatus::Finished,
            1 => JobStatus::Failed,
            t => return Err(bad(r, format!("unknown job status tag {t}"))),
        },
        task_status: match r.get_u8()? {
            0 => TaskStatus::Done,
            1 => TaskStatus::Failed,
            t => return Err(bad(r, format!("unknown task status tag {t}"))),
        },
        error_code: if r.get_bool()? {
            Some(r.get_u32()?)
        } else {
            None
        },
    })
}

fn put_transfer_event(w: &mut Writer, ev: &TransferEvent) {
    w.put_u64(ev.id.0);
    w.put_u64(ev.file.0);
    w.put_u32(ev.lfn.0);
    w.put_u32(ev.dataset.0);
    w.put_u32(ev.proddblock.0);
    put_scope(w, ev.scope);
    w.put_u64(ev.file_size);
    w.put_u32(ev.source_site.0);
    w.put_u32(ev.destination_site.0);
    put_time(w, ev.queued);
    put_time(w, ev.starttime);
    put_time(w, ev.endtime);
    put_activity(w, ev.activity);
    w.put_u32(ev.attempt);
    w.put_bool(ev.succeeded);
    put_opt_u64(w, ev.caused_by_pandaid);
    put_opt_u64(w, ev.jeditaskid);
}

fn get_transfer_event(r: &mut Reader<'_>) -> Result<TransferEvent, CodecError> {
    Ok(TransferEvent {
        id: TransferId(r.get_u64()?),
        file: FileId(r.get_u64()?),
        lfn: Sym(r.get_u32()?),
        dataset: Sym(r.get_u32()?),
        proddblock: Sym(r.get_u32()?),
        scope: get_scope(r)?,
        file_size: r.get_u64()?,
        source_site: SiteId(r.get_u32()?),
        destination_site: SiteId(r.get_u32()?),
        queued: get_time(r)?,
        starttime: get_time(r)?,
        endtime: get_time(r)?,
        activity: get_activity(r)?,
        attempt: r.get_u32()?,
        succeeded: r.get_bool()?,
        caused_by_pandaid: get_opt_u64(r)?,
        jeditaskid: get_opt_u64(r)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver;

    fn tiny() -> ScenarioConfig {
        ScenarioConfig {
            duration: SimDuration::from_hours(6),
            initial_datasets: 40,
            ..ScenarioConfig::small()
        }
    }

    /// Collect every snapshot a checkpointed run emits.
    fn checkpoints(config: &ScenarioConfig, every: SimDuration) -> Vec<(SimTime, Vec<u8>)> {
        let mut out = Vec::new();
        driver::run_checkpointed(config, every, &mut |t, bytes| {
            out.push((t, bytes.to_vec()));
            Ok(())
        })
        .expect("collecting sink cannot fail");
        out
    }

    fn assert_same_campaign(a: &driver::Campaign, b: &driver::Campaign) {
        assert_eq!(a.store.counts(), b.store.counts());
        assert_eq!(a.store.jobs.len(), b.store.jobs.len());
        for (x, y) in a.store.jobs.iter().zip(&b.store.jobs) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        for (x, y) in a.store.files.iter().zip(&b.store.files) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        for (x, y) in a.store.transfers.iter().zip(&b.store.transfers) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        assert_eq!(a.path_stats, b.path_stats);
        match (&a.health, &b.health) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.episodes, y.episodes);
                assert_eq!(x.counters, y.counters);
            }
            _ => panic!("health summaries disagree on being armed"),
        }
    }

    #[test]
    fn checkpointing_does_not_perturb_the_campaign() {
        let config = tiny();
        let base = driver::run(&config);
        let checkpointed =
            driver::run_checkpointed(&config, SimDuration::from_hours(1), &mut |_, _| Ok(()))
                .expect("no-op sink");
        assert_same_campaign(&base, &checkpointed);
    }

    #[test]
    fn resume_from_every_checkpoint_is_byte_identical() {
        let config = tiny();
        let base = driver::run(&config);
        let cps = checkpoints(&config, SimDuration::from_hours(2));
        assert!(cps.len() >= 2, "only {} checkpoints", cps.len());
        for (t, bytes) in &cps {
            let resumed = driver::resume_checkpointed(&config, bytes, None, &mut |_, _| Ok(()))
                .unwrap_or_else(|e| panic!("resume from {t:?} failed: {e}"));
            assert_same_campaign(&base, &resumed);
        }
    }

    #[test]
    fn resume_is_byte_identical_under_faults_and_adaptive_exclusion() {
        for config in [
            ScenarioConfig {
                duration: SimDuration::from_hours(6),
                ..ScenarioConfig::small_faulty()
            },
            ScenarioConfig {
                duration: SimDuration::from_hours(6),
                ..ScenarioConfig::faulty_adaptive()
            },
        ] {
            let base = driver::run(&config);
            let cps = checkpoints(&config, SimDuration::from_hours(2));
            assert!(!cps.is_empty());
            let (_, bytes) = &cps[cps.len() / 2];
            let resumed =
                driver::resume_checkpointed(&config, bytes, None, &mut |_, _| Ok(())).unwrap();
            assert_same_campaign(&base, &resumed);
        }
    }

    #[test]
    fn snapshot_encode_decode_encode_is_lossless() {
        let config = tiny();
        let cps = checkpoints(&config, SimDuration::from_hours(2));
        let (_, bytes) = cps.last().expect("at least one checkpoint");
        let d = decode(&config, bytes).expect("decode");
        assert_eq!(&encode(&d), bytes, "re-encode drifted");
    }

    #[test]
    fn truncated_or_corrupt_snapshot_is_an_error_not_a_panic() {
        let config = tiny();
        let cps = checkpoints(&config, SimDuration::from_hours(2));
        let (_, bytes) = cps.last().unwrap();
        // Truncation at a few depths.
        for cut in [0, 1, 4, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&config, &bytes[..cut])
                .err()
                .expect("truncated must fail");
            assert!(err.contains("byte"), "no offset in: {err}");
        }
        // Unknown future layout version.
        let mut future = bytes.clone();
        future[0] = 99;
        let err = decode(&config, &future).err().unwrap();
        assert!(err.contains("version 99"), "bad message: {err}");
        assert!(err.contains("supported 3"), "bad message: {err}");
    }

    #[test]
    fn snapshot_under_wrong_config_is_rejected() {
        let config = tiny();
        let cps = checkpoints(&config, SimDuration::from_hours(2));
        let (_, bytes) = cps.last().unwrap();
        let other = ScenarioConfig { seed: 43, ..tiny() };
        let err = decode(&other, bytes).err().unwrap();
        assert!(err.contains("fingerprint"), "bad message: {err}");
    }

    #[test]
    fn resume_under_divergent_behavior_knob_is_rejected() {
        // The historical hole: fault rates and breaker settings were not
        // part of the fingerprint, so a resume under silently different
        // tuning replayed divergent state. Now every behavior knob counts.
        let config = ScenarioConfig {
            duration: SimDuration::from_hours(6),
            ..ScenarioConfig::small_faulty()
        };
        let cps = checkpoints(&config, SimDuration::from_hours(2));
        let (_, bytes) = cps.last().unwrap();

        let mut hotter = config.clone();
        hotter.faults.p_attempt_failure += 0.05;
        let err = decode(&hotter, bytes).err().unwrap();
        assert!(err.contains("behavior fingerprint"), "bad message: {err}");
        assert!(
            err.contains("fork"),
            "should point at the escape hatch: {err}"
        );

        let mut armed = config.clone();
        armed.health = ScenarioConfig::faulty_adaptive().health;
        assert!(armed.health.enabled);
        let err = decode(&armed, bytes).err().unwrap();
        assert!(err.contains("behavior fingerprint"), "bad message: {err}");
    }

    #[test]
    fn fork_accepts_divergent_behavior_knobs_but_not_structural_ones() {
        let config = ScenarioConfig {
            duration: SimDuration::from_hours(6),
            ..ScenarioConfig::small_faulty()
        };
        let cps = checkpoints(&config, SimDuration::from_hours(2));
        let (t, bytes) = cps.last().unwrap();

        // Fault-rate fork: accepted, resumes at the snapshot time.
        let mut hotter = config.clone();
        hotter.faults.p_attempt_failure += 0.05;
        let d = decode_forked(&hotter, bytes).expect("fault-rate fork");
        // The snapshot clock is the last event dispatched before the
        // checkpoint boundary `t` (the queue is snapshotted intact).
        assert!(d.queue.now() <= *t, "{:?} > {t:?}", d.queue.now());

        // Arming the health loop across the fork: fresh breakers.
        let mut armed = config.clone();
        armed.health = ScenarioConfig::faulty_adaptive().health;
        let d = decode_forked(&armed, bytes).expect("arming fork");
        let snap = d.health.as_ref().expect("fork armed the loop").snapshot();
        assert!(snap.episodes.is_empty(), "fresh breakers carry no episodes");
        assert_eq!(snap.counters.trips, 0);

        // Disarming across the fork: breaker state dropped.
        let adaptive = ScenarioConfig {
            duration: SimDuration::from_hours(6),
            ..ScenarioConfig::faulty_adaptive()
        };
        let acps = checkpoints(&adaptive, SimDuration::from_hours(2));
        let (_, abytes) = acps.last().unwrap();
        let mut disarmed = adaptive.clone();
        disarmed.health.enabled = false;
        let d = decode_forked(&disarmed, abytes).expect("disarming fork");
        assert!(d.health.is_none());

        // Seed and topology stay load-bearing even for a fork.
        let err = decode_forked(
            &ScenarioConfig {
                seed: 43,
                ..config.clone()
            },
            bytes,
        )
        .err()
        .unwrap();
        assert!(err.contains("structural"), "bad message: {err}");
    }

    #[test]
    fn fork_with_identical_config_is_byte_identical_to_uninterrupted_run() {
        // Degenerate fork (fork config == base config) must collapse to a
        // plain resume: prefix + continuation is the uninterrupted run.
        for config in [
            tiny(),
            ScenarioConfig {
                duration: SimDuration::from_hours(6),
                ..ScenarioConfig::faulty_adaptive()
            },
        ] {
            let base = driver::run(&config);
            let forked = driver::run_forked(
                &config,
                &config,
                SimTime::EPOCH + SimDuration::from_hours(3),
            )
            .expect("degenerate fork");
            assert_same_campaign(&base, &forked);
        }
    }

    #[test]
    fn prefix_snapshot_matches_the_checkpoint_at_the_same_boundary() {
        let config = tiny();
        let every = SimDuration::from_hours(2);
        let cps = checkpoints(&config, every);
        for (t, bytes) in &cps {
            assert_eq!(
                &driver::prefix_snapshot(&config, *t),
                bytes,
                "prefix snapshot at {t:?} drifted from the checkpointed emission"
            );
        }
    }
}
