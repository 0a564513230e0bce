//! Deterministic checkpoint snapshots of a mid-flight campaign.
//!
//! A snapshot is the byte image of a `DriverState`: **every piece of
//! mutable driver state** — the pending event queue (with its FIFO
//! tie-break counters), the exact positions of all RNG streams, the
//! transfer engine (slot clocks, its two RNG streams, path counters), the
//! replica catalog, replication rules, circuit-breaker state, in-progress
//! task/job/transfer accumulators, and the id counters — plus the
//! fingerprints of the config it was taken under. [`decode`] rebuilds the
//! state from a payload and hands it to the driver's one fork rule
//! (`apply_fork`) under a config and a [`Mode`]: everything derivable from
//! the config (topology, bandwidth oracle, fault oracle, samplers,
//! brokerage) is reconstructed rather than serialized, which keeps
//! snapshots small and makes it impossible for a stale checkpoint to
//! smuggle in divergent tuning.
//!
//! The resumed campaign is byte-identical to the uninterrupted same-seed
//! run; `crates/scenario` locks this with tests and the CLI locks it again
//! end-to-end over the export JSON.
//!
//! Decoding never panics on malformed input: every structural error is
//! reported with the byte offset where the payload stopped making sense,
//! every cross-field invariant (catalog back-pointers, rule id density,
//! slot-table shape, site counts) is revalidated, and every site, RSE,
//! file, dataset and task id is range-checked against the table it
//! indexes, so a corrupted or forged checkpoint is rejected instead of
//! corrupting (or panicking) a resumed campaign.

use crate::config::ScenarioConfig;
use crate::driver::{apply_fork, Driver, DriverState, Event, Origin, PendingJob, TaskCtx};
use dmsa_gridnet::{
    BreakerSnapshot, BreakerState, HealthCounters, HealthSnapshot, HealthSubject, OpenEpisode,
    RseId, SiteId,
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
use dmsa_simcore::{SimDuration, SimRng, SimTime, Sym, SymbolTable};
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

/// How strictly a snapshot (or a warm-start prefix) must match the config
/// it continues under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Resume: every behavior-affecting knob must match, otherwise the
    /// resumed campaign would silently replay divergent state.
    Resume,
    /// Deliberate fork: only the structural knobs (seed, topology) must
    /// match; fault/retry/health/workload knobs may differ and take
    /// effect from the snapshot time onward.
    Fork,
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

/// Encode a live driver's [`DriverState`] — written field by field
/// straight from the driver, so a checkpoint copies nothing first.
pub(crate) fn encode(d: &Driver) -> Vec<u8> {
    // Every driver field is either written here or rebuilt from the
    // config on decode: a field added to `Driver` fails to compile here
    // until it is one or the other.
    let Driver {
        config,
        topology,
        queue,
        rng_task,
        rng_job,
        rng_bg,
        engine,
        catalog,
        rules,
        health,
        queued,
        running,
        compute_slots,
        tasks,
        finished,
        transfers,
        next_pandaid,
        next_taskid,
        next_dio_id,
        next_output_seq,
        events_processed,
        // Config-derived, or drained empty between events.
        rngs: _,
        bw: _,
        reaper_policy: _,
        broker: _,
        workload: _,
        pilot: _,
        cum_weights: _,
        scratch_events: _,
        scratch_files: _,
    } = d;
    let mut w = Writer::new();
    w.put_u32(SNAPSHOT_VERSION);

    // Config fingerprint: enough to catch a resume under the wrong
    // scenario before any state is misinterpreted.
    let origin = Origin::of(config, topology);
    w.put_u64(origin.seed);
    w.put_i64(origin.duration_ms);
    w.put_u64(origin.initial_datasets);
    w.put_u32(origin.n_sites);
    w.put_u64(origin.behavior_fp);
    w.put_u64(origin.structural_fp);

    // Clock + event queue.
    w.put_i64(queue.now().as_millis());
    w.put_u64(queue.next_seq());
    put_seq(&mut w, &queue.snapshot_entries(), |w, &(t, seq, ev)| {
        put_time(w, t);
        w.put_u64(seq);
        put_event(w, ev);
    });

    // Driver RNG streams.
    put_rng(&mut w, rng_task);
    put_rng(&mut w, rng_job);
    put_rng(&mut w, rng_bg);

    // Transfer engine.
    put_engine(&mut w, &engine.snapshot());

    // Replica catalog.
    put_catalog(&mut w, catalog);

    // Replication rules.
    put_seq(&mut w, rules.rules(), put_rule);

    // Circuit breakers.
    match health {
        None => w.put_bool(false),
        Some(m) => {
            w.put_bool(true);
            put_health(&mut w, &m.snapshot());
        }
    }

    // Brokerage load feedback + compute slots.
    put_seq(&mut w, queued, |w, x| w.put_u32(*x));
    put_seq(&mut w, running, |w, x| w.put_u32(*x));
    put_seq(&mut w, compute_slots, |w, heap| {
        let mut times: Vec<i64> = heap.iter().map(|Reverse(t)| *t).collect();
        times.sort_unstable();
        put_seq(w, &times, |w, t| w.put_i64(*t));
    });

    // Task contexts.
    put_seq(&mut w, tasks, put_task_ctx);

    // Finished jobs.
    put_seq(&mut w, finished, |w, (job, task_idx, recorded_upload)| {
        put_job(w, job);
        w.put_u32(*task_idx);
        w.put_bool(*recorded_upload);
    });

    // Ground-truth transfer events.
    put_seq(&mut w, transfers, |w, (ev, recorded)| {
        put_transfer_event(w, ev);
        w.put_bool(*recorded);
    });

    // Id counters.
    w.put_u64(*next_pandaid);
    w.put_u64(*next_taskid);
    w.put_u64(*next_dio_id);
    w.put_u64(*next_output_seq);

    // Delivered-event counter (v2).
    w.put_u64(*events_processed);

    w.into_bytes()
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

/// A snapshot decoded and checked against a config, ready to run:
/// [`crate::Start::Snapshot`] continues it.
pub struct CheckedSnapshot {
    pub(crate) driver: Box<Driver>,
}

impl CheckedSnapshot {
    /// The sim-time the snapshot was taken at: the clock of the last
    /// event dispatched before its checkpoint boundary.
    pub fn at(&self) -> SimTime {
        self.driver.queue.now()
    }
}

/// Decode `bytes` and check them against `config` under `mode`. A
/// truncated, corrupted, version-skewed, or wrong-config snapshot is a
/// classified error (never a panic), so a resume ladder can decide on the
/// class whether to fall back to an older checkpoint — and runs the
/// snapshot it accepted without decoding it again.
pub fn decode(
    config: &ScenarioConfig,
    bytes: &[u8],
    mode: Mode,
) -> Result<CheckedSnapshot, SnapshotError> {
    let mut r = Reader::new(bytes);
    decode_inner(config, &mut r, mode)
        .map(|driver| CheckedSnapshot {
            driver: Box::new(driver),
        })
        .map_err(|e| SnapshotError {
            kind: classify(&e.what),
            message: e.to_string(),
        })
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

/// Parse the payload into a [`DriverState`], continue it under `config`
/// through `apply_fork` and range-check every id the restored state
/// indexes with.
fn decode_inner(
    config: &ScenarioConfig,
    r: &mut Reader<'_>,
    mode: Mode,
) -> Result<Driver, CodecError> {
    let version = r.get_u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(bad(
            r,
            format!("snapshot layout version {version} found, supported {SNAPSHOT_VERSION}"),
        ));
    }
    let origin = Origin {
        seed: r.get_u64()?,
        duration_ms: r.get_i64()?,
        initial_datasets: r.get_u64()?,
        n_sites: r.get_u32()?,
        behavior_fp: r.get_u64()?,
        structural_fp: r.get_u64()?,
    };
    let now = get_time(r)?;
    let next_seq = r.get_u64()?;
    let state = DriverState {
        origin,
        now,
        next_seq,
        queue: get_seq(r, 17, |r| {
            let t = get_time(r)?;
            if t < now {
                return Err(bad(
                    r,
                    format!("queue entry at {t:?} is before the clock {now:?}"),
                ));
            }
            let seq = r.get_u64()?;
            if seq >= next_seq {
                return Err(bad(
                    r,
                    format!("queue entry seq {seq} >= next_seq {next_seq}"),
                ));
            }
            Ok((t, seq, get_event(r)?))
        })?,
        rng_task: get_rng(r)?,
        rng_job: get_rng(r)?,
        rng_bg: get_rng(r)?,
        engine: get_engine(r)?,
        catalog: get_catalog(r)?,
        rules: {
            let rules = get_seq(r, 8, get_rule)?;
            RuleEngine::from_rules(rules).map_err(|e| bad(r, format!("rules: {e}")))?
        },
        health: if r.get_bool()? {
            Some(get_health(r)?)
        } else {
            None
        },
        queued: get_seq(r, 4, |r| r.get_u32())?,
        running: get_seq(r, 4, |r| r.get_u32())?,
        compute_slots: get_seq(r, 8, |r| {
            let slots = get_seq(r, 8, |r| Ok(Reverse(get_millis(r)?)))?;
            Ok(BinaryHeap::from(slots))
        })?,
        tasks: get_seq(r, 19, get_task_ctx)?,
        finished: get_seq(r, 60, |r| Ok((get_job(r)?, r.get_u32()?, r.get_bool()?)))?,
        transfers: get_seq(r, 80, |r| Ok((get_transfer_event(r)?, r.get_bool()?)))?,
        next_pandaid: r.get_u64()?,
        next_taskid: r.get_u64()?,
        next_dio_id: r.get_u64()?,
        next_output_seq: r.get_u64()?,
        // Delivered-event counter (v2).
        events_processed: r.get_u64()?,
    };
    if !r.is_exhausted() {
        return Err(bad(
            r,
            format!("{} trailing bytes after snapshot payload", r.remaining()),
        ));
    }
    let d = apply_fork(config, state, mode).map_err(|what| bad(r, what))?;
    check_references(&d).map_err(|what| bad(r, what))?;
    Ok(d)
}

/// A length-prefixed sequence, the mirror of [`get_seq`].
fn put_seq<T>(w: &mut Writer, items: &[T], mut item: impl FnMut(&mut Writer, &T)) {
    w.put_seq_len(items.len());
    for x in items {
        item(w, x);
    }
}

/// A length-prefixed sequence; `min_bytes` is the smallest encoding of
/// one item, which bounds the declared length by the bytes left.
fn get_seq<T>(
    r: &mut Reader<'_>,
    min_bytes: usize,
    mut item: impl FnMut(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let n = r.get_seq_len(min_bytes)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(item(r)?);
    }
    Ok(out)
}

/// Range-check every id the restored state will index a table with:
/// sites and RSEs against the topology, files and datasets against the
/// catalog, task indices against the task table. The frame's CRC shows
/// only that the bytes arrived as written, not that whoever wrote them
/// was honest, so a payload that passes it can still name a site the
/// grid does not have; it is refused here rather than indexed later.
fn check_references(d: &Driver) -> Result<(), String> {
    let n_sites = d.topology.n_sites();
    let n_rses = d.topology.rses().len();
    let n_files = d.catalog.files().len() as u64;
    let n_datasets = d.catalog.datasets().len() as u64;
    let n_tasks = d.tasks.len();
    // Each check names the record as `what` and its index `i`.
    let site = |s: SiteId, what: &str, i: usize| {
        if s.index() < n_sites {
            Ok(())
        } else {
            Err(format!("{what} {i} names site {} of {n_sites}", s.0))
        }
    };
    let rse = |id: RseId, what: &str, i: usize| {
        if id.index() < n_rses {
            Ok(())
        } else {
            Err(format!("{what} {i} names RSE {} of {n_rses}", id.0))
        }
    };
    let files = |ids: &[FileId], what: &str, i: usize| match ids.iter().find(|f| f.0 >= n_files) {
        None => Ok(()),
        Some(f) => Err(format!("{what} {i} names file {} of {n_files}", f.0)),
    };

    for (i, set) in d.catalog.replicas().iter().enumerate() {
        for &id in set {
            rse(id, "replica set of file", i)?;
        }
    }
    for (i, rule) in d.rules.rules().iter().enumerate() {
        if rule.dataset.0 >= n_datasets {
            return Err(format!(
                "rule {i} names dataset {} of {n_datasets}",
                rule.dataset.0
            ));
        }
        for &id in &rule.candidate_rses {
            rse(id, "rule", i)?;
        }
    }
    if let Some(h) = d.health.as_ref() {
        let snap = h.snapshot();
        for (i, ((src, dst), _)) in snap.links.iter().enumerate() {
            site(*src, "health link", i)?;
            site(*dst, "health link", i)?;
        }
        for (i, ep) in snap.episodes.iter().enumerate() {
            match ep.subject {
                HealthSubject::Site(s) => site(s, "health episode", i)?,
                HealthSubject::Link { src, dst } => {
                    site(src, "health episode", i)?;
                    site(dst, "health episode", i)?;
                }
            }
        }
    }
    for (i, (_, _, ev)) in d.queue.snapshot_entries().into_iter().enumerate() {
        let (Event::JobCreated(pj) | Event::StagingDone(pj) | Event::ExecDone(pj)) = ev else {
            continue;
        };
        if pj.task_idx as usize >= n_tasks {
            return Err(format!(
                "queued job {i} points at task {} of {n_tasks}",
                pj.task_idx
            ));
        }
        site(pj.site, "queued job", i)?;
        if let Some(id) = pj.stage_source {
            rse(id, "queued job", i)?;
        }
        files(&pj.input_files, "queued job", i)?;
    }
    for (i, (job, task_idx, _)) in d.finished.iter().enumerate() {
        if *task_idx as usize >= n_tasks {
            return Err(format!(
                "finished job {i} points at task {task_idx} of {n_tasks}"
            ));
        }
        site(job.computing_site, "finished job", i)?;
        files(&job.input_files, "finished job", i)?;
        files(&job.output_files, "finished job", i)?;
    }
    let n_syms = d.catalog.names().len() as u32;
    for (i, (ev, _)) in d.transfers.iter().enumerate() {
        if [ev.lfn, ev.dataset, ev.proddblock]
            .iter()
            .any(|s| s.0 >= n_syms)
        {
            return Err(format!("transfer event {i} name symbol out of range"));
        }
        files(&[ev.file], "transfer event", i)?;
        site(ev.source_site, "transfer event", i)?;
        site(ev.destination_site, "transfer event", i)?;
    }
    Ok(())
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
    Ok(SimTime::from_millis(get_millis(r)?))
}

/// Largest instant or span, in ms, a snapshot may carry: 2^53 ms is
/// about 285,000 years, and the largest integer an export holds exactly.
/// A campaign never comes near it; what it rules out is a damaged clock
/// whose sums and differences overflow `i64` once the run resumes.
const MAX_MILLIS: i64 = 1 << 53;

/// A millisecond count (an instant, a slot clock or a span), refused
/// when negative or above [`MAX_MILLIS`]: no campaign state holds one.
fn get_millis(r: &mut Reader<'_>) -> Result<i64, CodecError> {
    let ms = r.get_i64()?;
    if !(0..=MAX_MILLIS).contains(&ms) {
        return Err(bad(r, format!("time {ms} ms is outside 0..=2^53")));
    }
    Ok(ms)
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

fn put_file_ids(w: &mut Writer, xs: &[FileId]) {
    put_seq(w, xs, |w, x| w.put_u64(x.0));
}

fn get_file_ids(r: &mut Reader<'_>) -> Result<Vec<FileId>, CodecError> {
    get_seq(r, 8, |r| Ok(FileId(r.get_u64()?)))
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
    put_seq(w, &pj.stage_intervals, |w, iv| {
        put_time(w, iv.start);
        put_time(w, iv.end);
    });
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
    let stage_intervals = get_seq(r, 16, |r| Ok(Interval::new(get_time(r)?, get_time(r)?)))?;
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
    put_seq(w, &s.slots, |w, row| put_seq(w, row, |w, t| w.put_i64(*t)));
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
    let slots = get_seq(r, 8, |r| get_seq(r, 8, get_millis))?;
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
    put_seq(w, c.files(), |w, f| {
        w.put_u64(f.id.0);
        w.put_u32(f.lfn.0);
        put_scope(w, f.scope);
        w.put_u64(f.size);
        w.put_u64(f.dataset.0);
        put_time(w, f.registered);
    });
    put_seq(w, c.datasets(), |w, ds| {
        w.put_u64(ds.id.0);
        w.put_u32(ds.name.0);
        put_scope(w, ds.scope);
        w.put_u32(ds.prod_dblock.0);
        put_file_ids(w, &ds.files);
        w.put_u64(ds.total_bytes);
    });
    put_seq(w, c.containers(), |w, ct| {
        w.put_u64(ct.id.0);
        w.put_str(&ct.name.0);
        put_seq(w, &ct.datasets, |w, d| w.put_u64(d.0));
    });
    put_seq(w, c.replicas(), |w, set| {
        put_seq(w, set, |w, rse| w.put_u32(rse.0))
    });
}

fn get_catalog(r: &mut Reader<'_>) -> Result<ReplicaCatalog, CodecError> {
    let names = get_symbol_table(r)?;
    let files = get_seq(r, 35, |r| {
        Ok(FileEntry {
            id: FileId(r.get_u64()?),
            lfn: Sym(r.get_u32()?),
            scope: get_scope(r)?,
            size: get_file_size(r)?,
            dataset: DatasetId(r.get_u64()?),
            registered: get_time(r)?,
        })
    })?;
    let datasets = get_seq(r, 40, |r| {
        Ok(DatasetEntry {
            id: DatasetId(r.get_u64()?),
            name: Sym(r.get_u32()?),
            scope: get_scope(r)?,
            prod_dblock: Sym(r.get_u32()?),
            files: get_file_ids(r)?,
            total_bytes: r.get_u64()?,
        })
    })?;
    let containers = get_seq(r, 24, |r| {
        Ok(ContainerEntry {
            id: ContainerId(r.get_u64()?),
            name: DidName(r.get_str()?),
            datasets: get_seq(r, 8, |r| Ok(DatasetId(r.get_u64()?)))?,
        })
    })?;
    let replicas = get_seq(r, 8, |r| get_seq(r, 4, |r| Ok(RseId(r.get_u32()?))))?;
    let off = r.offset();
    ReplicaCatalog::from_parts(names, files, datasets, containers, replicas).map_err(|e| {
        CodecError {
            offset: off,
            what: format!("catalog: {e}"),
        }
    })
}

/// A catalog file size, refused above 2^53 bytes (the largest integer an
/// export holds exactly): a damaged size near 2^64 would overflow the
/// reaper's per-RSE usage sums.
fn get_file_size(r: &mut Reader<'_>) -> Result<u64, CodecError> {
    let size = r.get_u64()?;
    if size > 1 << 53 {
        return Err(bad(r, format!("file size {size} is above 2^53 bytes")));
    }
    Ok(size)
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
    put_seq(w, &rule.candidate_rses, |w, rse| w.put_u32(rse.0));
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
    let candidate_rses = get_seq(r, 4, |r| Ok(RseId(r.get_u32()?)))?;
    let copies = r.get_u64()? as usize;
    let created = get_time(r)?;
    let lifetime = if r.get_bool()? {
        Some(SimDuration::from_millis(get_millis(r)?))
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
    put_seq(w, &b.samples, |w, &(t, failed)| {
        put_time(w, t);
        w.put_bool(failed);
    });
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
    Ok(BreakerSnapshot {
        state,
        samples: get_seq(r, 9, |r| Ok((get_time(r)?, r.get_bool()?)))?,
        consecutive_failures: r.get_u32()?,
        open_until: get_time(r)?,
        probes_granted: r.get_u32()?,
        probe_successes: r.get_u32()?,
    })
}

fn put_health(w: &mut Writer, h: &HealthSnapshot) {
    put_seq(w, &h.sites, put_breaker);
    put_seq(w, &h.links, |w, ((src, dst), b)| {
        w.put_u32(src.0);
        w.put_u32(dst.0);
        put_breaker(w, b);
    });
    put_seq(w, &h.episodes, |w, ep| {
        put_subject(w, ep.subject);
        put_time(w, ep.from);
        put_time(w, ep.until);
    });
    w.put_u64(h.counters.site_refusals);
    w.put_u64(h.counters.link_refusals);
    w.put_u64(h.counters.probes_granted);
    w.put_u64(h.counters.trips);
}

fn get_health(r: &mut Reader<'_>) -> Result<HealthSnapshot, CodecError> {
    Ok(HealthSnapshot {
        sites: get_seq(r, 26, get_breaker)?,
        links: get_seq(r, 34, |r| {
            let link = (SiteId(r.get_u32()?), SiteId(r.get_u32()?));
            Ok((link, get_breaker(r)?))
        })?,
        episodes: get_seq(r, 17, |r| {
            Ok(OpenEpisode {
                subject: get_subject(r)?,
                from: get_time(r)?,
                until: get_time(r)?,
            })
        })?,
        counters: HealthCounters {
            site_refusals: r.get_u64()?,
            link_refusals: r.get_u64()?,
            probes_granted: r.get_u64()?,
            trips: r.get_u64()?,
        },
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
    use crate::driver::{self, DrainOpts, SharedPrefix, Start};

    /// Strict decode, failing with the diagnostic.
    fn decode(config: &ScenarioConfig, bytes: &[u8]) -> Result<Driver, String> {
        super::decode(config, bytes, Mode::Resume)
            .map(|s| *s.driver)
            .map_err(|e| e.to_string())
    }

    /// Deliberate-fork decode, failing with the diagnostic.
    fn decode_forked(config: &ScenarioConfig, bytes: &[u8]) -> Result<Driver, String> {
        super::decode(config, bytes, Mode::Fork)
            .map(|s| *s.driver)
            .map_err(|e| e.to_string())
    }

    /// Run `config` to the end from a strictly resumed snapshot.
    fn resume(config: &ScenarioConfig, bytes: &[u8]) -> Result<driver::Campaign, String> {
        let snapshot = super::decode(config, bytes, Mode::Resume).map_err(|e| e.to_string())?;
        driver::drain(
            config,
            DrainOpts {
                start: Start::Snapshot(snapshot),
                ..DrainOpts::default()
            },
        )
    }

    /// Run `config` from a cold start, checkpointing every `every`.
    fn run_checkpointed(
        config: &ScenarioConfig,
        every: SimDuration,
        sink: driver::SnapshotSink<'_>,
    ) -> Result<driver::Campaign, String> {
        driver::drain(
            config,
            DrainOpts {
                checkpoints: Some((every, sink)),
                ..DrainOpts::default()
            },
        )
    }

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
        run_checkpointed(config, every, &mut |t, bytes| {
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
            run_checkpointed(&config, SimDuration::from_hours(1), &mut |_, _| Ok(()))
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
            let resumed =
                resume(&config, bytes).unwrap_or_else(|e| panic!("resume from {t:?} failed: {e}"));
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
            let resumed = resume(&config, bytes).unwrap();
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
    fn in_memory_fork_matches_the_codec_fork_across_the_health_matrix() {
        // A sweep cell forks its live prefix in memory; `run_forked` (and
        // `simulate --fork-at`) goes through encode and a forked decode.
        // Both end in the one fork rule, so every cell of the arm/disarm
        // matrix, and a fault-rate change, must agree byte for byte.
        let off = ScenarioConfig {
            duration: SimDuration::from_hours(6),
            ..ScenarioConfig::small_faulty()
        };
        let armed = ScenarioConfig {
            duration: SimDuration::from_hours(6),
            ..ScenarioConfig::faulty_adaptive()
        };
        let mut hotter = off.clone();
        hotter.faults.p_attempt_failure += 0.05;
        let mut armed_slower = armed.clone();
        armed_slower.health.cooldown = SimDuration::from_secs(600);
        armed_slower.faults.p_attempt_failure += 0.05;
        let at = SimTime::EPOCH + SimDuration::from_hours(3);

        for (what, base, fork) in [
            ("off -> off, hotter faults", &off, &hotter),
            ("off -> armed", &off, &armed),
            ("armed -> off", &armed, &off),
            ("armed -> armed, other breakers", &armed, &armed_slower),
        ] {
            let prefix = SharedPrefix::new(base, at, None).unwrap();
            let in_memory = driver::drain(
                fork,
                DrainOpts {
                    start: Start::Prefix(&prefix),
                    ..DrainOpts::default()
                },
            )
            .unwrap_or_else(|e| panic!("{what}: in-memory fork failed: {e}"));
            let codec = driver::run_forked(base, fork, at)
                .unwrap_or_else(|e| panic!("{what}: codec fork failed: {e}"));
            assert_eq!(in_memory.events_processed, codec.events_processed, "{what}");
            assert_eq!(in_memory.health.is_some(), fork.health.enabled, "{what}");
            assert_same_campaign(&in_memory, &codec);
        }

        // The forked knob took effect: the hotter fork is not the base run.
        let base_run = driver::run(&off);
        let hot_fork = driver::run_forked(&off, &hotter, at).unwrap();
        assert_ne!(base_run.path_stats, hot_fork.path_stats);
    }

    #[test]
    fn prefix_snapshot_matches_the_checkpoint_at_the_same_boundary() {
        let config = tiny();
        let every = SimDuration::from_hours(2);
        let cps = checkpoints(&config, every);
        for (t, bytes) in &cps {
            assert_eq!(
                &SharedPrefix::new(&config, *t, None).unwrap().encode(),
                bytes,
                "prefix snapshot at {t:?} drifted from the checkpointed emission"
            );
        }
    }
}
