//! The co-simulation event loop.
//!
//! One [`EventQueue`] drives both systems, mirroring the production
//! coupling the paper studies: PanDA creates tasks and jobs, the brokerage
//! places them (data-locality first), Harvester-style staging asks the
//! Rucio transfer engine to materialize input replicas, compute slots gate
//! execution, and output upload completes the job *before* PanDA marks it
//! finished — which is why Algorithm 1's `starttime < endtime` condition
//! catches uploads too.
//!
//! The loop produces ground-truth [`dmsa_rucio_sim::TransferEvent`]s and
//! finished jobs; [`drain`] then flattens both into a [`MetaStore`] and
//! applies the corruption model. Everything downstream (matching, analysis,
//! benches) consumes only the store.
//!
//! Every way of running a campaign is one [`drain`] over [`DrainOpts`]:
//! a start (cold, a checked snapshot, or a live [`SharedPrefix`]), an
//! optional [`CancelToken`], an optional checkpoint sink and a queue
//! backend. [`run`] and [`run_forked`] are its two shorthands.

use crate::config::ScenarioConfig;
use crate::snapshot::{CheckedSnapshot, Mode};
use dmsa_gridnet::{
    BandwidthModel, FaultModel, GridTopology, HealthEvent, HealthMonitor, HealthSignal,
    HealthSnapshot, HealthSubject, HealthSummary, SiteId,
};
use dmsa_metastore::{FileDirection, FileRecord, JobRecord, MetaStore, Sym, TransferRecord};
use dmsa_panda_sim::task::TaskProgress;
use dmsa_panda_sim::{
    Broker, DispatchOutcome, HeartbeatOutcome, IoMode, Job, JobId, JobStatus, PilotModel,
    SiteLoadView, TaskId, TaskKind, TaskStatus, WorkloadModel,
};
use dmsa_rucio_sim::transfer::{TransferEngineSnapshot, TransferRequest};
use dmsa_rucio_sim::{
    reap_all, Activity, DatasetId, FileId, ReaperPolicy, ReplicaCatalog, RuleEngine, Scope,
    TransferEngine, TransferEvent, TransferPathStats, TransferStatus,
};
use dmsa_simcore::fx::FxHashMap;
use dmsa_simcore::interval::Interval;
use dmsa_simcore::SimRng;
use dmsa_simcore::{EventQueue, QueueBackend, RngFactory, SimDuration, SimTime, SymbolTable};
use rand::RngExt;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// First `pandaid` issued (paper-era ids are ~6.58 × 10⁹).
const FIRST_PANDAID: u64 = 6_583_000_000;
/// First `jeditaskid` issued.
const FIRST_TASKID: u64 = 44_000_000;
/// Synthetic transfer-id offset for direct-I/O read events (the transfer
/// engine owns the low id space).
const DIO_ID_BASE: u64 = 1 << 40;

/// The flattened result of one campaign.
pub struct Campaign {
    /// Configuration that produced it.
    pub config: ScenarioConfig,
    /// The generated grid.
    pub topology: GridTopology,
    /// Bandwidth oracle (shared by analyses that need rate context).
    pub bw: BandwidthModel,
    /// Final replica catalog.
    pub catalog: ReplicaCatalog,
    /// Corrupted metadata — the matcher's world.
    pub store: MetaStore,
    /// The observation window (`[0, duration)`).
    pub window: Interval,
    /// Site-name symbol per `SiteId` index.
    pub sym_of_site: Vec<Sym>,
    /// Always-on transfer-path counters from the engine.
    pub path_stats: TransferPathStats,
    /// Total events the queue delivered while producing this campaign
    /// (the denominator of `bench_sim`'s events/s figure).
    pub events_processed: u64,
    /// Circuit-breaker telemetry; `None` when the health loop is off.
    pub health: Option<HealthSummary>,
}

/// A job in flight, threaded through the event queue.
#[derive(Clone)]
pub(crate) struct PendingJob {
    pub(crate) pandaid: u64,
    pub(crate) task_idx: u32,
    pub(crate) kind: TaskKind,
    pub(crate) io_mode: IoMode,
    pub(crate) doomed: bool,
    pub(crate) input_files: Vec<FileId>,
    pub(crate) input_bytes: u64,
    pub(crate) creation: SimTime,
    pub(crate) site: SiteId,
    pub(crate) recorded_stagein: bool,
    /// Pinned stage-in source RSE when the data is not local (one source
    /// per job, as JEDI/Rucio negotiate a single best replica site).
    pub(crate) stage_source: Option<dmsa_gridnet::RseId>,
    /// Intervals of this job's stage-in transfers (recorded or not).
    pub(crate) stage_intervals: Vec<Interval>,
    /// True staging completion (may exceed `start` under the anomaly knob).
    pub(crate) staging_end: SimTime,
    /// A stage-in exhausted its transfer retries: the input never arrived
    /// and the job must fail instead of running its payload.
    pub(crate) lost_input: bool,
    /// This job is already a re-brokered replacement for a lost-input
    /// failure; it will not be re-brokered again (one retry at the PanDA
    /// level, like JEDI's re-brokerage cap).
    pub(crate) rebrokered: bool,
    pub(crate) start: SimTime,
    pub(crate) exec_end: SimTime,
}

#[derive(Clone)]
pub(crate) enum Event {
    TaskArrival,
    JobCreated(Box<PendingJob>),
    StagingDone(Box<PendingJob>),
    ExecDone(Box<PendingJob>),
    Background,
    /// Periodic site reaper pass: deletes unprotected replicas at RSEs
    /// above their high watermark. Deleted inputs must be transferred
    /// again by later jobs — one *causal* source of the paper's redundant
    /// transfers.
    Reaper,
}

#[derive(Clone)]
pub(crate) struct TaskCtx {
    pub(crate) id: TaskId,
    pub(crate) kind: TaskKind,
    pub(crate) doomed: bool,
    pub(crate) n_jobs: u32,
    pub(crate) progress: TaskProgress,
}

/// Receives `(boundary time, encoded snapshot)` at each checkpoint
/// cadence crossing; an `Err` aborts the campaign.
pub type SnapshotSink<'a> = &'a mut dyn FnMut(SimTime, &[u8]) -> Result<(), String>;

/// Event-loop iterations between wall-clock deadline checks — the same
/// stride pattern as serve's mid-matcher deadline checks. The shared
/// flag and probe are atomic loads and checked every tick batch; only
/// `Instant::now()` is strided.
const CANCEL_STRIDE: u32 = 1024;

/// Cooperative cancellation for an in-flight campaign. The driver's hot
/// loop polls this once per tick batch; none of the checks consume a
/// random draw, so a run that is *not* canceled is byte-identical to a
/// token-free run (locked by a test).
///
/// Three independent triggers, any of which aborts the drain with a
/// `canceled:` error:
/// - [`CancelToken::cancel`] — an explicit request, shared across
///   clones (all clones observe it);
/// - a wall-clock `deadline` — the sweep's `--cell-timeout`;
/// - a `probe` fn — e.g. `signals::termination_requested`, so SIGTERM
///   aborts in-flight cells cleanly.
#[derive(Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
    probe: Option<fn() -> bool>,
}

impl CancelToken {
    /// A token with no deadline and no probe — cancelable only via
    /// [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a wall-clock deadline: the drain aborts once `Instant::now()`
    /// passes it (checked every 1024 tick batches).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Add an external probe checked every tick batch (must be cheap —
    /// an atomic load, like `signals::termination_requested`).
    pub fn with_probe(mut self, probe: fn() -> bool) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Request cancellation. Visible to every clone of this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has the explicit flag or the probe fired? (Does not consult the
    /// deadline — that is strided separately in the hot loop.)
    fn fast_canceled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.probe.map(|p| p()) == Some(true)
    }

    /// Has the wall-clock deadline passed?
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Where a [`drain`] starts.
#[derive(Default)]
pub enum Start<'a> {
    /// From t = 0: seed the catalog and plant the event chains.
    #[default]
    Cold,
    /// From a snapshot that [`crate::snapshot::decode`] already checked
    /// against the drain's config — a strict resume or a deliberate fork.
    Snapshot(CheckedSnapshot),
    /// From a live warm-start prefix, forked under the drain's config:
    /// byte-identical to a [`Start::Snapshot`] of the prefix's encoding
    /// decoded as a fork, at the cost of one copy of the state.
    Prefix(&'a SharedPrefix),
}

/// How [`drain`] runs a campaign. `DrainOpts::default()` is a cold,
/// unwatched run on the calendar queue — what [`run`] does.
#[derive(Default)]
pub struct DrainOpts<'a> {
    /// Where the campaign starts.
    pub start: Start<'a>,
    /// Polled once per tick batch; a canceled drain returns a
    /// `canceled:` error (interrogate the token for which trigger fired).
    pub cancel: Option<&'a CancelToken>,
    /// `(every, sink)`: hand the sink an encoded snapshot at every
    /// `every`-aligned sim-time boundary the clock crosses, counted from
    /// the start's clock. A sink error aborts the campaign (the caller
    /// decides whether a failed checkpoint write is fatal).
    pub checkpoints: Option<(SimDuration, SnapshotSink<'a>)>,
    /// Event-queue backend of a cold start; a restored queue is always
    /// the calendar queue. The campaign is byte-identical across
    /// backends — `bench_sim` and a differential test pit them against
    /// each other.
    pub backend: QueueBackend,
}

/// Run one campaign to completion: the one event loop behind every way
/// of running a campaign.
///
/// Neither the token, the checkpoints nor the backend mutates simulator
/// state or consumes a random draw, so an un-canceled campaign is
/// byte-identical whatever they are. A resumed snapshot continues to the
/// byte-identical campaign of the uninterrupted same-seed run: the
/// snapshot captures every piece of mutable driver state, including the
/// exact positions of all RNG streams and the pending event queue with
/// its FIFO tie-break counters.
pub fn drain(config: &ScenarioConfig, opts: DrainOpts<'_>) -> Result<Campaign, String> {
    let mut d = match opts.start {
        Start::Cold => {
            let mut d = Driver::new(config.clone(), opts.backend);
            d.start();
            d
        }
        Start::Snapshot(CheckedSnapshot { driver }) => {
            if driver.config.behavior_fingerprint() != config.behavior_fingerprint() {
                return Err("snapshot was checked under another config than the drain's".into());
            }
            *driver
        }
        Start::Prefix(prefix) => apply_fork(config, prefix.driver.state(), Mode::Fork)?,
    };
    d.advance(None, opts.checkpoints, opts.cancel)?;
    Ok(d.finish())
}

/// Run one campaign: [`drain`] from a cold start, unwatched.
pub fn run(config: &ScenarioConfig) -> Campaign {
    drain(config, DrainOpts::default()).expect("an unwatched cold drain cannot fail")
}

/// One-shot reference for a warm-started sweep cell: run `base` up to
/// `at`, encode that state, decode it as a fork under `fork` and run it
/// to completion. The CLI's `simulate --fork-at` uses this, so a
/// standalone run reproduces any warm-started cell byte for byte — and,
/// going through the snapshot codec, it is the oracle the sweep's
/// in-memory forks are checked against.
pub fn run_forked(
    base: &ScenarioConfig,
    fork: &ScenarioConfig,
    at: SimTime,
) -> Result<Campaign, String> {
    let encoded = SharedPrefix::new(base, at, None)?.encode();
    let snapshot =
        crate::snapshot::decode(fork, &encoded, Mode::Fork).map_err(|e| e.to_string())?;
    drain(
        fork,
        DrainOpts {
            start: Start::Snapshot(snapshot),
            ..DrainOpts::default()
        },
    )
}

/// A fully materialized warm-start prefix: the live driver state of a
/// campaign at sim-time `at`, reusable across any number of forked
/// continuations ([`Start::Prefix`]). Sweep cells that agree on `(seed,
/// prefix config)` pay for it once.
pub struct SharedPrefix {
    driver: Driver,
}

impl SharedPrefix {
    /// Run `config`'s campaign up to (but not including) sim-time `at`:
    /// every event strictly before `at` is dispatched and the queue is
    /// left intact from `at` on — the state a checkpoint boundary at `at`
    /// observes. With a token, a deadline or SIGTERM aborts the prefix
    /// with a `canceled:` error; an un-canceled prefix is byte-identical
    /// to a token-free one.
    pub fn new(
        config: &ScenarioConfig,
        at: SimTime,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, String> {
        let mut driver = Driver::new(config.clone(), QueueBackend::default());
        driver.start();
        driver.advance(Some(at), None, cancel)?;
        Ok(SharedPrefix { driver })
    }

    /// Encode the prefix as a snapshot: byte-identical to the checkpoint
    /// a checkpointed drain emits at an `at`-aligned boundary.
    pub fn encode(&self) -> Vec<u8> {
        crate::snapshot::encode(&self.driver)
    }
}

/// The config a [`DriverState`] was produced under, as far as a resume
/// or fork must check it: the legible fields drive the human-readable
/// mismatch messages, the two hashes are the actual guarantees —
/// `behavior_fp` covers every knob, `structural_fp` only what a
/// deliberate fork must still agree on.
#[derive(Clone, Copy)]
pub(crate) struct Origin {
    pub(crate) seed: u64,
    pub(crate) duration_ms: i64,
    pub(crate) initial_datasets: u64,
    pub(crate) n_sites: u32,
    pub(crate) behavior_fp: u64,
    pub(crate) structural_fp: u64,
}

impl Origin {
    pub(crate) fn of(config: &ScenarioConfig, topology: &GridTopology) -> Self {
        Origin {
            seed: config.seed,
            duration_ms: config.duration.as_millis(),
            initial_datasets: config.initial_datasets as u64,
            n_sites: topology.n_sites() as u32,
            behavior_fp: config.behavior_fingerprint(),
            structural_fp: config.structural_fingerprint(),
        }
    }
}

/// Every piece of mutable driver state a snapshot carries, and all that
/// a resume or fork restores: the single list of carried fields. The
/// snapshot decoder builds it from bytes, [`Driver::state`] copies it
/// out of a live driver, and [`apply_fork`] is the one way back to a
/// driver. Everything else a driver holds is rebuilt from the config.
#[derive(Clone)]
pub(crate) struct DriverState {
    pub(crate) origin: Origin,
    /// Clock and pending events with their FIFO tie-break counters,
    /// sorted by `(time, seq)`.
    pub(crate) now: SimTime,
    pub(crate) next_seq: u64,
    pub(crate) queue: Vec<(SimTime, u64, Event)>,
    pub(crate) rng_task: SimRng,
    pub(crate) rng_job: SimRng,
    pub(crate) rng_bg: SimRng,
    /// The transfer engine's mutable half; its fault oracle and retry
    /// policy come from the config.
    pub(crate) engine: TransferEngineSnapshot,
    pub(crate) catalog: ReplicaCatalog,
    pub(crate) rules: RuleEngine,
    /// Breaker state; `None` when the health loop was disarmed.
    pub(crate) health: Option<HealthSnapshot>,
    pub(crate) queued: Vec<u32>,
    pub(crate) running: Vec<u32>,
    pub(crate) compute_slots: Vec<BinaryHeap<Reverse<i64>>>,
    pub(crate) tasks: Vec<TaskCtx>,
    pub(crate) finished: Vec<(Job, u32, bool)>,
    pub(crate) transfers: Vec<(TransferEvent, bool)>,
    pub(crate) next_pandaid: u64,
    pub(crate) next_taskid: u64,
    pub(crate) next_dio_id: u64,
    pub(crate) next_output_seq: u64,
    pub(crate) events_processed: u64,
}

/// The one fork rule: a driver for `config` that continues `state`.
/// Both ways of continuing saved state end here — a decoded snapshot and
/// an in-memory warm-start fork.
///
/// Seed and topology are structural and must match the state's origin
/// (its tables are indexed by them). Under [`Mode::Resume`] every other
/// knob must match too; under [`Mode::Fork`] fault rates, breaker
/// settings, retry budgets and workload shape are taken from `config`
/// and govern the campaign from the state's clock on. Across a fork,
/// arming the health loop starts fresh breakers and disarming drops the
/// state's breaker state; a resume must agree with the state.
pub(crate) fn apply_fork(
    config: &ScenarioConfig,
    state: DriverState,
    mode: Mode,
) -> Result<Driver, String> {
    let DriverState {
        origin,
        now,
        next_seq,
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
    } = state;
    // A fresh driver supplies all config-derived state — the fault
    // oracle, retry policy, breaker thresholds and samplers are exactly
    // where a fork's knobs take effect. `Driver::new` neither seeds the
    // catalog nor pushes events; that is `start()`, which continuing
    // state must never run.
    let mut d = Driver::new(config.clone(), QueueBackend::default());
    let n_sites = d.topology.n_sites();
    if origin.structural_fp != config.structural_fingerprint() || origin.n_sites as usize != n_sites
    {
        return Err(format!(
            "snapshot structural fingerprint mismatch: taken under seed {} with {} sites — \
             {} config has seed {} and {n_sites} sites (seed and topology can never change \
             across a resume or fork)",
            origin.seed,
            origin.n_sites,
            match mode {
                Mode::Fork => "fork",
                Mode::Resume => "resume",
            },
            config.seed,
        ));
    }
    if mode == Mode::Resume {
        if origin.seed != config.seed
            || origin.duration_ms != config.duration.as_millis()
            || origin.initial_datasets != config.initial_datasets as u64
        {
            return Err(format!(
                "snapshot fingerprint mismatch: taken under seed {}, duration {} ms, \
                 {} datasets — resume config has seed {}, duration {} ms, {} datasets",
                origin.seed,
                origin.duration_ms,
                origin.initial_datasets,
                config.seed,
                config.duration.as_millis(),
                config.initial_datasets,
            ));
        }
        if origin.behavior_fp != config.behavior_fingerprint() {
            return Err(format!(
                "snapshot behavior fingerprint mismatch ({:#018x} vs {:#018x}): the resume \
                 config differs in a behavior-affecting knob (fault rates, breaker settings, \
                 retry budget, workload, corruption, or traffic fractions); resuming would \
                 silently replay divergent state — use the deliberate fork entry point if the \
                 change is intended",
                origin.behavior_fp,
                config.behavior_fingerprint()
            ));
        }
    }

    d.engine
        .restore(engine)
        .map_err(|e| format!("transfer engine: {e}"))?;
    if let Some(h) = &health {
        if h.sites.len() != n_sites {
            return Err(format!(
                "health snapshot covers {} sites, topology has {n_sites}",
                h.sites.len()
            ));
        }
    }
    d.health = match (health, config.health.enabled) {
        (None, false) => None,
        (Some(snap), true) => Some(HealthMonitor::restore(config.health.clone(), snap)),
        (None, true) if mode == Mode::Fork => {
            Some(HealthMonitor::new(config.health.clone(), n_sites))
        }
        (Some(_), false) if mode == Mode::Fork => None,
        (snap, armed) => {
            return Err(format!(
                "health loop mismatch: snapshot armed = {}, config armed = {armed}",
                snap.is_some()
            ))
        }
    };
    let slots_fit = compute_slots.len() == d.compute_slots.len()
        && (compute_slots.iter().zip(&d.compute_slots)).all(|(a, b)| a.len() == b.len());
    if queued.len() != n_sites || running.len() != n_sites || !slots_fit {
        return Err(format!(
            "load and slot tables do not fit the topology: {} queued, {} running, \
             {} slot rows (per-site slot counts must match too) for {n_sites} sites",
            queued.len(),
            running.len(),
            compute_slots.len()
        ));
    }

    d.queue = EventQueue::restore(queue, next_seq, now);
    d.rng_task = rng_task;
    d.rng_job = rng_job;
    d.rng_bg = rng_bg;
    d.catalog = catalog;
    d.rules = rules;
    d.queued = queued;
    d.running = running;
    d.compute_slots = compute_slots;
    d.tasks = tasks;
    d.finished = finished;
    d.transfers = transfers;
    d.next_pandaid = next_pandaid;
    d.next_taskid = next_taskid;
    d.next_dio_id = next_dio_id;
    d.next_output_seq = next_output_seq;
    d.events_processed = events_processed;
    Ok(d)
}

pub(crate) struct Driver {
    pub(crate) config: ScenarioConfig,
    pub(crate) rngs: RngFactory,
    pub(crate) topology: GridTopology,
    pub(crate) bw: BandwidthModel,
    pub(crate) catalog: ReplicaCatalog,
    pub(crate) engine: TransferEngine,
    pub(crate) rules: RuleEngine,
    pub(crate) reaper_policy: ReaperPolicy,
    pub(crate) broker: Broker,
    pub(crate) workload: WorkloadModel,
    pub(crate) pilot: PilotModel,
    /// Circuit breakers closing the failure-telemetry loop; `None` keeps
    /// every decision path byte-identical to pre-health builds.
    pub(crate) health: Option<HealthMonitor>,
    pub(crate) queue: EventQueue<Event>,
    // Load feedback for the brokerage.
    pub(crate) queued: Vec<u32>,
    pub(crate) running: Vec<u32>,
    pub(crate) compute_slots: Vec<BinaryHeap<Reverse<i64>>>,
    // Site sampling by activity weight.
    pub(crate) cum_weights: Vec<f64>,
    // Outputs.
    pub(crate) tasks: Vec<TaskCtx>,
    pub(crate) finished: Vec<(Job, u32, bool)>, // job, task_idx, recorded_upload
    pub(crate) transfers: Vec<(TransferEvent, bool)>, // event, recorded
    pub(crate) next_pandaid: u64,
    pub(crate) next_taskid: u64,
    pub(crate) next_dio_id: u64,
    pub(crate) next_output_seq: u64,
    /// Events delivered so far (snapshotted, so a resumed campaign
    /// reports the full count).
    pub(crate) events_processed: u64,
    // Reusable hot-loop scratch (never snapshotted: both are drained
    // empty between events, so a checkpoint boundary never sees content).
    pub(crate) scratch_events: Vec<TransferEvent>,
    pub(crate) scratch_files: Vec<FileId>,
    // RNG streams.
    pub(crate) rng_task: SimRng,
    pub(crate) rng_job: SimRng,
    pub(crate) rng_bg: SimRng,
}

impl Driver {
    pub(crate) fn new(config: ScenarioConfig, backend: QueueBackend) -> Self {
        let rngs = RngFactory::new(config.seed);
        let topology = GridTopology::generate(&rngs, &config.topology);
        let bw = BandwidthModel::new(&rngs, &topology);
        let faults = FaultModel::new(&rngs, config.faults.clone());
        let engine = TransferEngine::with_faults(&topology, &rngs, faults, config.retry.clone());
        let health = config
            .health
            .enabled
            .then(|| HealthMonitor::new(config.health.clone(), topology.n_sites()));
        let broker = Broker::new(config.broker.clone());
        let workload = WorkloadModel::new(config.workload.clone());
        let n = topology.n_sites();

        let mut cum = 0.0;
        let cum_weights = topology
            .sites()
            .iter()
            .map(|s| {
                cum += s.activity_weight;
                cum
            })
            .collect();

        let compute_slots = topology
            .sites()
            .iter()
            .map(|s| (0..s.compute_slots.max(1)).map(|_| Reverse(0i64)).collect())
            .collect();

        Driver {
            rng_task: rngs.stream("scenario/tasks"),
            rng_job: rngs.stream("scenario/jobs"),
            rng_bg: rngs.stream("scenario/background"),
            config,
            rngs,
            topology,
            bw,
            catalog: ReplicaCatalog::new(),
            engine,
            rules: RuleEngine::new(),
            reaper_policy: ReaperPolicy::default(),
            broker,
            workload,
            pilot: PilotModel::default(),
            health,
            queue: EventQueue::with_backend(backend),
            queued: vec![0; n],
            running: vec![0; n],
            compute_slots,
            cum_weights,
            tasks: Vec::new(),
            finished: Vec::new(),
            transfers: Vec::new(),
            next_pandaid: FIRST_PANDAID,
            next_taskid: FIRST_TASKID,
            next_dio_id: DIO_ID_BASE,
            next_output_seq: 0,
            events_processed: 0,
            scratch_events: Vec::new(),
            scratch_files: Vec::new(),
        }
    }

    /// Copy this driver's carried state out — the one copy an in-memory
    /// fork makes. The record tables keep their capacity (a plain `clone`
    /// would trim it to the length), so a continuation appends into room
    /// the prefix already grew instead of regrowing and copying.
    pub(crate) fn state(&self) -> DriverState {
        DriverState {
            origin: Origin::of(&self.config, &self.topology),
            now: self.queue.now(),
            next_seq: self.queue.next_seq(),
            queue: self
                .queue
                .snapshot_entries()
                .into_iter()
                .map(|(t, seq, ev)| (t, seq, ev.clone()))
                .collect(),
            rng_task: self.rng_task.clone(),
            rng_job: self.rng_job.clone(),
            rng_bg: self.rng_bg.clone(),
            engine: self.engine.snapshot(),
            catalog: self.catalog.clone(),
            rules: self.rules.clone(),
            health: self.health.as_ref().map(HealthMonitor::snapshot),
            queued: self.queued.clone(),
            running: self.running.clone(),
            compute_slots: self.compute_slots.clone(),
            tasks: clone_with_capacity(&self.tasks),
            finished: clone_with_capacity(&self.finished),
            transfers: clone_with_capacity(&self.transfers),
            next_pandaid: self.next_pandaid,
            next_taskid: self.next_taskid,
            next_dio_id: self.next_dio_id,
            next_output_seq: self.next_output_seq,
            events_processed: self.events_processed,
        }
    }

    /// Weighted site draw (activity-weighted; used for replica placement
    /// and background destinations).
    fn sample_site(&mut self, rng_kind: RngKind) -> SiteId {
        let total = *self.cum_weights.last().expect("non-empty topology");
        let x = match rng_kind {
            RngKind::Task => self.rng_task.random::<f64>(),
            RngKind::Background => self.rng_bg.random::<f64>(),
        } * total;
        let idx = self.cum_weights.partition_point(|&c| c < x);
        SiteId(idx.min(self.topology.n_sites() - 1) as u32)
    }

    fn seed_catalog(&mut self) {
        let mut rng = self.rngs.stream("scenario/catalog");
        for i in 0..self.config.initial_datasets {
            let sizes = self.workload.sample_file_sizes(&mut rng);
            let scope = match i % 4 {
                0 => Scope::Data,
                1 => Scope::McProd,
                2 => Scope::GroupPhys,
                _ => Scope::User(rng.random_range(0..200)),
            };
            let ds =
                self.catalog
                    .register_dataset(scope, i as u64, "input", &sizes, SimTime::EPOCH);
            // Place 1..=max replicas at activity-weighted sites.
            let n_rep = rng.random_range(1..=self.config.max_replicas_per_dataset.max(1));
            let mut placed: Vec<SiteId> = Vec::new();
            for _ in 0..n_rep {
                let total = *self.cum_weights.last().expect("non-empty");
                let x = rng.random::<f64>() * total;
                let idx = self.cum_weights.partition_point(|&c| c < x);
                let site = SiteId(idx.min(self.topology.n_sites() - 1) as u32);
                if placed.contains(&site) {
                    continue;
                }
                placed.push(site);
                let rse = self.topology.disk_rse(site);
                for &f in self.catalog.dataset_files(ds).to_vec().iter() {
                    self.catalog.add_replica(f, rse);
                }
            }
            // The primary copy is pinned by a long-lived rule; secondary
            // copies are cache-like and expire, exposing them to the
            // reaper (and later jobs to re-staging).
            if let Some(&primary) = placed.first() {
                self.rules.add_rule(
                    ds,
                    vec![self.topology.disk_rse(primary)],
                    1,
                    SimTime::EPOCH,
                    None,
                );
            }
            for &site in placed.iter().skip(1) {
                self.rules.add_rule(
                    ds,
                    vec![self.topology.disk_rse(site)],
                    1,
                    SimTime::EPOCH,
                    Some(SimDuration::from_days(rng.random_range(1..14))),
                );
            }
        }
    }

    /// Sites currently holding all files of `ds` on disk.
    fn dataset_sites(&self, ds: DatasetId) -> Vec<SiteId> {
        let files = self.catalog.dataset_files(ds);
        let Some(&first) = files.first() else {
            return Vec::new();
        };
        let mut sites: Vec<SiteId> = self
            .catalog
            .replicas_of(first)
            .iter()
            .map(|&r| self.topology.site_of_rse(r))
            .collect();
        sites.sort_unstable();
        sites.dedup();
        sites.retain(|&s| {
            files.iter().all(|&f| {
                self.catalog
                    .replicas_of(f)
                    .iter()
                    .any(|&r| self.topology.site_of_rse(r) == s)
            })
        });
        sites
    }

    /// Cold-start initialization: seed the catalog and plant the three
    /// self-perpetuating event chains. A resumed driver must NOT run this
    /// — its catalog and queue come from the snapshot.
    pub(crate) fn start(&mut self) {
        self.seed_catalog();
        self.queue.push(SimTime::EPOCH, Event::TaskArrival);
        self.queue.push(SimTime::EPOCH, Event::Background);
        self.queue
            .push(SimTime::EPOCH + SimDuration::from_hours(6), Event::Reaper);
    }

    /// The uniform abort error for a canceled drain. Deliberately does
    /// not say *why* (flag vs probe vs deadline): the caller holds the
    /// token and can interrogate it — the sweep maps this to its
    /// `timeout:` / `interrupted:` quarantine taxonomy.
    fn cancel_error(&self) -> String {
        format!(
            "canceled: {} events dispatched, sim-time {} ms",
            self.events_processed,
            self.queue.now().as_millis()
        )
    }

    /// The event loop: dispatch events in `(time, seq)` order until the
    /// queue is empty or, with a `stop` time, until the next event is at
    /// or after `stop`. That event stays queued, so a prefix run to
    /// `stop` leaves the state a checkpoint boundary at `stop` observes.
    ///
    /// Same-time events are dispatched as one tick batch, and everything
    /// else is checked once per batch:
    /// - the stop time;
    /// - the token: its flag and probe every batch, its wall-clock
    ///   deadline every [`CANCEL_STRIDE`] batches (serve's mid-matcher
    ///   pattern). Cancellation aborts with a `canceled:` error between
    ///   events, never mid-dispatch, and consumes no random draw;
    /// - the checkpoint cadence: a snapshot is taken with the queue
    ///   intact (nothing popped), so a resume replays the
    ///   boundary-crossing event itself. A boundary can never fall
    ///   between two same-time events, so batching skips nothing.
    pub(crate) fn advance(
        &mut self,
        stop: Option<SimTime>,
        mut checkpoints: Option<(SimDuration, SnapshotSink<'_>)>,
        cancel: Option<&CancelToken>,
    ) -> Result<(), String> {
        // First boundary strictly after the current clock (EPOCH on a cold
        // start; the restored `now` on a resume).
        let mut next_cp = checkpoints.as_ref().map(|(every, _)| {
            let em = every.as_millis().max(1);
            SimTime::from_millis((self.queue.now().as_millis() / em + 1) * em)
        });
        let mut strided = 0u32;
        let mut next = self.queue.peek_time();
        while let Some(t) = next {
            if stop.is_some_and(|stop| t >= stop) {
                break;
            }
            if let Some(tok) = cancel {
                strided += 1;
                if tok.fast_canceled()
                    || (strided >= CANCEL_STRIDE && {
                        strided = 0;
                        tok.deadline_exceeded()
                    })
                {
                    return Err(self.cancel_error());
                }
            }
            if let (Some((every, sink)), Some(cp)) = (checkpoints.as_mut(), next_cp) {
                if t >= cp {
                    sink(cp, &crate::snapshot::encode(self))?;
                    // One snapshot per crossing, however many boundaries
                    // the gap spans: the state at each of them is
                    // identical (no event fired in between).
                    let mut n = cp;
                    while n <= t {
                        n += *every;
                    }
                    next_cp = Some(n);
                }
            }
            loop {
                let (_, ev) = self.queue.pop().expect("peeked event exists");
                self.dispatch(t, ev);
                next = self.queue.peek_time();
                if next != Some(t) {
                    break;
                }
            }
        }
        Ok(())
    }

    fn dispatch(&mut self, t: SimTime, ev: Event) {
        self.events_processed += 1;
        match ev {
            Event::TaskArrival => self.on_task_arrival(t),
            Event::JobCreated(pj) => self.on_job_created(t, pj),
            Event::StagingDone(pj) => self.on_staging_done(t, pj),
            Event::ExecDone(pj) => self.on_exec_done(t, pj),
            Event::Background => self.on_background(t),
            Event::Reaper => self.on_reaper(t),
        }
    }

    fn window_end(&self) -> SimTime {
        SimTime::EPOCH + self.config.duration
    }

    fn on_task_arrival(&mut self, t: SimTime) {
        // Schedule the next arrival while inside the window.
        let rate_per_sec = self.workload.params().tasks_per_hour / 3_600.0;
        let gap = {
            let u: f64 = self.rng_task.random();
            -(1.0 - u).ln() / rate_per_sec.max(1e-9)
        };
        let next = t + SimDuration::from_secs_f64(gap);
        if next < self.window_end() {
            self.queue.push(next, Event::TaskArrival);
        }

        // Materialize this task.
        let kind = self.workload.sample_kind(&mut self.rng_task);
        let n_jobs = self.workload.sample_n_jobs(kind, &mut self.rng_task);
        let io_mode = self.workload.sample_io_mode(&mut self.rng_task);
        let doomed = self.workload.sample_doomed(&mut self.rng_task);
        let taskid = self.next_taskid;
        self.next_taskid += 1;

        let n_datasets = self
            .catalog
            .datasets()
            .len()
            .min(self.config.initial_datasets);
        if n_datasets == 0 {
            return;
        }
        let ds = DatasetId(self.rng_task.random_range(0..n_datasets as u64));

        let task_idx = self.tasks.len() as u32;
        self.tasks.push(TaskCtx {
            id: TaskId(taskid),
            kind,
            doomed,
            n_jobs,
            progress: TaskProgress::default(),
        });

        // iDDS-style pre-staging: deliver the whole input dataset to a
        // chosen site now, ahead of job dispatch. Drawn from a dedicated
        // per-task substream so prestage_fraction = 0 leaves every other
        // stream untouched (bit-identical baseline campaigns).
        // The dataset's file list is consulted while `self` is mutably
        // borrowed below, so it must be buffered — but into a reusable
        // scratch vec rather than a fresh allocation per task.
        let mut files = std::mem::take(&mut self.scratch_files);
        files.clear();
        files.extend_from_slice(self.catalog.dataset_files(ds));

        if self.config.prestage_fraction > 0.0 && kind == TaskKind::UserAnalysis {
            let mut prng = self.rngs.substream("scenario/prestage", taskid);
            if prng.random::<f64>() < self.config.prestage_fraction {
                let total = *self.cum_weights.last().expect("non-empty topology");
                let x = prng.random::<f64>() * total;
                let idx = self.cum_weights.partition_point(|&c| c < x);
                let target = SiteId(idx.min(self.topology.n_sites() - 1) as u32);
                let dest = self.topology.disk_rse(target);
                for &file in &files {
                    let req = TransferRequest {
                        file,
                        dest,
                        activity: Activity::DataRebalancing,
                        caused_by_pandaid: None,
                        jeditaskid: None,
                        preferred_source: None,
                    };
                    // Every attempt is a recorded rule-driven transfer;
                    // an exhausted prestage just means the jobs will
                    // stage the file themselves later.
                    self.engine.execute_into(
                        &req,
                        t,
                        &mut self.catalog,
                        &self.topology,
                        &self.bw,
                        self.health.as_mut(),
                        &mut self.scratch_events,
                    );
                    for ev in self.scratch_events.drain(..) {
                        self.transfers.push((ev, true));
                    }
                }
            }
        }

        // Fan out jobs with exponential submission stagger. JEDI splits
        // the input dataset across jobs: each file is processed by exactly
        // one job of the task (user analysis caps fan-out at the file
        // count; production tasks may wrap around and share).
        let n_jobs = match kind {
            TaskKind::UserAnalysis => n_jobs.min(files.len() as u32),
            TaskKind::Production => n_jobs,
        };
        self.tasks[task_idx as usize].n_jobs = n_jobs;
        // Balanced partition: the first `rem` jobs take `base + 1` files,
        // capped at 4 per job (JEDI's nFilesPerJob-style split).
        let base = files.len() / n_jobs.max(1) as usize;
        let rem = files.len() % n_jobs.max(1) as usize;
        let mut cursor = 0usize;
        let mut created = t;
        for ji in 0..n_jobs {
            let gap: f64 = {
                let u: f64 = self.rng_task.random();
                -(1.0 - u).ln() * 90.0
            };
            created += SimDuration::from_secs_f64(gap);
            // This job's disjoint slice (wrapping only for production).
            let take = (base + usize::from((ji as usize) < rem)).clamp(1, 4);
            let mut input_files: Vec<FileId> = (0..take)
                .map(|k| files[(cursor + k) % files.len()])
                .collect();
            cursor += take;
            input_files.dedup();
            input_files.sort_unstable();
            let input_bytes = input_files.iter().map(|&f| self.catalog.file(f).size).sum();
            let pandaid = self.next_pandaid;
            self.next_pandaid += 1;
            let pj = PendingJob {
                pandaid,
                task_idx,
                kind,
                io_mode,
                doomed,
                input_files,
                input_bytes,
                creation: created,
                site: SiteId(0),
                recorded_stagein: false,
                stage_source: None,
                stage_intervals: Vec::new(),
                staging_end: created,
                lost_input: false,
                rebrokered: false,
                start: created,
                exec_end: created,
            };
            self.queue.push(created, Event::JobCreated(Box::new(pj)));
        }
        self.scratch_files = files;
    }

    fn on_job_created(&mut self, t: SimTime, mut pj: Box<PendingJob>) {
        // Brokerage.
        let ds = self.catalog.file(pj.input_files[0]).dataset;
        let replica_sites = self.dataset_sites(ds);
        let load = SiteLoadView {
            queued: &self.queued,
            running: &self.running,
        };
        let placement = match self.health.as_mut() {
            Some(monitor) => {
                // Closed-loop brokerage: Open sites are hard-excluded
                // (with the broker's load-shed waiver chain behind it),
                // and the chosen site consumes a probe grant if it was on
                // probation.
                let p = self.broker.choose_site_guarded(
                    &replica_sites,
                    load,
                    &self.topology,
                    &mut self.rng_job,
                    |s| !monitor.site_admits(s, t),
                );
                monitor.commit_site(p.site, t);
                p
            }
            None => {
                self.broker
                    .choose_site(&replica_sites, load, &self.topology, &mut self.rng_job)
            }
        };
        pj.site = placement.site;
        self.queued[pj.site.index()] += 1;

        // Pin one stage-in source per job: local if the dataset is fully
        // present at the computing site; otherwise the replica site with
        // the best current effective rate. This keeps a job's transfers
        // all-local or all-remote, as in production (the paper's Table 2b
        // shows zero mixed jobs under exact matching). With the health
        // loop on, sites/links the breakers refuse are skipped unless
        // they are the only holders (degrade, don't starve).
        if !replica_sites.is_empty() && !replica_sites.contains(&pj.site) {
            let admitted: Vec<SiteId> = match self.health.as_mut() {
                Some(monitor) => replica_sites
                    .iter()
                    .copied()
                    .filter(|&s| monitor.source_admits(s, pj.site, t))
                    .collect(),
                None => Vec::new(),
            };
            let pool: &[SiteId] = if admitted.is_empty() {
                &replica_sites
            } else {
                &admitted
            };
            let best = pool
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    let ra = self.bw.effective_mbps(a, pj.site, t);
                    let rb = self.bw.effective_mbps(b, pj.site, t);
                    ra.total_cmp(&rb).then(b.cmp(&a))
                })
                .expect("non-empty replica set");
            if let Some(monitor) = self.health.as_mut() {
                monitor.commit_source(best, pj.site, t);
            }
            pj.stage_source = Some(self.topology.disk_rse(best));
        }

        // Harvester/pilot dispatch: provisioning + validation (+retries)
        // before staging begins. A pilot that exhausts validation retries
        // fails the job without it ever running.
        let dispatch = match self.pilot.sample_dispatch(&mut self.rng_job) {
            DispatchOutcome::Ready { delay_secs, .. } => SimDuration::from_secs_f64(delay_secs),
            DispatchOutcome::ExhaustedRetries { delay_secs } => {
                self.queued[pj.site.index()] = self.queued[pj.site.index()].saturating_sub(1);
                let end = t + SimDuration::from_secs_f64(delay_secs);
                if let Some(monitor) = self.health.as_mut() {
                    monitor.observe(HealthEvent {
                        subject: HealthSubject::Site(pj.site),
                        at: end,
                        signal: HealthSignal::PilotValidationFailed,
                    });
                }
                let task = &mut self.tasks[pj.task_idx as usize];
                task.progress.record(false);
                let job = Job {
                    id: JobId(pj.pandaid),
                    task: task.id,
                    kind: pj.kind,
                    computing_site: pj.site,
                    creationtime: pj.creation,
                    starttime: end,
                    endtime: end,
                    input_files: std::mem::take(&mut pj.input_files),
                    output_files: Vec::new(),
                    ninputfilebytes: pj.input_bytes,
                    noutputfilebytes: 0,
                    io_mode: pj.io_mode,
                    status: JobStatus::Failed,
                    task_status: TaskStatus::Done, // finalized after the loop
                    error_code: Some(dmsa_panda_sim::types::error_codes::PILOT_VALIDATION),
                };
                self.finished.push((job, pj.task_idx, false));
                return;
            }
        };
        let stage_begin = t + dispatch;

        let mut staging_end = stage_begin;
        match pj.kind {
            TaskKind::Production => {
                // Production inputs are pre-placed by rules; a fraction
                // records an explicit Production Download.
                if self.rng_job.random::<f64>() < self.config.prod_download_fraction {
                    staging_end =
                        self.stage_files(&mut pj, stage_begin, Activity::ProductionDownload, true);
                }
            }
            TaskKind::UserAnalysis => match pj.io_mode {
                IoMode::StageIn => {
                    pj.recorded_stagein = self.workload.sample_recorded_stagein(&mut self.rng_job);
                    let rec = pj.recorded_stagein;
                    staging_end =
                        self.stage_files(&mut pj, stage_begin, Activity::AnalysisDownload, rec);
                }
                IoMode::DirectIo => {
                    // No pre-staging; reads overlap execution.
                }
            },
        }
        pj.staging_end = staging_end;

        // The Fig 11 anomaly: occasionally the job is released to a worker
        // partway through staging, so a transfer spans queue and wall.
        let release = if self.rng_job.random::<f64>() < self.config.p_start_before_staging
            && staging_end > stage_begin
        {
            let frac = 0.2 + 0.6 * self.rng_job.random::<f64>();
            stage_begin + (staging_end - stage_begin).mul_f64(frac)
        } else {
            staging_end
        };
        self.queue.push(release, Event::StagingDone(pj));
    }

    /// Execute stage-in transfers for all input files; returns the staging
    /// completion time and records intervals on the job.
    ///
    /// Some pilots serialize their downloads regardless of how many
    /// streams the storage frontend offers (the Fig 10 pathology); for
    /// those, each file's request is only issued once the previous one
    /// completed.
    fn stage_files(
        &mut self,
        pj: &mut PendingJob,
        begin: SimTime,
        activity: Activity,
        recorded: bool,
    ) -> SimTime {
        let dest = self.topology.disk_rse(pj.site);
        let sequential = self.rng_job.random::<f64>() < self.config.p_sequential_stagein;
        let mut end = begin;
        let mut ready = begin;
        for i in 0..pj.input_files.len() {
            let req = TransferRequest {
                file: pj.input_files[i],
                dest,
                activity,
                caused_by_pandaid: Some(pj.pandaid),
                jeditaskid: Some(self.tasks[pj.task_idx as usize].id.0),
                preferred_source: pj.stage_source,
            };
            let status = self.engine.execute_into(
                &req,
                ready,
                &mut self.catalog,
                &self.topology,
                &self.bw,
                self.health.as_mut(),
                &mut self.scratch_events,
            );
            // Exhausted retries mean this input never arrives; a file
            // with no replica at all is (as before) silently absent —
            // production jobs read pre-placed copies we don't model
            // individually.
            if status == TransferStatus::Exhausted {
                pj.lost_input = true;
            }
            for ev in self.scratch_events.drain(..) {
                end = end.max(ev.endtime);
                if sequential {
                    // The pilot's serial loop waits out failed attempts
                    // and their retries too.
                    ready = ev.endtime;
                }
                pj.stage_intervals
                    .push(Interval::new(ev.starttime, ev.endtime));
                self.transfers.push((ev, recorded));
            }
        }
        end
    }

    fn on_staging_done(&mut self, t: SimTime, mut pj: Box<PendingJob>) {
        if pj.lost_input {
            self.fail_lost_input(t, pj);
            return;
        }
        // Acquire a compute slot.
        let heap = &mut self.compute_slots[pj.site.index()];
        let Reverse(free) = heap.pop().expect("compute slot heap never empties");
        let start = SimTime::from_millis(free).max(t);
        let wall =
            SimDuration::from_secs_f64(self.workload.sample_walltime_secs(&mut self.rng_job));
        let exec_end = start + wall;
        heap.push(Reverse(exec_end.as_millis()));

        self.queued[pj.site.index()] = self.queued[pj.site.index()].saturating_sub(1);
        self.running[pj.site.index()] += 1;

        pj.start = start;
        pj.exec_end = exec_end;
        self.queue.push(exec_end, Event::ExecDone(pj));
    }

    /// Graceful degradation for exhausted stage-in retries: the job fails
    /// with `LOST_INPUT` without ever holding a compute slot, and PanDA
    /// re-brokers it once — a fresh `pandaid`, a fresh brokerage pass
    /// (the input's surviving replicas may favour a different site now).
    fn fail_lost_input(&mut self, t: SimTime, mut pj: Box<PendingJob>) {
        self.queued[pj.site.index()] = self.queued[pj.site.index()].saturating_sub(1);
        let will_rebroker = !pj.rebrokered && t < self.window_end();
        let task = &mut self.tasks[pj.task_idx as usize];
        task.progress.record(false);
        let job = Job {
            id: JobId(pj.pandaid),
            task: task.id,
            kind: pj.kind,
            computing_site: pj.site,
            creationtime: pj.creation,
            starttime: t,
            endtime: t,
            // The input list is only cloned when the replacement job
            // below still needs it; the common path moves it.
            input_files: if will_rebroker {
                pj.input_files.clone()
            } else {
                std::mem::take(&mut pj.input_files)
            },
            output_files: Vec::new(),
            ninputfilebytes: pj.input_bytes,
            noutputfilebytes: 0,
            io_mode: pj.io_mode,
            status: JobStatus::Failed,
            task_status: TaskStatus::Done, // finalized after the loop
            error_code: Some(dmsa_panda_sim::types::error_codes::LOST_INPUT),
        };
        self.finished.push((job, pj.task_idx, false));

        if !will_rebroker {
            return;
        }
        // Recycle the box as the re-brokered replacement: fresh pandaid,
        // fresh brokerage pass, same inputs (one retry, like JEDI's
        // re-brokerage cap).
        let pandaid = self.next_pandaid;
        self.next_pandaid += 1;
        pj.pandaid = pandaid;
        pj.creation = t;
        pj.site = SiteId(0);
        pj.recorded_stagein = false;
        pj.stage_source = None;
        pj.stage_intervals.clear();
        pj.staging_end = t;
        pj.lost_input = false;
        pj.rebrokered = true;
        pj.start = t;
        pj.exec_end = t;
        self.queue.push(t, Event::JobCreated(pj));
    }

    fn on_exec_done(&mut self, t: SimTime, pj: Box<PendingJob>) {
        let mut pj = pj;
        self.running[pj.site.index()] = self.running[pj.site.index()].saturating_sub(1);

        // Direct-I/O reads: emitted during execution.
        if pj.kind == TaskKind::UserAnalysis && pj.io_mode == IoMode::DirectIo {
            self.emit_dio_reads(&mut pj);
        }

        // Staging fraction of queuing time drives the failure draw.
        let queue_window = Interval::new(pj.creation, pj.start);
        let queue_secs = queue_window.len().as_secs_f64().max(1.0);
        let staged_secs =
            dmsa_simcore::interval::union_len_within(&pj.stage_intervals, queue_window)
                .as_secs_f64();
        let staging_frac = staged_secs / queue_secs;
        // A stage-in still running after the job started (the Fig 11
        // anomaly) is treated as a severe staging pathology: the payload
        // races its own input. The paper observes exactly this coupling
        // ("it remains plausible that the lengthy transfer increased the
        // likelihood of failure").
        let crossed = pj.io_mode == IoMode::StageIn && pj.staging_end > pj.start;
        let effective_frac = if crossed {
            staging_frac.max(0.85)
        } else {
            staging_frac
        };
        let mut outcome = self
            .config
            .failure
            .draw(pj.doomed, effective_frac, &mut self.rng_job);

        // Pilot heartbeat watch: a lost heartbeat fails the payload
        // partway through its walltime regardless of everything else.
        let wall = pj.exec_end - pj.start;
        let mut truncated_end: Option<SimTime> = None;
        if let HeartbeatOutcome::LostAtFraction(frac) = self
            .pilot
            .sample_heartbeat(wall.as_secs_f64(), &mut self.rng_job)
        {
            outcome = dmsa_panda_sim::JobOutcome {
                status: JobStatus::Failed,
                error_code: Some(dmsa_panda_sim::types::error_codes::LOST_HEARTBEAT),
            };
            let lost_at = pj.start + wall.mul_f64(frac);
            truncated_end = Some(lost_at);
            if let Some(monitor) = self.health.as_mut() {
                monitor.observe(HealthEvent {
                    subject: HealthSubject::Site(pj.site),
                    at: lost_at,
                    signal: HealthSignal::LostHeartbeat,
                });
            }
        }

        // Output registration and (maybe) upload.
        let output_bytes = self
            .workload
            .sample_output_bytes(pj.input_bytes, &mut self.rng_job);
        let mut endtime = truncated_end.unwrap_or(pj.exec_end.max(pj.staging_end));
        let mut output_files: Vec<FileId> = Vec::new();
        let mut recorded_upload = false;
        if outcome.status == JobStatus::Finished {
            let scope = match pj.kind {
                TaskKind::UserAnalysis => Scope::User((pj.pandaid % 200) as u32),
                TaskKind::Production => Scope::McProd,
            };
            let seq = self.next_output_seq;
            self.next_output_seq += 1;
            let out_ds =
                self.catalog
                    .register_dataset(scope, 1_000_000 + seq, "output", &[output_bytes], t);
            let out_file = self.catalog.dataset_files(out_ds)[0];
            output_files.push(out_file);
            // Output first lands on the job's local storage.
            let local_rse = self.topology.disk_rse(pj.site);
            self.catalog.add_replica(out_file, local_rse);

            // Recorded uploads come from a different client population
            // than recorded stage-ins (different pilot I/O plugins), so a
            // job never records both — which is why the paper's Table 2b
            // shows zero mixed-locality jobs under exact matching.
            let (do_upload, activity) = match pj.kind {
                TaskKind::Production => (true, Activity::ProductionUpload),
                TaskKind::UserAnalysis => (
                    !pj.recorded_stagein
                        && self.rng_job.random::<f64>() < self.config.upload_recorded_fraction,
                    Activity::AnalysisUpload,
                ),
            };
            if do_upload {
                let dest_site = if self.rng_job.random::<f64>() < self.config.upload_remote_fraction
                {
                    self.sample_site(RngKind::Task)
                } else {
                    pj.site
                };
                let req = TransferRequest {
                    file: out_file,
                    dest: self.topology.disk_rse(dest_site),
                    activity,
                    caused_by_pandaid: Some(pj.pandaid),
                    jeditaskid: Some(self.tasks[pj.task_idx as usize].id.0),
                    preferred_source: None,
                };
                let status = self.engine.execute_into(
                    &req,
                    pj.exec_end,
                    &mut self.catalog,
                    &self.topology,
                    &self.bw,
                    self.health.as_mut(),
                    &mut self.scratch_events,
                );
                if status == TransferStatus::Delivered {
                    recorded_upload = true;
                } else if status == TransferStatus::Exhausted {
                    // The output never reached its destination RSE: the
                    // job degrades to a stage-out failure (its local copy
                    // survives, but PanDA counts the job failed).
                    outcome = dmsa_panda_sim::JobOutcome {
                        status: JobStatus::Failed,
                        error_code: Some(dmsa_panda_sim::types::error_codes::STAGEOUT_FAILURE),
                    };
                }
                for ev in self.scratch_events.drain(..) {
                    endtime = endtime.max(ev.endtime);
                    self.transfers.push((ev, true));
                }
            }
        }

        // Assemble the finished job.
        let task = &mut self.tasks[pj.task_idx as usize];
        task.progress.record(outcome.status == JobStatus::Finished);
        let job = Job {
            id: JobId(pj.pandaid),
            task: task.id,
            kind: pj.kind,
            computing_site: pj.site,
            creationtime: pj.creation,
            starttime: pj.start,
            endtime,
            input_files: std::mem::take(&mut pj.input_files),
            output_files,
            ninputfilebytes: pj.input_bytes,
            noutputfilebytes: output_bytes,
            io_mode: pj.io_mode,
            status: outcome.status,
            task_status: TaskStatus::Done, // finalized after the loop
            error_code: outcome.error_code,
        };
        self.finished.push((job, pj.task_idx, recorded_upload));
    }

    /// Synthesize streaming-read transfer events for a direct-I/O job.
    fn emit_dio_reads(&mut self, pj: &mut PendingJob) {
        let wall = (pj.exec_end - pj.start).as_secs_f64().max(1.0);
        for i in 0..pj.input_files.len() {
            let file = pj.input_files[i];
            if self.rng_job.random::<f64>() >= self.config.dio_recorded_fraction {
                continue;
            }
            let entry = self.catalog.file(file);
            let full = self.rng_job.random::<f64>() < self.config.dio_full_read_fraction;
            let size = if full {
                entry.size
            } else {
                // Partial read: 5–80 % of the file.
                let frac = 0.05 + 0.75 * self.rng_job.random::<f64>();
                ((entry.size as f64 * frac) as u64).max(1)
            };
            // Source: the job's pinned staging SE (one streaming session
            // per job), falling back to per-file selection for fully
            // local data.
            let src_site = pj
                .stage_source
                .map(|r| self.topology.site_of_rse(r))
                .or_else(|| {
                    self.engine
                        .select_source(
                            &self.catalog,
                            &self.topology,
                            &self.bw,
                            file,
                            pj.site,
                            pj.start,
                        )
                        .map(|r| self.topology.site_of_rse(r))
                })
                .unwrap_or(pj.site);
            let offset = self.rng_job.random::<f64>() * 0.8 * wall;
            let start = pj.start + SimDuration::from_secs_f64(offset);
            let rate = self.bw.effective_mbps(src_site, pj.site, start) * 1e6;
            let dur = (size as f64 / rate).max(0.5);
            let end = start + SimDuration::from_secs_f64(dur);
            pj.stage_intervals.push(Interval::new(start, end));

            let ds = self.catalog.dataset(entry.dataset);
            let id = self.next_dio_id;
            self.next_dio_id += 1;
            let ev = TransferEvent {
                id: dmsa_rucio_sim::TransferId(id),
                file,
                lfn: entry.lfn,
                dataset: ds.name,
                proddblock: ds.prod_dblock,
                scope: entry.scope,
                file_size: size,
                source_site: src_site,
                destination_site: pj.site,
                queued: start,
                starttime: start,
                endtime: end,
                activity: Activity::AnalysisDownloadDirectIo,
                attempt: 1,
                succeeded: true,
                caused_by_pandaid: Some(pj.pandaid),
                jeditaskid: Some(self.tasks[pj.task_idx as usize].id.0),
            };
            self.transfers.push((ev, true));
        }
    }

    fn on_reaper(&mut self, t: SimTime) {
        if t < self.window_end() {
            self.queue
                .push(t + SimDuration::from_hours(6), Event::Reaper);
        }
        reap_all(
            &mut self.catalog,
            &self.rules,
            &self.topology,
            &self.reaper_policy,
            t,
        );
    }

    fn on_background(&mut self, t: SimTime) {
        // Schedule the next background event while inside the window.
        let rate = self.config.background_transfers_per_hour / 3_600.0;
        if rate > 0.0 {
            let u: f64 = self.rng_bg.random();
            let gap = -(1.0 - u).ln() / rate;
            let next = t + SimDuration::from_secs_f64(gap);
            if next < self.window_end() {
                self.queue.push(next, Event::Background);
            }
        }

        if self.catalog.n_files() == 0 {
            return;
        }
        let file = FileId(self.rng_bg.random_range(0..self.catalog.n_files() as u64));
        let replicas = self.catalog.replicas_of(file);
        if replicas.is_empty() {
            return;
        }
        let src_site = self.topology.site_of_rse(replicas[0]);

        let local = self.rng_bg.random::<f64>() < self.config.background_local_fraction;
        let (dest_site, activity) = if local {
            let act = if self.rng_bg.random::<bool>() {
                Activity::TapeRecall
            } else {
                Activity::DataConsolidation
            };
            (src_site, act)
        } else {
            (
                self.sample_site(RngKind::Background),
                Activity::DataRebalancing,
            )
        };

        let req = TransferRequest {
            file,
            dest: self.topology.disk_rse(dest_site),
            activity,
            caused_by_pandaid: None,
            jeditaskid: None,
            preferred_source: None,
        };
        self.engine.execute_into(
            &req,
            t,
            &mut self.catalog,
            &self.topology,
            &self.bw,
            self.health.as_mut(),
            &mut self.scratch_events,
        );
        for ev in self.scratch_events.drain(..) {
            self.transfers.push((ev, true));
        }
    }

    /// Flatten jobs/transfers into the metadata store and corrupt it.
    fn finish(self) -> Campaign {
        let mut store = MetaStore::new();
        // Exact record counts, so the tables are allocated once.
        store.jobs.reserve_exact(self.finished.len());
        store.files.reserve_exact(
            self.finished
                .iter()
                .map(|(job, _, _)| job.input_files.len() + job.output_files.len())
                .sum(),
        );
        store.transfers.reserve_exact(
            self.transfers
                .iter()
                .filter(|(_, recorded)| *recorded)
                .count(),
        );
        let sym_of_site: Vec<Sym> = self
            .topology
            .sites()
            .iter()
            .map(|s| store.register_site(&s.name))
            .collect();

        // Task final statuses.
        let task_status: Vec<TaskStatus> = self
            .tasks
            .iter()
            .map(|t| {
                let fake = dmsa_panda_sim::JediTask {
                    id: t.id,
                    kind: t.kind,
                    user: 0,
                    input_dataset: DatasetId(0),
                    n_jobs: t.n_jobs,
                    io_mode: IoMode::StageIn,
                    created: SimTime::EPOCH,
                    doomed: t.doomed,
                };
                t.progress.final_status(&fake)
            })
            .collect();

        // Catalog-sym -> store-sym memo. `store.symbols.intern` already
        // dedupes by string, so the memo changes no sym numbering — it
        // only skips re-hashing the same long DID string per record.
        let names = self.catalog.names();
        let mut name_map: Vec<Option<Sym>> = vec![None; names.len()];
        let mut scope_map: FxHashMap<Scope, Sym> = FxHashMap::default();

        // Job + file records.
        for (job, task_idx, _) in &self.finished {
            let site_sym = sym_of_site[job.computing_site.index()];
            store.jobs.push(JobRecord {
                pandaid: job.id.0,
                jeditaskid: job.task.0,
                computingsite: site_sym,
                creationtime: job.creationtime,
                starttime: job.starttime,
                endtime: job.endtime,
                ninputfilebytes: job.ninputfilebytes,
                noutputfilebytes: job.noutputfilebytes,
                io_mode: job.io_mode,
                status: job.status,
                task_status: task_status[*task_idx as usize],
                error_code: job.error_code,
                is_user_analysis: job.kind == TaskKind::UserAnalysis,
            });
            for (&f, direction) in job
                .input_files
                .iter()
                .map(|f| (f, FileDirection::Input))
                .chain(job.output_files.iter().map(|f| (f, FileDirection::Output)))
            {
                let entry = self.catalog.file(f);
                let ds = self.catalog.dataset(entry.dataset);
                let rec = FileRecord {
                    pandaid: job.id.0,
                    jeditaskid: job.task.0,
                    lfn: remap_name(&mut name_map, names, &mut store.symbols, entry.lfn),
                    dataset: remap_name(&mut name_map, names, &mut store.symbols, ds.name),
                    proddblock: remap_name(
                        &mut name_map,
                        names,
                        &mut store.symbols,
                        ds.prod_dblock,
                    ),
                    scope: remap_scope(&mut scope_map, &mut store.symbols, entry.scope),
                    file_size: entry.size,
                    direction,
                };
                store.files.push(rec);
            }
        }

        // Transfer records (recorded ones only).
        for (ev, recorded) in &self.transfers {
            if !*recorded {
                continue;
            }
            let rec = TransferRecord {
                transfer_id: ev.id.0,
                lfn: remap_name(&mut name_map, names, &mut store.symbols, ev.lfn),
                dataset: remap_name(&mut name_map, names, &mut store.symbols, ev.dataset),
                proddblock: remap_name(&mut name_map, names, &mut store.symbols, ev.proddblock),
                scope: remap_scope(&mut scope_map, &mut store.symbols, ev.scope),
                file_size: ev.file_size,
                starttime: ev.starttime,
                endtime: ev.endtime,
                source_site: sym_of_site[ev.source_site.index()],
                destination_site: sym_of_site[ev.destination_site.index()],
                activity: ev.activity,
                jeditaskid: ev.jeditaskid,
                is_download: ev.activity.is_download(),
                is_upload: !ev.activity.is_download() && ev.activity.carries_jeditaskid(),
                attempt: ev.attempt,
                succeeded: ev.succeeded,
                gt_pandaid: ev.caused_by_pandaid,
                gt_source_site: sym_of_site[ev.source_site.index()],
                gt_destination_site: sym_of_site[ev.destination_site.index()],
                gt_file_size: ev.file_size,
            };
            store.transfers.push(rec);
        }

        // Apply the metadata-quality model.
        let corruption = self.config.corruption.clone();
        corruption.apply(&mut store, &self.rngs);

        debug_assert!(self.catalog.check_invariants().is_ok());

        let window = Interval::new(SimTime::EPOCH, self.window_end());
        Campaign {
            config: self.config,
            topology: self.topology,
            bw: self.bw,
            catalog: self.catalog,
            store,
            window,
            sym_of_site,
            path_stats: self.engine.path_stats(),
            events_processed: self.events_processed,
            health: self.health.as_ref().map(|m| m.summary()),
        }
    }
}

/// A copy of `v` with `v`'s capacity, not just its length.
fn clone_with_capacity<T: Clone>(v: &Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(v.capacity());
    out.extend_from_slice(v);
    out
}

/// Intern a catalog name into the store's symbol table, memoized by the
/// catalog sym id (the store dedupes by string, so the memo is purely a
/// fast path — numbering is unaffected).
fn remap_name(
    map: &mut [Option<Sym>],
    names: &SymbolTable,
    symbols: &mut SymbolTable,
    s: Sym,
) -> Sym {
    if let Some(m) = map[s.0 as usize] {
        return m;
    }
    let m = symbols.intern(names.resolve(s));
    map[s.0 as usize] = Some(m);
    m
}

/// Intern a scope's display form, memoized so the formatting (a fresh
/// `String` per call) happens once per distinct scope instead of once
/// per record.
fn remap_scope(map: &mut FxHashMap<Scope, Sym>, symbols: &mut SymbolTable, scope: Scope) -> Sym {
    *map.entry(scope)
        .or_insert_with(|| symbols.intern(&scope.to_string()))
}

/// Which RNG stream a helper should draw from (keeps streams disjoint by
/// caller role).
enum RngKind {
    Task,
    Background,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;

    fn small_campaign() -> Campaign {
        run(&ScenarioConfig::small())
    }

    fn run_with_queue(config: &ScenarioConfig, backend: QueueBackend) -> Campaign {
        let opts = DrainOpts {
            backend,
            ..DrainOpts::default()
        };
        drain(config, opts).expect("an unwatched drain cannot fail")
    }

    fn run_cancelable(config: &ScenarioConfig, cancel: &CancelToken) -> Result<Campaign, String> {
        let opts = DrainOpts {
            cancel: Some(cancel),
            ..DrainOpts::default()
        };
        drain(config, opts)
    }

    #[test]
    fn calendar_and_heap_queues_export_identical_campaigns() {
        let config = ScenarioConfig::small();
        let cal = run_with_queue(&config, QueueBackend::Calendar);
        let heap = run_with_queue(&config, QueueBackend::BinaryHeap);
        assert_eq!(cal.events_processed, heap.events_processed);
        assert_eq!(cal.store, heap.store);
    }

    #[test]
    fn inert_cancel_token_is_byte_identical_to_a_plain_run() {
        // The containment layer's regression criterion: polling a token
        // that never fires consumes no draw and perturbs nothing.
        let config = ScenarioConfig::small();
        let plain = run(&config);
        let token = CancelToken::new()
            .with_deadline(Instant::now() + std::time::Duration::from_secs(3600))
            .with_probe(|| false);
        let watched = run_cancelable(&config, &token).expect("token never fired");
        assert_eq!(plain.events_processed, watched.events_processed);
        assert_eq!(plain.store, watched.store);
        // Same for the warm-start prefix path.
        let at = SimTime::from_hours(2);
        let cold = SharedPrefix::new(&config, at, None).unwrap().encode();
        let guarded = SharedPrefix::new(&config, at, Some(&token))
            .expect("token never fired")
            .encode();
        assert_eq!(cold, guarded);
    }

    #[test]
    fn canceled_and_expired_tokens_abort_between_events() {
        let config = ScenarioConfig::small();
        // An explicitly canceled token aborts before the first batch.
        let must_cancel = |tok: &CancelToken| match run_cancelable(&config, tok) {
            Err(e) => e,
            Ok(_) => panic!("canceled run must abort"),
        };
        let token = CancelToken::new();
        token.cancel();
        let err = must_cancel(&token);
        assert!(err.starts_with("canceled:"), "{err}");
        assert!(!token.deadline_exceeded());
        // A probe (e.g. a termination latch) aborts the same way...
        let probed = CancelToken::new().with_probe(|| true);
        let err = must_cancel(&probed);
        assert!(err.starts_with("canceled:"), "{err}");
        // ...and an already-passed deadline aborts once the stride
        // consults the clock, leaving the trigger interrogable.
        let expired = CancelToken::new().with_deadline(Instant::now());
        let err = must_cancel(&expired);
        assert!(err.starts_with("canceled:"), "{err}");
        assert!(expired.deadline_exceeded());
        // Cancellation also reaches the prefix phase.
        let err = SharedPrefix::new(&config, SimTime::from_hours(2), Some(&token))
            .err()
            .expect("canceled prefix must abort");
        assert!(err.starts_with("canceled:"), "{err}");
    }

    #[test]
    fn campaign_produces_jobs_files_and_transfers() {
        let c = small_campaign();
        let (jobs, files, transfers, with_tid) = c.store.counts();
        assert!(jobs > 500, "only {jobs} jobs");
        assert!(files >= jobs, "file table smaller than job table");
        assert!(transfers > 500, "only {transfers} transfers");
        assert!(with_tid > 0 && with_tid < transfers);
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = small_campaign();
        let b = small_campaign();
        assert_eq!(a.store.counts(), b.store.counts());
        for (x, y) in a.store.transfers.iter().zip(&b.store.transfers) {
            assert_eq!(x.transfer_id, y.transfer_id);
            assert_eq!(x.file_size, y.file_size);
            assert_eq!(x.starttime, y.starttime);
        }
        for (x, y) in a.store.jobs.iter().zip(&b.store.jobs) {
            assert_eq!(x.pandaid, y.pandaid);
            assert_eq!(x.endtime, y.endtime);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_campaign();
        let b = run(&ScenarioConfig {
            seed: 43,
            ..ScenarioConfig::small()
        });
        assert_ne!(a.store.counts(), b.store.counts());
    }

    #[test]
    fn job_timelines_are_ordered() {
        let c = small_campaign();
        for j in &c.store.jobs {
            assert!(
                j.creationtime <= j.starttime,
                "queue phase must be non-negative"
            );
            assert!(j.starttime <= j.endtime, "wall phase must be non-negative");
        }
    }

    #[test]
    fn production_and_user_jobs_both_exist() {
        let c = small_campaign();
        let user = c.store.jobs.iter().filter(|j| j.is_user_analysis).count();
        let prod = c.store.jobs.len() - user;
        assert!(user > 0 && prod > 0, "user {user}, prod {prod}");
    }

    #[test]
    fn transfer_activities_cover_job_and_background_classes() {
        let c = small_campaign();
        let mut has = std::collections::HashSet::new();
        for t in &c.store.transfers {
            has.insert(t.activity);
        }
        assert!(has.contains(&Activity::AnalysisDownload));
        assert!(has.contains(&Activity::AnalysisDownloadDirectIo));
        assert!(has.contains(&Activity::ProductionUpload));
        assert!(has.contains(&Activity::DataRebalancing));
    }

    #[test]
    fn background_transfers_have_no_taskid_ground_truth() {
        let c = small_campaign();
        for t in &c.store.transfers {
            if !t.activity.carries_jeditaskid() {
                assert!(t.gt_pandaid.is_none());
                assert!(t.jeditaskid.is_none());
            }
        }
    }

    #[test]
    fn zero_fault_knobs_are_strictly_additive() {
        // The PR's acceptance criterion: with every failure/outage knob
        // at zero, the campaign must be byte-identical to one that never
        // heard of the fault layer — including with retry knobs cranked,
        // since they must never be consulted.
        let base = small_campaign();
        let cranked = run(&ScenarioConfig {
            retry: dmsa_rucio_sim::RetryPolicy {
                max_retries: 9,
                backoff_base: SimDuration::from_secs(5),
                ..dmsa_rucio_sim::RetryPolicy::default()
            },
            ..ScenarioConfig::small()
        });
        assert_eq!(base.store.counts(), cranked.store.counts());
        for (x, y) in base.store.transfers.iter().zip(&cranked.store.transfers) {
            assert_eq!(x.transfer_id, y.transfer_id);
            assert_eq!(x.file_size, y.file_size);
            assert_eq!(x.starttime, y.starttime);
            assert_eq!(x.endtime, y.endtime);
            assert_eq!(x.attempt, 1);
            assert!(x.succeeded);
        }
        for (x, y) in base.store.jobs.iter().zip(&cranked.store.jobs) {
            assert_eq!(x.pandaid, y.pandaid);
            assert_eq!(x.endtime, y.endtime);
            assert_eq!(x.error_code, y.error_code);
        }
    }

    #[test]
    fn faulty_campaign_produces_retries_and_lost_input_jobs() {
        let c = run(&ScenarioConfig::small_faulty());
        let retries = c.store.transfers.iter().filter(|t| t.is_retry()).count();
        let failed_attempts = c.store.transfers.iter().filter(|t| !t.succeeded).count();
        assert!(retries > 0, "degraded grid must record retry attempts");
        assert!(
            failed_attempts > 0,
            "degraded grid must record failed attempts"
        );
        // Graceful degradation: some jobs surface exhausted stage-in
        // retries as LOST_INPUT failures...
        let lost: Vec<&JobRecord> = c
            .store
            .jobs
            .iter()
            .filter(|j| j.error_code == Some(dmsa_panda_sim::types::error_codes::LOST_INPUT))
            .collect();
        assert!(!lost.is_empty(), "no lost-input job in a degraded grid");
        for j in &lost {
            assert_eq!(j.status, JobStatus::Failed);
            assert_eq!(j.starttime, j.endtime, "lost-input jobs never run");
        }
        // ...and the re-brokered replacements keep overall throughput up:
        // most jobs still finish.
        let finished = c
            .store
            .jobs
            .iter()
            .filter(|j| j.status == JobStatus::Finished)
            .count();
        assert!(finished * 2 > c.store.jobs.len(), "re-brokering collapsed");
    }

    #[test]
    fn zero_fault_adaptive_run_is_byte_identical_to_non_adaptive() {
        // The health satellite's regression criterion: with faults
        // disabled no breaker can ever open, so arming the closed loop
        // must not perturb a single decision, draw, or timestamp.
        let base = small_campaign();
        let adaptive = run(&ScenarioConfig {
            health: dmsa_gridnet::HealthConfig::adaptive(),
            ..ScenarioConfig::small()
        });
        assert_eq!(base.store.counts(), adaptive.store.counts());
        for (x, y) in base.store.transfers.iter().zip(&adaptive.store.transfers) {
            assert_eq!(x.transfer_id, y.transfer_id);
            assert_eq!(x.starttime, y.starttime);
            assert_eq!(x.endtime, y.endtime);
            assert_eq!(x.source_site, y.source_site);
            assert_eq!(x.destination_site, y.destination_site);
        }
        for (x, y) in base.store.jobs.iter().zip(&adaptive.store.jobs) {
            assert_eq!(x.pandaid, y.pandaid);
            assert_eq!(x.computingsite, y.computingsite);
            assert_eq!(x.starttime, y.starttime);
            assert_eq!(x.endtime, y.endtime);
            assert_eq!(x.error_code, y.error_code);
        }
        // The monitor existed and watched everything, but never tripped
        // and never refused.
        let summary = adaptive.health.expect("health loop was armed");
        assert!(
            summary.episodes.is_empty(),
            "breaker tripped without faults"
        );
        assert_eq!(summary.counters.trips, 0);
        assert_eq!(summary.counters.site_refusals, 0);
        assert_eq!(summary.counters.link_refusals, 0);
        assert_eq!(base.path_stats.requests, adaptive.path_stats.requests);
        assert_eq!(base.path_stats.exhausted, 0);
        assert!(base.health.is_none());
    }

    #[test]
    fn adaptive_exclusion_beats_non_adaptive_on_a_degraded_grid() {
        // The PR's headline acceptance criterion: at the same seed on the
        // same degraded grid, closing the loop must strictly reduce
        // exhausted transfers and the retry-attributed staging delay.
        let baseline = run(&ScenarioConfig::small_faulty());
        let adaptive = run(&ScenarioConfig::faulty_adaptive());

        let summary = adaptive.health.as_ref().expect("health loop was armed");
        assert!(
            summary.counters.trips > 0,
            "a degraded grid must trip breakers"
        );
        assert!(summary.excluded_site_hours(adaptive.window.end) > 0.0);

        assert!(
            adaptive.path_stats.exhausted < baseline.path_stats.exhausted,
            "adaptive {} !< baseline {} exhausted transfers",
            adaptive.path_stats.exhausted,
            baseline.path_stats.exhausted,
        );

        let retry_delay = |c: &Campaign| {
            dmsa_analysis::redundancy::redundancy_breakdown(&c.store, SimDuration::from_hours(24))
                .retry_delay_secs
                .iter()
                .sum::<f64>()
        };
        let (da, db) = (retry_delay(&adaptive), retry_delay(&baseline));
        assert!(
            da < db,
            "adaptive retry-attributed staging delay {da} !< baseline {db}"
        );
    }

    #[test]
    fn most_volume_is_local_ground_truth() {
        let c = small_campaign();
        let mut local = 0u64;
        let mut total = 0u64;
        for t in &c.store.transfers {
            total += t.gt_file_size;
            if t.gt_source_site == t.gt_destination_site {
                local += t.gt_file_size;
            }
        }
        let frac = local as f64 / total.max(1) as f64;
        assert!(
            frac > 0.5,
            "local volume fraction {frac} too low for the Fig 3 diagonal"
        );
    }
}
