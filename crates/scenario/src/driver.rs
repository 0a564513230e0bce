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
//! finished jobs; [`run`] then flattens both into a [`MetaStore`] and
//! applies the corruption model. Everything downstream (matching, analysis,
//! benches) consumes only the store.

use crate::config::ScenarioConfig;
use dmsa_gridnet::{
    BandwidthModel, FaultModel, GridTopology, HealthEvent, HealthMonitor, HealthSignal,
    HealthSubject, HealthSummary, SiteId,
};
use dmsa_metastore::{FileDirection, FileRecord, JobRecord, MetaStore, Sym, TransferRecord};
use dmsa_panda_sim::task::TaskProgress;
use dmsa_panda_sim::{
    Broker, DispatchOutcome, HeartbeatOutcome, IoMode, Job, JobId, JobStatus, PilotModel,
    SiteLoadView, TaskId, TaskKind, TaskStatus, WorkloadModel,
};
use dmsa_rucio_sim::transfer::TransferRequest;
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
    /// passes it (checked every [`CANCEL_STRIDE`] tick batches).
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

    /// Any trigger fired? (Flag, probe, or deadline.)
    pub fn is_canceled(&self) -> bool {
        self.fast_canceled() || self.deadline_exceeded()
    }
}

/// Run one campaign.
pub fn run(config: &ScenarioConfig) -> Campaign {
    run_with_queue(config, QueueBackend::default())
}

/// [`run`] with an explicit event-queue backend. Exists so `bench_sim`
/// (and the differential tests) can pit the calendar queue against the
/// reference binary heap on identical campaigns; the produced campaign
/// is byte-identical across backends.
pub fn run_with_queue(config: &ScenarioConfig, backend: QueueBackend) -> Campaign {
    let mut d = Driver::with_backend(config.clone(), backend);
    d.start();
    d.drain_with(None, &mut |_, _| Ok(()), None)
        .expect("no-op checkpoint sink cannot fail")
}

/// [`run`] polling a [`CancelToken`] once per tick batch. An un-canceled
/// run is byte-identical to [`run`]; a canceled one returns a
/// `canceled:` error (interrogate the token for which trigger fired).
pub fn run_cancelable(config: &ScenarioConfig, cancel: &CancelToken) -> Result<Campaign, String> {
    let mut d = Driver::new(config.clone());
    d.start();
    d.drain_with(None, &mut |_, _| Ok(()), Some(cancel))
}

/// Run one campaign, emitting a state snapshot to `sink` at every
/// `every`-aligned sim-time boundary the event clock crosses. The sink
/// receives the boundary time and the encoded snapshot; a sink error
/// aborts the campaign (the caller decides whether a failed checkpoint
/// write is fatal).
///
/// Checkpointing never mutates simulator state and never consumes a
/// random draw, so the produced campaign is byte-identical to [`run`]
/// regardless of cadence.
pub fn run_checkpointed(
    config: &ScenarioConfig,
    every: SimDuration,
    sink: SnapshotSink<'_>,
) -> Result<Campaign, String> {
    let mut d = Driver::new(config.clone());
    d.start();
    d.drain_with(Some(every), sink, None)
}

/// Resume a campaign from a snapshot produced by [`run_checkpointed`]
/// under the *same* config, running it to completion. When `every` is
/// `Some`, checkpointing continues from the resumed clock.
///
/// The resumed campaign is byte-identical to the uninterrupted same-seed
/// run: the snapshot captures every piece of mutable driver state,
/// including the exact positions of all RNG streams and the pending event
/// queue with its FIFO tie-break counters.
pub fn resume_checkpointed(
    config: &ScenarioConfig,
    snapshot: &[u8],
    every: Option<SimDuration>,
    sink: SnapshotSink<'_>,
) -> Result<Campaign, String> {
    let d = crate::snapshot::decode(config, snapshot)?;
    d.drain_with(every, sink, None)
}

/// Run `config`'s campaign up to (but not including) sim-time `at` and
/// return the encoded snapshot of that state. Byte-identical to the
/// checkpoint [`run_checkpointed`] would emit at an `at`-aligned
/// boundary: every event strictly before `at` is dispatched, the queue
/// is left intact, and no random draw is consumed by the encoding.
///
/// This is the shared-prefix half of a warm start: sweep cells that
/// agree on `(seed, prefix config)` pay this once and each continue via
/// [`fork_with_config`].
pub fn prefix_snapshot(config: &ScenarioConfig, at: SimTime) -> Vec<u8> {
    let mut d = Driver::new(config.clone());
    d.start();
    d.run_until(at);
    crate::snapshot::encode(&d)
}

/// Resume a snapshot under a **deliberately different** config — the
/// escape hatch around the strict behavior fingerprint that
/// [`resume_checkpointed`] enforces. Seed and topology must still match
/// (they are structural: the snapshot's tables are indexed by them);
/// every other knob — fault rates, breaker settings, retry budgets,
/// workload shape — is taken from `config` and governs the campaign
/// from the snapshot time onward. Arming the health loop across the
/// fork starts fresh breakers; disarming drops the snapshot's breaker
/// state.
pub fn fork_with_config(
    config: &ScenarioConfig,
    snapshot: &[u8],
    every: Option<SimDuration>,
    sink: SnapshotSink<'_>,
) -> Result<Campaign, String> {
    let d = crate::snapshot::decode_forked(config, snapshot)?;
    d.drain_with(every, sink, None)
}

/// One-shot reference for a warm-started sweep cell: run `base` up to
/// `at`, then continue under `fork` to completion. Exactly equivalent to
/// `fork_with_config(fork, &prefix_snapshot(base, at), ..)` — the CLI's
/// `simulate --fork-at` uses this so a standalone run can reproduce any
/// warm-started cell byte-for-byte.
pub fn run_forked(
    base: &ScenarioConfig,
    fork: &ScenarioConfig,
    at: SimTime,
) -> Result<Campaign, String> {
    fork_with_config(fork, &prefix_snapshot(base, at), None, &mut |_, _| Ok(()))
}

/// [`shared_prefix`] polling a [`CancelToken`] while computing the
/// prefix, so a sweep deadline or SIGTERM can abort even the warm-start
/// phase. An un-canceled prefix is byte-identical to [`shared_prefix`].
pub fn shared_prefix_cancelable(
    config: &ScenarioConfig,
    at: SimTime,
    cancel: &CancelToken,
) -> Result<SharedPrefix, String> {
    let mut d = Driver::new(config.clone());
    d.start();
    d.run_until_cancelable(at, Some(cancel))?;
    Ok(SharedPrefix { driver: d })
}

/// A fully materialized warm-start prefix: the live driver state of
/// `config`'s campaign at sim-time `at`, reusable across any number of
/// forked continuations. The in-memory sibling of [`prefix_snapshot`]:
/// forking from it restores exactly the state the snapshot codec
/// round-trips — [`SharedPrefix::fork`] is byte-identical to
/// [`fork_with_config`] over the encoded prefix at the same boundary —
/// but costs a memcpy-scale clone per fork instead of a parse.
pub struct SharedPrefix {
    driver: Driver,
}

/// Run `config`'s campaign up to (but not including) `at` and keep the
/// live driver state for reuse. Sweep cells that agree on `(seed,
/// prefix config)` pay this once and each continue via
/// [`SharedPrefix::fork`].
pub fn shared_prefix(config: &ScenarioConfig, at: SimTime) -> SharedPrefix {
    let mut d = Driver::new(config.clone());
    d.start();
    d.run_until(at);
    SharedPrefix { driver: d }
}

impl SharedPrefix {
    /// The prefix config this state was produced under.
    pub fn config(&self) -> &ScenarioConfig {
        &self.driver.config
    }

    /// Encode the prefix as a snapshot — what [`prefix_snapshot`] would
    /// return for the same `(config, at)`.
    pub fn encode(&self) -> Vec<u8> {
        crate::snapshot::encode(&self.driver)
    }

    /// Continue this prefix to completion under a (possibly different)
    /// config — the in-memory equivalent of [`fork_with_config`], with
    /// the same rules: seed and topology are structural and must match;
    /// every other knob is taken from `config` from the prefix time
    /// onward; arming the health loop starts fresh breakers, disarming
    /// drops the prefix's breaker state.
    pub fn fork(&self, config: &ScenarioConfig) -> Result<Campaign, String> {
        self.driver
            .fork_clone(config)?
            .drain_with(None, &mut |_, _| Ok(()), None)
    }

    /// [`SharedPrefix::fork`] polling a [`CancelToken`] once per tick
    /// batch. An un-canceled fork is byte-identical to [`fork`].
    pub fn fork_cancelable(
        &self,
        config: &ScenarioConfig,
        cancel: &CancelToken,
    ) -> Result<Campaign, String> {
        self.driver
            .fork_clone(config)?
            .drain_with(None, &mut |_, _| Ok(()), Some(cancel))
    }
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
    scratch_events: Vec<TransferEvent>,
    scratch_files: Vec<FileId>,
    // RNG streams.
    pub(crate) rng_task: SimRng,
    pub(crate) rng_job: SimRng,
    pub(crate) rng_bg: SimRng,
}

impl Driver {
    pub(crate) fn new(config: ScenarioConfig) -> Self {
        Self::with_backend(config, QueueBackend::default())
    }

    pub(crate) fn with_backend(config: ScenarioConfig, backend: QueueBackend) -> Self {
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

    /// Clone this driver's mutable state onto a fresh `config`-derived
    /// driver — the in-memory mirror of `snapshot::decode_forked`
    /// (construct `Driver::new(config)`, then overwrite exactly the
    /// state the snapshot codec carries). Kept in lockstep with the
    /// codec: a field added to `encode`/`decode_inner` must be cloned
    /// here too — the sweep's byte-identity tests against [`run_forked`]
    /// catch a miss.
    pub(crate) fn fork_clone(&self, config: &ScenarioConfig) -> Result<Driver, String> {
        if config.structural_fingerprint() != self.config.structural_fingerprint() {
            return Err(format!(
                "prefix fork structural fingerprint mismatch: prefix ran under seed {} — \
                 fork config has seed {} (seed and topology can never change across a fork)",
                self.config.seed, config.seed
            ));
        }
        let mut d = Driver::new(config.clone());
        // Clock + event queue (FIFO tie-break counters included).
        let entries = self
            .queue
            .snapshot_entries()
            .into_iter()
            .map(|(t, seq, ev)| (t, seq, ev.clone()))
            .collect();
        d.queue = EventQueue::restore(entries, self.queue.next_seq(), self.queue.now());
        // Driver RNG streams.
        d.rng_task = self.rng_task.clone();
        d.rng_job = self.rng_job.clone();
        d.rng_bg = self.rng_bg.clone();
        // Transfer engine: mutable state from the prefix; fault oracle
        // and retry policy stay config-derived, which is where the
        // forked knobs take effect.
        d.engine
            .restore(self.engine.snapshot())
            .map_err(|e| format!("transfer engine: {e}"))?;
        d.catalog = self.catalog.clone();
        d.rules = self.rules.clone();
        // Same arm/disarm matrix as a forked decode: arming starts fresh
        // breakers, disarming drops the prefix's breaker state.
        d.health = match (&self.health, config.health.enabled) {
            (None, false) | (Some(_), false) => None,
            (Some(h), true) => Some(HealthMonitor::restore(config.health.clone(), h.snapshot())),
            (None, true) => Some(HealthMonitor::new(
                config.health.clone(),
                d.topology.n_sites(),
            )),
        };
        d.queued = self.queued.clone();
        d.running = self.running.clone();
        d.compute_slots = self.compute_slots.clone();
        // The record tables keep the prefix's capacity (a plain `clone`
        // would trim it to the length), so the continuation appends into
        // room the prefix already grew instead of regrowing and copying.
        d.tasks = clone_with_capacity(&self.tasks);
        d.finished = clone_with_capacity(&self.finished);
        d.transfers = clone_with_capacity(&self.transfers);
        d.next_pandaid = self.next_pandaid;
        d.next_taskid = self.next_taskid;
        d.next_dio_id = self.next_dio_id;
        d.next_output_seq = self.next_output_seq;
        d.events_processed = self.events_processed;
        Ok(d)
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

    /// Dispatch every event strictly before `at`, leaving the queue
    /// intact from `at` onward. The resulting state is what a
    /// checkpoint boundary at `at` observes (snapshots are taken with
    /// nothing popped), which is what makes [`prefix_snapshot`]
    /// byte-identical to a [`run_checkpointed`] emission.
    pub(crate) fn run_until(&mut self, at: SimTime) {
        self.run_until_cancelable(at, None)
            .expect("cancel-free prefix run cannot abort")
    }

    /// [`Driver::run_until`] polling a [`CancelToken`] once per tick
    /// batch — same cadence (and same stride for the wall-clock check)
    /// as the full drain.
    pub(crate) fn run_until_cancelable(
        &mut self,
        at: SimTime,
        cancel: Option<&CancelToken>,
    ) -> Result<(), String> {
        let mut strided = 0u32;
        while let Some(peek) = self.queue.peek_time() {
            if peek >= at {
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
            let (t, ev) = self.queue.pop().expect("peeked event exists");
            self.dispatch(t, ev);
        }
        Ok(())
    }

    /// Drain the event queue to completion, snapshotting between events
    /// whenever the clock is about to cross an `every`-aligned boundary.
    /// Snapshots are taken with the queue intact (nothing popped) so a
    /// resume replays the boundary-crossing event itself.
    ///
    /// When `cancel` is provided it is polled once per tick batch: the
    /// shared flag and probe on every batch, the wall-clock deadline
    /// every [`CANCEL_STRIDE`] batches (serve's mid-matcher pattern).
    /// Cancellation aborts with a `canceled:` error between events —
    /// never mid-dispatch — and consumes no random draw, so an
    /// un-canceled run is byte-identical to a token-free one.
    pub(crate) fn drain_with(
        mut self,
        every: Option<SimDuration>,
        sink: SnapshotSink<'_>,
        cancel: Option<&CancelToken>,
    ) -> Result<Campaign, String> {
        // First boundary strictly after the current clock (EPOCH on a cold
        // start; the restored `now` on a resume).
        let mut next_cp = every.map(|e| {
            let em = e.as_millis().max(1);
            SimTime::from_millis((self.queue.now().as_millis() / em + 1) * em)
        });
        let mut strided = 0u32;

        loop {
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
            if let (Some(e), Some(cp)) = (every, next_cp) {
                if let Some(peek) = self.queue.peek_time() {
                    if peek >= cp {
                        let bytes = crate::snapshot::encode(&self);
                        sink(cp, &bytes)?;
                        // One snapshot per crossing, however many
                        // boundaries the gap spans: the state at each of
                        // them is identical (no event fired in between).
                        let mut n = cp;
                        while n <= peek {
                            n += e;
                        }
                        next_cp = Some(n);
                    }
                }
            }
            let Some((t, ev)) = self.queue.pop() else {
                break;
            };
            self.dispatch(t, ev);
            // Batch the rest of the tick: a checkpoint boundary can never
            // fall between two same-time events (next_cp is advanced past
            // `peek`, and boundaries are strictly increasing), so popping
            // them without re-checking `next_cp` is behavior-identical —
            // and skips a boundary comparison per event.
            while self.queue.peek_time() == Some(t) {
                let (_, ev) = self.queue.pop().expect("peeked event exists");
                self.dispatch(t, ev);
            }
        }

        Ok(self.finish())
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
        let cold = shared_prefix(&config, at).encode();
        let guarded = shared_prefix_cancelable(&config, at, &token)
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
        let err = shared_prefix_cancelable(&config, SimTime::from_hours(2), &token)
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
