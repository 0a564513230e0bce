//! Campaign configuration and the paper's calibrated presets.

use dmsa_gridnet::{FaultConfig, HealthConfig, TopologyConfig};
use dmsa_metastore::CorruptionModel;
use dmsa_panda_sim::{BrokerConfig, FailureModel, WorkloadParams};
use dmsa_rucio_sim::RetryPolicy;
use dmsa_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// Everything needed to run one campaign.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Master seed; the entire campaign is a pure function of this config.
    pub seed: u64,
    /// Grid shape.
    pub topology: TopologyConfig,
    /// Workload distributions.
    pub workload: WorkloadParams,
    /// Brokerage policy.
    pub broker: BrokerConfig,
    /// Failure process.
    pub failure: FailureModel,
    /// Transfer-level fault injection: outage schedules and per-attempt
    /// failure probabilities. Inert by default (`#[serde(default)]` keeps
    /// pre-fault configs loadable), making the failure layer strictly
    /// additive — zero knobs reproduce pre-fault campaigns byte for byte.
    #[serde(default)]
    pub faults: FaultConfig,
    /// Retry/backoff schedule for failed transfer attempts. Irrelevant
    /// (never consulted) while `faults` is inert.
    #[serde(default)]
    pub retry: RetryPolicy,
    /// Closed-loop health: circuit breakers over failure telemetry, with
    /// health-aware brokerage and source selection. Disabled by default
    /// (`#[serde(default)]`), and with it disabled no component consults
    /// the monitor — existing campaigns stay byte-identical.
    #[serde(default)]
    pub health: HealthConfig,
    /// Metadata-quality model applied to the final store.
    pub corruption: CorruptionModel,
    /// Observation window length (jobs must finish inside it to count).
    pub duration: SimDuration,
    /// Rule/rebalancing/tape traffic (no `jeditaskid`) per hour.
    pub background_transfers_per_hour: f64,
    /// Fraction of background transfers that are intra-site (tape recall,
    /// consolidation) rather than cross-site rebalancing. Drives the
    /// diagonal weight of the Fig 3 matrix.
    pub background_local_fraction: f64,
    /// Fraction of finished jobs whose output upload produces a recorded
    /// transfer (the paper saw only 3,059 Analysis Upload events against
    /// ~1 M jobs).
    pub upload_recorded_fraction: f64,
    /// Fraction of recorded uploads that go to a remote RSE (user home
    /// storage) instead of site-local storage.
    pub upload_remote_fraction: f64,
    /// Fraction of direct-I/O reads that fetch the *whole* file (and so
    /// can pass the byte-exact attribute join). The rest are partial.
    pub dio_full_read_fraction: f64,
    /// Fraction of direct-I/O reads that produce transfer records at all.
    pub dio_recorded_fraction: f64,
    /// Fraction of production jobs that stage input via a recorded
    /// Production Download.
    pub prod_download_fraction: f64,
    /// Pathology knob: probability a stage-in job starts executing before
    /// its staging completes (the Fig 11 spanning-transfer anomaly).
    pub p_start_before_staging: f64,
    /// Fraction of stage-in jobs whose pilot downloads input files
    /// strictly one after another (legacy `rucio download` loop) even when
    /// the storage frontend could parallelize — the Fig 10 "transfers
    /// occurred sequentially rather than in parallel" evidence of
    /// bandwidth under-utilization.
    pub p_sequential_stagein: f64,
    /// iDDS-style pre-staging (the paper's related work, §6): this
    /// fraction of user tasks has its whole input dataset delivered to a
    /// chosen site *at task creation*, ahead of job dispatch — the Data
    /// Carousel pattern. Default 0 (the paper's production baseline); the
    /// what-if experiment sweeps it.
    pub prestage_fraction: f64,
    /// Pre-existing input datasets in the catalog.
    pub initial_datasets: usize,
    /// Replicas per pre-existing dataset (placed activity-weighted).
    pub max_replicas_per_dataset: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 42,
            topology: TopologyConfig::default(),
            workload: WorkloadParams::default(),
            broker: BrokerConfig::default(),
            failure: FailureModel::default(),
            faults: FaultConfig::none(),
            retry: RetryPolicy::default(),
            health: HealthConfig::disabled(),
            corruption: CorruptionModel::default(),
            duration: SimDuration::from_days(8),
            background_transfers_per_hour: 1_500.0,
            background_local_fraction: 0.70,
            upload_recorded_fraction: 0.004,
            upload_remote_fraction: 0.25,
            dio_full_read_fraction: 0.12,
            dio_recorded_fraction: 0.30,
            prod_download_fraction: 0.04,
            p_start_before_staging: 0.03,
            p_sequential_stagein: 0.35,
            prestage_fraction: 0.0,
            initial_datasets: 1_500,
            max_replicas_per_dataset: 3,
        }
    }
}

impl ScenarioConfig {
    /// The §5 matching-study campaign: an 8-day window (04/01–04/09/2025
    /// in the paper). `scale = 1.0` targets the paper's raw volumes
    /// (~966 k user jobs, ~6.8 M transfers); CI and examples run
    /// `scale ≈ 0.02–0.1`.
    pub fn paper_8day(scale: f64) -> Self {
        let mut c = ScenarioConfig::default();
        // At scale 1.0: ~205 user tasks/h × 192 h × ~8.4 jobs/task
        // (completion-weighted) ≈ 0.97 M user jobs.
        c.workload.tasks_per_hour = 700.0 * scale;
        c.workload.production_fraction = 0.10;
        c.background_transfers_per_hour = 27_000.0 * scale;
        c.initial_datasets = ((4_000.0 * scale) as usize).max(60);
        // Compute capacity scales with the workload so hot-site queueing
        // contention (Fig 5's >10,000 s queues) survives down-scaling, and
        // disk capacity scales so storage pressure keeps the deletion
        // reaper active (a causal source of redundant transfers).
        c.topology.t2_compute_slots = ((400.0 * scale) as u32).max(6);
        c.topology.t2_disk_capacity_bytes = ((60.0e12 * scale) as u64).max(200_000_000_000);
        c
    }

    /// The Fig 3 campaign: a 92-day window (05/01–07/31/2025), used only
    /// for the site-to-site transfer matrix, so job traffic can be thinner
    /// while background (rule-driven) traffic dominates volume.
    pub fn paper_92day(scale: f64) -> Self {
        let mut c = ScenarioConfig {
            duration: SimDuration::from_days(92),
            background_transfers_per_hour: 8_000.0 * scale,
            initial_datasets: ((3_000.0 * scale) as usize).max(60),
            ..ScenarioConfig::default()
        };
        c.workload.tasks_per_hour = 120.0 * scale;
        c.topology.t2_compute_slots = ((120.0 * scale) as u32).max(6);
        c.topology.t2_disk_capacity_bytes = ((40.0e12 * scale) as u64).max(200_000_000_000);
        c
    }

    /// A fast, small campaign for unit/integration tests: small topology,
    /// a few hours, a few thousand jobs.
    pub fn small() -> Self {
        let mut c = ScenarioConfig {
            topology: TopologyConfig::small(),
            duration: SimDuration::from_hours(12),
            background_transfers_per_hour: 200.0,
            initial_datasets: 80,
            ..ScenarioConfig::default()
        };
        c.workload.tasks_per_hour = 30.0;
        c.topology.t2_compute_slots = 24;
        c
    }

    /// Same as [`ScenarioConfig::small`] but with pristine metadata —
    /// the evaluator must then score exact matching perfectly.
    pub fn small_clean() -> Self {
        ScenarioConfig {
            corruption: CorruptionModel::none(),
            ..Self::small()
        }
    }

    /// Same as [`ScenarioConfig::small`] but on a degraded grid: attempt
    /// failures and occasional site/link outages, so the retry path, the
    /// lost-input surface, and the retry-redundancy analysis all light up
    /// in tests and the CI smoke run.
    pub fn small_faulty() -> Self {
        ScenarioConfig {
            faults: FaultConfig::degraded(),
            ..Self::small()
        }
    }

    /// Fingerprint of **every** behavior-affecting knob: a stable hash of
    /// the config's derived `Debug` rendering, which enumerates all
    /// fields recursively — a knob added to any sub-config is picked up
    /// automatically, so the fingerprint can never silently lag the
    /// config the way the old seed+duration check did. Two configs with
    /// equal fingerprints produce byte-identical campaigns from the same
    /// seed; any differing knob — fault rates, breaker thresholds, retry
    /// budgets, workload shape — changes the fingerprint. Snapshots embed
    /// it so [`crate::snapshot::decode`] refuses a resume under a config
    /// that would silently replay divergent state.
    pub fn behavior_fingerprint(&self) -> u64 {
        dmsa_simcore::fx::hash_bytes(format!("{self:?}").as_bytes())
    }

    /// Fingerprint of the *structural* knobs a deliberate config fork must
    /// still agree on: the master seed (RNG stream continuity) and the
    /// topology (site/RSE/link shape every snapshotted table is indexed
    /// by). A fork ([`crate::snapshot::Mode::Fork`]) checks only this, so a
    /// warm-started sweep cell may change fault rates, breaker settings,
    /// retry budgets, or workload mid-flight — but never the grid itself.
    pub fn structural_fingerprint(&self) -> u64 {
        let topo = format!("{:?}", self.topology);
        let mut bytes = Vec::with_capacity(8 + topo.len());
        bytes.extend_from_slice(&self.seed.to_le_bytes());
        bytes.extend_from_slice(topo.as_bytes());
        dmsa_simcore::fx::hash_bytes(&bytes)
    }

    /// [`ScenarioConfig::small_faulty`] with the closed health loop armed:
    /// the same degraded grid, but breakers now exclude sick sites/links
    /// from brokerage and source selection. Diffing this preset against
    /// `small_faulty` (same seed) is the measured value of adaptive
    /// exclusion — the `exclusion` analysis report automates the diff.
    pub fn faulty_adaptive() -> Self {
        ScenarioConfig {
            health: HealthConfig::adaptive(),
            ..Self::small_faulty()
        }
    }

    /// [`ScenarioConfig::paper_8day`] on a degraded grid: the paper's
    /// full 111-site topology with the fault model armed. The ablation
    /// preset for sweeps and the sweep bench — per-event brokerage and
    /// replica-scan work scales with the site count while the record
    /// volume scales with the workload, so at small `scale` the event
    /// loop (which a warm start skips) dominates each cell.
    pub fn paper_8day_faulty(scale: f64) -> Self {
        ScenarioConfig {
            faults: FaultConfig::degraded(),
            ..Self::paper_8day(scale)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_windows() {
        assert_eq!(
            ScenarioConfig::paper_8day(1.0).duration,
            SimDuration::from_days(8)
        );
        assert_eq!(
            ScenarioConfig::paper_92day(1.0).duration,
            SimDuration::from_days(92)
        );
        assert!(ScenarioConfig::small().duration < SimDuration::from_days(1));
    }

    #[test]
    fn scale_factors_apply() {
        let a = ScenarioConfig::paper_8day(1.0);
        let b = ScenarioConfig::paper_8day(0.1);
        assert!((a.workload.tasks_per_hour / b.workload.tasks_per_hour - 10.0).abs() < 1e-9);
        assert!(a.background_transfers_per_hour > b.background_transfers_per_hour);
    }

    #[test]
    fn clean_preset_disables_corruption() {
        let c = ScenarioConfig::small_clean();
        assert_eq!(c.corruption.p_drop_transfer, 0.0);
        assert_eq!(c.corruption.p_unknown_site, 0.0);
    }

    #[test]
    fn faults_default_to_inert() {
        assert!(!ScenarioConfig::default().faults.enabled());
        assert!(!ScenarioConfig::paper_8day(1.0).faults.enabled());
        assert!(ScenarioConfig::small_faulty().faults.enabled());
    }

    #[test]
    fn behavior_fingerprint_sees_every_knob_class() {
        let base = ScenarioConfig::small_faulty();
        let fp = base.behavior_fingerprint();
        // Stable for an identical config.
        assert_eq!(fp, base.behavior_fingerprint());
        // Sensitive to fault rates, breaker settings, retry budget, seed.
        let mut c = base.clone();
        c.faults.p_attempt_failure += 0.01;
        assert_ne!(fp, c.behavior_fingerprint(), "fault rate missed");
        let mut c = base.clone();
        c.health = dmsa_gridnet::HealthConfig::adaptive();
        assert_ne!(fp, c.behavior_fingerprint(), "breaker arming missed");
        let mut c = ScenarioConfig::faulty_adaptive();
        let fp_a = c.behavior_fingerprint();
        c.health.cooldown += SimDuration::from_secs(1);
        assert_ne!(fp_a, c.behavior_fingerprint(), "breaker cooldown missed");
        let mut c = base.clone();
        c.retry.max_retries += 1;
        assert_ne!(fp, c.behavior_fingerprint(), "retry budget missed");
        let mut c = base.clone();
        c.seed += 1;
        assert_ne!(fp, c.behavior_fingerprint(), "seed missed");
    }

    #[test]
    fn structural_fingerprint_ignores_forkable_knobs() {
        let base = ScenarioConfig::small_faulty();
        let fp = base.structural_fingerprint();
        // Forkable knobs leave it alone...
        let mut c = base.clone();
        c.faults.p_attempt_failure += 0.05;
        c.health = dmsa_gridnet::HealthConfig::adaptive();
        c.retry.max_retries += 3;
        assert_eq!(fp, c.structural_fingerprint());
        // ...seed and topology do not.
        let mut c = base.clone();
        c.seed += 1;
        assert_ne!(fp, c.structural_fingerprint());
        let mut c = base.clone();
        c.topology = TopologyConfig::default();
        assert_ne!(fp, c.structural_fingerprint());
    }

    #[test]
    fn health_defaults_to_disabled() {
        // The serde default (what a pre-health config deserializes to)
        // must be the inert monitor, and only the adaptive preset arms it.
        assert!(!dmsa_gridnet::HealthConfig::default().enabled);
        assert!(!ScenarioConfig::default().health.enabled);
        assert!(!ScenarioConfig::small_faulty().health.enabled);
        let adaptive = ScenarioConfig::faulty_adaptive();
        assert!(adaptive.health.enabled);
        assert!(adaptive.faults.enabled());
    }
}
