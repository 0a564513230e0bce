//! # dmsa-scenario
//!
//! The end-to-end campaign driver: wires the PanDA substrate (tasks, jobs,
//! brokerage) to the Rucio substrate (catalog, rules, transfer engine) over
//! one shared discrete-event loop, then flattens the result into the
//! metadata store — corrupted exactly as production telemetry is — ready
//! for the matcher and the analyses.
//!
//! ```text
//!  TopologyConfig ─┐
//!  WorkloadParams ─┤                      ┌─> JobRecords   ─┐
//!  BrokerConfig   ─┼─> [ event loop ] ────┼─> FileRecords  ─┼─> CorruptionModel ─> MetaStore
//!  FailureModel   ─┤   tasks→jobs→        └─> TransferRecords┘        │
//!  CorruptionModel┘   staging→exec→upload                     (gt_* fields kept)
//! ```
//!
//! [`ScenarioConfig`] presets reproduce the paper's observation campaigns
//! at configurable scale: [`ScenarioConfig::paper_8day`] for the §5
//! matching study (966,453 user jobs / 6.78 M transfers at `scale = 1.0`)
//! and [`ScenarioConfig::paper_92day`] for the Fig 3 transfer matrix.

pub mod config;
pub mod driver;
pub mod grid;
pub mod snapshot;

pub use config::ScenarioConfig;
pub use driver::{
    drain, run, run_forked, Campaign, CancelToken, DrainOpts, SharedPrefix, SnapshotSink, Start,
};
pub use grid::{BreakerSetting, GridCell, PresetAxis, SweepGrid};
pub use snapshot::SNAPSHOT_VERSION;
