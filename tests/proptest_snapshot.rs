//! Property: checkpoint/resume is invisible. For random small scenarios —
//! clean, degraded, and degraded-with-adaptive-exclusion — resuming from a
//! snapshot taken mid-campaign produces exactly the job table, transfer
//! log, and health telemetry of the uninterrupted run: `resume(save(t))`
//! is `run-to-end` for every `t` the checkpoint cadence produces.

use dmsa::scenario::{self, snapshot, ScenarioConfig};
use dmsa::simcore::{SimDuration, SimTime};
use proptest::prelude::*;

fn config_for(
    seed: u64,
    hours: i64,
    tasks_per_hour: f64,
    datasets: usize,
    mode: u8,
) -> ScenarioConfig {
    let mut c = match mode % 3 {
        0 => ScenarioConfig::small(),
        1 => ScenarioConfig::small_faulty(),
        _ => ScenarioConfig::faulty_adaptive(),
    };
    c.seed = seed;
    c.duration = SimDuration::from_hours(hours);
    c.workload.tasks_per_hour = tasks_per_hour;
    c.background_transfers_per_hour = 40.0;
    c.initial_datasets = datasets;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn resume_of_saved_snapshot_equals_uninterrupted_run(
        seed in 0u64..1_000_000,
        hours in 2i64..4,
        tasks_per_hour in 6.0f64..14.0,
        datasets in 10usize..25,
        mode in 0u8..3,
        cut_pct in 10usize..90,
    ) {
        let config = config_for(seed, hours, tasks_per_hour, datasets, mode);
        let every = SimDuration::from_millis(
            (hours * 3_600_000).max(1) * cut_pct as i64 / 100,
        );

        // Uninterrupted reference, collecting the snapshot stream.
        let mut snaps: Vec<(SimTime, Vec<u8>)> = Vec::new();
        let full = scenario::run_checkpointed(&config, every, &mut |at, bytes| {
            snaps.push((at, bytes.to_vec()));
            Ok(())
        })
        .unwrap();

        prop_assert!(!snaps.is_empty(), "cadence produced no snapshots");
        for (at, bytes) in &snaps {
            // The snapshot's clock is the last event processed before the
            // cadence boundary, so it sits at or before the boundary time.
            prop_assert!(snapshot::validate(&config, bytes).unwrap() <= *at);
            let resumed =
                scenario::resume_checkpointed(&config, bytes, None, &mut |_, _| Ok(())).unwrap();
            prop_assert_eq!(
                format!("{:?}", resumed.store.jobs),
                format!("{:?}", full.store.jobs),
                "job table diverged resuming from {:?}", at
            );
            prop_assert_eq!(
                format!("{:?}", resumed.store.transfers),
                format!("{:?}", full.store.transfers),
                "transfer log diverged resuming from {:?}", at
            );
            prop_assert_eq!(
                format!("{:?}", resumed.health),
                format!("{:?}", full.health),
                "health summary diverged resuming from {:?}", at
            );
            prop_assert_eq!(resumed.path_stats, full.path_stats);
            prop_assert_eq!(resumed.window, full.window);
        }
    }
}

/// The first checkpoint (at 2 h) of a 6 h campaign under each of the
/// three modes, taken once per test binary.
fn real_snapshot(mode: u8) -> (ScenarioConfig, Vec<u8>) {
    static SNAPS: std::sync::OnceLock<Vec<(ScenarioConfig, Vec<u8>)>> = std::sync::OnceLock::new();
    SNAPS.get_or_init(|| {
        (0..3)
            .map(|m| {
                let config = config_for(7, 6, 10.0, 40, m);
                let mut first = None;
                scenario::run_checkpointed(&config, SimDuration::from_hours(2), &mut |_, b| {
                    first.get_or_insert_with(|| b.to_vec());
                    Ok(())
                })
                .unwrap();
                (config, first.expect("a 6 h run checkpoints at 2 h"))
            })
            .collect()
    })[mode as usize % 3]
        .clone()
}

/// Decode `payload` under `config`, strictly or as a fork, and run it to
/// the end. Whatever it returns, it must return rather than panic.
fn resume_or_refuse(config: &ScenarioConfig, payload: &[u8], fork: bool) {
    let _ = if fork {
        scenario::fork_with_config(config, payload, None, &mut |_, _| Ok(()))
    } else {
        scenario::resume_checkpointed(config, payload, None, &mut |_, _| Ok(()))
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Property: a snapshot payload is untrusted input. The checkpoint
    /// frame's CRC shows the bytes arrived as written, not that the
    /// writer was honest. A real snapshot with 1–3 bits flipped decodes
    /// to a typed error, or to a driver that drains to completion: it
    /// never panics on an id that points past a table.
    #[test]
    fn bit_flipped_snapshot_is_refused_or_drains_cleanly(
        mode in 0u8..3,
        flips in prop::collection::vec(any::<u64>(), 1..4),
        fork in any::<bool>(),
    ) {
        let (config, mut payload) = real_snapshot(mode);
        let bits = payload.len() as u64 * 8;
        for f in flips {
            let bit = f % bits;
            payload[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        resume_or_refuse(&config, &payload, fork);
    }

    /// Property: the same for arbitrary bytes spliced onto a real
    /// snapshot's prefix, so decoding gets past the header into the
    /// tables before the bytes turn hostile.
    #[test]
    fn arbitrary_snapshot_tail_is_refused_or_drains_cleanly(
        mode in 0u8..3,
        cut in any::<u64>(),
        tail in prop::collection::vec(any::<u8>(), 0..2048),
        fork in any::<bool>(),
    ) {
        let (config, snap) = real_snapshot(mode);
        let mut payload = snap[..(cut % snap.len() as u64) as usize].to_vec();
        payload.extend_from_slice(&tail);
        resume_or_refuse(&config, &payload, fork);
    }
}
