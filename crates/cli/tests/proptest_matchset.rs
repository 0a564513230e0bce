//! Property tests for the match-set reader, which `dmsa analyze
//! --matches` and `dmsa verify` feed with files from outside.
//!
//! - `run::matchset_from_json` returns `Ok` or `Err` on arbitrary bytes,
//!   on bit-flipped valid sets and on JSON-ish noise; it never panics;
//! - any set it does decode, analyzed over a small export with any
//!   report, gives `Ok` or a typed `Err` (an index past the store is
//!   refused by name), never a panic.

use dmsa_analysis::render::REPORT_NAMES;
use dmsa_cli::run::{
    analyze, matchset_from_json, matchset_to_json, run_match, EngineChoice, MatcherChoice,
};
use dmsa_cli::CampaignExport;
use dmsa_scenario::ScenarioConfig;
use dmsa_simcore::SimDuration;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A small export, its job and transfer counts, and three real match
/// sets over it (exact, RM1, RM2), each naming a few jobs.
struct Fixture {
    campaign: String,
    n_jobs: u32,
    n_transfers: u32,
    sets: [String; 3],
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut c = ScenarioConfig::small();
        c.seed = 7;
        c.duration = SimDuration::from_hours(3);
        c.workload.tasks_per_hour = 10.0;
        c.background_transfers_per_hour = 50.0;
        c.initial_datasets = 20;
        let run = dmsa_scenario::run(&c);
        let campaign = CampaignExport::campaign_json(&run);
        let sets = [MatcherChoice::Exact, MatcherChoice::Rm1, MatcherChoice::Rm2].map(|m| {
            run_match(&campaign, m, EngineChoice::default())
                .expect("match the fixture")
                .0
        });
        Fixture {
            campaign,
            n_jobs: run.store.jobs.len() as u32,
            n_transfers: run.store.transfers.len() as u32,
            sets,
        }
    })
}

/// Decode `text`; if it decodes, analyze with it. Both must return, and
/// an analysis that fails must say why.
fn decode_and_analyze(text: &str, report: usize) -> Result<(), String> {
    let Ok(set) = matchset_from_json(text) else {
        return Ok(());
    };
    let report = REPORT_NAMES[report % REPORT_NAMES.len()];
    let mut out = Vec::new();
    if let Err(e) = analyze(
        &fixture().campaign,
        Some(text),
        None,
        report,
        false,
        &mut out,
    ) {
        prop_assert!(!e.is_empty(), "an empty error for {:?}", set);
    }
    Ok(())
}

/// JSON-ish bytes: the match-set grammar's pieces, numbers at and past
/// the `u32` edge, and bytes that do not belong.
fn jsonish(picks: &[u8]) -> String {
    const ALPHABET: [&str; 24] = [
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        "\"method\"",
        "\"jobs\"",
        "\"rm2\"",
        "\"exact\"",
        "0",
        "1",
        "7",
        "4294967295",
        "4294967296",
        "-1",
        "1.5",
        "1e9",
        "null",
        "true",
        "\"",
        " ",
        "\\",
        "é",
    ];
    picks.iter().map(|&p| ALPHABET[p as usize % 24]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..160), report in 0usize..5) {
        decode_and_analyze(&String::from_utf8_lossy(&bytes), report)?;
    }

    #[test]
    fn jsonish_noise_never_panics(picks in prop::collection::vec(any::<u8>(), 0..60), report in 0usize..5) {
        decode_and_analyze(&jsonish(&picks), report)?;
        // The same noise inside a well-formed frame reaches the job walk.
        let framed = format!("{{\"method\":\"rm2\",\"jobs\":[{}]}}", jsonish(&picks));
        decode_and_analyze(&framed, report)?;
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bit_flipped_sets_never_panic(
        which in 0usize..3,
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..4),
        report in 0usize..5,
    ) {
        let mut bytes = fixture().sets[which].clone().into_bytes();
        for (at, bit) in flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        decode_and_analyze(&String::from_utf8_lossy(&bytes), report)?;
    }

    /// Most bit flips break the syntax; this reaches the reports with
    /// every index moved: in range, at the store's edge, or far past it.
    #[test]
    fn re_indexed_sets_analyze_or_fail_cleanly(
        which in 0usize..3,
        moves in prop::collection::vec((any::<usize>(), 0u8..4, any::<u32>()), 1..6),
        report in 0usize..5,
    ) {
        let mut set = matchset_from_json(&fixture().sets[which]).map_err(|e| e.to_string())?;
        let (n_jobs, n_transfers) = (fixture().n_jobs, fixture().n_transfers);
        let n_set = set.jobs.len();
        for (at, how, v) in moves {
            let job = &mut set.jobs[at % n_set];
            match how {
                0 => job.job_idx = v % n_jobs,
                1 => job.job_idx = n_jobs + v % 3,
                2 => job.transfers.push(v % (n_transfers + 2)),
                _ => job.transfers.push(v),
            }
        }
        decode_and_analyze(&matchset_to_json(&set), report)?;
    }
}

#[test]
fn the_fixture_sets_decode_and_analyze() {
    let Fixture { campaign, sets, .. } = fixture();
    for set in sets {
        assert!(!matchset_from_json(set).unwrap().jobs.is_empty(), "{set}");
        for report in REPORT_NAMES.iter().filter(|r| **r != "exclusion") {
            analyze(campaign, Some(set), None, report, false, &mut Vec::new()).unwrap();
        }
    }
}
