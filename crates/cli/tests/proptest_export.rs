//! Property tests for the JSON reader and the campaign export loader.
//!
//! Both face untrusted bytes: serve request lines, and exports that a
//! disk, a network copy or a newer writer may have damaged. Four
//! properties must hold:
//!
//! - `json::parse` never panics, on arbitrary bytes or on adversarial
//!   nesting around `MAX_DEPTH`, and returns exactly what the reference
//!   tree parser returns (value, or error with line and column);
//! - writing a campaign and strictly loading it back is the identity;
//! - a damaged export (bit flips, truncation, duplicate keys, a nested
//!   or wrong-typed value in a record field, reordered sections) never
//!   panics the lenient loader;
//! - and the streaming loader returns exactly what the reference
//!   tree-based loader returns: the same error string, or an export with
//!   the same bytes and the same quarantine report.
//!
//! The reference parser and loader live in `src/export/oracle.rs`,
//! compiled here by path against the crate's public items.

use dmsa_cli::export::{
    parse_config, CampaignExport, LoadedExport, QuarantineReport, FORMAT_VERSION,
};
use dmsa_cli::json::{self, MAX_DEPTH};
use dmsa_scenario::ScenarioConfig;
use dmsa_simcore::SimDuration;
use proptest::prelude::*;
use std::sync::OnceLock;

#[path = "../src/export/oracle.rs"]
mod oracle;

/// The streaming loader agrees with the reference loader on `src`.
fn agrees_with_oracle(src: &str) -> Result<(), String> {
    match (
        CampaignExport::from_json_lenient(src),
        oracle::from_json_lenient(src),
    ) {
        (Err(new), Err(old)) => prop_assert_eq!(new, old),
        (Ok(new), Ok(old)) => {
            prop_assert_eq!(&new.quarantine, &old.quarantine);
            prop_assert_eq!(new.quarantine.render(), old.quarantine.render());
            prop_assert_eq!(new.export.to_json(), old.export.to_json());
        }
        (new, old) => {
            return Err(format!(
                "loaders disagree: streaming {:?}, oracle {:?}",
                new.err(),
                old.err()
            ))
        }
    }
    Ok(())
}

/// A small campaign: a few hours of a small grid.
fn tiny(mut c: ScenarioConfig, seed: u64, hours: i64) -> ScenarioConfig {
    c.seed = seed;
    c.duration = SimDuration::from_hours(hours);
    c.workload.tasks_per_hour = 10.0;
    c.background_transfers_per_hour = 50.0;
    c.initial_datasets = 20;
    c
}

/// Real exports to damage: a clean one, and one with breaker telemetry
/// (so the `health` section has episodes).
fn base_exports() -> &'static [String; 2] {
    static BASE: OnceLock<[String; 2]> = OnceLock::new();
    BASE.get_or_init(|| {
        [ScenarioConfig::small(), ScenarioConfig::faulty_adaptive()].map(|c| {
            let campaign = dmsa_scenario::run(&tiny(c, 11, 3));
            CampaignExport::from_campaign(&campaign).to_json()
        })
    })
}

/// Split a top-level object into its `"key":value` members, as source
/// text, by tracking bracket depth outside strings.
fn top_level_members(doc: &str) -> Vec<&str> {
    let bytes = doc.as_bytes();
    let (mut depth, mut in_str, mut escaped) = (0i64, false, false);
    let mut members = Vec::new();
    let mut start = 1;
    for (i, &b) in bytes.iter().enumerate() {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'[' | b'{' => depth += 1,
            b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    members.push(&doc[start..i]);
                }
            }
            b',' if depth == 1 => {
                members.push(&doc[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    members
}

/// Byte range of one field among the first records of `section`: the
/// `nth` value that starts a record's first field or follows a comma
/// inside a record. Damage lands on a few records, so one record often
/// takes several hits and the order of its checks is exercised.
fn record_field(doc: &str, section: &str, nth: usize) -> Option<(usize, usize)> {
    let from = doc.find(&format!("\"{section}\":[["))? + section.len() + 5;
    let starts: Vec<usize> = std::iter::once(from)
        .chain(
            doc[from..]
                .match_indices(',')
                .take(64)
                .map(|(i, _)| from + i + 1),
        )
        .filter(|&at| !doc[..at].ends_with("],"))
        .collect();
    let at = starts[nth % starts.len()];
    let len = doc[at..].find([',', ']'])?;
    Some((at, at + len))
}

const SECTIONS: [&str; 3] = ["jobs", "files", "transfers"];

/// One way to damage an export.
fn damage(doc: &str, op: u8, a: usize, b: usize) -> Option<String> {
    let bytes = doc.as_bytes();
    if doc.is_empty() {
        return None;
    }
    match op {
        // Flip one bit; the reader sees the bytes lossily decoded, as the
        // CLI reads a file that is not valid UTF-8.
        0 => {
            let mut bytes = bytes.to_vec();
            bytes[a % doc.len()] ^= 1 << (b % 8);
            Some(String::from_utf8_lossy(&bytes).into_owned())
        }
        // Truncate at any byte.
        1 => Some(String::from_utf8_lossy(&bytes[..a % (doc.len() + 1)]).into_owned()),
        // Splice a duplicate of an object's first key into that object.
        2 => {
            let opens: Vec<usize> = doc.match_indices("{\"").map(|(i, _)| i).collect();
            let at = *opens.get(a % opens.len().max(1))? + 1;
            let key_len = doc[at + 1..].find('"')? + 2;
            Some(format!(
                "{}{}:0,{}",
                &doc[..at],
                &doc[at..at + key_len],
                &doc[at..]
            ))
        }
        // A nested value, or a scalar of the wrong type or range, where
        // a record has a field.
        3 | 4 => {
            let (start, end) = record_field(doc, SECTIONS[b % 3], a)?;
            let value = if op == 3 {
                ["[]", "[1,2]", "{\"a\":[null]}", "{}"][b / 3 % 4]
            } else {
                [
                    "-1",
                    "1.5",
                    "\"x\"",
                    "null",
                    "true",
                    "4294967296",
                    "0",
                    "1e3",
                    "-0",
                    "\"stage_in\"",
                    "9007199254740993",
                    "\"\\u0041\"",
                ][b / 3 % 12]
            };
            Some(format!("{}{value}{}", &doc[..start], &doc[end..]))
        }
        // Swap two top-level sections.
        5 => {
            let mut members = top_level_members(doc);
            let n = members.len();
            if n == 0 {
                return None;
            }
            members.swap(a % n, b % n);
            Some(format!("{{{}}}", members.join(",")))
        }
        _ => unreachable!("six kinds of damage"),
    }
}

/// JSON-ish bytes: mostly structural characters, digits, keywords and
/// escapes, plus multi-byte and control characters.
fn jsonish(picks: &[u8]) -> String {
    const ALPHABET: [&str; 32] = [
        "[", "]", "{", "}", "\"", ",", ":", " ", "\n", "0", "7", "-", ".", "e", "true", "false",
        "null", "\\", "\\u", "d83d", "ude00", "a", "é", "世", "\u{1}", "\t", "1e999", "\"k\":",
        "[1,2]", "\"s\"", "+", "x",
    ];
    picks.iter().map(|&p| ALPHABET[p as usize % 32]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_never_panics_and_matches_the_reference_parser(
        bytes in prop::collection::vec(any::<u8>(), 0..120),
        picks in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        let raw = String::from_utf8_lossy(&bytes).into_owned();
        prop_assert_eq!(json::parse(&raw), oracle::parse(&raw));
        let text = jsonish(&picks);
        prop_assert_eq!(json::parse(&text), oracle::parse(&text), "{:?}", text);
    }

    #[test]
    fn adversarial_nesting_never_panics_and_matches_the_reference_parser(
        depth in (MAX_DEPTH - 4)..(MAX_DEPTH + 4),
        openers in prop::collection::vec(any::<bool>(), MAX_DEPTH + 4..MAX_DEPTH + 5),
        closed in any::<bool>(),
        tail in prop::collection::vec(any::<u8>(), 0..6),
    ) {
        let mut text = String::new();
        for &array in &openers[..depth] {
            text.push_str(if array { "[" } else { "{\"k\":" });
        }
        text.push('1');
        if closed {
            for &array in openers[..depth].iter().rev() {
                text.push(if array { ']' } else { '}' });
            }
        }
        text.push_str(&jsonish(&tail));
        prop_assert_eq!(json::parse(&text), oracle::parse(&text));
        let export = format!("{{\"version\":1,\"jobs\":{text}}}");
        agrees_with_oracle(&export)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn write_then_strict_load_is_the_identity(
        seed in prop_oneof![0u64..1 << 53, any::<u64>()],
        preset in 0u8..3,
        hours in 1i64..4,
        p_fail in 0.0f64..0.4,
        breaker_threshold in 0.1f64..0.9,
    ) {
        let mut config = tiny(
            [ScenarioConfig::small(), ScenarioConfig::small_faulty(), ScenarioConfig::faulty_adaptive()]
                [preset as usize]
                .clone(),
            seed,
            hours,
        );
        config.faults.p_attempt_failure = p_fail;
        config.health.failure_rate_threshold = breaker_threshold;
        let campaign = dmsa_scenario::run(&config);
        let json = CampaignExport::from_campaign(&campaign).to_json();
        agrees_with_oracle(&json)?;
        if seed > 1 << 53 {
            // Known limitation, open on the roadmap: the reader holds
            // numbers as f64, so a seed above 2^53 does not load back.
            // Pinned here so that fixing it shows up in this test.
            let err = CampaignExport::from_json(&json)
                .err()
                .ok_or("a seed above 2^53 loaded back")?;
            prop_assert!(err.starts_with("config \"seed\" is not an unsigned integer"), "{}", err);
            return Ok(());
        }
        let back = CampaignExport::from_json(&json).map_err(|e| format!("strict load: {e}"))?;
        prop_assert_eq!(back.version, FORMAT_VERSION);
        prop_assert!(back.store == campaign.store, "store differs after the round trip");
        prop_assert_eq!(back.window, campaign.window);
        prop_assert_eq!(back.path_stats, campaign.path_stats);
        prop_assert_eq!(back.to_json(), json.clone());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn damaged_exports_load_exactly_like_the_reference_loader(
        which in 0usize..2,
        ops in prop::collection::vec((0u8..6, any::<usize>(), any::<usize>()), 1..7),
    ) {
        let mut doc = base_exports()[which].clone();
        for (op, a, b) in ops {
            if let Some(damaged) = damage(&doc, op, a, b) {
                doc = damaged;
            }
        }
        agrees_with_oracle(&doc)?;
    }
}

#[test]
fn every_field_of_the_first_records_nested_loads_like_the_reference_loader() {
    for doc in base_exports() {
        for section in SECTIONS {
            for nth in 0..64 {
                let (start, end) = record_field(doc, section, nth).unwrap();
                let damaged = format!("{}[0]{}", &doc[..start], &doc[end..]);
                agrees_with_oracle(&damaged).unwrap();
            }
        }
    }
}

/// Records that each quarantine, under every kind, per record section.
const BAD_RECORDS: [(&str, [&str; 3]); 3] = [
    (
        "jobs",
        [
            "[1,2,3]",
            "[1,1,999999,0,0,1,0,0,\"stage_in\",\"finished\",\"done\",null,true]",
            "[1,1,0,0,0,1,0,0,\"stage_in\",\"finish\u{FFFD}d\",\"done\",null,true]",
        ],
    ),
    (
        "files",
        [
            "7",
            "[1,2,3,4,5,6,7,\"sideways\"]",
            "[1,2,3,4,5,6,7,\"input\",8]",
        ],
    ),
    (
        "transfers",
        [
            "[1,0,0,0,0,10,500,100,0,0,\"analysis_upload\",null,false,true,1,true,null,0,0,10]",
            "[1,0,0,0,0,10,100,500,0,0,\"quantum\",null,false,true,1,true,null,0,0,10]",
            "{\"a\":1}",
        ],
    ),
];

/// Rebuild `doc` with its top-level members in the order `keys` gives
/// (members not named keep their place after them), putting `n_bad`
/// quarantining records at the head of each record section and of
/// `valid_sites`.
fn reordered_and_damaged(doc: &str, keys: &[&str], n_bad: usize) -> String {
    let mut members: Vec<String> = top_level_members(doc)
        .into_iter()
        .map(str::to_string)
        .collect();
    for m in &mut members {
        let bad: Vec<&str> = if m.starts_with("\"valid_sites\":[") {
            vec!["999999", "\"x\"", "-1"]
        } else {
            match BAD_RECORDS
                .iter()
                .find(|(k, _)| m.starts_with(&format!("\"{k}\":[")))
            {
                Some((_, records)) => records.to_vec(),
                None => continue,
            }
        };
        let at = m.find('[').unwrap() + 1;
        let sep = if m[at..].starts_with(']') { "" } else { "," };
        let head = bad
            .iter()
            .cycle()
            .take(n_bad)
            .copied()
            .collect::<Vec<_>>()
            .join(",");
        if !head.is_empty() {
            m.insert_str(at, &format!("{head}{sep}"));
        }
    }
    let rank = |m: &String| {
        keys.iter()
            .position(|k| m.starts_with(&format!("\"{k}\":")))
            .unwrap_or(keys.len())
    };
    members.sort_by_key(rank);
    format!("{{{}}}", members.join(","))
}

#[test]
fn record_sections_before_symbols_load_like_the_reference_loader() {
    // Sections before `symbols` are decoded after the scan, the rest as
    // the scan reaches them; quarantines in both, more than eight in
    // all, must merge into the reference loader's counts and examples.
    for doc in base_exports() {
        for keys in [
            &["files", "version", "config", "window", "symbols"][..],
            &["transfers", "jobs", "symbols"],
            &["jobs", "files", "transfers", "valid_sites", "symbols"],
            &["health", "symbols", "transfers", "valid_sites"],
        ] {
            for n_bad in [0, 1, 3, 5] {
                let damaged = reordered_and_damaged(doc, keys, n_bad);
                agrees_with_oracle(&damaged).unwrap();
                if n_bad == 3 {
                    let q = CampaignExport::from_json_lenient(&damaged)
                        .unwrap()
                        .quarantine;
                    assert_eq!(q.total(), 12, "{q:?}");
                    assert_eq!(q.examples.len(), 8);
                    assert!(q.examples[0].starts_with("valid_sites[0]"), "{q:?}");
                    assert!(q.examples[3].starts_with("jobs[0]"), "{q:?}");
                    assert!(q.examples[6].starts_with("files[0]"), "{q:?}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_section_order_with_damage_loads_like_the_reference_loader(
        which in 0usize..2,
        swaps in prop::collection::vec((any::<usize>(), any::<usize>()), 0..8),
        n_bad in 0usize..6,
    ) {
        let mut keys = vec![
            "version", "config", "window", "symbols", "valid_sites", "jobs", "files",
            "transfers", "path_stats", "health",
        ];
        for (a, b) in swaps {
            let n = keys.len();
            keys.swap(a % n, b % n);
        }
        agrees_with_oracle(&reordered_and_damaged(&base_exports()[which], &keys, n_bad))?;
    }
}
