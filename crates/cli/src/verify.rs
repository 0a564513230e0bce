//! `dmsa verify <dir>` — offline integrity audit of everything a run
//! leaves on disk.
//!
//! Chaos drills ([`crate::vfs`]) deliberately tear, truncate, and corrupt
//! artifacts; this module is the other half of that bargain: walk a
//! directory, recognise each artifact by *content* (not just extension),
//! and validate it as deeply as its format allows:
//!
//! - **Checkpoints** (`*.dmsa`): frame magic, version, declared length,
//!   CRC32 — then the snapshot payload's layout version via
//!   [`dmsa_scenario::snapshot::peek_version`].
//! - **Sweep journals** (`*.dmsaj`): header frame + per-record replay
//!   via [`crate::journal`]. A torn tail is *not* corruption — it is the
//!   format's crash model, and `dmsa sweep --resume` salvages the
//!   prefix — but an unreadable header is.
//! - **Campaign exports** (JSON with `version` + `config`): loaded once,
//!   by the lenient loader; any quarantined record is a corruption.
//! - **Sweep summaries** (`schema: dmsa-sweep-summary-v2`): schema tag,
//!   cell-count consistency, and that every cell export the summary
//!   references actually exists next to it. The `sweep_ops.json`
//!   sidecar (`schema: dmsa-sweep-ops-v1`) gets a shape check; any
//!   other schema value is version skew, reported as corrupt.
//! - **Match sets** (JSON with `method` + `jobs`): re-parsed through the
//!   same strict loader `dmsa analyze` uses.
//!
//! JSON artifacts are classified from their top-level keys: one
//! validating walk of the document that builds only the `schema` value,
//! so a syntax error anywhere is reported as unparseable JSON before any
//! auditor runs.
//!
//! Anything else is listed as skipped, never silently ignored: an auditor
//! that skips quietly is how torn artifacts survive.

use crate::checkpoint;
use crate::export::CampaignExport;
use crate::json;
use crate::run::matchset_from_json;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// What the auditor decided about one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileVerdict {
    /// Artifact recognised and fully valid.
    Ok { kind: &'static str, detail: String },
    /// Artifact recognised but damaged — the audit failure case.
    Corrupt { kind: &'static str, reason: String },
    /// Not an artifact this auditor knows (temp files, logs, …).
    Skipped { reason: String },
}

/// Audit result for one file.
#[derive(Debug, Clone)]
pub struct FileReport {
    pub path: PathBuf,
    pub verdict: FileVerdict,
}

/// Everything `dmsa verify` learned about a directory.
#[derive(Debug, Clone, Default)]
pub struct VerifyOutcome {
    pub reports: Vec<FileReport>,
}

impl VerifyOutcome {
    pub fn ok_count(&self) -> usize {
        self.count(|v| matches!(v, FileVerdict::Ok { .. }))
    }
    pub fn corrupt_count(&self) -> usize {
        self.count(|v| matches!(v, FileVerdict::Corrupt { .. }))
    }
    pub fn skipped_count(&self) -> usize {
        self.count(|v| matches!(v, FileVerdict::Skipped { .. }))
    }
    fn count(&self, pred: impl Fn(&FileVerdict) -> bool) -> usize {
        self.reports.iter().filter(|r| pred(&r.verdict)).count()
    }
    /// The audit passes only if nothing recognised was corrupt.
    pub fn clean(&self) -> bool {
        self.corrupt_count() == 0
    }
}

impl fmt::Display for VerifyOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.reports {
            let name = r.path.display();
            match &r.verdict {
                FileVerdict::Ok { kind, detail } => {
                    writeln!(f, "  ok       {name} [{kind}] {detail}")?
                }
                FileVerdict::Corrupt { kind, reason } => {
                    writeln!(f, "  CORRUPT  {name} [{kind}] {reason}")?
                }
                FileVerdict::Skipped { reason } => writeln!(f, "  skipped  {name} ({reason})")?,
            }
        }
        writeln!(
            f,
            "verify: {} ok, {} corrupt, {} skipped",
            self.ok_count(),
            self.corrupt_count(),
            self.skipped_count()
        )
    }
}

/// Walk `dir` (one level — artifact directories are flat) and audit every
/// file, in sorted order so the report is stable for diffing. A path to
/// a single file audits that file alone.
pub fn verify_dir(dir: &Path) -> Result<VerifyOutcome, String> {
    if dir.is_file() {
        let path = dir.to_path_buf();
        let verdict = verify_file(&path);
        return Ok(VerifyOutcome {
            reports: vec![FileReport { path, verdict }],
        });
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    entries.sort();
    let mut out = VerifyOutcome::default();
    for path in entries {
        let verdict = verify_file(&path);
        out.reports.push(FileReport { path, verdict });
    }
    Ok(out)
}

/// Audit a single file, classifying it by content.
pub fn verify_file(path: &Path) -> FileVerdict {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or_default();
    if name.starts_with('.') {
        return FileVerdict::Skipped {
            reason: "hidden/temp file".into(),
        };
    }
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            return FileVerdict::Corrupt {
                kind: "unreadable",
                reason: format!("cannot read: {e}"),
            }
        }
    };
    if name.ends_with(".dmsaj") {
        return verify_journal(&bytes);
    }
    if name.ends_with(".dmsa") {
        return verify_checkpoint(&bytes);
    }
    // Everything else the toolchain writes is JSON; classify by shape.
    let text = match std::str::from_utf8(&bytes) {
        Ok(t) => t,
        Err(e) => {
            return FileVerdict::Corrupt {
                kind: "json",
                reason: format!("not UTF-8: {e}"),
            }
        }
    };
    let shape = match Shape::read(text) {
        Ok(shape) => shape,
        Err(e) => return unparseable(&e),
    };
    if let Some(schema) = shape.schema.as_ref().and_then(|v| v.as_str()) {
        let doc = match json::parse(text) {
            Ok(doc) => doc,
            Err(e) => return unparseable(&e),
        };
        return match schema {
            crate::sweep::SWEEP_SCHEMA => verify_sweep_summary(path, &doc),
            crate::sweep::OPS_SCHEMA => verify_sweep_ops(&doc),
            other => FileVerdict::Corrupt {
                kind: "sweep-summary",
                reason: format!(
                    "schema {other:?} found, expected {:?} or {:?} (version skew)",
                    crate::sweep::SWEEP_SCHEMA,
                    crate::sweep::OPS_SCHEMA
                ),
            },
        };
    }
    if shape.schema.is_some() {
        return FileVerdict::Corrupt {
            kind: "sweep-summary",
            reason: "schema tag present but not a string".into(),
        };
    }
    if shape.method {
        return verify_matchset(text);
    }
    if shape.version && shape.config {
        return verify_campaign(text);
    }
    FileVerdict::Skipped {
        reason: "JSON object of unknown shape".into(),
    }
}

fn unparseable(e: &json::ParseError) -> FileVerdict {
    FileVerdict::Corrupt {
        kind: "json",
        reason: format!("unparseable JSON: {e}"),
    }
}

/// What classifying a JSON artifact needs: which top-level keys it has,
/// and the `schema` value. Reading it validates the whole document, but
/// builds nothing else, so a campaign export is decoded only once, by
/// the lenient loader that audits it.
#[derive(Default)]
struct Shape {
    schema: Option<json::Json>,
    method: bool,
    version: bool,
    config: bool,
}

impl Shape {
    fn read(text: &str) -> Result<Shape, json::ParseError> {
        let mut shape = Shape::default();
        let mut r = json::Reader::new(text);
        r.skip_ws();
        let walked = if r.peek() == Some(b'{') {
            r.each_field(|r, key| {
                match &*key {
                    "schema" => {
                        shape.schema = Some(r.tree()?);
                        return Ok(());
                    }
                    "method" => shape.method = true,
                    "version" => shape.version = true,
                    "config" => shape.config = true,
                    _ => {}
                }
                r.skip()
            })
        } else {
            r.skip()
        };
        walked.and_then(|()| r.finish()).map_err(|e| *e)?;
        Ok(shape)
    }
}

fn verify_checkpoint(bytes: &[u8]) -> FileVerdict {
    let payload = match checkpoint::unframe(bytes) {
        Ok(p) => p,
        Err(e) => {
            return FileVerdict::Corrupt {
                kind: "checkpoint",
                reason: e,
            }
        }
    };
    // The frame is sound; now check the snapshot payload's own layout.
    match dmsa_scenario::snapshot::peek_version(payload) {
        Ok(v) if v == dmsa_scenario::snapshot::SNAPSHOT_VERSION => FileVerdict::Ok {
            kind: "checkpoint",
            detail: format!("{} payload bytes, snapshot v{v}", payload.len()),
        },
        Ok(v) => FileVerdict::Corrupt {
            kind: "checkpoint",
            reason: format!(
                "snapshot layout version {v} found, supported {}",
                dmsa_scenario::snapshot::SNAPSHOT_VERSION
            ),
        },
        Err(e) => FileVerdict::Corrupt {
            kind: "checkpoint",
            reason: format!("frame ok but payload damaged: {e}"),
        },
    }
}

/// Replay a sweep journal. The intact prefix is what `--resume` would
/// adopt, so the verdict mirrors resume's ladder: an unreadable header
/// frame is corruption (nothing salvageable), while a torn tail after a
/// valid prefix is reported in the detail but still audits Ok.
fn verify_journal(bytes: &[u8]) -> FileVerdict {
    match crate::journal::replay(bytes) {
        Ok(replay) => {
            let completed = replay
                .records
                .iter()
                .filter(|r| matches!(r, crate::journal::Record::Completed { .. }))
                .count();
            let detail = match &replay.torn_tail {
                None => format!(
                    "{} records ({} completed), {} frames",
                    replay.records.len(),
                    completed,
                    replay.frames_ok
                ),
                Some(t) => format!(
                    "{} records ({} completed) salvaged before torn tail ({t}); resumable",
                    replay.records.len(),
                    completed
                ),
            };
            FileVerdict::Ok {
                kind: "sweep-journal",
                detail,
            }
        }
        Err(e) => FileVerdict::Corrupt {
            kind: "sweep-journal",
            reason: e,
        },
    }
}

fn verify_sweep_ops(doc: &json::Json) -> FileVerdict {
    let cells = match doc.get("cells").and_then(|v| v.as_arr()) {
        Some(c) => c,
        None => {
            return FileVerdict::Corrupt {
                kind: "sweep-ops",
                reason: "missing cells array".into(),
            }
        }
    };
    match doc.get("jobs").and_then(|v| v.as_u64()) {
        Some(_) => FileVerdict::Ok {
            kind: "sweep-ops",
            detail: format!("{} cells", cells.len()),
        },
        None => FileVerdict::Corrupt {
            kind: "sweep-ops",
            reason: "missing jobs".into(),
        },
    }
}

fn verify_campaign(text: &str) -> FileVerdict {
    match CampaignExport::from_json_lenient(text) {
        Ok(loaded) => {
            if loaded.quarantine.is_empty() {
                let store = &loaded.export.store;
                FileVerdict::Ok {
                    kind: "campaign",
                    detail: format!(
                        "{} jobs, {} files, {} transfers",
                        store.jobs.len(),
                        store.files.len(),
                        store.transfers.len()
                    ),
                }
            } else {
                FileVerdict::Corrupt {
                    kind: "campaign",
                    reason: format!(
                        "{} quarantined records ({})",
                        loaded.quarantine.total(),
                        loaded.quarantine.one_line()
                    ),
                }
            }
        }
        Err(e) => FileVerdict::Corrupt {
            kind: "campaign",
            reason: e,
        },
    }
}

fn verify_sweep_summary(path: &Path, doc: &json::Json) -> FileVerdict {
    let cells = match doc.get("cells").and_then(|v| v.as_arr()) {
        Some(c) => c,
        None => {
            return FileVerdict::Corrupt {
                kind: "sweep-summary",
                reason: "missing cells array".into(),
            }
        }
    };
    match doc.get("n_cells").and_then(|v| v.as_u64()) {
        Some(n) if n as usize == cells.len() => {}
        Some(n) => {
            return FileVerdict::Corrupt {
                kind: "sweep-summary",
                reason: format!("n_cells {n} but {} cells listed", cells.len()),
            }
        }
        None => {
            return FileVerdict::Corrupt {
                kind: "sweep-summary",
                reason: "missing n_cells".into(),
            }
        }
    }
    // Every export the summary references must still exist beside it;
    // failed cells must carry a structured error, never a bare null.
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let mut problems = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let ok = cell.get("ok").and_then(|v| v.as_bool());
        match ok {
            Some(true) => {
                if let Some(file) = cell.get("export").and_then(|v| v.as_str()) {
                    if !dir.join(file).is_file() {
                        problems.push(format!("cell {i}: export {file} missing"));
                    }
                }
            }
            Some(false) => {
                let has_reason = cell
                    .get("error")
                    .and_then(|v| v.as_str())
                    .is_some_and(|e| !e.is_empty());
                if !has_reason {
                    problems.push(format!("cell {i}: failed without a structured error"));
                }
            }
            None => problems.push(format!("cell {i}: missing ok flag")),
        }
    }
    if !problems.is_empty() {
        return FileVerdict::Corrupt {
            kind: "sweep-summary",
            reason: problems.join("; "),
        };
    }
    FileVerdict::Ok {
        kind: "sweep-summary",
        detail: format!("{} cells", cells.len()),
    }
}

fn verify_matchset(text: &str) -> FileVerdict {
    match matchset_from_json(text) {
        Ok(set) => FileVerdict::Ok {
            kind: "matchset",
            detail: format!("{} matched jobs", set.jobs.len()),
        },
        Err(e) => FileVerdict::Corrupt {
            kind: "matchset",
            reason: e,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::frame;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dmsa-verify-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn clean_checkpoint_passes_and_bitflip_fails() {
        let dir = scratch("ckpt");
        let config = crate::run::preset_config("8day", 0.01, 7).unwrap();
        let snap = dmsa_scenario::SharedPrefix::new(
            &config,
            dmsa_simcore::SimTime::EPOCH + dmsa_simcore::SimDuration::from_hours(1),
            None,
        )
        .unwrap()
        .encode();
        fs::write(dir.join("good.dmsa"), frame(&snap)).unwrap();
        let mut bad = frame(&snap);
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        fs::write(dir.join("bad.dmsa"), bad).unwrap();

        let outcome = verify_dir(&dir).unwrap();
        assert_eq!(outcome.ok_count(), 1);
        assert_eq!(outcome.corrupt_count(), 1);
        assert!(!outcome.clean());
        let report = outcome.to_string();
        assert!(report.contains("CORRUPT"), "{report}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_checkpoint_and_unknown_files_classified() {
        let dir = scratch("mixed");
        fs::write(dir.join("torn.dmsa"), b"DMSACKPT\x01\x00").unwrap();
        fs::write(dir.join("notes.txt"), b"not json at all").unwrap();
        fs::write(dir.join("other.json"), b"{\"hello\":1}").unwrap();
        let outcome = verify_dir(&dir).unwrap();
        assert_eq!(outcome.corrupt_count(), 2, "{outcome}"); // torn + non-JSON text
        assert_eq!(outcome.skipped_count(), 1); // unknown JSON shape
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journals_audit_ok_torn_tails_note_and_skewed_schemas_fail() {
        use crate::journal::{self, Header, Record, SweepJournal};
        let dir = scratch("journal");
        let j = SweepJournal::create(
            &dir,
            &Header {
                grid_fingerprint: 7,
                n_cells: 1,
                warm_start_at_ms: None,
            },
        )
        .unwrap();
        j.append(&Record::Dispatched { label: "a".into() }).unwrap();
        drop(j);
        // Ops sidecar and a version-skewed summary next to it.
        fs::write(
            dir.join("sweep_ops.json"),
            format!(
                "{{\"schema\":\"{}\",\"jobs\":2,\"cells\":[]}}",
                crate::sweep::OPS_SCHEMA
            ),
        )
        .unwrap();
        fs::write(
            dir.join("old_summary.json"),
            "{\"schema\":\"dmsa-sweep-summary-v1\",\"cells\":[]}",
        )
        .unwrap();
        let outcome = verify_dir(&dir).unwrap();
        assert_eq!(outcome.ok_count(), 2, "{outcome}"); // journal + ops
        assert_eq!(outcome.corrupt_count(), 1, "{outcome}"); // v1 schema skew
        let report = outcome.to_string();
        assert!(report.contains("sweep-journal"), "{report}");
        assert!(report.contains("version skew"), "{report}");

        // Tear the journal's tail: still Ok (resumable), noted as such.
        let path = journal::SweepJournal::path_in(&dir);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let torn = verify_file(&path);
        match torn {
            FileVerdict::Ok { kind, detail } => {
                assert_eq!(kind, "sweep-journal");
                assert!(detail.contains("resumable"), "{detail}");
            }
            other => panic!("torn tail must stay auditable: {other:?}"),
        }
        // Destroy the header frame: nothing salvageable → corrupt.
        fs::write(&path, b"ruined").unwrap();
        assert!(matches!(
            verify_file(&path),
            FileVerdict::Corrupt {
                kind: "sweep-journal",
                ..
            }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn campaign_and_matchset_round_trip_verify() {
        let dir = scratch("camp");
        let config = crate::run::preset_config("8day", 0.01, 3).unwrap();
        let campaign = dmsa_scenario::run(&config);
        let export = CampaignExport::from_campaign(&campaign);
        fs::write(dir.join("campaign.json"), export.to_json()).unwrap();
        let outcome = verify_dir(&dir).unwrap();
        assert_eq!(outcome.corrupt_count(), 0, "{outcome}");
        assert_eq!(outcome.ok_count(), 1);

        // A single file audits alone, with the same verdict.
        let alone = verify_dir(&dir.join("campaign.json")).unwrap();
        assert_eq!(alone.reports.len(), 1);
        assert_eq!(alone.reports[0].verdict, outcome.reports[0].verdict);

        // Damage inside the records: a syntax error is unparseable JSON,
        // a bad record is a quarantine.
        let text = export.to_json();
        let torn = text.replacen("\"jobs\":[[", "\"jobs\":[[,", 1);
        fs::write(dir.join("campaign.json"), &torn).unwrap();
        let want = format!("unparseable JSON: {}", json::parse(&torn).unwrap_err());
        match verify_file(&dir.join("campaign.json")) {
            FileVerdict::Corrupt { kind, reason } => {
                assert_eq!((kind, reason), ("json", want));
            }
            other => panic!("torn export audited as {other:?}"),
        }
        let skewed = text.replacen("\"jobs\":[", "\"jobs\":[[1,2],", 1);
        fs::write(dir.join("campaign.json"), &skewed).unwrap();
        assert_eq!(
            verify_file(&dir.join("campaign.json")),
            FileVerdict::Corrupt {
                kind: "campaign",
                reason: "1 quarantined records (bad-utf8 0, out-of-range-time 0, \
                         unknown-site-sym 0, version-skew 0, malformed 1)"
                    .into(),
            }
        );

        // Now plant a subtle corruption: truncate the tail.
        fs::write(dir.join("campaign.json"), &text).unwrap();
        let text = fs::read_to_string(dir.join("campaign.json")).unwrap();
        fs::write(dir.join("campaign.json"), &text[..text.len() - 20]).unwrap();
        let outcome = verify_dir(&dir).unwrap();
        assert_eq!(outcome.corrupt_count(), 1, "{outcome}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
