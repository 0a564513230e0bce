//! The on-disk campaign format.
//!
//! A campaign export carries everything matching and analysis need — the
//! (corrupted) metadata store and the observation window — plus the
//! provenance needed to regenerate it bit-for-bit (the scenario config).
//! The simulator-side state (topology, catalog, bandwidth oracle) is *not*
//! exported: analyses must work from metadata alone, exactly like the
//! paper's.
//!
//! Serialization is hand-rolled over [`crate::json`] so it works in every
//! build environment and, more importantly, so loading can be **hardened**:
//! [`CampaignExport::from_json_lenient`] validates the export section by
//! section and record by record, *quarantining* malformed records instead
//! of failing the whole load. Each quarantined record is counted under an
//! error-taxonomy kind (bad UTF-8, out-of-range time, unknown site symbol,
//! version skew, malformed structure) and the first few are diagnosed with
//! their line/column, so a partially corrupted multi-gigabyte export is
//! still analyzable — and tells you exactly what was dropped.
//! [`CampaignExport::from_json`] is the strict variant: any quarantined
//! record is an error. A file written by a *newer* format version is always
//! rejected outright, with a found-vs-supported message.
//!
//! The loader makes one pass over the source with one `json::Reader`.
//! The small sections (`version`, `config`, `window`, `valid_sites`,
//! `path_stats`, `health`) are built as [`Json`] trees; `symbols` is
//! interned straight into the table as it is read; and each record
//! array (`jobs`, `files`, `transfers`) that comes after `symbols` is
//! decoded as the scanner reaches it, straight into
//! [`JobRecord`]/[`FileRecord`]/[`TransferRecord`]: one record's fields
//! are read into a reused token buffer and checked, with no tree node
//! and no per-field allocation. A record array placed before `symbols`
//! (dmsa never writes one there) is validated where it stands and
//! decoded after the pass by the same routine. Semantic errors are kept
//! until the pass ends and then reported in a fixed order, so every
//! syntax error still wins over every semantic one. Positions are worked
//! out only for the quarantine examples that are kept and for errors.
//!
//! The original tree-then-walk loader survives as a test-only oracle
//! (`export/oracle.rs`): the unit tests and `tests/proptest_export.rs`
//! require both loaders to return the same errors, stores and
//! quarantine reports.

use crate::json::{self, push_i64, push_u64, Json, Reader, Tok};
use dmsa_gridnet::{
    FaultConfig, HealthConfig, HealthCounters, HealthSubject, HealthSummary, OpenEpisode, SiteId,
    TopologyConfig,
};
use dmsa_metastore::{
    CorruptionModel, FileDirection, FileRecord, JobRecord, MetaStore, Sym, SymbolTable,
    TransferRecord,
};
use dmsa_panda_sim::{BrokerConfig, FailureModel, IoMode, JobStatus, TaskStatus, WorkloadParams};
use dmsa_rucio_sim::{Activity, RetryPolicy, TransferPathStats};
use dmsa_scenario::{Campaign, ScenarioConfig};
use dmsa_simcore::interval::Interval;
use dmsa_simcore::{SimDuration, SimTime};
use std::collections::HashSet;

#[cfg(test)]
mod oracle;

/// Per-record widths for [`ExportParts::size_hint`]: the widest record
/// of a paper_8day export (121, 65 and 163 bytes with its comma) plus
/// room for ten-digit times and seven-digit symbol ids.
const JOB_BYTES: usize = 136;
const FILE_BYTES: usize = 80;
const TRANSFER_BYTES: usize = 192;

/// Serializable campaign: metadata + window + provenance.
pub struct CampaignExport {
    /// Format version for forward compatibility.
    pub version: u32,
    /// The scenario that produced this campaign (reproducibility).
    pub config: ScenarioConfig,
    /// Observation window.
    pub window: Interval,
    /// The corrupted metadata store.
    pub store: MetaStore,
    /// Engine transfer-path counters (defaulted when reading pre-health
    /// exports, which keeps the format at version 1).
    pub path_stats: TransferPathStats,
    /// Breaker telemetry, present only when the campaign ran with the
    /// health loop armed.
    pub health: Option<HealthSummary>,
}

/// Current format version.
pub const FORMAT_VERSION: u32 = 1;

/// Why a record was quarantined instead of loaded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// A string field carries U+FFFD — the file's bytes were not valid
    /// UTF-8 and were decoded lossily.
    BadUtf8,
    /// A timestamp is negative or an interval ends before it starts.
    OutOfRangeTime,
    /// An interned-symbol reference points past the symbol table.
    UnknownSiteSym,
    /// An enum string or extra trailing fields this build does not know —
    /// most likely written by a newer tool.
    VersionSkew,
    /// Structurally broken: wrong JSON type, wrong arity, missing value.
    Malformed,
}

/// Most example diagnoses a [`QuarantineReport`] keeps.
const MAX_EXAMPLES: usize = 8;

/// Per-kind counts of quarantined records, plus example diagnoses.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    /// Records with lossily-decoded (invalid UTF-8) string fields.
    pub bad_utf8: u64,
    /// Records with negative times or end-before-start intervals.
    pub out_of_range_time: u64,
    /// Records referencing symbols past the symbol table.
    pub unknown_site_sym: u64,
    /// Records with unknown enum values or extra fields (newer writer).
    pub version_skew: u64,
    /// Records with broken structure (type/arity/missing value).
    pub malformed: u64,
    /// Up to eight example diagnoses with line/column positions.
    pub examples: Vec<String>,
}

impl QuarantineReport {
    /// Count one quarantined record; `example` is only built while fewer
    /// than eight are kept, so counting never pays for a position.
    fn note(&mut self, kind: Kind, example: impl FnOnce() -> String) {
        match kind {
            Kind::BadUtf8 => self.bad_utf8 += 1,
            Kind::OutOfRangeTime => self.out_of_range_time += 1,
            Kind::UnknownSiteSym => self.unknown_site_sym += 1,
            Kind::VersionSkew => self.version_skew += 1,
            Kind::Malformed => self.malformed += 1,
        }
        if self.examples.len() < MAX_EXAMPLES {
            self.examples.push(example());
        }
    }

    /// Add a later section's report: its counts, and its examples while
    /// fewer than eight are kept, so reports merged in section order
    /// equal one report kept across the sections in that order.
    fn absorb(&mut self, later: QuarantineReport) {
        self.bad_utf8 += later.bad_utf8;
        self.out_of_range_time += later.out_of_range_time;
        self.unknown_site_sym += later.unknown_site_sym;
        self.version_skew += later.version_skew;
        self.malformed += later.malformed;
        let room = MAX_EXAMPLES.saturating_sub(self.examples.len());
        self.examples.extend(later.examples.into_iter().take(room));
    }

    /// Total quarantined records.
    pub fn total(&self) -> u64 {
        self.bad_utf8
            + self.out_of_range_time
            + self.unknown_site_sym
            + self.version_skew
            + self.malformed
    }

    /// Nothing was quarantined?
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// One-line per-kind summary, e.g. `bad-utf8 1, malformed 2`.
    pub fn one_line(&self) -> String {
        format!(
            "bad-utf8 {}, out-of-range-time {}, unknown-site-sym {}, version-skew {}, malformed {}",
            self.bad_utf8,
            self.out_of_range_time,
            self.unknown_site_sym,
            self.version_skew,
            self.malformed
        )
    }

    /// The full multi-line report `dmsa analyze --quarantine-report` prints.
    pub fn render(&self) -> String {
        let mut out = format!("quarantined records: {}\n", self.total());
        out.push_str(&format!("  bad-utf8           {}\n", self.bad_utf8));
        out.push_str(&format!(
            "  out-of-range-time  {}\n",
            self.out_of_range_time
        ));
        out.push_str(&format!("  unknown-site-sym   {}\n", self.unknown_site_sym));
        out.push_str(&format!("  version-skew       {}\n", self.version_skew));
        out.push_str(&format!("  malformed          {}\n", self.malformed));
        for ex in &self.examples {
            out.push_str(&format!("  e.g. {ex}\n"));
        }
        out
    }
}

/// The result of a lenient load: what survived, and what did not.
pub struct LoadedExport {
    /// The export with quarantined records dropped.
    pub export: CampaignExport,
    /// What was dropped, and why.
    pub quarantine: QuarantineReport,
}

impl CampaignExport {
    /// Build an export from a completed campaign.
    pub fn from_campaign(campaign: &Campaign) -> Self {
        CampaignExport {
            version: FORMAT_VERSION,
            config: campaign.config.clone(),
            window: campaign.window,
            store: campaign.store.clone(),
            path_stats: campaign.path_stats,
            health: campaign.health.clone(),
        }
    }

    /// Serialize a campaign's export straight from the campaign, without
    /// copying its store: the same bytes as
    /// `CampaignExport::from_campaign(campaign).to_json()`.
    pub fn campaign_json(campaign: &Campaign) -> String {
        ExportParts::of_campaign(campaign).to_json()
    }

    /// Serialize to JSON. Deterministic: the same export always produces
    /// the same bytes (the resume tests compare exports byte-for-byte).
    pub fn to_json(&self) -> String {
        ExportParts {
            version: self.version,
            config: &self.config,
            window: self.window,
            store: &self.store,
            path_stats: &self.path_stats,
            health: self.health.as_ref(),
        }
        .to_json()
    }

    /// Deserialize from JSON, **strictly**: any quarantined record fails
    /// the load with a per-kind breakdown. Version skew at the top level
    /// and structural damage to required sections are errors in both modes.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let loaded = Self::from_json_lenient(json)?;
        if !loaded.quarantine.is_empty() {
            return Err(format!(
                "campaign export contains {} quarantined record(s): {}; \
                 load leniently with `dmsa analyze --quarantine-report`",
                loaded.quarantine.total(),
                loaded.quarantine.one_line()
            ));
        }
        Ok(loaded.export)
    }

    /// Deserialize from JSON, **leniently**: the export is validated
    /// section by section and malformed records are quarantined (counted
    /// by error kind, dropped from the store) rather than failing the
    /// load. Only damage that makes the export meaningless is fatal: an
    /// unparseable document, a missing/broken required section, or a
    /// format version newer than this build supports.
    pub fn from_json_lenient(src: &str) -> Result<LoadedExport, String> {
        let mut r = Reader::new(src);
        let scan = scan(src, &mut r)?;
        let root = &scan.root;
        let vj = root
            .get("version")
            .ok_or_else(|| format!("campaign export has no \"version\" field ({})", root.at()))?;
        let version = vj
            .as_u64()
            .ok_or_else(|| format!("\"version\" is not an integer {}", vj.at()))?;
        if version > FORMAT_VERSION as u64 || version == 0 {
            return Err(format!(
                "unsupported campaign format version {version} {}: found {version}, \
                 this build supports {FORMAT_VERSION}",
                vj.at()
            ));
        }

        let config = parse_config(section(root, "config")?)?;

        let wj = section(root, "window")?;
        let window = match wj.as_arr() {
            Some([s, e]) => match (s.as_i64(), e.as_i64()) {
                (Some(s), Some(e)) if s >= 0 && e >= s => Interval {
                    start: SimTime::from_millis(s),
                    end: SimTime::from_millis(e),
                },
                _ => return Err(format!("\"window\" times out of range {}", wj.at())),
            },
            _ => return Err(format!("\"window\" must be [start_ms,end_ms] {}", wj.at())),
        };

        // The scan interned `symbols` in file order, so every Sym id in
        // the records resolves to the string it was written under.
        let symbols = match scan.symbols {
            Some(streamed) => streamed?,
            None => {
                let sj = section(root, "symbols")?;
                return Err(format!("\"symbols\" must be an array {}", sj.at()));
            }
        };
        let n_syms = symbols.len() as u32;

        let mut q = QuarantineReport::default();
        let mut valid_sites: HashSet<Sym> = HashSet::new();
        let vj = section(root, "valid_sites")?;
        let site_arr = vj
            .as_arr()
            .ok_or_else(|| format!("\"valid_sites\" must be an array {}", vj.at()))?;
        for (i, el) in site_arr.iter().enumerate() {
            match el.as_u64() {
                Some(s) if s < n_syms as u64 => {
                    valid_sites.insert(Sym(s as u32));
                }
                Some(s) => q.note(Kind::UnknownSiteSym, || {
                    format!(
                        "valid_sites[{i}] {}: symbol {s} past table of {n_syms}",
                        el.at()
                    )
                }),
                None => q.note(Kind::Malformed, || {
                    format!("valid_sites[{i}] {}: not a symbol id", el.at())
                }),
            }
        }

        let jobs = scan.jobs.finish(&mut r, root, n_syms, &mut q)?;
        let files = scan.files.finish(&mut r, root, n_syms, &mut q)?;
        let transfers = scan.transfers.finish(&mut r, root, n_syms, &mut q)?;

        let path_stats = match root.get("path_stats") {
            None => TransferPathStats::default(),
            Some(pj) => {
                let arr = pj
                    .as_arr()
                    .ok_or_else(|| format!("\"path_stats\" must be an array {}", pj.at()))?;
                let vals: Option<Vec<u64>> = arr.iter().map(|e| e.as_u64()).collect();
                match vals.as_deref() {
                    Some([a, b, c, d, e, f]) => TransferPathStats {
                        requests: *a,
                        delivered: *b,
                        delivered_after_retry: *c,
                        failed_attempts: *d,
                        exhausted: *e,
                        no_replica: *f,
                    },
                    _ => return Err(format!("\"path_stats\" must be six counters {}", pj.at())),
                }
            }
        };

        let health = match root.get("health") {
            None => None,
            Some(h) if h.is_null() => None,
            Some(h) => Some(parse_health(h, &mut q)?),
        };

        Ok(LoadedExport {
            export: CampaignExport {
                version: version as u32,
                config,
                window,
                store: MetaStore {
                    symbols,
                    jobs,
                    files,
                    transfers,
                    valid_sites,
                },
                path_stats,
                health,
            },
            quarantine: q,
        })
    }
}

/// What the one pass over an export leaves for the semantic checks.
struct Scan {
    /// The top-level object without the members that were streamed.
    root: Json,
    /// The `symbols` array as streamed into a table, or the first error
    /// found in it; `None` when `symbols` is missing or not an array.
    symbols: Option<Result<SymbolTable, String>>,
    jobs: Records<JobRecord>,
    files: Records<FileRecord>,
    transfers: Records<TransferRecord>,
}

/// Walk the whole document once, validating it exactly as
/// [`json::parse`] would. Sections may come in any order. Semantic
/// errors are kept for [`CampaignExport::from_json_lenient`] to report
/// in its fixed order, so a syntax error anywhere wins.
fn scan(src: &str, r: &mut Reader) -> Result<Scan, String> {
    r.skip_ws();
    if r.peek() != Some(b'{') {
        // Not an object: the tree parser tells a syntax error from a
        // well-formed value of the wrong shape.
        let root = json::parse(src).map_err(parse_err)?;
        return Err(format!(
            "campaign export must be a JSON object, {}",
            root.at()
        ));
    }
    let (line, col) = r.line_col(r.pos());
    let mut fields = Vec::new();
    let mut symbols: Option<Result<SymbolTable, String>> = None;
    let (mut jobs, mut files, mut transfers) = (Records::Absent, Records::Absent, Records::Absent);
    r.each_field(|r, key| {
        // Records are decoded inline once a clean symbol table bounds
        // their symbol ids.
        let n_syms = match &symbols {
            Some(Ok(table)) => Some(table.len() as u32),
            _ => None,
        };
        let array = r.peek() == Some(b'[');
        match &*key {
            "symbols" if array => symbols = Some(stream_symbols(r)?),
            "jobs" if array => jobs = Records::scan(r, n_syms)?,
            "files" if array => files = Records::scan(r, n_syms)?,
            "transfers" if array => transfers = Records::scan(r, n_syms)?,
            _ => fields.push((key.into_owned(), r.tree()?)),
        }
        Ok(())
    })
    .and_then(|()| r.finish())
    .map_err(parse_err)?;
    Ok(Scan {
        root: Json {
            value: json::Value::Obj(fields),
            line,
            col,
        },
        symbols,
        jobs,
        files,
        transfers,
    })
}

fn parse_err(e: impl std::fmt::Display) -> String {
    format!("campaign parse error {e}")
}

fn section<'a>(root: &'a Json, key: &str) -> Result<&'a Json, String> {
    root.get(key)
        .ok_or_else(|| format!("campaign export has no {key:?} section ({})", root.at()))
}

/// Intern the `symbols` array at the cursor, building no tree. The first
/// semantic error is returned inside the `Ok`, with its position, and
/// the rest of the array is only validated.
fn stream_symbols(r: &mut Reader) -> json::PResult<Result<SymbolTable, String>> {
    let mut table = SymbolTable::new();
    let mut first_err = None;
    let mut i = 0usize;
    r.each_item(|r| {
        let at = r.pos();
        let tok = r.token()?;
        if first_err.is_none() {
            if let Err(what) = intern_symbol(&mut table, i, &tok) {
                first_err = Some(format!("{what} {}", r.at(at)));
            }
        }
        i += 1;
        Ok(())
    })?;
    Ok(first_err.map_or(Ok(table), Err))
}

/// Intern symbol `i` of the `symbols` array.
fn intern_symbol(table: &mut SymbolTable, i: usize, tok: &Tok) -> Result<(), String> {
    let Some(s) = tok.as_str() else {
        return Err(format!("symbol {i} is not a string"));
    };
    if i == 0 {
        // `SymbolTable::new()` already holds the sentinel.
        return match s {
            "UNKNOWN" => Ok(()),
            _ => Err(format!(
                "symbol 0 must be the UNKNOWN sentinel, found {s:?}"
            )),
        };
    }
    match table.try_intern(s) {
        Some(sym) if sym.0 as usize == i => Ok(()),
        Some(_) => Err(format!("duplicate symbol {s:?}")),
        None => Err(format!("symbol {i} does not fit: the table is full")),
    }
}

/// A record type of the export: its section, its arity, and its decoder.
trait Record: Sized {
    const KEY: &'static str;
    const ARITY: usize;
    const DECODE: fn(&[Tok], u32) -> Result<Self, RecErr>;
}

impl Record for JobRecord {
    const KEY: &'static str = "jobs";
    const ARITY: usize = 13;
    const DECODE: fn(&[Tok], u32) -> Result<Self, RecErr> = decode_job;
}

impl Record for FileRecord {
    const KEY: &'static str = "files";
    const ARITY: usize = 8;
    const DECODE: fn(&[Tok], u32) -> Result<Self, RecErr> = decode_file;
}

impl Record for TransferRecord {
    const KEY: &'static str = "transfers";
    const ARITY: usize = 20;
    const DECODE: fn(&[Tok], u32) -> Result<Self, RecErr> = decode_transfer;
}

/// A record section as the scan left it.
enum Records<T> {
    /// Missing, or not an array (the root tree then holds it).
    Absent,
    /// Decoded as the scan reached it, with its own quarantine report.
    Decoded(Vec<T>, QuarantineReport),
    /// Validated where it stands, at this byte offset; decoded once the
    /// symbol table is known.
    Deferred(usize),
}

impl<T: Record> Records<T> {
    /// Take the array at the cursor: decode it now if `n_syms` is known,
    /// else validate it and keep where it starts.
    fn scan(r: &mut Reader, n_syms: Option<u32>) -> json::PResult<Self> {
        match n_syms {
            Some(n_syms) => {
                decode_records(r, n_syms).map(|(records, q)| Records::Decoded(records, q))
            }
            None => {
                let start = r.pos();
                r.skip()?;
                Ok(Records::Deferred(start))
            }
        }
    }

    /// The section's records, its quarantine report added to `q`.
    fn finish(
        self,
        r: &mut Reader,
        root: &Json,
        n_syms: u32,
        q: &mut QuarantineReport,
    ) -> Result<Vec<T>, String> {
        let (records, report) = match self {
            Records::Decoded(records, report) => (records, report),
            Records::Deferred(start) => {
                r.seek(start, 1);
                decode_records(r, n_syms).map_err(parse_err)?
            }
            Records::Absent => {
                let sj = section(root, T::KEY)?;
                return Err(format!("{:?} must be an array {}", T::KEY, sj.at()));
            }
        };
        q.absorb(report);
        Ok(records)
    }
}

/// Decode the record array at the cursor: read each record's fields
/// into a reused token buffer and decode them, quarantining failures.
fn decode_records<'a, T: Record>(
    r: &mut Reader<'a>,
    n_syms: u32,
) -> json::PResult<(Vec<T>, QuarantineReport)> {
    let mut out = Vec::new();
    let mut q = QuarantineReport::default();
    let mut fields: Vec<Tok<'a>> = Vec::with_capacity(T::ARITY + 1);
    let mut i = 0usize;
    r.each_item(|r| {
        let at = r.pos();
        fields.clear();
        let decoded = if r.peek() == Some(b'[') {
            r.each_item(|r| {
                fields.push(r.token()?);
                Ok(())
            })?;
            rec_arity(&fields, T::ARITY).and_then(|()| T::DECODE(&fields, n_syms))
        } else {
            r.skip()?;
            Err((Kind::Malformed, "record is not an array".to_string()))
        };
        match decoded {
            Ok(v) => out.push(v),
            Err((kind, what)) => q.note(kind, || format!("{}[{i}] {}: {what}", T::KEY, r.at(at))),
        }
        i += 1;
        Ok(())
    })?;
    Ok((out, q))
}

/// The borrowed parts an export is written from, so a live [`Campaign`]
/// is written without copying its store.
pub(crate) struct ExportParts<'a> {
    version: u32,
    config: &'a ScenarioConfig,
    window: Interval,
    store: &'a MetaStore,
    path_stats: &'a TransferPathStats,
    health: Option<&'a HealthSummary>,
}

impl<'a> ExportParts<'a> {
    /// The parts of a live campaign's export.
    pub(crate) fn of_campaign(campaign: &'a Campaign) -> Self {
        ExportParts {
            version: FORMAT_VERSION,
            config: &campaign.config,
            window: campaign.window,
            store: &campaign.store,
            path_stats: &campaign.path_stats,
            health: campaign.health.as_ref(),
        }
    }

    fn to_json(&self) -> String {
        let mut o = String::new();
        self.write_into(&mut o);
        o
    }

    /// Render the document into `o`, replacing what it held. A caller
    /// that renders many exports reuses one buffer, so its pages are
    /// faulted in once rather than once per export.
    pub(crate) fn write_into(&self, o: &mut String) {
        let store = self.store;
        o.clear();
        o.reserve(self.size_hint());
        o.push_str("{\"version\":");
        push_u64(o, self.version.into());
        o.push_str(",\"config\":");
        write_config(o, self.config);
        o.push_str(",\"window\":[");
        push_time(o, self.window.start);
        o.push(',');
        push_time(o, self.window.end);
        o.push_str("],\"symbols\":[");
        for (i, s) in store.symbols.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            json::push_str_lit(o, s);
        }
        o.push_str("],\"valid_sites\":[");
        let mut sites: Vec<u32> = store.valid_sites.iter().map(|s| s.0).collect();
        sites.sort_unstable();
        for (i, s) in sites.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            push_u64(o, (*s).into());
        }
        o.push_str("],\"jobs\":[");
        for (i, j) in store.jobs.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            write_job(o, j);
        }
        o.push_str("],\"files\":[");
        for (i, f) in store.files.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            write_file(o, f);
        }
        o.push_str("],\"transfers\":[");
        for (i, t) in store.transfers.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            write_transfer(o, t);
        }
        o.push_str("],\"path_stats\":[");
        let p = self.path_stats;
        for (i, v) in [
            p.requests,
            p.delivered,
            p.delivered_after_retry,
            p.failed_attempts,
            p.exhausted,
            p.no_replica,
        ]
        .iter()
        .enumerate()
        {
            if i > 0 {
                o.push(',');
            }
            push_u64(o, *v);
        }
        o.push_str("],\"health\":");
        match self.health {
            None => o.push_str("null"),
            Some(h) => write_health(o, h),
        }
        o.push('}');
    }

    /// Bytes to reserve for the document, so writing it does not grow
    /// the buffer: the symbols' own bytes plus quotes and a comma each,
    /// and per record the widest it is in practice. Reserved pages that
    /// are never written are never touched.
    fn size_hint(&self) -> usize {
        let s = self.store;
        let episodes = self.health.map_or(0, |h| h.episodes.len());
        4096 + s.symbols.bytes_len()
            + 3 * s.symbols.len()
            + 11 * s.valid_sites.len()
            + JOB_BYTES * s.jobs.len()
            + FILE_BYTES * s.files.len()
            + TRANSFER_BYTES * s.transfers.len()
            + 64 * episodes
    }
}

// ---------------------------------------------------------------------------
// Record writers (compact fixed-arity arrays)
// ---------------------------------------------------------------------------

fn push_time(o: &mut String, t: SimTime) {
    push_i64(o, t.as_millis());
}

fn push_opt_u64(o: &mut String, v: Option<u64>) {
    match v {
        Some(v) => push_u64(o, v),
        None => o.push_str("null"),
    }
}

fn io_mode_str(m: IoMode) -> &'static str {
    match m {
        IoMode::StageIn => "stage_in",
        IoMode::DirectIo => "direct_io",
    }
}

fn job_status_str(s: JobStatus) -> &'static str {
    match s {
        JobStatus::Finished => "finished",
        JobStatus::Failed => "failed",
    }
}

fn task_status_str(s: TaskStatus) -> &'static str {
    match s {
        TaskStatus::Done => "done",
        TaskStatus::Failed => "failed",
    }
}

fn direction_str(d: FileDirection) -> &'static str {
    match d {
        FileDirection::Input => "input",
        FileDirection::Output => "output",
    }
}

fn activity_str(a: Activity) -> &'static str {
    match a {
        Activity::AnalysisDownload => "analysis_download",
        Activity::AnalysisUpload => "analysis_upload",
        Activity::AnalysisDownloadDirectIo => "analysis_download_direct_io",
        Activity::ProductionUpload => "production_upload",
        Activity::ProductionDownload => "production_download",
        Activity::DataRebalancing => "data_rebalancing",
        Activity::TapeRecall => "tape_recall",
        Activity::DataConsolidation => "data_consolidation",
    }
}

fn write_job(o: &mut String, j: &JobRecord) {
    o.push('[');
    push_u64(o, j.pandaid);
    o.push(',');
    push_u64(o, j.jeditaskid);
    o.push(',');
    push_u64(o, j.computingsite.0 as u64);
    o.push(',');
    push_time(o, j.creationtime);
    o.push(',');
    push_time(o, j.starttime);
    o.push(',');
    push_time(o, j.endtime);
    o.push(',');
    push_u64(o, j.ninputfilebytes);
    o.push(',');
    push_u64(o, j.noutputfilebytes);
    o.push_str(",\"");
    o.push_str(io_mode_str(j.io_mode));
    o.push_str("\",\"");
    o.push_str(job_status_str(j.status));
    o.push_str("\",\"");
    o.push_str(task_status_str(j.task_status));
    o.push_str("\",");
    push_opt_u64(o, j.error_code.map(u64::from));
    o.push(',');
    o.push_str(if j.is_user_analysis { "true" } else { "false" });
    o.push(']');
}

fn write_file(o: &mut String, f: &FileRecord) {
    o.push('[');
    push_u64(o, f.pandaid);
    o.push(',');
    push_u64(o, f.jeditaskid);
    o.push(',');
    push_u64(o, f.lfn.0 as u64);
    o.push(',');
    push_u64(o, f.dataset.0 as u64);
    o.push(',');
    push_u64(o, f.proddblock.0 as u64);
    o.push(',');
    push_u64(o, f.scope.0 as u64);
    o.push(',');
    push_u64(o, f.file_size);
    o.push_str(",\"");
    o.push_str(direction_str(f.direction));
    o.push_str("\"]");
}

fn write_transfer(o: &mut String, t: &TransferRecord) {
    o.push('[');
    push_u64(o, t.transfer_id);
    o.push(',');
    push_u64(o, t.lfn.0 as u64);
    o.push(',');
    push_u64(o, t.dataset.0 as u64);
    o.push(',');
    push_u64(o, t.proddblock.0 as u64);
    o.push(',');
    push_u64(o, t.scope.0 as u64);
    o.push(',');
    push_u64(o, t.file_size);
    o.push(',');
    push_time(o, t.starttime);
    o.push(',');
    push_time(o, t.endtime);
    o.push(',');
    push_u64(o, t.source_site.0 as u64);
    o.push(',');
    push_u64(o, t.destination_site.0 as u64);
    o.push_str(",\"");
    o.push_str(activity_str(t.activity));
    o.push_str("\",");
    push_opt_u64(o, t.jeditaskid);
    o.push(',');
    o.push_str(if t.is_download { "true" } else { "false" });
    o.push(',');
    o.push_str(if t.is_upload { "true" } else { "false" });
    o.push(',');
    push_u64(o, t.attempt as u64);
    o.push(',');
    o.push_str(if t.succeeded { "true" } else { "false" });
    o.push(',');
    push_opt_u64(o, t.gt_pandaid);
    o.push(',');
    push_u64(o, t.gt_source_site.0 as u64);
    o.push(',');
    push_u64(o, t.gt_destination_site.0 as u64);
    o.push(',');
    push_u64(o, t.gt_file_size);
    o.push(']');
}

fn write_health(o: &mut String, h: &HealthSummary) {
    o.push_str("{\"episodes\":[");
    for (i, e) in h.episodes.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push('[');
        match e.subject {
            HealthSubject::Site(s) => {
                o.push_str("\"site\",");
                push_u64(o, s.0 as u64);
            }
            HealthSubject::Link { src, dst } => {
                o.push_str("\"link\",");
                push_u64(o, src.0 as u64);
                o.push(',');
                push_u64(o, dst.0 as u64);
            }
        }
        o.push(',');
        push_time(o, e.from);
        o.push(',');
        push_time(o, e.until);
        o.push(']');
    }
    o.push_str("],\"counters\":[");
    for (i, v) in [
        h.counters.site_refusals,
        h.counters.link_refusals,
        h.counters.probes_granted,
        h.counters.trips,
    ]
    .iter()
    .enumerate()
    {
        if i > 0 {
            o.push(',');
        }
        push_u64(o, *v);
    }
    o.push_str("]}");
}

// ---------------------------------------------------------------------------
// Record decoders (quarantine on failure)
// ---------------------------------------------------------------------------
//
// Each decoder checks a record's fields in a fixed order, and the first
// failure decides the record's quarantine kind and message. Labels are
// string literals: nothing is formatted unless a field fails.

type RecErr = (Kind, String);

/// A record's verdict. Cold, so the checks' fast paths stay small
/// enough to inline into the decoders.
#[cold]
fn reject(kind: Kind, what: std::fmt::Arguments) -> RecErr {
    (kind, what.to_string())
}

/// A record must have exactly `arity` fields. Fewer is broken structure;
/// *more* means a newer writer appended fields — version skew.
fn rec_arity(fields: &[Tok], arity: usize) -> Result<(), RecErr> {
    let n = fields.len();
    if n < arity {
        return Err(reject(
            Kind::Malformed,
            format_args!("expected {arity} fields, got {n}"),
        ));
    }
    if n > arity {
        return Err(reject(
            Kind::VersionSkew,
            format_args!("{n} fields where this build knows {arity}"),
        ));
    }
    Ok(())
}

fn rec_u64(t: &Tok, what: &str) -> Result<u64, RecErr> {
    t.as_u64().ok_or_else(|| {
        reject(
            Kind::Malformed,
            format_args!("{what} is not an unsigned integer"),
        )
    })
}

fn rec_bool(t: &Tok, what: &str) -> Result<bool, RecErr> {
    t.as_bool()
        .ok_or_else(|| reject(Kind::Malformed, format_args!("{what} is not a boolean")))
}

fn rec_time(t: &Tok, what: &str) -> Result<SimTime, RecErr> {
    match t.as_i64() {
        Some(ms) if ms >= 0 => Ok(SimTime::from_millis(ms)),
        Some(ms) => Err(reject(
            Kind::OutOfRangeTime,
            format_args!("{what} is negative ({ms} ms)"),
        )),
        None => Err(reject(
            Kind::Malformed,
            format_args!("{what} is not a timestamp"),
        )),
    }
}

/// A `[start, end]` pair named `what`, each end checked under its own
/// label (`"job start"`, `"job end"`).
fn rec_span(
    start: &Tok,
    end: &Tok,
    what: &str,
    [start_what, end_what]: [&str; 2],
) -> Result<(SimTime, SimTime), RecErr> {
    let s = rec_time(start, start_what)?;
    let e = rec_time(end, end_what)?;
    if e < s {
        return Err(reject(
            Kind::OutOfRangeTime,
            format_args!(
                "{what} ends before it starts ({} < {} ms)",
                e.as_millis(),
                s.as_millis()
            ),
        ));
    }
    Ok((s, e))
}

fn rec_sym(t: &Tok, n_syms: u32, what: &str) -> Result<Sym, RecErr> {
    let v = rec_u64(t, what)?;
    if v >= n_syms as u64 {
        return Err(reject(
            Kind::UnknownSiteSym,
            format_args!("{what} references symbol {v}, table has {n_syms}"),
        ));
    }
    Ok(Sym(v as u32))
}

fn rec_enum<'t>(t: &'t Tok, what: &str) -> Result<&'t str, RecErr> {
    let s = t
        .as_str()
        .ok_or_else(|| reject(Kind::Malformed, format_args!("{what} is not a string")))?;
    if s.contains('\u{FFFD}') {
        return Err(reject(
            Kind::BadUtf8,
            format_args!("{what} contains lossily-decoded bytes"),
        ));
    }
    Ok(s)
}

fn rec_opt_u64(t: &Tok, what: &str) -> Result<Option<u64>, RecErr> {
    if t.is_null() {
        Ok(None)
    } else {
        rec_u64(t, what).map(Some)
    }
}

fn decode_job(a: &[Tok], n_syms: u32) -> Result<JobRecord, RecErr> {
    let creationtime = rec_time(&a[3], "creationtime")?;
    let (starttime, endtime) = rec_span(&a[4], &a[5], "job", ["job start", "job end"])?;
    let io_mode = match rec_enum(&a[8], "io_mode")? {
        "stage_in" => IoMode::StageIn,
        "direct_io" => IoMode::DirectIo,
        other => return Err(skew("io_mode", other)),
    };
    let status = match rec_enum(&a[9], "status")? {
        "finished" => JobStatus::Finished,
        "failed" => JobStatus::Failed,
        other => return Err(skew("status", other)),
    };
    let task_status = match rec_enum(&a[10], "task_status")? {
        "done" => TaskStatus::Done,
        "failed" => TaskStatus::Failed,
        other => return Err(skew("task_status", other)),
    };
    let error_code = match rec_opt_u64(&a[11], "error_code")? {
        None => None,
        Some(v) if v <= u32::MAX as u64 => Some(v as u32),
        Some(v) => return Err((Kind::Malformed, format!("error_code {v} out of range"))),
    };
    Ok(JobRecord {
        pandaid: rec_u64(&a[0], "pandaid")?,
        jeditaskid: rec_u64(&a[1], "jeditaskid")?,
        computingsite: rec_sym(&a[2], n_syms, "computingsite")?,
        creationtime,
        starttime,
        endtime,
        ninputfilebytes: rec_u64(&a[6], "ninputfilebytes")?,
        noutputfilebytes: rec_u64(&a[7], "noutputfilebytes")?,
        io_mode,
        status,
        task_status,
        error_code,
        is_user_analysis: rec_bool(&a[12], "is_user_analysis")?,
    })
}

fn decode_file(a: &[Tok], n_syms: u32) -> Result<FileRecord, RecErr> {
    let direction = match rec_enum(&a[7], "direction")? {
        "input" => FileDirection::Input,
        "output" => FileDirection::Output,
        other => return Err(skew("direction", other)),
    };
    Ok(FileRecord {
        pandaid: rec_u64(&a[0], "pandaid")?,
        jeditaskid: rec_u64(&a[1], "jeditaskid")?,
        lfn: rec_sym(&a[2], n_syms, "lfn")?,
        dataset: rec_sym(&a[3], n_syms, "dataset")?,
        proddblock: rec_sym(&a[4], n_syms, "proddblock")?,
        scope: rec_sym(&a[5], n_syms, "scope")?,
        file_size: rec_u64(&a[6], "file_size")?,
        direction,
    })
}

fn decode_transfer(a: &[Tok], n_syms: u32) -> Result<TransferRecord, RecErr> {
    let (starttime, endtime) =
        rec_span(&a[6], &a[7], "transfer", ["transfer start", "transfer end"])?;
    let activity = match rec_enum(&a[10], "activity")? {
        "analysis_download" => Activity::AnalysisDownload,
        "analysis_upload" => Activity::AnalysisUpload,
        "analysis_download_direct_io" => Activity::AnalysisDownloadDirectIo,
        "production_upload" => Activity::ProductionUpload,
        "production_download" => Activity::ProductionDownload,
        "data_rebalancing" => Activity::DataRebalancing,
        "tape_recall" => Activity::TapeRecall,
        "data_consolidation" => Activity::DataConsolidation,
        other => return Err(skew("activity", other)),
    };
    let attempt = match rec_u64(&a[14], "attempt")? {
        v if v >= 1 && v <= u32::MAX as u64 => v as u32,
        v => return Err((Kind::Malformed, format!("attempt {v} out of range"))),
    };
    Ok(TransferRecord {
        transfer_id: rec_u64(&a[0], "transfer_id")?,
        lfn: rec_sym(&a[1], n_syms, "lfn")?,
        dataset: rec_sym(&a[2], n_syms, "dataset")?,
        proddblock: rec_sym(&a[3], n_syms, "proddblock")?,
        scope: rec_sym(&a[4], n_syms, "scope")?,
        file_size: rec_u64(&a[5], "file_size")?,
        starttime,
        endtime,
        source_site: rec_sym(&a[8], n_syms, "source_site")?,
        destination_site: rec_sym(&a[9], n_syms, "destination_site")?,
        activity,
        jeditaskid: rec_opt_u64(&a[11], "jeditaskid")?,
        is_download: rec_bool(&a[12], "is_download")?,
        is_upload: rec_bool(&a[13], "is_upload")?,
        attempt,
        succeeded: rec_bool(&a[15], "succeeded")?,
        gt_pandaid: rec_opt_u64(&a[16], "gt_pandaid")?,
        gt_source_site: rec_sym(&a[17], n_syms, "gt_source_site")?,
        gt_destination_site: rec_sym(&a[18], n_syms, "gt_destination_site")?,
        gt_file_size: rec_u64(&a[19], "gt_file_size")?,
    })
}

fn skew(what: &str, found: &str) -> RecErr {
    reject(
        Kind::VersionSkew,
        format_args!("unknown {what} value {found:?} (newer writer?)"),
    )
}

fn parse_health(h: &Json, q: &mut QuarantineReport) -> Result<HealthSummary, String> {
    let ej = h
        .get("episodes")
        .ok_or_else(|| format!("\"health\" has no episodes {}", h.at()))?;
    let arr = ej
        .as_arr()
        .ok_or_else(|| format!("health episodes must be an array {}", ej.at()))?;
    let mut episodes = Vec::with_capacity(arr.len());
    for (i, el) in arr.iter().enumerate() {
        match parse_episode(el) {
            Ok(e) => episodes.push(e),
            Err((kind, what)) => {
                q.note(kind, || format!("health.episodes[{i}] {}: {what}", el.at()))
            }
        }
    }
    let cj = h
        .get("counters")
        .ok_or_else(|| format!("\"health\" has no counters {}", h.at()))?;
    let vals: Option<Vec<u64>> = cj
        .as_arr()
        .and_then(|a| a.iter().map(|e| e.as_u64()).collect());
    let counters = match vals.as_deref() {
        Some([a, b, c, d]) => HealthCounters {
            site_refusals: *a,
            link_refusals: *b,
            probes_granted: *c,
            trips: *d,
        },
        _ => return Err(format!("health counters must be four integers {}", cj.at())),
    };
    Ok(HealthSummary { episodes, counters })
}

fn parse_episode(el: &Json) -> Result<OpenEpisode, RecErr> {
    let arr = el
        .as_arr()
        .ok_or((Kind::Malformed, "episode is not an array".to_string()))?;
    let site_id = |e: &Json, what: &str| -> Result<SiteId, RecErr> {
        let v = rec_u64(&e.tok(), what)?;
        u32::try_from(v)
            .map(SiteId)
            .map_err(|_| (Kind::Malformed, format!("{what} {v} out of range")))
    };
    let (subject, ti) = match arr.first().and_then(|t| t.as_str()) {
        Some("site") if arr.len() == 4 => (HealthSubject::Site(site_id(&arr[1], "site")?), 2),
        Some("link") if arr.len() == 5 => (
            HealthSubject::Link {
                src: site_id(&arr[1], "link src")?,
                dst: site_id(&arr[2], "link dst")?,
            },
            3,
        ),
        Some(s) if s.contains('\u{FFFD}') => {
            return Err((Kind::BadUtf8, "subject tag contains lossy bytes".into()))
        }
        Some(other @ ("site" | "link")) => {
            return Err((Kind::Malformed, format!("{other} episode has wrong arity")))
        }
        Some(other) => return Err(skew("episode subject", other)),
        None => return Err((Kind::Malformed, "episode subject missing".into())),
    };
    let (from, until) = (
        rec_time(&arr[ti].tok(), "episode from")?,
        rec_time(&arr[ti + 1].tok(), "episode until")?,
    );
    if until < from {
        return Err((
            Kind::OutOfRangeTime,
            "episode ends before it starts".to_string(),
        ));
    }
    Ok(OpenEpisode {
        subject,
        from,
        until,
    })
}

// ---------------------------------------------------------------------------
// Config codec (named fields, hard errors — provenance is not optional)
// ---------------------------------------------------------------------------

fn write_config(o: &mut String, c: &ScenarioConfig) {
    o.push_str("{\"seed\":");
    push_u64(o, c.seed);
    let t = &c.topology;
    o.push_str(",\"topology\":{");
    kv_u64(o, "n_tier1", t.n_tier1 as u64, true);
    kv_u64(o, "n_tier2", t.n_tier2 as u64, false);
    kv_u64(o, "n_tier3", t.n_tier3 as u64, false);
    kv_f64(o, "activity_pareto_shape", t.activity_pareto_shape);
    kv_f64(
        o,
        "single_stream_site_fraction",
        t.single_stream_site_fraction,
    );
    kv_u64(o, "t2_compute_slots", t.t2_compute_slots as u64, false);
    kv_u64(o, "t2_disk_capacity_bytes", t.t2_disk_capacity_bytes, false);
    let w = &c.workload;
    o.push_str("},\"workload\":{");
    kv_f64_first(o, "tasks_per_hour", w.tasks_per_hour);
    kv_f64(o, "production_fraction", w.production_fraction);
    kv_f64(o, "direct_io_fraction", w.direct_io_fraction);
    kv_f64(o, "recorded_stagein_fraction", w.recorded_stagein_fraction);
    kv_f64(o, "doomed_task_fraction", w.doomed_task_fraction);
    kv_f64(o, "median_file_bytes", w.median_file_bytes);
    kv_f64(o, "file_size_sigma", w.file_size_sigma);
    kv_f64(o, "median_walltime_secs", w.median_walltime_secs);
    kv_f64(o, "walltime_sigma", w.walltime_sigma);
    kv_f64(o, "median_jobs_per_task", w.median_jobs_per_task);
    kv_f64(o, "median_jobs_per_prod_task", w.median_jobs_per_prod_task);
    kv_u64(
        o,
        "max_files_per_dataset",
        w.max_files_per_dataset as u64,
        false,
    );
    kv_f64(o, "output_ratio", w.output_ratio);
    let b = &c.broker;
    o.push_str("},\"broker\":{");
    kv_f64_first(o, "hot_backlog_threshold", b.hot_backlog_threshold);
    kv_f64(o, "remote_when_hot_prob", b.remote_when_hot_prob);
    kv_f64(o, "random_remote_prob", b.random_remote_prob);
    let fm = &c.failure;
    o.push_str("},\"failure\":{");
    kv_f64_first(o, "base_fail_prob", fm.base_fail_prob);
    kv_f64(o, "doomed_fail_prob", fm.doomed_fail_prob);
    kv_f64(o, "staging_coupling", fm.staging_coupling);
    let fc = &c.faults;
    o.push_str("},\"faults\":{");
    kv_f64_first(o, "p_attempt_failure", fc.p_attempt_failure);
    kv_f64(o, "site_outage_fraction", fc.site_outage_fraction);
    kv_f64(o, "link_outage_fraction", fc.link_outage_fraction);
    kv_f64(o, "p_outage_failure", fc.p_outage_failure);
    let r = &c.retry;
    o.push_str("},\"retry\":{");
    kv_u64(o, "max_retries", r.max_retries as u64, true);
    kv_u64(
        o,
        "backoff_base_ms",
        r.backoff_base.as_millis() as u64,
        false,
    );
    kv_f64(o, "backoff_factor", r.backoff_factor);
    kv_f64(o, "backoff_jitter", r.backoff_jitter);
    kv_u64(o, "backoff_max_ms", r.backoff_max.as_millis() as u64, false);
    let h = &c.health;
    o.push_str("},\"health\":{");
    o.push_str("\"enabled\":");
    o.push_str(if h.enabled { "true" } else { "false" });
    kv_u64(o, "window_ms", h.window.as_millis() as u64, false);
    kv_u64(o, "min_samples", h.min_samples as u64, false);
    kv_f64(o, "failure_rate_threshold", h.failure_rate_threshold);
    kv_u64(
        o,
        "consecutive_failures",
        h.consecutive_failures as u64,
        false,
    );
    kv_u64(o, "cooldown_ms", h.cooldown.as_millis() as u64, false);
    kv_u64(o, "probe_quota", h.probe_quota as u64, false);
    kv_u64(o, "probe_successes", h.probe_successes as u64, false);
    let cm = &c.corruption;
    o.push_str("},\"corruption\":{");
    kv_f64_first(o, "p_drop_taskid", cm.p_drop_taskid);
    kv_f64(o, "p_unknown_site", cm.p_unknown_site);
    kv_f64(o, "p_invalid_site", cm.p_invalid_site);
    kv_f64(o, "p_size_jitter", cm.p_size_jitter);
    kv_u64(o, "max_jitter_bytes", cm.max_jitter_bytes, false);
    kv_f64(o, "p_drop_transfer", cm.p_drop_transfer);
    kv_f64(o, "p_drop_file_record", cm.p_drop_file_record);
    kv_f64(o, "p_input_bytes_jitter", cm.p_input_bytes_jitter);
    kv_f64(o, "p_output_bytes_jitter", cm.p_output_bytes_jitter);
    kv_f64(o, "p_task_size_jitter", cm.p_task_size_jitter);
    kv_f64(o, "p_task_unknown_site", cm.p_task_unknown_site);
    kv_f64(o, "p_task_drop_taskid", cm.p_task_drop_taskid);
    kv_f64(o, "p_clear_attempt", cm.p_clear_attempt);
    o.push_str("},\"duration_ms\":");
    push_i64(o, c.duration.as_millis());
    kv_f64(
        o,
        "background_transfers_per_hour",
        c.background_transfers_per_hour,
    );
    kv_f64(o, "background_local_fraction", c.background_local_fraction);
    kv_f64(o, "upload_recorded_fraction", c.upload_recorded_fraction);
    kv_f64(o, "upload_remote_fraction", c.upload_remote_fraction);
    kv_f64(o, "dio_full_read_fraction", c.dio_full_read_fraction);
    kv_f64(o, "dio_recorded_fraction", c.dio_recorded_fraction);
    kv_f64(o, "prod_download_fraction", c.prod_download_fraction);
    kv_f64(o, "p_start_before_staging", c.p_start_before_staging);
    kv_f64(o, "p_sequential_stagein", c.p_sequential_stagein);
    kv_f64(o, "prestage_fraction", c.prestage_fraction);
    kv_u64(o, "initial_datasets", c.initial_datasets as u64, false);
    kv_u64(
        o,
        "max_replicas_per_dataset",
        c.max_replicas_per_dataset as u64,
        false,
    );
    o.push('}');
}

fn kv_u64(o: &mut String, key: &str, v: u64, first: bool) {
    if !first {
        o.push(',');
    }
    o.push('"');
    o.push_str(key);
    o.push_str("\":");
    push_u64(o, v);
}

fn kv_f64_first(o: &mut String, key: &str, v: f64) {
    o.push('"');
    o.push_str(key);
    o.push_str("\":");
    json::push_f64(o, v);
}

fn kv_f64(o: &mut String, key: &str, v: f64) {
    o.push(',');
    kv_f64_first(o, key, v);
}

fn cfg_field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("config is missing {key:?} ({})", obj.at()))
}

fn cfg_f64(obj: &Json, key: &str) -> Result<f64, String> {
    let f = cfg_field(obj, key)?;
    f.as_f64()
        .ok_or_else(|| format!("config {key:?} is not a number {}", f.at()))
}

fn cfg_u64(obj: &Json, key: &str) -> Result<u64, String> {
    let f = cfg_field(obj, key)?;
    f.as_u64()
        .ok_or_else(|| format!("config {key:?} is not an unsigned integer {}", f.at()))
}

fn cfg_u32(obj: &Json, key: &str) -> Result<u32, String> {
    let v = cfg_u64(obj, key)?;
    u32::try_from(v).map_err(|_| format!("config {key:?} = {v} does not fit in u32"))
}

fn cfg_usize(obj: &Json, key: &str) -> Result<usize, String> {
    cfg_u64(obj, key).map(|v| v as usize)
}

fn cfg_ms(obj: &Json, key: &str) -> Result<SimDuration, String> {
    let f = cfg_field(obj, key)?;
    f.as_i64()
        .map(SimDuration::from_millis)
        .ok_or_else(|| format!("config {key:?} is not a millisecond count {}", f.at()))
}

fn cfg_bool(obj: &Json, key: &str) -> Result<bool, String> {
    let f = cfg_field(obj, key)?;
    f.as_bool()
        .ok_or_else(|| format!("config {key:?} is not a boolean {}", f.at()))
}

/// Decode an export's `config` section: the scenario that produced it.
pub fn parse_config(j: &Json) -> Result<ScenarioConfig, String> {
    let t = cfg_field(j, "topology")?;
    let w = cfg_field(j, "workload")?;
    let b = cfg_field(j, "broker")?;
    let fm = cfg_field(j, "failure")?;
    let fc = cfg_field(j, "faults")?;
    let r = cfg_field(j, "retry")?;
    let h = cfg_field(j, "health")?;
    let cm = cfg_field(j, "corruption")?;
    Ok(ScenarioConfig {
        seed: cfg_u64(j, "seed")?,
        topology: TopologyConfig {
            n_tier1: cfg_usize(t, "n_tier1")?,
            n_tier2: cfg_usize(t, "n_tier2")?,
            n_tier3: cfg_usize(t, "n_tier3")?,
            activity_pareto_shape: cfg_f64(t, "activity_pareto_shape")?,
            single_stream_site_fraction: cfg_f64(t, "single_stream_site_fraction")?,
            t2_compute_slots: cfg_u32(t, "t2_compute_slots")?,
            t2_disk_capacity_bytes: cfg_u64(t, "t2_disk_capacity_bytes")?,
        },
        workload: WorkloadParams {
            tasks_per_hour: cfg_f64(w, "tasks_per_hour")?,
            production_fraction: cfg_f64(w, "production_fraction")?,
            direct_io_fraction: cfg_f64(w, "direct_io_fraction")?,
            recorded_stagein_fraction: cfg_f64(w, "recorded_stagein_fraction")?,
            doomed_task_fraction: cfg_f64(w, "doomed_task_fraction")?,
            median_file_bytes: cfg_f64(w, "median_file_bytes")?,
            file_size_sigma: cfg_f64(w, "file_size_sigma")?,
            median_walltime_secs: cfg_f64(w, "median_walltime_secs")?,
            walltime_sigma: cfg_f64(w, "walltime_sigma")?,
            median_jobs_per_task: cfg_f64(w, "median_jobs_per_task")?,
            median_jobs_per_prod_task: cfg_f64(w, "median_jobs_per_prod_task")?,
            max_files_per_dataset: cfg_u32(w, "max_files_per_dataset")?,
            output_ratio: cfg_f64(w, "output_ratio")?,
        },
        broker: BrokerConfig {
            hot_backlog_threshold: cfg_f64(b, "hot_backlog_threshold")?,
            remote_when_hot_prob: cfg_f64(b, "remote_when_hot_prob")?,
            random_remote_prob: cfg_f64(b, "random_remote_prob")?,
        },
        failure: FailureModel {
            base_fail_prob: cfg_f64(fm, "base_fail_prob")?,
            doomed_fail_prob: cfg_f64(fm, "doomed_fail_prob")?,
            staging_coupling: cfg_f64(fm, "staging_coupling")?,
        },
        faults: FaultConfig {
            p_attempt_failure: cfg_f64(fc, "p_attempt_failure")?,
            site_outage_fraction: cfg_f64(fc, "site_outage_fraction")?,
            link_outage_fraction: cfg_f64(fc, "link_outage_fraction")?,
            p_outage_failure: cfg_f64(fc, "p_outage_failure")?,
        },
        retry: RetryPolicy {
            max_retries: cfg_u32(r, "max_retries")?,
            backoff_base: cfg_ms(r, "backoff_base_ms")?,
            backoff_factor: cfg_f64(r, "backoff_factor")?,
            backoff_jitter: cfg_f64(r, "backoff_jitter")?,
            backoff_max: cfg_ms(r, "backoff_max_ms")?,
        },
        health: HealthConfig {
            enabled: cfg_bool(h, "enabled")?,
            window: cfg_ms(h, "window_ms")?,
            min_samples: cfg_u32(h, "min_samples")?,
            failure_rate_threshold: cfg_f64(h, "failure_rate_threshold")?,
            consecutive_failures: cfg_u32(h, "consecutive_failures")?,
            cooldown: cfg_ms(h, "cooldown_ms")?,
            probe_quota: cfg_u32(h, "probe_quota")?,
            probe_successes: cfg_u32(h, "probe_successes")?,
        },
        corruption: CorruptionModel {
            p_drop_taskid: cfg_f64(cm, "p_drop_taskid")?,
            p_unknown_site: cfg_f64(cm, "p_unknown_site")?,
            p_invalid_site: cfg_f64(cm, "p_invalid_site")?,
            p_size_jitter: cfg_f64(cm, "p_size_jitter")?,
            max_jitter_bytes: cfg_u64(cm, "max_jitter_bytes")?,
            p_drop_transfer: cfg_f64(cm, "p_drop_transfer")?,
            p_drop_file_record: cfg_f64(cm, "p_drop_file_record")?,
            p_input_bytes_jitter: cfg_f64(cm, "p_input_bytes_jitter")?,
            p_output_bytes_jitter: cfg_f64(cm, "p_output_bytes_jitter")?,
            p_task_size_jitter: cfg_f64(cm, "p_task_size_jitter")?,
            p_task_unknown_site: cfg_f64(cm, "p_task_unknown_site")?,
            p_task_drop_taskid: cfg_f64(cm, "p_task_drop_taskid")?,
            p_clear_attempt: cfg_f64(cm, "p_clear_attempt")?,
        },
        duration: cfg_ms(j, "duration_ms")?,
        background_transfers_per_hour: cfg_f64(j, "background_transfers_per_hour")?,
        background_local_fraction: cfg_f64(j, "background_local_fraction")?,
        upload_recorded_fraction: cfg_f64(j, "upload_recorded_fraction")?,
        upload_remote_fraction: cfg_f64(j, "upload_remote_fraction")?,
        dio_full_read_fraction: cfg_f64(j, "dio_full_read_fraction")?,
        dio_recorded_fraction: cfg_f64(j, "dio_recorded_fraction")?,
        prod_download_fraction: cfg_f64(j, "prod_download_fraction")?,
        p_start_before_staging: cfg_f64(j, "p_start_before_staging")?,
        p_sequential_stagein: cfg_f64(j, "p_sequential_stagein")?,
        prestage_fraction: cfg_f64(j, "prestage_fraction")?,
        initial_datasets: cfg_usize(j, "initial_datasets")?,
        max_replicas_per_dataset: cfg_usize(j, "max_replicas_per_dataset")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_round_trips_through_json() {
        let campaign = dmsa_scenario::run(&tiny_config());
        let export = CampaignExport::from_campaign(&campaign);
        let json = export.to_json();
        let back = CampaignExport::from_json(&json).unwrap();
        assert_eq!(back.version, FORMAT_VERSION);
        assert_eq!(back.window, campaign.window);
        assert_eq!(back.store.counts(), campaign.store.counts());
        assert_eq!(back.config.seed, campaign.config.seed);
        // Exact, not just structural: re-serializing the reloaded export
        // reproduces the original bytes (config floats included).
        assert_eq!(CampaignExport::from_campaign(&campaign).to_json(), json);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let campaign = dmsa_scenario::run(&tiny_config());
        let mut export = CampaignExport::from_campaign(&campaign);
        export.version = 999;
        let json = export.to_json();
        match CampaignExport::from_json(&json) {
            Err(err) => {
                assert!(err.contains("version 999"), "unclear error: {err}");
                assert!(err.contains("supports 1"), "no found-vs-supported: {err}");
                assert!(err.contains("line 1 column"), "no position: {err}");
            }
            Ok(_) => panic!("version mismatch accepted"),
        }
        // Even the lenient loader refuses a newer format outright.
        assert!(CampaignExport::from_json_lenient(&json).is_err());
    }

    #[test]
    fn hostile_nesting_is_a_parse_error_not_an_abort() {
        let hostile = format!("{{\"version\":1,\"jobs\":{}", "[".repeat(500 * 1024));
        match CampaignExport::from_json_lenient(&hostile) {
            Err(err) => {
                assert!(err.starts_with("campaign parse error"), "{err}");
                assert!(err.contains("nesting deeper than"), "{err}");
            }
            Ok(_) => panic!("hostile nesting accepted"),
        }
    }

    #[test]
    fn matching_on_reimported_store_is_identical() {
        use dmsa_core::matcher::Matcher;
        use dmsa_core::{IndexedMatcher, MatchMethod};
        let campaign = dmsa_scenario::run(&tiny_config());
        let json = CampaignExport::from_campaign(&campaign).to_json();
        let back = CampaignExport::from_json(&json).unwrap();
        let a = IndexedMatcher.match_jobs(&campaign.store, campaign.window, MatchMethod::Rm2);
        let b = IndexedMatcher.match_jobs(&back.store, back.window, MatchMethod::Rm2);
        assert_eq!(a, b);
    }

    #[test]
    fn faulty_adaptive_export_round_trips_health_and_path_stats() {
        let mut c = ScenarioConfig::faulty_adaptive();
        c.duration = dmsa_simcore::SimDuration::from_hours(3);
        c.workload.tasks_per_hour = 10.0;
        c.initial_datasets = 20;
        let campaign = dmsa_scenario::run(&c);
        let export = CampaignExport::from_campaign(&campaign);
        let json = export.to_json();
        let back = CampaignExport::from_json(&json).unwrap();
        assert_eq!(back.path_stats, campaign.path_stats);
        assert_eq!(back.to_json(), json);
        let (h, bh) = (campaign.health.as_ref().unwrap(), back.health.unwrap());
        assert_eq!(h.episodes, bh.episodes);
        assert_eq!(h.counters, bh.counters);
    }

    /// Inject a malformed record at the head of a section; relies on the
    /// writer's stable `"key":[` section anchors.
    fn inject(json: &str, section: &str, record: &str) -> String {
        let anchor = format!("\"{section}\":[");
        let at = json.find(&anchor).expect("section anchor") + anchor.len();
        let sep = if json[at..].starts_with(']') { "" } else { "," };
        format!("{}{record}{sep}{}", &json[..at], &json[at..])
    }

    #[test]
    fn quarantine_counts_each_error_kind() {
        let campaign = dmsa_scenario::run(&tiny_config());
        let json = CampaignExport::from_campaign(&campaign).to_json();
        // One of each taxonomy kind:
        let json = inject(&json, "files", "[1,2,3]"); // arity too small -> malformed
        let json = inject(
            &json,
            "jobs",
            "[1,1,999999,0,0,1,0,0,\"stage_in\",\"finished\",\"done\",null,true]",
        ); // symbol past table -> unknown-site-sym
        let json = inject(
            &json,
            "transfers",
            "[1,0,0,0,0,10,500,100,0,0,\"analysis_upload\",null,false,true,1,true,null,0,0,10]",
        ); // end < start -> out-of-range-time
        let json = inject(
            &json,
            "transfers",
            "[1,0,0,0,0,10,100,500,0,0,\"quantum_teleport\",null,false,true,1,true,null,0,0,10]",
        ); // unknown activity -> version-skew
        let json = inject(
            &json,
            "jobs",
            "[1,1,0,0,0,1,0,0,\"stage_in\",\"finish\u{FFFD}d\",\"done\",null,true]",
        ); // lossy bytes in enum -> bad-utf8
        let loaded = CampaignExport::from_json_lenient(&json).unwrap();
        let q = &loaded.quarantine;
        assert_eq!(q.malformed, 1, "{q:?}");
        assert_eq!(q.unknown_site_sym, 1, "{q:?}");
        assert_eq!(q.out_of_range_time, 1, "{q:?}");
        assert_eq!(q.version_skew, 1, "{q:?}");
        assert_eq!(q.bad_utf8, 1, "{q:?}");
        assert_eq!(q.total(), 5);
        // The surviving store is intact: every original record loaded.
        assert_eq!(loaded.export.store.counts(), campaign.store.counts());
        // Examples carry positions for the report.
        assert!(q.examples.iter().any(|e| e.contains("line 1 column")));
        let report = q.render();
        assert!(report.contains("quarantined records: 5"));
        assert!(report.contains("bad-utf8           1"));

        // The strict loader refuses the same bytes, naming the counts.
        let err = CampaignExport::from_json(&json)
            .err()
            .expect("strict accepts");
        assert!(err.contains("5 quarantined"), "unclear error: {err}");
        assert!(err.contains("version-skew 1"), "no taxonomy: {err}");
    }

    #[test]
    fn lossy_decoded_bytes_quarantine_only_the_hit_record() {
        let campaign = dmsa_scenario::run(&tiny_config());
        let json = CampaignExport::from_campaign(&campaign).to_json();
        // Simulate a disk/network corruption: a record's enum bytes become
        // invalid UTF-8, and the reader decodes the file lossily (as the
        // CLI does for files that are not valid UTF-8).
        let mut bytes = json.into_bytes();
        let at = bytes
            .windows(12)
            .position(|w| w == b"\"stage_in\",\"")
            .expect("a stage_in job");
        bytes[at + 2] = 0xFF;
        let lossy = String::from_utf8_lossy(&bytes).into_owned();
        let loaded = CampaignExport::from_json_lenient(&lossy).unwrap();
        assert_eq!(loaded.quarantine.bad_utf8, 1);
        assert_eq!(loaded.quarantine.total(), 1);
        let (jobs, ..) = loaded.export.store.counts();
        assert_eq!(jobs, campaign.store.jobs.len() - 1);
    }

    #[test]
    fn truncated_export_fails_with_position_not_panic() {
        let campaign = dmsa_scenario::run(&tiny_config());
        let json = CampaignExport::from_campaign(&campaign).to_json();
        for cut in [0, 1, json.len() / 2, json.len() - 1] {
            let err = CampaignExport::from_json(&json[..cut])
                .err()
                .unwrap_or_else(|| panic!("truncation at {cut} accepted"));
            assert!(err.contains("line"), "no position at cut {cut}: {err}");
        }
    }

    /// The streaming loader and the reference tree loader agree on `src`:
    /// the same error string, or the same export bytes and quarantine
    /// report.
    fn assert_matches_oracle(src: &str) {
        match (
            CampaignExport::from_json_lenient(src),
            oracle::from_json_lenient(src),
        ) {
            (Err(new), Err(old)) => assert_eq!(new, old),
            (Ok(new), Ok(old)) => {
                assert_eq!(new.quarantine, old.quarantine);
                assert_eq!(new.export.to_json(), old.export.to_json());
            }
            (new, old) => panic!(
                "loaders disagree: streaming {:?}, oracle {:?}",
                new.err(),
                old.err()
            ),
        }
    }

    #[test]
    fn streaming_loader_matches_the_reference_loader() {
        let campaign = dmsa_scenario::run(&tiny_config());
        let json = CampaignExport::from_campaign(&campaign).to_json();
        assert_matches_oracle(&json);
        // Every record kind of damage, including more than eight
        // quarantines (examples are capped, counts are not).
        let mut damaged = json.clone();
        for record in [
            "[1,2,3]",
            "{\"a\":1}",
            "7",
            "[1,1,999999,0,0,1,0,0,\"stage_in\",\"finished\",\"done\",null,true]",
            "[1,1,0,0,5,1,0,0,\"stage_in\",\"finished\",\"done\",null,true]",
            "[1,1,0,0,-5,1,0,0,\"stage_in\",\"finished\",\"done\",null,true]",
            "[1,1,0,-0,0,1,0,0,\"stage_in\",\"finished\",\"done\",null,true]",
            "[1.0,1e3,0,0,0,1,0,0,\"stage\\u005fin\",\"finished\",\"done\",4294967296,true]",
            "[1,1,0,0,0,1,[0],0,\"stage_in\",\"finished\",\"done\",null,true]",
            "[1,1,0,0,0,1,0,0,\"stage_in\",{\"x\":[]},\"done\",null,true]",
            "[1,1,0,0,0,1,0,0,\"stage_in\",\"finished\",\"done\",null,true,9]",
            "[1,1,0,0,0,1,0,0,\"stage_in\",\"finish\u{FFFD}d\",\"done\",null,true]",
        ] {
            damaged = inject(&damaged, "jobs", record);
        }
        damaged = inject(
            &damaged,
            "transfers",
            "[1,0,0,0,0,10,100,500,0,0,\"analysis_upload\",null,false,true,0,true,null,0,0,10]",
        );
        damaged = inject(&damaged, "files", "[1,2,3,4,5,6,7,\"sideways\"]");
        damaged = inject(&damaged, "valid_sites", "999999");
        assert_matches_oracle(&damaged);
        // Syntax errors anywhere win over semantic errors.
        assert_matches_oracle(&inject(&json, "transfers", "[1,{\"a\":1,\"a\":2}]"));
        assert_matches_oracle(&inject(&json, "files", "[1,\"\\q\"]"));
        assert_matches_oracle(&inject(&json, "jobs", "[1e999]"));
        assert_matches_oracle(&json.replace("\"version\":1", "\"version\":1,\"version\":1"));
        // Sections in another order, and a section that is not an array.
        let transfers_at = json.find(",\"transfers\":").unwrap();
        let path_at = json.find(",\"path_stats\":").unwrap();
        let jobs_at = json.find(",\"jobs\":").unwrap();
        let reordered = format!(
            "{}{}{}{}",
            &json[..jobs_at],
            &json[transfers_at..path_at],
            &json[jobs_at..transfers_at],
            &json[path_at..]
        );
        assert_matches_oracle(&reordered);
        assert_matches_oracle(&json.replace("\"files\":[", "\"files\":{\"x\":["));
        assert_matches_oracle(&json.replace("\"files\":[", "\"filez\":["));
        assert_matches_oracle("[1,2]");
        assert_matches_oracle("  \"export\"  ");
        assert_matches_oracle("{}");
        for cut in (0..json.len()).step_by(json.len() / 97 + 1) {
            assert_matches_oracle(&json[..cut]);
        }
    }

    #[test]
    fn json_parse_matches_the_reference_parser() {
        for src in [
            "",
            " ",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\\u00e9\"}",
            "{\"a\":1,\n \"a\":2}",
            "[\"\\ud83d\\ude00\", \"\\ud83d\", \"\\ude00\"]",
            "[\"\\ud83d\\u0041\"]",
            "[\"\\u12\"]",
            "[\"é\nx\"]",
            "[\"é\", x]",
            "\n\n  [1,\n 2,\n -]",
            "[01, 1., -.5, 1e5, 2E-3]",
            "[1e400]",
            "{\"a\" 1}",
            "{1:2}",
            "[1 2]",
            "[tru]",
            "nul",
            "\"unterminated",
            "[\"tab\there\"]",
            "{\"k\":1} x",
        ] {
            assert_eq!(json::parse(src), oracle::parse(src), "{src:?}");
        }
        let deep = "[".repeat(json::MAX_DEPTH + 1);
        assert_eq!(json::parse(&deep), oracle::parse(&deep));
    }

    fn tiny_config() -> dmsa_scenario::ScenarioConfig {
        let mut c = dmsa_scenario::ScenarioConfig::small();
        c.duration = dmsa_simcore::SimDuration::from_hours(3);
        c.workload.tasks_per_hour = 10.0;
        c.background_transfers_per_hour = 50.0;
        c.initial_datasets = 20;
        c
    }
}
