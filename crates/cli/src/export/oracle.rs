//! The original tree-based campaign loader, kept as a differential test
//! oracle: the JSON tree parser that tracked line/column per byte, and
//! the loader that parsed a whole export into that tree and then walked
//! it record by record. The streaming loader in [`super`] must return
//! exactly what this returns — the same error string, or the same
//! store and quarantine report — on every input.
//!
//! Test-only: compiled into the library's unit tests, and included by
//! path from `tests/proptest_export.rs`, so it reaches the crate only
//! through public items.

use super::json::{Json, ParseError, Value, MAX_DEPTH};
use super::{parse_config, CampaignExport, LoadedExport, QuarantineReport, FORMAT_VERSION};
use dmsa_gridnet::{HealthCounters, HealthSubject, HealthSummary, OpenEpisode, SiteId};
use dmsa_metastore::{
    FileDirection, FileRecord, JobRecord, MetaStore, Sym, SymbolTable, TransferRecord,
};
use dmsa_panda_sim::{IoMode, JobStatus, TaskStatus};
use dmsa_rucio_sim::{Activity, TransferPathStats};
use dmsa_simcore::interval::Interval;
use dmsa_simcore::SimTime;
use std::collections::HashSet;

/// Why a record was quarantined (the reference taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    BadUtf8,
    OutOfRangeTime,
    UnknownSiteSym,
    VersionSkew,
    Malformed,
}

/// The reference `QuarantineReport::note`: count, keep eight examples.
fn note(q: &mut QuarantineReport, kind: Kind, example: String) {
    match kind {
        Kind::BadUtf8 => q.bad_utf8 += 1,
        Kind::OutOfRangeTime => q.out_of_range_time += 1,
        Kind::UnknownSiteSym => q.unknown_site_sym += 1,
        Kind::VersionSkew => q.version_skew += 1,
        Kind::Malformed => q.malformed += 1,
    }
    if q.examples.len() < 8 {
        q.examples.push(example);
    }
}

// ---------------------------------------------------------------------------
// The reference JSON tree parser
// ---------------------------------------------------------------------------

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing characters after the JSON document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            what: what.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Advance one byte, maintaining the line/column counters. Multi-byte
    /// UTF-8 sequences advance the column once, on their leading byte.
    fn bump(&mut self) {
        if let Some(b) = self.peek() {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else if b & 0xC0 != 0x80 {
                self.col += 1;
            }
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        let (line, col) = (self.line, self.col);
        let wrap = |value| Json { value, line, col };
        match self.peek() {
            Some(b'{') => self.nested(Self::object).map(wrap),
            Some(b'[') => self.nested(Self::array).map(wrap),
            Some(b'"') => self.string().map(|s| wrap(Value::Str(s))),
            Some(b't') => self.keyword("true").map(|()| wrap(Value::Bool(true))),
            Some(b'f') => self.keyword("false").map(|()| wrap(Value::Bool(false))),
            Some(b'n') => self.keyword("null").map(|()| wrap(Value::Null)),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                self.number().map(|n| wrap(Value::Num(n)))
            }
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            for _ in 0..kw.len() {
                self.bump();
            }
            Ok(())
        } else {
            Err(self.err(format!("expected {kw:?}")))
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        let (line, col) = (self.line, self.col);
        if self.peek() == Some(b'-') {
            self.bump();
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        if self.peek() == Some(b'.') {
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .ok_or(ParseError {
                line,
                col,
                what: format!("invalid number {text:?}"),
            })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.bump();
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.bump();
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.bump();
                            let cp = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair: require the low half.
                                self.keyword("\\u")
                                    .map_err(|_| self.err("lone high surrogate"))?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.bump();
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.bump();
                    }
                    // The source is a &str, so the slice is valid UTF-8.
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf-8 source"),
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        // Called with `pos` on the first hex digit ('u' already consumed).
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape")),
            };
            v = v * 16 + d;
            self.bump();
        }
        Ok(v)
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.bump(),
                Some(b']') => {
                    self.bump();
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key_pos = (self.line, self.col);
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(ParseError {
                    line: key_pos.0,
                    col: key_pos.1,
                    what: format!("duplicate key {key:?}"),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.bump(),
                Some(b'}') => {
                    self.bump();
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The reference loader
// ---------------------------------------------------------------------------

/// Deserialize from JSON, **leniently**: the export is validated
/// section by section and malformed records are quarantined (counted
/// by error kind, dropped from the store) rather than failing the
/// load. Only damage that makes the export meaningless is fatal: an
/// unparseable document, a missing/broken required section, or a
/// format version newer than this build supports.
pub fn from_json_lenient(src: &str) -> Result<LoadedExport, String> {
    let root = parse(src).map_err(|e| format!("campaign parse error {e}"))?;
    if root.get("version").is_none() && !matches!(root.value, Value::Obj(_)) {
        return Err(format!(
            "campaign export must be a JSON object, {}",
            root.at()
        ));
    }
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

    let config = parse_config(section(&root, "config")?)?;

    let wj = section(&root, "window")?;
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

    let mut q = QuarantineReport::default();

    // Symbol table: rebuilt by interning in file order so every Sym id
    // in the records resolves to the same string it was written under.
    let sj = section(&root, "symbols")?;
    let sym_arr = sj
        .as_arr()
        .ok_or_else(|| format!("\"symbols\" must be an array {}", sj.at()))?;
    let mut symbols = SymbolTable::new();
    for (i, el) in sym_arr.iter().enumerate() {
        let s = el
            .as_str()
            .ok_or_else(|| format!("symbol {i} is not a string {}", el.at()))?;
        if i == 0 {
            if s != "UNKNOWN" {
                return Err(format!(
                    "symbol 0 must be the UNKNOWN sentinel, found {s:?} {}",
                    el.at()
                ));
            }
            continue; // already interned by SymbolTable::new()
        }
        let sym = symbols.intern(s);
        if sym.0 as usize != i {
            return Err(format!("duplicate symbol {s:?} {}", el.at()));
        }
    }
    let n_syms = symbols.len() as u32;

    let mut valid_sites: HashSet<Sym> = HashSet::new();
    let vj = section(&root, "valid_sites")?;
    let site_arr = vj
        .as_arr()
        .ok_or_else(|| format!("\"valid_sites\" must be an array {}", vj.at()))?;
    for (i, el) in site_arr.iter().enumerate() {
        match el.as_u64() {
            Some(s) if s < n_syms as u64 => {
                valid_sites.insert(Sym(s as u32));
            }
            Some(s) => note(
                &mut q,
                Kind::UnknownSiteSym,
                format!(
                    "valid_sites[{i}] {}: symbol {s} past table of {n_syms}",
                    el.at()
                ),
            ),
            None => note(
                &mut q,
                Kind::Malformed,
                format!("valid_sites[{i}] {}: not a symbol id", el.at()),
            ),
        }
    }

    let jobs = load_section(&root, "jobs", &mut q, |el| parse_job(el, n_syms))?;
    let files = load_section(&root, "files", &mut q, |el| parse_file(el, n_syms))?;
    let transfers = load_section(&root, "transfers", &mut q, |el| parse_transfer(el, n_syms))?;

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

fn section<'a>(root: &'a Json, key: &str) -> Result<&'a Json, String> {
    root.get(key)
        .ok_or_else(|| format!("campaign export has no {key:?} section ({})", root.at()))
}

/// Stream one record section through `parse`, quarantining failures.
fn load_section<T>(
    root: &Json,
    key: &str,
    q: &mut QuarantineReport,
    parse: impl Fn(&Json) -> Result<T, (Kind, String)>,
) -> Result<Vec<T>, String> {
    let sj = section(root, key)?;
    let arr = sj
        .as_arr()
        .ok_or_else(|| format!("{key:?} must be an array {}", sj.at()))?;
    let mut out = Vec::with_capacity(arr.len());
    for (i, el) in arr.iter().enumerate() {
        match parse(el) {
            Ok(v) => out.push(v),
            Err((kind, what)) => note(q, kind, format!("{key}[{i}] {}: {what}", el.at())),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Record parsers (quarantine on failure)
// ---------------------------------------------------------------------------

type RecErr = (Kind, String);

/// A record must be an array of exactly `arity` fields. Fewer is broken
/// structure; *more* means a newer writer appended fields — version skew.
fn rec_arr(el: &Json, arity: usize) -> Result<&[Json], RecErr> {
    let arr = el
        .as_arr()
        .ok_or((Kind::Malformed, "record is not an array".to_string()))?;
    if arr.len() < arity {
        return Err((
            Kind::Malformed,
            format!("expected {arity} fields, got {}", arr.len()),
        ));
    }
    if arr.len() > arity {
        return Err((
            Kind::VersionSkew,
            format!("{} fields where this build knows {arity}", arr.len()),
        ));
    }
    Ok(arr)
}

fn rec_u64(el: &Json, what: &str) -> Result<u64, RecErr> {
    el.as_u64().ok_or_else(|| {
        (
            Kind::Malformed,
            format!("{what} is not an unsigned integer"),
        )
    })
}

fn rec_bool(el: &Json, what: &str) -> Result<bool, RecErr> {
    el.as_bool()
        .ok_or_else(|| (Kind::Malformed, format!("{what} is not a boolean")))
}

fn rec_time(el: &Json, what: &str) -> Result<SimTime, RecErr> {
    let ms = el
        .as_i64()
        .ok_or_else(|| (Kind::Malformed, format!("{what} is not a timestamp")))?;
    if ms < 0 {
        return Err((
            Kind::OutOfRangeTime,
            format!("{what} is negative ({ms} ms)"),
        ));
    }
    Ok(SimTime::from_millis(ms))
}

fn rec_span(arr: &[Json], si: usize, ei: usize, what: &str) -> Result<(SimTime, SimTime), RecErr> {
    let s = rec_time(&arr[si], &format!("{what} start"))?;
    let e = rec_time(&arr[ei], &format!("{what} end"))?;
    if e < s {
        return Err((
            Kind::OutOfRangeTime,
            format!(
                "{what} ends before it starts ({} < {} ms)",
                e.as_millis(),
                s.as_millis()
            ),
        ));
    }
    Ok((s, e))
}

fn rec_sym(el: &Json, n_syms: u32, what: &str) -> Result<Sym, RecErr> {
    let v = rec_u64(el, what)?;
    if v >= n_syms as u64 {
        return Err((
            Kind::UnknownSiteSym,
            format!("{what} references symbol {v}, table has {n_syms}"),
        ));
    }
    Ok(Sym(v as u32))
}

fn rec_enum<'a>(el: &'a Json, what: &str) -> Result<&'a str, RecErr> {
    let s = el
        .as_str()
        .ok_or_else(|| (Kind::Malformed, format!("{what} is not a string")))?;
    if s.contains('\u{FFFD}') {
        return Err((
            Kind::BadUtf8,
            format!("{what} contains lossily-decoded bytes"),
        ));
    }
    Ok(s)
}

fn rec_opt_u64(el: &Json, what: &str) -> Result<Option<u64>, RecErr> {
    if el.is_null() {
        Ok(None)
    } else {
        rec_u64(el, what).map(Some)
    }
}

fn parse_job(el: &Json, n_syms: u32) -> Result<JobRecord, RecErr> {
    let a = rec_arr(el, 13)?;
    let creationtime = rec_time(&a[3], "creationtime")?;
    let (starttime, endtime) = rec_span(a, 4, 5, "job")?;
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

fn parse_file(el: &Json, n_syms: u32) -> Result<FileRecord, RecErr> {
    let a = rec_arr(el, 8)?;
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

fn parse_transfer(el: &Json, n_syms: u32) -> Result<TransferRecord, RecErr> {
    let a = rec_arr(el, 20)?;
    let (starttime, endtime) = rec_span(a, 6, 7, "transfer")?;
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
    (
        Kind::VersionSkew,
        format!("unknown {what} value {found:?} (newer writer?)"),
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
            Err((kind, what)) => note(q, kind, format!("health.episodes[{i}] {}: {what}", el.at())),
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
        let v = rec_u64(e, what)?;
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
        rec_time(&arr[ti], "episode from")?,
        rec_time(&arr[ti + 1], "episode until")?,
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
