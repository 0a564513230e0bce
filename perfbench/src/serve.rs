//! `serve_hot` and `serve_churn`: an in-process `dmsa serve` driven
//! open-loop over its TCP protocol.
//!
//! Analysts and dashboards are independent users, so requests arrive on
//! a seeded Poisson schedule whether or not earlier ones were answered,
//! and each request is timed from when it was due. The generator runs in
//! this process: one thread sends every request when due over a pool of
//! `nproc` connections and reads replies in between.
//!
//! * `serve_hot` repeats a small key set in a weighted mix — every
//!   method with and without `full` sets, every report with and without
//!   `method`, and `health` — so a reply cache would serve it.
//! * `serve_churn` sends `match` with a distinct `scored:T` threshold on
//!   every request (nothing to cache) while a `reload` alternates the
//!   server between the exports of `seed` and `seed+1` every few seconds.
//!
//! Each run measures a fixed-rate leg (latency), a closed-loop leg
//! (saturation throughput) and a rate ladder (`max_qps`: the highest
//! rate whose tail latency stays within [`LIMIT_MS`] with no growing
//! backlog). Every reply is byte-compared to a reference the set-up
//! computed by calling the library on the same export.

use crate::layers::{self, Counts};
use crate::stats::{median, tail};
use crate::{Ctx, Report};
use dmsa_analysis::render::{render_report_string, REPORT_NAMES};
use dmsa_cli::json::push_str_lit;
use dmsa_cli::run::matchset_to_json;
use dmsa_cli::serve::{load_store_gen, ServeConfig, Server};
use dmsa_core::{MatchSet, PreparedStore, ScoredMatcher};
use dmsa_scenario::ScenarioConfig;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    Hot,
    Churn,
}

/// Export scale (paper_8day), about 0.24 M records and 31 MB.
const SCALE: f64 = 0.02;
const SMALL_SCALE: f64 = 0.002;
const SETUPS: usize = 3;
/// Tail-latency limit of a ladder step.
const LIMIT_MS: f64 = 250.0;

/// Offered rate of the fixed-rate leg, requests per second: about 120
/// samples per 30-second run, so the tail (the highest percentile with
/// ten samples beyond it) is about p92 and rests on ten samples of the
/// slow requests' body rather than on a run's few worst collisions.
const RATE: f64 = 8.0;
/// Shares of an untraced run spent on the fixed-rate leg and on the
/// closed-loop saturation leg; the ladder gets the rest.
const FIXED_SHARE: f64 = 0.5;
const SAT_SHARE: f64 = 0.35;
/// Requests each connection keeps in flight in the saturation leg: with
/// the next request already queued, a server thread never waits for the
/// generator to be scheduled, so the leg measures the server.
const SAT_WINDOW: usize = 2;
/// Requests planned per second of the saturation leg (an upper bound
/// on what it can send).
const SAT_PLAN_RATE: f64 = 1000.0;
/// Sending time of one ladder step.
const STEP_S: f64 = 1.5;
/// Rate factor between ladder steps before the first failure.
const STEP_FACTOR: f64 = 1.15;
/// First ladder rate, as a share of the saturation throughput.
const LADDER_START: f64 = 0.5;
/// Longest wait for outstanding replies after the last send.
const DRAIN_S: f64 = 15.0;
/// Nap of the generator while a full socket buffer drains.
const SEND_NAP: Duration = Duration::from_micros(500);
/// Period of the `reload` schedule (churn): reloads fall due at a fixed
/// phase of every period, so each leg holds the same number of them
/// however long one takes. A reload (load + build) takes about a second
/// here, so about one query in four runs beside one.
const RELOAD_PERIOD_S: f64 = 3.0;
/// Scored thresholds are drawn from this range (churn).
const THRESHOLDS: (f64, f64) = (0.55, 0.95);

/// splitmix64: the benchmark's own seeded stream (the program never
/// sees it, only the requests it shapes).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How a reply is judged.
enum Expect {
    /// The exact reply bytes, one per export generation ("content").
    Exact(Vec<String>),
    /// `health`: the `"store":{…}` object per content (the rest carries
    /// counters and uptime, which no reference can predict).
    Health(Vec<String>),
}

struct Key {
    line: String,
    kind: &'static str,
    expect: Expect,
}

impl Key {
    /// Bitmask of the contents this reply matches.
    fn judge(&self, reply: &[u8]) -> u8 {
        let mut mask = 0u8;
        match &self.expect {
            Expect::Exact(refs) => {
                for (i, r) in refs.iter().enumerate() {
                    if reply == r.as_bytes() {
                        mask |= 1 << i;
                    }
                }
            }
            Expect::Health(stores) => {
                let Ok(text) = std::str::from_utf8(reply) else {
                    return 0;
                };
                if text.starts_with("{\"ok\":true,\"cmd\":\"health\",\"generation\":") {
                    for (i, s) in stores.iter().enumerate() {
                        if text.contains(s.as_str()) {
                            mask |= 1 << i;
                        }
                    }
                }
            }
        }
        mask
    }
}

/// One export the server can hold, with what setup derived from it.
struct Content {
    path: PathBuf,
    /// Jobs + files + transfers.
    records: usize,
    json: String,
    /// Match sets in `MatchMethod::ALL` order, and scored at 0.75.
    sets: Vec<MatchSet>,
    scored: MatchSet,
    reports: Vec<(&'static str, String)>,
    reports_rm2: Vec<(&'static str, String)>,
    store_obj: String,
    /// Scored pair scores, ascending, and each matched job's best score,
    /// ascending (churn thresholds are answered from these).
    pair_scores: Vec<f64>,
    job_best: Vec<f64>,
}

impl Content {
    /// `(matched_jobs, matched_transfers)` of `scored:T`.
    fn scored_counts(&self, t: f64) -> (usize, usize) {
        let above = |v: &[f64]| v.len() - v.partition_point(|&s| s < t);
        (above(&self.job_best), above(&self.pair_scores))
    }
}

fn match_reply(method: &str, set: &MatchSet, full: bool) -> String {
    let mut o = String::from("{\"ok\":true,\"cmd\":\"match\",\"method\":");
    push_str_lit(&mut o, method);
    o.push_str(&format!(
        ",\"matched_jobs\":{},\"matched_transfers\":{}",
        set.n_matched_jobs(),
        set.n_matched_transfers()
    ));
    if full {
        o.push_str(",\"set\":");
        o.push_str(&matchset_to_json(set));
    }
    o.push('}');
    o
}

fn analyze_reply(report: &str, text: &str) -> String {
    let mut o = String::from("{\"ok\":true,\"cmd\":\"analyze\",\"report\":");
    push_str_lit(&mut o, report);
    o.push_str(",\"text\":");
    push_str_lit(&mut o, text);
    o.push('}');
    o
}

/// Simulate, write, load and analyse one export; derive every reference.
fn make_content(
    ctx: &Ctx,
    parent: u64,
    counts: &mut Counts,
    config: &ScenarioConfig,
    path: &Path,
) -> Result<Content, String> {
    let campaign = layers::simulate(ctx, parent, counts, config);
    let json = layers::write_export(ctx, parent, counts, &campaign, path)?;
    drop(campaign);
    let loaded = layers::load_export(ctx, parent, counts, path)?;
    if !loaded.quarantine.is_empty() {
        return Err(format!(
            "generated export quarantined {}",
            loaded.quarantine.one_line()
        ));
    }
    let export = loaded.export;
    let a = layers::analyze(ctx, parent, counts, &export)?;
    layers::check_subsumption(&a.sets)?;
    let inputs = layers::report_inputs(&export);
    let mut reports_rm2 = Vec::new();
    for &r in REPORT_NAMES {
        let text = render_report_string(&inputs, r, Some(&a.sets[2]), None)
            .map_err(|e| format!("report {r}: {e}"))?;
        reports_rm2.push((r, text));
    }
    let pairs = ScoredMatcher::default()
        .score_all_prepared(&PreparedStore::build(&export.store), export.window);
    let mut pair_scores: Vec<f64> = pairs.iter().map(|p| p.score).collect();
    pair_scores.sort_by(f64::total_cmp);
    let mut best: std::collections::BTreeMap<u32, f64> = Default::default();
    for p in &pairs {
        let b = best.entry(p.job_idx).or_insert(f64::NEG_INFINITY);
        *b = b.max(p.score);
    }
    let mut job_best: Vec<f64> = best.into_values().collect();
    job_best.sort_by(f64::total_cmp);
    let (jobs, files, transfers, _) = export.store.counts();
    let mut store_obj = format!(
        "\"store\":{{\"jobs\":{jobs},\"files\":{files},\"transfers\":{transfers},\"quarantined\":0,\"window_ms\":[{},{}],\"source\":",
        export.window.start.as_millis(),
        export.window.end.as_millis()
    );
    push_str_lit(&mut store_obj, &path.display().to_string());
    store_obj.push('}');
    let content = Content {
        path: path.to_path_buf(),
        records: jobs + files + transfers,
        json,
        sets: a.sets,
        scored: a.scored,
        reports: a.reports,
        reports_rm2,
        store_obj,
        pair_scores,
        job_best,
    };
    // The churn references threshold the library's pair scores; check
    // that reading against the library's own thresholding.
    for t in [0.6, layers::SCORED_DEFAULT, 0.9] {
        let lib = ScoredMatcher::default().match_jobs_scored(&export.store, export.window, t);
        if content.scored_counts(t) != (lib.n_matched_jobs(), lib.n_matched_transfers()) {
            return Err(format!("scored:{t} reference disagrees with the library"));
        }
    }
    Ok(content)
}

/// The repeated key set of `serve_hot`.
fn hot_keys(c: &Content) -> Vec<Key> {
    let mut keys = Vec::new();
    let methods = [
        ("exact", &c.sets[0], "match"),
        ("rm1", &c.sets[1], "match"),
        ("rm2", &c.sets[2], "match"),
        ("scored", &c.scored, "scored"),
    ];
    for (m, set, kind) in methods {
        for full in [false, true] {
            let line = if full {
                format!("{{\"cmd\":\"match\",\"method\":\"{m}\",\"full\":true}}")
            } else {
                format!("{{\"cmd\":\"match\",\"method\":\"{m}\"}}")
            };
            let kind = match (kind, full) {
                ("match", true) => "match_full",
                _ => kind,
            };
            keys.push(Key {
                line,
                kind,
                expect: Expect::Exact(vec![match_reply(m, set, full)]),
            });
        }
    }
    for ((r, text), (_, text_rm2)) in c.reports.iter().zip(&c.reports_rm2) {
        keys.push(Key {
            line: format!("{{\"cmd\":\"analyze\",\"report\":\"{r}\"}}"),
            kind: "analyze",
            expect: Expect::Exact(vec![analyze_reply(r, text)]),
        });
        keys.push(Key {
            line: format!("{{\"cmd\":\"analyze\",\"report\":\"{r}\",\"method\":\"rm2\"}}"),
            kind: "analyze",
            expect: Expect::Exact(vec![analyze_reply(r, text_rm2)]),
        });
    }
    keys.push(Key {
        line: "{\"cmd\":\"health\"}".into(),
        kind: "health",
        expect: Expect::Health(vec![c.store_obj.clone()]),
    });
    keys
}

/// Reports that take several times a match to render.
const SLOW_REPORTS: [&str; 2] = ["redundancy", "exclusion"];

/// How often each `serve_hot` key comes up in one block of the mix.
/// Dashboards poll health and match counts most: `match` with the
/// exact, RM1 and RM2 methods (30 of 70) sits in the middle, with as
/// many requests below it (`health`, 20) as above it, so the median is
/// the median `match`. The slow reports (12 of 70) form the tail: about
/// p92 lies in their middle. `scored` and the other reports come up
/// once per block.
fn hot_weight(key: &Key) -> usize {
    let slow = || {
        SLOW_REPORTS
            .iter()
            .any(|r| key.line.contains(&format!("\"report\":\"{r}\"")))
    };
    match key.kind {
        "match" | "match_full" => 5,
        "health" => 20,
        "analyze" if slow() => 3,
        _ => 1,
    }
}

/// A `scored:T` key with a threshold no other request uses.
fn churn_key(rng: &mut Rng, contents: &[Content]) -> Key {
    let t = THRESHOLDS.0 + (THRESHOLDS.1 - THRESHOLDS.0) * rng.unit();
    let method = format!("scored:{t}");
    let refs = contents
        .iter()
        .map(|c| {
            let (jobs, transfers) = c.scored_counts(t);
            let mut o = String::from("{\"ok\":true,\"cmd\":\"match\",\"method\":");
            push_str_lit(&mut o, &method);
            o.push_str(&format!(
                ",\"matched_jobs\":{jobs},\"matched_transfers\":{transfers}}}"
            ));
            o
        })
        .collect();
    Key {
        line: format!("{{\"cmd\":\"match\",\"method\":\"{method}\"}}"),
        kind: "scored",
        expect: Expect::Exact(refs),
    }
}

/// One request of a leg: due time (from the leg start) and key.
struct Planned {
    due: Duration,
    key: usize,
}

/// What happened to one request.
struct Outcome {
    key: usize,
    due: Instant,
    sent: Option<Instant>,
    recv: Option<Instant>,
    matched: u8,
}

struct Reload {
    sent: Instant,
    recv: Option<Instant>,
    target: usize,
    ok: bool,
}

struct Leg {
    outcomes: Vec<Outcome>,
    reloads: Vec<Reload>,
    lag_ms: Vec<f64>,
    backlog_max: usize,
    /// Mean backlog at sends in the first and last third of the leg.
    backlog_first: f64,
    backlog_last: f64,
    io_errors: Vec<String>,
}

/// Write all of `bytes` to a non-blocking socket.
fn send_all(stream: &mut TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    let mut off = 0;
    while off < bytes.len() {
        match stream.write(&bytes[off..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(SEND_NAP),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A reply a connection owes: to a query (index into the plan) or to a
/// `reload` (index into the leg's reloads).
#[derive(Clone, Copy)]
enum Slot {
    Query(usize),
    Reload(usize),
}

/// The connections of a leg, driven as one client pool from one thread:
/// a request that falls due goes out on an idle connection if there is
/// one (else on the one with the fewest replies outstanding), as a
/// client's connection pool would send it. Under churn the same pool
/// carries the `reload` requests, so a reload holds one connection and
/// queries use the rest.
struct Pool<'a> {
    streams: &'a mut [TcpStream],
    /// Unparsed reply bytes and replies owed, per connection.
    bufs: Vec<Vec<u8>>,
    outstanding: Vec<VecDeque<Slot>>,
    /// Queries sent and not yet answered, over the whole pool.
    in_flight: usize,
    plan: &'a [Planned],
    outcomes: Vec<Outcome>,
    lag_ms: Vec<f64>,
    /// Queries in flight at each send.
    backlog_at_send: Vec<usize>,
    next: usize,
    /// `reload` line per content, due times of the leg's reloads, the
    /// reloads sent, and the content the next one targets.
    reload_lines: &'a [String],
    reload_due: Vec<Instant>,
    reloads: Vec<Reload>,
    next_target: usize,
    err: Option<String>,
}

impl<'a> Pool<'a> {
    fn new(
        streams: &'a mut [TcpStream],
        plan: &'a [Planned],
        reload: Option<(&'a [String], usize)>,
        start: Instant,
        end: Instant,
    ) -> Self {
        let n = streams.len();
        let (reload_lines, content) = reload.unwrap_or((&[], 0));
        // Reloads fall due once per period, the first half a period in
        // (or half-way through a shorter leg), until the end.
        let period = Duration::from_secs_f64(RELOAD_PERIOD_S);
        let first = start + period.min(end - start) / 2;
        let reload_due = if reload_lines.is_empty() {
            Vec::new()
        } else {
            std::iter::successors(Some(first), |&t| Some(t + period))
                .take_while(|&t| t < end)
                .collect()
        };
        Pool {
            streams,
            bufs: vec![Vec::with_capacity(1 << 16); n],
            outstanding: vec![VecDeque::new(); n],
            in_flight: 0,
            plan,
            outcomes: plan
                .iter()
                .map(|p| Outcome {
                    key: p.key,
                    due: start + p.due,
                    sent: None,
                    recv: None,
                    matched: 0,
                })
                .collect(),
            lag_ms: Vec::with_capacity(plan.len()),
            backlog_at_send: Vec::with_capacity(plan.len()),
            next: 0,
            reload_lines,
            reload_due,
            reloads: Vec::new(),
            next_target: 1 - content,
            err: None,
        }
    }

    fn done_sending(&self, now: Instant, closed_until: Option<Instant>) -> bool {
        self.err.is_some() || self.next == self.plan.len() || closed_until.is_some_and(|u| now >= u)
    }

    fn reload_in_flight(&self) -> bool {
        self.reloads.last().is_some_and(|r| r.recv.is_none())
    }

    fn finished(&self, now: Instant, closed_until: Option<Instant>) -> bool {
        self.err.is_some()
            || (self.done_sending(now, closed_until)
                && self.reloads.len() == self.reload_due.len()
                && self.outstanding.iter().all(VecDeque::is_empty))
    }

    /// The connection with the fewest replies outstanding, avoiding one
    /// that owes a reload reply: a query queued behind a reload would
    /// wait the whole reload out.
    fn least_busy(&self) -> usize {
        (0..self.streams.len())
            .min_by_key(|&c| {
                let q = &self.outstanding[c];
                (q.iter().any(|s| matches!(s, Slot::Reload(_))), q.len())
            })
            .expect("a pool has a connection")
    }

    fn send_line(&mut self, conn: usize, line: &str) -> bool {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        match send_all(&mut self.streams[conn], &framed) {
            Ok(()) => true,
            Err(e) => {
                self.err = Some(format!("send: {e}"));
                false
            }
        }
    }

    /// Send every request that is due: the next reload once the last
    /// one is answered, then the queries. Closed loop: a query goes out
    /// whenever a connection has fewer than [`SAT_WINDOW`] in flight, and
    /// is timed from then.
    fn send_due(&mut self, keys: &[Key], now: Instant, closed_until: Option<Instant>) {
        let k = self.reloads.len();
        if self.err.is_none()
            && k < self.reload_due.len()
            && self.reload_due[k] <= now
            && !self.reload_in_flight()
        {
            let conn = self.least_busy();
            let target = self.next_target;
            let sent = Instant::now();
            if !self.send_line(conn, &self.reload_lines[target].clone()) {
                return;
            }
            self.reloads.push(Reload {
                sent,
                recv: None,
                target,
                ok: false,
            });
            self.outstanding[conn].push_back(Slot::Reload(k));
            self.next_target = 1 - target;
        }
        while !self.done_sending(now, closed_until) {
            let i = self.next;
            let conn = self.least_busy();
            match closed_until {
                None if self.outcomes[i].due > now => return,
                None => {}
                Some(_) if self.outstanding[conn].len() >= SAT_WINDOW => return,
                Some(_) => self.outcomes[i].due = now,
            }
            // Stamped before the write: a reload whose reply arrived
            // before this instant precedes the request for certain.
            let sent = Instant::now();
            if !self.send_line(conn, &keys[self.plan[i].key].line) {
                return;
            }
            self.outcomes[i].sent = Some(sent);
            self.lag_ms
                .push(1e3 * sent.duration_since(self.outcomes[i].due).as_secs_f64());
            self.outstanding[conn].push_back(Slot::Query(i));
            self.in_flight += 1;
            self.backlog_at_send.push(self.in_flight);
            self.next += 1;
        }
    }

    /// Read and judge every reply that has arrived.
    fn read_ready(&mut self, keys: &[Key], chunk: &mut [u8]) {
        for conn in 0..self.streams.len() {
            while self.err.is_none() {
                match self.streams[conn].read(chunk) {
                    Ok(0) => self.err = Some("server closed the connection".into()),
                    Ok(n) => {
                        let buf = &mut self.bufs[conn];
                        let scan_from = buf.len();
                        buf.extend_from_slice(&chunk[..n]);
                        let recv = Instant::now();
                        let mut line_start = 0;
                        let mut i = scan_from;
                        while let Some(off) = buf[i..].iter().position(|&b| b == b'\n') {
                            let end = i + off;
                            let reply = &buf[line_start..end];
                            match self.outstanding[conn].pop_front() {
                                Some(Slot::Query(idx)) => {
                                    let o = &mut self.outcomes[idx];
                                    o.recv = Some(recv);
                                    o.matched = keys[o.key].judge(reply);
                                    self.in_flight -= 1;
                                }
                                Some(Slot::Reload(r)) => {
                                    let r = &mut self.reloads[r];
                                    r.recv = Some(recv);
                                    r.ok = reply.starts_with(
                                        b"{\"ok\":true,\"cmd\":\"reload\",\"generation\":",
                                    );
                                }
                                None => self.err = Some("reply with no request outstanding".into()),
                            }
                            line_start = end + 1;
                            i = line_start;
                        }
                        buf.drain(..line_start);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => self.err = Some(format!("recv: {e}")),
                }
            }
        }
    }

    /// How long the generator may wait for a reply before it has to
    /// send: until the next query or reload is due (a reload waits for
    /// the last one's reply instead), not at all with a connection below
    /// its window in a closed loop, at most until the deadline.
    fn nap(&self, now: Instant, closed_until: Option<Instant>, deadline: Instant) -> Duration {
        let sending = !self.done_sending(now, closed_until);
        let idle = self.outstanding[self.least_busy()].len() < SAT_WINDOW;
        let mut until = deadline;
        match closed_until {
            Some(_) if sending && idle => return Duration::ZERO,
            None if sending => until = until.min(self.outcomes[self.next].due),
            _ => {}
        }
        if let Some(&due) = self.reload_due.get(self.reloads.len()) {
            if !self.reload_in_flight() {
                until = until.min(due);
            }
        }
        until.saturating_duration_since(now)
    }
}

/// Wait until a connection has bytes to read or `timeout` has passed.
/// `ppoll(2)` keeps the timeout to the nanosecond and wakes on the reply
/// itself, so the generator neither sends late nor wakes to poll while
/// the server works (socket read timeouts are rounded to the kernel
/// tick, up to 10 ms).
#[cfg(target_os = "linux")]
fn wait_readable(streams: &[TcpStream], timeout: Duration) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` holds `fds.len()` initialised pollfd records and `ts`
    // a valid timespec, both alive for the call; a null mask leaves the
    // signal mask alone. The result only decides when to read, and every
    // read that follows is non-blocking, so errors and EINTR need no
    // handling here.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

#[cfg(not(target_os = "linux"))]
fn wait_readable(_streams: &[TcpStream], timeout: Duration) {
    std::thread::sleep(timeout.min(SEND_NAP));
}

/// What the pool did in a leg.
struct PoolResult {
    outcomes: Vec<Outcome>,
    reloads: Vec<Reload>,
    lag_ms: Vec<f64>,
    backlog_at_send: Vec<usize>,
    err: Option<String>,
}

/// Drive the pool through the plan (and the reloads) on this thread,
/// the generator's only one, so it takes as little of the server's CPU
/// as it can.
fn drive_pool(
    streams: &mut [TcpStream],
    keys: &[Key],
    plan: &[Planned],
    reload: Option<(&[String], usize)>,
    start: Instant,
    end: Instant,
    closed: bool,
) -> PoolResult {
    let closed_until = closed.then_some(end);
    let last_due = plan.last().map_or(start, |p| start + p.due).max(end);
    let deadline = last_due + Duration::from_secs_f64(DRAIN_S);
    let mut pool = Pool::new(streams, plan, reload, start, end);
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        pool.send_due(keys, Instant::now(), closed_until);
        pool.read_ready(keys, &mut chunk);
        // A reply may have freed a connection a due request waits for.
        pool.send_due(keys, Instant::now(), closed_until);
        let now = Instant::now();
        if now >= deadline || pool.finished(now, closed_until) {
            break;
        }
        let nap = pool.nap(now, closed_until, deadline);
        if !nap.is_zero() {
            wait_readable(pool.streams, nap);
        }
    }
    if closed {
        pool.outcomes.truncate(pool.next);
    }
    PoolResult {
        outcomes: pool.outcomes,
        reloads: pool.reloads,
        lag_ms: pool.lag_ms,
        backlog_at_send: pool.backlog_at_send,
        err: pool.err,
    }
}

/// Poisson schedule of `rate`/s over `secs`, keys chosen by `pick`.
fn plan(
    rng: &mut Rng,
    rate: f64,
    secs: f64,
    mut pick: impl FnMut(&mut Rng) -> usize,
) -> Vec<Planned> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= secs {
            return out;
        }
        let key = pick(rng);
        out.push(Planned {
            due: Duration::from_secs_f64(t),
            key,
        });
    }
}

/// The generator's connections, kept open across legs so the server
/// serves every leg on the same connection threads.
struct Conns {
    addr: SocketAddr,
    streams: Vec<TcpStream>,
}

impl Conns {
    fn open(addr: SocketAddr, n: usize) -> Result<Conns, String> {
        let connect = || -> Result<TcpStream, String> {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            let _ = s.set_nodelay(true);
            // Non-blocking, and waited on by `wait_readable`.
            s.set_nonblocking(true)
                .map_err(|e| format!("configuring a connection: {e}"))?;
            Ok(s)
        };
        Ok(Conns {
            addr,
            streams: (0..n).map(|_| connect()).collect::<Result<_, _>>()?,
        })
    }
}

/// Run one leg: the plan, plus the reloads under churn, sent over the
/// pool. A leg that left a reply unread reopens the connections, so the
/// next leg starts in step.
fn run_leg(
    conns: &mut Conns,
    keys: &[Key],
    plan: Vec<Planned>,
    reload: Option<(&[String], usize)>,
    secs: f64,
    closed: bool,
) -> Leg {
    // Schedule from a common start a little ahead.
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(secs);
    let pooled = drive_pool(&mut conns.streams, keys, &plan, reload, start, end, closed);
    let backlog = &pooled.backlog_at_send;
    let third = backlog.len() / 3;
    let mean = |v: &[usize]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<usize>() as f64 / v.len() as f64
        }
    };
    let mut leg = Leg {
        backlog_max: backlog.iter().copied().max().unwrap_or(0),
        backlog_first: mean(&backlog[..third]),
        backlog_last: mean(&backlog[backlog.len() - third..]),
        outcomes: pooled.outcomes,
        reloads: pooled.reloads,
        lag_ms: pooled.lag_ms,
        io_errors: pooled.err.into_iter().collect(),
    };
    let unanswered = leg.outcomes.iter().any(|o| o.recv.is_none())
        || leg.reloads.iter().any(|r| r.recv.is_none());
    if !leg.io_errors.is_empty() || unanswered {
        match Conns::open(conns.addr, conns.streams.len()) {
            Ok(fresh) => *conns = fresh,
            Err(e) => leg.io_errors.push(e),
        }
    }
    leg
}

impl Leg {
    /// Contents a request's reply may come from: the one confirmed
    /// when it was sent, plus the target of any reload that overlapped it.
    fn allowed(&self, o: &Outcome, initial: usize) -> u8 {
        let (Some(sent), Some(recv)) = (o.sent, o.recv) else {
            return 0;
        };
        let mut confirmed = initial;
        let mut mask = 0u8;
        for r in &self.reloads {
            if r.recv.is_some_and(|t| t <= sent) {
                if r.ok {
                    confirmed = r.target;
                }
            } else if r.sent < recv {
                mask |= 1 << r.target;
            }
        }
        mask | (1 << confirmed)
    }

    fn ok(&self, o: &Outcome, initial: usize) -> bool {
        o.matched & self.allowed(o, initial) != 0
    }

    /// Latencies (ms, from due time) of answered, correct requests;
    /// a failed request counts as missing every limit.
    fn latencies(&self, initial: usize, kind: Option<&str>, keys: &[Key]) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| kind.is_none_or(|k| keys[o.key].kind == k))
            .map(|o| match (self.ok(o, initial), o.recv) {
                (true, Some(r)) => 1e3 * r.duration_since(o.due).as_secs_f64(),
                _ => f64::INFINITY,
            })
            .collect()
    }

    fn content_after(&self, initial: usize) -> usize {
        self.reloads
            .iter()
            .rev()
            .find(|r| r.ok)
            .map_or(initial, |r| r.target)
    }

    /// Does this ladder step meet the limit with no growing backlog?
    fn passes(&self, initial: usize, keys: &[Key]) -> bool {
        let lat = self.latencies(initial, None, keys);
        let (_, t) = tail(&lat);
        self.io_errors.is_empty()
            && t <= LIMIT_MS
            && self.backlog_last <= self.backlog_first + 2.0_f64.max(0.5 * self.backlog_first)
    }
}

/// Everything a serve run holds between set-up and measurement.
struct Setup {
    server: Server,
    contents: Vec<Content>,
    keys: Vec<Key>,
}

fn setup_once(ctx: &Ctx, mode: Mode, rep: usize, counts: &mut Counts) -> Result<Setup, String> {
    let scale = if ctx.small { SMALL_SCALE } else { SCALE };
    let dir = ctx.work.join(format!("setup-{rep}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let seeds: &[u64] = match mode {
        Mode::Hot => &[ctx.seed],
        Mode::Churn => &[ctx.seed, ctx.seed.wrapping_add(1)],
    };
    let root = ctx.tracer.span("serve.setup", 0);
    let mut contents = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let config = ScenarioConfig {
            seed,
            ..ScenarioConfig::paper_8day(scale)
        };
        contents.push(make_content(
            ctx,
            root.id(),
            counts,
            &config,
            &dir.join(format!("export-{i}.json")),
        )?);
    }
    let first = &contents[0];
    let gen = load_store_gen(&first.json, &first.path.display().to_string(), 0.01)?;
    let cfg = ServeConfig {
        max_inflight: ctx.nproc.max(2),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, gen, Some(first.path.clone()))?;
    let keys = match mode {
        Mode::Hot => hot_keys(first),
        Mode::Churn => {
            let mut rng = Rng(ctx.seed ^ 0x5eed);
            (0..4).map(|_| churn_key(&mut rng, &contents)).collect()
        }
    };
    // Warm state: every key answered (and checked) once before timing.
    let warm: Vec<Planned> = (0..keys.len())
        .map(|k| Planned {
            due: Duration::from_millis(2 * k as u64),
            key: k,
        })
        .collect();
    let mut conns = Conns::open(server.local_addr(), 1)?;
    let leg = run_leg(&mut conns, &keys, warm, None, 0.0, false);
    if let Some(e) = leg.io_errors.first() {
        return Err(format!("warm-up: {e}"));
    }
    if let Some(o) = leg.outcomes.iter().find(|o| !leg.ok(o, 0)) {
        return Err(format!(
            "warm-up reply to {} differs from the reference",
            keys[o.key].line
        ));
    }
    drop(root);
    Ok(Setup {
        server,
        contents,
        keys,
    })
}

pub fn run(ctx: &Ctx, mode: Mode) -> Result<Report, String> {
    let mut report = Report::default();
    let mut counts = Counts::default();
    // Tracing covers set-up too in the traced run: that is where this
    // workload calls the analysis layers.
    ctx.tracer.set_enabled(ctx.trace);
    let mut setup_s = Vec::new();
    let mut setup = None;
    for rep in 0..SETUPS {
        if let Some(old) = setup.take() {
            let Setup { server, .. } = old;
            server.shutdown();
        }
        let t0 = Instant::now();
        setup = Some(setup_once(ctx, mode, rep, &mut counts)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    ctx.tracer.set_enabled(false);
    let Setup {
        server,
        contents,
        keys: hot,
    } = setup.expect("at least one set-up");
    report.e2e("setup_s", median(&setup_s), "s");
    let addr = server.local_addr();

    let rate = RATE;
    let reload_lines: Vec<String> = contents
        .iter()
        .map(|c| {
            let mut line = String::from("{\"cmd\":\"reload\",\"path\":");
            push_str_lit(&mut line, &c.path.display().to_string());
            line.push('}');
            line
        })
        .collect();
    let mut content = 0usize;
    let mut rng = Rng(ctx.seed);
    report.env("loop", "open loop, Poisson arrivals, timed from due time");
    report.env("scale", if ctx.small { SMALL_SCALE } else { SCALE });
    // One pool of nproc connections carries queries and (churn) reloads.
    report.env("connections", ctx.nproc);
    report.env("generator_threads", 1);
    report.env("offered_rate_per_s", rate);
    report.env("limit_ms", LIMIT_MS);
    report.env("export_bytes", contents[0].json.len());
    report.env("records", contents[0].records);

    // Build a leg's keys and plan: hot reuses its fixed keys; churn
    // makes a fresh key (threshold) per request.
    let make_leg = |rng: &mut Rng, rate: f64, secs: f64| -> (Vec<Key>, Vec<Planned>) {
        match mode {
            Mode::Hot => {
                // Every key its weight's times per block, in shuffled
                // order: the offered mix does not drift with the draw.
                let deck: Vec<usize> = (0..hot.len())
                    .flat_map(|k| std::iter::repeat(k).take(hot_weight(&hot[k])))
                    .collect();
                let mut block: Vec<usize> = Vec::new();
                let p = plan(rng, rate, secs, |r| {
                    if block.is_empty() {
                        block = deck.clone();
                        for i in (1..block.len()).rev() {
                            block.swap(i, (r.next_u64() % (i as u64 + 1)) as usize);
                        }
                    }
                    block.pop().expect("refilled above")
                });
                (Vec::new(), p)
            }
            Mode::Churn => {
                let mut keys = Vec::new();
                let p = plan(rng, rate, secs, |r| {
                    keys.push(churn_key(r, &contents));
                    keys.len() - 1
                });
                (keys, p)
            }
        }
    };

    let mut conns = Conns::open(addr, ctx.nproc)?;
    let mut run_one = |rng: &mut Rng, rate: f64, secs: f64, content: &mut usize, closed: bool| {
        let (fresh, p) = make_leg(rng, rate, secs);
        let keys: &[Key] = if mode == Mode::Hot { &hot } else { &fresh };
        let reload = (mode == Mode::Churn).then_some((reload_lines.as_slice(), *content));
        let initial = *content;
        let leg = run_leg(&mut conns, keys, p, reload, secs, closed);
        *content = leg.content_after(initial);
        (leg, initial, fresh)
    };

    let (untraced_budget, traced_budget) = ctx.legs();
    let fixed_secs = if ctx.trace {
        untraced_budget
    } else {
        FIXED_SHARE * untraced_budget
    };
    let (leg, initial, fresh) = run_one(&mut rng, rate, fixed_secs, &mut content, false);
    let keys: &[Key] = if mode == Mode::Hot { &hot } else { &fresh };
    record_leg(&mut report, &leg, initial, keys, "fixed");
    let lat = leg.latencies(initial, None, keys);
    let p50 = median(&lat);
    let (tail_pct, tail_ms) = tail(&lat);
    report.e2e("p50_ms", p50, "ms");
    report.e2e("tail_ms", tail_ms, "ms");
    report.detail("tail_percentile", tail_pct, "pct");
    report.detail("fixed_samples", lat.len() as f64, "count");
    per_kind(&mut report, &leg, initial, keys);

    if ctx.trace {
        // The generator already timestamps every request; its spans are
        // recorded after the leg, one root span per request (the program
        // shows nothing finer from outside).
        let (tleg, tinit, tfresh) = run_one(&mut rng, rate, traced_budget, &mut content, false);
        let tkeys: &[Key] = if mode == Mode::Hot { &hot } else { &tfresh };
        ctx.tracer.set_enabled(true);
        for o in &tleg.outcomes {
            if let Some(r) = o.recv {
                let req = ctx.tracer.next_id();
                ctx.tracer
                    .record(req_span(tkeys[o.key].kind), req, 0, req, o.due, r);
            }
        }
        for r in &tleg.reloads {
            if let Some(recv) = r.recv {
                let req = ctx.tracer.next_id();
                ctx.tracer.record("serve.reload", req, 0, req, r.sent, recv);
            }
        }
        ctx.tracer.set_enabled(false);
        record_leg(&mut report, &tleg, tinit, tkeys, "traced");
        let traced_p50 = median(&tleg.latencies(tinit, None, tkeys));
        layers::emit(ctx, &counts, &mut report);
        layers::trace_summary(ctx, &REQ_SPANS, p50, traced_p50, &mut report);
    } else {
        // Saturation: every connection not owing a reload reply keeps
        // SAT_WINDOW queries in flight; replies per second is the
        // throughput.
        let sat_secs = SAT_SHARE * untraced_budget;
        let (sat, sinit, sfresh) = run_one(&mut rng, SAT_PLAN_RATE, sat_secs, &mut content, true);
        let skeys: &[Key] = if mode == Mode::Hot { &hot } else { &sfresh };
        record_leg(&mut report, &sat, sinit, skeys, "saturation");
        let first = sat.outcomes.iter().map(|o| o.due).min();
        let last = sat.outcomes.iter().filter_map(|o| o.recv).max();
        let saturated = match (first, last) {
            (Some(a), Some(b)) if b > a => {
                sat.outcomes.len() as f64 / b.duration_since(a).as_secs_f64()
            }
            _ => 0.0,
        };
        report.e2e("throughput_per_s", saturated, "1/s");
        report.detail("saturation_per_s", saturated, "1/s");

        // Ladder: from below saturation, raise the open-loop rate until
        // a step misses the limit, then bisect; max_qps is the highest
        // rate that passed.
        let ladder_budget = untraced_budget - fixed_secs - sat_secs;
        let t0 = Instant::now();
        let mut lo: Option<f64> = None;
        let mut hi: Option<f64> = None;
        let mut r = (LADDER_START * saturated).max(rate);
        let mut steps = Vec::new();
        while t0.elapsed().as_secs_f64() + STEP_S <= ladder_budget || steps.is_empty() {
            let (leg, initial, fresh) = run_one(&mut rng, r, STEP_S, &mut content, false);
            let keys: &[Key] = if mode == Mode::Hot { &hot } else { &fresh };
            let pass = leg.passes(initial, keys);
            record_leg(&mut report, &leg, initial, keys, "ladder");
            steps.push(format!("{r:.1}:{}", if pass { "ok" } else { "miss" }));
            if pass {
                lo = Some(r);
            } else {
                hi = Some(r);
            }
            r = match (lo, hi) {
                (Some(l), Some(h)) => (l * h).sqrt(),
                (Some(l), None) => l * STEP_FACTOR,
                (None, Some(h)) => h / STEP_FACTOR,
                (None, None) => unreachable!("a step always sets a bound"),
            };
        }
        report.env("ladder", steps.join(" "));
        report.detail("max_qps", lo.unwrap_or(0.0), "1/s");
    }

    let c = server.state().counters();
    for (name, v) in [
        ("serve.served", &c.served),
        ("serve.shed", &c.shed),
        ("serve.deadline_exceeded", &c.deadline_exceeded),
        ("serve.bad_requests", &c.bad_requests),
        ("serve.panics", &c.panics),
        ("serve.slow_client_drops", &c.slow_client_drops),
    ] {
        report.layer(name, v.load(Ordering::Relaxed) as f64, "count");
    }
    report.layer(
        "serve.reloads",
        (c.reloads_ok.load(Ordering::Relaxed) + c.reloads_failed.load(Ordering::Relaxed)) as f64,
        "count",
    );
    drop(conns);
    let drained = server.shutdown();
    report.check(drained.clean, || {
        format!("drain abandoned {} connection(s)", drained.abandoned_conns)
    });
    Ok(report)
}

/// Span names of served requests, one per request kind.
const REQ_SPANS: [&str; 6] = [
    "serve.match",
    "serve.match_full",
    "serve.scored",
    "serve.analyze",
    "serve.health",
    "serve.reload",
];

fn req_span(kind: &str) -> &'static str {
    REQ_SPANS
        .iter()
        .find(|s| s.strip_prefix("serve.") == Some(kind))
        .copied()
        .unwrap_or("serve.health")
}

/// Count a leg's requests and reloads as checked operations. Ladder
/// steps past capacity may miss their deadline; only wrong or missing
/// replies fail there.
fn record_leg(report: &mut Report, leg: &Leg, initial: usize, keys: &[Key], what: &str) {
    for e in &leg.io_errors {
        report.check(false, || format!("{what} leg: {e}"));
    }
    for o in &leg.outcomes {
        let ok = leg.ok(o, initial);
        report.check(ok, || {
            let got = if o.recv.is_none() {
                "no reply"
            } else {
                "a reply matching no reference"
            };
            format!("{what} leg: {} got {got}", keys[o.key].line)
        });
    }
    for r in &leg.reloads {
        report.check(r.ok, || {
            format!("{what} leg: reload to content {} failed", r.target)
        });
    }
    let prev = report
        .layer
        .iter()
        .find(|m| m.name == "serve.backlog_max")
        .map_or(0.0, |m| m.value);
    report.layer(
        "serve.backlog_max",
        prev.max(leg.backlog_max as f64),
        "count",
    );
}

fn per_kind(report: &mut Report, leg: &Leg, initial: usize, keys: &[Key]) {
    for kind in ["match", "match_full", "scored", "analyze", "health"] {
        let lat = leg.latencies(initial, Some(kind), keys);
        if lat.is_empty() {
            continue;
        }
        report.detail(&format!("serve.{kind}_p50_ms"), median(&lat), "ms");
        report.detail(&format!("serve.{kind}_tail_ms"), tail(&lat).1, "ms");
        report.detail(&format!("serve.{kind}_n"), lat.len() as f64, "count");
    }
    if !leg.reloads.is_empty() {
        let lat: Vec<f64> = leg
            .reloads
            .iter()
            .filter_map(|r| r.recv.map(|t| 1e3 * t.duration_since(r.sent).as_secs_f64()))
            .collect();
        report.detail("serve.reload_p50_ms", median(&lat), "ms");
        report.detail("serve.reload_tail_ms", tail(&lat).1, "ms");
        report.detail("serve.reload_n", lat.len() as f64, "count");
    }
    report.detail("serve.gen_lag_ms", tail(&leg.lag_ms).1, "ms");
    report.detail(
        "serve.gen_lag_max_ms",
        leg.lag_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    report.detail("serve.backlog_max", leg.backlog_max as f64, "count");
}
