//! `dmsa serve` — a fault-hardened concurrent analysis service.
//!
//! One process loads a campaign export through the lenient quarantine
//! loader, builds a single shared [`SharedPrepared`] index, and answers
//! newline-delimited-JSON queries over TCP. The design goals, in order:
//!
//! 1. **The process survives.** Request handlers run under
//!    `catch_unwind`; a panicking request becomes an `internal_error`
//!    reply and a counter bump, never a dead server. Slow or vanished
//!    clients hit write timeouts and are dropped, never block a thread
//!    forever.
//! 2. **Overload is explicit.** Admission is bounded two ways — a
//!    connection cap (excess connections get one `overloaded` line and
//!    are closed) and an in-flight request cap (excess requests on live
//!    connections get an `overloaded` reply immediately instead of
//!    queueing without bound). Clients always learn *why* they were
//!    refused.
//! 3. **Reload is atomic.** A reload (SIGHUP or `reload` command) loads
//!    and validates the new export off the serving path, builds a fresh
//!    prepared store, and swaps it into a [`StoreSwap`] in one atomic
//!    step. In-flight requests keep the generation they started with; a
//!    failed load rolls back to the old store and records the error.
//! 4. **Shutdown drains.** SIGTERM (or the `shutdown` command) stops
//!    accepting, lets in-flight work finish up to a drain deadline, and
//!    exits cleanly.
//!
//! ## Line protocol
//!
//! One JSON object per line, one reply line per request:
//!
//! ```text
//! -> {"cmd":"health"}
//! <- {"ok":true,"cmd":"health","generation":1,...}
//! -> {"cmd":"match","method":"rm2"}
//! <- {"ok":true,"cmd":"match","method":"rm2","matched_jobs":17,...}
//! -> {"cmd":"analyze","report":"summary"}
//! <- {"ok":true,"cmd":"analyze","report":"summary","text":"jobs 100..."}
//! -> {"cmd":"reload","path":"new-campaign.json"}
//! <- {"ok":true,"cmd":"reload","generation":2}
//! ```
//!
//! Failure replies are `{"ok":false,"error":E}` with `E` one of
//! `overloaded`, `deadline_exceeded`, `bad_request`, `internal_error`,
//! `reload_failed`, `shutting_down` (plus a human `detail` where it
//! helps). The current store generation appears **only** in the `health`
//! reply, so `match`/`analyze` replies are byte-comparable across
//! reloads of identical content — the property the hot-reload atomicity
//! test locks.
//!
//! ## Reply memo
//!
//! A `match` or `analyze` reply is a pure function of the store
//! generation and the request, and operators poll the same few views
//! over one snapshot until the next refresh. Each [`StoreGen`] therefore
//! owns a fixed-size memo, built empty at load, that keeps:
//!
//! * the match sets of `exact`, `rm1`, `rm2` and `scored` at the default
//!   threshold (shared by `match` and `analyze … "method"`);
//! * the `match` reply for each of those four, with and without `full`
//!   (the method string is echoed as sent, per request);
//! * the `analyze` reply for each of the five reports × {no method,
//!   exact, rm1, rm2, scored}.
//!
//! That is at most 37 slots, so nothing is evicted and nothing is
//! tunable. The memo is retired with its generation: a reload swaps in
//! a fresh, empty one and the old one is freed with the old store, so
//! there is no invalidation code. A slot is filled only by a request
//! that computed its value inside the deadline; a deadline miss or a
//! contained panic leaves it empty. Left uncached: `health` (it carries
//! counters and uptime), `reload`, `shutdown` and `debug_*` (they act,
//! not answer), and `scored:T` at any other threshold (an unbounded key
//! space). `health` reports `memo_hits` and `memo_misses`.

use crate::export::CampaignExport;
use crate::json::{self, push_str_lit};
use crate::run::{matchset_to_json, MatcherChoice};
use crate::signals;
use dmsa_analysis::render::REPORT_NAMES;
use dmsa_core::{MatchMethod, MatchSet, ScoredMatcher, SharedPrepared, StoreSwap};
use dmsa_gridnet::HealthSummary;
use dmsa_rucio_sim::TransferPathStats;
use dmsa_simcore::interval::Interval;
use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// How many jobs a `match` request processes between deadline checks.
/// Cancellation is cooperative; this bounds how far past the deadline a
/// request can run.
const DEADLINE_STRIDE: usize = 1024;

/// How long connection threads and the accept loop sleep between polls
/// of the drain/reload/readable state. Bounds signal-to-action latency.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Tunables for [`Server::start`]. `Default` gives conservative values
/// sized for the CI smoke and the bench harness; the CLI maps flags onto
/// these.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Maximum concurrently *executing* requests before shedding.
    pub max_inflight: usize,
    /// Maximum live connections before new ones are refused.
    pub max_conns: usize,
    /// Per-request compute deadline.
    pub deadline: Duration,
    /// Per-reply socket write timeout (slow-client guard).
    pub write_timeout: Duration,
    /// How long shutdown waits for in-flight connections to finish.
    pub drain_deadline: Duration,
    /// Reloads refuse an export whose quarantined-record fraction
    /// exceeds this (a mostly-corrupt replacement must not evict a
    /// healthy store).
    pub max_quarantine_frac: f64,
    /// Maximum request-line length the server will buffer. A longer
    /// line gets a structured `bad_request` reply, its remainder is
    /// discarded through the terminating newline, and the connection
    /// stays usable — one hostile or buggy client line must not balloon
    /// server memory or cost the client its session.
    pub max_line_bytes: usize,
    /// Poll the process-global signal latches (SIGTERM drain, SIGHUP
    /// reload). Off in unit tests, on under the CLI.
    pub watch_signals: bool,
    /// Enable `debug_panic` / `debug_sleep` fault-injection commands.
    pub debug_commands: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_inflight: thread::available_parallelism().map_or(4, |n| n.get()),
            max_conns: 1024,
            deadline: Duration::from_secs(10),
            write_timeout: Duration::from_secs(5),
            drain_deadline: Duration::from_secs(5),
            max_quarantine_frac: 0.01,
            max_line_bytes: 1 << 20,
            watch_signals: false,
            debug_commands: false,
        }
    }
}

/// One immutable store generation: everything a request reads, owned
/// together so the [`StoreSwap`] can retire it as a unit when the last
/// in-flight reader drops.
pub struct StoreGen {
    /// The shared prepared index (owns the store).
    pub shared: SharedPrepared,
    /// Observation window of the export.
    pub window: Interval,
    /// Transfer-path counters of the export.
    pub path_stats: TransferPathStats,
    /// Breaker telemetry of the export, when armed.
    pub health: Option<HealthSummary>,
    /// Where this generation was loaded from (display only).
    pub source: String,
    /// Records the lenient loader quarantined while loading it.
    pub quarantined: u64,
    /// Replies already computed over this generation; built empty and
    /// retired with it.
    memo: ReplyMemo,
}

/// Memoized match sets: exact, rm1, rm2 and `scored` at
/// [`ScoredMatcher::DEFAULT_THRESHOLD`].
const MEMO_SETS: usize = 4;

/// A generation's reply memo (see "Reply memo" in the module doc): one
/// slot per cacheable key, 4 sets + 4 × 2 `match` bodies + 5 × 5
/// `analyze` replies = 37 in all, so it needs no eviction.
#[derive(Default)]
struct ReplyMemo {
    /// Match sets by [`ReplyMemo::slot`], shared by `match` and
    /// `analyze` with a `"method"`.
    sets: [OnceLock<MatchSet>; MEMO_SETS],
    /// `match` replies after the echoed method string, by slot and
    /// `full`. The echo is written per request: `scored` and
    /// `scored:0.75` share a slot but not their echo.
    match_bodies: [[OnceLock<String>; 2]; MEMO_SETS],
    /// Whole `analyze` replies by report (in [`REPORT_NAMES`] order) and
    /// method (0 for none, else 1 + slot).
    analyze: [[OnceLock<String>; MEMO_SETS + 1]; REPORT_NAMES.len()],
}

impl ReplyMemo {
    /// The memo slot of a matcher choice. `scored:T` away from the
    /// default threshold has none: its key space is unbounded.
    fn slot(choice: MatcherChoice) -> Option<usize> {
        match choice {
            MatcherChoice::Exact => Some(0),
            MatcherChoice::Rm1 => Some(1),
            MatcherChoice::Rm2 => Some(2),
            MatcherChoice::Scored(t) if t == ScoredMatcher::DEFAULT_THRESHOLD => Some(3),
            MatcherChoice::Scored(_) => None,
        }
    }
}

/// Look a value up in `slot`, computing it on a miss. The slot is filled
/// only when `compute` succeeds, so a deadline miss or a contained panic
/// leaves it empty for the next request. Requests that miss together
/// each compute the same value and the first `set` wins; `get_or_init`
/// would instead queue them behind one computation, and it cannot fail.
/// Without a slot (an uncached key) the value is computed every time.
fn memoized<'m, T: Clone, E>(
    slot: Option<&'m OnceLock<T>>,
    compute: impl FnOnce() -> Result<T, E>,
) -> Result<Cow<'m, T>, E> {
    let Some(slot) = slot else {
        return compute().map(Cow::Owned);
    };
    if let Some(v) = slot.get() {
        return Ok(Cow::Borrowed(v));
    }
    let _ = slot.set(compute()?);
    Ok(Cow::Borrowed(slot.get().expect("slot filled above")))
}

/// [`memoized`] for a whole reply, counted as a memo hit or miss (an
/// uncached key counts as neither).
fn memoized_reply<'m>(
    slot: Option<&'m OnceLock<String>>,
    counters: &Counters,
    compute: impl FnOnce() -> Result<String, String>,
) -> Result<Cow<'m, str>, String> {
    if let Some(slot) = slot {
        let counter = if slot.get().is_some() {
            &counters.memo_hits
        } else {
            &counters.memo_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
    memoized(slot, compute).map(|reply| match reply {
        Cow::Borrowed(r) => Cow::Borrowed(r.as_str()),
        Cow::Owned(r) => Cow::Owned(r),
    })
}

/// Parse + validate + index an export into a servable [`StoreGen`].
///
/// This is the *whole* reload path minus the swap: strict format-version
/// checking and record quarantine happen inside `from_json_lenient`, the
/// quarantine fraction is checked against `max_quarantine_frac`, and the
/// prepared index is built — all before the caller decides to swap. Any
/// `Err` here therefore leaves a running server untouched.
pub fn load_store_gen(
    campaign_json: &str,
    source: &str,
    max_quarantine_frac: f64,
) -> Result<StoreGen, String> {
    let loaded = CampaignExport::from_json_lenient(campaign_json)?;
    let quarantined = loaded.quarantine.total();
    if quarantined > 0 {
        let (jobs, files, transfers, _) = loaded.export.store.counts();
        let kept = (jobs + files + transfers) as u64;
        let frac = quarantined as f64 / (kept + quarantined).max(1) as f64;
        if frac > max_quarantine_frac {
            return Err(format!(
                "refusing export {source}: {quarantined} quarantined record(s) \
                 ({:.2}% > {:.2}% allowed): {}",
                100.0 * frac,
                100.0 * max_quarantine_frac,
                loaded.quarantine.one_line()
            ));
        }
    }
    let export = loaded.export;
    Ok(StoreGen {
        shared: SharedPrepared::build(export.store),
        window: export.window,
        path_stats: export.path_stats,
        health: export.health,
        source: source.to_string(),
        quarantined,
        memo: ReplyMemo::default(),
    })
}

/// Monotonic counters exposed through the `health` reply. All relaxed:
/// they are telemetry, not synchronization.
#[derive(Default)]
pub struct Counters {
    /// Requests answered with `"ok":true`.
    pub served: AtomicU64,
    /// Requests refused with `overloaded` (either cap).
    pub shed: AtomicU64,
    /// Unparseable or unknown requests.
    pub bad_requests: AtomicU64,
    /// Request handlers that panicked (and were contained).
    pub panics: AtomicU64,
    /// Requests cancelled at their deadline.
    pub deadline_exceeded: AtomicU64,
    /// Connections dropped because the client read too slowly (write
    /// timeout) or vanished mid-reply.
    pub slow_client_drops: AtomicU64,
    /// Reloads that swapped a new generation in.
    pub reloads_ok: AtomicU64,
    /// Reloads rejected with the old generation left serving.
    pub reloads_failed: AtomicU64,
    /// `match`/`analyze` replies served from the generation's memo.
    pub memo_hits: AtomicU64,
    /// `match`/`analyze` requests whose memo slot was empty.
    pub memo_misses: AtomicU64,
}

/// Shared mutable state of a running server.
pub struct ServeState {
    swap: StoreSwap<StoreGen>,
    counters: Counters,
    /// Set to stop accepting and drain.
    draining: AtomicBool,
    /// Per-server reload latch (the signal latch is process-global; this
    /// one lets tests and the `reload` command target one server).
    reload_requested: AtomicBool,
    /// Serializes reloads so two never interleave load-then-swap.
    reload_lock: Mutex<()>,
    /// Path re-read on pathless reloads; updated by `reload` with a path.
    reload_path: Mutex<Option<PathBuf>>,
    last_reload_error: Mutex<Option<String>>,
    live_conns: AtomicUsize,
    inflight: AtomicUsize,
    started: Instant,
}

impl ServeState {
    fn new(initial: StoreGen, reload_path: Option<PathBuf>) -> ServeState {
        ServeState {
            swap: StoreSwap::new(initial),
            counters: Counters::default(),
            draining: AtomicBool::new(false),
            reload_requested: AtomicBool::new(false),
            reload_lock: Mutex::new(()),
            reload_path: Mutex::new(reload_path),
            last_reload_error: Mutex::new(None),
            live_conns: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            started: Instant::now(),
        }
    }

    /// Current generation counter (bumped by every successful reload).
    pub fn generation(&self) -> u64 {
        self.swap.generation()
    }

    /// Counter block (for assertions and the drain summary).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Is the server draining?
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Reload now, synchronously: load + validate `path` (or the stored
    /// reload path), then atomically swap on success. Serialized; the
    /// serving path never blocks on this. Returns the new generation.
    pub fn reload(&self, cfg: &ServeConfig, path: Option<&PathBuf>) -> Result<u64, String> {
        let _guard = self.reload_lock.lock().unwrap();
        let path = match path {
            Some(p) => p.clone(),
            None => self
                .reload_path
                .lock()
                .unwrap()
                .clone()
                .ok_or_else(|| "no reload path configured".to_string())?,
        };
        let outcome = (|| {
            let json = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            load_store_gen(&json, &path.display().to_string(), cfg.max_quarantine_frac)
        })();
        match outcome {
            Ok(gen) => {
                let (_old, new_gen) = self.swap.swap(gen);
                *self.reload_path.lock().unwrap() = Some(path);
                *self.last_reload_error.lock().unwrap() = None;
                self.counters.reloads_ok.fetch_add(1, Ordering::Relaxed);
                Ok(new_gen)
            }
            Err(e) => {
                *self.last_reload_error.lock().unwrap() = Some(e.clone());
                self.counters.reloads_failed.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }
}

/// Outcome of [`Server::shutdown`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainOutcome {
    /// All connections finished inside the drain deadline.
    pub clean: bool,
    /// Connections still open when the deadline expired.
    pub abandoned_conns: usize,
}

/// A running serve instance. Dropping without [`Server::shutdown`]
/// requests a drain and waits for the accept thread (test convenience);
/// the CLI calls `shutdown` explicitly for the drain summary.
pub struct Server {
    state: Arc<ServeState>,
    cfg: ServeConfig,
    local_addr: SocketAddr,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept loop, and return. `reload_path` is what a
    /// pathless `reload`/SIGHUP re-reads.
    pub fn start(
        cfg: ServeConfig,
        initial: StoreGen,
        reload_path: Option<PathBuf>,
    ) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("binding {}: {e}", cfg.addr))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        let state = Arc::new(ServeState::new(initial, reload_path));
        let accept_state = Arc::clone(&state);
        let accept_cfg = cfg.clone();
        let accept_thread = thread::Builder::new()
            .name("dmsa-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_state, accept_cfg))
            .map_err(|e| format!("spawning accept loop: {e}"))?;
        Ok(Server {
            state,
            cfg,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shared state handle (tests read counters through this).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Begin draining: stop accepting, let in-flight requests finish.
    pub fn request_drain(&self) {
        self.state.draining.store(true, Ordering::Relaxed);
    }

    /// Latch a reload for the accept loop to perform.
    pub fn request_reload(&self) {
        self.state.reload_requested.store(true, Ordering::Relaxed);
    }

    /// Drain and wait: returns once all connections closed or the drain
    /// deadline expired (whichever first).
    pub fn shutdown(mut self) -> DrainOutcome {
        self.request_drain();
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let deadline = Instant::now() + self.cfg.drain_deadline;
        while self.state.live_conns.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        let abandoned = self.state.live_conns.load(Ordering::Acquire);
        DrainOutcome {
            clean: abandoned == 0,
            abandoned_conns: abandoned,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.request_drain();
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Accept loop: polls for connections, signal latches, and reload
/// requests until draining. Runs on its own thread.
fn accept_loop(listener: TcpListener, state: Arc<ServeState>, cfg: ServeConfig) {
    loop {
        if cfg.watch_signals && signals::termination_requested() {
            state.draining.store(true, Ordering::Relaxed);
        }
        if state.draining.load(Ordering::Relaxed) {
            return;
        }
        if cfg.watch_signals && signals::take_reload_request() {
            state.reload_requested.store(true, Ordering::Relaxed);
        }
        if state.reload_requested.swap(false, Ordering::Relaxed) {
            // Off the serving path by construction: requests never wait
            // on this thread. Outcome lands in counters + health.
            let _ = state.reload(&cfg, None);
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if state.live_conns.load(Ordering::Acquire) >= cfg.max_conns {
                    shed_connection(stream, &state, &cfg);
                    continue;
                }
                state.live_conns.fetch_add(1, Ordering::AcqRel);
                let conn_state = Arc::clone(&state);
                let conn_cfg = cfg.clone();
                let spawned =
                    thread::Builder::new()
                        .name("dmsa-serve-conn".into())
                        .spawn(move || {
                            handle_connection(stream, &conn_state, &conn_cfg);
                            conn_state.live_conns.fetch_sub(1, Ordering::AcqRel);
                        });
                if spawned.is_err() {
                    // Thread exhaustion is overload by another name.
                    state.live_conns.fetch_sub(1, Ordering::AcqRel);
                    state.counters.shed.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_TICK),
            Err(_) => thread::sleep(POLL_TICK),
        }
    }
}

/// Refuse a connection over the cap: one `overloaded` line, then close.
/// Best-effort — a client that won't read its refusal is simply dropped.
fn shed_connection(mut stream: TcpStream, state: &Arc<ServeState>, cfg: &ServeConfig) {
    state.counters.shed.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let _ = stream
        .write_all(b"{\"ok\":false,\"error\":\"overloaded\",\"detail\":\"connection limit\"}\n");
}

/// Per-connection loop: read request lines, answer each, until EOF,
/// drain, or a dead/slow client.
fn handle_connection(mut stream: TcpStream, state: &Arc<ServeState>, cfg: &ServeConfig) {
    // Short read timeout so the thread observes drain within a tick even
    // when the client is idle; write timeout guards against clients that
    // stop reading mid-reply.
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let _ = stream.set_nodelay(true);

    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // True while swallowing the tail of an over-long request line (the
    // reply already went out; the line itself is unusable).
    let mut discarding = false;
    loop {
        // Serve any complete lines already buffered.
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            if discarding {
                // The newline ends the oversized line; the connection
                // is back in sync from here.
                discarding = false;
                continue;
            }
            let reply = match std::str::from_utf8(&line[..line.len() - 1]) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => serve_request(line, state, cfg),
                Err(e) => {
                    state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                    err_reply(
                        "bad_request",
                        Some(&format!(
                            "request line is not UTF-8 (byte {})",
                            e.valid_up_to()
                        )),
                    )
                }
            };
            if !write_reply(&mut stream, &reply, state) {
                return;
            }
        }
        if discarding {
            buf.clear(); // still mid-line: drop the partial tail
        } else if buf.len() > cfg.max_line_bytes {
            state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            let reply = err_reply(
                "bad_request",
                Some(&format!(
                    "request line exceeds {} bytes",
                    cfg.max_line_bytes
                )),
            );
            if !write_reply(&mut stream, &reply, state) {
                return;
            }
            buf.clear();
            discarding = true;
        }
        if state.draining.load(Ordering::Relaxed) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // EOF
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue; // idle tick — re-check drain
            }
            Err(_) => return,
        }
    }
}

/// Write one reply line. Returns false (and counts the drop) if the
/// client is too slow or gone — the caller closes the connection; the
/// process carries on.
fn write_reply(stream: &mut TcpStream, reply: &str, state: &Arc<ServeState>) -> bool {
    let mut framed = String::with_capacity(reply.len() + 1);
    framed.push_str(reply);
    framed.push('\n');
    match stream
        .write_all(framed.as_bytes())
        .and_then(|()| stream.flush())
    {
        Ok(()) => true,
        Err(e) => {
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::BrokenPipe
            ) {
                state
                    .counters
                    .slow_client_drops
                    .fetch_add(1, Ordering::Relaxed);
            }
            false
        }
    }
}

/// Admission + panic containment around one request.
fn serve_request(line: &str, state: &Arc<ServeState>, cfg: &ServeConfig) -> String {
    if state.draining.load(Ordering::Relaxed) {
        return err_reply("shutting_down", None);
    }
    // Admission: take an in-flight permit or shed. The counter is the
    // entire "queue" — bounded at zero depth, so overload turns into an
    // immediate explicit refusal instead of unbounded latency.
    let admitted = state
        .inflight
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
            (n < cfg.max_inflight).then_some(n + 1)
        })
        .is_ok();
    if !admitted {
        state.counters.shed.fetch_add(1, Ordering::Relaxed);
        return err_reply("overloaded", Some("in-flight request limit"));
    }
    let result = catch_unwind(AssertUnwindSafe(|| handle_request(line, state, cfg)));
    state.inflight.fetch_sub(1, Ordering::AcqRel);
    match result {
        Ok(reply) => reply,
        Err(_) => {
            state.counters.panics.fetch_add(1, Ordering::Relaxed);
            err_reply("internal_error", Some("request handler panicked"))
        }
    }
}

fn err_reply(error: &str, detail: Option<&str>) -> String {
    let mut o = String::from("{\"ok\":false,\"error\":");
    push_str_lit(&mut o, error);
    if let Some(d) = detail {
        o.push_str(",\"detail\":");
        push_str_lit(&mut o, d);
    }
    o.push('}');
    o
}

/// Dispatch one parsed request. Runs inside the permit + catch_unwind.
fn handle_request(line: &str, state: &Arc<ServeState>, cfg: &ServeConfig) -> String {
    let req = match json::parse(line) {
        Ok(j) => j,
        Err(e) => {
            state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            return err_reply("bad_request", Some(&format!("parse: {e}")));
        }
    };
    let Some(cmd) = req.get("cmd").and_then(|c| c.as_str()) else {
        state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
        return err_reply("bad_request", Some("missing \"cmd\""));
    };
    let deadline = Instant::now() + cfg.deadline;
    let reply = match cmd {
        "health" => Ok(health_reply(state)),
        "match" => handle_match(&req, state, deadline),
        "analyze" => handle_analyze(&req, state, deadline),
        "reload" => handle_reload(&req, state, cfg),
        "shutdown" => {
            state.draining.store(true, Ordering::Relaxed);
            Ok("{\"ok\":true,\"cmd\":\"shutdown\",\"draining\":true}".to_string())
        }
        "debug_panic" if cfg.debug_commands => {
            panic!("injected panic (debug_panic)");
        }
        "debug_sleep" if cfg.debug_commands => {
            let ms = req.get("ms").and_then(|m| m.as_u64()).unwrap_or(100);
            let until = Instant::now() + Duration::from_millis(ms);
            // Sleep in slices so the deadline still cancels us.
            loop {
                let now = Instant::now();
                if now >= until {
                    break Ok("{\"ok\":true,\"cmd\":\"debug_sleep\"}".to_string());
                }
                if now >= deadline {
                    break Err(err_reply("deadline_exceeded", None));
                }
                thread::sleep(POLL_TICK.min(until - now));
            }
        }
        other => {
            state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            return err_reply("bad_request", Some(&format!("unknown cmd {other:?}")));
        }
    };
    match reply {
        Ok(r) => {
            state.counters.served.fetch_add(1, Ordering::Relaxed);
            r
        }
        Err(r) => {
            if r.contains("\"deadline_exceeded\"") {
                state
                    .counters
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
            }
            r
        }
    }
}

/// Run the chosen matcher over `gen` with cooperative deadline checks
/// every [`DEADLINE_STRIDE`] jobs. Job order equals
/// [`dmsa_core::PreparedStore::match_window`], so the result is
/// byte-identical to the offline `dmsa match` path.
fn match_with_deadline(
    gen: &StoreGen,
    choice: MatcherChoice,
    deadline: Instant,
) -> Result<MatchSet, ()> {
    let prepared = gen.shared.prepared();
    let method = match choice {
        MatcherChoice::Exact => MatchMethod::Exact,
        MatcherChoice::Rm1 => MatchMethod::Rm1,
        MatcherChoice::Rm2 => MatchMethod::Rm2,
        MatcherChoice::Scored(t) => {
            if Instant::now() > deadline {
                return Err(());
            }
            // The scored matcher has no incremental API; it runs whole
            // and the deadline is checked after (coarse cancellation).
            let set = ScoredMatcher::default().match_prepared_scored(prepared, gen.window, t);
            return if Instant::now() > deadline {
                Err(())
            } else {
                Ok(set)
            };
        }
    };
    let universe = prepared.window_universe(gen.window);
    let mut jobs = Vec::new();
    for chunk in universe.chunks(DEADLINE_STRIDE) {
        if Instant::now() > deadline {
            return Err(());
        }
        jobs.extend(chunk.iter().filter_map(|&j| prepared.match_one(j, method)));
    }
    Ok(MatchSet { method, jobs })
}

fn handle_match(
    req: &json::Json,
    state: &Arc<ServeState>,
    deadline: Instant,
) -> Result<String, String> {
    let method_str = req.get("method").and_then(|m| m.as_str()).unwrap_or("rm2");
    let choice = match MatcherChoice::parse(method_str) {
        Ok(c) => c,
        Err(e) => {
            state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            return Err(err_reply("bad_request", Some(&e)));
        }
    };
    let full = req.get("full").and_then(|f| f.as_bool()).unwrap_or(false);
    // Pin a generation for the whole request: a reload mid-request swaps
    // the slot but this Arc keeps the old store alive and consistent.
    let (gen, _g) = state.swap.load();
    let slot = ReplyMemo::slot(choice);
    let body_slot = slot.map(|i| &gen.memo.match_bodies[i][usize::from(full)]);
    let body = memoized_reply(body_slot, &state.counters, || {
        let set = memoized(slot.map(|i| &gen.memo.sets[i]), || {
            match_with_deadline(&gen, choice, deadline)
        })
        .map_err(|()| err_reply("deadline_exceeded", None))?;
        let mut o = format!(
            ",\"matched_jobs\":{},\"matched_transfers\":{}",
            set.n_matched_jobs(),
            set.n_matched_transfers()
        );
        if full {
            o.push_str(",\"set\":");
            o.push_str(&matchset_to_json(&set));
        }
        o.push('}');
        Ok(o)
    })?;
    let mut o = String::with_capacity(64 + body.len());
    o.push_str("{\"ok\":true,\"cmd\":\"match\",\"method\":");
    push_str_lit(&mut o, method_str);
    o.push_str(&body);
    Ok(o)
}

fn handle_analyze(
    req: &json::Json,
    state: &Arc<ServeState>,
    deadline: Instant,
) -> Result<String, String> {
    let Some(report) = req.get("report").and_then(|r| r.as_str()) else {
        state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
        return Err(err_reply("bad_request", Some("missing \"report\"")));
    };
    let Some(report_idx) = REPORT_NAMES.iter().position(|&r| r == report) else {
        state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
        return Err(err_reply(
            "bad_request",
            Some(&format!(
                "unknown report {report:?} ({})",
                REPORT_NAMES.join("|")
            )),
        ));
    };
    // Optional "method": co-compute a match set so the summary report
    // carries its overlap/activity tables, as the CLI does with a
    // --matches file.
    let choice = match req.get("method").and_then(|m| m.as_str()) {
        None => None,
        Some(m) => match MatcherChoice::parse(m) {
            Ok(c) => Some(c),
            Err(e) => {
                state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                return Err(err_reply("bad_request", Some(&e)));
            }
        },
    };
    let (gen, _g) = state.swap.load();
    let method_idx = match choice {
        None => Some(0),
        Some(c) => ReplyMemo::slot(c).map(|i| i + 1),
    };
    let reply_slot = method_idx.map(|m| &gen.memo.analyze[report_idx][m]);
    let reply = memoized_reply(reply_slot, &state.counters, || {
        let matches = match choice {
            None => None,
            Some(c) => Some(
                memoized(ReplyMemo::slot(c).map(|i| &gen.memo.sets[i]), || {
                    match_with_deadline(&gen, c, deadline)
                })
                .map_err(|()| err_reply("deadline_exceeded", None))?,
            ),
        };
        if Instant::now() > deadline {
            return Err(err_reply("deadline_exceeded", None));
        }
        let inputs = dmsa_analysis::render::ReportInputs {
            store: gen.shared.store(),
            window: gen.window,
            path_stats: gen.path_stats,
            health: gen.health.as_ref(),
        };
        let text =
            dmsa_analysis::render::render_report_string(&inputs, report, matches.as_deref(), None)
                .map_err(|e| err_reply("internal_error", Some(&e)))?;
        let mut o = String::from("{\"ok\":true,\"cmd\":\"analyze\",\"report\":");
        push_str_lit(&mut o, report);
        o.push_str(",\"text\":");
        push_str_lit(&mut o, &text);
        o.push('}');
        Ok(o)
    })?;
    Ok(reply.into_owned())
}

fn handle_reload(
    req: &json::Json,
    state: &Arc<ServeState>,
    cfg: &ServeConfig,
) -> Result<String, String> {
    let path = req.get("path").and_then(|p| p.as_str()).map(PathBuf::from);
    match state.reload(cfg, path.as_ref()) {
        Ok(generation) => Ok(format!(
            "{{\"ok\":true,\"cmd\":\"reload\",\"generation\":{generation}}}"
        )),
        Err(e) => Err(err_reply("reload_failed", Some(&e))),
    }
}

/// Render the `health` reply: generation, store shape, counters, reload
/// history. The only reply that carries the generation, by design.
fn health_reply(state: &Arc<ServeState>) -> String {
    let (gen, generation) = state.swap.load();
    let (jobs, files, transfers, _) = gen.shared.store().counts();
    let c = &state.counters;
    let mut o = String::with_capacity(512);
    o.push_str("{\"ok\":true,\"cmd\":\"health\"");
    o.push_str(&format!(",\"generation\":{generation}"));
    o.push_str(&format!(
        ",\"uptime_ms\":{}",
        state.started.elapsed().as_millis()
    ));
    o.push_str(&format!(
        ",\"draining\":{}",
        state.draining.load(Ordering::Relaxed)
    ));
    o.push_str(",\"store\":{");
    o.push_str(&format!(
        "\"jobs\":{jobs},\"files\":{files},\"transfers\":{transfers}"
    ));
    o.push_str(&format!(",\"quarantined\":{}", gen.quarantined));
    o.push_str(&format!(
        ",\"window_ms\":[{},{}]",
        gen.window.start.as_millis(),
        gen.window.end.as_millis()
    ));
    o.push_str(",\"source\":");
    push_str_lit(&mut o, &gen.source);
    o.push_str("},\"counters\":{");
    let pairs: [(&str, u64); 10] = [
        ("served", c.served.load(Ordering::Relaxed)),
        ("shed", c.shed.load(Ordering::Relaxed)),
        ("bad_requests", c.bad_requests.load(Ordering::Relaxed)),
        ("panics", c.panics.load(Ordering::Relaxed)),
        (
            "deadline_exceeded",
            c.deadline_exceeded.load(Ordering::Relaxed),
        ),
        (
            "slow_client_drops",
            c.slow_client_drops.load(Ordering::Relaxed),
        ),
        ("reloads_ok", c.reloads_ok.load(Ordering::Relaxed)),
        ("reloads_failed", c.reloads_failed.load(Ordering::Relaxed)),
        ("memo_hits", c.memo_hits.load(Ordering::Relaxed)),
        ("memo_misses", c.memo_misses.load(Ordering::Relaxed)),
    ];
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!("\"{k}\":{v}"));
    }
    o.push_str("},\"reload\":{\"last_error\":");
    match &*state.last_reload_error.lock().unwrap() {
        Some(e) => push_str_lit(&mut o, e),
        None => o.push_str("null"),
    }
    o.push_str("}}");
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::io::BufReader;

    fn tiny_export_json() -> String {
        tiny_export_json_seeded(dmsa_scenario::ScenarioConfig::small().seed)
    }

    fn tiny_export_json_seeded(seed: u64) -> String {
        let mut c = dmsa_scenario::ScenarioConfig::small();
        c.seed = seed;
        c.duration = dmsa_simcore::SimDuration::from_hours(3);
        c.workload.tasks_per_hour = 10.0;
        c.background_transfers_per_hour = 50.0;
        c.initial_datasets = 20;
        let campaign = dmsa_scenario::run(&c);
        CampaignExport::from_campaign(&campaign).to_json()
    }

    fn test_gen(json: &str) -> StoreGen {
        load_store_gen(json, "<test>", 0.01).expect("tiny export loads")
    }

    fn test_server(cfg: ServeConfig) -> (Server, String) {
        let json = tiny_export_json();
        let server = Server::start(cfg, test_gen(&json), None).expect("server starts");
        (server, json)
    }

    struct Client {
        stream: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            Client { stream, reader }
        }

        fn send(&mut self, line: &str) {
            self.send_bytes(line.as_bytes());
        }

        fn send_bytes(&mut self, line: &[u8]) {
            self.stream.write_all(line).unwrap();
            self.stream.write_all(b"\n").unwrap();
        }

        fn recv(&mut self) -> String {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read reply");
            line.trim_end().to_string()
        }

        fn round_trip(&mut self, line: &str) -> String {
            self.send(line);
            self.recv()
        }
    }

    #[test]
    fn health_match_analyze_round_trip() {
        let (server, _) = test_server(ServeConfig::default());
        let mut c = Client::connect(server.local_addr());

        let health = c.round_trip("{\"cmd\":\"health\"}");
        assert!(health.contains("\"ok\":true"), "{health}");
        assert!(health.contains("\"generation\":1"), "{health}");

        let m = c.round_trip("{\"cmd\":\"match\",\"method\":\"rm2\"}");
        assert!(m.contains("\"ok\":true"), "{m}");
        assert!(m.contains("\"matched_jobs\":"), "{m}");

        for report in dmsa_analysis::render::REPORT_NAMES {
            let a = c.round_trip(&format!("{{\"cmd\":\"analyze\",\"report\":\"{report}\"}}"));
            assert!(a.contains("\"ok\":true"), "report {report}: {a}");
        }

        let bad = c.round_trip("{\"cmd\":\"analyze\",\"report\":\"pie\"}");
        assert!(bad.contains("\"bad_request\""), "{bad}");
        let garbage = c.round_trip("not json");
        assert!(garbage.contains("\"bad_request\""), "{garbage}");

        let out = server.shutdown();
        assert!(out.clean, "drain left {} conns", out.abandoned_conns);
    }

    #[test]
    fn oversized_request_line_gets_a_reply_and_keeps_the_connection() {
        let cfg = ServeConfig {
            max_line_bytes: 256,
            ..ServeConfig::default()
        };
        let (server, _) = test_server(cfg);
        let mut c = Client::connect(server.local_addr());

        // 4 KiB of garbage on one line (larger than the server's read
        // chunk, so it cannot sneak through as a normal parse error):
        // structured refusal, not a hangup, not unbounded buffering.
        let huge = "x".repeat(4096);
        let reply = c.round_trip(&huge);
        assert!(reply.contains("\"bad_request\""), "{reply}");
        assert!(reply.contains("exceeds 256 bytes"), "{reply}");

        // The same connection still serves the next request.
        let health = c.round_trip("{\"cmd\":\"health\"}");
        assert!(health.contains("\"ok\":true"), "{health}");
        let out = server.shutdown();
        assert!(out.clean, "drain left {} conns", out.abandoned_conns);
    }

    #[test]
    fn hostile_lines_get_bad_request_and_the_server_lives() {
        let cfg = ServeConfig {
            max_line_bytes: 256,
            ..ServeConfig::default()
        };
        let (server, _) = test_server(cfg);
        let mut c = Client::connect(server.local_addr());
        let hostile: Vec<Vec<u8>> = vec![
            vec![b'x'; 4096],
            b"{\"cmd\":\"health\",\"x\":\"\xff\xfe\"}".to_vec(),
            b"{\"cmd\":\"health".to_vec(),
            b"{\"cmd\":\"health\",".to_vec(),
            b"{\"a\":".repeat(300),
            b"{\"cmd\":\"match\",\"method\":1e999}".to_vec(),
        ];
        for line in &hostile {
            c.send_bytes(line);
            let reply = c.recv();
            let shown = String::from_utf8_lossy(&line[..line.len().min(40)]);
            assert!(reply.contains("\"bad_request\""), "{shown}: {reply}");
            let health = c.round_trip("{\"cmd\":\"health\"}");
            assert!(health.contains("\"ok\":true"), "{shown}: {health}");
        }
        let health = c.round_trip("{\"cmd\":\"health\"}");
        let counted = format!("\"bad_requests\":{}", hostile.len());
        assert!(health.contains(&counted), "{health}");
        let out = server.shutdown();
        assert!(out.clean, "drain left {} conns", out.abandoned_conns);
    }

    #[test]
    fn match_replies_agree_with_offline_matcher() {
        let (server, json) = test_server(ServeConfig::default());
        let export = CampaignExport::from_json(&json).unwrap();
        let prepared = dmsa_core::PreparedStore::build(&export.store);
        let offline = matchset_to_json(&prepared.match_window(export.window, MatchMethod::Rm2));

        let mut c = Client::connect(server.local_addr());
        let reply = c.round_trip("{\"cmd\":\"match\",\"method\":\"rm2\",\"full\":true}");
        let parsed = json::parse(&reply).expect("reply parses");
        assert_eq!(parsed.get("ok").and_then(|o| o.as_bool()), Some(true));
        // The served set serializes byte-identically to the offline path.
        let set_start = reply.find("\"set\":").expect("full reply carries set") + 6;
        let served = &reply[set_start..reply.len() - 1];
        assert_eq!(served, offline);
        drop(server);
    }

    const METHODS: [&str; 4] = ["exact", "rm1", "rm2", "scored"];

    /// Every memoized request line with the reply the library gives for
    /// it over `json`: 4 methods × `full` for `match`, 5 reports × {no
    /// method, 4 methods} for `analyze`.
    fn library_replies(json: &str) -> Vec<(String, String)> {
        let export = CampaignExport::from_json(json).unwrap();
        let w = export.window;
        let prepared = dmsa_core::PreparedStore::build(&export.store);
        let sets = [
            prepared.match_window(w, MatchMethod::Exact),
            prepared.match_window(w, MatchMethod::Rm1),
            prepared.match_window(w, MatchMethod::Rm2),
            ScoredMatcher::default().match_jobs_scored(
                &export.store,
                w,
                ScoredMatcher::DEFAULT_THRESHOLD,
            ),
        ];
        let mut out = Vec::new();
        for (m, set) in METHODS.iter().zip(&sets) {
            for full in [false, true] {
                let mut reply = format!(
                    "{{\"ok\":true,\"cmd\":\"match\",\"method\":\"{m}\",\
                     \"matched_jobs\":{},\"matched_transfers\":{}",
                    set.n_matched_jobs(),
                    set.n_matched_transfers()
                );
                if full {
                    reply.push_str(",\"set\":");
                    reply.push_str(&matchset_to_json(set));
                }
                reply.push('}');
                let line = format!("{{\"cmd\":\"match\",\"method\":\"{m}\",\"full\":{full}}}");
                out.push((line, reply));
            }
        }
        let inputs = dmsa_analysis::render::ReportInputs {
            store: &export.store,
            window: w,
            path_stats: export.path_stats,
            health: export.health.as_ref(),
        };
        for report in REPORT_NAMES {
            let with_methods = METHODS.iter().zip(&sets).map(|(m, s)| (Some(*m), Some(s)));
            for (method, set) in [(None, None)].into_iter().chain(with_methods) {
                let text = dmsa_analysis::render::render_report_string(&inputs, report, set, None)
                    .unwrap();
                let mut reply =
                    format!("{{\"ok\":true,\"cmd\":\"analyze\",\"report\":\"{report}\"");
                reply.push_str(",\"text\":");
                push_str_lit(&mut reply, &text);
                reply.push('}');
                let line = match method {
                    None => format!("{{\"cmd\":\"analyze\",\"report\":\"{report}\"}}"),
                    Some(m) => {
                        format!(
                            "{{\"cmd\":\"analyze\",\"report\":\"{report}\",\"method\":\"{m}\"}}"
                        )
                    }
                };
                out.push((line, reply));
            }
        }
        out
    }

    fn memo_counts(server: &Server) -> (u64, u64) {
        let c = server.state().counters();
        (
            c.memo_hits.load(Ordering::Relaxed),
            c.memo_misses.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn every_memoized_key_replies_identically_twice_and_matches_the_library() {
        let (server, json) = test_server(ServeConfig::default());
        let expected = library_replies(&json);
        assert_eq!(expected.len(), 33, "8 match keys + 25 analyze keys");
        let mut c = Client::connect(server.local_addr());
        for (line, reply) in &expected {
            assert_eq!(&c.round_trip(line), reply, "first {line}");
            assert_eq!(&c.round_trip(line), reply, "second {line}");
        }
        // Each key missed once, then hit once.
        assert_eq!(memo_counts(&server), (33, 33));

        // `scored:0.75` shares the default-threshold slot (a hit) but
        // echoes its own method string.
        let echoed = c.round_trip("{\"cmd\":\"match\",\"method\":\"scored:0.75\",\"full\":true}");
        let scored_full = &expected[7].1;
        assert_eq!(
            echoed,
            scored_full.replace("\"method\":\"scored\"", "\"method\":\"scored:0.75\"")
        );
        assert_eq!(memo_counts(&server), (34, 33));

        // Uncached commands count as neither.
        assert!(c
            .round_trip("{\"cmd\":\"match\",\"method\":\"scored:0.6\"}")
            .contains("\"ok\":true"));
        assert!(c
            .round_trip("{\"cmd\":\"analyze\",\"report\":\"summary\",\"method\":\"scored:0.6\"}")
            .contains("\"ok\":true"));
        let health = c.round_trip("{\"cmd\":\"health\"}");
        assert_eq!(memo_counts(&server), (34, 33));
        assert!(
            health.contains("\"reloads_failed\":0,\"memo_hits\":34,\"memo_misses\":33}"),
            "{health}"
        );
        drop(server);
    }

    #[test]
    fn reload_to_a_different_export_serves_the_new_generation() {
        let dir = std::env::temp_dir().join(format!("dmsa-serve-memo-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let old_json = tiny_export_json();
        let new_json = tiny_export_json_seeded(dmsa_scenario::ScenarioConfig::small().seed + 1);
        let new_path = dir.join("new.json");
        std::fs::write(&new_path, &new_json).unwrap();
        let old = library_replies(&old_json);
        let new = library_replies(&new_json);
        assert!(
            old.iter().zip(&new).any(|(a, b)| a.1 != b.1),
            "the two exports must answer differently"
        );

        let server = Server::start(ServeConfig::default(), test_gen(&old_json), None).unwrap();
        let mut c = Client::connect(server.local_addr());
        for (line, reply) in old.iter().chain(&old) {
            assert_eq!(&c.round_trip(line), reply, "generation 1: {line}");
        }
        assert_eq!(memo_counts(&server), (33, 33));

        let mut path = String::new();
        push_str_lit(&mut path, &new_path.display().to_string());
        let reply = c.round_trip(&format!("{{\"cmd\":\"reload\",\"path\":{path}}}"));
        assert!(reply.contains("\"generation\":2"), "{reply}");
        for (line, reply) in new.iter().chain(&new) {
            assert_eq!(&c.round_trip(line), reply, "generation 2: {line}");
        }
        // The new generation started with an empty memo.
        assert_eq!(memo_counts(&server), (66, 66));
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_deadline_miss_leaves_the_memo_slot_empty() {
        let json = tiny_export_json();
        let expected = library_replies(&json);
        let state = Arc::new(ServeState::new(test_gen(&json), None));
        let match_line = "{\"cmd\":\"match\",\"method\":\"scored\",\"full\":true}";
        let analyze_line = "{\"cmd\":\"analyze\",\"report\":\"redundancy\",\"method\":\"scored\"}";
        let reference = |line: &str| &expected.iter().find(|(l, _)| l == line).unwrap().1;
        let scored = ReplyMemo::slot(MatcherChoice::Scored(0.75)).unwrap();
        let redundancy = REPORT_NAMES
            .iter()
            .position(|&r| r == "redundancy")
            .unwrap();

        // A 1 ms budget that has run out by the time the miss computes.
        let expired = Instant::now() + Duration::from_millis(1);
        thread::sleep(Duration::from_millis(5));
        let m = handle_match(&json::parse(match_line).unwrap(), &state, expired);
        assert_eq!(m, Err(err_reply("deadline_exceeded", None)));
        let a = handle_analyze(&json::parse(analyze_line).unwrap(), &state, expired);
        assert_eq!(a, Err(err_reply("deadline_exceeded", None)));
        {
            let (gen, _) = state.swap.load();
            assert!(gen.memo.sets[scored].get().is_none());
            assert!(gen.memo.match_bodies[scored][1].get().is_none());
            assert!(gen.memo.analyze[redundancy][scored + 1].get().is_none());
        }

        // The same requests with a generous budget succeed and fill it.
        let generous = Instant::now() + Duration::from_secs(60);
        let m = handle_match(&json::parse(match_line).unwrap(), &state, generous);
        assert_eq!(m.as_ref(), Ok(reference(match_line)));
        let a = handle_analyze(&json::parse(analyze_line).unwrap(), &state, generous);
        assert_eq!(a.as_ref(), Ok(reference(analyze_line)));
        let (gen, _) = state.swap.load();
        assert!(gen.memo.sets[scored].get().is_some());
        assert!(gen.memo.match_bodies[scored][1].get().is_some());
        assert!(gen.memo.analyze[redundancy][scored + 1].get().is_some());
    }

    #[test]
    fn a_failed_or_panicking_computation_leaves_the_slot_empty() {
        let slot: OnceLock<String> = OnceLock::new();
        assert_eq!(
            memoized(Some(&slot), || Err::<String, _>("late")),
            Err("late")
        );
        assert!(slot.get().is_none());
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            memoized::<String, ()>(Some(&slot), || panic!("injected"))
        }));
        assert!(panicked.is_err());
        assert!(slot.get().is_none());
        let filled = memoized::<_, ()>(Some(&slot), || Ok("v".to_string())).unwrap();
        assert!(matches!(filled, Cow::Borrowed(v) if v == "v"));
        // A filled slot is never recomputed.
        let again = memoized::<_, ()>(Some(&slot), || unreachable!()).unwrap();
        assert_eq!(again.as_str(), "v");
    }

    #[test]
    fn concurrent_first_requests_get_identical_bytes() {
        // Admit all four clients at once: on a host with fewer cores the
        // default in-flight limit would shed some of them instead.
        let cfg = ServeConfig {
            max_inflight: 4,
            ..ServeConfig::default()
        };
        let (server, json) = test_server(cfg);
        let expected = library_replies(&json);
        let keys: Vec<(String, String)> = expected
            .into_iter()
            .filter(|(line, _)| {
                line.contains("\"method\":\"rm2\",\"full\":true")
                    || line.contains("\"report\":\"redundancy\",\"method\":\"scored\"")
                    || line.contains("\"report\":\"summary\",\"method\":\"rm1\"")
            })
            .collect();
        assert_eq!(keys.len(), 3);
        let keys = Arc::new(keys);
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let addr = server.local_addr();
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let (keys, barrier) = (Arc::clone(&keys), Arc::clone(&barrier));
                thread::spawn(move || {
                    let mut c = Client::connect(addr);
                    barrier.wait();
                    keys.iter()
                        .map(|(line, _)| c.round_trip(line))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for client in clients {
            let replies = client.join().unwrap();
            for ((line, reference), reply) in keys.iter().zip(&replies) {
                assert_eq!(reply, reference, "{line}");
            }
        }
        let (hits, misses) = memo_counts(&server);
        assert_eq!(hits + misses, 12);
        assert!((3..=12).contains(&misses), "{misses} misses");
        drop(server);
    }

    #[test]
    fn overload_sheds_with_explicit_reply() {
        let cfg = ServeConfig {
            max_inflight: 1,
            debug_commands: true,
            ..ServeConfig::default()
        };
        let (server, _) = test_server(cfg);
        let addr = server.local_addr();

        let mut slow = Client::connect(addr);
        slow.send("{\"cmd\":\"debug_sleep\",\"ms\":1500}");
        // Give the sleeper time to take the only permit.
        thread::sleep(Duration::from_millis(300));

        let mut probe = Client::connect(addr);
        let reply = probe.round_trip("{\"cmd\":\"health\"}");
        assert!(
            reply.contains("\"error\":\"overloaded\""),
            "expected shed, got {reply}"
        );
        assert!(server.state().counters().shed.load(Ordering::Relaxed) >= 1);

        // The sleeper finishes; capacity returns.
        let done = slow.recv();
        assert!(done.contains("\"ok\":true"), "{done}");
        let after = probe.round_trip("{\"cmd\":\"health\"}");
        assert!(after.contains("\"ok\":true"), "{after}");
        drop(server);
    }

    #[test]
    fn panicking_request_is_contained() {
        let cfg = ServeConfig {
            debug_commands: true,
            ..ServeConfig::default()
        };
        let (server, _) = test_server(cfg);
        let mut c = Client::connect(server.local_addr());

        let reply = c.round_trip("{\"cmd\":\"debug_panic\"}");
        assert!(reply.contains("\"internal_error\""), "{reply}");
        assert_eq!(server.state().counters().panics.load(Ordering::Relaxed), 1);

        // Same connection still serves; the process obviously survived.
        let health = c.round_trip("{\"cmd\":\"health\"}");
        assert!(health.contains("\"ok\":true"), "{health}");
        assert!(health.contains("\"panics\":1"), "{health}");
        drop(server);
    }

    #[test]
    fn deadline_cancels_slow_requests() {
        let cfg = ServeConfig {
            deadline: Duration::from_millis(100),
            debug_commands: true,
            ..ServeConfig::default()
        };
        let (server, _) = test_server(cfg);
        let mut c = Client::connect(server.local_addr());
        let reply = c.round_trip("{\"cmd\":\"debug_sleep\",\"ms\":5000}");
        assert!(reply.contains("\"deadline_exceeded\""), "{reply}");
        assert!(
            server
                .state()
                .counters()
                .deadline_exceeded
                .load(Ordering::Relaxed)
                >= 1
        );
        drop(server);
    }

    #[test]
    fn failed_reload_rolls_back_and_reports() {
        let dir = std::env::temp_dir().join(format!("dmsa-serve-reload-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let corrupt = dir.join("corrupt.json");
        std::fs::write(&corrupt, "{\"version\":999,\"nope\":").unwrap();

        let (server, _) = test_server(ServeConfig::default());
        let mut c = Client::connect(server.local_addr());
        let before = c.round_trip("{\"cmd\":\"match\",\"method\":\"rm1\",\"full\":true}");

        let reply = c.round_trip(&format!("{{\"cmd\":\"reload\",\"path\":{}}}", {
            let mut p = String::new();
            push_str_lit(&mut p, &corrupt.display().to_string());
            p
        }));
        assert!(reply.contains("\"reload_failed\""), "{reply}");

        // Old generation still serving, byte-identically.
        let health = c.round_trip("{\"cmd\":\"health\"}");
        assert!(health.contains("\"generation\":1"), "{health}");
        assert!(health.contains("\"reloads_failed\":1"), "{health}");
        assert!(health.contains("\"last_error\":\""), "{health}");
        let after = c.round_trip("{\"cmd\":\"match\",\"method\":\"rm1\",\"full\":true}");
        assert_eq!(before, after);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn successful_reload_bumps_generation_and_swaps_store() {
        let dir = std::env::temp_dir().join(format!("dmsa-serve-swap-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let json = tiny_export_json();
        let path = dir.join("campaign.json");
        std::fs::write(&path, &json).unwrap();

        let server =
            Server::start(ServeConfig::default(), test_gen(&json), Some(path.clone())).unwrap();
        let mut c = Client::connect(server.local_addr());

        // Pathless reload re-reads the configured path.
        let reply = c.round_trip("{\"cmd\":\"reload\"}");
        assert!(reply.contains("\"generation\":2"), "{reply}");
        let health = c.round_trip("{\"cmd\":\"health\"}");
        assert!(health.contains("\"generation\":2"), "{health}");
        assert!(health.contains("\"reloads_ok\":1"), "{health}");

        // Same content → match replies identical across the swap.
        let a = c.round_trip("{\"cmd\":\"match\",\"method\":\"exact\",\"full\":true}");
        let _ = c.round_trip("{\"cmd\":\"reload\"}");
        let b = c.round_trip("{\"cmd\":\"match\",\"method\":\"exact\",\"full\":true}");
        assert_eq!(a, b, "reload of identical content changed replies");
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_drains_and_refuses_new_work() {
        let (server, _) = test_server(ServeConfig::default());
        let addr = server.local_addr();
        let mut c = Client::connect(addr);
        assert!(c.round_trip("{\"cmd\":\"health\"}").contains("\"ok\":true"));

        let reply = c.round_trip("{\"cmd\":\"shutdown\"}");
        assert!(reply.contains("\"draining\":true"), "{reply}");
        let out = server.shutdown();
        assert!(out.clean, "{} conns abandoned", out.abandoned_conns);
        // Accept loop is gone: new connections are refused or dead.
        thread::sleep(Duration::from_millis(50));
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut s) => {
                let _ = s.write_all(b"{\"cmd\":\"health\"}\n");
                let mut buf = [0u8; 64];
                let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
                let n = s.read(&mut buf).unwrap_or(0);
                assert_eq!(n, 0, "drained server must not serve new connections");
            }
        }
    }

    #[test]
    fn quarantine_threshold_refuses_mostly_corrupt_exports() {
        let json = tiny_export_json();
        // A valid export loads at any threshold.
        assert!(load_store_gen(&json, "<t>", 0.0).is_ok());
        // Garbage is refused with a loader error, not a panic.
        let err = load_store_gen("{\"version\":1", "<t>", 0.5)
            .err()
            .expect("garbage must be refused");
        assert!(!err.is_empty());
    }
}
