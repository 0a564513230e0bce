//! Fault drill: one `dmsa serve` instance survives, in order, an
//! overload burst (explicit sheds), a panicking request, a request that
//! blows its deadline, a slow client that never reads its replies, a
//! hot reload raced by concurrent match queries, and a reload from a
//! corrupt export — then drains clean. Match replies must stay
//! byte-identical through all of it: across the sheds, the panic, the
//! good reload, and the rolled-back one.

use dmsa_cli::serve::{load_store_gen, ServeConfig, Server};
use dmsa_cli::CampaignExport;
use dmsa_scenario::ScenarioConfig;
use dmsa_simcore::SimDuration;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn tiny_export_json() -> String {
    let mut c = ScenarioConfig::small();
    c.duration = SimDuration::from_hours(3);
    c.workload.tasks_per_hour = 10.0;
    c.background_transfers_per_hour = 50.0;
    c.initial_datasets = 20;
    let campaign = dmsa_scenario::run(&c);
    CampaignExport::from_campaign(&campaign).to_json()
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .expect("send");
    }

    fn recv(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("recv");
        reply.trim_end().to_string()
    }

    fn round_trip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

const MATCH_FULL: &str = "{\"cmd\":\"match\",\"method\":\"rm2\",\"full\":true}";

#[test]
fn fault_drill_survives_overload_panic_slow_clients_and_corrupt_reload() {
    let json = tiny_export_json();
    let dir = std::env::temp_dir().join(format!("dmsa-serve-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let export_path = dir.join("export.json");
    std::fs::write(&export_path, &json).expect("write export");
    let corrupt_path = dir.join("corrupt.json");
    std::fs::write(&corrupt_path, b"{\"jobs\": this is not an export").expect("write corrupt");

    let cfg = ServeConfig {
        max_inflight: 4,
        deadline: Duration::from_secs(1),
        write_timeout: Duration::from_millis(300),
        debug_commands: true,
        ..ServeConfig::default()
    };
    let server = Server::start(
        cfg,
        load_store_gen(&json, "<drill>", 0.01).expect("export loads"),
        Some(export_path.clone()),
    )
    .expect("server starts");
    let addr = server.local_addr();
    let mut client = Client::connect(addr);

    // Baseline: the reference match reply every later phase must match.
    let reference = client.round_trip(MATCH_FULL);
    assert!(reference.contains("\"ok\":true"), "{reference}");
    assert!(client
        .round_trip("{\"cmd\":\"health\"}")
        .contains("\"generation\":1"));

    // --- Overload: fill all 4 slots with sleepers, expect a shed. ----
    let barrier = Arc::new(Barrier::new(5));
    let sleepers: Vec<_> = (0..4)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                barrier.wait();
                let reply = c.round_trip("{\"cmd\":\"debug_sleep\",\"ms\":600}");
                assert!(reply.contains("\"ok\":true"), "sleeper: {reply}");
            })
        })
        .collect();
    barrier.wait();
    // All 4 slots are held for 600 ms once the sleepers are admitted;
    // probe until one of our requests lands inside that window.
    let deadline = Instant::now() + Duration::from_millis(450);
    let mut saw_shed = false;
    while Instant::now() < deadline {
        let reply = client.round_trip(MATCH_FULL);
        if reply.contains("\"error\":\"overloaded\"") {
            saw_shed = true;
            break;
        }
        assert_eq!(reply, reference, "non-shed replies stay identical");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(saw_shed, "no request was shed while all slots slept");
    for s in sleepers {
        s.join().expect("sleeper thread");
    }

    // --- Panic containment: the request fails, the server does not. --
    let reply = client.round_trip("{\"cmd\":\"debug_panic\"}");
    assert!(reply.contains("\"error\":\"internal_error\""), "{reply}");
    assert_eq!(client.round_trip(MATCH_FULL), reference);

    // --- Deadline: a request slower than the budget is cancelled. ----
    let reply = client.round_trip("{\"cmd\":\"debug_sleep\",\"ms\":2500}");
    assert!(reply.contains("\"error\":\"deadline_exceeded\""), "{reply}");
    assert_eq!(client.round_trip(MATCH_FULL), reference);

    // --- Slow client: floods requests, never reads; the server must
    // cut it loose on the write timeout instead of blocking a thread
    // forever. Push enough reply bytes to overflow the socket buffers.
    let requests = (8 << 20) / reference.len() + 16;
    let mut slow = Client::connect(addr);
    let mut burst = String::new();
    for _ in 0..requests {
        burst.push_str(MATCH_FULL);
        burst.push('\n');
    }
    // The server stops reading once its reply write blocks, so a single
    // huge send could block *us*; write from a throwaway thread.
    let writer = std::thread::spawn(move || {
        let _ = slow.stream.write_all(burst.as_bytes());
        slow // keep the socket open (unread) until the server drops it
    });
    let state = Arc::clone(server.state());
    let cut = Instant::now() + Duration::from_secs(10);
    while state.counters().slow_client_drops.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < cut, "server never dropped the slow client");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(writer); // let it finish on its own; the drop below closes the socket
    assert_eq!(
        client.round_trip(MATCH_FULL),
        reference,
        "healthy client unaffected"
    );

    // --- Hot reload raced by live queries: every reply byte-identical
    // across the swap; a corrupt reload rolls back without a wobble. --
    let stop = Arc::new(AtomicBool::new(false));
    let racers: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let mut n = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    assert_eq!(
                        c.round_trip(MATCH_FULL),
                        reference,
                        "reply changed mid-reload"
                    );
                    n += 1;
                }
                n
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let reply = client.round_trip("{\"cmd\":\"reload\"}");
    assert!(
        reply.contains("\"ok\":true") && reply.contains("\"generation\":2"),
        "{reply}"
    );
    std::thread::sleep(Duration::from_millis(50));
    let corrupt_req = format!(
        "{{\"cmd\":\"reload\",\"path\":{:?}}}",
        corrupt_path.to_str().expect("utf-8 path")
    );
    let reply = client.round_trip(&corrupt_req);
    assert!(reply.contains("\"error\":\"reload_failed\""), "{reply}");
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    for r in racers {
        assert!(r.join().expect("racer thread") > 0, "racer never queried");
    }
    // The failed reload rolled back: generation 2 still serves.
    let health = client.round_trip("{\"cmd\":\"health\"}");
    assert!(health.contains("\"generation\":2"), "{health}");
    assert!(health.contains("\"reloads_ok\":1"), "{health}");
    assert!(health.contains("\"reloads_failed\":1"), "{health}");
    assert_eq!(client.round_trip(MATCH_FULL), reference);

    // --- Every fault left a trace, and the drain is clean. -----------
    let c = state.counters();
    assert!(c.shed.load(Ordering::Relaxed) >= 1);
    assert_eq!(c.panics.load(Ordering::Relaxed), 1);
    assert!(c.deadline_exceeded.load(Ordering::Relaxed) >= 1);
    assert!(c.slow_client_drops.load(Ordering::Relaxed) >= 1);
    drop(client);
    let drained = server.shutdown();
    assert!(drained.clean, "abandoned {} conns", drained.abandoned_conns);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reload_path_round_trips_through_the_pathless_default() {
    // A server started with a reload path re-reads that file on a
    // pathless reload — the SIGHUP contract — and a reload pointed at a
    // missing file reports the error without dropping the store.
    let json = tiny_export_json();
    let dir = std::env::temp_dir().join(format!("dmsa-serve-hup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let export_path = dir.join("export.json");
    std::fs::write(&export_path, &json).expect("write export");

    let server = Server::start(
        ServeConfig::default(),
        load_store_gen(&json, "<hup>", 0.01).expect("export loads"),
        Some(export_path.clone()),
    )
    .expect("server starts");
    let mut client = Client::connect(server.local_addr());
    let reference = client.round_trip(MATCH_FULL);

    assert!(client
        .round_trip("{\"cmd\":\"reload\"}")
        .contains("\"generation\":2"));
    assert_eq!(client.round_trip(MATCH_FULL), reference);

    let missing = dir.join("nope.json");
    let reply = client.round_trip(&format!(
        "{{\"cmd\":\"reload\",\"path\":{:?}}}",
        missing.to_str().expect("utf-8 path")
    ));
    assert!(reply.contains("\"error\":\"reload_failed\""), "{reply}");
    assert_eq!(client.round_trip(MATCH_FULL), reference);

    drop(client);
    assert!(server.shutdown().clean);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_refuses_new_connections_but_finishes_inflight_work() {
    let json = tiny_export_json();
    let server = Server::start(
        ServeConfig {
            debug_commands: true,
            ..ServeConfig::default()
        },
        load_store_gen(&json, "<drain>", 0.01).expect("export loads"),
        None,
    )
    .expect("server starts");
    let addr = server.local_addr();

    // A request already in flight when the drain starts must complete.
    let mut c = Client::connect(addr);
    c.send("{\"cmd\":\"debug_sleep\",\"ms\":400}");
    std::thread::sleep(Duration::from_millis(100));
    server.request_drain();
    let reply = c.recv();
    assert!(
        reply.contains("\"ok\":true"),
        "in-flight work dropped: {reply}"
    );

    // The same connection gets no further service: either an explicit
    // shutting_down refusal (request raced in before the drain tick) or
    // a straight close — never a served reply.
    let served = c
        .stream
        .write_all(MATCH_FULL.as_bytes())
        .and_then(|()| c.stream.write_all(b"\n"))
        .ok()
        .map(|()| {
            let mut reply = String::new();
            let _ = c.reader.read_line(&mut reply);
            reply
        });
    match served {
        None => {}                    // write failed: closed
        Some(r) if r.is_empty() => {} // EOF: closed
        Some(r) => assert!(
            r.contains("\"error\":\"shutting_down\""),
            "drained server served a request: {r}"
        ),
    }
    drop(c);
    // ...and the drain completes clean.
    assert!(server.shutdown().clean);
}

#[test]
fn hostile_nesting_gets_bad_request_and_the_connection_survives() {
    // 500 KB of `[` on one line: under the line cap, so it reaches the
    // JSON reader, whose nesting cap must refuse it instead of
    // overflowing the connection thread's stack and aborting the process.
    let json = tiny_export_json();
    let server = Server::start(
        ServeConfig::default(),
        load_store_gen(&json, "<nesting>", 0.01).expect("export loads"),
        None,
    )
    .expect("server starts");
    let mut client = Client::connect(server.local_addr());
    for hostile in ["[".repeat(500 * 1024), "{\"a\":".repeat(100 * 1024)] {
        let reply = client.round_trip(&hostile);
        assert!(reply.contains("\"error\":\"bad_request\""), "{reply}");
        assert!(reply.contains("nesting deeper than"), "{reply}");
        let health = client.round_trip("{\"cmd\":\"health\"}");
        assert!(health.contains("\"ok\":true"), "{health}");
    }
    assert_eq!(
        server
            .state()
            .counters()
            .bad_requests
            .load(Ordering::Relaxed),
        2
    );
    drop(client);
    assert!(server.shutdown().clean);
}
