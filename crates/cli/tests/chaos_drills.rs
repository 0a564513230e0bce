//! Seeded chaos drills, end to end: a campaign run under a storage-fault
//! profile must export byte-identical JSON to a fault-free run, a resume
//! through the fallback ladder must reproduce it again, `dmsa verify`
//! must find every artifact the drill silently tore, and a serve reload
//! of a torn export must roll back without dropping the store.

use dmsa_cli::checkpoint::CheckpointDir;
use dmsa_cli::run::{run_with_checkpoints, CheckpointKnobs};
use dmsa_cli::serve::{load_store_gen, ServeConfig, Server};
use dmsa_cli::verify::{self, FileVerdict};
use dmsa_cli::vfs::{ChaosBackend, ChaosProfile, IoRetryPolicy};
use dmsa_cli::CampaignExport;
use dmsa_scenario::{ScenarioConfig, SharedPrefix};
use dmsa_simcore::{SimDuration, SimTime};
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn faulty_config() -> ScenarioConfig {
    let mut c = ScenarioConfig::small_faulty();
    c.duration = SimDuration::from_hours(6);
    c.workload.tasks_per_hour = 20.0;
    c
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dmsa-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn drilled_campaign_and_its_resume_are_byte_identical_to_fault_free() {
    let config = faulty_config();
    let dir = scratch("identity");
    let reference = CampaignExport::from_campaign(&dmsa_scenario::run(&config)).to_json();

    // Torn writes and ENOSPC on every durable step of the checkpoint
    // path. The campaign itself must be untouched: chaos lives entirely
    // in the I/O layer.
    let knobs = CheckpointKnobs {
        dir: Some(dir.clone()),
        every: SimDuration::from_hours(1),
        resume: false,
        keep: 10,
        chaos: Some(ChaosProfile {
            seed: 1234,
            p_torn: 0.3,
            p_enospc: 0.3,
            ..ChaosProfile::default()
        }),
        retry: IoRetryPolicy::fast(),
    };
    let mut notes = Vec::new();
    let mut note = |l: String| notes.push(l);
    let drilled = run_with_checkpoints(&config, &knobs, &mut note).unwrap();
    assert_eq!(
        CampaignExport::from_campaign(&drilled).to_json(),
        reference,
        "chaos in the I/O layer perturbed the simulation"
    );
    let store = CheckpointDir::open(&dir, 10).unwrap();
    assert!(
        !store.scan().unwrap().is_empty(),
        "the drill should leave checkpoints behind (notes: {notes:?})"
    );

    // Resume under the same profile: the ladder skips torn survivors
    // (by checksum) and replays from the newest valid one — or cold
    // starts if the drill shredded them all. Either way: same bytes.
    let mut notes = Vec::new();
    let mut note = |l: String| notes.push(l);
    let resumed = run_with_checkpoints(
        &config,
        &CheckpointKnobs {
            resume: true,
            ..knobs
        },
        &mut note,
    )
    .unwrap();
    assert_eq!(
        CampaignExport::from_campaign(&resumed).to_json(),
        reference,
        "resume after the drill diverged (notes: {notes:?})"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn verify_detects_every_corruption_the_drill_planted() {
    let config = faulty_config();
    let dir = scratch("verify");

    // Write checkpoints through a torn-write backend we keep a handle
    // on: its `torn_files` list is the drill's ground truth.
    let backend = Arc::new(ChaosBackend::new(ChaosProfile {
        seed: 77,
        p_torn: 0.5,
        ..ChaosProfile::default()
    }));
    let store = CheckpointDir::open_with(&dir, 100, backend.clone()).unwrap();
    let payload = SharedPrefix::new(&config, SimTime::EPOCH + SimDuration::from_hours(1), None)
        .unwrap()
        .encode();
    for hour in 1..=12 {
        store
            .write(SimTime::EPOCH + SimDuration::from_hours(hour), &payload)
            .unwrap();
    }
    let torn: Vec<String> = backend.torn_files.lock().unwrap().clone();
    assert!(
        !torn.is_empty() && torn.len() < 12,
        "seed 77 should tear some but not all of 12 writes, tore {}",
        torn.len()
    );

    // Plus one clean campaign export and one torn by hand.
    let export = CampaignExport::from_campaign(&dmsa_scenario::run(&config)).to_json();
    fs::write(dir.join("campaign.json"), &export).unwrap();
    fs::write(
        dir.join("campaign-torn.json"),
        &export.as_bytes()[..export.len() / 2],
    )
    .unwrap();

    let outcome = verify::verify_dir(&dir).unwrap();
    assert!(!outcome.clean());
    let corrupt: Vec<String> = outcome
        .reports
        .iter()
        .filter(|r| matches!(r.verdict, FileVerdict::Corrupt { .. }))
        .map(|r| r.path.file_name().unwrap().to_str().unwrap().to_string())
        .collect();
    for name in &torn {
        assert!(
            corrupt.contains(name),
            "verify missed drill-torn checkpoint {name}: flagged {corrupt:?}"
        );
    }
    assert!(
        corrupt.contains(&"campaign-torn.json".to_string()),
        "verify missed the torn export: {corrupt:?}"
    );
    // And nothing else: every clean artifact passes.
    assert_eq!(outcome.corrupt_count(), torn.len() + 1);
    assert_eq!(outcome.ok_count(), 12 - torn.len() + 1);
    fs::remove_dir_all(&dir).unwrap();
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

    fn round_trip(&mut self, line: &str) -> String {
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("recv");
        reply.trim_end().to_string()
    }
}

#[test]
fn serve_reload_of_a_torn_export_rolls_back_and_keeps_serving() {
    let dir = scratch("serve");
    fs::create_dir_all(&dir).unwrap();
    let mut c = ScenarioConfig::small();
    c.duration = SimDuration::from_hours(3);
    c.workload.tasks_per_hour = 10.0;
    c.background_transfers_per_hour = 50.0;
    c.initial_datasets = 20;
    let json = CampaignExport::from_campaign(&dmsa_scenario::run(&c)).to_json();
    let path = dir.join("export.json");
    fs::write(&path, &json).unwrap();

    let server = Server::start(
        ServeConfig::default(),
        load_store_gen(&json, "export.json", 0.01).unwrap(),
        Some(path.clone()),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr());
    let before = client.round_trip("{\"cmd\":\"match\",\"method\":\"rm2\"}");
    assert!(before.contains("\"ok\":true"), "{before}");

    // The export is torn on disk (as a crashed writer without the
    // atomic pipeline would leave it); reload must refuse it and keep
    // the healthy generation.
    fs::write(&path, &json.as_bytes()[..json.len() / 2]).unwrap();
    let reload = client.round_trip("{\"cmd\":\"reload\"}");
    assert!(reload.contains("\"reload_failed\""), "{reload}");
    let health = client.round_trip("{\"cmd\":\"health\"}");
    assert!(health.contains("\"generation\":1"), "{health}");
    let after = client.round_trip("{\"cmd\":\"match\",\"method\":\"rm2\"}");
    assert_eq!(after, before, "rollback changed match replies");

    // A repaired file reloads cleanly.
    fs::write(&path, &json).unwrap();
    let reload = client.round_trip("{\"cmd\":\"reload\"}");
    assert!(reload.contains("\"generation\":2"), "{reload}");

    let out = server.shutdown();
    assert!(out.clean, "drain left {} conns", out.abandoned_conns);
    fs::remove_dir_all(&dir).unwrap();
}
