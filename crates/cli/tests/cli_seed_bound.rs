//! `dmsa simulate --seed` and `dmsa sweep --seeds` refuse seeds above
//! 2^53, the largest integer an export carries exactly, before any work
//! starts and with an error that names the limit.

use std::path::PathBuf;
use std::process::Command;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dmsa-seed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Run the `dmsa` binary; return its exit code and stderr.
fn dmsa(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dmsa"))
        .args(args)
        .output()
        .expect("run dmsa");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const LIMIT: &str = "above the limit 2^53 = 9007199254740992";

#[test]
fn simulate_rejects_a_seed_above_2_pow_53() {
    let dir = tmp_dir("simulate");
    let out = dir.join("c.json");
    for seed in ["9007199254740993", "18446744073709551615"] {
        let (code, err) = dmsa(&["simulate", "--seed", seed, "--out", out.to_str().unwrap()]);
        assert_eq!(code, Some(2), "{err}");
        assert!(err.contains("--seed") && err.contains(LIMIT), "{err}");
        assert!(!out.exists(), "a refused seed must not write an export");
    }
}

#[test]
fn sweep_rejects_a_seed_above_2_pow_53() {
    let dir = tmp_dir("sweep");
    let (code, err) = dmsa(&[
        "sweep",
        "--out-dir",
        dir.to_str().unwrap(),
        "--presets",
        "faulty",
        "--seeds",
        "1,9007199254740993",
    ]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains(LIMIT), "{err}");
    assert!(
        !dir.exists(),
        "a refused sweep must not create its output dir"
    );
}
