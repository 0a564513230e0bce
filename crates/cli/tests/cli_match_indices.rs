//! `dmsa analyze --matches` refuses a match set whose job or transfer
//! indices point past the campaign's records, with an error that names
//! the index and the store's size, instead of panicking in a report. It
//! exits 1, the code of a data error, without the usage text.

use std::path::PathBuf;
use std::process::Command;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dmsa-matchidx-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
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

#[test]
fn analyze_rejects_out_of_range_match_indices() {
    let dir = tmp_dir("analyze");
    let campaign = dir.join("small.json");
    let (code, err) = dmsa(&[
        "simulate",
        "--preset",
        "small",
        "--seed",
        "3",
        "--out",
        campaign.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{err}");
    for (set, want) in [
        (
            "{\"method\":\"rm2\",\"jobs\":[[4000000000,[1,2]]]}",
            "matches reference job index 4000000000, but the campaign has ",
        ),
        (
            "{\"method\":\"rm2\",\"jobs\":[[0,[4294967295]]]}",
            "matches reference transfer index 4294967295, but the campaign has ",
        ),
    ] {
        let matches = dir.join("bad.json");
        std::fs::write(&matches, set).unwrap();
        let (code, err) = dmsa(&[
            "analyze",
            "--campaign",
            campaign.to_str().unwrap(),
            "--matches",
            matches.to_str().unwrap(),
            "--report",
            "summary",
        ]);
        // A refused match set is a data error (exit 1, the error line
        // alone), not a usage error (exit 2 and the usage text).
        assert_eq!(code, Some(1), "{err}");
        assert!(err.contains(want), "{err}");
        assert!(!err.contains("panicked"), "{err}");
        assert!(!err.contains("usage:"), "{err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
