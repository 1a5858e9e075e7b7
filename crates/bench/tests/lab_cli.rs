//! `hpe-lab campaign` flag contract, driven through the real binary
//! (`CARGO_BIN_EXE_hpe-lab`): snapshot-only flags without `--snapshot`
//! are usage errors, the `--limit` stop message says whether anything
//! was saved, and `--rate` resolves the paper rates before custom
//! percentages.

use std::path::Path;
use std::process::{Command, Output};

use uvm_util::Json;

fn hpe_lab(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpe-lab"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs one cell of the STN campaign at `rate` into a fresh snapshot and
/// returns the snapshot's spec fingerprint.
fn one_cell_fingerprint(dir: &Path, rate: &str, name: &str) -> String {
    let snap = dir.join(name);
    let _ = std::fs::remove_file(&snap);
    let snap_arg = snap.to_str().unwrap();
    let out = hpe_lab(
        &[
            "campaign",
            "STN",
            "--rate",
            rate,
            "--limit",
            "1",
            "--snapshot",
            snap_arg,
        ],
        dir,
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&snap).unwrap();
    let json = Json::parse(&text).unwrap();
    json["fingerprint"].as_str().unwrap().to_string()
}

#[test]
fn snapshot_only_flags_without_snapshot_are_usage_errors() {
    let dir = scratch_dir("hpe-lab-cli-usage");
    for args in [
        &["campaign", "STN", "--resume"][..],
        &["campaign", "STN", "--snapshot-every", "4"][..],
        &["campaign", "STN", "--snapshot-every", "0", "--resume"][..],
    ] {
        let out = hpe_lab(args, &dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("need --snapshot FILE"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran the campaign");
    }
}

#[test]
fn limit_stop_message_says_whether_cells_were_saved() {
    let dir = scratch_dir("hpe-lab-cli-limit");
    let out = hpe_lab(&["campaign", "STN", "--limit", "1"], &dir);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1/14 cells done"), "{stdout}");
    assert!(stdout.contains("were not saved"), "{stdout}");
    assert!(!stdout.contains("snapshot holds"), "{stdout}");

    let snap = dir.join("snap.json");
    let _ = std::fs::remove_file(&snap);
    let out = hpe_lab(
        &[
            "campaign",
            "STN",
            "--limit",
            "1",
            "--snapshot",
            snap.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("snapshot holds the completed cells"),
        "{stdout}"
    );
    assert!(snap.exists());
}

#[test]
fn percent_rate_is_the_paper_rate_and_custom_rates_fingerprint_apart() {
    let dir = scratch_dir("hpe-lab-cli-rate");
    let paper = one_cell_fingerprint(&dir, "75", "paper.json");
    assert_eq!(one_cell_fingerprint(&dir, "75%", "percent.json"), paper);
    // Same "75%" label, different capacity: a resume must not merge them.
    assert_ne!(one_cell_fingerprint(&dir, "75.1", "custom.json"), paper);
}
