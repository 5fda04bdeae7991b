//! The `figures` command line against a real run directory: replay,
//! figure selection, and every input it must refuse with exit 2
//! instead of running on a silent default or panicking.

use magellan::analysis::durable::DurableStudy;
use magellan::runcfg::{cfg_path, RunParams};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

/// A tiny `magellan study` run directory, rebuilt once per test run.
fn run_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        // Under the target directory, so no run is left in the system temp dir.
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures-cli-run");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create run dir");
        let params = RunParams {
            seed: 9,
            scale: 0.0005,
            days: 1,
            sample_every_mins: 240,
            ..RunParams::default()
        };
        std::fs::write(cfg_path(&dir), params.render()).expect("write study.cfg");
        DurableStudy::new(&dir, params.study_config(), params.durable_config())
            .run()
            .expect("durable study");
        dir
    })
}

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("spawn figures")
}

fn archive() -> String {
    run_dir().to_string_lossy().into_owned()
}

/// Asserts a refusal: exit 2, the culprit named, no panic, no figure.
fn assert_refused(out: &Output, culprit: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "not refused: {stderr}");
    assert!(stderr.contains(culprit), "{culprit} not named: {stderr}");
    assert!(!stderr.contains("panicked"), "refusal panicked: {stderr}");
    assert!(out.stdout.is_empty(), "figures printed despite the refusal");
}

#[test]
fn archive_replays_every_figure() {
    let out = figures(&["--archive", &archive()]);
    assert!(out.status.success(), "replay failed: {out:?}");
    let text = String::from_utf8(out.stdout).expect("utf8");
    for title in ["Fig 1(A)", "Fig 2", "Fig 4", "Fig 7", "Fig 8"] {
        assert!(text.contains(title), "{title} missing:\n{text}");
    }
}

#[test]
fn fig_8_prints_only_fig_8() {
    let out = figures(&["--archive", &archive(), "--fig", "8"]);
    assert!(out.status.success(), "replay failed: {out:?}");
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.starts_with("Fig 8 "), "{text}");
    assert_eq!(text.matches("Fig ").count(), 1, "more than Fig. 8:\n{text}");
}

#[test]
fn study_flags_beside_archive_must_match_study_cfg() {
    let out = figures(&["--archive", &archive(), "--seed", "9", "--fig", "2"]);
    assert!(
        out.status.success(),
        "a matching --seed was refused: {out:?}"
    );
    assert_refused(
        &figures(&["--archive", &archive(), "--seed", "10"]),
        "--seed 10",
    );
}

#[test]
fn misspelled_flag_is_refused() {
    // The pre-rename spelling of --sample-every-mins.
    assert_refused(&figures(&["--sample-mins", "60"]), "--sample-mins");
    assert_refused(&figures(&["--scale", "0,01"]), "--scale");
    assert_refused(&figures(&["--fig"]), "--fig");
}

#[test]
fn unwritable_output_dir_is_refused_without_a_panic() {
    let blocker = run_dir().join("study.cfg");
    let csv = blocker.join("csv").to_string_lossy().into_owned();
    assert_refused(
        &figures(&["--archive", &archive(), "--csv-dir", &csv]),
        &csv,
    );
    let svg = blocker.join("svg").to_string_lossy().into_owned();
    assert_refused(
        &figures(&["--archive", &archive(), "--svg-dir", &svg]),
        &svg,
    );
}
