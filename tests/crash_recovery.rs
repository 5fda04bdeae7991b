//! End-to-end crash drills against the real `magellan` binary.
//!
//! A study killed with `abort()` at a deterministic tick and resumed
//! from its checkpoint must finish with an archive and a report that
//! are *byte-identical* to an uninterrupted run — at one worker and at
//! eight, since resume restores every RNG stream and the metric
//! kernels are schedule-independent. A flipped byte in a sealed
//! segment must cost only the damaged frame, with the damage
//! quantified in the replayed report. The archive-reading `tracetool`
//! commands run against the same kind of archive. A resume that names
//! other study parameters than the interrupted run is refused without
//! touching it, and a malformed command line never starts a study.

use std::path::{Path, PathBuf};
use std::process::Command;

fn magellan_bin() -> &'static str {
    env!("CARGO_BIN_EXE_magellan")
}

fn tracetool_bin() -> &'static str {
    env!("CARGO_BIN_EXE_tracetool")
}

fn traced_bin() -> &'static str {
    env!("CARGO_BIN_EXE_magellan-traced")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("magellan-crashdrill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Shared study parameters, small enough to finish in seconds.
fn study_args(dir: &Path, threads: u64) -> Vec<String> {
    [
        "study",
        "--archive",
        &dir.to_string_lossy(),
        "--seed",
        "9",
        "--scale",
        "0.0005",
        "--days",
        "1",
        "--sample-every-mins",
        "240",
        "--checkpoint-every-ticks",
        "64",
        "--segment-bytes",
        "16384",
        "--threads",
        &threads.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn run(args: &[String]) -> std::process::Output {
    Command::new(magellan_bin())
        .args(args)
        .output()
        .expect("spawn magellan")
}

/// Every archive file (segments + manifest), name-sorted, with bytes.
fn archive_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.join("archive"))
        .expect("read archive dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("read archive file"),
            )
        })
        .collect();
    files.sort();
    files
}

/// `study.cfg` plus every checkpoint file, name-sorted, with bytes.
fn resume_state(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = vec![(
        "study.cfg".to_string(),
        std::fs::read(dir.join("study.cfg")).expect("read study.cfg"),
    )];
    for e in std::fs::read_dir(dir.join("checkpoints")).expect("read checkpoints dir") {
        let e = e.expect("dir entry");
        let bytes = std::fs::read(e.path()).expect("read checkpoint");
        files.push((e.file_name().to_string_lossy().into_owned(), bytes));
    }
    files.sort();
    files
}

fn kill_and_resume_at(threads: u64) {
    let clean = temp_dir(&format!("clean-{threads}"));
    let crashed = temp_dir(&format!("crashed-{threads}"));
    let clean_report = clean.join("report.txt");
    let crashed_report = crashed.join("report.txt");

    let mut args = study_args(&clean, threads);
    args.extend([
        "--report".into(),
        clean_report.to_string_lossy().into_owned(),
    ]);
    let out = run(&args);
    assert!(out.status.success(), "clean run failed: {out:?}");

    // Crash: abort() at tick 150 (checkpoints land every 64 ticks).
    let mut args = study_args(&crashed, threads);
    args.extend(["--kill-at-tick".into(), "150".into()]);
    let out = run(&args);
    assert!(!out.status.success(), "the crash drill was supposed to die");

    // A resume naming another seed is refused and leaves the
    // interrupted run exactly as the crash left it.
    let before = resume_state(&crashed);
    assert!(before.len() > 1, "the crash left no checkpoint");
    let out = run(&[
        "study".into(),
        "--archive".into(),
        crashed.to_string_lossy().into_owned(),
        "--resume".into(),
        "--seed".into(),
        "10".into(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "a seed change on resume was accepted"
    );
    assert!(stderr.contains("--seed 10 differs from 9"), "{stderr}");
    assert_eq!(
        resume_state(&crashed),
        before,
        "a refused resume touched the run"
    );

    // Resume and finish.
    let resume_args: Vec<String> = [
        "study",
        "--archive",
        &crashed.to_string_lossy(),
        "--resume",
        "--threads",
        &threads.to_string(),
        "--report",
        &crashed_report.to_string_lossy(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = run(&resume_args);
    assert!(out.status.success(), "resume failed: {out:?}");

    assert_eq!(
        archive_files(&clean),
        archive_files(&crashed),
        "resumed archive is not byte-identical at {threads} thread(s)"
    );
    assert_eq!(
        std::fs::read(&clean_report).expect("clean report"),
        std::fs::read(&crashed_report).expect("crashed report"),
        "resumed report is not byte-identical at {threads} thread(s)"
    );

    std::fs::remove_dir_all(&clean).ok();
    std::fs::remove_dir_all(&crashed).ok();
}

#[test]
fn kill_and_resume_is_byte_identical_single_threaded() {
    kill_and_resume_at(1);
}

#[test]
fn kill_and_resume_is_byte_identical_parallel() {
    kill_and_resume_at(8);
}

#[test]
fn corrupted_segment_costs_one_frame_and_is_reported() {
    let dir = temp_dir("corrupt");
    let out = run(&study_args(&dir, 1));
    assert!(out.status.success(), "study failed: {out:?}");

    // Count clean records via replay, then flip one byte mid-segment.
    let replay = |d: &Path| {
        let out = run(&[
            "replay".into(),
            "--archive".into(),
            d.to_string_lossy().into_owned(),
        ]);
        assert!(out.status.success(), "replay failed: {out:?}");
        String::from_utf8(out.stdout).expect("utf8 report")
    };
    let clean_text = replay(&dir);
    assert!(
        clean_text.contains("corrupt regions 0"),
        "clean replay reported damage:\n{clean_text}"
    );

    let seg = std::fs::read_dir(dir.join("archive"))
        .expect("read archive dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            p.file_name()
                .map(|n| n.to_string_lossy().starts_with("seg-"))
                .unwrap_or(false)
        })
        .min()
        .expect("a sealed segment");
    let mut bytes = std::fs::read(&seg).expect("read segment");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&seg, bytes).expect("write segment");

    let text = replay(&dir);
    assert!(
        text.contains("corrupt regions 1"),
        "damage not reported:\n{text}"
    );
    let recovered = |t: &str| -> u64 {
        t.lines()
            .find(|l| l.contains("Archive replay"))
            .and_then(|l| {
                l.split_whitespace()
                    .skip_while(|w| *w != "—")
                    .nth(1)
                    .and_then(|w| w.parse().ok())
            })
            .expect("recovered count in report text")
    };
    let lost = recovered(&clean_text) - recovered(&text);
    assert!(
        (1..=4).contains(&lost),
        "one flipped byte should cost a frame or two, lost {lost}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tracetool_reads_the_study_archive() {
    let dir = temp_dir("tracetool");
    let out = run(&study_args(&dir, 1));
    assert!(out.status.success(), "study failed: {out:?}");
    let tool = |args: &[&str]| {
        Command::new(tracetool_bin())
            .args(args)
            .output()
            .expect("spawn tracetool")
    };
    let text = |out: std::process::Output| {
        assert!(out.status.success(), "tracetool failed: {out:?}");
        String::from_utf8(out.stdout).expect("utf8 output")
    };
    let path = dir.to_string_lossy().into_owned();

    let stats = text(tool(&["stats", &path]));
    assert!(stats.contains("no sidecar"), "{stats}");
    let reports: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("reports            : "))
        .and_then(|v| v.parse().ok())
        .expect("report count in stats");
    assert!(reports > 100, "{stats}");
    assert!(stats.contains("corrupt regions    : 0"), "{stats}");

    let sessions = text(tool(&["sessions", &path]));
    assert!(sessions.contains("stable sessions"), "{sessions}");

    let edges = text(tool(&[
        "snapshot", &path, "--at", "0,12,0", "--format", "edges",
    ]));
    let lines: Vec<&str> = edges.lines().collect();
    assert!(!lines.is_empty(), "midday snapshot has no edges");
    assert!(
        lines.iter().all(|l| l.split_whitespace().count() == 3),
        "edge list is not `source target weight` lines:\n{edges}"
    );

    // A malformed instant is rejected, not read as d0 01:00.
    let bad = tool(&["snapshot", &path, "--at", "0,2x,1,0"]);
    assert!(!bad.status.success(), "malformed --at accepted: {bad:?}");
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--at"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_command_lines_exit_non_zero_naming_the_flag() {
    let dir = temp_dir("malformed");
    let run_dir = dir.join("run");
    let run_path = run_dir.to_string_lossy().into_owned();
    let path = run_path.as_str();
    let cases: [(&str, &[&str], &str); 10] = [
        (
            magellan_bin(),
            &["study", "--archive", path, "--sead", "7"],
            "--sead",
        ),
        (
            magellan_bin(),
            &["study", "--archive", path, "--seed"],
            "--seed",
        ),
        (
            magellan_bin(),
            &["study", "--archive", path, "--days", "1x"],
            "--days",
        ),
        (
            magellan_bin(),
            &["study", "--archive", "--resume"],
            "--archive",
        ),
        (
            traced_bin(),
            &["serve", "--archive", path, "--max-conns", "9"],
            "--max-conns",
        ),
        (
            traced_bin(),
            &["serve", "--archive", path, "--clients"],
            "--clients",
        ),
        (
            traced_bin(),
            &[
                "drive",
                "--server",
                "x",
                "--client-id",
                "0",
                "--clients",
                "2",
                "--window",
                "1",
            ],
            "--window",
        ),
        (
            traced_bin(),
            &[
                "drive",
                "--server",
                "x",
                "--client-id",
                "0,",
                "--clients",
                "2",
            ],
            "--client-id",
        ),
        (
            tracetool_bin(),
            &["stats", path, "--format", "dot"],
            "--format",
        ),
        (tracetool_bin(), &["snapshot", path, "--at"], "--at"),
    ];
    for (bin, args, flag) in cases {
        let out = Command::new(bin).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} was accepted: {stderr}"
        );
        assert!(
            stderr.contains(flag),
            "{args:?} did not name {flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} started work");
    }
    let out = Command::new(tracetool_bin())
        .args(["nemesis", "--print-schedule", "8", "--flows", "-1"])
        .output()
        .expect("spawn tracetool");
    assert_eq!(
        out.status.code(),
        Some(2),
        "a negative --flows was accepted"
    );
    assert!(
        !run_dir.exists(),
        "a malformed command line created the run directory"
    );
    std::fs::remove_dir_all(&dir).ok();
}
