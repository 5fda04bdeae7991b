//! Crash-safe study runner.
//!
//! Run without arguments for the usage, rendered from `command()`.
//!
//! `study` runs the full Magellan pipeline with every admitted report
//! archived durably and the simulator checkpointed; `--resume` picks
//! up a killed run from its newest valid checkpoint and finishes with
//! byte-identical archives and report. `--kill-at-tick` aborts the
//! process at a deterministic tick (the crash drill in
//! `scripts/check.sh` uses it). `replay` re-analyzes an existing
//! archive offline, tolerating damage and reporting what recovery had
//! to skip. The run directory carries a `study.cfg` describing the
//! study parameters so `--resume` and `replay` reconstruct the exact
//! configuration; a study flag given beside `--resume` must match it.

use magellan::analysis::durable::DurableStudy;
use magellan::analysis::figures::StudyReport;
use magellan::cli::{Args, Command, Flag};
use magellan::runcfg::{cfg_path, load_params, RunParams};
use magellan::trace::atomic_write;
use std::path::Path;
use std::process::ExitCode;

fn command() -> Command {
    let shared = [
        Flag::text("--archive", "DIR").required(),
        Flag::text("--report", "FILE"),
        Flag::int("--threads", "N"),
    ];
    let study = Command::new("study")
        .flags(&shared)
        .flags(&RunParams::FLAGS)
        .flags(&[Flag::switch("--resume"), Flag::int("--kill-at-tick", "N")]);
    Command::new("magellan")
        .subcommand(study)
        .subcommand(Command::new("replay").flags(&shared))
}

fn run(args: &Args) -> Result<(), String> {
    if let Some(n) = args.u64("--threads") {
        magellan::par::set_threads(n as usize);
    }
    let dir = Path::new(args.get("--archive").unwrap_or_default());
    let report = if args.command == "replay" {
        let params = load_params(dir)?;
        DurableStudy::new(dir, params.study_config(), params.durable_config())
            .analyze_archive()
            .map_err(|e| format!("replay: {e}"))?
    } else {
        study(args, dir)?
    };
    let text = report.render_text();
    match args.get("--report") {
        Some(path) => {
            atomic_write(Path::new(path), text.as_bytes()).map_err(|e| format!("write {path}: {e}"))
        }
        None => {
            println!("{text}");
            Ok(())
        }
    }
}

/// A fresh durable study, or the resume of an interrupted one.
fn study(args: &Args, dir: &Path) -> Result<StudyReport, String> {
    let resume = args.has("--resume");
    // On resume the run directory's study.cfg is authoritative; study
    // flags may repeat it but never change it.
    let params = RunParams::default().with_args(args, resume.then_some(dir))?;
    let kill_at = args.u64("--kill-at-tick");
    if !resume {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        // Persist the parameters before simulating so a run killed
        // at any tick can still be resumed.
        atomic_write(&cfg_path(dir), params.render().as_bytes())
            .map_err(|e| format!("write study.cfg: {e}"))?;
    }
    let study = DurableStudy::new(dir, params.study_config(), params.durable_config());
    let observer = |tick: u64| {
        if Some(tick) == kill_at {
            eprintln!("magellan: simulating crash at tick {tick}");
            std::process::abort();
        }
    };
    if resume {
        study.resume_observed(observer)
    } else {
        study.run_observed(observer)
    }
    .map_err(|e| format!("study: {e}"))
}

fn main() -> ExitCode {
    let args = command().parse_env();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
