//! Worker of the Magellan benchmark. `run.py` builds it and calls one
//! subcommand per fresh process:
//!
//! ```text
//! perfbench gen   --seed N --scale F --inputs DIR
//! perfbench run   --workload study|replay|ingest --seed N --scale F
//!                 --threads N --work DIR --inputs DIR --traced-bin PATH
//!                 [--seconds S]
//! perfbench trace --seed N --scale F --threads N --work DIR --traced-bin PATH
//! perfbench setup --workload study|replay --seed N --scale F --work DIR --inputs DIR
//! ```
//!
//! `setup` is the set-up probe `run` spawns: it prepares what the
//! workload needs before work can start, prints `ready` and exits.
//!
//! The other subcommands print JSON objects, one per line, and exit 0.
//! On any error a subcommand prints it to stderr and exits 1. `run`
//! prints one object per
//! repetition: one for `study` and `replay`, whose repetitions are
//! separate processes, and as many as fill `--seconds` for `ingest`,
//! whose system under test is the serve child.

mod common;
mod layers;
mod sys;
mod workloads;

use common::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Inputs;

struct Args(Vec<String>);

impl Args {
    fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("{name} is required"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .parse()
            .map_err(|_| format!("{name}: not a number"))
    }

    fn path(&self, name: &str) -> Result<PathBuf, String> {
        Ok(PathBuf::from(self.get(name)?))
    }
}

/// One JSON line per repetition.
fn rep_line(rep: &workloads::Rep, threads: usize) -> String {
    let mut out = Json::default();
    out.num("wall_s", rep.wall_s)
        .num("cpu_s", rep.cpu_s)
        .num("peak_rss_mb", rep.peak_rss_mb)
        .num("setup_s", rep.setup_s)
        .int("reports", rep.reports)
        .int("attempted", rep.attempted)
        .int("failed", rep.failed)
        .flag("correct", rep.correct)
        .text("reason", &rep.reason)
        .int("input_reports", rep.input_reports)
        .text("input_digest", &format!("{:016x}", rep.input_digest))
        .text("report_digest", &format!("{:016x}", rep.report_digest))
        .int("par_threads", threads as u64);
    out.render()
}

fn run(args: &Args) -> Result<String, String> {
    let err = |e: std::io::Error| e.to_string();
    let seed: u64 = args.num("--seed")?;
    let scale: f64 = args.num("--scale")?;
    match args.0.first().map(String::as_str) {
        Some("gen") => {
            let t = Instant::now();
            workloads::generate(&args.path("--inputs")?, seed, scale).map_err(err)?;
            let mut out = Json::default();
            out.num("gen_s", t.elapsed().as_secs_f64());
            Ok(out.render())
        }
        Some("setup") => {
            match args.get("--workload")? {
                "study" => {
                    let run = args.path("--work")?.join("setup-run");
                    workloads::prepare_run_dir(&run, seed, scale).map_err(err)?;
                }
                "replay" => {
                    let inputs = Inputs::at(&args.path("--inputs")?);
                    workloads::open_replay(&inputs.run_dir()).map_err(err)?;
                }
                other => return Err(format!("no set-up probe for {other}")),
            }
            Ok("ready".to_string())
        }
        Some("run") => {
            let threads: usize = args.num("--threads")?;
            magellan::par::set_threads(threads);
            let work = args.path("--work")?;
            std::fs::create_dir_all(&work).map_err(err)?;
            let inputs = Inputs::at(&args.path("--inputs")?);
            let workload = args.get("--workload")?;
            let probe = [
                "--workload",
                workload,
                "--seed",
                args.get("--seed")?,
                "--scale",
                args.get("--scale")?,
                "--work",
                args.get("--work")?,
                "--inputs",
                args.get("--inputs")?,
            ];
            let mut reps = match workload {
                "study" => vec![workloads::study(&work, seed, scale).map_err(err)?],
                "replay" => vec![workloads::replay(&inputs, seed, scale).map_err(err)?],
                "ingest" => workloads::ingest(
                    &work,
                    &args.path("--traced-bin")?,
                    &inputs,
                    seed,
                    scale,
                    args.num("--seconds")?,
                )
                .map_err(err)?,
                other => return Err(format!("unknown workload {other}")),
            };
            if workload != "ingest" {
                let setup = common::median(&workloads::setup_samples(&probe).map_err(err)?);
                for rep in &mut reps {
                    rep.setup_s = setup;
                }
            }
            let lines: Vec<String> = reps
                .iter_mut()
                .map(|rep| {
                    if !rep.correct {
                        rep.failed = rep.attempted;
                    }
                    rep_line(rep, threads)
                })
                .collect();
            Ok(lines.join("\n"))
        }
        Some("trace") => {
            let threads: usize = args.num("--threads")?;
            magellan::par::set_threads(threads);
            let work = args.path("--work")?;
            std::fs::create_dir_all(&work).map_err(err)?;
            let layers =
                layers::trace(&work, &args.path("--traced-bin")?, seed, scale).map_err(err)?;
            let mut metrics = Json::default();
            for (name, value, unit) in &layers.metrics {
                let mut m = Json::default();
                m.num("value", *value).text("unit", unit);
                metrics.raw(name, m.render());
            }
            let mut out = Json::default();
            out.flag("correct", layers.correct)
                .text("reason", &layers.reason)
                .num("study_stage_s", layers.study_stage_s)
                .num("replay_stage_s", layers.replay_stage_s)
                .num("ingest_stage_s", layers.ingest_stage_s)
                .raw("metrics", metrics.render());
            Ok(out.render())
        }
        _ => Err("expected a subcommand: gen, setup, run or trace".to_string()),
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
