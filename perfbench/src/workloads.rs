//! Input generation and the three measured workloads.
//!
//! Every workload function runs one repetition in this process and
//! returns a [`Rep`]: the end-to-end numbers of its measured phase,
//! the outcome of its correctness gate, and the digests that pin its
//! inputs and output.

use crate::common::{
    archive_digest, canonical_text, durable_config, fnv1a, median, study_config, wipe, CLIENTS,
    DAYS, MARK_EVERY_MINS, REPLAY_SAMPLE_MINS, STUDY_SAMPLE_MINS, WINDOW,
};
use crate::sys::{self_usage, Serve};
use magellan::analysis::durable::{DurableConfig, DurableStudy};
use magellan::netsim::{SimDuration, SimTime};
use magellan::runcfg::{cfg_path, load_params, RunParams};
use magellan::trace::service::read_ingest_stats;
use magellan::trace::{atomic_write, shard_of, NetBackoff, NetUplink, PeerReport, UplinkStats};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up samples taken per repetition; the median is reported.
pub const SETUP_SAMPLES: usize = 7;

/// One measured repetition.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall seconds of the measured phase.
    pub wall_s: f64,
    /// CPU seconds of the system under test during the phase.
    pub cpu_s: f64,
    /// Peak RSS of the system under test, MiB.
    pub peak_rss_mb: f64,
    /// Median of the set-up samples, seconds (filled by the caller
    /// for `study` and `replay`).
    pub setup_s: f64,
    /// Reports simulated, replayed or admitted.
    pub reports: u64,
    /// Operations attempted (reports offered to the system).
    pub attempted: u64,
    /// Operations that failed (every one, when the gate fails).
    pub failed: u64,
    /// Whether the correctness gate passed.
    pub correct: bool,
    /// Why the gate failed (empty when it passed).
    pub reason: String,
    /// Reports in the workload's input.
    pub input_reports: u64,
    /// FNV digest of the input archive (or, for `study`, of the
    /// archive it wrote).
    pub input_digest: u64,
    /// FNV digest of the `StudyReport` the phase produced.
    pub report_digest: u64,
}

impl Rep {
    fn gate(&mut self, ok: bool, why: &str) {
        if !ok && self.correct {
            self.correct = false;
            self.reason = why.to_string();
        }
    }
}

fn run_params(seed: u64, scale: f64, sample_mins: u64) -> RunParams {
    let d = durable_config();
    RunParams {
        seed,
        scale,
        days: DAYS,
        sample_every_mins: sample_mins,
        checkpoint_every_ticks: d.checkpoint_every_ticks,
        segment_bytes: d.archive.segment_bytes,
    }
}

fn io_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

// ------------------------------------------------------------- inputs

/// Paths of one generated input set.
pub struct Inputs {
    root: PathBuf,
}

impl Inputs {
    /// The input set rooted at `root`.
    pub fn at(root: &Path) -> Self {
        Inputs {
            root: root.to_path_buf(),
        }
    }

    /// The run directory holding `archive/` and `study.cfg`.
    pub fn run_dir(&self) -> PathBuf {
        self.root.join("run")
    }

    fn read(&self, name: &str) -> io::Result<String> {
        std::fs::read_to_string(self.root.join(name))
    }

    /// Records the generator's archive holds.
    pub fn records(&self) -> io::Result<u64> {
        self.read("records")?.trim().parse().map_err(io_err)
    }

    /// The live 10-minute report, canonicalised.
    pub fn live_replay_text(&self) -> io::Result<String> {
        self.read("live10.txt")
    }

    /// The hourly replay of the generator's archive, canonicalised.
    pub fn hourly_text(&self) -> io::Result<String> {
        self.read("replay60.txt")
    }

    /// The generator archive's digest.
    pub fn digest(&self) -> io::Result<u64> {
        u64::from_str_radix(self.read("digest")?.trim(), 16).map_err(io_err)
    }
}

/// Generates the input set of `seed`: the scenario's archive (written
/// by a live study sampled every 10 minutes), that study's report,
/// and the hourly replay of the archive. Written to `<root>.tmp` and
/// renamed, so an interrupted generation never looks complete.
pub fn generate(root: &Path, seed: u64, scale: f64) -> io::Result<()> {
    let tmp = PathBuf::from(format!("{}.tmp", root.display()));
    wipe(&tmp)?;
    let run = tmp.join("run");
    std::fs::create_dir_all(&run)?;
    let params = run_params(seed, scale, REPLAY_SAMPLE_MINS);
    atomic_write(&cfg_path(&run), params.render().as_bytes())?;
    let cfg = study_config(seed, scale, REPLAY_SAMPLE_MINS);
    let live = DurableStudy::new(&run, cfg, DurableConfig::default()).run()?;
    let accepted = live.collection.map_or(0, |c| c.accepted);
    let hourly = DurableStudy::new(
        &run,
        study_config(seed, scale, STUDY_SAMPLE_MINS),
        durable_config(),
    )
    .analyze_archive()?;
    let rc = hourly.recovery.clone().unwrap_or_default();
    if !rc.is_clean() || rc.records_recovered != accepted {
        return Err(io_err(format!(
            "generated archive does not read back cleanly: {rc:?}"
        )));
    }
    let (digest, _) = archive_digest(&run.join("archive"))?;
    std::fs::write(tmp.join("live10.txt"), canonical_text(&live.render_text()))?;
    std::fs::write(
        tmp.join("replay60.txt"),
        canonical_text(&hourly.render_text()),
    )?;
    std::fs::write(tmp.join("records"), accepted.to_string())?;
    std::fs::write(tmp.join("digest"), format!("{digest:016x}"))?;
    wipe(root)?;
    std::fs::rename(&tmp, root)
}

/// Loads every report of an archive, in archive order.
pub fn load_reports(archive: &Path) -> io::Result<Vec<PeerReport>> {
    let mut out = Vec::new();
    let rc = magellan::trace::archive::read_archive(archive, |r| out.push(r))?;
    if !rc.is_clean() {
        return Err(io_err(format!("input archive is damaged: {rc:?}")));
    }
    Ok(out)
}

// -------------------------------------------------------------- study

/// Prepares a fresh run directory: the directory and its `study.cfg`.
pub fn prepare_run_dir(run: &Path, seed: u64, scale: f64) -> io::Result<()> {
    wipe(run)?;
    std::fs::create_dir_all(run)?;
    let params = run_params(seed, scale, STUDY_SAMPLE_MINS);
    atomic_write(&cfg_path(run), params.render().as_bytes())
}

/// Opens a generated run directory for replay: reads its `study.cfg`
/// and binds the 10-minute study configuration to it.
pub fn open_replay(run: &Path) -> io::Result<DurableStudy> {
    let params = load_params(run).map_err(io_err)?;
    let cfg = study_config(params.seed, params.scale, REPLAY_SAMPLE_MINS);
    Ok(DurableStudy::new(run, cfg, durable_config()))
}

/// Times [`SETUP_SAMPLES`] fresh worker processes from spawn until
/// they report their set-up done (`perfbench setup ...`), so set-up
/// includes starting the process that does the work.
pub fn setup_samples(args: &[&str]) -> io::Result<Vec<f64>> {
    let exe = std::env::current_exe()?;
    let mut out = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        let mut child = std::process::Command::new(&exe)
            .arg("setup")
            .args(args)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::piped())
            .spawn()?;
        let mut line = String::new();
        if let Some(stdout) = child.stdout.take() {
            io::BufRead::read_line(&mut io::BufReader::new(stdout), &mut line)?;
        }
        let elapsed = t.elapsed().as_secs_f64();
        let status = child.wait()?;
        if !status.success() || line.trim() != "ready" {
            return Err(io_err("set-up worker failed"));
        }
        out.push(elapsed);
    }
    Ok(out)
}

/// `study`: `DurableStudy::run` with hourly sampling and a checkpoint
/// every 48 ticks. Gate: the archive replays cleanly and renders like
/// the live report.
pub fn study(work: &Path, seed: u64, scale: f64) -> io::Result<Rep> {
    let run = work.join("study-run");
    let mut rep = Rep {
        correct: true,
        ..Rep::default()
    };
    prepare_run_dir(&run, seed, scale)?;
    let durable = DurableStudy::new(
        &run,
        study_config(seed, scale, STUDY_SAMPLE_MINS),
        durable_config(),
    );
    let cpu0 = self_usage().cpu_s;
    let t0 = Instant::now();
    let live = durable.run()?;
    rep.wall_s = t0.elapsed().as_secs_f64();
    let usage = self_usage();
    rep.cpu_s = usage.cpu_s - cpu0;
    rep.peak_rss_mb = usage.peak_rss_mb;
    rep.reports = live.sim.reports;
    rep.attempted = live.sim.reports;
    rep.input_reports = live.sim.reports;
    rep.report_digest = fnv1a(&format!("{live:?}"));

    let replayed = durable.analyze_archive()?;
    let rc = replayed.recovery.clone().unwrap_or_default();
    let accepted = live.collection.map_or(0, |c| c.accepted);
    rep.gate(rc.is_clean(), "study archive replay found damage");
    rep.gate(
        rc.records_recovered == accepted,
        "study archive replay recovered a different record count",
    );
    rep.gate(
        canonical_text(&replayed.render_text()) == canonical_text(&live.render_text()),
        "study archive replay renders differently from the live report",
    );
    rep.input_digest = archive_digest(&durable.archive_dir())?.0;
    wipe(&run)?;
    Ok(rep)
}

// ------------------------------------------------------------- replay

/// `replay`: `DurableStudy::analyze_archive` with 10-minute sampling
/// over the generated archive. Gate: the output equals the live
/// report recorded at generation.
pub fn replay(inputs: &Inputs, seed: u64, scale: f64) -> io::Result<Rep> {
    let mut rep = Rep {
        correct: true,
        ..Rep::default()
    };
    let run = inputs.run_dir();
    let durable = open_replay(&run)?;
    let expected_records = inputs.records()?;

    let cpu0 = self_usage().cpu_s;
    let t0 = Instant::now();
    let report = durable.analyze_archive()?;
    rep.wall_s = t0.elapsed().as_secs_f64();
    let usage = self_usage();
    rep.cpu_s = usage.cpu_s - cpu0;
    rep.peak_rss_mb = usage.peak_rss_mb;
    let rc = report.recovery.clone().unwrap_or_default();
    rep.reports = rc.records_recovered;
    rep.attempted = expected_records.max(1);
    rep.input_reports = expected_records;
    rep.report_digest = fnv1a(&format!("{report:?}"));
    rep.input_digest = archive_digest(&durable.archive_dir())?.0;

    let params = load_params(&run).map_err(io_err)?;
    rep.gate(
        (seed, scale) == (params.seed, params.scale),
        "input set was generated for another seed or scale",
    );
    rep.gate(rc.is_clean(), "replayed archive is damaged");
    rep.gate(
        rc.records_recovered == expected_records,
        "replay recovered a different record count than was generated",
    );
    rep.gate(
        rep.input_digest == inputs.digest()?,
        "input archive bytes differ from the generated ones",
    );
    rep.gate(
        canonical_text(&report.render_text()) == inputs.live_replay_text()?,
        "replay output differs from the live report recorded at generation",
    );
    Ok(rep)
}

// ------------------------------------------------------------- ingest

/// One step of an ingest client.
#[derive(Debug, Clone, Copy)]
pub enum Step<'a> {
    /// Send this report.
    Send(&'a PeerReport),
    /// Declare everything below this instant offered.
    Mark(SimTime),
}

/// The steps of every client: the input stream partitioned by
/// `shard_of(addr, CLIENTS)`, with a window mark every
/// [`MARK_EVERY_MINS`] simulated minutes (as `magellan-traced drive`
/// does) and a final mark at the window end.
pub fn client_plans(reports: &[PeerReport]) -> Vec<Vec<Step<'_>>> {
    let every = SimDuration::from_mins(MARK_EVERY_MINS);
    let mut plans = vec![Vec::new(); CLIENTS as usize];
    let mut next_mark = SimTime::ORIGIN + every;
    for r in reports {
        while r.time >= next_mark {
            for p in &mut plans {
                p.push(Step::Mark(next_mark));
            }
            next_mark += every;
        }
        if let Some(p) = plans.get_mut(shard_of(r.addr, CLIENTS as usize)) {
            p.push(Step::Send(r));
        }
    }
    for p in &mut plans {
        p.push(Step::Mark(SimTime::at(DAYS, 0, 0)));
    }
    plans
}

/// Caller-side timings of one client's uplink calls, nanoseconds.
#[derive(Debug, Default)]
pub struct ClientTimes {
    /// Per `send_report` call.
    pub send_ns: Vec<u64>,
    /// Per `mark` call.
    pub mark_ns: Vec<u64>,
    /// The `finish` call.
    pub finish_ns: u64,
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn drive_client(
    addr: SocketAddr,
    id: u32,
    seed: u64,
    plan: &[Step<'_>],
    traced: bool,
) -> io::Result<(UplinkStats, ClientTimes)> {
    // The same deterministic jitter seed as `magellan-traced drive`.
    let backoff_seed = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(id));
    let backoff = NetBackoff::new(2, 200, 8, backoff_seed);
    let mut uplink = NetUplink::connect_tcp(addr, id, CLIENTS, WINDOW, backoff)?;
    let mut times = ClientTimes::default();
    for step in plan {
        match *step {
            Step::Send(r) => {
                if traced {
                    let t = Instant::now();
                    uplink.send_report(r)?;
                    times.send_ns.push(elapsed_ns(t));
                } else {
                    uplink.send_report(r)?;
                }
            }
            Step::Mark(up_to) => {
                if traced {
                    let t = Instant::now();
                    uplink.mark(up_to)?;
                    times.mark_ns.push(elapsed_ns(t));
                } else {
                    uplink.mark(up_to)?;
                }
            }
        }
    }
    let t = Instant::now();
    let stats = uplink.finish()?;
    times.finish_ns = elapsed_ns(t);
    Ok((stats, times))
}

/// The outcome of one networked ingest run.
pub struct IngestRun {
    /// Serve spawn until its port file existed, seconds.
    pub setup_s: f64,
    /// First client connect until serve exited, seconds.
    pub wall_s: f64,
    /// Serve's CPU seconds.
    pub serve_cpu_s: f64,
    /// Serve's peak RSS, MiB.
    pub serve_rss_mb: f64,
    /// Serve's exit code.
    pub exit_code: i32,
    /// Every client's uplink accounting and call timings.
    pub clients: Vec<(UplinkStats, ClientTimes)>,
    /// Serve's run directory.
    pub dir: PathBuf,
}

/// Spawns serve, drives every client plan from its own thread over
/// TCP, and waits for serve to exit. Any client failure drops the
/// [`Serve`] handle, which kills and reaps the child.
pub fn run_ingest(
    traced_bin: &Path,
    dir: &Path,
    seed: u64,
    scale: f64,
    plans: &[Vec<Step<'_>>],
    traced: bool,
) -> io::Result<IngestRun> {
    let serve = Serve::spawn(traced_bin, dir, CLIENTS, seed, scale)?;
    let addr = serve.addr;
    let t0 = Instant::now();
    let results: Vec<io::Result<(UplinkStats, ClientTimes)>> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(id, plan)| s.spawn(move || drive_client(addr, id as u32, seed, plan, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io_err("client thread panicked")))
            })
            .collect()
    });
    let clients = results.into_iter().collect::<io::Result<Vec<_>>>()?;
    let setup_s = serve.setup_s;
    let dir = serve.dir.clone();
    let exit = serve.wait(Duration::from_secs(120))?;
    Ok(IngestRun {
        setup_s,
        wall_s: exit.at.duration_since(t0).as_secs_f64(),
        serve_cpu_s: exit.usage.cpu_s,
        serve_rss_mb: exit.usage.peak_rss_mb,
        exit_code: exit.code,
        clients,
        dir,
    })
}

/// Spawn-to-port-file times of throwaway serves (killed at once).
fn serve_setup_samples(
    traced_bin: &Path,
    work: &Path,
    n: usize,
    seed: u64,
    scale: f64,
) -> io::Result<Vec<f64>> {
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let dir = work.join(format!("serve-setup-{k}"));
        let serve = Serve::spawn(traced_bin, &dir, CLIENTS, seed, scale)?;
        out.push(serve.setup_s);
        drop(serve);
        wipe(&dir)?;
    }
    Ok(out)
}

/// Checks the books of a finished ingest run: serve exited 0, its
/// `INGEST` sidecar balances, and it admitted every offered report.
/// Returns the admitted count.
fn check_books(run: &IngestRun, inputs: &Inputs, rep: &mut Rep) -> io::Result<u64> {
    let offered: u64 = run.clients.iter().map(|(s, _)| s.offered).sum();
    rep.gate(run.exit_code == 0, "serve exited with a failure code");
    let stats = read_ingest_stats(&run.dir.join("archive"))?;
    rep.gate(stats.is_some(), "serve left no INGEST sidecar");
    let stats = stats.unwrap_or_default();
    rep.gate(stats.balanced(), "ingest books do not balance");
    rep.gate(
        stats.admitted == offered && offered == inputs.records()?,
        "serve did not admit every offered report",
    );
    Ok(stats.admitted)
}

/// Checks that the replay of serve's archive equals the in-process
/// hourly analysis of the same reports, recorded at generation.
fn check_replay(
    run: &IngestRun,
    inputs: &Inputs,
    seed: u64,
    scale: f64,
    rep: &mut Rep,
) -> io::Result<()> {
    let durable = DurableStudy::new(
        &run.dir,
        study_config(seed, scale, STUDY_SAMPLE_MINS),
        durable_config(),
    );
    let replayed = durable.analyze_archive()?;
    let rc = replayed.recovery.clone().unwrap_or_default();
    rep.gate(rc.is_clean(), "serve archive is damaged");
    rep.gate(
        canonical_text(&replayed.render_text()) == inputs.hourly_text()?,
        "replay of serve's archive differs from the in-process analysis",
    );
    rep.report_digest = fnv1a(&format!("{replayed:?}"));
    Ok(())
}

/// Repetitions that fill `seconds` of measured time given the first
/// one's wall time (at least one).
pub fn reps_for(seconds: f64, first_wall_s: f64) -> usize {
    ((seconds / first_wall_s.max(1e-3)).round() as usize).max(1)
}

/// `ingest`: the generated reports driven by two TCP clients into a
/// child `magellan-traced serve`, repeated until `seconds` of measured
/// time is used. The system under test is the serve child, spawned
/// fresh for each repetition, so this process loads the input once.
/// Gate: balanced books and full admission every time
/// ([`check_books`]); the first repetition's archive replays like the
/// in-process analysis ([`check_replay`]), and every later one must
/// reproduce its archive bytes.
pub fn ingest(
    work: &Path,
    traced_bin: &Path,
    inputs: &Inputs,
    seed: u64,
    scale: f64,
    seconds: f64,
) -> io::Result<Vec<Rep>> {
    let reports = load_reports(&inputs.run_dir().join("archive"))?;
    let plans = client_plans(&reports);
    let throwaway = serve_setup_samples(traced_bin, work, SETUP_SAMPLES - 1, seed, scale)?;
    let dir = work.join("serve-run");
    let mut reps = Vec::new();
    let mut first: Option<(u64, u64)> = None;
    let mut wanted = 1;
    while reps.len() < wanted {
        let run = run_ingest(traced_bin, &dir, seed, scale, &plans, false)?;
        let mut rep = Rep {
            correct: true,
            ..Rep::default()
        };
        let mut setup = throwaway.clone();
        setup.push(run.setup_s);
        rep.setup_s = median(&setup);
        rep.wall_s = run.wall_s;
        rep.cpu_s = run.serve_cpu_s;
        rep.peak_rss_mb = run.serve_rss_mb;
        let offered: u64 = run.clients.iter().map(|(s, _)| s.offered).sum();
        rep.attempted = offered.max(1);
        rep.input_reports = reports.len() as u64;
        rep.input_digest = inputs.digest()?;
        let admitted = check_books(&run, inputs, &mut rep)?;
        let (archive, _) = archive_digest(&run.dir.join("archive"))?;
        match first {
            None => {
                check_replay(&run, inputs, seed, scale, &mut rep)?;
                first = Some((archive, rep.report_digest));
                wanted = reps_for(seconds, run.wall_s);
            }
            Some((archive0, report0)) => {
                rep.gate(
                    archive == archive0,
                    "serve archive bytes differ from the first repetition's",
                );
                rep.report_digest = report0;
            }
        }
        rep.reports = admitted;
        rep.failed = offered.saturating_sub(admitted);
        wipe(&dir)?;
        reps.push(rep);
    }
    Ok(reps)
}
