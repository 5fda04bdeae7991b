//! Crash-safe study driver: durable archives plus checkpoint/resume.
//!
//! [`DurableStudy`] runs the same scenario → simulation → streaming
//! analysis pipeline as [`MagellanStudy`], but every admitted report
//! is appended to an on-disk segmented archive
//! ([`magellan_trace::archive`]) and the complete deterministic state
//! of the pipeline is checkpointed every few simulated ticks. A run
//! killed at any instant resumes from the newest valid checkpoint and
//! finishes with an archive and a [`StudyReport`] that are
//! **byte-identical** to those of an uninterrupted run:
//!
//! * the simulator restarts from [`magellan_overlay::SimCheckpoint`]
//!   (every RNG stream, peer, tracker list, and fault counter);
//! * the admission gateway's retransmission-dedup set and the
//!   analysis accumulator are rebuilt by re-streaming the archive
//!   prefix the checkpoint covers — archive order is admission order,
//!   so the rebuilt accumulator is bit-exact;
//! * the peer uplink's buffered backlog rides inside the checkpoint;
//! * the archive writer reopens at the checkpointed record cursor and
//!   truncates whatever an interrupted tick half-wrote past it.
//!
//! [`DurableStudy::analyze_archive`] is the offline half: it replays
//! an archive (even a damaged one) through the same accumulator and
//! reports what recovery had to skip.

use crate::figures::StudyReport;
use crate::study::{Accumulator, StudyConfig};
use magellan_netsim::SimTime;
use magellan_overlay::{OverlaySim, SimCheckpoint};
use magellan_trace::checkpoint::{latest_valid_checkpoint, prune_checkpoints, write_checkpoint};
use magellan_trace::{
    wire, ArchiveConfig, ArchiveWriter, GatewayCore, PeerReport, ReportGateway, ReportUplink,
    ServerStats, SubmitError, UplinkStats,
};
use std::io;
use std::path::PathBuf;

/// Reports the peer uplink buffers across a collection outage —
/// mirrors [`magellan_overlay::OverlaySim::run_collecting`].
const UPLINK_CAPACITY: usize = 1 << 16;

/// Version tag of the durable-study checkpoint body (the pipeline
/// extras wrapped around the simulator checkpoint). Version 2 added
/// the uplink retry/backoff counters (`attempts`, `backoff_capped`,
/// `dropped_permanent`); version-1 checkpoints are rejected and the
/// driver cold-starts.
const EXTRAS_VERSION: u32 = 2;

/// Durability knobs of one [`DurableStudy`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Archive segmentation (segment size governs how much an
    /// unsealed tail can lose to a crash).
    pub archive: ArchiveConfig,
    /// Checkpoint cadence in simulator ticks.
    pub checkpoint_every_ticks: u64,
    /// How many recent checkpoints to keep on disk (at least 1; more
    /// than one survives a crash *during* a checkpoint write).
    pub keep_checkpoints: usize,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            archive: ArchiveConfig::default(),
            checkpoint_every_ticks: 512,
            keep_checkpoints: 2,
        }
    }
}

/// The crash-safe study runner: a [`StudyConfig`] bound to an on-disk
/// run directory holding `archive/` and `checkpoints/`.
#[derive(Debug, Clone)]
pub struct DurableStudy {
    dir: PathBuf,
    cfg: StudyConfig,
    dcfg: DurableConfig,
}

/// The admission pipeline behind the uplink: gateway semantics
/// (downtime, validation, dedup) in front of the archive writer and
/// the streaming accumulator. Archive append errors cannot surface
/// through [`SubmitError`], so they are stashed for the driver to
/// rethrow after the tick.
struct ArchiveGateway<'a> {
    core: &'a mut GatewayCore,
    writer: &'a mut ArchiveWriter,
    acc: &'a mut Accumulator,
    io_error: &'a mut Option<io::Error>,
}

impl ReportGateway for ArchiveGateway<'_> {
    fn submit_report(&mut self, report: PeerReport, now: SimTime) -> Result<(), SubmitError> {
        if self.core.admit(&report, now)? {
            if let Err(e) = self.writer.append(&report) {
                if self.io_error.is_none() {
                    *self.io_error = Some(e);
                }
            }
            self.acc.ingest(report);
        }
        Ok(())
    }
}

/// Everything a checkpoint carries beyond the simulator state.
struct Extras {
    cursor: u64,
    server: ServerStats,
    uplink: UplinkStats,
    queue: Vec<PeerReport>,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn encode_body(extras: &Extras, sim: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + sim.len());
    put_u32(&mut out, EXTRAS_VERSION);
    put_u64(&mut out, extras.cursor);
    for v in [
        extras.server.accepted,
        extras.server.rejected,
        extras.server.unavailable,
        extras.server.duplicates,
        extras.uplink.offered,
        extras.uplink.delivered,
        extras.uplink.retransmitted,
        extras.uplink.dropped_overflow,
        extras.uplink.rejected,
        extras.uplink.attempts,
        extras.uplink.backoff_capped,
        extras.uplink.dropped_permanent,
    ] {
        put_u64(&mut out, v);
    }
    // lint:allow(C3): queue length is capped at UPLINK_CAPACITY (1<<16)
    put_u32(&mut out, extras.queue.len() as u32);
    for r in &extras.queue {
        let bytes = wire::encode(r);
        // lint:allow(C3): a wire-encoded report is a few hundred bytes
        put_u32(&mut out, bytes.len() as u32);
        out.extend_from_slice(&bytes);
    }
    out.extend_from_slice(sim);
    out
}

/// Splits a checkpoint body back into pipeline extras and the
/// simulator checkpoint. `None` on any structural mismatch (the
/// driver then falls back to an older checkpoint or a cold start).
fn decode_body(body: &[u8]) -> Option<(Extras, SimCheckpoint)> {
    let mut at = 0usize;
    let mut take = |n: usize| -> Option<&[u8]> {
        let s = body.get(at..at.checked_add(n)?)?;
        at += n;
        Some(s)
    };
    let mut u32_at = || -> Option<u32> { Some(u32::from_be_bytes(take(4)?.try_into().ok()?)) };
    if u32_at()? != EXTRAS_VERSION {
        return None;
    }
    let mut u64_at = || -> Option<u64> { Some(u64::from_be_bytes(take(8)?.try_into().ok()?)) };
    let cursor = u64_at()?;
    let server = ServerStats {
        accepted: u64_at()?,
        rejected: u64_at()?,
        unavailable: u64_at()?,
        duplicates: u64_at()?,
    };
    let uplink = UplinkStats {
        offered: u64_at()?,
        delivered: u64_at()?,
        retransmitted: u64_at()?,
        dropped_overflow: u64_at()?,
        rejected: u64_at()?,
        attempts: u64_at()?,
        backoff_capped: u64_at()?,
        dropped_permanent: u64_at()?,
    };
    let mut u32_at = || -> Option<u32> { Some(u32::from_be_bytes(take(4)?.try_into().ok()?)) };
    let n = u32_at()? as usize;
    if n > UPLINK_CAPACITY {
        return None;
    }
    let mut queue = Vec::with_capacity(n);
    for _ in 0..n {
        let len = u32::from_be_bytes(take(4)?.try_into().ok()?) as usize;
        let mut slice = take(len)?;
        let report = wire::decode(&mut slice).ok()?;
        if !slice.is_empty() {
            return None;
        }
        queue.push(report);
    }
    let sim = SimCheckpoint::decode(&body[at..])?;
    Some((
        Extras {
            cursor,
            server,
            uplink,
            queue,
        },
        sim,
    ))
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl DurableStudy {
    /// Binds a study configuration to a run directory. Nothing is
    /// created until [`DurableStudy::run`] or
    /// [`DurableStudy::resume`].
    pub fn new(dir: impl Into<PathBuf>, cfg: StudyConfig, dcfg: DurableConfig) -> Self {
        DurableStudy {
            dir: dir.into(),
            cfg,
            dcfg,
        }
    }

    /// The archive directory of this run.
    pub fn archive_dir(&self) -> PathBuf {
        self.dir.join("archive")
    }

    /// The checkpoint directory of this run.
    pub fn checkpoint_dir(&self) -> PathBuf {
        self.dir.join("checkpoints")
    }

    /// Fingerprint of the configuration: a checkpoint written under a
    /// different config (or workload build) never resumes silently.
    pub fn fingerprint(&self) -> u64 {
        let cfg_hash = fnv1a(format!("{:?}", self.cfg).bytes());
        cfg_hash ^ self.cfg.scenario().fingerprint().rotate_left(17)
    }

    /// Runs the study from scratch, wiping any previous archive and
    /// checkpoints in the run directory.
    ///
    /// # Errors
    ///
    /// Archive or checkpoint I/O failure, or a simulator
    /// inconsistency (impossible for configs built through
    /// [`StudyConfig`]).
    pub fn run(&self) -> io::Result<StudyReport> {
        self.run_observed(|_| {})
    }

    /// As [`DurableStudy::run`], invoking `observer` with the tick
    /// index about to execute — the crash-drill hook (`abort()` in
    /// the observer kills the process at a deterministic tick).
    ///
    /// # Errors
    ///
    /// As [`DurableStudy::run`].
    pub fn run_observed(&self, mut observer: impl FnMut(u64)) -> io::Result<StudyReport> {
        self.drive(false, &mut observer)
    }

    /// Resumes from the newest valid checkpoint, falling back to a
    /// cold start when none exists (or none matches the
    /// configuration fingerprint).
    ///
    /// # Errors
    ///
    /// As [`DurableStudy::run`].
    pub fn resume(&self) -> io::Result<StudyReport> {
        self.resume_observed(|_| {})
    }

    /// As [`DurableStudy::resume`] with a tick observer.
    ///
    /// # Errors
    ///
    /// As [`DurableStudy::run`].
    pub fn resume_observed(&self, mut observer: impl FnMut(u64)) -> io::Result<StudyReport> {
        self.drive(true, &mut observer)
    }

    fn drive(&self, resume: bool, observer: &mut dyn FnMut(u64)) -> io::Result<StudyReport> {
        let archive_dir = self.archive_dir();
        let ckpt_dir = self.checkpoint_dir();
        std::fs::create_dir_all(&ckpt_dir)?;
        let fp = self.fingerprint();
        let scenario = self.cfg.scenario();
        let window_end = SimTime::at(self.cfg.window_days, 0, 0);

        // Restore-or-cold-start the four pipeline stages.
        let restored = if resume {
            latest_valid_checkpoint(&ckpt_dir, fp)?
                .and_then(|c| decode_body(&c.body).map(|(extras, sim)| (c.tick, extras, sim)))
        } else {
            None
        };
        let mut last_checkpoint: Option<u64> = None;
        let (mut sim, mut state, mut writer, mut core, mut acc, mut uplink) = match restored {
            Some((tick, extras, simckpt)) => {
                let (sim, state) =
                    OverlaySim::resume(scenario.clone(), self.cfg.sim.clone(), &simckpt);
                let db = sim.isp_database().clone();
                let writer = ArchiveWriter::resume(&archive_dir, self.dcfg.archive, extras.cursor)?;
                let mut core = GatewayCore::new(window_end, self.cfg.faults.server_outages.clone());
                let mut acc = Accumulator::new(&self.cfg, db);
                // Rebuild the dedup set and the streaming analysis by
                // replaying the archive prefix this checkpoint covers:
                // archive order is admission order is live ingest
                // order, so the accumulator lands bit-exact.
                magellan_trace::archive::read_archive_limit(&archive_dir, extras.cursor, |r| {
                    core.mark_seen(&r);
                    acc.ingest(r);
                })?;
                core.restore_stats(extras.server);
                let uplink = ReportUplink::restore(UPLINK_CAPACITY, extras.queue, extras.uplink);
                last_checkpoint = Some(tick);
                (sim, state, writer, core, acc, uplink)
            }
            None => {
                let mut sim = OverlaySim::new(scenario.clone(), self.cfg.sim.clone());
                let db = sim.isp_database().clone();
                let writer = ArchiveWriter::create(&archive_dir, self.dcfg.archive)?;
                let core = GatewayCore::new(window_end, self.cfg.faults.server_outages.clone());
                let acc = Accumulator::new(&self.cfg, db);
                let state = sim.begin();
                (
                    sim,
                    state,
                    writer,
                    core,
                    acc,
                    ReportUplink::new(UPLINK_CAPACITY),
                )
            }
        };

        let every = self.dcfg.checkpoint_every_ticks.max(1);
        let mut io_error: Option<io::Error> = None;
        loop {
            let tick = state.next_tick();
            if tick > 0 && tick % every == 0 && last_checkpoint != Some(tick) {
                writer.sync()?;
                let extras = Extras {
                    cursor: writer.records_written(),
                    server: core.stats(),
                    uplink: uplink.stats(),
                    queue: uplink.queued().cloned().collect(),
                };
                let body = encode_body(&extras, &sim.capture(&state).encode());
                write_checkpoint(&ckpt_dir, fp, tick, &body)?;
                prune_checkpoints(&ckpt_dir, self.dcfg.keep_checkpoints.max(1))?;
                last_checkpoint = Some(tick);
            }
            observer(tick);
            let mut gw = ArchiveGateway {
                core: &mut core,
                writer: &mut writer,
                acc: &mut acc,
                io_error: &mut io_error,
            };
            let more = sim
                .tick_once(&mut state, &mut |r: PeerReport| {
                    let now = r.time;
                    uplink.send_via(r, now, &mut gw);
                })
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if let Some(e) = io_error.take() {
                return Err(e);
            }
            if !more {
                break;
            }
        }

        // The collector keeps listening past the window: drain what
        // the last outage left buffered, then seal the archive.
        let mut gw = ArchiveGateway {
            core: &mut core,
            writer: &mut writer,
            acc: &mut acc,
            io_error: &mut io_error,
        };
        uplink.flush_via(window_end, &mut gw);
        if let Some(e) = io_error.take() {
            return Err(e);
        }
        writer.finish()?;

        let mut report = acc.finish();
        report.sim = *state.summary();
        report.collection = Some(core.stats());
        // Live and resumed runs both leave `recovery` unset so an
        // interrupted study renders identically to an uninterrupted
        // one; only archive replay reports recovery.
        report.recovery = None;
        Ok(report)
    }

    /// Replays the run directory's archive through the streaming
    /// analysis — the offline path a measurement group works in, and
    /// the one that tolerates damage. The returned report carries the
    /// [`magellan_trace::RecoveryReport`] describing every region
    /// recovery had to skip.
    ///
    /// # Errors
    ///
    /// Archive I/O failure (a damaged archive is *not* an error —
    /// damage is quantified in the recovery report).
    pub fn analyze_archive(&self) -> io::Result<StudyReport> {
        let db = magellan_netsim::IspDatabase::synthetic(self.cfg.sim.isp_shares);
        let mut acc = Accumulator::new(&self.cfg, db);
        let recovery = magellan_trace::archive::read_archive(&self.archive_dir(), |r| {
            acc.ingest(r);
        })?;
        let mut report = acc.finish();
        report.recovery = Some(recovery);
        // Archives written by the networked `magellan-traced` service
        // leave an INGEST sidecar with the service-side accounting;
        // fold it in so replay surfaces shed/lost datagrams.
        report.ingest = magellan_trace::service::read_ingest_stats(&self.archive_dir())?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::MagellanStudy;
    use magellan_netsim::SimDuration;

    fn quick_config(seed: u64) -> StudyConfig {
        StudyConfig {
            seed,
            scale: 0.0008,
            window_days: 1,
            sample_every: SimDuration::from_hours(2),
            degree_captures: vec![("9am".into(), SimTime::at(0, 9, 0))],
            min_graph_nodes: 10,
            ..StudyConfig::default()
        }
    }

    fn durable_config() -> DurableConfig {
        DurableConfig {
            archive: ArchiveConfig {
                segment_bytes: 16 * 1024,
            },
            checkpoint_every_ticks: 64,
            keep_checkpoints: 2,
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("magellan-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn archive_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn durable_run_matches_in_memory_study() {
        let dir = tempdir("match");
        let cfg = quick_config(42);
        let report = DurableStudy::new(&dir, cfg.clone(), durable_config())
            .run()
            .unwrap();
        let baseline = MagellanStudy::new(cfg).run();
        // No outages: every report is admitted in emission order, so
        // the analysis sees the exact stream the in-memory study saw.
        assert_eq!(report.fig1a.total.points, baseline.fig1a.total.points);
        assert_eq!(report.fig5.indegree.points, baseline.fig5.indegree.points);
        assert_eq!(report.fig8.all.points, baseline.fig8.all.points);
        assert_eq!(report.sim, baseline.sim);
        let cs = report.collection.unwrap();
        assert!(cs.accepted > 0, "archive stored nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_run_resumes_byte_identically() {
        let clean_dir = tempdir("clean");
        let cfg = quick_config(43);
        let study_clean = DurableStudy::new(&clean_dir, cfg.clone(), durable_config());
        let clean_report = study_clean.run().unwrap();

        let int_dir = tempdir("interrupted");
        let study_int = DurableStudy::new(&int_dir, cfg, durable_config());
        // Stop mid-run past a checkpoint boundary by erroring out of
        // the observer path: simulate a crash by unwinding.
        let stop_at = 100u64;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            study_int
                .run_observed(|tick| assert!(tick < stop_at, "simulated crash"))
                .unwrap()
        }));
        assert!(r.is_err(), "run should have been interrupted");
        let resumed_report = study_int.resume().unwrap();

        assert_eq!(
            format!("{resumed_report:?}"),
            format!("{clean_report:?}"),
            "resumed report diverged"
        );
        assert_eq!(
            archive_bytes(&study_int.archive_dir()),
            archive_bytes(&study_clean.archive_dir()),
            "resumed archive diverged"
        );
        assert_eq!(resumed_report.render_text(), clean_report.render_text());
        std::fs::remove_dir_all(&clean_dir).unwrap();
        std::fs::remove_dir_all(&int_dir).unwrap();
    }

    #[test]
    fn resume_without_checkpoint_cold_starts() {
        let dir = tempdir("cold");
        let cfg = quick_config(44);
        let study = DurableStudy::new(&dir, cfg.clone(), durable_config());
        let resumed = study.resume().unwrap();
        let baseline = MagellanStudy::new(cfg).run();
        assert_eq!(resumed.fig1a.total.points, baseline.fig1a.total.points);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn archive_replay_matches_live_report_and_is_clean() {
        let dir = tempdir("replay");
        let cfg = quick_config(45);
        let study = DurableStudy::new(&dir, cfg, durable_config());
        let live = study.run().unwrap();
        let replayed = study.analyze_archive().unwrap();
        let rc = replayed.recovery.clone().unwrap();
        assert!(rc.is_clean(), "clean archive reported damage: {rc:?}");
        assert_eq!(
            rc.records_recovered,
            live.collection.unwrap().accepted,
            "replay recovered a different record count than were admitted"
        );
        // The evolution figures of the offline replay match the live
        // streaming analysis exactly (same reports, same boundaries).
        assert_eq!(replayed.fig1a.total.points, live.fig1a.total.points);
        assert_eq!(replayed.fig5.indegree.points, live.fig5.indegree.points);
        assert_eq!(replayed.fig8.all.points, live.fig8.all.points);
        assert_eq!(
            replayed.sessions.map(|s| s.sessions),
            live.sessions.map(|s| s.sessions)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn server_outage_marks_samples_partial_in_live_and_replay() {
        use magellan_netsim::FaultWindow;
        let clean = MagellanStudy::new(quick_config(42)).run();
        let mut cfg = quick_config(42);
        cfg.faults.server_outages = vec![FaultWindow::new(
            SimTime::at(0, 9, 0),
            SimTime::at(0, 13, 0),
        )];
        let faulty = MagellanStudy::new(cfg.clone()).run();
        assert!(
            !faulty.partial_samples.is_empty(),
            "no sample flagged partial"
        );
        assert!(faulty
            .partial_samples
            .iter()
            .all(|p| (0.0..1.0).contains(&p.coverage)));
        assert!(
            faulty.fig1a.stable.len() < clean.fig1a.stable.len(),
            "partial samples were not excluded from the series"
        );
        // The replay path over the archived (buffered + retransmitted)
        // trace marks exactly the same holes.
        let dir = tempdir("outage");
        let study = DurableStudy::new(&dir, cfg, durable_config());
        study.run().unwrap();
        let offline = study.analyze_archive().unwrap();
        assert_eq!(offline.partial_samples, faulty.partial_samples);
        assert_eq!(offline.fig1a.stable.points, faulty.fig1a.stable.points);
        assert_eq!(offline.fig5.indegree.points, faulty.fig5.indegree.points);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_archive_loses_only_damaged_frames() {
        let dir = tempdir("corrupt");
        let cfg = quick_config(46);
        let study = DurableStudy::new(&dir, cfg, durable_config());
        let live = study.run().unwrap();
        // Flip a byte in the middle of the first sealed segment.
        let seg = std::fs::read_dir(study.archive_dir())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .map(|n| n.to_string_lossy().starts_with("seg-"))
                    .unwrap_or(false)
            })
            .min()
            .expect("a sealed segment exists");
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&seg, bytes).unwrap();

        let replayed = study.analyze_archive().unwrap();
        let rc = replayed.recovery.clone().unwrap();
        assert!(rc.corrupt_regions >= 1, "damage not reported: {rc:?}");
        assert!(rc.bytes_quarantined > 0);
        let lost = live.collection.unwrap().accepted - rc.records_recovered;
        assert!(
            (1..=8).contains(&lost),
            "corruption should cost a handful of frames, lost {lost}"
        );
        let text = replayed.render_text();
        assert!(
            text.contains("corrupt regions"),
            "recovery line missing from report text"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_body_round_trips() {
        let extras = Extras {
            cursor: 7,
            server: ServerStats {
                accepted: 1,
                rejected: 2,
                unavailable: 3,
                duplicates: 4,
            },
            uplink: UplinkStats {
                offered: 5,
                delivered: 6,
                retransmitted: 7,
                dropped_overflow: 8,
                rejected: 9,
                attempts: 10,
                backoff_capped: 11,
                dropped_permanent: 12,
            },
            queue: vec![],
        };
        // A real simulator body from a tiny run.
        let cfg = quick_config(47);
        let scenario = cfg.scenario();
        let mut sim = OverlaySim::new(scenario, cfg.sim.clone());
        let state = sim.begin();
        let sim_body = sim.capture(&state).encode();
        let body = encode_body(&extras, &sim_body);
        let (back, simckpt) = decode_body(&body).expect("round trip");
        assert_eq!(back.cursor, 7);
        assert_eq!(back.server.duplicates, 4);
        assert_eq!(back.uplink.rejected, 9);
        assert!(back.queue.is_empty());
        assert_eq!(simckpt.encode(), sim_body);
        // Truncations never panic and never decode.
        for cut in [0, 4, 11, 40, body.len() - 1] {
            assert!(decode_body(&body[..cut]).is_none(), "cut {cut} decoded");
        }
    }
}
