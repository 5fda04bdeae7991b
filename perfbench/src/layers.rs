//! The traced pass: the same scenario re-driven through each layer's
//! public functions, with every call into a layer timed from here.
//!
//! Stages (each re-drives the work of one workload):
//!
//! 1. study loop — `OverlaySim::tick_once` with a buffering sink, the
//!    reports offered through a `ReportUplink` to a `GatewayCore` in
//!    front of an `ArchiveWriter`, a checkpoint every 48 ticks
//!    (`capture` + `encode`, `write_checkpoint` + `prune_checkpoints`),
//!    and the hourly boundary analysis;
//! 2. archive read — `read_archive` with a no-op sink;
//! 3. replay — `DurableStudy::analyze_archive` (untimed inside), then
//!    the archive loaded into a `TraceStore` and every 10-minute
//!    boundary analysed with the public calls the study makes;
//! 4. ingest — two TCP `NetUplink` clients into `magellan-traced
//!    serve`, every `send_report`/`mark`/`finish` timed;
//! 5. sans-I/O admission — the same payloads through `Shard::ingest_wire`,
//!    `drain_below` and `merge_sorted` in-process.

use crate::common::{
    archive_digest, durable_config, median, percentile, study_config, wipe, DAYS, MARK_EVERY_MINS,
    REPLAY_SAMPLE_MINS, STUDY_SAMPLE_MINS,
};
use crate::workloads::{client_plans, run_ingest};
use magellan::analysis::durable::DurableStudy;
use magellan::analysis::graphs::{
    active_link_graph, inter_isp_link_graph, intra_isp_link_graph, isp_subgraph, NodeScope,
};
use magellan::analysis::study::StudyConfig;
use magellan::graph::paths::PathSampling;
use magellan::graph::reciprocity::garlaschelli_reciprocity;
use magellan::graph::smallworld::{assess, assess_csr, SmallWorldConfig};
use magellan::graph::{Csr, DiGraph, IncrementalTopology};
use magellan::netsim::{IspDatabase, PeerAddr, SimDuration, SimTime};
use magellan::overlay::OverlaySim;
use magellan::trace::checkpoint::{prune_checkpoints, write_checkpoint};
use magellan::trace::service::{merge_sorted, read_ingest_stats};
use magellan::trace::{
    shard_of, wire, ArchiveWriter, GatewayCore, PeerReport, ReportGateway, ReportUplink, Shard,
    SnapshotBuilder, SubmitError, TraceStore,
};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Shards of the in-process admission replay (serve's default).
const SHARDS: usize = 4;

/// Pending-buffer cap per shard (serve's default).
const PENDING_CAP: usize = 1 << 16;

/// Uplink buffer capacity, as in the durable study.
const UPLINK_CAPACITY: usize = 1 << 16;

/// The traced pass's output: per-layer metrics plus the wall time of
/// each stage.
#[derive(Default)]
pub struct Layers {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Stage 1 wall (re-drives `study`).
    pub study_stage_s: f64,
    /// Stage 3 wall without the untimed `analyze_archive` (re-drives
    /// `replay`).
    pub replay_stage_s: f64,
    /// Stage 4 wall (re-drives `ingest`).
    pub ingest_stage_s: f64,
    /// Whether every stage's own checks passed.
    pub correct: bool,
    /// First failed check.
    pub reason: String,
}

impl Layers {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn gate(&mut self, ok: bool, why: &str) {
        if !ok && self.correct {
            self.correct = false;
            self.reason = why.to_string();
        }
    }
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

fn io_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

// ----------------------------------------------------- boundary work

/// Per-call timings of the boundary analysis, nanoseconds.
#[derive(Default)]
struct BoundaryTimes {
    boundary: Vec<f64>,
    snapshot: Vec<f64>,
    link_graph: Vec<f64>,
    inc_sync: Vec<f64>,
    csr_build: Vec<f64>,
    smallworld: Vec<f64>,
    isp_smallworld: Vec<f64>,
    reciprocity: Vec<f64>,
    nodes_max: usize,
    edges_max: usize,
}

/// The study's small-world configuration for an `n`-node graph.
fn sw_cfg(n: usize) -> SmallWorldConfig {
    SmallWorldConfig {
        path_sampling: if n <= 1500 {
            PathSampling::Exact
        } else {
            PathSampling::Sources {
                count: 300,
                seed: 0xC0FFEE,
            }
        },
        clustering_samples: if n <= 3000 { None } else { Some(1500) },
        ..SmallWorldConfig::default()
    }
}

/// Sorted node keys and `(from, to)`-sorted edges of a topology, the
/// input `IncrementalTopology::sync_snapshot` requires.
fn engine_snapshot(g: &DiGraph<PeerAddr>) -> (Vec<u32>, Vec<(u32, u32, u64)>) {
    let mut nodes: Vec<u32> = g.nodes().map(|(_, k)| k.as_u32()).collect();
    nodes.sort_unstable();
    let mut edges: Vec<(u32, u32, u64)> = g
        .edges()
        .map(|e| (g.key(e.from).as_u32(), g.key(e.to).as_u32(), e.weight))
        .collect();
    edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    (nodes, edges)
}

/// The per-boundary public calls of the study, in its order.
struct BoundaryPass {
    cfg: StudyConfig,
    db: IspDatabase,
    inc_stable: IncrementalTopology,
    inc_full: IncrementalTopology,
    times: BoundaryTimes,
}

impl BoundaryPass {
    fn new(cfg: &StudyConfig, db: IspDatabase) -> Self {
        BoundaryPass {
            cfg: cfg.clone(),
            db,
            inc_stable: IncrementalTopology::new(),
            inc_full: IncrementalTopology::new(),
            times: BoundaryTimes::default(),
        }
    }

    /// The study's boundary instants: every `sample_every` strictly
    /// inside the window.
    fn boundaries(&self) -> Vec<SimTime> {
        let end = SimTime::at(self.cfg.window_days, 0, 0);
        let mut out = Vec::new();
        let mut t = SimTime::ORIGIN + self.cfg.sample_every;
        while t < end {
            out.push(t);
            t += self.cfg.sample_every;
        }
        out
    }

    fn run(&mut self, store: &TraceStore, at: SimTime) {
        let tb = Instant::now();
        let t = Instant::now();
        let snap = SnapshotBuilder::new(store)
            .staleness(SimDuration::from_mins(15))
            .at(at);
        self.times.snapshot.push(ns(t));
        let stable: Vec<&PeerReport> = snap.reports().collect();
        if stable.len() >= self.cfg.min_graph_nodes {
            let t = Instant::now();
            let sg = active_link_graph(stable.iter().copied(), NodeScope::StableOnly);
            let full = active_link_graph(stable.iter().copied(), NodeScope::AllKnown);
            self.times.link_graph.push(ns(t));
            self.times.nodes_max = self.times.nodes_max.max(full.node_count());
            self.times.edges_max = self.times.edges_max.max(full.edge_count());

            let t = Instant::now();
            let (n, e) = engine_snapshot(&sg);
            black_box(self.inc_stable.sync_snapshot(&n, &e));
            let (n, e) = engine_snapshot(&full);
            black_box(self.inc_full.sync_snapshot(&n, &e));
            self.times.inc_sync.push(ns(t));

            let t = Instant::now();
            let csr = Csr::from_digraph(&sg);
            self.times.csr_build.push(ns(t));

            let t = Instant::now();
            black_box(assess_csr(&csr, &sw_cfg(sg.node_count())));
            self.times.smallworld.push(ns(t));

            let t = Instant::now();
            let sub = isp_subgraph(&sg, &self.db, self.cfg.isp_panel);
            if sub.node_count() >= self.cfg.min_graph_nodes {
                black_box(assess(&sub, &sw_cfg(sub.node_count())));
            }
            self.times.isp_smallworld.push(ns(t));

            let t = Instant::now();
            black_box(garlaschelli_reciprocity(&intra_isp_link_graph(&full, &self.db)).ok());
            black_box(garlaschelli_reciprocity(&inter_isp_link_graph(&full, &self.db)).ok());
            self.times.reciprocity.push(ns(t));
        }
        self.times.boundary.push(ns(tb));
    }
}

// ------------------------------------------------------ stage 1: study

/// The durable study's admission path with each archive append timed.
struct TimedGateway<'a> {
    core: &'a mut GatewayCore,
    writer: &'a mut ArchiveWriter,
    store: &'a mut TraceStore,
    append_ns: &'a mut Vec<f64>,
    io_error: &'a mut Option<io::Error>,
}

impl ReportGateway for TimedGateway<'_> {
    fn submit_report(&mut self, report: PeerReport, now: SimTime) -> Result<(), SubmitError> {
        if self.core.admit(&report, now)? {
            let t = Instant::now();
            let appended = self.writer.append(&report);
            self.append_ns.push(ns(t));
            if let Err(e) = appended {
                self.io_error.get_or_insert(e);
            }
            self.store.push(report);
        }
        Ok(())
    }
}

fn study_stage(out: &mut Layers, run: &Path, seed: u64, scale: f64) -> io::Result<()> {
    let cfg = study_config(seed, scale, STUDY_SAMPLE_MINS);
    let dcfg = durable_config();
    wipe(run)?;
    let durable = DurableStudy::new(run, cfg.clone(), dcfg.clone());
    let fingerprint = durable.fingerprint();
    let ckpt_dir = durable.checkpoint_dir();
    std::fs::create_dir_all(&ckpt_dir)?;
    let window_end = SimTime::at(DAYS, 0, 0);

    let stage = Instant::now();
    let mut sim = OverlaySim::new(cfg.scenario(), cfg.sim.clone());
    let tick_len = cfg.sim.tick;
    let mut pass = BoundaryPass::new(&cfg, sim.isp_database().clone());
    let boundaries = pass.boundaries();
    let mut next_boundary = 0usize;
    let mut writer = ArchiveWriter::create(&durable.archive_dir(), dcfg.archive)?;
    let mut core = GatewayCore::new(window_end, cfg.faults.server_outages.clone());
    let mut uplink = ReportUplink::new(UPLINK_CAPACITY);
    let mut store = TraceStore::new();
    let mut state = sim.begin();
    let mut buf: Vec<PeerReport> = Vec::new();
    let (mut tick_ns, mut append_ns, mut sync_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut capture_ns, mut ckpt_ns, mut ckpt_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut peer_ticks = 0f64;
    let mut io_error: Option<io::Error> = None;
    let every = dcfg.checkpoint_every_ticks.max(1);
    loop {
        let tick = state.next_tick();
        if tick > 0 && tick.is_multiple_of(every) {
            let t = Instant::now();
            writer.sync()?;
            sync_ns.push(ns(t));
            let t = Instant::now();
            let body = sim.capture(&state).encode();
            capture_ns.push(ns(t));
            ckpt_bytes.push(body.len() as f64);
            let t = Instant::now();
            write_checkpoint(&ckpt_dir, fingerprint, tick, &body)?;
            prune_checkpoints(&ckpt_dir, dcfg.keep_checkpoints.max(1))?;
            ckpt_ns.push(ns(t));
        }
        let t = Instant::now();
        let more = sim
            .tick_once(&mut state, &mut |r: PeerReport| buf.push(r))
            .map_err(io_err)?;
        tick_ns.push(ns(t));
        peer_ticks += sim.live_peers() as f64;
        for r in buf.drain(..) {
            let now = r.time;
            let mut gw = TimedGateway {
                core: &mut core,
                writer: &mut writer,
                store: &mut store,
                append_ns: &mut append_ns,
                io_error: &mut io_error,
            };
            uplink.send_via(r, now, &mut gw);
        }
        if let Some(e) = io_error.take() {
            return Err(e);
        }
        // A boundary is complete once the stream is a tick past it.
        let horizon = SimTime::ORIGIN + SimDuration::from_millis(tick_len.as_millis() * tick);
        while let Some(&b) = boundaries.get(next_boundary) {
            if b > horizon {
                break;
            }
            pass.run(&store, b);
            next_boundary += 1;
        }
        if !more {
            break;
        }
    }
    let mut gw = TimedGateway {
        core: &mut core,
        writer: &mut writer,
        store: &mut store,
        append_ns: &mut append_ns,
        io_error: &mut io_error,
    };
    uplink.flush_via(window_end, &mut gw);
    if let Some(e) = io_error.take() {
        return Err(e);
    }
    for &b in boundaries.get(next_boundary..).unwrap_or_default() {
        pass.run(&store, b);
    }
    let summary = writer.finish()?;
    out.study_stage_s = stage.elapsed().as_secs_f64();

    let sim_summary = *state.summary();
    let tick_total = sum(&tick_ns);
    out.put(
        "overlay.tick_ms_p50",
        percentile(&tick_ns, 50.0) / 1e6,
        "ms",
    );
    out.put(
        "overlay.tick_ms_p99",
        percentile(&tick_ns, 99.0) / 1e6,
        "ms",
    );
    out.put("overlay.tick_s", tick_total / 1e9, "s");
    out.put(
        "overlay.ns_per_peer_tick",
        tick_total / peer_ticks.max(1.0),
        "ns",
    );
    out.put("overlay.capture_ms", median(&capture_ns) / 1e6, "ms");
    out.put(
        "overlay.checkpoint_mb",
        median(&ckpt_bytes) / 1048576.0,
        "MiB",
    );
    out.put("overlay.reports", sim_summary.reports as f64, "count");
    out.put("overlay.joins", sim_summary.joins as f64, "count");
    out.put(
        "overlay.peak_live",
        sim_summary.peak_concurrent as f64,
        "count",
    );
    out.put("checkpoint.write_ms", median(&ckpt_ns) / 1e6, "ms");
    let (_, archive_bytes) = archive_digest(&durable.archive_dir())?;
    out.put("archive.append_us", median(&append_ns) / 1e3, "us");
    out.put(
        "archive.sync_ms_p50",
        percentile(&sync_ns, 50.0) / 1e6,
        "ms",
    );
    out.put("archive.syncs", sync_ns.len() as f64, "count");
    out.put("archive.mb", archive_bytes as f64 / 1048576.0, "MiB");
    out.put("archive.segments", summary.sealed_segments as f64, "count");
    out.gate(
        summary.records == sim_summary.reports && !ckpt_ns.is_empty(),
        "traced study loop lost reports or skipped checkpoints",
    );
    Ok(())
}

// ------------------------------------------- stages 2 and 3: read, replay

fn replay_stage(
    out: &mut Layers,
    run: &Path,
    seed: u64,
    scale: f64,
) -> io::Result<Vec<PeerReport>> {
    let archive = run.join("archive");
    let (_, bytes) = archive_digest(&archive)?;
    let t = Instant::now();
    let mut n = 0u64;
    let rc = magellan::trace::archive::read_archive(&archive, |r| {
        n += 1;
        black_box(r);
    })?;
    let read_s = t.elapsed().as_secs_f64();
    out.put(
        "archive.read_mb_s",
        bytes as f64 / 1048576.0 / read_s,
        "MiB/s",
    );
    out.gate(rc.is_clean(), "traced archive read found damage");

    let cfg = study_config(seed, scale, REPLAY_SAMPLE_MINS);
    let t = Instant::now();
    let report = DurableStudy::new(run, cfg.clone(), durable_config()).analyze_archive()?;
    let replay_s = t.elapsed().as_secs_f64();
    out.gate(
        report
            .recovery
            .as_ref()
            .is_some_and(|rc| rc.records_recovered == n),
        "traced replay recovered a different record count",
    );

    let stage = Instant::now();
    let mut store = TraceStore::new();
    magellan::trace::archive::read_archive(&archive, |r| store.push(r))?;
    let db = IspDatabase::synthetic(cfg.sim.isp_shares);
    let mut pass = BoundaryPass::new(&cfg, db);
    for b in pass.boundaries() {
        pass.run(&store, b);
    }
    out.replay_stage_s = stage.elapsed().as_secs_f64();

    let t = &pass.times;
    let ms = |v: &[f64]| median(v) / 1e6;
    out.put("analysis.replay_s", replay_s, "s");
    out.put("analysis.boundary_ms", ms(&t.boundary), "ms");
    out.put("snapshot.build_ms", ms(&t.snapshot), "ms");
    out.put("analysis.link_graph_ms", ms(&t.link_graph), "ms");
    out.put("graph.csr_build_ms", ms(&t.csr_build), "ms");
    out.put("graph.inc_sync_ms", ms(&t.inc_sync), "ms");
    out.put("graph.smallworld_ms", ms(&t.smallworld), "ms");
    out.put("graph.isp_smallworld_ms", ms(&t.isp_smallworld), "ms");
    out.put("graph.reciprocity_ms", ms(&t.reciprocity), "ms");
    out.put("graph.nodes_max", t.nodes_max as f64, "count");
    out.put("graph.edges_max", t.edges_max as f64, "count");
    out.put(
        "analysis.span_coverage",
        sum(&t.boundary) / 1e9 / replay_s,
        "ratio",
    );
    out.gate(
        t.boundary.len() == 143,
        "traced replay did not visit 143 boundaries",
    );
    Ok(store.reports().to_vec())
}

// ------------------------------------------------- stage 4: ingest

fn ingest_stage(
    out: &mut Layers,
    work: &Path,
    traced_bin: &Path,
    reports: &[PeerReport],
    seed: u64,
    scale: f64,
) -> io::Result<()> {
    let plans = client_plans(reports);
    let dir = work.join("trace-serve");
    let run = run_ingest(traced_bin, &dir, seed, scale, &plans, true)?;
    out.ingest_stage_s = run.wall_s;

    let mut send = Vec::new();
    let mut mark = Vec::new();
    let mut finish: f64 = 0.0;
    let (mut attempts, mut delivered, mut retransmitted, mut capped, mut offered) = (0, 0, 0, 0, 0);
    for (stats, times) in &run.clients {
        send.extend(times.send_ns.iter().map(|&v| v as f64));
        mark.extend(times.mark_ns.iter().map(|&v| v as f64));
        finish = finish.max(times.finish_ns as f64);
        attempts += stats.attempts;
        delivered += stats.delivered;
        retransmitted += stats.retransmitted;
        capped += stats.backoff_capped;
        offered += stats.offered;
    }
    out.put("uplink.send_us_p50", percentile(&send, 50.0) / 1e3, "us");
    out.put("uplink.send_us_p99", percentile(&send, 99.0) / 1e3, "us");
    out.put("uplink.send_s", sum(&send) / 1e9, "s");
    out.put("uplink.mark_ms_p50", percentile(&mark, 50.0) / 1e6, "ms");
    out.put("uplink.mark_ms_p99", percentile(&mark, 99.0) / 1e6, "ms");
    out.put("uplink.mark_s", sum(&mark) / 1e9, "s");
    out.put("uplink.finish_ms", finish / 1e6, "ms");
    out.put(
        "uplink.attempts_per_delivered",
        attempts as f64 / (delivered as f64).max(1.0),
        "ratio",
    );
    out.put("uplink.retransmitted", retransmitted as f64, "count");
    out.put("uplink.backoff_capped", capped as f64, "count");
    out.put("serve.cpu_s", run.serve_cpu_s, "s");
    out.put("serve.cores_busy", run.serve_cpu_s / run.wall_s, "cores");

    let stats = read_ingest_stats(&run.dir.join("archive"))?.unwrap_or_default();
    out.put(
        "service.admitted_frac",
        stats.admitted as f64 / (offered as f64).max(1.0),
        "ratio",
    );
    out.put("service.shed_busy", stats.shed_busy as f64, "count");
    out.put("service.late", stats.late as f64, "count");
    out.put("service.lost", stats.lost as f64, "count");
    out.put("service.merges", stats.merges as f64, "count");
    out.gate(
        run.exit_code == 0,
        "traced serve exited with a failure code",
    );
    out.gate(
        stats.balanced() && stats.admitted == offered && offered == reports.len() as u64,
        "traced ingest books do not balance",
    );
    wipe(&dir)
}

// ------------------------------------------- stage 5: sans-I/O admission

fn shard_stage(out: &mut Layers, reports: &[PeerReport]) {
    let window_end = SimTime::at(DAYS, 0, 0);
    let every = SimDuration::from_mins(MARK_EVERY_MINS);
    let payloads: Vec<_> = reports.iter().map(wire::encode).collect();
    let mut shards: Vec<Shard> = (0..SHARDS)
        .map(|_| Shard::new(window_end, PENDING_CAP))
        .collect();
    let (mut ingest_ns, mut drain_ns, mut merge_ns) = (0f64, Vec::new(), Vec::new());
    let mut admitted = 0usize;
    let mut seal = |shards: &mut Vec<Shard>, below: SimTime| {
        let t = Instant::now();
        let batches: Vec<Vec<PeerReport>> =
            shards.iter_mut().map(|s| s.drain_below(below)).collect();
        drain_ns.push(ns(t));
        let t = Instant::now();
        let merged = merge_sorted(batches);
        merge_ns.push(ns(t));
        admitted += merged.len();
    };
    let mut next_mark = SimTime::ORIGIN + every;
    for (r, payload) in reports.iter().zip(&payloads) {
        while r.time >= next_mark {
            seal(&mut shards, next_mark);
            next_mark += every;
        }
        if let Some(shard) = shards.get_mut(shard_of(r.addr, SHARDS)) {
            let t = Instant::now();
            black_box(shard.ingest_wire(payload));
            ingest_ns += ns(t);
        }
    }
    seal(&mut shards, window_end);
    out.put(
        "shard.ingest_ns",
        ingest_ns / (reports.len() as f64).max(1.0),
        "ns",
    );
    out.put("shard.drain_us", median(&drain_ns) / 1e3, "us");
    out.put("service.merge_us", median(&merge_ns) / 1e3, "us");
    out.gate(
        admitted == reports.len(),
        "in-process admission replay lost reports",
    );
}

/// Runs every stage for `seed` and collects the per-layer metrics.
pub fn trace(work: &Path, traced_bin: &Path, seed: u64, scale: f64) -> io::Result<Layers> {
    let mut out = Layers {
        correct: true,
        ..Layers::default()
    };
    let run = work.join("trace-study");
    study_stage(&mut out, &run, seed, scale)?;
    let reports = replay_stage(&mut out, &run, seed, scale)?;
    wipe(&run)?;
    ingest_stage(&mut out, work, traced_bin, &reports, seed, scale)?;
    shard_stage(&mut out, &reports);
    out.put(
        "par.workers",
        magellan::par::pool_stats().workers as f64,
        "count",
    );
    Ok(out)
}
