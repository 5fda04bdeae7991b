//! The end-to-end Magellan study driver.
//!
//! [`MagellanStudy`] wires a workload scenario into the overlay
//! simulator and consumes the emitted reports *as a stream*,
//! maintaining just enough state to reconstruct snapshots at sampling
//! boundaries: the last two reports of each recently-seen peer (the
//! paper's trace server kept 120 GB; we keep a rolling window). At
//! every sample instant it materializes the stable-peer set, builds
//! the active-link topology, and appends one point to each figure's
//! series.

use crate::figures::{DegreeSnapshot, PartialSample, StudyReport};
use crate::graphs::{
    active_link_graph, inter_isp_link_graph, intra_isp_degree_fractions, intra_isp_link_graph,
    intra_isp_pool_fraction, isp_share_baseline, isp_subgraph, NodeScope,
};
use crate::timeseries::Series;
use magellan_graph::paths::PathSampling;
use magellan_graph::powerlaw;
use magellan_graph::reciprocity::garlaschelli_reciprocity;
use magellan_graph::smallworld::{
    assess, assess_csr, assess_csr_with_clustering, SmallWorldConfig, SmallWorldReport,
};
use magellan_graph::{Csr, DegreeHistogram, DiGraph, IncrementalTopology};
use magellan_netsim::{
    uncovered_fraction, Isp, IspDatabase, PeerAddr, SimDuration, SimTime, StudyCalendar,
};
use magellan_overlay::{OverlaySim, SimConfig};
use magellan_trace::PeerReport;
use magellan_workload::{FaultPlan, Scenario};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Configuration of one study run.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Experiment seed.
    pub seed: u64,
    /// Population scale (1.0 ≈ the paper's 100k concurrent peers).
    pub scale: f64,
    /// Study window length in days (the paper plots 14).
    pub window_days: u64,
    /// Metric sampling cadence.
    pub sample_every: SimDuration,
    /// Instants at which Fig. 4 degree distributions are captured,
    /// with labels. Defaults mirror the paper: 9 a.m. and 9 p.m. on a
    /// normal day and on the flash-crowd day (Oct 6 = day 5).
    pub degree_captures: Vec<(String, SimTime)>,
    /// The ISP of Fig. 7(B) (paper: China Netcom).
    pub isp_panel: Isp,
    /// Satisfaction threshold of Fig. 3 (fraction of channel rate).
    pub quality_fraction: f64,
    /// Graph metrics are skipped at samples with fewer stable peers
    /// than this (tiny graphs produce degenerate values).
    pub min_graph_nodes: usize,
    /// Overrides the scenario's flash crowds when set (`Some(vec![])`
    /// disables them — the crowd-ablation runs use this).
    pub flash_crowds: Option<Vec<magellan_workload::FlashCrowd>>,
    /// Overrides the scenario's channel directory when set (tests use
    /// a two-channel lineup so per-channel populations stay dense at
    /// tiny scales).
    pub channels: Option<magellan_workload::ChannelDirectory>,
    /// Protocol/simulator parameters.
    pub sim: SimConfig,
    /// Scheduled faults (default: none). Tracker/server outages,
    /// crash waves, partitions and report loss run inside the
    /// simulator; the `server_outages` schedule additionally marks
    /// analysis samples whose staleness horizon overlaps an outage as
    /// partial, in both the live and the replay path.
    pub faults: FaultPlan,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            seed: 2006,
            scale: 0.01,
            window_days: 14,
            sample_every: SimDuration::from_mins(60),
            degree_captures: vec![
                ("9am d2".into(), SimTime::at(2, 9, 0)),
                ("9pm d2".into(), SimTime::at(2, 21, 0)),
                ("9am d5".into(), SimTime::at(5, 9, 0)),
                ("9pm d5 (flash)".into(), SimTime::at(5, 21, 0)),
            ],
            isp_panel: Isp::Netcom,
            quality_fraction: 0.9,
            min_graph_nodes: 20,
            flash_crowds: None,
            channels: None,
            sim: SimConfig::default(),
            faults: FaultPlan::default(),
        }
    }
}

impl StudyConfig {
    /// Builds the workload scenario this config describes.
    pub fn scenario(&self) -> Scenario {
        let mut b = Scenario::builder(self.seed, self.scale).calendar(StudyCalendar {
            window_days: self.window_days,
        });
        if let Some(crowds) = &self.flash_crowds {
            b = b.flash_crowds(crowds.clone());
        }
        if let Some(channels) = &self.channels {
            b = b.channels(channels.clone());
        }
        if !self.faults.is_empty() {
            b = b.faults(self.faults.clone());
        }
        b.build()
    }
}

/// The study runner.
#[derive(Debug, Clone)]
pub struct MagellanStudy {
    cfg: StudyConfig,
}

impl MagellanStudy {
    /// Creates a runner.
    pub fn new(cfg: StudyConfig) -> Self {
        MagellanStudy { cfg }
    }

    /// Convenience: default configuration at the given seed/scale.
    pub fn with_scale(seed: u64, scale: f64) -> Self {
        MagellanStudy::new(StudyConfig {
            seed,
            scale,
            ..StudyConfig::default()
        })
    }

    /// The configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.cfg
    }

    /// Runs the simulation and the full analysis, producing every
    /// figure of the paper.
    pub fn run(&self) -> StudyReport {
        let scenario = self.cfg.scenario();
        let mut sim = OverlaySim::new(scenario, self.cfg.sim.clone());
        let db = sim.isp_database().clone();
        let mut acc = Accumulator::new(&self.cfg, db);
        // lint:allow(C1): scenario and rate table come from the same StudyConfig, so the sim cannot report an inconsistency; abort loudly if it somehow does
        let summary = sim
            .run(|r| acc.ingest(r))
            .expect("study scenario is self-consistent");
        let mut report = acc.finish();
        report.sim = summary;
        report
    }
}

/// The last two reports of one peer (two suffice: sampling lags the
/// stream by at most one simulator tick, which is shorter than the
/// 10-minute report interval).
#[derive(Debug, Clone)]
struct RecentPair {
    newer: PeerReport,
    older: Option<PeerReport>,
}

impl RecentPair {
    fn push(&mut self, r: PeerReport) {
        let old = std::mem::replace(&mut self.newer, r);
        self.older = Some(old);
    }

    /// The freshest report with `time <= at` and `time > at - horizon`.
    fn select(&self, at: SimTime, horizon: SimDuration) -> Option<&PeerReport> {
        let floor = at - horizon;
        if self.newer.time <= at && self.newer.time > floor {
            return Some(&self.newer);
        }
        match &self.older {
            Some(o) if o.time <= at && o.time > floor => Some(o),
            _ => None,
        }
    }
}

/// A sampling boundary: either a periodic sample, a Fig. 4 capture,
/// or both.
#[derive(Debug, Clone)]
struct Boundary {
    time: SimTime,
    sample: bool,
    capture: Option<usize>,
}

pub(crate) struct Accumulator {
    cfg: StudyConfig,
    db: IspDatabase,
    staleness: SimDuration,
    // BTreeMaps: both maps are iterated/retained on the metric path,
    // where hash order would leak into figure bytes (rule D4).
    recent: BTreeMap<PeerAddr, RecentPair>,
    boundaries: Vec<Boundary>,
    next_boundary: usize,
    day_total_ips: Vec<HashSet<u32>>,
    day_stable_ips: Vec<HashSet<u32>>,
    isp_share_sums: [f64; 7],
    isp_share_samples: u64,
    /// Per-peer open report run: (run start, previous report, count).
    session_runs: BTreeMap<PeerAddr, (SimTime, SimTime, u32)>,
    /// Observed lengths (minutes) of completed report runs.
    finished_sessions_mins: Vec<f64>,
    /// Incremental snapshot engines carried across report boundaries:
    /// one tracking the stable-peer topology (Fig. 7 clustering), one
    /// the all-known topology (Fig. 8 reciprocity). Their state is a
    /// pure function of the snapshots synced so far, so live, replay,
    /// and resumed runs all arrive at identical metric bytes.
    inc_stable: IncrementalTopology,
    inc_full: IncrementalTopology,
    report: StudyReport,
}

/// Extracts the engine-facing snapshot of one topology: sorted node
/// keys and `(from, to, weight)` edges in ascending `(from, to)`
/// order, as [`IncrementalTopology::sync_snapshot`] requires.
fn graph_snapshot(g: &DiGraph<PeerAddr>) -> (Vec<u32>, Vec<(u32, u32, u64)>) {
    let mut nodes: Vec<u32> = g.nodes().map(|(_, k)| k.as_u32()).collect(); // lint:allow(H2): one snapshot extraction per report boundary, reused by the diff
    nodes.sort_unstable();
    let mut edges: Vec<(u32, u32, u64)> = g
        .edges()
        .map(|e| (g.key(e.from).as_u32(), g.key(e.to).as_u32(), e.weight))
        .collect(); // lint:allow(H2): same per-boundary snapshot extraction
    edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    (nodes, edges)
}

impl Accumulator {
    pub(crate) fn new(cfg: &StudyConfig, db: IspDatabase) -> Self {
        let window_end = SimTime::at(cfg.window_days, 0, 0);
        // Merge the periodic grid with the capture instants.
        let mut boundaries: Vec<Boundary> = Vec::new();
        let mut t = SimTime::ORIGIN + cfg.sample_every;
        while t < window_end {
            boundaries.push(Boundary {
                time: t,
                sample: true,
                capture: None,
            });
            t += cfg.sample_every;
        }
        for (i, (_, ct)) in cfg.degree_captures.iter().enumerate() {
            if *ct >= window_end {
                continue;
            }
            match boundaries.binary_search_by_key(&ct.as_millis(), |b| b.time.as_millis()) {
                Ok(pos) => boundaries[pos].capture = Some(i),
                Err(pos) => boundaries.insert(
                    pos,
                    Boundary {
                        time: *ct,
                        sample: false,
                        capture: Some(i),
                    },
                ),
            }
        }
        let days = cfg.window_days as usize;
        let mut report = StudyReport::default();
        report.fig1a.total = Series::new("total peers");
        report.fig1a.stable = Series::new("stable peers");
        report.fig3.cctv1 = Series::new("CCTV1");
        report.fig3.cctv4 = Series::new("CCTV4");
        report.fig3.cctv1_viewers = Series::new("CCTV1 viewers");
        report.fig3.cctv4_viewers = Series::new("CCTV4 viewers");
        report.fig5.partners = Series::new("partner count");
        report.fig5.indegree = Series::new("active indegree");
        report.fig5.outdegree = Series::new("active outdegree");
        report.fig6.indegree = Series::new("intra-ISP indegree fraction");
        report.fig6.outdegree = Series::new("intra-ISP outdegree fraction");
        report.fig6.pool = Series::new("intra-ISP partner pool fraction");
        report.fig6.baseline = isp_share_baseline(&db);
        for (sw, tag) in [
            (&mut report.fig7.global, "global"),
            (&mut report.fig7.isp, "isp"),
        ] {
            sw.c = Series::new(format!("C {tag}"));
            sw.c_rand = Series::new(format!("C_rand {tag}"));
            sw.l = Series::new(format!("L {tag}"));
            sw.l_rand = Series::new(format!("L_rand {tag}"));
        }
        report.fig7.isp_choice = cfg.isp_panel;
        report.fig8.all = Series::new("rho all");
        report.fig8.intra = Series::new("rho intra-ISP");
        report.fig8.inter = Series::new("rho inter-ISP");
        report.fig8.weighted = Series::new("weighted r_w");
        Accumulator {
            cfg: cfg.clone(),
            db,
            staleness: SimDuration::from_mins(15),
            recent: BTreeMap::new(),
            boundaries,
            next_boundary: 0,
            day_total_ips: vec![HashSet::new(); days],
            day_stable_ips: vec![HashSet::new(); days],
            isp_share_sums: [0.0; 7],
            isp_share_samples: 0,
            session_runs: BTreeMap::new(),
            finished_sessions_mins: Vec::new(),
            inc_stable: IncrementalTopology::new(),
            inc_full: IncrementalTopology::new(),
            report,
        }
    }

    /// Observed length in minutes of a report run `[start, end]`
    /// (span plus the 20 minutes before the first report).
    fn observed_mins(start: SimTime, end: SimTime) -> f64 {
        (end.saturating_since(start) + magellan_trace::FIRST_REPORT_DELAY).as_millis() as f64
            / 60_000.0
    }

    pub(crate) fn ingest(&mut self, r: PeerReport) {
        // Finalize every boundary that is certainly complete: report
        // emission lags report timestamps by less than one tick, so
        // once a report with time >= B + tick arrives, no report with
        // time <= B can follow.
        let safe_margin = self.cfg.sim.tick;
        while self.next_boundary < self.boundaries.len()
            && r.time >= self.boundaries[self.next_boundary].time + safe_margin
        {
            let b = self.boundaries[self.next_boundary].clone();
            self.finalize_boundary(&b);
            self.next_boundary += 1;
        }

        // Daily distinct-IP accounting.
        let day = r.time.day() as usize;
        if day < self.day_total_ips.len() {
            self.day_total_ips[day].insert(r.addr.as_u32());
            self.day_stable_ips[day].insert(r.addr.as_u32());
            for p in &r.partners {
                self.day_total_ips[day].insert(p.addr.as_u32());
            }
        }

        // Streaming stable-session reconstruction: split a peer's
        // report run where the gap exceeds two report intervals.
        let split_gap = SimDuration::from_millis(magellan_trace::REPORT_INTERVAL.as_millis() * 2);
        match self.session_runs.get_mut(&r.addr) {
            Some((start, prev, count)) => {
                if r.time.saturating_since(*prev) > split_gap {
                    self.finished_sessions_mins
                        .push(Self::observed_mins(*start, *prev));
                    *start = r.time;
                    *count = 0;
                }
                *prev = r.time;
                *count += 1;
            }
            None => {
                self.session_runs.insert(r.addr, (r.time, r.time, 1));
            }
        }

        // Rolling two-report window.
        match self.recent.get_mut(&r.addr) {
            Some(pair) => pair.push(r),
            None => {
                let addr = r.addr;
                self.recent.insert(
                    addr,
                    RecentPair {
                        newer: r,
                        older: None,
                    },
                );
            }
        }
    }

    pub(crate) fn finish(mut self) -> StudyReport {
        // Remaining boundaries (the stream ended).
        while self.next_boundary < self.boundaries.len() {
            let b = self.boundaries[self.next_boundary].clone();
            self.finalize_boundary(&b);
            self.next_boundary += 1;
        }
        // Fig. 1B.
        self.report.fig1b.total = self
            .day_total_ips
            .iter()
            .enumerate()
            .map(|(d, s)| (d as u64, s.len() as u64))
            .collect();
        self.report.fig1b.stable = self
            .day_stable_ips
            .iter()
            .enumerate()
            .map(|(d, s)| (d as u64, s.len() as u64))
            .collect();
        // Stable-session statistics: close the open runs, then
        // summarize without materializing session structs.
        let mut mins = std::mem::take(&mut self.finished_sessions_mins);
        mins.extend(
            self.session_runs
                .values()
                .map(|&(start, prev, _)| Self::observed_mins(start, prev)),
        );
        if !mins.is_empty() {
            mins.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let n = mins.len();
            self.report.sessions = Some(crate::sessions::SessionSummary {
                sessions: n,
                mean_mins: mins.iter().sum::<f64>() / n as f64,
                median_mins: mins[n / 2],
                p90_mins: mins[(n.saturating_mul(9) / 10).min(n - 1)],
            });
        }
        // Fig. 2.
        if self.isp_share_samples > 0 {
            self.report.fig2.shares = Isp::ALL
                .iter()
                .map(|&isp| {
                    (
                        isp,
                        self.isp_share_sums[isp.index()] / self.isp_share_samples as f64,
                    )
                })
                .collect();
        }
        self.report
    }

    fn finalize_boundary(&mut self, b: &Boundary) {
        let at = b.time;
        // Prune peers whose newest report fell out of the horizon —
        // they cannot matter for this or any later boundary.
        let floor = at - self.staleness;
        self.recent.retain(|_, pair| pair.newer.time > floor); // lint:allow(H3): horizon pruning walks the rolling window once per boundary, not per tick

        // The stable set at `at`, sorted for determinism. Cloned out
        // of the rolling window so the figure builders can borrow
        // `self` mutably; the set is a few hundred reports.
        let mut stable: Vec<PeerReport> = self
            .recent
            .values()
            .filter_map(|pair| pair.select(at, self.staleness))
            .cloned()
            .collect(); // lint:allow(H2): clones the stable set out of the window once per boundary
        stable.sort_by_key(|r| r.addr);

        // Fraction of this boundary's horizon with the collection
        // server up. Derived from the configured outage schedule — not
        // from the report stream — so the live and replay paths mark
        // the same boundaries partial and stay byte-identical.
        let coverage = uncovered_fraction(
            &self.cfg.faults.server_outages,
            floor + SimDuration::from_millis(1),
            at + SimDuration::from_millis(1),
        );
        if b.sample {
            if coverage < 1.0 {
                // A server outage ate into this horizon: the stable
                // set is a known undercount. Record the hole instead
                // of averaging over it.
                self.report
                    .partial_samples
                    .push(PartialSample { time: at, coverage });
            } else {
                self.sample_population(at, &stable);
                self.sample_quality(at, &stable);
                self.sample_degrees(at, &stable);
                self.sample_graph_metrics(at, &stable);
            }
        }
        if let Some(ci) = b.capture {
            self.capture_degree_distribution(ci, at, coverage, &stable);
        }
    }

    fn sample_population(&mut self, at: SimTime, stable: &[PeerReport]) {
        // BTreeSet: iterated below for the ISP share counts.
        let mut known: BTreeSet<PeerAddr> = BTreeSet::new();
        for r in stable {
            known.insert(r.addr);
            for p in &r.partners {
                known.insert(p.addr);
            }
        }
        self.report.fig1a.stable.push(at, stable.len() as f64);
        self.report.fig1a.total.push(at, known.len() as f64);
        // Fig. 2 accumulation over the known population.
        if !known.is_empty() {
            let mut counts = [0u64; 7];
            // lint:allow(H3): Fig. 2 ISP shares are defined over the whole known population, per boundary
            for addr in &known {
                counts[self.db.lookup(*addr).index()] += 1;
            }
            for isp in Isp::ALL {
                self.isp_share_sums[isp.index()] += counts[isp.index()] as f64 / known.len() as f64;
            }
            self.isp_share_samples += 1;
        }
    }

    fn sample_quality(&mut self, at: SimTime, stable: &[PeerReport]) {
        use magellan_workload::ChannelId;
        for (channel, series, viewer_series) in [
            (
                ChannelId::CCTV1,
                &mut self.report.fig3.cctv1,
                &mut self.report.fig3.cctv1_viewers,
            ),
            (
                ChannelId::CCTV4,
                &mut self.report.fig3.cctv4,
                &mut self.report.fig3.cctv4_viewers,
            ),
        ] {
            let viewers: Vec<&PeerReport> =
                stable.iter().filter(|r| r.channel == channel).collect(); // lint:allow(H2): per-channel viewer slice, rebuilt once per boundary
            viewer_series.push(at, viewers.len() as f64);
            if viewers.is_empty() {
                continue;
            }
            let good = viewers
                .iter()
                .filter(|r| r.achieves_rate(400.0, self.cfg.quality_fraction))
                .count();
            series.push(at, good as f64 / viewers.len() as f64);
        }
    }

    fn sample_degrees(&mut self, at: SimTime, stable: &[PeerReport]) {
        if stable.is_empty() {
            return;
        }
        let mut sp = 0usize;
        let mut si = 0usize;
        let mut so = 0usize;
        for r in stable {
            let (p, i, o) = crate::classify::degree_triple(r);
            sp += p;
            si += i;
            so += o;
        }
        let n = stable.len() as f64;
        self.report.fig5.partners.push(at, sp as f64 / n);
        self.report.fig5.indegree.push(at, si as f64 / n);
        self.report.fig5.outdegree.push(at, so as f64 / n);
        // Fig. 6.
        let (fin, fout) = intra_isp_degree_fractions(stable.iter(), &self.db);
        self.report.fig6.indegree.push(at, fin);
        self.report.fig6.outdegree.push(at, fout);
        self.report
            .fig6
            .pool
            .push(at, intra_isp_pool_fraction(stable.iter(), &self.db));
    }

    fn sample_graph_metrics(&mut self, at: SimTime, stable: &[PeerReport]) {
        if stable.len() < self.cfg.min_graph_nodes {
            return;
        }
        let sw_cfg = |n: usize| SmallWorldConfig {
            // Exact metrics below 1500 nodes; sampled above.
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
        };

        // Build both topologies up front (construction allocates and
        // stays sequential); the metric kernels below run over shared
        // Csr snapshots and fan out.
        let stable_graph = active_link_graph(stable.iter(), NodeScope::StableOnly);
        let full = active_link_graph(stable.iter(), NodeScope::AllKnown);

        // Advance the incremental engines to this boundary's snapshots
        // (sequentially — they mutate accumulator state). Successive
        // boundaries share most of their links, so each sync costs
        // O(delta) instead of a full triangle/reciprocity recount; the
        // engines then answer Fig. 7's exact clustering and Fig. 8's
        // whole-graph reciprocity from maintained counters.
        let (snodes, sedges) = graph_snapshot(&stable_graph);
        self.inc_stable.sync_snapshot(&snodes, &sedges);
        let (fnodes, fedges) = graph_snapshot(&full);
        self.inc_full.sync_snapshot(&fnodes, &fedges);

        // Exact clustering comes straight from the stable engine when
        // the config would compute it exactly anyway; larger graphs
        // keep the sampled estimator inside `assess_csr`.
        let stable_cfg = sw_cfg(stable_graph.node_count());
        let c_exact = stable_cfg
            .clustering_samples
            .is_none()
            .then(|| self.inc_stable.clustering_coefficient());
        // Fig. 8's whole-graph reciprocity reads the full engine's
        // counters directly — no `Csr` build of the all-known topology
        // at all.
        let all = self.inc_full.garlaschelli_reciprocity().ok();
        let weighted = self.inc_full.weighted_reciprocity().ok();

        let db = &self.db;
        let isp_panel = self.cfg.isp_panel;
        let min_graph_nodes = self.cfg.min_graph_nodes;

        // Fig. 7 (small-world) and Fig. 8 (per-ISP reciprocity) read
        // disjoint graphs, so the two metric sets compute concurrently
        // via `magellan_par::join`. Both closures are pure functions
        // of their graphs; the results come back as an ordered pair
        // and the series pushes below happen in the same fixed order
        // as the sequential schedule, so the report is byte-identical
        // for every thread count.
        type Fig7 = (SmallWorldReport, Option<SmallWorldReport>);
        type Fig8 = (Option<f64>, Option<f64>);
        let (fig7, fig8): (Fig7, Fig8) = magellan_par::join(
            || {
                // Fig. 7A: stable-peer graph; 7B: one ISP's subgraph.
                let csr = Csr::from_digraph(&stable_graph);
                let global = match c_exact {
                    Some(c) => assess_csr_with_clustering(&csr, c, &stable_cfg),
                    None => assess_csr(&csr, &stable_cfg),
                };
                let sub = isp_subgraph(&stable_graph, db, isp_panel);
                let isp = (sub.node_count() >= min_graph_nodes)
                    .then(|| assess(&sub, &sw_cfg(sub.node_count())));
                (global, isp)
            },
            || {
                // Fig. 8: per-ISP reciprocity over the all-known
                // topology (the whole-graph values came from the
                // incremental engine above).
                let intra = garlaschelli_reciprocity(&intra_isp_link_graph(&full, db)).ok();
                let inter = garlaschelli_reciprocity(&inter_isp_link_graph(&full, db)).ok();
                (intra, inter)
            },
        );

        let (global, isp) = fig7;
        if let (Some(l), Some(lr)) = (global.l, global.l_rand) {
            self.report.fig7.global.c.push(at, global.c);
            self.report.fig7.global.c_rand.push(at, global.c_rand);
            self.report.fig7.global.l.push(at, l);
            self.report.fig7.global.l_rand.push(at, lr);
        }
        if let Some(r) = isp {
            if let (Some(l), Some(lr)) = (r.l, r.l_rand) {
                self.report.fig7.isp.c.push(at, r.c);
                self.report.fig7.isp.c_rand.push(at, r.c_rand);
                self.report.fig7.isp.l.push(at, l);
                self.report.fig7.isp.l_rand.push(at, lr);
            }
        }
        let (intra, inter) = fig8;
        if let Some(rho) = all {
            self.report.fig8.all.push(at, rho);
        }
        if let Some(rw) = weighted {
            self.report.fig8.weighted.push(at, rw);
        }
        if let Some(rho) = intra {
            self.report.fig8.intra.push(at, rho);
        }
        if let Some(rho) = inter {
            self.report.fig8.inter.push(at, rho);
        }
    }

    fn capture_degree_distribution(
        &mut self,
        ci: usize,
        at: SimTime,
        coverage: f64,
        stable: &[PeerReport],
    ) {
        let label = self.cfg.degree_captures[ci].0.clone(); // lint:allow(H2): one label clone per configured degree capture (a handful per run)
        let mut partners = DegreeHistogram::new();
        let mut indegree = DegreeHistogram::new();
        let mut outdegree = DegreeHistogram::new();
        for r in stable {
            let (p, i, o) = crate::classify::degree_triple(r);
            partners.record(p);
            indegree.record(i);
            outdegree.record(o);
        }
        let samples = partners.to_samples();
        let partner_powerlaw = powerlaw::assess(&samples).ok();
        self.report.fig4.snapshots.push(DegreeSnapshot {
            label,
            time: at,
            coverage,
            partners,
            indegree,
            outdegree,
            partner_powerlaw,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast study: ~80 concurrent peers, 2 days, hourly samples.
    fn quick_config() -> StudyConfig {
        StudyConfig {
            seed: 42,
            scale: 0.0008,
            window_days: 2,
            sample_every: SimDuration::from_hours(2),
            degree_captures: vec![
                ("9am d1".into(), SimTime::at(1, 9, 0)),
                ("9pm d1".into(), SimTime::at(1, 21, 0)),
            ],
            min_graph_nodes: 10,
            ..StudyConfig::default()
        }
    }

    #[test]
    fn study_produces_every_figure() {
        let report = MagellanStudy::new(quick_config()).run();
        assert!(!report.fig1a.total.is_empty(), "fig1a empty");
        assert_eq!(report.fig1b.total.len(), 2, "fig1b days");
        assert!(!report.fig2.shares.is_empty(), "fig2 empty");
        assert!(!report.fig3.cctv1.is_empty(), "fig3 empty");
        assert_eq!(report.fig4.snapshots.len(), 2, "fig4 captures");
        assert!(!report.fig5.partners.is_empty(), "fig5 empty");
        assert!(!report.fig6.indegree.is_empty(), "fig6 empty");
        assert!(!report.fig7.global.c.is_empty(), "fig7 empty");
        assert!(!report.fig8.all.is_empty(), "fig8 empty");
        assert!(report.sim.joins > 0);
    }

    #[test]
    fn study_is_deterministic() {
        let a = MagellanStudy::new(quick_config()).run();
        let b = MagellanStudy::new(quick_config()).run();
        assert_eq!(a.fig1a.total.points, b.fig1a.total.points);
        assert_eq!(a.fig8.all.points, b.fig8.all.points);
        assert_eq!(a.sim, b.sim);
    }

    #[test]
    fn qualitative_findings_hold_in_miniature() {
        let report = MagellanStudy::new(quick_config()).run();
        // Stable peers are a minority but a substantial one.
        let ratio = report.fig1a.stable_ratio();
        assert!(
            (0.1..=0.7).contains(&ratio),
            "stable ratio {ratio} out of plausible band"
        );
        // Most viewers stream satisfactorily. (The miniature scale
        // leaves CCTV1 with a few dozen viewers, so the bar sits
        // below the paper's ~3/4; the default-scale run recorded in
        // EXPERIMENTS.md holds the higher one.)
        assert!(
            report.fig3.cctv1.mean() > 0.4,
            "CCTV1 quality too low: {:.3}",
            report.fig3.cctv1.mean()
        );
        // Reciprocity is positive (mesh, not tree).
        assert!(report.fig8.all.mean() > 0.0, "reciprocity not positive");
        // Indegree stays bounded near the paper's regime.
        assert!(
            report.fig5.indegree.mean() < 30.0,
            "mean indegree {}",
            report.fig5.indegree.mean()
        );
    }

    #[test]
    fn boundaries_merge_samples_and_captures() {
        let cfg = quick_config();
        let db = IspDatabase::default();
        let acc = Accumulator::new(&cfg, db);
        // 2 days of 2-hour samples = 23 sample boundaries (excluding 0
        // and end), plus captures merged in (9am d1 is not on the
        // 2-hour grid? 9am = hour 33 → odd hour → inserted; 9pm d1 =
        // hour 45 → odd → inserted).
        assert!(acc.boundaries.windows(2).all(|w| w[0].time < w[1].time));
        let captures: Vec<_> = acc
            .boundaries
            .iter()
            .filter(|b| b.capture.is_some())
            .collect();
        assert_eq!(captures.len(), 2);
    }

    #[test]
    fn capture_on_the_sample_grid_merges_into_one_boundary() {
        // A capture that lands exactly on a periodic sample must not
        // produce two boundaries at the same instant.
        let mut cfg = quick_config();
        cfg.sample_every = SimDuration::from_hours(1);
        cfg.degree_captures = vec![("on-grid".into(), SimTime::at(0, 3, 0))];
        let acc = Accumulator::new(&cfg, IspDatabase::default());
        let at_3h: Vec<&Boundary> = acc
            .boundaries
            .iter()
            .filter(|b| b.time == SimTime::at(0, 3, 0))
            .collect();
        assert_eq!(at_3h.len(), 1);
        assert!(at_3h[0].sample);
        assert_eq!(at_3h[0].capture, Some(0));
    }

    #[test]
    fn captures_outside_the_window_are_dropped() {
        let mut cfg = quick_config();
        cfg.window_days = 1;
        cfg.degree_captures = vec![("too-late".into(), SimTime::at(5, 0, 0))];
        let acc = Accumulator::new(&cfg, IspDatabase::default());
        assert!(acc.boundaries.iter().all(|b| b.capture.is_none()));
    }

    #[test]
    fn recent_pair_selection() {
        use magellan_trace::BufferMap;
        use magellan_workload::ChannelId;
        let mk = |min: u64| PeerReport {
            time: SimTime::from_millis(min * 60_000),
            addr: PeerAddr::from_u32(1),
            channel: ChannelId::CCTV1,
            buffer_map: BufferMap::new(0, 8),
            download_capacity_kbps: 1000.0,
            upload_capacity_kbps: 500.0,
            recv_throughput_kbps: 400.0,
            send_throughput_kbps: 0.0,
            partners: vec![],
        };
        let mut pair = RecentPair {
            newer: mk(20),
            older: None,
        };
        pair.push(mk(30));
        let horizon = SimDuration::from_mins(15);
        // At t=25 the newer (t=30) is in the future; fall back to 20.
        let sel = pair
            .select(SimTime::from_millis(25 * 60_000), horizon)
            .unwrap();
        assert_eq!(sel.time, SimTime::from_millis(20 * 60_000));
        // At t=31 the newer wins.
        let sel = pair
            .select(SimTime::from_millis(31 * 60_000), horizon)
            .unwrap();
        assert_eq!(sel.time, SimTime::from_millis(30 * 60_000));
        // At t=50 both are stale.
        assert!(pair
            .select(SimTime::from_millis(50 * 60_000), horizon)
            .is_none());
    }
}
