//! Typed results for every figure of the paper, plus text/CSV
//! renderers.
//!
//! Each `FigN*` struct carries exactly the data series the paper
//! plots; [`StudyReport`] bundles all of them for one run. Renderers
//! produce terminal-friendly summaries; `timeseries::to_csv` yields
//! plottable data.

use crate::timeseries::{to_csv, Series};
use magellan_graph::powerlaw::PowerLawVerdict;
use magellan_graph::DegreeHistogram;
use magellan_netsim::{Isp, SimTime};
use magellan_overlay::SimSummary;
use std::fmt::Write as _;

/// Fig. 1(A): concurrent peer population (total vs stable).
#[derive(Debug, Clone, Default)]
pub struct Fig1Population {
    /// All addresses visible in the trace at each sample.
    pub total: Series,
    /// Reporting (stable) peers at each sample.
    pub stable: Series,
}

impl Fig1Population {
    /// The stable-to-total ratio averaged over all samples (the paper
    /// reports "asymptotically 1/3").
    pub fn stable_ratio(&self) -> f64 {
        let pairs: Vec<(f64, f64)> = self
            .stable
            .points
            .iter()
            .zip(self.total.points.iter())
            .filter(|&(&(ts, _), &(tt, _))| ts == tt)
            .map(|(&(_, s), &(_, t))| (s, t))
            .filter(|&(_, t)| t > 0.0)
            .collect();
        if pairs.is_empty() {
            return 0.0;
        }
        pairs.iter().map(|&(s, t)| s / t).sum::<f64>() / pairs.len() as f64
    }

    /// Text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::from("Fig 1(A) — concurrent peers (total vs stable)\n");
        if let Some((t, v)) = self.total.max_point() {
            let _ = writeln!(out, "  peak total population : {v:.0} at {t}");
        }
        let _ = writeln!(out, "  mean total population : {:.0}", self.total.mean());
        let _ = writeln!(out, "  mean stable population: {:.0}", self.stable.mean());
        let _ = writeln!(out, "  stable/total ratio    : {:.3}", self.stable_ratio());
        out
    }

    /// CSV of both curves.
    pub fn to_csv(&self) -> String {
        to_csv(&[&self.total, &self.stable])
    }
}

/// Fig. 1(B): distinct addresses seen per calendar day.
#[derive(Debug, Clone, Default)]
pub struct Fig1DailyIps {
    /// `(day index, distinct addresses)` for the whole trace.
    pub total: Vec<(u64, u64)>,
    /// `(day index, distinct reporter addresses)`.
    pub stable: Vec<(u64, u64)>,
}

impl Fig1DailyIps {
    /// Text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::from("Fig 1(B) — daily distinct IPs\n");
        for (i, &(day, total)) in self.total.iter().enumerate() {
            let stable = self.stable.get(i).map_or(0, |&(_, s)| s);
            let _ = writeln!(out, "  day {day:>2}: total {total:>8}  stable {stable:>8}");
        }
        out
    }
}

/// Fig. 2: average ISP shares of the concurrent population.
#[derive(Debug, Clone, Default)]
pub struct Fig2IspShares {
    /// `(isp, average share)` in `Isp::ALL` order.
    pub shares: Vec<(Isp, f64)>,
}

impl Fig2IspShares {
    /// Share of one ISP (0.0 when absent).
    pub fn share(&self, isp: Isp) -> f64 {
        self.shares
            .iter()
            .find(|&&(i, _)| i == isp)
            .map_or(0.0, |&(_, s)| s)
    }

    /// Text rendering (the pie chart as a table).
    pub fn render_text(&self) -> String {
        let mut out = String::from("Fig 2 — peer shares per ISP\n");
        for &(isp, share) in &self.shares {
            let bar = "#".repeat((share * 100.0).round() as usize / 2);
            let _ = writeln!(out, "  {:<14} {:>5.1}% {bar}", isp.name(), share * 100.0);
        }
        out
    }
}

/// Fig. 3: fraction of viewers at ≥ 90 % of the channel rate.
#[derive(Debug, Clone, Default)]
pub struct Fig3Quality {
    /// CCTV1 satisfaction curve.
    pub cctv1: Series,
    /// CCTV4 satisfaction curve.
    pub cctv4: Series,
    /// Stable CCTV1 viewers per sample (the paper's footnote: ~30,000
    /// concurrent, five times CCTV4).
    pub cctv1_viewers: Series,
    /// Stable CCTV4 viewers per sample (~6,000 in the paper).
    pub cctv4_viewers: Series,
}

impl Fig3Quality {
    /// Mean CCTV1-to-CCTV4 viewer ratio (the paper reports ~5).
    pub fn viewer_ratio(&self) -> f64 {
        let c4 = self.cctv4_viewers.mean();
        if c4 > 0.0 {
            self.cctv1_viewers.mean() / c4
        } else {
            0.0
        }
    }

    /// Text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::from("Fig 3 — viewers at ≥90% of stream rate\n");
        let _ = writeln!(out, "  CCTV1 mean: {:.3}", self.cctv1.mean());
        let _ = writeln!(out, "  CCTV4 mean: {:.3}", self.cctv4.mean());
        let _ = writeln!(
            out,
            "  viewers   : CCTV1 {:.0} vs CCTV4 {:.0} (ratio {:.1}, paper ~5)",
            self.cctv1_viewers.mean(),
            self.cctv4_viewers.mean(),
            self.viewer_ratio()
        );
        out
    }

    /// CSV of both curves.
    pub fn to_csv(&self) -> String {
        to_csv(&[&self.cctv1, &self.cctv4])
    }
}

/// One captured degree-distribution instant of Fig. 4.
#[derive(Debug, Clone)]
pub struct DegreeSnapshot {
    /// Label, e.g. "9am d2".
    pub label: String,
    /// Capture instant.
    pub time: SimTime,
    /// Fraction of the staleness horizon with the collection server
    /// up (1.0 when no outage overlapped; below 1.0 the capture
    /// under-counts and must be read with that caveat).
    pub coverage: f64,
    /// Total-partner-count distribution (Fig. 4A).
    pub partners: DegreeHistogram,
    /// Active-indegree distribution (Fig. 4B).
    pub indegree: DegreeHistogram,
    /// Active-outdegree distribution (Fig. 4C).
    pub outdegree: DegreeHistogram,
    /// Power-law test verdict on the partner-count distribution (the
    /// paper argues it must be rejected). `None` when the sample is
    /// too small to fit.
    pub partner_powerlaw: Option<PowerLawVerdict>,
}

/// Fig. 4: degree distributions at representative instants.
#[derive(Debug, Clone, Default)]
pub struct Fig4Distributions {
    /// One snapshot per captured instant.
    pub snapshots: Vec<DegreeSnapshot>,
}

impl Fig4Distributions {
    /// Text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::from("Fig 4 — degree distributions of stable peers\n");
        for s in &self.snapshots {
            let partial = if s.coverage < 1.0 {
                format!(" | PARTIAL coverage={:.2}", s.coverage)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "  [{}] n={} | partners spike={:?} mean={:.1} | indegree spike={:?} p99={:?} | outdegree spike={:?}{partial}",
                s.label,
                s.partners.total(),
                s.partners.spike(),
                s.partners.mean(),
                s.indegree.spike(),
                s.indegree.quantile(0.99),
                s.outdegree.spike(),
            );
            if let Some(v) = &s.partner_powerlaw {
                let _ = writeln!(
                    out,
                    "        power-law plausible: {} (ks={:.3}, threshold={:.3}, alpha={:.2})",
                    v.plausible, v.fit.ks, v.threshold, v.fit.alpha
                );
            }
        }
        out
    }
}

/// Fig. 5: evolution of average degrees of stable peers.
#[derive(Debug, Clone, Default)]
pub struct Fig5DegreeEvolution {
    /// Average total partner count.
    pub partners: Series,
    /// Average active indegree.
    pub indegree: Series,
    /// Average active outdegree.
    pub outdegree: Series,
}

impl Fig5DegreeEvolution {
    /// Text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::from("Fig 5 — average degree evolution\n");
        let _ = writeln!(
            out,
            "  partners mean {:.1} (peak {:.1}) | indegree mean {:.1} | outdegree mean {:.1}",
            self.partners.mean(),
            self.partners.max_point().map_or(0.0, |p| p.1),
            self.indegree.mean(),
            self.outdegree.mean()
        );
        out
    }

    /// CSV of the three curves.
    pub fn to_csv(&self) -> String {
        to_csv(&[&self.partners, &self.indegree, &self.outdegree])
    }
}

/// Fig. 6: intra-ISP fractions of active degrees.
#[derive(Debug, Clone, Default)]
pub struct Fig6IntraIsp {
    /// Average intra-ISP fraction of active indegree.
    pub indegree: Series,
    /// Average intra-ISP fraction of active outdegree.
    pub outdegree: Series,
    /// Average intra-ISP fraction of the whole partner list — not in
    /// the paper's figure, but the quantity the locality-aware
    /// tracker extension moves directly.
    pub pool: Series,
    /// The no-gradient mixing baseline (Σ share²).
    pub baseline: f64,
}

impl Fig6IntraIsp {
    /// Text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::from("Fig 6 — intra-ISP degree fractions\n");
        let _ = writeln!(
            out,
            "  indegree mean {:.3} | outdegree mean {:.3} | partner pool {:.3} | random-mixing baseline {:.3}",
            self.indegree.mean(),
            self.outdegree.mean(),
            self.pool.mean(),
            self.baseline
        );
        out
    }

    /// CSV of the three curves.
    pub fn to_csv(&self) -> String {
        to_csv(&[&self.indegree, &self.outdegree, &self.pool])
    }
}

/// The four curves of one small-world panel (Fig. 7A or 7B).
#[derive(Debug, Clone, Default)]
pub struct SmallWorldSeries {
    /// Measured clustering coefficient.
    pub c: Series,
    /// Random-graph clustering baseline.
    pub c_rand: Series,
    /// Measured average path length.
    pub l: Series,
    /// Random-graph path-length baseline.
    pub l_rand: Series,
}

impl SmallWorldSeries {
    /// Mean C/C_rand ratio over aligned samples.
    pub fn clustering_ratio(&self) -> f64 {
        let mut ratios = Vec::new();
        for (&(tc, c), &(tr, cr)) in self.c.points.iter().zip(self.c_rand.points.iter()) {
            if tc == tr && cr > 0.0 {
                ratios.push(c / cr);
            }
        }
        if ratios.is_empty() {
            0.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    }

    /// CSV of the four curves.
    pub fn to_csv(&self) -> String {
        to_csv(&[&self.c, &self.c_rand, &self.l, &self.l_rand])
    }
}

/// Fig. 7: small-world metrics, global and one-ISP subgraph.
#[derive(Debug, Clone)]
pub struct Fig7SmallWorld {
    /// Panel (A): the entire stable-peer graph.
    pub global: SmallWorldSeries,
    /// Panel (B): the subgraph of one major ISP.
    pub isp: SmallWorldSeries,
    /// Which ISP panel (B) tracks (the paper uses China Netcom).
    pub isp_choice: Isp,
}

impl Default for Fig7SmallWorld {
    fn default() -> Self {
        Fig7SmallWorld {
            global: SmallWorldSeries::default(),
            isp: SmallWorldSeries::default(),
            isp_choice: Isp::Netcom,
        }
    }
}

impl Fig7SmallWorld {
    /// Text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::from("Fig 7 — small-world metrics (stable-peer graph)\n");
        let _ = writeln!(
            out,
            "  (A) global: C mean {:.3} vs C_rand {:.4} (ratio {:.0}x) | L mean {:.2} vs L_rand {:.2}",
            self.global.c.mean(),
            self.global.c_rand.mean(),
            self.global.clustering_ratio(),
            self.global.l.mean(),
            self.global.l_rand.mean()
        );
        let _ = writeln!(
            out,
            "  (B) {}: C mean {:.3} vs C_rand {:.4} (ratio {:.0}x) | L mean {:.2} vs L_rand {:.2}",
            self.isp_choice.name(),
            self.isp.c.mean(),
            self.isp.c_rand.mean(),
            self.isp.clustering_ratio(),
            self.isp.l.mean(),
            self.isp.l_rand.mean()
        );
        out
    }
}

/// Fig. 8: Garlaschelli–Loffredo edge reciprocity evolution.
#[derive(Debug, Clone, Default)]
pub struct Fig8Reciprocity {
    /// Whole-topology reciprocity (panel A).
    pub all: Series,
    /// Intra-ISP link sub-topology (panel B).
    pub intra: Series,
    /// Inter-ISP link sub-topology (panel B).
    pub inter: Series,
    /// Weighted reciprocity `r_w` (fraction of *traffic* on two-way
    /// relationships) — an extension beyond the paper's unweighted ρ,
    /// possible because the trace carries per-link segment counts.
    pub weighted: Series,
}

impl Fig8Reciprocity {
    /// Text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::from("Fig 8 — edge reciprocity\n");
        let _ = writeln!(
            out,
            "  all {:.3} | intra-ISP {:.3} | inter-ISP {:.3} | traffic-weighted r_w {:.3}",
            self.all.mean(),
            self.intra.mean(),
            self.inter.mean(),
            self.weighted.mean()
        );
        out
    }

    /// CSV of the four curves.
    pub fn to_csv(&self) -> String {
        to_csv(&[&self.all, &self.intra, &self.inter, &self.weighted])
    }
}

/// A sample boundary whose measurement horizon overlapped a trace
/// server outage. The figure pipelines skip these instants instead of
/// silently averaging over the hole; this record keeps the hole
/// visible in the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialSample {
    /// The sample instant that was skipped.
    pub time: SimTime,
    /// Fraction of the staleness horizon the server was up (< 1.0).
    pub coverage: f64,
}

/// Everything one study run produces.
#[derive(Debug, Clone, Default)]
pub struct StudyReport {
    /// Concurrent population (Fig. 1A).
    pub fig1a: Fig1Population,
    /// Daily distinct IPs (Fig. 1B).
    pub fig1b: Fig1DailyIps,
    /// ISP shares (Fig. 2).
    pub fig2: Fig2IspShares,
    /// Streaming quality (Fig. 3).
    pub fig3: Fig3Quality,
    /// Degree distributions (Fig. 4).
    pub fig4: Fig4Distributions,
    /// Degree evolution (Fig. 5).
    pub fig5: Fig5DegreeEvolution,
    /// Intra-ISP degree fractions (Fig. 6).
    pub fig6: Fig6IntraIsp,
    /// Small-world metrics (Fig. 7).
    pub fig7: Fig7SmallWorld,
    /// Reciprocity (Fig. 8).
    pub fig8: Fig8Reciprocity,
    /// Simulator summary of the run.
    pub sim: SimSummary,
    /// Observed stable-session statistics (reconstructed from report
    /// runs — the measurement-side view of peer lifetimes).
    pub sessions: Option<crate::sessions::SessionSummary>,
    /// Sample instants excluded from the figure averages because a
    /// trace-server outage ate into their staleness horizon.
    pub partial_samples: Vec<PartialSample>,
    /// Collection-endpoint statistics when the study ran through a
    /// real [`magellan_trace::TraceServer`] (None for the in-process
    /// sink path).
    pub collection: Option<magellan_trace::ServerStats>,
    /// Archive-recovery accounting when the report stream was
    /// replayed from a segmented on-disk archive (None for live
    /// runs — a resumed live study re-reads its own archive prefix
    /// but reports as live, so interrupted and uninterrupted runs
    /// render identically).
    pub recovery: Option<magellan_trace::RecoveryReport>,
    /// Networked-ingest accounting when the archive was produced by a
    /// `magellan-traced` service (read from its `INGEST` sidecar;
    /// None for in-process archives).
    pub ingest: Option<magellan_trace::IngestStats>,
}

impl StudyReport {
    /// Renders every figure as text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== Magellan study report (joins {}, reports {}, peak concurrent {}) ===\n",
            self.sim.joins, self.sim.reports, self.sim.peak_concurrent
        );
        out.push_str(&self.fig1a.render_text());
        out.push_str(&self.fig1b.render_text());
        out.push_str(&self.fig2.render_text());
        out.push_str(&self.fig3.render_text());
        out.push_str(&self.fig4.render_text());
        out.push_str(&self.fig5.render_text());
        out.push_str(&self.fig6.render_text());
        out.push_str(&self.fig7.render_text());
        out.push_str(&self.fig8.render_text());
        if let Some(s) = &self.sessions {
            let _ = writeln!(
                out,
                "Stable sessions — {} observed | mean {:.0} min | median {:.0} min | p90 {:.0} min",
                s.sessions, s.mean_mins, s.median_mins, s.p90_mins
            );
        }
        let f = &self.sim.faults;
        let _ = writeln!(
            out,
            "Faults — crashes {} | tracker denials {} | bootstrap retries {} (recovered {}) | gossip fallbacks {} | partner timeouts {} | links blocked {} | flows blocked {} | reports lost {}",
            f.crashes,
            f.tracker_denied_joins,
            f.bootstrap_retries,
            f.bootstrap_recoveries,
            f.gossip_fallbacks,
            f.partner_timeouts,
            f.links_blocked,
            f.flows_blocked,
            f.reports_lost
        );
        if !self.partial_samples.is_empty() {
            let min_cov = self
                .partial_samples
                .iter()
                .map(|p| p.coverage)
                .fold(1.0, f64::min);
            let _ = writeln!(
                out,
                "  {} sample(s) flagged PARTIAL (min coverage {:.2}) and excluded from figure averages",
                self.partial_samples.len(),
                min_cov
            );
        }
        if let Some(cs) = &self.collection {
            let _ = writeln!(
                out,
                "Collection — accepted {} | rejected {} | bounced (server down) {} | duplicates absorbed {}",
                cs.accepted, cs.rejected, cs.unavailable, cs.duplicates
            );
        }
        if let Some(rc) = &self.recovery {
            let _ = writeln!(
                out,
                "Archive replay — {} record(s) recovered from {} segment(s) ({} sealed) | corrupt regions {} | bytes quarantined {} | torn tail {}",
                rc.records_recovered,
                rc.segments_read,
                rc.sealed_segments,
                rc.corrupt_regions,
                rc.bytes_quarantined,
                if rc.truncated_tail { "yes" } else { "no" }
            );
        }
        if let Some(ig) = &self.ingest {
            let _ = writeln!(
                out,
                "Ingest — {} client(s) sent {} | admitted {} | deduped {} | shed busy {} | rate limited {} | rejected {} | malformed {} | late {} | lost {} | surplus {} | evicted {} | merges {} | balanced {}",
                ig.clients,
                ig.sent,
                ig.admitted,
                ig.deduped,
                ig.shed_busy,
                ig.rate_limited,
                ig.rejected,
                ig.malformed,
                ig.late,
                ig.lost,
                ig.surplus,
                ig.evicted,
                ig.merges,
                if ig.balanced() { "yes" } else { "NO" }
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(name: &str, vals: &[f64]) -> Series {
        let mut s = Series::new(name);
        for (i, &v) in vals.iter().enumerate() {
            s.push(SimTime::from_millis(i as u64 * 60_000), v);
        }
        s
    }

    #[test]
    fn stable_ratio_averages_aligned_points() {
        let fig = Fig1Population {
            total: series("total", &[90.0, 120.0]),
            stable: series("stable", &[30.0, 40.0]),
        };
        assert!((fig.stable_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn stable_ratio_empty_is_zero() {
        assert_eq!(Fig1Population::default().stable_ratio(), 0.0);
    }

    #[test]
    fn isp_share_lookup() {
        let fig = Fig2IspShares {
            shares: vec![(Isp::Telecom, 0.4), (Isp::Netcom, 0.25)],
        };
        assert_eq!(fig.share(Isp::Telecom), 0.4);
        assert_eq!(fig.share(Isp::Edu), 0.0);
    }

    #[test]
    fn clustering_ratio_on_aligned_series() {
        let sw = SmallWorldSeries {
            c: series("c", &[0.2, 0.4]),
            c_rand: series("cr", &[0.01, 0.02]),
            l: series("l", &[5.0]),
            l_rand: series("lr", &[4.0]),
        };
        assert!((sw.clustering_ratio() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn fig1b_renders_day_rows() {
        let fig = Fig1DailyIps {
            total: vec![(0, 1000), (1, 1200)],
            stable: vec![(0, 300), (1, 380)],
        };
        let text = fig.render_text();
        assert!(text.contains("day  0"));
        assert!(text.contains("1200"));
        assert!(text.contains("380"));
    }

    #[test]
    fn fig4_renders_verdict_line() {
        use magellan_graph::powerlaw::{PowerLawFit, PowerLawVerdict};
        use magellan_graph::DegreeHistogram;
        let snap = DegreeSnapshot {
            label: "test".into(),
            time: SimTime::at(0, 9, 0),
            coverage: 1.0,
            partners: [10usize, 10, 12].into_iter().collect::<DegreeHistogram>(),
            indegree: [5usize, 6, 7].into_iter().collect(),
            outdegree: [3usize, 3, 4].into_iter().collect(),
            partner_powerlaw: Some(PowerLawVerdict {
                fit: PowerLawFit {
                    alpha: 2.5,
                    xmin: 10,
                    ks: 0.4,
                    n_tail: 3,
                },
                threshold: 0.1,
                plausible: false,
            }),
        };
        let fig = Fig4Distributions {
            snapshots: vec![snap],
        };
        let text = fig.render_text();
        assert!(text.contains("power-law plausible: false"));
        assert!(text.contains("[test]"));
    }

    #[test]
    fn fig7_render_reports_both_panels() {
        let mut fig = Fig7SmallWorld::default();
        fig.global.c = series("c", &[0.4]);
        fig.global.c_rand = series("cr", &[0.04]);
        fig.global.l = series("l", &[2.0]);
        fig.global.l_rand = series("lr", &[2.5]);
        let text = fig.render_text();
        assert!(text.contains("(A) global"));
        assert!(text.contains("China Netcom"));
        assert!(text.contains("10x"));
    }

    #[test]
    fn fig8_csv_has_four_columns() {
        let fig = Fig8Reciprocity {
            all: series("all", &[0.5]),
            intra: series("intra", &[0.7]),
            inter: series("inter", &[0.3]),
            weighted: series("rw", &[0.4]),
        };
        let csv = fig.to_csv();
        // Header: time_ms,time_label + four series columns.
        let header = csv.lines().next().unwrap();
        assert_eq!(header.matches(',').count(), 5, "header: {header}");
        assert!(header.contains("rw"));
    }

    #[test]
    fn renderers_do_not_panic_on_defaults() {
        let report = StudyReport::default();
        let text = report.render_text();
        assert!(text.contains("Fig 1(A)"));
        assert!(text.contains("Fig 8"));
    }

    #[test]
    fn renderers_include_key_numbers() {
        let fig = Fig3Quality {
            cctv1: series("CCTV1", &[0.75, 0.85]),
            cctv4: series("CCTV4", &[0.7]),
            cctv1_viewers: series("v1", &[300.0]),
            cctv4_viewers: series("v4", &[60.0]),
        };
        let text = fig.render_text();
        assert!(text.contains("0.800"));
        assert!(text.contains("0.700"));
        assert!((fig.viewer_ratio() - 5.0).abs() < 1e-9);
        let csv = fig.to_csv();
        assert!(csv.lines().count() >= 3);
    }
}
