//! Regenerates every figure of the paper from one simulated study.
//!
//! ```text
//! cargo run --release -p magellan-bench --bin figures -- \
//!     [--seed 2006] [--scale 0.01] [--days 14] [--sample-every-mins 60] \
//!     [--fig all|1a|1b|2|3|4|5|6|7|8] [--csv-dir out/] [--svg-dir out/] \
//!     [--isp Netcom] [--archive DIR]
//! ```
//!
//! `--archive` skips the simulation and replays the archive of a
//! `magellan study` run directory through the analysis (the workflow
//! a measurement group actually has); the study parameters then come
//! from that directory's `study.cfg`, which a study flag beside
//! `--archive` must match. `--svg-dir` renders each figure as an SVG
//! chart. A bad flag or an unwritable output directory exits 2.
//!
//! At `--scale 1.0` this is the paper's full population (~100k
//! concurrent peers); the default 0.01 preserves every reported shape
//! at ~1000 concurrent peers and runs in minutes.

use magellan::analysis::durable::DurableStudy;
use magellan::cli::{Command, Flag};
use magellan::runcfg::RunParams;
use magellan_analysis::study::MagellanStudy;
use magellan_analysis::timeseries::{to_csv, Series};
use magellan_netsim::Isp;
use std::path::Path;

/// Reports a usage or input error and exits non-zero.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// A figure label as a file-name fragment.
fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}

/// Writes one output file, or fails naming its path.
fn write_out(path: &str, contents: &str) {
    magellan_trace::atomic_write(Path::new(path), contents.as_bytes())
        .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
    eprintln!("wrote {path}");
}

fn main() {
    let args = Command::new("figures")
        .flags(&RunParams::FLAGS[..4])
        .flags(&[
            Flag::one_of("--fig", "all|1a|1b|2|3|4|5|6|7|8"),
            Flag::text("--csv-dir", "DIR"),
            Flag::text("--svg-dir", "DIR"),
            Flag::one_of(
                "--isp",
                "Telecom|Netcom|Unicom|Tietong|Edu|OtherChina|Oversea",
            ),
            Flag::text("--archive", "DIR"),
        ])
        .parse_env();
    let archive = args.get("--archive").map(Path::new);
    let params = RunParams {
        scale: 0.01,
        days: 14,
        ..RunParams::default()
    }
    .with_args(&args, archive)
    .unwrap_or_else(|e| fail(&e));
    let mut cfg = params.study_config();
    let isp_named = |v: &str| Isp::ALL.into_iter().find(|i| format!("{i:?}") == v);
    if let Some(isp) = args.get("--isp").and_then(isp_named) {
        cfg.isp_panel = isp;
    }
    let fig = args.get("--fig").unwrap_or("all");
    let svg_dir = args.get("--svg-dir");
    let csv_dir = args.get("--csv-dir");
    // Output directories are checked before the study, not after it.
    for dir in svg_dir.iter().chain(&csv_dir) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(&format!("create {dir}: {e}")));
    }

    let start = std::time::Instant::now();
    let report = if let Some(dir) = archive {
        // Replay a study's archive through the analysis.
        eprintln!("replaying the archive of {}", dir.display());
        DurableStudy::new(dir, cfg, params.durable_config())
            .analyze_archive()
            .unwrap_or_else(|e| fail(&format!("replay {}: {e}", dir.display())))
    } else {
        eprintln!(
            "running Magellan study: seed {}, scale {}, {} days, {}-minute samples",
            params.seed, params.scale, params.days, params.sample_every_mins
        );
        MagellanStudy::new(cfg).run()
    };
    eprintln!("study complete in {:.1}s\n", start.elapsed().as_secs_f64());

    let texts = [
        ("1a", report.fig1a.render_text()),
        ("1b", report.fig1b.render_text()),
        ("2", report.fig2.render_text()),
        ("3", report.fig3.render_text()),
        ("4", report.fig4.render_text()),
        ("5", report.fig5.render_text()),
        ("6", report.fig6.render_text()),
        ("7", report.fig7.render_text()),
        ("8", report.fig8.render_text()),
    ];
    for (key, text) in texts {
        if fig == "all" || fig == key {
            print!("{text}");
        }
    }

    if let Some(dir) = svg_dir {
        use magellan_analysis::plot::{
            render_bars_svg, render_loglog_svg, render_series_svg, PlotOptions,
        };
        let write =
            |name: &str, contents: String| write_out(&format!("{dir}/{name}.svg"), &contents);
        let opts = |title: &str, y: &str| PlotOptions {
            title: title.to_owned(),
            y_label: y.to_owned(),
            ..PlotOptions::default()
        };
        let (r, g, i) = (&report, &report.fig7.global, &report.fig7.isp);
        let series: [(&str, &str, &str, Vec<&Series>); 7] = [
            (
                "fig1a_population",
                "Fig 1(A): concurrent peers",
                "peers",
                vec![&r.fig1a.total, &r.fig1a.stable],
            ),
            (
                "fig3_quality",
                "Fig 3: viewers at >=90% of stream rate",
                "fraction",
                vec![&r.fig3.cctv1, &r.fig3.cctv4],
            ),
            (
                "fig5_degree_evolution",
                "Fig 5: average degrees",
                "degree",
                vec![&r.fig5.partners, &r.fig5.indegree, &r.fig5.outdegree],
            ),
            (
                "fig6_intra_isp",
                "Fig 6: intra-ISP degree fractions",
                "fraction",
                vec![&r.fig6.indegree, &r.fig6.outdegree],
            ),
            (
                "fig7a_smallworld",
                "Fig 7(A): small-world metrics, global",
                "C / L",
                vec![&g.c, &g.c_rand, &g.l, &g.l_rand],
            ),
            (
                "fig7b_smallworld_isp",
                "Fig 7(B): small-world metrics, ISP subgraph",
                "C / L",
                vec![&i.c, &i.c_rand, &i.l, &i.l_rand],
            ),
            (
                "fig8_reciprocity",
                "Fig 8: edge reciprocity",
                "rho",
                vec![&r.fig8.all, &r.fig8.intra, &r.fig8.inter],
            ),
        ];
        for (name, title, y, lines) in series {
            write(name, render_series_svg(&lines, &opts(title, y)));
        }
        write(
            "fig1b_daily_ips",
            render_bars_svg(
                &report
                    .fig1b
                    .total
                    .iter()
                    .map(|&(d, n)| (format!("d{d}"), n as f64))
                    .collect::<Vec<_>>(),
                &opts("Fig 1(B): distinct IPs per day", "distinct IPs"),
            ),
        );
        write(
            "fig2_isp_shares",
            render_bars_svg(
                &report
                    .fig2
                    .shares
                    .iter()
                    .map(|&(isp, s)| (isp.name().to_owned(), s * 100.0))
                    .collect::<Vec<_>>(),
                &opts("Fig 2: ISP shares (%)", "%"),
            ),
        );
        for snap in &report.fig4.snapshots {
            let slug = slug(&snap.label);
            let partners = snap.partners.pmf();
            let indeg = snap.indegree.pmf();
            let outdeg = snap.outdegree.pmf();
            write(
                &format!("fig4_degrees_{slug}"),
                render_loglog_svg(
                    &[
                        ("partners", partners.as_slice()),
                        ("indegree", indeg.as_slice()),
                        ("outdegree", outdeg.as_slice()),
                    ],
                    &opts(&format!("Fig 4 [{}]", snap.label), "fraction of peers"),
                ),
            );
        }
    }

    if let Some(dir) = csv_dir {
        let write =
            |name: &str, contents: String| write_out(&format!("{dir}/{name}.csv"), &contents);
        write("fig1a_population", report.fig1a.to_csv());
        write("fig3_quality", report.fig3.to_csv());
        write("fig5_degree_evolution", report.fig5.to_csv());
        write("fig6_intra_isp", report.fig6.to_csv());
        write("fig7a_smallworld_global", report.fig7.global.to_csv());
        write("fig7b_smallworld_isp", report.fig7.isp.to_csv());
        write("fig8_reciprocity", report.fig8.to_csv());
        // Fig. 2 and Fig. 4 are not time series; emit simple tables.
        let mut f2 = String::from("isp,share\n");
        for (isp, share) in &report.fig2.shares {
            f2.push_str(&format!("{},{share}\n", isp.name()));
        }
        write("fig2_isp_shares", f2);
        for snap in &report.fig4.snapshots {
            let slug = slug(&snap.label);
            let mut body = String::from("degree,partners_frac,indegree_frac,outdegree_frac\n");
            let max_d = snap
                .partners
                .max_degree()
                .max(snap.indegree.max_degree())
                .max(snap.outdegree.max_degree())
                .unwrap_or(0);
            for d in 0..=max_d {
                body.push_str(&format!(
                    "{d},{},{},{}\n",
                    snap.partners.fraction_at(d),
                    snap.indegree.fraction_at(d),
                    snap.outdegree.fraction_at(d)
                ));
            }
            write(&format!("fig4_degrees_{slug}"), body);
        }
        // The raw aligned evolution bundle.
        write(
            "evolution_all",
            to_csv(&[
                &report.fig1a.total,
                &report.fig1a.stable,
                &report.fig5.partners,
                &report.fig5.indegree,
                &report.fig5.outdegree,
                &report.fig6.indegree,
                &report.fig6.outdegree,
                &report.fig8.all,
            ]),
        );
    }
}
