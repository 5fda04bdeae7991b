//! Regenerates every figure of the paper from one simulated study.
//!
//! ```text
//! cargo run --release -p magellan-bench --bin figures -- \
//!     [--scale 0.01] [--days 14] [--seed 2006] [--sample-mins 60] \
//!     [--fig all|1a|1b|2|3|4|5|6|7|8] [--csv-dir out/] [--svg-dir out/] \
//!     [--isp NAME] [--archive DIR]
//! ```
//!
//! `--archive` skips the simulation and replays the archive of a
//! `magellan study` run directory through the analysis (the workflow
//! a measurement group actually has); the study parameters then come
//! from that directory's `study.cfg`, so `--scale`, `--days`, `--seed`
//! and `--sample-mins` are rejected beside it. `--svg-dir` renders
//! each figure as an SVG chart. A malformed flag value is an error,
//! never a silent default.
//!
//! At `--scale 1.0` this is the paper's full population (~100k
//! concurrent peers); the default 0.01 preserves every reported shape
//! at ~1000 concurrent peers and runs in minutes.

use magellan::analysis::durable::DurableStudy;
use magellan::runcfg::load_params;
use magellan_analysis::study::{MagellanStudy, StudyConfig};
use magellan_analysis::timeseries::to_csv;
use magellan_netsim::SimDuration;
use std::path::PathBuf;
use std::str::FromStr;

/// The figure selectors `--fig` accepts.
const FIGS: [&str; 10] = ["all", "1a", "1b", "2", "3", "4", "5", "6", "7", "8"];

/// The study flags a run directory's `study.cfg` fixes.
const STUDY_FLAGS: [&str; 4] = ["--scale", "--days", "--seed", "--sample-mins"];

struct Args {
    scale: f64,
    days: u64,
    seed: u64,
    sample_mins: u64,
    fig: String,
    csv_dir: Option<String>,
    svg_dir: Option<String>,
    isp: Option<magellan_netsim::Isp>,
    archive: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |name: &str| -> Result<Option<String>, String> {
        match argv.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .cloned()
                .map(Some)
                .ok_or_else(|| format!("{name} needs a value")),
        }
    };
    fn num<T: FromStr>(name: &str, v: Option<String>, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("{name} {v}: {e}"))
        })
    }
    let fig = get("--fig")?.unwrap_or_else(|| "all".to_owned());
    if !FIGS.contains(&fig.as_str()) {
        return Err(format!("--fig {fig}: expected one of {}", FIGS.join("|")));
    }
    let isp = get("--isp")?
        .map(|name| {
            parse_isp(&name).ok_or_else(|| {
                format!("--isp {name}: unknown ISP (try Netcom, Telecom, Unicom, Tietong, Edu)")
            })
        })
        .transpose()?;
    let archive = get("--archive")?.map(PathBuf::from);
    if archive.is_some() {
        if let Some(flag) = STUDY_FLAGS.iter().find(|f| argv.contains(&f.to_string())) {
            return Err(format!(
                "{flag} conflicts with --archive: the run directory's study.cfg fixes it"
            ));
        }
    }
    Ok(Args {
        scale: num("--scale", get("--scale")?, 0.01)?,
        days: num("--days", get("--days")?, 14)?,
        seed: num("--seed", get("--seed")?, 2006)?,
        sample_mins: num("--sample-mins", get("--sample-mins")?, 60)?,
        fig,
        csv_dir: get("--csv-dir")?,
        svg_dir: get("--svg-dir")?,
        isp,
        archive,
    })
}

fn parse_isp(name: &str) -> Option<magellan_netsim::Isp> {
    use magellan_netsim::Isp;
    Isp::ALL.into_iter().find(|i| {
        i.name().eq_ignore_ascii_case(name) || format!("{i:?}").eq_ignore_ascii_case(name)
    })
}

/// Reports a usage or input error and exits non-zero.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = parse_args(&argv).unwrap_or_else(|e| fail(&e));
    let start = std::time::Instant::now();
    let report = if let Some(dir) = &args.archive {
        // Replay a study's archive through the analysis.
        let params = load_params(dir).unwrap_or_else(|e| fail(&e));
        let mut cfg = params.study_config();
        if let Some(isp) = args.isp {
            cfg.isp_panel = isp;
        }
        eprintln!("replaying the archive of {}", dir.display());
        DurableStudy::new(dir, cfg, params.durable_config())
            .analyze_archive()
            .unwrap_or_else(|e| fail(&format!("replay {}: {e}", dir.display())))
    } else {
        eprintln!(
            "running Magellan study: seed {}, scale {}, {} days, {}-minute samples",
            args.seed, args.scale, args.days, args.sample_mins
        );
        let mut cfg = StudyConfig {
            seed: args.seed,
            scale: args.scale,
            window_days: args.days,
            sample_every: SimDuration::from_mins(args.sample_mins),
            ..StudyConfig::default()
        };
        if let Some(isp) = args.isp {
            cfg.isp_panel = isp;
        }
        MagellanStudy::new(cfg).run()
    };
    eprintln!("study complete in {:.1}s\n", start.elapsed().as_secs_f64());

    let want = |k: &str| args.fig == "all" || args.fig == k;
    if want("1a") {
        print!("{}", report.fig1a.render_text());
    }
    if want("1b") {
        print!("{}", report.fig1b.render_text());
    }
    if want("2") {
        print!("{}", report.fig2.render_text());
    }
    if want("3") {
        print!("{}", report.fig3.render_text());
    }
    if want("4") {
        print!("{}", report.fig4.render_text());
    }
    if want("5") {
        print!("{}", report.fig5.render_text());
    }
    if want("6") {
        print!("{}", report.fig6.render_text());
    }
    if want("7") {
        print!("{}", report.fig7.render_text());
    }
    if want("8") {
        print!("{}", report.fig8.render_text());
    }

    if let Some(dir) = &args.svg_dir {
        use magellan_analysis::plot::{
            render_bars_svg, render_loglog_svg, render_series_svg, PlotOptions,
        };
        std::fs::create_dir_all(dir).expect("create svg dir");
        let write = |name: &str, contents: String| {
            let path = format!("{dir}/{name}.svg");
            magellan_trace::atomic_write(std::path::Path::new(&path), contents.as_bytes())
                .expect("write svg");
            eprintln!("wrote {path}");
        };
        let opts = |title: &str, y: &str| PlotOptions {
            title: title.to_owned(),
            y_label: y.to_owned(),
            ..PlotOptions::default()
        };
        write(
            "fig1a_population",
            render_series_svg(
                &[&report.fig1a.total, &report.fig1a.stable],
                &opts("Fig 1(A): concurrent peers", "peers"),
            ),
        );
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
        write(
            "fig3_quality",
            render_series_svg(
                &[&report.fig3.cctv1, &report.fig3.cctv4],
                &opts("Fig 3: viewers at >=90% of stream rate", "fraction"),
            ),
        );
        write(
            "fig5_degree_evolution",
            render_series_svg(
                &[
                    &report.fig5.partners,
                    &report.fig5.indegree,
                    &report.fig5.outdegree,
                ],
                &opts("Fig 5: average degrees", "degree"),
            ),
        );
        write(
            "fig6_intra_isp",
            render_series_svg(
                &[&report.fig6.indegree, &report.fig6.outdegree],
                &opts("Fig 6: intra-ISP degree fractions", "fraction"),
            ),
        );
        write(
            "fig7a_smallworld",
            render_series_svg(
                &[
                    &report.fig7.global.c,
                    &report.fig7.global.c_rand,
                    &report.fig7.global.l,
                    &report.fig7.global.l_rand,
                ],
                &opts("Fig 7(A): small-world metrics, global", "C / L"),
            ),
        );
        write(
            "fig7b_smallworld_isp",
            render_series_svg(
                &[
                    &report.fig7.isp.c,
                    &report.fig7.isp.c_rand,
                    &report.fig7.isp.l,
                    &report.fig7.isp.l_rand,
                ],
                &opts("Fig 7(B): small-world metrics, ISP subgraph", "C / L"),
            ),
        );
        write(
            "fig8_reciprocity",
            render_series_svg(
                &[&report.fig8.all, &report.fig8.intra, &report.fig8.inter],
                &opts("Fig 8: edge reciprocity", "rho"),
            ),
        );
        for snap in &report.fig4.snapshots {
            let slug: String = snap
                .label
                .chars()
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect();
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

    if let Some(dir) = &args.csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let write = |name: &str, contents: String| {
            let path = format!("{dir}/{name}.csv");
            magellan_trace::atomic_write(std::path::Path::new(&path), contents.as_bytes())
                .expect("write csv");
            eprintln!("wrote {path}");
        };
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
            let slug: String = snap
                .label
                .chars()
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect();
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
