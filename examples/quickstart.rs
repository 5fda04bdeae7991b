//! Quickstart: run a small-scale Magellan study end to end and print
//! every figure of the paper.
//!
//! ```text
//! cargo run --release --example quickstart -- [--seed 2006] [--scale 0.002] [--days 3]
//! ```
//!
//! `--scale 1.0` reproduces the paper's ~100k concurrent peers (slow);
//! the default keeps a laptop happy while preserving every *shape* the
//! paper reports.

use magellan::analysis::study::StudyConfig;
use magellan::cli::Command;
use magellan::prelude::*;
use magellan::runcfg::RunParams;

fn main() {
    let args = Command::new("quickstart")
        .flags(&RunParams::FLAGS[..3])
        .parse_env();
    let scale = args.f64("--scale").unwrap_or(0.002);
    let days = args.u64("--days").unwrap_or(3);
    let seed = args.u64("--seed").unwrap_or(2006);

    println!("Magellan quickstart — seed {seed}, scale {scale}, {days} day(s)\n");
    let cfg = StudyConfig {
        seed,
        scale,
        window_days: days,
        ..StudyConfig::default()
    };
    let report = MagellanStudy::new(cfg).run();
    println!("{}", report.render_text());

    println!("--- interpretation ---");
    println!(
        "stable/total ratio {:.2} (paper: ~1/3); reciprocity rho {:.2} (paper: consistently > 0);",
        report.fig1a.stable_ratio(),
        report.fig8.all.mean()
    );
    println!(
        "clustering ratio C/C_rand {:.0}x (paper: more than an order of magnitude).",
        report.fig7.global.clustering_ratio()
    );
}
