//! Edge reciprocity (paper §4.4, Fig. 8).
//!
//! Does mesh streaming actually run on mutual exchange, or does
//! content trickle down a tree? The Garlaschelli–Loffredo reciprocity
//! ρ answers it: ρ < 0 for trees, ρ ≈ 0 for random wiring, ρ > 0 for
//! genuinely reciprocal meshes. This example prints the measured ρ
//! over time (whole topology, intra-ISP, inter-ISP) alongside the
//! tree and random baselines computed on matched graphs.
//!
//! ```text
//! cargo run --release --example reciprocity_probe -- [--scale 0.002]
//! ```

use magellan::analysis::study::StudyConfig;
use magellan::cli::{Command, Flag};
use magellan::graph::random::gnm_directed;
use magellan::graph::reciprocity::{garlaschelli_reciprocity, simple_reciprocity, tree_baseline};
use magellan::netsim::SimDuration;
use magellan::prelude::*;

fn main() {
    let args = Command::new("reciprocity_probe")
        .flags(&[Flag::float("--scale", "F")])
        .parse_env();
    let scale = args.f64("--scale").unwrap_or(0.002);
    println!("Reciprocity probe — scale {scale}\n");

    let cfg = StudyConfig {
        seed: 808,
        scale,
        window_days: 2,
        sample_every: SimDuration::from_mins(60),
        ..StudyConfig::default()
    };
    let report = MagellanStudy::new(cfg).run();
    print!("{}", report.fig8.render_text());

    println!("\nrho over time (all | intra | inter):");
    for (i, &(t, all)) in report.fig8.all.points.iter().enumerate() {
        let intra = report.fig8.intra.points.get(i).map_or(f64::NAN, |p| p.1);
        let inter = report.fig8.inter.points.get(i).map_or(f64::NAN, |p| p.1);
        println!("  {t}: {all:+.3} | {intra:+.3} | {inter:+.3}");
    }

    // Matched baselines: a random digraph of a typical snapshot's
    // size, and the analytic tree value.
    let n = 500;
    let m = 3_000;
    let random = gnm_directed(n, m, 17);
    println!(
        "\nbaselines on a matched G({n}, {m}): r = {:.3}, rho = {:+.3} (≈0 expected)",
        simple_reciprocity(&random),
        garlaschelli_reciprocity(&random).unwrap()
    );
    println!(
        "a tree of the same density would give rho = {:+.4}",
        tree_baseline(&random)
    );
    println!(
        "\nmeasured mean rho = {:+.3}: {}",
        report.fig8.all.mean(),
        if report.fig8.all.mean() > 0.05 {
            "strongly reciprocal — pairs trade segments both ways, as the paper found"
        } else {
            "weak reciprocity at this scale; rerun with a larger --scale"
        }
    );
    println!(
        "intra-ISP rho {:+.3} > all {:+.3} > inter-ISP {:+.3}: {}",
        report.fig8.intra.mean(),
        report.fig8.all.mean(),
        report.fig8.inter.mean(),
        if report.fig8.intra.mean() >= report.fig8.inter.mean() {
            "ISP clusters are where the trading happens (Fig. 8B's ordering)"
        } else {
            "ordering differs at this scale"
        }
    );
}
