//! ISP-level "natural clustering" (paper §4.2.3 & §4.3, Figs. 6 & 7).
//!
//! The UUSee protocol never looks at ISP labels, yet its topology
//! clusters inside ISPs because intra-ISP paths have better measured
//! throughput/RTT and the active-set selection chases quality. This
//! example demonstrates the mechanism by running the same workload
//! twice: with quality-driven selection and with the
//! `random_selection` ablation — under random selection the intra-ISP
//! degree fraction collapses to the ISP-share mixing baseline.
//!
//! ```text
//! cargo run --release --example isp_clustering -- [--scale 0.002]
//! ```

use magellan::analysis::study::StudyConfig;
use magellan::cli::{Command, Flag};
use magellan::netsim::SimDuration;
use magellan::prelude::*;

fn config(scale: f64, random_selection: bool) -> StudyConfig {
    let mut cfg = StudyConfig {
        seed: 7,
        scale,
        window_days: 2,
        sample_every: SimDuration::from_mins(60),
        ..StudyConfig::default()
    };
    cfg.sim.random_selection = random_selection;
    cfg
}

fn main() {
    let args = Command::new("isp_clustering")
        .flags(&[Flag::float("--scale", "F")])
        .parse_env();
    let scale = args.f64("--scale").unwrap_or(0.002);
    println!("ISP clustering study — scale {scale}\n");

    let quality = MagellanStudy::new(config(scale, false)).run();
    let random = MagellanStudy::new(config(scale, true)).run();

    print!("{}", quality.fig6.render_text());
    print!("{}", quality.fig7.render_text());
    print!("{}", quality.fig8.render_text());

    // The paper: "Similar properties were observed for sub topologies
    // for other ISPs as well." Check every populated China ISP at one
    // evening snapshot.
    {
        use magellan::analysis::graphs::{active_link_graph, per_isp_smallworld, NodeScope};
        use magellan::netsim::{IspDatabase, SimTime};
        use magellan::overlay::OverlaySim;
        use magellan::trace::SnapshotBuilder;
        let cfg = config(scale, false);
        let scenario = cfg.scenario();
        let mut sim = OverlaySim::new(scenario, cfg.sim.clone());
        let db: IspDatabase = sim.isp_database().clone();
        let (store, _) = sim
            .run_collecting()
            .expect("example scenario is self-consistent");
        let snap = SnapshotBuilder::new(&store).at(SimTime::at(1, 21, 0));
        let reports: Vec<_> = snap.reports().cloned().collect();
        let g = active_link_graph(&reports, NodeScope::StableOnly);
        println!("\nper-ISP small-world panels at Mon 9 p.m.:");
        for (isp, r) in per_isp_smallworld(&g, &db, 8) {
            println!(
                "  {:<14} n {:>4} | C {:.3} vs C_rand {:.4} | L {:?}",
                isp.name(),
                r.n,
                r.c,
                r.c_rand,
                r.l
            );
        }
    }

    println!("\n--- ablation: quality-driven vs random selection ---");
    println!(
        "intra-ISP indegree fraction : {:.3} (quality) vs {:.3} (random) | mixing baseline {:.3}",
        quality.fig6.indegree.mean(),
        random.fig6.indegree.mean(),
        quality.fig6.baseline
    );
    println!(
        "intra-ISP outdegree fraction: {:.3} (quality) vs {:.3} (random)",
        quality.fig6.outdegree.mean(),
        random.fig6.outdegree.mean()
    );
    println!(
        "reciprocity rho             : {:.3} (quality) vs {:.3} (random)",
        quality.fig8.all.mean(),
        random.fig8.all.mean()
    );
    if quality.fig6.indegree.mean() > random.fig6.indegree.mean() + 0.02 {
        println!(
            "=> clustering above the baseline comes from bandwidth-aware peer selection,\n   \
             the causal mechanism the paper proposes."
        );
    } else {
        println!("=> gap too small at this scale; rerun with a larger --scale.");
    }
}
