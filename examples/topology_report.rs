//! A complete topology characterization of one overlay snapshot —
//! every metric in `magellan-graph` applied to the simulated UUSee
//! mesh, the way a measurement paper's "graph properties" table would
//! present it, with ER/WS/BA reference topologies alongside.
//!
//! ```text
//! cargo run --release --example topology_report -- [--scale 0.002]
//! ```

use magellan::analysis::graphs::{active_link_graph, NodeScope};
use magellan::cli::{Command, Flag};
use magellan::graph::assortativity::{assortativity, AssortKind};
use magellan::graph::clustering::{clustering_coefficient, transitivity};
use magellan::graph::degree::{average_degree, degree_histogram, DegreeKind};
use magellan::graph::kcore::core_decomposition;
use magellan::graph::paths::{
    average_path_length, largest_component_fraction, PathSampling, PathTreatment,
};
use magellan::graph::powerlaw;
use magellan::graph::random::{barabasi_albert, gnm_undirected, watts_strogatz, RandomBaseline};
use magellan::graph::reciprocity::{garlaschelli_reciprocity, simple_reciprocity};
use magellan::graph::DiGraph;
use magellan::netsim::{SimTime, StudyCalendar};
use magellan::overlay::{OverlaySim, SimConfig};
use magellan::prelude::*;
use magellan::trace::SnapshotBuilder;
use std::hash::Hash;

fn characterize<N: Eq + Hash + Clone>(name: &str, g: &DiGraph<N>) {
    let n = g.node_count();
    let m_und = g.undirected_edge_count();
    let c = clustering_coefficient(g);
    let t = transitivity(g);
    let l = average_path_length(g, PathTreatment::Undirected, PathSampling::Exact)
        .map(|s| s.mean)
        .unwrap_or(f64::NAN);
    let baseline = RandomBaseline::analytic(n, m_und);
    let r = simple_reciprocity(g);
    let rho = garlaschelli_reciprocity(g)
        .map(|v| format!("{v:+.3}"))
        .unwrap_or("n/a".into());
    let assort = assortativity(g, AssortKind::Undirected)
        .map(|v| format!("{v:+.3}"))
        .unwrap_or("n/a".into());
    let giant = largest_component_fraction(g);
    let h = degree_histogram(g, DegreeKind::Undirected);
    let pl = powerlaw::assess(&h.to_samples())
        .map(|v| {
            format!(
                "{} (alpha {:.2}, ks {:.3})",
                if v.plausible { "plausible" } else { "rejected" },
                v.fit.alpha,
                v.fit.ks
            )
        })
        .unwrap_or_else(|e| format!("n/a ({e})"));
    println!("== {name} ==");
    println!(
        "  nodes {n}, undirected edges {m_und}, giant component {:.2}",
        giant
    );
    println!(
        "  degree: mean {:.1}, spike {:?}, max {:?}",
        average_degree(g, DegreeKind::Undirected),
        h.spike(),
        h.max_degree()
    );
    println!(
        "  clustering C {:.3} (transitivity {:.3}) vs C_rand {:.4}",
        c, t, baseline.c_expected
    );
    println!(
        "  path length L {:.2} vs L_rand {}",
        l,
        baseline
            .l_expected
            .map(|v| format!("{v:.2}"))
            .unwrap_or("n/a".into())
    );
    let cores = core_decomposition(g);
    println!("  reciprocity r {r:.3}, rho {rho}; assortativity {assort}");
    println!(
        "  k-core: degeneracy {}, deepest-core size {}",
        cores.degeneracy(),
        cores.core_size(cores.degeneracy())
    );
    println!("  power law: {pl}\n");
}

fn main() {
    let args = Command::new("topology_report")
        .flags(&[Flag::float("--scale", "F")])
        .parse_env();
    let scale = args.f64("--scale").unwrap_or(0.002);
    println!("Topology characterization — scale {scale}\n");

    // Simulate one day and snapshot the evening peak.
    let scenario = Scenario::builder(70_000, scale)
        .calendar(StudyCalendar { window_days: 1 })
        .build();
    let mut sim = OverlaySim::new(scenario, SimConfig::default());
    let (store, summary) = sim
        .run_collecting()
        .expect("example scenario is self-consistent");
    println!(
        "simulated {} joins, {} reports, peak {} concurrent\n",
        summary.joins, summary.reports, summary.peak_concurrent
    );
    let snap = SnapshotBuilder::new(&store).at(SimTime::at(0, 21, 0));
    let reports: Vec<_> = snap.reports().cloned().collect();
    let overlay = active_link_graph(&reports, NodeScope::StableOnly);
    characterize("UUSee stable-peer overlay (9 p.m.)", &overlay);

    // Matched references.
    let n = overlay.node_count().max(10);
    let m = overlay.undirected_edge_count().max(20);
    characterize("Erdős–Rényi G(n, m) match", &gnm_undirected(n, m, 1));
    let k = ((2 * m) / n).max(2) & !1usize; // even mean degree
    if k < n {
        characterize(
            "Watts–Strogatz (same n, k, beta 0.1)",
            &watts_strogatz(n, k.max(2), 0.1, 2),
        );
    }
    let ba_m = (m / n).max(1);
    characterize("Barabási–Albert (same n, m)", &barabasi_albert(n, ba_m, 3));

    println!(
        "reading: the overlay clusters like WS, stays reciprocal unlike BA/ER,\n\
         and its degree distribution is spiked where BA's is a power law —\n\
         the combination the paper uses to distinguish streaming meshes from\n\
         file-sharing overlays."
    );
}
