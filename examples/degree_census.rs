//! Degree distributions and the power-law question (paper §4.2,
//! Figs. 4 & 5).
//!
//! Earlier P2P measurement work reported power-law degree
//! distributions; Magellan found spiked, protocol-shaped
//! distributions instead. This example prints the three degree
//! distributions at morning/evening instants, runs the
//! Clauset-style power-law test on them, and — as a control — shows
//! the same test *accepting* a Barabási–Albert graph.
//!
//! ```text
//! cargo run --release --example degree_census -- [--scale 0.002]
//! ```

use magellan::analysis::study::StudyConfig;
use magellan::cli::{Command, Flag};
use magellan::graph::powerlaw;
use magellan::graph::random::barabasi_albert;
use magellan::netsim::SimTime;
use magellan::prelude::*;

fn main() {
    let args = Command::new("degree_census")
        .flags(&[Flag::float("--scale", "F")])
        .parse_env();
    let scale = args.f64("--scale").unwrap_or(0.002);
    println!("Degree census — scale {scale}\n");

    let cfg = StudyConfig {
        seed: 404,
        scale,
        window_days: 2,
        degree_captures: vec![
            ("9am d1".into(), SimTime::at(1, 9, 0)),
            ("9pm d1".into(), SimTime::at(1, 21, 0)),
        ],
        ..StudyConfig::default()
    };
    let report = MagellanStudy::new(cfg).run();

    print!("{}", report.fig4.render_text());
    print!("{}", report.fig5.render_text());

    for snap in &report.fig4.snapshots {
        println!("\n[{}] partner-count pmf (degree: fraction):", snap.label);
        for p in snap.partners.pmf().iter().take(30) {
            let bar = "#".repeat((p.fraction * 200.0).round() as usize);
            println!("  {:>4}: {:.4} {bar}", p.degree, p.fraction);
        }
    }

    // Control: the same test on a genuine power-law topology.
    let ba = barabasi_albert(3_000, 2, 99);
    let degrees: Vec<usize> = ba.node_ids().map(|id| ba.undirected_degree(id)).collect();
    match powerlaw::assess(&degrees) {
        Ok(v) => println!(
            "\ncontrol — Barabási–Albert graph: power-law plausible = {} (alpha {:.2}, ks {:.3})",
            v.plausible, v.fit.alpha, v.fit.ks
        ),
        Err(e) => println!("\ncontrol fit failed: {e}"),
    }
    for snap in &report.fig4.snapshots {
        if let Some(v) = &snap.partner_powerlaw {
            println!(
                "UUSee-like [{}]: power-law plausible = {} (ks {:.3} vs threshold {:.3}) — {}",
                snap.label,
                v.plausible,
                v.fit.ks,
                v.threshold,
                if v.plausible {
                    "unexpectedly plausible at this scale"
                } else {
                    "rejected, as the paper argues"
                }
            );
        }
    }
}
