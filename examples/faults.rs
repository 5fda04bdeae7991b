//! Fault injection: run the same small study clean and under the
//! combined stress schedule (tracker + trace-server outages, an
//! inter-ISP partition, a 15% ungraceful crash wave, 10% report loss
//! with an evening spike), and show how the measurement degrades
//! gracefully instead of lying.
//!
//! ```text
//! cargo run --release --example faults -- [--seed 2006] [--scale 0.001] [--days 2]
//! ```

use magellan::analysis::study::StudyConfig;
use magellan::cli::Command;
use magellan::netsim::SimTime;
use magellan::prelude::*;
use magellan::runcfg::RunParams;

fn main() {
    let args = Command::new("faults")
        .flags(&RunParams::FLAGS[..3])
        .parse_env();
    let scale = args.f64("--scale").unwrap_or(0.001);
    let days = args.u64("--days").unwrap_or(2).max(2);
    let seed = args.u64("--seed").unwrap_or(2006);
    let fault_day = 1; // the stress schedule packs into day 1

    println!("Magellan fault drill — seed {seed}, scale {scale}, {days} day(s), faults on day {fault_day}\n");
    let base = StudyConfig {
        seed,
        scale,
        window_days: days,
        degree_captures: vec![
            ("9pm d1".into(), SimTime::at(1, 21, 0)),
            ("12:30 d1 (mid-outage)".into(), SimTime::at(1, 12, 30)),
        ],
        ..StudyConfig::default()
    };
    let clean = MagellanStudy::new(base.clone()).run();
    let mut stressed_cfg = base;
    stressed_cfg.faults = FaultPlan::combined_stress(fault_day);
    let stressed = MagellanStudy::new(stressed_cfg).run();

    println!("=== faulted run ===\n{}", stressed.render_text());

    println!("--- degradation, clean vs faulted ---");
    let f = &stressed.sim.faults;
    println!(
        "crashes {} | tracker denials {} (retries {}, recovered {}) | gossip fallbacks {}",
        f.crashes,
        f.tracker_denied_joins,
        f.bootstrap_retries,
        f.bootstrap_recoveries,
        f.gossip_fallbacks
    );
    println!(
        "reports: clean {} vs faulted {} ({} lost in flight)",
        clean.sim.reports, stressed.sim.reports, f.reports_lost
    );
    println!(
        "partial samples: {} (clean: {})",
        stressed.partial_samples.len(),
        clean.partial_samples.len()
    );
    println!(
        "findings survive — reciprocity {:.3} vs {:.3}, clustering ratio {:.0}x vs {:.0}x, stable/total {:.2} vs {:.2}",
        clean.fig8.all.mean(),
        stressed.fig8.all.mean(),
        clean.fig7.global.clustering_ratio(),
        stressed.fig7.global.clustering_ratio(),
        clean.fig1a.stable_ratio(),
        stressed.fig1a.stable_ratio(),
    );
}
