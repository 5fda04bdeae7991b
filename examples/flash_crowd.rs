//! Flash-crowd scalability (paper §4.1, Figs. 1A & 3).
//!
//! The paper's most striking claim: during the Mid-Autumn flash crowd
//! the fraction of CCTV4 viewers with satisfactory rates *rose*,
//! because a larger peer population brings more aggregate upload
//! capacity. This example runs the flash-crowd week twice — once with
//! the crowd, once without — and compares population and quality
//! around the event.
//!
//! ```text
//! cargo run --release --example flash_crowd -- [--scale 0.002]
//! ```

use magellan::analysis::study::StudyConfig;
use magellan::cli::{Command, Flag};
use magellan::netsim::{SimDuration, SimTime};
use magellan::prelude::*;

fn config(scale: f64, with_crowd: bool) -> StudyConfig {
    StudyConfig {
        seed: 1006,
        scale,
        window_days: 7, // includes Friday Oct 6 (day 5)
        sample_every: SimDuration::from_mins(30),
        flash_crowds: if with_crowd { None } else { Some(vec![]) },
        ..StudyConfig::default()
    }
}

fn main() {
    let args = Command::new("flash_crowd")
        .flags(&[Flag::float("--scale", "F")])
        .parse_env();
    let scale = args.f64("--scale").unwrap_or(0.002);
    println!("Flash-crowd study — scale {scale}\n");

    let crowd = MagellanStudy::new(config(scale, true)).run();
    let calm = MagellanStudy::new(config(scale, false)).run();
    let fc = StudyCalendar::default().flash_crowd_instant();

    print!("{}", crowd.fig1a.render_text());
    print!("{}", crowd.fig3.render_text());

    let day_before = fc - SimDuration::from_days(1);
    let pop_before = crowd.fig1a.total.at(day_before).unwrap_or(0.0);
    let pop_peak = crowd.fig1a.total.at(fc).unwrap_or(0.0);
    let pop_calm = calm.fig1a.total.at(fc).unwrap_or(0.0);
    println!(
        "\npopulation: Thu 9pm {pop_before:.0} -> flash-crowd peak {pop_peak:.0} \
         ({:.2}x; same instant without the crowd: {pop_calm:.0})",
        pop_peak / pop_before.max(1.0)
    );

    let q4_before = crowd.fig3.cctv4.at(day_before).unwrap_or(0.0);
    let q4_peak = crowd.fig3.cctv4.at(fc).unwrap_or(0.0);
    println!("CCTV4 satisfied viewers: Thu 9pm {q4_before:.2} -> during crowd {q4_peak:.2}");
    if q4_peak >= q4_before - 0.05 {
        println!(
            "=> quality held (or rose) under a {:.1}x population spike: the protocol scales,\n   \
             exactly the paper's flash-crowd finding.",
            pop_peak / pop_calm.max(1.0)
        );
    } else {
        println!("=> quality dropped under the crowd at this scale; rerun with a larger --scale.");
    }

    // The paper also notes satisfaction is a bit *higher* at the
    // daily peak hours in general.
    let quiet = SimTime::at(4, 5, 0);
    let busy = SimTime::at(4, 21, 0);
    println!(
        "\nCCTV1 satisfied viewers at 5am {:.2} vs 9pm {:.2} (paper: higher at peak hours)",
        crowd.fig3.cctv1.at(quiet).unwrap_or(0.0),
        crowd.fig3.cctv1.at(busy).unwrap_or(0.0)
    );
}
