//! Golden digests of the overlay simulator's output bytes.
//!
//! `determinism.rs` compares runs against each other, so a change that
//! alters the simulator's bytes consistently would still pass it. This
//! file pins absolute FNV-1a digests of two tiny 2-day runs, one clean
//! and one under `FaultPlan::combined_stress(0)`:
//!
//! * the wire-encoded report stream, in emission order;
//! * the final `OverlaySim::capture(..).encode()` checkpoint body
//!   (peer slab, every partner table, tracker, RNG states, summary).
//!
//! Over two days peers churn through many more slab slots than are
//! live at any instant, so the digests cover a slab that is mostly
//! dead slots. A refactor of the simulator's internal layout must
//! leave both digests unchanged. A deliberate behaviour change
//! updates them, and says why in the change log.

use magellan::netsim::StudyCalendar;
use magellan::overlay::{OverlaySim, SimConfig};
use magellan::trace::{wire, PeerReport};
use magellan::workload::{DiurnalProfile, FaultPlan, Scenario};

/// Incremental FNV-1a (64-bit).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digests of one run: (report stream, final checkpoint body).
fn digests(faults: FaultPlan) -> (u64, u64) {
    let scenario = Scenario::builder(2006, 0.0004)
        .calendar(StudyCalendar { window_days: 2 })
        .diurnal(DiurnalProfile::flat())
        .faults(faults)
        .build();
    let mut sim = OverlaySim::new(scenario, SimConfig::default());
    let mut state = sim.begin();
    let mut reports = Fnv::new();
    let mut count = 0u64;
    let mut sink = |r: PeerReport| {
        reports.write(&wire::encode(&r));
        count += 1;
    };
    while sim.tick_once(&mut state, &mut sink).expect("tick") {}
    let summary = *state.summary();
    assert!(count > 0 && count == summary.reports, "{summary:?}");
    // The point of a 2-day window: most slab slots are dead.
    assert!(
        summary.joins > 10 * summary.peak_concurrent as u64,
        "{summary:?}"
    );
    let mut ckpt = Fnv::new();
    ckpt.write(&sim.capture(&state).encode());
    (reports.0, ckpt.0)
}

#[test]
fn clean_two_day_run_matches_golden_digests() {
    let (reports, ckpt) = digests(FaultPlan::default());
    assert_eq!(
        (format!("{reports:016x}"), format!("{ckpt:016x}")),
        (
            "c57a1eb3f85d0429".to_string(),
            "14d5b26c3777ec02".to_string()
        )
    );
}

#[test]
fn combined_stress_two_day_run_matches_golden_digests() {
    let (reports, ckpt) = digests(FaultPlan::combined_stress(0));
    assert_eq!(
        (format!("{reports:016x}"), format!("{ckpt:016x}")),
        (
            "9726af7b6f91ec14".to_string(),
            "f8b1b14ba8475964".to_string()
        )
    );
}
