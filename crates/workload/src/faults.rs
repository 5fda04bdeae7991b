//! The fault-injection plan: which components fail, when, and how
//! badly.
//!
//! The paper measured a live commercial deployment where failure was
//! the norm: UDP reports vanished, peers crashed without leave
//! messages, the tracker and trace server had downtime, and inter-ISP
//! paths degraded. A [`FaultPlan`] captures a deterministic schedule
//! of such events. It is part of the [`Scenario`](crate::Scenario),
//! so two runs with the same seed and the same plan produce
//! byte-identical traces — every probabilistic fault draw happens in
//! the simulator from a dedicated fork of the scenario RNG, never
//! here.
//!
//! The plan only *describes* faults; the overlay simulator consumes
//! it (crashes, outage-aware bootstrap, partition filtering), the
//! trace layer honors server downtime and report loss, and the
//! analysis layer flags the measurement holes the plan creates.

use magellan_netsim::{FaultWindow, Isp, IspPartition, SimTime};
use std::fmt;

/// A wave of ungraceful peer crashes at one instant.
///
/// Crashed peers send no leave message and never deregister from the
/// tracker by themselves; their partners only find out when transfers
/// time out, and the tracker only after its liveness horizon lapses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashWave {
    /// The instant of the wave.
    pub at: SimTime,
    /// Fraction of the live population that crashes, in `[0, 1]`.
    pub fraction: f64,
}

/// A report-loss spike: extra datagram loss during a window,
/// optionally confined to reporters inside one ISP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossSpike {
    /// When the spike is active.
    pub window: FaultWindow,
    /// The affected reporter ISP (`None` = everyone).
    pub isp: Option<Isp>,
    /// Additional independent loss probability, in `[0, 1]`.
    pub prob: f64,
}

/// A deterministic schedule of fault events for one scenario.
///
/// The default plan is empty: nothing fails, and a simulator driven
/// by an empty plan draws nothing from its fault RNG stream, so
/// fault-free runs stay byte-identical with pre-fault builds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Windows during which the tracker answers no bootstrap or
    /// membership request.
    pub tracker_outages: Vec<FaultWindow>,
    /// Windows during which the trace server accepts no report.
    pub server_outages: Vec<FaultWindow>,
    /// Ungraceful peer-crash waves.
    pub crash_waves: Vec<CrashWave>,
    /// Inter-ISP partitions severing cross-ISP links.
    pub partitions: Vec<IspPartition>,
    /// Baseline independent report-loss probability, in `[0, 1]`.
    pub base_report_loss: f64,
    /// Scheduled report-loss spikes on top of the baseline.
    pub loss_spikes: Vec<LossSpike>,
}

/// A fault plan failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A probability or fraction is outside `[0, 1]`.
    OutOfRange {
        /// Which field failed.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A partition's two sides share an ISP or one side is empty.
    BadPartition {
        /// What is wrong with it.
        what: &'static str,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::OutOfRange { what, value } => {
                write!(f, "fault plan {what} = {value} is outside [0, 1]")
            }
            FaultPlanError::BadPartition { what } => {
                write!(f, "fault plan has an invalid partition: {what}")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

fn unit_interval(what: &'static str, value: f64) -> Result<(), FaultPlanError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(FaultPlanError::OutOfRange { what, value })
    }
}

impl FaultPlan {
    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.tracker_outages.is_empty()
            && self.server_outages.is_empty()
            && self.crash_waves.is_empty()
            && self.partitions.is_empty()
            && self.base_report_loss == 0.0
            && self.loss_spikes.is_empty()
    }

    /// Checks every probability, fraction, and partition for sanity.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`] found.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        unit_interval("base_report_loss", self.base_report_loss)?;
        for w in &self.crash_waves {
            unit_interval("crash wave fraction", w.fraction)?;
        }
        for s in &self.loss_spikes {
            unit_interval("loss spike probability", s.prob)?;
        }
        for p in &self.partitions {
            if p.side_a.is_empty() || p.side_b.is_empty() {
                return Err(FaultPlanError::BadPartition {
                    what: "a side is empty",
                });
            }
            if p.side_a.iter().any(|i| p.side_b.contains(i)) {
                return Err(FaultPlanError::BadPartition {
                    what: "the sides share an ISP",
                });
            }
        }
        Ok(())
    }

    /// Whether the tracker is down at `t`.
    pub fn tracker_down(&self, t: SimTime) -> bool {
        self.tracker_outages.iter().any(|w| w.contains(t))
    }

    /// Whether the trace server is down at `t`.
    pub fn server_down(&self, t: SimTime) -> bool {
        self.server_outages.iter().any(|w| w.contains(t))
    }

    /// Whether the path between two ISPs is open at `t` (no active
    /// partition severs it).
    pub fn path_open(&self, x: Isp, y: Isp, t: SimTime) -> bool {
        !self.partitions.iter().any(|p| p.severs(x, y, t))
    }

    /// The independent report-loss probability for a reporter in
    /// `isp` at instant `t`: the baseline combined with every active
    /// spike that matches (losses compose as independent events).
    pub fn report_loss_prob(&self, isp: Isp, t: SimTime) -> f64 {
        let mut survive = 1.0 - self.base_report_loss;
        for s in &self.loss_spikes {
            let isp_matches = s.isp.map_or(true, |i| i == isp);
            if s.window.contains(t) && isp_matches {
                survive *= 1.0 - s.prob;
            }
        }
        (1.0 - survive).clamp(0.0, 1.0)
    }

    /// The crash waves scheduled in `[lo, hi)`, in schedule order.
    pub fn crash_waves_in(&self, lo: SimTime, hi: SimTime) -> impl Iterator<Item = &CrashWave> {
        self.crash_waves
            .iter()
            .filter(move |w| lo <= w.at && w.at < hi)
    }

    /// The combined stress schedule the degradation experiment uses,
    /// packed into day `day` of the window: a midday trace-server
    /// outage, an afternoon Telecom/Netcom partition, an evening
    /// Netcom loss spike, a prime-time tracker outage, a 15% crash
    /// wave right after it, and 10% baseline report loss throughout.
    pub fn combined_stress(day: u64) -> FaultPlan {
        FaultPlan {
            tracker_outages: vec![FaultWindow::new(
                SimTime::at(day, 20, 0),
                SimTime::at(day, 21, 0),
            )],
            server_outages: vec![FaultWindow::new(
                SimTime::at(day, 12, 0),
                SimTime::at(day, 13, 0),
            )],
            crash_waves: vec![CrashWave {
                at: SimTime::at(day, 21, 30),
                fraction: 0.15,
            }],
            partitions: vec![IspPartition {
                window: FaultWindow::new(SimTime::at(day, 14, 0), SimTime::at(day, 15, 0)),
                side_a: vec![Isp::Telecom, Isp::Unicom, Isp::Tietong],
                side_b: vec![Isp::Netcom],
            }],
            base_report_loss: 0.10,
            loss_spikes: vec![LossSpike {
                window: FaultWindow::new(SimTime::at(day, 18, 0), SimTime::at(day, 19, 0)),
                isp: Some(Isp::Netcom),
                prob: 0.30,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_netsim::SimDuration;

    #[test]
    fn default_plan_is_empty_and_inert() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        p.validate().unwrap();
        let t = SimTime::at(0, 12, 0);
        assert!(!p.tracker_down(t));
        assert!(!p.server_down(t));
        assert!(p.path_open(Isp::Telecom, Isp::Netcom, t));
        assert_eq!(p.report_loss_prob(Isp::Telecom, t), 0.0);
        assert_eq!(
            p.crash_waves_in(SimTime::ORIGIN, SimTime::at(14, 0, 0))
                .count(),
            0
        );
    }

    #[test]
    fn combined_stress_is_valid_and_nonempty() {
        let p = FaultPlan::combined_stress(1);
        assert!(!p.is_empty());
        p.validate().unwrap();
        assert!(p.tracker_down(SimTime::at(1, 20, 30)));
        assert!(!p.tracker_down(SimTime::at(1, 21, 0)));
        assert!(p.server_down(SimTime::at(1, 12, 30)));
        assert!(!p.path_open(Isp::Telecom, Isp::Netcom, SimTime::at(1, 14, 30)));
        assert!(p.path_open(Isp::Telecom, Isp::Edu, SimTime::at(1, 14, 30)));
        assert_eq!(
            p.crash_waves_in(SimTime::at(1, 21, 0), SimTime::at(1, 22, 0))
                .count(),
            1
        );
    }

    #[test]
    fn loss_probabilities_compose_independently() {
        let p = FaultPlan::combined_stress(0);
        let in_spike = SimTime::at(0, 18, 30);
        let outside = SimTime::at(0, 2, 0);
        // Baseline everywhere.
        assert!((p.report_loss_prob(Isp::Telecom, outside) - 0.10).abs() < 1e-12);
        // Spike only hits Netcom: 1 - 0.9 * 0.7 = 0.37.
        assert!((p.report_loss_prob(Isp::Netcom, in_spike) - 0.37).abs() < 1e-12);
        assert!((p.report_loss_prob(Isp::Telecom, in_spike) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        let mut p = FaultPlan {
            base_report_loss: 1.5,
            ..FaultPlan::default()
        };
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::OutOfRange { what, .. }) if what == "base_report_loss"
        ));
        p.base_report_loss = 0.0;
        p.crash_waves.push(CrashWave {
            at: SimTime::ORIGIN,
            fraction: -0.1,
        });
        assert!(p.validate().is_err());
        p.crash_waves.clear();
        p.loss_spikes.push(LossSpike {
            window: FaultWindow::starting_at(SimTime::ORIGIN, SimDuration::from_hours(1)),
            isp: None,
            prob: f64::NAN,
        });
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_degenerate_partitions() {
        let mut p = FaultPlan::default();
        p.partitions.push(IspPartition {
            window: FaultWindow::starting_at(SimTime::ORIGIN, SimDuration::from_hours(1)),
            side_a: vec![],
            side_b: vec![Isp::Netcom],
        });
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::BadPartition { .. })
        ));
        p.partitions[0].side_a = vec![Isp::Netcom];
        assert!(p.validate().is_err(), "shared ISP across the cut");
        p.partitions[0].side_a = vec![Isp::Telecom];
        p.validate().unwrap();
    }

    #[test]
    fn error_display_names_the_field() {
        let e = FaultPlanError::OutOfRange {
            what: "base_report_loss",
            value: 2.0,
        };
        assert!(e.to_string().contains("base_report_loss"));
        let b = FaultPlanError::BadPartition {
            what: "a side is empty",
        };
        assert!(b.to_string().contains("partition"));
    }
}
