//! Flash-crowd intensity spikes.
//!
//! Fig. 1(A) of the paper shows a large flash crowd at 9 p.m. on
//! October 6th, 2006 — the Mid-Autumn Festival, when CCTV channels
//! broadcast a celebration gala. A [`FlashCrowd`] is a multiplicative
//! intensity bump with a fast ramp-up and a slower exponential decay,
//! optionally focused on a subset of channels (the gala aired on
//! specific CCTV channels).

use crate::channels::ChannelId;
use magellan_netsim::{SimDuration, SimTime, StudyCalendar};

/// One flash-crowd event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashCrowd {
    /// The instant of peak intensity.
    pub peak: SimTime,
    /// Ramp-up duration (linear climb to the peak).
    pub ramp_up: SimDuration,
    /// Exponential decay constant after the peak.
    pub decay: SimDuration,
    /// Arrival-rate multiplier at the peak (`>= 1`).
    pub magnitude: f64,
    /// When non-empty, the crowd targets only these channels; an
    /// empty list means overlay-wide.
    pub channels: Vec<ChannelId>,
}

impl FlashCrowd {
    /// The Mid-Autumn Festival crowd of the study window: 9 p.m.
    /// Friday Oct 6, one-hour ramp, two-hour decay, 2.2× peak
    /// arrivals, focused on the gala channels.
    pub fn mid_autumn(gala_channels: Vec<ChannelId>) -> Self {
        FlashCrowd {
            peak: StudyCalendar::default().flash_crowd_instant(),
            ramp_up: SimDuration::from_mins(60),
            decay: SimDuration::from_mins(90),
            magnitude: 2.2,
            channels: gala_channels,
        }
    }

    /// The arrival multiplier contributed by this crowd at `t`
    /// (1.0 far from the event).
    pub fn multiplier(&self, t: SimTime) -> f64 {
        let extra = self.magnitude - 1.0;
        if extra <= 0.0 {
            return 1.0;
        }
        let shape = if t <= self.peak {
            let lead = self.peak.since(t).as_millis() as f64;
            let ramp = self.ramp_up.as_millis().max(1) as f64;
            if lead >= ramp {
                0.0
            } else {
                1.0 - lead / ramp
            }
        } else {
            let lag = t.since(self.peak).as_millis() as f64;
            let tau = self.decay.as_millis().max(1) as f64;
            (-lag / tau).exp()
        };
        1.0 + extra * shape
    }

    /// Whether the crowd biases channel choice at `t` and toward
    /// which channels.
    pub fn target_channels(&self) -> &[ChannelId] {
        &self.channels
    }

    /// Whether this crowd is meaningfully active at `t` (multiplier
    /// above 1% of its peak extra).
    pub fn is_active(&self, t: SimTime) -> bool {
        self.multiplier(t) > 1.0 + (self.magnitude - 1.0) * 0.01
    }
}

/// Combined multiplier of several crowds (they compound).
pub fn combined_multiplier(crowds: &[FlashCrowd], t: SimTime) -> f64 {
    crowds.iter().map(|c| c.multiplier(t)).product()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crowd() -> FlashCrowd {
        FlashCrowd::mid_autumn(vec![])
    }

    #[test]
    fn peak_value_is_magnitude() {
        let c = crowd();
        assert!((c.multiplier(c.peak) - 2.2).abs() < 1e-12);
    }

    #[test]
    fn quiet_long_before_and_after() {
        let c = crowd();
        let before = c.peak - SimDuration::from_hours(3);
        let after = c.peak + SimDuration::from_hours(12);
        assert!((c.multiplier(before) - 1.0).abs() < 1e-9);
        assert!(c.multiplier(after) < 1.01);
        assert!(!c.is_active(before));
        assert!(c.is_active(c.peak));
    }

    #[test]
    fn ramp_is_monotone_up() {
        let c = crowd();
        let mut prev = 0.0;
        for m in 0..=60 {
            let t = c.peak - SimDuration::from_mins(60 - m);
            let v = c.multiplier(t);
            assert!(v >= prev, "ramp not monotone at minute {m}");
            prev = v;
        }
    }

    #[test]
    fn decay_is_monotone_down() {
        let c = crowd();
        let mut prev = f64::INFINITY;
        for m in 0..=240 {
            let t = c.peak + SimDuration::from_mins(m);
            let v = c.multiplier(t);
            assert!(v <= prev + 1e-12, "decay not monotone at minute {m}");
            prev = v;
        }
    }

    #[test]
    fn unit_magnitude_is_inert() {
        let mut c = crowd();
        c.magnitude = 1.0;
        assert_eq!(c.multiplier(c.peak), 1.0);
        assert!(!c.is_active(c.peak));
    }

    #[test]
    fn combined_multiplier_compounds() {
        let a = crowd();
        let mut b = crowd();
        b.magnitude = 1.5;
        let combined = combined_multiplier(&[a.clone(), b.clone()], a.peak);
        assert!((combined - 2.2 * 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_crowd_list_is_one() {
        assert_eq!(combined_multiplier(&[], SimTime::ORIGIN), 1.0);
    }
}
