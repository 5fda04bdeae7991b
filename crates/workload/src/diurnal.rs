//! Time-of-day arrival intensity.
//!
//! Fig. 1(A) of the paper shows ~100k concurrent peers with "a daily
//! peak around 9 p.m., and a second daily peak around 1 p.m." and
//! "only a slight number increase over the weekend". The profile here
//! is a base load plus two Gaussian bumps at those hours, times a
//! small weekend multiplier.

use magellan_netsim::{SimTime, StudyCalendar};

/// Multiplicative intensity as a function of time of day and weekday.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalProfile {
    /// Baseline (overnight trough) intensity.
    pub base: f64,
    /// Height of the 1 p.m. bump.
    pub noon_peak: f64,
    /// Center hour of the midday bump.
    pub noon_hour: f64,
    /// Width (std dev, hours) of the midday bump.
    pub noon_width: f64,
    /// Height of the 9 p.m. bump.
    pub evening_peak: f64,
    /// Center hour of the evening bump.
    pub evening_hour: f64,
    /// Width (std dev, hours) of the evening bump.
    pub evening_width: f64,
    /// Weekend multiplier (the paper's "slight increase").
    pub weekend_multiplier: f64,
}

impl Default for DiurnalProfile {
    fn default() -> Self {
        DiurnalProfile {
            base: 0.35,
            noon_peak: 0.35,
            noon_hour: 13.0,
            noon_width: 2.0,
            evening_peak: 0.65,
            evening_hour: 21.0,
            evening_width: 2.2,
            weekend_multiplier: 1.07,
        }
    }
}

fn gauss(x: f64, mu: f64, sigma: f64) -> f64 {
    // Wrap the hour distance around midnight so the 21:00 bump's tail
    // reaches into the small hours smoothly.
    let mut d = (x - mu).abs();
    if d > 12.0 {
        d = 24.0 - d;
    }
    (-0.5 * (d / sigma).powi(2)).exp()
}

impl DiurnalProfile {
    /// The intensity multiplier at `t` (relative to the profile's own
    /// peak; see [`DiurnalProfile::peak_intensity`]).
    pub fn intensity(&self, cal: &StudyCalendar, t: SimTime) -> f64 {
        let h = t.hour_f64();
        let shape = self.base
            + self.noon_peak * gauss(h, self.noon_hour, self.noon_width)
            + self.evening_peak * gauss(h, self.evening_hour, self.evening_width);
        if cal.is_weekend(t) {
            shape * self.weekend_multiplier
        } else {
            shape
        }
    }

    /// An upper bound of [`DiurnalProfile::intensity`] over all times
    /// — used as the majorant in Poisson thinning.
    pub fn peak_intensity(&self) -> f64 {
        (self.base + self.noon_peak + self.evening_peak) * self.weekend_multiplier.max(1.0)
    }

    /// A flat profile (intensity 1 always): useful for tests and
    /// ablations that need to isolate the diurnal effect.
    pub fn flat() -> Self {
        DiurnalProfile {
            base: 1.0,
            noon_peak: 0.0,
            noon_hour: 13.0,
            noon_width: 1.0,
            evening_peak: 0.0,
            evening_hour: 21.0,
            evening_width: 1.0,
            weekend_multiplier: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> StudyCalendar {
        StudyCalendar::default()
    }

    #[test]
    fn evening_peak_dominates() {
        let p = DiurnalProfile::default();
        let monday = 1; // Oct 2 was a Monday
        let evening = p.intensity(&cal(), SimTime::at(monday, 21, 0));
        let noon = p.intensity(&cal(), SimTime::at(monday, 13, 0));
        let night = p.intensity(&cal(), SimTime::at(monday, 4, 30));
        assert!(evening > noon, "evening {evening} <= noon {noon}");
        assert!(noon > night, "noon {noon} <= night {night}");
        // The paper's trough-to-peak swing is roughly 2x.
        assert!(evening / night > 1.8, "swing = {}", evening / night);
    }

    #[test]
    fn weekend_is_slightly_higher() {
        let p = DiurnalProfile::default();
        let sat = p.intensity(&cal(), SimTime::at(6, 21, 0));
        let fri = p.intensity(&cal(), SimTime::at(5, 21, 0));
        assert!(sat > fri);
        assert!(sat / fri < 1.15, "weekend bump too large: {}", sat / fri);
    }

    #[test]
    fn peak_intensity_is_an_upper_bound() {
        let p = DiurnalProfile::default();
        let bound = p.peak_intensity();
        for day in 0..14 {
            for hour in 0..24 {
                for minute in [0, 30] {
                    let i = p.intensity(&cal(), SimTime::at(day, hour, minute));
                    assert!(i <= bound + 1e-12, "intensity {i} exceeds bound {bound}");
                }
            }
        }
    }

    #[test]
    fn intensity_is_strictly_positive() {
        let p = DiurnalProfile::default();
        for hour in 0..24 {
            assert!(p.intensity(&cal(), SimTime::at(2, hour, 0)) > 0.0);
        }
    }

    #[test]
    fn flat_profile_is_constant_one() {
        let p = DiurnalProfile::flat();
        for day in [0, 3, 6] {
            for hour in [0, 9, 13, 21] {
                let i = p.intensity(&cal(), SimTime::at(day, hour, 0));
                assert!((i - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn evening_bump_wraps_past_midnight() {
        let p = DiurnalProfile::default();
        // 23:00 should still be noticeably above the 4 a.m. trough.
        let late = p.intensity(&cal(), SimTime::at(1, 23, 0));
        let trough = p.intensity(&cal(), SimTime::at(1, 4, 0));
        assert!(late > trough * 1.2);
    }
}
