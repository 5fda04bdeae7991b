//! Session-duration model.
//!
//! Viewing sessions are lognormal with a heavy upper tail: most
//! viewers zap away quickly, a backbone stays for hours. The paper's
//! measurement design keys on this: a peer only reports after 20
//! minutes online, and the reporting ("stable") peers turn out to be
//! roughly one third of the concurrent population (§3.2, §4.1.1).
//! Because long sessions are over-represented *time-wise*, a modest
//! per-session probability of exceeding 20 minutes yields exactly such
//! a concurrent share; `stable_concurrent_share` computes it in closed
//! form so tests can pin the calibration.

use magellan_netsim::rng::lognormal_median;
use magellan_netsim::SimDuration;

/// The report latency that defines a "stable" peer: first report 20
/// minutes after joining (paper §3.2).
pub const STABLE_THRESHOLD: SimDuration = SimDuration::from_mins(20);

/// Lognormal session-duration model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionModel {
    /// Median session length in minutes.
    pub median_mins: f64,
    /// Sigma of the underlying normal.
    pub sigma: f64,
    /// Floor on sampled durations (channel-zapping lower bound).
    pub min_mins: f64,
    /// Cap on sampled durations (nobody streams for a month).
    pub max_mins: f64,
}

impl Default for SessionModel {
    fn default() -> Self {
        SessionModel {
            median_mins: 8.0,
            sigma: 1.15,
            min_mins: 0.5,
            max_mins: 12.0 * 60.0,
        }
    }
}

impl SessionModel {
    /// Draws one session duration.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let mins =
            lognormal_median(rng, self.median_mins, self.sigma).clamp(self.min_mins, self.max_mins);
        SimDuration::from_millis((mins * 60_000.0) as u64)
    }

    /// Probability that a single session exceeds `threshold`
    /// (per-session, not time-weighted), ignoring the clamp bounds.
    pub fn survival(&self, threshold: SimDuration) -> f64 {
        let t_mins = threshold.as_millis() as f64 / 60_000.0;
        if t_mins <= 0.0 {
            return 1.0;
        }
        let z = (t_mins / self.median_mins).ln() / self.sigma;
        0.5 * erfc(z / std::f64::consts::SQRT_2)
    }

    /// The expected share of the *concurrent* population that has
    /// been online at least [`STABLE_THRESHOLD`] in steady state.
    ///
    /// By renewal-reward, a session of length `d` spends
    /// `max(d − τ, 0)` of its life in the stable state, so the share
    /// is `E[max(d − τ, 0)] / E[d]`, evaluated numerically over the
    /// clamped lognormal.
    pub fn stable_concurrent_share(&self) -> f64 {
        // Numeric integration over the lognormal density in minutes.
        let tau = STABLE_THRESHOLD.as_millis() as f64 / 60_000.0;
        let mu = self.median_mins.ln();
        let steps = 4_000;
        let lo = self.min_mins.max(1e-3).ln();
        let hi = self.max_mins.ln();
        let dx = (hi - lo) / steps as f64;
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..steps {
            let x = lo + (i as f64 + 0.5) * dx; // log-duration
            let d = x.exp();
            let pdf = (-0.5 * ((x - mu) / self.sigma).powi(2)).exp()
                / (self.sigma * (2.0 * std::f64::consts::PI).sqrt());
            // Change of variables: integrate over log-space.
            num += (d - tau).max(0.0) * pdf * dx;
            den += d * pdf * dx;
        }
        if den <= 0.0 {
            0.0
        } else {
            num / den
        }
    }
}

/// Complementary error function (Abramowitz–Stegun 7.1.26, |ε| ≤ 1.5e-7).
fn erfc(x: f64) -> f64 {
    let sign_neg = x < 0.0;
    let x_abs = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x_abs);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let e = poly * (-x_abs * x_abs).exp();
    if sign_neg {
        2.0 - e
    } else {
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_netsim::RngFactory;

    #[test]
    fn sampled_median_matches_parameter() {
        let m = SessionModel::default();
        let mut rng = RngFactory::new(1).fork("sessions");
        let mut mins: Vec<f64> = (0..40_001)
            .map(|_| m.sample(&mut rng).as_millis() as f64 / 60_000.0)
            .collect();
        mins.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = mins[20_000];
        assert!(
            (median - m.median_mins).abs() < 1.0,
            "median = {median}, want ≈ {}",
            m.median_mins
        );
    }

    #[test]
    fn samples_respect_bounds() {
        let m = SessionModel::default();
        let mut rng = RngFactory::new(2).fork("sessions");
        for _ in 0..20_000 {
            let d = m.sample(&mut rng);
            let mins = d.as_millis() as f64 / 60_000.0;
            assert!(mins >= m.min_mins - 1e-9);
            assert!(mins <= m.max_mins + 1e-9);
        }
    }

    #[test]
    fn survival_is_monotone() {
        let m = SessionModel::default();
        let s5 = m.survival(SimDuration::from_mins(5));
        let s20 = m.survival(SimDuration::from_mins(20));
        let s60 = m.survival(SimDuration::from_mins(60));
        assert!(s5 > s20 && s20 > s60);
        assert!((0.0..=1.0).contains(&s20));
    }

    #[test]
    fn survival_matches_empirical() {
        let m = SessionModel::default();
        let mut rng = RngFactory::new(3).fork("sessions");
        let n = 50_000;
        let over = (0..n)
            .filter(|_| m.sample(&mut rng) >= SimDuration::from_mins(20))
            .count();
        let got = over as f64 / n as f64;
        let want = m.survival(SimDuration::from_mins(20));
        assert!((got - want).abs() < 0.01, "got {got}, want {want}");
    }

    #[test]
    fn stable_share_is_near_one_third() {
        // The paper: stable peers ≈ 1/3 of concurrent peers.
        let share = SessionModel::default().stable_concurrent_share();
        assert!((0.28..=0.42).contains(&share), "stable share = {share}");
    }

    #[test]
    fn zero_threshold_survives_always() {
        let m = SessionModel::default();
        assert_eq!(m.survival(SimDuration::ZERO), 1.0);
    }

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
        assert!(erfc(4.0) < 1e-7);
    }
}
