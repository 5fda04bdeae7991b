//! Scenario composition: everything the overlay simulator needs to
//! replay a study window.
//!
//! A [`Scenario`] bundles the calendar, the diurnal profile, the flash
//! crowds, the session model, the channel directory, and a population
//! scale, and turns them into a deterministic stream of
//! [`JoinEvent`]s. `scale = 1.0` reproduces the paper's ~100,000
//! concurrent peers; the default experiment scale is much smaller (the
//! figures are shape-, not size-, dependent) and every binary accepts
//! `--scale`.

use crate::arrivals::generate_arrivals;
use crate::channels::{ChannelDirectory, ChannelId};
use crate::diurnal::DiurnalProfile;
use crate::faults::FaultPlan;
use crate::flashcrowd::{combined_multiplier, FlashCrowd};
use crate::session::SessionModel;
use magellan_netsim::{RngFactory, SimDuration, SimTime, StudyCalendar};
use rand::RngExt as _;

/// Arrival rate (joins per hour) that yields the paper's ~100k
/// concurrent peers at the evening peak when `scale = 1.0`, given the
/// default session model's ~16-minute mean session.
pub const FULL_SCALE_PEAK_RATE_PER_HOUR: f64 = 390_000.0;

/// One peer join handed to the overlay simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinEvent {
    /// When the peer joins.
    pub time: SimTime,
    /// How long it stays before leaving.
    pub duration: SimDuration,
    /// The channel it watches.
    pub channel: ChannelId,
}

/// A fully specified workload scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Experiment seed; every draw derives from it.
    pub seed: u64,
    /// Population scale relative to the real system (1.0 = ~100k
    /// concurrent at peak).
    pub scale: f64,
    /// The study calendar (window length, weekday mapping).
    pub calendar: StudyCalendar,
    /// Time-of-day intensity.
    pub diurnal: DiurnalProfile,
    /// Flash crowds (default: the Mid-Autumn gala).
    pub flash_crowds: Vec<FlashCrowd>,
    /// Session durations.
    pub sessions: SessionModel,
    /// Channel directory.
    pub channels: ChannelDirectory,
    /// Scheduled fault events (default: none).
    pub faults: FaultPlan,
}

impl Scenario {
    /// Starts a builder with the given seed and scale.
    pub fn builder(seed: u64, scale: f64) -> ScenarioBuilder {
        ScenarioBuilder::new(seed, scale)
    }

    /// The instantaneous arrival rate (joins/hour) at `t`.
    pub fn arrival_rate_per_hour(&self, t: SimTime) -> f64 {
        FULL_SCALE_PEAK_RATE_PER_HOUR
            * self.scale
            * self.diurnal.intensity(&self.calendar, t)
            * combined_multiplier(&self.flash_crowds, t)
    }

    /// Expected concurrent population at `t` (arrival rate × mean
    /// session length) — a Little's-law estimate used for calibration
    /// checks, not by the simulator itself.
    pub fn expected_concurrent(&self, t: SimTime) -> f64 {
        // Mean of the clamped lognormal, computed the same way the
        // session model integrates its stable share.
        let mean_mins = {
            let mu = self.sessions.median_mins.ln();
            let steps = 2_000;
            let lo = self.sessions.min_mins.max(1e-3).ln();
            let hi = self.sessions.max_mins.ln();
            let dx = (hi - lo) / steps as f64;
            let mut acc = 0.0;
            let mut mass = 0.0;
            for i in 0..steps {
                let x = lo + (i as f64 + 0.5) * dx;
                let pdf = (-0.5 * ((x - mu) / self.sessions.sigma).powi(2)).exp()
                    / (self.sessions.sigma * (2.0 * std::f64::consts::PI).sqrt());
                acc += x.exp() * pdf * dx;
                mass += pdf * dx;
            }
            acc / mass.max(1e-12)
        };
        self.arrival_rate_per_hour(t) * mean_mins / 60.0
    }

    /// A stable fingerprint over every field that shapes the
    /// generated workload. Checkpoint resume stores it alongside
    /// captured state and refuses state from a different scenario —
    /// resuming seed 7's study with seed 8's checkpoint would
    /// silently corrupt the archive. Hashes the canonical debug
    /// rendering (FNV-1a): exhaustive over fields by construction,
    /// deterministic within a build.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{self:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Generates the deterministic join stream for the whole window.
    ///
    /// Channel choice follows directory popularity, except while a
    /// channel-targeted flash crowd is active: the *extra* arrivals it
    /// contributes head to its target channels, which is how the gala
    /// concentrated the Mid-Autumn crowd on CCTV (and why Fig. 3's
    /// CCTV4 quality spike is visible).
    pub fn generate_joins(&self) -> Vec<JoinEvent> {
        let factory = RngFactory::new(self.seed);
        let mut arr_rng = factory.fork("scenario/arrivals");
        let mut sess_rng = factory.fork("scenario/sessions");
        let mut chan_rng = factory.fork("scenario/channels");
        let end = self.calendar.window_end();
        let max_crowd: f64 = self
            .flash_crowds
            .iter()
            .map(|c| c.magnitude.max(1.0))
            .product();
        let majorant =
            FULL_SCALE_PEAK_RATE_PER_HOUR * self.scale * self.diurnal.peak_intensity() * max_crowd;
        let times = generate_arrivals(&mut arr_rng, SimTime::ORIGIN, end, majorant, |t| {
            self.arrival_rate_per_hour(t)
        });
        times
            .into_iter()
            .map(|time| {
                let duration = self.sessions.sample(&mut sess_rng);
                let channel = self.pick_channel(&mut chan_rng, time);
                JoinEvent {
                    time,
                    duration,
                    channel,
                }
            })
            .collect()
    }

    fn pick_channel<R: rand::Rng + ?Sized>(&self, rng: &mut R, t: SimTime) -> ChannelId {
        for crowd in &self.flash_crowds {
            if crowd.target_channels().is_empty() || !crowd.is_active(t) {
                continue;
            }
            let m = crowd.multiplier(t);
            // Of the m× arrivals, (m-1)× are crowd-driven: route that
            // fraction to the target channels.
            let crowd_fraction = (m - 1.0) / m;
            if rng.random_range(0.0..1.0) < crowd_fraction {
                let targets = crowd.target_channels();
                return targets[rng.random_range(0..targets.len())];
            }
        }
        self.channels.sample(rng)
    }
}

/// Builder for [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Creates a builder with UUSee-like defaults: 14-day window,
    /// default diurnal profile, the Mid-Autumn flash crowd targeting
    /// CCTV1 and CCTV4, default sessions, a 20-channel directory.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive.
    pub fn new(seed: u64, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        ScenarioBuilder {
            scenario: Scenario {
                seed,
                scale,
                calendar: StudyCalendar::default(),
                diurnal: DiurnalProfile::default(),
                flash_crowds: vec![FlashCrowd::mid_autumn(vec![
                    ChannelId::CCTV1,
                    ChannelId::CCTV4,
                ])],
                sessions: SessionModel::default(),
                channels: ChannelDirectory::uusee(20),
                faults: FaultPlan::default(),
            },
        }
    }

    /// Replaces the calendar (e.g. a shorter window for tests).
    pub fn calendar(mut self, calendar: StudyCalendar) -> Self {
        self.scenario.calendar = calendar;
        self
    }

    /// Replaces the diurnal profile.
    pub fn diurnal(mut self, diurnal: DiurnalProfile) -> Self {
        self.scenario.diurnal = diurnal;
        self
    }

    /// Replaces the flash-crowd list (empty disables crowds).
    pub fn flash_crowds(mut self, crowds: Vec<FlashCrowd>) -> Self {
        self.scenario.flash_crowds = crowds;
        self
    }

    /// Replaces the session model.
    pub fn sessions(mut self, sessions: SessionModel) -> Self {
        self.scenario.sessions = sessions;
        self
    }

    /// Replaces the channel directory.
    pub fn channels(mut self, channels: ChannelDirectory) -> Self {
        self.scenario.channels = channels;
        self
    }

    /// Replaces the fault plan (default: no faults).
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] — a fault
    /// schedule is experiment configuration, and a bad one should
    /// abort before any simulation work starts.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        faults.validate().expect("invalid fault plan");
        self.scenario.faults = faults;
        self
    }

    /// Finalizes the scenario.
    pub fn build(self) -> Scenario {
        self.scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scenario {
        // ~200 concurrent at peak: fast to generate, big enough to test.
        Scenario::builder(42, 0.002)
            .calendar(StudyCalendar { window_days: 2 })
            .build()
    }

    #[test]
    fn fingerprint_tracks_workload_fields() {
        let a = small();
        assert_eq!(a.fingerprint(), small().fingerprint());
        let mut b = small();
        b.seed = 43;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = small();
        c.scale = 0.004;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = small();
        d.channels = ChannelDirectory::uusee(3);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn joins_are_sorted_and_in_window() {
        let s = small();
        let joins = s.generate_joins();
        assert!(!joins.is_empty());
        for w in joins.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        let end = s.calendar.window_end();
        assert!(joins.iter().all(|j| j.time < end));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small().generate_joins();
        let b = small().generate_joins();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small().generate_joins();
        let b = {
            let mut s = small();
            s.seed = 43;
            s.generate_joins()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn evening_attracts_more_joins_than_early_morning() {
        let s = small();
        let joins = s.generate_joins();
        let count_in = |h_lo: u64, h_hi: u64| {
            joins
                .iter()
                .filter(|j| j.time.hour() >= h_lo && j.time.hour() < h_hi)
                .count()
        };
        let evening = count_in(20, 23);
        let dawn = count_in(3, 6);
        assert!(evening > dawn * 2, "evening {evening} not ≫ dawn {dawn}");
    }

    #[test]
    fn little_law_estimate_is_in_the_right_ballpark() {
        let s = Scenario::builder(1, 1.0).build();
        // At 9 p.m. on a weekday the paper reports ~100k concurrent.
        let est = s.expected_concurrent(SimTime::at(2, 21, 0));
        assert!(
            (60_000.0..180_000.0).contains(&est),
            "peak concurrent estimate = {est}"
        );
    }

    #[test]
    fn flash_crowd_concentrates_on_gala_channels() {
        let mut s = Scenario::builder(7, 0.004).build();
        s.calendar = StudyCalendar { window_days: 7 }; // includes Oct 6
        let joins = s.generate_joins();
        let fc = s.calendar.flash_crowd_instant();
        let near = |j: &JoinEvent| {
            j.time >= fc - SimDuration::from_mins(30) && j.time <= fc + SimDuration::from_mins(30)
        };
        let during: Vec<_> = joins.iter().filter(|j| near(j)).collect();
        let gala_share = during
            .iter()
            .filter(|j| j.channel == ChannelId::CCTV1 || j.channel == ChannelId::CCTV4)
            .count() as f64
            / during.len().max(1) as f64;
        // Baseline CCTV1+CCTV4 share is 0.36; the crowd must push it up.
        assert!(
            gala_share > 0.5,
            "gala share during crowd = {gala_share} over {} joins",
            during.len()
        );
    }

    #[test]
    fn disabled_crowds_remove_the_spike() {
        let s = Scenario::builder(11, 0.002)
            .calendar(StudyCalendar { window_days: 7 })
            .flash_crowds(vec![])
            .build();
        let fc = s.calendar.flash_crowd_instant();
        let rate_at_peak = s.arrival_rate_per_hour(fc);
        let rate_day_before = s.arrival_rate_per_hour(fc - SimDuration::from_days(1));
        // Without the crowd, Friday 9 p.m. ≈ Thursday 9 p.m. (modulo weekend).
        assert!((rate_at_peak / rate_day_before - 1.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn rejects_non_positive_scale() {
        let _ = Scenario::builder(0, 0.0);
    }
}
