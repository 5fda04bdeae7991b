//! Simulation time and the study calendar.
//!
//! All of Magellan's figures plot a two-week window: 12:00 a.m.
//! October 1st, 2006 (GMT+8) through 11:50 p.m. October 14th, 2006.
//! [`SimTime`] counts milliseconds from that origin; [`StudyCalendar`]
//! translates it into day-of-week / hour-of-day, flags the weekend,
//! and knows the Mid-Autumn flash-crowd instant (9 p.m. Oct 6).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of simulated time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000)
    }

    /// From whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000)
    }

    /// From whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000)
    }

    /// From whole days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * 86_400_000)
    }

    /// Milliseconds in this duration.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds, fractional.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Multiplies the duration by a non-negative factor, saturating.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(factor >= 0.0, "duration factor must be non-negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_s = self.0 / 1_000;
        let (h, m, s) = (total_s / 3_600, (total_s / 60) % 60, total_s % 60);
        write!(f, "{h:02}:{m:02}:{s:02}")
    }
}

/// An instant of simulated time: milliseconds since the study origin
/// (2006-10-01 00:00 GMT+8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The study origin itself.
    pub const ORIGIN: SimTime = SimTime(0);

    /// From milliseconds since origin.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Builds a time from a day index (0 = Oct 1) and an hour/minute
    /// of that day.
    pub const fn at(day: u64, hour: u64, minute: u64) -> Self {
        SimTime(day * 86_400_000 + hour * 3_600_000 + minute * 60_000)
    }

    /// Milliseconds since origin.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Day index since the origin (0 = Sunday, October 1st).
    pub const fn day(self) -> u64 {
        self.0 / 86_400_000
    }

    /// Hour of day, 0..24.
    pub const fn hour(self) -> u64 {
        (self.0 / 3_600_000) % 24
    }

    /// Minute of hour, 0..60.
    pub const fn minute(self) -> u64 {
        (self.0 / 60_000) % 60
    }

    /// Fractional hours since midnight of the current day.
    pub fn hour_f64(self) -> f64 {
        (self.0 % 86_400_000) as f64 / 3_600_000.0
    }

    /// Duration elapsed since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(earlier.0 <= self.0, "`earlier` is in the future");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating difference (ZERO when `earlier` is after `self`).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cal = StudyCalendar::default();
        write!(
            f,
            "{} d{} {:02}:{:02}",
            cal.weekday(*self),
            self.day(),
            self.hour(),
            self.minute()
        )
    }
}

/// Day of the week.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Weekday {
    Sun,
    Mon,
    Tue,
    Wed,
    Thu,
    Fri,
    Sat,
}

impl Weekday {
    const ALL: [Weekday; 7] = [
        Weekday::Sun,
        Weekday::Mon,
        Weekday::Tue,
        Weekday::Wed,
        Weekday::Thu,
        Weekday::Fri,
        Weekday::Sat,
    ];

    /// Whether this is Saturday or Sunday.
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Sat | Weekday::Sun)
    }
}

impl fmt::Display for Weekday {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Weekday::Sun => "Sun",
            Weekday::Mon => "Mon",
            Weekday::Tue => "Tue",
            Weekday::Wed => "Wed",
            Weekday::Thu => "Thu",
            Weekday::Fri => "Fri",
            Weekday::Sat => "Sat",
        };
        f.write_str(s)
    }
}

/// The calendar of the measurement window.
///
/// October 1st, 2006 was a Sunday; the window runs two weeks; the
/// Mid-Autumn Festival flash crowd hit at 9 p.m. on Friday, October
/// 6th (day index 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StudyCalendar {
    /// Number of days in the study window.
    pub window_days: u64,
}

impl Default for StudyCalendar {
    fn default() -> Self {
        StudyCalendar { window_days: 14 }
    }
}

impl StudyCalendar {
    /// The end of the study window (exclusive).
    pub fn window_end(&self) -> SimTime {
        SimTime::from_millis(self.window_days * 86_400_000)
    }

    /// Day of week for an instant (day 0 = Sunday).
    pub fn weekday(&self, t: SimTime) -> Weekday {
        Weekday::ALL[(t.day() % 7) as usize]
    }

    /// Whether the instant falls on a weekend.
    pub fn is_weekend(&self, t: SimTime) -> bool {
        self.weekday(t).is_weekend()
    }

    /// The instant of the Mid-Autumn Festival flash crowd: 9 p.m.,
    /// Friday October 6th, 2006 (day 5 of the window).
    pub fn flash_crowd_instant(&self) -> SimTime {
        SimTime::at(5, 21, 0)
    }

    /// Whether `t` lies within the study window.
    pub fn contains(&self, t: SimTime) -> bool {
        t < self.window_end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_are_consistent() {
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
        assert_eq!(SimDuration::from_mins(1), SimDuration::from_secs(60));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
    }

    #[test]
    fn time_decomposition() {
        let t = SimTime::at(3, 21, 15);
        assert_eq!(t.day(), 3);
        assert_eq!(t.hour(), 21);
        assert_eq!(t.minute(), 15);
        assert!((t.hour_f64() - 21.25).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::at(1, 0, 0);
        let later = t + SimDuration::from_mins(90);
        assert_eq!(later.hour(), 1);
        assert_eq!(later.minute(), 30);
        assert_eq!(later.since(t), SimDuration::from_mins(90));
    }

    #[test]
    #[should_panic(expected = "future")]
    fn since_rejects_reversed_order() {
        let t = SimTime::at(0, 1, 0);
        let _ = t.since(SimTime::at(0, 2, 0));
    }

    #[test]
    fn saturating_since_clamps() {
        let t = SimTime::at(0, 1, 0);
        assert_eq!(t.saturating_since(SimTime::at(0, 2, 0)), SimDuration::ZERO);
    }

    #[test]
    fn october_first_2006_was_a_sunday() {
        let cal = StudyCalendar::default();
        assert_eq!(cal.weekday(SimTime::ORIGIN), Weekday::Sun);
        assert_eq!(cal.weekday(SimTime::at(6, 0, 0)), Weekday::Sat);
        assert_eq!(cal.weekday(SimTime::at(7, 0, 0)), Weekday::Sun);
    }

    #[test]
    fn flash_crowd_is_friday_evening() {
        let cal = StudyCalendar::default();
        let fc = cal.flash_crowd_instant();
        assert_eq!(cal.weekday(fc), Weekday::Fri);
        assert_eq!(fc.hour(), 21);
        assert_eq!(fc.day(), 5);
    }

    #[test]
    fn weekend_detection() {
        let cal = StudyCalendar::default();
        assert!(cal.is_weekend(SimTime::ORIGIN)); // Sunday
        assert!(!cal.is_weekend(SimTime::at(2, 12, 0))); // Tuesday
        assert!(cal.is_weekend(SimTime::at(13, 23, 50))); // final Saturday
    }

    #[test]
    fn window_bounds() {
        let cal = StudyCalendar::default();
        assert!(cal.contains(SimTime::at(13, 23, 50)));
        assert!(!cal.contains(SimTime::at(14, 0, 0)));
        assert_eq!(cal.window_end(), SimTime::at(14, 0, 0));
    }

    #[test]
    fn display_formats() {
        let t = SimTime::at(5, 21, 0);
        assert_eq!(t.to_string(), "Fri d5 21:00");
        assert_eq!(SimDuration::from_mins(75).to_string(), "01:15:00");
    }

    #[test]
    fn durations_add() {
        let d = SimDuration::from_mins(3) + SimDuration::from_secs(30);
        assert_eq!(d, SimDuration::from_millis(210_000));
        let mut e = SimDuration::from_secs(1);
        e += SimDuration::from_secs(2);
        assert_eq!(e, SimDuration::from_secs(3));
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(10).mul_f64(1.5);
        assert_eq!(d, SimDuration::from_millis(15_000));
    }
}
