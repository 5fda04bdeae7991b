//! Fault windows and inter-ISP partitions.
//!
//! The underlay primitives of the fault-injection subsystem: a
//! half-open time window during which some component is unavailable,
//! and an inter-ISP partition that severs every path between two sets
//! of ISPs while its window is active. The schedule itself (which
//! windows exist, for which components) lives in
//! `magellan_workload::faults`; this module only knows about time and
//! the ISP universe, which is all the underlay needs to answer "is
//! this path open at instant `t`?".

use crate::isp::Isp;
use crate::time::{SimDuration, SimTime};

/// A half-open outage window `[start, end)` in simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultWindow {
    /// First instant of the outage (inclusive).
    pub start: SimTime,
    /// First instant after the outage (exclusive).
    pub end: SimTime,
}

impl FaultWindow {
    /// Builds a window from explicit bounds.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes `start` (zero-length windows are
    /// allowed — they simply never contain anything).
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(start <= end, "fault window ends before it starts");
        FaultWindow { start, end }
    }

    /// Builds a window starting at `start` and lasting `len`.
    pub fn starting_at(start: SimTime, len: SimDuration) -> Self {
        FaultWindow {
            start,
            end: start + len,
        }
    }

    /// Whether the outage is active at instant `t`.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// Length of the window.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// How much of `[lo, hi)` this window covers.
    pub fn overlap(&self, lo: SimTime, hi: SimTime) -> SimDuration {
        let s = self.start.max(lo);
        let e = self.end.min(hi);
        e.saturating_since(s)
    }
}

/// Total coverage of `[lo, hi)` by a set of windows, as a fraction of
/// the interval that is *outside* every window.
///
/// Returns 1.0 for an empty interval (nothing was missed) and clamps
/// into `[0, 1]`. Overlapping windows are merged before summing so a
/// double-booked outage is not counted twice.
pub fn uncovered_fraction(windows: &[FaultWindow], lo: SimTime, hi: SimTime) -> f64 {
    let span = hi.saturating_since(lo).as_millis();
    if span == 0 {
        return 1.0;
    }
    // Merge-by-sweep over windows sorted by start; the lists involved
    // are tiny (a handful of scheduled outages), so O(n log n) is fine.
    let mut clipped: Vec<(u64, u64)> = windows
        .iter()
        .filter_map(|w| {
            let s = w.start.max(lo).as_millis();
            let e = w.end.min(hi).as_millis();
            (s < e).then_some((s, e))
        })
        .collect(); // lint:allow(H2): clips the configured outage windows once per boundary
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    let frac = 1.0 - covered as f64 / span as f64;
    frac.clamp(0.0, 1.0)
}

/// An inter-ISP partition: while `window` is active, every path
/// between an ISP in `side_a` and an ISP in `side_b` is severed.
///
/// Paths inside either side, and paths touching ISPs in neither side,
/// are unaffected — the model is a cut between two regions of the
/// AS-level topology (a severed peering link), not a blackout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IspPartition {
    /// When the cut is active.
    pub window: FaultWindow,
    /// One side of the cut.
    pub side_a: Vec<Isp>,
    /// The other side of the cut.
    pub side_b: Vec<Isp>,
}

impl IspPartition {
    /// Whether the path between `x` and `y` is severed at instant `t`.
    pub fn severs(&self, x: Isp, y: Isp, t: SimTime) -> bool {
        if !self.window.contains(t) {
            return false;
        }
        let (in_a_x, in_b_x) = (self.side_a.contains(&x), self.side_b.contains(&x));
        let (in_a_y, in_b_y) = (self.side_a.contains(&y), self.side_b.contains(&y));
        (in_a_x && in_b_y) || (in_b_x && in_a_y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(lo_min: u64, hi_min: u64) -> FaultWindow {
        FaultWindow::new(
            SimTime::ORIGIN + SimDuration::from_mins(lo_min),
            SimTime::ORIGIN + SimDuration::from_mins(hi_min),
        )
    }

    #[test]
    fn window_is_half_open() {
        let win = w(10, 20);
        assert!(!win.contains(SimTime::ORIGIN + SimDuration::from_mins(9)));
        assert!(win.contains(SimTime::ORIGIN + SimDuration::from_mins(10)));
        assert!(win.contains(SimTime::ORIGIN + SimDuration::from_mins(19)));
        assert!(!win.contains(SimTime::ORIGIN + SimDuration::from_mins(20)));
        assert_eq!(win.duration(), SimDuration::from_mins(10));
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn reversed_window_panics() {
        let _ = w(20, 10);
    }

    #[test]
    fn zero_length_window_contains_nothing() {
        let win = w(10, 10);
        assert!(!win.contains(SimTime::ORIGIN + SimDuration::from_mins(10)));
        assert_eq!(win.duration(), SimDuration::ZERO);
    }

    #[test]
    fn starting_at_matches_new() {
        assert_eq!(
            FaultWindow::starting_at(SimTime::at(0, 1, 0), SimDuration::from_mins(30)),
            w(60, 90)
        );
    }

    #[test]
    fn overlap_clips_to_interval() {
        let win = w(10, 20);
        let lo = SimTime::ORIGIN + SimDuration::from_mins(15);
        let hi = SimTime::ORIGIN + SimDuration::from_mins(40);
        assert_eq!(win.overlap(lo, hi), SimDuration::from_mins(5));
        // Disjoint interval: no overlap.
        let lo2 = SimTime::ORIGIN + SimDuration::from_mins(30);
        assert_eq!(win.overlap(lo2, hi), SimDuration::ZERO);
    }

    #[test]
    fn uncovered_fraction_basics() {
        let lo = SimTime::ORIGIN;
        let hi = SimTime::ORIGIN + SimDuration::from_mins(100);
        assert_eq!(uncovered_fraction(&[], lo, hi), 1.0);
        assert!((uncovered_fraction(&[w(0, 50)], lo, hi) - 0.5).abs() < 1e-12);
        assert_eq!(uncovered_fraction(&[w(0, 100)], lo, hi), 0.0);
        // Empty interval counts as fully covered by reports.
        assert_eq!(uncovered_fraction(&[w(0, 50)], lo, lo), 1.0);
    }

    #[test]
    fn uncovered_fraction_merges_overlaps() {
        let lo = SimTime::ORIGIN;
        let hi = SimTime::ORIGIN + SimDuration::from_mins(100);
        // Two overlapping 30-minute windows covering [10, 50).
        let frac = uncovered_fraction(&[w(10, 40), w(20, 50)], lo, hi);
        assert!((frac - 0.6).abs() < 1e-12, "{frac}");
        // Same windows in reverse order: identical answer.
        let rev = uncovered_fraction(&[w(20, 50), w(10, 40)], lo, hi);
        assert_eq!(frac, rev);
    }

    #[test]
    fn partition_severs_only_across_the_cut() {
        let p = IspPartition {
            window: w(10, 20),
            side_a: vec![Isp::Telecom, Isp::Unicom],
            side_b: vec![Isp::Netcom],
        };
        let during = SimTime::ORIGIN + SimDuration::from_mins(15);
        let after = SimTime::ORIGIN + SimDuration::from_mins(25);
        assert!(p.severs(Isp::Telecom, Isp::Netcom, during));
        assert!(p.severs(Isp::Netcom, Isp::Unicom, during), "symmetric");
        assert!(!p.severs(Isp::Telecom, Isp::Unicom, during), "same side");
        assert!(!p.severs(Isp::Telecom, Isp::Edu, during), "uninvolved ISP");
        assert!(!p.severs(Isp::Telecom, Isp::Netcom, after), "window over");
    }
}
