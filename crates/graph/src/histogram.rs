//! Degree histograms and empirical distributions.
//!
//! Figure 4 of the paper plots, on log–log axes, the *fraction of
//! peers* at each degree value. [`DegreeHistogram`] is the container
//! behind those plots: raw counts per degree plus helpers for the pmf,
//! CCDF, log-binned smoothing, and spike (mode) detection that the
//! paper uses to argue the distributions are not power laws.

/// One point of an empirical degree distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramPoint {
    /// Degree value (or geometric bin center for log-binned output).
    pub degree: f64,
    /// Fraction of samples at this degree (or in this bin).
    pub fraction: f64,
}

/// An empirical distribution over non-negative integer degrees.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegreeHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl DegreeHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a histogram from an iterator of degree samples.
    pub fn from_samples<I: IntoIterator<Item = usize>>(samples: I) -> Self {
        let mut h = Self::new();
        for s in samples {
            h.record(s);
        }
        h
    }

    /// Records one sample.
    pub fn record(&mut self, degree: usize) {
        if degree >= self.counts.len() {
            self.counts.resize(degree + 1, 0);
        }
        self.counts[degree] += 1;
        self.total += 1;
    }

    /// Removes one previously recorded sample, the inverse of
    /// [`record`](Self::record) — the maintenance primitive behind the
    /// incremental snapshot engine's live degree histograms.
    ///
    /// Trailing zero buckets are trimmed so that a histogram maintained
    /// by record/unrecord pairs compares equal (`==`) to one freshly
    /// built from the surviving samples.
    ///
    /// # Panics
    ///
    /// Panics when no sample is currently recorded at `degree` — an
    /// unrecord that does not pair with an earlier record is a caller
    /// accounting bug, not a recoverable state.
    pub fn unrecord(&mut self, degree: usize) {
        let Some(slot) = self.counts.get_mut(degree).filter(|c| **c > 0) else {
            panic!("unrecord at degree {degree}: no sample recorded");
        };
        *slot -= 1;
        self.total -= 1;
        while self.counts.last() == Some(&0) {
            self.counts.pop();
        }
    }

    /// Total number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of samples observed at exactly `degree`.
    pub fn count_at(&self, degree: usize) -> u64 {
        self.counts.get(degree).copied().unwrap_or(0)
    }

    /// Fraction of samples at exactly `degree` (0.0 when empty).
    pub fn fraction_at(&self, degree: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count_at(degree) as f64 / self.total as f64
    }

    /// The largest degree with a nonzero count, if any sample exists.
    pub fn max_degree(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Mean degree over all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// The `q`-quantile (0.0..=1.0) of the degree distribution.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<usize> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (d, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(d);
            }
        }
        self.max_degree()
    }

    /// The mode of the distribution *ignoring degree 0* — the "spike"
    /// the paper tracks in Fig. 4 (degree-0 reporters are peers whose
    /// partner activity fell below threshold, not a topological mode).
    ///
    /// Ties resolve to the smallest degree.
    pub fn spike(&self) -> Option<usize> {
        self.counts
            .iter()
            .enumerate()
            .skip(1)
            .filter(|&(_, &c)| c > 0)
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(d, _)| d)
    }

    /// The pmf as points, skipping zero-count degrees (log–log friendly).
    pub fn pmf(&self) -> Vec<HistogramPoint> {
        if self.total == 0 {
            return Vec::new();
        }
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(d, &c)| HistogramPoint {
                degree: d as f64,
                fraction: c as f64 / self.total as f64,
            })
            .collect()
    }

    /// Complementary CDF: fraction of samples with degree `>= d`, for
    /// each observed degree `d`.
    pub fn ccdf(&self) -> Vec<HistogramPoint> {
        if self.total == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut tail = self.total;
        for (d, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                out.push(HistogramPoint {
                    degree: d as f64,
                    fraction: tail as f64 / self.total as f64,
                });
            }
            tail -= c;
        }
        out
    }

    /// Geometrically binned pmf with `bins_per_decade` bins per factor
    /// of ten, normalized by bin width — the standard way to smooth a
    /// heavy-tailed histogram for log–log plots.
    ///
    /// Degree 0 is excluded (it has no logarithm).
    pub fn log_binned(&self, bins_per_decade: usize) -> Vec<HistogramPoint> {
        assert!(bins_per_decade > 0, "need at least one bin per decade");
        let max = match self.max_degree() {
            Some(m) if m >= 1 => m,
            _ => return Vec::new(),
        };
        let ratio = 10f64.powf(1.0 / bins_per_decade as f64);
        let mut out = Vec::new();
        let mut lo = 1.0f64;
        while lo <= max as f64 {
            let hi = lo * ratio;
            // Integer degrees in [lo, hi).
            let d_lo = lo.ceil() as usize;
            let d_hi = (hi.ceil() as usize).min(self.counts.len());
            let count: u64 = (d_lo..d_hi).map(|d| self.counts[d]).sum();
            let width = hi - lo;
            if count > 0 {
                out.push(HistogramPoint {
                    degree: (lo * hi).sqrt(),
                    fraction: count as f64 / self.total as f64 / width,
                });
            }
            lo = hi;
        }
        out
    }

    /// Expands the histogram back into individual samples (useful for
    /// feeding fitted estimators).
    pub fn to_samples(&self) -> Vec<usize> {
        let mut v = Vec::with_capacity(self.total as usize);
        for (d, &c) in self.counts.iter().enumerate() {
            for _ in 0..c {
                v.push(d);
            }
        }
        v
    }
}

impl FromIterator<usize> for DegreeHistogram {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        Self::from_samples(iter)
    }
}

impl Extend<usize> for DegreeHistogram {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for s in iter {
            self.record(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_inert() {
        let h = DegreeHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.max_degree(), None);
        assert_eq!(h.spike(), None);
        assert_eq!(h.quantile(0.5), None);
        assert!(h.pmf().is_empty());
        assert!(h.ccdf().is_empty());
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let h: DegreeHistogram = [1usize, 1, 2, 3, 3, 3].into_iter().collect();
        let sum: f64 = h.pmf().iter().map(|p| p.fraction).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn count_and_fraction() {
        let h: DegreeHistogram = [0usize, 2, 2, 5].into_iter().collect();
        assert_eq!(h.count_at(2), 2);
        assert_eq!(h.count_at(4), 0);
        assert!((h.fraction_at(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spike_ignores_zero_and_prefers_smallest_tie() {
        let h: DegreeHistogram = [0usize, 0, 0, 3, 3, 7, 7].into_iter().collect();
        assert_eq!(h.spike(), Some(3));
    }

    #[test]
    fn mean_matches_hand_computation() {
        let h: DegreeHistogram = [1usize, 2, 3].into_iter().collect();
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let h: DegreeHistogram = (1..=100usize).collect();
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(1.0), Some(100));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_rejects_out_of_range() {
        let h: DegreeHistogram = [1usize].into_iter().collect();
        let _ = h.quantile(1.5);
    }

    #[test]
    fn ccdf_is_monotone_nonincreasing_and_starts_at_one() {
        let h: DegreeHistogram = [0usize, 1, 1, 4, 9].into_iter().collect();
        let c = h.ccdf();
        assert!((c[0].fraction - 1.0).abs() < 1e-12);
        for w in c.windows(2) {
            assert!(w[0].fraction >= w[1].fraction);
        }
    }

    #[test]
    fn log_binning_conserves_mass() {
        let h: DegreeHistogram = (1..=1000usize).collect();
        let binned = h.log_binned(5);
        // Total mass = sum fraction * width; widths partition [1, max*ratio).
        // We verify a weaker invariant: every bin density is positive and
        // bins are ordered by center.
        assert!(!binned.is_empty());
        for w in binned.windows(2) {
            assert!(w[0].degree < w[1].degree);
        }
        assert!(binned.iter().all(|p| p.fraction > 0.0));
    }

    #[test]
    fn to_samples_roundtrip() {
        let orig = vec![1usize, 1, 4, 7];
        let h: DegreeHistogram = orig.iter().copied().collect();
        let mut back = h.to_samples();
        back.sort();
        assert_eq!(back, orig);
    }
}
