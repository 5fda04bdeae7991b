//! Path quality between peers: RTT and per-connection throughput
//! ceilings.
//!
//! The paper explains ISP-level clustering by one observation:
//! "connections between peers in the same ISPs have generally higher
//! throughput and smaller delay than those across ISPs" (§4.2.3). In
//! 2006 mainland China this was driven by congested inter-carrier
//! peering (notably Telecom↔Netcom). The model therefore draws, per
//! directed connection, a lognormal RTT and a lognormal path
//! throughput ceiling whose medians depend only on the {intra-ISP,
//! inter-ISP-within-China, cross-border} class of the path. The
//! overlay's peer selection never sees ISP labels — only these sampled
//! qualities — so any ISP clustering in the resulting topology is
//! emergent, as in the real system.

use crate::isp::Isp;
use crate::rng::lognormal_median;

/// The three path classes the model distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathClass {
    /// Both endpoints in the same ISP.
    IntraIsp,
    /// Different ISPs, both in mainland China.
    InterChina,
    /// At least one endpoint overseas.
    CrossBorder,
}

/// Classifies the path between two ISPs.
pub fn path_class(a: Isp, b: Isp) -> PathClass {
    if a == b {
        // Two overseas peers share the catch-all label but are not in
        // one network; treat them as cross-border unless in China.
        if a.is_china() {
            PathClass::IntraIsp
        } else {
            PathClass::CrossBorder
        }
    } else if a.is_china() && b.is_china() {
        PathClass::InterChina
    } else {
        PathClass::CrossBorder
    }
}

/// Sampled quality of one directed connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// Round-trip time in milliseconds.
    pub rtt_ms: f64,
    /// Path throughput ceiling in Kbps (independent of either
    /// endpoint's access capacity).
    pub bandwidth_kbps: f64,
}

/// Median RTT / throughput per path class plus jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Median RTT (ms) for intra-ISP paths.
    pub intra_rtt_ms: f64,
    /// Median RTT (ms) for inter-ISP paths within China.
    pub inter_china_rtt_ms: f64,
    /// Median RTT (ms) for cross-border paths.
    pub cross_border_rtt_ms: f64,
    /// Median throughput ceiling (Kbps) for intra-ISP paths.
    pub intra_bw_kbps: f64,
    /// Median throughput ceiling (Kbps) for inter-ISP paths within
    /// China (congested peering).
    pub inter_china_bw_kbps: f64,
    /// Median throughput ceiling (Kbps) for cross-border paths.
    pub cross_border_bw_kbps: f64,
    /// Lognormal sigma for RTT draws.
    pub rtt_sigma: f64,
    /// Lognormal sigma for throughput draws.
    pub bw_sigma: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            intra_rtt_ms: 25.0,
            inter_china_rtt_ms: 90.0,
            cross_border_rtt_ms: 230.0,
            intra_bw_kbps: 1_500.0,
            inter_china_bw_kbps: 400.0,
            cross_border_bw_kbps: 180.0,
            rtt_sigma: 0.35,
            bw_sigma: 0.45,
        }
    }
}

impl LinkModel {
    /// A degenerate model where path class makes no difference —
    /// used by the `ablation_selection` bench to show that ISP
    /// clustering disappears without an underlay quality gradient.
    pub fn uniform(rtt_ms: f64, bw_kbps: f64) -> Self {
        LinkModel {
            intra_rtt_ms: rtt_ms,
            inter_china_rtt_ms: rtt_ms,
            cross_border_rtt_ms: rtt_ms,
            intra_bw_kbps: bw_kbps,
            inter_china_bw_kbps: bw_kbps,
            cross_border_bw_kbps: bw_kbps,
            rtt_sigma: 0.35,
            bw_sigma: 0.45,
        }
    }

    /// The median `(rtt_ms, bw_kbps)` for a path class.
    pub fn medians(&self, class: PathClass) -> (f64, f64) {
        match class {
            PathClass::IntraIsp => (self.intra_rtt_ms, self.intra_bw_kbps),
            PathClass::InterChina => (self.inter_china_rtt_ms, self.inter_china_bw_kbps),
            PathClass::CrossBorder => (self.cross_border_rtt_ms, self.cross_border_bw_kbps),
        }
    }

    /// Samples the quality of a connection between ISPs `a` and `b`.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R, a: Isp, b: Isp) -> LinkQuality {
        let class = path_class(a, b);
        let (rtt_med, bw_med) = self.medians(class);
        LinkQuality {
            rtt_ms: lognormal_median(rng, rtt_med, self.rtt_sigma),
            bandwidth_kbps: lognormal_median(rng, bw_med, self.bw_sigma),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    #[test]
    fn path_classification() {
        assert_eq!(path_class(Isp::Telecom, Isp::Telecom), PathClass::IntraIsp);
        assert_eq!(path_class(Isp::Telecom, Isp::Netcom), PathClass::InterChina);
        assert_eq!(
            path_class(Isp::Telecom, Isp::Oversea),
            PathClass::CrossBorder
        );
        // Two "Oversea" peers share a label, not a network.
        assert_eq!(
            path_class(Isp::Oversea, Isp::Oversea),
            PathClass::CrossBorder
        );
    }

    #[test]
    fn intra_isp_is_systematically_better() {
        let model = LinkModel::default();
        let mut rng = RngFactory::new(1).fork("link");
        let n = 5_000;
        let mean = |a: Isp, b: Isp, rng: &mut rand::rngs::StdRng| {
            let mut rtt = 0.0;
            let mut bw = 0.0;
            for _ in 0..n {
                let q = model.sample(rng, a, b);
                rtt += q.rtt_ms;
                bw += q.bandwidth_kbps;
            }
            (rtt / n as f64, bw / n as f64)
        };
        let (rtt_intra, bw_intra) = mean(Isp::Netcom, Isp::Netcom, &mut rng);
        let (rtt_inter, bw_inter) = mean(Isp::Netcom, Isp::Telecom, &mut rng);
        let (rtt_cross, bw_cross) = mean(Isp::Netcom, Isp::Oversea, &mut rng);
        assert!(rtt_intra < rtt_inter && rtt_inter < rtt_cross);
        assert!(bw_intra > bw_inter && bw_inter > bw_cross);
    }

    #[test]
    fn uniform_model_erases_the_gradient() {
        let model = LinkModel::uniform(50.0, 800.0);
        for class in [
            PathClass::IntraIsp,
            PathClass::InterChina,
            PathClass::CrossBorder,
        ] {
            assert_eq!(model.medians(class), (50.0, 800.0));
        }
    }

    #[test]
    fn samples_are_positive() {
        let model = LinkModel::default();
        let mut rng = RngFactory::new(2).fork("pos");
        for _ in 0..1_000 {
            let q = model.sample(&mut rng, Isp::Unicom, Isp::Tietong);
            assert!(q.rtt_ms > 0.0);
            assert!(q.bandwidth_kbps > 0.0);
        }
    }

    #[test]
    fn sampling_deterministic_per_seed() {
        let model = LinkModel::default();
        let a = model.sample(&mut RngFactory::new(3).fork("d"), Isp::Edu, Isp::Edu);
        let b = model.sample(&mut RngFactory::new(3).fork("d"), Isp::Edu, Isp::Edu);
        assert_eq!(a, b);
    }
}
