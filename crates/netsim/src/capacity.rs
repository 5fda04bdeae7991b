//! Access-link capacities.
//!
//! The paper attributes UUSee's scaling to the fact that the ~400 Kbps
//! stream rate sits *below* the upload capacity of most ADSL/cable
//! peers, so surplus capacity exists whenever enough peers are online
//! (§4.2.2). This module models the 2006 Chinese access-link mix:
//! mostly ADSL, some cable and Ethernet, campus links inside CERNET,
//! and a residue of dial-up.

use crate::isp::Isp;
use crate::rng::{lognormal_median, weighted_index};

/// Access technology classes of 2006-era broadband.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// 56k dial-up: cannot sustain the stream.
    Modem,
    /// ADSL — the dominant class among UUSee users.
    Adsl,
    /// Cable modem.
    Cable,
    /// Residential Ethernet (apartment LAN).
    Ethernet,
    /// Campus network (CERNET dorms): high symmetric capacity.
    Campus,
}

impl AccessClass {
    /// All classes in sampling order.
    pub const ALL: [AccessClass; 5] = [
        AccessClass::Modem,
        AccessClass::Adsl,
        AccessClass::Cable,
        AccessClass::Ethernet,
        AccessClass::Campus,
    ];

    /// Median (download, upload) capacity in Kbps.
    pub fn median_kbps(self) -> (f64, f64) {
        match self {
            AccessClass::Modem => (56.0, 33.0),
            AccessClass::Adsl => (2_000.0, 512.0),
            AccessClass::Cable => (4_000.0, 768.0),
            AccessClass::Ethernet => (10_000.0, 2_000.0),
            AccessClass::Campus => (10_000.0, 4_000.0),
        }
    }
}

/// A sampled peer's access capacities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerCapacity {
    /// Total download capacity in Kbps.
    pub down_kbps: f64,
    /// Total upload capacity in Kbps.
    pub up_kbps: f64,
    /// The access class it was drawn from.
    pub class: AccessClass,
}

impl PeerCapacity {
    /// Whether the downlink can sustain a stream of `rate_kbps`.
    pub fn can_receive(&self, rate_kbps: f64) -> bool {
        self.down_kbps >= rate_kbps
    }
}

/// Per-ISP access-class mix and capacity sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityModel {
    /// Class weights for non-Edu ISPs, in [`AccessClass::ALL`] order.
    pub default_mix: [f64; 5],
    /// Class weights for [`Isp::Edu`] (campus-heavy).
    pub edu_mix: [f64; 5],
    /// Lognormal sigma applied around the class median.
    pub sigma: f64,
}

impl Default for CapacityModel {
    fn default() -> Self {
        CapacityModel {
            // Modem, Adsl, Cable, Ethernet, Campus.
            default_mix: [0.05, 0.55, 0.20, 0.15, 0.05],
            edu_mix: [0.00, 0.10, 0.00, 0.20, 0.70],
            sigma: 0.25,
        }
    }
}

impl CapacityModel {
    /// Draws the access class for a peer of `isp`.
    pub fn sample_class<R: rand::Rng + ?Sized>(&self, rng: &mut R, isp: Isp) -> AccessClass {
        let mix = if isp == Isp::Edu {
            &self.edu_mix
        } else {
            &self.default_mix
        };
        AccessClass::ALL[weighted_index(rng, mix)]
    }

    /// Draws a full capacity sample for a peer of `isp`.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R, isp: Isp) -> PeerCapacity {
        let class = self.sample_class(rng, isp);
        let (down_med, up_med) = class.median_kbps();
        PeerCapacity {
            down_kbps: lognormal_median(rng, down_med, self.sigma),
            up_kbps: lognormal_median(rng, up_med, self.sigma),
            class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    #[test]
    fn medians_are_plausible() {
        for class in AccessClass::ALL {
            let (d, u) = class.median_kbps();
            assert!(d > 0.0 && u > 0.0);
            assert!(d >= u, "{class:?} download below upload");
        }
    }

    #[test]
    fn most_non_modem_peers_can_upload_the_stream() {
        // The paper's premise: 400 Kbps < upload of most ADSL/cable peers.
        let model = CapacityModel::default();
        let mut rng = RngFactory::new(1).fork("cap");
        let n = 20_000;
        let enough = (0..n)
            .map(|_| model.sample(&mut rng, Isp::Telecom))
            .filter(|c| c.up_kbps >= 400.0)
            .count();
        let frac = enough as f64 / n as f64;
        assert!(frac > 0.8, "only {frac:.2} of peers can upload the stream");
    }

    #[test]
    fn edu_peers_skew_to_campus() {
        let model = CapacityModel::default();
        let mut rng = RngFactory::new(2).fork("edu");
        let n = 10_000;
        let campus = (0..n)
            .filter(|_| model.sample_class(&mut rng, Isp::Edu) == AccessClass::Campus)
            .count();
        let frac = campus as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.03, "campus share = {frac}");
    }

    #[test]
    fn capacities_are_positive_and_jittered() {
        let model = CapacityModel::default();
        let mut rng = RngFactory::new(3).fork("jitter");
        let a = model.sample(&mut rng, Isp::Netcom);
        let b = model.sample(&mut rng, Isp::Netcom);
        assert!(a.down_kbps > 0.0 && a.up_kbps > 0.0);
        // Two consecutive draws almost surely differ.
        assert!(a.down_kbps != b.down_kbps || a.class != b.class);
    }

    #[test]
    fn can_receive_threshold() {
        let cap = PeerCapacity {
            down_kbps: 500.0,
            up_kbps: 100.0,
            class: AccessClass::Adsl,
        };
        assert!(cap.can_receive(400.0));
        assert!(!cap.can_receive(600.0));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let model = CapacityModel::default();
        let a = model.sample(&mut RngFactory::new(7).fork("s"), Isp::Unicom);
        let b = model.sample(&mut RngFactory::new(7).fork("s"), Isp::Unicom);
        assert_eq!(a, b);
    }
}
