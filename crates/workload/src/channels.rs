//! Channel directory and popularity.
//!
//! UUSee broadcast over 800 channels, mostly around 400 Kbps (§3.1).
//! The study's quality figure (Fig. 3) follows two of them: CCTV1,
//! with about 30,000 concurrent viewers, and CCTV4, with about 6,000 —
//! a 5:1 ratio out of ~100k total. The directory model pins those two
//! shares and spreads the rest of the audience over the remaining
//! channels with a Zipf tail.

use magellan_netsim::rng::weighted_index_iter;
use std::fmt;

/// Identifier of a channel within a [`ChannelDirectory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub u16);

impl ChannelId {
    /// CCTV1 — the most popular channel in the study.
    pub const CCTV1: ChannelId = ChannelId(0);
    /// CCTV4 — the comparison channel of Fig. 3.
    pub const CCTV4: ChannelId = ChannelId(1);
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// One live channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Identifier (index into the directory).
    pub id: ChannelId,
    /// Display name.
    pub name: String,
    /// Stream rate in Kbps.
    pub rate_kbps: f64,
    /// Relative popularity weight (unnormalized).
    pub weight: f64,
}

/// The set of channels a scenario streams, with popularity weights.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelDirectory {
    channels: Vec<Channel>,
}

impl ChannelDirectory {
    /// Builds a UUSee-like directory of `n` channels (`n >= 2`):
    /// CCTV1 holds 30% of the audience, CCTV4 6%, and the remaining
    /// 64% follows a Zipf(0.9) tail over the other channels. All
    /// channels stream at 400 Kbps, matching §3.1.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn uusee(n: usize) -> Self {
        assert!(n >= 2, "need at least CCTV1 and CCTV4");
        let mut channels = Vec::with_capacity(n);
        channels.push(Channel {
            id: ChannelId::CCTV1,
            name: "CCTV1".to_owned(),
            rate_kbps: 400.0,
            weight: 0.30,
        });
        channels.push(Channel {
            id: ChannelId::CCTV4,
            name: "CCTV4".to_owned(),
            rate_kbps: 400.0,
            weight: 0.06,
        });
        let tail = n - 2;
        if tail > 0 {
            let raw: Vec<f64> = (1..=tail).map(|k| (k as f64).powf(-0.9)).collect();
            let raw_sum: f64 = raw.iter().sum();
            for (k, w) in raw.into_iter().enumerate() {
                channels.push(Channel {
                    id: ChannelId((k + 2) as u16),
                    name: format!("CH{}", k + 2),
                    rate_kbps: 400.0,
                    weight: 0.64 * w / raw_sum,
                });
            }
        }
        ChannelDirectory { channels }
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Looks up a channel.
    ///
    /// # Panics
    ///
    /// Panics if the id is not in this directory.
    pub fn get(&self, id: ChannelId) -> &Channel {
        &self.channels[id.0 as usize]
    }

    /// Iterates over all channels.
    pub fn iter(&self) -> impl Iterator<Item = &Channel> {
        self.channels.iter()
    }

    /// Normalized popularity share of `id`.
    pub fn share(&self, id: ChannelId) -> f64 {
        let total: f64 = self.channels.iter().map(|c| c.weight).sum();
        self.get(id).weight / total
    }

    /// Draws a channel according to popularity.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> ChannelId {
        // On the per-join hot path: sum + draw straight off the
        // directory, no per-call scratch Vec.
        let total: f64 = self.channels.iter().map(|c| c.weight).sum();
        let i = weighted_index_iter(rng, total, self.channels.iter().map(|c| c.weight));
        ChannelId(i as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_netsim::RngFactory;

    #[test]
    fn cctv1_to_cctv4_ratio_is_five() {
        let dir = ChannelDirectory::uusee(20);
        let ratio = dir.share(ChannelId::CCTV1) / dir.share(ChannelId::CCTV4);
        assert!((ratio - 5.0).abs() < 1e-9, "ratio = {ratio}");
    }

    #[test]
    fn shares_sum_to_one() {
        let dir = ChannelDirectory::uusee(50);
        let sum: f64 = (0..dir.len()).map(|i| dir.share(ChannelId(i as u16))).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_matches_shares() {
        let dir = ChannelDirectory::uusee(10);
        let mut rng = RngFactory::new(1).fork("channels");
        let n = 50_000;
        let cctv1 = (0..n)
            .filter(|_| dir.sample(&mut rng) == ChannelId::CCTV1)
            .count();
        let got = cctv1 as f64 / n as f64;
        assert!((got - 0.30).abs() < 0.01, "CCTV1 share = {got}");
    }

    #[test]
    fn tail_is_monotone_zipf() {
        let dir = ChannelDirectory::uusee(12);
        for k in 2..11 {
            let a = dir.share(ChannelId(k));
            let b = dir.share(ChannelId(k + 1));
            assert!(a >= b, "tail not monotone at {k}");
        }
    }

    #[test]
    fn minimal_directory_has_two_channels() {
        let dir = ChannelDirectory::uusee(2);
        assert_eq!(dir.len(), 2);
        assert_eq!(dir.get(ChannelId::CCTV1).name, "CCTV1");
        assert_eq!(dir.get(ChannelId::CCTV4).name, "CCTV4");
        assert!(!dir.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn rejects_tiny_directory() {
        let _ = ChannelDirectory::uusee(1);
    }

    #[test]
    fn all_channels_stream_at_400() {
        let dir = ChannelDirectory::uusee(8);
        assert!(dir.iter().all(|c| (c.rate_kbps - 400.0).abs() < 1e-9));
    }
}
