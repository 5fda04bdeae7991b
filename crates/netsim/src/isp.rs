//! The ISP universe of the study and a synthetic IP→ISP mapping
//! database.
//!
//! The paper obtained a commercial database from UUSee Inc. that
//! translates IP ranges to China ISPs (and a catch-all code for
//! addresses outside China). That database is proprietary; this module
//! builds a synthetic stand-in: the IPv4 space is partitioned into
//! interleaved slabs assigned to ISPs in proportion to the peer shares
//! of Fig. 2, and an allocator hands out unique addresses with the
//! same marginal distribution. The analysis layer only ever needs the
//! total function `IP → ISP`, so the substitution is behavior
//! preserving.

use crate::rng::weighted_index;
use rand::RngExt as _;
use std::collections::BTreeSet;
use std::fmt;
use std::net::Ipv4Addr;

/// The ISPs distinguished by the study (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isp {
    /// China Telecom — the largest share of UUSee peers.
    Telecom,
    /// China Netcom — the second largest; Fig. 7(B) studies its subgraph.
    Netcom,
    /// China Unicom.
    Unicom,
    /// China Tietong (railway telecom).
    Tietong,
    /// CERNET — China Education and Research Network.
    Edu,
    /// Other ISPs inside China.
    OtherChina,
    /// Everything outside mainland China.
    Oversea,
}

impl Isp {
    /// All ISPs, in display order.
    pub const ALL: [Isp; 7] = [
        Isp::Telecom,
        Isp::Netcom,
        Isp::Unicom,
        Isp::Tietong,
        Isp::Edu,
        Isp::OtherChina,
        Isp::Oversea,
    ];

    /// Whether this ISP is inside mainland China. The paper restricts
    /// ISP-conditioned analyses (Figs. 6, 7B) to China ISPs.
    pub fn is_china(self) -> bool {
        !matches!(self, Isp::Oversea)
    }

    /// Human-readable name matching the paper's Fig. 2 labels.
    pub fn name(self) -> &'static str {
        match self {
            Isp::Telecom => "China Telecom",
            Isp::Netcom => "China Netcom",
            Isp::Unicom => "China Unicom",
            Isp::Tietong => "China Tietong",
            Isp::Edu => "China Edu",
            Isp::OtherChina => "China others",
            Isp::Oversea => "Oversea ISPs",
        }
    }

    /// Dense index into [`Isp::ALL`].
    pub fn index(self) -> usize {
        Isp::ALL.iter().position(|&i| i == self).expect("in ALL")
    }
}

impl fmt::Display for Isp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A peer's network identity: its IPv4 address.
///
/// The trace schema keys everything by IP address, exactly as the
/// paper's reports do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerAddr(pub Ipv4Addr);

impl PeerAddr {
    /// Builds an address from a raw `u32`.
    pub fn from_u32(raw: u32) -> Self {
        PeerAddr(Ipv4Addr::from(raw))
    }

    /// The raw `u32` form.
    pub fn as_u32(self) -> u32 {
        u32::from(self.0)
    }
}

impl fmt::Display for PeerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<Ipv4Addr> for PeerAddr {
    fn from(ip: Ipv4Addr) -> Self {
        PeerAddr(ip)
    }
}

/// Relative peer-population shares per ISP, calibrated to Fig. 2.
///
/// The paper's pie chart gives no numbers; these constants are read
/// off its proportions: Telecom and Netcom dominate, a visible
/// overseas wedge, the rest small.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IspShares {
    /// One weight per entry of [`Isp::ALL`]. Need not be normalized.
    pub weights: [f64; 7],
}

impl Default for IspShares {
    fn default() -> Self {
        IspShares {
            // Telecom, Netcom, Unicom, Tietong, Edu, OtherChina, Oversea.
            weights: [0.42, 0.25, 0.06, 0.05, 0.05, 0.07, 0.10],
        }
    }
}

impl IspShares {
    /// The normalized share of `isp`.
    pub fn share(&self, isp: Isp) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.weights[isp.index()] / total
    }

    /// Normalized shares in [`Isp::ALL`] order.
    pub fn normalized(&self) -> [f64; 7] {
        let total: f64 = self.weights.iter().sum();
        let mut out = self.weights;
        for w in &mut out {
            *w /= total;
        }
        out
    }
}

/// A range-based IP→ISP mapping database.
#[derive(Debug, Clone)]
pub struct IspDatabase {
    /// Sorted, non-overlapping `(start, end_inclusive, isp)` ranges.
    ranges: Vec<(u32, u32, Isp)>,
    shares: IspShares,
}

/// Number of interleaved slabs the synthetic database splits the
/// address space into. Multiple slabs per ISP make the lookup
/// non-trivial (as with real allocation) and exercise the range
/// search.
const SLABS: u32 = 64;
/// Synthetic allocations live in this window of the IPv4 space
/// (avoiding reserved low/high blocks).
const SPACE_START: u32 = 0x0B00_0000; // 11.0.0.0
const SPACE_END: u32 = 0xDF00_0000; // 223.0.0.0

impl IspDatabase {
    /// Builds the synthetic database for the given shares: the
    /// address window is cut into [`SLABS`] equal slabs and slabs are
    /// dealt to ISPs by largest-remainder apportionment, round-robin
    /// interleaved.
    pub fn synthetic(shares: IspShares) -> Self {
        let norm = shares.normalized();
        // Apportion slab counts by largest remainder.
        let mut counts = [0u32; 7];
        let mut rema: Vec<(usize, f64)> = Vec::with_capacity(7);
        let mut assigned = 0u32;
        for (i, &w) in norm.iter().enumerate() {
            let exact = w * SLABS as f64;
            counts[i] = exact.floor() as u32;
            assigned += counts[i];
            rema.push((i, exact - exact.floor()));
        }
        rema.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        let mut left = SLABS - assigned;
        for &(i, _) in rema.iter().cycle() {
            if left == 0 {
                break;
            }
            counts[i] += 1;
            left -= 1;
        }
        // Every ISP must own address space, however skewed the
        // shares: the commercial database covers all carriers. Take
        // slabs from the largest holder for any ISP apportioned zero.
        for i in 0..counts.len() {
            if counts[i] == 0 {
                let donor = (0..counts.len())
                    .max_by_key(|&j| counts[j])
                    .expect("non-empty");
                debug_assert!(counts[donor] > 1);
                counts[donor] -= 1;
                counts[i] += 1;
            }
        }
        // Deal slabs round-robin so each ISP's ranges interleave.
        let mut deck: Vec<Isp> = Vec::with_capacity(SLABS as usize);
        let mut remaining = counts;
        while deck.len() < SLABS as usize {
            for isp in Isp::ALL {
                if remaining[isp.index()] > 0 {
                    remaining[isp.index()] -= 1;
                    deck.push(isp);
                }
            }
        }
        let slab_size = (SPACE_END - SPACE_START) / SLABS;
        let ranges: Vec<(u32, u32, Isp)> = deck
            .into_iter()
            .enumerate()
            .map(|(k, isp)| {
                let start = SPACE_START + k as u32 * slab_size;
                (start, start + slab_size - 1, isp)
            })
            .collect();
        IspDatabase { ranges, shares }
    }

    /// The shares this database was built for.
    pub fn shares(&self) -> &IspShares {
        &self.shares
    }

    /// Maps an address to its ISP. Addresses outside every range
    /// (outside the synthetic window) map to [`Isp::Oversea`], the
    /// same catch-all the commercial database uses for foreign IPs.
    pub fn lookup(&self, addr: PeerAddr) -> Isp {
        let ip = addr.as_u32();
        match self.ranges.binary_search_by(|&(s, _, _)| s.cmp(&ip)) {
            Ok(i) => self.ranges[i].2,
            Err(0) => Isp::Oversea,
            Err(i) => {
                let (_, end, isp) = self.ranges[i - 1];
                if ip <= end {
                    isp
                } else {
                    Isp::Oversea
                }
            }
        }
    }

    /// The address ranges belonging to `isp`.
    pub fn ranges_of(&self, isp: Isp) -> Vec<(u32, u32)> {
        self.ranges
            .iter()
            .filter(|&&(_, _, i)| i == isp)
            .map(|&(s, e, _)| (s, e))
            .collect() // lint:allow(H2): at most 64 slabs per ISP, drawn once per join event
    }

    /// Creates an allocator of unique addresses over this database.
    ///
    /// The allocator owns a clone of the database (it is a handful of
    /// ranges), so it can outlive the borrow.
    pub fn allocator(&self) -> AddrAllocator {
        AddrAllocator {
            db: self.clone(),
            used: BTreeSet::new(),
        }
    }
}

impl Default for IspDatabase {
    fn default() -> Self {
        IspDatabase::synthetic(IspShares::default())
    }
}

/// Allocates unique peer addresses whose ISP marginal follows the
/// database shares.
#[derive(Debug, Clone)]
pub struct AddrAllocator {
    db: IspDatabase,
    used: BTreeSet<u32>,
}

impl AddrAllocator {
    /// Draws a fresh unique address; its ISP follows the configured
    /// shares.
    ///
    /// # Panics
    ///
    /// Panics if the chosen ISP's ranges are exhausted (practically
    /// impossible: each ISP owns millions of addresses).
    pub fn alloc<R: rand::Rng + ?Sized>(&mut self, rng: &mut R) -> PeerAddr {
        let weights = self.db.shares.normalized();
        let isp = Isp::ALL[weighted_index(rng, &weights)];
        self.alloc_in(rng, isp)
    }

    /// Draws a fresh unique address inside a specific ISP.
    ///
    /// # Panics
    ///
    /// Panics if the ISP has no ranges or they are exhausted.
    pub fn alloc_in<R: rand::Rng + ?Sized>(&mut self, rng: &mut R, isp: Isp) -> PeerAddr {
        let ranges = self.db.ranges_of(isp);
        assert!(!ranges.is_empty(), "no ranges for {isp}");
        for _ in 0..10_000 {
            let (s, e) = ranges[rng.random_range(0..ranges.len())];
            let ip = rng.random_range(s..=e);
            if self.used.insert(ip) {
                return PeerAddr::from_u32(ip);
            }
        }
        panic!("address space exhausted for {isp}");
    }

    /// How many addresses have been handed out.
    pub fn allocated(&self) -> usize {
        self.used.len()
    }

    /// Records an address as already handed out without drawing it.
    ///
    /// Checkpoint restore uses this to rebuild the allocator from the
    /// set of live addresses so that post-resume draws skip exactly
    /// the addresses an uninterrupted run would have skipped.
    pub fn mark_used(&mut self, addr: PeerAddr) {
        self.used.insert(addr.as_u32());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    #[test]
    fn shares_normalize_to_one() {
        let s = IspShares::default();
        let sum: f64 = s.normalized().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(s.share(Isp::Telecom) > s.share(Isp::Netcom));
        assert!(s.share(Isp::Netcom) > s.share(Isp::Unicom));
    }

    #[test]
    fn every_isp_gets_address_space() {
        let db = IspDatabase::default();
        for isp in Isp::ALL {
            assert!(!db.ranges_of(isp).is_empty(), "{isp} has no ranges");
        }
    }

    #[test]
    fn lookup_is_total_and_consistent_with_ranges() {
        let db = IspDatabase::default();
        for isp in Isp::ALL {
            for (s, e) in db.ranges_of(isp) {
                assert_eq!(db.lookup(PeerAddr::from_u32(s)), isp);
                assert_eq!(db.lookup(PeerAddr::from_u32(e)), isp);
                assert_eq!(db.lookup(PeerAddr::from_u32(s + (e - s) / 2)), isp);
            }
        }
    }

    #[test]
    fn out_of_window_addresses_are_oversea() {
        let db = IspDatabase::default();
        assert_eq!(db.lookup(PeerAddr::from_u32(0x0100_0000)), Isp::Oversea);
        assert_eq!(db.lookup(PeerAddr::from_u32(0xFF00_0000)), Isp::Oversea);
    }

    #[test]
    fn allocator_yields_unique_addresses() {
        let db = IspDatabase::default();
        let mut alloc = db.allocator();
        let mut rng = RngFactory::new(1).fork("alloc");
        let mut seen = BTreeSet::new();
        for _ in 0..5_000 {
            let a = alloc.alloc(&mut rng);
            assert!(seen.insert(a), "duplicate address {a}");
        }
        assert_eq!(alloc.allocated(), 5_000);
    }

    #[test]
    fn allocator_marginal_matches_shares() {
        let db = IspDatabase::default();
        let mut alloc = db.allocator();
        let mut rng = RngFactory::new(2).fork("alloc2");
        let n = 20_000;
        let mut counts = [0usize; 7];
        for _ in 0..n {
            let a = alloc.alloc(&mut rng);
            counts[db.lookup(a).index()] += 1;
        }
        let norm = db.shares().normalized();
        for isp in Isp::ALL {
            let got = counts[isp.index()] as f64 / n as f64;
            let want = norm[isp.index()];
            assert!(
                (got - want).abs() < 0.02,
                "{isp}: got {got:.3}, want {want:.3}"
            );
        }
    }

    #[test]
    fn alloc_in_respects_isp() {
        let db = IspDatabase::default();
        let mut alloc = db.allocator();
        let mut rng = RngFactory::new(3).fork("alloc3");
        for _ in 0..1_000 {
            let a = alloc.alloc_in(&mut rng, Isp::Edu);
            assert_eq!(db.lookup(a), Isp::Edu);
        }
    }

    #[test]
    fn china_flag() {
        assert!(Isp::Telecom.is_china());
        assert!(Isp::Edu.is_china());
        assert!(!Isp::Oversea.is_china());
    }

    #[test]
    fn display_names_match_figure_two() {
        assert_eq!(Isp::Telecom.to_string(), "China Telecom");
        assert_eq!(Isp::Oversea.to_string(), "Oversea ISPs");
    }

    #[test]
    fn peer_addr_roundtrip() {
        let a = PeerAddr::from_u32(0x0B01_0203);
        assert_eq!(a.as_u32(), 0x0B01_0203);
        assert_eq!(a.to_string(), "11.1.2.3");
        let b: PeerAddr = Ipv4Addr::new(11, 1, 2, 3).into();
        assert_eq!(a, b);
    }

    #[test]
    fn slab_interleaving_gives_each_isp_multiple_ranges() {
        let db = IspDatabase::default();
        // The big ISPs must own several non-contiguous slabs.
        assert!(db.ranges_of(Isp::Telecom).len() > 1);
        assert!(db.ranges_of(Isp::Netcom).len() > 1);
    }

    #[test]
    fn random_addresses_lookup_without_panicking() {
        let db = IspDatabase::default();
        let mut rng = RngFactory::new(4).fork("fuzz");
        for _ in 0..10_000 {
            let _ = db.lookup(PeerAddr::from_u32(rng.random_range(0..=u32::MAX)));
        }
    }
}
