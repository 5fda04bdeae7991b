//! Per-peer protocol state: partner table, buffer occupancy,
//! throughput accounting, supplier selection, and report assembly.

use crate::config::SimConfig;
use magellan_netsim::{Isp, LinkQuality, PeerAddr, PeerCapacity, SimTime};
use magellan_trace::{BufferMap, PartnerRecord, PeerReport};
use magellan_workload::ChannelId;
use rand::RngExt as _;
use std::fmt;
use std::ops::Index;

/// Dense identifier of a peer within one [`crate::OverlaySim`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u32);

impl PeerId {
    /// Index into the simulator's peer slab.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One entry of a peer's partner table.
#[derive(Debug, Clone)]
pub struct PartnerLink {
    /// Sampled path quality toward this partner.
    pub quality: LinkQuality,
    /// Whether this partner is currently in our supplier set (we
    /// request blocks from it).
    pub supplier: bool,
    /// EWMA estimate of the receive throughput from this partner
    /// (Kbps), seeded from the measured path ceiling — the protocol
    /// "measures the round-trip delay and TCP throughput of the
    /// connection".
    pub est_recv_kbps: f64,
    /// Segments sent to this partner since the last report.
    pub sent_interval: u64,
    /// Segments received from this partner since the last report.
    pub recv_interval: u64,
    /// When the connection was established.
    pub since: SimTime,
    /// Consecutive maintenance ticks this partner has been silent
    /// (its peer slot is gone — a crash or departure we were never
    /// told about). At `SimConfig::partner_timeout_ticks` the link is
    /// declared dead and removed; the delay models transfer-timeout
    /// discovery, since crashed peers send no leave message.
    pub stale_ticks: u32,
}

impl PartnerLink {
    /// The supplier-selection score: expected goodput discounted by
    /// latency (long RTTs hurt block scheduling in a sliding window).
    pub fn score(&self) -> f64 {
        self.est_recv_kbps / (1.0 + self.quality.rtt_ms / 200.0)
    }
}

/// A peer's partner table: one flat array of links, kept sorted by
/// ascending partner id.
///
/// Ascending iteration is the contract the rest of the crate relies
/// on: the transfer engine merge-walks tables against its flow arena,
/// reports and checkpoints list partners in id order, and gossip picks
/// its recommender by position. Lookup is a binary search; insert and
/// remove shift the tail, which is cheap at the partner cap and keeps
/// a whole table in one allocation.
#[derive(Clone, Default)]
pub struct PartnerTable {
    entries: Vec<(PeerId, PartnerLink)>,
}

impl PartnerTable {
    fn find(&self, id: &PeerId) -> Result<usize, usize> {
        // A joiner takes the largest id yet, so the links a join adds
        // to existing tables all land at the end: check there first.
        match self.entries.last() {
            None => Err(0),
            Some((last, _)) if last < id => Err(self.entries.len()),
            _ => self.entries.binary_search_by(|(k, _)| k.cmp(id)),
        }
    }

    /// Number of partners.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no partners.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `id` is a partner.
    pub fn contains_key(&self, id: &PeerId) -> bool {
        self.find(id).is_ok()
    }

    /// The link to `id`, if it is a partner.
    pub fn get(&self, id: &PeerId) -> Option<&PartnerLink> {
        let i = self.find(id).ok()?;
        Some(&self.entries[i].1)
    }

    /// The mutable link to `id`, if it is a partner.
    pub fn get_mut(&mut self, id: &PeerId) -> Option<&mut PartnerLink> {
        let i = self.find(id).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// Inserts or replaces the link to `id`, returning the replaced
    /// link.
    pub fn insert(&mut self, id: PeerId, link: PartnerLink) -> Option<PartnerLink> {
        match self.find(&id) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, link)),
            Err(i) => {
                self.entries.insert(i, (id, link));
                None
            }
        }
    }

    /// Removes the link to `id`, returning it.
    pub fn remove(&mut self, id: &PeerId) -> Option<PartnerLink> {
        let i = self.find(id).ok()?;
        Some(self.entries.remove(i).1)
    }

    /// The partner at position `k` in ascending id order.
    pub fn key_at(&self, k: usize) -> Option<PeerId> {
        self.entries.get(k).map(|&(id, _)| id)
    }

    /// Links in ascending partner-id order.
    pub fn iter(&self) -> impl Iterator<Item = (&PeerId, &PartnerLink)> {
        self.entries.iter().map(|(id, l)| (id, l))
    }

    /// Mutable links in ascending partner-id order (ids stay fixed).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&PeerId, &mut PartnerLink)> {
        self.entries.iter_mut().map(|(id, l)| (&*id, l))
    }

    /// Partner ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &PeerId> {
        self.entries.iter().map(|(id, _)| id)
    }

    /// Mutable links in ascending partner-id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut PartnerLink> {
        self.entries.iter_mut().map(|(_, l)| l)
    }
}

/// Prints as a map, like the `BTreeMap` it stands in for.
impl fmt::Debug for PartnerTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Index<&PeerId> for PartnerTable {
    type Output = PartnerLink;

    /// # Panics
    ///
    /// Panics if `id` is not a partner.
    fn index(&self, id: &PeerId) -> &PartnerLink {
        // lint:allow(C1): indexing a missing key is a caller bug, as with `BTreeMap`
        self.get(id).expect("no partner link for this id")
    }
}

/// The full state of one online peer (or streaming server).
#[derive(Debug, Clone)]
pub struct PeerState {
    /// Network identity.
    pub addr: PeerAddr,
    /// ISP (used by analysis only — the protocol never reads it).
    pub isp: Isp,
    /// Access capacities.
    pub capacity: PeerCapacity,
    /// Channel being watched (or served).
    pub channel: ChannelId,
    /// Join instant.
    pub joined: SimTime,
    /// Scheduled departure.
    pub leaves: SimTime,
    /// Whether this is a streaming server (content origin: buffer
    /// always full, never leaves, never reports).
    pub is_server: bool,
    /// Partner table.
    pub partners: PartnerTable,
    /// Buffer occupancy: fraction of the sliding window held.
    pub buffer_fill: f64,
    /// Aggregate receive throughput last tick (Kbps).
    pub recv_kbps: f64,
    /// Aggregate send throughput last tick (Kbps).
    pub send_kbps: f64,
    /// Consecutive ticks with upload utilization below the volunteer
    /// threshold.
    pub underused_ticks: u32,
    /// Consecutive ticks with receive rate below the fallback
    /// threshold.
    pub starved_ticks: u32,
    /// Whether the peer is currently on the tracker's volunteer list.
    pub volunteered: bool,
    /// Next report due (none for servers).
    pub next_report: Option<SimTime>,
    /// Failed bootstrap attempts so far (tracker unreachable); drives
    /// the capped exponential retry backoff.
    pub bootstrap_attempts: u32,
    /// Earliest tick index at which the next bootstrap retry may run
    /// (0 = no retry pending).
    pub next_bootstrap_tick: u64,
}

impl PeerState {
    /// Creates a fresh ordinary peer.
    pub fn new_peer(
        addr: PeerAddr,
        isp: Isp,
        capacity: PeerCapacity,
        channel: ChannelId,
        joined: SimTime,
        leaves: SimTime,
    ) -> Self {
        PeerState {
            addr,
            isp,
            capacity,
            channel,
            joined,
            leaves,
            is_server: false,
            partners: PartnerTable::default(),
            buffer_fill: 0.0,
            recv_kbps: 0.0,
            send_kbps: 0.0,
            underused_ticks: 0,
            starved_ticks: 0,
            volunteered: false,
            next_report: Some(joined + magellan_trace::FIRST_REPORT_DELAY),
            bootstrap_attempts: 0,
            next_bootstrap_tick: 0,
        }
    }

    /// Creates a streaming server for `channel`.
    pub fn new_server(
        addr: PeerAddr,
        isp: Isp,
        up_kbps: f64,
        channel: ChannelId,
        now: SimTime,
        horizon: SimTime,
    ) -> Self {
        PeerState {
            addr,
            isp,
            capacity: PeerCapacity {
                down_kbps: up_kbps,
                up_kbps,
                class: magellan_netsim::AccessClass::Campus,
            },
            channel,
            joined: now,
            leaves: horizon,
            is_server: true,
            partners: PartnerTable::default(),
            buffer_fill: 1.0,
            recv_kbps: 0.0,
            send_kbps: 0.0,
            underused_ticks: 0,
            starved_ticks: 0,
            volunteered: false,
            next_report: None,
            bootstrap_attempts: 0,
            next_bootstrap_tick: 0,
        }
    }

    /// Adds a partner connection (no-op if already present). Returns
    /// whether it was new.
    pub fn add_partner(&mut self, id: PeerId, quality: LinkQuality, now: SimTime) -> bool {
        if self.partners.contains_key(&id) {
            return false;
        }
        self.partners.insert(
            id,
            PartnerLink {
                quality,
                supplier: false,
                est_recv_kbps: quality.bandwidth_kbps,
                sent_interval: 0,
                recv_interval: 0,
                since: now,
                stale_ticks: 0,
            },
        );
        true
    }

    /// Removes a partner (e.g. it departed).
    pub fn remove_partner(&mut self, id: PeerId) {
        self.partners.remove(&id);
    }

    /// Current supplier ids.
    pub fn suppliers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.partners
            .iter()
            .filter(|(_, l)| l.supplier)
            .map(|(&id, _)| id)
    }

    /// Re-selects the supplier set: the `target` best-scoring
    /// partners (or a uniformly random subset under the
    /// `random_selection` ablation).
    ///
    /// Servers never select suppliers.
    pub fn select_suppliers<R: rand::Rng + ?Sized>(
        &mut self,
        target: usize,
        random_selection: bool,
        rng: &mut R,
    ) {
        if self.is_server {
            return;
        }
        let mut scored: Vec<(PeerId, f64)> = self
            .partners
            .iter()
            .map(|(&id, l)| (id, l.score()))
            .collect(); // lint:allow(H2): scores this peer's own partner table, capped by the partner limit
        let n = scored.len();
        let k = n.min(target);
        if random_selection {
            // Fisher–Yates prefix shuffle.
            for i in 0..k {
                let j = rng.random_range(i..n);
                scored.swap(i, j);
            }
        } else if k < n {
            // Only the set of the `k` best counts, so a linear-time
            // selection stands in for a sort; ids break score ties, so
            // the set is the one a sort would pick.
            scored.select_nth_unstable_by(k, |a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        let chosen = &mut scored[..k];
        chosen.sort_unstable_by_key(|&(id, _)| id);
        let mut chosen = chosen.iter().map(|&(id, _)| id).peekable();
        for (id, link) in self.partners.iter_mut() {
            link.supplier = chosen.next_if_eq(id).is_some();
        }
    }

    /// Prunes the partner table down to `max` entries, dropping the
    /// lowest-scoring non-supplier links first.
    pub fn prune_partners(&mut self, max: usize) {
        if self.partners.len() <= max {
            return;
        }
        let mut victims: Vec<(PeerId, f64)> = self
            .partners
            .iter()
            .filter(|(_, l)| !l.supplier)
            .map(|(&id, l)| (id, l.score()))
            .collect(); // lint:allow(H2): victim list over the capped partner table, only when over the cap
        let excess = self.partners.len() - max;
        if excess < victims.len() {
            // The `excess` worst, as a sort would order them (ids
            // break score ties).
            victims.select_nth_unstable_by(excess, |a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        }
        for (id, _) in victims.iter().take(excess) {
            self.partners.remove(id);
        }
    }

    /// Upload utilization over the last tick.
    pub fn upload_utilization(&self) -> f64 {
        if self.capacity.up_kbps <= 0.0 {
            return 1.0;
        }
        (self.send_kbps / self.capacity.up_kbps).min(1.0)
    }

    /// Assembles the §3.2 report at `now` and resets the per-interval
    /// segment counters. `resolve` maps partner ids to their IP
    /// addresses (the simulator owns that mapping).
    ///
    /// The bitmap is synthesized from the scalar occupancy (the
    /// simulator tracks fill, not individual segments): the window
    /// holds the leading `fill × len` segments. Analyses consume only
    /// the fill level.
    pub fn build_report<F>(&mut self, now: SimTime, window_segments: u32, resolve: F) -> PeerReport
    where
        F: Fn(PeerId) -> PeerAddr,
    {
        let len = window_segments.min(u16::MAX as u32) as u16;
        let held = (self.buffer_fill * len as f64).round() as u64;
        let start = now.as_millis() / 200; // 5 segments/s stream position
        let mut bm = BufferMap::new(start, len);
        for s in 0..held.min(len as u64) {
            bm.set(start + s);
        }
        let partners: Vec<PartnerRecord> = self
            .partners
            .iter()
            .map(|(id, l)| PartnerRecord {
                addr: resolve(*id),
                tcp_port: 16_800 + (id.0 % 1_000) as u16,
                udp_port: 26_800 + (id.0 % 1_000) as u16,
                segments_sent: l.sent_interval,
                segments_received: l.recv_interval,
            })
            .collect(); // lint:allow(H2): a report lists this peer's own capped partner table
        for l in self.partners.values_mut() {
            l.sent_interval = 0;
            l.recv_interval = 0;
        }
        PeerReport {
            time: now,
            addr: self.addr,
            channel: self.channel,
            buffer_map: bm,
            download_capacity_kbps: self.capacity.down_kbps,
            upload_capacity_kbps: self.capacity.up_kbps,
            recv_throughput_kbps: self.recv_kbps,
            send_throughput_kbps: self.send_kbps,
            partners,
        }
    }

    /// Per-tick demand in segments: refill the window gap plus keep
    /// up with the stream, bounded by download capacity.
    pub fn demand_segments(&self, cfg: &SimConfig, rate_kbps: f64) -> f64 {
        if self.is_server {
            return 0.0;
        }
        let gap = (1.0 - self.buffer_fill) * cfg.window_segments as f64;
        let stream = cfg.stream_segments_per_tick(rate_kbps);
        (gap + stream).min(cfg.capacity_segments_per_tick(self.capacity.down_kbps))
    }

    /// Applies one tick's received segments: updates occupancy and
    /// the receive rate.
    ///
    /// A tick (minutes) is much longer than the sliding window
    /// (seconds), so the window turns over many times per tick and
    /// occupancy is governed by the *ratio* of delivery rate to
    /// stream rate: a peer receiving the full stream rate converges
    /// to a full window, one receiving half the rate to a half-full
    /// window. A geometric blend keeps a one-tick memory.
    pub fn apply_tick_delivery(&mut self, cfg: &SimConfig, rate_kbps: f64, delivered: f64) {
        if self.is_server {
            return;
        }
        let stream = cfg.stream_segments_per_tick(rate_kbps).max(1e-9);
        let ratio = (delivered / stream).min(1.0);
        self.buffer_fill = (0.25 * self.buffer_fill + 0.75 * ratio).clamp(0.0, 1.0);
        self.recv_kbps = cfg.segments_to_kbps(delivered).min(rate_kbps * 1.5);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_netsim::{AccessClass, RngFactory};

    fn quality(bw: f64, rtt: f64) -> LinkQuality {
        LinkQuality {
            rtt_ms: rtt,
            bandwidth_kbps: bw,
        }
    }

    fn peer() -> PeerState {
        PeerState::new_peer(
            PeerAddr::from_u32(1),
            Isp::Telecom,
            PeerCapacity {
                down_kbps: 2_000.0,
                up_kbps: 512.0,
                class: AccessClass::Adsl,
            },
            ChannelId::CCTV1,
            SimTime::ORIGIN,
            SimTime::at(0, 2, 0),
        )
    }

    /// A link whose `sent_interval` tags it, for identity checks.
    fn tagged(tag: u64) -> PartnerLink {
        PartnerLink {
            quality: quality(100.0, 10.0),
            supplier: false,
            est_recv_kbps: 100.0,
            sent_interval: tag,
            recv_interval: 0,
            since: SimTime::ORIGIN,
            stale_ticks: 0,
        }
    }

    fn tags(t: &PartnerTable) -> Vec<(u32, u64)> {
        t.iter().map(|(id, l)| (id.0, l.sent_interval)).collect()
    }

    #[test]
    fn partner_table_keeps_ids_ascending() {
        let mut t = PartnerTable::default();
        assert!(t.is_empty());
        for id in [7, 2, 9, 4, 0] {
            assert!(t.insert(PeerId(id), tagged(u64::from(id))).is_none());
        }
        assert_eq!(tags(&t), vec![(0, 0), (2, 2), (4, 4), (7, 7), (9, 9)]);
        assert_eq!(t.keys().map(|id| id.0).collect::<Vec<_>>(), [0, 2, 4, 7, 9]);
        assert_eq!(t.len(), 5);
        assert_eq!(t.key_at(3), Some(PeerId(7)));
        assert_eq!(t.key_at(5), None);
        // Replacing keeps the position and returns the old link.
        let old = t.insert(PeerId(4), tagged(40)).expect("4 was present");
        assert_eq!(old.sent_interval, 4);
        assert_eq!(t[&PeerId(4)].sent_interval, 40);
        assert_eq!(t.remove(&PeerId(2)).map(|l| l.sent_interval), Some(2));
        assert!(t.remove(&PeerId(2)).is_none());
        assert!(!t.contains_key(&PeerId(2)) && t.contains_key(&PeerId(9)));
        for l in t.values_mut() {
            l.recv_interval = 1;
        }
        for (id, l) in t.iter_mut() {
            l.sent_interval += u64::from(id.0);
        }
        assert_eq!(tags(&t), vec![(0, 0), (4, 44), (7, 14), (9, 18)]);
        assert!(t.iter().all(|(_, l)| l.recv_interval == 1));
        // Debug output reads like the map it replaces.
        assert!(format!("{t:?}").starts_with("{PeerId(0): PartnerLink {"));
    }

    #[test]
    #[should_panic(expected = "no partner link")]
    fn partner_table_index_panics_on_a_missing_id() {
        let t = PartnerTable::default();
        let _ = &t[&PeerId(1)];
    }

    /// Random insert/remove/`get_mut` sequences agree with a
    /// `BTreeMap` model at every step: same entries in the same
    /// order, same return values, same positional lookups.
    #[test]
    fn partner_table_matches_a_btreemap_model() {
        use std::collections::BTreeMap;
        for seed in 0..64 {
            let mut rng = RngFactory::new(seed).fork("partner-table-model");
            let mut table = PartnerTable::default();
            let mut model: BTreeMap<PeerId, PartnerLink> = BTreeMap::new();
            let span = 1 + seed as u32 % 48;
            for step in 0..400u64 {
                let id = PeerId(rng.random_range(0..span));
                match rng.random_range(0..4u32) {
                    0 | 1 => {
                        let got = table.insert(id, tagged(step)).map(|l| l.sent_interval);
                        let want = model.insert(id, tagged(step)).map(|l| l.sent_interval);
                        assert_eq!(got, want, "insert {id:?} (seed {seed})");
                    }
                    2 => {
                        let got = table.remove(&id).map(|l| l.sent_interval);
                        let want = model.remove(&id).map(|l| l.sent_interval);
                        assert_eq!(got, want, "remove {id:?} (seed {seed})");
                    }
                    _ => {
                        if let Some(l) = table.get_mut(&id) {
                            l.recv_interval += step;
                        }
                        if let Some(l) = model.get_mut(&id) {
                            l.recv_interval += step;
                        }
                    }
                }
                assert_eq!(table.len(), model.len());
                assert_eq!(table.contains_key(&id), model.contains_key(&id));
                assert_eq!(
                    table.get(&id).map(|l| l.sent_interval),
                    model.get(&id).map(|l| l.sent_interval)
                );
                let got: Vec<(u32, u64, u64)> = table
                    .iter()
                    .map(|(k, l)| (k.0, l.sent_interval, l.recv_interval))
                    .collect();
                let want: Vec<(u32, u64, u64)> = model
                    .iter()
                    .map(|(k, l)| (k.0, l.sent_interval, l.recv_interval))
                    .collect();
                assert_eq!(got, want, "seed {seed} step {step}");
                if !model.is_empty() {
                    let k = rng.random_range(0..model.len());
                    assert_eq!(table.key_at(k), model.keys().nth(k).copied());
                }
            }
        }
    }

    #[test]
    fn new_peer_schedules_first_report_after_twenty_minutes() {
        let p = peer();
        assert_eq!(
            p.next_report,
            Some(SimTime::ORIGIN + magellan_trace::FIRST_REPORT_DELAY)
        );
        assert!(!p.is_server);
        assert_eq!(p.buffer_fill, 0.0);
    }

    #[test]
    fn server_never_reports_and_is_full() {
        let s = PeerState::new_server(
            PeerAddr::from_u32(9),
            Isp::Telecom,
            10_000.0,
            ChannelId::CCTV1,
            SimTime::ORIGIN,
            SimTime::at(14, 0, 0),
        );
        assert!(s.is_server);
        assert_eq!(s.next_report, None);
        assert_eq!(s.buffer_fill, 1.0);
    }

    #[test]
    fn add_partner_is_idempotent() {
        let mut p = peer();
        assert!(p.add_partner(PeerId(5), quality(800.0, 30.0), SimTime::ORIGIN));
        assert!(!p.add_partner(PeerId(5), quality(100.0, 99.0), SimTime::ORIGIN));
        assert_eq!(p.partners.len(), 1);
        // Original quality retained.
        assert!((p.partners[&PeerId(5)].quality.bandwidth_kbps - 800.0).abs() < 1e-9);
    }

    #[test]
    fn selection_prefers_high_scores() {
        let mut p = peer();
        p.add_partner(PeerId(1), quality(1_500.0, 20.0), SimTime::ORIGIN);
        p.add_partner(PeerId(2), quality(100.0, 300.0), SimTime::ORIGIN);
        p.add_partner(PeerId(3), quality(900.0, 25.0), SimTime::ORIGIN);
        let mut rng = RngFactory::new(1).fork("sel");
        p.select_suppliers(2, false, &mut rng);
        let mut sel: Vec<u32> = p.suppliers().map(|i| i.0).collect();
        sel.sort();
        assert_eq!(sel, vec![1, 3]);
    }

    #[test]
    fn selection_caps_at_target() {
        let mut p = peer();
        for i in 0..50 {
            p.add_partner(PeerId(i), quality(500.0, 50.0), SimTime::ORIGIN);
        }
        let mut rng = RngFactory::new(2).fork("sel");
        p.select_suppliers(30, false, &mut rng);
        assert_eq!(p.suppliers().count(), 30);
    }

    #[test]
    fn random_selection_is_isp_blind_and_sized() {
        let mut p = peer();
        for i in 0..40 {
            p.add_partner(PeerId(i), quality(i as f64 * 10.0, 30.0), SimTime::ORIGIN);
        }
        let mut rng = RngFactory::new(3).fork("sel");
        p.select_suppliers(10, true, &mut rng);
        assert_eq!(p.suppliers().count(), 10);
    }

    #[test]
    fn servers_do_not_select() {
        let mut s = PeerState::new_server(
            PeerAddr::from_u32(9),
            Isp::Telecom,
            10_000.0,
            ChannelId::CCTV1,
            SimTime::ORIGIN,
            SimTime::at(14, 0, 0),
        );
        s.add_partner(PeerId(1), quality(1_000.0, 10.0), SimTime::ORIGIN);
        let mut rng = RngFactory::new(4).fork("sel");
        s.select_suppliers(30, false, &mut rng);
        assert_eq!(s.suppliers().count(), 0);
    }

    #[test]
    fn prune_keeps_suppliers_and_best() {
        let mut p = peer();
        for i in 0..10 {
            p.add_partner(PeerId(i), quality(100.0 * i as f64, 30.0), SimTime::ORIGIN);
        }
        let mut rng = RngFactory::new(5).fork("sel");
        p.select_suppliers(3, false, &mut rng);
        p.prune_partners(5);
        assert_eq!(p.partners.len(), 5);
        // All 3 suppliers survive.
        assert_eq!(p.suppliers().count(), 3);
    }

    #[test]
    fn report_resets_interval_counters() {
        let mut p = peer();
        p.add_partner(PeerId(2), quality(800.0, 40.0), SimTime::ORIGIN);
        p.partners.get_mut(&PeerId(2)).unwrap().sent_interval = 42;
        p.partners.get_mut(&PeerId(2)).unwrap().recv_interval = 17;
        let r = p.build_report(SimTime::at(0, 0, 30), 150, |id| {
            PeerAddr::from_u32(id.0 + 100)
        });
        assert_eq!(r.partners.len(), 1);
        assert_eq!(r.partners[0].addr, PeerAddr::from_u32(102));
        assert_eq!(r.partners[0].segments_sent, 42);
        assert_eq!(r.partners[0].segments_received, 17);
        let l = &p.partners[&PeerId(2)];
        assert_eq!(l.sent_interval, 0);
        assert_eq!(l.recv_interval, 0);
    }

    #[test]
    fn report_bitmap_reflects_fill() {
        let mut p = peer();
        p.buffer_fill = 0.5;
        let r = p.build_report(SimTime::at(0, 1, 0), 100, |id| PeerAddr::from_u32(id.0));
        assert!((r.buffer_map.fill_fraction() - 0.5).abs() < 0.02);
    }

    #[test]
    fn demand_shrinks_as_buffer_fills() {
        let cfg = SimConfig::default();
        let mut p = peer();
        let hungry = p.demand_segments(&cfg, 400.0);
        p.buffer_fill = 1.0;
        let sated = p.demand_segments(&cfg, 400.0);
        assert!(hungry > sated);
        // A full buffer still needs the stream advance.
        assert!((sated - cfg.stream_segments_per_tick(400.0)).abs() < 1e-9);
    }

    #[test]
    fn demand_is_capped_by_download_capacity() {
        let cfg = SimConfig::default();
        let mut p = peer();
        p.capacity.down_kbps = 100.0; // can't even sustain the stream
        let d = p.demand_segments(&cfg, 400.0);
        assert!((d - cfg.capacity_segments_per_tick(100.0)).abs() < 1e-9);
    }

    #[test]
    fn delivery_raises_fill_and_sets_rate() {
        let cfg = SimConfig::default();
        let mut p = peer();
        let stream = cfg.stream_segments_per_tick(400.0);
        p.apply_tick_delivery(&cfg, 400.0, stream);
        assert!((p.recv_kbps - 400.0).abs() < 1e-9);
        assert!(p.buffer_fill > 0.0);
    }

    #[test]
    fn starved_peer_fill_decays() {
        let cfg = SimConfig::default();
        let mut p = peer();
        p.buffer_fill = 0.8;
        p.apply_tick_delivery(&cfg, 400.0, 0.0);
        assert!(p.buffer_fill < 0.8);
        assert_eq!(p.recv_kbps, 0.0);
    }

    #[test]
    fn utilization_bounds() {
        let mut p = peer();
        p.send_kbps = 256.0;
        assert!((p.upload_utilization() - 0.5).abs() < 1e-9);
        p.send_kbps = 10_000.0;
        assert_eq!(p.upload_utilization(), 1.0);
    }

    #[test]
    fn score_penalizes_rtt() {
        let near = PartnerLink {
            quality: quality(500.0, 20.0),
            supplier: false,
            est_recv_kbps: 500.0,
            sent_interval: 0,
            recv_interval: 0,
            since: SimTime::ORIGIN,
            stale_ticks: 0,
        };
        let far = PartnerLink {
            quality: quality(500.0, 400.0),
            supplier: false,
            est_recv_kbps: 500.0,
            sent_interval: 0,
            recv_interval: 0,
            since: SimTime::ORIGIN,
            stale_ticks: 0,
        };
        assert!(near.score() > far.score());
    }
}
