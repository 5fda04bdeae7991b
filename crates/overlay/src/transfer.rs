//! The per-tick block-transfer engine.
//!
//! Every tick, each peer requests segments from its selected
//! suppliers in proportion to their estimated goodput; each supplier
//! splits its upload budget over the requests it received; each
//! directed flow is further capped by the sampled path ceiling and
//! discounted by the supplier's buffer occupancy (a peer can only
//! forward what it holds — servers hold everything). The outcome
//! updates receive/send rates, buffer occupancy, per-link EWMA
//! estimates, and the per-interval segment counters that end up in
//! trace reports.
//!
//! Reciprocity is emergent: two mid-stream peers both hold partial,
//! complementary windows, so flows run in both directions; a freshly
//! joined peer (empty buffer) can receive but not yet supply.

use crate::config::SimConfig;
use crate::error::TransferError;
use crate::peer::{PeerId, PeerState};
use magellan_workload::ChannelId;

/// Aggregate outcome of one tick, for instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TickOutcome {
    /// Total segments moved.
    pub segments: f64,
    /// Number of directed flows that moved at least one segment.
    pub active_flows: usize,
    /// Number of receivers that met their full demand.
    pub satisfied_receivers: usize,
    /// Number of receivers processed.
    pub receivers: usize,
    /// Supplier links skipped because the underlay path was severed
    /// (an active inter-ISP partition).
    pub blocked_flows: usize,
}

/// One receiver→supplier request channel. `sup` is the supplier's
/// slab id and `si` its rank in the live list, which indexes the
/// tick's per-supplier arrays. `want` holds the static allocation
/// weight; `cap` the remaining path capacity (segments).
struct Flow {
    sup: u32,
    si: u32,
    rcv: u32,
    want: f64,
    cap: f64,
}

/// A receiver's unmet demand and its request-channel range in the
/// tick's flattened flow arena (one allocation for the whole tick
/// instead of one `Vec` per receiver).
struct RecvCtx {
    rcv: u32,
    demand: f64,
    lo: u32,
    hi: u32,
}

/// Rank of a listed slot that turns out to be empty.
const NOT_LIVE: u32 = u32::MAX;

/// The slab-indexed memory of [`run_tick`], owned by the caller and
/// reused across ticks, so a tick allocates nothing in proportion to
/// the slab.
///
/// It maps a slab id to the slot's rank in the live list, which
/// indexes every per-supplier array of the tick. Each tick rewrites
/// the ranks of the live slots only, so an id is live exactly when
/// `live[rank[id]] == id`: a departed slot's stale rank points past
/// the list or at another id.
#[derive(Debug, Default)]
pub struct TransferScratch {
    rank: Vec<u32>,
}

/// Runs one transfer tick over the live peers of the slab.
///
/// `live` lists the occupied slots of `peers` in ascending order (it
/// must be ascending; the simulator passes its live index). Only
/// listed slots take part — as receivers or as suppliers — so a tick
/// costs O(live peers + flows) however many slots departed peers left
/// behind. Listed slots that are empty are skipped; links to dead
/// peers contribute nothing (the simulator purges them separately).
/// `scratch` is reused from tick to tick.
///
/// `rate_of` maps a channel to its stream rate in Kbps, returning
/// `None` for channels it does not know. `link_open` answers whether
/// the underlay path between a receiver's ISP and a supplier's ISP is
/// currently open — an active inter-ISP partition closes it, and
/// closed links carry no segments this tick (counted in
/// [`TickOutcome::blocked_flows`]).
///
/// # Errors
///
/// Fails when a live peer is tuned to an unknown channel or a channel
/// reports a non-finite / non-positive stream rate — both mean the
/// caller's rate table is inconsistent with the peer slab, and any
/// output computed from it would be garbage.
pub fn run_tick<F, L>(
    peers: &mut [Option<PeerState>],
    live: &[u32],
    scratch: &mut TransferScratch,
    rate_of: F,
    link_open: L,
    cfg: &SimConfig,
) -> Result<TickOutcome, TransferError>
where
    F: Fn(ChannelId) -> Option<f64>,
    L: Fn(magellan_netsim::Isp, magellan_netsim::Isp) -> bool,
{
    let rate_of = |ch: ChannelId| -> Result<f64, TransferError> {
        let rate = rate_of(ch).ok_or(TransferError::UnknownChannel(ch))?;
        if !rate.is_finite() || rate <= 0.0 {
            return Err(TransferError::InvalidRate {
                channel: ch,
                rate_kbps: rate,
            });
        }
        Ok(rate)
    };
    // Per-supplier state lives in dense arrays indexed by live rank,
    // which every flow carries: the request/grant rounds below touch
    // each entry many times per tick, so O(1) indexing replaces the
    // tree walks that used to dominate the tick. One ascending walk
    // of the live slots fills them, so pass A reads these small
    // arrays instead of chasing each supplier's slab slot.
    let rank = &mut scratch.rank;
    if rank.len() < peers.len() {
        rank.resize(peers.len(), NOT_LIVE);
    }
    let mut sup_isp = Vec::with_capacity(live.len());
    let mut advertised = Vec::with_capacity(live.len());
    let mut budget_left = Vec::with_capacity(live.len());
    let mut useful = Vec::with_capacity(live.len());
    for (r, &j) in live.iter().enumerate() {
        let Some(p) = peers[j as usize].as_ref() else {
            rank[j as usize] = NOT_LIVE;
            sup_isp.push(magellan_netsim::Isp::Telecom);
            advertised.push(0.0);
            budget_left.push(0.0);
            useful.push(0.0);
            continue;
        };
        rank[j as usize] = r as u32;
        sup_isp.push(p.isp);
        advertised.push(if p.is_server { 1.0 } else { p.buffer_fill });
        budget_left.push(cfg.capacity_segments_per_tick(p.capacity.up_kbps));
        // Receivers aim requests at advertised segments, so delivery
        // is not discounted linearly in occupancy; what remains is
        // the holdings/missing overlap, which only collapses for
        // badly under-filled suppliers — a square root captures that
        // (q=0.25 → 0.5).
        useful.push(if p.is_server {
            1.0
        } else {
            p.buffer_fill.max(0.0).sqrt()
        });
    }

    // Pass A: per-receiver context (demand plus eligible supplier
    // links).
    //
    // Request weights combine the link's goodput estimate with the
    // supplier's advertised buffer occupancy — peers exchange buffer
    // maps periodically (§3.1), so they know who actually holds
    // useful segments. A small floor keeps exploring partners whose
    // buffers are still filling.
    let mut flows: Vec<Flow> = Vec::new();
    let mut recvs: Vec<RecvCtx> = Vec::new();
    let mut blocked_flows = 0usize;
    for &j in live {
        let Some(p) = peers[j as usize].as_ref() else {
            continue;
        };
        if p.is_server {
            continue;
        }
        let rate = rate_of(p.channel)?;
        let demand = p.demand_segments(cfg, rate);
        if demand <= 0.0 {
            continue;
        }
        let lo = flows.len();
        for (&id, l) in p.partners.iter().filter(|(_, l)| l.supplier) {
            let si = match rank.get(id.index()) {
                Some(&r) if live.get(r as usize) == Some(&id.0) => r,
                _ => continue, // a dead supplier
            };
            if !link_open(p.isp, sup_isp[si as usize]) {
                blocked_flows += 1;
                continue;
            }
            let advertised = advertised[si as usize];
            // Raising the weight to `request_concentration`
            // concentrates requests on the few best partners, as
            // a real block scheduler does — this is what keeps
            // the *active* indegree (Fig. 4B) far below the ~30
            // requested partners. Under the `random_selection`
            // ablation the measured-quality term is dropped
            // entirely (only content availability steers
            // requests), so the ablation removes *all* bandwidth
            // awareness, not just the supplier-set choice.
            let w = if cfg.random_selection {
                advertised.max(0.02)
            } else {
                (l.score() * advertised.max(0.02)).max(1e-3)
            };
            flows.push(Flow {
                sup: id.0,
                si,
                rcv: j,
                want: w.powf(cfg.request_concentration),
                cap: cfg.capacity_segments_per_tick(l.quality.bandwidth_kbps),
            });
        }
        if flows.len() == lo {
            continue;
        }
        recvs.push(RecvCtx {
            rcv: j,
            demand,
            lo: lo as u32,
            hi: flows.len() as u32,
        });
    }

    let mut outcome = TickOutcome {
        receivers: recvs.len(),
        blocked_flows,
        ..TickOutcome::default()
    };

    // Passes B/C: iterative request/grant rounds. A tick spans
    // hundreds of real request cycles, so receivers re-aim unmet
    // demand at suppliers that still have budget — a few rounds of
    // proportional waterfilling approximate that.
    const ROUNDS: usize = 3;
    // Per-link delivery totals, parallel to `flows`. Each (supplier,
    // receiver) pair owns exactly one arena entry, so accumulating
    // here sums a link's increments in arrival order — the same order
    // a keyed map's entry API produced, hence identical float totals.
    let mut flow_moved = vec![0.0f64; flows.len()];
    let mut requested = vec![0.0f64; live.len()];
    let mut scale = vec![0.0f64; live.len()];
    let mut round_flows: Vec<(u32, u32, f64)> = Vec::new();
    for _ in 0..ROUNDS {
        requested.fill(0.0);
        round_flows.clear();
        for (ri, rc) in recvs.iter().enumerate() {
            if rc.demand <= 1e-6 {
                continue;
            }
            let links = &flows[rc.lo as usize..rc.hi as usize];
            let eligible = |l: &Flow| l.cap > 1e-9 && budget_left[l.si as usize] > 1e-9;
            let tw: f64 = links.iter().filter(|l| eligible(l)).map(|l| l.want).sum();
            if tw <= 0.0 {
                continue;
            }
            for (off, l) in links.iter().enumerate() {
                if !eligible(l) {
                    continue;
                }
                let ask = rc.demand * l.want / tw;
                if ask <= 1e-9 {
                    continue;
                }
                requested[l.si as usize] += ask;
                round_flows.push((ri as u32, rc.lo + off as u32, ask));
            }
        }
        if round_flows.is_empty() {
            break;
        }
        // The scale snapshot must be taken before budgets drain.
        for ((sc, &req), &b) in scale.iter_mut().zip(&requested).zip(&budget_left) {
            *sc = if req > b { b / req } else { 1.0 };
        }
        for &(ri, fi, ask) in &round_flows {
            let (si, cap) = {
                let f = &flows[fi as usize];
                (f.si as usize, f.cap)
            };
            let moved = (ask * scale[si]).min(cap) * useful[si];
            if moved <= 1e-9 {
                continue;
            }
            flow_moved[fi as usize] += moved;
            recvs[ri as usize].demand = (recvs[ri as usize].demand - moved).max(0.0);
            flows[fi as usize].cap -= moved;
            budget_left[si] = (budget_left[si] - moved).max(0.0);
            outcome.segments += moved;
        }
    }

    // The flow arena is in (receiver, supplier) order: receivers in
    // slab order, each one's partner table in ascending id order. The
    // supplier-side view is a stable counting sort of the delivering
    // flows by supplier rank: groups in ascending supplier id, each in
    // (ascending) receiver order. After placement `sup_end[r]` is the
    // end of rank `r`'s group, which starts where rank `r - 1`'s ends.
    let mut sup_end = vec![0u32; live.len()];
    for (f, &moved) in flows.iter().zip(&flow_moved) {
        if moved <= 0.0 {
            continue;
        }
        if moved >= 1.0 {
            outcome.active_flows += 1;
        }
        sup_end[f.si as usize] += 1;
    }
    let mut delivering = 0u32;
    for c in sup_end.iter_mut() {
        let n = *c;
        *c = delivering;
        delivering += n;
    }
    let mut by_sup = vec![0u32; delivering as usize];
    for (fi, (f, &moved)) in flows.iter().zip(&flow_moved).enumerate() {
        if moved > 0.0 {
            let c = &mut sup_end[f.si as usize];
            by_sup[*c as usize] = fi as u32;
            *c += 1;
        }
    }

    // Passes D/E/F, fused into one walk of the live peers: per-peer
    // rates and occupancy (D), then per-link counters and EWMA
    // estimates on both endpoints, plus the decay of selected
    // suppliers that delivered nothing this tick (E/F). Each step
    // reads and writes only the visited peer's own state, so fusing
    // them changes nothing observable.
    //
    // A peer's delivered and sent totals sum its incoming and
    // outgoing flows in arena order — the order the per-peer
    // accumulators of a slab-wide pass would use — hence identical
    // float sums. Without the decay, an untried partner's optimistic
    // prior would permanently outrank a supplier that is actually
    // delivering (the observed rate per link is well below the path
    // ceiling once demand is split 30 ways); a floor of 5 % of the
    // path ceiling keeps failed links re-triable.
    //
    // Live peers, receivers and supplier groups are all in ascending
    // id order, and so is every partner table, so each peer's
    // incoming and outgoing deliveries merge with its partner walk via
    // monotone cursors — no per-link map lookups.
    let mut next_recv = 0usize;
    let mut out_lo = 0usize;
    for (&j, &out_hi) in live.iter().zip(sup_end.iter()) {
        let outgoing = &by_sup[out_lo..out_hi as usize];
        out_lo = out_hi as usize;
        let Some(p) = peers[j as usize].as_mut() else {
            continue;
        };
        let (in_lo, in_hi) = match recvs.get(next_recv) {
            Some(rc) if rc.rcv == j => {
                next_recv += 1;
                (rc.lo as usize, rc.hi as usize)
            }
            _ => (0, 0),
        };

        let mut sent = 0.0f64;
        for &fi in outgoing {
            sent += flow_moved[fi as usize];
        }
        p.send_kbps = cfg.segments_to_kbps(sent);
        if !p.is_server {
            let mut delivered = 0.0f64;
            for &moved in &flow_moved[in_lo..in_hi] {
                if moved > 0.0 {
                    delivered += moved;
                }
            }
            let rate = rate_of(p.channel)?;
            let demand = p.demand_segments(cfg, rate);
            if delivered + 1e-9 >= demand.min(cfg.stream_segments_per_tick(rate)) && demand > 0.0 {
                outcome.satisfied_receivers += 1;
            }
            p.apply_tick_delivery(cfg, rate, delivered);
        }

        if p.is_server {
            // A server only sends, and its table keeps every peer that
            // ever pruned it (DESIGN.md §8), so probe it per delivery
            // instead of walking it.
            for &fi in outgoing {
                let f = &flows[fi as usize];
                if let Some(link) = p.partners.get_mut(&PeerId(f.rcv)) {
                    link.sent_interval += flow_moved[fi as usize].round() as u64;
                }
            }
            continue;
        }
        let mut oi = 0usize;
        let mut ii = in_lo;
        for (pid, link) in p.partners.iter_mut() {
            // Supplier side: segments j sent to this partner.
            while oi < outgoing.len() && flows[outgoing[oi] as usize].rcv < pid.0 {
                oi += 1;
            }
            if oi < outgoing.len() && flows[outgoing[oi] as usize].rcv == pid.0 {
                link.sent_interval += flow_moved[outgoing[oi] as usize].round() as u64;
            }
            // Receiver side: segments j received from this partner,
            // or the decay of a selected supplier that sent nothing.
            while ii < in_hi && flows[ii].sup < pid.0 {
                ii += 1;
            }
            if ii < in_hi && flows[ii].sup == pid.0 && flow_moved[ii] > 0.0 {
                let moved = flow_moved[ii];
                link.recv_interval += moved.round() as u64;
                link.est_recv_kbps = (1.0 - cfg.throughput_ewma) * link.est_recv_kbps
                    + cfg.throughput_ewma * cfg.segments_to_kbps(moved);
            } else if link.supplier {
                link.est_recv_kbps = ((1.0 - cfg.throughput_ewma) * link.est_recv_kbps)
                    .max(0.05 * link.quality.bandwidth_kbps);
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_netsim::{AccessClass, Isp, LinkQuality, PeerAddr, PeerCapacity, SimTime};
    use magellan_workload::ChannelId;

    const RATE: f64 = 400.0;

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    fn mk_peer(id: u32, up: f64, down: f64) -> PeerState {
        PeerState::new_peer(
            PeerAddr::from_u32(id),
            Isp::Telecom,
            PeerCapacity {
                down_kbps: down,
                up_kbps: up,
                class: AccessClass::Adsl,
            },
            ChannelId::CCTV1,
            SimTime::ORIGIN,
            SimTime::at(1, 0, 0),
        )
    }

    fn mk_server(id: u32, up: f64) -> PeerState {
        PeerState::new_server(
            PeerAddr::from_u32(id),
            Isp::Telecom,
            up,
            ChannelId::CCTV1,
            SimTime::ORIGIN,
            SimTime::at(14, 0, 0),
        )
    }

    fn link(bw: f64) -> LinkQuality {
        LinkQuality {
            rtt_ms: 30.0,
            bandwidth_kbps: bw,
        }
    }

    /// The occupied slots of `peers`, ascending: the live list the
    /// simulator maintains.
    fn live_of(peers: &[Option<PeerState>]) -> Vec<u32> {
        (0..peers.len() as u32)
            .filter(|&i| peers[i as usize].is_some())
            .collect()
    }

    /// One tick over every occupied slot with a fresh scratch.
    fn tick(peers: &mut [Option<PeerState>], cfg: &SimConfig) -> TickOutcome {
        let live = live_of(peers);
        run_tick(
            peers,
            &live,
            &mut TransferScratch::default(),
            |_| Some(RATE),
            |_, _| true,
            cfg,
        )
        .expect("rates known")
    }

    /// Connects a (receiver -> supplier) pair on both endpoints and
    /// marks the supplier selected.
    fn connect(peers: &mut [Option<PeerState>], rcv: u32, sup: u32, bw: f64) {
        let now = SimTime::ORIGIN;
        peers[rcv as usize]
            .as_mut()
            .unwrap()
            .add_partner(PeerId(sup), link(bw), now);
        peers[rcv as usize]
            .as_mut()
            .unwrap()
            .partners
            .get_mut(&PeerId(sup))
            .unwrap()
            .supplier = true;
        peers[sup as usize]
            .as_mut()
            .unwrap()
            .add_partner(PeerId(rcv), link(bw), now);
    }

    #[test]
    fn server_feeds_a_lone_peer_at_full_rate() {
        let mut peers = vec![
            Some(mk_server(0, 10_000.0)),
            Some(mk_peer(1, 512.0, 2_000.0)),
        ];
        connect(&mut peers, 1, 0, 5_000.0);
        let out = tick(&mut peers, &cfg());
        let p = peers[1].as_ref().unwrap();
        assert!(
            p.recv_kbps >= RATE * 0.99,
            "receive rate {} below stream rate",
            p.recv_kbps
        );
        assert!(p.buffer_fill > 0.5);
        assert_eq!(out.receivers, 1);
        assert_eq!(out.satisfied_receivers, 1);
        assert!(out.segments > 0.0);
    }

    #[test]
    fn empty_buffered_supplier_delivers_nothing() {
        // Peer 1 requests from peer 2, whose buffer is empty.
        let mut peers = vec![
            None,
            Some(mk_peer(1, 512.0, 2_000.0)),
            Some(mk_peer(2, 512.0, 2_000.0)),
        ];
        connect(&mut peers, 1, 2, 1_000.0);
        let out = tick(&mut peers, &cfg());
        assert_eq!(peers[1].as_ref().unwrap().recv_kbps, 0.0);
        assert_eq!(out.satisfied_receivers, 0);
    }

    #[test]
    fn full_buffered_peer_can_supply() {
        let mut peers = vec![
            Some(mk_peer(0, 512.0, 2_000.0)),
            Some(mk_peer(1, 512.0, 2_000.0)),
        ];
        peers[0].as_mut().unwrap().buffer_fill = 1.0;
        connect(&mut peers, 1, 0, 1_000.0);
        let _ = tick(&mut peers, &cfg());
        let r = peers[1].as_ref().unwrap();
        // The 512 Kbps uplink covers the 400 Kbps stream.
        assert!(r.recv_kbps > 390.0, "recv = {}", r.recv_kbps);
        let s = peers[0].as_ref().unwrap();
        assert!(s.send_kbps > 390.0, "send = {}", s.send_kbps);
    }

    #[test]
    fn oversubscribed_supplier_splits_fairly() {
        // One 512 Kbps supplier, four receivers: each gets ~128 Kbps.
        let mut peers: Vec<Option<PeerState>> = vec![Some(mk_peer(0, 512.0, 2_000.0))];
        peers[0].as_mut().unwrap().buffer_fill = 1.0;
        for i in 1..=4 {
            peers.push(Some(mk_peer(i, 512.0, 2_000.0)));
        }
        for i in 1..=4 {
            connect(&mut peers, i, 0, 1_000.0);
        }
        let _ = tick(&mut peers, &cfg());
        let sup = peers[0].as_ref().unwrap();
        assert!(
            sup.send_kbps <= 512.0 * 1.01,
            "supplier exceeded capacity: {}",
            sup.send_kbps
        );
        for (i, slot) in peers.iter().enumerate().skip(1).take(4) {
            let r = slot.as_ref().unwrap();
            assert!(
                (r.recv_kbps - 128.0).abs() < 15.0,
                "receiver {i} got {}",
                r.recv_kbps
            );
        }
    }

    #[test]
    fn path_ceiling_caps_a_flow() {
        let mut peers = vec![
            Some(mk_server(0, 100_000.0)),
            Some(mk_peer(1, 512.0, 5_000.0)),
        ];
        connect(&mut peers, 1, 0, 100.0); // terrible path: 100 Kbps
        let _ = tick(&mut peers, &cfg());
        let r = peers[1].as_ref().unwrap();
        assert!(r.recv_kbps <= 105.0, "recv = {}", r.recv_kbps);
    }

    #[test]
    fn interval_counters_accumulate_on_both_ends() {
        let mut peers = vec![
            Some(mk_server(0, 10_000.0)),
            Some(mk_peer(1, 512.0, 2_000.0)),
        ];
        connect(&mut peers, 1, 0, 5_000.0);
        let _ = tick(&mut peers, &cfg());
        let recv = peers[1].as_ref().unwrap().partners[&PeerId(0)].recv_interval;
        let sent = peers[0].as_ref().unwrap().partners[&PeerId(1)].sent_interval;
        assert!(recv > 0);
        assert_eq!(recv, sent);
    }

    #[test]
    fn ewma_estimate_tracks_observation() {
        let mut peers = vec![
            Some(mk_server(0, 10_000.0)),
            Some(mk_peer(1, 512.0, 2_000.0)),
        ];
        connect(&mut peers, 1, 0, 5_000.0);
        let before = peers[1].as_ref().unwrap().partners[&PeerId(0)].est_recv_kbps;
        let _ = tick(&mut peers, &cfg());
        let after = peers[1].as_ref().unwrap().partners[&PeerId(0)].est_recv_kbps;
        // Observation (~stream-rate share) is far below the 5000 prior.
        assert!(
            after < before,
            "estimate did not adapt: {before} -> {after}"
        );
    }

    #[test]
    fn dead_suppliers_are_ignored() {
        let mut peers = vec![
            Some(mk_server(0, 10_000.0)),
            Some(mk_peer(1, 512.0, 2_000.0)),
        ];
        connect(&mut peers, 1, 0, 5_000.0);
        peers[0] = None; // supplier vanished
        let out = tick(&mut peers, &cfg());
        assert_eq!(out.segments, 0.0);
        assert_eq!(peers[1].as_ref().unwrap().recv_kbps, 0.0);
    }

    #[test]
    fn reciprocal_pair_exchanges_both_ways() {
        let mut peers = vec![
            Some(mk_peer(0, 512.0, 2_000.0)),
            Some(mk_peer(1, 512.0, 2_000.0)),
        ];
        peers[0].as_mut().unwrap().buffer_fill = 0.8;
        peers[1].as_mut().unwrap().buffer_fill = 0.8;
        connect(&mut peers, 1, 0, 1_000.0);
        connect(&mut peers, 0, 1, 1_000.0);
        let out = tick(&mut peers, &cfg());
        assert!(out.active_flows >= 2, "flows = {}", out.active_flows);
        let a = &peers[0].as_ref().unwrap().partners[&PeerId(1)];
        let b = &peers[1].as_ref().unwrap().partners[&PeerId(0)];
        assert!(a.recv_interval > 10 && a.sent_interval > 10, "{a:?}");
        assert!(b.recv_interval > 10 && b.sent_interval > 10, "{b:?}");
    }

    #[test]
    fn random_selection_ablation_ignores_link_quality() {
        // Two suppliers, same occupancy, very different path quality:
        // with the ablation on, requests split evenly.
        let mk = |peers: &mut Vec<Option<PeerState>>| {
            peers[0].as_mut().unwrap().buffer_fill = 1.0;
            peers[1].as_mut().unwrap().buffer_fill = 1.0;
        };
        let run = |random: bool| {
            let cfg = SimConfig {
                random_selection: random,
                ..SimConfig::default()
            };
            let mut peers = vec![
                Some(mk_peer(0, 512.0, 2_000.0)),
                Some(mk_peer(1, 512.0, 2_000.0)),
                Some(mk_peer(2, 512.0, 2_000.0)),
            ];
            mk(&mut peers);
            connect(&mut peers, 2, 0, 5_000.0); // excellent path
            connect(&mut peers, 2, 1, 200.0); // poor path
            let _ = tick(&mut peers, &cfg);
            let a = peers[2].as_ref().unwrap().partners[&PeerId(0)].recv_interval as f64;
            let b = peers[2].as_ref().unwrap().partners[&PeerId(1)].recv_interval as f64;
            (a, b)
        };
        let (qa, qb) = run(false);
        assert!(
            qa > qb * 3.0,
            "quality mode did not concentrate: {qa} vs {qb}"
        );
        let (ra, rb) = run(true);
        // Even split up to the poor path's ceiling; the good path may
        // absorb spillover, so allow a wide band — just not the
        // quality-mode concentration.
        assert!(ra < rb * 3.0, "ablation still concentrated: {ra} vs {rb}");
        assert!(rb > 0.0);
    }

    #[test]
    fn empty_slab_is_a_noop() {
        let mut peers: Vec<Option<PeerState>> = vec![None, None];
        let out = tick(&mut peers, &cfg());
        assert_eq!(out, TickOutcome::default());
    }

    /// Bit patterns of everything a tick writes, in slab order.
    fn tick_state(peers: &[Option<PeerState>]) -> Vec<[u64; 3]> {
        let mut out = Vec::new();
        for p in peers.iter().flatten() {
            out.push([
                p.recv_kbps.to_bits(),
                p.send_kbps.to_bits(),
                p.buffer_fill.to_bits(),
            ]);
            for (_, l) in p.partners.iter() {
                out.push([l.est_recv_kbps.to_bits(), l.sent_interval, l.recv_interval]);
            }
        }
        out
    }

    #[test]
    fn dead_slots_between_live_peers_change_nothing() {
        // The same server and three peers, packed into a dense slab
        // and spread over one with dead slots between suppliers and
        // receivers. Ticks must agree bit for bit, and one scratch
        // reused across the spread ticks must match a fresh scratch
        // per dense tick.
        let build = |[s, a, b, c]: [u32; 4], len: usize| {
            let mut peers: Vec<Option<PeerState>> = (0..len).map(|_| None).collect();
            peers[s as usize] = Some(mk_server(s, 1_000.0));
            for i in [a, b, c] {
                peers[i as usize] = Some(mk_peer(i, 512.0, 2_000.0));
            }
            peers[a as usize].as_mut().unwrap().buffer_fill = 1.0;
            peers[b as usize].as_mut().unwrap().buffer_fill = 0.3;
            connect(&mut peers, c, s, 800.0);
            connect(&mut peers, c, a, 600.0);
            connect(&mut peers, c, b, 400.0);
            connect(&mut peers, b, a, 700.0);
            connect(&mut peers, a, b, 300.0);
            connect(&mut peers, b, s, 900.0);
            peers
        };
        let mut dense = build([0, 1, 2, 3], 4);
        let mut spread = build([1, 4, 5, 9], 12);
        let live = live_of(&spread);
        assert_eq!(live, vec![1, 4, 5, 9]);
        let mut scratch = TransferScratch::default();
        for t in 0..4 {
            let want = tick(&mut dense, &cfg());
            let got = run_tick(
                &mut spread,
                &live,
                &mut scratch,
                |_| Some(RATE),
                |_, _| true,
                &cfg(),
            )
            .expect("rates known");
            assert!(want.segments > 0.0 && want.active_flows >= 3, "{want:?}");
            assert_eq!(got, want, "outcome diverged at tick {t}");
            assert_eq!(
                tick_state(&spread),
                tick_state(&dense),
                "peer state diverged at tick {t}"
            );
        }
    }
}
