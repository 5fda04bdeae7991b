//! Trace workbench: inspect and export archived traces.
//!
//! Run without arguments for the usage, rendered from `command()`.
//!
//! Every `<archive-dir>` is a segmented binary archive written by
//! `magellan study` or `magellan-traced serve` (the run directory
//! holding it works too). `stats`, `sessions` and `snapshot` read the
//! whole archive into a trace store: `stats` prints trace volume,
//! recovery state and — when the run came through the networked
//! service — the `magellan-traced` ingest accounting (admitted /
//! deduped / shed / lost and whether the books balance); `snapshot
//! --format edges|dot` exports the reconstructed topology for
//! networkx / Graphviz. `inspect` and `fsck` stream the archive
//! without holding it: `inspect` summarizes contents and recovery
//! state, `fsck` exits non-zero when any frame was lost to damage.
//! Every subcommand parses through [`magellan::cli`]: an unknown flag
//! or a malformed value is an error, never silently defaulted.
//!
//! `nemesis` is the deterministic chaos interposer for the hostile
//! ingest drills: it proxies TCP connections and UDP datagrams to
//! `--upstream` while injecting the transport hostility scheduled by
//! [`FlowSchedule`] — latency, partial/coalesced writes, byte flips,
//! duplicates, reorders, connection resets, half-open stalls, and
//! mid-stream kills. The schedule is a pure function of `(--seed,
//! flow index, --profile)`, so a failing drill replays exactly;
//! `--print-schedule` renders the decision table as the byte-for-byte
//! reproducibility witness without opening a socket.

use magellan::analysis::graphs::{active_link_graph, node_isps, NodeScope};
use magellan::analysis::sessions::{stable_sessions, summarize};
use magellan::cli::{Args, Command, Flag};
use magellan::graph::export::{to_dot, to_edge_list};
use magellan::graph::reciprocity::garlaschelli_reciprocity;
use magellan::graph::smallworld::{assess, SmallWorldConfig};
use magellan::netsim::{IspDatabase, SimTime};
use magellan::trace::archive::read_archive;
use magellan::trace::{atomic_write, RecoveryReport, SnapshotBuilder, TraceStats, TraceStore};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn command() -> Command {
    let on_dir = |name| Command::new(name).operand("<archive-dir>");
    Command::new("tracetool")
        .subcommand(on_dir("stats"))
        .subcommand(on_dir("sessions"))
        .subcommand(on_dir("snapshot").flags(&[
            Flag::text("--at", "d,h,m").required(),
            Flag::one_of("--scope", "stable|all"),
            Flag::one_of("--format", "summary|edges|dot"),
            Flag::text("--out", "FILE"),
        ]))
        .subcommand(on_dir("inspect"))
        .subcommand(on_dir("fsck"))
        .subcommand(Command::new("nemesis").flags(&[
            Flag::text("--upstream", "ADDR"),
            Flag::text("--listen", "ADDR"),
            Flag::int("--seed", "N"),
            Flag::one_of("--profile", "tcp|udp|off"),
            Flag::text("--port-file", "FILE"),
            Flag::int("--print-schedule", "EVENTS"),
            Flag::int("--flows", "N"),
        ]))
}

/// `nemesis` — the deterministic chaos proxy. Everything hostile it
/// does is decided by [`FlowSchedule`] (pure seeded arithmetic); this
/// code only executes the scheduled socket mischief.
mod nemesis {
    use magellan::cli::Args;
    use magellan::netsim::chaos::{
        render_schedule, ChaosAction, ChaosProfile, FlowKind, FlowSchedule,
    };
    use magellan::trace::atomic_write;
    use std::collections::BTreeMap;
    use std::io::{Read, Write};
    use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, UdpSocket};
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;
    use std::time::Duration;

    /// Flow indices are allocated process-wide so every TCP
    /// connection and every UDP source gets an independent schedule.
    static NEXT_FLOW: AtomicU64 = AtomicU64::new(0);

    fn profile_of(name: &str) -> (FlowKind, ChaosProfile) {
        match name {
            "udp" => (FlowKind::Datagram, ChaosProfile::udp_drill()),
            "off" => (FlowKind::Stream, ChaosProfile::off()),
            _ => (FlowKind::Stream, ChaosProfile::tcp_drill()),
        }
    }

    /// The chaos-bearing direction of one TCP connection
    /// (client → upstream). Replies flow back through a clean pump —
    /// hostility on the request path is what the service must
    /// survive; a mangled reply would only test the drill client.
    fn pump_chaos(mut from: TcpStream, to: TcpStream, mut sched: FlowSchedule) {
        // The coalesce timer: bytes withheld to ride with the next
        // chunk are flushed after one tick anyway (like Nagle), so a
        // request/reply lockstep never deadlocks on the proxy.
        let _ = from.set_read_timeout(Some(Duration::from_millis(20)));
        let mut held: Vec<u8> = Vec::new();
        let mut buf = [0u8; 8192];
        loop {
            let n = match from.read(&mut buf) {
                Ok(0) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if !held.is_empty() {
                        if (&to).write_all(&held).is_err() {
                            break;
                        }
                        held.clear();
                    }
                    continue;
                }
                Err(_) => break,
                Ok(n) => n,
            };
            held.extend_from_slice(&buf[..n]);
            match sched.next_action() {
                ChaosAction::Coalesce => continue, // withhold; prepend to the next chunk
                ChaosAction::Deliver | ChaosAction::Reorder => {}
                ChaosAction::Delay { ms } => thread::sleep(Duration::from_millis(u64::from(ms))),
                ChaosAction::Stall { ms } => {
                    // Half-open pressure: the connection sits silent,
                    // then resumes — the upstream's idle reaper must
                    // tolerate this without dropping a live client.
                    thread::sleep(Duration::from_millis(u64::from(ms)));
                }
                ChaosAction::FlipBit { offset, bit } => {
                    let i = offset as usize % held.len();
                    held[i] ^= 1 << bit;
                }
                ChaosAction::SplitAt { at_pm } => {
                    let at = ((held.len() as u64 * u64::from(at_pm)) / 1000).max(1) as usize;
                    let at = at.min(held.len());
                    if (&to).write_all(&held[..at]).is_err() {
                        break;
                    }
                    (&to).flush().ok();
                    held.drain(..at);
                    if held.is_empty() {
                        continue;
                    }
                }
                ChaosAction::Duplicate => {
                    if (&to).write_all(&held).is_err() {
                        break;
                    }
                }
                ChaosAction::Drop => {
                    held.clear();
                    continue;
                }
                ChaosAction::Reset => {
                    // The chunk dies with the connection.
                    let _ = to.shutdown(Shutdown::Both);
                    let _ = from.shutdown(Shutdown::Both);
                    return;
                }
                ChaosAction::Kill => {
                    let _ = (&to).write_all(&held);
                    let _ = to.shutdown(Shutdown::Both);
                    let _ = from.shutdown(Shutdown::Both);
                    return;
                }
            }
            if (&to).write_all(&held).is_err() {
                break;
            }
            held.clear();
        }
        // Clean EOF: flush any coalesced remainder, then propagate
        // the half-close so the upstream sees the same stream end.
        if !held.is_empty() {
            let _ = (&to).write_all(&held);
        }
        let _ = to.shutdown(Shutdown::Write);
    }

    /// The clean reply direction (upstream → client).
    fn pump_clean(mut from: TcpStream, to: TcpStream) {
        let mut buf = [0u8; 8192];
        loop {
            let n = match from.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            if (&to).write_all(&buf[..n]).is_err() {
                break;
            }
        }
        let _ = to.shutdown(Shutdown::Write);
    }

    fn serve_tcp(
        listener: TcpListener,
        upstream: String,
        seed: u64,
        kind: FlowKind,
        profile: ChaosProfile,
    ) {
        for conn in listener.incoming() {
            let Ok(client) = conn else { continue };
            let Ok(server) = TcpStream::connect(upstream.as_str()) else {
                let _ = client.shutdown(Shutdown::Both);
                continue;
            };
            let _ = client.set_nodelay(true);
            let _ = server.set_nodelay(true);
            let flow = NEXT_FLOW.fetch_add(1, Ordering::SeqCst);
            let sched = FlowSchedule::new(seed, flow, kind, profile);
            let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
                continue;
            };
            // lint:allow(D3): proxy shell — one pump pair per connection, detached; process exit is shutdown
            thread::spawn(move || pump_chaos(client, server, sched));
            // lint:allow(D3): proxy shell — reply pump, detached
            thread::spawn(move || pump_clean(s2, c2));
        }
    }

    /// One proxied UDP source: its upstream socket and its pending
    /// reordered datagram.
    struct UdpFlow {
        up: std::sync::Arc<UdpSocket>,
        sched: FlowSchedule,
        held: Option<Vec<u8>>,
    }

    /// Connects a fresh upstream socket for one UDP source and starts
    /// its clean reply pump (upstream datagrams back to the client
    /// through the listener socket).
    fn open_udp_flow(
        listener: &std::sync::Arc<UdpSocket>,
        upstream: &str,
        seed: u64,
        profile: ChaosProfile,
        peer: SocketAddr,
    ) -> Option<UdpFlow> {
        let up = UdpSocket::bind("127.0.0.1:0").ok()?;
        up.connect(upstream).ok()?;
        let up = std::sync::Arc::new(up);
        let flow = NEXT_FLOW.fetch_add(1, Ordering::SeqCst);
        {
            let up = std::sync::Arc::clone(&up);
            let down = std::sync::Arc::clone(listener);
            // lint:allow(D3): proxy shell — one reply pump per UDP source, detached
            thread::spawn(move || {
                let mut rbuf = [0u8; 64 * 1024];
                while let Ok(rn) = up.recv(&mut rbuf) {
                    if down.send_to(&rbuf[..rn], peer).is_err() {
                        return;
                    }
                }
            });
        }
        Some(UdpFlow {
            up,
            sched: FlowSchedule::new(seed, flow, FlowKind::Datagram, profile),
            held: None,
        })
    }

    fn serve_udp(
        listener: std::sync::Arc<UdpSocket>,
        upstream: String,
        seed: u64,
        profile: ChaosProfile,
    ) {
        let mut flows: BTreeMap<SocketAddr, UdpFlow> = BTreeMap::new();
        let mut buf = [0u8; 64 * 1024];
        loop {
            let (n, peer) = match listener.recv_from(&mut buf) {
                Ok(v) => v,
                Err(_) => continue,
            };
            let f = match flows.entry(peer) {
                std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::btree_map::Entry::Vacant(v) => {
                    let Some(flow) = open_udp_flow(&listener, &upstream, seed, profile, peer)
                    else {
                        continue;
                    };
                    v.insert(flow)
                }
            };
            let datagram = buf[..n].to_vec();
            match f.sched.next_action() {
                ChaosAction::Drop | ChaosAction::Reset | ChaosAction::Kill => {
                    // No connection to kill on UDP: the datagram is
                    // simply lost.
                }
                ChaosAction::Duplicate => {
                    let _ = f.up.send(&datagram);
                    let _ = f.up.send(&datagram);
                }
                ChaosAction::Reorder => {
                    // Hold one slot; it rides behind the next datagram.
                    match f.held.take() {
                        None => f.held = Some(datagram),
                        Some(prev) => {
                            let _ = f.up.send(&datagram);
                            let _ = f.up.send(&prev);
                        }
                    }
                    continue;
                }
                ChaosAction::Delay { ms } | ChaosAction::Stall { ms } => {
                    thread::sleep(Duration::from_millis(u64::from(ms)));
                    let _ = f.up.send(&datagram);
                }
                ChaosAction::FlipBit { offset, bit } => {
                    let mut d = datagram;
                    let i = offset as usize % d.len().max(1);
                    if let Some(b) = d.get_mut(i) {
                        *b ^= 1 << bit;
                    }
                    let _ = f.up.send(&d);
                }
                // Split/Coalesce have no meaning at datagram
                // granularity; the schedule never emits them for
                // datagram flows, but deliver defensively.
                ChaosAction::Deliver | ChaosAction::SplitAt { .. } | ChaosAction::Coalesce => {
                    let _ = f.up.send(&datagram);
                }
            }
            if let Some(prev) = f.held.take() {
                let _ = f.up.send(&prev);
            }
        }
    }

    /// Entry point for `tracetool nemesis`.
    pub fn run(args: &Args) -> Result<(), String> {
        let seed = args.u64("--seed").unwrap_or(9);
        let (kind, profile) = profile_of(args.get("--profile").unwrap_or("tcp"));

        if let Some(events) = args.u64("--print-schedule") {
            let events = u32::try_from(events)
                .map_err(|_| format!("--print-schedule {events}: out of range"))?;
            let flows = args.u64("--flows").unwrap_or(4);
            print!("{}", render_schedule(seed, kind, profile, flows, events));
            return Ok(());
        }

        let upstream = args
            .get("--upstream")
            .ok_or("--upstream ADDR is required (or --print-schedule EVENTS)")?
            .to_string();
        let listen = args.get("--listen").unwrap_or("127.0.0.1:0");
        let listener = TcpListener::bind(listen).map_err(|e| format!("bind tcp {listen}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let udp = std::sync::Arc::new(
            UdpSocket::bind(local).map_err(|e| format!("bind udp {local}: {e}"))?,
        );
        println!("tracetool nemesis: interposing {local} -> {upstream} (seed {seed}, {kind:?})");
        if let Some(path) = args.get("--port-file") {
            atomic_write(Path::new(path), local.to_string().as_bytes())
                .map_err(|e| format!("write {path}: {e}"))?;
        }
        {
            let upstream = upstream.clone();
            // lint:allow(D3): proxy shell — UDP forwarder for the process lifetime
            thread::spawn(move || serve_udp(udp, upstream, seed, profile));
        }
        serve_tcp(listener, upstream, seed, kind, profile);
        Ok(())
    }
}

/// Accepts either an archive directory or a `magellan study` run
/// directory that contains one.
fn archive_dir(path: &str) -> PathBuf {
    let p = Path::new(path);
    let nested = p.join("archive");
    if nested.is_dir() {
        nested
    } else {
        p.to_path_buf()
    }
}

/// Prints the damage a read had to skip.
fn print_recovery(report: &RecoveryReport) {
    println!(
        "segments           : {} ({} sealed)",
        report.segments_read, report.sealed_segments
    );
    println!("corrupt regions    : {}", report.corrupt_regions);
    println!("bytes quarantined  : {}", report.bytes_quarantined);
    println!(
        "torn tail          : {}",
        if report.truncated_tail { "yes" } else { "no" }
    );
}

/// Streams an archive, printing recovery state; returns the exit code
/// (`fsck` fails on any damage, `inspect` only on I/O errors).
fn scan_archive(path: &str, strict: bool) -> ExitCode {
    let dir = archive_dir(path);
    let mut records = 0u64;
    let mut span: Option<(SimTime, SimTime)> = None;
    let mut reporters = std::collections::BTreeSet::new();
    let report = match read_archive(&dir, |r| {
        records += 1;
        reporters.insert(r.addr.as_u32());
        span = Some(match span {
            None => (r.time, r.time),
            Some((lo, hi)) => (lo.min(r.time), hi.max(r.time)),
        });
    }) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("error: read archive {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    println!("archive            : {}", dir.display());
    println!("records recovered  : {records}");
    println!("distinct reporters : {}", reporters.len());
    if let Some((lo, hi)) = span {
        println!("time span          : {lo} .. {hi}");
    }
    print_recovery(&report);
    if strict && !report.is_clean() {
        eprintln!("fsck: archive sustained damage");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Reads a whole archive into a trace store.
fn load(dir: &Path) -> Result<(TraceStore, RecoveryReport), String> {
    let mut store = TraceStore::new();
    let report = read_archive(dir, |r| store.push(r))
        .map_err(|e| format!("read archive {}: {e}", dir.display()))?;
    Ok((store, report))
}

/// `stats`: the `magellan-traced` ingest accounting and its balance
/// verdict when the archive has a service sidecar, then trace volume
/// and recovery state.
fn stats(dir: &Path) -> Result<(), String> {
    let (store, report) = load(dir)?;
    match magellan::trace::service::read_ingest_stats(dir)
        .map_err(|e| format!("read ingest sidecar: {e}"))?
    {
        Some(s) => {
            println!("--- ingest (magellan-traced service) ---");
            println!("clients            : {}", s.clients);
            println!("sent               : {}", s.sent);
            println!("admitted           : {}", s.admitted);
            println!("deduped            : {}", s.deduped);
            println!("shed busy          : {}", s.shed_busy);
            println!("rate limited       : {}", s.rate_limited);
            println!("rejected           : {}", s.rejected);
            println!("malformed          : {}", s.malformed);
            println!("late               : {}", s.late);
            println!("unavailable        : {}", s.unavailable);
            println!("lost in flight     : {}", s.lost);
            println!("surplus received   : {}", s.surplus);
            println!("evicted clients    : {}", s.evicted);
            println!("window merges      : {}", s.merges);
            println!("protocol errors    : {}", s.protocol_errors);
            println!(
                "books balance      : {}",
                if s.balanced() { "yes" } else { "NO" }
            );
        }
        None => println!("--- ingest: no sidecar (in-process archive) ---"),
    }
    let s = TraceStats::compute(&store);
    println!("archive            : {}", dir.display());
    println!("reports            : {}", s.reports);
    println!("wire volume        : {:.2} MB", s.wire_bytes as f64 / 1e6);
    println!("mean report size   : {:.0} B", s.mean_report_bytes);
    println!("distinct reporters : {}", s.distinct_reporters);
    println!("distinct addresses : {}", s.distinct_addresses);
    println!("mean partners      : {:.1}", s.mean_partners);
    println!("active buckets     : {}", s.active_buckets);
    println!("reports per bucket : {:.1}", s.reports_per_bucket);
    if let Some((lo, hi)) = store.time_span() {
        println!("time span          : {lo} .. {hi}");
    }
    print_recovery(&report);
    Ok(())
}

fn sessions(dir: &Path) -> Result<(), String> {
    let (store, _) = load(dir)?;
    let s = summarize(&stable_sessions(&store)).ok_or("no sessions in trace")?;
    println!("stable sessions    : {}", s.sessions);
    println!("mean length        : {:.0} min", s.mean_mins);
    println!("median length      : {:.0} min", s.median_mins);
    println!("p90 length         : {:.0} min", s.p90_mins);
    Ok(())
}

/// Parses `--at d,h,m`.
fn parse_at(at: &str) -> Result<SimTime, String> {
    let bad = || format!("--at {at}: expected day,hour,minute (e.g. 0,21,0)");
    let parts = at
        .split(',')
        .map(|p| p.trim().parse::<u64>().map_err(|_| bad()))
        .collect::<Result<Vec<u64>, String>>()?;
    match parts[..] {
        [d, h, m] if h < 24 && m < 60 => Ok(SimTime::at(d, h, m)),
        _ => Err(bad()),
    }
}

fn snapshot(dir: &Path, args: &Args) -> Result<(), String> {
    let t = parse_at(args.get("--at").unwrap_or_default())?;
    let scope = match args.get("--scope") {
        Some("all") => NodeScope::AllKnown,
        _ => NodeScope::StableOnly,
    };
    let format = args.get("--format").unwrap_or("summary");
    let (store, _) = load(dir)?;
    let snap = SnapshotBuilder::new(&store).at(t);
    let reports: Vec<_> = snap.reports().cloned().collect();
    let g = active_link_graph(&reports, scope);
    let output = match format {
        "edges" => to_edge_list(&g),
        "dot" => {
            let isps = node_isps(&g, &IspDatabase::default());
            to_dot(&g, &format!("snapshot_{t}"), |id, _| {
                Some(isps[id.index()].name().to_owned())
            })
        }
        _ => {
            let sw = assess(&g, &SmallWorldConfig::default());
            let rho = garlaschelli_reciprocity(&g)
                .map(|v| format!("{v:+.3}"))
                .unwrap_or_else(|_| "n/a".into());
            format!(
                "snapshot at {t}\nstable peers : {}\nknown peers  : {}\nnodes/edges  : {} / {}\nC vs C_rand  : {:.3} vs {:.4}\nL vs L_rand  : {:?} vs {:?}\nreciprocity  : {rho}\nsmall world  : {}\n",
                snap.stable_count(),
                snap.known_peers().len(),
                g.node_count(),
                g.edge_count(),
                sw.c,
                sw.c_rand,
                sw.l,
                sw.l_rand,
                sw.is_small_world
            )
        }
    };
    match args.get("--out") {
        Some(out) => {
            atomic_write(Path::new(out), output.as_bytes())
                .map_err(|e| format!("write {out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => print!("{output}"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = command().parse_env();
    let path = args.operand(0);
    let result = match args.command {
        "inspect" => return scan_archive(path, false),
        "fsck" => return scan_archive(path, true),
        "stats" => stats(&archive_dir(path)),
        "sessions" => sessions(&archive_dir(path)),
        "snapshot" => snapshot(&archive_dir(path), &args),
        _ => nemesis::run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
