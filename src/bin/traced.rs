//! `magellan-traced` — the networked ingest service and its drill
//! client.
//!
//! Run without arguments for the usage, rendered from `command()`.
//!
//! `serve` listens on one port (TCP and UDP simultaneously), ingests
//! `wire`-encoded [`PeerReport`]s from `--clients` concurrent
//! clients through `--shards` independent admission shards, and lands
//! the merged windows in a standard archive under `DIR/archive` plus
//! the `INGEST` accounting sidecar — so `magellan replay --archive
//! DIR` analyzes a networked run exactly like an in-process one. The
//! threading shape mirrors the sans-I/O
//! [`ServiceCore`](magellan::trace::ServiceCore) reference: one owner
//! thread per [`Shard`] behind a bounded FIFO (backpressure sheds
//! `Busy` at the queue, accounted), reader threads that only route,
//! and a coordinator owning the registry and the archive writer.
//!
//! The service assumes a hostile network. Every socket carries a read
//! timeout and an idle deadline (`--idle-timeout-ms`), so a slowloris
//! connection — opened, half-fed, never finished — is reaped instead
//! of pinning a reader thread forever. The acceptor caps connections
//! at [`MAX_CONNS`] in total and [`MAX_CONNS_PER_IP`] per source
//! address; surplus connections are closed on arrival and counted.
//! With `--rate-limit` set, each TCP connection and each UDP source
//! gets a token bucket and over-budget reports are answered
//! [`StatusCode::RateLimited`] — a retryable verdict the [`NetUplink`]
//! backs off on. A client that goes silent past `--barrier-timeout-ms`
//! is evicted from the window barrier, so a vanished peer degrades the
//! seal to an accounted partial window instead of wedging the merge
//! pipeline.
//!
//! The service itself is crash-safe. `SIGTERM`/`SIGINT` request a
//! drain: the acceptor stops accepting, unfinished clients are
//! evicted, the in-flight window is sealed, the sidecar is flushed,
//! and the process exits 0. After `kill -9`, `serve --resume` keeps
//! the run directory's `study.cfg` (a study flag must match it),
//! reopens the archive at the last checkpoint (the `INGEST.resume`
//! sidecar is rewritten after every merge+sync), truncates any torn
//! tail, and restores the merge frontier so re-received reports below
//! it shed as `Late` while everything at or past it is admitted fresh
//! — re-receives reconcile in the `surplus` column, never in the
//! archive twice.
//!
//! `drive` runs the full deterministic study simulation and streams
//! the partition `shard_of(addr, clients) == client_id` to the
//! service through a [`NetUplink`], marking window boundaries every
//! [`MARK_EVERY_MINS`] of simulated time. `--reconnect N` arms the
//! uplink's reconnect budget: a mid-stream connection kill is
//! answered by redial + re-`Hello` + retransmit of every outstanding
//! report. N drive processes with the same study parameters cover
//! every report exactly once, which is what makes the multi-process
//! drill reproduce the in-process `StudyReport`.
//!
//! Control messages over UDP are sent blind with redundancy; on a
//! lossy path a fully lost `Hello`/`Finish` can stall the barrier, so
//! the drill (and CI) use TCP and treat UDP as the loss-tolerance
//! exercise.

use bytes::Bytes;
use magellan::cli::{Args, Command, Flag};
use magellan::netsim::{SimDuration, SimTime};
use magellan::overlay::OverlaySim;
use magellan::runcfg::{cfg_path, RunParams};
use magellan::trace::codec::{self, ClientMsg, FrameReader, ReplyMsg};
use magellan::trace::service::{
    merge_sorted, read_service_resume, write_ingest_stats, write_service_resume, ServiceResume,
};
use magellan::trace::shard::{shard_of, Shard, ShardStats};
use magellan::trace::{
    atomic_write, ArchiveWriter, ClientRegistry, IngestStats, NetBackoff, NetUplink, PeerReport,
    StatusCode, TokenBucket,
};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
// lint:allow(P1): service shell, not simulation — channels carry socket traffic whose interleaving is inherently external
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, SendError, Sender, SyncSender, TrySendError,
};
// lint:allow(P1): service shell — the reply half of a TCP stream is shared between shard workers, nothing simulation-visible
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How often a blocked socket read wakes to check the idle deadline
/// and the drain flag.
const READ_TICK_MS: u64 = 200;

/// Connections the acceptor holds open at once.
const MAX_CONNS: usize = 1024;
/// Connections one source address may hold open at once.
const MAX_CONNS_PER_IP: usize = 64;
/// Reports a TCP drive client keeps in flight.
const DRIVE_WINDOW: usize = 64;
/// Simulated minutes between a drive client's window marks.
const MARK_EVERY_MINS: u64 = 10;
/// First retry delay of a drive client's backoff, in milliseconds.
const BACKOFF_BASE_MS: u64 = 2;

/// `SIGINT` on every platform this service targets.
const SIGINT: i32 = 2;
/// `SIGTERM` on every platform this service targets.
const SIGTERM: i32 = 15;

/// Set by the signal handler. The acceptor stops accepting, reader
/// threads wind down at their next tick, and the coordinator drains
/// the in-flight window and exits 0.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// The drain handler: one atomic store, the only thing that is
/// async-signal-safe to do here.
extern "C" fn on_drain_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

extern "C" {
    /// ISO C `signal(2)`, provided by the platform libc that `std`
    /// already links — bound directly to keep the dependency set
    /// closed (no signal-handling crate).
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Arms the drain protocol: `SIGTERM`/`SIGINT` flip [`SHUTDOWN`]
/// instead of killing the process mid-write.
fn install_drain_handler() {
    let handler = on_drain_signal as extern "C" fn(i32) as *const () as usize;
    // SAFETY: `signal` matches the ISO C prototype (libc is linked by std on this platform); the handler only performs one atomic store, which is async-signal-safe; and the handler is a static fn item, so the pointer outlives the process.
    unsafe { (signal(SIGTERM, handler), signal(SIGINT, handler)) };
}

/// True once a drain signal arrived.
fn drain_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Where a shard worker sends the 9-byte reply record.
enum ReplyTo {
    /// The shared write half of the client's TCP stream.
    // lint:allow(P1): service shell — guards only the socket write half; replies are matched by seq, order-free
    Tcp(Arc<Mutex<TcpStream>>),
    /// The server's UDP socket plus the client's return address.
    Udp(Arc<UdpSocket>, SocketAddr),
}

/// One entry in a shard worker's bounded FIFO.
enum ShardCmd {
    /// A report datagram to classify and answer.
    Report {
        payload: Bytes,
        seq: u64,
        reply: ReplyTo,
    },
    /// Seal a window: drain everything below the barrier and report
    /// the shard's running books (the coordinator checkpoints them).
    Drain {
        below: SimTime,
        out: Sender<(Vec<PeerReport>, ShardStats)>,
    },
    /// Final drain; the worker returns its accounting and exits.
    Stop {
        below: SimTime,
        out: Sender<(Vec<PeerReport>, ShardStats)>,
    },
}

/// Control-plane traffic the readers forward to the coordinator.
enum Ctrl {
    Hello { client_id: u32, clients: u32 },
    Mark { client_id: u32, up_to: SimTime },
    Finish { client_id: u32, sent: u64 },
}

/// Shed/defense counters shared by every reader thread. All are
/// connection-plane events the coordinator folds into the final
/// books (and prints), so hostile traffic is visible, not silent.
#[derive(Default)]
struct Counters {
    /// Reports shed `Busy` because a shard FIFO was full.
    queue_shed: AtomicU64,
    /// Reports answered `RateLimited` by a token bucket.
    rate_limited: AtomicU64,
    /// Connections reaped by the idle deadline (slowloris defense).
    reaped: AtomicU64,
    /// Connections refused by the total / per-IP connection caps.
    refused: AtomicU64,
}

/// Everything a reader thread needs, cloned per connection.
#[derive(Clone)]
struct ReaderCtx {
    shards: Arc<Vec<SyncSender<ShardCmd>>>,
    ctrl: Sender<Ctrl>,
    counters: Arc<Counters>,
    idle_timeout_ms: u64,
    rate_limit: u64,
    rate_burst: u64,
    /// The serve epoch — token buckets and the registry's idle clock
    /// both run on milliseconds since this instant.
    epoch: Instant,
}

impl ReaderCtx {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

/// The connection census: total and per-IP caps enforced at accept
/// time, released when the reader thread drops its permit.
struct ConnGovernor {
    max_conns: usize,
    max_per_ip: usize,
    // lint:allow(P1): service shell — guards only the connection census, nothing simulation-visible
    table: Mutex<ConnTable>,
}

#[derive(Default)]
struct ConnTable {
    total: usize,
    per_ip: BTreeMap<IpAddr, usize>,
}

impl ConnGovernor {
    fn new(max_conns: usize, max_per_ip: usize) -> Arc<Self> {
        Arc::new(ConnGovernor {
            max_conns,
            max_per_ip,
            // lint:allow(P1): service shell — guards only the connection census, nothing simulation-visible
            table: Mutex::new(ConnTable::default()),
        })
    }

    /// Admits a connection from `ip`, or refuses it when either cap
    /// is reached. The returned permit releases the slot on drop, so
    /// every reader-thread exit path (EOF, error, reap) decrements.
    fn admit(self: &Arc<Self>, ip: IpAddr) -> Option<ConnPermit> {
        let mut t = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        let mine = t.per_ip.get(&ip).copied().unwrap_or(0);
        if t.total >= self.max_conns || mine >= self.max_per_ip {
            return None;
        }
        t.total += 1;
        t.per_ip.insert(ip, mine + 1);
        Some(ConnPermit {
            gov: Arc::clone(self),
            ip,
        })
    }

    fn release(&self, ip: IpAddr) {
        let mut t = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        t.total = t.total.saturating_sub(1);
        if let Some(n) = t.per_ip.get_mut(&ip) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                t.per_ip.remove(&ip);
            }
        }
    }
}

/// One admitted connection's slot in the census.
struct ConnPermit {
    gov: Arc<ConnGovernor>,
    ip: IpAddr,
}

impl Drop for ConnPermit {
    fn drop(&mut self) {
        self.gov.release(self.ip);
    }
}

fn command() -> Command {
    let serve = Command::new("serve")
        .flags(&[
            Flag::text("--archive", "DIR").required(),
            Flag::text("--listen", "ADDR"),
            Flag::int("--clients", "N"),
            Flag::int("--shards", "N"),
            Flag::int("--pending-cap", "N"),
            Flag::int("--queue-cap", "N"),
            Flag::text("--port-file", "FILE"),
            Flag::switch("--resume"),
            Flag::int("--idle-timeout-ms", "N"),
            Flag::int("--barrier-timeout-ms", "N"),
            Flag::int("--rate-limit", "N"),
            Flag::int("--rate-burst", "N"),
        ])
        .flags(&RunParams::FLAGS[..5]);
    let drive = Command::new("drive")
        .flags(&[
            Flag::text("--server", "ADDR").required(),
            Flag::int("--client-id", "I").required(),
            Flag::int("--clients", "N").required(),
            Flag::one_of("--transport", "tcp|udp"),
            Flag::int("--backoff-cap-ms", "N"),
            Flag::int("--max-attempts", "N"),
            Flag::int("--reconnect", "N"),
        ])
        .flags(&RunParams::FLAGS[..4]);
    Command::new("magellan-traced")
        .subcommand(serve)
        .subcommand(drive)
}

/// Writes one reply record, best-effort: a vanished client shows up
/// in the books as client-side loss, never as a server error.
fn send_reply(reply: &ReplyTo, msg: &ReplyMsg) {
    let bytes = codec::encode_reply(msg);
    match reply {
        ReplyTo::Tcp(stream) => {
            let mut s = stream.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = s.write_all(&bytes);
        }
        ReplyTo::Udp(sock, peer) => {
            let _ = sock.send_to(&bytes, *peer);
        }
    }
}

/// A shard worker: sole owner of one [`Shard`], fed by a bounded
/// FIFO. No locks around admission state — the queue is the only
/// synchronization.
fn shard_worker(mut shard: Shard, rx: Receiver<ShardCmd>) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            ShardCmd::Report {
                payload,
                seq,
                reply,
            } => {
                let status = shard.ingest_wire(&payload);
                send_reply(&reply, &ReplyMsg { seq, status });
            }
            ShardCmd::Drain { below, out } => {
                let _ = out.send((shard.drain_below(below), shard.stats()));
            }
            ShardCmd::Stop { below, out } => {
                let _ = out.send((shard.drain_below(below), shard.stats()));
                return;
            }
        }
    }
}

/// Routes one report to its shard's FIFO. A full queue is the
/// overload backpressure path: the reader answers `Busy` itself and
/// the shed is accounted in `queue_shed` so the books still balance.
fn route_report(
    shards: &[SyncSender<ShardCmd>],
    payload: Bytes,
    seq: u64,
    reply: ReplyTo,
    queue_shed: &AtomicU64,
) {
    let idx = codec::peek_report_addr(&payload)
        .map(|addr| shard_of(addr, shards.len()))
        .unwrap_or(0);
    match shards[idx].try_send(ShardCmd::Report {
        payload,
        seq,
        reply,
    }) {
        Ok(()) => {}
        Err(TrySendError::Full(ShardCmd::Report { seq, reply, .. })) => {
            queue_shed.fetch_add(1, Ordering::SeqCst);
            send_reply(
                &reply,
                &ReplyMsg {
                    seq,
                    status: StatusCode::Busy,
                },
            );
        }
        // Disconnected only during shutdown; stragglers count as lost.
        Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {}
    }
}

/// Serves one TCP connection: length-framed requests in, raw reply
/// records out (written by whichever shard worker classified the
/// report). Returns — closing the connection — on EOF, I/O error,
/// the first undecodable frame (the stream is desynced beyond
/// repair; the client's datagrams become `lost`), the idle deadline
/// (the slowloris defense — a half-open connection cannot pin a
/// reader thread), or a drain signal.
fn tcp_conn(stream: TcpStream, ctx: ReaderCtx) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // A client that stops reading replies must wedge only itself,
    // never a shard worker.
    let _ = write_half.set_write_timeout(Some(Duration::from_secs(5)));
    // The read timeout is the reaper tick: a blocked read wakes every
    // tick to check the idle deadline and the drain flag.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(READ_TICK_MS)));
    // lint:allow(P1): service shell — shares the socket write half with shard workers; replies are seq-matched
    let write_half = Arc::new(Mutex::new(write_half));
    let mut stream = stream;
    let mut frames = FrameReader::new();
    let mut buf = [0u8; 16 * 1024];
    let mut bucket = TokenBucket::new(ctx.rate_limit, ctx.rate_burst);
    // lint:allow(D2): service shell — socket idle deadlines run on wall clock, not simulation time
    let mut last_data = Instant::now();
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if drain_requested() {
                    return;
                }
                if last_data.elapsed().as_millis() as u64 >= ctx.idle_timeout_ms {
                    ctx.counters.reaped.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        last_data = Instant::now(); // lint:allow(D2): service shell — wall-clock idle deadline
        frames.extend(&buf[..n]);
        loop {
            let mut body = match frames.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => break,
                Err(_) => return,
            };
            let Ok(msg) = codec::decode_client_msg(&mut body) else {
                return;
            };
            let admit = || bucket.try_admit(ctx.now_ms());
            let reply = ReplyTo::Tcp(Arc::clone(&write_half));
            if dispatch(&ctx, msg, admit, reply).is_err() {
                return; // coordinator gone — shutdown
            }
        }
    }
}

/// Handles one decoded client message. A report that passes the rate
/// check `admit` is routed to its shard, one that fails it is answered
/// `RateLimited`; control messages go to the coordinator, and an `Err`
/// means the coordinator is gone (shutdown).
fn dispatch(
    ctx: &ReaderCtx,
    msg: ClientMsg,
    admit: impl FnOnce() -> bool,
    reply: ReplyTo,
) -> Result<(), SendError<Ctrl>> {
    let ctrl = match msg {
        ClientMsg::Report { seq, payload } => {
            if admit() {
                route_report(&ctx.shards, payload, seq, reply, &ctx.counters.queue_shed);
            } else {
                ctx.counters.rate_limited.fetch_add(1, Ordering::SeqCst);
                let status = StatusCode::RateLimited;
                send_reply(&reply, &ReplyMsg { seq, status });
            }
            return Ok(());
        }
        ClientMsg::Hello { client_id, clients } => Ctrl::Hello { client_id, clients },
        ClientMsg::WindowMark { client_id, up_to } => Ctrl::Mark { client_id, up_to },
        ClientMsg::Finish { client_id, sent } => Ctrl::Finish { client_id, sent },
    };
    ctx.ctrl.send(ctrl)
}

/// Serves the UDP side: one message per datagram, reports answered
/// with one reply datagram, undecodable datagrams silently dropped
/// (they reconcile as `lost` — there is no sequence number to
/// answer). Rate limiting is per source address, since UDP has no
/// connection to hang a bucket on.
fn udp_reader(sock: Arc<UdpSocket>, ctx: ReaderCtx) {
    let _ = sock.set_read_timeout(Some(Duration::from_millis(READ_TICK_MS)));
    let mut buckets: BTreeMap<SocketAddr, TokenBucket> = BTreeMap::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        let (n, peer) = match sock.recv_from(&mut buf) {
            Ok(v) => v,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if drain_requested() {
                    return;
                }
                continue;
            }
            Err(_) => continue,
        };
        let mut body = &buf[..n];
        let Ok(msg) = codec::decode_client_msg(&mut body) else {
            continue;
        };
        let new_bucket = || TokenBucket::new(ctx.rate_limit, ctx.rate_burst);
        let admit = || {
            buckets
                .entry(peer)
                .or_insert_with(new_bucket)
                .try_admit(ctx.now_ms())
        };
        if dispatch(&ctx, msg, admit, ReplyTo::Udp(Arc::clone(&sock), peer)).is_err() {
            return;
        }
    }
}

/// The coordinator's durable state: archive writer, merge frontier,
/// and the baseline books restored by `--resume` (all zero on a
/// fresh serve).
struct Books {
    writer: ArchiveWriter,
    /// Records landed in the archive, across incarnations — the
    /// checkpoint cursor `--resume` truncates to.
    archived: u64,
    merged_below: SimTime,
    /// Merges across incarnations (starts at the resumed count).
    merges: u64,
    /// Receive-side totals of the previous incarnation.
    base: IngestStats,
    clients: u32,
}

impl Books {
    /// Receive-side totals right now: previous incarnation + the live
    /// shards + the reader-side shed counters. `sent`/`lost`/
    /// `surplus` stay zero until the roster closes — they need the
    /// registry's final word.
    fn compose(&self, registry: &ClientRegistry, shards: &ShardStats, c: &Counters) -> IngestStats {
        IngestStats {
            clients: self.clients,
            sent: 0,
            admitted: self.base.admitted + shards.admitted,
            deduped: self.base.deduped + shards.deduped,
            shed_busy: self.base.shed_busy + shards.shed_busy + c.queue_shed.load(Ordering::SeqCst),
            rejected: self.base.rejected + shards.rejected,
            malformed: self.base.malformed + shards.malformed,
            late: self.base.late + shards.late,
            unavailable: self.base.unavailable + shards.unavailable,
            rate_limited: self.base.rate_limited + c.rate_limited.load(Ordering::SeqCst),
            lost: 0,
            surplus: 0,
            evicted: self.base.evicted + registry.evicted_count(),
            merges: self.merges,
            protocol_errors: self.base.protocol_errors + registry.protocol_errors(),
        }
    }
}

/// Drains every shard below `below` (finally when `stop`), returning
/// the merged batches plus the summed cumulative shard books.
fn drain_shards(
    shard_txs: &[SyncSender<ShardCmd>],
    below: SimTime,
    stop: bool,
) -> Result<(Vec<Vec<PeerReport>>, ShardStats), String> {
    let mut batches = Vec::with_capacity(shard_txs.len());
    let mut totals = ShardStats::default();
    for tx in shard_txs {
        let (out, back) = channel();
        let cmd = if stop {
            ShardCmd::Stop { below, out }
        } else {
            ShardCmd::Drain { below, out }
        };
        tx.send(cmd).map_err(|_| "shard worker died".to_string())?;
        let (batch, stats) = back.recv().map_err(|_| "shard worker died".to_string())?;
        batches.push(batch);
        totals.absorb(&stats);
    }
    Ok((batches, totals))
}

/// Seals everything below the registry's barrier into the archive,
/// then rewrites the `INGEST.resume` checkpoint — append+sync first,
/// checkpoint second, so the cursor never runs ahead of durable
/// records. No-op while the barrier hasn't advanced.
fn seal_ready(
    books: &mut Books,
    registry: &ClientRegistry,
    shard_txs: &[SyncSender<ShardCmd>],
    counters: &Counters,
    archive_dir: &Path,
) -> Result<(), String> {
    let Some(ready) = registry.ready_below() else {
        return Ok(());
    };
    if ready <= books.merged_below {
        return Ok(());
    }
    // Every live client flushed everything below `ready` before
    // marking, and the FIFOs preserve that order — the drains see
    // every covered report. Evicted clients are excluded from the
    // barrier: whatever they still owed reconciles as loss.
    let (batches, totals) = drain_shards(shard_txs, ready, false)?;
    books.merged_below = ready;
    books.merges += 1;
    let merged = merge_sorted(batches);
    for r in &merged {
        books
            .writer
            .append(r)
            .map_err(|e| format!("archive append: {e}"))?;
    }
    books.archived += merged.len() as u64;
    books
        .writer
        .sync()
        .map_err(|e| format!("archive sync: {e}"))?;
    let resume = ServiceResume {
        archived: books.archived,
        merged_below_ms: books.merged_below.as_millis(),
        stats: books.compose(registry, &totals, counters),
    };
    write_service_resume(archive_dir, &resume).map_err(|e| format!("write resume sidecar: {e}"))?;
    Ok(())
}

fn serve(args: &Args) -> Result<(), String> {
    let dir = PathBuf::from(args.get("--archive").unwrap_or_default());
    let resuming = args.has("--resume");
    // On resume the run directory's study.cfg is authoritative — the
    // restarted service must agree with the original parameters.
    let params = RunParams::default().with_args(args, resuming.then_some(dir.as_path()))?;
    let listen = args.get("--listen").unwrap_or("127.0.0.1:0");
    let clients = u32::try_from(args.u64("--clients").unwrap_or(1).max(1))
        .map_err(|_| "--clients out of range".to_string())?;
    let shards = args.u64("--shards").unwrap_or(4).max(1) as usize;
    let pending_cap = args.u64("--pending-cap").unwrap_or(1 << 16).max(1) as usize;
    let queue_cap = args.u64("--queue-cap").unwrap_or(1024).max(1) as usize;
    let idle_timeout_ms = args.u64("--idle-timeout-ms").unwrap_or(30_000).max(1);
    let barrier_timeout_ms = args.u64("--barrier-timeout-ms").unwrap_or(30_000).max(1);
    let rate_limit = args.u64("--rate-limit").unwrap_or(0);
    let rate_burst = args
        .u64("--rate-burst")
        .unwrap_or_else(|| (rate_limit * 2).max(8));
    let window_end = SimTime::at(params.days, 0, 0);

    install_drain_handler();

    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let archive_dir = dir.join("archive");
    let (writer, archived, base, frontier) = if resuming {
        // Crash-resume: reopen the archive at the checkpoint cursor
        // (truncating any torn tail past it) and restore the merge
        // frontier, so already-archived reports shed as `Late` when
        // the drill re-offers them.
        let resume = read_service_resume(&archive_dir)
            .map_err(|e| format!("read resume sidecar: {e}"))?
            .unwrap_or(ServiceResume {
                archived: 0,
                merged_below_ms: 0,
                stats: IngestStats::default(),
            });
        let writer = ArchiveWriter::resume(
            &archive_dir,
            params.durable_config().archive,
            resume.archived,
        )
        .map_err(|e| format!("resume archive: {e}"))?;
        let frontier = SimTime::from_millis(resume.merged_below_ms);
        (writer, resume.archived, resume.stats, frontier)
    } else {
        // The run directory is replay-compatible: study.cfg first, so
        // a killed drill still identifies its parameters.
        atomic_write(&cfg_path(&dir), params.render().as_bytes())
            .map_err(|e| format!("write study.cfg: {e}"))?;
        let writer = ArchiveWriter::create(&archive_dir, params.durable_config().archive)
            .map_err(|e| format!("create archive: {e}"))?;
        (writer, 0, IngestStats::default(), SimTime::ORIGIN)
    };
    let mut books = Books {
        writer,
        archived,
        merged_below: frontier,
        merges: base.merges,
        base,
        clients,
    };

    // One owner thread per shard behind a bounded FIFO. On resume
    // every shard starts at the restored frontier: re-received
    // reports below it are `Late` (their dedup history died with the
    // previous incarnation), at or past it they are admitted fresh.
    let mut shard_txs = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = sync_channel::<ShardCmd>(queue_cap); // lint:allow(P1): service shell — bounded ingest queue, the backpressure mechanism itself
        let shard = Shard::with_frontier(window_end, pending_cap, frontier);
        // lint:allow(D3): service shell — shard owner threads live for the whole process; the drill joins them via Stop
        thread::spawn(move || shard_worker(shard, rx));
        shard_txs.push(tx);
    }
    let shard_txs = Arc::new(shard_txs);
    let counters = Arc::new(Counters::default());
    let (ctrl_tx, ctrl_rx) = channel::<Ctrl>();
    // lint:allow(D2): service shell — the serve epoch anchors socket/barrier deadlines in wall time
    let epoch = Instant::now();
    let ctx = ReaderCtx {
        shards: Arc::clone(&shard_txs),
        ctrl: ctrl_tx,
        counters: Arc::clone(&counters),
        idle_timeout_ms,
        rate_limit,
        rate_burst,
        epoch,
    };

    // TCP and UDP share one port.
    let listener = TcpListener::bind(listen).map_err(|e| format!("bind tcp {listen}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let udp = Arc::new(UdpSocket::bind(local).map_err(|e| format!("bind udp {local}: {e}"))?);

    println!(
        "magellan-traced: listening on {local} (tcp+udp), {clients} client(s), {shards} shard(s), \
         pending cap {pending_cap}, queue cap {queue_cap}{}",
        if resuming {
            format!(
                ", resumed at {} archived record(s), frontier {} ms",
                books.archived,
                books.merged_below.as_millis()
            )
        } else {
            String::new()
        }
    );
    if let Some(path) = args.get("--port-file") {
        // Written atomically so a polling drill script never reads a
        // half-written address.
        atomic_write(Path::new(path), local.to_string().as_bytes())
            .map_err(|e| format!("write {path}: {e}"))?;
    }

    {
        let ctx = ctx.clone();
        let governor = ConnGovernor::new(MAX_CONNS, MAX_CONNS_PER_IP);
        // lint:allow(D3): service shell — the acceptor lives until process exit; it owns no simulation state
        thread::spawn(move || {
            for conn in listener.incoming() {
                if drain_requested() {
                    return; // drain: stop accepting, let readers wind down
                }
                let Ok(stream) = conn else { continue };
                let Some(permit) = stream
                    .peer_addr()
                    .ok()
                    .and_then(|peer| governor.admit(peer.ip()))
                else {
                    ctx.counters.refused.fetch_add(1, Ordering::SeqCst);
                    continue; // dropping the stream closes it — the refusal
                };
                let ctx = ctx.clone();
                // lint:allow(D3): service shell — one reader per connection, detached; connections outlive no window barrier
                thread::spawn(move || {
                    let _permit = permit;
                    tcp_conn(stream, ctx);
                });
            }
        });
    }
    {
        let sock = Arc::clone(&udp);
        let ctx = ctx;
        // lint:allow(D3): service shell — single UDP reader for the whole process lifetime
        thread::spawn(move || udp_reader(sock, ctx));
    }

    // The coordinator: registry, window barrier, archive. The loop
    // ticks instead of blocking, so a vanished client or a drain
    // signal degrades the run instead of wedging it.
    let mut registry = ClientRegistry::new(clients);
    let now_ms = || epoch.elapsed().as_millis() as u64;
    let mut drained_on_signal = false;
    while !registry.all_finished() {
        if drain_requested() {
            // Drain protocol: evict whoever hasn't finished, seal the
            // in-flight window below, and close the books at exit 0.
            let evicted = registry.evict_idle(now_ms(), 0);
            drained_on_signal = true;
            println!(
                "magellan-traced: drain signal — evicted {evicted} unfinished client(s), \
                 sealing the in-flight window"
            );
            break;
        }
        match ctrl_rx.recv_timeout(Duration::from_millis(100)) {
            Ok(Ctrl::Hello { client_id, clients }) => {
                registry.touch(client_id, now_ms());
                registry.hello(client_id, clients);
            }
            Ok(Ctrl::Finish { client_id, sent }) => {
                registry.touch(client_id, now_ms());
                registry.finish(client_id, sent);
            }
            Ok(Ctrl::Mark { client_id, up_to }) => {
                registry.touch(client_id, now_ms());
                registry.mark(client_id, up_to);
                seal_ready(&mut books, &registry, &shard_txs, &counters, &archive_dir)?;
            }
            Err(RecvTimeoutError::Timeout) => {
                // The barrier deadline: a client silent past it is
                // evicted so the window seals as an accounted partial
                // instead of wedging ready_below() forever.
                let evicted = registry.evict_idle(now_ms(), barrier_timeout_ms);
                if evicted > 0 {
                    println!(
                        "magellan-traced: evicted {evicted} client(s) silent past the \
                         {barrier_timeout_ms} ms barrier deadline; sealing a partial window"
                    );
                    seal_ready(&mut books, &registry, &shard_txs, &counters, &archive_dir)?;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err("every reader thread died before the drill finished".to_string())
            }
        }
    }

    // Final drain: stop every shard, merge the tail, close the books.
    let (batches, totals) = drain_shards(&shard_txs, window_end, true)?;
    let final_batch = merge_sorted(batches);
    if !final_batch.is_empty() {
        books.merges += 1;
    }
    for r in &final_batch {
        books
            .writer
            .append(r)
            .map_err(|e| format!("archive append: {e}"))?;
    }
    let sent = registry.total_sent();
    let mut stats = books.compose(&registry, &totals, &counters);
    let summary = books
        .writer
        .finish()
        .map_err(|e| format!("archive finish: {e}"))?;
    stats.sent = sent;
    // Net reconciliation: datagrams the clients sent that never
    // classified are `lost`; classifications beyond what this
    // incarnation's clients sent (chaos duplicates, evicted clients'
    // traffic, crash-resume re-receives) are `surplus`.
    stats.lost = sent.saturating_sub(stats.received());
    stats.surplus = stats.received().saturating_sub(sent);
    write_ingest_stats(&archive_dir, &stats).map_err(|e| format!("write sidecar: {e}"))?;
    println!(
        "magellan-traced: archived {} report(s) in {} sealed segment(s)",
        summary.records, summary.sealed_segments
    );
    println!(
        "magellan-traced: defense reaped_idle {} refused_conns {} drained_on_signal {}",
        counters.reaped.load(Ordering::SeqCst),
        counters.refused.load(Ordering::SeqCst),
        if drained_on_signal { "yes" } else { "no" },
    );
    print!("{}", stats.render());
    if !stats.balanced() {
        return Err(format!("ingest accounting does not balance: {stats:?}"));
    }
    println!("balanced yes");
    Ok(())
    // Reader threads are detached on purpose: the books are closed,
    // and process exit is the shutdown protocol.
}

fn drive(args: &Args) -> Result<(), String> {
    let params = RunParams::default().with_args(args, None)?;
    let server = args.get("--server").unwrap_or_default();
    let client_id = u32::try_from(args.u64("--client-id").unwrap_or_default())
        .map_err(|_| "--client-id out of range".to_string())?;
    let clients = u32::try_from(args.u64("--clients").unwrap_or_default().max(1))
        .map_err(|_| "--clients out of range".to_string())?;
    let transport = args.get("--transport").unwrap_or("tcp");
    let mark_every = SimDuration::from_mins(MARK_EVERY_MINS);
    let cap_ms = args.u64("--backoff-cap-ms").unwrap_or(200);
    let max_attempts =
        u32::try_from(args.u64("--max-attempts").unwrap_or(8).max(1)).unwrap_or(u32::MAX);
    let reconnect = args.u64("--reconnect");

    // Deterministic per-client backoff jitter: same drill, same
    // delays.
    let backoff_seed = params
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(client_id));
    let backoff = NetBackoff::new(BACKOFF_BASE_MS, cap_ms, max_attempts, backoff_seed);
    let mut uplink = if transport == "udp" {
        NetUplink::connect_udp(server, client_id, clients, backoff)
    } else {
        NetUplink::connect_tcp(server, client_id, clients, DRIVE_WINDOW, backoff)
    }
    .map_err(|e| format!("connect {server}: {e}"))?;
    if let Some(budget) = reconnect {
        uplink.set_reconnect_budget(u32::try_from(budget).unwrap_or(u32::MAX));
    }

    let cfg = params.study_config();
    let window_end = SimTime::at(params.days, 0, 0);
    let mut sim = OverlaySim::new(cfg.scenario(), cfg.sim.clone());
    let shard_count = clients as usize;
    let me = client_id as usize;
    let mut next_mark = SimTime::ORIGIN + mark_every;
    let mut io_error: Option<std::io::Error> = None;
    // Every client runs the identical full simulation and sends only
    // its partition — no coordination needed for exactly-once
    // coverage.
    let summary = sim
        .run(|r| {
            if io_error.is_some() {
                return;
            }
            // Report times are nondecreasing across ticks, so seeing
            // `next_mark` means everything below it was offered.
            while r.time >= next_mark {
                if let Err(e) = uplink.mark(next_mark) {
                    io_error = Some(e);
                    return;
                }
                next_mark += mark_every;
            }
            if shard_of(r.addr, shard_count) == me {
                if let Err(e) = uplink.send_report(&r) {
                    io_error = Some(e);
                }
            }
        })
        .map_err(|e| format!("simulation: {e}"))?;
    if let Some(e) = io_error {
        return Err(format!("uplink: {e}"));
    }
    uplink
        .mark(window_end)
        .map_err(|e| format!("final mark: {e}"))?;
    let reconnects = uplink.reconnects();
    let stats = uplink.finish().map_err(|e| format!("finish: {e}"))?;
    println!(
        "magellan-traced drive: client {client_id}/{clients} over {transport} — simulated {} \
         report(s); offered {} delivered {} retransmitted {} rejected {} dropped {} attempts {} \
         backoff-capped {} reconnects {}",
        summary.reports,
        stats.offered,
        stats.delivered,
        stats.retransmitted,
        stats.rejected,
        stats.dropped_permanent,
        stats.attempts,
        stats.backoff_capped,
        reconnects,
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = command().parse_env();
    let result = match args.command {
        "serve" => serve(&args),
        _ => drive(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_governor_enforces_both_caps_and_frees_on_drop() {
        let gov = ConnGovernor::new(2, 1);
        let a: IpAddr = [127, 0, 0, 1].into();
        let b: IpAddr = [127, 0, 0, 2].into();
        let c: IpAddr = [127, 0, 0, 3].into();
        let first = gov.admit(a).expect("first connection from a");
        assert!(gov.admit(a).is_none(), "per-IP cap of 1 must refuse a");
        let second = gov.admit(b).expect("first connection from b");
        assert!(gov.admit(c).is_none(), "total cap of 2 must refuse c");
        drop(first);
        let again = gov.admit(a).expect("dropping a's permit frees its slot");
        drop(second);
        assert!(
            gov.admit(c).is_some(),
            "dropping b's permit frees a total slot"
        );
        drop(again);
    }
}
