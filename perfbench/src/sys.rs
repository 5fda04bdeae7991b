//! Process accounting and the `magellan-traced serve` child.
//!
//! `std` exposes neither `getrusage` nor `wait4`, and the benchmark
//! needs both: the CPU time and peak RSS of its own measured phase,
//! and those of the serve process it spawns. Both calls come from the
//! platform libc that `std` already links.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const WNOHANG: i32 = 1;

/// CPU time and peak resident set of one process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set in MiB.
    pub peak_rss_mb: f64,
}

impl From<Rusage> for Usage {
    fn from(r: Rusage) -> Self {
        let secs = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            cpu_s: secs(r.utime) + secs(r.stime),
            peak_rss_mb: r.maxrss_kb as f64 / 1024.0,
        }
    }
}

/// This process's CPU time so far and its peak RSS.
pub fn self_usage() -> Usage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a valid, writable `struct rusage` for this ABI.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    if rc != 0 {
        return Usage::default();
    }
    r.into()
}

/// A running `magellan-traced serve`. Dropping it kills and reaps
/// the process, so no error path leaves an orphan holding a port.
pub struct Serve {
    child: Option<Child>,
    /// Address read from the port file.
    pub addr: SocketAddr,
    /// Spawn until the port file held an address.
    pub setup_s: f64,
    /// The serve run directory (archive and sidecar).
    pub dir: PathBuf,
}

/// How serve ended.
pub struct ServeExit {
    /// Exit code (-1 when killed by a signal).
    pub code: i32,
    /// CPU and peak RSS of the serve process.
    pub usage: Usage,
    /// When the exit was observed.
    pub at: Instant,
}

impl Serve {
    /// Spawns serve for `clients` clients on an ephemeral loopback
    /// port, with every other service setting at its default, and
    /// waits for the port file.
    pub fn spawn(bin: &Path, dir: &Path, clients: u32, seed: u64, scale: f64) -> io::Result<Serve> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        std::fs::create_dir_all(dir)?;
        let port_file = dir.join("port");
        let log = std::fs::File::create(dir.join("serve.log"))?;
        let t0 = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("--archive")
            .arg(dir)
            .args(["--clients", &clients.to_string()])
            .args(["--listen", "127.0.0.1:0"])
            .arg("--port-file")
            .arg(&port_file)
            .args(["--seed", &seed.to_string()])
            .args(["--scale", &scale.to_string()])
            .args(["--days", "1"])
            .stdin(Stdio::null())
            .stdout(log.try_clone()?)
            .stderr(log)
            .spawn()?;
        let mut serve = Serve {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
            dir: dir.to_path_buf(),
        };
        let deadline = t0 + Duration::from_secs(20);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                    serve.setup_s = t0.elapsed().as_secs_f64();
                    serve.addr = addr;
                    return Ok(serve);
                }
            }
            if let Some(child) = serve.child.as_mut() {
                if let Some(status) = child.try_wait()? {
                    serve.child = None;
                    return Err(io::Error::other(format!(
                        "serve exited before writing its port file: {status}"
                    )));
                }
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("serve never wrote its port file"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Waits (at most `timeout`) for serve to exit on its own and
    /// collects its accounting.
    pub fn wait(mut self, timeout: Duration) -> io::Result<ServeExit> {
        let Some(child) = self.child.take() else {
            return Err(io::Error::other("serve already reaped"));
        };
        let pid = child.id() as i32;
        let deadline = Instant::now() + timeout;
        loop {
            let mut status = 0i32;
            let mut r = Rusage::default();
            // SAFETY: `pid` is our unreaped child; `status` and `r`
            // are valid for writes.
            let rc = unsafe { wait4(pid, &mut status, WNOHANG, &mut r) };
            if rc == pid {
                let at = Instant::now();
                let code = if status & 0x7f == 0 {
                    (status >> 8) & 0xff
                } else {
                    -1
                };
                return Ok(ServeExit {
                    code,
                    usage: r.into(),
                    at,
                });
            }
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            if Instant::now() > deadline {
                // Hand the child back so Drop kills and reaps it.
                self.child = Some(child);
                return Err(io::Error::other("serve did not exit in time"));
            }
            std::thread::sleep(Duration::from_micros(250));
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
