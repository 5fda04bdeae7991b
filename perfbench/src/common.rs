//! Shared pieces: the benchmark scenario, digests, report
//! canonicalisation, timing statistics and the JSON result line.

use magellan::analysis::durable::DurableConfig;
use magellan::analysis::study::StudyConfig;
use magellan::netsim::{SimDuration, SimTime};
use magellan::trace::ArchiveConfig;
use magellan::workload::{ChannelId, FlashCrowd};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Simulated window of every workload, in days.
pub const DAYS: u64 = 1;

/// Clients the `ingest` workload drives (and the partition count of
/// `shard_of`).
pub const CLIENTS: u32 = 2;

/// TCP uplink window of each ingest client.
pub const WINDOW: usize = 64;

/// Simulated minutes between window marks of each ingest client.
pub const MARK_EVERY_MINS: u64 = 10;

/// Checkpoint cadence of the `study` workload: the default of 512
/// ticks never fires in a 288-tick day.
pub const CHECKPOINT_EVERY_TICKS: u64 = 48;

/// Sampling cadence of `study` (and of the ingest equality check).
pub const STUDY_SAMPLE_MINS: u64 = 60;

/// Sampling cadence of `replay`: 143 boundaries in one day.
pub const REPLAY_SAMPLE_MINS: u64 = 10;

/// The benchmark scenario: one day at `scale`, with the Mid-Autumn
/// flash crowd moved to day 0, 21:00 so the population peak falls
/// inside the window.
pub fn study_config(seed: u64, scale: f64, sample_mins: u64) -> StudyConfig {
    let crowd = FlashCrowd {
        peak: SimTime::at(0, 21, 0),
        ..FlashCrowd::mid_autumn(vec![ChannelId::CCTV1, ChannelId::CCTV4])
    };
    StudyConfig {
        seed,
        scale,
        window_days: DAYS,
        sample_every: SimDuration::from_mins(sample_mins),
        degree_captures: vec![
            ("9am d0".into(), SimTime::at(0, 9, 0)),
            ("9pm d0 (flash)".into(), SimTime::at(0, 21, 0)),
        ],
        flash_crowds: Some(vec![crowd]),
        ..StudyConfig::default()
    }
}

/// Durability settings: default 256 KiB segments, checkpoints every
/// [`CHECKPOINT_EVERY_TICKS`].
pub fn durable_config() -> DurableConfig {
    DurableConfig {
        archive: ArchiveConfig::default(),
        checkpoint_every_ticks: CHECKPOINT_EVERY_TICKS,
        keep_checkpoints: 2,
    }
}

/// FNV-1a over a byte slice, continuing from `h`.
pub fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of a string.
pub fn fnv1a(s: &str) -> u64 {
    fnv1a_from(FNV_BASIS, s.as_bytes())
}

/// Digest and total size of every archive file (segments and
/// manifest), visited in name order. Sidecars written by the service
/// (`INGEST*`) are skipped: they describe the run, not the records.
pub fn archive_digest(dir: &Path) -> io::Result<(u64, u64)> {
    let mut names: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| !n.starts_with("INGEST"))
        .collect();
    names.sort();
    let mut h = FNV_BASIS;
    let mut bytes = 0u64;
    for n in names {
        let data = std::fs::read(dir.join(&n))?;
        h = fnv1a_from(h, n.as_bytes());
        h = fnv1a_from(h, &data);
        bytes += data.len() as u64;
    }
    Ok((h, bytes))
}

/// A report's text with the lines that legitimately differ between a
/// live run, an archive replay and a networked ingest removed: the
/// header and the fault line (simulator-side counters the archive
/// does not carry) and the collection, archive-recovery and ingest
/// accounting lines.
pub fn canonical_text(text: &str) -> String {
    text.lines()
        .filter(|l| {
            !(l.starts_with("=== Magellan study report")
                || l.starts_with("Faults —")
                || l.starts_with("Collection —")
                || l.starts_with("Archive replay —")
                || l.starts_with("Ingest —"))
        })
        .fold(String::new(), |mut out, l| {
            out.push_str(l);
            out.push('\n');
            out
        })
}

/// Percentile by nearest rank over unsorted samples (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Removes a directory tree if it exists.
pub fn wipe(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// A flat JSON object built in insertion order.
#[derive(Default)]
pub struct Json {
    fields: Vec<(String, String)>,
}

impl Json {
    /// A numeric field (non-finite values become 0).
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() { v } else { 0.0 };
        self.fields.push((key.to_string(), format!("{v}")));
        self
    }

    /// An integer field.
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.fields.push((key.to_string(), v.to_string()));
        self
    }

    /// A boolean field.
    pub fn flag(&mut self, key: &str, v: bool) -> &mut Self {
        self.fields.push((key.to_string(), v.to_string()));
        self
    }

    /// A string field.
    pub fn text(&mut self, key: &str, v: &str) -> &mut Self {
        let mut s = String::from("\"");
        for c in v.chars() {
            match c {
                '"' => s.push_str("\\\""),
                '\\' => s.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(s, "\\u{:04x}", c as u32);
                }
                c => s.push(c),
            }
        }
        s.push('"');
        self.fields.push((key.to_string(), s));
        self
    }

    /// A field whose value is already rendered JSON.
    pub fn raw(&mut self, key: &str, v: String) -> &mut Self {
        self.fields.push((key.to_string(), v));
        self
    }

    /// Renders the object on one line.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}
