//! Shared run-directory configuration for the `magellan` binaries.
//!
//! A run directory carries a `study.cfg` describing the CLI-settable
//! study parameters; `magellan study --resume`, `magellan replay`,
//! the networked `magellan-traced` service and `figures --archive`
//! all reconstruct the exact configuration (and fingerprint) from it.
//! The study flags are parsed once, by [`RunParams::with_args`].
//! Everything not listed here stays at [`StudyConfig::default`].

use crate::cli::{Args, Flag};
use magellan_analysis::durable::DurableConfig;
use magellan_analysis::study::StudyConfig;
use magellan_netsim::SimDuration;
use magellan_trace::ArchiveConfig;
use std::path::{Path, PathBuf};

/// The CLI-settable subset of the study parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RunParams {
    /// Experiment seed.
    pub seed: u64,
    /// Population scale factor relative to the paper's deployment.
    pub scale: f64,
    /// Study window length in days.
    pub days: u64,
    /// Figure sampling cadence in minutes.
    pub sample_every_mins: u64,
    /// Simulator ticks between durable checkpoints.
    pub checkpoint_every_ticks: u64,
    /// Archive segment roll size in bytes.
    pub segment_bytes: u64,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            seed: 2006,
            scale: 0.002,
            days: 2,
            sample_every_mins: 60,
            checkpoint_every_ticks: 512,
            segment_bytes: 256 * 1024,
        }
    }
}

impl RunParams {
    /// The study flags, one per field. Each binary accepts a prefix:
    /// `drive` and `figures` the first four, `serve` the first five,
    /// `study` all six.
    pub const FLAGS: [Flag; 6] = [
        Flag::int("--seed", "N"),
        Flag::float("--scale", "F"),
        Flag::int("--days", "N"),
        Flag::int("--sample-every-mins", "N"),
        Flag::int("--segment-bytes", "N"),
        Flag::int("--checkpoint-every-ticks", "N"),
    ];

    /// The parameters a parsed command line selects. Without a run
    /// directory, each study flag given overrides its field of `self`.
    /// With one, its `study.cfg` replaces `self` and a study flag given
    /// must equal it, so a resume or replay cannot silently change the
    /// parameters of the run it continues.
    ///
    /// # Errors
    ///
    /// An unreadable `study.cfg`, or a study flag that differs from
    /// it, naming the flag and both values.
    pub fn with_args(self, args: &Args, run_dir: Option<&Path>) -> Result<Self, String> {
        let mut p = match run_dir {
            Some(dir) => load_params(dir)?,
            None => self,
        };
        // The scale is compared and stored as raw bits, as study.cfg keeps it.
        let mut scale = p.scale.to_bits();
        let fields = [
            &mut p.seed,
            &mut scale,
            &mut p.days,
            &mut p.sample_every_mins,
            &mut p.segment_bytes,
            &mut p.checkpoint_every_ticks,
        ];
        for (flag, field) in Self::FLAGS.iter().zip(fields) {
            let name = flag.name;
            let (given, recorded) = match name {
                "--scale" => (
                    args.f64(name).map(f64::to_bits),
                    f64::from_bits(*field).to_string(),
                ),
                _ => (args.u64(name), field.to_string()),
            };
            match (given, run_dir) {
                (Some(v), Some(dir)) if v != *field => {
                    return Err(format!(
                        "{name} {} differs from {recorded} in {}",
                        args.get(name).unwrap_or_default(),
                        cfg_path(dir).display()
                    ))
                }
                (Some(v), _) => *field = v,
                (None, _) => {}
            }
        }
        p.scale = f64::from_bits(scale);
        Ok(p)
    }

    /// Renders the stable `study.cfg` key-value format. The scale is
    /// persisted as raw bits so the round-trip is exact.
    pub fn render(&self) -> String {
        format!(
            "version 1\nseed {}\nscale_bits {:016x}\ndays {}\nsample_every_mins {}\n\
             checkpoint_every_ticks {}\nsegment_bytes {}\n",
            self.seed,
            self.scale.to_bits(),
            self.days,
            self.sample_every_mins,
            self.checkpoint_every_ticks,
            self.segment_bytes,
        )
    }

    /// Parses [`RunParams::render`] output.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = RunParams::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("study.cfg line {}: expected `key value`", i + 1))?;
            let num = |radix: u32| {
                u64::from_str_radix(value, radix)
                    .map_err(|e| format!("study.cfg line {}: {key}: {e}", i + 1))
            };
            match key {
                "version" => {
                    if value != "1" {
                        return Err(format!("study.cfg version {value} not supported"));
                    }
                }
                "seed" => p.seed = num(10)?,
                "scale_bits" => p.scale = f64::from_bits(num(16)?),
                "days" => p.days = num(10)?,
                "sample_every_mins" => p.sample_every_mins = num(10)?,
                "checkpoint_every_ticks" => p.checkpoint_every_ticks = num(10)?,
                "segment_bytes" => p.segment_bytes = num(10)?,
                _ => return Err(format!("study.cfg line {}: unknown key {key}", i + 1)),
            }
        }
        Ok(p)
    }

    /// The full study configuration these parameters select.
    pub fn study_config(&self) -> StudyConfig {
        StudyConfig {
            seed: self.seed,
            scale: self.scale,
            window_days: self.days,
            sample_every: SimDuration::from_mins(self.sample_every_mins),
            ..StudyConfig::default()
        }
    }

    /// The durability configuration these parameters select.
    pub fn durable_config(&self) -> DurableConfig {
        DurableConfig {
            archive: ArchiveConfig {
                segment_bytes: self.segment_bytes,
            },
            checkpoint_every_ticks: self.checkpoint_every_ticks,
            keep_checkpoints: 2,
        }
    }
}

/// The `study.cfg` path inside a run directory.
pub fn cfg_path(dir: &Path) -> PathBuf {
    dir.join("study.cfg")
}

/// Loads and parses a run directory's `study.cfg`.
///
/// # Errors
///
/// A human-readable message covering both I/O and parse failures.
pub fn load_params(dir: &Path) -> Result<RunParams, String> {
    let path = cfg_path(dir);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "read {}: {e} (not a magellan run directory?)",
            path.display()
        )
    })?;
    RunParams::parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_round_trip_through_cfg_text() {
        let p = RunParams {
            seed: 7,
            scale: 0.000_8,
            days: 1,
            sample_every_mins: 120,
            checkpoint_every_ticks: 64,
            segment_bytes: 16 * 1024,
        };
        let back = RunParams::parse(&p.render()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.scale.to_bits(), p.scale.to_bits());
    }

    fn args(line: &str) -> Args {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        crate::cli::Command::new("t")
            .flags(&RunParams::FLAGS)
            .parse(&argv)
            .unwrap()
    }

    #[test]
    fn study_flags_override_the_base_without_a_run_directory() {
        let line = "--seed 7 --scale 0.0005 --days 3 --sample-every-mins 30 \
                    --segment-bytes 4096 --checkpoint-every-ticks 8";
        let p = RunParams::default().with_args(&args(line), None).unwrap();
        let want = RunParams {
            seed: 7,
            scale: 0.0005,
            days: 3,
            sample_every_mins: 30,
            segment_bytes: 4096,
            checkpoint_every_ticks: 8,
        };
        assert_eq!(p, want);
        let none = RunParams::default().with_args(&args(""), None).unwrap();
        assert_eq!(none, RunParams::default());
    }

    #[test]
    fn study_flags_beside_a_run_directory_must_match_it() {
        let dir = std::env::temp_dir().join(format!("magellan-runcfg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let recorded = RunParams {
            seed: 9,
            scale: 0.0005,
            ..RunParams::default()
        };
        std::fs::write(cfg_path(&dir), recorded.render()).unwrap();
        let base = RunParams::default();
        let same = args("--seed 9 --scale 0.0005 --days 2");
        assert_eq!(base.clone().with_args(&same, Some(&dir)).unwrap(), recorded);
        assert_eq!(
            base.clone().with_args(&args(""), Some(&dir)).unwrap(),
            recorded
        );
        let e = base
            .clone()
            .with_args(&args("--seed 7"), Some(&dir))
            .unwrap_err();
        assert!(e.contains("--seed 7 differs from 9"), "{e}");
        let e = base
            .with_args(&args("--scale 0.001"), Some(&dir))
            .unwrap_err();
        assert!(e.contains("--scale 0.001 differs from 0.0005"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn params_reject_garbage() {
        assert!(RunParams::parse("version 2\n").is_err());
        assert!(RunParams::parse("seed\n").is_err());
        assert!(RunParams::parse("mystery 4\n").is_err());
    }
}
