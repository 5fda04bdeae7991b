//! Same-seed determinism of the whole pipeline.
//!
//! The Magellan analyses are only reproducible if the simulator is a
//! pure function of its scenario seed: two independent runs with the
//! same seed must produce *byte-identical* trace archives, down to the
//! iteration order of every internal collection. This is the dynamic
//! counterpart of `magellan-lint`'s static D1/D2 rules — the lint pass
//! bans the sources of nondeterminism (hash iteration, wall clocks,
//! entropy), and this test catches anything the ban missed.

use magellan::analysis::study::{MagellanStudy, StudyConfig};
use magellan::netsim::{SimDuration, SimTime, StudyCalendar};
use magellan::overlay::{OverlaySim, SimConfig};
use magellan::prelude::*;
use magellan::trace::{ArchiveConfig, ArchiveWriter};
use magellan::workload::DiurnalProfile;
use std::sync::atomic::{AtomicU64, Ordering};

/// Every archive file (segments and manifest) concatenated in name
/// order, each prefixed by its name.
fn archive_bytes_with(seed: u64, faults: FaultPlan) -> Vec<u8> {
    let mut b = Scenario::builder(seed, 0.0004)
        .calendar(StudyCalendar { window_days: 1 })
        .diurnal(DiurnalProfile::flat());
    if !faults.is_empty() {
        b = b.faults(faults);
    }
    let scenario = b.build();
    let mut sim = OverlaySim::new(scenario, SimConfig::default());
    let (store, summary) = sim.run_collecting().expect("run succeeds");
    assert!(summary.reports > 0, "a run with no reports proves nothing");
    // Each call archives into its own directory: tests run in
    // parallel and compare two same-seed archives.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "magellan-determinism-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let mut writer = ArchiveWriter::create(
        &dir,
        ArchiveConfig {
            segment_bytes: 64 * 1024,
        },
    )
    .expect("create archive");
    for r in store.reports() {
        writer.append(r).expect("append");
    }
    writer.finish().expect("seal archive");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("read archive dir")
        .map(|e| e.expect("entry").path())
        .collect();
    files.sort();
    let mut buf = Vec::new();
    for path in files {
        buf.extend_from_slice(path.file_name().expect("name").as_encoded_bytes());
        buf.extend(std::fs::read(&path).expect("read archive file"));
    }
    std::fs::remove_dir_all(&dir).ok();
    buf
}

fn archive_bytes(seed: u64) -> Vec<u8> {
    archive_bytes_with(seed, FaultPlan::default())
}

/// FNV-1a, so a mismatch shows up as a compact hash diff before the
/// (potentially megabytes-long) byte diff.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let a = archive_bytes(2006);
    let b = archive_bytes(2006);
    assert_eq!(
        fnv1a(&a),
        fnv1a(&b),
        "same-seed trace archives hash differently: the simulator leaked nondeterminism"
    );
    assert_eq!(a, b, "hash collision hid a byte-level divergence");
}

/// A small full study whose report exercises every parallel kernel:
/// clustering, sampled paths, small-world, reciprocity.
fn study_report_debug(seed: u64) -> String {
    let cfg = StudyConfig {
        seed,
        scale: 0.0008,
        window_days: 2,
        sample_every: SimDuration::from_hours(2),
        degree_captures: vec![("9pm d1".into(), SimTime::at(1, 21, 0))],
        min_graph_nodes: 10,
        ..StudyConfig::default()
    };
    format!("{:?}", MagellanStudy::new(cfg).run())
}

#[test]
fn thread_count_does_not_change_output_bytes() {
    // The parallel-equivalence guarantee of magellan-par: the worker
    // count trades wall clock only, never output. Same seed at 1 and
    // 8 workers must yield a byte-identical trace archive and an
    // identical StudyReport (the Debug rendering covers every series
    // point of every figure, so any f64 that drifted by one ulp under
    // a different reduction order would show here).
    magellan::par::set_threads(1);
    let archive_seq = archive_bytes(2006);
    let report_seq = study_report_debug(2006);
    magellan::par::set_threads(8);
    let archive_par = archive_bytes(2006);
    let report_par = study_report_debug(2006);
    magellan::par::set_threads(0);
    assert_eq!(
        fnv1a(&archive_seq),
        fnv1a(&archive_par),
        "trace archives diverge across thread counts"
    );
    assert_eq!(archive_seq, archive_par);
    assert_eq!(
        report_seq, report_par,
        "StudyReport diverges across thread counts"
    );
}

#[test]
fn fault_runs_are_byte_identical_across_repeats_and_thread_counts() {
    // The fault subsystem draws every probabilistic event (crash
    // membership, report loss) from its own RNG fork, so a faulted
    // run must be exactly as reproducible as a clean one — same seed,
    // same plan, same bytes, at any worker count.
    magellan::par::set_threads(1);
    let a = archive_bytes_with(2006, FaultPlan::combined_stress(0));
    magellan::par::set_threads(8);
    let b = archive_bytes_with(2006, FaultPlan::combined_stress(0));
    magellan::par::set_threads(0);
    assert_eq!(
        fnv1a(&a),
        fnv1a(&b),
        "same-seed fault-injected archives hash differently"
    );
    assert_eq!(a, b, "hash collision hid a byte-level divergence");
    // And the plan must actually change the run relative to clean.
    assert_ne!(
        fnv1a(&a),
        fnv1a(&archive_bytes(2006)),
        "the combined stress plan had no effect on the trace"
    );
}

#[test]
fn different_seeds_diverge() {
    let a = archive_bytes(2006);
    let b = archive_bytes(2007);
    assert_ne!(
        fnv1a(&a),
        fnv1a(&b),
        "different seeds produced identical archives: the seed is not reaching the simulator"
    );
}

#[test]
fn incremental_engine_matches_full_recompute_bytes() {
    // The incremental snapshot engine behind the study's Fig. 7
    // clustering and Fig. 8 reciprocity must be interchangeable with a
    // from-scratch rebuild at every boundary — not just approximately,
    // but in the exact bytes of every metric it answers. (The library
    // asserts this internally in debug builds; this test keeps the
    // guarantee pinned in release runs too.) Drive one engine through
    // an evolving overlay-like snapshot sequence with link churn,
    // weight growth, and node turnover, and compare every metric's
    // bit pattern against a fresh engine built from the same snapshot.
    use magellan::graph::IncrementalTopology;

    let g = magellan::graph::random::watts_strogatz(150, 6, 0.2, 42);
    let mut edges: Vec<(u32, u32, u64)> = g
        .edges()
        .map(|e| (e.from.index() as u32, e.to.index() as u32, e.weight.max(1)))
        .collect();
    edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    let mut nodes: Vec<u32> = (0..150).collect();

    let mut live = IncrementalTopology::new();
    for round in 0u64..10 {
        // Persisting links accumulate weight; a slice of links churns
        // out; a new peer joins with two links.
        for e in edges.iter_mut() {
            e.2 += round;
        }
        let cut = edges.len() / 12;
        edges.drain(..cut);
        let fresh = 500 + round as u32;
        edges.push((fresh, (round as u32) % 100, 5));
        edges.push(((round as u32) % 100, fresh, 3));
        edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
        edges.dedup_by_key(|&mut (u, v, _)| (u, v));
        nodes.push(fresh);
        nodes.sort_unstable();
        nodes.dedup();

        live.sync_snapshot(&nodes, &edges);
        let rebuilt = IncrementalTopology::from_snapshot(&nodes, &edges);
        assert!(
            live == rebuilt,
            "round {round}: incremental state diverged from rebuild"
        );
        assert_eq!(
            live.clustering_coefficient().to_bits(),
            rebuilt.clustering_coefficient().to_bits(),
            "round {round}: clustering bytes diverged"
        );
        assert_eq!(
            live.garlaschelli_reciprocity().map(f64::to_bits),
            rebuilt.garlaschelli_reciprocity().map(f64::to_bits),
            "round {round}: reciprocity bytes diverged"
        );
        assert_eq!(
            live.weighted_reciprocity().map(f64::to_bits),
            rebuilt.weighted_reciprocity().map(f64::to_bits),
            "round {round}: weighted reciprocity bytes diverged"
        );
    }
}
