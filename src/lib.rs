//! # Magellan
//!
//! A full reproduction of **"Magellan: Charting Large-Scale
//! Peer-to-Peer Live Streaming Topologies"** (Wu, Li & Zhao, ICDCS
//! 2007) as a Rust workspace: a discrete-event simulator of the UUSee
//! mesh streaming protocol, the in-protocol measurement substrate the
//! paper describes, and the graph-theoretic analysis that produces
//! every figure of its evaluation.
//!
//! This crate is the facade: it re-exports the sub-crates, offers a
//! [`prelude`], and holds the binaries' shared [`cli`] and [`runcfg`].
//!
//! ## Quickstart
//!
//! ```no_run
//! use magellan::prelude::*;
//!
//! // A small-scale run of the full two-week study.
//! let report = MagellanStudy::with_scale(2006, 0.002).run();
//! println!("{}", report.render_text());
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`graph`] | directed graph + degree/clustering/path/reciprocity/power-law metrics |
//! | [`par`] | deterministic fork-join primitives behind the metric kernels |
//! | [`netsim`] | simulation clock, event queue, ISP database, RTT/bandwidth underlay |
//! | [`workload`] | diurnal arrivals, flash crowds, sessions, channel popularity |
//! | [`overlay`] | the UUSee protocol simulator (tracker, selection, block exchange) |
//! | [`trace`] | peer reports, trace server/store, snapshot reconstruction |
//! | [`analysis`] | the study: classification, topologies, every figure |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cli;
pub mod runcfg;

pub use magellan_analysis as analysis;
pub use magellan_graph as graph;
pub use magellan_netsim as netsim;
pub use magellan_overlay as overlay;
pub use magellan_par as par;
pub use magellan_trace as trace;
pub use magellan_workload as workload;

/// The common entry points, one `use` away.
pub mod prelude {
    pub use magellan_analysis::figures::StudyReport;
    pub use magellan_analysis::study::{MagellanStudy, StudyConfig};
    pub use magellan_graph::{DegreeHistogram, DiGraph, NodeId};
    pub use magellan_netsim::{Isp, IspDatabase, PeerAddr, SimDuration, SimTime, StudyCalendar};
    pub use magellan_overlay::{OverlaySim, SimConfig, SimSummary};
    pub use magellan_trace::{PeerReport, TraceStore};
    pub use magellan_workload::{ChannelDirectory, ChannelId, FaultPlan, Scenario};
}
