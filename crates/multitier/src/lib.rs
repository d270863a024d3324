//! # multitier — a simulated RUBiS deployment with a TCP_TRACE probe
//!
//! The PreciseTracer paper evaluates on RUBiS (a three-tier eBay-like
//! auction site: Apache httpd → JBoss → MySQL) deployed on an 8-node
//! cluster, traced by SystemTap probes on `tcp_sendmsg`/`tcp_recvmsg`.
//! This crate is the substitute substrate: a deterministic
//! discrete-event model of that deployment that emits **byte-accurate
//! TCP_TRACE records** ([`tracer_core::raw::RawRecord`]) with per-node
//! skewed clocks, plus the ground-truth request tagging the paper used
//! to validate accuracy (§5.2).
//!
//! What is modeled:
//!
//! * closed-loop client emulators with think times and the RUBiS
//!   Browse_Only / Default mixes, session phases (ramp-up / runtime /
//!   ramp-down);
//! * Apache prefork semantics: one process per keep-alive client
//!   connection;
//! * the JBoss connector thread pool (`MaxThreads`, default 40) with
//!   per-request upstream connections, accept/dispatch cost and
//!   keep-alive thread lingering — the Fig. 15/16 bottleneck;
//! * MySQL thread-per-connection workers behind a bounded concurrency
//!   gate;
//! * per-node CPU cores (2-way SMPs), 100 Mbps links with MSS
//!   segmentation and receiver coalescing (the Fig. 4 n-to-n activity
//!   asymmetry);
//! * fault injection: EJB delay, locked `items` table, 10 Mbps NIC
//!   (§5.4.2), and the `MaxThreads` misconfiguration (§5.4.1);
//! * noise generators: ssh/rlogin chatter and an untraced MySQL client
//!   sharing the database (§5.3.3);
//! * probe overhead accounting so that enabling tracing costs CPU
//!   (Figs. 12/13).
//!
//! Entry point: [`experiment::run`] with an
//! [`experiment::ExperimentConfig`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod faults;
pub mod groundtruth;
pub mod probe;
pub mod report;
pub mod spec;
pub mod world;

pub use experiment::{run, ExperimentConfig, ExperimentOutput};
pub use faults::{write_paced, FaultLog, FaultPlan, SourceFault};
pub use groundtruth::{AccuracyReport, RequestTruth, TruthCollector};
pub use probe::{ProbeSink, ProbedNode};
pub use report::ServiceMetrics;
pub use spec::{
    Fault, LbPolicy, Mix, NoiseSpec, Phases, PoolSpec, RequestType, ServiceSpec, TierSpec,
    MAX_REPLICAS,
};
pub use world::{RubisWorld, WorldConfig};
