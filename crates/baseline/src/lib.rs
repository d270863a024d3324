//! # baseline — probabilistic black-box tracing comparators
//!
//! PreciseTracer's related work (§6.1) contrasts it against
//! *probabilistic* black-box correlation: WAP5's nesting algorithm and
//! Project5's convolution algorithm accept imprecision in exchange for
//! weaker observation requirements. This crate implements both so the
//! reproduction can quantify the paper's central qualitative claim —
//! precise correlation vs. probabilistic inference — on identical logs
//! (experiment EXT-1, `repro ext1`):
//!
//! * [`nesting`] — WAP5-style per-**process** causal inference: message
//!   pairing is exact, but a process's outgoing message is attributed to
//!   the *most recent* incoming message of that process. Without thread
//!   identifiers, concurrent requests multiplexed in one process (JBoss,
//!   MySQL) get cross-attributed as load rises.
//! * [`convolution`] — Project5-style aggregate analysis: cross-correlates
//!   per-hop message streams to estimate hop delays; produces no
//!   per-request paths at all.
//! * [`accuracy`] — a shared evaluator comparing inferred record sets
//!   against ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod convolution;
pub mod nesting;

pub use accuracy::{evaluate, BaselineAccuracy};
pub use convolution::{estimate_delay, ConvolutionConfig};
pub use nesting::{infer_paths, InferredPath, NestingConfig};
