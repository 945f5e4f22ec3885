//! The repository benchmark: seeded workloads through the public API,
//! end-to-end metrics from untraced runs, per-layer metrics from traced
//! runs, and a correctness check on every output. See README.md.

pub mod inputs;
pub mod metrics;
pub mod phases;
pub mod run;
pub mod trace;
