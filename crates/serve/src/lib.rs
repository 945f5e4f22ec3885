//! # vmcu-serve — a fleet scheduler for simulated MCU inference
//!
//! The vMCU paper shows that segment-level memory management shrinks a
//! model's peak SRAM (§7); this crate turns that saving into the number
//! that matters at fleet scale: **how many concurrent requests N devices
//! can admit**. A [`Fleet`] deploys every catalog model **once** at
//! construction (one shared [`vmcu::Deployment`] per model — fit
//! validated, plans memoized, weights owned), owns N simulated
//! Cortex-M4/M7 devices that serve with zero replanning, and places
//! each device's resident set of models once, from the deployments'
//! cached RAM and Flash footprints ([`Router`]). Both serving paths
//! admit exactly the requests whose model that placement holds, and
//! reject only models the fleet could not deploy. A batch run reports
//! requests/sec, admission rate, and p50/p99 latency — all in simulated
//! device time, so every number is bit-reproducible across hosts (the CI
//! bench gate depends on this) — with planning time and plan calls
//! accounted separately from inference time.
//!
//! ## Quickstart: online serving
//!
//! The primary serving path is the **online simulator**
//! ([`Fleet::run_online`]): a seeded [`ArrivalProfile`] generates a
//! continuous request stream, the [`Router`] sends each request to the
//! device holding its model that can start it soonest (its home device
//! unless another starts it more than one service time sooner), each
//! device serves its requests in deadline order and sheds those that
//! cannot start in time, and models hot-swap on and off devices with
//! every staging charged simulated Flash-programming time
//! ([`vmcu::Deployment::staging_ms`]). Service times are calibrated once
//! per model when the fleet is built, so a million-request run is one
//! pass over the stream on one host thread. See `docs/SERVING.md` for
//! the operations handbook.
//!
//! ```
//! use vmcu_serve::{ArrivalProfile, Fleet, FleetConfig, ModelCatalog, OnlineConfig};
//! use vmcu::prelude::*;
//!
//! let fleet = Fleet::new(
//!     FleetConfig::new(Device::stm32_f411re(), 2, PlannerKind::Vmcu(IbScheme::RowBuffer)),
//!     ModelCatalog::standard(),
//! );
//! let cfg = OnlineConfig::new(ArrivalProfile::Poisson { rate_per_sec: 60.0 }, 400, 2024);
//! let report = fleet.run_online(&cfg);
//! assert!(report.stats.completed > 0);
//! assert!(report.stats.p99_sojourn_ms >= report.stats.p50_sojourn_ms);
//! // Same seed => bit-identical simulated stats, on any host.
//! assert_eq!(
//!     report.stats.simulated(),
//!     fleet.run_online(&cfg).stats.simulated(),
//! );
//! ```
//!
//! The legacy **batch path** ([`Fleet::run_batch`]) offers one seeded
//! batch at t = 0, dispatches it with the same [`Router`] rule as the
//! online path, and drains it, one `std::thread` per device running
//! real inferences through per-model [`vmcu::Session`]s. It charges no
//! staging time. It is still the cleanest way to measure the paper's
//! admission-capacity claim:
//!
//! ```
//! use vmcu_serve::{Fleet, FleetConfig, ModelCatalog, random_stream};
//! use vmcu::prelude::*;
//!
//! let fleet = Fleet::new(
//!     FleetConfig::new(Device::stm32_f411re(), 2, PlannerKind::Vmcu(IbScheme::RowBuffer)),
//!     ModelCatalog::standard(),
//! );
//! let requests = random_stream(fleet.catalog().models(), 16, 42);
//! let report = fleet.run_batch(&requests);
//! assert!(report.stats.completed > 0);
//! assert!(report.stats.requests_per_sec > 0.0);
//! ```
//!
//! Swap `PlannerKind::Vmcu(..)` for [`vmcu::PlannerKind::TinyEngine`] and the
//! same stream completes fewer requests: models the vMCU planner fits at
//! 128 KB get rejected by tensor-level planning — the paper's Figure 7
//! deployability gap, measured as fleet throughput.

pub mod arrivals;
pub mod catalog;
pub mod fleet;
pub mod queue;
pub mod request;
pub mod stats;
pub mod swap;
mod worker;

pub use arrivals::{Arrival, ArrivalProfile};
pub use catalog::ModelCatalog;
pub use fleet::{Fleet, FleetConfig, FleetReport, OnlineConfig, OnlineReport};
pub use queue::Router;
pub use request::{random_stream, Completion, Outcome, RejectReason, RequestSpec};
pub use stats::{
    percentile_ms, percentile_us, FleetStats, OnlineStats, OnlineWorkerStats, PlanningStats,
    WorkerStats,
};
pub use swap::{Admit, ResidencyLedger};
