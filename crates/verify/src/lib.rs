//! `vmcu-verify`: a static plan auditor proving hazard-freedom of every
//! memory plan (vMCU, MLSys 2024).
//!
//! The repo's differential tests check the execution-distance invariant
//! *dynamically* — run the kernels, compare bits. This crate turns the
//! paper's Theorem-style safety argument into machine-checked fact: it
//! takes a resolved [`vmcu::Deployment`] (any planner kind, any zoo
//! model, any ladder device) and, **without executing a kernel**,
//! symbolically replays the schedule as byte-interval read/write events
//! derived from layer shapes plus plan offsets, proving
//!
//! 1. no producer store clobbers a not-yet-consumed input byte,
//! 2. every access stays in bounds of its arena / RAM budget,
//! 3. every tensor is freed exactly once at its last consumer, and
//! 4. every overlapped segment's execution distance, re-derived two
//!    independent ways (interval replay and `vmcu-solver`'s read/write
//!    event bound), matches what the plan carries.
//!
//! Findings are typed [`Violation`]s with the offending layer and byte
//! range; a clean [`AuditReport`] is the certification. [`audit()`] is
//! the entry point: each call derives what depends on a layer alone once
//! per distinct layer, and checks every site the layer appears at
//! against it. Mutation tests (corrupted base, shrunk distance, dropped
//! free) keep the checker honest — see `tests/verify_props.rs` and
//! docs/VERIFY.md.
//!
//! # Example
//!
//! ```
//! use vmcu::prelude::*;
//!
//! let graph = vmcu_graph::zoo::demo_linear_net();
//! let weights = graph.random_weights(7);
//! let dep = Engine::new(Device::stm32_f411re())
//!     .planner(PlannerKind::Vmcu(IbScheme::RowBuffer))
//!     .deploy(&graph, &weights)
//!     .expect("deploys");
//! let report = vmcu_verify::audit(&dep);
//! assert!(report.is_clean(), "{report}");
//! assert!(report.distances_checked > 0);
//! ```

pub mod audit;
pub mod replay;
pub mod schedule;
pub mod violation;

pub use audit::{audit, audit_chain_plan};
pub use replay::{
    check_distance, derive_min_distance, replay_layer, solver_min_distance, LayerSpec, PoolModel,
};
pub use schedule::{audit_schedule, canonical_frees, ScheduleAudit};
pub use violation::{AuditReport, Violation};
