//! # vmcu-plan — memory planners
//!
//! The policy layer of the comparison in §7: given layers or fused
//! modules, each planner reports the RAM it would need.
//!
//! * [`VmcuPlanner`] — segment-level management; numbers come from the
//!   kernels' executable traces, so every figure is deployable by
//!   construction;
//! * [`TinyEnginePlanner`] — tensor-level with in-place depthwise and
//!   im2col staging (the paper's strongest baseline);
//! * [`HmcosPlanner`] — scheduling only, no in-place (weakest on linear
//!   chains);
//! * [`headroom`] — the Figure 11/12 NAS-headroom searches;
//! * [`capacity`] — whole-graph plans and peak SRAM demand, the price
//!   fleet serving (`vmcu-serve`) places resident sets by;
//! * [`fusion`] — the multi-layer segment fusion pass and the
//!   fusion-aware [`FusedPlanner`], which groups fusable layer runs into
//!   single fused chains so fat intermediates never materialize;
//! * [`order`] — execution-order search on branchy DAGs and the
//!   [`ReorderPlanner`]: per-node vMCU windows priced with last-consumer
//!   liveness, executed in the searched minimum-peak topological order,
//!   structurally never worse than the default order;
//! * [`patch`] — patch-based front-stage planning and the
//!   [`PatchedPlanner`]: high-resolution front layers execute as spatial
//!   patches whose receptive-field slabs, not whole tensors, set the
//!   peak — the policy that deploys models whose *input* exceeds SRAM;
//! * [`schedule`] — the deployed [`Schedule`] every planner returns from
//!   [`MemoryPlanner::schedule`]: nodes in a default or searched order,
//!   fused chains, a patched front, or split stages — priced by
//!   [`Schedule::memory_plan`] and executed step for step by the engine;
//! * [`split`] — layer-wise partitioning across 2–8 networked MCUs and
//!   the [`SplitPlanner`]: contiguous per-device stages chosen to
//!   minimize the max per-device peak, the policy that deploys models
//!   no *single* device can hold;
//! * [`telemetry`] — a thread-local counter of planning passes, so the
//!   deploy-once/run-many contract (`session.infer` does zero planning
//!   after `deploy`) is checkable by tests and the serve bench gate.
//!
//! # Examples
//!
//! ```
//! use vmcu_plan::{MemoryPlanner, TinyEnginePlanner, VmcuPlanner};
//! use vmcu_plan::planner::named_ib_layers;
//! use vmcu_graph::zoo;
//! use vmcu_sim::Device;
//!
//! let device = Device::stm32_f411re();
//! let layers = named_ib_layers(&zoo::mcunet_5fps_vww());
//! let te = TinyEnginePlanner.plan(&layers, &device);
//! let vm = VmcuPlanner::default().plan(&layers, &device);
//! assert!(vm.bottleneck_bytes() < te.bottleneck_bytes());
//! ```

pub mod capacity;
pub mod chain;
pub mod fusion;
pub mod headroom;
pub mod hmcos_planner;
pub mod order;
pub mod patch;
pub mod planner;
pub mod schedule;
pub mod split;
pub mod telemetry;
pub mod tinyengine_planner;
pub mod vmcu_planner;

pub use capacity::{peak_demand_bytes, plan_graph};
pub use chain::{plan_chain, ChainPlan};
pub use fusion::{fuse_graph, FusedPlanner, FusionNode, FusionPlan};
pub use hmcos_planner::HmcosPlanner;
pub use order::{plan_order, OrderPlan, ReorderPlanner};
pub use patch::{PatchPlan, PatchedPlanner};
pub use planner::{LayerPlan, MemoryPlan, MemoryPlanner};
pub use schedule::Schedule;
pub use split::{plan_split, SplitPlan, SplitPlanner, SplitStage};
pub use tinyengine_planner::TinyEnginePlanner;
pub use vmcu_planner::VmcuPlanner;
