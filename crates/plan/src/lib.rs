//! # vmcu-plan — memory planners
//!
//! The policy layer of the comparison in §7: given layers or whole
//! models, each planner reports the RAM it would need. There is one
//! planner per policy the paper compares:
//!
//! * [`VmcuPlanner`] — segment-level management; numbers come from the
//!   kernels' executable traces, so every figure is deployable by
//!   construction. Its [`VmcuPass`] picks the pass that shapes a whole
//!   model into a [`Schedule`]: nodes in index order, the searched
//!   order, fused chains, a patched front or split stages;
//! * [`TinyEnginePlanner`] — tensor-level with in-place depthwise and
//!   im2col staging (the paper's strongest baseline);
//! * [`HmcosPlanner`] — scheduling only, no in-place (weakest on linear
//!   chains).
//!
//! The passes and the helpers around them:
//!
//! * [`schedule`] — the deployed [`Schedule`] every planner returns from
//!   [`MemoryPlanner::schedule`]: nodes in a default or searched order,
//!   fused chains, a patched front, or split stages — priced by
//!   [`Schedule::memory_plan`] and executed step for step by the engine;
//! * [`order`] — execution-order search on branchy DAGs
//!   ([`VmcuPass::Reorder`]): per-node vMCU windows priced with
//!   last-consumer liveness, executed in the searched minimum-peak
//!   topological order, structurally never worse than the default order;
//! * [`fusion`] — the multi-layer segment fusion pass
//!   ([`VmcuPass::Fuse`]), which groups fusable layer runs into single
//!   fused chains so fat intermediates never materialize;
//! * [`patch`] — patch-based front-stage planning ([`VmcuPass::Patch`]):
//!   high-resolution front layers execute as spatial patches whose
//!   receptive-field slabs, not whole tensors, set the peak — the pass
//!   that deploys models whose *input* exceeds SRAM;
//! * [`split`] — layer-wise partitioning across 2–8 networked MCUs
//!   ([`VmcuPass::Split`]): contiguous per-device stages chosen to
//!   minimize the max per-device peak, the pass that deploys models no
//!   *single* device can hold;
//! * [`chain`] — the §4 whole-network chain plan: one circular window
//!   threaded through consecutive layers;
//! * [`capacity`] — whole-graph plans ([`plan_graph`]), whose
//!   [`MemoryPlan::peak_demand_bytes`] is the price fleet serving
//!   (`vmcu-serve`) places resident sets by;
//! * [`headroom`] — the Figure 11/12 NAS-headroom searches;
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

pub use capacity::plan_graph;
pub use chain::{plan_chain, ChainPlan};
pub use fusion::{fuse_graph, FusionNode, FusionPlan};
pub use hmcos_planner::HmcosPlanner;
pub use order::{plan_order, OrderPlan};
pub use patch::{PatchPlan, PatchedPlanner};
pub use planner::{LayerPlan, MemoryPlan, MemoryPlanner};
pub use schedule::Schedule;
pub use split::{plan_split, SplitPlan, SplitStage};
pub use tinyengine_planner::TinyEnginePlanner;
pub use vmcu_planner::{VmcuPass, VmcuPlanner};
