//! Planning-work telemetry: a thread-local counter of planning passes.
//!
//! The deploy-once/run-many contract ("plan once, run many") is only
//! worth anything if it is *checkable*: a session's `infer` must do zero
//! planning work after `deploy`. Every planning entry point in this
//! crate — [`crate::planner::MemoryPlanner::plan`], the node-schedule
//! pricing ([`crate::order::plan_model_for_order`]), the order search
//! ([`crate::order::plan_order`]), the fusion pass
//! ([`crate::fusion::fuse_graph`]), the patch search
//! ([`crate::patch::plan`]), the split partitioner
//! ([`crate::split::plan_split`]), and the chain planner
//! ([`crate::chain::plan_chain`]) — bumps this counter once per call,
//! so a test (or the serve-side bench gate) can snapshot it around a
//! hot path and assert the delta is zero. The layer ranges a pass
//! prices inside its own fusion table are part of that one call.
//!
//! The counter is **thread-local** on purpose: planning done by a worker
//! thread is observable from that thread alone, so concurrently running
//! tests (or fleet workers) never see each other's planning work. A
//! fleet aggregates by having each worker report its own delta.
//!
//! # Examples
//!
//! ```
//! use vmcu_plan::telemetry::plan_calls;
//! use vmcu_plan::{plan_graph, VmcuPlanner};
//! use vmcu_graph::zoo;
//! use vmcu_sim::Device;
//!
//! let before = plan_calls();
//! let _ = plan_graph(&VmcuPlanner::default(), &zoo::demo_linear_net(), &Device::stm32_f411re());
//! assert!(plan_calls() > before, "planning must be visible to telemetry");
//! ```

use std::cell::Cell;

thread_local! {
    static PLAN_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Planning passes recorded on the **current thread** since it started.
/// Monotone; snapshot before and after a region to measure its planning
/// work.
pub fn plan_calls() -> u64 {
    PLAN_CALLS.with(Cell::get)
}

/// Records one planning pass on the current thread. Called by every
/// planning entry point in this crate; custom [`MemoryPlanner`]
/// implementations that override the provided methods should call it
/// too, so "zero replanning" stays checkable for them.
///
/// [`MemoryPlanner`]: crate::planner::MemoryPlanner
pub fn record_plan_call() {
    PLAN_CALLS.with(|c| c.set(c.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotone_and_thread_local() {
        let base = plan_calls();
        record_plan_call();
        record_plan_call();
        assert_eq!(plan_calls(), base + 2);
        // A fresh thread starts from zero, independent of this one.
        let other = std::thread::spawn(|| {
            let t0 = plan_calls();
            record_plan_call();
            plan_calls() - t0
        })
        .join()
        .unwrap();
        assert_eq!(other, 1);
        assert_eq!(plan_calls(), base + 2, "other threads never bleed in");
    }
}
