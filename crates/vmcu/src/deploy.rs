//! Plan once, run many: [`Deployment`] and [`Session`].
//!
//! vMCU's whole point is that planning — segment-level memory layout,
//! fusion grouping, patch-grid search — happens ahead of time, so the
//! device only executes a fixed schedule. This module makes that split a
//! first-class API:
//!
//! * [`Deployment`] (built via [`Engine::deploy`]) validates the weights
//!   and device fit **once**, memoizes the planner's [`Schedule`] with
//!   the [`MemoryPlan`] pricing it (and, for vMCU chains, the §4 chain
//!   plan), caches the resolved planner, and owns the weights that will
//!   be staged into Flash. Deployments are cheap to clone (`Arc`-backed)
//!   and `Send + Sync`, so a fleet shares one per model across workers.
//! * [`Session`] ([`Deployment::session`]) boots a machine, stages the
//!   firmware image (weights into Flash) once, and then serves
//!   [`Session::infer`] calls with **zero planning work** — checkable
//!   via [`vmcu_plan::telemetry`]. Between inferences only the volatile
//!   state (RAM, counters) resets; the flash image stays resident, and
//!   a leaked-state bug (a kernel programming Flash mid-inference)
//!   surfaces as a typed [`EngineError::StateLeak`], never as silent
//!   corruption.
//!
//! [`Engine::deploy`]: crate::engine::Engine::deploy
//! [`MemoryPlan`]: vmcu_plan::MemoryPlan

use crate::engine::{
    check_epilogues, check_fits, check_input, check_weights, InferenceReport, PlannerKind,
};
use crate::error::EngineError;
use crate::exec::{self, stage_graph, weight_images, ExecCtx, ExecDistances, StagedLayer};
use std::sync::Arc;
use std::time::Instant;
use vmcu_graph::{Graph, LayerWeights};
use vmcu_plan::planner::MemoryPlanner;
use vmcu_plan::{ChainPlan, FusionPlan, MemoryPlan, OrderPlan, PatchPlan, Schedule, SplitPlan};
use vmcu_sim::{Device, Flash, Machine};
use vmcu_tensor::Tensor;

/// Every plan artifact an inference needs, memoized at deploy time.
#[derive(Debug, Clone)]
pub(crate) struct PlanSet {
    /// One row per step of [`schedule`](Self::schedule) — fit
    /// validation and the accounting source for every
    /// [`LayerReport`](crate::engine::LayerReport).
    pub(crate) memory: MemoryPlan,
    /// The schedule the planner deploys the graph with, executed step
    /// for step.
    pub(crate) schedule: Schedule,
    /// The §4 whole-network chain plan (vMCU policy, chain graphs only).
    pub(crate) chain: Option<ChainPlan>,
}

struct DeployInner {
    device: Device,
    kind: PlannerKind,
    planner: Box<dyn MemoryPlanner>,
    graph: Graph,
    weights: Vec<LayerWeights>,
    plans: PlanSet,
    planning_ms: f64,
    image_bytes: usize,
}

impl std::fmt::Debug for DeployInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("device", &self.device.name)
            .field("kind", &self.kind)
            .field("graph", &self.graph.name)
            .field("nodes", &self.plans.memory.layers.len())
            .field("planning_ms", &self.planning_ms)
            .finish_non_exhaustive()
    }
}

/// A model deployed to a device under one policy: weights and fit
/// validated once, plans memoized, planner resolved, weights owned.
/// Cheap to clone and share across threads; create per-device execution
/// state with [`Deployment::session`].
#[derive(Debug, Clone)]
pub struct Deployment {
    inner: Arc<DeployInner>,
}

impl Deployment {
    /// The one construction path, and the one fit gate for a graph: it
    /// checks the weights and epilogues, plans the graph, checks the
    /// firmware image, and then rejects a model whose memory plan does
    /// not fit the device with a typed error naming the bottleneck row.
    /// The image is checked without a machine: its size is the sum of
    /// every layer's [`weight_images`], each placed by [`Flash::place`],
    /// the rule `Flash::program` applies when a session stages them.
    pub(crate) fn new(
        device: Device,
        kind: PlannerKind,
        graph: &Graph,
        weights: &[LayerWeights],
    ) -> Result<Self, EngineError> {
        if weights.len() != graph.len() {
            return Err(EngineError::ShapeMismatch {
                what: "weight tensors".into(),
                expected: vec![graph.len()],
                found: vec![weights.len()],
            });
        }
        for (i, (layer, w)) in graph.layers().iter().zip(weights).enumerate() {
            check_weights(i, layer, w)?;
            check_epilogues(i, layer)?;
        }
        let started = Instant::now();
        let planner = kind.planner();
        // One planning pass serves both the executed schedule and the
        // memory plan it is priced by.
        let schedule = planner.schedule(graph);
        let memory = schedule.memory_plan(&*planner, graph, &device);
        // The §4 chain deployment model threads one circular window
        // through consecutive layers — only defined on chains.
        let chain = match kind {
            PlannerKind::Vmcu(scheme) if graph.is_chain() => {
                Some(vmcu_plan::plan_chain(graph, scheme))
            }
            _ => None,
        };
        let plans = PlanSet {
            memory,
            schedule,
            chain,
        };
        // Validate the firmware image up front so `session()` cannot
        // fail: `stage_graph` programs the same images in the same order
        // under the same capacity rule, so it stages exactly these bytes
        // and fails where this does.
        let mut image_bytes = 0;
        for (layer, w) in graph.layers().iter().zip(weights) {
            for image in weight_images(layer, w)? {
                image_bytes =
                    Flash::place(image_bytes, image.len(), device.flash_bytes)? + image.len();
            }
        }
        check_fits(&plans.memory, &device)?;
        let planning_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(Self {
            inner: Arc::new(DeployInner {
                device,
                kind,
                planner,
                graph: graph.clone(),
                weights: weights.to_vec(),
                plans,
                planning_ms,
                image_bytes,
            }),
        })
    }

    /// The target device.
    pub fn device(&self) -> &Device {
        &self.inner.device
    }

    /// The deployed policy.
    pub fn planner_kind(&self) -> PlannerKind {
        self.inner.kind
    }

    /// The deployed graph.
    pub fn graph(&self) -> &Graph {
        &self.inner.graph
    }

    /// The cached planning policy object — resolved once at deploy, never
    /// re-boxed per call.
    pub fn planner(&self) -> &dyn MemoryPlanner {
        &*self.inner.planner
    }

    /// The memoized whole-graph memory plan (one entry per schedule
    /// step).
    pub fn plan(&self) -> &MemoryPlan {
        &self.inner.plans.memory
    }

    /// The deployed schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.inner.plans.schedule
    }

    /// The memoized fusion plan (fused policy, chain graphs only).
    pub fn fusion_plan(&self) -> Option<&FusionPlan> {
        match &self.inner.plans.schedule {
            Schedule::Fused(fusion) => Some(fusion),
            _ => None,
        }
    }

    /// The memoized patch plan (patched policy, chain graphs only).
    pub fn patch_plan(&self) -> Option<&PatchPlan> {
        match &self.inner.plans.schedule {
            Schedule::Patched(patch) => Some(patch),
            _ => None,
        }
    }

    /// The memoized §4 chain plan (vMCU policy only).
    pub fn chain_plan(&self) -> Option<&ChainPlan> {
        self.inner.plans.chain.as_ref()
    }

    /// The memoized multi-device partition (split policy, chain graphs
    /// only).
    pub fn split_plan(&self) -> Option<&SplitPlan> {
        match &self.inner.plans.schedule {
            Schedule::Split(split) => Some(split),
            _ => None,
        }
    }

    /// The memoized execution-order search result (reorder policy only).
    pub fn order_plan(&self) -> Option<&OrderPlan> {
        self.inner.plans.schedule.order()
    }

    /// Peak SRAM this model commits on its device (activations +
    /// workspace at the bottleneck step, excluding the per-device runtime
    /// overhead): the cached plan's
    /// [`MemoryPlan::peak_demand_bytes`], so admission control never
    /// replans.
    pub fn peak_demand_bytes(&self) -> usize {
        self.inner.plans.memory.peak_demand_bytes()
    }

    /// Host milliseconds spent planning this deployment (fit validation
    /// plus every memoized plan artifact) — the cost `session().infer()`
    /// amortizes away.
    pub fn planning_ms(&self) -> f64 {
        self.inner.planning_ms
    }

    /// Size of the staged firmware image (all weights programmed into
    /// Flash), summed once at deploy time from the images a session
    /// stages — the bytes a hot-swap must re-program.
    ///
    /// # Examples
    ///
    /// ```
    /// use vmcu::prelude::*;
    ///
    /// let g = vmcu_graph::zoo::demo_linear_net();
    /// let weights = g.random_weights(7);
    /// let dep = Engine::new(Device::stm32_f767zi()).deploy(&g, &weights)?;
    /// assert!(dep.image_bytes() > 0);
    /// assert!(dep.image_bytes() <= dep.device().flash_bytes);
    /// # Ok::<(), vmcu::EngineError>(())
    /// ```
    pub fn image_bytes(&self) -> usize {
        self.inner.image_bytes
    }

    /// Simulated device milliseconds to (re-)stage this deployment's
    /// firmware image into Flash — [`image_bytes`](Self::image_bytes)
    /// priced through the device cost model's flash-programming cost.
    ///
    /// This is what a model hot-swap charges: evict a resident model,
    /// stage this one, and the device is busy for `staging_ms()` of
    /// simulated time before it can serve the first request. Staging is
    /// deterministic (pure integer cycle counts scaled by the device
    /// clock), so fleet simulations that charge it stay bit-reproducible.
    ///
    /// # Examples
    ///
    /// ```
    /// use vmcu::prelude::*;
    ///
    /// let g = vmcu_graph::zoo::demo_linear_net();
    /// let weights = g.random_weights(7);
    /// let dep = Engine::new(Device::stm32_f411re()).deploy(&g, &weights)?;
    /// // Programming flash is slow: staging costs real simulated time.
    /// assert!(dep.staging_ms() > 0.0);
    /// # Ok::<(), vmcu::EngineError>(())
    /// ```
    pub fn staging_ms(&self) -> f64 {
        let cycles = self
            .inner
            .device
            .cost
            .flash_write_cost(self.inner.image_bytes as u64);
        self.inner.device.cycles_to_ms(cycles)
    }

    /// The deployed state an inference runs against, with the weights
    /// staged at `staged` and the pool offsets `distances`.
    fn ctx<'a>(&'a self, staged: &'a [StagedLayer], distances: &'a ExecDistances) -> ExecCtx<'a> {
        ExecCtx {
            kind: self.inner.kind,
            device: &self.inner.device,
            graph: &self.inner.graph,
            plans: &self.inner.plans,
            staged,
            distances,
        }
    }

    /// Creates a session: boots a machine for the device, stages the
    /// firmware image (all weights into Flash) and derives the schedule's
    /// pool offsets once. Everything that can fail was validated at
    /// deploy time.
    ///
    /// # Panics
    ///
    /// Panics if staging the firmware image fails — deploy-time
    /// validation of layer kinds and flash capacity rules that out.
    pub fn session(&self) -> Session {
        let mut machine = Machine::new(self.inner.device.clone());
        let staged = stage_graph(&mut machine, self.inner.graph.layers(), &self.inner.weights)
            .expect("deploy validated layer kinds and flash capacity");
        let staged_flash_bytes = machine.flash.used();
        let inner = &self.inner;
        let distances = ExecDistances::new(inner.kind, &inner.graph, &inner.plans.schedule);
        Session {
            deployment: self.clone(),
            machine,
            staged,
            distances,
            staged_flash_bytes,
            inferences: 0,
        }
    }
}

/// Reusable per-device execution state for one deployment: the simulated
/// machine (its RAM buffer alone is the full device SRAM) with the
/// deployment's weights resident in Flash. [`Session::infer`] runs with
/// zero replanning; a long-lived worker keeps one session per resident
/// model and calls it for every request.
#[derive(Debug)]
pub struct Session {
    deployment: Deployment,
    machine: Machine,
    staged: Vec<StagedLayer>,
    distances: ExecDistances,
    staged_flash_bytes: usize,
    inferences: u64,
}

impl Session {
    /// The deployment this session executes.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Inferences served so far.
    pub fn inferences(&self) -> u64 {
        self.inferences
    }

    /// Bytes of Flash this session staged when it booted.
    pub fn staged_flash_bytes(&self) -> usize {
        self.staged_flash_bytes
    }

    /// Simulated device milliseconds it cost to stage this session's
    /// flash image — the price a fleet charges when it hot-swaps this
    /// model onto the device. Delegates to
    /// [`Deployment::staging_ms`].
    pub fn staging_ms(&self) -> f64 {
        self.deployment.staging_ms()
    }

    /// Checks the input against the deployed graph, then resets volatile
    /// machine state between inferences after verifying the deployed
    /// invariants: the staged flash image must be exactly as deploy left
    /// it — a kernel that programmed Flash mid-run is a leaked-state
    /// bug, reported as a typed error, never silently absorbed.
    fn prepare_inference(&mut self, input: &Tensor<i8>) -> Result<(), EngineError> {
        let graph = &self.deployment.inner.graph;
        if graph.is_empty() {
            return Err(EngineError::Unsupported {
                kind: "empty graph",
                executor: self.deployment.inner.kind.name(),
            });
        }
        check_input(&graph.in_shape(), input)?;
        let found = self.machine.flash.used();
        if found != self.staged_flash_bytes {
            return Err(EngineError::StateLeak {
                what: "staged flash image",
                expected: self.staged_flash_bytes,
                found,
            });
        }
        self.machine.reset_volatile();
        Ok(())
    }

    /// Runs one inference through the deployed schedule — no planning,
    /// no flash programming, no allocation beyond the report itself.
    /// Results are bit-identical call after call.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ShapeMismatch`] when the input does not
    /// match the graph's input shape, [`EngineError::StateLeak`] when a
    /// previous inference corrupted deployed state,
    /// [`EngineError::Unsupported`] for layer kinds the policy cannot
    /// run, and pool/memory errors on internal bugs.
    pub fn infer(&mut self, input: &Tensor<i8>) -> Result<InferenceReport, EngineError> {
        self.prepare_inference(input)?;
        let ctx = self.deployment.ctx(&self.staged, &self.distances);
        let report = exec::infer(&ctx, &mut self.machine, input)?;
        self.inferences += 1;
        Ok(report)
    }

    /// Runs one inference chained through a single circular pool (§4's
    /// whole-network deployment model). Only the vMCU policy supports
    /// it, on chain graphs.
    ///
    /// # Errors
    ///
    /// [`EngineError::Unsupported`] for non-vMCU policies and DAGs,
    /// [`EngineError::DoesNotFit`] when the chain window exceeds RAM,
    /// plus the [`Session::infer`] contract.
    pub fn infer_chained(
        &mut self,
        input: &Tensor<i8>,
    ) -> Result<(InferenceReport, ChainPlan), EngineError> {
        self.prepare_inference(input)?;
        let ctx = self.deployment.ctx(&self.staged, &self.distances);
        let out = exec::infer_chained(&ctx, &mut self.machine, input)?;
        self.inferences += 1;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use vmcu_graph::zoo;
    use vmcu_kernels::IbScheme;
    use vmcu_tensor::random;

    fn deployed() -> (Deployment, Tensor<i8>) {
        let g = zoo::demo_linear_net();
        let weights = g.random_weights(7);
        let input = random::tensor_i8(&g.in_shape(), 8);
        let dep = Engine::new(Device::stm32_f767zi())
            .deploy(&g, &weights)
            .unwrap();
        (dep, input)
    }

    #[test]
    fn deployment_memoizes_the_policy_plans() {
        let g = zoo::mbv2_block_unfused();
        let weights = g.random_weights(1);
        let dev = Device::stm32_f411re();
        let vmcu = Engine::new(dev.clone()).deploy(&g, &weights).unwrap();
        assert!(vmcu.chain_plan().is_some(), "vMCU memoizes the chain plan");
        assert!(vmcu.fusion_plan().is_none());
        let fused = Engine::new(dev.clone())
            .planner(PlannerKind::VmcuFused(IbScheme::RowBuffer))
            .deploy(&g, &weights)
            .unwrap();
        assert!(fused.fusion_plan().is_some());
        let patched = Engine::new(dev.clone())
            .planner(PlannerKind::VmcuPatched(IbScheme::RowBuffer))
            .deploy(&g, &weights)
            .unwrap();
        assert!(patched.patch_plan().is_some());
        let te = Engine::new(dev)
            .planner(PlannerKind::TinyEngine)
            .deploy(&g, &weights)
            .unwrap();
        assert!(te.fusion_plan().is_none() && te.patch_plan().is_none());
        assert!(te.planning_ms() >= 0.0);
    }

    #[test]
    fn peak_demand_prices_from_the_cached_plan() {
        let (dep, _) = deployed();
        // Deploy memoizes exactly the plan its planner prices the graph
        // with, and the demand is that plan's.
        let fresh = dep.planner().plan_model(dep.graph(), dep.device());
        assert_eq!(dep.plan(), &fresh);
        assert_eq!(dep.peak_demand_bytes(), fresh.peak_demand_bytes());
    }

    #[test]
    fn session_counts_inferences_and_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Deployment>();
        assert_send::<Session>();
        let (dep, input) = deployed();
        let mut s = dep.session();
        assert_eq!(s.inferences(), 0);
        s.infer(&input).unwrap();
        s.infer(&input).unwrap();
        assert_eq!(s.inferences(), 2);
        assert_eq!(s.deployment().graph().name, "demo-linear-net");
    }

    #[test]
    fn flash_leak_between_inferences_is_a_typed_error() {
        let (dep, input) = deployed();
        let mut s = dep.session();
        s.infer(&input).unwrap();
        // Simulate a kernel bug: extra flash programmed mid-session.
        s.machine.host_program_flash(&[0xAB; 16]).unwrap();
        let err = s.infer(&input).unwrap_err();
        match err {
            EngineError::StateLeak {
                what,
                expected,
                found,
            } => {
                assert_eq!(what, "staged flash image");
                assert_eq!(found, expected + 16);
            }
            other => panic!("expected StateLeak, got {other}"),
        }
    }

    #[test]
    fn staging_is_priced_from_the_probe_image() {
        let (dep, _) = deployed();
        // The image deploy sums equals what a live session stages.
        let s = dep.session();
        assert_eq!(dep.image_bytes(), s.staged_flash_bytes());
        // And the simulated staging price is the flash-write cost of
        // exactly those bytes, scaled by the device clock.
        let dev = dep.device();
        let expected = dev.cycles_to_ms(dev.cost.flash_write_cost(dep.image_bytes() as u64));
        assert_eq!(dep.staging_ms(), expected);
        assert_eq!(s.staging_ms(), expected);
        assert!(expected > 0.0);
    }

    #[test]
    fn oversized_firmware_image_is_rejected_at_deploy() {
        let g = zoo::demo_linear_net();
        let weights = g.random_weights(3);
        let mut dev = Device::stm32_f411re();
        dev.flash_bytes = 64; // far below any real weight image
        let err = Engine::new(dev).deploy(&g, &weights).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Mem(vmcu_sim::MemError::FlashOutOfRange { .. })
        ));
    }
}
