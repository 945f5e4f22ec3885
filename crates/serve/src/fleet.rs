//! The fleet scheduler: deploy once, then serve a batch
//! ([`Fleet::run_batch`]) or an online stream ([`Fleet::run_online`]).
//!
//! Planning and serving are split the way the paper splits them:
//!
//! 0. **Deployment (once per fleet).** [`Fleet::new`] deploys every
//!    catalog model that fits the device — fit validated, every plan
//!    artifact memoized, weights owned — and prices each model from its
//!    cached [`MemoryPlan`](vmcu_plan::MemoryPlan). It then calibrates
//!    each deployed model's online service time with one inference.
//!    Serving replans nothing; [`FleetStats`] reports planning time and
//!    plan calls separately from inference time.
//!
//! A batch then runs in three phases:
//!
//! 1. **Admission (sequential, deterministic).** Requests are considered
//!    in submission order; the [`AdmissionController`] prices each model
//!    from the pre-seeded demand cache and pins admitted requests to a
//!    device. Rejections are final for the batch.
//! 2. **Execution (parallel).** One `std::thread` per device drains its
//!    pinned slice through per-model [`Session`](vmcu::Session)s. Which
//!    *host* thread finishes first varies run to run, but every number
//!    reported — latencies, energy, makespan, requests/sec — is
//!    simulated device time, so the report is bit-identical across runs
//!    and machines. Only [`FleetStats::host_wall_ms`] and
//!    [`FleetStats::planning_ms`] are real time.
//!
//! An online stream runs in one pass on the calling thread: each
//! arrival is dispatched against the devices' simulated clocks and
//! served, or shed, on the chosen device at once (see
//! [`Fleet::run_online`]).

use crate::admission::AdmissionController;
use crate::arrivals::ArrivalProfile;
use crate::catalog::ModelCatalog;
use crate::queue::Router;
use crate::request::{Outcome, RequestSpec};
use crate::stats::{FleetStats, OnlineStats, OnlineWorkerStats, PlanningStats, WorkerStats};
use crate::worker::{model_weight_seed, OnlineDevice, OnlineModel, Worker};
use std::collections::HashMap;
use std::time::Instant;
use vmcu::prelude::Deployment;
use vmcu::{EngineError, PlannerKind};
use vmcu_sim::Device;

/// Fleet shape: how many copies of which device, planned how.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The device model every worker simulates.
    pub device: Device,
    /// Number of devices.
    pub workers: usize,
    /// Planning/execution policy for the whole fleet.
    pub planner: PlannerKind,
}

impl FleetConfig {
    /// A fleet of `workers` copies of `device` under `planner`.
    pub fn new(device: Device, workers: usize, planner: PlannerKind) -> Self {
        Self {
            device,
            workers,
            planner,
        }
    }
}

/// Configuration of one online serving run: the load shape, how much of
/// it, and the latency SLO.
///
/// # Examples
///
/// ```
/// use vmcu_serve::{ArrivalProfile, OnlineConfig};
///
/// let cfg = OnlineConfig::new(
///     ArrivalProfile::Poisson { rate_per_sec: 150.0 },
///     10_000,
///     2024,
/// );
/// assert_eq!(cfg.slo_ms, 250.0); // default SLO
/// ```
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// The seeded arrival process.
    pub profile: ArrivalProfile,
    /// Number of requests in the stream.
    pub requests: usize,
    /// Stream seed — same seed, same run, bit for bit.
    pub seed: u64,
    /// Latency SLO in simulated milliseconds: each request's deadline is
    /// its arrival time plus this (saturating: an SLO past the end of
    /// the simulated clock never sheds). Requests not *started* by their
    /// deadline are shed; requests finished past it count as SLO
    /// violations.
    pub slo_ms: f64,
}

impl OnlineConfig {
    /// A run of `requests` arrivals from `profile` under the default
    /// 250 ms SLO.
    pub fn new(profile: ArrivalProfile, requests: usize, seed: u64) -> Self {
        Self {
            profile,
            requests,
            seed,
            slo_ms: 250.0,
        }
    }

    /// Overrides the latency SLO.
    pub fn with_slo_ms(mut self, slo_ms: f64) -> Self {
        self.slo_ms = slo_ms;
        self
    }
}

/// Everything an online run produced.
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// Per-worker device statistics.
    pub workers: Vec<OnlineWorkerStats>,
    /// Aggregated fleet statistics.
    pub stats: OnlineStats,
}

/// Everything a batch run produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-request outcomes in submission order.
    pub outcomes: Vec<(RequestSpec, Outcome)>,
    /// Per-worker device statistics.
    pub workers: Vec<WorkerStats>,
    /// Aggregated fleet statistics.
    pub stats: FleetStats,
}

impl FleetReport {
    /// Outcomes that completed, in submission order.
    pub fn completions(&self) -> impl Iterator<Item = &RequestSpec> {
        self.outcomes
            .iter()
            .filter(|(_, o)| o.completion().is_some())
            .map(|(r, _)| r)
    }
}

/// A fleet of simulated MCUs serving inference requests: one shared
/// [`Deployment`] per deployable catalog model (plan once), per-model
/// [`Session`](vmcu::Session)s on each batch worker (run many), and one
/// calibrated service profile per model for online serving.
#[derive(Debug, Clone)]
pub struct Fleet {
    config: FleetConfig,
    catalog: ModelCatalog,
    /// One deployment per catalog model that fits the device under the
    /// fleet's policy — shared by every worker.
    deployments: HashMap<String, Deployment>,
    /// Per-stage demand prices per catalog model, harvested from the
    /// cached deployment plans (or from the typed deploy rejection), so
    /// admission never replans. Single-element under every single-device
    /// policy; one entry per pipeline stage under the split policy.
    prices: Vec<(String, Vec<usize>)>,
    /// Deploy-phase accounting, reported with every batch.
    planning: PlanningStats,
    /// Each catalog model's online serving surface (footprint, staging
    /// price, calibrated service), by catalog index; `None` for a model
    /// that did not deploy.
    online: Vec<Option<OnlineModel>>,
    /// Online dispatch over the resident sets those footprints place.
    router: Router,
}

impl Fleet {
    /// Creates a fleet and deploys the catalog: every model is planned
    /// exactly once here, no matter how many batches or requests follow.
    /// Each deployed model is then calibrated for online serving: one
    /// inference on a fresh session prices every online request to it.
    /// [`PlanningStats::deploy_ms`] times the deployment alone.
    ///
    /// # Panics
    ///
    /// Panics when the configuration has zero workers.
    pub fn new(config: FleetConfig, catalog: ModelCatalog) -> Self {
        assert!(config.workers > 0, "fleet needs at least one worker");
        let started = Instant::now();
        let plan_calls_before = vmcu_plan::telemetry::plan_calls();
        let engine = vmcu::Engine::new(config.device.clone()).planner(config.planner);
        let mut deployments = HashMap::new();
        let mut prices = Vec::with_capacity(catalog.models().len());
        for model in catalog.models() {
            let weights = model.graph.random_weights(model_weight_seed(model.name));
            match engine.deploy(&model.graph, &weights) {
                Ok(dep) => {
                    // Split deployments price as their per-stage demand
                    // vector (admission places each stage on its own
                    // device); everything else prices at its peak.
                    let stages = match dep.split_plan() {
                        Some(split) => split.stage_demands(),
                        None => vec![dep.peak_demand_bytes()],
                    };
                    prices.push((model.name.to_owned(), stages));
                    deployments.insert(model.name.to_owned(), dep);
                }
                // The typed rejection already carries the planned demand
                // (bottleneck bytes incl. runtime overhead) — harvest it
                // so even non-deployable models are priced exactly once.
                Err(EngineError::DoesNotFit { needed, .. }) => {
                    prices.push((
                        model.name.to_owned(),
                        vec![needed.saturating_sub(config.device.runtime_overhead_bytes)],
                    ));
                }
                // Anything else (unstageable weights, flash overflow) is
                // left unpriced; admission prices it on first sight.
                Err(_) => {}
            }
        }
        let planning = PlanningStats {
            deploy_ms: started.elapsed().as_secs_f64() * 1e3,
            deploy_plan_calls: vmcu_plan::telemetry::plan_calls() - plan_calls_before,
            serve_plan_calls: 0,
        };
        let online: Vec<Option<OnlineModel>> = catalog
            .models()
            .iter()
            .map(|m| {
                let dep = deployments.get(m.name)?;
                Some(OnlineModel::calibrate(m.name, dep))
            })
            .collect();
        let footprints: Vec<Option<(usize, usize)>> = online
            .iter()
            .map(|m| m.as_ref().map(|m| (m.ram_bytes, m.flash_bytes)))
            .collect();
        let router = Router::new(
            config.workers,
            &footprints,
            config.device.usable_ram_bytes(),
            config.device.flash_bytes,
        );
        Self {
            config,
            catalog,
            deployments,
            prices,
            planning,
            online,
            router,
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The model catalog requests resolve against.
    pub fn catalog(&self) -> &ModelCatalog {
        &self.catalog
    }

    /// The shared deployment of a catalog model, if it fits the device
    /// under the fleet's policy.
    pub fn deployment(&self, model: &str) -> Option<&Deployment> {
        self.deployments.get(model)
    }

    /// Deploy-phase accounting (host planning time, plan calls).
    pub fn planning(&self) -> &PlanningStats {
        &self.planning
    }

    /// Runs one batch of requests through admission and the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panics (its panic is
    /// propagated on join).
    pub fn run_batch(&self, requests: &[RequestSpec]) -> FleetReport {
        let started = Instant::now();
        let plan_calls_before = vmcu_plan::telemetry::plan_calls();

        // Phase 1: deterministic admission + dispatch, priced from the
        // cached deployment plans.
        let mut controller = AdmissionController::with_priced_stage_demands(
            self.config.device.clone(),
            self.config.planner,
            self.config.workers,
            self.prices.iter().cloned(),
        );
        // Jobs carry their submission slot: ids are caller-supplied and
        // need not be unique, so slots are the merge key.
        let mut assignments: Vec<Vec<(usize, RequestSpec)>> = vec![Vec::new(); self.config.workers];
        // Outcome slots by position; filled in as results arrive.
        let mut outcomes: Vec<Option<Outcome>> = vec![None; requests.len()];
        let mut rejected = 0usize;
        for (slot, req) in requests.iter().enumerate() {
            let Some(model) = self.catalog.get(&req.model) else {
                outcomes[slot] = Some(Outcome::Rejected(
                    crate::request::RejectReason::UnknownModel,
                ));
                rejected += 1;
                continue;
            };
            match controller.admit(&req.model, &model.graph) {
                Ok(worker) => assignments[worker].push((slot, req.clone())),
                Err(reason) => {
                    outcomes[slot] = Some(Outcome::Rejected(reason));
                    rejected += 1;
                }
            }
        }
        let admission_plan_calls = vmcu_plan::telemetry::plan_calls() - plan_calls_before;

        // Phase 2: one thread per device drains its pinned slice.
        let runs = std::thread::scope(|scope| {
            let handles: Vec<_> = assignments
                .iter()
                .enumerate()
                .map(|(index, jobs)| {
                    let deployments = &self.deployments;
                    scope.spawn(move || Worker::new(index, deployments).run(jobs))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread must not panic"))
                .collect::<Vec<_>>()
        });

        // Phase 3: merge into submission order and aggregate.
        let mut latencies = Vec::new();
        let mut failed = 0usize;
        let mut worker_stats = Vec::with_capacity(runs.len());
        for run in runs {
            for (slot, completion) in run.completed {
                latencies.push(completion.latency_ms);
                outcomes[slot] = Some(Outcome::Completed(completion));
            }
            for (slot, error) in run.failed {
                failed += 1;
                outcomes[slot] = Some(Outcome::Failed(error));
            }
            worker_stats.push(run.stats);
        }
        let planning = PlanningStats {
            serve_plan_calls: admission_plan_calls,
            ..self.planning.clone()
        };
        let stats = FleetStats::aggregate(
            requests.len(),
            rejected,
            failed,
            &latencies,
            &worker_stats,
            &planning,
            started.elapsed().as_secs_f64() * 1e3,
        );
        FleetReport {
            outcomes: requests
                .iter()
                .cloned()
                .zip(outcomes.into_iter().map(|o| o.expect("every slot filled")))
                .collect(),
            workers: worker_stats,
            stats,
        }
    }

    /// Runs a seeded online serving simulation: a continuous arrival
    /// stream dispatched across the devices by their simulated clocks,
    /// with deadline-based shedding and LRU model hot-swap.
    ///
    /// One pass over the seeded stream, on the calling thread. Each
    /// arrival is
    ///
    /// 1. **dispatched** by the residency-aware [`Router`]: to its
    ///    model's home device, unless another device whose resident set
    ///    holds the model can start it more than one calibrated service
    ///    time sooner (then to the one that starts it soonest). A device
    ///    starts a request at the later of its clock and the arrival.
    ///    Requests to models that never deployed are rejected here;
    /// 2. **shed** if it cannot start before its deadline (costing no
    ///    device time), or else **staged** if its model is not resident
    ///    (charging [`Deployment::staging_ms`] of simulated time, and
    ///    evicting least-recently-used models as needed) and **served**
    ///    for the model's calibrated service time, on that device at
    ///    once.
    ///
    /// Under the run's single SLO a request's deadline order is its
    /// arrival order, so serving each device's requests as they arrive
    /// is its earliest-deadline-first schedule. The per-device records
    /// then merge into [`OnlineStats`] — every simulated number
    /// bit-reproducible across hosts and runs
    /// ([`OnlineStats::simulated`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use vmcu_serve::{ArrivalProfile, Fleet, FleetConfig, ModelCatalog, OnlineConfig};
    /// use vmcu::prelude::*;
    ///
    /// let fleet = Fleet::new(
    ///     FleetConfig::new(Device::stm32_f411re(), 2, PlannerKind::Vmcu(IbScheme::RowBuffer)),
    ///     ModelCatalog::standard(),
    /// );
    /// let cfg = OnlineConfig::new(ArrivalProfile::Poisson { rate_per_sec: 60.0 }, 300, 42);
    /// let report = fleet.run_online(&cfg);
    /// assert!(report.stats.completed > 0);
    /// assert_eq!(
    ///     report.stats.offered,
    ///     report.stats.completed + report.stats.shed + report.stats.rejected
    ///         + report.stats.failed,
    /// );
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `cfg.slo_ms` is not a positive finite latency, or if
    /// `cfg.profile` has a non-positive parameter and the catalog is
    /// not empty.
    pub fn run_online(&self, cfg: &OnlineConfig) -> OnlineReport {
        assert!(
            cfg.slo_ms.is_finite() && cfg.slo_ms > 0.0,
            "the SLO must be a positive latency"
        );
        let started = Instant::now();
        let plan_calls_before = vmcu_plan::telemetry::plan_calls();
        let workers = self.config.workers;
        let ram_budget = self.config.device.usable_ram_bytes();
        let flash_budget = self.config.device.flash_bytes;
        let slo_us = (cfg.slo_ms * 1e3).round() as u64;
        let mut clocks = vec![0u64; workers];
        // Any device may serve every request: sized up front, no log
        // ever grows, and the first has room for all of them to merge.
        let mut devices: Vec<OnlineDevice> = (0..workers)
            .map(|_| OnlineDevice::new(ram_budget, flash_budget, cfg.requests))
            .collect();
        let mut rejected = 0;
        if self.online.is_empty() {
            // Nothing deployed, and no model to draw a stream over: every
            // offered request is rejected.
            rejected = cfg.requests;
        } else {
            for a in cfg
                .profile
                .arrivals(cfg.requests, self.online.len(), cfg.seed)
            {
                let Some(model) = &self.online[a.model] else {
                    rejected += 1;
                    continue;
                };
                let device = self
                    .router
                    .dispatch(a.model, a.at_us, model.service_us(), &clocks)
                    .expect("a deployed model's home device holds it");
                // A deadline past the end of the clock never sheds.
                let deadline_us = a.at_us.saturating_add(slo_us);
                devices[device].serve(&mut clocks[device], a.model, model, a.at_us, deadline_us);
            }
        }
        let planning = PlanningStats {
            serve_plan_calls: vmcu_plan::telemetry::plan_calls() - plan_calls_before,
            ..self.planning.clone()
        };
        // Each device logged in completion order: concatenated, the logs
        // are a few sorted runs for the aggregation's merge.
        let mut completions = Vec::new();
        let mut worker_stats = Vec::with_capacity(workers);
        for (device, clock_us) in devices.into_iter().zip(clocks) {
            let (log, stats) = device.finish(clock_us);
            if worker_stats.is_empty() {
                completions = log;
            } else {
                completions.extend_from_slice(&log);
            }
            worker_stats.push(stats);
        }
        let stats = OnlineStats::aggregate(
            cfg.requests,
            rejected,
            &mut completions,
            &worker_stats,
            &planning,
            started.elapsed().as_secs_f64() * 1e3,
        );
        OnlineReport {
            workers: worker_stats,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::random_stream;
    use vmcu::prelude::IbScheme;

    fn fleet(planner: PlannerKind, workers: usize) -> Fleet {
        Fleet::new(
            FleetConfig::new(Device::stm32_f411re(), workers, planner),
            ModelCatalog::standard(),
        )
    }

    #[test]
    fn scheduler_is_deterministic_for_a_seeded_stream() {
        // The loom-free determinism contract: same seed, same worker
        // count => identical outcomes and stats (host wall-clock and
        // host planning time aside), run to run, regardless of thread
        // interleaving.
        let f = fleet(PlannerKind::Vmcu(IbScheme::RowBuffer), 3);
        let requests = random_stream(f.catalog().models(), 48, 0xF1EE7);
        let a = f.run_batch(&requests);
        let b = f.run_batch(&requests);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.workers, b.workers);
        let (mut sa, mut sb) = (a.stats.clone(), b.stats.clone());
        sa.host_wall_ms = 0.0;
        sb.host_wall_ms = 0.0;
        sa.planning_ms = 0.0;
        sb.planning_ms = 0.0;
        assert_eq!(sa, sb);
        assert!(a.stats.completed > 0);
        assert_eq!(a.stats.failed, 0, "no execution failures expected");
    }

    #[test]
    fn serving_replans_nothing_after_deploy() {
        // The deploy-once acceptance criterion at fleet scale: planning
        // happens in Fleet::new; admitting and serving a whole batch
        // performs zero planning passes (every catalog model deploys
        // under the patched policy, so nothing is priced late).
        let f = fleet(PlannerKind::VmcuPatched(IbScheme::RowBuffer), 2);
        assert!(f.planning().deploy_plan_calls > 0, "deploy must plan");
        let requests = random_stream(f.catalog().models(), 32, 11);
        let report = f.run_batch(&requests);
        assert_eq!(
            report.stats.serve_plan_calls, 0,
            "the serving path must not plan"
        );
        assert_eq!(report.stats.plan_calls_per_request, 0.0);
        assert_eq!(
            report.stats.deploy_plan_calls,
            f.planning().deploy_plan_calls
        );
    }

    #[test]
    fn duplicate_request_ids_are_handled_by_submission_slot() {
        // Ids are caller-supplied and may collide; outcomes must still
        // line up one-to-one with the submitted batch.
        let f = fleet(PlannerKind::Vmcu(IbScheme::RowBuffer), 2);
        let dup = |seed| RequestSpec {
            id: 7,
            model: "vww-s5".into(),
            seed,
        };
        let report = f.run_batch(&[dup(1), dup(2), dup(3)]);
        assert_eq!(report.outcomes.len(), 3);
        assert!(report
            .outcomes
            .iter()
            .all(|(_, o)| o.completion().is_some()));
        assert_eq!(report.stats.completed, 3);
    }

    #[test]
    fn unknown_models_are_rejected_not_panicked() {
        let f = fleet(PlannerKind::Vmcu(IbScheme::RowBuffer), 1);
        let report = f.run_batch(&[RequestSpec {
            id: 0,
            model: "not-a-model".into(),
            seed: 1,
        }]);
        assert!(matches!(
            report.outcomes[0].1,
            Outcome::Rejected(crate::request::RejectReason::UnknownModel)
        ));
        assert_eq!(report.stats.rejected, 1);
        assert_eq!(report.stats.completed, 0);
    }

    #[test]
    fn more_workers_admit_no_less_and_serve_strictly_faster() {
        let requests = random_stream(ModelCatalog::standard().models(), 24, 11);
        let one = fleet(PlannerKind::Vmcu(IbScheme::RowBuffer), 1).run_batch(&requests);
        let four = fleet(PlannerKind::Vmcu(IbScheme::RowBuffer), 4).run_batch(&requests);
        // More devices never hurt: admission can only grow (more SRAM to
        // commit residencies against) and throughput must rise. The
        // makespan itself is not monotone — a single capacity-limited
        // device admits *less* of the offered load, so it can finish its
        // smaller batch sooner.
        assert!(four.stats.admitted >= one.stats.admitted);
        assert!(four.stats.requests_per_sec > one.stats.requests_per_sec);
        // Everything the small fleet served, the big one serves too.
        assert!(four.stats.completed >= one.stats.completed);
    }

    #[test]
    fn empty_batch_reports_cleanly() {
        let f = fleet(PlannerKind::TinyEngine, 2);
        let report = f.run_batch(&[]);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.stats.admission_rate, 1.0);
        assert_eq!(report.stats.requests_per_sec, 0.0);
    }
}
