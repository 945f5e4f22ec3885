//! The devices: batch workers and online devices.
//!
//! A batch [`Worker`] is one thread owning one simulated device. It is
//! handed its batch slice — each request with the shared [`Deployment`]
//! admission resolved for it — and executes the slice sequentially: an
//! MCU runs one inference at a time. It never plans: deployments arrive
//! with their plans memoized and weights owned, built once by the
//! fleet, and the worker opens one [`Session`] per resident model — the
//! device's SRAM plus the model's flashed weights — that serves every
//! request to that model. The per-thread plan-call counter
//! ([`vmcu_plan::telemetry`]) is reported in [`WorkerStats`] so the
//! zero-replanning contract is gated, not just claimed.
//!
//! An [`OnlineDevice`] runs no inference at all: the fleet calibrates
//! each model once at construction ([`OnlineModel::calibrate`]), and
//! the device charges that calibrated service time, plus staging time
//! on each staging, to its simulated clock as the online pass hands it
//! requests.

use crate::request::{Completion, RequestSpec};
use crate::stats::{OnlineWorkerStats, WorkerStats};
use crate::swap::{Admit, ResidencyLedger};
use std::collections::HashMap;
use vmcu::prelude::*;
use vmcu_tensor::random;

/// Deterministic per-model weight seed: requests to the same model must
/// see the same deployed weights on every worker and every run.
pub(crate) fn model_weight_seed(name: &str) -> u64 {
    // FNV-1a over the model name.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Result of one worker's batch slice.
///
/// Results are keyed by the request's *submission slot* (its position in
/// the batch), not by `RequestSpec::id` — ids are caller-supplied and
/// carry no uniqueness guarantee, so routing by slot is what keeps a
/// batch with duplicate ids well-defined.
#[derive(Debug)]
pub(crate) struct WorkerRun {
    /// Completions keyed by submission slot.
    pub completed: Vec<(usize, Completion)>,
    /// Execution failures keyed by submission slot (typed engine errors
    /// rendered to strings; empty in a healthy build).
    pub failed: Vec<(usize, String)>,
    /// Aggregated device statistics.
    pub stats: WorkerStats,
}

/// One batch job: the request's submission slot, the request, and the
/// deployment of its model.
pub(crate) type Job<'a> = (usize, &'a RequestSpec, &'a Deployment);

/// One simulated device plus its per-model sessions.
#[derive(Debug)]
pub(crate) struct Worker {
    index: usize,
    /// One session per model resident on this device.
    sessions: HashMap<String, Session>,
}

impl Worker {
    pub(crate) fn new(index: usize) -> Self {
        Self {
            index,
            sessions: HashMap::new(),
        }
    }

    /// Executes the worker's slice of the batch in submission order.
    pub(crate) fn run(mut self, jobs: &[Job<'_>]) -> WorkerRun {
        let plan_calls_before = vmcu_plan::telemetry::plan_calls();
        let mut run = WorkerRun {
            completed: Vec::with_capacity(jobs.len()),
            failed: Vec::new(),
            stats: WorkerStats::default(),
        };
        for &(slot, job, deployment) in jobs {
            let session = self
                .sessions
                .entry(job.model.clone())
                .or_insert_with(|| deployment.session());
            let input = random::tensor_i8(&deployment.graph().in_shape(), job.seed);
            match session.infer(&input) {
                Ok(report) => {
                    let latency_ms = report.latency_ms();
                    run.stats.executed += 1;
                    run.stats.busy_ms += latency_ms;
                    run.stats.energy_mj += report.energy_mj();
                    for layer in &report.layers {
                        run.stats.counters += layer.exec.counters;
                    }
                    run.completed.push((
                        slot,
                        Completion {
                            worker: self.index,
                            latency_ms,
                            energy_mj: report.energy_mj(),
                            peak_ram_bytes: report.peak_ram_bytes(),
                        },
                    ));
                }
                Err(e) => run.failed.push((slot, e.to_string())),
            }
        }
        run.stats.plan_calls = vmcu_plan::telemetry::plan_calls() - plan_calls_before;
        run
    }
}

/// Calibrated per-model service cost. The simulated cost model is
/// shape-driven — latency and energy do not depend on input *values* —
/// so one real inference per model prices every request to that model
/// on every device. `tests/serve_online.rs` pins that input-independence.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServiceProfile {
    pub service_us: u64,
    pub energy_mj: f64,
}

/// The serving surface of one catalog model, resolved once by the
/// fleet at construction: its shared deployment, its residency
/// footprint and staging price (derived from the cached plans — no
/// replanning) and its calibrated service cost.
#[derive(Debug, Clone)]
pub(crate) struct OnlineModel {
    /// The model's deployment, shared by every batch worker.
    pub deployment: Deployment,
    /// Peak SRAM demand while serving (residency RAM budget share).
    pub ram_bytes: usize,
    /// Firmware image size (residency Flash budget share).
    pub flash_bytes: usize,
    /// Simulated staging price, µs — charged on every staging.
    pub staging_us: u64,
    /// Calibrated service cost; `None` when the calibrating inference
    /// failed, in which case every request served to the model fails.
    pub service: Option<ServiceProfile>,
}

impl OnlineModel {
    /// Prices `deployment` for serving, running one real inference on a
    /// fresh session to calibrate its service cost.
    pub(crate) fn calibrate(name: &str, deployment: Deployment) -> Self {
        let input = random::tensor_i8(
            &deployment.graph().in_shape(),
            model_weight_seed(name) ^ 0xCA11_B7A7,
        );
        let service = deployment
            .session()
            .infer(&input)
            .ok()
            .map(|report| ServiceProfile {
                service_us: ((report.latency_ms() * 1e3).round() as u64).max(1),
                energy_mj: report.energy_mj(),
            });
        Self {
            ram_bytes: deployment.peak_demand_bytes(),
            flash_bytes: deployment.image_bytes(),
            staging_us: (deployment.staging_ms() * 1e3).round() as u64,
            service,
            deployment,
        }
    }

    /// The calibrated service time the router weighs (0 when
    /// calibration failed: such a request costs no service time).
    pub(crate) fn service_us(&self) -> u64 {
        self.service.map_or(0, |s| s.service_us)
    }
}

/// One simulated device in an online run: its residency ledger,
/// statistics and completion log. Its clock lives beside it, in the
/// clock array the router dispatches against.
#[derive(Debug)]
pub(crate) struct OnlineDevice {
    ledger: ResidencyLedger,
    stats: OnlineWorkerStats,
    /// `(completion_us, sojourn_us)` per served request, in completion
    /// order.
    log: Vec<(u64, u64)>,
}

impl OnlineDevice {
    /// An idle device with nothing resident, whose completion log has
    /// room for `log_capacity` requests.
    pub(crate) fn new(ram_budget: usize, flash_budget: usize, log_capacity: usize) -> Self {
        Self {
            ledger: ResidencyLedger::new(ram_budget, flash_budget),
            stats: OnlineWorkerStats::default(),
            log: Vec::with_capacity(log_capacity),
        }
    }

    /// Serves one request to catalog model `index`, arriving at `at_us`
    /// with deadline `deadline_us`, on a device whose work so far ends
    /// at `clock`. Requests reach a device in arrival order, which under
    /// one SLO is deadline order, so this is the device's
    /// earliest-deadline-first event loop taken one request at a time:
    /// idle until the arrival, shed the request if its deadline already
    /// passed (costing no device time), otherwise make its model
    /// resident (charging staging time on every staging) and serve it
    /// for its calibrated service time.
    pub(crate) fn serve(
        &mut self,
        clock: &mut u64,
        index: usize,
        model: &OnlineModel,
        at_us: u64,
        deadline_us: u64,
    ) {
        self.stats.routed += 1;
        *clock = (*clock).max(at_us);
        if *clock >= deadline_us {
            self.stats.shed += 1;
            return;
        }
        // Residency: stage (and possibly hot-swap) before serving. The
        // staging price comes from the Session API surface
        // (`Deployment::staging_ms`), charged exactly once per staging.
        match self
            .ledger
            .request(index, model.ram_bytes, model.flash_bytes)
        {
            Admit::Hit => {}
            Admit::Staged { .. } => {
                *clock += model.staging_us;
                self.stats.staging_us += model.staging_us;
            }
            // A deployed model always fits an empty device (deploy
            // validated RAM and Flash), so this cannot happen.
            Admit::TooLarge => unreachable!("deployed models fit their device"),
        }
        let Some(service) = model.service else {
            self.stats.failed += 1;
            return;
        };
        *clock += service.service_us;
        self.stats.served += 1;
        self.stats.busy_us += service.service_us;
        self.stats.energy_mj += service.energy_mj;
        if *clock > deadline_us {
            self.stats.slo_violations += 1;
        }
        self.log.push((*clock, *clock - at_us));
    }

    /// The device's completion log and statistics, its clock having
    /// ended at `clock_us`.
    pub(crate) fn finish(self, clock_us: u64) -> (Vec<(u64, u64)>, OnlineWorkerStats) {
        let stats = OnlineWorkerStats {
            clock_us,
            stagings: self.ledger.stagings(),
            swaps: self.ledger.swaps(),
            evictions: self.ledger.evictions(),
            ..self.stats
        };
        (self.log, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deployments_for(models: &[&str]) -> HashMap<String, Deployment> {
        let catalog = crate::catalog::ModelCatalog::standard();
        let engine = Engine::new(Device::stm32_f411re());
        models
            .iter()
            .map(|name| {
                let model = catalog.get(name).expect("model in catalog");
                let weights = model.graph.random_weights(model_weight_seed(name));
                (
                    (*name).to_owned(),
                    engine.deploy(&model.graph, &weights).expect("model fits"),
                )
            })
            .collect()
    }

    #[test]
    fn weight_seeds_are_stable_and_distinct() {
        assert_eq!(model_weight_seed("vww-s5"), model_weight_seed("vww-s5"));
        assert_ne!(model_weight_seed("vww-s5"), model_weight_seed("vww-s6"));
    }

    /// A request to `model` with input seed `seed`.
    fn request(id: u64, model: &str, seed: u64) -> RequestSpec {
        RequestSpec {
            id,
            model: model.into(),
            seed,
        }
    }

    #[test]
    fn worker_executes_jobs_and_aggregates_device_time() {
        let deployments = deployments_for(&["vww-s5", "demo-linear-net"]);
        let requests = [
            request(0, "vww-s5", 1),
            request(1, "vww-s5", 2),
            request(2, "demo-linear-net", 3),
        ];
        let jobs: Vec<Job<'_>> = requests
            .iter()
            .enumerate()
            .map(|(slot, r)| (slot, r, &deployments[&r.model]))
            .collect();
        let run = Worker::new(0).run(&jobs);
        assert_eq!(run.completed.len(), 3);
        assert!(run.failed.is_empty());
        assert_eq!(run.stats.executed, 3);
        assert!(run.stats.busy_ms > 0.0);
        assert!(run.stats.energy_mj > 0.0);
        assert!(run.stats.counters.macs > 0);
        let total: f64 = run.completed.iter().map(|(_, c)| c.latency_ms).sum();
        assert!((run.stats.busy_ms - total).abs() < 1e-9);
        // The whole point of holding deployments: serving plans nothing.
        assert_eq!(run.stats.plan_calls, 0, "workers must never replan");
    }

    fn online_models_for(names: &[&str]) -> Vec<OnlineModel> {
        let deployments = deployments_for(names);
        names
            .iter()
            .map(|name| OnlineModel::calibrate(name, deployments[*name].clone()))
            .collect()
    }

    /// Serves `(model, at_us, deadline_us)` requests in order on one
    /// device and returns its log and statistics.
    fn serve_all(
        models: &[OnlineModel],
        requests: &[(usize, u64, u64)],
        ram_budget: usize,
    ) -> (Vec<(u64, u64)>, OnlineWorkerStats) {
        let mut device = OnlineDevice::new(ram_budget, usize::MAX, requests.len());
        let mut clock = 0;
        for &(index, at_us, deadline_us) in requests {
            device.serve(&mut clock, index, &models[index], at_us, deadline_us);
        }
        device.finish(clock)
    }

    #[test]
    fn online_worker_charges_staging_exactly_once_per_staging() {
        let models = online_models_for(&["vww-s5", "demo-linear-net"]);
        assert!(models[0].ram_bytes > 0 && models[1].ram_bytes > 0);
        assert!(models.iter().all(|m| m.service.is_some()));
        // A RAM budget that fits either model alone but never both:
        // every alternation is a hot swap.
        let ram_budget = models[0].ram_bytes.max(models[1].ram_bytes);
        let requests: Vec<_> = (0..4).map(|i| (i % 2, 0, u64::MAX)).collect();
        let (log, stats) = serve_all(&models, &requests, ram_budget);
        assert_eq!(stats.routed, 4);
        assert_eq!(stats.served, 4);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.failed, 0);
        // 0,1,0,1 with room for one resident: 4 stagings, the last 3
        // evict (hot swaps).
        assert_eq!(stats.stagings, 4);
        assert_eq!(stats.swaps, 3);
        assert_eq!(stats.evictions, 3);
        // The staging clock charge is exactly stagings × per-model
        // price — once per staging, never more, never less.
        let expected = 2 * models[0].staging_us + 2 * models[1].staging_us;
        assert_eq!(stats.staging_us, expected);
        // Nothing idles: the clock is staging plus service, and each
        // completion is that clock so far.
        assert_eq!(stats.clock_us, stats.staging_us + stats.busy_us);
        assert_eq!(log.last(), Some(&(stats.clock_us, stats.clock_us)));
        assert_eq!(stats.plan_calls, 0, "online serving must not plan");
        // And the whole run is deterministic.
        assert_eq!(serve_all(&models, &requests, ram_budget), (log, stats));
    }

    #[test]
    fn online_worker_sheds_expired_requests_at_dispatch() {
        let models = online_models_for(&["demo-linear-net"]);
        let service_us = models[0].service_us();
        assert!(service_us > 0);
        // Two requests arrive together; the deadline lands exactly when
        // the first service completes, so the first finishes on time and
        // the second has expired when its turn comes.
        let deadline = models[0].staging_us + service_us;
        let (log, stats) = serve_all(&models, &[(0, 0, deadline), (0, 0, deadline)], usize::MAX);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.shed, 1, "the second request expired in queue");
        assert_eq!(stats.slo_violations, 0);
        assert_eq!(log, [(deadline, deadline)]);
        // A request that arrives after the device went idle waits for
        // nothing: the clock jumps to its arrival.
        let at = 10 * deadline;
        let (log, stats) = serve_all(&models, &[(0, 0, deadline), (0, at, u64::MAX)], usize::MAX);
        assert_eq!(log, [(deadline, deadline), (at + service_us, service_us)]);
        assert_eq!(stats.clock_us, at + service_us);
    }

    #[test]
    fn worker_results_are_deterministic() {
        let catalog = crate::catalog::ModelCatalog::standard();
        let model = catalog.get("demo-linear-net").unwrap();
        let weights = model
            .graph
            .random_weights(model_weight_seed("demo-linear-net"));
        let deployment = Engine::new(Device::stm32_f767zi())
            .planner(PlannerKind::TinyEngine)
            .deploy(&model.graph, &weights)
            .unwrap();
        let req = request(0, "demo-linear-net", 9);
        let mk = || Worker::new(0).run(&[(0, &req, &deployment)]);
        let (a, b) = (mk(), mk());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.stats, b.stats);
    }
}
