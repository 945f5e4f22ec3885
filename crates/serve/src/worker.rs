//! The worker: one thread owning one simulated device.
//!
//! A worker is handed its batch slice (requests pinned to its device by
//! admission control) and executes them sequentially — an MCU runs one
//! inference at a time. It never plans: models arrive as shared
//! [`Deployment`]s (plans memoized, weights owned, built once by the
//! fleet), and the worker opens one [`Session`] per resident model — the
//! device's SRAM plus the model's flashed weights — that serves every
//! request to that model. The per-thread plan-call counter
//! ([`vmcu_plan::telemetry`]) is reported in [`WorkerStats`] so the
//! zero-replanning contract is gated, not just claimed.

use crate::queue::{EdfQueue, QueuedRequest};
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

/// One simulated device plus its per-model sessions.
#[derive(Debug)]
pub(crate) struct Worker<'a> {
    index: usize,
    /// Shared deployments, one per deployable catalog model.
    deployments: &'a HashMap<String, Deployment>,
    /// One session per model resident on this device.
    sessions: HashMap<String, Session>,
}

impl<'a> Worker<'a> {
    pub(crate) fn new(index: usize, deployments: &'a HashMap<String, Deployment>) -> Self {
        Self {
            index,
            deployments,
            sessions: HashMap::new(),
        }
    }

    /// Executes the worker's slice of the batch (submission slot + spec
    /// pairs) in submission order.
    pub(crate) fn run(mut self, jobs: &[(usize, RequestSpec)]) -> WorkerRun {
        let plan_calls_before = vmcu_plan::telemetry::plan_calls();
        let mut run = WorkerRun {
            completed: Vec::with_capacity(jobs.len()),
            failed: Vec::new(),
            stats: WorkerStats::default(),
        };
        for (slot, job) in jobs {
            // Admission prices RAM only, so in principle a model can be
            // admitted that never deployed (e.g. its firmware image
            // exceeded Flash). Degrade to a typed per-request failure —
            // the legacy per-request execution error — not a panic that
            // would abort the whole batch.
            let Some(deployment) = self.deployments.get(&job.model) else {
                run.failed.push((
                    *slot,
                    format!("model `{}` is not deployed on this fleet", job.model),
                ));
                continue;
            };
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
                        *slot,
                        Completion {
                            worker: self.index,
                            latency_ms,
                            energy_mj: report.energy_mj(),
                            peak_ram_bytes: report.peak_ram_bytes(),
                        },
                    ));
                }
                Err(e) => run.failed.push((*slot, e.to_string())),
            }
        }
        run.stats.plan_calls = vmcu_plan::telemetry::plan_calls() - plan_calls_before;
        run
    }
}

/// A request routed to one device's online queue (times in simulated
/// microseconds; `model` is a catalog index).
#[derive(Debug, Clone, Copy)]
pub(crate) struct OnlineJob {
    pub at_us: u64,
    pub deadline_us: u64,
    pub seq: u64,
    pub model: usize,
}

/// The serving surface of one catalog model, resolved once by the
/// fleet: the shared deployment plus its residency footprint and
/// staging price (all derived from the cached plans — no replanning).
#[derive(Debug, Clone)]
pub(crate) struct OnlineModel {
    pub name: String,
    pub deployment: Deployment,
    /// Peak SRAM demand while serving (residency RAM budget share).
    pub ram_bytes: usize,
    /// Firmware image size (residency Flash budget share).
    pub flash_bytes: usize,
    /// Simulated staging price, µs — charged on every staging.
    pub staging_us: u64,
}

/// Calibrated per-model service cost. The simulated cost model is
/// shape-driven — latency and energy do not depend on input *values* —
/// so one real inference per (device, model) prices every request to
/// that model. `tests/serve_online.rs` pins that input-independence.
#[derive(Debug, Clone, Copy)]
struct ServiceProfile {
    service_us: u64,
    energy_mj: f64,
}

/// Result of one device's online run.
#[derive(Debug)]
pub(crate) struct OnlineWorkerRun {
    /// `(completion_us, sojourn_us)` per served request, in completion
    /// order.
    pub completions: Vec<(u64, u64)>,
    pub stats: OnlineWorkerStats,
}

/// Drains one device's arrival lane through an EDF queue with
/// deadline-based shedding and LRU hot-swap.
///
/// The event loop runs on an integer microsecond clock: pull arrivals
/// that have occurred, pop the most urgent queued request, shed it if
/// its deadline already passed, otherwise make its model resident
/// (charging staging time on every staging) and serve it for its
/// calibrated service time. Staging is ledger bookkeeping plus the
/// simulated charge; the only [`Session`] the loop builds is the one
/// that calibrates a model on its first service. `jobs` must be sorted
/// by arrival time (routing preserves arrival order).
pub(crate) fn run_online(
    models: &[Option<OnlineModel>],
    jobs: &[OnlineJob],
    ram_budget: usize,
    flash_budget: usize,
) -> OnlineWorkerRun {
    let plan_calls_before = vmcu_plan::telemetry::plan_calls();
    let mut stats = OnlineWorkerStats {
        routed: jobs.len(),
        ..Default::default()
    };
    let mut completions = Vec::with_capacity(jobs.len());
    let mut ledger = ResidencyLedger::new(ram_budget, flash_budget);
    // Calibrated service profiles survive eviction: a model that swaps
    // back in pays staging time again, but never re-calibrates.
    let mut profiles: Vec<Option<Result<ServiceProfile, ()>>> = vec![None; models.len()];
    let mut queue = EdfQueue::new();
    let mut next_arrival = 0usize;
    let mut now: u64 = 0;
    loop {
        while next_arrival < jobs.len() && jobs[next_arrival].at_us <= now {
            let j = jobs[next_arrival];
            queue.push(QueuedRequest {
                deadline_us: j.deadline_us,
                seq: j.seq,
                at_us: j.at_us,
                model: j.model,
            });
            next_arrival += 1;
        }
        let Some(job) = queue.pop() else {
            if next_arrival < jobs.len() {
                // Idle until the next arrival.
                now = now.max(jobs[next_arrival].at_us);
                continue;
            }
            break;
        };
        // Shed-on-deadline: a request whose deadline passed before
        // service could start is dropped, costing no device time.
        if now >= job.deadline_us {
            stats.shed += 1;
            continue;
        }
        let model = models[job.model]
            .as_ref()
            .expect("routing rejects undeployed models");
        // Residency: stage (and possibly hot-swap) before serving. The
        // staging price comes from the Session API surface
        // (`Deployment::staging_ms`), charged exactly once per staging.
        match ledger.request(job.model, model.ram_bytes, model.flash_bytes) {
            Admit::Hit => {}
            Admit::Staged { .. } => {
                now += model.staging_us;
                stats.staging_us += model.staging_us;
            }
            // A deployed model always fits an empty device (deploy
            // validated RAM and Flash), so this cannot happen.
            Admit::TooLarge => unreachable!("deployed models fit their device"),
        }
        // Calibrate on first service: one real inference on a fresh
        // session prices the model; every later request reuses the
        // profile.
        let profile = match profiles[job.model] {
            Some(p) => p,
            None => {
                let input = random::tensor_i8(
                    &model.deployment.graph().in_shape(),
                    model_weight_seed(&model.name) ^ 0xCA11_B7A7,
                );
                let measured = model
                    .deployment
                    .session()
                    .infer(&input)
                    .map(|report| ServiceProfile {
                        service_us: ((report.latency_ms() * 1e3).round() as u64).max(1),
                        energy_mj: report.energy_mj(),
                    })
                    .map_err(|_| ());
                profiles[job.model] = Some(measured);
                measured
            }
        };
        let Ok(profile) = profile else {
            stats.failed += 1;
            continue;
        };
        now += profile.service_us;
        stats.served += 1;
        stats.busy_us += profile.service_us;
        stats.energy_mj += profile.energy_mj;
        if now > job.deadline_us {
            stats.slo_violations += 1;
        }
        completions.push((now, now - job.at_us));
    }
    stats.clock_us = now;
    stats.stagings = ledger.stagings();
    stats.swaps = ledger.swaps();
    stats.evictions = ledger.evictions();
    stats.plan_calls = vmcu_plan::telemetry::plan_calls() - plan_calls_before;
    OnlineWorkerRun { completions, stats }
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

    #[test]
    fn worker_executes_jobs_and_aggregates_device_time() {
        let deployments = deployments_for(&["vww-s5", "demo-linear-net"]);
        let jobs = vec![
            (
                0,
                RequestSpec {
                    id: 0,
                    model: "vww-s5".into(),
                    seed: 1,
                },
            ),
            (
                1,
                RequestSpec {
                    id: 1,
                    model: "vww-s5".into(),
                    seed: 2,
                },
            ),
            (
                2,
                RequestSpec {
                    id: 2,
                    model: "demo-linear-net".into(),
                    seed: 3,
                },
            ),
        ];
        let worker = Worker::new(0, &deployments);
        let run = worker.run(&jobs);
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

    fn online_models_for(names: &[&str]) -> Vec<Option<OnlineModel>> {
        let deployments = deployments_for(names);
        names
            .iter()
            .map(|name| {
                let dep = deployments[*name].clone();
                Some(OnlineModel {
                    name: (*name).to_owned(),
                    ram_bytes: dep.peak_demand_bytes(),
                    flash_bytes: dep.image_bytes(),
                    staging_us: (dep.staging_ms() * 1e3).round() as u64,
                    deployment: dep,
                })
            })
            .collect()
    }

    #[test]
    fn online_worker_charges_staging_exactly_once_per_staging() {
        let models = online_models_for(&["vww-s5", "demo-linear-net"]);
        let ram = |m: &Option<OnlineModel>| m.as_ref().unwrap().ram_bytes;
        let staging = |m: &Option<OnlineModel>| m.as_ref().unwrap().staging_us;
        assert!(ram(&models[0]) > 0 && ram(&models[1]) > 0);
        // A RAM budget that fits either model alone but never both:
        // every alternation is a hot swap.
        let ram_budget = ram(&models[0]).max(ram(&models[1]));
        let jobs: Vec<OnlineJob> = (0..4)
            .map(|i| OnlineJob {
                at_us: 0,
                deadline_us: u64::MAX,
                seq: i,
                model: (i % 2) as usize,
            })
            .collect();
        let run = run_online(&models, &jobs, ram_budget, usize::MAX);
        assert_eq!(run.stats.served, 4);
        assert_eq!(run.stats.shed, 0);
        assert_eq!(run.stats.failed, 0);
        // 0,1,0,1 with room for one resident: 4 stagings, the last 3
        // evict (hot swaps).
        assert_eq!(run.stats.stagings, 4);
        assert_eq!(run.stats.swaps, 3);
        assert_eq!(run.stats.evictions, 3);
        // The staging clock charge is exactly stagings × per-model
        // price — once per staging, never more, never less.
        let expected = 2 * staging(&models[0]) + 2 * staging(&models[1]);
        assert_eq!(run.stats.staging_us, expected);
        assert!(run.stats.clock_us >= run.stats.staging_us + run.stats.busy_us);
        assert_eq!(run.stats.plan_calls, 0, "online serving must not plan");
        // And the whole run is deterministic.
        let again = run_online(&models, &jobs, ram_budget, usize::MAX);
        assert_eq!(run.completions, again.completions);
        assert_eq!(run.stats, again.stats);
    }

    #[test]
    fn online_worker_sheds_expired_requests_at_dispatch() {
        let models = online_models_for(&["demo-linear-net"]);
        // Two requests arrive together; the deadline only covers one
        // service time, so EDF serves the more urgent and sheds the
        // other when its turn comes too late.
        let probe = run_online(
            &models,
            &[OnlineJob {
                at_us: 0,
                deadline_us: u64::MAX,
                seq: 0,
                model: 0,
            }],
            usize::MAX,
            usize::MAX,
        );
        let service_us = probe.stats.busy_us;
        assert!(service_us > 0);
        let staging_us = models[0].as_ref().unwrap().staging_us;
        // Deadline lands exactly when the first service completes: the
        // first request finishes on time, the second is expired at
        // dispatch.
        let deadline = staging_us + service_us;
        let jobs: Vec<OnlineJob> = (0..2)
            .map(|i| OnlineJob {
                at_us: 0,
                deadline_us: deadline,
                seq: i,
                model: 0,
            })
            .collect();
        let run = run_online(&models, &jobs, usize::MAX, usize::MAX);
        assert_eq!(run.stats.served, 1);
        assert_eq!(run.stats.shed, 1, "the second request expired in queue");
        assert_eq!(run.stats.slo_violations, 0);
    }

    #[test]
    fn worker_results_are_deterministic() {
        let catalog = crate::catalog::ModelCatalog::standard();
        let model = catalog.get("demo-linear-net").unwrap();
        let weights = model
            .graph
            .random_weights(model_weight_seed("demo-linear-net"));
        let deployments: HashMap<String, Deployment> = [(
            "demo-linear-net".to_owned(),
            Engine::new(Device::stm32_f767zi())
                .planner(PlannerKind::TinyEngine)
                .deploy(&model.graph, &weights)
                .unwrap(),
        )]
        .into();
        let jobs = vec![(
            0,
            RequestSpec {
                id: 0,
                model: "demo-linear-net".into(),
                seed: 9,
            },
        )];
        let mk = || Worker::new(0, &deployments).run(&jobs);
        let (a, b) = (mk(), mk());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.stats, b.stats);
    }
}
