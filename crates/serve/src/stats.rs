//! Fleet-level statistics: latency percentiles, throughput, admission
//! rate.
//!
//! Everything here is computed from *simulated* device time, so the
//! numbers are bit-reproducible across hosts — which is what lets CI gate
//! on them without noise margins. Host wall-clock is carried separately,
//! for information only.

use vmcu_sim::Counters;

/// Aggregated execution record of one worker (device) over a batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStats {
    /// Requests this worker executed.
    pub executed: usize,
    /// Simulated busy time in milliseconds (sum of inference latencies).
    pub busy_ms: f64,
    /// Simulated energy in millijoules.
    pub energy_mj: f64,
    /// Summed device counters (MACs, RAM/flash traffic, cycles).
    pub counters: Counters,
    /// Planning passes this worker performed while serving its slice
    /// (per-thread [`vmcu_plan::telemetry`] delta). Always 0 on the
    /// deploy-once path — workers execute memoized plans.
    pub plan_calls: u64,
}

/// Planning-side accounting of one batch, kept separate from inference
/// time: the whole point of the deploy-once flow is that planning cost
/// is paid once per model, not once per request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanningStats {
    /// Host milliseconds spent deploying the catalog (fit validation and
    /// plan memoization). Informational — host time, not simulated time,
    /// and therefore not bit-reproducible.
    pub deploy_ms: f64,
    /// Planning passes performed at deploy time (once per fleet, not per
    /// batch). Deterministic.
    pub deploy_plan_calls: u64,
    /// Planning passes performed while serving the batch: admission
    /// pricing plus worker execution. Near zero on the deploy-once path
    /// (only models that failed to deploy are priced on first sight).
    /// Deterministic.
    pub serve_plan_calls: u64,
}

/// Whole-fleet statistics over one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Requests offered to the fleet.
    pub offered: usize,
    /// Requests admitted by the controller.
    pub admitted: usize,
    /// Requests admitted and executed to completion.
    pub completed: usize,
    /// Requests refused by admission control.
    pub rejected: usize,
    /// Admitted requests that failed during execution (a planner/kernel
    /// bug surfaced as a typed error; always 0 in a healthy build).
    pub failed: usize,
    /// `admitted / offered` in `[0, 1]` (1 for an empty batch).
    pub admission_rate: f64,
    /// Simulated makespan: the busiest worker's total device time, ms.
    pub makespan_ms: f64,
    /// Completed requests per simulated second of makespan.
    pub requests_per_sec: f64,
    /// Median simulated inference latency, ms.
    pub p50_latency_ms: f64,
    /// 99th-percentile simulated inference latency, ms.
    pub p99_latency_ms: f64,
    /// Total simulated energy, mJ.
    pub energy_mj: f64,
    /// Host milliseconds spent planning (deploying the catalog),
    /// amortized across every batch the fleet serves. Informational and
    /// non-deterministic, like [`host_wall_ms`](Self::host_wall_ms).
    pub planning_ms: f64,
    /// Planning passes at deploy time (deterministic).
    pub deploy_plan_calls: u64,
    /// Planning passes while serving this batch (deterministic; ~0 on
    /// the deploy-once path).
    pub serve_plan_calls: u64,
    /// Serving-side planning amortization: `serve_plan_calls / offered`
    /// (0 for an empty batch). The bench gate fails when this rises —
    /// the replanning win is gated, not just claimed.
    pub plan_calls_per_request: f64,
    /// Real host time the batch took, ms (informational;
    /// non-deterministic).
    pub host_wall_ms: f64,
}

/// Aggregated record of one worker (device) over an online run.
///
/// All `_us` fields are integer microseconds of simulated time — the
/// online event loop never touches floating point on its hot path, so
/// every field here is bit-reproducible across hosts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineWorkerStats {
    /// Requests dispatched to this device.
    pub routed: usize,
    /// Requests served to completion.
    pub served: usize,
    /// Requests shed at dispatch (deadline passed before service could
    /// start).
    pub shed: usize,
    /// Served requests that *finished* past their deadline (admitted to
    /// service in time, but completed late).
    pub slo_violations: usize,
    /// Served requests whose execution failed (typed engine error;
    /// always 0 in a healthy build).
    pub failed: usize,
    /// Model stagings (each charged simulated flash-programming time
    /// exactly once).
    pub stagings: u64,
    /// Stagings that evicted a resident model — the hot swaps.
    pub swaps: u64,
    /// Models evicted over the run.
    pub evictions: u64,
    /// Simulated service time, µs (sum of inference latencies).
    pub busy_us: u64,
    /// Simulated staging time charged, µs.
    pub staging_us: u64,
    /// The device clock after its last request, µs.
    pub clock_us: u64,
    /// Simulated energy, mJ.
    pub energy_mj: f64,
    /// Planning passes this device's serving performed: always 0, as
    /// it charges calibrated service times and runs no inference. The
    /// whole online pass's plan calls are
    /// [`OnlineStats::serve_plan_calls`].
    pub plan_calls: u64,
}

/// Whole-fleet statistics over one online run.
///
/// Everything except the `host_*` and `planning_ms` fields is computed
/// from simulated device time and is bit-reproducible across hosts —
/// compare runs with [`OnlineStats::simulated`].
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineStats {
    /// Requests in the arrival stream.
    pub offered: usize,
    /// Requests dispatched to a device (`offered - rejected`).
    pub routed: usize,
    /// Requests refused at routing: the model never deployed on this
    /// fleet (planner capacity rejection), so no device can serve it.
    pub rejected: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests shed at dispatch (deadline already passed).
    pub shed: usize,
    /// Requests whose execution failed (always 0 in a healthy build).
    pub failed: usize,
    /// `shed / routed` in `[0, 1]` (0 when nothing was routed).
    pub shed_rate: f64,
    /// Served requests that completed past their deadline.
    pub slo_violations: usize,
    /// Median simulated sojourn (arrival → completion), ms.
    pub p50_sojourn_ms: f64,
    /// 99th-percentile simulated sojourn, ms.
    pub p99_sojourn_ms: f64,
    /// p99 sojourn over the first half of completions (by completion
    /// time) — compare with
    /// [`p99_second_half_ms`](Self::p99_second_half_ms) to check the
    /// run reached a steady state instead of a diverging queue.
    pub p99_first_half_ms: f64,
    /// p99 sojourn over the second half of completions.
    pub p99_second_half_ms: f64,
    /// Model stagings across the fleet (each priced once).
    pub stagings: u64,
    /// Hot swaps (stagings that evicted) across the fleet.
    pub swaps: u64,
    /// Evictions across the fleet.
    pub evictions: u64,
    /// Total simulated staging time charged, ms.
    pub swap_ms: f64,
    /// Simulated makespan: the last device clock to drain, ms.
    pub makespan_ms: f64,
    /// Completed requests per simulated second.
    pub sim_requests_per_sec: f64,
    /// Total simulated energy, mJ.
    pub energy_mj: f64,
    /// Host milliseconds spent planning (deploying the catalog);
    /// informational and non-deterministic.
    pub planning_ms: f64,
    /// Planning passes at deploy time (deterministic).
    pub deploy_plan_calls: u64,
    /// Planning passes while serving the stream (deterministic; 0 on
    /// the deploy-once path).
    pub serve_plan_calls: u64,
    /// Real host time the run took, ms (informational).
    pub host_wall_ms: f64,
    /// Completed requests per *host* second — how fast the simulator
    /// itself chews through load (informational).
    pub host_requests_per_sec: f64,
}

impl OnlineStats {
    /// A copy with the non-deterministic host-side fields zeroed —
    /// two runs of the same seeded config must compare equal under
    /// this projection, bit for bit.
    pub fn simulated(&self) -> Self {
        Self {
            planning_ms: 0.0,
            host_wall_ms: 0.0,
            host_requests_per_sec: 0.0,
            ..self.clone()
        }
    }

    /// Assembles fleet statistics from per-worker records and the merged
    /// completion log (`(completion_us, sojourn_us)`, any order).
    pub fn aggregate(
        offered: usize,
        rejected: usize,
        completions: &mut [(u64, u64)],
        workers: &[OnlineWorkerStats],
        planning: &PlanningStats,
        host_wall_ms: f64,
    ) -> Self {
        // Each worker logs in completion order, so the merged log is a
        // few sorted runs: the stable sort merges them in linear time.
        completions.sort();
        let completed = completions.len();
        let mut sojourns: Vec<u64> = completions.iter().map(|&(_, s)| s).collect();
        // Ranking permutes only the slice it ranks, so both halves are
        // ranked in place before the whole sample is.
        let (first, second) = sojourns.split_at_mut(completed / 2);
        let p99_first_half_ms = nearest_rank_us(first, 0.99);
        let p99_second_half_ms = nearest_rank_us(second, 0.99);
        let routed = offered - rejected;
        let shed = workers.iter().map(|w| w.shed).sum::<usize>();
        let clock_us = workers.iter().map(|w| w.clock_us).max().unwrap_or(0);
        let makespan_ms = clock_us as f64 / 1e3;
        let host_wall_sec = host_wall_ms / 1e3;
        Self {
            offered,
            routed,
            rejected,
            completed,
            shed,
            failed: workers.iter().map(|w| w.failed).sum(),
            shed_rate: if routed == 0 {
                0.0
            } else {
                shed as f64 / routed as f64
            },
            slo_violations: workers.iter().map(|w| w.slo_violations).sum(),
            p50_sojourn_ms: nearest_rank_us(&mut sojourns, 0.50),
            p99_sojourn_ms: nearest_rank_us(&mut sojourns, 0.99),
            p99_first_half_ms,
            p99_second_half_ms,
            stagings: workers.iter().map(|w| w.stagings).sum(),
            swaps: workers.iter().map(|w| w.swaps).sum(),
            evictions: workers.iter().map(|w| w.evictions).sum(),
            swap_ms: workers.iter().map(|w| w.staging_us).sum::<u64>() as f64 / 1e3,
            makespan_ms,
            sim_requests_per_sec: if clock_us > 0 {
                completed as f64 * 1e6 / clock_us as f64
            } else {
                0.0
            },
            energy_mj: workers.iter().map(|w| w.energy_mj).sum(),
            planning_ms: planning.deploy_ms,
            deploy_plan_calls: planning.deploy_plan_calls,
            serve_plan_calls: planning.serve_plan_calls
                + workers.iter().map(|w| w.plan_calls).sum::<u64>(),
            host_wall_ms,
            host_requests_per_sec: if host_wall_sec > 0.0 {
                completed as f64 / host_wall_sec
            } else {
                0.0
            },
        }
    }
}

/// Nearest-rank percentile of unsorted integer-microsecond samples,
/// reported in milliseconds (`q` in `[0, 1]`). Returns 0 for an empty
/// sample. Integer selection keeps the result bit-reproducible.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn percentile_us(samples: &[u64], q: f64) -> f64 {
    nearest_rank_us(&mut samples.to_vec(), q)
}

/// [`percentile_us`] selecting in place: permutes `samples`.
fn nearest_rank_us(samples: &mut [u64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1 as f64 / 1e3
}

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`).
/// Returns 0 for an empty sample.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn percentile_ms(samples: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl FleetStats {
    /// Assembles fleet statistics from per-request latencies and
    /// per-worker records.
    pub fn aggregate(
        offered: usize,
        rejected: usize,
        failed: usize,
        latencies_ms: &[f64],
        workers: &[WorkerStats],
        planning: &PlanningStats,
        host_wall_ms: f64,
    ) -> Self {
        let completed = latencies_ms.len();
        let admitted = completed + failed;
        let makespan_ms = workers.iter().map(|w| w.busy_ms).fold(0.0, f64::max);
        let serve_plan_calls =
            planning.serve_plan_calls + workers.iter().map(|w| w.plan_calls).sum::<u64>();
        Self {
            offered,
            admitted,
            completed,
            rejected,
            failed,
            admission_rate: if offered == 0 {
                1.0
            } else {
                admitted as f64 / offered as f64
            },
            makespan_ms,
            requests_per_sec: if makespan_ms > 0.0 {
                completed as f64 * 1e3 / makespan_ms
            } else {
                0.0
            },
            p50_latency_ms: percentile_ms(latencies_ms, 0.50),
            p99_latency_ms: percentile_ms(latencies_ms, 0.99),
            energy_mj: workers.iter().map(|w| w.energy_mj).sum(),
            planning_ms: planning.deploy_ms,
            deploy_plan_calls: planning.deploy_plan_calls,
            serve_plan_calls,
            plan_calls_per_request: if offered == 0 {
                0.0
            } else {
                serve_plan_calls as f64 / offered as f64
            },
            host_wall_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile_ms(&s, 0.5), 2.0);
        assert_eq!(percentile_ms(&s, 0.99), 4.0);
        assert_eq!(percentile_ms(&s, 0.0), 1.0);
        assert_eq!(percentile_ms(&s, 1.0), 4.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
    }

    #[test]
    fn aggregate_computes_rates_and_makespan() {
        let workers = vec![
            WorkerStats {
                executed: 2,
                busy_ms: 10.0,
                energy_mj: 1.0,
                counters: Counters::new(),
                plan_calls: 1,
            },
            WorkerStats {
                executed: 1,
                busy_ms: 40.0,
                energy_mj: 2.0,
                counters: Counters::new(),
                plan_calls: 0,
            },
        ];
        let planning = PlanningStats {
            deploy_ms: 3.0,
            deploy_plan_calls: 12,
            serve_plan_calls: 4,
        };
        let s = FleetStats::aggregate(5, 2, 0, &[10.0, 5.0, 40.0], &workers, &planning, 7.0);
        assert_eq!(s.offered, 5);
        assert_eq!(s.admitted, 3);
        assert_eq!(s.completed, 3);
        assert_eq!(s.rejected, 2);
        assert_eq!(s.admission_rate, 0.6);
        assert_eq!(s.makespan_ms, 40.0);
        assert_eq!(s.requests_per_sec, 3.0 * 1e3 / 40.0);
        assert_eq!(s.p50_latency_ms, 10.0);
        assert_eq!(s.energy_mj, 3.0);
        assert_eq!(s.host_wall_ms, 7.0);
        // Planning accounting: deploy-side carried through, serve-side
        // summed over admission (4) and worker (1) planning passes.
        assert_eq!(s.planning_ms, 3.0);
        assert_eq!(s.deploy_plan_calls, 12);
        assert_eq!(s.serve_plan_calls, 5);
        assert_eq!(s.plan_calls_per_request, 1.0);
    }

    #[test]
    fn percentile_us_is_nearest_rank_in_ms() {
        let s = [4000u64, 1000, 3000, 2000];
        assert_eq!(percentile_us(&s, 0.5), 2.0);
        assert_eq!(percentile_us(&s, 0.99), 4.0);
        assert_eq!(percentile_us(&s, 1.0), 4.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
    }

    #[test]
    fn online_aggregate_merges_workers() {
        let workers = vec![
            OnlineWorkerStats {
                routed: 3,
                served: 2,
                shed: 1,
                slo_violations: 1,
                stagings: 2,
                swaps: 1,
                evictions: 1,
                busy_us: 5_000,
                staging_us: 10_000,
                clock_us: 40_000,
                energy_mj: 1.0,
                ..Default::default()
            },
            OnlineWorkerStats {
                routed: 2,
                served: 2,
                clock_us: 30_000,
                energy_mj: 0.5,
                ..Default::default()
            },
        ];
        let mut completions = vec![
            (30_000, 6_000),
            (10_000, 2_000),
            (20_000, 4_000),
            (40_000, 8_000),
        ];
        let planning = PlanningStats {
            deploy_ms: 3.0,
            deploy_plan_calls: 12,
            serve_plan_calls: 0,
        };
        let s = OnlineStats::aggregate(6, 1, &mut completions, &workers, &planning, 2.0);
        assert_eq!(s.offered, 6);
        assert_eq!(s.routed, 5);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.completed, 4);
        assert_eq!(s.shed, 1);
        assert_eq!(s.shed_rate, 0.2);
        assert_eq!(s.slo_violations, 1);
        assert_eq!((s.stagings, s.swaps, s.evictions), (2, 1, 1));
        assert_eq!(s.swap_ms, 10.0);
        assert_eq!(s.makespan_ms, 40.0);
        assert_eq!(s.sim_requests_per_sec, 4.0 * 1e6 / 40_000.0);
        // Halves split by completion time: {2,4} then {6,8} ms sojourns.
        assert_eq!(s.p99_first_half_ms, 4.0);
        assert_eq!(s.p99_second_half_ms, 8.0);
        assert_eq!(s.p50_sojourn_ms, 4.0);
        assert_eq!(s.energy_mj, 1.5);
        assert_eq!(s.host_requests_per_sec, 4.0 / 0.002);
        // The determinism projection zeroes exactly the host fields.
        let sim = s.simulated();
        assert_eq!(sim.host_wall_ms, 0.0);
        assert_eq!(sim.host_requests_per_sec, 0.0);
        assert_eq!(sim.planning_ms, 0.0);
        assert_eq!(sim.completed, s.completed);
    }

    #[test]
    fn empty_online_run_does_not_divide_by_zero() {
        let s = OnlineStats::aggregate(0, 0, &mut [], &[], &PlanningStats::default(), 0.0);
        assert_eq!(s.shed_rate, 0.0);
        assert_eq!(s.sim_requests_per_sec, 0.0);
        assert_eq!(s.host_requests_per_sec, 0.0);
        assert_eq!(s.p99_sojourn_ms, 0.0);
    }

    #[test]
    fn empty_batch_does_not_divide_by_zero() {
        let s = FleetStats::aggregate(0, 0, 0, &[], &[], &PlanningStats::default(), 0.1);
        assert_eq!(s.admission_rate, 1.0);
        assert_eq!(s.requests_per_sec, 0.0);
        assert_eq!(s.p50_latency_ms, 0.0);
        assert_eq!(s.plan_calls_per_request, 0.0);
    }
}
