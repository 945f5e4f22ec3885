//! End-to-end contract of the multi-device split pipeline, driven by the
//! model built for it: `zoo::hires_split_only` OOMs a 128 KB device
//! under **every** single-device policy and deploys only when cut across
//! networked MCUs. The suite checks the whole story — deployment, bit
//! exactness against the reference executor, link pricing (every cut
//! edge charged exactly once, plan and execution agreeing byte for
//! byte), batch serving of a model no single-device policy deploys,
//! online conservation, and bit-reproducibility across repeated runs.

use vmcu::prelude::*;
use vmcu::vmcu_graph::{exec, zoo};
use vmcu::vmcu_sim::LinkModel;
use vmcu::vmcu_tensor::random;
use vmcu::EngineError;
use vmcu_serve::{
    ArrivalProfile, Fleet, FleetConfig, ModelCatalog, OnlineConfig, Outcome, RequestSpec,
};

fn split_kind(devices: u8) -> PlannerKind {
    PlannerKind::VmcuSplit {
        devices,
        scheme: IbScheme::RowBuffer,
    }
}

#[test]
fn the_split_only_model_oom_under_every_single_device_policy() {
    let g = zoo::hires_split_only();
    let weights = g.random_weights(7);
    let device = Device::stm32_f411re();
    for kind in [
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::VmcuFused(IbScheme::RowBuffer),
        PlannerKind::VmcuPatched(IbScheme::RowBuffer),
        PlannerKind::TinyEngine,
        PlannerKind::Hmcos,
    ] {
        match Engine::new(device.clone())
            .planner(kind)
            .deploy(&g, &weights)
        {
            Err(EngineError::DoesNotFit {
                needed, available, ..
            }) => {
                assert!(
                    needed > available,
                    "{kind:?}: rejection must carry needed {needed} > available {available}"
                );
            }
            other => panic!("{kind:?} must reject hires-split-only, got {other:?}"),
        }
    }
}

#[test]
fn split_deploys_the_oom_model_and_matches_the_reference_bit_for_bit() {
    let g = zoo::hires_split_only();
    let weights = g.random_weights(7);
    let input = random::tensor_i8(&g.in_shape(), 11);
    let expected = exec::run_reference(&g, &weights, &input);
    let expected = expected.last().unwrap();
    let device = Device::stm32_f411re();

    for devices in [2u8, 4, 8] {
        let dep = Engine::new(device.clone())
            .planner(split_kind(devices))
            .deploy(&g, &weights)
            .unwrap_or_else(|e| panic!("{devices}-way split must deploy: {e}"));
        let split = dep
            .split_plan()
            .expect("split deployments memoize the partition");
        assert!(
            split.device_count() >= 2,
            "{devices}-way: the model must actually be cut (got {} stage)",
            split.device_count()
        );
        // Every stage fits its own device; the whole model does not fit one.
        let budget = device.usable_ram_bytes();
        for stage in split.stages() {
            assert!(stage.demand_bytes <= budget);
        }
        assert_eq!(dep.peak_demand_bytes(), split.max_stage_demand_bytes());

        let report = dep.session().infer(&input).expect("split inference");
        assert_eq!(
            &report.output, expected,
            "{devices}-way split diverges from the reference executor"
        );
    }
}

#[test]
fn every_cut_edge_is_priced_exactly_once_and_plan_equals_execution() {
    let g = zoo::hires_split_only();
    let weights = g.random_weights(7);
    let input = random::tensor_i8(&g.in_shape(), 11);
    let dep = Engine::new(Device::stm32_f411re())
        .planner(split_kind(4))
        .deploy(&g, &weights)
        .expect("split deploys");
    let split = dep.split_plan().unwrap().clone();
    let report = dep.session().infer(&input).expect("split inference");

    // Execution emits exactly the memoized plan: one report per plan
    // entry, names agreeing in order — the plan *is* the schedule.
    assert_eq!(report.layers.len(), dep.plan().layers.len());
    for (got, planned) in report.layers.iter().zip(&dep.plan().layers) {
        assert_eq!(&got.plan, planned);
        assert_eq!(got.name, planned.name);
    }

    // One link report per cut edge, charged from the default link model
    // at exactly the boundary tensor's size — no cycles, no MACs, just
    // wire time and wire energy.
    let link = LinkModel::default();
    let links: Vec<_> = report
        .layers
        .iter()
        .filter(|l| l.plan.kind == "link")
        .collect();
    let cuts: Vec<_> = split.stages().iter().filter(|s| s.cut_bytes > 0).collect();
    assert_eq!(links.len(), split.device_count() - 1);
    assert_eq!(links.len(), cuts.len());
    for (l, stage) in links.iter().zip(&cuts) {
        assert_eq!(l.plan.activation_bytes, stage.cut_bytes);
        let bytes = stage.cut_bytes as u64;
        assert_eq!(l.exec.latency_ms, link.transfer_ms(bytes));
        assert_eq!(l.exec.energy_mj, link.transfer_energy_mj(bytes));
        assert_eq!(l.exec.counters.cycles, 0, "links burn wire time, not CPU");
        assert_eq!(l.exec.counters.macs, 0);
    }
    // Total simulated latency strictly exceeds the sum of compute-node
    // latencies: the wire is on the clock.
    let compute_ms: f64 = report
        .layers
        .iter()
        .filter(|l| l.plan.kind != "link")
        .map(|l| l.exec.latency_ms)
        .sum();
    let total_ms: f64 = report.layers.iter().map(|l| l.exec.latency_ms).sum();
    assert!(total_ms > compute_ms);
}

#[test]
fn split_inference_is_bit_reproducible_across_sessions() {
    let g = zoo::hires_split_only();
    let weights = g.random_weights(7);
    let input = random::tensor_i8(&g.in_shape(), 11);
    let engine = Engine::new(Device::stm32_f411re()).planner(split_kind(4));
    let project = |dep: &Deployment| {
        let report = dep.session().infer(&input).expect("split inference");
        (
            report.output.clone(),
            report
                .layers
                .iter()
                .map(|l| (l.name.clone(), l.plan.clone(), l.exec))
                .collect::<Vec<_>>(),
        )
    };
    // Two deployments, two sessions each: every simulated field — plan
    // entries, latencies, energies, counters, output bits — agrees.
    let dep_a = engine.deploy(&g, &weights).unwrap();
    let dep_b = engine.deploy(&g, &weights).unwrap();
    let first = project(&dep_a);
    assert_eq!(first, project(&dep_a));
    assert_eq!(first, project(&dep_b));
}

#[test]
fn serving_admits_the_split_model_against_aggregate_ram() {
    let device = Device::stm32_f411re();
    let catalog = ModelCatalog::standard();
    let hires = |seed| RequestSpec {
        id: 0,
        model: "hires-split-only".into(),
        seed,
    };

    // Single-device vMCU planning: the model never deploys, so its
    // requests are rejected as too large no matter the fleet width.
    let single = Fleet::new(
        FleetConfig::new(device.clone(), 4, PlannerKind::Vmcu(IbScheme::RowBuffer)),
        catalog.clone(),
    )
    .run_batch(&[hires(1)]);
    assert!(
        matches!(
            single.outcomes[0].1,
            Outcome::Rejected(vmcu_serve::RejectReason::TooLargeForDevice { .. })
        ),
        "single-device planning must reject, got {:?}",
        single.outcomes[0].1
    );

    // Split planning on the same fleet: the model deploys at its
    // bottleneck stage's RAM, its home device holds it, and the
    // requests complete there.
    let fleet = Fleet::new(FleetConfig::new(device, 4, split_kind(4)), catalog);
    let report = fleet.run_batch(&[hires(1), hires(2), hires(3)]);
    assert_eq!(report.stats.completed, 3);
    assert_eq!(report.stats.failed, 0);
    assert_eq!(report.stats.rejected, 0);
    // Serving replans nothing: split prices were harvested at deploy.
    assert_eq!(report.stats.serve_plan_calls, 0);
}

#[test]
fn online_serving_under_split_conserves_requests_and_reproduces() {
    let fleet = Fleet::new(
        FleetConfig::new(Device::stm32_f411re(), 3, split_kind(4)),
        ModelCatalog::standard(),
    );
    let cfg = OnlineConfig::new(ArrivalProfile::Poisson { rate_per_sec: 80.0 }, 2_000, 99);
    let report = fleet.run_online(&cfg);
    let s = &report.stats;
    // Conservation: every offered request is accounted for exactly once.
    assert_eq!(s.offered, cfg.requests);
    assert_eq!(s.offered, s.completed + s.shed + s.rejected + s.failed);
    assert_eq!(s.routed, s.offered - s.rejected);
    assert!(s.completed > 0, "the split fleet must serve load");
    assert_eq!(s.failed, 0);
    assert_eq!(s.serve_plan_calls, 0);
    // Bit-reproducibility: the simulated projection of a second run is
    // identical, field for field.
    let again = fleet.run_online(&cfg);
    assert_eq!(again.stats.simulated(), s.simulated());
    assert_eq!(again.workers, report.workers);
}
