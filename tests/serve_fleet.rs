//! Fleet-serving integration suite: the paper's RAM savings must show up
//! as admission capacity on a 128 KB fleet, the batch and online paths
//! must serve the same models on the same devices, and the scheduler
//! must be deterministic end to end.

use vmcu::prelude::*;
use vmcu::vmcu_graph::zoo::NamedGraph;
use vmcu_serve::{
    random_stream, ArrivalProfile, Fleet, FleetConfig, ModelCatalog, OnlineConfig, Outcome,
    RejectReason, RequestSpec, Router,
};

fn fleet_128kb(planner: PlannerKind, workers: usize) -> Fleet {
    Fleet::new(
        FleetConfig::new(Device::stm32_f411re(), workers, planner),
        ModelCatalog::standard(),
    )
}

#[test]
fn vmcu_admits_strictly_more_concurrent_requests_than_disjoint_at_128kb() {
    // The acceptance criterion: same offered load, same 128 KB devices —
    // segment-level planning admits strictly more than both
    // tensor-level (TinyEngine) and scheduling-only (HMCOS) baselines.
    let requests = random_stream(ModelCatalog::standard().models(), 64, 2024);
    let vmcu = fleet_128kb(PlannerKind::Vmcu(IbScheme::RowBuffer), 4).run_batch(&requests);
    for disjoint_kind in [PlannerKind::TinyEngine, PlannerKind::Hmcos] {
        let disjoint = fleet_128kb(disjoint_kind, 4).run_batch(&requests);
        assert!(
            vmcu.stats.admitted > disjoint.stats.admitted,
            "vMCU admitted {} must strictly exceed {} admitted {}",
            vmcu.stats.admitted,
            disjoint_kind.name(),
            disjoint.stats.admitted
        );
        assert!(vmcu.stats.admission_rate > disjoint.stats.admission_rate);
    }
    assert_eq!(vmcu.stats.failed, 0);
}

#[test]
fn fused_policy_admits_at_least_vmcu_and_stays_bit_faithful() {
    // The fusion pass may only lower a model's priced demand (it falls
    // back to single-layer planning when fusion does not pay), so the
    // fused fleet admits at least what vMCU admits — and serves the
    // chain-shaped models with strictly less committed SRAM.
    let requests = random_stream(ModelCatalog::standard().models(), 64, 2024);
    let vmcu = fleet_128kb(PlannerKind::Vmcu(IbScheme::RowBuffer), 4).run_batch(&requests);
    let fused = fleet_128kb(PlannerKind::VmcuFused(IbScheme::RowBuffer), 4).run_batch(&requests);
    assert!(
        fused.stats.admitted >= vmcu.stats.admitted,
        "fused admitted {} must be at least vMCU's {}",
        fused.stats.admitted,
        vmcu.stats.admitted
    );
    assert_eq!(fused.stats.failed, 0);
    // Chain-shaped requests complete with a strictly lower peak RAM.
    for (req, outcome) in &fused.outcomes {
        if req.model == "mbv2-block-unfused" {
            let c = outcome.completion().expect("fused must serve the chain");
            let v = vmcu
                .outcomes
                .iter()
                .find(|(r, _)| r.id == req.id)
                .and_then(|(_, o)| o.completion())
                .expect("vMCU serves the chain too");
            assert!(
                c.peak_ram_bytes < v.peak_ram_bytes,
                "fused peak {} must undercut vMCU peak {}",
                c.peak_ram_bytes,
                v.peak_ram_bytes
            );
        }
    }
}

#[test]
fn patched_admits_at_least_vmcu_and_serves_the_spatial_catalog_entries() {
    // Patch-based planning may only lower a model's priced demand (it
    // falls back to the fused plan when patching does not pay), so the
    // patched fleet admits at least what vMCU admits — and it is the
    // only policy that serves the spatial-bottleneck catalog entry at
    // all: hires-front-stage's 147 KB input OOMs every whole-tensor
    // planner.
    let requests = random_stream(ModelCatalog::standard().models(), 64, 2024);
    let vmcu = fleet_128kb(PlannerKind::Vmcu(IbScheme::RowBuffer), 4).run_batch(&requests);
    let patched =
        fleet_128kb(PlannerKind::VmcuPatched(IbScheme::RowBuffer), 4).run_batch(&requests);
    assert!(
        patched.stats.admitted >= vmcu.stats.admitted,
        "patched admitted {} must be at least vMCU's {}",
        patched.stats.admitted,
        vmcu.stats.admitted
    );
    assert_eq!(patched.stats.failed, 0);
    let mut hires_seen = 0usize;
    for (req, outcome) in &patched.outcomes {
        if req.model == "hires-front-stage" {
            hires_seen += 1;
            let c = outcome
                .completion()
                .expect("patched must serve the spatial model");
            assert!(c.peak_ram_bytes <= 128 * 1024);
            // The same request is the paper's OOM outcome under vMCU.
            let v = vmcu
                .outcomes
                .iter()
                .find(|(r, _)| r.id == req.id)
                .map(|(_, o)| o)
                .expect("same stream");
            assert!(
                matches!(v, Outcome::Rejected(RejectReason::TooLargeForDevice { .. })),
                "vMCU should reject hires-front-stage, got {v:?}"
            );
        }
    }
    assert!(
        hires_seen > 0,
        "the stream must exercise the spatial catalog entry"
    );
    assert!(
        patched.stats.admitted > vmcu.stats.admitted,
        "serving the spatial entries must show up as strictly more admissions"
    );
}

#[test]
fn rejections_are_the_papers_oom_cases() {
    // Fig. 7 case 1 requests must be the ones TinyEngine rejects: the
    // paper's "fails to run" outcome, per-request.
    let mut requests = random_stream(ModelCatalog::standard().models(), 48, 7);
    requests.iter_mut().for_each(|r| {
        if r.id % 3 == 0 {
            r.model = "fig7-hw80-c16-k16".to_owned();
        }
    });
    let report = fleet_128kb(PlannerKind::TinyEngine, 2).run_batch(&requests);
    for (req, outcome) in &report.outcomes {
        if req.model == "fig7-hw80-c16-k16" {
            // The rejection carries the planned demand and the device's
            // whole RAM.
            match outcome {
                Outcome::Rejected(RejectReason::TooLargeForDevice { needed, available }) => {
                    assert!(needed > available, "{needed} must exceed {available}");
                    assert_eq!(*available, 131_072);
                }
                _ => panic!(
                    "request {} should be rejected as too large, got {outcome:?}",
                    req.id
                ),
            }
        }
    }
    // The same stream under vMCU serves every case-1 request.
    let report = fleet_128kb(PlannerKind::Vmcu(IbScheme::RowBuffer), 2).run_batch(&requests);
    assert!(report
        .outcomes
        .iter()
        .filter(|(r, _)| r.model == "fig7-hw80-c16-k16")
        .all(|(_, o)| o.completion().is_some()));
}

#[test]
fn too_large_models_are_rejected_with_numbers() {
    // A fleet serving Fig. 7 case 1 alone: TinyEngine's deploy verdict
    // is the request's rejection, numbers and all, on both paths, and
    // the same model is served under vMCU.
    let device = Device::stm32_f411re();
    let case1 = ModelCatalog::standard()
        .get("fig7-hw80-c16-k16")
        .expect("model in catalog")
        .clone();
    let g = &case1.graph;
    let (needed, available) = match Engine::new(device.clone())
        .planner(PlannerKind::TinyEngine)
        .deploy(g, &g.random_weights(1))
    {
        Err(EngineError::DoesNotFit {
            needed, available, ..
        }) => (needed, available),
        other => panic!("expected DoesNotFit, got {:?}", other.err()),
    };
    assert!(needed > available, "{needed} must exceed {available}");
    assert_eq!(available, 128 * 1024);

    let fleet_of = |kind| {
        Fleet::new(
            FleetConfig::new(device.clone(), 2, kind),
            ModelCatalog::new(vec![case1.clone()]),
        )
    };
    let tinyengine = fleet_of(PlannerKind::TinyEngine);
    let report = tinyengine.run_batch(&[request(0, case1.name)]);
    assert_eq!(
        report.outcomes[0].1,
        Outcome::Rejected(RejectReason::TooLargeForDevice { needed, available })
    );
    let cfg = online_cfg(50);
    assert_eq!(tinyengine.run_online(&cfg).stats.rejected, cfg.requests);

    let report =
        fleet_of(PlannerKind::Vmcu(IbScheme::RowBuffer)).run_batch(&[request(0, case1.name)]);
    assert!(report.outcomes[0].1.completion().is_some());
}

#[test]
fn fleet_reports_are_deterministic_and_within_device_limits() {
    let f = fleet_128kb(PlannerKind::Vmcu(IbScheme::RowBuffer), 3);
    let requests = random_stream(f.catalog().models(), 36, 99);
    let a = f.run_batch(&requests);
    let b = f.run_batch(&requests);
    assert_eq!(a.outcomes, b.outcomes, "scheduling must be deterministic");
    for (_, outcome) in &a.outcomes {
        if let Some(c) = outcome.completion() {
            assert!(c.peak_ram_bytes <= 128 * 1024);
            assert!(c.latency_ms > 0.0);
            assert!(c.energy_mj > 0.0);
            assert!(c.worker < 3);
        }
    }
    assert!(a.stats.p50_latency_ms <= a.stats.p99_latency_ms);
    assert!(a.stats.requests_per_sec > 0.0);
}

/// The seven planning policies, as `fleet_throughput` runs them.
const ALL_KINDS: [PlannerKind; 7] = [
    PlannerKind::Vmcu(IbScheme::RowBuffer),
    PlannerKind::VmcuFused(IbScheme::RowBuffer),
    PlannerKind::VmcuPatched(IbScheme::RowBuffer),
    PlannerKind::TinyEngine,
    PlannerKind::Hmcos,
    PlannerKind::VmcuSplit {
        devices: 4,
        scheme: IbScheme::RowBuffer,
    },
    PlannerKind::VmcuReorder(IbScheme::RowBuffer),
];

/// The catalog index of `model`.
fn index_of(fleet: &Fleet, model: &str) -> usize {
    fleet
        .catalog()
        .models()
        .iter()
        .position(|m| m.name == model)
        .expect("model in catalog")
}

/// Request `id` for `model`, seeded by its id.
fn request(id: u64, model: &str) -> RequestSpec {
    RequestSpec {
        id,
        model: model.into(),
        seed: id,
    }
}

/// A seeded Poisson stream offered online to a fleet.
fn online_cfg(requests: usize) -> OnlineConfig {
    OnlineConfig::new(ArrivalProfile::Poisson { rate_per_sec: 40.0 }, requests, 7)
}

/// How many of `cfg`'s arrivals ask for catalog model `model`.
fn arrivals_to(fleet: &Fleet, cfg: &OnlineConfig, model: usize) -> usize {
    cfg.profile
        .stream(cfg.requests, fleet.catalog().models().len(), cfg.seed)
        .iter()
        .filter(|a| a.model == model)
        .count()
}

#[test]
fn batch_and_online_agree_on_what_they_serve_and_where() {
    // One placement for both paths: the resident sets `Router::new`
    // places from the served deployments' footprints decide what a batch
    // admits and where it runs, exactly as they do online.
    let device = Device::stm32_f411re();
    let requests = random_stream(ModelCatalog::standard().models(), 64, 2024);
    let cfg = online_cfg(400);
    for kind in ALL_KINDS {
        for workers in [1, 2, 4] {
            let fleet = fleet_128kb(kind, workers);
            let footprints: Vec<Option<(usize, usize)>> = fleet
                .catalog()
                .models()
                .iter()
                .map(|m| {
                    fleet
                        .deployment(m.name)
                        .map(|d| (d.peak_demand_bytes(), d.image_bytes()))
                })
                .collect();
            let router = Router::new(
                workers,
                &footprints,
                device.usable_ram_bytes(),
                device.flash_bytes,
            );
            let holders = |model: &str| router.holders(index_of(&fleet, model));
            let case = format!("{} on {workers} worker(s)", kind.name());
            let report = fleet.run_batch(&requests);
            for (req, outcome) in &report.outcomes {
                match outcome {
                    Outcome::Completed(c) => assert!(
                        holders(&req.model).contains(&c.worker),
                        "{case}: {} ran on worker {}, not a holder {:?}",
                        req.model,
                        c.worker,
                        holders(&req.model)
                    ),
                    Outcome::Rejected(reason) => assert!(
                        holders(&req.model).is_empty(),
                        "{case}: {} is held by {:?} but was rejected ({reason})",
                        req.model,
                        holders(&req.model)
                    ),
                    Outcome::Failed(e) => panic!("{case}: {} failed: {e}", req.model),
                }
            }
            // Online rejects exactly the arrivals to models nobody holds.
            let unheld: usize = (0..footprints.len())
                .filter(|&m| router.holders(m).is_empty())
                .map(|m| arrivals_to(&fleet, &cfg, m))
                .sum();
            assert_eq!(fleet.run_online(&cfg).stats.rejected, unheld, "{case}");
        }
    }
}

#[test]
fn a_model_whose_image_overflows_flash_is_rejected_by_both_paths() {
    // A 1x1 pointwise layer from 1,024 to 1,024 channels needs 2 KB of
    // RAM but a 1 MiB weight image, against the F411RE's 512 KB of
    // Flash: it does not deploy, so neither path may admit it, and the
    // batch path must not plan it while serving.
    let device = Device::stm32_f411re();
    let kind = PlannerKind::Vmcu(IbScheme::RowBuffer);
    let served = ModelCatalog::standard().models()[0].clone();
    let hog = Graph::linear(
        "flash-hog",
        vec![LayerDesc::Pointwise(PointwiseParams::new(
            1,
            1,
            1024,
            1024,
            Requant::from_scale(1.0 / 64.0, 0),
        ))],
    )
    .unwrap();
    let deploy_error = Engine::new(device.clone())
        .planner(kind)
        .deploy(&hog, &hog.random_weights(1))
        .expect_err("a 1 MiB image overflows 512 KB of Flash");
    assert!(
        !matches!(deploy_error, EngineError::DoesNotFit { .. }),
        "RAM fits; Flash does not: {deploy_error}"
    );
    let fleet = Fleet::new(
        FleetConfig::new(device, 2, kind),
        ModelCatalog::new(vec![
            served.clone(),
            NamedGraph {
                name: "flash-hog",
                graph: hog,
            },
        ]),
    );
    assert!(fleet.deployment("flash-hog").is_none());
    let report = fleet.run_batch(&[request(0, served.name), request(1, "flash-hog")]);
    assert!(report.outcomes[0].1.completion().is_some());
    assert_eq!(
        report.outcomes[1].1,
        Outcome::Rejected(RejectReason::DeployFailed(deploy_error.to_string()))
    );
    assert_eq!((report.stats.rejected, report.stats.failed), (1, 0));
    assert_eq!(report.stats.serve_plan_calls, 0, "serving must not plan");

    let cfg = online_cfg(200);
    let online = fleet.run_online(&cfg).stats;
    let hog_arrivals = arrivals_to(&fleet, &cfg, 1);
    assert!(hog_arrivals > 0, "the stream must ask for the model");
    assert_eq!(online.rejected, hog_arrivals);
    assert_eq!(online.failed, 0);
}

#[test]
fn an_empty_model_is_rejected_by_both_paths() {
    // A graph with no layers deploys to nothing worth serving: the fleet
    // builds, rejects it with its typed reason on both paths, and
    // serves the real model beside it.
    let served = ModelCatalog::standard().models()[0].clone();
    let fleet = Fleet::new(
        FleetConfig::new(
            Device::stm32_f411re(),
            2,
            PlannerKind::Vmcu(IbScheme::RowBuffer),
        ),
        ModelCatalog::new(vec![
            NamedGraph {
                name: "empty",
                graph: Graph::linear("empty", vec![]).unwrap(),
            },
            served.clone(),
        ]),
    );
    assert!(fleet.deployment("empty").is_none());
    let report = fleet.run_batch(&[request(0, "empty"), request(1, served.name)]);
    assert_eq!(
        report.outcomes[0].1,
        Outcome::Rejected(RejectReason::EmptyModel)
    );
    assert!(report.outcomes[1].1.completion().is_some());

    let cfg = online_cfg(200);
    let online = fleet.run_online(&cfg).stats;
    let empty_arrivals = arrivals_to(&fleet, &cfg, 0);
    assert!(empty_arrivals > 0 && empty_arrivals < cfg.requests);
    assert_eq!(online.rejected, empty_arrivals);
    assert_eq!(
        online.completed + online.shed,
        cfg.requests - empty_arrivals,
        "every request to the real model is served or shed"
    );
    assert!(online.completed > 0);
}
