//! Property tests for the static plan auditor (`vmcu-verify`).
//!
//! Two directions keep the auditor honest:
//!
//! * **Soundness on real plans** — every deployment the engine resolves
//!   for seeded random nets, under every planner kind, must certify
//!   clean. The auditor re-derives each execution distance two
//!   independent ways, so a pass here is a machine-checked proof, not a
//!   smoke test.
//! * **Non-vacuity under mutation** — corrupting a certified plan in any
//!   of the classic ways (shifted base, shrunk distance, dropped /
//!   duplicated / early free) must produce at least one violation. A
//!   checker that cannot fail proves nothing.

use proptest::prelude::*;
use vmcu::prelude::*;
use vmcu::vmcu_graph::zoo;
use vmcu::vmcu_kernels::params::FcParams;
use vmcu::vmcu_kernels::trace::exec_distance;
use vmcu::vmcu_plan::chain::plan_chain;
use vmcu_verify::{
    audit, audit_chain_plan, audit_schedule, canonical_frees, check_distance, replay_layer,
    LayerSpec, Violation,
};

fn all_planner_kinds() -> Vec<PlannerKind> {
    vec![
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::Vmcu(IbScheme::PixelWindow),
        PlannerKind::Vmcu(IbScheme::SlidingWindow),
        PlannerKind::VmcuFused(IbScheme::RowBuffer),
        PlannerKind::VmcuPatched(IbScheme::RowBuffer),
        PlannerKind::TinyEngine,
        PlannerKind::Hmcos,
        PlannerKind::VmcuSplit {
            devices: 3,
            scheme: IbScheme::RowBuffer,
        },
        PlannerKind::VmcuReorder(IbScheme::RowBuffer),
    ]
}

/// A device with effectively unlimited RAM: isolates plan-arithmetic
/// checks from budget checks in the mutation tests.
fn roomy_device() -> Device {
    Device {
        ram_bytes: usize::MAX / 2,
        ..Device::stm32_f767zi()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every deployable (random linear net × planner kind) certifies
    /// clean, with distances actually cross-checked.
    #[test]
    fn auditor_certifies_random_linear_nets(seed in 0u64..1000, layers in 2usize..7) {
        let graph = zoo::random_linear_net(seed, layers);
        let weights = graph.random_weights(seed ^ 0x5EED);
        let mut audited = 0usize;
        for kind in all_planner_kinds() {
            let engine = Engine::new(Device::stm32_f767zi()).planner(kind);
            let Ok(dep) = engine.deploy(&graph, &weights) else { continue };
            let report = audit(&dep);
            prop_assert!(report.is_clean(), "seed {seed} × {}: {report}", kind.name());
            audited += 1;
        }
        prop_assert!(audited > 0, "seed {seed}: no planner deployed the net");
    }

    /// Same certification over branchy DAG nets (merge layers, multiple
    /// consumers — the schedule auditor's hard cases).
    #[test]
    fn auditor_certifies_random_dag_nets(seed in 0u64..1000, body in 3usize..6) {
        let graph = zoo::random_dag_net(seed, body);
        let weights = graph.random_weights(seed ^ 0xDA6);
        let mut audited = 0usize;
        for kind in all_planner_kinds() {
            let engine = Engine::new(Device::stm32_f767zi()).planner(kind);
            let Ok(dep) = engine.deploy(&graph, &weights) else { continue };
            let report = audit(&dep);
            prop_assert!(report.is_clean(), "seed {seed} × {}: {report}", kind.name());
            audited += 1;
        }
        prop_assert!(audited > 0, "seed {seed}: no planner deployed the net");
    }

    /// Mutation class: shrunk execution distance. At the kernel's true
    /// distance the layer replays clean and the distance check agrees;
    /// at distance − 1 both the distance cross-check and the byte replay
    /// must object.
    #[test]
    fn shrunk_distance_is_detected(m in 1usize..6, k in 1usize..12, n in 1usize..12) {
        let layer = LayerDesc::Dense(FcParams::new(m, k, n, Requant::identity()));
        let events = layer.exec_events(IbScheme::RowBuffer);
        let in_len = layer.in_bytes();
        let out_len = layer.out_bytes();
        let d = exec_distance(in_len, events.iter().copied());

        prop_assert!(check_distance("fc", d, in_len, &events).is_empty());
        let shrunk = check_distance("fc", d - 1, in_len, &events);
        prop_assert!(
            shrunk.iter().any(|v| matches!(v, Violation::DistanceTooSmall { .. })),
            "distance {d}-1 must be flagged, got {shrunk:?}"
        );

        let window = (in_len + usize::try_from(d.max(0)).unwrap()).max(out_len).max(1);
        let clean = replay_layer(&LayerSpec {
            site: "fc", in_len, out_len, distance: d, window, events: &events,
        });
        prop_assert!(clean.is_empty(), "true distance must replay clean: {clean:?}");
        let clobbered = replay_layer(&LayerSpec {
            site: "fc", in_len, out_len, distance: d - 1, window, events: &events,
        });
        prop_assert!(
            clobbered.iter().any(|v| matches!(v, Violation::Clobber { .. })),
            "replay at distance - 1 must clobber, got {clobbered:?}"
        );
    }

    /// Mutation class: shifted tensor base in a chained plan. The base
    /// composition identity (and, for the compensated variant, the
    /// per-layer distance check) must fire.
    #[test]
    fn chain_base_shift_is_detected(seed in 0u64..1000, layers in 2usize..6, shift in 1i64..9) {
        let graph = zoo::random_linear_net(seed, layers);
        prop_assume!(graph.is_chain());
        let plan = plan_chain(&graph, IbScheme::RowBuffer);
        let device = roomy_device();
        let (clean, distances) = audit_chain_plan(&graph, &plan, IbScheme::RowBuffer, &device);
        prop_assert!(clean.is_empty(), "seed {seed}: unmutated plan must audit clean: {clean:?}");
        prop_assert!(distances > 0);

        // (a) Shift one interior base: breaks the composition identity.
        let mut shifted = plan.clone();
        let i = 1 + (seed as usize % (shifted.bases.len() - 1));
        shifted.bases[i] += shift;
        let (v, _) = audit_chain_plan(&graph, &shifted, IbScheme::RowBuffer, &device);
        prop_assert!(!v.is_empty(), "seed {seed}: shifted base {i} must be flagged");

        // (b) Shrink one distance and recompute bases so the identity
        // still holds: the per-layer distance cross-check must fire.
        let mut shrunk = plan.clone();
        let j = seed as usize % shrunk.distances.len();
        shrunk.distances[j] -= 1;
        for idx in 0..shrunk.distances.len() {
            shrunk.bases[idx + 1] = shrunk.bases[idx] - shrunk.distances[idx];
        }
        let (v, _) = audit_chain_plan(&graph, &shrunk, IbScheme::RowBuffer, &device);
        prop_assert!(
            v.iter().any(|x| matches!(x, Violation::DistanceTooSmall { .. } | Violation::Clobber { .. })),
            "seed {seed}: shrunk distance {j} must be flagged, got {v:?}"
        );
    }

    /// Mutation class: corrupted free lists. The canonical schedule
    /// audits clean; dropping, duplicating, or hoisting any free must
    /// each produce a violation.
    #[test]
    fn corrupted_free_lists_are_detected(seed in 0u64..1000, body in 3usize..6) {
        let graph = zoo::random_dag_net(seed, body);
        let n = graph.len();
        let order: Vec<usize> = (0..n).collect();
        let frees = canonical_frees(&graph, &order);
        let planner = VmcuPlanner::default();
        let costs: Vec<(usize, usize)> =
            graph.layers().iter().map(|l| planner.plan_layer(l)).collect();
        let device = roomy_device();

        let base = audit_schedule(&graph, &order, &frees, &costs, &device);
        prop_assert!(base.violations.is_empty(), "seed {seed}: canonical frees must audit clean: {:?}", base.violations);

        let (step, slot) = frees
            .iter()
            .enumerate()
            .find_map(|(k, f)| (!f.is_empty()).then_some((k, 0usize)))
            .expect("every net frees something");

        // Dropped free: the tensor outlives the schedule.
        let mut dropped = frees.clone();
        dropped[step].remove(slot);
        let v = audit_schedule(&graph, &order, &dropped, &costs, &device).violations;
        prop_assert!(
            v.iter().any(|x| matches!(x, Violation::Leak { .. })),
            "seed {seed}: dropped free must leak, got {v:?}"
        );

        // Duplicated free.
        let mut duped = frees.clone();
        let t = duped[step][slot];
        duped[step].push(t);
        let v = audit_schedule(&graph, &order, &duped, &costs, &device).violations;
        prop_assert!(
            v.iter().any(|x| matches!(x, Violation::DoubleFree { .. })),
            "seed {seed}: duplicated free must be flagged, got {v:?}"
        );

        // Early free: hoist one step (or before production) — the last
        // consumer then reads a freed tensor.
        if step > 0 {
            let mut early = frees.clone();
            let t = early[step].remove(slot);
            early[step - 1].push(t);
            let v = audit_schedule(&graph, &order, &early, &costs, &device).violations;
            prop_assert!(
                v.iter().any(|x| matches!(
                    x,
                    Violation::UseAfterFree { .. } | Violation::DoubleFree { .. }
                )),
                "seed {seed}: early free must be flagged, got {v:?}"
            );
        }
    }
}
