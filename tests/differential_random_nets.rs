//! Differential fuzzing across executors: randomly generated linear
//! networks and branchy DAGs (random skip edges flowing into add/concat
//! merges) must produce bit-identical outputs under every policy
//! (re-staged and chained), all matching the reference executor. This is
//! the widest-coverage correctness net in the repository.

use vmcu::prelude::*;
use vmcu::vmcu_graph::{exec, zoo};
use vmcu::vmcu_sim::Machine;
use vmcu::vmcu_tensor::random;

/// Base seed for the generated networks. Defaults to 0 (the committed CI
/// run); set `VMCU_TEST_SEED=<n>` to explore other net/weight/input
/// combinations or to reproduce a CI failure locally — every panic
/// message names the exact seed to export.
fn base_seed() -> u64 {
    match std::env::var("VMCU_TEST_SEED") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|e| panic!("VMCU_TEST_SEED=`{s}` is not a u64: {e}")),
        Err(_) => 0,
    }
}

fn check_seed(seed: u64) {
    let g = zoo::random_linear_net(seed, 4);
    let weights = g.random_weights(seed ^ 0xABCD);
    let input = random::tensor_i8(&g.in_shape(), seed ^ 0x1234);
    let expected = exec::run_reference(&g, &weights, &input);
    let expected = expected.last().unwrap();
    let device = Device::stm32_f767zi();

    for kind in [
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::Vmcu(IbScheme::SlidingWindow),
        PlannerKind::VmcuFused(IbScheme::RowBuffer),
        PlannerKind::VmcuPatched(IbScheme::RowBuffer),
        PlannerKind::TinyEngine,
        // The multi-device pipeline at every supported width: cutting a
        // net across 2, 4, or 8 devices must not move a single bit.
        PlannerKind::VmcuSplit {
            devices: 2,
            scheme: IbScheme::RowBuffer,
        },
        PlannerKind::VmcuSplit {
            devices: 4,
            scheme: IbScheme::RowBuffer,
        },
        PlannerKind::VmcuSplit {
            devices: 8,
            scheme: IbScheme::RowBuffer,
        },
    ] {
        let report = Engine::new(device.clone())
            .planner(kind)
            .deploy(&g, &weights)
            .and_then(|d| d.session().infer(&input))
            .unwrap_or_else(|e| panic!("VMCU_TEST_SEED={seed} reproduces: {kind:?} failed: {e}"));
        assert_eq!(
            &report.output, expected,
            "VMCU_TEST_SEED={seed} reproduces: {kind:?} diverges from reference"
        );
    }

    // Chained single-window execution must agree as well.
    let (chained, plan) = Engine::new(device)
        .deploy(&g, &weights)
        .and_then(|d| d.session().infer_chained(&input))
        .unwrap_or_else(|e| panic!("VMCU_TEST_SEED={seed} reproduces: chained: {e}"));
    assert_eq!(
        &chained.output, expected,
        "VMCU_TEST_SEED={seed} reproduces: chained execution diverges"
    );
    assert!(plan.window > 0);
}

/// The branchy-DAG side of the net: every planner that can walk a DAG
/// (including the policies that drop their chain-only plan and fall back
/// to the order-aware graph walk) must agree bit for bit with the
/// reference executor, and the chain-only single-window path must fail
/// with a typed error instead of silently mis-executing.
fn check_dag_seed(seed: u64) {
    let g = zoo::random_dag_net(seed, 6);
    let weights = g.random_weights(seed ^ 0xABCD);
    let input = random::tensor_i8(&g.in_shape(), seed ^ 0x1234);
    let expected = exec::run_reference(&g, &weights, &input);
    let expected = expected.last().unwrap();
    let device = Device::stm32_f767zi();

    for kind in [
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::Vmcu(IbScheme::SlidingWindow),
        PlannerKind::VmcuFused(IbScheme::RowBuffer),
        PlannerKind::VmcuPatched(IbScheme::RowBuffer),
        PlannerKind::TinyEngine,
        PlannerKind::Hmcos,
        // Split degrades to a single whole-graph stage on a DAG — the
        // fallback walk must still be bit-exact.
        PlannerKind::VmcuSplit {
            devices: 4,
            scheme: IbScheme::RowBuffer,
        },
        PlannerKind::VmcuReorder(IbScheme::RowBuffer),
        PlannerKind::VmcuReorder(IbScheme::SlidingWindow),
    ] {
        let report = Engine::new(device.clone())
            .planner(kind)
            .deploy(&g, &weights)
            .and_then(|d| d.session().infer(&input))
            .unwrap_or_else(|e| panic!("VMCU_TEST_SEED={seed} reproduces: {kind:?} failed: {e}"));
        assert_eq!(
            &report.output, expected,
            "VMCU_TEST_SEED={seed} reproduces: {kind:?} diverges from reference on a DAG"
        );
    }

    // Chained single-window execution is a chain-only contract.
    if !g.is_chain() {
        let err = Engine::new(device)
            .deploy(&g, &weights)
            .and_then(|d| d.session().infer_chained(&input))
            .map(|_| ())
            .expect_err("chained execution must reject a branchy DAG");
        assert!(
            matches!(err, EngineError::Unsupported { .. }),
            "VMCU_TEST_SEED={seed} reproduces: expected Unsupported, got {err}"
        );
    }
}

/// Tiny splitmix-style generator so charge shapes derive deterministically
/// from the seed without pulling in an RNG dependency.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Batched MAC charging (one call per tile row) must be counter-identical
/// to the per-tile charging loop it replaced — the host-side hot-loop
/// optimization may not move a single simulated cycle.
#[test]
fn batched_mac_charging_is_counter_identical() {
    let base = base_seed();
    for seed in base..base + 8 {
        let mut s = seed ^ 0xB41C;
        for device in Device::simd_ladder() {
            let mut batched = Machine::new(device.clone());
            let mut per_tile = Machine::new(device.clone());
            for _ in 0..16 {
                let n = 1 + mix(&mut s) % 64;
                let tiles = 1 + mix(&mut s) % 8;
                let unrolled = mix(&mut s) % 2 == 0;
                batched.charge_macs_batched(n, tiles, unrolled);
                for _ in 0..tiles {
                    per_tile.charge_macs(n, unrolled);
                }
            }
            assert_eq!(
                batched.counters.cycles, per_tile.counters.cycles,
                "VMCU_TEST_SEED={seed} reproduces: batched cycles diverge on {}",
                device.name
            );
            assert_eq!(batched.counters.macs, per_tile.counters.macs);
        }
    }
}

#[test]
fn random_networks_agree_across_all_executors() {
    let base = base_seed();
    for seed in base..base + 12 {
        check_seed(seed);
    }
}

#[test]
fn random_networks_agree_more_seeds() {
    let base = base_seed();
    for seed in base + 12..base + 24 {
        check_seed(seed);
    }
}

#[test]
fn random_dags_agree_across_all_executors() {
    let base = base_seed();
    for seed in base..base + 12 {
        check_dag_seed(seed);
    }
}

#[test]
fn random_dags_agree_more_seeds() {
    let base = base_seed();
    for seed in base + 12..base + 24 {
        check_dag_seed(seed);
    }
}
