//! Shadow-memory backstop: every RAM store is checked against a per-byte
//! liveness map mirrored from the segment pool, so an executor that
//! drifted from its certified plan would fail at the memory layer instead
//! of silently corrupting activations.
//!
//! These tests prove two things end to end: (1) every planner's executor
//! keeps pool discipline — whole inferences run clean under the shadow
//! map and still match the reference bits; (2) the map is not vacuous —
//! a raw `Machine` store (how fused chains' row rings, the fused IB
//! workspace and the TinyEngine kernels write) over a byte the pool holds
//! live is caught, and becomes legal once the pool frees that byte.

use vmcu::prelude::*;
use vmcu::vmcu_graph::{exec, zoo};
use vmcu::vmcu_pool::{PoolError, SegmentPool};
use vmcu::vmcu_sim::{Machine, MemError};
use vmcu::vmcu_tensor::random;

/// Whole inferences stay clean under the shadow map for every planner
/// kind, and the outputs still match the reference executor exactly.
#[test]
fn all_executors_run_clean_under_shadow() {
    let g = zoo::demo_linear_net();
    let weights = g.random_weights(100);
    let input = random::tensor_i8(&g.in_shape(), 101);
    let expected = exec::run_reference(&g, &weights, &input);
    let expected = expected.last().unwrap();

    let device = Device::stm32_f767zi();
    for kind in [
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::Vmcu(IbScheme::PixelWindow),
        PlannerKind::VmcuFused(IbScheme::RowBuffer),
        PlannerKind::TinyEngine,
        PlannerKind::Hmcos,
        PlannerKind::VmcuReorder(IbScheme::RowBuffer),
    ] {
        let report = Engine::new(device.clone())
            .planner(kind)
            .deploy(&g, &weights)
            .unwrap_or_else(|e| panic!("{kind:?} deploy failed: {e}"))
            .session()
            .infer(&input)
            .unwrap_or_else(|e| panic!("{kind:?} infer failed under shadow: {e}"));
        assert_eq!(&report.output, expected, "{kind:?} output mismatch");
    }
}

/// The multi-branch DAG nets exercise merge kernels (add/concat frees);
/// they must also hold discipline under the shadow map.
#[test]
fn dag_nets_run_clean_under_shadow() {
    let device = Device::stm32_f767zi();
    for (name, g) in [
        ("mbv2-residual-dag", zoo::mbv2_residual_dag()),
        ("two-head-net", zoo::two_head_net()),
    ] {
        let weights = g.random_weights(31);
        let input = random::tensor_i8(&g.in_shape(), 32);
        let expected = exec::run_reference(&g, &weights, &input);
        let expected = expected.last().unwrap();
        let report = Engine::new(device.clone())
            .planner(PlannerKind::Vmcu(IbScheme::RowBuffer))
            .deploy(&g, &weights)
            .unwrap_or_else(|e| panic!("{name} deploy failed: {e}"))
            .session()
            .infer(&input)
            .unwrap_or_else(|e| panic!("{name} infer failed under shadow: {e}"));
        assert_eq!(&report.output, expected, "{name} output mismatch");
    }
}

/// A raw store over a pool-live byte fails and leaves RAM unchanged; once
/// the pool frees the byte, the same raw store succeeds.
#[test]
fn raw_store_over_a_pool_live_byte_is_caught() {
    let mut m = Machine::new(Device::stm32_f411re());
    let mut pool = SegmentPool::new(&m, 16, 8).unwrap();
    pool.store(&mut m, &[1; 4], 0).unwrap(); // RAM 16..20
    assert_eq!(
        m.ram_store(18, &[9; 4]),
        Err(MemError::ShadowClobber { addr: 18, len: 2 })
    );
    assert_eq!(m.host_read_ram(16, 8).unwrap(), [1, 1, 1, 1, 0, 0, 0, 0]);
    pool.free(&mut m, 0, 4).unwrap();
    pool.store(&mut m, &[2; 2], 4).unwrap(); // RAM 20..22
    assert_eq!(
        m.ram_store(18, &[9; 4]),
        Err(MemError::ShadowClobber { addr: 20, len: 2 })
    );
    m.ram_store(16, &[9; 4]).unwrap();
    assert_eq!(m.host_read_ram(16, 8).unwrap(), [9, 9, 9, 9, 2, 2, 0, 0]);
    // The pool itself still refuses the byte it holds.
    assert!(matches!(
        pool.store(&mut m, &[3; 2], 12),
        Err(PoolError::Clobber { phys: 4, .. })
    ));
}

/// A pool free reaches the shadow map at once: a raw store over the
/// freed bytes succeeds before the pool makes any other access.
#[test]
fn raw_store_over_a_freed_byte_succeeds_at_once() {
    let mut m = Machine::new(Device::stm32_f411re());
    let mut pool = SegmentPool::new(&m, 16, 8).unwrap();
    pool.store(&mut m, &[1; 4], 0).unwrap(); // RAM 16..20
    pool.free(&mut m, 0, 4).unwrap();
    assert_eq!(pool.live_bytes(), 0);
    assert_eq!(m.ram_store(16, &[9; 4]), Ok(()));
    assert_eq!(m.host_read_ram(16, 8).unwrap(), [9, 9, 9, 9, 0, 0, 0, 0]);
}
