//! Property tests over the whole stack: for random layer geometries, the
//! planner's offset is (a) safe — the kernel completes with zero pool
//! violations — and (b) tight — one byte less deterministically trips the
//! clobber detector. This is the empirical proof that memory management
//! and kernels are truly *coordinated*.

use proptest::prelude::*;
use vmcu::vmcu_graph::LayerDesc;
use vmcu::vmcu_kernels::fc::run_fc;
use vmcu::vmcu_kernels::fused_ib::{run_fused_ib, IbFlash};
use vmcu::vmcu_kernels::params::{FcParams, IbParams};
use vmcu::vmcu_kernels::trace::pool_window;
use vmcu::vmcu_kernels::{ChainOp, IbScheme};
use vmcu::vmcu_pool::{PoolError, SegmentPool};
use vmcu::vmcu_sim::{Device, Machine};
use vmcu::vmcu_tensor::{random, Requant};

fn run_fc_at(p: &FcParams, d: i64) -> Result<(), PoolError> {
    let mut m = Machine::new(Device::stm32_f411re());
    let input = random::tensor_i8(&[p.m, p.k], 1);
    let weight = random::tensor_i8(&[p.k, p.n], 2);
    let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
    let window = pool_window(p.in_bytes(), p.out_bytes(), d);
    let mut pool = SegmentPool::new(&m, 0, window).unwrap();
    pool.host_fill_live(&mut m, 0, &input.as_bytes()).unwrap();
    run_fc(&mut m, &mut pool, p, 0, -d, w_base, None)?;
    Ok(())
}

fn run_ib_at(p: &IbParams, scheme: IbScheme, d: i64) -> Result<(), PoolError> {
    let mut m = Machine::new(Device::stm32_f767zi());
    let input = random::tensor_i8(&[p.hw, p.hw, p.c_in], 3);
    let w1 = random::tensor_i8(&[p.c_in, p.c_mid], 4);
    let wdw = random::tensor_i8(&[p.rs, p.rs, p.c_mid], 5);
    let w2 = random::tensor_i8(&[p.c_mid, p.c_out], 6);
    let flash = IbFlash {
        w1: m.host_program_flash(&w1.as_bytes()).unwrap(),
        wdw: m.host_program_flash(&wdw.as_bytes()).unwrap(),
        w2: m.host_program_flash(&w2.as_bytes()).unwrap(),
    };
    let window = pool_window(p.in_bytes(), p.out_bytes(), d);
    let mut pool = SegmentPool::new(&m, 0, window).unwrap();
    pool.host_fill_live(&mut m, 0, &input.as_bytes()).unwrap();
    run_fused_ib(&mut m, &mut pool, p, scheme, 0, -d, &flash, window)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FC: safe at D, clobbers at D-1, for arbitrary shapes.
    #[test]
    fn fc_offset_is_safe_and_tight(
        m in 1usize..6, k in 1usize..12, n in 1usize..12
    ) {
        let p = FcParams::new(m, k, n, Requant::from_scale(1.0 / 32.0, 0));
        let d = ChainOp::Dense(p).exec_distance();
        prop_assert!(run_fc_at(&p, d).is_ok(), "kernel must run clean at D");
        prop_assert!(
            matches!(run_fc_at(&p, d - 1), Err(PoolError::Clobber { .. })),
            "kernel must clobber at D-1"
        );
    }

    /// Fused inverted bottleneck: safe at D, clobbers at D-1, across
    /// workspace schemes, strides, and residual/non-residual shapes.
    #[test]
    fn ib_offset_is_safe_and_tight(
        hw in 4usize..9,
        c_in in 2usize..5,
        expand in 2usize..4,
        s1 in 1usize..3,
        s2 in 1usize..3,
        scheme_pick in 0usize..3,
    ) {
        let scheme = [IbScheme::RowBuffer, IbScheme::PixelWindow, IbScheme::SlidingWindow][scheme_pick];
        let p = IbParams::new(hw, c_in, c_in * expand, c_in, 3, (s1, s2, 1));
        let d = LayerDesc::Ib(p).exec_distance(scheme);
        prop_assert!(run_ib_at(&p, scheme, d).is_ok(), "module must run clean at D");
        prop_assert!(
            matches!(run_ib_at(&p, scheme, d - 1), Err(PoolError::Clobber { .. })),
            "module must clobber at D-1"
        );
    }

    /// Planner monotonicity: growing any dimension never shrinks the vMCU
    /// plan (no pathological non-monotonicity a NAS search could exploit
    /// incorrectly).
    #[test]
    fn vmcu_plan_is_monotone_in_image_size(hw in 6usize..12) {
        use vmcu::prelude::*;
        let planner = VmcuPlanner::default();
        let small = LayerDesc::Ib(IbParams::new(hw, 4, 8, 4, 3, (1, 1, 1)));
        let big = LayerDesc::Ib(IbParams::new(hw + 1, 4, 8, 4, 3, (1, 1, 1)));
        let bytes = |l: &LayerDesc| {
            let (a, w) = planner.plan_layer(l);
            a + w
        };
        prop_assert!(bytes(&big) >= bytes(&small));
    }
}
