//! Theory meets implementation: the §4 affine bound (`D*` from the
//! read-based constraint) must never exceed the executable distance the
//! kernels need (frees are coarser than last-reads), and the gap must stay
//! bounded by the kernels' free granularity — one input row.

use proptest::prelude::*;
use vmcu::vmcu_kernels::params::{DepthwiseParams, FcParams, PointwiseParams};
use vmcu::vmcu_kernels::trace::pool_window;
use vmcu::vmcu_kernels::ChainOp;
use vmcu::vmcu_solver::{analytic, enumerate, FootprintProblem};
use vmcu::vmcu_tensor::Requant;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// FC: affine D* (element granularity) <= executable D <= affine D* +
    /// one output row of slack (Figure 4 stores a row before freeing).
    #[test]
    fn fc_affine_bound_vs_executable(m in 1i64..8, k in 1i64..12, n in 1i64..12) {
        let p = FootprintProblem::gemm(m, n, k); // segment = 1 element
        let affine = enumerate::min_distance(&p).unwrap();
        prop_assert_eq!(affine, analytic::min_distance(&p));
        let params = FcParams {
            m: m as usize,
            k: k as usize,
            n: n as usize,
            seg: (k.min(n)) as usize,
            rq: Requant::identity(),
            clamp: vmcu::vmcu_tensor::NO_CLAMP,
        };
        let exec = ChainOp::Dense(params).exec_distance();
        prop_assert!(
            exec >= affine,
            "executable distance {exec} below the affine lower bound {affine}"
        );
        prop_assert!(
            exec <= affine + k.max(n),
            "gap {} exceeds one row of free-granularity slack",
            exec - affine
        );
    }

    /// Depthwise stride 1: both the affine view and the kernel agree the
    /// overlap is near-in-place (within ~window rows of input).
    #[test]
    fn depthwise_is_near_in_place(h in 4usize..10, w in 4usize..10, c in 1usize..6) {
        let params = DepthwiseParams::new(h, w, c, 3, 3, 1, 1, Requant::identity());
        let exec = ChainOp::Depthwise(params).exec_distance();
        let row = (w * c) as i64;
        prop_assert!(exec <= 3 * row, "distance {exec} exceeds the 3-row window");
        let footprint = (params.in_bytes() as i64 + exec.max(0)) as usize;
        prop_assert!(footprint < params.in_bytes() + params.out_bytes());
    }

    /// The affine solver's footprint is a true lower bound for the
    /// kernel-executable footprint on pointwise layers (both in bytes).
    #[test]
    fn affine_footprint_lower_bounds_executable(hw in 2i64..10, c in 1i64..8, kk in 1i64..8) {
        let seg = c.min(kk);
        let p = FootprintProblem::pointwise(hw * hw, c * seg, kk * seg, seg);
        let affine_bytes = enumerate::solve(&p).footprint * seg;
        let params = PointwiseParams::new(
            hw as usize,
            hw as usize,
            (c * seg) as usize,
            (kk * seg) as usize,
            Requant::identity(),
        );
        let d = ChainOp::Pointwise(params).exec_distance();
        let exec_bytes = pool_window(params.in_bytes(), params.out_bytes(), d) as i64;
        prop_assert!(
            exec_bytes >= affine_bytes,
            "executable {exec_bytes} below affine bound {affine_bytes}"
        );
    }
}
