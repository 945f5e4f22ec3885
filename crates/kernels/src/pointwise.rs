//! Segment-aware pointwise (1×1) convolution.
//!
//! A stride-1 pointwise convolution over NHWC data *is* the
//! fully-connected kernel with `M = H·W` rows: each pixel's channel vector
//! is one input row, the `[C, K]` weight matrix is shared. This is the
//! single-layer workload of the paper's Figure 7/8 evaluation (pointwise
//! and depthwise convolutions dominate the CNNs deployed on MCUs, §7.2).

use crate::fc::run_fc;
use crate::params::PointwiseParams;
use vmcu_pool::{PoolError, SegmentPool};
use vmcu_sim::Machine;

/// Runs the pointwise kernel. Input `[H,W,C]` at pool address `b_in`,
/// output `[H,W,K]` at `b_out`, weights `[C,K]` in Flash at `w_base`.
///
/// # Errors
///
/// Propagates pool violations and memory errors.
pub fn run_pointwise(
    m: &mut Machine,
    pool: &mut SegmentPool,
    p: &PointwiseParams,
    b_in: i64,
    b_out: i64,
    w_base: usize,
) -> Result<(), PoolError> {
    run_fc(m, pool, &p.as_fc(), b_in, b_out, w_base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::pool_window;
    use crate::ChainOp;
    use vmcu_sim::Device;
    use vmcu_tensor::{random, reference, Requant, Tensor};

    /// The kernel's executable distance and the pool window it runs in.
    fn layout(p: &PointwiseParams) -> (i64, usize) {
        let d = ChainOp::Pointwise(*p).exec_distance();
        (d, pool_window(p.in_bytes(), p.out_bytes(), d))
    }

    fn run_case(p: &PointwiseParams) -> (Tensor<i8>, Machine) {
        let mut m = Machine::new(Device::stm32_f411re());
        let input = random::tensor_i8(&[p.h, p.w, p.c], 5);
        let weight = random::tensor_i8(&[p.c, p.k], 6);
        let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
        let (d, window) = layout(p);
        let mut pool = SegmentPool::new(&m, 0, window).unwrap();
        pool.host_fill_live(&mut m, 0, &input.as_bytes()).unwrap();
        run_pointwise(&mut m, &mut pool, p, 0, -d, w_base).unwrap();
        let out = pool.host_read(&m, -d, p.out_bytes()).unwrap();
        (Tensor::from_bytes(&[p.h, p.w, p.k], &out), m)
    }

    #[test]
    fn matches_reference() {
        let p = PointwiseParams::new(6, 6, 8, 4, Requant::from_scale(1.0 / 32.0, 0));
        let (out, _) = run_case(&p);
        let input = random::tensor_i8(&[p.h, p.w, p.c], 5);
        let weight = random::tensor_i8(&[p.c, p.k], 6);
        let expected = reference::pointwise(&input, &weight, None, 1, p.rq, p.clamp);
        assert_eq!(out, expected);
    }

    #[test]
    fn expanding_channels_matches_reference() {
        let p = PointwiseParams::new(4, 5, 3, 7, Requant::from_scale(1.0 / 16.0, -1));
        let (out, _) = run_case(&p);
        let input = random::tensor_i8(&[p.h, p.w, p.c], 5);
        let weight = random::tensor_i8(&[p.c, p.k], 6);
        let expected = reference::pointwise(&input, &weight, None, 1, p.rq, p.clamp);
        assert_eq!(out, expected);
    }

    #[test]
    fn equal_channels_footprint_is_near_half_of_disjoint() {
        // The Figure 7 headline: C == K layers approach 50% RAM reduction.
        let p = PointwiseParams::new(20, 20, 16, 16, Requant::identity());
        let fp = layout(&p).1 as f64;
        let disjoint = (p.in_bytes() + p.out_bytes()) as f64;
        let reduction = 1.0 - fp / disjoint;
        assert!(
            reduction > 0.45,
            "expected ~50% reduction, got {reduction:.3}"
        );
    }

    #[test]
    fn footprint_counters_agree_with_pool_peak() {
        let p = PointwiseParams::new(5, 5, 8, 8, Requant::from_scale(0.02, 0));
        let mut m = Machine::new(Device::stm32_f411re());
        let input = random::tensor_i8(&[p.h, p.w, p.c], 5);
        let weight = random::tensor_i8(&[p.c, p.k], 6);
        let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
        let (d, window) = layout(&p);
        let mut pool = SegmentPool::new(&m, 0, window).unwrap();
        pool.host_fill_live(&mut m, 0, &input.as_bytes()).unwrap();
        run_pointwise(&mut m, &mut pool, &p, 0, -d, w_base).unwrap();
        // The empirical high-water mark can never exceed the planned window.
        assert!(pool.peak_live_bytes() <= window);
        assert!(pool.peak_live_bytes() >= p.in_bytes());
    }
}
