//! Segment-aware depthwise convolution.
//!
//! Depthwise layers have no cross-channel reuse, which is why tensor-level
//! managers (TinyEngine) can already run them in place. The segment kernel
//! reproduces that behaviour naturally: its executable distance is small
//! (about one window row), and the pool lets outputs trail inputs through
//! the same bytes — the paper notes vMCU matches TinyEngine's in-place
//! optimization for these layers (§7.2).

use crate::intrinsics::{
    broadcast_cycles, read_weights, requant_into, reuse_runs, window_accumulate,
};
use crate::params::{tap_range, DepthwiseParams};
use crate::trace::free_upto;
use vmcu_pool::{PoolError, SegmentPool};
use vmcu_sim::{Counters, Machine};

/// Runs the depthwise kernel. Input `[H,W,C]` at pool address `b_in`,
/// output `[P,Q,C]` at `b_out`, weights `[R,S,C]` in Flash at `w_base`.
///
/// The device loads each in-bounds tap's input pixel through the pool
/// and its `C` weights from Flash; the counters charge exactly that. The
/// host reads the weights once per call — Flash is immutable during an
/// inference — widened to `i16`. Per output pixel it reads each window
/// row's run of in-bounds taps with one checked pool read, reduces all
/// the window's taps in the window core ([`window_accumulate`]), and
/// adds the fixed price, `tap * taps` and each tap's pool access at its
/// own wrap split.
///
/// # Errors
///
/// Propagates pool violations and memory errors, including a weight
/// image that does not fit in Flash.
pub fn run_depthwise(
    m: &mut Machine,
    pool: &mut SegmentPool,
    p: &DepthwiseParams,
    b_in: i64,
    b_out: i64,
    w_base: usize,
) -> Result<(), PoolError> {
    let (p_out, q_out) = (p.out_h(), p.out_w());
    let weights = read_weights(m, w_base, p.r * p.s * p.c)?;
    let (cost, c) = (m.device.cost, p.c as u64);
    // Per in-bounds tap, apart from its pool load: the weight row's
    // FlashLoad and one fully unrolled `C`-lane MAC tile. `tap * taps`
    // keeps each tap's own rounding.
    let mut tap = Counters::new();
    tap.charge_flash_load(&cost, c);
    tap.charge_macs(&cost, c, true);
    // Per output pixel, apart from its pool store: the accumulator
    // splat, the requant epilogue and the back-edge.
    let mut pixel = Counters::new();
    pixel.cycles += broadcast_cycles(p.c);
    pixel.charge_requant(&cost, c);
    pixel.charge_branches(&cost, 1);
    // One row run of scratch per window row, for runs that wrap the pool.
    let mut scratch = vec![0u8; p.r * p.s * p.c];
    let (mut runs, mut w_runs) = (Vec::new(), Vec::new());
    let mut acc = vec![0i32; p.c];
    let mut out_reg = vec![0u8; p.c];
    let mut next_free = 0usize;
    for pi in 0..p_out {
        let rows = tap_range(pi, p.r, p.stride, p.pad, p.h);
        for qi in 0..q_out {
            let cols = tap_range(qi, p.s, p.stride, p.pad, p.w);
            // A window with no in-bounds column reads no row.
            let rows = if cols.is_empty() { 0..0 } else { rows.clone() };
            let run = cols.len() * p.c;
            let mut price = pixel + tap * (rows.len() * cols.len()) as u64;
            let mut a = reuse_runs(runs);
            w_runs.clear();
            let mut rest = &mut scratch[..];
            for ri in rows {
                let (y, x) = (
                    pi * p.stride + ri - p.pad,
                    qi * p.stride + cols.start - p.pad,
                );
                let in_addr = b_in + ((y * p.w + x) * p.c) as i64;
                let (row_scratch, tail) = rest.split_at_mut(run);
                rest = tail;
                a.push(pool.read_span(m, in_addr, row_scratch)?);
                w_runs.push(&weights[(ri * p.s + cols.start) * p.c..][..run]);
                price += pool.price_loads(&cost, in_addr, cols.len(), p.c);
            }
            acc.fill(0);
            window_accumulate(&mut acc, &a, &w_runs);
            runs = reuse_runs(a);
            requant_into(&acc, p.rq, p.clamp, &mut out_reg);
            let out_addr = b_out + ((pi * q_out + qi) * p.c) as i64;
            pool.store_span(m, &out_reg, out_addr)?;
            m.counters += price + pool.price_store(&cost, out_addr, p.c);
        }
        let upto = free_upto(p.h, p_out, p.stride, p.pad, pi);
        if upto > next_free {
            pool.free(
                m,
                b_in + (next_free * p.w * p.c) as i64,
                (upto - next_free) * p.w * p.c,
            )?;
            next_free = upto;
        }
        m.charge_branches(1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::pool_window;
    use crate::ChainOp;
    use vmcu_sim::Device;
    use vmcu_tensor::{random, reference, Requant, Tensor};

    fn run_case(p: &DepthwiseParams, extra: i64) -> Result<Tensor<i8>, PoolError> {
        let mut m = Machine::new(Device::stm32_f411re());
        let input = random::tensor_i8(&[p.h, p.w, p.c], 41);
        let weight = random::tensor_i8(&[p.r, p.s, p.c], 42);
        let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
        let d = ChainOp::Depthwise(*p).exec_distance() + extra;
        let window = pool_window(p.in_bytes(), p.out_bytes(), d);
        let mut pool = SegmentPool::new(&m, 0, window).unwrap();
        pool.host_fill_live(&mut m, 0, &input.as_bytes()).unwrap();
        run_depthwise(&mut m, &mut pool, p, 0, -d, w_base)?;
        let out = pool.host_read(&m, -d, p.out_bytes())?;
        Ok(Tensor::from_bytes(&[p.out_h(), p.out_w(), p.c], &out))
    }

    fn expected(p: &DepthwiseParams) -> Tensor<i8> {
        let input = random::tensor_i8(&[p.h, p.w, p.c], 41);
        let weight = random::tensor_i8(&[p.r, p.s, p.c], 42);
        reference::depthwise(&input, &weight, None, p.stride, p.pad, p.rq, p.clamp)
    }

    #[test]
    fn matches_reference_same_padding() {
        let p = DepthwiseParams::new(6, 6, 8, 3, 3, 1, 1, Requant::from_scale(1.0 / 16.0, 0));
        assert_eq!(run_case(&p, 0).unwrap(), expected(&p));
    }

    #[test]
    fn matches_reference_stride_two() {
        let p = DepthwiseParams::new(8, 8, 4, 3, 3, 2, 1, Requant::from_scale(1.0 / 8.0, -2));
        assert_eq!(run_case(&p, 0).unwrap(), expected(&p));
    }

    #[test]
    fn matches_reference_large_window() {
        let p = DepthwiseParams::new(9, 9, 3, 7, 7, 1, 3, Requant::from_scale(1.0 / 32.0, 1));
        assert_eq!(run_case(&p, 0).unwrap(), expected(&p));
    }

    #[test]
    fn footprint_is_near_in_place() {
        // Depthwise stride-1: output trails input by ~ one window row, so
        // the footprint is input + O(rows), matching TinyEngine's in-place.
        let p = DepthwiseParams::new(16, 16, 8, 3, 3, 1, 1, Requant::identity());
        let d = ChainOp::Depthwise(p).exec_distance();
        let fp = pool_window(p.in_bytes(), p.out_bytes(), d);
        let row = p.w * p.c;
        assert!(fp <= p.in_bytes() + 3 * row, "fp={fp}");
        assert!(fp < p.in_bytes() + p.out_bytes());
    }

    #[test]
    fn exec_distance_is_tight_empirically() {
        let p = DepthwiseParams::new(6, 6, 4, 3, 3, 1, 1, Requant::from_scale(0.1, 0));
        assert!(run_case(&p, 0).is_ok());
        assert!(matches!(
            run_case(&p, -1).unwrap_err(),
            PoolError::Clobber { .. }
        ));
    }
}
