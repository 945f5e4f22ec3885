//! Segment-aware fully-connected kernel — Figure 4 of the paper.
//!
//! Two-level tiling: the outer level moves whole segments between the
//! circular pool and registers (`RAMLoad`/`RAMStore` with modulo boundary
//! checks); the inner level feeds the `Dot` micro-kernel. After each input
//! row is fully consumed it is freed (`RAMFree`), letting subsequent
//! output segments reuse its pool slots. The counters charge that
//! segment sequence; the host computes a whole row at a time (see
//! [`run_fc`]).
//!
//! [`fc_exec_trace`] reproduces the kernel's exact store/free order; the
//! planner places the output at its [`exec_distance`](crate::trace::exec_distance)
//! ([`ChainOp::exec_distance`](crate::ChainOp::exec_distance)).

use crate::intrinsics::{broadcast_cycles, dot_accumulate_u8, requant_into, tiles};
use crate::params::FcParams;
use crate::trace::ExecEvent;
use vmcu_pool::{PoolError, SegmentPool};
use vmcu_sim::{CostModel, Counters, Machine};

/// Dry-run of the kernel's store/free schedule (byte addresses relative to
/// the tensor bases).
pub fn fc_exec_trace(p: &FcParams) -> Vec<ExecEvent> {
    let mut ev = Vec::new();
    for mi in 0..p.m {
        let mut n0 = 0;
        while n0 < p.n {
            let nw = p.seg.min(p.n - n0);
            ev.push(ExecEvent::Store {
                addr: (mi * p.n + n0) as i64,
                len: nw,
            });
            n0 += nw;
        }
        ev.push(ExecEvent::Free {
            addr: (mi * p.k) as i64,
            len: p.k,
        });
    }
    ev
}

/// Counters one row of [`run_fc`] charges on the device apart from its
/// segment accesses, which are priced per row by the pool
/// ([`SegmentPool::price_load`], [`SegmentPool::price_store`]). Per
/// output tile of `seg` lanes: the accumulator splat; per input segment
/// the weight tile's `FlashLoad` (one burst when the tile spans whole
/// weight rows, else one load per row), a fully unrolled `Dot` and its
/// back-edge; then the requant epilogue and the tile's back-edge. One
/// more back-edge closes the row.
fn fc_row_price(cost: &CostModel, p: &FcParams) -> Counters {
    let mut row = Counters::new();
    for (_, nw) in tiles(p.n, p.seg) {
        row.cycles += broadcast_cycles(nw);
        for (_, kw) in tiles(p.k, p.seg) {
            if nw == p.n {
                row.charge_flash_load(cost, (kw * nw) as u64);
            } else {
                let mut weight_row = Counters::new();
                weight_row.charge_flash_load(cost, nw as u64);
                row += weight_row * kw as u64;
            }
            row.charge_macs(cost, (kw * nw) as u64, true);
            row.charge_branches(cost, 1);
        }
        row.charge_requant(cost, nw as u64);
        row.charge_branches(cost, 1);
    }
    row.charge_branches(cost, 1);
    row
}

/// Runs the fully-connected kernel.
///
/// * input int8 tensor at pool logical address `b_in` (row-major `[M,K]`),
/// * output written at pool logical address `b_out` (row-major `[M,N]`),
/// * weights in Flash at `w_base` (row-major `[K,N]`),
/// * optional per-output bias.
///
/// The device moves one `seg`-byte segment per access: each output tile
/// reloads the row's input segments and streams its weight tile from
/// Flash; the counters charge exactly that. The host reads the weights
/// once per call — Flash is immutable during an inference — and per row
/// does one checked pool read of the input row, one `N`-lane dot, one
/// requant and one checked store, then adds the row's price: the fixed
/// part (splats, weight FlashLoads, MAC tiles, requant, back-edges)
/// plus each segment access at its own wrap split.
///
/// # Errors
///
/// Propagates pool violations (clobber/dead-read when the offset is too
/// tight) and memory errors, including a weight image that does not fit
/// in Flash.
///
/// # Panics
///
/// Panics if `bias` has the wrong length.
pub fn run_fc(
    m: &mut Machine,
    pool: &mut SegmentPool,
    p: &FcParams,
    b_in: i64,
    b_out: i64,
    w_base: usize,
    bias: Option<&[i32]>,
) -> Result<(), PoolError> {
    if let Some(b) = bias {
        assert_eq!(b.len(), p.n, "bias length mismatch");
    }
    let weights = m.flash.read(w_base, p.k * p.n)?;
    let cost = m.device.cost;
    let row_price = fc_row_price(&cost, p);
    // Every output tile reloads the whole input row.
    let reloads = p.n.div_ceil(p.seg) as u64;
    let mut a_reg = vec![0u8; p.k];
    let mut acc = vec![0i32; p.n];
    let mut out_reg = vec![0u8; p.n];
    for mi in 0..p.m {
        let (row_in, row_out) = (b_in + (mi * p.k) as i64, b_out + (mi * p.n) as i64);
        let a = pool.read_span(m, row_in, &mut a_reg)?;
        match bias {
            Some(b) => acc.copy_from_slice(b),
            None => acc.fill(0),
        }
        dot_accumulate_u8(a, &weights, p.n, &mut acc);
        requant_into(&acc, p.rq, p.clamp, &mut out_reg);
        pool.store_span(m, &out_reg, row_out)?;
        // RAMFree of the fully consumed input row.
        pool.free(row_in, p.k)?;
        let mut loads = Counters::new();
        for (k0, kw) in tiles(p.k, p.seg) {
            loads += pool.price_load(&cost, row_in + k0 as i64, kw);
        }
        let mut price = row_price + loads * reloads;
        for (n0, nw) in tiles(p.n, p.seg) {
            price += pool.price_store(&cost, row_out + n0 as i64, nw);
        }
        m.counters += price;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::pool_window;
    use crate::ChainOp;
    use vmcu_sim::Device;
    use vmcu_tensor::{random, reference, Requant, Tensor, NO_CLAMP};

    fn distance(p: &FcParams) -> i64 {
        ChainOp::Dense(*p).exec_distance()
    }

    /// Runs the kernel end-to-end in a minimal pool and returns the output
    /// tensor plus the machine for counter inspection.
    fn run_case(p: &FcParams, extra_bytes: i64) -> Result<(Tensor<i8>, Machine), PoolError> {
        let mut m = Machine::new(Device::stm32_f411re());
        let input = random::tensor_i8(&[p.m, p.k], 11);
        let weight = random::tensor_i8(&[p.k, p.n], 22);
        let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
        let d = distance(p) + extra_bytes;
        let window = pool_window(p.in_bytes(), p.out_bytes(), d);
        let mut pool = SegmentPool::new(&m, 0, window).unwrap();
        let b_in: i64 = 0;
        let b_out = b_in - d;
        pool.host_fill_live(&mut m, b_in, &input.as_bytes())
            .unwrap();
        run_fc(&mut m, &mut pool, p, b_in, b_out, w_base, None)?;
        let out = pool.host_read(&m, b_out, p.out_bytes())?;
        Ok((Tensor::from_bytes(&[p.m, p.n], &out), m))
    }

    fn reference_out(p: &FcParams, seed_in: u64, seed_w: u64) -> Tensor<i8> {
        let input = random::tensor_i8(&[p.m, p.k], seed_in);
        let weight = random::tensor_i8(&[p.k, p.n], seed_w);
        reference::dense(&input, &weight, None, p.rq, p.clamp)
    }

    #[test]
    fn matches_reference_square() {
        let p = FcParams::new(6, 8, 8, Requant::from_scale(1.0 / 32.0, 0));
        let (out, _) = run_case(&p, 0).unwrap();
        assert_eq!(out, reference_out(&p, 11, 22));
    }

    #[test]
    fn matches_reference_wide_output() {
        // N > K: the output outgrows the input.
        let p = FcParams::new(5, 4, 10, Requant::from_scale(1.0 / 16.0, 3));
        let (out, _) = run_case(&p, 0).unwrap();
        assert_eq!(out, reference_out(&p, 11, 22));
    }

    #[test]
    fn matches_reference_tall_reduction() {
        // K > N with ragged segment tiling (seg = 5 does not divide 12).
        let mut p = FcParams::new(3, 12, 5, Requant::from_scale(1.0 / 64.0, -2));
        p.clamp = (0, 127); // fused ReLU
        let (out, _) = run_case(&p, 0).unwrap();
        assert_eq!(out, reference_out(&p, 11, 22));
    }

    #[test]
    fn bias_is_applied() {
        let p = FcParams::new(2, 4, 3, Requant::identity());
        let mut m = Machine::new(Device::stm32_f411re());
        let input = Tensor::from_vec(&[2, 4], vec![1i8; 8]);
        let weight = Tensor::from_vec(&[4, 3], vec![0i8; 12]);
        let bias = [5i32, -6, 7];
        let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
        let d = distance(&p).max(0) as usize;
        let mut pool = SegmentPool::new(&m, 0, p.in_bytes() + d + p.out_bytes()).unwrap();
        pool.host_fill_live(&mut m, 0, &input.as_bytes()).unwrap();
        run_fc(&mut m, &mut pool, &p, 0, -(d as i64), w_base, Some(&bias)).unwrap();
        let out = pool.host_read(&m, -(d as i64), 6).unwrap();
        let out = Tensor::from_bytes(&[2, 3], &out);
        let expected = reference::dense(&input, &weight, Some(&bias), p.rq, p.clamp);
        assert_eq!(out, expected);
    }

    #[test]
    fn exec_distance_is_tight_empirically() {
        // At the planner's offset the kernel runs clean; one byte tighter
        // and the checked pool reports a clobber.
        let p = FcParams::new(4, 6, 6, Requant::from_scale(1.0 / 32.0, 0));
        assert!(run_case(&p, 0).is_ok());
        let err = run_case(&p, -1).unwrap_err();
        assert!(
            matches!(err, PoolError::Clobber { .. }),
            "expected clobber, got {err:?}"
        );
    }

    #[test]
    fn overlap_saves_memory_vs_disjoint() {
        let p = FcParams::new(16, 32, 16, Requant::from_scale(1.0 / 64.0, 0));
        let fp = pool_window(p.in_bytes(), p.out_bytes(), distance(&p));
        assert!(fp < p.in_bytes() + p.out_bytes());
        assert!(fp >= p.in_bytes().max(p.out_bytes()));
    }

    #[test]
    fn counters_account_macs_exactly() {
        let p = FcParams::new(4, 8, 8, Requant::from_scale(1.0 / 32.0, 0));
        let (_, m) = run_case(&p, 0).unwrap();
        assert_eq!(m.counters.macs, p.macs());
        assert!(m.counters.modulo_ops > 0, "boundary checks must be charged");
        // Weights are re-read from Flash once per input row.
        assert_eq!(m.counters.flash_read_bytes, (p.m * p.weight_bytes()) as u64);
    }

    #[test]
    fn trace_matches_paper_example_plus_row_slack() {
        // Figure 1(c): M=2, K=3, N=2; the affine bound is 1 empty segment,
        // the executable (row-granular-free) kernel needs N segments.
        let p = FcParams {
            m: 2,
            k: 3,
            n: 2,
            seg: 2,
            rq: Requant::identity(),
            clamp: NO_CLAMP,
        };
        let d = distance(&p);
        assert_eq!(d, 2);
        assert_eq!(pool_window(p.in_bytes(), p.out_bytes(), d), 8); // one above the ideal 7
    }
}
