//! Segment-aware branch-merging kernels: elementwise residual add and
//! channel concatenation.
//!
//! Both kernels consume two operands staged consecutively in the pool
//! (`A` at `b_in`, `B` at `b_in + a_bytes`) and free each operand slice
//! the moment it is consumed, so the output can overlap the dying
//! inputs. Add writes each output segment straight into the slot its
//! `A` segment just vacated (distance 0 — footprint `2·T` instead of
//! the disjoint `3·T`); concat frees one pixel of each operand before
//! storing the fused pixel, needing only `Cb` bytes of slack per pixel.
//!
//! [`add_exec_trace`]/[`concat_exec_trace`] reproduce the exact
//! store/free order for the planner. The kernels run clean at the
//! planned distance; one byte closer they clobber only when the store
//! that sets it lands on the first unfreed operand byte, as in an add of
//! more than one segment or a concat of more than one pixel (see
//! [`crate::trace`]).

use crate::params::{AddParams, ConcatParams};
use crate::trace::ExecEvent;
use vmcu_pool::{PoolError, SegmentPool};
use vmcu_sim::Machine;

/// Saturating int8 add of two staged byte slices.
fn sat_add_bytes(m: &mut Machine, a: &[u8], b: &[u8], out: &mut [u8]) {
    for ((&x, &y), o) in a.iter().zip(b).zip(out.iter_mut()) {
        let sum = i64::from(x as i8) + i64::from(y as i8);
        *o = sum.clamp(i64::from(i8::MIN), i64::from(i8::MAX)) as i8 as u8;
    }
    // One ALU op per lane-less element; adds carry no MACs.
    m.charge_cycles(a.len() as u64);
}

/// Dry-run of the add kernel's store/free schedule.
pub fn add_exec_trace(p: &AddParams) -> Vec<ExecEvent> {
    let t = p.tensor_bytes();
    let mut ev = Vec::new();
    let mut off = 0;
    while off < t {
        let len = p.seg.min(t - off);
        // Both operand segments die before the output segment lands in
        // the slot the A segment vacated.
        ev.push(ExecEvent::Free {
            addr: off as i64,
            len,
        });
        ev.push(ExecEvent::Free {
            addr: (t + off) as i64,
            len,
        });
        ev.push(ExecEvent::Store {
            addr: off as i64,
            len,
        });
        off += len;
    }
    ev
}

/// Runs the elementwise residual add.
///
/// * operand `A` at pool logical address `b_in`,
/// * operand `B` at `b_in + tensor_bytes`,
/// * output written at `b_out` (`b_in` minus the executable distance of
///   [`add_exec_trace`] for the overlapped layout, or any disjoint
///   address).
///
/// # Errors
///
/// Propagates pool violations (clobber/dead-read when the offset is too
/// tight) and memory errors.
pub fn run_add(
    m: &mut Machine,
    pool: &mut SegmentPool,
    p: &AddParams,
    b_in: i64,
    b_out: i64,
) -> Result<(), PoolError> {
    let t = p.tensor_bytes();
    let mut a_reg = vec![0u8; p.seg];
    let mut b_reg = vec![0u8; p.seg];
    let mut out_reg = vec![0u8; p.seg];
    let mut off = 0;
    while off < t {
        let len = p.seg.min(t - off);
        pool.load(m, b_in + off as i64, &mut a_reg[..len])?;
        pool.load(m, b_in + (t + off) as i64, &mut b_reg[..len])?;
        sat_add_bytes(m, &a_reg[..len], &b_reg[..len], &mut out_reg[..len]);
        pool.free(b_in + off as i64, len)?;
        pool.free(b_in + (t + off) as i64, len)?;
        pool.store(m, &out_reg[..len], b_out + off as i64)?;
        m.charge_branches(1);
        off += len;
    }
    Ok(())
}

/// Dry-run of the concat kernel's store/free schedule.
pub fn concat_exec_trace(p: &ConcatParams) -> Vec<ExecEvent> {
    let a = p.a_bytes();
    let co = p.c_a + p.c_b;
    let mut ev = Vec::new();
    for px in 0..p.pixels() {
        ev.push(ExecEvent::Free {
            addr: (px * p.c_a) as i64,
            len: p.c_a,
        });
        ev.push(ExecEvent::Free {
            addr: (a + px * p.c_b) as i64,
            len: p.c_b,
        });
        ev.push(ExecEvent::Store {
            addr: (px * co) as i64,
            len: co,
        });
    }
    ev
}

/// Runs the channel concatenation.
///
/// * operand `A` (`[H,W,Ca]`) at pool logical address `b_in`,
/// * operand `B` (`[H,W,Cb]`) at `b_in + a_bytes`,
/// * output (`[H,W,Ca+Cb]`) written at `b_out`.
///
/// # Errors
///
/// Propagates pool violations and memory errors.
pub fn run_concat(
    m: &mut Machine,
    pool: &mut SegmentPool,
    p: &ConcatParams,
    b_in: i64,
    b_out: i64,
) -> Result<(), PoolError> {
    let a = p.a_bytes() as i64;
    let co = p.c_a + p.c_b;
    let mut px_reg = vec![0u8; co];
    for px in 0..p.pixels() {
        pool.load(m, b_in + (px * p.c_a) as i64, &mut px_reg[..p.c_a])?;
        pool.load(m, b_in + a + (px * p.c_b) as i64, &mut px_reg[p.c_a..])?;
        pool.free(b_in + (px * p.c_a) as i64, p.c_a)?;
        pool.free(b_in + a + (px * p.c_b) as i64, p.c_b)?;
        pool.store(m, &px_reg, b_out + (px * co) as i64)?;
        m.charge_cycles(co as u64);
        m.charge_branches(1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{exec_distance, pool_window};
    use vmcu_sim::Device;
    use vmcu_tensor::{random, reference, Tensor};

    fn add_distance(p: &AddParams) -> i64 {
        exec_distance(p.in_bytes(), add_exec_trace(p))
    }

    fn concat_distance(p: &ConcatParams) -> i64 {
        exec_distance(p.in_bytes(), concat_exec_trace(p))
    }

    fn run_add_case(p: &AddParams, extra: i64) -> Result<Tensor<i8>, PoolError> {
        let mut m = Machine::new(Device::stm32_f411re());
        let a = random::tensor_i8(&[p.h, p.w, p.c], 31);
        let b = random::tensor_i8(&[p.h, p.w, p.c], 32);
        let d = add_distance(p) + extra;
        let mut pool =
            SegmentPool::new(&m, 0, pool_window(p.in_bytes(), p.out_bytes(), d)).unwrap();
        pool.host_fill_live(&mut m, 0, &a.as_bytes()).unwrap();
        pool.host_fill_live(&mut m, p.tensor_bytes() as i64, &b.as_bytes())
            .unwrap();
        run_add(&mut m, &mut pool, p, 0, -d)?;
        let out = pool.host_read(&m, -d, p.out_bytes())?;
        Ok(Tensor::from_bytes(&[p.h, p.w, p.c], &out))
    }

    fn run_concat_case(p: &ConcatParams, extra: i64) -> Result<Tensor<i8>, PoolError> {
        let mut m = Machine::new(Device::stm32_f411re());
        let a = random::tensor_i8(&[p.h, p.w, p.c_a], 41);
        let b = random::tensor_i8(&[p.h, p.w, p.c_b], 42);
        let d = concat_distance(p) + extra;
        let mut pool =
            SegmentPool::new(&m, 0, pool_window(p.in_bytes(), p.out_bytes(), d)).unwrap();
        pool.host_fill_live(&mut m, 0, &a.as_bytes()).unwrap();
        pool.host_fill_live(&mut m, p.a_bytes() as i64, &b.as_bytes())
            .unwrap();
        run_concat(&mut m, &mut pool, p, 0, -d)?;
        let out = pool.host_read(&m, -d, p.out_bytes())?;
        Ok(Tensor::from_bytes(&[p.h, p.w, p.c_a + p.c_b], &out))
    }

    #[test]
    fn add_matches_reference() {
        let p = AddParams::new(6, 5, 8);
        let out = run_add_case(&p, 0).unwrap();
        let a = random::tensor_i8(&[6, 5, 8], 31);
        let b = random::tensor_i8(&[6, 5, 8], 32);
        assert_eq!(out, reference::add(&a, &b));
    }

    #[test]
    fn add_distance_is_zero_and_tight() {
        // In-slot reuse: no slack at all, so the footprint is exactly the
        // two operands (vs 3·T for a disjoint output).
        let p = AddParams::new(6, 5, 8);
        assert_eq!(add_distance(&p), 0);
        assert_eq!(
            pool_window(p.in_bytes(), p.out_bytes(), 0),
            2 * p.tensor_bytes()
        );
        assert!(run_add_case(&p, 0).is_ok());
        let err = run_add_case(&p, -1).unwrap_err();
        assert!(
            matches!(err, PoolError::Clobber { .. }),
            "expected clobber, got {err:?}"
        );
    }

    #[test]
    fn concat_matches_reference() {
        let p = ConcatParams::new(5, 4, 6, 10);
        let out = run_concat_case(&p, 0).unwrap();
        let a = random::tensor_i8(&[5, 4, 6], 41);
        let b = random::tensor_i8(&[5, 4, 10], 42);
        assert_eq!(out, reference::concat(&a, &b));
    }

    #[test]
    fn concat_distance_is_tight_empirically() {
        let p = ConcatParams::new(5, 4, 6, 10);
        assert!(run_concat_case(&p, 0).is_ok());
        let err = run_concat_case(&p, -1).unwrap_err();
        assert!(
            matches!(err, PoolError::Clobber { .. }),
            "expected clobber, got {err:?}"
        );
    }

    #[test]
    fn concat_overlap_saves_memory_vs_disjoint() {
        let p = ConcatParams::new(8, 8, 12, 4);
        let d = concat_distance(&p);
        let fp = pool_window(p.in_bytes(), p.out_bytes(), d);
        // Per-pixel frees leave at most (pixels-1)·Cb bytes of slack.
        assert_eq!(d, ((p.pixels() - 1) * p.c_b) as i64);
        assert!(fp < p.in_bytes() + p.out_bytes());
        assert!(fp >= p.in_bytes().max(p.out_bytes()));
    }

    #[test]
    fn ragged_add_segments() {
        // seg does not divide the tensor size.
        let mut p = AddParams::new(3, 3, 7);
        p.seg = 4;
        let out = run_add_case(&p, 0).unwrap();
        let a = random::tensor_i8(&[3, 3, 7], 31);
        let b = random::tensor_i8(&[3, 3, 7], 32);
        assert_eq!(out, reference::add(&a, &b));
    }
}
