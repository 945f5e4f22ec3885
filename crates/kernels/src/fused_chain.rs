//! Generalized multi-layer fused chain kernel — the paper's multi-layer
//! case (§5.2) beyond inverted bottlenecks.
//!
//! A [`FusedChain`] is a run of consecutive layers (pointwise, depthwise,
//! dense 2D convolution, fully-connected) executed as **one** kernel:
//! intermediate tensors never materialize. Each intermediate keeps only a
//! ring of the rows its consumer's sliding window still needs (the
//! line-buffer generalization of `fused_ib`'s expanded-row ring), all
//! rings live side by side in one workspace arena, and the chain's final
//! output rows replace freed input rows inside the circular segment pool
//! — so the whole chain deploys in
//! `max(in + D_exec, out) + Σ ring bytes` instead of paying the largest
//! intermediate twice like layer-at-a-time planning does.
//!
//! The execution order is a single demand-driven schedule
//! ([`chain_schedule`]): rows of stage `i` are produced just in time for
//! the stage-`i+1` window that consumes them. The kernel executes the
//! schedule, the dry-run trace ([`chain_exec_trace`]) mirrors it, and the
//! planner's offset ([`chain_exec_distance`]) derives from that trace —
//! correct by construction and verified empirically by the checked pool.

use crate::fc::fc_exec_trace;
use crate::intrinsics::{
    broadcast_cycles, dot_accumulate, read_weights, requant_into, reuse_runs, window_accumulate,
};
use crate::params::{tap_range, Conv2dParams, DepthwiseParams, FcParams, PointwiseParams};
use crate::trace::{exec_distance, push_event, row_window_trace, ExecEvent};
use std::fmt;
use vmcu_pool::{PoolError, SegmentPool};
use vmcu_sim::{CostModel, Counters, Machine};

/// One fusable operator of a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChainOp {
    /// Pointwise (1×1) convolution, stride 1.
    Pointwise(PointwiseParams),
    /// Depthwise convolution.
    Depthwise(DepthwiseParams),
    /// Dense 2D convolution.
    Conv2d(Conv2dParams),
    /// Fully-connected layer (each of the `M` rows is independent).
    Dense(FcParams),
}

impl ChainOp {
    /// Human-readable operator kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ChainOp::Pointwise(_) => "pointwise",
            ChainOp::Depthwise(_) => "depthwise",
            ChainOp::Conv2d(_) => "conv2d",
            ChainOp::Dense(_) => "dense",
        }
    }

    /// Number of input rows (the pipelined dimension).
    pub fn in_rows(&self) -> usize {
        match self {
            ChainOp::Pointwise(p) => p.h,
            ChainOp::Depthwise(p) => p.h,
            ChainOp::Conv2d(p) => p.h,
            ChainOp::Dense(p) => p.m,
        }
    }

    /// Bytes per input row.
    pub fn in_row_bytes(&self) -> usize {
        match self {
            ChainOp::Pointwise(p) => p.w * p.c,
            ChainOp::Depthwise(p) => p.w * p.c,
            ChainOp::Conv2d(p) => p.w * p.c,
            ChainOp::Dense(p) => p.k,
        }
    }

    /// Number of output rows.
    pub fn out_rows(&self) -> usize {
        match self {
            ChainOp::Pointwise(p) => p.h,
            ChainOp::Depthwise(p) => p.out_h(),
            ChainOp::Conv2d(p) => p.out_h(),
            ChainOp::Dense(p) => p.m,
        }
    }

    /// Bytes per output row.
    pub fn out_row_bytes(&self) -> usize {
        match self {
            ChainOp::Pointwise(p) => p.w * p.k,
            ChainOp::Depthwise(p) => p.out_w() * p.c,
            ChainOp::Conv2d(p) => p.out_w() * p.k,
            ChainOp::Dense(p) => p.n,
        }
    }

    /// Sliding-window geometry in the row dimension:
    /// `(window rows, stride, padding)`.
    pub fn row_window(&self) -> (usize, usize, usize) {
        match self {
            ChainOp::Pointwise(_) | ChainOp::Dense(_) => (1, 1, 0),
            ChainOp::Depthwise(p) => (p.r, p.stride, p.pad),
            ChainOp::Conv2d(p) => (p.r, p.stride, p.pad),
        }
    }

    /// Input bytes.
    pub fn in_bytes(&self) -> usize {
        self.in_rows() * self.in_row_bytes()
    }

    /// Output bytes.
    pub fn out_bytes(&self) -> usize {
        self.out_rows() * self.out_row_bytes()
    }

    /// The dry-run store/free trace of the operator's single-layer
    /// segment kernel — the one place an operator kind picks its trace.
    pub fn exec_events(&self) -> Vec<ExecEvent> {
        match self {
            ChainOp::Pointwise(p) => fc_exec_trace(&p.as_fc()),
            ChainOp::Dense(p) => fc_exec_trace(p),
            ChainOp::Depthwise(_) | ChainOp::Conv2d(_) => {
                let (_, stride, pad) = self.row_window();
                row_window_trace(
                    self.in_rows(),
                    self.in_row_bytes(),
                    self.out_rows(),
                    self.out_row_bytes(),
                    stride,
                    pad,
                )
            }
        }
    }

    /// Minimal executable `bIn − bOut` (bytes) of the single-layer
    /// kernel: [`exec_distance`] of [`Self::exec_events`].
    pub fn exec_distance(&self) -> i64 {
        exec_distance(self.in_bytes(), self.exec_events())
    }

    /// Highest input row (unclamped, may be negative with padding) needed
    /// to produce output row `row`.
    fn need_hi(&self, row: usize) -> i64 {
        let (r, stride, pad) = self.row_window();
        (row * stride + r - 1) as i64 - pad as i64
    }

    /// Lowest input row needed to produce output row `row`.
    fn need_lo(&self, row: usize) -> usize {
        let (_, stride, pad) = self.row_window();
        (row * stride).saturating_sub(pad)
    }
}

/// Error from chain construction: consecutive operators whose row
/// geometry does not compose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainShapeError {
    /// Index of the operator whose input does not match.
    pub op: usize,
    /// `(rows, row_bytes)` the predecessor produces.
    pub produced: (usize, usize),
    /// `(rows, row_bytes)` this operator expects.
    pub expected: (usize, usize),
}

impl fmt::Display for ChainShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chain op {} expects {:?} (rows, row bytes) but predecessor produces {:?}",
            self.op, self.expected, self.produced
        )
    }
}

impl std::error::Error for ChainShapeError {}

/// A fused multi-layer chain.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FusedChain {
    ops: Vec<ChainOp>,
}

impl FusedChain {
    /// Builds a chain, validating that consecutive row geometries compose.
    ///
    /// # Errors
    ///
    /// Returns [`ChainShapeError`] on the first mismatching edge.
    ///
    /// # Panics
    ///
    /// Panics on an empty operator list.
    pub fn new(ops: Vec<ChainOp>) -> Result<Self, ChainShapeError> {
        assert!(!ops.is_empty(), "a chain needs at least one operator");
        for i in 1..ops.len() {
            let produced = (ops[i - 1].out_rows(), ops[i - 1].out_row_bytes());
            let expected = (ops[i].in_rows(), ops[i].in_row_bytes());
            if produced != expected {
                return Err(ChainShapeError {
                    op: i,
                    produced,
                    expected,
                });
            }
        }
        Ok(Self { ops })
    }

    /// The operators in execution order.
    pub fn ops(&self) -> &[ChainOp] {
        &self.ops
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the chain is empty (never true for a constructed chain).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Row counts of every tensor: `heights()[0]` is the chain input,
    /// `heights()[i]` the output of operator `i - 1`.
    pub fn heights(&self) -> Vec<usize> {
        let mut h = Vec::with_capacity(self.ops.len() + 1);
        h.push(self.ops[0].in_rows());
        for op in &self.ops {
            h.push(op.out_rows());
        }
        h
    }

    /// Chain input bytes.
    ///
    /// # Panics
    ///
    /// Panics if the chain is empty — construction requires at least
    /// one operator.
    pub fn in_bytes(&self) -> usize {
        self.ops[0].in_bytes()
    }

    /// Chain output bytes.
    ///
    /// # Panics
    ///
    /// Panics if the chain is empty — construction requires at least
    /// one operator.
    pub fn out_bytes(&self) -> usize {
        self.ops.last().expect("non-empty chain").out_bytes()
    }

    /// Ring capacity (in rows) for intermediate tensor `i` (`1 ≤ i < n`):
    /// the consumer's window height, clamped to the tensor height.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not an intermediate index (`1 ≤ i < n`).
    pub fn ring_rows(&self, i: usize) -> usize {
        assert!(i >= 1 && i < self.ops.len(), "intermediate index");
        let (r, _, _) = self.ops[i].row_window();
        r.min(self.heights()[i])
    }
}

/// One step of the fused chain schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChainStep {
    /// Produce row `row` of intermediate tensor `stage` (`1 ≤ stage < n`)
    /// into its workspace ring.
    ProduceRow {
        /// Intermediate tensor index.
        stage: usize,
        /// Row to produce.
        row: usize,
    },
    /// Produce final output row `row` and store it into the pool.
    StoreOutRow(usize),
    /// Free chain-input rows `[from, to)` from the pool.
    FreeInRows {
        /// First row to free.
        from: usize,
        /// One past the last row to free.
        to: usize,
    },
}

/// Recursively tops intermediate `stage` up to row `upto` (inclusive),
/// producing upstream rows just in time so every ring read stays within
/// its ring's capacity.
fn ensure_rows(
    chain: &FusedChain,
    heights: &[usize],
    produced: &mut [usize],
    steps: &mut Vec<ChainStep>,
    stage: usize,
    upto: i64,
) {
    while (produced[stage] as i64) <= upto {
        let row = produced[stage];
        if stage > 1 {
            let need = chain.ops[stage - 1]
                .need_hi(row)
                .min(heights[stage - 1] as i64 - 1);
            ensure_rows(chain, heights, produced, steps, stage - 1, need);
        }
        steps.push(ChainStep::ProduceRow { stage, row });
        produced[stage] += 1;
    }
}

/// The shared fused schedule: the kernel executes it, the trace mirrors
/// it, and tests assert their agreement.
pub fn chain_schedule(chain: &FusedChain) -> Vec<ChainStep> {
    let n = chain.len();
    let heights = chain.heights();
    let mut produced = vec![0usize; n.max(2)];
    let mut steps = Vec::new();
    let mut freed = 0usize;
    for p in 0..heights[n] {
        if n > 1 {
            let need = chain.ops[n - 1].need_hi(p).min(heights[n - 1] as i64 - 1);
            ensure_rows(chain, &heights, &mut produced, &mut steps, n - 1, need);
        }
        steps.push(ChainStep::StoreOutRow(p));
        // Retire input rows nothing downstream will read again: the next
        // stage-1 row to produce (or, for a single-op chain, the next
        // output row) bounds the live input window from below. A row
        // of padding only needs nothing past the input end.
        let in_lo = if n == 1 {
            if p + 1 == heights[1] {
                heights[0]
            } else {
                chain.ops[0].need_lo(p + 1).min(heights[0])
            }
        } else if produced[1] == heights[1] {
            heights[0]
        } else {
            chain.ops[0].need_lo(produced[1]).min(heights[0])
        };
        if in_lo > freed {
            steps.push(ChainStep::FreeInRows {
                from: freed,
                to: in_lo,
            });
            freed = in_lo;
        }
    }
    steps
}

/// Dry-run store/free trace over the pool tensors (byte addresses
/// relative to the chain input/output bases).
///
/// # Panics
///
/// Panics if the chain is empty — construction requires at least one
/// operator.
pub fn chain_exec_trace(chain: &FusedChain) -> Vec<ExecEvent> {
    let irb = chain.ops[0].in_row_bytes();
    let orb = chain.ops.last().expect("non-empty chain").out_row_bytes();
    let mut ev = Vec::new();
    for step in chain_schedule(chain) {
        let event = match step {
            ChainStep::ProduceRow { .. } => continue,
            ChainStep::StoreOutRow(p) => ExecEvent::Store {
                addr: (p * orb) as i64,
                len: orb,
            },
            ChainStep::FreeInRows { from, to } => ExecEvent::Free {
                addr: (from * irb) as i64,
                len: (to - from) * irb,
            },
        };
        push_event(&mut ev, event);
    }
    ev
}

/// Minimal executable `bIn − bOut` (bytes) for the fused chain.
pub fn chain_exec_distance(chain: &FusedChain) -> i64 {
    exec_distance(chain.in_bytes(), chain_exec_trace(chain))
}

/// Workspace bytes beside the pool: one line-buffer ring per intermediate
/// tensor plus the widest staging row.
pub fn chain_workspace_bytes(chain: &FusedChain) -> usize {
    let n = chain.len();
    let rings: usize = (1..n)
        .map(|i| chain.ring_rows(i) * chain.ops[i].in_row_bytes())
        .sum();
    let staging = chain
        .ops
        .iter()
        .map(ChainOp::out_row_bytes)
        .max()
        .unwrap_or(0);
    rings + staging
}

/// Placement of one intermediate ring inside the workspace arena.
struct Ring {
    base: usize,
    rows: usize,
    row_bytes: usize,
}

/// Execution context shared by every row computation of one chain run:
/// the chain, its ring placements, every operator's weights (read once
/// per run — Flash is immutable during an inference — and widened to
/// `i16`), and the chain-input pool address.
struct ChainExec<'a> {
    chain: &'a FusedChain,
    rings: Vec<Ring>,
    weights: Vec<Vec<i16>>,
    b_in: i64,
    cost: CostModel,
}

/// Host registers of [`ChainExec::compute_row`], sized once per run for
/// the widest operator.
struct Regs {
    a: Vec<u8>,
    acc: Vec<i32>,
}

impl ChainExec<'_> {
    /// Reads the run of `taps` consecutive `len`-byte accesses at
    /// `offset` within row `row` of tensor `stage` in place, with one
    /// check — a pool read for the chain input, the workspace ring
    /// otherwise — and the modelled price of their `RAMLoad`s, each at
    /// its own wrap split.
    #[allow(clippy::too_many_arguments)]
    fn read<'m>(
        &self,
        m: &'m Machine,
        pool: &SegmentPool,
        stage: usize,
        row: usize,
        offset: usize,
        taps: usize,
        len: usize,
        scratch: &'m mut [u8],
    ) -> Result<(&'m [u8], Counters), PoolError> {
        let run = taps * len;
        if stage == 0 {
            let irb = self.chain.ops[0].in_row_bytes();
            let addr = self.b_in + (row * irb + offset) as i64;
            let bytes = pool.read_span(m, addr, &mut scratch[..run])?;
            Ok((bytes, pool.price_loads(&self.cost, addr, taps, len)))
        } else {
            let ring = &self.rings[stage - 1];
            let addr = ring.base + (row % ring.rows) * ring.row_bytes + offset;
            let mut load = Counters::new();
            load.charge_ram_load(&self.cost, len as u64);
            Ok((m.ram.read(addr, run)?, load * taps as u64))
        }
    }

    /// Computes one output row of operator `op_idx` (reading tensor
    /// `op_idx`, bit-exact against the reference operators) into `out`,
    /// charging what the device loop does: per pixel its loads, the
    /// operator's weight FlashLoads, splat, `Dot`s and requant.
    fn compute_row(
        &self,
        m: &mut Machine,
        pool: &SegmentPool,
        op_idx: usize,
        row: usize,
        out: &mut [u8],
        regs: &mut Regs,
    ) -> Result<(), PoolError> {
        let cost = &self.cost;
        let w = &self.weights[op_idx];
        let mut price = Counters::new();
        match self.chain.ops[op_idx] {
            ChainOp::Pointwise(p) => {
                let (c, k) = (p.c as u64, p.k as u64);
                price.charge_flash_load(cost, c * k);
                let mut pixel = Counters::new();
                pixel.cycles += broadcast_cycles(p.k);
                pixel.charge_macs(cost, c * k, true);
                pixel.charge_requant(cost, k);
                let acc = &mut regs.acc[..p.k];
                for x in 0..p.w {
                    let (a, load) =
                        self.read(m, pool, op_idx, row, x * p.c, 1, p.c, &mut regs.a)?;
                    acc.fill(0);
                    dot_accumulate(a, w, p.k, acc);
                    requant_into(acc, p.rq, p.clamp, &mut out[x * p.k..(x + 1) * p.k]);
                    price += load + pixel;
                }
            }
            ChainOp::Dense(p) => {
                let (k, n) = (p.k as u64, p.n as u64);
                let (a, load) = self.read(m, pool, op_idx, row, 0, 1, p.k, &mut regs.a)?;
                let acc = &mut regs.acc[..p.n];
                acc.fill(0);
                dot_accumulate(a, w, p.n, acc);
                requant_into(acc, p.rq, p.clamp, out);
                price += load;
                price.charge_flash_load(cost, k * n);
                price.cycles += broadcast_cycles(p.n);
                price.charge_macs(cost, k * n, true);
                price.charge_requant(cost, n);
            }
            ChainOp::Depthwise(p) => {
                let c = p.c as u64;
                let mut tap = Counters::new();
                tap.charge_flash_load(cost, c);
                tap.charge_macs(cost, c, true);
                let mut pixel = Counters::new();
                pixel.cycles += broadcast_cycles(p.c);
                pixel.charge_requant(cost, c);
                let acc = &mut regs.acc[..p.c];
                let rows = tap_range(row, p.r, p.stride, p.pad, p.h);
                let (mut runs, mut w_runs) = (Vec::new(), Vec::new());
                for q in 0..p.out_w() {
                    let cols = tap_range(q, p.s, p.stride, p.pad, p.w);
                    // A window with no in-bounds column reads no row.
                    let rows = if cols.is_empty() { 0..0 } else { rows.clone() };
                    let run = cols.len() * p.c;
                    let mut a = reuse_runs(runs);
                    w_runs.clear();
                    let mut rest = &mut regs.a[..];
                    for ri in rows.clone() {
                        let (y, x) = (
                            row * p.stride + ri - p.pad,
                            q * p.stride + cols.start - p.pad,
                        );
                        let (scratch, tail) = rest.split_at_mut(run);
                        rest = tail;
                        let (bytes, load) =
                            self.read(m, pool, op_idx, y, x * p.c, cols.len(), p.c, scratch)?;
                        a.push(bytes);
                        w_runs.push(&w[(ri * p.s + cols.start) * p.c..][..run]);
                        price += load;
                    }
                    acc.fill(0);
                    window_accumulate(acc, &a, &w_runs);
                    runs = reuse_runs(a);
                    requant_into(acc, p.rq, p.clamp, &mut out[q * p.c..(q + 1) * p.c]);
                    price += pixel + tap * (rows.len() * cols.len()) as u64;
                }
            }
            ChainOp::Conv2d(p) => {
                let (c, k) = (p.c as u64, p.k as u64);
                let tap_bytes = p.c * p.k;
                let mut tap = Counters::new();
                tap.charge_flash_load(cost, c * k);
                tap.charge_macs(cost, c * k, true);
                let mut pixel = Counters::new();
                pixel.cycles += broadcast_cycles(p.k);
                pixel.charge_requant(cost, k);
                let acc = &mut regs.acc[..p.k];
                let rows = tap_range(row, p.r, p.stride, p.pad, p.h);
                for q in 0..p.out_w() {
                    let cols = tap_range(q, p.s, p.stride, p.pad, p.w);
                    acc.fill(0);
                    for ri in rows.clone() {
                        let y = row * p.stride + ri - p.pad;
                        for si in cols.clone() {
                            let at = (q * p.stride + si - p.pad) * p.c;
                            let (a, load) =
                                self.read(m, pool, op_idx, y, at, 1, p.c, &mut regs.a)?;
                            let wt = &w[(ri * p.s + si) * tap_bytes..][..tap_bytes];
                            dot_accumulate(a, wt, p.k, acc);
                            price += load;
                        }
                    }
                    requant_into(acc, p.rq, p.clamp, &mut out[q * p.k..(q + 1) * p.k]);
                    price += pixel + tap * (rows.len() * cols.len()) as u64;
                }
            }
        }
        price.charge_branches(cost, 1);
        m.counters += price;
        Ok(())
    }
}

/// Weight bytes of one chain operator (its Flash image).
fn op_weight_bytes(op: &ChainOp) -> usize {
    match op {
        ChainOp::Pointwise(p) => p.c * p.k,
        ChainOp::Dense(p) => p.k * p.n,
        ChainOp::Depthwise(p) => p.r * p.s * p.c,
        ChainOp::Conv2d(p) => p.r * p.s * p.c * p.k,
    }
}

/// Bytes the reads of tensor `op`'s input hold at once (a pixel, a dense
/// row, or a depthwise window's row runs), and the widest accumulator
/// row `op` fills.
fn op_regs(op: &ChainOp) -> (usize, usize) {
    match op {
        ChainOp::Pointwise(p) => (p.c, p.k),
        ChainOp::Dense(p) => (p.k, p.n),
        ChainOp::Depthwise(p) => (p.r * p.s * p.c, p.c),
        ChainOp::Conv2d(p) => (p.c, p.k),
    }
}

/// Runs the fused chain kernel.
///
/// * chain input at pool logical address `b_in`,
/// * chain output at pool logical address `b_out`,
/// * per-operator weights in Flash at `flash[i]`,
/// * line-buffer rings at RAM address `ws_base`
///   (≥ [`chain_workspace_bytes`] minus the staging row).
///
/// The device reloads each operator's weights from Flash per row (per
/// tap for depthwise and conv2d) and each input pixel per use; the
/// counters charge exactly that. The host reads every operator's weights
/// once per call, widened to `i16`, and its inputs in place: a depthwise
/// window one row's run of in-bounds taps per checked read, its taps
/// reduced together in the window core ([`window_accumulate`]).
///
/// # Errors
///
/// Propagates pool violations (offset too tight) and memory errors,
/// including a weight image that does not fit in Flash.
///
/// # Panics
///
/// Panics when `flash` does not name one base address per operator.
pub fn run_fused_chain(
    m: &mut Machine,
    pool: &mut SegmentPool,
    chain: &FusedChain,
    b_in: i64,
    b_out: i64,
    flash: &[usize],
    ws_base: usize,
) -> Result<(), PoolError> {
    assert_eq!(
        flash.len(),
        chain.len(),
        "one flash base per chain operator"
    );
    let n = chain.len();
    let irb = chain.ops[0].in_row_bytes();
    let orb = chain.ops[n - 1].out_row_bytes();
    // Lay the rings out back to back in the workspace arena.
    let mut rings = Vec::with_capacity(n.saturating_sub(1));
    let mut base = ws_base;
    for i in 1..n {
        let rows = chain.ring_rows(i);
        let row_bytes = chain.ops[i].in_row_bytes();
        rings.push(Ring {
            base,
            rows,
            row_bytes,
        });
        base += rows * row_bytes;
    }
    let weights = chain
        .ops
        .iter()
        .zip(flash)
        .map(|(op, &w_base)| read_weights(m, w_base, op_weight_bytes(op)))
        .collect::<Result<Vec<_>, _>>()?;
    let exec = ChainExec {
        chain,
        rings,
        weights,
        b_in,
        cost: m.device.cost,
    };
    let (a_len, acc_len) = chain
        .ops
        .iter()
        .map(op_regs)
        .fold((0, 0), |(a, c), (a2, c2)| (a.max(a2), c.max(c2)));
    let mut regs = Regs {
        a: vec![0u8; a_len],
        acc: vec![0i32; acc_len],
    };
    let mut row_buf = vec![
        0u8;
        chain
            .ops
            .iter()
            .map(ChainOp::out_row_bytes)
            .max()
            .unwrap_or(0)
    ];
    for step in chain_schedule(chain) {
        match step {
            ChainStep::ProduceRow { stage, row } => {
                let rb = chain.ops[stage].in_row_bytes();
                exec.compute_row(m, pool, stage - 1, row, &mut row_buf[..rb], &mut regs)?;
                let ring = &exec.rings[stage - 1];
                let addr = ring.base + (row % ring.rows) * ring.row_bytes;
                m.ram_store(addr, &row_buf[..rb])?;
            }
            ChainStep::StoreOutRow(p) => {
                exec.compute_row(m, pool, n - 1, p, &mut row_buf[..orb], &mut regs)?;
                pool.store(m, &row_buf[..orb], b_out + (p * orb) as i64)?;
            }
            ChainStep::FreeInRows { from, to } => {
                pool.free(m, b_in + (from * irb) as i64, (to - from) * irb)?;
                m.charge_branches(1);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::pool_window;
    use vmcu_sim::Device;
    use vmcu_tensor::{random, reference, Requant, Tensor};

    fn rq() -> Requant {
        Requant::from_scale(1.0 / 32.0, 0)
    }

    /// Weights for each op, deterministic per position.
    fn chain_weights(chain: &FusedChain) -> Vec<Tensor<i8>> {
        chain
            .ops()
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let seed = 90 + i as u64;
                match op {
                    ChainOp::Pointwise(p) => random::tensor_i8(&[p.c, p.k], seed),
                    ChainOp::Depthwise(p) => random::tensor_i8(&[p.r, p.s, p.c], seed),
                    ChainOp::Conv2d(p) => random::tensor_i8(&[p.r, p.s, p.c, p.k], seed),
                    ChainOp::Dense(p) => random::tensor_i8(&[p.k, p.n], seed),
                }
            })
            .collect()
    }

    /// Oracle: run the chain through the reference operators.
    fn chain_reference(
        chain: &FusedChain,
        weights: &[Tensor<i8>],
        input: &Tensor<i8>,
    ) -> Tensor<i8> {
        let mut cur = input.clone();
        for (op, w) in chain.ops().iter().zip(weights) {
            cur = match op {
                ChainOp::Pointwise(p) => reference::pointwise(&cur, w, None, 1, p.rq, p.clamp),
                ChainOp::Depthwise(p) => {
                    reference::depthwise(&cur, w, None, p.stride, p.pad, p.rq, p.clamp)
                }
                ChainOp::Conv2d(p) => {
                    reference::conv2d(&cur, w, None, p.stride, p.pad, p.rq, p.clamp)
                }
                ChainOp::Dense(p) => reference::dense(&cur, w, None, p.rq, p.clamp),
            };
        }
        cur
    }

    fn input_for(chain: &FusedChain, seed: u64) -> Tensor<i8> {
        let shape = match chain.ops()[0] {
            ChainOp::Pointwise(p) => vec![p.h, p.w, p.c],
            ChainOp::Depthwise(p) => vec![p.h, p.w, p.c],
            ChainOp::Conv2d(p) => vec![p.h, p.w, p.c],
            ChainOp::Dense(p) => vec![p.m, p.k],
        };
        random::tensor_i8(&shape, seed)
    }

    fn out_shape(chain: &FusedChain) -> Vec<usize> {
        match chain.ops().last().unwrap() {
            ChainOp::Pointwise(p) => vec![p.h, p.w, p.k],
            ChainOp::Depthwise(p) => vec![p.out_h(), p.out_w(), p.c],
            ChainOp::Conv2d(p) => vec![p.out_h(), p.out_w(), p.k],
            ChainOp::Dense(p) => vec![p.m, p.n],
        }
    }

    /// Runs the fused kernel with `extra` bytes of slack on the planned
    /// distance (0 = exactly the plan, -1 must clobber).
    fn run_case(chain: &FusedChain, extra: i64) -> Result<Tensor<i8>, PoolError> {
        let mut m = Machine::new(Device::stm32_f767zi());
        let input = input_for(chain, 70);
        let weights = chain_weights(chain);
        let flash: Vec<usize> = weights
            .iter()
            .map(|w| m.host_program_flash(&w.as_bytes()).unwrap())
            .collect();
        let d = chain_exec_distance(chain) + extra;
        let window = pool_window(chain.in_bytes(), chain.out_bytes(), d);
        let ws = chain_workspace_bytes(chain);
        let mut pool = SegmentPool::new(&m, 0, window).unwrap();
        assert!(window + ws < m.ram.capacity());
        pool.host_fill_live(&mut m, 0, &input.as_bytes()).unwrap();
        run_fused_chain(&mut m, &mut pool, chain, 0, -d, &flash, window)?;
        let out = pool.host_read(&m, -d, chain.out_bytes())?;
        Ok(Tensor::from_bytes(&out_shape(chain), &out))
    }

    fn expected(chain: &FusedChain) -> Tensor<i8> {
        chain_reference(chain, &chain_weights(chain), &input_for(chain, 70))
    }

    fn pw(h: usize, c: usize, k: usize, relu: bool) -> ChainOp {
        let mut p = PointwiseParams::new(h, h, c, k, rq());
        if relu {
            p.clamp = (0, 127);
        }
        ChainOp::Pointwise(p)
    }

    fn dw(h: usize, c: usize, rs: usize, stride: usize, relu: bool) -> ChainOp {
        let mut p = DepthwiseParams::new(h, h, c, rs, rs, stride, (rs - 1) / 2, rq());
        if relu {
            p.clamp = (0, 127);
        }
        ChainOp::Depthwise(p)
    }

    fn mbv2_like() -> FusedChain {
        // pw expand → dw → pw project: the inverted bottleneck expressed
        // as three separate layers.
        FusedChain::new(vec![
            pw(10, 8, 24, true),
            dw(10, 24, 3, 1, true),
            pw(10, 24, 8, false),
        ])
        .unwrap()
    }

    #[test]
    fn shape_mismatches_are_rejected_with_context() {
        let err = FusedChain::new(vec![pw(8, 4, 8, false), pw(8, 16, 4, false)]).unwrap_err();
        assert_eq!(err.op, 1);
        assert!(err.to_string().contains("rows, row bytes"));
    }

    #[test]
    fn single_op_chain_matches_reference() {
        let chain = FusedChain::new(vec![pw(6, 8, 4, false)]).unwrap();
        assert_eq!(run_case(&chain, 0).unwrap(), expected(&chain));
    }

    #[test]
    fn pw_pw_expansion_chain_matches_reference() {
        let chain = FusedChain::new(vec![pw(8, 4, 16, true), pw(8, 16, 4, false)]).unwrap();
        assert_eq!(run_case(&chain, 0).unwrap(), expected(&chain));
    }

    #[test]
    fn mbv2_like_chain_matches_reference() {
        let chain = mbv2_like();
        assert_eq!(run_case(&chain, 0).unwrap(), expected(&chain));
    }

    #[test]
    fn strided_depthwise_chain_matches_reference() {
        let chain = FusedChain::new(vec![
            pw(9, 4, 12, true),
            dw(9, 12, 3, 2, true),
            pw(5, 12, 6, false),
        ])
        .unwrap();
        assert_eq!(run_case(&chain, 0).unwrap(), expected(&chain));
    }

    #[test]
    fn conv2d_chain_matches_reference() {
        let mut conv = Conv2dParams::new(8, 8, 4, 6, 3, 3, 1, 1, rq());
        conv.clamp = (0, 127);
        let chain = FusedChain::new(vec![ChainOp::Conv2d(conv), pw(8, 6, 4, false)]).unwrap();
        assert_eq!(run_case(&chain, 0).unwrap(), expected(&chain));
    }

    #[test]
    fn dense_chain_matches_reference() {
        let chain = FusedChain::new(vec![
            ChainOp::Dense(FcParams::new(6, 8, 12, rq())),
            ChainOp::Dense(FcParams::new(6, 12, 4, rq())),
        ])
        .unwrap();
        assert_eq!(run_case(&chain, 0).unwrap(), expected(&chain));
    }

    #[test]
    fn exec_distance_is_tight_empirically() {
        for chain in [
            mbv2_like(),
            FusedChain::new(vec![pw(8, 4, 16, true), pw(8, 16, 4, false)]).unwrap(),
        ] {
            assert!(run_case(&chain, 0).is_ok());
            assert!(
                matches!(run_case(&chain, -1).unwrap_err(), PoolError::Clobber { .. }),
                "one byte closer must clobber"
            );
        }
    }

    #[test]
    fn fused_chain_footprint_beats_materializing_intermediates() {
        // The paper's multi-layer claim: the fused chain never pays the
        // expanded intermediate, layer-at-a-time planning does.
        let chain = mbv2_like();
        let window = pool_window(
            chain.in_bytes(),
            chain.out_bytes(),
            chain_exec_distance(&chain),
        );
        let fused = window + chain_workspace_bytes(&chain);
        let mid_bytes = chain.ops()[1].in_bytes();
        assert!(
            fused < mid_bytes,
            "fused {fused} must undercut even one copy of the intermediate {mid_bytes}"
        );
    }

    #[test]
    fn schedule_produces_every_row_exactly_once() {
        let chain = mbv2_like();
        let heights = chain.heights();
        let n = chain.len();
        let mut seen = vec![std::collections::HashSet::new(); n];
        let mut stored = std::collections::HashSet::new();
        for step in chain_schedule(&chain) {
            match step {
                ChainStep::ProduceRow { stage, row } => {
                    assert!(seen[stage].insert(row), "row produced twice");
                }
                ChainStep::StoreOutRow(p) => {
                    assert!(stored.insert(p));
                }
                ChainStep::FreeInRows { .. } => {}
            }
        }
        for i in 1..n {
            assert_eq!(seen[i].len(), heights[i], "stage {i} row count");
        }
        assert_eq!(stored.len(), heights[n]);
    }

    #[test]
    fn trace_frees_the_whole_input() {
        let chain = mbv2_like();
        let freed: usize = chain_exec_trace(&chain)
            .iter()
            .map(|e| match e {
                ExecEvent::Free { len, .. } => *len,
                ExecEvent::Store { .. } => 0,
            })
            .sum();
        assert_eq!(freed, chain.in_bytes());
    }
}
