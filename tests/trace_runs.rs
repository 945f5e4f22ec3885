//! Run-length traces against the per-segment trace generators they merge.
//!
//! Every vMCU trace generator (`fc_exec_trace`, the row-window trace
//! behind `ChainOp::exec_events` for depthwise and conv2d,
//! `ib_exec_trace`, `chain_exec_trace`, `add_exec_trace`,
//! `concat_exec_trace`) emits through
//! `vmcu_kernels::trace::push_event`, which extends the previous event
//! when the new one continues it. The per-segment generators they
//! replaced are kept here as `definition_*` oracles: one event per
//! segment, pixel or row, as the kernel issues them. For random params
//! of every kind the emitted trace must equal the oracle trace with
//! continuing events merged, no two adjacent events may continue each
//! other, and every consumer must answer alike on both traces:
//! `exec_distance`, `derive_min_distance`, `solver_min_distance`, and
//! `replay_layer`'s verdict at the planned distance and one byte closer.
//! The event count of the fixed zoo's per-layer traces is pinned: it is
//! the deterministic work proxy of the planners' distance pricing.

use proptest::prelude::*;
use proptest::TestCaseError;
use vmcu::vmcu_graph::{zoo, LayerDesc};
use vmcu::vmcu_kernels::fc::fc_exec_trace;
use vmcu::vmcu_kernels::fused_chain::{
    chain_exec_trace, chain_schedule, ChainOp, ChainStep, FusedChain,
};
use vmcu::vmcu_kernels::fused_ib::{ib_exec_trace, ib_schedule, IbScheme, IbStep};
use vmcu::vmcu_kernels::merge::{add_exec_trace, concat_exec_trace};
use vmcu::vmcu_kernels::params::{
    AddParams, ConcatParams, Conv2dParams, DepthwiseParams, FcParams, IbParams, PointwiseParams,
};
use vmcu::vmcu_kernels::trace::{exec_distance, pool_window, ExecEvent};
use vmcu::vmcu_tensor::Requant;
use vmcu_verify::{derive_min_distance, replay_layer, solver_min_distance, LayerSpec, Violation};

use ExecEvent::{Free, Store};

// ---- oracles: the per-segment generators ----------------------------------

/// Exclusive upper bound of the input rows a row-sliding kernel no longer
/// reads once it has stored output row `row`.
fn free_upto(h: usize, out_h: usize, stride: usize, pad: usize, row: usize) -> usize {
    if row + 1 == out_h {
        h
    } else {
        h.min(((row + 1) * stride).saturating_sub(pad))
    }
}

/// `fc_exec_trace` with one store per output segment.
fn definition_fc(p: &FcParams) -> Vec<ExecEvent> {
    let mut ev = Vec::new();
    for mi in 0..p.m {
        let mut n0 = 0;
        while n0 < p.n {
            let nw = p.seg.min(p.n - n0);
            ev.push(Store {
                addr: (mi * p.n + n0) as i64,
                len: nw,
            });
            n0 += nw;
        }
        ev.push(Free {
            addr: (mi * p.k) as i64,
            len: p.k,
        });
    }
    ev
}

/// `ChainOp::Depthwise`'s trace with one store per output pixel.
fn definition_depthwise(p: &DepthwiseParams) -> Vec<ExecEvent> {
    let q_out = p.out_w();
    let row_bytes = p.w * p.c;
    let mut ev = Vec::new();
    let mut next_free = 0usize;
    for pi in 0..p.out_h() {
        for qi in 0..q_out {
            ev.push(Store {
                addr: ((pi * q_out + qi) * p.c) as i64,
                len: p.c,
            });
        }
        let upto = free_upto(p.h, p.out_h(), p.stride, p.pad, pi);
        if upto > next_free {
            ev.push(Free {
                addr: (next_free * row_bytes) as i64,
                len: (upto - next_free) * row_bytes,
            });
            next_free = upto;
        }
    }
    ev
}

/// `ChainOp::Conv2d`'s trace with one store per output segment of each
/// pixel.
fn definition_conv2d(p: &Conv2dParams) -> Vec<ExecEvent> {
    let (q_out, k) = (p.out_w(), p.k);
    let row_bytes = p.w * p.c;
    let mut ev = Vec::new();
    let mut next_free = 0usize;
    for pi in 0..p.out_h() {
        for qi in 0..q_out {
            let mut k0 = 0;
            while k0 < k {
                let kw = p.seg.min(k - k0);
                ev.push(Store {
                    addr: ((pi * q_out + qi) * k + k0) as i64,
                    len: kw,
                });
                k0 += kw;
            }
        }
        let upto = free_upto(p.h, p.out_h(), p.stride, p.pad, pi);
        if upto > next_free {
            ev.push(Free {
                addr: (next_free * row_bytes) as i64,
                len: (upto - next_free) * row_bytes,
            });
            next_free = upto;
        }
    }
    ev
}

/// `ib_exec_trace` with one event per schedule step.
fn definition_ib(p: &IbParams, scheme: IbScheme) -> Vec<ExecEvent> {
    let w2 = p.hw2();
    let row_bytes = p.hw * p.c_in;
    ib_schedule(p, scheme)
        .into_iter()
        .filter_map(|step| match step {
            IbStep::BRow(_) => None,
            IbStep::OutPixel(pi, qi) => Some(Store {
                addr: ((pi * w2 + qi) * p.c_out) as i64,
                len: p.c_out,
            }),
            IbStep::FreeRows { from, to } => Some(Free {
                addr: (from * row_bytes) as i64,
                len: (to - from) * row_bytes,
            }),
        })
        .collect()
}

/// `chain_exec_trace` with one event per schedule step.
fn definition_chain(chain: &FusedChain) -> Vec<ExecEvent> {
    let irb = chain.ops()[0].in_row_bytes();
    let orb = chain.ops().last().unwrap().out_row_bytes();
    chain_schedule(chain)
        .into_iter()
        .filter_map(|step| match step {
            ChainStep::ProduceRow { .. } => None,
            ChainStep::StoreOutRow(p) => Some(Store {
                addr: (p * orb) as i64,
                len: orb,
            }),
            ChainStep::FreeInRows { from, to } => Some(Free {
                addr: (from * irb) as i64,
                len: (to - from) * irb,
            }),
        })
        .collect()
}

/// `add_exec_trace`: per segment, both operand frees, then the store.
fn definition_add(p: &AddParams) -> Vec<ExecEvent> {
    let t = p.tensor_bytes();
    let mut ev = Vec::new();
    let mut off = 0;
    while off < t {
        let len = p.seg.min(t - off);
        ev.push(Free {
            addr: off as i64,
            len,
        });
        ev.push(Free {
            addr: (t + off) as i64,
            len,
        });
        ev.push(Store {
            addr: off as i64,
            len,
        });
        off += len;
    }
    ev
}

/// `concat_exec_trace`: per pixel, both operand frees, then the store.
fn definition_concat(p: &ConcatParams) -> Vec<ExecEvent> {
    let a = p.a_bytes();
    let co = p.c_a + p.c_b;
    let mut ev = Vec::new();
    for px in 0..p.pixels() {
        ev.push(Free {
            addr: (px * p.c_a) as i64,
            len: p.c_a,
        });
        ev.push(Free {
            addr: (a + px * p.c_b) as i64,
            len: p.c_b,
        });
        ev.push(Store {
            addr: (px * co) as i64,
            len: co,
        });
    }
    ev
}

/// The per-segment trace of any layer.
fn definition_layer(layer: &LayerDesc, scheme: IbScheme) -> Vec<ExecEvent> {
    match layer {
        LayerDesc::Pointwise(p) => definition_fc(&p.as_fc()),
        LayerDesc::Dense(p) => definition_fc(p),
        LayerDesc::Depthwise(p) => definition_depthwise(p),
        LayerDesc::Conv2d(p) => definition_conv2d(p),
        LayerDesc::Ib(p) => definition_ib(p, scheme),
        LayerDesc::Add(p) => definition_add(p),
        LayerDesc::Concat(p) => definition_concat(p),
    }
}

// ---- run merging ----------------------------------------------------------

/// `b` appended to `a` when `b` continues it: a store that starts where
/// the store `a` ends, or likewise a free.
fn join(a: ExecEvent, b: ExecEvent) -> Option<ExecEvent> {
    match (a, b) {
        (Store { addr, len }, Store { addr: at, len: n }) if addr + len as i64 == at => {
            Some(Store { addr, len: len + n })
        }
        (Free { addr, len }, Free { addr: at, len: n }) if addr + len as i64 == at => {
            Some(Free { addr, len: len + n })
        }
        _ => None,
    }
}

/// The trace with every run of continuing events merged into one.
fn merged(events: &[ExecEvent]) -> Vec<ExecEvent> {
    let mut out: Vec<ExecEvent> = Vec::new();
    for &e in events {
        match out.last().and_then(|&last| join(last, e)) {
            Some(run) => *out.last_mut().unwrap() = run,
            None => out.push(e),
        }
    }
    out
}

/// `replay_layer`'s verdict at distance `d`, in the window the planners
/// give `d`, with each run of clobbers (or of double frees) reported as
/// one: a merged event reports its parts' violations as one, at the
/// first part's first byte with their lengths summed.
fn verdict(in_len: usize, out_len: usize, d: i64, events: &[ExecEvent]) -> Vec<Violation> {
    let spec = LayerSpec {
        site: "L",
        in_len,
        out_len,
        distance: d,
        window: pool_window(in_len, out_len, d).max(1),
        events,
    };
    let mut out: Vec<Violation> = Vec::new();
    for v in replay_layer(&spec) {
        match (out.last_mut(), &v) {
            (Some(Violation::Clobber { len, .. }), Violation::Clobber { len: n, .. })
            | (Some(Violation::DoubleFree { len, .. }), Violation::DoubleFree { len: n, .. }) => {
                *len += n;
            }
            _ => out.push(v),
        }
    }
    out
}

/// The run-length trace `emitted` against the per-segment `per_segment`
/// over `in_len` input and `out_len` output bytes.
fn check_runs(
    in_len: usize,
    out_len: usize,
    emitted: &[ExecEvent],
    per_segment: &[ExecEvent],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(emitted.to_vec(), merged(per_segment));
    for (i, pair) in emitted.windows(2).enumerate() {
        prop_assert!(
            join(pair[0], pair[1]).is_none(),
            "events {} and {} continue each other: {:?}",
            i,
            i + 1,
            pair
        );
    }
    let d = exec_distance(in_len, emitted.iter().copied());
    prop_assert_eq!(d, exec_distance(in_len, per_segment.iter().copied()));
    prop_assert_eq!(
        derive_min_distance(in_len, emitted),
        derive_min_distance(in_len, per_segment)
    );
    prop_assert_eq!(
        solver_min_distance(in_len, emitted),
        solver_min_distance(in_len, per_segment)
    );
    for at in [d, d - 1] {
        prop_assert_eq!(
            (at, verdict(in_len, out_len, at, emitted)),
            (at, verdict(in_len, out_len, at, per_segment))
        );
    }
    Ok(())
}

fn rq() -> Requant {
    Requant::from_scale(1.0 / 64.0, 0)
}

/// A segment size that may or may not divide `c` and `k`.
fn pick_seg(raw: usize, c: usize, k: usize) -> usize {
    1 + raw % (c.max(k) + 2)
}

const SCHEMES: [IbScheme; 3] = [
    IbScheme::RowBuffer,
    IbScheme::PixelWindow,
    IbScheme::SlidingWindow,
];

// ---- properties -------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Dense layers over ragged segment tilings.
    #[test]
    fn dense_runs_merge_the_per_segment_trace(
        dims in (1usize..=9, 1usize..=40, 1usize..=40, 0usize..64),
    ) {
        let (m, k, n, raw_seg) = dims;
        let mut p = FcParams::new(m, k, n, rq());
        p.seg = pick_seg(raw_seg, k, n);
        let layer = LayerDesc::Dense(p);
        check_runs(layer.in_bytes(), layer.out_bytes(), &fc_exec_trace(&p), &definition_fc(&p))?;
    }

    /// Pointwise layers under the §5.3 segment rule: one store per pixel.
    #[test]
    fn pointwise_runs_merge_the_per_segment_trace(
        dims in (1usize..=8, 1usize..=8, 1usize..=48, 1usize..=48),
    ) {
        let (h, w, c, k) = dims;
        let p = PointwiseParams::new(h, w, c, k, rq());
        let layer = LayerDesc::Pointwise(p);
        check_runs(
            layer.in_bytes(),
            layer.out_bytes(),
            &layer.exec_events(IbScheme::RowBuffer),
            &definition_fc(&p.as_fc()),
        )?;
    }

    /// Depthwise over kernels 1–5, strides 1–3 and pads 0–2, including
    /// pads whose first output rows free nothing.
    #[test]
    fn depthwise_runs_merge_the_per_pixel_trace(
        dims in (1usize..=10, 1usize..=10, 1usize..=20),
        kernel in (1usize..=5, 1usize..=5, 1usize..=3, 0usize..=2),
    ) {
        let (h, w, c) = dims;
        let (r, s, stride, pad) = kernel;
        prop_assume!(h + 2 * pad >= r && w + 2 * pad >= s);
        let p = DepthwiseParams::new(h, w, c, r, s, stride, pad, rq());
        let layer = LayerDesc::Depthwise(p);
        check_runs(
            layer.in_bytes(),
            layer.out_bytes(),
            &ChainOp::Depthwise(p).exec_events(),
            &definition_depthwise(&p),
        )?;
    }

    /// Dense 2D convolutions over ragged segment tilings.
    #[test]
    fn conv2d_runs_merge_the_per_segment_trace(
        dims in (1usize..=8, 1usize..=8, 1usize..=9, 1usize..=12, 0usize..64),
        kernel in (1usize..=3, 1usize..=3, 1usize..=2, 0usize..=1),
    ) {
        let (h, w, c, k, raw_seg) = dims;
        let (r, s, stride, pad) = kernel;
        prop_assume!(h + 2 * pad >= r && w + 2 * pad >= s);
        let mut p = Conv2dParams::new(h, w, c, k, r, s, stride, pad, rq());
        p.seg = pick_seg(raw_seg, c, k);
        let layer = LayerDesc::Conv2d(p);
        check_runs(
            layer.in_bytes(),
            layer.out_bytes(),
            &ChainOp::Conv2d(p).exec_events(),
            &definition_conv2d(&p),
        )?;
    }

    /// Inverted bottlenecks under all three workspace schemes.
    #[test]
    fn ib_runs_merge_the_per_pixel_trace(
        dims in (1usize..=9, 1usize..=9, 1usize..=17, 1usize..=9),
        knobs in (0usize..3, 1usize..=2, 1usize..=2),
    ) {
        let (hw, c_in, c_mid, c_out) = dims;
        let (rs_pick, s1, s2) = knobs;
        let p = IbParams::new(hw, c_in, c_mid, c_out, [1, 3, 5][rs_pick], (s1, s2, 1));
        let layer = LayerDesc::Ib(p);
        for scheme in SCHEMES {
            check_runs(
                layer.in_bytes(),
                layer.out_bytes(),
                &ib_exec_trace(&p, scheme),
                &definition_ib(&p, scheme),
            )?;
        }
    }

    /// Fused chains of every operator kind.
    #[test]
    fn chain_runs_merge_the_per_row_trace(
        dims in (2usize..=9, 1usize..=8, 1usize..=12, 1usize..=8),
        knobs in (0usize..5, 1usize..=2),
    ) {
        let (h, c, mid, k) = dims;
        let (template, stride) = knobs;
        let pw = |h: usize, c: usize, k: usize| ChainOp::Pointwise(PointwiseParams::new(h, h, c, k, rq()));
        let dw = DepthwiseParams::new(h, h, mid, 3, 3, stride, 1, rq());
        let conv = Conv2dParams::new(h, h, c, mid, 3, 3, stride, 1, rq());
        let ops = match template {
            0 => vec![pw(h, c, mid), ChainOp::Depthwise(dw), pw(dw.out_h(), mid, k)],
            1 => vec![ChainOp::Conv2d(conv), pw(conv.out_h(), mid, k)],
            2 => vec![
                ChainOp::Dense(FcParams::new(h, c, mid, rq())),
                ChainOp::Dense(FcParams::new(h, mid, k, rq())),
            ],
            3 => vec![ChainOp::Depthwise(dw)],
            _ => vec![ChainOp::Conv2d(conv)],
        };
        let chain = FusedChain::new(ops).unwrap();
        check_runs(
            chain.in_bytes(),
            chain.out_bytes(),
            &chain_exec_trace(&chain),
            &definition_chain(&chain),
        )?;
    }

    /// Residual adds over ragged segment tilings: the second operand is
    /// freed above the frontier, segment by segment.
    #[test]
    fn add_runs_merge_the_per_segment_trace(
        dims in (1usize..=6, 1usize..=6, 1usize..=24, 1usize..=64),
    ) {
        let (h, w, c, seg) = dims;
        let mut p = AddParams::new(h, w, c);
        p.seg = seg;
        let layer = LayerDesc::Add(p);
        check_runs(layer.in_bytes(), layer.out_bytes(), &add_exec_trace(&p), &definition_add(&p))?;
    }

    /// Channel concatenations, single pixels included (whose two operand
    /// frees continue each other).
    #[test]
    fn concat_runs_merge_the_per_pixel_trace(
        dims in (1usize..=6, 1usize..=6, 1usize..=16, 1usize..=16),
    ) {
        let (h, w, c_a, c_b) = dims;
        let p = ConcatParams::new(h, w, c_a, c_b);
        let layer = LayerDesc::Concat(p);
        check_runs(
            layer.in_bytes(),
            layer.out_bytes(),
            &concat_exec_trace(&p),
            &definition_concat(&p),
        )?;
    }
}

// ---- the work proxy ---------------------------------------------------------

/// The eight fixed zoo models of the repository benchmark.
fn fixed_zoo() -> Vec<vmcu::vmcu_graph::Graph> {
    vec![
        zoo::demo_linear_net(),
        zoo::mbv2_block_unfused(),
        zoo::wide_expand_chain(),
        zoo::hires_front_stage(),
        zoo::hires_split_only(),
        zoo::mbv2_residual_dag(),
        zoo::two_head_net(),
        zoo::branchy_oom_net(),
    ]
}

/// Every per-layer trace of the fixed zoo under `RowBuffer` merges its
/// per-segment oracle, and the total event count the planners scan per
/// pass over the zoo is pinned, per-segment and run-length.
#[test]
fn fixed_zoo_trace_events_are_pinned() {
    let (mut per_segment, mut runs) = (0usize, 0usize);
    for g in fixed_zoo() {
        for layer in g.layers() {
            let want = definition_layer(layer, IbScheme::RowBuffer);
            let got = layer.exec_events(IbScheme::RowBuffer);
            assert_eq!(got, merged(&want), "{layer:?}");
            per_segment += want.len();
            runs += got.len();
        }
    }
    assert_eq!((per_segment, runs), (165_692, 72_116));
}
