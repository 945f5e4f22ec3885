//! Executable-schedule traces and the *free-based* offset bound.
//!
//! The solver's `D*` (from §4's read-based constraint) assumes a store may
//! reuse a byte the moment its last read retires. Real kernels free at a
//! coarser granularity (Figure 4 frees a whole input row after the output
//! row is stored), so the offset an *executable* kernel needs is governed
//! by frees, not reads:
//!
//! ```text
//! D_exec = max over stores  ( store_addr − first_unfreed_input_byte + 1 )
//! ```
//!
//! Each kernel exposes a dry-run trace generator emitting exactly the
//! store/free order of its implementation, at run granularity: every
//! event goes through `push_event`, which extends the previous event
//! instead when the new one continues it, so a depthwise or
//! inverted-bottleneck output row, or a pointwise pixel, is one store.
//! Merging continuing events changes no distance, window or replay
//! verdict. Planners use [`exec_distance`] on that trace to place the
//! output pointer in a [`pool_window`], and the checked pool verifies
//! the result empirically. Every kernel runs clean at `D_exec`. When the
//! store that sets `D_exec` lands on the first unfreed input byte,
//! `D_exec` is tight: one byte closer, that store clobbers a live byte.
//! A `D_exec` set by a store after the last free (the frontier is then
//! the input end, a byte nobody holds) only keeps the output inside the
//! window, and one byte closer runs clean: a depthwise `h=8, w=6, c=3,
//! r=1, s=4`, stride 1, pad 2, whose last output rows are padding only,
//! plans 108 and runs clean at 107.

/// One event of an executable kernel schedule, in address units of bytes
/// relative to the tensor bases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecEvent {
    /// Store of `len` output bytes starting at `addr`.
    Store {
        /// First output byte.
        addr: i64,
        /// Byte count.
        len: usize,
    },
    /// Free of `len` input bytes starting at `addr`.
    Free {
        /// First input byte.
        addr: i64,
        /// Byte count.
        len: usize,
    },
}

/// Appends `event` to a trace, or extends the trace's last event when
/// `event` continues it: a store that starts where the previous store
/// ends, or a free that starts where the previous free ends. Every trace
/// generator emits through this, so its traces are at run granularity.
pub(crate) fn push_event(events: &mut Vec<ExecEvent>, event: ExecEvent) {
    use ExecEvent::{Free, Store};
    match (events.last_mut(), event) {
        (Some(Store { addr, len }), Store { addr: a, len: n })
        | (Some(Free { addr, len }), Free { addr: a, len: n })
            if *addr + *len as i64 == a =>
        {
            *len += n;
        }
        _ => events.push(event),
    }
}

/// Computes the minimal executable distance `bIn − bOut` for a trace over
/// an input of `in_size` bytes.
///
/// Returns the smallest `D` such that every store lands strictly below the
/// unfreed input frontier in pool space. Stores may precede any free
/// (yielding a positive `D`, i.e. empty segments ahead of the input, as in
/// Figure 1(c)).
///
/// The freed input is the frontier (every byte below it is freed, the
/// byte at it is not) plus a short list of merged freed spans above it.
/// A free that starts at the frontier moves it, and absorbs the lowest
/// span when it now reaches it; any other free merges with its
/// neighbours in the list. Kernels free in address order, so the list
/// stays empty, or holds the second operand of a merge as one span.
///
/// # Panics
///
/// Panics if a free is out of range or duplicated (naming the first
/// double-freed byte) — traces come from our own kernels, so this
/// indicates a kernel bug.
pub fn exec_distance(in_size: usize, events: impl IntoIterator<Item = ExecEvent>) -> i64 {
    // Every input byte below `frontier` is freed and the byte at it is
    // not. `spans` holds the freed `[start, end)` runs above it, disjoint
    // and non-adjacent, highest first: the lowest, which a free at the
    // frontier may reach, pops off the end.
    let mut frontier: usize = 0;
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut d = i64::MIN;
    for ev in events {
        match ev {
            ExecEvent::Free { addr, len } => {
                assert!(addr >= 0, "free below input base");
                let (start, end) = (addr as usize, addr as usize + len);
                assert!(end <= in_size, "free past input end");
                if len == 0 {
                    continue;
                }
                if start == frontier {
                    frontier = end;
                    if let Some(&(lo, hi)) = spans.last() {
                        assert!(lo >= end, "double free at input byte {lo}");
                        if lo == end {
                            frontier = hi;
                            spans.pop();
                        }
                    }
                } else {
                    assert!(start > frontier, "double free at input byte {start}");
                    free_above_frontier(&mut spans, start, end);
                }
            }
            ExecEvent::Store { addr, len } => {
                if len == 0 {
                    continue;
                }
                let last = addr + len as i64 - 1;
                d = d.max(last - frontier as i64 + 1);
            }
        }
    }
    if d == i64::MIN {
        // No stores: any placement works.
        -(in_size as i64)
    } else {
        d
    }
}

/// Adds the freed input bytes `[start, end)`, which lie above the
/// frontier, to `spans` (highest first), merging with the span below
/// and the span above when they touch it.
///
/// # Panics
///
/// Panics at the first byte of `[start, end)` that a span already holds.
fn free_above_frontier(spans: &mut Vec<(usize, usize)>, start: usize, end: usize) {
    // `spans[..i]` start above `start`; `spans[i]` is the span below.
    let i = spans.partition_point(|&(lo, _)| lo > start);
    let below = spans.get(i).filter(|&&(_, hi)| hi >= start).copied();
    let above = i
        .checked_sub(1)
        .map(|j| spans[j])
        .filter(|&(lo, _)| lo <= end);
    if let Some((_, hi)) = below {
        assert!(hi == start, "double free at input byte {start}");
    }
    if let Some((lo, _)) = above {
        assert!(lo == end, "double free at input byte {lo}");
    }
    match (below, above) {
        (Some(_), Some((_, hi))) => {
            spans[i].1 = hi;
            spans.remove(i - 1);
        }
        (Some(_), None) => spans[i].1 = end,
        (None, Some(_)) => spans[i - 1].0 = start,
        (None, None) => spans.insert(i, (start, end)),
    }
}

/// The pool window a segment kernel runs in at distance `d`: the input
/// plus the empty bytes a positive `d` parks ahead of it, or the output
/// when that is larger — `max(in + max(d, 0), out)`.
pub fn pool_window(in_bytes: usize, out_bytes: usize, d: i64) -> usize {
    (in_bytes + d.max(0) as usize).max(out_bytes)
}

/// Dry-run store/free schedule of a row-sliding kernel (depthwise and
/// conv2d, byte addresses relative to the tensor bases): each of the
/// `out_rows` output rows stores as one `out_row_bytes` run, then frees
/// the `in_row_bytes` input rows no later output row's window reads
/// (window `stride`, `pad` rows of top padding, `in_rows` in all).
pub(crate) fn row_window_trace(
    in_rows: usize,
    in_row_bytes: usize,
    out_rows: usize,
    out_row_bytes: usize,
    stride: usize,
    pad: usize,
) -> Vec<ExecEvent> {
    let mut ev = Vec::new();
    let mut next_free = 0usize;
    for row in 0..out_rows {
        push_event(
            &mut ev,
            ExecEvent::Store {
                addr: (row * out_row_bytes) as i64,
                len: out_row_bytes,
            },
        );
        let upto = free_upto(in_rows, out_rows, stride, pad, row);
        if upto > next_free {
            push_event(
                &mut ev,
                ExecEvent::Free {
                    addr: (next_free * in_row_bytes) as i64,
                    len: (upto - next_free) * in_row_bytes,
                },
            );
            next_free = upto;
        }
    }
    ev
}

/// Exclusive upper bound of the input rows a row-sliding kernel no
/// longer reads once it has stored output row `row`: the rows above the
/// next output row's window (`h` input rows, `out_h` output rows, window
/// `stride`, `pad` rows of top padding), and all of them after the last.
pub(crate) fn free_upto(h: usize, out_h: usize, stride: usize, pad: usize, row: usize) -> usize {
    if row + 1 == out_h {
        h
    } else {
        h.min(((row + 1) * stride).saturating_sub(pad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ExecEvent::{Free, Store};

    #[test]
    fn store_before_any_free_needs_headroom() {
        // Store 2 bytes at [0,2) while the whole 4-byte input is live:
        // D = 1 - 0 + 1 = 2 empty bytes ahead.
        let d = exec_distance(4, [Store { addr: 0, len: 2 }]);
        assert_eq!(d, 2);
    }

    #[test]
    fn eager_frees_allow_in_place() {
        // Free input byte x, then store output byte x: D = x - (x+1) + 1 = 0.
        let events = (0..8).flat_map(|x| [Free { addr: x, len: 1 }, Store { addr: x, len: 1 }]);
        assert_eq!(exec_distance(8, events), 0);
    }

    #[test]
    fn row_granular_frees_add_row_slack() {
        // Figure-4 style: store output row (4 bytes), then free input row
        // (4 bytes), twice. First store: frontier 0, last byte 3 -> D=4.
        let events = [
            Store { addr: 0, len: 4 },
            Free { addr: 0, len: 4 },
            Store { addr: 4, len: 4 },
            Free { addr: 4, len: 4 },
        ];
        assert_eq!(exec_distance(8, events), 4);
    }

    #[test]
    fn free_first_order_goes_negative() {
        let events = [
            Free { addr: 0, len: 4 },
            Store { addr: 0, len: 2 },
            Free { addr: 4, len: 4 },
            Store { addr: 2, len: 2 },
        ];
        // First store: frontier 4, last byte 1 -> D = -2.
        assert_eq!(exec_distance(8, events), -2);
    }

    #[test]
    fn window_holds_input_plus_headroom_or_the_output() {
        assert_eq!(pool_window(8, 4, 2), 10);
        assert_eq!(pool_window(8, 4, -3), 8);
        assert_eq!(pool_window(4, 9, 2), 9);
    }

    #[test]
    fn no_stores_is_unconstrained() {
        assert_eq!(exec_distance(16, [Free { addr: 0, len: 16 }]), -16);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_is_a_kernel_bug() {
        let _ = exec_distance(4, [Free { addr: 0, len: 2 }, Free { addr: 1, len: 2 }]);
    }

    #[test]
    fn push_event_extends_only_a_continued_event() {
        let mut ev = Vec::new();
        for e in [
            Store { addr: 0, len: 4 },
            Store { addr: 4, len: 2 }, // continues the store
            Free { addr: 0, len: 4 },
            Free { addr: 8, len: 4 }, // a gap: a new free
            Free { addr: 12, len: 4 },
            Store { addr: 6, len: 1 }, // the previous event is a free
        ] {
            push_event(&mut ev, e);
        }
        assert_eq!(
            ev,
            [
                Store { addr: 0, len: 6 },
                Free { addr: 0, len: 4 },
                Free { addr: 8, len: 8 },
                Store { addr: 6, len: 1 },
            ]
        );
    }

    #[test]
    fn spans_above_the_frontier_merge_and_are_absorbed() {
        let events = [
            Free { addr: 4, len: 2 },
            Free { addr: 8, len: 2 },
            Free { addr: 6, len: 2 }, // joins both neighbours: [4, 10)
            Free { addr: 12, len: 2 },
            Free { addr: 11, len: 1 },  // joins the span above: [11, 14)
            Store { addr: 0, len: 1 },  // frontier 0: D = 1
            Free { addr: 0, len: 4 },   // reaches [4, 10): frontier 10
            Store { addr: 9, len: 1 },  // D = 9 - 10 + 1 = 0
            Free { addr: 10, len: 1 },  // reaches [11, 14): frontier 14
            Store { addr: 15, len: 1 }, // D = 15 - 14 + 1 = 2
        ];
        assert_eq!(exec_distance(16, events), 2);
    }

    #[test]
    #[should_panic(expected = "double free at input byte 9")]
    fn double_free_above_the_frontier_names_its_first_byte() {
        let _ = exec_distance(
            16,
            [
                Free { addr: 9, len: 3 },
                Free { addr: 4, len: 2 },
                Free { addr: 7, len: 4 },
            ],
        );
    }

    #[test]
    fn frontier_skips_out_of_order_frees() {
        let events = [
            Free { addr: 2, len: 2 }, // hole: bytes 0..2 still live
            Store { addr: 0, len: 1 },
            Free { addr: 0, len: 2 },
            Store { addr: 1, len: 1 },
        ];
        // First store: frontier still 0 -> D = 1. Second store: frontier
        // 4 -> D = 1 - 4 + 1 = -2. Max = 1.
        assert_eq!(exec_distance(4, events), 1);
    }
}
