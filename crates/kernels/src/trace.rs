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
//! store/free order of its implementation; planners use [`exec_distance`]
//! on that trace to place the output pointer in a [`pool_window`], and
//! the checked pool verifies the result empirically. Every kernel runs
//! clean at `D_exec`. When the store that sets `D_exec` lands on the
//! first unfreed input byte, `D_exec` is tight: one byte closer, that
//! store clobbers a live byte. A `D_exec` set by a store after the last
//! free (the frontier is then the input end, a byte nobody holds) only
//! keeps the output inside the window, and one byte closer runs clean: a
//! depthwise `h=8, w=6, c=3, r=1, s=4`, stride 1, pad 2, whose last
//! output rows are padding only, plans 108 and runs clean at 107.

use vmcu_sim::ByteSet;

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

/// Computes the minimal executable distance `bIn − bOut` for a trace over
/// an input of `in_size` bytes.
///
/// Returns the smallest `D` such that every store lands strictly below the
/// unfreed input frontier in pool space. Stores may precede any free
/// (yielding a positive `D`, i.e. empty segments ahead of the input, as in
/// Figure 1(c)).
///
/// # Panics
///
/// Panics if a free is out of range or duplicated — traces come from our
/// own kernels, so this indicates a kernel bug.
pub fn exec_distance(in_size: usize, events: impl IntoIterator<Item = ExecEvent>) -> i64 {
    let mut freed = ByteSet::new(in_size);
    let mut frontier: usize = 0; // first unfreed input byte
    let mut d = i64::MIN;
    for ev in events {
        match ev {
            ExecEvent::Free { addr, len } => {
                assert!(addr >= 0, "free below input base");
                let start = addr as usize;
                assert!(start + len <= in_size, "free past input end");
                if let Some(b) = freed.first(start, len, true) {
                    panic!("double free at input byte {b}");
                }
                freed.set(start, len, true);
                frontier = freed
                    .first(frontier, in_size - frontier, false)
                    .unwrap_or(in_size);
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

/// The pool window a segment kernel runs in at distance `d`: the input
/// plus the empty bytes a positive `d` parks ahead of it, or the output
/// when that is larger — `max(in + max(d, 0), out)`.
pub fn pool_window(in_bytes: usize, out_bytes: usize, d: i64) -> usize {
    (in_bytes + d.max(0) as usize).max(out_bytes)
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
