//! Multi-layer (fused) footprint problems — §5.2.
//!
//! A fused kernel executes several layer *stages* per iteration instance
//! (e.g. the inverted bottleneck performs pw1 → dw → pw2 → add for every
//! output position). Intermediate tensors live in a fixed workspace; the
//! optimization couples only the *graph input* tensor `In*` and *graph
//! output* tensor `Out*`:
//!
//! ```text
//! min  bIn* − bOut*   s.t. every write to Out* at execution time t never
//!                          clobbers an In* address read at any time ≥ t
//! ```
//!
//! [`min_distance_events`] solves it from a raw execution trace of
//! reads and writes, for schedules that are easier to emit than to
//! express affinely (the row-buffer inverted-bottleneck pipeline and the
//! generalized fused chain — `vmcu_plan::fusion` bounds every chain it
//! builds with it, and `vmcu_verify` replays deployed traces with it).
//!
//! # Examples
//!
//! A streaming copy reads byte `x` then writes byte `x`: each write lands
//! one byte behind the next read, so the output may trail the input by a
//! single byte (`D* = −1`) and the two tensors overlap almost entirely:
//!
//! ```
//! use vmcu_solver::multilayer::{min_distance_events, Event};
//!
//! let events = (0..8).flat_map(|x| [Event::Read(x), Event::Write(x)]);
//! assert_eq!(min_distance_events(events), Some(-1));
//! ```

/// One event of an execution trace over the graph input/output tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// Read of the given input address (address units, tensor-relative).
    Read(i64),
    /// Write of the given output address.
    Write(i64),
}

/// Computes `D* = min (bIn − bOut)` from a raw trace: the maximum over all
/// (write, later-or-equal read) pairs of `write_addr − read_addr`.
///
/// Returns `None` if no write ever precedes a read.
pub fn min_distance_events(events: impl IntoIterator<Item = Event>) -> Option<i64> {
    let mut max_write: Option<i64> = None;
    let mut best: Option<i64> = None;
    for ev in events {
        match ev {
            Event::Write(w) => {
                max_write = Some(max_write.map_or(w, |m| m.max(w)));
            }
            Event::Read(r) => {
                if let Some(mw) = max_write {
                    let cand = mw - r;
                    best = Some(best.map_or(cand, |b| b.max(cand)));
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_trace_streaming_copy() {
        // A pure streaming copy: read x then write x, for x in 0..n.
        // A write at x precedes the read at x+1: D* = x - (x+1) = -1.
        let n = 10;
        let events = (0..n).flat_map(|x| [Event::Read(x), Event::Write(x)]);
        assert_eq!(min_distance_events(events), Some(-1));
    }

    #[test]
    fn event_trace_reversed_producer() {
        // Writing descending addresses while reading ascending ones forces
        // a large distance: the first write (n-1) must stay clear of the
        // last read (n-1)... which happens after it: D* = (n-1) - 0 ... -
        // actually max over pairs: write n-1 at t=0, later reads 1..n:
        // best = (n-1) - 1.
        let n = 10;
        let mut events = vec![Event::Read(0), Event::Write(n - 1)];
        for x in 1..n {
            events.push(Event::Read(x));
            events.push(Event::Write(n - 1 - x));
        }
        assert_eq!(min_distance_events(events), Some(n - 2));
    }

    #[test]
    fn no_writes_before_reads_is_unconstrained() {
        let events = [Event::Read(0), Event::Read(5), Event::Write(3)];
        assert_eq!(min_distance_events(events), None);
    }
}
