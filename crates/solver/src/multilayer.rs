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
//! Two equivalent interfaces are provided:
//!
//! * [`FusedProblem`] — stages with affine accesses over a shared fused
//!   iteration domain, solved by lexicographic scan (exact);
//! * [`min_distance_events`] — a raw execution trace of reads/writes, for
//!   schedules that are easier to emit than to express affinely (the
//!   row-buffer inverted-bottleneck pipeline and the generalized fused
//!   chain — `vmcu_plan::fusion` bounds every chain it builds with it).
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

use crate::affine::{IterDomain, LinearAccess};
use crate::problem::{OffsetSolution, ReadAccess};

/// One fused stage: the `In*` reads and `Out*` writes it performs at each
/// iteration instance. Stages execute in index order within an instance.
#[derive(Debug, Clone, Default)]
pub struct FusedStage {
    /// Human-readable stage name (diagnostics only).
    pub name: String,
    /// Reads from the graph input tensor.
    pub reads: Vec<ReadAccess>,
    /// Writes to the graph output tensor.
    pub writes: Vec<LinearAccess>,
}

impl FusedStage {
    /// Creates a named stage.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Adds a read access.
    pub fn read(mut self, r: ReadAccess) -> Self {
        self.reads.push(r);
        self
    }

    /// Adds a write access.
    pub fn write(mut self, w: LinearAccess) -> Self {
        self.writes.push(w);
        self
    }
}

/// A fused multi-layer problem over a shared iteration domain.
#[derive(Debug, Clone)]
pub struct FusedProblem {
    /// Fused iteration domain (instances run in lexicographic order).
    pub domain: IterDomain,
    /// Stages executed per instance, in order.
    pub stages: Vec<FusedStage>,
    /// Graph input size in address units.
    pub in_size: i64,
    /// Graph output size in address units.
    pub out_size: i64,
}

impl FusedProblem {
    /// Computes `D* = min (bIn* − bOut*)` by scanning the execution order
    /// (instances lexicographically, stages in order; reads of a stage
    /// precede its writes).
    ///
    /// Returns `None` when no write precedes any read (unconstrained).
    pub fn min_distance(&self) -> Option<i64> {
        let mut max_write: Option<i64> = None;
        let mut best: Option<i64> = None;
        for point in self.domain.points() {
            for stage in &self.stages {
                for r in &stage.reads {
                    if !r.is_real(&point) {
                        continue;
                    }
                    if let Some(mw) = max_write {
                        let cand = mw - r.access.eval(&point);
                        best = Some(best.map_or(cand, |b| b.max(cand)));
                    }
                }
                for w in &stage.writes {
                    let addr = w.eval(&point);
                    max_write = Some(max_write.map_or(addr, |m| m.max(addr)));
                }
            }
        }
        best
    }

    /// Solves and packages the result.
    pub fn solve(&self) -> OffsetSolution {
        let d = self
            .min_distance()
            .unwrap_or(-(self.in_size + self.out_size));
        OffsetSolution::from_distance(d, self.in_size, self.out_size)
    }
}

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
    use crate::problem::FootprintProblem;

    #[test]
    fn single_stage_fused_equals_single_layer() {
        // A one-stage fused problem must agree with the single-layer
        // solver on GEMM.
        let p = FootprintProblem::gemm(3, 2, 4);
        let fused = FusedProblem {
            domain: p.domain.clone(),
            stages: vec![FusedStage::new("gemm")
                .read(p.reads[0].clone())
                .write(p.writes[0].clone())],
            in_size: p.in_size,
            out_size: p.out_size,
        };
        // Stage order differs from the paper's j <= i convention by the
        // intra-instance read-before-write refinement, which can only
        // lower the distance by the same-instance term.
        let single = crate::enumerate::min_distance(&p).unwrap();
        let multi = fused.min_distance().unwrap();
        assert!(multi <= single);
        assert!(single - multi <= 1);
    }

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
        let fused = FusedProblem {
            domain: IterDomain::new(vec![2]),
            stages: vec![FusedStage::new("read-only")
                .read(ReadAccess::unbounded(LinearAccess::new(vec![1], 0)))],
            in_size: 2,
            out_size: 1,
        };
        assert_eq!(fused.min_distance(), None);
        // Packaged solution falls back to a safely negative distance.
        assert_eq!(fused.solve().used_distance, 0);
    }

    #[test]
    fn residual_add_stage_tightens_distance() {
        // Stage 1 reads ahead (window), stage 2 reads the current element
        // (residual) and writes it. The residual read is the straggler
        // but happens before the same-position write, so overlap remains
        // possible with one position of slack.
        let w = 8;
        let domain = IterDomain::new(vec![w]);
        let window = FusedStage::new("window").read(ReadAccess::bounded(
            LinearAccess::new(vec![1], 1),
            0,
            w - 1,
        ));
        let residual = FusedStage::new("residual")
            .read(ReadAccess::unbounded(LinearAccess::new(vec![1], 0)))
            .write(LinearAccess::new(vec![1], 0));
        let fused = FusedProblem {
            domain,
            stages: vec![window, residual],
            in_size: w,
            out_size: w,
        };
        // write(x) precedes reads at x+1 (window reads x+2, residual reads
        // x+1): max(x - (x+1)) = -1 -> outputs can trail inputs in place.
        assert_eq!(fused.min_distance(), Some(-1));
        assert_eq!(fused.solve().footprint, w);
    }
}
