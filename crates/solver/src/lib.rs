//! # vmcu-solver — segment-level memory footprint optimization
//!
//! Implements §4 ("Segment-level Memory Management") and the §5.2
//! multi-layer generalization of vMCU (MLSys 2024): given a kernel's
//! iteration domain and affine input/output accesses, compute the minimal
//! safe distance `D* = min (bIn − bOut)` between the input and output base
//! pointers in the circular segment pool, and from it the minimal peak
//! footprint.
//!
//! [`affine`] holds the §4 formulation the solvers optimize over:
//! iteration domains, access functions (`u = A·i + V`), row-major mapping
//! vectors, and composed linear address expressions.
//!
//! Three independent solvers cross-check each other:
//!
//! * [`enumerate`] — exact `O(|domain|)` lexicographic scan (ground truth);
//! * [`analytic`] — exact closed form via lex case decomposition,
//!   `O(d²)` per access pair (conservative under padding);
//! * [`closed_form`] — the paper's GEMM formulas and §5.3 segment-size
//!   rules as fast paths.
//!
//! [`multilayer`] solves fused multi-stage problems (inverted bottleneck)
//! either from affine stage descriptions or from raw execution traces.
//!
//! # Examples
//!
//! The worked example of Figure 1(c)/Figure 3 — a fully-connected layer
//! with `M=2, K=3, N=2` needs 7 segments instead of 10:
//!
//! ```
//! use vmcu_solver::{analytic, problem::FootprintProblem};
//!
//! let problem = FootprintProblem::gemm(2, 2, 3);
//! let solution = analytic::solve(&problem);
//! assert_eq!(solution.min_distance, 1); // one empty segment ahead
//! assert_eq!(solution.footprint, 7);    // vs 6 + 4 = 10 disjoint
//! ```

pub mod affine;
pub mod analytic;
pub mod closed_form;
pub mod enumerate;
pub mod multilayer;
pub mod problem;

pub use multilayer::{Event, FusedProblem, FusedStage};
pub use problem::{FootprintProblem, OffsetSolution, ReadAccess};
