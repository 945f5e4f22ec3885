//! The memory-management optimization problem of §4.
//!
//! Given a kernel's iteration domain, its (possibly many) read address
//! expressions into the input tensor and write address expressions into the
//! output tensor, the problem is
//!
//! ```text
//! min  bIn − bOut
//! s.t. ∀ j ≤lex i :  read(i) + bIn  ≥  write(j) + bOut
//! ```
//!
//! equivalently `bIn − bOut ≥ D*` with
//! `D* = max_{j ≤lex i} ( write(j) − read(i) )`. All addresses are in
//! abstract *address units* — segments for the paper's single-layer
//! formulation, bytes for the fused multi-layer problems — chosen by the
//! caller.

use crate::affine::{IterDomain, LinearAccess};

/// Inclusive bounds `[lo, hi]` on a read address; reads outside are
/// padding accesses that never touch memory and are excluded by the exact
/// solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReadBounds {
    /// Smallest real input address.
    pub lo: i64,
    /// Largest real input address.
    pub hi: i64,
}

/// One read access: an address expression plus optional validity bounds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReadAccess {
    /// Address expression `read(i)`.
    pub access: LinearAccess,
    /// Optional bounds excluding padding reads.
    pub bounds: Option<ReadBounds>,
}

impl ReadAccess {
    /// A read access valid everywhere.
    pub fn unbounded(access: LinearAccess) -> Self {
        Self {
            access,
            bounds: None,
        }
    }

    /// A read access valid only inside `[lo, hi]`.
    pub fn bounded(access: LinearAccess, lo: i64, hi: i64) -> Self {
        Self {
            access,
            bounds: Some(ReadBounds { lo, hi }),
        }
    }

    /// Whether the read at iteration point `i` touches real input memory.
    pub fn is_real(&self, i: &[i64]) -> bool {
        match self.bounds {
            None => true,
            Some(ReadBounds { lo, hi }) => {
                let a = self.access.eval(i);
                a >= lo && a <= hi
            }
        }
    }
}

/// A single-kernel footprint problem (constraint (1) of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct FootprintProblem {
    /// Iteration domain executed in lexicographic order.
    pub domain: IterDomain,
    /// Read address expressions into the input tensor.
    pub reads: Vec<ReadAccess>,
    /// Write address expressions into the output tensor.
    pub writes: Vec<LinearAccess>,
    /// Input tensor size in address units.
    pub in_size: i64,
    /// Output tensor size in address units.
    pub out_size: i64,
}

impl FootprintProblem {
    /// Creates a problem; validates dimensional consistency.
    ///
    /// # Panics
    ///
    /// Panics if any access has a dimensionality different from the
    /// domain's, if there are no reads or writes, or if a size is not
    /// positive.
    pub fn new(
        domain: IterDomain,
        reads: Vec<ReadAccess>,
        writes: Vec<LinearAccess>,
        in_size: i64,
        out_size: i64,
    ) -> Self {
        assert!(!reads.is_empty(), "problem must have at least one read");
        assert!(!writes.is_empty(), "problem must have at least one write");
        assert!(in_size > 0 && out_size > 0, "tensor sizes must be positive");
        for r in &reads {
            assert_eq!(
                r.access.dims(),
                domain.dims(),
                "read access dims must match domain"
            );
        }
        for w in &writes {
            assert_eq!(
                w.dims(),
                domain.dims(),
                "write access dims must match domain"
            );
        }
        Self {
            domain,
            reads,
            writes,
            in_size,
            out_size,
        }
    }

    /// The GEMM problem of Figure 3 in segment units: domain `(m, n, k)`,
    /// reads `In[m,k]` (mapping vector `[K,1]`), writes `Out[m,n]`
    /// (mapping vector `[N,1]`).
    ///
    /// # Panics
    ///
    /// Panics unless `m, n, k >= 1`.
    pub fn gemm(m: i64, n: i64, k: i64) -> Self {
        assert!(m >= 1 && n >= 1 && k >= 1, "GEMM dims must be >= 1");
        let domain = IterDomain::new(vec![m, n, k]);
        let read = LinearAccess::new(vec![k, 0, 1], 0);
        let write = LinearAccess::new(vec![n, 1, 0], 0);
        Self::new(
            domain,
            vec![ReadAccess::unbounded(read)],
            vec![write],
            m * k,
            m * n,
        )
    }

    /// A pointwise (1×1) convolution over `pixels` spatial positions with
    /// `c_in` input channels and `c_out` output channels, managed at
    /// segment granularity `seg_elems` (the paper picks
    /// `seg = min(c_in, c_out)`, §5.3).
    ///
    /// Pointwise convolution *is* a GEMM with `M = pixels`,
    /// `K = c_in/seg`, `N = c_out/seg` in segment units.
    ///
    /// # Panics
    ///
    /// Panics if `seg_elems` does not divide both channel counts.
    pub fn pointwise(pixels: i64, c_in: i64, c_out: i64, seg_elems: i64) -> Self {
        assert!(
            c_in % seg_elems == 0 && c_out % seg_elems == 0,
            "segment size {seg_elems} must divide channels {c_in}/{c_out}"
        );
        Self::gemm(pixels, c_out / seg_elems, c_in / seg_elems)
    }

    /// A dense 2D convolution in *byte* units with NHWC layout, matching
    /// the Figure 5 loop nest: domain `(p, q, r, s)` over output pixels and
    /// the filter window; reads `In[p·stride + r − pad, q·stride + s − pad, :]`
    /// row by row; writes `Out[p, q, :]`. Channel loops are folded into the
    /// per-access unit (one unit = one channel vector = `c` or `k` bytes),
    /// so addresses here are in *pixel* units scaled by channel bytes.
    ///
    /// Reads that fall into padding are marked out-of-bounds so the exact
    /// solver ignores them.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (non-positive output size).
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        h: i64,
        w: i64,
        c_in: i64,
        c_out: i64,
        r: i64,
        s: i64,
        stride: i64,
        pad: i64,
    ) -> Self {
        let p = (h + 2 * pad - r) / stride + 1;
        let q = (w + 2 * pad - s) / stride + 1;
        assert!(p > 0 && q > 0, "convolution output must be non-empty");
        let domain = IterDomain::new(vec![p, q, r, s]);
        // Input byte address: ((p*stride + r - pad) * w + (q*stride + s - pad)) * c_in
        let read = LinearAccess::new(
            vec![stride * w * c_in, stride * c_in, w * c_in, c_in],
            -pad * w * c_in - pad * c_in,
        );
        // Output byte address: (p * q_extent + q) * c_out
        let write = LinearAccess::new(vec![q * c_out, c_out, 0, 0], 0);
        Self::new(
            domain,
            vec![ReadAccess::bounded(read, 0, h * w * c_in - 1)],
            vec![write],
            h * w * c_in,
            p * q * c_out,
        )
    }
}

/// Solution of a footprint problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OffsetSolution {
    /// `D* = min (bIn − bOut)` — the minimal safe pointer distance. May be
    /// negative (output may start *after* the input without conflict).
    pub min_distance: i64,
    /// The distance actually used after clamping to non-negative span
    /// optimum: `max(min_distance, 0)`.
    pub used_distance: i64,
    /// Peak combined footprint in address units when using
    /// `used_distance`.
    pub footprint: i64,
}

impl OffsetSolution {
    /// Builds the solution from a raw `D*` and the tensor sizes.
    ///
    /// The span occupied by input `[bIn, bIn+in)` and output
    /// `[bIn−D, bIn−D+out)` is minimized over all feasible `D ≥ D*`; since
    /// the span is non-increasing as `D` decreases toward `0` and
    /// non-decreasing beyond, the optimum is at `D = max(D*, 0)`.
    pub fn from_distance(min_distance: i64, in_size: i64, out_size: i64) -> Self {
        let used = min_distance.max(0);
        let footprint = (in_size + used).max(out_size);
        Self {
            min_distance,
            used_distance: used,
            footprint,
        }
    }

    /// Footprint reduction versus allocating input and output disjointly
    /// (`in_size + out_size`), as a fraction in `[0, 1]`.
    pub fn reduction_vs_disjoint(&self, in_size: i64, out_size: i64) -> f64 {
        let disjoint = (in_size + out_size) as f64;
        1.0 - self.footprint as f64 / disjoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_problem_shapes() {
        let p = FootprintProblem::gemm(4, 2, 3);
        assert_eq!(p.domain.extents(), &[4, 2, 3]);
        assert_eq!(p.in_size, 12);
        assert_eq!(p.out_size, 8);
        assert_eq!(p.reads[0].access.eval(&[1, 0, 2]), 5);
        assert_eq!(p.writes[0].eval(&[1, 1, 0]), 3);
    }

    #[test]
    fn pointwise_is_segment_gemm() {
        let p = FootprintProblem::pointwise(100, 32, 16, 16);
        assert_eq!(p.domain.extents(), &[100, 1, 2]);
        assert_eq!(p.in_size, 200);
        assert_eq!(p.out_size, 100);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn pointwise_rejects_nondividing_segment() {
        let _ = FootprintProblem::pointwise(10, 30, 16, 16);
    }

    #[test]
    fn conv2d_read_bounds_exclude_padding() {
        let p = FootprintProblem::conv2d(8, 8, 4, 4, 3, 3, 1, 1);
        let read = &p.reads[0];
        // Output pixel (0,0), window tap (0,0) reads input (-1,-1): padding.
        assert!(!read.is_real(&[0, 0, 0, 0]));
        // Window tap (1,1) reads input (0,0): real.
        assert!(read.is_real(&[0, 0, 1, 1]));
    }

    #[test]
    fn conv2d_geometry() {
        let p = FootprintProblem::conv2d(8, 8, 4, 8, 3, 3, 1, 1);
        assert_eq!(p.domain.extents(), &[8, 8, 3, 3]);
        assert_eq!(p.in_size, 8 * 8 * 4);
        assert_eq!(p.out_size, 8 * 8 * 8);
        // stride-2 shrinks output
        let p2 = FootprintProblem::conv2d(8, 8, 4, 8, 3, 3, 2, 1);
        assert_eq!(p2.domain.extents()[0], 4);
    }

    #[test]
    fn solution_span_accounting() {
        // D* >= 0: input plus D extra units, unless output dominates.
        let s = OffsetSolution::from_distance(2, 10, 6);
        assert_eq!(s.used_distance, 2);
        assert_eq!(s.footprint, 12);
        // Output larger than shifted input.
        let s = OffsetSolution::from_distance(1, 4, 10);
        assert_eq!(s.footprint, 10);
        // Negative D*: tensors can simply coexist at max size.
        let s = OffsetSolution::from_distance(-5, 8, 6);
        assert_eq!(s.used_distance, 0);
        assert_eq!(s.footprint, 8);
    }

    #[test]
    fn reduction_fraction() {
        let s = OffsetSolution::from_distance(1, 6, 4);
        // footprint 7 vs disjoint 10 -> 30% reduction (Figure 1c!)
        assert!((s.reduction_vs_disjoint(6, 4) - 0.3).abs() < 1e-12);
    }
}
