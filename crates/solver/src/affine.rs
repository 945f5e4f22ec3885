//! Integer affine machinery used by the memory-management formulation (§4).
//!
//! The paper models a kernel as an *iteration domain* of instances `S[i]`,
//! each accessing tensors through *access functions* `u = A·i + V` and
//! reaching linear memory through row-major *mapping vectors* `L`, so that
//! the pool address of an access is `L·(A·i + V) + b`. This module provides
//! exactly those pieces as plain integer types.
//!
//! # Examples
//!
//! Formulating the GEMM example of Figure 3:
//!
//! ```
//! use vmcu_solver::affine::{AffineMap, IterDomain, LinearAccess, row_major_strides};
//!
//! let (m, n, k) = (4, 2, 3);
//! let domain = IterDomain::new(vec![m, n, k]);
//! // In[m,k] — mapping vector [K, 1]
//! let read = LinearAccess::compose(
//!     &row_major_strides(&[m, k]),
//!     &AffineMap::new(vec![vec![1, 0, 0], vec![0, 0, 1]], vec![0, 0]),
//! );
//! // Out[m,n] — mapping vector [N, 1]
//! let write = LinearAccess::compose(
//!     &row_major_strides(&[m, n]),
//!     &AffineMap::new(vec![vec![1, 0, 0], vec![0, 1, 0]], vec![0, 0]),
//! );
//! assert_eq!(read.eval(&[1, 0, 2]), 5);
//! assert_eq!(write.eval(&[1, 1, 0]), 3);
//! assert_eq!(domain.count(), 24);
//! ```

use std::fmt;

/// A rectangular (box) iteration domain: `0 <= i[c] < extents[c]` for every
/// dimension `c`.
///
/// The paper writes domains as affine constraints `H·i + B < 0`; all kernels
/// it considers (GEMM, convolution, fused inverted bottleneck) have box
/// domains, which is what we implement. Points are iterated in
/// lexicographic (row-major) order, matching the execution order assumed by
/// the formulation.
///
/// # Examples
///
/// ```
/// use vmcu_solver::affine::IterDomain;
/// let dom = IterDomain::new(vec![2, 3]);
/// assert_eq!(dom.count(), 6);
/// let pts: Vec<Vec<i64>> = dom.points().collect();
/// assert_eq!(pts[0], vec![0, 0]);
/// assert_eq!(pts[5], vec![1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IterDomain {
    extents: Vec<i64>,
}

impl IterDomain {
    /// Creates a domain with the given per-dimension extents.
    ///
    /// # Panics
    ///
    /// Panics if any extent is not strictly positive.
    pub fn new(extents: Vec<i64>) -> Self {
        assert!(
            extents.iter().all(|&e| e > 0),
            "iteration extents must be positive, got {extents:?}"
        );
        Self { extents }
    }

    /// Number of dimensions of the domain.
    pub fn dims(&self) -> usize {
        self.extents.len()
    }

    /// Per-dimension extents.
    pub fn extents(&self) -> &[i64] {
        &self.extents
    }

    /// Total number of iteration instances.
    pub fn count(&self) -> i64 {
        self.extents.iter().product()
    }

    /// Whether `point` lies inside the domain.
    pub fn contains(&self, point: &[i64]) -> bool {
        point.len() == self.dims()
            && point
                .iter()
                .zip(&self.extents)
                .all(|(&p, &e)| p >= 0 && p < e)
    }

    /// Iterates all points in lexicographic order.
    pub fn points(&self) -> Points {
        Points {
            extents: self.extents.clone(),
            next: if self.count() == 0 {
                None
            } else {
                Some(vec![0; self.extents.len()])
            },
        }
    }

    /// The lexicographically last point of the domain.
    pub fn last_point(&self) -> Vec<i64> {
        self.extents.iter().map(|&e| e - 1).collect()
    }
}

impl fmt::Display for IterDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{ 0 <= i < {:?} }}", self.extents)
    }
}

/// Iterator over the points of an [`IterDomain`] in lexicographic order.
#[derive(Debug, Clone)]
pub struct Points {
    extents: Vec<i64>,
    next: Option<Vec<i64>>,
}

impl Iterator for Points {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Self::Item> {
        let current = self.next.clone()?;
        // Odometer increment from the innermost dimension.
        let mut succ = current.clone();
        let mut dim = succ.len();
        loop {
            if dim == 0 {
                self.next = None;
                break;
            }
            dim -= 1;
            succ[dim] += 1;
            if succ[dim] < self.extents[dim] {
                self.next = Some(succ);
                break;
            }
            succ[dim] = 0;
        }
        Some(current)
    }
}

/// Returns `true` when `a` is lexicographically strictly less than `b`.
///
/// # Panics
///
/// Panics if the two points have different dimensionality.
pub fn lex_lt(a: &[i64], b: &[i64]) -> bool {
    assert_eq!(a.len(), b.len(), "lex comparison of mismatched dims");
    a < b
}

/// Returns `true` when `a <= b` in lexicographic order (the `j <= i`
/// relation of constraint (1) in the paper).
///
/// # Panics
///
/// Panics if the two points have different dimensionality.
pub fn lex_le(a: &[i64], b: &[i64]) -> bool {
    assert_eq!(a.len(), b.len(), "lex comparison of mismatched dims");
    a <= b
}

/// An integer affine map `u = mat · i + off` from iteration vectors to
/// tensor index vectors (the paper's access matrices `A_u` and offset
/// vectors `V_u`).
///
/// # Examples
///
/// The GEMM input access `S[m,n,k] -> In[m,k]` from Figure 3:
///
/// ```
/// use vmcu_solver::affine::AffineMap;
/// let a_in = AffineMap::new(vec![vec![1, 0, 0], vec![0, 0, 1]], vec![0, 0]);
/// assert_eq!(a_in.apply(&[4, 7, 2]), vec![4, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AffineMap {
    mat: Vec<Vec<i64>>,
    off: Vec<i64>,
}

impl AffineMap {
    /// Creates a map from its matrix rows and offset vector.
    ///
    /// # Panics
    ///
    /// Panics if the number of rows differs from the offset length, or the
    /// rows have inconsistent widths.
    pub fn new(mat: Vec<Vec<i64>>, off: Vec<i64>) -> Self {
        assert_eq!(mat.len(), off.len(), "rows must match offset length");
        if let Some(first) = mat.first() {
            let w = first.len();
            assert!(
                mat.iter().all(|r| r.len() == w),
                "affine map rows must have equal width"
            );
        }
        Self { mat, off }
    }

    /// The identity map over `dims` dimensions.
    pub fn identity(dims: usize) -> Self {
        let mat = (0..dims)
            .map(|r| (0..dims).map(|c| i64::from(r == c)).collect())
            .collect();
        Self::new(mat, vec![0; dims])
    }

    /// Number of input dimensions (columns).
    pub fn in_dims(&self) -> usize {
        self.mat.first().map_or(0, Vec::len)
    }

    /// Number of output dimensions (rows).
    pub fn out_dims(&self) -> usize {
        self.mat.len()
    }

    /// Matrix rows.
    pub fn rows(&self) -> &[Vec<i64>] {
        &self.mat
    }

    /// Offset vector (the paper's `V`).
    pub fn offset(&self) -> &[i64] {
        &self.off
    }

    /// Applies the map to an iteration point.
    ///
    /// # Panics
    ///
    /// Panics if `i` does not match the map's input dimensionality.
    pub fn apply(&self, i: &[i64]) -> Vec<i64> {
        assert_eq!(i.len(), self.in_dims(), "point/map dimension mismatch");
        self.mat
            .iter()
            .zip(&self.off)
            .map(|(row, &v)| row.iter().zip(i).map(|(&a, &x)| a * x).sum::<i64>() + v)
            .collect()
    }
}

impl fmt::Display for AffineMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u = {:?}·i + {:?}", self.mat, self.off)
    }
}

/// Row-major strides for a tensor shape — the paper's *mapping vector*
/// `L`. For shape `[M, K]` the strides are `[K, 1]`.
///
/// # Examples
///
/// ```
/// use vmcu_solver::affine::row_major_strides;
/// assert_eq!(row_major_strides(&[4, 8, 3]), vec![24, 3, 1]);
/// ```
///
/// # Panics
///
/// Panics if any shape entry is not strictly positive.
pub fn row_major_strides(shape: &[i64]) -> Vec<i64> {
    assert!(
        shape.iter().all(|&e| e > 0),
        "tensor shape entries must be positive, got {shape:?}"
    );
    let mut strides = vec![1i64; shape.len()];
    for d in (0..shape.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * shape[d + 1];
    }
    strides
}

/// A fully composed linear address expression `addr(i) = coef · i + off`:
/// the mapping vector applied to an access function, i.e.
/// `L·(A·i + V)` flattened into a single coefficient vector.
///
/// This is the object the footprint solver actually optimizes over.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinearAccess {
    /// Per-iteration-dimension address coefficients (`L·A`).
    pub coef: Vec<i64>,
    /// Constant address offset (`L·V`).
    pub off: i64,
}

impl LinearAccess {
    /// Builds the address expression from a mapping vector (row-major
    /// tensor strides) and an access function.
    ///
    /// # Panics
    ///
    /// Panics if `strides` does not match the access map's output
    /// dimensionality.
    pub fn compose(strides: &[i64], access: &AffineMap) -> Self {
        assert_eq!(
            strides.len(),
            access.out_dims(),
            "mapping vector must match access output dims"
        );
        let dims = access.in_dims();
        let mut coef = vec![0i64; dims];
        for (s, row) in strides.iter().zip(access.rows()) {
            for (c, a) in coef.iter_mut().zip(row) {
                *c += s * a;
            }
        }
        let off = strides
            .iter()
            .zip(access.offset())
            .map(|(&s, &v)| s * v)
            .sum();
        Self { coef, off }
    }

    /// Direct construction from coefficients and offset.
    pub fn new(coef: Vec<i64>, off: i64) -> Self {
        Self { coef, off }
    }

    /// Evaluates the address at iteration point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` has the wrong dimensionality.
    pub fn eval(&self, i: &[i64]) -> i64 {
        assert_eq!(i.len(), self.coef.len(), "point dimension mismatch");
        self.coef.iter().zip(i).map(|(&c, &x)| c * x).sum::<i64>() + self.off
    }

    /// Number of iteration dimensions this access ranges over.
    pub fn dims(&self) -> usize {
        self.coef.len()
    }
}

impl fmt::Display for LinearAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "addr(i) = {:?}·i + {}", self.coef, self.off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_iterates_in_lex_order() {
        let dom = IterDomain::new(vec![2, 2, 2]);
        let pts: Vec<_> = dom.points().collect();
        assert_eq!(pts.len(), 8);
        for w in pts.windows(2) {
            assert!(lex_lt(&w[0], &w[1]));
        }
        assert_eq!(pts[0], vec![0, 0, 0]);
        assert_eq!(*pts.last().unwrap(), dom.last_point());
    }

    #[test]
    fn domain_count_matches_iteration() {
        for extents in [vec![1], vec![3, 1, 2], vec![5, 4]] {
            let dom = IterDomain::new(extents);
            assert_eq!(dom.points().count() as i64, dom.count());
        }
    }

    #[test]
    fn domain_contains_checks_bounds() {
        let dom = IterDomain::new(vec![3, 4]);
        assert!(dom.contains(&[0, 0]));
        assert!(dom.contains(&[2, 3]));
        assert!(!dom.contains(&[3, 0]));
        assert!(!dom.contains(&[0, -1]));
        assert!(!dom.contains(&[0]));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn domain_rejects_zero_extent() {
        let _ = IterDomain::new(vec![2, 0]);
    }

    #[test]
    fn identity_map_is_identity() {
        let id = AffineMap::identity(3);
        assert_eq!(id.apply(&[5, -2, 7]), vec![5, -2, 7]);
    }

    #[test]
    fn gemm_access_maps_match_figure_3() {
        // In: S[m,n,k] -> In[m,k];  Out: S[m,n,k] -> Out[m,n]
        let a_in = AffineMap::new(vec![vec![1, 0, 0], vec![0, 0, 1]], vec![0, 0]);
        let a_out = AffineMap::new(vec![vec![1, 0, 0], vec![0, 1, 0]], vec![0, 0]);
        assert_eq!(a_in.apply(&[2, 5, 1]), vec![2, 1]);
        assert_eq!(a_out.apply(&[2, 5, 1]), vec![2, 5]);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(row_major_strides(&[7]), vec![1]);
        assert_eq!(row_major_strides(&[2, 3]), vec![3, 1]);
        assert_eq!(row_major_strides(&[2, 3, 4]), vec![12, 4, 1]);
    }

    #[test]
    fn linear_access_composes_figure_3_example() {
        // In[m,k] with shape [M,K]=[.,3]: mapping vector [K,1]=[3,1].
        // addr = 3m + k for S[m,n,k].
        let a_in = AffineMap::new(vec![vec![1, 0, 0], vec![0, 0, 1]], vec![0, 0]);
        let acc = LinearAccess::compose(&[3, 1], &a_in);
        assert_eq!(acc.coef, vec![3, 0, 1]);
        assert_eq!(acc.off, 0);
        assert_eq!(acc.eval(&[2, 9, 1]), 7);
    }

    #[test]
    fn linear_access_carries_constant_offsets() {
        // Access with V = [1, -1] (e.g. a convolution window shift).
        let a = AffineMap::new(vec![vec![1, 0], vec![0, 1]], vec![1, -1]);
        let acc = LinearAccess::compose(&[10, 1], &a);
        assert_eq!(acc.off, 9);
        assert_eq!(acc.eval(&[0, 0]), 9);
        assert_eq!(acc.eval(&[2, 3]), 32);
    }

    #[test]
    fn lex_relations() {
        assert!(lex_lt(&[0, 5], &[1, 0]));
        assert!(lex_le(&[1, 0], &[1, 0]));
        assert!(!lex_lt(&[1, 0], &[1, 0]));
        assert!(!lex_le(&[1, 1], &[1, 0]));
    }
}
