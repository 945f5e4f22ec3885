//! Closed-form footprint solver by lexicographic case decomposition.
//!
//! The inner maximization `max_{j ≤lex i} (write(j) − read(i))` over a box
//! domain decomposes into `d + 1` cases by the position where `j` and `i`
//! first differ:
//!
//! * case `t < d`: `j` and `i` agree on dims `< t`, `j_t < i_t`, and the
//!   remaining dims are unconstrained;
//! * case `d`: `j = i`.
//!
//! In every case the objective separates per dimension: coupled dims
//! contribute `max_x (w_c − r_c)·x`, free dims contribute
//! `max_x w_c·x + max_y (−r_c·y)`, and the strict dim is a two-variable
//! linear program over the lattice triangle `0 ≤ j < i ≤ B−1`, whose
//! maximum sits on one of the three (integer) vertices. The result is exact
//! and `O(d²)` per read/write pair — compare the `O(|domain|)` scan of
//! [`crate::enumerate`], against which this module is property-tested.
//!
//! Padding bounds on reads are ignored (treated as real reads), so for
//! padded convolution problems this solver is *conservative*: its distance
//! is an upper bound on the exact one.

use crate::affine::LinearAccess;
use crate::problem::{FootprintProblem, OffsetSolution};

/// `max_{0 <= x <= ub} c·x` for `ub >= 0`.
fn axis_max(c: i64, ub: i64) -> i64 {
    if c >= 0 {
        c * ub
    } else {
        0
    }
}

/// `max { w·j − r·i : 0 <= j < i <= ub }`, `ub >= 1`; evaluates the three
/// triangle vertices.
fn triangle_max(w: i64, r: i64, ub: i64) -> i64 {
    let v1 = -r; // (i, j) = (1, 0)
    let v2 = -r * ub; // (i, j) = (ub, 0)
    let v3 = w * (ub - 1) - r * ub; // (i, j) = (ub, ub − 1)
    v1.max(v2).max(v3)
}

/// `max_{j ≤lex i} (write(j) − read(i))` for one read/write pair over the
/// box with the given extents.
fn pair_max(extents: &[i64], write: &LinearAccess, read: &LinearAccess) -> i64 {
    let d = extents.len();
    let base = write.off - read.off;
    // Case t = d: j = i on every dimension.
    let mut best = base
        + (0..d)
            .map(|c| axis_max(write.coef[c] - read.coef[c], extents[c] - 1))
            .sum::<i64>();
    // Cases t < d: first strict difference at dimension t.
    for t in 0..d {
        if extents[t] < 2 {
            continue; // j_t < i_t infeasible on a unit extent
        }
        let mut v = base;
        for (c, &ext) in extents.iter().enumerate().take(t) {
            v += axis_max(write.coef[c] - read.coef[c], ext - 1);
        }
        v += triangle_max(write.coef[t], read.coef[t], extents[t] - 1);
        for (c, &ext) in extents.iter().enumerate().skip(t + 1) {
            v += axis_max(write.coef[c], ext - 1);
            v += axis_max(-read.coef[c], ext - 1);
        }
        best = best.max(v);
    }
    best
}

/// Computes `D* = min (bIn − bOut)` analytically.
///
/// # Panics
///
/// Panics if the problem has no reads or no writes —
/// `FootprintProblem` construction guarantees both.
pub fn min_distance(problem: &FootprintProblem) -> i64 {
    let extents = problem.domain.extents();
    problem
        .reads
        .iter()
        .flat_map(|r| {
            problem
                .writes
                .iter()
                .map(move |w| pair_max(extents, w, &r.access))
        })
        .max()
        .expect("problem construction guarantees at least one read and write")
}

/// Solves and packages the result.
pub fn solve(problem: &FootprintProblem) -> OffsetSolution {
    OffsetSolution::from_distance(min_distance(problem), problem.in_size, problem.out_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate;
    use crate::problem::FootprintProblem;

    #[test]
    fn matches_enumerate_on_gemm_grid() {
        for m in 1..=4 {
            for n in 1..=4 {
                for k in 1..=4 {
                    let p = FootprintProblem::gemm(m, n, k);
                    assert_eq!(
                        min_distance(&p),
                        enumerate::min_distance(&p).unwrap(),
                        "m={m} n={n} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn figure_1c_example() {
        let p = FootprintProblem::gemm(2, 2, 3);
        assert_eq!(solve(&p).footprint, 7);
    }

    #[test]
    fn axis_max_signs() {
        assert_eq!(axis_max(3, 5), 15);
        assert_eq!(axis_max(-3, 5), 0);
        assert_eq!(axis_max(0, 5), 0);
        assert_eq!(axis_max(7, 0), 0);
    }

    #[test]
    fn triangle_max_vertices() {
        // w=1, r=0, ub=4: best j as large as possible: j=3 -> 3.
        assert_eq!(triangle_max(1, 0, 4), 3);
        // w=0, r=1: pay for i, keep it at the minimum feasible i=1 -> -1.
        assert_eq!(triangle_max(0, 1, 4), -1);
        // w=0, r=-1: reward for i: i=ub -> 4.
        assert_eq!(triangle_max(0, -1, 4), 4);
        // brute-force cross-check
        for w in -3..=3 {
            for r in -3..=3 {
                for ub in 1..=5 {
                    let mut best = i64::MIN;
                    for i in 1..=ub {
                        for j in 0..i {
                            best = best.max(w * j - r * i);
                        }
                    }
                    assert_eq!(triangle_max(w, r, ub), best, "w={w} r={r} ub={ub}");
                }
            }
        }
    }

    #[test]
    fn conservative_on_padded_conv() {
        let p = FootprintProblem::conv2d(6, 6, 2, 2, 3, 3, 1, 1);
        let exact = enumerate::min_distance(&p).unwrap();
        let analytic = min_distance(&p);
        assert!(analytic >= exact, "analytic must be an upper bound");
    }

    #[test]
    fn exact_on_unpadded_conv() {
        let p = FootprintProblem::conv2d(6, 6, 2, 4, 3, 3, 1, 0);
        assert_eq!(min_distance(&p), enumerate::min_distance(&p).unwrap());
    }
}
