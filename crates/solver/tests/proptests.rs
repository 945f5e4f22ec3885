//! Property tests: the three solvers must agree wherever their contracts
//! overlap, on arbitrary affine problems — not just the layers the paper
//! evaluates.

use proptest::prelude::*;
use vmcu_solver::affine::{IterDomain, LinearAccess};
use vmcu_solver::problem::{FootprintProblem, ReadAccess};
use vmcu_solver::{analytic, enumerate, multilayer};

/// Strategy: a random box domain with 1..=4 dims of extent 1..=6.
fn domain() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(1i64..=6, 1..=4)
}

/// Strategy: a random linear access over `dims` dimensions.
fn access(dims: usize) -> impl Strategy<Value = LinearAccess> {
    (prop::collection::vec(-4i64..=4, dims), -10i64..=10)
        .prop_map(|(coef, off)| LinearAccess::new(coef, off))
}

fn problem() -> impl Strategy<Value = FootprintProblem> {
    domain().prop_flat_map(|extents| {
        let d = extents.len();
        (
            Just(extents),
            prop::collection::vec(access(d), 1..=3),
            prop::collection::vec(access(d), 1..=3),
        )
            .prop_map(|(extents, reads, writes)| {
                FootprintProblem::new(
                    IterDomain::new(extents),
                    reads.into_iter().map(ReadAccess::unbounded).collect(),
                    writes,
                    64,
                    64,
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The analytic lex-decomposition solver is exact on unbounded-read
    /// problems: it must equal the enumerative ground truth.
    #[test]
    fn analytic_equals_enumerate(p in problem()) {
        let exact = enumerate::min_distance(&p).expect("writes exist");
        let fast = analytic::min_distance(&p);
        prop_assert_eq!(fast, exact);
    }

    /// Using any distance >= D* is safe; D* - 1 is not. Verified against
    /// the raw constraint on every instance pair via a third formulation:
    /// a replayed event trace (reads/writes in execution order, writes of
    /// an instance joining before its reads, matching the paper's j <= i).
    #[test]
    fn distance_is_tight(p in problem()) {
        let d = enumerate::min_distance(&p).expect("writes exist");
        // Rebuild the same bound from a trace to cross-validate the scan.
        let mut events = Vec::new();
        for point in p.domain.points() {
            for w in &p.writes {
                events.push(multilayer::Event::Write(w.eval(&point)));
            }
            for r in &p.reads {
                events.push(multilayer::Event::Read(r.access.eval(&point)));
            }
        }
        let trace_d = multilayer::min_distance_events(events).expect("writes exist");
        prop_assert_eq!(trace_d, d);
    }

    /// GEMM closed form equals the general solver for all shapes.
    #[test]
    fn gemm_closed_form_is_exact(m in 1i64..=8, n in 1i64..=8, k in 1i64..=8) {
        let p = FootprintProblem::gemm(m, n, k);
        prop_assert_eq!(
            vmcu_solver::closed_form::gemm_min_distance(m, n, k),
            enumerate::min_distance(&p).expect("writes exist")
        );
    }

    /// Padding can only loosen the analytic bound, never tighten it below
    /// the exact answer.
    #[test]
    fn analytic_is_conservative_under_padding(
        h in 3i64..=7, w in 3i64..=7, c in 1i64..=3, k in 1i64..=3, pad in 0i64..=1
    ) {
        let p = FootprintProblem::conv2d(h, w, c, k, 3, 3, 1, pad);
        let exact = enumerate::min_distance(&p).expect("writes exist");
        prop_assert!(analytic::min_distance(&p) >= exact);
        if pad == 0 {
            prop_assert_eq!(analytic::min_distance(&p), exact);
        }
    }

    /// Footprint never exceeds disjoint allocation and never goes below
    /// the larger tensor.
    #[test]
    fn footprint_bounds(m in 1i64..=8, n in 1i64..=8, k in 1i64..=8) {
        let p = FootprintProblem::gemm(m, n, k);
        let sol = enumerate::solve(&p);
        prop_assert!(sol.footprint <= p.in_size + p.out_size);
        prop_assert!(sol.footprint >= p.in_size.max(p.out_size));
    }
}
