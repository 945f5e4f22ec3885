//! One module per regenerated table/figure (see the `vmcu-bench` section
//! of `docs/ARCHITECTURE.md`).

pub mod ablations;
pub mod fig1;
pub mod fig11_12;
pub mod fig7;
pub mod fig8;
pub mod fig9_10;
pub mod table3;
pub mod tables;

use crate::result::ExpResult;

/// Runs every experiment in paper order.
pub fn run_all() -> Vec<ExpResult> {
    vec![
        tables::table1(),
        tables::table2(),
        fig1::fig1(),
        fig7::fig7(),
        fig8::fig8(),
        fig9_10::fig9(),
        fig9_10::fig10(),
        fig11_12::fig11(),
        fig11_12::fig12(),
        table3::table3(),
        ablations::ablation_ib_scheme(),
        ablations::ablation_segment_size(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_shape_check_passes() {
        let results = run_all();
        assert_eq!(
            results.len(),
            12,
            "one result per table, figure and ablation"
        );
        let failed: Vec<String> = results
            .iter()
            .flat_map(|r| {
                r.checks
                    .iter()
                    .filter(|c| !c.passed)
                    .map(move |c| format!("{}: {c}", r.id))
            })
            .collect();
        assert!(
            failed.is_empty(),
            "failed shape checks:\n{}",
            failed.join("\n")
        );
    }
}
