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

/// Runs every experiment in paper order. `heavy` includes the simulated
/// executions (Figure 8, Table 3, ablations), which take noticeably
/// longer than the pure planning experiments.
pub fn run_all(heavy: bool) -> Vec<ExpResult> {
    let mut out = vec![
        tables::table1(),
        tables::table2(),
        fig1::fig1(),
        fig7::fig7(),
        fig9_10::fig9(),
        fig9_10::fig10(),
        fig11_12::fig11(),
        fig11_12::fig12(),
    ];
    if heavy {
        out.insert(4, fig8::fig8());
        out.push(table3::table3());
        out.push(ablations::ablation_ib_scheme());
        out.push(ablations::ablation_segment_size());
    }
    out
}
